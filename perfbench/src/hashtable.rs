//! `hashtable`: Algorithm 2's open-addressing set on S-NOrec, 2 threads.
//!
//! 4096 cells, 25 % live and 25 % tombstones; keys come from `1..=2048`,
//! twice the live count, so successful inserts and removes balance and
//! the (used, removed, free) census stays put. 10 operations per
//! transaction, 80 % `get`.

use crate::measure::{timed_atomic, Bench, Finish, Recorder, SetupTimes};
use semtm_core::util::SplitMix64;
use semtm_core::{Algorithm, Stm, StmConfig};
use semtm_workloads::hashtable::{Hashtable, HashtableConfig};
use std::sync::Mutex;
use std::time::Instant;

const CAPACITY: usize = 4096;
const KEYS: u64 = 2048;
const OPS_PER_TX: usize = 10;
const GET_PCT: u64 = 80;

pub struct HashtableBench {
    stm: Stm,
    table: Hashtable,
    present_before: Vec<bool>,
    census_before: (usize, usize, usize),
    /// Per key: successful inserts minus successful removes.
    net: Mutex<Vec<i64>>,
}

#[derive(Clone, Copy)]
enum Op {
    Get,
    Insert,
    Remove,
}

/// Builds the runtime and the populated table.
fn build() -> (Stm, Hashtable, SetupTimes) {
    let t0 = Instant::now();
    let stm = Stm::new(
        StmConfig::new(Algorithm::SNOrec)
            .heap_words(4 * CAPACITY)
            .orec_count(1 << 10),
    );
    let t1 = Instant::now();
    let table = Hashtable::new(
        &stm,
        HashtableConfig {
            capacity: CAPACITY,
            fill_pct: 25,
            tombstone_pct: 25,
            ops_per_tx: OPS_PER_TX,
            get_pct: GET_PCT as u32,
            key_space: KEYS,
            padded: false,
        },
    );
    let t2 = Instant::now();
    (stm, table, SetupTimes::new(t0, t1, t2))
}

impl HashtableBench {
    pub fn setup() -> (HashtableBench, SetupTimes) {
        let (stm, table, times) = build();
        let present_before = presence(&stm, &table);
        let census_before = table.census(&stm);
        let bench = HashtableBench {
            stm,
            table,
            present_before,
            census_before,
            net: Mutex::new(vec![0; KEYS as usize + 1]),
        };
        (bench, times)
    }
}

fn presence(stm: &Stm, table: &Hashtable) -> Vec<bool> {
    let mut present = vec![false; KEYS as usize + 1];
    for (k, p) in present.iter_mut().enumerate().skip(1) {
        *p = stm.atomic(|tx| table.contains(tx, k as i64));
    }
    present
}

impl Bench for HashtableBench {
    fn stms(&self) -> Vec<&Stm> {
        vec![&self.stm]
    }
    fn threads(&self) -> usize {
        2
    }
    fn calls_per_thread(&self) -> usize {
        10_000
    }
    fn run_calls(&self, _tid: usize, rng: &mut SplitMix64, calls: usize, rec: &mut Recorder) {
        let mut net = vec![0i64; KEYS as usize + 1];
        for _ in 0..calls {
            let mut plan = [(Op::Get, 0i64); OPS_PER_TX];
            for slot in &mut plan {
                let key = 1 + rng.below(KEYS) as i64;
                let op = if rng.below(100) < GET_PCT {
                    Op::Get
                } else if rng.chance(50) {
                    Op::Insert
                } else {
                    Op::Remove
                };
                *slot = (op, key);
            }
            let delta = timed_atomic(&self.stm, rec, |tx| {
                let mut delta = [0i64; OPS_PER_TX];
                for (d, &(op, key)) in delta.iter_mut().zip(&plan) {
                    match op {
                        Op::Get => {
                            std::hint::black_box(self.table.contains(tx, key)?);
                        }
                        Op::Insert => *d = self.table.insert(tx, key)? as i64,
                        Op::Remove => *d = -(self.table.remove(tx, key)? as i64),
                    }
                }
                Ok(delta)
            });
            for (d, &(_, key)) in delta.iter().zip(&plan) {
                net[key as usize] += d;
            }
        }
        let mut total = self.net.lock().expect("tally lock poisoned");
        for (t, n) in total.iter_mut().zip(net) {
            *t += n;
        }
    }

    fn next_setup(&mut self) -> SetupTimes {
        build().2
    }

    /// Open-addressing integrity, and every key's presence equals its
    /// presence before the run plus its net successful inserts.
    fn finish(&mut self, calls: u64) -> Finish {
        let mut failed = 0;
        let mut notes = Vec::new();
        if let Err(e) = self.table.verify(&self.stm) {
            failed += 1;
            notes.push(format!("check failed: {e}"));
        }
        let after = presence(&self.stm, &self.table);
        let net = self.net.lock().expect("tally lock poisoned");
        let wrong = (1..=KEYS as usize)
            .filter(|&k| after[k] as i64 - self.present_before[k] as i64 != net[k])
            .count() as u64;
        if wrong > 0 {
            notes.push(format!(
                "check failed: {wrong} keys disagree with their inserts/removes"
            ));
        }
        failed += wrong;
        let (u0, r0, f0) = self.census_before;
        let (u1, r1, f1) = self.table.census(&self.stm);
        notes.push(format!(
            "census (used, removed, free): before ({u0}, {r0}, {f0}) after ({u1}, {r1}, {f1})"
        ));
        Finish {
            attempted: calls * OPS_PER_TX as u64,
            failed,
            notes,
            layer: Vec::new(),
        }
    }
}
