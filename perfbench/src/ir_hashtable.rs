//! `ir-hashtable`: the `ht_op` kernel after `run_tm_passes`, lowered and
//! run through `Interp::execute_lowered` on S-NOrec, 2 threads.
//!
//! 4096 cells prefilled with the whole key universe `1..=2048`, each key
//! in its home cell, so every `get` is a hit, returns `Some(1)` and
//! leaves the state unchanged: 3 TM calls and 1 attempt per transaction.
//! The fixed per-transaction cost dominates.
//!
//! The transactions are read-only hits, so the two threads never
//! conflict; throughput is twice one thread's at the same per-call
//! latency. A lone thread's speed swung with the host's load on the
//! idle vCPU (1.6 to 2.9 M calls/s between runs); two threads keep both
//! vCPUs busy and measure steadily.

use crate::measure::{nanos, Bench, Finish, Recorder, SetupTimes};
use semtm_core::util::SplitMix64;
use semtm_core::{Addr, Algorithm, Stm, StmConfig};
use semtm_ir::programs::HASHTABLE_OP_SRC;
use semtm_ir::{lower, parse_function, run_tm_passes, ExecError, Interp, LoweredFunction};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

const CAPACITY: usize = 4096;
const KEYS: u64 = 2048;
/// In traced rounds, one empty-transaction probe per this many calls
/// times the runtime's begin and commit: the kernel's own transaction
/// runs inside the interpreter, out of the benchmark's reach.
const PROBE_EVERY: usize = 8;

pub struct IrHashtableBench {
    stm: Stm,
    func: LoweredFunction,
    states: Addr,
    keys: Addr,
    tm_calls: AtomicU64,
    attempts: AtomicU64,
    wrong: AtomicU64,
}

impl IrHashtableBench {
    pub fn setup() -> (IrHashtableBench, SetupTimes) {
        let t0 = Instant::now();
        let mut f = parse_function(HASHTABLE_OP_SRC).expect("ht_op parses");
        run_tm_passes(&mut f);
        let func = lower(&f).expect("ht_op lowers");
        let t1 = Instant::now();
        let stm = Stm::new(
            StmConfig::new(Algorithm::SNOrec)
                .heap_words(4 * CAPACITY)
                .orec_count(1 << 10),
        );
        let t2 = Instant::now();
        let states = stm.alloc_array(CAPACITY, 0i64);
        let keys = stm.alloc_array(CAPACITY, 0i64);
        let bench = IrHashtableBench {
            stm,
            func,
            states,
            keys,
            tm_calls: AtomicU64::new(0),
            attempts: AtomicU64::new(0),
            wrong: AtomicU64::new(0),
        };
        let interp = Interp::new(&bench.stm);
        for key in 1..=KEYS as i64 {
            if bench.call(&interp, key, 1) != Ok(Some(2)) {
                bench.wrong.fetch_add(1, Ordering::Relaxed);
            }
        }
        let t3 = Instant::now();
        let mut times = SetupTimes::new(t1, t2, t3);
        times.prepare_s = (t1 - t0).as_secs_f64();
        (bench, times)
    }

    /// `ht_op(states, keys, mask, key, op)`; op 0 = get, 1 = insert.
    fn call(&self, interp: &Interp<'_>, key: i64, op: i64) -> Result<Option<i64>, ExecError> {
        let args = [
            self.states.index() as i64,
            self.keys.index() as i64,
            CAPACITY as i64 - 1,
            key,
            op,
        ];
        interp.execute_lowered(&self.func, &args)
    }
}

impl Bench for IrHashtableBench {
    fn stms(&self) -> Vec<&Stm> {
        vec![&self.stm]
    }
    fn threads(&self) -> usize {
        2
    }
    fn calls_per_thread(&self) -> usize {
        100_000
    }
    fn run_calls(&self, _tid: usize, rng: &mut SplitMix64, calls: usize, rec: &mut Recorder) {
        let interp = Interp::new(&self.stm);
        let mut wrong = 0;
        for i in 0..calls {
            let key = 1 + rng.below(KEYS) as i64;
            let t0 = Instant::now();
            let out = self.call(&interp, key, 0);
            let ns = nanos(t0.elapsed());
            rec.lat.push(ns);
            wrong += (out != Ok(Some(1))) as u64;
            if let Some(spans) = rec.spans.as_mut() {
                spans.body.push(ns);
                if i % PROBE_EVERY == 0 {
                    let t0 = Instant::now();
                    let mut entered = t0;
                    let mut left = t0;
                    let _ = self.stm.try_atomic(|_tx| {
                        entered = Instant::now();
                        left = Instant::now();
                        Ok(())
                    });
                    let end = Instant::now();
                    spans.begin.push(nanos(entered - t0));
                    spans.commit.push(nanos(end - left));
                }
            }
        }
        self.tm_calls
            .fetch_add(interp.counters.tm_calls(), Ordering::Relaxed);
        self.attempts
            .fetch_add(interp.counters.region_attempts(), Ordering::Relaxed);
        self.wrong.fetch_add(wrong, Ordering::Relaxed);
    }

    fn next_setup(&mut self) -> SetupTimes {
        IrHashtableBench::setup().1
    }

    /// Every `get` (and every prefill insert) returned what a hit must.
    fn finish(&mut self, calls: u64) -> Finish {
        let wrong = self.wrong.load(Ordering::Relaxed);
        let mut notes = Vec::new();
        if wrong > 0 {
            notes.push(format!(
                "check failed: {wrong} kernel calls returned a wrong result"
            ));
        }
        let per_tx = |n: &AtomicU64| n.load(Ordering::Relaxed) as f64 / calls.max(1) as f64;
        Finish {
            attempted: calls + KEYS,
            failed: wrong,
            notes,
            layer: vec![
                ("ir.tm_calls_per_tx", per_tx(&self.tm_calls)),
                ("ir.attempts_per_tx", per_tx(&self.attempts)),
            ],
        }
    }
}
