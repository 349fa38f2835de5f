//! `bank-wal`: Bank transfers on S-TL2 with a write-ahead log, 2 threads,
//! each on a durable runtime of its own.
//!
//! 1024 accounts per runtime; each transaction does 10 transfers, each a
//! `gte` guard plus `dec` and `inc`. Every commit is appended to its
//! runtime's log file and acked once durable. The log runs
//! `DurabilityMode::Sync`: the committer flushes its own record, so no
//! thread waits for another on the commit path. Group commit (a wake-up
//! of the flush thread and back) or two committers on one log (each
//! waiting on the other's flush) timed the host's wake-up latency
//! rather than the commit path, and a lone thread's speed followed the
//! host's load on the idle vCPU; README.md has the measurements.
//!
//! Each round runs on fresh durable runtimes with their own logs. After
//! the round each log is read back and replayed into a fresh heap
//! (`recovery_s`), which must equal its runtime's live heap account by
//! account. Logs per round keep each log, and the memory to replay it,
//! the same size however long the run is.

use crate::measure::{median, nanos, quantile, timed_atomic, Bench, Finish, Recorder, SetupTimes};
use semtm_core::util::SplitMix64;
use semtm_core::wal::{replay, DurabilityMode, FileStorage, LogStorage, StopReason};
use semtm_core::{Algorithm, Stm, StmConfig};
use semtm_workloads::bank::{Bank, BankConfig};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Worker threads, each with a runtime and log of its own.
const THREADS: usize = 2;
const ACCOUNTS: usize = 1024;
const TRANSFERS_PER_TX: usize = 10;
const BANK: BankConfig = BankConfig {
    accounts: ACCOUNTS,
    initial_balance: 1_000,
    transfers_per_tx: TRANSFERS_PER_TX,
    max_amount: 100,
    audit_per_mille: 0,
    skew_accounts: 0,
    padded: false,
};

fn config() -> StmConfig {
    StmConfig::new(Algorithm::STl2)
        .heap_words(4 * ACCOUNTS)
        .orec_count(1 << 12)
        .durability(DurabilityMode::Sync)
}

/// Counters and (in traced rounds) timings of the log's storage calls,
/// over every round's log.
#[derive(Default)]
struct WalTally {
    traced: AtomicBool,
    bytes: AtomicU64,
    syncs: AtomicU64,
    append_ns: Mutex<Vec<u64>>,
    sync_ns: Mutex<Vec<u64>>,
}

impl WalTally {
    /// Runs a storage call, timing it in traced rounds.
    fn timed(
        &self,
        samples: &Mutex<Vec<u64>>,
        call: impl FnOnce() -> io::Result<()>,
    ) -> io::Result<()> {
        if !self.traced.load(Ordering::Relaxed) {
            return call();
        }
        let t0 = Instant::now();
        let r = call();
        let ns = nanos(t0.elapsed());
        samples.lock().expect("wal samples lock poisoned").push(ns);
        r
    }

    fn median_ns(samples: &Mutex<Vec<u64>>) -> f64 {
        let mut v = samples.lock().expect("wal samples lock poisoned");
        if v.is_empty() {
            0.0
        } else {
            quantile(&mut v, 0.5) as f64
        }
    }
}

/// `FileStorage` with spans around `append` and `sync`.
///
/// `sync` issues no fsync: the log file sits in the working directory,
/// on whatever disk that is, and a VM disk's fsync (hundreds of
/// microseconds, varying) would swamp the commit and ack path this
/// workload times. A record survives a process crash once `append` has
/// written it to the file, as it would on tmpfs, where fsync does
/// nothing.
struct TimedStorage {
    file: FileStorage,
    tally: Arc<WalTally>,
}

impl LogStorage for TimedStorage {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let t = &self.tally;
        t.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        t.timed(&t.append_ns, || self.file.append(bytes))
    }
    fn sync(&mut self) -> io::Result<()> {
        let t = &self.tally;
        t.syncs.fetch_add(1, Ordering::Relaxed);
        t.timed(&t.sync_ns, || Ok(()))
    }
}

/// One round's durable runtime and its log file.
struct Instance {
    stm: Stm,
    bank: Bank,
    path: PathBuf,
}

impl Drop for Instance {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Builds one durable runtime per log path, each over a fresh log file.
fn build(paths: &[PathBuf], tally: &Arc<WalTally>) -> (Vec<Instance>, SetupTimes) {
    let t0 = Instant::now();
    let stms: Vec<Stm> = paths
        .iter()
        .map(|path| {
            let file = FileStorage::create(path).expect("creating the benchmark's log file");
            let storage = TimedStorage {
                file,
                tally: tally.clone(),
            };
            Stm::with_wal(config(), Box::new(storage))
        })
        .collect();
    let t1 = Instant::now();
    let instances = stms
        .into_iter()
        .zip(paths)
        .map(|(stm, path)| Instance {
            bank: Bank::new(&stm, BANK),
            stm,
            path: path.clone(),
        })
        .collect();
    let t2 = Instant::now();
    (instances, SetupTimes::new(t0, t1, t2))
}

pub struct BankWalBench {
    /// One runtime per worker thread; empty between set-ups.
    now: Vec<Instance>,
    paths: Vec<PathBuf>,
    tally: Arc<WalTally>,
    failed: u64,
    notes: Vec<String>,
    records: u64,
    /// Per checked log: seconds to read and replay it.
    recovery_s: Vec<f64>,
    /// Per checked log: replay time per record.
    replay_ns: Vec<f64>,
}

impl BankWalBench {
    /// Worker `i`'s log is written to `<stem>-<i>.log`.
    pub fn setup(stem: &Path) -> (BankWalBench, SetupTimes) {
        let paths: Vec<PathBuf> = (0..THREADS)
            .map(|i| PathBuf::from(format!("{}-{i}.log", stem.display())))
            .collect();
        let tally = Arc::new(WalTally::default());
        let (now, times) = build(&paths, &tally);
        let bench = BankWalBench {
            now,
            paths,
            tally,
            failed: 0,
            notes: Vec::new(),
            records: 0,
            recovery_s: Vec::new(),
            replay_ns: Vec::new(),
        };
        (bench, times)
    }

    /// Checks every runtime of the finished round; see [`Self::check`].
    fn check_round(&mut self) {
        for instance in std::mem::take(&mut self.now) {
            self.check(&instance);
        }
    }

    /// Conservation and non-negative balances, then recovery: the
    /// runtime's log replayed into a fresh heap equals the live heap
    /// account by account (no acked commit is lost). Each failed check
    /// and each differing account counts as a failed operation.
    fn check(&mut self, Instance { stm, bank, path }: &Instance) {
        let mut failures = Vec::new();
        if let Err(e) = bank.verify(stm) {
            failures.push(e);
        }
        let live: Vec<i64> = (0..ACCOUNTS)
            .map(|i| stm.read_now(bank.account_addr(i)))
            .collect();

        let t0 = Instant::now();
        let bytes = std::fs::read(path).expect("reading the benchmark's log file");
        let fresh = Stm::new(config());
        let fresh_bank = Bank::new(&fresh, BANK);
        let report = replay(&bytes, fresh.heap());
        let recovery_s = t0.elapsed().as_secs_f64();

        if report.stopped != StopReason::CleanEnd {
            failures.push(format!("log ends with {:?}", report.stopped));
        }
        let lost = (0..ACCOUNTS)
            .filter(|&i| fresh.read_now(fresh_bank.account_addr(i)) != live[i])
            .count() as u64;
        self.failed += failures.len() as u64 + lost;
        if lost > 0 {
            failures.push(format!("{lost} accounts differ after recovery"));
        }
        self.notes
            .extend(failures.into_iter().map(|f| format!("check failed: {f}")));
        self.records += report.records;
        self.recovery_s.push(recovery_s);
        self.replay_ns
            .push(recovery_s * 1e9 / report.records.max(1) as f64);
    }
}

impl Bench for BankWalBench {
    fn stms(&self) -> Vec<&Stm> {
        self.now.iter().map(|i| &i.stm).collect()
    }
    fn threads(&self) -> usize {
        THREADS
    }
    fn calls_per_thread(&self) -> usize {
        10_000
    }
    fn set_traced(&self, traced: bool) {
        self.tally.traced.store(traced, Ordering::Relaxed);
    }
    fn run_calls(&self, tid: usize, rng: &mut SplitMix64, calls: usize, rec: &mut Recorder) {
        let Instance { stm, bank, .. } = &self.now[tid];
        for _ in 0..calls {
            let mut plan = [(0usize, 0usize, 0i64); TRANSFERS_PER_TX];
            for slot in &mut plan {
                let src = rng.index(ACCOUNTS);
                let mut dst = rng.index(ACCOUNTS);
                if dst == src {
                    dst = (dst + 1) % ACCOUNTS;
                }
                *slot = (src, dst, 1 + rng.below(BANK.max_amount as u64) as i64);
            }
            let done = timed_atomic(stm, rec, |tx| {
                let mut done = 0;
                for &(src, dst, amount) in &plan {
                    done += bank.transfer(tx, src, dst, amount)? as usize;
                }
                Ok(done)
            });
            std::hint::black_box(done);
        }
    }

    fn next_setup(&mut self) -> SetupTimes {
        // Checking drops the old runtimes, which must be gone before the
        // new ones truncate the log files.
        self.check_round();
        let (now, times) = build(&self.paths, &self.tally);
        self.now = now;
        times
    }

    fn finish(&mut self, calls: u64) -> Finish {
        self.check_round();
        let t = &self.tally;
        let syncs = t.syncs.load(Ordering::Relaxed);
        let bytes = t.bytes.load(Ordering::Relaxed);
        let mut notes = std::mem::take(&mut self.notes);
        notes.push(format!(
            "logs: {} ({THREADS} per round), {} records, {bytes} bytes, {syncs} syncs",
            self.recovery_s.len(),
            self.records
        ));
        let records = self.records.max(1) as f64;
        Finish {
            attempted: calls * TRANSFERS_PER_TX as u64,
            failed: self.failed,
            notes,
            layer: vec![
                ("wal.append_ns", WalTally::median_ns(&t.append_ns)),
                ("wal.sync_ns", WalTally::median_ns(&t.sync_ns)),
                ("wal.records_per_sync", records / syncs.max(1) as f64),
                ("wal.bytes_per_commit", bytes as f64 / records),
                ("wal.replay_ns_per_record", median(&self.replay_ns)),
                ("recovery_s", median(&self.recovery_s)),
            ],
        }
    }
}
