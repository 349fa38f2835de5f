//! Closed-loop round runner and the benchmark's own spans.
//!
//! A run is a sequence of rounds. In each round every worker thread
//! issues a fixed number of calls back to back (closed loop: the next
//! call starts when the previous one returned), so a round is a fixed
//! amount of work and its throughput is `calls / wall time`. Rounds
//! repeat until the run's time is up; metrics are medians over rounds.
//!
//! Spans are recorded only in traced rounds, around the calls into the
//! runtime: the `atomic()` call, each body attempt (a wrapper around the
//! closure), and the commit (last body return to `atomic()` return).

use crate::host::CpuTicks;
use semtm_core::util::SplitMix64;
use semtm_core::{Abort, StatsSnapshot, Stm, Tx};
use std::time::{Duration, Instant};

/// One workload as the round runner drives it.
pub trait Bench: Sync {
    /// The runtimes under test in the current round (one per worker
    /// thread when the workers share nothing, else one).
    fn stms(&self) -> Vec<&Stm>;
    /// Worker threads per round.
    fn threads(&self) -> usize;
    /// Calls each worker issues per round.
    fn calls_per_thread(&self) -> usize;
    /// Issue worker `tid`'s `calls` closed-loop calls, recording each
    /// into `rec`.
    fn run_calls(&self, tid: usize, rng: &mut SplitMix64, calls: usize, rec: &mut Recorder);
    /// Called before each round; traced rounds also time storage calls.
    fn set_traced(&self, _traced: bool) {}
    /// Between rounds: build a fresh instance of the workload and return
    /// its set-up times, so `setup_s` is a median over the whole run. A
    /// workload with per-round state (`bank-wal`'s log) checks the
    /// finished round and continues on the fresh instance; the others
    /// drop it.
    fn next_setup(&mut self) -> SetupTimes;
    /// Quiescent output checks after the last round; `calls` is the
    /// number of workload calls the rounds issued.
    fn finish(&mut self, calls: u64) -> Finish;
}

/// Set-up phases of one workload instance, in seconds.
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    /// Parse, passes and lowering (IR workload only).
    pub prepare_s: f64,
    /// Building the `Stm` (and, when durable, creating its log).
    pub stm_new_s: f64,
    /// Populating the data structure.
    pub populate_s: f64,
}

impl SetupTimes {
    /// Phases timed as `t0..t1` (build the `Stm`) and `t1..t2` (populate).
    pub fn new(t0: Instant, t1: Instant, t2: Instant) -> SetupTimes {
        SetupTimes {
            prepare_s: 0.0,
            stm_new_s: (t1 - t0).as_secs_f64(),
            populate_s: (t2 - t1).as_secs_f64(),
        }
    }

    pub fn total_s(&self) -> f64 {
        self.prepare_s + self.stm_new_s + self.populate_s
    }
}

/// Output checks and workload-specific per-layer values, after the run.
pub struct Finish {
    /// Workload operations issued.
    pub attempted: u64,
    /// Operations whose result was wrong, plus failed invariant checks.
    pub failed: u64,
    /// Lines printed before the result.
    pub notes: Vec<String>,
    /// Per-layer metrics only this workload can measure.
    pub layer: Vec<(&'static str, f64)>,
}

/// Runtime counters (`Stm::stats`), summable over rounds.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pub commits: u64,
    /// Aborts by reason: validation, locked, timeout, lock-acquire,
    /// explicit, durability.
    pub aborts: [u64; 6],
    /// Barriers issued by committed attempts.
    pub ops: u64,
}

impl Counters {
    fn of(s: &StatsSnapshot) -> Counters {
        Counters {
            commits: s.commits,
            aborts: [
                s.aborts_validation,
                s.aborts_locked,
                s.aborts_timeout,
                s.aborts_lock_acquire,
                s.aborts_explicit,
                s.aborts_durability,
            ],
            ops: s.committed_ops(),
        }
    }

    pub fn add(&mut self, other: &Counters) {
        self.commits += other.commits;
        for (a, b) in self.aborts.iter_mut().zip(other.aborts) {
            *a += b;
        }
        self.ops += other.ops;
    }

    pub fn attempts(&self) -> u64 {
        self.commits + self.aborts.iter().sum::<u64>()
    }

    /// Conflict aborts over conflict aborts plus commits, as
    /// `StatsSnapshot::abort_pct` counts them.
    pub fn abort_pct(&self) -> f64 {
        let conflicts: u64 = self.aborts[..4].iter().sum();
        100.0 * conflicts as f64 / (self.commits + conflicts).max(1) as f64
    }
}

/// Per-worker, per-round samples (nanoseconds).
pub struct Recorder {
    /// Latency of each call.
    pub lat: Vec<u64>,
    /// Present in traced rounds only.
    pub spans: Option<Spans>,
}

/// Span samples of one worker in one traced round (nanoseconds).
#[derive(Default)]
pub struct Spans {
    /// `atomic()` entry to first body call.
    pub begin: Vec<u64>,
    /// Duration of the attempt that committed.
    pub body: Vec<u64>,
    /// Last body return to `atomic()` return.
    pub commit: Vec<u64>,
    /// Body return of an aborted attempt to the next body call
    /// (failed commit, rollback, backoff, re-enter).
    pub retry: Vec<u64>,
}

impl Recorder {
    fn new(calls: usize, traced: bool) -> Recorder {
        Recorder {
            lat: Vec::with_capacity(calls),
            spans: traced.then(Spans::default),
        }
    }
}

pub fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// `stm.atomic(body)`, timed; in traced rounds also split into spans.
pub fn timed_atomic<T>(
    stm: &Stm,
    rec: &mut Recorder,
    mut body: impl FnMut(&mut Tx<'_>) -> Result<T, Abort>,
) -> T {
    let Some(spans) = rec.spans.as_mut() else {
        let t0 = Instant::now();
        let v = stm.atomic(body);
        rec.lat.push(nanos(t0.elapsed()));
        return v;
    };
    let t0 = Instant::now();
    let mut first: Option<Instant> = None;
    let mut last_end = t0;
    let mut last_body = 0;
    let v = stm.atomic(|tx| {
        let start = Instant::now();
        match first {
            None => first = Some(start),
            Some(_) => spans.retry.push(nanos(start - last_end)),
        }
        let r = body(tx);
        last_end = Instant::now();
        last_body = nanos(last_end - start);
        r
    });
    let end = Instant::now();
    spans
        .begin
        .push(nanos(first.expect("atomic() ran its body") - t0));
    spans.body.push(last_body);
    spans.commit.push(nanos(end - last_end));
    rec.lat.push(nanos(end - t0));
    v
}

/// What one round measured.
pub struct Round {
    pub traced: bool,
    pub calls: u64,
    pub wall_ns: u64,
    pub lat_p50: u64,
    pub lat_p99: u64,
    pub spans: Option<SpanSummary>,
    /// Runtime counters over the round.
    pub stats: Counters,
    /// Host CPU ticks over the round.
    pub ticks: CpuTicks,
}

impl Round {
    pub fn ktps(&self) -> f64 {
        self.calls as f64 / self.wall_ns as f64 * 1e6
    }
}

/// Per-round span percentiles (nanoseconds).
pub struct SpanSummary {
    pub begin_p50: u64,
    pub body_p50: u64,
    pub commit_p50: u64,
    pub commit_p99: u64,
    /// `None` when no attempt aborted in the round.
    pub retry_p50: Option<u64>,
}

/// Value at quantile `q` (0..=1) of `v`, reordering `v`.
pub fn quantile(v: &mut [u64], q: f64) -> u64 {
    assert!(!v.is_empty(), "quantile of no samples");
    let k = ((v.len() - 1) as f64 * q).round() as usize;
    *v.select_nth_unstable(k).1
}

/// Median of `v` (mean of the two middle values for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no values");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Run rounds until `seconds` have passed (at least one round, and in a
/// traced run at least one untraced and one traced round). A traced run
/// alternates untraced and traced rounds so both see the same host.
/// Also returns the set-up times taken between rounds.
pub fn run_rounds(
    bench: &mut dyn Bench,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> (Vec<Round>, Vec<SetupTimes>) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let min_rounds = if trace { 2 } else { 1 };
    let calls = bench.calls_per_thread();
    let mut rounds = Vec::new();
    let mut setups = Vec::new();
    while rounds.len() < min_rounds || Instant::now() < deadline {
        if !rounds.is_empty() {
            setups.push(bench.next_setup());
        }
        let index = rounds.len() as u64;
        let traced = trace && index % 2 == 1;
        let wl: &dyn Bench = bench;
        wl.set_traced(traced);
        let before: Vec<StatsSnapshot> = wl.stms().iter().map(|s| s.stats()).collect();
        let ticks = CpuTicks::now();
        let outs: Vec<(Instant, Instant, Recorder)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..wl.threads() as u64)
                .map(|tid| {
                    s.spawn(move || {
                        let mut rng = SplitMix64::new(
                            seed ^ (index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                                ^ (tid + 1).wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
                        );
                        let mut rec = Recorder::new(calls, traced);
                        let start = Instant::now();
                        wl.run_calls(tid as usize, &mut rng, calls, &mut rec);
                        (start, Instant::now(), rec)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("benchmark worker panicked"))
                .collect()
        });
        let mut stats = Counters::default();
        for (stm, before) in wl.stms().iter().zip(&before) {
            stats.add(&Counters::of(&stm.stats().since(before)));
        }
        let ticks = CpuTicks::now().since(ticks);
        let start = outs.iter().map(|o| o.0).min().expect("one worker");
        let end = outs.iter().map(|o| o.1).max().expect("one worker");
        let mut lat: Vec<u64> = outs.iter().flat_map(|o| o.2.lat.iter().copied()).collect();
        let spans = traced.then(|| summarize(outs.into_iter().filter_map(|o| o.2.spans)));
        rounds.push(Round {
            traced,
            calls: lat.len() as u64,
            wall_ns: nanos(end - start).max(1),
            lat_p50: quantile(&mut lat, 0.50),
            lat_p99: quantile(&mut lat, 0.99),
            spans,
            stats,
            ticks,
        });
    }
    (rounds, setups)
}

fn summarize(parts: impl Iterator<Item = Spans>) -> SpanSummary {
    let mut all = Spans::default();
    for p in parts {
        all.begin.extend(p.begin);
        all.body.extend(p.body);
        all.commit.extend(p.commit);
        all.retry.extend(p.retry);
    }
    SpanSummary {
        begin_p50: quantile(&mut all.begin, 0.50),
        body_p50: quantile(&mut all.body, 0.50),
        commit_p50: quantile(&mut all.commit, 0.50),
        commit_p99: quantile(&mut all.commit, 0.99),
        retry_p50: (!all.retry.is_empty()).then(|| quantile(&mut all.retry, 0.50)),
    }
}
