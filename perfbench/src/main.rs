//! The semtm benchmark: three closed-loop workloads driven through the
//! public APIs of `semtm-core`, `semtm-workloads` and `semtm-ir`.
//!
//! ```text
//! perfbench --workload <hashtable|bank-wal|ir-hashtable> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a few report lines (host record, drift guard, checks) and, as
//! its last line, one JSON object `{correct, attempted, failed,
//! metrics}`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See README.md for the workloads and metrics.

mod bank_wal;
mod hashtable;
mod host;
mod ir_hashtable;
mod measure;

use measure::{median, Bench, Counters, Round, SetupTimes};
use std::path::PathBuf;

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 4] = [
    ("throughput_ktps", "kTx/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed with `--trace 1`. A metric of a layer a
/// workload does not use (the log, the interpreter) reads 0 there.
const PER_LAYER: [(&str, &str); 29] = [
    ("stm.begin_ns", "ns"),
    ("stm.attempts_per_commit", "attempts/commit"),
    ("stm.abort_pct", "%"),
    ("stm.abort_pct.validation", "%"),
    ("stm.abort_pct.locked", "%"),
    ("stm.abort_pct.timeout", "%"),
    ("stm.abort_pct.lock-acquire", "%"),
    ("stm.abort_pct.durability", "%"),
    ("stm.retry_ns", "ns"),
    ("tx.body_ns", "ns"),
    ("tx.barriers_per_commit", "barriers/commit"),
    ("tx.ns_per_barrier", "ns"),
    ("commit.ns_p50", "ns"),
    ("commit.ns_p99", "ns"),
    ("wal.append_ns", "ns"),
    ("wal.sync_ns", "ns"),
    ("wal.records_per_sync", "records/sync"),
    ("wal.bytes_per_commit", "B/commit"),
    ("wal.replay_ns_per_record", "ns"),
    ("recovery_s", "s"),
    ("ir.execute_ns", "ns"),
    ("ir.tm_calls_per_tx", "calls/tx"),
    ("ir.attempts_per_tx", "attempts/tx"),
    ("ir.prepare_s", "s"),
    ("setup.stm_new_s", "s"),
    ("setup.populate_s", "s"),
    ("trace.overhead_pct", "%"),
    ("host.timer_ns", "ns"),
    ("host.steal_pct", "%"),
];

/// Where `bank-wal` writes its log, relative to the working directory.
const RUN_DIR: &str = ".bench_run";

const WORKLOADS: [&str; 3] = ["hashtable", "bank-wal", "ir-hashtable"];

struct Opts {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| *w == value)
                        .ok_or_else(|| bad(&format!("expected one of {WORKLOADS:?}")))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(bad("expected 0 to 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn setup_once(workload: &str, seed: u64) -> (Box<dyn Bench>, SetupTimes) {
    match workload {
        "hashtable" => {
            let (b, t) = hashtable::HashtableBench::setup();
            (Box::new(b), t)
        }
        "bank-wal" => {
            // The logs live inside the working directory; files named
            // by seed keep concurrent runs apart.
            let dir = PathBuf::from(RUN_DIR);
            std::fs::create_dir_all(&dir).expect("creating the benchmark's run directory");
            let (b, t) = bank_wal::BankWalBench::setup(&dir.join(format!("bank-wal-{seed}")));
            (Box::new(b), t)
        }
        _ => {
            let (b, t) = ir_hashtable::IrHashtableBench::setup();
            (Box::new(b), t)
        }
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let timer_ns = host::timer_ns();
    let ticks_before = host::CpuTicks::now();

    let (mut bench, first_setup) = setup_once(opts.workload, opts.seed);
    let (rounds, mut setups) =
        measure::run_rounds(bench.as_mut(), opts.seed, opts.seconds, opts.trace);
    setups.push(first_setup);
    let setup_median =
        |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let calls: u64 = rounds.iter().map(|r| r.calls).sum();
    let finish = bench.finish(calls);
    let run_ticks = host::CpuTicks::now().since(ticks_before);
    drop(bench);
    // Leaves no empty run directory behind; fails harmlessly if absent
    // or still in use by another run.
    let _ = std::fs::remove_dir(RUN_DIR);

    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let med = |rs: &[&Round], f: &dyn Fn(&Round) -> f64| {
        median(&rs.iter().map(|r| f(r)).collect::<Vec<_>>())
    };

    println!(
        "perfbench workload={} seed={} seconds={} trace={} rounds={} (traced {}) \
         calls={calls} setups={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        opts.trace as u8,
        rounds.len(),
        traced.len(),
        setups.len()
    );
    println!("host {}", host::record(run_ticks, timer_ns));
    println!("{}", drift_line(&plain));
    for note in &finish.notes {
        println!("{note}");
    }

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if !opts.trace {
        let values = [
            med(&plain, &|r| r.ktps()),
            med(&plain, &|r| r.lat_p50 as f64 / 1e3),
            med(&plain, &|r| r.lat_p99 as f64 / 1e3),
            setup_median(SetupTimes::total_s),
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.push((name, unit, v));
        }
    } else {
        let span = |f: fn(&measure::SpanSummary) -> u64| {
            med(&traced, &|r| {
                f(r.spans.as_ref().expect("traced round has spans")) as f64
            })
        };
        // Counters come from the untraced rounds, untouched by tracing.
        let mut stats = Counters::default();
        for r in &plain {
            stats.add(&r.stats);
        }
        let attempts = stats.attempts().max(1) as f64;
        let pct = |n: u64| 100.0 * n as f64 / attempts;
        let barriers = stats.ops as f64 / stats.commits.max(1) as f64;
        let retries: Vec<f64> = traced
            .iter()
            .filter_map(|r| r.spans.as_ref().and_then(|s| s.retry_p50))
            .map(|ns| ns as f64)
            .collect();
        let begin = span(|s| s.begin_p50);
        let commit = span(|s| s.commit_p50);
        let is_ir = opts.workload == "ir-hashtable";
        // The interpreter owns the kernel's transaction, so its body time
        // is the execute span less the probed begin and commit.
        let execute = if is_ir { span(|s| s.body_p50) } else { 0.0 };
        let body = if is_ir {
            (execute - begin - commit).max(0.0)
        } else {
            span(|s| s.body_p50)
        };
        let mut values: Vec<(&str, f64)> = vec![
            ("stm.begin_ns", begin),
            (
                "stm.attempts_per_commit",
                attempts / stats.commits.max(1) as f64,
            ),
            ("stm.abort_pct", stats.abort_pct()),
            ("stm.abort_pct.validation", pct(stats.aborts[0])),
            ("stm.abort_pct.locked", pct(stats.aborts[1])),
            ("stm.abort_pct.timeout", pct(stats.aborts[2])),
            ("stm.abort_pct.lock-acquire", pct(stats.aborts[3])),
            ("stm.abort_pct.durability", pct(stats.aborts[5])),
            (
                "stm.retry_ns",
                if retries.is_empty() {
                    0.0
                } else {
                    median(&retries)
                },
            ),
            ("tx.body_ns", body),
            ("tx.barriers_per_commit", barriers),
            (
                "tx.ns_per_barrier",
                if barriers > 0.0 { body / barriers } else { 0.0 },
            ),
            ("commit.ns_p50", commit),
            ("commit.ns_p99", span(|s| s.commit_p99)),
            ("ir.execute_ns", execute),
            ("ir.prepare_s", setup_median(|t| t.prepare_s)),
            ("setup.stm_new_s", setup_median(|t| t.stm_new_s)),
            ("setup.populate_s", setup_median(|t| t.populate_s)),
            (
                "trace.overhead_pct",
                (med(&plain, &|r| r.ktps()) / med(&traced, &|r| r.ktps()) - 1.0) * 100.0,
            ),
            ("host.timer_ns", timer_ns),
            ("host.steal_pct", run_ticks.steal_pct()),
        ];
        values.extend(finish.layer.iter().copied());
        for (name, unit) in PER_LAYER {
            let v = values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            metrics.push((name, unit, v));
        }
    }
    println!(
        "checks: attempted={} failed={}",
        finish.attempted, finish.failed
    );

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            assert!(v.is_finite(), "{name} is not a finite number: {v}");
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        finish.failed == 0,
        finish.attempted,
        finish.failed,
        body.join(", ")
    );
}

/// The drift guard: throughput of the first and last third of the
/// rounds, flagged when they differ by more than the rounds' own
/// interquartile spread (and by more than 2 %). Each third's host steal
/// is printed with it, to tell a host slowdown from a workload drift.
fn drift_line(rounds: &[&Round]) -> String {
    let k = rounds.len() / 3;
    if k == 0 {
        return format!("drift: {} rounds, too few to compare thirds", rounds.len());
    }
    let ktps: Vec<f64> = rounds.iter().map(|r| r.ktps()).collect();
    let first = median(&ktps[..k]);
    let last = median(&ktps[ktps.len() - k..]);
    let mut sorted = ktps.clone();
    sorted.sort_by(f64::total_cmp);
    let q = |p: f64| sorted[((sorted.len() - 1) as f64 * p).round() as usize];
    let all = median(&ktps);
    let noise_pct = 100.0 * (q(0.75) - q(0.25)) / all;
    let change_pct = 100.0 * (last - first) / first;
    let steal = |third: &[&Round]| {
        let ticks = third
            .iter()
            .fold(host::CpuTicks::default(), |acc, r| acc + r.ticks);
        ticks.steal_pct()
    };
    let (steal_first, steal_last) = (steal(&rounds[..k]), steal(&rounds[rounds.len() - k..]));
    let flagged = change_pct.abs() > noise_pct.max(2.0);
    format!(
        "drift: first third {first:.1} kTx/s (steal {steal_first:.1} %), last third {last:.1} \
         kTx/s (steal {steal_last:.1} %), {change_pct:+.1} %; round spread (IQR) {noise_pct:.1} %: {}",
        if flagged { "FLAGGED" } else { "steady" }
    )
}
