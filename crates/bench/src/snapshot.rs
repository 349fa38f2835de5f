//! Machine-readable per-PR performance snapshot (`results/BENCH_10.json`).
//!
//! One fixed grid — the three A7 benchmarks × the two fixed engines
//! plus the adaptive runtime — with throughput, p99 commit latency,
//! abort rate, and commit counts per cell. The file is the CI artifact
//! a regression tracker diffs across PRs, so its shape is pinned by
//! [`SCHEMA`] and enforced by [`validate`] (tier-1 runs it on every
//! emitted snapshot; the schema check is also a unit test).

use crate::experiments::Sweep;
use crate::jsonin::{self, JValue};
use crate::report::Json;
use semtm_core::{AdaptPolicy, Algorithm, Stm, StmConfig, TelemetryLevel};
use semtm_workloads::driver::{run_for_duration, RunResult};
use semtm_workloads::{bank, hashtable, scan};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Schema identifier embedded in (and required of) every snapshot.
pub const SCHEMA: &str = "semtm-bench-snapshot/v1";

/// One engine's measurements on one benchmark.
#[derive(Clone, Debug)]
pub struct EngineSample {
    /// Engine label (`S-NOrec`, `S-TL2`, `adaptive`).
    pub engine: String,
    /// Committed transactions per second, in thousands.
    pub throughput_ktps: f64,
    /// 99th-percentile end-to-end commit latency in nanoseconds
    /// ([`TelemetryLevel::Histograms`] tier).
    pub p99_commit_ns: u64,
    /// Conflict aborts as a percentage of attempts.
    pub abort_pct: f64,
    /// Committed transactions over the interval.
    pub commits: u64,
    /// Engine hot-swaps during the run (0 for the fixed engines).
    pub switches: u64,
}

/// One benchmark's engine grid.
#[derive(Clone, Debug)]
pub struct BenchmarkSnapshot {
    /// Benchmark name (`bank`, `hashtable-hot`, `scan`).
    pub benchmark: String,
    /// One sample per engine.
    pub engines: Vec<EngineSample>,
}

/// The whole snapshot.
#[derive(Clone, Debug)]
pub struct BenchSnapshot {
    /// Worker threads every cell ran with.
    pub threads: usize,
    /// Measured interval per cell, in seconds.
    pub duration_secs: f64,
    /// Per-benchmark engine grids.
    pub benchmarks: Vec<BenchmarkSnapshot>,
}

fn engine_stm(alg: Algorithm, adaptive: Option<AdaptPolicy>) -> Stm {
    let mut cfg = StmConfig::new(alg)
        .heap_words(1 << 16)
        .orec_count(1 << 14)
        .telemetry(TelemetryLevel::Histograms);
    if let Some(p) = adaptive {
        cfg = cfg.adaptive(p);
    }
    Stm::new(cfg)
}

/// Run `work` for `duration`, with a controller ticker thread polling
/// [`Stm::adapt_tick`] if the runtime is adaptive (mirroring the A7
/// harness — the snapshot's `adaptive` cells measure the settled mode
/// the controller picks for each benchmark, switches included).
fn measured_run(
    stm: &Stm,
    adaptive: bool,
    threads: usize,
    duration: Duration,
    seed: u64,
    work: impl Fn(usize, &mut semtm_core::util::SplitMix64) + Sync,
) -> RunResult {
    if !adaptive {
        return run_for_duration(stm, threads, duration, seed, work);
    }
    let stop = AtomicBool::new(false);
    let mut r = None;
    std::thread::scope(|s| {
        let ticker = s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                stm.adapt_tick();
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        r = Some(run_for_duration(stm, threads, duration, seed, work));
        stop.store(true, Ordering::Relaxed);
        ticker.join().expect("ticker thread panicked");
    });
    r.expect("measured run completed")
}

/// Measure the full grid at the sweep's highest thread count.
pub fn collect(sweep: &Sweep) -> BenchSnapshot {
    let threads = sweep.threads.iter().copied().max().unwrap_or(1);
    let policy = AdaptPolicy {
        min_commits: sweep.pick(8, 16),
        dwell_ticks: 2,
        ..AdaptPolicy::default()
    };
    let engines: [(&str, Algorithm, Option<AdaptPolicy>); 3] = [
        ("S-NOrec", Algorithm::SNOrec, None),
        ("S-TL2", Algorithm::STl2, None),
        ("adaptive", Algorithm::SNOrec, Some(policy)),
    ];
    let bank_cfg = bank::BankConfig {
        accounts: sweep.pick(32, 64),
        ..bank::BankConfig::default()
    };
    let ht_cap = sweep.pick(1 << 9, 1 << 10);
    let ht_cfg = hashtable::HashtableConfig {
        capacity: ht_cap,
        fill_pct: 45,
        tombstone_pct: 45,
        ops_per_tx: 10,
        get_pct: 60,
        key_space: (ht_cap as u64) * 4,
        padded: false,
    };
    let scan_cfg = scan::ScanConfig {
        cells: sweep.pick(128, 256),
        reads_per_tx: sweep.pick(32, 64),
        ..scan::ScanConfig::default()
    };

    let mut benchmarks = Vec::new();
    for bench in ["bank", "hashtable-hot", "scan"] {
        let mut samples = Vec::new();
        for (label, alg, adaptive) in &engines {
            let stm = engine_stm(*alg, *adaptive);
            let r = match bench {
                "bank" => {
                    let state = bank::Bank::new(&stm, bank_cfg);
                    let r = measured_run(
                        &stm,
                        adaptive.is_some(),
                        threads,
                        sweep.duration,
                        sweep.seed,
                        |_tid, rng| {
                            state.transfer_tx(&stm, rng);
                        },
                    );
                    state.verify(&stm).expect("bank invariants violated");
                    r
                }
                "hashtable-hot" => {
                    let table = hashtable::Hashtable::new(&stm, ht_cfg);
                    let r = measured_run(
                        &stm,
                        adaptive.is_some(),
                        threads,
                        sweep.duration,
                        sweep.seed,
                        |_tid, rng| {
                            table.workload_tx(&stm, rng);
                        },
                    );
                    table.verify(&stm).expect("hashtable integrity violated");
                    r
                }
                _ => {
                    let state = scan::Scan::new(&stm, scan_cfg);
                    let incs = AtomicU64::new(0);
                    let r = measured_run(
                        &stm,
                        adaptive.is_some(),
                        threads,
                        sweep.duration,
                        sweep.seed,
                        |_tid, rng| {
                            incs.fetch_add(state.scan_tx(&stm, rng), Ordering::Relaxed);
                        },
                    );
                    state
                        .verify(&stm, incs.load(Ordering::Relaxed))
                        .expect("scan invariants violated");
                    r
                }
            };
            samples.push(EngineSample {
                engine: label.to_string(),
                throughput_ktps: r.throughput_ktps(),
                p99_commit_ns: stm.telemetry().commit_latency_ns().p99(),
                abort_pct: r.abort_pct(),
                commits: r.stats.commits,
                switches: stm.switch_count(),
            });
        }
        benchmarks.push(BenchmarkSnapshot {
            benchmark: bench.to_string(),
            engines: samples,
        });
    }
    BenchSnapshot {
        threads,
        duration_secs: sweep.duration.as_secs_f64(),
        benchmarks,
    }
}

impl BenchSnapshot {
    /// Serialize in the pinned [`SCHEMA`] shape.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("schema", Json::Str(SCHEMA.to_string())),
            ("threads", Json::UInt(self.threads as u64)),
            ("duration_secs", Json::Float(self.duration_secs)),
            (
                "benchmarks",
                Json::Array(
                    self.benchmarks
                        .iter()
                        .map(|b| {
                            Json::Object(vec![
                                ("benchmark", Json::Str(b.benchmark.clone())),
                                (
                                    "engines",
                                    Json::Array(
                                        b.engines
                                            .iter()
                                            .map(|e| {
                                                Json::Object(vec![
                                                    ("engine", Json::Str(e.engine.clone())),
                                                    (
                                                        "throughput_ktps",
                                                        Json::Float(e.throughput_ktps),
                                                    ),
                                                    ("p99_commit_ns", Json::UInt(e.p99_commit_ns)),
                                                    ("abort_pct", Json::Float(e.abort_pct)),
                                                    ("commits", Json::UInt(e.commits)),
                                                    ("switches", Json::UInt(e.switches)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn require<'a>(obj: &'a JValue, key: &str, at: &str) -> Result<&'a JValue, String> {
    obj.get(key).ok_or_else(|| format!("{at}: missing `{key}`"))
}

fn require_num(obj: &JValue, key: &str, at: &str) -> Result<f64, String> {
    require(obj, key, at)?
        .as_num()
        .ok_or_else(|| format!("{at}: `{key}` is not a number"))
}

/// Validate a rendered snapshot against the pinned schema: exact schema
/// tag, well-typed fields, non-empty benchmark and engine lists, and an
/// `adaptive` sample alongside every fixed engine.
pub fn validate(text: &str) -> Result<(), String> {
    let root = jsonin::parse(text)?;
    let schema = require(&root, "schema", "root")?
        .as_str()
        .ok_or("root: `schema` is not a string")?;
    if schema != SCHEMA {
        return Err(format!("schema mismatch: `{schema}` != `{SCHEMA}`"));
    }
    let threads = require_num(&root, "threads", "root")?;
    if threads < 1.0 {
        return Err("root: `threads` must be >= 1".into());
    }
    let secs = require_num(&root, "duration_secs", "root")?;
    if secs.is_nan() || secs <= 0.0 {
        return Err("root: `duration_secs` must be positive".into());
    }
    let benches = require(&root, "benchmarks", "root")?
        .as_arr()
        .ok_or("root: `benchmarks` is not an array")?;
    if benches.is_empty() {
        return Err("root: `benchmarks` is empty".into());
    }
    for b in benches {
        let name = require(b, "benchmark", "benchmark")?
            .as_str()
            .ok_or("benchmark: `benchmark` is not a string")?
            .to_string();
        let at = format!("benchmark `{name}`");
        let engines = require(b, "engines", &at)?
            .as_arr()
            .ok_or_else(|| format!("{at}: `engines` is not an array"))?;
        if engines.is_empty() {
            return Err(format!("{at}: `engines` is empty"));
        }
        let mut has_adaptive = false;
        for e in engines {
            let engine = require(e, "engine", &at)?
                .as_str()
                .ok_or_else(|| format!("{at}: `engine` is not a string"))?;
            has_adaptive |= engine == "adaptive";
            let cell = format!("{at}, engine `{engine}`");
            let ktps = require_num(e, "throughput_ktps", &cell)?;
            if ktps.is_nan() || ktps < 0.0 {
                return Err(format!("{cell}: negative throughput"));
            }
            require_num(e, "p99_commit_ns", &cell)?;
            let abort = require_num(e, "abort_pct", &cell)?;
            if !(0.0..=100.0).contains(&abort) {
                return Err(format!("{cell}: abort_pct {abort} out of range"));
            }
            if require_num(e, "commits", &cell)? < 1.0 {
                return Err(format!("{cell}: no commits recorded"));
            }
            require_num(e, "switches", &cell)?;
        }
        if !has_adaptive {
            return Err(format!("{at}: no `adaptive` sample"));
        }
    }
    Ok(())
}

/// Markdown digest of a snapshot for the figure harness's stdout.
pub fn markdown(snap: &BenchSnapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "\n### Bench snapshot ({} threads, {:.2}s per cell)\n\n\
         | benchmark | engine | ktps | p99 commit ns | abort % | switches |\n\
         |---|---|---:|---:|---:|---:|\n",
        snap.threads, snap.duration_secs
    ));
    for b in &snap.benchmarks {
        for e in &b.engines {
            out.push_str(&format!(
                "| {} | {} | {:.1} | {} | {:.1} | {} |\n",
                b.benchmark, e.engine, e.throughput_ktps, e.p99_commit_ns, e.abort_pct, e.switches
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;

    fn tiny() -> Sweep {
        Sweep {
            threads: vec![2],
            duration: Duration::from_millis(30),
            scale: Scale::Smoke,
            seed: 1,
        }
    }

    #[test]
    fn snapshot_round_trips_through_its_own_validator() {
        let snap = collect(&tiny());
        assert_eq!(snap.benchmarks.len(), 3);
        for b in &snap.benchmarks {
            assert_eq!(b.engines.len(), 3, "{}", b.benchmark);
            // Histograms tier is live: every cell has a real p99.
            for e in &b.engines {
                assert!(e.commits > 0, "{}/{}", b.benchmark, e.engine);
                assert!(e.p99_commit_ns > 0, "{}/{}", b.benchmark, e.engine);
            }
        }
        let text = snap.to_json().render();
        validate(&text).expect("snapshot must satisfy its own schema");
    }

    #[test]
    fn validator_rejects_malformed_snapshots() {
        assert!(validate("{}").is_err());
        assert!(validate("not json").is_err());
        let wrong_schema = r#"{"schema": "other/v9", "threads": 2,
            "duration_secs": 0.1, "benchmarks": []}"#;
        assert!(validate(wrong_schema).unwrap_err().contains("schema"));
        let empty = r#"{"schema": "semtm-bench-snapshot/v1", "threads": 2,
            "duration_secs": 0.1, "benchmarks": []}"#;
        assert!(validate(empty).unwrap_err().contains("empty"));
        let no_adaptive = r#"{"schema": "semtm-bench-snapshot/v1", "threads": 2,
            "duration_secs": 0.1, "benchmarks": [{"benchmark": "bank",
            "engines": [{"engine": "S-NOrec", "throughput_ktps": 1.0,
            "p99_commit_ns": 10, "abort_pct": 0.0, "commits": 5,
            "switches": 0}]}]}"#;
        assert!(validate(no_adaptive).unwrap_err().contains("adaptive"));
    }
}
