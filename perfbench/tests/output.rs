//! A tiny run of every workload, untraced and traced: every metric that
//! `BENCHMARK.json` names is printed with its unit, and every output
//! check passes.

use std::process::Command;

/// `(section, name, unit)` for every metric in `BENCHMARK.json`.
fn declared_metrics() -> Vec<(String, String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let field = |obj: &str, key: &str| -> String {
        let start = obj.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        obj[start..]
            .split('"')
            .next()
            .expect("closing quote")
            .to_string()
    };
    let mut out = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..text[start..].find(']').expect("section ends") + start];
        for obj in body.split('{').skip(1) {
            out.push((section.to_string(), field(obj, "name"), field(obj, "unit")));
        }
    }
    out
}

/// The value of metric `name` in the result line.
fn value(last: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = last
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing in {last}"));
    let rest = &last[at + key.len()..];
    rest[..rest.find(',').expect("value then unit")]
        .parse()
        .expect("numeric value")
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("running perfbench");
    assert!(out.status.success(), "{workload}: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn every_metric_is_printed_with_its_unit_and_all_checks_pass() {
    let metrics = declared_metrics();
    assert!(metrics.iter().any(|m| m.1 == "setup_s"));
    for workload in ["hashtable", "bank-wal", "ir-hashtable"] {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let stdout = run(workload, trace);
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, ") && last.contains("\"failed\": 0,"),
                "{workload}: {stdout}"
            );
            assert!(
                stdout.contains("host {\"nproc\": "),
                "{workload}: no host record"
            );
            assert!(stdout.contains("drift: "), "{workload}: no drift guard");
            for (_, name, unit) in metrics.iter().filter(|m| m.0 == section) {
                assert!(value(last, name).is_finite(), "{workload}: {name}");
                let unit = format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    value(last, name)
                );
                assert!(last.contains(&unit), "{workload}: wanted {unit} in {last}");
            }
            if trace == 1 {
                layer_metrics_apply(workload, last);
            }
        }
    }
}

/// Each workload's own layers report real values; the IR counts are exact.
fn layer_metrics_apply(workload: &str, last: &str) {
    assert!(value(last, "stm.begin_ns") > 0.0, "{workload}");
    assert!(value(last, "tx.barriers_per_commit") > 0.0, "{workload}");
    match workload {
        "bank-wal" => {
            for name in [
                "wal.append_ns",
                "wal.records_per_sync",
                "wal.bytes_per_commit",
                "recovery_s",
            ] {
                assert!(value(last, name) > 0.0, "{workload}: {name}");
            }
        }
        "ir-hashtable" => {
            assert_eq!(value(last, "ir.tm_calls_per_tx"), 3.0);
            assert_eq!(value(last, "ir.attempts_per_tx"), 1.0);
            assert!(value(last, "ir.prepare_s") > 0.0);
        }
        _ => assert_eq!(value(last, "ir.tm_calls_per_tx"), 0.0),
    }
}
