//! Cross-backend differential fuzzing: random programs, random
//! schedules, all four algorithms checked against the serial oracle and
//! the history checker.

use crate::checker::check_history;
use crate::history::{atomic_recorded, RecTx, Recorder};
use crate::program::{POp, Program};
use crate::schedule::RandomDriver;
use crate::shrink::shrink;
use crate::vthread::run_threads;
use semtm_core::chrome::chrome_trace_json;
use semtm_core::error::Abort;
use semtm_core::util::SplitMix64;
use semtm_core::{Addr, Algorithm, Stm, StmConfig, TelemetryLevel};

/// Probability (%) that the random driver preempts a runnable thread.
const SWITCH_PCT: u32 = 40;
/// Per-execution scheduling-step cap (livelock backstop).
const STEP_CAP: usize = 50_000;

/// Number of fuzz programs: `SEMTM_CHECK_ITERS` when set, else `dflt`.
pub fn iterations(dflt: usize) -> usize {
    std::env::var("SEMTM_CHECK_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(dflt)
}

/// Whether scheduled executions add an engine hot-swap virtual thread:
/// `SEMTM_ADAPTIVE` (any value but `0` or empty) — tier-1 reruns the
/// fuzz suite with it so every random program history is also checked
/// across two mode switches (away from the starting engine family and
/// back). The switcher performs no data operations, so the serial
/// oracle of the program is unchanged; only the engines executing the
/// transactions vary mid-history.
pub fn adaptive() -> bool {
    std::env::var("SEMTM_ADAPTIVE").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn check_config(alg: Algorithm) -> StmConfig {
    let mut cfg = StmConfig::new(alg).heap_words(64).orec_count(16);
    cfg.lock_wait_spins = 8;
    cfg.backoff_min_spins = 1;
    cfg.backoff_max_spins = 2;
    cfg
}

/// An [`Stm`] sized and tuned for scheduler-driven micro executions:
/// tiny heap, short lock patience, minimal backoff.
pub fn check_stm(alg: Algorithm) -> Stm {
    Stm::new(check_config(alg))
}

/// [`check_stm`] with the flight recorder on, for replaying a failing
/// schedule into a dumpable timeline. The rings are kept tiny — the
/// micro programs record a handful of spans, and exploration harnesses
/// construct one `Stm` per schedule, so the eager per-shard ring
/// allocation must stay cheap.
pub fn check_stm_traced(alg: Algorithm) -> Stm {
    Stm::new(
        check_config(alg)
            .telemetry(TelemetryLevel::Spans)
            .trace_capacity(64),
    )
}

fn exec_op(rtx: &mut RecTx<'_, '_>, op: POp, base: Addr) -> Result<(), Abort> {
    let slot = |s: usize| base.offset(s);
    match op {
        POp::Read(s) => {
            rtx.read(slot(s))?;
        }
        POp::Write(s, v) => rtx.write(slot(s), v)?,
        POp::Inc(s, d) => rtx.inc(slot(s), d)?,
        POp::Cmp(s, op, c) => {
            rtx.cmp(slot(s), op, c)?;
        }
        POp::CmpAddr(a, op, b) => {
            rtx.cmp_addr(slot(a), op, slot(b))?;
        }
        POp::Guard(s, op, c, s2, d) => {
            if rtx.cmp(slot(s), op, c)? {
                rtx.inc(slot(s2), d)?;
            }
        }
    }
    Ok(())
}

/// Run `program` once on `alg` under the random schedule `sched_seed`,
/// recording the full history. Errors describe any divergence from the
/// serial oracle or any checker violation, with enough context to
/// replay.
pub fn run_program(program: &Program, alg: Algorithm, sched_seed: u64) -> Result<(), String> {
    run_program_on(&check_stm(alg), program, alg, sched_seed, adaptive())
}

/// Replay `program` on a flight-recorder-enabled runtime under the same
/// schedule and return the recorded timeline as Chrome trace-event JSON
/// (pass/fail of the replay itself is irrelevant — the spans are the
/// product).
pub fn trace_program(program: &Program, alg: Algorithm, sched_seed: u64) -> String {
    let stm = check_stm_traced(alg);
    let _ = run_program_on(&stm, program, alg, sched_seed, adaptive());
    chrome_trace_json(alg, &stm.telemetry().span_events())
}

fn run_program_on(
    stm: &Stm,
    program: &Program,
    alg: Algorithm,
    sched_seed: u64,
    hot_swap: bool,
) -> Result<(), String> {
    let base = stm.alloc(program.slots);
    for (i, v) in program.init.iter().enumerate() {
        stm.write_now(base.offset(i), *v);
    }
    let rec = Recorder::new();

    let shared = (stm, &rec, program, base);
    type Shared<'a> = (&'a Stm, &'a Recorder, &'a Program, Addr);
    let body = |tid: usize, shared: &Shared<'_>| {
        let (stm, rec, program, base) = *shared;
        for tx in &program.threads[tid] {
            atomic_recorded(stm, rec, tid, |rtx| {
                for &op in tx {
                    exec_op(rtx, op, base)?;
                }
                Ok(())
            });
        }
    };
    // Under `SEMTM_ADAPTIVE`, one extra virtual thread hot-swaps the
    // runtime to the other engine family and back, so the recorded
    // history spans three engine eras. It touches no program slot —
    // the serial oracle below is the unchanged one.
    let switcher = |_tid: usize, shared: &Shared<'_>| {
        let (stm, ..) = *shared;
        let home = stm.mode();
        stm.switch_to(home.other_family());
        stm.switch_to(home);
    };
    let mut bodies: Vec<crate::vthread::Body<'_, Shared<'_>>> =
        program.threads.iter().map(|_| &body as _).collect();
    if hot_swap {
        bodies.push(&switcher);
    }

    let mut driver = RandomDriver::new(sched_seed, SWITCH_PCT);
    let outcome = run_threads(&shared, &bodies, &mut driver, STEP_CAP);
    if outcome.capped {
        return Err(format!(
            "{alg}: step cap {STEP_CAP} exceeded (livelock?) after {} steps",
            outcome.steps
        ));
    }

    let final_mem: Vec<i64> = (0..program.slots)
        .map(|i| stm.read_now(base.offset(i)))
        .collect();
    if !program.serial_outcomes().contains(&final_mem) {
        return Err(format!(
            "{alg}: final state {final_mem:?} is outside the serial oracle set \
             {:?} (init {:?})",
            program.serial_outcomes(),
            program.init
        ));
    }

    let init: Vec<(Addr, i64)> = program
        .init
        .iter()
        .enumerate()
        .map(|(i, v)| (base.offset(i), *v))
        .collect();
    let fin: Vec<(Addr, i64)> = final_mem
        .iter()
        .enumerate()
        .map(|(i, v)| (base.offset(i), *v))
        .collect();
    check_history(&rec.attempts(), &init, &fin).map_err(|e| format!("{alg}: {e}"))
}

/// Fuzz `programs` random programs, each on every algorithm, under
/// independently seeded random schedules derived from `base_seed`.
///
/// On failure the failing program is minimized with [`shrink`] and the
/// panic message carries the program, algorithm, program seed, and
/// schedule seed — everything needed to replay.
pub fn run_differential(programs: usize, base_seed: u64) {
    let mut seeder = SplitMix64::new(base_seed);
    for i in 0..programs {
        let prog_seed = seeder.next_u64();
        let sched_seed = seeder.next_u64();
        let mut rng = SplitMix64::new(prog_seed);
        let program = Program::generate(&mut rng);
        for alg in Algorithm::ALL {
            if let Err(msg) = run_program(&program, alg, sched_seed) {
                let minimized = shrink(&program, |p| run_program(p, alg, sched_seed).is_err());
                let note = crate::tracedump::dump_note(
                    &format!("fuzz_{alg}"),
                    &trace_program(&minimized, alg, sched_seed),
                );
                panic!(
                    "differential fuzz failure at program {i}/{programs} on {alg} \
                     (program seed {prog_seed:#x}, schedule seed {sched_seed:#x}, \
                     base seed {base_seed:#x}): {msg}\n{note}\n\
                     minimized program: {minimized:#?}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_swap_thread_switches_twice_and_history_still_checks() {
        // Every algorithm's random-program history must keep checking
        // with the engine hot-swapped away and back mid-schedule: two
        // completed switches on the runtime, same serial oracle.
        let mut rng = SplitMix64::new(11);
        let program = Program::generate(&mut rng);
        for alg in Algorithm::ALL {
            let stm = check_stm(alg);
            run_program_on(&stm, &program, alg, 99, true).unwrap_or_else(|e| panic!("{alg}: {e}"));
            assert_eq!(stm.switch_count(), 2, "{alg}");
            assert_eq!(stm.mode(), alg, "{alg}: back home");
        }
    }

    #[test]
    fn trace_program_replays_into_chrome_json() {
        let mut rng = SplitMix64::new(7);
        let program = Program::generate(&mut rng);
        let json = trace_program(&program, Algorithm::SNOrec, 42);
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""), "replay must record spans");
    }
}
