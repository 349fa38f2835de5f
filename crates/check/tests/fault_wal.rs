//! Fault injection for the commit log's I/O failure policy (DESIGN.md
//! §9): an append/fsync error poisons the log, the *first* committer
//! that already applied its writes fail-stops (panic — its heap state
//! is visible but not durable, and retrying would double-apply), and
//! every *later* transaction aborts cleanly with
//! [`AbortReason::Durability`] before touching the heap.
//!
//! Faults are process-global, so this file holds exactly one test and
//! lives in its own integration-test binary (own process).

use semtm_core::fault;
use semtm_core::wal::{CommitLog, DurabilityMode, SimStorage, WalError};
use semtm_core::{AbortReason, Algorithm, Stm, StmConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn durable_stm(alg: Algorithm) -> Stm {
    let (sim, _handle) = SimStorage::new();
    let cfg = StmConfig::new(alg)
        .heap_words(64)
        .orec_count(16)
        .durability(DurabilityMode::Sync);
    Stm::with_wal(cfg, Box::new(sim))
}

#[test]
fn wal_io_errors_poison_the_log_and_fail_stop() {
    // Panics are expected below; keep the test output quiet.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    // --- Append I/O error: first committer fail-stops, log poisons. ---
    fault::arm(fault::WAL_APPEND_IO_ERROR);
    let stm = durable_stm(Algorithm::SNOrec);
    let cell = stm.alloc_cell(0i64);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        stm.atomic(|tx| tx.write(cell, 42));
    }));
    let msg = *outcome
        .expect_err("a commit that cannot be made durable must fail-stop")
        .downcast::<String>()
        .expect("panic payload");
    assert!(
        msg.contains("cannot be made durable"),
        "unexpected panic: {msg}"
    );
    // The write-back had already happened (the failure is post-apply)...
    assert_eq!(stm.read_now(cell), 42);
    // ...and the log is now poisoned for good.
    assert!(stm.wal().unwrap().is_poisoned());

    // Later transactions abort *cleanly*: the durability abort fires
    // before any heap write, even with the fault since disarmed.
    fault::arm(0);
    let res = stm.try_atomic(|tx| tx.write(cell, 99));
    let abort = res.expect_err("poisoned log must refuse new commits");
    assert_eq!(abort.reason, AbortReason::Durability);
    assert_eq!(stm.read_now(cell), 42, "aborted tx must not touch the heap");
    // Read-only transactions never reach the log and still succeed.
    let v = stm
        .try_atomic(|tx| tx.read(cell))
        .expect("read-only tx needs no durability");
    assert_eq!(v, 42);

    // --- Fsync I/O error: same fail-stop policy, bytes written but not
    // durable. ---
    fault::arm(fault::WAL_FSYNC_IO_ERROR);
    let (sim, handle) = SimStorage::new();
    let cfg = StmConfig::new(Algorithm::Tl2)
        .heap_words(64)
        .orec_count(16)
        .durability(DurabilityMode::Sync);
    let stm2 = Stm::with_wal(cfg, Box::new(sim));
    let cell2 = stm2.alloc_cell(0i64);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        stm2.atomic(|tx| tx.write(cell2, 7));
    }));
    assert!(outcome.is_err(), "unsynced commit must fail-stop");
    assert!(stm2.wal().unwrap().is_poisoned());
    let (written, durable) = handle.watermarks();
    assert!(written > 0, "append itself succeeded");
    assert_eq!(durable, 0, "fsync failed, nothing is durable");
    fault::arm(0);

    // --- Direct CommitLog surface: flush_step reports the error, every
    // committer waiting for the failed batch is woken with it, then
    // every later call fails fast with the original root cause. ---
    fault::arm(fault::WAL_APPEND_IO_ERROR);
    let (sim, _handle) = SimStorage::new();
    let log = CommitLog::new(Box::new(sim), DurabilityMode::Manual);
    let tickets = [(); 2].map(|_| log.append(&[]).expect("buffering an append cannot fail"));
    assert_eq!(tickets.map(|t| t.seq()), [1, 2]);
    std::thread::scope(|s| {
        let waiters = tickets.map(|t| {
            let log = &log;
            s.spawn(move || log.wait_durable(t))
        });
        match log.flush_step() {
            Err(WalError::Append(_)) => {}
            other => panic!("expected an append I/O error, got {other:?}"),
        }
        for w in waiters {
            let woken = w.join().expect("waiter thread");
            assert!(
                matches!(woken, Err(WalError::Append(_))),
                "a waiter must see the root cause, got {woken:?}"
            );
        }
    });
    fault::arm(0);
    assert!(matches!(log.flush_step(), Err(WalError::Append(_))));
    assert!(matches!(log.append(&[]), Err(WalError::Append(_))));

    std::panic::set_hook(prev_hook);
}
