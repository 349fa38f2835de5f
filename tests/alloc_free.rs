//! The steady-state transaction path makes no heap allocation.
//!
//! A counting global allocator tallies allocations per thread (the test
//! harness runs tests on parallel threads, so a process-wide count would
//! mix them up). Each test warms a runtime up, then asserts that a batch
//! of further transactions allocated nothing: every engine, a durable
//! `Sync` runtime, and both IR executors on the `ht_op` kernel.
//!
//! This file is its own test binary so that the allocator it installs
//! counts nothing but these tests; the runtime crates themselves stay
//! `forbid(unsafe_code)`.

use semtm_core::wal::{DurabilityMode, LogStorage};
use semtm_core::{Abort, Addr, Algorithm, CmpOp, Stm, StmConfig};
use semtm_ir::{lower, parse_function, programs::HASHTABLE_OP_SRC, run_tm_passes, Interp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when the counter is gone.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` and `layout` come from this allocator, i.e. from
        // `System`; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from this allocator, i.e. from
        // `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const WARMUP: usize = 200;
const MEASURED: usize = 1000;

/// Allocations the calling thread makes in `MEASURED` calls of `tx`,
/// after `WARMUP` calls that let every buffer reach its working size.
fn steady_state_allocations(mut tx: impl FnMut(usize)) -> u64 {
    for i in 0..WARMUP {
        tx(i);
    }
    let before = ALLOCATIONS.with(Cell::get);
    for i in 0..MEASURED {
        tx(WARMUP + i);
    }
    ALLOCATIONS.with(Cell::get) - before
}

/// The engines under test: the four algorithms.
fn configs() -> impl Iterator<Item = (Algorithm, StmConfig)> {
    Algorithm::ALL
        .into_iter()
        .map(|a| (a, StmConfig::new(a).heap_words(1 << 10).orec_count(1 << 8)))
}

/// A mixed transaction over `cells` (16 words): reads, writes, both
/// compare forms, an increment, and on every third call an explicit
/// abort of the first attempt, so the retry path is measured too.
fn mixed(stm: &Stm, cells: Addr, i: usize) {
    let mut abort_first = i.is_multiple_of(3);
    stm.atomic(|tx| {
        let a = cells.offset(i % 16);
        let b = cells.offset((i + 5) % 16);
        let v = tx.read(a)?;
        if tx.cmp(b, CmpOp::Gte, 0)? && tx.cmp_addr(a, CmpOp::Neq, b)? {
            tx.write(a, v + 1)?;
        }
        tx.inc(cells.offset((i + 9) % 16), 1)?;
        let _ = tx.read(cells.offset((i + 11) % 16))?;
        if abort_first {
            abort_first = false;
            return Err(Abort::explicit());
        }
        Ok(())
    });
    // A read-only transaction too.
    let _ = stm.atomic(|tx| tx.read(cells.offset(i % 16)));
}

#[test]
fn every_engine_commits_without_allocating() {
    for (name, config) in configs() {
        let stm = Stm::new(config);
        let cells = stm.alloc_array(16, 0i64);
        let allocs = steady_state_allocations(|i| mixed(&stm, cells, i));
        assert_eq!(allocs, 0, "{name}: allocations in {MEASURED} transactions");
    }
}

/// A log that keeps nothing: the durable commit path minus the I/O.
struct Discard;

impl LogStorage for Discard {
    fn append(&mut self, _bytes: &[u8]) -> std::io::Result<()> {
        Ok(())
    }
    fn sync(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn durable_sync_commits_without_allocating() {
    for (name, config) in configs() {
        let stm = Stm::with_wal(config.durability(DurabilityMode::Sync), Box::new(Discard));
        let cells = stm.alloc_array(16, 0i64);
        let allocs = steady_state_allocations(|i| mixed(&stm, cells, i));
        assert_eq!(allocs, 0, "{name}: allocations in {MEASURED} commits");
        assert!(stm.wal().unwrap().durable_seq() > 0, "{name}");
    }
}

#[test]
fn interpreter_calls_without_allocating() {
    const CAPACITY: usize = 256;
    let mut f = parse_function(HASHTABLE_OP_SRC).expect("ht_op parses");
    run_tm_passes(&mut f);
    let lowered = lower(&f).expect("ht_op lowers");
    let stm = Stm::new(StmConfig::new(Algorithm::SNOrec).heap_words(4 * CAPACITY));
    let states = stm.alloc_array(CAPACITY, 0i64);
    let keys = stm.alloc_array(CAPACITY, 0i64);
    let interp = Interp::new(&stm);
    let args = |key: usize, op: i64| {
        [
            states.index() as i64,
            keys.index() as i64,
            CAPACITY as i64 - 1,
            key as i64,
            op,
        ]
    };
    // Keys 1..=64 present; 65..=128 probe to a free cell and miss.
    for key in 1..=64 {
        assert_eq!(interp.execute_lowered(&lowered, &args(key, 1)), Ok(Some(2)));
    }
    let hit_or_miss = |i: usize| (1 + i % 128, if i % 128 < 64 { 1 } else { 0 });

    let allocs = steady_state_allocations(|i| {
        let (key, want) = hit_or_miss(i);
        assert_eq!(
            interp.execute_lowered(&lowered, &args(key, 0)),
            Ok(Some(want))
        );
    });
    assert_eq!(
        allocs, 0,
        "execute_lowered: allocations in {MEASURED} calls"
    );

    let allocs = steady_state_allocations(|i| {
        let (key, want) = hit_or_miss(i);
        assert_eq!(interp.execute(&f, &args(key, 0)), Ok(Some(want)));
    });
    assert_eq!(allocs, 0, "execute: allocations in {MEASURED} calls");
}
