//! The runtime front object: [`Stm`] owns the heap, the algorithm's global
//! state and the statistics; [`Stm::atomic`] runs a closure as a
//! transaction with automatic retry; [`Tx`] exposes the extended TM API of
//! the paper's Table 1 (`read`, `write`, `cmp`, `cmp_addr`, `inc`).
//!
//! For non-semantic algorithms (`NOrec`, `Tl2`) the semantic entry points
//! **delegate**: `cmp` becomes a plain read plus a local comparison and
//! `inc` becomes read + write — exactly how the unmodified TM algorithms
//! in libitm implement the new ABI calls (paper §6). This keeps every
//! workload source-identical across all four algorithms, which is what
//! makes the base-vs-semantic columns of Table 3 and the figure legends
//! directly comparable.
//!
//! A transaction's set buffers (`sets::TxBuffers`) are recycled per thread:
//! [`Tx`] takes them from a thread-local slot when it is built and puts
//! them back, emptied, when it drops, so a steady-state transaction makes
//! no heap allocation. A nested `Tx` finds the slot empty and allocates
//! its own; buffers grown past `sets::RETAINED_ENTRIES` entries
//! are released instead of parked (DESIGN.md §3.1).

use crate::adapt::{self, Controller, ModeMachine, SwitchReport};
use crate::cm::ContentionManager;
use crate::config::{Algorithm, StmConfig};
use crate::error::{Abort, AbortReason, Conflict};
use crate::heap::{Addr, Heap};
use crate::norec::{NorecGlobal, NorecTx};
use crate::ops::CmpOp;
use crate::sets::TxBuffers;
use crate::stats::{OpCounts, StatsSnapshot};
use crate::telemetry::{PhaseRecorder, SpanEvent, StatShard, Telemetry, TelemetryLevel};
use crate::tl2::{Tl2Global, Tl2Tx};
use crate::util::thread_token;
use crate::value::Word;
use crate::wal::{CommitLog, LogStorage};
use std::cell::Cell;
use std::sync::Mutex;
use std::time::Instant;

/// A shared software-transactional-memory instance.
///
/// Create one per experiment; share it across threads by reference (it is
/// `Sync`). All transactional data must be allocated from this instance's
/// heap.
pub struct Stm {
    config: StmConfig,
    heap: Heap,
    norec: NorecGlobal,
    tl2: Tl2Global,
    telemetry: Telemetry,
    wal: Option<CommitLog>,
    /// The adaptive mode word + epoch slots ([`crate::adapt`]): which
    /// engine attempts dispatch on, and the quiesce protocol that lets
    /// [`Stm::switch_to`] change it on a live runtime.
    machine: ModeMachine,
    /// The telemetry-driven controller, when [`StmConfig::adaptive`]
    /// attached one. Locked only inside [`Stm::adapt_tick`].
    controller: Option<Mutex<Controller>>,
}

impl Stm {
    /// Create a runtime from a configuration.
    pub fn new(config: StmConfig) -> Stm {
        Stm {
            heap: Heap::new(config.heap_words),
            norec: NorecGlobal::default(),
            tl2: Tl2Global::new(config.orec_count),
            telemetry: Telemetry::new(config.telemetry, config.algorithm, config.trace_capacity),
            wal: None,
            machine: ModeMachine::new(config.algorithm),
            controller: config.adaptive.map(|p| Mutex::new(Controller::new(p))),
            config,
        }
    }

    /// Create a **durable** runtime: every commit's resolved write set
    /// is appended to a write-ahead log over `storage` (flushed per
    /// [`StmConfig::durability`]) before the commit is acknowledged, and
    /// [`crate::wal::replay`] can rebuild the heap from the log prefix
    /// after a crash. See [`crate::wal`] for the protocol and the
    /// fail-stop policy on I/O errors.
    pub fn with_wal(config: StmConfig, storage: Box<dyn LogStorage>) -> Stm {
        let mode = config.durability;
        let mut stm = Stm::new(config);
        stm.wal = Some(CommitLog::new(storage, mode));
        stm
    }

    /// The attached commit log, if this runtime is durable.
    #[inline]
    pub fn wal(&self) -> Option<&CommitLog> {
        self.wal.as_ref()
    }

    /// The algorithm this instance was built with
    /// ([`StmConfig::algorithm`]). After a [`Stm::switch_to`] attempts
    /// run a different one; [`Stm::mode`] reports what they run now.
    #[inline]
    pub fn algorithm(&self) -> Algorithm {
        self.config.algorithm
    }

    /// The underlying heap (for allocation and non-transactional setup).
    #[inline]
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Allocate `n` contiguous words.
    pub fn alloc(&self, n: usize) -> Addr {
        self.heap.alloc(n)
    }

    /// Allocate `n` contiguous words on their own cache line(s) — see
    /// [`Heap::alloc_padded`](crate::heap::Heap::alloc_padded).
    pub fn alloc_padded(&self, n: usize) -> Addr {
        self.heap.alloc_padded(n)
    }

    /// Allocate one word holding `init` (non-transactionally).
    pub fn alloc_cell<T: Word>(&self, init: T) -> Addr {
        let a = self.alloc(1);
        self.heap.store(a, init.to_word());
        a
    }

    /// Allocate an array of `n` words, all holding `init`.
    pub fn alloc_array<T: Word>(&self, n: usize, init: T) -> Addr {
        let a = self.alloc(n);
        for i in 0..n {
            self.heap.store(a.offset(i), init.to_word());
        }
        a
    }

    /// Non-transactional read (setup / teardown / assertions only).
    pub fn read_now(&self, a: Addr) -> i64 {
        self.heap.load(a)
    }

    /// Non-transactional write (setup / teardown only).
    pub fn write_now(&self, a: Addr, v: i64) {
        self.heap.store(a, v);
    }

    /// Statistics snapshot (merged across all telemetry shards).
    pub fn stats(&self) -> StatsSnapshot {
        self.telemetry.snapshot()
    }

    /// The full telemetry state: histograms, abort traces, shard access.
    #[inline]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The algorithm attempts currently dispatch on. During a switch's
    /// drain window this still reports the old one (the one in-flight
    /// attempts run).
    pub fn mode(&self) -> Algorithm {
        self.machine.mode()
    }

    /// Completed mode switches over this runtime's lifetime.
    pub fn switch_count(&self) -> u64 {
        self.machine.switch_count()
    }

    /// Hot-swap the runtime to `target`: publish `Draining`, wait for
    /// in-flight attempts to retire (at most one quiesce epoch — an
    /// attempt, including its WAL durability ack), reseed the engine
    /// metadata clocks, publish the new mode. Concurrent transactions
    /// keep running: attempts that began before the switch complete
    /// under the old mode; attempts that begin during the drain wait for
    /// the handoff and run the new one.
    ///
    /// Returns the drain/latency report (a no-op report when `target`
    /// is already running). Must not be called from inside a transaction
    /// body on this runtime — the drain would wait for the caller's own
    /// attempt, deadlocking.
    pub fn switch_to(&self, target: Algorithm) -> SwitchReport {
        self.machine.switch(target, || {
            // Quiescent: no commit lock held, no write-back in flight.
            // Bump every engine's clock one era forward (never rewound)
            // so no snapshot taken before the switch can validate as
            // current after it — the new engine starts from a heap that
            // is just initial state to it. See DESIGN.md §10.
            self.norec.reseed();
            self.tl2.reseed();
        })
    }

    /// One controller tick: fold the newest telemetry window into the
    /// rate EWMAs, ask the [`Controller`] for a mode proposal, and apply
    /// it via [`Stm::switch_to`]. Returns the switch report when a
    /// switch happened. No-op (and free) without
    /// [`StmConfig::adaptive`]; call from a sampler/ticker thread, never
    /// from inside a transaction body.
    pub fn adapt_tick(&self) -> Option<SwitchReport> {
        let controller = self.controller.as_ref()?;
        let mut ctl = controller.lock().expect("controller poisoned");
        let rates = self.telemetry.rates(ctl.policy().sample_alpha);
        let target = ctl.decide(self.mode(), &rates)?;
        let report = self.switch_to(target);
        if !report.changed() {
            return None;
        }
        ctl.note_switched();
        Some(report)
    }

    /// Run `body` as a transaction, retrying on aborts with randomised
    /// exponential backoff until it commits. Returns the body's value.
    ///
    /// The body must route **every** shared access through the provided
    /// [`Tx`] and must be safe to re-execute (it runs once per attempt).
    pub fn atomic<T>(&self, mut body: impl FnMut(&mut Tx<'_>) -> Result<T, Abort>) -> T {
        let mut cm = ContentionManager::new(
            self.config.cm_policy,
            thread_token().wrapping_mul(0x9E37_79B9),
            self.config.backoff_min_spins,
            self.config.backoff_max_spins,
        );
        // Enter the adaptive epoch before building the attempt context:
        // the entered word pins the engine this attempt dispatches on,
        // and the matching exit() (after commit, or after an abort's
        // rollback) is what a switch's drain barrier waits for. The
        // common case — no switch between attempts — keeps one Tx (and
        // its buffers) alive across the whole retry loop.
        let mut entered = self.machine.enter();
        let mut mode = adapt::word_mode(entered);
        let mut tx = Tx::new(self, mode);
        // One TLS lookup per transaction, not per event: the shard
        // reference stays hot in a register across retries.
        let shard = self.telemetry.shard();
        let rec = self.recording();
        let started = rec.histograms.then(Instant::now);
        let mut attempt: u32 = 0;
        let mut attempts_total: u64 = 1;
        loop {
            let attempt_start = self.attempt_start(rec);
            tx.begin();
            match body(&mut tx).and_then(|v| tx.commit().map(|()| v)) {
                Ok(v) => {
                    self.retire_commit(&tx, shard, rec, started, attempt_start, attempts_total);
                    return v;
                }
                Err(abort) => {
                    self.retire_abort(&mut tx, shard, rec, &abort, attempt_start, attempts_total);
                    // Fail stop on durability failures: the rollback was
                    // clean (the append is refused before any heap
                    // write-back), but retrying against a poisoned log
                    // can never succeed and pretending to commit without
                    // durability would break the ack contract. Surface
                    // loudly; `try_atomic` is the non-panicking probe.
                    if abort.reason == AbortReason::Durability {
                        panic!("commit log I/O failure: {abort} — aborting (fail-stop durability)");
                    }
                    let spins = cm.pause(attempt, abort.reason);
                    if rec.histograms {
                        self.telemetry.record_backoff(spins);
                    }
                    // Under the deterministic scheduler, retrying after an
                    // abort is a futile-wait iteration (the conflicting
                    // transaction must be scheduled for the retry to fare
                    // better), so report it as a spin — otherwise a
                    // default-continue explorer replays the aborting
                    // thread forever.
                    crate::sched::spin();
                    if abort.reason != AbortReason::Explicit {
                        attempt = attempt.saturating_add(1);
                    }
                    attempts_total += 1;
                    // Re-enter for the retry. A switch may have landed
                    // while we were out (backoff): rebuild the attempt
                    // context only when the engine actually changed —
                    // an epoch bump alone keeps the engine as it is.
                    let word = self.machine.enter();
                    if word != entered {
                        let next = adapt::word_mode(word);
                        if next != mode {
                            tx.switch_engine(self, next);
                            mode = next;
                        }
                        entered = word;
                    }
                }
            }
        }
    }

    /// Run `body` as a transaction **once**, returning the abort instead
    /// of retrying. Useful for tests that assert on specific conflicts,
    /// and the entry point of callers that run their own retry loop (the
    /// IR interpreter). Records the same telemetry as one attempt of
    /// [`Stm::atomic`]: a commit counts as a one-attempt transaction.
    pub fn try_atomic<T>(
        &self,
        body: impl FnOnce(&mut Tx<'_>) -> Result<T, Abort>,
    ) -> Result<T, Abort> {
        let entered = self.machine.enter();
        let mut tx = Tx::new(self, adapt::word_mode(entered));
        let shard = self.telemetry.shard();
        let rec = self.recording();
        let started = rec.histograms.then(Instant::now);
        let attempt_start = self.attempt_start(rec);
        tx.begin();
        let outcome = body(&mut tx).and_then(|v| tx.commit().map(|()| v));
        match &outcome {
            Ok(_) => self.retire_commit(&tx, shard, rec, started, attempt_start, 1),
            Err(abort) => self.retire_abort(&mut tx, shard, rec, abort, attempt_start, 1),
        }
        outcome
    }

    /// What the telemetry level asks each attempt to record.
    #[inline]
    fn recording(&self) -> Recording {
        let level = self.telemetry.level();
        Recording {
            histograms: level >= TelemetryLevel::Histograms,
            trace: level >= TelemetryLevel::Trace,
            spans: level >= TelemetryLevel::Spans,
        }
    }

    /// An attempt's start on the span timeline (0 below `Spans`: every
    /// per-attempt flight-recorder cost sits behind the `spans` flag).
    #[inline]
    fn attempt_start(&self, rec: Recording) -> u64 {
        if rec.spans {
            self.telemetry.elapsed_ns()
        } else {
            0
        }
    }

    /// Retire a committed attempt: leave the adaptive epoch, then record
    /// the counters, the commit profile (latency from `started`) and the
    /// span. `attempts` counts this transaction's attempts so far.
    #[inline]
    fn retire_commit(
        &self,
        tx: &Tx<'_>,
        shard: &StatShard,
        rec: Recording,
        started: Option<Instant>,
        attempt_start: u64,
        attempts: u64,
    ) {
        // Retire from the epoch first: commit (including its WAL
        // durability ack) is done, so a draining switch need not wait out
        // the telemetry recording below.
        self.machine.exit();
        shard.record_commit(&tx.ops);
        if let Some(t0) = started {
            self.telemetry.record_commit_profile(
                t0.elapsed().as_nanos() as u64,
                attempts,
                tx.read_set_len(),
                tx.compare_set_len(),
            );
        }
        if rec.spans {
            let end = self.telemetry.elapsed_ns();
            self.telemetry
                .record_span(tx.span(attempt_start, end, attempts as u32, None));
        }
    }

    /// Retire an aborted attempt: capture its span and set sizes, roll it
    /// back, leave the adaptive epoch, then record the counters, the
    /// abort event and the span with its conflict attribution.
    #[inline]
    fn retire_abort(
        &self,
        tx: &mut Tx<'_>,
        shard: &StatShard,
        rec: Recording,
        abort: &Abort,
        attempt_start: u64,
        attempts: u64,
    ) {
        // Capture the span (set sizes and all) before rollback releases
        // the metadata.
        let span = rec.spans.then(|| {
            tx.span(
                attempt_start,
                self.telemetry.elapsed_ns(),
                attempts as u32,
                Some((abort.reason, abort.conflict())),
            )
        });
        let (rs, cs) = if rec.trace {
            (tx.read_set_len(), tx.compare_set_len())
        } else {
            (0, 0)
        };
        tx.rollback();
        // Rollback released any engine metadata (TL2 orec locks), so this
        // attempt is fully retired: leave the epoch before backing off — a
        // draining switch must not wait out our backoff pause.
        self.machine.exit();
        shard.record_abort(abort.reason, &tx.ops);
        if rec.trace {
            self.telemetry.record_abort_event(
                abort.reason,
                abort.conflict(),
                attempts as u32,
                rs,
                cs,
            );
        }
        if let Some(span) = span {
            let victim = span.thread;
            self.telemetry.record_span(span);
            self.telemetry.record_conflict(victim, abort.conflict());
        }
    }
}

/// The per-attempt recording a telemetry level asks for, read once per
/// transaction. At `Counters` every flag is off and an attempt records
/// only its shard counters.
#[derive(Clone, Copy)]
struct Recording {
    histograms: bool,
    trace: bool,
    spans: bool,
}

thread_local! {
    /// The calling thread's recycled transaction buffers. [`Tx::new`]
    /// takes them and the `Tx` gives them back, emptied, when it drops.
    /// While a `Tx` of this thread is live the slot is empty, so a nested
    /// transaction (on another `Stm`, say) builds fresh buffers.
    static TX_BUFFERS: Cell<Option<TxBuffers>> = const { Cell::new(None) };
}

/// The thread's recycled buffers, or fresh ones if a live `Tx` holds them.
fn take_buffers() -> TxBuffers {
    TX_BUFFERS
        .try_with(Cell::take)
        .ok()
        .flatten()
        .unwrap_or_default()
}

/// Empty `bufs`, release what grew past the retention bound and park the
/// rest for the thread's next transaction.
fn give_back(mut bufs: TxBuffers) {
    bufs.recycle();
    // Fails only while the thread is being torn down; the buffers are
    // then simply dropped.
    let _ = TX_BUFFERS.try_with(|slot| slot.set(Some(bufs)));
}

enum TxInner<'a> {
    Norec(NorecTx<'a>),
    Tl2(Tl2Tx<'a>),
}

/// An in-flight transaction. Obtained through [`Stm::atomic`] /
/// [`Stm::try_atomic`]; all barriers return `Result<_, Abort>` and the
/// body should propagate aborts with `?`.
pub struct Tx<'a> {
    inner: TxInner<'a>,
    semantic: bool,
    ops: OpCounts,
}

impl<'a> TxInner<'a> {
    /// The engine `mode` dispatches on, running on `bufs`.
    fn build(stm: &'a Stm, mode: Algorithm, bufs: TxBuffers) -> TxInner<'a> {
        // Dispatch on the *mode*, not the construction-time algorithm:
        // both engine globals coexist in the Stm, so an adaptive switch
        // is just a different arm here on the next attempt.
        let mut inner = match mode.baseline() {
            Algorithm::NOrec => TxInner::Norec(NorecTx::new(
                &stm.heap,
                &stm.norec,
                stm.config.snorec_dedup_reads,
                stm.config.norec_ring_filters,
                bufs,
            )),
            Algorithm::Tl2 => TxInner::Tl2(Tl2Tx::new(
                &stm.heap,
                &stm.tl2,
                stm.config.lock_wait_spins,
                stm.config.stl2_snapshot_extension,
                bufs,
            )),
            _ => unreachable!("baseline() returns a baseline"),
        };
        // At Spans the recorder is live (its epoch is the telemetry
        // clock); below, this installs the inert recorder — the no-op
        // marks inside the algorithms stay behind its `None` check.
        let recorder = stm.telemetry.phase_recorder();
        if recorder.is_enabled() {
            match &mut inner {
                TxInner::Norec(t) => t.enable_spans(recorder),
                TxInner::Tl2(t) => t.enable_spans(recorder),
            }
        }
        if let Some(log) = &stm.wal {
            match &mut inner {
                TxInner::Norec(t) => t.enable_wal(log),
                TxInner::Tl2(t) => t.enable_wal(log),
            }
        }
        inner
    }

    fn take_buffers(&mut self) -> TxBuffers {
        match self {
            TxInner::Norec(t) => t.take_buffers(),
            TxInner::Tl2(t) => t.take_buffers(),
        }
    }
}

impl<'a> Tx<'a> {
    /// An attempt context for `mode`, on the thread's recycled buffers.
    fn new(stm: &'a Stm, mode: Algorithm) -> Tx<'a> {
        Tx {
            inner: TxInner::build(stm, mode, take_buffers()),
            semantic: mode.is_semantic(),
            ops: OpCounts::default(),
        }
    }

    /// Rebuild the attempt context for `mode` after an adaptive switch,
    /// moving the buffers over to the new engine.
    fn switch_engine(&mut self, stm: &'a Stm, mode: Algorithm) {
        let mut bufs = self.inner.take_buffers();
        bufs.recycle();
        self.inner = TxInner::build(stm, mode, bufs);
        self.semantic = mode.is_semantic();
    }

    fn begin(&mut self) {
        self.ops.clear();
        match &mut self.inner {
            TxInner::Norec(t) => t.begin(),
            TxInner::Tl2(t) => t.begin(),
        }
    }

    fn commit(&mut self) -> Result<(), Abort> {
        match &mut self.inner {
            TxInner::Norec(t) => t.commit(),
            TxInner::Tl2(t) => t.commit(),
        }
    }

    fn rollback(&mut self) {
        if let TxInner::Tl2(t) = &mut self.inner {
            t.on_abort();
        }
    }

    /// `TM_READ` — transactional read of one word (as `i64`).
    pub fn read(&mut self, addr: Addr) -> Result<i64, Abort> {
        self.ops.reads += 1;
        match &mut self.inner {
            TxInner::Norec(t) => t.read(addr, &mut self.ops),
            TxInner::Tl2(t) => t.read(addr, &mut self.ops),
        }
    }

    /// `TM_WRITE` — transactional (buffered) write of one word.
    pub fn write(&mut self, addr: Addr, value: i64) -> Result<(), Abort> {
        self.ops.writes += 1;
        match &mut self.inner {
            TxInner::Norec(t) => t.write(addr, value),
            TxInner::Tl2(t) => t.write(addr, value),
        }
        Ok(())
    }

    /// Semantic comparison against a constant — the paper's
    /// `TM_GT/GTE/LT/LTE/EQ/NEQ(address, value)` (ABI `_ITM_S1R`).
    ///
    /// Under a semantic algorithm, records the boolean outcome for
    /// semantic validation; under a baseline, delegates to [`Tx::read`].
    pub fn cmp(&mut self, addr: Addr, op: CmpOp, operand: i64) -> Result<bool, Abort> {
        if !self.semantic {
            let v = self.read(addr)?;
            return Ok(op.eval(v, operand));
        }
        self.ops.cmps += 1;
        match &mut self.inner {
            TxInner::Norec(t) => t.cmp(addr, op, operand, &mut self.ops),
            TxInner::Tl2(t) => t.cmp(addr, op, operand, &mut self.ops),
        }
    }

    /// Semantic comparison between two addresses — the paper's
    /// `TM_*(address, address)` form (ABI `_ITM_S2R`).
    pub fn cmp_addr(&mut self, a: Addr, op: CmpOp, b: Addr) -> Result<bool, Abort> {
        if !self.semantic {
            let va = self.read(a)?;
            let vb = self.read(b)?;
            return Ok(op.eval(va, vb));
        }
        self.ops.cmp_pairs += 1;
        match &mut self.inner {
            TxInner::Norec(t) => t.cmp_addr(a, op, b, &mut self.ops),
            TxInner::Tl2(t) => t.cmp_addr(a, op, b, &mut self.ops),
        }
    }

    /// Semantic increment — the paper's `TM_INC(address, delta)`
    /// (`TM_DEC` is a negative delta; ABI `_ITM_SW`).
    ///
    /// Under a semantic algorithm the read half is deferred to commit
    /// time; under a baseline, delegates to read + write.
    pub fn inc(&mut self, addr: Addr, delta: i64) -> Result<(), Abort> {
        if !self.semantic {
            let v = self.read(addr)?;
            return self.write(addr, v.wrapping_add(delta));
        }
        self.ops.incs += 1;
        match &mut self.inner {
            TxInner::Norec(t) => t.inc(addr, delta),
            TxInner::Tl2(t) => t.inc(addr, delta),
        }
        Ok(())
    }

    // --- convenience shorthands matching Table 1 ---

    /// `TM_GT(addr, value)`.
    pub fn gt(&mut self, addr: Addr, v: i64) -> Result<bool, Abort> {
        self.cmp(addr, CmpOp::Gt, v)
    }
    /// `TM_GTE(addr, value)`.
    pub fn gte(&mut self, addr: Addr, v: i64) -> Result<bool, Abort> {
        self.cmp(addr, CmpOp::Gte, v)
    }
    /// `TM_LT(addr, value)`.
    pub fn lt(&mut self, addr: Addr, v: i64) -> Result<bool, Abort> {
        self.cmp(addr, CmpOp::Lt, v)
    }
    /// `TM_LTE(addr, value)`.
    pub fn lte(&mut self, addr: Addr, v: i64) -> Result<bool, Abort> {
        self.cmp(addr, CmpOp::Lte, v)
    }
    /// `TM_EQ(addr, value)`.
    pub fn eq(&mut self, addr: Addr, v: i64) -> Result<bool, Abort> {
        self.cmp(addr, CmpOp::Eq, v)
    }
    /// `TM_NEQ(addr, value)`.
    pub fn neq(&mut self, addr: Addr, v: i64) -> Result<bool, Abort> {
        self.cmp(addr, CmpOp::Neq, v)
    }
    /// `TM_DEC(addr, delta)`.
    pub fn dec(&mut self, addr: Addr, delta: i64) -> Result<(), Abort> {
        self.inc(addr, -delta)
    }

    /// Diagnostics: size of the semantic metadata (read-set entries for
    /// NOrec-family; read-set + compare-set for TL2-family).
    pub fn metadata_len(&self) -> usize {
        self.read_set_len() + self.compare_set_len()
    }

    /// Diagnostics: read-set entries buffered so far.
    pub fn read_set_len(&self) -> usize {
        match &self.inner {
            TxInner::Norec(t) => t.read_set_len(),
            TxInner::Tl2(t) => t.read_set_len(),
        }
    }

    /// Diagnostics: compare-set entries buffered so far (always 0 for
    /// the NOrec family, whose cmp outcomes live in the read-set).
    pub fn compare_set_len(&self) -> usize {
        match &self.inner {
            TxInner::Norec(_) => 0,
            TxInner::Tl2(t) => t.compare_set_len(),
        }
    }

    /// Diagnostics: whether the transaction buffered any write.
    pub fn is_writer(&self) -> bool {
        match &self.inner {
            TxInner::Norec(t) => t.is_writer(),
            TxInner::Tl2(t) => t.is_writer(),
        }
    }

    fn write_set_len(&self) -> usize {
        match &self.inner {
            TxInner::Norec(t) => t.write_set_len(),
            TxInner::Tl2(t) => t.write_set_len(),
        }
    }

    fn phases(&self) -> PhaseRecorder {
        match &self.inner {
            TxInner::Norec(t) => t.phases(),
            TxInner::Tl2(t) => t.phases(),
        }
    }

    /// Snapshot this attempt as a flight-recorder span. Must run before
    /// rollback (the set sizes are still live) — `Stm::retire_abort`
    /// captures it first.
    fn span(
        &self,
        start_ns: u64,
        end_ns: u64,
        attempt: u32,
        abort: Option<(AbortReason, Conflict)>,
    ) -> SpanEvent {
        let phases = self.phases();
        SpanEvent {
            thread: thread_token(),
            start_ns,
            end_ns,
            validate_ns: phases.validate_ns(),
            lock_ns: phases.lock_ns(),
            writeback_ns: phases.writeback_ns(),
            attempt,
            read_set: self.read_set_len(),
            write_set: self.write_set_len(),
            compare_set: self.compare_set_len(),
            abort,
        }
    }
}

impl Drop for Tx<'_> {
    fn drop(&mut self) {
        give_back(self.inner.take_buffers());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_algorithms() -> impl Iterator<Item = Stm> {
        Algorithm::ALL
            .into_iter()
            .map(|a| Stm::new(StmConfig::new(a).heap_words(1 << 12).orec_count(1 << 8)))
    }

    #[test]
    fn atomic_commits_and_returns_value() {
        for stm in all_algorithms() {
            let a = stm.alloc_cell(1i64);
            let got = stm.atomic(|tx| {
                let v = tx.read(a)?;
                tx.write(a, v * 10)?;
                Ok(v)
            });
            assert_eq!(got, 1);
            assert_eq!(stm.read_now(a), 10, "{}", stm.algorithm());
            assert_eq!(stm.stats().commits, 1);
        }
    }

    #[test]
    fn semantic_api_works_on_all_algorithms() {
        for stm in all_algorithms() {
            let x = stm.alloc_cell(5i64);
            let y = stm.alloc_cell(5i64);
            let ok = stm.atomic(|tx| {
                let c = tx.gt(x, 0)? || tx.gt(y, 0)?;
                if c {
                    tx.inc(x, 1)?;
                    tx.dec(y, 1)?;
                }
                Ok(c)
            });
            assert!(ok);
            assert_eq!(stm.read_now(x), 6, "{}", stm.algorithm());
            assert_eq!(stm.read_now(y), 4, "{}", stm.algorithm());
        }
    }

    #[test]
    fn delegation_counts_reads_writes_on_baselines() {
        let stm = Stm::new(StmConfig::new(Algorithm::NOrec).heap_words(64));
        let x = stm.alloc_cell(5i64);
        stm.atomic(|tx| {
            let _ = tx.gt(x, 0)?;
            tx.inc(x, 1)
        });
        let s = stm.stats();
        assert_eq!(s.reads, 2, "cmp and inc each delegate to a read");
        assert_eq!(s.writes, 1, "inc delegates to a write");
        assert_eq!(s.cmps, 0);
        assert_eq!(s.incs, 0);
    }

    #[test]
    fn semantic_counts_cmps_incs_on_extensions() {
        for alg in [Algorithm::SNOrec, Algorithm::STl2] {
            let stm = Stm::new(StmConfig::new(alg).heap_words(64));
            let x = stm.alloc_cell(5i64);
            let y = stm.alloc_cell(3i64);
            stm.atomic(|tx| {
                let _ = tx.gt(x, 0)?;
                let _ = tx.cmp_addr(x, CmpOp::Gt, y)?;
                tx.inc(x, 1)
            });
            let s = stm.stats();
            assert_eq!(s.reads, 0, "{alg}");
            assert_eq!(s.writes, 0, "{alg}");
            assert_eq!(s.cmps, 1, "{alg}");
            assert_eq!(s.cmp_pairs, 1, "{alg}");
            assert_eq!(s.incs, 1, "{alg}");
        }
    }

    #[test]
    fn try_atomic_surfaces_explicit_abort() {
        let stm = Stm::new(StmConfig::new(Algorithm::SNOrec).heap_words(64));
        let r = stm.try_atomic(|_tx| -> Result<(), Abort> { Err(Abort::explicit()) });
        assert_eq!(r, Err(Abort::explicit()));
        assert_eq!(stm.stats().aborts_explicit, 1);
        assert_eq!(stm.stats().commits, 0);
    }

    #[test]
    fn spans_level_records_a_span_per_attempt() {
        for alg in Algorithm::ALL {
            let stm = Stm::new(
                StmConfig::new(alg)
                    .heap_words(64)
                    .orec_count(16)
                    .telemetry(TelemetryLevel::Spans),
            );
            let a = stm.alloc_cell(1i64);
            stm.atomic(|tx| {
                let v = tx.read(a)?;
                tx.write(a, v + 1)
            });
            let spans = stm.telemetry().span_events();
            assert_eq!(spans.len(), 1, "{alg}");
            let s = &spans[0];
            assert!(s.committed(), "{alg}");
            assert!(s.end_ns >= s.start_ns, "{alg}");
            assert_eq!(s.attempt, 1, "{alg}");
            assert_eq!(s.write_set, 1, "{alg}");
            assert!(s.lock_ns.is_some(), "{alg}: writer must mark lock phase");
            assert!(
                s.writeback_ns.is_some(),
                "{alg}: writer must mark writeback"
            );
        }
    }

    #[test]
    fn aborted_attempts_record_abort_spans() {
        let stm = Stm::new(
            StmConfig::new(Algorithm::SNOrec)
                .heap_words(64)
                .telemetry(TelemetryLevel::Spans),
        );
        let a = stm.alloc_cell(0i64);
        let mut first = true;
        stm.atomic(|tx| {
            tx.inc(a, 1)?;
            if first {
                first = false;
                return Err(Abort::explicit());
            }
            Ok(())
        });
        let spans = stm.telemetry().span_events();
        assert_eq!(spans.len(), 2, "one span per attempt");
        let aborted = spans.iter().find(|s| !s.committed()).unwrap();
        assert_eq!(aborted.abort.unwrap().0, AbortReason::Explicit);
        assert_eq!(aborted.attempt, 1);
        let committed = spans.iter().find(|s| s.committed()).unwrap();
        assert_eq!(committed.attempt, 2);
    }

    #[test]
    fn below_spans_no_span_is_recorded() {
        for level in [
            TelemetryLevel::Counters,
            TelemetryLevel::Histograms,
            TelemetryLevel::Trace,
        ] {
            let stm = Stm::new(
                StmConfig::new(Algorithm::STl2)
                    .heap_words(64)
                    .orec_count(16)
                    .telemetry(level),
            );
            let a = stm.alloc_cell(1i64);
            stm.atomic(|tx| tx.inc(a, 1));
            assert!(stm.telemetry().span_events().is_empty());
            assert!(stm.telemetry().hot_addresses().is_empty());
        }
    }

    #[test]
    fn concurrent_increments_preserve_sum() {
        for alg in Algorithm::ALL {
            let stm =
                std::sync::Arc::new(Stm::new(StmConfig::new(alg).heap_words(64).orec_count(64)));
            let a = stm.alloc_cell(0i64);
            let threads = 4i64;
            let per = 200i64;
            let mut joins = Vec::new();
            for _ in 0..threads {
                let stm = stm.clone();
                joins.push(std::thread::spawn(move || {
                    for _ in 0..per {
                        stm.atomic(|tx| tx.inc(a, 1));
                    }
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
            assert_eq!(stm.read_now(a), threads * per, "{alg}");
            assert_eq!(stm.stats().commits, (threads * per) as u64, "{alg}");
        }
    }

    #[test]
    fn hot_swap_mid_run_preserves_sum() {
        // Worker threads increment two cells while a switcher thread
        // cycles the runtime through all four algorithms. Every commit
        // must land in exactly one engine era; the final sum proves no
        // increment was lost or double-applied across a handoff.
        let stm = std::sync::Arc::new(Stm::new(
            StmConfig::new(Algorithm::SNOrec)
                .heap_words(64)
                .orec_count(64),
        ));
        let a = stm.alloc_cell(0i64);
        let b = stm.alloc_cell(0i64);
        let threads = 4i64;
        let per = 300i64;
        let mut joins = Vec::new();
        for _ in 0..threads {
            let stm = stm.clone();
            joins.push(std::thread::spawn(move || {
                for i in 0..per {
                    stm.atomic(|tx| {
                        tx.inc(a, 1)?;
                        if i % 2 == 0 {
                            let v = tx.read(b)?;
                            tx.write(b, v + 1)?;
                        }
                        Ok(())
                    });
                }
            }));
        }
        // Starts on S-NOrec; every hop below changes mode, including the
        // wrap-around, so each of the 16 switch_to calls drains and
        // republishes.
        let cycle = [
            Algorithm::STl2,
            Algorithm::NOrec,
            Algorithm::Tl2,
            Algorithm::SNOrec,
        ];
        let switcher = {
            let stm = stm.clone();
            std::thread::spawn(move || {
                for target in cycle.into_iter().cycle().take(16) {
                    assert!(stm.switch_to(target).changed());
                    std::thread::yield_now();
                }
            })
        };
        for j in joins {
            j.join().unwrap();
        }
        switcher.join().unwrap();
        assert_eq!(stm.read_now(a), threads * per);
        assert_eq!(stm.read_now(b), threads * per / 2);
        assert_eq!(stm.stats().commits, (threads * per) as u64);
        assert_eq!(stm.switch_count(), 16);
        // The cycle ends where it started, on the construction-time
        // algorithm; `algorithm()` never follows a switch.
        assert_eq!(stm.mode(), Algorithm::SNOrec);
        assert_eq!(stm.algorithm(), Algorithm::SNOrec);
        stm.switch_to(Algorithm::Tl2);
        assert_eq!(stm.mode(), Algorithm::Tl2);
        assert_eq!(stm.algorithm(), Algorithm::SNOrec);
    }

    #[test]
    fn recycled_buffers_start_empty_on_another_stm_and_engine() {
        // An attempt on one runtime aborts holding a large write set; the
        // thread's next transaction, on a different runtime and engine,
        // reuses those buffers and must see none of it.
        for (first, second) in [
            (Algorithm::STl2, Algorithm::SNOrec),
            (Algorithm::SNOrec, Algorithm::Tl2),
            (Algorithm::NOrec, Algorithm::STl2),
        ] {
            let a = Stm::new(StmConfig::new(first).heap_words(256).orec_count(64));
            let b = Stm::new(StmConfig::new(second).heap_words(256).orec_count(64));
            let cells_a = a.alloc_array(200, 0i64);
            let cells_b = b.alloc_array(200, 0i64);
            let r = a.try_atomic(|tx| -> Result<(), Abort> {
                for i in 0..200 {
                    let _ = tx.gt(cells_a.offset(i), -1)?;
                    tx.write(cells_a.offset(i), 7)?;
                }
                Err(Abort::explicit())
            });
            assert_eq!(r, Err(Abort::explicit()));
            let target = cells_b.offset(3);
            b.atomic(|tx| {
                assert_eq!(tx.metadata_len(), 0, "{first} -> {second}");
                assert!(!tx.is_writer(), "{first} -> {second}");
                tx.write(target, 42)
            });
            for i in 0..200 {
                let want = if i == 3 { 42 } else { 0 };
                assert_eq!(b.read_now(cells_b.offset(i)), want, "{first} -> {second}");
                assert_eq!(a.read_now(cells_a.offset(i)), 0, "{first} -> {second}");
            }
        }
    }

    #[test]
    fn nested_atomic_on_a_second_stm_gets_its_own_buffers() {
        let outer = Stm::new(StmConfig::new(Algorithm::SNOrec).heap_words(64));
        let inner = Stm::new(
            StmConfig::new(Algorithm::STl2)
                .heap_words(64)
                .orec_count(16),
        );
        let a = outer.alloc_cell(1i64);
        let out = outer.alloc_cell(0i64);
        let b = inner.alloc_cell(10i64);
        outer.atomic(|tx| {
            let v = tx.read(a)?;
            tx.write(a, v + 1)?;
            let w = inner.atomic(|tx2| {
                assert_eq!(tx2.metadata_len(), 0);
                assert!(!tx2.is_writer());
                tx2.inc(b, 5)?;
                tx2.read(b)
            });
            // The inner transaction's sets never touch the outer's.
            assert_eq!(tx.read_set_len(), 1);
            assert_eq!(tx.write_set_len(), 1);
            tx.write(out, w)
        });
        assert_eq!(outer.read_now(a), 2);
        assert_eq!(outer.read_now(out), 15);
        assert_eq!(inner.read_now(b), 15);
        assert_eq!(outer.stats().commits, 1);
        assert_eq!(inner.stats().commits, 1);
    }

    #[test]
    fn buffers_past_the_retention_bound_are_released() {
        let parked = || {
            TX_BUFFERS.with(|slot| {
                let bufs = slot.take().expect("a finished Tx parks its buffers");
                let cap = bufs.max_capacity();
                slot.set(Some(bufs));
                cap
            })
        };
        let n = crate::sets::RETAINED_ENTRIES + 1;
        for alg in Algorithm::ALL {
            let stm = Stm::new(StmConfig::new(alg).heap_words(2 * n).orec_count(1 << 8));
            let cells = stm.alloc_array(n, 1i64);
            stm.atomic(|tx| {
                let v = tx.read(cells)?;
                tx.write(cells, v + 1)
            });
            assert!(parked() > 0, "{alg}: small buffers are kept");
            stm.atomic(|tx| {
                for i in 0..n {
                    let _ = tx.gt(cells.offset(i), 0)?;
                    tx.inc(cells.offset(i), 1)?;
                }
                Ok(())
            });
            assert!(
                parked() <= crate::sets::RETAINED_ENTRIES,
                "{alg}: a buffer past the bound was kept"
            );
            assert_eq!(stm.read_now(cells.offset(n - 1)), 2, "{alg}");
        }
    }

    #[test]
    fn switch_to_current_mode_is_a_no_op() {
        let stm = Stm::new(StmConfig::new(Algorithm::SNOrec).heap_words(64));
        let report = stm.switch_to(Algorithm::SNOrec);
        assert!(!report.changed());
        assert_eq!(stm.mode(), Algorithm::SNOrec);
        assert_eq!(stm.switch_count(), 0);
    }

    #[test]
    fn adapt_tick_switches_under_write_wide_profile() {
        // The runtime starts on S-TL2. A write-wide profile (Bank-like:
        // every commit locks many orecs) makes the NOrec family's single
        // clock cheaper; one controller tick over the observed window
        // should move the runtime there.
        let policy = crate::adapt::AdaptPolicy {
            min_commits: 32,
            dwell_ticks: 0,
            ..crate::adapt::AdaptPolicy::default()
        };
        let stm = Stm::new(
            StmConfig::new(Algorithm::STl2)
                .heap_words(256)
                .orec_count(256)
                .adaptive(policy),
        );
        assert_eq!(stm.mode(), Algorithm::STl2);
        let arr: Vec<_> = (0..16).map(|_| stm.alloc_cell(1i64)).collect();
        for _ in 0..200 {
            stm.atomic(|tx| {
                for &c in &arr {
                    let v = tx.read(c)?;
                    tx.write(c, v + 1)?;
                }
                Ok(())
            });
        }
        let report = stm.adapt_tick();
        assert!(report.is_some_and(|r| r.changed()), "expected a switch");
        // Semanticity is preserved by adaptation: still the S-family.
        assert_eq!(stm.mode(), Algorithm::SNOrec);
        assert_eq!(stm.switch_count(), 1);
        // A second tick right after: the window is near-empty, stay put.
        assert!(stm.adapt_tick().is_none());
    }
}
