//! NOrec and S-NOrec (the paper's Algorithm 6).
//!
//! NOrec [Dalessandro et al., PPoPP 2010] keeps **no ownership records**:
//! a single global sequence lock orders writer commits, and readers
//! maintain value-based read-sets validated whenever the global lock
//! changes. S-NOrec generalises value-based validation to **semantic
//! validation**: the read-set stores `(addr, operator, operand)` triples
//! and validation re-evaluates the recorded relation, so a concurrent
//! commit that changes a value *without changing the recorded relation's
//! outcome* no longer aborts the reader. Plain reads degenerate to `EQ`
//! entries, recovering exactly NOrec's value-based validation.
//!
//! The baseline (`Algorithm::NOrec`) uses the same code with the semantic
//! entry points never invoked — the front-end [`crate::stm::Tx`] delegates
//! `cmp`→`read` and `inc`→`read`+`write` for non-semantic algorithms,
//! mirroring how unmodified libitm delegates the new ABI calls.

use crate::error::Abort;
use crate::fault;
use crate::heap::{Addr, Heap};
use crate::ops::CmpOp;
use crate::ring::{filter_bit, FilterRing};
use crate::sched;
use crate::sets::{ReadEntry, TxBuffers, WriteEntry, WriteKind};
use crate::stats::OpCounts;
use crate::telemetry::PhaseRecorder;
use crate::util::SpinWait;
use crate::wal::CommitLog;
use std::sync::atomic::{AtomicU64, Ordering};

/// The single global timestamped lock (even = free, odd = a writer is
/// committing). All NOrec-family transactions of one [`crate::Stm`]
/// serialise their write-backs through this word.
///
/// Line-aligned so a commit's write to the lock does not evict the
/// read-mostly [`crate::Stm`] fields (heap base, config) that every
/// barrier reads and that would otherwise share its cache line.
#[derive(Default)]
#[repr(align(128))]
pub struct NorecGlobal {
    lock: AtomicU64,
    /// RingSTM-style per-commit write filters (used only when the
    /// `norec_ring_filters` knob is on; see [`crate::ring`]).
    ring: FilterRing,
    /// Thread token of the most recent committer, stamped under the
    /// sequence lock — and only when the flight recorder is on
    /// (`TelemetryLevel::Spans`), so the default hot path never touches
    /// this word. NOrec has no per-address metadata, so abort
    /// attribution uses this as a "most recent committer" heuristic: it
    /// names the right culprit whenever the invalidating commit is the
    /// latest one, which under the single global lock is the common
    /// case.
    committer: AtomicU64,
}

impl NorecGlobal {
    #[inline]
    fn load(&self) -> u64 {
        self.lock.load(Ordering::SeqCst)
    }

    #[inline]
    fn try_acquire(&self, expected_even: u64) -> bool {
        self.lock
            .compare_exchange(
                expected_even,
                expected_even + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
    }

    #[inline]
    fn release(&self, new_even: u64) {
        debug_assert_eq!(new_even & 1, 0);
        self.lock.store(new_even, Ordering::SeqCst);
    }

    /// Current timestamp (for diagnostics/tests).
    pub fn time(&self) -> u64 {
        self.load()
    }

    /// Era bump for an adaptive mode switch ([`crate::adapt`]): advance
    /// the timestamp by one commit's worth while keeping it even (free).
    /// Called only on a quiescent runtime — the drain barrier guarantees
    /// no writer holds the lock — so any snapshot taken before the
    /// switch can never validate as "unchanged" after it.
    pub(crate) fn reseed(&self) {
        self.lock.fetch_add(2, Ordering::SeqCst);
    }
}

/// One NOrec / S-NOrec transaction attempt.
///
/// Not a public API — used through [`crate::stm::Tx`].
pub struct NorecTx<'a> {
    heap: &'a Heap,
    global: &'a NorecGlobal,
    dedup_reads: bool,
    use_ring: bool,
    snapshot: u64,
    /// Bloom filter over the read-set's addresses (ring fast path).
    read_filter: u64,
    /// Read-set (`reads`), write-set (`writes`) and the WAL record
    /// scratch (`resolved`); recycled across transactions.
    bufs: TxBuffers,
    /// Flight-recorder phase marks; inert (its enabled check is the
    /// materialised `level >= Spans` guard) unless
    /// [`NorecTx::enable_spans`] installed a live recorder.
    phases: PhaseRecorder,
    /// Stamp/read the global committer word for abort attribution.
    /// Only true at `TelemetryLevel::Spans`.
    record_committer: bool,
    /// The write-ahead commit log, when the owning [`crate::Stm`] is
    /// durable (see [`NorecTx::enable_wal`]).
    wal: Option<&'a CommitLog>,
}

impl<'a> NorecTx<'a> {
    /// Create a transaction context bound to `heap` and the global lock,
    /// running on (emptied) buffers `bufs`.
    pub(crate) fn new(
        heap: &'a Heap,
        global: &'a NorecGlobal,
        dedup_reads: bool,
        use_ring: bool,
        bufs: TxBuffers,
    ) -> Self {
        NorecTx {
            heap,
            global,
            dedup_reads,
            use_ring,
            snapshot: 0,
            read_filter: 0,
            bufs,
            phases: PhaseRecorder::disabled(),
            record_committer: false,
            wal: None,
        }
    }

    /// Make writer commits durable: append the resolved write set to
    /// `log` post-validation/pre-write-back and ack only once durable.
    pub(crate) fn enable_wal(&mut self, log: &'a CommitLog) {
        self.wal = Some(log);
    }

    /// Turn the flight recorder on for this context: install a live
    /// phase recorder and enable committer stamping/attribution.
    pub(crate) fn enable_spans(&mut self, recorder: PhaseRecorder) {
        self.phases = recorder;
        self.record_committer = recorder.is_enabled();
    }

    /// Current phase marks (read back by the span recorder).
    pub(crate) fn phases(&self) -> PhaseRecorder {
        self.phases
    }

    /// Hand the buffers back for the thread's next transaction.
    pub(crate) fn take_buffers(&mut self) -> TxBuffers {
        std::mem::take(&mut self.bufs)
    }

    /// Begin (or re-begin after an abort): clear metadata and take an even
    /// snapshot of the global lock (Algorithm 6, `Start`).
    pub(crate) fn begin(&mut self) {
        self.bufs.reads.clear();
        self.bufs.writes.clear();
        self.read_filter = 0;
        self.phases.reset();
        let mut wait = SpinWait::new();
        loop {
            sched::point(sched::PointKind::NorecBegin);
            let s = self.global.load();
            if s & 1 == 0 {
                self.snapshot = s;
                return;
            }
            sched::spin();
            wait.spin();
        }
    }

    /// Algorithm 6 `Validate` (lines 1–9): wait out in-flight commits,
    /// semantically re-check every read-set entry, and return the (even)
    /// time at which the read-set was observed consistent.
    /// Also advances `self.snapshot` to the returned time on success.
    fn validate(&mut self) -> Result<u64, Abort> {
        self.phases.mark_validate();
        let mut wait = SpinWait::new();
        loop {
            sched::point(sched::PointKind::NorecValidate);
            let time = self.global.load();
            if time & 1 != 0 {
                sched::spin();
                wait.spin();
                continue;
            }
            // RingSTM fast path: if none of the missed commits' write
            // filters intersects our read filter, the read-set cannot
            // have been invalidated — skip the per-entry re-check. Any
            // concurrent commit during the union flips the lock word and
            // fails the final time re-check, so overwritten slots can
            // never be trusted by mistake.
            let fast_clear = self.use_ring
                && self
                    .global
                    .ring
                    .union(self.snapshot, time)
                    .map(|missed| missed & self.read_filter == 0)
                    .unwrap_or(false);
            if !fast_clear && !fault::active(fault::SNOREC_SKIP_REVALIDATION) {
                for e in &self.bufs.reads {
                    if !e.holds(self.heap) {
                        return Err(self.attributed_validation(e));
                    }
                }
            }
            sched::point(sched::PointKind::NorecValidateRecheck);
            if time == self.global.load() {
                self.snapshot = time;
                return Ok(time);
            }
        }
    }

    /// Algorithm 6 `ReadValid` (lines 10–16): read a word, re-validating
    /// (and moving the snapshot forward) whenever the global lock moved.
    fn read_valid(&mut self, addr: Addr) -> Result<i64, Abort> {
        sched::point(sched::PointKind::NorecRead);
        let mut val = self.heap.tm_load(addr);
        while self.snapshot != self.global.load() {
            self.snapshot = self.validate()?;
            sched::point(sched::PointKind::NorecRead);
            val = self.heap.tm_load(addr);
        }
        Ok(val)
    }

    /// Read-after-write resolution (Algorithm 6 `RAW`, lines 17–23).
    /// Returns the value the transaction would observe for `addr` if it is
    /// buffered, promoting `Increment` entries to reads+stores.
    fn raw(&mut self, addr: Addr, ops: &mut OpCounts) -> Result<Option<i64>, Abort> {
        match self.bufs.writes.get(addr) {
            None => Ok(None),
            Some(WriteEntry {
                kind: WriteKind::Store,
                value,
            }) => Ok(Some(value)),
            Some(WriteEntry {
                kind: WriteKind::Increment,
                ..
            }) => {
                // Promote: the increment's read can no longer be deferred.
                let observed = self.read_valid(addr)?;
                self.push_read(ReadEntry::Val {
                    addr,
                    op: CmpOp::Eq,
                    operand: observed,
                });
                ops.promotes += 1;
                Ok(Some(self.bufs.writes.promote(addr, observed)))
            }
        }
    }

    fn push_read(&mut self, entry: ReadEntry) {
        let (a, b) = entry.addrs();
        self.read_filter |= filter_bit(a.index());
        if let Some(b) = b {
            self.read_filter |= filter_bit(b.index());
        }
        // §4.1 "read after read": duplicates are appended by default; the
        // dedup variant exists as an ablation knob (A2 in DESIGN.md).
        if self.dedup_reads && self.bufs.reads.contains(&entry) {
            return;
        }
        self.bufs.reads.push(entry);
    }

    /// `TM_READ` (Algorithm 6, lines 37–43).
    pub(crate) fn read(&mut self, addr: Addr, ops: &mut OpCounts) -> Result<i64, Abort> {
        if let Some(v) = self.raw(addr, ops)? {
            return Ok(v);
        }
        let val = self.read_valid(addr)?;
        self.push_read(ReadEntry::Val {
            addr,
            op: CmpOp::Eq,
            operand: val,
        });
        Ok(val)
    }

    /// `TM_WRITE` (Algorithm 6, lines 50–52).
    pub(crate) fn write(&mut self, addr: Addr, value: i64) {
        self.bufs.writes.write(addr, value);
    }

    /// Semantic compare, address–value form (Algorithm 6 `Compare`,
    /// lines 29–36).
    pub(crate) fn cmp(
        &mut self,
        addr: Addr,
        op: CmpOp,
        operand: i64,
        ops: &mut OpCounts,
    ) -> Result<bool, Abort> {
        if let Some(v) = self.raw(addr, ops)? {
            return Ok(op.eval(v, operand));
        }
        let val = self.read_valid(addr)?;
        let result = op.eval(val, operand);
        self.push_read(ReadEntry::Val {
            addr,
            op: if result { op } else { op.inverse() },
            operand,
        });
        Ok(result)
    }

    /// Semantic compare, address–address form (`_ITM_S2R`). Sides pinned
    /// by the write-set collapse to the address–value form; when both
    /// operands are live memory the whole relation is recorded as one
    /// `Pair` entry validated semantically.
    pub(crate) fn cmp_addr(
        &mut self,
        a: Addr,
        op: CmpOp,
        b: Addr,
        ops: &mut OpCounts,
    ) -> Result<bool, Abort> {
        let wa = self.raw(a, ops)?;
        let wb = self.raw(b, ops)?;
        match (wa, wb) {
            (Some(va), Some(vb)) => Ok(op.eval(va, vb)),
            (Some(va), None) => self.cmp(b, op.swap(), va, ops),
            (None, Some(vb)) => self.cmp(a, op, vb, ops),
            (None, None) => {
                // Read both sides under one snapshot so the recorded
                // relation reflects a consistent memory state.
                let (va, vb) = loop {
                    let s = self.snapshot;
                    let va = self.read_valid(a)?;
                    let vb = self.read_valid(b)?;
                    if self.snapshot == s {
                        break (va, vb);
                    }
                };
                let result = op.eval(va, vb);
                self.push_read(ReadEntry::Pair {
                    a,
                    op: if result { op } else { op.inverse() },
                    b,
                });
                Ok(result)
            }
        }
    }

    /// Semantic increment/decrement (Algorithm 6 `Increment`,
    /// lines 44–49): pure write-set bookkeeping; the read happens at
    /// commit time under the global lock.
    pub(crate) fn inc(&mut self, addr: Addr, delta: i64) {
        self.bufs.writes.inc(addr, delta);
    }

    /// The failing entry's address plus, when the flight recorder is
    /// on, the most-recent-committer heuristic (see
    /// [`NorecGlobal::committer`]).
    fn attributed_validation(&self, entry: &ReadEntry) -> Abort {
        let mut abort = Abort::validation().at_addr(entry.addrs().0);
        if self.record_committer {
            // 0 (never stamped) is `Conflict`'s "unknown" sentinel.
            abort = abort.by(self.global.committer.load(Ordering::Relaxed));
        }
        abort
    }

    /// Commit. Read-only transactions commit immediately (their last
    /// validation is their serialisation point); writers grab the global
    /// sequence lock, re-validating until the CAS lands, then write back
    /// (applying deferred increments against live memory) and release.
    pub(crate) fn commit(&mut self) -> Result<(), Abort> {
        if self.bufs.writes.is_empty() {
            return Ok(());
        }
        self.phases.mark_lock();
        let mut snap = self.snapshot;
        loop {
            sched::point(sched::PointKind::NorecCommitAcquire);
            if self.global.try_acquire(snap) {
                break;
            }
            snap = self.validate()?;
        }
        if self.record_committer {
            // Under the lock: a reader that observes the released time
            // also observes (at least) this committer token.
            self.global
                .committer
                .store(crate::util::thread_token(), Ordering::Relaxed);
        }
        // Lock held: resolve deferred increments against live memory
        // into absolute values. The WAL record must hold the resolved
        // values (replay cannot re-run increments), so resolution moves
        // ahead of the log append and the write-back stores the same
        // resolved values; without a log it fuses back into the
        // write-back loop below via the same `WriteEntry::resolve`.
        let ticket = if let Some(log) = self.wal {
            let bufs = &mut self.bufs;
            bufs.writes.resolve_into(self.heap, &mut bufs.resolved);
            sched::point(sched::PointKind::WalAppend);
            match log.append(&bufs.resolved) {
                Ok(t) => Some(t),
                Err(_) => {
                    // Nothing written back yet: restore the pre-acquire
                    // even time and abort cleanly.
                    self.global.release(snap);
                    return Err(Abort::durability());
                }
            }
        } else {
            None
        };
        // From here through `release` the write-back is one atomic step
        // of the virtual schedule (no further sched points).
        sched::point(sched::PointKind::NorecWriteback);
        self.phases.mark_writeback();
        let mut write_filter = 0u64;
        if ticket.is_some() {
            for &(addr, value) in &self.bufs.resolved {
                self.heap.tm_store(addr, value);
                write_filter |= filter_bit(addr.index());
            }
        } else {
            for (addr, e) in self.bufs.writes.iter() {
                self.heap.tm_store(addr, e.resolve(self.heap, addr));
                write_filter |= filter_bit(addr.index());
            }
        }
        if self.use_ring {
            // Publish before release so any reader that observes the new
            // time also observes this commit's filter.
            self.global.ring.publish(snap, write_filter);
        }
        self.global.release(snap + 2);
        if let (Some(log), Some(t)) = (self.wal, ticket) {
            // Ack only once durable. A flush failure here is fail-stop:
            // the in-memory commit is already visible and cannot be
            // retried (increments would double-apply).
            if let Err(e) = log.wait_durable(t) {
                panic!(
                    "commit {} is applied but cannot be made durable: {e}",
                    t.seq()
                );
            }
        }
        Ok(())
    }

    /// Number of read-set entries (diagnostics/tests).
    pub(crate) fn read_set_len(&self) -> usize {
        self.bufs.reads.len()
    }

    /// Number of write-set entries (flight-recorder spans).
    pub(crate) fn write_set_len(&self) -> usize {
        self.bufs.writes.len()
    }

    /// Whether the transaction has buffered writes.
    pub(crate) fn is_writer(&self) -> bool {
        !self.bufs.writes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Heap, NorecGlobal) {
        (Heap::new(64), NorecGlobal::default())
    }

    fn commit_write(heap: &Heap, global: &NorecGlobal, addr: Addr, v: i64) {
        // A complete concurrent writer transaction, run inline.
        let mut tx = NorecTx::new(heap, global, false, false, TxBuffers::default());
        tx.begin();
        tx.write(addr, v);
        tx.commit().unwrap();
    }

    #[test]
    fn read_write_roundtrip_single_tx() {
        let (heap, global) = setup();
        let a = heap.alloc(1);
        let mut ops = OpCounts::default();
        let mut tx = NorecTx::new(&heap, &global, false, false, TxBuffers::default());
        tx.begin();
        tx.write(a, 41);
        assert_eq!(tx.read(a, &mut ops).unwrap(), 41); // RAW
        tx.inc(a, 1);
        assert_eq!(tx.read(a, &mut ops).unwrap(), 42); // inc onto Store
        tx.commit().unwrap();
        assert_eq!(heap.load(a), 42);
    }

    #[test]
    fn plain_read_conflict_aborts_at_validation() {
        let (heap, global) = setup();
        let a = heap.alloc(1);
        heap.store(a, 5);
        let mut ops = OpCounts::default();
        let mut t1 = NorecTx::new(&heap, &global, false, false, TxBuffers::default());
        t1.begin();
        assert_eq!(t1.read(a, &mut ops).unwrap(), 5);
        commit_write(&heap, &global, a, 6); // concurrent commit
        t1.write(a, 100);
        assert_eq!(t1.commit(), Err(Abort::validation()));
    }

    #[test]
    fn semantic_cmp_survives_value_change_that_preserves_relation() {
        // The paper's Algorithm 1: T1 checks x > 0; T2 increments x; T1
        // must still commit under S-NOrec.
        let (heap, global) = setup();
        let x = heap.alloc(1);
        heap.store(x, 5);
        let y = heap.alloc(1);
        let mut ops = OpCounts::default();
        let mut t1 = NorecTx::new(&heap, &global, false, false, TxBuffers::default());
        t1.begin();
        assert!(t1.cmp(x, CmpOp::Gt, 0, &mut ops).unwrap());
        commit_write(&heap, &global, x, 6); // x++ equivalent: 5 -> 6, still > 0
        t1.write(y, 1);
        t1.commit().expect("semantic validation must pass");
        assert_eq!(heap.load(y), 1);
    }

    #[test]
    fn semantic_cmp_aborts_when_relation_flips() {
        let (heap, global) = setup();
        let x = heap.alloc(1);
        heap.store(x, 1);
        let y = heap.alloc(1);
        let mut ops = OpCounts::default();
        let mut t1 = NorecTx::new(&heap, &global, false, false, TxBuffers::default());
        t1.begin();
        assert!(t1.cmp(x, CmpOp::Gt, 0, &mut ops).unwrap());
        commit_write(&heap, &global, x, -3); // relation x > 0 now false
        t1.write(y, 1);
        assert_eq!(t1.commit(), Err(Abort::validation()));
    }

    #[test]
    fn false_cmp_records_inverse_and_validates_it() {
        let (heap, global) = setup();
        let x = heap.alloc(1);
        heap.store(x, -4);
        let y = heap.alloc(1);
        let mut ops = OpCounts::default();
        let mut t1 = NorecTx::new(&heap, &global, false, false, TxBuffers::default());
        t1.begin();
        // x > 0 is false; the inverse (x <= 0) is recorded.
        assert!(!t1.cmp(x, CmpOp::Gt, 0, &mut ops).unwrap());
        commit_write(&heap, &global, x, -10); // still <= 0: fine
        t1.write(y, 1);
        t1.commit().unwrap();
    }

    #[test]
    fn deferred_inc_applies_against_live_memory() {
        // Two increments racing: one commits between the other's begin and
        // commit; deferred-inc semantics must not lose either update.
        let (heap, global) = setup();
        let x = heap.alloc(1);
        heap.store(x, 10);
        let mut t1 = NorecTx::new(&heap, &global, false, false, TxBuffers::default());
        t1.begin();
        t1.inc(x, 1);
        // Concurrent committed increment.
        let mut t2 = NorecTx::new(&heap, &global, false, false, TxBuffers::default());
        t2.begin();
        t2.inc(x, 5);
        t2.commit().unwrap();
        assert_eq!(heap.load(x), 15);
        t1.commit().expect("pure-inc transaction has no read-set");
        assert_eq!(heap.load(x), 16, "no lost update");
    }

    #[test]
    fn promote_pins_the_observed_value() {
        let (heap, global) = setup();
        let x = heap.alloc(1);
        heap.store(x, 7);
        let mut ops = OpCounts::default();
        let mut t1 = NorecTx::new(&heap, &global, false, false, TxBuffers::default());
        t1.begin();
        t1.inc(x, 2);
        assert_eq!(t1.read(x, &mut ops).unwrap(), 9); // promoted: 7 + 2
        assert_eq!(ops.promotes, 1);
        assert_eq!(t1.read_set_len(), 1, "promotion adds an EQ read entry");
        // After promotion the entry is a Store; a concurrent change must
        // now abort the transaction (value semantics, no longer deferred).
        commit_write(&heap, &global, x, 100);
        assert_eq!(t1.commit(), Err(Abort::validation()));
    }

    #[test]
    fn cmp_addr_pair_semantic_validation() {
        let (heap, global) = setup();
        let h = heap.alloc(1);
        let t = heap.alloc(1);
        heap.store(h, 3);
        heap.store(t, 9);
        let out = heap.alloc(1);
        let mut ops = OpCounts::default();
        let mut t1 = NorecTx::new(&heap, &global, false, false, TxBuffers::default());
        t1.begin();
        // head != tail (queue non-empty check, Algorithm 3)
        assert!(t1.cmp_addr(h, CmpOp::Neq, t, &mut ops).unwrap());
        // Concurrent enqueue bumps tail; relation still holds.
        commit_write(&heap, &global, t, 10);
        t1.write(out, 1);
        t1.commit().expect("pair relation still holds");
        // Now make them equal: relation flips, validation must fail.
        let mut t2 = NorecTx::new(&heap, &global, false, false, TxBuffers::default());
        t2.begin();
        assert!(t2.cmp_addr(h, CmpOp::Neq, t, &mut ops).unwrap());
        commit_write(&heap, &global, h, 10);
        t2.write(out, 2);
        assert_eq!(t2.commit(), Err(Abort::validation()));
    }

    #[test]
    fn read_only_tx_commits_without_touching_global() {
        let (heap, global) = setup();
        let a = heap.alloc(1);
        let mut ops = OpCounts::default();
        let before = global.time();
        let mut tx = NorecTx::new(&heap, &global, false, false, TxBuffers::default());
        tx.begin();
        let _ = tx.read(a, &mut ops).unwrap();
        tx.commit().unwrap();
        assert_eq!(global.time(), before);
    }

    #[test]
    fn duplicate_reads_appended_by_default_deduped_with_knob() {
        let (heap, global) = setup();
        let a = heap.alloc(1);
        let mut ops = OpCounts::default();

        let mut tx = NorecTx::new(&heap, &global, false, false, TxBuffers::default());
        tx.begin();
        let _ = tx.read(a, &mut ops).unwrap();
        let _ = tx.read(a, &mut ops).unwrap();
        assert_eq!(tx.read_set_len(), 2);

        let mut tx = NorecTx::new(&heap, &global, true, false, TxBuffers::default());
        tx.begin();
        let _ = tx.read(a, &mut ops).unwrap();
        let _ = tx.read(a, &mut ops).unwrap();
        assert_eq!(tx.read_set_len(), 1);
    }

    #[test]
    fn ring_filters_preserve_all_outcomes() {
        // Same scenarios as above with the RingSTM fast path on: results
        // must be identical (the filters are an accelerator, not a
        // semantics change).
        let (heap, global) = setup();
        let x = heap.alloc(1);
        let y = heap.alloc(1);
        heap.store(x, 5);
        let mut ops = OpCounts::default();

        // Disjoint concurrent commit: reader revalidation is skippable
        // and the transaction commits.
        let mut t1 = NorecTx::new(&heap, &global, false, true, TxBuffers::default());
        t1.begin();
        assert_eq!(t1.read(x, &mut ops).unwrap(), 5);
        let mut t2 = NorecTx::new(&heap, &global, false, true, TxBuffers::default());
        t2.begin();
        t2.write(y, 9);
        t2.commit().unwrap();
        t1.write(y, 10);
        t1.commit()
            .expect("disjoint commit must not abort the reader");
        assert_eq!(heap.load(y), 10);

        // Overlapping commit: the filter hits, full validation runs, and
        // the stale reader aborts exactly as without filters.
        heap.store(x, 5);
        let mut t3 = NorecTx::new(&heap, &global, false, true, TxBuffers::default());
        t3.begin();
        assert_eq!(t3.read(x, &mut ops).unwrap(), 5);
        let mut t4 = NorecTx::new(&heap, &global, false, true, TxBuffers::default());
        t4.begin();
        t4.write(x, 6);
        t4.commit().unwrap();
        t3.write(y, 11);
        assert_eq!(t3.commit(), Err(Abort::validation()));
    }

    #[test]
    fn ring_filters_with_semantic_cmp() {
        let (heap, global) = setup();
        let x = heap.alloc(1);
        let out = heap.alloc(1);
        heap.store(x, 5);
        let mut ops = OpCounts::default();
        let mut t1 = NorecTx::new(&heap, &global, false, true, TxBuffers::default());
        t1.begin();
        assert!(t1.cmp(x, CmpOp::Gt, 0, &mut ops).unwrap());
        // Same-address commit that preserves the relation: filter hits,
        // semantic validation passes.
        let mut t2 = NorecTx::new(&heap, &global, false, true, TxBuffers::default());
        t2.begin();
        t2.write(x, 7);
        t2.commit().unwrap();
        t1.write(out, 1);
        t1.commit().expect("relation still holds");
    }

    #[test]
    fn validation_abort_attributes_address_and_committer() {
        let (heap, global) = setup();
        let a = heap.alloc(1);
        heap.store(a, 5);
        let mut ops = OpCounts::default();
        let mut t1 = NorecTx::new(&heap, &global, false, false, TxBuffers::default());
        t1.enable_spans(PhaseRecorder::enabled(std::time::Instant::now()));
        t1.begin();
        assert_eq!(t1.read(a, &mut ops).unwrap(), 5);
        // Concurrent commit with the recorder on stamps the committer.
        let mut t2 = NorecTx::new(&heap, &global, false, false, TxBuffers::default());
        t2.enable_spans(PhaseRecorder::enabled(std::time::Instant::now()));
        t2.begin();
        t2.write(a, 6);
        t2.commit().unwrap();
        t1.write(a, 100);
        let err = t1.commit().unwrap_err();
        assert_eq!(err, Abort::validation());
        assert_eq!(err.conflict().addr(), Some(a));
        assert_eq!(err.conflict().by(), Some(crate::util::thread_token()));
    }

    #[test]
    fn attribution_is_absent_without_spans() {
        let (heap, global) = setup();
        let a = heap.alloc(1);
        heap.store(a, 5);
        let mut ops = OpCounts::default();
        let mut t1 = NorecTx::new(&heap, &global, false, false, TxBuffers::default());
        t1.begin();
        assert_eq!(t1.read(a, &mut ops).unwrap(), 5);
        commit_write(&heap, &global, a, 6);
        t1.write(a, 100);
        let err = t1.commit().unwrap_err();
        // Address is free to attribute (no extra atomics), but the
        // committer heuristic needs the gated stamp — absent here.
        assert_eq!(err.conflict().addr(), Some(a));
        assert_eq!(err.conflict().by(), None);
    }

    #[test]
    fn write_after_read_validated_at_commit() {
        let (heap, global) = setup();
        let a = heap.alloc(1);
        heap.store(a, 1);
        let mut ops = OpCounts::default();
        let mut t1 = NorecTx::new(&heap, &global, false, false, TxBuffers::default());
        t1.begin();
        let v = t1.read(a, &mut ops).unwrap();
        t1.write(a, v + 1);
        commit_write(&heap, &global, a, 50);
        assert_eq!(t1.commit(), Err(Abort::validation()));
        assert_eq!(heap.load(a), 50, "failed commit must not write back");
    }
}
