//! NOrec / S-NOrec over the sharded commit clock ([`crate::sclock`]).
//!
//! This is the NOrec-family engine selected by the
//! [`clock_shards`](crate::StmConfig::clock_shards) knob when it is
//! greater than one. The algorithm is NOrec's (value- or semantic-
//! validating, commit-time write-back) with the single global sequence
//! lock replaced by the per-line shard vector:
//!
//! * **Begin** double-collects an all-even snapshot of the shard vector
//!   (sample every shard, then confirm none moved), so the snapshot
//!   corresponds to a real instant of the heap.
//! * **Validation** samples the vector, semantically re-checks **only
//!   the read-set entries whose covering shards moved** — a shard's
//!   sequence word covers exactly the addresses mapping to it, so an
//!   unmoved shard proves its entries' words are untouched — and
//!   confirms with a second sample. This is the scalability win on the
//!   read side: a foreign commit no longer forces an O(read-set)
//!   re-check, only an O(moved entries) one. Reads consult the clock's
//!   single monotone acquire-epoch word first
//!   ([`ShardedClock::epoch`]): when it hasn't moved since the last
//!   validated snapshot, even the O(shards) vector scan is skipped, so
//!   the quiescent read path costs the same two loads as plain NOrec's.
//! * **Commit** acquires the shards covering the write-set in ascending
//!   index order (CAS from the validated snapshot, rolling back all
//!   acquired shards on any failure), then re-validates entries in
//!   *foreign* shards under the held locks — held shards cannot move,
//!   and a foreign shard that stays odd past
//!   [`lock_wait_spins`](crate::StmConfig::lock_wait_spins) aborts with
//!   `Timeout`, which is what breaks the cross-committer wait cycle two
//!   overlapping commits could otherwise deadlock on. Write-back and
//!   release (`snapshot + 2` on every held shard) follow.
//!
//! With one shard the protocol is exactly [`crate::norec`] (one
//! sequence word, every commit moves it, validation re-checks
//! everything); the DFS tests in `semtm-check` exploit this by
//! exploring both engines over the same scenarios. See DESIGN.md §8 for
//! the full protocol and its opacity argument.
//!
//! The RingSTM filter fast path ([`crate::ring`]) is not wired here:
//! the per-shard moved test already plays the same role (skip
//! revalidation when nothing relevant committed) at line rather than
//! filter-bit granularity.

use crate::error::Abort;
use crate::fault;
use crate::heap::{Addr, Heap};
use crate::ops::CmpOp;
use crate::sched;
use crate::sclock::ShardedClock;
use crate::sets::{ReadEntry, TxBuffers, WriteEntry, WriteKind};
use crate::stats::OpCounts;
use crate::telemetry::PhaseRecorder;
use crate::util::SpinWait;
use crate::wal::CommitLog;

/// One sharded-clock NOrec / S-NOrec transaction attempt.
///
/// Not a public API — used through [`crate::stm::Tx`].
pub struct ScNorecTx<'a> {
    heap: &'a Heap,
    clock: &'a ShardedClock,
    dedup_reads: bool,
    lock_wait_spins: u32,
    /// Acquire-epoch sampled *before* the vector pass that produced
    /// `snapshot` ([`ShardedClock::epoch`]). The read fast path compares
    /// one word against this instead of scanning the vector; sampling
    /// before the pass keeps the stored value stale-low, which is safe
    /// (at worst one spurious validation) — adopting a fresher epoch
    /// than the confirmed vector would let a pending write-back slip
    /// past the filter.
    epoch_snapshot: u64,
    /// Bumped whenever `snapshot` changes — a cheap "did validation move
    /// the snapshot" probe for the pair-read consistency loop.
    snapshot_gen: u64,
    /// The recycled buffers: read-set (`reads`), write-set (`writes`),
    /// the last validated shard vector (`snapshot`, all even — every
    /// read-set entry holds in the heap state these shard values
    /// determine), the validation sampling buffer (`sample`), the sorted,
    /// deduplicated shards covering the write-set (`targets`, populated
    /// at commit) and the WAL record scratch (`resolved`).
    bufs: TxBuffers,
    phases: PhaseRecorder,
    record_committer: bool,
    /// The write-ahead commit log, when the owning [`crate::Stm`] is
    /// durable.
    wal: Option<&'a CommitLog>,
}

impl<'a> ScNorecTx<'a> {
    /// Create a transaction context bound to `heap` and the shard clock,
    /// running on (emptied) buffers `bufs`.
    pub(crate) fn new(
        heap: &'a Heap,
        clock: &'a ShardedClock,
        dedup_reads: bool,
        lock_wait_spins: u32,
        mut bufs: TxBuffers,
    ) -> Self {
        bufs.snapshot.resize(clock.len(), 0);
        bufs.sample.resize(clock.len(), 0);
        ScNorecTx {
            heap,
            clock,
            dedup_reads,
            lock_wait_spins,
            epoch_snapshot: 0,
            snapshot_gen: 0,
            bufs,
            phases: PhaseRecorder::disabled(),
            record_committer: false,
            wal: None,
        }
    }

    /// Make writer commits durable (see
    /// [`crate::norec::NorecTx::enable_wal`]).
    pub(crate) fn enable_wal(&mut self, log: &'a CommitLog) {
        self.wal = Some(log);
    }

    /// Turn the flight recorder on for this context (see
    /// [`crate::norec::NorecTx::enable_spans`]).
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

    /// Begin (or re-begin after an abort): clear metadata and
    /// double-collect an all-even snapshot of the shard vector.
    pub(crate) fn begin(&mut self) {
        self.bufs.reads.clear();
        self.bufs.writes.clear();
        self.phases.reset();
        let mut wait = SpinWait::new();
        'round: loop {
            sched::point(sched::PointKind::ScNorecBegin);
            // Epoch before the vector pass (see `epoch_snapshot`).
            let epoch = self.clock.epoch();
            for s in 0..self.clock.len() {
                let v = self.clock.load(s);
                if v & 1 != 0 {
                    sched::spin();
                    wait.spin();
                    continue 'round;
                }
                self.bufs.snapshot[s] = v;
            }
            // Confirming pass: all shards still at the sampled values ⇒
            // there was an instant where the whole vector held at once.
            for s in 0..self.clock.len() {
                if self.clock.load(s) != self.bufs.snapshot[s] {
                    sched::spin();
                    wait.spin();
                    continue 'round;
                }
            }
            self.epoch_snapshot = epoch;
            self.snapshot_gen = self.snapshot_gen.wrapping_add(1);
            return;
        }
    }

    /// Whether entry `e` is covered by a shard that moved between
    /// `snapshot` and `sample`.
    #[inline]
    fn entry_moved(&self, e: &ReadEntry) -> bool {
        let (a, b) = e.addrs();
        let sa = self.clock.shard_of(a);
        if self.bufs.sample[sa] != self.bufs.snapshot[sa] {
            return true;
        }
        b.is_some_and(|b| {
            let sb = self.clock.shard_of(b);
            self.bufs.sample[sb] != self.bufs.snapshot[sb]
        })
    }

    /// Is shard `s` one of the write-set shards this commit holds?
    /// (Meaningful only during commit, when `targets` is populated.)
    #[inline]
    fn holds_shard(&self, s: usize) -> bool {
        self.bufs.targets.binary_search(&s).is_ok()
    }

    /// One validation pass: sample the vector (treating shards in
    /// `held` mode as pinned to the snapshot), re-check moved entries,
    /// confirm, adopt. `held` distinguishes the in-transaction variant
    /// (no locks held, wait out odd shards indefinitely) from the
    /// commit-time variant (write shards held and skipped, foreign odd
    /// shards waited out only `lock_wait_spins` times — the holder might
    /// be waiting on *us*, so patience must be bounded).
    fn validate_inner(&mut self, held: bool) -> Result<(), Abort> {
        self.phases.mark_validate();
        let mut wait = SpinWait::new();
        let mut spins: u32 = 0;
        'round: loop {
            sched::point(sched::PointKind::ScNorecValidate);
            // Epoch before the vector pass (see `epoch_snapshot`).
            let epoch = self.clock.epoch();
            for s in 0..self.clock.len() {
                if held && self.holds_shard(s) {
                    self.bufs.sample[s] = self.bufs.snapshot[s];
                    continue;
                }
                let v = self.clock.load(s);
                if v & 1 != 0 {
                    sched::spin();
                    wait.spin();
                    if held {
                        spins += 1;
                        if spins > self.lock_wait_spins {
                            return Err(Abort::timeout());
                        }
                    }
                    continue 'round;
                }
                self.bufs.sample[s] = v;
            }
            let moved = self.bufs.sample != self.bufs.snapshot;
            if moved && !fault::active(fault::SNOREC_SKIP_REVALIDATION) {
                for e in &self.bufs.reads {
                    if self.entry_moved(e) && !e.holds(self.heap) {
                        return Err(self.attributed_validation(e));
                    }
                }
            }
            sched::point(sched::PointKind::ScNorecValidateRecheck);
            for s in 0..self.clock.len() {
                if (!held || !self.holds_shard(s)) && self.clock.load(s) != self.bufs.sample[s] {
                    continue 'round;
                }
            }
            if moved {
                self.bufs.snapshot.copy_from_slice(&self.bufs.sample);
                self.snapshot_gen = self.snapshot_gen.wrapping_add(1);
            }
            self.epoch_snapshot = epoch;
            return Ok(());
        }
    }

    /// In-transaction validation (no locks held).
    fn validate(&mut self) -> Result<(), Abort> {
        self.validate_inner(false)
    }

    /// Read a word, re-validating (and moving the snapshot forward)
    /// whenever the acquire-epoch says a write-back may have started —
    /// the sharded `ReadValid`. The fast path is two epoch loads around
    /// the heap load: unchanged epoch proves the value is consistent
    /// with the validated snapshot (no acquisition ⇒ no write-back),
    /// without scanning the shard vector.
    fn read_valid(&mut self, addr: Addr) -> Result<i64, Abort> {
        loop {
            sched::point(sched::PointKind::ScNorecRead);
            let epoch = self.clock.epoch();
            if epoch != self.epoch_snapshot {
                self.validate()?;
                continue;
            }
            let val = self.heap.tm_load(addr);
            if self.clock.epoch() == epoch {
                return Ok(val);
            }
        }
    }

    /// Read-after-write resolution (as [`crate::norec::NorecTx`]):
    /// returns the buffered value, promoting `Increment` entries.
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
        if self.dedup_reads && self.bufs.reads.contains(&entry) {
            return;
        }
        self.bufs.reads.push(entry);
    }

    /// `TM_READ`.
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

    /// `TM_WRITE`.
    pub(crate) fn write(&mut self, addr: Addr, value: i64) {
        self.bufs.writes.write(addr, value);
    }

    /// Semantic compare, address–value form.
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

    /// Semantic compare, address–address form (`_ITM_S2R`).
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
                // Read both sides under one snapshot generation so the
                // recorded relation reflects a consistent memory state.
                let (va, vb) = loop {
                    let gen = self.snapshot_gen;
                    let va = self.read_valid(a)?;
                    let vb = self.read_valid(b)?;
                    if self.snapshot_gen == gen {
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

    /// Semantic increment/decrement: pure write-set bookkeeping; the
    /// read happens at commit time under the covering shard lock.
    pub(crate) fn inc(&mut self, addr: Addr, delta: i64) {
        self.bufs.writes.inc(addr, delta);
    }

    /// The failing entry's address plus (flight recorder only) the
    /// most-recent-committer heuristic.
    fn attributed_validation(&self, entry: &ReadEntry) -> Abort {
        let mut abort = Abort::validation().at_addr(entry.addrs().0);
        if self.record_committer {
            abort = abort.by(self.clock.committer());
        }
        abort
    }

    /// Commit. Read-only transactions commit immediately; writers
    /// acquire their write-set's shards in ascending order, re-validate
    /// foreign-shard entries under the locks, write back and release.
    pub(crate) fn commit(&mut self) -> Result<(), Abort> {
        if self.bufs.writes.is_empty() {
            return Ok(());
        }
        self.phases.mark_lock();
        self.bufs.targets.clear();
        for (a, _) in self.bufs.writes.iter() {
            self.bufs.targets.push(self.clock.shard_of(a));
        }
        // Ascending acquisition order: two commits contending for the
        // same shard pair always race on the lower index first, so the
        // acquisition phase itself cannot deadlock (only the foreign-
        // shard wait in `validate_inner(true)` can cycle, and that one
        // is patience-bounded).
        self.bufs.targets.sort_unstable();
        self.bufs.targets.dedup();
        'acquire: loop {
            sched::point(sched::PointKind::ScNorecCommitAcquire);
            for k in 0..self.bufs.targets.len() {
                let s = self.bufs.targets[k];
                if !self.clock.try_acquire(s, self.bufs.snapshot[s]) {
                    // Roll back: restore pre-acquire values. Sound
                    // because nothing was written back yet, so the
                    // bounce odd→same-even published no data change.
                    for &t in &self.bufs.targets[..k] {
                        self.clock.release(t, self.bufs.snapshot[t]);
                    }
                    self.validate()?;
                    continue 'acquire;
                }
            }
            break;
        }
        // All write shards held. Entries covered by held shards are
        // frozen; entries in foreign shards may have been invalidated
        // since the last validation — re-check them under the locks.
        if let Err(abort) = self.validate_inner(true) {
            for &s in &self.bufs.targets {
                self.clock.release(s, self.bufs.snapshot[s]);
            }
            return Err(abort);
        }
        if self.record_committer {
            self.clock.stamp_committer(crate::util::thread_token());
        }
        // Write shards held and validation passed: resolve deferred
        // increments to absolute values and append the WAL record now,
        // before the epoch bump announces any data change. A refused
        // append rolls back cleanly — nothing was written.
        let ticket = if let Some(log) = self.wal {
            let bufs = &mut self.bufs;
            bufs.writes.resolve_into(self.heap, &mut bufs.resolved);
            sched::point(sched::PointKind::WalAppend);
            match log.append(&bufs.resolved) {
                Ok(t) => Some(t),
                Err(_) => {
                    for &s in &self.bufs.targets {
                        self.clock.release(s, self.bufs.snapshot[s]);
                    }
                    return Err(Abort::durability());
                }
            }
        } else {
            None
        };
        // Publish intent before the first data store: readers' epoch
        // fast path relies on every write-back being preceded by a bump
        // (see [`ShardedClock::bump_epoch`]).
        self.clock.bump_epoch();
        // Locks held: from here through the releases the write-back is
        // one atomic step of the virtual schedule (no further sched
        // points).
        sched::point(sched::PointKind::ScNorecWriteback);
        self.phases.mark_writeback();
        for (addr, e) in self.bufs.writes.iter() {
            self.heap.tm_store(addr, e.resolve(self.heap, addr));
        }
        for &s in &self.bufs.targets {
            self.clock.release(s, self.bufs.snapshot[s] + 2);
        }
        if let (Some(log), Some(t)) = (self.wal, ticket) {
            // Fail stop on flush failure: the in-memory commit is
            // already visible and cannot be retried.
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
    use crate::heap::LINE_WORDS;

    fn setup(shards: usize) -> (Heap, ShardedClock) {
        (Heap::new(LINE_WORDS * 16), ShardedClock::new(shards))
    }

    fn commit_write(heap: &Heap, clock: &ShardedClock, addr: Addr, v: i64) {
        let mut tx = ScNorecTx::new(heap, clock, false, 64, TxBuffers::default());
        tx.begin();
        tx.write(addr, v);
        tx.commit().unwrap();
    }

    #[test]
    fn read_write_roundtrip_single_tx() {
        for shards in [1, 4] {
            let (heap, clock) = setup(shards);
            let a = heap.alloc(1);
            let mut ops = OpCounts::default();
            let mut tx = ScNorecTx::new(&heap, &clock, false, 64, TxBuffers::default());
            tx.begin();
            tx.write(a, 41);
            assert_eq!(tx.read(a, &mut ops).unwrap(), 41); // RAW
            tx.inc(a, 1);
            assert_eq!(tx.read(a, &mut ops).unwrap(), 42); // inc onto Store
            tx.commit().unwrap();
            assert_eq!(heap.load(a), 42);
        }
    }

    #[test]
    fn commit_bumps_only_covering_shards() {
        let (heap, clock) = setup(4);
        // Padded allocations: each lands on its own line ⇒ own shard.
        let a = heap.alloc_padded(1); // line 0 → shard 0
        let b = heap.alloc_padded(1); // line 1 → shard 1
        commit_write(&heap, &clock, a, 7);
        assert_eq!(clock.load(clock.shard_of(a)), 2);
        assert_eq!(clock.load(clock.shard_of(b)), 0, "foreign shard untouched");
    }

    #[test]
    fn plain_read_conflict_aborts_at_validation() {
        for shards in [1, 4] {
            let (heap, clock) = setup(shards);
            let a = heap.alloc(1);
            heap.store(a, 5);
            let mut ops = OpCounts::default();
            let mut t1 = ScNorecTx::new(&heap, &clock, false, 64, TxBuffers::default());
            t1.begin();
            assert_eq!(t1.read(a, &mut ops).unwrap(), 5);
            commit_write(&heap, &clock, a, 6);
            t1.write(a, 100);
            assert_eq!(t1.commit(), Err(Abort::validation()), "{shards} shards");
        }
    }

    #[test]
    fn foreign_shard_commit_does_not_abort_reader() {
        // The per-shard win: a commit to a different line leaves the
        // reader's snapshot intact on the shard that matters, and the
        // value re-check (which would pass anyway) is skipped entirely.
        let (heap, clock) = setup(4);
        let a = heap.alloc_padded(1); // shard 0
        let b = heap.alloc_padded(1); // shard 1
        heap.store(a, 5);
        let mut ops = OpCounts::default();
        let mut t1 = ScNorecTx::new(&heap, &clock, false, 64, TxBuffers::default());
        t1.begin();
        assert_eq!(t1.read(a, &mut ops).unwrap(), 5);
        commit_write(&heap, &clock, b, 9); // foreign shard
        t1.write(a, 6);
        t1.commit()
            .expect("disjoint-shard commit must not conflict");
        assert_eq!(heap.load(a), 6);
    }

    #[test]
    fn same_shard_value_revalidation_still_runs() {
        // Same line, different word: the shard moves, the value
        // re-check runs, and the unchanged word passes (NOrec value
        // semantics preserved at shard granularity).
        let (heap, clock) = setup(4);
        let base = heap.alloc_padded(2); // two words, one line, one shard
        let a = base;
        let b = base.offset(1);
        heap.store(a, 5);
        let mut ops = OpCounts::default();
        let mut t1 = ScNorecTx::new(&heap, &clock, false, 64, TxBuffers::default());
        t1.begin();
        assert_eq!(t1.read(a, &mut ops).unwrap(), 5);
        commit_write(&heap, &clock, b, 9); // same shard, different word
        t1.write(a, 6);
        t1.commit()
            .expect("value of `a` unchanged: validation passes");
    }

    #[test]
    fn semantic_cmp_survives_value_change_that_preserves_relation() {
        for shards in [1, 4] {
            let (heap, clock) = setup(shards);
            let x = heap.alloc(1);
            heap.store(x, 5);
            let y = heap.alloc_padded(1);
            let mut ops = OpCounts::default();
            let mut t1 = ScNorecTx::new(&heap, &clock, false, 64, TxBuffers::default());
            t1.begin();
            assert!(t1.cmp(x, CmpOp::Gt, 0, &mut ops).unwrap());
            commit_write(&heap, &clock, x, 6); // still > 0
            t1.write(y, 1);
            t1.commit().expect("semantic validation must pass");
            assert_eq!(heap.load(y), 1);
        }
    }

    #[test]
    fn semantic_cmp_aborts_when_relation_flips() {
        for shards in [1, 4] {
            let (heap, clock) = setup(shards);
            let x = heap.alloc(1);
            heap.store(x, 1);
            let y = heap.alloc_padded(1);
            let mut ops = OpCounts::default();
            let mut t1 = ScNorecTx::new(&heap, &clock, false, 64, TxBuffers::default());
            t1.begin();
            assert!(t1.cmp(x, CmpOp::Gt, 0, &mut ops).unwrap());
            commit_write(&heap, &clock, x, -3);
            t1.write(y, 1);
            assert_eq!(t1.commit(), Err(Abort::validation()), "{shards} shards");
        }
    }

    #[test]
    fn deferred_inc_applies_against_live_memory() {
        let (heap, clock) = setup(4);
        let x = heap.alloc(1);
        heap.store(x, 10);
        let mut t1 = ScNorecTx::new(&heap, &clock, false, 64, TxBuffers::default());
        t1.begin();
        t1.inc(x, 1);
        let mut t2 = ScNorecTx::new(&heap, &clock, false, 64, TxBuffers::default());
        t2.begin();
        t2.inc(x, 5);
        t2.commit().unwrap();
        assert_eq!(heap.load(x), 15);
        t1.commit().expect("pure-inc transaction has no read-set");
        assert_eq!(heap.load(x), 16, "no lost update");
    }

    #[test]
    fn promote_pins_the_observed_value() {
        let (heap, clock) = setup(4);
        let x = heap.alloc(1);
        heap.store(x, 7);
        let mut ops = OpCounts::default();
        let mut t1 = ScNorecTx::new(&heap, &clock, false, 64, TxBuffers::default());
        t1.begin();
        t1.inc(x, 2);
        assert_eq!(t1.read(x, &mut ops).unwrap(), 9);
        assert_eq!(ops.promotes, 1);
        assert_eq!(t1.read_set_len(), 1);
        commit_write(&heap, &clock, x, 100);
        assert_eq!(t1.commit(), Err(Abort::validation()));
    }

    #[test]
    fn cmp_addr_pair_across_shards() {
        let (heap, clock) = setup(4);
        let h = heap.alloc_padded(1); // shard 0
        let t = heap.alloc_padded(1); // shard 1
        heap.store(h, 3);
        heap.store(t, 9);
        let out = heap.alloc_padded(1); // shard 2
        let mut ops = OpCounts::default();
        let mut t1 = ScNorecTx::new(&heap, &clock, false, 64, TxBuffers::default());
        t1.begin();
        assert!(t1.cmp_addr(h, CmpOp::Neq, t, &mut ops).unwrap());
        commit_write(&heap, &clock, t, 10); // bump tail: relation holds
        t1.write(out, 1);
        t1.commit().expect("pair relation still holds");
        let mut t2 = ScNorecTx::new(&heap, &clock, false, 64, TxBuffers::default());
        t2.begin();
        assert!(t2.cmp_addr(h, CmpOp::Neq, t, &mut ops).unwrap());
        commit_write(&heap, &clock, h, 10); // head == tail: flips
        t2.write(out, 2);
        assert_eq!(t2.commit(), Err(Abort::validation()));
    }

    #[test]
    fn read_only_tx_commits_without_touching_any_shard() {
        let (heap, clock) = setup(4);
        let a = heap.alloc(1);
        let mut ops = OpCounts::default();
        let mut tx = ScNorecTx::new(&heap, &clock, false, 64, TxBuffers::default());
        tx.begin();
        let _ = tx.read(a, &mut ops).unwrap();
        tx.commit().unwrap();
        for s in 0..clock.len() {
            assert_eq!(clock.load(s), 0);
        }
    }

    #[test]
    fn multi_shard_commit_releases_all_shards_even() {
        let (heap, clock) = setup(4);
        let a = heap.alloc_padded(1); // shard 0
        let b = heap.alloc_padded(1); // shard 1
        let mut tx = ScNorecTx::new(&heap, &clock, false, 64, TxBuffers::default());
        tx.begin();
        tx.write(a, 1);
        tx.write(b, 2);
        tx.commit().unwrap();
        assert_eq!(clock.load(0), 2);
        assert_eq!(clock.load(1), 2);
        assert_eq!(clock.load(2), 0);
        assert_eq!(heap.load(a), 1);
        assert_eq!(heap.load(b), 2);
    }

    #[test]
    fn stale_snapshot_acquire_revalidates_and_retries() {
        // A commit needing shards {0, 1} whose shard-1 snapshot is stale:
        // the acquire pass takes shard 0, fails the shard-1 CAS, rolls
        // shard 0 back to its pre-acquire value, revalidates, and the
        // retry lands. The rollback bounce must not look like a commit.
        let (heap, clock) = setup(4);
        let a = heap.alloc_padded(1); // shard 0
        let b = heap.alloc_padded(1); // shard 1
        let mut tx = ScNorecTx::new(&heap, &clock, false, 64, TxBuffers::default());
        tx.begin();
        tx.write(a, 1);
        tx.write(b, 2);
        // Foreign commit moves shard 1 after the snapshot was taken.
        commit_write(&heap, &clock, b, 7);
        tx.commit().expect("no reads: revalidation is vacuous");
        assert_eq!(clock.load(0), 2, "one commit on shard 0");
        assert_eq!(clock.load(1), 4, "two commits on shard 1");
        assert_eq!(heap.load(a), 1);
        assert_eq!(heap.load(b), 2, "second commit overwrote the foreign 7");
    }

    #[test]
    fn commit_blocked_by_held_shard_times_out() {
        let (heap, clock) = setup(4);
        let a = heap.alloc_padded(1); // shard 0
        let b = heap.alloc_padded(1); // shard 1
        heap.store(b, 3);
        let mut tx = ScNorecTx::new(&heap, &clock, false, 16, TxBuffers::default());
        tx.begin();
        let mut ops = OpCounts::default();
        // Read from shard 1, write to shard 0.
        assert_eq!(tx.read(b, &mut ops).unwrap(), 3);
        tx.write(a, 1);
        // A foreign committer now holds shard 1: commit-time validation
        // of the read must bound its wait and abort with Timeout.
        assert!(clock.try_acquire(1, 0));
        assert_eq!(tx.commit(), Err(Abort::timeout()));
        assert_eq!(clock.load(0), 0, "write shard rolled back to even");
        clock.release(1, 0);
        // After the holder goes away the retry commits.
        tx.begin();
        tx.write(a, 1);
        tx.commit().unwrap();
        assert_eq!(heap.load(a), 1);
    }

    #[test]
    fn single_shard_degenerates_to_norec_times() {
        // One shard: every commit bumps the same word by 2, exactly the
        // NOrec global clock.
        let (heap, clock) = setup(1);
        let a = heap.alloc_padded(1);
        let b = heap.alloc_padded(1);
        commit_write(&heap, &clock, a, 1);
        commit_write(&heap, &clock, b, 2);
        assert_eq!(clock.load(0), 4);
    }
}
