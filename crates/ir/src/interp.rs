//! The transactional IR interpreter — our stand-in for GCC's code
//! generation plus libitm dispatch.
//!
//! Executing a [`Function`] models a thread running compiled code:
//!
//! * outside `tmbegin`/`tmend`, barriers degrade to direct heap
//!   accesses;
//! * an atomic region executes under [`Stm::atomic`]: the region body is
//!   re-run from its entry (with the registers captured at `tmbegin`) on
//!   every retry — exactly the abort-and-restart semantics of the GCC TM
//!   runtime;
//! * each barrier instruction performs **one** dispatch into the TM
//!   runtime. This is what makes the pass-driven 2→1 call reduction
//!   (`load`+`store` → `_ITM_SW`, `load`+`cmp` → `_ITM_S1R`) observable
//!   in the interpreter's dispatch counts, mirroring the paper's "GCC
//!   performs three indirect calls per TM call" overhead argument.
//!
//! The three Figure-2 configurations map to (pass?, algorithm):
//! unmodified GCC = no passes + NOrec; "NOrec Modified-GCC" = passes +
//! NOrec (builtins internally delegate to read/write); semantic = passes
//! + S-NOrec.

use crate::ir::{BlockId, Function, Inst, Operand};
use crate::lower::{LoweredFunction, Op};
use semtm_core::{Abort, Addr, Stm, Tx};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Why execution failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The per-call instruction budget was exhausted (runaway loop).
    StepLimit,
    /// `tmend` without a matching `tmbegin`.
    UnbalancedEnd,
    /// A block fell through without a terminator (validation should have
    /// caught this).
    FellThrough,
    /// An address operand was negative.
    BadAddress(i64),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::StepLimit => write!(f, "instruction budget exhausted"),
            ExecError::UnbalancedEnd => write!(f, "tmend outside an atomic region"),
            ExecError::FellThrough => write!(f, "block fell through"),
            ExecError::BadAddress(a) => write!(f, "negative heap address {a}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Cumulative dispatch counters (TM runtime calls issued), the
/// interpreter-level metric behind the call-reduction argument.
#[derive(Default)]
pub struct DispatchCounters {
    /// Barrier calls issued inside atomic regions.
    pub tm_calls: AtomicU64,
    /// Atomic regions entered (attempts, including retries).
    pub region_attempts: AtomicU64,
}

impl DispatchCounters {
    /// Barrier calls so far.
    pub fn tm_calls(&self) -> u64 {
        self.tm_calls.load(Ordering::Relaxed)
    }
    /// Region attempts so far.
    pub fn region_attempts(&self) -> u64 {
        self.region_attempts.load(Ordering::Relaxed)
    }
}

/// The interpreter. Cheap to construct; share one per thread or per
/// experiment (counters are atomic).
pub struct Interp<'a> {
    stm: &'a Stm,
    /// Dispatch statistics.
    pub counters: DispatchCounters,
    /// Instruction budget per `execute` call.
    pub step_limit: u64,
}

enum Flow {
    Continue,
    Jump(BlockId),
    Return(Option<i64>),
    RegionEnd,
}

impl<'a> Interp<'a> {
    /// Create an interpreter over `stm`.
    pub fn new(stm: &'a Stm) -> Interp<'a> {
        Interp {
            stm,
            counters: DispatchCounters::default(),
            step_limit: 10_000_000,
        }
    }

    fn addr(v: i64) -> Result<Addr, ExecError> {
        if v < 0 {
            Err(ExecError::BadAddress(v))
        } else {
            Ok(Addr::from_index(v as usize))
        }
    }

    /// Run `func` with `args`; returns the `ret` value.
    pub fn execute(&self, func: &Function, args: &[i64]) -> Result<Option<i64>, ExecError> {
        assert_eq!(args.len(), func.num_args as usize, "arity mismatch");
        let mut scratch = Registers::new(func.num_regs as usize, args);
        let (regs, entry_regs) = scratch.split();
        let mut steps = 0u64;
        let mut block: BlockId = 0;
        let mut idx = 0usize;
        loop {
            if idx >= func.blocks[block].insts.len() {
                return Err(ExecError::FellThrough);
            }
            let inst = &func.blocks[block].insts[idx];
            steps += 1;
            if steps > self.step_limit {
                return Err(ExecError::StepLimit);
            }
            if matches!(inst, Inst::TmBegin) {
                // Execute the region atomically; the body re-runs from
                // here on every retry with the captured registers.
                entry_regs.copy_from_slice(regs);
                let entry = (block, idx + 1);
                let mut meter = RegionMeter::default();
                // Retry loop with contention-manager backoff. Region-level
                // execution errors (step budget, structural problems) must
                // NOT commit partial effects, so they abort the attempt and
                // surface through `exec_err`.
                let mut backoff =
                    semtm_core::util::Backoff::new(semtm_core::util::thread_token(), 16, 4096);
                let mut attempt = 0u32;
                let (b, i) = loop {
                    let mut exec_err: Option<ExecError> = None;
                    let out = self.stm.try_atomic(|tx| {
                        self.counters
                            .region_attempts
                            .fetch_add(1, Ordering::Relaxed);
                        match self.run_region(func, tx, regs, entry.0, entry.1, &mut meter)? {
                            RegionExit::At(b, i) => Ok((b, i)),
                            RegionExit::Error(e) => {
                                exec_err = Some(e);
                                Err(Abort::explicit())
                            }
                        }
                    });
                    meter.flush_calls(&self.counters);
                    match out {
                        Ok(pos) => break pos,
                        Err(_) => {
                            if let Some(e) = exec_err {
                                return Err(e);
                            }
                            regs.copy_from_slice(entry_regs);
                            backoff.pause(attempt);
                            // Under the deterministic scheduler a retry is a
                            // futile wait (the rival must run for it to fare
                            // better) — same convention as `Stm::atomic`.
                            semtm_core::sched::spin();
                            attempt = attempt.saturating_add(1);
                        }
                    }
                };
                steps += meter.steps;
                if steps > self.step_limit {
                    return Err(ExecError::StepLimit);
                }
                block = b;
                idx = i;
                continue;
            }
            match self.step_nontx(inst, regs)? {
                Flow::Continue => idx += 1,
                Flow::Jump(b) => {
                    block = b;
                    idx = 0;
                }
                Flow::Return(v) => return Ok(v),
                Flow::RegionEnd => return Err(ExecError::UnbalancedEnd),
            }
        }
    }

    /// Execute one atomic region from (block, idx) to its matching
    /// `tmend`, issuing TM barriers through `tx`.
    fn run_region(
        &self,
        func: &Function,
        tx: &mut Tx<'_>,
        regs: &mut [i64],
        mut block: BlockId,
        mut idx: usize,
        meter: &mut RegionMeter,
    ) -> Result<RegionExit, Abort> {
        let mut depth = 1u32;
        loop {
            if idx >= func.blocks[block].insts.len() {
                return Ok(RegionExit::Error(ExecError::FellThrough));
            }
            meter.steps += 1;
            if meter.steps > self.step_limit {
                return Ok(RegionExit::Error(ExecError::StepLimit));
            }
            let inst = &func.blocks[block].insts[idx];
            match inst {
                Inst::TmBegin => {
                    // Flattened nesting, as in GCC's TM runtime.
                    depth += 1;
                    idx += 1;
                    continue;
                }
                Inst::TmEnd => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(RegionExit::At(block, idx + 1));
                    }
                    idx += 1;
                    continue;
                }
                _ => {}
            }
            match self.step_tx(inst, regs, tx, &mut meter.tm_calls)? {
                Flow::Continue => idx += 1,
                Flow::Jump(b) => {
                    block = b;
                    idx = 0;
                }
                Flow::Return(_) => {
                    return Ok(RegionExit::Error(ExecError::UnbalancedEnd));
                }
                Flow::RegionEnd => unreachable!(),
            }
        }
    }

    fn operand(regs: &[i64], o: Operand) -> i64 {
        match o {
            Operand::Reg(r) => regs[r as usize],
            Operand::Imm(v) => v,
        }
    }

    /// Pure (non-barrier) portion of the step logic shared by both modes.
    fn step_common(inst: &Inst, regs: &mut [i64]) -> Option<Flow> {
        let val = |o: Operand, regs: &[i64]| Self::operand(regs, o);
        match *inst {
            Inst::Mov { dst, src } => {
                regs[dst as usize] = val(src, regs);
            }
            Inst::Bin { op, dst, a, b } => {
                regs[dst as usize] = op.eval(val(a, regs), val(b, regs));
            }
            Inst::Cmp { op, dst, a, b } => {
                regs[dst as usize] = op.eval(val(a, regs), val(b, regs)) as i64;
            }
            Inst::Not { dst, src } => {
                regs[dst as usize] = (val(src, regs) == 0) as i64;
            }
            Inst::Br { target } => return Some(Flow::Jump(target)),
            Inst::CondBr {
                cond,
                then_to,
                else_to,
            } => {
                return Some(Flow::Jump(if val(cond, regs) != 0 {
                    then_to
                } else {
                    else_to
                }))
            }
            Inst::Ret { val: v } => return Some(Flow::Return(v.map(|o| val(o, regs)))),
            _ => return None, // barrier or region marker: caller handles
        }
        Some(Flow::Continue)
    }

    /// Non-transactional step (outside atomic regions): barriers act
    /// directly on the heap.
    fn step_nontx(&self, inst: &Inst, regs: &mut [i64]) -> Result<Flow, ExecError> {
        if let Some(flow) = Self::step_common(inst, regs) {
            return Ok(flow);
        }
        let val = |o: Operand, regs: &[i64]| Self::operand(regs, o);
        match *inst {
            Inst::TmLoad { dst, addr } => {
                regs[dst as usize] = self.stm.read_now(Self::addr(val(addr, regs))?);
            }
            Inst::TmStore { addr, val: v } => {
                self.stm
                    .write_now(Self::addr(val(addr, regs))?, val(v, regs));
            }
            Inst::TmCmpVal {
                op,
                dst,
                addr,
                val: v,
            } => {
                let lhs = self.stm.read_now(Self::addr(val(addr, regs))?);
                regs[dst as usize] = op.eval(lhs, val(v, regs)) as i64;
            }
            Inst::TmCmpAddr { op, dst, a, b } => {
                let lhs = self.stm.read_now(Self::addr(val(a, regs))?);
                let rhs = self.stm.read_now(Self::addr(val(b, regs))?);
                regs[dst as usize] = op.eval(lhs, rhs) as i64;
            }
            Inst::TmInc {
                addr,
                delta,
                negate,
            } => {
                let a = Self::addr(val(addr, regs))?;
                let d = val(delta, regs);
                let d = if negate { -d } else { d };
                self.stm.write_now(a, self.stm.read_now(a).wrapping_add(d));
            }
            Inst::TmEnd => return Ok(Flow::RegionEnd),
            _ => unreachable!("step_common covers the rest"),
        }
        Ok(Flow::Continue)
    }

    /// Transactional step: one TM-runtime dispatch per barrier.
    fn step_tx(
        &self,
        inst: &Inst,
        regs: &mut [i64],
        tx: &mut Tx<'_>,
        tm_calls: &mut u64,
    ) -> Result<Flow, Abort> {
        if let Some(flow) = Self::step_common(inst, regs) {
            return Ok(flow);
        }
        let val = |o: Operand, regs: &[i64]| Self::operand(regs, o);
        *tm_calls += 1;
        let bad = |_v: i64| Abort::explicit(); // negative address: treated as a failed attempt
        match *inst {
            Inst::TmLoad { dst, addr } => {
                let a = val(addr, regs);
                if a < 0 {
                    return Err(bad(a));
                }
                regs[dst as usize] = tx.read(Addr::from_index(a as usize))?;
            }
            Inst::TmStore { addr, val: v } => {
                let a = val(addr, regs);
                if a < 0 {
                    return Err(bad(a));
                }
                tx.write(Addr::from_index(a as usize), val(v, regs))?;
            }
            Inst::TmCmpVal {
                op,
                dst,
                addr,
                val: v,
            } => {
                let a = val(addr, regs);
                if a < 0 {
                    return Err(bad(a));
                }
                regs[dst as usize] = tx.cmp(Addr::from_index(a as usize), op, val(v, regs))? as i64;
            }
            Inst::TmCmpAddr { op, dst, a, b } => {
                let av = val(a, regs);
                let bv = val(b, regs);
                if av < 0 || bv < 0 {
                    return Err(bad(av.min(bv)));
                }
                regs[dst as usize] = tx.cmp_addr(
                    Addr::from_index(av as usize),
                    op,
                    Addr::from_index(bv as usize),
                )? as i64;
            }
            Inst::TmInc {
                addr,
                delta,
                negate,
            } => {
                let a = val(addr, regs);
                if a < 0 {
                    return Err(bad(a));
                }
                let d = val(delta, regs);
                tx.inc(Addr::from_index(a as usize), if negate { -d } else { d })?;
            }
            _ => unreachable!("TmBegin/TmEnd handled by run_region"),
        }
        Ok(Flow::Continue)
    }
}

thread_local! {
    /// Register scratch recycled across the calls of one thread (see
    /// [`Registers`]).
    static REG_SCRATCH: Cell<Vec<i64>> = const { Cell::new(Vec::new()) };
}

/// Most registers' worth of scratch a thread keeps between calls; a
/// larger file goes back to the allocator when its call returns.
const RETAINED_REGS: usize = 4096;

/// One call's register file followed by the copy captured at `tmbegin`,
/// on the thread's recycled scratch (given back on drop). A call made
/// while another is live on the thread finds the scratch taken and
/// allocates its own.
struct Registers {
    buf: Vec<i64>,
    num_regs: usize,
}

impl Registers {
    fn new(num_regs: usize, args: &[i64]) -> Registers {
        let mut buf = REG_SCRATCH.try_with(Cell::take).unwrap_or_default();
        buf.clear();
        buf.resize(2 * num_regs, 0);
        buf[..args.len()].copy_from_slice(args);
        Registers { buf, num_regs }
    }

    /// The live registers and the region-entry copy.
    fn split(&mut self) -> (&mut [i64], &mut [i64]) {
        self.buf.split_at_mut(self.num_regs)
    }
}

impl Drop for Registers {
    fn drop(&mut self) {
        if self.buf.capacity() <= RETAINED_REGS {
            let buf = std::mem::take(&mut self.buf);
            // Fails only while the thread is being torn down.
            let _ = REG_SCRATCH.try_with(|slot| slot.set(buf));
        }
    }
}

/// Work inside one atomic region: instructions stepped over all its
/// attempts (charged to the call's step budget) and the barrier calls of
/// the current attempt, counted locally and flushed into
/// [`DispatchCounters`] once per attempt.
#[derive(Default)]
struct RegionMeter {
    steps: u64,
    tm_calls: u64,
}

impl RegionMeter {
    fn flush_calls(&mut self, counters: &DispatchCounters) {
        counters
            .tm_calls
            .fetch_add(std::mem::take(&mut self.tm_calls), Ordering::Relaxed);
    }
}

enum RegionExit {
    At(BlockId, usize),
    Error(ExecError),
}

enum LoweredExit {
    At(usize),
    Error(ExecError),
}

impl<'a> Interp<'a> {
    /// Run a pre-lowered `func` with `args` — the threaded-dispatch
    /// twin of [`Interp::execute`].
    ///
    /// Observationally identical to executing the source function (same
    /// return value, same heap effects, same barrier dispatches — the
    /// differential oracle checks all three on every backend), but each
    /// step is one pc-indexed op fetch and one match: no
    /// `blocks[block].insts[idx]` double indirection, no end-of-block
    /// test, and an atomic-region retry resets a single pc. This is the
    /// execution mode the Figure-2 "GCC" experiments use, so the
    /// interpreter tax they measure is dispatch into the TM runtime,
    /// not tree-walking overhead.
    pub fn execute_lowered(
        &self,
        func: &LoweredFunction,
        args: &[i64],
    ) -> Result<Option<i64>, ExecError> {
        assert_eq!(args.len(), func.num_args as usize, "arity mismatch");
        let mut scratch = Registers::new(func.num_regs as usize, args);
        let (regs, entry_regs) = scratch.split();
        let mut steps = 0u64;
        let mut pc = 0usize;
        let val = |o: Operand, regs: &[i64]| Self::operand(regs, o);
        loop {
            let Some(op) = func.ops.get(pc) else {
                return Err(ExecError::FellThrough);
            };
            steps += 1;
            if steps > self.step_limit {
                return Err(ExecError::StepLimit);
            }
            if matches!(op, Op::TmBegin) {
                // Same retry protocol as `execute`: the region re-runs
                // from its entry pc with the registers captured at
                // `tmbegin`, under contention-manager backoff.
                entry_regs.copy_from_slice(regs);
                let entry_pc = pc + 1;
                let mut meter = RegionMeter::default();
                let mut backoff =
                    semtm_core::util::Backoff::new(semtm_core::util::thread_token(), 16, 4096);
                let mut attempt = 0u32;
                let next_pc = loop {
                    let mut exec_err: Option<ExecError> = None;
                    let out = self.stm.try_atomic(|tx| {
                        self.counters
                            .region_attempts
                            .fetch_add(1, Ordering::Relaxed);
                        match self.run_region_lowered(func, tx, regs, entry_pc, &mut meter)? {
                            LoweredExit::At(p) => Ok(p),
                            LoweredExit::Error(e) => {
                                exec_err = Some(e);
                                Err(Abort::explicit())
                            }
                        }
                    });
                    meter.flush_calls(&self.counters);
                    match out {
                        Ok(p) => break p,
                        Err(_) => {
                            if let Some(e) = exec_err {
                                return Err(e);
                            }
                            regs.copy_from_slice(entry_regs);
                            backoff.pause(attempt);
                            semtm_core::sched::spin();
                            attempt = attempt.saturating_add(1);
                        }
                    }
                };
                steps += meter.steps;
                if steps > self.step_limit {
                    return Err(ExecError::StepLimit);
                }
                pc = next_pc;
                continue;
            }
            match *op {
                Op::Mov { dst, src } => regs[dst as usize] = val(src, regs),
                Op::Bin { op, dst, a, b } => {
                    regs[dst as usize] = op.eval(val(a, regs), val(b, regs));
                }
                Op::Cmp { op, dst, a, b } => {
                    regs[dst as usize] = op.eval(val(a, regs), val(b, regs)) as i64;
                }
                Op::Not { dst, src } => regs[dst as usize] = (val(src, regs) == 0) as i64,
                Op::TmLoad { dst, addr } => {
                    regs[dst as usize] = self.stm.read_now(Self::addr(val(addr, regs))?);
                }
                Op::TmStore { addr, val: v } => {
                    self.stm
                        .write_now(Self::addr(val(addr, regs))?, val(v, regs));
                }
                Op::TmCmpVal {
                    op,
                    dst,
                    addr,
                    val: v,
                } => {
                    let lhs = self.stm.read_now(Self::addr(val(addr, regs))?);
                    regs[dst as usize] = op.eval(lhs, val(v, regs)) as i64;
                }
                Op::TmCmpAddr { op, dst, a, b } => {
                    let lhs = self.stm.read_now(Self::addr(val(a, regs))?);
                    let rhs = self.stm.read_now(Self::addr(val(b, regs))?);
                    regs[dst as usize] = op.eval(lhs, rhs) as i64;
                }
                Op::TmInc {
                    addr,
                    delta,
                    negate,
                } => {
                    let a = Self::addr(val(addr, regs))?;
                    let d = val(delta, regs);
                    let d = if negate { -d } else { d };
                    self.stm.write_now(a, self.stm.read_now(a).wrapping_add(d));
                }
                Op::Jump { pc: target } => {
                    pc = target;
                    continue;
                }
                Op::JumpIf {
                    cond,
                    then_pc,
                    else_pc,
                } => {
                    pc = if val(cond, regs) != 0 {
                        then_pc
                    } else {
                        else_pc
                    };
                    continue;
                }
                Op::Ret { val: v } => return Ok(v.map(|o| val(o, regs))),
                Op::TmEnd => return Err(ExecError::UnbalancedEnd),
                Op::TmBegin => unreachable!("handled above"),
            }
            pc += 1;
        }
    }

    /// Execute one atomic region of a lowered function from `pc` to its
    /// matching `tmend`, issuing TM barriers through `tx`.
    fn run_region_lowered(
        &self,
        func: &LoweredFunction,
        tx: &mut Tx<'_>,
        regs: &mut [i64],
        mut pc: usize,
        meter: &mut RegionMeter,
    ) -> Result<LoweredExit, Abort> {
        let mut depth = 1u32;
        let val = |o: Operand, regs: &[i64]| Self::operand(regs, o);
        let addr_of = |v: i64| -> Result<Addr, Abort> {
            if v < 0 {
                // Negative address: treated as a failed attempt, same as
                // the tree-walker's transactional step.
                Err(Abort::explicit())
            } else {
                Ok(Addr::from_index(v as usize))
            }
        };
        loop {
            let Some(op) = func.ops.get(pc) else {
                return Ok(LoweredExit::Error(ExecError::FellThrough));
            };
            meter.steps += 1;
            if meter.steps > self.step_limit {
                return Ok(LoweredExit::Error(ExecError::StepLimit));
            }
            match *op {
                Op::TmBegin => {
                    // Flattened nesting, as in GCC's TM runtime.
                    depth += 1;
                }
                Op::TmEnd => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(LoweredExit::At(pc + 1));
                    }
                }
                Op::Mov { dst, src } => regs[dst as usize] = val(src, regs),
                Op::Bin { op, dst, a, b } => {
                    regs[dst as usize] = op.eval(val(a, regs), val(b, regs));
                }
                Op::Cmp { op, dst, a, b } => {
                    regs[dst as usize] = op.eval(val(a, regs), val(b, regs)) as i64;
                }
                Op::Not { dst, src } => regs[dst as usize] = (val(src, regs) == 0) as i64,
                Op::TmLoad { dst, addr } => {
                    meter.tm_calls += 1;
                    regs[dst as usize] = tx.read(addr_of(val(addr, regs))?)?;
                }
                Op::TmStore { addr, val: v } => {
                    meter.tm_calls += 1;
                    tx.write(addr_of(val(addr, regs))?, val(v, regs))?;
                }
                Op::TmCmpVal {
                    op,
                    dst,
                    addr,
                    val: v,
                } => {
                    meter.tm_calls += 1;
                    regs[dst as usize] =
                        tx.cmp(addr_of(val(addr, regs))?, op, val(v, regs))? as i64;
                }
                Op::TmCmpAddr { op, dst, a, b } => {
                    meter.tm_calls += 1;
                    regs[dst as usize] =
                        tx.cmp_addr(addr_of(val(a, regs))?, op, addr_of(val(b, regs))?)? as i64;
                }
                Op::TmInc {
                    addr,
                    delta,
                    negate,
                } => {
                    meter.tm_calls += 1;
                    let d = val(delta, regs);
                    tx.inc(addr_of(val(addr, regs))?, if negate { -d } else { d })?;
                }
                Op::Jump { pc: target } => {
                    pc = target;
                    continue;
                }
                Op::JumpIf {
                    cond,
                    then_pc,
                    else_pc,
                } => {
                    pc = if val(cond, regs) != 0 {
                        then_pc
                    } else {
                        else_pc
                    };
                    continue;
                }
                Op::Ret { .. } => {
                    return Ok(LoweredExit::Error(ExecError::UnbalancedEnd));
                }
            }
            pc += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BinOp, FunctionBuilder, Inst, Operand};
    use crate::passes::run_tm_passes;
    use semtm_core::{Algorithm, CmpOp, StmConfig};

    fn stm(alg: Algorithm) -> Stm {
        Stm::new(StmConfig::new(alg).heap_words(1 << 12).orec_count(1 << 8))
    }

    /// `fn inc_if_positive(addr) { atomic { if *addr > 0 { *addr = *addr + 1 } } ret *addr }`
    fn inc_if_positive() -> crate::ir::Function {
        let mut fb = FunctionBuilder::new("inc_if_positive", 1);
        let v = fb.reg();
        let c = fb.reg();
        let v2 = fb.reg();
        let s = fb.reg();
        let out = fb.reg();
        let then_b = fb.block("then");
        let join = fb.block("join");
        fb.switch_to(0);
        fb.push(Inst::TmBegin);
        fb.push(Inst::TmLoad {
            dst: v,
            addr: Operand::Reg(0),
        });
        fb.push(Inst::Cmp {
            op: CmpOp::Gt,
            dst: c,
            a: Operand::Reg(v),
            b: Operand::Imm(0),
        });
        fb.push(Inst::CondBr {
            cond: Operand::Reg(c),
            then_to: then_b,
            else_to: join,
        });
        fb.switch_to(then_b);
        fb.push(Inst::TmLoad {
            dst: v2,
            addr: Operand::Reg(0),
        });
        fb.push(Inst::Bin {
            op: BinOp::Add,
            dst: s,
            a: Operand::Reg(v2),
            b: Operand::Imm(1),
        });
        fb.push(Inst::TmStore {
            addr: Operand::Reg(0),
            val: Operand::Reg(s),
        });
        fb.push(Inst::Br { target: join });
        fb.switch_to(join);
        fb.push(Inst::TmEnd);
        fb.push(Inst::TmLoad {
            dst: out,
            addr: Operand::Reg(0),
        });
        fb.push(Inst::Ret {
            val: Some(Operand::Reg(out)),
        });
        fb.build()
    }

    #[test]
    fn executes_region_and_returns() {
        let s = stm(Algorithm::SNOrec);
        let x = s.alloc_cell(5i64);
        let interp = Interp::new(&s);
        let f = inc_if_positive();
        let out = interp.execute(&f, &[x.index() as i64]).unwrap();
        assert_eq!(out, Some(6));
        assert_eq!(s.read_now(x), 6);
    }

    #[test]
    fn negative_guard_skips_increment() {
        let s = stm(Algorithm::SNOrec);
        let x = s.alloc_cell(-3i64);
        let interp = Interp::new(&s);
        let f = inc_if_positive();
        let out = interp.execute(&f, &[x.index() as i64]).unwrap();
        assert_eq!(out, Some(-3));
    }

    #[test]
    fn passes_preserve_program_semantics() {
        for alg in Algorithm::ALL {
            let s = stm(alg);
            let x = s.alloc_cell(5i64);
            let interp = Interp::new(&s);
            let mut f = inc_if_positive();
            let report = run_tm_passes(&mut f);
            assert!(report.s1r >= 1);
            assert_eq!(report.sw, 1);
            let out = interp.execute(&f, &[x.index() as i64]).unwrap();
            assert_eq!(out, Some(6), "{alg}");
            assert_eq!(s.read_now(x), 6, "{alg}");
        }
    }

    #[test]
    fn pass_reduces_tm_dispatches() {
        let s = stm(Algorithm::NOrec);
        let x = s.alloc_cell(5i64);

        let plain = inc_if_positive();
        let interp = Interp::new(&s);
        interp.execute(&plain, &[x.index() as i64]).unwrap();
        let plain_calls = interp.counters.tm_calls();

        s.write_now(x, 5);
        let mut passed = inc_if_positive();
        run_tm_passes(&mut passed);
        let interp2 = Interp::new(&s);
        interp2.execute(&passed, &[x.index() as i64]).unwrap();
        let passed_calls = interp2.counters.tm_calls();

        assert!(
            passed_calls < plain_calls,
            "modified-GCC dispatch count {passed_calls} must undercut {plain_calls}"
        );
    }

    #[test]
    fn step_limit_catches_infinite_loops() {
        let mut fb = FunctionBuilder::new("spin", 0);
        fb.push(Inst::Br { target: 0 });
        let f = fb.build();
        let s = stm(Algorithm::NOrec);
        let mut interp = Interp::new(&s);
        interp.step_limit = 1000;
        assert_eq!(interp.execute(&f, &[]), Err(ExecError::StepLimit));
    }

    #[test]
    fn unbalanced_tmend_reports_error() {
        let mut fb = FunctionBuilder::new("bad", 0);
        fb.push(Inst::TmEnd);
        fb.push(Inst::Ret { val: None });
        let f = fb.build();
        let s = stm(Algorithm::NOrec);
        let interp = Interp::new(&s);
        assert_eq!(interp.execute(&f, &[]), Err(ExecError::UnbalancedEnd));
    }

    #[test]
    fn spans_level_records_one_span_per_region_attempt() {
        // Regions run through `Stm::try_atomic`, which must feed the
        // flight recorder and the histograms like `Stm::atomic` does.
        let f = inc_if_positive();
        let lowered = crate::lower::lower(&f).unwrap();
        for tree in [true, false] {
            let stm = Stm::new(
                StmConfig::new(Algorithm::SNOrec)
                    .heap_words(64)
                    .telemetry(semtm_core::TelemetryLevel::Spans),
            );
            let x = stm.alloc_cell(1i64);
            let args = [x.index() as i64];
            let attempts: u64 = std::thread::scope(|s| {
                let workers: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            let interp = Interp::new(&stm);
                            for _ in 0..50 {
                                if tree {
                                    interp.execute(&f, &args).unwrap();
                                } else {
                                    interp.execute_lowered(&lowered, &args).unwrap();
                                }
                            }
                            interp.counters.region_attempts()
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).sum()
            });
            let spans = stm.telemetry().span_events();
            assert_eq!(stm.telemetry().spans_evicted(), 0);
            assert_eq!(spans.len() as u64, attempts, "tree={tree}");
            assert_eq!(stm.stats().attempts(), attempts, "tree={tree}");
            assert_eq!(spans.iter().filter(|e| e.committed()).count(), 100);
            assert_eq!(stm.telemetry().commit_latency_ns().count(), 100);
            assert_eq!(stm.read_now(x), 101);
        }
    }

    #[test]
    fn lowered_execution_matches_tree_walker() {
        for alg in Algorithm::ALL {
            for passes in [false, true] {
                let mut f = inc_if_positive();
                if passes {
                    run_tm_passes(&mut f);
                }
                let lowered = crate::lower::lower(&f).unwrap();

                let s_tree = stm(alg);
                let x_tree = s_tree.alloc_cell(5i64);
                let tree = Interp::new(&s_tree);
                let tree_out = tree.execute(&f, &[x_tree.index() as i64]).unwrap();

                let s_flat = stm(alg);
                let x_flat = s_flat.alloc_cell(5i64);
                let flat = Interp::new(&s_flat);
                let flat_out = flat
                    .execute_lowered(&lowered, &[x_flat.index() as i64])
                    .unwrap();

                assert_eq!(tree_out, flat_out, "{alg} passes={passes}");
                assert_eq!(
                    s_tree.read_now(x_tree),
                    s_flat.read_now(x_flat),
                    "{alg} passes={passes}"
                );
                // Dispatch accounting must be identical too: lowering
                // changes how ops are fetched, never how many barriers
                // are issued.
                assert_eq!(
                    tree.counters.tm_calls(),
                    flat.counters.tm_calls(),
                    "{alg} passes={passes}"
                );
                assert_eq!(
                    tree.counters.region_attempts(),
                    flat.counters.region_attempts(),
                    "{alg} passes={passes}"
                );
            }
        }
    }

    #[test]
    fn lowered_step_limit_catches_infinite_loops() {
        let mut fb = FunctionBuilder::new("spin", 0);
        fb.push(Inst::Br { target: 0 });
        let lowered = crate::lower::lower(&fb.build()).unwrap();
        let s = stm(Algorithm::NOrec);
        let mut interp = Interp::new(&s);
        interp.step_limit = 1000;
        assert_eq!(
            interp.execute_lowered(&lowered, &[]),
            Err(ExecError::StepLimit)
        );
    }

    #[test]
    fn lowered_unbalanced_tmend_reports_error() {
        let mut fb = FunctionBuilder::new("bad", 0);
        fb.push(Inst::TmEnd);
        fb.push(Inst::Ret { val: None });
        let lowered = crate::lower::lower(&fb.build()).unwrap();
        let s = stm(Algorithm::NOrec);
        let interp = Interp::new(&s);
        assert_eq!(
            interp.execute_lowered(&lowered, &[]),
            Err(ExecError::UnbalancedEnd)
        );
    }

    #[test]
    fn lowered_concurrent_increments_are_atomic() {
        let s = stm(Algorithm::SNOrec);
        let x = s.alloc_cell(1i64);
        let mut f = inc_if_positive();
        run_tm_passes(&mut f);
        let lowered = crate::lower::lower(&f).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = &s;
                let lowered = &lowered;
                scope.spawn(move || {
                    let interp = Interp::new(s);
                    for _ in 0..100 {
                        interp
                            .execute_lowered(lowered, &[x.index() as i64])
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(s.read_now(x), 1 + 400);
    }

    #[test]
    fn concurrent_ir_increments_are_atomic() {
        let s = stm(Algorithm::SNOrec);
        let x = s.alloc_cell(1i64); // positive so every guard passes
        let mut f = inc_if_positive();
        run_tm_passes(&mut f);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = &s;
                let f = &f;
                scope.spawn(move || {
                    let interp = Interp::new(s);
                    for _ in 0..100 {
                        interp.execute(f, &[x.index() as i64]).unwrap();
                    }
                });
            }
        });
        assert_eq!(s.read_now(x), 1 + 400);
    }
}
