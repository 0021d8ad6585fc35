//! The functional executor: architectural state and instruction semantics.
//!
//! [`Cpu`] executes one instruction per [`step`](Cpu::step) against a
//! [`Bus`]. It is purely *functional* — cycle timing is layered on by
//! `firesim-uarch`, which inspects the [`StepOutcome`] (instruction class,
//! memory access, control flow) to charge cycles.

use crate::csr::CsrFile;
use crate::decode::decode;
use crate::icache::DecodeCache;
use crate::inst::{AluOp, AmoOp, BranchCond, CsrOp, CsrSrc, Inst, MulDivOp};
use crate::mem::{Bus, MemFault};

/// Exception causes (`mcause` values without the interrupt bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Trap {
    /// Instruction address misaligned (cause 0).
    InstMisaligned,
    /// Instruction access fault (cause 1).
    InstAccessFault,
    /// Illegal instruction (cause 2).
    IllegalInst,
    /// Breakpoint (cause 3).
    Breakpoint,
    /// Load access fault (cause 5).
    LoadAccessFault,
    /// Store/AMO access fault (cause 7).
    StoreAccessFault,
    /// Environment call from M-mode (cause 11).
    EcallM,
}

impl Trap {
    /// The `mcause` exception code.
    pub fn cause(self) -> u64 {
        match self {
            Trap::InstMisaligned => 0,
            Trap::InstAccessFault => 1,
            Trap::IllegalInst => 2,
            Trap::Breakpoint => 3,
            Trap::LoadAccessFault => 5,
            Trap::StoreAccessFault => 7,
            Trap::EcallM => 11,
        }
    }
}

/// A memory access performed by a retired instruction, for the timing
/// model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Physical address.
    pub addr: u64,
    /// Access size in bytes.
    pub size: usize,
    /// True for stores and AMOs.
    pub is_store: bool,
    /// True for AMOs and LR/SC (read-modify-write traffic).
    pub is_amo: bool,
}

/// What happened during one [`Cpu::step`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// An instruction retired normally.
    Retired {
        /// PC of the retired instruction.
        pc: u64,
        /// The instruction.
        inst: Inst,
        /// PC of the next instruction.
        next_pc: u64,
        /// True when a conditional branch was taken.
        taken_branch: bool,
        /// Memory access performed, if any.
        mem: Option<MemAccess>,
    },
    /// A trap (exception or interrupt) redirected the PC to the handler.
    Trapped {
        /// The `mcause` value (interrupt bit included for interrupts).
        cause: u64,
        /// The handler address now in PC.
        handler: u64,
    },
    /// The core is parked in WFI with no enabled interrupt pending; the PC
    /// did not advance.
    Wfi,
}

/// Why a superblock dispatch ([`Cpu::run_cached`]) stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockStop {
    /// The instruction budget ran out mid-run (e.g. a token-window
    /// boundary); the core is ready to continue.
    Budget,
    /// A trap (exception or interrupt) redirected the PC to the handler.
    Trapped,
    /// The core parked in WFI with no enabled interrupt pending.
    Wfi,
}

/// Result of one superblock dispatch ([`Cpu::run_cached`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSummary {
    /// Instructions retired during the block (traps retire nothing).
    pub retired: u64,
    /// Why the block ended.
    pub stopped: BlockStop,
}

/// Timing verdict for one instruction retired inside
/// [`Cpu::run_timed`], returned by its cost callback.
#[derive(Debug, Clone, Copy)]
pub struct TimedStep {
    /// Stall cycles beyond the issue cycle (i.e. `cost - 1`).
    pub extra: u64,
    /// End the dispatch right after this instruction's issue cycle; the
    /// stall is handed back *unfolded* in [`TimedSummary::stall`].
    pub stop: bool,
    /// Nonzero: memoize this value into the decode-cache slot serving
    /// the instruction (the timing layer's static-cost annotation).
    pub annot: u16,
}

/// Why [`Cpu::run_timed`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimedStop {
    /// The cycle budget ran out; the core is ready to continue.
    Budget,
    /// The cost callback requested a stop ([`TimedStep::stop`]).
    Device,
    /// The core parked in WFI; the parking cycle is counted.
    Wfi,
}

/// Result of one [`Cpu::run_timed`] dispatch.
#[derive(Debug, Clone, Copy)]
pub struct TimedSummary {
    /// Target cycles consumed (`<= budget`).
    pub cycles: u64,
    /// Residual stall for the caller to carry into its stall state —
    /// nonzero when the budget ran out mid-stall or a stop left the
    /// offending instruction's stall unserved.
    pub stall: u64,
    /// Why the run ended.
    pub stopped: TimedStop,
}

/// What a hot run ([`Cpu::hot_run`]) counts against its budget and
/// hands back. The one superblock loop is generic over it, so it
/// monomorphises into [`Cpu::run_cached`] (instructions) and
/// [`Cpu::run_timed`] (cycles). A method returning `Some` ends the run
/// with that summary.
trait Accounting {
    type Summary;
    /// True while the budget admits another issue.
    fn has_budget(&self) -> bool;
    /// An issue begins, before the interrupt poll.
    fn issue(&mut self, csrs: &mut CsrFile);
    /// The instruction at `pc` retired; `annot` is the annotation of the
    /// decode-cache slot that served it (0 when none did).
    #[allow(clippy::too_many_arguments)]
    fn retire<B: Bus>(
        &mut self,
        bus: &mut B,
        csrs: &mut CsrFile,
        cache: &mut DecodeCache,
        pc: u64,
        inst: &Inst,
        annot: u16,
        taken_branch: bool,
        mem: Option<&MemAccess>,
    ) -> Option<Self::Summary>;
    /// A trap (exception or polled interrupt) redirected the PC.
    fn trap<B: Bus>(&mut self, bus: &mut B, csrs: &mut CsrFile) -> Option<Self::Summary>;
    /// The run ends: the core parked in WFI, or the budget ran out.
    fn finish<B: Bus>(&mut self, bus: &mut B, wfi: bool) -> Self::Summary;
}

/// [`Cpu::run_cached`]'s accounting: an instruction budget; a trap or a
/// WFI ends the run.
struct Counted {
    retired: u64,
    max_insts: u64,
}

impl Accounting for Counted {
    type Summary = BlockSummary;

    #[inline(always)]
    fn has_budget(&self) -> bool {
        self.retired < self.max_insts
    }

    #[inline(always)]
    fn issue(&mut self, _: &mut CsrFile) {}

    #[inline(always)]
    fn retire<B: Bus>(
        &mut self,
        _: &mut B,
        _: &mut CsrFile,
        _: &mut DecodeCache,
        _: u64,
        _: &Inst,
        _: u16,
        _: bool,
        _: Option<&MemAccess>,
    ) -> Option<BlockSummary> {
        self.retired += 1;
        None
    }

    #[inline(always)]
    fn trap<B: Bus>(&mut self, _: &mut B, _: &mut CsrFile) -> Option<BlockSummary> {
        Some(BlockSummary {
            retired: self.retired,
            stopped: BlockStop::Trapped,
        })
    }

    #[inline(always)]
    fn finish<B: Bus>(&mut self, _: &mut B, wfi: bool) -> BlockSummary {
        BlockSummary {
            retired: self.retired,
            stopped: if wfi {
                BlockStop::Wfi
            } else {
                BlockStop::Budget
            },
        }
    }
}

/// [`Cpu::run_timed`]'s accounting: a cycle budget, `mcycle` bumped per
/// issue, each retire charged through `cost_of` and each trap
/// `1 + trap_extra` cycles; a trap does not end the run.
struct Clocked<F> {
    cycles: u64,
    budget: u64,
    trap_extra: u64,
    cost_of: F,
}

impl<F> Clocked<F> {
    /// Closes an issue cycle, then serves `extra` stall cycles exactly as
    /// a per-cycle caller would: folded into this run as one contiguous
    /// gap the bus observes, `mcycle` advancing with it. A `stop` hands
    /// the whole stall back unfolded; stall beyond the budget is handed
    /// back for the caller to carry.
    #[inline(always)]
    fn end_issue<B: Bus>(
        &mut self,
        bus: &mut B,
        csrs: &mut CsrFile,
        extra: u64,
        stop: bool,
    ) -> Option<TimedSummary> {
        self.cycles += 1;
        bus.elapse_timing_cycles(1);
        if stop {
            return Some(TimedSummary {
                cycles: self.cycles,
                stall: extra,
                stopped: TimedStop::Device,
            });
        }
        let fold = extra.min(self.budget - self.cycles);
        if fold > 0 {
            csrs.mcycle = csrs.mcycle.wrapping_add(fold);
            self.cycles += fold;
            bus.elapse_timing_cycles(fold);
        }
        (fold < extra).then_some(TimedSummary {
            cycles: self.cycles,
            stall: extra - fold,
            stopped: TimedStop::Budget,
        })
    }
}

impl<F> Accounting for Clocked<F>
where
    F: FnMut(u64, &Inst, u16, bool, Option<&MemAccess>, u64) -> TimedStep,
{
    type Summary = TimedSummary;

    #[inline(always)]
    fn has_budget(&self) -> bool {
        self.cycles < self.budget
    }

    #[inline(always)]
    fn issue(&mut self, csrs: &mut CsrFile) {
        csrs.mcycle = csrs.mcycle.wrapping_add(1);
    }

    #[inline(always)]
    fn retire<B: Bus>(
        &mut self,
        bus: &mut B,
        csrs: &mut CsrFile,
        cache: &mut DecodeCache,
        pc: u64,
        inst: &Inst,
        annot: u16,
        taken_branch: bool,
        mem: Option<&MemAccess>,
    ) -> Option<TimedSummary> {
        let step = (self.cost_of)(pc, inst, annot, taken_branch, mem, self.cycles);
        if step.annot != 0 {
            cache.set_annotation(pc, step.annot);
        }
        self.end_issue(bus, csrs, step.extra, step.stop)
    }

    #[inline(always)]
    fn trap<B: Bus>(&mut self, bus: &mut B, csrs: &mut CsrFile) -> Option<TimedSummary> {
        self.end_issue(bus, csrs, self.trap_extra, false)
    }

    #[inline(always)]
    fn finish<B: Bus>(&mut self, bus: &mut B, wfi: bool) -> TimedSummary {
        if wfi {
            // The parking cycle counts.
            self.cycles += 1;
            bus.elapse_timing_cycles(1);
        }
        TimedSummary {
            cycles: self.cycles,
            stall: 0,
            stopped: if wfi {
                TimedStop::Wfi
            } else {
                TimedStop::Budget
            },
        }
    }
}

/// What [`Cpu::execute_hot`] did with one decode-cache-served instruction.
enum Hot {
    /// Retired through the fast-path PC update.
    Retired {
        taken_branch: bool,
        mem: Option<MemAccess>,
    },
    /// A load or store faulted; the trap has been taken.
    Trapped,
    /// Not a hot instruction: nothing was applied.
    Cold,
}

/// Architectural state of one RV64IMA hart.
#[derive(Debug, Clone)]
pub struct Cpu {
    regs: [u64; 32],
    pc: u64,
    /// Machine-mode CSRs (public for platform wiring: interrupt lines,
    /// timer, counters).
    pub csrs: CsrFile,
    reservation: Option<u64>,
}

impl Cpu {
    /// Creates a hart with the given id, starting at `reset_pc`.
    pub fn new(hartid: u64, reset_pc: u64) -> Self {
        Cpu {
            regs: [0; 32],
            pc: reset_pc,
            csrs: CsrFile::new(hartid),
            reservation: None,
        }
    }

    /// Current program counter.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Overrides the program counter (used by loaders and tests).
    pub fn set_pc(&mut self, pc: u64) {
        self.pc = pc;
    }

    /// Reads register `x{idx}` (x0 is always zero).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 32`.
    pub fn read_reg(&self, idx: u8) -> u64 {
        self.regs[usize::from(idx)]
    }

    /// Writes register `x{idx}` (writes to x0 are ignored).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 32`.
    pub fn write_reg(&mut self, idx: u8, value: u64) {
        if idx != 0 {
            self.regs[usize::from(idx)] = value;
        }
    }

    /// Invalidates this hart's LR/SC reservation if it covers `addr`
    /// (called by the SoC when another hart stores to the line).
    pub fn clobber_reservation(&mut self, addr: u64) {
        if let Some(r) = self.reservation {
            // Reservation granularity: one 64-byte line.
            if r & !63 == addr & !63 {
                self.reservation = None;
            }
        }
    }

    /// True when the hart currently holds an LR reservation.
    pub fn has_reservation(&self) -> bool {
        self.reservation.is_some()
    }

    fn trap(&mut self, trap: Trap, tval: u64) -> StepOutcome {
        let cause = trap.cause();
        let handler = self.csrs.trap_enter(self.pc, cause, tval);
        self.pc = handler;
        self.reservation = None;
        StepOutcome::Trapped { cause, handler }
    }

    /// Executes one instruction (or takes one trap / parks in WFI).
    ///
    /// # Errors
    ///
    /// Never returns `Err` in the current implementation; the signature
    /// reserves room for co-simulation backends that can fail at the host
    /// level. All *architectural* failures become traps in the outcome.
    pub fn step<B: Bus>(&mut self, bus: &mut B) -> Result<StepOutcome, MemFault> {
        // 1. Interrupts, highest priority first.
        if let Some(line) = self.csrs.pending_interrupt() {
            let cause = line.cause();
            let handler = self.csrs.trap_enter(self.pc, cause, 0);
            self.pc = handler;
            return Ok(StepOutcome::Trapped { cause, handler });
        }

        Ok(self.fetch_decode_execute(bus))
    }

    /// Like [`step`](Self::step), but serves fetch + decode from a
    /// host-side [`DecodeCache`] and chains straight-line runs through
    /// its superblock cursor. Architecturally indistinguishable from
    /// `step`: interrupts are polled before every instruction, every
    /// trap goes through the interpreter path, and cache staleness is
    /// impossible by the generation argument in the
    /// [`icache`](crate::icache) module docs.
    ///
    /// # Errors
    ///
    /// Never returns `Err`, exactly as [`step`](Self::step).
    #[inline]
    pub fn step_cached<B: Bus>(
        &mut self,
        bus: &mut B,
        cache: &mut DecodeCache,
    ) -> Result<StepOutcome, MemFault> {
        // 1. Interrupts — polled every instruction, exactly like `step`.
        if let Some(line) = self.csrs.pending_interrupt() {
            let cause = line.cause();
            let handler = self.csrs.trap_enter(self.pc, cause, 0);
            self.pc = handler;
            cache.end_superblock();
            return Ok(StepOutcome::Trapped { cause, handler });
        }

        // 2+3. Fetch + decode through the cache; anything the cache
        // cannot serve (misaligned PC, MMIO fetch, fault, illegal word)
        // re-runs the interpreter path so trap logic stays in one place.
        let pc = self.pc;
        let outcome = if pc.is_multiple_of(4) {
            match cache.lookup(pc, bus) {
                Some((word, inst, _)) => self.execute(pc, word, inst, bus),
                None => {
                    cache.end_superblock();
                    self.fetch_decode_execute(bus)
                }
            }
        } else {
            cache.end_superblock();
            self.fetch_decode_execute(bus)
        };

        // 4. Superblock bookkeeping on the *architectural* outcome, so
        // it is identical whichever path produced it.
        Self::superblock_bookkeeping(cache, pc, &outcome);
        Ok(outcome)
    }

    /// Updates the superblock cursor after one instruction: the cursor
    /// survives only a fall-through retire onto the same page; a `FENCE.I`
    /// flushes the whole cache; anything else (taken branch, jump, trap,
    /// WFI) ends the superblock.
    #[inline]
    fn superblock_bookkeeping(cache: &mut DecodeCache, pc: u64, outcome: &StepOutcome) {
        match outcome {
            StepOutcome::Retired {
                inst: Inst::FenceI, ..
            } => cache.fence_i(),
            StepOutcome::Retired {
                next_pc,
                taken_branch: false,
                ..
            } if *next_pc == pc.wrapping_add(4)
                && *next_pc / crate::mem::PAGE_SIZE == pc / crate::mem::PAGE_SIZE =>
            {
                cache.advance_cursor(*next_pc);
            }
            _ => cache.end_superblock(),
        }
    }

    /// Runs up to `max_insts` instructions through the decode-cache fast
    /// path as one *superblock dispatch*: a tight loop that stays inside
    /// this call — no per-instruction outcome handed back to the caller —
    /// until the budget runs out, a trap (including a polled interrupt)
    /// redirects the PC, or the core parks in WFI.
    ///
    /// Semantics are identical to calling
    /// [`step_cached`](Self::step_cached) `max_insts` times and stopping
    /// at the first non-`Retired` outcome (see `hot_run`
    /// for why the elided per-instruction work is unobservable). Only the
    /// per-step outcome *reporting* is dropped, which is what makes this
    /// the high-throughput entry point for ISA-level measurement: the
    /// benchmark's `riscv.exec.mips` drive and `benches/blade_mips.rs`
    /// call it. No blade schedule does; a timing model that consumes each
    /// [`StepOutcome`] uses `step_cached` or [`run_timed`](Self::run_timed).
    pub fn run_cached<B: Bus>(
        &mut self,
        bus: &mut B,
        cache: &mut DecodeCache,
        max_insts: u64,
    ) -> BlockSummary {
        self.hot_run(
            bus,
            cache,
            Counted {
                retired: 0,
                max_insts,
            },
        )
    }

    /// Runs up to `budget` *cycles* through the decode-cache fast path as
    /// one superblock dispatch, charging each instruction's cycle cost
    /// via `cost_of` — the timed sibling of [`run_cached`](Self::run_cached)
    /// over the same loop, built for single-issue timing layers that would
    /// otherwise pay a full [`step_cached`](Self::step_cached) round trip
    /// (outcome materialization included) per instruction.
    ///
    /// Semantics are bit-identical to a caller loop that, per cycle,
    /// bumps `mcycle`, calls `step_cached`, charges
    /// `cost_of(pc, inst, annot, taken_branch, mem, cycles_so_far)`
    /// for a retire (or `trap_extra` extra cycles for a trap), stalls
    /// `extra` cycles before the next issue, and calls
    /// [`Bus::elapse_timing_cycles`] once per issue cycle and once per
    /// contiguous stall span. In detail, per issued instruction:
    ///
    /// * `mcycle` advances first, then interrupts are polled —
    ///   the same per-instruction poll as `step_cached`;
    /// * a retire invokes `cost_of`; a returned nonzero
    ///   [`TimedStep::annot`] is memoized into the serving decode-cache
    ///   slot, and [`TimedStep::stop`] ends the run right after the
    ///   offending cycle with the stall left *unfolded* in
    ///   [`TimedSummary::stall`] (exactly where a per-cycle caller's
    ///   loop would break);
    /// * a trap charges `1 + trap_extra` cycles and continues;
    /// * WFI ends the run after its (counted) parking cycle — the
    ///   caller owns parked/idle bookkeeping;
    /// * stall cycles that overrun the budget are returned in
    ///   [`TimedSummary::stall`] for the caller to carry.
    pub fn run_timed<B: Bus, F>(
        &mut self,
        bus: &mut B,
        cache: &mut DecodeCache,
        budget: u64,
        trap_extra: u64,
        cost_of: F,
    ) -> TimedSummary
    where
        F: FnMut(u64, &Inst, u16, bool, Option<&MemAccess>, u64) -> TimedStep,
    {
        self.hot_run(
            bus,
            cache,
            Clocked {
                cycles: 0,
                budget,
                trap_extra,
                cost_of,
            },
        )
    }

    /// The one superblock loop behind [`run_cached`](Self::run_cached)
    /// and [`run_timed`](Self::run_timed), monomorphised per
    /// [`Accounting`]. Hot instructions run through
    /// [`execute_hot`](Self::execute_hot); everything else takes one cold
    /// step through the interpreter, so trap logic stays in one place.
    ///
    /// Two host-side shortcuts make it fast, and neither is observable:
    ///
    /// * `minstret` is deferred across hot retires and folded in before
    ///   every cold step and at every exit. Nothing inside a hot run can
    ///   read it: only a CSR instruction does, and CSR instructions are
    ///   cold.
    /// * The interrupt poll is hoisted out of the hot run. `self.csrs` is
    ///   unreachable from the bus (device state changed by an MMIO access
    ///   feeds back only through the caller's interrupt wiring, outside
    ///   this call) and hot arms never write CSRs, so between two polls
    ///   interrupt state changes only through cold steps and traps — all
    ///   of which return to the poll before the next issue. Every skipped
    ///   poll provably returns `None`.
    #[inline(always)]
    fn hot_run<B: Bus, A: Accounting>(
        &mut self,
        bus: &mut B,
        cache: &mut DecodeCache,
        mut acct: A,
    ) -> A::Summary {
        let mut deferred = 0u64;
        // Every exit folds the deferred retires into `minstret` first.
        macro_rules! exit {
            ($summary:expr) => {{
                let summary = $summary;
                self.csrs.minstret = self.csrs.minstret.wrapping_add(deferred);
                return summary;
            }};
        }

        'poll: while acct.has_budget() {
            acct.issue(&mut self.csrs);
            if let Some(line) = self.csrs.pending_interrupt() {
                self.pc = self.csrs.trap_enter(self.pc, line.cause(), 0);
                cache.end_superblock();
                if let Some(summary) = acct.trap(bus, &mut self.csrs) {
                    exit!(summary);
                }
                continue;
            }

            loop {
                let pc = self.pc;
                let served = if pc.is_multiple_of(4) {
                    cache.lookup(pc, bus)
                } else {
                    None
                };
                let mut cold = None;
                let mut served_annot = 0u16;
                if let Some((word, inst, annot)) = served {
                    served_annot = annot;
                    match self.execute_hot(pc, inst, bus, cache) {
                        Hot::Retired { taken_branch, mem } => {
                            deferred += 1;
                            let csrs = &mut self.csrs;
                            let mem = mem.as_ref();
                            if let Some(summary) =
                                acct.retire(bus, csrs, cache, pc, &inst, annot, taken_branch, mem)
                            {
                                exit!(summary);
                            }
                            if !acct.has_budget() {
                                break 'poll;
                            }
                            // The next issue stays in the hot run: the
                            // poll is skipped (see above).
                            acct.issue(&mut self.csrs);
                            continue;
                        }
                        Hot::Trapped => {
                            if let Some(summary) = acct.trap(bus, &mut self.csrs) {
                                exit!(summary);
                            }
                            continue 'poll;
                        }
                        Hot::Cold => cold = Some((word, inst)),
                    }
                }

                // Cold step: a decoded-but-rare instruction (AMO, CSR,
                // fence, system) through `execute`, or the full slow path
                // for misaligned/uncacheable/illegal fetches. It counts
                // its own retire and may read any CSR, so flush first.
                self.csrs.minstret = self.csrs.minstret.wrapping_add(deferred);
                deferred = 0;
                let outcome = match cold {
                    Some((word, inst)) => self.execute(pc, word, inst, bus),
                    None => {
                        cache.end_superblock();
                        self.fetch_decode_execute(bus)
                    }
                };
                Self::superblock_bookkeeping(cache, pc, &outcome);
                let end = match outcome {
                    StepOutcome::Retired {
                        inst,
                        taken_branch,
                        mem,
                        ..
                    } => {
                        let csrs = &mut self.csrs;
                        let mem = mem.as_ref();
                        acct.retire(bus, csrs, cache, pc, &inst, served_annot, taken_branch, mem)
                    }
                    StepOutcome::Trapped { .. } => acct.trap(bus, &mut self.csrs),
                    StepOutcome::Wfi => Some(acct.finish(bus, true)),
                };
                if let Some(summary) = end {
                    exit!(summary);
                }
                // A cold step may have perturbed interrupt state: re-poll.
                continue 'poll;
            }
        }
        exit!(acct.finish(bus, false))
    }

    /// The hot arms — ALU, multiply/divide, upper immediates, jumps,
    /// branches, loads and stores — for an instruction the decode cache
    /// served at `pc`. Semantics are [`execute`](Self::execute)'s (the
    /// differential tests hold the two together) minus the outcome
    /// reporting: the superblock cursor moves as
    /// [`superblock_bookkeeping`](Self::superblock_bookkeeping) would
    /// and `minstret` is left to the caller. Any other instruction comes
    /// back [`Hot::Cold`] with no effect applied.
    #[inline(always)]
    fn execute_hot<B: Bus>(
        &mut self,
        pc: u64,
        inst: Inst,
        bus: &mut B,
        cache: &mut DecodeCache,
    ) -> Hot {
        let mut mem = None;
        match inst {
            Inst::OpImm {
                op,
                rd,
                rs1,
                imm,
                word,
            } => {
                let v = alu(op, self.read_reg(rs1), imm as u64, word);
                self.write_reg(rd, v);
            }
            Inst::Op {
                op,
                rd,
                rs1,
                rs2,
                word,
            } => {
                let v = alu(op, self.read_reg(rs1), self.read_reg(rs2), word);
                self.write_reg(rd, v);
            }
            Inst::MulDiv {
                op,
                rd,
                rs1,
                rs2,
                word,
            } => {
                let v = muldiv(op, self.read_reg(rs1), self.read_reg(rs2), word);
                self.write_reg(rd, v);
            }
            Inst::Lui { rd, imm } => self.write_reg(rd, imm as u64),
            Inst::Auipc { rd, imm } => self.write_reg(rd, pc.wrapping_add(imm as u64)),
            Inst::Jal { rd, imm } => {
                self.write_reg(rd, pc.wrapping_add(4));
                return self.hot_jump(cache, pc.wrapping_add(imm as u64), false);
            }
            Inst::Jalr { rd, rs1, imm } => {
                let target = self.read_reg(rs1).wrapping_add(imm as u64) & !1;
                self.write_reg(rd, pc.wrapping_add(4));
                return self.hot_jump(cache, target, false);
            }
            Inst::Branch {
                cond,
                rs1,
                rs2,
                imm,
            } => {
                let a = self.read_reg(rs1);
                let b = self.read_reg(rs2);
                let take = match cond {
                    BranchCond::Eq => a == b,
                    BranchCond::Ne => a != b,
                    BranchCond::Lt => (a as i64) < (b as i64),
                    BranchCond::Ge => (a as i64) >= (b as i64),
                    BranchCond::Ltu => a < b,
                    BranchCond::Geu => a >= b,
                };
                if take {
                    return self.hot_jump(cache, pc.wrapping_add(imm as u64), true);
                }
            }
            Inst::Load {
                width,
                signed,
                rd,
                rs1,
                imm,
            } => {
                let addr = self.read_reg(rs1).wrapping_add(imm as u64);
                let size = width.bytes();
                let raw = match bus.load(addr, size) {
                    Ok(v) => v,
                    Err(f) => {
                        self.trap(Trap::LoadAccessFault, f.addr);
                        cache.end_superblock();
                        return Hot::Trapped;
                    }
                };
                self.write_reg(rd, if signed { sign_extend(raw, size) } else { raw });
                mem = Some(MemAccess {
                    addr,
                    size,
                    is_store: false,
                    is_amo: false,
                });
            }
            Inst::Store {
                width,
                rs2,
                rs1,
                imm,
            } => {
                let addr = self.read_reg(rs1).wrapping_add(imm as u64);
                let size = width.bytes();
                if let Err(f) = bus.store(addr, size, self.read_reg(rs2)) {
                    self.trap(Trap::StoreAccessFault, f.addr);
                    cache.end_superblock();
                    return Hot::Trapped;
                }
                mem = Some(MemAccess {
                    addr,
                    size,
                    is_store: true,
                    is_amo: false,
                });
            }
            _ => return Hot::Cold,
        }
        // Fall-through retire: the cursor follows only onto the same
        // page (crossing one re-validates through the page generation on
        // the next lookup).
        let next_pc = pc.wrapping_add(4);
        self.pc = next_pc;
        if next_pc / crate::mem::PAGE_SIZE == pc / crate::mem::PAGE_SIZE {
            cache.advance_cursor(next_pc);
        } else {
            cache.end_superblock();
        }
        Hot::Retired {
            taken_branch: false,
            mem,
        }
    }

    /// Hot retire of a taken control transfer: redirect the PC and end
    /// the superblock (the cursor never follows jumps).
    #[inline(always)]
    fn hot_jump(&mut self, cache: &mut DecodeCache, target: u64, taken_branch: bool) -> Hot {
        self.pc = target;
        cache.end_superblock();
        Hot::Retired {
            taken_branch,
            mem: None,
        }
    }

    /// Phases 2-4 of [`step`](Self::step): fetch, decode, execute.
    #[inline]
    fn fetch_decode_execute<B: Bus>(&mut self, bus: &mut B) -> StepOutcome {
        // 2. Fetch.
        let pc = self.pc;
        if !pc.is_multiple_of(4) {
            return self.trap(Trap::InstMisaligned, pc);
        }
        let word = match bus.fetch(pc) {
            Ok(w) => w,
            Err(_) => return self.trap(Trap::InstAccessFault, pc),
        };

        // 3. Decode.
        let inst = match decode(word) {
            Ok(i) => i,
            Err(_) => return self.trap(Trap::IllegalInst, u64::from(word)),
        };

        // 4. Execute.
        self.execute(pc, word, inst, bus)
    }

    /// Executes one decoded instruction. `word` is the raw fetched word
    /// (the `Csr` arm needs it for an illegal-CSR `mtval`).
    #[inline]
    fn execute<B: Bus>(&mut self, pc: u64, word: u32, inst: Inst, bus: &mut B) -> StepOutcome {
        let mut next_pc = pc.wrapping_add(4);
        let mut taken_branch = false;
        let mut mem = None;
        match inst {
            Inst::Lui { rd, imm } => self.write_reg(rd, imm as u64),
            Inst::Auipc { rd, imm } => self.write_reg(rd, pc.wrapping_add(imm as u64)),
            Inst::Jal { rd, imm } => {
                self.write_reg(rd, pc.wrapping_add(4));
                next_pc = pc.wrapping_add(imm as u64);
            }
            Inst::Jalr { rd, rs1, imm } => {
                let target = self.read_reg(rs1).wrapping_add(imm as u64) & !1;
                self.write_reg(rd, pc.wrapping_add(4));
                next_pc = target;
            }
            Inst::Branch {
                cond,
                rs1,
                rs2,
                imm,
            } => {
                let a = self.read_reg(rs1);
                let b = self.read_reg(rs2);
                let take = match cond {
                    BranchCond::Eq => a == b,
                    BranchCond::Ne => a != b,
                    BranchCond::Lt => (a as i64) < (b as i64),
                    BranchCond::Ge => (a as i64) >= (b as i64),
                    BranchCond::Ltu => a < b,
                    BranchCond::Geu => a >= b,
                };
                if take {
                    next_pc = pc.wrapping_add(imm as u64);
                    taken_branch = true;
                }
            }
            Inst::Load {
                width,
                signed,
                rd,
                rs1,
                imm,
            } => {
                let addr = self.read_reg(rs1).wrapping_add(imm as u64);
                let size = width.bytes();
                let raw = match bus.load(addr, size) {
                    Ok(v) => v,
                    Err(f) => return self.trap(Trap::LoadAccessFault, f.addr),
                };
                let value = if signed { sign_extend(raw, size) } else { raw };
                self.write_reg(rd, value);
                mem = Some(MemAccess {
                    addr,
                    size,
                    is_store: false,
                    is_amo: false,
                });
            }
            Inst::Store {
                width,
                rs2,
                rs1,
                imm,
            } => {
                let addr = self.read_reg(rs1).wrapping_add(imm as u64);
                let size = width.bytes();
                if let Err(f) = bus.store(addr, size, self.read_reg(rs2)) {
                    return self.trap(Trap::StoreAccessFault, f.addr);
                }
                mem = Some(MemAccess {
                    addr,
                    size,
                    is_store: true,
                    is_amo: false,
                });
            }
            Inst::OpImm {
                op,
                rd,
                rs1,
                imm,
                word,
            } => {
                let v = alu(op, self.read_reg(rs1), imm as u64, word);
                self.write_reg(rd, v);
            }
            Inst::Op {
                op,
                rd,
                rs1,
                rs2,
                word,
            } => {
                let v = alu(op, self.read_reg(rs1), self.read_reg(rs2), word);
                self.write_reg(rd, v);
            }
            Inst::MulDiv {
                op,
                rd,
                rs1,
                rs2,
                word,
            } => {
                let v = muldiv(op, self.read_reg(rs1), self.read_reg(rs2), word);
                self.write_reg(rd, v);
            }
            Inst::Amo {
                op,
                width,
                rd,
                rs1,
                rs2,
            } => {
                let addr = self.read_reg(rs1);
                let size = width.bytes();
                if !addr.is_multiple_of(size as u64) {
                    return self.trap(Trap::StoreAccessFault, addr);
                }
                match op {
                    AmoOp::Lr => {
                        let raw = match bus.load(addr, size) {
                            Ok(v) => v,
                            Err(f) => return self.trap(Trap::LoadAccessFault, f.addr),
                        };
                        self.write_reg(rd, sign_extend(raw, size));
                        self.reservation = Some(addr);
                        mem = Some(MemAccess {
                            addr,
                            size,
                            is_store: false,
                            is_amo: true,
                        });
                    }
                    AmoOp::Sc => {
                        let ok = self.reservation == Some(addr);
                        self.reservation = None;
                        if ok {
                            if let Err(f) = bus.store(addr, size, self.read_reg(rs2)) {
                                return self.trap(Trap::StoreAccessFault, f.addr);
                            }
                            mem = Some(MemAccess {
                                addr,
                                size,
                                is_store: true,
                                is_amo: true,
                            });
                        }
                        self.write_reg(rd, if ok { 0 } else { 1 });
                    }
                    _ => {
                        let raw = match bus.load(addr, size) {
                            Ok(v) => v,
                            Err(f) => return self.trap(Trap::LoadAccessFault, f.addr),
                        };
                        let old = sign_extend(raw, size);
                        let src = self.read_reg(rs2);
                        let new = amo_compute(op, old, src, size);
                        if let Err(f) = bus.store(addr, size, new) {
                            return self.trap(Trap::StoreAccessFault, f.addr);
                        }
                        self.write_reg(rd, old);
                        mem = Some(MemAccess {
                            addr,
                            size,
                            is_store: true,
                            is_amo: true,
                        });
                    }
                }
            }
            Inst::Csr { op, rd, csr, src } => {
                let src_val = match src {
                    CsrSrc::Reg(r) => self.read_reg(r),
                    CsrSrc::Imm(z) => u64::from(z),
                };
                let skip_write = match (op, src) {
                    (CsrOp::Rw, _) => false,
                    (_, CsrSrc::Reg(0)) | (_, CsrSrc::Imm(0)) => true,
                    _ => false,
                };
                let old = match self.csrs.read(csr) {
                    Ok(v) => v,
                    Err(_) => return self.trap(Trap::IllegalInst, u64::from(word)),
                };
                if !skip_write {
                    let new = match op {
                        CsrOp::Rw => src_val,
                        CsrOp::Rs => old | src_val,
                        CsrOp::Rc => old & !src_val,
                    };
                    if self.csrs.write(csr, new).is_err() {
                        return self.trap(Trap::IllegalInst, u64::from(word));
                    }
                }
                self.write_reg(rd, old);
            }
            Inst::Fence | Inst::FenceI => {}
            Inst::Ecall => return self.trap(Trap::EcallM, 0),
            Inst::Ebreak => return self.trap(Trap::Breakpoint, pc),
            Inst::Mret => {
                next_pc = self.csrs.trap_return();
            }
            Inst::Wfi => {
                if !self.csrs.wfi_wakeup() {
                    return StepOutcome::Wfi;
                }
                // An enabled interrupt is pending: WFI completes. If
                // globally enabled it will be taken on the next step.
            }
        }

        self.pc = next_pc;
        self.csrs.minstret = self.csrs.minstret.wrapping_add(1);
        StepOutcome::Retired {
            pc,
            inst,
            next_pc,
            taken_branch,
            mem,
        }
    }
}

#[inline]
fn sign_extend(value: u64, size: usize) -> u64 {
    match size {
        1 => value as u8 as i8 as i64 as u64,
        2 => value as u16 as i16 as i64 as u64,
        4 => value as u32 as i32 as i64 as u64,
        _ => value,
    }
}

fn alu(op: AluOp, a: u64, b: u64, word: bool) -> u64 {
    if word {
        let a32 = a as u32;
        let b32 = b as u32;
        let v = match op {
            AluOp::Add => a32.wrapping_add(b32),
            AluOp::Sub => a32.wrapping_sub(b32),
            AluOp::Sll => a32.wrapping_shl(b32 & 31),
            AluOp::Srl => a32.wrapping_shr(b32 & 31),
            AluOp::Sra => ((a32 as i32).wrapping_shr(b32 & 31)) as u32,
            // Word forms exist only for add/sub/shifts.
            _ => unreachable!("no word form for {op:?}"),
        };
        v as i32 as i64 as u64
    } else {
        match op {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Sll => a.wrapping_shl(b as u32 & 63),
            AluOp::Slt => u64::from((a as i64) < (b as i64)),
            AluOp::Sltu => u64::from(a < b),
            AluOp::Xor => a ^ b,
            AluOp::Srl => a.wrapping_shr(b as u32 & 63),
            AluOp::Sra => ((a as i64).wrapping_shr(b as u32 & 63)) as u64,
            AluOp::Or => a | b,
            AluOp::And => a & b,
        }
    }
}

fn muldiv(op: MulDivOp, a: u64, b: u64, word: bool) -> u64 {
    if word {
        let a32 = a as i32;
        let b32 = b as i32;
        let v: i32 = match op {
            MulDivOp::Mul => a32.wrapping_mul(b32),
            MulDivOp::Div => {
                if b32 == 0 {
                    -1
                } else {
                    a32.wrapping_div(b32)
                }
            }
            MulDivOp::Divu => {
                if b32 == 0 {
                    -1
                } else {
                    ((a as u32) / (b as u32)) as i32
                }
            }
            MulDivOp::Rem => {
                if b32 == 0 {
                    a32
                } else {
                    a32.wrapping_rem(b32)
                }
            }
            MulDivOp::Remu => {
                if b32 == 0 {
                    a as u32 as i32
                } else {
                    ((a as u32) % (b as u32)) as i32
                }
            }
            _ => unreachable!("no word form for {op:?}"),
        };
        v as i64 as u64
    } else {
        match op {
            MulDivOp::Mul => a.wrapping_mul(b),
            MulDivOp::Mulh => (((a as i64 as i128) * (b as i64 as i128)) >> 64) as u64,
            MulDivOp::Mulhsu => (((a as i64 as i128) * (b as u128 as i128)) >> 64) as u64,
            MulDivOp::Mulhu => (((a as u128) * (b as u128)) >> 64) as u64,
            MulDivOp::Div => {
                if b == 0 {
                    u64::MAX
                } else {
                    ((a as i64).wrapping_div(b as i64)) as u64
                }
            }
            MulDivOp::Divu => a.checked_div(b).unwrap_or(u64::MAX),
            MulDivOp::Rem => {
                if b == 0 {
                    a
                } else {
                    ((a as i64).wrapping_rem(b as i64)) as u64
                }
            }
            MulDivOp::Remu => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
        }
    }
}

fn amo_compute(op: AmoOp, old: u64, src: u64, size: usize) -> u64 {
    let v = match op {
        AmoOp::Swap => src,
        AmoOp::Add => old.wrapping_add(src),
        AmoOp::Xor => old ^ src,
        AmoOp::And => old & src,
        AmoOp::Or => old | src,
        AmoOp::Min => {
            if size == 4 {
                ((old as i32).min(src as i32)) as u64
            } else {
                ((old as i64).min(src as i64)) as u64
            }
        }
        AmoOp::Max => {
            if size == 4 {
                ((old as i32).max(src as i32)) as u64
            } else {
                ((old as i64).max(src as i64)) as u64
            }
        }
        AmoOp::Minu => {
            if size == 4 {
                u64::from((old as u32).min(src as u32))
            } else {
                old.min(src)
            }
        }
        AmoOp::Maxu => {
            if size == 4 {
                u64::from((old as u32).max(src as u32))
            } else {
                old.max(src)
            }
        }
        AmoOp::Lr | AmoOp::Sc => unreachable!("handled separately"),
    };
    v
}

impl firesim_core::snapshot::Checkpoint for Cpu {
    fn save_state(
        &self,
        w: &mut firesim_core::snapshot::SnapshotWriter,
    ) -> firesim_core::SimResult<()> {
        for reg in self.regs {
            w.put_u64(reg);
        }
        w.put_u64(self.pc);
        self.csrs.save_state(w)?;
        w.put(&self.reservation);
        Ok(())
    }

    fn restore_state(
        &mut self,
        r: &mut firesim_core::snapshot::SnapshotReader<'_>,
    ) -> firesim_core::SimResult<()> {
        for reg in &mut self.regs {
            *reg = r.get_u64()?;
        }
        self.pc = r.get_u64()?;
        self.csrs.restore_state(r)?;
        self.reservation = r.get()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::csr::addr as csr_addr;
    use crate::csr::Interrupt;
    use crate::mem::Memory;

    const BASE: u64 = 0x8000_0000;

    fn run_program(build: impl FnOnce(&mut Assembler), max_steps: usize) -> (Cpu, Memory) {
        let mut a = Assembler::new(BASE);
        build(&mut a);
        let image = a.assemble().unwrap();
        let mut mem = Memory::new(BASE, 1 << 20);
        mem.write_bytes(BASE, &image).unwrap();
        let mut cpu = Cpu::new(0, BASE);
        for _ in 0..max_steps {
            match cpu.step(&mut mem).unwrap() {
                StepOutcome::Wfi => return (cpu, mem),
                StepOutcome::Trapped { cause, .. } => {
                    panic!("unexpected trap, cause {cause:#x} at pc {:#x}", cpu.pc())
                }
                StepOutcome::Retired { .. } => {}
            }
        }
        panic!("program did not reach WFI in {max_steps} steps");
    }

    #[test]
    fn arithmetic_program() {
        let (cpu, _) = run_program(
            |a| {
                a.li(1, 100);
                a.li(2, 7);
                a.add(3, 1, 2); // 107
                a.sub(4, 1, 2); // 93
                a.mul(5, 1, 2); // 700
                a.div(6, 1, 2); // 14
                a.rem(7, 1, 2); // 2
                a.wfi();
            },
            100,
        );
        assert_eq!(cpu.read_reg(3), 107);
        assert_eq!(cpu.read_reg(4), 93);
        assert_eq!(cpu.read_reg(5), 700);
        assert_eq!(cpu.read_reg(6), 14);
        assert_eq!(cpu.read_reg(7), 2);
    }

    #[test]
    fn division_edge_cases() {
        assert_eq!(muldiv(MulDivOp::Div, 5, 0, false), u64::MAX);
        assert_eq!(muldiv(MulDivOp::Rem, 5, 0, false), 5);
        assert_eq!(
            muldiv(MulDivOp::Div, i64::MIN as u64, -1i64 as u64, false),
            i64::MIN as u64
        );
        assert_eq!(
            muldiv(MulDivOp::Rem, i64::MIN as u64, -1i64 as u64, false),
            0
        );
        assert_eq!(
            muldiv(MulDivOp::Mulhu, u64::MAX, u64::MAX, false),
            u64::MAX - 1
        );
        assert_eq!(muldiv(MulDivOp::Mulh, -1i64 as u64, -1i64 as u64, false), 0);
    }

    #[test]
    fn memory_program_with_signed_loads() {
        let (cpu, _) = run_program(
            |a| {
                a.li(1, BASE as i64 + 0x1000);
                a.li(2, -2); // 0xfffffffffffffffe
                a.sd(2, 1, 0);
                a.lw(3, 1, 0); // sign-extended -2
                a.lwu(4, 1, 0); // zero-extended 0xfffffffe
                a.lb(5, 1, 0); // -2
                a.lbu(6, 1, 0); // 0xfe
                a.wfi();
            },
            100,
        );
        assert_eq!(cpu.read_reg(3), (-2i64) as u64);
        assert_eq!(cpu.read_reg(4), 0xffff_fffe);
        assert_eq!(cpu.read_reg(5), (-2i64) as u64);
        assert_eq!(cpu.read_reg(6), 0xfe);
    }

    #[test]
    fn word_ops_sign_extend() {
        let (cpu, _) = run_program(
            |a| {
                a.li(1, 0x7fff_ffff);
                a.addiw(2, 1, 1); // overflows to i32::MIN
                a.li(3, 1);
                a.slliw(4, 3, 1); // 1 << 1 = 2
                a.wfi();
            },
            100,
        );
        assert_eq!(cpu.read_reg(2), i32::MIN as i64 as u64);
        assert_eq!(cpu.read_reg(4), 2);
    }

    #[test]
    fn branches_and_loops() {
        // Computes 10! iteratively.
        let (cpu, _) = run_program(
            |a| {
                a.li(10, 1); // acc
                a.li(5, 1); // i
                a.li(6, 10); // n
                a.label("loop");
                a.mul(10, 10, 5);
                a.addi(5, 5, 1);
                a.ble(5, 6, "loop");
                a.wfi();
            },
            200,
        );
        assert_eq!(cpu.read_reg(10), 3_628_800);
    }

    #[test]
    fn function_call_and_return() {
        let (cpu, _) = run_program(
            |a| {
                a.li(2, BASE as i64 + 0x8000); // stack
                a.li(10, 21);
                a.call("double");
                a.wfi();
                a.label("double");
                a.add(10, 10, 10);
                a.ret();
            },
            100,
        );
        assert_eq!(cpu.read_reg(10), 42);
    }

    #[test]
    fn lr_sc_success_and_failure() {
        let (cpu, _) = run_program(
            |a| {
                a.li(1, BASE as i64 + 0x2000);
                a.li(2, 5);
                a.sd(2, 1, 0);
                a.lr_d(3, 1); // x3 = 5, reservation
                a.addi(3, 3, 1);
                a.sc_d(4, 3, 1); // success: x4 = 0
                a.sc_d(5, 3, 1); // no reservation: x5 = 1
                a.ld(6, 1, 0); // 6
                a.wfi();
            },
            100,
        );
        assert_eq!(cpu.read_reg(4), 0);
        assert_eq!(cpu.read_reg(5), 1);
        assert_eq!(cpu.read_reg(6), 6);
    }

    #[test]
    fn amoadd_returns_old_value() {
        let (cpu, _) = run_program(
            |a| {
                a.li(1, BASE as i64 + 0x2000);
                a.li(2, 10);
                a.sd(2, 1, 0);
                a.li(3, 32);
                a.amoadd_d(4, 3, 1); // x4 = 10, mem = 42
                a.ld(5, 1, 0);
                a.wfi();
            },
            100,
        );
        assert_eq!(cpu.read_reg(4), 10);
        assert_eq!(cpu.read_reg(5), 42);
    }

    #[test]
    fn ecall_traps_and_mret_returns() {
        let mut a = Assembler::new(BASE);
        // Main: set mtvec, ecall, then x1 = 99 after return, wfi.
        a.la(5, "handler");
        a.csrw(csr_addr::MTVEC, 5);
        a.ecall();
        a.li(1, 99);
        a.wfi();
        a.label("handler");
        // handler: mepc += 4; mret
        a.csrr(6, csr_addr::MEPC);
        a.addi(6, 6, 4);
        a.csrw(csr_addr::MEPC, 6);
        a.mret();
        let image = a.assemble().unwrap();
        let mut mem = Memory::new(BASE, 1 << 16);
        mem.write_bytes(BASE, &image).unwrap();
        let mut cpu = Cpu::new(0, BASE);
        let mut saw_trap = false;
        for _ in 0..100 {
            match cpu.step(&mut mem).unwrap() {
                StepOutcome::Trapped { cause, .. } => {
                    assert_eq!(cause, 11);
                    saw_trap = true;
                }
                StepOutcome::Wfi => {
                    assert!(saw_trap);
                    assert_eq!(cpu.read_reg(1), 99);
                    return;
                }
                _ => {}
            }
        }
        panic!("did not complete");
    }

    #[test]
    fn illegal_instruction_traps() {
        let mut mem = Memory::new(BASE, 4096);
        mem.store(BASE, 4, 0xffff_ffff).unwrap();
        let mut cpu = Cpu::new(0, BASE);
        match cpu.step(&mut mem).unwrap() {
            StepOutcome::Trapped { cause, .. } => assert_eq!(cause, 2),
            other => panic!("{other:?}"),
        }
        assert_eq!(cpu.csrs.mtval, 0xffff_ffff);
        // mtvec is 0 -> handler at 0; fetching there faults -> cause 1.
        match cpu.step(&mut mem).unwrap() {
            StepOutcome::Trapped { cause, .. } => assert_eq!(cause, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn interrupt_taken_when_enabled() {
        let mut a = Assembler::new(BASE);
        a.la(5, "handler");
        a.csrw(csr_addr::MTVEC, 5);
        a.li(6, 0x888);
        a.csrw(csr_addr::MIE, 6); // enable all lines
        a.csrsi(csr_addr::MSTATUS, 8); // MIE
        a.label("spin");
        a.j("spin");
        a.label("handler");
        a.li(1, 7);
        a.wfi();
        let image = a.assemble().unwrap();
        let mut mem = Memory::new(BASE, 4096);
        mem.write_bytes(BASE, &image).unwrap();
        let mut cpu = Cpu::new(0, BASE);
        // Run the setup + a few spins.
        for _ in 0..10 {
            cpu.step(&mut mem).unwrap();
        }
        cpu.csrs.set_interrupt(Interrupt::External, true);
        match cpu.step(&mut mem).unwrap() {
            StepOutcome::Trapped { cause, .. } => {
                assert_eq!(cause, (1 << 63) | 11);
            }
            other => panic!("{other:?}"),
        }
        // The handler would normally tell the device to deassert; model
        // that before it reaches WFI.
        cpu.csrs.set_interrupt(Interrupt::External, false);
        // Handler runs.
        for _ in 0..10 {
            if let StepOutcome::Wfi = cpu.step(&mut mem).unwrap() {
                assert_eq!(cpu.read_reg(1), 7);
                return;
            }
        }
        panic!("handler did not park");
    }

    #[test]
    fn wfi_parks_and_wakes() {
        let mut a = Assembler::new(BASE);
        a.li(6, 0x800);
        a.csrw(csr_addr::MIE, 6); // enable external only; MSTATUS.MIE off
        a.wfi();
        a.li(1, 5);
        a.wfi();
        let image = a.assemble().unwrap();
        let mut mem = Memory::new(BASE, 4096);
        mem.write_bytes(BASE, &image).unwrap();
        let mut cpu = Cpu::new(0, BASE);
        for _ in 0..4 {
            cpu.step(&mut mem).unwrap();
        }
        // Parked.
        assert_eq!(cpu.step(&mut mem).unwrap(), StepOutcome::Wfi);
        assert_eq!(cpu.step(&mut mem).unwrap(), StepOutcome::Wfi);
        // Wake: with MSTATUS.MIE clear, WFI completes without trapping.
        cpu.csrs.set_interrupt(Interrupt::External, true);
        match cpu.step(&mut mem).unwrap() {
            StepOutcome::Retired {
                inst: Inst::Wfi, ..
            } => {}
            other => panic!("{other:?}"),
        }
        cpu.step(&mut mem).unwrap(); // li
        assert_eq!(cpu.read_reg(1), 5);
    }

    /// The lean superblock dispatch in `run_cached` re-implements the hot
    /// instruction arms without building `StepOutcome`s; this differential
    /// test locks it to the plain interpreter over a trap-heavy program
    /// (ALU, mul, loads/stores, calls, branches, CSR traffic, an ecall
    /// handler round-trip, AMOs), driven in small budget chunks so every
    /// `BlockStop` reason is exercised.
    #[test]
    fn run_cached_matches_step_exactly() {
        let mut a = Assembler::new(BASE);
        a.la(5, "handler");
        a.csrw(csr_addr::MTVEC, 5);
        a.li(2, BASE as i64 + 0x8000); // stack
        a.li(21, BASE as i64 + 0x4000); // data (not x1: `call` clobbers ra)
        a.li(10, 1);
        a.li(6, 12);
        a.label("loop");
        a.mul(10, 10, 6);
        a.sd(10, 21, 0);
        a.ld(11, 21, 0);
        a.amoadd_d(12, 11, 21);
        a.call("leaf");
        a.addi(6, 6, -1);
        a.bnez(6, "loop");
        a.ecall(); // round-trip through the trap handler
        a.li(13, 99);
        a.wfi();
        a.label("leaf");
        a.xor(14, 10, 11);
        a.ret();
        a.label("handler");
        a.csrr(7, csr_addr::MEPC);
        a.addi(7, 7, 4);
        a.csrw(csr_addr::MEPC, 7);
        a.mret();
        let image = a.assemble().unwrap();

        let mut mem_i = Memory::new(BASE, 1 << 20);
        mem_i.write_bytes(BASE, &image).unwrap();
        let mut interp = Cpu::new(0, BASE);
        let mut retired_i = 0u64;
        loop {
            match interp.step(&mut mem_i).unwrap() {
                StepOutcome::Retired { .. } => retired_i += 1,
                StepOutcome::Trapped { .. } => {}
                StepOutcome::Wfi => break,
            }
            assert!(retired_i < 10_000, "interpreter runaway");
        }

        let mut mem_c = Memory::new(BASE, 1 << 20);
        mem_c.write_bytes(BASE, &image).unwrap();
        let mut cached = Cpu::new(0, BASE);
        let mut cache = DecodeCache::new();
        let mut retired_c = 0u64;
        loop {
            // A deliberately awkward budget so superblocks split at
            // arbitrary points, including mid-basic-block.
            let block = cached.run_cached(&mut mem_c, &mut cache, 7);
            retired_c += block.retired;
            match block.stopped {
                BlockStop::Budget | BlockStop::Trapped => {}
                BlockStop::Wfi => break,
            }
            assert!(retired_c < 10_000, "cached runaway");
        }

        assert_eq!(retired_i, retired_c, "retired counts diverge");
        assert_eq!(interp.pc, cached.pc, "final pc diverges");
        assert_eq!(interp.regs, cached.regs, "register files diverge");
        assert_eq!(
            interp.csrs.minstret, cached.csrs.minstret,
            "minstret diverges"
        );
        assert_eq!(cached.read_reg(13), 99, "program must complete");
        let stats = cache.stats();
        assert!(
            stats.hits > retired_c / 2,
            "fast path barely used: {stats:?}"
        );
    }

    /// A flat memory that totals the cycles a timing layer reports
    /// through [`Bus::elapse_timing_cycles`].
    struct Elapsed {
        mem: Memory,
        cycles: u64,
    }

    impl Bus for Elapsed {
        fn load(&mut self, addr: u64, size: usize) -> Result<u64, MemFault> {
            self.mem.load(addr, size)
        }
        fn store(&mut self, addr: u64, size: usize, value: u64) -> Result<(), MemFault> {
            self.mem.store(addr, size, value)
        }
        fn fetch(&mut self, addr: u64) -> Result<u32, MemFault> {
            self.mem.fetch(addr)
        }
        fn code_generation(&self, addr: u64) -> Option<u64> {
            self.mem.code_generation(addr)
        }
        fn write_generation(&self) -> u64 {
            self.mem.write_generation()
        }
        fn elapse_timing_cycles(&mut self, cycles: u64) {
            self.cycles += cycles;
        }
    }

    const TIMED_TRAP_EXTRA: u64 = 3;

    /// The cost model of the `run_timed` differential test: static extras
    /// memoized in the decode-cache annotation (`extra + 1`), dynamic
    /// extras from taken branches and from the access address and issue
    /// cycle, and a stop requested at one PC (the leaf's `xor`).
    fn timed_test_cost(
        inst: &Inst,
        annot: u16,
        taken_branch: bool,
        mem: Option<&MemAccess>,
        now: u64,
    ) -> TimedStep {
        let (fixed, memo) = if annot != 0 {
            (u64::from(annot - 1), 0)
        } else {
            let extra = match inst {
                Inst::MulDiv { .. } => 3,
                Inst::Jal { .. } | Inst::Jalr { .. } => 2,
                _ => 0,
            };
            (extra, extra as u16 + 1)
        };
        let dynamic = u64::from(taken_branch) + mem.map_or(0, |m| (m.addr / 8 + now) % 5);
        TimedStep {
            extra: fixed + dynamic,
            stop: matches!(inst, Inst::Op { rd: 14, .. }),
            annot: memo,
        }
    }

    /// The per-cycle caller loop `run_timed` is specified against: every
    /// cycle bumps `mcycle`; an issue cycle runs one `step_cached` and
    /// charges its cost, stalling `extra` cycles before the next issue.
    struct PerCycle {
        cpu: Cpu,
        bus: Elapsed,
        cache: DecodeCache,
        cycle: u64,
        stall: u64,
        stops: u64,
        parked: bool,
    }

    impl PerCycle {
        fn cycle(&mut self) {
            let now = self.cycle;
            self.cycle += 1;
            self.cpu.csrs.mcycle = self.cpu.csrs.mcycle.wrapping_add(1);
            self.bus.elapse_timing_cycles(1);
            if self.stall > 0 {
                self.stall -= 1;
                return;
            }
            assert!(!self.parked, "reference ran past its WFI");
            match self
                .cpu
                .step_cached(&mut self.bus, &mut self.cache)
                .unwrap()
            {
                StepOutcome::Retired {
                    pc,
                    inst,
                    taken_branch,
                    mem,
                    ..
                } => {
                    let annot = self.cache.annotation(pc);
                    let ts = timed_test_cost(&inst, annot, taken_branch, mem.as_ref(), now);
                    if ts.annot != 0 {
                        self.cache.set_annotation(pc, ts.annot);
                    }
                    self.stops += u64::from(ts.stop);
                    self.stall = ts.extra;
                }
                StepOutcome::Trapped { .. } => self.stall = TIMED_TRAP_EXTRA,
                StepOutcome::Wfi => self.parked = true,
            }
        }
    }

    /// `run_timed` against the per-cycle `step_cached` loop it documents,
    /// in lockstep: after every dispatch (budgets of 1, 7 and 13 cycles,
    /// the carried stall served first as `TimingCore::advance` does), pc,
    /// registers, `mcycle`, `minstret`, carried stall and the cycles
    /// reported to the bus must agree. The program is
    /// `run_cached_matches_step_exactly`'s plus a load access fault, and
    /// a timer interrupt is pending and enabled at entry.
    #[test]
    fn run_timed_matches_step_cached_exactly() {
        let mut a = Assembler::new(BASE);
        a.j("main");
        // The handler sits at BASE + 4 so `mtvec` can point at it before
        // the first instruction. It masks every interrupt (the entry
        // timer line stays pending) and resumes interrupts at `mepc`,
        // exceptions after it.
        a.label("handler");
        a.csrw(csr_addr::MIE, 0);
        a.csrr(7, csr_addr::MCAUSE);
        a.blt(7, 0, "resume");
        a.csrr(7, csr_addr::MEPC);
        a.addi(7, 7, 4);
        a.csrw(csr_addr::MEPC, 7);
        a.label("resume");
        a.mret();
        a.label("main");
        a.la(5, "handler");
        a.csrw(csr_addr::MTVEC, 5);
        a.li(2, BASE as i64 + 0x8000); // stack
        a.li(21, BASE as i64 + 0x4000); // data
        a.li(10, 1);
        a.li(6, 12);
        a.label("loop");
        a.mul(10, 10, 6);
        a.sd(10, 21, 0);
        a.ld(11, 21, 0);
        a.amoadd_d(12, 11, 21);
        a.call("leaf");
        a.addi(6, 6, -1);
        a.bnez(6, "loop");
        a.li(15, 0x1000);
        a.ld(16, 15, 0); // unmapped: load access fault
        a.ecall();
        a.li(13, 99);
        a.wfi();
        a.label("leaf");
        a.xor(14, 10, 11);
        a.ret();
        let image = a.assemble().unwrap();

        let fresh = || {
            let mut mem = Memory::new(BASE, 1 << 20);
            mem.write_bytes(BASE, &image).unwrap();
            let mut cpu = Cpu::new(0, BASE);
            cpu.csrs.mtvec = BASE + 4;
            cpu.csrs.mie = 1 << Interrupt::Timer.bit();
            cpu.csrs.mstatus |= crate::csr::mstatus::MIE;
            cpu.csrs.set_interrupt(Interrupt::Timer, true);
            (cpu, Elapsed { mem, cycles: 0 }, DecodeCache::new())
        };
        let (cpu, bus, cache) = fresh();
        let mut reference = PerCycle {
            cpu,
            bus,
            cache,
            cycle: 0,
            stall: 0,
            stops: 0,
            parked: false,
        };
        let (mut cpu, mut bus, mut cache) = fresh();
        let (mut total, mut stall, mut stops, mut memo_hits) = (0u64, 0u64, 0u64, 0u64);
        for chunk in 0.. {
            let budget = [1u64, 7, 13][chunk % 3];
            let burned = stall.min(budget);
            cpu.csrs.mcycle = cpu.csrs.mcycle.wrapping_add(burned);
            bus.elapse_timing_cycles(burned);
            stall -= burned;
            let mut used = burned;
            let mut parked = false;
            if used < budget {
                let span_base = total + used;
                let summary = cpu.run_timed(
                    &mut bus,
                    &mut cache,
                    budget - used,
                    TIMED_TRAP_EXTRA,
                    |_pc, inst, annot, taken_branch, mem, span_cycles| {
                        memo_hits += u64::from(annot != 0);
                        timed_test_cost(inst, annot, taken_branch, mem, span_base + span_cycles)
                    },
                );
                used += summary.cycles;
                stall = summary.stall;
                match summary.stopped {
                    TimedStop::Budget => assert_eq!(used, budget, "chunk {chunk}"),
                    TimedStop::Device => stops += 1,
                    TimedStop::Wfi => parked = true,
                }
            }
            total += used;
            for _ in 0..used {
                reference.cycle();
            }
            let r = &reference;
            assert_eq!(cpu.pc, r.cpu.pc, "pc, chunk {chunk}");
            assert_eq!(cpu.regs, r.cpu.regs, "registers, chunk {chunk}");
            assert_eq!(cpu.csrs.mcycle, r.cpu.csrs.mcycle, "mcycle, chunk {chunk}");
            assert_eq!(
                cpu.csrs.minstret, r.cpu.csrs.minstret,
                "minstret, chunk {chunk}"
            );
            assert_eq!(stall, r.stall, "carried stall, chunk {chunk}");
            assert_eq!(bus.cycles, r.bus.cycles, "elapsed cycles, chunk {chunk}");
            assert_eq!(total, r.cycle);
            if parked {
                break;
            }
            assert!(total < 100_000, "timed runaway");
        }
        assert!(reference.parked, "reference did not park with run_timed");
        assert_eq!(stops, reference.stops, "device stops diverge");
        assert_eq!(stops, 12, "one stop per leaf call");
        assert_eq!(cpu.read_reg(13), 99, "program must complete");
        assert_eq!(cpu.csrs.mcause, 11, "last trap is the ecall");
        assert!(memo_hits > 0, "annotations never served");
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let (cpu, _) = run_program(
            |a| {
                a.li(1, 42);
                a.add(0, 1, 1); // attempt to write x0
                a.add(2, 0, 0);
                a.wfi();
            },
            100,
        );
        assert_eq!(cpu.read_reg(0), 0);
        assert_eq!(cpu.read_reg(2), 0);
    }

    #[test]
    fn reservation_clobbered_by_other_hart() {
        let mut mem = Memory::new(BASE, 4096);
        let mut a = Assembler::new(BASE);
        a.li(1, BASE as i64 + 64);
        a.lr_d(2, 1);
        a.sc_d(3, 2, 1);
        a.wfi();
        let image = a.assemble().unwrap();
        mem.write_bytes(BASE, &image).unwrap();
        let mut cpu = Cpu::new(0, BASE);
        // li is 1-2 insts; step until after lr (has_reservation).
        for _ in 0..10 {
            if cpu.has_reservation() {
                break;
            }
            cpu.step(&mut mem).unwrap();
        }
        assert!(cpu.has_reservation());
        cpu.clobber_reservation(BASE + 64);
        // SC must now fail.
        loop {
            if cpu.step(&mut mem).unwrap() == StepOutcome::Wfi {
                break;
            }
        }
        assert_eq!(cpu.read_reg(3), 1);
    }
}
