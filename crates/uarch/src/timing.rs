//! Rocket-class in-order pipeline timing around the functional core.
//!
//! [`TimingCore::tick`] advances exactly one target cycle. Internally it
//! executes the functional core one instruction at a time and converts each
//! instruction into a cycle cost: single-issue in-order base of 1 IPC,
//! multi-cycle multiply/divide, taken-branch and jump redirect bubbles,
//! cache/DRAM latency from [`MemSystem`], and a fixed cost for uncached
//! MMIO. The result is a deterministic cycle-by-cycle model in the spirit
//! of the paper's FAME-1-transformed Rocket core (§III-A4): the functional
//! effect of an instruction is applied on the cycle it *begins* and the
//! core then stalls for the remaining cost.

use firesim_riscv::exec::{Cpu, MemAccess, StepOutcome, TimedStep, TimedStop};
use firesim_riscv::icache::{DecodeCache, DecodeCacheStats};
use firesim_riscv::inst::{Inst, MulDivOp};
use firesim_riscv::mem::Bus;

use crate::memsys::{AccessKind, MemSystem};

/// Pipeline timing parameters (cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingConfig {
    /// Instructions issued per cycle while none needs extra resources
    /// (1 = Rocket-class in-order; 2 = BOOM-class superscalar, §VIII).
    pub issue_width: u32,
    /// Total latency of a multiply.
    pub mul_cycles: u64,
    /// Total latency of a divide/remainder.
    pub div_cycles: u64,
    /// Extra cycles after a taken conditional branch (redirect bubble).
    pub branch_taken_penalty: u64,
    /// Extra cycles after `jal`/`jalr`.
    pub jump_penalty: u64,
    /// Cycles for an uncached MMIO load/store.
    pub mmio_cycles: u64,
    /// Extra cycles consumed by trap entry (pipeline flush).
    pub trap_cycles: u64,
    /// Extra read-modify-write cycles for AMOs beyond the memory latency.
    pub amo_extra_cycles: u64,
    /// Base of the cacheable DRAM region (accesses outside are MMIO).
    pub cacheable_base: u64,
    /// Size of the cacheable DRAM region in bytes.
    pub cacheable_size: u64,
    /// Serve fetch/decode from a host-side [`DecodeCache`] (default on).
    /// Purely a host-speed knob: simulation results, timing, and
    /// `FSCKPT01` snapshots are bit-identical either way (the timing
    /// model charges the modeled L1I per retired instruction no matter
    /// how the functional fetch was served).
    pub decode_cache: bool,
    /// Force the SoC scheduler onto the per-cycle reference loop instead
    /// of event-driven skip-ahead batching (default off). Like
    /// `decode_cache` this is a host-speed knob only: cycle counts,
    /// digests, and snapshots are bit-identical either way, and the
    /// differential tests run both modes against each other.
    pub reference_timing: bool,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            issue_width: 1,
            mul_cycles: 4,
            div_cycles: 32,
            branch_taken_penalty: 1,
            jump_penalty: 2,
            mmio_cycles: 10,
            trap_cycles: 3,
            amo_extra_cycles: 3,
            cacheable_base: firesim_riscv::DRAM_BASE,
            cacheable_size: 16 << 30,
            decode_cache: true,
            reference_timing: false,
        }
    }
}

impl TimingConfig {
    /// The Rocket-class in-order single-issue model (Table I's cores).
    pub fn rocket() -> Self {
        Self::default()
    }

    /// A BOOM-class superscalar model (§VIII): dual issue, shorter
    /// multiply, faster divider, but a deeper-pipeline redirect penalty.
    /// Per the paper, "one BOOM core consumes roughly the same \[FPGA\]
    /// resources as a quad-core Rocket".
    pub fn boom() -> Self {
        TimingConfig {
            issue_width: 2,
            mul_cycles: 3,
            div_cycles: 20,
            branch_taken_penalty: 3,
            jump_penalty: 1,
            ..Self::default()
        }
    }
}

impl TimingConfig {
    /// True when `addr` is cacheable DRAM (not MMIO).
    pub fn is_cacheable(&self, addr: u64) -> bool {
        addr >= self.cacheable_base && addr - self.cacheable_base < self.cacheable_size
    }

    /// The cost model of one retired instruction, shared by every issue
    /// path ([`TimingCore::tick`], and both the per-cycle branch and the
    /// [`Cpu::run_timed`] callback of [`TimingCore::advance`]). The cost
    /// is one issue cycle plus: the fetch beyond a pipelined L1I hit; the
    /// static execute extra; the taken-branch penalty; the data access.
    ///
    /// The static extra is a pure function of the decoded instruction, so
    /// it is memoized in the decode-cache slot that served the fetch as
    /// `extra + 1`: `annot` is that slot's value (0 = not yet computed),
    /// and a fresh value comes back in [`TimedStep::annot`]. The slot
    /// guard (`tag == pc`, annotation reset on fill) makes a nonzero
    /// annotation always describe this exact instruction.
    ///
    /// [`TimedStep::stop`] marks an instruction that left the frozen
    /// environment of a batched span: an MMIO fetch or data access, or an
    /// access to `mip` (whose software-writable bit the next wiring would
    /// overwrite).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn charge(
        &self,
        mem: &mut MemSystem,
        core_idx: usize,
        now: u64,
        pc: u64,
        inst: &Inst,
        annot: u16,
        taken_branch: bool,
        acc: Option<&MemAccess>,
    ) -> TimedStep {
        let mut cost = 1u64;
        let mut stop = !self.is_cacheable(pc);
        if !stop {
            let lat = mem.access(core_idx, AccessKind::Fetch, pc, now);
            cost += lat - mem.config().l1_hit_cycles;
        }
        let mut memo = 0u16;
        if annot != 0 {
            cost += u64::from(annot - 1);
        } else {
            let extra = match inst {
                Inst::MulDiv { op, .. } => {
                    let is_div = matches!(
                        op,
                        MulDivOp::Div | MulDivOp::Divu | MulDivOp::Rem | MulDivOp::Remu
                    );
                    if is_div {
                        self.div_cycles - 1
                    } else {
                        self.mul_cycles - 1
                    }
                }
                Inst::Jal { .. } | Inst::Jalr { .. } => self.jump_penalty,
                _ => 0,
            };
            cost += extra;
            memo = u16::try_from(extra + 1).unwrap_or(0);
        }
        // Dynamic (only `Branch` sets the flag), so never memoized.
        if taken_branch {
            cost += self.branch_taken_penalty;
        }
        if let Some(a) = acc {
            if self.is_cacheable(a.addr) {
                let kind = if a.is_amo {
                    AccessKind::Amo
                } else if a.is_store {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                let lat = mem.access(core_idx, kind, a.addr, now);
                cost += match kind {
                    // Store hits retire through the store buffer.
                    AccessKind::Store if lat == mem.config().l1_hit_cycles => 0,
                    AccessKind::Amo => lat + self.amo_extra_cycles,
                    _ => lat,
                };
            } else {
                cost += self.mmio_cycles;
                stop = true;
            }
        }
        stop |= matches!(inst, Inst::Csr { csr, .. } if *csr == firesim_riscv::csr::addr::MIP);
        TimedStep {
            extra: cost - 1,
            stop,
            annot: memo,
        }
    }
}

/// What one [`TimingCore::tick`] produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickEvent {
    /// The core is stalled mid-instruction.
    Busy,
    /// An instruction began this cycle (its functional effect is applied).
    Issued,
    /// The core is parked in WFI.
    Idle,
}

/// One retired-instruction trace record (TracerV-style).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Cycle at which the instruction issued.
    pub cycle: u64,
    /// Its program counter.
    pub pc: u64,
}

/// One core with Rocket-like timing.
#[derive(Debug)]
pub struct TimingCore {
    cpu: Cpu,
    config: TimingConfig,
    stall: u64,
    parked: bool,
    retired: u64,
    idle_cycles: u64,
    trace: Option<(usize, std::collections::VecDeque<TraceEntry>)>,
    /// Host-side decoded-instruction cache; `None` when
    /// [`TimingConfig::decode_cache`] is off. Deliberately excluded from
    /// checkpoint state (see the `firesim_riscv::icache` module docs) —
    /// a restore rebuilds it cold.
    icache: Option<DecodeCache>,
}

impl TimingCore {
    /// Wraps a functional core.
    pub fn new(cpu: Cpu, config: TimingConfig) -> Self {
        TimingCore {
            cpu,
            config,
            stall: 0,
            parked: false,
            retired: 0,
            idle_cycles: 0,
            trace: None,
            icache: config.decode_cache.then(DecodeCache::new),
        }
    }

    /// Enables TracerV-style instruction tracing, keeping the last
    /// `depth` retired-instruction records (cycle, pc). FireSim's real
    /// deployment streams these out over DMA; here the harness reads them
    /// from the blade probe.
    pub fn enable_trace(&mut self, depth: usize) {
        self.trace = Some((depth.max(1), std::collections::VecDeque::new()));
    }

    /// The trace ring buffer (oldest first); empty when tracing is off.
    pub fn trace(&self) -> impl Iterator<Item = &TraceEntry> {
        self.trace.iter().flat_map(|(_, t)| t.iter())
    }

    /// The functional core.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Mutable access to the functional core (interrupt lines, timers).
    pub fn cpu_mut(&mut self) -> &mut Cpu {
        &mut self.cpu
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Cycles spent parked in WFI.
    pub fn idle_cycles(&self) -> u64 {
        self.idle_cycles
    }

    /// True when parked in WFI.
    pub fn is_parked(&self) -> bool {
        self.parked
    }

    /// Decoded-instruction cache counters; `None` when the cache is off.
    pub fn icache_stats(&self) -> Option<DecodeCacheStats> {
        self.icache.as_ref().map(|c| c.stats())
    }

    /// Remaining stall cycles of the instruction in flight.
    pub fn stall(&self) -> u64 {
        self.stall
    }

    /// Cycles from now until this core next does observable work: 0 when
    /// it will issue on the next tick, the remaining stall while
    /// mid-instruction, and for a WFI-parked core either `timer_expiry`
    /// (pass `Clint::next_timer_expiry(hart)`) when the timer interrupt
    /// is enabled in `mie`, or `u64::MAX` when only a wiring change
    /// (external/software edge) could wake it.
    ///
    /// Callers must wire the interrupt lines for the current cycle first
    /// and guarantee that no wiring input other than the timer changes in
    /// any span they skip on the strength of this answer.
    pub fn next_event(&self, timer_expiry: u64) -> u64 {
        if self.stall > 0 {
            return self.stall;
        }
        if self.parked {
            if self.cpu.csrs.wfi_wakeup() || self.cpu.csrs.pending_interrupt().is_some() {
                return 0;
            }
            let timer_enabled =
                self.cpu.csrs.mie & (1 << firesim_riscv::Interrupt::Timer.bit()) != 0;
            return if timer_enabled {
                timer_expiry
            } else {
                u64::MAX
            };
        }
        0
    }

    /// Bulk-advances an inactive core by `cycles` target cycles in O(1):
    /// a stalled core burns stall budget, a parked core accumulates idle
    /// time. Bit-identical to `cycles` calls of [`TimingCore::tick`]
    /// under the caller's guarantee that nothing in the span would wake
    /// or unstall the core early (`cycles <= next_event(..)`).
    pub fn skip(&mut self, cycles: u64) {
        self.cpu.csrs.mcycle = self.cpu.csrs.mcycle.wrapping_add(cycles);
        if self.stall > 0 {
            debug_assert!(cycles <= self.stall, "skip across stall expiry");
            self.stall -= cycles;
        } else if cycles > 0 {
            debug_assert!(
                self.parked
                    && !self.cpu.csrs.wfi_wakeup()
                    && self.cpu.csrs.pending_interrupt().is_none(),
                "skip on a core that would have issued"
            );
            self.idle_cycles += cycles;
        }
    }

    /// Batched issue: advances up to `budget` target cycles without
    /// returning to the caller between cycles, bit-identical to `budget`
    /// calls of [`TimingCore::tick`] with `now = base + cycles_so_far`,
    /// provided the caller guarantees the bus/device environment is
    /// frozen for the whole span (quiescent devices, stable interrupt
    /// wiring, stable `csrs.time`).
    ///
    /// Returns the cycles actually consumed. The batch ends early (right
    /// *after* the offending cycle, exactly like the per-cycle loop
    /// would) whenever an issued instruction touches anything outside
    /// that frozen environment: an MMIO fetch, a non-cacheable data
    /// access, or a CSR access to `mip` (whose software-writable bit the
    /// per-cycle wiring would overwrite on the next cycle). Stores to
    /// ordinary memory accumulate on the bus for the caller to process —
    /// reservation clobbers and L1 shoot-downs of *other* cores commute
    /// with the skipped cycles because those cores never run in-batch.
    pub fn advance<B: Bus>(
        &mut self,
        bus: &mut B,
        mem: &mut MemSystem,
        core_idx: usize,
        base: u64,
        budget: u64,
    ) -> u64 {
        let mut used = 0u64;
        while used < budget {
            if self.stall > 0 {
                let n = self.stall.min(budget - used);
                self.cpu.csrs.mcycle = self.cpu.csrs.mcycle.wrapping_add(n);
                self.stall -= n;
                used += n;
                bus.elapse_timing_cycles(n);
                continue;
            }
            if self.parked {
                if !(self.cpu.csrs.wfi_wakeup() || self.cpu.csrs.pending_interrupt().is_some()) {
                    // Frozen wiring cannot wake it later in the span.
                    let n = budget - used;
                    self.cpu.csrs.mcycle = self.cpu.csrs.mcycle.wrapping_add(n);
                    self.idle_cycles += n;
                    used += n;
                    bus.elapse_timing_cycles(n);
                    break;
                }
                self.parked = false;
            }
            // Superblock fast path: single-issue with the decode cache
            // on and tracing off dispatches the whole remaining budget
            // through the functional core's superblock loop, charging
            // each retire through the shared cost model. Bit-identical to
            // the per-cycle branch below (see `Cpu::run_timed`); trace
            // mode and superscalar issue keep the per-cycle branch.
            if self.config.issue_width <= 1 && self.trace.is_none() && self.icache.is_some() {
                let span_base = base + used;
                let TimingCore {
                    cpu,
                    icache,
                    config,
                    retired,
                    ..
                } = self;
                let cache = icache.as_mut().expect("icache presence checked above");
                let summary = cpu.run_timed(
                    bus,
                    cache,
                    budget - used,
                    config.trap_cycles,
                    |pc, inst, annot, taken_branch, acc, span_cycles| {
                        *retired += 1;
                        let now = span_base + span_cycles;
                        config.charge(mem, core_idx, now, pc, inst, annot, taken_branch, acc)
                    },
                );
                used += summary.cycles;
                self.stall = summary.stall;
                match summary.stopped {
                    TimedStop::Wfi => {
                        self.parked = true;
                        self.idle_cycles += 1;
                    }
                    TimedStop::Device => break,
                    TimedStop::Budget => {}
                }
                continue;
            }

            self.cpu.csrs.mcycle = self.cpu.csrs.mcycle.wrapping_add(1);
            let stop = self.issue_cycle(bus, mem, core_idx, base + used) == Some(true);
            used += 1;
            bus.elapse_timing_cycles(1);
            if stop {
                break;
            }
        }
        used
    }

    /// Advances one target cycle.
    ///
    /// `core_idx` selects this core's L1s in `mem`; `now` is the absolute
    /// target cycle (used for DRAM bank timing).
    pub fn tick<B: Bus>(
        &mut self,
        bus: &mut B,
        mem: &mut MemSystem,
        core_idx: usize,
        now: u64,
    ) -> TickEvent {
        self.cpu.csrs.mcycle = self.cpu.csrs.mcycle.wrapping_add(1);

        if self.stall > 0 {
            self.stall -= 1;
            return TickEvent::Busy;
        }

        if self.parked {
            if self.cpu.csrs.wfi_wakeup() || self.cpu.csrs.pending_interrupt().is_some() {
                self.parked = false;
                // Fall through and execute this cycle.
            } else {
                self.idle_cycles += 1;
                return TickEvent::Idle;
            }
        }

        match self.issue_cycle(bus, mem, core_idx, now) {
            Some(_) => TickEvent::Issued,
            None => TickEvent::Idle,
        }
    }

    /// The issue cycle shared by [`tick`](Self::tick) and
    /// [`advance`](Self::advance)'s per-cycle branch, for an awake core
    /// with no stall left, after `mcycle` has advanced: issues up to
    /// `issue_width` instructions, stopping at the first that needs extra
    /// cycles (memory, multi-cycle units, control flow, traps) and loading
    /// its stall. Returns `None` when the core parked in WFI in the first
    /// slot (an idle cycle), else whether an issued instruction left the
    /// frozen environment ([`TimingConfig::charge`]'s `stop`).
    fn issue_cycle<B: Bus>(
        &mut self,
        bus: &mut B,
        mem: &mut MemSystem,
        core_idx: usize,
        now: u64,
    ) -> Option<bool> {
        let mut stop = false;
        for slot in 0..self.config.issue_width.max(1) {
            let outcome = match &mut self.icache {
                Some(cache) => self.cpu.step_cached(bus, cache),
                None => self.cpu.step(bus),
            }
            .expect("functional core does not fail at host level");
            let extra = match outcome {
                StepOutcome::Retired {
                    pc,
                    inst,
                    taken_branch,
                    mem: acc,
                    ..
                } => {
                    self.retired += 1;
                    // A retired instruction at an aligned cacheable PC was
                    // necessarily served by the cache when it is enabled;
                    // MMIO/misaligned PCs never match a filled tag.
                    let annot = self.icache.as_ref().map_or(0, |c| c.annotation(pc));
                    let step = self.config.charge(
                        mem,
                        core_idx,
                        now,
                        pc,
                        &inst,
                        annot,
                        taken_branch,
                        acc.as_ref(),
                    );
                    if let (Some(cache), true) = (&mut self.icache, step.annot != 0) {
                        cache.set_annotation(pc, step.annot);
                    }
                    if let Some((depth, trace)) = &mut self.trace {
                        if trace.len() == *depth {
                            trace.pop_front();
                        }
                        trace.push_back(TraceEntry {
                            cycle: self.cpu.csrs.mcycle,
                            pc,
                        });
                    }
                    stop |= step.stop;
                    step.extra
                }
                StepOutcome::Trapped { .. } => self.config.trap_cycles,
                StepOutcome::Wfi => {
                    self.parked = true;
                    if slot == 0 {
                        self.idle_cycles += 1;
                        return None;
                    }
                    break;
                }
            };
            if extra > 0 {
                self.stall = extra;
                break;
            }
        }
        Some(stop)
    }
}

impl firesim_core::snapshot::Snapshot for TraceEntry {
    fn save(&self, w: &mut firesim_core::snapshot::SnapshotWriter) {
        w.put_u64(self.cycle);
        w.put_u64(self.pc);
    }
    fn load(r: &mut firesim_core::snapshot::SnapshotReader<'_>) -> firesim_core::SimResult<Self> {
        Ok(TraceEntry {
            cycle: r.get_u64()?,
            pc: r.get_u64()?,
        })
    }
}

impl firesim_core::snapshot::Checkpoint for TimingCore {
    fn save_state(
        &self,
        w: &mut firesim_core::snapshot::SnapshotWriter,
    ) -> firesim_core::SimResult<()> {
        self.cpu.save_state(w)?;
        w.put_u64(self.stall);
        w.put_bool(self.parked);
        w.put_u64(self.retired);
        w.put_u64(self.idle_cycles);
        w.put(&self.trace);
        Ok(())
    }

    fn restore_state(
        &mut self,
        r: &mut firesim_core::snapshot::SnapshotReader<'_>,
    ) -> firesim_core::SimResult<()> {
        self.cpu.restore_state(r)?;
        self.stall = r.get_u64()?;
        self.parked = r.get_bool()?;
        self.retired = r.get_u64()?;
        self.idle_cycles = r.get_u64()?;
        self.trace = r.get()?;
        // The decode cache is not in the snapshot; memory was just
        // rewritten, so drop every cached decode and refill cold.
        if let Some(cache) = &mut self.icache {
            cache.invalidate_all();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memsys::MemSystemConfig;
    use firesim_riscv::asm::Assembler;
    use firesim_riscv::mem::Memory;
    use firesim_riscv::DRAM_BASE;

    /// Runs a program until the core parks, returning (cycles, core).
    fn run(build: impl FnOnce(&mut Assembler), max_cycles: u64) -> (u64, TimingCore) {
        let mut a = Assembler::new(DRAM_BASE);
        build(&mut a);
        let image = a.assemble().unwrap();
        let mut mem = Memory::new(DRAM_BASE, 1 << 20);
        mem.write_bytes(DRAM_BASE, &image).unwrap();
        let mut memsys = MemSystem::new(1, MemSystemConfig::default());
        let mut core = TimingCore::new(Cpu::new(0, DRAM_BASE), TimingConfig::default());
        for cycle in 0..max_cycles {
            if let TickEvent::Idle = core.tick(&mut mem, &mut memsys, 0, cycle) {
                return (cycle, core);
            }
        }
        panic!("did not park within {max_cycles} cycles");
    }

    #[test]
    fn straight_line_code_approaches_one_ipc() {
        // 64 nops: after the cold fetch miss, same-line fetches hit.
        let (cycles, core) = run(
            |a| {
                for _ in 0..64 {
                    a.nop();
                }
                a.wfi();
            },
            10_000,
        );
        assert_eq!(core.retired(), 64);
        // 64 instructions + a handful of line misses (64 insts = 4 lines)
        // at ~150 cycles each.
        assert!(cycles > 64, "cycles {cycles}");
        assert!(cycles < 64 + 5 * 300, "cycles {cycles}");
    }

    #[test]
    fn division_costs_more_than_addition() {
        let (add_cycles, _) = run(
            |a| {
                a.li(1, 100);
                a.li(2, 7);
                for _ in 0..16 {
                    a.add(3, 1, 2);
                }
                a.wfi();
            },
            100_000,
        );
        let (div_cycles, _) = run(
            |a| {
                a.li(1, 100);
                a.li(2, 7);
                for _ in 0..16 {
                    a.div(3, 1, 2);
                }
                a.wfi();
            },
            100_000,
        );
        let delta = div_cycles - add_cycles;
        assert_eq!(delta, 16 * (TimingConfig::default().div_cycles - 1));
    }

    #[test]
    fn warm_loads_hit_and_cold_loads_miss() {
        let (cycles_warm, _) = run(
            |a| {
                a.li(1, DRAM_BASE as i64 + 0x1000);
                for _ in 0..8 {
                    a.ld(2, 1, 0); // same line every time
                }
                a.wfi();
            },
            100_000,
        );
        let (cycles_cold, _) = run(
            |a| {
                a.li(1, DRAM_BASE as i64 + 0x1000);
                a.li(3, 64 * 1024); // stride: new line, set, and DRAM row
                for _ in 0..8 {
                    a.ld(2, 1, 0);
                    a.add(1, 1, 3);
                }
                a.wfi();
            },
            100_000,
        );
        assert!(
            cycles_cold > cycles_warm + 500,
            "cold {cycles_cold} vs warm {cycles_warm}"
        );
    }

    #[test]
    fn parked_core_counts_idle_cycles() {
        let mut a = Assembler::new(DRAM_BASE);
        a.wfi();
        let image = a.assemble().unwrap();
        let mut mem = Memory::new(DRAM_BASE, 4096);
        mem.write_bytes(DRAM_BASE, &image).unwrap();
        let mut memsys = MemSystem::new(1, MemSystemConfig::default());
        let mut core = TimingCore::new(Cpu::new(0, DRAM_BASE), TimingConfig::default());
        for cycle in 0..1000 {
            core.tick(&mut mem, &mut memsys, 0, cycle);
        }
        assert!(core.is_parked());
        assert!(core.idle_cycles() > 900);
        assert_eq!(core.cpu().csrs.mcycle, 1000);
    }

    /// SecVIII: the BOOM-class dual-issue model runs ALU-dense code nearly
    /// twice as fast as Rocket, with identical architectural results.
    #[test]
    fn boom_dual_issue_beats_rocket_on_alu_code() {
        let run_with = |config: TimingConfig| {
            // A loop so the I-cache warms up: 64 ALU ops per iteration,
            // 100 iterations.
            let mut a = Assembler::new(DRAM_BASE);
            a.li(1, 3);
            a.li(2, 5);
            a.li(9, 100);
            a.label("outer");
            for _ in 0..16 {
                a.add(3, 1, 2);
                a.xor(4, 3, 1);
                a.or(5, 4, 2);
                a.and(6, 5, 3);
            }
            a.addi(9, 9, -1);
            a.bnez(9, "outer");
            a.wfi();
            let image = a.assemble().unwrap();
            let mut mem = Memory::new(DRAM_BASE, 1 << 20);
            mem.write_bytes(DRAM_BASE, &image).unwrap();
            let mut memsys = MemSystem::new(1, MemSystemConfig::default());
            let mut core = TimingCore::new(Cpu::new(0, DRAM_BASE), config);
            for cycle in 0..100_000u64 {
                if let TickEvent::Idle = core.tick(&mut mem, &mut memsys, 0, cycle) {
                    return (cycle, core.retired(), core.cpu().read_reg(6));
                }
            }
            panic!("did not park");
        };
        let (rocket_cycles, rocket_retired, rocket_r6) = run_with(TimingConfig::rocket());
        let (boom_cycles, boom_retired, boom_r6) = run_with(TimingConfig::boom());
        // Same architectural execution.
        assert_eq!(rocket_retired, boom_retired);
        assert_eq!(rocket_r6, boom_r6);
        // Dual issue: at least 1.6x faster on this straight-line block.
        assert!(
            (boom_cycles as f64) < rocket_cycles as f64 / 1.6,
            "rocket {rocket_cycles} vs boom {boom_cycles}"
        );
    }

    /// Branch-heavy code narrows BOOM's advantage (deeper redirect).
    #[test]
    fn boom_advantage_shrinks_on_branchy_code() {
        let run_with = |config: TimingConfig| {
            let mut a = Assembler::new(DRAM_BASE);
            a.li(1, 0);
            a.li(2, 400);
            a.label("l");
            a.addi(1, 1, 1);
            a.blt(1, 2, "l");
            a.wfi();
            let image = a.assemble().unwrap();
            let mut mem = Memory::new(DRAM_BASE, 1 << 20);
            mem.write_bytes(DRAM_BASE, &image).unwrap();
            let mut memsys = MemSystem::new(1, MemSystemConfig::default());
            let mut core = TimingCore::new(Cpu::new(0, DRAM_BASE), config);
            for cycle in 0..100_000u64 {
                if let TickEvent::Idle = core.tick(&mut mem, &mut memsys, 0, cycle) {
                    return cycle;
                }
            }
            panic!("did not park");
        };
        let rocket = run_with(TimingConfig::rocket()) as f64;
        let boom = run_with(TimingConfig::boom()) as f64;
        // BOOM pays 3-cycle redirects: on a 2-instruction loop body it is
        // no better than (and close to) Rocket.
        assert!(boom > rocket * 0.8, "rocket {rocket} vs boom {boom}");
    }

    /// The decoded-instruction cache is a host-speed knob only: cycle
    /// counts, retired counts, and architectural state are bit-identical
    /// with it on or off, and the hot loop actually hits in it.
    #[test]
    fn decode_cache_is_architecturally_invisible() {
        let run_with = |decode_cache: bool| {
            let mut a = Assembler::new(DRAM_BASE);
            a.li(1, 3);
            a.li(2, 5);
            a.li(9, 50);
            a.label("outer");
            for _ in 0..8 {
                a.add(3, 1, 2);
                a.xor(4, 3, 1);
                a.mul(5, 4, 2);
            }
            a.addi(9, 9, -1);
            a.bnez(9, "outer");
            a.wfi();
            let image = a.assemble().unwrap();
            let mut mem = Memory::new(DRAM_BASE, 1 << 20);
            mem.write_bytes(DRAM_BASE, &image).unwrap();
            let mut memsys = MemSystem::new(1, MemSystemConfig::default());
            let config = TimingConfig {
                decode_cache,
                ..TimingConfig::default()
            };
            let mut core = TimingCore::new(Cpu::new(0, DRAM_BASE), config);
            for cycle in 0..1_000_000u64 {
                if let TickEvent::Idle = core.tick(&mut mem, &mut memsys, 0, cycle) {
                    return (cycle, core);
                }
            }
            panic!("did not park");
        };
        let (cycles_on, core_on) = run_with(true);
        let (cycles_off, core_off) = run_with(false);
        assert_eq!(cycles_on, cycles_off);
        assert_eq!(core_on.retired(), core_off.retired());
        assert_eq!(core_on.cpu().csrs.minstret, core_off.cpu().csrs.minstret);
        for r in 0..32 {
            assert_eq!(core_on.cpu().read_reg(r), core_off.cpu().read_reg(r));
        }
        assert_eq!(core_off.icache_stats(), None);
        let stats = core_on.icache_stats().expect("cache enabled");
        assert!(
            stats.hits > 10 * stats.misses,
            "hot loop should hit: {stats:?}"
        );
    }

    #[test]
    fn taken_branch_costs_extra() {
        // A loop of 100 iterations with a taken branch each time vs
        // straight-line equivalent instruction count.
        let (loop_cycles, core) = run(
            |a| {
                a.li(1, 0);
                a.li(2, 100);
                a.label("l");
                a.addi(1, 1, 1);
                a.blt(1, 2, "l");
                a.wfi();
            },
            100_000,
        );
        // ~200 executed instructions; 99 taken branches add 99 penalties.
        assert!(core.retired() >= 200);
        assert!(loop_cycles >= 200 + 99);
    }
}
