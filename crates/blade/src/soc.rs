//! The cycle-exact server blade SoC.
//!
//! [`RtlBlade`] composes the pieces the paper's Rocket Chip blades have
//! (Fig 2): 1-4 cores with L1s, a shared L2, DDR3-modeled DRAM, and the
//! NIC/block-device/UART peripherals, and exposes the whole node as a
//! [`SimAgent`] with a FAME-1 decoupled network interface: one token in
//! and one token out per target cycle (port 0 on both sides).
//!
//! The blade is "powered off" by a store to [`crate::POWEROFF_ADDR`],
//! which records an exit code, snapshots the probe, and makes
//! [`SimAgent::done`] true — the mechanism behind the paper's
//! boot-then-power-off simulation-rate benchmark (Fig 8).

use std::sync::Arc;

use parking_lot::Mutex;

use firesim_core::{AgentCtx, SimAgent};
use firesim_devices::{map, BlockDevice, Clint, CopyAccel, MmioDevice, Nic, NicStats, Uart};
use firesim_net::Flit;
use firesim_riscv::exec::Cpu;
use firesim_riscv::mem::{Bus, MemFault, Memory};
use firesim_riscv::{Interrupt, DRAM_BASE};
use firesim_uarch::{MemSystem, TickEvent, TimingCore, TraceEntry};

use crate::config::BladeConfig;
use crate::POWEROFF_ADDR;

/// Observable state of a blade, shared with the harness while the engine
/// owns the blade itself.
#[derive(Debug, Default, Clone)]
pub struct BladeProbe {
    /// Console output so far.
    pub uart: String,
    /// Exit code once powered off.
    pub exit_code: Option<u8>,
    /// Copy of the mailbox memory region, captured at power-off.
    pub mailbox: Vec<u8>,
    /// Total instructions retired across cores.
    pub retired: u64,
    /// Target cycles simulated.
    pub cycles: u64,
    /// NIC statistics.
    pub nic: NicStats,
    /// AutoCounter-style samples: `(cycle, instructions retired so far)`,
    /// one per simulation window. IPC over an interval is the retired
    /// delta divided by the cycle delta.
    pub retired_samples: Vec<(u64, u64)>,
    /// TracerV-style trace of the last retired instructions per core
    /// (enabled with [`RtlBlade::enable_trace`]).
    pub trace: Vec<Vec<TraceEntry>>,
}

/// The SoC bus: dispatches physical addresses to DRAM and MMIO devices.
struct SocBus<'a> {
    mem: &'a mut Memory,
    nic: &'a mut Nic,
    blockdev: &'a mut BlockDevice,
    uart: &'a mut Uart,
    clint: &'a mut Clint,
    accel: Option<&'a mut CopyAccel>,
    poweroff: &'a mut Option<u8>,
    /// Store addresses performed this instruction (for LR/SC clobbering).
    stores: &'a mut Vec<u64>,
    /// Device ticks owed but not yet replayed during a batched issue span
    /// (see [`RtlBlade::advance_batched`]). The per-cycle paths never
    /// increment it, so the lazy catch-up below stays dormant there.
    device_lag: &'a mut u64,
}

impl SocBus<'_> {
    /// Replays deferred device cycles before an MMIO access can observe
    /// (or mutate) device state. Batched spans only start while the NIC
    /// is quiescent and end at the first MMIO cycle, and the span budget
    /// keeps the lag below every in-flight disk transfer's remaining
    /// latency, so both skips reproduce the per-cycle reference exactly.
    /// The CLINT needs no catch-up: span budgets never cross an `mtime`
    /// increment, so its MMIO-visible state is constant over the span.
    fn catch_up_devices(&mut self) {
        let lag = *self.device_lag;
        if lag > 0 {
            self.nic.skip_quiescent(lag);
            self.blockdev.skip(lag);
            *self.device_lag = 0;
        }
    }

    fn device_for(&mut self, addr: u64) -> Option<(&mut dyn MmioDevice, u64)> {
        self.catch_up_devices();
        if (map::CLINT_BASE..map::CLINT_BASE + map::CLINT_SIZE).contains(&addr) {
            Some((self.clint, addr - map::CLINT_BASE))
        } else if (map::UART_BASE..map::UART_BASE + map::UART_SIZE).contains(&addr) {
            Some((self.uart, addr - map::UART_BASE))
        } else if (map::NIC_BASE..map::NIC_BASE + map::NIC_SIZE).contains(&addr) {
            Some((self.nic, addr - map::NIC_BASE))
        } else if (map::BLKDEV_BASE..map::BLKDEV_BASE + map::BLKDEV_SIZE).contains(&addr) {
            Some((self.blockdev, addr - map::BLKDEV_BASE))
        } else if (map::ACCEL_BASE..map::ACCEL_BASE + map::ACCEL_SIZE).contains(&addr) {
            match &mut self.accel {
                Some(a) => Some((*a, addr - map::ACCEL_BASE)),
                None => None,
            }
        } else {
            None
        }
    }
}

impl Bus for SocBus<'_> {
    fn load(&mut self, addr: u64, size: usize) -> Result<u64, MemFault> {
        if self.mem.contains(addr, size) {
            return self.mem.load(addr, size);
        }
        if let Some((dev, off)) = self.device_for(addr) {
            return Ok(dev.read(off, size));
        }
        Err(MemFault {
            addr,
            is_store: false,
        })
    }

    fn store(&mut self, addr: u64, size: usize, value: u64) -> Result<(), MemFault> {
        if self.mem.contains(addr, size) {
            self.stores.push(addr);
            return self.mem.store(addr, size, value);
        }
        if addr == POWEROFF_ADDR {
            *self.poweroff = Some(value as u8);
            return Ok(());
        }
        if let Some((dev, off)) = self.device_for(addr) {
            dev.write(off, size, value);
            return Ok(());
        }
        Err(MemFault {
            addr,
            is_store: true,
        })
    }

    // Decode-cache generations: only DRAM is cacheable code (MMIO
    // fetches, were a program to attempt them, always take the slow
    // path); `Memory` answers `None` outside its range, which also
    // covers the POWEROFF word and unmapped holes. Device DMA
    // (NIC/blockdev/accel) funnels through `Memory::write_bytes`, so it
    // bumps the same generations CPU stores do.
    fn code_generation(&self, addr: u64) -> Option<u64> {
        self.mem.code_generation(addr)
    }

    fn write_generation(&self) -> u64 {
        self.mem.write_generation()
    }

    fn elapse_timing_cycles(&mut self, cycles: u64) {
        *self.device_lag += cycles;
    }
}

/// A cycle-exact server blade. See the [module docs](self).
pub struct RtlBlade {
    name: String,
    cores: Vec<TimingCore>,
    memsys: MemSystem,
    mem: Memory,
    nic: Nic,
    blockdev: BlockDevice,
    uart: Uart,
    clint: Clint,
    accel: Option<CopyAccel>,
    cycle: u64,
    powered_off: Option<u8>,
    mailbox: Option<(u64, usize)>,
    autocounter: bool,
    uart_read: usize,
    probe: Arc<Mutex<BladeProbe>>,
    store_scratch: Vec<u64>,
    rx_scratch: Vec<(u32, Flit)>,
    /// Device ticks owed during a batched issue span; scratch state that
    /// is always 0 between spans (not checkpointed).
    device_lag: u64,
    /// When set, [`advance_ports`](Self::advance_ports) runs the
    /// per-cycle reference loop instead of the event-driven scheduler.
    /// Taken from [`firesim_uarch::TimingConfig::reference_timing`].
    reference_timing: bool,
    /// Gates the wall-clock reads behind `host_ns`; off by default so
    /// the fast path never touches the host clock.
    profile_host: bool,
    /// Host nanoseconds spent inside [`advance_ports`](Self::advance_ports),
    /// measured by the blade itself (one clock pair per window) so
    /// per-blade host MIPS is available without `enable_metrics`.
    /// Only populated after [`enable_host_profiling`](Self::enable_host_profiling).
    /// Host-side only: excluded from checkpoints and from deterministic
    /// report aggregates.
    host_ns: u64,
}

impl std::fmt::Debug for RtlBlade {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtlBlade")
            .field("name", &self.name)
            .field("cores", &self.cores.len())
            .field("cycle", &self.cycle)
            .field("powered_off", &self.powered_off)
            .finish()
    }
}

impl RtlBlade {
    /// Builds a blade with the given NIC MAC address.
    pub fn new(name: impl Into<String>, mac: firesim_net::MacAddr, config: BladeConfig) -> Self {
        let cores = (0..config.cores)
            .map(|i| TimingCore::new(Cpu::new(i as u64, DRAM_BASE), config.timing))
            .collect();
        RtlBlade {
            name: name.into(),
            cores,
            memsys: MemSystem::new(config.cores, config.mem),
            mem: Memory::new(DRAM_BASE, config.dram_bytes),
            nic: Nic::new(mac, config.nic),
            blockdev: BlockDevice::new(config.blockdev),
            uart: Uart::new(),
            clint: Clint::new(config.cores, 3200),
            accel: config.accel.then(CopyAccel::new),
            cycle: 0,
            powered_off: None,
            mailbox: None,
            autocounter: false,
            uart_read: 0,
            probe: Arc::new(Mutex::new(BladeProbe::default())),
            store_scratch: Vec::new(),
            rx_scratch: Vec::new(),
            device_lag: 0,
            reference_timing: config.timing.reference_timing,
            profile_host: false,
            host_ns: 0,
        }
    }

    /// Loads a bare-metal program image at the reset vector.
    ///
    /// # Panics
    ///
    /// Panics if the image does not fit in DRAM.
    pub fn load_program(&mut self, image: &[u8]) {
        self.mem
            .write_bytes(DRAM_BASE, image)
            .expect("program image must fit in DRAM");
    }

    /// Writes raw bytes into blade DRAM (program arguments, data sets).
    ///
    /// # Panics
    ///
    /// Panics if the range is outside DRAM.
    pub fn write_dram(&mut self, addr: u64, bytes: &[u8]) {
        self.mem
            .write_bytes(addr, bytes)
            .expect("address range must be inside DRAM");
    }

    /// Declares a mailbox region to be snapshotted into the probe at
    /// power-off (how benchmark programs return measurements).
    pub fn set_mailbox(&mut self, addr: u64, len: usize) {
        self.mailbox = Some((addr, len));
    }

    /// Pre-loads the block device with an image.
    pub fn load_disk_image(&mut self, image: &[u8]) {
        self.blockdev.load_image(image);
    }

    /// Enables TracerV-style instruction tracing on every core, keeping
    /// the last `depth` records per core in the probe.
    pub fn enable_trace(&mut self, depth: usize) {
        for core in &mut self.cores {
            core.enable_trace(depth);
        }
    }

    /// Enables AutoCounter-style sampling: one `(cycle, retired)` sample
    /// per simulation window appears in the probe.
    pub fn enable_autocounter(&mut self) {
        self.autocounter = true;
    }

    /// Shared probe handle for reading results while/after the engine runs.
    pub fn probe(&self) -> Arc<Mutex<BladeProbe>> {
        Arc::clone(&self.probe)
    }

    /// Enables wall-clock measurement of [`advance_ports`](Self::advance_ports)
    /// (the `host_mips` app counter). Off by default: the measurement
    /// itself costs two host clock reads per window.
    pub fn enable_host_profiling(&mut self) {
        self.profile_host = true;
    }

    /// The blade's MAC address.
    pub fn mac(&self) -> firesim_net::MacAddr {
        self.nic.mac()
    }

    fn sync_probe(&mut self) {
        let mut p = self.probe.lock();
        let out = self.uart.output();
        if out.len() > self.uart_read {
            p.uart
                .push_str(&String::from_utf8_lossy(&out[self.uart_read..]));
            self.uart_read = out.len();
        }
        p.exit_code = self.powered_off;
        p.retired = self.cores.iter().map(TimingCore::retired).sum();
        p.cycles = self.cycle;
        p.nic = self.nic.stats();
        if self.autocounter {
            let retired = p.retired;
            p.retired_samples.push((self.cycle, retired));
        }
        if self.powered_off.is_some() && p.trace.is_empty() {
            p.trace = self
                .cores
                .iter()
                .map(|c| c.trace().copied().collect())
                .collect();
        }
        if self.powered_off.is_some() && p.mailbox.is_empty() {
            if let Some((addr, len)) = self.mailbox {
                if let Ok(bytes) = self.mem.read_bytes(addr, len) {
                    p.mailbox = bytes.to_vec();
                }
            }
        }
    }
}

impl RtlBlade {
    /// Advances the blade one window using the given ports of `ctx`.
    ///
    /// This is the whole blade model; [`SimAgent::advance`] calls it with
    /// ports `(0, 0)`, and [`Supernode`](crate::Supernode) drives several
    /// blades on distinct ports of one shared context. Input tokens are
    /// drained in place so the engine can recycle the window's buffer.
    pub fn advance_ports(&mut self, ctx: &mut AgentCtx<Flit>, in_port: usize, out_port: usize) {
        let host_start = self.profile_host.then(std::time::Instant::now);
        let window = ctx.window();
        self.rx_scratch.clear();
        self.rx_scratch.extend(ctx.drain_input(in_port));

        if self.reference_timing {
            self.advance_reference(ctx, out_port, window);
        } else {
            self.advance_batched(ctx, out_port, window);
        }
        // Bring the DRAM's refresh bookkeeping up to the window boundary
        // even when no request observed the later cycles, so snapshots
        // taken here are independent of the blade's access pattern tail.
        self.memsys.advance_to(self.cycle);

        if let Some(start) = host_start {
            self.host_ns += start.elapsed().as_nanos() as u64;
        }
        self.sync_probe();
    }

    /// Wires the device interrupt lines and the `time` CSR into every
    /// core, exactly as the top of one reference-loop iteration does.
    fn wire_interrupts(&mut self) {
        let ext = self.nic.interrupt()
            || self.blockdev.interrupt()
            || self.accel.as_ref().is_some_and(MmioDevice::interrupt);
        for (i, core) in self.cores.iter_mut().enumerate() {
            let csrs = &mut core.cpu_mut().csrs;
            csrs.set_interrupt(Interrupt::External, ext);
            csrs.set_interrupt(Interrupt::Timer, self.clint.timer_pending(i));
            csrs.set_interrupt(Interrupt::Software, self.clint.software_pending(i));
            csrs.time = self.clint.mtime();
        }
    }

    /// LR/SC coherence for the stores core `i` just performed, in order:
    /// each clobbers the other harts' reservations on its line and shoots
    /// the line down in their L1s.
    fn publish_stores(&mut self, i: usize) {
        for &addr in &self.store_scratch {
            for (j, other) in self.cores.iter_mut().enumerate() {
                if j != i {
                    other.cpu_mut().clobber_reservation(addr);
                }
            }
            self.memsys.shootdown(addr, Some(i));
        }
    }

    /// One powered-on reference cycle after the wiring: tick each core,
    /// then the DMA devices and the CLINT.
    fn tick_cores_and_devices(&mut self) {
        for i in 0..self.cores.len() {
            self.store_scratch.clear();
            let mut bus = SocBus {
                mem: &mut self.mem,
                nic: &mut self.nic,
                blockdev: &mut self.blockdev,
                uart: &mut self.uart,
                clint: &mut self.clint,
                accel: self.accel.as_mut(),
                poweroff: &mut self.powered_off,
                stores: &mut self.store_scratch,
                device_lag: &mut self.device_lag,
            };
            let ev = self.cores[i].tick(&mut bus, &mut self.memsys, i, self.cycle);
            if let TickEvent::Issued = ev {
                self.publish_stores(i);
            }
        }
        self.blockdev.tick(&mut self.mem);
        if let Some(accel) = &mut self.accel {
            accel.tick(&mut self.mem);
        }
        self.clint.advance(1);
    }

    /// The unconditional NIC token exchange for window offset `off`. The
    /// NIC keeps exchanging tokens even when the blade is powered off
    /// (the paper's token discipline: every cycle consumes and produces
    /// a token; a powered-off node just produces empty ones).
    fn nic_cycle(
        &mut self,
        ctx: &mut AgentCtx<Flit>,
        out_port: usize,
        off: u32,
        rx_idx: &mut usize,
    ) {
        let rx = match self.rx_scratch.get(*rx_idx) {
            Some(&(o, f)) if o == off => {
                *rx_idx += 1;
                Some(f)
            }
            _ => None,
        };
        if let Some(flit) = self.nic.tick(&mut self.mem, rx) {
            ctx.push_output(out_port, off, flit);
        }
    }

    /// Advances only the NIC over window offsets `off..end`, for spans in
    /// which nothing else on the blade does per-cycle work: a quiescent
    /// NIC jumps to the next rx flit in O(1), a busy one takes one
    /// [`nic_cycle`](Self::nic_cycle) per cycle. The caller accounts
    /// `self.cycle` for the span.
    fn nic_span(
        &mut self,
        ctx: &mut AgentCtx<Flit>,
        out_port: usize,
        mut off: u32,
        end: u32,
        rx_idx: &mut usize,
    ) {
        while off < end {
            if self.nic.is_quiescent() {
                // An rx offset below `off` can never match the exchange
                // (the reference loop would never consume it either), so
                // clamping keeps the arithmetic safe.
                let next_rx = self
                    .rx_scratch
                    .get(*rx_idx)
                    .map_or(end, |&(o, _)| o)
                    .clamp(off, end);
                if next_rx > off {
                    self.nic.skip_quiescent(u64::from(next_rx - off));
                    off = next_rx;
                    continue;
                }
            }
            self.nic_cycle(ctx, out_port, off, rx_idx);
            off += 1;
        }
    }

    /// The per-cycle reference schedule: every target cycle is hosted by
    /// one loop iteration. Kept verbatim as the differential-testing
    /// baseline for [`advance_batched`](Self::advance_batched); selected
    /// with [`firesim_uarch::TimingConfig::reference_timing`].
    fn advance_reference(&mut self, ctx: &mut AgentCtx<Flit>, out_port: usize, end: u32) {
        let mut off = 0u32;
        let mut rx_idx = 0usize;
        while off < end {
            if self.powered_off.is_none() {
                self.wire_interrupts();
                self.tick_cores_and_devices();
            }
            self.nic_cycle(ctx, out_port, off, &mut rx_idx);
            self.cycle += 1;
            off += 1;
        }
    }

    /// The event-driven schedule. Produces bit-identical state to
    /// [`advance_reference`](Self::advance_reference) while hosting many
    /// target cycles per iteration whenever the blade is quiescent enough:
    ///
    /// * **No core can issue** — every core parked or stalled and the
    ///   accelerator idle: cores, block device and CLINT jump to the next
    ///   event (timer expiry, stall end, disk completion) in O(1), and
    ///   only the NIC is stepped, through [`nic_span`](Self::nic_span).
    /// * **Batched issue** — exactly one runnable core: it issues up to a
    ///   budget of cycles against one bus borrow with the interrupt wiring
    ///   hoisted out of the loop; the budget guarantees every skipped
    ///   rewiring would have been a no-op, and the span stops at the
    ///   first MMIO-visible cycle.
    /// * **Reference cycle** — anything else falls back to one verbatim
    ///   per-cycle iteration.
    fn advance_batched(&mut self, ctx: &mut AgentCtx<Flit>, out_port: usize, end: u32) {
        let mut off = 0u32;
        let mut rx_idx = 0usize;
        while off < end {
            if self.powered_off.is_some() {
                // Only the NIC runs, and nothing can power the blade on.
                self.nic_span(ctx, out_port, off, end, &mut rx_idx);
                self.cycle += u64::from(end - off);
                return;
            }

            // Offset of the next undelivered rx flit, clamped as in
            // `nic_span`.
            let next_rx = self
                .rx_scratch
                .get(rx_idx)
                .map_or(end, |&(o, _)| o)
                .clamp(off, end);

            // Every reference iteration starts with this wiring; decide
            // from the post-wiring state how far the blade can jump.
            self.wire_interrupts();

            let mut active = 0usize;
            let mut active_idx = 0usize;
            // Tightest wakeup bound over the inactive cores (stall expiry
            // or armed-timer expiry; parked cores with the timer masked
            // are unbounded).
            let mut inactive_bound = u64::MAX;
            // Some parked core has the external interrupt enabled, so a
            // NIC completion could wake it.
            let mut nic_can_wake = false;
            for (i, core) in self.cores.iter().enumerate() {
                // Only a parked core's answer depends on the timer.
                let timer = if core.is_parked() {
                    self.clint.next_timer_expiry(i)
                } else {
                    u64::MAX
                };
                let ev = core.next_event(timer);
                if ev == 0 {
                    active += 1;
                    active_idx = i;
                } else {
                    inactive_bound = inactive_bound.min(ev);
                    nic_can_wake |= core.is_parked()
                        && core.cpu().csrs.mie & (1 << Interrupt::External.bit()) != 0;
                }
            }
            let nic_quiet = self.nic.is_quiescent();
            let accel_idle = !self.accel.as_ref().is_some_and(CopyAccel::busy);
            let blockdev_busy = self.blockdev.min_busy_cycles();
            let remaining = u64::from(end - off);

            if active == 0 && accel_idle && (nic_quiet || !nic_can_wake) {
                // No core can issue, so none touches memory or MMIO before
                // the earliest bound and the NIC's DMA cannot interleave
                // with a core access. The `- 1` on the disk bound keeps its
                // next completion (and the interrupt it raises) inside
                // per-cycle handling. A core the NIC could wake keeps the
                // span short of the next rx flit, with the NIC quiescent
                // throughout, so its interrupt line cannot move.
                let mut k = remaining.min(inactive_bound);
                if let Some(m) = blockdev_busy {
                    k = k.min(m.saturating_sub(1));
                }
                if nic_can_wake {
                    k = k.min(u64::from(next_rx - off));
                }
                if k > 0 {
                    for core in &mut self.cores {
                        core.skip(k);
                    }
                    self.blockdev.skip(k);
                    // The reference re-wires at the top of each iteration,
                    // but with no core issuing only the last wiring is ever
                    // observed: it sees the NIC after k-1 cycles and mtime
                    // after k-1 CLINT advances. Reproduce exactly that one
                    // between the NIC's last two cycles. A quiescent NIC
                    // with no rx flit in the span cannot move its interrupt
                    // line, so it skips the whole span before the wiring.
                    let span_end = off + k as u32;
                    let nic_end = if nic_quiet && next_rx >= span_end {
                        span_end
                    } else {
                        span_end - 1
                    };
                    self.clint.advance(k - 1);
                    self.nic_span(ctx, out_port, off, nic_end, &mut rx_idx);
                    self.wire_interrupts();
                    self.clint.advance(1);
                    self.nic_span(ctx, out_port, nic_end, span_end, &mut rx_idx);
                    self.cycle += k;
                    off = span_end;
                    continue;
                }
            } else if active == 1 && nic_quiet && accel_idle {
                // Batched issue. The budget guarantees that over the span
                // (a) no other core would wake, (b) mtime never moves, so
                // the skipped rewirings are no-ops, (c) no disk transfer
                // completes before the final cycle, and (d) at most the
                // final cycle consumes an rx flit.
                let mut budget = remaining
                    .min(self.clint.cycles_to_next_tick())
                    .min(inactive_bound)
                    .min(u64::from(next_rx - off).saturating_add(1));
                if let Some(m) = blockdev_busy {
                    budget = budget.min(m);
                }
                let i = active_idx;
                self.store_scratch.clear();
                self.device_lag = 0;
                let mut bus = SocBus {
                    mem: &mut self.mem,
                    nic: &mut self.nic,
                    blockdev: &mut self.blockdev,
                    uart: &mut self.uart,
                    clint: &mut self.clint,
                    accel: self.accel.as_mut(),
                    poweroff: &mut self.powered_off,
                    stores: &mut self.store_scratch,
                    device_lag: &mut self.device_lag,
                };
                let used = self.cores[i].advance(&mut bus, &mut self.memsys, i, self.cycle, budget);
                // Deferring coherence past the span end is exact: the
                // other cores never run inside it and `shootdown` only
                // flips their L1 valid bits (no stats, no LRU movement).
                self.publish_stores(i);
                for (j, core) in self.cores.iter_mut().enumerate() {
                    if j != i {
                        core.skip(used);
                    }
                }
                // The devices owe one tick per span cycle. Any MMIO inside
                // the span already flushed the ticks before it lazily
                // (see `SocBus::catch_up_devices`); replay the remainder,
                // with the final cycle as real ticks since the span's last
                // cycle may have programmed a device.
                let lag = self.device_lag;
                self.device_lag = 0;
                debug_assert!(
                    used >= 1 && lag >= 1 && lag <= used,
                    "batched span accounting broken: used {used}, lag {lag}"
                );
                self.blockdev.skip(lag - 1);
                self.blockdev.tick(&mut self.mem);
                if let Some(accel) = &mut self.accel {
                    accel.tick(&mut self.mem);
                }
                self.clint.advance(used);
                self.nic.skip_quiescent(lag - 1);
                let last = off + used as u32 - 1;
                self.nic_cycle(ctx, out_port, last, &mut rx_idx);
                self.cycle += used;
                off += used as u32;
                continue;
            }

            // Fallback: one verbatim reference cycle (wiring already done
            // above).
            self.tick_cores_and_devices();
            self.nic_cycle(ctx, out_port, off, &mut rx_idx);
            self.cycle += 1;
            off += 1;
        }
    }
}

impl firesim_core::snapshot::Checkpoint for RtlBlade {
    fn save_state(
        &self,
        w: &mut firesim_core::snapshot::SnapshotWriter,
    ) -> firesim_core::SimResult<()> {
        w.put_usize(self.cores.len());
        for core in &self.cores {
            core.save_state(w)?;
        }
        self.memsys.save_state(w)?;
        self.mem.save_state(w)?;
        self.nic.save_state(w)?;
        self.blockdev.save_state(w)?;
        self.uart.save_state(w)?;
        self.clint.save_state(w)?;
        w.put_bool(self.accel.is_some());
        if let Some(accel) = &self.accel {
            accel.save_state(w)?;
        }
        w.put_u64(self.cycle);
        w.put(&self.powered_off);
        w.put_usize(self.uart_read);
        let p = self.probe.lock();
        w.put_str(&p.uart);
        w.put(&p.exit_code);
        w.put_bytes(&p.mailbox);
        w.put_u64(p.retired);
        w.put_u64(p.cycles);
        w.put(&p.nic);
        w.put(&p.retired_samples);
        w.put(&p.trace);
        drop(p);
        // Reserved flag byte, always `false`. Snapshots of the removed
        // sampled timing mode set it and appended estimator state after
        // it; it stays so that every existing snapshot, and every digest
        // taken over one, keeps its bytes.
        w.put_bool(false);
        Ok(())
    }

    fn restore_state(
        &mut self,
        r: &mut firesim_core::snapshot::SnapshotReader<'_>,
    ) -> firesim_core::SimResult<()> {
        let cores = r.get_usize()?;
        if cores != self.cores.len() {
            return Err(firesim_core::SimError::checkpoint(format!(
                "blade snapshot has {cores} cores, target has {}",
                self.cores.len()
            )));
        }
        for core in &mut self.cores {
            core.restore_state(r)?;
        }
        self.memsys.restore_state(r)?;
        self.mem.restore_state(r)?;
        self.nic.restore_state(r)?;
        self.blockdev.restore_state(r)?;
        self.uart.restore_state(r)?;
        self.clint.restore_state(r)?;
        let has_accel = r.get_bool()?;
        if has_accel != self.accel.is_some() {
            return Err(firesim_core::SimError::checkpoint(format!(
                "blade snapshot {} an accelerator, target {}",
                if has_accel { "has" } else { "lacks" },
                if self.accel.is_some() {
                    "has one"
                } else {
                    "lacks one"
                }
            )));
        }
        if let Some(accel) = &mut self.accel {
            accel.restore_state(r)?;
        }
        self.cycle = r.get_u64()?;
        self.powered_off = r.get()?;
        self.uart_read = r.get_usize()?;
        // Restore probe contents in place so handles held by the harness
        // keep observing this blade.
        let mut p = self.probe.lock();
        p.uart = r.get_str()?;
        p.exit_code = r.get()?;
        p.mailbox = r.get_bytes()?.to_vec();
        p.retired = r.get_u64()?;
        p.cycles = r.get_u64()?;
        p.nic = r.get()?;
        p.retired_samples = r.get()?;
        p.trace = r.get()?;
        drop(p);
        if r.get_bool()? {
            return Err(firesim_core::SimError::checkpoint(
                "blade snapshot carries sampled-timing state, a mode this simulator no longer has",
            ));
        }
        self.store_scratch.clear();
        self.rx_scratch.clear();
        self.device_lag = 0;
        Ok(())
    }
}

impl SimAgent for RtlBlade {
    type Token = Flit;

    fn name(&self) -> &str {
        &self.name
    }

    fn num_inputs(&self) -> usize {
        1
    }

    fn num_outputs(&self) -> usize {
        1
    }

    fn done(&self) -> bool {
        self.powered_off.is_some()
    }

    fn advance(&mut self, ctx: &mut AgentCtx<Flit>) {
        self.advance_ports(ctx, 0, 0);
    }

    fn as_checkpoint(&mut self) -> Option<&mut dyn firesim_core::snapshot::Checkpoint> {
        Some(self)
    }

    fn app_counters(&self, out: &mut Vec<(String, u64)>) {
        let retired: u64 = self.cores.iter().map(TimingCore::retired).sum();
        out.push(("retired".to_owned(), retired));
        out.push(("cycles".to_owned(), self.cycle));
        out.push((
            "powered_off".to_owned(),
            u64::from(self.powered_off.is_some()),
        ));
        self.nic.stats().export("nic_", out);
        // Host-dependent counters, `host_`-prefixed so report consumers
        // (and `RunReport::deterministic_aggregates`) can tell them from
        // target-deterministic ones.
        let (mut hits, mut misses, mut invalidations) = (0u64, 0u64, 0u64);
        for stats in self.cores.iter().filter_map(TimingCore::icache_stats) {
            hits += stats.hits;
            misses += stats.misses;
            invalidations += stats.invalidations;
        }
        out.push(("host_icache_hits".to_owned(), hits));
        out.push(("host_icache_misses".to_owned(), misses));
        out.push(("host_icache_invalidations".to_owned(), invalidations));
        out.push((
            "host_icache_hit_permille".to_owned(),
            (hits * 1000).checked_div(hits + misses).unwrap_or(0),
        ));
        // Memory-hierarchy counters. The values themselves are
        // target-deterministic, but they describe the simulator's model
        // internals rather than the workload, so they ride under the
        // `host_` prefix and stay out of deterministic aggregates.
        let ms = self.memsys.stats();
        for (name, stats) in [("l1i", ms.l1i), ("l1d", ms.l1d), ("l2", ms.l2)] {
            out.push((format!("host_{name}_hits"), stats.hits));
            out.push((format!("host_{name}_misses"), stats.misses));
        }
        out.push(("host_dram_row_hits".to_owned(), ms.dram.row_hits));
        out.push(("host_dram_row_empty".to_owned(), ms.dram.row_empty));
        out.push(("host_dram_row_conflicts".to_owned(), ms.dram.row_conflicts));
        out.push(("host_dram_refreshes".to_owned(), ms.dram.refreshes));
        out.push((
            "host_dram_refresh_stall_cycles".to_owned(),
            ms.dram.refresh_stall_cycles,
        ));
        // Retired instructions per host-second, in millions:
        // retired / (host_ns / 1e9) / 1e6 = retired * 1000 / host_ns.
        // Zero until `enable_host_profiling` has produced a measurement.
        out.push((
            "host_mips".to_owned(),
            retired
                .saturating_mul(1000)
                .checked_div(self.host_ns)
                .unwrap_or(0),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firesim_core::snapshot::{Checkpoint, SnapshotReader, SnapshotWriter};
    use firesim_core::{Cycle, Engine, TokenWindow};
    use firesim_net::MacAddr;
    use firesim_riscv::asm::Assembler;

    fn mk_blade(name: &str, idx: u64, image: &[u8]) -> RtlBlade {
        let mut b = RtlBlade::new(
            name,
            MacAddr::from_node_index(idx),
            BladeConfig::single_core().with_dram_bytes(1 << 20),
        );
        b.load_program(image);
        b
    }

    /// A program that prints "ok\n", stores 42 in the mailbox, and powers
    /// off.
    fn hello_image() -> Vec<u8> {
        let mut a = Assembler::new(DRAM_BASE);
        a.li(5, map::UART_BASE as i64);
        for ch in b"ok\n" {
            a.li(6, i64::from(*ch));
            a.sd(6, 5, 0);
        }
        a.li(5, DRAM_BASE as i64 + 0x8000);
        a.li(6, 42);
        a.sd(6, 5, 0);
        a.li(5, POWEROFF_ADDR as i64);
        a.li(6, 0); // exit code 0
        a.sd(6, 5, 0);
        a.label("spin");
        a.j("spin");
        a.assemble().unwrap()
    }

    #[test]
    fn boots_prints_and_powers_off() {
        let mut b = mk_blade("node0", 0, &hello_image());
        b.set_mailbox(DRAM_BASE + 0x8000, 8);
        let probe = b.probe();
        let mut engine: Engine<Flit> = Engine::new(100);
        let b0 = engine.add_agent(Box::new(b));
        let mut b1 = mk_blade("node1", 1, &hello_image());
        b1.set_mailbox(DRAM_BASE + 0x8000, 8);
        let b1 = engine.add_agent(Box::new(b1));
        engine.connect(b0, 0, b1, 0, Cycle::new(100)).unwrap();
        engine.connect(b1, 0, b0, 0, Cycle::new(100)).unwrap();
        let summary = engine.run_until_done(Cycle::new(1_000_000)).unwrap();
        assert!(summary.cycles < Cycle::new(1_000_000));
        let p = probe.lock();
        assert_eq!(p.uart, "ok\n");
        assert_eq!(p.exit_code, Some(0));
        assert_eq!(&p.mailbox[..], &42u64.to_le_bytes());
        assert!(p.retired > 10);
    }

    /// TracerV + AutoCounter: the probe carries an instruction trace and
    /// per-window retirement samples.
    #[test]
    fn trace_and_autocounter_instrumentation() {
        let mut b = mk_blade("traced", 0, &hello_image());
        b.set_mailbox(DRAM_BASE + 0x8000, 8);
        b.enable_trace(32);
        b.enable_autocounter();
        let probe = b.probe();
        let peer = mk_blade("peer", 1, &hello_image());
        let mut engine: Engine<Flit> = Engine::new(100);
        let b0 = engine.add_agent(Box::new(b));
        let b1 = engine.add_agent(Box::new(peer));
        engine.connect(b0, 0, b1, 0, Cycle::new(100)).unwrap();
        engine.connect(b1, 0, b0, 0, Cycle::new(100)).unwrap();
        engine.run_until_done(Cycle::new(1_000_000)).unwrap();

        let p = probe.lock();
        assert_eq!(p.exit_code, Some(0));
        // Trace: one ring per core; entries have increasing cycles and
        // DRAM-resident PCs.
        assert_eq!(p.trace.len(), 1);
        let trace = &p.trace[0];
        assert!(!trace.is_empty() && trace.len() <= 32);
        for w in trace.windows(2) {
            assert!(w[1].cycle > w[0].cycle, "{w:?}");
        }
        assert!(trace.iter().all(|e| e.pc >= DRAM_BASE));
        // AutoCounter: cumulative samples, nondecreasing in both fields.
        assert!(p.retired_samples.len() >= 2);
        for w in p.retired_samples.windows(2) {
            assert!(w[1].0 > w[0].0 && w[1].1 >= w[0].1, "{w:?}");
        }
        assert_eq!(p.retired_samples.last().unwrap().1, p.retired);
    }

    /// A timer interrupt flows CLINT -> mip -> trap handler: the program
    /// arms mtimecmp, parks in WFI, and powers off from the handler.
    #[test]
    fn clint_timer_interrupt_wakes_wfi() {
        use firesim_riscv::csr::addr as csr;
        let mtimecmp = (map::CLINT_BASE + firesim_devices::clint::MTIMECMP_BASE) as i64;
        let mut a = Assembler::new(DRAM_BASE);
        a.la(5, "handler");
        a.csrw(csr::MTVEC, 5);
        // Arm the timer ~50 RTC ticks out (RTC = core/3200).
        a.li(6, mtimecmp);
        a.li(7, 50);
        a.sd(7, 6, 0);
        a.li(7, 0x080); // MTIE
        a.csrw(csr::MIE, 7);
        a.csrsi(csr::MSTATUS, 8); // MIE
        a.label("sleep");
        a.wfi();
        a.j("sleep");
        a.label("handler");
        // Record mtime progress and power off.
        a.csrr(8, csr::TIME);
        a.li(13, DRAM_BASE as i64 + 0x8000);
        a.sd(8, 13, 0);
        a.li(5, POWEROFF_ADDR as i64);
        a.sd(0, 5, 0);
        a.label("spin");
        a.j("spin");
        let image = a.assemble().unwrap();

        let mut b = mk_blade("timer", 0, &image);
        b.set_mailbox(DRAM_BASE + 0x8000, 8);
        let probe = b.probe();
        let peer = mk_blade("peer", 1, &hello_image());
        let mut engine: Engine<Flit> = Engine::new(100);
        let b0 = engine.add_agent(Box::new(b));
        let b1 = engine.add_agent(Box::new(peer));
        engine.connect(b0, 0, b1, 0, Cycle::new(100)).unwrap();
        engine.connect(b1, 0, b0, 0, Cycle::new(100)).unwrap();
        let summary = engine.run_until_done(Cycle::new(5_000_000)).unwrap();
        assert!(summary.cycles < Cycle::new(5_000_000));
        let p = probe.lock();
        assert_eq!(p.exit_code, Some(0));
        let mtime = u64::from_le_bytes(p.mailbox[0..8].try_into().unwrap());
        assert!(mtime >= 50, "handler ran before mtimecmp: mtime {mtime}");
    }

    /// Four harts atomically increment a shared counter with AMOADD while
    /// hart 0 spins until all contributions land — exercising multicore
    /// scheduling, atomics, and the L1 shoot-down path.
    #[test]
    fn quad_core_atomic_counter() {
        let n = 200i64;
        let counter = DRAM_BASE as i64 + 0x9000;
        let mut a = Assembler::new(DRAM_BASE);
        a.csrr(5, firesim_riscv::csr::addr::MHARTID);
        a.li(10, counter);
        a.li(7, 1);
        a.li(8, n);
        a.label("work");
        a.amoadd_d(6, 7, 10);
        a.addi(8, 8, -1);
        a.bnez(8, "work");
        a.bnez(5, "park"); // non-zero harts park
                           // Hart 0: wait for all 4 harts' contributions.
        a.li(9, 4 * n);
        a.label("wait");
        a.ld(6, 10, 0);
        a.bne(6, 9, "wait");
        a.li(13, DRAM_BASE as i64 + 0x8000);
        a.sd(6, 13, 0);
        a.li(5, POWEROFF_ADDR as i64);
        a.sd(0, 5, 0);
        a.label("park");
        a.label("spin");
        a.j("spin");
        let image = a.assemble().unwrap();

        let mut blade = RtlBlade::new(
            "quad",
            MacAddr::from_node_index(0),
            BladeConfig::quad_core().with_dram_bytes(1 << 20),
        );
        blade.load_program(&image);
        blade.set_mailbox(DRAM_BASE + 0x8000, 8);
        let probe = blade.probe();
        let peer = mk_blade("peer", 1, &hello_image());
        let mut engine: Engine<Flit> = Engine::new(100);
        let b0 = engine.add_agent(Box::new(blade));
        let b1 = engine.add_agent(Box::new(peer));
        engine.connect(b0, 0, b1, 0, Cycle::new(100)).unwrap();
        engine.connect(b1, 0, b0, 0, Cycle::new(100)).unwrap();
        engine.run_until_done(Cycle::new(50_000_000)).unwrap();

        let p = probe.lock();
        assert_eq!(p.exit_code, Some(0), "hart 0 never saw the full count");
        assert_eq!(
            u64::from_le_bytes(p.mailbox[0..8].try_into().unwrap()),
            4 * n as u64
        );
    }

    /// A dual-core blade stopped mid-run: hart 1 parked in WFI with every
    /// interrupt masked, hart 0 polling for the completion of a 1 KiB
    /// send the NIC is still transmitting. Returns the blade's snapshot
    /// and a same-config blade to restore into.
    fn mid_run_snapshot() -> (Vec<u8>, RtlBlade) {
        use firesim_devices::nic::reg;

        let mut a = Assembler::new(DRAM_BASE);
        a.csrr(5, firesim_riscv::csr::addr::MHARTID);
        a.bnez(5, "park");
        a.li(7, map::NIC_BASE as i64 + reg::SEND_REQ as i64);
        a.li(6, (DRAM_BASE as i64 + 0x2000) | (1024 << 48));
        a.sd(6, 7, 0);
        a.li(7, map::NIC_BASE as i64 + reg::SEND_COMP as i64);
        a.label("wait");
        a.ld(6, 7, 0);
        a.beqz(6, "wait");
        a.label("park");
        a.wfi();
        a.j("park");
        let image = a.assemble().unwrap();

        // Small memories keep the snapshot, and so the prefix sweep, short.
        let mk = || {
            let mut config = BladeConfig::single_core().with_dram_bytes(16 << 10);
            config.cores = 2;
            config.blockdev.sectors = 1;
            let tiny = |size_bytes| firesim_uarch::CacheConfig {
                size_bytes,
                ways: 2,
                line_bytes: 64,
            };
            config.mem.l1i = tiny(1 << 10);
            config.mem.l1d = tiny(1 << 10);
            config.mem.l2 = tiny(4 << 10);
            let mut b = RtlBlade::new("mid", MacAddr::from_node_index(0), config);
            b.load_program(&image);
            b
        };
        const W: u32 = 64;
        let mut blade = mk();
        for window in 0..1_000u64 {
            let inputs = vec![TokenWindow::new(W)];
            let mut ctx = AgentCtx::standalone(Cycle::new(window * u64::from(W)), W, inputs, 1);
            blade.advance_ports(&mut ctx, 0, 0);
            if !blade.nic.is_quiescent() && blade.cores[1].is_parked() {
                let mut w = SnapshotWriter::new();
                blade.save_state(&mut w).unwrap();
                return (w.into_bytes(), mk());
            }
        }
        panic!("never reached a window boundary with the NIC busy and hart 1 parked");
    }

    /// The snapshot's last byte is the reserved flag of the removed
    /// sampled timing mode: always written `false`, and a `true` there
    /// (a snapshot of that mode) is a typed error on restore.
    #[test]
    fn snapshot_of_removed_sampled_mode_is_a_typed_error() {
        let (mut bytes, mut target) = mid_run_snapshot();
        target
            .restore_state(&mut SnapshotReader::new(&bytes))
            .expect("the unmodified snapshot restores");
        let flag = bytes.last_mut().unwrap();
        assert_eq!(*flag, 0, "the reserved byte is written false");
        *flag = 1;
        let err = target
            .restore_state(&mut SnapshotReader::new(&bytes))
            .unwrap_err();
        assert!(
            matches!(err, firesim_core::SimError::Checkpoint { .. }),
            "{err}"
        );
    }

    /// Every strict prefix of a real mid-run snapshot fails to restore
    /// with an error instead of a panic.
    #[test]
    fn truncated_snapshot_never_panics() {
        let (bytes, mut target) = mid_run_snapshot();
        for len in 0..bytes.len() {
            assert!(
                target
                    .restore_state(&mut SnapshotReader::new(&bytes[..len]))
                    .is_err(),
                "a {len}-byte prefix of a {}-byte snapshot restored",
                bytes.len()
            );
        }
    }

    #[test]
    fn two_blades_exchange_a_packet() {
        // Node 0 sends one raw Ethernet frame to node 1 via the NICs,
        // wired back-to-back with a 100-cycle link; node 1 busy-polls its
        // NIC and powers off once the frame lands in memory.
        use firesim_devices::nic::reg;

        let payload_len = 32u32;
        let frame_len = 14 + payload_len;

        // Sender: builds a frame in DRAM, posts a send request, waits for
        // the completion, powers off.
        let mut a = Assembler::new(DRAM_BASE);
        let buf = DRAM_BASE as i64 + 0x4000;
        // dst MAC = node 1.
        a.li(5, buf);
        a.li(6, 0x02); // dst byte 0
        a.sb(6, 5, 0);
        for i in 1..5 {
            a.sb(0, 5, i);
        }
        a.li(6, 0x01);
        a.sb(6, 5, 5);
        // src MAC = node 0 (zeros beyond the 0x02 prefix).
        a.li(6, 0x02);
        a.sb(6, 5, 6);
        for i in 7..12 {
            a.sb(0, 5, i);
        }
        // Ethertype 0x88B7 (stream) big-endian.
        a.li(6, 0x88);
        a.sb(6, 5, 12);
        a.li(6, 0xB7);
        a.sb(6, 5, 13);
        // Payload: bytes 0xA5.
        a.li(6, 0xA5);
        for i in 0..payload_len as i64 {
            a.sb(6, 5, 14 + i);
        }
        // Send request.
        a.li(7, map::NIC_BASE as i64 + reg::SEND_REQ as i64);
        a.li(6, buf | ((frame_len as i64) << 48));
        a.sd(6, 7, 0);
        // Wait for send completion.
        a.li(7, map::NIC_BASE as i64 + reg::SEND_COMP as i64);
        a.label("wait");
        a.ld(6, 7, 0);
        a.beqz(6, "wait");
        a.li(5, POWEROFF_ADDR as i64);
        a.sd(0, 5, 0);
        a.label("spin");
        a.j("spin");
        let sender = a.assemble().unwrap();

        // Receiver: posts a receive buffer, polls the receive completion,
        // copies the length to the mailbox, powers off.
        let mut a = Assembler::new(DRAM_BASE);
        let rxbuf = DRAM_BASE as i64 + 0x6000;
        a.li(7, map::NIC_BASE as i64 + reg::RECV_REQ as i64);
        a.li(6, rxbuf);
        a.sd(6, 7, 0);
        a.li(7, map::NIC_BASE as i64 + reg::RECV_COMP as i64);
        a.label("wait");
        a.ld(6, 7, 0);
        a.beqz(6, "wait");
        // mailbox <- completion value (len + 1), first payload byte.
        a.li(5, DRAM_BASE as i64 + 0x8000);
        a.sd(6, 5, 0);
        a.li(8, rxbuf);
        a.lbu(9, 8, 14);
        a.sd(9, 5, 8);
        a.li(5, POWEROFF_ADDR as i64);
        a.sd(0, 5, 0);
        a.label("spin");
        a.j("spin");
        let receiver = a.assemble().unwrap();

        let s = mk_blade("sender", 0, &sender);
        let mut r = mk_blade("receiver", 1, &receiver);
        r.set_mailbox(DRAM_BASE + 0x8000, 16);
        let r_probe = r.probe();
        let s_probe = s.probe();

        let mut engine: Engine<Flit> = Engine::new(100);
        let sid = engine.add_agent(Box::new(s));
        let rid = engine.add_agent(Box::new(r));
        engine.connect(sid, 0, rid, 0, Cycle::new(100)).unwrap();
        engine.connect(rid, 0, sid, 0, Cycle::new(100)).unwrap();
        engine.run_until_done(Cycle::new(2_000_000)).unwrap();

        let rp = r_probe.lock();
        assert_eq!(rp.exit_code, Some(0));
        let comp = u64::from_le_bytes(rp.mailbox[0..8].try_into().unwrap());
        assert_eq!(comp, u64::from(frame_len) + 1);
        assert_eq!(rp.mailbox[8], 0xA5);
        let sp = s_probe.lock();
        assert_eq!(sp.nic.tx_packets, 1);
        assert_eq!(rp.nic.rx_packets, 1);
    }
}
