//! The core-local interruptor (CLINT): `mtime`, per-hart `mtimecmp`, and
//! software interrupts, with the standard SiFive/Rocket register layout.

use crate::mmio::MmioDevice;

/// Offset of hart 0's `msip` register.
pub const MSIP_BASE: u64 = 0x0;
/// Offset of hart 0's `mtimecmp` register.
pub const MTIMECMP_BASE: u64 = 0x4000;
/// Offset of the shared `mtime` register.
pub const MTIME: u64 = 0xbff8;

/// The CLINT.
#[derive(Debug)]
pub struct Clint {
    mtime: u64,
    mtimecmp: Vec<u64>,
    msip: Vec<bool>,
    /// Target cycles per `mtime` tick (the RTC runs slower than the core).
    cycles_per_tick: u64,
    cycle_accum: u64,
}

impl Clint {
    /// Creates a CLINT for `harts` harts. `cycles_per_tick` sets the RTC
    /// ratio (e.g. 3200 for a 1 MHz RTC under a 3.2 GHz core).
    ///
    /// # Panics
    ///
    /// Panics if `harts` or `cycles_per_tick` is zero.
    pub fn new(harts: usize, cycles_per_tick: u64) -> Self {
        assert!(harts > 0, "need at least one hart");
        assert!(cycles_per_tick > 0, "cycles_per_tick must be nonzero");
        Clint {
            mtime: 0,
            mtimecmp: vec![u64::MAX; harts],
            msip: vec![false; harts],
            cycles_per_tick,
            cycle_accum: 0,
        }
    }

    /// Advances target time by `cycles` core cycles.
    pub fn advance(&mut self, cycles: u64) {
        let accum = self.cycle_accum + cycles;
        if accum < self.cycles_per_tick {
            // No `mtime` tick this call: the common per-cycle case.
            self.cycle_accum = accum;
            return;
        }
        self.mtime = self.mtime.wrapping_add(accum / self.cycles_per_tick);
        self.cycle_accum = accum % self.cycles_per_tick;
    }

    /// Current `mtime` value.
    pub fn mtime(&self) -> u64 {
        self.mtime
    }

    /// Timer-interrupt level for `hart`.
    ///
    /// # Panics
    ///
    /// Panics if `hart` is out of range.
    pub fn timer_pending(&self, hart: usize) -> bool {
        self.mtime >= self.mtimecmp[hart]
    }

    /// Software-interrupt level for `hart`.
    ///
    /// # Panics
    ///
    /// Panics if `hart` is out of range.
    pub fn software_pending(&self, hart: usize) -> bool {
        self.msip[hart]
    }

    /// Core cycles of [`Clint::advance`] until `timer_pending(hart)` first
    /// becomes true: 0 when already pending, saturating at `u64::MAX` when
    /// the comparator is effectively unreachable (the reset value).
    ///
    /// Skip-ahead scheduling uses this as an upper bound on how many
    /// cycles a WFI-parked hart with the timer interrupt enabled can be
    /// bulk-advanced without missing its wake-up edge.
    ///
    /// # Panics
    ///
    /// Panics if `hart` is out of range.
    pub fn next_timer_expiry(&self, hart: usize) -> u64 {
        let cmp = self.mtimecmp[hart];
        if self.mtime >= cmp {
            return 0;
        }
        let ticks = u128::from(cmp - self.mtime);
        let cycles = ticks * u128::from(self.cycles_per_tick) - u128::from(self.cycle_accum);
        u64::try_from(cycles).unwrap_or(u64::MAX)
    }

    /// Core cycles of [`Clint::advance`] until `mtime` next increments.
    /// Always at least 1; advancing strictly fewer cycles leaves `mtime`
    /// (and therefore every `timer_pending` level) unchanged.
    pub fn cycles_to_next_tick(&self) -> u64 {
        self.cycles_per_tick - self.cycle_accum
    }
}

impl firesim_core::snapshot::Checkpoint for Clint {
    fn save_state(
        &self,
        w: &mut firesim_core::snapshot::SnapshotWriter,
    ) -> firesim_core::SimResult<()> {
        w.put_u64(self.mtime);
        w.put(&self.mtimecmp);
        w.put(&self.msip);
        w.put_u64(self.cycles_per_tick);
        w.put_u64(self.cycle_accum);
        Ok(())
    }

    fn restore_state(
        &mut self,
        r: &mut firesim_core::snapshot::SnapshotReader<'_>,
    ) -> firesim_core::SimResult<()> {
        self.mtime = r.get_u64()?;
        let mtimecmp: Vec<u64> = r.get()?;
        let msip: Vec<bool> = r.get()?;
        if mtimecmp.len() != self.mtimecmp.len() {
            return Err(firesim_core::SimError::checkpoint(format!(
                "CLINT snapshot has {} harts, target has {}",
                mtimecmp.len(),
                self.mtimecmp.len()
            )));
        }
        self.mtimecmp = mtimecmp;
        self.msip = msip;
        let cycles_per_tick = r.get_u64()?;
        if cycles_per_tick != self.cycles_per_tick {
            return Err(firesim_core::SimError::checkpoint(format!(
                "CLINT snapshot ticks every {cycles_per_tick} cycles, target every {}",
                self.cycles_per_tick
            )));
        }
        self.cycle_accum = r.get_u64()?;
        Ok(())
    }
}

impl MmioDevice for Clint {
    fn read(&mut self, offset: u64, _size: usize) -> u64 {
        if offset == MTIME {
            return self.mtime;
        }
        if offset >= MTIMECMP_BASE {
            let hart = ((offset - MTIMECMP_BASE) / 8) as usize;
            return self.mtimecmp.get(hart).copied().unwrap_or(0);
        }
        let hart = (offset / 4) as usize;
        self.msip.get(hart).map_or(0, |&b| u64::from(b))
    }

    fn write(&mut self, offset: u64, _size: usize, value: u64) {
        if offset == MTIME {
            self.mtime = value;
            return;
        }
        if offset >= MTIMECMP_BASE {
            let hart = ((offset - MTIMECMP_BASE) / 8) as usize;
            if let Some(slot) = self.mtimecmp.get_mut(hart) {
                *slot = value;
            }
            return;
        }
        let hart = (offset / 4) as usize;
        if let Some(slot) = self.msip.get_mut(hart) {
            *slot = value & 1 != 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mtime_advances_at_ratio() {
        let mut c = Clint::new(1, 100);
        c.advance(99);
        assert_eq!(c.mtime(), 0);
        c.advance(1);
        assert_eq!(c.mtime(), 1);
        c.advance(250);
        assert_eq!(c.mtime(), 3);
    }

    #[test]
    fn timer_interrupt_fires_at_mtimecmp() {
        let mut c = Clint::new(2, 1);
        c.write(MTIMECMP_BASE, 8, 50);
        c.write(MTIMECMP_BASE + 8, 8, 100);
        assert!(!c.timer_pending(0));
        c.advance(50);
        assert!(c.timer_pending(0));
        assert!(!c.timer_pending(1));
        c.advance(50);
        assert!(c.timer_pending(1));
        // Rearm by writing a future mtimecmp.
        c.write(MTIMECMP_BASE, 8, 1_000);
        assert!(!c.timer_pending(0));
    }

    #[test]
    fn software_interrupt_bits() {
        let mut c = Clint::new(2, 1);
        c.write(MSIP_BASE + 4, 8, 1);
        assert!(!c.software_pending(0));
        assert!(c.software_pending(1));
        c.write(MSIP_BASE + 4, 8, 0);
        assert!(!c.software_pending(1));
    }

    #[test]
    fn next_timer_expiry_matches_iterated_advance() {
        let mut c = Clint::new(1, 100);
        c.advance(37); // misalign the accumulator
        c.write(MTIMECMP_BASE, 8, 3);
        let predicted = c.next_timer_expiry(0);
        let mut actual = 0u64;
        while !c.timer_pending(0) {
            c.advance(1);
            actual += 1;
        }
        assert_eq!(predicted, actual);
        assert_eq!(c.next_timer_expiry(0), 0);
        // The reset comparator (u64::MAX) saturates rather than overflowing.
        let c2 = Clint::new(1, 3200);
        assert_eq!(c2.next_timer_expiry(0), u64::MAX);
    }

    #[test]
    fn cycles_to_next_tick_bounds_mtime() {
        let mut c = Clint::new(1, 100);
        c.advance(42);
        let gap = c.cycles_to_next_tick();
        assert_eq!(gap, 58);
        c.advance(gap - 1);
        assert_eq!(c.mtime(), 0);
        c.advance(1);
        assert_eq!(c.mtime(), 1);
        assert_eq!(c.cycles_to_next_tick(), 100);
    }

    #[test]
    fn mmio_reads() {
        let mut c = Clint::new(1, 1);
        c.advance(42);
        assert_eq!(c.read(MTIME, 8), 42);
        c.write(MTIMECMP_BASE, 8, 7);
        assert_eq!(c.read(MTIMECMP_BASE, 8), 7);
        c.write(MSIP_BASE, 8, 1);
        assert_eq!(c.read(MSIP_BASE, 8), 1);
    }
}
