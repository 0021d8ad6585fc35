//! The per-deadline DRAM oracle.
//!
//! [`RefDram`] models the same DDR3 device as [`firesim_uarch::Dram`] —
//! line-interleaved banks, an open-page policy, tRCD/tCAS/tRP timing,
//! per-bank busy windows and periodic all-bank refresh — but applies
//! refresh the obvious way: whenever time moves past a tREFI deadline,
//! every bank is refreshed at once, one deadline at a time. That costs
//! O(deadlines × banks) per time advance and is trivially correct, which
//! is what an oracle is for. `Dram` instead collapses a bank's missed
//! deadlines into a closed form on its next touch; the two must agree bit
//! for bit (DESIGN §18).
//!
//! Snapshots use `Dram`'s layout, so the bytes compare directly and each
//! model restores the other's.

use firesim_core::snapshot::{Checkpoint, SnapshotReader, SnapshotWriter};
use firesim_core::{SimError, SimResult};
use firesim_uarch::{DramConfig, DramStats};

/// One bank of the oracle: always caught up to every elapsed deadline.
#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    /// Cycle at which the bank can next start a request.
    ready_at: u64,
    /// `ready_at` as set by the latest refresh (0 if none); a request
    /// that starts before it is stalled by refresh.
    refresh_ready: u64,
}

/// The per-deadline DRAM oracle. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct RefDram {
    config: DramConfig,
    banks: Vec<Bank>,
    stats: DramStats,
    /// Highest cycle observed so far.
    horizon: u64,
    /// Refresh deadlines applied to every bank so far.
    refreshed: u64,
}

impl RefDram {
    /// Creates an idle DRAM with all banks precharged.
    ///
    /// # Panics
    ///
    /// Panics if `banks` or `row_bytes` is not a nonzero power of two.
    pub fn new(config: DramConfig) -> Self {
        assert!(
            config.banks.is_power_of_two(),
            "bank count must be a power of two"
        );
        assert!(
            config.row_bytes.is_power_of_two(),
            "row size must be a power of two"
        );
        RefDram {
            banks: vec![Bank::default(); config.banks],
            config,
            stats: DramStats::default(),
            horizon: 0,
            refreshed: 0,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Moves time forward to `cycle` (never backwards), refreshing every
    /// bank once for each tREFI deadline passed on the way.
    pub fn advance_to(&mut self, cycle: u64) {
        if cycle <= self.horizon {
            return;
        }
        self.horizon = cycle;
        let DramConfig { t_refi, t_rfc, .. } = self.config;
        if t_refi == 0 {
            return;
        }
        while (self.refreshed + 1) * t_refi <= cycle {
            self.refreshed += 1;
            let deadline = self.refreshed * t_refi;
            for bank in &mut self.banks {
                bank.ready_at = bank.ready_at.max(deadline) + t_rfc;
                bank.refresh_ready = bank.ready_at;
                bank.open_row = None;
            }
        }
        self.stats.refreshes = self.refreshed;
    }

    /// Issues a read or write no earlier than cycle `now` and returns the
    /// cycle its data transfer completes.
    pub fn access(&mut self, now: u64, addr: u64) -> u64 {
        self.advance_to(now);
        let c = self.config;
        // Consecutive 64 B lines go to consecutive banks; the row is the
        // line's byte offset within its bank, in rows (bits shifted out
        // of the top are lost, as in `Dram`).
        let line = addr / 64;
        let banks = c.banks as u64;
        let bank = &mut self.banks[(line % banks) as usize];
        let row = ((line / banks) << 6) / c.row_bytes;

        self.stats.refresh_stall_cycles += bank.refresh_ready.saturating_sub(now);
        let array = match bank.open_row {
            Some(open) if open == row => {
                self.stats.row_hits += 1;
                c.t_cas
            }
            Some(_) => {
                self.stats.row_conflicts += 1;
                c.t_rp + c.t_rcd + c.t_cas
            }
            None => {
                self.stats.row_empty += 1;
                c.t_rcd + c.t_cas
            }
        };
        bank.open_row = Some(row);
        let done = now.max(bank.ready_at) + c.t_controller + array + c.t_burst;
        bank.ready_at = done;
        self.stats.total_latency += done - now;
        done
    }
}

impl Checkpoint for RefDram {
    /// Writes `Dram`'s snapshot layout: the banks, the horizon, the stats.
    fn save_state(&self, w: &mut SnapshotWriter) -> SimResult<()> {
        w.put_usize(self.banks.len());
        for bank in &self.banks {
            w.put(&bank.open_row);
            w.put_u64(bank.ready_at);
            w.put_u64(bank.refresh_ready);
        }
        w.put_u64(self.horizon);
        w.put(&self.stats);
        Ok(())
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> SimResult<()> {
        let n = r.get_usize()?;
        if n != self.banks.len() {
            return Err(SimError::checkpoint(format!(
                "DRAM snapshot has {n} banks, config expects {}",
                self.banks.len()
            )));
        }
        for bank in &mut self.banks {
            bank.open_row = r.get()?;
            bank.ready_at = r.get_u64()?;
            bank.refresh_ready = r.get_u64()?;
        }
        self.horizon = r.get_u64()?;
        self.stats = r.get()?;
        // Snapshots hold banks caught up to every deadline at or below
        // the horizon.
        self.refreshed = self.horizon.checked_div(self.config.t_refi).unwrap_or(0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firesim_uarch::Dram;

    fn snap(d: &dyn Checkpoint) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        d.save_state(&mut w).unwrap();
        w.into_bytes()
    }

    #[test]
    fn advance_to_applies_every_deadline() {
        let c = DramConfig::default();
        let mut d = RefDram::new(c);
        d.advance_to(10 * c.t_refi + 5);
        assert_eq!(d.stats().refreshes, 10);
        // Moving backwards is a no-op.
        d.advance_to(c.t_refi);
        assert_eq!(d.stats().refreshes, 10);
        // Every bank sat out the tenth refresh and has its row closed.
        assert!(d
            .banks
            .iter()
            .all(|b| b.open_row.is_none() && b.ready_at == 10 * c.t_refi + c.t_rfc));
    }

    #[test]
    fn event_and_reference_snapshots_are_identical() {
        let c = DramConfig::default();
        let mut ev = Dram::new(c);
        let mut rf = RefDram::new(c);
        // Interleave accesses, long idle jumps, and time-only advances.
        let nows = [0, 100, c.t_refi + 3, 4 * c.t_refi, 4 * c.t_refi + 77];
        for (i, &now) in nows.iter().enumerate() {
            let addr = (i as u64) * 8 * 64 + 64;
            assert_eq!(ev.access(now, addr), rf.access(now, addr), "access {i}");
        }
        ev.advance_to(9 * c.t_refi + 1);
        rf.advance_to(9 * c.t_refi + 1);
        assert_eq!(ev.stats(), rf.stats());
        assert_eq!(snap(&ev), snap(&rf));
    }

    #[test]
    fn snapshots_cross_restore_between_models() {
        let c = DramConfig::default();
        let mut ev = Dram::new(c);
        ev.access(0, 0);
        ev.access(c.t_refi * 3 + 9, 128);
        ev.advance_to(c.t_refi * 5);
        let mut rf = RefDram::new(c);
        rf.restore_state(&mut SnapshotReader::new(&snap(&ev)))
            .unwrap();
        // Continue both identically.
        let now = c.t_refi * 6 + 13;
        assert_eq!(ev.access(now, 64), rf.access(now, 64));
        assert_eq!(snap(&ev), snap(&rf));
        // And back: the oracle's bytes restore into the model.
        let mut back = Dram::new(c);
        back.restore_state(&mut SnapshotReader::new(&snap(&rf)))
            .unwrap();
        assert_eq!(back.access(now + 1, 0), rf.access(now + 1, 0));
        assert_eq!(snap(&back), snap(&rf));
    }

    #[test]
    fn restore_refuses_a_different_bank_count() {
        let mut rf = RefDram::new(DramConfig::default());
        let bytes = snap(&RefDram::new(DramConfig {
            banks: 4,
            ..DramConfig::default()
        }));
        assert!(rf.restore_state(&mut SnapshotReader::new(&bytes)).is_err());
    }
}
