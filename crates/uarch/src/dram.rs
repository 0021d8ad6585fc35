//! A DDR3-style DRAM timing model.
//!
//! FireSim attaches a synthesizable DRAM timing model (from MIDAS) to each
//! FPGA's on-board memory, parameterised to behave like DDR3. This module
//! is the software equivalent: per-bank open rows, tRCD/tCAS/tRP timing,
//! bank busy windows, an open-page policy, and periodic tREFI/tRFC
//! refresh. Latencies are expressed in CPU cycles at the target clock, so
//! callers simply add the returned latency to their current cycle.
//!
//! # Refresh as lazily materialised events
//!
//! Refresh is the only periodic behaviour in the model. Its deadlines are
//! treated as events that are materialised only when they matter:
//! [`Dram::advance_to`] moves a horizon counter in O(1), and a bank's
//! missed refreshes are collapsed into a closed form the next time that
//! bank is touched. Idle banks are never visited at all.
//!
//! The result must equal, bit for bit, walking every elapsed deadline into
//! every bank (DESIGN §18). That per-deadline model lives outside the
//! product crates, as the test oracle `firesim_reference::RefDram`;
//! snapshots serialise the *materialised* state, so the two produce the
//! same bytes and restore each other's. `tests/dram_equiv.rs`
//! differential-tests the pair.

/// DDR3-like timing parameters (in CPU cycles at the target clock).
///
/// Defaults approximate DDR3-1600 behind a 3.2 GHz core: the memory
/// controller runs at 800 MHz, so one memory-controller cycle is 4 CPU
/// cycles; tCL/tRCD/tRP of 11 controller cycles become 44 CPU cycles each.
/// Refresh defaults follow the DDR3 datasheet: one all-bank auto-refresh
/// every tREFI = 7.8 µs (24 960 CPU cycles), each taking tRFC = 260 ns
/// (832 CPU cycles) during which the banks are busy and all rows close.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of banks.
    pub banks: usize,
    /// Bytes per row (per bank).
    pub row_bytes: u64,
    /// CAS latency: activate-to-data when the row is already open.
    pub t_cas: u64,
    /// RAS-to-CAS delay: row activation cost.
    pub t_rcd: u64,
    /// Row precharge cost (closing the old row on a conflict).
    pub t_rp: u64,
    /// Data burst transfer time for one cache line.
    pub t_burst: u64,
    /// Fixed controller/queueing overhead per request.
    pub t_controller: u64,
    /// Refresh interval: one all-bank refresh is due every `t_refi`
    /// cycles. `0` disables refresh entirely.
    pub t_refi: u64,
    /// Refresh cycle time: how long each refresh keeps the banks busy.
    pub t_rfc: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            banks: 8,
            row_bytes: 8 * 1024,
            t_cas: 44,
            t_rcd: 44,
            t_rp: 44,
            t_burst: 16,
            t_controller: 20,
            t_refi: 24_960,
            t_rfc: 832,
        }
    }
}

impl DramConfig {
    /// The default configuration with refresh disabled — handy for tests
    /// that pin exact latency formulas.
    pub fn no_refresh() -> Self {
        DramConfig {
            t_refi: 0,
            ..DramConfig::default()
        }
    }
}

/// Per-request classification, for statistics and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOutcome {
    /// The addressed row was already open (page hit).
    Hit,
    /// The bank had no open row (page empty).
    Empty,
    /// Another row was open and had to be precharged (page conflict).
    Conflict,
}

/// DRAM access statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Requests that hit an open row.
    pub row_hits: u64,
    /// Requests to an idle bank.
    pub row_empty: u64,
    /// Requests that forced a precharge.
    pub row_conflicts: u64,
    /// Total cycles of service latency charged.
    pub total_latency: u64,
    /// All-bank refresh operations performed (one per elapsed tREFI).
    pub refreshes: u64,
    /// Cycles requests spent waiting specifically for a refresh to
    /// finish (the portion of each request's queueing delay attributable
    /// to tRFC busy windows, not to earlier requests).
    pub refresh_stall_cycles: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    /// Cycle at which the bank can next start a request.
    ready_at: u64,
    /// `ready_at` as assigned by the most recent refresh applied to this
    /// bank (0 if none). Monotone, and always ≤ `ready_at`; used to
    /// attribute request stall cycles to refresh.
    refresh_ready: u64,
    /// Number of refresh deadlines already applied to this bank. Banks
    /// lag the horizon and are caught up lazily.
    refreshed_through: u64,
}

impl Bank {
    /// The bank's state after catching up to `due` refresh deadlines
    /// (deadline *k* falls at `k * t_refi`). Pure: this is the
    /// closed-form collapse of the one-deadline-at-a-time recurrence
    /// `r_k = max(r_{k-1}, d_k) + t_rfc`, whose maximum
    /// over the elapsed deadlines is reached at one of the endpoints
    /// because the deadlines are linear in `k`.
    fn refreshed(&self, due: u64, t_refi: u64, t_rfc: u64) -> Bank {
        let missed = due - self.refreshed_through;
        if missed == 0 {
            return *self;
        }
        let first = (self.refreshed_through + 1) * t_refi;
        let last = due * t_refi;
        let ready = (self.ready_at + missed * t_rfc)
            .max(first + missed * t_rfc)
            .max(last + t_rfc);
        Bank {
            open_row: None,
            ready_at: ready,
            refresh_ready: ready,
            refreshed_through: due,
        }
    }
}

/// The DRAM timing model.
///
/// # Examples
///
/// ```
/// use firesim_uarch::{Dram, DramConfig};
///
/// let mut dram = Dram::new(DramConfig::default());
/// let first = dram.latency(0, 0x0000);            // row empty: activate
/// let hit = dram.latency(10_000, 8 * 64);         // same bank, open row
/// assert!(hit < first);
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    config: DramConfig,
    banks: Vec<Bank>,
    stats: DramStats,
    /// Highest cycle the model has observed (via `access` or
    /// `advance_to`): the refresh horizon. Deadlines at or below it are
    /// committed, lazily per bank.
    horizon: u64,
}

impl Dram {
    /// Creates an idle DRAM with all banks precharged.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is not a nonzero power of two or `row_bytes` is
    /// not a nonzero power of two.
    pub fn new(config: DramConfig) -> Self {
        assert!(
            config.banks.is_power_of_two() && config.banks > 0,
            "bank count must be a power of two"
        );
        assert!(
            config.row_bytes.is_power_of_two() && config.row_bytes > 0,
            "row size must be a power of two"
        );
        Dram {
            banks: vec![Bank::default(); config.banks],
            config,
            stats: DramStats::default(),
            horizon: 0,
        }
    }

    /// The configured timing parameters.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Number of refresh deadlines at or below `cycle`.
    #[inline]
    fn due(&self, cycle: u64) -> u64 {
        cycle.checked_div(self.config.t_refi).unwrap_or(0)
    }

    /// Advances the model's notion of time without issuing a request, so
    /// refresh bookkeeping stays current across idle spans. O(1) no
    /// matter how far `cycle` jumps: banks are caught up lazily when next
    /// touched. Never moves backwards.
    #[inline]
    pub fn advance_to(&mut self, cycle: u64) {
        if cycle > self.horizon {
            self.horizon = cycle;
            self.stats.refreshes = self.due(cycle);
        }
    }

    #[inline]
    fn map(&self, addr: u64) -> (usize, u64) {
        // Line-interleaved bank mapping: consecutive 64 B lines hit
        // consecutive banks; the row is the address within a bank.
        let line = addr >> 6;
        let bank = (line as usize) & (self.config.banks - 1);
        let bank_local = line >> self.config.banks.trailing_zeros();
        let row = (bank_local << 6) / self.config.row_bytes;
        (bank, row)
    }

    /// Issues a read or write beginning no earlier than cycle `now`;
    /// returns the cycle at which the data transfer completes.
    ///
    /// The model serialises requests per bank (a busy bank delays the
    /// request start) and applies open-page row policy. Refresh
    /// deadlines up to the horizon are committed first, so a request
    /// landing inside a tRFC busy window waits it out (counted in
    /// [`DramStats::refresh_stall_cycles`]).
    pub fn access(&mut self, now: u64, addr: u64) -> u64 {
        self.advance_to(now);
        let (bank_idx, row) = self.map(addr);
        let c = self.config;
        let due = self.due(self.horizon);
        let bank = &mut self.banks[bank_idx];
        if bank.refreshed_through < due {
            *bank = bank.refreshed(due, c.t_refi, c.t_rfc);
        }
        self.stats.refresh_stall_cycles += bank.refresh_ready.saturating_sub(now);
        let start = now.max(bank.ready_at);
        let (outcome, array_latency) = match bank.open_row {
            Some(open) if open == row => (RowOutcome::Hit, c.t_cas),
            Some(_) => (RowOutcome::Conflict, c.t_rp + c.t_rcd + c.t_cas),
            None => (RowOutcome::Empty, c.t_rcd + c.t_cas),
        };
        match outcome {
            RowOutcome::Hit => self.stats.row_hits += 1,
            RowOutcome::Empty => self.stats.row_empty += 1,
            RowOutcome::Conflict => self.stats.row_conflicts += 1,
        }
        bank.open_row = Some(row);
        let done = start + c.t_controller + array_latency + c.t_burst;
        bank.ready_at = done;
        self.stats.total_latency += done - now;
        done
    }

    /// Convenience: the latency (cycles from `now`) of an access.
    pub fn latency(&mut self, now: u64, addr: u64) -> u64 {
        self.access(now, addr) - now
    }
}

impl firesim_core::snapshot::Snapshot for DramStats {
    fn save(&self, w: &mut firesim_core::snapshot::SnapshotWriter) {
        w.put_u64(self.row_hits);
        w.put_u64(self.row_empty);
        w.put_u64(self.row_conflicts);
        w.put_u64(self.total_latency);
        w.put_u64(self.refreshes);
        w.put_u64(self.refresh_stall_cycles);
    }
    fn load(r: &mut firesim_core::snapshot::SnapshotReader<'_>) -> firesim_core::SimResult<Self> {
        Ok(DramStats {
            row_hits: r.get_u64()?,
            row_empty: r.get_u64()?,
            row_conflicts: r.get_u64()?,
            total_latency: r.get_u64()?,
            refreshes: r.get_u64()?,
            refresh_stall_cycles: r.get_u64()?,
        })
    }
}

impl firesim_core::snapshot::Checkpoint for Dram {
    /// Serialises the *materialised* state — every bank caught up to the
    /// refresh horizon — so the bytes do not depend on which banks were
    /// touched lately, and equal those of the per-deadline oracle.
    fn save_state(
        &self,
        w: &mut firesim_core::snapshot::SnapshotWriter,
    ) -> firesim_core::SimResult<()> {
        let due = self.due(self.horizon);
        w.put_usize(self.banks.len());
        for bank in &self.banks {
            let eff = if bank.refreshed_through < due {
                bank.refreshed(due, self.config.t_refi, self.config.t_rfc)
            } else {
                *bank
            };
            w.put(&eff.open_row);
            w.put_u64(eff.ready_at);
            w.put_u64(eff.refresh_ready);
        }
        w.put_u64(self.horizon);
        w.put(&self.stats);
        Ok(())
    }

    fn restore_state(
        &mut self,
        r: &mut firesim_core::snapshot::SnapshotReader<'_>,
    ) -> firesim_core::SimResult<()> {
        let n = r.get_usize()?;
        if n != self.banks.len() {
            return Err(firesim_core::SimError::checkpoint(format!(
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
        // Snapshots carry materialised banks: mark them caught up.
        let due = self.due(self.horizon);
        for bank in &mut self.banks {
            bank.refreshed_through = due;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DramConfig {
        DramConfig::no_refresh()
    }

    #[test]
    fn row_hit_is_faster_than_empty_and_conflict() {
        let mut d = Dram::new(cfg());
        let c = cfg();
        // Empty bank: tRCD + tCAS.
        let lat_empty = d.latency(0, 0);
        assert_eq!(lat_empty, c.t_controller + c.t_rcd + c.t_cas + c.t_burst);
        // Same row: the next line within bank 0 is `banks * 64` bytes away.
        let stride = (c.banks as u64) * 64;
        let lat_hit = d.latency(20_000, stride);
        assert_eq!(lat_hit, c.t_controller + c.t_cas + c.t_burst);
        // Conflict: same bank, different row.
        let far = c.row_bytes * (c.banks as u64) * 4;
        let lat_conflict = d.latency(40_000, far);
        assert_eq!(
            lat_conflict,
            c.t_controller + c.t_rp + c.t_rcd + c.t_cas + c.t_burst
        );
        assert!(lat_hit < lat_empty && lat_empty < lat_conflict);
        let s = d.stats();
        assert_eq!(s.row_hits, 1);
        assert!(s.row_empty >= 1);
        assert_eq!(s.row_conflicts, 1);
    }

    #[test]
    fn busy_bank_serialises() {
        let mut d = Dram::new(cfg());
        let done1 = d.access(0, 0);
        // Immediately hit the same bank: must start after done1.
        let done2 = d.access(1, 0);
        assert!(done2 > done1);
        let gap = done2 - done1;
        let c = cfg();
        assert_eq!(gap, c.t_controller + c.t_cas + c.t_burst); // row hit after wait
    }

    #[test]
    fn different_banks_overlap() {
        let mut d = Dram::new(cfg());
        let done1 = d.access(0, 0);
        let done2 = d.access(0, 64); // next line -> next bank
                                     // Both start at 0; same latency; so they finish together.
        assert_eq!(done1, done2);
    }

    #[test]
    fn idle_gap_allows_immediate_start() {
        let mut d = Dram::new(cfg());
        let done1 = d.access(0, 0);
        let done2 = d.access(done1 + 1000, 0);
        assert_eq!(done2 - (done1 + 1000), d.latency(done2 + 5000, 0));
    }

    #[test]
    fn refresh_closes_the_open_row() {
        let c = DramConfig::default();
        let mut d = Dram::new(c);
        let lat_first = d.latency(0, 0);
        // Past two tREFI deadlines (and clear of the second tRFC busy
        // window): the row the first access opened has been closed by
        // refresh, so this is Empty again, not Hit.
        let lat_after = d.latency(2 * c.t_refi + c.t_rfc, 0);
        assert_eq!(lat_after, lat_first);
        assert_eq!(d.stats().row_hits, 0);
        assert_eq!(d.stats().row_empty, 2);
        assert_eq!(d.stats().refreshes, 2);
    }

    #[test]
    fn request_near_deadline_waits_out_the_refresh() {
        let c = DramConfig::default();
        let mut d = Dram::new(c);
        // Idle bank, request lands 10 cycles after the first deadline:
        // the refresh occupies [t_refi, t_refi + t_rfc), so the request
        // stalls until the busy window ends.
        let now = c.t_refi + 10;
        let lat = d.latency(now, 0);
        let stall = (c.t_refi + c.t_rfc) - now;
        assert_eq!(lat, stall + c.t_controller + c.t_rcd + c.t_cas + c.t_burst);
        assert_eq!(d.stats().refresh_stall_cycles, stall);
    }

    #[test]
    fn advance_to_commits_refreshes_without_requests() {
        let c = DramConfig::default();
        let mut d = Dram::new(c);
        d.advance_to(10 * c.t_refi + 5);
        assert_eq!(d.stats().refreshes, 10);
        // Moving backwards is a no-op.
        d.advance_to(c.t_refi);
        assert_eq!(d.stats().refreshes, 10);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_bank_count_panics() {
        let _ = Dram::new(DramConfig {
            banks: 3,
            ..DramConfig::default()
        });
    }
}
