//! The block device controller (paper §III-A3).
//!
//! The controller contains a *frontend* that interfaces with the CPU over
//! MMIO and one or more *trackers* that move data between memory and the
//! block device. To start a transfer the CPU programs the request fields
//! and reads the allocation register, which dispatches the request to a
//! tracker and returns the tracker's ID. When a transfer completes, the
//! tracker posts its ID to the completion queue and raises the interrupt;
//! the CPU pops the completion queue and matches IDs. The device is
//! organised in 512-byte sectors: transfers are multiples of 512 bytes,
//! sector-aligned on the device but byte-addressable in memory.

use std::collections::VecDeque;

use firesim_riscv::mem::Memory;

use crate::mmio::MmioDevice;

/// Sector size in bytes.
pub const SECTOR_BYTES: usize = 512;

/// Register map offsets.
#[allow(missing_docs)]
pub mod reg {
    pub const ADDR: u64 = 0x00;
    pub const OFFSET: u64 = 0x08;
    pub const LEN: u64 = 0x10;
    pub const WRITE: u64 = 0x18;
    pub const ALLOC: u64 = 0x20;
    pub const COMP: u64 = 0x28;
    pub const NSECTORS: u64 = 0x30;
    pub const NTRACKERS: u64 = 0x38;
}

/// Returned by [`reg::ALLOC`] when no tracker is free.
pub const ALLOC_FAIL: u64 = u64::MAX;

/// Block device configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockDeviceConfig {
    /// Device capacity in sectors.
    pub sectors: u64,
    /// Number of concurrent trackers.
    pub trackers: usize,
    /// Fixed access latency per request, in cycles (seek/command overhead).
    pub base_latency: u64,
    /// Additional cycles per sector transferred.
    pub per_sector_latency: u64,
}

impl Default for BlockDeviceConfig {
    fn default() -> Self {
        Self::ssd()
    }
}

impl BlockDeviceConfig {
    /// Spinning-disk timing: ~4 ms seek + rotational delay, streaming
    /// transfers afterwards (at 3.2 GHz target cycles).
    pub fn disk() -> Self {
        BlockDeviceConfig {
            sectors: 64 * 1024,
            trackers: 1,                // one head
            base_latency: 12_800_000,   // ~4 ms
            per_sector_latency: 12_800, // ~250 MB/s streaming
        }
    }

    /// NAND SSD timing: ~60 us access, high internal parallelism.
    pub fn ssd() -> Self {
        BlockDeviceConfig {
            sectors: 64 * 1024, // 32 MiB image
            trackers: 4,
            base_latency: 4_000,
            per_sector_latency: 400,
        }
    }

    /// 3D XPoint-class timing: ~10 us access (the emerging technology
    /// the paper's §VIII plans to evaluate with pluggable timing).
    pub fn xpoint() -> Self {
        BlockDeviceConfig {
            sectors: 64 * 1024,
            trackers: 8,
            base_latency: 640, // ~200 ns device + controller
            per_sector_latency: 180,
        }
    }
}

#[derive(Debug, Clone)]
struct Request {
    mem_addr: u64,
    sector: u64,
    sectors: u64,
    is_write: bool,
    remaining_cycles: u64,
}

/// The block device. See the [module docs](self).
#[derive(Debug)]
pub struct BlockDevice {
    config: BlockDeviceConfig,
    data: Vec<u8>,
    // Frontend staging registers.
    addr: u64,
    offset: u64,
    len: u64,
    is_write: bool,
    trackers: Vec<Option<Request>>,
    /// Number of `Some` trackers, so an idle device's per-cycle calls
    /// return without scanning. Derived state: not checkpointed.
    busy: usize,
    completions: VecDeque<u64>,
    /// Requests rejected for being out of range or zero-length.
    pub rejected: u64,
}

impl BlockDevice {
    /// Creates a zero-filled device.
    pub fn new(config: BlockDeviceConfig) -> Self {
        BlockDevice {
            data: vec![0; config.sectors as usize * SECTOR_BYTES],
            addr: 0,
            offset: 0,
            len: 0,
            is_write: false,
            trackers: (0..config.trackers).map(|_| None).collect(),
            busy: 0,
            completions: VecDeque::new(),
            rejected: 0,
            config,
        }
    }

    /// Loads an image into the device starting at sector 0.
    ///
    /// # Panics
    ///
    /// Panics if the image exceeds the device capacity.
    pub fn load_image(&mut self, image: &[u8]) {
        assert!(
            image.len() <= self.data.len(),
            "image larger than block device"
        );
        self.data[..image.len()].copy_from_slice(image);
    }

    /// Raw device contents (for assertions in tests).
    pub fn contents(&self) -> &[u8] {
        &self.data
    }

    /// Advances one cycle: progresses all busy trackers, moving data and
    /// posting completions when transfers finish.
    pub fn tick(&mut self, mem: &mut Memory) {
        if self.busy == 0 {
            return;
        }
        for (id, slot) in self.trackers.iter_mut().enumerate() {
            if let Some(req) = slot {
                if req.remaining_cycles > 1 {
                    req.remaining_cycles -= 1;
                    continue;
                }
                // Transfer completes this cycle: move the data.
                let bytes = (req.sectors as usize) * SECTOR_BYTES;
                let dev_off = req.sector as usize * SECTOR_BYTES;
                if req.is_write {
                    if let Ok(src) = mem.read_bytes(req.mem_addr, bytes) {
                        self.data[dev_off..dev_off + bytes].copy_from_slice(src);
                    }
                } else {
                    let src = self.data[dev_off..dev_off + bytes].to_vec();
                    let _ = mem.write_bytes(req.mem_addr, &src);
                }
                self.completions.push_back(id as u64);
                *slot = None;
                self.busy -= 1;
            }
        }
    }

    /// Cycles until the most imminent busy tracker would complete, or
    /// `None` when every tracker is idle (a [`BlockDevice::tick`] is then
    /// a no-op). A return of `Some(m)` means the next `m - 1` ticks are
    /// pure countdown and the `m`-th performs a transfer.
    pub fn min_busy_cycles(&self) -> Option<u64> {
        if self.busy == 0 {
            return None;
        }
        self.trackers
            .iter()
            .filter_map(|slot| slot.as_ref().map(|req| req.remaining_cycles))
            .min()
    }

    /// Bulk-advances `cycles` ticks' worth of tracker countdown without
    /// touching memory, bit-identical to `cycles` calls of `tick` when no
    /// tracker completes in that span.
    ///
    /// # Panics
    ///
    /// Debug-panics if any busy tracker has `remaining_cycles <= cycles`
    /// (its completion would be skipped over).
    pub fn skip(&mut self, cycles: u64) {
        if self.busy == 0 {
            return;
        }
        for req in self.trackers.iter_mut().flatten() {
            debug_assert!(
                req.remaining_cycles > cycles,
                "blockdev skip of {cycles} would cross a completion"
            );
            req.remaining_cycles -= cycles;
        }
    }

    fn try_alloc(&mut self) -> u64 {
        if self.len == 0 || self.offset + self.len > self.config.sectors {
            self.rejected += 1;
            return ALLOC_FAIL;
        }
        let Some(id) = self.trackers.iter().position(Option::is_none) else {
            return ALLOC_FAIL;
        };
        let cycles = self.config.base_latency + self.config.per_sector_latency * self.len;
        self.trackers[id] = Some(Request {
            mem_addr: self.addr,
            sector: self.offset,
            sectors: self.len,
            is_write: self.is_write,
            remaining_cycles: cycles.max(1),
        });
        self.busy += 1;
        id as u64
    }
}

impl firesim_core::snapshot::Checkpoint for BlockDevice {
    fn save_state(
        &self,
        w: &mut firesim_core::snapshot::SnapshotWriter,
    ) -> firesim_core::SimResult<()> {
        w.put_bytes(&self.data);
        w.put_u64(self.addr);
        w.put_u64(self.offset);
        w.put_u64(self.len);
        w.put_bool(self.is_write);
        w.put_usize(self.trackers.len());
        for slot in &self.trackers {
            w.put_bool(slot.is_some());
            if let Some(req) = slot {
                w.put_u64(req.mem_addr);
                w.put_u64(req.sector);
                w.put_u64(req.sectors);
                w.put_bool(req.is_write);
                w.put_u64(req.remaining_cycles);
            }
        }
        w.put(&self.completions);
        w.put_u64(self.rejected);
        Ok(())
    }

    fn restore_state(
        &mut self,
        r: &mut firesim_core::snapshot::SnapshotReader<'_>,
    ) -> firesim_core::SimResult<()> {
        let data = r.get_bytes()?;
        if data.len() != self.data.len() {
            return Err(firesim_core::SimError::checkpoint(format!(
                "block-device snapshot holds {} bytes, target holds {}",
                data.len(),
                self.data.len()
            )));
        }
        self.data.copy_from_slice(data);
        self.addr = r.get_u64()?;
        self.offset = r.get_u64()?;
        self.len = r.get_u64()?;
        self.is_write = r.get_bool()?;
        let trackers = r.get_usize()?;
        if trackers != self.trackers.len() {
            return Err(firesim_core::SimError::checkpoint(format!(
                "block-device snapshot has {trackers} trackers, config expects {}",
                self.trackers.len()
            )));
        }
        for slot in &mut self.trackers {
            *slot = if r.get_bool()? {
                Some(Request {
                    mem_addr: r.get_u64()?,
                    sector: r.get_u64()?,
                    sectors: r.get_u64()?,
                    is_write: r.get_bool()?,
                    remaining_cycles: r.get_u64()?,
                })
            } else {
                None
            };
        }
        self.busy = self.trackers.iter().flatten().count();
        self.completions = r.get()?;
        self.rejected = r.get_u64()?;
        Ok(())
    }
}

impl MmioDevice for BlockDevice {
    fn read(&mut self, offset: u64, _size: usize) -> u64 {
        match offset {
            reg::ALLOC => self.try_alloc(),
            reg::COMP => self.completions.pop_front().map_or(ALLOC_FAIL, |id| id),
            reg::NSECTORS => self.config.sectors,
            reg::NTRACKERS => self.trackers.len() as u64,
            _ => 0,
        }
    }

    fn write(&mut self, offset: u64, _size: usize, value: u64) {
        match offset {
            reg::ADDR => self.addr = value,
            reg::OFFSET => self.offset = value,
            reg::LEN => self.len = value,
            reg::WRITE => self.is_write = value != 0,
            _ => {}
        }
    }

    fn interrupt(&self) -> bool {
        !self.completions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firesim_riscv::DRAM_BASE;

    fn mk() -> (BlockDevice, Memory) {
        (
            BlockDevice::new(BlockDeviceConfig {
                sectors: 64,
                trackers: 2,
                base_latency: 10,
                per_sector_latency: 5,
            }),
            Memory::new(DRAM_BASE, 1 << 20),
        )
    }

    fn submit(bd: &mut BlockDevice, addr: u64, sector: u64, len: u64, write: bool) -> u64 {
        bd.write(reg::ADDR, 8, addr);
        bd.write(reg::OFFSET, 8, sector);
        bd.write(reg::LEN, 8, len);
        bd.write(reg::WRITE, 8, u64::from(write));
        bd.read(reg::ALLOC, 8)
    }

    #[test]
    fn skip_matches_iterated_countdown() {
        let (mut bd, mut mem) = mk();
        assert_eq!(bd.min_busy_cycles(), None);
        let payload = vec![0xabu8; SECTOR_BYTES];
        mem.write_bytes(DRAM_BASE, &payload).unwrap();
        submit(&mut bd, DRAM_BASE, 0, 1, true); // 10 + 5 = 15 cycles
        assert_eq!(bd.min_busy_cycles(), Some(15));

        let (mut bd2, mut mem2) = mk();
        mem2.write_bytes(DRAM_BASE, &payload).unwrap();
        submit(&mut bd2, DRAM_BASE, 0, 1, true);

        // Skip 14, then one real tick completes; the reference ticks 15x.
        bd.skip(14);
        assert_eq!(bd.min_busy_cycles(), Some(1));
        bd.tick(&mut mem);
        for _ in 0..15 {
            bd2.tick(&mut mem2);
        }
        assert!(bd.interrupt() && bd2.interrupt());
        assert_eq!(bd.contents(), bd2.contents());
        assert_eq!(bd.min_busy_cycles(), None);
    }

    #[test]
    fn write_then_read_round_trip() {
        let (mut bd, mut mem) = mk();
        let payload: Vec<u8> = (0..SECTOR_BYTES * 2).map(|i| i as u8).collect();
        mem.write_bytes(DRAM_BASE, &payload).unwrap();

        let id = submit(&mut bd, DRAM_BASE, 4, 2, true);
        assert_eq!(id, 0);
        // Latency: 10 + 5*2 = 20 cycles.
        for _ in 0..19 {
            bd.tick(&mut mem);
            assert!(!bd.interrupt());
        }
        bd.tick(&mut mem);
        assert!(bd.interrupt());
        assert_eq!(bd.read(reg::COMP, 8), 0);
        assert!(!bd.interrupt());

        // Read back into another buffer.
        let id = submit(&mut bd, DRAM_BASE + 0x8000, 4, 2, false);
        assert_eq!(id, 0);
        for _ in 0..20 {
            bd.tick(&mut mem);
        }
        assert_eq!(bd.read(reg::COMP, 8), 0);
        assert_eq!(
            mem.read_bytes(DRAM_BASE + 0x8000, payload.len()).unwrap(),
            &payload[..]
        );
    }

    #[test]
    fn trackers_run_concurrently() {
        let (mut bd, mut mem) = mk();
        assert_eq!(submit(&mut bd, DRAM_BASE, 0, 1, true), 0);
        assert_eq!(submit(&mut bd, DRAM_BASE + 4096, 1, 1, true), 1);
        // Both busy: a third allocation fails.
        assert_eq!(submit(&mut bd, DRAM_BASE, 2, 1, true), ALLOC_FAIL);
        for _ in 0..15 {
            bd.tick(&mut mem);
        }
        // Both complete (same latency), IDs in tracker order.
        assert_eq!(bd.read(reg::COMP, 8), 0);
        assert_eq!(bd.read(reg::COMP, 8), 1);
        assert_eq!(bd.read(reg::COMP, 8), ALLOC_FAIL);
    }

    #[test]
    fn out_of_range_requests_rejected() {
        let (mut bd, _mem) = mk();
        assert_eq!(submit(&mut bd, DRAM_BASE, 63, 2, false), ALLOC_FAIL);
        assert_eq!(submit(&mut bd, DRAM_BASE, 0, 0, false), ALLOC_FAIL);
        assert_eq!(bd.rejected, 2);
    }

    #[test]
    fn image_loading() {
        let (mut bd, _) = mk();
        bd.load_image(&[7; 600]);
        assert_eq!(bd.contents()[599], 7);
        assert_eq!(bd.contents()[600], 0);
        assert_eq!(bd.read(reg::NSECTORS, 8), 64);
        assert_eq!(bd.read(reg::NTRACKERS, 8), 2);
    }

    #[test]
    #[should_panic(expected = "image larger")]
    fn oversized_image_panics() {
        let (mut bd, _) = mk();
        bd.load_image(&vec![0; 64 * SECTOR_BYTES + 1]);
    }

    /// §VIII: pluggable storage timing — the same request is served with
    /// technology-dependent latency (disk >> SSD >> 3D XPoint).
    #[test]
    fn storage_technology_presets_order_latencies() {
        let mut mem = Memory::new(DRAM_BASE, 1 << 20);
        let mut complete_after = |cfg: BlockDeviceConfig| {
            let mut bd = BlockDevice::new(cfg);
            assert_eq!(submit(&mut bd, DRAM_BASE, 0, 4, false), 0);
            let mut cycles = 0u64;
            while !bd.interrupt() {
                bd.tick(&mut mem);
                cycles += 1;
                assert!(cycles < 100_000_000, "request never completed");
            }
            cycles
        };
        let disk = complete_after(BlockDeviceConfig::disk());
        let ssd = complete_after(BlockDeviceConfig::ssd());
        let xpoint = complete_after(BlockDeviceConfig::xpoint());
        assert!(disk > 100 * ssd, "disk {disk} vs ssd {ssd}");
        assert!(ssd > 2 * xpoint, "ssd {ssd} vs xpoint {xpoint}");
        // XPoint-class: ~a microsecond for a small read.
        assert!(xpoint < 5_000, "xpoint {xpoint}");
    }
}
