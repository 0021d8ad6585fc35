//! # firesim-devices
//!
//! The server-blade peripherals from §III-A of the FireSim paper, modeled
//! cycle-by-cycle:
//!
//! * [`Nic`] — the network interface controller of Fig 3: a controller
//!   with four MMIO-exposed queues (send/receive request and completion),
//!   a send path (reader → reservation buffer → aligner → token-bucket
//!   rate limiter), and a receive path (packet buffer → writer), with an
//!   interrupt line and a FAME-1 style one-token-per-cycle top-level
//!   network interface.
//! * [`BlockDevice`] — the block device controller of §III-A3: an MMIO
//!   frontend plus data-moving trackers operating on 512-byte sectors.
//! * [`CopyAccel`] — an HLS-style DMA copy/fill accelerator, the
//!   "custom blade" integration point of Table II / §VIII.
//! * [`Uart`] — a minimal console for program output.
//! * [`Clint`] — the core-local interruptor: `mtime`, per-hart `mtimecmp`
//!   and software-interrupt bits.
//!
//! All devices implement [`MmioDevice`] so the blade SoC can dispatch
//! memory-mapped accesses, and expose per-cycle `tick`-style methods so the
//! blade can advance them in lock-step with the cores.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accel;
pub mod blockdev;
pub mod clint;
pub mod mmio;
pub mod nic;
pub mod uart;

pub use accel::CopyAccel;
pub use blockdev::{BlockDevice, BlockDeviceConfig};
pub use clint::Clint;
pub use mmio::MmioDevice;
pub use nic::{Nic, NicConfig, NicStats};
pub use uart::Uart;

/// Default MMIO base addresses for the FireSim-rs SoC memory map.
pub mod map {
    /// CLINT (mtime, mtimecmp, msip).
    pub const CLINT_BASE: u64 = 0x0200_0000;
    /// CLINT region size.
    pub const CLINT_SIZE: u64 = 0x1_0000;
    /// UART.
    pub const UART_BASE: u64 = 0x1000_0000;
    /// UART region size.
    pub const UART_SIZE: u64 = 0x1000;
    /// NIC.
    pub const NIC_BASE: u64 = 0x1001_0000;
    /// NIC region size.
    pub const NIC_SIZE: u64 = 0x1000;
    /// Block device.
    pub const BLKDEV_BASE: u64 = 0x1002_0000;
    /// Block device region size.
    pub const BLKDEV_SIZE: u64 = 0x1000;
    /// DMA copy/fill accelerator (optional, Table II).
    pub const ACCEL_BASE: u64 = 0x1003_0000;
    /// Accelerator region size.
    pub const ACCEL_SIZE: u64 = 0x1000;
}
