//! # firesim-uarch
//!
//! Microarchitectural *timing* models for FireSim-rs server blades: blocking
//! L1/L2 caches, a DDR3-style DRAM timing model, and an in-order
//! Rocket-class pipeline timing wrapper around the functional
//! `firesim-riscv` core.
//!
//! The FireSim paper's blades are Rocket Chip SoCs (Table I): 1-4 in-order
//! RV64 cores at 3.2 GHz with 16 KiB L1I/L1D, a 256 KiB shared L2, and a
//! 16 GiB DDR3 memory modeled by the MIDAS FPGA DRAM timing model. This
//! crate reproduces that stack in software:
//!
//! * [`Cache`] — set-associative, LRU, write-allocate blocking cache used
//!   for L1I, L1D, and the shared L2.
//! * [`Dram`] — bank/row DDR3 timing (tRCD/tCAS/tRP, open-page policy,
//!   bank busy windows) translated into CPU-cycle latencies.
//! * [`MemSystem`] — the hierarchy: per-core L1s, shared L2, DRAM; returns
//!   the latency of each access and collects hit/miss statistics.
//! * [`TimingCore`] — executes the functional core one instruction at a
//!   time, charging pipeline and memory cycles so the blade advances
//!   cycle-by-cycle like the FAME-1-transformed RTL would.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod dram;
pub mod memsys;
pub mod timing;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use dram::{Dram, DramConfig, DramStats, RowOutcome};
pub use memsys::{AccessKind, MemSystem, MemSystemConfig, MemSystemStats};
pub use timing::{TickEvent, TimingConfig, TimingCore, TraceEntry};
