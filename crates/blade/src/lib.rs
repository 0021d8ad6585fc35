//! # firesim-blade
//!
//! FireSim-rs server blades: the composition of cores, caches, DRAM, NIC,
//! block device, and UART into a simulated datacenter node, plus the
//! software that runs on those nodes in the paper's evaluation.
//!
//! Two blade personalities implement the same token-decoupled agent
//! interface (one network token in, one out, per target cycle):
//!
//! * [`RtlBlade`] — the cycle-exact SoC (paper Table I): 1-4 RV64IMA
//!   Rocket-class cores at 3.2 GHz with L1/L2 caches and DDR3-modeled
//!   DRAM, a NIC, a block device, a UART, and a CLINT. It boots real
//!   RISC-V machine code built with `firesim_riscv::asm` — the bare-metal
//!   benchmark programs from §IV live in [`programs`].
//! * [`ModeledBlade`] — a behavioural node for scale experiments: an OS
//!   scheduler model (cores, threads, quanta, placement) running service
//!   models (memcached-style KV server, mutilate-style load generator,
//!   bulk streamers, ping) over the *same* simulated network. This is the
//!   substitution for "Linux + userspace" documented in DESIGN.md — the
//!   paper's switch models are exactly this kind of behavioural model.
//!
//! The remote-memory / page-fault-accelerator case study of §VI is in
//! [`paging`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod model;
pub mod paging;
pub mod programs;
pub mod services;
pub mod soc;
pub mod supernode;

pub use config::BladeConfig;
pub use model::{ModeledBlade, NodeApp, OsConfig, OsModel};
pub use soc::RtlBlade;
pub use supernode::Supernode;

/// MMIO address whose write powers off an [`RtlBlade`] (the low byte is
/// the exit code). Equivalent to the `tohost` convention used by RISC-V
/// bare-metal test harnesses.
pub const POWEROFF_ADDR: u64 = 0x0010_0000;
