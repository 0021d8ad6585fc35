//! # firesim-reference
//!
//! Test oracles for FireSim-rs: standalone, deliberately naive
//! reimplementations of models whose production versions are optimised.
//! Each oracle is written from the production model's public parameters
//! alone and must agree with it bit for bit — every return value, every
//! statistic, every snapshot byte. The differential suites in `tests/`
//! hold the two against each other.
//!
//! Nothing in the simulator depends on this crate; only test and
//! benchmark targets do, so an oracle never ships as a mode of the model
//! it checks.
//!
//! * [`RefDram`] — the DDR3 model of [`firesim_uarch::Dram`] with every
//!   refresh deadline applied to every bank as time passes, instead of
//!   lazily on the next touch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dram;

pub use dram::RefDram;
