//! # firesim-riscv
//!
//! A from-scratch RV64IMA + Zicsr (machine-mode) implementation: instruction
//! set definition, decoder, encoder/assembler, CSR file, and a functional
//! executor.
//!
//! In the FireSim paper, server blades are Rocket Chip SoCs — RV64 cores
//! generated from Chisel RTL and executed on FPGAs. FireSim-rs has no FPGA
//! or HDL flow, so the blade's core is a *software* model: this crate
//! provides the architectural (functional) layer, and `firesim-uarch` adds
//! the Rocket-like cycle timing on top. The split mirrors how an RTL core
//! separates architectural state from pipeline control.
//!
//! The bare-metal benchmark programs from the paper's evaluation (§IV-C's
//! NIC bandwidth saturation test and the ping responder) are written
//! against this crate's [`asm::Assembler`] and run on the simulated cores
//! instruction-for-instruction.
//!
//! ## Example
//!
//! ```
//! use firesim_riscv::asm::Assembler;
//! use firesim_riscv::exec::{Cpu, StepOutcome};
//! use firesim_riscv::mem::Memory;
//!
//! // A program that sums 1..=10 into x10 then parks in WFI.
//! let mut a = Assembler::new(0x8000_0000);
//! a.li(10, 0);         // acc = 0
//! a.li(5, 1);          // i = 1
//! a.li(6, 11);         // bound
//! a.label("loop");
//! a.add(10, 10, 5);
//! a.addi(5, 5, 1);
//! a.blt(5, 6, "loop");
//! a.wfi();
//! let image = a.assemble().unwrap();
//!
//! let mut mem = Memory::new(0x8000_0000, 64 * 1024);
//! mem.write_bytes(0x8000_0000, &image).unwrap();
//! let mut cpu = Cpu::new(0, 0x8000_0000);
//! loop {
//!     if let StepOutcome::Wfi = cpu.step(&mut mem).unwrap() {
//!         break;
//!     }
//! }
//! assert_eq!(cpu.read_reg(10), 55);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod asm;
pub mod csr;
pub mod decode;
pub mod encode;
pub mod exec;
pub mod icache;
pub mod inst;
pub mod mem;

pub use csr::{CsrFile, Interrupt};
pub use decode::{decode, DecodeError};
pub use exec::{Cpu, MemAccess, StepOutcome, Trap};
pub use icache::{DecodeCache, DecodeCacheStats};
pub use inst::Inst;
pub use mem::{Bus, MemFault, Memory};

/// Default reset vector / DRAM base used by FireSim-rs SoCs, matching the
/// Rocket Chip convention.
pub const DRAM_BASE: u64 = 0x8000_0000;
