//! Steady-state target programs for the two single-blade workloads.
//!
//! Both loop forever inside DRAM, so a run of any length retires
//! instructions in every chunk. `programs::boot_poweroff(1 << 40)`, the
//! Fig 8 target, does not: it strides off the end of a 4 MiB blade after
//! ~12 M target cycles and retires nothing from then on (README, "Known
//! defect").

use firesim_blade::programs::{Program, MAILBOX};
use firesim_riscv::asm::Assembler;
use firesim_riscv::DRAM_BASE;

/// Bytes the memory loop sweeps: 8x the 256 KiB L2, so every line has
/// been evicted by the time the sweep wraps back to it.
pub const STRIDE_BUFFER_BYTES: u64 = 2 << 20;
/// Start of the swept buffer, clear of the image and the mailbox.
pub const STRIDE_BUFFER_BASE: u64 = DRAM_BASE + (1 << 20);
/// One access per cache line.
pub const STRIDE: u64 = 64;

/// The compute loop's image at `base`: ~18 ALU/mul ops, one load, one
/// store and a taken back-branch per iteration over a fixed data slot
/// that stays in the L1. Same instruction mix as `benches/blade_mips.rs`
/// (copied, not imported: `crates/bench` is not a dependency).
pub fn compute_image(base: u64) -> Vec<u8> {
    let mut a = Assembler::new(base);
    a.li(5, (base + 0x2000) as i64);
    a.li(6, 0);
    a.label("loop");
    a.addi(6, 6, 1);
    a.xor(8, 6, 5);
    a.and(9, 8, 6);
    a.or(10, 9, 8);
    a.add(11, 10, 6);
    a.sub(12, 11, 9);
    a.slli(13, 12, 3);
    a.srli(14, 13, 2);
    a.mul(15, 14, 6);
    a.addi(16, 15, 7);
    a.xor(17, 16, 11);
    a.and(18, 17, 13);
    a.ld(19, 5, 0);
    a.add(20, 19, 6);
    a.sd(20, 5, 8);
    a.addi(21, 20, -3);
    a.or(22, 21, 17);
    a.add(23, 22, 18);
    a.j("loop");
    a.assemble().expect("compute loop assembles")
}

/// The compute loop as a blade program at the reset vector.
pub fn compute_loop() -> Program {
    Program {
        image: compute_image(DRAM_BASE),
        dram_init: Vec::new(),
        mailbox: (MAILBOX, 8),
    }
}

/// A load + store per cache line, sweeping [`STRIDE_BUFFER_BYTES`] and
/// wrapping back to the start: every access misses the L1 and the L2 and
/// goes to DRAM, with a dirty write-back behind it.
pub fn stride_loop() -> Program {
    let mut a = Assembler::new(DRAM_BASE);
    a.li(5, STRIDE_BUFFER_BASE as i64);
    a.li(6, (STRIDE_BUFFER_BASE + STRIDE_BUFFER_BYTES) as i64);
    a.li(7, 1);
    a.label("sweep");
    a.mv(8, 5);
    a.label("line");
    a.ld(9, 8, 0);
    a.add(7, 7, 9);
    a.sd(7, 8, 8);
    a.addi(8, 8, STRIDE as i64);
    a.bltu(8, 6, "line");
    a.j("sweep");
    Program {
        image: a.assemble().expect("stride loop assembles"),
        dram_init: Vec::new(),
        mailbox: (MAILBOX, 8),
    }
}
