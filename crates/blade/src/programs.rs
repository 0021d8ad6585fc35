//! Bare-metal benchmark programs (the software side of §IV).
//!
//! Each constructor returns a [`Program`]: a machine-code image, DRAM
//! pre-initialisation (frame templates, data sets), and the mailbox region
//! the program reports results through. [`Program::install`] loads all of
//! it onto an [`RtlBlade`].
//!
//! The programs mirror the paper's benchmarks:
//!
//! * [`echo_responder`] / [`ping_sender`] — the `ping` latency
//!   benchmark of §IV-A (Fig 5), implemented directly against the NIC.
//! * [`stream_sender`] / [`stream_receiver`] — the bare-metal
//!   node-to-node bandwidth test of §IV-C ("constructs a sequence of
//!   Ethernet packets and sends them at maximum rate", with a final
//!   acknowledgement from the receiver).
//! * [`boot_poweroff`] — the boot-then-immediately-power-off workload
//!   used to measure simulation rate at scale (Fig 8).
//! * [`compute_loop`] — an endless instruction-dense loop, the steady
//!   state the blade throughput guards time.

use firesim_devices::map::NIC_BASE;
use firesim_devices::nic::reg;
use firesim_net::{EtherType, EthernetFrame, MacAddr};
use firesim_riscv::asm::Assembler;
use firesim_riscv::csr::addr as csr;
use firesim_riscv::DRAM_BASE;

use bytes::Bytes;

use crate::soc::RtlBlade;
use crate::POWEROFF_ADDR;

/// Mailbox base address used by all benchmark programs.
pub const MAILBOX: u64 = DRAM_BASE + 0x8000;
/// Transmit buffer base.
pub const TXBUF: u64 = DRAM_BASE + 0x1_0000;
/// Receive buffer base.
pub const RXBUF: u64 = DRAM_BASE + 0x2_0000;
/// Results array base (ping RTT samples).
pub const RESULTS: u64 = DRAM_BASE + 0x3_0000;

/// Offset of the request/reply kind byte within an echo frame (first
/// payload byte, right after the 14-byte Ethernet header).
const ECHO_KIND_OFF: i64 = 14;

/// A ready-to-install bare-metal workload.
#[derive(Debug, Clone)]
pub struct Program {
    /// Machine code, loaded at the reset vector.
    pub image: Vec<u8>,
    /// Additional DRAM initialisation: `(address, bytes)`.
    pub dram_init: Vec<(u64, Vec<u8>)>,
    /// Mailbox region `(address, length)` snapshotted at power-off.
    pub mailbox: (u64, usize),
}

impl Program {
    /// Loads the program, its data, and its mailbox onto a blade.
    pub fn install(&self, blade: &mut RtlBlade) {
        blade.load_program(&self.image);
        for (addr, bytes) in &self.dram_init {
            blade.write_dram(*addr, bytes);
        }
        blade.set_mailbox(self.mailbox.0, self.mailbox.1);
    }
}

fn nic_reg(r: u64) -> i64 {
    (NIC_BASE + r) as i64
}

/// Emits `poweroff <code>` followed by a parking loop.
fn emit_poweroff(a: &mut Assembler, code: u8) {
    a.li(5, POWEROFF_ADDR as i64);
    a.li(6, i64::from(code));
    a.sd(6, 5, 0);
    a.label("___park");
    a.j("___park");
}

/// Builds an Ethernet frame image for pre-loading into DRAM.
pub fn frame_bytes(dst: MacAddr, src: MacAddr, ethertype: EtherType, payload: &[u8]) -> Vec<u8> {
    EthernetFrame::new(dst, src, ethertype, Bytes::copy_from_slice(payload)).to_wire()
}

/// The ping sender (§IV-A): sends `count` echo requests of
/// `payload_len` bytes to `dst`, waits for each reply, and records each
/// RTT (in cycles) as a `u64` in the mailbox. Pings are spaced
/// `spacing_cycles` apart, mimicking `ping`'s fixed interval.
///
/// Mailbox layout: `count` little-endian `u64` RTT samples.
pub fn ping_sender(
    my_mac: MacAddr,
    dst: MacAddr,
    count: usize,
    payload_len: usize,
    spacing_cycles: u64,
) -> Program {
    assert!(
        payload_len >= 1,
        "echo payload needs at least the kind byte"
    );
    let mut payload = vec![0u8; payload_len];
    payload[0] = 0; // kind: request
    let frame = frame_bytes(dst, my_mac, EtherType::Echo, &payload);
    let frame_len = frame.len() as u64;

    let mut a = Assembler::new(DRAM_BASE);
    a.li(10, nic_reg(0)); // NIC base
    a.li(12, RXBUF as i64);
    a.li(13, RESULTS as i64);
    a.li(14, count as i64);
    a.li(15, spacing_cycles as i64);
    a.li(17, (TXBUF | (frame_len << 48)) as i64); // send request word
                                                  // Post the receive buffer for the first reply.
    a.sd(12, 10, reg::RECV_REQ as i64);
    a.label("loop");
    a.csrr(20, csr::CYCLE); // t_start
    a.sd(17, 10, reg::SEND_REQ as i64);
    a.label("wait_reply");
    a.ld(5, 10, reg::RECV_COMP as i64);
    a.beqz(5, "wait_reply");
    a.csrr(21, csr::CYCLE); // t_end
    a.sub(22, 21, 20);
    a.sd(22, 13, 0);
    a.addi(13, 13, 8);
    // Re-post the receive buffer and drain the send completion.
    a.sd(12, 10, reg::RECV_REQ as i64);
    a.label("drain");
    a.ld(5, 10, reg::SEND_COMP as i64);
    a.bnez(5, "drain");
    // Fixed-interval spacing.
    a.add(23, 21, 15);
    a.label("space");
    a.csrr(5, csr::CYCLE);
    a.bltu(5, 23, "space");
    a.addi(14, 14, -1);
    a.bnez(14, "loop");
    emit_poweroff(&mut a, 0);

    Program {
        image: a.assemble().expect("ping_sender assembles"),
        dram_init: vec![(TXBUF, frame)],
        mailbox: (RESULTS, count * 8),
    }
}

/// The echo responder: receives echo requests, swaps source and
/// destination MACs, flips the kind byte to "reply", and transmits the
/// frame back; powers off after `responses` replies.
pub fn echo_responder(responses: usize) -> Program {
    let mut a = Assembler::new(DRAM_BASE);
    a.li(10, nic_reg(0));
    a.li(12, RXBUF as i64);
    a.li(14, responses as i64);
    a.sd(12, 10, reg::RECV_REQ as i64);
    a.label("loop");
    a.ld(5, 10, reg::RECV_COMP as i64);
    a.beqz(5, "loop");
    a.addi(6, 5, -1); // frame length
                      // Swap dst (bytes 0-5) and src (bytes 6-11).
    for i in 0..6i64 {
        a.lbu(7, 12, i);
        a.lbu(8, 12, 6 + i);
        a.sb(8, 12, i);
        a.sb(7, 12, 6 + i);
    }
    // kind byte <- 1 (reply).
    a.li(7, 1);
    a.sb(7, 12, ECHO_KIND_OFF);
    // Send request: rxbuf | len << 48.
    a.slli(9, 6, 48);
    a.add(9, 9, 12);
    a.sd(9, 10, reg::SEND_REQ as i64);
    a.label("wait_send");
    a.ld(5, 10, reg::SEND_COMP as i64);
    a.beqz(5, "wait_send");
    a.sd(12, 10, reg::RECV_REQ as i64);
    a.addi(14, 14, -1);
    a.bnez(14, "loop");
    emit_poweroff(&mut a, 0);

    Program {
        image: a.assemble().expect("echo_responder assembles"),
        dram_init: Vec::new(),
        mailbox: (MAILBOX, 8),
    }
}

/// The bare-metal bandwidth sender (§IV-C): transmits `frames` frames of
/// `payload_len` bytes to `dst` at maximum rate, then waits for the
/// receiver's acknowledgement. Transmission begins only once the cycle
/// counter passes `start_delay` (used by the staggered-sender saturation
/// experiment, Fig 6).
///
/// Mailbox layout: `[elapsed_cycles: u64, frames_sent: u64]` where
/// `elapsed` spans from the first send request to ack receipt.
pub fn stream_sender(
    my_mac: MacAddr,
    dst: MacAddr,
    frames: usize,
    payload_len: usize,
    start_delay: u64,
) -> Program {
    let payload = vec![0x5A; payload_len];
    let frame = frame_bytes(dst, my_mac, EtherType::Stream, &payload);
    let frame_len = frame.len() as u64;

    let mut a = Assembler::new(DRAM_BASE);
    a.li(10, nic_reg(0));
    a.li(12, RXBUF as i64);
    a.li(14, frames as i64);
    a.li(17, (TXBUF | (frame_len << 48)) as i64);
    a.sd(12, 10, reg::RECV_REQ as i64); // for the ack
    if start_delay > 0 {
        a.li(5, start_delay as i64);
        a.label("stagger");
        a.csrr(6, csr::CYCLE);
        a.bltu(6, 5, "stagger");
    }
    a.csrr(20, csr::CYCLE);
    a.label("send_loop");
    // Wait for a free send-request slot.
    a.label("wait_slot");
    a.ld(5, 10, reg::COUNTS as i64);
    a.andi(5, 5, 0xff);
    a.beqz(5, "wait_slot");
    a.sd(17, 10, reg::SEND_REQ as i64);
    // Opportunistically drain one send completion.
    a.ld(5, 10, reg::SEND_COMP as i64);
    a.addi(14, 14, -1);
    a.bnez(14, "send_loop");
    // Wait for the ack frame.
    a.label("wait_ack");
    a.ld(5, 10, reg::RECV_COMP as i64);
    a.beqz(5, "wait_ack");
    a.csrr(21, csr::CYCLE);
    a.sub(22, 21, 20);
    a.li(13, MAILBOX as i64);
    a.sd(22, 13, 0);
    a.li(5, frames as i64);
    a.sd(5, 13, 8);
    emit_poweroff(&mut a, 0);

    Program {
        image: a.assemble().expect("stream_sender assembles"),
        dram_init: vec![(TXBUF, frame)],
        mailbox: (MAILBOX, 16),
    }
}

/// The bandwidth receiver (§IV-C): accumulates received bytes until
/// `expected_bytes` arrive, then sends a one-frame acknowledgement to
/// `ack_dst`.
///
/// Mailbox layout: `[received_bytes: u64, elapsed_cycles: u64]` where
/// `elapsed` spans from the first to the last received frame.
pub fn stream_receiver(my_mac: MacAddr, ack_dst: MacAddr, expected_bytes: u64) -> Program {
    let ack = frame_bytes(ack_dst, my_mac, EtherType::Stream, &[0xAC; 4]);
    let ack_len = ack.len() as u64;

    let mut a = Assembler::new(DRAM_BASE);
    a.li(10, nic_reg(0));
    a.li(12, RXBUF as i64);
    a.li(14, expected_bytes as i64);
    a.li(18, 0); // accumulated bytes
    a.li(19, 0); // first-frame flag
    a.li(17, ((TXBUF + 4096) | (ack_len << 48)) as i64);
    // Keep several buffers posted so back-to-back frames never stall.
    for _ in 0..8 {
        a.sd(12, 10, reg::RECV_REQ as i64);
    }
    a.label("loop");
    a.ld(5, 10, reg::RECV_COMP as i64);
    a.beqz(5, "loop");
    a.bnez(19, "not_first");
    a.csrr(20, csr::CYCLE);
    a.li(19, 1);
    a.label("not_first");
    a.addi(6, 5, -1);
    a.add(18, 18, 6);
    a.sd(12, 10, reg::RECV_REQ as i64);
    a.blt(18, 14, "loop");
    a.csrr(21, csr::CYCLE);
    a.sub(22, 21, 20);
    a.li(13, MAILBOX as i64);
    a.sd(18, 13, 0);
    a.sd(22, 13, 8);
    // Ack the sender.
    a.sd(17, 10, reg::SEND_REQ as i64);
    a.label("wait_send");
    a.ld(5, 10, reg::SEND_COMP as i64);
    a.beqz(5, "wait_send");
    emit_poweroff(&mut a, 0);

    Program {
        image: a.assemble().expect("stream_receiver assembles"),
        dram_init: vec![(TXBUF + 4096, ack)],
        mailbox: (MAILBOX, 16),
    }
}

/// The accelerator demonstration (Table II / §VIII): copies `len` bytes
/// first with a software doubleword loop, then with the DMA copy
/// accelerator, timing both and verifying the result.
///
/// Requires a blade built with [`crate::BladeConfig::with_accel`].
///
/// Mailbox layout: `[sw_cycles: u64, hw_cycles: u64, ok: u64]` where
/// `ok` is 1 when the accelerator's copy matched the source.
pub fn memcpy_race(len: u64) -> Program {
    use firesim_devices::accel::{reg as areg, CMD_COPY};
    use firesim_devices::map::ACCEL_BASE;
    assert!(
        len >= 16 && len.is_multiple_of(8),
        "len must be a multiple of 8, >= 16"
    );
    let src = DRAM_BASE + 0x10_0000;
    let dst_sw = DRAM_BASE + 0x14_0000;
    let dst_hw = DRAM_BASE + 0x18_0000;

    let mut a = Assembler::new(DRAM_BASE);
    // Fill the source with a recognisable pattern: src[i] = i * 8 + 1.
    a.li(5, src as i64);
    a.li(6, len as i64);
    a.li(7, 1);
    a.label("fill");
    a.sd(7, 5, 0);
    a.addi(5, 5, 8);
    a.addi(7, 7, 8);
    a.addi(6, 6, -8);
    a.bnez(6, "fill");

    // --- Software copy, timed. ---
    a.li(5, src as i64);
    a.li(8, dst_sw as i64);
    a.li(6, len as i64);
    a.csrr(20, csr::CYCLE);
    a.label("swcopy");
    a.ld(7, 5, 0);
    a.sd(7, 8, 0);
    a.addi(5, 5, 8);
    a.addi(8, 8, 8);
    a.addi(6, 6, -8);
    a.bnez(6, "swcopy");
    a.csrr(21, csr::CYCLE);
    a.sub(22, 21, 20); // sw_cycles

    // --- Accelerated copy, timed. ---
    a.li(10, ACCEL_BASE as i64);
    a.li(5, src as i64);
    a.sd(5, 10, areg::SRC as i64);
    a.li(5, dst_hw as i64);
    a.sd(5, 10, areg::DST as i64);
    a.li(5, len as i64);
    a.sd(5, 10, areg::LEN as i64);
    a.csrr(20, csr::CYCLE);
    a.li(5, CMD_COPY as i64);
    a.sd(5, 10, areg::GO as i64);
    a.label("busy");
    a.ld(5, 10, areg::BUSY as i64);
    a.bnez(5, "busy");
    a.csrr(21, csr::CYCLE);
    a.sub(23, 21, 20); // hw_cycles

    // --- Verify first and last doublewords of the accelerated copy. ---
    a.li(5, src as i64);
    a.li(8, dst_hw as i64);
    a.ld(6, 5, 0);
    a.ld(7, 8, 0);
    a.li(24, 0);
    a.bne(6, 7, "verdict");
    a.li(5, (src + len - 8) as i64);
    a.li(8, (dst_hw + len - 8) as i64);
    a.ld(6, 5, 0);
    a.ld(7, 8, 0);
    a.bne(6, 7, "verdict");
    a.li(24, 1);
    a.label("verdict");
    a.li(13, MAILBOX as i64);
    a.sd(22, 13, 0);
    a.sd(23, 13, 8);
    a.sd(24, 13, 16);
    emit_poweroff(&mut a, 0);

    Program {
        image: a.assemble().expect("memcpy_race assembles"),
        dram_init: Vec::new(),
        mailbox: (MAILBOX, 24),
    }
}

/// A workload that parks every core in WFI forever (with interrupts
/// masked). Used by simulation-rate measurements that need nodes alive —
/// consuming and producing tokens — without data-dependent work.
pub fn park() -> Program {
    let mut a = Assembler::new(DRAM_BASE);
    a.label("park");
    a.wfi();
    a.j("park");
    Program {
        image: a.assemble().expect("park assembles"),
        dram_init: Vec::new(),
        mailbox: (MAILBOX, 8),
    }
}

/// An instruction-dense loop's image at `base`: ~18 ALU/mul ops, one
/// load, one store and a taken back-branch per iteration, forever, over
/// a fixed data slot that stays in the L1. The store bumps the global
/// write generation every iteration, so a decode cache is exercised on
/// its page-validated path rather than its same-superblock cursor alone.
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

/// [`compute_image`] as a blade program at the reset vector.
pub fn compute_loop() -> Program {
    Program {
        image: compute_image(DRAM_BASE),
        dram_init: Vec::new(),
        mailbox: (MAILBOX, 8),
    }
}

/// The boot-and-power-off workload used by the simulation-rate benchmark
/// (Fig 8): performs `work_iters` loop iterations of register and memory
/// work (standing in for "boot Linux to userspace"), then powers off.
///
/// The loop strides through memory without bound, so it leaves DRAM after
/// `dram_bytes / 64` iterations; long rate measurements use
/// [`boot_poweroff_wrapping`].
pub fn boot_poweroff(work_iters: u64) -> Program {
    boot_program(work_iters, None)
}

/// Bytes [`boot_poweroff_wrapping`] strides over before wrapping: twice
/// the 256 KiB L2, ending below 1 MiB so it fits the smallest blades.
pub const BOOT_WRAP_BYTES: u64 = 512 << 10;

/// [`boot_poweroff`] with its memory pointer wrapped inside
/// [`BOOT_WRAP_BYTES`], so a run of any length stays inside DRAM and keeps
/// retiring instructions: the Fig 8/9 target for rate measurements.
pub fn boot_poweroff_wrapping(work_iters: u64) -> Program {
    boot_program(work_iters, Some(BOOT_WRAP_BYTES))
}

fn boot_program(work_iters: u64, wrap_bytes: Option<u64>) -> Program {
    let base = DRAM_BASE as i64 + 0x4_0000;
    let mut a = Assembler::new(DRAM_BASE);
    a.li(5, work_iters as i64);
    a.li(6, base);
    a.li(8, 0);
    if let Some(bytes) = wrap_bytes {
        a.li(9, base + bytes as i64);
    }
    a.label("work");
    // Touch memory to exercise the cache hierarchy like a booting kernel.
    a.sd(8, 6, 0);
    a.ld(7, 6, 0);
    a.add(8, 8, 7);
    a.addi(6, 6, 64);
    if wrap_bytes.is_some() {
        a.bltu(6, 9, "in_range");
        a.li(6, base);
        a.label("in_range");
    }
    a.addi(5, 5, -1);
    a.bnez(5, "work");
    a.li(13, MAILBOX as i64);
    a.sd(8, 13, 0);
    emit_poweroff(&mut a, 0);

    Program {
        image: a.assemble().expect("boot_poweroff assembles"),
        dram_init: Vec::new(),
        mailbox: (MAILBOX, 8),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BladeConfig;
    use firesim_core::{Cycle, Engine};
    use firesim_net::Flit;

    fn blade_with(name: &str, idx: u64, p: &Program) -> RtlBlade {
        let mut b = RtlBlade::new(
            name,
            MacAddr::from_node_index(idx),
            BladeConfig::single_core().with_dram_bytes(4 << 20),
        );
        p.install(&mut b);
        b
    }

    fn mailbox_u64(bytes: &[u8], idx: usize) -> u64 {
        u64::from_le_bytes(bytes[idx * 8..idx * 8 + 8].try_into().unwrap())
    }

    #[test]
    fn ping_round_trip_rtt_tracks_link_latency() {
        let mut rtts_by_latency = Vec::new();
        for latency in [200u64, 800] {
            let count = 3;
            let sender_prog = ping_sender(
                MacAddr::from_node_index(0),
                MacAddr::from_node_index(1),
                count,
                26,
                4_000,
            );
            let responder_prog = echo_responder(count);
            let sender = blade_with("sender", 0, &sender_prog);
            let responder = blade_with("responder", 1, &responder_prog);
            let s_probe = sender.probe();

            let mut engine: Engine<Flit> = Engine::new(200);
            let s = engine.add_agent(Box::new(sender));
            let r = engine.add_agent(Box::new(responder));
            engine.connect(s, 0, r, 0, Cycle::new(latency)).unwrap();
            engine.connect(r, 0, s, 0, Cycle::new(latency)).unwrap();
            engine.run_until_done(Cycle::new(5_000_000)).unwrap();

            let p = s_probe.lock();
            assert_eq!(p.exit_code, Some(0), "latency {latency}");
            let rtts: Vec<u64> = (0..count).map(|i| mailbox_u64(&p.mailbox, i)).collect();
            // Every RTT must exceed 2x the link latency.
            for &rtt in &rtts {
                assert!(rtt > 2 * latency, "rtt {rtt} at latency {latency}");
            }
            rtts_by_latency.push(rtts[1]); // steady-state sample
        }
        // Increasing the link latency by 600 cycles raises RTT by ~1200.
        let delta = rtts_by_latency[1] as i64 - rtts_by_latency[0] as i64;
        assert!(
            (delta - 1200).abs() < 100,
            "RTT delta {delta}, expected ~1200"
        );
    }

    #[test]
    fn stream_saturates_link() {
        let frames = 50usize;
        let payload = 1024usize;
        let s_prog = stream_sender(
            MacAddr::from_node_index(0),
            MacAddr::from_node_index(1),
            frames,
            payload,
            0,
        );
        let frame_wire = payload + 14;
        let r_prog = stream_receiver(
            MacAddr::from_node_index(1),
            MacAddr::from_node_index(0),
            (frames * frame_wire) as u64,
        );
        let sender = blade_with("sender", 0, &s_prog);
        let receiver = blade_with("receiver", 1, &r_prog);
        let s_probe = sender.probe();
        let r_probe = receiver.probe();

        let mut engine: Engine<Flit> = Engine::new(100);
        let s = engine.add_agent(Box::new(sender));
        let r = engine.add_agent(Box::new(receiver));
        engine.connect(s, 0, r, 0, Cycle::new(100)).unwrap();
        engine.connect(r, 0, s, 0, Cycle::new(100)).unwrap();
        engine.run_until_done(Cycle::new(10_000_000)).unwrap();

        let rp = r_probe.lock();
        assert_eq!(rp.exit_code, Some(0));
        let received = mailbox_u64(&rp.mailbox, 0);
        let elapsed = mailbox_u64(&rp.mailbox, 1);
        assert_eq!(received, (frames * frame_wire) as u64);
        // Achieved bandwidth: bytes/cycle; the link moves 8 B/cycle. A
        // saturating sender should exceed 6 B/cycle (~150 Gbit/s).
        let bpc = received as f64 / elapsed as f64;
        assert!(bpc > 6.0, "achieved only {bpc:.2} bytes/cycle");
        let sp = s_probe.lock();
        assert_eq!(sp.exit_code, Some(0));
        assert_eq!(sp.nic.tx_packets as usize, frames);
    }

    #[test]
    fn accelerator_beats_software_memcpy() {
        let len = 16 * 1024u64;
        let prog = memcpy_race(len);
        let mut blade = RtlBlade::new(
            "accel",
            MacAddr::from_node_index(0),
            crate::BladeConfig::single_core()
                .with_dram_bytes(4 << 20)
                .with_accel(),
        );
        prog.install(&mut blade);
        let probe = blade.probe();
        let peer = blade_with("peer", 1, &boot_poweroff(10));
        let mut engine: Engine<Flit> = Engine::new(100);
        let a = engine.add_agent(Box::new(blade));
        let b = engine.add_agent(Box::new(peer));
        engine.connect(a, 0, b, 0, Cycle::new(100)).unwrap();
        engine.connect(b, 0, a, 0, Cycle::new(100)).unwrap();
        engine.run_until_done(Cycle::new(50_000_000)).unwrap();

        let p = probe.lock();
        assert_eq!(p.exit_code, Some(0));
        let sw = mailbox_u64(&p.mailbox, 0);
        let hw = mailbox_u64(&p.mailbox, 1);
        let ok = mailbox_u64(&p.mailbox, 2);
        assert_eq!(ok, 1, "accelerated copy corrupted data");
        // 32 B/cycle DMA vs a 5-instruction-per-8-bytes loop: the
        // accelerator should win by an order of magnitude.
        assert!(hw * 8 < sw, "sw {sw} cycles vs hw {hw} cycles");
        // And the DMA time is close to len/32 plus polling granularity.
        assert!(hw >= len / 32, "hw {hw} too fast");
        assert!(hw < len / 32 + 2_000, "hw {hw} too slow");
    }

    #[test]
    fn boot_poweroff_completes() {
        let prog = boot_poweroff(1000);
        let b0 = blade_with("n0", 0, &prog);
        let b1 = blade_with("n1", 1, &prog);
        let probe = b0.probe();
        let mut engine: Engine<Flit> = Engine::new(100);
        let a0 = engine.add_agent(Box::new(b0));
        let a1 = engine.add_agent(Box::new(b1));
        engine.connect(a0, 0, a1, 0, Cycle::new(100)).unwrap();
        engine.connect(a1, 0, a0, 0, Cycle::new(100)).unwrap();
        let summary = engine.run_until_done(Cycle::new(10_000_000)).unwrap();
        assert!(summary.cycles < Cycle::new(10_000_000));
        assert_eq!(probe.lock().exit_code, Some(0));
        assert_eq!(mailbox_u64(&probe.lock().mailbox, 0), 0);
    }

    /// The wrapped boot loop keeps retiring long after the unwrapped one
    /// would have strided off the end of a 1 MiB blade (~12 k iterations).
    #[test]
    fn boot_poweroff_wrapping_stays_in_dram() {
        use firesim_core::{AgentCtx, SimAgent, TokenWindow};
        let mut blade = RtlBlade::new(
            "b",
            MacAddr::from_node_index(0),
            BladeConfig::single_core().with_dram_bytes(1 << 20),
        );
        boot_poweroff_wrapping(1 << 40).install(&mut blade);
        let probe = blade.probe();
        let window = 6_400u32;
        let mut last_retired = 0;
        for w in 0..400u64 {
            let mut ctx = AgentCtx::standalone(
                Cycle::new(w * u64::from(window)),
                window,
                vec![TokenWindow::new(window)],
                1,
            );
            blade.advance(&mut ctx);
            let retired = probe.lock().retired;
            assert!(retired > last_retired, "window {w} retired nothing");
            last_retired = retired;
        }
        // Seven instructions per iteration; the unwrapped loop leaves DRAM
        // after (1 MiB - 256 KiB) / 64 iterations.
        let unwrapped_limit = ((1u64 << 20) - 0x4_0000) / 64 * 7;
        assert!(
            last_retired > unwrapped_limit,
            "{last_retired} retired, want > {unwrapped_limit}"
        );
    }
}
