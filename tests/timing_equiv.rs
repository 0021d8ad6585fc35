//! Differential property test for the event-driven timing layer.
//!
//! The batched schedule (`RtlBlade::advance_batched` + `Cpu::run_timed`)
//! is a host-side optimisation only: it must produce *bit-identical*
//! target state to the per-cycle reference loop it replaced (kept as
//! `advance_reference` behind `TimingConfig::reference_timing`). These
//! tests generate randomized bare-metal programs from a fixed seed —
//! ALU/branch/memory mixes, MMIO pokes, CSR reads, timer-armed WFI
//! parking, NIC transmits — run each program through both schedules
//! window by window, and demand that every full blade snapshot
//! (registers, CSRs including `mcycle`/`minstret`, caches, DRAM,
//! devices, probe) and every output token window match byte for byte.

use firesim_blade::{programs, BladeConfig, RtlBlade};
use firesim_core::snapshot::{Checkpoint, SnapshotWriter};
use firesim_core::{AgentCtx, Cycle, SimAgent, TokenWindow};
use firesim_devices::map::{CLINT_BASE, NIC_BASE, UART_BASE};
use firesim_devices::{clint, nic, uart};
use firesim_net::{EtherType, Flit, MacAddr};
use firesim_riscv::asm::Assembler;
use firesim_riscv::csr::addr as csr;
use firesim_riscv::DRAM_BASE;

const WINDOW: u32 = 3_200;

/// Deterministic xorshift-style generator (same construction as the
/// distributed-mode tests): seed-stable across platforms and runs.
struct Rng {
    s: u64,
}

impl Rng {
    fn new(seed: u64) -> Self {
        Rng {
            s: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    fn next(&mut self) -> u64 {
        let mut z = self.s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.s = self.s.wrapping_add(1);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Scratch RAM: one 2 KiB hart-private region per hart, far from the
/// program image and the TX frame template.
const SCRATCH: u64 = DRAM_BASE + 0x4000;

/// Emits one random instruction (or short idiom) into the loop body.
/// Registers x10-x17 hold working data; x28 is the hart's scratch base;
/// x5-x7 and x29-x31 are free temporaries.
fn emit_random_inst(a: &mut Assembler, rng: &mut Rng, uniq: &mut u32, sends: &mut u32) {
    let data_reg = |rng: &mut Rng| 10 + rng.below(8) as u8;
    match rng.below(16) {
        0..=4 => {
            let (rd, rs1, rs2) = (data_reg(rng), data_reg(rng), data_reg(rng));
            match rng.below(8) {
                0 => a.add(rd, rs1, rs2),
                1 => a.sub(rd, rs1, rs2),
                2 => a.xor(rd, rs1, rs2),
                3 => a.or(rd, rs1, rs2),
                4 => a.and(rd, rs1, rs2),
                5 => a.sll(rd, rs1, rs2),
                6 => a.sltu(rd, rs1, rs2),
                _ => a.sra(rd, rs1, rs2),
            }
        }
        5..=6 => {
            let (rd, rs1) = (data_reg(rng), data_reg(rng));
            let imm = rng.below(4096) as i64 - 2048;
            match rng.below(4) {
                0 => a.addi(rd, rs1, imm),
                1 => a.xori(rd, rs1, imm),
                2 => a.andi(rd, rs1, imm),
                _ => a.slli(rd, rs1, rng.below(64) as i64),
            }
        }
        7 => {
            let (rd, rs1, rs2) = (data_reg(rng), data_reg(rng), data_reg(rng));
            match rng.below(4) {
                0 => a.mul(rd, rs1, rs2),
                1 => a.mulhu(rd, rs1, rs2),
                2 => a.div(rd, rs1, rs2),
                _ => a.remu(rd, rs1, rs2),
            }
        }
        8..=9 => {
            // Hart-private load/store within the 2 KiB scratch region.
            let off = (rng.below(256) * 8) as i64;
            if rng.below(2) == 0 {
                a.ld(data_reg(rng), 28, off);
            } else {
                a.sd(data_reg(rng), 28, off);
            }
        }
        10..=11 => {
            // Short forward branch over 1-2 ALU instructions: exercises
            // both superblock continuation (not taken) and early ends.
            let label = format!("skip{}", *uniq);
            *uniq += 1;
            let (rs1, rs2) = (data_reg(rng), data_reg(rng));
            match rng.below(4) {
                0 => a.beq(rs1, rs2, label.clone()),
                1 => a.bne(rs1, rs2, label.clone()),
                2 => a.blt(rs1, rs2, label.clone()),
                _ => a.bgeu(rs1, rs2, label.clone()),
            }
            for _ in 0..=rng.below(2) {
                a.add(data_reg(rng), data_reg(rng), data_reg(rng));
            }
            a.label(label);
        }
        12 => {
            // UART transmit: an uncacheable MMIO store, which forces the
            // batched issue loop to stop and flush lagging devices.
            a.li(30, (UART_BASE + uart::reg::TXDATA) as i64);
            a.sb(data_reg(rng), 30, 0);
        }
        13 => {
            // Counter CSR read: funnels through the cold decode arm and
            // observes the deferred `minstret`/`mcycle` flushes.
            let rd = data_reg(rng);
            match rng.below(4) {
                0 => a.csrr(rd, csr::TIME),
                1 => a.csrr(rd, csr::CYCLE),
                2 => a.csrr(rd, csr::MCYCLE),
                _ => a.csrr(rd, csr::MINSTRET),
            }
        }
        14 => {
            // Arm this hart's CLINT timer a short distance ahead, enable
            // the timer interrupt, and park in WFI. The trap handler (see
            // `random_program`) pushes `mtimecmp` back out and `mret`s.
            // Exercises WFI parking, `next_timer_expiry` skip-ahead, and
            // interrupt delivery timing under both schedules.
            let delta = 400 + rng.below(1600) as i64;
            a.csrr(5, csr::MHARTID);
            a.slli(5, 5, 3);
            a.li(6, (CLINT_BASE + clint::MTIMECMP_BASE) as i64);
            a.add(5, 5, 6);
            a.li(6, (CLINT_BASE + clint::MTIME) as i64);
            a.ld(7, 6, 0);
            a.addi(7, 7, delta);
            a.sd(7, 5, 0);
            a.li(6, 1 << 7); // MIE.MTIE
            a.csrs(csr::MIE, 6);
            a.csrsi(csr::MSTATUS, 8); // MSTATUS.MIE
            a.wfi();
        }
        _ => {
            // NIC transmit of the preloaded frame template (bounded per
            // program; the completion is drained so the send queue never
            // grows without limit). Covers DMA reads, egress tokens, and
            // the NIC quiescence hooks.
            if *sends < 4 {
                *sends += 1;
                let drain = format!("drain{}", *uniq);
                *uniq += 1;
                a.li(30, NIC_BASE as i64);
                a.li(31, (programs::TXBUF | (FRAME_LEN << 48)) as i64);
                a.sd(31, 30, nic::reg::SEND_REQ as i64);
                a.label(drain.clone());
                a.ld(5, 30, nic::reg::SEND_COMP as i64);
                a.bnez(5, drain);
            } else {
                a.add(data_reg(rng), data_reg(rng), data_reg(rng));
            }
        }
    }
}

const FRAME_LEN: u64 = 64;

/// Builds a seed-keyed random program: a trap handler, per-hart scratch
/// setup, randomized register seeds, and an infinite loop of 24-64
/// random instructions.
fn random_program(seed: u64) -> programs::Program {
    let mut rng = Rng::new(seed);
    let mut a = Assembler::new(DRAM_BASE);

    a.j("entry");

    // Timer trap handler: disarm this hart's comparator (mtimecmp = all
    // ones never fires) and return. Clobbers x5/x6 — fine, the main loop
    // treats them as temporaries.
    a.label("trap");
    a.csrr(5, csr::MHARTID);
    a.slli(5, 5, 3);
    a.li(6, (CLINT_BASE + clint::MTIMECMP_BASE) as i64);
    a.add(5, 5, 6);
    a.li(6, -1);
    a.sd(6, 5, 0);
    a.mret();

    a.label("entry");
    a.la(5, "trap");
    a.csrw(csr::MTVEC, 5);
    // x28 = per-hart scratch base.
    a.csrr(28, csr::MHARTID);
    a.slli(28, 28, 11);
    a.li(29, SCRATCH as i64);
    a.add(28, 28, 29);
    for r in 10..=17 {
        a.li(r, rng.next() as i64);
    }

    let mut uniq = 0u32;
    let mut sends = 0u32;
    a.label("loop");
    for _ in 0..(24 + rng.below(40)) {
        emit_random_inst(&mut a, &mut rng, &mut uniq, &mut sends);
    }
    a.j("loop");

    let frame = programs::frame_bytes(
        MacAddr::from_node_index(1),
        MacAddr::from_node_index(0),
        EtherType::Echo,
        &[0u8; (FRAME_LEN - 15) as usize],
    );
    programs::Program {
        image: a.assemble().expect("random program assembles"),
        dram_init: vec![(programs::TXBUF, frame)],
        mailbox: (programs::MAILBOX, 8),
    }
}

fn build_blade(program: &programs::Program, cores: usize, reference: bool) -> RtlBlade {
    let mut config = match cores {
        1 => BladeConfig::single_core(),
        _ => BladeConfig::quad_core(),
    }
    .with_dram_bytes(1 << 20);
    config.timing.reference_timing = reference;
    let mut blade = RtlBlade::new("b", MacAddr::from_node_index(0), config);
    program.install(&mut blade);
    blade
}

fn snapshot(blade: &RtlBlade) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    blade.save_state(&mut w).expect("blade snapshots");
    w.into_bytes()
}

/// Advances one window and returns the produced output token windows.
fn advance_window(blade: &mut RtlBlade, now: u64) -> Vec<TokenWindow<Flit>> {
    advance_window_with(blade, now, TokenWindow::new(WINDOW))
}

/// Advances one window, as long as `input`, with `input` on the blade's
/// network port.
fn advance_window_with(
    blade: &mut RtlBlade,
    now: u64,
    input: TokenWindow<Flit>,
) -> Vec<TokenWindow<Flit>> {
    let mut ctx = AgentCtx::standalone(Cycle::new(now), input.len(), vec![input], 1);
    blade.advance(&mut ctx);
    ctx.into_outputs()
}

/// Runs one seed through both timing schedules, comparing full blade
/// snapshots and output tokens after every window.
fn assert_equivalent(seed: u64, cores: usize, windows: u64) {
    let program = random_program(seed);
    let mut reference = build_blade(&program, cores, true);
    let mut batched = build_blade(&program, cores, false);
    let mut now = 0u64;
    for window in 0..windows {
        let out_ref = advance_window(&mut reference, now);
        let out_bat = advance_window(&mut batched, now);
        assert!(
            out_ref == out_bat,
            "seed {seed} ({cores} cores): output tokens diverged in window {window}"
        );
        assert_eq!(
            snapshot(&reference),
            snapshot(&batched),
            "seed {seed} ({cores} cores): blade snapshots diverged after window {window}"
        );
        now += u64::from(WINDOW);
    }
}

#[test]
fn randomized_programs_single_core() {
    for seed in 1..=6 {
        assert_equivalent(seed, 1, 48);
    }
}

#[test]
fn randomized_programs_quad_core() {
    for seed in [7, 8] {
        assert_equivalent(seed, 4, 24);
    }
}

/// A fully parked blade (every hart in WFI, interrupts masked) is the
/// Mode A whole-window-skip path; it must stay indistinguishable from
/// the reference loop, including `mcycle` and idle-cycle bookkeeping.
#[test]
fn parked_blade_matches_reference() {
    let program = programs::park();
    let mut reference = build_blade(&program, 4, true);
    let mut batched = build_blade(&program, 4, false);
    let mut now = 0u64;
    for window in 0..64 {
        let out_ref = advance_window(&mut reference, now);
        let out_bat = advance_window(&mut batched, now);
        assert!(
            out_ref == out_bat,
            "parked: outputs diverged in window {window}"
        );
        assert_eq!(
            snapshot(&reference),
            snapshot(&batched),
            "parked: snapshots diverged after window {window}"
        );
        now += u64::from(WINDOW);
    }
}

/// Runs `program` through both schedules on single-core blades, feeding
/// both the same input windows, and demands identical output windows and
/// snapshots after every window. Returns the batched blade (for checks
/// that the scenario really exercised what it claims) and its outputs.
fn assert_equivalent_fed(
    label: &str,
    program: &programs::Program,
    inputs: &[TokenWindow<Flit>],
) -> (RtlBlade, Vec<TokenWindow<Flit>>) {
    let mut reference = build_blade(program, 1, true);
    let mut batched = build_blade(program, 1, false);
    let mut outputs = Vec::new();
    let mut now = 0u64;
    for (window, input) in inputs.iter().enumerate() {
        let out_ref = advance_window_with(&mut reference, now, input.clone());
        let mut out_bat = advance_window_with(&mut batched, now, input.clone());
        assert!(
            out_ref == out_bat,
            "{label}: output tokens diverged in window {window}"
        );
        assert!(
            snapshot(&reference) == snapshot(&batched),
            "{label}: blade snapshots diverged after window {window}"
        );
        outputs.push(out_bat.swap_remove(0));
        now += u64::from(input.len());
    }
    (batched, outputs)
}

/// Frames a stream sender puts on the wire for the rx-traffic cases: 400
/// frames of 270 bytes keep its NIC busy for about ten windows. Recorded
/// once (itself checked against the reference) and shared by the cases.
fn streamed_windows() -> Vec<TokenWindow<Flit>> {
    static RECORDED: std::sync::OnceLock<Vec<TokenWindow<Flit>>> = std::sync::OnceLock::new();
    RECORDED
        .get_or_init(|| {
            let program = programs::stream_sender(
                MacAddr::from_node_index(0),
                MacAddr::from_node_index(1),
                400,
                256,
                0,
            );
            let idle = vec![TokenWindow::new(WINDOW); 14];
            let (sender, outputs) = assert_equivalent_fed("stream sender", &program, &idle);
            assert!(sender.probe().lock().nic.tx_packets > 100);
            outputs
        })
        .clone()
}

/// A polling stream receiver fed a sender's recorded output: its core
/// spends most cycles stalled on NIC MMIO loads while the NIC writes
/// frames to DRAM, acks the sender mid-stream, then powers off with
/// frames still arriving.
#[test]
fn stream_receiver_matches_reference() {
    let inputs = streamed_windows();
    let program = programs::stream_receiver(
        MacAddr::from_node_index(1),
        MacAddr::from_node_index(0),
        150 * 270,
    );
    let (receiver, _) = assert_equivalent_fed("stream receiver", &program, &inputs);
    let probe = receiver.probe();
    let p = probe.lock();
    assert!(p.nic.rx_packets >= 150, "{:?}", p.nic);
    assert_eq!(p.nic.tx_packets, 1, "the receiver acks once");
    assert_eq!(p.exit_code, Some(0));
}

/// Keeps every third frame of `windows`, so the NIC's writer finishes
/// each frame in a gap with no rx flits.
fn every_third_frame(windows: &[TokenWindow<Flit>]) -> Vec<TokenWindow<Flit>> {
    let mut frame = 0u64;
    windows
        .iter()
        .cloned()
        .map(|mut w| {
            w.retain(|_, f| {
                let keep = frame.is_multiple_of(3);
                frame += u64::from(f.last);
                keep
            });
            w
        })
        .collect()
}

/// An interrupt-driven receiver: the core parks in WFI with `mie.MEIE`
/// and the NIC's receive-completion interrupt enabled, and its handler
/// drains completions and re-posts buffers. Frames arrive with gaps, so
/// the core is parked while the writer finishes each one. The completion
/// must wake it on exactly the reference cycle, so no span may run the
/// NIC past it.
#[test]
fn interrupt_driven_receiver_matches_reference() {
    let inputs = every_third_frame(&streamed_windows());
    let mut a = Assembler::new(DRAM_BASE);
    a.j("entry");
    a.label("trap");
    a.label("drain");
    a.ld(5, 30, nic::reg::RECV_COMP as i64);
    a.beqz(5, "done");
    a.addi(5, 5, -1);
    a.add(18, 18, 5);
    a.sd(12, 30, nic::reg::RECV_REQ as i64);
    a.j("drain");
    a.label("done");
    a.mret();
    a.label("entry");
    a.la(5, "trap");
    a.csrw(csr::MTVEC, 5);
    a.li(30, NIC_BASE as i64);
    a.li(12, programs::RXBUF as i64);
    a.li(18, 0);
    for _ in 0..4 {
        a.sd(12, 30, nic::reg::RECV_REQ as i64);
    }
    a.li(6, 0b10); // receive-completion interrupt
    a.sd(6, 30, nic::reg::INTR_MASK as i64);
    a.li(6, 1 << 11); // MIE.MEIE
    a.csrs(csr::MIE, 6);
    a.csrsi(csr::MSTATUS, 8); // MSTATUS.MIE
    a.label("sleep");
    a.wfi();
    a.j("sleep");
    let program = programs::Program {
        image: a.assemble().expect("interrupt receiver assembles"),
        dram_init: Vec::new(),
        mailbox: (programs::MAILBOX, 8),
    };
    let (receiver, _) = assert_equivalent_fed("interrupt receiver", &program, &inputs);
    let probe = receiver.probe();
    let p = probe.lock();
    assert!(p.nic.rx_packets >= 100, "{:?}", p.nic);
    assert!(p.retired > 1_000, "the handler ran: {} retired", p.retired);
}

/// A powered-off blade keeps exchanging tokens: its NIC still buffers
/// frames, writes them into the posted buffers and drops what no longer
/// fits.
#[test]
fn powered_off_receiver_matches_reference() {
    let inputs = streamed_windows();
    let mut a = Assembler::new(DRAM_BASE);
    a.li(30, NIC_BASE as i64);
    a.li(12, programs::RXBUF as i64);
    for _ in 0..4 {
        a.sd(12, 30, nic::reg::RECV_REQ as i64);
    }
    a.li(5, firesim_blade::POWEROFF_ADDR as i64);
    a.sd(0, 5, 0);
    a.label("spin");
    a.j("spin");
    let program = programs::Program {
        image: a.assemble().expect("powered-off receiver assembles"),
        dram_init: Vec::new(),
        mailbox: (programs::MAILBOX, 8),
    };
    let (receiver, _) = assert_equivalent_fed("powered-off receiver", &program, &inputs);
    let probe = receiver.probe();
    let p = probe.lock();
    assert_eq!(p.exit_code, Some(0));
    assert!(p.nic.rx_packets > 4, "{:?}", p.nic);
    assert!(p.nic.rx_dropped > 0, "{:?}", p.nic);
}

/// Re-slices a recorded flit stream into consecutive windows whose
/// lengths cycle through `lens`, covering the same target cycles.
fn rewindow(windows: &[TokenWindow<Flit>], lens: &[u32]) -> Vec<TokenWindow<Flit>> {
    let total: u64 = windows.iter().map(|w| u64::from(w.len())).sum();
    let mut flits = Vec::new();
    let mut base = 0u64;
    for w in windows {
        flits.extend(w.iter().map(|(off, f)| (base + u64::from(off), *f)));
        base += u64::from(w.len());
    }
    let mut flits = flits.into_iter().peekable();
    let mut out = Vec::new();
    let mut start = 0u64;
    for &len in lens.iter().cycle() {
        if start >= total {
            break;
        }
        let mut w = TokenWindow::new(len);
        while let Some(&(cycle, f)) = flits.peek() {
            if cycle >= start + u64::from(len) {
                break;
            }
            w.push((cycle - start) as u32, f)
                .expect("flits stay in cycle order");
            flits.next();
        }
        out.push(w);
        start += u64::from(len);
    }
    out
}

/// A polling receiver with the NIC's receive-completion interrupt line
/// enabled (but `mie.MEIE` clear, so it never traps): the line rises as
/// the writer finishes a frame and falls when the core pops the
/// completion, mostly while the core is stalled on its MMIO poll. Short
/// windows of varying length put window ends on many different cycles,
/// so a span that wired the line after the NIC's last cycle instead of
/// before it shows up in some window-end snapshot.
#[test]
fn nic_interrupt_line_at_window_ends_matches_reference() {
    let recorded = streamed_windows();
    let inputs = rewindow(&recorded[..1], &[3, 5, 7, 11, 13]);
    let mut a = Assembler::new(DRAM_BASE);
    a.li(30, NIC_BASE as i64);
    a.li(12, programs::RXBUF as i64);
    for _ in 0..8 {
        a.sd(12, 30, nic::reg::RECV_REQ as i64);
    }
    a.li(6, 0b10); // receive-completion interrupt line
    a.sd(6, 30, nic::reg::INTR_MASK as i64);
    a.label("poll");
    a.ld(5, 30, nic::reg::RECV_COMP as i64);
    a.beqz(5, "poll");
    a.sd(12, 30, nic::reg::RECV_REQ as i64);
    a.j("poll");
    let program = programs::Program {
        image: a.assemble().expect("polling receiver assembles"),
        dram_init: Vec::new(),
        mailbox: (programs::MAILBOX, 8),
    };
    let (receiver, _) = assert_equivalent_fed("interrupt line", &program, &inputs);
    assert!(receiver.probe().lock().nic.rx_packets > 20);
}
