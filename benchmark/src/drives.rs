//! Layer drives: each calls one layer's public entry points directly, on
//! the inputs the workloads feed it, and reports host nanoseconds per
//! operation. They measure a layer *alone* — what it costs with warm
//! caches and nothing else running — where the traced pass measures its
//! share of a whole run.
//!
//! Sampling is min-of-[`REPS`] over bursts of at least the caller's
//! length, the drives interleaved so host drift hits all of them alike;
//! the minimum, because noise only ever slows a burst down.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use firesim_blade::programs::{self, frame_bytes};
use firesim_blade::{BladeConfig, RtlBlade};
use firesim_core::{AgentCtx, Cycle, Engine, SimAgent, SimError, SimResult, TokenWindow};
use firesim_net::{
    encode_token_frame, EtherType, Flit, FrameFramer, MacAddr, Switch, SwitchConfig, TokenDeframer,
};
use firesim_platform::{
    ChannelTransport, ShmTransport, SocketListener, SocketTransport, TokenTransport,
};
use firesim_riscv::{Cpu, DecodeCache, Memory, DRAM_BASE};
use firesim_uarch::{
    AccessKind, Dram, DramConfig, MemSystem, MemSystemConfig, TimingConfig, TimingCore,
};

use crate::programs::{compute_image, STRIDE, STRIDE_BUFFER_BASE, STRIDE_BUFFER_BYTES};
use crate::workloads::STREAM_PAYLOAD;

/// Bursts per drive.
const REPS: usize = 3;

/// One drive: runs `iters` iterations, returns the time they took and how
/// many operations they performed.
struct Drive {
    name: &'static str,
    run: Box<dyn FnMut(u64) -> (Duration, u64)>,
    iters: u64,
}

impl Drive {
    fn new(name: &'static str, run: impl FnMut(u64) -> (Duration, u64) + 'static) -> Self {
        Drive {
            name,
            run: Box::new(run),
            iters: 1,
        }
    }

    /// Grows `iters` until one burst lasts `burst`; doubles as warm-up.
    fn calibrate(&mut self, burst: Duration) {
        loop {
            let (t, _) = (self.run)(self.iters);
            if t >= burst / 4 {
                let scale = burst.as_secs_f64() / t.as_secs_f64();
                self.iters = ((self.iters as f64 * scale).ceil() as u64).max(1);
                return;
            }
            self.iters *= 4;
        }
    }
}

fn timed(f: impl FnOnce() -> u64) -> (Duration, u64) {
    let t0 = Instant::now();
    let ops = f();
    (t0.elapsed(), ops)
}

// ---------------------------------------------------------------- core

/// Consumes its input window and produces nothing.
struct Idle(String);

impl SimAgent for Idle {
    type Token = Flit;
    fn name(&self) -> &str {
        &self.0
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn advance(&mut self, ctx: &mut AgentCtx<Flit>) {
        ctx.drain_input(0).for_each(drop);
    }
}

/// Fills every cycle of its output window (or none of it).
struct Producer {
    dense: bool,
}

impl SimAgent for Producer {
    type Token = Flit;
    fn name(&self) -> &str {
        "producer"
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn advance(&mut self, ctx: &mut AgentCtx<Flit>) {
        ctx.drain_input(0).for_each(drop);
        if self.dense {
            for off in 0..ctx.window() {
                ctx.push_output(0, off, Flit::from_bytes(&off.to_le_bytes(), false));
            }
        }
    }
}

/// `agents` in a ring, each link one window long.
fn ring(
    window: u32,
    agents: Vec<Box<dyn SimAgent<Token = Flit>>>,
    threads: usize,
) -> SimResult<Engine<Flit>> {
    let mut engine = Engine::new(window);
    engine.set_host_threads(threads);
    let ids: Vec<_> = agents.into_iter().map(|a| engine.add_agent(a)).collect();
    for (i, &id) in ids.iter().enumerate() {
        let next = ids[(i + 1) % ids.len()];
        engine.connect(id, 0, next, 0, Cycle::new(u64::from(window)))?;
    }
    Ok(engine)
}

/// Rounds of an engine; operations = agent steps.
fn engine_drive(name: &'static str, mut engine: Engine<Flit>) -> Drive {
    let window = u64::from(engine.window());
    let agents = engine.agent_count() as u64;
    Drive::new(name, move |iters| {
        timed(|| {
            engine
                .run_for(Cycle::new(iters * window))
                .expect("drive engine runs");
            iters * agents
        })
    })
}

fn core_drives() -> SimResult<Vec<Drive>> {
    let idle_ring = |threads| {
        let agents = (0..64)
            .map(|i| Box::new(Idle(format!("idle{i}"))) as Box<dyn SimAgent<Token = Flit>>)
            .collect();
        ring(640, agents, threads)
    };
    let pair = |dense| {
        ring(
            6_400,
            vec![Box::new(Producer { dense }), Box::new(Idle("sink".into()))],
            1,
        )
    };
    Ok(vec![
        engine_drive("core.engine.empty_round_ns", idle_ring(1)?),
        engine_drive("core.engine.empty_round_ns_t2", idle_ring(2)?),
        engine_drive("raw.channel.dense_step_ns", pair(true)?),
        engine_drive("raw.channel.empty_step_ns", pair(false)?),
    ])
}

// --------------------------------------------------------------- blade

fn blade_drive() -> Drive {
    const WINDOW: u32 = 640;
    let mut blade = RtlBlade::new(
        "parked",
        MacAddr::from_node_index(0),
        BladeConfig::single_core().with_dram_bytes(4 << 20),
    );
    programs::park().install(&mut blade);
    let mut now = 0u64;
    Drive::new("blade.rtl.ns_per_window_parked", move |iters| {
        timed(|| {
            for _ in 0..iters {
                let mut ctx = AgentCtx::standalone(
                    Cycle::new(now),
                    WINDOW,
                    vec![TokenWindow::new(WINDOW)],
                    1,
                );
                blade.advance(&mut ctx);
                now += u64::from(WINDOW);
            }
            iters
        })
    })
}

// -------------------------------------------------------- riscv, uarch

/// Flat memory holding the compute loop at the reset vector.
fn compute_memory() -> Memory {
    let mut mem = Memory::new(DRAM_BASE, 1 << 16);
    mem.write_bytes(DRAM_BASE, &compute_image(DRAM_BASE))
        .expect("image fits");
    mem
}

fn exec_drive() -> Drive {
    const STEPS: u64 = 10_000;
    let mut cpu = Cpu::new(0, DRAM_BASE);
    let mut mem = compute_memory();
    let mut cache = DecodeCache::new();
    Drive::new("raw.riscv.exec_ns_per_inst", move |iters| {
        timed(|| {
            (0..iters)
                .map(|_| cpu.run_cached(&mut mem, &mut cache, STEPS).retired)
                .sum()
        })
    })
}

fn timing_drive() -> Drive {
    const BUDGET: u64 = 6_400;
    let mut core = TimingCore::new(Cpu::new(0, DRAM_BASE), TimingConfig::rocket());
    let mut memsys = MemSystem::new(1, MemSystemConfig::default());
    let mut mem = compute_memory();
    let mut now = 0u64;
    Drive::new("raw.uarch.timed_ns_per_inst", move |iters| {
        timed(|| {
            let before = core.retired();
            for _ in 0..iters {
                now += core.advance(&mut mem, &mut memsys, 0, now, BUDGET);
            }
            core.retired() - before
        })
    })
}

/// Loads over `span` bytes at cache-line stride, wrapping.
fn memsys_drive(name: &'static str, span: u64) -> Drive {
    let mut memsys = MemSystem::new(1, MemSystemConfig::default());
    let (mut now, mut off) = (0u64, 0u64);
    Drive::new(name, move |iters| {
        timed(|| {
            for _ in 0..iters {
                now += memsys.access(0, AccessKind::Load, STRIDE_BUFFER_BASE + off, now);
                off = (off + STRIDE) % span;
            }
            iters
        })
    })
}

fn dram_drives() -> Vec<Drive> {
    let mut dense = Dram::new(DramConfig::default());
    let (mut now, mut off) = (0u64, 0u64);
    let mut sparse = Dram::new(DramConfig::default());
    let idle_span = 10 * DramConfig::default().t_refi;
    let mut horizon = 0u64;
    vec![
        Drive::new("uarch.dram.ns_per_access_dense", move |iters| {
            timed(|| {
                for _ in 0..iters {
                    now = dense.access(now, STRIDE_BUFFER_BASE + off);
                    off = (off + STRIDE) % STRIDE_BUFFER_BYTES;
                }
                iters
            })
        }),
        Drive::new("uarch.dram.ns_per_advance_sparse", move |iters| {
            timed(|| {
                for _ in 0..iters {
                    horizon += idle_span;
                    sparse.advance_to(horizon);
                }
                std::hint::black_box(sparse.stats());
                iters
            })
        }),
    ]
}

// ----------------------------------------------------------------- net

const SWITCH_PORTS: usize = 33;
/// Ports that carry frames in the loaded-switch drive, and frames per
/// port per window: ~1/3 of a 6 400-cycle window, as `rack8_stream` loads
/// its ToR.
const LOADED_PORTS: usize = 8;
const FRAMES_PER_WINDOW: usize = 16;

fn switch() -> Switch {
    let mut sw = Switch::new("drive", SwitchConfig::new(SWITCH_PORTS));
    for p in 0..SWITCH_PORTS {
        sw.add_route(MacAddr::from_node_index(p as u64), p);
    }
    sw
}

/// One window of back-to-back stream frames from port `src` to its
/// neighbour.
fn framed_window(window: u32, src: usize) -> TokenWindow<Flit> {
    let mut framer = FrameFramer::new();
    let wire = frame_bytes(
        MacAddr::from_node_index(((src + 1) % LOADED_PORTS) as u64),
        MacAddr::from_node_index(src as u64),
        EtherType::Stream,
        &[0x5A; STREAM_PAYLOAD],
    );
    for _ in 0..FRAMES_PER_WINDOW {
        framer.enqueue_wire(wire.clone());
    }
    let mut w = TokenWindow::new(window);
    let mut off = 0;
    while let Some(flit) = framer.next_flit() {
        w.push(off, flit).expect("frames fit the window");
        off += 1;
    }
    w
}

/// Builds the per-window inputs and steps the switch when `advance` is
/// set; without it, the same loop minus the switch — the harness cost the
/// caller subtracts.
fn switch_drive(name: &'static str, window: u32, loaded: bool, advance: bool) -> Drive {
    let mut sw = switch();
    let template: Vec<TokenWindow<Flit>> = (0..SWITCH_PORTS)
        .map(|p| {
            if loaded && p < LOADED_PORTS {
                framed_window(window, p)
            } else {
                TokenWindow::new(window)
            }
        })
        .collect();
    let mut now = 0u64;
    Drive::new(name, move |iters| {
        timed(|| {
            for _ in 0..iters {
                let mut ctx =
                    AgentCtx::standalone(Cycle::new(now), window, template.clone(), SWITCH_PORTS);
                if advance {
                    sw.advance(&mut ctx);
                }
                std::hint::black_box(&mut ctx);
                now += u64::from(window);
            }
            iters
        })
    })
}

fn dense_window() -> TokenWindow<Flit> {
    let mut w = TokenWindow::new(6_400);
    for off in 0..6_400u32 {
        w.push(off, Flit::from_bytes(&off.to_le_bytes(), false))
            .expect("in range");
    }
    w
}

fn codec_drives() -> Vec<Drive> {
    let mut out = Vec::new();
    for (suffix_enc, suffix_dec, window) in [
        (
            "net.codec.encode_ns_empty",
            "net.codec.decode_ns_empty",
            TokenWindow::new(6_400),
        ),
        (
            "net.codec.encode_ns_dense",
            "net.codec.decode_ns_dense",
            dense_window(),
        ),
    ] {
        let bytes = encode_token_frame(0, &window);
        out.push(Drive::new(suffix_enc, move |iters| {
            timed(|| {
                for seq in 0..iters {
                    std::hint::black_box(encode_token_frame(seq, std::hint::black_box(&window)));
                }
                iters
            })
        }));
        let mut deframer = TokenDeframer::new();
        out.push(Drive::new(suffix_dec, move |iters| {
            timed(|| {
                for _ in 0..iters {
                    deframer.feed(&bytes);
                    let frame = deframer.next_frame::<Flit>().expect("own encoding decodes");
                    std::hint::black_box(frame);
                }
                iters
            })
        }));
    }
    out
}

// ------------------------------------------------------------ platform

/// One end of a transport whose other end echoes every window back.
struct Echoed {
    near: Box<dyn TokenTransport<Flit>>,
    halt: Arc<AtomicBool>,
    echo: Option<JoinHandle<()>>,
}

impl Echoed {
    fn new(
        near: impl TokenTransport<Flit> + 'static,
        mut far: impl TokenTransport<Flit> + 'static,
    ) -> Self {
        let halt = Arc::new(AtomicBool::new(false));
        let far_halt = Arc::clone(&halt);
        let echo = std::thread::spawn(move || {
            while let Ok(Some(w)) = far.recv_window(&far_halt) {
                if far.send_window(&w).is_err() {
                    break;
                }
            }
        });
        Echoed {
            near: Box::new(near),
            halt,
            echo: Some(echo),
        }
    }
}

impl Drop for Echoed {
    fn drop(&mut self) {
        self.halt.store(true, Ordering::SeqCst);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

fn link_drive(name: &'static str, mut link: Echoed) -> Drive {
    let window: TokenWindow<Flit> = TokenWindow::new(6_400);
    Drive::new(name, move |iters| {
        timed(|| {
            for _ in 0..iters {
                link.near.send_window(&window).expect("echo link sends");
                let back = link
                    .near
                    .recv_window(&link.halt)
                    .expect("echo link receives");
                assert!(back.is_some(), "echo link closed");
            }
            iters
        })
    })
}

/// Socket pair through `listener`, the connecting side made by `connect`.
fn socket_pair(
    listener: SocketListener,
    connect: impl FnOnce() -> SimResult<SocketTransport<Flit>> + Send + 'static,
) -> SimResult<Echoed> {
    let far = std::thread::spawn(connect);
    let near = listener.accept::<Flit>()?;
    let far = far
        .join()
        .map_err(|_| SimError::protocol("connecting thread panicked"))??;
    Ok(Echoed::new(near, far))
}

/// `scratch` relative to the working directory when it lies below it: a
/// Unix socket path holds ~100 bytes, which an absolute checkout path can
/// exceed.
fn short(scratch: &Path) -> PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| scratch.strip_prefix(cwd).ok().map(Path::to_owned))
        .unwrap_or_else(|| scratch.to_owned())
}

fn link_drives(scratch: &Path) -> SimResult<Vec<Drive>> {
    let no_halt = AtomicBool::new(false);
    let (a, b) = ChannelTransport::<Flit>::pair();
    let channel = Echoed::new(a, b);

    let ring = scratch.join("drive.ring");
    let shm = Echoed::new(
        ShmTransport::<Flit>::create(&ring)?,
        ShmTransport::<Flit>::open(&ring, &no_halt)?,
    );

    let listener = SocketListener::tcp("127.0.0.1:0")?;
    let addr = listener.local_addr()?.to_string();
    let tcp = socket_pair(listener, move || {
        SocketTransport::connect_tcp(&addr, &AtomicBool::new(false))
    })?;

    let sock = short(scratch).join("drive.sock");
    let _ = std::fs::remove_file(&sock);
    let listener = SocketListener::unix(&sock)?;
    let unix = socket_pair(listener, move || {
        SocketTransport::connect_unix(&sock, &AtomicBool::new(false))
    })?;

    Ok(vec![
        link_drive("platform.link.channel_window_rtt_ns", channel),
        link_drive("platform.link.shm_window_rtt_ns", shm),
        link_drive("platform.link.tcp_window_rtt_ns", tcp),
        link_drive("platform.link.unix_window_rtt_ns", unix),
    ])
}

// ------------------------------------------------------------- driver

/// Runs every drive; host nanoseconds per operation by metric name, except
/// `riscv.exec.mips` (millions of instructions per host second).
///
/// `scratch` is a directory inside the checkout for the shared-memory ring
/// and the Unix socket; `burst` is the shortest burst to time.
///
/// # Errors
///
/// Propagates engine wiring and transport set-up errors.
pub fn run(scratch: &Path, burst: Duration) -> SimResult<BTreeMap<&'static str, f64>> {
    let mut drives = core_drives()?;
    drives.push(blade_drive());
    drives.push(exec_drive());
    drives.push(timing_drive());
    drives.push(memsys_drive("uarch.memsys.ns_per_access_hit", 8 << 10));
    drives.push(memsys_drive(
        "uarch.memsys.ns_per_access_miss",
        STRIDE_BUFFER_BYTES,
    ));
    drives.extend(dram_drives());
    drives.push(switch_drive("raw.switch.empty_step", 640, false, true));
    drives.push(switch_drive("raw.switch.empty_harness", 640, false, false));
    drives.push(switch_drive("raw.switch.loaded_step", 6_400, true, true));
    drives.push(switch_drive(
        "raw.switch.loaded_harness",
        6_400,
        true,
        false,
    ));
    drives.extend(codec_drives());
    drives.extend(link_drives(scratch)?);

    for d in &mut drives {
        d.calibrate(burst);
    }
    let mut best: BTreeMap<&'static str, f64> = BTreeMap::new();
    for _ in 0..REPS {
        for d in &mut drives {
            let (t, ops) = (d.run)(d.iters);
            let ns = t.as_nanos() as f64 / ops.max(1) as f64;
            best.entry(d.name)
                .and_modify(|b| *b = b.min(ns))
                .or_insert(ns);
        }
    }
    drop(drives);
    let _ = std::fs::remove_file(short(scratch).join("drive.sock"));

    // Derived metrics: subtract what the harness or a lower layer costs.
    let mut raw = |name: &str| best.remove(name).expect("drive ran");
    let exec_ns = raw("raw.riscv.exec_ns_per_inst");
    let timed_ns = raw("raw.uarch.timed_ns_per_inst");
    let empty_switch = raw("raw.switch.empty_step") - raw("raw.switch.empty_harness");
    let loaded_switch = raw("raw.switch.loaded_step") - raw("raw.switch.loaded_harness");
    // The two-agent ring steps two agents per round, moving one window
    // each way; report the round.
    let dense_round = 2.0 * raw("raw.channel.dense_step_ns");
    let empty_round = 2.0 * raw("raw.channel.empty_step_ns");
    best.insert("riscv.exec.mips", 1e3 / exec_ns);
    best.insert("uarch.timing.ns_per_inst", timed_ns - exec_ns);
    best.insert("net.switch.ns_per_window_empty", empty_switch);
    // The window's fixed cost is amortised over the frames it carries.
    best.insert(
        "net.switch.ns_per_frame",
        loaded_switch / (LOADED_PORTS * FRAMES_PER_WINDOW) as f64,
    );
    best.insert("core.channel.dense_window_ns", dense_round);
    best.insert("core.channel.empty_window_ns", empty_round);
    Ok(best)
}
