//! Substrate microbenchmarks (ablations): how fast are the pieces the
//! scale experiments are built from?

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use firesim_blade::{programs, BladeConfig, RtlBlade};
use firesim_core::{AgentCtx, Cycle, SimAgent, TokenWindow};
use firesim_manager::{BladeSpec, SimConfig, Simulation, Topology};
use firesim_net::{EtherType, EthernetFrame, Flit, FrameFramer, MacAddr, Switch, SwitchConfig};
use firesim_riscv::asm::Assembler;
use firesim_riscv::exec::Cpu;
use firesim_riscv::mem::Memory;
use firesim_uarch::{Cache, CacheConfig, Dram, DramConfig};

/// Functional RISC-V executor: millions of instructions per second.
fn bench_isa(c: &mut Criterion) {
    let mut a = Assembler::new(0x8000_0000);
    a.li(1, 0);
    a.li(2, 1_000);
    a.label("l");
    a.addi(1, 1, 1);
    a.xor(3, 1, 2);
    a.and(4, 3, 1);
    a.blt(1, 2, "l");
    a.label("spin");
    a.j("spin");
    let image = a.assemble().unwrap();
    let mut g = c.benchmark_group("substrate");
    g.throughput(Throughput::Elements(4_000));
    g.bench_function("riscv_functional_4k_insts", |b| {
        b.iter(|| {
            let mut mem = Memory::new(0x8000_0000, 1 << 16);
            mem.write_bytes(0x8000_0000, &image).unwrap();
            let mut cpu = Cpu::new(0, 0x8000_0000);
            for _ in 0..4_000 {
                cpu.step(&mut mem).unwrap();
            }
            cpu.read_reg(1)
        })
    });
    g.finish();
}

/// Full blade: cycles per host second.
fn bench_blade(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate");
    g.throughput(Throughput::Elements(6_400));
    g.bench_function("rtl_blade_one_window", |b| {
        let prog = programs::boot_poweroff_wrapping(1 << 40);
        let mut blade = RtlBlade::new(
            "b",
            MacAddr::from_node_index(0),
            BladeConfig::single_core().with_dram_bytes(1 << 20),
        );
        prog.install(&mut blade);
        let mut now = 0u64;
        b.iter(|| {
            let mut ctx =
                AgentCtx::standalone(Cycle::new(now), 6_400, vec![TokenWindow::new(6_400)], 1);
            blade.advance(&mut ctx);
            now += 6_400;
        })
    });
    g.finish();
}

/// Switch model: frames per second through a loaded port.
fn bench_switch(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate");
    let frame = EthernetFrame::new(
        MacAddr::from_node_index(1),
        MacAddr::from_node_index(0),
        EtherType::Stream,
        bytes::Bytes::from_static(&[0xAA; 1486]),
    );
    g.throughput(Throughput::Elements(32));
    g.bench_function("switch_window_32_frames", |b| {
        let mut sw = Switch::new("tor", SwitchConfig::new(8));
        sw.add_route(MacAddr::from_node_index(1), 1);
        let mut now = 0u64;
        b.iter(|| {
            // One window per port with ~4 frames per active port.
            let mut inputs: Vec<TokenWindow<Flit>> =
                (0..8).map(|_| TokenWindow::new(6_400)).collect();
            for w in inputs.iter_mut().take(8) {
                let mut framer = FrameFramer::new();
                for _ in 0..4 {
                    framer.enqueue(frame.clone());
                }
                let mut off = 0;
                while let Some(f) = framer.next_flit() {
                    w.push(off, f).unwrap();
                    off += 1;
                }
            }
            let mut ctx = AgentCtx::standalone(Cycle::new(now), 6_400, inputs, 8);
            sw.advance(&mut ctx);
            now += 6_400;
            ctx.into_outputs().len()
        })
    });
    g.finish();
}

/// Cache and DRAM timing models.
fn bench_mem_models(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("cache_10k_accesses", |b| {
        let mut cache = Cache::new(CacheConfig::rocket_l1());
        let mut addr = 0u64;
        b.iter(|| {
            let mut hits = 0u64;
            for _ in 0..10_000 {
                addr = addr.wrapping_mul(6364136223846793005).wrapping_add(1);
                if cache.access(addr % (1 << 20), false).hit {
                    hits += 1;
                }
            }
            hits
        })
    });
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("dram_10k_accesses", |b| {
        let mut dram = Dram::new(DramConfig::default());
        let mut addr = 0u64;
        let mut now = 0u64;
        b.iter(|| {
            for _ in 0..10_000 {
                addr = addr.wrapping_mul(6364136223846793005).wrapping_add(64);
                now = dram.access(now, addr % (1 << 24));
            }
            now
        })
    });
    g.finish();
}

/// Builds a parked cluster: `nodes` RTL blades (running `park`, i.e. an
/// idle OS spin) under top-of-rack switches of 8 ports each, plus a root
/// switch when more than one rack is needed. This is the FireSim
/// "simulation rate on an idle cluster" configuration, mixing heavy
/// (blade) and light (switch) agents in one engine.
fn parked_cluster(nodes: usize, link_latency: u64, host_threads: usize) -> Simulation {
    let mut topo = Topology::new();
    let racks = nodes.div_ceil(8);
    if racks == 1 {
        let tor = topo.add_switch("tor0");
        for n in 0..nodes {
            let s = topo.add_server(
                format!("n{n}"),
                BladeSpec::rtl_single_core(programs::park()),
            );
            topo.add_downlink(tor, s).unwrap();
        }
    } else {
        let root = topo.add_switch("root");
        for r in 0..racks {
            let tor = topo.add_switch(format!("tor{r}"));
            topo.add_downlink(root, tor).unwrap();
            for n in (r * 8)..((r + 1) * 8).min(nodes) {
                let s = topo.add_server(
                    format!("n{n}"),
                    BladeSpec::rtl_single_core(programs::park()),
                );
                topo.add_downlink(tor, s).unwrap();
            }
        }
    }
    topo.build(SimConfig {
        link_latency: Cycle::new(link_latency),
        host_threads,
        ..SimConfig::default()
    })
    .unwrap()
}

/// Engine hot-path throughput: target cycles per host second on parked
/// clusters (this is the number EXPERIMENTS.md reports as simulated MHz).
///
/// The small link latency (256 cycles) stresses the token-exchange path —
/// window allocation, channel synchronisation, and scheduling — which is
/// exactly what the engine's recycling/scheduling machinery optimises;
/// per-cycle model cost is the same either way.
fn bench_engine_throughput(c: &mut Criterion) {
    const LINK_LATENCY: u64 = 256;
    const ROUNDS_PER_ITER: u64 = 8;
    let mut g = c.benchmark_group("engine_throughput");
    g.sample_size(10);
    g.throughput(Throughput::Elements(LINK_LATENCY * ROUNDS_PER_ITER));
    for nodes in [8usize, 64] {
        for threads in [1usize, 2, 4, 8] {
            let mut sim = parked_cluster(nodes, LINK_LATENCY, threads);
            g.bench_function(format!("parked{nodes}/t{threads}"), |b| {
                b.iter(|| {
                    sim.run_for(Cycle::new(LINK_LATENCY * ROUNDS_PER_ITER))
                        .unwrap()
                        .cycles
                })
            });
        }
    }
    g.finish();
}

/// Engine throughput with the observability layer on: same parked
/// clusters as [`bench_engine_throughput`], but with the sharded metrics
/// registry (and per-agent profiling) enabled.
fn bench_engine_throughput_metrics(c: &mut Criterion) {
    const LINK_LATENCY: u64 = 256;
    const ROUNDS_PER_ITER: u64 = 8;
    let mut g = c.benchmark_group("engine_throughput");
    g.sample_size(10);
    g.throughput(Throughput::Elements(LINK_LATENCY * ROUNDS_PER_ITER));
    for nodes in [8usize, 64] {
        for threads in [1usize, 4] {
            let mut sim = parked_cluster(nodes, LINK_LATENCY, threads);
            sim.enable_metrics();
            g.bench_function(format!("parked{nodes}/t{threads}+metrics"), |b| {
                b.iter(|| {
                    sim.run_for(Cycle::new(LINK_LATENCY * ROUNDS_PER_ITER))
                        .unwrap()
                        .cycles
                })
            });
        }
    }
    g.finish();
}

/// Steady-state engine rates for a plain and an observed simulation,
/// sampled interleaved (plain burst, observed burst, repeat) so that
/// host-load drift hits both variants equally; minimum time per variant,
/// because noise only ever slows a sample down. Measuring the two in
/// separate phases instead can report ±10% phantom overhead on a busy
/// host.
fn interleaved_rates(
    plain: &mut Simulation,
    observed: &mut Simulation,
    link_latency: u64,
) -> (f64, f64) {
    const ROUNDS: u64 = 64;
    let cycles = Cycle::new(link_latency * ROUNDS);
    plain.run_for(cycles).unwrap(); // warm-up
    observed.run_for(cycles).unwrap();
    let mut best = [f64::MAX; 2];
    for _ in 0..9 {
        for (b, sim) in best.iter_mut().zip([&mut *plain, &mut *observed]) {
            let t0 = std::time::Instant::now();
            sim.run_for(cycles).unwrap();
            *b = b.min(t0.elapsed().as_secs_f64());
        }
    }
    let c = (link_latency * ROUNDS) as f64;
    (c / best[0], c / best[1])
}

/// Overhead guard (observability must be nearly free): with metrics and
/// profiling enabled the engine keeps at least 95% of its unobserved
/// throughput. The assertion only fires in measure mode — under
/// `--test` criterion runs one smoke iteration and timings are
/// meaningless.
fn bench_observability_overhead_guard(_c: &mut Criterion) {
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    const LINK_LATENCY: u64 = 256;
    let mut plain = parked_cluster(8, LINK_LATENCY, 1);
    let mut observed = parked_cluster(8, LINK_LATENCY, 1);
    observed.enable_metrics();
    let (rate_plain, rate_observed) = interleaved_rates(&mut plain, &mut observed, LINK_LATENCY);
    let overhead = rate_plain / rate_observed - 1.0;
    println!(
        "observability overhead: {:+.2}% (plain {:.3} MHz, metrics {:.3} MHz)",
        overhead * 100.0,
        rate_plain / 1e6,
        rate_observed / 1e6,
    );
    assert!(
        overhead <= 0.05,
        "metrics-enabled engine is {:.1}% slower than unobserved (budget: 5%)",
        overhead * 100.0
    );
}

criterion_group!(
    benches,
    bench_isa,
    bench_blade,
    bench_switch,
    bench_mem_models,
    bench_engine_throughput,
    bench_engine_throughput_metrics,
    bench_observability_overhead_guard
);
criterion_main!(benches);
