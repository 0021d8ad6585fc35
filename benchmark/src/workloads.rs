//! The six workloads: what each simulates, on how many host threads, and
//! the fixed target-cycle sizes its measurements are cut into.
//!
//! Sizes are frozen here and never scaled at run time. `--seconds` only
//! decides how many whole chunks a run measures; every output check is
//! taken at a fixed target cycle, so it does not depend on host speed.

use std::sync::Arc;

use parking_lot::Mutex;

use firesim_blade::model::OsConfig;
use firesim_blade::programs::{self, Program};
use firesim_blade::services::{KvServer, KvServerConfig, Mutilate, MutilateConfig, MutilateStats};
use firesim_blade::BladeConfig;
use firesim_core::{Cycle, SimResult};
use firesim_manager::{BladeSpec, SimConfig, Topology};
use firesim_net::MacAddr;

use crate::programs::{compute_loop, stride_loop};

/// Seed used when `--seed` is absent; the one `expected.json` records
/// seed-dependent values for.
pub const DEFAULT_SEED: u64 = 7_000;

/// What the RTL blades of a workload must do in every measured chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retire {
    /// Retire instructions in every chunk (a blade that fell off its
    /// program, as Fig 8's does, fails this).
    Busy,
    /// Stay parked: retire nothing after boot.
    Parked,
    /// No RTL blades.
    None,
}

/// How a workload executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `Topology::build` then `Simulation::run_for` in this process.
    InProcess,
    /// `run_partitioned` over TCP with two worker processes; one fleet run
    /// of `chunk_cycles` per measured sample.
    FleetTcp,
}

/// Handles into model-blade applications, filled while a topology's app
/// factories run during `Topology::build`.
#[derive(Debug, Default, Clone)]
pub struct Probes {
    /// One latency record per load generator.
    pub mutilate: Arc<Mutex<Vec<Arc<Mutex<MutilateStats>>>>>,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// How it executes.
    pub mode: Mode,
    /// Engine worker threads (per process).
    pub host_threads: usize,
    /// Link latency = token window, in target cycles.
    pub link_latency: u64,
    /// Target cycle at which outputs are checked against `expected.json`
    /// and against the reference execution.
    pub prefix_cycles: u64,
    /// Target cycles per measured chunk (~0.25 s on the 2-vCPU reference
    /// box; see README for the calibration).
    pub chunk_cycles: u64,
    /// Per-chunk retirement rule for the RTL blades.
    pub retire: Retire,
    /// Whether the target has inputs drawn from `--seed` (only the
    /// memcached load generators do; `expected.json` then applies to
    /// [`DEFAULT_SEED`] alone).
    pub seeded: bool,
    topology: fn(seed: u64, reference: bool, probes: &Probes) -> Topology,
}

impl Workload {
    /// The topology for `seed`. With `reference` set, RTL blades run the
    /// per-cycle reference timing loop without the decode cache: the
    /// oracle the production paths must match digest for digest.
    pub fn topology(&self, seed: u64, reference: bool, probes: &Probes) -> Topology {
        (self.topology)(seed, reference, probes)
    }

    /// The build configuration on `host_threads` threads.
    pub fn config(&self, host_threads: usize) -> SimConfig {
        SimConfig {
            link_latency: Cycle::new(self.link_latency),
            host_threads,
            ..SimConfig::default()
        }
    }
}

/// All workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "blade_compute",
        mode: Mode::InProcess,
        host_threads: 1,
        link_latency: 6_400,
        prefix_cycles: 64 * 6_400,
        chunk_cycles: 3_000 * 6_400,
        retire: Retire::Busy,
        seeded: false,
        topology: blade_compute,
    },
    Workload {
        name: "blade_memory",
        mode: Mode::InProcess,
        host_threads: 1,
        link_latency: 6_400,
        prefix_cycles: 64 * 6_400,
        chunk_cycles: 25_000 * 6_400,
        retire: Retire::Busy,
        seeded: false,
        topology: blade_memory,
    },
    Workload {
        name: "rack64_parked",
        mode: Mode::InProcess,
        host_threads: 1,
        link_latency: 640,
        prefix_cycles: 128 * 640,
        chunk_cycles: 4_000 * 640,
        retire: Retire::Parked,
        seeded: false,
        topology: rack64_parked,
    },
    Workload {
        name: "rack8_stream",
        mode: Mode::InProcess,
        host_threads: 1,
        link_latency: 6_400,
        prefix_cycles: 32 * 6_400,
        chunk_cycles: 70 * 6_400,
        retire: Retire::Busy,
        seeded: false,
        topology: rack8_stream,
    },
    Workload {
        name: "dc1024_memcached",
        mode: Mode::InProcess,
        host_threads: 2,
        link_latency: 6_400,
        prefix_cycles: 200 * 6_400,
        chunk_cycles: 350 * 6_400,
        retire: Retire::None,
        seeded: true,
        topology: dc1024_memcached,
    },
    Workload {
        name: "fleet2_tcp",
        mode: Mode::FleetTcp,
        host_threads: 1,
        link_latency: 6_400,
        prefix_cycles: 5_000 * 6_400,
        chunk_cycles: 5_000 * 6_400,
        retire: Retire::Parked,
        seeded: false,
        topology: fleet2_rack,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A single-core RTL blade. No workload touches the disk, so it is cut to
/// one sector: the default 32 MiB image is copied into every checkpoint,
/// which made the digest checks (and each fleet run's final digest) cost
/// more host time than the simulation they check (README, "Findings").
fn rtl(program: Program, dram_bytes: usize, reference: bool) -> BladeSpec {
    let mut config = BladeConfig::single_core().with_dram_bytes(dram_bytes);
    config.blockdev.sectors = 1;
    if reference {
        config.timing.reference_timing = true;
        config.timing.decode_cache = false;
    }
    BladeSpec::Rtl { config, program }
}

/// One blade running `program` under a ToR. A switch model has at least
/// two ports and every port must be wired, so a second, parked blade
/// (O(1) host work per window) fills the other one.
fn single_blade(program: Program, dram_bytes: usize, reference: bool) -> Topology {
    let mut topo = Topology::new();
    let tor = topo.add_switch("tor0");
    let node = topo.add_server("node0", rtl(program, dram_bytes, reference));
    topo.add_downlink(tor, node).expect("fresh nodes link");
    let idle = topo.add_server("idle0", rtl(programs::park(), 1 << 20, reference));
    topo.add_downlink(tor, idle).expect("fresh nodes link");
    topo
}

fn blade_compute(_: u64, reference: bool, _: &Probes) -> Topology {
    single_blade(compute_loop(), 1 << 20, reference)
}

fn blade_memory(_: u64, reference: bool, _: &Probes) -> Topology {
    single_blade(stride_loop(), 4 << 20, reference)
}

/// `nodes` parked single-core blades, 32 per ToR, a root above the ToRs
/// when there is more than one: the Fig 8 shape.
fn parked_rack(nodes: usize, reference: bool) -> Topology {
    let mut topo = Topology::new();
    let tor_count = nodes.div_ceil(32);
    let tors: Vec<_> = (0..tor_count)
        .map(|i| topo.add_switch(format!("tor{i}")))
        .collect();
    if tor_count > 1 {
        let root = topo.add_switch("root");
        for &t in &tors {
            topo.add_downlink(root, t).expect("fresh nodes link");
        }
    }
    for i in 0..nodes {
        let n = topo.add_server(
            format!("node{i}"),
            rtl(programs::park(), 1 << 20, reference),
        );
        topo.add_downlink(tors[i / 32], n)
            .expect("fresh nodes link");
    }
    topo
}

fn rack64_parked(_: u64, reference: bool, _: &Probes) -> Topology {
    parked_rack(64, reference)
}

fn fleet2_rack(_: u64, reference: bool, _: &Probes) -> Topology {
    parked_rack(16, reference)
}

/// Payload bytes per streamed frame.
pub const STREAM_PAYLOAD: usize = 1024;

/// Four senders streaming to four receivers under one ToR. Frame and byte
/// counts are far beyond any run's horizon, so no blade ever finishes.
fn rack8_stream(_: u64, reference: bool, _: &Probes) -> Topology {
    const PAIRS: u64 = 4;
    const FOREVER: usize = 1 << 40;
    let mut topo = Topology::new();
    let tor = topo.add_switch("tor0");
    for i in 0..PAIRS {
        let me = MacAddr::from_node_index(i);
        let peer = MacAddr::from_node_index(PAIRS + i);
        let program = programs::stream_sender(me, peer, FOREVER, STREAM_PAYLOAD, 0);
        let n = topo.add_server(format!("send{i}"), rtl(program, 4 << 20, reference));
        topo.add_downlink(tor, n).expect("fresh nodes link");
    }
    for i in 0..PAIRS {
        let me = MacAddr::from_node_index(PAIRS + i);
        let peer = MacAddr::from_node_index(i);
        let program = programs::stream_receiver(me, peer, 1 << 60);
        let n = topo.add_server(format!("recv{i}"), rtl(program, 4 << 20, reference));
        topo.add_downlink(tor, n).expect("fresh nodes link");
    }
    topo
}

/// The paper's §V-C tree: 4 aggregation switches x 8 ToRs x 32 nodes,
/// memcached servers on the first half of the ToRs and one load generator
/// per server on the second half, so every request crosses the root.
fn dc1024_memcached(seed: u64, _reference: bool, probes: &Probes) -> Topology {
    const AGGS: usize = 4;
    const TORS_PER_AGG: usize = 8;
    const NODES_PER_TOR: usize = 32;
    let mut topo = Topology::new();
    let root = topo.add_switch("root");
    let mut tors = Vec::new();
    for a in 0..AGGS {
        let agg = topo.add_switch(format!("agg{a}"));
        topo.add_downlink(root, agg).expect("fresh nodes link");
        for t in 0..TORS_PER_AGG {
            let tor = topo.add_switch(format!("tor{a}_{t}"));
            topo.add_downlink(agg, tor).expect("fresh nodes link");
            tors.push(tor);
        }
    }
    let os = OsConfig {
        cores: 4,
        ..OsConfig::default()
    };
    let half = tors.len() / 2;
    for (ti, &tor) in tors.iter().enumerate().take(half) {
        for j in 0..NODES_PER_TOR {
            let node = topo.add_server(
                format!("kv{}", ti * NODES_PER_TOR + j),
                BladeSpec::model(os, 4, true, |mac, _| {
                    Box::new(KvServer::new(mac, KvServerConfig::default()))
                }),
            );
            topo.add_downlink(tor, node).expect("fresh nodes link");
        }
    }
    for (ti, &tor) in tors.iter().enumerate().skip(half) {
        for j in 0..NODES_PER_TOR {
            let pair = ((ti - half) * NODES_PER_TOR + j) as u64;
            let cfg = MutilateConfig {
                server: MacAddr::from_node_index(pair),
                qps: 10_000.0,
                // Never reached: the generators outlast every run.
                requests: u64::MAX,
                seed: seed + pair,
                max_outstanding: 4,
                ..MutilateConfig::default()
            };
            let sink = Arc::clone(&probes.mutilate);
            let node = topo.add_server(
                format!("gen{pair}"),
                BladeSpec::model(os, 1, true, move |mac, _| {
                    let m = Mutilate::new(mac, cfg);
                    sink.lock().push(m.stats());
                    Box::new(m)
                }),
            );
            topo.add_downlink(tor, node).expect("fresh nodes link");
        }
    }
    topo
}

/// [`firesim_manager::BuildFn`] for `fleet2_tcp`: parent and workers all
/// rebuild the same 16-node parked rack.
pub fn build_fleet2(_spec: &str) -> SimResult<(Topology, SimConfig)> {
    let w = by_name("fleet2_tcp").expect("fleet2_tcp is a workload");
    Ok((
        w.topology(DEFAULT_SEED, false, &Probes::default()),
        w.config(w.host_threads),
    ))
}
