//! Simulation-performance experiments: Fig 8 (rate vs scale), Fig 9
//! (rate vs link latency), the §V-C datacenter plan, and the §III-A5
//! FPGA utilisation numbers.

use firesim_blade::programs;
use firesim_core::{Cycle, SimResult};
use firesim_manager::catalogue::{self, Dims};
use firesim_manager::{
    run_partitioned, PartitionConfig, PartitionedRun, SimConfig, Simulation, TransportChoice,
};
use firesim_platform::{DeploymentPlan, FpgaModel, Transport, TransportKind};

use super::CLOCK;

/// One point of Fig 8.
#[derive(Debug, Clone, Copy)]
pub struct Fig8Row {
    /// Simulated nodes.
    pub nodes: usize,
    /// Supernode packing?
    pub supernode: bool,
    /// Measured simulation rate in target-MHz.
    pub sim_rate_mhz: f64,
}

/// Fig 8/9's in-process cluster: the catalogue's boot rack running
/// `program`, with the host's worker threads.
fn boot_cluster(
    nodes: usize,
    supernode: bool,
    link_latency: Cycle,
    program: &programs::Program,
) -> Simulation {
    catalogue::boot_rack(nodes, program)
        .build(SimConfig {
            link_latency,
            supernode,
            host_threads: crate::host_threads(),
            ..SimConfig::default()
        })
        .expect("valid topology")
}

/// One point of the distributed Fig 8 variant.
#[derive(Debug, Clone, Copy)]
pub struct Fig8DistRow {
    /// Simulated nodes.
    pub nodes: usize,
    /// Worker process count.
    pub workers: usize,
    /// Measured fleet simulation rate in target-MHz, over the workers' run
    /// legs (see [`Fig8DistRow::of`]).
    pub sim_rate_mhz: f64,
    /// [`Transport::sim_rate_bound_hz`] for the matching platform
    /// transport, in target-MHz: the rate the host transport alone would
    /// cap a hardware deployment at. A software fleet moving real token
    /// batches between processes must land *below* this bound.
    pub bound_mhz: f64,
    /// Order-independent digest over every agent's final checkpoint;
    /// equal for all worker counts of the same `(nodes, cycles)`.
    pub combined_digest: u64,
}

/// Fig 8, multi-process mode: the catalogue's `fig8` cluster partitioned across
/// worker processes connected by the chosen [`TransportChoice`], with the
/// measured rate sanity-checked against [`Transport::sim_rate_bound_hz`]
/// for the analogous platform transport (shared memory or TCP).
///
/// # Errors
///
/// Propagates the fleet's [`firesim_manager::FailureReport`] error if any
/// worker fails.
pub fn fig8_scale_distributed(
    nodes: usize,
    worker_counts: &[usize],
    transport: TransportChoice,
    target_cycles: u64,
) -> SimResult<Vec<Fig8DistRow>> {
    let bound_mhz = fleet_bound_mhz(transport);
    let mut rows = Vec::new();
    for &workers in worker_counts {
        let spec = format!("fig8,nodes={nodes}");
        let mut cfg = PartitionConfig::new(workers, Cycle::new(target_cycles), spec);
        cfg.transport = transport;
        let run = run_partitioned(catalogue::build, &cfg).map_err(|report| report.error)?;
        rows.push(Fig8DistRow::of(&run, nodes, bound_mhz));
    }
    Ok(rows)
}

impl Fig8DistRow {
    /// The row of a finished fleet `run` of `nodes` nodes. Its rate is the
    /// run's target cycles over the merged report's `wall_ns`, the slowest
    /// shard's engine legs, so process spawn, shard build and result
    /// merging stay out of it.
    pub fn of(run: &PartitionedRun, nodes: usize, bound_mhz: f64) -> Self {
        Fig8DistRow {
            nodes,
            workers: run.workers,
            sim_rate_mhz: run.cycles.as_u64() as f64 * 1e3 / run.report.wall_ns.max(1) as f64,
            bound_mhz,
            combined_digest: run.combined_digest,
        }
    }
}

/// The transport bound of a Fig 8 fleet row in target-MHz: 6 400-token
/// batches (2 µs links) of 8-byte tokens, as `fleet::place` models them,
/// over the platform transport analogous to `transport`.
fn fleet_bound_mhz(transport: TransportChoice) -> f64 {
    let platform_kind = match transport {
        TransportChoice::Shm => TransportKind::SharedMemory,
        TransportChoice::Tcp | TransportChoice::Unix => TransportKind::Tcp,
    };
    Transport::of(platform_kind).sim_rate_bound_hz(6_400, 8) / 1e6
}

/// Fig 8: measures the achieved simulation rate (target MHz) while all
/// token channels stay fully exercised (the target is "Linux boot then
/// power off" — no network traffic, but every empty token still moves,
/// exactly as the paper measures). Standard and supernode host mappings
/// are both measured.
pub fn fig8_scale(node_counts: &[usize], target_cycles: u64) -> Vec<Fig8Row> {
    let mut rows = Vec::new();
    for &supernode in &[false, true] {
        for &nodes in node_counts {
            // Enough boot work to keep every core busy through the
            // measurement window, as in the paper's Linux-boot runs.
            let program = programs::boot_poweroff_wrapping(1 << 40);
            let mut sim = boot_cluster(nodes, supernode, Cycle::new(6_400), &program);
            // Warm-up window, then the measured run.
            sim.run_for(Cycle::new(6_400)).expect("warmup");
            let summary = sim.run_for(Cycle::new(target_cycles)).expect("runs");
            rows.push(Fig8Row {
                nodes,
                supernode,
                sim_rate_mhz: summary.sim_rate_mhz(),
            });
        }
    }
    rows
}

/// One point of Fig 9.
#[derive(Debug, Clone, Copy)]
pub struct Fig9Row {
    /// Target link latency in microseconds (= token batch size).
    pub link_latency_us: f64,
    /// Measured simulation rate of our in-process simulator, target-MHz.
    pub sim_rate_mhz: f64,
    /// The same target mapped onto the paper's EC2 F1 host platform
    /// (FPGA execution + PCIe token transport), via the platform model.
    pub modeled_ec2_mhz: f64,
}

/// Single-node FPGA simulation rate assumed by the EC2 model (the paper
/// reports "10s to 100s of MHz" for unthrottled FAME-1 blades).
const FPGA_INTRINSIC_MHZ: f64 = 90.0;

/// Fig 9: simulation rate of an 8-node cluster as a function of the
/// target link latency. Since FireSim batches one link-latency of tokens
/// per transfer, longer links amortise per-transfer latency.
///
/// Two curves are produced. `sim_rate_mhz` is the measured rate of this
/// software simulator, whose "PCIe" is a shared-memory channel — so fast
/// relative to software blade models that the batching effect is mostly
/// invisible (documented in EXPERIMENTS.md). `modeled_ec2_mhz` applies
/// the paper's host-platform parameters (FPGA-speed blades + real PCIe
/// batch transfers) through [`firesim_platform::Transport`], reproducing
/// the paper's rising curve mechanistically.
pub fn fig9_latency(latencies_us: &[f64], target_cycles: u64) -> Vec<Fig9Row> {
    let pcie = Transport::of(TransportKind::Pcie);
    let mut rows = Vec::new();
    for &lat_us in latencies_us {
        let latency = CLOCK.cycles_from_nanos((lat_us * 1000.0) as u64);
        let program = programs::park();
        let mut sim = boot_cluster(8, false, latency, &program);
        sim.run_for(latency).expect("warmup");
        let summary = sim.run_for(Cycle::new(target_cycles)).expect("runs");
        // EC2 model: FPGA cycle time in series with the amortised PCIe
        // batch transfer (one batch in, one out, per link latency).
        let transport_hz = pcie.sim_rate_bound_hz(latency.as_u64(), 8);
        let modeled_hz = 1.0 / (1.0 / (FPGA_INTRINSIC_MHZ * 1e6) + 1.0 / transport_hz);
        rows.push(Fig9Row {
            link_latency_us: lat_us,
            sim_rate_mhz: summary.sim_rate_mhz(),
            modeled_ec2_mhz: modeled_hz / 1e6,
        });
    }
    rows
}

/// §V-C / Fig 10: builds the catalogue's 1024-node datacenter (32 nodes
/// per ToR, 32 ToRs, 4 aggregation switches, one root) through the
/// manager and returns its deployment plan — fleet and cost. The plan
/// depends only on the node and switch counts.
pub fn datacenter_plan() -> DeploymentPlan {
    let topo = catalogue::datacenter(Dims::PAPER, None).expect("the paper's dims are valid");
    assert_eq!(topo.server_count(), 1024);
    let sim = topo
        .build(SimConfig {
            supernode: true,
            ..SimConfig::default()
        })
        .expect("valid topology");
    sim.plan().clone()
}

/// §III-A5: FPGA LUT utilisation for the standard and supernode
/// configurations. Returns `(blades, blade_luts_pct, total_luts_pct)`.
pub fn utilization() -> Vec<(usize, f64, f64)> {
    let fpga = FpgaModel::default();
    [1usize, 4]
        .iter()
        .map(|&n| {
            let u = fpga.utilization(n);
            (n, u.blade_luts * 100.0, u.total_luts * 100.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_rate_decreases_with_scale() {
        let rows = fig8_scale(&[2, 16], 32_000);
        let rate = |nodes, sn| {
            rows.iter()
                .find(|r| r.nodes == nodes && r.supernode == sn)
                .unwrap()
                .sim_rate_mhz
        };
        assert!(rate(2, false) > 0.0);
        // More nodes on the same host -> lower rate.
        assert!(
            rate(16, false) < rate(2, false),
            "2 nodes {:.2} MHz vs 16 nodes {:.2} MHz",
            rate(2, false),
            rate(16, false)
        );
    }

    #[test]
    fn fig9_modeled_rate_increases_with_latency() {
        let rows = fig9_latency(&[0.05, 2.0], 64_000);
        // The EC2-platform model shows the paper's batching effect
        // deterministically; the measured in-process rate is positive but
        // nearly flat (shared-memory transport), see EXPERIMENTS.md.
        assert!(
            rows[1].modeled_ec2_mhz > 2.0 * rows[0].modeled_ec2_mhz,
            "{rows:?}"
        );
        assert!(rows.iter().all(|r| r.sim_rate_mhz > 0.0));
    }

    /// The fleet bound moves 8 bytes per token whatever the node count.
    /// Shared memory: 2 × (0.5 µs + 409 600 bit / 200 Gbit/s) = 5.096 µs
    /// per 6 400-cycle round; TCP: 2 × (50 µs + 20.48 µs) = 140.96 µs.
    #[test]
    fn fleet_bound_pins_known_cases() {
        let shm = fleet_bound_mhz(TransportChoice::Shm);
        assert!((shm - 6_400.0 / 5.096).abs() < 1e-6, "{shm}");
        let tcp = fleet_bound_mhz(TransportChoice::Tcp);
        assert!((tcp - 6_400.0 / 140.96).abs() < 1e-9, "{tcp}");
        assert_eq!(fleet_bound_mhz(TransportChoice::Unix), tcp);
    }

    #[test]
    fn plan_matches_paper() {
        let plan = datacenter_plan();
        assert_eq!(plan.f1_16xlarge, 32);
        assert_eq!(plan.m4_16xlarge, 5);
        assert_eq!(plan.fpgas, 256);
    }

    #[test]
    fn utilization_matches_paper() {
        let rows = utilization();
        assert!((rows[0].2 - 32.6).abs() < 0.1); // standard total
        assert!((rows[1].1 - 57.7).abs() < 0.2); // supernode blades
        assert!((rows[1].2 - 75.8).abs() < 0.5); // supernode total ~76%
    }
}
