//! Fleet-controller differential acceptance tests:
//!
//! * **Placement invariance** — the same topology run under contiguous
//!   and load-aware placement plans, across 1/2/4 workers and every
//!   transport backend, produces bit-identical per-agent digests,
//!   combined digest, and deterministic report aggregates. Placement is
//!   a pure host-side concern; the fleet controller can optimise cost
//!   freely without touching simulated behavior.
//! * **Repartition mid-run** — a 4-way load-aware run checkpoints at a
//!   barrier mid-run, the parent merges the shard checkpoints into one
//!   `FSCKPT01` file, and a fresh 2-way deployment under a *different*
//!   (folded load-aware) plan restores it and continues to the same
//!   absolute cycle: digests AND deterministic aggregates are
//!   bit-identical to an uninterrupted run. Also exercised mid-scenario
//!   (composing with the chaos layer; digests only, since timeline
//!   buckets before the restore point don't survive into the new
//!   deployment's report).
//! * **Packer properties** — over seeded random topologies and fleets:
//!   capacity is never exceeded, every agent is placed exactly once,
//!   plans round-trip through the wire encoding, and placement is
//!   deterministic for a fixed profile.
//! * **Fig 8 fleet rows** — a row's rate is the run's cycles over the
//!   workers' run legs, not over the parent's spawn-inclusive wall clock.
//! * **Pinned cost model** — the paper's 1024-node datacenter placed on
//!   the EC2 fleet reproduces §V-C (32 f1.16xlarge + 5 m4.16xlarge) and
//!   the modeled $/hour, cut links, simulation rate, and $/sim-hour
//!   match `results/fleet_cost_baseline.json` exactly.
//!
//! `harness = false`: worker processes re-exec this binary, so `main`
//! must route them into their shard before any test logic runs. Pass
//! `--quick` (the CI fleet job does) to trim the matrix to the shm
//! transport and fewer property iterations.

use std::collections::BTreeMap;
use std::path::PathBuf;

use firesim_bench::experiments::Fig8DistRow;
use firesim_blade::programs;
use firesim_core::Cycle;
use firesim_manager::catalogue::{self, Dims};
use firesim_manager::{
    maybe_worker, run_partitioned, BladeSpec, FleetSpec, HostClass, LoadProfile, PartitionConfig,
    PartitionPlan, PlacementPlan, Topology, TransportChoice,
};
use firesim_platform::{InstanceType, TransportKind};

/// Deterministic xorshift so "random" packer inputs are reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = self.0.wrapping_add(1);
        x ^ (x >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The catalogue target the differential checks deploy: two racks with
/// cross-rack ping traffic (live frames cross every placement cut) plus
/// idle nodes, big enough that a load-aware plan differs from the
/// contiguous one.
const SPEC: &str = "two_racks";

const CYCLES: u64 = 500_000;
const MID: u64 = 200_000;

/// The scenario suite's kitchen-sink chaos script on the same target —
/// the checkpoint at `MID` lands inside the partition window, so the
/// repartitioned continuation must heal it.
const SCRIPT: &str = r#"{
  "name": "fleet-mix", "seed": 11, "interval": 50000,
  "events": [
    { "kind": "partition", "from": 100000, "until": 250000, "islands": [["echo"]] },
    { "kind": "link_flaky", "from": 300000, "until": 400000,
      "agent": "rack0", "port": 0, "drop_percent": 40 },
    { "kind": "switch_pressure", "from": 50000, "until": 450000,
      "switch": "root", "buffer_bytes": 200, "max_release_delay": 32 }
  ]
}"#;

/// A small fleet whose shape forces non-contiguous placement: blade-only
/// hosts (two blades each) plus cheaper dedicated switch hosts, so every
/// rack splits and switches land away from their servers.
fn blade_and_switch_fleet() -> FleetSpec {
    FleetSpec {
        classes: vec![
            HostClass {
                name: "blade2".into(),
                instance: InstanceType::F1_2xlarge,
                blade_capacity: 2,
                switch_capacity: 0,
                count: 8,
                cross_transport: TransportKind::Tcp,
                intra_transport: TransportKind::SharedMemory,
                dollars_per_hour: 2.0,
            },
            HostClass {
                name: "swhost".into(),
                instance: InstanceType::M4_16xlarge,
                blade_capacity: 0,
                switch_capacity: 1,
                count: 8,
                cross_transport: TransportKind::Tcp,
                intra_transport: TransportKind::SharedMemory,
                dollars_per_hour: 1.0,
            },
        ],
        token_bytes: 8,
        target_hz: 3.2e9,
    }
}

/// A profile that makes rack 1 much hotter than rack 0, so the packer
/// places it first and interleaves servers across hosts by load — the
/// opposite of topology order.
fn skewed_profile() -> LoadProfile {
    let mut profile = LoadProfile::uniform();
    profile.set("echo", 9_000.0);
    profile.set("idle_b0", 5_000.0);
    profile.set("idle_b1", 5_000.0);
    profile.set("pinger", 1_000.0);
    profile.set("idle_a0", 500.0);
    profile.set("idle_a1", 500.0);
    profile
}

fn load_aware_placement() -> PlacementPlan {
    let (topo, config) = catalogue::build(SPEC).unwrap();
    blade_and_switch_fleet()
        .place(&topo, &skewed_profile(), config.link_latency)
        .expect("fleet has capacity")
}

/// Writes `text` to a unique temp file and returns its absolute path.
fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("firesim-fleet-{}-{tag}", std::process::id()))
}

fn write_script(tag: &str) -> PathBuf {
    let path = temp_path(&format!("{tag}.json"));
    std::fs::write(&path, SCRIPT).expect("write scenario script");
    path
}

/// The tentpole differential matrix: contiguous vs load-aware plans ×
/// 1/2/4 workers × every transport, all bit-identical.
fn placement_is_invisible(quick: bool) {
    let placement = load_aware_placement();
    assert!(
        placement.workers() >= 4,
        "expected a many-host plan to fold from:\n{}",
        placement.describe()
    );
    let (topo, _) = catalogue::build(SPEC).unwrap();
    for workers in [2usize, 4] {
        assert_ne!(
            placement.partition_for(workers).unwrap().encode(),
            PartitionPlan::contiguous(&topo, workers).unwrap().encode(),
            "load-aware {workers}-way plan degenerated to contiguous — the matrix would prove nothing"
        );
    }

    let transports: &[TransportChoice] = if quick {
        &[TransportChoice::Shm]
    } else {
        &[
            TransportChoice::Shm,
            TransportChoice::Tcp,
            TransportChoice::Unix,
        ]
    };
    let mut runs = Vec::new();
    for &transport in transports {
        for workers in [1usize, 2, 4] {
            for load_aware in [false, true] {
                let mut cfg = PartitionConfig::new(workers, Cycle::new(CYCLES), SPEC.to_string());
                cfg.transport = transport;
                if load_aware {
                    cfg.plan = Some(placement.partition_for(workers).unwrap());
                }
                let run = run_partitioned(catalogue::build, &cfg).unwrap_or_else(|report| {
                    panic!("{transport:?} x{workers} load_aware={load_aware} failed: {report}")
                });
                runs.push((transport, workers, load_aware, run));
            }
        }
    }
    let (_, _, _, baseline) = &runs[0];
    for (transport, workers, load_aware, run) in &runs[1..] {
        let tag = format!("{transport:?} x{workers} load_aware={load_aware}");
        assert_eq!(
            baseline.digests, run.digests,
            "{tag}: digests differ from contiguous monolithic"
        );
        assert_eq!(
            baseline.combined_digest, run.combined_digest,
            "{tag}: combined digest differs"
        );
        assert_eq!(
            baseline.report.deterministic_aggregates(),
            run.report.deterministic_aggregates(),
            "{tag}: report aggregates differ"
        );
    }
}

/// Executing the placement plan as-is (`with_placement`, one worker per
/// modeled host, including a switch-only host) reproduces the monolithic
/// digests and stamps the modeled cost into the merged report.
fn placement_plan_executes_end_to_end() {
    let placement = load_aware_placement();
    let mono = run_partitioned(
        catalogue::build,
        &PartitionConfig::new(1, Cycle::new(CYCLES), SPEC.to_string()),
    )
    .unwrap_or_else(|report| panic!("monolithic run failed: {report}"));

    let cfg =
        PartitionConfig::new(1, Cycle::new(CYCLES), SPEC.to_string()).with_placement(&placement);
    assert_eq!(cfg.workers, placement.workers());
    let run = run_partitioned(catalogue::build, &cfg)
        .unwrap_or_else(|report| panic!("placement-plan run failed: {report}"));
    assert_eq!(mono.digests, run.digests, "placement execution diverged");
    assert_eq!(
        run.report.cost.as_ref(),
        Some(placement.cost()),
        "merged report must carry the modeled cost"
    );
    let summary = run.report.human_summary();
    assert!(
        summary.contains("per simulated hour"),
        "summary must report $/sim-hour: {summary}"
    );
    // The cost never leaks into the placement-invariant aggregates.
    assert_eq!(
        mono.report.deterministic_aggregates(),
        run.report.deterministic_aggregates()
    );
}

/// The acceptance criterion: checkpoint a 4-way load-aware run mid-way,
/// restore the merged checkpoint into a 2-way deployment under the
/// folded load-aware plan, continue to the same absolute cycle — digests
/// AND deterministic aggregates match an uninterrupted contiguous run
/// bit-for-bit.
fn repartition_mid_run_matches_straight_run() {
    let placement = load_aware_placement();
    let ckpt = temp_path("repart.fsckpt");

    // A: the uninterrupted reference run.
    let straight = run_partitioned(
        catalogue::build,
        &PartitionConfig::new(1, Cycle::new(CYCLES), SPEC.to_string()),
    )
    .unwrap_or_else(|report| panic!("straight run failed: {report}"));

    // B: 4-way load-aware, checkpoint at MID (barrier-consistent), run on
    // to the end anyway — the checkpoint must be invisible.
    let mut cfg = PartitionConfig::new(4, Cycle::new(CYCLES), SPEC.to_string());
    cfg.plan = Some(placement.partition_for(4).unwrap());
    cfg.checkpoint_at = Some(Cycle::new(MID));
    cfg.checkpoint_out = Some(ckpt.clone());
    let checkpointed = run_partitioned(catalogue::build, &cfg)
        .unwrap_or_else(|report| panic!("checkpointing run failed: {report}"));
    assert!(ckpt.exists(), "parent must write the merged checkpoint");
    assert_eq!(
        straight.digests, checkpointed.digests,
        "mid-run checkpoint changed the digests"
    );
    assert_eq!(
        straight.report.deterministic_aggregates(),
        checkpointed.report.deterministic_aggregates(),
        "mid-run checkpoint changed the aggregates"
    );

    // C: restore into 2 workers under a different (folded load-aware)
    // plan and continue to the same absolute target.
    let mut cfg = PartitionConfig::new(2, Cycle::new(CYCLES), SPEC.to_string());
    cfg.plan = Some(placement.partition_for(2).unwrap());
    cfg.restore_from = Some(ckpt.clone());
    let resumed = run_partitioned(catalogue::build, &cfg)
        .unwrap_or_else(|report| panic!("repartitioned continuation failed: {report}"));
    assert_eq!(
        straight.digests, resumed.digests,
        "repartitioned continuation diverged from the straight run"
    );
    assert_eq!(
        straight.combined_digest, resumed.combined_digest,
        "combined digest differs after repartition"
    );
    assert_eq!(
        straight.report.deterministic_aggregates(),
        resumed.report.deterministic_aggregates(),
        "deterministic aggregates differ after repartition"
    );

    // The same checkpoint also restores monolithically (merged files are
    // name-sorted, not registration-ordered).
    let mut cfg = PartitionConfig::new(1, Cycle::new(CYCLES), SPEC.to_string());
    cfg.restore_from = Some(ckpt.clone());
    let mono = run_partitioned(catalogue::build, &cfg)
        .unwrap_or_else(|report| panic!("monolithic continuation failed: {report}"));
    assert_eq!(
        straight.digests, mono.digests,
        "monolithic continuation diverged"
    );
    let _ = std::fs::remove_file(ckpt);
}

/// Repartitioning composes with the chaos layer: checkpoint inside a
/// scripted partition window, restore into a different sharding with the
/// scenario re-applied, and the healed run lands on the digests of an
/// uninterrupted scenario run. (Digests only: timeline buckets recorded
/// before the restore point don't survive into the new deployment.)
fn repartition_mid_scenario_matches_digests() {
    let placement = load_aware_placement();
    let script = write_script("scenario");
    let ckpt = temp_path("repart-scenario.fsckpt");

    let mut cfg = PartitionConfig::new(1, Cycle::new(CYCLES), SPEC.to_string());
    cfg.scenario = Some(script.display().to_string());
    let straight = run_partitioned(catalogue::build, &cfg)
        .unwrap_or_else(|report| panic!("straight scenario run failed: {report}"));
    let timeline = straight
        .report
        .timeline
        .as_ref()
        .expect("scenario run records a timeline");
    assert!(
        timeline.points.iter().any(|p| p.masked > 0),
        "the scripted partition masked no frames: {timeline:?}"
    );

    let mut cfg = PartitionConfig::new(4, Cycle::new(CYCLES), SPEC.to_string());
    cfg.plan = Some(placement.partition_for(4).unwrap());
    cfg.scenario = Some(script.display().to_string());
    cfg.checkpoint_at = Some(Cycle::new(MID));
    cfg.checkpoint_out = Some(ckpt.clone());
    let checkpointed = run_partitioned(catalogue::build, &cfg)
        .unwrap_or_else(|report| panic!("scenario checkpointing run failed: {report}"));
    assert_eq!(
        straight.digests, checkpointed.digests,
        "mid-scenario checkpoint changed the digests"
    );
    assert_eq!(
        straight.report.deterministic_aggregates(),
        checkpointed.report.deterministic_aggregates(),
        "mid-scenario checkpoint changed the aggregates (incl. timeline)"
    );

    let mut cfg = PartitionConfig::new(2, Cycle::new(CYCLES), SPEC.to_string());
    cfg.plan = Some(placement.partition_for(2).unwrap());
    cfg.scenario = Some(script.display().to_string());
    cfg.restore_from = Some(ckpt.clone());
    let resumed = run_partitioned(catalogue::build, &cfg)
        .unwrap_or_else(|report| panic!("mid-scenario repartition failed: {report}"));
    assert_eq!(
        straight.digests, resumed.digests,
        "mid-scenario repartition diverged from the straight scenario run"
    );
    assert_eq!(
        straight.combined_digest, resumed.combined_digest,
        "combined digest differs after mid-scenario repartition"
    );

    let _ = std::fs::remove_file(ckpt);
    let _ = std::fs::remove_file(script);
}

/// Packer property sweep over seeded random trees, fleets, and profiles.
fn packer_properties_hold(iters: usize) {
    let mut rng = Rng(42);
    for iter in 0..iters {
        // A 1-2 level tree: root -> aggs -> tors -> servers.
        let aggs = 1 + rng.below(2) as usize;
        let tors_per_agg = 1 + rng.below(3) as usize;
        let per_tor = 1 + rng.below(4) as usize;
        let mut topo = Topology::new();
        let root = topo.add_switch("root");
        let mut names = vec!["root".to_string()];
        let mut servers = 0usize;
        for a in 0..aggs {
            let agg = topo.add_switch(format!("agg{a}"));
            names.push(format!("agg{a}"));
            topo.add_downlink(root, agg).unwrap();
            for t in 0..tors_per_agg {
                let tor = topo.add_switch(format!("tor{a}_{t}"));
                names.push(format!("tor{a}_{t}"));
                topo.add_downlink(agg, tor).unwrap();
                for _ in 0..per_tor {
                    let node = topo.add_server(
                        format!("s{servers}"),
                        BladeSpec::rtl_single_core(programs::boot_poweroff(1)),
                    );
                    names.push(format!("s{servers}"));
                    topo.add_downlink(tor, node).unwrap();
                    servers += 1;
                }
            }
        }
        let switches = 1 + aggs + aggs * tors_per_agg;

        // A random fleet with enough capacity by construction.
        let blade_cap = 1 + rng.below(4) as usize;
        let switch_cap = rng.below(3) as usize;
        let fleet = FleetSpec {
            classes: vec![
                HostClass {
                    name: "blades".into(),
                    instance: InstanceType::F1_2xlarge,
                    blade_capacity: blade_cap,
                    switch_capacity: switch_cap,
                    count: servers.div_ceil(blade_cap) + 1 + rng.below(3) as usize,
                    cross_transport: TransportKind::Tcp,
                    intra_transport: TransportKind::Pcie,
                    dollars_per_hour: 1.0 + rng.below(5) as f64,
                },
                HostClass {
                    name: "switches".into(),
                    instance: InstanceType::M4_16xlarge,
                    blade_capacity: 0,
                    switch_capacity: 1,
                    count: switches,
                    cross_transport: TransportKind::Tcp,
                    intra_transport: TransportKind::SharedMemory,
                    dollars_per_hour: 1.0,
                },
            ],
            token_bytes: 8,
            target_hz: 3.2e9,
        };
        let mut profile = LoadProfile::uniform();
        for s in 0..servers {
            if rng.below(2) == 0 {
                profile.set(format!("s{s}"), (1 + rng.below(20_000)) as f64);
            }
        }

        let placement = fleet
            .place(&topo, &profile, Cycle::new(6_400))
            .unwrap_or_else(|e| panic!("iter {iter}: feasible fleet rejected: {e}"));

        // Every agent placed exactly once.
        let mut placed: BTreeMap<String, usize> = BTreeMap::new();
        for host in placement.hosts() {
            for name in host.servers.iter().chain(host.switches.iter()) {
                *placed.entry(name.clone()).or_default() += 1;
            }
        }
        for name in &names {
            assert_eq!(
                placed.get(name),
                Some(&1),
                "iter {iter}: {name} placed {:?} times",
                placed.get(name)
            );
        }
        assert_eq!(placed.len(), names.len(), "iter {iter}: stray agents");

        // Capacity respected on every host.
        for (h, host) in placement.hosts().iter().enumerate() {
            let class = fleet
                .classes
                .iter()
                .find(|c| c.name == host.class)
                .unwrap_or_else(|| panic!("iter {iter}: host {h} has unknown class"));
            assert!(
                host.servers.len() <= class.blade_capacity,
                "iter {iter}: host {h} over blade capacity"
            );
            assert!(
                host.switches.len() <= class.switch_capacity,
                "iter {iter}: host {h} over switch capacity"
            );
        }

        // The partition is dense, total, and wire-stable.
        let plan = placement.partition();
        assert_eq!(plan.workers(), placement.hosts().len());
        let sizes = plan.shard_sizes();
        assert!(sizes.iter().all(|&s| s > 0), "iter {iter}: empty shard");
        assert_eq!(sizes.iter().sum::<usize>(), names.len());
        assert_eq!(&PartitionPlan::decode(&topo, &plan.encode()).unwrap(), plan);

        // Cost accounting is internally consistent.
        let cost = placement.cost();
        let rental: f64 = placement.hosts().iter().map(|h| h.dollars_per_hour).sum();
        assert!((cost.fleet_per_hour - rental).abs() < 1e-9);
        assert_eq!(cost.hosts_used, placement.hosts().len());
        assert!(cost.sim_rate_hz > 0.0);
        assert!((cost.slowdown - fleet.target_hz / cost.sim_rate_hz).abs() < 1e-6);
        assert!((cost.dollars_per_sim_hour - cost.fleet_per_hour * cost.slowdown).abs() < 1e-6);

        // Determinism: the same inputs produce the identical plan.
        let again = fleet.place(&topo, &profile, Cycle::new(6_400)).unwrap();
        assert_eq!(
            placement.hosts(),
            again.hosts(),
            "iter {iter}: packer nondeterministic"
        );
        assert_eq!(plan, again.partition());
        assert_eq!(cost, again.cost());
    }
}

fn get_f64(obj: &serde_json::Value, key: &str) -> f64 {
    obj.as_object()
        .and_then(|o| o.get(key))
        .and_then(serde_json::Value::as_f64)
        .unwrap_or_else(|| panic!("baseline missing {key}"))
}

fn close(got: f64, want: f64, what: &str) {
    let tol = 1e-6 * want.abs().max(1.0);
    assert!(
        (got - want).abs() <= tol,
        "{what}: got {got}, baseline {want}"
    );
}

/// The §V-C fleet and its modeled economics, pinned against the
/// committed golden file so cost-model drift fails CI loudly.
fn paper_cost_model_matches_baseline() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/fleet_cost_baseline.json"
    );
    let text = std::fs::read_to_string(path).expect("read results/fleet_cost_baseline.json");
    let baseline: serde_json::Value = serde_json::from_str(&text).expect("parse baseline");
    let obj = baseline.as_object().expect("baseline is an object");
    let ondemand = obj.get("ondemand").expect("baseline.ondemand");
    let spot = obj.get("spot").expect("baseline.spot");

    let topo = catalogue::datacenter(Dims::PAPER, None).expect("the paper's dims are valid");
    let placement = FleetSpec::ec2_default()
        .place(&topo, &LoadProfile::uniform(), Cycle::new(6_400))
        .expect("the EC2 fleet fits the 1024-node datacenter");
    let cost = placement.cost();
    let f1 = placement
        .hosts()
        .iter()
        .filter(|h| h.class == "f1.16xlarge")
        .count();
    let m4 = placement
        .hosts()
        .iter()
        .filter(|h| h.class == "m4.16xlarge")
        .count();
    assert_eq!(f1 as f64, get_f64(ondemand, "f1_16xlarge"));
    assert_eq!(m4 as f64, get_f64(ondemand, "m4_16xlarge"));
    assert_eq!(cost.hosts_used as f64, get_f64(ondemand, "hosts_used"));
    assert_eq!(cost.cut_links as f64, get_f64(ondemand, "cut_links"));
    close(
        cost.fleet_per_hour,
        get_f64(ondemand, "fleet_per_hour"),
        "ondemand fleet_per_hour",
    );
    close(
        cost.sim_rate_hz / 1e6,
        get_f64(ondemand, "sim_rate_mhz"),
        "sim_rate_mhz",
    );
    close(cost.slowdown, get_f64(ondemand, "slowdown"), "slowdown");
    close(
        cost.dollars_per_sim_hour,
        get_f64(ondemand, "dollars_per_sim_hour"),
        "ondemand dollars_per_sim_hour",
    );

    let spot_placement = FleetSpec::ec2_spot()
        .place(&topo, &LoadProfile::uniform(), Cycle::new(6_400))
        .expect("spot fleet places identically");
    close(
        spot_placement.cost().fleet_per_hour,
        get_f64(spot, "fleet_per_hour"),
        "spot fleet_per_hour",
    );
    close(
        spot_placement.cost().dollars_per_sim_hour,
        get_f64(spot, "dollars_per_sim_hour"),
        "spot dollars_per_sim_hour",
    );
}

/// A short 2-worker Fig 8 row times the workers' run legs: its rate is the
/// run's cycles over the merged report's `wall_ns`, which leaves out the
/// spawns and shard builds that the parent's `wall` includes.
fn fig8_fleet_rows_time_the_run_legs() {
    let cfg = PartitionConfig::new(2, Cycle::new(64_000), "fig8,nodes=4");
    let run = run_partitioned(catalogue::build, &cfg).expect("fig8 fleet runs");
    let row = Fig8DistRow::of(&run, 4, f64::INFINITY);
    let cycles = run.cycles.as_u64() as f64;
    let legs_mhz = cycles * 1e3 / run.report.wall_ns as f64;
    assert!(
        (row.sim_rate_mhz - legs_mhz).abs() <= legs_mhz * 1e-12,
        "{row:?}"
    );
    let spawn_inclusive_mhz = cycles / 1e6 / run.wall.as_secs_f64();
    assert!(
        row.sim_rate_mhz >= spawn_inclusive_mhz,
        "{row:?} vs {run:?}"
    );
}

fn main() {
    // Worker processes re-exec this binary with shard assignments in the
    // environment; this call never returns for them.
    if maybe_worker(catalogue::build) {
        return;
    }
    let quick = std::env::args().any(|a| a == "--quick");

    paper_cost_model_matches_baseline();
    println!("ok - paper_cost_model_matches_baseline (32 f1 + 5 m4, $438.40/h)");
    packer_properties_hold(if quick { 10 } else { 40 });
    println!("ok - packer_properties_hold");
    placement_is_invisible(quick);
    println!(
        "ok - placement_is_invisible (contiguous vs load-aware x 1/2/4 workers x {})",
        if quick { "shm" } else { "shm/tcp/unix" }
    );
    placement_plan_executes_end_to_end();
    println!("ok - placement_plan_executes_end_to_end");
    repartition_mid_run_matches_straight_run();
    println!("ok - repartition_mid_run_matches_straight_run (4-way -> 2-way)");
    fig8_fleet_rows_time_the_run_legs();
    println!("ok - fig8_fleet_rows_time_the_run_legs");
    if !quick {
        repartition_mid_scenario_matches_digests();
        println!("ok - repartition_mid_scenario_matches_digests");
    }
    println!("fleet: all checks passed");
}
