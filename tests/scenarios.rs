//! Chaos-scenario acceptance tests:
//!
//! * the same scenario script applied to the same topology is
//!   digest-identical across 1-, 2-, and 4-way partitionings and every
//!   transport backend, including the merged recovery timeline;
//! * a run checkpointed mid-partition, restored into a fresh deployment
//!   with the scenario re-applied, and run to completion lands on
//!   exactly the digests of an uninterrupted scenario run (scenario
//!   effects are pure functions of the target cycle, so re-applying the
//!   script resumes the timeline mid-partition);
//! * a zero-event scenario is bit-identical to no scenario at all;
//! * scripts naming unknown agents or out-of-range ports are rejected
//!   with a typed error at apply time, before any cycle runs.
//!
//! `harness = false`: worker processes re-exec this binary, so `main`
//! must route them into their shard before any test logic runs.

use firesim_core::{Cycle, SimError};
use firesim_manager::catalogue;
use firesim_manager::scenario::parse;
use firesim_manager::{maybe_worker, run_partitioned, PartitionConfig, TransportChoice};

/// The catalogue target every check deploys: two racks with cross-rack
/// ping traffic, so the scenario's cut links carry live frames and cross
/// every partition boundary.
const SPEC: &str = "two_racks";

const CYCLES: u64 = 500_000;

/// A kitchen-sink script: a partition that heals, a flaky window after
/// the heal, and a buffer-pressure window on the core switch — one of
/// each scenario mechanism, all landing inside the 500k-cycle run.
const SCRIPT: &str = r#"{
  "name": "test-mix", "seed": 11, "interval": 50000,
  "events": [
    { "kind": "partition", "from": 100000, "until": 250000, "islands": [["echo"]] },
    { "kind": "link_flaky", "from": 300000, "until": 400000,
      "agent": "rack0", "port": 0, "drop_percent": 40 },
    { "kind": "switch_pressure", "from": 50000, "until": 450000,
      "switch": "root", "buffer_bytes": 200, "max_release_delay": 32 }
  ]
}"#;

/// Writes `text` to a unique temp file and returns its absolute path
/// (workers re-exec this binary and load the script by path).
fn write_script(tag: &str, text: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "firesim-scenario-{}-{tag}.json",
        std::process::id()
    ));
    std::fs::write(&path, text).expect("write scenario script");
    path
}

/// The tentpole acceptance check: the scripted chaos run agrees
/// bit-for-bit across worker counts and transports — per-agent digests,
/// combined digest, and deterministic aggregates (which include the
/// merged recovery timeline).
fn scenario_is_partition_invariant() {
    let script = write_script("matrix", SCRIPT);
    let mut runs = Vec::new();
    for transport in [
        TransportChoice::Shm,
        TransportChoice::Tcp,
        TransportChoice::Unix,
    ] {
        for workers in [1usize, 2, 4] {
            let mut cfg = PartitionConfig::new(workers, Cycle::new(CYCLES), SPEC.to_string());
            cfg.transport = transport;
            cfg.scenario = Some(script.display().to_string());
            let run = run_partitioned(catalogue::build, &cfg)
                .unwrap_or_else(|report| panic!("{transport:?} x{workers} failed: {report}"));
            let tl = run
                .report
                .timeline
                .as_ref()
                .unwrap_or_else(|| panic!("{transport:?} x{workers}: no merged timeline"));
            assert!(
                tl.points.iter().any(|p| p.delivered > 0),
                "timeline recorded no delivered frames: {tl:?}"
            );
            assert!(
                tl.points.iter().any(|p| p.masked > 0),
                "partition masked no frames: {tl:?}"
            );
            runs.push((transport, workers, run));
        }
    }
    let (_, _, baseline) = &runs[0];
    for (transport, workers, run) in &runs[1..] {
        assert_eq!(
            baseline.digests, run.digests,
            "{transport:?} x{workers}: digests differ from monolithic Shm"
        );
        assert_eq!(
            baseline.combined_digest, run.combined_digest,
            "{transport:?} x{workers}: combined digest differs"
        );
        assert_eq!(
            baseline.report.deterministic_aggregates(),
            run.report.deterministic_aggregates(),
            "{transport:?} x{workers}: report aggregates (incl. timeline) differ"
        );
    }
    let _ = std::fs::remove_file(script);
}

/// Checkpoint mid-partition, restore into a fresh deployment, re-apply
/// the scenario, run to the end: digests must equal an uninterrupted
/// scenario run's. Scenario effects are pure functions of the absolute
/// target cycle, so the restored run heals at the scripted cycle too.
fn checkpoint_mid_partition_resumes_scenario() {
    let scenario = parse(SCRIPT).expect("script parses");

    // Uninterrupted scenario run.
    let (topo, config) = catalogue::build(SPEC).unwrap();
    let compiled = scenario.compile(&topo.scenario_topology()).unwrap();
    let mut sim = topo.build(config).unwrap();
    sim.apply_scenario(&compiled).unwrap();
    sim.run_for(Cycle::new(CYCLES)).unwrap();
    let end = sim.now();
    let straight = sim.checkpoint().unwrap().agent_digests();

    // Same run, but checkpointed around 150k — inside the [100k, 250k)
    // partition window (the engine advances in token-window quanta, so
    // anchor on the cycle it actually reached).
    let (topo, config) = catalogue::build(SPEC).unwrap();
    let compiled = scenario.compile(&topo.scenario_topology()).unwrap();
    let mut sim = topo.build(config).unwrap();
    sim.apply_scenario(&compiled).unwrap();
    sim.run_for(Cycle::new(150_000)).unwrap();
    let mid = sim.now();
    assert!(
        mid.as_u64() >= 100_000 && mid.as_u64() < 250_000,
        "checkpoint at {mid:?} missed the partition window"
    );
    let cp = sim.checkpoint().unwrap();

    // Fresh deployment, scenario re-applied, state restored mid-window.
    let (topo, config) = catalogue::build(SPEC).unwrap();
    let compiled = scenario.compile(&topo.scenario_topology()).unwrap();
    let mut sim = topo.build(config).unwrap();
    sim.apply_scenario(&compiled).unwrap();
    sim.restore(&cp).unwrap();
    assert_eq!(sim.now(), mid, "restore lands mid-partition");
    sim.run_for(Cycle::new(end.as_u64() - mid.as_u64()))
        .unwrap();
    assert_eq!(
        sim.now(),
        end,
        "resumed run ends where the straight run did"
    );
    let resumed = sim.checkpoint().unwrap().agent_digests();

    assert_eq!(
        straight, resumed,
        "restore-then-heal diverged from the uninterrupted scenario run"
    );
}

/// A zero-event scenario installs nothing: digests match a straight run
/// exactly, for both the monolithic and 2-way partitioned deployments.
fn noop_scenario_is_invisible() {
    let script = write_script("noop", r#"{"name": "noop"}"#);
    let mut digests = Vec::new();
    for scenario in [None, Some(script.display().to_string())] {
        for workers in [1usize, 2] {
            let mut cfg = PartitionConfig::new(workers, Cycle::new(CYCLES), SPEC.to_string());
            cfg.scenario = scenario.clone();
            let run = run_partitioned(catalogue::build, &cfg)
                .unwrap_or_else(|report| panic!("noop x{workers} failed: {report}"));
            assert!(
                run.report.timeline.is_none(),
                "a zero-event scenario must not record a timeline"
            );
            digests.push(run.digests);
        }
    }
    for d in &digests[1..] {
        assert_eq!(&digests[0], d, "noop scenario changed the digests");
    }
    let _ = std::fs::remove_file(script);
}

/// Bad targets fail typed at apply time: unknown agents and out-of-range
/// ports are rejected when the script is compiled against the topology,
/// before any cycle runs — both in-process and through the partitioned
/// runner.
fn bad_targets_are_rejected_at_setup() {
    let (topo, _) = catalogue::build(SPEC).unwrap();
    let view = topo.scenario_topology();

    let ghost = parse(
        r#"{"events": [{"kind": "link_down", "from": 0, "until": 10, "agent": "ghost", "port": 0}]}"#,
    )
    .unwrap();
    let err = ghost.compile(&view).unwrap_err();
    assert!(
        matches!(err, SimError::Scenario { .. }) && err.to_string().contains("ghost"),
        "unknown agent must fail typed: {err}"
    );

    let bad_port = parse(
        r#"{"events": [{"kind": "link_flaky", "from": 0, "until": 10,
            "agent": "pinger", "port": 7, "drop_percent": 10}]}"#,
    )
    .unwrap();
    let err = bad_port.compile(&view).unwrap_err();
    assert!(
        matches!(err, SimError::Scenario { .. }) && err.to_string().contains("port"),
        "out-of-range port must fail typed: {err}"
    );

    // The partitioned runner surfaces the same failure before spawning
    // any worker.
    let script = write_script(
        "bad",
        r#"{"events": [{"kind": "partition", "from": 0, "until": 10, "islands": [["ghost"]]}]}"#,
    );
    let mut cfg = PartitionConfig::new(1, Cycle::new(CYCLES), SPEC.to_string());
    cfg.scenario = Some(script.display().to_string());
    let report = match run_partitioned(catalogue::build, &cfg) {
        Err(report) => report,
        Ok(_) => panic!("bad scenario target accepted by the partitioned runner"),
    };
    assert!(
        report.to_string().contains("ghost"),
        "failure report must name the bad target: {report}"
    );
    let _ = std::fs::remove_file(script);
}

fn main() {
    // Worker processes re-exec this binary with shard assignments in the
    // environment; this call never returns for them.
    if maybe_worker(catalogue::build) {
        return;
    }

    scenario_is_partition_invariant();
    println!("ok - scenario_is_partition_invariant (1/2/4 workers x shm/tcp/unix)");
    checkpoint_mid_partition_resumes_scenario();
    println!("ok - checkpoint_mid_partition_resumes_scenario");
    noop_scenario_is_invisible();
    println!("ok - noop_scenario_is_invisible");
    bad_targets_are_rejected_at_setup();
    println!("ok - bad_targets_are_rejected_at_setup");
    println!("scenarios: all checks passed");
}
