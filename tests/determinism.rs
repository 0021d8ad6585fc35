//! Cross-crate integration tests: the FireSim determinism guarantee.
//!
//! The paper's central claim (§III-B2): because every link always has
//! exactly one latency's worth of tokens in flight, "each server
//! simulation computes each target cycle deterministically" no matter how
//! the host schedules the work. These tests run identical targets under
//! different host configurations and demand bit-identical results.

use firesim_blade::programs;
use firesim_core::{Cycle, Frequency};
use firesim_manager::{BladeSpec, SimConfig, Topology};
use firesim_net::MacAddr;

const PINGS: usize = 5;

/// Builds a 4-node ping cluster and returns every observable result:
/// per-ping RTTs and per-switch forwarding counters.
fn run_cluster(host_threads: usize, supernode: bool) -> (Vec<u64>, Vec<u64>) {
    let mut sim = build_cluster(host_threads, supernode);
    sim.run_until_done(Cycle::new(400_000_000)).expect("runs");
    collect_results(&sim)
}

/// Builds (but does not run) the 4-node ping cluster.
fn build_cluster(host_threads: usize, supernode: bool) -> firesim_manager::Simulation {
    let clock = Frequency::GHZ_3_2;
    let pings = PINGS;
    let mut topo = Topology::new();
    let tor = topo.add_switch("tor0");
    let pinger = topo.add_server(
        "pinger",
        BladeSpec::rtl_single_core(programs::ping_sender(
            MacAddr::from_node_index(0),
            MacAddr::from_node_index(1),
            pings,
            56,
            clock.cycles_from_micros(10).as_u64(),
        )),
    );
    let echo = topo.add_server(
        "echo",
        BladeSpec::rtl_single_core(programs::echo_responder(pings)),
    );
    // Two streamers generate cross traffic so switching order matters.
    let tx = topo.add_server(
        "tx",
        BladeSpec::rtl_single_core(programs::stream_sender(
            MacAddr::from_node_index(2),
            MacAddr::from_node_index(3),
            40,
            1000,
            0,
        )),
    );
    let rx = topo.add_server(
        "rx",
        BladeSpec::rtl_single_core(programs::stream_receiver(
            MacAddr::from_node_index(3),
            MacAddr::from_node_index(2),
            40 * 1014,
        )),
    );
    topo.add_downlinks(tor, [pinger, echo, tx, rx]).unwrap();

    let mut sim = topo
        .build(SimConfig {
            link_latency: clock.cycles_from_micros(2),
            host_threads,
            supernode,
            ..SimConfig::default()
        })
        .expect("valid topology");
    // These tests exist to exercise the parallel execution paths, so lift
    // the engine's workers<=cores clamp — CI hosts may have fewer cores
    // than the thread counts exercised here.
    sim.engine_mut().set_host_oversubscribe(true);
    sim
}

/// Every observable result of a finished cluster run: per-ping RTTs and
/// per-switch forwarding counters.
fn collect_results(sim: &firesim_manager::Simulation) -> (Vec<u64>, Vec<u64>) {
    let probe = sim.servers()[0].probe.as_ref().expect("rtl blade");
    let p = probe.lock();
    assert_eq!(p.exit_code, Some(0));
    let rtts = (0..PINGS)
        .map(|i| u64::from_le_bytes(p.mailbox[i * 8..i * 8 + 8].try_into().unwrap()))
        .collect();
    let switch_counts = sim
        .switch_stats()
        .iter()
        .map(|(_, s)| {
            let s = s.lock();
            s.frames_forwarded + s.ingress_bytes * 1_000_003
        })
        .collect();
    (rtts, switch_counts)
}

#[test]
fn results_identical_across_host_thread_counts() {
    let baseline = run_cluster(1, false);
    for threads in [2, 4, 8] {
        assert_eq!(
            run_cluster(threads, false),
            baseline,
            "host_threads = {threads} changed simulation results"
        );
    }
}

#[test]
fn results_identical_with_supernode_packing() {
    // Supernode changes the host mapping (agents, channels) but must not
    // change a single target cycle.
    assert_eq!(run_cluster(1, true), run_cluster(1, false));
    assert_eq!(run_cluster(4, true), run_cluster(1, false));
}

#[test]
fn repeated_runs_are_bit_identical() {
    assert_eq!(run_cluster(2, false), run_cluster(2, false));
}

/// Deterministic metric fingerprint of a finished observed run: the
/// aggregated step counter, every per-agent profile field except the
/// host-dependent `host_ns`, and every exported application counter.
fn metric_fingerprint(
    sim: &mut firesim_manager::Simulation,
    registry: &firesim_core::MetricsRegistry,
) -> Vec<(String, u64)> {
    let mut fp = vec![(
        "engine/agent_steps".to_owned(),
        registry.counter_value("engine/agent_steps").unwrap(),
    )];
    let engine = sim.engine_mut();
    for (name, p) in engine.agent_profiles() {
        fp.push((format!("{name}/rounds"), p.rounds));
        fp.push((format!("{name}/target_cycles"), p.target_cycles));
        fp.push((format!("{name}/windows_in"), p.windows_in));
        fp.push((format!("{name}/windows_out"), p.windows_out));
        fp.push((format!("{name}/tokens_in"), p.tokens_in));
        fp.push((format!("{name}/tokens_out"), p.tokens_out));
    }
    for (name, counters) in engine.agent_app_counters() {
        for (key, value) in counters {
            // `host_`-prefixed counters (host MIPS, decode-cache hit
            // rates) measure the *host*, not the guest, and are legally
            // run-dependent — same contract as `host_ns` above and the
            // report's deterministic_aggregates().
            if key.starts_with("host_") {
                continue;
            }
            fp.push((format!("{name}/{key}"), value));
        }
    }
    fp
}

/// Observation must be free of Heisenberg effects: with metrics AND
/// tracing enabled the simulation results stay bit-identical to the
/// unobserved baseline, and the aggregated deterministic metrics are
/// themselves identical across 1/2/4 worker threads.
#[test]
fn observation_changes_nothing_and_metrics_are_thread_invariant() {
    let baseline = run_cluster(1, false);
    let mut fingerprints: Vec<Vec<(String, u64)>> = Vec::new();
    for threads in [1, 2, 4] {
        let mut sim = build_cluster(threads, false);
        let registry = sim.enable_metrics();
        let tracer = sim.enable_tracing();
        sim.run_until_done(Cycle::new(400_000_000)).expect("runs");
        assert_eq!(
            collect_results(&sim),
            baseline,
            "observation changed results at host_threads = {threads}"
        );
        assert!(
            !tracer.is_empty(),
            "tracing enabled but no spans were collected"
        );
        fingerprints.push(metric_fingerprint(&mut sim, &registry));
    }
    for (i, fp) in fingerprints.iter().enumerate().skip(1) {
        assert_eq!(
            fp,
            &fingerprints[0],
            "aggregated metrics differ between 1 thread and {} threads",
            [1, 2, 4][i]
        );
    }
}
