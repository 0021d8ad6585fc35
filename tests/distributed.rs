//! Distributed-run acceptance tests (§III-B2 determinism across hosts):
//!
//! * the same topology partitioned across 1, 2, and 4 worker processes
//!   produces bit-identical per-agent checkpoint digests and identical
//!   deterministic report aggregates, over several seeded topologies and
//!   every transport backend;
//! * killing one worker mid-run yields a `FailureReport` that names the
//!   dead shard.
//!
//! `harness = false`: worker processes re-exec this binary, so `main`
//! must route them into their shard before any test logic runs — the
//! default libtest harness would try to parse the worker env as test
//! filters.

use firesim_blade::programs;
use firesim_core::{Cycle, SimError, SimResult};
use firesim_manager::{
    maybe_worker, run_partitioned, BladeSpec, PartitionConfig, SimConfig, Topology, TransportChoice,
};
use firesim_net::MacAddr;

/// Deterministic xorshift so "arbitrary" topologies are reproducible
/// from the spec string alone (both here and in re-exec'd workers).
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

/// `BuildFn` shared by the parent and every worker: a seeded two-rack
/// cluster with real cross-rack traffic (a pinger in rack 0 pinging an
/// echo server in rack 1, so token windows with live frames cross every
/// partition boundary) plus a seed-dependent number of boot-and-idle
/// nodes with seed-dependent work.
///
/// Spec grammar: `seed=N[,nocache][,reference-timing]` — the `,nocache`
/// suffix force-disables the per-hart decode cache on every blade, and
/// `,reference-timing` swaps the batched event-driven timing layer for
/// the per-cycle reference loop, so the same topology can be run with
/// and without each fast path (the suffixes travel to re-exec'd workers
/// inside the spec string, keeping parent and shards consistent).
fn build_seeded(spec: &str) -> SimResult<(Topology, SimConfig)> {
    let mut parts = spec.split(',');
    let spec_seed = parts.next().unwrap_or_default();
    let mut nocache = false;
    let mut reference_timing = false;
    for flag in parts {
        match flag {
            "nocache" => nocache = true,
            "reference-timing" => reference_timing = true,
            other => return Err(SimError::topology(format!("bad spec flag {other:?}"))),
        }
    }
    let seed = spec_seed
        .strip_prefix("seed=")
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(|| SimError::topology(format!("bad spec {spec:?}")))?;
    let blade = move |program| {
        let mut spec = BladeSpec::rtl_single_core(program);
        if let BladeSpec::Rtl { config, .. } = &mut spec {
            config.timing.decode_cache = !nocache;
            config.timing.reference_timing = reference_timing;
        }
        spec
    };
    let mut rng = Rng(seed);

    let mut topo = Topology::new();
    let root = topo.add_switch("root");
    let rack0 = topo.add_switch("rack0");
    let rack1 = topo.add_switch("rack1");
    topo.add_downlinks(root, [rack0, rack1])
        .expect("fresh switch has free ports");

    let pings = 3 + rng.below(4) as usize;
    let pinger = topo.add_server(
        "pinger",
        blade(programs::ping_sender(
            MacAddr::from_node_index(0),
            MacAddr::from_node_index(1),
            pings,
            56,
            64_000 + rng.below(8) * 6_400,
        )),
    );
    let echo = topo.add_server("echo", blade(programs::echo_responder(pings)));
    topo.add_downlink(rack0, pinger).expect("free port");
    topo.add_downlink(rack1, echo).expect("free port");
    // 1-3 extra idle nodes per rack, each with its own boot workload.
    for (rack, tag) in [(rack0, "a"), (rack1, "b")] {
        for i in 0..1 + rng.below(3) {
            let node = topo.add_server(
                format!("idle_{tag}{i}"),
                blade(programs::boot_poweroff(50 + rng.below(400))),
            );
            topo.add_downlink(rack, node).expect("free port");
        }
    }
    let config = SimConfig {
        link_latency: Cycle::new(6_400), // the paper's default 2 us at 3.2 GHz
        ..SimConfig::default()
    };
    Ok((topo, config))
}

const CYCLES: u64 = 500_000;

/// The tentpole acceptance check: 1-way, 2-way, and 4-way partitionings
/// of the same seeded topology agree bit-for-bit — same per-agent
/// digests, same combined digest, same deterministic report aggregates.
fn partitioning_is_invisible(seed: u64, transport: TransportChoice) {
    let mut runs = Vec::new();
    for workers in [1usize, 2, 4] {
        let mut cfg = PartitionConfig::new(workers, Cycle::new(CYCLES), format!("seed={seed}"));
        cfg.transport = transport;
        let run = run_partitioned(build_seeded, &cfg)
            .unwrap_or_else(|report| panic!("seed {seed} x{workers} failed: {report}"));
        assert!(
            run.digests.len() >= 4,
            "expected every agent digested, got {:?}",
            run.digests
        );
        runs.push((workers, run));
    }
    let (_, baseline) = &runs[0];
    for (workers, run) in &runs[1..] {
        assert_eq!(
            baseline.digests, run.digests,
            "seed {seed}: {workers}-way digests differ from monolithic ({transport:?})"
        );
        assert_eq!(
            baseline.combined_digest, run.combined_digest,
            "seed {seed}: {workers}-way combined digest differs ({transport:?})"
        );
        assert_eq!(
            baseline.report.deterministic_aggregates(),
            run.report.deterministic_aggregates(),
            "seed {seed}: {workers}-way report aggregates differ ({transport:?})"
        );
    }
}

/// The decode-cache acceptance check: the same seeded topology run with
/// the fast path enabled and force-disabled (`,nocache`), each across
/// 1-, 2-, and 4-way partitionings, produces bit-identical per-agent
/// checkpoint digests, combined digest, and deterministic report
/// aggregates. Host-side throughput counters (`host_*`) legally differ
/// between the two modes and are excluded from the canonical aggregates.
fn decode_cache_is_invisible(seed: u64) {
    let mut baseline = None;
    for spec in [format!("seed={seed}"), format!("seed={seed},nocache")] {
        for workers in [1usize, 2, 4] {
            let cfg = PartitionConfig::new(workers, Cycle::new(CYCLES), spec.clone());
            let run = run_partitioned(build_seeded, &cfg)
                .unwrap_or_else(|report| panic!("{spec} x{workers} failed: {report}"));
            match &baseline {
                None => baseline = Some(run),
                Some(base) => {
                    assert_eq!(
                        base.digests, run.digests,
                        "{spec} x{workers}: digests differ from cache-on monolithic"
                    );
                    assert_eq!(
                        base.combined_digest, run.combined_digest,
                        "{spec} x{workers}: combined digest differs"
                    );
                    assert_eq!(
                        base.report.deterministic_aggregates(),
                        run.report.deterministic_aggregates(),
                        "{spec} x{workers}: report aggregates differ"
                    );
                }
            }
        }
    }
}

/// The event-driven-timing acceptance check: the same seeded topology
/// run under the batched schedule and under the per-cycle reference
/// loop (`,reference-timing`), each across 1-, 2-, and 4-way
/// partitionings, produces bit-identical per-agent checkpoint digests,
/// combined digest, and deterministic report aggregates — skip-ahead
/// scheduling and superblock static timing are host-side optimisations
/// with zero target-visible effect.
fn reference_timing_is_invisible(seed: u64) {
    let mut baseline = None;
    for spec in [
        format!("seed={seed}"),
        format!("seed={seed},reference-timing"),
    ] {
        for workers in [1usize, 2, 4] {
            let cfg = PartitionConfig::new(workers, Cycle::new(CYCLES), spec.clone());
            let run = run_partitioned(build_seeded, &cfg)
                .unwrap_or_else(|report| panic!("{spec} x{workers} failed: {report}"));
            match &baseline {
                None => baseline = Some(run),
                Some(base) => {
                    assert_eq!(
                        base.digests, run.digests,
                        "{spec} x{workers}: digests differ from batched monolithic"
                    );
                    assert_eq!(
                        base.combined_digest, run.combined_digest,
                        "{spec} x{workers}: combined digest differs"
                    );
                    assert_eq!(
                        base.report.deterministic_aggregates(),
                        run.report.deterministic_aggregates(),
                        "{spec} x{workers}: report aggregates differ"
                    );
                }
            }
        }
    }
}

/// Killing one worker produces a `FailureReport` naming the dead shard;
/// the same hook fails a one-worker (in-process) run too.
fn dead_worker_is_named() {
    let mut cfg = PartitionConfig::new(2, Cycle::new(CYCLES), "seed=1".to_string());
    // Shard 0 holds the pinger (server index 0), which is mid-ping-loop
    // at cycle 100000: it dies while shard 1 is blocked on the
    // cross-shard transports, so the parent must notice and kill shard 1.
    cfg.worker_panic = Some("0:pinger@100000".to_string());
    let report = match run_partitioned(build_seeded, &cfg) {
        Err(report) => report,
        Ok(run) => panic!("worker panic injected but the fleet succeeded: {run:?}"),
    };
    assert_eq!(
        report.failing_agent.as_deref(),
        Some("shard0"),
        "report must name the dead shard: {report}"
    );

    // One worker runs in the parent process, without a fleet; the hook
    // must still fire rather than be silently ignored.
    let mut cfg = PartitionConfig::new(1, Cycle::new(CYCLES), "seed=1".to_string());
    cfg.worker_panic = Some("0:pinger@100000".to_string());
    let report = match run_partitioned(build_seeded, &cfg) {
        Err(report) => report,
        Ok(_) => panic!("panic injected into the one-worker run but it succeeded"),
    };
    assert!(
        matches!(report.error, SimError::AgentPanicked { .. }),
        "one-worker run must fail with the injected panic: {report}"
    );
}

fn main() {
    // Worker processes re-exec this binary with shard assignments in the
    // environment; this call never returns for them.
    if maybe_worker(build_seeded) {
        return;
    }

    // Every transport backend at one seed, then more seeds on the
    // fastest backend for topological variety.
    for transport in [
        TransportChoice::Shm,
        TransportChoice::Tcp,
        TransportChoice::Unix,
    ] {
        partitioning_is_invisible(1, transport);
        println!("ok - partitioning_is_invisible seed=1 {transport:?}");
    }
    for seed in [2u64, 3, 4] {
        partitioning_is_invisible(seed, TransportChoice::Shm);
        println!("ok - partitioning_is_invisible seed={seed} Shm");
    }
    decode_cache_is_invisible(1);
    println!("ok - decode_cache_is_invisible seed=1");
    reference_timing_is_invisible(1);
    println!("ok - reference_timing_is_invisible seed=1");
    dead_worker_is_named();
    println!("ok - dead_worker_is_named");
    println!("distributed: all checks passed");
}
