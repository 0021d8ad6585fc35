//! Integration tests for the observability layer: the quickstart flow
//! with metrics and tracing enabled must produce (a) a [`RunReport`]
//! whose per-link token counts witness the latency-*N* invariant
//! (§III-B2: every link always holds exactly one latency's worth of
//! tokens), and (b) a Chrome `trace_event` JSON that a trace viewer
//! would accept — the acceptance criteria for the `--metrics-out` /
//! `--trace-out` quickstart flags.

use std::time::Duration;

use firesim_core::{Cycle, RunSummary};
use firesim_manager::catalogue::{self, QUICKSTART_PINGS as PINGS};
use firesim_manager::{RunReport, SimConfig, Simulation};

const LINK_LATENCY: u64 = 400;

/// The catalogue's quickstart cluster at test scale: one ToR switch, a
/// pinger, an echo server, and two idle nodes, on short links.
fn build_quickstart(host_threads: usize) -> Simulation {
    let (topo, config) = catalogue::build("quickstart").expect("catalogue entry");
    topo.build(SimConfig {
        link_latency: Cycle::new(LINK_LATENCY),
        host_threads,
        ..config
    })
    .expect("valid topology")
}

fn observed_run(host_threads: usize) -> (Simulation, RunSummary) {
    let mut sim = build_quickstart(host_threads);
    sim.enable_metrics();
    sim.enable_tracing();
    let summary = sim.run_until_done(Cycle::new(20_000_000)).expect("runs");
    (sim, summary)
}

/// Acceptance: the RunReport's per-link token counts match the latency-N
/// invariant, its profiles are self-consistent, and the app counters
/// surface the models' traffic.
#[test]
fn run_report_links_match_latency_invariant() {
    let (sim, summary) = observed_run(1);
    let report = sim.run_report(summary.wall);

    assert!(report.token_invariant_ok, "token invariant must hold");
    // 4 servers + 1 switch, bidirectional links = 8 directed links.
    assert_eq!(report.links.len(), 8);
    for link in &report.links {
        assert_eq!(link.latency, LINK_LATENCY);
        assert_eq!(
            link.in_flight_tokens, LINK_LATENCY,
            "link -> {}:{} holds {} tokens on a latency-{} link",
            link.agent, link.port, link.in_flight_tokens, link.latency
        );
    }

    // Profiles: every agent advanced the full run in lockstep, and the
    // aggregated step counter is exactly the sum of per-agent rounds.
    assert_eq!(report.agents.len(), 5);
    let total_rounds: u64 = report.agents.iter().map(|a| a.rounds).sum();
    assert!(total_rounds > 0);
    for a in &report.agents {
        assert_eq!(a.target_cycles, a.rounds * LINK_LATENCY, "agent {}", a.name);
    }
    let steps = report
        .counters
        .iter()
        .find(|(k, _)| k == "engine/agent_steps")
        .map(|(_, v)| *v)
        .expect("engine/agent_steps counter present");
    assert_eq!(steps, total_rounds);

    // App counters: the switch forwarded every ping and echo; the ping
    // pair exchanged tokens.
    let tor = report.agents.iter().find(|a| a.name == "tor0").unwrap();
    let forwarded = tor
        .counters
        .iter()
        .find(|(k, _)| k == "frames_forwarded")
        .map(|(_, v)| *v)
        .unwrap();
    assert!(forwarded >= 2 * PINGS as u64, "forwarded {forwarded}");
    let pinger = report.agents.iter().find(|a| a.name == "pinger").unwrap();
    assert!(pinger.tokens_out > 0 && pinger.tokens_in > 0);

    assert!(report.cycles > 0);
    assert!(report.sim_rate_mhz > 0.0);
}

/// Acceptance: the exported trace is valid Chrome `trace_event` JSON —
/// parseable, with named tracks and complete ("X") spans carrying
/// numeric timestamps — across sequential and parallel execution.
#[test]
fn chrome_trace_is_valid_and_names_agents() {
    for host_threads in [1, 2] {
        let mut sim = build_quickstart(host_threads);
        sim.engine_mut().set_host_oversubscribe(true);
        let tracer = sim.enable_tracing();
        sim.run_until_done(Cycle::new(20_000_000)).expect("runs");

        let json = tracer.export_chrome_trace();
        let v = serde_json::from_str(&json).expect("trace parses as JSON");
        let events = v
            .get("traceEvents")
            .and_then(serde_json::Value::as_array)
            .expect("traceEvents array")
            .clone();
        assert!(!events.is_empty(), "threads={host_threads}: empty trace");

        let spans: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(serde_json::Value::as_str) == Some("X"))
            .collect();
        assert!(!spans.is_empty());
        for span in &spans {
            assert!(span.get("ts").unwrap().as_f64().is_some());
            assert!(span.get("dur").unwrap().as_f64().unwrap() > 0.0);
            assert!(span.get("tid").unwrap().as_u64().is_some());
        }
        // Every agent appears as a span name somewhere.
        let names: Vec<&str> = spans
            .iter()
            .filter_map(|e| e.get("name").and_then(serde_json::Value::as_str))
            .collect();
        for agent in ["pinger", "echo", "idle0", "idle1", "tor0"] {
            assert!(
                names.contains(&agent),
                "threads={host_threads}: no span for agent {agent}"
            );
        }
        // Track metadata names each worker.
        let metas: Vec<_> = events
            .iter()
            .filter(|e| e.get("name").and_then(serde_json::Value::as_str) == Some("thread_name"))
            .collect();
        assert_eq!(metas.len(), host_threads, "one named track per worker");
    }
}

/// Acceptance: report and trace survive the full file round trip the
/// quickstart flags perform — write, re-read, re-parse, same content.
#[test]
fn artifacts_round_trip_through_files() {
    let (mut sim, summary) = observed_run(1);
    let report = sim.run_report(summary.wall);
    let tracer = sim.engine_mut().tracer().cloned().expect("tracing enabled");

    let dir = std::env::temp_dir().join("firesim_observability_test");
    std::fs::create_dir_all(&dir).unwrap();
    let report_path = dir.join("report.json");
    let trace_path = dir.join("trace.json");

    std::fs::write(&report_path, report.to_json()).unwrap();
    tracer.write_chrome_trace(&trace_path).unwrap();

    let report_back =
        RunReport::from_json(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
    assert_eq!(report_back, report);
    assert!(report_back.token_invariant_ok);

    let trace_back = std::fs::read_to_string(&trace_path).unwrap();
    let v = serde_json::from_str(&trace_back).expect("written trace parses");
    assert_eq!(
        v.get("traceEvents")
            .and_then(serde_json::Value::as_array)
            .map(Vec::len),
        Some(tracer.len() + 1), // spans + the engine's thread_name record
    );

    let _ = std::fs::remove_file(report_path);
    let _ = std::fs::remove_file(trace_path);
}

/// Observability is strictly additive: a run with metrics and tracing on
/// produces the same RTTs as an unobserved run, and disabling leaves the
/// report empty of registry counters.
#[test]
fn observed_and_unobserved_runs_agree() {
    let rtts = |sim: &Simulation| -> Vec<u64> {
        let probe = sim.servers()[0].probe.as_ref().unwrap();
        let p = probe.lock();
        assert_eq!(p.exit_code, Some(0));
        (0..PINGS)
            .map(|i| u64::from_le_bytes(p.mailbox[i * 8..i * 8 + 8].try_into().unwrap()))
            .collect()
    };

    let mut plain = build_quickstart(1);
    plain.run_until_done(Cycle::new(20_000_000)).expect("runs");
    let (observed, _) = observed_run(1);
    assert_eq!(rtts(&plain), rtts(&observed));

    // The unobserved report still carries links and the invariant check,
    // but no registry counters and all-zero profiles.
    let report = plain.run_report(Duration::from_millis(1));
    assert!(report.token_invariant_ok);
    assert!(report.counters.is_empty());
    assert!(report.agents.iter().all(|a| a.rounds == 0));
}
