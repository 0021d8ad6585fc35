//! Faulty-agent matrix: an injected agent panic in the first, middle, or
//! last chunk of a run, across 1, 2, and 8 host workers, must never
//! deadlock — `run_for` returning at all proves every scoped worker joined
//! — and the error names the faulting agent and cycle, not an innocent
//! peer.

use firesim_core::{AgentCtx, Cycle, Engine, FaultPlan, SimAgent, SimError};

const WINDOW: u32 = 4;
const CHUNK_ROUNDS: u64 = 4;
const TOTAL_ROUNDS: u64 = 64;

struct Relay;

impl SimAgent for Relay {
    type Token = u64;
    fn name(&self) -> &str {
        "relay"
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn advance(&mut self, ctx: &mut AgentCtx<u64>) {
        let mut acc = 0u64;
        for (_off, v) in ctx.drain_input(0) {
            acc = acc.wrapping_add(v);
        }
        ctx.push_output(0, 0, acc.wrapping_add(ctx.now().as_u64()));
    }
}

/// Ten relays in a ring; a panic is scheduled against one of them.
fn build(threads: usize) -> Engine<u64> {
    let mut engine: Engine<u64> = Engine::new(WINDOW);
    engine
        .set_host_threads(threads)
        .set_host_oversubscribe(true)
        .set_chunk_rounds(CHUNK_ROUNDS);
    let ids: Vec<_> = (0..10).map(|_| engine.add_agent(Box::new(Relay))).collect();
    for i in 0..ids.len() {
        engine
            .connect(
                ids[i],
                0,
                ids[(i + 1) % ids.len()],
                0,
                Cycle::new(u64::from(WINDOW)),
            )
            .unwrap();
    }
    engine
}

#[test]
fn injected_panic_matrix_no_deadlock_correct_attribution() {
    let horizon = TOTAL_ROUNDS * u64::from(WINDOW);
    // First chunk, a middle chunk, and the last chunk of the run.
    let first = 0u64;
    let middle = (TOTAL_ROUNDS / 2) * u64::from(WINDOW);
    let last = (TOTAL_ROUNDS - 1) * u64::from(WINDOW);
    for &panic_cycle in &[first, middle, last] {
        for &threads in &[1usize, 2, 8] {
            let mut engine = build(threads);
            let mut plan = FaultPlan::new(panic_cycle ^ threads as u64);
            plan.panic_at(4usize, panic_cycle);
            engine.set_fault_plan(plan);

            match engine.run_for(Cycle::new(horizon)) {
                Err(SimError::AgentPanicked {
                    agent,
                    cycle,
                    message,
                }) => {
                    assert_eq!(
                        agent, "relay",
                        "wrong agent (cycle {panic_cycle}, {threads} workers)"
                    );
                    assert_eq!(cycle, panic_cycle, "wrong cycle ({threads} workers)");
                    assert!(message.contains("injected panic"), "message: {message}");
                }
                other => panic!(
                    "cycle {panic_cycle}, {threads} workers: expected AgentPanicked, got {other:?}"
                ),
            }
            // Provenance: exactly the injected fault, nothing else.
            let records = engine.fault_records();
            assert_eq!(records.len(), 1);
            assert_eq!(records[0].cycle, panic_cycle);
        }
    }
}

/// Seeded smoke: a benign target-only plan derived from a seed must let the
/// run complete, leave a provenance log, and replay to the identical log on
/// a second run (same seed, different thread count). CI runs this across a
/// seed matrix via `FIRESIM_FAULT_SEED`; without the variable it sweeps a
/// default set of seeds.
#[test]
fn seeded_smoke_plan_completes_and_replays() {
    let seeds: Vec<u64> = match std::env::var("FIRESIM_FAULT_SEED") {
        Ok(s) => vec![s.parse().expect("FIRESIM_FAULT_SEED must be a u64")],
        Err(_) => vec![1, 2, 3, 4],
    };
    let horizon = TOTAL_ROUNDS * u64::from(WINDOW);
    for seed in seeds {
        let mut logs = Vec::new();
        for &threads in &[1usize, 8] {
            let mut engine = build(threads);
            engine.set_fault_plan(FaultPlan::smoke(seed, 10, horizon));
            let summary = engine
                .run_for(Cycle::new(horizon))
                .unwrap_or_else(|e| panic!("seed {seed}, {threads} workers: {e}"));
            assert_eq!(summary.cycles.as_u64(), horizon);
            logs.push(engine.fault_records());
        }
        assert!(
            !logs[0].is_empty(),
            "seed {seed}: smoke plan injected nothing"
        );
        assert_eq!(
            logs[0], logs[1],
            "seed {seed}: fault provenance differs across thread counts"
        );
    }
}

#[test]
fn injected_channel_drop_matrix_no_deadlock() {
    let drop_cycle = (TOTAL_ROUNDS / 2) * u64::from(WINDOW);
    for &threads in &[1usize, 2, 8] {
        let mut engine = build(threads);
        let mut plan = FaultPlan::new(threads as u64);
        plan.drop_channel(7usize, 0, drop_cycle);
        engine.set_fault_plan(plan);
        match engine.run_for(Cycle::new(TOTAL_ROUNDS * u64::from(WINDOW))) {
            Err(SimError::Agent { agent, detail }) => {
                assert_eq!(agent, "relay", "{threads} workers");
                assert!(detail.contains("channel drop"), "detail: {detail}");
            }
            other => panic!("{threads} workers: expected Agent error, got {other:?}"),
        }
    }
}
