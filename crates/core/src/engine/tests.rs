use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use super::schedule::lpt_partition;
use super::*;
use crate::snapshot::{Checkpoint, SnapshotReader, SnapshotWriter};
use crate::token::TokenWindow;

/// Counts tokens received; sends a token every `period` cycles.
struct Pulser {
    period: u64,
    sent: u64,
    received: Vec<u64>, // absolute arrival cycles
}

impl Pulser {
    fn new(period: u64) -> Self {
        Pulser {
            period,
            sent: 0,
            received: Vec::new(),
        }
    }
}

impl SimAgent for Pulser {
    type Token = u64;
    fn name(&self) -> &str {
        "pulser"
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn advance(&mut self, ctx: &mut AgentCtx<u64>) {
        let base = ctx.now().as_u64();
        for (off, v) in ctx.drain_input(0) {
            let _sent_cycle = v;
            self.received.push(base + u64::from(off));
        }
        for off in 0..ctx.window() {
            let cycle = base + u64::from(off);
            if cycle.is_multiple_of(self.period) {
                ctx.push_output(0, off, cycle);
                self.sent += 1;
            }
        }
    }
    fn as_checkpoint(&mut self) -> Option<&mut dyn Checkpoint> {
        Some(self)
    }
}

impl Checkpoint for Pulser {
    fn save_state(&self, w: &mut SnapshotWriter) -> SimResult<()> {
        w.put_u64(self.sent);
        w.put(&self.received);
        Ok(())
    }
    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> SimResult<()> {
        self.sent = r.get_u64()?;
        self.received = r.get()?;
        Ok(())
    }
}

/// Two pulsers with periods `periods` in a ring of `latency`-cycle links.
fn pulser_ring(window: u32, periods: [u64; 2], latency: u64) -> Engine<u64> {
    let mut engine = Engine::new(window);
    let a = engine.add_agent(Box::new(Pulser::new(periods[0])));
    let b = engine.add_agent(Box::new(Pulser::new(periods[1])));
    engine.connect(a, 0, b, 0, Cycle::new(latency)).unwrap();
    engine.connect(b, 0, a, 0, Cycle::new(latency)).unwrap();
    engine
}

#[test]
fn two_agents_ring_latency() {
    let mut engine = pulser_ring(8, [16, 16], 8);
    let summary = engine.run_for(Cycle::new(64)).unwrap();
    assert_eq!(summary.cycles, Cycle::new(64));
    // Tokens sent at cycles 0, 16, 32, 48 arrive 8 cycles later.
    // (Pull results out by rebuilding — engine owns agents; we use a
    // second engine run pattern in integration tests. Here just check
    // the run completed and advanced time.)
    assert_eq!(engine.now(), Cycle::new(64));
}

/// Echo agent used to observe arrival times through shared state.
struct Probe {
    arrivals: std::sync::Arc<parking_lot::Mutex<Vec<u64>>>,
}

impl SimAgent for Probe {
    type Token = u64;
    fn name(&self) -> &str {
        "probe"
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        0
    }
    fn advance(&mut self, ctx: &mut AgentCtx<u64>) {
        let base = ctx.now().as_u64();
        let mut arr = self.arrivals.lock();
        for (off, _v) in ctx.drain_input(0) {
            arr.push(base + u64::from(off));
        }
    }
}

struct OneShot {
    at: u64,
    fired: bool,
}

impl SimAgent for OneShot {
    type Token = u64;
    fn name(&self) -> &str {
        "oneshot"
    }
    fn num_inputs(&self) -> usize {
        0
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn advance(&mut self, ctx: &mut AgentCtx<u64>) {
        let base = ctx.now().as_u64();
        if !self.fired && self.at >= base && self.at < base + u64::from(ctx.window()) {
            ctx.push_output(0, (self.at - base) as u32, self.at);
            self.fired = true;
        }
    }
    fn done(&self) -> bool {
        self.fired
    }
}

/// Adds a one-shot firing at cycle `at` and a probe `latency` cycles
/// downstream of it; returns the probe's arrival cycles.
fn shot_into_probe(
    engine: &mut Engine<u64>,
    at: u64,
    latency: u64,
) -> Arc<parking_lot::Mutex<Vec<u64>>> {
    let arrivals = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let s = engine.add_agent(Box::new(OneShot { at, fired: false }));
    let p = engine.add_agent(Box::new(Probe {
        arrivals: Arc::clone(&arrivals),
    }));
    engine.connect(s, 0, p, 0, Cycle::new(latency)).unwrap();
    arrivals
}

/// A one-input test agent whose round is a closure of the window's start
/// cycle, run after the input is drained. `done` is what it reports.
struct Scripted<F> {
    name: &'static str,
    outputs: usize,
    done: bool,
    step: F,
}

impl<F: FnMut(Cycle) + Send> SimAgent for Scripted<F> {
    type Token = u64;
    fn name(&self) -> &str {
        self.name
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        self.outputs
    }
    fn advance(&mut self, ctx: &mut AgentCtx<u64>) {
        ctx.drain_input(0).for_each(drop);
        (self.step)(ctx.now());
    }
    fn done(&self) -> bool {
        self.done
    }
}

/// A one-in, one-out [`Scripted`] agent that is never done.
fn scripted<F: FnMut(Cycle) + Send + 'static>(name: &'static str, step: F) -> Box<Scripted<F>> {
    Box::new(Scripted {
        name,
        outputs: 1,
        done: false,
        step,
    })
}

#[test]
fn token_arrives_exactly_latency_later() {
    for latency in [8u64, 16, 64] {
        let mut engine = Engine::new(8);
        let arrivals = shot_into_probe(&mut engine, 13, latency);
        engine.run_for(Cycle::new(256)).unwrap();
        assert_eq!(*arrivals.lock(), vec![13 + latency], "latency {latency}");
    }
}

/// Arrivals at a probe 12 cycles downstream of a one-shot, beside a
/// pulser ring that gives the partitioner something to split. `weights`
/// go to the one-shot, the probe and the two pulsers.
fn probe_arrivals(threads: usize, chunk_rounds: u64, weights: Option<[u64; 4]>) -> Vec<u64> {
    let mut engine = Engine::new(4);
    engine
        .set_host_threads(threads)
        .set_host_oversubscribe(true)
        .set_chunk_rounds(chunk_rounds);
    let arrivals = shot_into_probe(&mut engine, 7, 12);
    let a = engine.add_agent(Box::new(Pulser::new(8)));
    let b = engine.add_agent(Box::new(Pulser::new(8)));
    let ids: Vec<_> = engine.agent_ids().collect();
    for (id, w) in ids.into_iter().zip(weights.into_iter().flatten()) {
        engine.set_agent_weight(id, w);
    }
    engine.connect(a, 0, b, 0, Cycle::new(4)).unwrap();
    engine.connect(b, 0, a, 0, Cycle::new(8)).unwrap();
    engine.run_for(Cycle::new(128)).unwrap();
    let v = arrivals.lock().clone();
    v
}

/// One worker and two to four workers produce the same arrivals.
#[test]
fn one_worker_matches_two_to_four() {
    let one = probe_arrivals(1, 16, None);
    for threads in 2..=4 {
        assert_eq!(probe_arrivals(threads, 16, None), one, "threads {threads}");
    }
}

#[test]
fn one_worker_matches_two_to_four_with_adversarial_weights() {
    // Weights only steer the partitioner; results must not move. Two-round
    // chunks make several chunk boundaries fall inside the run.
    let baseline = probe_arrivals(1, 2, Some([1, 1, 1, 1]));
    for weights in [
        [1u64, 1, 1, 1],
        [u64::MAX, 1, 1, 1],
        [1, u64::MAX, u64::MAX, 1],
        [0, 0, 0, 0],
        [7, 3, 100, 1],
    ] {
        for threads in 2..=4 {
            let got = probe_arrivals(threads, 2, Some(weights));
            assert_eq!(got, baseline, "{threads} {weights:?}");
        }
    }
}

/// What single-thread speed rests on: a one-worker run steps every agent
/// on the calling thread and spawns nothing. With two workers, worker 0 is
/// still the calling thread and the other one is not.
#[test]
fn one_worker_steps_every_agent_on_the_calling_thread() {
    let stepping_threads = |threads: usize| {
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut engine = Engine::new(4);
        engine
            .set_host_threads(threads)
            .set_host_oversubscribe(true);
        let spy = || {
            let seen = Arc::clone(&seen);
            scripted("spy", move |_| {
                seen.lock().push(std::thread::current().id())
            })
        };
        let (a, b) = (engine.add_agent(spy()), engine.add_agent(spy()));
        engine.connect(a, 0, b, 0, Cycle::new(4)).unwrap();
        engine.connect(b, 0, a, 0, Cycle::new(4)).unwrap();
        engine.run_until_done(Cycle::new(64)).unwrap();
        let seen = seen.lock().clone();
        seen
    };
    let caller = std::thread::current().id();
    let one = stepping_threads(1);
    assert_eq!(one.len(), 2 * 16);
    assert!(one.iter().all(|&t| t == caller));
    let two = stepping_threads(2);
    assert!(two.contains(&caller));
    assert!(two.iter().any(|&t| t != caller));
}

#[test]
fn lpt_balances_and_is_deterministic() {
    // One heavy agent and many light ones: the heavy one gets a
    // worker mostly to itself.
    let costs = [1000u64, 10, 10, 10, 10, 10, 10, 10];
    let a = lpt_partition(&costs, 2);
    assert_eq!(a, lpt_partition(&costs, 2), "deterministic");
    let heavy_worker = a[0];
    let peers = (1..8).filter(|&i| a[i] == heavy_worker).count();
    assert_eq!(peers, 0, "light agents avoid the heavy worker: {a:?}");
    // Everything lands on a valid worker and no worker is empty.
    for threads in 1..=4 {
        let a = lpt_partition(&costs, threads);
        assert!(a.iter().all(|&w| w < threads));
        for w in 0..threads {
            assert!(a.contains(&w), "worker {w} empty: {a:?}");
        }
    }
}

#[test]
fn run_until_done_stops_early() {
    let mut engine = Engine::new(4);
    engine.set_chunk_rounds(2);
    let arrivals = shot_into_probe(&mut engine, 3, 4);
    // Probe is never "done"... it has no done override, defaults false.
    // So run_until_done will run to max. Use a short max.
    let summary = engine.run_until_done(Cycle::new(40)).unwrap();
    assert!(summary.cycles <= Cycle::new(40));
    assert_eq!(*arrivals.lock(), vec![7]);
}

#[test]
fn parallel_reports_min_rounds_across_workers() {
    // All-done termination at a chunk boundary: every worker agrees on
    // the same boundary, and the reported cycle count must reflect the
    // minimum rounds completed by ANY worker (not worker 0's view).
    let mut engine = Engine::new(4);
    engine
        .set_host_threads(4)
        .set_host_oversubscribe(true)
        .set_chunk_rounds(2);
    let done = || {
        Box::new(Scripted {
            name: "done",
            outputs: 1,
            done: true,
            step: |_| {},
        })
    };
    let ids: Vec<AgentId> = (0..4).map(|_| engine.add_agent(done())).collect();
    for i in 0..4 {
        engine
            .connect(ids[i], 0, ids[(i + 1) % 4], 0, Cycle::new(4))
            .unwrap();
    }
    let summary = engine.run_until_done(Cycle::new(4000)).unwrap();
    // All agents are done from the start; the run ends at the first
    // chunk boundary (2 rounds = 8 cycles) on every worker.
    assert_eq!(summary.cycles, Cycle::new(8));
    assert_eq!(engine.now(), Cycle::new(8));
}

#[test]
fn unconnected_port_is_error() {
    let mut engine: Engine<u64> = Engine::new(4);
    let _ = engine.add_agent(Box::new(Pulser::new(4)));
    assert!(matches!(
        engine.run_for(Cycle::new(4)),
        Err(SimError::Topology { .. })
    ));
}

#[test]
fn double_connect_is_error() {
    let mut engine: Engine<u64> = Engine::new(4);
    let a = engine.add_agent(Box::new(Pulser::new(4)));
    let b = engine.add_agent(Box::new(Pulser::new(4)));
    engine.connect(a, 0, b, 0, Cycle::new(4)).unwrap();
    assert!(matches!(
        engine.connect(a, 0, b, 0, Cycle::new(4)),
        Err(SimError::Topology { .. })
    ));
}

#[test]
fn bad_latency_is_error() {
    let mut engine: Engine<u64> = Engine::new(8);
    let a = engine.add_agent(Box::new(Pulser::new(4)));
    let b = engine.add_agent(Box::new(Pulser::new(4)));
    assert!(matches!(
        engine.connect(a, 0, b, 0, Cycle::new(12)),
        Err(SimError::BadLatency { .. })
    ));
}

#[test]
fn stop_handle_stops_at_boundary() {
    let mut engine = pulser_ring(4, [4, 4], 4);
    engine.set_chunk_rounds(1);
    let handle = engine.stop_handle();
    handle.stop();
    // Stop is reset at run start; set it again from a thread during run.
    // Simplest deterministic check: request before run after reset is
    // not observable, so instead verify run_until_done with all-done.
    let summary = engine.run_until_done(Cycle::new(400)).unwrap();
    assert!(summary.cycles <= Cycle::new(400));
}

#[test]
fn run_for_rounds_up_to_window() {
    let mut engine = pulser_ring(8, [4, 4], 8);
    let summary = engine.run_for(Cycle::new(10)).unwrap();
    assert_eq!(summary.cycles, Cycle::new(16));
}

#[test]
fn panicking_agent_does_not_deadlock_peers() {
    let mut engine = Engine::new(4);
    engine
        .set_host_threads(3)
        .set_host_oversubscribe(true)
        .set_chunk_rounds(4);
    let bomb = engine.add_agent(scripted("bomb", |now| {
        if now.as_u64() >= 32 {
            panic!("boom at {}", now.as_u64());
        }
    }));
    let a = engine.add_agent(Box::new(Pulser::new(4)));
    let b = engine.add_agent(Box::new(Pulser::new(4)));
    engine.connect(bomb, 0, a, 0, Cycle::new(4)).unwrap();
    engine.connect(a, 0, bomb, 0, Cycle::new(4)).unwrap();
    // a<->b ring keeps a third worker busy.
    engine.connect(b, 0, b, 0, Cycle::new(4)).unwrap();
    // The panic surfaces as a typed error naming the culprit and its
    // cycle (rather than hanging the test forever or blaming a peer
    // whose channel merely closed).
    match engine.run_for(Cycle::new(4000)) {
        Err(SimError::AgentPanicked {
            agent,
            cycle,
            message,
        }) => {
            assert_eq!(agent, "bomb");
            assert_eq!(cycle, 32);
            assert!(message.contains("boom at 32"), "message: {message}");
        }
        other => panic!("expected AgentPanicked, got {other:?}"),
    }
}

/// A two-pulser ring whose agents support checkpointing.
fn checkpointable_ring() -> Engine<u64> {
    pulser_ring(4, [4, 6], 8)
}

#[test]
fn checkpoint_restore_resumes_bit_identically() {
    // Reference: run straight to cycle 96 and snapshot.
    let mut straight = checkpointable_ring();
    straight.run_for(Cycle::new(96)).unwrap();
    let want = straight.checkpoint().unwrap().to_bytes();

    // Run to 64, checkpoint, restore into a *fresh* engine, run on.
    let mut first = checkpointable_ring();
    first.run_for(Cycle::new(64)).unwrap();
    let cp = first.checkpoint().unwrap();
    assert_eq!(cp.now(), Cycle::new(64));

    let mut resumed = checkpointable_ring();
    resumed.restore(&cp).unwrap();
    assert_eq!(resumed.now(), Cycle::new(64));
    resumed.run_for(Cycle::new(32)).unwrap();
    let got = resumed.checkpoint().unwrap().to_bytes();
    assert_eq!(got, want, "resumed state must be bit-identical");
}

#[test]
fn checkpoint_bytes_and_file_round_trip() {
    let mut engine = checkpointable_ring();
    engine.run_for(Cycle::new(32)).unwrap();
    let cp = engine.checkpoint().unwrap();
    let bytes = cp.to_bytes();

    let back = EngineCheckpoint::<u64>::from_bytes(&bytes).unwrap();
    assert_eq!(back.to_bytes(), bytes);
    assert_eq!(back.now(), cp.now());
    assert_eq!(back.window(), cp.window());
    assert!(matches!(
        EngineCheckpoint::<u64>::from_bytes(b"\x08\x00\x00\x00\x00\x00\x00\x00NOTACKPT"),
        Err(SimError::Checkpoint { .. })
    ));

    let path = std::env::temp_dir().join(format!("fsckpt-test-{}.ckpt", std::process::id()));
    cp.save_to(&path).unwrap();
    let loaded = EngineCheckpoint::<u64>::load_from(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(loaded.to_bytes(), bytes);

    let mut fresh = checkpointable_ring();
    fresh.restore(&loaded).unwrap();
    assert_eq!(fresh.now(), Cycle::new(32));
}

#[test]
fn restore_rejects_mismatched_topology() {
    let mut engine = checkpointable_ring();
    engine.run_for(Cycle::new(32)).unwrap();
    let cp = engine.checkpoint().unwrap();

    // Wrong window.
    let mut other = pulser_ring(8, [4, 6], 8);
    assert!(matches!(
        other.restore(&cp),
        Err(SimError::Checkpoint { .. })
    ));

    // Wrong agent count.
    let mut small: Engine<u64> = Engine::new(4);
    let s = small.add_agent(Box::new(Pulser::new(4)));
    small.connect(s, 0, s, 0, Cycle::new(8)).unwrap();
    assert!(matches!(
        small.restore(&cp),
        Err(SimError::Checkpoint { .. })
    ));
}

#[test]
fn merge_rejects_empty_skewed_and_duplicate_parts() {
    assert!(matches!(
        EngineCheckpoint::<u64>::merge(Vec::new()),
        Err(SimError::Checkpoint { .. })
    ));

    // Parts from different run points cannot be one checkpoint.
    let mut a = checkpointable_ring();
    a.run_for(Cycle::new(32)).unwrap();
    let early = a.checkpoint().unwrap();
    a.run_for(Cycle::new(32)).unwrap();
    let late = a.checkpoint().unwrap();
    assert!(matches!(
        EngineCheckpoint::merge(vec![early, late]),
        Err(SimError::Checkpoint { .. })
    ));

    // The same agent in two parts is a sharding bug, not a merge.
    let cp1 = a.checkpoint().unwrap();
    let cp2 = a.checkpoint().unwrap();
    let err = EngineCheckpoint::merge(vec![cp1, cp2]).unwrap_err();
    assert!(
        err.to_string().contains("more than one shard"),
        "duplicate agent must be named: {err}"
    );
}

#[test]
fn restore_by_name_rejects_window_and_name_mismatch() {
    let mut engine = checkpointable_ring();
    engine.run_for(Cycle::new(32)).unwrap();
    let cp = engine.checkpoint().unwrap();

    // Wrong window.
    let mut wide: Engine<u64> = Engine::new(8);
    let a = wide.add_agent(Box::new(Pulser::new(4)));
    wide.connect(a, 0, a, 0, Cycle::new(8)).unwrap();
    assert!(matches!(
        wide.restore_by_name(&cp),
        Err(SimError::Checkpoint { .. })
    ));

    // Engine agent absent from the checkpoint.
    let mut other: Engine<u64> = Engine::new(4);
    shot_into_probe(&mut other, 0, 8);
    let err = other.restore_by_name(&cp).unwrap_err();
    assert!(
        err.to_string().contains("no agent named"),
        "missing agent must be named: {err}"
    );
}

#[test]
fn injected_panic_surfaces_as_agent_panicked() {
    for threads in [1usize, 2] {
        let mut engine = checkpointable_ring();
        engine
            .set_host_threads(threads)
            .set_host_oversubscribe(true)
            .set_chunk_rounds(2);
        let mut plan = FaultPlan::new(9);
        plan.panic_at(1usize, 30);
        engine.set_fault_plan(plan);
        match engine.run_for(Cycle::new(4000)) {
            Err(SimError::AgentPanicked {
                agent,
                cycle,
                message,
            }) => {
                assert_eq!(agent, "pulser", "threads {threads}");
                // Window 4: cycle 30 falls in the window starting at 28.
                assert_eq!(cycle, 28, "threads {threads}");
                assert!(message.contains("injected panic"), "message: {message}");
            }
            other => panic!("threads {threads}: expected AgentPanicked, got {other:?}"),
        }
        let records = engine.fault_records();
        assert_eq!(records.len(), 1, "threads {threads}");
        assert_eq!(records[0].agent, "pulser");
        assert_eq!(records[0].cycle, 28);
    }
}

#[test]
fn injected_channel_drop_names_the_agent() {
    for threads in [1usize, 2] {
        let mut engine = checkpointable_ring();
        engine
            .set_host_threads(threads)
            .set_host_oversubscribe(true)
            .set_chunk_rounds(2);
        let mut plan = FaultPlan::new(11);
        plan.drop_channel(0usize, 0, 16);
        engine.set_fault_plan(plan);
        match engine.run_for(Cycle::new(4000)) {
            Err(SimError::Agent { agent, detail }) => {
                assert_eq!(agent, "pulser", "threads {threads}");
                assert!(detail.contains("channel drop"), "detail: {detail}");
            }
            other => panic!("threads {threads}: expected Agent error, got {other:?}"),
        }
        assert_eq!(engine.fault_records().len(), 1, "threads {threads}");
    }
}

#[test]
fn link_down_fault_suppresses_arrivals_deterministically() {
    let run = |fault: bool| {
        let arrivals = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut engine = Engine::new(8);
        let feeder = engine.add_agent(Box::new(OneShot {
            at: 3,
            fired: false,
        }));
        let s = engine.add_agent(Box::new(Pulser::new(16)));
        let p = engine.add_agent(Box::new(Probe {
            arrivals: arrivals.clone(),
        }));
        engine.connect(feeder, 0, s, 0, Cycle::new(8)).unwrap();
        engine.connect(s, 0, p, 0, Cycle::new(8)).unwrap();
        if fault {
            let mut plan = FaultPlan::new(3);
            // Probe's input is dead for cycles [30, 60): the sends at
            // 32 and 48 (arriving 40 and 56) are suppressed.
            plan.link_down("probe", 0, 30, 60);
            engine.set_fault_plan(plan);
        }
        engine.run_for(Cycle::new(128)).unwrap();
        let v = arrivals.lock().clone();
        v
    };
    let clean = run(false);
    assert_eq!(clean, vec![8, 24, 40, 56, 72, 88, 104, 120]);
    let faulty = run(true);
    assert_eq!(faulty, vec![8, 24, 72, 88, 104, 120]);
    // Deterministic replay: same plan, same suppression.
    assert_eq!(run(true), faulty);
}

#[test]
fn abort_handle_surfaces_aborted_error() {
    for threads in [1usize, 3] {
        let mut engine: Engine<u64> = Engine::new(4);
        engine
            .set_host_threads(threads)
            .set_host_oversubscribe(true)
            .set_chunk_rounds(2);
        let a = engine.add_agent(Box::new(Pulser::new(4)));
        let b = engine.add_agent(Box::new(Pulser::new(4)));
        let c = engine.add_agent(Box::new(Pulser::new(4)));
        engine.connect(a, 0, b, 0, Cycle::new(4)).unwrap();
        engine.connect(b, 0, a, 0, Cycle::new(4)).unwrap();
        engine.connect(c, 0, c, 0, Cycle::new(4)).unwrap();
        let handle = engine.abort_handle();
        let probe = engine.progress_probe();
        let watchdog = std::thread::spawn(move || {
            // Wait until the run is demonstrably underway, then abort.
            while probe.total_steps() < 12 {
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
            handle.abort("watchdog says stop");
        });
        let result = engine.run_for(Cycle::new(1_000_000));
        watchdog.join().unwrap();
        match result {
            Err(SimError::Aborted { reason }) => {
                assert_eq!(reason, "watchdog says stop", "threads {threads}")
            }
            other => panic!("threads {threads}: expected Aborted, got {other:?}"),
        }
    }
}

#[test]
fn progress_probe_counts_agent_windows() {
    let mut engine = checkpointable_ring();
    let probe = engine.progress_probe();
    assert_eq!(probe.total_steps(), 0);
    engine.run_for(Cycle::new(64)).unwrap();
    // 16 rounds x 2 agents.
    assert_eq!(probe.total_steps(), 32);
    let (name, steps) = probe.slowest_agent().unwrap();
    assert_eq!(name, "pulser");
    assert_eq!(steps, 16);
}

#[test]
fn worker_stall_fault_delays_but_completes() {
    let mut engine = checkpointable_ring();
    let mut plan = FaultPlan::new(5);
    plan.stall_worker(0usize, 8, 20);
    engine.set_fault_plan(plan);
    let summary = engine.run_for(Cycle::new(64)).unwrap();
    assert_eq!(summary.cycles, Cycle::new(64));
    assert!(
        summary.wall >= std::time::Duration::from_millis(15),
        "stall must actually delay the run: {:?}",
        summary.wall
    );
    let records = engine.fault_records();
    assert_eq!(records.len(), 1);
    assert!(records[0].description.contains("worker stall"));
    // One-shot: a second run does not stall again.
    let again = engine.run_for(Cycle::new(64)).unwrap();
    assert!(again.wall < std::time::Duration::from_millis(15));
    assert_eq!(engine.fault_records().len(), 1);
}

/// Ground truth for the profiling pipeline: a Pulser with period 16 on
/// a window-8, latency-8 ring emits exactly one token per 16 cycles, so
/// every field of the profile is analytically known.
#[test]
fn metrics_profile_matches_ground_truth() {
    let mut engine = pulser_ring(8, [16, 16], 8);
    let reg = engine.enable_metrics();
    engine.run_for(Cycle::new(64)).unwrap();
    for id in engine.agent_ids() {
        let p = engine.agent_profile(id);
        assert_eq!(p.rounds, 8);
        assert_eq!(p.target_cycles, 64);
        assert_eq!(p.windows_in, 8);
        assert_eq!(p.windows_out, 8);
        // Sent at cycles 0, 16, 32, 48; peer's arrive 8 cycles later —
        // all four within the 64 simulated cycles.
        assert_eq!(p.tokens_out, 4);
        assert_eq!(p.tokens_in, 4);
    }
    // 8 rounds x 2 agents.
    assert_eq!(reg.counter_value("engine/agent_steps"), Some(16));
}

#[test]
fn profiles_stay_zero_when_metrics_disabled() {
    let mut engine = checkpointable_ring();
    engine.run_for(Cycle::new(64)).unwrap();
    for (_, p) in engine.agent_profiles() {
        assert_eq!(p, AgentProfile::default());
    }
    assert!(engine.metrics().is_none());
    assert!(engine.tracer().is_none());
}

#[test]
fn aggregated_metrics_identical_across_thread_counts() {
    let run = |threads: usize| {
        let mut engine: Engine<u64> = Engine::new(4);
        engine
            .set_host_threads(threads)
            .set_host_oversubscribe(true)
            .set_chunk_rounds(2);
        let a = engine.add_agent(Box::new(Pulser::new(4)));
        let b = engine.add_agent(Box::new(Pulser::new(6)));
        let c = engine.add_agent(Box::new(Pulser::new(8)));
        engine.connect(a, 0, b, 0, Cycle::new(8)).unwrap();
        engine.connect(b, 0, c, 0, Cycle::new(8)).unwrap();
        engine.connect(c, 0, a, 0, Cycle::new(8)).unwrap();
        let reg = engine.enable_metrics();
        engine.run_for(Cycle::new(96)).unwrap();
        let steps = reg.counter_value("engine/agent_steps");
        let profiles: Vec<_> = engine
            .agent_profiles()
            .into_iter()
            .map(|(name, p)| {
                // host_ns is host-dependent by definition; everything
                // else must be bit-identical.
                (
                    name,
                    p.rounds,
                    p.target_cycles,
                    p.windows_in,
                    p.windows_out,
                    p.tokens_in,
                    p.tokens_out,
                )
            })
            .collect();
        (steps, profiles)
    };
    let baseline = run(1);
    for threads in [2usize, 3] {
        assert_eq!(run(threads), baseline, "threads {threads}");
    }
}

#[test]
fn link_occupancies_satisfy_latency_invariant() {
    let mut engine: Engine<u64> = Engine::new(4);
    let a = engine.add_agent(Box::new(Pulser::new(4)));
    let b = engine.add_agent(Box::new(Pulser::new(6)));
    engine.connect(a, 0, b, 0, Cycle::new(12)).unwrap();
    engine.connect(b, 0, a, 0, Cycle::new(8)).unwrap();
    // Holds before the first run (links are seeded full)...
    engine.verify_token_invariant().unwrap();
    engine.run_for(Cycle::new(64)).unwrap();
    // ...and at every quiescent boundary after.
    engine.verify_token_invariant().unwrap();
    let occ = engine.link_occupancies();
    assert_eq!(occ.len(), 2);
    for link in &occ {
        assert_eq!(
            link.in_flight_tokens, link.latency,
            "latency-{} link must hold exactly that many tokens: {link:?}",
            link.latency
        );
    }
    assert_eq!(occ[0].latency, 8); // agent a's input is the b->a link
    assert_eq!(occ[1].latency, 12);
}

#[test]
fn tracing_captures_agent_and_sync_spans() {
    let mut engine = checkpointable_ring();
    engine
        .set_host_threads(2)
        .set_host_oversubscribe(true)
        .set_chunk_rounds(2);
    let tracer = engine.enable_tracing();
    // run_until_done votes at every chunk boundary, so barrier spans
    // appear even without a repartition.
    engine.run_until_done(Cycle::new(64)).unwrap();
    // 16 agent-step spans plus at least one barrier span per chunk.
    assert!(tracer.len() >= 16, "got {} spans", tracer.len());
    let json = tracer.export_chrome_trace();
    let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    let events = v.get("traceEvents").unwrap().as_array().unwrap();
    let cats: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("cat").and_then(|c| c.as_str()))
        .collect();
    assert!(cats.contains(&"agent"));
    assert!(cats.contains(&"sync"));
}

/// Drives `out -> inp` like a `manager::partition` transport pump, but
/// in-process: the degenerate "transport" is a direct hand-off. Counts
/// the windows it has delivered into `delivered`.
fn pump(
    out: BoundaryOutput<u64>,
    inp: BoundaryInput<u64>,
    halt: Arc<AtomicBool>,
    delivered: Arc<AtomicU64>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        while let Ok(Some(w)) = out.drain_or_halt(&halt) {
            if !matches!(inp.inject_or_halt(w, &halt), Ok(None)) {
                break;
            }
            delivered.fetch_add(1, Ordering::Release);
        }
    })
}

/// A two-agent ring split across two engines connected by boundary
/// ports produces bit-identical checkpoints to the monolithic ring —
/// the §III-B2 partitioning invariant at its smallest scale.
#[test]
fn boundary_ports_match_monolithic_ring() {
    let run_monolithic = |cycles: u64| {
        let mut engine = pulser_ring(8, [16, 24], 8);
        engine.run_for(Cycle::new(cycles)).unwrap();
        engine.checkpoint().unwrap().agent_digests()
    };

    let run_split = || {
        let mut e0: Engine<u64> = Engine::new(8);
        let mut e1: Engine<u64> = Engine::new(8);
        let a = e0.add_agent(Box::new(Pulser::new(16)));
        let b = e1.add_agent(Box::new(Pulser::new(24)));
        let out_a = e0.connect_external_output(a, 0, Cycle::new(8)).unwrap();
        let in_b = e1.connect_external_input(b, 0, Cycle::new(8)).unwrap();
        let out_b = e1.connect_external_output(b, 0, Cycle::new(8)).unwrap();
        let in_a = e0.connect_external_input(a, 0, Cycle::new(8)).unwrap();

        let halt = Arc::new(AtomicBool::new(false));
        let pumps = [
            pump(out_a, in_b, Arc::clone(&halt), Arc::default()),
            pump(out_b, in_a, Arc::clone(&halt), Arc::default()),
        ];
        let t1 = std::thread::spawn(move || {
            e1.run_for(Cycle::new(64)).unwrap();
            e1.checkpoint().unwrap().agent_digests()
        });
        e0.run_for(Cycle::new(64)).unwrap();
        let mut digests = e0.checkpoint().unwrap().agent_digests();
        digests.extend(t1.join().unwrap());
        halt.store(true, Ordering::Release);
        for p in pumps {
            p.join().unwrap();
        }
        digests
    };

    let mono = run_monolithic(64);
    let split = run_split();
    assert_eq!(mono, split);
    assert_eq!(combined_digest(&mono), combined_digest(&split));
    // And the digest is actually sensitive to state: a different run
    // length must differ.
    let longer = run_monolithic(128);
    assert_ne!(combined_digest(&mono), combined_digest(&longer));
}

/// A peer shard already a window into its next run has injected that
/// window when this shard's run ends. The quiesce wait accepts the
/// surplus, so the end-of-run invariant check (always on in debug builds)
/// must accept it too — and the next run consumes it.
#[test]
fn boundary_input_ahead_by_a_leg_is_quiescent() {
    /// Rounds per run ("leg").
    const LEG: u64 = 8;

    let delivered = Arc::new(AtomicU64::new(0));
    let mut slow: Engine<u64> = Engine::new(8);
    let mut peer: Engine<u64> = Engine::new(8);
    // In the last round of the first leg the sink waits for the peer's
    // first window of the second leg, so that window is in flight when the
    // leg ends.
    let seen = Arc::clone(&delivered);
    let sink = slow.add_agent(Box::new(Scripted {
        name: "laggard",
        outputs: 0,
        done: false,
        step: move |now| {
            if now == Cycle::new((LEG - 1) * 8) {
                while seen.load(Ordering::Acquire) <= LEG {
                    std::thread::yield_now();
                }
            }
        },
    }));
    let source = peer.add_agent(Box::new(OneShot {
        at: 3,
        fired: false,
    }));
    let inp = slow.connect_external_input(sink, 0, Cycle::new(8)).unwrap();
    let out = peer
        .connect_external_output(source, 0, Cycle::new(8))
        .unwrap();
    let halt = Arc::new(AtomicBool::new(false));
    let pumped = pump(out, inp, Arc::clone(&halt), Arc::clone(&delivered));
    let ahead = std::thread::spawn(move || {
        for _ in 0..2 {
            peer.run_for(Cycle::new(LEG * 8)).unwrap();
        }
    });

    slow.run_for(Cycle::new(LEG * 8)).unwrap();
    assert_eq!(slow.link_occupancies()[0].in_flight_tokens, 16);
    slow.verify_token_invariant().unwrap();
    slow.run_for(Cycle::new(LEG * 8)).unwrap();
    ahead.join().unwrap();
    assert_eq!(slow.link_occupancies()[0].in_flight_tokens, 8);
    halt.store(true, Ordering::Release);
    pumped.join().unwrap();
}

/// The seed windows of an external *output* are drained at creation:
/// the first window a pump sees is the first one the agent produced.
#[test]
fn external_output_starts_empty() {
    let mut engine: Engine<u64> = Engine::new(8);
    let a = engine.add_agent(Box::new(Pulser::new(16)));
    let out = engine
        .connect_external_output(a, 0, Cycle::new(24))
        .unwrap();
    let halt = AtomicBool::new(true);
    assert!(out.drain_or_halt(&halt).unwrap().is_none());
    assert_eq!(out.latency(), Cycle::new(24));
    assert_eq!(out.agent(), "pulser");
}

/// An external input seeds `latency / window` empty windows, exactly
/// like a monolithic link: the paper's latency-N invariant holds at
/// cycle zero.
#[test]
fn external_input_is_seeded() {
    let mut engine: Engine<u64> = Engine::new(8);
    let a = engine.add_agent(Box::new(Pulser::new(16)));
    let inp = engine.connect_external_input(a, 0, Cycle::new(16)).unwrap();
    assert_eq!(inp.latency(), Cycle::new(16));
    assert_eq!(inp.port(), 0);
    let occ = engine.link_occupancies();
    assert_eq!(occ.len(), 1);
    assert_eq!(occ[0].in_flight_tokens, 16);
    engine.verify_token_invariant().unwrap();
    // Double connection is rejected like Engine::connect.
    assert!(engine.connect_external_input(a, 0, Cycle::new(16)).is_err());
}

/// Restoring after the peer shard has fed a boundary input would
/// silently discard the peer's window (ROADMAP item 1's lost window:
/// the run then ends in "did not quiesce: 0 of 1 windows in flight");
/// the engine refuses the restore instead.
#[test]
fn restore_refuses_a_boundary_input_its_peer_already_fed() {
    let mut engine: Engine<u64> = Engine::new(8);
    let a = engine.add_agent(Box::new(Pulser::new(16)));
    let inp = engine.connect_external_input(a, 0, Cycle::new(8)).unwrap();
    let _out = engine.connect_external_output(a, 0, Cycle::new(8)).unwrap();
    let cp = engine.checkpoint().unwrap();
    engine.restore_by_name(&cp).unwrap();

    let halt = AtomicBool::new(false);
    assert!(inp
        .inject_or_halt(TokenWindow::new(8), &halt)
        .unwrap()
        .is_none());
    for result in [engine.restore_by_name(&cp), engine.restore(&cp)] {
        let err = result.unwrap_err();
        assert!(matches!(err, SimError::Checkpoint { .. }), "{err}");
        assert!(err.to_string().contains("restore every shard"), "{err}");
    }
    // Nothing was discarded: the seed and the peer's window are there.
    assert_eq!(engine.link_occupancies()[0].in_flight_tokens, 16);
}

/// Runs a 64-agent ring of idle agents for 1 000 rounds and returns every
/// link's `(parks, wakes_issued)`: every host cycle spent stepping an idle
/// agent is hand-off cost.
fn idle_ring_wake_counts(threads: usize) -> Vec<(u64, u64)> {
    let mut engine: Engine<u64> = Engine::new(8);
    let ids: Vec<_> = (0..64)
        .map(|_| engine.add_agent(scripted("idle", |_| {})))
        .collect();
    for (i, &src) in ids.iter().enumerate() {
        let dst = ids[(i + 1) % ids.len()];
        engine.connect(src, 0, dst, 0, Cycle::new(8)).unwrap();
    }
    engine
        .set_host_threads(threads)
        .set_host_oversubscribe(true);
    engine.run_for(Cycle::new(8 * 1000)).unwrap();
    engine
        .agents
        .iter()
        .flat_map(|slot| slot.inputs.iter().flatten())
        .map(|rx| (rx.parks(), rx.wakes_issued()))
        .collect()
}

/// The syscall-free claim as a count: on one thread no link's peer is
/// ever asleep, so no link ever issues a wake.
#[test]
fn one_thread_ring_issues_no_wakes() {
    let counts = idle_ring_wake_counts(1);
    assert_eq!(counts.len(), 64);
    assert!(counts.iter().all(|&c| c == (0, 0)), "{counts:?}");
}

/// Across threads a wake is issued only to a waiter that parked, and at
/// most once per park.
#[test]
fn two_thread_ring_wakes_only_parked_waiters() {
    let counts = idle_ring_wake_counts(2);
    assert_eq!(counts.len(), 64);
    for (link, &(parks, wakes)) in counts.iter().enumerate() {
        assert!(wakes <= parks, "link {link}: {wakes} wakes, {parks} parks");
    }
}

#[test]
fn tracing_does_not_change_results() {
    let run = |trace: bool| {
        let mut engine = Engine::new(4);
        let arrivals = shot_into_probe(&mut engine, 7, 12);
        if trace {
            engine.enable_tracing();
            engine.enable_metrics();
        }
        engine.run_for(Cycle::new(128)).unwrap();
        let v = arrivals.lock().clone();
        v
    };
    assert_eq!(run(false), run(true));
}
