//! Checkpoint/restore correctness: running to cycle `X` straight must be
//! bit-identical to running to `C`, checkpointing, restoring into a fresh
//! engine, and running on to `X` — across (C, X) pairs and host thread
//! counts, through full byte-level serialization.

use proptest::prelude::*;

use firesim_core::{
    AgentCtx, Checkpoint, Cycle, Engine, EngineCheckpoint, FaultPlan, SimAgent, SimError,
    SimResult, SnapshotReader, SnapshotWriter,
};

const WINDOW: u32 = 8;

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A relay whose output traffic depends on its entire input history: any
/// divergence after a restore snowballs into different tokens, so comparing
/// final checkpoints catches even a single-bit state mismatch.
struct ChaosRelay {
    id: u64,
    hash: u64,
    seen: u64,
    backlog: std::collections::VecDeque<u64>,
}

impl ChaosRelay {
    fn new(id: u64) -> Self {
        ChaosRelay {
            id,
            hash: mix(id),
            seen: 0,
            backlog: std::collections::VecDeque::new(),
        }
    }
}

impl SimAgent for ChaosRelay {
    type Token = u64;
    fn name(&self) -> &str {
        "chaos"
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn advance(&mut self, ctx: &mut AgentCtx<u64>) {
        for (off, v) in ctx.drain_input(0) {
            self.hash = mix(self.hash ^ v ^ u64::from(off));
            self.seen += 1;
            if v % 3 == 0 {
                self.backlog.push_back(v);
            }
        }
        let base = ctx.now().as_u64();
        for off in 0..ctx.window() {
            let cycle = base + u64::from(off);
            let roll = mix(self.hash ^ cycle ^ self.id);
            if roll.is_multiple_of(4) {
                let payload = self
                    .backlog
                    .pop_front()
                    .unwrap_or_else(|| mix(roll ^ self.seen));
                ctx.push_output(0, off, payload);
            }
        }
    }
    fn as_checkpoint(&mut self) -> Option<&mut dyn Checkpoint> {
        Some(self)
    }
}

impl Checkpoint for ChaosRelay {
    fn save_state(&self, w: &mut SnapshotWriter) -> SimResult<()> {
        w.put_u64(self.hash);
        w.put_u64(self.seen);
        w.put(&self.backlog);
        Ok(())
    }
    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> SimResult<()> {
        self.hash = r.get_u64()?;
        self.seen = r.get_u64()?;
        self.backlog = r.get()?;
        Ok(())
    }
}

/// Four relays in a ring with mixed latencies.
fn build(threads: usize) -> Engine<u64> {
    let mut engine: Engine<u64> = Engine::new(WINDOW);
    engine
        .set_host_threads(threads)
        .set_host_oversubscribe(true);
    let ids: Vec<_> = (0..4)
        .map(|i| engine.add_agent(Box::new(ChaosRelay::new(i))))
        .collect();
    let latencies = [8u64, 16, 8, 24];
    for i in 0..ids.len() {
        engine
            .connect(
                ids[i],
                0,
                ids[(i + 1) % ids.len()],
                0,
                Cycle::new(latencies[i]),
            )
            .unwrap();
    }
    engine
}

/// Final state of a straight run to `x` cycles.
fn straight(threads: usize, x: u64) -> Vec<u8> {
    let mut engine = build(threads);
    engine.run_for(Cycle::new(x)).unwrap();
    engine.checkpoint().unwrap().to_bytes()
}

/// Final state of run-to-`c`, serialize, restore into a fresh engine
/// (possibly with a different thread count), run on to `x`.
fn resumed(threads_before: usize, threads_after: usize, c: u64, x: u64) -> Vec<u8> {
    let mut engine = build(threads_before);
    engine.run_for(Cycle::new(c)).unwrap();
    let bytes = engine.checkpoint().unwrap().to_bytes();
    let cp = EngineCheckpoint::<u64>::from_bytes(&bytes).unwrap();
    let mut fresh = build(threads_after);
    fresh.restore(&cp).unwrap();
    assert_eq!(fresh.now(), Cycle::new(c));
    fresh.run_for(Cycle::new(x - c)).unwrap();
    fresh.checkpoint().unwrap().to_bytes()
}

/// The acceptance matrix: three (C, X) pairs, each across 1/2/4 workers.
#[test]
fn restore_matches_straight_run_across_pairs_and_threads() {
    for &(c, x) in &[(16u64, 48u64), (64, 128), (128, 360)] {
        for &threads in &[1usize, 2, 4] {
            let want = straight(threads, x);
            let got = resumed(threads, threads, c, x);
            assert_eq!(got, want, "divergence for C={c}, X={x}, threads={threads}");
        }
    }
}

/// Restoring under a different thread count than the one that produced the
/// checkpoint must not matter: determinism is scheduling-independent.
#[test]
fn restore_is_thread_count_independent() {
    let want = straight(1, 96);
    assert_eq!(resumed(1, 4, 32, 96), want);
    assert_eq!(resumed(4, 1, 32, 96), want);
    assert_eq!(resumed(2, 4, 64, 96), want);
}

/// Target-side faults are part of the deterministic target behaviour:
/// checkpointing *inside* a fault window and replaying reproduces the same
/// final state as never stopping.
#[test]
fn restore_replays_target_faults_bit_identically() {
    let plan = || {
        let mut p = FaultPlan::new(77);
        p.link_down(1usize, 0, 40, 90);
        p.link_flaky(3usize, 0, 20, 140, 35);
        p
    };
    let mut engine = build(1);
    engine.set_fault_plan(plan());
    engine.run_for(Cycle::new(160)).unwrap();
    let want = engine.checkpoint().unwrap().to_bytes();

    let mut first = build(2);
    first.set_fault_plan(plan());
    first.run_for(Cycle::new(64)).unwrap();
    let cp = first.checkpoint().unwrap();
    let mut fresh = build(2);
    fresh.set_fault_plan(plan());
    fresh.restore(&cp).unwrap();
    fresh.run_for(Cycle::new(96)).unwrap();
    assert_eq!(fresh.checkpoint().unwrap().to_bytes(), want);
}

/// A mid-run checkpoint of the four-relay ring: agent state plus token
/// windows in flight on every link, most of them carrying tokens.
fn mid_run_checkpoint() -> Vec<u8> {
    let mut engine = build(1);
    engine.run_for(Cycle::new(64)).unwrap();
    engine.checkpoint().unwrap().to_bytes()
}

/// A checkpoint cut short anywhere is a typed error, never a panic and
/// never a shorter checkpoint that happens to decode.
#[test]
fn truncated_checkpoint_is_rejected() {
    let bytes = mid_run_checkpoint();
    for cut in 0..bytes.len() {
        assert!(
            matches!(
                EngineCheckpoint::<u64>::from_bytes(&bytes[..cut]),
                Err(SimError::Checkpoint { .. })
            ),
            "{cut}-byte prefix of a {}-byte checkpoint did not fail as a checkpoint error",
            bytes.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any single corrupted byte decodes or fails with a typed error;
    /// it never panics.
    #[test]
    fn corrupted_checkpoint_never_panics(at in any::<u64>(), mask in 1u8..=255) {
        let mut bytes = mid_run_checkpoint();
        let at = (at % bytes.len() as u64) as usize;
        bytes[at] ^= mask;
        if let Err(e) = EngineCheckpoint::<u64>::from_bytes(&bytes) {
            prop_assert!(matches!(e, SimError::Checkpoint { .. }), "untyped error: {e:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized (C, X) pairs and thread counts.
    #[test]
    fn restore_matches_straight_run(
        c_rounds in 1u64..24,
        extra_rounds in 1u64..24,
        threads in 1usize..=4,
    ) {
        let c = c_rounds * u64::from(WINDOW);
        let x = c + extra_rounds * u64::from(WINDOW);
        prop_assert_eq!(resumed(threads, threads, c, x), straight(threads, x));
    }
}
