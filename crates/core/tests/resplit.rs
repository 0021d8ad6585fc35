//! Checkpoint re-split coverage: an `FSCKPT01` checkpoint written by a
//! 4-way sharded run is merged ([`EngineCheckpoint::merge`]) and restored
//! ([`Engine::restore_by_name`]) into deployments of a *different* shape —
//! 2-way sharded and monolithic — and every continuation lands on digests
//! bit-identical to an uninterrupted monolithic run.
//!
//! This is the engine-level half of repartition-from-checkpoint: per-agent
//! checkpoint entries carry no placement information (an agent's input
//! links model the full latency regardless of where the sender lives), so
//! a checkpoint taken under one sharding restores under any other.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use firesim_core::{
    combined_digest, AgentCtx, BoundaryInput, BoundaryOutput, Checkpoint, Cycle, Engine,
    EngineCheckpoint, SimAgent, SimResult, SnapshotReader, SnapshotWriter,
};

const N: usize = 4;
const WINDOW: u32 = 8;
const LATENCY: u64 = 8;
const MID: u64 = 64;
const END: u64 = 128;

/// Ring node with history-dependent state: every received token is mixed
/// into an accumulator that seeds future sends, so any divergence in
/// token timing or content shows up in the digest forever after.
struct Node {
    name: String,
    period: u64,
    sent: u64,
    acc: u64,
}

fn node(i: usize) -> Box<Node> {
    Box::new(Node {
        name: format!("n{i}"),
        period: 16 + 8 * i as u64,
        sent: 0,
        acc: 0x9e37_79b9_7f4a_7c15 ^ i as u64,
    })
}

impl SimAgent for Node {
    type Token = u64;
    fn name(&self) -> &str {
        &self.name
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
            let at = base + u64::from(off);
            self.acc = (self.acc ^ v ^ at).wrapping_mul(0x0000_0100_0000_01b3);
        }
        for off in 0..ctx.window() {
            let cycle = base + u64::from(off);
            if cycle.is_multiple_of(self.period) {
                ctx.push_output(0, off, self.acc ^ cycle);
                self.sent += 1;
            }
        }
    }
    fn as_checkpoint(&mut self) -> Option<&mut dyn Checkpoint> {
        Some(self)
    }
}

impl Checkpoint for Node {
    fn save_state(&self, w: &mut SnapshotWriter) -> SimResult<()> {
        w.put_u64(self.sent);
        w.put_u64(self.acc);
        Ok(())
    }
    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> SimResult<()> {
        self.sent = r.get_u64()?;
        self.acc = r.get_u64()?;
        Ok(())
    }
}

/// In-process transport pump, as `manager::partition` would run between
/// worker processes.
fn pump(
    out: BoundaryOutput<u64>,
    inp: BoundaryInput<u64>,
    halt: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        while let Ok(Some(w)) = out.drain_or_halt(&halt) {
            if !matches!(inp.inject_or_halt(w, &halt), Ok(None)) {
                break;
            }
        }
    })
}

/// Builds one engine per group of `groups` (a partition of `0..N`),
/// wiring each ring edge `i -> (i+1) % N` directly when both endpoints
/// share a group and through a boundary pump otherwise.
fn build_groups(groups: &[Vec<usize>]) -> (Vec<Engine<u64>>, Vec<JoinHandle<()>>, Arc<AtomicBool>) {
    let mut engines: Vec<Engine<u64>> = groups.iter().map(|_| Engine::new(WINDOW)).collect();
    let mut place = [(0usize, None); N];
    for (g, members) in groups.iter().enumerate() {
        for &i in members {
            let id = engines[g].add_agent(node(i));
            place[i] = (g, Some(id));
        }
    }
    let halt = Arc::new(AtomicBool::new(false));
    let mut pumps = Vec::new();
    for i in 0..N {
        let j = (i + 1) % N;
        let (gi, ai) = (place[i].0, place[i].1.unwrap());
        let (gj, aj) = (place[j].0, place[j].1.unwrap());
        if gi == gj {
            engines[gi]
                .connect(ai, 0, aj, 0, Cycle::new(LATENCY))
                .unwrap();
        } else {
            let out = engines[gi]
                .connect_external_output(ai, 0, Cycle::new(LATENCY))
                .unwrap();
            let inp = engines[gj]
                .connect_external_input(aj, 0, Cycle::new(LATENCY))
                .unwrap();
            pumps.push(pump(out, inp, Arc::clone(&halt)));
        }
    }
    (engines, pumps, halt)
}

/// Runs every engine (optionally restoring `from` by name first) for
/// `cycles` in its own thread and returns the per-shard checkpoints in
/// group order.
fn run_groups(
    engines: Vec<Engine<u64>>,
    pumps: Vec<JoinHandle<()>>,
    halt: Arc<AtomicBool>,
    from: Option<Arc<EngineCheckpoint<u64>>>,
    cycles: u64,
) -> Vec<EngineCheckpoint<u64>> {
    // Every shard restores before any shard runs (as `manager::partition`
    // restores before it starts its pumps): a restore replaces the input
    // queues, so it would discard a window a faster peer had already
    // injected and leave that link one window short for good.
    let mut engines = engines;
    if let Some(cp) = from.as_deref() {
        for e in &mut engines {
            e.restore_by_name(cp).unwrap();
        }
    }
    let threads: Vec<_> = engines
        .into_iter()
        .map(|mut e| {
            std::thread::spawn(move || {
                e.run_for(Cycle::new(cycles)).unwrap();
                e.checkpoint().unwrap()
            })
        })
        .collect();
    let cps: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    halt.store(true, Ordering::Release);
    for p in pumps {
        p.join().unwrap();
    }
    cps
}

fn digests_of(cps: &[EngineCheckpoint<u64>]) -> Vec<(String, u64)> {
    let mut all: Vec<(String, u64)> = cps.iter().flat_map(|cp| cp.agent_digests()).collect();
    all.sort();
    all
}

#[test]
fn four_way_checkpoint_restores_across_shapes() {
    // Reference: an uninterrupted monolithic run to END.
    let (engines, pumps, halt) = build_groups(&[(0..N).collect()]);
    let straight = digests_of(&run_groups(engines, pumps, halt, None, END));

    // Leg 1: a 4-way sharded run to MID; merge the per-shard checkpoints
    // and round-trip the merged checkpoint through the FSCKPT01 on-disk
    // encoding, as the repartitioning manager does.
    let groups4: Vec<Vec<usize>> = (0..N).map(|i| vec![i]).collect();
    let (engines, pumps, halt) = build_groups(&groups4);
    let parts = run_groups(engines, pumps, halt, None, MID);
    let merged = EngineCheckpoint::merge(parts).unwrap();
    assert_eq!(merged.now(), Cycle::new(MID));
    let names: Vec<&str> = merged.agent_names().collect();
    assert_eq!(names, ["n0", "n1", "n2", "n3"], "merge sorts by name");

    let path = std::env::temp_dir().join(format!("fs-resplit-{}.ckpt", std::process::id()));
    merged.save_to(&path).unwrap();
    let merged = EngineCheckpoint::<u64>::load_from(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let merged = Arc::new(merged);

    // Leg 2a: restore into a 2-way deployment and run to END.
    let (engines, pumps, halt) = build_groups(&[vec![0, 1], vec![2, 3]]);
    let two_way = digests_of(&run_groups(
        engines,
        pumps,
        halt,
        Some(Arc::clone(&merged)),
        END - MID,
    ));
    assert_eq!(
        straight, two_way,
        "4-way checkpoint restored 2-way diverged from the straight run"
    );

    // Leg 2b: restore into a monolithic deployment and run to END.
    let (engines, pumps, halt) = build_groups(&[(0..N).collect()]);
    let mono = digests_of(&run_groups(
        engines,
        pumps,
        halt,
        Some(Arc::clone(&merged)),
        END - MID,
    ));
    assert_eq!(
        straight, mono,
        "4-way checkpoint restored monolithically diverged from the straight run"
    );
    assert_eq!(combined_digest(&straight), combined_digest(&mono));
}

/// `restore_by_name` restores a shard from a checkpoint covering *more*
/// agents than the engine hosts: each shard of a new partitioning picks
/// its own agents out of the full merged checkpoint.
#[test]
fn restore_by_name_accepts_superset_checkpoint() {
    // Full checkpoint from a monolithic run to MID.
    let (engines, pumps, halt) = build_groups(&[(0..N).collect()]);
    let full = run_groups(engines, pumps, halt, None, MID).pop().unwrap();
    let full = Arc::new(full);

    // A 3/1 split: the singleton shard restores just its one agent.
    let (engines, pumps, halt) = build_groups(&[vec![0, 1, 2], vec![3]]);
    let skewed = digests_of(&run_groups(
        engines,
        pumps,
        halt,
        Some(Arc::clone(&full)),
        END - MID,
    ));

    let (engines, pumps, halt) = build_groups(&[(0..N).collect()]);
    let straight = digests_of(&run_groups(engines, pumps, halt, None, END));
    assert_eq!(straight, skewed, "3/1 restore diverged");
}
