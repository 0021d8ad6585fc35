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

use std::sync::atomic::AtomicBool;
use std::sync::{mpsc, Arc};

use firesim_core::{
    combined_digest, AgentCtx, BoundaryInput, BoundaryOutput, Checkpoint, Cycle, Engine,
    EngineCheckpoint, RoundExchange, SimAgent, SimError, SimResult, SnapshotReader, SnapshotWriter,
    TokenWindow,
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

/// A round exchange over one in-process channel per cut link, as
/// `manager::partition` runs one over a transport between worker
/// processes: each round ships every output's window, then injects every
/// input's.
#[derive(Default)]
struct LinkExchange {
    outputs: Vec<(BoundaryOutput<u64>, mpsc::Sender<TokenWindow<u64>>)>,
    inputs: Vec<(BoundaryInput<u64>, mpsc::Receiver<TokenWindow<u64>>)>,
}

impl RoundExchange for LinkExchange {
    fn exchange(&mut self, halt: &AtomicBool) -> SimResult<()> {
        let gone = || SimError::protocol("peer shard gone");
        for (out, tx) in &self.outputs {
            let w = out.drain_or_halt(halt)?.ok_or_else(gone)?;
            tx.send(w).map_err(|_| gone())?;
        }
        for (inp, rx) in &self.inputs {
            let w = rx.recv().map_err(|_| gone())?;
            if inp.inject_or_halt(w, halt)?.is_some() {
                return Err(gone());
            }
        }
        Ok(())
    }
}

/// Builds one engine per group of `groups` (a partition of `0..N`),
/// wiring each ring edge `i -> (i+1) % N` directly when both endpoints
/// share a group and through the two groups' exchanges otherwise.
fn build_groups(groups: &[Vec<usize>]) -> Vec<(Engine<u64>, LinkExchange)> {
    let mut shards: Vec<(Engine<u64>, LinkExchange)> = groups
        .iter()
        .map(|_| (Engine::new(WINDOW), LinkExchange::default()))
        .collect();
    let mut place = [(0usize, None); N];
    for (g, members) in groups.iter().enumerate() {
        for &i in members {
            let id = shards[g].0.add_agent(node(i));
            place[i] = (g, Some(id));
        }
    }
    for i in 0..N {
        let j = (i + 1) % N;
        let (gi, ai) = (place[i].0, place[i].1.unwrap());
        let (gj, aj) = (place[j].0, place[j].1.unwrap());
        if gi == gj {
            shards[gi]
                .0
                .connect(ai, 0, aj, 0, Cycle::new(LATENCY))
                .unwrap();
        } else {
            let (tx, rx) = mpsc::channel();
            let out = shards[gi]
                .0
                .connect_external_output(ai, 0, Cycle::new(LATENCY))
                .unwrap();
            shards[gi].1.outputs.push((out, tx));
            let inp = shards[gj]
                .0
                .connect_external_input(aj, 0, Cycle::new(LATENCY))
                .unwrap();
            shards[gj].1.inputs.push((inp, rx));
        }
    }
    shards
}

/// Runs every engine (optionally restoring `from` by name first) for
/// `cycles` in its own thread and returns the per-shard checkpoints in
/// group order.
fn run_groups(
    shards: Vec<(Engine<u64>, LinkExchange)>,
    from: Option<Arc<EngineCheckpoint<u64>>>,
    cycles: u64,
) -> Vec<EngineCheckpoint<u64>> {
    // Every shard restores before any exchange starts (as
    // `manager::partition` restores before it connects its peers): a
    // restore replaces the input queues, so it would discard a window
    // already injected and leave that link one window short for good.
    let mut shards = shards;
    if let Some(cp) = from.as_deref() {
        for (e, _) in &mut shards {
            e.restore_by_name(cp).unwrap();
        }
    }
    let threads: Vec<_> = shards
        .into_iter()
        .map(|(mut e, mut exchange)| {
            std::thread::spawn(move || {
                e.run_for_exchanging(Cycle::new(cycles), &mut exchange)
                    .unwrap();
                e.checkpoint().unwrap()
            })
        })
        .collect();
    threads.into_iter().map(|t| t.join().unwrap()).collect()
}

fn digests_of(cps: &[EngineCheckpoint<u64>]) -> Vec<(String, u64)> {
    let mut all: Vec<(String, u64)> = cps.iter().flat_map(|cp| cp.agent_digests()).collect();
    all.sort();
    all
}

#[test]
fn four_way_checkpoint_restores_across_shapes() {
    // Reference: an uninterrupted monolithic run to END.
    let shards = build_groups(&[(0..N).collect()]);
    let straight = digests_of(&run_groups(shards, None, END));

    // Leg 1: a 4-way sharded run to MID; merge the per-shard checkpoints
    // and round-trip the merged checkpoint through the FSCKPT01 on-disk
    // encoding, as the repartitioning manager does.
    let groups4: Vec<Vec<usize>> = (0..N).map(|i| vec![i]).collect();
    let shards = build_groups(&groups4);
    let parts = run_groups(shards, None, MID);
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
    let shards = build_groups(&[vec![0, 1], vec![2, 3]]);
    let two_way = digests_of(&run_groups(shards, Some(Arc::clone(&merged)), END - MID));
    assert_eq!(
        straight, two_way,
        "4-way checkpoint restored 2-way diverged from the straight run"
    );

    // Leg 2b: restore into a monolithic deployment and run to END.
    let shards = build_groups(&[(0..N).collect()]);
    let mono = digests_of(&run_groups(shards, Some(Arc::clone(&merged)), END - MID));
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
    let shards = build_groups(&[(0..N).collect()]);
    let full = run_groups(shards, None, MID).pop().unwrap();
    let full = Arc::new(full);

    // A 3/1 split: the singleton shard restores just its one agent.
    let shards = build_groups(&[vec![0, 1, 2], vec![3]]);
    let skewed = digests_of(&run_groups(shards, Some(Arc::clone(&full)), END - MID));

    let shards = build_groups(&[(0..N).collect()]);
    let straight = digests_of(&run_groups(shards, None, END));
    assert_eq!(straight, skewed, "3/1 restore diverged");
}
