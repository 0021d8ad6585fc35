//! Multi-process partitioned simulation (§III-B2's "scale-out" leg).
//!
//! FireSim's distinguishing claim is that the simulated datacenter can be
//! **split across hosts without changing its behavior**: every link is a
//! latency-N token stream, so as long as each partition only advances when
//! it holds input tokens for every cycle, the global simulation is
//! bit-identical no matter where the partition boundaries fall. This
//! module is the manager half of that story:
//!
//! * [`PartitionPlan`] deterministically assigns every server and switch
//!   of a [`Topology`] to one of N shards.
//! * [`run_partitioned`] spawns N worker *processes* (re-executing the
//!   current binary), hands each its shard, wires every cross-shard link
//!   over a [`TokenTransport`] backend (shared-memory ring, TCP, or
//!   Unix-domain socket), supervises the fleet against a deadline, and
//!   merges the workers' results.
//! * [`maybe_worker`] is the hook a binary calls first thing in `main` so
//!   that the re-exec'd children branch into worker mode.
//!
//! The acceptance invariant — checked by `tests/distributed.rs` — is the
//! paper's: a topology partitioned 1-way, 2-way, and 4-way produces
//! bit-identical per-agent checkpoint digests and identical deterministic
//! [`RunReport`] aggregates.
//!
//! ## Worker protocol
//!
//! Parent and workers share a *build function* `fn(&str) ->
//! SimResult<(Topology, SimConfig)>` plus an opaque spec string, so each
//! process reconstructs the same topology independently (blade app
//! factories are not serialisable; rebuilding is both simpler and how the
//! paper's manager works — every host runs the same configuration). The
//! parent exports `FIRESIM_PART_*` environment variables and re-executes
//! itself; the child's `maybe_worker` sees them, builds its shard, opens
//! transports via rendezvous files in the shared directory, runs, writes
//! `shard{i}.result.json`, and exits. A nonzero worker exit (or the
//! deadline) makes the parent kill the remaining fleet and return a
//! [`FailureReport`] naming the dead shard — the cross-process extension
//! of the supervisor's watchdog.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use firesim_core::{
    combined_digest, BoundaryInput, BoundaryOutput, Cycle, EngineCheckpoint, FaultPlan, SimError,
    SimResult,
};
use firesim_net::Flit;
use firesim_platform::{ShmTransport, SocketListener, SocketTransport, TokenTransport};

use crate::report::RunReport;
use crate::simulation::{ShardBoundaries, SimConfig, Simulation};
use crate::stream::{EventRecord, RunEndRecord, RunStartRecord, StreamRecord, StreamWriter};
use crate::supervisor::FailureReport;
use crate::topology::{NodeRef, Topology};

/// Builds the topology and config for a partitioned run from an opaque
/// spec string. Must be a plain function (not a closure): the parent and
/// every re-exec'd worker call it with the same spec and must produce
/// identical topologies.
pub type BuildFn = fn(&str) -> SimResult<(Topology, SimConfig)>;

/// Deterministic assignment of every topology node to a worker shard.
///
/// Servers are split contiguously (`shard = index * workers / servers`),
/// which for the paper's rack-structured topologies keeps each ToR with
/// its own servers; each switch follows the lowest-indexed server in its
/// subtree, so aggregation/root switches land with their first rack. Both
/// the parent and every worker compute the plan independently from the
/// same topology — there is no plan wire format to drift.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPlan {
    workers: usize,
    server_shard: Vec<usize>,
    switch_shard: Vec<usize>,
}

impl PartitionPlan {
    /// Computes the contiguous plan for `workers` shards.
    ///
    /// # Errors
    ///
    /// Rejects zero workers, more workers than servers (a shard must own
    /// at least one server), and duplicate agent names (shard results are
    /// merged by name, so names must be globally unique).
    pub fn contiguous(topo: &Topology, workers: usize) -> SimResult<PartitionPlan> {
        let servers = topo.servers.len();
        if workers == 0 {
            return Err(SimError::topology("a partition needs at least one worker"));
        }
        if workers > servers {
            return Err(SimError::topology(format!(
                "cannot split {servers} server(s) across {workers} workers \
                 (every shard must own at least one server)"
            )));
        }
        Self::check_unique_names(topo)?;
        let server_shard: Vec<usize> = (0..servers).map(|i| i * workers / servers).collect();
        let switch_shard = (0..topo.switches.len())
            .map(|s| {
                Self::min_server_in_subtree(topo, s)
                    .map(|i| server_shard[i])
                    .unwrap_or(0)
            })
            .collect();
        Ok(PartitionPlan {
            workers,
            server_shard,
            switch_shard,
        })
    }

    /// Builds a plan from an explicit per-node shard assignment — the
    /// fleet controller's load-aware output (see [`crate::fleet`]).
    ///
    /// Unlike [`PartitionPlan::contiguous`], a shard may own any mix of
    /// servers and switches — a shard holding only switch models is the
    /// paper's dedicated m4.16xlarge switch host — but every shard must
    /// own at least one agent.
    ///
    /// # Errors
    ///
    /// Rejects zero workers, more workers than agents, assignment vectors
    /// whose lengths do not match the topology, out-of-range shard
    /// indices, empty shards, and duplicate agent names.
    pub fn from_assignment(
        topo: &Topology,
        workers: usize,
        server_shard: Vec<usize>,
        switch_shard: Vec<usize>,
    ) -> SimResult<PartitionPlan> {
        if workers == 0 {
            return Err(SimError::topology("a partition needs at least one worker"));
        }
        if server_shard.len() != topo.servers.len() || switch_shard.len() != topo.switches.len() {
            return Err(SimError::topology(format!(
                "assignment covers {}+{} nodes but the topology has {}+{}",
                server_shard.len(),
                switch_shard.len(),
                topo.servers.len(),
                topo.switches.len()
            )));
        }
        // Every shard owns an agent, so this also bounds the allocation
        // below by the topology size, not by the (possibly decoded) count.
        let agents = server_shard.len() + switch_shard.len();
        if workers > agents {
            return Err(SimError::topology(format!(
                "cannot split {agents} agent(s) across {workers} workers \
                 (every shard must own at least one agent)"
            )));
        }
        Self::check_unique_names(topo)?;
        let mut sizes = vec![0usize; workers];
        for &s in server_shard.iter().chain(switch_shard.iter()) {
            if s >= workers {
                return Err(SimError::topology(format!(
                    "shard index {s} out of range for {workers} workers"
                )));
            }
            sizes[s] += 1;
        }
        if let Some(empty) = sizes.iter().position(|&n| n == 0) {
            return Err(SimError::topology(format!("shard {empty} owns no agents")));
        }
        Ok(PartitionPlan {
            workers,
            server_shard,
            switch_shard,
        })
    }

    /// Folds this plan onto fewer workers (shard `h` maps to
    /// `h × workers / self.workers`), preserving co-location decisions
    /// while shrinking the process count — how a many-host
    /// [`PlacementPlan`](crate::fleet::PlacementPlan) runs on a small
    /// machine.
    ///
    /// # Errors
    ///
    /// Rejects zero workers and more workers than this plan has shards.
    pub fn fold(&self, workers: usize) -> SimResult<PartitionPlan> {
        if workers == 0 || workers > self.workers {
            return Err(SimError::topology(format!(
                "cannot fold a {}-shard plan onto {workers} worker(s)",
                self.workers
            )));
        }
        let map = |s: usize| s * workers / self.workers;
        Ok(PartitionPlan {
            workers,
            server_shard: self.server_shard.iter().map(|&s| map(s)).collect(),
            switch_shard: self.switch_shard.iter().map(|&s| map(s)).collect(),
        })
    }

    /// Encodes the plan for the worker environment
    /// (`FIRESIM_PART_PLAN`): `"workers;server,shards;switch,shards"`.
    pub fn encode(&self) -> String {
        let join = |v: &[usize]| {
            v.iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "{};{};{}",
            self.workers,
            join(&self.server_shard),
            join(&self.switch_shard)
        )
    }

    /// Decodes [`PartitionPlan::encode`] output, revalidating the
    /// assignment against the worker's own copy of the topology.
    ///
    /// # Errors
    ///
    /// Rejects malformed strings and anything
    /// [`PartitionPlan::from_assignment`] rejects.
    pub fn decode(topo: &Topology, s: &str) -> SimResult<PartitionPlan> {
        let bad = || SimError::protocol(format!("malformed partition plan {s:?}"));
        let mut parts = s.split(';');
        let workers: usize = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let parse_list = |part: Option<&str>| -> SimResult<Vec<usize>> {
            part.ok_or_else(bad)?
                .split(',')
                .filter(|t| !t.is_empty())
                .map(|t| t.parse().map_err(|_| bad()))
                .collect()
        };
        let server_shard = parse_list(parts.next())?;
        let switch_shard = parse_list(parts.next())?;
        if parts.next().is_some() {
            return Err(bad());
        }
        Self::from_assignment(topo, workers, server_shard, switch_shard)
    }

    /// Enforces globally-unique agent names (shard results merge by
    /// name).
    fn check_unique_names(topo: &Topology) -> SimResult<()> {
        let mut names: HashSet<&str> = HashSet::new();
        for name in topo
            .servers
            .iter()
            .map(|s| s.name.as_str())
            .chain(topo.switches.iter().map(|s| s.name.as_str()))
        {
            if !names.insert(name) {
                return Err(SimError::topology(format!(
                    "duplicate agent name {name:?}: partitioned results merge by name"
                )));
            }
        }
        Ok(())
    }

    fn min_server_in_subtree(topo: &Topology, sidx: usize) -> Option<usize> {
        topo.switches[sidx]
            .children
            .iter()
            .filter_map(|c| match c {
                NodeRef::Server(s) => Some(s.0),
                NodeRef::Switch(s) => Self::min_server_in_subtree(topo, s.0),
            })
            .min()
    }

    /// Number of worker shards.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Shard owning server `idx` (topology registration order).
    pub fn server_shard(&self, idx: usize) -> usize {
        self.server_shard[idx]
    }

    /// Shard owning switch `idx` (topology registration order).
    pub fn switch_shard(&self, idx: usize) -> usize {
        self.switch_shard[idx]
    }

    /// Agents (servers + switches) assigned to each shard.
    pub fn shard_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.workers];
        for &s in self.server_shard.iter().chain(self.switch_shard.iter()) {
            sizes[s] += 1;
        }
        sizes
    }
}

/// Which inter-process transport carries cross-shard token batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportChoice {
    /// File-backed shared-memory rings
    /// ([`firesim_platform::ShmTransport`]) — the paper's
    /// same-instance port, and the fastest option here.
    Shm,
    /// Loopback TCP ([`firesim_platform::SocketTransport`])
    /// — the paper's cross-instance port; use to exercise the full wire
    /// framing.
    Tcp,
    /// Unix-domain sockets — socket semantics without port allocation.
    Unix,
}

impl TransportChoice {
    /// Parses `shm` / `tcp` / `unix` (alias `uds`).
    ///
    /// # Errors
    ///
    /// Returns a descriptive error for anything else.
    pub fn parse(s: &str) -> SimResult<Self> {
        match s {
            "shm" => Ok(TransportChoice::Shm),
            "tcp" => Ok(TransportChoice::Tcp),
            "unix" | "uds" => Ok(TransportChoice::Unix),
            other => Err(SimError::topology(format!(
                "unknown transport {other:?} (expected shm, tcp, or unix)"
            ))),
        }
    }

    /// Canonical flag spelling (`shm` / `tcp` / `unix`), the inverse of
    /// [`TransportChoice::parse`].
    pub fn as_str(self) -> &'static str {
        match self {
            TransportChoice::Shm => "shm",
            TransportChoice::Tcp => "tcp",
            TransportChoice::Unix => "unix",
        }
    }
}

/// Configuration for [`run_partitioned`].
#[derive(Debug, Clone)]
pub struct PartitionConfig {
    /// Worker process count (1 runs the shard in-process, no spawn).
    pub workers: usize,
    /// Transport for cross-shard links.
    pub transport: TransportChoice,
    /// Target cycles every worker runs (rounded up to whole windows by
    /// the engine). Partitioned runs always use a fixed horizon — see
    /// [`Simulation::run_until_done`] for why.
    pub cycles: Cycle,
    /// Wall-clock budget for the whole fleet; exceeding it kills every
    /// worker and yields a [`FailureReport`] with `deadline_exceeded`.
    pub deadline: Duration,
    /// Rendezvous directory for transport endpoints and result files.
    /// `None` creates (and cleans up) a fresh directory under the system
    /// temp dir.
    pub rendezvous: Option<PathBuf>,
    /// Opaque spec string handed to the [`BuildFn`] in every process.
    pub spec: String,
    /// Test hook: `"<shard>:<agent>@<cycle>"` installs a
    /// [`FaultPlan::panic_at`] on that worker, for exercising the
    /// kill-one-worker failure path.
    pub worker_panic: Option<String>,
    /// Path to a chaos-scenario script ([`firesim_core::Scenario`]) that
    /// every worker loads, compiles against the shared topology, and
    /// applies to its shard before running. Because scenario effects are
    /// pure functions of the target cycle, the partitioned run stays
    /// digest-identical to a monolithic run of the same scenario.
    pub scenario: Option<String>,
    /// Explicit shard assignment (e.g. from a fleet
    /// [`PlacementPlan`](crate::fleet::PlacementPlan)); `None` falls
    /// back to [`PartitionPlan::contiguous`]. When set, `workers` must
    /// equal the plan's worker count.
    pub plan: Option<PartitionPlan>,
    /// Cycle at which every worker checkpoints mid-run (rounded up to a
    /// window boundary by the engine). Workers rendezvous on the
    /// checkpoint files before resuming, so the merged checkpoint is a
    /// consistent cut of the whole simulation.
    pub checkpoint_at: Option<Cycle>,
    /// Where the parent writes the merged `FSCKPT01` checkpoint taken at
    /// `checkpoint_at` — the input to a later repartitioned continuation.
    pub checkpoint_out: Option<PathBuf>,
    /// Merged checkpoint every worker restores (by agent name) before
    /// running; the run then continues to the **absolute** target
    /// `cycles`, regardless of how the checkpointing run was sharded.
    pub restore_from: Option<PathBuf>,
    /// Modeled fleet cost attached to the merged report
    /// ([`RunReport::cost`]).
    pub cost: Option<crate::fleet::CostEstimate>,
    /// Live telemetry sink spec (see
    /// [`StreamOut::parse`](crate::stream::StreamOut::parse)); `None`
    /// disables streaming entirely — nothing is sampled and no sink is
    /// held. Single-worker runs stream full per-interval records;
    /// multi-worker fleets stream merge-point records (worker
    /// lifecycle, checkpoint merge, final summary) from the parent.
    /// Streaming never feeds back into the simulation, so digests are
    /// identical with it on or off (`tests/telemetry.rs`).
    pub stream: Option<String>,
    /// Sampling interval in target cycles for streamed single-worker
    /// runs; `None` uses
    /// [`DEFAULT_STREAM_INTERVAL`](crate::stream::DEFAULT_STREAM_INTERVAL).
    pub stream_interval: Option<u64>,
}

impl PartitionConfig {
    /// A config with `workers` workers over shared memory and a 5-minute
    /// deadline.
    pub fn new(workers: usize, cycles: Cycle, spec: impl Into<String>) -> Self {
        PartitionConfig {
            workers,
            transport: TransportChoice::Shm,
            cycles,
            deadline: Duration::from_secs(300),
            rendezvous: None,
            spec: spec.into(),
            worker_panic: None,
            scenario: None,
            plan: None,
            checkpoint_at: None,
            checkpoint_out: None,
            restore_from: None,
            cost: None,
            stream: None,
            stream_interval: None,
        }
    }

    /// Adopts a fleet placement: worker count, shard assignment, and
    /// modeled cost (reported as [`RunReport::cost`]).
    #[must_use]
    pub fn with_placement(mut self, placement: &crate::fleet::PlacementPlan) -> Self {
        self.workers = placement.workers();
        self.plan = Some(placement.partition().clone());
        self.cost = Some(placement.cost().clone());
        self
    }
}

/// The merged outcome of a successful partitioned run.
#[derive(Debug, Clone)]
pub struct PartitionedRun {
    /// Worker count the run used.
    pub workers: usize,
    /// Target cycles reached (identical on every shard).
    pub cycles: Cycle,
    /// Per-agent checkpoint digests from every shard, name-sorted. Equal
    /// across 1/2/4-way partitionings of the same topology and horizon.
    pub digests: Vec<(String, u64)>,
    /// Order-independent fold of `digests`
    /// ([`firesim_core::combined_digest`]).
    pub combined_digest: u64,
    /// Shard reports merged by [`RunReport::merge_shards`].
    pub report: RunReport,
    /// Parent-observed wall clock for the whole fleet.
    pub wall: Duration,
}

const ENV_SHARD: &str = "FIRESIM_PART_SHARD";
const ENV_WORKERS: &str = "FIRESIM_PART_WORKERS";
const ENV_TRANSPORT: &str = "FIRESIM_PART_TRANSPORT";
const ENV_DIR: &str = "FIRESIM_PART_DIR";
const ENV_CYCLES: &str = "FIRESIM_PART_CYCLES";
const ENV_SPEC: &str = "FIRESIM_PART_SPEC";
const ENV_PANIC: &str = "FIRESIM_PART_PANIC";
const ENV_SCENARIO: &str = "FIRESIM_PART_SCENARIO";
const ENV_PLAN: &str = "FIRESIM_PART_PLAN";
const ENV_CKPT_AT: &str = "FIRESIM_PART_CKPT_AT";
const ENV_RESTORE: &str = "FIRESIM_PART_RESTORE";

/// Exit code a worker uses for simulation failures (vs. spawn problems).
const WORKER_FAILURE_EXIT: i32 = 70;

/// Worker-mode hook: call first in `main` of any binary that invokes
/// [`run_partitioned`].
///
/// When the process was spawned as a partition worker (the parent set
/// `FIRESIM_PART_SHARD`), this builds and runs the worker's shard and
/// **exits the process** — it only ever returns (with `false`) in the
/// parent. The indirection exists because workers are re-executions of
/// the current binary: there is no separate worker executable to ship.
pub fn maybe_worker(build: BuildFn) -> bool {
    let Ok(shard) = std::env::var(ENV_SHARD) else {
        return false;
    };
    let shard: usize = shard.parse().unwrap_or_else(|_| {
        eprintln!("invalid {ENV_SHARD}");
        std::process::exit(2);
    });
    let dir = PathBuf::from(std::env::var(ENV_DIR).unwrap_or_else(|_| {
        eprintln!("missing {ENV_DIR}");
        std::process::exit(2);
    }));
    match worker_main(build, shard, &dir) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            let msg = e.to_string();
            let _ = std::fs::write(dir.join(format!("shard{shard}.error")), &msg);
            eprintln!("worker shard {shard} failed: {msg}");
            std::process::exit(WORKER_FAILURE_EXIT);
        }
    }
}

fn env_var(name: &str) -> SimResult<String> {
    std::env::var(name).map_err(|_| SimError::topology(format!("worker missing {name}")))
}

fn worker_main(build: BuildFn, shard: usize, dir: &Path) -> SimResult<()> {
    let workers: usize = env_var(ENV_WORKERS)?
        .parse()
        .map_err(|_| SimError::topology("bad worker count"))?;
    let transport = TransportChoice::parse(&env_var(ENV_TRANSPORT)?)?;
    let cycles: u64 = env_var(ENV_CYCLES)?
        .parse()
        .map_err(|_| SimError::topology("bad cycle count"))?;
    let spec = env_var(ENV_SPEC)?;

    let (topo, config) = build(&spec)?;
    let plan = match std::env::var(ENV_PLAN) {
        Ok(enc) => {
            let plan = PartitionPlan::decode(&topo, &enc)?;
            if plan.workers() != workers {
                return Err(SimError::protocol(format!(
                    "plan has {} shards but the fleet spawned {workers} workers",
                    plan.workers()
                )));
            }
            plan
        }
        Err(_) => PartitionPlan::contiguous(&topo, workers)?,
    };
    // Compile against the full topology before the build consumes it;
    // every worker compiles the same script against the same tree, then
    // applies only its own shard's share.
    let scenario = match std::env::var(ENV_SCENARIO) {
        Ok(path) => Some(load_scenario(&path, &topo)?),
        Err(_) => None,
    };
    let mut sim = topo.build_shard(config, &plan, shard)?;
    if let Some(sc) = &scenario {
        sim.apply_scenario(sc)?;
    }

    if let Ok(hook) = std::env::var(ENV_PANIC) {
        install_panic_hook(&mut sim, shard, &hook)?;
    }

    // Restore before the pumps start: restoring replaces every input
    // queue, which would discard windows a faster peer had already
    // injected.
    if let Ok(path) = std::env::var(ENV_RESTORE) {
        let cp = EngineCheckpoint::load_from(Path::new(&path))?;
        sim.restore_by_name(&cp)?;
    }
    let checkpoint_at = match std::env::var(ENV_CKPT_AT) {
        Ok(v) => Some(Cycle::new(
            v.parse()
                .map_err(|_| SimError::topology("bad checkpoint cycle"))?,
        )),
        Err(_) => None,
    };

    let run_id = run_id_for(&spec, workers, cycles, transport);
    let result = run_shard(
        &mut sim,
        shard,
        workers,
        transport,
        dir,
        Cycle::new(cycles),
        checkpoint_at,
        run_id,
    )?;
    write_atomic(
        &dir.join(format!("shard{shard}.result.json")),
        result.to_string_pretty().as_bytes(),
    )
}

/// Loads and compiles a scenario script against `topo`'s neutral view.
fn load_scenario(path: &str, topo: &Topology) -> SimResult<firesim_core::CompiledScenario> {
    crate::scenario::load(path)?.compile(&topo.scenario_topology())
}

/// Parses `"<shard>:<agent>@<cycle>"` and arms the fault on a match.
fn install_panic_hook(sim: &mut Simulation, shard: usize, hook: &str) -> SimResult<()> {
    let parse = || -> Option<(usize, &str, u64)> {
        let (shard_s, rest) = hook.split_once(':')?;
        let (agent, cycle_s) = rest.split_once('@')?;
        Some((shard_s.parse().ok()?, agent, cycle_s.parse().ok()?))
    };
    let (target_shard, agent, cycle) =
        parse().ok_or_else(|| SimError::topology(format!("bad {ENV_PANIC} spec {hook:?}")))?;
    if target_shard == shard {
        let mut plan = FaultPlan::new(0);
        plan.panic_at(agent, cycle);
        sim.set_fault_plan(plan);
    }
    Ok(())
}

/// Shared identity of one partitioned run. Every shard stamps this on
/// its report so [`RunReport::merge_shards`] can reject merges across
/// different runs.
fn run_id_for(spec: &str, workers: usize, cycles: u64, transport: TransportChoice) -> String {
    format!("{spec}#{workers}w#{cycles}c#{}", transport.as_str())
}

/// Runs one shard to the absolute `cycles` target, pumping its
/// boundaries over `transport`, and returns the worker's result
/// document.
#[allow(clippy::too_many_arguments)]
fn run_shard(
    sim: &mut Simulation,
    shard: usize,
    workers: usize,
    transport: TransportChoice,
    dir: &Path,
    cycles: Cycle,
    checkpoint_at: Option<Cycle>,
    run_id: String,
) -> SimResult<serde_json::Value> {
    let halt = Arc::new(AtomicBool::new(false));
    let boundaries = sim.take_boundaries();
    let pumps = start_pumps(boundaries, transport, dir, &halt)?;

    let run_result = run_legs(sim, shard, workers, dir, cycles, checkpoint_at);
    // Stop pumps whether or not the run succeeded; output pumps flush
    // everything already produced before exiting, so a healthy peer is
    // never starved by our shutdown.
    halt.store(true, Ordering::SeqCst);
    let mut pump_err = None;
    for pump in pumps {
        match pump.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => pump_err = Some(e),
            Err(_) => pump_err = Some(SimError::topology("boundary pump thread panicked")),
        }
    }
    let (ran, wall) = run_result?;
    if let Some(e) = pump_err {
        return Err(e);
    }

    let digests = sim.checkpoint()?.agent_digests();
    let mut report = sim.run_report(wall);
    report.run_id = Some(run_id);

    let mut obj = std::collections::BTreeMap::new();
    obj.insert("shard".to_owned(), serde_json::Value::from(shard as u64));
    obj.insert("cycles".to_owned(), serde_json::Value::from(ran.as_u64()));
    obj.insert(
        "digests".to_owned(),
        serde_json::Value::Array(
            digests
                .iter()
                .map(|(name, hash)| {
                    let mut d = std::collections::BTreeMap::new();
                    d.insert("name".to_owned(), serde_json::Value::from(name.as_str()));
                    d.insert("hash".to_owned(), serde_json::Value::from(*hash));
                    serde_json::Value::Object(d)
                })
                .collect(),
        ),
    );
    obj.insert(
        "report".to_owned(),
        serde_json::from_str(&report.to_json())
            .map_err(|e| SimError::checkpoint(format!("re-parsing own report: {e}")))?,
    );
    Ok(serde_json::Value::Object(obj))
}

/// Runs the shard to its absolute `target` cycle, optionally pausing at
/// `checkpoint_at` to write `shard{i}.ckpt` and rendezvous with every
/// peer before continuing. Returns `(cycles simulated, wall time)`.
///
/// The rendezvous is what makes the merged checkpoint a consistent cut:
/// a boundary queue buffers up to two windows, so a shard racing ahead
/// into its second leg could inject a window into a peer that has not
/// yet captured its own queues. No shard resumes until every shard's
/// checkpoint file exists; a dead peer leaves the poll spinning until
/// the parent's deadline kills the fleet.
fn run_legs(
    sim: &mut Simulation,
    shard: usize,
    workers: usize,
    dir: &Path,
    target: Cycle,
    checkpoint_at: Option<Cycle>,
) -> SimResult<(Cycle, Duration)> {
    let began = sim.now();
    let mut wall = Duration::ZERO;
    if let Some(at) = checkpoint_at {
        if at.as_u64() > sim.now().as_u64() && at.as_u64() <= target.as_u64() {
            let leg = sim.run_for(Cycle::new(at.as_u64() - sim.now().as_u64()))?;
            wall += leg.wall;
            let cp = sim.checkpoint()?;
            write_atomic(&dir.join(format!("shard{shard}.ckpt")), &cp.to_bytes())?;
            for peer in 0..workers {
                let path = dir.join(format!("shard{peer}.ckpt"));
                while !path.exists() {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }
    if target.as_u64() > sim.now().as_u64() {
        let leg = sim.run_for(Cycle::new(target.as_u64() - sim.now().as_u64()))?;
        wall += leg.wall;
    }
    Ok((Cycle::new(sim.now().as_u64() - began.as_u64()), wall))
}

/// Opens every boundary transport (receivers listen first, then senders
/// connect, then receivers accept — an ordering that cannot deadlock) and
/// spawns one pump thread per directed boundary link.
fn start_pumps(
    boundaries: ShardBoundaries,
    transport: TransportChoice,
    dir: &Path,
    halt: &Arc<AtomicBool>,
) -> SimResult<Vec<JoinHandle<SimResult<()>>>> {
    // Phase 1: create all receiver-side endpoints so every peer's connect
    // phase finds something to attach to.
    enum Pending {
        Ready(Box<dyn TokenTransport<Flit>>),
        Listening(SocketListener),
    }
    let mut inputs: Vec<(BoundaryInput<Flit>, Pending)> = Vec::new();
    for (id, inp) in boundaries.inputs {
        let pending = match transport {
            TransportChoice::Shm => {
                Pending::Ready(Box::new(ShmTransport::<Flit>::create(&dir.join(&id))?))
            }
            TransportChoice::Tcp => {
                let listener = SocketListener::tcp("127.0.0.1:0")?;
                let addr = listener.local_addr()?.to_string();
                write_atomic(&dir.join(format!("{id}.addr")), addr.as_bytes())?;
                Pending::Listening(listener)
            }
            TransportChoice::Unix => {
                Pending::Listening(SocketListener::unix(&dir.join(format!("{id}.sock")))?)
            }
        };
        inputs.push((inp, pending));
    }

    // Phase 2: connect all sender-side endpoints. Blocks until the peer
    // finishes its phase 1, which it does unconditionally.
    let mut outputs: Vec<(BoundaryOutput<Flit>, Box<dyn TokenTransport<Flit>>)> = Vec::new();
    for (id, out) in boundaries.outputs {
        let tr: Box<dyn TokenTransport<Flit>> = match transport {
            TransportChoice::Shm => Box::new(ShmTransport::open(&dir.join(&id), halt)?),
            TransportChoice::Tcp => {
                let addr = poll_read(&dir.join(format!("{id}.addr")), halt)?;
                Box::new(SocketTransport::connect_tcp(&addr, halt)?)
            }
            TransportChoice::Unix => Box::new(SocketTransport::connect_unix(
                &dir.join(format!("{id}.sock")),
                halt,
            )?),
        };
        outputs.push((out, tr));
    }

    // Phase 3: accept. Blocks until the peer finishes its phase 2.
    let mut pumps = Vec::new();
    for (inp, pending) in inputs {
        let tr: Box<dyn TokenTransport<Flit>> = match pending {
            Pending::Ready(tr) => tr,
            Pending::Listening(listener) => Box::new(listener.accept::<Flit>()?),
        };
        pumps.push(spawn_input_pump(inp, tr, Arc::clone(halt)));
    }
    for (out, tr) in outputs {
        pumps.push(spawn_output_pump(out, tr, Arc::clone(halt)));
    }
    Ok(pumps)
}

fn spawn_output_pump(
    out: BoundaryOutput<Flit>,
    mut tr: Box<dyn TokenTransport<Flit>>,
    halt: Arc<AtomicBool>,
) -> JoinHandle<SimResult<()>> {
    std::thread::spawn(move || {
        while let Some(w) = out.drain_or_halt(&halt)? {
            tr.send_window(&w)?;
            out.recycle(w);
        }
        Ok(())
    })
}

fn spawn_input_pump(
    inp: BoundaryInput<Flit>,
    mut tr: Box<dyn TokenTransport<Flit>>,
    halt: Arc<AtomicBool>,
) -> JoinHandle<SimResult<()>> {
    std::thread::spawn(move || {
        while let Some(w) = tr.recv_window(&halt)? {
            if inp.inject_or_halt(w, &halt)?.is_some() {
                // Halted with the link at capacity: the engine is done
                // with this window's cycles; drop it and stop pumping.
                break;
            }
        }
        Ok(())
    })
}

/// Polls a rendezvous file into a string (trimmed), honouring `halt`.
fn poll_read(path: &Path, halt: &AtomicBool) -> SimResult<String> {
    loop {
        if let Ok(s) = std::fs::read_to_string(path) {
            if !s.trim().is_empty() {
                return Ok(s.trim().to_owned());
            }
        }
        if halt.load(Ordering::SeqCst) {
            return Err(SimError::aborted(format!(
                "halted waiting for rendezvous file {}",
                path.display()
            )));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Writes `bytes` then renames into place, so readers never observe a
/// partially written file.
fn write_atomic(path: &Path, bytes: &[u8]) -> SimResult<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)
        .map_err(|e| SimError::io(format!("writing {}", tmp.display()), &e))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| SimError::io(format!("publishing {}", path.display()), &e))
}

/// Distinguishes concurrent partitioned runs sharing one parent process.
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Runs `cfg.spec` partitioned across `cfg.workers` processes and merges
/// the result.
///
/// With one worker the shard runs in-process (no spawn, no transports) —
/// the degenerate case the multi-process results must be bit-identical
/// to. With more, the current executable is re-executed once per shard
/// (see [`maybe_worker`]) and supervised against `cfg.deadline`.
///
/// # Errors
///
/// Returns a [`FailureReport`] naming the failing shard (as
/// `failing_agent = Some("shard{i}")`) when a worker dies, or with
/// `deadline_exceeded` when the fleet outlives its budget. Build errors
/// in the parent are reported the same way with `failing_agent = None`.
pub fn run_partitioned(
    build: BuildFn,
    cfg: &PartitionConfig,
) -> Result<PartitionedRun, Box<FailureReport>> {
    let start = Instant::now();
    let fail = |error: SimError, failing: Option<String>, deadline: bool| {
        Box::new(FailureReport {
            error,
            failing_agent: failing,
            fail_cycle: 0,
            last_checkpoint: None,
            attempts: 1,
            injected_faults: Vec::new(),
            stalled: false,
            deadline_exceeded: deadline,
        })
    };

    if cfg.workers == 1 {
        return run_single(build, cfg, start).map_err(|e| fail(e, None, false));
    }

    let dir = match &cfg.rendezvous {
        Some(d) => d.clone(),
        None => std::env::temp_dir().join(format!(
            "firesim-part-{}-{}",
            std::process::id(),
            RUN_SEQ.fetch_add(1, Ordering::Relaxed)
        )),
    };
    std::fs::create_dir_all(&dir)
        .map_err(|e| fail(SimError::io("creating rendezvous dir", &e), None, false))?;
    let cleanup = cfg.rendezvous.is_none();
    let result = run_fleet(cfg, &dir, start, &fail);
    if cleanup {
        let _ = std::fs::remove_dir_all(&dir);
    }
    result
}

fn run_single(
    build: BuildFn,
    cfg: &PartitionConfig,
    start: Instant,
) -> Result<PartitionedRun, SimError> {
    let (topo, config) = build(&cfg.spec)?;
    let plan = match &cfg.plan {
        Some(plan) => {
            if plan.workers() != 1 {
                return Err(SimError::topology(format!(
                    "config says 1 worker but the plan has {} shards",
                    plan.workers()
                )));
            }
            plan.clone()
        }
        None => PartitionPlan::contiguous(&topo, 1)?,
    };
    let scenario = match &cfg.scenario {
        Some(path) => Some(load_scenario(path, &topo)?),
        None => None,
    };
    let mut sim = topo.build_shard(config, &plan, 0)?;
    if let Some(sc) = &scenario {
        sim.apply_scenario(sc)?;
    }
    if let Some(hook) = &cfg.worker_panic {
        install_panic_hook(&mut sim, 0, hook)?;
    }
    // Merged checkpoints are name-sorted, not registration-ordered, so
    // the monolithic continuation also restores by name.
    if let Some(path) = &cfg.restore_from {
        let cp = EngineCheckpoint::load_from(path)?;
        sim.restore_by_name(&cp)?;
    }
    // A streamed run advances in interval-sized `run_for` legs instead
    // of one long one — the leg-splitting the checkpoint/repartition
    // paths already prove is digest-identical. The probe primes at the
    // current cycle, so restored runs stream deltas from the restore
    // point.
    let mut stream = match &cfg.stream {
        Some(spec) => {
            sim.enable_metrics();
            let writer = crate::stream::StreamWriter::open(spec)?;
            let meta = crate::stream::StreamMeta {
                run_id: Some(run_id_for(&cfg.spec, 1, cfg.cycles.as_u64(), cfg.transport)),
                spec: cfg.spec.clone(),
                workers: 1,
                transport: None,
            };
            let mut session = crate::stream::StreamSession::begin(
                writer,
                &meta,
                &mut sim,
                cfg.cycles,
                cfg.stream_interval.unwrap_or(0),
            )?;
            if let Some(path) = &cfg.restore_from {
                session.event(
                    sim.now().as_u64(),
                    "restore",
                    &format!("restored from {}", path.display()),
                )?;
            }
            Some(session)
        }
        None => None,
    };
    let began = sim.now();
    let mut wall = Duration::ZERO;
    if let Some(at) = cfg.checkpoint_at {
        if at.as_u64() > sim.now().as_u64() && at.as_u64() <= cfg.cycles.as_u64() {
            match &mut stream {
                Some(session) => session.run_to(&mut sim, at, false)?,
                None => {
                    let leg = sim.run_for(Cycle::new(at.as_u64() - sim.now().as_u64()))?;
                    wall += leg.wall;
                }
            }
            if let Some(out) = &cfg.checkpoint_out {
                sim.checkpoint()?.save_to(out)?;
                if let Some(session) = &mut stream {
                    session.event(
                        at.as_u64(),
                        "checkpoint",
                        &format!("checkpoint saved to {}", out.display()),
                    )?;
                }
            }
        }
    }
    if cfg.cycles.as_u64() > sim.now().as_u64() {
        match &mut stream {
            Some(session) => session.run_to(&mut sim, cfg.cycles, false)?,
            None => {
                let leg = sim.run_for(Cycle::new(cfg.cycles.as_u64() - sim.now().as_u64()))?;
                wall += leg.wall;
            }
        }
    }
    if let Some(session) = stream {
        wall += session.finish(&sim)?.wall;
    }
    let digests = sim.checkpoint()?.agent_digests();
    let digest = combined_digest(&digests);
    let mut digests = digests;
    digests.sort();
    let mut report = sim.run_report(wall);
    report.run_id = Some(run_id_for(&cfg.spec, 1, cfg.cycles.as_u64(), cfg.transport));
    report.cost = cfg.cost.clone();
    Ok(PartitionedRun {
        workers: 1,
        cycles: Cycle::new(sim.now().as_u64() - began.as_u64()),
        combined_digest: digest,
        digests,
        report,
        wall: start.elapsed(),
    })
}

#[allow(clippy::type_complexity)]
fn run_fleet(
    cfg: &PartitionConfig,
    dir: &Path,
    start: Instant,
    fail: &dyn Fn(SimError, Option<String>, bool) -> Box<FailureReport>,
) -> Result<PartitionedRun, Box<FailureReport>> {
    let exe = std::env::current_exe()
        .map_err(|e| fail(SimError::io("locating current executable", &e), None, false))?;

    if let Some(plan) = &cfg.plan {
        if plan.workers() != cfg.workers {
            return Err(fail(
                SimError::topology(format!(
                    "config says {} workers but the plan has {} shards",
                    cfg.workers,
                    plan.workers()
                )),
                None,
                false,
            ));
        }
    }

    // The fleet parent streams merge points only: it never builds the
    // topology, so per-interval samples come from single-worker runs
    // (or future per-shard feeds), and the parent's feed carries worker
    // lifecycle, checkpoint-merge markers, and the final summary.
    // Worker exit order is host-dependent, so fleet feeds are not
    // golden-fixtured (DESIGN §17).
    let mut stream = match &cfg.stream {
        Some(spec) => {
            let mut w = StreamWriter::open(spec).map_err(|e| fail(e, None, false))?;
            w.emit(&StreamRecord::RunStart(RunStartRecord {
                run_id: Some(run_id_for(
                    &cfg.spec,
                    cfg.workers,
                    cfg.cycles.as_u64(),
                    cfg.transport,
                )),
                spec: cfg.spec.clone(),
                agents: 0,
                workers: cfg.workers as u64,
                target_cycles: cfg.cycles.as_u64(),
                window: 0,
                interval: 0,
                transport: Some(cfg.transport.as_str().to_owned()),
            }))
            .map_err(|e| fail(e, None, false))?;
            Some(w)
        }
        None => None,
    };
    let emit_event = |stream: &mut Option<StreamWriter>, cycle: u64, kind: &str, label: String| {
        if let Some(w) = stream {
            let _ = w.emit(&StreamRecord::Event(EventRecord {
                cycle,
                kind: kind.to_owned(),
                label,
            }));
        }
    };

    let mut children: Vec<(usize, Child)> = Vec::new();
    let kill_all = |children: &mut Vec<(usize, Child)>| {
        for (_, child) in children.iter_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    };
    for shard in 0..cfg.workers {
        let mut cmd = Command::new(&exe);
        cmd.env(ENV_SHARD, shard.to_string())
            .env(ENV_WORKERS, cfg.workers.to_string())
            .env(ENV_TRANSPORT, cfg.transport.as_str())
            .env(ENV_DIR, dir)
            .env(ENV_CYCLES, cfg.cycles.as_u64().to_string())
            .env(ENV_SPEC, &cfg.spec)
            .stdin(Stdio::null());
        if let Some(hook) = &cfg.worker_panic {
            cmd.env(ENV_PANIC, hook);
        }
        if let Some(path) = &cfg.scenario {
            cmd.env(ENV_SCENARIO, path);
        }
        if let Some(plan) = &cfg.plan {
            cmd.env(ENV_PLAN, plan.encode());
        }
        if let Some(at) = cfg.checkpoint_at {
            cmd.env(ENV_CKPT_AT, at.as_u64().to_string());
        }
        if let Some(path) = &cfg.restore_from {
            cmd.env(ENV_RESTORE, path);
        }
        match cmd.spawn() {
            Ok(child) => {
                emit_event(
                    &mut stream,
                    0,
                    "worker_spawn",
                    format!("shard{shard} pid={}", child.id()),
                );
                children.push((shard, child));
            }
            Err(e) => {
                kill_all(&mut children);
                return Err(fail(
                    SimError::io(format!("spawning worker shard {shard}"), &e),
                    Some(format!("shard{shard}")),
                    false,
                ));
            }
        }
    }

    // Supervise: any nonzero exit or the deadline kills the whole fleet —
    // the cross-process analogue of the supervisor's watchdog.
    let mut exited: HashSet<usize> = HashSet::new();
    let mut remaining = children.len();
    while remaining > 0 {
        if start.elapsed() > cfg.deadline {
            kill_all(&mut children);
            return Err(fail(
                SimError::aborted(format!(
                    "partitioned run exceeded its {:?} deadline",
                    cfg.deadline
                )),
                None,
                true,
            ));
        }
        let mut failure: Option<(usize, String)> = None;
        for (shard, child) in children.iter_mut() {
            if failure.is_some() {
                break;
            }
            match child.try_wait() {
                Ok(None) => {}
                Ok(Some(status)) if status.success() => {}
                Ok(Some(status)) => {
                    let msg = std::fs::read_to_string(dir.join(format!("shard{shard}.error")))
                        .unwrap_or_else(|_| format!("worker exited with {status}"));
                    failure = Some((*shard, msg.trim().to_owned()));
                }
                Err(e) => failure = Some((*shard, format!("waiting on worker: {e}"))),
            }
        }
        if let Some((shard, msg)) = failure {
            kill_all(&mut children);
            return Err(fail(
                SimError::agent(format!("shard{shard}"), msg),
                Some(format!("shard{shard}")),
                false,
            ));
        }
        // try_wait returning Ok(Some(success)) keeps returning that same
        // status on subsequent polls, so counting exits each pass is safe.
        remaining = 0;
        for (shard, c) in children.iter_mut() {
            if matches!(c.try_wait(), Ok(None)) {
                remaining += 1;
            } else if exited.insert(*shard) {
                emit_event(&mut stream, 0, "worker_exit", format!("shard{shard} done"));
            }
        }
        if remaining > 0 {
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    // Merge the shard results.
    let mut digests: Vec<(String, u64)> = Vec::new();
    let mut reports: Vec<RunReport> = Vec::new();
    let mut cycles = 0u64;
    for shard in 0..cfg.workers {
        let path = dir.join(format!("shard{shard}.result.json"));
        let text = std::fs::read_to_string(&path).map_err(|e| {
            fail(
                SimError::io(format!("reading {}", path.display()), &e),
                None,
                false,
            )
        })?;
        let (shard_cycles, shard_digests, report) = parse_worker_result(&text)
            .map_err(|e| fail(e, Some(format!("shard{shard}")), false))?;
        if shard > 0 && shard_cycles != cycles {
            return Err(fail(
                SimError::protocol(format!(
                    "shard {shard} reached cycle {shard_cycles}, others {cycles}: \
                     the fleet desynchronised"
                )),
                Some(format!("shard{shard}")),
                false,
            ));
        }
        cycles = shard_cycles;
        digests.extend(shard_digests);
        reports.push(report);
    }
    let digest = combined_digest(&digests);
    digests.sort();

    // Fold the per-shard checkpoint files into one name-sorted FSCKPT01
    // checkpoint any future sharding can restore from.
    if let (Some(at), Some(out)) = (cfg.checkpoint_at, &cfg.checkpoint_out) {
        let parts = (0..cfg.workers)
            .map(|shard| {
                EngineCheckpoint::<Flit>::load_from(dir.join(format!("shard{shard}.ckpt")))
            })
            .collect::<SimResult<Vec<_>>>()
            .map_err(|e| fail(e, None, false))?;
        EngineCheckpoint::merge(parts)
            .and_then(|cp| cp.save_to(out))
            .map_err(|e| fail(e, None, false))?;
        emit_event(
            &mut stream,
            at.as_u64(),
            "checkpoint",
            format!("merged checkpoint saved to {}", out.display()),
        );
    }

    let mut report = RunReport::merge_shards(&reports).map_err(|e| fail(e, None, false))?;
    report.cost = cfg.cost.clone();
    if let Some(w) = &mut stream {
        let _ = w.emit(&StreamRecord::RunEnd(RunEndRecord {
            cycle: cycles,
            intervals: 0,
            wall_ns: start.elapsed().as_nanos() as u64,
            done: false,
        }));
    }
    Ok(PartitionedRun {
        workers: cfg.workers,
        cycles: Cycle::new(cycles),
        combined_digest: digest,
        digests,
        report,
        wall: start.elapsed(),
    })
}

/// `(cycles, per-agent digests, report)` parsed from a worker's result file.
type WorkerResult = (u64, Vec<(String, u64)>, RunReport);

fn parse_worker_result(text: &str) -> SimResult<WorkerResult> {
    let value: serde_json::Value = serde_json::from_str(text)
        .map_err(|e| SimError::checkpoint(format!("malformed worker result: {e}")))?;
    let obj = value
        .as_object()
        .ok_or_else(|| SimError::checkpoint("worker result must be an object"))?;
    let cycles = obj
        .get("cycles")
        .and_then(serde_json::Value::as_u64)
        .ok_or_else(|| SimError::checkpoint("worker result missing cycles"))?;
    let digests = match obj.get("digests") {
        Some(serde_json::Value::Array(items)) => items
            .iter()
            .map(|d| {
                let d = d
                    .as_object()
                    .ok_or_else(|| SimError::checkpoint("digest entry must be an object"))?;
                let name = d
                    .get("name")
                    .and_then(serde_json::Value::as_str)
                    .ok_or_else(|| SimError::checkpoint("digest missing name"))?;
                let hash = d
                    .get("hash")
                    .and_then(serde_json::Value::as_u64)
                    .ok_or_else(|| SimError::checkpoint("digest missing hash"))?;
                Ok((name.to_owned(), hash))
            })
            .collect::<SimResult<Vec<_>>>()?,
        _ => return Err(SimError::checkpoint("worker result missing digests")),
    };
    let report = obj
        .get("report")
        .ok_or_else(|| SimError::checkpoint("worker result missing report"))
        .and_then(|r| {
            RunReport::from_json(&r.to_string_pretty())
                .map_err(|e| SimError::checkpoint(format!("re-parsing shard report: {e}")))
        })?;
    Ok((cycles, digests, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::BladeSpec;
    use firesim_blade::programs;
    use proptest::prelude::*;

    fn racked_topology(racks: usize, per_rack: usize) -> Topology {
        let mut topo = Topology::new();
        let root = topo.add_switch("root");
        for r in 0..racks {
            let tor = topo.add_switch(format!("tor{r}"));
            topo.add_downlink(root, tor).unwrap();
            for n in 0..per_rack {
                let id = topo.add_server(
                    format!("n{r}x{n}"),
                    BladeSpec::rtl_single_core(programs::boot_poweroff(50)),
                );
                topo.add_downlink(tor, id).unwrap();
            }
        }
        topo
    }

    #[test]
    fn contiguous_plan_keeps_racks_together() {
        let topo = racked_topology(4, 2); // 8 servers, 4 ToRs + root
        let plan = PartitionPlan::contiguous(&topo, 4).unwrap();
        // Two servers per shard, each rack whole.
        assert_eq!(
            (0..8).map(|i| plan.server_shard(i)).collect::<Vec<_>>(),
            vec![0, 0, 1, 1, 2, 2, 3, 3]
        );
        // ToR r follows its rack; root follows server 0's shard.
        assert_eq!(plan.switch_shard(0), 0); // root
        assert_eq!(
            (1..5).map(|s| plan.switch_shard(s)).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(plan.shard_sizes().iter().sum::<usize>(), 8 + 5);
    }

    #[test]
    fn plan_rejects_bad_worker_counts() {
        let topo = racked_topology(1, 2);
        assert!(PartitionPlan::contiguous(&topo, 0).is_err());
        assert!(PartitionPlan::contiguous(&topo, 3).is_err());
        assert!(PartitionPlan::contiguous(&topo, 2).is_ok());
    }

    #[test]
    fn contiguous_single_shard_owns_everything() {
        let topo = racked_topology(2, 2);
        let plan = PartitionPlan::contiguous(&topo, 1).unwrap();
        assert_eq!(plan.workers(), 1);
        assert_eq!(plan.shard_sizes(), vec![4 + 3]);
        assert!((0..4).all(|i| plan.server_shard(i) == 0));
        assert!((0..3).all(|s| plan.switch_shard(s) == 0));
    }

    #[test]
    fn contiguous_switch_only_subtree_defaults_to_shard_zero() {
        // A subtree with no servers anywhere below it is possible on
        // not-yet-validated topologies; the plan parks it on shard 0
        // rather than panicking.
        let mut topo = racked_topology(2, 1);
        let empty = topo.add_switch("empty-agg");
        let leaf = topo.add_switch("empty-leaf");
        topo.add_downlink(empty, leaf).unwrap();
        let plan = PartitionPlan::contiguous(&topo, 2).unwrap();
        // Switches: root(0), tor0(1), tor1(2), empty-agg(3), empty-leaf(4).
        assert_eq!(plan.switch_shard(2), 1, "tor1 follows its server");
        assert_eq!(plan.switch_shard(3), 0);
        assert_eq!(plan.switch_shard(4), 0);
    }

    #[test]
    fn assignment_plans_validate_fold_and_round_trip() {
        // Servers n0x0,n0x1,n1x0,n1x1; switches root(0),tor0(1),tor1(2).
        let topo = racked_topology(2, 2);
        // Load-aware-style plan: rack 1 on shard 0, rack 0 on shard 1,
        // root alone on a switch-only shard (legal here, unlike
        // `contiguous`).
        let plan =
            PartitionPlan::from_assignment(&topo, 3, vec![1, 1, 0, 0], vec![2, 1, 0]).unwrap();
        assert_eq!(plan.shard_sizes(), vec![3, 3, 1]);
        let enc = plan.encode();
        assert_eq!(PartitionPlan::decode(&topo, &enc).unwrap(), plan);

        // Folding onto 2 workers maps shard h -> h * 2 / 3.
        let folded = plan.fold(2).unwrap();
        assert_eq!(folded.workers(), 2);
        assert_eq!(folded.shard_sizes(), vec![6, 1]);
        assert!(plan.fold(0).is_err());
        assert!(plan.fold(4).is_err());

        // Out-of-range shard, empty shard, and length mismatches are
        // typed errors, as is a truncated or garbled wire form.
        assert!(PartitionPlan::from_assignment(&topo, 2, vec![0, 0, 0, 2], vec![0, 0, 0]).is_err());
        assert!(PartitionPlan::from_assignment(&topo, 3, vec![0, 0, 0, 0], vec![1, 1, 1]).is_err());
        assert!(PartitionPlan::from_assignment(&topo, 2, vec![0, 0], vec![0, 0, 1]).is_err());
        assert!(PartitionPlan::decode(&topo, "2;0,0,1,1").is_err());
        assert!(PartitionPlan::decode(&topo, "junk").is_err());

        // A worker count beyond the agent count is rejected before it
        // sizes anything: one shard per agent is the most there can be.
        let one = racked_topology(1, 1); // n0x0; root, tor0
        assert!(PartitionPlan::decode(&one, "3;0;1,2").is_ok());
        for enc in ["4;0;1,2", "18446744073709551615;0;0,0"] {
            let err = PartitionPlan::decode(&one, enc).unwrap_err();
            assert!(err.to_string().contains("agent(s) across"), "{enc}: {err}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `FIRESIM_PART_PLAN` is outside input: any string decodes to a
        /// valid plan or a typed error, never a panic.
        #[test]
        fn decode_never_panics(pieces in proptest::collection::vec(prop_oneof![
            Just("0"), Just("1"), Just("2"), Just("7"), Just(";"), Just(","), Just(""),
            Just("-1"), Just("x"), Just("4294967296"), Just("18446744073709551615"),
        ], 0..16)) {
            let topo = racked_topology(2, 2);
            let text = pieces.concat();
            if let Ok(plan) = PartitionPlan::decode(&topo, &text) {
                prop_assert!(plan.workers() <= 4 + 3, "{text:?}");
                prop_assert_eq!(PartitionPlan::decode(&topo, &plan.encode()).unwrap(), plan);
            }
        }
    }

    #[test]
    fn plan_rejects_duplicate_names() {
        let mut topo = Topology::new();
        let tor = topo.add_switch("tor");
        for _ in 0..2 {
            let n = topo.add_server(
                "same-name",
                BladeSpec::rtl_single_core(programs::boot_poweroff(1)),
            );
            topo.add_downlink(tor, n).unwrap();
        }
        let err = PartitionPlan::contiguous(&topo, 2).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn transport_choice_parses() {
        assert_eq!(TransportChoice::parse("shm").unwrap(), TransportChoice::Shm);
        assert_eq!(TransportChoice::parse("tcp").unwrap(), TransportChoice::Tcp);
        assert_eq!(
            TransportChoice::parse("uds").unwrap(),
            TransportChoice::Unix
        );
        assert!(TransportChoice::parse("carrier-pigeon").is_err());
    }

    /// Two shards of a two-rack topology, wired over in-process boundary
    /// pumps via real shm rings in one process — the single-process dry
    /// run of what `run_partitioned` does across processes.
    #[test]
    fn sharded_build_exposes_boundary_ports() {
        let topo = racked_topology(2, 2);
        let plan = PartitionPlan::contiguous(&topo, 2).unwrap();
        let mut shard0 = racked_topology(2, 2)
            .build_shard(SimConfig::default(), &plan, 0)
            .unwrap();
        let mut shard1 = topo.build_shard(SimConfig::default(), &plan, 1).unwrap();
        let b0 = shard0.take_boundaries();
        let b1 = shard1.take_boundaries();
        // One tree edge (root -> tor1) crosses the cut; two directed links.
        assert_eq!(b0.outputs.len(), 1);
        assert_eq!(b0.inputs.len(), 1);
        assert_eq!(b1.outputs.len(), 1);
        assert_eq!(b1.inputs.len(), 1);
        // The ids pair up: shard0's output id is shard1's input id.
        assert_eq!(b0.outputs[0].0, b1.inputs[0].0);
        assert_eq!(b1.outputs[0].0, b0.inputs[0].0);
    }

    #[test]
    fn monolithic_build_has_no_boundaries() {
        let mut sim = racked_topology(2, 2).build(SimConfig::default()).unwrap();
        assert!(sim.take_boundaries().is_empty());
    }
}
