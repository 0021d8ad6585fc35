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
//!   current binary), hands each its shard, joins every pair of shards
//!   that share a cut link with one [`TokenTransport`] connection
//!   (shared-memory ring, TCP, or Unix-domain socket), supervises the
//!   fleet against a deadline, and merges the workers' results.
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
//! paper's manager works — every host runs the same configuration).
//!
//! One function, `run_shard`, runs a shard: it builds the topology,
//! validates the plan against it, builds the shard, applies the scenario,
//! arms the panic hook, restores, connects to its peers, runs the
//! checkpoint leg and the final leg, and returns the shard's cycles,
//! digests and [`RunReport`]. A 1-worker run calls it in-process for shard
//! 0 of a 1-shard plan, which has no peers. With more workers the parent
//! encodes the [`PartitionConfig`] as `FIRESIM_PART_*` environment
//! variables (`worker_env`, with its inverse `worker_config` beside it)
//! and re-executes itself once per shard; the child's [`maybe_worker`]
//! decodes them, calls `run_shard`, writes `shard{i}.result.json` (its
//! cycles, digests and report as one JSON document), and exits. A nonzero
//! worker exit (or the deadline) makes the parent kill the remaining fleet
//! and return a [`FailureReport`] naming the dead shard — the cross-process
//! extension of the supervisor's watchdog.
//!
//! ## Host plane
//!
//! The paper pays one host-to-host transfer per batch of one link latency
//! of tokens (§III-B2); here that transfer is one round frame per peer
//! shard, however many links the cut puts between them, and it runs on the
//! engine's own worker 0 — a worker starts no thread beyond its engine's.
//! A worker with *p* peers holds *p* connections. After every round, worker
//! 0 drains window *r* of every cut link, encodes one frame per peer in an
//! order both shards derive from the topology
//! ([`firesim_net::codec::push_round_entry`]), sends every frame while
//! taking in what the peers send meanwhile
//! ([`firesim_platform::link::send_all`]), then receives each peer's
//! frame *r*, checks every link's sequence number, and injects the windows
//! before round *r* + 1. The last round's exchange refills every boundary
//! input, so a run ends quiescent with nothing left in flight. Each
//! worker's report counts its frames and bytes as `host_transport_sends`
//! and `host_transport_bytes`.

use std::collections::{BTreeMap, HashSet};
use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use firesim_core::{
    combined_digest, BoundaryInput, BoundaryOutput, Cycle, EngineCheckpoint, FaultPlan,
    RoundExchange, SimError, SimResult, TokenWindow,
};
use firesim_net::codec::{push_round_entry, seal_round_frame, MAX_TOKEN_FRAME_BYTES};
use firesim_net::Flit;
use firesim_platform::link::send_all;
use firesim_platform::{ShmTransport, SocketListener, SocketTransport, TokenTransport};

use crate::report::RunReport;
use crate::simulation::{ShardBoundaries, SimConfig, Simulation};
use crate::stream::{
    EventRecord, RunEndRecord, RunStartRecord, StreamMeta, StreamRecord, StreamSession,
    StreamWriter,
};
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
    /// assignment against `topo`.
    ///
    /// # Errors
    ///
    /// Rejects malformed strings and anything
    /// [`PartitionPlan::from_assignment`] rejects.
    pub fn decode(topo: &Topology, s: &str) -> SimResult<PartitionPlan> {
        Self::parse(s)?.validated(topo)
    }

    /// Parses [`PartitionPlan::encode`] output without a topology: the
    /// plan is unchecked until [`validated`](Self::validated).
    fn parse(s: &str) -> SimResult<PartitionPlan> {
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
        Ok(PartitionPlan {
            workers,
            server_shard,
            switch_shard,
        })
    }

    /// This plan, checked against `topo` as
    /// [`from_assignment`](Self::from_assignment) checks a new one.
    fn validated(&self, topo: &Topology) -> SimResult<PartitionPlan> {
        let (servers, switches) = (self.server_shard.clone(), self.switch_shard.clone());
        Self::from_assignment(topo, self.workers, servers, switches)
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
    /// window boundary by the engine). The merged checkpoint is a
    /// consistent cut of the whole simulation without any rendezvous:
    /// the lockstep round exchange leaves every boundary input holding
    /// exactly its seeded windows when a worker checkpoints, and no peer
    /// can send it anything more until its next exchange.
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

/// The environment of shard `shard`'s worker process: every option of
/// `cfg` that a worker reads, and the rendezvous directory `dir`.
/// [`worker_config`] is the inverse.
fn worker_env(cfg: &PartitionConfig, shard: usize, dir: &Path) -> Vec<(&'static str, OsString)> {
    let decimal = |n: u64| Some(OsString::from(n.to_string()));
    let env: [(_, Option<OsString>); 11] = [
        (ENV_SHARD, decimal(shard as u64)),
        (ENV_WORKERS, decimal(cfg.workers as u64)),
        (ENV_TRANSPORT, Some(cfg.transport.as_str().into())),
        (ENV_DIR, Some(dir.into())),
        (ENV_CYCLES, decimal(cfg.cycles.as_u64())),
        (ENV_SPEC, Some(cfg.spec.clone().into())),
        (ENV_PANIC, cfg.worker_panic.clone().map(Into::into)),
        (ENV_SCENARIO, cfg.scenario.clone().map(Into::into)),
        (ENV_PLAN, cfg.plan.as_ref().map(|p| p.encode().into())),
        (
            ENV_CKPT_AT,
            cfg.checkpoint_at.and_then(|c| decimal(c.as_u64())),
        ),
        (ENV_RESTORE, cfg.restore_from.clone().map(Into::into)),
    ];
    env.into_iter()
        .filter_map(|(name, value)| Some((name, value?)))
        .collect()
}

/// Decodes [`worker_env`]'s output, read through `var`, into the worker's
/// shard and the config it runs. The plan is parsed but not yet checked
/// against a topology (`run_shard` does that), the shard checkpoint goes
/// to `shard{i}.ckpt` in the rendezvous directory, and the options only
/// the parent reads keep their defaults.
///
/// # Errors
///
/// A missing or malformed variable is a [`SimError::Protocol`], an unknown
/// transport a [`SimError::Topology`].
fn worker_config(var: impl Fn(&str) -> Option<OsString>) -> SimResult<(usize, PartitionConfig)> {
    let text = |name: &str| {
        var(name)
            .map(|v| v.into_string())
            .transpose()
            .map_err(|_| SimError::protocol(format!("{name} is not UTF-8")))
    };
    let missing = |name: &str| SimError::protocol(format!("worker missing {name}"));
    let required = |name: &str| text(name)?.ok_or_else(|| missing(name));
    fn number<N: std::str::FromStr>(name: &str, v: String) -> SimResult<N> {
        v.parse()
            .map_err(|_| SimError::protocol(format!("bad {name} {v:?}")))
    }
    let shard: usize = number(ENV_SHARD, required(ENV_SHARD)?)?;
    let dir = PathBuf::from(var(ENV_DIR).ok_or_else(|| missing(ENV_DIR))?);
    let mut cfg = PartitionConfig::new(
        number(ENV_WORKERS, required(ENV_WORKERS)?)?,
        Cycle::new(number(ENV_CYCLES, required(ENV_CYCLES)?)?),
        required(ENV_SPEC)?,
    );
    cfg.transport = TransportChoice::parse(&required(ENV_TRANSPORT)?)?;
    cfg.worker_panic = text(ENV_PANIC)?;
    cfg.scenario = text(ENV_SCENARIO)?;
    let plan = text(ENV_PLAN)?.map(|p| PartitionPlan::parse(&p));
    cfg.plan = plan.transpose()?;
    let at = text(ENV_CKPT_AT)?.map(|at| number(ENV_CKPT_AT, at));
    cfg.checkpoint_at = at.transpose()?.map(Cycle::new);
    cfg.checkpoint_out = cfg
        .checkpoint_at
        .map(|_| dir.join(format!("shard{shard}.ckpt")));
    cfg.restore_from = var(ENV_RESTORE).map(PathBuf::from);
    cfg.rendezvous = Some(dir);
    Ok((shard, cfg))
}

/// Exit codes a worker uses for simulation failures (vs. spawn problems):
/// its own, and a transport failure — usually a peer's failure seen from
/// this end.
const WORKER_FAILURE_EXIT: i32 = 70;
const WORKER_TRANSPORT_EXIT: i32 = 71;

/// Worker-mode hook: call first in `main` of any binary that invokes
/// [`run_partitioned`].
///
/// When the process was spawned as a partition worker (the parent set
/// `FIRESIM_PART_SHARD`), this builds and runs the worker's shard and
/// **exits the process** — it only ever returns (with `false`) in the
/// parent. The indirection exists because workers are re-executions of
/// the current binary: there is no separate worker executable to ship.
pub fn maybe_worker(build: BuildFn) -> bool {
    if std::env::var_os(ENV_SHARD).is_none() {
        return false;
    }
    let (shard, cfg) = worker_config(|name| std::env::var_os(name)).unwrap_or_else(|e| {
        eprintln!("invalid partition worker environment: {e}");
        std::process::exit(2);
    });
    let dir = cfg.rendezvous.clone().unwrap_or_default();
    let ran = run_shard(build, &cfg, shard).and_then(|run| {
        write_atomic(
            &dir.join(format!("shard{shard}.result.json")),
            run.to_value().to_string_pretty().as_bytes(),
        )
    });
    match ran {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            let msg = e.to_string();
            let _ = std::fs::write(dir.join(format!("shard{shard}.error")), &msg);
            eprintln!("worker shard {shard} failed: {msg}");
            std::process::exit(match e {
                SimError::Protocol { .. } => WORKER_TRANSPORT_EXIT,
                _ => WORKER_FAILURE_EXIT,
            });
        }
    }
}

/// Loads and compiles a scenario script against `topo`'s neutral view.
fn load_scenario(path: &str, topo: &Topology) -> SimResult<firesim_core::CompiledScenario> {
    crate::scenario::load(path)?.compile(&topo.scenario_topology())
}

/// Parses a `"<shard>:<agent>@<cycle>"` panic hook.
fn parse_panic_hook(hook: &str) -> SimResult<(usize, &str, u64)> {
    let parse = || -> Option<(usize, &str, u64)> {
        let (shard_s, rest) = hook.split_once(':')?;
        let (agent, cycle_s) = rest.split_once('@')?;
        Some((shard_s.parse().ok()?, agent, cycle_s.parse().ok()?))
    };
    parse().ok_or_else(|| SimError::topology(format!("bad {ENV_PANIC} spec {hook:?}")))
}

/// Arms the fault of a panic hook that names `shard`.
fn install_panic_hook(sim: &mut Simulation, shard: usize, hook: &str) -> SimResult<()> {
    let (target_shard, agent, cycle) = parse_panic_hook(hook)?;
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
fn run_id(cfg: &PartitionConfig) -> String {
    let (spec, workers, cycles) = (&cfg.spec, cfg.workers, cfg.cycles.as_u64());
    format!("{spec}#{workers}w#{cycles}c#{}", cfg.transport.as_str())
}

/// One shard's outcome: cycles simulated, per-agent digests and report.
struct ShardRun {
    cycles: u64,
    digests: Vec<(String, u64)>,
    report: RunReport,
}

impl ShardRun {
    /// The worker's result file: `{"cycles", "digests": {name: hash},
    /// "report"}`.
    fn to_value(&self) -> serde_json::Value {
        use serde_json::Value;
        let digests = self.digests.iter();
        let digests = digests.map(|(name, hash)| (name.clone(), Value::from(*hash)));
        Value::Object(BTreeMap::from([
            ("cycles".to_owned(), Value::from(self.cycles)),
            ("digests".to_owned(), Value::Object(digests.collect())),
            ("report".to_owned(), self.report.to_value()),
        ]))
    }

    fn from_value(v: &serde_json::Value) -> SimResult<ShardRun> {
        let bad = |what: &str| SimError::checkpoint(format!("malformed worker result: {what}"));
        let cycles = v.get("cycles").and_then(serde_json::Value::as_u64);
        let digests = v.get("digests").and_then(serde_json::Value::as_object);
        let report = v.get("report").ok_or_else(|| bad("no report"))?;
        Ok(ShardRun {
            cycles: cycles.ok_or_else(|| bad("no cycles"))?,
            digests: digests
                .ok_or_else(|| bad("no digests"))?
                .iter()
                .map(|(name, hash)| Ok((name.clone(), hash.as_u64().ok_or_else(|| bad(name))?)))
                .collect::<SimResult<_>>()?,
            report: RunReport::from_value(report).map_err(|e| bad(&e.to_string()))?,
        })
    }
}

/// Runs shard `shard` of `cfg` to the absolute `cfg.cycles` target (see
/// the module's worker protocol). Only a shard with no peer, a 1-worker
/// run, may stream its legs (`cfg.stream`).
///
/// The checkpoint files of one run form a consistent cut of the whole
/// simulation with no rendezvous: every leg ends with its last exchange,
/// which leaves each boundary input holding exactly its seeded windows,
/// and no peer can inject anything into this shard between its legs — a
/// peer already into its next leg waits, its frame in the transport, for
/// this shard's next exchange.
fn run_shard(build: BuildFn, cfg: &PartitionConfig, shard: usize) -> SimResult<ShardRun> {
    let (topo, config) = build(&cfg.spec)?;
    let plan = match &cfg.plan {
        Some(plan) => plan.validated(&topo)?,
        None => PartitionPlan::contiguous(&topo, cfg.workers)?,
    };
    if plan.workers() != cfg.workers {
        return Err(SimError::topology(format!(
            "config says {} workers but the plan has {} shards",
            cfg.workers,
            plan.workers()
        )));
    }
    // Compile against the full topology before the build consumes it;
    // every shard compiles the same script against the same tree, then
    // applies only its own share.
    let scenario = match &cfg.scenario {
        Some(path) => Some(load_scenario(path, &topo)?),
        None => None,
    };
    let mut sim = topo.build_shard(config, &plan, shard)?;
    if let Some(sc) = &scenario {
        sim.apply_scenario(sc)?;
    }
    if let Some(hook) = &cfg.worker_panic {
        install_panic_hook(&mut sim, shard, hook)?;
    }
    // Restore before any exchange (restoring replaces every input queue,
    // so it would discard windows already injected), and by name: merged
    // checkpoints are name-sorted, not registration-ordered.
    if let Some(path) = &cfg.restore_from {
        sim.restore_by_name(&EngineCheckpoint::load_from(path)?)?;
    }
    // Only a shard with peers reads the rendezvous directory.
    let dir = cfg.rendezvous.clone().unwrap_or_default();
    let mut exchange = connect_peers(sim.take_boundaries(), shard, cfg.transport, &dir)?;

    // A streamed run advances in interval-sized legs instead of one long
    // one — the leg-splitting the checkpoint/repartition paths already
    // prove is digest-identical. The probe primes at the current cycle,
    // so restored runs stream deltas from the restore point.
    let mut stream = match &cfg.stream {
        Some(spec) => {
            sim.enable_metrics();
            let meta = StreamMeta {
                run_id: Some(run_id(cfg)),
                spec: cfg.spec.clone(),
                workers: cfg.workers as u64,
                transport: None,
            };
            let writer = StreamWriter::open(spec)?;
            let interval = cfg.stream_interval.unwrap_or(0);
            let mut session = StreamSession::begin(writer, &meta, &mut sim, cfg.cycles, interval)?;
            if let Some(path) = &cfg.restore_from {
                let label = format!("restored from {}", path.display());
                session.event(sim.now().as_u64(), "restore", &label)?;
            }
            Some(session)
        }
        None => None,
    };
    let began = sim.now();
    let mut wall = Duration::ZERO;
    let mut run_to =
        |sim: &mut Simulation, stream: &mut Option<StreamSession>, to: Cycle| match stream {
            Some(session) => session.run_to(sim, to, false),
            None => {
                let cycles = Cycle::new(to.as_u64() - sim.now().as_u64());
                wall += sim
                    .engine_mut()
                    .run_for_exchanging(cycles, &mut exchange)?
                    .wall;
                Ok(())
            }
        };
    if let Some(at) = cfg.checkpoint_at {
        if at.as_u64() > began.as_u64() && at.as_u64() <= cfg.cycles.as_u64() {
            run_to(&mut sim, &mut stream, at)?;
            if let Some(out) = &cfg.checkpoint_out {
                sim.checkpoint()?.save_to(out)?;
                if let Some(session) = &mut stream {
                    let label = format!("checkpoint saved to {}", out.display());
                    session.event(at.as_u64(), "checkpoint", &label)?;
                }
            }
        }
    }
    if cfg.cycles.as_u64() > sim.now().as_u64() {
        run_to(&mut sim, &mut stream, cfg.cycles)?;
    }
    if let Some(session) = stream {
        wall += session.finish(&sim)?.wall;
    }

    let digests = sim.engine_mut().agent_digests()?;
    let mut report = sim.run_report(wall);
    report.run_id = Some(run_id(cfg));
    if !exchange.peers.is_empty() {
        let counters = [("sends", exchange.sends), ("bytes", exchange.bytes)];
        for (name, n) in counters {
            report.counters.push((format!("host_transport_{name}"), n));
        }
    }
    Ok(ShardRun {
        cycles: sim.now().as_u64() - began.as_u64(),
        digests,
        report,
    })
}

/// One peer shard: the connection to it and the cut links it carries, each
/// direction in link-id order — an order both shards derive from the
/// topology alone, so a link's index among this shard's outputs is its
/// index among the peer's inputs.
struct Peer {
    shard: usize,
    conn: Box<dyn TokenTransport<Flit>>,
    outputs: Vec<BoundaryOutput<Flit>>,
    inputs: Vec<BoundaryInput<Flit>>,
    send_seqs: Vec<u64>,
    recv_seqs: Vec<u64>,
    /// This round's frames for the peer.
    frames: Vec<u8>,
}

/// A shard's side of every peer connection, which engine worker 0 runs
/// once per round (see [`RoundExchange`]). Counts the round frames it sent
/// and their bytes.
#[derive(Default)]
struct Exchange {
    peers: Vec<Peer>,
    /// One peer's `(link, window)` entries of the round at hand.
    round: Vec<(usize, TokenWindow<Flit>)>,
    frame: Vec<u8>,
    sends: u64,
    bytes: u64,
}

impl Exchange {
    /// Drains, encodes and sends this round's windows to every peer, then
    /// receives and injects every peer's.
    fn round(&mut self, halt: &AtomicBool) -> SimResult<()> {
        let Exchange {
            peers,
            round,
            frame,
            sends,
            bytes,
        } = self;
        for peer in peers.iter_mut() {
            for (link, out) in peer.outputs.iter().enumerate() {
                let w = out
                    .drain_or_halt(halt)?
                    .ok_or_else(|| closed(out.agent()))?;
                round.push((link, w));
            }
            peer.frames.clear();
            encode_round(round, &mut peer.send_seqs, frame, ROUND_SPLIT_BYTES, |f| {
                peer.frames.extend_from_slice(f);
                *sends += 1;
                *bytes += f.len() as u64;
                Ok(())
            })?;
            for (link, w) in round.drain(..) {
                peer.outputs[link].recycle(w);
            }
        }
        let (mut conns, mut frames): (Vec<_>, Vec<_>) = peers
            .iter_mut()
            .map(|p| (&mut *p.conn, &p.frames[..]))
            .unzip();
        send_all(&mut conns, &mut frames, halt)?;
        for peer in peers.iter_mut() {
            let mut got = 0;
            while got < peer.inputs.len() {
                if !peer.conn.recv_round(&mut peer.recv_seqs, halt, round)? {
                    return Err(SimError::protocol(format!(
                        "peer shard {} closed its connection mid-run",
                        peer.shard
                    )));
                }
                got += round.len();
                for (link, w) in round.drain(..) {
                    let input = &peer.inputs[link];
                    if input.inject_or_halt(w, halt)?.is_some() {
                        return Err(closed(input.agent()));
                    }
                }
            }
        }
        Ok(())
    }
}

/// The error of a wait that the run's halt broke: a symptom, which the
/// engine reports only if nothing recorded the cause.
fn closed(agent: &str) -> SimError {
    SimError::ChannelClosed {
        agent: agent.to_owned(),
    }
}

impl RoundExchange for Exchange {
    fn exchange(&mut self, halt: &AtomicBool) -> SimResult<()> {
        self.round(halt).map_err(|e| {
            if halt.load(Ordering::SeqCst) {
                closed("round exchange")
            } else {
                e
            }
        })
    }
}

/// Rendezvous name of the connection between shards `lo < hi`.
fn pair_name(lo: usize, hi: usize) -> String {
    format!("s{lo}-{hi}")
}

/// Opens one connection per peer shard and groups the boundary ports by
/// peer, in link-id order.
///
/// The lower shard of each pair creates (shm) or listens, the higher one
/// connects, and the lower one accepts. Every worker finishes all its
/// creates before any connect and all its connects before any accept, an
/// ordering that cannot deadlock.
fn connect_peers(
    boundaries: ShardBoundaries,
    shard: usize,
    transport: TransportChoice,
    dir: &Path,
) -> SimResult<Exchange> {
    enum Pending {
        Ready(Box<dyn TokenTransport<Flit>>),
        Listening(SocketListener),
    }
    let ShardBoundaries {
        mut outputs,
        mut inputs,
    } = boundaries;
    outputs.sort_by(|a, b| a.0.cmp(&b.0));
    inputs.sort_by(|a, b| a.0.cmp(&b.0));
    type Ports = (Vec<BoundaryOutput<Flit>>, Vec<BoundaryInput<Flit>>);
    let mut peers: BTreeMap<usize, Ports> = BTreeMap::new();
    for (_, peer, out) in outputs {
        peers.entry(peer).or_default().0.push(out);
    }
    for (_, peer, inp) in inputs {
        peers.entry(peer).or_default().1.push(inp);
    }
    // Nothing breaks these waits but the parent's deadline.
    let never = AtomicBool::new(false);

    // Phase 1: create every endpoint this shard owns, so every peer's
    // connect phase finds something to attach to.
    let mut pending = BTreeMap::new();
    for &peer in peers.keys().filter(|&&peer| peer > shard) {
        let name = dir.join(pair_name(shard, peer));
        let endpoint = match transport {
            TransportChoice::Shm => Pending::Ready(Box::new(ShmTransport::create(&name)?)),
            TransportChoice::Tcp => {
                let listener = SocketListener::tcp("127.0.0.1:0")?;
                let addr = listener.local_addr()?.to_string();
                write_atomic(&name.with_extension("addr"), addr.as_bytes())?;
                Pending::Listening(listener)
            }
            TransportChoice::Unix => {
                Pending::Listening(SocketListener::unix(&name.with_extension("sock"))?)
            }
        };
        pending.insert(peer, endpoint);
    }

    // Phase 2: connect to every lower peer. Blocks until that peer
    // finishes its phase 1, which it does unconditionally.
    for &peer in peers.keys().filter(|&&peer| peer < shard) {
        let name = dir.join(pair_name(peer, shard));
        let conn: Box<dyn TokenTransport<Flit>> = match transport {
            TransportChoice::Shm => Box::new(ShmTransport::open(&name, &never)?),
            TransportChoice::Tcp => {
                let addr = poll_read(&name.with_extension("addr"));
                Box::new(SocketTransport::connect_tcp(&addr, &never)?)
            }
            TransportChoice::Unix => Box::new(SocketTransport::connect_unix(
                &name.with_extension("sock"),
                &never,
            )?),
        };
        pending.insert(peer, Pending::Ready(conn));
    }

    // Phase 3: accept. Blocks until the peer finishes its phase 2.
    let mut exchange = Exchange::default();
    for (peer, (outputs, inputs)) in peers {
        let conn = match pending.remove(&peer) {
            Some(Pending::Ready(conn)) => conn,
            Some(Pending::Listening(listener)) => Box::new(listener.accept::<Flit>()?),
            None => unreachable!("phases 1 and 2 open every peer's connection"),
        };
        exchange.peers.push(Peer {
            shard: peer,
            conn,
            send_seqs: vec![0; outputs.len()],
            recv_seqs: vec![0; inputs.len()],
            outputs,
            inputs,
            frames: Vec::new(),
        });
    }
    Ok(exchange)
}

/// A round whose frame outgrows this ships as more than one frame, so no
/// frame nears the decoder's ceiling however many links a cut holds.
const ROUND_SPLIT_BYTES: usize = MAX_TOKEN_FRAME_BYTES / 2;

/// Encodes one round's `(link, window)` entries into round frames built in
/// `frame`, numbering each link from `seqs`, and hands every sealed frame
/// to `ship`. A frame that reaches `split_at` bytes is shipped before the
/// next entry, so a round goes out as one frame unless it is that large.
fn encode_round(
    round: &[(usize, TokenWindow<Flit>)],
    seqs: &mut [u64],
    frame: &mut Vec<u8>,
    split_at: usize,
    mut ship: impl FnMut(&[u8]) -> SimResult<()>,
) -> SimResult<()> {
    let mut seal_and_ship = |frame: &mut Vec<u8>| {
        seal_round_frame(frame);
        let shipped = ship(frame);
        frame.clear();
        shipped
    };
    for (link, w) in round {
        push_round_entry(frame, *link as u32, seqs[*link], w);
        seqs[*link] += 1;
        if frame.len() >= split_at {
            seal_and_ship(frame)?;
        }
    }
    if !frame.is_empty() {
        seal_and_ship(frame)?;
    }
    Ok(())
}

/// Polls a rendezvous file into a string (trimmed). Only the parent's
/// deadline ends the wait.
fn poll_read(path: &Path) -> String {
    loop {
        if let Ok(s) = std::fs::read_to_string(path) {
            if !s.trim().is_empty() {
                return s.trim().to_owned();
            }
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
/// (see [`maybe_worker`]) and supervised against `cfg.deadline`. Either
/// way the shard runs through the same function.
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
    let runs = if cfg.workers == 1 {
        vec![run_shard(build, cfg, 0).map_err(|e| failure(e, None, false))?]
    } else {
        let dir = match &cfg.rendezvous {
            Some(d) => d.clone(),
            None => std::env::temp_dir().join(format!(
                "firesim-part-{}-{}",
                std::process::id(),
                RUN_SEQ.fetch_add(1, Ordering::Relaxed)
            )),
        };
        std::fs::create_dir_all(&dir)
            .map_err(|e| failure(SimError::io("creating rendezvous dir", &e), None, false))?;
        let runs = run_fleet(cfg, &dir, start);
        if cfg.rendezvous.is_none() {
            let _ = std::fs::remove_dir_all(&dir);
        }
        runs?
    };
    let cycles = Cycle::new(runs[0].cycles);
    let mut digests = Vec::new();
    let mut reports = Vec::new();
    for run in runs {
        digests.extend(run.digests);
        reports.push(run.report);
    }
    let combined_digest = combined_digest(&digests);
    digests.sort();
    // A fleet's shard reports merge (which rejects shards that reached
    // different cycles); a lone shard's report is the run's.
    let mut report = match reports.len() {
        1 => reports.remove(0),
        _ => RunReport::merge_shards(&reports).map_err(|e| failure(e, None, false))?,
    };
    report.cost = cfg.cost.clone();
    Ok(PartitionedRun {
        workers: cfg.workers,
        cycles,
        digests,
        combined_digest,
        report,
        wall: start.elapsed(),
    })
}

/// The failure of a partitioned run, naming `shard` when one is to blame.
fn failure(error: SimError, shard: Option<usize>, deadline: bool) -> Box<FailureReport> {
    Box::new(FailureReport {
        error,
        failing_agent: shard.map(|s| format!("shard{s}")),
        fail_cycle: 0,
        last_checkpoint: None,
        attempts: 1,
        injected_faults: Vec::new(),
        stalled: false,
        deadline_exceeded: deadline,
    })
}

/// Spawns and supervises one worker process per shard, then collects
/// their results and merges their checkpoints.
fn run_fleet(
    cfg: &PartitionConfig,
    dir: &Path,
    start: Instant,
) -> Result<Vec<ShardRun>, Box<FailureReport>> {
    let exe = std::env::current_exe()
        .map_err(|e| failure(SimError::io("locating current executable", &e), None, false))?;

    // The fleet parent streams merge points only: it never builds the
    // topology, so per-interval samples come from single-worker runs
    // (or future per-shard feeds), and the parent's feed carries worker
    // lifecycle, checkpoint-merge markers, and the final summary.
    // Worker exit order is host-dependent, so fleet feeds are not
    // golden-fixtured (DESIGN §17).
    let mut stream = match &cfg.stream {
        Some(spec) => {
            let mut w = StreamWriter::open(spec).map_err(|e| failure(e, None, false))?;
            w.emit(&StreamRecord::RunStart(RunStartRecord {
                run_id: Some(run_id(cfg)),
                spec: cfg.spec.clone(),
                agents: 0,
                workers: cfg.workers as u64,
                target_cycles: cfg.cycles.as_u64(),
                window: 0,
                interval: 0,
                transport: Some(cfg.transport.as_str().to_owned()),
            }))
            .map_err(|e| failure(e, None, false))?;
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
        let spawned = Command::new(&exe)
            .envs(worker_env(cfg, shard, dir))
            .stdin(Stdio::null())
            .spawn();
        match spawned {
            Ok(child) => {
                let spawned = format!("shard{shard} pid={}", child.id());
                emit_event(&mut stream, 0, "worker_spawn", spawned);
                children.push((shard, child));
            }
            Err(e) => {
                kill_all(&mut children);
                let e = SimError::io(format!("spawning worker shard {shard}"), &e);
                return Err(failure(e, Some(shard), false));
            }
        }
    }

    // Supervise: any nonzero exit or the deadline kills the whole fleet —
    // the cross-process analogue of the supervisor's watchdog.
    let mut failed: Vec<(usize, String, bool)> = Vec::new();
    while !children.is_empty() {
        let deadline = cfg.deadline;
        if start.elapsed() > deadline {
            kill_all(&mut children);
            let e = SimError::aborted(format!(
                "partitioned run exceeded its {deadline:?} deadline"
            ));
            return Err(failure(e, None, true));
        }
        children.retain_mut(|(shard, child)| match child.try_wait() {
            Ok(None) => true,
            Ok(Some(status)) if status.success() => {
                emit_event(&mut stream, 0, "worker_exit", format!("shard{shard} done"));
                false
            }
            Ok(Some(status)) => {
                let msg = std::fs::read_to_string(dir.join(format!("shard{shard}.error")))
                    .unwrap_or_else(|_| format!("worker exited with {status}"));
                let transport = status.code() == Some(WORKER_TRANSPORT_EXIT);
                failed.push((*shard, msg.trim().to_owned(), transport));
                false
            }
            Err(e) => {
                failed.push((*shard, format!("waiting on worker: {e}"), false));
                true
            }
        });
        // A transport failure is usually a peer's failure seen from the
        // other end: it is the cause only if no other shard fails.
        let cause = failed.iter().find(|(_, _, transport)| !transport);
        if let Some((shard, msg, _)) = cause.or(failed.first().filter(|_| children.is_empty())) {
            let e = SimError::agent(format!("shard{shard}"), msg.clone());
            let shard = *shard;
            kill_all(&mut children);
            return Err(failure(e, Some(shard), false));
        }
        if !children.is_empty() {
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    let runs = (0..cfg.workers)
        .map(|shard| {
            let path = dir.join(format!("shard{shard}.result.json"));
            std::fs::read_to_string(&path)
                .map_err(|e| SimError::io(format!("reading {}", path.display()), &e))
                .and_then(|text| {
                    serde_json::from_str(&text)
                        .map_err(|e| SimError::checkpoint(format!("malformed worker result: {e}")))
                })
                .and_then(|value| ShardRun::from_value(&value))
                .map_err(|e| failure(e, Some(shard), false))
        })
        .collect::<Result<Vec<_>, _>>()?;

    // Fold the per-shard checkpoint files into one name-sorted FSCKPT01
    // checkpoint any future sharding can restore from.
    if let (Some(at), Some(out)) = (cfg.checkpoint_at, &cfg.checkpoint_out) {
        let parts = (0..cfg.workers)
            .map(|shard| {
                EngineCheckpoint::<Flit>::load_from(dir.join(format!("shard{shard}.ckpt")))
            })
            .collect::<SimResult<Vec<_>>>()
            .map_err(|e| failure(e, None, false))?;
        EngineCheckpoint::merge(parts)
            .and_then(|cp| cp.save_to(out))
            .map_err(|e| failure(e, None, false))?;
        emit_event(
            &mut stream,
            at.as_u64(),
            "checkpoint",
            format!("merged checkpoint saved to {}", out.display()),
        );
    }
    if let Some(w) = &mut stream {
        let _ = w.emit(&StreamRecord::RunEnd(RunEndRecord {
            cycle: runs[0].cycles,
            intervals: 0,
            wall_ns: start.elapsed().as_nanos() as u64,
            done: false,
        }));
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::BladeSpec;
    use firesim_blade::programs;
    use firesim_core::{AgentCtx, Engine, SimAgent};
    use proptest::prelude::*;
    use std::sync::Arc;

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

    /// Text made of what could break an encoding: separators, spaces, path
    /// characters and non-ASCII.
    fn awkward_text() -> impl Strategy<Value = String> {
        let piece = prop_oneof![
            Just("n"),
            Just("7"),
            Just(";"),
            Just(","),
            Just(" "),
            Just("="),
            Just(":"),
            Just("@"),
            Just("/"),
            Just("é"),
            Just("→"),
            Just("\u{1F980}"),
        ];
        proptest::collection::vec(piece, 0..12).prop_map(|p| p.concat())
    }

    /// Reads an encoded worker environment as a worker reads its own.
    fn lookup<'a>(env: &'a [(&str, OsString)]) -> impl Fn(&str) -> Option<OsString> + 'a {
        move |name| env.iter().find(|(n, _)| *n == name).map(|(_, v)| v.clone())
    }

    /// A path with a byte that is not UTF-8 in it.
    fn raw_path(text: &str) -> PathBuf {
        use std::os::unix::ffi::OsStringExt;
        PathBuf::from(text).join(OsString::from_vec(vec![b'r', 0xff, b'/']))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every option a worker reads decodes to what the parent encoded.
        #[test]
        fn worker_env_round_trips(
            spec in awkward_text(),
            path in awkward_text(),
            scenario in proptest::option::of(awkward_text()),
            hook in proptest::option::of(awkward_text()),
            workers in 1usize..6,
            cycles in any::<u64>(),
            at in proptest::option::of(any::<u64>()),
            transport in 0usize..3,
            servers in proptest::collection::vec(0usize..6, 0..6),
            switches in proptest::option::of(proptest::collection::vec(0usize..6, 0..4)),
            restore in any::<bool>(),
        ) {
            let mut cfg = PartitionConfig::new(workers, Cycle::new(cycles), spec);
            cfg.transport =
                [TransportChoice::Shm, TransportChoice::Tcp, TransportChoice::Unix][transport];
            cfg.worker_panic = hook;
            cfg.scenario = scenario;
            cfg.plan = switches.map(|switch_shard| PartitionPlan {
                workers,
                server_shard: servers,
                switch_shard,
            });
            cfg.checkpoint_at = at.map(Cycle::new);
            cfg.restore_from = Some(raw_path(&path)).filter(|_| restore);
            let (shard, dir) = (workers - 1, raw_path(&path).join("rendezvous"));
            let env = worker_env(&cfg, shard, &dir);
            let (got_shard, got) = worker_config(lookup(&env)).unwrap();
            prop_assert_eq!(got_shard, shard);
            prop_assert_eq!(got.workers, cfg.workers);
            prop_assert_eq!(got.transport, cfg.transport);
            prop_assert_eq!(got.cycles, cfg.cycles);
            prop_assert_eq!(&got.spec, &cfg.spec);
            prop_assert_eq!(&got.worker_panic, &cfg.worker_panic);
            prop_assert_eq!(&got.scenario, &cfg.scenario);
            prop_assert_eq!(&got.plan, &cfg.plan);
            prop_assert_eq!(got.checkpoint_at, cfg.checkpoint_at);
            prop_assert_eq!(&got.restore_from, &cfg.restore_from);
            let ckpt = cfg.checkpoint_at.map(|_| dir.join(format!("shard{shard}.ckpt")));
            prop_assert_eq!(got.checkpoint_out, ckpt);
            prop_assert_eq!(got.rendezvous, Some(dir));
        }

        /// A worker variable that is missing, garbled or not UTF-8 decodes to
        /// a typed error, never a panic; so does a garbled panic hook.
        #[test]
        fn malformed_worker_env_is_a_typed_error(
            victim in 0usize..11,
            junk in proptest::collection::vec(prop_oneof![
                Just("x"), Just("-1"), Just(""), Just(";"), Just(","), Just("9"), Just(":"),
                Just("@"), Just("é"), Just("18446744073709551616"), Just("\u{0}"),
            ], 0..5),
            how in 0usize..3,
        ) {
            let mut cfg = PartitionConfig::new(2, Cycle::new(64_000), "fig8,nodes=4");
            cfg.worker_panic = Some("1:n0x1@100".to_owned());
            cfg.scenario = Some("chaos.json".to_owned());
            cfg.plan = Some(PartitionPlan::contiguous(&racked_topology(2, 2), 2).unwrap());
            cfg.checkpoint_at = Some(Cycle::new(32_000));
            cfg.restore_from = Some(PathBuf::from("merged.ckpt"));
            let mut env = worker_env(&cfg, 1, Path::new("rendezvous"));
            prop_assert_eq!(env.len(), 11);
            let junk = junk.concat();
            match how {
                0 => drop(env.remove(victim)),
                1 => env[victim].1 = junk.clone().into(),
                _ => {
                    use std::os::unix::ffi::OsStringExt;
                    env[victim].1 = OsString::from_vec(vec![b'1', 0xff]);
                }
            }
            let typed = |e: &SimError| {
                matches!(e, SimError::Protocol { .. } | SimError::Topology { .. })
            };
            match worker_config(lookup(&env)) {
                Ok((_, got)) => {
                    if let Some(Err(e)) = got.worker_panic.as_deref().map(parse_panic_hook) {
                        prop_assert!(typed(&e), "{e}");
                    }
                }
                Err(e) => prop_assert!(typed(&e), "{e}"),
            }
            if let Err(e) = parse_panic_hook(&junk) {
                prop_assert!(typed(&e), "{e}");
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

    /// Two shards of a two-rack topology expose matching boundary ports:
    /// the ones `run_partitioned` wires across processes.
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
        // Each side names the other as the link's peer.
        assert_eq!((b0.outputs[0].1, b0.inputs[0].1), (1, 1));
        assert_eq!((b1.outputs[0].1, b1.inputs[0].1), (0, 0));
    }

    /// The comm names of this process's threads whose name starts with
    /// `prefix`. Linux gives a thread its creator's name unless it is
    /// named, so every thread a named thread starts is counted with it.
    fn threads_named(prefix: &str) -> usize {
        std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.starts_with(prefix))
            .count()
    }

    /// A worker with *p* peers starts no thread beyond its engine's: with
    /// every connection open and rounds exchanged, a shard's thread is the
    /// only one it runs, and it sends one frame per peer per round.
    #[test]
    fn a_worker_starts_no_thread_beyond_its_engines() {
        const ROUNDS: u64 = 4;
        // Every switch on shard 0, rack 0's three blades on shard 1, rack
        // 1's on shard 2: shard 0 shares six directed links with each peer.
        let plan = PartitionPlan::from_assignment(
            &racked_topology(2, 3),
            3,
            vec![1, 1, 1, 2, 2, 2],
            vec![0, 0, 0],
        )
        .unwrap();
        let dir = std::env::temp_dir().join(format!("firesim-xchg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let counted = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for shard in 0..3 {
                let (plan, dir, counted) = (&plan, &dir, &counted);
                std::thread::Builder::new()
                    .name(format!("xchg-shard{shard}"))
                    .spawn_scoped(scope, move || {
                        let mut sim = racked_topology(2, 3)
                            .build_shard(SimConfig::default(), plan, shard)
                            .unwrap();
                        let boundaries = sim.take_boundaries();
                        let links = boundaries.outputs.len() + boundaries.inputs.len();
                        assert_eq!(links, if shard == 0 { 12 } else { 6 });
                        let mut exchange =
                            connect_peers(boundaries, shard, TransportChoice::Unix, dir).unwrap();
                        let window = SimConfig::default().link_latency;
                        sim.engine_mut()
                            .run_for_exchanging(Cycle::new(ROUNDS * window.as_u64()), &mut exchange)
                            .unwrap();
                        let peers = if shard == 0 { 2 } else { 1 };
                        assert_eq!(exchange.sends, ROUNDS * peers, "shard {shard}");
                        counted.wait();
                        counted.wait();
                    })
                    .unwrap();
            }
            counted.wait();
            assert_eq!(threads_named("xchg-shard"), 3);
            counted.wait();
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A dense flit on every cycle of every output: `data` is the output's
    /// tag in the high half and the cycle in the low half.
    struct Flood {
        tags: Vec<u64>,
    }

    impl SimAgent for Flood {
        type Token = Flit;
        fn name(&self) -> &str {
            "flood"
        }
        fn num_inputs(&self) -> usize {
            0
        }
        fn num_outputs(&self) -> usize {
            self.tags.len()
        }
        fn advance(&mut self, ctx: &mut AgentCtx<Flit>) {
            let base = ctx.now().as_u64();
            for (port, &tag) in self.tags.iter().enumerate() {
                for off in 0..ctx.window() {
                    let data = tag << 32 | (base + u64::from(off));
                    ctx.push_output(
                        port,
                        off,
                        Flit {
                            data,
                            len: 8,
                            last: false,
                        },
                    );
                }
            }
        }
    }

    /// A dense window of the [`Flood`] output tagged `tag` for round
    /// `round`.
    fn flood_window(tag: usize, round: u64, window: u32) -> TokenWindow<Flit> {
        let mut w = TokenWindow::new(window);
        for off in 0..window {
            let data = (tag as u64) << 32 | (round * u64::from(window) + u64::from(off));
            w.push(
                off,
                Flit {
                    data,
                    len: 8,
                    last: false,
                },
            )
            .unwrap();
        }
        w
    }

    /// Checks that input port `p` carries the [`Flood`] output tagged
    /// `tags[p]`, `latency` cycles late: counts the flits it saw and the
    /// ones that were not the expected flit.
    struct Sink {
        tags: Vec<u64>,
        latency: u64,
        seen: Arc<AtomicU64>,
        bad: Arc<AtomicU64>,
    }

    impl SimAgent for Sink {
        type Token = Flit;
        fn name(&self) -> &str {
            "sink"
        }
        fn num_inputs(&self) -> usize {
            self.tags.len()
        }
        fn num_outputs(&self) -> usize {
            0
        }
        fn advance(&mut self, ctx: &mut AgentCtx<Flit>) {
            let base = ctx.now().as_u64();
            for (port, &tag) in self.tags.iter().enumerate() {
                for (off, flit) in ctx.drain_input(port) {
                    let at = base + u64::from(off);
                    self.seen.fetch_add(1, Ordering::Relaxed);
                    if at < self.latency || flit.data != tag << 32 | (at - self.latency) {
                        self.bad.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    /// Three shards that each send every round to both peers at once, with
    /// every round frame larger than the shm ring and the socket buffer,
    /// neither deadlock nor lose, reorder or corrupt a window.
    #[test]
    fn three_shards_exchange_rounds_larger_than_the_ring_and_socket_buffer() {
        const SHARDS: usize = 3;
        /// Cut links from each shard to each peer.
        const LINKS: usize = 8;
        /// 40 000 dense flits encode to ~560 KB a window, 4.5 MB a frame.
        const WINDOW: u32 = 40_000;
        const ROUNDS: u64 = 3;
        let tag = |src: usize, dst: usize, k: usize| ((src * SHARDS + dst) * LINKS + k) as u64;
        let dir = std::env::temp_dir().join(format!("firesim-dense-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for transport in [TransportChoice::Shm, TransportChoice::Unix] {
            let dir = dir.join(transport.as_str());
            std::fs::create_dir_all(&dir).unwrap();
            std::thread::scope(|scope| {
                for shard in 0..SHARDS {
                    let dir = &dir;
                    scope.spawn(move || {
                        let peers: Vec<usize> = (0..SHARDS).filter(|&q| q != shard).collect();
                        let cut = || peers.iter().flat_map(|&q| (0..LINKS).map(move |k| (q, k)));
                        let (seen, bad) =
                            (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
                        let mut engine = Engine::new(WINDOW);
                        let flood = engine.add_agent(Box::new(Flood {
                            tags: cut().map(|(q, k)| tag(shard, q, k)).collect(),
                        }));
                        let sink = engine.add_agent(Box::new(Sink {
                            tags: cut().map(|(q, k)| tag(q, shard, k)).collect(),
                            latency: u64::from(WINDOW),
                            seen: Arc::clone(&seen),
                            bad: Arc::clone(&bad),
                        }));
                        let latency = Cycle::new(u64::from(WINDOW));
                        let mut boundaries = ShardBoundaries::default();
                        for (port, (q, k)) in cut().enumerate() {
                            let out = engine
                                .connect_external_output(flood, port, latency)
                                .unwrap();
                            let inp = engine.connect_external_input(sink, port, latency).unwrap();
                            boundaries
                                .outputs
                                .push((format!("{shard}>{q}:{k}"), q, out));
                            boundaries.inputs.push((format!("{q}>{shard}:{k}"), q, inp));
                        }
                        let mut exchange =
                            connect_peers(boundaries, shard, transport, dir).unwrap();
                        engine
                            .run_for_exchanging(
                                Cycle::new(ROUNDS * u64::from(WINDOW)),
                                &mut exchange,
                            )
                            .unwrap();
                        engine.verify_token_invariant().unwrap();
                        let ports = (peers.len() * LINKS) as u64;
                        assert_eq!(exchange.sends, ROUNDS * peers.len() as u64);
                        assert!(exchange.bytes > ROUNDS * ports * 500_000, "{transport:?}");
                        // Round 0 consumes the seed windows.
                        let want = (ROUNDS - 1) * ports * u64::from(WINDOW);
                        assert_eq!(
                            seen.load(Ordering::Relaxed),
                            want,
                            "{transport:?} shard {shard}"
                        );
                        assert_eq!(
                            bad.load(Ordering::Relaxed),
                            0,
                            "{transport:?} shard {shard}"
                        );
                    });
                }
            });
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A peer that reads one frame every 50 ms, each frame larger than the
    /// socket buffer and the shm ring, still gets every window in order,
    /// and the run ends quiescent.
    #[test]
    fn slow_peer_gets_every_window_and_the_run_ends_quiescent() {
        const LINKS: usize = 10;
        const ROUNDS: u64 = 6;
        const WINDOW: u32 = 40_000;
        let dir = std::env::temp_dir().join(format!("firesim-slow-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for transport in [TransportChoice::Shm, TransportChoice::Unix] {
            let mut engine = Engine::new(WINDOW);
            let flood = engine.add_agent(Box::new(Flood {
                tags: (0..LINKS as u64).collect(),
            }));
            let (seen, bad) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
            let sink = engine.add_agent(Box::new(Sink {
                tags: vec![0; LINKS],
                latency: u64::from(WINDOW),
                seen: Arc::clone(&seen),
                bad: Arc::clone(&bad),
            }));
            let latency = Cycle::new(u64::from(WINDOW));
            let mut boundaries = ShardBoundaries::default();
            for link in 0..LINKS {
                let out = engine
                    .connect_external_output(flood, link, latency)
                    .unwrap();
                let inp = engine.connect_external_input(sink, link, latency).unwrap();
                boundaries.outputs.push((format!("{link:02}"), 1, out));
                boundaries.inputs.push((format!("{link:02}"), 1, inp));
            }

            // The peer, shard 1: reads a round every 50 ms and answers it
            // with empty windows.
            let name = dir.join(pair_name(0, 1));
            let peer = std::thread::spawn(move || {
                let never = AtomicBool::new(false);
                let mut conn: Box<dyn TokenTransport<Flit>> = match transport {
                    TransportChoice::Shm => Box::new(ShmTransport::open(&name, &never).unwrap()),
                    _ => Box::new(
                        SocketTransport::connect_unix(&name.with_extension("sock"), &never)
                            .unwrap(),
                    ),
                };
                let (mut recv_seqs, mut send_seqs) = (vec![0u64; LINKS], vec![0u64; LINKS]);
                let mut round = Vec::new();
                let mut frame = Vec::new();
                for r in 0..ROUNDS {
                    std::thread::sleep(Duration::from_millis(50));
                    assert!(conn.recv_round(&mut recv_seqs, &never, &mut round).unwrap());
                    assert_eq!(round.len(), LINKS, "{transport:?} round {r}");
                    for (link, w) in round.drain(..) {
                        assert!(
                            w == flood_window(link, r, WINDOW),
                            "{transport:?} round {r}"
                        );
                    }
                    let empty: Vec<_> = (0..LINKS).map(|l| (l, TokenWindow::new(WINDOW))).collect();
                    encode_round(&empty, &mut send_seqs, &mut frame, ROUND_SPLIT_BYTES, |f| {
                        conn.send_frame(f, &never)
                    })
                    .unwrap();
                }
                assert_eq!(recv_seqs, vec![ROUNDS; LINKS]);
            });

            let mut exchange = connect_peers(boundaries, 0, transport, &dir).unwrap();
            engine
                .run_for_exchanging(Cycle::new(ROUNDS * u64::from(WINDOW)), &mut exchange)
                .unwrap_or_else(|e| panic!("{transport:?}: {e}"));
            peer.join().unwrap();
            assert_eq!(exchange.sends, ROUNDS, "{transport:?}");
            engine.verify_token_invariant().unwrap();
            assert_eq!(
                seen.load(Ordering::Relaxed),
                0,
                "the peer sent only empty windows"
            );
            assert_eq!(bad.load(Ordering::Relaxed), 0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A round split into several frames decodes to the same windows and
    /// sequence numbers as the same round in one frame.
    #[test]
    fn split_rounds_decode_to_the_same_windows() {
        const LINKS: usize = 5;
        let rounds: Vec<Vec<(usize, TokenWindow<Flit>)>> = (0..4u64)
            .map(|r| {
                (0..LINKS)
                    // Round 2 skips link 3: a round may carry any subset.
                    .filter(|&link| r != 2 || link != 3)
                    .map(|link| {
                        let mut w = flood_window(link, r, 16);
                        w.retain(|off, _| off % (link as u32 + 1) == 0);
                        (link, w)
                    })
                    .collect()
            })
            .collect();
        let entries: usize = rounds.iter().map(Vec::len).sum();
        // One entry per frame, a split mid-round, and no split at all.
        for (split_at, frames) in [(1, entries), (300, 8), (ROUND_SPLIT_BYTES, rounds.len())] {
            let mut send_seqs = vec![0u64; LINKS];
            let mut frame = Vec::new();
            let mut wire = Vec::new();
            let mut shipped = 0;
            for round in &rounds {
                encode_round(round, &mut send_seqs, &mut frame, split_at, |f| {
                    wire.extend_from_slice(f);
                    shipped += 1;
                    Ok(())
                })
                .unwrap();
            }
            assert_eq!(shipped, frames, "split at {split_at}");

            let mut deframer = firesim_net::codec::TokenDeframer::new();
            deframer.feed(&wire);
            let mut recv_seqs = vec![0u64; LINKS];
            let mut got = Vec::new();
            while deframer.next_round(&mut recv_seqs, &mut got).unwrap() {}
            assert_eq!(deframer.buffered_bytes(), 0);
            assert_eq!(recv_seqs, send_seqs);
            assert_eq!(recv_seqs, [4, 4, 4, 3, 4]);
            let sent: Vec<_> = rounds.iter().flatten().cloned().collect();
            assert!(got == sent, "split at {split_at}");
        }
    }

    #[test]
    fn monolithic_build_has_no_boundaries() {
        let mut sim = racked_topology(2, 2).build(SimConfig::default()).unwrap();
        assert!(sim.take_boundaries().is_empty());
    }
}
