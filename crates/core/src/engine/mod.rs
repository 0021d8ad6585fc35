//! The simulation engine: agents, wiring, and deterministic execution.
//!
//! An [`Engine`] owns a set of [`SimAgent`]s (server blades, switches,
//! instrumentation) and the latency channels connecting them. Execution
//! proceeds in *rounds* of one token window each: every round, every agent
//! consumes exactly one window per input port and produces exactly one window
//! per output port. Channels are pre-seeded with one link-latency of empty
//! tokens, so the whole system can start immediately and never deadlocks —
//! exactly the scheme in §III-B2 of the FireSim paper.
//!
//! ## Determinism
//!
//! Because an agent's `advance` sees exactly the tokens for its current
//! window and nothing else, the simulation result is a pure function of the
//! initial state. [`Engine::run_for`] produces bit-identical results whether
//! run with 1 host thread or many — and regardless of how agents are
//! partitioned across those threads; the property tests in this crate and
//! the integration suite check this.
//!
//! ## Host parallelism and scheduling
//!
//! With [`Engine::set_host_threads`], agents are partitioned across host
//! worker threads; every worker count, one included, runs the same loop,
//! and worker 0 is the calling thread. Workers do not run in lockstep — a
//! worker only blocks when a channel it needs is still empty — mirroring
//! how FireSim decouples host nodes and lets the token flow control enforce
//! ordering.
//!
//! Workers are never oversubscribed: requests for more threads than the
//! host has cores are clamped (see [`Engine::set_host_threads`]), because
//! extra workers on a saturated host only add context-switch overhead.
//!
//! The partition is *load-aware*: each agent's host cost is measured during
//! the first chunk of rounds (or supplied up front via
//! [`Engine::set_agent_weight`]) and agents are re-packed across workers
//! with a greedy longest-processing-time heuristic at a deterministic chunk
//! boundary. A heavyweight RTL blade and a near-idle switch therefore no
//! longer land on the same worker by round-robin accident. Because the
//! token protocol alone fixes the simulation result, rebalancing never
//! changes simulated behaviour — only wall-clock time.
//!
//! ## Host cost
//!
//! The steady-state hot path performs **no heap allocation**: consumed
//! input windows are recycled back to their link's spare pool
//! ([`LinkReceiver::recycle`](crate::LinkReceiver::recycle)), output
//! windows are drawn from that pool
//! ([`LinkSender::take_buffer`](crate::LinkSender::take_buffer)), and the
//! per-agent scratch vectors live in the agent's slot between rounds. Nor
//! does it make a syscall on any link whose peer is not asleep: a link
//! wakes its peer only when the peer has parked (see [`crate::channel`]),
//! which on one thread is never. Blocking operations use condvar-based
//! waits (microsecond wakeups) rather than coarse timeout polling, and stop
//! requests are honoured at deterministic chunk boundaries so that early
//! termination cannot introduce nondeterminism.
//!
//! ## Layout
//!
//! This module holds the [`Engine`] itself: construction, wiring and
//! observability. The rest is split by concern: `agent` (the agent trait,
//! its per-round context and the stepping of one agent), `schedule`
//! (running rounds on host workers), `boundary` (cross-process links) and
//! `checkpoint` (snapshot, restore and the on-disk format).

mod agent;
mod boundary;
mod checkpoint;
mod schedule;
#[cfg(test)]
mod tests;

pub use agent::{AgentCtx, SimAgent};
pub use boundary::{BoundaryInput, BoundaryOutput};
pub use checkpoint::{combined_digest, EngineCheckpoint};
pub use schedule::{AbortHandle, ProgressProbe, RunSummary, StopHandle};

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use crate::channel::link;
use crate::error::{SimError, SimResult};
use crate::fault::{FaultPlan, FaultRecord, RecoveryTimeline};
use crate::metrics::{AgentProfile, IntervalProbe, IntervalSnapshot, MetricsRegistry, SpanTracer};
use crate::time::Cycle;

use agent::AgentSlot;
use schedule::ProgressShared;

/// Identifier of an agent registered with an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AgentId(usize);

impl AgentId {
    /// The raw index of this agent within its engine.
    pub fn index(self) -> usize {
        self.0
    }
}

/// The occupancy of one connected input link, reported by
/// [`Engine::link_occupancies`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkOccupancy {
    /// Receiving agent's name.
    pub agent: String,
    /// Receiving agent's input port.
    pub port: usize,
    /// Modeled link latency in cycles.
    pub latency: u64,
    /// Tokens currently in flight (`queued windows × window length`). At a
    /// quiescent boundary this equals `latency` (a boundary input may hold
    /// more: its peer shard can already be into its next run).
    pub in_flight_tokens: u64,
}

/// The simulation executor. See the [module docs](self) for the execution
/// model.
pub struct Engine<T> {
    window: u32,
    agents: Vec<AgentSlot<T>>,
    now: Cycle,
    host_threads: usize,
    oversubscribe: bool,
    chunk_rounds: u64,
    stop: Arc<AtomicBool>,
    /// Set by [`AbortHandle::abort`]; re-armed at run start.
    abort: Arc<AtomicBool>,
    abort_reason: Arc<parking_lot::Mutex<Option<String>>>,
    /// Worker wake-up flag shared with abort handles so an abort can break
    /// workers out of blocking channel waits; re-armed at run start.
    run_halt: Arc<AtomicBool>,
    fault_plan: Option<FaultPlan>,
    progress: Option<Arc<ProgressShared>>,
    /// Installed by [`Engine::enable_metrics`]; absent = zero cost.
    metrics: Option<Arc<MetricsRegistry>>,
    /// Installed by [`Engine::enable_tracing`]; absent = zero cost.
    tracer: Option<Arc<SpanTracer>>,
    /// `(agent index, input port)` of every link whose sender lives outside
    /// this engine (another process or an external pump). See
    /// [`Engine::connect_external_input`].
    boundary_inputs: Vec<(usize, usize)>,
    /// How long [`Engine::run_for`] waits at the end of a run for external
    /// boundary inputs to refill to their seeded occupancy before declaring
    /// the peer dead. See [`Engine::set_boundary_quiesce_timeout`].
    boundary_quiesce_timeout: Duration,
}

impl<T: Send + 'static> Engine<T> {
    /// Creates an engine exchanging token windows of `window` cycles.
    ///
    /// In FireSim the window equals the smallest link latency being modeled
    /// (the paper's "batch size = link latency" rule).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: u32) -> Self {
        assert!(window > 0, "engine window must be nonzero");
        Engine {
            window,
            agents: Vec::new(),
            now: Cycle::ZERO,
            host_threads: 1,
            oversubscribe: false,
            chunk_rounds: 16,
            stop: Arc::new(AtomicBool::new(false)),
            abort: Arc::new(AtomicBool::new(false)),
            abort_reason: Arc::new(parking_lot::Mutex::new(None)),
            run_halt: Arc::new(AtomicBool::new(false)),
            fault_plan: None,
            progress: None,
            metrics: None,
            tracer: None,
            boundary_inputs: Vec::new(),
            boundary_quiesce_timeout: Duration::from_secs(30),
        }
    }

    /// The engine's window length in cycles.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Current target time (start of the next unsimulated window).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of registered agents.
    pub fn agent_count(&self) -> usize {
        self.agents.len()
    }

    /// True when every registered agent reports [`SimAgent::done`]. This is
    /// the same condition [`Engine::run_until_done`] checks at chunk
    /// boundaries; callers driving the engine in short bursts (e.g. a
    /// supervisor taking periodic checkpoints) use it to decide whether
    /// another burst is needed, since a burst shorter than one scheduler
    /// chunk always reports its full cycle budget even if all agents
    /// finished mid-way.
    pub fn all_done(&self) -> bool {
        self.agents.iter().all(|s| s.agent.done())
    }

    /// Ids of all registered agents, in registration order.
    pub fn agent_ids(&self) -> impl Iterator<Item = AgentId> + '_ {
        (0..self.agents.len()).map(AgentId)
    }

    /// Installs a fault plan; faults fire during subsequent runs. Handing a
    /// clone of the same plan to a rebuilt engine preserves one-shot
    /// (transient) fault semantics — see [`FaultPlan`].
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> &mut Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Merges `plan` into the installed fault plan, or installs a clone of
    /// it when none is installed. Merged entries keep their own seeds and
    /// shared fired-flags (see [`FaultPlan::merge_from`]) — this is how
    /// scenario-derived plans compose with user fault plans.
    pub fn merge_fault_plan(&mut self, plan: &FaultPlan) -> &mut Self {
        match &mut self.fault_plan {
            Some(existing) => existing.merge_from(plan),
            None => self.fault_plan = Some(plan.clone()),
        }
        self
    }

    /// Provenance of injected faults that have fired so far (empty when no
    /// plan is installed).
    pub fn fault_records(&self) -> Vec<FaultRecord> {
        self.fault_plan
            .as_ref()
            .map(FaultPlan::records)
            .unwrap_or_default()
    }

    /// The recovery timeline accumulated by the installed fault plan's
    /// link watches, or `None` when no plan records one.
    pub fn fault_timeline(&self) -> Option<RecoveryTimeline> {
        self.fault_plan
            .as_ref()
            .and_then(FaultPlan::recovery_timeline)
    }

    /// Names of the registered agents, in registration order.
    pub fn agent_names(&self) -> Vec<String> {
        self.agents
            .iter()
            .map(|s| s.agent.name().to_owned())
            .collect()
    }

    /// Enables metrics collection and per-agent profiling for subsequent
    /// runs, returning the engine's registry (creating it on first call).
    ///
    /// Workers record into private [`MetricsShard`](crate::MetricsShard)s
    /// and fold them into the registry at chunk boundaries, so the hot path
    /// stays contention-free; when metrics have never been enabled the
    /// engine holds no registry and pays nothing at all.
    pub fn enable_metrics(&mut self) -> Arc<MetricsRegistry> {
        if self.metrics.is_none() {
            self.metrics = Some(Arc::new(MetricsRegistry::new()));
        }
        Arc::clone(self.metrics.as_ref().expect("just installed"))
    }

    /// The metrics registry, when [`Engine::enable_metrics`] has been
    /// called.
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref()
    }

    /// Enables span tracing for subsequent runs, returning the engine's
    /// tracer (creating it on first call). Export the collected spans with
    /// [`SpanTracer::export_chrome_trace`] after the run.
    pub fn enable_tracing(&mut self) -> Arc<SpanTracer> {
        if self.tracer.is_none() {
            self.tracer = Some(Arc::new(SpanTracer::new()));
        }
        Arc::clone(self.tracer.as_ref().expect("just installed"))
    }

    /// The span tracer, when [`Engine::enable_tracing`] has been called.
    pub fn tracer(&self) -> Option<&Arc<SpanTracer>> {
        self.tracer.as_ref()
    }

    /// The profile accumulated for one agent across metric-enabled runs.
    ///
    /// All zeros until [`Engine::enable_metrics`] is called.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this engine.
    pub fn agent_profile(&self, id: AgentId) -> AgentProfile {
        self.agents[id.0].profile
    }

    /// `(name, profile)` for every agent, in registration order.
    pub fn agent_profiles(&self) -> Vec<(String, AgentProfile)> {
        self.agents
            .iter()
            .map(|s| (s.agent.name().to_owned(), s.profile))
            .collect()
    }

    /// `(name, application counters)` for every agent, in registration
    /// order, as reported by [`SimAgent::app_counters`]. Agents that do
    /// not export counters contribute an empty list.
    pub fn agent_app_counters(&self) -> Vec<(String, Vec<(String, u64)>)> {
        self.agents
            .iter()
            .map(|s| {
                let mut counters = Vec::new();
                s.agent.app_counters(&mut counters);
                (s.agent.name().to_owned(), counters)
            })
            .collect()
    }

    /// Samples the per-interval telemetry delta at the current quiescent
    /// boundary (the live-streaming hook, DESIGN §17).
    ///
    /// Diffs the cumulative [`AgentProfile`]s and app counters against the
    /// probe's previous call; the first call on a fresh probe primes the
    /// baseline and returns an all-zero snapshot. Only meaningful between
    /// runs — mid-run the profiles are owned by the workers. All zeros
    /// until [`Engine::enable_metrics`] is called.
    pub fn sample_interval(&self, probe: &mut IntervalProbe) -> IntervalSnapshot {
        let counters: Vec<_> = self
            .agent_app_counters()
            .into_iter()
            .map(|(_, c)| c)
            .collect();
        probe.sample(self.now.as_u64(), &self.agent_profiles(), &counters)
    }

    /// The current occupancy of every connected input link, in registration
    /// order. Between runs the engine is quiescent, so each latency-*N*
    /// link reports exactly *N* tokens in flight — the paper's
    /// token-transport invariant, checked by [`verify_token_invariant`].
    ///
    /// [`verify_token_invariant`]: Engine::verify_token_invariant
    pub fn link_occupancies(&self) -> Vec<LinkOccupancy> {
        let mut out = Vec::new();
        for slot in &self.agents {
            for (port, rx) in slot.inputs.iter().enumerate() {
                if let Some(rx) = rx.as_ref() {
                    out.push(LinkOccupancy {
                        agent: slot.agent.name().to_owned(),
                        port,
                        latency: rx.latency().as_u64(),
                        in_flight_tokens: rx.in_flight_windows() as u64 * self.window as u64,
                    });
                }
            }
        }
        out
    }

    /// Checks the token-transport invariant at the current quiescent
    /// boundary: every connected latency-*N* input link must hold exactly
    /// *N* tokens in flight — a boundary input at least *N*, since a peer
    /// shard already into its next run may have sent more. Only meaningful
    /// between runs (mid-run a link transiently holds one extra window).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Agent`] naming the first violating agent/port.
    pub fn verify_token_invariant(&self) -> SimResult<()> {
        token_invariant(&self.agents, self.window, &self.boundary_inputs, false)
    }

    /// Connects `src`'s output port to `dst`'s input port with a link of the
    /// given latency.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Topology`] for bad ids/ports or double
    /// connection, and [`SimError::BadLatency`] if `latency` is not a
    /// nonzero multiple of the engine window.
    pub fn connect(
        &mut self,
        src: AgentId,
        src_port: usize,
        dst: AgentId,
        dst_port: usize,
        latency: Cycle,
    ) -> SimResult<()> {
        let (tx, rx) = link(self.window, latency)?;
        let s = self.slot_mut(src)?;
        attach(&mut s.outputs, tx, s.agent.name(), "output", src_port)?;
        let d = self.slot_mut(dst)?;
        attach(&mut d.inputs, rx, d.agent.name(), "input", dst_port)
    }

    fn slot_mut(&mut self, id: AgentId) -> SimResult<&mut AgentSlot<T>> {
        self.agents
            .get_mut(id.0)
            .ok_or_else(|| SimError::topology(format!("no agent {id:?}")))
    }

    fn check_wired(&self) -> SimResult<()> {
        for slot in &self.agents {
            if slot.inputs.iter().any(Option::is_none) || slot.outputs.iter().any(Option::is_none) {
                return Err(SimError::topology(format!(
                    "agent {} has unconnected ports",
                    slot.agent.name()
                )));
            }
        }
        Ok(())
    }
}

/// Puts one end of a link on `port` of `ports`, agent `agent`'s `kind`
/// ports, refusing a port that does not exist or is already connected.
fn attach<L>(
    ports: &mut [Option<L>],
    end: L,
    agent: &str,
    kind: &str,
    port: usize,
) -> SimResult<()> {
    match ports.get_mut(port) {
        None => Err(SimError::topology(format!(
            "agent {agent} has no {kind} port {port}"
        ))),
        Some(Some(_)) => Err(SimError::topology(format!(
            "{kind} port {port} of agent {agent} already connected"
        ))),
        Some(free) => {
            *free = Some(end);
            Ok(())
        }
    }
}

/// True when an input link holding `held` windows is at a quiescent window
/// boundary: it holds exactly its `seeded` (`latency / window`) windows,
/// or — on a boundary input, whose peer shard may already be into its
/// next run — at least that many. The end-of-run quiesce wait and the
/// invariant check both use this one predicate.
fn link_quiescent(held: usize, seeded: usize, boundary: bool) -> bool {
    if boundary {
        held >= seeded
    } else {
        held == seeded
    }
}

/// The token-transport invariant over `slots`: every connected input link
/// is quiescent (see [`link_quiescent`]).
/// `skip_boundaries` leaves boundary inputs out: mid-run a cross-process
/// link's refill is asynchronous (the pump injects when the peer's window
/// arrives), so only the end-of-run check — which runs after
/// [`Engine::wait_boundary_quiesce`] — may include them.
fn token_invariant<'a, T: Send + 'static>(
    slots: impl IntoIterator<Item = &'a AgentSlot<T>>,
    window: u32,
    boundary_inputs: &[(usize, usize)],
    skip_boundaries: bool,
) -> SimResult<()> {
    for slot in slots {
        for (port, rx) in slot.inputs.iter().enumerate() {
            let Some(rx) = rx else { continue };
            let boundary = boundary_inputs.contains(&(slot.index, port));
            if boundary && skip_boundaries {
                continue;
            }
            let want = rx.latency().as_u64();
            let held = rx.in_flight_windows();
            if !link_quiescent(held, (want / u64::from(window)) as usize, boundary) {
                let got = held as u64 * u64::from(window);
                return Err(SimError::agent(
                    slot.agent.name(),
                    format!(
                        "token invariant violated on input port {port}: \
                         {got} tokens in flight on a latency-{want} link"
                    ),
                ));
            }
        }
    }
    Ok(())
}

impl<T> std::fmt::Debug for Engine<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("window", &self.window)
            .field("agents", &self.agents.len())
            .field("now", &self.now)
            .field("host_threads", &self.host_threads)
            .finish()
    }
}
