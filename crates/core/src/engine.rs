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
//! worker threads. Workers do not run in lockstep — a worker only blocks
//! when a channel it needs is still empty — mirroring how FireSim decouples
//! host nodes and lets the token flow control enforce ordering.
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
//! ([`LinkReceiver::recycle`]), output windows are drawn from that pool
//! ([`LinkSender::take_buffer`]), and the per-agent scratch vectors live in
//! the agent's slot between rounds. Nor does it make a syscall on any link
//! whose peer is not asleep: a link wakes its peer only when the peer has
//! parked (see [`crate::channel`]), which on one thread is never. Blocking
//! operations use condvar-based waits (microsecond wakeups) rather than
//! coarse timeout polling, and stop requests are honoured at deterministic
//! chunk boundaries so that early termination cannot introduce
//! nondeterminism.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::channel::{link, LinkReceiver, LinkSender};
use crate::error::{SimError, SimResult};
use crate::fault::{AgentFaults, FaultPlan, FaultRecord, HostFaultAction, RecoveryTimeline};
use crate::metrics::{
    AgentProfile, CounterId, HistogramId, IntervalProbe, IntervalSnapshot, MetricsRegistry,
    MetricsShard, SpanBuffer, SpanTracer,
};
use crate::snapshot::{Checkpoint, Snapshot, SnapshotReader, SnapshotWriter};
use crate::sync::{BarrierCancelled, EpochBarrier};
use crate::time::Cycle;
use crate::token::TokenWindow;

/// Identifier of an agent registered with an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AgentId(usize);

impl AgentId {
    /// The raw index of this agent within its engine.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A simulated component that advances in token windows.
///
/// Implementors include server blades (whose `advance` runs a cycle-accurate
/// SoC model for `window` cycles) and switches (which run the store-and-
/// forward switching algorithm over the window). The token type is the unit
/// of per-cycle data on this agent's links — for the datacenter simulation
/// it is a network flit.
pub trait SimAgent: Send {
    /// Per-cycle payload carried on this agent's links.
    type Token: Send + 'static;

    /// Short human-readable name, used in error messages.
    fn name(&self) -> &str;

    /// Number of input ports. Every port must be connected before running.
    fn num_inputs(&self) -> usize;

    /// Number of output ports. Every port must be connected before running.
    fn num_outputs(&self) -> usize;

    /// Advances the agent by one window of target cycles.
    ///
    /// The context carries one input [`TokenWindow`] per input port and
    /// empty output windows to fill. Implementations must model exactly
    /// `ctx.window()` cycles.
    ///
    /// Prefer consuming inputs with [`AgentCtx::drain_input`] (which keeps
    /// the window's buffer recyclable) over [`AgentCtx::take_input`].
    fn advance(&mut self, ctx: &mut AgentCtx<Self::Token>);

    /// True when this agent has finished its work (e.g. a blade has powered
    /// off). [`Engine::run_until_done`] stops once every agent is done.
    fn done(&self) -> bool {
        false
    }

    /// Checkpoint support, when this agent has it. Agents that return their
    /// [`Checkpoint`] view here participate in [`Engine::checkpoint`] /
    /// [`Engine::restore`]; the default (`None`) makes engine-level
    /// checkpointing fail with a [`SimError::Checkpoint`] naming the agent.
    fn as_checkpoint(&mut self) -> Option<&mut dyn Checkpoint> {
        None
    }

    /// Appends this agent's application-level counters as `(name, value)`
    /// pairs — e.g. a switch's forwarded-frame count or a NIC's packet
    /// counts. Used by observability reports; the default exports nothing.
    ///
    /// Counter values must be functions of the deterministic simulation
    /// alone (no host timing), so reports are reproducible.
    fn app_counters(&self, _out: &mut Vec<(String, u64)>) {}
}

/// Execution context handed to [`SimAgent::advance`] each round.
///
/// Offsets passed to [`push_output`](AgentCtx::push_output) are relative to
/// the start of the current window; the absolute target cycle is
/// `ctx.now() + offset`.
#[derive(Debug)]
pub struct AgentCtx<T> {
    now: Cycle,
    window: u32,
    inputs: Vec<TokenWindow<T>>,
    outputs: Vec<TokenWindow<T>>,
    stop: bool,
    /// Bitmask of input ports masked by an injected link fault this window.
    down_mask: u64,
}

impl<T> AgentCtx<T> {
    /// Builds a free-standing context for driving an agent by hand (unit
    /// tests, trace replay, co-simulation harnesses).
    ///
    /// # Panics
    ///
    /// Panics if any input window's length differs from `window` or if
    /// `window` is zero.
    pub fn standalone(
        now: Cycle,
        window: u32,
        inputs: Vec<TokenWindow<T>>,
        num_outputs: usize,
    ) -> Self {
        assert!(window > 0, "window must be nonzero");
        for w in &inputs {
            assert_eq!(w.len(), window, "input window length mismatch");
        }
        AgentCtx {
            now,
            window,
            inputs,
            outputs: (0..num_outputs).map(|_| TokenWindow::new(window)).collect(),
            stop: false,
            down_mask: 0,
        }
    }

    /// Consumes the context, returning the output windows that the agent
    /// produced. Counterpart of [`AgentCtx::standalone`].
    pub fn into_outputs(self) -> Vec<TokenWindow<T>> {
        self.outputs
    }

    /// True when the agent called [`AgentCtx::request_stop`].
    pub fn stop_requested(&self) -> bool {
        self.stop
    }

    /// Target cycle at the start of this window.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Window length in cycles.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Takes the input window for `port`, leaving an empty one behind.
    ///
    /// Prefer [`AgentCtx::drain_input`] on hot paths: taking the window
    /// removes its buffer from the link's recycling loop, so the sender
    /// has to re-grow a fresh buffer every round.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn take_input(&mut self, port: usize) -> TokenWindow<T> {
        let w = self.inputs[port].len();
        std::mem::replace(&mut self.inputs[port], TokenWindow::new(w))
    }

    /// Drains the input window for `port` in place, yielding
    /// `(offset, payload)` pairs in cycle order. The window's buffer stays
    /// behind (empty) and is recycled back to the link after `advance`
    /// returns, keeping the steady-state round allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn drain_input(&mut self, port: usize) -> impl Iterator<Item = (u32, T)> + '_ {
        self.inputs[port].drain()
    }

    /// Borrows the input window for `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn input(&self, port: usize) -> &TokenWindow<T> {
        &self.inputs[port]
    }

    /// Pushes a valid token on output `port` at cycle-offset `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range, `offset` is outside the window, or
    /// tokens are pushed out of cycle order (at most one token per cycle).
    pub fn push_output(&mut self, port: usize, offset: u32, token: T) {
        if self.outputs[port].push(offset, token).is_err() {
            panic!(
                "push_output: offset {offset} out of range or out of order (window {})",
                self.window
            );
        }
    }

    /// Mutable access to the raw output window for `port`, for models that
    /// assemble windows themselves.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn output_mut(&mut self, port: usize) -> &mut TokenWindow<T> {
        &mut self.outputs[port]
    }

    /// Requests that the whole simulation stop at the next deterministic
    /// boundary (see [`Engine::run_until_done`]).
    pub fn request_stop(&mut self) {
        self.stop = true;
    }

    /// True when an injected target-side fault ([`FaultPlan::link_down`] /
    /// [`FaultPlan::link_flaky`]) masked tokens on input `port` during this
    /// window. Models with link-state awareness (e.g. a NIC reporting
    /// carrier loss) can surface the outage; ports ≥ 64 are never reported.
    pub fn input_link_down(&self, port: usize) -> bool {
        port < 64 && self.down_mask & (1u64 << port) != 0
    }
}

/// A handle that can stop a running simulation from outside (e.g. a
/// harness timeout). Stops take effect at deterministic chunk boundaries.
#[derive(Debug, Clone)]
pub struct StopHandle {
    flag: Arc<AtomicBool>,
}

impl StopHandle {
    /// Requests the simulation stop.
    pub fn stop(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// True if a stop has been requested.
    pub fn is_stopped(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// A handle that *aborts* a running simulation from outside (watchdog,
/// wall-clock deadline). Unlike [`StopHandle`] — which is a cooperative
/// stop honoured at a chunk boundary and reported as success — an abort
/// wakes workers blocked in channel waits and makes the run fail with
/// [`SimError::Aborted`]. After an aborted run the engine's agent states
/// may be torn mid-round; continue only via [`Engine::restore`].
#[derive(Debug, Clone)]
pub struct AbortHandle {
    abort: Arc<AtomicBool>,
    halt: Arc<AtomicBool>,
    reason: Arc<parking_lot::Mutex<Option<String>>>,
}

impl AbortHandle {
    /// Aborts the current run (if any) with the given reason. The first
    /// reason wins; later calls are no-ops. The flag is re-armed at the
    /// start of each run, so an abort only applies to the run in flight.
    pub fn abort(&self, reason: impl Into<String>) {
        {
            let mut r = self.reason.lock();
            if r.is_none() {
                *r = Some(reason.into());
            }
        }
        self.abort.store(true, Ordering::SeqCst);
        self.halt.store(true, Ordering::SeqCst);
    }

    /// True when an abort has been requested and not yet re-armed.
    pub fn is_aborted(&self) -> bool {
        self.abort.load(Ordering::SeqCst)
    }
}

#[derive(Debug)]
struct ProgressShared {
    /// Windows completed per agent, in registration order.
    steps: Vec<AtomicU64>,
    names: Vec<String>,
}

/// A cheap, lock-free view of run progress for external watchdogs.
///
/// Created by [`Engine::progress_probe`] after the topology is complete.
/// A supervisor polls [`total_steps`](ProgressProbe::total_steps); when the
/// count stops moving, [`slowest_agent`](ProgressProbe::slowest_agent)
/// names the laggard — with token flow control, the agent with the fewest
/// completed windows is the one everyone else is blocked on.
#[derive(Debug, Clone)]
pub struct ProgressProbe {
    inner: Arc<ProgressShared>,
}

impl ProgressProbe {
    /// Total agent-windows completed across all runs since the probe was
    /// created. Strictly monotonic while the simulation makes progress.
    pub fn total_steps(&self) -> u64 {
        self.inner
            .steps
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// The agent with the fewest completed windows and its count — the
    /// best-effort culprit when progress stalls.
    pub fn slowest_agent(&self) -> Option<(String, u64)> {
        self.inner
            .steps
            .iter()
            .enumerate()
            .map(|(i, c)| (i, c.load(Ordering::Relaxed)))
            .min_by_key(|&(i, c)| (c, i))
            .map(|(i, c)| (self.inner.names[i].clone(), c))
    }
}

/// Summary of a completed run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Target cycles simulated in this call.
    pub cycles: Cycle,
    /// Host wall-clock time spent.
    pub wall: Duration,
    /// Number of host threads used (1 = sequential).
    pub host_threads: usize,
    /// Number of agents simulated.
    pub agents: usize,
}

impl RunSummary {
    /// Achieved simulation rate in target-Hz (target cycles per host
    /// second). FireSim reports this as the "simulation rate" in MHz.
    pub fn sim_rate_hz(&self) -> f64 {
        if self.wall.as_secs_f64() == 0.0 {
            return f64::INFINITY;
        }
        self.cycles.as_u64() as f64 / self.wall.as_secs_f64()
    }

    /// Achieved simulation rate in target-MHz.
    pub fn sim_rate_mhz(&self) -> f64 {
        self.sim_rate_hz() / 1e6
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
    /// quiescent boundary this equals `latency`.
    pub in_flight_tokens: u64,
}

/// Counter/histogram handles the engine itself records into when metrics
/// are enabled.
#[derive(Debug, Clone, Copy)]
struct EngineMetricIds {
    /// `engine/agent_steps`: total agent-windows stepped. Deterministic —
    /// independent of host thread count.
    steps: CounterId,
    /// `engine/barrier_wait_ns`: host ns spent waiting at chunk barriers
    /// (parallel mode only). Host-dependent.
    barrier_ns: CounterId,
    /// `engine/chunk_host_ns`: host ns per worker-chunk. Host-dependent.
    chunk_ns: HistogramId,
}

struct AgentSlot<T> {
    agent: Box<dyn SimAgent<Token = T>>,
    inputs: Vec<Option<LinkReceiver<T>>>,
    outputs: Vec<Option<LinkSender<T>>>,
    /// Reused between rounds so `step_agent` never allocates once warm.
    scratch_in: Vec<TokenWindow<T>>,
    scratch_out: Vec<TokenWindow<T>>,
    /// Caller-supplied relative host cost, for load-aware partitioning.
    weight: Option<u64>,
    /// Token/host-time accounting, updated only when metrics are enabled.
    /// The stepping worker owns the slot, so plain stores suffice.
    profile: AgentProfile,
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

    /// Sets the number of host worker threads used by subsequent runs.
    /// `0` and `1` both mean sequential execution on the calling thread.
    ///
    /// The scheduler never uses more workers than the host has cores
    /// (oversubscribing buys nothing but context-switch overhead and can
    /// cost several times the sequential rate); the request is clamped to
    /// [`std::thread::available_parallelism`] at run time unless
    /// [`Engine::set_host_oversubscribe`] lifts the cap. Thanks to the
    /// token protocol the worker count never affects simulated behaviour,
    /// only wall-clock time.
    pub fn set_host_threads(&mut self, threads: usize) -> &mut Self {
        self.host_threads = threads.max(1);
        self
    }

    /// Allows more host workers than the machine has cores. Useful for
    /// testing the parallel execution paths on small hosts; a performance
    /// anti-pattern otherwise.
    pub fn set_host_oversubscribe(&mut self, allow: bool) -> &mut Self {
        self.oversubscribe = allow;
        self
    }

    /// Sets how many rounds run between stop-flag checks in parallel mode.
    /// Larger chunks amortise synchronisation; stops are honoured at chunk
    /// boundaries only (deterministically).
    pub fn set_chunk_rounds(&mut self, rounds: u64) -> &mut Self {
        self.chunk_rounds = rounds.max(1);
        self
    }

    /// Supplies a relative host-cost weight for an agent, used by the
    /// load-aware partitioner in parallel runs.
    ///
    /// Weighted agents skip the first-chunk cost measurement: the caller's
    /// number wins. Unweighted agents are measured. Weights are relative —
    /// only ratios matter — and a weight of zero is treated as one.
    /// Weights never affect simulated behaviour, only how agents are
    /// packed onto host threads.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this engine.
    pub fn set_agent_weight(&mut self, id: AgentId, weight: u64) -> &mut Self {
        self.agents[id.0].weight = Some(weight.max(1));
        self
    }

    /// A handle for stopping the simulation from another thread.
    pub fn stop_handle(&self) -> StopHandle {
        StopHandle {
            flag: Arc::clone(&self.stop),
        }
    }

    /// A handle for *aborting* the current run from another thread
    /// (watchdogs, deadlines). See [`AbortHandle`] for semantics.
    pub fn abort_handle(&self) -> AbortHandle {
        AbortHandle {
            abort: Arc::clone(&self.abort),
            halt: Arc::clone(&self.run_halt),
            reason: Arc::clone(&self.abort_reason),
        }
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

    /// Creates a progress probe over the currently registered agents.
    /// Call after the topology is complete: agents added later are not
    /// tracked by this probe (their steps are simply not counted).
    pub fn progress_probe(&mut self) -> ProgressProbe {
        let shared = Arc::new(ProgressShared {
            steps: (0..self.agents.len()).map(|_| AtomicU64::new(0)).collect(),
            names: self
                .agents
                .iter()
                .map(|s| s.agent.name().to_owned())
                .collect(),
        });
        self.progress = Some(Arc::clone(&shared));
        ProgressProbe { inner: shared }
    }

    /// Enables metrics collection and per-agent profiling for subsequent
    /// runs, returning the engine's registry (creating it on first call).
    ///
    /// Workers record into private [`MetricsShard`]s and fold them into the
    /// registry at chunk barriers, so the hot path stays contention-free;
    /// when metrics have never been enabled the engine holds no registry
    /// and pays nothing at all.
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

    /// Number of host worker threads configured via
    /// [`Engine::set_host_threads`] (before run-time core clamping).
    pub fn host_threads(&self) -> usize {
        self.host_threads
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
        let profiles = self.agent_profiles();
        let counters: Vec<Vec<(String, u64)>> = self
            .agents
            .iter()
            .map(|s| {
                let mut counters = Vec::new();
                s.agent.app_counters(&mut counters);
                counters
            })
            .collect();
        probe.sample(self.now.as_u64(), &profiles, &counters)
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
    /// *N* tokens in flight. Only meaningful between runs (mid-run a link
    /// transiently holds one extra window).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Agent`] naming the first violating agent/port.
    pub fn verify_token_invariant(&self) -> SimResult<()> {
        self.verify_invariant_inner(false)
    }

    /// The invariant check, optionally skipping boundary inputs: mid-run a
    /// cross-process link's refill is asynchronous (the pump injects when
    /// the peer's window arrives), so only the quiescent end-of-run check —
    /// which runs after [`Engine::wait_boundary_quiesce`] — may include
    /// them.
    fn verify_invariant_inner(&self, skip_boundaries: bool) -> SimResult<()> {
        for (idx, slot) in self.agents.iter().enumerate() {
            for (port, rx) in slot.inputs.iter().enumerate() {
                if skip_boundaries && self.boundary_inputs.contains(&(idx, port)) {
                    continue;
                }
                if let Some(rx) = rx.as_ref() {
                    let got = rx.in_flight_windows() as u64 * self.window as u64;
                    let want = rx.latency().as_u64();
                    if got != want {
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
        }
        Ok(())
    }

    /// Registers an agent and returns its id.
    pub fn add_agent(&mut self, agent: Box<dyn SimAgent<Token = T>>) -> AgentId {
        let id = AgentId(self.agents.len());
        let n_in = agent.num_inputs();
        let n_out = agent.num_outputs();
        self.agents.push(AgentSlot {
            agent,
            inputs: (0..n_in).map(|_| None).collect(),
            outputs: (0..n_out).map(|_| None).collect(),
            scratch_in: Vec::with_capacity(n_in),
            scratch_out: Vec::with_capacity(n_out),
            weight: None,
            profile: AgentProfile::default(),
        });
        id
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
        {
            let s = self
                .agents
                .get_mut(src.0)
                .ok_or_else(|| SimError::topology(format!("no agent {:?}", src)))?;
            let slot = s.outputs.get_mut(src_port).ok_or_else(|| {
                SimError::topology(format!(
                    "agent {} has no output port {src_port}",
                    s.agent.name()
                ))
            })?;
            if slot.is_some() {
                return Err(SimError::topology(format!(
                    "output port {src_port} of agent {} already connected",
                    s.agent.name()
                )));
            }
            *slot = Some(tx);
        }
        {
            let d = self
                .agents
                .get_mut(dst.0)
                .ok_or_else(|| SimError::topology(format!("no agent {:?}", dst)))?;
            let slot = d.inputs.get_mut(dst_port).ok_or_else(|| {
                SimError::topology(format!(
                    "agent {} has no input port {dst_port}",
                    d.agent.name()
                ))
            })?;
            if slot.is_some() {
                return Err(SimError::topology(format!(
                    "input port {dst_port} of agent {} already connected",
                    d.agent.name()
                )));
            }
            *slot = Some(rx);
        }
        Ok(())
    }

    /// Connects `dst`'s input port to a sender *outside* this engine — the
    /// receiving half of a cross-process link (§III-B2).
    ///
    /// The underlying channel is created exactly as by [`Engine::connect`]:
    /// pre-seeded with `latency / window` empty windows, so the full target
    /// link latency is modeled **on the receiving shard**. An external pump
    /// (e.g. `manager::partition`'s transport pumps) injects one window per
    /// simulated round through the returned [`BoundaryInput`]; the agent
    /// consumes the seed windows first and sees every remote token exactly
    /// `latency` cycles after it was produced — bit-identical to a
    /// monolithic in-process link.
    ///
    /// At the end of every run the engine waits (bounded by
    /// [`Engine::set_boundary_quiesce_timeout`]) until each boundary input
    /// has been refilled to its seeded occupancy, so runs still end at the
    /// paper's quiescent boundary where a latency-*N* link holds exactly
    /// *N* tokens — the property [`Engine::checkpoint`] relies on.
    ///
    /// # Errors
    ///
    /// As for [`Engine::connect`]: bad id/port, double connection, or a
    /// latency that is not a nonzero multiple of the window.
    pub fn connect_external_input(
        &mut self,
        dst: AgentId,
        dst_port: usize,
        latency: Cycle,
    ) -> SimResult<BoundaryInput<T>> {
        let (tx, rx) = link(self.window, latency)?;
        let d = self
            .agents
            .get_mut(dst.0)
            .ok_or_else(|| SimError::topology(format!("no agent {:?}", dst)))?;
        let name = d.agent.name().to_owned();
        let slot = d.inputs.get_mut(dst_port).ok_or_else(|| {
            SimError::topology(format!("agent {name} has no input port {dst_port}"))
        })?;
        if slot.is_some() {
            return Err(SimError::topology(format!(
                "input port {dst_port} of agent {name} already connected"
            )));
        }
        *slot = Some(rx);
        self.boundary_inputs.push((dst.0, dst_port));
        Ok(BoundaryInput {
            tx,
            agent: name,
            port: dst_port,
        })
    }

    /// Connects `src`'s output port to a receiver *outside* this engine —
    /// the sending half of a cross-process link (§III-B2).
    ///
    /// The channel's seed windows are drained at creation, so
    /// this side contributes **zero** modeled latency (the receiving shard's
    /// [`Engine::connect_external_input`] link models all of it); what
    /// remains is a bounded host-side buffer of `latency / window + 1`
    /// windows that back-pressures the producing agent exactly as far as
    /// token flow control would in a monolithic engine. An external pump
    /// drains one window per simulated round through the returned
    /// [`BoundaryOutput`] and ships it to the peer shard.
    ///
    /// # Errors
    ///
    /// As for [`Engine::connect`].
    pub fn connect_external_output(
        &mut self,
        src: AgentId,
        src_port: usize,
        latency: Cycle,
    ) -> SimResult<BoundaryOutput<T>> {
        let (tx, rx) = link(self.window, latency)?;
        {
            let s = self
                .agents
                .get_mut(src.0)
                .ok_or_else(|| SimError::topology(format!("no agent {:?}", src)))?;
            let name = s.agent.name().to_owned();
            let slot = s.outputs.get_mut(src_port).ok_or_else(|| {
                SimError::topology(format!("agent {name} has no output port {src_port}"))
            })?;
            if slot.is_some() {
                return Err(SimError::topology(format!(
                    "output port {src_port} of agent {name} already connected"
                )));
            }
            *slot = Some(tx);
        }
        // Drain the seed windows: they model latency on the receiving shard,
        // not here.
        for _ in 0..rx.in_flight_windows() {
            rx.recv()?;
        }
        let name = self.agents[src.0].agent.name().to_owned();
        Ok(BoundaryOutput {
            rx,
            agent: name,
            port: src_port,
        })
    }

    /// Sets how long runs wait at their final window boundary for external
    /// boundary inputs (see [`Engine::connect_external_input`]) to return to
    /// seeded occupancy before giving up on the peer. Default 30 s.
    pub fn set_boundary_quiesce_timeout(&mut self, timeout: Duration) -> &mut Self {
        self.boundary_quiesce_timeout = timeout;
        self
    }

    /// Blocks until every boundary input link holds exactly its seeded
    /// `latency / window` windows again — i.e. until the external pumps
    /// have delivered every window the peer shard produced for the rounds
    /// just run. No-op without boundary inputs.
    fn wait_boundary_quiesce(&self) -> SimResult<()> {
        if self.boundary_inputs.is_empty() {
            return Ok(());
        }
        let deadline = Instant::now() + self.boundary_quiesce_timeout;
        for &(a, p) in &self.boundary_inputs {
            let slot = &self.agents[a];
            let rx = slot.inputs[p].as_ref().expect("boundary input is wired");
            let want = (rx.latency().as_u64() / self.window as u64) as usize;
            loop {
                let got = rx.in_flight_windows();
                if got >= want {
                    break;
                }
                if Instant::now() >= deadline {
                    return Err(SimError::agent(
                        slot.agent.name(),
                        format!(
                            "boundary input port {p} did not quiesce: {got} of {want} \
                             windows in flight after {:?} (peer shard dead or stalled?)",
                            self.boundary_quiesce_timeout
                        ),
                    ));
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        Ok(())
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

    /// A restore replaces every input queue, so a window a faster peer
    /// shard has already injected would be discarded and that link would
    /// run one window short for good (the engine then dies at its next
    /// boundary quiesce). Refuse instead: every shard must restore before
    /// any shard runs.
    fn check_boundaries_unfed(&self) -> SimResult<()> {
        for &(a, p) in &self.boundary_inputs {
            let slot = &self.agents[a];
            let rx = slot.inputs[p].as_ref().expect("boundary input is wired");
            let seeded = (rx.latency().as_u64() / self.window as u64) as usize;
            if rx.in_flight_windows() > seeded {
                return Err(SimError::checkpoint(format!(
                    "boundary input port {p} of agent {} already holds a window from its \
                     peer shard; restore every shard before any shard runs",
                    slot.agent.name()
                )));
            }
        }
        Ok(())
    }

    /// Runs for (at least) `cycles` target cycles, rounded up to whole
    /// windows. Does not stop early for `done` agents.
    ///
    /// # Errors
    ///
    /// Returns an error if the topology has unconnected ports or a channel
    /// breaks mid-run (a panicking agent).
    pub fn run_for(&mut self, cycles: Cycle) -> SimResult<RunSummary> {
        let rounds = cycles.as_u64().div_ceil(self.window as u64);
        self.run_rounds(rounds, false)
    }

    /// Runs until every agent reports [`SimAgent::done`], an agent calls
    /// [`AgentCtx::request_stop`], a [`StopHandle`] fires, or `max_cycles`
    /// elapse — whichever comes first. Stop conditions are evaluated at
    /// deterministic chunk boundaries.
    ///
    /// # Errors
    ///
    /// As for [`Engine::run_for`].
    pub fn run_until_done(&mut self, max_cycles: Cycle) -> SimResult<RunSummary> {
        let rounds = max_cycles.as_u64().div_ceil(self.window as u64);
        self.run_rounds(rounds, true)
    }

    fn run_rounds(&mut self, rounds: u64, stoppable: bool) -> SimResult<RunSummary> {
        self.check_wired()?;
        self.stop.store(false, Ordering::Release);
        self.abort.store(false, Ordering::Release);
        self.run_halt.store(false, Ordering::Release);
        *self.abort_reason.lock() = None;
        // Empty when no plan is installed, so the common path allocates
        // nothing; call sites index with `.get(i)`.
        let faults: Vec<Option<AgentFaults>> = match &self.fault_plan {
            Some(plan) => {
                let agents: Vec<(&str, usize)> = self
                    .agents
                    .iter()
                    .map(|s| (s.agent.name(), s.agent.num_inputs()))
                    .collect();
                plan.resolve(&agents)?
            }
            None => Vec::new(),
        };
        let start = Instant::now();
        let cores = if self.oversubscribe {
            usize::MAX
        } else {
            host_cores()
        };
        let threads = self.host_threads.min(cores).min(self.agents.len()).max(1);
        let ids = self.metrics.as_ref().map(|m| EngineMetricIds {
            steps: m.counter("engine/agent_steps"),
            barrier_ns: m.counter("engine/barrier_wait_ns"),
            chunk_ns: m.histogram("engine/chunk_host_ns"),
        });
        let result = if threads <= 1 {
            self.run_sequential(rounds, stoppable, &faults, ids)
        } else {
            self.run_parallel(rounds, stoppable, threads, &faults, ids)
        };
        let rounds_run = match result {
            Ok(r) => {
                if self.abort.load(Ordering::Acquire) {
                    return Err(self.abort_error());
                }
                r
            }
            Err(e) => {
                // An abort wakes blocked workers by halting them, which
                // surfaces as ChannelClosed on their side; report the abort
                // (the cause), not the wake-up mechanics (the symptom) —
                // unless a more diagnostic error was recorded.
                if self.abort.load(Ordering::Acquire) && e.severity() <= 1 {
                    return Err(self.abort_error());
                }
                return Err(e);
            }
        };
        // With cross-process boundary inputs, the local agents can finish
        // their rounds while the last windows of the peer's matching output
        // are still in transit; wait for the pumps to deliver them so the
        // boundary below really is quiescent.
        self.wait_boundary_quiesce()?;
        // Every successful run ends at a quiescent window boundary, where
        // the paper's invariant must hold: a latency-N link has exactly N
        // tokens in flight. Always-on in debug builds.
        #[cfg(debug_assertions)]
        if let Err(e) = self.verify_token_invariant() {
            panic!("{e}");
        }
        let cycles = Cycle::new(rounds_run * self.window as u64);
        self.now += cycles;
        Ok(RunSummary {
            cycles,
            wall: start.elapsed(),
            host_threads: threads,
            agents: self.agents.len(),
        })
    }

    fn abort_error(&self) -> SimError {
        let reason = self
            .abort_reason
            .lock()
            .clone()
            .unwrap_or_else(|| "abort requested".to_owned());
        SimError::Aborted { reason }
    }

    fn run_sequential(
        &mut self,
        rounds: u64,
        stoppable: bool,
        faults: &[Option<AgentFaults>],
        ids: Option<EngineMetricIds>,
    ) -> SimResult<u64> {
        let window = self.window;
        let mut now = self.now;
        let mut round = 0u64;
        let progress = self.progress.clone();
        let metrics = self.metrics.clone();
        let profiling = metrics.is_some();
        let mut shard = metrics.as_ref().map(|m| m.shard());
        let tracer = self.tracer.clone();
        if let Some(t) = &tracer {
            t.name_thread(0, "engine");
        }
        let mut span_buf = tracer.as_ref().map(|t| t.buffer(0));
        // Observability pays one clock read per step, not two: the read
        // that closes step N's span/host_ns opens step N+1's.
        let need_clock = profiling || tracer.is_some();
        while round < rounds {
            let chunk_end = (round + self.chunk_rounds).min(rounds);
            let chunk_t0 = need_clock.then(Instant::now);
            let mut t_prev = chunk_t0;
            while round < chunk_end {
                for (i, slot) in self.agents.iter_mut().enumerate() {
                    if step_agent(
                        slot,
                        now,
                        window,
                        None,
                        faults.get(i).and_then(Option::as_ref),
                        profiling,
                    )? {
                        self.stop.store(true, Ordering::Release);
                    }
                    if let Some(prev) = t_prev {
                        let t_now = Instant::now();
                        if profiling {
                            slot.profile.host_ns += t_now.duration_since(prev).as_nanos() as u64;
                        }
                        if let (Some(t), Some(buf)) = (&tracer, span_buf.as_mut()) {
                            buf.span_args(
                                slot.agent.name(),
                                "agent",
                                t.ns_of(prev),
                                t.ns_of(t_now),
                                vec![("cycle", now.as_u64())],
                            );
                        }
                        t_prev = Some(t_now);
                    }
                    if let (Some(sh), Some(ids)) = (shard.as_mut(), ids) {
                        sh.inc(ids.steps);
                    }
                    if let Some(p) = &progress {
                        if let Some(c) = p.steps.get(i) {
                            c.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                now += Cycle::new(window as u64);
                round += 1;
                // In sequential mode every round ends quiescent, so the
                // token invariant can be checked continuously (debug only).
                // Boundary inputs refill asynchronously and are excluded
                // here; the end-of-run check covers them after the quiesce
                // wait.
                #[cfg(debug_assertions)]
                if let Err(e) = self.verify_invariant_inner(true) {
                    panic!("{e}");
                }
            }
            if let (Some(m), Some(sh)) = (metrics.as_ref(), shard.as_mut()) {
                if let (Some(ids), Some(t0)) = (ids, chunk_t0) {
                    sh.record(ids.chunk_ns, t0.elapsed().as_nanos() as u64);
                }
                m.absorb(sh);
            }
            if self.abort.load(Ordering::Acquire) {
                return Err(self.abort_error());
            }
            if stoppable {
                let done =
                    self.stop.load(Ordering::Acquire) || self.agents.iter().all(|s| s.agent.done());
                if done {
                    break;
                }
            }
        }
        if let (Some(t), Some(mut buf)) = (tracer.as_ref(), span_buf.take()) {
            t.flush(&mut buf);
        }
        Ok(round)
    }

    fn run_parallel(
        &mut self,
        rounds: u64,
        stoppable: bool,
        threads: usize,
        faults: &[Option<AgentFaults>],
        ids: Option<EngineMetricIds>,
    ) -> SimResult<u64> {
        let window = self.window;
        let start_now = self.now;
        let chunk = self.chunk_rounds;
        let n_agents = self.agents.len();
        let stop = Arc::clone(&self.stop);
        let progress = self.progress.clone();
        let metrics = self.metrics.clone();
        let tracer = self.tracer.clone();

        let barrier = EpochBarrier::new(threads);
        // Set on error, panic, or abort; sleeping peers notice within
        // ~500µs. Shared with [`AbortHandle`]s via the engine.
        let halt_arc = Arc::clone(&self.run_halt);
        let halt: &AtomicBool = &halt_arc;
        let error: parking_lot::Mutex<Option<SimError>> = parking_lot::Mutex::new(None);

        // Load-aware partitioning state. The initial assignment packs
        // caller weights (default 1, i.e. round-robin-ish); if the run is
        // long enough to profit, per-agent host cost is measured during
        // the first chunk and agents are re-packed once at its boundary.
        let hints: Vec<Option<u64>> = self.agents.iter().map(|s| s.weight).collect();
        let measured: Vec<AtomicU64> = (0..n_agents).map(|_| AtomicU64::new(0)).collect();
        let initial_costs: Vec<u64> = hints.iter().map(|h| h.unwrap_or(1)).collect();
        let assignment: Vec<AtomicUsize> = lpt_partition(&initial_costs, threads)
            .into_iter()
            .map(AtomicUsize::new)
            .collect();
        let measure = rounds > chunk && n_agents > threads;

        // Agents are only ever touched by their assigned worker within a
        // chunk; the mutexes make the hand-off at repartition boundaries
        // safe and keep the compiler honest. They are uncontended.
        let slots: Vec<parking_lot::Mutex<&mut AgentSlot<T>>> = self
            .agents
            .iter_mut()
            .map(parking_lot::Mutex::new)
            .collect();

        // Per-worker chunk votes (VOTE_DONE / VOTE_STOPPED bits),
        // double-buffered by chunk parity: the bucket for chunk `c` is
        // re-written at chunk `c + 2`, by which time every reader of the
        // chunk-`c` values has passed two barriers. One barrier per chunk
        // thus suffices — every input to the continue/stop decision is a
        // pre-barrier snapshot, so all workers decide identically.
        let votes: Vec<AtomicU8> = (0..2 * threads).map(|_| AtomicU8::new(0)).collect();
        const VOTE_DONE: u8 = 1;
        const VOTE_STOPPED: u8 = 2;

        let worker_results = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|widx| {
                    let barrier = &barrier;
                    let error = &error;
                    let stop = &stop;
                    let slots = &slots;
                    let assignment = &assignment;
                    let measured = &measured;
                    let hints = &hints;
                    let votes = &votes;
                    let progress = &progress;
                    let metrics = &metrics;
                    let tracer = &tracer;
                    scope.spawn(move || {
                        let _guard = PanicGuard { halt, barrier };
                        let mut my_agents: Vec<usize> = (0..n_agents)
                            .filter(|&i| assignment[i].load(Ordering::Relaxed) == widx)
                            .collect();
                        let mut now = start_now;
                        let mut round = 0u64;
                        let mut measuring = measure;
                        let mut repartitioned = !measure;
                        let mut parity = 0usize;
                        let profiling = metrics.is_some();
                        let mut shard = metrics.as_ref().map(|m| m.shard());
                        if let Some(t) = tracer {
                            t.name_thread(widx as u32, format!("worker{widx}"));
                        }
                        let mut span_buf = tracer.as_ref().map(|t| t.buffer(widx as u32));
                        'chunks: while round < rounds {
                            if halt.load(Ordering::Acquire) {
                                break;
                            }
                            let chunk_end = (round + chunk).min(rounds);
                            // One clock read per step, chained: it closes
                            // the previous step's span / host_ns / load
                            // measurement and opens the next one's.
                            let need_clock = profiling || tracer.is_some() || measuring;
                            let chunk_t0 = need_clock.then(Instant::now);
                            let mut t_prev = chunk_t0;
                            while round < chunk_end {
                                for &i in &my_agents {
                                    let slot: &mut AgentSlot<T> = &mut slots[i].lock();
                                    let agent_faults = faults.get(i).and_then(Option::as_ref);
                                    match step_agent(
                                        slot,
                                        now,
                                        window,
                                        Some(halt),
                                        agent_faults,
                                        profiling,
                                    ) {
                                        Ok(true) => stop.store(true, Ordering::Release),
                                        Ok(false) => {}
                                        Err(e) => {
                                            // Keep the most diagnostic error:
                                            // the panicking agent's own report
                                            // must not be clobbered by a peer
                                            // observing the fallout.
                                            let mut err = error.lock();
                                            let replace = match &*err {
                                                Some(prev) => e.severity() > prev.severity(),
                                                None => true,
                                            };
                                            if replace {
                                                *err = Some(e);
                                            }
                                            drop(err);
                                            halt.store(true, Ordering::Release);
                                            barrier.cancel();
                                            break 'chunks;
                                        }
                                    }
                                    if let Some(prev) = t_prev {
                                        let t_now = Instant::now();
                                        let ns = t_now.duration_since(prev).as_nanos() as u64;
                                        if measuring {
                                            measured[i].fetch_add(ns, Ordering::Relaxed);
                                        }
                                        if profiling {
                                            slot.profile.host_ns += ns;
                                        }
                                        if let (Some(t), Some(buf)) = (tracer, span_buf.as_mut()) {
                                            buf.span_args(
                                                slot.agent.name(),
                                                "agent",
                                                t.ns_of(prev),
                                                t.ns_of(t_now),
                                                vec![("cycle", now.as_u64())],
                                            );
                                        }
                                        t_prev = Some(t_now);
                                    }
                                    if let (Some(sh), Some(ids)) = (shard.as_mut(), ids) {
                                        sh.inc(ids.steps);
                                    }
                                    if let Some(p) = progress {
                                        if let Some(c) = p.steps.get(i) {
                                            c.fetch_add(1, Ordering::Relaxed);
                                        }
                                    }
                                }
                                now += Cycle::new(window as u64);
                                round += 1;
                            }
                            // Fold this chunk's metrics into the registry at
                            // the chunk boundary — the one place a lock is
                            // already tolerable.
                            if let (Some(m), Some(sh)) = (metrics.as_ref(), shard.as_mut()) {
                                if let (Some(ids), Some(t0)) = (ids, chunk_t0) {
                                    sh.record(ids.chunk_ns, t0.elapsed().as_nanos() as u64);
                                }
                                m.absorb(sh);
                            }
                            if !repartitioned {
                                repartitioned = true;
                                measuring = false;
                                let Ok(is_leader) = traced_wait(
                                    barrier,
                                    tracer.as_ref(),
                                    span_buf.as_mut(),
                                    shard.as_mut(),
                                    ids.map(|ids| ids.barrier_ns),
                                ) else {
                                    break;
                                };
                                if is_leader {
                                    let rep_start = tracer.as_ref().map(|t| t.now_ns());
                                    let costs: Vec<u64> = (0..n_agents)
                                        .map(|i| {
                                            hints[i]
                                                .unwrap_or_else(|| {
                                                    measured[i].load(Ordering::Relaxed)
                                                })
                                                .max(1)
                                        })
                                        .collect();
                                    for (i, w) in
                                        lpt_partition(&costs, threads).into_iter().enumerate()
                                    {
                                        assignment[i].store(w, Ordering::Relaxed);
                                    }
                                    if let (Some(t), Some(buf)) = (tracer, span_buf.as_mut()) {
                                        buf.span(
                                            "repartition",
                                            "sched",
                                            rep_start.unwrap_or(0),
                                            t.now_ns(),
                                        );
                                    }
                                }
                                if traced_wait(
                                    barrier,
                                    tracer.as_ref(),
                                    span_buf.as_mut(),
                                    shard.as_mut(),
                                    ids.map(|ids| ids.barrier_ns),
                                )
                                .is_err()
                                {
                                    break;
                                }
                                my_agents.clear();
                                my_agents
                                    .extend((0..n_agents).filter(|&i| {
                                        assignment[i].load(Ordering::Relaxed) == widx
                                    }));
                            }
                            if stoppable {
                                let mut vote = 0u8;
                                if my_agents.iter().all(|&i| slots[i].lock().agent.done()) {
                                    vote |= VOTE_DONE;
                                }
                                if stop.load(Ordering::Acquire) {
                                    vote |= VOTE_STOPPED;
                                }
                                votes[parity * threads + widx].store(vote, Ordering::Relaxed);
                                if traced_wait(
                                    barrier,
                                    tracer.as_ref(),
                                    span_buf.as_mut(),
                                    shard.as_mut(),
                                    ids.map(|ids| ids.barrier_ns),
                                )
                                .is_err()
                                {
                                    break;
                                }
                                let mut all_done = true;
                                let mut stopped = false;
                                for w in 0..threads {
                                    let v = votes[parity * threads + w].load(Ordering::Relaxed);
                                    all_done &= v & VOTE_DONE != 0;
                                    stopped |= v & VOTE_STOPPED != 0;
                                }
                                parity ^= 1;
                                if all_done || stopped {
                                    break;
                                }
                            }
                        }
                        if let (Some(m), Some(sh)) = (metrics.as_ref(), shard.as_mut()) {
                            m.absorb(sh);
                        }
                        if let (Some(t), Some(mut buf)) = (tracer.as_ref(), span_buf.take()) {
                            t.flush(&mut buf);
                        }
                        round
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join())
                .collect::<Vec<std::thread::Result<u64>>>()
        });

        let mut min_rounds = rounds;
        for r in worker_results {
            match r {
                Ok(r) => min_rounds = min_rounds.min(r),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        if let Some(e) = error.lock().take() {
            return Err(e);
        }
        Ok(min_rounds)
    }

    /// Immutable access to a registered agent.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this engine.
    pub fn agent(&self, id: AgentId) -> &dyn SimAgent<Token = T> {
        self.agents[id.0].agent.as_ref()
    }

    /// Mutable access to a registered agent (e.g. to extract results after a
    /// run, via a concrete-type handle kept by the caller or downcasting in
    /// the agent's own API).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this engine.
    pub fn agent_mut(&mut self, id: AgentId) -> &mut dyn SimAgent<Token = T> {
        self.agents[id.0].agent.as_mut()
    }

    /// Snapshots the complete simulation state — every agent's mutable
    /// state plus all in-flight link tokens — at the current (deterministic)
    /// boundary between runs.
    ///
    /// Between runs each link's queue holds exactly `latency / window`
    /// windows, so the checkpoint captures the same quiescent state the
    /// engine started from, just at a later cycle: restoring it into an
    /// identically built engine and continuing produces bit-identical
    /// results to never having stopped.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Topology`] for unconnected ports and
    /// [`SimError::Checkpoint`] when an agent does not implement
    /// [`Checkpoint`].
    pub fn checkpoint(&mut self) -> SimResult<EngineCheckpoint<T>>
    where
        T: Clone,
    {
        self.check_wired()?;
        let mut agent_names = Vec::with_capacity(self.agents.len());
        let mut agent_state = Vec::with_capacity(self.agents.len());
        let mut link_state = Vec::with_capacity(self.agents.len());
        for slot in &mut self.agents {
            let name = slot.agent.name().to_owned();
            let links: Vec<Vec<TokenWindow<T>>> = slot
                .inputs
                .iter()
                .map(|rx| {
                    rx.as_ref()
                        .map(LinkReceiver::queue_snapshot)
                        .unwrap_or_default()
                })
                .collect();
            let mut w = SnapshotWriter::new();
            match slot.agent.as_checkpoint() {
                Some(cp) => cp.save_state(&mut w)?,
                None => {
                    return Err(SimError::checkpoint(format!(
                        "agent {name} does not implement Checkpoint"
                    )))
                }
            }
            agent_names.push(name);
            agent_state.push(w.into_bytes());
            link_state.push(links);
        }
        Ok(EngineCheckpoint {
            now: self.now,
            window: self.window,
            agent_names,
            agent_state,
            link_state,
        })
    }

    /// Restores a checkpoint taken from an identically built engine
    /// (same topology, same window, same agent names in the same order),
    /// replacing every agent's state and all in-flight link tokens, and
    /// rewinding/advancing [`Engine::now`] to the checkpoint's cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] when the checkpoint does not match
    /// this engine's topology, an agent snapshot is malformed, or a peer
    /// shard has already fed one of this engine's boundary inputs (every
    /// shard must restore before any shard runs), and
    /// [`SimError::Topology`] for unconnected ports.
    pub fn restore(&mut self, cp: &EngineCheckpoint<T>) -> SimResult<()>
    where
        T: Clone,
    {
        self.check_wired()?;
        self.check_boundaries_unfed()?;
        if cp.window != self.window {
            return Err(SimError::checkpoint(format!(
                "checkpoint window {} does not match engine window {}",
                cp.window, self.window
            )));
        }
        if cp.agent_names.len() != self.agents.len() {
            return Err(SimError::checkpoint(format!(
                "checkpoint has {} agents, engine has {}",
                cp.agent_names.len(),
                self.agents.len()
            )));
        }
        for (slot, name) in self.agents.iter().zip(&cp.agent_names) {
            if slot.agent.name() != name {
                return Err(SimError::checkpoint(format!(
                    "checkpoint agent {name:?} does not match engine agent {:?}",
                    slot.agent.name()
                )));
            }
        }
        for (i, slot) in self.agents.iter_mut().enumerate() {
            if slot.inputs.len() != cp.link_state[i].len() {
                return Err(SimError::checkpoint(format!(
                    "checkpoint agent {} has {} input links, engine has {}",
                    cp.agent_names[i],
                    cp.link_state[i].len(),
                    slot.inputs.len()
                )));
            }
            let mut r = SnapshotReader::new(&cp.agent_state[i]);
            match slot.agent.as_checkpoint() {
                Some(c) => c.restore_state(&mut r)?,
                None => {
                    return Err(SimError::checkpoint(format!(
                        "agent {} does not implement Checkpoint",
                        cp.agent_names[i]
                    )))
                }
            }
            if r.remaining() != 0 {
                return Err(SimError::checkpoint(format!(
                    "agent {} snapshot has {} trailing bytes",
                    cp.agent_names[i],
                    r.remaining()
                )));
            }
            for (rx, windows) in slot.inputs.iter().zip(&cp.link_state[i]) {
                if let Some(rx) = rx.as_ref() {
                    rx.replace_queue(windows.clone());
                }
            }
        }
        self.now = cp.now;
        Ok(())
    }

    /// Restores this engine's agents from a checkpoint that may cover a
    /// **superset** of them, matching by agent name instead of position.
    ///
    /// This is the re-split primitive behind repartitioning: a full
    /// checkpoint (or a merge of per-shard checkpoints, see
    /// [`EngineCheckpoint::merge`]) can be restored into an engine built
    /// for *any* sharding of the same topology — each shard simply picks
    /// its own agents out of the checkpoint by name. It is sound because
    /// an agent's state blob and queued input windows are identical
    /// whatever shard its neighbours live on (the receiving side models
    /// the full link latency), so per-agent checkpoint entries carry no
    /// placement information.
    ///
    /// Every agent in *this* engine must appear in the checkpoint;
    /// checkpoint agents this engine does not host are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] when the windows differ, an
    /// engine agent is missing from the checkpoint, an input-link count
    /// disagrees, an agent snapshot is malformed, or a peer shard has
    /// already fed one of this engine's boundary inputs (every shard must
    /// restore before any shard runs), and [`SimError::Topology`] for
    /// unconnected ports.
    pub fn restore_by_name(&mut self, cp: &EngineCheckpoint<T>) -> SimResult<()>
    where
        T: Clone,
    {
        self.check_wired()?;
        self.check_boundaries_unfed()?;
        if cp.window != self.window {
            return Err(SimError::checkpoint(format!(
                "checkpoint window {} does not match engine window {}",
                cp.window, self.window
            )));
        }
        for slot in &mut self.agents {
            let name = slot.agent.name().to_owned();
            let i = cp
                .agent_names
                .iter()
                .position(|n| *n == name)
                .ok_or_else(|| {
                    SimError::checkpoint(format!("checkpoint has no agent named {name:?}"))
                })?;
            if slot.inputs.len() != cp.link_state[i].len() {
                return Err(SimError::checkpoint(format!(
                    "checkpoint agent {name} has {} input links, engine has {}",
                    cp.link_state[i].len(),
                    slot.inputs.len()
                )));
            }
            let mut r = SnapshotReader::new(&cp.agent_state[i]);
            match slot.agent.as_checkpoint() {
                Some(c) => c.restore_state(&mut r)?,
                None => {
                    return Err(SimError::checkpoint(format!(
                        "agent {name} does not implement Checkpoint"
                    )))
                }
            }
            if r.remaining() != 0 {
                return Err(SimError::checkpoint(format!(
                    "agent {name} snapshot has {} trailing bytes",
                    r.remaining()
                )));
            }
            for (rx, windows) in slot.inputs.iter().zip(&cp.link_state[i]) {
                if let Some(rx) = rx.as_ref() {
                    rx.replace_queue(windows.clone());
                }
            }
        }
        self.now = cp.now;
        Ok(())
    }
}

/// The injecting half of a cross-process link: windows received from a
/// peer shard are pushed here and flow to the destination agent after the
/// link's modeled latency. Created by [`Engine::connect_external_input`].
///
/// The underlying channel is bounded (capacity `latency / window + 1`
/// windows), so injection naturally back-pressures a transport pump that
/// runs ahead of the consuming agent — host scheduling can never violate
/// the paper's token flow control (§III-B2).
#[derive(Debug)]
pub struct BoundaryInput<T> {
    tx: LinkSender<T>,
    agent: String,
    port: usize,
}

impl<T: Send + 'static> BoundaryInput<T> {
    /// Name of the agent this boundary feeds.
    pub fn agent(&self) -> &str {
        &self.agent
    }

    /// The destination agent's input port.
    pub fn port(&self) -> usize {
        self.port
    }

    /// Window length in cycles.
    pub fn window(&self) -> u32 {
        self.tx.window()
    }

    /// Modeled link latency in cycles.
    pub fn latency(&self) -> Cycle {
        self.tx.latency()
    }

    /// A spare window buffer to fill before injecting (recycled, so the
    /// steady state allocates nothing).
    pub fn take_buffer(&self) -> TokenWindow<T> {
        self.tx.take_buffer()
    }

    /// Injects one window, blocking while the link is at capacity. Returns
    /// `Ok(Some(w))` — the window handed back untouched — when `halt` was
    /// set before space appeared, `Ok(None)` on success.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ChannelClosed`] when the consuming engine has
    /// torn the link down.
    pub fn inject_or_halt(
        &self,
        w: TokenWindow<T>,
        halt: &AtomicBool,
    ) -> SimResult<Option<TokenWindow<T>>> {
        self.tx.send_or_halt(w, Some(halt))
    }
}

/// The draining half of a cross-process link: windows the source agent
/// produced are pulled here, one per simulated round, for shipment to the
/// peer shard. Created by [`Engine::connect_external_output`].
#[derive(Debug)]
pub struct BoundaryOutput<T> {
    rx: LinkReceiver<T>,
    agent: String,
    port: usize,
}

impl<T: Send + 'static> BoundaryOutput<T> {
    /// Name of the agent this boundary drains.
    pub fn agent(&self) -> &str {
        &self.agent
    }

    /// The source agent's output port.
    pub fn port(&self) -> usize {
        self.port
    }

    /// Window length in cycles.
    pub fn window(&self) -> u32 {
        self.rx.window()
    }

    /// Modeled link latency in cycles.
    pub fn latency(&self) -> Cycle {
        self.rx.latency()
    }

    /// Drains one produced window, blocking until the agent sends one.
    /// Returns `Ok(None)` when `halt` was set **and** no window is queued —
    /// so a halting pump always flushes what the agent already produced.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ChannelClosed`] when the producing engine has
    /// torn the link down.
    pub fn drain_or_halt(&self, halt: &AtomicBool) -> SimResult<Option<TokenWindow<T>>> {
        self.rx.recv_or_halt(Some(halt))
    }

    /// Returns a shipped window's buffer to the spare pool, keeping the
    /// producing agent's sends allocation-free.
    pub fn recycle(&self, w: TokenWindow<T>) {
        self.rx.recycle(w)
    }
}

/// A point-in-time snapshot of an [`Engine`]: target time, per-agent state
/// blobs, and every link's in-flight token windows. Produced by
/// [`Engine::checkpoint`], consumed by [`Engine::restore`], and (for
/// `T: Snapshot`) serializable to disk.
pub struct EngineCheckpoint<T> {
    now: Cycle,
    window: u32,
    agent_names: Vec<String>,
    agent_state: Vec<Vec<u8>>,
    /// `link_state[agent][port]` = that input link's queued windows,
    /// oldest first.
    link_state: Vec<Vec<Vec<TokenWindow<T>>>>,
}

/// Magic + version prefix of the on-disk checkpoint encoding.
const CHECKPOINT_MAGIC: &[u8; 8] = b"FSCKPT01";

impl<T> EngineCheckpoint<T> {
    /// Target cycle at which this checkpoint was taken.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The engine window the checkpoint was taken with.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Names of the checkpointed agents, in registration order.
    pub fn agent_names(&self) -> impl Iterator<Item = &str> {
        self.agent_names.iter().map(String::as_str)
    }

    /// Merges per-shard checkpoints of one partitioned run into a single
    /// full-topology checkpoint.
    ///
    /// Every part must have been taken at the same cycle with the same
    /// window (the partitioned runner checkpoints all shards at a common
    /// run boundary), and no agent may appear in more than one part. The
    /// merged checkpoint lists agents sorted by name, so the result is
    /// independent of shard order and of how the run was partitioned —
    /// restore it anywhere with [`Engine::restore_by_name`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] when `parts` is empty, the cycles
    /// or windows disagree, or an agent name is duplicated across parts.
    pub fn merge(parts: Vec<EngineCheckpoint<T>>) -> SimResult<EngineCheckpoint<T>> {
        let Some(first) = parts.first() else {
            return Err(SimError::checkpoint("cannot merge zero checkpoints"));
        };
        let (now, window) = (first.now, first.window);
        for p in &parts {
            if p.now != now || p.window != window {
                return Err(SimError::checkpoint(format!(
                    "cannot merge checkpoints from different run points: \
                     cycle {} window {} vs cycle {} window {}",
                    p.now.as_u64(),
                    p.window,
                    now.as_u64(),
                    window
                )));
            }
        }
        #[allow(clippy::type_complexity)]
        let mut agents: Vec<(String, Vec<u8>, Vec<Vec<TokenWindow<T>>>)> = Vec::new();
        for p in parts {
            let mut state = p.agent_state.into_iter();
            let mut links = p.link_state.into_iter();
            for name in p.agent_names {
                agents.push((
                    name,
                    state.next().expect("state per agent"),
                    links.next().expect("links per agent"),
                ));
            }
        }
        agents.sort_by(|a, b| a.0.cmp(&b.0));
        if let Some(w) = agents.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(SimError::checkpoint(format!(
                "agent {:?} appears in more than one shard checkpoint",
                w[0].0
            )));
        }
        let mut agent_names = Vec::with_capacity(agents.len());
        let mut agent_state = Vec::with_capacity(agents.len());
        let mut link_state = Vec::with_capacity(agents.len());
        for (name, state, links) in agents {
            agent_names.push(name);
            agent_state.push(state);
            link_state.push(links);
        }
        Ok(EngineCheckpoint {
            now,
            window,
            agent_names,
            agent_state,
            link_state,
        })
    }
}

impl<T: Snapshot> EngineCheckpoint<T> {
    /// Serializes the checkpoint to its on-disk byte encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_bytes(CHECKPOINT_MAGIC);
        w.put_u32(self.window);
        w.put(&self.now);
        w.put_usize(self.agent_names.len());
        for i in 0..self.agent_names.len() {
            w.put_str(&self.agent_names[i]);
            w.put_bytes(&self.agent_state[i]);
            w.put(&self.link_state[i]);
        }
        w.into_bytes()
    }

    /// Parses a checkpoint from its on-disk byte encoding.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] on bad magic, truncation, or
    /// malformed content.
    pub fn from_bytes(bytes: &[u8]) -> SimResult<Self> {
        let mut r = SnapshotReader::new(bytes);
        let magic = r.get_bytes()?;
        if magic != CHECKPOINT_MAGIC {
            return Err(SimError::checkpoint(
                "not a checkpoint file (bad magic / unsupported version)",
            ));
        }
        let window = r.get_u32()?;
        let now = r.get()?;
        let n = r.get_usize()?;
        let mut agent_names = Vec::with_capacity(n.min(1 << 16));
        let mut agent_state = Vec::with_capacity(n.min(1 << 16));
        let mut link_state = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            agent_names.push(r.get_str()?);
            agent_state.push(r.get_bytes()?.to_vec());
            link_state.push(r.get()?);
        }
        if r.remaining() != 0 {
            return Err(SimError::checkpoint(format!(
                "checkpoint has {} trailing bytes",
                r.remaining()
            )));
        }
        Ok(EngineCheckpoint {
            now,
            window,
            agent_names,
            agent_state,
            link_state,
        })
    }

    /// A stable digest of each agent's complete checkpointed state —
    /// `(name, hash of state blob + in-flight input windows)` — in
    /// registration order.
    ///
    /// Because an agent's input links (and their queued windows) are
    /// identical whether the sending side lives in the same engine or
    /// behind a cross-process boundary, the *union* of per-agent digests
    /// over all shards of a partitioned run equals the digests of a
    /// monolithic run of the same topology: the paper's bit-identical
    /// partitioning invariant, made checkable. Combine with
    /// [`combined_digest`].
    pub fn agent_digests(&self) -> Vec<(String, u64)> {
        (0..self.agent_names.len())
            .map(|i| {
                let mut w = SnapshotWriter::new();
                w.put_str(&self.agent_names[i]);
                w.put_bytes(&self.agent_state[i]);
                w.put(&self.link_state[i]);
                (self.agent_names[i].clone(), fnv1a64(&w.into_bytes()))
            })
            .collect()
    }

    /// Writes the checkpoint to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Io`] when the write fails.
    pub fn save_to(&self, path: impl AsRef<std::path::Path>) -> SimResult<()> {
        let path = path.as_ref();
        std::fs::write(path, self.to_bytes())
            .map_err(|e| SimError::io(format!("writing checkpoint {}", path.display()), &e))
    }

    /// Reads a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Io`] when the read fails and
    /// [`SimError::Checkpoint`] when the content is malformed.
    pub fn load_from(path: impl AsRef<std::path::Path>) -> SimResult<Self> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)
            .map_err(|e| SimError::io(format!("reading checkpoint {}", path.display()), &e))?;
        Self::from_bytes(&bytes)
    }
}

/// FNV-1a over a byte slice; the stable hash behind checkpoint digests.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Folds per-agent checkpoint digests (from
/// [`EngineCheckpoint::agent_digests`], possibly gathered from several
/// shards) into one order-independent run digest.
///
/// The pairs are sorted by agent name first, so the result is the same
/// however the topology was partitioned — equal combined digests mean
/// bit-identical per-agent state and in-flight tokens, the acceptance bar
/// the paper sets for distributed runs (§III-B2).
pub fn combined_digest(digests: &[(String, u64)]) -> u64 {
    let mut sorted: Vec<&(String, u64)> = digests.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (name, d) in sorted {
        h = fnv1a64(name.as_bytes()) ^ h.wrapping_mul(0x0000_0100_0000_01b3);
        h ^= *d;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl<T> std::fmt::Debug for EngineCheckpoint<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineCheckpoint")
            .field("now", &self.now)
            .field("window", &self.window)
            .field("agents", &self.agent_names)
            .finish()
    }
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

/// Cached [`std::thread::available_parallelism`] — the probe reads cgroup
/// files on Linux (slow, allocating), and the answer never changes.
fn host_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Unwind guard: an agent panicking on one worker must not leave the other
/// workers blocked in channel receives or at the barrier forever.
struct PanicGuard<'a> {
    halt: &'a AtomicBool,
    barrier: &'a EpochBarrier,
}

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.halt.store(true, Ordering::Release);
            self.barrier.cancel();
        }
    }
}

/// Greedy longest-processing-time bin packing: heaviest agents first, each
/// onto the currently lightest worker. Deterministic: ties break towards
/// the lower agent index and the lower worker index.
fn lpt_partition(costs: &[u64], threads: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(costs[i].max(1)), i));
    let mut load = vec![0u128; threads];
    let mut assignment = vec![0usize; costs.len()];
    for i in order {
        let lightest = (0..threads).min_by_key(|&w| load[w]).expect("threads >= 1");
        assignment[i] = lightest;
        load[lightest] += u128::from(costs[i].max(1));
    }
    assignment
}

fn closed_by_peer(agent: &str) -> SimError {
    SimError::ChannelClosed {
        agent: agent.to_owned(),
    }
}

/// A barrier wait that (optionally) accounts its duration to the
/// `engine/barrier_wait_ns` counter and records a `"barrier"` span.
/// With observability off this is exactly `barrier.wait()`.
fn traced_wait(
    barrier: &EpochBarrier,
    tracer: Option<&Arc<SpanTracer>>,
    buf: Option<&mut SpanBuffer>,
    shard: Option<&mut MetricsShard>,
    barrier_ns: Option<CounterId>,
) -> Result<bool, BarrierCancelled> {
    let t0 = shard.is_some().then(Instant::now);
    let start_ns = tracer.map(|t| t.now_ns());
    let result = barrier.wait();
    if let (Some(t0), Some(sh), Some(id)) = (t0, shard, barrier_ns) {
        sh.add(id, t0.elapsed().as_nanos() as u64);
    }
    if let (Some(t), Some(buf), Some(start)) = (tracer, buf, start_ns) {
        buf.span("barrier", "sync", start, t.now_ns());
    }
    result
}

/// Advances one agent by one window. Returns `true` when the agent
/// requested a simulation stop via [`AgentCtx::request_stop`].
///
/// When `halt` is provided (parallel mode), blocking channel operations
/// wake on the halt flag so that one worker failing cannot deadlock the
/// rest.
///
/// Steady-state this performs **zero heap allocations**: input windows are
/// received into the slot's scratch vector and recycled back to their link
/// after `advance`; output windows come from each link's spare-buffer pool.
fn step_agent<T: Send + 'static>(
    slot: &mut AgentSlot<T>,
    now: Cycle,
    window: u32,
    halt: Option<&AtomicBool>,
    faults: Option<&AgentFaults>,
    profiling: bool,
) -> SimResult<bool> {
    let mut inject_panic: Option<String> = None;
    if let Some(faults) = faults {
        let name = slot.agent.name();
        for action in faults.due_host_faults(name, now.as_u64(), window) {
            match action {
                HostFaultAction::Stall(millis) => {
                    std::thread::sleep(std::time::Duration::from_millis(millis));
                }
                HostFaultAction::DropChannel(port) => {
                    if let Some(Some(rx)) = slot.inputs.get(port) {
                        rx.poison();
                    }
                    return Err(SimError::agent(
                        name,
                        format!(
                            "injected channel drop on input port {port} at cycle {}",
                            now.as_u64()
                        ),
                    ));
                }
                HostFaultAction::Panic(message) => inject_panic = Some(message),
            }
        }
    }

    let mut inputs = std::mem::take(&mut slot.scratch_in);
    debug_assert!(inputs.is_empty());
    for (port, rx) in slot.inputs.iter().enumerate() {
        let rx = rx.as_ref().ok_or_else(|| {
            SimError::topology(format!(
                "agent {} input port {port} unconnected mid-run",
                slot.agent.name()
            ))
        })?;
        match rx.recv_or_halt(halt) {
            Ok(Some(w)) => inputs.push(w),
            // Halted while waiting, or the peer is gone.
            Ok(None) | Err(_) => return Err(closed_by_peer(slot.agent.name())),
        }
    }
    let down_mask = match faults {
        Some(faults) => faults.mask_inputs(slot.agent.name(), &mut inputs, now.as_u64(), window),
        None => 0,
    };
    if profiling {
        slot.profile.windows_in += inputs.len() as u64;
        slot.profile.tokens_in += inputs.iter().map(|w| w.occupancy() as u64).sum::<u64>();
    }
    let mut outputs = std::mem::take(&mut slot.scratch_out);
    debug_assert!(outputs.is_empty());
    for (port, tx) in slot.outputs.iter().enumerate() {
        let tx = tx.as_ref().ok_or_else(|| {
            SimError::topology(format!(
                "agent {} output port {port} unconnected mid-run",
                slot.agent.name()
            ))
        })?;
        outputs.push(tx.take_buffer());
    }

    let mut ctx = AgentCtx {
        now,
        window,
        inputs,
        outputs,
        stop: false,
        down_mask,
    };
    let step = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(message) = inject_panic {
            panic!("{message}");
        }
        slot.agent.advance(&mut ctx);
    }));
    if let Err(payload) = step {
        return Err(SimError::AgentPanicked {
            agent: slot.agent.name().to_owned(),
            cycle: now.as_u64(),
            message: panic_message(payload.as_ref()),
        });
    }
    let AgentCtx {
        mut inputs,
        mut outputs,
        stop,
        ..
    } = ctx;
    if profiling {
        slot.profile.windows_out += outputs.len() as u64;
        slot.profile.tokens_out += outputs.iter().map(|w| w.occupancy() as u64).sum::<u64>();
    }

    // Hand consumed input buffers back to their links for reuse.
    for (rx, w) in slot.inputs.iter().zip(inputs.drain(..)) {
        if let Some(rx) = rx.as_ref() {
            rx.recycle(w);
        }
    }
    slot.scratch_in = inputs;

    for (tx, w) in slot.outputs.iter().zip(outputs.drain(..)) {
        let tx = match tx.as_ref() {
            Some(tx) => tx,
            None => continue,
        };
        if tx.send_or_halt(w, halt)?.is_some() {
            // Halted while the link was full.
            return Err(closed_by_peer(slot.agent.name()));
        }
    }
    slot.scratch_out = outputs;
    // host_ns is accounted by the caller, which chains one clock read per
    // step instead of bracketing each step with two.
    if profiling {
        slot.profile.rounds += 1;
        slot.profile.target_cycles += window as u64;
    }
    Ok(stop)
}

/// Best-effort rendering of a panic payload: the common `&str` / `String`
/// payloads come through verbatim, anything else is described opaquely.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn two_agents_ring_latency() {
        let mut engine = Engine::new(8);
        let a = engine.add_agent(Box::new(Pulser::new(16)));
        let b = engine.add_agent(Box::new(Pulser::new(16)));
        engine.connect(a, 0, b, 0, Cycle::new(8)).unwrap();
        engine.connect(b, 0, a, 0, Cycle::new(8)).unwrap();
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

    #[test]
    fn token_arrives_exactly_latency_later() {
        for latency in [8u64, 16, 64] {
            let arrivals = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
            let mut engine = Engine::new(8);
            let s = engine.add_agent(Box::new(OneShot {
                at: 13,
                fired: false,
            }));
            let p = engine.add_agent(Box::new(Probe {
                arrivals: arrivals.clone(),
            }));
            engine.connect(s, 0, p, 0, Cycle::new(latency)).unwrap();
            engine.run_for(Cycle::new(256)).unwrap();
            assert_eq!(*arrivals.lock(), vec![13 + latency], "latency {latency}");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let run = |threads: usize| {
            let arrivals = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
            let mut engine = Engine::new(4);
            engine
                .set_host_threads(threads)
                .set_host_oversubscribe(true);
            let s = engine.add_agent(Box::new(OneShot {
                at: 7,
                fired: false,
            }));
            let p = engine.add_agent(Box::new(Probe {
                arrivals: arrivals.clone(),
            }));
            // extra agents to exercise partitioning
            let a = engine.add_agent(Box::new(Pulser::new(8)));
            let b = engine.add_agent(Box::new(Pulser::new(8)));
            engine.connect(s, 0, p, 0, Cycle::new(12)).unwrap();
            engine.connect(a, 0, b, 0, Cycle::new(4)).unwrap();
            engine.connect(b, 0, a, 0, Cycle::new(8)).unwrap();
            engine.run_for(Cycle::new(128)).unwrap();
            let v = arrivals.lock().clone();
            v
        };
        let seq = run(1);
        for threads in 2..=4 {
            assert_eq!(run(threads), seq, "threads {threads}");
        }
    }

    #[test]
    fn parallel_matches_sequential_with_adversarial_weights() {
        // Weights only steer the partitioner; results must not move.
        let run = |threads: usize, weights: &[u64]| {
            let arrivals = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
            let mut engine = Engine::new(4);
            engine
                .set_host_threads(threads)
                .set_host_oversubscribe(true);
            engine.set_chunk_rounds(2); // force several repartition-eligible chunks
            let s = engine.add_agent(Box::new(OneShot {
                at: 7,
                fired: false,
            }));
            let p = engine.add_agent(Box::new(Probe {
                arrivals: arrivals.clone(),
            }));
            let a = engine.add_agent(Box::new(Pulser::new(8)));
            let b = engine.add_agent(Box::new(Pulser::new(8)));
            for (id, w) in [s, p, a, b].into_iter().zip(weights) {
                engine.set_agent_weight(id, *w);
            }
            engine.connect(s, 0, p, 0, Cycle::new(12)).unwrap();
            engine.connect(a, 0, b, 0, Cycle::new(4)).unwrap();
            engine.connect(b, 0, a, 0, Cycle::new(8)).unwrap();
            engine.run_for(Cycle::new(128)).unwrap();
            let v = arrivals.lock().clone();
            v
        };
        let baseline = run(1, &[1, 1, 1, 1]);
        for weights in [
            [1u64, 1, 1, 1],
            [u64::MAX, 1, 1, 1],
            [1, u64::MAX, u64::MAX, 1],
            [0, 0, 0, 0],
            [7, 3, 100, 1],
        ] {
            for threads in 2..=4 {
                assert_eq!(run(threads, &weights), baseline, "{threads} {weights:?}");
            }
        }
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
        let arrivals = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let s = engine.add_agent(Box::new(OneShot {
            at: 3,
            fired: false,
        }));
        let p = engine.add_agent(Box::new(Probe {
            arrivals: arrivals.clone(),
        }));
        engine.connect(s, 0, p, 0, Cycle::new(4)).unwrap();
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
        struct Done;
        impl SimAgent for Done {
            type Token = u64;
            fn name(&self) -> &str {
                "done"
            }
            fn num_inputs(&self) -> usize {
                1
            }
            fn num_outputs(&self) -> usize {
                1
            }
            fn advance(&mut self, ctx: &mut AgentCtx<u64>) {
                for _ in ctx.drain_input(0) {}
            }
            fn done(&self) -> bool {
                true
            }
        }
        let mut engine = Engine::new(4);
        engine
            .set_host_threads(4)
            .set_host_oversubscribe(true)
            .set_chunk_rounds(2);
        let ids: Vec<AgentId> = (0..4).map(|_| engine.add_agent(Box::new(Done))).collect();
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
        let mut engine: Engine<u64> = Engine::new(4);
        engine.set_chunk_rounds(1);
        let a = engine.add_agent(Box::new(Pulser::new(4)));
        let b = engine.add_agent(Box::new(Pulser::new(4)));
        engine.connect(a, 0, b, 0, Cycle::new(4)).unwrap();
        engine.connect(b, 0, a, 0, Cycle::new(4)).unwrap();
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
        let mut engine: Engine<u64> = Engine::new(8);
        let a = engine.add_agent(Box::new(Pulser::new(4)));
        let b = engine.add_agent(Box::new(Pulser::new(4)));
        engine.connect(a, 0, b, 0, Cycle::new(8)).unwrap();
        engine.connect(b, 0, a, 0, Cycle::new(8)).unwrap();
        let summary = engine.run_for(Cycle::new(10)).unwrap();
        assert_eq!(summary.cycles, Cycle::new(16));
    }

    #[test]
    fn panicking_agent_does_not_deadlock_peers() {
        struct Bomb {
            after: u64,
        }
        impl SimAgent for Bomb {
            type Token = u64;
            fn name(&self) -> &str {
                "bomb"
            }
            fn num_inputs(&self) -> usize {
                1
            }
            fn num_outputs(&self) -> usize {
                1
            }
            fn advance(&mut self, ctx: &mut AgentCtx<u64>) {
                for _ in ctx.drain_input(0) {}
                if ctx.now().as_u64() >= self.after {
                    panic!("boom at {}", ctx.now().as_u64());
                }
            }
        }
        let mut engine = Engine::new(4);
        engine
            .set_host_threads(3)
            .set_host_oversubscribe(true)
            .set_chunk_rounds(4);
        let bomb = engine.add_agent(Box::new(Bomb { after: 32 }));
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
        let mut engine: Engine<u64> = Engine::new(4);
        let a = engine.add_agent(Box::new(Pulser::new(4)));
        let b = engine.add_agent(Box::new(Pulser::new(6)));
        engine.connect(a, 0, b, 0, Cycle::new(8)).unwrap();
        engine.connect(b, 0, a, 0, Cycle::new(8)).unwrap();
        engine
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
        let mut other: Engine<u64> = Engine::new(8);
        let a = other.add_agent(Box::new(Pulser::new(4)));
        let b = other.add_agent(Box::new(Pulser::new(6)));
        other.connect(a, 0, b, 0, Cycle::new(8)).unwrap();
        other.connect(b, 0, a, 0, Cycle::new(8)).unwrap();
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
        let shot = other.add_agent(Box::new(OneShot {
            at: 0,
            fired: false,
        }));
        let probe = other.add_agent(Box::new(Probe {
            arrivals: std::sync::Arc::new(parking_lot::Mutex::new(Vec::new())),
        }));
        other.connect(shot, 0, probe, 0, Cycle::new(8)).unwrap();
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
        let mut engine: Engine<u64> = Engine::new(8);
        let a = engine.add_agent(Box::new(Pulser::new(16)));
        let b = engine.add_agent(Box::new(Pulser::new(16)));
        engine.connect(a, 0, b, 0, Cycle::new(8)).unwrap();
        engine.connect(b, 0, a, 0, Cycle::new(8)).unwrap();
        let reg = engine.enable_metrics();
        engine.run_for(Cycle::new(64)).unwrap();
        for id in [a, b] {
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
        let mut engine: Engine<u64> = Engine::new(4);
        engine
            .set_host_threads(2)
            .set_host_oversubscribe(true)
            .set_chunk_rounds(2);
        let a = engine.add_agent(Box::new(Pulser::new(4)));
        let b = engine.add_agent(Box::new(Pulser::new(6)));
        engine.connect(a, 0, b, 0, Cycle::new(8)).unwrap();
        engine.connect(b, 0, a, 0, Cycle::new(8)).unwrap();
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
    /// in-process: the degenerate "transport" is a direct hand-off.
    fn pump(
        out: BoundaryOutput<u64>,
        inp: BoundaryInput<u64>,
        halt: Arc<AtomicBool>,
    ) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            while let Ok(Some(w)) = out.drain_or_halt(&halt) {
                if !matches!(inp.inject_or_halt(w, &halt), Ok(None)) {
                    break;
                }
            }
        })
    }

    /// A two-agent ring split across two engines connected by boundary
    /// ports produces bit-identical checkpoints to the monolithic ring —
    /// the §III-B2 partitioning invariant at its smallest scale.
    #[test]
    fn boundary_ports_match_monolithic_ring() {
        let run_monolithic = || {
            let mut engine = Engine::new(8);
            let a = engine.add_agent(Box::new(Pulser::new(16)));
            let b = engine.add_agent(Box::new(Pulser::new(24)));
            engine.connect(a, 0, b, 0, Cycle::new(8)).unwrap();
            engine.connect(b, 0, a, 0, Cycle::new(8)).unwrap();
            engine.run_for(Cycle::new(64)).unwrap();
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
                pump(out_a, in_b, Arc::clone(&halt)),
                pump(out_b, in_a, Arc::clone(&halt)),
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

        let mono = run_monolithic();
        let split = run_split();
        assert_eq!(mono, split);
        assert_eq!(combined_digest(&mono), combined_digest(&split));
        // And the digest is actually sensitive to state: a different run
        // length must differ.
        let mut engine = Engine::new(8);
        let a = engine.add_agent(Box::new(Pulser::new(16)));
        let b = engine.add_agent(Box::new(Pulser::new(24)));
        engine.connect(a, 0, b, 0, Cycle::new(8)).unwrap();
        engine.connect(b, 0, a, 0, Cycle::new(8)).unwrap();
        engine.run_for(Cycle::new(128)).unwrap();
        let longer = engine.checkpoint().unwrap().agent_digests();
        assert_ne!(combined_digest(&mono), combined_digest(&longer));
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

    /// One input, one output, no work: every host cycle spent stepping it
    /// is hand-off cost.
    struct Idle;

    impl SimAgent for Idle {
        type Token = u64;
        fn name(&self) -> &str {
            "idle"
        }
        fn num_inputs(&self) -> usize {
            1
        }
        fn num_outputs(&self) -> usize {
            1
        }
        fn advance(&mut self, _ctx: &mut AgentCtx<u64>) {}
    }

    /// Runs a 64-agent ring of [`Idle`]s for 1 000 rounds and returns every
    /// link's `(parks, wakes_issued)`.
    fn idle_ring_wake_counts(threads: usize) -> Vec<(u64, u64)> {
        let mut engine: Engine<u64> = Engine::new(8);
        let ids: Vec<_> = (0..64).map(|_| engine.add_agent(Box::new(Idle))).collect();
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
            let arrivals = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
            let mut engine = Engine::new(4);
            let s = engine.add_agent(Box::new(OneShot {
                at: 7,
                fired: false,
            }));
            let p = engine.add_agent(Box::new(Probe {
                arrivals: arrivals.clone(),
            }));
            engine.connect(s, 0, p, 0, Cycle::new(12)).unwrap();
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
}
