//! Running rounds: worker configuration, stop/abort/progress handles, and
//! the one worker loop that steps every agent once per window.
//!
//! Every thread count runs the same loop ([`Run::worker`]). A worker owns
//! its agents outright — a sole worker the engine's slots in place, each of
//! several workers a `Vec` of the slots assigned to it — so stepping takes
//! no lock. Worker 0 is the calling thread: a one-worker run spawns nothing
//! and synchronises with nobody, which is what keeps it as cheap as a
//! plain loop over the agents. Several workers meet once per chunk, at a
//! barrier, only to vote on ending a [`Engine::run_until_done`]. The one
//! load-aware repartition happens between two sets of scoped workers: the
//! first chunk measures each agent's host cost, the rest of the run uses
//! the re-packed assignment.

use std::borrow::BorrowMut;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::agent::{step_agent, AgentSlot};
use super::{token_invariant, AgentId, Engine};
use crate::error::{SimError, SimResult};
use crate::fault::AgentFaults;
use crate::metrics::{
    CounterId, HistogramId, MetricsRegistry, MetricsShard, SpanBuffer, SpanTracer,
};
use crate::sync::{BarrierCancelled, EpochBarrier};
use crate::time::Cycle;

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
pub(super) struct ProgressShared {
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
    /// Number of host workers used (1 = the calling thread alone).
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

/// Counter/histogram handles the engine itself records into when metrics
/// are enabled.
#[derive(Debug, Clone, Copy)]
struct EngineMetricIds {
    /// `engine/agent_steps`: total agent-windows stepped. Deterministic —
    /// independent of host thread count.
    steps: CounterId,
    /// `engine/barrier_wait_ns`: host ns spent waiting at chunk barriers
    /// (multi-worker runs only). Host-dependent.
    barrier_ns: CounterId,
    /// `engine/chunk_host_ns`: host ns per worker-chunk. Host-dependent.
    chunk_ns: HistogramId,
}

impl<T: Send + 'static> Engine<T> {
    /// Sets the number of host worker threads used by subsequent runs.
    /// `0` and `1` both mean one worker, which runs on the calling thread.
    ///
    /// The scheduler never uses more workers than the host has cores
    /// (oversubscribing buys nothing but context-switch overhead and can
    /// cost several times the one-worker rate); the request is clamped to
    /// [`std::thread::available_parallelism`] at run time unless
    /// [`Engine::set_host_oversubscribe`] lifts the cap. Thanks to the
    /// token protocol the worker count never affects simulated behaviour,
    /// only wall-clock time.
    pub fn set_host_threads(&mut self, threads: usize) -> &mut Self {
        self.host_threads = threads.max(1);
        self
    }

    /// Allows more host workers than the machine has cores. Useful for
    /// testing multi-worker runs on small hosts; a performance anti-pattern
    /// otherwise.
    pub fn set_host_oversubscribe(&mut self, allow: bool) -> &mut Self {
        self.oversubscribe = allow;
        self
    }

    /// Sets how many rounds run between chunk boundaries, where workers
    /// check for stops and, in [`Engine::run_until_done`], vote on ending
    /// the run. Larger chunks amortise synchronisation; stops are honoured
    /// at chunk boundaries only (deterministically).
    pub fn set_chunk_rounds(&mut self, rounds: u64) -> &mut Self {
        self.chunk_rounds = rounds.max(1);
        self
    }

    /// Supplies a relative host-cost weight for an agent, used by the
    /// load-aware partitioner in multi-worker runs.
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

    /// Creates a progress probe over the currently registered agents.
    /// Call after the topology is complete: agents added later are not
    /// tracked by this probe (their steps are simply not counted).
    pub fn progress_probe(&mut self) -> ProgressProbe {
        let shared = Arc::new(ProgressShared {
            steps: (0..self.agents.len()).map(|_| AtomicU64::new(0)).collect(),
            names: self.agent_names(),
        });
        self.progress = Some(Arc::clone(&shared));
        ProgressProbe { inner: shared }
    }

    /// Number of host worker threads configured via
    /// [`Engine::set_host_threads`] (before run-time core clamping).
    pub fn host_threads(&self) -> usize {
        self.host_threads
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

    /// Runs until every agent reports
    /// [`SimAgent::done`](crate::SimAgent::done), an agent calls
    /// [`AgentCtx::request_stop`](crate::AgentCtx::request_stop), a
    /// [`StopHandle`] fires, or `max_cycles` elapse — whichever comes first.
    /// Stop conditions are evaluated at deterministic chunk boundaries.
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
        let result = self.run_workers(rounds, stoppable, threads, &faults);
        // An abort wakes blocked workers by halting them, which surfaces as
        // ChannelClosed on their side; report the abort (the cause), not the
        // wake-up mechanics (the symptom) — unless a more diagnostic error
        // was recorded.
        let symptom = result.as_ref().err().is_none_or(|e| e.severity() <= 1);
        if self.abort.load(Ordering::Acquire) && symptom {
            return Err(self.abort_error());
        }
        let rounds_run = result?;
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

    /// Steps every agent through `rounds` rounds on `threads` workers and
    /// returns the rounds completed (fewer when a stop ends the run early).
    ///
    /// Several workers start with the agents packed by their caller weights
    /// (default 1, i.e. round-robin-ish). A run long enough to profit
    /// measures each agent's host cost over the first chunk, re-packs the
    /// agents once by that cost, and runs the remaining rounds on a fresh
    /// set of workers.
    fn run_workers(
        &mut self,
        rounds: u64,
        stoppable: bool,
        threads: usize,
        faults: &[Option<AgentFaults>],
    ) -> SimResult<u64> {
        let run = Run {
            window: self.window,
            start: self.now,
            chunk: self.chunk_rounds,
            threads,
            stoppable,
            faults,
            ids: self.metrics.as_ref().map(|m| EngineMetricIds {
                steps: m.counter("engine/agent_steps"),
                barrier_ns: m.counter("engine/barrier_wait_ns"),
                chunk_ns: m.histogram("engine/chunk_host_ns"),
            }),
            stop: &self.stop,
            halt: &self.run_halt,
            progress: self.progress.as_deref(),
            metrics: self.metrics.as_deref(),
            tracer: self.tracer.as_deref(),
            boundary_inputs: &self.boundary_inputs,
            barrier: EpochBarrier::new(threads),
            votes: match threads {
                1 => Vec::new(),
                _ => (0..2 * threads).map(|_| AtomicU8::new(0)).collect(),
            },
            error: parking_lot::Mutex::new(None),
        };
        let mut assignment = Vec::new();
        let mut from = 0;
        if threads > 1 {
            let weights: Vec<Option<u64>> = self.agents.iter().map(|s| s.weight).collect();
            let mut costs: Vec<u64> = weights.iter().map(|w| w.unwrap_or(1)).collect();
            assignment = lpt_partition(&costs, threads);
            if rounds > run.chunk && self.agents.len() > threads {
                let (done, measured) =
                    run.phase(&mut self.agents, &assignment, 0, run.chunk, true)?;
                if stoppable && (self.stop.load(Ordering::Acquire) || self.all_done()) {
                    return Ok(done);
                }
                for (i, ns) in measured {
                    costs[i] = weights[i].unwrap_or(ns);
                }
                assignment = lpt_partition(&costs, threads);
                from = done;
            }
        }
        run.phase(&mut self.agents, &assignment, from, rounds, false)
            .map(|(done, _)| done)
    }
}

/// Chunk-vote bits for `run_until_done`.
const VOTE_DONE: u8 = 1;
const VOTE_STOPPED: u8 = 2;

/// What the workers of one run share. Each worker owns its agents
/// outright; everything here is read-only apart from atomics, the barrier
/// and the error slot.
struct Run<'a> {
    window: u32,
    /// Target cycle of round 0.
    start: Cycle,
    chunk: u64,
    threads: usize,
    stoppable: bool,
    faults: &'a [Option<AgentFaults>],
    ids: Option<EngineMetricIds>,
    stop: &'a AtomicBool,
    /// Set on error, panic, or abort; sleeping peers notice within
    /// ~500µs. Shared with [`AbortHandle`]s via the engine.
    halt: &'a AtomicBool,
    progress: Option<&'a ProgressShared>,
    metrics: Option<&'a MetricsRegistry>,
    tracer: Option<&'a SpanTracer>,
    boundary_inputs: &'a [(usize, usize)],
    barrier: EpochBarrier,
    /// Per-worker chunk votes, double-buffered by chunk parity: the bucket
    /// for chunk `c` is re-written at chunk `c + 2`, by which time every
    /// reader of the chunk-`c` values has passed two barriers. One barrier
    /// per chunk thus suffices — every input to the continue/stop decision
    /// is a pre-barrier snapshot, so all workers decide identically.
    votes: Vec<AtomicU8>,
    /// The most diagnostic error any worker hit.
    error: parking_lot::Mutex<Option<SimError>>,
}

impl Run<'_> {
    /// Runs rounds `from..to` with agent `i` on worker `assignment[i]`.
    /// Worker 0 is the calling thread, so a sole worker spawns nothing and
    /// steps the engine's slots in place. Returns the rounds every worker
    /// completed and, when `measuring`, each agent's host nanoseconds.
    fn phase<T: Send + 'static>(
        &self,
        agents: &mut [AgentSlot<T>],
        assignment: &[usize],
        from: u64,
        to: u64,
        measuring: bool,
    ) -> SimResult<(u64, Vec<(usize, u64)>)> {
        let outcome = if self.threads == 1 {
            self.worker(0, agents, from, to, measuring)
        } else {
            let mut owned: Vec<Vec<&mut AgentSlot<T>>> =
                (0..self.threads).map(|_| Vec::new()).collect();
            for slot in agents {
                owned[assignment[slot.index]].push(slot);
            }
            let (first, rest) = owned.split_first_mut().expect("at least one worker");
            std::thread::scope(|scope| {
                let spawned: Vec<_> = rest
                    .iter_mut()
                    .enumerate()
                    .map(|(w, mine)| {
                        scope.spawn(move || self.worker(w + 1, mine, from, to, measuring))
                    })
                    .collect();
                let (mut done, mut measured) = self.worker(0, first, from, to, measuring);
                for handle in spawned {
                    let (r, m) = handle
                        .join()
                        .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
                    done = done.min(r);
                    measured.extend(m);
                }
                (done, measured)
            })
        };
        match self.error.lock().take() {
            Some(e) => Err(e),
            None => Ok(outcome),
        }
    }

    /// One worker: steps the agents it owns through rounds `from..to`,
    /// chunk by chunk, and returns the rounds it completed plus, when
    /// `measuring`, its agents' host nanoseconds.
    ///
    /// Kept out of line, with `step_agent` inlined into it, so the hot loop
    /// compiles the same whichever crate instantiates it.
    #[inline(never)]
    fn worker<T: Send + 'static, S: BorrowMut<AgentSlot<T>>>(
        &self,
        widx: usize,
        mine: &mut [S],
        from: u64,
        to: u64,
        measuring: bool,
    ) -> (u64, Vec<(usize, u64)>) {
        let _guard = PanicGuard(self);
        let Run {
            window,
            start,
            chunk,
            threads,
            stoppable,
            faults,
            ids,
            stop,
            halt,
            progress,
            metrics,
            tracer,
            boundary_inputs,
            ..
        } = *self;
        let profiling = metrics.is_some();
        let mut shard = metrics.map(MetricsRegistry::shard);
        let mut span_buf = tracer.map(|t| {
            t.name_thread(widx as u32, format!("worker{widx}"));
            t.buffer(widx as u32)
        });
        let mut measured = vec![0u64; if measuring { mine.len() } else { 0 }];
        // One clock read per step, chained: it closes the previous step's
        // span / host_ns / load measurement and opens the next one's.
        let need_clock = profiling || tracer.is_some() || measuring;
        let mut parity = 0;
        let mut now = start + Cycle::new(from * u64::from(window));
        let mut round = from;
        'chunks: while round < to && !halt.load(Ordering::Acquire) {
            let chunk_end = (round + chunk).min(to);
            let chunk_t0 = need_clock.then(Instant::now);
            let mut t_prev = chunk_t0;
            while round < chunk_end {
                for (k, slot) in mine.iter_mut().enumerate() {
                    let slot: &mut AgentSlot<T> = slot.borrow_mut();
                    let faults = faults.get(slot.index).and_then(Option::as_ref);
                    match step_agent(slot, now, window, halt, faults, profiling) {
                        Ok(true) => stop.store(true, Ordering::Release),
                        Ok(false) => {}
                        Err(e) => {
                            self.fail(e);
                            break 'chunks;
                        }
                    }
                    if let Some(prev) = t_prev {
                        let t_now = Instant::now();
                        let ns = t_now.duration_since(prev).as_nanos() as u64;
                        if measuring {
                            measured[k] += ns;
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
                    if let Some(c) = progress.and_then(|p| p.steps.get(slot.index)) {
                        c.fetch_add(1, Ordering::Relaxed);
                    }
                }
                now += Cycle::new(u64::from(window));
                round += 1;
                // A sole worker ends every round quiescent, so the token
                // invariant can be checked continuously (debug builds).
                // Boundary inputs refill asynchronously and are excluded
                // here; the end-of-run check covers them after the quiesce
                // wait.
                if cfg!(debug_assertions) && threads == 1 {
                    let slots = mine.iter().map(|s| s.borrow());
                    if let Err(e) = token_invariant(slots, window, boundary_inputs, true) {
                        panic!("{e}");
                    }
                }
            }
            // Fold this chunk's metrics into the registry at the chunk
            // boundary — the one place a lock is already tolerable.
            if let (Some(m), Some(sh)) = (metrics, shard.as_mut()) {
                if let (Some(ids), Some(t0)) = (ids, chunk_t0) {
                    sh.record(ids.chunk_ns, t0.elapsed().as_nanos() as u64);
                }
                m.absorb(sh);
            }
            if stoppable {
                let mut vote = 0;
                if mine.iter().all(|s| s.borrow().agent.done()) {
                    vote |= VOTE_DONE;
                }
                if stop.load(Ordering::Acquire) {
                    vote |= VOTE_STOPPED;
                }
                // A cancelled barrier means a peer failed: the run ends too.
                let ends =
                    self.ends_here(widx, &mut parity, vote, span_buf.as_mut(), shard.as_mut());
                if ends.unwrap_or(true) {
                    break;
                }
            }
        }
        if let (Some(m), Some(sh)) = (metrics, shard.as_mut()) {
            m.absorb(sh);
        }
        if let (Some(t), Some(mut buf)) = (tracer, span_buf) {
            t.flush(&mut buf);
        }
        let measured = mine.iter().map(|s| s.borrow().index).zip(measured);
        (round, measured.collect())
    }

    /// Publishes this worker's chunk vote and returns whether the run ends
    /// at this chunk boundary (every agent done, or a stop requested) —
    /// the same answer on every worker. A sole worker decides alone; the
    /// others meet at one barrier, accounted to `engine/barrier_wait_ns`
    /// and traced as a `"barrier"` span. `Err` when the barrier was
    /// cancelled.
    fn ends_here(
        &self,
        widx: usize,
        parity: &mut usize,
        vote: u8,
        buf: Option<&mut SpanBuffer>,
        shard: Option<&mut MetricsShard>,
    ) -> Result<bool, BarrierCancelled> {
        if self.threads == 1 {
            return Ok(vote != 0);
        }
        let votes = &self.votes[*parity * self.threads..][..self.threads];
        *parity ^= 1;
        votes[widx].store(vote, Ordering::Relaxed);
        let t0 = shard.is_some().then(Instant::now);
        let start_ns = self.tracer.map(SpanTracer::now_ns);
        let waited = self.barrier.wait();
        if let (Some(t0), Some(sh), Some(ids)) = (t0, shard, self.ids) {
            sh.add(ids.barrier_ns, t0.elapsed().as_nanos() as u64);
        }
        if let (Some(t), Some(buf), Some(start)) = (self.tracer, buf, start_ns) {
            buf.span("barrier", "sync", start, t.now_ns());
        }
        waited?;
        let all_done = votes
            .iter()
            .all(|v| v.load(Ordering::Relaxed) & VOTE_DONE != 0);
        let stopped = votes
            .iter()
            .any(|v| v.load(Ordering::Relaxed) & VOTE_STOPPED != 0);
        Ok(all_done || stopped)
    }

    /// Records a worker's error and halts the run. Keeps the most
    /// diagnostic error: the panicking agent's own report must not be
    /// clobbered by a peer observing the fallout.
    fn fail(&self, e: SimError) {
        let mut err = self.error.lock();
        if err
            .as_ref()
            .is_none_or(|prev| e.severity() > prev.severity())
        {
            *err = Some(e);
        }
        drop(err);
        self.halt_all();
    }

    /// Wakes every worker out of channel waits and the barrier.
    fn halt_all(&self) {
        self.halt.store(true, Ordering::Release);
        self.barrier.cancel();
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

/// Unwind guard: a worker unwinding (an engine bug; agent panics are caught
/// by `step_agent`) must not leave the other workers blocked in channel
/// receives or at the barrier forever.
struct PanicGuard<'a>(&'a Run<'a>);

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.halt_all();
        }
    }
}

/// Greedy longest-processing-time bin packing: heaviest agents first, each
/// onto the currently lightest worker. Deterministic: ties break towards
/// the lower agent index and the lower worker index.
pub(super) fn lpt_partition(costs: &[u64], threads: usize) -> Vec<usize> {
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
