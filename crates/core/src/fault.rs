//! Deterministic, seeded fault injection.
//!
//! A multi-hour scale-out simulation meets every failure mode the host can
//! produce — a worker thread dies, a channel tears, a model wedges — and
//! the halt/teardown machinery that handles them is exactly the code that
//! is hardest to exercise. A [`FaultPlan`] makes those failures *schedulable
//! and replayable*: it is built from a seed (or explicit fault entries),
//! handed to [`Engine::set_fault_plan`](crate::Engine::set_fault_plan), and
//! fires the same faults at the same target cycles on every run.
//!
//! Two families of fault exist:
//!
//! * **Host-side** faults model the simulator breaking: an agent panicking
//!   mid-`advance`, a token channel dropping, a worker stalling long enough
//!   to trip a watchdog. These are *one-shot*: each entry carries a shared
//!   `fired` flag that survives engine rebuilds, so a supervisor retrying
//!   from a checkpoint with the same plan observes a **transient** fault —
//!   it fires once and never again. This is how the manager's
//!   retry-from-checkpoint path is tested end to end.
//! * **Target-side** faults model the simulated world breaking: a link goes
//!   down (all tokens in a cycle range become idle), flaky (a seeded
//!   fraction of tokens is dropped), or degraded (a duty-cycle fraction of
//!   each link's bandwidth is shaved off). Tokens still flow one per cycle —
//!   only payloads disappear — so the simulation stays cycle-exact and the
//!   fault is part of the deterministic target behaviour: replaying from a
//!   checkpoint reproduces it bit-for-bit.
//!
//! Plans can additionally **watch** links and accumulate a
//! [`RecoveryTimeline`]: per-interval delivered/dropped/masked token counts
//! on the watched input ports, which is how chaos-scenario runs (see
//! [`scenario`](crate::scenario)) surface their recovery curves in run
//! reports. Every count is a pure function of target state, so timelines
//! agree bit-for-bit across thread counts, transports, and partitionings.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::error::{SimError, SimResult};
use crate::rng::SimRng;
use crate::token::TokenWindow;

/// Which agent a fault applies to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultTarget {
    /// The agent at this registration index.
    Index(usize),
    /// The agent with this name (resolved when the run starts).
    Name(String),
}

impl From<usize> for FaultTarget {
    fn from(i: usize) -> Self {
        FaultTarget::Index(i)
    }
}

impl From<&str> for FaultTarget {
    fn from(n: &str) -> Self {
        FaultTarget::Name(n.to_owned())
    }
}

/// What kind of failure to inject.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Host fault: the agent panics inside `advance` (one-shot).
    AgentPanic,
    /// Host fault: the agent's input channel `port` is torn down — in-flight
    /// windows are discarded and both endpoints observe closure (one-shot).
    ChannelDrop {
        /// Input port whose link is dropped.
        port: usize,
    },
    /// Host fault: the worker stepping this agent sleeps for `millis`
    /// milliseconds before the step — watchdog food (one-shot).
    WorkerStall {
        /// How long the worker sleeps.
        millis: u64,
    },
    /// Target fault: every token arriving on input `port` in target cycles
    /// `[at, until)` is delivered dead (idle). Replays deterministically.
    LinkDown {
        /// Input port whose link is down.
        port: usize,
        /// First cycle at which the link works again.
        until: u64,
    },
    /// Target fault: each token arriving on input `port` in `[at, until)`
    /// is dropped with probability `drop_percent`/100, decided by a pure
    /// hash of (seed, cycle), so the loss pattern is identical on replay.
    LinkFlaky {
        /// Input port whose link is flaky.
        port: usize,
        /// First cycle at which the link is reliable again.
        until: u64,
        /// Percentage of tokens dropped, 0-100.
        drop_percent: u8,
    },
    /// Target fault: input `port`'s bandwidth is shaped down to
    /// `keep_percent`% for cycles `[at, until)` — a token at absolute cycle
    /// `c` is delivered iff `c % 100 < keep_percent`. The duty cycle is a
    /// pure function of the target cycle (seed-independent), modeling
    /// deterministic bandwidth degradation rather than random loss.
    LinkDegraded {
        /// Input port whose link is degraded.
        port: usize,
        /// First cycle at which full bandwidth returns.
        until: u64,
        /// Percentage of tokens kept, 0-100.
        keep_percent: u8,
    },
}

impl FaultKind {
    fn is_one_shot(&self) -> bool {
        matches!(
            self,
            FaultKind::AgentPanic | FaultKind::ChannelDrop { .. } | FaultKind::WorkerStall { .. }
        )
    }

    /// The input port this kind addresses, when it addresses one.
    fn port(&self) -> Option<usize> {
        match self {
            FaultKind::ChannelDrop { port }
            | FaultKind::LinkDown { port, .. }
            | FaultKind::LinkFlaky { port, .. }
            | FaultKind::LinkDegraded { port, .. } => Some(*port),
            FaultKind::AgentPanic | FaultKind::WorkerStall { .. } => None,
        }
    }
}

/// Provenance of a fault that actually fired, for failure reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Name of the agent the fault hit.
    pub agent: String,
    /// Target cycle (window start) at which it fired.
    pub cycle: u64,
    /// Human-readable description of the fault.
    pub description: String,
}

#[derive(Debug, Clone)]
struct FaultEntry {
    target: FaultTarget,
    at: u64,
    kind: FaultKind,
    /// Seed driving this entry's flaky-link drop decisions. Captured per
    /// entry (from the owning plan at injection time) so merging two plans
    /// with different seeds preserves each entry's loss pattern.
    seed: u64,
    /// Shared across clones of the plan so a one-shot fault stays fired
    /// when a supervisor rebuilds the engine and retries.
    fired: Arc<AtomicBool>,
}

/// A link watch: per-window token accounting on one agent's input port,
/// feeding the plan's [`RecoveryTimeline`].
#[derive(Debug, Clone)]
struct WatchEntry {
    target: FaultTarget,
    port: usize,
    /// High-water mark of window-*end* cycles already accumulated into the
    /// timeline. Shared across plan clones so a supervisor replaying
    /// windows after a retry-from-checkpoint does not double-count them:
    /// only the first execution of each window contributes (and replayed
    /// windows are deterministically identical anyway).
    counted_until: Arc<AtomicU64>,
}

/// Shared accumulator behind a plan's recovery timeline.
#[derive(Debug, Default)]
struct TimelineInner {
    /// Bucket width in target cycles (0 = recording disabled).
    interval: u64,
    /// Bucket start cycle → `[delivered, dropped, masked]` token counts.
    buckets: BTreeMap<u64, [u64; 3]>,
    /// Scenario annotations: `(cycle, label)`.
    events: Vec<(u64, String)>,
}

/// One bucket of a [`RecoveryTimeline`]: token counts on all watched links
/// for target cycles `[start, start + interval)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelinePoint {
    /// First target cycle of the bucket.
    pub start: u64,
    /// Tokens delivered alive on watched ports.
    pub delivered: u64,
    /// Tokens removed by flaky/degraded links (partial loss).
    pub dropped: u64,
    /// Tokens removed by downed links (total loss).
    pub masked: u64,
}

/// A per-interval account of token flow on watched links, around injected
/// events: the "recovery curve" of a chaos run. Collected into run reports
/// by the manager. All counts are target state — bit-identical across
/// thread counts, transports, and partitionings of the same run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryTimeline {
    /// Bucket width in target cycles.
    pub interval: u64,
    /// Buckets in ascending `start` order (buckets nothing flowed through
    /// still appear if any watched window fell inside them).
    pub points: Vec<TimelinePoint>,
    /// Scenario annotations: `(cycle, label)`, e.g. partition begin/heal.
    pub events: Vec<(u64, String)>,
}

/// A schedule of injectable faults, replayable across runs.
///
/// Cloning a plan shares its fired-flags and provenance log, so handing the
/// *same* plan (or a clone) to a rebuilt engine preserves one-shot
/// semantics — the basis of transient-fault recovery testing.
///
/// # Examples
///
/// ```
/// use firesim_core::FaultPlan;
///
/// let mut plan = FaultPlan::new(0xF1BE);
/// plan.panic_at("pinger", 250_000);
/// plan.link_down("echo", 0, 100_000, 200_000);
/// assert_eq!(plan.len(), 2);
///
/// // Clones share fired-state and the provenance log: a supervisor
/// // handing a clone to a rebuilt engine keeps one-shot faults one-shot.
/// let replay = plan.clone();
/// assert_eq!(replay.len(), plan.len());
/// assert!(plan.records().is_empty(), "nothing fired yet");
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<FaultEntry>,
    watches: Vec<WatchEntry>,
    timeline: Option<Arc<Mutex<TimelineInner>>>,
    log: Arc<Mutex<Vec<FaultRecord>>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl FaultPlan {
    /// Creates an empty plan. The seed drives flaky-link token selection.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
            watches: Vec::new(),
            timeline: None,
            log: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// True when the plan does something during a run: schedules at least
    /// one fault or watches at least one link.
    pub fn has_effects(&self) -> bool {
        !self.faults.is_empty() || !self.watches.is_empty()
    }

    /// Schedules `kind` against `target` at target cycle `at`.
    pub fn inject(
        &mut self,
        target: impl Into<FaultTarget>,
        at: u64,
        kind: FaultKind,
    ) -> &mut Self {
        self.faults.push(FaultEntry {
            target: target.into(),
            at,
            kind,
            seed: self.seed,
            fired: Arc::new(AtomicBool::new(false)),
        });
        self
    }

    /// Schedules an agent panic (one-shot host fault).
    pub fn panic_at(&mut self, target: impl Into<FaultTarget>, at: u64) -> &mut Self {
        self.inject(target, at, FaultKind::AgentPanic)
    }

    /// Schedules a channel drop on an input port (one-shot host fault).
    pub fn drop_channel(
        &mut self,
        target: impl Into<FaultTarget>,
        port: usize,
        at: u64,
    ) -> &mut Self {
        self.inject(target, at, FaultKind::ChannelDrop { port })
    }

    /// Schedules a worker stall (one-shot host fault).
    pub fn stall_worker(
        &mut self,
        target: impl Into<FaultTarget>,
        at: u64,
        millis: u64,
    ) -> &mut Self {
        self.inject(target, at, FaultKind::WorkerStall { millis })
    }

    /// Takes an input link down for target cycles `[from, until)`.
    pub fn link_down(
        &mut self,
        target: impl Into<FaultTarget>,
        port: usize,
        from: u64,
        until: u64,
    ) -> &mut Self {
        self.inject(target, from, FaultKind::LinkDown { port, until })
    }

    /// Makes an input link flaky for target cycles `[from, until)`.
    pub fn link_flaky(
        &mut self,
        target: impl Into<FaultTarget>,
        port: usize,
        from: u64,
        until: u64,
        drop_percent: u8,
    ) -> &mut Self {
        self.inject(
            target,
            from,
            FaultKind::LinkFlaky {
                port,
                until,
                drop_percent,
            },
        )
    }

    /// Shapes an input link down to `keep_percent`% of its bandwidth for
    /// target cycles `[from, until)` (deterministic duty cycle; see
    /// [`FaultKind::LinkDegraded`]).
    pub fn link_degraded(
        &mut self,
        target: impl Into<FaultTarget>,
        port: usize,
        from: u64,
        until: u64,
        keep_percent: u8,
    ) -> &mut Self {
        self.inject(
            target,
            from,
            FaultKind::LinkDegraded {
                port,
                until,
                keep_percent,
            },
        )
    }

    /// Watches `target`'s input `port`: every window's delivered and
    /// fault-removed tokens on the port are accumulated into the plan's
    /// recovery timeline (see [`FaultPlan::record_timeline`]).
    pub fn watch_link(&mut self, target: impl Into<FaultTarget>, port: usize) -> &mut Self {
        self.watches.push(WatchEntry {
            target: target.into(),
            port,
            counted_until: Arc::new(AtomicU64::new(0)),
        });
        self
    }

    /// Enables recovery-timeline recording with the given bucket width in
    /// target cycles. A zero interval disables recording. The timeline is
    /// shared across clones of the plan (like the provenance log).
    pub fn record_timeline(&mut self, interval: u64) -> &mut Self {
        lock(self.timeline_inner()).interval = interval;
        self
    }

    /// Adds a `(cycle, label)` annotation to the recovery timeline — used
    /// by the scenario compiler to mark event begin/heal cycles.
    pub fn annotate(&mut self, cycle: u64, label: impl Into<String>) -> &mut Self {
        lock(self.timeline_inner())
            .events
            .push((cycle, label.into()));
        self
    }

    fn timeline_inner(&mut self) -> &Arc<Mutex<TimelineInner>> {
        self.timeline
            .get_or_insert_with(|| Arc::new(Mutex::new(TimelineInner::default())))
    }

    /// A snapshot of the recovery timeline accumulated so far, or `None`
    /// when recording was never enabled.
    pub fn recovery_timeline(&self) -> Option<RecoveryTimeline> {
        let tl = lock(self.timeline.as_ref()?);
        Some(RecoveryTimeline {
            interval: tl.interval,
            points: tl
                .buckets
                .iter()
                .map(|(&start, &[delivered, dropped, masked])| TimelinePoint {
                    start,
                    delivered,
                    dropped,
                    masked,
                })
                .collect(),
            events: tl.events.clone(),
        })
    }

    /// Appends every fault, watch, and timeline of `other` into this plan.
    /// Fault entries keep their own seeds and shared fired-flags, so a
    /// scenario-derived plan merged into a user plan behaves exactly as it
    /// would alone; if this plan has no timeline yet, it adopts (shares)
    /// the other plan's.
    pub fn merge_from(&mut self, other: &FaultPlan) {
        self.faults.extend(other.faults.iter().cloned());
        self.watches.extend(other.watches.iter().cloned());
        if self.timeline.is_none() {
            self.timeline = other.timeline.clone();
        }
    }

    /// Derives a benign smoke-test plan from a seed: one or two *target-side*
    /// link faults against pseudo-random agents in `[0, agents)`, within the
    /// first `horizon` cycles. Host-side faults are deliberately excluded so
    /// a smoke run completes; the point is exercising the fault-delivery
    /// machinery under different seeds.
    pub fn smoke(seed: u64, agents: usize, horizon: u64) -> Self {
        let mut plan = FaultPlan::new(seed);
        if agents == 0 || horizon < 2 {
            return plan;
        }
        let mut rng = SimRng::seed_from(seed);
        let n = 1 + (rng.next_u64() % 2) as usize;
        for _ in 0..n {
            let agent = rng.next_below(agents as u64) as usize;
            let from = rng.next_below(horizon / 2);
            let until = from + 1 + rng.next_below(horizon - from);
            if rng.next_bool(0.5) {
                plan.link_down(agent, 0, from, until);
            } else {
                let pct = 10 + (rng.next_below(90)) as u8;
                plan.link_flaky(agent, 0, from, until, pct);
            }
        }
        plan
    }

    /// Faults that have fired so far, in firing order (provenance for
    /// failure reports). Shared across clones of the plan.
    pub fn records(&self) -> Vec<FaultRecord> {
        lock(&self.log).clone()
    }

    /// Resolves fault and watch targets against the engine's agents — each
    /// given as `(name, input port count)` — grouping entries per agent
    /// index. Called by the engine at run start.
    ///
    /// A target naming an unknown agent, an out-of-range agent index, or an
    /// input port the agent does not have is a typed error here, **not** a
    /// silent no-op: a chaos plan that injects nothing is a broken
    /// experiment, and this is the one choke point every fault passes
    /// through.
    pub(crate) fn resolve(&self, agents: &[(&str, usize)]) -> SimResult<Vec<Option<AgentFaults>>> {
        let target_index = |target: &FaultTarget| -> SimResult<usize> {
            match target {
                FaultTarget::Index(i) => {
                    if *i >= agents.len() {
                        return Err(SimError::topology(format!(
                            "fault plan targets agent index {i}, engine has {} agents",
                            agents.len()
                        )));
                    }
                    Ok(*i)
                }
                FaultTarget::Name(n) => agents.iter().position(|(m, _)| m == n).ok_or_else(|| {
                    SimError::topology(format!("fault plan targets unknown agent {n:?}"))
                }),
            }
        };
        let check_port = |idx: usize, port: usize, what: &str| -> SimResult<()> {
            let (name, n_in) = agents[idx];
            if port >= n_in {
                return Err(SimError::topology(format!(
                    "fault plan {what} input port {port} of agent {name:?}, \
                     which has {n_in} input port(s)"
                )));
            }
            Ok(())
        };

        let mut per_agent: Vec<AgentFaults> = (0..agents.len())
            .map(|_| AgentFaults {
                faults: Vec::new(),
                watches: Vec::new(),
                timeline: self.timeline.clone(),
                log: Arc::clone(&self.log),
            })
            .collect();
        for entry in &self.faults {
            let idx = target_index(&entry.target)?;
            if let Some(port) = entry.kind.port() {
                check_port(idx, port, "injects a fault on")?;
            }
            per_agent[idx].faults.push(ResolvedFault {
                at: entry.at,
                kind: entry.kind.clone(),
                seed: entry.seed,
                fired: Arc::clone(&entry.fired),
            });
        }
        for watch in &self.watches {
            let idx = target_index(&watch.target)?;
            check_port(idx, watch.port, "watches")?;
            per_agent[idx].watches.push(ResolvedWatch {
                port: watch.port,
                counted_until: Arc::clone(&watch.counted_until),
            });
        }
        Ok(per_agent
            .into_iter()
            .map(|af| {
                if af.faults.is_empty() && af.watches.is_empty() {
                    None
                } else {
                    Some(af)
                }
            })
            .collect())
    }
}

#[derive(Debug)]
pub(crate) struct ResolvedFault {
    at: u64,
    kind: FaultKind,
    seed: u64,
    fired: Arc<AtomicBool>,
}

#[derive(Debug)]
struct ResolvedWatch {
    port: usize,
    counted_until: Arc<AtomicU64>,
}

/// Pure hash used for flaky-link drop decisions: depends only on the plan
/// seed and the absolute target cycle, so it replays identically.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// What a host-side fault asks the stepping code to do, in check order.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum HostFaultAction {
    /// Sleep this many milliseconds before the step.
    Stall(u64),
    /// Tear down the input channel at this port.
    DropChannel(usize),
    /// Panic inside `advance` with this message.
    Panic(String),
}

/// The faults resolved against one agent, consulted by `step_agent`.
#[derive(Debug)]
pub(crate) struct AgentFaults {
    faults: Vec<ResolvedFault>,
    watches: Vec<ResolvedWatch>,
    timeline: Option<Arc<Mutex<TimelineInner>>>,
    log: Arc<Mutex<Vec<FaultRecord>>>,
}

impl AgentFaults {
    /// Returns the one-shot host faults due in the window starting at
    /// `now`, marking them fired and logging provenance. A fault whose
    /// cycle has already passed (e.g. after a restore that skipped it)
    /// fires in the first window that reaches it.
    pub(crate) fn due_host_faults(
        &self,
        agent: &str,
        now: u64,
        window: u32,
    ) -> Vec<HostFaultAction> {
        let mut actions = Vec::new();
        for f in &self.faults {
            if !f.kind.is_one_shot() || f.at >= now + u64::from(window) {
                continue;
            }
            if f.fired.swap(true, Ordering::AcqRel) {
                continue;
            }
            let (action, desc) = match &f.kind {
                FaultKind::WorkerStall { millis } => (
                    HostFaultAction::Stall(*millis),
                    format!("injected worker stall ({millis} ms)"),
                ),
                FaultKind::ChannelDrop { port } => (
                    HostFaultAction::DropChannel(*port),
                    format!("injected channel drop on input port {port}"),
                ),
                FaultKind::AgentPanic => {
                    let msg = format!("injected panic (scheduled at cycle {})", f.at);
                    (HostFaultAction::Panic(msg.clone()), msg)
                }
                _ => unreachable!("one-shot kinds only"),
            };
            lock(&self.log).push(FaultRecord {
                agent: agent.to_owned(),
                cycle: now,
                description: desc,
            });
            actions.push(action);
        }
        // Stalls first, then drops, then panics: a stall must delay the
        // step before any teardown makes the step fail.
        actions.sort_by_key(|a| match a {
            HostFaultAction::Stall(_) => 0,
            HostFaultAction::DropChannel(_) => 1,
            HostFaultAction::Panic(_) => 2,
        });
        actions
    }

    /// Applies target-side link faults to the received input windows for
    /// the window starting at `now`, and accumulates watched-link counts
    /// into the recovery timeline.
    pub(crate) fn mask_inputs<T>(
        &self,
        agent: &str,
        inputs: &mut [TokenWindow<T>],
        now: u64,
        window: u32,
    ) {
        let win_end = now + u64::from(window);
        let watching = self.timeline.is_some() && !self.watches.is_empty();
        // Per-watch removal tallies for this window: [dropped, masked].
        let mut removed = vec![[0u64; 2]; if watching { self.watches.len() } else { 0 }];
        for f in &self.faults {
            // `duty` selects the degraded-link keep rule (pure duty cycle)
            // over the seeded-hash drop rule.
            let (port, until, drop_percent, duty) = match &f.kind {
                FaultKind::LinkDown { port, until } => (*port, *until, 100u8, false),
                FaultKind::LinkFlaky {
                    port,
                    until,
                    drop_percent,
                } => (*port, *until, *drop_percent, false),
                FaultKind::LinkDegraded {
                    port,
                    until,
                    keep_percent,
                } => (*port, *until, 100 - (*keep_percent).min(100), true),
                _ => continue,
            };
            if f.at >= win_end || until <= now || port >= inputs.len() {
                continue;
            }
            let seed = f.seed;
            let from = f.at;
            let mut cut = 0u64;
            inputs[port].retain(|off, _| {
                let cycle = now + u64::from(off);
                if cycle < from || cycle >= until {
                    return true;
                }
                let keep = if duty {
                    cycle % 100 < u64::from(100 - drop_percent)
                } else {
                    u8::try_from(splitmix64(seed ^ cycle) % 100).expect("< 100") >= drop_percent
                };
                if !keep {
                    cut += 1;
                }
                keep
            });
            if cut > 0 && watching {
                // A full link-down is "masked" (total loss); flaky and
                // degraded removals are "dropped" (partial loss).
                let kind = usize::from(drop_percent == 100 && !duty);
                for (w, tally) in self.watches.iter().zip(removed.iter_mut()) {
                    if w.port == port {
                        tally[kind] += cut;
                    }
                }
            }
            // Log the activation window once per fault.
            if f.at >= now && f.at < win_end {
                lock(&self.log).push(FaultRecord {
                    agent: agent.to_owned(),
                    cycle: now,
                    description: if duty {
                        format!(
                            "injected degraded link on input port {port} \
                             (cycles {from}..{until}, {}% kept)",
                            100 - drop_percent
                        )
                    } else if drop_percent == 100 {
                        format!("injected link down on input port {port} (cycles {from}..{until})")
                    } else {
                        format!(
                            "injected flaky link on input port {port} \
                             (cycles {from}..{until}, {drop_percent}% loss)"
                        )
                    },
                });
            }
        }
        if watching {
            let tl = self.timeline.as_ref().expect("watching implies timeline");
            let mut tl = lock(tl);
            if tl.interval > 0 {
                let bucket = now - now % tl.interval;
                for (w, tally) in self.watches.iter().zip(removed.iter()) {
                    // First-execution semantics: a window replayed after a
                    // supervisor restore is already counted (and identical).
                    if now < w.counted_until.load(Ordering::Acquire) {
                        continue;
                    }
                    let delivered = inputs
                        .get(w.port)
                        .map_or(0, |win| win.iter().count() as u64);
                    let b = tl.buckets.entry(bucket).or_insert([0; 3]);
                    b[0] += delivered;
                    b[1] += tally[0];
                    b[2] += tally[1];
                    w.counted_until.fetch_max(win_end, Ordering::AcqRel);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shot_fires_once_across_clones() {
        let mut plan = FaultPlan::new(1);
        plan.panic_at(0usize, 100);
        let clone = plan.clone();
        let resolved = plan.resolve(&[("a", 1)]).unwrap();
        let af = resolved[0].as_ref().unwrap();
        let first = af.due_host_faults("a", 96, 8);
        assert_eq!(first.len(), 1);
        assert!(matches!(first[0], HostFaultAction::Panic(_)));
        // Re-resolving the *clone* still sees the fault as fired.
        let resolved2 = clone.resolve(&[("a", 1)]).unwrap();
        let af2 = resolved2[0].as_ref().unwrap();
        assert!(af2.due_host_faults("a", 96, 8).is_empty());
        assert_eq!(plan.records().len(), 1);
        assert_eq!(clone.records().len(), 1);
    }

    #[test]
    fn fault_not_due_does_not_fire() {
        let mut plan = FaultPlan::new(1);
        plan.stall_worker("x", 1000, 5);
        let resolved = plan.resolve(&[("x", 1)]).unwrap();
        let af = resolved[0].as_ref().unwrap();
        assert!(af.due_host_faults("x", 0, 8).is_empty());
        assert_eq!(af.due_host_faults("x", 996, 8).len(), 1);
    }

    #[test]
    fn unknown_name_is_topology_error() {
        let mut plan = FaultPlan::new(1);
        plan.panic_at("ghost", 0);
        assert!(matches!(
            plan.resolve(&[("a", 1), ("b", 1)]),
            Err(SimError::Topology { .. })
        ));
    }

    #[test]
    fn out_of_range_port_is_topology_error() {
        // The satellite fix: `link_down("a", 3, ..)` against a 1-input
        // agent used to inject nothing; now it is a setup error.
        let mut plan = FaultPlan::new(1);
        plan.link_down("a", 3, 0, 100);
        let err = plan.resolve(&[("a", 1)]).unwrap_err();
        assert!(err.to_string().contains("input port 3"), "{err}");
        assert!(err.to_string().contains("1 input port"), "{err}");

        let mut plan = FaultPlan::new(1);
        plan.watch_link("a", 2);
        let err = plan.resolve(&[("a", 2)]).unwrap_err();
        assert!(err.to_string().contains("watches"), "{err}");

        // In-range ports resolve fine.
        let mut plan = FaultPlan::new(1);
        plan.link_flaky("a", 1, 0, 100, 50).drop_channel("a", 0, 5);
        assert!(plan.resolve(&[("a", 2)]).is_ok());
    }

    #[test]
    fn link_down_masks_exact_cycle_range() {
        let mut plan = FaultPlan::new(7);
        plan.link_down(0usize, 0, 10, 14);
        let resolved = plan.resolve(&[("a", 1)]).unwrap();
        let af = resolved[0].as_ref().unwrap();
        // Window covering cycles 8..16 with tokens at every cycle.
        let mut w = TokenWindow::new(8);
        for off in 0..8 {
            w.push(off, u64::from(off)).unwrap();
        }
        let mut inputs = vec![w];
        af.mask_inputs("a", &mut inputs, 8, 8);
        let alive: Vec<u32> = inputs[0].iter().map(|(o, _)| o).collect();
        // Cycles 10,11,12,13 (offsets 2..6) are dead.
        assert_eq!(alive, vec![0, 1, 6, 7]);
    }

    #[test]
    fn flaky_is_deterministic_per_seed() {
        let drop_pattern = |seed: u64| {
            let mut plan = FaultPlan::new(seed);
            plan.link_flaky(0usize, 0, 0, 64, 50);
            let resolved = plan.resolve(&[("a", 1)]).unwrap();
            let af = resolved[0].as_ref().unwrap();
            let mut w = TokenWindow::new(64);
            for off in 0..64 {
                w.push(off, off).unwrap();
            }
            let mut inputs = vec![w];
            af.mask_inputs("a", &mut inputs, 0, 64);
            inputs[0].iter().map(|(o, _)| o).collect::<Vec<u32>>()
        };
        let a = drop_pattern(42);
        assert_eq!(a, drop_pattern(42), "same seed, same losses");
        assert_ne!(a, drop_pattern(43), "different seed, different losses");
        assert!(!a.is_empty() && a.len() < 64, "50% loss drops some: {a:?}");
    }

    #[test]
    fn degraded_link_is_a_pure_duty_cycle() {
        let mut plan = FaultPlan::new(99);
        plan.link_degraded(0usize, 0, 0, 200, 40);
        let resolved = plan.resolve(&[("a", 1)]).unwrap();
        let af = resolved[0].as_ref().unwrap();
        let mut w = TokenWindow::new(200);
        for off in 0..200 {
            w.push(off, u64::from(off)).unwrap();
        }
        let mut inputs = vec![w];
        af.mask_inputs("a", &mut inputs, 0, 200);
        let alive: Vec<u32> = inputs[0].iter().map(|(o, _)| o).collect();
        // Exactly cycles with c % 100 < 40 survive — seed-independent.
        assert_eq!(alive.len(), 80);
        assert!(alive.iter().all(|&c| c % 100 < 40), "{alive:?}");
    }

    #[test]
    fn merged_plans_keep_per_entry_seeds() {
        let pattern = |plan: &FaultPlan| {
            let resolved = plan.resolve(&[("a", 1)]).unwrap();
            let af = resolved[0].as_ref().unwrap();
            let mut w = TokenWindow::new(64);
            for off in 0..64 {
                w.push(off, u64::from(off)).unwrap();
            }
            let mut inputs = vec![w];
            af.mask_inputs("a", &mut inputs, 0, 64);
            inputs[0].iter().map(|(o, _)| o).collect::<Vec<u32>>()
        };
        let mut scenario_plan = FaultPlan::new(42);
        scenario_plan.link_flaky("a", 0, 0, 64, 50);
        let expect = pattern(&scenario_plan);
        // Merging into a host plan with a different seed must not change
        // the scenario's loss pattern.
        let mut host_plan = FaultPlan::new(7);
        host_plan.merge_from(&scenario_plan);
        assert_eq!(pattern(&host_plan), expect);
    }

    #[test]
    fn timeline_counts_delivered_and_removed_tokens() {
        let mut plan = FaultPlan::new(3);
        plan.link_down(0usize, 0, 8, 16);
        plan.watch_link(0usize, 0);
        plan.record_timeline(16);
        plan.annotate(8, "link down");
        let resolved = plan.resolve(&[("a", 1)]).unwrap();
        let af = resolved[0].as_ref().unwrap();
        for now in (0..32).step_by(8) {
            let mut w = TokenWindow::new(8);
            for off in 0..8 {
                w.push(off, u64::from(off)).unwrap();
            }
            let mut inputs = vec![w];
            af.mask_inputs("a", &mut inputs, now, 8);
        }
        let tl = plan.recovery_timeline().unwrap();
        assert_eq!(tl.interval, 16);
        assert_eq!(tl.events, vec![(8, "link down".to_owned())]);
        // Bucket 0 covers windows at 0 (8 delivered) and 8 (8 masked);
        // bucket 16 covers windows at 16 and 24 (16 delivered).
        assert_eq!(tl.points.len(), 2);
        assert_eq!(tl.points[0].start, 0);
        assert_eq!(tl.points[0].delivered, 8);
        assert_eq!(tl.points[0].masked, 8);
        assert_eq!(tl.points[0].dropped, 0);
        assert_eq!(tl.points[1].start, 16);
        assert_eq!(tl.points[1].delivered, 16);
        assert_eq!(tl.points[1].masked, 0);

        // Replaying an already-counted window (supervisor retry) must not
        // double-count.
        let mut w = TokenWindow::new(8);
        for off in 0..8 {
            w.push(off, u64::from(off)).unwrap();
        }
        let mut inputs = vec![w];
        af.mask_inputs("a", &mut inputs, 16, 8);
        let tl2 = plan.recovery_timeline().unwrap();
        assert_eq!(tl2.points[1].delivered, 16, "replay not double-counted");
    }

    #[test]
    fn smoke_plans_are_benign_and_seed_dependent() {
        for seed in 0..8 {
            let plan = FaultPlan::smoke(seed, 4, 1024);
            assert!(!plan.is_empty());
            for f in &plan.faults {
                assert!(
                    !f.kind.is_one_shot(),
                    "smoke plans must not contain host faults"
                );
            }
        }
    }
}
