//! Engine observability: sharded metrics, per-agent profiles, and span
//! tracing with Chrome `trace_event` export.
//!
//! The paper's evaluation is built entirely on measurement — percentile
//! latencies (Fig 7, Table III), bandwidth over time (Fig 6), simulation
//! rate vs. scale (Figs 8-9) — so the engine needs a metrics pipeline that
//! is (a) trustworthy enough to validate against analytically known ground
//! truth and (b) cheap enough that enabling it does not perturb the very
//! numbers it reports.
//!
//! Three pieces:
//!
//! * [`MetricsRegistry`] — counters and histograms registered by name.
//!   Workers never touch the registry on the hot path; each owns a
//!   [`MetricsShard`] of plain `u64`s/`Vec`s and folds it into the registry
//!   with [`MetricsRegistry::absorb`] at chunk barriers, where a lock is
//!   already unavoidable. When metrics are disabled the engine holds no
//!   registry at all and the hot path pays nothing.
//! * [`AgentProfile`] — per-agent token accounting (windows and tokens in
//!   and out, target cycles, host nanoseconds). Owned by the agent's slot,
//!   so updating it needs no synchronization whatsoever.
//! * [`SpanTracer`] — timed spans (agent steps, barrier waits, supervisor
//!   bursts) buffered per worker in a [`SpanBuffer`] and flushed at run
//!   end. [`SpanTracer::export_chrome_trace`] serializes the result as
//!   Chrome `trace_event` JSON, loadable in Perfetto or `chrome://tracing`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::error::{SimError, SimResult};
use crate::stats::Histogram;

/// Handle to a registered counter; a plain index into each shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered histogram; a plain index into each shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

#[derive(Debug, Default)]
struct RegistryInner {
    counter_names: Vec<String>,
    counters: Vec<u64>,
    histogram_names: Vec<String>,
    histograms: Vec<Histogram>,
}

/// A registry of named counters and histograms, aggregated from per-worker
/// shards.
///
/// Registration (`counter`/`histogram`) takes a lock and is meant for
/// set-up time. Hot-path recording goes through a [`MetricsShard`] — plain
/// unsynchronized adds — and the shard is folded back with [`absorb`] at a
/// chunk barrier. Because absorption is a sum of per-worker sums, the final
/// aggregate of deterministic quantities (e.g. agent steps) is independent
/// of worker count and scheduling.
///
/// [`absorb`]: MetricsRegistry::absorb
///
/// # Examples
///
/// ```
/// use firesim_core::metrics::MetricsRegistry;
///
/// let reg = MetricsRegistry::new();
/// let steps = reg.counter("engine/agent_steps");
/// let mut shard = reg.shard();
/// shard.add(steps, 7);
/// reg.absorb(&mut shard);
/// assert_eq!(reg.counter_value("engine/agent_steps"), Some(7));
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers (or looks up) a counter by name.
    pub fn counter(&self, name: &str) -> CounterId {
        let mut inner = self.inner.lock();
        if let Some(i) = inner.counter_names.iter().position(|n| n == name) {
            return CounterId(i);
        }
        inner.counter_names.push(name.to_owned());
        inner.counters.push(0);
        CounterId(inner.counter_names.len() - 1)
    }

    /// Registers (or looks up) a histogram by name.
    pub fn histogram(&self, name: &str) -> HistogramId {
        let mut inner = self.inner.lock();
        if let Some(i) = inner.histogram_names.iter().position(|n| n == name) {
            return HistogramId(i);
        }
        let name = name.to_owned();
        inner.histograms.push(Histogram::new(name.clone()));
        inner.histogram_names.push(name);
        HistogramId(inner.histogram_names.len() - 1)
    }

    /// Creates a worker-local shard sized for the current registrations.
    pub fn shard(&self) -> MetricsShard {
        let inner = self.inner.lock();
        MetricsShard {
            counters: vec![0; inner.counters.len()],
            histograms: vec![Vec::new(); inner.histograms.len()],
        }
    }

    /// Folds a shard's values into the aggregate and clears the shard
    /// (keeping its allocations), so it can be reused for the next chunk.
    pub fn absorb(&self, shard: &mut MetricsShard) {
        let mut inner = self.inner.lock();
        for (i, v) in shard.counters.iter_mut().enumerate() {
            if *v != 0 && i < inner.counters.len() {
                inner.counters[i] += *v;
            }
            *v = 0;
        }
        for (i, samples) in shard.histograms.iter_mut().enumerate() {
            if i < inner.histograms.len() {
                for &s in samples.iter() {
                    inner.histograms[i].record(s);
                }
            }
            samples.clear();
        }
    }

    /// The aggregated value of a counter, or `None` if never registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let inner = self.inner.lock();
        let i = inner.counter_names.iter().position(|n| n == name)?;
        Some(inner.counters[i])
    }

    /// A point-in-time copy of every aggregated counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock();
        MetricsSnapshot {
            counters: inner
                .counter_names
                .iter()
                .cloned()
                .zip(inner.counters.iter().copied())
                .collect(),
            histograms: inner
                .histogram_names
                .iter()
                .cloned()
                .zip(inner.histograms.iter().cloned())
                .collect(),
        }
    }
}

/// A worker-private slice of the metrics space: plain adds, no atomics, no
/// locks. Fold back with [`MetricsRegistry::absorb`].
#[derive(Debug, Default)]
pub struct MetricsShard {
    counters: Vec<u64>,
    histograms: Vec<Vec<u64>>,
}

impl MetricsShard {
    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        if id.0 >= self.counters.len() {
            self.counters.resize(id.0 + 1, 0);
        }
        self.counters[id.0] += n;
    }

    /// Adds one to a counter.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Records one histogram sample.
    #[inline]
    pub fn record(&mut self, id: HistogramId, sample: u64) {
        if id.0 >= self.histograms.len() {
            self.histograms.resize(id.0 + 1, Vec::new());
        }
        self.histograms[id.0].push(sample);
    }
}

/// A point-in-time copy of aggregated metrics, detached from the registry.
#[derive(Debug, Default, Clone)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every registered counter, in registration order.
    pub counters: Vec<(String, u64)>,
    /// `(name, histogram)` for every registered histogram, in registration
    /// order.
    pub histograms: Vec<(String, Histogram)>,
}

/// Per-agent token and host-time accounting.
///
/// Lives in the agent's engine slot: the worker stepping the agent already
/// owns the slot exclusively, so the profile is updated with plain stores.
/// All fields except `host_ns` are functions of the deterministic
/// simulation alone and therefore identical across host thread counts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AgentProfile {
    /// Windows the agent has been stepped through.
    pub rounds: u64,
    /// Target cycles simulated (`rounds * window`).
    pub target_cycles: u64,
    /// Input windows consumed (one per connected input port per round).
    pub windows_in: u64,
    /// Output windows produced (one per connected output port per round).
    pub windows_out: u64,
    /// Valid (non-empty) tokens consumed across all input ports.
    pub tokens_in: u64,
    /// Valid (non-empty) tokens produced across all output ports.
    pub tokens_out: u64,
    /// Host nanoseconds spent inside this agent's `advance`, including its
    /// port I/O. Host-dependent: excluded from determinism comparisons.
    pub host_ns: u64,
}

/// One completed span: a named interval on a virtual thread ("track").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name, e.g. the agent name or `"barrier"`.
    pub name: String,
    /// Category string (`"agent"`, `"sync"`, `"sched"`, `"supervisor"`).
    pub cat: &'static str,
    /// Track the span is drawn on (worker index, or a reserved id).
    pub tid: u32,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Extra key/value annotations shown in the trace viewer.
    pub args: Vec<(&'static str, u64)>,
}

/// Collects [`TraceEvent`]s from many workers and serializes them as Chrome
/// `trace_event` JSON.
///
/// Workers buffer spans in a private [`SpanBuffer`] and [`flush`] once at
/// the end of a run, so tracing adds no synchronization to the hot path
/// beyond the `Instant` reads themselves. Low-rate callers (the supervisor)
/// may [`record`] directly.
///
/// [`flush`]: SpanTracer::flush
/// [`record`]: SpanTracer::record
#[derive(Debug)]
pub struct SpanTracer {
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
    thread_names: Mutex<BTreeMap<u32, String>>,
}

impl Default for SpanTracer {
    fn default() -> Self {
        SpanTracer {
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
            thread_names: Mutex::new(BTreeMap::new()),
        }
    }
}

impl SpanTracer {
    /// Creates a tracer whose timestamps are relative to "now".
    pub fn new() -> Self {
        SpanTracer::default()
    }

    /// Nanoseconds since the tracer's epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Converts an already-taken [`Instant`] to tracer-epoch nanoseconds,
    /// so one clock read can serve both profiling and span timestamps.
    #[inline]
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.checked_duration_since(self.epoch)
            .map_or(0, |d| d.as_nanos() as u64)
    }

    /// Creates a worker-local span buffer for track `tid`.
    pub fn buffer(&self, tid: u32) -> SpanBuffer {
        SpanBuffer {
            tid,
            events: Vec::new(),
        }
    }

    /// Names a track (shown as a thread name in the trace viewer).
    pub fn name_thread(&self, tid: u32, name: impl Into<String>) {
        self.thread_names.lock().insert(tid, name.into());
    }

    /// Appends one event directly. Takes a lock; fine for low-rate spans
    /// (supervisor bursts), wrong for per-agent steps — use a
    /// [`SpanBuffer`] there.
    pub fn record(&self, event: TraceEvent) {
        self.events.lock().push(event);
    }

    /// Drains a worker's buffered spans into the tracer.
    pub fn flush(&self, buf: &mut SpanBuffer) {
        if buf.events.is_empty() {
            return;
        }
        self.events.lock().append(&mut buf.events);
    }

    /// Number of events collected so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True when no events have been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes every collected span as Chrome `trace_event` JSON
    /// (the "JSON object format": `{"traceEvents": [...]}`), loadable in
    /// Perfetto or `chrome://tracing`. Timestamps are microseconds with
    /// nanosecond precision retained in the fraction.
    pub fn export_chrome_trace(&self) -> String {
        let events = self.events.lock();
        let names = self.thread_names.lock();
        let mut out = String::with_capacity(64 + events.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        for (tid, name) in names.iter() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"ph\":\"M\",\"pid\":1,\"tid\":");
            push_u64(&mut out, u64::from(*tid));
            out.push_str(",\"name\":\"thread_name\",\"args\":{\"name\":\"");
            push_escaped(&mut out, name);
            out.push_str("\"}}");
        }
        for ev in events.iter() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"ph\":\"X\",\"pid\":1,\"tid\":");
            push_u64(&mut out, u64::from(ev.tid));
            out.push_str(",\"name\":\"");
            push_escaped(&mut out, &ev.name);
            out.push_str("\",\"cat\":\"");
            push_escaped(&mut out, ev.cat);
            out.push_str("\",\"ts\":");
            push_micros(&mut out, ev.start_ns);
            out.push_str(",\"dur\":");
            push_micros(&mut out, ev.dur_ns.max(1));
            if !ev.args.is_empty() {
                out.push_str(",\"args\":{");
                for (i, (k, v)) in ev.args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    push_escaped(&mut out, k);
                    out.push_str("\":");
                    push_u64(&mut out, *v);
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Writes [`export_chrome_trace`](Self::export_chrome_trace) to a file.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Io`] when the file cannot be written.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> SimResult<()> {
        std::fs::write(path, self.export_chrome_trace())
            .map_err(|e| SimError::io(format!("writing trace to {}", path.display()), &e))
    }
}

/// A worker-private buffer of spans on one track. No locks until
/// [`SpanTracer::flush`].
#[derive(Debug)]
pub struct SpanBuffer {
    tid: u32,
    events: Vec<TraceEvent>,
}

impl SpanBuffer {
    /// Records a completed span from `start_ns` to `end_ns` (tracer-epoch
    /// nanoseconds).
    #[inline]
    pub fn span(&mut self, name: impl Into<String>, cat: &'static str, start_ns: u64, end_ns: u64) {
        self.span_args(name, cat, start_ns, end_ns, Vec::new());
    }

    /// Records a completed span with key/value annotations.
    #[inline]
    pub fn span_args(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        start_ns: u64,
        end_ns: u64,
        args: Vec<(&'static str, u64)>,
    ) {
        self.events.push(TraceEvent {
            name: name.into(),
            cat,
            tid: self.tid,
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
            args,
        });
    }

    /// Number of buffered spans.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Shared handle type for an engine-owned tracer.
pub type SharedTracer = Arc<SpanTracer>;

/// Shared handle type for an engine-owned metrics registry.
pub type SharedMetrics = Arc<MetricsRegistry>;

fn push_u64(out: &mut String, v: u64) {
    use std::fmt::Write as _;
    let _ = write!(out, "{v}");
}

/// Chrome traces use microsecond `ts`/`dur`; emit with three decimals so
/// nanosecond resolution survives.
fn push_micros(out: &mut String, ns: u64) {
    use std::fmt::Write as _;
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// One agent's activity during a sampling interval, as a delta between
/// two quiescent points (see [`IntervalProbe`]).
///
/// Every field except `host_ns` is target-deterministic: identical for
/// the same topology, horizon, and interval schedule regardless of host
/// thread count. `host_ns` is host wall time and is normalized out of
/// golden-stream comparisons (DESIGN §17).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AgentIntervalSample {
    /// Agent name, in engine registration order.
    pub name: String,
    /// Target cycles this agent was stepped through during the interval.
    pub d_cycles: u64,
    /// Valid tokens consumed during the interval.
    pub d_tokens_in: u64,
    /// Valid tokens produced during the interval.
    pub d_tokens_out: u64,
    /// Instructions retired during the interval, read from the agent's
    /// `retired` app counter; 0 for agents that don't publish one
    /// (switches, NIC-only endpoints).
    pub d_retired: u64,
    /// Host nanoseconds spent inside the agent's `advance` during the
    /// interval. Host-dependent: excluded from determinism comparisons.
    pub host_ns: u64,
    /// Decode-cache hit rate over the interval in permille (from the
    /// agent's `host_icache_hits`/`host_icache_misses` counter deltas);
    /// 0 for agents without those counters or with no accesses this
    /// interval. Deterministic for a fixed configuration, but depends on
    /// host-speed knobs (`decode_cache`), hence excluded from
    /// `deterministic_aggregates` at the report layer.
    pub icache_hit_permille: u64,
    /// Host-side MIPS over the interval (`d_retired` per host
    /// microsecond). Host-dependent: normalized out of golden streams.
    pub host_mips: u64,
}

/// A deterministic delta of the whole engine between two quiescent
/// points, produced by [`IntervalProbe::sample`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalSnapshot {
    /// Target cycle at the end of the interval.
    pub cycle: u64,
    /// Target cycles elapsed since the previous sample (or since the
    /// probe was primed).
    pub d_cycles: u64,
    /// Per-agent deltas, in engine registration order.
    pub agents: Vec<AgentIntervalSample>,
}

/// Snapshot-diff probe turning the engine's cumulative per-agent
/// [`AgentProfile`]s (and `retired` app counters) into per-interval
/// deltas.
///
/// The probe never touches the hot path: it reads the profile
/// aggregation that already exists at chunk barriers, so holding one
/// costs nothing while the simulation runs. Call
/// [`Engine::sample_interval`](crate::engine::Engine::sample_interval)
/// between `run_for` legs; the first call primes the baseline (useful
/// after a checkpoint restore) and subsequent calls return deltas.
#[derive(Debug, Default)]
pub struct IntervalProbe {
    primed: bool,
    prev_cycle: u64,
    prev_profiles: Vec<AgentProfile>,
    prev_counters: Vec<CounterBase>,
}

/// The app-counter values an [`IntervalProbe`] diffs per agent.
#[derive(Debug, Clone, Copy, Default)]
struct CounterBase {
    retired: u64,
    icache_hits: u64,
    icache_misses: u64,
}

impl CounterBase {
    fn from_counters(counters: &[(String, u64)]) -> Self {
        let find = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        CounterBase {
            retired: find("retired"),
            icache_hits: find("host_icache_hits"),
            icache_misses: find("host_icache_misses"),
        }
    }
}

impl IntervalProbe {
    /// A fresh, unprimed probe. The first [`sample`](Self::sample)
    /// establishes the baseline and returns an all-zero snapshot.
    pub fn new() -> Self {
        IntervalProbe::default()
    }

    /// Diffs the cumulative per-agent state against the previous call,
    /// returning the interval delta and advancing the baseline.
    ///
    /// `profiles` and `counters` must be in a stable order (the engine's
    /// registration order) and the same length on every call. Counter
    /// lists are the agents' full `app_counters` output: the probe diffs
    /// `retired` and the `host_icache_*` pair.
    pub fn sample(
        &mut self,
        cycle: u64,
        profiles: &[(String, AgentProfile)],
        counters: &[Vec<(String, u64)>],
    ) -> IntervalSnapshot {
        debug_assert_eq!(profiles.len(), counters.len());
        let primed = std::mem::replace(&mut self.primed, true);
        let agents = profiles
            .iter()
            .zip(counters)
            .enumerate()
            .map(|(i, ((name, p), c))| {
                let base = CounterBase::from_counters(c);
                let (prev_p, prev_c) = if primed {
                    (
                        self.prev_profiles.get(i).copied().unwrap_or_default(),
                        self.prev_counters.get(i).copied().unwrap_or_default(),
                    )
                } else {
                    // Unprimed: the baseline is the current state, so the
                    // first snapshot is all zeros.
                    (*p, base)
                };
                let d_retired = base.retired.saturating_sub(prev_c.retired);
                let host_ns = p.host_ns.saturating_sub(prev_p.host_ns);
                let d_ich = base.icache_hits.saturating_sub(prev_c.icache_hits);
                let d_icm = base.icache_misses.saturating_sub(prev_c.icache_misses);
                AgentIntervalSample {
                    name: name.clone(),
                    d_cycles: p.target_cycles.saturating_sub(prev_p.target_cycles),
                    d_tokens_in: p.tokens_in.saturating_sub(prev_p.tokens_in),
                    d_tokens_out: p.tokens_out.saturating_sub(prev_p.tokens_out),
                    d_retired,
                    host_ns,
                    icache_hit_permille: (d_ich * 1000).checked_div(d_ich + d_icm).unwrap_or(0),
                    host_mips: d_retired
                        .saturating_mul(1000)
                        .checked_div(host_ns)
                        .unwrap_or(0),
                }
            })
            .collect();
        let d_cycles = if primed {
            cycle.saturating_sub(self.prev_cycle)
        } else {
            0
        };
        self.prev_cycle = cycle;
        self.prev_profiles = profiles.iter().map(|(_, p)| *p).collect();
        self.prev_counters = counters
            .iter()
            .map(|c| CounterBase::from_counters(c))
            .collect();
        IntervalSnapshot {
            cycle,
            d_cycles,
            agents,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_absorbs_shards() {
        let reg = MetricsRegistry::new();
        let steps = reg.counter("steps");
        let lat = reg.histogram("latency");
        let mut a = reg.shard();
        let mut b = reg.shard();
        a.add(steps, 3);
        b.add(steps, 4);
        a.record(lat, 10);
        b.record(lat, 30);
        reg.absorb(&mut a);
        reg.absorb(&mut b);
        assert_eq!(reg.counter_value("steps"), Some(7));
        let snap = reg.snapshot();
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].1.count(), 2);
        // Shards are cleared by absorb and reusable.
        a.add(steps, 1);
        reg.absorb(&mut a);
        assert_eq!(reg.counter_value("steps"), Some(8));
    }

    #[test]
    fn registry_lookup_is_idempotent() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        assert_eq!(a, b);
        let h1 = reg.histogram("h");
        let h2 = reg.histogram("h");
        assert_eq!(h1, h2);
    }

    #[test]
    fn shard_grows_for_late_registrations() {
        let reg = MetricsRegistry::new();
        let mut shard = reg.shard(); // sized for zero counters
        let late = reg.counter("late");
        shard.add(late, 5);
        reg.absorb(&mut shard);
        assert_eq!(reg.counter_value("late"), Some(5));
    }

    #[test]
    fn tracer_collects_and_orders_events() {
        let tracer = SpanTracer::new();
        tracer.name_thread(0, "worker0");
        let mut buf = tracer.buffer(0);
        buf.span("step", "agent", 100, 350);
        buf.span_args("barrier", "sync", 400, 500, vec![("chunk", 2)]);
        assert_eq!(buf.len(), 2);
        tracer.flush(&mut buf);
        assert!(buf.is_empty());
        assert_eq!(tracer.len(), 2);
        tracer.record(TraceEvent {
            name: "burst".into(),
            cat: "supervisor",
            tid: 1000,
            start_ns: 0,
            dur_ns: 9,
            args: vec![],
        });
        assert_eq!(tracer.len(), 3);
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let tracer = SpanTracer::new();
        tracer.name_thread(0, "w\"eird\\name");
        let mut buf = tracer.buffer(0);
        buf.span_args("agent\n1", "agent", 1_234, 5_678, vec![("cycle", 64)]);
        tracer.flush(&mut buf);
        let json = tracer.export_chrome_trace();
        let v: serde_json::Value = serde_json::from_str(&json).expect("trace parses as JSON");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array");
        // One metadata event + one span.
        assert_eq!(events.len(), 2);
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .expect("complete event present");
        assert_eq!(span.get("name").and_then(|n| n.as_str()), Some("agent\n1"));
        assert_eq!(span.get("cat").and_then(|c| c.as_str()), Some("agent"));
        // ts in microseconds: 1234 ns -> 1.234 us.
        assert!((span.get("ts").unwrap().as_f64().unwrap() - 1.234).abs() < 1e-9);
        assert!((span.get("dur").unwrap().as_f64().unwrap() - 4.444).abs() < 1e-9);
        assert_eq!(
            span.get("args").unwrap().get("cycle").unwrap().as_u64(),
            Some(64)
        );
    }

    #[test]
    fn empty_trace_still_valid() {
        let tracer = SpanTracer::new();
        assert!(tracer.is_empty());
        let json = tracer.export_chrome_trace();
        let v: serde_json::Value = serde_json::from_str(&json).expect("parses");
        assert_eq!(
            v.get("traceEvents")
                .and_then(|e| e.as_array())
                .map(Vec::len),
            Some(0)
        );
    }

    #[test]
    fn profile_defaults_zero() {
        let p = AgentProfile::default();
        assert_eq!(p.rounds, 0);
        assert_eq!(p.tokens_in + p.tokens_out + p.host_ns, 0);
    }

    #[test]
    fn interval_probe_diffs_cumulative_profiles() {
        let mut probe = IntervalProbe::new();
        let mut p = AgentProfile {
            target_cycles: 1000,
            tokens_in: 10,
            tokens_out: 20,
            host_ns: 5_000,
            ..AgentProfile::default()
        };
        let counters = |retired: u64, ich: u64, icm: u64| {
            vec![
                ("retired".to_owned(), retired),
                ("host_icache_hits".to_owned(), ich),
                ("host_icache_misses".to_owned(), icm),
            ]
        };
        // Priming call: baseline established, all-zero snapshot.
        let s0 = probe.sample(1000, &[("a".into(), p)], &[counters(400, 90, 10)]);
        assert_eq!(s0.cycle, 1000);
        assert_eq!(s0.d_cycles, 0);
        assert_eq!(s0.agents.len(), 1);
        assert_eq!(s0.agents[0].d_cycles, 0);
        assert_eq!(s0.agents[0].d_retired, 0);
        assert_eq!(s0.agents[0].icache_hit_permille, 0);

        p.target_cycles += 500;
        p.tokens_in += 3;
        p.tokens_out += 7;
        p.host_ns += 2_000;
        let s1 = probe.sample(1500, &[("a".into(), p)], &[counters(460, 165, 35)]);
        assert_eq!(s1.cycle, 1500);
        assert_eq!(s1.d_cycles, 500);
        let a = &s1.agents[0];
        assert_eq!(
            (a.d_cycles, a.d_tokens_in, a.d_tokens_out, a.d_retired),
            (500, 3, 7, 60)
        );
        assert_eq!(a.host_ns, 2_000);
        // 75 hits / 25 misses this interval -> 750 permille.
        assert_eq!(a.icache_hit_permille, 750);
        // 60 insts over 2 us -> 30 MIPS.
        assert_eq!(a.host_mips, 30);

        // No progress -> all-zero delta.
        let s2 = probe.sample(1500, &[("a".into(), p)], &[counters(460, 165, 35)]);
        assert_eq!(s2.d_cycles, 0);
        assert_eq!(
            s2.agents[0],
            AgentIntervalSample {
                name: "a".into(),
                ..AgentIntervalSample::default()
            }
        );
    }
}
