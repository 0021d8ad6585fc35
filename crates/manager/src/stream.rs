//! Live telemetry streaming: the NDJSON run feed (DESIGN §17).
//!
//! FireSim's manager surfaces fleet health *while* simulations run; the
//! post-hoc [`RunReport`](crate::report::RunReport) alone leaves
//! operators (and the closed-loop autotuner) blind mid-run. This module
//! publishes per-interval metrics — sim-rate, per-agent
//! instructions/host-ns, link occupancy, switch buffer high-water,
//! fault/scenario events, checkpoint markers — as newline-delimited
//! JSON over stdout, a file, or a Unix/TCP socket.
//!
//! The wire format is small, versioned, and fully specified so external
//! viewers (`firesim-top`, the `simd` relay daemon, or anything else)
//! can consume it without reading this source:
//!
//! - every record is one JSON object on one line, flushed whole;
//! - every record carries `"v"` ([`WIRE_VERSION`]) and a type tag `"t"`;
//! - a stream is `run_start`, then `interval`/`event` records in
//!   non-decreasing cycle order, then `run_end`.
//!
//! Streaming follows the PR-3 observability discipline: it is zero-cost
//! when off (nothing is sampled, no sink is held), it reads only the
//! sharded [`MetricsRegistry`](firesim_core::MetricsRegistry) /
//! [`AgentProfile`](firesim_core::AgentProfile) aggregation that already
//! exists at chunk barriers, and it never feeds back into the
//! simulation — so checkpoint digests are bit-identical with streaming
//! on or off, across 1/2/4 workers and all three transports
//! (`tests/telemetry.rs`). Host-dependent fields (`wall_ns`, `host_ns`)
//! are the only nondeterministic payload and [`StreamRecord::normalize`]
//! zeroes them for golden-fixture comparison.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

use serde_json::Value;

use firesim_core::{AgentIntervalSample, Cycle, IntervalProbe, LinkOccupancy, SimError, SimResult};

use crate::simulation::Simulation;

/// Version of the NDJSON wire format, carried as `"v"` on every record.
///
/// Consumers must reject records with a larger `v` and may accept
/// smaller ones; producers bump this only on breaking schema changes
/// (renamed/retyped fields). Adding a field is not a breaking change —
/// consumers must ignore unknown keys.
pub const WIRE_VERSION: u64 = 1;

/// Default sampling interval for streamed runs, in target cycles.
pub const DEFAULT_STREAM_INTERVAL: u64 = 100_000;

// ---------------------------------------------------------------------------
// Sink specs
// ---------------------------------------------------------------------------

/// A parsed `--stream-out` destination.
///
/// Grammar: `-` is stdout, `tcp:HOST:PORT` and `unix:PATH` connect to a
/// listening consumer (e.g. the `simd` daemon), anything else is a file
/// path (created/truncated).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamOut {
    /// Write to the producer's stdout.
    Stdout,
    /// Append records to a file (truncated at open).
    File(PathBuf),
    /// Connect to a TCP listener at `HOST:PORT`.
    Tcp(String),
    /// Connect to a Unix-domain socket at the given path.
    Unix(PathBuf),
}

impl StreamOut {
    /// Parses a sink spec (see the type docs for the grammar).
    pub fn parse(spec: &str) -> StreamOut {
        if spec == "-" {
            StreamOut::Stdout
        } else if let Some(addr) = spec.strip_prefix("tcp:") {
            StreamOut::Tcp(addr.to_owned())
        } else if let Some(path) = spec.strip_prefix("unix:") {
            StreamOut::Unix(PathBuf::from(path))
        } else {
            StreamOut::File(PathBuf::from(spec))
        }
    }

    /// Opens the sink, connecting sockets / creating files as needed.
    pub fn connect(&self) -> SimResult<Box<dyn Write + Send>> {
        match self {
            StreamOut::Stdout => Ok(Box::new(std::io::stdout())),
            StreamOut::File(path) => {
                let f = std::fs::File::create(path)
                    .map_err(|e| SimError::io(format!("creating {}", path.display()), &e))?;
                Ok(Box::new(f))
            }
            StreamOut::Tcp(addr) => {
                let s = std::net::TcpStream::connect(addr)
                    .map_err(|e| SimError::io(format!("connecting to tcp:{addr}"), &e))?;
                let _ = s.set_nodelay(true);
                Ok(Box::new(s))
            }
            StreamOut::Unix(path) => {
                let s = std::os::unix::net::UnixStream::connect(path).map_err(|e| {
                    SimError::io(format!("connecting to unix:{}", path.display()), &e)
                })?;
                Ok(Box::new(s))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// Stream header: static facts about the run, emitted exactly once,
/// first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStartRecord {
    /// Stable run identifier (partitioned runs reuse the report's
    /// `run_id`); `None` for ad-hoc runs.
    pub run_id: Option<String>,
    /// Opaque build spec the topology was constructed from.
    pub spec: String,
    /// Registered agent count, or 0 when unknown (a fleet parent
    /// streaming merge points only never builds the topology).
    pub agents: u64,
    /// Worker process count.
    pub workers: u64,
    /// Target horizon in cycles.
    pub target_cycles: u64,
    /// Engine window in cycles (0 when unknown).
    pub window: u64,
    /// Sampling interval in target cycles (0 = no interval records,
    /// merge-point events only).
    pub interval: u64,
    /// Cross-shard transport (`shm`/`tcp`/`unix`); `None` in-process.
    pub transport: Option<String>,
}

/// One switch's counters at the interval boundary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SwitchSample {
    /// Switch name.
    pub name: String,
    /// High-water mark of egress-buffer occupancy in bytes, max over
    /// ports, cumulative since the run began.
    pub highwater: u64,
    /// Frames dropped this interval (buffer + delay-bound drops).
    pub d_drops: u64,
    /// Frames forwarded this interval.
    pub d_forwarded: u64,
}

/// Periodic sample: everything that moved during one interval.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalRecord {
    /// Interval sequence number, starting at 1.
    pub seq: u64,
    /// Target cycle at the end of the interval.
    pub cycle: u64,
    /// Target cycles elapsed in this interval.
    pub d_cycles: u64,
    /// Host wall nanoseconds this interval took; with `d_cycles` this is
    /// the live sim-rate. Host-dependent: zeroed by
    /// [`StreamRecord::normalize`].
    pub wall_ns: u64,
    /// Per-agent deltas, in engine registration order. `host_ns` and
    /// `host_mips` are host-dependent: zeroed by
    /// [`StreamRecord::normalize`].
    pub agents: Vec<AgentIntervalSample>,
    /// Link occupancies at the interval boundary, in engine registration
    /// order, sent as `tokens`. Every latency-*N* link holds exactly *N*
    /// tokens here (the paper's token-transport invariant), so a mismatch
    /// is itself a red flag.
    pub links: Vec<LinkOccupancy>,
    /// Switch counters, in topology order.
    pub switches: Vec<SwitchSample>,
}

/// Discrete annotation: faults, scenario phases, checkpoint and worker
/// lifecycle markers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventRecord {
    /// Target cycle the event is attributed to (0 for host-side fleet
    /// lifecycle events with no target timestamp).
    pub cycle: u64,
    /// Event kind: `fault`, `scenario`, `checkpoint`, `restore`,
    /// `worker_spawn`, or `worker_exit`.
    pub kind: String,
    /// Human-readable detail.
    pub label: String,
}

/// Stream trailer: emitted exactly once, last, even on early stop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunEndRecord {
    /// Final target cycle.
    pub cycle: u64,
    /// Interval records emitted before this trailer.
    pub intervals: u64,
    /// Total host wall nanoseconds across the streamed legs.
    /// Host-dependent: zeroed by [`StreamRecord::normalize`].
    pub wall_ns: u64,
    /// Whether every agent reported done (always `false` from a fleet
    /// parent, which doesn't observe agent state).
    pub done: bool,
}

/// One NDJSON stream record; the unit of [`StreamWriter::emit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamRecord {
    /// Stream header.
    RunStart(RunStartRecord),
    /// Periodic sample.
    Interval(IntervalRecord),
    /// Discrete annotation.
    Event(EventRecord),
    /// Stream trailer.
    RunEnd(RunEndRecord),
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    let mut map = BTreeMap::new();
    for (k, v) in entries {
        map.insert(k.to_owned(), v);
    }
    Value::Object(map)
}

fn get_u64(v: &Value, key: &str) -> SimResult<u64> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| SimError::protocol(format!("stream record missing u64 field `{key}`")))
}

/// Optional u64 field: fields added after wire version 1 shipped parse
/// as 0 from older streams instead of erroring.
fn get_u64_or_zero(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(0)
}

fn get_str(v: &Value, key: &str) -> SimResult<String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| SimError::protocol(format!("stream record missing string field `{key}`")))
}

fn get_arr<'v>(v: &'v Value, key: &str) -> SimResult<&'v Vec<Value>> {
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| SimError::protocol(format!("stream record missing array field `{key}`")))
}

impl StreamRecord {
    /// The record's `"t"` type tag.
    pub fn record_type(&self) -> &'static str {
        match self {
            StreamRecord::RunStart(_) => "run_start",
            StreamRecord::Interval(_) => "interval",
            StreamRecord::Event(_) => "event",
            StreamRecord::RunEnd(_) => "run_end",
        }
    }

    /// The record as a JSON value (sorted keys, so serialization is
    /// byte-stable).
    pub fn to_value(&self) -> Value {
        match self {
            StreamRecord::RunStart(r) => {
                let mut entries = vec![
                    ("v", Value::from(WIRE_VERSION)),
                    ("t", Value::from("run_start")),
                    ("spec", Value::from(&r.spec)),
                    ("agents", Value::from(r.agents)),
                    ("workers", Value::from(r.workers)),
                    ("target_cycles", Value::from(r.target_cycles)),
                    ("window", Value::from(r.window)),
                    ("interval", Value::from(r.interval)),
                ];
                if let Some(id) = &r.run_id {
                    entries.push(("run_id", Value::from(id)));
                }
                if let Some(t) = &r.transport {
                    entries.push(("transport", Value::from(t)));
                }
                obj(entries)
            }
            StreamRecord::Interval(r) => obj(vec![
                ("v", Value::from(WIRE_VERSION)),
                ("t", Value::from("interval")),
                ("seq", Value::from(r.seq)),
                ("cycle", Value::from(r.cycle)),
                ("d_cycles", Value::from(r.d_cycles)),
                ("wall_ns", Value::from(r.wall_ns)),
                (
                    "agents",
                    Value::Array(
                        r.agents
                            .iter()
                            .map(|a| {
                                obj(vec![
                                    ("name", Value::from(&a.name)),
                                    ("d_cycles", Value::from(a.d_cycles)),
                                    ("d_tokens_in", Value::from(a.d_tokens_in)),
                                    ("d_tokens_out", Value::from(a.d_tokens_out)),
                                    ("d_retired", Value::from(a.d_retired)),
                                    ("host_ns", Value::from(a.host_ns)),
                                    ("icache_hit_permille", Value::from(a.icache_hit_permille)),
                                    ("host_mips", Value::from(a.host_mips)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "links",
                    Value::Array(
                        r.links
                            .iter()
                            .map(|l| {
                                obj(vec![
                                    ("agent", Value::from(&l.agent)),
                                    ("port", Value::from(l.port)),
                                    ("latency", Value::from(l.latency)),
                                    ("tokens", Value::from(l.in_flight_tokens)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "switches",
                    Value::Array(
                        r.switches
                            .iter()
                            .map(|s| {
                                obj(vec![
                                    ("name", Value::from(&s.name)),
                                    ("highwater", Value::from(s.highwater)),
                                    ("d_drops", Value::from(s.d_drops)),
                                    ("d_forwarded", Value::from(s.d_forwarded)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            StreamRecord::Event(r) => obj(vec![
                ("v", Value::from(WIRE_VERSION)),
                ("t", Value::from("event")),
                ("cycle", Value::from(r.cycle)),
                ("kind", Value::from(&r.kind)),
                ("label", Value::from(&r.label)),
            ]),
            StreamRecord::RunEnd(r) => obj(vec![
                ("v", Value::from(WIRE_VERSION)),
                ("t", Value::from("run_end")),
                ("cycle", Value::from(r.cycle)),
                ("intervals", Value::from(r.intervals)),
                ("wall_ns", Value::from(r.wall_ns)),
                ("done", Value::from(r.done)),
            ]),
        }
    }

    /// The record as one compact NDJSON line, without the trailing
    /// newline.
    pub fn to_ndjson(&self) -> String {
        self.to_value().to_string_compact()
    }

    /// Parses one NDJSON line back into a record, rejecting unknown
    /// type tags and wire versions newer than [`WIRE_VERSION`].
    pub fn parse(line: &str) -> SimResult<StreamRecord> {
        let v: Value = serde_json::from_str(line)
            .map_err(|e| SimError::protocol(format!("bad stream record: {e}")))?;
        let version = get_u64(&v, "v")?;
        if version > WIRE_VERSION {
            return Err(SimError::protocol(format!(
                "stream record has wire version {version}, this consumer speaks {WIRE_VERSION}"
            )));
        }
        let t = get_str(&v, "t")?;
        match t.as_str() {
            "run_start" => Ok(StreamRecord::RunStart(RunStartRecord {
                run_id: v.get("run_id").and_then(Value::as_str).map(str::to_owned),
                spec: get_str(&v, "spec")?,
                agents: get_u64(&v, "agents")?,
                workers: get_u64(&v, "workers")?,
                target_cycles: get_u64(&v, "target_cycles")?,
                window: get_u64(&v, "window")?,
                interval: get_u64(&v, "interval")?,
                transport: v
                    .get("transport")
                    .and_then(Value::as_str)
                    .map(str::to_owned),
            })),
            "interval" => {
                let mut agents = Vec::new();
                for a in get_arr(&v, "agents")? {
                    agents.push(AgentIntervalSample {
                        name: get_str(a, "name")?,
                        d_cycles: get_u64(a, "d_cycles")?,
                        d_tokens_in: get_u64(a, "d_tokens_in")?,
                        d_tokens_out: get_u64(a, "d_tokens_out")?,
                        d_retired: get_u64(a, "d_retired")?,
                        host_ns: get_u64(a, "host_ns")?,
                        icache_hit_permille: get_u64_or_zero(a, "icache_hit_permille"),
                        host_mips: get_u64_or_zero(a, "host_mips"),
                    });
                }
                let mut links = Vec::new();
                for l in get_arr(&v, "links")? {
                    links.push(LinkOccupancy {
                        agent: get_str(l, "agent")?,
                        port: get_u64(l, "port")? as usize,
                        latency: get_u64(l, "latency")?,
                        in_flight_tokens: get_u64(l, "tokens")?,
                    });
                }
                let mut switches = Vec::new();
                for s in get_arr(&v, "switches")? {
                    switches.push(SwitchSample {
                        name: get_str(s, "name")?,
                        highwater: get_u64(s, "highwater")?,
                        d_drops: get_u64(s, "d_drops")?,
                        d_forwarded: get_u64(s, "d_forwarded")?,
                    });
                }
                Ok(StreamRecord::Interval(IntervalRecord {
                    seq: get_u64(&v, "seq")?,
                    cycle: get_u64(&v, "cycle")?,
                    d_cycles: get_u64(&v, "d_cycles")?,
                    wall_ns: get_u64(&v, "wall_ns")?,
                    agents,
                    links,
                    switches,
                }))
            }
            "event" => Ok(StreamRecord::Event(EventRecord {
                cycle: get_u64(&v, "cycle")?,
                kind: get_str(&v, "kind")?,
                label: get_str(&v, "label")?,
            })),
            "run_end" => Ok(StreamRecord::RunEnd(RunEndRecord {
                cycle: get_u64(&v, "cycle")?,
                intervals: get_u64(&v, "intervals")?,
                wall_ns: get_u64(&v, "wall_ns")?,
                done: v
                    .get("done")
                    .and_then(Value::as_bool)
                    .ok_or_else(|| SimError::protocol("run_end missing bool field `done`"))?,
            })),
            other => Err(SimError::protocol(format!(
                "unknown stream record type `{other}`"
            ))),
        }
    }

    /// Zeroes every host-dependent field (`wall_ns`, per-agent
    /// `host_ns`), leaving only the target-deterministic payload — the
    /// transform under which a seeded run's stream is byte-identical
    /// across hosts and reruns (the golden-fixture contract).
    pub fn normalize(&mut self) {
        match self {
            StreamRecord::Interval(r) => {
                r.wall_ns = 0;
                for a in &mut r.agents {
                    a.host_ns = 0;
                    a.host_mips = 0;
                }
            }
            StreamRecord::RunEnd(r) => r.wall_ns = 0,
            StreamRecord::RunStart(_) | StreamRecord::Event(_) => {}
        }
    }
}

/// Parses one NDJSON line, zeroes its host-dependent fields, and
/// re-serializes it — the per-line normalization used by golden-fixture
/// diffs and `firesim-top --normalize`.
pub fn normalize_line(line: &str) -> SimResult<String> {
    let mut rec = StreamRecord::parse(line)?;
    rec.normalize();
    Ok(rec.to_ndjson())
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Emits records to a sink, one flushed line per record.
///
/// The flush-per-record guarantee is part of the wire contract: a
/// consumer never observes a partial line, and a crash loses at most
/// the record being written.
pub struct StreamWriter {
    sink: Box<dyn Write + Send>,
    records: u64,
}

impl std::fmt::Debug for StreamWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamWriter")
            .field("records", &self.records)
            .finish_non_exhaustive()
    }
}

impl StreamWriter {
    /// Wraps an already-open sink.
    pub fn new(sink: Box<dyn Write + Send>) -> StreamWriter {
        StreamWriter { sink, records: 0 }
    }

    /// Parses a sink spec (see [`StreamOut::parse`]) and connects it.
    pub fn open(spec: &str) -> SimResult<StreamWriter> {
        Ok(StreamWriter::new(StreamOut::parse(spec).connect()?))
    }

    /// Writes one record as a complete, flushed NDJSON line.
    pub fn emit(&mut self, record: &StreamRecord) -> SimResult<()> {
        let mut line = record.to_ndjson();
        line.push('\n');
        self.sink
            .write_all(line.as_bytes())
            .and_then(|()| self.sink.flush())
            .map_err(|e| SimError::io("writing stream record", &e))?;
        self.records += 1;
        Ok(())
    }

    /// Records emitted so far.
    pub fn records(&self) -> u64 {
        self.records
    }
}

// ---------------------------------------------------------------------------
// Session: driving a Simulation in interval legs
// ---------------------------------------------------------------------------

/// Static facts about the run for the `run_start` header.
#[derive(Debug, Clone, Default)]
pub struct StreamMeta {
    /// Stable run identifier, if any.
    pub run_id: Option<String>,
    /// Opaque build spec.
    pub spec: String,
    /// Worker process count.
    pub workers: u64,
    /// Cross-shard transport name, if any.
    pub transport: Option<String>,
}

/// Totals from a completed streamed run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamSummary {
    /// Target cycles advanced across the streamed legs.
    pub cycles: Cycle,
    /// Host wall time across the streamed legs.
    pub wall: Duration,
    /// Interval records emitted.
    pub intervals: u64,
    /// Whether every agent reported done.
    pub done: bool,
}

/// A live streaming session over one [`Simulation`].
///
/// Drives the run in interval-sized [`Simulation::run_for`] legs and
/// samples at the quiescent boundaries between them — the same
/// leg-splitting the checkpoint and repartition paths already prove is
/// digest-identical to a single run. The engine's hot path is never
/// touched; the session only reads aggregation that already exists at
/// chunk barriers.
#[derive(Debug)]
pub struct StreamSession {
    writer: StreamWriter,
    probe: IntervalProbe,
    interval: u64,
    seq: u64,
    began: u64,
    wall: Duration,
    /// Cumulative per-switch (drops, forwarded) at the previous sample.
    switch_prev: Vec<(u64, u64)>,
    /// Fault records already emitted as events.
    faults_seen: usize,
    /// Scenario timeline events already emitted.
    timeline_seen: usize,
}

impl StreamSession {
    /// Emits the `run_start` header and primes the interval probe at the
    /// simulation's current cycle (so restored runs stream deltas from
    /// the restore point, not from zero).
    ///
    /// `target` is the absolute cycle the run is headed for; `interval`
    /// is the sampling period in cycles (0 falls back to
    /// [`DEFAULT_STREAM_INTERVAL`]). Call [`Simulation::enable_metrics`]
    /// first — without it the per-agent profiles stay zero.
    pub fn begin(
        mut writer: StreamWriter,
        meta: &StreamMeta,
        sim: &mut Simulation,
        target: Cycle,
        interval: u64,
    ) -> SimResult<StreamSession> {
        let interval = if interval == 0 {
            DEFAULT_STREAM_INTERVAL
        } else {
            interval
        };
        let engine = sim.engine_mut();
        writer.emit(&StreamRecord::RunStart(RunStartRecord {
            run_id: meta.run_id.clone(),
            spec: meta.spec.clone(),
            agents: engine.agent_count() as u64,
            workers: meta.workers,
            target_cycles: target.as_u64(),
            window: u64::from(engine.window()),
            interval,
            transport: meta.transport.clone(),
        }))?;
        let mut probe = IntervalProbe::new();
        let began = engine.now().as_u64();
        engine.sample_interval(&mut probe);
        let switch_prev = sim
            .switch_stats()
            .iter()
            .map(|(_, stats)| {
                let s = stats.lock();
                (s.drops_buffer + s.drops_delay, s.frames_forwarded)
            })
            .collect();
        Ok(StreamSession {
            writer,
            probe,
            interval,
            seq: 0,
            began,
            wall: Duration::ZERO,
            switch_prev,
            faults_seen: 0,
            timeline_seen: 0,
        })
    }

    /// Runs the simulation to the absolute cycle `target` in
    /// interval-sized legs, emitting one `interval` record per leg and
    /// `event` records for any faults or scenario annotations that fired
    /// inside it.
    ///
    /// With `stop_when_done`, stops at the first interval boundary where
    /// every agent reports done (the streamed analogue of
    /// [`Simulation::run_until_done`], at interval rather than chunk
    /// granularity).
    pub fn run_to(
        &mut self,
        sim: &mut Simulation,
        target: Cycle,
        stop_when_done: bool,
    ) -> SimResult<()> {
        while sim.now().as_u64() < target.as_u64() {
            if stop_when_done && sim.all_done() {
                break;
            }
            let leg = self.interval.min(target.as_u64() - sim.now().as_u64());
            let summary = sim.run_for(Cycle::new(leg))?;
            self.wall += summary.wall;
            self.sample(sim, summary.wall)?;
        }
        Ok(())
    }

    /// Emits one `interval` record for everything since the previous
    /// sample. `leg_wall` is the host time the leg took.
    fn sample(&mut self, sim: &mut Simulation, leg_wall: Duration) -> SimResult<()> {
        self.seq += 1;
        let seq = self.seq;
        let engine = sim.engine_mut();
        let snap = engine.sample_interval(&mut self.probe);
        let links = engine.link_occupancies();
        let mut switches = Vec::new();
        for (i, (name, stats)) in sim.switch_stats().iter().enumerate() {
            let s = stats.lock();
            let drops = s.drops_buffer + s.drops_delay;
            let forwarded = s.frames_forwarded;
            let highwater = s.buffer_highwater.iter().copied().max().unwrap_or(0);
            let (prev_drops, prev_fwd) = self.switch_prev.get(i).copied().unwrap_or_default();
            switches.push(SwitchSample {
                name: name.clone(),
                highwater,
                d_drops: drops.saturating_sub(prev_drops),
                d_forwarded: forwarded.saturating_sub(prev_fwd),
            });
            if let Some(slot) = self.switch_prev.get_mut(i) {
                *slot = (drops, forwarded);
            }
        }
        self.writer.emit(&StreamRecord::Interval(IntervalRecord {
            seq,
            cycle: snap.cycle,
            d_cycles: snap.d_cycles,
            wall_ns: leg_wall.as_nanos() as u64,
            agents: snap.agents,
            links,
            switches,
        }))?;

        // Newly fired faults and scenario annotations since last sample.
        let faults = sim.fault_records();
        for f in faults.iter().skip(self.faults_seen) {
            self.event(f.cycle, "fault", &format!("{}: {}", f.agent, f.description))?;
        }
        self.faults_seen = faults.len();
        if let Some(timeline) = sim.fault_timeline() {
            for (cycle, label) in timeline.events.iter().skip(self.timeline_seen) {
                self.event(*cycle, "scenario", label)?;
            }
            self.timeline_seen = timeline.events.len();
        }
        Ok(())
    }

    /// Emits a discrete `event` record (checkpoint markers, worker
    /// lifecycle, ...).
    pub fn event(&mut self, cycle: u64, kind: &str, label: &str) -> SimResult<()> {
        self.writer.emit(&StreamRecord::Event(EventRecord {
            cycle,
            kind: kind.to_owned(),
            label: label.to_owned(),
        }))
    }

    /// Emits the `run_end` trailer and returns the session totals.
    pub fn finish(mut self, sim: &Simulation) -> SimResult<StreamSummary> {
        let done = sim.all_done();
        self.writer.emit(&StreamRecord::RunEnd(RunEndRecord {
            cycle: sim.now().as_u64(),
            intervals: self.seq,
            wall_ns: self.wall.as_nanos() as u64,
            done,
        }))?;
        Ok(StreamSummary {
            cycles: Cycle::new(sim.now().as_u64() - self.began),
            wall: self.wall,
            intervals: self.seq,
            done,
        })
    }
}

/// Convenience wrapper: streams a whole run — header, interval legs to
/// `target`, trailer — in one call. See [`StreamSession`] for the
/// leg-splitting mechanics and [`StreamSession::begin`] for the
/// `enable_metrics` requirement.
pub fn run_streamed(
    sim: &mut Simulation,
    writer: StreamWriter,
    meta: &StreamMeta,
    target: Cycle,
    interval: u64,
    stop_when_done: bool,
) -> SimResult<StreamSummary> {
    let mut session = StreamSession::begin(writer, meta, sim, target, interval)?;
    session.run_to(sim, target, stop_when_done)?;
    session.finish(sim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_spec_grammar() {
        assert_eq!(StreamOut::parse("-"), StreamOut::Stdout);
        assert_eq!(
            StreamOut::parse("tcp:127.0.0.1:9000"),
            StreamOut::Tcp("127.0.0.1:9000".into())
        );
        assert_eq!(
            StreamOut::parse("unix:/tmp/s.sock"),
            StreamOut::Unix(PathBuf::from("/tmp/s.sock"))
        );
        assert_eq!(
            StreamOut::parse("out/run.ndjson"),
            StreamOut::File(PathBuf::from("out/run.ndjson"))
        );
    }

    fn sample_records() -> Vec<StreamRecord> {
        vec![
            StreamRecord::RunStart(RunStartRecord {
                run_id: Some("r1".into()),
                spec: "seed=1".into(),
                agents: 3,
                workers: 1,
                target_cycles: 1_000_000,
                window: 64,
                interval: 100_000,
                transport: None,
            }),
            StreamRecord::Interval(IntervalRecord {
                seq: 1,
                cycle: 100_000,
                d_cycles: 100_032,
                wall_ns: 42,
                agents: vec![AgentIntervalSample {
                    name: "pinger".into(),
                    d_cycles: 100_032,
                    d_tokens_in: 7,
                    d_tokens_out: 9,
                    d_retired: 55_000,
                    host_ns: 1_234,
                    icache_hit_permille: 930,
                    host_mips: 44,
                }],
                links: vec![LinkOccupancy {
                    agent: "tor0".into(),
                    port: 0,
                    latency: 6_400,
                    in_flight_tokens: 6_400,
                }],
                switches: vec![SwitchSample {
                    name: "tor0".into(),
                    highwater: 1_500,
                    d_drops: 0,
                    d_forwarded: 12,
                }],
            }),
            StreamRecord::Event(EventRecord {
                cycle: 150_000,
                kind: "fault".into(),
                label: "echo: link 0 down".into(),
            }),
            StreamRecord::RunEnd(RunEndRecord {
                cycle: 1_000_000,
                intervals: 10,
                wall_ns: 9_999,
                done: true,
            }),
        ]
    }

    #[test]
    fn records_roundtrip_through_ndjson() {
        for rec in sample_records() {
            let line = rec.to_ndjson();
            assert!(!line.contains('\n'), "one record, one line");
            let back = StreamRecord::parse(&line).expect("parses");
            assert_eq!(back, rec);
        }
    }

    /// Streams written while the blade still had a sampled timing mode
    /// carry three more keys on every agent. Wire v1 readers ignore
    /// unknown keys, so such a line still parses, to the same record.
    #[test]
    fn interval_with_removed_agent_keys_still_parses() {
        let line = concat!(
            r#"{"agents":[{"ci_hi_permille":580,"ci_lo_permille":520,"d_cycles":100032,"d_retired":55000,"d_tokens_in":7,"d_tokens_out":9,"host_mips":44,"host_ns":1234,"icache_hit_permille":930,"ipc_est_permille":550,"name":"pinger"}],"#,
            r#""cycle":100000,"d_cycles":100032,"links":[{"agent":"tor0","latency":6400,"port":0,"tokens":6400}],"seq":1,"#,
            r#""switches":[{"d_drops":0,"d_forwarded":12,"highwater":1500,"name":"tor0"}],"t":"interval","v":1,"wall_ns":42}"#,
        );
        assert_eq!(StreamRecord::parse(line).unwrap(), sample_records()[1]);
    }

    #[test]
    fn every_record_carries_version_and_type() {
        for rec in sample_records() {
            let v: Value = serde_json::from_str(&rec.to_ndjson()).unwrap();
            assert_eq!(v.get("v").and_then(Value::as_u64), Some(WIRE_VERSION));
            assert_eq!(v.get("t").and_then(Value::as_str), Some(rec.record_type()));
        }
    }

    #[test]
    fn newer_wire_version_is_rejected() {
        let line = format!(
            "{{\"v\":{},\"t\":\"event\",\"cycle\":0,\"kind\":\"x\",\"label\":\"y\"}}",
            WIRE_VERSION + 1
        );
        assert!(StreamRecord::parse(&line).is_err());
        assert!(StreamRecord::parse("{\"v\":1,\"t\":\"nope\"}").is_err());
        assert!(StreamRecord::parse("not json").is_err());
    }

    #[test]
    fn deeply_nested_line_is_a_typed_error() {
        // `simd` feeds every inbound TCP line through `parse` and counts
        // failures as invalid; a hostile line must not blow the stack.
        let line = format!("{{\"v\":1,\"t\":{}", "[".repeat(10_000));
        let err = StreamRecord::parse(&line).unwrap_err();
        assert!(
            matches!(err, SimError::Protocol { .. }) && err.to_string().contains("recursion"),
            "{err}"
        );
    }

    #[test]
    fn normalize_zeroes_only_host_fields() {
        let mut recs = sample_records();
        for rec in &mut recs {
            rec.normalize();
        }
        match &recs[1] {
            StreamRecord::Interval(r) => {
                assert_eq!(r.wall_ns, 0);
                assert_eq!(r.agents[0].host_ns, 0);
                // Deterministic payload untouched.
                assert_eq!(r.d_cycles, 100_032);
                assert_eq!(r.agents[0].d_retired, 55_000);
            }
            other => panic!("expected interval, got {other:?}"),
        }
        match &recs[3] {
            StreamRecord::RunEnd(r) => assert_eq!(r.wall_ns, 0),
            other => panic!("expected run_end, got {other:?}"),
        }
        // normalize_line is the same transform at the text layer.
        let line = sample_records()[3].to_ndjson();
        let norm = normalize_line(&line).unwrap();
        assert_eq!(norm, recs[3].to_ndjson());
    }

    #[test]
    fn writer_counts_and_flushes_lines() {
        use std::sync::{Arc, Mutex};

        #[derive(Clone, Default)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl Write for Buf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buf = Buf::default();
        let mut w = StreamWriter::new(Box::new(buf.clone()));
        for rec in sample_records() {
            w.emit(&rec).unwrap();
        }
        assert_eq!(w.records(), 4);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 4);
        for line in text.lines() {
            StreamRecord::parse(line).expect("every emitted line parses");
        }
    }
}
