//! The traced pass: where a workload's host time goes, layer by layer.
//!
//! The workload runs twice side by side — once plain, once with the
//! engine's metrics on — in alternating chunks, so both see the same host
//! weather; the rate difference is `trace_overhead_share`. Layer shares
//! come from accounting the crates already export (`AgentProfile::host_ns`,
//! the `engine/*` counters, app counters), read from outside. Spans are
//! recorded here, around the calls into each layer, kept in memory, and
//! written as one Chrome-trace file at the end; a short sample of the
//! engine's own per-agent spans is appended to the same file.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use serde_json::Value;

use firesim_core::{Cycle, EngineCheckpoint, SimError, SimResult};
use firesim_manager::Simulation;
use firesim_net::Flit;

use crate::drives;
use crate::measure::{build, counter_sum, fleet_run, read_target, setup_samples, Checks, Target};
use crate::stats::{median, obj};
use crate::workloads::{Mode, Probes, Workload, DEFAULT_SEED};

/// Repetitions of each one-shot operation (checkpoint, report, set-up).
const REPS: usize = 5;
/// Windows run with the engine's own span tracing on, for the trace file.
const ENGINE_SPAN_WINDOWS: u64 = 16;
/// Chunks per side of the traced/plain comparison, per `--seconds`: a
/// fixed count, not a time limit, so that the deterministic counts read
/// from the traced run are the same on every host.
const CHUNKS_PER_SECOND: f64 = 0.8;
/// Fewest chunks per side.
const MIN_CHUNKS: usize = 3;
/// Length of one layer-drive burst per `--seconds`: 40 ms at the
/// contract's 10 s, so that the ~25 drives fit a traced run.
const DRIVE_BURST_PER_SECOND: f64 = 0.004;

/// Spans recorded by the harness around its calls into the layers.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

#[derive(Debug)]
struct Span {
    name: String,
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span of `layer`, child of whichever span is open.
    fn scope<R>(&mut self, name: &str, layer: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Chrome `trace_event` objects, each with its self time (duration
    /// minus the part its children cover).
    fn events(&self) -> Vec<Value> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let dur = s.end_ns - s.start_ns;
                obj([
                    ("ph", "X".into()),
                    ("pid", 1u64.into()),
                    ("tid", 0u64.into()),
                    ("name", s.name.as_str().into()),
                    ("cat", s.layer.into()),
                    ("ts", (s.start_ns as f64 / 1e3).into()),
                    ("dur", (dur as f64 / 1e3).into()),
                    (
                        "args",
                        obj([
                            ("id", i.into()),
                            ("parent", s.parent.map_or(Value::Null, Value::from)),
                            (
                                "self_us",
                                (dur.saturating_sub(child_ns[i]) as f64 / 1e3).into(),
                            ),
                        ]),
                    ),
                ])
            })
            .collect()
    }
}

/// Result of the traced pass.
#[derive(Debug)]
pub struct Layers {
    /// Every per-layer metric by name (0 where the workload has nothing
    /// to measure it on).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Cross-checks between the traced and the plain run.
    pub checks: Checks,
    /// Target statistics at the end of the traced run.
    pub target: Target,
}

/// Agent kind, told by the counters the agent exports.
fn kind(counters: &[(String, u64)]) -> &'static str {
    let has = |name: &str| counters.iter().any(|(k, _)| k == name);
    if has("retired") {
        "rtl"
    } else if has("frames_forwarded") {
        "switch"
    } else {
        "model"
    }
}

fn permille(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 1e3 / whole as f64
    }
}

/// Host-time shares and counters of a metrics-enabled simulation that has
/// run for `wall_ns` on `threads` threads. Returns the host nanoseconds
/// the shares are of and the number of windows moved between agents.
fn attribution(
    sim: &mut Simulation,
    wall_ns: f64,
    threads: usize,
    m: &mut BTreeMap<&'static str, f64>,
) -> (f64, u64) {
    let counters = sim.engine_mut().agent_app_counters();
    let profiles = sim.engine_mut().agent_profiles();
    let mut by_kind: BTreeMap<&str, u64> = BTreeMap::new();
    for ((_, profile), (_, c)) in profiles.iter().zip(&counters) {
        *by_kind.entry(kind(c)).or_default() += profile.host_ns;
    }
    let registry = sim.enable_metrics();
    let barrier_ns = registry
        .counter_value("engine/barrier_wait_ns")
        .unwrap_or(0);
    let steps = registry.counter_value("engine/agent_steps").unwrap_or(0);

    let host_ns = wall_ns * threads as f64;
    let share = |ns: u64| ns as f64 / host_ns;
    let busy: u64 = by_kind.values().sum();
    let of = |k: &str| by_kind.get(k).copied().unwrap_or(0);
    m.insert("blade.rtl.host_share", share(of("rtl")));
    m.insert("blade.model.host_share", share(of("model")));
    m.insert("net.switch.host_share", share(of("switch")));
    m.insert("core.engine.agent_busy_share", share(busy));
    m.insert("core.engine.barrier_wait_share", share(barrier_ns));
    m.insert(
        "core.engine.self_share",
        1.0 - share(busy) - share(barrier_ns),
    );
    m.insert(
        "core.engine.ns_per_agent_round",
        host_ns / steps.max(1) as f64,
    );
    m.insert("core.engine.agent_steps", steps as f64);

    let sum = |name: &str| counter_sum(&counters, name);
    let retired = sum("retired");
    m.insert(
        "blade.rtl.mips",
        if of("rtl") == 0 {
            0.0
        } else {
            retired as f64 * 1e3 / of("rtl") as f64
        },
    );
    m.insert(
        "riscv.icache.hit_permille",
        permille(
            sum("host_icache_hits"),
            sum("host_icache_hits") + sum("host_icache_misses"),
        ),
    );
    m.insert(
        "uarch.memsys.l1d_miss_permille",
        permille(
            sum("host_l1d_misses"),
            sum("host_l1d_hits") + sum("host_l1d_misses"),
        ),
    );
    m.insert(
        "uarch.memsys.l2_miss_permille",
        permille(
            sum("host_l2_misses"),
            sum("host_l2_hits") + sum("host_l2_misses"),
        ),
    );
    m.insert(
        "uarch.dram.row_conflicts",
        sum("host_dram_row_conflicts") as f64,
    );
    m.insert("uarch.dram.refreshes", sum("host_dram_refreshes") as f64);
    m.insert("devices.nic.frames_tx", sum("nic_tx_packets") as f64);
    m.insert("devices.nic.frames_rx", sum("nic_rx_packets") as f64);
    m.insert(
        "net.switch.frames_forwarded",
        sum("frames_forwarded") as f64,
    );
    m.insert(
        "net.switch.drops",
        (sum("drops_buffer") + sum("drops_delay")) as f64,
    );
    let windows_moved = profiles.iter().map(|(_, p)| p.windows_in).sum();
    (host_ns, windows_moved)
}

/// Checkpoint, serialise, parse and restore the simulation [`REPS`]
/// times; median milliseconds of each half and the encoded size.
fn snapshot(
    sim: &mut Simulation,
    spans: &mut Spans,
    m: &mut BTreeMap<&'static str, f64>,
) -> SimResult<()> {
    let (mut save_ms, mut load_ms) = (Vec::new(), Vec::new());
    let mut size = 0;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let bytes = spans.scope("checkpoint+to_bytes", "core.snapshot", |_| {
            sim.checkpoint().map(|cp| cp.to_bytes())
        })?;
        save_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        size = bytes.len();
        let t1 = Instant::now();
        spans.scope("from_bytes+restore", "core.snapshot", |_| {
            EngineCheckpoint::<Flit>::from_bytes(&bytes).and_then(|cp| sim.restore(&cp))
        })?;
        load_ms.push(t1.elapsed().as_secs_f64() * 1e3);
    }
    m.insert("core.snapshot.ckpt_ms", median(&save_ms));
    m.insert("core.snapshot.restore_ms", median(&load_ms));
    m.insert("core.snapshot.bytes", size as f64);
    Ok(())
}

/// Runs `cycles` and returns the host seconds it took.
fn run_timed(
    sim: &mut Simulation,
    cycles: u64,
    name: &str,
    spans: &mut Spans,
) -> SimResult<(f64, usize)> {
    spans.scope(name, "run", |_| {
        let t0 = Instant::now();
        let run = sim.run_for(Cycle::new(cycles))?;
        Ok((t0.elapsed().as_secs_f64(), run.host_threads))
    })
}

/// The side-by-side plain and metrics-enabled runs of one topology.
struct SideBySide {
    traced: Simulation,
    traced_probes: Probes,
    /// Host seconds of every `run_for` on the traced side.
    traced_wall: f64,
    threads: usize,
    plain_mhz: Vec<f64>,
    traced_mhz: Vec<f64>,
}

fn side_by_side(
    w: &Workload,
    seed: u64,
    seconds: f64,
    spans: &mut Spans,
    checks: &mut Checks,
) -> SimResult<SideBySide> {
    let threads = w.host_threads;
    let (mut plain, plain_probes, _, _) =
        spans.scope("build plain", "manager", |_| build(w, seed, false, threads))?;
    let (mut traced, traced_probes, _, _) = spans.scope("build traced", "manager", |_| {
        build(w, seed, false, threads)
    })?;
    traced.enable_metrics();

    let lead_in = w.prefix_cycles + w.chunk_cycles;
    run_timed(&mut plain, lead_in, "plain lead-in", spans)?;
    let (mut traced_wall, mut threads) = run_timed(&mut traced, lead_in, "traced lead-in", spans)?;

    let (mut plain_mhz, mut traced_mhz) = (Vec::new(), Vec::new());
    let chunks = ((seconds * CHUNKS_PER_SECOND) as usize).max(MIN_CHUNKS);
    for _ in 0..chunks {
        let (dt, _) = run_timed(&mut plain, w.chunk_cycles, "plain chunk", spans)?;
        plain_mhz.push(w.chunk_cycles as f64 / dt / 1e6);
        let (dt_traced, t) = run_timed(&mut traced, w.chunk_cycles, "traced chunk", spans)?;
        traced_mhz.push(w.chunk_cycles as f64 / dt_traced / 1e6);
        traced_wall += dt_traced;
        threads = t;
    }
    let plain_end = read_target(&mut plain, &plain_probes)?;
    let traced_end = read_target(&mut traced, &traced_probes)?;
    checks.eq("traced_run_matches_plain_run", &traced_end, &plain_end);
    Ok(SideBySide {
        traced,
        traced_probes,
        traced_wall,
        threads,
        plain_mhz,
        traced_mhz,
    })
}

/// The traced pass of one workload; writes `trace_path`.
///
/// # Errors
///
/// Propagates any simulator error; a failed *check* is not an error.
pub fn layers(
    w: &Workload,
    seed: u64,
    seconds: f64,
    scratch: &Path,
    trace_path: &Path,
) -> SimResult<Layers> {
    let mut spans = Spans::new();
    let mut checks = Checks::default();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    // The fleet's in-process twin is seed-independent, like the fleet.
    let seed = if w.mode == Mode::FleetTcp {
        DEFAULT_SEED
    } else {
        seed
    };

    let mut runs = spans.scope("plain and traced runs", "run", |spans| {
        side_by_side(w, seed, seconds, spans, &mut checks)
    })?;
    let plain_mhz = median(&runs.plain_mhz);
    let traced_mhz = median(&runs.traced_mhz);
    m.insert("trace_overhead_share", 1.0 - traced_mhz / plain_mhz);
    let (host_ns, windows_moved) = attribution(
        &mut runs.traced,
        runs.traced_wall * 1e9,
        runs.threads,
        &mut m,
    );
    let parts =
        m["blade.rtl.host_share"] + m["blade.model.host_share"] + m["net.switch.host_share"];
    let whole = parts + m["core.engine.barrier_wait_share"] + m["core.engine.self_share"];
    checks.add(
        "layer_shares_sum_to_one",
        (whole - 1.0).abs() <= 0.05 && m["core.engine.self_share"] >= -0.05,
        format!(
            "rtl+model+switch {parts:.4}, barrier {:.4}, engine self {:.4}",
            m["core.engine.barrier_wait_share"], m["core.engine.self_share"]
        ),
    );

    let sim = &mut runs.traced;
    spans.scope("snapshots", "core.snapshot", |spans| {
        snapshot(sim, spans, &mut m)
    })?;
    let collect_ms: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            let report = spans.scope("run_report", "manager.report", |_| {
                sim.run_report(Duration::from_secs_f64(runs.traced_wall))
            });
            std::hint::black_box(report);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    m.insert("manager.report.collect_ms", median(&collect_ms));

    // A short sample of the engine's own spans (one per agent step, plus
    // barrier waits), shifted onto this recorder's clock.
    let engine_epoch_us = spans.now_ns() as f64 / 1e3;
    let tracer = sim.enable_tracing();
    run_timed(
        sim,
        ENGINE_SPAN_WINDOWS * w.link_latency,
        "engine span sample",
        &mut spans,
    )?;
    let target = read_target(sim, &runs.traced_probes)?;

    let setup = spans.scope("set-up probes", "manager", |_| setup_samples(w, seed))?;
    let (construct, build_s): (Vec<f64>, Vec<f64>) = setup.into_iter().unzip();
    m.insert("manager.topology.construct_ms", median(&construct) * 1e3);
    m.insert("manager.simulation.build_ms", median(&build_s) * 1e3);

    m.insert("manager.partition.fleet_efficiency", 0.0);
    m.insert("manager.partition.spawn_s", 0.0);
    if w.mode == Mode::FleetTcp {
        let mut fleet_mhz = Vec::new();
        fleet_run(w, w.chunk_cycles, scratch)?; // warm-up
        for _ in 0..MIN_CHUNKS {
            let run = spans.scope("fleet run", "manager.partition", |_| {
                fleet_run(w, w.chunk_cycles, scratch)
            })?;
            fleet_mhz.push(run.cycles.as_u64() as f64 / run.wall.as_secs_f64() / 1e6);
        }
        let spawn: Vec<f64> = (0..REPS)
            .map(|_| {
                spans
                    .scope("fleet launch", "manager.partition", |_| {
                        fleet_run(w, w.link_latency, scratch)
                    })
                    .map(|run| run.wall.as_secs_f64())
            })
            .collect::<SimResult<_>>()?;
        m.insert(
            "manager.partition.fleet_efficiency",
            median(&fleet_mhz) / plain_mhz,
        );
        m.insert("manager.partition.spawn_s", median(&spawn));
    }

    let burst = Duration::from_secs_f64(seconds * DRIVE_BURST_PER_SECOND);
    let driven = spans.scope("layer drives", "drives", |_| drives::run(scratch, burst))?;
    m.extend(driven);
    // The engine times an agent's port I/O as part of the agent, so
    // `core.engine.self_share` cannot show what moving windows costs. An
    // estimate from outside: windows moved x the cost of moving an empty
    // window between two idle agents (half an empty two-agent round), as
    // a share of the traced run's host time.
    m.insert(
        "core.channel.window_io_share_est",
        windows_moved as f64 * (m["core.channel.empty_window_ns"] / 2.0) / host_ns,
    );

    let mut events = spans.events();
    let engine_trace: Value = serde_json::from_str(&tracer.export_chrome_trace())
        .map_err(|e| SimError::protocol(format!("engine trace does not parse: {e}")))?;
    for ev in engine_trace
        .get("traceEvents")
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
    {
        let mut ev = ev.as_object().cloned().unwrap_or_default();
        if let Some(ts) = ev.get("ts").and_then(Value::as_f64) {
            ev.insert("ts".into(), (ts + engine_epoch_us).into());
        }
        // Engine tracks sit beside the harness track (tid 0).
        if let Some(tid) = ev.get("tid").and_then(Value::as_u64) {
            ev.insert("tid".into(), (tid + 1).into());
        }
        events.push(Value::Object(ev));
    }
    let file = obj([
        ("displayTimeUnit", "ns".into()),
        ("traceEvents", Value::Array(events)),
    ]);
    std::fs::write(trace_path, file.to_string_compact())
        .map_err(|e| SimError::io(format!("writing {}", trace_path.display()), &e))?;

    Ok(Layers {
        metrics: m,
        checks,
        target,
    })
}
