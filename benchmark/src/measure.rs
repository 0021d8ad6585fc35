//! The end-to-end pass: `sim_mhz`, `setup_s`, `peak_rss_mib` and the
//! output checks for one workload, with tracing, metrics and profiling off.
//!
//! Everything here is host time except [`Target`], which is simulated,
//! deterministic, and compared for equality only.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use serde_json::Value;

use firesim_core::stats::Histogram;
use firesim_core::{combined_digest, Cycle, SimError, SimResult};
use firesim_manager::{
    run_partitioned, PartitionConfig, PartitionPlan, Simulation, TransportChoice,
};

use crate::hostprobe;
use crate::stats::{fields, obj, quartiles};
use crate::workloads::{build_fleet2, Mode, Probes, Retire, Workload, DEFAULT_SEED};

/// Constructions + builds timed for `setup_s`.
const SETUP_BUILDS: usize = 15;
/// One-window fleet launches timed for `fleet2_tcp`'s `setup_s`.
const FLEET_SETUP_RUNS: usize = 5;
/// Fewest measured chunks, however short `--seconds` is.
const MIN_CHUNKS: usize = 3;
/// Target clock: latency samples are cycles of a 3.2 GHz blade.
const CYCLES_PER_US: f64 = 3_200.0;

/// One pass/fail output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Observed vs wanted, for the failure message.
    pub detail: String,
}

/// Collects checks.
#[derive(Debug, Default)]
pub struct Checks(pub Vec<Check>);

impl Checks {
    /// Records one check.
    pub fn add(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.0.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// Records `got == want`.
    pub fn eq<T: PartialEq + std::fmt::Debug>(&mut self, name: impl Into<String>, got: T, want: T) {
        let ok = got == want;
        self.add(name, ok, format!("got {got:?}, want {want:?}"));
    }

    /// Number of failed checks.
    pub fn failed(&self) -> usize {
        self.0.iter().filter(|c| !c.ok).count()
    }

    /// The checks as JSON, failures spelled out.
    pub fn to_json(&self) -> Value {
        Value::Array(
            self.0
                .iter()
                .map(|c| {
                    obj([
                        ("name", c.name.as_str().into()),
                        ("ok", c.ok.into()),
                        ("detail", c.detail.as_str().into()),
                    ])
                })
                .collect(),
        )
    }
}

/// Simulated (target) statistics at one quiescent cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct Target {
    /// Target cycle the values were read at.
    pub cycles: u64,
    /// Order-independent digest over every agent's checkpoint.
    pub digest: u64,
    /// Instructions retired by all RTL blades.
    pub retired: u64,
    /// Bytes received by all RTL NICs.
    pub rx_bytes: u64,
    /// Frames sent / received by all RTL NICs.
    pub frames_tx: u64,
    /// See `frames_tx`.
    pub frames_rx: u64,
    /// Frames forwarded by all switches.
    pub frames_forwarded: u64,
    /// Frames dropped by all switches (buffer + delay bound).
    pub drops: u64,
    /// Memcached responses received by all load generators.
    pub responses: u64,
    /// Median / 95th percentile request latency, target microseconds
    /// (0 with no responses).
    pub p50_us: f64,
    /// See `p50_us`.
    pub p95_us: f64,
}

impl Target {
    /// The values as a JSON object keyed `target.*`.
    pub fn to_json(&self) -> Value {
        obj([
            ("target.cycles", self.cycles.into()),
            ("target.digest", format!("{:#018x}", self.digest).into()),
            ("target.retired", self.retired.into()),
            ("target.rx_bytes", self.rx_bytes.into()),
            ("target.frames_tx", self.frames_tx.into()),
            ("target.frames_rx", self.frames_rx.into()),
            ("target.frames_forwarded", self.frames_forwarded.into()),
            ("target.drops", self.drops.into()),
            ("target.responses", self.responses.into()),
            ("target.p50_us", self.p50_us.into()),
            ("target.p95_us", self.p95_us.into()),
        ])
    }
}

/// Sum of the named app counter over every agent.
pub fn counter_sum(counters: &[(String, Vec<(String, u64)>)], name: &str) -> u64 {
    counters
        .iter()
        .flat_map(|(_, c)| c.iter())
        .filter(|(k, _)| k == name)
        .map(|(_, v)| *v)
        .sum()
}

/// Reads every target statistic at the current quiescent boundary.
///
/// # Errors
///
/// Propagates a checkpoint failure.
pub fn read_target(sim: &mut Simulation, probes: &Probes) -> SimResult<Target> {
    let digest = combined_digest(&sim.checkpoint()?.agent_digests());
    let counters = sim.engine_mut().agent_app_counters();
    let sum = |name: &str| counter_sum(&counters, name);
    let mut latency = Histogram::new("latency");
    let mut responses = 0;
    for stats in probes.mutilate.lock().iter() {
        let stats = stats.lock();
        latency.merge(&stats.latency);
        responses += stats.received;
    }
    let us = |p: f64, h: &mut Histogram| h.percentile(p).map_or(0.0, |c| c as f64 / CYCLES_PER_US);
    Ok(Target {
        cycles: sim.now().as_u64(),
        digest,
        retired: sum("retired"),
        rx_bytes: sum("nic_rx_bytes"),
        frames_tx: sum("nic_tx_packets"),
        frames_rx: sum("nic_rx_packets"),
        frames_forwarded: sum("frames_forwarded"),
        drops: sum("drops_buffer") + sum("drops_delay"),
        responses,
        p50_us: us(50.0, &mut latency),
        p95_us: us(95.0, &mut latency),
    })
}

/// Builds the workload's simulation, returning its construction and build
/// times.
///
/// # Errors
///
/// Propagates a topology or wiring error.
pub fn build(
    w: &Workload,
    seed: u64,
    reference: bool,
    host_threads: usize,
) -> SimResult<(Simulation, Probes, Duration, Duration)> {
    let probes = Probes::default();
    let t0 = Instant::now();
    let topo = w.topology(seed, reference, &probes);
    let construct = t0.elapsed();
    let t1 = Instant::now();
    let sim = topo.build(w.config(host_threads))?;
    Ok((sim, probes, construct, t1.elapsed()))
}

/// `setup-probe` subcommand body: [`SETUP_BUILDS`] + 1 constructions and
/// builds in this process, each printed as `construct build` seconds.
///
/// # Errors
///
/// Propagates a build error.
pub fn setup_probe(w: &Workload, seed: u64) -> SimResult<()> {
    for _ in 0..=SETUP_BUILDS {
        let (sim, _probes, construct, build) = build(w, seed, false, w.host_threads)?;
        println!("{} {}", construct.as_secs_f64(), build.as_secs_f64());
        drop(sim);
    }
    Ok(())
}

/// `(construct, build)` seconds of [`SETUP_BUILDS`] builds, made back to
/// back in one child process after a discarded first (cold code, cold
/// heap).
///
/// The child runs with glibc's mmap threshold pinned. Left to adapt, the
/// allocator serves the second build's blade DRAM from the first one's
/// freed, dirty heap, and `calloc` then clears it up front — tens of MiB
/// of `memset` no first build pays. Pinned, every build gets fresh zero
/// pages, as a user's one build per process does.
///
/// # Errors
///
/// Fails when the child cannot be spawned or does not print its samples.
pub fn setup_samples(w: &Workload, seed: u64) -> SimResult<Vec<(f64, f64)>> {
    let exe = std::env::current_exe().map_err(|e| SimError::io("locating benchmark binary", &e))?;
    let out = Command::new(exe)
        .args(["setup-probe", w.name, &seed.to_string()])
        .env("MALLOC_MMAP_THRESHOLD_", "131072")
        .output()
        .map_err(|e| SimError::io("spawning setup probe", &e))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let samples: Vec<(f64, f64)> = text
        .lines()
        .skip(1)
        .filter_map(|line| {
            let (construct, build) = line.split_once(' ')?;
            Some((construct.parse().ok()?, build.parse().ok()?))
        })
        .collect();
    if !out.status.success() || samples.len() != SETUP_BUILDS {
        return Err(SimError::protocol(format!(
            "setup probe failed: {}",
            String::from_utf8_lossy(&out.stderr)
        )));
    }
    Ok(samples)
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Result of the end-to-end pass.
#[derive(Debug)]
pub struct EndToEnd {
    /// Target MHz of each measured chunk, in run order.
    pub chunk_mhz: Vec<f64>,
    /// Host-probe rate before the first chunk and after each one.
    pub probe: Vec<f64>,
    /// Target cycles / host seconds over all measured chunks.
    pub cycles: u64,
    /// See `cycles`.
    pub secs: f64,
    /// Seconds per set-up sample.
    pub setup: Vec<f64>,
    /// `VmHWM` after the timed region.
    pub peak_rss_mib: f64,
    /// Target statistics at the fixed check cycle.
    pub target: Target,
    /// Output checks.
    pub checks: Checks,
}

impl EndToEnd {
    /// Everything measured, for the result set. `sim_mhz` is the median
    /// of the host-speed-corrected chunk rates: the median, not total /
    /// total, because one descheduled chunk on a shared box moves a mean
    /// by more than the regression bound; corrected, because whole runs
    /// drift with the host. The uncorrected median and mean are reported
    /// beside it.
    pub fn detail(&self) -> BTreeMap<String, Value> {
        let (p25, p50, p75) = quartiles(&hostprobe::corrected(&self.chunk_mhz, &self.probe));
        let (s25, s50, s75) = quartiles(&self.setup);
        fields([
            ("sim_mhz", p50.into()),
            ("sim_mhz_p25", p25.into()),
            ("sim_mhz_p75", p75.into()),
            ("sim_mhz_uncorrected", quartiles(&self.chunk_mhz).1.into()),
            (
                "sim_mhz_uncorrected_mean",
                (self.cycles as f64 / self.secs / 1e6).into(),
            ),
            ("chunks", self.chunk_mhz.len().into()),
            ("chunk_mhz", self.chunk_mhz.clone().into()),
            ("host_probe_rate", self.probe.clone().into()),
            ("timed_cycles", self.cycles.into()),
            ("timed_s", self.secs.into()),
            ("setup_s", s50.into()),
            ("setup_s_p25", s25.into()),
            ("setup_s_p75", s75.into()),
            ("setup_n", self.setup.len().into()),
            ("peak_rss_mib", self.peak_rss_mib.into()),
            ("target", self.target.to_json()),
        ])
    }
}

/// Compares `target` with the workload's entry in `expected.json`
/// (`None` while blessing: nothing to compare with yet).
fn check_expected(
    w: &Workload,
    seed: u64,
    target: &Target,
    expected: Option<&Value>,
    checks: &mut Checks,
) {
    let Some(expected) = expected else { return };
    if w.seeded && seed != DEFAULT_SEED {
        return;
    }
    let Some(want) = expected.get(w.name).and_then(Value::as_object) else {
        checks.add("expected.present", false, "no entry in expected.json");
        return;
    };
    let got = target.to_json();
    for (key, want) in want {
        let got = got.get(key).cloned().unwrap_or_default();
        checks.eq(format!("expected.{key}"), got, want.clone());
    }
}

/// Retired-instruction rule for one chunk.
fn chunk_retires(rule: Retire, delta: u64) -> bool {
    match rule {
        Retire::Busy => delta > 0,
        Retire::Parked => delta == 0,
        Retire::None => true,
    }
}

/// Runs the workload to its check cycle on a fresh simulation and reads
/// the target statistics there. With `oracle` set: the per-cycle
/// reference timing loop, the other engine loop (sequential <-> parallel)
/// and different `run_for` cuts, which must all reach the same state.
fn target_at_check_cycle(w: &Workload, seed: u64, oracle: bool) -> SimResult<Target> {
    let threads = match (oracle, w.host_threads) {
        (false, n) => n,
        (true, 1) => 2,
        (true, _) => 1,
    };
    let (mut sim, probes, _, _) = build(w, seed, oracle, threads)?;
    if oracle {
        sim.engine_mut().set_host_oversubscribe(true);
        sim.run_for(Cycle::new(w.prefix_cycles / 2))?;
        sim.run_for(Cycle::new(w.prefix_cycles - w.prefix_cycles / 2))?;
    } else {
        sim.run_for(Cycle::new(w.prefix_cycles))?;
    }
    read_target(&mut sim, &probes)
}

/// The end-to-end pass for an in-process workload.
fn in_process(
    w: &Workload,
    seed: u64,
    seconds: f64,
    expected: Option<&Value>,
) -> SimResult<EndToEnd> {
    let mut checks = Checks::default();
    let (mut sim, probes, _, _) = build(w, seed, false, w.host_threads)?;

    // One discarded chunk: first-touch page faults, the parallel engine's
    // one-off load measurement, cold host caches.
    sim.run_for(Cycle::new(w.chunk_cycles))?;
    let retired = |sim: &mut Simulation| match w.retire {
        Retire::None => 0,
        _ => counter_sum(&sim.engine_mut().agent_app_counters(), "retired"),
    };
    let mut last_retired = retired(&mut sim);
    let mut chunk_mhz = Vec::new();
    let mut probe = vec![hostprobe::rate()];
    let mut secs = 0.0;
    let mut bad_chunks = 0usize;
    while secs < seconds || chunk_mhz.len() < MIN_CHUNKS {
        let t0 = Instant::now();
        let run = sim.run_for(Cycle::new(w.chunk_cycles))?;
        let dt = t0.elapsed().as_secs_f64();
        secs += dt;
        chunk_mhz.push(run.cycles.as_u64() as f64 / dt / 1e6);
        probe.push(hostprobe::rate());
        let now_retired = retired(&mut sim);
        if !chunk_retires(w.retire, now_retired - last_retired) {
            bad_chunks += 1;
        }
        last_retired = now_retired;
    }
    // Before anything below checkpoints: a checkpoint copies every
    // blade's DRAM and disk image, which would be the high-water mark.
    let peak_rss_mib = peak_rss_mib();

    let chunks = chunk_mhz.len() as u64;
    checks.eq("chunks.retire_rule_violations", bad_chunks, 0);
    checks.eq(
        "end.cycles",
        sim.now().as_u64(),
        (chunks + 1) * w.chunk_cycles,
    );
    let invariant = sim.engine_mut().verify_token_invariant();
    checks.add(
        "end.token_invariant",
        invariant.is_ok(),
        format!("{invariant:?}"),
    );
    let end = read_target(&mut sim, &probes)?;
    drop(sim);
    checks.eq("end.switch_drops", end.drops, 0);

    let target = target_at_check_cycle(w, seed, false)?;
    check_expected(w, seed, &target, expected, &mut checks);
    let reference = target_at_check_cycle(w, seed, true)?;
    checks.eq(
        "check_cycle.matches_reference_execution",
        &target,
        &reference,
    );
    for (name, then, now) in [
        ("responses", target.responses, end.responses),
        ("rx_bytes", target.rx_bytes, end.rx_bytes),
    ] {
        if then > 0 {
            checks.add(
                format!("end.{name}_grow"),
                now > then,
                format!("{then} at the check cycle, {now} at the end"),
            );
        }
    }

    let setup = setup_samples(w, seed)?
        .into_iter()
        .map(|(construct, build)| construct + build)
        .collect();
    Ok(EndToEnd {
        chunk_mhz,
        probe,
        cycles: chunks * w.chunk_cycles,
        secs,
        setup,
        peak_rss_mib,
        target,
        checks,
    })
}

/// The partition `fleet2_tcp` runs on: the ToR on worker 0, every blade on
/// worker 1, so each node<->ToR link crosses the transport — as on an F1
/// host, where blades sit on FPGAs and the switch model on the CPU.
fn fleet_config(w: &Workload, cycles: u64, rendezvous: &Path) -> SimResult<PartitionConfig> {
    let topo = w.topology(DEFAULT_SEED, false, &Probes::default());
    let plan = PartitionPlan::from_assignment(
        &topo,
        2,
        vec![1; topo.server_count()],
        vec![0; topo.switch_count()],
    )?;
    let mut cfg = PartitionConfig::new(2, Cycle::new(cycles), w.name);
    cfg.transport = TransportChoice::Tcp;
    cfg.plan = Some(plan);
    cfg.rendezvous = Some(rendezvous.to_path_buf());
    Ok(cfg)
}

/// One fleet run of `cycles` target cycles in a fresh rendezvous directory
/// under `scratch`, removed afterwards.
pub fn fleet_run(
    w: &Workload,
    cycles: u64,
    scratch: &Path,
) -> SimResult<firesim_manager::PartitionedRun> {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = scratch.join(format!(
        "rendezvous-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).map_err(|e| SimError::io("creating rendezvous dir", &e))?;
    let result = fleet_config(w, cycles, &dir)
        .and_then(|cfg| run_partitioned(build_fleet2, &cfg).map_err(|report| report.error));
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// The end-to-end pass for `fleet2_tcp`.
fn fleet(
    w: &Workload,
    seconds: f64,
    expected: Option<&Value>,
    scratch: &Path,
) -> SimResult<EndToEnd> {
    let mut checks = Checks::default();

    // The same topology and horizon in this process: the digest every
    // fleet run must reproduce.
    let (mut twin, probes, _, _) = build(w, DEFAULT_SEED, false, 1)?;
    twin.run_for(Cycle::new(w.chunk_cycles))?;
    let target = read_target(&mut twin, &probes)?;
    check_expected(w, DEFAULT_SEED, &target, expected, &mut checks);
    let invariant = twin.engine_mut().verify_token_invariant();
    checks.add(
        "twin.token_invariant",
        invariant.is_ok(),
        format!("{invariant:?}"),
    );
    drop(twin);

    fleet_run(w, w.chunk_cycles, scratch)?; // discarded warm-up
    let mut chunk_mhz = Vec::new();
    let mut probe = vec![hostprobe::rate()];
    let mut secs = 0.0;
    let mut digest_mismatches = 0usize;
    let mut bad_chunks = 0usize;
    while secs < seconds || chunk_mhz.len() < MIN_CHUNKS {
        let run = fleet_run(w, w.chunk_cycles, scratch)?;
        let dt = run.wall.as_secs_f64();
        secs += dt;
        chunk_mhz.push(run.cycles.as_u64() as f64 / dt / 1e6);
        probe.push(hostprobe::rate());
        if run.combined_digest != target.digest || run.cycles.as_u64() != w.chunk_cycles {
            digest_mismatches += 1;
        }
        let retired: u64 = run
            .report
            .agents
            .iter()
            .flat_map(|a| a.counters.iter())
            .filter(|(k, _)| k == "retired")
            .map(|(_, v)| *v)
            .sum();
        if !chunk_retires(w.retire, retired - target.retired) {
            bad_chunks += 1;
        }
    }
    let peak_rss_mib = peak_rss_mib();
    checks.eq("fleet.digest_mismatches", digest_mismatches, 0);
    checks.eq("fleet.retired_mismatches", bad_chunks, 0);

    let one_window = w.link_latency;
    let setup = (0..FLEET_SETUP_RUNS)
        .map(|_| fleet_run(w, one_window, scratch).map(|run| run.wall.as_secs_f64()))
        .collect::<SimResult<_>>()?;
    let chunks = chunk_mhz.len() as u64;
    Ok(EndToEnd {
        chunk_mhz,
        probe,
        cycles: chunks * w.chunk_cycles,
        secs,
        setup,
        peak_rss_mib,
        target,
        checks,
    })
}

/// Runs the end-to-end pass. `scratch` is a directory inside the checkout
/// for the fleet's rendezvous files.
///
/// # Errors
///
/// Propagates any simulator error; a failed *check* is not an error.
pub fn end_to_end(
    w: &Workload,
    seed: u64,
    seconds: f64,
    expected: Option<&Value>,
    scratch: &Path,
) -> SimResult<EndToEnd> {
    match w.mode {
        Mode::InProcess => in_process(w, seed, seconds, expected),
        Mode::FleetTcp => fleet(w, seconds, expected, scratch),
    }
}
