//! Quickstart: simulate a small cluster and ping across it.
//!
//! This is the FireSim "hello world": two cycle-exact RISC-V server
//! blades under a top-of-rack switch, running bare-metal programs — one
//! pings, one echoes — over a 2 microsecond, 200 Gbit/s network. The
//! measured RTTs come straight out of the simulated machine's cycle
//! counter.
//!
//! ```text
//! cargo run --release --example quickstart
//! cargo run --release --example quickstart -- --checkpoint-every 100000
//! cargo run --release --example quickstart -- \
//!     --checkpoint-every 100000 --inject-fault panic:pinger@250000
//! cargo run --release --example quickstart -- \
//!     --metrics-out report.json --trace-out trace.json
//! cargo run --release --example quickstart -- --workers 2 --transport shm
//! cargo run --release --example quickstart -- --stream-out - | firesim-top --once
//! ```
//!
//! `--workers N` partitions the same four-server rack across N worker
//! *processes* connected by real token transports (`--transport
//! shm|tcp|unix`): each worker simulates its shard cycle-exactly and the
//! parent merges the results — the per-agent checkpoint digests printed
//! at the end are bit-identical for any N (§III-B2's determinism claim,
//! which `tests/distributed.rs` asserts).
//!
//! With `--checkpoint-every N` the run goes through the supervisor
//! ([`firesim_manager::SupervisorConfig`]): a snapshot of every blade,
//! switch, and in-flight link token is taken each N target cycles, and a
//! host-side failure rolls back to the last snapshot instead of killing
//! the run. `--inject-fault SPEC` installs a deterministic
//! [`firesim_core::FaultPlan`]; specs:
//!
//! ```text
//! panic:AGENT@CYCLE           one-shot worker panic
//! drop:AGENT:PORT@CYCLE       one-shot input-channel drop
//! stall:AGENT@CYCLE:MILLIS    one-shot worker stall (watchdog fodder)
//! linkdown:AGENT:PORT@FROM..UNTIL          input link dead in [FROM,UNTIL)
//! flaky:AGENT:PORT@FROM..UNTIL:PERCENT     input link drops PERCENT of windows
//! ```
//!
//! `--scenario PATH` loads a declarative JSON chaos script
//! ([`firesim_manager::scenario`]) and compiles it against this topology: timed partitions,
//! per-link flakiness/degradation windows, and switch buffer-pressure
//! events, all at deterministic cycle boundaries. Committed scripts live
//! under `examples/scenarios/`; the run prints the recovery timeline the
//! scenario's link watches recorded.
//!
//! `--stream-out SPEC` publishes the live NDJSON run feed (DESIGN §17) —
//! per-interval sim-rate, per-agent activity, link occupancy, switch
//! counters, and fault/scenario events — to stdout (`-`), a file, or a
//! `tcp:`/`unix:` socket such as the `simd` daemon's ingest endpoint;
//! `firesim-top` renders it live. `--stream-interval N` sets the
//! sampling period in target cycles.
//!
//! `--metrics-out PATH` enables the engine's sharded metrics and writes a
//! machine-readable [`firesim_manager::RunReport`] (per-agent profiles,
//! per-link token occupancies, aggregated counters) as JSON, plus a human
//! summary on stdout. `--trace-out PATH` enables span tracing and writes
//! a Chrome `trace_event` JSON loadable in Perfetto or `chrome://tracing`.

use firesim_core::{Cycle, FaultPlan, Frequency};
use firesim_manager::catalogue::{self, QUICKSTART_PINGS};
use firesim_manager::{run_partitioned, PartitionConfig, SupervisorConfig, TransportChoice};

/// With `--stream-out -` the NDJSON feed owns stdout, so every
/// human-readable line must move to stderr or it would corrupt the wire
/// for piped consumers (`quickstart --stream-out - | firesim-top`).
static CHAT_TO_STDERR: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// `println!` for run chatter: stdout normally, stderr when the
/// telemetry stream has claimed stdout.
macro_rules! chat {
    ($($arg:tt)*) => {
        if CHAT_TO_STDERR.load(std::sync::atomic::Ordering::Relaxed) {
            eprintln!($($arg)*);
        } else {
            println!($($arg)*);
        }
    };
}

/// `print!`-style sibling of [`chat!`] for pre-newlined blocks.
fn chat_str(s: &str) {
    use std::io::Write;
    if CHAT_TO_STDERR.load(std::sync::atomic::Ordering::Relaxed) {
        let _ = write!(std::io::stderr(), "{s}");
    } else {
        let _ = write!(std::io::stdout(), "{s}");
    }
}

/// Target clock for every blade in the rack.
const CLOCK: Frequency = Frequency::GHZ_3_2;

struct Options {
    checkpoint_every: Option<u64>,
    faults: Vec<String>,
    scenario: Option<String>,
    metrics_out: Option<std::path::PathBuf>,
    trace_out: Option<std::path::PathBuf>,
    workers: Option<usize>,
    transport: TransportChoice,
    cycles: u64,
    stream_out: Option<String>,
    stream_interval: u64,
}

fn parse_args() -> Options {
    let mut opts = Options {
        checkpoint_every: None,
        faults: Vec::new(),
        scenario: None,
        metrics_out: None,
        trace_out: None,
        workers: None,
        transport: TransportChoice::Shm,
        cycles: 2_000_000,
        stream_out: None,
        stream_interval: firesim_manager::stream::DEFAULT_STREAM_INTERVAL,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            "--workers" => {
                let v = args.next().unwrap_or_default();
                match v.parse::<usize>() {
                    Ok(n) if n > 0 => opts.workers = Some(n),
                    _ => die(&format!("--workers needs a positive count, got {v:?}")),
                }
            }
            "--transport" => {
                let v = args.next().unwrap_or_default();
                match TransportChoice::parse(&v) {
                    Ok(t) => opts.transport = t,
                    Err(_) => die(&format!("--transport must be shm|tcp|unix, got {v:?}")),
                }
            }
            "--cycles" => {
                let v = args.next().unwrap_or_default();
                match v.parse::<u64>() {
                    Ok(n) if n > 0 => opts.cycles = n,
                    _ => die(&format!("--cycles needs a positive cycle count, got {v:?}")),
                }
            }
            "--checkpoint-every" => {
                let v = args.next().unwrap_or_default();
                match v.parse::<u64>() {
                    Ok(n) if n > 0 => opts.checkpoint_every = Some(n),
                    _ => die(&format!(
                        "--checkpoint-every needs a positive cycle count, got {v:?}"
                    )),
                }
            }
            "--inject-fault" => match args.next() {
                Some(spec) => opts.faults.push(spec),
                None => die("--inject-fault needs a spec (e.g. panic:pinger@250000)"),
            },
            "--scenario" => match args.next() {
                Some(path) => opts.scenario = Some(path),
                None => die(
                    "--scenario needs a script path (e.g. examples/scenarios/partition_heal.json)",
                ),
            },
            "--metrics-out" => match args.next() {
                Some(path) => opts.metrics_out = Some(path.into()),
                None => die("--metrics-out needs a file path (e.g. report.json)"),
            },
            "--trace-out" => match args.next() {
                Some(path) => opts.trace_out = Some(path.into()),
                None => die("--trace-out needs a file path (e.g. trace.json)"),
            },
            "--stream-out" => match args.next() {
                Some(spec) => opts.stream_out = Some(spec),
                None => die(
                    "--stream-out needs a sink spec: '-' for stdout, a file path, \
                     tcp:HOST:PORT, or unix:PATH",
                ),
            },
            "--stream-interval" => {
                let v = args.next().unwrap_or_default();
                match v.parse::<u64>() {
                    Ok(n) if n > 0 => opts.stream_interval = n,
                    _ => die(&format!(
                        "--stream-interval needs a positive cycle count, got {v:?}"
                    )),
                }
            }
            other => die(&format!("unknown flag {other:?}")),
        }
    }
    opts
}

const USAGE: &str = "\
usage: quickstart [OPTIONS]

  --checkpoint-every N     supervised run: snapshot every N target cycles
  --inject-fault SPEC      install a deterministic fault (repeatable);
                           e.g. panic:pinger@250000
  --scenario PATH          load a chaos scenario script (JSON);
                           see examples/scenarios/
  --metrics-out PATH       enable metrics; write the RunReport JSON to PATH
  --trace-out PATH         enable span tracing; write Chrome trace JSON to PATH
  --workers N              partition the rack across N worker processes
  --transport shm|tcp|unix token transport between workers (default shm)
  --cycles N               target cycles to simulate (default 2000000)
  --stream-out SPEC        stream live NDJSON telemetry (DESIGN §17) to
                           '-' (stdout), a file path, tcp:HOST:PORT, or
                           unix:PATH (e.g. the simd daemon); view with
                           firesim-top
  --stream-interval N      telemetry sampling interval in target cycles
                           (default 100000)
  --help                   print this help";

fn die(msg: &str) -> ! {
    eprintln!("quickstart: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Parses `panic:AGENT@CYCLE`-style fault specs into a [`FaultPlan`].
fn parse_faults(specs: &[String]) -> FaultPlan {
    let mut plan = FaultPlan::new(0xF1BE);
    for spec in specs {
        let (kind, rest) = spec
            .split_once(':')
            .unwrap_or_else(|| die(&format!("bad fault spec {spec:?} (missing ':')")));
        let bad = || -> ! { die(&format!("bad fault spec {spec:?}")) };
        let num = |s: &str| s.parse::<u64>().unwrap_or_else(|_| bad());
        match kind {
            "panic" => {
                let (agent, at) = rest.split_once('@').unwrap_or_else(|| bad());
                plan.panic_at(agent, num(at));
            }
            "drop" => {
                let (agent, rest) = rest.split_once(':').unwrap_or_else(|| bad());
                let (port, at) = rest.split_once('@').unwrap_or_else(|| bad());
                plan.drop_channel(agent, num(port) as usize, num(at));
            }
            "stall" => {
                let (agent, rest) = rest.split_once('@').unwrap_or_else(|| bad());
                let (at, millis) = rest.split_once(':').unwrap_or_else(|| bad());
                plan.stall_worker(agent, num(at), num(millis));
            }
            "linkdown" => {
                let (agent, rest) = rest.split_once(':').unwrap_or_else(|| bad());
                let (port, span) = rest.split_once('@').unwrap_or_else(|| bad());
                let (from, until) = span.split_once("..").unwrap_or_else(|| bad());
                plan.link_down(agent, num(port) as usize, num(from), num(until));
            }
            "flaky" => {
                let (agent, rest) = rest.split_once(':').unwrap_or_else(|| bad());
                let (port, rest) = rest.split_once('@').unwrap_or_else(|| bad());
                let (span, pct) = rest.rsplit_once(':').unwrap_or_else(|| bad());
                let (from, until) = span.split_once("..").unwrap_or_else(|| bad());
                plan.link_flaky(
                    agent,
                    num(port) as usize,
                    num(from),
                    num(until),
                    num(pct) as u8,
                );
            }
            _ => bad(),
        }
    }
    plan
}

/// Runs the rack partitioned across `workers` processes and prints the
/// per-agent checkpoint digests the parent merged back together.
fn run_distributed(opts: &Options) -> ! {
    let mut cfg = PartitionConfig::new(
        opts.workers.unwrap_or(1),
        Cycle::new(opts.cycles),
        "quickstart".to_owned(),
    );
    cfg.transport = opts.transport;
    cfg.scenario = opts.scenario.clone();
    cfg.stream = opts.stream_out.clone();
    cfg.stream_interval = Some(opts.stream_interval);
    chat!(
        "partitioning across {} worker(s) over {} transport",
        cfg.workers,
        cfg.transport.as_str()
    );
    match run_partitioned(catalogue::build, &cfg) {
        Ok(run) => {
            chat!(
                "simulated {} target cycles in {:?} across {} process(es)",
                run.cycles.as_u64(),
                run.wall,
                run.workers
            );
            for (name, digest) in &run.digests {
                chat!("  digest {name:<8} {digest:016x}");
            }
            chat!("combined digest: {:016x}", run.combined_digest);
            chat_str(&run.report.human_summary());
            std::process::exit(0);
        }
        Err(report) => {
            eprintln!("{report}");
            std::process::exit(1);
        }
    }
}

fn main() {
    // Worker processes re-exec this binary; hand them their shard first.
    if firesim_manager::maybe_worker(catalogue::build) {
        return;
    }
    let opts = parse_args();
    if opts.stream_out.as_deref() == Some("-") {
        CHAT_TO_STDERR.store(true, std::sync::atomic::Ordering::Relaxed);
    }
    if opts.workers.is_some() {
        run_distributed(&opts);
    }
    let clock = CLOCK;
    let pings = QUICKSTART_PINGS;

    // Build ("deploy") and run.
    let (topo, config) = catalogue::build("quickstart").expect("topology is valid");
    let link_latency = config.link_latency;
    // Compile the scenario against the topology's neutral view before
    // `build` consumes it; apply after build.
    let scenario = opts.scenario.as_ref().map(|path| {
        firesim_manager::scenario::load(path)
            .and_then(|s| s.compile(&topo.scenario_topology()))
            .unwrap_or_else(|e| die(&format!("--scenario {path}: {e}")))
    });
    let mut sim = topo.build(config).expect("topology is valid");
    chat!("deployed: {} servers — {}", sim.servers().len(), sim.plan());
    if let Some(sc) = &scenario {
        sim.apply_scenario(sc)
            .unwrap_or_else(|e| die(&e.to_string()));
        chat!(
            "scenario applied: {} link-effect window(s), {} pressured switch(es)",
            sc.link_effects().len(),
            sc.pressured_switches().len()
        );
    }

    if opts.metrics_out.is_some() {
        sim.enable_metrics();
    }
    let tracer = opts.trace_out.as_ref().map(|_| sim.enable_tracing());

    if !opts.faults.is_empty() {
        let plan = parse_faults(&opts.faults);
        chat!(
            "fault plan installed: {} fault(s), seed {:#x}",
            plan.len(),
            plan.seed()
        );
        sim.set_fault_plan(plan);
    }

    // A clean run powers off well under 1M cycles; the cap only matters
    // when an injected target fault eats frames the bare-metal ping
    // program would otherwise spin on forever.
    let max = Cycle::new(opts.cycles);
    if opts.stream_out.is_some() && (opts.checkpoint_every.is_some() || !opts.faults.is_empty()) {
        die("--stream-out rides the plain and --workers paths; it does not combine with the supervised (--checkpoint-every / --inject-fault) path");
    }
    let (cycles, wall) = if opts.checkpoint_every.is_some() || !opts.faults.is_empty() {
        // Supervised path: periodic snapshots, retry-from-checkpoint on
        // injected (or real) host-side failures.
        let cfg = SupervisorConfig {
            checkpoint_every: Cycle::new(opts.checkpoint_every.unwrap_or(1_000_000)),
            ..SupervisorConfig::default()
        };
        match sim.run_supervised(max, &cfg) {
            Ok(run) => {
                chat!(
                    "supervised run: {} checkpoint(s), {} retry(ies), {} injected fault(s)",
                    run.checkpoints,
                    run.retries,
                    run.injected_faults.len()
                );
                for f in &run.injected_faults {
                    chat!(
                        "  injected: {} at cycle {}: {}",
                        f.agent,
                        f.cycle,
                        f.description
                    );
                }
                (run.cycles, run.wall)
            }
            Err(report) => {
                eprintln!("{report}");
                std::process::exit(1);
            }
        }
    } else if let Some(spec) = &opts.stream_out {
        // Streamed path: advance in interval-sized legs, sampling the
        // run feed (DESIGN §17) at each quiescent boundary. Stops at
        // the first interval boundary where every agent is done — the
        // streamed analogue of `run_until_done`.
        sim.enable_metrics();
        let writer = firesim_manager::StreamWriter::open(spec)
            .unwrap_or_else(|e| die(&format!("--stream-out {spec}: {e}")));
        let meta = firesim_manager::StreamMeta {
            run_id: None,
            spec: "quickstart".to_owned(),
            workers: 1,
            transport: None,
        };
        let streamed =
            firesim_manager::run_streamed(&mut sim, writer, &meta, max, opts.stream_interval, true)
                .expect("simulation runs");
        chat!(
            "streamed {} interval record(s) to {spec}",
            streamed.intervals
        );
        (streamed.cycles, streamed.wall)
    } else {
        let summary = sim.run_until_done(max).expect("simulation runs");
        (summary.cycles, summary.wall)
    };
    chat!(
        "simulated {} target cycles in {:?} ({:.2} MHz)",
        cycles.as_u64(),
        wall,
        cycles.as_u64() as f64 / 1e6 / wall.as_secs_f64().max(1e-9)
    );

    if scenario.is_some() {
        if let Some(tl) = sim.fault_timeline() {
            chat!(
                "\nrecovery timeline ({}-cycle buckets on watched links):",
                tl.interval
            );
            for p in &tl.points {
                chat!(
                    "  [{:>8}] delivered={:<6} dropped={:<5} masked={}",
                    p.start,
                    p.delivered,
                    p.dropped,
                    p.masked
                );
            }
            for (cycle, label) in &tl.events {
                chat!("  @{cycle}: {label}");
            }
        }
    }

    // Write observability artifacts before inspecting results, so they
    // exist even when a fault run exits nonzero below.
    if let Some(path) = &opts.metrics_out {
        let report = sim.run_report(wall);
        std::fs::write(path, report.to_json()).expect("write run report");
        chat!("\nrun report written to {}", path.display());
        chat_str(&report.human_summary());
    }
    if let (Some(path), Some(tracer)) = (&opts.trace_out, &tracer) {
        tracer.write_chrome_trace(path).expect("write trace");
        chat!(
            "trace written to {} ({} spans) — load in Perfetto or chrome://tracing",
            path.display(),
            tracer.len()
        );
    }

    // Read the RTTs out of the pinger's mailbox.
    let probe = sim.servers()[0].probe.as_ref().expect("rtl blade");
    let p = probe.lock();
    if p.exit_code != Some(0) {
        // A target-side fault (linkdown/flaky) genuinely loses frames in
        // the simulated network; the bare-metal pinger has no retransmit,
        // so it spins until the cycle cap. The mailbox is only captured
        // at power-off, so report the NIC's view of what got through.
        chat!(
            "\npinger never powered off — an injected target fault lost \
             frames it was waiting on (NIC: {} pings sent, {} replies \
             received); exit={:?}",
            p.nic.tx_packets,
            p.nic.rx_packets,
            p.exit_code
        );
        std::process::exit(1);
    }
    chat!("\nping 10.0.0.1 -> 10.0.0.2 ({} pings):", pings);
    for i in 0..pings {
        let rtt = u64::from_le_bytes(p.mailbox[i * 8..i * 8 + 8].try_into().unwrap());
        chat!(
            "  seq={}  rtt={:.3} us ({} cycles)",
            i,
            clock.micros_from_cycles(Cycle::new(rtt)),
            rtt
        );
    }
    let ideal = 4 * link_latency.as_u64() + 2 * 10;
    chat!(
        "\nideal RTT (4 links + 2 switch traversals): {:.3} us",
        clock.micros_from_cycles(Cycle::new(ideal))
    );
    for (name, stats) in sim.switch_stats() {
        let s = stats.lock();
        chat!(
            "switch {name}: {} frames forwarded, {} bytes",
            s.frames_forwarded,
            s.ingress_bytes
        );
    }
}
