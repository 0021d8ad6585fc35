//! A memcached cluster under mutilate load (the paper's §IV-E setup).
//!
//! One 4-core server node runs a memcached-style KV service with either
//! 4 or 5 worker threads; seven load-generator nodes drive a Poisson
//! request stream through a ToR switch. With 5 threads on 4 cores, tail
//! latency inflates while the median barely moves — the thread-imbalance
//! phenomenon of Fig 7 (after Leverich & Kozyrakis).
//!
//! ```text
//! cargo run --release --example memcached_cluster
//! cargo run --release --example memcached_cluster -- --partition-heal
//! cargo run --release --example memcached_cluster -- --scenario my_chaos.json
//! ```
//!
//! `--partition-heal` runs the chaos experiment instead of the latency
//! sweep: the committed `examples/scenarios/memcached_partition.json`
//! script cuts three of the seven load generators off the rack inside
//! [60M, 120M) cycles and heals them. The run prints the recovery curve
//! the scenario's link watches recorded — offered load on the cut links
//! drops to zero during the partition (the open-loop generators keep
//! sending; those frames count as `masked`) and returns to the pre-fault
//! rate after the heal. The example fails if the post-heal bucket
//! average is not within 5% of the pre-fault average. `--scenario PATH`
//! runs the same experiment with your own JSON script (format in
//! `examples/scenarios/README.md`). Add `--stream-out
//! SPEC` to watch the dip-and-recover curve live on the NDJSON
//! telemetry feed (DESIGN §17) with `firesim-top`.

use std::sync::Arc;

use parking_lot::Mutex;

use firesim_blade::model::OsConfig;
use firesim_blade::services::{KvServer, KvServerConfig, Mutilate, MutilateConfig, MutilateStats};
use firesim_core::stats::Histogram;
use firesim_core::{Cycle, Frequency};
use firesim_manager::{BladeSpec, SimConfig, Topology};
use firesim_net::MacAddr;

/// The committed partition-and-heal script, compiled against this
/// example's topology by `--partition-heal`.
const PARTITION_SCRIPT: &str = include_str!("scenarios/memcached_partition.json");

/// With `--stream-out -` the NDJSON feed owns stdout, so the chaos
/// run's human-readable lines move to stderr for piped consumers
/// (`memcached_cluster --partition-heal --stream-out - | firesim-top`).
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

type SharedStats = Arc<Mutex<Vec<Arc<Mutex<MutilateStats>>>>>;

/// Builds the rack: one KV server blade and seven mutilate load
/// generators under a ToR switch. Returns the topology plus a handle to
/// every generator's stats.
fn build_cluster(threads: usize, pinned: bool, qps: f64, requests: u64) -> (Topology, SharedStats) {
    let clients = 7;

    let mut topo = Topology::new();
    let tor = topo.add_switch("tor0");
    let server_cfg = KvServerConfig {
        threads,
        ..KvServerConfig::default()
    };
    let server = topo.add_server(
        "memcached",
        BladeSpec::model(
            OsConfig {
                cores: 4,
                ..OsConfig::default()
            },
            threads,
            pinned,
            move |mac, _| Box::new(KvServer::new(mac, server_cfg)),
        ),
    );
    topo.add_downlink(tor, server).unwrap();

    let all_stats: SharedStats = Arc::new(Mutex::new(Vec::new()));
    for i in 0..clients {
        let sink = Arc::clone(&all_stats);
        let cfg = MutilateConfig {
            server: MacAddr::from_node_index(0),
            qps: qps / clients as f64,
            requests,
            seed: 100 + i,
            ..MutilateConfig::default()
        };
        let node = topo.add_server(
            format!("mutilate{i}"),
            BladeSpec::model(
                OsConfig {
                    cores: 4,
                    seed: i,
                    ..OsConfig::default()
                },
                1,
                true,
                move |mac, _| {
                    let m = Mutilate::new(mac, cfg);
                    sink.lock().push(m.stats());
                    Box::new(m)
                },
            ),
        );
        topo.add_downlink(tor, node).unwrap();
    }
    (topo, all_stats)
}

fn run_case(threads: usize, pinned: bool, qps: f64) -> (f64, f64) {
    let clock = Frequency::GHZ_3_2;
    let (topo, all_stats) = build_cluster(threads, pinned, qps, 400);
    let mut sim = topo.build(SimConfig::default()).expect("valid topology");
    sim.run_until_done(Cycle::new(30_000_000_000))
        .expect("runs");

    let mut merged = Histogram::new("latency");
    for h in all_stats.lock().iter() {
        merged.merge(&h.lock().latency);
    }
    let p50 = clock.micros_from_cycles(Cycle::new(merged.percentile(50.0).unwrap_or(0)));
    let p95 = clock.micros_from_cycles(Cycle::new(merged.percentile(95.0).unwrap_or(0)));
    (p50, p95)
}

fn die(msg: &str) -> ! {
    eprintln!("memcached_cluster: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

const USAGE: &str = "\
usage: memcached_cluster [OPTIONS]

  (no options)             run the Fig 7 thread-imbalance latency sweep
  --partition-heal         run the partition-and-heal chaos experiment with
                           the committed examples/scenarios/memcached_partition.json
  --scenario PATH          run the chaos experiment with your own JSON script
  --stream-out SPEC        stream the chaos run's live NDJSON telemetry
                           (DESIGN §17) to '-', a file, tcp:HOST:PORT, or
                           unix:PATH; the partition/heal annotations and
                           the throughput dip appear as they happen
  --help                   print this help";

/// Runs the partition-and-heal experiment: apply the scenario, run a
/// fixed horizon, and check the recovery curve — throughput on the cut
/// links must dip during the partition and return to within 5% of the
/// pre-fault average afterwards.
fn run_partition_heal(path: Option<&str>, stream_out: Option<&str>) -> ! {
    let horizon = 200_000_000u64;
    let qps = 350_000.0; // total across the seven generators
    let scenario = match path {
        Some(p) => firesim_manager::scenario::load(p)
            .unwrap_or_else(|e| die(&format!("--scenario {p}: {e}"))),
        None => {
            firesim_manager::scenario::parse(PARTITION_SCRIPT).expect("committed script parses")
        }
    };
    // The experiment spans 200M cycles; give each generator enough
    // requests that its Poisson stream never runs dry.
    let (topo, _stats) = build_cluster(4, true, qps, 4_000);
    let compiled = scenario
        .compile(&topo.scenario_topology())
        .unwrap_or_else(|e| die(&e.to_string()));
    let (from, until) = scenario
        .events
        .iter()
        .map(|e| (e.from, e.until))
        .reduce(|(f, u), (f2, u2)| (f.min(f2), u.max(u2)))
        .unwrap_or_else(|| die("scenario has no events — nothing to recover from"));
    let interval = compiled.interval().max(1);

    let mut sim = topo.build(SimConfig::default()).expect("valid topology");
    sim.apply_scenario(&compiled)
        .unwrap_or_else(|e| die(&e.to_string()));
    chat!(
        "scenario {:?}: {} link-effect window(s), fault window [{from}, {until})",
        scenario.name,
        compiled.link_effects().len()
    );
    chat!("running {horizon} target cycles at {qps:.0} total QPS...\n");
    match stream_out {
        // Streamed: the partition, the throughput dip, and the heal show
        // up live on the NDJSON feed (scenario annotations become
        // `event` records; switch/agent deltas trace the dip), while the
        // run itself advances in interval-sized legs that are
        // digest-identical to the single `run_for` below.
        Some(spec) => {
            sim.enable_metrics();
            let writer = firesim_manager::StreamWriter::open(spec)
                .unwrap_or_else(|e| die(&format!("--stream-out {spec}: {e}")));
            let meta = firesim_manager::StreamMeta {
                run_id: None,
                spec: "memcached_cluster --partition-heal".to_owned(),
                workers: 1,
                transport: None,
            };
            let streamed = firesim_manager::run_streamed(
                &mut sim,
                writer,
                &meta,
                Cycle::new(horizon),
                interval,
                false,
            )
            .expect("runs");
            chat!(
                "streamed {} interval record(s) to {spec}",
                streamed.intervals
            );
        }
        None => {
            sim.run_for(Cycle::new(horizon)).expect("runs");
        }
    }

    let tl = sim
        .fault_timeline()
        .unwrap_or_else(|| die("scenario watches no links (set a nonzero `interval`)"));
    let peak = tl
        .points
        .iter()
        .map(|p| p.delivered)
        .max()
        .unwrap_or(1)
        .max(1);
    chat!("frames on the cut links per {interval}-cycle bucket:");
    for p in &tl.points {
        let bar = "#".repeat((p.delivered * 40 / peak) as usize);
        chat!(
            "  [{:>11}] delivered={:<5} masked={:<5} {bar}",
            p.start,
            p.delivered,
            p.masked
        );
    }
    for (cycle, label) in &tl.events {
        chat!("  @{cycle}: {label}");
    }

    // Pre-fault buckets fully before the partition (skip the warm-up
    // bucket at 0); post-heal buckets fully after it.
    let avg = |points: Vec<u64>| points.iter().sum::<u64>() as f64 / points.len().max(1) as f64;
    let pre = avg(tl
        .points
        .iter()
        .filter(|p| p.start > 0 && p.start + interval <= from)
        .map(|p| p.delivered)
        .collect());
    let during = avg(tl
        .points
        .iter()
        .filter(|p| p.start >= from && p.start + interval <= until)
        .map(|p| p.delivered)
        .collect());
    let post = avg(tl
        .points
        .iter()
        .filter(|p| p.start >= until && p.start + interval <= horizon)
        .map(|p| p.delivered)
        .collect());
    let recovery = (post - pre).abs() / pre.max(1.0);
    chat!(
        "\npre-fault avg {pre:.0} frames/bucket, during partition {during:.0}, \
         post-heal {post:.0} ({:+.1}% vs pre-fault)",
        (post - pre) / pre.max(1.0) * 100.0
    );
    if during > pre * 0.5 {
        eprintln!("FAIL: no throughput dip during the partition window");
        std::process::exit(1);
    }
    if recovery > 0.05 {
        eprintln!("FAIL: post-heal throughput did not return to within 5% of pre-fault");
        std::process::exit(1);
    }
    chat!("recovered: post-heal throughput within 5% of pre-fault");
    std::process::exit(0);
}

fn main() {
    let mut scenario_path: Option<String> = None;
    let mut partition_heal = false;
    let mut stream_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--partition-heal" => partition_heal = true,
            "--scenario" => match args.next() {
                Some(path) => scenario_path = Some(path),
                None => die("--scenario needs a script path"),
            },
            "--stream-out" => match args.next() {
                Some(spec) => stream_out = Some(spec),
                None => die("--stream-out needs a sink spec: '-', a file path, \
                     tcp:HOST:PORT, or unix:PATH"),
            },
            other => die(&format!("unknown flag {other:?}")),
        }
    }
    if stream_out.as_deref() == Some("-") {
        CHAT_TO_STDERR.store(true, std::sync::atomic::Ordering::Relaxed);
    }
    if partition_heal || scenario_path.is_some() {
        run_partition_heal(scenario_path.as_deref(), stream_out.as_deref());
    }
    if stream_out.is_some() {
        die("--stream-out rides the chaos experiment; combine it with --partition-heal or --scenario");
    }

    println!("memcached on a 4-core node, 7 mutilate load generators, 2us network\n");
    println!(
        "{:>22} {:>12} {:>10} {:>10}",
        "configuration", "target QPS", "p50 (us)", "p95 (us)"
    );
    for qps in [150_000.0, 250_000.0, 350_000.0] {
        for (threads, pinned, label) in [
            (4, false, "4 threads"),
            (5, false, "5 threads"),
            (4, true, "4 threads pinned"),
        ] {
            let (p50, p95) = run_case(threads, pinned, qps);
            println!("{label:>22} {qps:>12.0} {p50:>10.1} {p95:>10.1}");
        }
        println!();
    }
    println!("expected shape (paper Fig 7): the 5-thread p95 exceeds the pinned");
    println!("4-thread p95 at every load while the medians stay together.");
}
