//! The 1024-node datacenter simulation (paper §V-C, Fig 10), now driven
//! through the fleet controller.
//!
//! Builds the catalogue's full tree
//! ([`firesim_manager::catalogue::datacenter`]: 32 nodes per ToR switch,
//! 8 ToRs per aggregation switch, 4 aggregation switches, one root), asks
//! [`firesim_manager::FleetSpec`] to place it on the paper's EC2 fleet
//! (32 f1.16xlarge + 5 m4.16xlarge), prints the placement and its
//! modeled $/simulated-hour, and runs a memcached burst across the root
//! switch.
//!
//! ```text
//! cargo run --release --example datacenter_1024
//! cargo run --release --example datacenter_1024 -- --placement-only
//! cargo run --release --example datacenter_1024 -- --placement-only --spot
//! cargo run --release --example datacenter_1024 -- \
//!     --workers 4 --cycles 200000 --qps 200000
//! cargo run --release --example datacenter_1024 -- \
//!     --repartition --cycles 200000 --qps 200000
//! ```
//!
//! `--workers N` folds the 37-host placement onto N worker *processes*
//! (host h -> worker h*N/37, preserving co-location) and executes it
//! with real token transports; the merged report carries the modeled
//! cost. `--repartition` is the CI smoke for checkpointed
//! repartitioning: a 4-way load-aware run checkpoints mid-way, the
//! merged `FSCKPT01` checkpoint restores into a 2-way deployment, and
//! both must land on the digests of an uninterrupted run.

use std::sync::Arc;

use parking_lot::Mutex;

use firesim_core::stats::Histogram;
use firesim_core::{Cycle, Frequency};
use firesim_manager::catalogue::{self, Dims, StatsSink};
use firesim_manager::{
    run_partitioned, FleetSpec, LoadProfile, PartitionConfig, PlacementPlan, SimConfig,
    TransportChoice,
};

/// Places the datacenter on the paper's EC2 fleet and prints the plan.
fn place(dims: Dims, spot: bool) -> PlacementPlan {
    let fleet = if spot {
        FleetSpec::ec2_spot()
    } else {
        FleetSpec::ec2_default()
    };
    let topo = catalogue::datacenter(dims, None).unwrap_or_else(|e| die(&e.to_string()));
    println!(
        "topology: {} servers + {} loadgens, {} switches",
        topo.server_count() / 2,
        topo.server_count() / 2,
        topo.switch_count(),
    );
    let placement = fleet
        .place(&topo, &LoadProfile::uniform(), Cycle::new(6_400))
        .unwrap_or_else(|e| die(&format!("placement failed: {e}")));
    print!("{}", placement.describe());
    placement
}

struct Options {
    dims: Dims,
    placement_only: bool,
    spot: bool,
    workers: Option<usize>,
    transport: TransportChoice,
    cycles: u64,
    repartition: bool,
}

const USAGE: &str = "\
usage: datacenter_1024 [OPTIONS]

  --placement-only         print the EC2 placement and cost model, then exit
  --spot                   price the fleet at spot instead of on-demand
  --workers N              execute the placement folded onto N worker
                           processes (N <= modeled host count)
  --transport shm|tcp|unix token transport between workers (default shm)
  --cycles N               target cycles for partitioned runs (default 200000)
  --repartition            smoke: 4-way run checkpoints mid-way, restores
                           into 2 workers, digests must match a straight run
  --aggs N                 aggregation switches (default 4)
  --tors N                 ToR switches per aggregation switch (default 8)
  --nodes N                nodes per ToR (default 32)
  --requests N             memcached requests per load generator (default 40)
  --qps Q                  offered load per generator (default 10000)
  --help                   print this help";

fn die(msg: &str) -> ! {
    eprintln!("datacenter_1024: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        dims: Dims::PAPER,
        placement_only: false,
        spot: false,
        workers: None,
        transport: TransportChoice::Shm,
        cycles: 200_000,
        repartition: false,
    };
    let mut args = std::env::args().skip(1);
    let num = |v: Option<String>, what: &str| -> u64 {
        let v = v.unwrap_or_default();
        v.parse()
            .ok()
            .filter(|&n| n > 0)
            .unwrap_or_else(|| die(&format!("{what} needs a positive number, got {v:?}")))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            "--placement-only" => opts.placement_only = true,
            "--spot" => opts.spot = true,
            "--repartition" => opts.repartition = true,
            "--workers" => opts.workers = Some(num(args.next(), "--workers") as usize),
            "--cycles" => opts.cycles = num(args.next(), "--cycles"),
            "--aggs" => opts.dims.aggs = num(args.next(), "--aggs") as usize,
            "--tors" => opts.dims.tors_per_agg = num(args.next(), "--tors") as usize,
            "--nodes" => opts.dims.nodes_per_tor = num(args.next(), "--nodes") as usize,
            "--requests" => opts.dims.requests = num(args.next(), "--requests"),
            "--qps" => opts.dims.qps = num(args.next(), "--qps") as f64,
            "--transport" => {
                let v = args.next().unwrap_or_default();
                opts.transport = TransportChoice::parse(&v).unwrap_or_else(|_| {
                    die(&format!("--transport must be shm|tcp|unix, got {v:?}"))
                });
            }
            other => die(&format!("unknown flag {other:?}")),
        }
    }
    opts
}

/// Executes the placement folded onto `workers` processes and prints the
/// merged report (with the modeled $/sim-hour) and digests.
fn run_placed(opts: &Options, placement: &PlacementPlan) -> ! {
    let workers = opts.workers.unwrap_or(4);
    let mut cfg = PartitionConfig::new(workers, Cycle::new(opts.cycles), opts.dims.spec());
    cfg.transport = opts.transport;
    cfg.plan = Some(
        placement
            .partition_for(workers)
            .unwrap_or_else(|e| die(&e.to_string())),
    );
    cfg.cost = Some(placement.cost().clone());
    println!(
        "\nexecuting the placement folded onto {workers} worker process(es) over {}",
        cfg.transport.as_str()
    );
    match run_partitioned(catalogue::build, &cfg) {
        Ok(run) => {
            println!(
                "simulated {} target cycles in {:?} across {} process(es), {} agents digested",
                run.cycles.as_u64(),
                run.wall,
                run.workers,
                run.digests.len()
            );
            println!("combined digest: {:016x}", run.combined_digest);
            print!("{}", run.report.human_summary());
            std::process::exit(0);
        }
        Err(report) => {
            eprintln!("{report}");
            std::process::exit(1);
        }
    }
}

/// The checkpointed-repartition smoke: straight run vs (4-way, checkpoint
/// mid-way) vs (restore into 2-way), all digest-identical.
fn run_repartition_smoke(opts: &Options, placement: &PlacementPlan) -> ! {
    let spec = opts.dims.spec();
    let ckpt =
        std::env::temp_dir().join(format!("firesim-dc-repart-{}.fsckpt", std::process::id()));
    let mid = opts.cycles / 2;

    println!("\nrepartition smoke: straight run, {} cycles", opts.cycles);
    let straight = run_partitioned(
        catalogue::build,
        &PartitionConfig::new(1, Cycle::new(opts.cycles), spec.clone()),
    )
    .unwrap_or_else(|report| {
        eprintln!("{report}");
        std::process::exit(1);
    });

    println!("repartition smoke: 4-way load-aware run, checkpoint at {mid}");
    let mut cfg = PartitionConfig::new(4, Cycle::new(opts.cycles), spec.clone());
    cfg.transport = opts.transport;
    cfg.plan = Some(
        placement
            .partition_for(4)
            .unwrap_or_else(|e| die(&e.to_string())),
    );
    cfg.checkpoint_at = Some(Cycle::new(mid));
    cfg.checkpoint_out = Some(ckpt.clone());
    let checkpointed = run_partitioned(catalogue::build, &cfg).unwrap_or_else(|report| {
        eprintln!("{report}");
        std::process::exit(1);
    });

    println!("repartition smoke: restoring the merged checkpoint into 2 workers");
    let mut cfg = PartitionConfig::new(2, Cycle::new(opts.cycles), spec);
    cfg.transport = opts.transport;
    cfg.plan = Some(
        placement
            .partition_for(2)
            .unwrap_or_else(|e| die(&e.to_string())),
    );
    cfg.restore_from = Some(ckpt.clone());
    let resumed = run_partitioned(catalogue::build, &cfg).unwrap_or_else(|report| {
        eprintln!("{report}");
        std::process::exit(1);
    });
    let _ = std::fs::remove_file(ckpt);

    for (tag, run) in [
        ("checkpointed 4-way", &checkpointed),
        ("resumed 2-way", &resumed),
    ] {
        if straight.digests != run.digests {
            eprintln!("FAIL: {tag} digests diverge from the straight run");
            std::process::exit(1);
        }
        println!(
            "{tag}: combined digest {:016x} matches straight run",
            run.combined_digest
        );
    }
    println!("repartition smoke passed");
    std::process::exit(0);
}

fn main() {
    // Worker processes re-exec this binary; hand them their shard first.
    if firesim_manager::maybe_worker(catalogue::build) {
        return;
    }
    let opts = parse_args();
    let clock = Frequency::GHZ_3_2;
    let dims = opts.dims;

    // "Place it like the paper": the fleet controller maps the tree onto
    // EC2 and models what a simulated hour costs.
    let placement = place(dims, opts.spot);
    if opts.placement_only {
        return;
    }
    if opts.repartition {
        run_repartition_smoke(&opts, &placement);
    }
    if opts.workers.is_some() {
        run_placed(&opts, &placement);
    }

    // Monolithic in-process run with supernode packing and host-side
    // latency collection — the original §V-C measurement.
    let stats: StatsSink = Arc::new(Mutex::new(Vec::new()));
    let topo = catalogue::datacenter(dims, Some(&stats)).expect("placed dims are valid");
    let threads = std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(2).max(1))
        .unwrap_or(4);
    let mut sim = topo
        .build(SimConfig {
            supernode: true,
            host_threads: threads,
            ..SimConfig::default()
        })
        .expect("valid topology");
    println!("\n{}", sim.plan());
    let engine = sim.engine_mut();
    let workers = engine.host_threads();
    println!(
        "engine: {} agents on {workers} worker(s); {} of {} links cross workers",
        engine.agent_count(),
        engine.cut_links(workers),
        engine.link_occupancies().len(),
    );

    let start = std::time::Instant::now();
    let summary = sim
        .run_until_done(Cycle::new(60_000_000_000))
        .expect("simulation runs");
    println!(
        "\nsimulated {:.2} ms of target time in {:.1?} ({:.3} MHz, {} host threads)",
        clock.seconds_from_cycles(summary.cycles) * 1e3,
        start.elapsed(),
        summary.sim_rate_mhz(),
        summary.host_threads
    );

    let mut merged = Histogram::new("latency");
    let mut received = 0u64;
    for h in stats.lock().iter() {
        let s = h.lock();
        merged.merge(&s.latency);
        received += s.received;
    }
    println!(
        "cross-datacenter memcached: {} responses, p50 {:.1} us, p95 {:.1} us",
        received,
        clock.micros_from_cycles(Cycle::new(merged.percentile(50.0).unwrap_or(0))),
        clock.micros_from_cycles(Cycle::new(merged.percentile(95.0).unwrap_or(0))),
    );
    let (_, root_stats) = &sim.switch_stats()[0];
    println!(
        "root switch: {} frames forwarded",
        root_stats.lock().frames_forwarded
    );
}
