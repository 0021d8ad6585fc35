//! `repro` — regenerates every figure and table from the FireSim paper's
//! evaluation and records the results as JSON.
//!
//! ```text
//! repro <experiment> [...]    where experiment is one of:
//!   fig5 iperf baremetal fig6 fig7 fig8 fig9 plan table3 fig11 util all
//! ```
//!
//! Set `FIRESIM_FULL=1` for paper-scale runs (1024 nodes, full sweeps);
//! the default scale finishes in minutes. Results are appended to
//! `results/results.json`.

use firesim_bench::experiments as exp;
use firesim_bench::full_scale;
use firesim_manager::{ExperimentRecord, ResultStore, TransportChoice};

/// Every experiment, in the order `repro all` runs them.
const EXPERIMENTS: [(&str, fn(&mut ResultStore)); 11] = [
    ("fig5", fig5),
    ("iperf", iperf),
    ("baremetal", baremetal),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("plan", plan),
    ("table3", table3),
    ("fig11", fig11),
    ("util", util),
];

fn main() {
    // `fig8`'s distributed rows re-exec this binary as fleet workers;
    // hand them their shard before the command line is parsed.
    if firesim_manager::maybe_worker(exp::build_fig8_cluster) {
        return;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        let names = EXPERIMENTS.map(|(name, _)| name).join("|");
        eprintln!("usage: repro <{names}|all> ...");
        std::process::exit(2);
    }
    let mut store = load_store();
    for arg in &args {
        let selected: Vec<_> = EXPERIMENTS
            .iter()
            .filter(|(name, _)| arg == "all" || arg == name)
            .collect();
        if selected.is_empty() {
            eprintln!("unknown experiment {arg:?}");
            std::process::exit(2);
        }
        for (_, run) in selected {
            run(&mut store);
        }
        save_store(&store);
    }
}

fn load_store() -> ResultStore {
    let _ = std::fs::create_dir_all("results");
    ResultStore::load("results/results.json").unwrap_or_default()
}

fn save_store(store: &ResultStore) {
    if let Err(e) = store.save("results/results.json") {
        eprintln!("warning: could not save results: {e}");
    }
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

fn fig5(store: &mut ResultStore) {
    header("Fig 5: ping RTT vs configured link latency (8-node cluster, 1 ToR)");
    let (lats, pings): (Vec<f64>, usize) = if full_scale() {
        (vec![0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 7.5, 10.0], 50)
    } else {
        (vec![0.5, 1.0, 2.0, 4.0], 10)
    };
    let rows = exp::fig5_ping(&lats, pings);
    let mut rec = ExperimentRecord::new("fig5");
    rec.param("pings", pings as u64);
    println!(
        "{:>12} {:>12} {:>12} {:>10}",
        "latency_us", "ideal_us", "measured_us", "offset_us"
    );
    for r in &rows {
        println!(
            "{:>12.1} {:>12.2} {:>12.2} {:>10.2}",
            r.link_latency_us,
            r.ideal_rtt_us,
            r.measured_rtt_us,
            r.offset_us()
        );
        rec.push_row([
            ("latency_us", r.link_latency_us),
            ("ideal_us", r.ideal_rtt_us),
            ("measured_us", r.measured_rtt_us),
        ]);
    }
    println!("(paper: measured parallels ideal with a constant ~34 us Linux-stack offset;");
    println!(" our bare-metal stack shows the same parallel shape with a smaller offset)");
    store.put(rec);
}

fn iperf(store: &mut ResultStore) {
    header("SecIV-B: iperf3-style single-stream bandwidth (software-stack bound)");
    let bytes = if full_scale() { 8 << 20 } else { 1 << 20 };
    let r = exp::iperf(bytes);
    println!(
        "goodput: {:.2} Gbit/s over {} bytes (paper: 1.4 Gbit/s)",
        r.gbps, r.bytes
    );
    let mut rec = ExperimentRecord::new("iperf");
    rec.push_row([("gbps", r.gbps)]);
    store.put(rec);
}

fn baremetal(store: &mut ResultStore) {
    header("SecIV-C: bare-metal node-to-node bandwidth (NIC-limited)");
    let frames = if full_scale() { 2_000 } else { 300 };
    let r = exp::baremetal_bandwidth(frames, 1486);
    println!(
        "achieved: {:.1} Gbit/s (paper: 100 Gbit/s of a 200 Gbit/s link; conclusion:",
        r.gbps
    );
    println!(" the software stack, not the NIC, limits iperf — reproduced)");
    let mut rec = ExperimentRecord::new("baremetal");
    rec.push_row([("gbps", r.gbps)]);
    store.put(rec);
}

fn fig6(store: &mut ResultStore) {
    header("Fig 6: multi-node bandwidth saturation at the root switch");
    let (stagger, tail) = if full_scale() { (100, 400) } else { (40, 150) };
    let series = exp::fig6_saturation(&[1.0, 10.0, 40.0, 100.0], stagger, tail);
    let mut rec = ExperimentRecord::new("fig6");
    for s in &series {
        println!(
            "{:>5.0} Gbit/s senders: steady aggregate {:>6.1} Gbit/s (peak bucket {:>6.1}, {} samples)",
            s.sender_gbps,
            s.steady_gbps,
            s.peak_gbps,
            s.points.len()
        );
        rec.push_row([
            ("sender_gbps", s.sender_gbps),
            ("steady_gbps", s.steady_gbps),
            ("peak_gbps", s.peak_gbps),
        ]);
    }
    println!("(paper: 1/10 GbE senders max at 8/80 Gbit/s; 40/100 GbE saturate the");
    println!(" 200 Gbit/s uplink after 5 and 2 senders respectively)");
    store.put(rec);
}

fn fig7(store: &mut ResultStore) {
    header("Fig 7: memcached thread imbalance (1 server x 4 cores, 7 mutilate nodes)");
    let (qps, reqs): (Vec<f64>, u64) = if full_scale() {
        (
            vec![
                50_000.0, 150_000.0, 250_000.0, 350_000.0, 450_000.0, 550_000.0,
            ],
            2_000,
        )
    } else {
        (vec![100_000.0, 250_000.0, 350_000.0], 400)
    };
    let rows = exp::fig7_memcached(&qps, reqs);
    let mut rec = ExperimentRecord::new("fig7");
    println!(
        "{:>18} {:>10} {:>10} {:>9} {:>9}",
        "case", "target_qps", "achieved", "p50_us", "p95_us"
    );
    for r in &rows {
        println!(
            "{:>18} {:>10.0} {:>10.0} {:>9.1} {:>9.1}",
            r.case, r.target_qps, r.achieved_qps, r.p50_us, r.p95_us
        );
        rec.push_row([
            ("case", serde_json::json!(r.case)),
            ("target_qps", serde_json::json!(r.target_qps)),
            ("achieved_qps", serde_json::json!(r.achieved_qps)),
            ("p50_us", serde_json::json!(r.p50_us)),
            ("p95_us", serde_json::json!(r.p95_us)),
        ]);
    }
    println!("(paper: the 5th thread inflates p95 while p50 is untouched; pinning");
    println!(" smooths the mid-load p95 of the 4-thread case)");
    store.put(rec);
}

fn fig8(store: &mut ResultStore) {
    header("Fig 8: simulation rate vs simulated cluster size");
    let nodes: Vec<usize> = if full_scale() {
        vec![4, 16, 64, 256, 1024]
    } else {
        vec![4, 16, 64]
    };
    let cycles = if full_scale() { 128_000 } else { 64_000 };
    let rows = exp::fig8_scale(&nodes, cycles);
    let mut rec = ExperimentRecord::new("fig8");
    println!("{:>8} {:>12} {:>14}", "nodes", "mapping", "sim_rate_MHz");
    for r in &rows {
        println!(
            "{:>8} {:>12} {:>14.3}",
            r.nodes,
            if r.supernode { "supernode" } else { "standard" },
            r.sim_rate_mhz
        );
        rec.push_row([
            ("nodes", serde_json::json!(r.nodes)),
            ("supernode", serde_json::json!(r.supernode)),
            ("sim_rate_mhz", serde_json::json!(r.sim_rate_mhz)),
        ]);
    }
    println!("(paper: rate decreases with scale; supernode packing sustains higher");
    println!(" rates at large node counts)");
    store.put(rec);

    // The same boot cluster partitioned across worker processes over
    // shared-memory token transports. A software fleet that moves real
    // token batches must land below the rate the host transport alone
    // would impose on a hardware deployment, and partitioning must not
    // change any agent's final state.
    let nodes = 8;
    let dist = exp::fig8_scale_distributed(nodes, &[1, 2, 4], TransportChoice::Shm, cycles)
        .expect("distributed fleet runs");
    let mut rec = ExperimentRecord::new("fig8_distributed");
    rec.param("nodes", nodes as u64);
    rec.param("transport", TransportChoice::Shm.as_str());
    println!(
        "\n{:>8} {:>8} {:>14} {:>14} {:>18}",
        "nodes", "workers", "sim_rate_MHz", "bound_MHz", "digest"
    );
    for r in &dist {
        assert!(
            r.sim_rate_mhz < r.bound_mhz,
            "software fleet ({:.3} MHz) cannot beat the transport bound ({:.3} MHz)",
            r.sim_rate_mhz,
            r.bound_mhz
        );
        let digest = format!("{:016x}", r.combined_digest);
        println!(
            "{:>8} {:>8} {:>14.3} {:>14.3} {:>18}",
            r.nodes, r.workers, r.sim_rate_mhz, r.bound_mhz, digest
        );
        rec.push_row([
            ("workers", serde_json::json!(r.workers)),
            ("sim_rate_mhz", serde_json::json!(r.sim_rate_mhz)),
            ("bound_mhz", serde_json::json!(r.bound_mhz)),
            ("digest", serde_json::json!(digest)),
        ]);
    }
    assert!(
        dist.windows(2)
            .all(|w| w[0].combined_digest == w[1].combined_digest),
        "partitioning must not change results: {dist:?}"
    );
    println!("(every worker count ends in the same digest and stays below the");
    println!(" shared-memory transport bound)");
    store.put(rec);
}

fn fig9(store: &mut ResultStore) {
    header("Fig 9: simulation rate vs target link latency (token batch size)");
    // The paper sweeps sub-microsecond to microsecond latencies; batching
    // dominates at the small end.
    let lats: Vec<f64> = if full_scale() {
        vec![0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 4.0]
    } else {
        vec![0.05, 0.1, 0.5, 2.0]
    };
    let cycles = if full_scale() { 1_024_000 } else { 256_000 };
    let rows = exp::fig9_latency(&lats, cycles);
    let mut rec = ExperimentRecord::new("fig9");
    println!(
        "{:>12} {:>16} {:>16}",
        "latency_us", "measured_MHz", "modeled_EC2_MHz"
    );
    for r in &rows {
        println!(
            "{:>12.2} {:>16.3} {:>16.3}",
            r.link_latency_us, r.sim_rate_mhz, r.modeled_ec2_mhz
        );
        rec.push_row([
            ("latency_us", serde_json::json!(r.link_latency_us)),
            ("sim_rate_mhz", serde_json::json!(r.sim_rate_mhz)),
            ("modeled_ec2_mhz", serde_json::json!(r.modeled_ec2_mhz)),
        ]);
    }
    println!("(paper: performance improves as the batch size — the link latency — grows;");
    println!(" the modeled-EC2 column reproduces that mechanism, while our in-process");
    println!(" transport is fast enough that the measured rate stays nearly flat)");
    store.put(rec);
}

fn plan(store: &mut ResultStore) {
    header("Fig 10 / SecV-C: the 1024-node datacenter and its cost");
    let plan = exp::datacenter_plan();
    println!("{plan}");
    println!("(paper: 32 f1.16xlarge + 5 m4.16xlarge; ~$100/hr spot, ~$440/hr");
    println!(" on-demand, ~$12.8M of FPGAs)");
    let mut rec = ExperimentRecord::new("plan");
    rec.push_row([
        ("f1_16xlarge", serde_json::json!(plan.f1_16xlarge)),
        ("m4_16xlarge", serde_json::json!(plan.m4_16xlarge)),
        ("spot_per_hour", serde_json::json!(plan.spot_per_hour)),
        (
            "ondemand_per_hour",
            serde_json::json!(plan.ondemand_per_hour),
        ),
        ("fpga_value", serde_json::json!(plan.fpga_value)),
    ]);
    store.put(rec);
}

fn table3(store: &mut ResultStore) {
    header("Table III: memcached across the datacenter (half servers, half loadgens)");
    let (scale, reqs) = if full_scale() { (1, 1_000) } else { (8, 150) };
    let rows = exp::table3_memcached(scale, reqs);
    let mut rec = ExperimentRecord::new("table3");
    rec.param("scale_divisor", scale as u64);
    println!(
        "{:>20} {:>10} {:>10} {:>16}",
        "config", "p50_us", "p95_us", "aggregate_QPS"
    );
    for r in &rows {
        println!(
            "{:>20} {:>10.2} {:>10.2} {:>16.1}",
            r.config, r.p50_us, r.p95_us, r.aggregate_qps
        );
        rec.push_row([
            ("config", serde_json::json!(r.config)),
            ("p50_us", serde_json::json!(r.p50_us)),
            ("p95_us", serde_json::json!(r.p95_us)),
            ("aggregate_qps", serde_json::json!(r.aggregate_qps)),
        ]);
    }
    println!("(paper: p50 rises ~8 us per extra switch level — 4 extra 2 us link");
    println!(" crossings — while p95 is noise-dominated and QPS dips slightly)");
    store.put(rec);
}

fn fig11(store: &mut ResultStore) {
    header("Fig 11: page-fault accelerator vs software paging");
    let (pages, accesses, fracs): (u64, u64, Vec<f64>) = if full_scale() {
        (16_384, 120_000, vec![0.0625, 0.125, 0.25, 0.5, 0.75])
    } else {
        (1_024, 8_000, vec![0.125, 0.25, 0.5])
    };
    let rows = exp::fig11_pfa(pages, accesses, &fracs);
    let mut rec = ExperimentRecord::new("fig11");
    rec.param("working_set_pages", pages);
    println!(
        "{:>8} {:>9} {:>8} {:>12} {:>9} {:>14}",
        "workload", "mode", "local", "norm_runtime", "faults", "metadata_cyc"
    );
    for r in &rows {
        println!(
            "{:>8} {:>9} {:>8.3} {:>12.3} {:>9} {:>14}",
            r.workload, r.mode, r.local_fraction, r.normalized_runtime, r.faults, r.metadata_cycles
        );
        rec.push_row([
            ("workload", serde_json::json!(r.workload)),
            ("mode", serde_json::json!(r.mode)),
            ("local_fraction", serde_json::json!(r.local_fraction)),
            (
                "normalized_runtime",
                serde_json::json!(r.normalized_runtime),
            ),
            ("faults", serde_json::json!(r.faults)),
            ("metadata_cycles", serde_json::json!(r.metadata_cycles)),
        ]);
    }
    println!("(paper: PFA up to 1.4x faster end-to-end, 2.5x less metadata time;");
    println!(" genome suffers at small local memory, qsort barely notices)");
    store.put(rec);
}

fn util(store: &mut ResultStore) {
    header("SecIII-A5: FPGA utilisation, standard vs supernode");
    let rows = exp::utilization();
    let mut rec = ExperimentRecord::new("utilization");
    for (blades, blade_pct, total_pct) in &rows {
        println!(
            "{} blade(s)/FPGA: blade RTL {:.1}% LUTs, total {:.1}% LUTs",
            blades, blade_pct, total_pct
        );
        rec.push_row([
            ("blades", serde_json::json!(blades)),
            ("blade_luts_pct", serde_json::json!(blade_pct)),
            ("total_luts_pct", serde_json::json!(total_pct)),
        ]);
    }
    println!("(paper: 14.4%/32.6% standard; 57.7%/76% supernode)");
    store.put(rec);
}
