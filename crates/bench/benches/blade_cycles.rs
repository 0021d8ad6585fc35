//! Event-driven timing layer throughput: simulated cycles per host
//! second, batched scheduling vs the per-cycle reference loop.
//!
//! Two workloads bracket the design space:
//!
//! * **compute** — the instruction-dense `blade_mips` loop, where the
//!   batched layer's win comes from hoisting per-cycle interrupt wiring
//!   and device ticks out of the issue loop (Mode B spans).
//! * **parked** — every core in WFI with interrupts masked, where the
//!   batched layer skips whole quiet windows in O(1) (Mode A spans). The
//!   reference loop still pays per-cycle wiring and `clint.advance(1)`.
//!
//! Both timing modes produce bit-identical cycle counts and digests (see
//! `tests/timing_equiv.rs` and the distributed `reference-timing` mode);
//! this benchmark only measures host throughput.
//!
//! Output is a JSON object on stdout (after the human-readable lines).
//! Flags (after `cargo bench -p firesim-bench --bench blade_cycles -- `):
//!
//! * `--quick` — smaller bursts and fewer reps, for CI smoke runs;
//! * `--check <baseline.json>` — exit nonzero if the measured compute
//!   batched/reference speedup falls below 80% of the committed
//!   baseline's, or if a fully parked blade is not at least an order of
//!   magnitude cheaper per cycle than a computing one
//!   (`parked_blade_is_cheap`). Both guards are same-run *ratios*, which
//!   survive host-machine variation; absolute cycles/sec do not.

use std::time::Instant;

use firesim_blade::{programs, BladeConfig, RtlBlade};
use firesim_core::{AgentCtx, Cycle, SimAgent, TokenWindow};
use firesim_net::MacAddr;

const WINDOW: u32 = 6_400;

/// Which workload a runner boots.
#[derive(Clone, Copy)]
enum Workload {
    Compute,
    Parked,
}

/// A single-core RTL blade advancing token windows under one timing mode.
struct Runner {
    blade: RtlBlade,
    now: u64,
}

impl Runner {
    fn new(workload: Workload, reference: bool) -> Self {
        let mut config = BladeConfig::single_core().with_dram_bytes(1 << 20);
        config.timing.reference_timing = reference;
        let mut blade = RtlBlade::new("b", MacAddr::from_node_index(0), config);
        let program = match workload {
            Workload::Compute => programs::compute_loop(),
            Workload::Parked => programs::park(),
        };
        program.install(&mut blade);
        blade.enable_host_profiling();
        Runner { blade, now: 0 }
    }

    /// Advances `windows` token windows, returning simulated cycles per
    /// host second over the burst.
    fn run(&mut self, windows: u64) -> f64 {
        let t0 = Instant::now();
        for _ in 0..windows {
            let mut ctx = AgentCtx::standalone(
                Cycle::new(self.now),
                WINDOW,
                vec![TokenWindow::new(WINDOW)],
                1,
            );
            self.blade.advance(&mut ctx);
            self.now += u64::from(WINDOW);
        }
        windows as f64 * f64::from(WINDOW) / t0.elapsed().as_secs_f64()
    }
}

/// Interleaved max-of-`reps` cycles/sec for reference vs batched timing
/// on one workload. Alternating bursts mean host drift hits both modes
/// equally; the best rate per mode stands in for the least-noise sample.
fn rates(workload: Workload, windows: u64, reps: usize) -> (f64, f64) {
    let mut reference = Runner::new(workload, true);
    let mut batched = Runner::new(workload, false);
    reference.run(windows); // warm-up
    batched.run(windows);
    let mut best = [0f64; 2];
    for _ in 0..reps {
        for (b, r) in best.iter_mut().zip([&mut reference, &mut batched]) {
            *b = b.max(r.run(windows));
        }
    }
    (best[0], best[1])
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let (windows, parked_windows, reps) = if quick { (32, 256, 3) } else { (256, 4096, 9) };

    let (comp_ref, comp_bat) = rates(Workload::Compute, windows, reps);
    let compute_speedup = comp_bat / comp_ref;
    // A parked blade simulates cycles orders of magnitude faster, so it
    // gets proportionally more windows per burst to keep timer noise down.
    let (park_ref, park_bat) = rates(Workload::Parked, parked_windows, reps);
    let parked_speedup = park_bat / park_ref;
    // `parked_blade_is_cheap`: how many times cheaper per simulated
    // cycle a fully parked blade is than a computing one, batched mode.
    // Mode A skips make this large; the reference loop keeps it near 1.
    let parked_cheapness = park_bat / comp_bat;

    println!(
        "compute: reference {:.2} Mcyc/s, batched {:.2} Mcyc/s, speedup {:.2}x",
        comp_ref / 1e6,
        comp_bat / 1e6,
        compute_speedup
    );
    println!(
        "parked:  reference {:.2} Mcyc/s, batched {:.2} Mcyc/s, speedup {:.2}x",
        park_ref / 1e6,
        park_bat / 1e6,
        parked_speedup
    );
    println!("parked blade is {parked_cheapness:.1}x cheaper per cycle than compute (batched)");

    let mut obj = std::collections::BTreeMap::new();
    for (k, v) in [
        ("compute_reference_cycles_per_sec", comp_ref),
        ("compute_batched_cycles_per_sec", comp_bat),
        ("compute_speedup", compute_speedup),
        ("parked_reference_cycles_per_sec", park_ref),
        ("parked_batched_cycles_per_sec", park_bat),
        ("parked_speedup", parked_speedup),
        ("parked_cheapness", parked_cheapness),
    ] {
        obj.insert(k.to_owned(), serde_json::Value::from(v));
    }
    obj.insert("quick".to_owned(), serde_json::Value::from(quick));
    println!("{}", serde_json::Value::Object(obj).to_string_compact());

    if let Some(path) = check {
        // `cargo bench` sets the package dir as cwd; accept repo-root-
        // relative baseline paths too.
        let mut path = std::path::PathBuf::from(path);
        if !path.exists() {
            let from_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(&path);
            if from_root.exists() {
                path = from_root;
            }
        }
        let baseline =
            serde_json::from_str(&std::fs::read_to_string(&path).expect("baseline readable"))
                .expect("baseline parses");
        let base_speedup = baseline
            .get("compute_speedup")
            .and_then(serde_json::Value::as_f64)
            .expect("baseline has compute_speedup");
        let floor = base_speedup * 0.8;
        let mut failed = false;
        if compute_speedup < floor {
            eprintln!(
                "FAIL: batched/reference compute speedup {compute_speedup:.2}x is below \
                 80% of the committed baseline {base_speedup:.2}x (floor {floor:.2}x)"
            );
            failed = true;
        }
        // parked_blade_is_cheap: a fully parked blade must not pay the
        // per-cycle per-core wiring the computing blade pays.
        if parked_cheapness < 10.0 {
            eprintln!(
                "FAIL: parked_blade_is_cheap — a parked blade is only \
                 {parked_cheapness:.2}x cheaper per cycle than a computing \
                 blade; expected at least 10x"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "check ok: compute speedup {compute_speedup:.2}x >= floor {floor:.2}x, \
             parked blade {parked_cheapness:.1}x cheaper per cycle"
        );
    }
}
