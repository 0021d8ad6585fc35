//! Event-queue DRAM refresh throughput: host cost of the lazily-
//! materialised refresh model (`firesim_uarch::Dram`) vs the
//! per-deadline-scan oracle (`firesim_reference::RefDram`).
//!
//! Two access patterns bracket the design space:
//!
//! * **sparse** — long idle gaps between requests (tens of tREFI), the
//!   shape `advance_to` sees at window boundaries on quiet blades. The
//!   reference walks every elapsed refresh deadline into every bank; the
//!   event model collapses them in closed form, O(1) per bank touch.
//! * **dense** — back-to-back requests where almost no deadline passes
//!   unobserved, so both models do essentially the same work (ratio ~1;
//!   this guards against the event model *regressing* the hot path).
//!
//! The two produce bit-identical latencies, stats, and snapshots
//! (see `tests/dram_equiv.rs`); this benchmark only measures host cost.
//!
//! Output is a JSON object on stdout (after the human-readable lines).
//! Flags (after `cargo bench -p firesim-bench --bench dram_latency -- `):
//!
//! * `--quick` — fewer ops and reps, for CI smoke runs;
//! * `--check <baseline.json>` — exit nonzero if the sparse
//!   event/reference speedup falls below 80% of the committed
//!   baseline's, or below the 2x absolute floor
//!   (`event_queue_wins_when_idle`). Both are same-run ratios, which
//!   survive host-machine variation; absolute ops/sec do not.

use std::time::Instant;

use firesim_reference::RefDram;
use firesim_uarch::{Dram, DramConfig};

/// Splitmix-style generator, seed-stable across platforms.
struct Rng {
    s: u64,
}

impl Rng {
    fn new(seed: u64) -> Self {
        Rng {
            s: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    fn next(&mut self) -> u64 {
        let mut z = self.s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.s = self.s.wrapping_add(1);
        z ^ (z >> 31)
    }
}

/// One request stream: `(now, addr)` pairs with the given inter-request
/// gap expressed in cycles.
fn stream(ops: usize, gap: u64, seed: u64) -> Vec<(u64, u64)> {
    let mut rng = Rng::new(seed);
    let mut now = 0u64;
    (0..ops)
        .map(|_| {
            now += 1 + rng.next() % (2 * gap).max(2);
            (now, rng.next() % (1 << 24))
        })
        .collect()
}

/// Runs one full stream through `access`, returning requests/sec.
fn run_model(mut access: impl FnMut(u64, u64) -> u64, ops: &[(u64, u64)]) -> f64 {
    let t0 = Instant::now();
    let mut acc = 0u64;
    for &(now, addr) in ops {
        acc = acc.wrapping_add(access(now, addr));
    }
    std::hint::black_box(acc);
    ops.len() as f64 / t0.elapsed().as_secs_f64()
}

/// Interleaved best-of-`reps` requests/sec for the oracle vs the event
/// model on one stream, each run on a fresh instance. Alternating bursts
/// mean host drift hits both equally.
fn rates(ops: &[(u64, u64)], reps: usize) -> (f64, f64) {
    let cfg = DramConfig::default();
    let reference = || {
        let mut d = RefDram::new(cfg);
        run_model(|now, addr| d.access(now, addr), ops)
    };
    let event = || {
        let mut d = Dram::new(cfg);
        run_model(|now, addr| d.access(now, addr), ops)
    };
    reference(); // warm-up
    event();
    let mut best = [0f64; 2];
    for _ in 0..reps {
        best[0] = best[0].max(reference());
        best[1] = best[1].max(event());
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

    let (ops, reps) = if quick { (20_000, 3) } else { (200_000, 9) };
    let t_refi = DramConfig::default().t_refi;

    // Sparse: mean gap of 64 tREFI — the reference scans ~64 deadlines
    // times 8 banks per request; the event model does one closed form.
    let sparse = stream(ops, 64 * t_refi, 11);
    let (sparse_ref, sparse_evt) = rates(&sparse, reps);
    let sparse_speedup = sparse_evt / sparse_ref;

    // Dense: mean gap of 32 cycles — refresh deadlines are rare relative
    // to requests, so the two models run the same code shape.
    let dense = stream(ops, 32, 12);
    let (dense_ref, dense_evt) = rates(&dense, reps);
    let dense_speedup = dense_evt / dense_ref;

    println!(
        "sparse: reference {:.2} Mreq/s, event {:.2} Mreq/s, speedup {:.2}x",
        sparse_ref / 1e6,
        sparse_evt / 1e6,
        sparse_speedup
    );
    println!(
        "dense:  reference {:.2} Mreq/s, event {:.2} Mreq/s, speedup {:.2}x",
        dense_ref / 1e6,
        dense_evt / 1e6,
        dense_speedup
    );

    let mut obj = std::collections::BTreeMap::new();
    for (k, v) in [
        ("sparse_reference_reqs_per_sec", sparse_ref),
        ("sparse_event_reqs_per_sec", sparse_evt),
        ("sparse_speedup", sparse_speedup),
        ("dense_reference_reqs_per_sec", dense_ref),
        ("dense_event_reqs_per_sec", dense_evt),
        ("dense_speedup", dense_speedup),
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
            .get("sparse_speedup")
            .and_then(serde_json::Value::as_f64)
            .expect("baseline has sparse_speedup");
        let floor = base_speedup * 0.8;
        let mut failed = false;
        if sparse_speedup < floor {
            eprintln!(
                "FAIL: event/reference sparse speedup {sparse_speedup:.2}x is below \
                 80% of the committed baseline {base_speedup:.2}x (floor {floor:.2}x)"
            );
            failed = true;
        }
        // event_queue_wins_when_idle: skipping idle banks must be worth
        // at least 2x on the sparse shape, on any host.
        if sparse_speedup < 2.0 {
            eprintln!(
                "FAIL: event_queue_wins_when_idle — sparse speedup is only \
                 {sparse_speedup:.2}x; expected at least 2x"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "check ok: sparse speedup {sparse_speedup:.2}x >= floor {floor:.2}x, \
             dense speedup {dense_speedup:.2}x"
        );
    }
}
