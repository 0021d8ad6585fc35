//! Blade compute fast-path throughput: retired instructions per host
//! second, with the decoded-instruction cache on and off.
//!
//! Two layers are measured, both with the interleaved min-of-N sampling
//! used by the engine-throughput experiments (alternating bursts so host
//! drift hits every variant equally; minimum time per variant, because
//! noise only ever slows a sample down):
//!
//! * **ISA layer** — the bare functional core stepping an
//!   instruction-dense loop through `Cpu::step` vs `Cpu::step_cached`.
//!   This isolates the fetch/decode cost the cache removes and is the
//!   headline speedup number.
//! * **Blade layer** — a full single-core RTL blade advancing token
//!   windows with `TimingConfig::decode_cache` on vs off. This shows how
//!   much of a whole-blade host cycle the fast path buys back once the
//!   uarch timing models and token plumbing are in the loop.
//!
//! Output is a JSON object on stdout (after the human-readable lines).
//! Flags (after `cargo bench -p firesim-bench --bench blade_mips -- `):
//!
//! * `--quick` — smaller bursts and fewer reps, for CI smoke runs;
//! * `--check <baseline.json>` — exit nonzero if the measured ISA-layer
//!   speedup falls below 80% of the committed baseline's. The guard is on
//!   the same-run cached/uncached *ratio*, not absolute MIPS: absolute
//!   rates vary by multiples across host machines, while the ratio is a
//!   property of the code being guarded.

use std::time::Instant;

use firesim_blade::{programs, BladeConfig, RtlBlade};
use firesim_core::{AgentCtx, Cycle, SimAgent, TokenWindow};
use firesim_net::MacAddr;
use firesim_riscv::exec::Cpu;
use firesim_riscv::mem::Memory;
use firesim_riscv::DecodeCache;

const BASE: u64 = 0x8000_0000;
const MEM_BYTES: usize = 1 << 16;
const WINDOW: u32 = 6_400;

/// A functional core mid-workload, steppable with or without the cache.
struct IsaRunner {
    cpu: Cpu,
    mem: Memory,
    cache: Option<DecodeCache>,
}

impl IsaRunner {
    fn new(cached: bool) -> Self {
        let mut mem = Memory::new(BASE, MEM_BYTES);
        mem.write_bytes(BASE, &programs::compute_image(BASE))
            .unwrap();
        IsaRunner {
            cpu: Cpu::new(0, BASE),
            mem,
            cache: cached.then(DecodeCache::new),
        }
    }

    fn run(&mut self, steps: u64) {
        match &mut self.cache {
            // The fast path dispatches the whole burst as superblocks.
            Some(cache) => {
                let done = self.cpu.run_cached(&mut self.mem, cache, steps);
                assert_eq!(done.retired, steps, "workload must not trap or park");
            }
            None => {
                for _ in 0..steps {
                    self.cpu.step(&mut self.mem).unwrap();
                }
            }
        }
    }
}

/// Interleaved min-of-`reps`: retired instructions per host second for the
/// plain interpreter and the cached fast path.
fn isa_rates(steps: u64, reps: usize) -> (f64, f64) {
    let mut interp = IsaRunner::new(false);
    let mut cached = IsaRunner::new(true);
    interp.run(steps); // warm-up
    cached.run(steps);
    let mut best = [f64::MAX; 2];
    for _ in 0..reps {
        for (b, r) in best.iter_mut().zip([&mut interp, &mut cached]) {
            let t0 = Instant::now();
            r.run(steps);
            *b = b.min(t0.elapsed().as_secs_f64());
        }
    }
    (steps as f64 / best[0], steps as f64 / best[1])
}

/// A full RTL blade running the ISA workload as its program image,
/// advanced window-by-window.
struct BladeRunner {
    blade: RtlBlade,
    now: u64,
}

impl BladeRunner {
    fn new(decode_cache: bool) -> Self {
        let mut config = BladeConfig::single_core().with_dram_bytes(1 << 20);
        config.timing.decode_cache = decode_cache;
        let mut blade = RtlBlade::new("b", MacAddr::from_node_index(0), config);
        // The same instruction-dense infinite loop as the ISA layer,
        // relocated to the blade's reset vector (`boot_poweroff`'s work
        // loop walks off the end of DRAM on long runs).
        programs::compute_loop().install(&mut blade);
        BladeRunner { blade, now: 0 }
    }

    fn retired(&self) -> u64 {
        let mut counters = Vec::new();
        self.blade.app_counters(&mut counters);
        counters
            .iter()
            .find(|(k, _)| k == "retired")
            .map_or(0, |(_, v)| *v)
    }

    /// Advances `windows` token windows, returning retired instructions
    /// per host second over the burst.
    fn run(&mut self, windows: u64) -> f64 {
        let before = self.retired();
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
        let elapsed = t0.elapsed().as_secs_f64();
        (self.retired() - before) as f64 / elapsed
    }
}

/// Interleaved max-of-`reps` blade-level retired-instruction rates with
/// the decode cache off and on. (Max rather than min-time here because the
/// work per burst is fixed in *cycles*, not instructions; the best rate
/// plays the same role as the best time.)
fn blade_rates(windows: u64, reps: usize) -> (f64, f64) {
    let mut off = BladeRunner::new(false);
    let mut on = BladeRunner::new(true);
    off.run(windows); // warm-up
    on.run(windows);
    let mut best = [0f64; 2];
    for _ in 0..reps {
        for (b, r) in best.iter_mut().zip([&mut off, &mut on]) {
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

    let (steps, windows, reps) = if quick {
        (1_000_000, 32, 3)
    } else {
        (8_000_000, 256, 9)
    };

    let (interp, cached) = isa_rates(steps, reps);
    let speedup = cached / interp;
    let (blade_off, blade_on) = blade_rates(windows, reps);
    let blade_speedup = blade_on / blade_off;

    println!(
        "isa layer:   interp {:.1} MIPS, cached {:.1} MIPS, speedup {:.2}x",
        interp / 1e6,
        cached / 1e6,
        speedup
    );
    println!(
        "blade layer: cache-off {:.1} MIPS, cache-on {:.1} MIPS, speedup {:.2}x",
        blade_off / 1e6,
        blade_on / 1e6,
        blade_speedup
    );
    let mut obj = std::collections::BTreeMap::new();
    for (k, v) in [
        ("interp_minstret_per_sec", interp),
        ("cached_minstret_per_sec", cached),
        ("speedup", speedup),
        ("blade_off_minstret_per_sec", blade_off),
        ("blade_on_minstret_per_sec", blade_on),
        ("blade_speedup", blade_speedup),
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
            .get("speedup")
            .and_then(serde_json::Value::as_f64)
            .expect("baseline has speedup");
        let floor = base_speedup * 0.8;
        if speedup < floor {
            eprintln!(
                "FAIL: cached retired-instr/sec speedup {speedup:.2}x is below \
                 80% of the committed baseline {base_speedup:.2}x (floor {floor:.2}x)"
            );
            std::process::exit(1);
        }
        println!(
            "check ok: speedup {speedup:.2}x >= floor {floor:.2}x (baseline {base_speedup:.2}x)"
        );
    }
}
