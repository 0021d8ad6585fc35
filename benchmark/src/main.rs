//! The repo benchmark. See `README.md` for what is measured and why, and
//! `../BENCHMARK.json` for the contract.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one pass of one workload
//! benchmark [--seed N] [--seconds S] [--out DIR] [--bless]  every workload, both passes
//! benchmark compare A/results.json B/results.json           two result sets
//! ```

mod drives;
mod hostprobe;
mod measure;
mod programs;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde_json::Value;

use workloads::{Workload, DEFAULT_SEED};

/// The benchmark's own directory: `expected.json` lives here and every
/// file a run writes goes under its `out/`.
fn home() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    bless: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("benchmark: {msg}");
    eprintln!(
        "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--out DIR] [--bless]\n       benchmark compare A.json B.json"
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        out: home().join("out").join("last"),
        bless: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value();
                args.workload = Some(
                    workloads::by_name(name)
                        .unwrap_or_else(|| usage(&format!("unknown workload {name:?}"))),
                );
            }
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                args.seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"));
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    usage("--seconds must be positive");
                }
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--out" => args.out = PathBuf::from(value()),
            "--bless" => args.bless = true,
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    args
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    // Fleet workers are re-executions of this binary.
    firesim_manager::maybe_worker(workloads::build_fleet2);

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("setup-probe") => {
            let w = argv.get(1).and_then(|n| workloads::by_name(n));
            let seed = argv.get(2).and_then(|s| s.parse().ok());
            match (w, seed) {
                (Some(w), Some(seed)) => measure::setup_probe(w, seed)
                    .map(|()| true)
                    .map_err(|e| e.to_string()),
                _ => usage("setup-probe WORKLOAD SEED"),
            }
        }
        Some("compare") => match (argv.get(1), argv.get(2)) {
            (Some(a), Some(b)) => read_json(Path::new(a))
                .and_then(|a| Ok((a, read_json(Path::new(b))?)))
                .map(|(a, b)| report::compare(&a, &b)),
            _ => usage("compare A.json B.json"),
        },
        _ => {
            let args = parse_args(&argv);
            match args.workload {
                Some(w) => report::run_one(w, &args),
                None => report::run_all(&args),
            }
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(3)
        }
    }
}
