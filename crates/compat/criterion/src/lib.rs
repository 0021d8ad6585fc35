//! Workspace-local stand-in for the subset of `criterion` used by the
//! firesim-rs bench targets.
//!
//! The build environment is offline, so the real crate cannot be fetched.
//! This harness keeps the same authoring API (`criterion_group!`,
//! `criterion_main!`, `benchmark_group`, `Bencher::iter`, `Throughput`)
//! and produces median-of-samples timing reports on stdout. Statistical
//! machinery (outlier detection, HTML reports) is intentionally absent.
//!
//! When invoked with `--test` (as `cargo test` does for
//! `harness = false` bench targets) each benchmark body runs exactly once
//! as a smoke test and no timing is reported.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How to scale the reported per-iteration time.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
}

/// Top-level benchmark driver.
#[derive(Debug)]
pub struct Criterion {
    test_mode: bool,
    filter: Option<String>,
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        let mut test_mode = false;
        let mut filter = None;
        // Accept and ignore the harness flags cargo passes; a bare
        // positional argument acts as a substring filter like criterion's.
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--test" => test_mode = true,
                "--bench" | "--nocapture" | "-q" | "--quiet" => {}
                s if s.starts_with("--") => {}
                s => filter = Some(s.to_string()),
            }
        }
        Criterion {
            test_mode,
            filter,
            sample_size: 30,
        }
    }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
            sample_size: None,
        }
    }
}

/// A named group of benchmarks sharing throughput/sample settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Declares how much work one iteration performs.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = t.into();
        self
    }

    /// Overrides the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 2, "sample_size must be at least 2");
        self.sample_size = Some(n);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function(
        &mut self,
        id: impl Into<String>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into());
        let samples = self.sample_size.unwrap_or(self.criterion.sample_size);
        run_benchmark(self.criterion, &full, self.throughput, samples, f);
        self
    }

    /// Ends the group (kept for API compatibility).
    pub fn finish(&mut self) {}
}

/// Passed to each benchmark body; call [`Bencher::iter`] with the
/// code under test.
#[derive(Debug)]
pub struct Bencher {
    mode: BenchMode,
    /// Total time and iteration count accumulated by `iter`.
    elapsed: Duration,
    iters: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum BenchMode {
    /// Run once, don't time (cargo test smoke run).
    Smoke,
    /// Time `target_iters` iterations.
    Measure { target_iters: u64 },
}

impl Bencher {
    /// Times `routine`, discarding its output via an implicit sink.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        match self.mode {
            BenchMode::Smoke => {
                black_box(routine());
                self.iters = 1;
            }
            BenchMode::Measure { target_iters } => {
                let start = Instant::now();
                for _ in 0..target_iters {
                    black_box(routine());
                }
                self.elapsed = start.elapsed();
                self.iters = target_iters;
            }
        }
    }
}

fn run_benchmark(
    criterion: &Criterion,
    id: &str,
    throughput: Option<Throughput>,
    samples: usize,
    mut f: impl FnMut(&mut Bencher),
) {
    if let Some(filter) = &criterion.filter {
        if !id.contains(filter.as_str()) {
            return;
        }
    }
    if criterion.test_mode {
        let mut b = Bencher {
            mode: BenchMode::Smoke,
            elapsed: Duration::ZERO,
            iters: 0,
        };
        f(&mut b);
        println!("test {id} ... ok");
        return;
    }

    // Calibrate: grow the iteration count until one sample takes a
    // measurable slice of time (~20ms) or the count saturates.
    let mut target_iters = 1u64;
    loop {
        let mut b = Bencher {
            mode: BenchMode::Measure { target_iters },
            elapsed: Duration::ZERO,
            iters: 0,
        };
        f(&mut b);
        if b.elapsed >= Duration::from_millis(20) || target_iters >= 1 << 20 {
            break;
        }
        target_iters = target_iters.saturating_mul(2);
    }

    let mut per_iter_ns: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut b = Bencher {
            mode: BenchMode::Measure { target_iters },
            elapsed: Duration::ZERO,
            iters: 0,
        };
        f(&mut b);
        assert!(b.iters > 0, "benchmark body never called Bencher::iter");
        per_iter_ns.push(b.elapsed.as_nanos() as f64 / b.iters as f64);
    }
    per_iter_ns.sort_by(|a, b| a.partial_cmp(b).expect("non-finite sample"));
    let median = per_iter_ns[per_iter_ns.len() / 2];
    let lo = per_iter_ns[0];
    let hi = per_iter_ns[per_iter_ns.len() - 1];

    print!(
        "{id:<48} time: [{} {} {}]",
        fmt_time(lo),
        fmt_time(median),
        fmt_time(hi)
    );
    if let Some(Throughput::Elements(n)) = throughput {
        print!("  thrpt: {} elem/s", fmt_rate(n as f64 / (median * 1e-9)));
    }
    println!();
}

fn fmt_time(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.2} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

fn fmt_rate(per_sec: f64) -> String {
    if per_sec >= 1e9 {
        format!("{:.3} G", per_sec / 1e9)
    } else if per_sec >= 1e6 {
        format!("{:.3} M", per_sec / 1e6)
    } else if per_sec >= 1e3 {
        format!("{:.3} K", per_sec / 1e3)
    } else {
        format!("{per_sec:.1} ")
    }
}

/// Declares a group of benchmark functions, criterion-style.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench binary's `main`, running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_bodies() {
        let mut c = Criterion {
            test_mode: true,
            filter: None,
            sample_size: 10,
        };
        let mut calls = 0;
        {
            let mut g = c.benchmark_group("g");
            g.throughput(Throughput::Elements(4));
            g.bench_function("one", |b| b.iter(|| calls += 1));
            g.finish();
        }
        assert_eq!(calls, 1, "test mode runs the body exactly once");
    }

    #[test]
    fn measure_mode_times_iterations() {
        let mut b = Bencher {
            mode: BenchMode::Measure { target_iters: 100 },
            elapsed: Duration::ZERO,
            iters: 0,
        };
        let mut n = 0u64;
        b.iter(|| n += 1);
        assert_eq!(n, 100);
        assert_eq!(b.iters, 100);
    }
}
