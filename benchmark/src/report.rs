//! Metric catalogue, result files, the all-workloads driver and `compare`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use serde_json::Value;

use crate::measure;
use crate::stats::{fields, obj};
use crate::trace;
use crate::workloads::{Workload, WORKLOADS};
use crate::{home, read_json, Args};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// An end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndMetric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the base value the metric may worsen by.
    pub bound: f64,
}

/// The end-to-end metrics. All host quantities.
pub const END_TO_END: [EndToEndMetric; 3] = [
    EndToEndMetric {
        name: "sim_mhz",
        unit: "MHz",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEndMetric {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndMetric {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// A per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// Name: `<crate>.<module>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// A deterministic count of simulated events: identical between two
    /// runs of the same `--seed` and `--seconds`, on any host.
    pub exact: bool,
}

const fn layer(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        exact: true,
    }
}

/// The per-layer metrics, in `BENCHMARK.json` order (which also gives each
/// one's direction; none has a bound).
pub const PER_LAYER: [LayerMetric; 49] = [
    layer("core.engine.agent_busy_share", "share"),
    layer("core.engine.barrier_wait_share", "share"),
    layer("core.engine.self_share", "share"),
    layer("core.engine.ns_per_agent_round", "ns"),
    exact("core.engine.agent_steps", "count"),
    layer("core.engine.empty_round_ns", "ns"),
    layer("core.engine.empty_round_ns_t2", "ns"),
    layer("core.channel.dense_window_ns", "ns"),
    layer("core.channel.empty_window_ns", "ns"),
    layer("core.channel.window_io_share_est", "share"),
    layer("core.snapshot.ckpt_ms", "ms"),
    layer("core.snapshot.restore_ms", "ms"),
    exact("core.snapshot.bytes", "B"),
    layer("blade.rtl.host_share", "share"),
    layer("blade.model.host_share", "share"),
    layer("net.switch.host_share", "share"),
    layer("blade.rtl.ns_per_window_parked", "ns"),
    layer("blade.rtl.mips", "MIPS"),
    layer("riscv.exec.mips", "MIPS"),
    layer("riscv.icache.hit_permille", "permille"),
    layer("uarch.timing.ns_per_inst", "ns"),
    layer("uarch.memsys.ns_per_access_hit", "ns"),
    layer("uarch.memsys.ns_per_access_miss", "ns"),
    layer("uarch.dram.ns_per_access_dense", "ns"),
    layer("uarch.dram.ns_per_advance_sparse", "ns"),
    exact("uarch.memsys.l1d_miss_permille", "permille"),
    exact("uarch.memsys.l2_miss_permille", "permille"),
    exact("uarch.dram.row_conflicts", "count"),
    exact("uarch.dram.refreshes", "count"),
    exact("devices.nic.frames_tx", "count"),
    exact("devices.nic.frames_rx", "count"),
    layer("net.switch.ns_per_window_empty", "ns"),
    layer("net.switch.ns_per_frame", "ns"),
    exact("net.switch.frames_forwarded", "count"),
    exact("net.switch.drops", "count"),
    layer("net.codec.encode_ns_empty", "ns"),
    layer("net.codec.encode_ns_dense", "ns"),
    layer("net.codec.decode_ns_empty", "ns"),
    layer("net.codec.decode_ns_dense", "ns"),
    layer("platform.link.tcp_window_rtt_ns", "ns"),
    layer("platform.link.unix_window_rtt_ns", "ns"),
    layer("platform.link.shm_window_rtt_ns", "ns"),
    layer("platform.link.channel_window_rtt_ns", "ns"),
    layer("manager.partition.fleet_efficiency", "share"),
    layer("manager.partition.spawn_s", "s"),
    layer("manager.topology.construct_ms", "ms"),
    layer("manager.simulation.build_ms", "ms"),
    layer("manager.report.collect_ms", "ms"),
    layer("trace_overhead_share", "share"),
];

/// Order the all-workloads run takes them in: regimes alternate, and the
/// multi-process and two-thread workloads sit in the middle so the load
/// average has decayed by the time a following set starts.
const RUN_ORDER: [&str; 6] = [
    "blade_compute",
    "rack64_parked",
    "dc1024_memcached",
    "fleet2_tcp",
    "rack8_stream",
    "blade_memory",
];

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    std::fs::write(path, value.to_string_pretty() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The contract's result line.
fn result_line(attempted: usize, failed: usize, metrics: Vec<(&str, &str, f64)>) -> Value {
    obj([
        ("correct", (failed == 0).into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        (
            "metrics",
            Value::Object(
                metrics
                    .into_iter()
                    .map(|(name, unit, value)| {
                        (
                            name.to_owned(),
                            obj([("value", value.into()), ("unit", unit.into())]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The shared tail of a pass: prints every metric by name with its unit
/// and every failed check, writes `detail` (with the checks added) to
/// `file`, and ends with the contract's result line.
fn finish_pass(
    w: &Workload,
    metrics: Vec<(&str, &str, f64)>,
    checks: &measure::Checks,
    mut detail: BTreeMap<String, Value>,
    file: &Path,
) -> Result<(), String> {
    let (total, failed) = (checks.0.len(), checks.failed());
    for (name, unit, value) in &metrics {
        println!("{:<18} {name:<38} {value:>16.4} {unit}", w.name);
    }
    println!(
        "{:<18} {:<38} {failed:>16} of {total}",
        w.name, "failed_checks"
    );
    for c in checks.0.iter().filter(|c| !c.ok) {
        println!("  FAILED check {}: {}", c.name, c.detail);
    }
    detail.insert("checks_total".into(), total.into());
    detail.insert("failed_checks".into(), failed.into());
    detail.insert("checks".into(), checks.to_json());
    write_json(file, &Value::Object(detail))?;
    println!(
        "{}",
        result_line(total, failed, metrics).to_string_compact()
    );
    Ok(())
}

/// One pass of one workload: measures, then [`finish_pass`]. Files go
/// under `args.out`. A failed check is part of the result
/// (`"correct": false`), not a failure to produce one, so the pass still
/// returns `Ok(true)`.
pub fn run_one(w: &'static Workload, args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let err = |e: firesim_core::SimError| format!("{}: {e}", w.name);
    if args.trace {
        let trace_path = args.out.join(format!("{}.trace.json", w.name));
        let layers =
            trace::layers(w, args.seed, args.seconds, &args.out, &trace_path).map_err(err)?;
        let metrics = PER_LAYER
            .iter()
            .map(|m| match layers.metrics.get(m.name) {
                Some(&v) => Ok((m.name, m.unit, v)),
                None => Err(format!("{} was not measured", m.name)),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let detail = fields([
            (
                "metrics",
                Value::Object(
                    metrics
                        .iter()
                        .map(|(n, _, v)| ((*n).to_owned(), Value::from(*v)))
                        .collect(),
                ),
            ),
            ("target", layers.target.to_json()),
        ]);
        let file = args.out.join(format!("{}.layers.json", w.name));
        finish_pass(w, metrics, &layers.checks, detail, &file)?;
        return Ok(true);
    }

    let expected_path = home().join("expected.json");
    let expected = read_json(&expected_path);
    // Blessing checks against nothing: the values measured now become the
    // expectation.
    let check_against = match (&expected, args.bless) {
        (_, true) => None,
        (Ok(v), false) => Some(v),
        (Err(e), false) => return Err(e.clone()),
    };
    let run =
        measure::end_to_end(w, args.seed, args.seconds, check_against, &args.out).map_err(err)?;
    if args.bless {
        let mut map = match expected {
            Ok(Value::Object(map)) => map,
            _ => BTreeMap::new(),
        };
        map.insert(w.name.to_owned(), run.target.to_json());
        write_json(&expected_path, &Value::Object(map))?;
    }
    let detail = run.detail();
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let v = detail.get(m.name).and_then(Value::as_f64);
            (m.name, m.unit, v.expect("end-to-end metric in detail"))
        })
        .collect();
    let file = args.out.join(format!("{}.e2e.json", w.name));
    finish_pass(w, metrics, &run.checks, detail, &file)?;
    Ok(true)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Runs one pass in a child process (own allocator state, own `VmHWM`),
/// echoing its metric lines; whether its checks passed.
fn child_pass(w: &Workload, args: &Args, trace: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out);
    if args.bless && !trace {
        cmd.arg("--bless");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    let (last, human) = lines
        .split_last()
        .ok_or_else(|| format!("{}: pass printed nothing", w.name))?;
    for line in human {
        println!("{line}");
    }
    let result: Value = serde_json::from_str(last).map_err(|e| {
        format!(
            "{}: pass did not end in a result ({e}): {}",
            w.name,
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    Ok(result.get("correct").and_then(Value::as_bool) == Some(true))
}

/// Every workload, both passes, one child process per pass; writes
/// `results.json` (the result set `compare` reads) under `args.out`.
pub fn run_all(args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0);
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let order = RUN_ORDER.map(|n| crate::workloads::by_name(n).expect("RUN_ORDER names workloads"));

    let mut all_ok = true;
    for trace in [false, true] {
        for w in order {
            all_ok &= child_pass(w, args, trace)?;
        }
    }

    let mut workloads = BTreeMap::new();
    for w in order {
        let e2e = read_json(&args.out.join(format!("{}.e2e.json", w.name)))?;
        let layers = read_json(&args.out.join(format!("{}.layers.json", w.name)))?;
        workloads.insert(
            w.name.to_owned(),
            obj([("end_to_end", e2e), ("per_layer", layers)]),
        );
    }
    let results = obj([
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        (
            "host",
            obj([
                ("nproc", nproc.into()),
                ("load_1min_at_start", load.into()),
                ("rustc", command_line("rustc", &["--version"]).into()),
                ("commit", command_line("git", &["rev-parse", "HEAD"]).into()),
            ]),
        ),
        ("workloads", Value::Object(workloads)),
    ]);
    let path = args.out.join("results.json");
    write_json(&path, &results)?;
    println!("result set: {}", path.display());
    Ok(all_ok)
}

fn lookup<'a>(set: &'a Value, workload: &str, path: &[&str]) -> Option<&'a Value> {
    let mut v = set.get("workloads")?.get(workload)?;
    for key in path {
        v = v.get(key)?;
    }
    Some(v)
}

/// Compares result set `b` against base `a`: one row per (workload,
/// end-to-end metric). `true` when nothing regressed, no check failed, and
/// every simulated value and exact count is identical.
pub fn compare(a: &Value, b: &Value) -> bool {
    let mut ok = true;
    println!(
        "{:<18} {:<13} {:>12} {:>12} {:>9} {:>6}  status",
        "workload", "metric", "a (base)", "b", "b/a", "bound"
    );
    let same_inputs = a.get("seed") == b.get("seed") && a.get("seconds") == b.get("seconds");
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let get = |set, key: &str| lookup(set, w.name, &["end_to_end", key])?.as_f64();
            let (Some(va), Some(vb)) = (get(a, m.name), get(b, m.name)) else {
                println!("{:<18} {:<13} missing from a set", w.name, m.name);
                ok = false;
                continue;
            };
            let spread = |set| {
                let p25 = get(set, &format!("{}_p25", m.name))?;
                let p75 = get(set, &format!("{}_p75", m.name))?;
                Some((p75 - p25) / get(set, m.name)?)
            };
            let worse = match m.better {
                Better::Higher => vb < va * (1.0 - m.bound),
                Better::Lower => vb > va * (1.0 + m.bound),
            };
            let noisy = [spread(a), spread(b)]
                .into_iter()
                .flatten()
                .any(|s| s > m.bound);
            let status = match (worse, noisy) {
                (_, true) => "unresolved",
                (true, false) => "regressed",
                (false, false) => "ok",
            };
            ok &= status != "regressed";
            println!(
                "{:<18} {:<13} {va:>12.4} {vb:>12.4} {:>9.4} {:>6.2}  {status}",
                w.name,
                m.name,
                vb / va,
                m.bound
            );
        }
        for set in [a, b] {
            for pass in ["end_to_end", "per_layer"] {
                let failed = lookup(set, w.name, &[pass, "failed_checks"]).and_then(Value::as_u64);
                if failed != Some(0) {
                    println!("{:<18} {pass} failed_checks = {failed:?}", w.name);
                    ok = false;
                }
            }
        }
        if !same_inputs {
            continue;
        }
        let mut exact_pairs = vec![(
            "target.*".to_owned(),
            lookup(a, w.name, &["end_to_end", "target"]),
            lookup(b, w.name, &["end_to_end", "target"]),
        )];
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let path = ["per_layer", "metrics", m.name];
            exact_pairs.push((
                m.name.to_owned(),
                lookup(a, w.name, &path),
                lookup(b, w.name, &path),
            ));
        }
        for (name, va, vb) in exact_pairs {
            if va != vb {
                println!("{:<18} {name} differs: {va:?} vs {vb:?}", w.name);
                ok = false;
            }
        }
    }
    if !same_inputs {
        println!(
            "sets differ in --seed or --seconds: simulated values and exact counts not compared"
        );
    }
    ok
}
