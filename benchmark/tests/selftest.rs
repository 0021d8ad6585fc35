//! Self-tests of the benchmark harness, driven through its binary (fleet
//! workers and set-up probes are re-executions of it):
//!
//! * every workload passes its checks at 1/200 of the contract's run
//!   length, in both passes, and layer shares sum to 1 (one of the traced
//!   pass's checks);
//! * every pass prints exactly the metrics `BENCHMARK.json` lists, with
//!   their units;
//! * `BENCHMARK.json` is inside the contract's limits;
//! * `compare` of a result set with itself is all `ok`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

fn bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
}

fn contract() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json readable"))
        .expect("BENCHMARK.json parses")
}

fn entries<'a>(contract: &'a Value, key: &str) -> &'a Vec<Value> {
    contract
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
}

fn name_of(entry: &Value) -> &str {
    entry
        .get("name")
        .and_then(Value::as_str)
        .expect("entry has a name")
}

fn scratch(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("selftest-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn contract_file_is_within_limits() {
    let contract = contract();
    let keys: BTreeSet<&str> = contract
        .as_object()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        BTreeSet::from([
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ])
    );
    let name_ok = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut names = BTreeSet::new();
    for (key, most) in [("workloads", 8), ("end_to_end", 16), ("per_layer", 128)] {
        let list = entries(&contract, key);
        assert!(
            !list.is_empty() && list.len() <= most,
            "{key}: {}",
            list.len()
        );
        for entry in list {
            let name = name_of(entry);
            assert!(name_ok(name), "bad name {name:?}");
            assert!(names.insert(name.to_owned()), "{name} is used twice");
            if key == "workloads" {
                let why = entry.get("why").and_then(Value::as_str).expect("a why");
                assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why");
            } else {
                let unit = entry.get("unit").and_then(Value::as_str).expect("a unit");
                assert!(unit_ok(unit), "{name}: bad unit {unit:?}");
                let better = entry.get("better").and_then(Value::as_str);
                assert!(matches!(better, Some("higher" | "lower")), "{name}: better");
            }
        }
    }
    for metric in entries(&contract, "end_to_end") {
        let bound = metric
            .get("bound")
            .and_then(Value::as_f64)
            .expect("a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound", name_of(metric));
    }
    assert!(entries(&contract, "end_to_end")
        .iter()
        .any(|m| name_of(m) == "setup_s"
            && m.get("unit").and_then(Value::as_str) == Some("s")
            && m.get("better").and_then(Value::as_str) == Some("lower")));
    let seconds = contract.get("run_seconds").and_then(Value::as_u64);
    assert!(matches!(seconds, Some(1..=60)));
}

/// The full set at 1/200 of the contract's run length, then `compare` of
/// the result set with itself.
#[test]
fn every_workload_passes_and_a_set_equals_itself() {
    let contract = contract();
    let out = scratch("set");
    let run = bench()
        .args(["--seconds", "0.05", "--out"])
        .arg(&out)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "full run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );

    let results_path = out.join("results.json");
    let results: Value =
        serde_json::from_str(&std::fs::read_to_string(&results_path).expect("results.json"))
            .expect("results.json parses");
    for workload in entries(&contract, "workloads") {
        let name = name_of(workload);
        let of = |path: &[&str]| {
            let mut v = results.get("workloads").and_then(|w| w.get(name));
            for key in path {
                v = v.and_then(|v| v.get(key));
            }
            v.unwrap_or_else(|| panic!("{name}: no {path:?} in results.json"))
        };
        for pass in ["end_to_end", "per_layer"] {
            assert_eq!(
                of(&[pass, "failed_checks"]).as_u64(),
                Some(0),
                "{name} {pass}"
            );
            assert!(
                of(&[pass, "checks_total"]).as_u64() > Some(0),
                "{name} {pass}"
            );
        }
        for metric in entries(&contract, "end_to_end") {
            let v = of(&["end_to_end", name_of(metric)]).as_f64();
            assert!(v > Some(0.0), "{name}: {} = {v:?}", name_of(metric));
        }
        let measured: BTreeSet<&str> = of(&["per_layer", "metrics"])
            .as_object()
            .expect("metrics object")
            .keys()
            .map(String::as_str)
            .collect();
        let listed: BTreeSet<&str> = entries(&contract, "per_layer")
            .iter()
            .map(name_of)
            .collect();
        assert_eq!(measured, listed, "{name}: per-layer metric names");
        assert!(
            out.join(format!("{name}.trace.json")).exists(),
            "{name}: trace file"
        );
    }

    let compare = bench()
        .arg("compare")
        .arg(&results_path)
        .arg(&results_path)
        .output()
        .expect("compare runs");
    let table = String::from_utf8_lossy(&compare.stdout);
    assert!(compare.status.success(), "{table}");
    assert!(
        !table.contains("regressed") && !table.contains("differs"),
        "{table}"
    );
    // `compare` applies the bounds the contract file states.
    for metric in entries(&contract, "end_to_end") {
        let bound = metric
            .get("bound")
            .and_then(Value::as_f64)
            .expect("a bound");
        let row = table
            .lines()
            .find(|l| l.split_whitespace().nth(1) == Some(name_of(metric)))
            .expect("a row per end-to-end metric");
        let shown: f64 = row.split_whitespace().nth(5).unwrap().parse().unwrap();
        assert_eq!(shown, bound, "{row}");
    }
    let _ = std::fs::remove_dir_all(&out);
}

/// One pass in the driver's form: the last stdout line is the contract's
/// JSON object, with exactly the listed metrics and their units.
#[test]
fn a_pass_ends_in_the_contract_result_line() {
    let contract = contract();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = scratch(&format!("line{trace}"));
        let run = bench()
            .args([
                "--workload",
                "blade_compute",
                "--seed",
                "3",
                "--seconds",
                "0.05",
            ])
            .args(["--trace", trace, "--out"])
            .arg(&out)
            .output()
            .expect("benchmark runs");
        assert!(run.status.success());
        let stdout = String::from_utf8_lossy(&run.stdout);
        let line: Value =
            serde_json::from_str(stdout.lines().last().expect("output")).expect("JSON line");
        let keys: BTreeSet<&str> = line
            .as_object()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            BTreeSet::from(["attempted", "correct", "failed", "metrics"])
        );
        assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
        assert!(line.get("attempted").and_then(Value::as_u64) >= Some(1));
        assert_eq!(line.get("failed").and_then(Value::as_u64), Some(0));
        let metrics = line
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        let listed = entries(&contract, key);
        assert_eq!(metrics.len(), listed.len());
        for metric in listed {
            let got = metrics
                .get(name_of(metric))
                .expect("listed metric is printed");
            assert_eq!(got.get("unit"), metric.get("unit"), "{}", name_of(metric));
            assert!(got.get("value").and_then(Value::as_f64).is_some());
        }
        let _ = std::fs::remove_dir_all(&out);
    }
}
