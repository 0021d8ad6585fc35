//! Property tests for the run-report decoder, `RunReport::from_json`, on
//! foreign bytes. A fleet parent reads each worker's result file with it,
//! and those bytes were not written by the parent: every input must
//! decode or fail with an error, never panic.
//!
//! While a thread decodes, the global allocator refuses it any single
//! request above [`ALLOC_CAP`], and a refused allocation aborts the
//! binary, so these tests also check that no input, however corrupt,
//! makes the decoder allocate far beyond its own length. (The simulation
//! that produces the real report runs uncapped: its blades' memories are
//! larger than the cap.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;
use std::time::Duration;

use proptest::prelude::*;

use firesim_core::Cycle;
use firesim_manager::{catalogue, scenario, RunReport};

/// Far above the report in this file (tens of KiB), so only an
/// allocation sized from a decoded value could reach it.
const ALLOC_CAP: usize = 1 << 20;

thread_local! {
    /// Set while this thread runs the decoder.
    static CAPPED: Cell<bool> = const { Cell::new(false) };
}

fn over_cap(size: usize) -> bool {
    size > ALLOC_CAP && CAPPED.try_with(Cell::get).unwrap_or(false)
}

struct CappedAlloc;

// SAFETY: delegates to the system allocator, or returns null (allocation
// failure, which the `GlobalAlloc` contract permits) for a request above
// the cap while the cap is on.
unsafe impl GlobalAlloc for CappedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if over_cap(layout.size()) {
            return std::ptr::null_mut();
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if over_cap(new_size) {
            return std::ptr::null_mut();
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CappedAlloc = CappedAlloc;

/// A real report, rendered by `to_json`: the quickstart rack run
/// in-process for two windows with metrics on and a scenario that cuts
/// the echo server off, so the report carries agents, app counters,
/// links, registry counters, histograms and a recovery timeline.
fn real_report() -> &'static str {
    static JSON: OnceLock<String> = OnceLock::new();
    JSON.get_or_init(|| {
        let (topo, cfg) = catalogue::build("quickstart").expect("catalogue target");
        let script = r#"{ "name": "cut", "seed": 7, "interval": 3200,
            "events": [ { "kind": "partition", "from": 1000, "until": 9000,
                          "islands": [["echo"]] } ] }"#;
        let compiled = scenario::parse(script)
            .and_then(|s| s.compile(&topo.scenario_topology()))
            .expect("scenario compiles");
        let window = cfg.link_latency;
        let mut sim = topo.build(cfg).expect("quickstart builds");
        sim.apply_scenario(&compiled).expect("scenario applies");
        sim.engine_mut().enable_metrics();
        sim.run_for(Cycle::new(2 * window.as_u64())).expect("runs");
        let report = sim.run_report(Duration::from_millis(1));
        assert!(report.timeline.is_some(), "the scenario records a timeline");
        assert!(!report.histograms.is_empty(), "metrics are on");
        report.to_json()
    })
}

/// Decodes `text` with the allocation cap on. `Ok` and `Err` both pass;
/// a panic or an abort fails the test.
fn decode(text: &str) {
    CAPPED.set(true);
    let _ = RunReport::from_json(text);
    CAPPED.set(false);
}

#[test]
fn real_report_round_trips() {
    let json = real_report();
    let back = RunReport::from_json(json).expect("decodes");
    assert_eq!(back.to_json(), json);
}

#[test]
fn every_truncation_decodes_or_fails() {
    let json = real_report();
    assert!(json.is_ascii(), "byte offsets assume ASCII");
    for cut in 0..json.len() {
        decode(&json[..cut]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn noise_decodes_or_fails(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        decode(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn flipped_bytes_decode_or_fail(
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 1..4)
    ) {
        let mut bytes = real_report().as_bytes().to_vec();
        for (at, mask) in flips {
            let n = bytes.len();
            bytes[at % n] ^= mask;
        }
        decode(&String::from_utf8_lossy(&bytes));
    }
}
