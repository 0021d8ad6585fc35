//! Property tests for the run-feed decoders, `StreamRecord::parse` and
//! `stream::normalize_line` (DESIGN §17), on foreign bytes: every input
//! decodes or fails with `SimError::Protocol`, never panics.
//!
//! The global allocator refuses any single request above
//! [`ALLOC_CAP`], and a refused allocation aborts the binary, so these
//! tests also check that no line, however corrupt, makes a decoder
//! allocate far beyond its own length.

use std::alloc::{GlobalAlloc, Layout, System};

use proptest::prelude::*;

use firesim_core::SimError;
use firesim_manager::stream::normalize_line;
use firesim_manager::StreamRecord;

/// Far above any line in this file (a few KiB), so only an allocation
/// sized from a decoded value could reach it.
const ALLOC_CAP: usize = 1 << 20;

struct CappedAlloc;

// SAFETY: delegates to the system allocator, or returns null (allocation
// failure, which the `GlobalAlloc` contract permits) for a request above
// the cap.
unsafe impl GlobalAlloc for CappedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() > ALLOC_CAP {
            return std::ptr::null_mut();
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > ALLOC_CAP {
            return std::ptr::null_mut();
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CappedAlloc = CappedAlloc;

/// Valid wire-v1 records of every type: the committed quickstart feed
/// (`run_start`, `interval`, `run_end`) plus an `event`.
fn valid_lines() -> Vec<String> {
    let golden = include_str!("../../../tests/fixtures/quickstart_stream.golden.ndjson");
    let mut lines: Vec<String> = golden.lines().map(str::to_owned).collect();
    lines.push(
        r#"{"cycle":250000,"kind":"restore","label":"restored from a.fsckpt","t":"event","v":1}"#
            .to_owned(),
    );
    lines
}

/// Both decoders on `line`: `Ok`, or a typed protocol error.
fn ok_or_protocol(line: &str) -> Result<(), TestCaseError> {
    let parsed = StreamRecord::parse(line).map(drop);
    for result in [parsed, normalize_line(line).map(drop)] {
        match result {
            Ok(()) | Err(SimError::Protocol { .. }) => {}
            Err(other) => {
                return Err(TestCaseError::fail(format!(
                    "{line:?}: untyped error {other}"
                )))
            }
        }
    }
    Ok(())
}

#[test]
fn valid_lines_decode() {
    for line in valid_lines() {
        StreamRecord::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        normalize_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
    }
}

#[test]
fn every_truncation_is_ok_or_protocol() {
    for line in valid_lines() {
        assert!(line.is_ascii(), "byte offsets assume ASCII");
        for cut in 0..line.len() {
            if let Err(e) = ok_or_protocol(&line[..cut]) {
                panic!("cut at {cut}: {e}");
            }
        }
    }
}

#[test]
fn deep_nesting_is_ok_or_protocol() {
    for depth in [127, 128, 129, 50_000] {
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            let nest = format!("{}0{}", open.repeat(depth), close.repeat(depth));
            for line in [
                nest.clone(),
                format!(r#"{{"v":1,"t":"event","cycle":{nest},"kind":"x","label":"y"}}"#),
                format!(r#"{{"v":1,"t":"interval","agents":[{nest}]}}"#),
            ] {
                ok_or_protocol(&line).unwrap_or_else(|e| panic!("depth {depth}: {e}"));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn noise_is_ok_or_protocol(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        ok_or_protocol(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn flipped_bytes_are_ok_or_protocol(
        pick in any::<usize>(),
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 1..4)
    ) {
        let lines = valid_lines();
        let mut bytes = lines[pick % lines.len()].clone().into_bytes();
        for (at, mask) in flips {
            let n = bytes.len();
            bytes[at % n] ^= mask;
        }
        ok_or_protocol(&String::from_utf8_lossy(&bytes))?;
    }
}
