//! Live-telemetry acceptance tests (DESIGN §17).
//!
//! Two contracts:
//!
//! 1. **Golden fixture** — the quickstart rack's streamed run feed,
//!    with host-dependent fields normalized out, is byte-identical to
//!    the committed `tests/fixtures/quickstart_stream.golden.ndjson`.
//!    Regenerate with `FIRESIM_BLESS=1 cargo test --test telemetry`
//!    after an intentional behavior change.
//! 2. **Streaming is invisible** — per-agent checkpoint digests and the
//!    combined digest are bit-identical with streaming on and off,
//!    across 1/2/4 workers and all three transports. Streaming reads
//!    aggregation at quiescent boundaries and never feeds back into the
//!    simulation, so this is structural; the test pins it.
//!
//! With `FIRESIM_OVERHEAD_GUARD=1` (the CI telemetry job) an overhead
//! guard also runs: a streaming-enabled run must be within 5% of a
//! streaming-off run, measured with the PR-3 methodology (interleaved
//! samples reduced by minimum so shared-runner noise cancels).

use std::path::PathBuf;

use firesim_core::Cycle;
use firesim_manager::catalogue;
use firesim_manager::{
    maybe_worker, run_partitioned, PartitionConfig, StreamRecord, TransportChoice,
};

/// Streams the catalogue's quickstart rack exactly like
/// `quickstart --stream-out` does (same meta, horizon, interval,
/// stop-when-done) and returns the raw NDJSON text. The golden fixture
/// is this stream, so it also pins the example's `--stream-out` output
/// (CI diffs both).
fn quickstart_stream() -> String {
    let out = scratch_path("golden.ndjson");
    let (topo, config) = catalogue::build("quickstart").expect("topology is valid");
    let mut sim = topo.build(config).expect("topology is valid");
    sim.enable_metrics();
    let writer = firesim_manager::StreamWriter::open(out.to_str().unwrap()).expect("open sink");
    let meta = firesim_manager::StreamMeta {
        run_id: None,
        spec: "quickstart".to_owned(),
        workers: 1,
        transport: None,
    };
    firesim_manager::run_streamed(
        &mut sim,
        writer,
        &meta,
        Cycle::new(2_000_000),
        100_000,
        true,
    )
    .expect("streamed run completes");
    let text = std::fs::read_to_string(&out).expect("stream file readable");
    let _ = std::fs::remove_file(&out);
    text
}

fn scratch_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("firesim-telemetry-{}-{name}", std::process::id()))
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/quickstart_stream.golden.ndjson")
}

/// Normalizes a whole stream: every line parsed, host fields zeroed,
/// re-serialized. Also validates the stream's shape (header first,
/// trailer last, every record well-formed).
fn normalize_stream(text: &str) -> String {
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(lines.len() >= 2, "stream has header + trailer");
    let mut out = String::new();
    for (i, line) in lines.iter().enumerate() {
        let rec = StreamRecord::parse(line).expect("every line parses");
        match (i, &rec) {
            (0, StreamRecord::RunStart(_)) => {}
            (0, other) => panic!("first record must be run_start, got {other:?}"),
            (i, StreamRecord::RunEnd(_)) if i + 1 == lines.len() => {}
            (i, StreamRecord::RunEnd(_)) => panic!("run_end mid-stream at line {i}"),
            (_, StreamRecord::RunStart(_)) => panic!("duplicate run_start"),
            _ => {}
        }
        out.push_str(&firesim_manager::stream::normalize_line(line).expect("normalizes"));
        out.push('\n');
    }
    assert!(
        matches!(
            StreamRecord::parse(lines[lines.len() - 1]).unwrap(),
            StreamRecord::RunEnd(_)
        ),
        "last record must be run_end"
    );
    out
}

/// Contract 1: the normalized quickstart stream matches the committed
/// golden fixture byte for byte.
fn golden_fixture() {
    let normalized = normalize_stream(&quickstart_stream());
    let path = fixture_path();
    if std::env::var("FIRESIM_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("fixture dir");
        std::fs::write(&path, &normalized).expect("bless fixture");
        println!("blessed {} ({} bytes)", path.display(), normalized.len());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with FIRESIM_BLESS=1 to create it",
            path.display()
        )
    });
    if normalized != golden {
        for (i, (got, want)) in normalized.lines().zip(golden.lines()).enumerate() {
            if got != want {
                panic!(
                    "stream diverges from golden fixture at line {}:\n  got:  {got}\n  want: {want}\n\
                     (if the change is intentional, rebless with FIRESIM_BLESS=1)",
                    i + 1
                );
            }
        }
        panic!(
            "stream length differs from golden fixture: {} vs {} lines \
             (if intentional, rebless with FIRESIM_BLESS=1)",
            normalized.lines().count(),
            golden.lines().count()
        );
    }
    // The determinism half of the contract: a second streamed run
    // normalizes to the same bytes.
    assert_eq!(
        normalize_stream(&quickstart_stream()),
        golden,
        "normalized stream is not reproducible within one host"
    );
}

const CYCLES: u64 = 500_000;

fn run_once(
    workers: usize,
    transport: TransportChoice,
    stream: Option<PathBuf>,
) -> (Vec<(String, u64)>, u64, Option<String>) {
    let mut cfg = PartitionConfig::new(workers, Cycle::new(CYCLES), "quickstart".to_owned());
    cfg.transport = transport;
    let stream_path = stream.clone();
    cfg.stream = stream.map(|p| p.to_str().unwrap().to_owned());
    cfg.stream_interval = Some(100_000);
    let run = run_partitioned(catalogue::build, &cfg)
        .unwrap_or_else(|report| panic!("{workers}w {transport:?} failed: {report}"));
    let text = stream_path.map(|p| {
        let text = std::fs::read_to_string(&p).expect("stream file written");
        let _ = std::fs::remove_file(&p);
        text
    });
    (run.digests, run.combined_digest, text)
}

/// Contract 2: streaming never changes what is simulated — digests are
/// identical with streaming on/off, across worker counts and transports.
fn stream_is_invisible() {
    let (base_digests, base_combined, _) = run_once(1, TransportChoice::Shm, None);
    assert!(base_digests.len() >= 4, "every agent digested");

    let mut cases: Vec<(usize, TransportChoice)> = vec![
        (1, TransportChoice::Shm),
        (2, TransportChoice::Shm),
        (4, TransportChoice::Shm),
        (2, TransportChoice::Tcp),
        (2, TransportChoice::Unix),
        (4, TransportChoice::Tcp),
        (4, TransportChoice::Unix),
    ];
    // Unstreamed baselines at 2/4 workers guard the off side too.
    for (workers, transport) in [(2, TransportChoice::Shm), (4, TransportChoice::Shm)] {
        let (digests, combined, _) = run_once(workers, transport, None);
        assert_eq!(
            base_digests, digests,
            "{workers}w off-stream digests differ"
        );
        assert_eq!(
            base_combined, combined,
            "{workers}w off-stream combined differs"
        );
    }
    for (i, (workers, transport)) in cases.drain(..).enumerate() {
        let path = scratch_path(&format!("invisible-{i}.ndjson"));
        let (digests, combined, text) = run_once(workers, transport, Some(path));
        assert_eq!(
            base_digests, digests,
            "{workers}w {transport:?} streamed digests differ from unstreamed monolithic"
        );
        assert_eq!(
            base_combined, combined,
            "{workers}w {transport:?} streamed combined digest differs"
        );
        let text = text.expect("stream requested");
        let records: Vec<StreamRecord> = text
            .lines()
            .map(|l| StreamRecord::parse(l).expect("valid record"))
            .collect();
        assert!(
            matches!(records.first(), Some(StreamRecord::RunStart(_))),
            "stream starts with run_start"
        );
        assert!(
            matches!(records.last(), Some(StreamRecord::RunEnd(_))),
            "stream ends with run_end"
        );
        if workers == 1 {
            assert!(
                records
                    .iter()
                    .any(|r| matches!(r, StreamRecord::Interval(_))),
                "single-worker streams carry interval records"
            );
        } else {
            // Fleet parents stream merge points: one spawn and one exit
            // per worker.
            let spawns = records
                .iter()
                .filter(|r| matches!(r, StreamRecord::Event(e) if e.kind == "worker_spawn"))
                .count();
            let exits = records
                .iter()
                .filter(|r| matches!(r, StreamRecord::Event(e) if e.kind == "worker_exit"))
                .count();
            assert_eq!(spawns, workers, "one worker_spawn per shard");
            assert_eq!(exits, workers, "one worker_exit per shard");
        }
        println!("ok - stream_is_invisible {workers}w {transport:?}");
    }
}

/// The ≤5% overhead guard (PR-3 methodology): interleaved off/on
/// samples, reduced by minimum so shared-runner noise cancels. Runs
/// only under FIRESIM_OVERHEAD_GUARD=1 (the CI telemetry job, release
/// profile) — wall-clock assertions are too flaky for the default
/// debug test run.
fn overhead_guard() {
    let run_wall = |stream: Option<PathBuf>| -> std::time::Duration {
        let mut cfg = PartitionConfig::new(1, Cycle::new(2_000_000), "quickstart".to_owned());
        cfg.stream = stream.map(|p| p.to_str().unwrap().to_owned());
        cfg.stream_interval = Some(100_000);
        let run = run_partitioned(catalogue::build, &cfg).expect("run succeeds");
        run.wall
    };
    let mut plain = std::time::Duration::MAX;
    let mut streamed = std::time::Duration::MAX;
    for i in 0..5 {
        plain = plain.min(run_wall(None));
        streamed = streamed.min(run_wall(Some(scratch_path(&format!("guard-{i}.ndjson")))));
    }
    let ratio = streamed.as_secs_f64() / plain.as_secs_f64().max(1e-9);
    println!("overhead guard: plain {plain:?}, streamed {streamed:?}, ratio {ratio:.3}");
    // 5% target with a small absolute floor so micro-runs on busy
    // runners don't trip on scheduler jitter alone.
    assert!(
        streamed <= plain.mul_f64(1.05) + std::time::Duration::from_millis(20),
        "streaming overhead {ratio:.3}x exceeds the 5% budget"
    );
}

fn main() {
    // Worker processes re-exec this binary with shard assignments in the
    // environment; this call never returns for them.
    if maybe_worker(catalogue::build) {
        return;
    }

    golden_fixture();
    println!("ok - golden_fixture");
    stream_is_invisible();
    println!("ok - stream_is_invisible");
    if std::env::var("FIRESIM_OVERHEAD_GUARD").is_ok() {
        overhead_guard();
        println!("ok - overhead_guard");
    } else {
        println!("skip - overhead_guard (set FIRESIM_OVERHEAD_GUARD=1)");
    }
    println!("telemetry: all checks passed");
}
