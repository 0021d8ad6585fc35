//! Differential tests for the event-queue DRAM refresh model.
//!
//! The event-queue model (lazily-materialised refresh deadlines, O(1)
//! `advance_to`, idle banks never visited) is a host-side optimisation
//! only: it must be *bit-identical* to the per-deadline oracle
//! `firesim_reference::RefDram` — same latencies, same statistics, same
//! snapshot bytes, and snapshots that restore into either model — the
//! same contract `tests/timing_equiv.rs` enforces for the timing
//! schedules. A property test draws arbitrary sequences of requests,
//! time advances and save/restore round trips; since `Dram` is a pure
//! function of that sequence, this covers every context a blade puts it
//! in. The blade-level tests then demand that a full RTL cluster's
//! checkpoint is byte-identical across worker counts and decode-cache
//! settings.

use proptest::prelude::*;

use firesim_blade::{programs, BladeConfig, RtlBlade};
use firesim_core::snapshot::{Checkpoint, SnapshotReader, SnapshotWriter};
use firesim_core::{Cycle, Frequency};
use firesim_manager::{BladeSpec, SimConfig, Topology};
use firesim_net::MacAddr;
use firesim_reference::RefDram;
use firesim_uarch::{Dram, DramConfig};

/// Deterministic splitmix-style generator (same construction as the
/// other integration tests): seed-stable across platforms and runs.
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

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

// ---------------------------------------------------------------------------
// Dram unit level
// ---------------------------------------------------------------------------

/// One step of a generated workload.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `access(now, addr)`.
    Access(u64, u64),
    /// `advance_to(cycle)` — a request-free time jump.
    Advance(u64),
    /// Save both models and restore them into fresh instances: each into
    /// its own kind, or with `cross`, each into the other kind.
    SaveRestore { cross: bool },
}

/// A seeded random workload: mostly-monotone request times with
/// occasional long idle gaps and request-free `advance_to` jumps, over
/// addresses that cover every bank (plus a hot single-bank range).
fn random_ops(seed: u64, n: usize, cfg: &DramConfig) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    let mut now = 0u64;
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        now += match rng.below(10) {
            // Back-to-back requests (bank busy windows overlap).
            0..=5 => rng.below(64),
            // Medium gap.
            6..=7 => rng.below(1_000),
            // Long idle gap: several refresh deadlines elapse untouched.
            _ => cfg.t_refi.max(1) * (1 + rng.below(4)),
        };
        match rng.below(8) {
            // Request-free advance (what the blade does at window ends).
            0 => ops.push(Op::Advance(now + rng.below(2 * cfg.t_refi.max(1)))),
            // Hot bank: same row over and over.
            1..=2 => ops.push(Op::Access(now, 0x100 + rng.below(8) * 8)),
            // Anywhere: all banks, many rows.
            _ => ops.push(Op::Access(now, rng.below(1 << 24))),
        }
    }
    ops
}

fn snapshot(d: &dyn Checkpoint) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    d.save_state(&mut w).expect("dram snapshots");
    w.into_bytes()
}

/// A fresh `M` restored from `bytes`.
fn restored<M: Checkpoint>(mut fresh: M, bytes: &[u8]) -> Result<M, String> {
    fresh
        .restore_state(&mut SnapshotReader::new(bytes))
        .map_err(|e| format!("restore failed: {e}"))?;
    Ok(fresh)
}

/// Runs `ops` through `Dram` and `RefDram` in lockstep, comparing every
/// returned latency, the statistics, and the snapshot bytes after every
/// step. `Err` names the first divergence.
fn models_agree(cfg: DramConfig, ops: &[Op]) -> Result<(), String> {
    let mut event = Dram::new(cfg);
    let mut oracle = RefDram::new(cfg);
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Access(now, addr) => {
                let (le, lr) = (event.access(now, addr), oracle.access(now, addr));
                if le != lr {
                    return Err(format!("op {i} ({op:?}): completion {le} vs oracle {lr}"));
                }
            }
            Op::Advance(cycle) => {
                event.advance_to(cycle);
                oracle.advance_to(cycle);
            }
            Op::SaveRestore { cross } => {
                let (be, br) = (snapshot(&event), snapshot(&oracle));
                if cross {
                    event = restored(Dram::new(cfg), &br)?;
                    oracle = restored(RefDram::new(cfg), &be)?;
                } else {
                    event = restored(Dram::new(cfg), &be)?;
                    oracle = restored(RefDram::new(cfg), &br)?;
                }
            }
        }
        if event.stats() != oracle.stats() {
            return Err(format!(
                "op {i} ({op:?}): stats {:?} vs oracle {:?}",
                event.stats(),
                oracle.stats()
            ));
        }
        if snapshot(&event) != snapshot(&oracle) {
            return Err(format!("op {i} ({op:?}): snapshots diverged"));
        }
    }
    Ok(())
}

fn assert_models_agree(cfg: DramConfig, ops: &[Op], label: &str) {
    if let Err(e) = models_agree(cfg, ops) {
        panic!("{label}: {e}");
    }
}

/// tREFI barely larger than tRFC: the busy windows dominate, most
/// requests land inside or right after a refresh, and long gaps skip
/// dozens of deadlines at once.
fn refresh_heavy() -> DramConfig {
    DramConfig {
        t_refi: 500,
        t_rfc: 180,
        ..DramConfig::default()
    }
}

/// Arbitrary call sequences for a model with refresh interval `t_refi`:
/// request gaps from back-to-back to several deadlines, request times
/// that sometimes step back, advances that sometimes step back (no-ops),
/// any address, and save/restore round trips in both directions.
fn arb_ops(t_refi: u64) -> impl Strategy<Value = Vec<Op>> {
    let gap = prop_oneof![
        0u64..64,
        0u64..1_000,
        (1u64..5).prop_map(move |k| k * t_refi),
        0u64..3 * t_refi,
    ];
    let addr = prop_oneof![
        (0u64..8).prop_map(|k| 0x100 + k * 8),
        0u64..1 << 24,
        any::<u64>(),
    ];
    proptest::collection::vec((0u8..12, gap, addr), 0..96).prop_map(move |steps| {
        let mut now = 0u64;
        steps
            .into_iter()
            .map(|(kind, gap, addr)| {
                now += gap;
                match kind {
                    0 => Op::Advance(now + addr % (2 * t_refi)),
                    1 => Op::Advance(now.saturating_sub(addr % t_refi)),
                    2 => Op::SaveRestore { cross: false },
                    3 => Op::SaveRestore { cross: true },
                    4 => Op::Access(now.saturating_sub(addr % 1_000), addr),
                    _ => Op::Access(now, addr),
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every return value, statistic and snapshot byte of `Dram` equals
    /// the oracle's, for any call sequence on the default DDR3 timing.
    #[test]
    fn default_config_matches_oracle_on_any_sequence(ops in arb_ops(DramConfig::default().t_refi)) {
        models_agree(DramConfig::default(), &ops).map_err(TestCaseError::fail)?;
    }

    /// The same on the refresh-heavy configuration.
    #[test]
    fn refresh_heavy_config_matches_oracle_on_any_sequence(ops in arb_ops(refresh_heavy().t_refi)) {
        models_agree(refresh_heavy(), &ops).map_err(TestCaseError::fail)?;
    }
}

#[test]
fn random_streams_match_reference() {
    let cfg = DramConfig::default();
    for seed in 1..=8 {
        let ops = random_ops(seed, 400, &cfg);
        assert_models_agree(cfg, &ops, &format!("seed {seed}"));
    }
}

#[test]
fn refresh_heavy_configuration_matches_reference() {
    let cfg = refresh_heavy();
    for seed in 10..=15 {
        let ops = random_ops(seed, 300, &cfg);
        assert_models_agree(cfg, &ops, &format!("refresh-heavy seed {seed}"));
    }
}

/// Idle banks are exactly where the two implementations differ most:
/// the oracle walks every deadline into every bank while the event
/// model never visits the idle ones. Hammer one bank while the other
/// seven sit idle across hundreds of deadlines, with `advance_to`
/// jumps mixed in, then touch a cold bank at the end.
#[test]
fn idle_banks_skip_identically() {
    let cfg = DramConfig {
        t_refi: 1_000,
        t_rfc: 100,
        ..DramConfig::default()
    };
    let mut ops = Vec::new();
    let mut rng = Rng::new(99);
    let mut now = 0u64;
    for _ in 0..200 {
        now += 1 + rng.below(3) * cfg.t_refi;
        // Bank 0, single row.
        ops.push(Op::Access(now, rng.below(64) * 8));
        if rng.below(4) == 0 {
            ops.push(Op::Advance(now + rng.below(5 * cfg.t_refi)));
        }
    }
    // Cold banks at the very end: hundreds of missed refreshes collapse
    // into the closed form on first touch.
    for bank in 1..8u64 {
        ops.push(Op::Access(now + bank, bank * cfg.row_bytes));
    }
    assert_models_agree(cfg, &ops, "idle-bank");
}

/// Snapshots taken mid-run — including with refresh deadlines pending —
/// are identical across models and restore into *either* model, which
/// then continues bit-identically.
#[test]
fn checkpoint_mid_refresh_cross_restores() {
    let cfg = DramConfig {
        t_refi: 700,
        t_rfc: 150,
        ..DramConfig::default()
    };
    let ops = random_ops(42, 300, &cfg);
    let (head, tail) = ops.split_at(150);

    let mut event = Dram::new(cfg);
    let mut oracle = RefDram::new(cfg);
    for op in head {
        match *op {
            Op::Access(now, addr) => {
                event.access(now, addr);
                oracle.access(now, addr);
            }
            Op::Advance(c) => {
                event.advance_to(c);
                oracle.advance_to(c);
            }
            Op::SaveRestore { .. } => unreachable!("random_ops saves nothing"),
        }
    }
    let snap = snapshot(&event);
    assert_eq!(snap, snapshot(&oracle), "mid-run snapshots differ");

    // Restore the event-model snapshot into the oracle and the oracle's
    // into the event model; all four must then agree on the tail.
    let from_oracle = restored(Dram::new(cfg), &snapshot(&oracle)).expect("restore into event");
    let from_event = restored(RefDram::new(cfg), &snap).expect("restore into oracle");
    let mut events = [event, from_oracle];
    let mut oracles = [oracle, from_event];
    for (i, op) in tail.iter().enumerate() {
        match *op {
            Op::Access(now, addr) => {
                let lats: Vec<u64> = (events.iter_mut().map(|d| d.access(now, addr)))
                    .chain(oracles.iter_mut().map(|d| d.access(now, addr)))
                    .collect();
                assert!(
                    lats.windows(2).all(|w| w[0] == w[1]),
                    "tail op {i}: latencies diverged: {lats:?}"
                );
            }
            Op::Advance(c) => {
                events.iter_mut().for_each(|d| d.advance_to(c));
                oracles.iter_mut().for_each(|d| d.advance_to(c));
            }
            Op::SaveRestore { .. } => unreachable!("random_ops saves nothing"),
        }
    }
    let final_snaps: Vec<Vec<u8>> = (events.iter().map(|d| snapshot(d)))
        .chain(oracles.iter().map(|d| snapshot(d)))
        .collect();
    assert!(
        final_snaps.windows(2).all(|w| w[0] == w[1]),
        "final snapshots diverged after cross-restore"
    );
}

// ---------------------------------------------------------------------------
// Blade level
// ---------------------------------------------------------------------------

/// Builds the 2-node ping cluster with the given host knobs.
fn build_ping_cluster(host_threads: usize, decode_cache: bool) -> firesim_manager::Simulation {
    let clock = Frequency::GHZ_3_2;
    let pings = 3;
    let blade_config = || {
        let mut c = BladeConfig::single_core().with_dram_bytes(1 << 20);
        c.timing.decode_cache = decode_cache;
        c
    };
    let mut topo = Topology::new();
    let tor = topo.add_switch("tor0");
    let pinger = topo.add_server(
        "pinger",
        BladeSpec::Rtl {
            config: blade_config(),
            program: programs::ping_sender(
                MacAddr::from_node_index(0),
                MacAddr::from_node_index(1),
                pings,
                56,
                clock.cycles_from_micros(10).as_u64(),
            ),
        },
    );
    let echo = topo.add_server(
        "echo",
        BladeSpec::Rtl {
            config: blade_config(),
            program: programs::echo_responder(pings),
        },
    );
    topo.add_downlinks(tor, [pinger, echo]).unwrap();
    let mut sim = topo
        .build(SimConfig {
            link_latency: clock.cycles_from_micros(2),
            host_threads,
            ..SimConfig::default()
        })
        .expect("valid topology");
    sim.engine_mut().set_host_oversubscribe(true);
    sim
}

/// Runs the cluster to completion and returns `(deterministic
/// aggregates, full checkpoint bytes)`.
fn run_ping_cluster(host_threads: usize, decode_cache: bool) -> (String, Vec<u8>) {
    let mut sim = build_ping_cluster(host_threads, decode_cache);
    sim.run_until_done(Cycle::new(400_000_000)).expect("runs");
    let aggregates = sim
        .run_report(std::time::Duration::ZERO)
        .deterministic_aggregates();
    let bytes = sim.checkpoint().expect("checkpoints").to_bytes();
    (aggregates, bytes)
}

/// A full RTL cluster produces byte-identical checkpoints across 1/2/4
/// worker threads and with the decode cache on or off. (The DRAM model
/// itself is held to its oracle by the property tests above.)
#[test]
fn blade_digest_identical_across_workers() {
    let (base_agg, base_bytes) = run_ping_cluster(1, true);
    assert!(base_agg.contains("pinger"));
    for host_threads in [2, 4] {
        let (agg, bytes) = run_ping_cluster(host_threads, true);
        assert_eq!(
            agg, base_agg,
            "aggregates diverged (threads {host_threads})"
        );
        assert_eq!(
            bytes, base_bytes,
            "checkpoint bytes diverged (threads {host_threads})"
        );
    }
    // Decode cache off: a host-only knob — target aggregates and
    // checkpoint bytes both stay identical (the decode cache is not
    // target state and is not serialised).
    let (agg, bytes) = run_ping_cluster(1, false);
    assert_eq!(agg, base_agg, "decode cache changed target aggregates");
    assert_eq!(bytes, base_bytes, "decode cache changed checkpoint bytes");
}

/// Refresh is on by default and must actually do something: a blade that
/// runs for a while reports refreshes in its `host_dram_*` counters.
#[test]
fn refresh_counters_are_exported() {
    let mut blade = RtlBlade::new(
        "solo",
        MacAddr::from_node_index(0),
        BladeConfig::single_core().with_dram_bytes(1 << 20),
    );
    programs::boot_poweroff(100).install(&mut blade);
    // Drive the blade standalone long enough to cross several tREFI
    // deadlines (default 24 960 cycles apart).
    let window = 3_200u32;
    let mut now = 0u64;
    for _ in 0..64 {
        let mut ctx = firesim_core::AgentCtx::standalone(
            Cycle::new(now),
            window,
            vec![firesim_core::TokenWindow::new(window)],
            1,
        );
        firesim_core::SimAgent::advance(&mut blade, &mut ctx);
        now += u64::from(window);
    }
    let mut counters = Vec::new();
    firesim_core::SimAgent::app_counters(&blade, &mut counters);
    let find = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("missing counter {name}"))
    };
    let refreshes = find("host_dram_refreshes");
    assert!(
        refreshes >= (now / 24_960).saturating_sub(1),
        "expected ~{} refreshes, saw {refreshes}",
        now / 24_960
    );
    // The stall attribution is present (may be zero if no request ever
    // collided with a refresh window, but the counter must exist).
    let _ = find("host_dram_refresh_stall_cycles");
}
