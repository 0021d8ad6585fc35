//! # firesim-bench
//!
//! The evaluation harness: one reproduction function per figure/table in
//! the FireSim paper (Karandikar et al., ISCA 2018), driven by the `repro`
//! binary, which prints paper-style tables and records JSON results.
//! Simulator speed is measured separately, by the `benchmark/` harness.
//!
//! | Experiment | Function | Paper result reproduced |
//! |---|---|---|
//! | Fig 5 | [`experiments::fig5_ping`] | ping RTT parallels the ideal line with a fixed software offset |
//! | §IV-B | [`experiments::iperf`] | software-stack-limited TCP-style goodput (~1.4 Gbit/s) |
//! | §IV-C | [`experiments::baremetal_bandwidth`] | bare-metal NIC driving ~line rate |
//! | Fig 6 | [`experiments::fig6_saturation`] | staggered senders saturating the root uplink |
//! | Fig 7 | [`experiments::fig7_memcached`] | thread-imbalance tail-latency blowup |
//! | Fig 8 | [`experiments::fig8_scale`] | simulation rate vs simulated cluster size, standard vs supernode |
//! | Fig 9 | [`experiments::fig9_latency`] | simulation rate vs target link latency (batch size) |
//! | Fig 10/§V-C | [`experiments::datacenter_plan`] | 1024-node topology, fleet, and cost arithmetic |
//! | Table III | [`experiments::table3_memcached`] | p50/p95/QPS across ToR/aggregation/root pairings |
//! | Fig 11 | [`experiments::fig11_pfa`] | PFA vs software paging on genome and qsort |
//! | §III-A5 | [`experiments::utilization`] | FPGA LUT utilisation, standard vs supernode |

#![warn(missing_docs)]

pub mod experiments;

/// True when `FIRESIM_FULL=1`: run experiments at full paper scale
/// (1024 nodes, long sweeps) instead of the quick default scale.
pub fn full_scale() -> bool {
    std::env::var("FIRESIM_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Host threads to use for engines (leaves a couple of cores for the OS).
pub fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(2).max(1))
        .unwrap_or(4)
}
