//! Experiment implementations, one module per paper figure/table.

mod memcached;
mod net_validation;
mod perf;
mod pfa;

pub use memcached::{
    fig7_memcached, fig7_scale, table3_memcached, table3_scale, Fig7Row, Table3Row,
};
pub use net_validation::{
    baremetal_bandwidth, fig5_ping, fig6_saturation, iperf, BandwidthResult, Fig5Row, Fig6Series,
};
pub use perf::{
    datacenter_plan, fig8_scale, fig8_scale_distributed, fig9_latency, utilization, Fig8DistRow,
    Fig8Row, Fig9Row,
};
pub use pfa::{fig11_pfa, Fig11Row};

/// The target clock every experiment assumes (paper Table I).
pub const CLOCK: firesim_core::Frequency = firesim_core::Frequency::GHZ_3_2;

/// Converts cycles to microseconds at the target clock.
pub fn us(cycles: u64) -> f64 {
    CLOCK.micros_from_cycles(firesim_core::Cycle::new(cycles))
}
