//! # firesim-manager
//!
//! The simulation manager (§III-B3): a programmatic topology description
//! (the Rust analogue of the paper's Fig 4 Python configuration),
//! automatic MAC/IP assignment and switch-table population, mapping onto
//! the host platform, chaos-scenario scripts ([`scenario`]), and
//! experiment result recording.
//!
//! ```
//! use firesim_manager::{Topology, BladeSpec, SimConfig};
//! use firesim_blade::{programs, BladeConfig};
//! use firesim_net::MacAddr;
//!
//! // An 8-node cluster under one ToR switch (the paper's §IV-A setup).
//! let mut topo = Topology::new();
//! let tor = topo.add_switch("tor0");
//! for i in 0..8 {
//!     let prog = programs::boot_poweroff(100);
//!     let node = topo.add_server(
//!         format!("node{i}"),
//!         BladeSpec::rtl_single_core(prog),
//!     );
//!     topo.add_downlink(tor, node).unwrap();
//! }
//! let sim = topo.build(SimConfig::default()).unwrap();
//! assert_eq!(sim.servers().len(), 8);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod catalogue;
pub mod fleet;
pub mod partition;
pub mod report;
pub mod results;
pub mod scenario;
pub mod simulation;
pub mod stream;
pub mod supervisor;
pub mod topology;

pub use fleet::{CostEstimate, FleetSpec, HostAssignment, HostClass, LoadProfile, PlacementPlan};
pub use partition::{
    maybe_worker, run_partitioned, BuildFn, PartitionConfig, PartitionPlan, PartitionedRun,
    TransportChoice,
};
pub use report::{AgentReport, HistogramSummary, RunReport};
pub use results::{ExperimentRecord, ResultStore};
pub use simulation::{ShardBoundaries, SimConfig, Simulation};
pub use stream::{
    run_streamed, StreamMeta, StreamOut, StreamRecord, StreamSession, StreamSummary, StreamWriter,
    WIRE_VERSION,
};
pub use supervisor::{FailureReport, SupervisedRun, SupervisorConfig};
pub use topology::{BladeSpec, NodeRef, ServerId, SwitchId, Topology, TopologyError};
