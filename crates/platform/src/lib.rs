//! # firesim-platform
//!
//! The EC2 F1 host-platform model: instance types and pricing, FPGA
//! resource accounting (including the "supernode" packing optimisation of
//! §III-A5), host transport characteristics, and the deployment planner
//! that maps a target cluster onto cloud instances — reproducing the
//! §V-C cost arithmetic ($100/hour spot, $440/hour on-demand, $12.8M of
//! FPGAs for the 1024-node datacenter).
//!
//! FireSim-rs runs its simulations on local host threads rather than real
//! F1 instances (see DESIGN.md), so most of this crate is a *model*: it
//! answers "what would this simulation need on EC2, and what would it
//! cost?" and feeds the deployment summaries the manager prints.
//!
//! The exception is [`link`], which is *live*: the [`TokenTransport`]
//! backends there actually move token batches between worker processes —
//! the in-software analogue of the paper's shared-memory and socket ports
//! (§III-B2) — and are what `firesim-manager`'s partitioned runs are
//! wired with.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fpga;
pub mod instance;
pub mod link;
pub mod plan;
pub mod transport;

pub use fpga::{FpgaModel, FpgaUtilization};
pub use instance::{InstanceType, Pricing};
pub use link::{ChannelTransport, ShmTransport, SocketListener, SocketTransport, TokenTransport};
pub use plan::{DeploymentPlan, PlanRequest};
pub use transport::{Transport, TransportKind};
