//! # firesim-net
//!
//! Cycle-by-cycle datacenter network simulation for FireSim-rs: Ethernet
//! frames, per-cycle flits, link codecs, and the store-and-forward switch
//! model from §III-B1 of the FireSim paper (Karandikar et al., ISCA 2018).
//!
//! In FireSim, switches are *software* models (C++ in the paper, Rust here)
//! while server blades are cycle-exact SoC simulations. Both speak the same
//! language: one token per target cycle per link. A token either carries a
//! [`Flit`] — up to 8 bytes of frame data, 64 bits per cycle being what a
//! 200 Gbit/s interface moves at 3.2 GHz — or is empty (an idle cycle).
//!
//! The [`Switch`] implements the paper's algorithm exactly:
//!
//! 1. **Ingress**: flits are reassembled into full Ethernet frames
//!    (store-and-forward); a completed frame is timestamped with the arrival
//!    cycle of its *last* flit plus the configured minimum port-to-port
//!    switching latency.
//! 2. **Switching step**: all frames that completed during the round are
//!    pushed through a priority queue sorted on timestamp and drained into
//!    output-port buffers according to a static MAC table (with broadcast
//!    duplication).
//! 3. **Egress**: each output port releases a frame flit-by-flit once the
//!    frame's timestamp is ≤ the port's notion of simulation time and the
//!    port is idle; bounded output buffering models congestion drops.
//!
//! Use [`Switch`] directly as a [`firesim_core::SimAgent`], or use
//! higher-level topology construction in `firesim-manager`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod frame;
pub mod switch;

pub use codec::{
    encode_token_frame, push_round_entry, seal_round_frame, FrameDeframer, FrameFramer,
    TokenDeframer,
};
pub use frame::{EtherType, EthernetFrame, Flit, MacAddr};
pub use switch::{RouteDecision, Switch, SwitchConfig, SwitchPolicy, SwitchStats};

/// Number of payload bytes a single flit moves per target cycle.
///
/// 8 bytes/cycle at 3.2 GHz = 204.8 Gbit/s raw, the paper's "200 Gbit/s"
/// link. Lower link rates are modeled with the NIC's token-bucket rate
/// limiter, not by changing the flit width.
pub const FLIT_BYTES: usize = 8;
