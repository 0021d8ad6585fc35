//! # firesim-core
//!
//! The cycle-exact, token-decoupled simulation kernel at the heart of
//! FireSim-rs, a software reproduction of the FireSim scale-out system
//! simulator (Karandikar et al., ISCA 2018).
//!
//! FireSim's central idea is that a *distributed* simulation can remain
//! *cycle-exact* if every connection between simulated components is modeled
//! as a stream of **tokens**, one token per target clock cycle. A link with a
//! latency of `N` cycles always has exactly `N` tokens in flight: a token
//! produced by one endpoint at target cycle `m` is consumed by the other
//! endpoint at target cycle `m + N`. Because an endpoint cannot advance past
//! cycle `t` until it has received input tokens for every cycle up to `t`,
//! the global simulation is **deterministic regardless of how host execution
//! is scheduled** — across threads, processes, or machines.
//!
//! This crate provides:
//!
//! * [`Cycle`] and [`Frequency`] — target-time arithmetic.
//! * [`TokenWindow`] — a batch of one link-latency's worth of tokens, with
//!   empty (idle) tokens stored implicitly so that host cost is proportional
//!   to *traffic*, not *time*.
//! * [`SimAgent`] — the decoupled-model trait implemented by server blades,
//!   switches, and any other simulated component.
//! * [`Engine`] — the executor that wires agents together with latency
//!   channels and advances the whole target deterministically, either on the
//!   calling thread or on a pool of host threads.
//! * [`stats`] — counters, histograms (with percentiles), and time series
//!   used throughout the evaluation harness.
//! * [`rng`] — a small deterministic RNG (SplitMix64-seeded xoshiro256++) so
//!   that simulations are reproducible bit-for-bit across runs and platforms.
//!
//! ## Example
//!
//! Two agents connected by a 4-cycle link; one sends a value every cycle, the
//! other checks that values arrive exactly 4 cycles after they were sent:
//!
//! ```
//! use firesim_core::{Engine, SimAgent, Cycle, AgentCtx};
//!
//! struct Sender;
//! impl SimAgent for Sender {
//!     type Token = u64;
//!     fn name(&self) -> &str { "sender" }
//!     fn num_inputs(&self) -> usize { 0 }
//!     fn num_outputs(&self) -> usize { 1 }
//!     fn advance(&mut self, ctx: &mut AgentCtx<u64>) {
//!         let base = ctx.now().as_u64();
//!         for i in 0..ctx.window() {
//!             ctx.push_output(0, i, base + u64::from(i));
//!         }
//!     }
//! }
//!
//! struct Checker;
//! impl SimAgent for Checker {
//!     type Token = u64;
//!     fn name(&self) -> &str { "checker" }
//!     fn num_inputs(&self) -> usize { 1 }
//!     fn num_outputs(&self) -> usize { 0 }
//!     fn advance(&mut self, ctx: &mut AgentCtx<u64>) {
//!         let base = ctx.now().as_u64();
//!         for (off, v) in ctx.take_input(0).into_iter() {
//!             let arrival = base + u64::from(off);
//!             // Sent at cycle v, latency 4.
//!             assert_eq!(arrival, v + 4);
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(4); // window = 4 cycles
//! let s = engine.add_agent(Box::new(Sender));
//! let c = engine.add_agent(Box::new(Checker));
//! engine.connect(s, 0, c, 0, Cycle::new(4)).unwrap();
//! engine.run_for(Cycle::new(64)).unwrap();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod channel;
pub mod engine;
pub mod error;
pub mod fault;
pub mod metrics;
pub mod rng;
pub mod scenario;
pub mod snapshot;
pub mod stats;
pub mod sync;
pub mod time;
pub mod token;

pub use channel::{link, LinkReceiver, LinkSender};
pub use engine::{
    combined_digest, AbortHandle, AgentCtx, AgentId, BoundaryInput, BoundaryOutput, Engine,
    EngineCheckpoint, LinkOccupancy, ProgressProbe, RoundExchange, RunSummary, SimAgent,
};
pub use error::{SimError, SimResult};
pub use fault::{FaultKind, FaultPlan, FaultRecord, FaultTarget, RecoveryTimeline, TimelinePoint};
pub use metrics::{
    AgentIntervalSample, AgentProfile, IntervalProbe, IntervalSnapshot, MetricsRegistry,
    MetricsShard, MetricsSnapshot, SpanBuffer, SpanTracer, TraceEvent,
};
pub use rng::SimRng;
pub use scenario::{
    CompiledScenario, EventKind, LinkEffect, LinkEffectWindow, PressureWindow, Scenario,
    ScenarioEvent, ScenarioLink, ScenarioTopo,
};
pub use snapshot::{Checkpoint, Snapshot, SnapshotReader, SnapshotWriter};
pub use sync::{BarrierCancelled, EpochBarrier};
pub use time::{Cycle, Frequency};
pub use token::TokenWindow;
