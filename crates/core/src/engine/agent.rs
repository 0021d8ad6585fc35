//! Agents: the [`SimAgent`] trait, the [`AgentCtx`] handed to each
//! `advance`, and how the engine registers and steps one agent.

use std::sync::atomic::AtomicBool;

use super::{AgentId, Engine};
use crate::channel::{LinkReceiver, LinkSender};
use crate::error::{SimError, SimResult};
use crate::fault::{AgentFaults, HostFaultAction};
use crate::metrics::AgentProfile;
use crate::snapshot::Checkpoint;
use crate::time::Cycle;
use crate::token::TokenWindow;

/// A simulated component that advances in token windows.
///
/// Implementors include server blades (whose `advance` runs a cycle-accurate
/// SoC model for `window` cycles) and switches (which run the store-and-
/// forward switching algorithm over the window). The token type is the unit
/// of per-cycle data on this agent's links — for the datacenter simulation
/// it is a network flit.
pub trait SimAgent: Send {
    /// Per-cycle payload carried on this agent's links.
    type Token: Send + 'static;

    /// Short human-readable name, used in error messages.
    fn name(&self) -> &str;

    /// Number of input ports. Every port must be connected before running.
    fn num_inputs(&self) -> usize;

    /// Number of output ports. Every port must be connected before running.
    fn num_outputs(&self) -> usize;

    /// Advances the agent by one window of target cycles.
    ///
    /// The context carries one input [`TokenWindow`] per input port and
    /// empty output windows to fill. Implementations must model exactly
    /// `ctx.window()` cycles.
    ///
    /// Prefer consuming inputs with [`AgentCtx::drain_input`] (which keeps
    /// the window's buffer recyclable) over [`AgentCtx::take_input`].
    fn advance(&mut self, ctx: &mut AgentCtx<Self::Token>);

    /// True when this agent has finished its work (e.g. a blade has powered
    /// off). [`Engine::run_until_done`] stops once every agent is done.
    fn done(&self) -> bool {
        false
    }

    /// Checkpoint support, when this agent has it. Agents that return their
    /// [`Checkpoint`] view here participate in [`Engine::checkpoint`] /
    /// [`Engine::restore`]; the default (`None`) makes engine-level
    /// checkpointing fail with a [`SimError::Checkpoint`] naming the agent.
    fn as_checkpoint(&mut self) -> Option<&mut dyn Checkpoint> {
        None
    }

    /// Appends this agent's application-level counters as `(name, value)`
    /// pairs — e.g. a switch's forwarded-frame count or a NIC's packet
    /// counts. Used by observability reports; the default exports nothing.
    ///
    /// Counter values must be functions of the deterministic simulation
    /// alone (no host timing), so reports are reproducible.
    fn app_counters(&self, _out: &mut Vec<(String, u64)>) {}
}

/// Execution context handed to [`SimAgent::advance`] each round.
///
/// Offsets passed to [`push_output`](AgentCtx::push_output) are relative to
/// the start of the current window; the absolute target cycle is
/// `ctx.now() + offset`.
#[derive(Debug)]
pub struct AgentCtx<T> {
    now: Cycle,
    window: u32,
    inputs: Vec<TokenWindow<T>>,
    outputs: Vec<TokenWindow<T>>,
    stop: bool,
}

impl<T> AgentCtx<T> {
    /// Builds a free-standing context for driving an agent by hand (unit
    /// tests, trace replay, co-simulation harnesses).
    ///
    /// # Panics
    ///
    /// Panics if any input window's length differs from `window` or if
    /// `window` is zero.
    pub fn standalone(
        now: Cycle,
        window: u32,
        inputs: Vec<TokenWindow<T>>,
        num_outputs: usize,
    ) -> Self {
        assert!(window > 0, "window must be nonzero");
        for w in &inputs {
            assert_eq!(w.len(), window, "input window length mismatch");
        }
        AgentCtx {
            now,
            window,
            inputs,
            outputs: (0..num_outputs).map(|_| TokenWindow::new(window)).collect(),
            stop: false,
        }
    }

    /// Consumes the context, returning the output windows that the agent
    /// produced. Counterpart of [`AgentCtx::standalone`].
    pub fn into_outputs(self) -> Vec<TokenWindow<T>> {
        self.outputs
    }

    /// Target cycle at the start of this window.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Window length in cycles.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Takes the input window for `port`, leaving an empty one behind.
    ///
    /// Prefer [`AgentCtx::drain_input`] on hot paths: taking the window
    /// removes its buffer from the link's recycling loop, so the sender
    /// has to re-grow a fresh buffer every round.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn take_input(&mut self, port: usize) -> TokenWindow<T> {
        let w = self.inputs[port].len();
        std::mem::replace(&mut self.inputs[port], TokenWindow::new(w))
    }

    /// Drains the input window for `port` in place, yielding
    /// `(offset, payload)` pairs in cycle order. The window's buffer stays
    /// behind (empty) and is recycled back to the link after `advance`
    /// returns, keeping the steady-state round allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn drain_input(&mut self, port: usize) -> impl Iterator<Item = (u32, T)> + '_ {
        self.inputs[port].drain()
    }

    /// Borrows the input window for `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn input(&self, port: usize) -> &TokenWindow<T> {
        &self.inputs[port]
    }

    /// Pushes a valid token on output `port` at cycle-offset `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range, `offset` is outside the window, or
    /// tokens are pushed out of cycle order (at most one token per cycle).
    pub fn push_output(&mut self, port: usize, offset: u32, token: T) {
        if self.outputs[port].push(offset, token).is_err() {
            panic!(
                "push_output: offset {offset} out of range or out of order (window {})",
                self.window
            );
        }
    }

    /// Mutable access to the raw output window for `port`, for models that
    /// assemble windows themselves.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn output_mut(&mut self, port: usize) -> &mut TokenWindow<T> {
        &mut self.outputs[port]
    }

    /// Requests that the whole simulation stop at the next deterministic
    /// boundary (see [`Engine::run_until_done`]).
    pub fn request_stop(&mut self) {
        self.stop = true;
    }
}

pub(super) struct AgentSlot<T> {
    /// Position in the engine's agent list, so a worker can own any subset
    /// of the slots.
    pub(super) index: usize,
    pub(super) agent: Box<dyn SimAgent<Token = T>>,
    pub(super) inputs: Vec<Option<LinkReceiver<T>>>,
    pub(super) outputs: Vec<Option<LinkSender<T>>>,
    /// Reused between rounds so `step_agent` never allocates once warm.
    pub(super) scratch_in: Vec<TokenWindow<T>>,
    pub(super) scratch_out: Vec<TokenWindow<T>>,
    /// Token/host-time accounting, updated only when metrics are enabled.
    /// The stepping worker owns the slot, so plain stores suffice.
    pub(super) profile: AgentProfile,
}

impl<T: Send + 'static> Engine<T> {
    /// Registers an agent and returns its id.
    pub fn add_agent(&mut self, agent: Box<dyn SimAgent<Token = T>>) -> AgentId {
        let id = AgentId(self.agents.len());
        let n_in = agent.num_inputs();
        let n_out = agent.num_outputs();
        self.agents.push(AgentSlot {
            index: id.0,
            agent,
            inputs: (0..n_in).map(|_| None).collect(),
            outputs: (0..n_out).map(|_| None).collect(),
            scratch_in: Vec::with_capacity(n_in),
            scratch_out: Vec::with_capacity(n_out),
            profile: AgentProfile::default(),
        });
        id
    }

    /// Immutable access to a registered agent.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this engine.
    pub fn agent(&self, id: AgentId) -> &dyn SimAgent<Token = T> {
        self.agents[id.0].agent.as_ref()
    }
}

fn closed_by_peer(agent: &str) -> SimError {
    SimError::ChannelClosed {
        agent: agent.to_owned(),
    }
}

/// Advances one agent by one window. Returns `true` when the agent
/// requested a simulation stop via [`AgentCtx::request_stop`].
///
/// Blocking channel operations wake on `halt`, so that one worker failing
/// cannot deadlock the rest.
///
/// Steady-state this performs **zero heap allocations**: input windows are
/// received into the slot's scratch vector and recycled back to their link
/// after `advance`; output windows come from each link's spare-buffer pool.
///
/// Always inlined into the worker loop, its one caller: left to the
/// optimiser, the call stayed out of line and cost a one-worker round
/// ~10 % (`core.engine.empty_round_ns`).
#[inline(always)]
pub(super) fn step_agent<T: Send + 'static>(
    slot: &mut AgentSlot<T>,
    now: Cycle,
    window: u32,
    halt: &AtomicBool,
    faults: Option<&AgentFaults>,
    profiling: bool,
) -> SimResult<bool> {
    let mut inject_panic: Option<String> = None;
    if let Some(faults) = faults {
        let name = slot.agent.name();
        for action in faults.due_host_faults(name, now.as_u64(), window) {
            match action {
                HostFaultAction::Stall(millis) => {
                    std::thread::sleep(std::time::Duration::from_millis(millis));
                }
                HostFaultAction::DropChannel(port) => {
                    if let Some(Some(rx)) = slot.inputs.get(port) {
                        rx.poison();
                    }
                    return Err(SimError::agent(
                        name,
                        format!(
                            "injected channel drop on input port {port} at cycle {}",
                            now.as_u64()
                        ),
                    ));
                }
                HostFaultAction::Panic(message) => inject_panic = Some(message),
            }
        }
    }

    let mut inputs = std::mem::take(&mut slot.scratch_in);
    debug_assert!(inputs.is_empty());
    // Every port is connected: a run checks the wiring before it starts.
    for rx in slot.inputs.iter().flatten() {
        match rx.recv_or_halt(Some(halt)) {
            Ok(Some(w)) => inputs.push(w),
            // Halted while waiting, or the peer is gone.
            Ok(None) | Err(_) => return Err(closed_by_peer(slot.agent.name())),
        }
    }
    if let Some(faults) = faults {
        faults.mask_inputs(slot.agent.name(), &mut inputs, now.as_u64(), window);
    }
    if profiling {
        slot.profile.windows_in += inputs.len() as u64;
        slot.profile.tokens_in += inputs.iter().map(|w| w.occupancy() as u64).sum::<u64>();
    }
    let mut outputs = std::mem::take(&mut slot.scratch_out);
    debug_assert!(outputs.is_empty());
    outputs.extend(slot.outputs.iter().flatten().map(LinkSender::take_buffer));

    let mut ctx = AgentCtx {
        now,
        window,
        inputs,
        outputs,
        stop: false,
    };
    let step = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(message) = inject_panic {
            panic!("{message}");
        }
        slot.agent.advance(&mut ctx);
    }));
    if let Err(payload) = step {
        return Err(SimError::AgentPanicked {
            agent: slot.agent.name().to_owned(),
            cycle: now.as_u64(),
            message: panic_message(payload.as_ref()),
        });
    }
    let AgentCtx {
        mut inputs,
        mut outputs,
        stop,
        ..
    } = ctx;
    if profiling {
        slot.profile.windows_out += outputs.len() as u64;
        slot.profile.tokens_out += outputs.iter().map(|w| w.occupancy() as u64).sum::<u64>();
    }

    // Hand consumed input buffers back to their links for reuse.
    for (rx, w) in slot.inputs.iter().flatten().zip(inputs.drain(..)) {
        rx.recycle(w);
    }
    slot.scratch_in = inputs;

    for (tx, w) in slot.outputs.iter().flatten().zip(outputs.drain(..)) {
        if tx.send_or_halt(w, Some(halt))?.is_some() {
            // Halted while the link was full.
            return Err(closed_by_peer(slot.agent.name()));
        }
    }
    slot.scratch_out = outputs;
    // host_ns is accounted by the caller, which chains one clock read per
    // step instead of bracketing each step with two.
    if profiling {
        slot.profile.rounds += 1;
        slot.profile.target_cycles += window as u64;
    }
    Ok(stop)
}

/// Best-effort rendering of a panic payload: the common `&str` / `String`
/// payloads come through verbatim, anything else is described opaquely.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}
