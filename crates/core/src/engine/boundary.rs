//! Cross-process links (§III-B2): the boundary ports an external pump
//! feeds and drains, and the end-of-run wait for them to quiesce.

use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

use super::{attach, link_quiescent, AgentId, Engine};
use crate::channel::{link, LinkReceiver, LinkSender};
use crate::error::{SimError, SimResult};
use crate::time::Cycle;
use crate::token::TokenWindow;

/// The injecting half of a cross-process link: windows received from a
/// peer shard are pushed here and flow to the destination agent after the
/// link's modeled latency. Created by [`Engine::connect_external_input`].
///
/// The underlying channel is bounded (capacity `latency / window + 1`
/// windows), so injection naturally back-pressures a transport pump that
/// runs ahead of the consuming agent — host scheduling can never violate
/// the paper's token flow control (§III-B2).
#[derive(Debug)]
pub struct BoundaryInput<T> {
    tx: LinkSender<T>,
    agent: String,
    port: usize,
}

impl<T: Send + 'static> BoundaryInput<T> {
    /// Name of the agent this boundary feeds.
    pub fn agent(&self) -> &str {
        &self.agent
    }

    /// The destination agent's input port.
    pub fn port(&self) -> usize {
        self.port
    }

    /// Window length in cycles.
    pub fn window(&self) -> u32 {
        self.tx.window()
    }

    /// Modeled link latency in cycles.
    pub fn latency(&self) -> Cycle {
        self.tx.latency()
    }

    /// A spare window buffer to fill before injecting (recycled, so the
    /// steady state allocates nothing).
    pub fn take_buffer(&self) -> TokenWindow<T> {
        self.tx.take_buffer()
    }

    /// Injects one window, blocking while the link is at capacity. Returns
    /// `Ok(Some(w))` — the window handed back untouched — when `halt` was
    /// set before space appeared, `Ok(None)` on success.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ChannelClosed`] when the consuming engine has
    /// torn the link down.
    pub fn inject_or_halt(
        &self,
        w: TokenWindow<T>,
        halt: &AtomicBool,
    ) -> SimResult<Option<TokenWindow<T>>> {
        self.tx.send_or_halt(w, Some(halt))
    }
}

/// The draining half of a cross-process link: windows the source agent
/// produced are pulled here, one per simulated round, for shipment to the
/// peer shard. Created by [`Engine::connect_external_output`].
#[derive(Debug)]
pub struct BoundaryOutput<T> {
    rx: LinkReceiver<T>,
    agent: String,
    port: usize,
}

impl<T: Send + 'static> BoundaryOutput<T> {
    /// Name of the agent this boundary drains.
    pub fn agent(&self) -> &str {
        &self.agent
    }

    /// The source agent's output port.
    pub fn port(&self) -> usize {
        self.port
    }

    /// Window length in cycles.
    pub fn window(&self) -> u32 {
        self.rx.window()
    }

    /// Modeled link latency in cycles.
    pub fn latency(&self) -> Cycle {
        self.rx.latency()
    }

    /// Drains one produced window, blocking until the agent sends one.
    /// Returns `Ok(None)` when `halt` was set **and** no window is queued —
    /// so a halting pump always flushes what the agent already produced.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ChannelClosed`] when the producing engine has
    /// torn the link down.
    pub fn drain_or_halt(&self, halt: &AtomicBool) -> SimResult<Option<TokenWindow<T>>> {
        self.rx.recv_or_halt(Some(halt))
    }

    /// Returns a shipped window's buffer to the spare pool, keeping the
    /// producing agent's sends allocation-free.
    pub fn recycle(&self, w: TokenWindow<T>) {
        self.rx.recycle(w)
    }
}

impl<T: Send + 'static> Engine<T> {
    /// Connects `dst`'s input port to a sender *outside* this engine — the
    /// receiving half of a cross-process link (§III-B2).
    ///
    /// The underlying channel is created exactly as by [`Engine::connect`]:
    /// pre-seeded with `latency / window` empty windows, so the full target
    /// link latency is modeled **on the receiving shard**. An external pump
    /// (e.g. `manager::partition`'s transport pumps) injects one window per
    /// simulated round through the returned [`BoundaryInput`]; the agent
    /// consumes the seed windows first and sees every remote token exactly
    /// `latency` cycles after it was produced — bit-identical to a
    /// monolithic in-process link.
    ///
    /// At the end of every run the engine waits (bounded by
    /// [`Engine::set_boundary_quiesce_timeout`]) until each boundary input
    /// has been refilled to its seeded occupancy, so runs still end at the
    /// paper's quiescent boundary where a latency-*N* link holds exactly
    /// *N* tokens — the property [`Engine::checkpoint`] relies on. A peer
    /// shard already into its next run may have sent more; that link is
    /// quiescent too, for the wait and for
    /// [`Engine::verify_token_invariant`] alike.
    ///
    /// # Errors
    ///
    /// As for [`Engine::connect`]: bad id/port, double connection, or a
    /// latency that is not a nonzero multiple of the window.
    pub fn connect_external_input(
        &mut self,
        dst: AgentId,
        dst_port: usize,
        latency: Cycle,
    ) -> SimResult<BoundaryInput<T>> {
        let (tx, rx) = link(self.window, latency)?;
        let d = self.slot_mut(dst)?;
        attach(&mut d.inputs, rx, d.agent.name(), "input", dst_port)?;
        let agent = d.agent.name().to_owned();
        self.boundary_inputs.push((dst.0, dst_port));
        Ok(BoundaryInput {
            tx,
            agent,
            port: dst_port,
        })
    }

    /// Connects `src`'s output port to a receiver *outside* this engine —
    /// the sending half of a cross-process link (§III-B2).
    ///
    /// The channel's seed windows are drained at creation, so
    /// this side contributes **zero** modeled latency (the receiving shard's
    /// [`Engine::connect_external_input`] link models all of it); what
    /// remains is a bounded host-side buffer of `latency / window + 1`
    /// windows that back-pressures the producing agent exactly as far as
    /// token flow control would in a monolithic engine. An external pump
    /// drains one window per simulated round through the returned
    /// [`BoundaryOutput`] and ships it to the peer shard.
    ///
    /// # Errors
    ///
    /// As for [`Engine::connect`].
    pub fn connect_external_output(
        &mut self,
        src: AgentId,
        src_port: usize,
        latency: Cycle,
    ) -> SimResult<BoundaryOutput<T>> {
        let (tx, rx) = link(self.window, latency)?;
        let s = self.slot_mut(src)?;
        attach(&mut s.outputs, tx, s.agent.name(), "output", src_port)?;
        let agent = s.agent.name().to_owned();
        // Drain the seed windows: they model latency on the receiving shard,
        // not here.
        for _ in 0..rx.in_flight_windows() {
            rx.recv()?;
        }
        Ok(BoundaryOutput {
            rx,
            agent,
            port: src_port,
        })
    }

    /// Sets how long runs wait at their final window boundary for external
    /// boundary inputs (see [`Engine::connect_external_input`]) to return to
    /// seeded occupancy before giving up on the peer. Default 30 s.
    pub fn set_boundary_quiesce_timeout(&mut self, timeout: Duration) -> &mut Self {
        self.boundary_quiesce_timeout = timeout;
        self
    }

    /// Blocks until every boundary input link holds its seeded
    /// `latency / window` windows again — i.e. until the external pumps
    /// have delivered every window the peer shard produced for the rounds
    /// just run. No-op without boundary inputs.
    pub(super) fn wait_boundary_quiesce(&self) -> SimResult<()> {
        if self.boundary_inputs.is_empty() {
            return Ok(());
        }
        let deadline = Instant::now() + self.boundary_quiesce_timeout;
        for &(a, p) in &self.boundary_inputs {
            let slot = &self.agents[a];
            let rx = slot.inputs[p].as_ref().expect("boundary input is wired");
            let want = (rx.latency().as_u64() / self.window as u64) as usize;
            loop {
                let got = rx.in_flight_windows();
                if link_quiescent(got, want, true) {
                    break;
                }
                if Instant::now() >= deadline {
                    return Err(SimError::agent(
                        slot.agent.name(),
                        format!(
                            "boundary input port {p} did not quiesce: {got} of {want} \
                             windows in flight after {:?} (peer shard dead or stalled?)",
                            self.boundary_quiesce_timeout
                        ),
                    ));
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        Ok(())
    }

    /// A restore replaces every input queue, so a window a faster peer
    /// shard has already injected would be discarded and that link would
    /// run one window short for good (the engine then dies at its next
    /// boundary quiesce). Refuse instead: every shard must restore before
    /// any shard runs.
    pub(super) fn check_boundaries_unfed(&self) -> SimResult<()> {
        for &(a, p) in &self.boundary_inputs {
            let slot = &self.agents[a];
            let rx = slot.inputs[p].as_ref().expect("boundary input is wired");
            let seeded = (rx.latency().as_u64() / self.window as u64) as usize;
            if rx.in_flight_windows() > seeded {
                return Err(SimError::checkpoint(format!(
                    "boundary input port {p} of agent {} already holds a window from its \
                     peer shard; restore every shard before any shard runs",
                    slot.agent.name()
                )));
            }
        }
        Ok(())
    }
}
