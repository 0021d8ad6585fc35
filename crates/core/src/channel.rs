//! Latency-modeling token channels.
//!
//! A simulated link of latency `L` cycles always has exactly `L` tokens in
//! flight. With windows of `W` cycles (`L % W == 0`), that means `L / W`
//! windows are in flight at any moment. A [`link`] is created pre-seeded
//! with `L / W` *empty* windows, exactly like the paper's description of
//! simulation start-up ("each input token queue initialized with l tokens").
//!
//! The channel is a bounded SPSC queue built on `std::sync` primitives, but
//! the token-counting discipline means the *simulation result* never depends
//! on host-side timing: a receiver simply blocks until the window for its
//! next target cycle range arrives.
//!
//! # Window recycling
//!
//! Each link holds one *spare* buffer alongside the data queue. After a
//! receiver consumes a window it can return the (cleared) buffer with
//! [`LinkReceiver::recycle`]; the sender then obtains a capacity-retaining
//! buffer for its next window via [`LinkSender::take_buffer`] instead of
//! allocating. Each side returns and takes one buffer per round, so once
//! the buffers circulating on a link have grown to its traffic a
//! steady-state simulation round performs no heap allocation on the token
//! path. A window that never carried a token owns no heap memory, so there
//! is nothing to recycle: `recycle` drops it and `take_buffer` makes a new
//! one, neither touching the link lock. An idle link therefore costs one
//! short critical section per side per window (`recv`, `send`), and a busy
//! one two, as the buffer makes its way back.
//!
//! # Wake protocol
//!
//! Moving a window issues **no wake unless the peer is parked**. A side that
//! cannot proceed (receiver: queue empty; sender: queue at capacity)
//! re-checks a few times with `yield_now` between attempts, then — still
//! holding the lock under which it last found nothing to do — sets its
//! `*_waiting` flag and parks on its condvar, which releases that lock
//! atomically. The peer changes the queue under the same lock, takes the
//! flag, and notifies after unlocking only if the flag was set.
//!
//! *No wake is lost:* the waiter's last check, its registration and its
//! park are one critical section, so a peer's change is ordered either
//! before it (the check sees it; no park) or after it (the peer sees the
//! flag and wakes the waiter). The lock *is* dropped between yields, which
//! is why every pass re-checks under the lock it registers under: a waiter
//! that parked on what it saw before yielding would sleep through a change
//! made meanwhile. *No wake is wasted:* a flag is set once per park and
//! cleared by the one wake that takes it, so wakes never exceed parks, and
//! a link whose two ends share a thread never parks and never wakes.
//! Dropping a half wakes the other the same way; poisoning or restoring a
//! link is rare and notifies both condvars unconditionally.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use crate::error::{SimError, SimResult};
use crate::time::Cycle;
use crate::token::TokenWindow;

/// How long a parked halt-aware operation sleeps between halt checks.
/// Data arrival wakes the waiter immediately via condvar notification;
/// this bound only limits how stale a halt request can go unnoticed.
const HALT_POLL: Duration = Duration::from_micros(500);

/// How many times a blocked operation yields the CPU before parking on the
/// condvar. On an oversubscribed host (more workers than cores) the peer
/// usually only needs a scheduling quantum to produce or consume a window;
/// a `yield_now` hands it one at a fraction of the cost of a futex
/// sleep/wake round trip.
const SPIN_YIELDS: u32 = 3;

/// One half of a link; indexes the per-side wait/wake state.
#[derive(Debug, Clone, Copy)]
enum Side {
    Send = 0,
    Recv = 1,
}

#[derive(Debug)]
struct State<T> {
    queue: VecDeque<TokenWindow<T>>,
    /// The consumed window last returned by the receiver, ready for reuse.
    spare: Option<TokenWindow<T>>,
    cap: usize,
    tx_alive: bool,
    rx_alive: bool,
    /// Per [`Side`]: set by that side as it parks, taken by the peer that
    /// owes it a wake.
    waiting: [bool; 2],
    /// Times either side parked, and wakes issued to a registered waiter.
    parks: u64,
    wakes_issued: u64,
}

impl<T> State<T> {
    /// True when `side`'s operation would complete or fail for good.
    fn ready(&self, side: Side) -> bool {
        match side {
            Side::Send => self.queue.len() < self.cap || !self.rx_alive,
            Side::Recv => !self.queue.is_empty() || !self.tx_alive,
        }
    }
}

#[derive(Debug)]
struct Shared<T> {
    state: Mutex<State<T>>,
    /// Per [`Side`]: where that side parks. The sender's is signaled when
    /// queue space frees up or the receiver goes away, the receiver's when
    /// a window is enqueued or the sender goes away.
    cv: [Condvar; 2],
    /// Hint that `spare` is occupied, so a sender with nothing to pick up
    /// skips the lock. Written under the lock; `Relaxed` because it
    /// publishes nothing — the slot itself is only read under the lock,
    /// and a stale value costs one missed reuse or one fruitless lock.
    has_spare: AtomicBool,
    /// Test-only scheduling noise; see [`LinkSender::set_handoff_hook`].
    #[cfg(debug_assertions)]
    hook: std::sync::OnceLock<fn()>,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs the stress test's noise hook, if one is installed. Called at
    /// the two points where a wake could be lost: with a blocked side off
    /// the lock, about to re-check and register; and with a queue change
    /// visible but the wake it may owe not yet issued.
    fn hook(&self) {
        #[cfg(debug_assertions)]
        if let Some(hook) = self.hook.get() {
            hook();
        }
    }

    /// Blocks until `side` can proceed and returns the lock it can proceed
    /// under, or `None` when `halt` was set first. See the module docs for
    /// why this cannot sleep through the peer's change.
    fn wait_ready(
        &self,
        side: Side,
        halt: Option<&AtomicBool>,
    ) -> Option<MutexGuard<'_, State<T>>> {
        let mut spins = 0u32;
        let mut st = self.lock();
        loop {
            if st.ready(side) {
                return Some(st);
            }
            if halt.is_some_and(|h| h.load(Ordering::Acquire)) {
                return None;
            }
            if spins < SPIN_YIELDS {
                spins += 1;
                drop(st);
                std::thread::yield_now();
                self.hook();
                st = self.lock();
                // The peer may have acted while the lock was dropped.
                continue;
            }
            st.waiting[side as usize] = true;
            st.parks += 1;
            let cv = &self.cv[side as usize];
            st = match halt {
                Some(_) => match cv.wait_timeout(st, HALT_POLL) {
                    Ok((guard, _)) => guard,
                    Err(e) => e.into_inner().0,
                },
                None => cv.wait(st).unwrap_or_else(|e| e.into_inner()),
            };
            // A timeout or spurious wakeup leaves the flag for us to clear.
            st.waiting[side as usize] = false;
        }
    }

    /// Makes a change to the queue or to this side's liveness visible to
    /// `peer`: releases the lock and wakes the peer if, and only if, it
    /// registered itself as parked.
    fn publish(&self, mut st: MutexGuard<'_, State<T>>, peer: Side) {
        let wake = std::mem::take(&mut st.waiting[peer as usize]);
        st.wakes_issued += u64::from(wake);
        drop(st);
        self.hook();
        if wake {
            self.cv[peer as usize].notify_one();
        }
    }

    /// Applies a change to both sides' state (poison, restore) and wakes
    /// both unconditionally.
    fn update_all(&self, change: impl FnOnce(&mut State<T>)) {
        change(&mut self.lock());
        self.cv.iter().for_each(Condvar::notify_all);
    }
}

fn closed(peer: &str) -> SimError {
    SimError::ChannelClosed {
        agent: peer.to_owned(),
    }
}

/// Sending half of a simulation link.
#[derive(Debug)]
pub struct LinkSender<T> {
    shared: Arc<Shared<T>>,
    window: u32,
    latency: Cycle,
}

/// Receiving half of a simulation link.
#[derive(Debug)]
pub struct LinkReceiver<T> {
    shared: Arc<Shared<T>>,
    window: u32,
    latency: Cycle,
}

/// Creates a simulation link with the given `latency`, exchanging windows of
/// `window` cycles. The link is seeded with `latency / window` empty windows
/// so both endpoints can begin executing immediately.
///
/// # Errors
///
/// Returns [`SimError::BadLatency`] when `latency` is zero or not a multiple
/// of `window`.
///
/// # Examples
///
/// ```
/// use firesim_core::{link, TokenWindow, Cycle};
///
/// let (tx, rx) = link::<u8>(4, Cycle::new(8)).unwrap();
/// // Two seed windows are already in flight.
/// assert_eq!(rx.in_flight_windows(), 2);
/// assert_eq!(rx.recv().unwrap().len(), 4);
/// assert!(rx.recv().unwrap().is_empty());
/// let mut w = TokenWindow::new(4);
/// w.push(1, 0xab).unwrap();
/// tx.send(w).unwrap();
/// assert_eq!(rx.recv().unwrap().get(1), Some(&0xab));
/// ```
pub fn link<T>(window: u32, latency: Cycle) -> SimResult<(LinkSender<T>, LinkReceiver<T>)> {
    if window == 0 || latency == Cycle::ZERO || !latency.is_multiple_of(Cycle::new(window as u64)) {
        return Err(SimError::BadLatency {
            latency: latency.as_u64(),
            window,
        });
    }
    let in_flight = (latency.as_u64() / window as u64) as usize;
    // One extra slot so a producer finishing its round never blocks on a
    // consumer that has not yet started its round.
    let cap = in_flight + 1;
    let mut queue = VecDeque::with_capacity(cap);
    for _ in 0..in_flight {
        queue.push_back(TokenWindow::new(window));
    }
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue,
            spare: None,
            cap,
            tx_alive: true,
            rx_alive: true,
            waiting: [false; 2],
            parks: 0,
            wakes_issued: 0,
        }),
        cv: [Condvar::new(), Condvar::new()],
        has_spare: AtomicBool::new(false),
        #[cfg(debug_assertions)]
        hook: std::sync::OnceLock::new(),
    });
    Ok((
        LinkSender {
            shared: Arc::clone(&shared),
            window,
            latency,
        },
        LinkReceiver {
            shared,
            window,
            latency,
        },
    ))
}

impl<T> LinkSender<T> {
    /// The window length (cycles) this link exchanges.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Identifies the link: both of its ends return the same value, and
    /// no other live link does.
    pub(crate) fn link_id(&self) -> usize {
        Arc::as_ptr(&self.shared) as usize
    }

    /// The modeled link latency.
    pub fn latency(&self) -> Cycle {
        self.latency
    }

    /// Installs `hook` at this link's hand-off points, on both halves, so
    /// a stress test can inject scheduling noise there. The first call
    /// wins. Debug builds only: release builds carry no hook.
    #[cfg(debug_assertions)]
    #[doc(hidden)]
    pub fn set_handoff_hook(&self, hook: fn()) {
        let _ = self.shared.hook.set(hook);
    }

    /// Takes the link's recycled buffer, or a fresh empty window when
    /// there is none.
    ///
    /// The returned window is empty, has `len() == self.window()`, and —
    /// when it was recycled — retains the heap capacity of its previous
    /// life, so refilling it does not allocate. With nothing to pick up
    /// this takes no lock.
    pub fn take_buffer(&self) -> TokenWindow<T> {
        if self.shared.has_spare.load(Ordering::Relaxed) {
            let mut st = self.shared.lock();
            let spare = st.spare.take();
            self.shared.has_spare.store(false, Ordering::Relaxed);
            drop(st);
            if let Some(mut w) = spare {
                w.reset(self.window);
                return w;
            }
        }
        TokenWindow::new(self.window)
    }

    /// Sends one window of tokens, blocking while the link is full.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WindowMismatch`] if the window length is wrong,
    /// or [`SimError::ChannelClosed`] if the receiver has been dropped.
    pub fn send(&self, w: TokenWindow<T>) -> SimResult<()> {
        self.send_or_halt(w, None).map(drop)
    }

    /// Sends one window, blocking until space frees up or `halt` is set
    /// (never, for `None`).
    ///
    /// Returns the window back as `Ok(Some(w))` when halted before space
    /// became available. Halt detection lags at most ~500µs; data-side
    /// wakeups are immediate.
    ///
    /// # Errors
    ///
    /// As for [`LinkSender::send`].
    pub fn send_or_halt(
        &self,
        w: TokenWindow<T>,
        halt: Option<&AtomicBool>,
    ) -> SimResult<Option<TokenWindow<T>>> {
        if w.len() != self.window {
            return Err(SimError::WindowMismatch {
                expected: self.window,
                actual: w.len(),
            });
        }
        let Some(mut st) = self.shared.wait_ready(Side::Send, halt) else {
            return Ok(Some(w));
        };
        if !st.rx_alive {
            return Err(closed("<receiver>"));
        }
        st.queue.push_back(w);
        self.shared.publish(st, Side::Recv);
        Ok(None)
    }
}

impl<T> Drop for LinkSender<T> {
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        st.tx_alive = false;
        self.shared.publish(st, Side::Recv);
    }
}

impl<T> LinkReceiver<T> {
    /// The window length (cycles) this link exchanges.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// See [`LinkSender::link_id`].
    pub(crate) fn link_id(&self) -> usize {
        Arc::as_ptr(&self.shared) as usize
    }

    /// The modeled link latency.
    pub fn latency(&self) -> Cycle {
        self.latency
    }

    /// Number of windows currently in flight (produced but not yet
    /// consumed). When both endpoints are quiescent at a window boundary,
    /// this is exactly `latency / window` — the paper's token-transport
    /// invariant ("a latency-*l* link always has *l* tokens in flight").
    pub fn in_flight_windows(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Wakes this link has issued to a parked peer, in either direction.
    /// Never exceeds [`LinkReceiver::parks`]; test instrumentation.
    #[doc(hidden)]
    pub fn wakes_issued(&self) -> u64 {
        self.shared.lock().wakes_issued
    }

    /// Times either half of this link parked on its condvar.
    #[doc(hidden)]
    pub fn parks(&self) -> u64 {
        self.shared.lock().parks
    }

    /// Returns a consumed window's buffer to the link so the sender can
    /// reuse its heap capacity.
    ///
    /// The payloads still in `w` are dropped here. A buffer that never
    /// held a token has no capacity to reuse and is dropped without
    /// taking the lock. The link keeps one spare — each side returns and
    /// takes one buffer per round, so a second only arrives when one side
    /// has run ahead, and is dropped rather than held for good.
    pub fn recycle(&self, mut w: TokenWindow<T>) {
        if w.capacity() == 0 {
            return;
        }
        w.clear();
        let mut st = self.shared.lock();
        if st.spare.is_none() {
            st.spare = Some(w);
            self.shared.has_spare.store(true, Ordering::Relaxed);
        }
    }

    /// Receives the next window, blocking until the peer produces it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ChannelClosed`] if the sender has been dropped
    /// and the queue is empty.
    pub fn recv(&self) -> SimResult<TokenWindow<T>> {
        self.recv_or_halt(None)
            .map(|w| w.expect("without a halt flag a receive never halts"))
    }

    /// Receives the next window, blocking until one arrives or `halt` is
    /// set (never, for `None`).
    ///
    /// Returns `Ok(None)` when `halt` was set **and** no window is queued.
    /// Halt detection lags at most ~500µs; data-side wakeups are
    /// immediate.
    ///
    /// # Errors
    ///
    /// As for [`LinkReceiver::recv`].
    pub fn recv_or_halt(&self, halt: Option<&AtomicBool>) -> SimResult<Option<TokenWindow<T>>> {
        let Some(mut st) = self.shared.wait_ready(Side::Recv, halt) else {
            return Ok(None);
        };
        let Some(w) = st.queue.pop_front() else {
            return Err(closed("<sender>"));
        };
        self.shared.publish(st, Side::Send);
        Ok(Some(w))
    }

    /// Clones the queued (in-flight) windows, oldest first, without
    /// consuming them. Checkpointing primitive: between engine rounds the
    /// queue holds exactly `latency / window` windows, so this captures the
    /// link's complete in-flight state.
    pub(crate) fn queue_snapshot(&self) -> Vec<TokenWindow<T>>
    where
        T: Clone,
    {
        let st = self.shared.lock();
        st.queue.iter().cloned().collect()
    }

    /// Replaces the queued windows with `windows` (oldest first). Restore
    /// primitive; the spare buffer is left alone. Also brings the link back
    /// up if it was torn down by [`LinkReceiver::poison`]: both endpoints
    /// are still owned by the engine's agent slots, so after a restore the
    /// link is whole again — this is what lets a supervisor retry past an
    /// injected channel-drop fault.
    pub(crate) fn replace_queue(&self, windows: Vec<TokenWindow<T>>) {
        self.shared.update_all(|st| {
            st.queue.clear();
            st.queue.extend(windows);
            st.tx_alive = true;
            st.rx_alive = true;
        });
    }

    /// Tears the link down as if both endpoints vanished: in-flight windows
    /// are discarded and any blocked or future operation on either half
    /// fails with [`SimError::ChannelClosed`]. Fault-injection primitive.
    pub(crate) fn poison(&self) {
        self.shared.update_all(|st| {
            st.queue.clear();
            st.tx_alive = false;
            st.rx_alive = false;
        });
    }
}

impl<T> Drop for LinkReceiver<T> {
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        st.rx_alive = false;
        self.shared.publish(st, Side::Send);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_seeds_latency_tokens() {
        let (_tx, rx) = link::<u32>(100, Cycle::new(300)).unwrap();
        assert_eq!(rx.in_flight_windows(), 3);
        for _ in 0..3 {
            let w = rx.recv().unwrap();
            assert_eq!(w.len(), 100);
            assert!(w.is_empty());
        }
        assert_eq!(rx.in_flight_windows(), 0);
    }

    #[test]
    fn rejects_bad_latency() {
        assert!(matches!(
            link::<u8>(100, Cycle::new(150)),
            Err(SimError::BadLatency { .. })
        ));
        assert!(matches!(
            link::<u8>(100, Cycle::ZERO),
            Err(SimError::BadLatency { .. })
        ));
        assert!(matches!(
            link::<u8>(0, Cycle::new(100)),
            Err(SimError::BadLatency { .. })
        ));
    }

    #[test]
    fn send_rejects_wrong_window() {
        let (tx, _rx) = link::<u8>(8, Cycle::new(8)).unwrap();
        let w = TokenWindow::new(4);
        assert!(matches!(
            tx.send(w),
            Err(SimError::WindowMismatch {
                expected: 8,
                actual: 4
            })
        ));
    }

    #[test]
    fn payloads_cross_in_order() {
        let (tx, rx) = link::<u64>(4, Cycle::new(4)).unwrap();
        let _seed = rx.recv().unwrap();
        // The channel is bounded (1 window in flight + 1 slot), so interleave
        // sends and receives the way an engine round does.
        for round in 0..10u64 {
            let mut w = TokenWindow::new(4);
            w.push(0, round).unwrap();
            tx.send(w).unwrap();
            let got = rx.recv().unwrap();
            assert_eq!(got.get(0), Some(&round));
        }
    }

    #[test]
    fn closed_channel_errors() {
        let (tx, rx) = link::<u8>(4, Cycle::new(4)).unwrap();
        drop(rx);
        assert!(matches!(
            tx.send(TokenWindow::new(4)),
            Err(SimError::ChannelClosed { .. })
        ));

        let (tx, rx) = link::<u8>(4, Cycle::new(4)).unwrap();
        drop(tx);
        let _seed = rx.recv().unwrap(); // the seed window is still there
        assert!(matches!(rx.recv(), Err(SimError::ChannelClosed { .. })));
    }

    #[test]
    fn recycled_buffers_flow_back_to_sender() {
        let (tx, rx) = link::<u64>(8, Cycle::new(8)).unwrap();
        let mut w = tx.take_buffer();
        w.push(3, 42).unwrap();
        tx.send(w).unwrap();
        let _seed = rx.recv().unwrap();
        let got = rx.recv().unwrap();
        assert_eq!(got.get(3), Some(&42));
        let grown = got.capacity();
        assert!(grown > 0);

        // The recycled buffer comes back empty, full length, same capacity,
        // and stale payloads never leak.
        rx.recycle(got);
        let again = tx.take_buffer();
        assert_eq!((again.len(), again.capacity()), (8, grown));
        assert!(again.is_empty());
        assert_eq!(again.get(3), None);
    }

    #[test]
    fn buffers_without_capacity_are_not_pooled() {
        let (tx, rx) = link::<u8>(16, Cycle::new(16)).unwrap();
        rx.recycle(rx.recv().unwrap()); // the seed never held a token
        let w = tx.take_buffer();
        assert_eq!((w.len(), w.capacity()), (16, 0));
        assert!(w.is_empty());
    }

    #[test]
    fn spare_pool_is_bounded() {
        let (tx, rx) = link::<u8>(4, Cycle::new(4)).unwrap();
        // The link keeps one spare; recycling more than that discards.
        for _ in 0..10 {
            rx.recycle(TokenWindow::with_capacity(4, 8));
        }
        let pooled = (0..10).filter(|_| tx.take_buffer().capacity() > 0).count();
        assert_eq!(pooled, 1, "the link must keep exactly one spare");
    }

    #[test]
    fn recv_or_halt_returns_on_halt() {
        let (tx, rx) = link::<u8>(4, Cycle::new(4)).unwrap();
        let _seed = rx.recv().unwrap(); // drain the seed window
        let halt = AtomicBool::new(true);
        assert!(rx.recv_or_halt(Some(&halt)).unwrap().is_none());

        // With data present, halt does not mask delivery.
        tx.send(TokenWindow::new(4)).unwrap();
        assert!(rx.recv_or_halt(Some(&halt)).unwrap().is_some());
    }

    #[test]
    fn send_or_halt_returns_window_on_halt() {
        let (tx, rx) = link::<u8>(4, Cycle::new(4)).unwrap();
        // Queue is seeded with 1 window, cap 2: one more send fills it.
        tx.send(TokenWindow::new(4)).unwrap();
        let halt = AtomicBool::new(true);
        let w = tx.send_or_halt(TokenWindow::new(4), Some(&halt)).unwrap();
        assert!(w.is_some(), "full link + halt must hand the window back");
        drop(rx);
    }

    #[test]
    fn queue_snapshot_and_replace_round_trip() {
        let (tx, rx) = link::<u64>(4, Cycle::new(8)).unwrap();
        // Two seeded windows in flight; put a payload in a third... the cap
        // is 3, so consume one first to stay realistic.
        let seed = rx.recv().unwrap();
        rx.recycle(seed);
        let mut w = TokenWindow::new(4);
        w.push(2, 99).unwrap();
        tx.send(w).unwrap();
        let snap = rx.queue_snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[1].get(2), Some(&99));
        // Drain, then restore from the snapshot.
        rx.replace_queue(Vec::new());
        assert_eq!(rx.in_flight_windows(), 0);
        rx.replace_queue(snap);
        let first = rx.recv().unwrap();
        assert!(first.is_empty());
        let second = rx.recv().unwrap();
        assert_eq!(second.get(2), Some(&99));
    }

    #[test]
    fn poison_fails_both_halves() {
        let (tx, rx) = link::<u8>(4, Cycle::new(4)).unwrap();
        rx.poison();
        assert!(matches!(rx.recv(), Err(SimError::ChannelClosed { .. })));
        assert!(matches!(
            tx.send(TokenWindow::new(4)),
            Err(SimError::ChannelClosed { .. })
        ));
    }

    #[test]
    fn replace_queue_revives_poisoned_link() {
        let (tx, rx) = link::<u8>(4, Cycle::new(4)).unwrap();
        rx.poison();
        assert!(matches!(rx.recv(), Err(SimError::ChannelClosed { .. })));
        // A restore rewrites the in-flight state and brings the link up.
        rx.replace_queue(vec![TokenWindow::new(4)]);
        let w = rx.recv().unwrap();
        assert!(w.is_empty());
        tx.send(TokenWindow::new(4)).unwrap();
    }

    #[test]
    fn uncontended_hand_off_issues_no_wakes() {
        let (tx, rx) = link::<u32>(4, Cycle::new(8)).unwrap();
        for round in 0..1000 {
            let got = rx.recv().unwrap();
            let mut w = tx.take_buffer();
            w.push(0, round).unwrap();
            tx.send(w).unwrap();
            rx.recycle(got);
        }
        assert_eq!((rx.parks(), rx.wakes_issued()), (0, 0));
    }

    /// Spins until either half of `rx`'s link has parked `n` times.
    fn await_parks(rx: &LinkReceiver<u32>, n: u64) {
        while rx.parks() < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn parked_receiver_gets_exactly_one_wake() {
        let (tx, rx) = link::<u32>(4, Cycle::new(4)).unwrap();
        let _seed = rx.recv().unwrap();
        std::thread::scope(|s| {
            let h = s.spawn(|| rx.recv().unwrap());
            await_parks(&rx, 1);
            let mut w = TokenWindow::new(4);
            w.push(0, 7).unwrap();
            tx.send(w).unwrap();
            assert_eq!(h.join().unwrap().get(0), Some(&7));
        });
        assert_eq!((rx.parks(), rx.wakes_issued()), (1, 1));
    }

    #[test]
    fn parked_sender_is_woken_by_the_slot_it_waits_for() {
        let (tx, rx) = link::<u32>(4, Cycle::new(4)).unwrap();
        tx.send(TokenWindow::new(4)).unwrap(); // seed + 1 = cap
        std::thread::scope(|s| {
            let h = s.spawn(|| tx.send(TokenWindow::new(4)));
            await_parks(&rx, 1);
            rx.recv().unwrap();
            h.join().unwrap().unwrap();
        });
        assert_eq!((rx.parks(), rx.wakes_issued()), (1, 1));
        assert_eq!(rx.in_flight_windows(), 2);
    }

    #[test]
    fn parked_waiter_sees_the_peer_go_away() {
        let (tx, rx) = link::<u32>(4, Cycle::new(4)).unwrap();
        let _seed = rx.recv().unwrap();
        std::thread::scope(|s| {
            let h = s.spawn(|| rx.recv());
            await_parks(&rx, 1);
            drop(tx);
            assert!(matches!(
                h.join().unwrap(),
                Err(SimError::ChannelClosed { .. })
            ));
        });
    }
}
