//! Handshake stress for the wake-on-demand link (`channel.rs`, "Wake
//! protocol"): a producer and a consumer thread move sequence-numbered
//! windows through the tightest link there is — one window of latency,
//! capacity two — so both sides run into "nothing to do" constantly and
//! park and wake each other all the time.
//!
//! In debug builds the link's hand-off hook injects seeded yields and
//! short sleeps at the two places where a wake can be lost: while a
//! blocked side is off the lock between finding nothing and registering
//! itself as parked, and between a queue change becoming visible and its
//! wake being issued. The blocking form of the waits has no timeout to
//! paper over a lost wake, so one lost wake is a deadlock, which the
//! watchdog turns into a failure: remove the re-check in
//! `Shared::wait_ready` (the `continue` after the lock is re-taken) and
//! `windows_cross_in_order_under_noise` stalls within the first few
//! thousand windows.
//!
//! Release builds compile the hook out; the tests then run the same
//! traffic without injected noise.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use firesim_core::{link, Cycle, LinkReceiver, LinkSender, TokenWindow};

const WINDOW: u32 = 4;
/// One seed window in flight plus the link's one slot of slack.
const CAP: usize = 2;
/// How long the watchdog lets the consumer go without progress. A window
/// takes microseconds; only a deadlock takes this long.
const STALL: Duration = Duration::from_secs(20);
/// Halt is documented to be noticed within ~500 µs of being set (the
/// parked side's poll period) plus host scheduling; allow three orders of
/// magnitude for a loaded CI host.
const HALT_BOUND: Duration = Duration::from_secs(1);

#[cfg(debug_assertions)]
fn noise() {
    // One xorshift64 stream shared by every thread: which thread takes
    // which draw depends on the interleaving, the sequence does not.
    use std::sync::atomic::AtomicU64;
    static STATE: AtomicU64 = AtomicU64::new(0x9e37_79b9_7f4a_7c15);
    let mut x = STATE.load(Ordering::Relaxed);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    STATE.store(x, Ordering::Relaxed);
    match x % 64 {
        0 => std::thread::sleep(Duration::from_micros(20)),
        1..=15 => std::thread::yield_now(),
        _ => {}
    }
}

fn noisy_link() -> (LinkSender<u32>, LinkReceiver<u32>) {
    let (tx, rx) = link::<u32>(WINDOW, Cycle::new(u64::from(WINDOW))).unwrap();
    #[cfg(debug_assertions)]
    tx.set_handoff_hook(noise);
    (tx, rx)
}

/// Moves `windows` sequence-numbered windows from a producer thread to a
/// consumer thread, with `halt` (never set) selecting the timed form of
/// the waits. Returns the link once both threads are done; panics if the
/// consumer stops making progress.
fn pump_in_order(
    windows: u32,
    halt: Option<Arc<AtomicBool>>,
) -> (LinkSender<u32>, LinkReceiver<u32>) {
    let (tx, rx) = noisy_link();
    let received = Arc::new(AtomicU32::new(0));

    let producer = {
        let halt = halt.clone();
        std::thread::spawn(move || {
            for seq in 0..windows {
                let mut w = tx.take_buffer();
                assert!(w.is_empty(), "a spare must come back empty");
                w.push(seq % WINDOW, seq).unwrap();
                assert!(tx.send_or_halt(w, halt.as_deref()).unwrap().is_none());
            }
            tx
        })
    };
    let consumer = {
        let received = Arc::clone(&received);
        std::thread::spawn(move || {
            let recv = || {
                rx.recv_or_halt(halt.as_deref())
                    .unwrap()
                    .expect("never halted")
            };
            assert!(recv().is_empty(), "the seed window comes first");
            for seq in 0..windows {
                let w = recv();
                assert_eq!(w.occupancy(), 1, "window {seq} lost or merged");
                assert_eq!(w.get(seq % WINDOW), Some(&seq), "window {seq} out of order");
                assert!(rx.in_flight_windows() <= CAP, "link over capacity");
                rx.recycle(w);
                received.store(seq + 1, Ordering::Release);
            }
            rx
        })
    };

    // Watchdog: the threads are detached on failure, so a deadlocked pair
    // cannot also hang the test.
    let mut last = (0, Instant::now());
    while !(producer.is_finished() && consumer.is_finished()) {
        let now = received.load(Ordering::Acquire);
        if now != last.0 {
            last = (now, Instant::now());
        }
        assert!(
            last.1.elapsed() < STALL,
            "hand-off stalled after {now} of {windows} windows: a wake was lost"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    (producer.join().unwrap(), consumer.join().unwrap())
}

#[test]
fn windows_cross_in_order_under_noise() {
    let (_tx, rx) = pump_in_order(200_000, None);
    assert_eq!(rx.in_flight_windows(), 0);
    let (parks, wakes) = (rx.parks(), rx.wakes_issued());
    assert!(wakes <= parks, "{wakes} wakes for {parks} parks");
    assert!(parks > 0, "a cap-2 link under noise must have parked");
}

#[test]
fn halt_aware_waits_cross_in_order_and_halt_in_time() {
    let halt = Arc::new(AtomicBool::new(false));
    let (tx, rx) = pump_in_order(50_000, Some(Arc::clone(&halt)));
    assert!(rx.wakes_issued() <= rx.parks());

    // Fill the link: a halt-aware send then parks until halted, and keeps
    // its window.
    tx.send(TokenWindow::new(WINDOW)).unwrap();
    tx.send(TokenWindow::new(WINDOW)).unwrap();
    let parks_before = rx.parks();
    let blocked_send = {
        let halt = Arc::clone(&halt);
        std::thread::spawn(move || {
            let mut w = TokenWindow::new(WINDOW);
            w.push(1, 7).unwrap();
            let back = tx.send_or_halt(w, Some(&halt)).unwrap();
            (back, Instant::now(), tx)
        })
    };
    while rx.parks() == parks_before {
        std::thread::yield_now();
    }
    let set_at = Instant::now();
    halt.store(true, Ordering::Release);
    let (back, returned_at, _tx) = blocked_send.join().unwrap();
    let back = back.expect("nothing freed a slot, so only the halt can end the send");
    assert_eq!(back.get(1), Some(&7), "a halted send hands the window back");
    let lag = returned_at.saturating_duration_since(set_at);
    assert!(lag < HALT_BOUND, "halt noticed after {lag:?}");

    // Halt set, windows queued: delivery wins until the queue is empty.
    assert!(rx.recv_or_halt(Some(&halt)).unwrap().is_some());
    assert!(rx.recv_or_halt(Some(&halt)).unwrap().is_some());
    assert!(rx.recv_or_halt(Some(&halt)).unwrap().is_none());
}
