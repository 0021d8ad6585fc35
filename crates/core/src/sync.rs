//! Host-side synchronisation primitives for the parallel engine.
//!
//! [`EpochBarrier`] is a reusable generation-counting barrier like
//! `std::sync::Barrier`, with two additions the engine needs:
//!
//! * **Cancellation** — a worker that hits an error (or unwinds out of an
//!   agent) can [`cancel`](EpochBarrier::cancel) the barrier, releasing
//!   every peer that is or will be waiting instead of deadlocking them.
//!   `std::sync::Barrier` has no way out of `wait`.
//! * **Leader election per epoch** — exactly one waiter per generation is
//!   told it is the leader, so once-per-generation decisions run on exactly
//!   one thread while the others wait for the *same* generation to
//!   complete. With the generation counter a single `wait` call both
//!   publishes each worker's pre-barrier writes and orders them before
//!   every post-barrier read, which is what lets the engine's chunk votes
//!   take one barrier per chunk instead of two.

use std::sync::{Condvar, Mutex, MutexGuard};

/// Error returned from [`EpochBarrier::wait`] after cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierCancelled;

impl std::fmt::Display for BarrierCancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("barrier cancelled")
    }
}

impl std::error::Error for BarrierCancelled {}

#[derive(Debug)]
struct State {
    /// Waiters currently parked in this generation.
    count: usize,
    /// Completed generations.
    epoch: u64,
    cancelled: bool,
}

/// A reusable, cancellable barrier with per-generation leader election.
#[derive(Debug)]
pub struct EpochBarrier {
    parties: usize,
    state: Mutex<State>,
    cv: Condvar,
}

impl EpochBarrier {
    /// Creates a barrier for `parties` threads.
    ///
    /// # Panics
    ///
    /// Panics if `parties` is zero.
    pub fn new(parties: usize) -> Self {
        assert!(parties > 0, "barrier needs at least one party");
        EpochBarrier {
            parties,
            state: Mutex::new(State {
                count: 0,
                epoch: 0,
                cancelled: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Blocks until all `parties` threads have called `wait` for this
    /// generation. Returns `Ok(true)` on exactly one thread per
    /// generation (the leader — the thread that completed the barrier).
    ///
    /// # Errors
    ///
    /// Returns [`BarrierCancelled`] if [`cancel`](EpochBarrier::cancel)
    /// was called, now or while waiting.
    pub fn wait(&self) -> Result<bool, BarrierCancelled> {
        let mut st = self.lock();
        if st.cancelled {
            return Err(BarrierCancelled);
        }
        st.count += 1;
        if st.count == self.parties {
            st.count = 0;
            st.epoch += 1;
            drop(st);
            self.cv.notify_all();
            return Ok(true);
        }
        let arrived_epoch = st.epoch;
        while st.epoch == arrived_epoch && !st.cancelled {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if st.epoch == arrived_epoch {
            // Cancelled before the generation completed.
            return Err(BarrierCancelled);
        }
        Ok(false)
    }

    /// Cancels the barrier: every current and future `wait` returns
    /// [`BarrierCancelled`]. Idempotent.
    pub fn cancel(&self) {
        let mut st = self.lock();
        st.cancelled = true;
        drop(st);
        self.cv.notify_all();
    }

    /// Completed generations so far.
    pub fn epoch(&self) -> u64 {
        self.lock().epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn elects_one_leader_per_generation() {
        let barrier = EpochBarrier::new(4);
        let leaders = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10 {
                        if barrier.wait().unwrap() {
                            leaders.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(leaders.load(Ordering::Relaxed), 10);
        assert_eq!(barrier.epoch(), 10);
    }

    #[test]
    fn cancel_releases_waiters() {
        let barrier = EpochBarrier::new(3);
        std::thread::scope(|s| {
            let h1 = s.spawn(|| barrier.wait());
            let h2 = s.spawn(|| barrier.wait());
            std::thread::sleep(std::time::Duration::from_millis(20));
            barrier.cancel();
            assert_eq!(h1.join().unwrap(), Err(BarrierCancelled));
            assert_eq!(h2.join().unwrap(), Err(BarrierCancelled));
        });
        // Future waits fail immediately too.
        assert_eq!(barrier.wait(), Err(BarrierCancelled));
    }

    #[test]
    fn single_party_barrier_never_blocks() {
        let barrier = EpochBarrier::new(1);
        assert_eq!(barrier.wait(), Ok(true));
        assert_eq!(barrier.wait(), Ok(true));
        assert_eq!(barrier.epoch(), 2);
    }
}
