//! Workspace-local stand-in for the subset of the `parking_lot` API that
//! firesim-rs uses, backed by `std::sync`.
//!
//! The build environment for this repository is fully offline, so external
//! crates cannot be fetched. This crate keeps every call site source-
//! compatible: `Mutex::lock` returns the guard directly (poisoning is
//! transparently ignored, matching parking_lot semantics where poisoning
//! does not exist).

use std::fmt;
use std::sync::{MutexGuard, TryLockError};

/// A mutual-exclusion lock with parking_lot's panic-transparent API.
#[derive(Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `t`.
    pub const fn new(t: T) -> Self {
        Mutex(std::sync::Mutex::new(t))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available. Never returns a poison
    /// error: a poisoned lock is treated as unlocked, as in parking_lot.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.try_lock() {
            Ok(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            Err(TryLockError::Poisoned(e)) => f
                .debug_struct("Mutex")
                .field("data", &&*e.into_inner())
                .finish(),
            Err(TryLockError::WouldBlock) => {
                f.debug_struct("Mutex").field("data", &"<locked>").finish()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(format!("{m:?}").contains('2'));
    }
}
