//! Workspace-local stand-in for the subset of the `bytes` crate that
//! firesim-rs uses: the cheaply-cloneable immutable byte buffer [`Bytes`].
//!
//! The build environment is offline, so the real crate cannot be fetched.
//! Semantics match the real `Bytes` for everything the simulator relies
//! on: O(1) clone (shared ownership), `Deref<Target = [u8]>`, and the
//! usual constructors. `from_static` copies once instead of borrowing
//! (an allocation-at-construction difference only; frame payloads are
//! built once and shared thereafter).

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply cloneable, immutable chunk of contiguous memory.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
}

impl Bytes {
    /// Creates an empty `Bytes`.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Creates `Bytes` from a static slice.
    pub fn from_static(s: &'static [u8]) -> Self {
        Bytes { data: Arc::from(s) }
    }

    /// Copies `s` into a new `Bytes`.
    pub fn copy_from_slice(s: &[u8]) -> Self {
        Bytes { data: Arc::from(s) }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Copies the contents into a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes { data: Arc::from(v) }
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_eq() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = Bytes::copy_from_slice(&[1, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert_eq!(&a[1..], &[2, 3]);
        let c = a.clone();
        assert_eq!(c, a);
        assert!(Bytes::new().is_empty());
    }
}
