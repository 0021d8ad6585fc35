//! Checkpoint serialization: a small, versioned, deterministic byte format.
//!
//! FireSim restarts a multi-hour simulation from a snapshot rather than from
//! cycle zero. The format here is deliberately simple — little-endian
//! fixed-width scalars, length-prefixed sequences, no self-description —
//! because a snapshot is only ever read back by the *same* topology that
//! wrote it: determinism makes the byte stream its own schema. A
//! [`SnapshotWriter`] appends fields in declaration order; the matching
//! [`SnapshotReader`] consumes them in the same order and fails loudly
//! ([`SimError::Checkpoint`]) on truncation or length mismatch instead of
//! silently misinterpreting bytes.
//!
//! Two traits ride on top:
//!
//! * [`Snapshot`] — a value that can write itself into a snapshot and
//!   rebuild itself from one. Implemented here for the usual scalars and
//!   containers, and by model crates for their token types (e.g. a network
//!   flit).
//! * [`Checkpoint`] — a *stateful agent* that can save its mutable state
//!   into a writer and later restore it in place. Agents opt in via
//!   [`SimAgent::as_checkpoint`](crate::SimAgent::as_checkpoint); the
//!   engine then serializes every agent plus all in-flight link tokens at a
//!   deterministic chunk boundary (see `Engine::checkpoint`).

use std::collections::VecDeque;

use crate::error::{SimError, SimResult};
use crate::time::Cycle;
use crate::token::TokenWindow;

/// Appends snapshot fields to a growing byte buffer.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        SnapshotWriter { buf: Vec::new() }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Writes a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Writes any [`Snapshot`] value.
    pub fn put<S: Snapshot>(&mut self, v: &S) {
        v.save(self);
    }

    /// Writes a length-prefixed sequence of [`Snapshot`] values.
    pub fn put_seq<'a, S: Snapshot + 'a>(&mut self, items: impl ExactSizeIterator<Item = &'a S>) {
        self.put_usize(items.len());
        for item in items {
            item.save(self);
        }
    }
}

/// Consumes snapshot fields from an encoded byte stream, in write order.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapshotReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> SimResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(SimError::checkpoint(format!(
                "snapshot truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] on truncation.
    pub fn get_u8(&mut self) -> SimResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] on truncation.
    pub fn get_u32(&mut self) -> SimResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] on truncation.
    pub fn get_u64(&mut self) -> SimResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a little-endian `i64`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] on truncation.
    pub fn get_i64(&mut self) -> SimResult<i64> {
        let b = self.take(8)?;
        Ok(i64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a `usize` written by [`SnapshotWriter::put_usize`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] on truncation or a value that does
    /// not fit the host's `usize`.
    pub fn get_usize(&mut self) -> SimResult<usize> {
        let v = self.get_u64()?;
        usize::try_from(v)
            .map_err(|_| SimError::checkpoint(format!("length {v} exceeds host usize")))
    }

    /// Reads a bool.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] on truncation or a byte that is
    /// neither 0 nor 1.
    pub fn get_bool(&mut self) -> SimResult<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SimError::checkpoint(format!("invalid bool byte {b:#x}"))),
        }
    }

    /// Reads a length-prefixed byte slice.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] on truncation.
    pub fn get_bytes(&mut self) -> SimResult<&'a [u8]> {
        let n = self.get_usize()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] on truncation or invalid UTF-8.
    pub fn get_str(&mut self) -> SimResult<String> {
        let b = self.get_bytes()?;
        String::from_utf8(b.to_vec())
            .map_err(|_| SimError::checkpoint("snapshot string is not valid UTF-8"))
    }

    /// Reads any [`Snapshot`] value.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] on truncation or malformed data.
    pub fn get<S: Snapshot>(&mut self) -> SimResult<S> {
        S::load(self)
    }

    /// Reads a length-prefixed sequence of [`Snapshot`] values.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] on truncation or malformed data.
    pub fn get_seq<S: Snapshot>(&mut self) -> SimResult<Vec<S>> {
        let n = self.get_usize()?;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(S::load(self)?);
        }
        Ok(out)
    }
}

/// A value that can serialize itself into a snapshot and rebuild itself
/// from one. The encoding must be deterministic: saving, loading, and
/// saving again must produce identical bytes.
pub trait Snapshot: Sized {
    /// Appends this value's encoding to `w`.
    fn save(&self, w: &mut SnapshotWriter);

    /// Reads one value of this type from `r`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] on truncation or malformed data.
    fn load(r: &mut SnapshotReader<'_>) -> SimResult<Self>;
}

macro_rules! snapshot_scalar {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Snapshot for $ty {
            fn save(&self, w: &mut SnapshotWriter) {
                w.$put(*self);
            }
            fn load(r: &mut SnapshotReader<'_>) -> SimResult<Self> {
                r.$get()
            }
        }
    };
}

snapshot_scalar!(u8, put_u8, get_u8);
snapshot_scalar!(u32, put_u32, get_u32);
snapshot_scalar!(u64, put_u64, get_u64);
snapshot_scalar!(i64, put_i64, get_i64);
snapshot_scalar!(usize, put_usize, get_usize);
snapshot_scalar!(bool, put_bool, get_bool);

impl Snapshot for u16 {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_u32(u32::from(*self));
    }
    fn load(r: &mut SnapshotReader<'_>) -> SimResult<Self> {
        let v = r.get_u32()?;
        u16::try_from(v).map_err(|_| SimError::checkpoint(format!("value {v} exceeds u16")))
    }
}

impl Snapshot for f64 {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.to_bits());
    }
    fn load(r: &mut SnapshotReader<'_>) -> SimResult<Self> {
        Ok(f64::from_bits(r.get_u64()?))
    }
}

impl Snapshot for String {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_str(self);
    }
    fn load(r: &mut SnapshotReader<'_>) -> SimResult<Self> {
        r.get_str()
    }
}

impl Snapshot for Cycle {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.as_u64());
    }
    fn load(r: &mut SnapshotReader<'_>) -> SimResult<Self> {
        Ok(Cycle::new(r.get_u64()?))
    }
}

impl<S: Snapshot> Snapshot for Option<S> {
    fn save(&self, w: &mut SnapshotWriter) {
        match self {
            None => w.put_bool(false),
            Some(v) => {
                w.put_bool(true);
                v.save(w);
            }
        }
    }
    fn load(r: &mut SnapshotReader<'_>) -> SimResult<Self> {
        if r.get_bool()? {
            Ok(Some(S::load(r)?))
        } else {
            Ok(None)
        }
    }
}

impl<S: Snapshot> Snapshot for Vec<S> {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_seq(self.iter());
    }
    fn load(r: &mut SnapshotReader<'_>) -> SimResult<Self> {
        r.get_seq()
    }
}

impl<S: Snapshot> Snapshot for VecDeque<S> {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_seq(self.iter());
    }
    fn load(r: &mut SnapshotReader<'_>) -> SimResult<Self> {
        Ok(r.get_seq()?.into())
    }
}

impl<A: Snapshot, B: Snapshot> Snapshot for (A, B) {
    fn save(&self, w: &mut SnapshotWriter) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut SnapshotReader<'_>) -> SimResult<Self> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<S: Snapshot + Default + Copy, const N: usize> Snapshot for [S; N] {
    fn save(&self, w: &mut SnapshotWriter) {
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapshotReader<'_>) -> SimResult<Self> {
        let mut out = [S::default(); N];
        for v in &mut out {
            *v = S::load(r)?;
        }
        Ok(out)
    }
}

impl<S: Snapshot> Snapshot for TokenWindow<S> {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_u32(self.len());
        w.put_usize(self.iter().count());
        for (off, v) in self.iter() {
            w.put_u32(off);
            v.save(w);
        }
    }
    fn load(r: &mut SnapshotReader<'_>) -> SimResult<Self> {
        let len = r.get_u32()?;
        if len == 0 {
            return Err(SimError::checkpoint(
                "token window snapshot covers zero cycles",
            ));
        }
        let mut win = TokenWindow::new(len);
        let n = r.get_usize()?;
        for _ in 0..n {
            let off = r.get_u32()?;
            let v = S::load(r)?;
            win.push(off, v).map_err(|_| {
                SimError::checkpoint(format!(
                    "token window snapshot has out-of-order or out-of-range offset {off}"
                ))
            })?;
        }
        Ok(win)
    }
}

/// A stateful agent that can save and restore its mutable state, enabling
/// engine-level checkpoint/restore. Restoration always happens onto a
/// freshly *constructed* instance (same topology, same configuration), so
/// implementations only serialize state that evolves during a run — not
/// configuration that the constructor re-derives.
pub trait Checkpoint {
    /// Serializes this agent's mutable state.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] when some state cannot be captured.
    fn save_state(&self, w: &mut SnapshotWriter) -> SimResult<()>;

    /// Restores state previously written by
    /// [`save_state`](Checkpoint::save_state) on an equivalently
    /// constructed instance.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] on truncation or malformed data.
    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> SimResult<()>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut w = SnapshotWriter::new();
        w.put_u8(0xab);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX);
        w.put_i64(-42);
        w.put_bool(true);
        w.put_str("blade0");
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xab);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "blade0");
        assert_eq!(r.get_bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncation_is_an_error() {
        let mut w = SnapshotWriter::new();
        w.put_u64(7);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes[..4]);
        assert!(matches!(r.get_u64(), Err(SimError::Checkpoint { .. })));
    }

    #[test]
    fn container_round_trip() {
        let mut w = SnapshotWriter::new();
        let v: Vec<u64> = vec![1, 2, 3];
        let d: VecDeque<u32> = VecDeque::from([9, 8]);
        let o: Option<u64> = Some(5);
        let none: Option<u64> = None;
        let arr: [u64; 4] = [4, 3, 2, 1];
        w.put(&v);
        w.put(&d);
        w.put(&o);
        w.put(&none);
        w.put(&arr);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.get::<Vec<u64>>().unwrap(), v);
        assert_eq!(r.get::<VecDeque<u32>>().unwrap(), d);
        assert_eq!(r.get::<Option<u64>>().unwrap(), o);
        assert_eq!(r.get::<Option<u64>>().unwrap(), none);
        assert_eq!(r.get::<[u64; 4]>().unwrap(), arr);
    }

    #[test]
    fn token_window_round_trip_preserves_sparsity() {
        let mut win: TokenWindow<u64> = TokenWindow::new(8);
        win.push(1, 11).unwrap();
        win.push(5, 55).unwrap();
        let mut w = SnapshotWriter::new();
        w.put(&win);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let back: TokenWindow<u64> = r.get().unwrap();
        assert_eq!(back.len(), 8);
        assert_eq!(back.get(1), Some(&11));
        assert_eq!(back.get(5), Some(&55));
        assert_eq!(back.iter().count(), 2);
    }

    #[test]
    fn invalid_bool_rejected() {
        let bytes = [7u8];
        let mut r = SnapshotReader::new(&bytes);
        assert!(matches!(r.get_bool(), Err(SimError::Checkpoint { .. })));
    }
}
