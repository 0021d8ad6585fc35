//! Converting between Ethernet frames and per-cycle flit streams.
//!
//! A 200 Gbit/s link moves 8 bytes per 3.2 GHz cycle, so a frame of `n`
//! bytes occupies `ceil(n / 8)` consecutive valid tokens. [`FrameFramer`]
//! produces that flit sequence; [`FrameDeframer`] reassembles frames on the
//! other side, using only the `last` metadata bit to find boundaries (the
//! transport never parses the link-layer protocol, §III-B2).

use std::collections::VecDeque;

use firesim_core::snapshot::{Snapshot, SnapshotReader, SnapshotWriter};
use firesim_core::{SimError, SimResult, TokenWindow};

use crate::frame::{EthernetFrame, Flit, FrameError};
use crate::FLIT_BYTES;

/// Serialises queued frames into one flit per cycle.
///
/// # Examples
///
/// ```
/// use firesim_net::{EthernetFrame, EtherType, FrameFramer, MacAddr};
/// use bytes::Bytes;
///
/// let mut framer = FrameFramer::new();
/// framer.enqueue(EthernetFrame::new(
///     MacAddr::from_node_index(1),
///     MacAddr::from_node_index(0),
///     EtherType::Echo,
///     Bytes::from_static(&[0xAA; 10]), // 24 wire bytes -> 3 flits
/// ));
/// let mut count = 0;
/// while framer.next_flit().is_some() { count += 1 }
/// assert_eq!(count, 3);
/// ```
#[derive(Debug, Default)]
pub struct FrameFramer {
    queue: VecDeque<Vec<u8>>,
    cursor: usize,
}

impl FrameFramer {
    /// Creates an idle framer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a frame for transmission.
    pub fn enqueue(&mut self, frame: EthernetFrame) {
        self.queue.push_back(frame.to_wire());
    }

    /// Queues pre-serialised wire bytes (used by NIC models that already
    /// hold raw bytes in simulated memory).
    ///
    /// # Panics
    ///
    /// Panics if `wire` is empty.
    pub fn enqueue_wire(&mut self, wire: Vec<u8>) {
        assert!(!wire.is_empty(), "cannot transmit an empty frame");
        self.queue.push_back(wire);
    }

    /// True when no frame data is pending.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Number of frames waiting (including the one in progress).
    pub fn pending_frames(&self) -> usize {
        self.queue.len()
    }

    /// Emits the next flit, or `None` when idle this cycle.
    pub fn next_flit(&mut self) -> Option<Flit> {
        let front = self.queue.front()?;
        let remaining = front.len() - self.cursor;
        let take = remaining.min(FLIT_BYTES);
        let last = remaining <= FLIT_BYTES;
        let flit = Flit::from_bytes(&front[self.cursor..self.cursor + take], last);
        if last {
            self.queue.pop_front();
            self.cursor = 0;
        } else {
            self.cursor += take;
        }
        Some(flit)
    }
}

impl Snapshot for FrameFramer {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.queue.len());
        for wire in &self.queue {
            w.put_bytes(wire);
        }
        w.put_usize(self.cursor);
    }
    fn load(r: &mut SnapshotReader<'_>) -> SimResult<Self> {
        let n = r.get_usize()?;
        let mut queue = VecDeque::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            queue.push_back(r.get_bytes()?.to_vec());
        }
        Ok(FrameFramer {
            queue,
            cursor: r.get_usize()?,
        })
    }
}

/// Reassembles flits back into frames.
///
/// Feed flits in cycle order with [`push`](FrameDeframer::push); completed
/// frames come back immediately.
#[derive(Debug, Default)]
pub struct FrameDeframer {
    buf: Vec<u8>,
}

impl FrameDeframer {
    /// Creates an empty deframer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bytes buffered for the in-progress frame.
    pub fn buffered_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Accepts one flit; returns a completed frame when this was the last
    /// flit of a frame.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::Truncated`] if a frame completes with fewer
    /// bytes than an Ethernet header (a malformed sender); the partial data
    /// is discarded so the stream can resynchronise.
    pub fn push(&mut self, flit: Flit) -> Result<Option<EthernetFrame>, FrameError> {
        self.buf.extend_from_slice(&flit.bytes()[..flit.byte_len()]);
        if !flit.last {
            return Ok(None);
        }
        let result = EthernetFrame::from_wire(&self.buf);
        self.buf.clear();
        result.map(Some)
    }

    /// Like [`push`](FrameDeframer::push) but returns the raw wire bytes,
    /// for models that DMA bytes into simulated memory without parsing.
    pub fn push_raw(&mut self, flit: Flit) -> Option<Vec<u8>> {
        self.buf.extend_from_slice(&flit.bytes()[..flit.byte_len()]);
        if !flit.last {
            return None;
        }
        Some(std::mem::take(&mut self.buf))
    }
}

impl Snapshot for FrameDeframer {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_bytes(&self.buf);
    }
    fn load(r: &mut SnapshotReader<'_>) -> SimResult<Self> {
        Ok(FrameDeframer {
            buf: r.get_bytes()?.to_vec(),
        })
    }
}

/// Hard ceiling on a single token frame, to catch stream corruption early.
///
/// A window of `W` tokens serialises to a few bytes per *occupied* token plus
/// a constant header, so even a round frame carrying many pathological
/// windows stays far below this. A length prefix above the ceiling means the
/// byte stream has desynchronised (or a peer speaks a different protocol),
/// and the decoder fails fast instead of attempting a multi-gigabyte
/// allocation.
pub const MAX_TOKEN_FRAME_BYTES: usize = 1 << 26; // 64 MiB

/// Bytes in front of every entry's window: `[u32 link][u64 seq]`.
const ENTRY_HEADER_BYTES: usize = 12;

/// Appends one link's window to the round frame being built in `frame`.
///
/// The round frame is the unit of inter-process exchange for distributed
/// simulation (§III-B2): it carries one link-latency batch of tokens for
/// each cut link between two shards, so a simulated round costs one send
/// per peer shard, not one per link. The layout is
///
/// ```text
/// [u32 len (LE)] { [u32 link (LE)] [u64 seq (LE)] [TokenWindow snapshot bytes] }+
///  ^len counts everything after itself
/// ```
///
/// `link` indexes the connection's links in an order both shards derive
/// from the topology, and entries appear in increasing `link` order.
/// `seq` is that link's monotonic batch counter; the receiver uses it to
/// assert that no window was dropped or reordered by the transport.
///
/// An empty `frame` starts a new frame; [`seal_round_frame`] writes the
/// length prefix once every entry is in.
pub fn push_round_entry<T: Snapshot>(
    frame: &mut Vec<u8>,
    link: u32,
    seq: u64,
    window: &TokenWindow<T>,
) {
    if frame.is_empty() {
        frame.extend_from_slice(&[0; 4]);
    }
    frame.extend_from_slice(&link.to_le_bytes());
    frame.extend_from_slice(&seq.to_le_bytes());
    let mut w = SnapshotWriter::from_vec(std::mem::take(frame));
    window.save(&mut w);
    *frame = w.into_bytes();
}

/// Writes the length prefix of a round frame built by [`push_round_entry`].
///
/// # Panics
///
/// Panics if `frame` holds no entry or outgrows the `u32` length prefix.
pub fn seal_round_frame(frame: &mut [u8]) {
    assert!(frame.len() > 4, "a round frame needs at least one entry");
    let len = u32::try_from(frame.len() - 4).expect("token frame exceeds u32 length prefix");
    frame[..4].copy_from_slice(&len.to_le_bytes());
}

/// Serialises one token window as a one-link round frame (link 0).
///
/// This is [`push_round_entry`] and [`seal_round_frame`] for a connection
/// that carries a single link: the same framing, one entry.
///
/// # Examples
///
/// ```
/// use firesim_core::TokenWindow;
/// use firesim_net::codec::{encode_token_frame, TokenDeframer};
///
/// let mut w: TokenWindow<u64> = TokenWindow::new(8);
/// w.push(3, 0xFEED).unwrap();
/// let wire = encode_token_frame(7, &w);
///
/// let mut deframer = TokenDeframer::new();
/// deframer.feed(&wire);
/// let (seq, got): (u64, TokenWindow<u64>) = deframer.next_frame().unwrap().unwrap();
/// assert_eq!(seq, 7);
/// assert_eq!(got.get(3), Some(&0xFEED));
/// ```
pub fn encode_token_frame<T: Snapshot>(seq: u64, window: &TokenWindow<T>) -> Vec<u8> {
    let mut frame = Vec::new();
    push_round_entry(&mut frame, 0, seq, window);
    seal_round_frame(&mut frame);
    frame
}

/// Streaming decoder for round-frame byte streams.
///
/// Socket reads deliver arbitrary byte runs — half a header, three frames
/// and a tail, etc. Feed whatever arrived with [`feed`](TokenDeframer::feed)
/// and pull complete frames with [`next_round`](TokenDeframer::next_round)
/// (or, on a one-link stream, [`next_frame`](TokenDeframer::next_frame))
/// until it reports that more bytes are needed; partial data stays
/// buffered across calls.
#[derive(Debug, Default)]
pub struct TokenDeframer {
    buf: Vec<u8>,
    /// Read cursor into `buf`; consumed bytes are compacted lazily.
    start: usize,
}

impl TokenDeframer {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes received from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact before growing so the buffer doesn't creep unboundedly.
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > (1 << 16) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Number of bytes buffered but not yet decoded.
    pub fn buffered_bytes(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Decodes the next complete round frame into `out` as `(link,
    /// window)` pairs, in frame order, checking every link's sequence
    /// number. Returns `Ok(false)` if more bytes are needed.
    ///
    /// `seqs[i]` is the sequence number link `i` must carry next and
    /// advances with every entry decoded for it, so `seqs.len()` is the
    /// connection's link count. `out` grows by at most that many entries
    /// per frame.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Protocol`] for anything that is not a well-formed
    /// round: a length prefix shorter than one entry or above
    /// [`MAX_TOKEN_FRAME_BYTES`], a link index out of range or out of
    /// order, a sequence gap or duplicate, an undecodable window, or
    /// trailing bytes. The stream cannot be trusted after an error.
    pub fn next_round<T: Snapshot>(
        &mut self,
        seqs: &mut [u64],
        out: &mut Vec<(usize, TokenWindow<T>)>,
    ) -> SimResult<bool> {
        let decoded = self.decode_frame(seqs.len(), |link, seq, window| {
            let expected = &mut seqs[link];
            if seq != *expected {
                return Err(SimError::protocol(format!(
                    "token window sequence gap on link {link}: expected {expected}, \
                     received {seq} (a batch was dropped, duplicated, or reordered in transit)"
                )));
            }
            *expected += 1;
            out.push((link, window));
            Ok(())
        });
        match decoded {
            Ok(done) => Ok(done),
            Err(e @ SimError::Protocol { .. }) => Err(e),
            Err(e) => Err(SimError::protocol(format!("undecodable token window: {e}"))),
        }
    }

    /// Decodes the next complete frame of a one-link stream, or `None` if
    /// more bytes are needed. The frame's sequence number is returned, not
    /// checked.
    ///
    /// # Errors
    ///
    /// Fails if the length prefix is shorter than one entry header or
    /// larger than [`MAX_TOKEN_FRAME_BYTES`] (stream corruption), if the
    /// frame holds anything but one entry for link 0, or if the snapshot
    /// payload does not decode as a `TokenWindow<T>`.
    pub fn next_frame<T: Snapshot>(&mut self) -> SimResult<Option<(u64, TokenWindow<T>)>> {
        let mut got = None;
        let done = self.decode_frame(1, |_, seq, window| {
            got = Some((seq, window));
            Ok(())
        })?;
        Ok(if done { got } else { None })
    }

    /// Decodes the next complete frame, handing each entry to `each` as
    /// `(link, seq, window)`. Returns `Ok(false)` if more bytes are needed;
    /// the frame is consumed once every entry has decoded.
    fn decode_frame<T: Snapshot>(
        &mut self,
        links: usize,
        mut each: impl FnMut(usize, u64, TokenWindow<T>) -> SimResult<()>,
    ) -> SimResult<bool> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(false);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().unwrap()) as usize;
        if len < ENTRY_HEADER_BYTES {
            return Err(SimError::protocol(format!(
                "token frame length {len} is shorter than its link and seq header"
            )));
        }
        if len > MAX_TOKEN_FRAME_BYTES {
            return Err(SimError::protocol(format!(
                "token frame length {len} exceeds the {MAX_TOKEN_FRAME_BYTES}-byte \
                 ceiling; byte stream is corrupt or desynchronised"
            )));
        }
        if avail.len() < 4 + len {
            return Ok(false);
        }
        let mut r = SnapshotReader::new(&avail[4..4 + len]);
        // Links appear in increasing order, each at most once per frame.
        let mut lowest = 0;
        while r.remaining() > 0 {
            if r.remaining() < ENTRY_HEADER_BYTES {
                return Err(SimError::protocol(format!(
                    "token frame has {} trailing bytes after its last window",
                    r.remaining()
                )));
            }
            let link = r.get_u32()? as usize;
            let seq = r.get_u64()?;
            if link < lowest || link >= links {
                return Err(SimError::protocol(format!(
                    "token frame entry for link {link} is out of order or beyond \
                     the connection's {links} link(s)"
                )));
            }
            lowest = link + 1;
            each(link, seq, TokenWindow::load(&mut r)?)?;
        }
        self.start += 4 + len;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{EtherType, MacAddr};
    use bytes::Bytes;

    fn frame(n: usize) -> EthernetFrame {
        EthernetFrame::new(
            MacAddr::from_node_index(2),
            MacAddr::from_node_index(1),
            EtherType::Stream,
            Bytes::from((0..n).map(|i| i as u8).collect::<Vec<_>>()),
        )
    }

    #[test]
    fn round_trip_various_sizes() {
        // Sizes chosen to hit exact-multiple and remainder paths.
        for payload in [0usize, 1, 2, 7, 8, 9, 10, 50, 63, 64, 65, 1500] {
            let f = frame(payload);
            let mut framer = FrameFramer::new();
            framer.enqueue(f.clone());
            let mut deframer = FrameDeframer::new();
            let mut out = None;
            let mut flits = 0;
            while let Some(flit) = framer.next_flit() {
                flits += 1;
                if let Some(done) = deframer.push(flit).unwrap() {
                    out = Some(done);
                }
            }
            assert_eq!(flits, f.wire_len().div_ceil(FLIT_BYTES));
            assert_eq!(out.unwrap(), f, "payload {payload}");
        }
    }

    #[test]
    fn back_to_back_frames() {
        let mut framer = FrameFramer::new();
        framer.enqueue(frame(20));
        framer.enqueue(frame(3));
        assert_eq!(framer.pending_frames(), 2);
        let mut deframer = FrameDeframer::new();
        let mut done = Vec::new();
        while let Some(flit) = framer.next_flit() {
            if let Some(f) = deframer.push(flit).unwrap() {
                done.push(f);
            }
        }
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].payload.len(), 20);
        assert_eq!(done[1].payload.len(), 3);
        assert!(framer.is_idle());
    }

    #[test]
    fn malformed_short_frame_resyncs() {
        let mut deframer = FrameDeframer::new();
        // A "frame" of 4 bytes ending immediately: shorter than a header.
        let bad = Flit::from_bytes(&[1, 2, 3, 4], true);
        assert!(deframer.push(bad).is_err());
        // The stream recovers for the next well-formed frame.
        let f = frame(10);
        let mut framer = FrameFramer::new();
        framer.enqueue(f.clone());
        let mut out = None;
        while let Some(flit) = framer.next_flit() {
            if let Some(done) = deframer.push(flit).unwrap() {
                out = Some(done);
            }
        }
        assert_eq!(out.unwrap(), f);
    }

    #[test]
    fn push_raw_returns_wire_bytes() {
        let f = frame(17);
        let mut framer = FrameFramer::new();
        framer.enqueue(f.clone());
        let mut deframer = FrameDeframer::new();
        let mut raw = None;
        while let Some(flit) = framer.next_flit() {
            if let Some(bytes) = deframer.push_raw(flit) {
                raw = Some(bytes);
            }
        }
        assert_eq!(raw.unwrap(), f.to_wire());
        assert_eq!(deframer.buffered_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "empty frame")]
    fn empty_wire_panics() {
        FrameFramer::new().enqueue_wire(Vec::new());
    }

    fn window(len: u32, fill: &[(u32, u64)]) -> TokenWindow<u64> {
        let mut w = TokenWindow::new(len);
        for &(off, v) in fill {
            w.push(off, v).unwrap();
        }
        w
    }

    #[test]
    fn token_frame_round_trip() {
        let w = window(16, &[(0, 1), (5, 0xDEAD_BEEF), (15, u64::MAX)]);
        let wire = encode_token_frame(42, &w);
        let mut d = TokenDeframer::new();
        d.feed(&wire);
        let (seq, got): (u64, TokenWindow<u64>) = d.next_frame().unwrap().unwrap();
        assert_eq!(seq, 42);
        assert_eq!(got.len(), 16);
        assert_eq!(got.get(5), Some(&0xDEAD_BEEF));
        assert_eq!(got.occupancy(), 3);
        assert!(d.next_frame::<u64>().unwrap().is_none());
        assert_eq!(d.buffered_bytes(), 0);
    }

    #[test]
    fn token_frames_survive_byte_by_byte_delivery() {
        // A socket may deliver any byte runs; decoding must be agnostic.
        let mut wire = Vec::new();
        for seq in 0..3u64 {
            wire.extend_from_slice(&encode_token_frame(
                seq,
                &window(8, &[(seq as u32, seq * 10)]),
            ));
        }
        let mut d = TokenDeframer::new();
        let mut out = Vec::new();
        for b in wire {
            d.feed(&[b]);
            while let Some((seq, w)) = d.next_frame::<u64>().unwrap() {
                out.push((seq, w.get(seq as u32).copied()));
            }
        }
        assert_eq!(out, vec![(0, Some(0)), (1, Some(10)), (2, Some(20))]);
    }

    #[test]
    fn token_frame_empty_window() {
        let wire = encode_token_frame(0, &window(64, &[]));
        let mut d = TokenDeframer::new();
        d.feed(&wire);
        let (_, got): (u64, TokenWindow<u64>) = d.next_frame().unwrap().unwrap();
        assert!(got.is_empty());
        assert_eq!(got.len(), 64);
    }

    #[test]
    fn token_frame_corrupt_length_rejected() {
        let mut d = TokenDeframer::new();
        // Length prefix below the 8-byte seq header.
        d.feed(&3u32.to_le_bytes());
        d.feed(&[0; 3]);
        assert!(d.next_frame::<u64>().is_err());

        let mut d = TokenDeframer::new();
        // Length prefix claiming a multi-gigabyte frame.
        d.feed(&u32::MAX.to_le_bytes());
        assert!(d.next_frame::<u64>().is_err());
    }

    #[test]
    fn token_frame_trailing_bytes_rejected() {
        let mut wire = encode_token_frame(9, &window(4, &[(1, 2)]));
        // Inflate the declared length and append garbage inside the frame.
        let len = u32::from_le_bytes(wire[..4].try_into().unwrap()) + 2;
        wire[..4].copy_from_slice(&len.to_le_bytes());
        wire.extend_from_slice(&[0xAB, 0xCD]);
        let mut d = TokenDeframer::new();
        d.feed(&wire);
        assert!(d.next_frame::<u64>().is_err());
    }

    #[test]
    fn token_frame_zero_length_window_rejected() {
        // A window off the wire claiming to cover zero cycles is a typed
        // error for the exchange to report, not a panic that kills it.
        let mut wire = encode_token_frame(5, &window(8, &[]));
        // The window's cycle count follows the length, link and seq fields.
        wire[16..20].copy_from_slice(&0u32.to_le_bytes());
        let mut d = TokenDeframer::new();
        d.feed(&wire);
        assert!(matches!(
            d.next_frame::<u64>(),
            Err(SimError::Checkpoint { .. })
        ));
    }

    /// Encodes one round: `(link, seq, window)` entries in frame order.
    fn round(entries: &[(u32, u64, TokenWindow<u64>)]) -> Vec<u8> {
        let mut frame = Vec::new();
        for (link, seq, w) in entries {
            push_round_entry(&mut frame, *link, *seq, w);
        }
        seal_round_frame(&mut frame);
        frame
    }

    #[test]
    fn round_frames_demultiplex_by_link() {
        let mut wire = round(&[
            (0, 0, window(8, &[(1, 10)])),
            (1, 0, window(8, &[])),
            (2, 0, window(8, &[(7, 12)])),
        ]);
        // A later round may carry any subset of the links, still in order.
        wire.extend(round(&[
            (0, 1, window(8, &[(2, 20)])),
            (2, 1, window(8, &[])),
        ]));
        let mut d = TokenDeframer::new();
        d.feed(&wire);
        let mut seqs = [0u64; 3];
        let mut out = Vec::new();
        assert!(d.next_round::<u64>(&mut seqs, &mut out).unwrap());
        let got: Vec<_> = out.iter().map(|(l, w)| (*l, w.occupancy())).collect();
        assert_eq!(got, vec![(0, 1), (1, 0), (2, 1)]);
        assert_eq!(out[2].1.get(7), Some(&12));
        out.clear();
        assert!(d.next_round::<u64>(&mut seqs, &mut out).unwrap());
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].1.get(2), Some(&20));
        assert_eq!(seqs, [2, 1, 2]);
        assert!(!d.next_round::<u64>(&mut seqs, &mut out).unwrap());
        assert_eq!(d.buffered_bytes(), 0);
    }

    #[test]
    fn round_frames_reject_bad_links_and_seqs() {
        let w = || window(4, &[]);
        for (entries, seqs) in [
            (vec![(3, 0, w())], [0u64; 3]),           // link out of range
            (vec![(1, 0, w()), (0, 0, w())], [0; 3]), // links out of order
            (vec![(1, 0, w()), (1, 1, w())], [0; 3]), // link repeated
            (vec![(0, 1, w())], [0; 3]),              // seq gap
            (vec![(2, 4, w())], [0, 0, 5]),           // seq duplicate
        ] {
            let mut d = TokenDeframer::new();
            d.feed(&round(&entries));
            let mut seqs = seqs;
            let err = d.next_round::<u64>(&mut seqs, &mut Vec::new()).unwrap_err();
            assert!(matches!(err, SimError::Protocol { .. }), "{err}");
        }
        // A one-link stream refuses a frame for any other link.
        let mut d = TokenDeframer::new();
        d.feed(&round(&[(1, 0, w())]));
        assert!(d.next_frame::<u64>().is_err());
    }
}
