//! Property tests for the frame/flit codec, the token-frame and
//! round-frame decoders and MAC addressing.
//!
//! The global allocator refuses any single request above
//! `MAX_TOKEN_FRAME_BYTES`, and a refused allocation aborts the binary,
//! so the token-frame tests also check that no byte stream, however
//! corrupt, makes the decoder allocate beyond the frame ceiling.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeSet;

use bytes::Bytes;
use proptest::prelude::*;

use firesim_core::{SimError, TokenWindow};
use firesim_net::codec::{
    encode_token_frame, push_round_entry, seal_round_frame, TokenDeframer, MAX_TOKEN_FRAME_BYTES,
};
use firesim_net::{
    EtherType, EthernetFrame, Flit, FrameDeframer, FrameFramer, MacAddr, FLIT_BYTES,
};

struct CappedAlloc;

// SAFETY: delegates to the system allocator, or returns null (allocation
// failure, which the `GlobalAlloc` contract permits) for a request above
// the token-frame ceiling.
unsafe impl GlobalAlloc for CappedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() > MAX_TOKEN_FRAME_BYTES {
            return std::ptr::null_mut();
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > MAX_TOKEN_FRAME_BYTES {
            return std::ptr::null_mut();
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CappedAlloc = CappedAlloc;

fn frame_strategy() -> impl Strategy<Value = EthernetFrame> {
    (
        0u64..1_000_000,
        0u64..1_000_000,
        proptest::collection::vec(any::<u8>(), 0..2048),
        0u16..=u16::MAX,
    )
        .prop_map(|(dst, src, payload, ety)| {
            EthernetFrame::new(
                MacAddr::from_node_index(dst),
                MacAddr::from_node_index(src),
                EtherType::from(ety),
                Bytes::from(payload),
            )
        })
}

proptest! {
    /// Any frame survives framing into flits and deframing back.
    #[test]
    fn frame_flit_round_trip(frame in frame_strategy()) {
        let mut framer = FrameFramer::new();
        framer.enqueue(frame.clone());
        let mut deframer = FrameDeframer::new();
        let mut out = None;
        let mut flits = 0usize;
        while let Some(f) = framer.next_flit() {
            flits += 1;
            if let Some(done) = deframer.push(f).unwrap() {
                out = Some(done);
            }
        }
        prop_assert_eq!(flits, frame.wire_len().div_ceil(FLIT_BYTES));
        prop_assert_eq!(out, Some(frame));
    }

    /// A whole burst of frames stays intact and ordered.
    #[test]
    fn burst_round_trip(frames in proptest::collection::vec(frame_strategy(), 1..16)) {
        let mut framer = FrameFramer::new();
        for f in &frames {
            framer.enqueue(f.clone());
        }
        let mut deframer = FrameDeframer::new();
        let mut out = Vec::new();
        while let Some(f) = framer.next_flit() {
            if let Some(done) = deframer.push(f).unwrap() {
                out.push(done);
            }
        }
        prop_assert_eq!(out, frames);
    }

    /// Wire encode/parse of frames round-trips.
    #[test]
    fn wire_round_trip(frame in frame_strategy()) {
        prop_assert_eq!(EthernetFrame::from_wire(&frame.to_wire()).unwrap(), frame);
    }

    /// Node-index MACs round-trip and are never broadcast.
    #[test]
    fn mac_round_trip(idx in 0u64..(1 << 40)) {
        let mac = MacAddr::from_node_index(idx);
        prop_assert_eq!(mac.node_index(), Some(idx));
        prop_assert!(!mac.is_broadcast());
        let parsed: MacAddr = mac.to_string().parse().unwrap();
        prop_assert_eq!(parsed, mac);
    }
}

/// Frames `body` as a token frame with a correct length prefix.
fn framed(seq: u64, body: &[u8]) -> Vec<u8> {
    let mut piece = ((8 + body.len()) as u32).to_le_bytes().to_vec();
    piece.extend_from_slice(&seq.to_le_bytes());
    piece.extend_from_slice(body);
    piece
}

/// A byte run a socket might deliver from a foreign or broken peer: pure
/// noise; a correct length prefix around a noise body; or a body whose
/// window header (cycle count, small token count) is plausible and whose
/// tokens are noise, so the window and flit decoders see hostile input.
fn foreign_piece() -> impl Strategy<Value = Vec<u8>> {
    let noise = || proptest::collection::vec(any::<u8>(), 0..96);
    prop_oneof![
        noise(),
        (any::<u64>(), noise()).prop_map(|(seq, body)| framed(seq, &body)),
        (any::<u64>(), any::<u32>(), 0u64..8, noise()).prop_map(|(seq, len, n, tokens)| {
            let mut body = len.to_le_bytes().to_vec();
            body.extend_from_slice(&n.to_le_bytes());
            body.extend_from_slice(&tokens);
            framed(seq, &body)
        }),
    ]
}

/// A well-formed frame carrying a window of flits.
fn valid_frame() -> impl Strategy<Value = Vec<u8>> {
    (
        any::<u64>(),
        1u32..64,
        proptest::collection::btree_set(0u32..64, 0..16),
        any::<u64>(),
    )
        .prop_map(|(seq, len, offsets, data)| {
            encode_token_frame(seq, &flit_window(len, &offsets, data))
        })
}

/// Feeds `bytes` to a fresh decoder in chunks of the given sizes (cycled)
/// and drains it after every chunk. Every call must return a frame, "need
/// more bytes" or a typed error; a panic fails the test. Returns the
/// number of frames decoded and whether any call failed.
fn drain_in_chunks(bytes: &[u8], chunks: &[usize]) -> Result<(usize, bool), TestCaseError> {
    let mut d = TokenDeframer::new();
    let (mut frames, mut failed) = (0, false);
    let mut rest = bytes;
    for &chunk in chunks.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (now, later) = rest.split_at(chunk.min(rest.len()));
        d.feed(now);
        rest = later;
        loop {
            match d.next_frame::<Flit>() {
                Ok(Some(_)) => frames += 1,
                Ok(None) => break,
                Err(e) => {
                    prop_assert!(
                        matches!(e, SimError::Protocol { .. } | SimError::Checkpoint { .. }),
                        "untyped decoder error: {e:?}"
                    );
                    failed = true;
                    break;
                }
            }
        }
    }
    Ok((frames, failed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Foreign bytes in any chunking never panic the token-frame decoder.
    #[test]
    fn token_deframer_survives_foreign_bytes(
        pieces in proptest::collection::vec(foreign_piece(), 1..8),
        chunks in proptest::collection::vec(1usize..48, 1..8),
    ) {
        drain_in_chunks(&pieces.concat(), &chunks)?;
    }

    /// A valid frame with one byte flipped, or cut short, never panics the
    /// decoder; a cut frame never decodes.
    #[test]
    fn token_deframer_survives_damaged_frames(
        wire in valid_frame(),
        at in any::<u64>(),
        mask in 1u8..=255,
        truncate in any::<bool>(),
        chunks in proptest::collection::vec(1usize..48, 1..8),
    ) {
        prop_assert_eq!(drain_in_chunks(&wire, &chunks)?, (1, false));
        let at = (at % wire.len() as u64) as usize;
        if truncate {
            prop_assert_eq!(drain_in_chunks(&wire[..at], &chunks)?, (0, false));
        } else {
            let mut damaged = wire.clone();
            damaged[at] ^= mask;
            drain_in_chunks(&damaged, &chunks)?;
        }
    }
}

/// A window of flits at `offsets` (those below `len`), payload from `data`.
fn flit_window(len: u32, offsets: &BTreeSet<u32>, data: u64) -> TokenWindow<Flit> {
    let mut window = TokenWindow::new(len);
    for &off in offsets.iter().filter(|&&off| off < len) {
        let bytes = data.rotate_left(off).to_le_bytes();
        let n = 1 + (off as usize % 8);
        window
            .push(off, Flit::from_bytes(&bytes[..n], off % 3 == 0))
            .unwrap();
    }
    window
}

/// A well-formed stream of round frames on one connection.
#[derive(Debug, Clone)]
struct Rounds {
    /// The connection's link count.
    links: usize,
    /// Offset of each frame's end in `wire`.
    ends: Vec<usize>,
    wire: Vec<u8>,
}

impl Rounds {
    /// Offset of round `r`'s first entry header (just past its length).
    fn first_entry(&self, r: usize) -> usize {
        4 + if r == 0 { 0 } else { self.ends[r - 1] }
    }
}

/// One to four rounds over one to five links: each round carries a
/// non-empty subset of the links, in link order, and every link's
/// sequence numbers count up from zero.
fn valid_rounds() -> impl Strategy<Value = Rounds> {
    (
        1usize..6,
        proptest::collection::vec(
            (
                any::<u32>(),
                1u32..64,
                proptest::collection::btree_set(0u32..64, 0..8),
                any::<u64>(),
            ),
            1..5,
        ),
    )
        .prop_map(|(links, rounds)| {
            let mut seqs = vec![0u64; links];
            let mut wire = Vec::new();
            let mut ends = Vec::new();
            for (mask, len, offsets, data) in &rounds {
                let subset = 1 + mask % ((1 << links) - 1);
                let mut frame = Vec::new();
                for link in (0..links).filter(|&l| subset & (1 << l) != 0) {
                    let window = flit_window(*len, offsets, data ^ link as u64);
                    push_round_entry(&mut frame, link as u32, seqs[link], &window);
                    seqs[link] += 1;
                }
                seal_round_frame(&mut frame);
                wire.extend(frame);
                ends.push(wire.len());
            }
            Rounds { links, ends, wire }
        })
}

/// Feeds `bytes` to a fresh decoder for a `links`-link connection in
/// chunks of the given sizes (cycled), draining round frames after every
/// chunk. Every call must return a round, "need more bytes" or
/// `SimError::Protocol`; a panic or any other error fails the test.
/// Returns the number of rounds decoded and whether a call failed.
fn drain_rounds(
    bytes: &[u8],
    links: usize,
    chunks: &[usize],
) -> Result<(usize, bool), TestCaseError> {
    let mut d = TokenDeframer::new();
    let mut seqs = vec![0u64; links];
    let mut out = Vec::new();
    let mut rounds = 0;
    let mut rest = bytes;
    for &chunk in chunks.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (now, later) = rest.split_at(chunk.min(rest.len()));
        d.feed(now);
        rest = later;
        loop {
            out.clear();
            match d.next_round::<Flit>(&mut seqs, &mut out) {
                Ok(true) => {
                    prop_assert!(!out.is_empty() && out.len() <= links);
                    rounds += 1;
                }
                Ok(false) => break,
                Err(e) => {
                    prop_assert!(
                        matches!(e, SimError::Protocol { .. }),
                        "round decoder error is not a protocol error: {e:?}"
                    );
                    return Ok((rounds, true));
                }
            }
        }
    }
    Ok((rounds, false))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Valid multi-link rounds decode whole in any chunking; noise, alone
    /// or after valid rounds, decodes to rounds or a protocol error, never
    /// a panic.
    #[test]
    fn round_deframer_survives_foreign_bytes(
        stream in valid_rounds(),
        pieces in proptest::collection::vec(foreign_piece(), 1..8),
        chunks in proptest::collection::vec(1usize..48, 1..8),
    ) {
        let rounds = stream.ends.len();
        prop_assert_eq!(drain_rounds(&stream.wire, stream.links, &chunks)?, (rounds, false));
        drain_rounds(&pieces.concat(), stream.links, &chunks)?;
        let mut mixed = stream.wire.clone();
        mixed.extend(pieces.concat());
        let (decoded, _) = drain_rounds(&mixed, stream.links, &chunks)?;
        prop_assert!(decoded >= rounds);
    }

    /// Every truncation of a valid stream decodes exactly the rounds it
    /// holds whole, and never fails.
    #[test]
    fn round_deframer_waits_on_every_truncation(
        stream in valid_rounds(),
        chunks in proptest::collection::vec(1usize..48, 1..8),
    ) {
        for cut in 0..stream.wire.len() {
            let whole = stream.ends.iter().filter(|&&end| end <= cut).count();
            prop_assert_eq!(
                drain_rounds(&stream.wire[..cut], stream.links, &chunks)?,
                (whole, false)
            );
        }
    }

    /// One to three flipped bytes anywhere in a valid stream yield rounds
    /// or a protocol error, never a panic.
    #[test]
    fn round_deframer_survives_flipped_bytes(
        stream in valid_rounds(),
        flips in proptest::collection::vec((any::<u64>(), 1u8..=255), 1..4),
        chunks in proptest::collection::vec(1usize..48, 1..8),
    ) {
        let mut damaged = stream.wire.clone();
        for (at, mask) in flips {
            damaged[(at % stream.wire.len() as u64) as usize] ^= mask;
        }
        drain_rounds(&damaged, stream.links, &chunks)?;
    }

    /// A round whose first entry names a link at or beyond the
    /// connection's link count is a protocol error; the rounds before it
    /// still decode.
    #[test]
    fn round_deframer_rejects_links_out_of_range(
        stream in valid_rounds(),
        round in any::<u64>(),
        beyond in any::<u32>(),
        chunks in proptest::collection::vec(1usize..48, 1..8),
    ) {
        let round = (round % stream.ends.len() as u64) as usize;
        let at = stream.first_entry(round);
        let links = stream.links as u32;
        let link = links + beyond % (u32::MAX - links + 1);
        let mut damaged = stream.wire.clone();
        damaged[at..at + 4].copy_from_slice(&link.to_le_bytes());
        prop_assert_eq!(drain_rounds(&damaged, stream.links, &chunks)?, (round, true));
    }

    /// A round whose first entry carries any sequence number but the one
    /// its link expects — a gap or a repeat — is a protocol error; the
    /// rounds before it still decode.
    #[test]
    fn round_deframer_rejects_seq_gaps_and_duplicates(
        stream in valid_rounds(),
        round in any::<u64>(),
        delta in prop_oneof![Just(u64::MAX), Just(1u64), Just(2u64), 1u64..=u64::MAX],
        chunks in proptest::collection::vec(1usize..48, 1..8),
    ) {
        let round = (round % stream.ends.len() as u64) as usize;
        let at = stream.first_entry(round) + 4;
        let seq = u64::from_le_bytes(stream.wire[at..at + 8].try_into().unwrap());
        let mut damaged = stream.wire.clone();
        damaged[at..at + 8].copy_from_slice(&seq.wrapping_add(delta).to_le_bytes());
        prop_assert_eq!(drain_rounds(&damaged, stream.links, &chunks)?, (round, true));
    }
}
