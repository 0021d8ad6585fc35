//! Inter-process token transport backends (§III-B2).
//!
//! The paper's decoupled simulation moves **one link-latency of tokens per
//! batch** between partitions, and the batching is what makes distribution
//! cheap: the host cost of a transfer is amortised over `latency` target
//! cycles. [`Transport`](crate::Transport) models *how fast* each physical
//! hop can do this; the [`TokenTransport`] trait in this module actually
//! *does* it, with three backends mirroring the paper's three hops:
//!
//! * [`ChannelTransport`] — same-process fast path over an in-memory
//!   channel (the equivalent of FireSim's intra-FPGA wires; used for tests
//!   and as the reference implementation).
//! * [`ShmTransport`] — processes on one host exchange batches through a
//!   pair of file-backed single-producer/single-consumer rings, the
//!   software analogue of the paper's shared-memory port between switch
//!   processes on one instance.
//! * [`SocketTransport`] — cross-"instance" links over TCP or Unix-domain
//!   sockets, the analogue of the paper's socket port between EC2
//!   instances.
//!
//! Every backend carries the round frames of [`firesim_net::codec`]: one
//! frame holds one window for each of the connection's links, tagged with
//! the link index and a per-link monotonic sequence number, and the
//! receiver fails loudly (`SimError::Protocol`) if a window is dropped,
//! duplicated, or reordered — determinism depends on every link's stream
//! being exactly-once, in-order. [`TokenTransport::send_window`] and
//! [`TokenTransport::recv_window`] are the one-link case.
//!
//! A backend only moves bytes without blocking ([`TokenTransport::try_send`],
//! [`TokenTransport::try_recv`]); every wait is one loop here. It spins
//! while the peer is likely to answer within microseconds, then yields the
//! core, then sleeps, so a peer on another core is seen at once and one
//! that shares this core, or is slow, is not starved. [`send_all`] sends
//! to several peers at once and takes in what they send meanwhile, which
//! is what lets shards that all send before they receive never wait on
//! each other.

use std::fs::{File, OpenOptions, TryLockError};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::fs::FileExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use firesim_core::snapshot::Snapshot;
use firesim_core::{SimError, SimResult, TokenWindow};
use firesim_net::codec::{encode_token_frame, TokenDeframer};

/// How long a wait on the peer spins before it starts yielding the core.
/// Measured on a 2-vCPU host: spinning 0, 50 and 200 µs gave shm window
/// round trips of ~13, ~11 and ~11 µs (EXPERIMENTS, PR 38).
const SPIN_FOR: Duration = Duration::from_micros(50);

/// How long a wait yields the core before it starts sleeping.
const YIELD_FOR: Duration = Duration::from_millis(1);

/// How long a wait on a slow peer sleeps between polls.
const POLL_SLEEP: Duration = Duration::from_micros(100);

/// The abort flag of the one-link API, which nobody sets: `send_window`
/// blocks for as long as the peer is behind.
static NEVER: AtomicBool = AtomicBool::new(false);

/// Paces one wait on a peer: spin for [`SPIN_FOR`], then yield for
/// [`YIELD_FOR`], then sleep [`POLL_SLEEP`] per poll.
#[derive(Debug, Default)]
struct Backoff {
    since: Option<Instant>,
}

impl Backoff {
    /// Waits one step and returns whether the wait has reached its sleep
    /// phase, where a check costing a syscall is cheap by comparison.
    fn wait(&mut self) -> bool {
        let waited = self.since.get_or_insert_with(Instant::now).elapsed();
        if waited < SPIN_FOR {
            std::hint::spin_loop();
        } else if waited < SPIN_FOR + YIELD_FOR {
            std::thread::yield_now();
        } else {
            std::thread::sleep(POLL_SLEEP);
            return true;
        }
        false
    }
}

/// A bidirectional endpoint that moves token batches to exactly one peer.
///
/// One connection joins two partitions and carries every link between
/// them. Each round a partition gathers one window per link into a round
/// frame ([`firesim_net::codec::push_round_entry`]) and ships it with
/// [`send_frame`](Self::send_frame) (or, to several peers at once,
/// [`send_all`]); the peer takes it apart with
/// [`recv_round`](Self::recv_round). [`send_window`](Self::send_window)
/// and [`recv_window`](Self::recv_window) are the same path for a
/// connection with one link; they assign and verify its sequence numbers
/// internally, so callers just move windows.
///
/// A backend implements only the non-blocking moves of bytes
/// ([`try_send`](Self::try_send), [`try_recv`](Self::try_recv)); the waits
/// are provided.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::AtomicBool;
/// use firesim_core::TokenWindow;
/// use firesim_platform::link::{ChannelTransport, TokenTransport};
///
/// let (mut a, mut b) = ChannelTransport::<u64>::pair();
/// let mut w = TokenWindow::new(4);
/// w.push(2, 99).unwrap();
/// a.send_window(&w).unwrap();
///
/// let halt = AtomicBool::new(false);
/// let got = b.recv_window(&halt).unwrap().unwrap();
/// assert_eq!(got.get(2), Some(&99));
///
/// // A set halt flag still lets queued windows drain first.
/// a.send_window(&w).unwrap();
/// drop(a);
/// halt.store(true, std::sync::atomic::Ordering::SeqCst);
/// assert!(b.recv_window(&halt).unwrap().is_some());
/// assert!(b.recv_window(&halt).unwrap().is_none());
/// ```
pub trait TokenTransport<T: Snapshot>: Send {
    /// Writes as much of `bytes` as the peer has room for, without
    /// blocking, and returns how many it took (0 when the peer is full).
    ///
    /// # Errors
    ///
    /// Fails if the peer has disappeared (closed socket, dropped channel)
    /// or the underlying I/O fails.
    fn try_send(&mut self, bytes: &[u8]) -> SimResult<usize>;

    /// Moves whatever bytes the peer has sent into this endpoint's
    /// [`EndpointState`], without blocking, and returns whether any
    /// arrived. A peer that closed its end is recorded there too.
    ///
    /// # Errors
    ///
    /// Fails if the underlying I/O fails.
    fn try_recv(&mut self) -> SimResult<bool>;

    /// The receive buffer and one-link sequence numbers of this endpoint.
    fn state(&mut self) -> &mut EndpointState;

    /// Called while a wait on the peer sleeps: a backend whose wire has no
    /// end-of-stream of its own checks here whether the peer is still
    /// there, and records a gone peer in its [`EndpointState`].
    ///
    /// # Errors
    ///
    /// Fails if the check itself fails.
    fn check_peer(&mut self) -> SimResult<()> {
        Ok(())
    }

    /// Ships one sealed round frame to the peer, waiting for as long as
    /// the peer is behind; see [`send_all`].
    ///
    /// # Errors
    ///
    /// As for [`send_all`].
    fn send_frame(&mut self, frame: &[u8], abort: &AtomicBool) -> SimResult<()> {
        send_all::<T, Self>(&mut [self], &mut [frame], abort)
    }

    /// Receives the next round frame, appending its `(link, window)`
    /// entries to `out` and checking every link's sequence number against
    /// `seqs` (see [`TokenDeframer::next_round`]; `seqs.len()` is the
    /// connection's link count).
    ///
    /// Waits until a frame arrives; returns `Ok(false)` once the peer has
    /// closed its end, or `halt` is set, and no complete frame is left.
    ///
    /// # Errors
    ///
    /// Fails on wire corruption, a sequence-number gap or a peer that
    /// closed mid-frame — each means the stream can no longer be trusted to
    /// be cycle-exact.
    fn recv_round(
        &mut self,
        seqs: &mut [u64],
        halt: &AtomicBool,
        out: &mut Vec<(usize, TokenWindow<T>)>,
    ) -> SimResult<bool> {
        let mut backoff = Backoff::default();
        loop {
            if self.state().deframer.next_round(seqs, out)? {
                return Ok(true);
            }
            if self.try_recv()? {
                backoff = Backoff::default();
                continue;
            }
            let state = self.state();
            if state.closed {
                let left = state.deframer.buffered_bytes();
                if left > 0 {
                    return Err(SimError::protocol(format!(
                        "peer closed mid-frame with {left} bytes buffered"
                    )));
                }
                return Ok(false);
            }
            if halt.load(Ordering::SeqCst) {
                return Ok(false);
            }
            if backoff.wait() {
                self.check_peer()?;
            }
        }
    }

    /// Sends one token batch to the peer as a one-link round frame,
    /// blocking for as long as the peer is behind.
    ///
    /// # Errors
    ///
    /// Fails if the peer has disappeared or the underlying I/O fails.
    fn send_window(&mut self, window: &TokenWindow<T>) -> SimResult<()> {
        let state = self.state();
        let frame = encode_token_frame(state.send_seq, window);
        state.send_seq += 1;
        self.send_frame(&frame, &NEVER)
    }

    /// Receives the next token batch of a one-link connection in order.
    ///
    /// Blocks until a window arrives; returns `Ok(None)` once `halt` is
    /// set (or the peer closed cleanly) and no further windows are in
    /// flight.
    ///
    /// # Errors
    ///
    /// As for [`recv_round`](Self::recv_round).
    fn recv_window(&mut self, halt: &AtomicBool) -> SimResult<Option<TokenWindow<T>>> {
        let mut seqs = [self.state().recv_seq];
        let mut out = Vec::with_capacity(1);
        self.recv_round(&mut seqs, halt, &mut out)?;
        self.state().recv_seq = seqs[0];
        Ok(out.pop().map(|(_, w)| w))
    }
}

/// What every endpoint keeps besides its wire: the bytes received but not
/// yet decoded, whether the peer has closed its end, and the sequence
/// numbers of the one-link API ([`TokenTransport::send_window`] /
/// [`TokenTransport::recv_window`]).
#[derive(Debug, Default)]
pub struct EndpointState {
    deframer: TokenDeframer,
    closed: bool,
    send_seq: u64,
    recv_seq: u64,
}

/// Sends `frames[i]` to `links[i]` in full, for every `i` at once, waiting
/// for as long as a peer is behind. While every peer still owed bytes is
/// full, each link's receive side is drained into its buffer: shards that
/// all send before they receive — two of them, or a cycle of three — would
/// otherwise wait on each other for good once a round outgrows the ring or
/// the socket buffer. `frames` holds what is still unsent.
///
/// `abort` is the only way out of the wait: it is for a caller that has
/// given up on the run (its own simulation failed, so a peer may be dead).
///
/// # Errors
///
/// Returns [`SimError::Aborted`] if `abort` is set while a peer still has
/// no room, and fails as [`TokenTransport::try_send`] and
/// [`TokenTransport::try_recv`] do.
pub fn send_all<T: Snapshot, L: TokenTransport<T> + ?Sized>(
    links: &mut [&mut L],
    frames: &mut [&[u8]],
    abort: &AtomicBool,
) -> SimResult<()> {
    let mut backoff = Backoff::default();
    loop {
        let mut moved = false;
        for (link, rest) in links.iter_mut().zip(frames.iter_mut()) {
            if !rest.is_empty() {
                let n = link.try_send(rest)?;
                *rest = &rest[n..];
                moved |= n > 0;
            }
        }
        if frames.iter().all(|rest| rest.is_empty()) {
            return Ok(());
        }
        for link in links.iter_mut() {
            moved |= link.try_recv()?;
        }
        if moved {
            backoff = Backoff::default();
            continue;
        }
        if abort.load(Ordering::SeqCst) {
            return Err(SimError::aborted(
                "aborted while a peer had no room for a round frame",
            ));
        }
        if backoff.wait() {
            for link in links.iter_mut() {
                link.check_peer()?;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// In-process channel backend
// ---------------------------------------------------------------------------

/// In-process [`TokenTransport`] over a pair of standard channels.
///
/// Frames move by pointer, one channel message per send, with no
/// syscall. Used when a "partitioned" run keeps every shard in one
/// process (worker threads), and as the reference backend in tests — the
/// other backends must be observationally identical to this one.
#[derive(Debug)]
pub struct ChannelTransport<T> {
    tx: mpsc::Sender<Vec<u8>>,
    rx: mpsc::Receiver<Vec<u8>>,
    state: EndpointState,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Snapshot> ChannelTransport<T> {
    /// Creates two connected endpoints; what one sends the other receives.
    pub fn pair() -> (Self, Self) {
        let (tx_ab, rx_ab) = mpsc::channel();
        let (tx_ba, rx_ba) = mpsc::channel();
        let end = |tx, rx| ChannelTransport {
            tx,
            rx,
            state: EndpointState::default(),
            _marker: std::marker::PhantomData,
        };
        (end(tx_ab, rx_ba), end(tx_ba, rx_ab))
    }
}

impl<T: Snapshot + Send> TokenTransport<T> for ChannelTransport<T> {
    fn try_send(&mut self, bytes: &[u8]) -> SimResult<usize> {
        // An unbounded channel always has room.
        self.tx
            .send(bytes.to_vec())
            .map_err(|_| SimError::protocol("channel transport peer dropped"))?;
        Ok(bytes.len())
    }

    fn try_recv(&mut self) -> SimResult<bool> {
        match self.rx.try_recv() {
            Ok(bytes) => {
                self.state.deframer.feed(&bytes);
                Ok(true)
            }
            Err(mpsc::TryRecvError::Empty) => Ok(false),
            Err(mpsc::TryRecvError::Disconnected) => {
                self.state.closed = true;
                Ok(false)
            }
        }
    }

    fn state(&mut self) -> &mut EndpointState {
        &mut self.state
    }
}

// ---------------------------------------------------------------------------
// Shared-memory ring backend
// ---------------------------------------------------------------------------

/// On-disk layout of one SPSC ring: magic, capacity, two monotonic byte
/// counters, then a flag the producing end sets once it holds the ring's
/// lock. Data bytes start at [`RING_HEADER_BYTES`].
const RING_MAGIC: u64 = 0x4649_5245_5349_4D31; // "FIRESIM1"
const RING_HEADER_BYTES: u64 = 40;
const OFF_MAGIC: u64 = 0;
const OFF_CAPACITY: u64 = 8;
const OFF_WRITE_POS: u64 = 16;
const OFF_READ_POS: u64 = 24;
const OFF_PRODUCING: u64 = 32;

/// One end of a single-producer single-consumer byte ring backed by a
/// plain file.
///
/// Both processes open the same file; reads and writes go through the
/// kernel page cache, which is coherent across processes on one host, so
/// `pwrite` in the producer is immediately visible to `pread` in the
/// consumer. The producer publishes data *before* advancing `write_pos`
/// (and the consumer conversely frees space by advancing `read_pos`), so
/// each counter update is a release of everything behind it. Counters are
/// monotonic byte offsets; `pos % capacity` locates the byte in the ring.
/// Each end moves only its own counter, so it keeps that one in memory and
/// reads only the other's from the file.
///
/// The producing end holds the file's lock (`flock`) for as long as it
/// lives, and the kernel drops it however the process ends — `exit`,
/// panic or `SIGKILL` — so a free lock after the producer took it means
/// the producer is gone.
#[derive(Debug)]
struct ShmRing {
    file: File,
    capacity: u64,
    /// This end's counter: `write_pos` for the producer, `read_pos` for
    /// the consumer.
    mine: u64,
    /// The other end's counter, as last read.
    theirs: u64,
}

impl ShmRing {
    /// Creates (truncating) a ring file with `capacity` data bytes.
    fn create(path: &Path, capacity: u64) -> SimResult<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| SimError::io(format!("creating shm ring {}", path.display()), &e))?;
        file.set_len(RING_HEADER_BYTES + capacity)
            .map_err(|e| SimError::io("sizing shm ring", &e))?;
        let ring = ShmRing::over(file, capacity);
        ring.put_u64(OFF_CAPACITY, capacity)?;
        ring.put_u64(OFF_WRITE_POS, 0)?;
        ring.put_u64(OFF_READ_POS, 0)?;
        // Magic last: openers treat its presence as "header initialised".
        ring.put_u64(OFF_MAGIC, RING_MAGIC)?;
        Ok(ring)
    }

    /// Opens a ring created by a peer, polling until its header is valid.
    fn open(path: &Path, halt: &AtomicBool) -> SimResult<Self> {
        let mut backoff = Backoff::default();
        loop {
            if let Ok(file) = OpenOptions::new().read(true).write(true).open(path) {
                let ring = ShmRing::over(file, 0);
                if ring.get_u64(OFF_MAGIC).unwrap_or(0) == RING_MAGIC {
                    let capacity = ring.get_u64(OFF_CAPACITY)?;
                    return Ok(ShmRing::over(ring.file, capacity));
                }
            }
            if halt.load(Ordering::SeqCst) {
                return Err(SimError::aborted(format!(
                    "halted while waiting for shm ring {}",
                    path.display()
                )));
            }
            backoff.wait();
        }
    }

    /// Makes this the producing end: takes the lock it holds until it is
    /// dropped, then says so in the header.
    fn produce(self) -> SimResult<Self> {
        self.file
            .lock()
            .map_err(|e| SimError::io("locking shm ring", &e))?;
        self.put_u64(OFF_PRODUCING, 1)?;
        Ok(self)
    }

    /// Whether the producing end has gone: it took the lock, and the lock
    /// is free. A producer that has not opened its end yet is not gone.
    fn producer_gone(&self) -> SimResult<bool> {
        if self.get_u64(OFF_PRODUCING)? == 0 {
            return Ok(false);
        }
        match self.file.try_lock() {
            Ok(()) => {
                let _ = self.file.unlock();
                Ok(true)
            }
            Err(TryLockError::WouldBlock) => Ok(false),
            Err(TryLockError::Error(e)) => Err(SimError::io("probing shm ring lock", &e)),
        }
    }

    /// An end of a ring no byte has crossed yet.
    fn over(file: File, capacity: u64) -> Self {
        ShmRing {
            file,
            capacity,
            mine: 0,
            theirs: 0,
        }
    }

    fn get_u64(&self, off: u64) -> SimResult<u64> {
        let mut buf = [0u8; 8];
        self.file
            .read_exact_at(&mut buf, off)
            .map_err(|e| SimError::io("reading shm ring header", &e))?;
        Ok(u64::from_le_bytes(buf))
    }

    fn put_u64(&self, off: u64, v: u64) -> SimResult<()> {
        self.file
            .write_all_at(&v.to_le_bytes(), off)
            .map_err(|e| SimError::io("writing shm ring header", &e))
    }

    /// Appends as much of `bytes` as the ring has room for, without
    /// blocking, and returns how many it took. A run longer than the ring
    /// goes in over several calls as the consumer frees space; the
    /// consumer's deframer reassembles it.
    fn try_push(&mut self, bytes: &[u8]) -> SimResult<usize> {
        if self.capacity - (self.mine - self.theirs) < bytes.len() as u64 {
            self.theirs = self.get_u64(OFF_READ_POS)?;
        }
        let free = self.capacity - (self.mine - self.theirs);
        let piece = &bytes[..(free as usize).min(bytes.len())];
        if piece.is_empty() {
            return Ok(0);
        }
        let at = self.mine % self.capacity;
        let first = ((self.capacity - at) as usize).min(piece.len());
        self.file
            .write_all_at(&piece[..first], RING_HEADER_BYTES + at)
            .map_err(|e| SimError::io("writing shm ring data", &e))?;
        if first < piece.len() {
            self.file
                .write_all_at(&piece[first..], RING_HEADER_BYTES)
                .map_err(|e| SimError::io("writing shm ring data (wrap)", &e))?;
        }
        // Publish: data is in the page cache before the counter moves, so
        // a consumer that sees the new write_pos sees the bytes.
        self.mine += piece.len() as u64;
        self.put_u64(OFF_WRITE_POS, self.mine)?;
        Ok(piece.len())
    }

    /// Pops whatever bytes are available into `buf`, without blocking.
    fn pop_available(&mut self, buf: &mut Vec<u8>) -> SimResult<usize> {
        self.theirs = self.get_u64(OFF_WRITE_POS)?;
        let avail = self.theirs - self.mine;
        if avail == 0 {
            return Ok(0);
        }
        let take = avail.min(64 * 1024) as usize;
        let at = self.mine % self.capacity;
        let first = ((self.capacity - at) as usize).min(take);
        let start = buf.len();
        buf.resize(start + take, 0);
        self.file
            .read_exact_at(&mut buf[start..start + first], RING_HEADER_BYTES + at)
            .map_err(|e| SimError::io("reading shm ring data", &e))?;
        if first < take {
            self.file
                .read_exact_at(&mut buf[start + first..], RING_HEADER_BYTES)
                .map_err(|e| SimError::io("reading shm ring data (wrap)", &e))?;
        }
        self.mine += take as u64;
        self.put_u64(OFF_READ_POS, self.mine)?;
        Ok(take)
    }
}

/// Shared-memory [`TokenTransport`] between two processes on one host.
///
/// The "creator" side lays out two ring files under a rendezvous prefix —
/// `<prefix>.c2o` (creator-to-opener) and `<prefix>.o2c` — and the
/// "opener" side polls until both exist. Each direction is an independent
/// SPSC ring, so the duplex endpoint never contends with itself. Frames
/// are the same round frames a socket carries; the ring is a byte stream,
/// not a window queue, which keeps the wire format identical across
/// backends. A ring has no end-of-stream of its own; instead each end
/// holds the lock of the ring it produces (see `ShmRing`), and a wait
/// that has reached its sleep phase checks the peer's. Once that lock is
/// free the peer counts as closed: [`recv_round`](TokenTransport::recv_round)
/// returns `Ok(false)` once it has read the rest of the ring, and a send is
/// a [`SimError::Protocol`].
#[derive(Debug)]
pub struct ShmTransport<T> {
    tx_ring: ShmRing,
    rx_ring: ShmRing,
    state: EndpointState,
    scratch: Vec<u8>,
    _marker: std::marker::PhantomData<fn() -> T>,
}

/// Default per-direction ring capacity: comfortably holds several maximum
/// link-latency batches of 8-byte tokens. Larger frames still pass, in
/// pieces.
pub const SHM_RING_BYTES: u64 = 4 * 1024 * 1024;

impl<T: Snapshot> ShmTransport<T> {
    fn from_rings(tx_ring: ShmRing, rx_ring: ShmRing) -> Self {
        ShmTransport {
            tx_ring,
            rx_ring,
            state: EndpointState::default(),
            scratch: Vec::new(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Creates both ring files under `prefix` and returns the creator end.
    ///
    /// # Errors
    ///
    /// Fails if the ring files cannot be created or sized.
    pub fn create(prefix: &Path) -> SimResult<Self> {
        Ok(Self::from_rings(
            ShmRing::create(&prefix.with_extension("c2o"), SHM_RING_BYTES)?.produce()?,
            ShmRing::create(&prefix.with_extension("o2c"), SHM_RING_BYTES)?,
        ))
    }

    /// Opens the rings created by a peer's [`create`](Self::create),
    /// polling until they appear or `halt` is set.
    ///
    /// # Errors
    ///
    /// Fails if `halt` is set before the peer creates the rings.
    pub fn open(prefix: &Path, halt: &AtomicBool) -> SimResult<Self> {
        // Mirror of create: our tx is the peer's rx.
        Ok(Self::from_rings(
            ShmRing::open(&prefix.with_extension("o2c"), halt)?.produce()?,
            ShmRing::open(&prefix.with_extension("c2o"), halt)?,
        ))
    }
}

impl<T: Snapshot + Send> TokenTransport<T> for ShmTransport<T> {
    fn try_send(&mut self, bytes: &[u8]) -> SimResult<usize> {
        if self.state.closed {
            return Err(SimError::protocol(
                "shm peer exited while a round frame was unsent",
            ));
        }
        self.tx_ring.try_push(bytes)
    }

    fn try_recv(&mut self) -> SimResult<bool> {
        self.scratch.clear();
        if self.rx_ring.pop_available(&mut self.scratch)? == 0 {
            return Ok(false);
        }
        self.state.deframer.feed(&self.scratch);
        Ok(true)
    }

    fn state(&mut self) -> &mut EndpointState {
        &mut self.state
    }

    fn check_peer(&mut self) -> SimResult<()> {
        // A peer may publish its last frame and go between a wait's last
        // read and this check; nothing is lost, because the waits drain
        // the ring before they look at `closed`.
        self.state.closed |= self.rx_ring.producer_gone()?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Socket backend
// ---------------------------------------------------------------------------

/// The stream flavours [`SocketTransport`] can run over.
#[derive(Debug)]
enum SocketStream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl SocketStream {
    fn set_nonblocking(&self) -> std::io::Result<()> {
        match self {
            SocketStream::Tcp(s) => s.set_nonblocking(true),
            SocketStream::Unix(s) => s.set_nonblocking(true),
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            SocketStream::Tcp(s) => s.read(buf),
            SocketStream::Unix(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            SocketStream::Tcp(s) => s.write(buf),
            SocketStream::Unix(s) => s.write(buf),
        }
    }
}

/// True for the errors a non-blocking socket reports when it merely has
/// nothing to give or no room to take, not when it is broken.
fn not_ready(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted)
}

/// True for the errors of a socket whose peer has gone.
fn peer_gone(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::ConnectionReset | ErrorKind::BrokenPipe | ErrorKind::ConnectionAborted
    )
}

/// A bound, not-yet-accepted listening socket for [`SocketTransport`].
///
/// Created by the receiving side of a cross-instance link; the address it
/// reports (via [`local_addr`](Self::local_addr)) is published through the
/// rendezvous directory so the sending side knows where to connect.
#[derive(Debug)]
pub enum SocketListener {
    /// TCP listener (cross-host capable; loopback in tests).
    Tcp(TcpListener),
    /// Unix-domain listener (same-host only, no port allocation).
    Unix(UnixListener),
}

impl SocketListener {
    /// Binds a TCP listener on `addr` (use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be bound.
    pub fn tcp(addr: &str) -> SimResult<Self> {
        TcpListener::bind(addr)
            .map(SocketListener::Tcp)
            .map_err(|e| SimError::io(format!("binding tcp listener on {addr}"), &e))
    }

    /// Binds a Unix-domain listener at `path`.
    ///
    /// # Errors
    ///
    /// Fails if the socket file cannot be created.
    pub fn unix(path: &Path) -> SimResult<Self> {
        UnixListener::bind(path)
            .map(SocketListener::Unix)
            .map_err(|e| SimError::io(format!("binding unix listener at {}", path.display()), &e))
    }

    /// The concrete TCP address after an ephemeral-port bind.
    ///
    /// # Errors
    ///
    /// Fails on a Unix-domain listener (its address is the path it was
    /// bound to) or if the socket has been invalidated.
    pub fn local_addr(&self) -> SimResult<SocketAddr> {
        match self {
            SocketListener::Tcp(l) => l
                .local_addr()
                .map_err(|e| SimError::io("reading listener address", &e)),
            SocketListener::Unix(_) => Err(SimError::protocol(
                "unix listeners are addressed by their path",
            )),
        }
    }

    /// Accepts the peer connection, completing the transport.
    ///
    /// # Errors
    ///
    /// Fails if the accept itself fails.
    pub fn accept<T: Snapshot>(self) -> SimResult<SocketTransport<T>> {
        let stream = match self {
            SocketListener::Tcp(l) => {
                let (s, _) = l
                    .accept()
                    .map_err(|e| SimError::io("accepting tcp peer", &e))?;
                s.set_nodelay(true).ok();
                SocketStream::Tcp(s)
            }
            SocketListener::Unix(l) => {
                let (s, _) = l
                    .accept()
                    .map_err(|e| SimError::io("accepting unix peer", &e))?;
                SocketStream::Unix(s)
            }
        };
        SocketTransport::from_stream(stream)
    }
}

/// Socket [`TokenTransport`] carrying the round frames of
/// [`firesim_net::codec`].
///
/// This is the cross-"instance" hop: the paper joins two EC2 instances'
/// switch models with a socket (§III-B2), and here one connection carries
/// every link between two partitions. TCP's in-order exactly-once delivery
/// plus the codec's per-link sequence numbers give the determinism
/// argument its transport leg: the receiving shard consumes batch *m* of a
/// link as its `(m + latency/window)`-th input window no matter how the
/// bytes were segmented in flight. The socket is non-blocking; waits are
/// the provided ones of [`TokenTransport`].
#[derive(Debug)]
pub struct SocketTransport<T> {
    stream: SocketStream,
    state: EndpointState,
    read_buf: Vec<u8>,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Snapshot> SocketTransport<T> {
    fn from_stream(stream: SocketStream) -> SimResult<Self> {
        stream
            .set_nonblocking()
            .map_err(|e| SimError::io("making a socket non-blocking", &e))?;
        Ok(SocketTransport {
            stream,
            state: EndpointState::default(),
            read_buf: vec![0; 64 * 1024],
            _marker: std::marker::PhantomData,
        })
    }

    /// Connects to a TCP listener, retrying until it appears or `halt`.
    ///
    /// # Errors
    ///
    /// Fails if `halt` is set before the connection succeeds.
    pub fn connect_tcp(addr: &str, halt: &AtomicBool) -> SimResult<Self> {
        loop {
            match TcpStream::connect(addr) {
                Ok(s) => {
                    s.set_nodelay(true).ok();
                    return Self::from_stream(SocketStream::Tcp(s));
                }
                Err(_) if !halt.load(Ordering::SeqCst) => std::thread::sleep(POLL_SLEEP * 10),
                Err(e) => {
                    return Err(SimError::io(format!("connecting tcp to {addr}"), &e));
                }
            }
        }
    }

    /// Connects to a Unix-domain listener, retrying until it appears.
    ///
    /// # Errors
    ///
    /// Fails if `halt` is set before the connection succeeds.
    pub fn connect_unix(path: &Path, halt: &AtomicBool) -> SimResult<Self> {
        loop {
            match UnixStream::connect(path) {
                Ok(s) => return Self::from_stream(SocketStream::Unix(s)),
                Err(_) if !halt.load(Ordering::SeqCst) => std::thread::sleep(POLL_SLEEP * 10),
                Err(e) => {
                    return Err(SimError::io(
                        format!("connecting unix to {}", path.display()),
                        &e,
                    ));
                }
            }
        }
    }
}

impl<T: Snapshot + Send> TokenTransport<T> for SocketTransport<T> {
    fn try_send(&mut self, bytes: &[u8]) -> SimResult<usize> {
        match self.stream.write(bytes) {
            Ok(n) => Ok(n),
            Err(e) if not_ready(&e) => Ok(0),
            Err(e) if peer_gone(&e) => Err(SimError::protocol(
                "socket peer closed the connection while a round frame was unsent",
            )),
            Err(e) => Err(SimError::io("sending token frame", &e)),
        }
    }

    fn try_recv(&mut self) -> SimResult<bool> {
        if self.state.closed {
            return Ok(false);
        }
        match self.stream.read(&mut self.read_buf) {
            Ok(0) => {
                self.state.closed = true;
                Ok(false)
            }
            Ok(n) => {
                self.state.deframer.feed(&self.read_buf[..n]);
                Ok(true)
            }
            Err(e) if not_ready(&e) => Ok(false),
            Err(e) if peer_gone(&e) => {
                self.state.closed = true;
                Ok(false)
            }
            Err(e) => Err(SimError::io("receiving token frame", &e)),
        }
    }

    fn state(&mut self) -> &mut EndpointState {
        &mut self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn window(len: u32, fill: &[(u32, u64)]) -> TokenWindow<u64> {
        let mut w = TokenWindow::new(len);
        for &(off, v) in fill {
            w.push(off, v).unwrap();
        }
        w
    }

    /// Sends `n` numbered windows through `tx` while receiving on `rx`,
    /// asserting order and payload integrity.
    fn exercise(
        mut tx: impl TokenTransport<u64> + 'static,
        mut rx: impl TokenTransport<u64> + 'static,
        n: u64,
    ) {
        let halt = Arc::new(AtomicBool::new(false));
        let h2 = Arc::clone(&halt);
        let sender = std::thread::spawn(move || {
            for i in 0..n {
                tx.send_window(&window(8, &[(0, i), (7, i * 2)])).unwrap();
            }
            tx // keep the endpoint alive until the receiver is done
        });
        for i in 0..n {
            let w = rx.recv_window(&h2).unwrap().expect("stream ended early");
            assert_eq!(w.get(0), Some(&i));
            assert_eq!(w.get(7), Some(&(i * 2)));
        }
        halt.store(true, Ordering::SeqCst);
        assert!(rx.recv_window(&halt).unwrap().is_none());
        drop(sender.join().unwrap());
    }

    #[test]
    fn channel_round_trip() {
        let (a, b) = ChannelTransport::<u64>::pair();
        exercise(a, b, 100);
    }

    #[test]
    fn channel_is_duplex() {
        let (mut a, mut b) = ChannelTransport::<u64>::pair();
        let halt = AtomicBool::new(false);
        a.send_window(&window(4, &[(1, 10)])).unwrap();
        b.send_window(&window(4, &[(2, 20)])).unwrap();
        assert_eq!(b.recv_window(&halt).unwrap().unwrap().get(1), Some(&10));
        assert_eq!(a.recv_window(&halt).unwrap().unwrap().get(2), Some(&20));
    }

    #[test]
    fn shm_round_trip() {
        let dir = std::env::temp_dir().join(format!("firesim-shm-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("ring");
        let halt = AtomicBool::new(false);
        let a = ShmTransport::<u64>::create(&prefix).unwrap();
        let b = ShmTransport::<u64>::open(&prefix, &halt).unwrap();
        exercise(a, b, 200);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shm_ring_wraps() {
        // A tiny ring forces many wrap-arounds.
        let dir = std::env::temp_dir().join(format!("firesim-shm-wrap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.ring");
        let mut ring = ShmRing::create(&path, 96).unwrap();
        let mut reader = ShmRing::open(&path, &AtomicBool::new(false)).unwrap();
        let mut got = Vec::new();
        for round in 0..20u8 {
            let msg = [round; 40];
            assert_eq!(ring.try_push(&msg).unwrap(), 40);
            let mut buf = Vec::new();
            while buf.len() < 40 {
                reader.pop_available(&mut buf).unwrap();
            }
            got.push(buf);
        }
        for (round, buf) in got.iter().enumerate() {
            assert_eq!(buf, &[round as u8; 40], "round {round}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tcp_round_trip() {
        let listener = SocketListener::tcp("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let halt = AtomicBool::new(false);
        let connect = std::thread::spawn(move || {
            SocketTransport::<u64>::connect_tcp(&addr, &AtomicBool::new(false)).unwrap()
        });
        let a = listener.accept::<u64>().unwrap();
        let b = connect.join().unwrap();
        let _ = &halt;
        exercise(b, a, 150);
    }

    #[test]
    fn unix_round_trip() {
        let dir = std::env::temp_dir().join(format!("firesim-uds-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("link.sock");
        let listener = SocketListener::unix(&path).unwrap();
        let p2 = path.clone();
        let connect = std::thread::spawn(move || {
            SocketTransport::<u64>::connect_unix(&p2, &AtomicBool::new(false)).unwrap()
        });
        let a = listener.accept::<u64>().unwrap();
        let b = connect.join().unwrap();
        exercise(a, b, 50);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn socket_detects_sequence_gap() {
        let listener = SocketListener::tcp("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let connect = std::thread::spawn(move || {
            SocketTransport::<u64>::connect_tcp(&addr, &AtomicBool::new(false)).unwrap()
        });
        let mut rx = listener.accept::<u64>().unwrap();
        let mut tx = connect.join().unwrap();
        tx.state.send_seq = 5; // simulate a dropped batch
        tx.send_window(&window(4, &[])).unwrap();
        let halt = AtomicBool::new(false);
        let err = rx.recv_window(&halt).unwrap_err();
        assert!(matches!(err, SimError::Protocol { .. }), "{err}");
    }

    #[test]
    fn halt_drains_in_flight_windows_first() {
        let (mut a, mut b) = ChannelTransport::<u64>::pair();
        for i in 0..5 {
            a.send_window(&window(4, &[(0, i)])).unwrap();
        }
        let halt = AtomicBool::new(true); // halt set *before* first recv
        for i in 0..5 {
            let w = b.recv_window(&halt).unwrap().expect("window lost to halt");
            assert_eq!(w.get(0), Some(&i));
        }
        assert!(b.recv_window(&halt).unwrap().is_none());
    }

    #[test]
    fn shm_ring_carries_frames_larger_than_itself() {
        let dir = std::env::temp_dir().join(format!("firesim-shm-big-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.ring");
        let mut ring = ShmRing::create(&path, 96).unwrap();
        let mut reader = ShmRing::open(&path, &AtomicBool::new(false)).unwrap();
        let frame: Vec<u8> = (0..5_000u32).map(|i| (i * 7 + i / 256) as u8).collect();
        let expected = frame.clone();
        let writer = std::thread::spawn(move || -> SimResult<()> {
            let mut rest = &frame[..];
            while !rest.is_empty() {
                let n = ring.try_push(rest)?;
                assert!(n <= 96, "a push never outruns the ring");
                rest = &rest[n..];
                std::thread::yield_now();
            }
            Ok(())
        });
        let mut got = Vec::new();
        while got.len() < expected.len() {
            if reader.pop_available(&mut got).unwrap() == 0 {
                std::thread::yield_now();
            }
        }
        writer.join().unwrap().unwrap();
        assert_eq!(got, expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shm_send_gives_up_on_abort_when_the_ring_stays_full() {
        let dir = std::env::temp_dir().join(format!("firesim-shm-abort-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Nobody opens the other end, so nothing ever drains the ring.
        let mut tx = ShmTransport::<u64>::create(&dir.join("ring")).unwrap();
        let dense = window(
            6_400,
            &(0..6_400).map(|i| (i, u64::from(i))).collect::<Vec<_>>(),
        );
        let frame = encode_token_frame(0, &dense);
        let abort = Arc::new(AtomicBool::new(false));
        let (done_tx, done_rx) = mpsc::channel();
        let send_abort = Arc::clone(&abort);
        std::thread::spawn(move || {
            let err = loop {
                if let Err(e) = tx.send_frame(&frame, &send_abort) {
                    break e;
                }
            };
            done_tx.send(err).unwrap();
        });
        std::thread::sleep(Duration::from_millis(200));
        abort.store(true, Ordering::SeqCst);
        let err = done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("send on a full ring ignored abort");
        assert!(matches!(err, SimError::Aborted { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An shm peer that goes away mid-stream ends the survivor's waits as a
    /// closed socket does, within 2 s: a send into its full ring is a
    /// protocol error, the survivor still reads the last window the peer
    /// published, and then its receive ends. A peer that has not opened
    /// its end yet is never taken for gone.
    #[test]
    fn shm_survivor_sees_a_dropped_peer() {
        let dir = std::env::temp_dir().join(format!("firesim-shm-dead-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("ring");
        let mut survivor = ShmTransport::<u64>::create(&prefix).unwrap();
        std::thread::sleep(POLL_SLEEP);
        survivor.check_peer().unwrap();
        assert!(!survivor.state.closed, "a peer that never opened is gone");

        let mut peer = ShmTransport::<u64>::open(&prefix, &NEVER).unwrap();
        peer.send_window(&window(4, &[(1, 7)])).unwrap();
        drop(peer);
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            // More than the ring holds, and nobody drains it.
            let send = survivor.send_frame(&vec![0; SHM_RING_BYTES as usize + 1], &NEVER);
            let last = survivor.recv_window(&NEVER).unwrap();
            let end = survivor.recv_window(&NEVER).unwrap();
            done_tx.send((send, last, end)).unwrap();
        });
        let (send, last, end) = done_rx
            .recv_timeout(Duration::from_secs(2))
            .expect("the survivor still waits on a dropped peer");
        assert_eq!(last.expect("the last window was lost").get(1), Some(&7));
        assert!(end.is_none());
        let err = send.unwrap_err();
        assert!(matches!(err, SimError::Protocol { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Sends three rounds over a three-link connection, one frame each,
    /// from `tx` on another thread while `rx` receives.
    fn exercise_rounds(tx: impl TokenTransport<u64> + 'static, mut rx: impl TokenTransport<u64>) {
        let sender = std::thread::spawn(move || {
            let mut tx = tx;
            let mut seqs = [0u64; 3];
            for round in 0..3u64 {
                let mut frame = Vec::new();
                // Round 1 skips link 1: a frame may carry any subset.
                for link in (0..3u32).filter(|&l| round != 1 || l != 1) {
                    let w = window(8, &[(link, round * 10 + u64::from(link))]);
                    firesim_net::codec::push_round_entry(&mut frame, link, seqs[link as usize], &w);
                    seqs[link as usize] += 1;
                }
                firesim_net::codec::seal_round_frame(&mut frame);
                tx.send_frame(&frame, &AtomicBool::new(false)).unwrap();
            }
            tx
        });
        let halt = AtomicBool::new(false);
        let mut seqs = [0u64; 3];
        let mut got = Vec::new();
        for _ in 0..3 {
            let mut out = Vec::new();
            assert!(rx.recv_round(&mut seqs, &halt, &mut out).unwrap());
            got.push(
                out.iter()
                    .map(|(l, w)| (*l, *w.get(*l as u32).unwrap()))
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(
            got,
            vec![
                vec![(0, 0), (1, 1), (2, 2)],
                vec![(0, 10), (2, 12)],
                vec![(0, 20), (1, 21), (2, 22)],
            ]
        );
        assert_eq!(seqs, [3, 2, 3]);
        drop(sender.join().unwrap());
    }

    #[test]
    fn rounds_cross_every_backend() {
        let (a, b) = ChannelTransport::<u64>::pair();
        exercise_rounds(a, b);

        let dir = std::env::temp_dir().join(format!("firesim-rounds-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = ShmTransport::<u64>::create(&dir.join("ring")).unwrap();
        let b = ShmTransport::<u64>::open(&dir.join("ring"), &AtomicBool::new(false)).unwrap();
        exercise_rounds(b, a);

        let listener = SocketListener::tcp("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let connect = std::thread::spawn(move || {
            SocketTransport::<u64>::connect_tcp(&addr, &AtomicBool::new(false)).unwrap()
        });
        let a = listener.accept::<u64>().unwrap();
        let b = connect.join().unwrap();
        exercise_rounds(a, b);
        std::fs::remove_dir_all(&dir).ok();
    }
}
