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

use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::fs::FileExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use firesim_core::snapshot::Snapshot;
use firesim_core::{SimError, SimResult, TokenWindow};
use firesim_net::codec::{encode_token_frame, TokenDeframer};

use crate::transport::TransportKind;

/// How long a blocking receive sleeps between polls of a quiet peer.
const POLL_SLEEP: Duration = Duration::from_micros(100);

/// The abort flag of the one-link API, which nobody sets: `send_window`
/// blocks for as long as the peer is behind.
static NEVER: AtomicBool = AtomicBool::new(false);

/// A bidirectional endpoint that moves token batches to exactly one peer.
///
/// One connection joins two partitions and carries every link between
/// them. A simulation "pump" thread gathers one window per link into a
/// round frame ([`firesim_net::codec::push_round_entry`]) and ships it with
/// [`send_frame`](Self::send_frame); the peer's pump takes it apart with
/// [`recv_round`](Self::recv_round). [`send_window`](Self::send_window)
/// and [`recv_window`](Self::recv_window) are the same path for a
/// connection with one link; they assign and verify its sequence numbers
/// internally, so callers just move windows.
///
/// Receives block until a frame arrives, reporting the end of the stream
/// only when `halt` is set (or the peer has cleanly closed) *and* every
/// frame already in flight has been delivered — a late halt never
/// truncates the token stream.
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
    /// Which physical transport this backend models, for rate accounting
    /// against [`Transport::sim_rate_bound_hz`](crate::Transport::sim_rate_bound_hz).
    fn kind(&self) -> TransportKind;

    /// Ships one sealed round frame to the peer with a single send call,
    /// blocking for as long as the peer is behind.
    ///
    /// `abort` is the only way out of that wait: it is for a caller that
    /// has given up on the run (its own simulation failed, so the peer may
    /// be dead), not for one that is merely done. A pump flushing the last
    /// windows of a healthy run leaves it clear and waits on a slow peer.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Aborted`] if `abort` is set while the peer still
    /// has no room for the frame, and fails if the peer has disappeared
    /// (closed socket, dropped channel) or the underlying I/O fails.
    fn send_frame(&mut self, frame: &[u8], abort: &AtomicBool) -> SimResult<()>;

    /// Receives the next round frame, appending its `(link, window)`
    /// entries to `out` and checking every link's sequence number against
    /// `seqs` (see [`TokenDeframer::next_round`]; `seqs.len()` is the
    /// connection's link count).
    ///
    /// Blocks until a frame arrives; returns `Ok(false)` once `halt` is
    /// set (or the peer closed cleanly) and no further frames are in
    /// flight.
    ///
    /// # Errors
    ///
    /// Fails on wire corruption or a sequence-number gap — both mean the
    /// stream can no longer be trusted to be cycle-exact.
    fn recv_round(
        &mut self,
        seqs: &mut [u64],
        halt: &AtomicBool,
        out: &mut Vec<(usize, TokenWindow<T>)>,
    ) -> SimResult<bool>;

    /// Ends this endpoint's send direction: once the peer has drained every
    /// frame sent before, its receives report the end of the stream at
    /// once instead of at its next check of `halt`. Does nothing on a
    /// backend without such a signal, whose receivers poll `halt` often.
    fn close_send(&mut self) {}

    /// The sequence numbers of the one-link API, which
    /// [`send_window`](Self::send_window) and
    /// [`recv_window`](Self::recv_window) keep here.
    fn one_link(&mut self) -> &mut OneLink;

    /// Sends one token batch to the peer as a one-link round frame,
    /// blocking for as long as the peer is behind.
    ///
    /// # Errors
    ///
    /// Fails if the peer has disappeared or the underlying I/O fails.
    fn send_window(&mut self, window: &TokenWindow<T>) -> SimResult<()> {
        let link = self.one_link();
        let frame = encode_token_frame(link.send_seq, window);
        link.send_seq += 1;
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
        let mut seqs = [self.one_link().recv_seq];
        let mut out = Vec::with_capacity(1);
        self.recv_round(&mut seqs, halt, &mut out)?;
        self.one_link().recv_seq = seqs[0];
        Ok(out.pop().map(|(_, w)| w))
    }
}

/// Next sequence numbers of a connection used through the one-link API
/// ([`TokenTransport::send_window`] / [`TokenTransport::recv_window`]).
#[derive(Debug, Default)]
pub struct OneLink {
    send_seq: u64,
    recv_seq: u64,
}

// ---------------------------------------------------------------------------
// In-process channel backend
// ---------------------------------------------------------------------------

/// In-process [`TokenTransport`] over a pair of standard channels.
///
/// Frames move by pointer, one channel message per frame, with no
/// syscall. Used when a "partitioned" run keeps every shard in one
/// process (worker threads), and as the reference backend in tests — the
/// other backends must be observationally identical to this one.
#[derive(Debug)]
pub struct ChannelTransport<T> {
    tx: mpsc::Sender<Vec<u8>>,
    rx: mpsc::Receiver<Vec<u8>>,
    deframer: TokenDeframer,
    one_link: OneLink,
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
            deframer: TokenDeframer::new(),
            one_link: OneLink::default(),
            _marker: std::marker::PhantomData,
        };
        (end(tx_ab, rx_ba), end(tx_ba, rx_ab))
    }
}

impl<T: Snapshot + Send> TokenTransport<T> for ChannelTransport<T> {
    fn kind(&self) -> TransportKind {
        TransportKind::SharedMemory
    }

    fn send_frame(&mut self, frame: &[u8], _abort: &AtomicBool) -> SimResult<()> {
        // An unbounded channel never has to wait for room.
        self.tx
            .send(frame.to_vec())
            .map_err(|_| SimError::protocol("channel transport peer dropped"))
    }

    fn recv_round(
        &mut self,
        seqs: &mut [u64],
        halt: &AtomicBool,
        out: &mut Vec<(usize, TokenWindow<T>)>,
    ) -> SimResult<bool> {
        loop {
            if self.deframer.next_round(seqs, out)? {
                return Ok(true);
            }
            // Drain before honouring halt: in-flight frames must land.
            let frame = match self.rx.try_recv() {
                Ok(frame) => frame,
                Err(mpsc::TryRecvError::Disconnected) => return Ok(false),
                Err(mpsc::TryRecvError::Empty) if halt.load(Ordering::SeqCst) => return Ok(false),
                Err(mpsc::TryRecvError::Empty) => match self.rx.recv_timeout(POLL_SLEEP * 10) {
                    Ok(frame) => frame,
                    Err(mpsc::RecvTimeoutError::Timeout) => continue,
                    Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(false),
                },
            };
            self.deframer.feed(&frame);
        }
    }

    fn one_link(&mut self) -> &mut OneLink {
        &mut self.one_link
    }
}

// ---------------------------------------------------------------------------
// Shared-memory ring backend
// ---------------------------------------------------------------------------

/// On-disk layout of one SPSC ring: magic, capacity, then two monotonic
/// byte counters. Data bytes start at [`RING_HEADER_BYTES`].
const RING_MAGIC: u64 = 0x4649_5245_5349_4D31; // "FIRESIM1"
const RING_HEADER_BYTES: u64 = 32;
const OFF_MAGIC: u64 = 0;
const OFF_CAPACITY: u64 = 8;
const OFF_WRITE_POS: u64 = 16;
const OFF_READ_POS: u64 = 24;

/// A single-producer single-consumer byte ring backed by a plain file.
///
/// Both processes open the same file; reads and writes go through the
/// kernel page cache, which is coherent across processes on one host, so
/// `pwrite` in the producer is immediately visible to `pread` in the
/// consumer. The producer publishes data *before* advancing `write_pos`
/// (and the consumer conversely frees space by advancing `read_pos`), so
/// each counter update is a release of everything behind it. Counters are
/// monotonic byte offsets; `pos % capacity` locates the byte in the ring.
#[derive(Debug)]
struct ShmRing {
    file: File,
    capacity: u64,
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
        let ring = ShmRing { file, capacity };
        ring.put_u64(OFF_CAPACITY, capacity)?;
        ring.put_u64(OFF_WRITE_POS, 0)?;
        ring.put_u64(OFF_READ_POS, 0)?;
        // Magic last: openers treat its presence as "header initialised".
        ring.put_u64(OFF_MAGIC, RING_MAGIC)?;
        Ok(ring)
    }

    /// Opens a ring created by a peer, polling until its header is valid.
    fn open(path: &Path, halt: &AtomicBool) -> SimResult<Self> {
        loop {
            if let Ok(file) = OpenOptions::new().read(true).write(true).open(path) {
                let ring = ShmRing { file, capacity: 0 };
                if ring.get_u64(OFF_MAGIC).unwrap_or(0) == RING_MAGIC {
                    let capacity = ring.get_u64(OFF_CAPACITY)?;
                    return Ok(ShmRing {
                        file: ring.file,
                        capacity,
                    });
                }
            }
            if halt.load(Ordering::SeqCst) {
                return Err(SimError::aborted(format!(
                    "halted while waiting for shm ring {}",
                    path.display()
                )));
            }
            std::thread::sleep(POLL_SLEEP * 10);
        }
    }

    /// A second handle on the same ring file.
    fn try_clone(&self) -> SimResult<Self> {
        Ok(ShmRing {
            file: self
                .file
                .try_clone()
                .map_err(|e| SimError::io("cloning shm ring handle", &e))?,
            capacity: self.capacity,
        })
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

    /// Appends `bytes`, blocking while the consumer is behind. A run longer
    /// than the ring goes in pieces as the consumer frees space, so a
    /// frame of any size fits; the consumer's deframer reassembles it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Aborted`] if `abort` is set while the ring is
    /// full.
    fn push(&self, bytes: &[u8], abort: &AtomicBool) -> SimResult<()> {
        let mut write_pos = self.get_u64(OFF_WRITE_POS)?;
        let mut rest = bytes;
        while !rest.is_empty() {
            let free = self.capacity - (write_pos - self.get_u64(OFF_READ_POS)?);
            if free == 0 {
                if abort.load(Ordering::SeqCst) {
                    return Err(SimError::aborted("aborted while the shm ring was full"));
                }
                std::thread::sleep(POLL_SLEEP);
                continue;
            }
            let (piece, later) = rest.split_at((free as usize).min(rest.len()));
            let at = write_pos % self.capacity;
            let first = ((self.capacity - at) as usize).min(piece.len());
            self.file
                .write_all_at(&piece[..first], RING_HEADER_BYTES + at)
                .map_err(|e| SimError::io("writing shm ring data", &e))?;
            if first < piece.len() {
                self.file
                    .write_all_at(&piece[first..], RING_HEADER_BYTES)
                    .map_err(|e| SimError::io("writing shm ring data (wrap)", &e))?;
            }
            // Publish: data is durably in the page cache before the counter
            // moves, so a consumer that sees the new write_pos sees the bytes.
            write_pos += piece.len() as u64;
            self.put_u64(OFF_WRITE_POS, write_pos)?;
            rest = later;
        }
        Ok(())
    }

    /// Pops whatever bytes are available into `buf`, without blocking.
    fn pop_available(&self, buf: &mut Vec<u8>) -> SimResult<usize> {
        let read_pos = self.get_u64(OFF_READ_POS)?;
        let write_pos = self.get_u64(OFF_WRITE_POS)?;
        let avail = write_pos - read_pos;
        if avail == 0 {
            return Ok(0);
        }
        let take = avail.min(64 * 1024) as usize;
        let at = read_pos % self.capacity;
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
        self.put_u64(OFF_READ_POS, read_pos + take as u64)?;
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
/// backends.
#[derive(Debug)]
pub struct ShmTransport<T> {
    tx_ring: ShmRing,
    rx_ring: ShmRing,
    deframer: TokenDeframer,
    scratch: Vec<u8>,
    one_link: OneLink,
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
            deframer: TokenDeframer::new(),
            scratch: Vec::new(),
            one_link: OneLink::default(),
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
            ShmRing::create(&prefix.with_extension("c2o"), SHM_RING_BYTES)?,
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
            ShmRing::open(&prefix.with_extension("o2c"), halt)?,
            ShmRing::open(&prefix.with_extension("c2o"), halt)?,
        ))
    }

    /// A second endpoint on the same rings, so one thread can send while
    /// another receives. Each direction must be driven through one handle
    /// only; take the clone before any traffic.
    ///
    /// # Errors
    ///
    /// Fails if the ring files cannot be reopened.
    pub fn try_clone(&self) -> SimResult<Self> {
        Ok(Self::from_rings(
            self.tx_ring.try_clone()?,
            self.rx_ring.try_clone()?,
        ))
    }
}

impl<T: Snapshot + Send> TokenTransport<T> for ShmTransport<T> {
    fn kind(&self) -> TransportKind {
        TransportKind::SharedMemory
    }

    fn send_frame(&mut self, frame: &[u8], abort: &AtomicBool) -> SimResult<()> {
        // A live peer always drains the ring eventually; a ring that stays
        // full means the peer died, and `abort` is how a failed run breaks
        // out of that instead of spinning until the supervisor's deadline.
        self.tx_ring.push(frame, abort)
    }

    fn recv_round(
        &mut self,
        seqs: &mut [u64],
        halt: &AtomicBool,
        out: &mut Vec<(usize, TokenWindow<T>)>,
    ) -> SimResult<bool> {
        loop {
            if self.deframer.next_round(seqs, out)? {
                return Ok(true);
            }
            self.scratch.clear();
            let n = self.rx_ring.pop_available(&mut self.scratch)?;
            if n > 0 {
                self.deframer.feed(&self.scratch);
                continue;
            }
            // Ring empty and no partial frame pending: safe to halt.
            if halt.load(Ordering::SeqCst) && self.deframer.buffered_bytes() == 0 {
                return Ok(false);
            }
            std::thread::sleep(POLL_SLEEP);
        }
    }

    fn one_link(&mut self) -> &mut OneLink {
        &mut self.one_link
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
    /// Bounds every blocking read and write, so pumps can notice a halt or
    /// an abort.
    fn set_timeouts(&self, d: Duration) -> std::io::Result<()> {
        match self {
            SocketStream::Tcp(s) => {
                s.set_read_timeout(Some(d))?;
                s.set_write_timeout(Some(d))
            }
            SocketStream::Unix(s) => {
                s.set_read_timeout(Some(d))?;
                s.set_write_timeout(Some(d))
            }
        }
    }

    fn shutdown_write(&self) -> std::io::Result<()> {
        match self {
            SocketStream::Tcp(s) => s.shutdown(std::net::Shutdown::Write),
            SocketStream::Unix(s) => s.shutdown(std::net::Shutdown::Write),
        }
    }

    fn try_clone(&self) -> std::io::Result<Self> {
        Ok(match self {
            SocketStream::Tcp(s) => SocketStream::Tcp(s.try_clone()?),
            SocketStream::Unix(s) => SocketStream::Unix(s.try_clone()?),
        })
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

/// True for the errors a socket with a timeout reports when it is merely
/// quiet (or full), not broken.
fn timed_out(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
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
/// bytes were segmented in flight.
#[derive(Debug)]
pub struct SocketTransport<T> {
    stream: SocketStream,
    deframer: TokenDeframer,
    read_buf: Vec<u8>,
    one_link: OneLink,
    /// Peer sent EOF: drain the deframer, then report end-of-stream.
    eof: bool,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Snapshot> SocketTransport<T> {
    fn from_stream(stream: SocketStream) -> SimResult<Self> {
        stream
            .set_timeouts(Duration::from_millis(20))
            .map_err(|e| SimError::io("setting socket timeouts", &e))?;
        Ok(SocketTransport {
            stream,
            deframer: TokenDeframer::new(),
            read_buf: vec![0; 64 * 1024],
            one_link: OneLink::default(),
            eof: false,
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

    /// A second endpoint on the same connection, so one thread can send
    /// while another receives. Each direction must be driven through one
    /// handle only; take the clone before any traffic.
    ///
    /// # Errors
    ///
    /// Fails if the socket cannot be duplicated.
    pub fn try_clone(&self) -> SimResult<Self> {
        let stream = self
            .stream
            .try_clone()
            .map_err(|e| SimError::io("cloning socket handle", &e))?;
        Self::from_stream(stream)
    }
}

impl<T: Snapshot + Send> TokenTransport<T> for SocketTransport<T> {
    fn kind(&self) -> TransportKind {
        TransportKind::Tcp
    }

    fn send_frame(&mut self, frame: &[u8], abort: &AtomicBool) -> SimResult<()> {
        let mut rest = frame;
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err(SimError::protocol("socket peer stopped accepting bytes")),
                Ok(n) => rest = &rest[n..],
                Err(e) if timed_out(&e) => {
                    if abort.load(Ordering::SeqCst) {
                        return Err(SimError::aborted("aborted while the socket peer was full"));
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(SimError::io("sending token frame", &e)),
            }
        }
        Ok(())
    }

    fn close_send(&mut self) {
        // Best effort: a peer that is already gone needs no end-of-stream.
        let _ = self.stream.shutdown_write();
    }

    fn recv_round(
        &mut self,
        seqs: &mut [u64],
        halt: &AtomicBool,
        out: &mut Vec<(usize, TokenWindow<T>)>,
    ) -> SimResult<bool> {
        loop {
            if self.deframer.next_round(seqs, out)? {
                return Ok(true);
            }
            if self.eof {
                if self.deframer.buffered_bytes() > 0 {
                    return Err(SimError::protocol(format!(
                        "peer closed mid-frame with {} bytes buffered",
                        self.deframer.buffered_bytes()
                    )));
                }
                return Ok(false);
            }
            match self.stream.read(&mut self.read_buf) {
                Ok(0) => self.eof = true,
                Ok(n) => self.deframer.feed(&self.read_buf[..n]),
                Err(e) if timed_out(&e) => {
                    // Quiet socket with no partial frame: halt is safe.
                    if halt.load(Ordering::SeqCst) && self.deframer.buffered_bytes() == 0 {
                        return Ok(false);
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == ErrorKind::ConnectionReset
                        || e.kind() == ErrorKind::BrokenPipe =>
                {
                    self.eof = true;
                }
                Err(e) => return Err(SimError::io("receiving token frame", &e)),
            }
        }
    }

    fn one_link(&mut self) -> &mut OneLink {
        &mut self.one_link
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
        let ring = ShmRing::create(&path, 96).unwrap();
        let reader = ShmRing {
            file: OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .unwrap(),
            capacity: 96,
        };
        let halt = AtomicBool::new(false);
        let mut got = Vec::new();
        for round in 0..20u8 {
            let msg = [round; 40];
            ring.push(&msg, &halt).unwrap();
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
        tx.one_link.send_seq = 5; // simulate a dropped batch
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
        let ring = ShmRing::create(&path, 96).unwrap();
        let reader = ring.try_clone().unwrap();
        let frame: Vec<u8> = (0..5_000u32).map(|i| (i * 7 + i / 256) as u8).collect();
        let expected = frame.clone();
        let writer = std::thread::spawn(move || ring.push(&frame, &AtomicBool::new(false)));
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

    /// Sends three rounds over a three-link connection, one frame each,
    /// from a clone of `tx` while `rx` receives.
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
        exercise_rounds(b.try_clone().unwrap(), a);

        let listener = SocketListener::tcp("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let connect = std::thread::spawn(move || {
            SocketTransport::<u64>::connect_tcp(&addr, &AtomicBool::new(false)).unwrap()
        });
        let a = listener.accept::<u64>().unwrap();
        let b = connect.join().unwrap();
        exercise_rounds(a.try_clone().unwrap(), b);
        std::fs::remove_dir_all(&dir).ok();
    }
}
