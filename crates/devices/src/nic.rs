//! The network interface controller (paper §III-A2, Fig 3).
//!
//! The NIC is split into three blocks exactly as in the paper:
//!
//! * **Controller** — four queues exposed to the CPU as memory-mapped IO:
//!   send requests, receive requests, send completions, receive
//!   completions; plus an interrupt line asserted while a completion queue
//!   is occupied.
//! * **Send path** — *reader* (issues 8-byte-aligned reads for packet data
//!   from memory), *reservation buffer* (holds read data awaiting
//!   transmission), *aligner* (drops the slack bytes produced by aligned
//!   reads of unaligned packets), and *rate limiter* (a token bucket:
//!   the counter is incremented by `k` every `p` cycles and decremented
//!   per flit sent, making the effective bandwidth `k/p` of the native
//!   200 Gbit/s — runtime-configurable, no resynthesis, and with proper
//!   backpressure into the NIC).
//! * **Receive path** — *packet buffer* (drops at full-packet granularity
//!   when space is insufficient, so the OS never sees a partial packet)
//!   and *writer* (writes packet bytes to the receive buffers supplied by
//!   the CPU, completing only after all writes are done).
//!
//! The top-level interface is FAME-1 decoupled: each target cycle the NIC
//! consumes at most one network token and produces at most one
//! ([`Nic::tick`]).

use std::collections::VecDeque;

use firesim_net::{Flit, MacAddr};
use firesim_riscv::mem::Memory;

use crate::mmio::MmioDevice;

/// Register map offsets (64-bit registers).
#[allow(missing_docs)]
pub mod reg {
    pub const SEND_REQ: u64 = 0x00;
    pub const RECV_REQ: u64 = 0x08;
    pub const COUNTS: u64 = 0x10;
    pub const SEND_COMP: u64 = 0x18;
    pub const RECV_COMP: u64 = 0x20;
    pub const INTR_MASK: u64 = 0x28;
    pub const MACADDR: u64 = 0x30;
    pub const RATE_LIMIT: u64 = 0x38;
}

/// NIC configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NicConfig {
    /// Depth of each controller queue.
    pub queue_depth: usize,
    /// Reservation buffer capacity in bytes (send path).
    pub resbuf_bytes: usize,
    /// Packet buffer capacity in bytes (receive path).
    pub pktbuf_bytes: usize,
    /// Token-bucket increment `k` (0 disables rate limiting).
    pub rate_k: u16,
    /// Token-bucket period `p` in cycles.
    pub rate_p: u16,
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig {
            queue_depth: 16,
            resbuf_bytes: 4096,
            pktbuf_bytes: 64 * 1024,
            rate_k: 0,
            rate_p: 1,
        }
    }
}

/// NIC statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NicStats {
    /// Packets fully transmitted onto the link.
    pub tx_packets: u64,
    /// Bytes transmitted (packet payloads as seen on the wire).
    pub tx_bytes: u64,
    /// Packets fully received into the packet buffer.
    pub rx_packets: u64,
    /// Bytes received.
    pub rx_bytes: u64,
    /// Packets dropped because the packet buffer was full.
    pub rx_dropped: u64,
}

impl NicStats {
    /// Appends every counter as a `(name, value)` pair, prefixed with
    /// `prefix` (e.g. `"nic_"`), for [`SimAgent::app_counters`]-style
    /// observability exports.
    ///
    /// [`SimAgent::app_counters`]: firesim_core::SimAgent::app_counters
    pub fn export(&self, prefix: &str, out: &mut Vec<(String, u64)>) {
        out.push((format!("{prefix}tx_packets"), self.tx_packets));
        out.push((format!("{prefix}tx_bytes"), self.tx_bytes));
        out.push((format!("{prefix}rx_packets"), self.rx_packets));
        out.push((format!("{prefix}rx_bytes"), self.rx_bytes));
        out.push((format!("{prefix}rx_dropped"), self.rx_dropped));
    }
}

#[derive(Debug, Clone, Copy)]
struct ReaderState {
    /// Unaligned packet start address.
    addr: u64,
    /// Packet length in bytes.
    len: u32,
    /// Next aligned read cursor.
    cursor: u64,
    /// One past the last aligned address to read.
    end: u64,
}

/// The NIC. See the [module docs](self).
#[derive(Debug)]
pub struct Nic {
    mac: MacAddr,
    config: NicConfig,

    // Controller queues.
    send_reqs: VecDeque<(u64, u32)>,
    recv_reqs: VecDeque<u64>,
    send_comps: VecDeque<u64>,
    recv_comps: VecDeque<u32>,
    intr_mask: u64,

    // Send path.
    reader: Option<ReaderState>,
    resbuf: VecDeque<u8>,
    /// Lengths of packets whose bytes are flowing through the resbuf.
    tx_pkts: VecDeque<u32>,
    /// Remaining bytes of the packet currently transmitting.
    tx_remaining: Option<u32>,
    tokens: i64,
    cycle: u64,

    // Receive path.
    rx_cur: Vec<u8>,
    rx_dropping: bool,
    rx_buffered: VecDeque<Vec<u8>>,
    rx_buffered_bytes: usize,
    writer: Option<(Vec<u8>, usize, u64)>,
    /// Emptied packet buffers the writer has finished with, reused for
    /// the next incoming packets so steady-state receive does not
    /// allocate. Host-side only: never checkpointed, at most
    /// `queue_depth` buffers, filled lazily.
    rx_free: Vec<Vec<u8>>,

    stats: NicStats,
}

impl Nic {
    /// Creates a NIC with the given MAC address.
    pub fn new(mac: MacAddr, config: NicConfig) -> Self {
        Nic {
            mac,
            send_reqs: VecDeque::new(),
            recv_reqs: VecDeque::new(),
            send_comps: VecDeque::new(),
            recv_comps: VecDeque::new(),
            intr_mask: 0,
            reader: None,
            resbuf: VecDeque::new(),
            tx_pkts: VecDeque::new(),
            tx_remaining: None,
            tokens: i64::from(config.rate_k.max(1)),
            cycle: 0,
            rx_cur: Vec::new(),
            rx_dropping: false,
            rx_buffered: VecDeque::new(),
            rx_buffered_bytes: 0,
            writer: None,
            rx_free: Vec::new(),
            stats: NicStats::default(),
            config,
        }
    }

    /// The NIC's MAC address.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// Statistics counters.
    pub fn stats(&self) -> NicStats {
        self.stats
    }

    /// Reconfigures the token-bucket rate limiter at runtime: effective
    /// bandwidth becomes `k/p` of the native link rate. `k = 0` disables
    /// limiting.
    pub fn set_rate_limit(&mut self, k: u16, p: u16) {
        self.config.rate_k = k;
        self.config.rate_p = p.max(1);
        self.tokens = self.tokens.min(i64::from(k.max(1)) * 2);
    }

    /// True when a [`Nic::tick`] with no incoming flit would change
    /// nothing observable: no DMA engine active, no queued work that a
    /// tick could start, and nothing buffered for transmission. In this
    /// state the only per-cycle effects are the cycle counter and the
    /// rate-limiter refill, both reproduced in closed form by
    /// [`Nic::skip_quiescent`].
    ///
    /// `rx_buffered` plus `recv_reqs` both nonempty would let a tick pair
    /// them into a writer, so quiescence requires at least one empty.
    pub fn is_quiescent(&self) -> bool {
        self.reader.is_none()
            && self.writer.is_none()
            && self.send_reqs.is_empty()
            && self.resbuf.is_empty()
            && self.tx_pkts.is_empty()
            && self.tx_remaining.is_none()
            && (self.rx_buffered.is_empty() || self.recv_reqs.is_empty())
    }

    /// Bulk-advances a quiescent NIC by `cycles` target cycles with no
    /// incoming flits, bit-identical to `cycles` calls of
    /// `tick(mem, None)` in that state (which touch only the cycle
    /// counter and the token bucket).
    ///
    /// The token bucket admits a closed form because refills are monotone
    /// non-decreasing under the cap and nothing transmits:
    /// `t_n = min(t_0 + n*k, cap)`.
    ///
    /// # Panics
    ///
    /// Debug-panics when the NIC is not quiescent.
    pub fn skip_quiescent(&mut self, cycles: u64) {
        if cycles == 0 {
            return;
        }
        debug_assert!(self.is_quiescent(), "skip_quiescent on a busy NIC");
        if self.config.rate_k > 0 {
            let p = u64::from(self.config.rate_p.max(1));
            let refills = (self.cycle + cycles) / p - self.cycle / p;
            if refills > 0 {
                let cap = i64::from(self.config.rate_k) * 2 + 2;
                let added = i64::try_from(refills)
                    .ok()
                    .and_then(|r| r.checked_mul(i64::from(self.config.rate_k)))
                    .and_then(|add| self.tokens.checked_add(add))
                    .unwrap_or(i64::MAX);
                self.tokens = added.min(cap);
            }
        } else {
            self.tokens = 1;
        }
        self.cycle += cycles;
    }

    /// Advances the NIC by one target cycle.
    ///
    /// `rx` is this cycle's incoming network token (if the link carried
    /// valid data); the return value is this cycle's outgoing token.
    /// `mem` is the blade's functional memory, used by the reader and
    /// writer DMA engines (8 bytes per cycle each, matching the TileLink
    /// port width).
    pub fn tick(&mut self, mem: &mut Memory, rx: Option<Flit>) -> Option<Flit> {
        self.cycle += 1;

        // --- Rate limiter refill. ---
        if self.config.rate_k > 0 {
            if self
                .cycle
                .is_multiple_of(u64::from(self.config.rate_p.max(1)))
            {
                let cap = i64::from(self.config.rate_k) * 2 + 2;
                self.tokens = (self.tokens + i64::from(self.config.rate_k)).min(cap);
            }
        } else {
            self.tokens = 1; // unlimited: always exactly one flit per cycle
        }

        // --- Receive path: packet buffer. ---
        if let Some(flit) = rx {
            let bytes = &flit.bytes()[..flit.byte_len()];
            if !self.rx_dropping {
                if self.rx_buffered_bytes + self.rx_cur.len() + bytes.len()
                    > self.config.pktbuf_bytes
                {
                    // Insufficient space: drop this packet entirely.
                    self.rx_dropping = true;
                    self.rx_cur.clear();
                    self.stats.rx_dropped += 1;
                } else {
                    self.rx_cur.extend_from_slice(bytes);
                }
            }
            if flit.last {
                if !self.rx_dropping {
                    let next = self.rx_free.pop().unwrap_or_default();
                    let pkt = std::mem::replace(&mut self.rx_cur, next);
                    self.rx_buffered_bytes += pkt.len();
                    self.stats.rx_packets += 1;
                    self.stats.rx_bytes += pkt.len() as u64;
                    self.rx_buffered.push_back(pkt);
                }
                self.rx_dropping = false;
            }
        }

        // --- Receive path: writer (8 bytes per cycle). ---
        if self.writer.is_none() {
            if let (Some(_), Some(_)) = (self.rx_buffered.front(), self.recv_reqs.front()) {
                let pkt = self.rx_buffered.pop_front().expect("checked");
                let addr = self.recv_reqs.pop_front().expect("checked");
                self.rx_buffered_bytes -= pkt.len();
                self.writer = Some((pkt, 0, addr));
            }
        }
        if let Some((pkt, cursor, addr)) = &mut self.writer {
            let n = (pkt.len() - *cursor).min(8);
            // Writes to unmapped addresses are dropped silently (a real
            // DMA would raise a bus error; software owns buffer validity).
            let _ = mem.write_bytes(*addr + *cursor as u64, &pkt[*cursor..*cursor + n]);
            *cursor += n;
            if *cursor >= pkt.len() {
                if self.recv_comps.len() < self.config.queue_depth {
                    self.recv_comps.push_back(pkt.len() as u32);
                }
                let (mut pkt, _, _) = self.writer.take().expect("writer is active");
                if self.rx_free.len() < self.config.queue_depth {
                    pkt.clear();
                    self.rx_free.push(pkt);
                }
            }
        }

        // --- Send path: reader (one aligned 8-byte read per cycle). ---
        if self.reader.is_none() {
            if let Some(&(addr, len)) = self.send_reqs.front() {
                let start = addr & !7;
                let end = (addr + u64::from(len) + 7) & !7;
                self.send_reqs.pop_front();
                self.reader = Some(ReaderState {
                    addr,
                    len,
                    cursor: start,
                    end,
                });
                self.tx_pkts.push_back(len);
            }
        }
        if let Some(mut r) = self.reader.take() {
            // Respect reservation-buffer backpressure.
            if self.resbuf.len() + 8 <= self.config.resbuf_bytes && r.cursor < r.end {
                if let Ok(chunk) = mem.read_bytes(r.cursor, 8) {
                    // Aligner: keep only the packet's own bytes, the
                    // sub-slice of the word that overlaps the packet.
                    let lo = r.addr.saturating_sub(r.cursor).min(8) as usize;
                    let hi = (r.addr + u64::from(r.len)).saturating_sub(r.cursor).min(8) as usize;
                    if lo < hi {
                        self.resbuf.extend(&chunk[lo..hi]);
                    }
                }
                r.cursor += 8;
            }
            if r.cursor >= r.end {
                // All reads issued: send completion (paper semantics).
                if self.send_comps.len() < self.config.queue_depth {
                    self.send_comps.push_back(1);
                }
            } else {
                self.reader = Some(r);
            }
        }

        // --- Send path: transmit one flit through the rate limiter. ---
        let mut out = None;
        if self.tokens > 0 {
            if self.tx_remaining.is_none() {
                if let Some(len) = self.tx_pkts.front().copied() {
                    if len > 0 {
                        self.tx_remaining = Some(len);
                    } else {
                        self.tx_pkts.pop_front();
                    }
                }
            }
            if let Some(remaining) = self.tx_remaining {
                let n = (remaining as usize).min(8);
                if self.resbuf.len() >= n {
                    // Take the flit's bytes as one word (zero above `n`).
                    let mut buf = [0u8; 8];
                    let (front, back) = self.resbuf.as_slices();
                    let split = front.len().min(n);
                    buf[..split].copy_from_slice(&front[..split]);
                    buf[split..n].copy_from_slice(&back[..n - split]);
                    self.resbuf.drain(..n);
                    let last = remaining as usize == n;
                    out = Some(Flit {
                        data: u64::from_le_bytes(buf),
                        len: n as u8,
                        last,
                    });
                    self.tokens -= 1;
                    self.stats.tx_bytes += n as u64;
                    if last {
                        self.tx_remaining = None;
                        self.tx_pkts.pop_front();
                        self.stats.tx_packets += 1;
                    } else {
                        self.tx_remaining = Some(remaining - n as u32);
                    }
                }
            }
        }
        out
    }
}

impl firesim_core::snapshot::Snapshot for NicStats {
    fn save(&self, w: &mut firesim_core::snapshot::SnapshotWriter) {
        w.put_u64(self.tx_packets);
        w.put_u64(self.tx_bytes);
        w.put_u64(self.rx_packets);
        w.put_u64(self.rx_bytes);
        w.put_u64(self.rx_dropped);
    }
    fn load(r: &mut firesim_core::snapshot::SnapshotReader<'_>) -> firesim_core::SimResult<Self> {
        Ok(NicStats {
            tx_packets: r.get_u64()?,
            tx_bytes: r.get_u64()?,
            rx_packets: r.get_u64()?,
            rx_bytes: r.get_u64()?,
            rx_dropped: r.get_u64()?,
        })
    }
}

impl firesim_core::snapshot::Checkpoint for Nic {
    fn save_state(
        &self,
        w: &mut firesim_core::snapshot::SnapshotWriter,
    ) -> firesim_core::SimResult<()> {
        w.put(&self.mac);
        // The rate limiter is runtime-configurable (MMIO RATE_LIMIT), so
        // it is state, not construction config.
        w.put(&self.config.rate_k);
        w.put(&self.config.rate_p);
        w.put_seq(self.send_reqs.iter());
        w.put_seq(self.recv_reqs.iter());
        w.put_seq(self.send_comps.iter());
        w.put_seq(self.recv_comps.iter());
        w.put_u64(self.intr_mask);
        w.put_bool(self.reader.is_some());
        if let Some(rd) = &self.reader {
            w.put_u64(rd.addr);
            w.put_u32(rd.len);
            w.put_u64(rd.cursor);
            w.put_u64(rd.end);
        }
        w.put(&self.resbuf);
        w.put(&self.tx_pkts);
        w.put(&self.tx_remaining);
        w.put_i64(self.tokens);
        w.put_u64(self.cycle);
        w.put_bytes(&self.rx_cur);
        w.put_bool(self.rx_dropping);
        w.put(&self.rx_buffered);
        w.put_usize(self.rx_buffered_bytes);
        w.put_bool(self.writer.is_some());
        if let Some((pkt, cursor, addr)) = &self.writer {
            w.put_bytes(pkt);
            w.put_usize(*cursor);
            w.put_u64(*addr);
        }
        w.put(&self.stats);
        Ok(())
    }

    fn restore_state(
        &mut self,
        r: &mut firesim_core::snapshot::SnapshotReader<'_>,
    ) -> firesim_core::SimResult<()> {
        let mac: MacAddr = r.get()?;
        if mac != self.mac {
            return Err(firesim_core::SimError::checkpoint(format!(
                "NIC snapshot is for MAC {mac}, restoring onto {}",
                self.mac
            )));
        }
        self.config.rate_k = r.get()?;
        self.config.rate_p = r.get()?;
        self.send_reqs = r.get()?;
        self.recv_reqs = r.get()?;
        self.send_comps = r.get()?;
        self.recv_comps = r.get()?;
        self.intr_mask = r.get_u64()?;
        self.reader = if r.get_bool()? {
            Some(ReaderState {
                addr: r.get_u64()?,
                len: r.get_u32()?,
                cursor: r.get_u64()?,
                end: r.get_u64()?,
            })
        } else {
            None
        };
        self.resbuf = r.get()?;
        self.tx_pkts = r.get()?;
        self.tx_remaining = r.get()?;
        self.tokens = r.get_i64()?;
        self.cycle = r.get_u64()?;
        self.rx_cur = r.get_bytes()?.to_vec();
        self.rx_dropping = r.get_bool()?;
        self.rx_buffered = r.get()?;
        self.rx_buffered_bytes = r.get_usize()?;
        self.writer = if r.get_bool()? {
            let pkt = r.get_bytes()?.to_vec();
            Some((pkt, r.get_usize()?, r.get_u64()?))
        } else {
            None
        };
        self.stats = r.get()?;
        self.validate()
    }
}

impl Nic {
    /// Rejects restored state that the datapath's arithmetic assumes can
    /// never arise: over-full controller queues, a writer cursor past its
    /// packet, and buffer occupancies that disagree with their contents
    /// or capacity.
    fn validate(&self) -> firesim_core::SimResult<()> {
        let fail = |what: String| Err(firesim_core::SimError::checkpoint(format!("NIC {what}")));
        let depth = self.config.queue_depth;
        for (name, len) in [
            ("send request", self.send_reqs.len()),
            ("receive request", self.recv_reqs.len()),
            ("send completion", self.send_comps.len()),
            ("receive completion", self.recv_comps.len()),
        ] {
            if len > depth {
                return fail(format!(
                    "{name} queue holds {len} entries, depth is {depth}"
                ));
            }
        }
        if let Some((pkt, cursor, _)) = &self.writer {
            if *cursor > pkt.len() {
                return fail(format!(
                    "writer cursor {cursor} is past its {}-byte packet",
                    pkt.len()
                ));
            }
        }
        let buffered: usize = self.rx_buffered.iter().map(Vec::len).sum();
        if buffered != self.rx_buffered_bytes {
            return fail(format!(
                "packet buffer counts {} bytes but holds {buffered}",
                self.rx_buffered_bytes
            ));
        }
        if self.resbuf.len() > self.config.resbuf_bytes {
            return fail(format!(
                "reservation buffer holds {} bytes, capacity is {}",
                self.resbuf.len(),
                self.config.resbuf_bytes
            ));
        }
        Ok(())
    }
}

impl MmioDevice for Nic {
    fn read(&mut self, offset: u64, _size: usize) -> u64 {
        match offset {
            reg::COUNTS => {
                let free_send = (self.config.queue_depth - self.send_reqs.len()) as u64;
                let free_recv = (self.config.queue_depth - self.recv_reqs.len()) as u64;
                let send_comps = self.send_comps.len() as u64;
                let recv_comps = self.recv_comps.len() as u64;
                free_send | (free_recv << 8) | (send_comps << 16) | (recv_comps << 24)
            }
            reg::SEND_COMP => self.send_comps.pop_front().unwrap_or_default(),
            reg::RECV_COMP => match self.recv_comps.pop_front() {
                // Length + 1 so that 0 unambiguously means "empty".
                Some(len) => u64::from(len) + 1,
                None => 0,
            },
            reg::INTR_MASK => self.intr_mask,
            reg::MACADDR => {
                let b = self.mac.0;
                u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], 0, 0])
            }
            reg::RATE_LIMIT => {
                u64::from(self.config.rate_k) | (u64::from(self.config.rate_p) << 16)
            }
            _ => 0,
        }
    }

    fn write(&mut self, offset: u64, _size: usize, value: u64) {
        match offset {
            reg::SEND_REQ if self.send_reqs.len() < self.config.queue_depth => {
                let addr = value & 0xffff_ffff_ffff;
                let len = ((value >> 48) & 0x7fff) as u32;
                if len > 0 {
                    self.send_reqs.push_back((addr, len));
                }
            }
            reg::RECV_REQ if self.recv_reqs.len() < self.config.queue_depth => {
                self.recv_reqs.push_back(value);
            }
            reg::INTR_MASK => self.intr_mask = value & 0b11,
            reg::RATE_LIMIT => {
                self.set_rate_limit((value & 0xffff) as u16, ((value >> 16) & 0xffff) as u16);
            }
            _ => {}
        }
    }

    fn interrupt(&self) -> bool {
        (self.intr_mask & 0b01 != 0 && !self.send_comps.is_empty())
            || (self.intr_mask & 0b10 != 0 && !self.recv_comps.is_empty())
    }
}

/// Packs a send request register value from a buffer address and length.
pub fn send_req(addr: u64, len: u32) -> u64 {
    (addr & 0xffff_ffff_ffff) | (u64::from(len & 0x7fff) << 48)
}

#[cfg(test)]
mod tests {
    use super::*;
    use firesim_riscv::DRAM_BASE;

    fn mk() -> (Nic, Memory) {
        let nic = Nic::new(MacAddr::from_node_index(1), NicConfig::default());
        let mem = Memory::new(DRAM_BASE, 1 << 20);
        (nic, mem)
    }

    fn drive_tx(nic: &mut Nic, mem: &mut Memory, cycles: usize) -> Vec<Flit> {
        let mut flits = Vec::new();
        for _ in 0..cycles {
            if let Some(f) = nic.tick(mem, None) {
                flits.push(f);
            }
        }
        flits
    }

    fn flits_to_bytes(flits: &[Flit]) -> Vec<u8> {
        let mut out = Vec::new();
        for f in flits {
            out.extend_from_slice(&f.bytes()[..f.byte_len()]);
        }
        out
    }

    #[test]
    fn skip_quiescent_matches_iterated_ticks() {
        // Sweep rate-limiter configs and skip lengths, comparing the
        // closed-form bulk advance against literally iterating tick().
        for (k, p) in [(0u16, 1u16), (1, 1), (3, 7), (8, 2), (5, 64)] {
            for skip in [1u64, 2, 5, 63, 64, 65, 1000] {
                let (mut a, mut mem) = mk();
                let (mut b, _) = mk();
                a.set_rate_limit(k, p);
                b.set_rate_limit(k, p);
                // Drain some tokens first so the bucket is mid-range.
                let payload = [0u8; 32];
                mem.write_bytes(DRAM_BASE + 0x100, &payload).unwrap();
                for nic in [&mut a, &mut b] {
                    nic.write(reg::SEND_REQ, 8, send_req(DRAM_BASE + 0x100, 32));
                    let _ = drive_tx(nic, &mut mem, 400);
                    assert!(nic.is_quiescent(), "k={k} p={p}: NIC should drain");
                }
                assert_eq!(a.tokens, b.tokens);
                for _ in 0..skip {
                    let tx = a.tick(&mut mem, None);
                    assert!(tx.is_none(), "quiescent NIC must not transmit");
                }
                b.skip_quiescent(skip);
                assert_eq!(a.cycle, b.cycle, "k={k} p={p} skip={skip}");
                assert_eq!(a.tokens, b.tokens, "k={k} p={p} skip={skip}");
            }
        }
    }

    #[test]
    fn quiescence_predicate_tracks_activity() {
        let (mut nic, mut mem) = mk();
        assert!(nic.is_quiescent());
        let payload = [7u8; 16];
        mem.write_bytes(DRAM_BASE + 0x100, &payload).unwrap();
        nic.write(reg::SEND_REQ, 8, send_req(DRAM_BASE + 0x100, 16));
        assert!(!nic.is_quiescent(), "pending send request is activity");
        let _ = drive_tx(&mut nic, &mut mem, 40);
        assert!(nic.is_quiescent(), "drained NIC is quiescent again");
        // A posted receive buffer alone is quiescent (nothing to pair).
        nic.write(reg::RECV_REQ, 8, DRAM_BASE + 0x200);
        assert!(nic.is_quiescent());
    }

    #[test]
    fn transmits_aligned_packet() {
        let (mut nic, mut mem) = mk();
        let payload: Vec<u8> = (0..64u8).collect();
        mem.write_bytes(DRAM_BASE + 0x100, &payload).unwrap();
        nic.write(reg::SEND_REQ, 8, send_req(DRAM_BASE + 0x100, 64));
        let flits = drive_tx(&mut nic, &mut mem, 100);
        assert_eq!(flits.len(), 8);
        assert!(flits.last().unwrap().last);
        assert!(flits[..7].iter().all(|f| !f.last));
        assert_eq!(flits_to_bytes(&flits), payload);
        assert_eq!(nic.stats().tx_packets, 1);
        assert_eq!(nic.stats().tx_bytes, 64);
        // Send completion shows up.
        assert_eq!(nic.read(reg::SEND_COMP, 8), 1);
        assert_eq!(nic.read(reg::SEND_COMP, 8), 0);
    }

    #[test]
    fn transmits_unaligned_packet_via_aligner() {
        let (mut nic, mut mem) = mk();
        // Surround the packet with sentinel bytes that must NOT leak.
        let mut region = vec![0xEE; 64];
        for (i, b) in region.iter_mut().enumerate().skip(3).take(21) {
            *b = i as u8;
        }
        mem.write_bytes(DRAM_BASE + 0x200, &region).unwrap();
        nic.write(reg::SEND_REQ, 8, send_req(DRAM_BASE + 0x200 + 3, 21));
        let flits = drive_tx(&mut nic, &mut mem, 100);
        let bytes = flits_to_bytes(&flits);
        assert_eq!(bytes.len(), 21);
        assert_eq!(bytes, (3..24).map(|i| i as u8).collect::<Vec<_>>());
        assert!(!bytes.contains(&0xEE));
    }

    #[test]
    fn rate_limiter_halves_throughput() {
        let (mut nic, mut mem) = mk();
        let payload = vec![0xAB; 800]; // 100 flits
        mem.write_bytes(DRAM_BASE + 0x1000, &payload).unwrap();
        // k=1, p=2: one flit every other cycle, i.e. ~100 Gbit/s.
        nic.set_rate_limit(1, 2);
        // Drain the initial burst allowance first for a clean measurement.
        nic.write(reg::SEND_REQ, 8, send_req(DRAM_BASE + 0x1000, 800));
        let mut sent_at = Vec::new();
        let mut mem2 = mem;
        for cycle in 0..1000u64 {
            if nic.tick(&mut mem2, None).is_some() {
                sent_at.push(cycle);
            }
        }
        assert_eq!(sent_at.len(), 100);
        // Steady-state spacing is 2 cycles (ignore the initial burst).
        let tail = &sent_at[8..];
        let deltas: Vec<u64> = tail.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(deltas.iter().all(|&d| d == 2), "{deltas:?}");
    }

    #[test]
    fn unlimited_rate_is_one_flit_per_cycle() {
        let (mut nic, mut mem) = mk();
        let payload = vec![0xCD; 160]; // 20 flits
        mem.write_bytes(DRAM_BASE + 0x1000, &payload).unwrap();
        nic.write(reg::SEND_REQ, 8, send_req(DRAM_BASE + 0x1000, 160));
        let mut sent_at = Vec::new();
        for cycle in 0..100u64 {
            if nic.tick(&mut mem, None).is_some() {
                sent_at.push(cycle);
            }
        }
        assert_eq!(sent_at.len(), 20);
        let deltas: Vec<u64> = sent_at.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(deltas.iter().all(|&d| d == 1), "{deltas:?}");
    }

    #[test]
    fn receives_packet_into_posted_buffer() {
        let (mut nic, mut mem) = mk();
        nic.write(reg::RECV_REQ, 8, DRAM_BASE + 0x3000);
        let payload: Vec<u8> = (0..20u8).collect();
        // Feed 3 flits: 8 + 8 + 4 bytes.
        let f1 = Flit::from_bytes(&payload[0..8], false);
        let f2 = Flit::from_bytes(&payload[8..16], false);
        let f3 = Flit::from_bytes(&payload[16..20], true);
        nic.tick(&mut mem, Some(f1));
        nic.tick(&mut mem, Some(f2));
        nic.tick(&mut mem, Some(f3));
        // Writer needs a few cycles to drain.
        for _ in 0..10 {
            nic.tick(&mut mem, None);
        }
        assert_eq!(nic.read(reg::RECV_COMP, 8), 21); // len 20 + 1
        assert_eq!(
            mem.read_bytes(DRAM_BASE + 0x3000, 20).unwrap(),
            &payload[..]
        );
        assert_eq!(nic.stats().rx_packets, 1);
    }

    #[test]
    fn packet_buffer_overflow_drops_whole_packets() {
        let mut nic = Nic::new(
            MacAddr::from_node_index(1),
            NicConfig {
                pktbuf_bytes: 16,
                ..NicConfig::default()
            },
        );
        let mut mem = Memory::new(DRAM_BASE, 4096);
        // No recv requests posted: writer cannot drain. First packet (8B)
        // fits; second (16B) overflows and is dropped whole.
        nic.tick(&mut mem, Some(Flit::from_bytes(&[1; 8], true)));
        nic.tick(&mut mem, Some(Flit::from_bytes(&[2; 8], false)));
        nic.tick(&mut mem, Some(Flit::from_bytes(&[2; 8], true)));
        assert_eq!(nic.stats().rx_packets, 1);
        assert_eq!(nic.stats().rx_dropped, 1);
        // A third small packet still fits (8 bytes left).
        nic.tick(&mut mem, Some(Flit::from_bytes(&[3; 8], true)));
        assert_eq!(nic.stats().rx_packets, 2);
    }

    #[test]
    fn interrupts_follow_mask_and_completions() {
        let (mut nic, mut mem) = mk();
        assert!(!nic.interrupt());
        nic.write(reg::INTR_MASK, 8, 0b10);
        nic.write(reg::RECV_REQ, 8, DRAM_BASE + 0x3000);
        nic.tick(&mut mem, Some(Flit::from_bytes(&[7; 8], true)));
        for _ in 0..5 {
            nic.tick(&mut mem, None);
        }
        assert!(nic.interrupt());
        let _ = nic.read(reg::RECV_COMP, 8);
        assert!(!nic.interrupt());
    }

    #[test]
    fn counts_register_reflects_queues() {
        let (mut nic, _mem) = mk();
        let counts = nic.read(reg::COUNTS, 8);
        assert_eq!(counts & 0xff, 16);
        assert_eq!((counts >> 8) & 0xff, 16);
        nic.write(reg::SEND_REQ, 8, send_req(DRAM_BASE, 8));
        nic.write(reg::RECV_REQ, 8, DRAM_BASE);
        let counts = nic.read(reg::COUNTS, 8);
        assert_eq!(counts & 0xff, 15);
        assert_eq!((counts >> 8) & 0xff, 15);
    }

    #[test]
    fn mac_register_matches() {
        let (mut nic, _mem) = mk();
        let raw = nic.read(reg::MACADDR, 8);
        let b = raw.to_le_bytes();
        assert_eq!(MacAddr([b[0], b[1], b[2], b[3], b[4], b[5]]), nic.mac());
    }

    #[test]
    fn back_to_back_packets_keep_boundaries() {
        let (mut nic, mut mem) = mk();
        mem.write_bytes(DRAM_BASE + 0x100, &[0x11; 12]).unwrap();
        mem.write_bytes(DRAM_BASE + 0x200, &[0x22; 12]).unwrap();
        nic.write(reg::SEND_REQ, 8, send_req(DRAM_BASE + 0x100, 12));
        nic.write(reg::SEND_REQ, 8, send_req(DRAM_BASE + 0x200, 12));
        let flits = drive_tx(&mut nic, &mut mem, 100);
        assert_eq!(flits.len(), 4); // 2 flits per 12-byte packet
        assert!(flits[1].last && flits[3].last);
        assert!(!flits[0].last && !flits[2].last);
        assert_eq!(flits[1].byte_len(), 4);
        assert_eq!(nic.stats().tx_packets, 2);
    }

    /// Saves `bad` and restores it onto a fresh NIC with the same MAC,
    /// which must fail with a typed checkpoint error, not a panic.
    fn assert_restore_rejects(bad: &Nic, what: &str) {
        use firesim_core::snapshot::{Checkpoint, SnapshotReader, SnapshotWriter};
        let mut w = SnapshotWriter::new();
        bad.save_state(&mut w).unwrap();
        let bytes = w.into_bytes();
        let (mut fresh, _) = mk();
        match fresh.restore_state(&mut SnapshotReader::new(&bytes)) {
            Err(firesim_core::SimError::Checkpoint { detail }) => {
                assert!(detail.contains(what), "{what}: {detail}");
            }
            other => panic!("{what}: restore returned {other:?}"),
        }
    }

    #[test]
    fn restore_round_trips_a_busy_nic() {
        use firesim_core::snapshot::{Checkpoint, SnapshotReader, SnapshotWriter};
        let (mut nic, mut mem) = mk();
        mem.write_bytes(DRAM_BASE + 0x100, &[0x33; 100]).unwrap();
        nic.write(reg::SEND_REQ, 8, send_req(DRAM_BASE + 0x103, 90));
        nic.write(reg::RECV_REQ, 8, DRAM_BASE + 0x2000);
        nic.tick(&mut mem, Some(Flit::from_bytes(&[1; 8], false)));
        nic.tick(&mut mem, Some(Flit::from_bytes(&[2; 3], true)));
        let _ = drive_tx(&mut nic, &mut mem, 3);
        let mut w = SnapshotWriter::new();
        nic.save_state(&mut w).unwrap();
        let bytes = w.into_bytes();
        let (mut copy, _) = mk();
        copy.restore_state(&mut SnapshotReader::new(&bytes))
            .unwrap();
        let mut again = SnapshotWriter::new();
        copy.save_state(&mut again).unwrap();
        assert_eq!(again.into_bytes(), bytes);
    }

    #[test]
    fn restore_rejects_overfull_queues() {
        let depth = NicConfig::default().queue_depth;
        let (mut bad, _) = mk();
        bad.send_reqs = (0..=depth as u64).map(|i| (DRAM_BASE + i, 8)).collect();
        assert_restore_rejects(&bad, "send request queue");
        let (mut bad, _) = mk();
        bad.recv_reqs = (0..=depth as u64).map(|i| DRAM_BASE + i).collect();
        assert_restore_rejects(&bad, "receive request queue");
        let (mut bad, _) = mk();
        bad.send_comps = (0..=depth).map(|_| 1).collect();
        assert_restore_rejects(&bad, "send completion queue");
        let (mut bad, _) = mk();
        bad.recv_comps = (0..=depth).map(|_| 64).collect();
        assert_restore_rejects(&bad, "receive completion queue");
    }

    #[test]
    fn restore_rejects_writer_cursor_past_packet() {
        let (mut bad, _) = mk();
        bad.writer = Some((vec![0; 16], 17, DRAM_BASE));
        assert_restore_rejects(&bad, "writer cursor");
    }

    #[test]
    fn restore_rejects_wrong_packet_buffer_count() {
        let (mut bad, _) = mk();
        bad.rx_buffered = VecDeque::from([vec![0; 10], vec![0; 6]]);
        bad.rx_buffered_bytes = 15;
        assert_restore_rejects(&bad, "packet buffer");
    }

    #[test]
    fn restore_rejects_overfull_reservation_buffer() {
        let (mut bad, _) = mk();
        bad.resbuf = std::iter::repeat_n(0, NicConfig::default().resbuf_bytes + 1).collect();
        assert_restore_rejects(&bad, "reservation buffer");
    }

    mod datapath_props {
        use super::*;
        use proptest::prelude::*;

        /// Posts every packet, drives the NIC until it has been idle for
        /// a while, and checks the wire against the bytes in DRAM: one
        /// frame per packet in order, full 8-byte flits except each
        /// frame's `last` one, one send completion per packet, and never
        /// more flits than the token bucket has admitted.
        fn check_tx(
            packets: &[(u64, u32)],
            rate: (u16, u16),
            resbuf_bytes: usize,
            fill: u64,
        ) -> Result<(), TestCaseError> {
            let mut nic = Nic::new(
                MacAddr::from_node_index(1),
                NicConfig {
                    resbuf_bytes,
                    ..NicConfig::default()
                },
            );
            let (k, p) = rate;
            nic.set_rate_limit(k, p);
            let mut mem = Memory::new(DRAM_BASE, 1 << 16);
            let image: Vec<u8> = (0..1u64 << 16)
                .map(|i| (i.wrapping_mul(fill) >> 7) as u8)
                .collect();
            mem.write_bytes(DRAM_BASE, &image).unwrap();
            for &(off, len) in packets {
                nic.write(reg::SEND_REQ, 8, send_req(DRAM_BASE + off, len));
            }
            let mut flits = Vec::new();
            let mut idle = 0u64;
            let mut cycle = 0u64;
            while idle < 64 {
                cycle += 1;
                match nic.tick(&mut mem, None) {
                    Some(f) => {
                        flits.push(f);
                        idle = 0;
                    }
                    None => idle += 1,
                }
                if k > 0 {
                    // Initial bucket plus every refill so far.
                    let admitted = u64::from(k) + cycle / u64::from(p) * u64::from(k);
                    prop_assert!(flits.len() as u64 <= admitted, "cycle {cycle}");
                }
                prop_assert!(cycle < 1_000_000, "NIC never drained");
            }
            let mut frames: Vec<Vec<u8>> = vec![Vec::new()];
            for f in &flits {
                prop_assert!(f.len >= 1 && f.len <= 8);
                prop_assert!(f.len == 8 || f.data >> (8 * u32::from(f.len)) == 0);
                frames
                    .last_mut()
                    .unwrap()
                    .extend_from_slice(&f.bytes()[..f.byte_len()]);
                if f.last {
                    frames.push(Vec::new());
                } else {
                    prop_assert_eq!(f.len, 8);
                }
            }
            prop_assert!(frames.pop().unwrap().is_empty(), "trailing partial frame");
            prop_assert_eq!(frames.len(), packets.len());
            for (frame, &(off, len)) in frames.iter().zip(packets) {
                let want = &image[off as usize..(off + u64::from(len)) as usize];
                prop_assert!(frame[..] == want[..], "packet at {off:#x}+{len}");
            }
            let mut comps = 0;
            while nic.read(reg::SEND_COMP, 8) != 0 {
                comps += 1;
            }
            prop_assert_eq!(comps, packets.len());
            prop_assert_eq!(nic.stats().tx_packets, packets.len() as u64);
            prop_assert!(nic.is_quiescent());
            Ok(())
        }

        /// Streams `packets` (lengths) into a NIC with a small packet
        /// buffer and no receive buffers posted, so acceptance has a
        /// closed form: a packet is kept iff it fits beside the bytes
        /// already buffered. Then posts one buffer per kept packet and
        /// checks DRAM, the completion lengths and the counters. Run
        /// twice on one NIC, so the second burst reuses buffers the
        /// first burst's writer released.
        fn check_rx(packets: &[u32], pktbuf_bytes: usize, seed: u64) -> Result<(), TestCaseError> {
            let mut nic = Nic::new(
                MacAddr::from_node_index(1),
                NicConfig {
                    pktbuf_bytes,
                    ..NicConfig::default()
                },
            );
            let mut mem = Memory::new(DRAM_BASE, 1 << 16);
            let mut dropped = 0u64;
            let mut received = 0u64;
            for burst in 0..2u64 {
                let mut buffered = 0usize;
                let mut kept = Vec::new();
                for (i, &len) in packets.iter().enumerate() {
                    let bytes: Vec<u8> = (0..len)
                        .map(|j| (seed ^ (burst << 40) ^ ((i as u64) << 20) ^ u64::from(j)) as u8)
                        .map(|b| b.wrapping_mul(31))
                        .collect();
                    let chunks: Vec<&[u8]> = bytes.chunks(8).collect();
                    for (c, chunk) in chunks.iter().enumerate() {
                        let last = c + 1 == chunks.len();
                        prop_assert!(nic
                            .tick(&mut mem, Some(Flit::from_bytes(chunk, last)))
                            .is_none());
                    }
                    if buffered + bytes.len() <= pktbuf_bytes {
                        buffered += bytes.len();
                        kept.push(bytes);
                    } else {
                        dropped += 1;
                    }
                }
                received += kept.len() as u64;
                prop_assert_eq!(nic.stats().rx_dropped, dropped);
                prop_assert_eq!(nic.stats().rx_packets, received);
                for i in 0..kept.len() as u64 {
                    nic.write(reg::RECV_REQ, 8, DRAM_BASE + i * 2048);
                }
                for _ in 0..(pktbuf_bytes / 8 + 4 * kept.len() + 16) {
                    nic.tick(&mut mem, None);
                }
                for (i, bytes) in kept.iter().enumerate() {
                    prop_assert_eq!(nic.read(reg::RECV_COMP, 8), bytes.len() as u64 + 1);
                    let got = mem
                        .read_bytes(DRAM_BASE + i as u64 * 2048, bytes.len())
                        .unwrap();
                    prop_assert!(got == &bytes[..], "burst {burst} packet {i}");
                }
                prop_assert_eq!(nic.read(reg::RECV_COMP, 8), 0);
                prop_assert!(nic.is_quiescent());
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn tx_wire_matches_dram(
                packets in proptest::collection::vec((0u64..4096, 1u32..2000), 1..8),
                rate in (0u16..5, 1u16..9),
                resbuf in 0usize..4,
                fill in any::<u64>(),
            ) {
                let resbuf_bytes = [16, 24, 64, 4096][resbuf];
                check_tx(&packets, rate, resbuf_bytes, fill | 1)?;
            }

            #[test]
            fn rx_keeps_whole_packets_and_delivers_them(
                packets in proptest::collection::vec(1u32..2000, 1..14),
                pktbuf in 0usize..3,
                seed in any::<u64>(),
            ) {
                check_rx(&packets, [2048, 6000, 30000][pktbuf], seed)?;
            }
        }
    }
}
