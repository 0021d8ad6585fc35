//! Service models: the software that runs on [`ModeledBlade`](crate::model::ModeledBlade)s.
//!
//! * [`KvServer`] — a memcached-style key-value server: requests are
//!   distributed over `threads` worker threads (connection round-robin,
//!   as memcached does); each request costs network-stack plus service
//!   CPU cycles on its thread before the response is produced. Run it on
//!   an OS model with more threads than cores to reproduce the thread
//!   imbalance of Fig 7.
//! * [`Mutilate`] — the mutilate-style load generator (Leverich &
//!   Kozyrakis): open-loop Poisson arrivals at a target QPS against one
//!   server, recording per-request latency into a shared histogram.
//! * [`IperfSender`]/[`IperfReceiver`] — an iperf3-style single-stream
//!   bandwidth test where every segment costs CPU on both sides (the
//!   "software stack" that limits the paper's §IV-B result to 1.4 Gbit/s
//!   despite a 200 Gbit/s link).

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use firesim_core::snapshot::{SnapshotReader, SnapshotWriter};
use firesim_core::stats::Histogram;
use firesim_core::{SimResult, SimRng};
use firesim_net::{EtherType, EthernetFrame, MacAddr};

use crate::model::{Actions, NodeApp};

/// Reads a MAC address written with [`SnapshotWriter::put_bytes`].
fn get_mac(r: &mut SnapshotReader<'_>) -> SimResult<MacAddr> {
    let bytes: [u8; 6] = r
        .get_bytes()?
        .try_into()
        .map_err(|_| firesim_core::SimError::checkpoint("MAC address must be 6 bytes"))?;
    Ok(MacAddr(bytes))
}

/// Writes a `tag -> value` map in ascending key order, so the snapshot
/// bytes (and therefore the checkpoint digests) are independent of
/// `HashMap`'s per-process iteration order.
fn put_sorted_map<V>(
    w: &mut SnapshotWriter,
    map: &HashMap<u64, V>,
    mut put_value: impl FnMut(&mut SnapshotWriter, &V),
) {
    let mut entries: Vec<(&u64, &V)> = map.iter().collect();
    entries.sort_by_key(|(k, _)| **k);
    w.put_usize(entries.len());
    for (k, v) in entries {
        w.put_u64(*k);
        put_value(w, v);
    }
}

/// Serialises a latency histogram as its raw samples; the restored
/// histogram keeps its name and re-records them in order.
fn put_histogram(w: &mut SnapshotWriter, h: &Histogram) {
    w.put_usize(h.count());
    for s in h.samples() {
        w.put_u64(s);
    }
}

fn get_histogram(r: &mut SnapshotReader<'_>, name: &str) -> SimResult<Histogram> {
    let mut h = Histogram::new(name);
    for _ in 0..r.get_usize()? {
        h.record(r.get_u64()?);
    }
    Ok(h)
}

// ---------------------------------------------------------------------
// Key-value protocol encoding
// ---------------------------------------------------------------------

const KV_GET: u8 = 0;
const KV_RESP: u8 = 1;

fn kv_frame(
    dst: MacAddr,
    src: MacAddr,
    kind: u8,
    id: u64,
    stamp: u64,
    pad: usize,
) -> EthernetFrame {
    let mut p = Vec::with_capacity(17 + pad);
    p.push(kind);
    p.extend_from_slice(&id.to_le_bytes());
    p.extend_from_slice(&stamp.to_le_bytes());
    p.extend_from_slice(&vec![0u8; pad]);
    EthernetFrame::new(dst, src, EtherType::KeyValue, Bytes::from(p))
}

fn kv_parse(frame: &EthernetFrame) -> Option<(u8, u64, u64)> {
    if frame.ethertype != EtherType::KeyValue || frame.payload.len() < 17 {
        return None;
    }
    let p = &frame.payload;
    let id = u64::from_le_bytes(p[1..9].try_into().expect("len checked"));
    let stamp = u64::from_le_bytes(p[9..17].try_into().expect("len checked"));
    Some((p[0], id, stamp))
}

// ---------------------------------------------------------------------
// KvServer
// ---------------------------------------------------------------------

/// Configuration for [`KvServer`].
#[derive(Debug, Clone, Copy)]
pub struct KvServerConfig {
    /// Worker threads (memcached `-t`).
    pub threads: usize,
    /// Per-request network-stack cycles (RX interrupt + protocol + TX).
    pub stack_cycles: u64,
    /// Mean request service cycles (hash lookup + response build).
    pub service_cycles: u64,
    /// Mean of an additional exponentially distributed service component
    /// (memory stalls, occasional slow paths). Zero disables jitter.
    pub service_jitter_cycles: u64,
    /// Response value padding in bytes.
    pub value_bytes: usize,
    /// Seed for the service-time distribution.
    pub seed: u64,
}

impl Default for KvServerConfig {
    fn default() -> Self {
        KvServerConfig {
            threads: 4,
            // ~6 us of combined kernel + userspace per request at 3.2 GHz:
            // the scale of the Linux-stack overheads measured in §IV-A.
            stack_cycles: 12_000,
            service_cycles: 8_000,
            service_jitter_cycles: 2_500,
            value_bytes: 64,
            seed: 11,
        }
    }
}

/// Counters shared by a [`KvServer`].
#[derive(Debug, Default)]
pub struct KvServerStats {
    /// Requests received.
    pub requests: u64,
    /// Responses sent.
    pub responses: u64,
}

/// A memcached-style server. See the [module docs](self).
#[derive(Debug)]
pub struct KvServer {
    mac: MacAddr,
    config: KvServerConfig,
    /// Requests awaiting CPU: tag -> (client, id, stamp).
    pending: HashMap<u64, (MacAddr, u64, u64)>,
    next_tag: u64,
    next_thread: usize,
    rng: SimRng,
    stats: Arc<Mutex<KvServerStats>>,
}

impl KvServer {
    /// Creates a server.
    pub fn new(mac: MacAddr, config: KvServerConfig) -> Self {
        KvServer {
            mac,
            pending: HashMap::new(),
            next_tag: 0,
            next_thread: 0,
            rng: SimRng::seed_from(config.seed),
            stats: Arc::new(Mutex::new(KvServerStats::default())),
            config,
        }
    }

    /// Shared statistics handle.
    pub fn stats(&self) -> Arc<Mutex<KvServerStats>> {
        Arc::clone(&self.stats)
    }
}

impl NodeApp for KvServer {
    fn on_frame(&mut self, _cycle: u64, frame: &EthernetFrame, out: &mut Actions) {
        let Some((KV_GET, id, stamp)) = kv_parse(frame) else {
            return;
        };
        self.stats.lock().requests += 1;
        let tag = self.next_tag;
        self.next_tag += 1;
        self.pending.insert(tag, (frame.src, id, stamp));
        // Connection -> thread assignment round-robin, like memcached's
        // per-connection worker binding.
        let thread = self.next_thread;
        self.next_thread = (self.next_thread + 1) % self.config.threads;
        let jitter = if self.config.service_jitter_cycles > 0 {
            self.rng.next_exp(self.config.service_jitter_cycles as f64) as u64
        } else {
            0
        };
        out.work_on(
            thread,
            self.config.stack_cycles + self.config.service_cycles + jitter,
            tag,
        );
    }

    fn on_work_done(&mut self, cycle: u64, tag: u64, out: &mut Actions) {
        let Some((client, id, stamp)) = self.pending.remove(&tag) else {
            return;
        };
        self.stats.lock().responses += 1;
        out.send_at(
            cycle,
            kv_frame(
                client,
                self.mac,
                KV_RESP,
                id,
                stamp,
                self.config.value_bytes,
            ),
        );
    }

    fn poll(&mut self, _from: u64, _to: u64, _out: &mut Actions) {}

    fn done(&self) -> bool {
        // A server is passive; the run ends when the load generators end.
        true
    }

    fn save_state(&self, w: &mut SnapshotWriter) -> SimResult<()> {
        put_sorted_map(w, &self.pending, |w, (client, id, stamp)| {
            w.put_bytes(&client.0);
            w.put_u64(*id);
            w.put_u64(*stamp);
        });
        w.put_u64(self.next_tag);
        w.put_usize(self.next_thread);
        w.put(&self.rng);
        let s = self.stats.lock();
        w.put_u64(s.requests);
        w.put_u64(s.responses);
        Ok(())
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> SimResult<()> {
        self.pending.clear();
        for _ in 0..r.get_usize()? {
            let tag = r.get_u64()?;
            let client = get_mac(r)?;
            let id = r.get_u64()?;
            let stamp = r.get_u64()?;
            self.pending.insert(tag, (client, id, stamp));
        }
        self.next_tag = r.get_u64()?;
        self.next_thread = r.get_usize()?;
        self.rng = r.get()?;
        let mut s = self.stats.lock();
        s.requests = r.get_u64()?;
        s.responses = r.get_u64()?;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Mutilate
// ---------------------------------------------------------------------

/// Configuration for [`Mutilate`].
#[derive(Debug, Clone, Copy)]
pub struct MutilateConfig {
    /// Target server.
    pub server: MacAddr,
    /// Target queries per second (target-time seconds).
    pub qps: f64,
    /// Target clock in Hz (converts QPS to cycles).
    pub clock_hz: f64,
    /// Total requests to issue.
    pub requests: u64,
    /// Client-side overhead added to each latency sample (its own
    /// network stack, in cycles).
    pub client_overhead_cycles: u64,
    /// GET request padding bytes (key size).
    pub key_bytes: usize,
    /// RNG seed (vary per load generator).
    pub seed: u64,
    /// Maximum outstanding requests (mutilate's connection limit makes
    /// it partially closed-loop; achieved QPS then drops as latency
    /// grows, as seen in Table III). `0` means unlimited (pure open
    /// loop).
    pub max_outstanding: usize,
}

impl Default for MutilateConfig {
    fn default() -> Self {
        MutilateConfig {
            server: MacAddr::from_node_index(0),
            qps: 50_000.0,
            clock_hz: 3.2e9,
            requests: 1_000,
            client_overhead_cycles: 24_000,
            key_bytes: 16,
            seed: 7,
            max_outstanding: 0,
        }
    }
}

/// Results shared by a [`Mutilate`] generator.
#[derive(Debug, Default)]
pub struct MutilateStats {
    /// Latency samples in cycles.
    pub latency: Histogram,
    /// Requests sent.
    pub sent: u64,
    /// Responses received.
    pub received: u64,
    /// Cycle of the first request.
    pub first_send: u64,
    /// Cycle of the last response.
    pub last_recv: u64,
}

impl MutilateStats {
    /// Achieved queries per second given the target clock.
    pub fn achieved_qps(&self, clock_hz: f64) -> f64 {
        if self.last_recv <= self.first_send || self.received == 0 {
            return 0.0;
        }
        self.received as f64 / ((self.last_recv - self.first_send) as f64 / clock_hz)
    }
}

/// The mutilate-style load generator. See the [module docs](self).
#[derive(Debug)]
pub struct Mutilate {
    mac: MacAddr,
    config: MutilateConfig,
    rng: SimRng,
    next_send: Option<u64>,
    issued: u64,
    outstanding: HashMap<u64, u64>, // id -> send cycle
    stats: Arc<Mutex<MutilateStats>>,
}

impl Mutilate {
    /// Creates a load generator.
    pub fn new(mac: MacAddr, config: MutilateConfig) -> Self {
        Mutilate {
            mac,
            rng: SimRng::seed_from(config.seed),
            next_send: None,
            issued: 0,
            outstanding: HashMap::new(),
            stats: Arc::new(Mutex::new(MutilateStats::default())),
            config,
        }
    }

    /// Shared results handle.
    pub fn stats(&self) -> Arc<Mutex<MutilateStats>> {
        Arc::clone(&self.stats)
    }

    fn mean_gap_cycles(&self) -> f64 {
        self.config.clock_hz / self.config.qps
    }
}

impl NodeApp for Mutilate {
    fn on_frame(&mut self, cycle: u64, frame: &EthernetFrame, _out: &mut Actions) {
        let Some((KV_RESP, id, _stamp)) = kv_parse(frame) else {
            return;
        };
        if let Some(sent) = self.outstanding.remove(&id) {
            let mut s = self.stats.lock();
            s.latency
                .record(cycle - sent + self.config.client_overhead_cycles);
            s.received += 1;
            s.last_recv = cycle;
        }
    }

    fn on_work_done(&mut self, _cycle: u64, _tag: u64, _out: &mut Actions) {}

    fn poll(&mut self, from: u64, to: u64, out: &mut Actions) {
        if self.issued >= self.config.requests {
            return;
        }
        let mut t = match self.next_send {
            Some(t) => t,
            None => {
                let first = from + self.rng.next_exp(self.mean_gap_cycles()) as u64;
                self.next_send = Some(first);
                first
            }
        };
        while t < to && self.issued < self.config.requests {
            if self.config.max_outstanding > 0
                && self.outstanding.len() >= self.config.max_outstanding
            {
                // Closed-loop backpressure: retry next window.
                break;
            }
            let id = (self.config.seed << 32) | self.issued;
            out.send_at(
                t,
                kv_frame(
                    self.config.server,
                    self.mac,
                    KV_GET,
                    id,
                    t,
                    self.config.key_bytes,
                ),
            );
            self.outstanding.insert(id, t);
            {
                let mut s = self.stats.lock();
                if s.sent == 0 {
                    s.first_send = t;
                }
                s.sent += 1;
            }
            self.issued += 1;
            t += self.rng.next_exp(self.mean_gap_cycles()).max(1.0) as u64;
        }
        self.next_send = Some(t);
    }

    fn done(&self) -> bool {
        self.issued >= self.config.requests && self.outstanding.is_empty()
    }

    fn save_state(&self, w: &mut SnapshotWriter) -> SimResult<()> {
        w.put(&self.rng);
        w.put(&self.next_send);
        w.put_u64(self.issued);
        put_sorted_map(w, &self.outstanding, |w, sent| w.put_u64(*sent));
        let s = self.stats.lock();
        put_histogram(w, &s.latency);
        w.put_u64(s.sent);
        w.put_u64(s.received);
        w.put_u64(s.first_send);
        w.put_u64(s.last_recv);
        Ok(())
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> SimResult<()> {
        self.rng = r.get()?;
        self.next_send = r.get()?;
        self.issued = r.get_u64()?;
        self.outstanding.clear();
        for _ in 0..r.get_usize()? {
            let id = r.get_u64()?;
            let sent = r.get_u64()?;
            self.outstanding.insert(id, sent);
        }
        let mut s = self.stats.lock();
        let name = s.latency.name().to_string();
        s.latency = get_histogram(r, &name)?;
        s.sent = r.get_u64()?;
        s.received = r.get_u64()?;
        s.first_send = r.get_u64()?;
        s.last_recv = r.get_u64()?;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Iperf-style stream
// ---------------------------------------------------------------------

/// Configuration for the iperf-style pair.
#[derive(Debug, Clone, Copy)]
pub struct IperfConfig {
    /// Peer MAC address.
    pub peer: MacAddr,
    /// Segment payload bytes.
    pub segment_bytes: usize,
    /// Segments kept in flight (congestion/receive window).
    pub window: usize,
    /// Per-segment sender CPU cycles (syscall + TCP + driver).
    pub send_cycles: u64,
    /// Per-segment receiver CPU cycles.
    pub recv_cycles: u64,
    /// Total bytes to move.
    pub total_bytes: u64,
}

impl Default for IperfConfig {
    fn default() -> Self {
        IperfConfig {
            peer: MacAddr::from_node_index(0),
            segment_bytes: 1448,
            window: 8,
            // Calibrated so a single in-order core moves ~1.4 Gbit/s, the
            // paper's measured iperf3 result (§IV-B).
            send_cycles: 26_000,
            recv_cycles: 26_000,
            total_bytes: 1 << 20,
        }
    }
}

/// Results shared by an [`IperfSender`].
#[derive(Debug, Default)]
pub struct IperfStats {
    /// Bytes acknowledged.
    pub bytes_acked: u64,
    /// Cycle of the first segment send.
    pub started: u64,
    /// Cycle of the final ack.
    pub finished: u64,
}

impl IperfStats {
    /// Goodput in bits per target second.
    pub fn goodput_bps(&self, clock_hz: f64) -> f64 {
        if self.finished <= self.started {
            return 0.0;
        }
        self.bytes_acked as f64 * 8.0 / ((self.finished - self.started) as f64 / clock_hz)
    }
}

const SEG_DATA: u8 = 2;
const SEG_ACK: u8 = 3;

/// The sending side of the iperf-style stream.
#[derive(Debug)]
pub struct IperfSender {
    mac: MacAddr,
    config: IperfConfig,
    next_seq: u64,
    acked: u64,
    in_flight: usize,
    started: bool,
    stats: Arc<Mutex<IperfStats>>,
}

impl IperfSender {
    /// Creates the sender.
    pub fn new(mac: MacAddr, config: IperfConfig) -> Self {
        IperfSender {
            mac,
            config,
            next_seq: 0,
            acked: 0,
            in_flight: 0,
            started: false,
            stats: Arc::new(Mutex::new(IperfStats::default())),
        }
    }

    /// Shared results handle.
    pub fn stats(&self) -> Arc<Mutex<IperfStats>> {
        Arc::clone(&self.stats)
    }

    fn total_segments(&self) -> u64 {
        self.config
            .total_bytes
            .div_ceil(self.config.segment_bytes as u64)
    }

    fn maybe_send(&mut self, out: &mut Actions) {
        while self.in_flight < self.config.window && self.next_seq < self.total_segments() {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.in_flight += 1;
            // CPU first, then the wire: tag identifies the segment.
            out.work_on(0, self.config.send_cycles, seq);
        }
    }
}

impl NodeApp for IperfSender {
    fn on_frame(&mut self, cycle: u64, frame: &EthernetFrame, out: &mut Actions) {
        let Some((SEG_ACK, _id, _)) = kv_parse(frame) else {
            return;
        };
        self.acked += 1;
        self.in_flight = self.in_flight.saturating_sub(1);
        {
            let mut s = self.stats.lock();
            s.bytes_acked += self.config.segment_bytes as u64;
            s.finished = cycle;
        }
        self.maybe_send(out);
    }

    fn on_work_done(&mut self, cycle: u64, seq: u64, out: &mut Actions) {
        out.send_at(
            cycle,
            kv_frame(
                self.config.peer,
                self.mac,
                SEG_DATA,
                seq,
                cycle,
                self.config.segment_bytes.saturating_sub(17),
            ),
        );
    }

    fn poll(&mut self, from: u64, _to: u64, out: &mut Actions) {
        if !self.started {
            self.started = true;
            self.stats.lock().started = from;
            self.maybe_send(out);
        }
    }

    fn done(&self) -> bool {
        self.started && self.acked >= self.total_segments()
    }

    fn save_state(&self, w: &mut SnapshotWriter) -> SimResult<()> {
        w.put_u64(self.next_seq);
        w.put_u64(self.acked);
        w.put_usize(self.in_flight);
        w.put_bool(self.started);
        let s = self.stats.lock();
        w.put_u64(s.bytes_acked);
        w.put_u64(s.started);
        w.put_u64(s.finished);
        Ok(())
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> SimResult<()> {
        self.next_seq = r.get_u64()?;
        self.acked = r.get_u64()?;
        self.in_flight = r.get_usize()?;
        self.started = r.get_bool()?;
        let mut s = self.stats.lock();
        s.bytes_acked = r.get_u64()?;
        s.started = r.get_u64()?;
        s.finished = r.get_u64()?;
        Ok(())
    }
}

/// The receiving side of the iperf-style stream.
#[derive(Debug)]
pub struct IperfReceiver {
    mac: MacAddr,
    config: IperfConfig,
    pending: HashMap<u64, (MacAddr, u64)>,
    next_tag: u64,
}

impl IperfReceiver {
    /// Creates the receiver.
    pub fn new(mac: MacAddr, config: IperfConfig) -> Self {
        IperfReceiver {
            mac,
            config,
            pending: HashMap::new(),
            next_tag: 1 << 40,
        }
    }
}

impl NodeApp for IperfReceiver {
    fn on_frame(&mut self, _cycle: u64, frame: &EthernetFrame, out: &mut Actions) {
        let Some((SEG_DATA, id, _)) = kv_parse(frame) else {
            return;
        };
        let tag = self.next_tag;
        self.next_tag += 1;
        self.pending.insert(tag, (frame.src, id));
        out.work_on(0, self.config.recv_cycles, tag);
    }

    fn on_work_done(&mut self, cycle: u64, tag: u64, out: &mut Actions) {
        if let Some((src, id)) = self.pending.remove(&tag) {
            out.send_at(cycle, kv_frame(src, self.mac, SEG_ACK, id, cycle, 0));
        }
    }

    fn poll(&mut self, _f: u64, _t: u64, _o: &mut Actions) {}

    fn done(&self) -> bool {
        true // passive
    }

    fn save_state(&self, w: &mut SnapshotWriter) -> SimResult<()> {
        put_sorted_map(w, &self.pending, |w, (src, id)| {
            w.put_bytes(&src.0);
            w.put_u64(*id);
        });
        w.put_u64(self.next_tag);
        Ok(())
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> SimResult<()> {
        self.pending.clear();
        for _ in 0..r.get_usize()? {
            let tag = r.get_u64()?;
            let src = get_mac(r)?;
            let id = r.get_u64()?;
            self.pending.insert(tag, (src, id));
        }
        self.next_tag = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModeledBlade, OsConfig, OsModel};
    use firesim_core::{Cycle, Engine};
    use firesim_net::Flit;

    fn os(cores: usize, seed: u64) -> OsModel {
        OsModel::new(
            OsConfig {
                cores,
                seed,
                ..OsConfig::default()
            },
            cores,
            true,
        )
    }

    #[test]
    fn kv_pair_round_trips_all_requests() {
        let server_mac = MacAddr::from_node_index(0);
        let client_mac = MacAddr::from_node_index(1);
        let server = KvServer::new(server_mac, KvServerConfig::default());
        let server_stats = server.stats();
        let client = Mutilate::new(
            client_mac,
            MutilateConfig {
                server: server_mac,
                qps: 100_000.0,
                requests: 50,
                seed: 3,
                ..MutilateConfig::default()
            },
        );
        let client_stats = client.stats();

        let os_cfg = OsConfig::default();
        let s_blade = ModeledBlade::new(
            "kv",
            server_mac,
            OsModel::new(os_cfg, 4, false),
            Box::new(server),
        );
        let c_blade = ModeledBlade::new("gen", client_mac, os(1, 2), Box::new(client));

        let mut engine: Engine<Flit> = Engine::new(6_400);
        let s = engine.add_agent(Box::new(s_blade));
        let c = engine.add_agent(Box::new(c_blade));
        engine.connect(s, 0, c, 0, Cycle::new(6_400)).unwrap();
        engine.connect(c, 0, s, 0, Cycle::new(6_400)).unwrap();
        engine.run_until_done(Cycle::new(500_000_000)).unwrap();

        let cs = client_stats.lock();
        assert_eq!(cs.sent, 50);
        assert_eq!(cs.received, 50);
        let ss = server_stats.lock();
        assert_eq!(ss.requests, 50);
        assert_eq!(ss.responses, 50);
        // Latency must exceed 2 links + service + stack + client overhead.
        let mut lat = cs.latency.clone();
        let floor = 2 * 6_400
            + KvServerConfig::default().stack_cycles
            + KvServerConfig::default().service_cycles
            + MutilateConfig::default().client_overhead_cycles;
        assert!(lat.min().unwrap() >= floor, "min {:?}", lat.min());
        assert!(lat.percentile(50.0).unwrap() < 10 * floor);
    }

    #[test]
    fn iperf_pair_is_cpu_bound() {
        let a = MacAddr::from_node_index(0);
        let b = MacAddr::from_node_index(1);
        let cfg = IperfConfig {
            peer: b,
            total_bytes: 256 * 1024,
            ..IperfConfig::default()
        };
        let sender = IperfSender::new(a, cfg);
        let stats = sender.stats();
        let receiver = IperfReceiver::new(b, IperfConfig { peer: a, ..cfg });

        let s_blade = ModeledBlade::new("snd", a, os(1, 1), Box::new(sender));
        let r_blade = ModeledBlade::new("rcv", b, os(1, 2), Box::new(receiver));
        let mut engine: Engine<Flit> = Engine::new(6_400);
        let s = engine.add_agent(Box::new(s_blade));
        let r = engine.add_agent(Box::new(r_blade));
        engine.connect(s, 0, r, 0, Cycle::new(6_400)).unwrap();
        engine.connect(r, 0, s, 0, Cycle::new(6_400)).unwrap();
        engine.run_until_done(Cycle::new(2_000_000_000)).unwrap();

        let st = stats.lock();
        assert_eq!(st.bytes_acked, 182 * 1448); // rounded up to segments
        let gbps = st.goodput_bps(3.2e9) / 1e9;
        // CPU-bound: far below the 204.8 Gbit/s link, near the calibrated
        // ~1.4 Gbit/s.
        assert!(gbps > 0.5 && gbps < 3.0, "goodput {gbps:.2} Gbit/s");
    }

    /// Drives a kv client/server pair halfway, snapshots both apps,
    /// restores them into fresh instances, and checks the restored
    /// snapshot bytes are identical — the property partitioned runs rely
    /// on for placement-invariant digests.
    #[test]
    fn service_apps_checkpoint_round_trip() {
        let server_mac = MacAddr::from_node_index(0);
        let client_mac = MacAddr::from_node_index(1);
        let mut server = KvServer::new(server_mac, KvServerConfig::default());
        let mut client = Mutilate::new(
            client_mac,
            MutilateConfig {
                server: server_mac,
                qps: 100_000.0,
                requests: 20,
                max_outstanding: 4,
                seed: 5,
                ..MutilateConfig::default()
            },
        );

        // Hand-drive some traffic so maps/rng/stats are non-trivial and
        // requests are left in flight.
        let mut actions = Actions::default();
        client.poll(0, 400_000, &mut actions);
        let frames: Vec<EthernetFrame> = actions.send.drain(..).map(|(_, f)| f).collect();
        for f in &frames {
            server.on_frame(1_000, f, &mut actions);
        }
        // Complete one request end-to-end.
        server.on_work_done(2_000, 0, &mut actions);
        // Deliver the response after the poll window so it postdates the
        // request's send cycle.
        let resp = actions.send.pop().expect("response frame").1;
        client.on_frame(450_000, &resp, &mut actions);

        let snap = |s: &KvServer, c: &Mutilate| {
            let mut w = SnapshotWriter::new();
            NodeApp::save_state(s, &mut w).unwrap();
            NodeApp::save_state(c, &mut w).unwrap();
            w.into_bytes()
        };
        let bytes = snap(&server, &client);

        let mut server2 = KvServer::new(server_mac, KvServerConfig::default());
        let mut client2 = Mutilate::new(
            client_mac,
            MutilateConfig {
                server: server_mac,
                qps: 100_000.0,
                requests: 20,
                max_outstanding: 4,
                seed: 5,
                ..MutilateConfig::default()
            },
        );
        let mut r = SnapshotReader::new(&bytes);
        NodeApp::restore_state(&mut server2, &mut r).unwrap();
        NodeApp::restore_state(&mut client2, &mut r).unwrap();

        assert_eq!(bytes, snap(&server2, &client2), "snapshot not stable");
        assert_eq!(client2.issued, client.issued);
        assert_eq!(client2.outstanding, client.outstanding);
        assert_eq!(server2.pending, server.pending);
        let (s1, s2) = (client.stats(), client2.stats());
        assert_eq!(s1.lock().sent, s2.lock().sent);
        assert!(s1.lock().latency.samples().eq(s2.lock().latency.samples()));
    }

    #[test]
    fn kv_protocol_encoding_round_trips() {
        let f = kv_frame(
            MacAddr::from_node_index(1),
            MacAddr::from_node_index(2),
            KV_GET,
            0xabcdef,
            123_456,
            32,
        );
        assert_eq!(kv_parse(&f), Some((KV_GET, 0xabcdef, 123_456)));
        let short = EthernetFrame::new(
            MacAddr::BROADCAST,
            MacAddr::from_node_index(0),
            EtherType::KeyValue,
            Bytes::from_static(&[0, 1, 2]),
        );
        assert_eq!(kv_parse(&short), None);
    }
}
