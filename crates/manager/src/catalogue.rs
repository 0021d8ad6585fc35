//! The cluster catalogue: one definition of every target cluster that
//! more than one binary deploys (§III-B3: describe a cluster once, then
//! deploy it anywhere).
//!
//! [`build`] is the [`crate::BuildFn`] the figure driver, the examples
//! and the fleet test suites hand to [`crate::maybe_worker`] and
//! [`crate::run_partitioned`], so a parent and each of its worker
//! processes deploy the same target from the same spec string. A spec is
//! `<name>[,key=value]*`:
//!
//! | spec | target |
//! |---|---|
//! | `quickstart` | one ToR: a pinger, an echo server, two idle nodes; 2 µs links |
//! | `fig8,nodes=N` | Fig 8's boot cluster: `N` looping RTL blades, 32 per ToR, a root above |
//! | `two_racks` | two racks under a root; cross-rack pings plus two idle nodes per rack |
//! | `datacenter[,dc=AxBxC][,requests=R][,qps=Q]` | §V-C: memcached servers and load generators across `A` aggregation switches × `B` ToRs × `C` nodes (default the paper's `4x8x32`, 40 requests at 10 000 QPS) |
//!
//! Callers that run in-process and need host-side handles use the typed
//! constructors instead: [`boot_rack`] for any program on Fig 8's shape,
//! and [`datacenter`] with a [`StatsSink`] for latency collection.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use firesim_blade::model::OsConfig;
use firesim_blade::programs::{self, Program};
use firesim_blade::services::{KvServer, KvServerConfig, Mutilate, MutilateConfig, MutilateStats};
use firesim_core::{Cycle, Frequency, SimError, SimResult};
use firesim_net::MacAddr;

use crate::{BladeSpec, ServerId, SimConfig, Topology};

/// Every `add_downlink` here links a node it just added.
const FRESH: &str = "a node just added has no parent";

/// Most servers a catalogue spec may ask for.
pub const MAX_NODES: usize = 1 << 16;

/// Pings the `quickstart` pinger sends before powering off.
pub const QUICKSTART_PINGS: usize = 10;

/// Collects each load generator's stats handle as the datacenter's
/// blades are instantiated.
pub type StatsSink = Arc<Mutex<Vec<Arc<Mutex<MutilateStats>>>>>;

/// Builds the target a catalogue spec names.
///
/// # Errors
///
/// Returns [`SimError::Topology`] for an unknown name, an unknown,
/// repeated or malformed key, a zero, non-numeric or oversized count, or
/// dims [`datacenter`] rejects.
pub fn build(spec: &str) -> SimResult<(Topology, SimConfig)> {
    let bad = |why: String| SimError::topology(format!("catalogue spec {spec:?}: {why}"));
    let positive = |key: &str, v: &str| match v.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(bad(format!("{key} needs a positive count, got {v:?}"))),
    };
    let mut parts = spec.split(',');
    let name = parts.next().unwrap_or_default();
    let mut keys = BTreeMap::new();
    for part in parts {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| bad(format!("expected key=value, got {part:?}")))?;
        if keys.insert(key, value).is_some() {
            return Err(bad(format!("repeated key {key:?}")));
        }
    }
    let built = match name {
        "quickstart" => quickstart(),
        "fig8" => {
            let nodes = positive("nodes", keys.remove("nodes").unwrap_or_default())?;
            if nodes > MAX_NODES {
                return Err(bad(format!("more than {MAX_NODES} nodes")));
            }
            let program = programs::boot_poweroff_wrapping(1 << 40);
            // SimConfig's default links are Fig 8's 6 400 cycles (2 µs).
            (boot_rack(nodes, &program), SimConfig::default())
        }
        "two_racks" => two_racks(),
        "datacenter" => {
            let mut dims = Dims::PAPER;
            if let Some(dc) = keys.remove("dc") {
                let counts = dc.split('x').map(|n| positive("dc", n));
                let [aggs, tors, nodes] = counts.collect::<SimResult<Vec<_>>>()?[..] else {
                    return Err(bad(format!("dc needs AxBxC, got {dc:?}")));
                };
                (dims.aggs, dims.tors_per_agg, dims.nodes_per_tor) = (aggs, tors, nodes);
            }
            if let Some(r) = keys.remove("requests") {
                dims.requests = positive("requests", r)? as u64;
            }
            if let Some(q) = keys.remove("qps") {
                dims.qps = q
                    .parse()
                    .map_err(|_| bad(format!("qps {q:?} is not a number")))?;
            }
            // No supernode packing (multi-process sharding refuses it)
            // and a few compute threads per worker.
            let config = SimConfig {
                host_threads: 4,
                ..SimConfig::default()
            };
            (datacenter(dims, None)?, config)
        }
        _ => return Err(bad("unknown catalogue name".to_owned())),
    };
    match keys.keys().next() {
        Some(key) => Err(bad(format!("unknown key {key:?}"))),
        None => Ok(built),
    }
}

/// A pinger (node 0) and its echo server (node 1): `pings` round trips
/// of 56-byte frames, sent `gap` cycles apart.
fn ping_pair(topo: &mut Topology, pings: usize, gap: u64) -> (ServerId, ServerId) {
    let (me, peer) = (MacAddr::from_node_index(0), MacAddr::from_node_index(1));
    let sender = programs::ping_sender(me, peer, pings, 56, gap);
    let pinger = topo.add_server("pinger", BladeSpec::rtl_single_core(sender));
    let echo = programs::echo_responder(pings);
    (
        pinger,
        topo.add_server("echo", BladeSpec::rtl_single_core(echo)),
    )
}

/// The quickstart rack: one ToR switch, a pinger, an echo server and two
/// idle nodes on 2 µs links at 3.2 GHz — the Rust analogue of the
/// paper's Fig 4 config.
fn quickstart() -> (Topology, SimConfig) {
    const CLOCK: Frequency = Frequency::GHZ_3_2;
    let mut topo = Topology::new();
    let tor = topo.add_switch("tor0");
    let gap = CLOCK.cycles_from_micros(20).as_u64();
    let (pinger, echo) = ping_pair(&mut topo, QUICKSTART_PINGS, gap);
    topo.add_downlinks(tor, [pinger, echo]).expect(FRESH);
    for i in 0..2 {
        let idle = BladeSpec::rtl_single_core(programs::boot_poweroff(100));
        let idle = topo.add_server(format!("idle{i}"), idle);
        topo.add_downlink(tor, idle).expect(FRESH);
    }
    let config = SimConfig {
        link_latency: CLOCK.cycles_from_micros(2),
        ..SimConfig::default()
    };
    (topo, config)
}

/// Fig 8/9's cluster shape: `nodes` single-core RTL blades running
/// `program`, under ToR switches of up to 32 nodes with a root switch
/// above when there is more than one.
pub fn boot_rack(nodes: usize, program: &Program) -> Topology {
    let mut topo = Topology::new();
    let tors: Vec<_> = (0..nodes.div_ceil(32))
        .map(|i| topo.add_switch(format!("tor{i}")))
        .collect();
    if tors.len() > 1 {
        let root = topo.add_switch("root");
        topo.add_downlinks(root, tors.iter().copied()).expect(FRESH);
    }
    for i in 0..nodes {
        let node = BladeSpec::rtl_single_core(program.clone());
        let node = topo.add_server(format!("node{i}"), node);
        topo.add_downlink(tors[i / 32], node).expect(FRESH);
    }
    topo
}

/// Two racks under a root with cross-rack ping traffic (live frames
/// cross every placement cut) plus two idle nodes per rack, big enough
/// that a load-aware placement differs from the contiguous one.
fn two_racks() -> (Topology, SimConfig) {
    let mut topo = Topology::new();
    let root = topo.add_switch("root");
    let racks = [topo.add_switch("rack0"), topo.add_switch("rack1")];
    topo.add_downlinks(root, racks).expect(FRESH);
    let (pinger, echo) = ping_pair(&mut topo, 8, 64_000);
    topo.add_downlink(racks[0], pinger).expect(FRESH);
    topo.add_downlink(racks[1], echo).expect(FRESH);
    for (rack, tag) in racks.into_iter().zip(["a", "b"]) {
        for i in 0..2 {
            let idle = BladeSpec::rtl_single_core(programs::boot_poweroff(150 + 70 * i));
            let idle = topo.add_server(format!("idle_{tag}{i}"), idle);
            topo.add_downlink(rack, idle).expect(FRESH);
        }
    }
    let config = SimConfig {
        link_latency: Cycle::new(6_400),
        ..SimConfig::default()
    };
    (topo, config)
}

/// Shape and load of the §V-C datacenter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dims {
    /// Aggregation switches under the root.
    pub aggs: usize,
    /// ToR switches under each aggregation switch.
    pub tors_per_agg: usize,
    /// Servers under each ToR.
    pub nodes_per_tor: usize,
    /// Memcached requests each load generator issues.
    pub requests: u64,
    /// Offered load per generator, requests per target second.
    pub qps: f64,
}

impl Dims {
    /// The paper's 1024-node datacenter: 4 × 8 × 32.
    pub const PAPER: Dims = Dims {
        aggs: 4,
        tors_per_agg: 8,
        nodes_per_tor: 32,
        requests: 40,
        qps: 10_000.0,
    };

    /// The catalogue spec that [`build`] turns back into these dims.
    pub fn spec(&self) -> String {
        format!(
            "datacenter,dc={}x{}x{},requests={},qps={}",
            self.aggs, self.tors_per_agg, self.nodes_per_tor, self.requests, self.qps
        )
    }
}

/// The §V-C datacenter tree: memcached servers on the first half of the
/// ToRs, load generators on the second half, paired across the root
/// switch ("cross-datacenter" in Table III). `stats` collects each
/// generator's latency handle when the caller runs in-process; worker
/// processes pass `None` and read results from the merged report.
///
/// # Errors
///
/// Returns [`SimError::Topology`] for a zero count, more than
/// [`MAX_NODES`] servers, an odd ToR count (servers pair with
/// generators), no requests, or a QPS that is not finite and at least 1.
pub fn datacenter(dims: Dims, stats: Option<&StatsSink>) -> SimResult<Topology> {
    let bad = |why: &str| SimError::topology(format!("datacenter {dims:?}: {why}"));
    let tor_count = dims
        .aggs
        .checked_mul(dims.tors_per_agg)
        .ok_or_else(|| bad("too many ToRs"))?;
    let nodes = tor_count
        .checked_mul(dims.nodes_per_tor)
        .filter(|&n| n <= MAX_NODES)
        .ok_or_else(|| bad("too many servers"))?;
    if nodes == 0 || dims.requests == 0 {
        return Err(bad("counts must be positive"));
    }
    if tor_count % 2 != 0 {
        return Err(bad("needs an even ToR count to pair servers with loadgens"));
    }
    // Mutilate draws gaps of `clock / qps` cycles; below 1 QPS (or at a
    // NaN/infinite/negative one) the first gap overflows the cycle count.
    if !(dims.qps.is_finite() && dims.qps >= 1.0) {
        return Err(bad("qps must be finite and at least 1"));
    }

    let mut topo = Topology::new();
    let root = topo.add_switch("root");
    let mut tors = Vec::new();
    for a in 0..dims.aggs {
        let agg = topo.add_switch(format!("agg{a}"));
        topo.add_downlink(root, agg).expect(FRESH);
        for t in 0..dims.tors_per_agg {
            let tor = topo.add_switch(format!("tor{a}_{t}"));
            topo.add_downlink(agg, tor).expect(FRESH);
            tors.push(tor);
        }
    }
    let os = OsConfig {
        cores: 4,
        ..OsConfig::default()
    };
    let half = tors.len() / 2;
    for (ti, &tor) in tors.iter().enumerate() {
        for j in 0..dims.nodes_per_tor {
            // Server `kv{i}` on the first half pairs with `gen{i}` on the
            // second.
            let pair = ((ti % half) * dims.nodes_per_tor + j) as u64;
            let node = if ti < half {
                let kv = BladeSpec::model(os, 4, true, |mac, _| {
                    Box::new(KvServer::new(mac, KvServerConfig::default()))
                });
                topo.add_server(format!("kv{pair}"), kv)
            } else {
                let cfg = MutilateConfig {
                    server: MacAddr::from_node_index(pair),
                    qps: dims.qps,
                    requests: dims.requests,
                    seed: 7_000 + pair,
                    max_outstanding: 4,
                    ..MutilateConfig::default()
                };
                let sink = stats.map(Arc::clone);
                let gen = BladeSpec::model(os, 1, true, move |mac, _| {
                    let m = Mutilate::new(mac, cfg);
                    if let Some(sink) = &sink {
                        sink.lock().push(m.stats());
                    }
                    Box::new(m)
                });
                topo.add_server(format!("gen{pair}"), gen)
            };
            topo.add_downlink(tor, node).expect(FRESH);
        }
    }
    Ok(topo)
}
