//! memcached experiments: Fig 7 (thread imbalance) and Table III
//! (1024-node datacenter latency/QPS).

use std::sync::Arc;

use parking_lot::Mutex;

use firesim_blade::model::OsConfig;
use firesim_blade::services::{KvServer, KvServerConfig, Mutilate, MutilateConfig, MutilateStats};
use firesim_core::stats::Histogram;
use firesim_core::Cycle;
use firesim_manager::{BladeSpec, SimConfig, Topology};
use firesim_net::MacAddr;

use super::{us, CLOCK};

/// The three Fig 7 configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig7Case {
    /// 4 server threads on 4 cores, no pinning.
    Threads4,
    /// 5 server threads on 4 cores (imbalance).
    Threads5,
    /// 4 threads pinned one-to-a-core.
    Threads4Pinned,
}

impl Fig7Case {
    fn threads(self) -> usize {
        match self {
            Fig7Case::Threads4 | Fig7Case::Threads4Pinned => 4,
            Fig7Case::Threads5 => 5,
        }
    }

    fn pinned(self) -> bool {
        matches!(self, Fig7Case::Threads4Pinned)
    }

    /// Display label matching the paper's legend.
    pub fn label(self) -> &'static str {
        match self {
            Fig7Case::Threads4 => "4 threads",
            Fig7Case::Threads5 => "5 threads",
            Fig7Case::Threads4Pinned => "4 threads pinned",
        }
    }
}

/// One measured point of Fig 7.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Which configuration.
    pub case: &'static str,
    /// Offered aggregate load, queries per second.
    pub target_qps: f64,
    /// Achieved queries per second.
    pub achieved_qps: f64,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: f64,
}

/// Maps pair index -> attachment ToR, for servers and clients.
type AttachFn = Box<dyn Fn(&mut Topology, bool, usize) -> firesim_manager::SwitchId>;

/// Runs one memcached service configuration under mutilate load and
/// returns merged client-side latency statistics.
fn run_kv(
    server_threads: usize,
    pinned: bool,
    clients: usize,
    qps_per_client: f64,
    requests_per_client: u64,
    max_outstanding: usize,
    tree: KvTree,
) -> (Histogram, f64) {
    let mut topo = Topology::new();
    let stats: Arc<Mutex<Vec<Arc<Mutex<MutilateStats>>>>> = Arc::new(Mutex::new(Vec::new()));

    // Build the switch layer.
    let (server_count, attach): (usize, AttachFn) = match tree {
        KvTree::SingleTor => {
            let tor = topo.add_switch("tor0");
            (1, Box::new(move |_t, _is_server, _i| tor))
        }
        KvTree::Paired {
            tors_per_agg,
            aggs,
            hops,
        } => {
            let root = topo.add_switch("root");
            let mut tors = Vec::new();
            for a in 0..aggs {
                let agg = topo.add_switch(format!("agg{a}"));
                topo.add_downlink(root, agg).unwrap();
                for t in 0..tors_per_agg {
                    let tor = topo.add_switch(format!("tor{a}_{t}"));
                    topo.add_downlink(agg, tor).unwrap();
                    tors.push(tor);
                }
            }
            let total_tors = tors.clone();
            let count = clients; // one server per client
            (
                count,
                Box::new(move |_t, is_server, i| {
                    // Pair i's server ToR and client ToR differ by `hops`.
                    let n = total_tors.len();
                    let s_tor = i % n;
                    let c_tor = match hops {
                        PairHops::SameTor => s_tor,
                        PairHops::CrossTor => {
                            // Same agg, adjacent ToR.
                            let base = s_tor - (s_tor % tors_per_agg);
                            base + ((s_tor + 1 - base) % tors_per_agg)
                        }
                        PairHops::CrossAgg => (s_tor + tors_per_agg) % n,
                    };
                    total_tors[if is_server { s_tor } else { c_tor }]
                }),
            )
        }
    };

    // Servers first (so MACs 0..server_count are servers).
    let mut server_nodes = Vec::new();
    for i in 0..server_count {
        let cfg = KvServerConfig {
            threads: server_threads,
            ..KvServerConfig::default()
        };
        let node = topo.add_server(
            format!("memcached{i}"),
            BladeSpec::model(
                OsConfig {
                    cores: 4,
                    seed: 1000 + i as u64,
                    ..OsConfig::default()
                },
                server_threads,
                pinned,
                move |mac, _| Box::new(KvServer::new(mac, cfg)),
            ),
        );
        server_nodes.push(node);
    }
    // Clients.
    let mut client_nodes = Vec::new();
    for i in 0..clients {
        let server_mac = MacAddr::from_node_index((i % server_count) as u64);
        let stats_sink = Arc::clone(&stats);
        let cfg = MutilateConfig {
            server: server_mac,
            qps: qps_per_client,
            requests: requests_per_client,
            seed: 42 + i as u64,
            max_outstanding,
            ..MutilateConfig::default()
        };
        let node = topo.add_server(
            format!("mutilate{i}"),
            BladeSpec::model(
                OsConfig {
                    cores: 4,
                    seed: 2000 + i as u64,
                    ..OsConfig::default()
                },
                1,
                true,
                move |mac, _| {
                    let m = Mutilate::new(mac, cfg);
                    stats_sink.lock().push(m.stats());
                    Box::new(m)
                },
            ),
        );
        client_nodes.push(node);
    }
    // Attach to switches.
    for (i, &node) in server_nodes.iter().enumerate() {
        let tor = attach(&mut topo, true, i);
        topo.add_downlink(tor, node).unwrap();
    }
    for (i, &node) in client_nodes.iter().enumerate() {
        let tor = attach(&mut topo, false, i);
        topo.add_downlink(tor, node).unwrap();
    }

    let mut sim = topo
        .build(SimConfig {
            host_threads: crate::host_threads(),
            ..SimConfig::default()
        })
        .expect("valid topology");
    // Budget: the run needs requests/qps seconds of target time.
    let seconds = requests_per_client as f64 / qps_per_client;
    let budget = (seconds * CLOCK.as_hz() as f64 * 6.0) as u64 + 2_000_000_000;
    sim.run_until_done(Cycle::new(budget)).expect("runs");

    let mut merged = Histogram::new("latency");
    let mut qps_sum = 0.0;
    for h in stats.lock().iter() {
        let s = h.lock();
        assert_eq!(
            s.received, requests_per_client,
            "client did not finish ({} of {requests_per_client})",
            s.received
        );
        merged.merge(&s.latency);
        qps_sum += s.achieved_qps(CLOCK.as_hz() as f64);
    }
    (merged, qps_sum)
}

enum KvTree {
    SingleTor,
    Paired {
        tors_per_agg: usize,
        aggs: usize,
        hops: PairHops,
    },
}

#[derive(Debug, Clone, Copy)]
enum PairHops {
    SameTor,
    CrossTor,
    CrossAgg,
}

/// `repro fig7`'s sweep: the target QPS points and the requests each
/// client sends, at paper scale (`full`) or at the default scale.
pub fn fig7_scale(full: bool) -> (Vec<f64>, u64) {
    if full {
        (
            vec![
                50_000.0, 150_000.0, 250_000.0, 350_000.0, 450_000.0, 550_000.0,
            ],
            2_000,
        )
    } else {
        (vec![100_000.0, 250_000.0, 350_000.0], 400)
    }
}

/// Fig 7: one memcached server (4 cores) under load from seven mutilate
/// nodes through a ToR switch, swept over target QPS for the three
/// thread configurations. Expect the 5-thread p95 to blow up while p50
/// stays close to the 4-thread case, and pinning to smooth the
/// mid-load p95.
pub fn fig7_memcached(qps_points: &[f64], requests_per_client: u64) -> Vec<Fig7Row> {
    let mut rows = Vec::new();
    for case in [
        Fig7Case::Threads4,
        Fig7Case::Threads5,
        Fig7Case::Threads4Pinned,
    ] {
        for &qps in qps_points {
            let clients = 7;
            let (mut hist, achieved) = run_kv(
                case.threads(),
                case.pinned(),
                clients,
                qps / clients as f64,
                requests_per_client,
                0,
                KvTree::SingleTor,
            );
            rows.push(Fig7Row {
                case: case.label(),
                target_qps: qps,
                achieved_qps: achieved,
                p50_us: us(hist.percentile(50.0).unwrap_or(0)),
                p95_us: us(hist.percentile(95.0).unwrap_or(0)),
            });
        }
    }
    rows
}

/// One row of Table III.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Pairing configuration name.
    pub config: &'static str,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: f64,
    /// Aggregate queries per second across all pairs.
    pub aggregate_qps: f64,
}

/// `repro table3`'s scale: the node-count divisor and the requests each
/// client sends, at paper scale (`full`) or at the default scale.
pub fn table3_scale(full: bool) -> (usize, u64) {
    if full {
        (1, 1_000)
    } else {
        (8, 150)
    }
}

/// Table III: half the nodes run memcached servers and half run mutilate
/// load generators, paired so that every request crosses (a) only its
/// ToR switch, (b) an aggregation switch, or (c) the root switch.
///
/// `scale` divides the paper's 1024 nodes: `scale = 1` is the full
/// datacenter (32 nodes per ToR, 8 ToRs per aggregation switch, 4
/// aggregation switches); the default quick run uses `scale = 8`
/// (128 nodes).
pub fn table3_memcached(scale: usize, requests_per_client: u64) -> Vec<Table3Row> {
    let scale = scale.max(1);
    // Keep the tree shape; shrink the ToR fan-out.
    let nodes_per_tor = (32 / scale.min(8)).max(2);
    let tors_per_agg = 8;
    let aggs = 4;
    let pairs_per_tor = nodes_per_tor / 2;
    let total_pairs = pairs_per_tor * tors_per_agg * aggs;
    // ~10k requests/second per server (paper §V-C).
    let qps_per_client = 10_000.0;

    let mut rows = Vec::new();
    for (hops, name) in [
        (PairHops::SameTor, "Cross-ToR"),
        (PairHops::CrossTor, "Cross-aggregation"),
        (PairHops::CrossAgg, "Cross-datacenter"),
    ] {
        let (mut hist, qps) = run_kv(
            4,
            true,
            total_pairs,
            qps_per_client,
            requests_per_client,
            4, // mutilate connection limit: partially closed loop
            KvTree::Paired {
                tors_per_agg,
                aggs,
                hops,
            },
        );
        rows.push(Table3Row {
            config: name,
            p50_us: us(hist.percentile(50.0).unwrap_or(0)),
            p95_us: us(hist.percentile(95.0).unwrap_or(0)),
            aggregate_qps: qps,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use serde_json::Value;

    use super::*;

    /// The exact Fig 7 and Table III rows: `reduced` at the scale of the
    /// two shape tests below (tier-1), `default` at `repro`'s default
    /// scale (`default_scale_rows_match_golden`, run in release by CI).
    /// Values are written in their shortest round-trip form, so equal JSON
    /// numbers are equal `f64` bits.
    const GOLDEN: &str = include_str!("../../../../results/paper_golden.json");

    fn row<const N: usize>(fields: [(&str, Value); N]) -> Value {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect::<BTreeMap<_, _>>(),
        )
    }

    fn fig7_json(rows: &[Fig7Row]) -> Value {
        let rows = rows.iter().map(|r| {
            row([
                ("case", Value::from(r.case)),
                ("target_qps", Value::from(r.target_qps)),
                ("achieved_qps", Value::from(r.achieved_qps)),
                ("p50_us", Value::from(r.p50_us)),
                ("p95_us", Value::from(r.p95_us)),
            ])
        });
        Value::Array(rows.collect())
    }

    fn table3_json(rows: &[Table3Row]) -> Value {
        let rows = rows.iter().map(|r| {
            row([
                ("config", Value::from(r.config)),
                ("p50_us", Value::from(r.p50_us)),
                ("p95_us", Value::from(r.p95_us)),
                ("aggregate_qps", Value::from(r.aggregate_qps)),
            ])
        });
        Value::Array(rows.collect())
    }

    /// Fails unless `rows` equal the golden `scale`/`experiment` entry,
    /// printing the fresh rows: a deliberate change pastes them over that
    /// entry and names its cause in CHANGES.md.
    fn assert_golden(scale: &str, experiment: &str, rows: Value) {
        let golden = serde_json::from_str(GOLDEN).expect("paper_golden.json parses");
        let want = golden.get(scale).and_then(|s| s.get(experiment));
        assert!(
            want == Some(&rows),
            "{experiment} rows at {scale} scale differ from results/paper_golden.json; \
             they are now:\n{}",
            rows.to_string_pretty()
        );
    }

    /// `repro fig7` and `repro table3` at their default scale produce the
    /// golden rows. About 2 s in release, over 20 s in a debug build.
    #[test]
    #[ignore = "default scale; CI runs it in release"]
    fn default_scale_rows_match_golden() {
        let (qps, reqs) = fig7_scale(false);
        assert_golden("default", "fig7", fig7_json(&fig7_memcached(&qps, reqs)));
        let (scale, reqs) = table3_scale(false);
        assert_golden(
            "default",
            "table3",
            table3_json(&table3_memcached(scale, reqs)),
        );
    }

    #[test]
    fn fig7_thread_imbalance_inflates_tail() {
        // A moderate-high-load point (~55% of server capacity), where the
        // paper's phenomenon is clean: the extra thread inflates the tail
        // but not the median, and pinning gives the lowest tail.
        let rows = fig7_memcached(&[350_000.0], 300);
        assert_golden("reduced", "fig7", fig7_json(&rows));
        let p95 = |label: &str| {
            rows.iter()
                .find(|r| r.case == label)
                .map(|r| r.p95_us)
                .unwrap()
        };
        let p50 = |label: &str| {
            rows.iter()
                .find(|r| r.case == label)
                .map(|r| r.p50_us)
                .unwrap()
        };
        // Tail inflation with 5 threads on 4 cores. (The paper's Linux
        // shows a larger blowup because CFS timeslices are milliseconds;
        // our model's quantum is 100 us — the ordering is what matters.)
        assert!(
            p95("5 threads") > 1.05 * p95("4 threads pinned"),
            "p95: 5t={:.1} 4t-pinned={:.1}",
            p95("5 threads"),
            p95("4 threads pinned")
        );
        // Unpinned 4 threads sit between pinned and 5 threads.
        assert!(
            p95("4 threads") >= p95("4 threads pinned"),
            "p95: 4t={:.1} 4t-pinned={:.1}",
            p95("4 threads"),
            p95("4 threads pinned")
        );
        // Medians stay comparable (within 20%).
        assert!(
            p50("5 threads") < 1.2 * p50("4 threads"),
            "p50: 5t={:.1} 4t={:.1}",
            p50("5 threads"),
            p50("4 threads")
        );
    }

    #[test]
    fn table3_latency_rises_with_hops() {
        let rows = table3_memcached(16, 60);
        assert_golden("reduced", "table3", table3_json(&rows));
        assert_eq!(rows.len(), 3);
        // p50 grows by roughly 4 x link latency + switching per level.
        assert!(rows[1].p50_us > rows[0].p50_us + 4.0, "{rows:?}");
        assert!(rows[2].p50_us > rows[1].p50_us + 4.0, "{rows:?}");
        // Aggregate QPS decreases modestly with distance.
        assert!(
            rows[2].aggregate_qps <= rows[0].aggregate_qps * 1.01,
            "{rows:?}"
        );
    }
}
