//! Machine-readable run reports.
//!
//! The paper's manager collects "host/target-level measurements for
//! analysis outside the simulation". [`RunReport`] is the structured
//! artifact that carries them: per-agent profiles (rounds, target
//! cycles, token traffic, host time), per-link occupancies that witness
//! the latency-*N* token invariant, application counters exported by the
//! models, and the aggregated [`MetricsRegistry`] counters/histograms.
//! It round-trips through JSON (for dashboards and CI artifacts) and
//! renders a human summary for terminals.
//!
//! [`MetricsRegistry`]: firesim_core::MetricsRegistry

use std::collections::BTreeMap;
use std::time::Duration;

use serde_json::Value;

use firesim_core::{Engine, LinkOccupancy, RecoveryTimeline, SimError, SimResult, TimelinePoint};

use crate::fleet::CostEstimate;

/// One agent's accumulated profile plus its exported app counters.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentReport {
    /// Agent name.
    pub name: String,
    /// Windows stepped.
    pub rounds: u64,
    /// Target cycles advanced.
    pub target_cycles: u64,
    /// Input windows consumed.
    pub windows_in: u64,
    /// Input tokens consumed.
    pub tokens_in: u64,
    /// Output windows produced.
    pub windows_out: u64,
    /// Output tokens produced.
    pub tokens_out: u64,
    /// Host nanoseconds spent inside the agent (host-dependent; excluded
    /// from determinism comparisons).
    pub host_ns: u64,
    /// Application counters from [`SimAgent::app_counters`].
    ///
    /// [`SimAgent::app_counters`]: firesim_core::SimAgent::app_counters
    pub counters: Vec<(String, u64)>,
}

/// Summary statistics of one aggregated histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Histogram name, e.g. `"engine/chunk_host_ns"`.
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Median (nearest-rank).
    pub p50: u64,
    /// 99th percentile (nearest-rank).
    pub p99: u64,
}

/// A machine-readable account of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Target cycles reached.
    pub cycles: u64,
    /// Host wall-clock nanoseconds for the run.
    pub wall_ns: u64,
    /// Host worker threads the run used: the configured count clamped to
    /// the host's cores and the agent count ([`Engine::host_threads`]).
    pub host_threads: usize,
    /// Achieved simulation rate in target-MHz.
    pub sim_rate_mhz: f64,
    /// True when every link held exactly `latency` tokens at collection
    /// time.
    pub token_invariant_ok: bool,
    /// Per-agent profiles, in registration order.
    pub agents: Vec<AgentReport>,
    /// Per-link occupancies, in registration order. Each holds
    /// `in_flight_tokens == latency` between runs — the paper's
    /// token-transport invariant.
    pub links: Vec<LinkOccupancy>,
    /// Aggregated registry counters, in registration order.
    pub counters: Vec<(String, u64)>,
    /// Aggregated registry histograms, summarised.
    pub histograms: Vec<HistogramSummary>,
    /// Recovery timeline of a chaos-scenario run: per-interval
    /// delivered/dropped/masked token counts on the links the scenario
    /// touched, with `(cycle, label)` event annotations. `None` when no
    /// scenario (or one with no timeline interval) was applied.
    pub timeline: Option<RecoveryTimeline>,
    /// Identity of the partitioned run this report came from (spec,
    /// worker count, cycles, transport). Shards of one run share it;
    /// [`RunReport::merge_shards`] refuses to merge across different
    /// ids. `None` for reports collected directly from an engine.
    pub run_id: Option<String>,
    /// Modeled fleet cost of the placement this run executed
    /// ([`crate::fleet::CostEstimate`]), attached by the fleet
    /// controller. Host-independent model output, but excluded from
    /// [`RunReport::deterministic_aggregates`] since placement is
    /// exactly what equivalence tests vary.
    pub cost: Option<CostEstimate>,
}

impl RunReport {
    /// Collects a report from an engine at a quiescent boundary (between
    /// runs). `wall` is the host time of the run(s) being reported; it
    /// feeds `wall_ns` and the simulation rate.
    pub fn collect<T: Send + 'static>(engine: &Engine<T>, wall: Duration) -> RunReport {
        let cycles = engine.now().as_u64();
        let wall_ns = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
        let secs = wall.as_secs_f64();
        let sim_rate_mhz = if secs > 0.0 {
            cycles as f64 / secs / 1e6
        } else {
            0.0
        };

        let profiles = engine.agent_profiles();
        let mut app_counters = engine.agent_app_counters();
        let agents = profiles
            .into_iter()
            .zip(app_counters.drain(..))
            .map(|((name, p), (_, counters))| AgentReport {
                name,
                rounds: p.rounds,
                target_cycles: p.target_cycles,
                windows_in: p.windows_in,
                tokens_in: p.tokens_in,
                windows_out: p.windows_out,
                tokens_out: p.tokens_out,
                host_ns: p.host_ns,
                counters,
            })
            .collect();

        let (counters, histograms) = match engine.metrics() {
            Some(registry) => {
                let snap = registry.snapshot();
                let summaries = snap
                    .histograms
                    .into_iter()
                    .filter(|(_, h)| !h.is_empty())
                    .map(|(name, mut h)| HistogramSummary {
                        name,
                        count: h.count() as u64,
                        min: h.min().unwrap_or(0),
                        max: h.max().unwrap_or(0),
                        p50: h.percentile_nearest_rank(50.0).unwrap_or(0),
                        p99: h.percentile_nearest_rank(99.0).unwrap_or(0),
                    })
                    .collect();
                (snap.counters, summaries)
            }
            None => (Vec::new(), Vec::new()),
        };

        RunReport {
            cycles,
            wall_ns,
            host_threads: engine.host_threads(),
            sim_rate_mhz,
            token_invariant_ok: engine.verify_token_invariant().is_ok(),
            agents,
            links: engine.link_occupancies(),
            counters,
            histograms,
            timeline: engine.fault_timeline(),
            run_id: None,
            cost: None,
        }
    }

    /// Merges the per-shard reports of a partitioned run into one fleet
    /// report.
    ///
    /// Agents and links are concatenated and name-sorted (shard builds
    /// register disjoint agent sets); registry counters are summed by
    /// name; histograms are dropped (their shapes are host-schedule
    /// dependent and meaningless to merge). `wall_ns` is the slowest
    /// shard, and `host_threads` the fleet total.
    ///
    /// # Errors
    ///
    /// Returns a protocol [`SimError`] for an empty shard list, for
    /// shards that reached different cycle counts (a desynchronised
    /// fleet), and for shards stamped with different
    /// [run ids](RunReport::run_id) — merging reports from two different
    /// runs would silently fabricate a fleet that never existed.
    pub fn merge_shards(shards: &[RunReport]) -> SimResult<RunReport> {
        let Some(first) = shards.first() else {
            return Err(SimError::protocol("cannot merge zero shard reports"));
        };
        let cycles = first.cycles;
        if let Some(bad) = shards.iter().find(|s| s.cycles != cycles) {
            return Err(SimError::protocol(format!(
                "cannot merge shard reports from different runs: \
                 cycle counts {} vs {cycles}",
                bad.cycles
            )));
        }
        if let Some(bad) = shards.iter().find(|s| s.run_id != first.run_id) {
            return Err(SimError::protocol(format!(
                "cannot merge shard reports from different runs: \
                 run id {:?} vs {:?}",
                bad.run_id, first.run_id
            )));
        }
        let wall_ns = shards.iter().map(|s| s.wall_ns).max().unwrap_or(0);
        let secs = wall_ns as f64 / 1e9;
        let mut agents: Vec<AgentReport> = shards.iter().flat_map(|s| s.agents.clone()).collect();
        agents.sort_by(|a, b| a.name.cmp(&b.name));
        let mut links: Vec<LinkOccupancy> = shards.iter().flat_map(|s| s.links.clone()).collect();
        links.sort_by(|a, b| (&a.agent, a.port).cmp(&(&b.agent, b.port)));
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        for (name, v) in shards.iter().flat_map(|s| s.counters.iter()) {
            *counters.entry(name.clone()).or_insert(0) += v;
        }
        // Timelines merge by summing bucket counts: each shard counted
        // only its own agents' watched links, and bucket sums are
        // commutative, so the fleet timeline equals the monolithic one.
        let timeline = {
            let present: Vec<&RecoveryTimeline> =
                shards.iter().filter_map(|s| s.timeline.as_ref()).collect();
            if present.is_empty() {
                None
            } else {
                let mut buckets: BTreeMap<u64, [u64; 3]> = BTreeMap::new();
                let mut events: Vec<(u64, String)> = Vec::new();
                for tl in &present {
                    for p in &tl.points {
                        let b = buckets.entry(p.start).or_insert([0; 3]);
                        b[0] += p.delivered;
                        b[1] += p.dropped;
                        b[2] += p.masked;
                    }
                    events.extend(tl.events.iter().cloned());
                }
                events.sort();
                events.dedup();
                Some(RecoveryTimeline {
                    interval: present.iter().map(|tl| tl.interval).max().unwrap_or(0),
                    points: buckets
                        .into_iter()
                        .map(|(start, [delivered, dropped, masked])| TimelinePoint {
                            start,
                            delivered,
                            dropped,
                            masked,
                        })
                        .collect(),
                    events,
                })
            }
        };
        Ok(RunReport {
            cycles,
            wall_ns,
            host_threads: shards.iter().map(|s| s.host_threads).sum(),
            sim_rate_mhz: if secs > 0.0 {
                cycles as f64 / secs / 1e6
            } else {
                0.0
            },
            token_invariant_ok: shards.iter().all(|s| s.token_invariant_ok),
            agents,
            links,
            counters: counters.into_iter().collect(),
            histograms: Vec::new(),
            timeline,
            run_id: first.run_id.clone(),
            cost: None,
        })
    }

    /// The host-schedule-*independent* portion of the report, in a
    /// canonical form: use this to assert that two runs of the same
    /// target — monolithic vs. partitioned, 2-way vs. 4-way — behaved
    /// identically.
    ///
    /// Includes target cycles, the token invariant, per-agent target
    /// observables (rounds, cycles, window/token traffic, app counters;
    /// **not** `host_ns`) and per-link occupancies, all name-sorted.
    /// Excludes wall time, thread counts, simulation rate, registry
    /// counters (several count host events like barrier spins),
    /// histograms, and `host_`-prefixed app counters (decode-cache
    /// hit rates, per-blade host MIPS — host observables that legally
    /// differ between runs that are target-identical, e.g. with the
    /// decoded-instruction cache on vs. off).
    pub fn deterministic_aggregates(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "cycles={} invariant={}",
            self.cycles, self.token_invariant_ok
        );
        let mut agents: Vec<&AgentReport> = self.agents.iter().collect();
        agents.sort_by(|a, b| a.name.cmp(&b.name));
        for a in agents {
            let _ = write!(
                out,
                "agent {} rounds={} cycles={} win_in={} tok_in={} win_out={} tok_out={}",
                a.name,
                a.rounds,
                a.target_cycles,
                a.windows_in,
                a.tokens_in,
                a.windows_out,
                a.tokens_out,
            );
            for (k, v) in &a.counters {
                // `host_…` (or a supernode-prefixed `…/host_…`) marks a
                // host-dependent counter; everything else is target
                // state and must agree bit-for-bit across runs.
                if k.starts_with("host_") || k.contains("/host_") {
                    continue;
                }
                let _ = write!(out, " {k}={v}");
            }
            let _ = writeln!(out);
        }
        let mut links: Vec<&LinkOccupancy> = self.links.iter().collect();
        links.sort_by(|a, b| (&a.agent, a.port).cmp(&(&b.agent, b.port)));
        for l in links {
            let _ = writeln!(
                out,
                "link {}:{} latency={} in_flight={}",
                l.agent, l.port, l.latency, l.in_flight_tokens
            );
        }
        // Timeline buckets are sums of per-window target-token counts —
        // identical across worker counts and transports. (A run resumed
        // from a checkpoint legitimately lacks the pre-checkpoint buckets,
        // so equivalence tests spanning a restore compare digests, not
        // aggregates.)
        if let Some(tl) = &self.timeline {
            for p in &tl.points {
                let _ = writeln!(
                    out,
                    "timeline {} delivered={} dropped={} masked={}",
                    p.start, p.delivered, p.dropped, p.masked
                );
            }
            for (cycle, label) in &tl.events {
                let _ = writeln!(out, "timeline-event {cycle} {label}");
            }
        }
        out
    }

    /// Serialises to pretty JSON.
    pub fn to_json(&self) -> String {
        self.to_value().to_string_pretty()
    }

    /// Parses a report previously produced by [`RunReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a parse error for malformed input or an unexpected shape.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        Self::from_value(&serde_json::from_str(s)?)
    }

    /// Renders a human-readable multi-line summary for terminals.
    pub fn human_summary(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "run: {} cycles in {:.3} ms on {} thread(s) ({:.2} MHz); token invariant {}",
            self.cycles,
            self.wall_ns as f64 / 1e6,
            self.host_threads,
            self.sim_rate_mhz,
            if self.token_invariant_ok {
                "OK"
            } else {
                "VIOLATED"
            },
        );
        if let Some(c) = &self.cost {
            let _ = writeln!(
                out,
                "  fleet: {} host(s) at ${:.2}/hour, modeled {:.3} MHz \
                 ({:.0}x slowdown) -> ${:.2} per simulated hour ({})",
                c.hosts_used,
                c.fleet_per_hour,
                c.sim_rate_hz / 1e6,
                c.slowdown,
                c.dollars_per_sim_hour,
                c.bottleneck,
            );
        }
        for a in &self.agents {
            let _ = writeln!(
                out,
                "  agent {:<16} rounds {:<8} tokens in/out {}/{} host {:.3} ms",
                a.name,
                a.rounds,
                a.tokens_in,
                a.tokens_out,
                a.host_ns as f64 / 1e6,
            );
            for (k, v) in &a.counters {
                let _ = writeln!(out, "    {k} = {v}");
            }
        }
        for l in &self.links {
            let _ = writeln!(
                out,
                "  link -> {}:{} latency {} in-flight {}",
                l.agent, l.port, l.latency, l.in_flight_tokens
            );
        }
        for (k, v) in &self.counters {
            let _ = writeln!(out, "  counter {k} = {v}");
        }
        for h in &self.histograms {
            let _ = writeln!(
                out,
                "  histogram {} n={} min={} p50={} p99={} max={}",
                h.name, h.count, h.min, h.p50, h.p99, h.max
            );
        }
        if let Some(tl) = &self.timeline {
            let _ = writeln!(
                out,
                "  recovery timeline ({}-cycle buckets, watched links only):",
                tl.interval
            );
            let peak = tl
                .points
                .iter()
                .map(|p| p.delivered)
                .max()
                .unwrap_or(0)
                .max(1);
            for p in &tl.points {
                let bar_len = (p.delivered * 40 / peak) as usize;
                let _ = writeln!(
                    out,
                    "    {:>12} |{:<40}| delivered {:<8} dropped {:<6} masked {}",
                    p.start,
                    "#".repeat(bar_len),
                    p.delivered,
                    p.dropped,
                    p.masked
                );
            }
            for (cycle, label) in &tl.events {
                let _ = writeln!(out, "    @{cycle}: {label}");
            }
        }
        out
    }

    pub(crate) fn to_value(&self) -> Value {
        let counters_value = |counters: &[(String, u64)]| {
            Value::Array(
                counters
                    .iter()
                    .map(|(k, v)| {
                        let mut o = BTreeMap::new();
                        o.insert("name".to_owned(), Value::from(k.as_str()));
                        o.insert("value".to_owned(), Value::from(*v));
                        Value::Object(o)
                    })
                    .collect(),
            )
        };
        let mut obj = BTreeMap::new();
        obj.insert("cycles".to_owned(), Value::from(self.cycles));
        obj.insert("wall_ns".to_owned(), Value::from(self.wall_ns));
        obj.insert("host_threads".to_owned(), Value::from(self.host_threads));
        obj.insert("sim_rate_mhz".to_owned(), Value::from(self.sim_rate_mhz));
        obj.insert(
            "token_invariant_ok".to_owned(),
            Value::from(self.token_invariant_ok),
        );
        obj.insert(
            "agents".to_owned(),
            Value::Array(
                self.agents
                    .iter()
                    .map(|a| {
                        let mut o = BTreeMap::new();
                        o.insert("name".to_owned(), Value::from(a.name.as_str()));
                        o.insert("rounds".to_owned(), Value::from(a.rounds));
                        o.insert("target_cycles".to_owned(), Value::from(a.target_cycles));
                        o.insert("windows_in".to_owned(), Value::from(a.windows_in));
                        o.insert("tokens_in".to_owned(), Value::from(a.tokens_in));
                        o.insert("windows_out".to_owned(), Value::from(a.windows_out));
                        o.insert("tokens_out".to_owned(), Value::from(a.tokens_out));
                        o.insert("host_ns".to_owned(), Value::from(a.host_ns));
                        o.insert("counters".to_owned(), counters_value(&a.counters));
                        Value::Object(o)
                    })
                    .collect(),
            ),
        );
        obj.insert(
            "links".to_owned(),
            Value::Array(
                self.links
                    .iter()
                    .map(|l| {
                        let mut o = BTreeMap::new();
                        o.insert("agent".to_owned(), Value::from(l.agent.as_str()));
                        o.insert("port".to_owned(), Value::from(l.port));
                        o.insert("latency".to_owned(), Value::from(l.latency));
                        o.insert(
                            "in_flight_tokens".to_owned(),
                            Value::from(l.in_flight_tokens),
                        );
                        Value::Object(o)
                    })
                    .collect(),
            ),
        );
        if let Some(tl) = &self.timeline {
            let mut t = BTreeMap::new();
            t.insert("interval".to_owned(), Value::from(tl.interval));
            t.insert(
                "points".to_owned(),
                Value::Array(
                    tl.points
                        .iter()
                        .map(|p| {
                            let mut o = BTreeMap::new();
                            o.insert("start".to_owned(), Value::from(p.start));
                            o.insert("delivered".to_owned(), Value::from(p.delivered));
                            o.insert("dropped".to_owned(), Value::from(p.dropped));
                            o.insert("masked".to_owned(), Value::from(p.masked));
                            Value::Object(o)
                        })
                        .collect(),
                ),
            );
            t.insert(
                "events".to_owned(),
                Value::Array(
                    tl.events
                        .iter()
                        .map(|(cycle, label)| {
                            let mut o = BTreeMap::new();
                            o.insert("cycle".to_owned(), Value::from(*cycle));
                            o.insert("label".to_owned(), Value::from(label.as_str()));
                            Value::Object(o)
                        })
                        .collect(),
                ),
            );
            obj.insert("timeline".to_owned(), Value::Object(t));
        }
        if let Some(run_id) = &self.run_id {
            obj.insert("run_id".to_owned(), Value::from(run_id.as_str()));
        }
        if let Some(c) = &self.cost {
            let mut o = BTreeMap::new();
            o.insert("hosts_used".to_owned(), Value::from(c.hosts_used));
            o.insert("fleet_per_hour".to_owned(), Value::from(c.fleet_per_hour));
            o.insert("cut_links".to_owned(), Value::from(c.cut_links));
            o.insert("sim_rate_hz".to_owned(), Value::from(c.sim_rate_hz));
            o.insert("target_hz".to_owned(), Value::from(c.target_hz));
            o.insert("slowdown".to_owned(), Value::from(c.slowdown));
            o.insert(
                "dollars_per_sim_hour".to_owned(),
                Value::from(c.dollars_per_sim_hour),
            );
            o.insert("bottleneck".to_owned(), Value::from(c.bottleneck.as_str()));
            obj.insert("cost".to_owned(), Value::Object(o));
        }
        obj.insert("counters".to_owned(), counters_value(&self.counters));
        obj.insert(
            "histograms".to_owned(),
            Value::Array(
                self.histograms
                    .iter()
                    .map(|h| {
                        let mut o = BTreeMap::new();
                        o.insert("name".to_owned(), Value::from(h.name.as_str()));
                        o.insert("count".to_owned(), Value::from(h.count));
                        o.insert("min".to_owned(), Value::from(h.min));
                        o.insert("max".to_owned(), Value::from(h.max));
                        o.insert("p50".to_owned(), Value::from(h.p50));
                        o.insert("p99".to_owned(), Value::from(h.p99));
                        Value::Object(o)
                    })
                    .collect(),
            ),
        );
        Value::Object(obj)
    }

    pub(crate) fn from_value(v: &Value) -> Result<Self, serde_json::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde_json::Error::custom("report must be a JSON object"))?;
        let get_u64 = |obj: &BTreeMap<String, Value>, key: &str| {
            obj.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| serde_json::Error::custom(format!("missing integer field `{key}`")))
        };
        let get_str = |obj: &BTreeMap<String, Value>, key: &str| {
            obj.get(key)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| serde_json::Error::custom(format!("missing string field `{key}`")))
        };
        let counters_of = |obj: &BTreeMap<String, Value>, key: &str| {
            get_array(obj, key)?
                .iter()
                .map(|c| {
                    let c = obj_of(c)?;
                    Ok((get_str(c, "name")?, get_u64(c, "value")?))
                })
                .collect::<Result<Vec<_>, serde_json::Error>>()
        };

        let agents = get_array(obj, "agents")?
            .iter()
            .map(|a| {
                let a = obj_of(a)?;
                Ok(AgentReport {
                    name: get_str(a, "name")?,
                    rounds: get_u64(a, "rounds")?,
                    target_cycles: get_u64(a, "target_cycles")?,
                    windows_in: get_u64(a, "windows_in")?,
                    tokens_in: get_u64(a, "tokens_in")?,
                    windows_out: get_u64(a, "windows_out")?,
                    tokens_out: get_u64(a, "tokens_out")?,
                    host_ns: get_u64(a, "host_ns")?,
                    counters: counters_of(a, "counters")?,
                })
            })
            .collect::<Result<Vec<_>, serde_json::Error>>()?;
        let links = get_array(obj, "links")?
            .iter()
            .map(|l| {
                let l = obj_of(l)?;
                Ok(LinkOccupancy {
                    agent: get_str(l, "agent")?,
                    port: get_u64(l, "port")? as usize,
                    latency: get_u64(l, "latency")?,
                    in_flight_tokens: get_u64(l, "in_flight_tokens")?,
                })
            })
            .collect::<Result<Vec<_>, serde_json::Error>>()?;
        let histograms = get_array(obj, "histograms")?
            .iter()
            .map(|h| {
                let h = obj_of(h)?;
                Ok(HistogramSummary {
                    name: get_str(h, "name")?,
                    count: get_u64(h, "count")?,
                    min: get_u64(h, "min")?,
                    max: get_u64(h, "max")?,
                    p50: get_u64(h, "p50")?,
                    p99: get_u64(h, "p99")?,
                })
            })
            .collect::<Result<Vec<_>, serde_json::Error>>()?;
        let timeline = match obj.get("timeline") {
            None => None,
            Some(v) => {
                let t = obj_of(v)?;
                let points = get_array(t, "points")?
                    .iter()
                    .map(|p| {
                        let p = obj_of(p)?;
                        Ok(TimelinePoint {
                            start: get_u64(p, "start")?,
                            delivered: get_u64(p, "delivered")?,
                            dropped: get_u64(p, "dropped")?,
                            masked: get_u64(p, "masked")?,
                        })
                    })
                    .collect::<Result<Vec<_>, serde_json::Error>>()?;
                let events = get_array(t, "events")?
                    .iter()
                    .map(|e| {
                        let e = obj_of(e)?;
                        Ok((get_u64(e, "cycle")?, get_str(e, "label")?))
                    })
                    .collect::<Result<Vec<_>, serde_json::Error>>()?;
                Some(RecoveryTimeline {
                    interval: get_u64(t, "interval")?,
                    points,
                    events,
                })
            }
        };

        let run_id = match obj.get("run_id") {
            None => None,
            Some(v) => Some(
                v.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| serde_json::Error::custom("`run_id` must be a string"))?,
            ),
        };
        let get_f64 = |obj: &BTreeMap<String, Value>, key: &str| {
            obj.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| serde_json::Error::custom(format!("missing number `{key}`")))
        };
        let cost = match obj.get("cost") {
            None => None,
            Some(v) => {
                let c = obj_of(v)?;
                Some(CostEstimate {
                    hosts_used: get_u64(c, "hosts_used")? as usize,
                    fleet_per_hour: get_f64(c, "fleet_per_hour")?,
                    cut_links: get_u64(c, "cut_links")? as usize,
                    sim_rate_hz: get_f64(c, "sim_rate_hz")?,
                    target_hz: get_f64(c, "target_hz")?,
                    slowdown: get_f64(c, "slowdown")?,
                    dollars_per_sim_hour: get_f64(c, "dollars_per_sim_hour")?,
                    bottleneck: get_str(c, "bottleneck")?,
                })
            }
        };

        Ok(RunReport {
            cycles: get_u64(obj, "cycles")?,
            wall_ns: get_u64(obj, "wall_ns")?,
            host_threads: get_u64(obj, "host_threads")? as usize,
            sim_rate_mhz: obj
                .get("sim_rate_mhz")
                .and_then(Value::as_f64)
                .ok_or_else(|| serde_json::Error::custom("missing number `sim_rate_mhz`"))?,
            token_invariant_ok: matches!(obj.get("token_invariant_ok"), Some(Value::Bool(true))),
            agents,
            links,
            counters: counters_of(obj, "counters")?,
            histograms,
            timeline,
            run_id,
            cost,
        })
    }
}

/// The array at `key` of `obj`, borrowed; empty when the key is absent.
fn get_array<'a>(
    obj: &'a BTreeMap<String, Value>,
    key: &str,
) -> Result<&'a [Value], serde_json::Error> {
    match obj.get(key) {
        Some(Value::Array(a)) => Ok(a),
        Some(_) => Err(serde_json::Error::custom(format!(
            "`{key}` must be an array"
        ))),
        None => Ok(&[]),
    }
}

/// `v` as a JSON object, borrowed.
fn obj_of(v: &Value) -> Result<&BTreeMap<String, Value>, serde_json::Error> {
    v.as_object()
        .ok_or_else(|| serde_json::Error::custom("expected a JSON object"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use firesim_core::{AgentCtx, Cycle, Engine, SimAgent};

    /// Forwards its input to its output, one token per window offset 0.
    struct Echo;
    impl SimAgent for Echo {
        type Token = u8;
        fn name(&self) -> &str {
            "echo"
        }
        fn num_inputs(&self) -> usize {
            1
        }
        fn num_outputs(&self) -> usize {
            1
        }
        fn advance(&mut self, ctx: &mut AgentCtx<u8>) {
            let tokens: Vec<_> = ctx.drain_input(0).collect();
            let out = ctx.output_mut(0);
            for (off, t) in tokens {
                out.push(off, t).unwrap();
            }
        }
        fn app_counters(&self, out: &mut Vec<(String, u64)>) {
            out.push(("echoes".to_owned(), 7));
        }
    }

    fn looped_engine() -> Engine<u8> {
        let mut engine: Engine<u8> = Engine::new(4);
        let id = engine.add_agent(Box::new(Echo));
        engine.connect(id, 0, id, 0, Cycle::new(8)).unwrap();
        engine
    }

    /// Eight threads asked of a three-agent ring run on at most three
    /// (fewer on a smaller host), and the report says how many ran.
    #[test]
    fn report_shows_the_threads_the_run_used() {
        let mut engine: Engine<u8> = Engine::new(4);
        let ids: Vec<_> = (0..3).map(|_| engine.add_agent(Box::new(Echo))).collect();
        for i in 0..3 {
            engine
                .connect(ids[i], 0, ids[(i + 1) % 3], 0, Cycle::new(8))
                .unwrap();
        }
        engine.set_host_threads(8);
        let summary = engine.run_for(Cycle::new(32)).unwrap();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let used = 8.min(cores).min(3);
        assert_eq!(summary.host_threads, used);
        let report = RunReport::collect(&engine, Duration::from_millis(1));
        assert_eq!(report.host_threads, used);
        assert!(
            report
                .human_summary()
                .contains(&format!("on {used} thread(s)")),
            "{}",
            report.human_summary()
        );
    }

    #[test]
    fn collect_reports_profiles_links_and_counters() {
        let mut engine = looped_engine();
        engine.enable_metrics();
        engine.run_for(Cycle::new(32)).unwrap();
        let report = RunReport::collect(&engine, Duration::from_millis(2));

        assert_eq!(report.cycles, 32);
        assert_eq!(report.wall_ns, 2_000_000);
        assert!(report.token_invariant_ok);
        assert_eq!(report.agents.len(), 1);
        let a = &report.agents[0];
        assert_eq!(a.name, "echo");
        assert_eq!(a.rounds, 8);
        assert_eq!(a.target_cycles, 32);
        assert_eq!(a.counters, vec![("echoes".to_owned(), 7)]);
        assert_eq!(report.links.len(), 1);
        assert_eq!(report.links[0].latency, 8);
        assert_eq!(report.links[0].in_flight_tokens, 8);
        assert!(report
            .counters
            .iter()
            .any(|(k, v)| k == "engine/agent_steps" && *v == 8));
        // sim_rate: 32 cycles / 2 ms = 16 kHz = 0.016 MHz.
        assert!((report.sim_rate_mhz - 0.016).abs() < 1e-9);
    }

    #[test]
    fn report_round_trips_json() {
        let mut engine = looped_engine();
        engine.enable_metrics();
        engine.run_for(Cycle::new(16)).unwrap();
        let report = RunReport::collect(&engine, Duration::from_micros(500));
        let json = report.to_json();
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn run_id_and_cost_round_trip_json() {
        let mut engine = looped_engine();
        engine.run_for(Cycle::new(16)).unwrap();
        let mut report = RunReport::collect(&engine, Duration::from_micros(500));
        report.run_id = Some("spec#4w#1000c#shm".into());
        report.cost = Some(CostEstimate {
            hosts_used: 37,
            fleet_per_hour: 438.40,
            cut_links: 72,
            sim_rate_hz: 31_007_751.937984496,
            target_hz: 3.2e9,
            slowdown: 103.2,
            dollars_per_sim_hour: 45_242.88,
            bottleneck: "compute on host 0 (f1.16xlarge)".into(),
        });
        let back = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
        // The new fields stay out of the determinism fingerprint:
        // placement is exactly what equivalence tests vary.
        let mut stripped = report.clone();
        stripped.run_id = None;
        stripped.cost = None;
        assert_eq!(
            report.deterministic_aggregates(),
            stripped.deterministic_aggregates()
        );
    }

    #[test]
    fn merge_shards_rejects_mixed_runs() {
        let mut engine = looped_engine();
        engine.run_for(Cycle::new(16)).unwrap();
        let mut a = RunReport::collect(&engine, Duration::from_micros(500));
        a.run_id = Some("spec#2w#16c#shm".into());
        let mut b = a.clone();

        // Healthy merge: same run id, same cycles.
        let merged = RunReport::merge_shards(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(merged.run_id, a.run_id);
        assert_eq!(merged.agents.len(), 2);

        // A shard from a different run (by id) is refused...
        b.run_id = Some("other#2w#16c#shm".into());
        let err = RunReport::merge_shards(&[a.clone(), b.clone()]).unwrap_err();
        assert!(
            matches!(err, SimError::Protocol { .. }),
            "wanted a typed protocol error, got {err}"
        );
        assert!(err.to_string().contains("run id"), "{err}");

        // ...as is a desynchronised shard (by cycle count)...
        b.run_id = a.run_id.clone();
        b.cycles = 32;
        let err = RunReport::merge_shards(&[a.clone(), b]).unwrap_err();
        assert!(matches!(err, SimError::Protocol { .. }), "{err}");
        assert!(err.to_string().contains("cycle counts"), "{err}");

        // ...and so is merging nothing at all.
        assert!(RunReport::merge_shards(&[]).is_err());
    }

    #[test]
    fn human_summary_mentions_agents_and_links() {
        let mut engine = looped_engine();
        engine.run_for(Cycle::new(8)).unwrap();
        let report = RunReport::collect(&engine, Duration::from_millis(1));
        let text = report.human_summary();
        assert!(text.contains("echo"), "{text}");
        assert!(text.contains("token invariant OK"), "{text}");
        assert!(text.contains("latency 8 in-flight 8"), "{text}");
    }

    #[test]
    fn from_json_rejects_wrong_shapes() {
        assert!(RunReport::from_json("[1,2,3]").is_err());
        assert!(RunReport::from_json("{\"cycles\": \"nope\"}").is_err());
        assert!(RunReport::from_json("not json").is_err());
    }
}
