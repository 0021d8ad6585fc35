//! Declarative chaos scenarios on the deterministic target network.
//!
//! FireSim's value (paper §IV-C) is evaluating datacenter behaviour under
//! conditions you cannot safely create in production. This module turns
//! that into a first-class, *replayable* artifact: a [`Scenario`] is a
//! seeded script describing timed target-network events:
//!
//! * **partitions and heals** — group agents into islands; every link
//!   crossing an island boundary is masked for the event window;
//! * **correlated failures** — a whole rack (a switch plus its subtree)
//!   down as one event, expanded to many links via topology groups;
//! * **per-link loss and degradation** — seeded drop-rate windows
//!   ([`FaultKind::LinkFlaky`](crate::FaultKind)) and duty-cycle bandwidth
//!   shaping ([`FaultKind::LinkDegraded`](crate::FaultKind));
//! * **switch buffer pressure** — shrink a switch's output buffering or
//!   tighten its release-delay bound mid-run, restored on heal (a
//!   [`PressureWindow`] applied by the switch model).
//!
//! A scenario is *compiled* against a [`ScenarioTopo`] — a neutral view of
//! the simulated topology (agents, links, labeled groups) supplied by the
//! manager — into a [`CompiledScenario`]: a flat timeline of per-link
//! effect windows and per-switch pressure windows. Compilation validates
//! every referenced agent, port, and group and fails with a typed
//! [`SimError::Scenario`] rather than silently injecting nothing.
//!
//! This module holds the script *model* only; `firesim_manager::scenario`
//! parses the JSON script format into it.
//!
//! **Determinism.** Every compiled effect is a pure function of the
//! absolute target cycle: link effects ride the existing
//! [`FaultPlan`] masking machinery (seeded hash / duty
//! cycle per cycle number), and pressure windows are evaluated from the
//! window-start cycle inside the switch model. No mutable scenario state
//! exists outside the engine's ordinary checkpointed state, so a run
//! restored from an `FSCKPT01` checkpoint taken mid-partition — with the
//! scenario re-applied to the rebuilt simulation — resumes mid-scenario
//! exactly, and single-process, multi-thread, and all transport backends
//! produce identical digests.

use std::collections::{BTreeMap, BTreeSet};

use crate::error::{SimError, SimResult};
use crate::fault::FaultPlan;

// ---------------------------------------------------------------------------
// Script model
// ---------------------------------------------------------------------------

/// One timed event in a scenario script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioEvent {
    /// First target cycle at which the event is active.
    pub from: u64,
    /// First target cycle at which the event has healed.
    pub until: u64,
    /// What happens.
    pub kind: EventKind,
}

/// The event vocabulary of scenario scripts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// Partition the network: each island lists agent names; agents not
    /// listed form one implicit island. Every link whose endpoints sit in
    /// different islands is masked (both directions) for the window.
    Partition {
        /// The islands, each a list of agent names.
        islands: Vec<Vec<String>>,
    },
    /// Correlated failure: the topology group labeled `group` (typically a
    /// switch plus every node in its subtree) goes down as a unit — every
    /// link touching a member is masked for the window.
    RackDown {
        /// Label of the topology group that fails.
        group: String,
    },
    /// One input link goes fully down.
    LinkDown {
        /// Receiving agent.
        agent: String,
        /// Receiving input port.
        port: usize,
    },
    /// One input link drops a seeded fraction of its tokens.
    LinkFlaky {
        /// Receiving agent.
        agent: String,
        /// Receiving input port.
        port: usize,
        /// Percentage of tokens dropped, 0-100.
        drop_percent: u8,
    },
    /// One input link is bandwidth-shaped to a duty-cycle fraction.
    LinkDegrade {
        /// Receiving agent.
        agent: String,
        /// Receiving input port.
        port: usize,
        /// Percentage of tokens kept, 0-100.
        keep_percent: u8,
    },
    /// A switch comes under buffer pressure: its effective output
    /// buffering and/or release-delay bound shrink for the window.
    SwitchPressure {
        /// Name of the switch.
        switch: String,
        /// Effective per-port output buffering during the window, bytes.
        buffer_bytes: Option<usize>,
        /// Effective release-delay bound during the window, cycles.
        max_release_delay: Option<u64>,
    },
}

impl EventKind {
    fn describe(&self) -> String {
        match self {
            EventKind::Partition { islands } => {
                format!("partition into {} island(s)", islands.len() + 1)
            }
            EventKind::RackDown { group } => format!("rack {group} down"),
            EventKind::LinkDown { agent, port } => format!("link {agent}:{port} down"),
            EventKind::LinkFlaky {
                agent,
                port,
                drop_percent,
            } => format!("link {agent}:{port} flaky ({drop_percent}% loss)"),
            EventKind::LinkDegrade {
                agent,
                port,
                keep_percent,
            } => format!("link {agent}:{port} degraded ({keep_percent}% kept)"),
            EventKind::SwitchPressure { switch, .. } => format!("switch {switch} under pressure"),
        }
    }
}

/// A declarative, seeded chaos-scenario script.
///
/// Parse one from JSON with `firesim_manager::scenario::load`, or build
/// it programmatically, then [`Scenario::compile`] it against a
/// [`ScenarioTopo`] to validate it and obtain the applicable event
/// timeline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Scenario {
    /// Human-readable scenario name (optional, informational).
    pub name: String,
    /// Seed driving flaky-link token selection.
    pub seed: u64,
    /// Recovery-timeline bucket width in target cycles; 0 disables the
    /// timeline.
    pub interval: u64,
    /// The timed events.
    pub events: Vec<ScenarioEvent>,
}

// ---------------------------------------------------------------------------
// Topology view
// ---------------------------------------------------------------------------

/// A link between two agents, named from both receiving ends: tokens
/// flowing `a → b` arrive on `b`'s input `b_port`, and `b → a` on `a`'s
/// input `a_port`. Masking both input ports takes the whole link down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioLink {
    /// One endpoint.
    pub a: String,
    /// `a`'s input port facing `b`.
    pub a_port: usize,
    /// The other endpoint.
    pub b: String,
    /// `b`'s input port facing `a`.
    pub b_port: usize,
}

/// The neutral topology view scenarios compile against: every agent with
/// its input-port count, every link, and labeled groups (e.g. one per
/// switch, containing the switch and its whole subtree) that correlated
/// failures expand through.
#[derive(Debug, Clone, Default)]
pub struct ScenarioTopo {
    agents: Vec<(String, usize)>,
    links: Vec<ScenarioLink>,
    groups: Vec<(String, Vec<String>)>,
}

impl ScenarioTopo {
    /// Creates an empty view.
    pub fn new() -> Self {
        ScenarioTopo::default()
    }

    /// Registers an agent and its input-port count.
    pub fn add_agent(&mut self, name: impl Into<String>, num_inputs: usize) -> &mut Self {
        self.agents.push((name.into(), num_inputs));
        self
    }

    /// Registers a bidirectional link (see [`ScenarioLink`]).
    pub fn add_link(
        &mut self,
        a: impl Into<String>,
        a_port: usize,
        b: impl Into<String>,
        b_port: usize,
    ) -> &mut Self {
        self.links.push(ScenarioLink {
            a: a.into(),
            a_port,
            b: b.into(),
            b_port,
        });
        self
    }

    /// Registers a labeled group of agent names for correlated failures.
    pub fn add_group(
        &mut self,
        label: impl Into<String>,
        members: impl IntoIterator<Item = String>,
    ) -> &mut Self {
        self.groups
            .push((label.into(), members.into_iter().collect()));
        self
    }

    /// The registered links.
    pub fn links(&self) -> &[ScenarioLink] {
        &self.links
    }

    fn inputs_of(&self, name: &str) -> Option<usize> {
        self.agents.iter().find(|(n, _)| n == name).map(|(_, i)| *i)
    }

    fn check_agent(&self, name: &str, context: &str) -> SimResult<()> {
        if self.inputs_of(name).is_none() {
            return Err(SimError::scenario(format!(
                "{context} unknown agent {name:?} (topology has: {})",
                self.agent_list()
            )));
        }
        Ok(())
    }

    fn check_port(&self, name: &str, port: usize, context: &str) -> SimResult<()> {
        self.check_agent(name, context)?;
        let n_in = self.inputs_of(name).expect("checked");
        if port >= n_in {
            return Err(SimError::scenario(format!(
                "{context} input port {port} of agent {name:?}, \
                 which has {n_in} input port(s)"
            )));
        }
        Ok(())
    }

    fn agent_list(&self) -> String {
        let names: Vec<&str> = self.agents.iter().map(|(n, _)| n.as_str()).collect();
        names.join(", ")
    }
}

// ---------------------------------------------------------------------------
// Compiled form
// ---------------------------------------------------------------------------

/// What happens to one link during an effect window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkEffect {
    /// Fully masked.
    Down,
    /// Seeded loss at this drop percentage.
    Flaky(u8),
    /// Duty-cycle shaped to this keep percentage.
    Degrade(u8),
}

/// One compiled per-link effect window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkEffectWindow {
    /// Receiving agent.
    pub agent: String,
    /// Receiving input port.
    pub port: usize,
    /// First active cycle.
    pub from: u64,
    /// First healed cycle.
    pub until: u64,
    /// The effect.
    pub effect: LinkEffect,
}

/// One compiled buffer-pressure window on a switch. The switch model
/// evaluates these purely from the target cycle, so pressure is part of
/// deterministic target behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PressureWindow {
    /// First active cycle.
    pub from: u64,
    /// First healed cycle.
    pub until: u64,
    /// Effective per-port output buffering while active, bytes (the
    /// minimum of this and the configured value applies).
    pub buffer_bytes: Option<usize>,
    /// Effective release-delay bound while active, cycles (the minimum of
    /// this and the configured bound applies).
    pub max_release_delay: Option<u64>,
}

/// A scenario compiled against a topology: the flat, validated timeline of
/// link-effect and switch-pressure windows, ready to lower onto a
/// [`FaultPlan`] and the switch models.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompiledScenario {
    seed: u64,
    interval: u64,
    link_effects: Vec<LinkEffectWindow>,
    pressure: Vec<(String, PressureWindow)>,
    watches: Vec<(String, usize)>,
    labels: Vec<(u64, String)>,
}

impl CompiledScenario {
    /// The scenario's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The recovery-timeline bucket width (0 = no timeline).
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// True when the scenario does nothing (no events compiled).
    pub fn is_noop(&self) -> bool {
        self.link_effects.is_empty() && self.pressure.is_empty()
    }

    /// The compiled per-link effect windows.
    pub fn link_effects(&self) -> &[LinkEffectWindow] {
        &self.link_effects
    }

    /// The compiled `(cycle, label)` annotations.
    pub fn labels(&self) -> &[(u64, String)] {
        &self.labels
    }

    /// The deduplicated `(agent, input port)` pairs touched by link
    /// effects — the links whose recovery the timeline watches.
    pub fn watches(&self) -> &[(String, usize)] {
        &self.watches
    }

    /// The pressure windows addressed to switch `name`.
    pub fn pressure_for(&self, name: &str) -> Vec<PressureWindow> {
        self.pressure
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, w)| *w)
            .collect()
    }

    /// Names of switches with at least one pressure window.
    pub fn pressured_switches(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.pressure.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Lowers the link effects onto a [`FaultPlan`], keeping only effects
    /// and watches whose receiving agent satisfies `is_local` (in a
    /// partitioned run each shard applies only its own agents' share). The
    /// plan also carries the recovery-timeline registration when the
    /// scenario has an interval and any local watches.
    pub fn fault_plan(&self, is_local: impl Fn(&str) -> bool) -> FaultPlan {
        let mut plan = FaultPlan::new(self.seed);
        for e in &self.link_effects {
            if !is_local(&e.agent) {
                continue;
            }
            match e.effect {
                LinkEffect::Down => plan.link_down(e.agent.as_str(), e.port, e.from, e.until),
                LinkEffect::Flaky(pct) => {
                    plan.link_flaky(e.agent.as_str(), e.port, e.from, e.until, pct)
                }
                LinkEffect::Degrade(pct) => {
                    plan.link_degraded(e.agent.as_str(), e.port, e.from, e.until, pct)
                }
            };
        }
        let mut watched = false;
        for (agent, port) in &self.watches {
            if !is_local(agent) {
                continue;
            }
            plan.watch_link(agent.as_str(), *port);
            watched = true;
        }
        if watched && self.interval > 0 {
            plan.record_timeline(self.interval);
            for (cycle, label) in &self.labels {
                plan.annotate(*cycle, label.as_str());
            }
        }
        plan
    }
}

impl Scenario {
    /// Compiles the scenario against a topology view, validating every
    /// referenced agent, port, and group.
    ///
    /// # Errors
    ///
    /// [`SimError::Scenario`] naming the offending event and reference
    /// when anything does not exist in `topo`.
    pub fn compile(&self, topo: &ScenarioTopo) -> SimResult<CompiledScenario> {
        let mut out = CompiledScenario {
            seed: self.seed,
            interval: self.interval,
            ..CompiledScenario::default()
        };
        for (i, ev) in self.events.iter().enumerate() {
            let ctx = format!("event #{} ({})", i + 1, ev.kind.describe());
            match &ev.kind {
                EventKind::Partition { islands } => {
                    let mut island_of: BTreeMap<&str, usize> = BTreeMap::new();
                    for (island_id, members) in islands.iter().enumerate() {
                        for m in members {
                            topo.check_agent(m, &format!("{ctx} names"))?;
                            if island_of.insert(m.as_str(), island_id + 1).is_some() {
                                return Err(SimError::scenario(format!(
                                    "{ctx}: agent {m:?} appears in more than one island"
                                )));
                            }
                        }
                    }
                    // Unlisted agents form implicit island 0; a link is cut
                    // iff its endpoints land in different islands.
                    for link in &topo.links {
                        let ia = island_of.get(link.a.as_str()).copied().unwrap_or(0);
                        let ib = island_of.get(link.b.as_str()).copied().unwrap_or(0);
                        if ia != ib {
                            out.cut_link(link, ev.from, ev.until);
                        }
                    }
                }
                EventKind::RackDown { group } => {
                    let members = topo
                        .groups
                        .iter()
                        .find(|(label, _)| label == group)
                        .map(|(_, m)| m)
                        .ok_or_else(|| {
                            let labels: Vec<&str> =
                                topo.groups.iter().map(|(l, _)| l.as_str()).collect();
                            SimError::scenario(format!(
                                "{ctx}: unknown group {group:?} (topology has: {})",
                                labels.join(", ")
                            ))
                        })?;
                    let set: BTreeSet<&str> = members.iter().map(String::as_str).collect();
                    for link in &topo.links {
                        if set.contains(link.a.as_str()) || set.contains(link.b.as_str()) {
                            out.cut_link(link, ev.from, ev.until);
                        }
                    }
                }
                EventKind::LinkDown { agent, port } => {
                    topo.check_port(agent, *port, &format!("{ctx} targets"))?;
                    out.push_effect(agent, *port, ev.from, ev.until, LinkEffect::Down);
                }
                EventKind::LinkFlaky {
                    agent,
                    port,
                    drop_percent,
                } => {
                    topo.check_port(agent, *port, &format!("{ctx} targets"))?;
                    out.push_effect(
                        agent,
                        *port,
                        ev.from,
                        ev.until,
                        LinkEffect::Flaky(*drop_percent),
                    );
                }
                EventKind::LinkDegrade {
                    agent,
                    port,
                    keep_percent,
                } => {
                    topo.check_port(agent, *port, &format!("{ctx} targets"))?;
                    out.push_effect(
                        agent,
                        *port,
                        ev.from,
                        ev.until,
                        LinkEffect::Degrade(*keep_percent),
                    );
                }
                EventKind::SwitchPressure {
                    switch,
                    buffer_bytes,
                    max_release_delay,
                } => {
                    topo.check_agent(switch, &format!("{ctx} targets"))?;
                    out.pressure.push((
                        switch.clone(),
                        PressureWindow {
                            from: ev.from,
                            until: ev.until,
                            buffer_bytes: *buffer_bytes,
                            max_release_delay: *max_release_delay,
                        },
                    ));
                }
            }
            out.labels.push((ev.from, ev.kind.describe()));
            out.labels
                .push((ev.until, format!("heal: {}", ev.kind.describe())));
        }
        out.labels.sort();
        out.labels.dedup();
        Ok(out)
    }
}

impl CompiledScenario {
    fn cut_link(&mut self, link: &ScenarioLink, from: u64, until: u64) {
        self.push_effect(&link.a, link.a_port, from, until, LinkEffect::Down);
        self.push_effect(&link.b, link.b_port, from, until, LinkEffect::Down);
    }

    fn push_effect(&mut self, agent: &str, port: usize, from: u64, until: u64, effect: LinkEffect) {
        self.link_effects.push(LinkEffectWindow {
            agent: agent.to_owned(),
            port,
            from,
            until,
            effect,
        });
        let watch = (agent.to_owned(), port);
        if !self.watches.contains(&watch) {
            self.watches.push(watch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2-rack topology view: root over rack0/rack1, servers a0,a1 under
    /// rack0, b0 under rack1.
    fn two_racks() -> ScenarioTopo {
        let mut t = ScenarioTopo::new();
        t.add_agent("root", 2);
        t.add_agent("rack0", 3); // 2 downlinks + uplink (port 2)
        t.add_agent("rack1", 2); // 1 downlink + uplink (port 1)
        t.add_agent("a0", 1);
        t.add_agent("a1", 1);
        t.add_agent("b0", 1);
        t.add_link("root", 0, "rack0", 2);
        t.add_link("root", 1, "rack1", 1);
        t.add_link("rack0", 0, "a0", 0);
        t.add_link("rack0", 1, "a1", 0);
        t.add_link("rack1", 0, "b0", 0);
        t.add_group("rack0", ["rack0", "a0", "a1"].map(String::from));
        t.add_group("rack1", ["rack1", "b0"].map(String::from));
        t
    }

    fn effects_on<'a>(sc: &'a CompiledScenario, agent: &str) -> Vec<&'a LinkEffectWindow> {
        sc.link_effects()
            .iter()
            .filter(|e| e.agent == agent)
            .collect()
    }

    #[test]
    fn switch_pressure_compiles_to_that_switch_only() {
        let sc = Scenario {
            events: vec![ScenarioEvent {
                from: 50,
                until: 150,
                kind: EventKind::SwitchPressure {
                    switch: "root".into(),
                    buffer_bytes: Some(4096),
                    max_release_delay: None,
                },
            }],
            ..Scenario::default()
        };
        let compiled = sc.compile(&two_racks()).unwrap();
        assert!(!compiled.is_noop());
        assert!(compiled.link_effects().is_empty());
        assert_eq!(compiled.pressured_switches(), ["root"]);
        assert_eq!(compiled.pressure_for("root")[0].buffer_bytes, Some(4096));
        assert!(compiled.pressure_for("rack0").is_empty());
    }

    #[test]
    fn partition_cuts_exactly_the_cross_island_links() {
        let sc = Scenario {
            events: vec![ScenarioEvent {
                from: 100,
                until: 200,
                kind: EventKind::Partition {
                    islands: vec![vec!["rack1".into(), "b0".into()]],
                },
            }],
            ..Scenario::default()
        };
        let compiled = sc.compile(&two_racks()).unwrap();
        // Only the root<->rack1 link crosses islands: both endpoints get a
        // Down window; the rack1<->b0 link (same island) is untouched.
        assert_eq!(compiled.link_effects().len(), 2);
        assert_eq!(effects_on(&compiled, "root").len(), 1);
        assert_eq!(effects_on(&compiled, "rack1").len(), 1);
        let e = effects_on(&compiled, "root")[0];
        assert_eq!(
            (e.port, e.from, e.until, e.effect),
            (1, 100, 200, LinkEffect::Down)
        );
        assert!(effects_on(&compiled, "b0").is_empty());
    }

    #[test]
    fn rack_down_expands_to_every_touching_link() {
        let sc = Scenario {
            events: vec![ScenarioEvent {
                from: 10,
                until: 20,
                kind: EventKind::RackDown {
                    group: "rack0".into(),
                },
            }],
            ..Scenario::default()
        };
        let compiled = sc.compile(&two_racks()).unwrap();
        // Links touched: root<->rack0, rack0<->a0, rack0<->a1 — each cut
        // at both endpoints.
        assert_eq!(compiled.link_effects().len(), 6);
        assert_eq!(effects_on(&compiled, "rack0").len(), 3);
        assert_eq!(effects_on(&compiled, "a0").len(), 1);
        assert_eq!(effects_on(&compiled, "a1").len(), 1);
        assert_eq!(effects_on(&compiled, "root").len(), 1);
        assert!(effects_on(&compiled, "b0").is_empty());
    }

    #[test]
    fn validation_rejects_unknown_targets() {
        let mk = |kind: EventKind| Scenario {
            events: vec![ScenarioEvent {
                from: 0,
                until: 10,
                kind,
            }],
            ..Scenario::default()
        };
        let topo = two_racks();
        let err = mk(EventKind::LinkDown {
            agent: "typo".into(),
            port: 0,
        })
        .compile(&topo)
        .unwrap_err();
        assert!(matches!(err, SimError::Scenario { .. }), "{err}");
        assert!(err.to_string().contains("typo"), "{err}");

        let err = mk(EventKind::LinkDown {
            agent: "a0".into(),
            port: 3,
        })
        .compile(&topo)
        .unwrap_err();
        assert!(err.to_string().contains("input port 3"), "{err}");

        let err = mk(EventKind::RackDown {
            group: "rack9".into(),
        })
        .compile(&topo)
        .unwrap_err();
        assert!(err.to_string().contains("rack9"), "{err}");

        let err = mk(EventKind::Partition {
            islands: vec![vec!["ghost".into()]],
        })
        .compile(&topo)
        .unwrap_err();
        assert!(err.to_string().contains("ghost"), "{err}");

        // Same agent in two islands is ambiguous.
        let err = mk(EventKind::Partition {
            islands: vec![vec!["a0".into()], vec!["a0".into()]],
        })
        .compile(&topo)
        .unwrap_err();
        assert!(err.to_string().contains("more than one island"), "{err}");
    }

    #[test]
    fn fault_plan_filters_to_local_agents() {
        let sc = Scenario {
            seed: 5,
            interval: 100,
            events: vec![ScenarioEvent {
                from: 10,
                until: 20,
                kind: EventKind::RackDown {
                    group: "rack0".into(),
                },
            }],
            ..Scenario::default()
        };
        let compiled = sc.compile(&two_racks()).unwrap();
        let all = compiled.fault_plan(|_| true);
        assert_eq!(all.len(), 6);
        assert!(all.has_effects());
        let local = compiled.fault_plan(|n| n == "a0" || n == "a1");
        assert_eq!(local.len(), 2);
        let none = compiled.fault_plan(|_| false);
        assert!(!none.has_effects());
    }

    #[test]
    fn noop_scenario_compiles_to_inert_plan() {
        let sc = Scenario {
            name: "noop".into(),
            seed: 1,
            ..Scenario::default()
        };
        let compiled = sc.compile(&two_racks()).unwrap();
        assert!(compiled.is_noop());
        assert!(!compiled.fault_plan(|_| true).has_effects());
        assert!(compiled.pressured_switches().is_empty());
    }
}
