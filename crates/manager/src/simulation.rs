//! Turning a validated [`Topology`] into a running simulation.
//!
//! This is the "builds and deploys" half of the manager (§III-B3): it
//! instantiates blades and switch models, assigns MACs, populates every
//! switch's static MAC table from the tree structure, wires all links
//! with the configured latency, and hands back a [`Simulation`] whose
//! engine can be driven to completion. It also produces the deployment
//! plan (instances + cost) for the equivalent EC2 deployment.

use std::sync::Arc;

use parking_lot::Mutex;

use firesim_blade::model::{ModeledBlade, OsModel};
use firesim_blade::soc::{BladeProbe, RtlBlade};
use firesim_core::{
    AbortHandle, AgentId, BoundaryInput, BoundaryOutput, CompiledScenario, Cycle, Engine,
    EngineCheckpoint, FaultPlan, FaultRecord, MetricsRegistry, PressureWindow, ProgressProbe,
    RunSummary, SimResult, SpanTracer,
};
use firesim_net::{Flit, MacAddr, Switch, SwitchConfig, SwitchStats};
use firesim_platform::{DeploymentPlan, PlanRequest};

use crate::partition::PartitionPlan;
use crate::topology::{BladeSpec, NodeRef, SwitchId, Topology};

/// Simulation-level configuration (everything here is runtime-tunable in
/// FireSim — no "resynthesis" required).
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Link latency in cycles (applies to every link; the paper's
    /// default experiments use 6400 = 2 us at 3.2 GHz).
    pub link_latency: Cycle,
    /// Minimum port-to-port switching latency in cycles.
    pub switching_latency: u64,
    /// Per-port switch output buffering in bytes.
    pub switch_buffer_bytes: usize,
    /// Record aggregate ingress bandwidth at the *root* switch with this
    /// bucket size (cycles), for Fig 6-style measurements.
    pub root_bandwidth_bucket: Option<u64>,
    /// Host worker threads for the engine.
    pub host_threads: usize,
    /// Use supernode packing in the deployment plan.
    pub supernode: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            link_latency: Cycle::new(6_400),
            switching_latency: 10,
            switch_buffer_bytes: 512 * 1024,
            root_bandwidth_bucket: None,
            host_threads: 1,
            supernode: false,
        }
    }
}

/// Information about one deployed server.
#[derive(Debug, Clone)]
pub struct ServerInfo {
    /// Node name from the topology.
    pub name: String,
    /// Assigned MAC.
    pub mac: MacAddr,
    /// Assigned (informational) IP.
    pub ip: String,
    /// Probe handle for RTL blades (None for modeled blades, whose
    /// results flow through app-held handles).
    pub probe: Option<Arc<Mutex<BladeProbe>>>,
}

/// Boundary ports a sharded build leaves open for cross-process wiring.
///
/// Each entry pairs a deterministic link id and the peer shard holding the
/// link's far end with the local half of a cross-shard link. The id names
/// the *directed* tree edge — `l{s}p{p}d` is switch `s`'s port `p` toward
/// its child (downlink), `l{s}p{p}u` the reverse — and is identical on
/// both shards, so the two processes agree on every link without any
/// coordination beyond the shared partition plan. `outputs` are drained
/// toward the peer shard; `inputs` are fed from it.
#[derive(Debug, Default)]
pub struct ShardBoundaries {
    /// Locally produced windows to ship out, `(link id, peer shard, port)`.
    pub outputs: Vec<(String, usize, BoundaryOutput<Flit>)>,
    /// Remotely produced windows to inject, `(link id, peer shard, port)`.
    pub inputs: Vec<(String, usize, BoundaryInput<Flit>)>,
}

impl ShardBoundaries {
    /// True when this shard has no cross-process links (1-way partition).
    pub fn is_empty(&self) -> bool {
        self.outputs.is_empty() && self.inputs.is_empty()
    }
}

/// A deployed, runnable simulation.
pub struct Simulation {
    engine: Engine<Flit>,
    servers: Vec<ServerInfo>,
    switch_stats: Vec<(String, Arc<Mutex<SwitchStats>>)>,
    switch_controls: Vec<(String, Arc<Mutex<Vec<PressureWindow>>>)>,
    plan: DeploymentPlan,
    boundaries: ShardBoundaries,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("servers", &self.servers.len())
            .field("switches", &self.switch_stats.len())
            .field(
                "boundary_links",
                &(self.boundaries.outputs.len() + self.boundaries.inputs.len()),
            )
            .finish()
    }
}

/// Deterministic id of the directed link leaving switch `sidx` port `port`
/// toward its child (`down == true`) or arriving from it (`down == false`).
pub(crate) fn link_id(sidx: usize, port: usize, down: bool) -> String {
    format!("l{sidx}p{port}{}", if down { 'd' } else { 'u' })
}

/// The shard `plan` assigns `node` to.
///
/// Kept out of line: inlined into `build_inner`'s wiring loop, it slowed
/// every monolithic build through code layout alone (~6 % on the
/// 1024-node datacenter, 2-vCPU x86 host), though only sharded builds
/// call it.
#[inline(never)]
fn node_shard(plan: &PartitionPlan, node: &NodeRef) -> usize {
    match node {
        NodeRef::Server(s) => plan.server_shard(s.0),
        NodeRef::Switch(s) => plan.switch_shard(s.0),
    }
}

impl Topology {
    /// Builds and "deploys" the simulation: every blade and switch is
    /// instantiated, connected, and ready to run.
    ///
    /// # Errors
    ///
    /// Returns a topology validation error (as
    /// [`firesim_core::SimError::Topology`]) or an engine wiring error.
    pub fn build(self, config: SimConfig) -> SimResult<Simulation> {
        self.build_inner(config, None)
    }

    /// Builds only the agents assigned to `shard` by `plan`, leaving every
    /// link that crosses a shard boundary open as a
    /// [`BoundaryOutput`]/[`BoundaryInput`] pair in
    /// [`Simulation::take_boundaries`].
    ///
    /// Every worker process of a partitioned run calls this with the *same*
    /// topology and config; determinism of the token protocol (§III-B2)
    /// guarantees the union of the shards behaves bit-identically to
    /// [`build`](Topology::build)'s monolithic simulation.
    ///
    /// # Errors
    ///
    /// As for [`build`](Topology::build); additionally rejects supernode
    /// packing (whose host-unit grouping is not shard-stable) and a shard
    /// index outside the plan.
    pub fn build_shard(
        self,
        config: SimConfig,
        plan: &PartitionPlan,
        shard: usize,
    ) -> SimResult<Simulation> {
        if shard >= plan.workers() {
            return Err(firesim_core::SimError::topology(format!(
                "shard {shard} out of range for a {}-way partition",
                plan.workers()
            )));
        }
        if config.supernode && plan.workers() > 1 {
            return Err(firesim_core::SimError::topology(
                "supernode packing cannot be combined with multi-process partitioning",
            ));
        }
        self.build_inner(config, Some((plan, shard)))
    }

    fn build_inner(
        mut self,
        config: SimConfig,
        shard: Option<(&PartitionPlan, usize)>,
    ) -> SimResult<Simulation> {
        let root = self.validate().map_err(firesim_core::SimError::topology)?;
        let local_server = |idx: usize| shard.is_none_or(|(p, s)| p.server_shard(idx) == s);
        let local_switch = |idx: usize| shard.is_none_or(|(p, s)| p.switch_shard(idx) == s);

        let window = u32::try_from(config.link_latency.as_u64())
            .map_err(|_| firesim_core::SimError::topology("link latency too large"))?;
        let mut engine: Engine<Flit> = Engine::new(window);
        engine.set_host_threads(config.host_threads);

        // --- Instantiate server blades (not yet agents). ---
        // Variant sizes differ, but each value is boxed into an agent
        // immediately; the transient enum is fine.
        #[allow(clippy::large_enum_variant)]
        enum Built {
            Rtl(RtlBlade),
            Model(ModeledBlade),
        }
        let specs: Vec<_> = self
            .servers
            .iter_mut()
            .map(|s| {
                let name = s.name.clone();
                s.spec.take().ok_or_else(|| {
                    firesim_core::SimError::topology(format!(
                        "server {name:?} has no blade spec (topology already built?)"
                    ))
                })
            })
            .collect::<SimResult<_>>()?;
        let mut built: Vec<Option<Built>> = Vec::with_capacity(self.servers.len());
        let mut servers: Vec<ServerInfo> = Vec::with_capacity(self.servers.len());
        for (idx, spec) in specs.into_iter().enumerate() {
            if !local_server(idx) {
                // Another shard owns this blade; MAC/IP assignment stays
                // global (index-based) so routing tables agree everywhere.
                built.push(None);
                continue;
            }
            let name = self.servers[idx].name.clone();
            let mac = MacAddr::from_node_index(idx as u64);
            let ip = {
                let i = idx as u32;
                format!(
                    "10.{}.{}.{}",
                    (i >> 16) & 0xff,
                    (i >> 8) & 0xff,
                    (i & 0xff) + 1
                )
            };
            let (blade, probe) = match spec {
                BladeSpec::Rtl {
                    config: blade_config,
                    program,
                } => {
                    let mut blade = RtlBlade::new(name.clone(), mac, blade_config);
                    program.install(&mut blade);
                    let probe = blade.probe();
                    (Built::Rtl(blade), Some(probe))
                }
                BladeSpec::Model {
                    os,
                    threads,
                    pinned,
                    app,
                } => {
                    let os_model = OsModel::new(os, threads, pinned);
                    let app = app(mac, idx);
                    (
                        Built::Model(ModeledBlade::new(name.clone(), mac, os_model, app)),
                        None,
                    )
                }
            };
            built.push(Some(blade));
            servers.push(ServerInfo {
                name,
                mac,
                ip,
                probe,
            });
        }

        // --- Register agents, packing supernodes if requested. ---
        // Supernode packing groups up to four RTL blades attached to the
        // SAME switch into one host unit (§III-A5); each blade keeps its
        // own network port on that unit.
        // Indexed by *global* server index; remote servers stay None.
        let mut server_endpoint: Vec<Option<(AgentId, usize)>> = vec![None; self.servers.len()];
        if config.supernode {
            let mut sn_count = 0usize;
            for sw in &self.switches {
                let rtl_children: Vec<usize> = sw
                    .children
                    .iter()
                    .filter_map(|c| match c {
                        NodeRef::Server(s) if matches!(built[s.0], Some(Built::Rtl(_))) => {
                            Some(s.0)
                        }
                        _ => None,
                    })
                    .collect();
                for chunk in rtl_children.chunks(4) {
                    let blades: Vec<RtlBlade> = chunk
                        .iter()
                        .map(|&i| match built[i].take() {
                            Some(Built::Rtl(b)) => b,
                            _ => unreachable!("filtered to RTL above"),
                        })
                        .collect();
                    let agent = engine.add_agent(Box::new(firesim_blade::Supernode::new(
                        format!("supernode{sn_count}"),
                        blades,
                    )));
                    sn_count += 1;
                    for (port, &i) in chunk.iter().enumerate() {
                        server_endpoint[i] = Some((agent, port));
                    }
                }
            }
        }
        for (idx, slot) in built.into_iter().enumerate() {
            let Some(blade) = slot else { continue };
            let agent: Box<dyn firesim_core::SimAgent<Token = Flit>> = match blade {
                Built::Rtl(b) => Box::new(b),
                Built::Model(b) => Box::new(b),
            };
            server_endpoint[idx] = Some((engine.add_agent(agent), 0));
        }
        // Remote servers legitimately stay unmapped in a sharded build;
        // local ones must all have an endpoint.
        for (idx, e) in server_endpoint.iter().enumerate() {
            if local_server(idx) && e.is_none() {
                return Err(firesim_core::SimError::topology(format!(
                    "server {:?} was never mapped to a simulation agent",
                    self.servers[idx].name
                )));
            }
        }

        // --- Instantiate switches with routes. ---
        // Port layout: ports 0..children are downlinks (in child order);
        // the uplink, if any, is the last port.
        let mut switch_agents: Vec<Option<AgentId>> = Vec::with_capacity(self.switches.len());
        let mut switch_stats = Vec::with_capacity(self.switches.len());
        let mut switch_controls = Vec::with_capacity(self.switches.len());
        for (sidx, sw) in self.switches.iter().enumerate() {
            if !local_switch(sidx) {
                switch_agents.push(None);
                continue;
            }
            let has_uplink = sw.parent.is_some();
            let ports = sw.children.len() + usize::from(has_uplink);
            let mut cfg = SwitchConfig::new(ports.max(2))
                .switching_latency(config.switching_latency)
                .output_buffer_bytes(config.switch_buffer_bytes);
            if sidx == root.0 {
                if let Some(bucket) = config.root_bandwidth_bucket {
                    cfg = cfg.sample_bandwidth(bucket);
                }
            }
            let mut switch = Switch::new(sw.name.clone(), cfg);
            // Downlink routes: MACs in each child's subtree.
            for (port, child) in sw.children.iter().enumerate() {
                let macs = match child {
                    NodeRef::Server(s) => vec![MacAddr::from_node_index(s.0 as u64)],
                    NodeRef::Switch(s) => self.subtree_macs(*s),
                };
                for mac in macs {
                    switch.add_route(mac, port);
                }
            }
            // Everything else goes out the uplink.
            if has_uplink {
                let local = self.subtree_macs(SwitchId(sidx));
                let uplink = sw.children.len();
                for idx in 0..self.servers.len() {
                    let mac = MacAddr::from_node_index(idx as u64);
                    if !local.contains(&mac) {
                        switch.add_route(mac, uplink);
                    }
                }
            }
            switch_stats.push((sw.name.clone(), switch.stats_handle()));
            switch_controls.push((sw.name.clone(), switch.pressure_handle()));
            switch_agents.push(Some(engine.add_agent(Box::new(switch))));
        }

        // --- Wire links. ---
        // Every tree edge carries two directed links (down and up). When
        // both endpoints live on this shard they get ordinary engine
        // links; when exactly one does, the local half becomes a boundary
        // port: the paper's token protocol needs the *receiving* side to
        // model the full link latency (its input link is pre-seeded with
        // `latency` empty tokens), while the sending side's stub link is
        // drained of its seed so it adds no latency of its own — the
        // cross-process hop is therefore latency-neutral and the edge
        // behaves exactly like its monolithic counterpart.
        let mut boundaries = ShardBoundaries::default();
        for (sidx, sw) in self.switches.iter().enumerate() {
            for (port, child) in sw.children.iter().enumerate() {
                let child_end: Option<(AgentId, usize)> = match child {
                    NodeRef::Server(s) => server_endpoint[s.0],
                    NodeRef::Switch(s) => {
                        // The child's uplink port is its last port.
                        switch_agents[s.0].map(|a| (a, self.switches[s.0].children.len()))
                    }
                };
                match (switch_agents[sidx], child_end) {
                    (Some(parent), Some((child_agent, child_port))) => {
                        engine.connect(
                            parent,
                            port,
                            child_agent,
                            child_port,
                            config.link_latency,
                        )?;
                        engine.connect(
                            child_agent,
                            child_port,
                            parent,
                            port,
                            config.link_latency,
                        )?;
                    }
                    (Some(parent), None) => {
                        // Child lives on a peer shard: ship our downlink
                        // windows out, accept uplink windows in.
                        let peer = shard.map_or(0, |(plan, _)| node_shard(plan, child));
                        let out =
                            engine.connect_external_output(parent, port, config.link_latency)?;
                        boundaries
                            .outputs
                            .push((link_id(sidx, port, true), peer, out));
                        let inp =
                            engine.connect_external_input(parent, port, config.link_latency)?;
                        boundaries
                            .inputs
                            .push((link_id(sidx, port, false), peer, inp));
                    }
                    (None, Some((child_agent, child_port))) => {
                        let peer = shard.map_or(0, |(plan, _)| {
                            node_shard(plan, &NodeRef::Switch(SwitchId(sidx)))
                        });
                        let inp = engine.connect_external_input(
                            child_agent,
                            child_port,
                            config.link_latency,
                        )?;
                        boundaries
                            .inputs
                            .push((link_id(sidx, port, true), peer, inp));
                        let out = engine.connect_external_output(
                            child_agent,
                            child_port,
                            config.link_latency,
                        )?;
                        boundaries
                            .outputs
                            .push((link_id(sidx, port, false), peer, out));
                    }
                    (None, None) => {} // Entirely a peer shard's edge.
                }
            }
        }

        // --- Deployment plan for the equivalent EC2 fleet. ---
        let tor_count = self
            .switches
            .iter()
            .filter(|s| s.children.iter().any(|c| matches!(c, NodeRef::Server(_))))
            .count();
        let plan = DeploymentPlan::new(PlanRequest {
            nodes: self.servers.len(),
            tor_switches: tor_count,
            upper_switches: self.switches.len() - tor_count,
            supernode: config.supernode,
        });

        Ok(Simulation {
            engine,
            servers,
            switch_stats,
            switch_controls,
            plan,
            boundaries,
        })
    }
}

impl Simulation {
    /// Deployed servers, in topology order (index = MAC node index).
    pub fn servers(&self) -> &[ServerInfo] {
        &self.servers
    }

    /// Per-switch statistics handles, `(name, stats)`.
    pub fn switch_stats(&self) -> &[(String, Arc<Mutex<SwitchStats>>)] {
        &self.switch_stats
    }

    /// The EC2 deployment plan for this topology.
    pub fn plan(&self) -> &DeploymentPlan {
        &self.plan
    }

    /// Direct access to the engine (advanced use).
    pub fn engine_mut(&mut self) -> &mut Engine<Flit> {
        &mut self.engine
    }

    /// Takes ownership of the open boundary ports of a sharded build, for
    /// a [`RoundExchange`](firesim_core::RoundExchange) to drain and feed
    /// over a [`TokenTransport`](firesim_platform::TokenTransport). Empty
    /// for monolithic builds; empties the simulation's copy when called.
    pub fn take_boundaries(&mut self) -> ShardBoundaries {
        std::mem::take(&mut self.boundaries)
    }

    /// Enables sharded metrics collection and per-agent profiling on the
    /// engine. Idempotent; returns the shared registry.
    pub fn enable_metrics(&mut self) -> Arc<MetricsRegistry> {
        self.engine.enable_metrics()
    }

    /// Enables span tracing (engine windows, barrier waits, supervisor
    /// bursts). Idempotent; returns the shared tracer, whose
    /// [`SpanTracer::write_chrome_trace`] produces a Perfetto-loadable
    /// trace file.
    pub fn enable_tracing(&mut self) -> Arc<SpanTracer> {
        self.engine.enable_tracing()
    }

    /// Collects a [`RunReport`](crate::report::RunReport) at the current
    /// quiescent boundary. `wall` is the host time of the run(s) being
    /// reported (e.g. [`RunSummary::wall`] or
    /// [`SupervisedRun::wall`](crate::supervisor::SupervisedRun)).
    pub fn run_report(&self, wall: std::time::Duration) -> crate::report::RunReport {
        crate::report::RunReport::collect(&self.engine, wall)
    }

    /// Runs until every blade reports done, or `max` target cycles.
    ///
    /// Not meaningful for a sharded build: "done" is a *local* property,
    /// and shards finishing at different cycles would break the token
    /// protocol. Partitioned runs use [`run_for`](Simulation::run_for)
    /// with a cycle count agreed by all workers.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (broken channels, unwired ports).
    pub fn run_until_done(&mut self, max: Cycle) -> SimResult<RunSummary> {
        self.engine.run_until_done(max)
    }

    /// Runs exactly `cycles` target cycles (rounded up to windows).
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn run_for(&mut self, cycles: Cycle) -> SimResult<RunSummary> {
        self.engine.run_for(cycles)
    }

    /// Current target time of the deployed simulation.
    pub fn now(&self) -> Cycle {
        self.engine.now()
    }

    /// True when every simulated agent reports itself done (all blades
    /// powered off; switches are always done). See
    /// [`firesim_core::Engine::all_done`].
    pub fn all_done(&self) -> bool {
        self.engine.all_done()
    }

    /// Takes a snapshot of every agent's state and all in-flight link
    /// tokens at the current (quiescent) window boundary.
    ///
    /// # Errors
    ///
    /// Returns [`firesim_core::SimError::Checkpoint`] when an agent in the
    /// topology does not support checkpointing.
    pub fn checkpoint(&mut self) -> SimResult<EngineCheckpoint<Flit>> {
        self.engine.checkpoint()
    }

    /// Restores a checkpoint taken from an identically built simulation.
    ///
    /// # Errors
    ///
    /// Returns [`firesim_core::SimError::Checkpoint`] on any topology or
    /// snapshot mismatch.
    pub fn restore(&mut self, cp: &EngineCheckpoint<Flit>) -> SimResult<()> {
        self.engine.restore(cp)
    }

    /// Restores this deployment's agents by *name* from a checkpoint that
    /// may cover a superset of them — the repartitioning path: a merged
    /// full-topology checkpoint (see
    /// [`EngineCheckpoint::merge`](firesim_core::EngineCheckpoint::merge))
    /// restores into a shard of **any** partitioning of the same topology.
    ///
    /// # Errors
    ///
    /// As for [`Engine::restore_by_name`](firesim_core::Engine::restore_by_name).
    pub fn restore_by_name(&mut self, cp: &EngineCheckpoint<Flit>) -> SimResult<()> {
        self.engine.restore_by_name(cp)
    }

    /// Installs a fault plan; faults fire during subsequent runs.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> &mut Self {
        self.engine.set_fault_plan(plan);
        self
    }

    /// Applies a compiled chaos scenario to this (possibly sharded)
    /// deployment: the scenario's link effects for *locally deployed*
    /// agents are merged into the engine's fault plan, and its pressure
    /// windows are installed on the local switches they address. Every
    /// shard of a partitioned run applies the same compiled scenario and
    /// picks up exactly its own share, so the union reproduces the
    /// monolithic behaviour bit-for-bit.
    ///
    /// Because all scenario effects are pure functions of the target
    /// cycle, re-applying the same scenario to a rebuilt simulation before
    /// restoring an `FSCKPT01` checkpoint resumes mid-scenario correctly.
    ///
    /// # Errors
    ///
    /// Returns [`firesim_core::SimError::Scenario`] when a pressure window
    /// addresses a switch that exists in no shard's topology. (Link-effect
    /// targets were already validated during
    /// [`compile`](firesim_core::Scenario::compile).)
    pub fn apply_scenario(&mut self, scenario: &CompiledScenario) -> SimResult<()> {
        let local: std::collections::BTreeSet<String> =
            self.engine.agent_names().into_iter().collect();
        let plan = scenario.fault_plan(|name| local.contains(name));
        if plan.has_effects() {
            self.engine.merge_fault_plan(&plan);
        }
        for name in scenario.pressured_switches() {
            let windows = scenario.pressure_for(name);
            if let Some((_, control)) = self.switch_controls.iter().find(|(n, _)| n == name) {
                control.lock().extend(windows);
            } else if !local.contains(name) {
                // A remote shard owns this switch (it will install the
                // windows itself); only a name matching *no* agent at all
                // is an error, and compile-time validation already caught
                // that, so nothing to do here.
            } else {
                return Err(firesim_core::SimError::scenario(format!(
                    "pressure target {name:?} is a local agent but not a switch"
                )));
            }
        }
        Ok(())
    }

    /// The recovery timeline accumulated by an applied scenario's watched
    /// links, if any (see
    /// [`RecoveryTimeline`](firesim_core::RecoveryTimeline)).
    pub fn fault_timeline(&self) -> Option<firesim_core::RecoveryTimeline> {
        self.engine.fault_timeline()
    }

    /// Provenance of injected faults that have fired so far.
    pub fn fault_records(&self) -> Vec<FaultRecord> {
        self.engine.fault_records()
    }

    /// A handle that aborts an in-flight run (watchdog, deadline).
    pub fn abort_handle(&self) -> AbortHandle {
        self.engine.abort_handle()
    }

    /// A lock-free progress view over all deployed agents, for watchdogs.
    pub fn progress_probe(&mut self) -> ProgressProbe {
        self.engine.progress_probe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::BladeSpec;
    use firesim_blade::programs;

    /// End-to-end: ping across two ToR switches and a root switch; the
    /// measured RTT reflects 4 links each way plus 2 switch traversals...
    /// i.e. the Fig 5 "cross-rack" structure at small scale.
    #[test]
    fn ping_across_three_switch_hops() {
        let count = 2;
        let mut topo = Topology::new();
        let root = topo.add_switch("root");
        let tor0 = topo.add_switch("tor0");
        let tor1 = topo.add_switch("tor1");
        topo.add_downlinks(root, [tor0, tor1]).unwrap();
        let sender = topo.add_server(
            "sender",
            BladeSpec::rtl_single_core(programs::ping_sender(
                MacAddr::from_node_index(0),
                MacAddr::from_node_index(1),
                count,
                26,
                10_000,
            )),
        );
        let responder = topo.add_server(
            "responder",
            BladeSpec::rtl_single_core(programs::echo_responder(count)),
        );
        topo.add_downlink(tor0, sender).unwrap();
        topo.add_downlink(tor1, responder).unwrap();

        let mut sim = topo
            .build(SimConfig {
                link_latency: Cycle::new(400),
                ..SimConfig::default()
            })
            .unwrap();
        assert_eq!(sim.servers().len(), 2);
        assert_eq!(sim.plan().request.nodes, 2);
        sim.run_until_done(Cycle::new(20_000_000)).unwrap();

        let probe = sim.servers()[0].probe.as_ref().unwrap();
        let p = probe.lock();
        assert_eq!(p.exit_code, Some(0));
        let rtt = u64::from_le_bytes(p.mailbox[8..16].try_into().unwrap());
        // 8 link crossings (4 out, 4 back) = 3200 cycles, plus 6 switch
        // traversals' latency and software turnaround.
        assert!(rtt > 3200, "rtt {rtt}");
        assert!(rtt < 3200 + 4000, "rtt {rtt}");
        // All three switches forwarded traffic.
        for (name, stats) in sim.switch_stats() {
            assert!(
                stats.lock().frames_forwarded >= 2 * count as u64,
                "switch {name}"
            );
        }
    }

    #[test]
    fn build_rejects_invalid_topology() {
        let topo = Topology::new();
        assert!(topo.build(SimConfig::default()).is_err());
    }

    #[test]
    fn plan_counts_tor_and_upper_switches() {
        let mut topo = Topology::new();
        let root = topo.add_switch("root");
        for x in 0..2 {
            let tor = topo.add_switch(format!("tor{x}"));
            topo.add_downlink(root, tor).unwrap();
            for y in 0..2 {
                let n = topo.add_server(
                    format!("n{x}{y}"),
                    BladeSpec::rtl_single_core(programs::boot_poweroff(1)),
                );
                topo.add_downlink(tor, n).unwrap();
            }
        }
        let sim = topo.build(SimConfig::default()).unwrap();
        let plan = sim.plan();
        assert_eq!(plan.request.nodes, 4);
        assert_eq!(plan.request.tor_switches, 2);
        assert_eq!(plan.request.upper_switches, 1);
    }
}
