//! Checkpoints: snapshotting and restoring an engine at a quiescent
//! boundary, merging shard checkpoints, the `FSCKPT01` byte format and the
//! digests the bit-identity contract is checked with.

use super::agent::AgentSlot;
use super::Engine;
use crate::channel::LinkReceiver;
use crate::error::{SimError, SimResult};
use crate::snapshot::{Snapshot, SnapshotReader, SnapshotWriter};
use crate::time::Cycle;
use crate::token::TokenWindow;

impl<T: Send + 'static> Engine<T> {
    /// Snapshots the complete simulation state — every agent's mutable
    /// state plus all in-flight link tokens — at the current (deterministic)
    /// boundary between runs.
    ///
    /// Between runs each link's queue holds exactly `latency / window`
    /// windows, so the checkpoint captures the same quiescent state the
    /// engine started from, just at a later cycle: restoring it into an
    /// identically built engine and continuing produces bit-identical
    /// results to never having stopped.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Topology`] for unconnected ports and
    /// [`SimError::Checkpoint`] when an agent does not implement
    /// [`Checkpoint`](crate::Checkpoint).
    pub fn checkpoint(&mut self) -> SimResult<EngineCheckpoint<T>>
    where
        T: Clone,
    {
        self.check_wired()?;
        let mut agents = Vec::with_capacity(self.agents.len());
        for slot in &mut self.agents {
            let name = slot.agent.name().to_owned();
            let links = slot
                .inputs
                .iter()
                .map(|rx| {
                    rx.as_ref()
                        .map(LinkReceiver::queue_snapshot)
                        .unwrap_or_default()
                })
                .collect();
            let Some(cp) = slot.agent.as_checkpoint() else {
                return Err(SimError::checkpoint(format!(
                    "agent {name} does not implement Checkpoint"
                )));
            };
            let mut w = SnapshotWriter::new();
            cp.save_state(&mut w)?;
            agents.push(AgentEntry {
                name,
                state: w.into_bytes(),
                links,
            });
        }
        Ok(EngineCheckpoint {
            now: self.now,
            window: self.window,
            agents,
        })
    }

    /// Restores a checkpoint taken from an identically built engine
    /// (same topology, same window, same agent names in the same order),
    /// replacing every agent's state and all in-flight link tokens, and
    /// rewinding/advancing [`Engine::now`] to the checkpoint's cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] when the checkpoint does not match
    /// this engine's topology, an agent snapshot is malformed, or a peer
    /// shard has already fed one of this engine's boundary inputs (every
    /// shard must restore before any shard runs), and
    /// [`SimError::Topology`] for unconnected ports.
    pub fn restore(&mut self, cp: &EngineCheckpoint<T>) -> SimResult<()>
    where
        T: Clone,
    {
        self.check_restorable(cp)?;
        if cp.agents.len() != self.agents.len() {
            return Err(SimError::checkpoint(format!(
                "checkpoint has {} agents, engine has {}",
                cp.agents.len(),
                self.agents.len()
            )));
        }
        for (slot, entry) in self.agents.iter().zip(&cp.agents) {
            if slot.agent.name() != entry.name {
                return Err(SimError::checkpoint(format!(
                    "checkpoint agent {:?} does not match engine agent {:?}",
                    entry.name,
                    slot.agent.name()
                )));
            }
        }
        for (slot, entry) in self.agents.iter_mut().zip(&cp.agents) {
            entry.restore(slot)?;
        }
        self.now = cp.now;
        Ok(())
    }

    /// Restores this engine's agents from a checkpoint that may cover a
    /// **superset** of them, matching by agent name instead of position.
    ///
    /// This is the re-split primitive behind repartitioning: a full
    /// checkpoint (or a merge of per-shard checkpoints, see
    /// [`EngineCheckpoint::merge`]) can be restored into an engine built
    /// for *any* sharding of the same topology — each shard simply picks
    /// its own agents out of the checkpoint by name. It is sound because
    /// an agent's state blob and queued input windows are identical
    /// whatever shard its neighbours live on (the receiving side models
    /// the full link latency), so per-agent checkpoint entries carry no
    /// placement information.
    ///
    /// Every agent in *this* engine must appear in the checkpoint;
    /// checkpoint agents this engine does not host are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] when the windows differ, an
    /// engine agent is missing from the checkpoint, an input-link count
    /// disagrees, an agent snapshot is malformed, or a peer shard has
    /// already fed one of this engine's boundary inputs (every shard must
    /// restore before any shard runs), and [`SimError::Topology`] for
    /// unconnected ports.
    pub fn restore_by_name(&mut self, cp: &EngineCheckpoint<T>) -> SimResult<()>
    where
        T: Clone,
    {
        self.check_restorable(cp)?;
        for slot in &mut self.agents {
            let name = slot.agent.name();
            let entry = cp.agents.iter().find(|e| e.name == name).ok_or_else(|| {
                SimError::checkpoint(format!("checkpoint has no agent named {name:?}"))
            })?;
            entry.restore(slot)?;
        }
        self.now = cp.now;
        Ok(())
    }

    /// What both restores check first: the ports are wired, no peer shard
    /// has fed a boundary input yet, and the windows agree.
    fn check_restorable(&self, cp: &EngineCheckpoint<T>) -> SimResult<()> {
        self.check_wired()?;
        self.check_boundaries_unfed()?;
        if cp.window != self.window {
            return Err(SimError::checkpoint(format!(
                "checkpoint window {} does not match engine window {}",
                cp.window, self.window
            )));
        }
        Ok(())
    }
}

/// A point-in-time snapshot of an [`Engine`]: target time, per-agent state
/// blobs, and every link's in-flight token windows. Produced by
/// [`Engine::checkpoint`], consumed by [`Engine::restore`], and (for
/// `T: Snapshot`) serializable to disk.
pub struct EngineCheckpoint<T> {
    now: Cycle,
    window: u32,
    agents: Vec<AgentEntry<T>>,
}

/// One agent's part of a checkpoint.
struct AgentEntry<T> {
    name: String,
    /// What the agent's [`Checkpoint::save_state`](crate::Checkpoint)
    /// wrote.
    state: Vec<u8>,
    /// Each input link's queued windows, oldest first.
    links: Vec<Vec<TokenWindow<T>>>,
}

impl<T: Clone + Send + 'static> AgentEntry<T> {
    /// Restores `slot`'s agent state and input queues from this entry.
    fn restore(&self, slot: &mut AgentSlot<T>) -> SimResult<()> {
        let name = &self.name;
        if slot.inputs.len() != self.links.len() {
            return Err(SimError::checkpoint(format!(
                "checkpoint agent {name} has {} input links, engine has {}",
                self.links.len(),
                slot.inputs.len()
            )));
        }
        let Some(c) = slot.agent.as_checkpoint() else {
            return Err(SimError::checkpoint(format!(
                "agent {name} does not implement Checkpoint"
            )));
        };
        let mut r = SnapshotReader::new(&self.state);
        c.restore_state(&mut r)?;
        if r.remaining() != 0 {
            return Err(SimError::checkpoint(format!(
                "agent {name} snapshot has {} trailing bytes",
                r.remaining()
            )));
        }
        for (rx, windows) in slot.inputs.iter().zip(&self.links) {
            if let Some(rx) = rx.as_ref() {
                rx.replace_queue(windows.clone());
            }
        }
        Ok(())
    }
}

impl<T: Snapshot> AgentEntry<T> {
    /// The entry's encoding: one agent's section of the file format, and
    /// what its digest hashes.
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_str(&self.name);
        w.put_bytes(&self.state);
        w.put(&self.links);
    }
}

/// Magic + version prefix of the on-disk checkpoint encoding.
const CHECKPOINT_MAGIC: &[u8; 8] = b"FSCKPT01";

impl<T> EngineCheckpoint<T> {
    /// Target cycle at which this checkpoint was taken.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The engine window the checkpoint was taken with.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Names of the checkpointed agents, in registration order.
    pub fn agent_names(&self) -> impl Iterator<Item = &str> {
        self.agents.iter().map(|e| e.name.as_str())
    }

    /// Merges per-shard checkpoints of one partitioned run into a single
    /// full-topology checkpoint.
    ///
    /// Every part must have been taken at the same cycle with the same
    /// window (the partitioned runner checkpoints all shards at a common
    /// run boundary), and no agent may appear in more than one part. The
    /// merged checkpoint lists agents sorted by name, so the result is
    /// independent of shard order and of how the run was partitioned —
    /// restore it anywhere with [`Engine::restore_by_name`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] when `parts` is empty, the cycles
    /// or windows disagree, or an agent name is duplicated across parts.
    pub fn merge(parts: Vec<EngineCheckpoint<T>>) -> SimResult<EngineCheckpoint<T>> {
        let Some(first) = parts.first() else {
            return Err(SimError::checkpoint("cannot merge zero checkpoints"));
        };
        let (now, window) = (first.now, first.window);
        for p in &parts {
            if p.now != now || p.window != window {
                return Err(SimError::checkpoint(format!(
                    "cannot merge checkpoints from different run points: \
                     cycle {} window {} vs cycle {} window {}",
                    p.now.as_u64(),
                    p.window,
                    now.as_u64(),
                    window
                )));
            }
        }
        let mut agents: Vec<AgentEntry<T>> = parts.into_iter().flat_map(|p| p.agents).collect();
        agents.sort_by(|a, b| a.name.cmp(&b.name));
        if let Some(w) = agents.windows(2).find(|w| w[0].name == w[1].name) {
            return Err(SimError::checkpoint(format!(
                "agent {:?} appears in more than one shard checkpoint",
                w[0].name
            )));
        }
        Ok(EngineCheckpoint {
            now,
            window,
            agents,
        })
    }
}

impl<T: Snapshot> EngineCheckpoint<T> {
    /// Serializes the checkpoint to its on-disk byte encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_bytes(CHECKPOINT_MAGIC);
        w.put_u32(self.window);
        w.put(&self.now);
        w.put_usize(self.agents.len());
        for entry in &self.agents {
            entry.save(&mut w);
        }
        w.into_bytes()
    }

    /// Parses a checkpoint from its on-disk byte encoding.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] on bad magic, truncation, or
    /// malformed content.
    pub fn from_bytes(bytes: &[u8]) -> SimResult<Self> {
        let mut r = SnapshotReader::new(bytes);
        let magic = r.get_bytes()?;
        if magic != CHECKPOINT_MAGIC {
            return Err(SimError::checkpoint(
                "not a checkpoint file (bad magic / unsupported version)",
            ));
        }
        let window = r.get_u32()?;
        let now = r.get()?;
        let n = r.get_usize()?;
        let mut agents = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            agents.push(AgentEntry {
                name: r.get_str()?,
                state: r.get_bytes()?.to_vec(),
                links: r.get()?,
            });
        }
        if r.remaining() != 0 {
            return Err(SimError::checkpoint(format!(
                "checkpoint has {} trailing bytes",
                r.remaining()
            )));
        }
        Ok(EngineCheckpoint {
            now,
            window,
            agents,
        })
    }

    /// A stable digest of each agent's complete checkpointed state —
    /// `(name, hash of state blob + in-flight input windows)` — in
    /// registration order.
    ///
    /// Because an agent's input links (and their queued windows) are
    /// identical whether the sending side lives in the same engine or
    /// behind a cross-process boundary, the *union* of per-agent digests
    /// over all shards of a partitioned run equals the digests of a
    /// monolithic run of the same topology: the paper's bit-identical
    /// partitioning invariant, made checkable. Combine with
    /// [`combined_digest`].
    pub fn agent_digests(&self) -> Vec<(String, u64)> {
        self.agents
            .iter()
            .map(|entry| {
                let mut w = SnapshotWriter::new();
                entry.save(&mut w);
                (entry.name.clone(), fnv1a64(&w.into_bytes()))
            })
            .collect()
    }

    /// Writes the checkpoint to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Io`] when the write fails.
    pub fn save_to(&self, path: impl AsRef<std::path::Path>) -> SimResult<()> {
        let path = path.as_ref();
        std::fs::write(path, self.to_bytes())
            .map_err(|e| SimError::io(format!("writing checkpoint {}", path.display()), &e))
    }

    /// Reads a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Io`] when the read fails and
    /// [`SimError::Checkpoint`] when the content is malformed.
    pub fn load_from(path: impl AsRef<std::path::Path>) -> SimResult<Self> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)
            .map_err(|e| SimError::io(format!("reading checkpoint {}", path.display()), &e))?;
        Self::from_bytes(&bytes)
    }
}

/// FNV-1a over a byte slice; the stable hash behind checkpoint digests.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Folds per-agent checkpoint digests (from
/// [`EngineCheckpoint::agent_digests`], possibly gathered from several
/// shards) into one order-independent run digest.
///
/// The pairs are sorted by agent name first, so the result is the same
/// however the topology was partitioned — equal combined digests mean
/// bit-identical per-agent state and in-flight tokens, the acceptance bar
/// the paper sets for distributed runs (§III-B2).
pub fn combined_digest(digests: &[(String, u64)]) -> u64 {
    let mut sorted: Vec<&(String, u64)> = digests.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (name, d) in sorted {
        h = fnv1a64(name.as_bytes()) ^ h.wrapping_mul(0x0000_0100_0000_01b3);
        h ^= *d;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl<T> std::fmt::Debug for EngineCheckpoint<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineCheckpoint")
            .field("now", &self.now)
            .field("window", &self.window)
            .field("agents", &self.agent_names().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A restore file is foreign bytes: a token window in it that covers
    /// zero cycles is a typed error, not a panic in `TokenWindow::new`.
    #[test]
    fn zero_length_window_in_checkpoint_bytes_is_an_error() {
        let mut w = SnapshotWriter::new();
        w.put_bytes(CHECKPOINT_MAGIC);
        w.put_u32(8);
        w.put(&Cycle::ZERO);
        w.put_usize(1);
        w.put_str("blade0");
        w.put_bytes(&[]);
        // One input link holding one empty window of length zero.
        w.put_usize(1);
        w.put_usize(1);
        w.put_u32(0);
        w.put_usize(0);
        let err = EngineCheckpoint::<u64>::from_bytes(&w.into_bytes()).unwrap_err();
        assert!(matches!(err, SimError::Checkpoint { .. }), "{err}");
        assert!(err.to_string().contains("zero cycles"), "{err}");
    }
}
