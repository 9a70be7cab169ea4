//! Mid-run engine snapshots: capture, serialize, restore, resume.
//!
//! A snapshot records every piece of *mutable* engine state — the
//! future-event list (with its original sequence numbers), the RNG
//! stream position, per-node MAC/provider/traffic state, in-flight
//! transmission metadata, the medium's airtime history, and the
//! built-in collector state (metrics, trace, timeline) — and nothing
//! derived: path loss, sync candidacy, airtimes, forwarder maps and
//! caches are all pure functions of the scenario and are recomputed by
//! `Engine::new` on restore. That split is what makes the contract
//! cheap to state and test: *run-to-event-K, snapshot, restore,
//! run-to-end is byte-identical to an uninterrupted run*, because a
//! restored engine is in exactly the state the uninterrupted engine
//! passes through after its K-th event.
//!
//! Snapshots serialize with the in-tree `nomc-json` codec (exact
//! `u64`/`f64` round-trips; see `crates/json`). Restoring is total:
//! corrupt or mismatched payloads produce a typed [`SnapshotError`],
//! never a panic — every index a resumed run would trust (node ids in
//! queued events, link indices in transmission metadata, received-power
//! vector lengths, queue sequence numbers) is bounds-checked here
//! first.
//!
//! Sharded runs snapshot as one [`ShardedSnapshot`]: the checkpoint
//! executor runs the plan's components *sequentially* (rank order) on
//! the same engines the threaded path uses, with no relay attached, so
//! the snapshot holds per-rank engine state or results and nothing
//! else. At completion, if the externals then attached or the
//! scenario's recorders consume any note category, each rank's
//! boundary-note stream is rebuilt by re-running that rank from its
//! bootstrap (checked against its recorded result) and replayed
//! through the same canonical `(time, rank, seq)` merge. Shards are
//! fully independent — the partition unions everything that could
//! interact — so sequential execution is behaviorally identical to the
//! lockstep-windowed thread pool, and the merged result, trace,
//! timeline, and observer stream are byte-identical to
//! [`crate::engine::run_sharded`].

use super::node::{Node, Provider, RxAttempt};
use super::shard;
use super::shard::merge::{merge_logs, Note, RelayObserver, ShipFlags};
use super::shard::sync::split_budget;
use super::tx::TxMeta;
use super::Engine;
use crate::events::BucketQueue;
use crate::events::{Event, EventQueue, NodeId, TxId};
use crate::medium::Transmission;
use crate::metrics::{ErrorRecord, LinkMetrics, SimResult, TimelineRecord, TxOutcome};
use crate::rng::Xoshiro256StarStar;
use crate::runtime::dispatch::LegEnd;
use crate::runtime::observer::SimObserver;
use crate::scenario::Scenario;
use crate::trace::TraceRecord;
use nomc_core::AdjustorSnapshot;
use nomc_json::{Error, FromJson, Json, ToJson};
use nomc_mac::{MacEngine, MacSnapshot, MacStats};
use nomc_units::{Dbm, Megahertz, SimDuration, SimTime};
use std::fmt;

/// Version stamped into every serialized snapshot; bumped whenever the
/// payload layout changes incompatibly. A mismatch is a typed
/// [`SnapshotError::VersionSkew`], never a silent misread.
pub(crate) const SNAPSHOT_VERSION: u64 = 2;

/// Why a snapshot could not be decoded or re-attached to a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The payload is not valid snapshot JSON, or an internal invariant
    /// (index bounds, sequence numbers, state-shape agreement with the
    /// scenario) does not hold.
    Malformed(String),
    /// The payload was written by an incompatible snapshot format
    /// version.
    VersionSkew {
        /// Version found in the payload.
        found: u64,
        /// Version this build reads and writes.
        expected: u64,
    },
    /// The snapshot belongs to a different scenario (fingerprint over
    /// the canonical scenario JSON differs).
    ScenarioMismatch {
        /// Fingerprint recorded in the snapshot.
        found: u64,
        /// Fingerprint of the scenario being resumed.
        expected: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Malformed(msg) => write!(f, "malformed snapshot: {msg}"),
            SnapshotError::VersionSkew { found, expected } => {
                write!(f, "snapshot version {found} incompatible with {expected}")
            }
            SnapshotError::ScenarioMismatch { found, expected } => write!(
                f,
                "snapshot fingerprint {found:#018x} does not match scenario {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

fn malformed(e: Error) -> SnapshotError {
    SnapshotError::Malformed(e.to_string())
}

/// FNV-1a over a byte string (the same hash discipline the sweep
/// journal uses, computed independently so `nomc-sim` stays
/// dependency-free).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Fingerprint of a scenario: FNV-1a over its canonical JSON (which
/// includes the seed and the recorder flags), so a snapshot can only be
/// resumed against the exact configuration that produced it.
pub(crate) fn scenario_fingerprint(sc: &Scenario) -> u64 {
    fnv1a(nomc_json::to_string(sc).as_bytes())
}

// ---------------------------------------------------------------------
// JSON codecs for the event-queue payloads.
// ---------------------------------------------------------------------

impl ToJson for Event {
    fn to_json(&self) -> Json {
        let one = |tag: &str, n: NodeId| Json::object([(tag, n.to_json())]);
        let two = |tag: &str, n: NodeId, id: TxId| Json::object([(tag, (n, id).to_json())]);
        match *self {
            Event::PacketReady(n) => one("PacketReady", n),
            Event::BackoffExpired(n) => one("BackoffExpired", n),
            Event::CcaDone(n) => one("CcaDone", n),
            Event::TxStart(n) => one("TxStart", n),
            Event::TxEnd(n, id) => two("TxEnd", n, id),
            Event::SyncDone(n, id) => two("SyncDone", n, id),
            Event::PowerSense(n) => one("PowerSense", n),
            Event::ProviderTick(n) => one("ProviderTick", n),
            Event::AckStart(n, id) => two("AckStart", n, id),
            Event::AckTimeout(n, id) => two("AckTimeout", n, id),
            Event::NodeDown(n) => one("NodeDown", n),
            Event::NodeUp(n) => one("NodeUp", n),
            Event::CcaStuckStart(n) => one("CcaStuckStart", n),
            Event::CcaStuckEnd(n) => one("CcaStuckEnd", n),
        }
    }
}

impl FromJson for Event {
    fn from_json(value: &Json) -> Result<Self, Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| Error::new("expected object for Event"))?;
        let (tag, body) = obj
            .iter()
            .next()
            .ok_or_else(|| Error::new("empty Event object"))?;
        let one = || NodeId::from_json(body);
        let two = || <(NodeId, TxId)>::from_json(body);
        match tag {
            "PacketReady" => Ok(Event::PacketReady(one()?)),
            "BackoffExpired" => Ok(Event::BackoffExpired(one()?)),
            "CcaDone" => Ok(Event::CcaDone(one()?)),
            "TxStart" => Ok(Event::TxStart(one()?)),
            "TxEnd" => two().map(|(n, id)| Event::TxEnd(n, id)),
            "SyncDone" => two().map(|(n, id)| Event::SyncDone(n, id)),
            "PowerSense" => Ok(Event::PowerSense(one()?)),
            "ProviderTick" => Ok(Event::ProviderTick(one()?)),
            "AckStart" => two().map(|(n, id)| Event::AckStart(n, id)),
            "AckTimeout" => two().map(|(n, id)| Event::AckTimeout(n, id)),
            "NodeDown" => Ok(Event::NodeDown(one()?)),
            "NodeUp" => Ok(Event::NodeUp(one()?)),
            "CcaStuckStart" => Ok(Event::CcaStuckStart(one()?)),
            "CcaStuckEnd" => Ok(Event::CcaStuckEnd(one()?)),
            other => Err(Error::new(format!("unknown Event tag `{other}`"))),
        }
    }
}

/// The node a queue event is addressed to. Exhaustive by design — a new
/// `Event` variant must decide here how restore-time bounds checks see
/// it.
fn event_node(ev: &Event) -> NodeId {
    match *ev {
        Event::PacketReady(n)
        | Event::BackoffExpired(n)
        | Event::CcaDone(n)
        | Event::TxStart(n)
        | Event::TxEnd(n, _)
        | Event::SyncDone(n, _)
        | Event::PowerSense(n)
        | Event::ProviderTick(n)
        | Event::AckStart(n, _)
        | Event::AckTimeout(n, _)
        | Event::NodeDown(n)
        | Event::NodeUp(n)
        | Event::CcaStuckStart(n)
        | Event::CcaStuckEnd(n) => n,
    }
}

impl ToJson for TxOutcome {
    fn to_json(&self) -> Json {
        let s = match self {
            TxOutcome::Received => "received",
            TxOutcome::CrcFailed => "crc_failed",
            TxOutcome::SyncMissed => "sync_missed",
            TxOutcome::ReceiverBusy => "receiver_busy",
        };
        ToJson::to_json(s)
    }
}

impl FromJson for TxOutcome {
    fn from_json(value: &Json) -> Result<Self, Error> {
        match value
            .as_str()
            .ok_or_else(|| Error::new("expected string for TxOutcome"))?
        {
            "received" => Ok(TxOutcome::Received),
            "crc_failed" => Ok(TxOutcome::CrcFailed),
            "sync_missed" => Ok(TxOutcome::SyncMissed),
            "receiver_busy" => Ok(TxOutcome::ReceiverBusy),
            other => Err(Error::new(format!("unknown TxOutcome `{other}`"))),
        }
    }
}

nomc_json::json_struct!(ErrorRecord {
    error_bits: u32,
    total_bits: u32,
    positions: Option<Vec<u32>>,
});

nomc_json::json_struct!(TimelineRecord {
    link: usize,
    start: SimTime,
    end: SimTime,
    outcome: TxOutcome,
    collided: bool,
});

nomc_json::json_struct!(LinkMetrics {
    network: usize,
    link_in_network: usize,
    sent: u64,
    forced_sent: u64,
    received: u64,
    sync_missed: u64,
    receiver_busy: u64,
    crc_failed: u64,
    collided: u64,
    collided_received: u64,
    retransmissions: u64,
    abandoned: u64,
    duplicates: u64,
    error_records: Vec<ErrorRecord>,
});

nomc_json::json_struct!(SimResult {
    measured: SimDuration,
    links: Vec<LinkMetrics>,
    network_frequencies: Vec<Megahertz>,
    mac_stats: Vec<MacStats>,
    tx_powers: Vec<Dbm>,
    final_thresholds: Vec<Dbm>,
    timeline: Vec<TimelineRecord>,
    trace: Vec<TraceRecord>,
    events: u64,
});

nomc_json::json_struct!(Transmission {
    id: TxId,
    tx_node: NodeId,
    link: usize,
    frequency: Megahertz,
    start: SimTime,
    mpdu_start: SimTime,
    end: SimTime,
    seq: u32,
    forced: bool,
    rx_power: Vec<Dbm>,
});

nomc_json::json_struct!(TxMeta {
    measured: bool,
    link: usize,
    intended_rx: NodeId,
    intended_busy: bool,
    outcome: Option<TxOutcome>,
    duplicate: bool,
    error_record: Option<ErrorRecord>,
});

// ---------------------------------------------------------------------
// Serial engine snapshot.
// ---------------------------------------------------------------------

/// The xoshiro256** stream position, serialized as a 4-word array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RngState(pub(crate) [u64; 4]);

impl ToJson for RngState {
    fn to_json(&self) -> Json {
        Json::Arr(self.0.iter().map(ToJson::to_json).collect())
    }
}

impl FromJson for RngState {
    fn from_json(value: &Json) -> Result<Self, Error> {
        let words = <Vec<u64>>::from_json(value)?;
        let s: [u64; 4] = words
            .try_into()
            .map_err(|_| Error::new("RngState: expected 4 words"))?;
        Ok(RngState(s))
    }
}

/// One CCA-threshold provider's mutable state.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ProviderState {
    /// A fixed threshold is stateless; nothing to carry.
    Fixed,
    /// The DCN adjustor's learned state.
    Dcn(AdjustorSnapshot),
}

impl ToJson for ProviderState {
    fn to_json(&self) -> Json {
        match self {
            ProviderState::Fixed => Json::object([("fixed", Json::Null)]),
            ProviderState::Dcn(s) => Json::object([("dcn", s.to_json())]),
        }
    }
}

impl FromJson for ProviderState {
    fn from_json(value: &Json) -> Result<Self, Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| Error::new("expected object for ProviderState"))?;
        let (tag, body) = obj
            .iter()
            .next()
            .ok_or_else(|| Error::new("empty ProviderState object"))?;
        match tag {
            "fixed" => Ok(ProviderState::Fixed),
            "dcn" => Ok(ProviderState::Dcn(AdjustorSnapshot::from_json(body)?)),
            other => Err(Error::new(format!("unknown ProviderState tag `{other}`"))),
        }
    }
}

/// One node's mutable state (everything [`Engine::new`] does not fully
/// determine from the scenario).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NodeState {
    pub(crate) stats: MacStats,
    pub(crate) rx: Option<(TxId, bool)>,
    pub(crate) transmitting: bool,
    pub(crate) next_interval_at: SimTime,
    pub(crate) forced_next: bool,
    pub(crate) seq: u32,
    pub(crate) awaiting_ack: Option<TxId>,
    pub(crate) last_tx: TxId,
    pub(crate) last_rx_seq: Option<u32>,
    pub(crate) credits: u64,
    pub(crate) wants_packet: bool,
    pub(crate) down: bool,
    pub(crate) cca_stuck: bool,
    pub(crate) stale_before_seq: u64,
    pub(crate) mac: Option<MacSnapshot>,
    pub(crate) provider: Option<ProviderState>,
}

nomc_json::json_struct!(NodeState {
    stats: MacStats,
    rx: Option<(TxId, bool)>,
    transmitting: bool,
    next_interval_at: SimTime,
    forced_next: bool,
    seq: u32,
    awaiting_ack: Option<TxId>,
    last_tx: TxId,
    last_rx_seq: Option<u32>,
    credits: u64,
    wants_packet: bool,
    down: bool,
    cca_stuck: bool,
    stale_before_seq: u64,
    mac: Option<MacSnapshot>,
    provider: Option<ProviderState>,
});

/// The medium's airtime history: slab entries in insertion order, each
/// flagged live (still indexed by its channel) or retained-only, plus
/// the running maximum airtime the prune horizon derives from.
#[derive(Debug)]
pub(crate) struct MediumState {
    pub(crate) history: Vec<(Transmission, bool)>,
    pub(crate) max_duration: SimDuration,
}

nomc_json::json_struct!(MediumState {
    history: Vec<(Transmission, bool)>,
    max_duration: SimDuration,
});

/// The complete mutable state of a serial `Engine`, detached from the
/// scenario that (re)constructs everything else.
#[derive(Debug)]
pub struct EngineSnapshot {
    pub(crate) fingerprint: u64,
    pub(crate) now: SimTime,
    pub(crate) events: u64,
    pub(crate) max_events: u64,
    pub(crate) exhausted: bool,
    pub(crate) rng: RngState,
    pub(crate) next_tx_id: TxId,
    pub(crate) queue: Vec<(SimTime, u64, Event)>,
    pub(crate) next_seq: u64,
    pub(crate) held: Option<(SimTime, u64, Event)>,
    pub(crate) nodes: Vec<NodeState>,
    pub(crate) tx_meta: Vec<(TxId, TxMeta)>,
    pub(crate) acks: Vec<(TxId, TxId, NodeId)>,
    pub(crate) medium: MediumState,
    pub(crate) metrics: Vec<LinkMetrics>,
    pub(crate) trace: Option<Vec<TraceRecord>>,
    pub(crate) timeline: Option<Vec<TimelineRecord>>,
}

nomc_json::json_struct!(EngineSnapshot {
    fingerprint: u64,
    now: SimTime,
    events: u64,
    max_events: u64,
    exhausted: bool,
    rng: RngState,
    next_tx_id: TxId,
    queue: Vec<(SimTime, u64, Event)>,
    next_seq: u64,
    held: Option<(SimTime, u64, Event)>,
    nodes: Vec<NodeState>,
    tx_meta: Vec<(TxId, TxMeta)>,
    acks: Vec<(TxId, TxId, NodeId)>,
    medium: MediumState,
    metrics: Vec<LinkMetrics>,
    trace: Option<Vec<TraceRecord>>,
    timeline: Option<Vec<TimelineRecord>>,
});

fn node_state(node: &Node) -> NodeState {
    NodeState {
        stats: node.stats,
        rx: node.rx.map(|a| (a.tx_id, a.synced)),
        transmitting: node.transmitting,
        next_interval_at: node.next_interval_at,
        forced_next: node.forced_next,
        seq: node.seq,
        awaiting_ack: node.awaiting_ack,
        last_tx: node.last_tx,
        last_rx_seq: node.last_rx_seq,
        credits: node.credits,
        wants_packet: node.wants_packet,
        down: node.down,
        cca_stuck: node.cca_stuck,
        stale_before_seq: node.stale_before_seq,
        mac: node.mac.as_ref().map(MacEngine::snapshot),
        provider: node.provider.as_ref().map(|p| match p {
            Provider::Fixed(_) => ProviderState::Fixed,
            Provider::Dcn(adj) => ProviderState::Dcn(adj.save()),
        }),
    }
}

/// Restores one node's mutable state onto a freshly constructed node.
/// Shape disagreements (MAC/provider presence, out-of-range backoff
/// exponents that would overflow the backoff draw) are typed errors.
fn restore_node(node: &mut Node, st: &NodeState, idx: usize) -> Result<(), SnapshotError> {
    match (&mut node.mac, &st.mac) {
        (Some(mac), Some(snap)) => {
            let params = *mac.params();
            if snap.be < params.min_be || snap.be > params.max_be {
                return Err(SnapshotError::Malformed(format!(
                    "node {idx}: backoff exponent {} outside [{}, {}]",
                    snap.be, params.min_be, params.max_be
                )));
            }
            *mac = MacEngine::restore(params, *snap);
        }
        (None, None) => {}
        (mac, snap) => {
            return Err(SnapshotError::Malformed(format!(
                "node {idx}: MAC presence mismatch (engine {}, snapshot {})",
                mac.is_some(),
                snap.is_some()
            )));
        }
    }
    match (&mut node.provider, &st.provider) {
        (Some(Provider::Fixed(_)), Some(ProviderState::Fixed)) => {}
        (Some(Provider::Dcn(adj)), Some(ProviderState::Dcn(snap))) => adj.load(snap.clone()),
        (None, None) => {}
        _ => {
            return Err(SnapshotError::Malformed(format!(
                "node {idx}: provider kind mismatch"
            )));
        }
    }
    node.stats = st.stats;
    node.rx = st.rx.map(|(tx_id, synced)| RxAttempt { tx_id, synced });
    node.transmitting = st.transmitting;
    node.next_interval_at = st.next_interval_at;
    node.forced_next = st.forced_next;
    node.seq = st.seq;
    node.awaiting_ack = st.awaiting_ack;
    node.last_tx = st.last_tx;
    node.last_rx_seq = st.last_rx_seq;
    node.credits = st.credits;
    node.wants_packet = st.wants_packet;
    node.down = st.down;
    node.cca_stuck = st.cca_stuck;
    node.stale_before_seq = st.stale_before_seq;
    Ok(())
}

impl<'a, 'o, 'e> Engine<'a, 'o, 'e> {
    /// Captures the complete mutable state of the engine. Pure read —
    /// capturing never perturbs the run.
    pub(crate) fn capture(&self) -> EngineSnapshot {
        let (history, max_duration) = self.medium.history();
        EngineSnapshot {
            fingerprint: scenario_fingerprint(self.sc),
            now: self.now,
            events: self.events,
            max_events: self.max_events,
            exhausted: self.exhausted,
            rng: RngState(self.rng.state()),
            next_tx_id: self.next_tx_id,
            queue: self.queue.entries(),
            next_seq: self.queue.next_seq(),
            held: self.held,
            nodes: self.nodes.iter().map(node_state).collect(),
            tx_meta: self
                .tx_meta
                .iter()
                .map(|(&id, m)| {
                    (
                        id,
                        TxMeta {
                            measured: m.measured,
                            link: m.link,
                            intended_rx: m.intended_rx,
                            intended_busy: m.intended_busy,
                            outcome: m.outcome,
                            duplicate: m.duplicate,
                            error_record: m.error_record.clone(),
                        },
                    )
                })
                .collect(),
            acks: self
                .acks
                .iter()
                .map(|(&ack, &(parent, sender))| (ack, parent, sender))
                .collect(),
            medium: MediumState {
                history,
                max_duration,
            },
            metrics: self.obs.metrics.links().to_vec(),
            trace: self.obs.trace.as_ref().map(|t| t.records().to_vec()),
            timeline: self.obs.timeline.as_ref().map(|t| t.records().to_vec()),
        }
    }

    /// Rebuilds an engine mid-run: constructs a fresh engine from the
    /// scenario (recomputing all derived state), then overwrites every
    /// mutable field from the snapshot. Total — corrupt payloads yield
    /// typed errors, never panics, which is what lets checkpoint
    /// supervisors fall back to a clean re-run.
    pub(crate) fn restore_from(
        sc: &'a Scenario,
        externals: &'o mut [&'e mut dyn SimObserver],
        snap: &EngineSnapshot,
    ) -> Result<Self, SnapshotError> {
        let expected = scenario_fingerprint(sc);
        if snap.fingerprint != expected {
            return Err(SnapshotError::ScenarioMismatch {
                found: snap.fingerprint,
                expected,
            });
        }
        if snap.rng.0 == [0u64; 4] {
            return Err(SnapshotError::Malformed(
                "all-zero RNG state (xoshiro256** has no such stream)".into(),
            ));
        }
        let mut engine = Engine::new(sc, externals);
        let n = engine.nodes.len();
        let links = engine.link_rx.len();
        if snap.nodes.len() != n {
            return Err(SnapshotError::Malformed(format!(
                "snapshot has {} nodes, scenario has {n}",
                snap.nodes.len()
            )));
        }
        if snap.metrics.len() != links {
            return Err(SnapshotError::Malformed(format!(
                "snapshot has {} link counters, scenario has {links}",
                snap.metrics.len()
            )));
        }
        // Bounds checks on every index a resumed run would trust.
        for &(_, seq, ref ev) in snap.queue.iter().chain(snap.held.iter()) {
            if seq >= snap.next_seq {
                return Err(SnapshotError::Malformed(format!(
                    "queued seq {seq} >= next_seq {}",
                    snap.next_seq
                )));
            }
            let node = event_node(ev);
            if node >= n {
                return Err(SnapshotError::Malformed(format!(
                    "queued event addresses node {node} of {n}"
                )));
            }
        }
        for (id, meta) in &snap.tx_meta {
            if meta.link >= links || meta.intended_rx >= n {
                return Err(SnapshotError::Malformed(format!(
                    "tx {id}: link {} / receiver {} out of range",
                    meta.link, meta.intended_rx
                )));
            }
        }
        for &(ack, _, sender) in &snap.acks {
            if sender >= n {
                return Err(SnapshotError::Malformed(format!(
                    "ack {ack}: sender {sender} out of range"
                )));
            }
        }
        for (i, (tx, _)) in snap.medium.history.iter().enumerate() {
            if tx.tx_node >= n || tx.rx_power.len() != n {
                return Err(SnapshotError::Malformed(format!(
                    "medium history entry {i}: node ids out of range"
                )));
            }
            if i > 0 && tx.id != snap.medium.history[i - 1].0.id + 1 {
                return Err(SnapshotError::Malformed(format!(
                    "medium history entry {i}: non-consecutive transmission id"
                )));
            }
        }
        engine.now = snap.now;
        engine.events = snap.events;
        engine.max_events = snap.max_events;
        engine.exhausted = snap.exhausted;
        engine.rng = Xoshiro256StarStar::from_state(snap.rng.0);
        engine.next_tx_id = snap.next_tx_id;
        engine.queue = BucketQueue::restore(&snap.queue, snap.next_seq);
        engine.held = snap.held;
        for (idx, (node, st)) in engine.nodes.iter_mut().zip(&snap.nodes).enumerate() {
            restore_node(node, st, idx)?;
        }
        engine.tx_meta = snap
            .tx_meta
            .iter()
            .map(|(id, m)| {
                (
                    *id,
                    TxMeta {
                        measured: m.measured,
                        link: m.link,
                        intended_rx: m.intended_rx,
                        intended_busy: m.intended_busy,
                        outcome: m.outcome,
                        duplicate: m.duplicate,
                        error_record: m.error_record.clone(),
                    },
                )
            })
            .collect();
        engine.acks = snap
            .acks
            .iter()
            .map(|&(ack, parent, sender)| (ack, (parent, sender)))
            .collect();
        engine
            .medium
            .restore_history(snap.medium.history.clone(), snap.medium.max_duration);
        engine.obs.metrics.restore_links(snap.metrics.clone());
        match (&mut engine.obs.trace, &snap.trace) {
            (Some(rec), Some(records)) => rec.restore_records(records.clone()),
            (None, None) => {}
            (rec, records) => {
                return Err(SnapshotError::Malformed(format!(
                    "trace recorder presence mismatch (engine {}, snapshot {})",
                    rec.is_some(),
                    records.is_some()
                )));
            }
        }
        match (&mut engine.obs.timeline, &snap.timeline) {
            (Some(rec), Some(records)) => rec.restore_records(records.clone()),
            (None, None) => {}
            (rec, records) => {
                return Err(SnapshotError::Malformed(format!(
                    "timeline recorder presence mismatch (engine {}, snapshot {})",
                    rec.is_some(),
                    records.is_some()
                )));
            }
        }
        Ok(engine)
    }
}

// ---------------------------------------------------------------------
// Sharded snapshots: sequential checkpoint executor + merge at the end.
// ---------------------------------------------------------------------

/// Where one shard rank stands in the sequential checkpoint executor.
#[derive(Debug)]
pub(crate) enum RankState {
    /// Not started yet (later ranks while an earlier one is paused).
    Fresh,
    /// Mid-run: the rank's engine state.
    Paused { engine: EngineSnapshot },
    /// Finished; its result awaits the final merge.
    Done { result: SimResult, exhausted: bool },
}

impl ToJson for RankState {
    fn to_json(&self) -> Json {
        match self {
            RankState::Fresh => Json::object([("fresh", Json::Null)]),
            RankState::Paused { engine } => {
                Json::object([("paused", Json::object([("engine", engine.to_json())]))])
            }
            RankState::Done { result, exhausted } => Json::object([(
                "done",
                Json::object([
                    ("result", result.to_json()),
                    ("exhausted", exhausted.to_json()),
                ]),
            )]),
        }
    }
}

impl FromJson for RankState {
    fn from_json(value: &Json) -> Result<Self, Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| Error::new("expected object for RankState"))?;
        let (tag, body) = obj
            .iter()
            .next()
            .ok_or_else(|| Error::new("empty RankState object"))?;
        let field = |name: &str| {
            body.as_object()
                .and_then(|b| b.get(name))
                .ok_or_else(|| Error::new(format!("missing field `{name}` in RankState::{tag}")))
        };
        match tag {
            "fresh" => Ok(RankState::Fresh),
            "paused" => Ok(RankState::Paused {
                engine: EngineSnapshot::from_json(field("engine")?)?,
            }),
            "done" => Ok(RankState::Done {
                result: SimResult::from_json(field("result")?)?,
                exhausted: bool::from_json(field("exhausted")?)?,
            }),
            other => Err(Error::new(format!("unknown RankState tag `{other}`"))),
        }
    }
}

/// A paused sharded run: per-rank progress and nothing else. Relayed
/// notes are not kept — the final merge rebuilds them (see
/// `run_sharded_leg`) — so the snapshot stays proportional to live
/// engine state rather than to the run's history.
#[derive(Debug)]
pub struct ShardedSnapshot {
    pub(crate) fingerprint: u64,
    pub(crate) max_events: u64,
    pub(crate) ranks: Vec<RankState>,
}

nomc_json::json_struct!(ShardedSnapshot {
    fingerprint: u64,
    max_events: u64,
    ranks: Vec<RankState>,
});

impl ShardedSnapshot {
    /// The starting state of a checkpointed sharded run: every rank
    /// fresh.
    pub(crate) fn fresh(sc: &Scenario, max_events: u64, shards: usize) -> Self {
        ShardedSnapshot {
            fingerprint: scenario_fingerprint(sc),
            max_events,
            ranks: (0..shards).map(|_| RankState::Fresh).collect(),
        }
    }

    /// Replaces the persisted total event budget, re-splitting it over
    /// the ranks exactly as a fresh bounded run would (earlier ranks
    /// take the remainder). Ranks already done keep their results —
    /// their budget share is spent.
    pub(crate) fn set_budget(&mut self, max_events: u64) {
        self.max_events = max_events;
        let budgets = split_budget(max_events, self.ranks.len());
        for (state, budget) in self.ranks.iter_mut().zip(budgets) {
            if let RankState::Paused { engine } = state {
                engine.max_events = budget;
            }
        }
    }
}

/// How one checkpointed sharded leg ended.
pub(crate) enum ShardedProgress {
    /// The pause budget was reached; resume from the returned snapshot.
    Paused(ShardedSnapshot),
    /// All ranks finished and the canonical merge ran.
    Done(SimResult, bool),
}

/// How one rank's leg ended (internal to [`run_sharded_leg`]).
enum RankLeg {
    Paused(EngineSnapshot),
    Over(SimResult, bool),
}

/// A rank's engine scenario with the heavyweight recorders off, exactly
/// like the threaded executor's workers: the merge rebuilds the trace
/// and timeline from relayed notes.
fn rank_scenario(spec: &shard::ShardSpec) -> Scenario {
    let mut sub = spec.scenario.clone();
    sub.record_trace = false;
    sub.record_timeline = false;
    sub
}

/// Runs a (fresh or restored) rank engine until `target` events or the
/// end of its run.
fn advance(mut engine: Engine<'_, '_, '_>, target: u64) -> RankLeg {
    match engine.run_leg(target) {
        LegEnd::Paused => RankLeg::Paused(engine.capture()),
        LegEnd::Over => {
            let exhausted = engine.exhausted;
            RankLeg::Over(engine.finalize(), exhausted)
        }
    }
}

/// Starts a rank from its bootstrap under `budget` and runs it until
/// `target` events or the end of its run.
fn start(
    sub: &Scenario,
    observers: &mut [&mut dyn SimObserver],
    budget: u64,
    target: u64,
) -> RankLeg {
    let mut engine = Engine::new(sub, observers);
    engine.max_events = budget;
    engine.bootstrap();
    advance(engine, target)
}

/// Rebuilds a finished rank's note stream under `ship` by re-running it
/// from its bootstrap with a relay attached, and checks the re-run
/// against the recorded result.
///
/// The re-run's budget is the recorded event count: a run that ended
/// naturally (drained queue or drain deadline) stops before the budget
/// check, and an exhausted one stopped exactly at its budget, so that
/// one number reproduces either ending — whatever budget changes the
/// rank went through while paused.
fn rebuild_notes(
    rank: usize,
    spec: &shard::ShardSpec,
    done: &SimResult,
    exhausted: bool,
    ship: ShipFlags,
) -> Result<Vec<Note>, SnapshotError> {
    let mut relay = RelayObserver::buffered(ship);
    let rerun = start(
        &rank_scenario(spec),
        &mut [&mut relay],
        done.events,
        u64::MAX,
    );
    match rerun {
        RankLeg::Over(result, again) if result == *done && again == exhausted => {
            Ok(relay.into_notes())
        }
        RankLeg::Over(..) | RankLeg::Paused(_) => Err(SnapshotError::Malformed(format!(
            "rank {rank}: re-run diverged from the recorded result"
        ))),
    }
}

/// Advances a checkpointed sharded run until the *global* event count
/// (summed over ranks) reaches `pause_after`, or to completion.
///
/// Ranks run sequentially in rank order, each on the same engine and
/// with the same per-rank budget split the threaded executor uses, and
/// with no relay attached — exactly like an unobserved serial run — so
/// a snapshot carries only engine state. Once every rank is done, the
/// externals present at that point decide which note categories the
/// merge needs ([`ShipFlags::for_run`], as in the threaded path). If
/// none, the merge is only the final assembly. Otherwise each rank's
/// note stream is rebuilt by re-running it (see [`rebuild_notes`]) and
/// replayed through the canonical `(time, rank, seq)` merge. Shards are fully independent, so the
/// sequential schedule is behaviorally identical to the lockstep thread
/// pool and the merged output is byte-identical to
/// [`crate::engine::run_sharded`].
pub(crate) fn run_sharded_leg(
    sc: &Scenario,
    mut snap: ShardedSnapshot,
    externals: &mut [&mut dyn SimObserver],
    pause_after: u64,
) -> Result<ShardedProgress, SnapshotError> {
    let expected = scenario_fingerprint(sc);
    if snap.fingerprint != expected {
        return Err(SnapshotError::ScenarioMismatch {
            found: snap.fingerprint,
            expected,
        });
    }
    let plan = shard::plan(sc);
    if snap.ranks.len() != plan.len() {
        return Err(SnapshotError::Malformed(format!(
            "snapshot has {} ranks, plan has {}",
            snap.ranks.len(),
            plan.len()
        )));
    }
    let budgets = split_budget(snap.max_events, plan.len());
    let mut done_events: u64 = snap
        .ranks
        .iter()
        .map(|r| match r {
            RankState::Done { result, .. } => result.events,
            RankState::Fresh | RankState::Paused { .. } => 0,
        })
        .sum();
    for (rank, spec) in plan.iter().enumerate() {
        let target = if pause_after == u64::MAX {
            u64::MAX
        } else {
            pause_after.saturating_sub(done_events)
        };
        let leg = match &snap.ranks[rank] {
            RankState::Done { .. } => continue,
            RankState::Paused { engine } => advance(
                Engine::restore_from(&rank_scenario(spec), &mut [], engine)?,
                target,
            ),
            RankState::Fresh => start(&rank_scenario(spec), &mut [], budgets[rank], target),
        };
        match leg {
            RankLeg::Paused(engine) => {
                snap.ranks[rank] = RankState::Paused { engine };
                return Ok(ShardedProgress::Paused(snap));
            }
            RankLeg::Over(result, exhausted) => {
                done_events += result.events;
                snap.ranks[rank] = RankState::Done { result, exhausted };
            }
        }
    }
    let mut results = Vec::with_capacity(plan.len());
    for r in snap.ranks {
        match r {
            RankState::Done { result, exhausted } => results.push((result, exhausted)),
            RankState::Fresh | RankState::Paused { .. } => {
                return Err(SnapshotError::Malformed(
                    "rank left unfinished after completion sweep".into(),
                ));
            }
        }
    }
    let ship = ShipFlags::for_run(sc, externals);
    let mut logs = Vec::new();
    if ship.any() {
        for (rank, (result, exhausted)) in results.iter().enumerate() {
            logs.push(rebuild_notes(rank, &plan[rank], result, *exhausted, ship)?);
        }
    }
    let (result, exhausted) = merge_logs(sc, &plan, logs, results, externals);
    Ok(ShardedProgress::Done(result, exhausted))
}

// ---------------------------------------------------------------------
// Wire format: versioned envelope over the serial/sharded payloads.
// ---------------------------------------------------------------------

/// A paused run of either execution shape.
#[derive(Debug)]
pub(crate) enum SnapInner {
    Serial(Box<EngineSnapshot>),
    Sharded(ShardedSnapshot),
}

/// Serializes a paused run as versioned snapshot JSON.
pub(crate) fn encode(inner: &SnapInner) -> String {
    let (kind, payload) = match inner {
        SnapInner::Serial(s) => ("serial", s.to_json()),
        SnapInner::Sharded(s) => ("sharded", s.to_json()),
    };
    Json::object([
        ("version", SNAPSHOT_VERSION.to_json()),
        ("kind", ToJson::to_json(kind)),
        ("payload", payload),
    ])
    .dump()
}

/// Parses versioned snapshot JSON back into a paused run. Total: every
/// failure mode is a typed [`SnapshotError`].
pub(crate) fn decode(text: &str) -> Result<SnapInner, SnapshotError> {
    let value: Json = text
        .parse()
        .map_err(|e: Error| SnapshotError::Malformed(e.to_string()))?;
    let obj = value
        .as_object()
        .ok_or_else(|| SnapshotError::Malformed("expected top-level object".into()))?;
    let version = obj
        .get("version")
        .and_then(Json::as_u64)
        .ok_or_else(|| SnapshotError::Malformed("missing snapshot version".into()))?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::VersionSkew {
            found: version,
            expected: SNAPSHOT_VERSION,
        });
    }
    let kind = obj
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| SnapshotError::Malformed("missing snapshot kind".into()))?;
    let payload = obj
        .get("payload")
        .ok_or_else(|| SnapshotError::Malformed("missing snapshot payload".into()))?;
    match kind {
        "serial" => Ok(SnapInner::Serial(Box::new(
            EngineSnapshot::from_json(payload).map_err(malformed)?,
        ))),
        "sharded" => Ok(SnapInner::Sharded(
            ShardedSnapshot::from_json(payload).map_err(malformed)?,
        )),
        other => Err(SnapshotError::Malformed(format!(
            "unknown snapshot kind `{other}`"
        ))),
    }
}
