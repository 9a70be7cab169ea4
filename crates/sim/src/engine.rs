//! The simulation entry points.
//!
//! [`run`] executes a [`Scenario`] to completion and returns a
//! [`SimResult`]; [`run_with`] does the same while streaming typed
//! notifications to caller-supplied
//! [`crate::runtime::observer::SimObserver`] sinks.
//!
//! The machinery behind these lives in [`crate::runtime`]: the event
//! loop ([`runtime`](crate::runtime) dispatch), per-node state and MAC
//! handling, the data-frame and ACK life cycles, power sensing, and the
//! observer fan-out. The serial engine is single-threaded and fully
//! deterministic for a given scenario + seed, and observers are
//! write-only: attaching any combination of them cannot change the
//! simulated outcome.
//!
//! [`run_sharded`] (and friends) execute one run as deterministic
//! shards: the scenario is partitioned into interaction components
//! (see [`crate::runtime::shard`]), each component simulates on its
//! own engine with a derived RNG stream, and worker threads advance
//! the shards in conservative time windows while a canonical merge
//! rebuilds one serial-looking observer stream. Results depend only on
//! the scenario — never on the thread count.
//!
//! # Examples
//!
//! Count every frame that went on air with a custom observer:
//!
//! ```
//! use nomc_sim::runtime::observer::{SimObserver, TxStartInfo};
//! use nomc_sim::{engine, Scenario};
//! use nomc_topology::{paper, spectrum::ChannelPlan};
//! use nomc_units::{Dbm, Megahertz, SimDuration};
//!
//! #[derive(Default)]
//! struct FrameCounter(u64);
//! impl SimObserver for FrameCounter {
//!     fn on_tx_start(&mut self, _info: &TxStartInfo) {
//!         self.0 += 1;
//!     }
//! }
//!
//! let plan = ChannelPlan::with_count(Megahertz::new(2460.0), Megahertz::new(5.0), 1);
//! let mut builder = Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
//! builder.duration(SimDuration::from_secs(1)).warmup(SimDuration::from_millis(250));
//! let scenario = builder.build()?;
//! let mut counter = FrameCounter::default();
//! let result = engine::run_with(&scenario, &mut [&mut counter]);
//! assert!(counter.0 >= result.links.iter().map(|l| l.sent).sum::<u64>());
//! # Ok::<(), String>(())
//! ```

use crate::metrics::SimResult;
use crate::runtime::observer::SimObserver;
use crate::runtime::snapshot::{self, ShardedProgress, ShardedSnapshot, SnapInner};
use crate::runtime::{shard, Engine};
use crate::scenario::{Scenario, ThresholdMode};

pub use crate::runtime::snapshot::SnapshotError;

/// Runs `scenario` to completion.
///
/// # Panics
///
/// Panics if the scenario is internally inconsistent in a way
/// [`Scenario`]'s builder should have rejected (a bug, not an input
/// condition).
pub fn run(scenario: &Scenario) -> SimResult {
    run_with(scenario, &mut [])
}

/// Runs `scenario` to completion, fanning typed notifications out to
/// `observers` as the simulation progresses.
///
/// Observers are write-only sinks: the returned [`SimResult`] is
/// bit-identical to what [`run`] produces for the same scenario. The
/// built-in sinks in [`crate::runtime::sinks`] (JSONL streaming tracer,
/// energy meter, …) plug in here, as can any caller-defined
/// [`SimObserver`].
///
/// # Panics
///
/// Panics under the same (builder-rejected) conditions as [`run`].
pub fn run_with(scenario: &Scenario, observers: &mut [&mut dyn SimObserver]) -> SimResult {
    Engine::new(scenario, observers).run()
}

/// The run key of `scenario`: its canonical JSON with every fixed CCA
/// threshold ([`ThresholdMode::Fixed`], [`ThresholdMode::FixedOracle`])
/// passed through the radio's register clamp
/// (`RadioConfig::clamp_cca_threshold`).
///
/// Contract: scenarios with equal keys [`run`] to equal [`SimResult`]s,
/// so a batch may simulate one member per key. It holds because the
/// engine reads a fixed level only through that clamp — at every CCA
/// decision, around every provider mutation and in the final
/// thresholds — so two levels that clamp to the same register value
/// are indistinguishable to every handler. Everything else in the JSON
/// (seed and recorder flags included) is kept verbatim, and DCN modes
/// pass through unchanged.
pub fn run_key(scenario: &Scenario) -> String {
    let mut sc = scenario.clone();
    for behavior in &mut sc.behaviors {
        match &mut behavior.threshold {
            ThresholdMode::Fixed(level) | ThresholdMode::FixedOracle(level) => {
                *level = sc.radio.clamp_cca_threshold(*level);
            }
            ThresholdMode::Dcn(_) | ThresholdMode::DcnOracle(_) => {}
        }
    }
    nomc_json::to_string(&sc)
}

/// A [`run_bounded`] outcome: the result plus whether the event budget
/// cut the run short.
#[derive(Debug)]
pub struct BoundedRun {
    /// The (possibly truncated) simulation result.
    pub result: SimResult,
    /// `true` when the run stopped on the event budget instead of
    /// draining naturally — the result covers only the simulated prefix.
    pub exhausted: bool,
}

/// Runs `scenario` with a deterministic event budget: after handling
/// `max_events` events the run stops and reports exhaustion.
///
/// This is the runaway protection for batch runners. It is purely a
/// function of the event count — no wall clock is consulted — so a
/// budget-truncated run is exactly as reproducible as a complete one,
/// and a budget larger than the run's natural event count changes
/// nothing at all.
///
/// # Panics
///
/// Panics under the same (builder-rejected) conditions as [`run`].
pub fn run_bounded(
    scenario: &Scenario,
    observers: &mut [&mut dyn SimObserver],
    max_events: u64,
) -> BoundedRun {
    let mut engine = Engine::new(scenario, observers);
    engine.max_events = max_events;
    let (result, exhausted) = engine.run_reporting_exhaustion();
    BoundedRun { result, exhausted }
}

/// The canonical shard plan for `scenario`: one
/// [`shard::ShardSpec`] per interaction component, sorted by minimum
/// network index. Exposed for tests and tooling that want to inspect
/// how a scenario partitions; [`run_sharded`] computes the same plan
/// internally.
pub fn shard_plan(scenario: &Scenario) -> Vec<shard::ShardSpec> {
    shard::plan(scenario)
}

/// Runs `scenario` as deterministic shards on up to `threads` worker
/// threads.
///
/// The scenario is split into its interaction components (see
/// [`crate::runtime::shard`]); fully-coupled scenarios have one
/// component and delegate to [`run`] unchanged, so the result is
/// byte-identical to the serial engine. Multi-component scenarios run
/// each component as a standalone sub-scenario with a seed derived
/// from the base seed and the component's minimum network index — the
/// result is identical to running each component's sub-scenario
/// serially and composing, whatever `threads` is (`threads` only sizes
/// the worker pool and is clamped to `1..=components`).
///
/// # Panics
///
/// Panics under the same (builder-rejected) conditions as [`run`].
pub fn run_sharded(scenario: &Scenario, threads: usize) -> SimResult {
    run_sharded_with(scenario, &mut [], threads)
}

/// [`run_sharded`] with external observers: the canonical
/// `(time, shard, seq)` merge replays one serial-order notification
/// stream into `observers`, so sinks observe a sharded run exactly as
/// they would a serial one (transmission ids are minted in merged
/// order).
///
/// # Panics
///
/// Panics under the same (builder-rejected) conditions as [`run`].
pub fn run_sharded_with(
    scenario: &Scenario,
    observers: &mut [&mut dyn SimObserver],
    threads: usize,
) -> SimResult {
    let plan = shard::plan(scenario);
    if plan.len() <= 1 {
        return run_with(scenario, observers);
    }
    let (result, _) = shard::execute(scenario, &plan, observers, u64::MAX, threads);
    result
}

/// [`run_bounded`] under sharding: the event budget is split across
/// shards as evenly as possible (earlier components take the
/// remainder), so a budget-truncated sharded run stops at the same
/// per-shard events — and reports the same totals — regardless of
/// thread count. `exhausted` is set when *any* shard hit its share.
///
/// # Panics
///
/// Panics under the same (builder-rejected) conditions as [`run`].
pub fn run_sharded_bounded(
    scenario: &Scenario,
    observers: &mut [&mut dyn SimObserver],
    max_events: u64,
    threads: usize,
) -> BoundedRun {
    let plan = shard::plan(scenario);
    if plan.len() <= 1 {
        return run_bounded(scenario, observers, max_events);
    }
    let (result, exhausted) = shard::execute(scenario, &plan, observers, max_events, threads);
    BoundedRun { result, exhausted }
}

/// A paused run, opaque to callers: serialize it with [`snapshot()`],
/// bring it back with [`restore`], continue it with [`resume_bounded`].
///
/// Holds everything mutable about the run (event queue with original
/// sequence numbers, RNG stream position, per-node MAC/provider state,
/// medium history, built-in collector state, event budget and count);
/// everything derived is recomputed from the scenario at resume. The
/// contract: *run-to-event-K, snapshot, restore, run-to-end is
/// byte-identical to the uninterrupted run* — results, traces,
/// timelines, and (for sharded runs) the merged observer stream.
#[derive(Debug)]
pub struct RunSnapshot {
    inner: SnapInner,
}

impl RunSnapshot {
    /// Replaces the event budget persisted in the snapshot.
    ///
    /// A supervisor that retries a timed-out run with a doubled budget
    /// resumes from the latest checkpoint rather than starting over;
    /// this lets it graft the new budget onto the saved state. Sharded
    /// snapshots re-split the budget over their ranks exactly as a
    /// fresh bounded run would.
    pub fn set_budget(&mut self, max_events: u64) {
        match &mut self.inner {
            SnapInner::Serial(snap) => snap.max_events = max_events,
            SnapInner::Sharded(snap) => snap.set_budget(max_events),
        }
    }
}

/// A [`run_until`] / [`resume_bounded`] outcome: either the run paused
/// at the requested event count, or it finished.
#[derive(Debug)]
pub enum RunProgress {
    /// The pause target was reached first; the run can be snapshotted
    /// and resumed.
    Paused(Box<RunSnapshot>),
    /// The run completed (naturally or on its event budget) before the
    /// pause target.
    Done(BoundedRun),
}

/// Runs `scenario` on the serial engine until `pause_after` events have
/// been handled, the event budget `max_events` is exhausted, or the run
/// drains — whichever comes first.
///
/// Both limits count *handled events* — no wall clock is consulted — so
/// the pause point is deterministic. Pausing takes effect before the
/// `pause_after + 1`-th event is popped: the paused engine has done
/// exactly what the uninterrupted engine had done after its
/// `pause_after`-th event, which is what makes the resumed run
/// byte-identical. Pass `u64::MAX` for either limit to disable it.
///
/// # Panics
///
/// Panics under the same (builder-rejected) conditions as [`run`].
pub fn run_until(
    scenario: &Scenario,
    observers: &mut [&mut dyn SimObserver],
    max_events: u64,
    pause_after: u64,
) -> RunProgress {
    let mut engine = Engine::new(scenario, observers);
    engine.max_events = max_events;
    engine.bootstrap();
    serial_leg(engine, pause_after)
}

/// [`run_until`] under sharding: pauses once the *global* event count
/// (summed across shards) reaches `pause_after`.
///
/// Single-component plans delegate to the serial [`run_until`], exactly
/// as [`run_sharded`] delegates to [`run`]. Multi-component plans run
/// rank by rank with the same per-shard budget split as
/// [`run_sharded_bounded`], with no relay attached, so a snapshot holds
/// only live engine state. On completion, when `observers` or the
/// scenario's trace/timeline recorders consume the note stream, every
/// rank re-runs once from its bootstrap to rebuild its stream, which is
/// replayed through the canonical `(time, shard, seq)`
/// merge, so the merged result and observer stream are byte-identical
/// to an uninterrupted [`run_sharded_bounded`] whatever the pause
/// pattern was.
///
/// # Panics
///
/// Panics under the same (builder-rejected) conditions as [`run`].
pub fn run_sharded_until(
    scenario: &Scenario,
    observers: &mut [&mut dyn SimObserver],
    max_events: u64,
    pause_after: u64,
) -> RunProgress {
    let plan = shard::plan(scenario);
    if plan.len() <= 1 {
        return run_until(scenario, observers, max_events, pause_after);
    }
    let fresh = ShardedSnapshot::fresh(scenario, max_events, plan.len());
    let progress = snapshot::run_sharded_leg(scenario, fresh, observers, pause_after)
        // A freshly minted snapshot always matches its own scenario and
        // plan; a rejection here is an engine bug, not an input condition.
        .expect("fresh sharded leg accepts its own snapshot");
    sharded_progress(progress)
}

/// Serializes a paused run as self-describing, versioned snapshot JSON
/// (the in-tree `nomc-json` codec; exact `u64`/`f64` round-trips).
///
/// The scenario itself is *not* embedded — only its fingerprint — so a
/// snapshot can only be resumed against the configuration that produced
/// it, and snapshot files stay proportional to live state.
pub fn snapshot(snap: &RunSnapshot) -> String {
    snapshot::encode(&snap.inner)
}

/// Parses snapshot JSON produced by [`snapshot()`] back into a resumable
/// [`RunSnapshot`].
///
/// Total: corrupt payloads (truncation, bit flips, type confusion) are
/// [`SnapshotError::Malformed`], an incompatible format version is
/// [`SnapshotError::VersionSkew`] — never a panic. Scenario agreement
/// is checked at [`resume_bounded`] time, where the scenario is in
/// hand.
pub fn restore(text: &str) -> Result<RunSnapshot, SnapshotError> {
    snapshot::decode(text).map(|inner| RunSnapshot { inner })
}

/// Resumes a paused run against `scenario` until `pause_after` total
/// events, its persisted event budget, or completion — whichever comes
/// first.
///
/// The snapshot remembers whether it was a serial or sharded run and
/// its original `max_events`; `pause_after` is an absolute target on
/// the same counter [`run_until`] uses (pass `u64::MAX` to run to the
/// end). `observers` attach for the remainder of the run: a resumed
/// serial run streams them the suffix only, while a resumed sharded
/// run gives them the *complete* merged stream at the final merge,
/// rebuilt by re-running every rank.
/// Built-in collector state travels inside the snapshot either way, so
/// the returned result, trace, and timeline are byte-identical to an
/// uninterrupted run.
///
/// # Errors
///
/// [`SnapshotError::ScenarioMismatch`] when the snapshot fingerprint
/// does not match `scenario`, [`SnapshotError::Malformed`] when the
/// snapshot's internal invariants do not hold against the scenario
/// (index bounds, state-shape agreement). Never panics on bad input.
pub fn resume_bounded(
    scenario: &Scenario,
    snap: RunSnapshot,
    observers: &mut [&mut dyn SimObserver],
    pause_after: u64,
) -> Result<RunProgress, SnapshotError> {
    match snap.inner {
        SnapInner::Serial(engine_snap) => {
            let engine = Engine::restore_from(scenario, observers, &engine_snap)?;
            Ok(serial_leg(engine, pause_after))
        }
        SnapInner::Sharded(sharded) => {
            let progress = snapshot::run_sharded_leg(scenario, sharded, observers, pause_after)?;
            Ok(sharded_progress(progress))
        }
    }
}

/// Advances a (fresh or restored) serial engine one leg.
fn serial_leg(mut engine: Engine<'_, '_, '_>, pause_after: u64) -> RunProgress {
    match engine.run_leg(pause_after) {
        crate::runtime::LegEnd::Paused => RunProgress::Paused(Box::new(RunSnapshot {
            inner: SnapInner::Serial(Box::new(engine.capture())),
        })),
        crate::runtime::LegEnd::Over => {
            let exhausted = engine.exhausted;
            RunProgress::Done(BoundedRun {
                result: engine.finalize(),
                exhausted,
            })
        }
    }
}

fn sharded_progress(progress: ShardedProgress) -> RunProgress {
    match progress {
        ShardedProgress::Paused(sharded) => RunProgress::Paused(Box::new(RunSnapshot {
            inner: SnapInner::Sharded(sharded),
        })),
        ShardedProgress::Done(result, exhausted) => {
            RunProgress::Done(BoundedRun { result, exhausted })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::NetworkBehavior;
    use nomc_core::DcnConfig;
    use nomc_topology::paper;
    use nomc_units::{Dbm, Megahertz, SimDuration};

    /// The Fig. 5 configuration (one link between four neighbour-channel
    /// interferers), where the link's CCA threshold decides how often
    /// it defers, with `threshold` on the link's network.
    fn fig5(threshold: ThresholdMode, seed: u64) -> Scenario {
        let (deployment, link) = paper::fig5_deployment(
            Megahertz::new(2464.0),
            Megahertz::new(3.0),
            Dbm::new(0.0),
            Dbm::new(0.0),
        );
        let mut b = Scenario::builder(deployment);
        b.behavior(
            link,
            NetworkBehavior {
                threshold,
                ..NetworkBehavior::zigbee_default()
            },
        )
        .duration(SimDuration::from_secs(2))
        .warmup(SimDuration::from_millis(500))
        .seed(seed);
        b.build().expect("valid Fig. 5 scenario")
    }

    /// Levels below the CC2420 register floor (−95 dBm) share the
    /// floor's key and its result; −90 dBm is inside the range and
    /// keeps a key of its own.
    #[test]
    fn levels_below_the_register_floor_share_key_and_result() {
        let modes: [fn(Dbm) -> ThresholdMode; 2] =
            [ThresholdMode::Fixed, ThresholdMode::FixedOracle];
        for mode in modes {
            let floor = fig5(mode(Dbm::new(-95.0)), 5);
            let floor_result = run(&floor);
            for level in [-120.0, -110.0, -100.0] {
                let sc = fig5(mode(Dbm::new(level)), 5);
                assert_eq!(run_key(&sc), run_key(&floor), "{level} dBm");
                assert_eq!(run(&sc), floor_result, "{level} dBm");
            }
            let inside = fig5(mode(Dbm::new(-90.0)), 5);
            assert_ne!(run_key(&inside), run_key(&floor));
        }
        // The oracle flag and the seed stay in the key.
        assert_ne!(
            run_key(&fig5(ThresholdMode::Fixed(Dbm::new(-120.0)), 5)),
            run_key(&fig5(ThresholdMode::FixedOracle(Dbm::new(-120.0)), 5))
        );
        assert_ne!(
            run_key(&fig5(ThresholdMode::Fixed(Dbm::new(-120.0)), 5)),
            run_key(&fig5(ThresholdMode::Fixed(Dbm::new(-120.0)), 6))
        );
    }

    #[test]
    fn dcn_modes_pass_through_the_key_unchanged() {
        for mode in [
            ThresholdMode::Dcn(DcnConfig::paper_default()),
            ThresholdMode::DcnOracle(DcnConfig::paper_default()),
        ] {
            let sc = fig5(mode, 5);
            assert_eq!(run_key(&sc), nomc_json::to_string(&sc));
        }
    }
}
