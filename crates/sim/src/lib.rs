//! # nomc-sim
//!
//! A deterministic discrete-event simulator for multi-channel IEEE
//! 802.15.4 networks — the reproduction's stand-in for the paper's
//! 35-mote MicaZ testbed.
//!
//! * [`rng`] — platform-independent xoshiro256** randomness,
//! * [`events`] — the future-event list with deterministic tie-breaking,
//! * [`medium`] — the shared RF medium: per-observer coupled powers,
//!   segment-wise SINR histories, collision predicates,
//! * [`reach`] — the interaction-reachability predicates shared by the
//!   medium's channel cutoffs and the shard partitioner,
//! * [`scenario`] — deployment + behaviour + propagation configuration,
//! * [`engine`] — the [`engine::run`]/[`engine::run_with`] entry points,
//! * [`runtime`] — the layered event loop behind them (dispatch, node
//!   state, frame/ACK life cycles, power sensing) plus the pluggable
//!   [`runtime::observer::SimObserver`] sink layer,
//! * [`metrics`] — per-link/network counters and the paper's derived
//!   metrics (throughput, PRR, CPRR),
//! * [`energy`] — CC2420 radio-energy accounting per transmitter,
//! * [`trace`] — optional structured event traces (JSONL) for debugging.
//!
//! # Examples
//!
//! Simulate one saturated 2-link network for five seconds:
//!
//! ```
//! use nomc_sim::{engine, scenario::Scenario};
//! use nomc_topology::{paper, spectrum::ChannelPlan};
//! use nomc_units::{Dbm, Megahertz, SimDuration};
//!
//! let plan = ChannelPlan::with_count(Megahertz::new(2460.0), Megahertz::new(5.0), 1);
//! let deployment = paper::line_deployment(&plan, Dbm::new(0.0));
//! let mut builder = Scenario::builder(deployment);
//! builder.duration(SimDuration::from_secs(5)).warmup(SimDuration::from_secs(1));
//! let result = engine::run(&builder.build()?);
//! assert!(result.total_throughput() > 100.0);
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod energy;
pub mod engine;
pub mod events;
pub mod medium;
pub mod metrics;
pub mod reach;
pub mod rng;
pub mod runtime;
pub mod scenario;
pub mod trace;

pub use engine::{
    restore, resume_bounded, run, run_bounded, run_key, run_sharded, run_sharded_bounded,
    run_sharded_until, run_sharded_with, run_until, run_with, shard_plan, snapshot, BoundedRun,
    RunProgress, RunSnapshot, SnapshotError,
};
pub use metrics::{LinkMetrics, NetworkMetrics, SimResult};
pub use runtime::observer::{
    PowerSample, SimObserver, ThresholdSample, TxOutcomeInfo, TxStartInfo,
};
pub use runtime::sinks::{
    EnergyMeter, JsonlTracer, RecoveryMeter, RecoveryReport, TimelineRecorder, TraceRecorder,
};
pub use scenario::{
    CrashFault, DriftFault, FaultPlan, JammerFault, NetworkBehavior, Scenario, ScenarioBuilder,
    ScenarioError, StuckCcaFault, ThresholdMode, TrafficModel,
};
