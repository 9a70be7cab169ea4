//! Multi-seed, multi-point execution utilities.
//!
//! Every sweep point (a scenario at one parameter value and one seed) is
//! an independent deterministic simulation, so the harness parallelizes
//! across points while each simulation itself stays single-threaded and
//! reproducible. Every batch goes through [`run_batch`]: it simulates
//! each distinct member once (by [`nomc_sim::engine::run_key`]), reduces
//! each result to the caller's summary inside the worker, and runs on
//! the work-stealing [`crate::sweep::scheduler`], whose slot-ordered
//! results are bit-identical for any thread count. [`run_parallel`] and
//! [`run_seeds`] are thin uses of it; a sweep that submits its whole
//! grid as one batch has no barrier between its points.
//!
//! Batch robustness: [`run_outcomes`] isolates each member behind
//! `catch_unwind` and a deterministic event budget, so one panicking or
//! runaway scenario is reported as its own [`RunOutcome`] instead of
//! taking the whole sweep down. The budget counts simulation events —
//! never wall-clock time — so a truncated member is exactly as
//! reproducible as a completed one.

use crate::sweep::hash::fnv1a;
use crate::ExpConfig;
use nomc_sim::{engine, Scenario, SimObserver, SimResult};
use std::collections::BTreeMap;

/// Mean and (population) standard deviation of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Stat {
    /// Sample mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
}

impl Stat {
    /// Computes mean/std of `values`.
    ///
    /// Returns the zero stat for an empty slice.
    pub fn of(values: &[f64]) -> Stat {
        if values.is_empty() {
            return Stat::default();
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        Stat {
            mean,
            std: var.sqrt(),
        }
    }

    /// Half-width of the ~95 % confidence interval of the mean
    /// (`t · s / √n` with a small-sample Student-t table). Zero for
    /// fewer than two samples.
    pub fn ci95_half_width(&self, n: usize) -> f64 {
        if n < 2 {
            return 0.0;
        }
        // Two-sided 95 % t-quantiles for n-1 degrees of freedom.
        const T: [f64; 10] = [
            12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
        ];
        let t = T.get(n - 2).copied().unwrap_or(1.96);
        // `std` here is the population σ estimate; convert to the sample
        // (n-1) estimator for the CI.
        let sample_std = self.std * ((n as f64) / (n as f64 - 1.0)).sqrt();
        t * sample_std / (n as f64).sqrt()
    }
}

/// `sc` as the member for `seed` of `cfg`: the config's duration and
/// warmup, and the seed, applied on top of the scenario's own values.
pub fn seeded(cfg: &ExpConfig, mut sc: Scenario, seed: u64) -> Scenario {
    sc.duration = cfg.duration;
    sc.warmup = cfg.warmup;
    sc.seed = seed;
    sc
}

/// Runs `make_scenario(seed)` for every seed of `cfg`, in parallel, and
/// returns the results in seed order.
///
/// The closure builds the scenario (including any seed-dependent
/// topology); duration/warmup from `cfg` are applied on top.
pub fn run_seeds<F>(cfg: &ExpConfig, make_scenario: F) -> Vec<SimResult>
where
    F: Fn(u64) -> Scenario + Sync,
{
    let scenarios: Vec<Scenario> = cfg
        .seeds
        .iter()
        .map(|&s| seeded(cfg, make_scenario(s), s))
        .collect();
    run_parallel(&scenarios)
}

/// Runs a batch of scenarios in parallel and returns their results in
/// order: [`run_batch`] with the whole result as the summary.
pub fn run_parallel(scenarios: &[Scenario]) -> Vec<SimResult> {
    run_batch(scenarios, |_, result| result)
}

/// The batch primitive: runs every member of `scenarios` and returns
/// `reduce`'s summary of each, in member (slot) order.
///
/// * Members with equal [`engine::run_key`]s simulate once. The key's
///   contract (equal keys run to equal results) makes the repeat
///   redundant; a CCA-threshold sweep point below the register floor
///   is such a repeat of the floor point.
/// * `reduce(slot, result)` runs inside the worker, so a batch holds one
///   summary per member rather than every [`SimResult`] at once. It is
///   called once per distinct key, with the first slot holding that
///   key, and every later slot of the key receives a clone of the
///   summary. A reducer that reads `slot` must therefore give the same
///   summary for every slot of one key.
///
/// Distinct members run on the work-stealing scheduler
/// ([`crate::sweep::scheduler`]) with no barrier between them. Summaries
/// land in their slots, so the output is bit-identical for any thread
/// count; only wall-clock completion order varies.
pub fn run_batch<T, R>(scenarios: &[Scenario], reduce: R) -> Vec<T>
where
    T: Clone + Send,
    R: Fn(usize, SimResult) -> T + Sync,
{
    run_batch_on(
        scenarios,
        crate::sweep::scheduler::default_threads(),
        reduce,
    )
}

/// [`run_batch`] on `threads` workers.
fn run_batch_on<T, R>(scenarios: &[Scenario], threads: usize, reduce: R) -> Vec<T>
where
    T: Clone + Send,
    R: Fn(usize, SimResult) -> T + Sync,
{
    // `firsts[d]` is the first slot of distinct key `d`; `class[slot]`
    // is the slot's `d`. Keys meet through their FNV-1a hash and are
    // compared in full on a hash match, so one key string (a few kB of
    // JSON) is alive at a time rather than one per member.
    let mut firsts: Vec<usize> = Vec::new();
    let mut class: Vec<usize> = Vec::with_capacity(scenarios.len());
    let mut by_hash: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (slot, sc) in scenarios.iter().enumerate() {
        let key = engine::run_key(sc);
        let same_hash = by_hash.entry(fnv1a(key.as_bytes())).or_default();
        let d = match same_hash
            .iter()
            .find(|&&d| engine::run_key(&scenarios[firsts[d]]) == key)
        {
            Some(&d) => d,
            None => {
                firsts.push(slot);
                same_hash.push(firsts.len() - 1);
                firsts.len() - 1
            }
        };
        class.push(d);
    }
    let summaries = crate::sweep::scheduler::run_indexed(firsts.len(), threads, |d| {
        let slot = firsts[d];
        reduce(slot, engine::run(&scenarios[slot]))
    });
    // Every slot but a key's last gets a clone; the last takes the
    // summary itself.
    let mut remaining = vec![0usize; firsts.len()];
    for &d in &class {
        remaining[d] += 1;
    }
    let mut summaries: Vec<Option<T>> = summaries.into_iter().map(Some).collect();
    class
        .iter()
        .map(|&d| {
            remaining[d] -= 1;
            let summary = if remaining[d] == 0 {
                summaries[d].take()
            } else {
                summaries[d].clone()
            };
            summary.expect("a key's summary is taken only by its last slot")
        })
        .collect()
}

/// How one member of an isolated batch ([`run_outcomes`]) ended.
#[derive(Debug, PartialEq)]
pub enum RunOutcome {
    /// The simulation drained naturally within the event budget.
    Ok(SimResult),
    /// The simulation panicked; the payload is the panic message. The
    /// panic was confined to this member — the rest of the batch ran.
    Failed(String),
    /// The event budget expired before the run drained; the member was
    /// cut off deterministically (no wall clock involved).
    TimedOut {
        /// Events handled before the budget cut in.
        events: u64,
    },
}

impl RunOutcome {
    /// The completed result, when the member finished normally.
    pub fn result(&self) -> Option<&SimResult> {
        match self {
            RunOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }

    /// `true` for [`RunOutcome::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, RunOutcome::Ok(_))
    }
}

/// Runs a batch of scenarios in parallel with per-member isolation:
/// each member runs under `catch_unwind` and the `max_events` budget,
/// and the returned outcomes preserve order. Use `u64::MAX` for an
/// effectively unbounded budget.
///
/// Unlike [`run_parallel`], a panicking member cannot abort the batch:
/// it is reported as [`RunOutcome::Failed`] while every other member
/// still completes.
pub fn run_outcomes(scenarios: &[Scenario], max_events: u64) -> Vec<RunOutcome> {
    crate::sweep::scheduler::run_indexed(
        scenarios.len(),
        crate::sweep::scheduler::default_threads(),
        |i| run_isolated(&scenarios[i], max_events, None, &mut []),
    )
}

/// One member: budgeted, with the panic boundary right around the
/// engine call. `AssertUnwindSafe` is sound here because nothing
/// crosses the boundary on the panic path — the scenario is borrowed
/// immutably, the engine's state dies with the unwind, and observers
/// are write-only sinks whose partial output is discarded with the
/// failed attempt.
///
/// With `shards: Some(n)` the member runs through the sharded engine on
/// `n` worker threads ([`engine::run_sharded_bounded`]); `None` keeps
/// the legacy serial [`engine::run_bounded`]. `observers` stream the
/// attempt's progress (batch paths pass `&mut []`; the results server
/// feeds its per-job event channel through here).
///
/// Also the attempt primitive of [`crate::sweep`]'s retry loop.
pub(crate) fn run_isolated(
    sc: &Scenario,
    max_events: u64,
    shards: Option<usize>,
    observers: &mut [&mut dyn SimObserver],
) -> RunOutcome {
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match shards {
        Some(threads) => engine::run_sharded_bounded(sc, observers, max_events, threads),
        None => engine::run_bounded(sc, observers, max_events),
    }));
    match run {
        Ok(bounded) if bounded.exhausted => RunOutcome::TimedOut {
            events: bounded.result.events,
        },
        Ok(bounded) => RunOutcome::Ok(bounded.result),
        Err(payload) => RunOutcome::Failed(panic_message(payload.as_ref())),
    }
}

/// Best-effort extraction of a panic payload's message (the standard
/// `panic!`/`expect` payloads are `&str` or `String`).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Convenience: runs the seeds and reduces each result to a scalar,
/// returning its [`Stat`].
pub fn stat_over_seeds<F, G>(cfg: &ExpConfig, make_scenario: F, metric: G) -> Stat
where
    F: Fn(u64) -> Scenario + Sync,
    G: Fn(&SimResult) -> f64,
{
    let results = run_seeds(cfg, make_scenario);
    let values: Vec<f64> = results.iter().map(metric).collect();
    Stat::of(&values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nomc_sim::ThresholdMode;
    use nomc_topology::{paper, spectrum::ChannelPlan};
    use nomc_units::{Dbm, Megahertz};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn scenario(seed: u64) -> Scenario {
        let plan = ChannelPlan::with_count(Megahertz::new(2460.0), Megahertz::new(5.0), 1);
        let mut b = Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
        b.seed(seed);
        b.build().expect("builder-validated test scenario")
    }

    #[test]
    fn stat_of_values() {
        let s = Stat::of(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.std - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(Stat::of(&[]), Stat::default());
    }

    #[test]
    fn ci95_behaviour() {
        let s = Stat::of(&[10.0, 12.0, 14.0]);
        let ci = s.ci95_half_width(3);
        // t(2 df) = 4.303, sample std = 2 → 4.303·2/√3 ≈ 4.97.
        assert!((ci - 4.969).abs() < 0.01, "{ci}");
        assert_eq!(s.ci95_half_width(1), 0.0);
        // More samples shrink the interval.
        let s10 = Stat::of(&[10.0, 12.0, 14.0, 10.0, 12.0, 14.0, 10.0, 12.0, 14.0, 12.0]);
        assert!(s10.ci95_half_width(10) < ci);
    }

    #[test]
    fn run_seeds_is_deterministic_and_ordered() {
        let cfg = ExpConfig {
            duration: nomc_units::SimDuration::from_secs(2),
            warmup: nomc_units::SimDuration::from_secs(1),
            seeds: vec![1, 2, 3],
        };
        let a = run_seeds(&cfg, scenario);
        let b = run_seeds(&cfg, scenario);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        // Different seeds really produce different runs.
        assert_ne!(a[0], a[1]);
    }

    /// A short `scenario(seed)` with its CCA threshold fixed at `level`.
    fn fixed(level: f64, seed: u64) -> Scenario {
        let mut sc = scenario(seed);
        sc.duration = nomc_units::SimDuration::from_secs(2);
        sc.warmup = nomc_units::SimDuration::from_secs(1);
        sc.behaviors[0].threshold = ThresholdMode::Fixed(Dbm::new(level));
        sc
    }

    /// Exact repeats, levels below the −95 dBm register floor and
    /// distinct members, mixed: four distinct run keys over seven slots.
    fn mixed_batch() -> Vec<Scenario> {
        vec![
            fixed(-77.0, 1),
            fixed(-120.0, 1),
            fixed(-77.0, 1),
            fixed(-95.0, 1),
            fixed(-77.0, 2),
            fixed(-100.0, 1),
            fixed(-90.0, 1),
        ]
    }

    #[test]
    fn batch_simulates_each_distinct_key_once() {
        let calls = AtomicUsize::new(0);
        let out = run_batch(&mixed_batch(), |slot, r| {
            calls.fetch_add(1, Ordering::SeqCst);
            (slot, r.events)
        });
        assert_eq!(calls.load(Ordering::SeqCst), 4);
        // Every slot carries the summary made at its key's first slot.
        let made_at: Vec<usize> = out.iter().map(|&(slot, _)| slot).collect();
        assert_eq!(made_at, vec![0, 1, 0, 1, 4, 1, 6]);
    }

    #[test]
    fn batch_matches_undeduplicated_runs_at_any_thread_count() {
        let batch = mixed_batch();
        let each: Vec<SimResult> = batch.iter().map(engine::run).collect();
        for threads in [1, 2, 8] {
            assert_eq!(
                run_batch_on(&batch, threads, |_, r| r),
                each,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn panicking_member_is_failed_while_batch_completes() {
        let mut bad = scenario(2);
        // Corrupt the invariant the builder guarantees (one behavior per
        // network): engine construction panics on the missing entry.
        bad.behaviors.pop();
        let batch = vec![scenario(1), bad, scenario(3)];
        // Quiet the default panic printer for the intentional panic; the
        // hook is process-global, so restore it right after.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = run_outcomes(&batch, u64::MAX);
        std::panic::set_hook(prev);
        assert_eq!(out.len(), 3);
        assert!(out[0].is_ok(), "{:?}", out[0]);
        assert!(matches!(out[1], RunOutcome::Failed(_)), "{:?}", out[1]);
        assert!(out[2].is_ok(), "{:?}", out[2]);
        // The survivors are the same results an unbounded run produces.
        assert_eq!(out[0].result(), Some(&engine::run(&batch[0])));
    }

    #[test]
    fn event_budget_times_out_deterministically() {
        let sc = scenario(7);
        let full = engine::run(&sc);
        assert!(full.events > 200, "budget test needs a non-trivial run");
        let out = run_outcomes(std::slice::from_ref(&sc), 200);
        assert_eq!(out, vec![RunOutcome::TimedOut { events: 200 }]);
        // A budget past the natural event count changes nothing.
        let unbounded = run_outcomes(std::slice::from_ref(&sc), full.events + 1);
        assert_eq!(unbounded[0].result(), Some(&full));
    }

    #[test]
    fn stat_over_seeds_reduces() {
        let cfg = ExpConfig {
            duration: nomc_units::SimDuration::from_secs(2),
            warmup: nomc_units::SimDuration::from_secs(1),
            seeds: vec![1, 2],
        };
        let s = stat_over_seeds(&cfg, scenario, SimResult::total_throughput);
        assert!(s.mean > 100.0, "mean {}", s.mean);
    }
}
