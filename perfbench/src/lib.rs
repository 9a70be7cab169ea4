//! End-to-end and per-layer benchmark of the nomc reproduction.
//!
//! The benchmark is a client of the workspace crates: it times calls
//! into their public functions and attaches a [`profile::ProfileObserver`]
//! through the public observer interface. Nothing here adds a clock or a
//! counter to the program. See `README.md` for the workloads, the
//! metric table and how to run it.

pub mod metrics;
pub mod paper;
pub mod profile;
pub mod serve;
pub mod stats;
pub mod sweep;
pub mod sys;

use metrics::Record;
use nomc_sim::{engine, Scenario};
use std::time::Instant;

/// How many times set-up is repeated at least; `setup_s` is the median.
pub const SETUP_REPS: usize = 15;

/// Set-up repetitions made before the timed phase. The rest follow the
/// timed passes, so that `setup_s` samples the same stretch of host time
/// as `wall_s` rather than only the run's first second: on a shared
/// host the CPU's speed shifts by a fifth or more within a minute.
const SETUP_BEFORE: usize = SETUP_REPS / 2 + 1;

/// Runs `f` and returns its value with the wall and CPU seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let value = f();
    (value, t0.elapsed().as_secs_f64(), sys::cpu_seconds() - cpu0)
}

/// A workload's set-up and the times of its repetitions.
pub struct Setup<F> {
    make: F,
    times: Vec<f64>,
}

impl<T, F: FnMut() -> T> Setup<F> {
    /// Runs set-up [`SETUP_BEFORE`] times and keeps the last result.
    pub fn start(make: F) -> (Setup<F>, T) {
        let mut setup = Setup {
            make,
            times: Vec::with_capacity(SETUP_REPS),
        };
        let mut last = setup.time();
        for _ in 1..SETUP_BEFORE {
            // Tearing down the previous repetition is not set-up.
            drop(last);
            last = setup.time();
        }
        (setup, last)
    }

    fn time(&mut self) -> T {
        let t0 = Instant::now();
        let value = (self.make)();
        self.times.push(t0.elapsed().as_secs_f64());
        value
    }

    /// One more timed repetition; its result is torn down untimed.
    pub fn again(&mut self) {
        drop(self.time());
    }

    /// Repeats set-up until it ran [`SETUP_REPS`] times and records the
    /// median as `setup_s`.
    pub fn finish(mut self, rec: &mut Record) {
        while self.times.len() < SETUP_REPS {
            self.again();
        }
        rec.set("setup_s", stats::median(&self.times));
    }
}

/// Repeats `pass` while another pass of the median length still fits in
/// `seconds` (at least once), with one set-up repetition after each, and
/// records the median pass wall and CPU time as `wall_s` and `cpu_s`.
pub fn passes<T, F: FnMut() -> T>(
    rec: &mut Record,
    seconds: f64,
    setup: &mut Setup<F>,
    mut pass: impl FnMut(&mut Record),
) {
    let start = Instant::now();
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    loop {
        let ((), wall, cpu) = timed(|| pass(rec));
        eprintln!(
            "perfbench: pass {}: wall {wall:.4} s, cpu {cpu:.4} s",
            walls.len() + 1
        );
        walls.push(wall);
        cpus.push(cpu);
        setup.again();
        if start.elapsed().as_secs_f64() + stats::median(&walls) > seconds {
            break;
        }
    }
    rec.set("wall_s", stats::median(&walls));
    rec.set("cpu_s", stats::median(&cpus));
    eprintln!("perfbench: {} timed passes", walls.len());
}

/// Runs each of `scenarios` for one simulated second, so code and
/// allocator are faulted in before anything is timed.
pub fn warm_up(scenarios: &[Scenario]) {
    for sc in scenarios {
        let mut short = sc.clone();
        short.duration = nomc_units::SimDuration::from_secs(1);
        short.warmup = nomc_units::SimDuration::from_millis(500);
        std::hint::black_box(engine::run(&short));
    }
}

/// A 64-bit mix of `seed` and `tag` (SplitMix64 finaliser), for
/// deriving input seeds from the workload seed.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An input seed derived from the workload seed, kept below 2^63 so
/// that it reads back exactly from JSON as a signed or unsigned integer.
pub fn input_seed(seed: u64, tag: u64) -> u64 {
    derive_seed(seed, tag) >> 1
}

/// Profiles `scenarios` through [`engine::run_with`] with a
/// [`profile::ProfileObserver`] and records `sim.*`: exact event counts
/// per variant, median self time per variant over `reps` repetitions,
/// and `sim.trace_overhead_frac`, the traced over the untraced wall of
/// the same runs, minus 1. Checks that each traced result equals the
/// untraced one and that the counts repeat and sum to the events run.
pub fn profile_runs(rec: &mut Record, scenarios: &[Scenario], reps: usize) {
    use profile::{ProfileObserver, VARIANTS};
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut profiles: Vec<ProfileObserver> = Vec::new();
    let mut events_per_rep = Vec::new();
    for rep in 0..reps {
        let mut run_plain = || {
            let t0 = Instant::now();
            let results: Vec<String> = scenarios
                .iter()
                .map(|sc| nomc_json::to_string(&engine::run(sc)))
                .collect();
            plain_walls.push(t0.elapsed().as_secs_f64());
            results
        };
        // Alternate which side runs first, so warm caches favour neither.
        let plain_first = rep % 2 == 0;
        let mut plain = if plain_first { run_plain() } else { Vec::new() };
        let mut prof = ProfileObserver::default();
        let t0 = Instant::now();
        let traced: Vec<nomc_sim::SimResult> = scenarios
            .iter()
            .map(|sc| engine::run_with(sc, &mut [&mut prof]))
            .collect();
        traced_walls.push(t0.elapsed().as_secs_f64());
        if !plain_first {
            plain = run_plain();
        }
        let events: u64 = traced.iter().map(|r| r.events).sum();
        let same = traced
            .iter()
            .zip(&plain)
            .all(|(t, p)| nomc_json::to_string(t) == *p);
        rec.check(same, || {
            format!("traced run differs from untraced (rep {rep})")
        });
        rec.check(prof.total() == events, || {
            format!("profile counted {} events of {events}", prof.total())
        });
        if let Some(first) = profiles.first() {
            rec.check(first.counts() == prof.counts(), || {
                format!("event counts changed between repetitions (rep {rep})")
            });
        }
        events_per_rep.push(events);
        profiles.push(prof);
    }
    let Some(first) = profiles.first() else {
        return;
    };
    rec.add("sim.events", events_per_rep[0] as f64);
    for (i, v) in VARIANTS.iter().enumerate() {
        rec.add(format!("sim.{v}.count"), first.counts()[i] as f64);
        let times: Vec<f64> = profiles
            .iter()
            .map(|p| p.self_time()[i].as_secs_f64())
            .collect();
        rec.add(format!("sim.{v}.self_s"), stats::median(&times));
    }
    rec.set(
        "sim.trace_overhead_frac",
        stats::median(&traced_walls) / stats::median(&plain_walls) - 1.0,
    );
}
