//! Simulation-runtime kernels: the two workloads that dominate real
//! sweeps.
//!
//! * `power_sense_heavy` — six DCN networks on a 3 MHz grid; during the
//!   1 s initializing phase every sender samples in-channel power every
//!   1 ms (the paper's T_I rule), so the run is dominated by
//!   `Medium::sensed_total` queries.
//! * `saturated_2link` — one network, two saturated links: the plain
//!   CSMA/CA contention kernel (CCA + decode path).
//! * `fault_heavy` — the `power_sense_heavy` workload under a dense
//!   fault plan (staggered crash/reboot cycles, pulsed jammers, RSSI
//!   drifts, stuck-CCA windows), pinning the overhead of the fault
//!   layer itself; the fault-free kernels above double as the
//!   no-regression guard for runs with an empty plan.
//! * `sharded_power_sense_heavy` / `sharded_serial_baseline` — six
//!   *independent* networks (25 MHz apart, 60 m apart, shadowing off)
//!   through the sharded engine on 4 worker threads vs 1; on a
//!   multi-core machine the ratio is the shard-parallelism speedup, and
//!   the 1-thread run pins the merge/relay overhead.
//! * `sharded_saturated` — the deliberately-coupled counterpart: the
//!   `power_sense_heavy` six-network 3 MHz grid through `run_sharded`,
//!   which collapses to a single component, so the bench pins the
//!   partition-planning + delegation overhead on coupled workloads.
//! * `snapshot_roundtrip` — one mid-run engine checkpoint priced end to
//!   end: serialize a paused `power_sense_heavy` run to its JSON wire
//!   format and restore it back.
//! * `checkpoint_overhead` — the same workload run under full
//!   checkpoint supervision (pause every 4 000 events, atomic
//!   save + fsync through the sweep checkpoint store, reload, resume);
//!   compare against `power_sense_heavy` for the supervision premium.
//!   With checkpointing off the engine never touches this code, so the
//!   plain kernels above double as the zero-regression guard.
//! * `sharded_checkpoint_overhead` — the same supervision loop through
//!   `run_sharded_until` on the six-independent-network workload:
//!   compare against `sharded_serial_baseline` for the premium of
//!   sharded snapshots.
//!
//! `cargo bench -p nomc-bench --bench sim` writes `BENCH_sim.json` with
//! wall-clock per run and events/sec, the perf-trajectory record ci.sh
//! smoke-checks.

use nomc_bench::harness::Criterion;
use nomc_bench::{criterion_group, criterion_main, run_shrunk, shrink};
use nomc_phy::Shadowing;
use nomc_sim::scenario::Propagation;
use nomc_sim::{
    engine, CrashFault, DriftFault, FaultPlan, JammerFault, NetworkBehavior, Scenario,
    StuckCcaFault,
};
use nomc_topology::spectrum::ChannelPlan;
use nomc_topology::{paper, Deployment, LinkSpec, NetworkSpec, Point};
use nomc_units::{Db, Dbm, Megahertz, SimDuration, SimTime};
use std::hint::black_box;

/// Six networks on the paper's 15 MHz band at 3 MHz spacing, all DCN.
fn power_sense_heavy_scenario(seed: u64) -> Scenario {
    let plan = ChannelPlan::with_count(Megahertz::new(2450.0), Megahertz::new(3.0), 6);
    let mut b = Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
    b.behavior_all(NetworkBehavior::dcn_default()).seed(seed);
    b.build().expect("valid bench scenario")
}

/// One network, two saturated links, fixed ZigBee threshold.
fn saturated_2link_scenario(seed: u64) -> Scenario {
    let plan = ChannelPlan::with_count(Megahertz::new(2460.0), Megahertz::new(5.0), 1);
    let mut b = Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
    b.seed(seed);
    b.build().expect("valid bench scenario")
}

/// `power_sense_heavy` plus a dense fault plan: every fault type fires
/// inside the shrunken 1.5 s bench window (senders sit at even global
/// indices — 24 nodes across the six two-link networks).
fn fault_heavy_scenario(seed: u64) -> Scenario {
    let at = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
    let mut sc = power_sense_heavy_scenario(seed);
    sc.faults = FaultPlan {
        crashes: vec![
            CrashFault {
                node: 0,
                at: at(600),
                down_for: SimDuration::from_millis(200),
            },
            CrashFault {
                node: 8,
                at: at(900),
                down_for: SimDuration::from_millis(200),
            },
        ],
        jammers: vec![
            JammerFault {
                frequency: Megahertz::new(2450.0),
                power: Dbm::new(-70.0),
                at: at(700),
                duration: SimDuration::from_millis(300),
            },
            JammerFault {
                frequency: Megahertz::new(2459.0),
                power: Dbm::new(-72.0),
                at: at(1000),
                duration: SimDuration::from_millis(200),
            },
        ],
        drifts: vec![
            DriftFault {
                node: 4,
                at: at(500),
                ramp: SimDuration::from_millis(300),
                peak: Db::new(2.0),
            },
            DriftFault {
                node: 12,
                at: at(800),
                ramp: SimDuration::ZERO,
                peak: Db::new(-3.0),
            },
        ],
        stuck_cca: vec![
            StuckCcaFault {
                node: 16,
                at: at(650),
                duration: SimDuration::from_millis(250),
            },
            StuckCcaFault {
                node: 20,
                at: at(1100),
                duration: SimDuration::from_millis(150),
            },
        ],
    };
    sc
}

/// Six fully-independent DCN networks: 25 MHz channel spacing (past the
/// 9 MHz ACR saturation), 60 m apart, shadowing disabled — the planner
/// splits them into six shards, so worker threads can run them
/// concurrently on a multi-core machine.
fn sharded_independent_scenario(seed: u64) -> Scenario {
    let specs = (0..6)
        .map(|i| {
            let freq = Megahertz::new(2410.0 + 25.0 * i as f64);
            let x = 60.0 * i as f64;
            let links = vec![
                LinkSpec::new(Point::new(x, 0.0), Point::new(x + 2.0, 0.0), Dbm::new(0.0)),
                LinkSpec::new(Point::new(x, 1.0), Point::new(x + 2.0, 1.0), Dbm::new(0.0)),
            ];
            NetworkSpec::new(freq, links)
        })
        .collect();
    let mut b = Scenario::builder(Deployment::new(specs));
    b.behavior_all(NetworkBehavior::dcn_default())
        .seed(seed)
        .propagation(Propagation {
            shadowing: Shadowing::disabled(),
            ..Propagation::default()
        });
    b.build().expect("valid bench scenario")
}

/// One checkpoint-supervised run of `sc`: pause every `cadence`
/// events, persist the snapshot through the sweep checkpoint store
/// (atomic tmp + fsync + rename), reload and restore it from disk, and
/// resume — the exact per-leg cost a `--checkpoint-every` sweep member
/// pays for durability, on the serial or the sharded engine.
fn run_checkpointed(
    sc: &Scenario,
    dir: &std::path::Path,
    cadence: u64,
    sharded: bool,
) -> nomc_sim::SimResult {
    use nomc_experiments::sweep::checkpoint;
    const KEY: u64 = 0xbe7c_0de5;
    let mut target = cadence;
    let mut progress = if sharded {
        engine::run_sharded_until(sc, &mut [], u64::MAX, target)
    } else {
        engine::run_until(sc, &mut [], u64::MAX, target)
    };
    loop {
        match progress {
            engine::RunProgress::Paused(snap) => {
                checkpoint::save(dir, KEY, 0, target, &engine::snapshot(&snap))
                    .expect("bench checkpoint saves");
                let rec = checkpoint::load(dir, KEY)
                    .expect("bench checkpoint loads")
                    .expect("bench checkpoint exists");
                let restored = engine::restore(&rec.payload).expect("bench checkpoint restores");
                target += cadence;
                progress = engine::resume_bounded(sc, restored, &mut [], target)
                    .expect("bench checkpoint resumes");
            }
            engine::RunProgress::Done(done) => {
                checkpoint::discard(dir, KEY);
                return done.result;
            }
        }
    }
}

fn bench_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim");
    g.sample_size(10);
    for (name, sc) in [
        ("power_sense_heavy", power_sense_heavy_scenario(1)),
        ("saturated_2link", saturated_2link_scenario(1)),
        ("fault_heavy", fault_heavy_scenario(1)),
    ] {
        let events = engine::run(&shrink(sc.clone())).events;
        g.throughput(events);
        g.bench_function(name, |b| b.iter(|| black_box(run_shrunk(sc.clone()))));
    }
    // Sharded-engine kernels: the independent workload at 4 worker
    // threads vs 1 (the ratio is the shard speedup on a multi-core
    // machine; at 1 thread it pins the relay/merge overhead), and the
    // coupled workload, which delegates — pinning plan() + delegation.
    let independent = sharded_independent_scenario(1);
    let coupled = power_sense_heavy_scenario(1);
    for (name, sc, threads) in [
        ("sharded_power_sense_heavy", &independent, 4),
        ("sharded_serial_baseline", &independent, 1),
        ("sharded_saturated", &coupled, 1),
    ] {
        let shrunk = shrink(sc.clone());
        g.throughput(engine::run_sharded(&shrunk, threads).events);
        g.bench_function(name, |b| {
            b.iter(|| black_box(engine::run_sharded(&shrunk, threads)))
        });
    }
    // Snapshot/checkpoint kernels (DESIGN.md §14): the serialization
    // round-trip alone, then a fully supervised run.
    let shrunk = shrink(power_sense_heavy_scenario(1));
    let paused = match engine::run_until(&shrunk, &mut [], u64::MAX, 10_000) {
        engine::RunProgress::Paused(p) => p,
        engine::RunProgress::Done(_) => panic!("the shrunken bench run has well over 10k events"),
    };
    let wire_bytes = engine::snapshot(&paused).len() as u64;
    g.throughput(wire_bytes);
    g.bench_function("snapshot_roundtrip", |b| {
        b.iter(|| {
            let text = engine::snapshot(&paused);
            black_box(engine::restore(&text).expect("snapshot text round-trips"))
        })
    });
    let dir = std::env::temp_dir().join("nomc-bench-checkpoints");
    std::fs::create_dir_all(&dir).expect("bench checkpoint dir creatable");
    g.throughput(engine::run(&shrunk).events);
    g.bench_function("checkpoint_overhead", |b| {
        b.iter(|| black_box(run_checkpointed(&shrunk, &dir, 4_000, false)))
    });
    let shrunk = shrink(independent);
    g.throughput(engine::run_sharded(&shrunk, 1).events);
    g.bench_function("sharded_checkpoint_overhead", |b| {
        b.iter(|| black_box(run_checkpointed(&shrunk, &dir, 4_000, true)))
    });
    g.finish();
}

criterion_group!(sim, bench_sim);
criterion_main!(sim);
