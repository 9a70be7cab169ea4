//! `sweep_ckpt`: one crash-safe sweep with mid-member checkpoints.
//!
//! `run_sweep` runs a fixed member list with a journal, a checkpoint
//! cadence, `shards: Some(2)` and one worker thread. Members alternate
//! two kinds:
//!
//! - the paper's coupled six-network 3 MHz DCN grid
//!   (`fig19::dcn_scenario`): one interaction component, so it takes
//!   the serial checkpoint path;
//! - six independent DCN networks, 25 MHz and 60 m apart with shadowing
//!   off: six components, so they take the sharded checkpoint path.
//!
//! Snapshot encode/restore, fsync and the shard merge do most of the
//! work here and none in `paper_quick`.

use crate::metrics::{Record, Tier};
use crate::sys::WorkDir;
use nomc_experiments::experiments::fig19;
use nomc_experiments::sweep::{self, checkpoint, AttemptOutcome, MemberReport, SweepConfig};
use nomc_phy::Shadowing;
use nomc_sim::scenario::Propagation;
use nomc_sim::{engine, NetworkBehavior, Scenario};
use nomc_topology::{Deployment, LinkSpec, NetworkSpec, Point};
use nomc_units::{Dbm, Megahertz, SimDuration};
use std::path::Path;
use std::time::Instant;

/// Members per sweep, alternating serial and sharded.
const MEMBERS: usize = 12;
/// Checkpoint cadence in events.
const CHECKPOINT_EVERY: u64 = 20_000;
/// Simulated time of a serial (coupled) member.
const SERIAL_MS: u64 = 6_000;
/// Simulated time of a sharded (independent) member.
const SHARDED_MS: u64 = 1_500;

/// Six independent DCN networks, 25 MHz and 60 m apart, shadowing off.
fn independent_scenario(seed: u64, millis: u64) -> Scenario {
    let specs = (0..6)
        .map(|i| {
            let freq = Megahertz::new(2410.0 + 25.0 * f64::from(i));
            let x = 60.0 * f64::from(i);
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
        .duration(SimDuration::from_millis(millis))
        .warmup(SimDuration::from_secs(1))
        .propagation(Propagation {
            shadowing: Shadowing::disabled(),
            ..Propagation::default()
        });
    b.build()
        .expect("the independent-networks scenario is valid")
}

/// The member list for `seed`: even members serial, odd members sharded.
fn members(seed: u64) -> Vec<Scenario> {
    (0..MEMBERS)
        .map(|i| {
            let s = crate::input_seed(seed, i as u64);
            if i % 2 == 0 {
                let mut sc = fig19::dcn_scenario(s);
                sc.duration = SimDuration::from_millis(SERIAL_MS);
                sc.warmup = SimDuration::from_secs(2);
                sc
            } else {
                independent_scenario(s, SHARDED_MS)
            }
        })
        .collect()
}

/// The sweep configuration, checkpointing into `dir`.
fn config(dir: &Path) -> SweepConfig {
    SweepConfig {
        threads: Some(1),
        shards: Some(2),
        checkpoint_every: Some(CHECKPOINT_EVERY),
        snapshot_dir: Some(dir.join("snapshots")),
        ..SweepConfig::default()
    }
}

/// The checkpoint path `sc` takes: sharded when its plan has more than
/// one interaction component.
fn kind(sc: &Scenario) -> &'static str {
    if engine::shard_plan(sc).len() > 1 {
        "sharded"
    } else {
        "serial"
    }
}

fn member_metrics_json(report: &MemberReport) -> Option<String> {
    match report.attempts.last().map(|a| &a.outcome) {
        Some(AttemptOutcome::Ok(m)) => Some(nomc_json::to_string(m)),
        _ => None,
    }
}

/// Checks every member of `report` ended `Ok` with the reference
/// metrics of an un-checkpointed run of the same member.
fn check_report(rec: &mut Record, report: &sweep::SweepReport, reference: &[Option<String>]) {
    for (i, m) in report.members.iter().enumerate() {
        let got = member_metrics_json(m);
        rec.check(
            got.is_some() && got.as_ref() == reference.get(i).and_then(Option::as_ref),
            || format!("sweep member {i} did not end Ok with the un-checkpointed metrics"),
        );
    }
}

/// What the timed phase needs, built by set-up.
struct Inputs {
    members: Vec<Scenario>,
    cfg: SweepConfig,
    journal: std::path::PathBuf,
    work: WorkDir,
}

fn prepare(seed: u64) -> Inputs {
    let members = members(seed);
    crate::warm_up(&members);
    let work = WorkDir::create("sweep_ckpt").expect("work directory is creatable");
    let cfg = config(work.path());
    let journal = work.path().join("sweep.jsonl");
    Inputs {
        members,
        cfg,
        journal,
        work,
    }
}

/// Runs the workload and fills `rec` for `tier`.
pub fn run(rec: &mut Record, seed: u64, seconds: f64, tier: Tier) {
    let (mut setup, inputs) = crate::Setup::start(|| prepare(seed));
    let Inputs {
        members,
        cfg,
        journal,
        work,
    } = &inputs;
    // The obliviousness contract's reference: each member run straight
    // through, without checkpoints, under the same sharding semantics.
    let plain = SweepConfig {
        checkpoint_every: None,
        snapshot_dir: None,
        ..cfg.clone()
    };
    let reference: Vec<Option<String>> = members
        .iter()
        .enumerate()
        .map(|(i, sc)| member_metrics_json(&sweep::run_one_member(sc, i, &plain, &mut [])))
        .collect();
    let sweep_once = |rec: &mut Record| match sweep::run_sweep(members, cfg, Some(journal), false) {
        Ok(report) => check_report(rec, &report, &reference),
        Err(e) => rec.check(false, || format!("run_sweep failed: {e}")),
    };
    match tier {
        Tier::EndToEnd => crate::passes(rec, seconds, &mut setup, sweep_once),
        Tier::PerLayer => {
            let ((), wall, _) = crate::timed(|| sweep_once(rec));
            rec.set("sweep_members_per_s", members.len() as f64 / wall);
            let mut member_total = 0.0;
            for (i, sc) in members.iter().enumerate() {
                member_total +=
                    replay_legs(rec, sc, i, cfg, &work.path().join("replay"), &reference);
            }
            rec.set("sweep.unaccounted_s", wall - member_total);
            shard_layer(rec, members, &reference);
            let components: Vec<Scenario> = members
                .iter()
                .flat_map(|sc| engine::shard_plan(sc).into_iter().map(|s| s.scenario))
                .collect();
            crate::profile_runs(rec, &components, 3);
        }
    }
    setup.finish(rec);
}

/// Replays one member's checkpoint-supervised legs the way the sweep
/// runs them, with a timer around every public call, and records the
/// `snapshot.*`, `checkpoint.*` and `sim.<kind>.leg_s` metrics. Each
/// leg resumes from the snapshot loaded back from disk, so load and
/// decode are timed too. Returns the time the sweep itself spends on
/// this member: legs, encodes and saves.
fn replay_legs(
    rec: &mut Record,
    sc: &Scenario,
    index: usize,
    cfg: &SweepConfig,
    dir: &Path,
    reference: &[Option<String>],
) -> f64 {
    let k = kind(sc);
    let hash = sweep::hash::member_hash_with(sc, cfg.base_budget, true);
    let (mut leg, mut encode, mut decode, mut save, mut load) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut count, mut bytes_total, mut bytes_max) = (0u64, 0u64, 0u64);
    let mut target = CHECKPOINT_EVERY;
    let t0 = Instant::now();
    let mut progress = engine::run_sharded_until(sc, &mut [], cfg.base_budget, target);
    leg += t0.elapsed().as_secs_f64();
    let result = loop {
        let snap = match progress {
            engine::RunProgress::Done(done) => break Some(done.result),
            engine::RunProgress::Paused(snap) => snap,
        };
        let (payload, t, _) = crate::timed(|| engine::snapshot(&snap));
        encode += t;
        count += 1;
        bytes_total += payload.len() as u64;
        bytes_max = bytes_max.max(payload.len() as u64);
        let (saved, t, _) = crate::timed(|| checkpoint::save(dir, hash, 0, target, &payload));
        save += t;
        let (loaded, t, _) = crate::timed(|| checkpoint::load(dir, hash));
        load += t;
        let (Ok(()), Ok(Some(recovered))) = (saved, loaded) else {
            break None;
        };
        let (restored, t, _) = crate::timed(|| engine::restore(&recovered.payload));
        decode += t;
        let Ok(restored) = restored else { break None };
        target += CHECKPOINT_EVERY;
        let t0 = Instant::now();
        let next = engine::resume_bounded(sc, restored, &mut [], target);
        leg += t0.elapsed().as_secs_f64();
        match next {
            Ok(next) => progress = next,
            Err(_) => break None,
        }
    };
    checkpoint::discard(dir, hash);
    let metrics = result.map(|r| nomc_json::to_string(&sweep::MemberMetrics::of(&r)));
    rec.check(
        metrics.is_some() && metrics.as_ref() == reference.get(index).and_then(Option::as_ref),
        || format!("replayed legs of member {index} differ from the un-checkpointed run"),
    );
    rec.add(format!("snapshot.{k}.count"), count as f64);
    rec.add(format!("snapshot.{k}.bytes_total"), bytes_total as f64);
    let max = rec.get(&format!("snapshot.{k}.bytes_max")).unwrap_or(0.0);
    rec.set(format!("snapshot.{k}.bytes_max"), max.max(bytes_max as f64));
    rec.add(format!("snapshot.{k}.encode_s"), encode);
    rec.add(format!("snapshot.{k}.decode_s"), decode);
    rec.add(format!("checkpoint.{k}.save_s"), save);
    rec.add(format!("checkpoint.{k}.load_s"), load);
    rec.add(format!("sim.{k}.leg_s"), leg);
    leg + encode + save
}

/// The `shard.*` metrics over the sharded members: plan size and time,
/// and an un-checkpointed sharded run on two threads and on one, both
/// checked against the reference.
fn shard_layer(rec: &mut Record, members: &[Scenario], reference: &[Option<String>]) {
    let (mut plan_s, mut run_s, mut run_1t_s) = (0.0, 0.0, 0.0);
    for (i, sc) in members.iter().enumerate() {
        let (plan, t, _) = crate::timed(|| engine::shard_plan(sc));
        if plan.len() <= 1 {
            continue;
        }
        plan_s += t;
        rec.add("shard.components", plan.len() as f64);
        let (two, t, _) = crate::timed(|| engine::run_sharded(sc, 2));
        run_s += t;
        let (one, t, _) = crate::timed(|| engine::run_sharded(sc, 1));
        run_1t_s += t;
        let two_metrics = nomc_json::to_string(&sweep::MemberMetrics::of(&two));
        rec.check(
            nomc_json::to_string(&two) == nomc_json::to_string(&one)
                && Some(&two_metrics) == reference.get(i).and_then(Option::as_ref),
            || format!("sharded run of member {i} depends on threads or differs from the sweep"),
        );
    }
    rec.set("shard.plan_s", plan_s);
    rec.set("shard.run_s", run_s);
    rec.set("shard.run_1t_s", run_1t_s);
}
