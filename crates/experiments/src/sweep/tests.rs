//! Sweep supervisor tests: scheduler determinism across thread counts,
//! resume semantics, deterministic retries, and `check`-harness
//! property tests hammering the journal resume path with corruption.

use super::report::{AttemptOutcome, MemberMetrics};
use super::{hash, journal, run_sweep, seed_members, SweepConfig, SweepError};
use crate::runner;
use nomc_rngcore::check::{forall, range, zip2};
use nomc_sim::{engine, Scenario};
use nomc_topology::{paper, spectrum::ChannelPlan};
use nomc_units::{Dbm, Megahertz, SimDuration};
use std::path::PathBuf;

fn base_scenario() -> Scenario {
    let plan = ChannelPlan::with_count(Megahertz::new(2460.0), Megahertz::new(5.0), 1);
    let mut b = Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
    b.duration(SimDuration::from_secs(2))
        .warmup(SimDuration::from_secs(1));
    b.build().expect("valid test scenario")
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("nomc-sweep-tests");
    std::fs::create_dir_all(&dir).expect("tempdir creatable");
    dir.join(name)
}

fn cfg_with_threads(threads: usize) -> SweepConfig {
    SweepConfig {
        threads: Some(threads),
        ..SweepConfig::default()
    }
}

#[test]
fn sharded_sweep_matches_serial_and_refuses_serial_journals() {
    // The base scenario is one network — a single-component plan — so
    // the sharded engine delegates to the serial one and member results
    // must be bit-identical. The journals still must not cross: the
    // sharded member hash carries the execution-mode marker.
    let members = seed_members(&base_scenario(), &[1, 2]);
    let serial = run_sweep(&members, &SweepConfig::default(), None, false).expect("serial sweep");
    let sharded_cfg = SweepConfig {
        shards: Some(2),
        ..SweepConfig::default()
    };
    let sharded = run_sweep(&members, &sharded_cfg, None, false).expect("sharded sweep");
    for (a, b) in serial.members.iter().zip(&sharded.members) {
        assert_eq!(a.attempts, b.attempts, "member {} diverged", a.member);
        assert_ne!(a.hash, b.hash, "execution modes must not share keys");
    }
    assert_ne!(serial.sweep_hash, sharded.sweep_hash);

    // A journal written serially is a typed StaleJournal for a sharded
    // resume, never a silent replay.
    let path = temp_path("serial-vs-sharded.jsonl");
    run_sweep(&members, &SweepConfig::default(), Some(&path), false).expect("journaled serial");
    let err = run_sweep(&members, &sharded_cfg, Some(&path), true).expect_err("must refuse");
    assert!(matches!(err, SweepError::StaleJournal { .. }), "{err}");
}

#[test]
fn fresh_sweep_matches_run_outcomes_bit_identically() {
    let members = seed_members(&base_scenario(), &[1, 2, 3]);
    let report = run_sweep(&members, &SweepConfig::default(), None, false).expect("no journal");
    let outcomes = runner::run_outcomes(&members, u64::MAX);
    assert_eq!(report.members.len(), 3);
    for (m, o) in report.members.iter().zip(&outcomes) {
        let result = o.result().expect("healthy scenarios complete");
        // Exact f64 equality: the sweep runs the very same engine path.
        assert_eq!(m.metrics(), Some(&MemberMetrics::of(result)));
        assert_eq!(m.attempts.len(), 1);
    }
    assert_eq!(report.counts().ok, 3);
}

#[test]
fn thread_count_does_not_change_journal_or_report() {
    let members = seed_members(&base_scenario(), &[1, 2, 3, 4, 5, 6]);
    let mut artifacts = Vec::new();
    for threads in [1, 2, 8] {
        let path = temp_path(&format!("threads_{threads}.jsonl"));
        let report = run_sweep(&members, &cfg_with_threads(threads), Some(&path), false)
            .expect("sweep runs");
        let journal_bytes = std::fs::read(&path).expect("journal written");
        artifacts.push((report.to_json_string(), journal_bytes));
    }
    let (first_report, first_journal) = artifacts.first().expect("three runs").clone();
    for (report, journal_bytes) in &artifacts {
        assert_eq!(report, &first_report, "reports must be byte-identical");
        assert_eq!(
            journal_bytes, &first_journal,
            "journals must be byte-identical"
        );
    }
}

#[test]
fn resume_skips_recorded_members_and_report_is_byte_identical() {
    let members = seed_members(&base_scenario(), &[1, 2, 3, 4]);
    let cfg = cfg_with_threads(2);

    // The uninterrupted reference run.
    let full_path = temp_path("resume_full.jsonl");
    let full = run_sweep(&members, &cfg, Some(&full_path), false).expect("full run");

    // Simulate a crash after two members: keep only members 0 and 2 of
    // the reference journal (slot order, like a mid-run checkpoint).
    let crashed_path = temp_path("resume_crashed.jsonl");
    let text = std::fs::read_to_string(&full_path).expect("journal readable");
    let kept: Vec<&str> = text
        .lines()
        .filter(|l| !l.contains("\"member\":1") && !l.contains("\"member\":3"))
        .collect();
    std::fs::write(&crashed_path, kept.join("\n") + "\n").expect("partial journal written");

    let resumed = run_sweep(&members, &cfg, Some(&crashed_path), true).expect("resume");
    assert_eq!(
        resumed.to_json_string(),
        full.to_json_string(),
        "resumed report must be byte-identical to the uninterrupted one"
    );
    assert_eq!(
        std::fs::read(&crashed_path).expect("resumed journal"),
        std::fs::read(&full_path).expect("full journal"),
        "resumed journal must converge to the uninterrupted one"
    );
}

#[test]
fn without_resume_an_existing_journal_is_overwritten() {
    let members = seed_members(&base_scenario(), &[1, 2]);
    let path = temp_path("no_resume.jsonl");
    std::fs::write(&path, "garbage that is not even a header\n").expect("seeded");
    let report = run_sweep(&members, &cfg_with_threads(1), Some(&path), false).expect("runs");
    assert_eq!(report.counts().ok, 2);
    let text = std::fs::read_to_string(&path).expect("journal");
    assert!(text.starts_with("{\"nomc_sweep_journal\":1"), "{text}");
}

#[test]
fn stale_journal_is_a_typed_error_on_resume() {
    let members = seed_members(&base_scenario(), &[1, 2]);
    let path = temp_path("stale.jsonl");
    run_sweep(&members, &cfg_with_threads(1), Some(&path), false).expect("first run");
    // Edit the sweep (different seed list) and resume against the old
    // journal: the sweep hash no longer matches.
    let edited = seed_members(&base_scenario(), &[7, 8]);
    let err = run_sweep(&edited, &cfg_with_threads(1), Some(&path), true).expect_err("stale");
    assert!(matches!(err, SweepError::StaleJournal { .. }), "{err:?}");
}

#[test]
fn timed_out_member_retries_with_doubled_budget_until_it_completes() {
    let members = seed_members(&base_scenario(), &[7]);
    let natural = engine::run(members.first().expect("one member")).events;
    // Start far below the natural event count; doubling must cross it.
    let cfg = SweepConfig {
        retries: 16,
        base_budget: 100,
        threads: Some(1),
        shards: None,
        checkpoint_every: None,
        snapshot_dir: None,
    };
    let report = run_sweep(&members, &cfg, None, false).expect("sweep runs");
    let member = report.members.first().expect("one member");
    assert!(member.was_retried());
    let attempts = &member.attempts;
    for (i, a) in attempts.iter().enumerate() {
        assert_eq!(a.budget, 100u64 << i, "budget escalates by doubling");
        let last = i + 1 == attempts.len();
        match &a.outcome {
            AttemptOutcome::TimedOut { events } => {
                assert!(!last, "final attempt must have completed");
                assert_eq!(*events, a.budget);
            }
            AttemptOutcome::Ok(m) => {
                assert!(last);
                assert_eq!(m.events, natural, "completion is the natural run");
            }
            AttemptOutcome::Failed(msg) => panic!("unexpected failure: {msg}"),
        }
    }
    let counts = report.counts();
    assert_eq!((counts.ok, counts.retried), (1, 1));
}

/// A tempdir for one test's member checkpoints, wiped up front.
fn snapshot_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nomc-sweep-ckpt-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("snapshot dir creatable");
    dir
}

fn checkpointed_cfg(tag: &str, every: u64) -> SweepConfig {
    SweepConfig {
        threads: Some(1),
        checkpoint_every: Some(every),
        snapshot_dir: Some(snapshot_dir(tag)),
        ..SweepConfig::default()
    }
}

/// `.ckpt.json` files currently in a snapshot directory.
fn checkpoint_files(dir: &PathBuf) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.to_string_lossy().ends_with(".ckpt.json"))
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn checkpointed_sweep_is_byte_identical_to_plain_and_cleans_up() {
    let members = seed_members(&base_scenario(), &[1, 2, 3]);
    let plain = run_sweep(&members, &cfg_with_threads(1), None, false).expect("plain sweep");
    let cfg = checkpointed_cfg("identical", 5_000);
    let checkpointed = run_sweep(&members, &cfg, None, false).expect("checkpointed sweep");
    assert_eq!(
        checkpointed.to_json_string(),
        plain.to_json_string(),
        "checkpoint supervision must not change the report by a byte"
    );
    // Every member concluded, so every checkpoint was discarded.
    let dir = cfg.snapshot_dir.expect("configured above");
    assert_eq!(checkpoint_files(&dir), Vec::<PathBuf>::new());
}

#[test]
fn planted_mid_member_checkpoint_resumes_to_the_uninterrupted_report() {
    let members = seed_members(&base_scenario(), &[1, 2]);
    let plain = run_sweep(&members, &cfg_with_threads(1), None, false).expect("plain sweep");

    // Simulate a SIGKILL mid-member: run member 0 partway through this
    // sweep's own cadence, persist its engine snapshot exactly as the
    // supervisor would, then start the sweep against that directory.
    let cfg = checkpointed_cfg("resume", 4_000);
    let dir = cfg.snapshot_dir.clone().expect("configured above");
    let first = members.first().expect("two members");
    let mh = hash::member_hash_with(first, cfg.base_budget, false);
    let engine::RunProgress::Paused(snap) =
        engine::run_until(first, &mut [], cfg.base_budget, 4_000)
    else {
        panic!("scenario must outlast one cadence");
    };
    super::checkpoint::save(&dir, mh, 0, 4_000, &engine::snapshot(&snap)).expect("planted");

    let resumed = run_sweep(&members, &cfg, None, false).expect("resumed sweep");
    assert_eq!(
        resumed.to_json_string(),
        plain.to_json_string(),
        "a member resumed mid-flight must reproduce the uninterrupted report"
    );
    assert_eq!(checkpoint_files(&dir), Vec::<PathBuf>::new());
}

/// Two DCN networks 25 MHz and 60 m apart with shadowing off: two
/// interaction components, so `shards: Some(_)` members take the
/// sharded checkpoint path.
fn independent_scenario() -> Scenario {
    use nomc_topology::{Deployment, LinkSpec, NetworkSpec, Point};
    let specs = (0..2)
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
    b.behavior_all(nomc_sim::NetworkBehavior::dcn_default())
        .duration(SimDuration::from_secs(2))
        .warmup(SimDuration::from_secs(1))
        .propagation(nomc_sim::scenario::Propagation {
            shadowing: nomc_phy::Shadowing::disabled(),
            ..nomc_sim::scenario::Propagation::default()
        });
    b.build().expect("valid independent scenario")
}

#[test]
fn version_one_sharded_checkpoint_degrades_to_a_clean_rerun() {
    // A checkpoint written before the sharded snapshot layout changed
    // (format version 1) must be discarded and the member re-run from
    // scratch, with a report byte-identical to the plain sharded sweep.
    let members = seed_members(&independent_scenario(), &[1, 2]);
    let first = members.first().expect("two members");
    assert_eq!(engine::shard_plan(first).len(), 2, "must actually shard");
    let plain_cfg = SweepConfig {
        shards: Some(2),
        ..cfg_with_threads(1)
    };
    let plain = run_sweep(&members, &plain_cfg, None, false).expect("plain sweep");
    let cfg = SweepConfig {
        shards: Some(2),
        ..checkpointed_cfg("version-one", 4_000)
    };
    let dir = cfg.snapshot_dir.clone().expect("configured above");
    let mh = hash::member_hash_with(first, cfg.base_budget, true);
    let engine::RunProgress::Paused(snap) =
        engine::run_sharded_until(first, &mut [], cfg.base_budget, 4_000)
    else {
        panic!("scenario must outlast one cadence");
    };
    let text = engine::snapshot(&snap);
    let old = text.replacen("\"version\":2", "\"version\":1", 1);
    assert_ne!(text, old, "snapshot must carry format version 2");
    super::checkpoint::save(&dir, mh, 0, 4_000, &old).expect("planted");

    let report = run_sweep(&members, &cfg, None, false).expect("sweep survives an old checkpoint");
    assert_eq!(report.to_json_string(), plain.to_json_string());
    assert_eq!(checkpoint_files(&dir), Vec::<PathBuf>::new());
}

#[test]
fn corrupt_or_alien_checkpoints_degrade_to_a_clean_rerun() {
    let members = seed_members(&base_scenario(), &[5]);
    let plain = run_sweep(&members, &cfg_with_threads(1), None, false).expect("plain sweep");
    let cfg = checkpointed_cfg("corrupt", 4_000);
    let dir = cfg.snapshot_dir.clone().expect("configured above");
    let first = members.first().expect("one member");
    let mh = hash::member_hash_with(first, cfg.base_budget, false);
    // Not even JSON: load fails typed, the member reruns clean.
    std::fs::write(super::checkpoint::path_for(&dir, mh), b"\x00garbage\xff").expect("planted");
    let report = run_sweep(&members, &cfg, None, false).expect("sweep survives corruption");
    assert_eq!(report.to_json_string(), plain.to_json_string());

    // A checkpoint from a *later* attempt must not leak into attempt 0.
    let engine::RunProgress::Paused(snap) =
        engine::run_until(first, &mut [], cfg.base_budget, 4_000)
    else {
        panic!("scenario must outlast one cadence");
    };
    super::checkpoint::save(&dir, mh, 3, 4_000, &engine::snapshot(&snap)).expect("planted");
    let report = run_sweep(&members, &cfg, None, false).expect("sweep ignores later attempt");
    assert_eq!(report.to_json_string(), plain.to_json_string());
    assert_eq!(checkpoint_files(&dir), Vec::<PathBuf>::new());
}

#[test]
fn checkpointed_retry_ladder_matches_the_plain_one() {
    // The doubling-retry path under checkpoint supervision: a timed-out
    // attempt's last checkpoint carries into the retry (resumed under
    // the doubled budget), and the recorded attempt history must still
    // be indistinguishable from the unsupervised ladder.
    let members = seed_members(&base_scenario(), &[7]);
    let mut plain_cfg = cfg_with_threads(1);
    plain_cfg.retries = 16;
    plain_cfg.base_budget = 100;
    let plain = run_sweep(&members, &plain_cfg, None, false).expect("plain ladder");
    let cfg = SweepConfig {
        retries: 16,
        base_budget: 100,
        // A cadence below the base budget, so even the first attempt
        // checkpoints before timing out.
        ..checkpointed_cfg("ladder", 30)
    };
    let checkpointed = run_sweep(&members, &cfg, None, false).expect("checkpointed ladder");
    assert_eq!(
        checkpointed.to_json_string(),
        plain.to_json_string(),
        "retry ladder must not notice checkpoint supervision"
    );
    assert!(
        checkpointed
            .members
            .first()
            .expect("one member")
            .was_retried(),
        "the ladder must actually have retried"
    );
}

#[test]
fn failed_member_is_counted_and_stat_still_refuses_thin_samples() {
    let mut bad = base_scenario();
    bad.behaviors.pop(); // deterministic engine panic (builder invariant broken)
    let members = vec![base_scenario(), bad];
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = run_sweep(
        &members,
        &SweepConfig {
            retries: 2,
            ..cfg_with_threads(1)
        },
        None,
        false,
    )
    .expect("sweep survives a panicking member");
    std::panic::set_hook(prev);
    let counts = report.counts();
    assert_eq!((counts.ok, counts.failed, counts.retried), (1, 1, 1));
    let failed = report.members.get(1).expect("two members");
    assert_eq!(failed.attempts.len(), 3, "all retries recorded");
    // Only one member completed: the reducer must refuse, typed.
    assert_eq!(
        report.throughput_stat(),
        Err(SweepError::TooFewSamples {
            completed: 1,
            members: 2,
        })
    );
}

/// A small synthetic sweep (no engine runs) for corruption properties.
fn synthetic_journal() -> (String, u64, Vec<u64>) {
    let hashes: Vec<u64> = (0..4).map(|i| 0x1000 + i as u64).collect();
    let sweep = hash::sweep_hash(&hashes);
    let members: Vec<Option<super::MemberReport>> = hashes
        .iter()
        .enumerate()
        .map(|(i, &h)| {
            Some(super::MemberReport {
                member: i,
                hash: h,
                attempts: vec![super::AttemptRecord {
                    budget: 1_000_000,
                    outcome: AttemptOutcome::Ok(MemberMetrics {
                        throughput: 100.25 + i as f64,
                        prr: Some(0.875),
                        events: 12_345 + i as u64,
                        measured_secs: nomc_units::Seconds::new(15.0),
                    }),
                }],
            })
        })
        .collect();
    (journal::render(sweep, None, &members), sweep, hashes)
}

#[test]
fn prop_truncated_journals_never_panic_and_recover_a_faithful_prefix() {
    let (text, sweep, hashes) = synthetic_journal();
    let pristine = journal::parse(&text, sweep, &hashes).expect("pristine parses");
    forall("journal_truncation", 200, &range(0..text.len()), |&cut| {
        let truncated = &text[..cut];
        match journal::parse(truncated, sweep, &hashes) {
            // Cut inside the header: the file is untrustworthy and
            // the error is typed.
            Err(SweepError::BadHeader { line: 1, .. }) => Ok(()),
            Err(e) => Err(format!("unexpected error for cut {cut}: {e:?}")),
            Ok(replay) => {
                // Every recovered member is bit-faithful to the
                // original; the torn tail line quarantined alone.
                for (slot, original) in replay.members.iter().zip(&pristine.members) {
                    if let Some(m) = slot {
                        nomc_rngcore::check!(
                            Some(m) == original.as_ref(),
                            "member {} changed after truncation at {cut}",
                            m.member
                        );
                    }
                }
                nomc_rngcore::check!(
                    replay.quarantined.len() <= 1,
                    "truncation can tear at most the last line, got {:?}",
                    replay.quarantined
                );
                Ok(())
            }
        }
    });
}

#[test]
fn prop_single_byte_corruption_quarantines_at_most_one_member() {
    let (text, sweep, hashes) = synthetic_journal();
    let pristine = journal::parse(&text, sweep, &hashes).expect("pristine parses");
    // Offsets of each line so we can tell which member a flip hits.
    let header_end = text.find('\n').expect("header line") + 1;
    forall(
        "journal_byte_flip",
        300,
        &zip2(range(header_end..text.len()), range(1u8..255)),
        |&(pos, delta)| {
            let mut bytes = text.clone().into_bytes();
            let original_byte = *bytes.get(pos).expect("pos in range");
            let flipped = original_byte.wrapping_add(delta);
            // Keep the line structure: newlines separate members, so a
            // flip to/from '\n' may legitimately affect two lines.
            if original_byte == b'\n' || flipped == b'\n' {
                return Ok(());
            }
            bytes[pos] = flipped;
            let Ok(corrupted) = String::from_utf8(bytes) else {
                // Invalid UTF-8 cannot even be read into the parser;
                // the supervisor surfaces that as a typed Io error.
                return Ok(());
            };
            let line_of_pos = text[..pos].matches('\n').count(); // 0-based
            let replay = journal::parse(&corrupted, sweep, &hashes)
                .map_err(|e| format!("member-line flip must not be fatal: {e:?}"))?;
            let mut unchanged = 0;
            for (i, (slot, original)) in replay.members.iter().zip(&pristine.members).enumerate() {
                let entry_line = i + 1; // member i sits on 0-based line i+1
                if entry_line != line_of_pos {
                    nomc_rngcore::check!(
                        slot == original,
                        "member {i} (line {entry_line}) changed by a flip on line {line_of_pos}"
                    );
                    unchanged += 1;
                }
            }
            nomc_rngcore::check!(
                unchanged + 1 == replay.members.len(),
                "exactly one member may be affected"
            );
            Ok(())
        },
    );
}

#[test]
fn prop_corrupted_content_hashes_quarantine_that_member_only() {
    let (_, sweep, hashes) = synthetic_journal();
    forall(
        "journal_hash_corruption",
        200,
        &zip2(range(0usize..4), range(1u64..u64::MAX)),
        |&(victim, offset)| {
            let members: Vec<Option<super::MemberReport>> = hashes
                .iter()
                .enumerate()
                .map(|(i, &h)| {
                    Some(super::MemberReport {
                        member: i,
                        hash: if i == victim {
                            h.wrapping_add(offset)
                        } else {
                            h
                        },
                        attempts: vec![super::AttemptRecord {
                            budget: 1,
                            outcome: AttemptOutcome::TimedOut { events: 1 },
                        }],
                    })
                })
                .collect();
            let text = journal::render(sweep, None, &members);
            let replay = journal::parse(&text, sweep, &hashes)
                .map_err(|e| format!("hash corruption must not be fatal: {e:?}"))?;
            nomc_rngcore::check!(
                replay.recovered() == 3,
                "exactly the victim reruns, got {}",
                replay.recovered()
            );
            nomc_rngcore::check!(
                replay.members.get(victim).map(Option::is_none) == Some(true),
                "victim {victim} must be quarantined"
            );
            match replay.quarantined.as_slice() {
                [SweepError::HashMismatch { member, .. }] if *member == victim => Ok(()),
                other => Err(format!("expected one HashMismatch, got {other:?}")),
            }
        },
    );
}
