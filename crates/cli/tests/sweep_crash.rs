//! End-to-end crash safety of `nomc sweep`: SIGKILL the sweep process
//! mid-run, resume from its journal, and require the final report and
//! journal to be byte-identical to an uninterrupted run's.

#![cfg(unix)]

use nomc_phy::Shadowing;
use nomc_sim::scenario::Propagation;
use nomc_sim::{NetworkBehavior, Scenario};
use nomc_topology::spectrum::{ChannelPlan, FitPolicy};
use nomc_topology::{paper, Deployment, LinkSpec, NetworkSpec, Point};
use nomc_units::{Dbm, Megahertz, SimDuration};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn nomc() -> &'static str {
    env!("CARGO_BIN_EXE_nomc")
}

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("nomc-sweep-crash").join(name);
    // Start from a clean slate so reruns cannot resume stale state.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir creatable");
    dir
}

/// A multi-network scenario sized so one member takes a noticeable
/// fraction of a second: long enough that a 12-member, 2-thread sweep
/// is reliably still running when the journal's first entries land.
fn scenario_file(dir: &Path) -> PathBuf {
    let plan = ChannelPlan::fit(
        Megahertz::new(2458.0),
        Megahertz::new(15.0),
        Megahertz::new(3.0),
        FitPolicy::InclusiveEnds,
    )
    .expect("plan fits");
    let mut b = Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
    b.behavior_all(NetworkBehavior::dcn_default());
    b.duration(SimDuration::from_secs(6))
        .warmup(SimDuration::from_secs(2));
    let scenario = b.build().expect("valid scenario");
    let path = dir.join("scenario.json");
    std::fs::write(&path, nomc_json::to_string_pretty(&scenario)).expect("scenario written");
    path
}

fn sweep_args(scenario: &Path, journal: &Path, report: &Path) -> Vec<String> {
    [
        "sweep",
        scenario.to_str().expect("utf8 path"),
        "--seed-count",
        "12",
        "--threads",
        "2",
        "--retries",
        "1",
        "--journal",
        journal.to_str().expect("utf8 path"),
        "--report",
        report.to_str().expect("utf8 path"),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn run_to_completion(args: &[String]) {
    let status = Command::new(nomc())
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("nomc spawns");
    assert!(status.success(), "nomc sweep failed: {status}");
}

/// Journal entry lines currently checkpointed (total lines minus the
/// header), or 0 while the file does not exist yet.
fn journal_entries(path: &Path) -> usize {
    std::fs::read_to_string(path)
        .map(|t| t.lines().count().saturating_sub(1))
        .unwrap_or(0)
}

#[test]
fn sigkill_mid_sweep_then_resume_is_byte_identical_to_uninterrupted() {
    let dir = test_dir("sigkill");
    let scenario = scenario_file(&dir);

    // Reference: one uninterrupted sweep.
    let full_journal = dir.join("full.jsonl");
    let full_report = dir.join("full.json");
    run_to_completion(&sweep_args(&scenario, &full_journal, &full_report));
    let members = 12;
    assert_eq!(journal_entries(&full_journal), members);

    // Victim: same sweep, SIGKILLed once the journal holds at least one
    // member but (hopefully) not yet all of them.
    let kill_journal = dir.join("killed.jsonl");
    let kill_report = dir.join("killed.json");
    let args = sweep_args(&scenario, &kill_journal, &kill_report);
    let mut child = Command::new(nomc())
        .args(&args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("nomc spawns");
    let checkpointed = loop {
        let n = journal_entries(&kill_journal);
        if n >= 1 {
            break n;
        }
        if child.try_wait().expect("child pollable").is_some() {
            break journal_entries(&kill_journal);
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    // SIGKILL: no destructors, no flush, no atexit — the hard case.
    child.kill().expect("SIGKILL delivered");
    child.wait().expect("child reaped");
    assert!(
        checkpointed >= 1,
        "test premise: at least one member checkpointed before the kill"
    );
    assert!(
        !kill_report.exists(),
        "the killed run must not have written its report"
    );
    // The checkpoint on disk is a valid prefix of the reference journal:
    // atomic tmp+rename never leaves a torn file behind.
    let partial = std::fs::read_to_string(&kill_journal).expect("journal readable");
    let reference = std::fs::read_to_string(&full_journal).expect("reference readable");
    let reference_lines: std::collections::BTreeSet<&str> = reference.lines().collect();
    for line in partial.lines() {
        assert!(
            reference_lines.contains(line),
            "journal line after SIGKILL is not a reference line: {line}"
        );
    }

    // Resume from the journal and finish the sweep.
    let mut resume_args = args.clone();
    resume_args.push("--resume".to_string());
    run_to_completion(&resume_args);

    // The acceptance bar: byte-identical report AND journal.
    assert_eq!(
        std::fs::read(&kill_report).expect("resumed report"),
        std::fs::read(&full_report).expect("reference report"),
        "resumed report differs from the uninterrupted run"
    );
    assert_eq!(
        std::fs::read(&kill_journal).expect("resumed journal"),
        std::fs::read(&full_journal).expect("reference journal"),
        "resumed journal differs from the uninterrupted run"
    );
}

/// `.ckpt.json` files currently present in a snapshot directory.
fn checkpoint_files(dir: &Path) -> Vec<PathBuf> {
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
fn sigkill_mid_member_then_resume_is_byte_identical_to_uninterrupted() {
    let dir = test_dir("sigkill-mid-member");
    let scenario = scenario_file(&dir);
    kill_mid_member_then_resume(&dir, &scenario, &[]);
}

/// Six DCN networks 25 MHz and 60 m apart with shadowing off: six
/// interaction components, so a `--shards` sweep takes the sharded
/// checkpoint path.
fn independent_scenario_file(dir: &Path) -> PathBuf {
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
        .duration(SimDuration::from_secs(6))
        .warmup(SimDuration::from_secs(2))
        .propagation(Propagation {
            shadowing: Shadowing::disabled(),
            ..Propagation::default()
        });
    let scenario = b.build().expect("valid scenario");
    assert!(
        nomc_sim::engine::shard_plan(&scenario).len() > 1,
        "test premise: the scenario shards"
    );
    let path = dir.join("scenario.json");
    std::fs::write(&path, nomc_json::to_string_pretty(&scenario)).expect("scenario written");
    path
}

#[test]
fn sharded_sigkill_mid_member_then_resume_is_byte_identical_to_uninterrupted() {
    let dir = test_dir("sigkill-mid-member-sharded");
    let scenario = independent_scenario_file(&dir);
    kill_mid_member_then_resume(&dir, &scenario, &["--shards", "2"]);
}

/// Runs a two-member checkpointed sweep of `scenario` to completion as
/// the reference, then runs it again, SIGKILLs it once a mid-member
/// checkpoint exists, resumes it, and requires the report and journal
/// byte-identical to the reference and the snapshot directory drained.
fn kill_mid_member_then_resume(dir: &Path, scenario: &Path, extra: &[&str]) {
    let snapshots = dir.join("snapshots");
    // Few long members on one thread: the sweep spends nearly all its
    // time *inside* a member, so a kill triggered by the appearance of
    // a mid-member checkpoint reliably lands mid-member.
    let member_args = |journal: &Path, report: &Path| -> Vec<String> {
        [
            "sweep",
            scenario.to_str().expect("utf8 path"),
            "--seed-count",
            "2",
            "--threads",
            "1",
            "--retries",
            "1",
            "--checkpoint-every",
            "20000",
            "--snapshot-dir",
            snapshots.to_str().expect("utf8 path"),
            "--journal",
            journal.to_str().expect("utf8 path"),
            "--report",
            report.to_str().expect("utf8 path"),
        ]
        .iter()
        .chain(extra)
        .map(|s| s.to_string())
        .collect()
    };

    // Reference: one uninterrupted checkpointed sweep. It concludes
    // every member, so it leaves the snapshot directory empty for the
    // victim run (same member keys — that is the point).
    let full_journal = dir.join("full.jsonl");
    let full_report = dir.join("full.json");
    run_to_completion(&member_args(&full_journal, &full_report));
    assert_eq!(journal_entries(&full_journal), 2);
    assert_eq!(
        checkpoint_files(&snapshots),
        Vec::<PathBuf>::new(),
        "a completed sweep must discard every member checkpoint"
    );

    // Victim: same sweep, SIGKILLed as soon as a mid-member engine
    // checkpoint exists — i.e. while the first member is still running
    // (the journal has no entries yet).
    let kill_journal = dir.join("killed.jsonl");
    let kill_report = dir.join("killed.json");
    let args = member_args(&kill_journal, &kill_report);
    let mut child = Command::new(nomc())
        .args(&args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("nomc spawns");
    let saw_checkpoint = loop {
        if !checkpoint_files(&snapshots).is_empty() {
            break true;
        }
        if child.try_wait().expect("child pollable").is_some() {
            break false;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    // SIGKILL: no destructors, no flush, no atexit — the hard case.
    child.kill().expect("SIGKILL delivered");
    child.wait().expect("child reaped");
    assert!(
        saw_checkpoint,
        "test premise: a mid-member checkpoint existed before the kill"
    );
    assert!(
        !kill_report.exists(),
        "the killed run must not have written its report"
    );

    // Resume: journal replay skips any concluded members, and the
    // in-flight member restarts from its last snapshot rather than
    // from scratch.
    let mut resume_args = args.clone();
    resume_args.push("--resume".to_string());
    run_to_completion(&resume_args);

    // The acceptance bar: byte-identical report AND journal, and the
    // snapshot directory drained.
    assert_eq!(
        std::fs::read(&kill_report).expect("resumed report"),
        std::fs::read(&full_report).expect("reference report"),
        "resumed report differs from the uninterrupted run"
    );
    assert_eq!(
        std::fs::read(&kill_journal).expect("resumed journal"),
        std::fs::read(&full_journal).expect("reference journal"),
        "resumed journal differs from the uninterrupted run"
    );
    assert_eq!(
        checkpoint_files(&snapshots),
        Vec::<PathBuf>::new(),
        "the resumed sweep must discard every member checkpoint"
    );
}

#[test]
fn resume_on_a_completed_journal_reruns_nothing_and_reproduces_the_report() {
    let dir = test_dir("noop-resume");
    let scenario = scenario_file(&dir);
    let journal = dir.join("sweep.jsonl");
    let report = dir.join("sweep.json");
    let args = sweep_args(&scenario, &journal, &report);
    run_to_completion(&args);
    let first = std::fs::read(&report).expect("report");

    // Resuming a fully-journaled sweep runs zero members, so it is
    // near-instant — and must regenerate the identical report.
    let mut resume_args = args.clone();
    resume_args.push("--resume".to_string());
    let started = std::time::Instant::now();
    run_to_completion(&resume_args);
    let elapsed = started.elapsed();
    assert_eq!(
        std::fs::read(&report).expect("report"),
        first,
        "no-op resume changed the report"
    );
    // Generous bound: a full rerun takes several seconds; a pure replay
    // takes milliseconds.
    assert!(
        elapsed < std::time::Duration::from_secs(3),
        "no-op resume took {elapsed:?}; members were rerun"
    );
}

#[test]
fn stale_journal_is_refused_with_a_typed_message() {
    let dir = test_dir("stale");
    let scenario = scenario_file(&dir);
    let journal = dir.join("sweep.jsonl");
    let report = dir.join("sweep.json");
    run_to_completion(&sweep_args(&scenario, &journal, &report));

    // Edit the sweep (a different seed list) and try to resume.
    let output = Command::new(nomc())
        .args([
            "sweep",
            scenario.to_str().expect("utf8"),
            "--seeds",
            "100,101",
            "--journal",
            journal.to_str().expect("utf8"),
            "--resume",
        ])
        .output()
        .expect("nomc runs");
    assert!(!output.status.success(), "stale resume must fail");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("stale journal"), "stderr was: {stderr}");
}
