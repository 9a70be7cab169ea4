//! Snapshot/restore byte-identity (DESIGN.md §14).
//!
//! The snapshot contract in executable form: *run-to-event-K, snapshot,
//! restore, run-to-end is byte-identical to an uninterrupted run* — for
//! the serial engine, for the sharded engine (including its merged
//! external-observer stream), and with every fault type in flight. All
//! comparisons serialize through `nomc-json` and assert on the strings,
//! so "identical" means identical down to the last bit of every float.
//!
//! Corruption totality rides along: truncating, byte-flipping, or
//! version-skewing a serialized snapshot must produce a typed
//! [`engine::SnapshotError`], never a panic — that is what lets the
//! sweep supervisor quarantine a bad checkpoint and fall back to a
//! clean re-run.

use nomc_phy::Shadowing;
use nomc_sim::events::Event;
use nomc_sim::runtime::observer::{PowerSample, ThresholdSample, TxOutcomeInfo, TxStartInfo};
use nomc_sim::scenario::Propagation;
use nomc_sim::trace::TraceRecord;
use nomc_sim::{
    engine, CrashFault, DriftFault, FaultPlan, JammerFault, NetworkBehavior, Scenario, SimObserver,
    SimResult, StuckCcaFault,
};
use nomc_topology::spectrum::ChannelPlan;
use nomc_topology::{paper, Deployment, LinkSpec, NetworkSpec, Point};
use nomc_units::{Db, Dbm, Megahertz, SimDuration, SimTime};

fn at(millis: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(millis)
}

/// The golden-trace shape: two DCN networks 3 MHz apart (one
/// interaction component), full trace + timeline recording on.
fn coupled_scenario(seed: u64) -> Scenario {
    let plan = ChannelPlan::with_count(Megahertz::new(2458.0), Megahertz::new(3.0), 2);
    let mut b = Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
    b.behavior_all(NetworkBehavior::dcn_default())
        .duration(SimDuration::from_secs(1))
        .warmup(SimDuration::from_millis(250))
        .seed(seed)
        .record_trace(true)
        .record_timeline(true);
    b.build().expect("valid coupled scenario")
}

/// Widely separated networks: every network its own shard.
fn partitionable_scenario(networks: usize, seed: u64) -> Scenario {
    let specs = (0..networks)
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
        .duration(SimDuration::from_secs(1))
        .warmup(SimDuration::from_millis(250))
        .seed(seed)
        .record_trace(true)
        .record_timeline(true)
        .propagation(Propagation {
            shadowing: Shadowing::disabled(),
            ..Propagation::default()
        });
    b.build().expect("valid partitionable scenario")
}

/// Every fault type at once on the coupled scenario (crash/reboot,
/// transient jammer, RSSI drift, stuck CCA), same schedule as the
/// faulted golden trace.
fn faulted_scenario(seed: u64) -> Scenario {
    let plan = ChannelPlan::with_count(Megahertz::new(2458.0), Megahertz::new(3.0), 2);
    let mut b = Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
    b.behavior_all(NetworkBehavior::dcn_default())
        .duration(SimDuration::from_secs(1))
        .warmup(SimDuration::from_millis(250))
        .seed(seed)
        .record_trace(true)
        .record_timeline(true)
        .faults(FaultPlan {
            crashes: vec![CrashFault {
                node: 0,
                at: at(400),
                down_for: SimDuration::from_millis(150),
            }],
            jammers: vec![JammerFault {
                frequency: Megahertz::new(2458.0),
                power: Dbm::new(-70.0),
                at: at(300),
                duration: SimDuration::from_millis(200),
            }],
            drifts: vec![DriftFault {
                node: 4,
                at: at(500),
                ramp: SimDuration::from_millis(200),
                peak: Db::new(3.0),
            }],
            stuck_cca: vec![StuckCcaFault {
                node: 2,
                at: at(700),
                duration: SimDuration::from_millis(150),
            }],
        });
    b.build().expect("valid faulted scenario")
}

/// Canonical byte representation of a result: the `nomc-json` encoding
/// the snapshot layer itself uses, covering metrics, trace, timeline,
/// MAC stats, and final thresholds bit-for-bit.
fn bytes(result: &SimResult) -> String {
    nomc_json::to_string(result)
}

/// Pauses at `pause_after` events (asserting the run does pause),
/// round-trips the snapshot through its JSON wire format, and resumes
/// to completion.
fn interrupt_and_resume(sc: &Scenario, sharded: bool, pause_after: u64) -> SimResult {
    let progress = if sharded {
        engine::run_sharded_until(sc, &mut [], u64::MAX, pause_after)
    } else {
        engine::run_until(sc, &mut [], u64::MAX, pause_after)
    };
    let paused = match progress {
        engine::RunProgress::Paused(p) => p,
        engine::RunProgress::Done(_) => panic!("run finished before the pause at {pause_after}"),
    };
    let text = engine::snapshot(&paused);
    let restored = engine::restore(&text).expect("snapshot text round-trips");
    match engine::resume_bounded(sc, restored, &mut [], u64::MAX)
        .expect("restored snapshot resumes against its own scenario")
    {
        engine::RunProgress::Done(done) => done.result,
        engine::RunProgress::Paused(_) => panic!("unbounded resume cannot pause"),
    }
}

#[test]
fn serial_snapshot_resume_is_byte_identical() {
    let sc = coupled_scenario(42);
    let baseline = engine::run(&sc);
    let golden = bytes(&baseline);
    assert!(baseline.events > 100, "scenario must be non-trivial");
    for pause_after in [1, 137, baseline.events / 2, baseline.events - 1] {
        let resumed = interrupt_and_resume(&sc, false, pause_after);
        assert_eq!(
            bytes(&resumed),
            golden,
            "serial resume from event {pause_after} diverged"
        );
    }
}

#[test]
fn serial_resume_chains_across_many_legs() {
    let sc = coupled_scenario(7);
    let golden = bytes(&engine::run(&sc));
    // Interrupt every 1000 events, round-tripping the wire format at
    // every leg: the final result must not care how often we stopped.
    let mut progress = engine::run_until(&sc, &mut [], u64::MAX, 1000);
    let mut pause_at = 1000;
    let mut legs = 0;
    let result = loop {
        match progress {
            engine::RunProgress::Done(done) => break done.result,
            engine::RunProgress::Paused(paused) => {
                legs += 1;
                assert!(legs < 10_000, "runaway pause/resume chain");
                let text = engine::snapshot(&paused);
                let restored = engine::restore(&text).expect("leg snapshot round-trips");
                pause_at += 1000;
                progress =
                    engine::resume_bounded(&sc, restored, &mut [], pause_at).expect("leg resumes");
            }
        }
    };
    assert!(legs > 5, "the chain must actually interrupt repeatedly");
    assert_eq!(bytes(&result), golden, "chained resume diverged");
}

#[test]
fn serial_snapshot_respects_event_budget() {
    let sc = coupled_scenario(11);
    let baseline = engine::run(&sc);
    let budget = baseline.events / 2;
    let direct = engine::run_bounded(&sc, &mut [], budget);
    assert!(
        direct.exhausted,
        "half the natural event count must truncate"
    );
    // Interrupt the bounded run mid-flight: the persisted budget must
    // exhaust at exactly the same event.
    let resumed = match engine::run_until(&sc, &mut [], budget, budget / 2) {
        engine::RunProgress::Paused(paused) => {
            let restored =
                engine::restore(&engine::snapshot(&paused)).expect("bounded snapshot round-trips");
            match engine::resume_bounded(&sc, restored, &mut [], u64::MAX).expect("resumes") {
                engine::RunProgress::Done(done) => done,
                engine::RunProgress::Paused(_) => panic!("unbounded resume cannot pause"),
            }
        }
        engine::RunProgress::Done(_) => panic!("must pause before the budget"),
    };
    assert!(resumed.exhausted, "budget must survive the snapshot");
    assert_eq!(
        bytes(&resumed.result),
        bytes(&direct.result),
        "budget-truncated resume diverged"
    );
}

#[test]
fn faulted_snapshot_resume_is_byte_identical() {
    let sc = faulted_scenario(42);
    let baseline = engine::run(&sc);
    let golden = bytes(&baseline);
    // Pause points straddling the fault schedule: before any fault,
    // mid-jammer/mid-crash, and deep into the recovery tail.
    for pause_after in [
        baseline.events / 10,
        baseline.events / 2,
        (baseline.events * 9) / 10,
    ] {
        let resumed = interrupt_and_resume(&sc, false, pause_after);
        assert_eq!(
            bytes(&resumed),
            golden,
            "faulted resume from event {pause_after} diverged"
        );
    }
}

/// Records every observer callback as a line of text, so two observer
/// streams can be compared byte for byte.
#[derive(Default)]
struct StreamLog(Vec<String>);

impl SimObserver for StreamLog {
    fn wants_trace(&self) -> bool {
        true
    }
    fn wants_thresholds(&self) -> bool {
        true
    }
    fn on_event(&mut self, now: SimTime, event: &Event) {
        self.0.push(format!("event {now:?} {event:?}"));
    }
    fn on_trace(&mut self, record: &TraceRecord) {
        self.0.push(format!("trace {record:?}"));
    }
    fn on_tx_start(&mut self, info: &TxStartInfo) {
        self.0.push(format!("tx_start {info:?}"));
    }
    fn on_tx_outcome(&mut self, info: &TxOutcomeInfo) {
        self.0.push(format!("tx_outcome {info:?}"));
    }
    fn on_abandon(&mut self, link: usize, measured: bool) {
        self.0.push(format!("abandon {link} {measured}"));
    }
    fn on_threshold_change(&mut self, sample: &ThresholdSample) {
        self.0.push(format!("threshold {sample:?}"));
    }
    fn on_power_sample(&mut self, sample: &PowerSample) {
        self.0.push(format!("power {sample:?}"));
    }
}

#[test]
fn sharded_snapshot_resume_is_byte_identical() {
    let sc = partitionable_scenario(4, 42);
    assert!(engine::shard_plan(&sc).len() == 4, "must actually shard");
    let mut baseline_log = StreamLog::default();
    let baseline = engine::run_sharded_with(&sc, &mut [&mut baseline_log], 4);
    let golden = bytes(&baseline);
    for pause_after in [
        1,
        baseline.events / 3,
        baseline.events / 2,
        baseline.events - 1,
    ] {
        let resumed = interrupt_and_resume(&sc, true, pause_after);
        assert_eq!(
            bytes(&resumed),
            golden,
            "sharded resume from event {pause_after} diverged"
        );
    }
    // External observers attached at resume time see the *complete*
    // merged stream, byte-identical to the threaded run's.
    let paused = match engine::run_sharded_until(&sc, &mut [], u64::MAX, baseline.events / 2) {
        engine::RunProgress::Paused(p) => p,
        engine::RunProgress::Done(_) => panic!("must pause mid-run"),
    };
    let restored = engine::restore(&engine::snapshot(&paused)).expect("round-trips");
    let mut resumed_log = StreamLog::default();
    let resumed = match engine::resume_bounded(&sc, restored, &mut [&mut resumed_log], u64::MAX)
        .expect("resumes")
    {
        engine::RunProgress::Done(done) => done.result,
        engine::RunProgress::Paused(_) => panic!("unbounded resume cannot pause"),
    };
    assert_eq!(bytes(&resumed), golden);
    assert!(!baseline_log.0.is_empty(), "stream must be non-trivial");
    assert_eq!(
        resumed_log.0, baseline_log.0,
        "merged observer stream diverged after resume"
    );
}

#[test]
fn sharded_single_component_plan_snapshots_serially() {
    // A one-component plan delegates to the serial engine, exactly as
    // `run_sharded` does: the snapshot kind is serial and resumes fine.
    let sc = coupled_scenario(3);
    let golden = bytes(&engine::run_sharded(&sc, 4));
    let resumed = interrupt_and_resume(&sc, true, 500);
    assert_eq!(bytes(&resumed), golden);
}

#[test]
fn snapshot_rejects_scenario_mismatch() {
    let sc = coupled_scenario(42);
    let other = coupled_scenario(43);
    let paused = match engine::run_until(&sc, &mut [], u64::MAX, 100) {
        engine::RunProgress::Paused(p) => p,
        engine::RunProgress::Done(_) => panic!("must pause"),
    };
    let restored = engine::restore(&engine::snapshot(&paused)).expect("round-trips");
    match engine::resume_bounded(&other, restored, &mut [], u64::MAX) {
        Err(engine::SnapshotError::ScenarioMismatch { found, expected }) => {
            assert_ne!(found, expected);
        }
        other => panic!("expected ScenarioMismatch, got {other:?}"),
    }
}

#[test]
fn snapshot_rejects_version_skew() {
    let sc = coupled_scenario(42);
    let paused = match engine::run_until(&sc, &mut [], u64::MAX, 100) {
        engine::RunProgress::Paused(p) => p,
        engine::RunProgress::Done(_) => panic!("must pause"),
    };
    let text = engine::snapshot(&paused);
    let skewed = text.replacen("\"version\":2", "\"version\":999", 1);
    assert_ne!(text, skewed, "wire format must carry the version field");
    match engine::restore(&skewed) {
        Err(engine::SnapshotError::VersionSkew { found, expected }) => {
            assert_eq!(found, 999);
            assert_eq!(expected, 2);
        }
        other => panic!("expected VersionSkew, got {other:?}"),
    }
}

#[test]
fn version_one_sharded_snapshots_are_version_skew() {
    // Version 1 sharded payloads buffered every relayed note from event
    // zero; version 2 dropped them. An old checkpoint must be refused
    // typed (the sweep supervisor then re-runs the member clean), never
    // misread.
    let old = concat!(
        r#"{"version":1,"kind":"sharded","payload":{"fingerprint":1,"#,
        r#""ship":{"events":true,"trace":true,"tx":true,"thresholds":true,"power":true},"#,
        r#""max_events":100,"ranks":[{"fresh":null},{"fresh":null}],"logs":[[],[]]}}"#
    );
    match engine::restore(old) {
        Err(engine::SnapshotError::VersionSkew { found, expected }) => {
            assert_eq!((found, expected), (1, 2));
        }
        other => panic!("expected VersionSkew, got {other:?}"),
    }
}

/// Pauses a sharded run after `pause_after` events and returns the
/// snapshot's wire size.
fn sharded_snapshot_len(sc: &Scenario, pause_after: u64) -> usize {
    match engine::run_sharded_until(sc, &mut [], u64::MAX, pause_after) {
        engine::RunProgress::Paused(p) => engine::snapshot(&p).len(),
        engine::RunProgress::Done(_) => panic!("must pause at event {pause_after}"),
    }
}

#[test]
fn sharded_snapshots_stay_proportional_to_live_state() {
    // A sharded snapshot holds per-rank engine state and finished
    // ranks' results, not the run's history: one taken three times as
    // far into the run must not be anywhere near three times larger.
    let sc = partitionable_scenario(4, 42);
    let events = engine::run_sharded(&sc, 1).events;
    let early = sharded_snapshot_len(&sc, events / 4);
    let late = sharded_snapshot_len(&sc, 3 * events / 4);
    let (small, large) = (early.min(late), early.max(late));
    assert!(
        large < 2 * small,
        "snapshot at events/4 is {early} B, at 3·events/4 {late} B"
    );
}

/// Records every callback like [`StreamLog`], but wants neither traces
/// nor threshold changes: a run must not deliver those categories.
#[derive(Default)]
struct UninterestedLog(Vec<String>);

impl SimObserver for UninterestedLog {
    fn on_event(&mut self, now: SimTime, event: &Event) {
        self.0.push(format!("event {now:?} {event:?}"));
    }
    fn on_trace(&mut self, record: &TraceRecord) {
        self.0.push(format!("trace {record:?}"));
    }
    fn on_tx_start(&mut self, info: &TxStartInfo) {
        self.0.push(format!("tx_start {info:?}"));
    }
    fn on_tx_outcome(&mut self, info: &TxOutcomeInfo) {
        self.0.push(format!("tx_outcome {info:?}"));
    }
    fn on_abandon(&mut self, link: usize, measured: bool) {
        self.0.push(format!("abandon {link} {measured}"));
    }
    fn on_threshold_change(&mut self, sample: &ThresholdSample) {
        self.0.push(format!("threshold {sample:?}"));
    }
    fn on_power_sample(&mut self, sample: &PowerSample) {
        self.0.push(format!("power {sample:?}"));
    }
}

#[test]
fn sharded_resume_honours_observer_category_gating() {
    let mut sc = partitionable_scenario(4, 42);
    sc.record_trace = false;
    let mut baseline_log = UninterestedLog::default();
    let baseline = engine::run_sharded_with(&sc, &mut [&mut baseline_log], 4);
    assert!(
        !baseline_log.0.iter().any(|l| l.starts_with("trace ")),
        "the threaded run must not deliver unwanted traces"
    );
    let paused = match engine::run_sharded_until(&sc, &mut [], u64::MAX, baseline.events / 2) {
        engine::RunProgress::Paused(p) => p,
        engine::RunProgress::Done(_) => panic!("must pause mid-run"),
    };
    let restored = engine::restore(&engine::snapshot(&paused)).expect("round-trips");
    let mut resumed_log = UninterestedLog::default();
    let resumed = match engine::resume_bounded(&sc, restored, &mut [&mut resumed_log], u64::MAX)
        .expect("resumes")
    {
        engine::RunProgress::Done(done) => done.result,
        engine::RunProgress::Paused(_) => panic!("unbounded resume cannot pause"),
    };
    assert_eq!(bytes(&resumed), bytes(&baseline));
    assert_eq!(
        resumed_log.0, baseline_log.0,
        "resumed observer stream differs from the threaded run's"
    );
}

#[test]
fn sharded_budget_truncated_resume_rebuilds_the_observer_stream() {
    // Ranks that exhausted their budget share before the pause are
    // re-run at completion to rebuild their notes; the merged stream
    // must still match the uninterrupted bounded run's.
    let sc = partitionable_scenario(4, 42);
    let budget = engine::run_sharded(&sc, 1).events / 2;
    let mut baseline_log = StreamLog::default();
    let baseline = engine::run_sharded_bounded(&sc, &mut [&mut baseline_log], budget, 4);
    assert!(
        baseline.exhausted,
        "half the natural event count must truncate"
    );
    let paused = match engine::run_sharded_until(&sc, &mut [], budget, budget / 3) {
        engine::RunProgress::Paused(p) => p,
        engine::RunProgress::Done(_) => panic!("must pause before the budget"),
    };
    let restored = engine::restore(&engine::snapshot(&paused)).expect("round-trips");
    let mut resumed_log = StreamLog::default();
    let resumed = match engine::resume_bounded(&sc, restored, &mut [&mut resumed_log], u64::MAX)
        .expect("resumes")
    {
        engine::RunProgress::Done(done) => done,
        engine::RunProgress::Paused(_) => panic!("unbounded resume cannot pause"),
    };
    assert!(resumed.exhausted, "budget must survive the snapshot");
    assert_eq!(bytes(&resumed.result), bytes(&baseline.result));
    assert_eq!(resumed_log.0, baseline_log.0);
}

#[test]
fn tampered_finished_rank_fails_typed_at_the_rebuild() {
    // Pause once rank 0 is done, then alter its recorded result: the
    // re-run that rebuilds its notes must notice, as a typed error.
    let sc = partitionable_scenario(4, 42);
    let events = engine::run_sharded(&sc, 1).events;
    let paused = match engine::run_sharded_until(&sc, &mut [], u64::MAX, events / 2) {
        engine::RunProgress::Paused(p) => p,
        engine::RunProgress::Done(_) => panic!("must pause mid-run"),
    };
    let text = engine::snapshot(&paused);
    let done = text
        .find("\"done\"")
        .expect("rank 0 finished before the pause");
    let sent = done
        + text[done..]
            .find("\"sent\":")
            .expect("result has link counters");
    let digits = sent + "\"sent\":".len();
    let tampered = format!("{}9{}", &text[..digits], &text[digits..]);
    let restored = engine::restore(&tampered).expect("still well-formed JSON");
    let mut log = StreamLog::default();
    match engine::resume_bounded(&sc, restored, &mut [&mut log], u64::MAX) {
        Err(engine::SnapshotError::Malformed(msg)) => assert!(msg.contains("rank 0"), "{msg}"),
        other => panic!("expected Malformed, got {other:?}"),
    }
}

/// Exhaustive truncation sweep: every strict prefix of the snapshot
/// text (stepping through all lengths on a stride, plus the exact
/// boundaries) must fail with a typed error, never a panic.
#[test]
fn truncated_snapshots_fail_typed() {
    let sc = coupled_scenario(42);
    let paused = match engine::run_until(&sc, &mut [], u64::MAX, 200) {
        engine::RunProgress::Paused(p) => p,
        engine::RunProgress::Done(_) => panic!("must pause"),
    };
    let text = engine::snapshot(&paused);
    let stride = (text.len() / 257).max(1);
    for cut in (0..text.len())
        .step_by(stride)
        .chain([0, 1, text.len() - 1])
    {
        let truncated = &text[..cut];
        match engine::restore(truncated) {
            Err(_) => {}
            Ok(_) => panic!("truncation at {cut}/{} parsed as valid", text.len()),
        }
    }
}

/// Byte-flip sweep: corrupting single bytes all through the payload
/// either still parses (a flip inside a string or number can stay
/// structurally valid — the sweep layer's integrity hash catches those)
/// or fails with a typed error; resuming whatever still parses must
/// also never panic.
#[test]
fn byte_flipped_snapshots_never_panic() {
    let sc = coupled_scenario(42);
    let paused = match engine::run_until(&sc, &mut [], u64::MAX, 200) {
        engine::RunProgress::Paused(p) => p,
        engine::RunProgress::Done(_) => panic!("must pause"),
    };
    let text = engine::snapshot(&paused);
    let bytes = text.as_bytes();
    let stride = (bytes.len() / 509).max(1);
    for pos in (0..bytes.len()).step_by(stride) {
        for flip in [0x01u8, 0x20, 0x80] {
            let mut corrupt = bytes.to_vec();
            corrupt[pos] ^= flip;
            let Ok(corrupt) = String::from_utf8(corrupt) else {
                continue;
            };
            if let Ok(restored) = engine::restore(&corrupt) {
                // Structurally valid after the flip: resuming must
                // yield a typed error or a clean run, never a panic.
                let _ = engine::resume_bounded(&sc, restored, &mut [], 400);
            }
        }
    }
}
