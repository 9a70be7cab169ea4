//! The benchmark's own checks: its profile observer is exact and does
//! not perturb a run, and `BENCHMARK.json` declares exactly the metrics
//! the benchmark prints.

use nomc_json::Json;
use nomc_perfbench::metrics::{end_to_end, per_layer, valid_name, MetricSpec};
use nomc_perfbench::profile::{ProfileObserver, VARIANTS};
use nomc_sim::{engine, Scenario};
use nomc_topology::{paper, spectrum::ChannelPlan};
use nomc_units::{Dbm, Megahertz, SimDuration};

fn tiny_scenario() -> Scenario {
    let plan = ChannelPlan::with_count(Megahertz::new(2460.0), Megahertz::new(3.0), 2);
    let mut b = Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
    b.duration(SimDuration::from_millis(600))
        .warmup(SimDuration::from_millis(200))
        .seed(7);
    b.build().expect("valid tiny scenario")
}

#[test]
fn profile_counts_every_event_and_changes_nothing() {
    let sc = tiny_scenario();
    let plain = engine::run(&sc);
    let mut prof = ProfileObserver::default();
    let traced = engine::run_with(&sc, &mut [&mut prof]);
    assert_eq!(traced, plain, "attaching the profile changed the result");
    assert!(plain.events > 0);
    assert_eq!(prof.total(), plain.events);
    assert_eq!(prof.counts().len(), VARIANTS.len());
    // Every counted variant was charged time; uncounted ones none.
    for (count, time) in prof.counts().iter().zip(prof.self_time()) {
        assert_eq!(*count == 0, time.is_zero());
    }
}

fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn printed(catalogue: Vec<MetricSpec>) -> Vec<(String, String)> {
    catalogue
        .into_iter()
        .map(|m| (m.name, m.unit.to_string()))
        .collect()
}

#[test]
fn benchmark_json_declares_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(declared(&doc, "end_to_end"), printed(end_to_end()));
    assert_eq!(declared(&doc, "per_layer"), printed(per_layer()));
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads");
    let names: Vec<&str> = workloads
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, ["paper_quick", "sweep_ckpt", "serve_mixed"]);
    for m in end_to_end().iter().chain(&per_layer()) {
        assert!(valid_name(&m.name), "{}", m.name);
    }
}
