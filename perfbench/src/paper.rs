//! `paper_quick`: regenerate the whole paper at quick fidelity.
//!
//! This is what a user of the reproduction runs. Nearly all of its time
//! is in the simulator (`sim` handlers, `medium`, `phy`, `mac`, `core`)
//! across every scenario shape of the paper; it never touches
//! snapshots, shards or the server.

use crate::metrics::{Record, Tier};
use nomc_experiments::experiments::{
    ablations, cases, extensions, fig01, fig02, fig03, fig04, fig06, fig08, fig09, fig12, fig14,
    fig16, fig19, fig20, fig28, fig30, table1,
};
use nomc_experiments::report::Report;
use nomc_experiments::ExpConfig;
use nomc_sim::Scenario;
use std::time::Instant;

/// One figure module's entry point.
pub(crate) type Module = fn(&ExpConfig) -> Vec<Report>;

/// The modules `experiments::all` runs, in its order.
pub(crate) const MODULES: [(&str, Module); 18] = [
    ("fig01", fig01::run),
    ("fig02", fig02::run),
    ("fig03", fig03::run),
    ("fig04", fig04::run),
    ("fig06", fig06::run),
    ("fig08", fig08::run),
    ("fig09", fig09::run),
    ("fig12", fig12::run),
    ("fig14", fig14::run),
    ("fig16", fig16::run),
    ("fig19", fig19::run),
    ("fig20", fig20::run),
    ("table1", table1::run),
    ("cases", cases::run),
    ("fig28", fig28::run),
    ("fig30", fig30::run),
    ("extensions", extensions::run),
    ("ablations", ablations::run),
];

/// Seeds each pass averages over. Twice `ExpConfig::quick`'s two, so
/// that how much work a seed happens to make moves a pass less.
const SEEDS: u64 = 4;

/// `ExpConfig::quick`'s duration and warm-up with [`SEEDS`] consecutive
/// seeds from `SEEDS·seed + 1`; seed 0 runs seeds 1 to 4.
fn config(seed: u64) -> ExpConfig {
    let first = seed.wrapping_mul(SEEDS).wrapping_add(1);
    ExpConfig {
        seeds: (0..SEEDS).map(|i| first.wrapping_add(i)).collect(),
        ..ExpConfig::quick()
    }
}

/// The Fig. 19 DCN and ZigBee members at `cfg`, built the way the
/// experiment runner builds them.
fn fig19_members(cfg: &ExpConfig) -> Vec<Scenario> {
    let mut out = Vec::new();
    for &seed in &cfg.seeds {
        for mut sc in [fig19::dcn_scenario(seed), fig19::zigbee_scenario(seed)] {
            sc.duration = cfg.duration;
            sc.warmup = cfg.warmup;
            sc.seed = seed;
            out.push(sc);
        }
    }
    out
}

/// The JSON `all_experiments --json` writes for `reports`.
fn joined_json(reports: &[Report]) -> String {
    let parts: Vec<String> = reports.iter().map(Report::to_json_string).collect();
    format!("[{}]", parts.join(",\n"))
}

/// A report with rows, every row as wide as the header, and no
/// non-finite number in any cell.
fn well_formed(r: &Report) -> bool {
    !r.rows.is_empty()
        && r.rows.iter().all(|row| {
            row.len() == r.columns.len()
                && row
                    .iter()
                    .all(|cell| !cell.contains("NaN") && !cell.contains("inf"))
        })
}

/// Builds the inputs and warms the engine on them.
fn prepare(seed: u64) -> (ExpConfig, Vec<Scenario>) {
    let cfg = config(seed);
    let members = fig19_members(&cfg);
    crate::warm_up(&members);
    (cfg, members)
}

/// Runs the workload and fills `rec` for `tier`.
pub fn run(rec: &mut Record, seed: u64, seconds: f64, tier: Tier) {
    let (mut setup, (cfg, members)) = crate::Setup::start(|| prepare(seed));
    match tier {
        Tier::EndToEnd => {
            let mut first: Option<String> = None;
            crate::passes(rec, seconds, &mut setup, |rec| {
                let reports = nomc_experiments::experiments::all(&cfg);
                for r in &reports {
                    rec.check(well_formed(r), || format!("report {} is malformed", r.id));
                }
                let json = joined_json(&reports);
                match &first {
                    None => first = Some(json),
                    Some(f) => rec.check(*f == json, || {
                        "experiments::all output changed between passes".into()
                    }),
                }
            });
        }
        Tier::PerLayer => {
            let mut reports = Vec::new();
            for (id, module) in MODULES {
                let t0 = Instant::now();
                reports.extend(module(&cfg));
                rec.set(format!("experiments.{id}_s"), t0.elapsed().as_secs_f64());
            }
            for r in &reports {
                rec.check(well_formed(r), || format!("report {} is malformed", r.id));
            }
            let all = joined_json(&nomc_experiments::experiments::all(&cfg));
            rec.check(joined_json(&reports) == all, || {
                "per-figure reports differ from experiments::all".into()
            });
            crate::profile_runs(rec, &members, 3);
        }
    }
    setup.finish(rec);
}
