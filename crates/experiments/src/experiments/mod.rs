//! One module per paper table/figure, plus ablations.
//!
//! Every module exposes `run(cfg: &ExpConfig) -> Vec<Report>`; modules
//! that regenerate several related figures from the same runs (e.g.
//! Figs. 6-7, Figs. 16-18) return several reports.

pub mod ablations;
pub mod cases;
pub mod common;
pub mod extensions;
pub mod fig01;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig06;
pub mod fig08;
pub mod fig09;
pub mod fig12;
pub mod fig14;
pub mod fig16;
pub mod fig19;
pub mod fig20;
pub mod fig28;
pub mod fig30;
pub mod table1;

use crate::report::Report;
use crate::ExpConfig;

/// One experiment module: its id, the ids of the reports its `run`
/// returns (in that order), and the entry point.
#[derive(Debug, Clone, Copy)]
pub struct Module {
    /// Module id (the module's name).
    pub id: &'static str,
    /// Ids of the reports `run` returns, in order.
    pub reports: &'static [&'static str],
    /// The module's `run`.
    pub run: fn(&ExpConfig) -> Vec<Report>,
}

/// Every module, in paper order — [`all`] runs them in this order.
pub const MODULES: [Module; 18] = [
    module("fig01", &["fig01"], fig01::run),
    module("fig02", &["fig02"], fig02::run),
    module("fig03", &["fig03"], fig03::run),
    module("fig04", &["fig04"], fig04::run),
    module("fig06", &["fig06", "fig07"], fig06::run),
    module("fig08", &["fig08"], fig08::run),
    module("fig09", &["fig09", "fig10"], fig09::run),
    module("fig12", &["fig12"], fig12::run),
    module("fig14", &["fig14", "fig15"], fig14::run),
    module("fig16", &["fig16", "fig17", "fig18"], fig16::run),
    module("fig19", &["fig19"], fig19::run),
    module("fig20", &["fig20", "fig21"], fig20::run),
    module("table1", &["table1"], table1::run),
    module("cases", &["fig25", "fig26", "fig27"], cases::run),
    module("fig28", &["fig28", "fig29"], fig28::run),
    module("fig30", &["fig30"], fig30::run),
    module(
        "extensions",
        &[
            "ext_energy",
            "ext_planner",
            "ext_adaptive_recovery",
            "ext_assignment",
            "ext_convergecast",
            "ext_fault_recovery",
        ],
        extensions::run,
    ),
    module(
        "ablations",
        &[
            "ablation_shadowing",
            "ablation_capture",
            "ablation_tu",
            "ablation_margin",
            "ablation_failure_policy",
            "ablation_clamp",
            "ablation_oracle",
            "ablation_ack",
        ],
        ablations::run,
    ),
];

const fn module(
    id: &'static str,
    reports: &'static [&'static str],
    run: fn(&ExpConfig) -> Vec<Report>,
) -> Module {
    Module { id, reports, run }
}

/// Everything, in paper order — the `all_experiments` binary and the
/// EXPERIMENTS.md generator iterate this.
pub fn all(cfg: &ExpConfig) -> Vec<Report> {
    MODULES.iter().flat_map(|m| (m.run)(cfg)).collect()
}

/// The reports `id` selects: the one report with that id, or every
/// report of the module with that id when no report has it (`cases`,
/// `extensions`, `ablations`). Runs only the module concerned; `None`
/// for an unknown id.
pub fn only(cfg: &ExpConfig, id: &str) -> Option<Vec<Report>> {
    if let Some(m) = MODULES.iter().find(|m| m.reports.contains(&id)) {
        let mut reports = (m.run)(cfg);
        reports.retain(|r| r.id == id);
        return Some(reports);
    }
    let m = MODULES.iter().find(|m| m.id == id)?;
    Some((m.run)(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The module table names every report of the committed paper run,
    /// in its order, and every id `only` accepts is unambiguous.
    #[test]
    fn module_table_matches_the_paper_golden() {
        let golden = include_str!("../../../../tests/fixtures/paper_quick.json");
        let parsed = nomc_json::Json::parse(golden).expect("golden parses");
        let ids: Vec<&str> = parsed
            .as_array()
            .expect("golden is an array of reports")
            .iter()
            .map(|r| r.get("id").and_then(|id| id.as_str()).expect("report id"))
            .collect();
        let table: Vec<&str> = MODULES
            .iter()
            .flat_map(|m| m.reports.iter().copied())
            .collect();
        assert_eq!(table, ids);
        let mut unique = table.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), table.len(), "report ids repeat");
        for m in &MODULES {
            // A module id that is also a report id is its own report.
            assert!(
                !table.contains(&m.id) || m.reports.contains(&m.id),
                "{}",
                m.id
            );
        }
    }
}
