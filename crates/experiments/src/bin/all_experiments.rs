//! Regenerates every table and figure of the paper in one run, or one
//! of them with `--only`, and (optionally) writes the markdown summary
//! used by EXPERIMENTS.md and the JSON reports.
//!
//! Usage: `all_experiments [--quick] [--only <id>] [--markdown <path>] [--json <path>]`
//!
//! `--only <id>` runs just the module that makes report `<id>` (`fig07`,
//! `table1`, `ext_energy`, …) and prints that report; the module ids
//! `cases`, `extensions` and `ablations` print all of their reports.
//! `--quick` (or `NOMC_QUICK`) selects the fast low-fidelity config.

use nomc_experiments::experiments;
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let cfg = nomc_experiments::ExpConfig::from_env();
    let args: Vec<String> = std::env::args().collect();
    let reports = match flag_value(&args, "--only") {
        None => experiments::all(&cfg),
        Some(id) => match experiments::only(&cfg, &id) {
            Some(reports) => reports,
            None => {
                let mut known: Vec<&str> = experiments::MODULES
                    .iter()
                    .flat_map(|m| m.reports.iter().copied())
                    .collect();
                for m in &experiments::MODULES {
                    if !known.contains(&m.id) {
                        known.push(m.id);
                    }
                }
                eprintln!(
                    "all_experiments: unknown id `{id}` (known: {})",
                    known.join(" ")
                );
                return ExitCode::from(2);
            }
        },
    };
    for report in &reports {
        println!("{report}");
    }
    if let Some(path) = flag_value(&args, "--markdown") {
        let mut out = String::from("# Generated experiment results\n\n");
        for report in &reports {
            out.push_str(&report.to_markdown());
            out.push('\n');
        }
        std::fs::write(&path, out).expect("write markdown");
        eprintln!("wrote {path}");
    }
    if let Some(path) = flag_value(&args, "--json") {
        let json: Vec<String> = reports.iter().map(|r| r.to_json_string()).collect();
        let mut f = std::fs::File::create(&path).expect("create json file");
        writeln!(f, "[{}]", json.join(",\n")).expect("write json");
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}
