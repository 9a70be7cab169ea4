//! Command line of the benchmark.
//!
//! ```text
//! nomc-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1|both> [--record <file>]
//! nomc-perfbench compare <record-a> <record-b>
//! ```
//!
//! A run prints a table of its metrics with units, then the machine
//! fingerprint, then, as its last line, the result object. It exits
//! with 1 when an output check failed. `--workload all` and
//! `--trace both` run every requested combination as a child process of
//! its own, so each reports its own set-up and peak memory.

use nomc_json::Json;
use nomc_perfbench::metrics::{Record, Tier};
use nomc_perfbench::sys::Fingerprint;
use nomc_perfbench::{paper, serve, sweep};
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["paper_quick", "sweep_ckpt", "serve_mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: String,
    record: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: nomc-perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1|both> [--record <file>]\n       nomc-perfbench compare <record-a> <record-b>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Option<Args> {
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let args = Args {
        workload: value("--workload")?,
        seed: value("--seed")?.parse().ok()?,
        seconds: value("--seconds")?
            .parse()
            .ok()
            .filter(|s: &f64| *s > 0.0)?,
        trace: value("--trace")?,
        record: value("--record"),
    };
    let known_workload = args.workload == "all" || WORKLOADS.contains(&args.workload.as_str());
    let known_trace = matches!(args.trace.as_str(), "0" | "1" | "both");
    (known_workload && known_trace).then_some(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match (argv.get(1), argv.get(2)) {
            (Some(a), Some(b)) => compare(a, b),
            _ => usage(),
        };
    }
    let Some(args) = parse_args(&argv) else {
        return usage();
    };
    if args.workload == "all" || args.trace == "both" {
        return run_children(&args);
    }
    let tier = if args.trace == "1" {
        Tier::PerLayer
    } else {
        Tier::EndToEnd
    };
    // Write back what earlier programs left dirty (a fresh build leaves
    // about a gigabyte) before timing anything: while the disk drains
    // it, every fsync the sweep and the server make waits behind it
    // (measured: sweep passes 30 % slower for the first minutes after a
    // build, falling back run by run as the writeback finished).
    let _ = std::process::Command::new("sync").status();
    let mut rec = Record::default();
    match args.workload.as_str() {
        "paper_quick" => paper::run(&mut rec, args.seed, args.seconds, tier),
        "sweep_ckpt" => sweep::run(&mut rec, args.seed, args.seconds, tier),
        _ => serve::run(&mut rec, args.seed, args.seconds, tier),
    }
    rec.set("peak_rss_mb", nomc_perfbench::sys::peak_rss_mb());
    for f in &rec.failures {
        eprintln!("perfbench: FAILED: {f}");
    }
    for (spec, value) in rec.rows(tier) {
        let shown = value.map_or("unresolved".to_string(), |v| format!("{v}"));
        println!(
            "{}/{}  {:<32} {:>16} {}",
            args.workload, args.trace, spec.name, shown, spec.unit
        );
    }
    let fingerprint = Fingerprint::current();
    println!("fingerprint {}", fingerprint.to_json().dump());
    let result = rec.result_json(tier);
    if let Some(path) = &args.record {
        let record = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"trace\":\"{}\",\"fingerprint\":{},\"result\":{result}}}\n",
            args.workload,
            args.seed,
            args.trace,
            fingerprint.to_json().dump()
        );
        if let Err(e) = std::fs::write(path, record) {
            eprintln!("perfbench: cannot write {path}: {e}");
        }
    }
    println!("{result}");
    if result.starts_with("{\"correct\":true") {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every requested (workload, trace) pair as a child process and
/// fails if any child failed.
fn run_children(args: &Args) -> ExitCode {
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let traces: Vec<&str> = if args.trace == "both" {
        vec!["0", "1"]
    } else {
        vec![args.trace.as_str()]
    };
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("perfbench: cannot locate own executable");
        return ExitCode::FAILURE;
    };
    let mut ok = true;
    for w in &workloads {
        for t in &traces {
            let status = std::process::Command::new(&exe)
                .args(["--workload", w, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", t])
                .status();
            ok &= status.is_ok_and(|s| s.success());
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Compares two `--record` files metric by metric. Exact counts compare
/// across any two records; timings only between records taken on the
/// same machine fingerprint (CPU, core count, compiler).
fn compare(a: &str, b: &str) -> ExitCode {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (ra, rb) = match (load(a), load(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let fingerprint = |r: &Json| r.get("fingerprint").and_then(Fingerprint::from_json);
    let (Some(fa), Some(fb)) = (fingerprint(&ra), fingerprint(&rb)) else {
        eprintln!("perfbench: a record lacks its machine fingerprint");
        return ExitCode::FAILURE;
    };
    let same_machine = fa.machine() == fb.machine();
    let metrics = |r: &Json| {
        r.get("result")
            .and_then(|x| x.get("metrics"))
            .and_then(Json::as_object)
            .cloned()
    };
    let (Some(ma), Some(mb)) = (metrics(&ra), metrics(&rb)) else {
        eprintln!("perfbench: a record has no metrics");
        return ExitCode::FAILURE;
    };
    let mut refused = 0;
    for (name, va) in ma.iter() {
        let Some(vb) = mb.get(name) else { continue };
        let value = |v: &Json| v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = va.get("unit").and_then(Json::as_str).unwrap_or("");
        let (x, y) = (value(va), value(vb));
        if unit == "count" {
            let verdict = if x == y { "equal" } else { "DIFFER" };
            println!("{name:<32} {x} -> {y} {unit} ({verdict})");
        } else if same_machine {
            println!("{name:<32} {x} -> {y} {unit} (x{:.3})", y / x);
        } else {
            refused += 1;
        }
    }
    if refused > 0 {
        eprintln!(
            "perfbench: refusing to compare {refused} timings across machine fingerprints:\n  {}\n  {}",
            fa.to_json().dump(),
            fb.to_json().dump()
        );
        return ExitCode::from(3);
    }
    ExitCode::SUCCESS
}
