//! The metric catalogue and the result line.
//!
//! Every metric the benchmark can print is declared here with its unit,
//! so a run prints the same names every time: an untraced run prints
//! every end-to-end metric, a traced run every per-layer metric. A
//! per-layer metric of a layer the workload does not exercise reads 0
//! (no work, no time).

use std::collections::BTreeMap;

/// Which half of the catalogue a run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Untraced run: what a user of the system sees.
    EndToEnd,
    /// Traced run: one layer at a time.
    PerLayer,
}

/// One catalogue entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSpec {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
}

fn spec(name: impl Into<String>, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name: name.into(),
        unit,
    }
}

/// Snapshot kinds: members whose plan has one interaction component
/// take the serial checkpoint path, the rest the sharded one.
pub const KINDS: [&str; 2] = ["serial", "sharded"];

/// The end-to-end metrics, reported by every workload.
pub fn end_to_end() -> Vec<MetricSpec> {
    vec![
        spec("setup_s", "s"),
        spec("wall_s", "s"),
        spec("cpu_s", "s"),
        spec("peak_rss_mb", "MB"),
    ]
}

/// The per-layer metrics, reported by every traced run.
pub fn per_layer() -> Vec<MetricSpec> {
    let mut out = Vec::new();
    for (id, _) in crate::paper::MODULES {
        out.push(spec(format!("experiments.{id}_s"), "s"));
    }
    out.push(spec("sim.events", "count"));
    for v in crate::profile::VARIANTS {
        out.push(spec(format!("sim.{v}.count"), "count"));
        out.push(spec(format!("sim.{v}.self_s"), "s"));
    }
    out.push(spec("sim.trace_overhead_frac", "ratio"));
    for k in KINDS {
        out.push(spec(format!("snapshot.{k}.count"), "count"));
        out.push(spec(format!("snapshot.{k}.bytes_total"), "B"));
        out.push(spec(format!("snapshot.{k}.bytes_max"), "B"));
        out.push(spec(format!("snapshot.{k}.encode_s"), "s"));
        out.push(spec(format!("snapshot.{k}.decode_s"), "s"));
        out.push(spec(format!("checkpoint.{k}.save_s"), "s"));
        out.push(spec(format!("checkpoint.{k}.load_s"), "s"));
        out.push(spec(format!("sim.{k}.leg_s"), "s"));
    }
    out.extend([
        spec("shard.components", "count"),
        spec("shard.plan_s", "s"),
        spec("shard.run_s", "s"),
        spec("shard.run_1t_s", "s"),
        spec("sweep.unaccounted_s", "s"),
        spec("sweep_members_per_s", "1/s"),
        spec("serve_fresh_p50_ms", "ms"),
        spec("serve_fresh_p90_ms", "ms"),
        spec("serve_fresh_jobs_per_s", "1/s"),
        spec("serve_cached_p50_ms", "ms"),
        spec("serve_cached_p90_ms", "ms"),
        spec("serve.ack_p50_ms", "ms"),
        spec("serve.queue_wait_p50_ms", "ms"),
        spec("serve.run_p50_ms", "ms"),
        spec("serve.report_p50_ms", "ms"),
        spec("serve.status_p50_ms", "ms"),
        spec("http.parse_request_ns", "ns"),
        spec("http.parse_response_ns", "ns"),
        spec("serve.fresh", "count"),
        spec("serve.cached", "count"),
        spec("serve.shed_429", "count"),
        spec("serve.errors", "count"),
        spec("loadgen.late_p90_ms", "ms"),
    ]);
    out
}

/// The catalogue half for `tier`.
pub fn catalogue(tier: Tier) -> Vec<MetricSpec> {
    match tier {
        Tier::EndToEnd => end_to_end(),
        Tier::PerLayer => per_layer(),
    }
}

/// Whether `name` is a valid metric name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Record {
    values: BTreeMap<String, f64>,
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed or produced wrong output.
    pub failed: u64,
    /// One line per failure, for the log.
    pub failures: Vec<String>,
}

impl Record {
    /// Sets metric `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Adds `value` to metric `name`.
    pub fn add(&mut self, name: impl Into<String>, value: f64) {
        *self.values.entry(name.into()).or_insert(0.0) += value;
    }

    /// The value of metric `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts one checked operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Counts `n` operations that were checked and passed.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Whether every check passed and at least one ran.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The catalogue half for `tier` with this record's values: unset
    /// per-layer metrics read 0; an unset end-to-end metric is a
    /// failure of the run and is left out.
    pub fn rows(&self, tier: Tier) -> Vec<(MetricSpec, Option<f64>)> {
        catalogue(tier)
            .into_iter()
            .map(|s| {
                let v = self.get(&s.name).filter(|v| v.is_finite());
                let v = match tier {
                    Tier::PerLayer => Some(v.unwrap_or(0.0)),
                    Tier::EndToEnd => v,
                };
                (s, v)
            })
            .collect()
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self, tier: Tier) -> String {
        let metrics: Vec<String> = self
            .rows(tier)
            .into_iter()
            .filter_map(|(s, v)| {
                v.map(|v| format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", s.name, s.unit))
            })
            .collect();
        let complete = self.rows(tier).iter().all(|(_, v)| v.is_some());
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct() && complete,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for s in end_to_end().into_iter().chain(per_layer()) {
            assert!(valid_name(&s.name), "bad metric name {:?}", s.name);
            assert!(s.name.len() <= 64, "metric name too long: {}", s.name);
            assert!(seen.insert(s.name.clone()), "duplicate metric {}", s.name);
        }
        assert!(!valid_name("a b"));
        assert!(!valid_name(""));
    }

    #[test]
    fn unset_per_layer_metrics_read_zero() {
        let mut r = Record::default();
        r.check(true, String::new);
        let line = r.result_json(Tier::PerLayer);
        assert!(line.contains("\"sim.TxEnd.count\":{\"value\":0,\"unit\":\"count\"}"));
        assert!(line.starts_with("{\"correct\":true,"));
        // A missing end-to-end metric makes the run incorrect.
        assert!(r
            .result_json(Tier::EndToEnd)
            .starts_with("{\"correct\":false,"));
    }
}
