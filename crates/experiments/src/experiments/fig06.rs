//! Figs. 6-7 — CCA-threshold sweep without co-channel interference.
//!
//! One link surrounded by four neighbour-channel interferer networks
//! (Fig. 5 configuration): relaxing the link's CCA threshold converts
//! "backoff on tolerable neighbour-channel energy" into transmissions.
//! Fig. 6 plots the link's sent/received packets; Fig. 7 the overall
//! (all-network) throughput, which also rises — the concurrency is real,
//! not stolen from the neighbours.

use crate::experiments::common;
use crate::report::{f1, pct, Report};
use crate::runner;
use crate::ExpConfig;
use nomc_units::Dbm;

/// Measured point of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// CCA threshold (dBm).
    pub threshold: f64,
    /// Link frames sent per second.
    pub sent: f64,
    /// Link frames received per second.
    pub received: f64,
    /// Link PRR.
    pub prr: f64,
    /// All-network throughput.
    pub overall: f64,
}

/// Runs the sweep at the given link power.
pub fn sweep(cfg: &ExpConfig, link_power: Dbm) -> Vec<SweepPoint> {
    sweeps(cfg, &[link_power])
        .pop()
        .expect("one sweep per power")
}

/// Runs the sweep at every power of `powers`, returning one sweep per
/// power in order.
///
/// The whole grid (powers × thresholds × seeds) is one
/// [`runner::run_batch`], so the thresholds below the register floor
/// simulate once and no per-point barrier idles the pool. Each point
/// sums its seeds in seed order, exactly as a per-point run would.
pub fn sweeps(cfg: &ExpConfig, powers: &[Dbm]) -> Vec<Vec<SweepPoint>> {
    let thresholds = common::cca_sweep();
    let link_idx = common::fig5_scenario(Dbm::new(-77.0), Dbm::new(0.0), 0).1;
    let mut members = Vec::new();
    for &power in powers {
        for &thr in &thresholds {
            for &seed in &cfg.seeds {
                let sc = common::fig5_scenario(Dbm::new(thr), power, seed).0;
                members.push(runner::seeded(cfg, sc, seed));
            }
        }
    }
    // Per member: the link's sent and received rates and the
    // all-network throughput.
    let summaries = runner::run_batch(&members, |_, r| {
        let link = r
            .links
            .iter()
            .find(|l| l.network == link_idx)
            .expect("link present");
        (
            link.send_rate(r.measured),
            link.throughput(r.measured),
            r.total_throughput(),
        )
    });
    let n = cfg.seeds.len();
    (0..powers.len())
        .map(|pi| {
            thresholds
                .iter()
                .enumerate()
                .map(|(ti, &thr)| {
                    let first = (pi * thresholds.len() + ti) * n;
                    let (mut sent, mut received, mut overall) = (0.0, 0.0, 0.0);
                    for &(s, rx, all) in &summaries[first..first + n] {
                        sent += s;
                        received += rx;
                        overall += all;
                    }
                    let n = n as f64;
                    let (sent, received, overall) = (sent / n, received / n, overall / n);
                    SweepPoint {
                        threshold: thr,
                        sent,
                        received,
                        prr: if sent > 0.0 { received / sent } else { 0.0 },
                        overall,
                    }
                })
                .collect()
        })
        .collect()
}

/// Runs the experiment (returns the Fig. 6 and Fig. 7 reports).
pub fn run(cfg: &ExpConfig) -> Vec<Report> {
    let points = sweep(cfg, Dbm::new(0.0));
    let mut fig6 = Report::new(
        "fig06",
        "Link sent/received vs CCA threshold (no co-channel interference)",
        &["CCA thr (dBm)", "sent/s", "received/s", "PRR"],
    );
    let mut fig7 = Report::new(
        "fig07",
        "Overall throughput vs the link's CCA threshold (no co-channel interference)",
        &["CCA thr (dBm)", "overall (pkt/s)"],
    );
    for p in &points {
        fig6.row([f1(p.threshold), f1(p.sent), f1(p.received), pct(p.prr)]);
        fig7.row([f1(p.threshold), f1(p.overall)]);
    }
    let default = points
        .iter()
        .find(|p| p.threshold.to_bits() == f64::to_bits(-77.0))
        .expect("default in sweep");
    let relaxed = points.last().expect("non-empty sweep");
    fig6.note(format!(
        "relaxing from the −77 dBm default to −20 dBm raises the link from \
         {:.0} to {:.0} pkt/s with PRR ≈ {} (paper: ~75 → ~150 pkt/s at ~100 % PRR)",
        default.sent,
        relaxed.sent,
        pct(relaxed.prr)
    ));
    fig6.note(
        "the flat region below −95 dBm reproduces the CC2420 CCA-threshold \
         register clamp; the ~50 pkt/s floor is the transmit-anyway \
         backoff-exhaustion rate (see CcaFailurePolicy)",
    );
    fig7.note(format!(
        "overall throughput grows from {:.0} to {:.0} pkt/s — the link's gain is \
         genuine concurrency, not throughput stolen from the neighbour channels \
         (paper Fig. 7: ~850 → ~1400)",
        points.first().expect("non-empty").overall,
        relaxed.overall
    ));
    vec![fig6, fig7]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relaxing_raises_link_and_overall() {
        let cfg = ExpConfig::quick();
        let points = sweep(&cfg, Dbm::new(0.0));
        let lo = points.iter().find(|p| p.threshold == -95.0).unwrap();
        let default = points.iter().find(|p| p.threshold == -77.0).unwrap();
        let hi = points.iter().find(|p| p.threshold == -30.0).unwrap();
        assert!(
            hi.sent > default.sent && default.sent > lo.sent,
            "sent not monotone-ish: {} / {} / {}",
            lo.sent,
            default.sent,
            hi.sent
        );
        assert!(hi.sent > 1.3 * default.sent, "gain too small");
        assert!(hi.prr > 0.95, "PRR {}", hi.prr);
        assert!(hi.overall > lo.overall, "overall should rise");
    }

    #[test]
    fn clamped_region_is_flat() {
        let cfg = ExpConfig::quick();
        let points = sweep(&cfg, Dbm::new(0.0));
        // The register floor is −95 dBm: every level at or below it
        // runs the same simulation, so the whole point (apart from the
        // requested threshold) is identical — the batch's run-key dedup
        // rests on this.
        let at = |thr: f64| SweepPoint {
            threshold: 0.0,
            ..*points.iter().find(|p| p.threshold == thr).unwrap()
        };
        for thr in [-120.0, -100.0] {
            assert_eq!(at(thr), at(-95.0), "{thr} dBm vs the −95 dBm floor");
        }
    }
}
