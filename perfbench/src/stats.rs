//! Order statistics over timing samples.
//!
//! A percentile is reported only when enough samples lie beyond it to
//! make it more than one lucky or unlucky request: p90 needs at least
//! [`P90_MIN_SAMPLES`] samples, so that ten of them sit above it.

/// Samples a p90 needs before it is reported rather than unresolved.
pub const P90_MIN_SAMPLES: usize = 100;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile `q` in `[0, 1]` of a non-empty sample.
fn quantile_of_sorted(v: &[f64], q: f64) -> f64 {
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median; `0.0` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    quantile_of_sorted(&sorted(values), 0.5)
}

/// The 90th percentile, or `None` (unresolved) when fewer than
/// [`P90_MIN_SAMPLES`] samples back it.
pub fn p90(values: &[f64]) -> Option<f64> {
    if values.len() < P90_MIN_SAMPLES {
        return None;
    }
    Some(quantile_of_sorted(&sorted(values), 0.9))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p90_refuses_fewer_than_100_samples() {
        let few: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(p90(&few), None);
        let enough: Vec<f64> = (0..100).map(f64::from).collect();
        let p = p90(&enough).expect("100 samples resolve p90");
        assert!((p - 89.1).abs() < 1e-9, "{p}");
    }
}
