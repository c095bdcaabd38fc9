//! Order statistics over measured samples.

use std::time::Duration;

/// Linear-interpolated quantile `q ∈ [0, 1]` of `samples` (any order).
/// Returns `0.0` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// How many of `len` sorted samples are ranked past the position the `q`
/// quantile interpolates at. Counted by rank, not by value: short times
/// read from a nanosecond clock tie often, and a tie at the cut would
/// otherwise make a run's validity depend on clock granularity.
pub fn beyond(len: usize, q: f64) -> usize {
    match len {
        0 => 0,
        n => n - 1 - (q.clamp(0.0, 1.0) * (n - 1) as f64).floor() as usize,
    }
}

/// Geometric mean of strictly positive values (`0.0` when empty).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds of a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(102, 0.9), 11);
        assert_eq!(beyond(0, 0.9), 0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
