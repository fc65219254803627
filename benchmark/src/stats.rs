//! Order statistics over small samples of timings.
//!
//! `quartiles` follows Python's `statistics.quantiles(values, n=4)` (the
//! exclusive method), because that is what the acceptance driver applies to
//! the ten-run sets; `percentile` is the nearest-rank form used for the
//! per-layer p50/p95 probes.

/// Sorted copy of `values` (NaNs last, they never occur in practice).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `p` in `[0, 100]`; 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartile, exclusive method. A sample of fewer than two
/// values has no spread: both quartiles equal its only value (or 0).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |q: usize| {
        // rank q*(n+1)/4, its integer part clamped into the sample; like
        // Python, the fractional part is not clamped (n = 2 extrapolates)
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

/// What one metric looked like over the repeats of a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    /// Distance between the first and the third quartile.
    pub iqr: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let (q1, q3) = quartiles(values);
        Self {
            median: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            iqr: q3 - q1,
            n: values.len(),
        }
    }

    /// A single observation (per-layer probes that are already a median).
    pub fn single(value: f64) -> Self {
        Self {
            median: value,
            min: value,
            max: value,
            iqr: 0.0,
            n: 1,
        }
    }
}
