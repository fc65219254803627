//! Hyperparameter search spaces.

use rand::Rng;
use std::collections::BTreeMap;

/// A sampled configuration: name → value (integers are stored as floats and
/// rounded at use sites).
pub type Config = BTreeMap<String, f64>;

/// One tunable dimension.
#[derive(Clone, Debug)]
pub enum Param {
    /// Continuous value in `[lo, hi]`; `log` samples log-uniformly.
    Float {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
        /// Sample log-uniformly (for learning rates etc.).
        log: bool,
    },
    /// Integer value in `[lo, hi]` (inclusive).
    Int {
        /// Lower bound.
        lo: i64,
        /// Upper bound.
        hi: i64,
    },
    /// One of an explicit set of values.
    Choice(Vec<f64>),
}

/// A named collection of tunable dimensions.
#[derive(Clone, Debug, Default)]
pub struct SearchSpace {
    dims: Vec<(String, Param)>,
}

impl SearchSpace {
    /// Creates an empty space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a dimension (builder style).
    pub fn with(mut self, name: impl Into<String>, p: Param) -> Self {
        self.dims.push((name.into(), p));
        self
    }

    /// The dimension names.
    pub fn names(&self) -> Vec<&str> {
        self.dims.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Samples one configuration uniformly (per-dimension).
    pub fn sample(&self, rng: &mut impl Rng) -> Config {
        self.dims
            .iter()
            .map(|(name, p)| {
                let v = match p {
                    Param::Float { lo, hi, log } => {
                        if *log {
                            assert!(*lo > 0.0, "log scale needs positive bounds");
                            (lo.ln() + rng.gen::<f64>() * (hi.ln() - lo.ln())).exp()
                        } else {
                            lo + rng.gen::<f64>() * (hi - lo)
                        }
                    }
                    Param::Int { lo, hi } => rng.gen_range(*lo..=*hi) as f64,
                    Param::Choice(vals) => vals[rng.gen_range(0..vals.len())],
                };
                (name.clone(), v)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> SearchSpace {
        SearchSpace::new()
            .with(
                "lr",
                Param::Float {
                    lo: 0.01,
                    hi: 1.0,
                    log: true,
                },
            )
            .with("steps", Param::Int { lo: 1, hi: 8 })
            .with("batch", Param::Choice(vec![8.0, 16.0, 32.0]))
    }

    #[test]
    fn samples_stay_in_bounds() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..200 {
            let c = s.sample(&mut rng);
            let lr = c["lr"];
            assert!((0.01..=1.0).contains(&lr));
            let steps = c["steps"];
            assert!((1.0..=8.0).contains(&steps));
            assert!([8.0, 16.0, 32.0].contains(&c["batch"]));
        }
    }

    #[test]
    fn log_sampling_covers_decades() {
        let s = SearchSpace::new().with(
            "lr",
            Param::Float {
                lo: 1e-4,
                hi: 1.0,
                log: true,
            },
        );
        let mut rng = StdRng::seed_from_u64(1);
        let mut small = 0;
        for _ in 0..500 {
            if s.sample(&mut rng)["lr"] < 1e-2 {
                small += 1;
            }
        }
        // log-uniform: half the draws land below 1e-2
        assert!((150..350).contains(&small), "got {small}");
    }
}
