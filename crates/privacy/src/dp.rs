//! Differential privacy for FL (§4.1, Figure 6).
//!
//! The paper exposes DP as a *behavior plug-in*: clients clip and perturb the
//! messages they are about to share. This module provides the Gaussian
//! mechanism over [`ParamMap`]s, the calibration formula
//! `sigma = sqrt(2 ln(1.25/delta)) * sensitivity / epsilon`, and a basic
//! sequential-composition accountant. As the paper notes, a formal end-to-end guarantee
//! still requires the user to fix the noise distribution and budget
//! allocation for their own data and task.

use fs_tensor::ParamMap;
use rand::Rng;
use rand_distr::{Distribution, Normal};

/// Configuration of the client-side DP perturbation.
#[derive(Clone, Copy, Debug)]
pub struct DpConfig {
    /// L2 clipping bound applied before noising (the sensitivity).
    pub clip_norm: f32,
    /// Gaussian noise standard deviation (absolute, post-clipping).
    pub sigma: f32,
}

impl DpConfig {
    /// Calibrates Gaussian noise for `(epsilon, delta)`-DP with the given
    /// L2 sensitivity: `sigma = sqrt(2 ln(1.25/delta)) * sens / epsilon`.
    pub fn gaussian(epsilon: f64, delta: f64, clip_norm: f32) -> Self {
        assert!(epsilon > 0.0 && (0.0..1.0).contains(&delta) && delta > 0.0);
        let sigma = ((2.0 * (1.25 / delta).ln()).sqrt() * clip_norm as f64 / epsilon) as f32;
        Self { clip_norm, sigma }
    }
}

/// Clips `params` to `clip_norm` and adds i.i.d. Gaussian noise `N(0, sigma²)`
/// to every coordinate. Returns the scaling factor from clipping.
pub fn gaussian_mechanism(params: &mut ParamMap, cfg: &DpConfig, rng: &mut impl Rng) -> f32 {
    let scale = params.clip_norm(cfg.clip_norm);
    if cfg.sigma > 0.0 {
        let noise = Normal::new(0.0, cfg.sigma as f64).expect("valid sigma");
        for (_, t) in params.iter_mut() {
            for v in t.data_mut() {
                *v += noise.sample(rng) as f32;
            }
        }
    }
    scale
}

/// Tracks cumulative privacy loss over repeated mechanism invocations.
#[derive(Clone, Debug, Default)]
pub struct PrivacyAccountant {
    events: Vec<(f64, f64)>, // (epsilon, delta)
}

impl PrivacyAccountant {
    /// Creates an empty accountant.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one `(epsilon, delta)` mechanism invocation.
    pub fn spend(&mut self, epsilon: f64, delta: f64) {
        assert!(epsilon >= 0.0 && delta >= 0.0);
        self.events.push((epsilon, delta));
    }

    /// Number of recorded invocations.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing has been spent.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Basic sequential composition: epsilons and deltas add.
    pub fn basic_composition(&self) -> (f64, f64) {
        let eps = self.events.iter().map(|e| e.0).sum();
        let delta = self.events.iter().map(|e| e.1).sum();
        (eps, delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params(v: &[f32]) -> ParamMap {
        let mut p = ParamMap::new();
        p.insert("w", Tensor::from_vec(vec![v.len()], v.to_vec()));
        p
    }

    #[test]
    fn gaussian_clips_then_noises() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut p = params(&[30.0, 40.0]); // norm 50
        let cfg = DpConfig {
            clip_norm: 1.0,
            sigma: 0.0,
        };
        let scale = gaussian_mechanism(&mut p, &cfg, &mut rng);
        assert!((scale - 0.02).abs() < 1e-6);
        assert!((p.norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn gaussian_noise_has_expected_scale() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = params(&vec![0.0; 20_000]);
        let cfg = DpConfig {
            clip_norm: 1.0,
            sigma: 0.5,
        };
        gaussian_mechanism(&mut p, &cfg, &mut rng);
        let t = p.get("w").unwrap();
        let std = (t.data().iter().map(|v| v * v).sum::<f32>() / t.numel() as f32).sqrt();
        assert!((std - 0.5).abs() < 0.02, "std {std}");
    }

    #[test]
    fn calibration_shrinks_with_epsilon() {
        let strict = DpConfig::gaussian(0.5, 1e-5, 1.0);
        let loose = DpConfig::gaussian(5.0, 1e-5, 1.0);
        assert!(strict.sigma > loose.sigma);
        // spot-check the formula at eps=1
        let c = DpConfig::gaussian(1.0, 1e-5, 1.0);
        let expect = (2.0f64 * (1.25e5f64).ln()).sqrt();
        assert!((c.sigma as f64 - expect).abs() < 1e-3);
    }

    #[test]
    fn accountant_compositions() {
        let mut acc = PrivacyAccountant::new();
        for _ in 0..10 {
            acc.spend(0.1, 1e-6);
        }
        let (eps, delta) = acc.basic_composition();
        assert!((eps - 1.0).abs() < 1e-9);
        assert!((delta - 1e-5).abs() < 1e-12);
    }
}
