//! Weight initializers.
//!
//! All initializers take an explicit RNG so FL courses are reproducible: the
//! server seeds one `StdRng` per course and every participant derives from it.

use crate::Tensor;
use rand::Rng;
use rand_distr::{Distribution, Normal, Uniform};

/// Kaiming/He-normal initialization for ReLU networks: `N(0, sqrt(2/fan_in))`.
pub fn kaiming_normal(shape: &[usize], fan_in: usize, rng: &mut impl Rng) -> Tensor {
    let std = (2.0 / fan_in.max(1) as f64).sqrt();
    let dist = Normal::new(0.0, std).expect("valid std");
    let numel: usize = shape.iter().product();
    let data = (0..numel).map(|_| dist.sample(rng) as f32).collect();
    Tensor::from_vec(shape.to_vec(), data)
}

/// Xavier/Glorot-uniform initialization: `U(-a, a)`, `a = sqrt(6/(fan_in+fan_out))`.
pub fn xavier_uniform(
    shape: &[usize],
    fan_in: usize,
    fan_out: usize,
    rng: &mut impl Rng,
) -> Tensor {
    let a = (6.0 / (fan_in + fan_out).max(1) as f64).sqrt();
    let dist = Uniform::new_inclusive(-a, a);
    let numel: usize = shape.iter().product();
    let data = (0..numel).map(|_| dist.sample(rng) as f32).collect();
    Tensor::from_vec(shape.to_vec(), data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn kaiming_has_expected_scale() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = kaiming_normal(&[1000], 50, &mut rng);
        let std = (t.data().iter().map(|v| v * v).sum::<f32>() / 1000.0).sqrt();
        let expect = (2.0f32 / 50.0).sqrt();
        assert!((std - expect).abs() < 0.05, "std {std} vs {expect}");
    }

    #[test]
    fn xavier_bounded() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = (6.0f32 / 20.0).sqrt();
        let t = xavier_uniform(&[500], 10, 10, &mut rng);
        assert!(t.data().iter().all(|v| v.abs() <= a + 1e-6));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        assert_eq!(
            kaiming_normal(&[16], 4, &mut r1),
            kaiming_normal(&[16], 4, &mut r2)
        );
    }
}
