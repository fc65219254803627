//! Per-client device profiles and the fleet generator.
//!
//! The paper estimates client execution times from FedScale device traces; we
//! substitute log-normal compute-speed and bandwidth draws, which reproduce
//! the long-tailed "stragglers exist" behaviour that the asynchronous
//! experiments (§5.3.1) depend on. Each client also gets a crash probability
//! (device failures / dropouts) and a *responsiveness group* (speed quantile)
//! used by the group sampler.

use crate::time::VirtualTime;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, StandardNormal};

/// Static system profile of one client device.
#[derive(Clone, Copy, Debug)]
pub struct DeviceProfile {
    /// Local training throughput, in examples per second.
    pub compute_speed: f64,
    /// Link bandwidth, in bytes per second (used for both directions).
    pub bandwidth: f64,
    /// Probability that the device crashes during a round and never replies.
    pub crash_prob: f64,
    /// Responsiveness group index (0 = fastest quantile).
    pub group: usize,
}

impl DeviceProfile {
    /// Seconds of compute needed to process `examples` training examples.
    pub fn compute_secs(&self, examples: usize) -> f64 {
        examples as f64 / self.compute_speed.max(1e-9)
    }

    /// Seconds to move `bytes` across the link once.
    pub fn comm_secs(&self, bytes: usize) -> f64 {
        bytes as f64 / self.bandwidth.max(1e-9)
    }

    /// Total response latency for one round: download + compute + upload.
    pub fn round_secs(&self, examples: usize, payload_bytes: usize) -> f64 {
        2.0 * self.comm_secs(payload_bytes) + self.compute_secs(examples)
    }
}

/// Configuration for generating a heterogeneous device fleet.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of client devices.
    pub num_clients: usize,
    /// Median compute speed (examples/second).
    pub median_speed: f64,
    /// Log-normal sigma of the speed distribution (larger = more stragglers).
    pub speed_sigma: f64,
    /// Median bandwidth (bytes/second).
    pub median_bandwidth: f64,
    /// Log-normal sigma of the bandwidth distribution.
    pub bandwidth_sigma: f64,
    /// Per-round crash probability applied to every device.
    pub crash_prob: f64,
    /// Number of responsiveness groups (speed quantiles).
    pub num_groups: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            num_clients: 100,
            median_speed: 50.0,
            speed_sigma: 1.0,
            median_bandwidth: 50_000.0,
            bandwidth_sigma: 0.7,
            crash_prob: 0.0,
            num_groups: 4,
            seed: 17,
        }
    }
}

/// A generated set of device profiles, indexed by client id - 1.
#[derive(Clone, Debug)]
pub struct Fleet {
    profiles: Vec<DeviceProfile>,
}

impl Fleet {
    /// Generates a fleet from the configuration (deterministic in the seed).
    pub fn generate(cfg: &FleetConfig) -> Self {
        assert!(cfg.num_groups > 0, "fleet needs at least one group");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // log-normal draw, inlined: exp(mu + sigma·z) with one standard-normal
        // sample is exactly `LogNormal::sample`, without the fallible
        // constructor (a negative sigma just mirrors the distribution)
        let speed_mu = cfg.median_speed.ln();
        let bw_mu = cfg.median_bandwidth.ln();
        let lognormal = |mu: f64, sigma: f64, rng: &mut StdRng| -> f64 {
            let z: f64 = StandardNormal.sample(rng);
            (mu + sigma * z).exp()
        };
        let mut profiles: Vec<DeviceProfile> = (0..cfg.num_clients)
            .map(|_| DeviceProfile {
                compute_speed: lognormal(speed_mu, cfg.speed_sigma, &mut rng),
                bandwidth: lognormal(bw_mu, cfg.bandwidth_sigma, &mut rng),
                crash_prob: cfg.crash_prob,
                group: 0,
            })
            .collect();
        // assign groups by expected round latency quantile (fast group = 0)
        let latencies: Vec<f64> = profiles
            .iter()
            .map(|p| p.round_secs(100, 100_000))
            .collect();
        let per_group = cfg.num_clients.div_ceil(cfg.num_groups);
        for (rank, idx) in rank_ascending(&latencies).enumerate() {
            profiles[idx].group = (rank / per_group).min(cfg.num_groups - 1);
        }
        Self { profiles }
    }

    /// Builds a fleet from explicit profiles (useful in tests).
    pub fn from_profiles(profiles: Vec<DeviceProfile>) -> Self {
        Self { profiles }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// `true` when the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Profile of client `client_id` (ids start at 1; the server is 0).
    pub fn profile(&self, client_id: u32) -> &DeviceProfile {
        assert!(client_id >= 1, "client ids start at 1");
        &self.profiles[(client_id - 1) as usize]
    }

    /// All profiles, indexed by client id - 1.
    pub fn profiles(&self) -> &[DeviceProfile] {
        &self.profiles
    }

    /// Whether the broadcast reaching `client_id` at `at` is lost to a device
    /// crash: a pure function of `(seed, receiver, delivery time)`, so the
    /// outcome is known when the delivery is scheduled and moves only when
    /// that delivery itself moves — never because some other message was
    /// added, dropped or reordered. Two broadcasts to one receiver at the
    /// same instant share a fate.
    pub fn delivery_lost(&self, seed: u64, client_id: u32, at: VirtualTime) -> bool {
        let crash_prob = self.profile(client_id).crash_prob;
        crash_prob > 0.0
            && keyed_u01(seed ^ CRASH, u64::from(client_id), at.as_secs().to_bits()) < crash_prob
    }

    /// Client ids belonging to responsiveness group `g`.
    pub fn group_members(&self, g: usize) -> Vec<u32> {
        self.profiles
            .iter()
            .enumerate()
            .filter(|(_, p)| p.group == g)
            .map(|(i, _)| i as u32 + 1)
            .collect()
    }

    /// Number of distinct responsiveness groups present.
    pub fn num_groups(&self) -> usize {
        self.profiles
            .iter()
            .map(|p| p.group)
            .max()
            .map_or(0, |g| g + 1)
    }

    /// Mean response speed (1 / expected latency) of each client, used by the
    /// responsiveness-weighted sampler.
    pub fn response_speeds(&self, examples: usize, payload_bytes: usize) -> Vec<f64> {
        self.profiles
            .iter()
            .map(|p| 1.0 / p.round_secs(examples, payload_bytes).max(1e-9))
            .collect()
    }
}

/// The indices of `keys` from the smallest key up, in `f64::total_cmp`
/// order but with `-0.0` equal to `0.0`; equal keys keep index order, as a
/// stable sort would. Each key is mapped once to a `u64` whose unsigned
/// order is that order, packed above its index, and the packed words are
/// sorted: no comparison re-reads a float.
fn rank_ascending(keys: &[f64]) -> impl Iterator<Item = usize> {
    let mut packed: Vec<u128> = keys
        .iter()
        .enumerate()
        .map(|(idx, &key)| {
            let bits = if key == 0.0 { 0.0f64 } else { key }.to_bits();
            // negative: flip every bit; non-negative: set the sign bit
            let ordered = if bits >> 63 == 1 {
                !bits
            } else {
                bits | 1 << 63
            };
            u128::from(ordered) << 64 | idx as u128
        })
        .collect();
    packed.sort_unstable();
    packed.into_iter().map(|word| word as u64 as usize)
}

/// Domain tag separating the crash draw from any other keyed draw.
const CRASH: u64 = 0xc4a5;

/// A uniform draw in `[0, 1)` that is a function of its key alone: each key
/// word is folded through the SplitMix64 step (golden-ratio increment, then
/// the finaliser), and the top 53 bits become the fraction.
fn keyed_u01(seed: u64, a: u64, b: u64) -> f64 {
    let mut h = seed;
    for word in [a, b] {
        h = (h ^ word).wrapping_add(0x9e37_79b9_7f4a_7c15);
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
    }
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_decomposition() {
        let p = DeviceProfile {
            compute_speed: 10.0,
            bandwidth: 1000.0,
            crash_prob: 0.0,
            group: 0,
        };
        assert!((p.compute_secs(20) - 2.0).abs() < 1e-9);
        assert!((p.comm_secs(500) - 0.5).abs() < 1e-9);
        assert!((p.round_secs(20, 500) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn fleet_deterministic_and_heterogeneous() {
        let cfg = FleetConfig {
            num_clients: 50,
            ..Default::default()
        };
        let a = Fleet::generate(&cfg);
        let b = Fleet::generate(&cfg);
        assert_eq!(a.len(), 50);
        for i in 0..50 {
            assert_eq!(a.profiles()[i].compute_speed, b.profiles()[i].compute_speed);
        }
        let speeds: Vec<f64> = a.profiles().iter().map(|p| p.compute_speed).collect();
        let max = speeds.iter().cloned().fold(0.0, f64::max);
        let min = speeds.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min > 3.0, "fleet not heterogeneous: {min}..{max}");
    }

    #[test]
    fn groups_partition_fleet_by_speed() {
        let cfg = FleetConfig {
            num_clients: 40,
            num_groups: 4,
            ..Default::default()
        };
        let f = Fleet::generate(&cfg);
        let total: usize = (0..4).map(|g| f.group_members(g).len()).sum();
        assert_eq!(total, 40);
        assert_eq!(f.num_groups(), 4);
        // group 0 should be faster on average than group 3
        let avg = |g: usize| {
            let m = f.group_members(g);
            m.iter()
                .map(|&c| f.profile(c).round_secs(100, 100_000))
                .sum::<f64>()
                / m.len() as f64
        };
        assert!(
            avg(0) < avg(3),
            "group 0 {} not faster than group 3 {}",
            avg(0),
            avg(3)
        );
    }

    fn uniform_fleet(clients: usize, crash_prob: f64) -> Fleet {
        Fleet::from_profiles(vec![
            DeviceProfile {
                compute_speed: 1.0,
                bandwidth: 1.0,
                crash_prob,
                group: 0,
            };
            clients
        ])
    }

    /// 20 receivers × 10 delivery times per seed.
    fn keys() -> impl Iterator<Item = (u32, VirtualTime)> {
        (1..=20u32).flat_map(|c| {
            (0..10).map(move |k| {
                (
                    c,
                    VirtualTime::from_secs(0.37 * k as f64 + 0.011 * c as f64),
                )
            })
        })
    }

    #[test]
    fn crash_probability_extremes() {
        let (never, always) = (uniform_fleet(20, 0.0), uniform_fleet(20, 1.0));
        for seed in 0..50 {
            for (c, at) in keys() {
                assert!(!never.delivery_lost(seed, c, at));
                assert!(always.delivery_lost(seed, c, at));
            }
        }
    }

    #[test]
    fn realised_loss_rate_is_inside_the_binomial_99_percent_interval() {
        for p in [0.15, 0.35] {
            let fleet = uniform_fleet(20, p);
            let (mut lost, mut n) = (0u64, 0u64);
            for seed in 0..1000u64 {
                for (c, at) in keys() {
                    lost += u64::from(fleet.delivery_lost(seed, c, at));
                    n += 1;
                }
            }
            assert_eq!(n, 200_000);
            let (rate, half_width) = (
                lost as f64 / n as f64,
                2.576 * (p * (1.0 - p) / n as f64).sqrt(),
            );
            assert!(
                (rate - p).abs() <= half_width,
                "crash_prob {p}: realised {rate} is outside ±{half_width}"
            );
        }
    }

    #[test]
    fn an_outcome_depends_on_its_own_key_not_on_what_was_asked_before() {
        let fleet = uniform_fleet(20, 0.35);
        let forward: Vec<bool> = keys()
            .map(|(c, at)| fleet.delivery_lost(9, c, at))
            .collect();
        assert!(forward.contains(&true) && forward.contains(&false));
        // reverse order, with unrelated keys (other seeds, other times) asked in between
        let all: Vec<_> = keys().collect();
        let mut backward: Vec<bool> = all
            .iter()
            .rev()
            .map(|&(c, at)| {
                fleet.delivery_lost(10, c, at);
                fleet.delivery_lost(9, c, at + 1e-9);
                fleet.delivery_lost(9, c, at)
            })
            .collect();
        backward.reverse();
        assert_eq!(forward, backward);
        // and the key is the whole key: another seed, receiver or instant re-rolls
        let differs = |other: Vec<bool>| other != forward;
        assert!(differs(
            keys()
                .map(|(c, at)| fleet.delivery_lost(10, c, at))
                .collect()
        ));
        assert!(differs(
            keys()
                .map(|(c, at)| fleet.delivery_lost(9, c % 20 + 1, at))
                .collect()
        ));
        assert!(differs(
            keys()
                .map(|(c, at)| fleet.delivery_lost(9, c, at + 1e-9))
                .collect()
        ));
    }

    #[test]
    fn equal_and_signed_zero_keys_rank_by_index() {
        let ranked: Vec<usize> = rank_ascending(&[2.0, 0.0, -0.0, 2.0, -1.0, 0.0, -0.0]).collect();
        assert_eq!(ranked, [4, 1, 2, 5, 6, 0, 3]);
    }

    #[test]
    fn ranking_matches_a_stable_total_cmp_sort() {
        let mut rng = StdRng::seed_from_u64(3);
        let specials = [
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            1e-300,
            -1e300,
        ];
        let keys: Vec<f64> = (0..2_000)
            .map(|i| match i % 7 {
                // repeated values, so ties are common
                0 => (i % 5) as f64,
                1 => specials[i % specials.len()],
                _ => StandardNormal.sample(&mut rng),
            })
            .collect();
        let mut stable: Vec<usize> = (0..keys.len()).collect();
        stable.sort_by(|&a, &b| keys[a].total_cmp(&keys[b]));
        assert_eq!(rank_ascending(&keys).collect::<Vec<_>>(), stable);
    }

    #[test]
    fn response_speeds_order_matches_latency() {
        let f = Fleet::from_profiles(vec![
            DeviceProfile {
                compute_speed: 100.0,
                bandwidth: 1e6,
                crash_prob: 0.0,
                group: 0,
            },
            DeviceProfile {
                compute_speed: 1.0,
                bandwidth: 1e3,
                crash_prob: 0.0,
                group: 1,
            },
        ]);
        let s = f.response_speeds(100, 10_000);
        assert!(s[0] > s[1]);
    }
}
