//! Client samplers (§3.3.1 (ii)).
//!
//! Uniform sampling biases asynchronous FL against slow clients (their
//! updates arrive stale and get discounted/dropped), so the paper also
//! provides a responsiveness-weighted sampler and a group sampler.

use crate::idset::IdSet;
use fs_net::ParticipantId;
use rand::seq::SliceRandom;
use rand::Rng;

/// A client sampling strategy.
#[derive(Clone, Debug)]
pub enum Sampler {
    /// Uniform over the candidate set.
    Uniform,
    /// Probability proportional to the client's estimated response speed
    /// (`speeds[id - 1]`).
    Responsiveness {
        /// Per-client response speed estimates, indexed by client id - 1.
        speeds: Vec<f64>,
    },
    /// Sample entirely within one responsiveness group per call, rotating
    /// through groups so every group gets rounds at its own pace.
    Group {
        /// Client ids per group.
        groups: Vec<Vec<ParticipantId>>,
        /// Next group to draw from.
        cursor: usize,
        /// The candidates of the current call, as a set: a group member is
        /// a bit test, not a scan of the pool. Reused across calls.
        idle: IdSet,
    },
}

impl Sampler {
    /// Creates a group sampler from group membership lists.
    pub fn group(groups: Vec<Vec<ParticipantId>>) -> Self {
        Sampler::Group {
            groups,
            cursor: 0,
            idle: IdSet::new(),
        }
    }

    /// Samples up to `k` distinct clients from `candidates` (idle clients).
    ///
    /// Returns fewer than `k` when the relevant candidate pool is smaller.
    /// The picks and the draws are those of [`Sampler::sample_in_place`] on
    /// a copy of `candidates`.
    pub fn sample(
        &mut self,
        candidates: &[ParticipantId],
        k: usize,
        rng: &mut impl Rng,
    ) -> Vec<ParticipantId> {
        let mut pool = candidates.to_vec();
        self.sample_in_place(&mut pool, k, rng);
        pool
    }

    /// Replaces the candidates in `pool` with up to `k` of them, drawn
    /// without replacement; allocates nothing once `pool` and the group
    /// sampler's set have grown to the roster.
    ///
    /// The draws are a function of the candidates' order, and — for the
    /// uniform and group samplers — only of the pool's size: the vendored
    /// `shuffle` takes one `next_u64` per swap, whatever the contents.
    pub fn sample_in_place(&mut self, pool: &mut Vec<ParticipantId>, k: usize, rng: &mut impl Rng) {
        if pool.is_empty() || k == 0 {
            pool.clear();
            return;
        }
        match self {
            Sampler::Uniform => {
                pool.shuffle(rng);
                pool.truncate(k);
            }
            Sampler::Responsiveness { speeds } => {
                // weighted sampling without replacement (successive draws):
                // the undrawn pool is `pool[..left]`, each pick swapped to
                // just past it — `swap_remove`'s order on the undrawn part
                let weight = |c: ParticipantId| {
                    speeds
                        .get((c - 1) as usize)
                        .copied()
                        .unwrap_or(1.0)
                        .max(1e-12)
                };
                let mut left = pool.len();
                let stop = left - k.min(left);
                while left > stop {
                    let total: f64 = pool[..left].iter().map(|&c| weight(c)).sum();
                    let mut u: f64 = rng.gen::<f64>() * total;
                    let mut pick = left - 1;
                    for (i, &c) in pool[..left].iter().enumerate() {
                        let w = weight(c);
                        if u < w {
                            pick = i;
                            break;
                        }
                        u -= w;
                    }
                    pool.swap(pick, left - 1);
                    left -= 1;
                }
                // the picks sit past `left`, last drawn first
                pool.drain(..left);
                pool.reverse();
            }
            Sampler::Group {
                groups,
                cursor,
                idle,
            } => {
                idle.clear();
                for &c in pool.iter() {
                    idle.insert(c);
                }
                pool.clear();
                // find the next group with available candidates
                for _ in 0..groups.len() {
                    let g = &groups[*cursor % groups.len()];
                    *cursor = (*cursor + 1) % groups.len();
                    pool.extend(g.iter().copied().filter(|c| idle.contains(c)));
                    if !pool.is_empty() {
                        pool.shuffle(rng);
                        pool.truncate(k);
                        return;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idset::DENSE_LIMIT;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// The sampler as it stood before it drew in place: every variant copies
    /// the candidates into a fresh pool, and the group sampler tests members
    /// with a linear scan. The oracle for the in-place draw.
    fn copy_then_sample(
        sampler: &mut Sampler,
        candidates: &[ParticipantId],
        k: usize,
        rng: &mut StdRng,
    ) -> Vec<ParticipantId> {
        if candidates.is_empty() || k == 0 {
            return Vec::new();
        }
        match sampler {
            Sampler::Uniform => {
                let mut pool = candidates.to_vec();
                pool.shuffle(rng);
                pool.truncate(k);
                pool
            }
            Sampler::Responsiveness { speeds } => {
                let mut pool: Vec<ParticipantId> = candidates.to_vec();
                let mut out = Vec::with_capacity(k.min(pool.len()));
                while out.len() < k && !pool.is_empty() {
                    let weight = |c: ParticipantId| {
                        speeds
                            .get((c - 1) as usize)
                            .copied()
                            .unwrap_or(1.0)
                            .max(1e-12)
                    };
                    let total: f64 = pool.iter().map(|&c| weight(c)).sum();
                    let mut u: f64 = rng.gen::<f64>() * total;
                    let mut pick = pool.len() - 1;
                    for (i, &c) in pool.iter().enumerate() {
                        let w = weight(c);
                        if u < w {
                            pick = i;
                            break;
                        }
                        u -= w;
                    }
                    out.push(pool.swap_remove(pick));
                }
                out
            }
            Sampler::Group { groups, cursor, .. } => {
                if groups.is_empty() {
                    return Vec::new();
                }
                for _ in 0..groups.len() {
                    let g = &groups[*cursor % groups.len()];
                    *cursor = (*cursor + 1) % groups.len();
                    let mut pool: Vec<ParticipantId> = g
                        .iter()
                        .copied()
                        .filter(|c| candidates.contains(c))
                        .collect();
                    if pool.is_empty() {
                        continue;
                    }
                    pool.shuffle(rng);
                    pool.truncate(k);
                    return pool;
                }
                Vec::new()
            }
        }
    }

    /// Client ids from three clusters: low ids crossing word boundaries, ids
    /// on both sides of the bitmap's dense limit, and ids near `u32::MAX`.
    fn id() -> impl Strategy<Value = ParticipantId> {
        (0u8..4, 1u32..150).prop_map(|(cluster, k)| match cluster {
            0 | 1 => k,
            2 => DENSE_LIMIT - 3 + k % 6,
            _ => u32::MAX - k % 4,
        })
    }

    /// `((joins, foreign group members), speeds, group of each roster
    /// entry, rounds of (busy mask, k))`. The roster keeps the joins'
    /// first-seen order, so join order is not id order.
    type Course = (
        (Vec<ParticipantId>, Vec<ParticipantId>),
        Vec<f64>,
        Vec<u8>,
        Vec<(u64, usize)>,
    );

    fn course() -> impl Strategy<Value = Course> {
        (
            (
                prop::collection::vec(id(), 0..40),
                prop::collection::vec(id(), 0..6),
            ),
            prop::collection::vec(0.0f64..4.0, 0..160),
            prop::collection::vec(0u8..4, 40),
            prop::collection::vec((any::<u64>(), 0usize..9), 1..6),
        )
    }

    proptest! {
        #[test]
        fn drawing_in_place_makes_the_picks_and_draws_of_copying(case in course(), variant in 0u8..3, seed in any::<u64>()) {
            let ((joins, foreign), speeds, group_of, rounds) = case;
            let mut roster: Vec<ParticipantId> = Vec::new();
            for id in joins {
                if !roster.contains(&id) {
                    roster.push(id);
                }
            }
            let mut sampler = match variant {
                0 => Sampler::Uniform,
                1 => Sampler::Responsiveness { speeds },
                _ => {
                    let mut groups = vec![Vec::new(); 3];
                    for (i, &id) in roster.iter().enumerate() {
                        // group 3 is no group: those clients are never drawn
                        if let Some(g) = groups.get_mut(usize::from(group_of[i])) {
                            g.push(id);
                        }
                    }
                    groups[0].extend(foreign);
                    Sampler::group(groups)
                }
            };
            let mut oracle = sampler.clone();
            let mut copying = sampler.clone();
            let (mut rng, mut oracle_rng, mut copying_rng) = (
                StdRng::seed_from_u64(seed),
                StdRng::seed_from_u64(seed),
                StdRng::seed_from_u64(seed),
            );
            // one buffer for the whole course, as the server keeps it
            let mut pool = Vec::new();
            for (mask, k) in rounds {
                let busy = |i: usize| mask >> (i % 64) & 1 == 1;
                let idle: Vec<ParticipantId> = roster
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| !busy(i))
                    .map(|(_, &c)| c)
                    .collect();
                let want = copy_then_sample(&mut oracle, &idle, k, &mut oracle_rng);
                pool.clear();
                pool.extend_from_slice(&idle);
                sampler.sample_in_place(&mut pool, k, &mut rng);
                prop_assert_eq!(&pool, &want);
                prop_assert_eq!(copying.sample(&idle, k, &mut copying_rng), want);
            }
            let next = oracle_rng.next_u64();
            // the rng state after the draws
            prop_assert_eq!(rng.next_u64(), next);
            prop_assert_eq!(copying_rng.next_u64(), next);
            if let (Sampler::Group { cursor: a, .. }, Sampler::Group { cursor: b, .. }) = (&sampler, &oracle) {
                prop_assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn uniform_returns_distinct_subset() {
        let mut s = Sampler::Uniform;
        let mut rng = StdRng::seed_from_u64(1);
        let cands: Vec<u32> = (1..=20).collect();
        let picked = s.sample(&cands, 5, &mut rng);
        assert_eq!(picked.len(), 5);
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5);
        assert!(picked.iter().all(|c| cands.contains(c)));
    }

    #[test]
    fn uniform_caps_at_pool_size() {
        let mut s = Sampler::Uniform;
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(s.sample(&[1, 2], 10, &mut rng).len(), 2);
        assert!(s.sample(&[], 3, &mut rng).is_empty());
        assert!(s.sample(&[1, 2], 0, &mut rng).is_empty());
    }

    #[test]
    fn responsiveness_prefers_fast_clients() {
        // client 1 is 50x faster than client 2
        let mut s = Sampler::Responsiveness {
            speeds: vec![50.0, 1.0],
        };
        let mut rng = StdRng::seed_from_u64(2);
        let mut count1 = 0;
        for _ in 0..200 {
            let picked = s.sample(&[1, 2], 1, &mut rng);
            if picked == vec![1] {
                count1 += 1;
            }
        }
        assert!(count1 > 170, "fast client picked only {count1}/200 times");
    }

    #[test]
    fn responsiveness_without_replacement() {
        let mut s = Sampler::Responsiveness {
            speeds: vec![1.0, 1.0, 1.0],
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut picked = s.sample(&[1, 2, 3], 3, &mut rng);
        picked.sort_unstable();
        assert_eq!(picked, vec![1, 2, 3]);
    }

    #[test]
    fn group_rotates_between_groups() {
        let mut s = Sampler::group(vec![vec![1, 2], vec![3, 4]]);
        let mut rng = StdRng::seed_from_u64(4);
        let all: Vec<u32> = vec![1, 2, 3, 4];
        let a = s.sample(&all, 2, &mut rng);
        let b = s.sample(&all, 2, &mut rng);
        let ga: Vec<bool> = a.iter().map(|&c| c <= 2).collect();
        let gb: Vec<bool> = b.iter().map(|&c| c <= 2).collect();
        assert!(ga.iter().all(|&x| x), "first draw crossed groups: {a:?}");
        assert!(gb.iter().all(|&x| !x), "second draw crossed groups: {b:?}");
    }

    #[test]
    fn group_skips_empty_groups() {
        let mut s = Sampler::group(vec![vec![1], vec![2]]);
        let mut rng = StdRng::seed_from_u64(5);
        // only client 2 is idle; the group sampler should skip group 0
        let picked = s.sample(&[2], 1, &mut rng);
        assert_eq!(picked, vec![2]);
    }
}
