//! Federated aggregators.
//!
//! The aggregator is decoupled from the server's behaviour (§3.6): it takes
//! the buffered client updates and the current global model and produces the
//! next global model. Provided rules:
//!
//! * [`FedAvg`] — sample-weighted averaging with staleness discounting and a
//!   pluggable server optimizer (FedOpt: SGD / Adam / Yogi);
//! * [`FedNova`] — normalizes each client's contribution by its local step
//!   count before averaging, correcting objective inconsistency;
//! * [`Krum`] — Byzantine-robust selection (§3.6 "Robustness Against
//!   Malicious Participants"), including multi-Krum;
//! * [`CoordinateMedian`] / [`TrimmedMean`] — classical robust statistics
//!   aggregation.

use fs_net::ParticipantId;
use fs_tensor::optim::ServerOpt;
use fs_tensor::ParamMap;

/// One buffered client update, as seen by the aggregator.
#[derive(Clone, Debug)]
pub struct ReceivedUpdate {
    /// The contributing client.
    pub client: ParticipantId,
    /// The client's updated parameters (full values, not deltas).
    pub params: ParamMap,
    /// Version difference between the current global model and the model the
    /// client started from (§3.3.1 (i)).
    pub staleness: u64,
    /// Local training examples (FedAvg weight).
    pub n_samples: u64,
    /// Local SGD steps actually taken (FedNova weight).
    pub n_steps: u64,
}

/// A federated aggregation rule.
pub trait Aggregator: Send {
    /// Produces the next global model from the current one and the buffered
    /// updates. Implementations must return `global` unchanged when `updates`
    /// is empty.
    fn aggregate(&mut self, global: &ParamMap, updates: &[ReceivedUpdate]) -> ParamMap;

    /// Human-readable rule name for course logs.
    fn name(&self) -> &'static str;
}

/// Accumulates `delta[k] += w_i * (u_i[k] - global[k])` for every update, in
/// update order — the order is part of the result's bits.
///
/// The accumulator is owned by the calling aggregator (preallocated, reused
/// across rounds); `updates` borrows the wire-decoded client maps without
/// copying them.
fn accumulate_deltas(delta: &mut ParamMap, global: &ParamMap, updates: &[(f32, &ParamMap)]) {
    for (w, u) in updates {
        delta.acc_scaled_diff(*w, u, global);
    }
}

/// Weight multiplier for a staled update: `1 / (1 + tau)^a`.
pub fn staleness_weight(staleness: u64, exponent: f32) -> f32 {
    if exponent == 0.0 {
        1.0
    } else {
        (1.0 + staleness as f32).powf(-exponent)
    }
}

/// Sample-weighted federated averaging with staleness discounting, applied
/// through a server optimizer (plain SGD with lr=1 reproduces vanilla FedAvg).
pub struct FedAvg {
    /// Server-side optimizer (FedOpt family).
    pub server_opt: ServerOpt,
    /// Staleness discount exponent `a`.
    pub staleness_discount: f32,
    /// Preallocated delta accumulator, reused across rounds. Owned here:
    /// updates only ever *read into* it, and it never escapes `aggregate`.
    scratch: Option<ParamMap>,
}

impl FedAvg {
    /// Vanilla FedAvg (server SGD, lr=1) with the given staleness discount.
    pub fn new(staleness_discount: f32) -> Self {
        Self {
            server_opt: ServerOpt::fedavg(),
            staleness_discount,
            scratch: None,
        }
    }

    /// FedOpt variant with a custom server optimizer.
    pub fn with_server_opt(server_opt: ServerOpt, staleness_discount: f32) -> Self {
        Self {
            server_opt,
            staleness_discount,
            scratch: None,
        }
    }
}

/// Takes the rule's reusable accumulator, zeroed, with `global`'s structure.
fn take_accumulator(scratch: &mut Option<ParamMap>, global: &ParamMap) -> ParamMap {
    match scratch.take() {
        Some(mut d) if d.same_structure(global) => {
            d.zero();
            d
        }
        _ => global.zeros_like(),
    }
}

impl Aggregator for FedAvg {
    fn aggregate(&mut self, global: &ParamMap, updates: &[ReceivedUpdate]) -> ParamMap {
        if updates.is_empty() {
            return global.clone();
        }
        // Weighted mean of client deltas accumulated in place over the
        // shared key set (multi-goal courses share a subset): no filtered
        // copies, no per-client difference maps. The server optimizer then
        // applies the pseudo-gradient.
        let mut total_w = 0.0f32;
        let mut delta = take_accumulator(&mut self.scratch, global);
        let weighted: Vec<(f32, &ParamMap)> = updates
            .iter()
            .map(|u| {
                let w = u.n_samples as f32 * staleness_weight(u.staleness, self.staleness_discount);
                total_w += w;
                (w, &u.params)
            })
            .collect();
        if total_w <= 0.0 {
            self.scratch = Some(delta);
            return global.clone();
        }
        accumulate_deltas(&mut delta, global, &weighted);
        delta.scale(1.0 / total_w);
        let mut next = global.clone();
        self.server_opt.apply(&mut next, &delta);
        self.scratch = Some(delta);
        next
    }

    fn name(&self) -> &'static str {
        "fedavg"
    }
}

/// FedNova: each client's delta is normalized by its local step count, and
/// the effective step scale is restored globally, so clients running
/// different numbers of local steps no longer bias the objective.
pub struct FedNova {
    /// Staleness discount exponent.
    pub staleness_discount: f32,
    /// Preallocated accumulator, reused across rounds.
    scratch: Option<ParamMap>,
}

impl FedNova {
    /// FedNova with the given staleness discount.
    pub fn new(staleness_discount: f32) -> Self {
        Self {
            staleness_discount,
            scratch: None,
        }
    }
}

impl Aggregator for FedNova {
    fn aggregate(&mut self, global: &ParamMap, updates: &[ReceivedUpdate]) -> ParamMap {
        if updates.is_empty() {
            return global.clone();
        }
        let mut total_w = 0.0f32;
        let mut eff_steps = 0.0f32;
        let mut norm_delta = take_accumulator(&mut self.scratch, global);
        // per-update weight is w / steps: same fused accumulate as FedAvg
        let weighted: Vec<(f32, &ParamMap)> = updates
            .iter()
            .map(|u| {
                let w = u.n_samples as f32 * staleness_weight(u.staleness, self.staleness_discount);
                let steps = u.n_steps.max(1) as f32;
                eff_steps += w * steps;
                total_w += w;
                (w / steps, &u.params)
            })
            .collect();
        if total_w <= 0.0 {
            self.scratch = Some(norm_delta);
            return global.clone();
        }
        accumulate_deltas(&mut norm_delta, global, &weighted);
        // tau_eff = weighted mean step count; delta = tau_eff * weighted mean normalized delta
        let tau_eff = eff_steps / total_w;
        norm_delta.scale(tau_eff / total_w);
        let mut next = global.clone();
        next.add_scaled(1.0, &norm_delta);
        self.scratch = Some(norm_delta);
        next
    }

    fn name(&self) -> &'static str {
        "fednova"
    }
}

/// Krum / multi-Krum Byzantine-robust aggregation: selects the update(s)
/// closest to their `n - f - 2` nearest neighbours and averages the selected
/// set, discarding outliers produced by malicious clients.
pub struct Krum {
    /// Assumed maximum number of Byzantine clients.
    pub num_byzantine: usize,
    /// Number of selected updates to average (1 = classic Krum).
    pub num_selected: usize,
}

impl Krum {
    /// Classic Krum tolerating `f` Byzantine clients.
    pub fn new(f: usize) -> Self {
        Self {
            num_byzantine: f,
            num_selected: 1,
        }
    }

    /// Multi-Krum averaging the best `m` updates.
    pub fn multi(f: usize, m: usize) -> Self {
        Self {
            num_byzantine: f,
            num_selected: m.max(1),
        }
    }

    /// Krum scores: for each update, the sum of squared distances to its
    /// `n - f - 2` nearest neighbours (lower = more central).
    pub fn scores(&self, updates: &[ReceivedUpdate]) -> Vec<f32> {
        let n = updates.len();
        let mut scores = vec![0.0f32; n];
        let keep = n.saturating_sub(self.num_byzantine + 2).max(1);
        for i in 0..n {
            let mut dists: Vec<f32> = (0..n)
                .filter(|&j| j != i)
                // a Byzantine NaN must count as "infinitely far", not panic
                .map(|j| {
                    let d = updates[i].params.sq_dist(&updates[j].params);
                    if d.is_finite() {
                        d
                    } else {
                        f32::INFINITY
                    }
                })
                .collect();
            dists.sort_by(f32::total_cmp);
            scores[i] = dists.iter().take(keep).sum();
        }
        scores
    }
}

impl Aggregator for Krum {
    fn aggregate(&mut self, global: &ParamMap, updates: &[ReceivedUpdate]) -> ParamMap {
        if updates.is_empty() {
            return global.clone();
        }
        let scores = self.scores(updates);
        let mut order: Vec<usize> = (0..updates.len()).collect();
        order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
        let m = self.num_selected.min(updates.len());
        // average only the keys the selected updates actually carry; global
        // keys absent from the updates keep their current values
        let mut next = global.clone();
        let selected: Vec<&ReceivedUpdate> = order.iter().take(m).map(|&i| &updates[i]).collect();
        for (k, out) in next.iter_mut() {
            let sources: Vec<&crate::aggregator::ReceivedUpdate> = selected
                .iter()
                .copied()
                .filter(|u| u.params.contains(k))
                .collect();
            if sources.is_empty() {
                continue;
            }
            out.scale(0.0);
            for u in &sources {
                // sources is filtered to updates that carry this key
                if let Some(t) = u.params.get(k) {
                    out.add_scaled(1.0 / sources.len() as f32, t);
                }
            }
        }
        next
    }

    fn name(&self) -> &'static str {
        "krum"
    }
}

/// Norm-bounding defence: caps every client's *delta* to a maximum L2 norm
/// before delegating to an inner rule. A cheap, widely deployed mitigation
/// against model-replacement attacks (boosted updates get rescaled back into
/// the benign range instead of dominating the average).
pub struct NormBounded {
    /// Maximum allowed L2 norm of a client delta.
    pub max_delta_norm: f32,
    /// The rule applied after bounding.
    pub inner: Box<dyn Aggregator>,
}

impl NormBounded {
    /// Wraps `inner` with a delta-norm cap.
    pub fn new(max_delta_norm: f32, inner: Box<dyn Aggregator>) -> Self {
        assert!(max_delta_norm > 0.0, "norm bound must be positive");
        Self {
            max_delta_norm,
            inner,
        }
    }
}

impl Aggregator for NormBounded {
    fn aggregate(&mut self, global: &ParamMap, updates: &[ReceivedUpdate]) -> ParamMap {
        let bounded: Vec<ReceivedUpdate> = updates
            .iter()
            .map(|u| {
                let shared = u.params.filter(|k| global.contains(k));
                let mut delta = shared.sub(&global.filter(|k| shared.contains(k)));
                delta.clip_norm(self.max_delta_norm);
                let mut params = global.filter(|k| shared.contains(k));
                params.add_scaled(1.0, &delta);
                ReceivedUpdate {
                    params,
                    ..u.clone()
                }
            })
            .collect();
        self.inner.aggregate(global, &bounded)
    }

    fn name(&self) -> &'static str {
        "norm_bounded"
    }
}

/// Coordinate-wise median aggregation.
pub struct CoordinateMedian;

impl Aggregator for CoordinateMedian {
    fn aggregate(&mut self, global: &ParamMap, updates: &[ReceivedUpdate]) -> ParamMap {
        robust_coordinatewise(global, updates, 0.0)
    }

    fn name(&self) -> &'static str {
        "median"
    }
}

/// Coordinate-wise trimmed mean: drops the `trim` fraction of extreme values
/// at each end before averaging each coordinate.
pub struct TrimmedMean {
    /// Fraction trimmed from each tail (0 ≤ trim < 0.5).
    pub trim: f32,
}

impl Aggregator for TrimmedMean {
    fn aggregate(&mut self, global: &ParamMap, updates: &[ReceivedUpdate]) -> ParamMap {
        assert!(
            (0.0..0.5).contains(&self.trim),
            "trim fraction must be in [0, 0.5), got {}",
            self.trim
        );
        robust_coordinatewise(global, updates, self.trim)
    }

    fn name(&self) -> &'static str {
        "trimmed_mean"
    }
}

/// Shared implementation: `trim = 0` computes the median; otherwise the
/// trimmed mean over each coordinate of the shared keys.
fn robust_coordinatewise(global: &ParamMap, updates: &[ReceivedUpdate], trim: f32) -> ParamMap {
    if updates.is_empty() {
        return global.clone();
    }
    let mut next = global.clone();
    let mut column: Vec<f32> = Vec::with_capacity(updates.len());
    for (k, out) in next.iter_mut() {
        let sources: Vec<&fs_tensor::Tensor> =
            updates.iter().filter_map(|u| u.params.get(k)).collect();
        if sources.is_empty() {
            continue;
        }
        for i in 0..out.numel() {
            column.clear();
            column.extend(sources.iter().map(|t| t.data()[i]));
            column.sort_by(f32::total_cmp); // NaN sorts last instead of panicking
            let n = column.len();
            let v = if trim <= 0.0 {
                // median
                if n % 2 == 1 {
                    column[n / 2]
                } else {
                    0.5 * (column[n / 2 - 1] + column[n / 2])
                }
            } else {
                let cut = (((n as f32) * trim).floor() as usize).min((n - 1) / 2);
                let kept = &column[cut..n - cut];
                // column order is fixed by the sort above, so the reduce is
                // deterministic
                kept.iter().sum::<f32>() / kept.len() as f32
            };
            out.data_mut()[i] = v;
        }
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_tensor::Tensor;

    fn params(v: &[f32]) -> ParamMap {
        let mut p = ParamMap::new();
        p.insert("w", Tensor::from_vec(vec![v.len()], v.to_vec()));
        p
    }

    fn update(v: &[f32], n: u64, staleness: u64) -> ReceivedUpdate {
        ReceivedUpdate {
            client: 1,
            params: params(v),
            staleness,
            n_samples: n,
            n_steps: 4,
        }
    }

    #[test]
    fn staleness_weight_decays() {
        assert_eq!(staleness_weight(0, 0.5), 1.0);
        assert!(staleness_weight(3, 0.5) < staleness_weight(1, 0.5));
        assert_eq!(staleness_weight(10, 0.0), 1.0);
    }

    #[test]
    fn fedavg_weighted_mean() {
        let mut agg = FedAvg::new(0.0);
        let global = params(&[0.0]);
        let ups = vec![update(&[1.0], 1, 0), update(&[4.0], 3, 0)];
        let next = agg.aggregate(&global, &ups);
        // (1*1 + 3*4)/4 = 3.25
        assert!((next.get("w").unwrap().data()[0] - 3.25).abs() < 1e-6);
    }

    #[test]
    fn fedavg_empty_is_identity() {
        let mut agg = FedAvg::new(0.5);
        let global = params(&[7.0]);
        assert_eq!(agg.aggregate(&global, &[]), global);
    }

    #[test]
    fn fedavg_discounts_stale_updates() {
        let mut agg = FedAvg::new(1.0);
        let global = params(&[0.0]);
        let ups = vec![update(&[1.0], 1, 0), update(&[-1.0], 1, 9)];
        let next = agg.aggregate(&global, &ups);
        // weights 1 and 0.1 -> (1 - 0.1)/1.1 ~ 0.818
        assert!(next.get("w").unwrap().data()[0] > 0.5);
    }

    #[test]
    fn fednova_normalizes_step_counts() {
        let mut agg = FedNova::new(0.0);
        let global = params(&[0.0]);
        // client A: 2 steps of +1 each (delta 2); client B: 8 steps of +1 each (delta 8)
        let mut a = update(&[2.0], 1, 0);
        a.n_steps = 2;
        let mut b = update(&[8.0], 1, 0);
        b.n_steps = 8;
        let next = agg.aggregate(&global, &[a, b]);
        // normalized deltas are both +1/step; tau_eff = 5 -> delta = 5
        assert!((next.get("w").unwrap().data()[0] - 5.0).abs() < 1e-5);
    }

    #[test]
    fn krum_rejects_outlier() {
        let mut agg = Krum::new(1);
        let global = params(&[0.0]);
        let ups = vec![
            update(&[1.0], 1, 0),
            update(&[1.1], 1, 0),
            update(&[0.9], 1, 0),
            update(&[100.0], 1, 0), // Byzantine
        ];
        let next = agg.aggregate(&global, &ups);
        let v = next.get("w").unwrap().data()[0];
        assert!((0.8..=1.2).contains(&v), "krum picked outlier: {v}");
    }

    #[test]
    fn multi_krum_averages_selected() {
        let mut agg = Krum::multi(1, 3);
        let global = params(&[0.0]);
        let ups = vec![
            update(&[1.0], 1, 0),
            update(&[2.0], 1, 0),
            update(&[3.0], 1, 0),
            update(&[1000.0], 1, 0),
        ];
        let next = agg.aggregate(&global, &ups);
        let v = next.get("w").unwrap().data()[0];
        assert!((v - 2.0).abs() < 1e-5, "multi-krum mean: {v}");
    }

    #[test]
    fn norm_bounding_neutralizes_boosted_update() {
        let global = params(&[0.0, 0.0]);
        // benign updates move ~1.0; the attacker submits a 100x boosted delta
        let ups = vec![
            update(&[1.0, 0.0], 10, 0),
            update(&[0.9, 0.1], 10, 0),
            update(&[100.0, -100.0], 10, 0),
        ];
        let mut plain = FedAvg::new(0.0);
        let hijacked = plain.aggregate(&global, &ups);
        assert!(
            hijacked.get("w").unwrap().data()[0] > 10.0,
            "attack must work unbounded"
        );
        let mut defended = NormBounded::new(1.5, Box::new(FedAvg::new(0.0)));
        let next = defended.aggregate(&global, &ups);
        let w = next.get("w").unwrap();
        assert!(
            w.norm() < 2.0,
            "bounded aggregate stays in benign range: {:?}",
            w.data()
        );
        assert_eq!(defended.name(), "norm_bounded");
    }

    #[test]
    fn median_resists_half_minus_one_outliers() {
        let mut agg = CoordinateMedian;
        let global = params(&[0.0]);
        let ups = vec![
            update(&[1.0], 1, 0),
            update(&[1.2], 1, 0),
            update(&[0.8], 1, 0),
            update(&[99.0], 1, 0),
            update(&[-99.0], 1, 0),
        ];
        let next = agg.aggregate(&global, &ups);
        assert!((next.get("w").unwrap().data()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn trimmed_mean_drops_tails() {
        let mut agg = TrimmedMean { trim: 0.25 };
        let global = params(&[0.0]);
        let ups = vec![
            update(&[-100.0], 1, 0),
            update(&[1.0], 1, 0),
            update(&[2.0], 1, 0),
            update(&[100.0], 1, 0),
        ];
        let next = agg.aggregate(&global, &ups);
        assert!((next.get("w").unwrap().data()[0] - 1.5).abs() < 1e-6);
    }

    #[test]
    fn krum_preserves_unshared_global_keys() {
        let mut agg = Krum::multi(0, 2);
        let mut global = params(&[0.0]);
        global.insert("extra", Tensor::from_vec(vec![1], vec![5.0]));
        let ups = vec![update(&[1.0], 1, 0), update(&[1.2], 1, 0)];
        let next = agg.aggregate(&global, &ups);
        assert_eq!(next.get("extra").unwrap().data(), &[5.0]);
        // single update: same contract
        let next = agg.aggregate(&global, &ups[..1]);
        assert_eq!(next.get("extra").unwrap().data(), &[5.0]);
        assert!((next.get("w").unwrap().data()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn krum_survives_byzantine_nan() {
        let mut agg = Krum::new(1);
        let global = params(&[0.0]);
        let mut evil = update(&[f32::NAN], 1, 0);
        evil.client = 9;
        let ups = vec![
            update(&[1.0], 1, 0),
            update(&[1.1], 1, 0),
            update(&[0.9], 1, 0),
            evil,
        ];
        let next = agg.aggregate(&global, &ups);
        assert!(next.is_finite(), "NaN update must be rejected, not adopted");
    }

    #[test]
    #[should_panic(expected = "trim fraction")]
    fn trimmed_mean_rejects_invalid_trim() {
        let mut agg = TrimmedMean { trim: 0.5 };
        let global = params(&[0.0]);
        let _ = agg.aggregate(&global, &[update(&[1.0], 1, 0), update(&[2.0], 1, 0)]);
    }

    #[test]
    fn aggregators_only_touch_shared_keys() {
        let mut agg = FedAvg::new(0.0);
        let mut global = params(&[0.0]);
        global.insert("extra", Tensor::from_vec(vec![1], vec![5.0]));
        let ups = vec![update(&[2.0], 1, 0)]; // update lacks "extra"
        let next = agg.aggregate(&global, &ups);
        assert_eq!(next.get("extra").unwrap().data(), &[5.0]);
        assert!((next.get("w").unwrap().data()[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn fedavg_scratch_reuse_handles_structure_change() {
        let mut agg = FedAvg::new(0.0);
        let g1 = params(&[1.0, 2.0]);
        let u1 = vec![update(&[2.0, 3.0], 1, 0)];
        let r1 = agg.aggregate(&g1, &u1);
        assert_eq!(r1.get("w").unwrap().data(), &[2.0, 3.0]);
        // different structure: scratch must be rebuilt, not misused
        let mut g2 = ParamMap::new();
        g2.insert("v", fs_tensor::Tensor::from_vec(vec![3], vec![0.0; 3]));
        let mut up = ParamMap::new();
        up.insert(
            "v",
            fs_tensor::Tensor::from_vec(vec![3], vec![3.0, 6.0, 9.0]),
        );
        let u2 = vec![ReceivedUpdate {
            client: 1,
            params: up,
            staleness: 0,
            n_samples: 1,
            n_steps: 1,
        }];
        let r2 = agg.aggregate(&g2, &u2);
        assert_eq!(r2.get("v").unwrap().data(), &[3.0, 6.0, 9.0]);
    }
}
