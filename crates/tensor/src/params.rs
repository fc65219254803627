//! Name-addressed parameter collections.
//!
//! Every message exchanged in an FL course carries model parameters (or
//! gradients, deltas, …) as a [`ParamMap`]: an ordered map from parameter name
//! (e.g. `"conv1.weight"`) to [`Tensor`]. Name-addressing is load-bearing for
//! the paper's personalization support — FedBN is literally "share every key
//! that does not start with `bn.`", and multi-goal FL shares only an agreed
//! subset of keys (the *consensus set*, §3.4.2).
//!
//! Keys are `Arc<str>`: a model builds each name once (`Sequential` at
//! `push`) and every map taken from it, and every clone, filter, difference
//! or merge of such a map, shares that one allocation. A name that arrives
//! as a string (a wire frame, a compressed block, a test) becomes a shared
//! key when it is inserted. Entries are kept sorted by the bytes of their
//! names, the order a `BTreeMap<String, _>` keeps, so every fold, norm and
//! wire frame walks them in the same order.

use crate::Tensor;
use std::fmt;
use std::sync::Arc;

/// An ordered map of named tensors.
///
/// A `Vec` sorted by name, so iteration order is deterministic — determinism
/// matters because aggregation, wire encoding, and test assertions all iterate
/// the map — and a clone is one allocation whatever the entry count.
#[derive(Clone, Default, PartialEq)]
pub struct ParamMap {
    /// Sorted by name, names unique.
    entries: Vec<(Arc<str>, Tensor)>,
}

impl ParamMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Where `name` is, or where it would go.
    fn find(&self, name: &str) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| (**k).cmp(name))
    }

    /// Inserts (or replaces) a named tensor. A replaced entry keeps its key.
    pub fn insert(&mut self, name: impl Into<String>, t: Tensor) {
        let name = name.into();
        self.put(self.find(&name), name, t);
    }

    /// [`ParamMap::insert`] under a shared key: what a model handing out the
    /// names it built once, or a decoder building each name once, calls.
    pub fn insert_shared(&mut self, name: Arc<str>, t: Tensor) {
        let at = match self.entries.last() {
            Some((last, _)) if *last >= name => self.find(&name),
            // a model hands its names out in order: append without a search
            _ => Err(self.entries.len()),
        };
        self.put(at, name, t);
    }

    /// Replaces the value at `Ok(i)`, or inserts the entry at `Err(i)`.
    fn put(&mut self, at: Result<usize, usize>, name: impl Into<Arc<str>>, t: Tensor) {
        match at {
            Ok(i) => self.entries[i].1 = t,
            Err(i) => self.entries.insert(i, (name.into(), t)),
        }
    }

    /// Looks up `"{prefix}.{leaf}"` without building the key — what a layer
    /// loading its parameters step after step asks.
    pub fn get_in(&self, prefix: &str, leaf: &str) -> Option<&Tensor> {
        let first = self.entries.partition_point(|(k, _)| **k < *prefix);
        self.entries[first..]
            .iter()
            .take_while(|(k, _)| k.starts_with(prefix))
            .find(|(k, _)| is_joined(k, prefix, leaf))
            .map(|(_, t)| t)
    }

    /// Looks up a tensor by name.
    pub fn get(&self, name: &str) -> Option<&Tensor> {
        self.find(name).ok().map(|i| &self.entries[i].1)
    }

    /// Mutable lookup by name.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Tensor> {
        self.find(name).ok().map(|i| &mut self.entries[i].1)
    }

    /// Removes and returns a named tensor.
    pub fn remove(&mut self, name: &str) -> Option<Tensor> {
        self.find(name).ok().map(|i| self.entries.remove(i).1)
    }

    /// `true` when the map contains `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.find(name).is_ok()
    }

    /// Number of named tensors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the map holds no tensors.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(name, tensor)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.entries.iter().map(|(k, v)| (&**k, v))
    }

    /// Iterates with mutable tensors, in name order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&str, &mut Tensor)> {
        self.entries.iter_mut().map(|(k, v)| (&**k, v))
    }

    /// Parameter names in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| &**k)
    }

    /// Total number of scalar elements across all tensors.
    pub fn numel(&self) -> usize {
        self.entries.iter().map(|(_, t)| t.numel()).sum()
    }

    /// A map with the same keys/shapes, all zeros.
    pub fn zeros_like(&self) -> Self {
        self.map(|_, v| v.zeros_like())
    }

    /// The map with each tensor replaced by `f(name, tensor)`, keys shared.
    fn map(&self, mut f: impl FnMut(&str, &Tensor) -> Tensor) -> Self {
        let entries = self
            .entries
            .iter()
            .map(|(k, v)| (Arc::clone(k), f(k, v)))
            .collect();
        Self { entries }
    }

    /// `self[k] += alpha * rhs[k]` for every key of `rhs`.
    ///
    /// # Panics
    /// Panics if `rhs` contains a key missing from `self` or with a different
    /// shape — both indicate a protocol error in the FL course.
    pub fn add_scaled(&mut self, alpha: f32, rhs: &ParamMap) {
        for (k, v) in rhs.iter() {
            let dst = self
                .get_mut(k)
                .unwrap_or_else(|| panic!("add_scaled: missing key {k:?}"));
            dst.add_scaled(alpha, v);
        }
    }

    /// Fused aggregation accumulate over shared structure:
    /// `self[k] += alpha * (u[k] - g[k])` for every key `k` of `self` that
    /// is also present in `u` (with `g` supplying the anchor value).
    ///
    /// This is the in-place aggregation hot path: no difference map and no
    /// filtered copies of `u`/`g` are materialized. Keys of `u` missing from
    /// `self` are ignored (the caller decides the accumulator's structure by
    /// preallocating it); keys of `self` missing from `u` are skipped — a
    /// client that shares only a subset of parameters contributes only to
    /// that subset, matching the filter-then-sub form it replaces.
    ///
    /// # Panics
    /// Panics if a contributing key is missing from `g` or shapes mismatch.
    pub fn acc_scaled_diff(&mut self, alpha: f32, u: &ParamMap, g: &ParamMap) {
        for (k, dst) in self.entries.iter_mut() {
            let Some(uv) = u.get(k) else { continue };
            let gv = g
                .get(k)
                .unwrap_or_else(|| panic!("acc_scaled_diff: missing anchor key {k:?}"));
            dst.acc_scaled_diff(alpha, uv, gv);
        }
    }

    /// Sets every element of every tensor to zero in place, preserving the
    /// allocations — the accumulator-reset between aggregation rounds.
    pub fn zero(&mut self) {
        for (_, t) in self.entries.iter_mut() {
            t.fill(0.0);
        }
    }

    /// Multiplies every tensor by `alpha` in place.
    pub fn scale(&mut self, alpha: f32) {
        for (_, t) in self.entries.iter_mut() {
            t.scale(alpha);
        }
    }

    /// Elementwise difference `self - rhs` over the keys of `self`.
    ///
    /// # Panics
    /// Panics if `rhs` is missing any key of `self`.
    pub fn sub(&self, rhs: &ParamMap) -> ParamMap {
        self.map(|k, v| {
            let other = rhs
                .get(k)
                .unwrap_or_else(|| panic!("sub: missing key {k:?}"));
            v.sub(other)
        })
    }

    /// Flattened inner product over shared structure.
    ///
    /// # Panics
    /// Panics on key or shape mismatch.
    pub fn dot(&self, rhs: &ParamMap) -> f32 {
        self.iter()
            .map(|(k, v)| {
                let other = rhs
                    .get(k)
                    .unwrap_or_else(|| panic!("dot: missing key {k:?}"));
                v.dot(other)
            })
            .sum()
    }

    /// Euclidean norm over all elements of all tensors.
    pub fn norm(&self) -> f32 {
        self.entries
            .iter()
            .map(|(_, t)| {
                let n = t.norm();
                n * n
            })
            .sum::<f32>()
            .sqrt()
    }

    /// Squared Euclidean distance to `rhs` over the keys of `self`.
    pub fn sq_dist(&self, rhs: &ParamMap) -> f32 {
        self.iter()
            .map(|(k, v)| {
                let other = rhs
                    .get(k)
                    .unwrap_or_else(|| panic!("sq_dist: missing key {k:?}"));
                v.sq_dist(other)
            })
            .sum()
    }

    /// Keeps only the entries whose name satisfies `pred` (e.g. FedBN's
    /// "everything except `bn.*`").
    pub fn filter(&self, pred: impl Fn(&str) -> bool) -> ParamMap {
        let entries = self
            .entries
            .iter()
            .filter(|(k, _)| pred(k))
            .cloned()
            .collect();
        ParamMap { entries }
    }

    /// [`ParamMap::filter`] in place: drops the entries whose name fails
    /// `pred`, building no second map.
    pub fn retain(&mut self, mut pred: impl FnMut(&str) -> bool) {
        self.entries.retain(|(k, _)| pred(k));
    }

    /// Copies every entry of `src` into `self`, replacing same-named entries
    /// and inserting new ones. This is the "load the shared part of the
    /// global model" operation: keys in `self` but not in `src` (e.g. local
    /// BatchNorm stats under FedBN) are left untouched.
    pub fn merge_from(&mut self, src: &ParamMap) {
        for (k, v) in &src.entries {
            self.insert_shared(Arc::clone(k), v.clone());
        }
    }

    /// Clips the global L2 norm to `max_norm`, returning the scaling factor
    /// applied (1.0 when no clipping occurred). Used by DP-FL (§4.1).
    pub fn clip_norm(&mut self, max_norm: f32) -> f32 {
        let n = self.norm();
        if n > max_norm && n > 0.0 {
            let s = max_norm / n;
            self.scale(s);
            s
        } else {
            1.0
        }
    }

    /// `true` when `other` has exactly the same keys with the same shapes —
    /// the check that lets a preallocated accumulator be reused across
    /// rounds instead of reallocated.
    pub fn same_structure(&self, other: &ParamMap) -> bool {
        self.entries.len() == other.entries.len()
            && self
                .entries
                .iter()
                .zip(other.entries.iter())
                .all(|((ka, ta), (kb, tb))| ka == kb && ta.shape() == tb.shape())
    }

    /// `true` when every tensor contains only finite values.
    pub fn is_finite(&self) -> bool {
        self.entries.iter().all(|(_, t)| t.is_finite())
    }
}

/// `true` when `key` is `"{prefix}.{leaf}"`.
fn is_joined(key: &str, prefix: &str, leaf: &str) -> bool {
    key.len() == prefix.len() + 1 + leaf.len()
        && key.starts_with(prefix)
        && key.as_bytes()[prefix.len()] == b'.'
        && key.ends_with(leaf)
}

/// Prints as the map it is: `{"name": Tensor(..), ..}`.
impl fmt::Debug for ParamMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl FromIterator<(String, Tensor)> for ParamMap {
    fn from_iter<I: IntoIterator<Item = (String, Tensor)>>(iter: I) -> Self {
        let mut map = Self::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

impl IntoIterator for ParamMap {
    type Item = (Arc<str>, Tensor);
    type IntoIter = std::vec::IntoIter<(Arc<str>, Tensor)>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ParamMap {
        let mut p = ParamMap::new();
        p.insert(
            "fc.weight",
            Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]),
        );
        p.insert("fc.bias", Tensor::from_vec(vec![2], vec![0.5, -0.5]));
        p.insert("bn.gamma", Tensor::from_vec(vec![2], vec![1.0, 1.0]));
        p
    }

    #[test]
    fn insert_get_iter_order() {
        let p = sample();
        assert_eq!(p.len(), 3);
        assert_eq!(p.get("fc.bias").unwrap().data(), &[0.5, -0.5]);
        let names: Vec<_> = p.names().collect();
        assert_eq!(names, vec!["bn.gamma", "fc.bias", "fc.weight"]);
        assert_eq!(p.numel(), 8);
    }

    #[test]
    fn add_scaled_updates_in_place() {
        let mut p = sample();
        let q = p.clone();
        p.add_scaled(2.0, &q);
        assert_eq!(p.get("fc.weight").unwrap().data(), &[3.0, 6.0, 9.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "missing key")]
    fn add_scaled_missing_key_panics() {
        let mut p = ParamMap::new();
        p.insert("a", Tensor::zeros(&[1]));
        let mut q = ParamMap::new();
        q.insert("b", Tensor::zeros(&[1]));
        p.add_scaled(1.0, &q);
    }

    #[test]
    fn sub_and_dot() {
        let p = sample();
        let z = p.zeros_like();
        let d = p.sub(&z);
        assert_eq!(d, p);
        assert!((p.dot(&p) - (1.0 + 4.0 + 9.0 + 16.0 + 0.25 + 0.25 + 1.0 + 1.0)).abs() < 1e-6);
    }

    #[test]
    fn filter_excludes_bn_keys() {
        let p = sample();
        let shared = p.filter(|k| !k.starts_with("bn."));
        assert_eq!(shared.len(), 2);
        assert!(!shared.contains("bn.gamma"));
    }

    #[test]
    fn merge_from_preserves_local_only_keys() {
        let mut local = sample();
        let mut incoming = ParamMap::new();
        incoming.insert("fc.weight", Tensor::zeros(&[2, 2]));
        local.merge_from(&incoming);
        assert_eq!(local.get("fc.weight").unwrap().data(), &[0.0; 4]);
        // bn.gamma untouched
        assert_eq!(local.get("bn.gamma").unwrap().data(), &[1.0, 1.0]);
    }

    #[test]
    fn clip_norm_scales_down_only_when_needed() {
        let mut p = ParamMap::new();
        p.insert("w", Tensor::from_vec(vec![2], vec![3.0, 4.0])); // norm 5
        let s = p.clip_norm(10.0);
        assert_eq!(s, 1.0);
        let s = p.clip_norm(1.0);
        assert!((s - 0.2).abs() < 1e-6);
        assert!((p.norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn acc_scaled_diff_matches_filter_sub_add_scaled() {
        let g = sample();
        let mut u = sample();
        u.get_mut("fc.weight").unwrap().scale(2.0);
        u.get_mut("fc.bias").unwrap().scale(-1.0);
        // u carries an extra key the accumulator does not track
        u.insert("extra.weight", Tensor::ones(&[2]));
        let w = 0.75f32;

        let mut fused = g.zeros_like();
        fused.acc_scaled_diff(w, &u, &g);

        // the form the aggregator used before the in-place rewrite
        let mut reference = g.zeros_like();
        let shared = u.filter(|k| g.contains(k));
        let d = shared.sub(&g.filter(|k| shared.contains(k)));
        for (k, t) in d.iter() {
            if let Some(slot) = reference.get_mut(k) {
                slot.add_scaled(w, t);
            }
        }

        for (k, t) in fused.iter() {
            let r = reference.get(k).unwrap();
            for (x, y) in t.data().iter().zip(r.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "key {k} diverged");
            }
        }
    }

    #[test]
    fn acc_scaled_diff_skips_keys_missing_from_update() {
        let g = sample();
        let partial = g.filter(|k| k != "fc.bias"); // client shares a subset
        let mut acc = g.zeros_like();
        acc.acc_scaled_diff(1.0, &partial, &g);
        assert_eq!(acc.get("fc.bias").unwrap().data(), &[0.0, 0.0]);
    }

    #[test]
    fn zero_clears_in_place() {
        let mut p = sample();
        p.zero();
        assert_eq!(p.norm(), 0.0);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn get_in_finds_exactly_the_joined_key() {
        let mut p = sample();
        // neighbours that share the prefix's bytes but are other keys
        p.insert("fc-x.weight", Tensor::zeros(&[1]));
        p.insert("fc1.weight", Tensor::zeros(&[1]));
        p.insert("fc.weights", Tensor::zeros(&[1]));
        for (name, t) in p.iter() {
            let (prefix, leaf) = name.rsplit_once('.').unwrap();
            assert!(std::ptr::eq(p.get_in(prefix, leaf).unwrap(), t), "{name}");
        }
        assert!(p.get_in("fc", "gamma").is_none());
        assert!(p.get_in("f", "c.bias").is_none());
        assert!(p.get_in("", "fc.bias").is_none());
    }

    #[test]
    fn norm_matches_flat_norm() {
        let p = sample();
        let flat: f32 = p
            .iter()
            .flat_map(|(_, t)| t.data().iter().map(|v| v * v))
            .sum();
        assert!((p.norm() - flat.sqrt()).abs() < 1e-6);
    }
}
