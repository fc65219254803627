//! Federated dataset containers: per-client train/val/test splits.

use fs_tensor::loss::Target;
use fs_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::Rng;
use std::ops::Range;

/// One split of one client's local data.
///
/// `x` stacks examples along the first dimension; `y` is either class indices
/// or real values (multi-goal regression tasks).
#[derive(Clone, Debug)]
pub struct ClientData {
    /// Features, `[N, ...]`.
    pub x: Tensor,
    /// Targets, one per example.
    pub y: Target,
}

impl ClientData {
    /// Empty dataset with the given per-example feature shape.
    pub fn empty(feature_shape: &[usize]) -> Self {
        let mut shape = vec![0usize];
        shape.extend_from_slice(feature_shape);
        Self {
            x: Tensor::zeros(&shape),
            y: Target::Classes(Vec::new()),
        }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.x.shape()[0]
    }

    /// `true` when the split holds no examples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-example feature element count (product of non-batch dims).
    pub fn example_numel(&self) -> usize {
        self.x.shape()[1..].iter().product()
    }

    /// Gathers the examples at `idx` into a new batch.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn batch(&self, idx: &[usize]) -> ClientData {
        let stride = self.example_numel();
        let n = self.len();
        let mut data = Vec::with_capacity(idx.len() * stride);
        for &i in idx {
            assert!(i < n, "batch index {i} out of range {n}");
            data.extend_from_slice(&self.x.data()[i * stride..(i + 1) * stride]);
        }
        let mut shape = vec![idx.len()];
        shape.extend_from_slice(&self.x.shape()[1..]);
        let y = match &self.y {
            Target::Classes(c) => Target::Classes(idx.iter().map(|&i| c[i]).collect()),
            Target::Values(v) => Target::Values(idx.iter().map(|&i| v[i]).collect()),
        };
        ClientData {
            x: Tensor::from_vec(shape, data),
            y,
        }
    }

    /// The contiguous examples `range`, copied as two slices: what
    /// [`ClientData::batch`] gathers from the indices of `range`.
    fn rows(&self, range: Range<usize>) -> ClientData {
        let stride = self.example_numel();
        let mut shape = vec![range.len()];
        shape.extend_from_slice(&self.x.shape()[1..]);
        let x = self.x.data()[range.start * stride..range.end * stride].to_vec();
        let y = match &self.y {
            Target::Classes(c) => Target::Classes(c[range].to_vec()),
            Target::Values(v) => Target::Values(v[range].to_vec()),
        };
        ClientData {
            x: Tensor::from_vec(shape, x),
            y,
        }
    }

    /// [`ClientData::batch`] into `out`, refilling its tensor and label
    /// vector in place when they already have the batch's shape and kind.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn batch_into(&self, idx: &[usize], out: &mut ClientData) {
        let same_kind = matches!(
            (&self.y, &out.y),
            (Target::Classes(_), Target::Classes(_)) | (Target::Values(_), Target::Values(_))
        );
        if !same_kind || out.x.shape()[0] != idx.len() || out.x.shape()[1..] != self.x.shape()[1..]
        {
            *out = self.batch(idx);
            return;
        }
        let (stride, n) = (self.example_numel(), self.len());
        let dst = out.x.data_mut();
        for (row, &i) in idx.iter().enumerate() {
            assert!(i < n, "batch index {i} out of range {n}");
            dst[row * stride..(row + 1) * stride]
                .copy_from_slice(&self.x.data()[i * stride..(i + 1) * stride]);
        }
        match (&self.y, &mut out.y) {
            (Target::Classes(src), Target::Classes(dst)) => gather(src, idx, dst),
            (Target::Values(src), Target::Values(dst)) => gather(src, idx, dst),
            _ => unreachable!("kinds checked above"),
        }
    }

    /// Samples a random minibatch of up to `size` examples.
    pub fn sample_batch(&self, size: usize, rng: &mut impl Rng) -> ClientData {
        let mut idx = Vec::new();
        self.shuffled_prefix(size, rng, &mut idx);
        self.batch(&idx)
    }

    /// [`ClientData::sample_batch`] drawing into buffers a training pass
    /// reuses step after step: the index permutation `idx` and the batch
    /// `out` (see [`ClientData::batch_into`]). The same draws from `rng`
    /// give the same batch.
    pub fn sample_batch_into(
        &self,
        size: usize,
        rng: &mut impl Rng,
        idx: &mut Vec<usize>,
        out: &mut ClientData,
    ) {
        self.shuffled_prefix(size, rng, idx);
        self.batch_into(idx, out);
    }

    /// The first `size` indices of a shuffled `0..len`, into `idx`: the
    /// draws every minibatch makes.
    fn shuffled_prefix(&self, size: usize, rng: &mut impl Rng, idx: &mut Vec<usize>) {
        idx.clear();
        idx.extend(0..self.len());
        idx.shuffle(rng);
        idx.truncate(size);
    }

    /// Histogram of class labels over `num_classes` bins (empty for
    /// regression targets).
    pub fn label_histogram(&self, num_classes: usize) -> Vec<usize> {
        let mut h = vec![0usize; num_classes];
        if let Target::Classes(c) = &self.y {
            for &y in c {
                if y < num_classes {
                    h[y] += 1;
                }
            }
        }
        h
    }
}

/// `dst = src[idx]`, refilling `dst`'s allocation.
fn gather<T: Copy>(src: &[T], idx: &[usize], dst: &mut Vec<T>) {
    dst.clear();
    dst.extend(idx.iter().map(|&i| src[i]));
}

/// One client's local data: train / validation / test splits.
#[derive(Clone, Debug)]
pub struct ClientSplit {
    /// Training split.
    pub train: ClientData,
    /// Validation split (used by early stopping and HPO).
    pub val: ClientData,
    /// Held-out test split.
    pub test: ClientData,
}

impl ClientSplit {
    /// Splits `all` into train/val/test with the given fractions
    /// (test gets the remainder). Examples are taken in order; shuffle first
    /// if the source ordering is meaningful.
    pub fn from_fractions(all: &ClientData, train_frac: f32, val_frac: f32) -> Self {
        assert!(train_frac + val_frac <= 1.0, "fractions exceed 1");
        let n = all.len();
        let n_train = ((n as f32) * train_frac).round() as usize;
        let n_val = ((n as f32) * val_frac).round() as usize;
        let n_train = n_train.min(n);
        let n_val = n_val.min(n - n_train);
        Self {
            train: all.rows(0..n_train),
            val: all.rows(n_train..n_train + n_val),
            test: all.rows(n_train + n_val..n),
        }
    }

    /// Total number of examples across splits.
    pub fn len(&self) -> usize {
        self.train.len() + self.val.len() + self.test.len()
    }

    /// `true` when all splits are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A federated dataset: one [`ClientSplit`] per client plus shared metadata.
#[derive(Clone, Debug)]
pub struct FedDataset {
    /// Per-client data, indexed by client id - 1 (client ids start at 1, the
    /// server is participant 0).
    pub clients: Vec<ClientSplit>,
    /// Per-example feature shape (e.g. `[1, 12, 12]` for images).
    pub feature_shape: Vec<usize>,
    /// Number of classes (0 for regression).
    pub num_classes: usize,
    /// Human-readable name used in logs and experiment output.
    pub name: String,
}

impl FedDataset {
    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// Per-example feature element count.
    pub fn input_dim(&self) -> usize {
        self.feature_shape.iter().product()
    }

    /// Returns a copy with every split's features flattened to `[N, D]`
    /// (for dense models consuming image-shaped datasets).
    pub fn flattened(&self) -> FedDataset {
        let d = self.input_dim();
        let mut out = self.clone();
        out.feature_shape = vec![d];
        for c in &mut out.clients {
            for part in [&mut c.train, &mut c.val, &mut c.test] {
                let n = part.x.shape()[0];
                part.x = part.x.reshape(&[n, d]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> ClientData {
        let x = Tensor::from_vec(vec![4, 2], vec![0.0, 0.1, 1.0, 1.1, 2.0, 2.1, 3.0, 3.1]);
        ClientData {
            x,
            y: Target::Classes(vec![0, 1, 0, 1]),
        }
    }

    #[test]
    fn batch_gathers_rows_and_labels() {
        let d = toy();
        let b = d.batch(&[2, 0]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.x.data(), &[2.0, 2.1, 0.0, 0.1]);
        match b.y {
            Target::Classes(c) => assert_eq!(c, vec![0, 0]),
            _ => panic!("wrong target kind"),
        }
    }

    #[test]
    fn sample_batch_caps_at_len() {
        let d = toy();
        let mut rng = StdRng::seed_from_u64(7);
        let b = d.sample_batch(10, &mut rng);
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn sample_batch_replays_bit_identically_per_seed() {
        // regression: this path once drew from thread_rng(), so two runs of
        // the same course could train on different minibatches (the
        // vendored rand has had no `thread_rng` since)
        let d = toy();
        for seed in [0u64, 1, 42] {
            let mut r1 = StdRng::seed_from_u64(seed);
            let mut r2 = StdRng::seed_from_u64(seed);
            let b1 = d.sample_batch(3, &mut r1);
            let b2 = d.sample_batch(3, &mut r2);
            assert_eq!(b1.x.data(), b2.x.data(), "seed {seed}: features differ");
            match (&b1.y, &b2.y) {
                (Target::Classes(a), Target::Classes(b)) => assert_eq!(a, b),
                _ => panic!("wrong target kind"),
            }
        }
        let mut ra = StdRng::seed_from_u64(0);
        let mut rb = StdRng::seed_from_u64(1);
        assert_ne!(
            d.sample_batch(3, &mut ra).x.data(),
            d.sample_batch(3, &mut rb).x.data(),
            "different seeds must draw different batches"
        );
    }

    #[test]
    fn label_histogram_counts() {
        let d = toy();
        assert_eq!(d.label_histogram(3), vec![2, 2, 0]);
    }

    #[test]
    fn from_fractions_partitions_everything() {
        let d = toy();
        let s = ClientSplit::from_fractions(&d, 0.5, 0.25);
        assert_eq!(s.train.len(), 2);
        assert_eq!(s.val.len(), 1);
        assert_eq!(s.test.len(), 1);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn rows_copy_what_batch_gathers() {
        let classes = toy();
        let values = ClientData {
            x: Tensor::from_vec(vec![3, 2], vec![1.0, -0.0, 3.0, f32::NAN, 5.0, 6.0]),
            y: Target::Values(vec![10.0, -0.0, 30.0]),
        };
        let bits = |d: &ClientData| {
            let y: Vec<u32> = match &d.y {
                Target::Classes(c) => c.iter().map(|&c| c as u32).collect(),
                Target::Values(v) => v.iter().map(|v| v.to_bits()).collect(),
            };
            let x: Vec<u32> = d.x.data().iter().map(|v| v.to_bits()).collect();
            (
                d.x.shape().to_vec(),
                x,
                matches!(d.y, Target::Classes(_)),
                y,
            )
        };
        for d in [classes, values] {
            for lo in 0..=d.len() {
                for hi in lo..=d.len() {
                    let idx: Vec<usize> = (lo..hi).collect();
                    assert_eq!(bits(&d.rows(lo..hi)), bits(&d.batch(&idx)), "{lo}..{hi}");
                }
            }
        }
    }

    #[test]
    fn values_targets_batch() {
        let x = Tensor::from_vec(vec![3, 1], vec![1.0, 2.0, 3.0]);
        let d = ClientData {
            x,
            y: Target::Values(vec![10.0, 20.0, 30.0]),
        };
        let b = d.batch(&[1]);
        match b.y {
            Target::Values(v) => assert_eq!(v, vec![20.0]),
            _ => panic!("wrong target kind"),
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn batch_oob_panics() {
        let d = toy();
        let _ = d.batch(&[7]);
    }
}
