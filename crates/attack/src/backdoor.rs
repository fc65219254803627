//! Backdoor attacks by data poisoning.
//!
//! The attacker's objective (§4.2): the model behaves normally on clean data
//! but classifies *triggered* inputs into an attacker-chosen class. Provided
//! poisoners:
//!
//! * [`Trigger`] + [`poison_dataset`] — BadNets: stamp a pixel patch, relabel
//!   to the target class;
//! * [`dba_fragments`] — DBA: split one global trigger into fragments, one
//!   per colluding client, so no single update carries the full pattern;
//! * [`label_flip`] — classic label-flipping (a ↦ b).

use fs_data::ClientData;
use fs_tensor::loss::Target;
use fs_tensor::model::Model;
use fs_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::Rng;

/// A rectangular pixel trigger on `[C, H, W]` images.
#[derive(Clone, Debug)]
pub struct Trigger {
    /// Top-left row.
    pub row: usize,
    /// Top-left column.
    pub col: usize,
    /// Patch height.
    pub h: usize,
    /// Patch width.
    pub w: usize,
    /// Pixel value stamped into the patch.
    pub value: f32,
}

impl Trigger {
    /// A default 2x2 corner trigger.
    pub fn corner() -> Self {
        Self {
            row: 0,
            col: 0,
            h: 2,
            w: 2,
            value: 3.0,
        }
    }

    /// Stamps the trigger into every image of a `[N, C, H, W]` batch,
    /// in place.
    pub fn stamp(&self, x: &mut Tensor) {
        assert_eq!(x.shape().len(), 4, "trigger expects [N, C, H, W]");
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        assert!(
            self.row + self.h <= h && self.col + self.w <= w,
            "trigger out of bounds"
        );
        let data = x.data_mut();
        for ni in 0..n {
            for ci in 0..c {
                for dy in 0..self.h {
                    for dx in 0..self.w {
                        data[((ni * c + ci) * h + self.row + dy) * w + self.col + dx] = self.value;
                    }
                }
            }
        }
    }
}

/// Poisons a fraction of `data` in place: stamps `trigger` and relabels to
/// `target_class`. Returns the poisoned indices.
pub fn poison_dataset(
    data: &mut ClientData,
    trigger: &Trigger,
    target_class: usize,
    fraction: f32,
    rng: &mut impl Rng,
) -> Vec<usize> {
    let n = data.len();
    let count = ((n as f32) * fraction).round() as usize;
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    idx.truncate(count);
    let (c, h, w) = (data.x.shape()[1], data.x.shape()[2], data.x.shape()[3]);
    for &i in &idx {
        // stamp one example
        let mut one = data.batch(&[i]);
        trigger.stamp(&mut one.x);
        let stride = c * h * w;
        data.x.data_mut()[i * stride..(i + 1) * stride].copy_from_slice(one.x.data());
        if let Target::Classes(labels) = &mut data.y {
            labels[i] = target_class;
        }
    }
    idx
}

/// Splits a trigger into `k` single-column fragments (DBA): colluding client
/// `j` stamps only fragment `j`; the server-side aggregate reassembles the
/// full pattern.
pub fn dba_fragments(trigger: &Trigger, k: usize) -> Vec<Trigger> {
    assert!(
        k >= 1 && k <= trigger.w,
        "cannot split {}-wide trigger into {k}",
        trigger.w
    );
    let per = trigger.w / k;
    (0..k)
        .map(|j| Trigger {
            row: trigger.row,
            col: trigger.col + j * per,
            h: trigger.h,
            w: if j == k - 1 { trigger.w - j * per } else { per },
            value: trigger.value,
        })
        .collect()
}

/// Flips every label `from` to `to`, returning how many were flipped.
pub fn label_flip(data: &mut ClientData, from: usize, to: usize) -> usize {
    let mut flipped = 0;
    if let Target::Classes(labels) = &mut data.y {
        for l in labels.iter_mut() {
            if *l == from {
                *l = to;
                flipped += 1;
            }
        }
    }
    flipped
}

/// Attack success rate: the fraction of *triggered* test inputs classified as
/// the target class (ground-truth target-class examples are excluded so clean
/// accuracy does not inflate the score).
pub fn attack_success_rate(
    model: &mut dyn Model,
    clean_test: &ClientData,
    trigger: &Trigger,
    target_class: usize,
) -> f32 {
    let labels = match &clean_test.y {
        Target::Classes(c) => c.clone(),
        _ => return 0.0,
    };
    let keep: Vec<usize> = (0..clean_test.len())
        .filter(|&i| labels[i] != target_class)
        .collect();
    if keep.is_empty() {
        return 0.0;
    }
    let mut batch = clean_test.batch(&keep);
    trigger.stamp(&mut batch.x);
    let preds = model.predict(&batch.x).argmax_rows();
    preds.iter().filter(|&&p| p == target_class).count() as f32 / keep.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_data::synth::{cifar_like, ImageConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn image_data() -> ClientData {
        let cfg = ImageConfig {
            num_clients: 1,
            per_client: 40,
            img: 8,
            ..Default::default()
        };
        cifar_like(&cfg, None).clients[0].train.clone()
    }

    #[test]
    fn trigger_stamps_patch() {
        let mut x = Tensor::zeros(&[2, 1, 8, 8]);
        let t = Trigger::corner();
        t.stamp(&mut x);
        assert_eq!(x.data()[0], 3.0); // (0,0)
        assert_eq!(x.data()[1], 3.0); // (0,1)
        assert_eq!(x.data()[8], 3.0); // (1,0)
        assert_eq!(x.data()[2], 0.0); // (0,2) untouched
                                      // second image too
        assert_eq!(x.data()[64], 3.0);
    }

    #[test]
    fn poison_relabels_and_stamps() {
        let mut d = image_data();
        let mut rng = StdRng::seed_from_u64(0);
        let idx = poison_dataset(&mut d, &Trigger::corner(), 7, 0.25, &mut rng);
        assert_eq!(idx.len(), ((d.len() as f32) * 0.25).round() as usize);
        let labels = match &d.y {
            Target::Classes(c) => c.clone(),
            _ => unreachable!(),
        };
        for &i in &idx {
            assert_eq!(labels[i], 7);
            let b = d.batch(&[i]);
            assert_eq!(b.x.data()[0], 3.0);
        }
    }

    #[test]
    fn dba_fragments_tile_the_trigger() {
        let t = Trigger {
            row: 1,
            col: 2,
            h: 2,
            w: 4,
            value: 3.0,
        };
        let frags = dba_fragments(&t, 2);
        assert_eq!(frags.len(), 2);
        assert_eq!(frags[0].col, 2);
        assert_eq!(frags[0].w, 2);
        assert_eq!(frags[1].col, 4);
        assert_eq!(frags[1].w, 2);
        // stamping all fragments equals stamping the whole trigger
        let mut a = Tensor::zeros(&[1, 1, 8, 8]);
        let mut b = Tensor::zeros(&[1, 1, 8, 8]);
        t.stamp(&mut a);
        for f in &frags {
            f.stamp(&mut b);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn label_flip_counts() {
        let mut d = image_data();
        let before = d.label_histogram(10);
        let flipped = label_flip(&mut d, 0, 1);
        assert_eq!(flipped, before[0]);
        let after = d.label_histogram(10);
        assert_eq!(after[0], 0);
        assert_eq!(after[1], before[0] + before[1]);
    }
}
