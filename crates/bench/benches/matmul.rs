//! Criterion: the blocked matmul kernels against the naive baseline, on the
//! shapes of [`MATMUL_SHAPES`] — the full-tile squares and the ragged
//! products courses actually run.

use criterion::{criterion_group, criterion_main, Criterion};
use fs_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The products timed, as `(lhs stored transposed, m, k, n)`.
///
/// Two square-ish full-tile shapes, then the shapes courses actually run —
/// which mostly are *not* multiples of the 4x16 tile, and went unmeasured
/// while only the first two were here: the whole-batch convolution products
/// of the old row-major lowering (kept as the remainder-tile stress: n = 8,
/// 9, 10 and 72, m = 8), the per-image products of the current lowering
/// (`femnist` `convnet2`, batch 20 on 8x8), and the classifier head.
const MATMUL_SHAPES: [(bool, usize, usize, usize); 10] = [
    (false, 64, 64, 64),
    (false, 128, 256, 128),
    (false, 1280, 9, 8),
    (false, 320, 72, 16),
    (true, 8, 1280, 9),
    (true, 16, 320, 72),
    (false, 20, 32, 10),
    // conv1 / conv2 forward for one image: W [OC, C·K·K] x cols [C·K·K, OH·OW]
    (false, 8, 9, 64),
    (false, 16, 72, 16),
    // conv2 weight gradient for one image: cols [C·K·K, OH·OW] x g^T [OH·OW, OC]
    (false, 72, 16, 16),
];

fn random_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
    let data = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
    Tensor::from_vec(vec![rows, cols], data)
}

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut group = c.benchmark_group("matmul");

    for &(transposed_lhs, m, k, n) in &MATMUL_SHAPES {
        let a = random_matrix(m, k, &mut rng);
        let b = random_matrix(k, n, &mut rng);
        let mut out = Tensor::zeros(&[m, n]);
        if transposed_lhs {
            let at = a.t(); // [k, m]: the gradient-of-weights layout
            group.bench_function(&format!("naive_tn_{m}x{k}x{n}")[..], |bench| {
                bench.iter(|| {
                    std::hint::black_box(&at)
                        .t()
                        .matmul_naive(std::hint::black_box(&b))
                })
            });
            group.bench_function(&format!("tn_acc_{m}x{k}x{n}")[..], |bench| {
                bench.iter(|| {
                    std::hint::black_box(&at).matmul_tn_acc(std::hint::black_box(&b), &mut out)
                })
            });
            continue;
        }
        group.bench_function(&format!("naive_{m}x{k}x{n}")[..], |bench| {
            bench.iter(|| std::hint::black_box(&a).matmul_naive(std::hint::black_box(&b)))
        });
        group.bench_function(&format!("blocked_{m}x{k}x{n}")[..], |bench| {
            bench.iter(|| std::hint::black_box(&a).matmul_into(std::hint::black_box(&b), &mut out))
        });
        let bt = b.t(); // [n, k] layout for the transposed-RHS path
        group.bench_function(&format!("nt_into_{m}x{k}x{n}")[..], |bench| {
            bench.iter(|| {
                std::hint::black_box(&a).matmul_nt_into(std::hint::black_box(&bt), &mut out)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_matmul);
criterion_main!(benches);
