//! Criterion: the blocked matmul kernels against the naive baseline, on the
//! shapes of [`fs_bench::MATMUL_SHAPES`] — the full-tile squares and the
//! ragged products courses actually run; `exp_perf` re-measures the same
//! list outside criterion and persists it in `BENCH_perf.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use fs_bench::MATMUL_SHAPES;
use fs_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
