//! Criterion: federated aggregation scaling in client count and model size,
//! plus the fused accumulate kernel against the two-step form it replaced.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fs_core::aggregator::{Aggregator, CoordinateMedian, FedAvg, Krum, ReceivedUpdate};
use fs_tensor::{ParamMap, Tensor};

fn updates(n_clients: usize, numel: usize) -> (ParamMap, Vec<ReceivedUpdate>) {
    let mut global = ParamMap::new();
    global.insert("w", Tensor::zeros(&[numel]));
    let ups = (0..n_clients)
        .map(|i| {
            let mut p = ParamMap::new();
            p.insert("w", Tensor::full(&[numel], i as f32 * 0.01));
            ReceivedUpdate {
                client: i as u32 + 1,
                params: p,
                staleness: (i % 5) as u64,
                n_samples: 10 + i as u64,
                n_steps: 4,
            }
        })
        .collect();
    (global, ups)
}

fn bench_aggregation(c: &mut Criterion) {
    let mut group = c.benchmark_group("aggregation");
    for n in [10usize, 50, 200] {
        let (global, ups) = updates(n, 10_000);
        group.bench_with_input(BenchmarkId::new("fedavg", n), &ups, |b, ups| {
            let mut agg = FedAvg::new(0.5);
            b.iter(|| agg.aggregate(std::hint::black_box(&global), std::hint::black_box(ups)))
        });
    }
    // Krum is O(n^2) in clients: bench on smaller n
    for n in [10usize, 30] {
        let (global, ups) = updates(n, 2_000);
        group.bench_with_input(BenchmarkId::new("krum", n), &ups, |b, ups| {
            let mut agg = Krum::new(2);
            b.iter(|| agg.aggregate(std::hint::black_box(&global), std::hint::black_box(ups)))
        });
        group.bench_with_input(BenchmarkId::new("median", n), &ups, |b, ups| {
            let mut agg = CoordinateMedian;
            b.iter(|| agg.aggregate(std::hint::black_box(&global), std::hint::black_box(ups)))
        });
    }
    group.finish();
}

/// The fused accumulate `d += w * (u - g)` against the pre-PR-9 three-pass
/// form (`clone`, `sub`, `add_scaled`) it replaced.
fn bench_fused_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_accumulate");
    let numel = 1 << 18;
    let (global, ups) = updates(20, numel);
    let weighted: Vec<(f32, &ParamMap)> = ups.iter().map(|u| (0.05, &u.params)).collect();
    group.bench_function("fused", |b| {
        let mut delta = global.zeros_like();
        b.iter(|| {
            delta.zero();
            for (w, u) in &weighted {
                delta.acc_scaled_diff(*w, std::hint::black_box(u), &global);
            }
        })
    });
    group.bench_function("three_pass", |b| {
        let mut delta = global.zeros_like();
        b.iter(|| {
            delta.zero();
            for (w, u) in &weighted {
                let step = u.sub(&global);
                delta.add_scaled(*w, &step);
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_aggregation, bench_fused_kernel);
criterion_main!(benches);
