//! Criterion: update-compression codecs — throughput plus the bytes-on-wire
//! table quoted in README.md / DESIGN.md (run with
//! `cargo bench --bench compression`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fs_compress::{
    decompress, encode_block, Compressor, DeltaEncode, Identity, TopK, UniformQuant,
};
use fs_net::wire::params_wire_len;
use fs_tensor::model::{convnet2, Model};
use fs_tensor::{ParamMap, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A model-shaped parameter map with varied values so quantization and
/// top-k selection do real work (constant tensors would be degenerate).
fn make_params(numel: usize, rng: &mut StdRng) -> ParamMap {
    let quarter = numel / 4;
    let mut p = ParamMap::new();
    for name in ["conv1.weight", "conv1.bias", "fc.weight", "fc.bias"] {
        let data: Vec<f32> = (0..quarter).map(|_| rng.gen_range(-1.0..1.0)).collect();
        p.insert(name, Tensor::from_vec(vec![quarter], data));
    }
    p
}

fn encoded_bytes(codec: &mut dyn Compressor, params: &ParamMap) -> usize {
    encode_block(&codec.compress(params)).len()
}

/// Print the dense vs compressed bytes-on-wire table for one payload size.
fn print_table(numel: usize, rng: &mut StdRng) {
    let params = make_params(numel, rng);
    let dense = params_wire_len(&params);
    println!("\nbytes on wire, {numel}-parameter model (dense = {dense} B):");
    println!("  {:<22} {:>10} {:>8}", "codec", "bytes", "ratio");
    let mut codecs: Vec<(&str, Box<dyn Compressor>)> = vec![
        ("identity", Box::new(Identity)),
        ("quant8", Box::new(UniformQuant::new(8))),
        ("quant4", Box::new(UniformQuant::new(4))),
        ("topk 25%", Box::new(TopK::new(0.25))),
        ("topk 10%", Box::new(TopK::new(0.1))),
        ("topk 1%", Box::new(TopK::new(0.01))),
        (
            "delta+quant8",
            Box::new(DeltaEncode::new(Box::new(UniformQuant::new(8)))),
        ),
    ];
    for (name, codec) in &mut codecs {
        codec.set_reference(&params, 1);
        let bytes = encoded_bytes(codec.as_mut(), &params);
        println!(
            "  {:<22} {:>10} {:>7.2}x",
            name,
            bytes,
            dense as f64 / bytes as f64
        );
    }
}

fn bench_compression(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    for numel in [1_000usize, 100_000] {
        print_table(numel, &mut rng);
    }

    let mut group = c.benchmark_group("compression");
    for numel in [1_000usize, 10_000, 100_000] {
        let params = make_params(numel, &mut rng);
        group.throughput(Throughput::Bytes((4 * numel) as u64));
        group.bench_with_input(BenchmarkId::new("quant8", numel), &params, |b, p| {
            let mut codec = UniformQuant::new(8);
            b.iter(|| codec.compress(std::hint::black_box(p)))
        });
        group.bench_with_input(BenchmarkId::new("quant4", numel), &params, |b, p| {
            let mut codec = UniformQuant::new(4);
            b.iter(|| codec.compress(std::hint::black_box(p)))
        });
        group.bench_with_input(BenchmarkId::new("topk10", numel), &params, |b, p| {
            let mut codec = TopK::new(0.1);
            b.iter(|| codec.compress(std::hint::black_box(p)))
        });
        let block = UniformQuant::new(8).compress(&params);
        group.bench_with_input(BenchmarkId::new("dequant8", numel), &block, |b, blk| {
            b.iter(|| decompress(std::hint::black_box(blk), None).expect("valid"))
        });
    }
    group.finish();
}

/// The course benchmark's `femnist_topk` upload codec on its model: a
/// `DeltaEncode(TopK 0.1)` encode after `set_reference`, and the server's
/// sparse-delta reconstruct, over a `convnet2(1, 8, 32, 10)` template and an
/// update near it. Reproduces the course's `compress.encode_ns` /
/// `compress.decode_ns` probes outside the course.
fn bench_femnist_topk_codec(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let reference = convnet2(1, 8, 32, 10, 0.0, &mut rng).get_params();
    let mut trained = reference.clone();
    for (_, t) in trained.iter_mut() {
        for v in t.data_mut() {
            *v += rng.gen_range(-0.05f32..0.05);
        }
    }
    let upload_codec = || {
        let mut codec = DeltaEncode::new(Box::new(TopK::new(0.1)));
        codec.set_reference(&reference, 1);
        codec
    };
    let mut group = c.benchmark_group("femnist_topk");
    group.bench_function("delta_topk10_encode", |b| {
        let mut codec = upload_codec();
        b.iter(|| codec.compress(std::hint::black_box(&trained)))
    });
    let block = upload_codec().compress(&trained);
    group.bench_function("sparse_delta_decode", |b| {
        b.iter(|| decompress(std::hint::black_box(&block), Some(&reference)).expect("valid"))
    });
    group.finish();
}

criterion_group!(benches, bench_compression, bench_femnist_topk_codec);
criterion_main!(benches);
