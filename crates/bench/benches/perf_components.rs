//! Criterion micro-benchmarks of the pipeline components: decomposition,
//! recomposition, bit-plane encoding, greedy planning, retrieval, and the
//! neural-network forward/training steps — each transform/codec stage in a
//! serial and a parallel variant so the speedup of the threaded data path
//! is measured directly (acceptance target: ≥ 1.5× on 48³ at 4+ threads).

use criterion::{criterion_group, criterion_main, Criterion};
use pmr_core::emgard::level_signature;
use pmr_field::{Field, Shape};
use pmr_mgard::{
    retrieve_many, CompressConfig, Compressed, DecodeOptions, Decomposer, ExecPolicy,
    LevelEncoding, PlaneKernel, TransformMode,
};
use pmr_nn::{Activation, Dataset, Matrix, Mlp, TrainConfig};
use std::hint::black_box;

fn test_field(n: usize) -> Field {
    Field::from_fn("bench", 0, Shape::cube(n), |x, y, z| {
        ((x as f64) * 0.31).sin() * ((y as f64) * 0.17).cos() + ((z as f64) * 0.05).sin()
    })
}

/// 4 workers unless the machine has fewer cores.
fn parallel_policy() -> ExecPolicy {
    ExecPolicy::with_threads(ExecPolicy::default().resolved_threads().clamp(1, 4))
}

fn bench_transform(c: &mut Criterion) {
    let field = test_field(33);
    let dec = Decomposer::new(field.shape(), 5, TransformMode::L2Projection);
    c.bench_function("decompose_33cube_l2", |b| {
        b.iter(|| {
            let mut data = field.data().to_vec();
            dec.decompose(black_box(&mut data));
            data
        })
    });
    let mut coeffs = field.data().to_vec();
    dec.decompose(&mut coeffs);
    c.bench_function("recompose_33cube_l2", |b| {
        b.iter(|| {
            let mut data = coeffs.clone();
            dec.recompose(black_box(&mut data));
            data
        })
    });
}

fn bench_transform_parallel(c: &mut Criterion) {
    let field = test_field(48);
    let dec = Decomposer::new(field.shape(), 5, TransformMode::L2Projection);
    let serial = ExecPolicy::serial();
    let par = parallel_policy();
    c.bench_function("decompose_48cube_serial", |b| {
        b.iter(|| {
            let mut data = field.data().to_vec();
            dec.decompose_with(black_box(&mut data), &serial);
            data
        })
    });
    c.bench_function("decompose_48cube_parallel", |b| {
        b.iter(|| {
            let mut data = field.data().to_vec();
            dec.decompose_with(black_box(&mut data), &par);
            data
        })
    });
    let mut coeffs = field.data().to_vec();
    dec.decompose(&mut coeffs);
    c.bench_function("recompose_48cube_serial", |b| {
        b.iter(|| {
            let mut data = coeffs.clone();
            dec.recompose_with(black_box(&mut data), &serial);
            data
        })
    });
    c.bench_function("recompose_48cube_parallel", |b| {
        b.iter(|| {
            let mut data = coeffs.clone();
            dec.recompose_with(black_box(&mut data), &par);
            data
        })
    });
}

fn bench_bitplane(c: &mut Criterion) {
    let field = test_field(33);
    let dec = Decomposer::new(field.shape(), 5, TransformMode::L2Projection);
    let mut data = field.data().to_vec();
    dec.decompose(&mut data);
    let levels = dec.interleave(&data);
    let finest = levels.last().unwrap().clone();
    // Same unified policy API (and kernel names) as `codec_throughput` /
    // `BENCH_codec.json`, so the per-level numbers here compose with the
    // committed trajectory instead of measuring a different entry point.
    let scalar = ExecPolicy::serial().with_kernel(PlaneKernel::Scalar);
    let tiled = ExecPolicy::serial(); // kernel: Auto (SIMD or SWAR)
    c.bench_function("bitplane_encode_finest_level_scalar", |b| {
        b.iter(|| LevelEncoding::encode_with(black_box(&finest), 32, &scalar))
    });
    c.bench_function("bitplane_encode_finest_level_tiled", |b| {
        b.iter(|| LevelEncoding::encode_with(black_box(&finest), 32, &tiled))
    });
    let enc = LevelEncoding::encode_with(&finest, 32, &tiled);
    c.bench_function("bitplane_decode_16_planes_scalar", |b| {
        b.iter(|| enc.decode_with(black_box(16), &scalar))
    });
    c.bench_function("bitplane_decode_16_planes_tiled", |b| {
        b.iter(|| enc.decode_with(black_box(16), &tiled))
    });
    c.bench_function("level_signature", |b| b.iter(|| level_signature(black_box(&finest))));
}

fn bench_bitplane_parallel(c: &mut Criterion) {
    let field = test_field(48);
    let dec = Decomposer::new(field.shape(), 5, TransformMode::L2Projection);
    let mut data = field.data().to_vec();
    dec.decompose(&mut data);
    let finest = dec.interleave(&data).last().unwrap().clone();
    let serial = ExecPolicy::serial();
    let par = parallel_policy();
    c.bench_function("bitplane_encode_48cube_serial", |b| {
        b.iter(|| LevelEncoding::encode_with(black_box(&finest), 32, &serial))
    });
    c.bench_function("bitplane_encode_48cube_parallel", |b| {
        b.iter(|| LevelEncoding::encode_with(black_box(&finest), 32, &par))
    });
    let enc = LevelEncoding::encode(&finest, 32);
    c.bench_function("bitplane_decode_48cube_serial", |b| {
        b.iter(|| enc.decode_with(black_box(16), &serial))
    });
    c.bench_function("bitplane_decode_48cube_parallel", |b| {
        b.iter(|| enc.decode_with(black_box(16), &par))
    });
}

fn bench_batch_retrieval(c: &mut Criterion) {
    let fields: Vec<Field> = (0..8).map(|_| test_field(33)).collect();
    let cfg = CompressConfig::default();
    let artifacts = Compressed::compress_many(&fields, &cfg);
    let plans: Vec<_> = artifacts.iter().map(|a| a.plan_theory(a.absolute_bound(1e-5))).collect();
    let items: Vec<(&Compressed, &pmr_mgard::RetrievalPlan)> =
        artifacts.iter().zip(&plans).collect();
    c.bench_function("retrieve_8x33cube_loop", |b| {
        b.iter(|| {
            items
                .iter()
                .map(|(a, p)| {
                    a.decode_plan(black_box(p), &DecodeOptions::with_exec(ExecPolicy::serial()))
                        .expect("theory plan matches its artifact")
                })
                .collect::<Vec<_>>()
        })
    });
    c.bench_function("retrieve_8x33cube_batch", |b| b.iter(|| retrieve_many(black_box(&items))));
}

fn bench_retrieval(c: &mut Criterion) {
    let field = test_field(33);
    let compressed = Compressed::compress(&field, &CompressConfig::default());
    c.bench_function("compress_33cube", |b| {
        b.iter(|| Compressed::compress(black_box(&field), &CompressConfig::default()))
    });
    let abs = compressed.absolute_bound(1e-5);
    c.bench_function("greedy_plan_1e-5", |b| b.iter(|| compressed.plan_theory(black_box(abs))));
    let plan = compressed.plan_theory(abs);
    c.bench_function("retrieve_1e-5", |b| b.iter(|| compressed.retrieve(black_box(&plan))));
    // The unified `pmr_core::retrieve` entry point, planning and decoding
    // through the same request type the daemon and CLI use.
    let dataset = pmr_core::Dataset::new(&compressed);
    c.bench_function("retrieve_1e-5_unified", |b| {
        b.iter(|| {
            pmr_core::retrieve(
                black_box(&dataset),
                &pmr_core::Theory,
                &pmr_core::RetrievalRequest::abs(abs),
                &pmr_core::Backend::Direct,
            )
            .expect("direct retrieval succeeds")
        })
    });
}

fn bench_nn(c: &mut Criterion) {
    let mut mlp = Mlp::new(
        &[11, 48, 48, 48, 48, 48, 48, 1],
        Activation::LeakyRelu(0.01),
        Activation::Identity,
        0,
    );
    let x = Matrix::from_vec(256, 11, (0..256 * 11).map(|i| (i as f32 * 0.01).sin()).collect());
    c.bench_function("mlp_forward_batch256", |b| b.iter(|| mlp.forward(black_box(&x))));

    let y = Matrix::from_vec(256, 1, (0..256).map(|i| (i % 30) as f32).collect());
    let data = Dataset::new(x.clone(), y);
    c.bench_function("mlp_train_epoch_batch256", |b| {
        b.iter(|| {
            let mut m = mlp.clone();
            let cfg = TrainConfig { epochs: 1, batch_size: 256, lr: 1e-3, ..Default::default() };
            pmr_nn::fit(&mut m, &data, &cfg)
        })
    });
}

criterion_group!(
    benches,
    bench_transform,
    bench_transform_parallel,
    bench_bitplane,
    bench_bitplane_parallel,
    bench_retrieval,
    bench_batch_retrieval,
    bench_nn
);
criterion_main!(benches);
