//! Cross-crate integration: simulation -> compression -> retrieval under
//! all three error-control strategies.

use pmr::core::experiment::{compare_on_field, train_models, ExperimentConfig};
use pmr::core::{DMgardConfig, EMgardConfig};
use pmr::field::error::max_abs_error;
use pmr::mgard::{CompressConfig, Compressed};
use pmr::nn::TrainConfig;
use pmr::sim::{warpx_field, GrayScott, GrayScottConfig, WarpXConfig, WarpXField};

fn small_experiment() -> ExperimentConfig {
    ExperimentConfig {
        compress: CompressConfig { levels: 4, num_planes: 20, ..Default::default() },
        dmgard: DMgardConfig {
            hidden: vec![24, 24],
            train: TrainConfig { epochs: 40, batch_size: 64, lr: 3e-3, ..Default::default() },
            ..Default::default()
        },
        emgard: EMgardConfig {
            epochs: 40,
            samples_per_artifact: 10,
            hidden: vec![32, 8],
            ..Default::default()
        },
        train_bounds: vec![1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1],
    }
}

#[test]
fn warpx_end_to_end_three_retrievers() {
    let snapshots = 6usize;
    let wcfg = WarpXConfig { size: 12, snapshots, ..Default::default() };
    let cfg = small_experiment();

    let train = (0..3).map(|t| warpx_field(&wcfg, WarpXField::Jx, t));
    let (models, records) = train_models(train, &cfg);
    assert_eq!(records.len(), 3 * cfg.train_bounds.len());

    let test = warpx_field(&wcfg, WarpXField::Jx, 4);
    let rows = compare_on_field(&test, &models, &cfg, &[1e-4, 1e-2]).unwrap();
    for row in rows {
        assert!(!row.theory.violated(), "theory bound violated");
        assert!(row.emgard.bytes <= row.theory.bytes, "E-MGARD read more than MGARD");
        assert!(row.dmgard.bytes > 0, "D-MGARD plan fetched nothing");
        // All three reconstructions carry sensible PSNRs.
        assert!(row.theory.psnr > 10.0);
        assert!(row.emgard.psnr > 10.0);
    }
}

#[test]
fn gray_scott_compression_respects_bounds() {
    let cfg =
        GrayScottConfig { size: 12, snapshots: 2, steps_per_snapshot: 8, ..Default::default() };
    let mut fields = Vec::new();
    GrayScott::new(cfg).run(|_, u, v| {
        fields.push(u);
        fields.push(v);
    });
    for field in &fields {
        let c = Compressed::compress(field, &CompressConfig::default());
        for rel in [1e-2, 1e-4, 1e-6] {
            let abs = c.absolute_bound(rel);
            let plan = c.plan_theory(abs);
            let rec = c.retrieve(&plan);
            let err = max_abs_error(field.data(), rec.data());
            assert!(err <= abs, "{}: bound {abs:.3e} violated ({err:.3e})", field.name());
        }
    }
}

#[test]
fn model_persistence_survives_pipeline() {
    let snapshots = 4usize;
    let wcfg = WarpXConfig { size: 12, snapshots, ..Default::default() };
    let cfg = small_experiment();
    let train = (0..2).map(|t| warpx_field(&wcfg, WarpXField::Ex, t));
    let (models, _) = train_models(train, &cfg);

    // Round-trip both models through bytes and verify identical plans.
    let dm = pmr::core::DMgard::from_bytes(&models.dmgard.to_bytes()).expect("dmgard bytes");
    let em = pmr::core::EMgard::from_bytes(&models.emgard.to_bytes()).expect("emgard bytes");
    let models2 = pmr::core::Combined { dmgard: dm, emgard: em };

    let test = warpx_field(&wcfg, WarpXField::Ex, 3);
    let rows1 = compare_on_field(&test, &models, &cfg, &[1e-3]).unwrap();
    let rows2 = compare_on_field(&test, &models2, &cfg, &[1e-3]).unwrap();
    assert_eq!(rows1[0].dmgard.planes, rows2[0].dmgard.planes);
    assert_eq!(rows1[0].emgard.planes, rows2[0].emgard.planes);
}
