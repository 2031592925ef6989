//! The paper's headline in miniature: train D-MGARD and E-MGARD on early
//! WarpX timesteps, then compare the bytes all three retrievers read on
//! later, unseen timesteps.
//!
//! ```sh
//! cargo run --release --example warpx_io_savings
//! ```

use pmr::core::experiment::{compare_on_field, train_models, ExperimentConfig};
use pmr::core::{DMgardConfig, EMgardConfig};
use pmr::mgard::CompressConfig;
use pmr::nn::TrainConfig;
use pmr::sim::{warpx_field, WarpXConfig, WarpXField};

fn main() {
    let snapshots = 12usize;
    let wcfg = WarpXConfig { size: 17, snapshots, ..Default::default() };

    // A compact experiment configuration so the example runs in seconds.
    let cfg = ExperimentConfig {
        compress: CompressConfig::default(),
        dmgard: DMgardConfig {
            hidden: vec![32, 32, 32],
            train: TrainConfig { epochs: 60, batch_size: 64, lr: 2e-3, ..Default::default() },
            ..Default::default()
        },
        emgard: EMgardConfig { epochs: 80, samples_per_artifact: 16, ..Default::default() },
        train_bounds: (-8..=-1).flat_map(|k| [1.0, 2.0, 5.0].map(|m| m * 10f64.powi(k))).collect(),
    };

    println!("training on J_x timesteps 0..{} ...", snapshots / 2);
    let train = (0..snapshots / 2).map(|t| warpx_field(&wcfg, WarpXField::Jx, t));
    let (models, records) = train_models(train, &cfg);
    println!("  harvested {} training records", records.len());

    println!("\nevaluating on unseen timesteps {}..{}:", snapshots / 2, snapshots);
    println!(
        "{:>4} {:>9} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "t", "bound", "mgard", "d-mgard", "e-mgard", "save_d", "save_e"
    );
    for t in snapshots / 2..snapshots {
        let field = warpx_field(&wcfg, WarpXField::Jx, t);
        let rows = compare_on_field(&field, &models, &cfg, &[1e-3, 1e-5])
            .expect("trained models match the artifact");
        for row in rows {
            println!(
                "{:>4} {:>9.0e} {:>10} {:>10} {:>10} {:>8.1}% {:>8.1}%",
                row.theory.timestep,
                row.rel_bound,
                row.theory.bytes,
                row.dmgard.bytes,
                row.emgard.bytes,
                row.saving_d() * 100.0,
                row.saving_e() * 100.0,
            );
        }
    }
    println!(
        "\nPaper result at full scale: D-MGARD reads 5-40% less than original MGARD,\n\
         E-MGARD 20-80% less."
    );
}
