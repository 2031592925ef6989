//! Figure 13: total retrieval size of D-MGARD and E-MGARD compared to the
//! original MGARD, accumulated across timesteps (WarpX), plus the
//! percentage of saved retrieval size (Equation 8).
//!
//! Paper headline: D-MGARD reads 5-40% less, E-MGARD 20-80% less, with
//! E-MGARD strongest at low PSNR. As an extension, the paper's future-work
//! combination of the two models (D-initialised, E-refined) is reported in
//! a fourth column.

use pmr_bench::{bench_size, bench_timesteps, datasets, human_bytes, output, setup};
use pmr_core::experiment::{compare_on_field, saving, train_models};
use pmr_sim::WarpXField;

fn main() {
    let size = bench_size();
    let ts = bench_timesteps();
    let wcfg = datasets::warpx_cfg(size, ts);
    let cfg = setup::experiment_config();

    println!("Training D-MGARD and E-MGARD on J_x timesteps 0..{} ({}^3)...", ts / 2, size);
    let train_fields = (0..ts / 2).map(|t| datasets::warpx(&wcfg, WarpXField::Jx, t));
    let (combined, _) = train_models(train_fields, &cfg);

    // Accumulate retrieval sizes across the test timesteps per bound.
    let bounds = setup::sparse_rel_bounds();
    // (rel, theory, d, e, combined, psnr)
    let mut acc: Vec<(f64, u64, u64, u64, u64, f64)> =
        bounds.iter().map(|&b| (b, 0, 0, 0, 0, 0.0)).collect();
    let test_ts: Vec<usize> = (ts / 2..ts).step_by(2).collect();
    let mut cases = 0usize;
    let mut d_violations = 0usize;
    let mut e_violations = 0usize;
    let mut c_violations = 0usize;
    for &t in &test_ts {
        let field = datasets::warpx(&wcfg, WarpXField::Jx, t);
        let rows = compare_on_field(&field, &combined, &cfg, &bounds)
            .expect("trained models match the artifact");
        for (slot, row) in acc.iter_mut().zip(&rows) {
            slot.1 += row.theory.bytes;
            slot.2 += row.dmgard.bytes;
            slot.3 += row.emgard.bytes;
            slot.4 += row.combined.bytes;
            slot.5 += row.theory.psnr / test_ts.len() as f64;
            // Learned retrievers trade the hard guarantee for I/O; count
            // how often the requested bound is actually exceeded (ignoring
            // bounds below the quantization floor, which nothing can meet).
            if row.theory.abs_bound > row.theory.achieved_err {
                cases += 1;
                d_violations += row.dmgard.violated() as usize;
                e_violations += row.emgard.violated() as usize;
                c_violations += row.combined.violated() as usize;
            }
        }
    }

    let mut rows = Vec::new();
    let mut d_savings = Vec::new();
    let mut e_savings = Vec::new();
    let mut c_savings = Vec::new();
    for &(rel, tb, db, eb, cb, psnr) in &acc {
        let sd = saving(tb, db);
        let se = saving(tb, eb);
        let sc = saving(tb, cb);
        d_savings.push(sd);
        e_savings.push(se);
        c_savings.push(sc);
        rows.push(vec![
            format!("{psnr:.1}"),
            format!("{rel:.0e}"),
            human_bytes(tb),
            human_bytes(db),
            human_bytes(eb),
            human_bytes(cb),
            format!("{:.1}%", sd * 100.0),
            format!("{:.1}%", se * 100.0),
            format!("{:.1}%", sc * 100.0),
        ]);
    }
    output::print_table(
        &format!(
            "Fig 13: total retrieval size across {} test timesteps (J_x, {}^3)",
            test_ts.len(),
            size
        ),
        &[
            "psnr_db",
            "rel_bound",
            "mgard",
            "d-mgard",
            "e-mgard",
            "combined",
            "saving_d",
            "saving_e",
            "saving_de",
        ],
        &rows,
    );
    output::write_csv(
        "fig13_retrieval_size.csv",
        &[
            "psnr_db",
            "rel_bound",
            "mgard_bytes",
            "dmgard_bytes",
            "emgard_bytes",
            "combined_bytes",
            "saving_d",
            "saving_e",
            "saving_de",
        ],
        &rows,
    );

    let rng = |v: &[f64]| {
        let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = v.iter().cloned().fold(0.0f64, f64::max);
        (lo, hi)
    };
    let (dlo, dhi) = rng(&d_savings);
    let (elo, ehi) = rng(&e_savings);
    let (clo, chi) = rng(&c_savings);
    println!("\nSaved retrieval size (Equation 8):");
    println!("  D-MGARD:  {:.0}% .. {:.0}%   (paper: 5% - 40%)", dlo * 100.0, dhi * 100.0);
    println!("  E-MGARD:  {:.0}% .. {:.0}%   (paper: 20% - 80%)", elo * 100.0, ehi * 100.0);
    println!("  combined: {:.0}% .. {:.0}%   (paper future work)", clo * 100.0, chi * 100.0);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "  mean: D {:.0}%, E {:.0}%, combined {:.0}%  — E-MGARD strongest at low PSNR.",
        mean(&d_savings) * 100.0,
        mean(&e_savings) * 100.0,
        mean(&c_savings) * 100.0
    );
    println!(
        "  bound exceeded (no hard guarantee for learned retrievers): \
         D-MGARD {d_violations}/{cases}, E-MGARD {e_violations}/{cases}, \
         combined {c_violations}/{cases}"
    );
    assert!(ehi > 0.05, "E-MGARD produced no meaningful savings");
    assert!(
        c_violations <= d_violations,
        "the E-refinement should not make D-MGARD's bound violations worse"
    );
}
