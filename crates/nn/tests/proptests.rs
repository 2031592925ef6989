//! Property tests for the neural-network library, on the seeded case driver
//! `pmr_rng::cases`: a failure names the test and the case index.

use pmr_nn::{Activation, Dataset, Loss, Matrix, Mlp, Standardizer};
use pmr_rng::{cases, Rng};

fn arb_matrix(g: &mut Rng, max_r: usize, max_c: usize) -> Matrix {
    let (r, c) = (g.range(1..=max_r), g.range(1..=max_c));
    Matrix::from_vec(r, c, (0..r * c).map(|_| g.range(-1e3f32..1e3)).collect())
}

#[test]
fn mlp_from_bytes_never_panics() {
    cases("mlp_from_bytes_never_panics", 256, |g| {
        let _ = Mlp::from_bytes(&g.vec(0..600, Rng::u8));
    });
}

#[test]
fn mlp_bytes_mutation_never_panics() {
    cases("mlp_bytes_mutation_never_panics", 256, |g| {
        let mlp = Mlp::new(&[3, 4, 2], Activation::Relu, Activation::Identity, g.next_u64());
        let mut bytes = mlp.to_bytes();
        let i = g.range(0..bytes.len());
        bytes[i] = g.u8();
        if let Some(mut rt) = Mlp::from_bytes(&bytes) {
            if rt.input_dim() == 3 {
                let _ = rt.predict_row(&[0.1, 0.2, 0.3]);
            }
        }
    });
}

#[test]
fn standardizer_from_bytes_never_panics() {
    cases("standardizer_from_bytes_never_panics", 256, |g| {
        let _ = Standardizer::from_bytes(&g.vec(0..256, Rng::u8));
    });
}

#[test]
fn standardizer_roundtrip_rows() {
    cases("standardizer_roundtrip_rows", 256, |g| {
        let m = arb_matrix(g, 12, 6);
        let probe: Vec<f32> = (0..6).map(|_| g.range(-1e3f32..1e3)).collect();
        let s = Standardizer::fit(&m);
        if s.dim() == probe.len() {
            let mut row = probe.clone();
            s.transform_row(&mut row);
            assert!(row.iter().all(|v| v.is_finite()));
            s.inverse_row(&mut row);
            for (a, b) in probe.iter().zip(&row) {
                assert!((a - b).abs() <= 1e-2 * (1.0 + a.abs()), "a={a} b={b}");
            }
        }
    });
}

#[test]
fn huber_between_scaled_mae_and_mse() {
    cases("huber_between_scaled_mae_and_mse", 256, |g| {
        // Huber is quadratic below delta, linear above, continuous at the
        // boundary, and never exceeds the MSE value.
        let e = g.range(-100f32..100.0);
        let delta = g.range(0.01f32..10.0);
        let h = Loss::Huber(delta);
        let v = h.pointwise(e);
        assert!(v >= 0.0);
        assert!(v <= Loss::Mse.pointwise(e) + 1e-4);
        if e.abs() < delta {
            assert!((v - 0.5 * e * e).abs() < 1e-3);
        } else {
            assert!((v - delta * (e.abs() - 0.5 * delta)).abs() < 1e-2);
        }
        // Gradient is bounded by delta.
        assert!(h.pointwise_grad(e).abs() <= delta + 1e-6);
    });
}

#[test]
fn losses_are_minimised_at_zero_residual() {
    cases("losses_are_minimised_at_zero_residual", 256, |g| {
        let e = g.range(-50f32..50.0);
        for loss in [Loss::Mse, Loss::Mae, Loss::Huber(1.0)] {
            assert!(loss.pointwise(e) >= loss.pointwise(0.0));
            // Gradient sign matches the residual sign.
            let grad = loss.pointwise_grad(e);
            if e > 1e-3 {
                assert!(grad > 0.0);
            } else if e < -1e-3 {
                assert!(grad < 0.0);
            }
        }
    });
}

#[test]
fn forward_is_deterministic_and_finite() {
    cases("forward_is_deterministic_and_finite", 256, |g| {
        let m = arb_matrix(g, 8, 3);
        let mut mlp =
            Mlp::new(&[3, 6, 2], Activation::LeakyRelu(0.01), Activation::Identity, g.next_u64());
        if m.cols() == 3 {
            let y1 = mlp.forward(&m);
            let y2 = mlp.forward(&m);
            assert_eq!(&y1, &y2);
            assert!(y1.data().iter().all(|v| v.is_finite()));
        }
    });
}

#[test]
fn matmul_associates_with_identity() {
    cases("matmul_associates_with_identity", 256, |g| {
        let m = arb_matrix(g, 6, 6);
        let n = m.cols();
        let mut eye = Matrix::zeros(n, n);
        for i in 0..n {
            eye.set(i, i, 1.0);
        }
        assert_eq!(m.matmul(&eye), m);
    });
}

#[test]
fn dataset_split_preserves_rows() {
    cases("dataset_split_preserves_rows", 256, |g| {
        let n = g.range(2usize..40);
        let x = Matrix::from_vec(n, 1, (0..n).map(|i| i as f32).collect());
        let d = Dataset::new(x.clone(), x);
        let (tr, te) = d.shuffle_split(g.range(0.1..0.9), g.next_u64());
        assert_eq!(tr.len() + te.len(), n);
        let mut all: Vec<f32> = tr.x.data().iter().chain(te.x.data()).copied().collect();
        all.sort_by(f32::total_cmp);
        assert_eq!(all, (0..n).map(|i| i as f32).collect::<Vec<_>>());
    });
}
