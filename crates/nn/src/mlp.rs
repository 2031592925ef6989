//! Multi-layer perceptron composed of [`Linear`] layers and activations.

use crate::activation::Activation;
use crate::linear::Linear;
use crate::tensor::Matrix;
use pmr_error::{ByteReader, PmrError};
use pmr_rng::Rng;

/// An MLP: `linear → act → linear → act → … → linear → out_act`.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    /// Activation after each layer; `acts.len() == layers.len()`.
    acts: Vec<Activation>,
    /// Pre-activation caches from the last forward pass.
    zs: Vec<Matrix>,
}

impl Mlp {
    /// Build an MLP with the given layer widths, e.g. `&[in, h1, h2, out]`.
    ///
    /// `hidden_act` follows every layer except the last, which gets
    /// `out_act`. Initialisation is deterministic in `seed`.
    pub fn new(sizes: &[usize], hidden_act: Activation, out_act: Activation, seed: u64) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output widths");
        let mut rng = Rng::seed_from_u64(seed);
        let n = sizes.len() - 1;
        let mut layers = Vec::with_capacity(n);
        let mut acts = Vec::with_capacity(n);
        for i in 0..n {
            layers.push(Linear::new(sizes[i], sizes[i + 1], &mut rng));
            acts.push(if i + 1 == n { out_act } else { hidden_act });
        }
        Mlp { layers, acts, zs: Vec::new() }
    }

    /// Assemble from explicit layers (persistence path).
    pub fn from_parts(layers: Vec<Linear>, acts: Vec<Activation>) -> Self {
        assert_eq!(layers.len(), acts.len(), "one activation per layer");
        assert!(!layers.is_empty());
        for w in layers.windows(2) {
            assert_eq!(w[0].fan_out(), w[1].fan_in(), "layer widths must chain");
        }
        Mlp { layers, acts, zs: Vec::new() }
    }

    pub fn input_dim(&self) -> usize {
        self.layers[0].fan_in()
    }

    #[expect(clippy::unwrap_used, reason = "both constructors assert at least one layer")]
    pub fn output_dim(&self) -> usize {
        self.layers.last().unwrap().fan_out()
    }

    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    pub fn activations(&self) -> &[Activation] {
        &self.acts
    }

    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Linear::num_params).sum()
    }

    /// Forward pass, caching pre-activations for [`Mlp::backward`].
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        self.zs.clear();
        let mut a = x.clone();
        for (layer, act) in self.layers.iter_mut().zip(&self.acts) {
            let z = layer.forward(&a);
            a = act.apply_matrix(&z);
            self.zs.push(z);
        }
        a
    }

    /// Inference through shared references: no caches are written, so a
    /// trained network is usable concurrently from many threads.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut a = x.clone();
        for (layer, act) in self.layers.iter().zip(&self.acts) {
            a = act.apply_matrix(&layer.infer(&a));
        }
        a
    }

    /// Convenience: [`Mlp::infer`] for one input row.
    pub fn infer_row(&self, row: &[f32]) -> Vec<f32> {
        self.infer(&Matrix::row_vector(row)).data().to_vec()
    }

    /// Inference without keeping caches around afterwards.
    pub fn predict(&mut self, x: &Matrix) -> Matrix {
        self.infer(x)
    }

    /// Convenience: predict for one input row.
    pub fn predict_row(&mut self, row: &[f32]) -> Vec<f32> {
        self.infer_row(row)
    }

    /// Backward pass from the loss gradient w.r.t. the network output.
    /// Fills every layer's `dw`/`db`.
    pub fn backward(&mut self, dloss: &Matrix) {
        assert_eq!(self.zs.len(), self.layers.len(), "backward requires a forward pass");
        let mut grad = dloss.clone();
        for i in (0..self.layers.len()).rev() {
            // dZ = dA ⊙ f'(Z)
            let z = &self.zs[i];
            let act = self.acts[i];
            {
                let gd = grad.data_mut();
                for (g, &zv) in gd.iter_mut().zip(z.data()) {
                    *g *= act.derivative(zv);
                }
            }
            grad = self.layers[i].backward(&grad);
        }
    }

    /// Zero every layer's gradients.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// Visit `(params, grads)` slices in a stable order (weights then bias,
    /// layer by layer). The optimizer relies on this ordering.
    pub fn visit_params(&mut self, mut f: impl FnMut(&mut [f32], &[f32])) {
        for l in &mut self.layers {
            f(l.w.data_mut(), l.dw.data());
            f(&mut l.b, &l.db);
        }
    }

    /// Encode architecture + parameters as a self-contained byte buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"PMRN1\0");
        out.extend_from_slice(&(self.layers.len() as u32).to_le_bytes());
        for (l, act) in self.layers.iter().zip(&self.acts) {
            out.extend_from_slice(&(l.fan_in() as u32).to_le_bytes());
            out.extend_from_slice(&(l.fan_out() as u32).to_le_bytes());
            out.push(act.tag());
            let slope = match act {
                Activation::LeakyRelu(s) => *s,
                _ => 0.0,
            };
            out.extend_from_slice(&slope.to_le_bytes());
            for &v in l.w.data() {
                out.extend_from_slice(&v.to_le_bytes());
            }
            for &v in &l.b {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Inverse of [`Mlp::to_bytes`].
    pub fn from_bytes(buf: &[u8]) -> Option<Self> {
        Self::read(&mut ByteReader::new(buf, "mlp model")).ok()
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self, PmrError> {
        if r.take(6)? != b"PMRN1\0" {
            return Err(r.malformed("bad magic"));
        }
        let n_layers = r.u32()? as usize;
        if n_layers == 0 || n_layers > 1024 {
            return Err(r.malformed(format!("{n_layers} layers outside 1..=1024")));
        }
        let mut layers = Vec::with_capacity(n_layers);
        let mut acts = Vec::with_capacity(n_layers);
        for _ in 0..n_layers {
            let fi = r.u32()? as usize;
            let fo = r.u32()? as usize;
            // Reject implausible widths *before* allocating: a corrupted
            // header must not drive `with_capacity` into a huge allocation.
            if fi == 0 || fo == 0 || fi > 65_536 || fo > 65_536 {
                return Err(r.malformed(format!("layer width {fi}x{fo} outside 1..=65536")));
            }
            let tag = r.u8()?;
            let slope = r.f32()?;
            let act = Activation::from_tag(tag, slope)
                .ok_or_else(|| r.malformed(format!("unknown activation tag {tag}")))?;
            // The weights must all be present before any is allocated for.
            let params = r.take(4 * (fi * fo + fo))?;
            let mut p = ByteReader::new(params, "mlp model");
            let w = (0..fi * fo).map(|_| p.f32()).collect::<Result<_, _>>()?;
            let b = (0..fo).map(|_| p.f32()).collect::<Result<_, _>>()?;
            layers.push(Linear::from_params(Matrix::from_vec(fi, fo, w), b));
            acts.push(act);
        }
        r.done()?;
        // Validate chaining before assembling.
        if layers.windows(2).any(|w| w[0].fan_out() != w[1].fan_in()) {
            return Err(r.malformed("layer widths do not chain"));
        }
        Ok(Mlp::from_parts(layers, acts))
    }

    /// Write the serialized model to `path`, creating parent directories.
    pub fn save(&self, path: &std::path::Path) -> Result<(), PmrError> {
        let io_err = |e: std::io::Error| PmrError::io_at(path, e);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(io_err)?;
        }
        std::fs::write(path, self.to_bytes()).map_err(io_err)
    }

    /// Read a model previously written with [`Mlp::save`].
    pub fn load(path: &std::path::Path) -> Result<Self, PmrError> {
        let buf = std::fs::read(path).map_err(|e| PmrError::io_at(path, e))?;
        Self::read(&mut ByteReader::new(&buf, "mlp model"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::Loss;

    fn tiny_mlp(seed: u64) -> Mlp {
        Mlp::new(&[3, 5, 4, 2], Activation::LeakyRelu(0.01), Activation::Identity, seed)
    }

    #[test]
    fn forward_shapes() {
        let mut mlp = tiny_mlp(1);
        let x = Matrix::zeros(7, 3);
        let y = mlp.forward(&x);
        assert_eq!(y.rows(), 7);
        assert_eq!(y.cols(), 2);
        assert_eq!(mlp.input_dim(), 3);
        assert_eq!(mlp.output_dim(), 2);
        assert_eq!(mlp.num_params(), 3 * 5 + 5 + 5 * 4 + 4 + 4 * 2 + 2);
    }

    /// Finite-difference verification of the full backward pass — the
    /// make-or-break test for the training code.
    #[test]
    fn gradients_match_finite_differences() {
        let mut mlp = Mlp::new(&[2, 4, 3], Activation::Softplus, Activation::Identity, 3);
        let x = Matrix::from_vec(5, 2, (0..10).map(|i| (i as f32 * 0.37).sin()).collect());
        let t = Matrix::from_vec(5, 3, (0..15).map(|i| (i as f32 * 0.11).cos()).collect());
        let loss = Loss::Huber(1.0);

        // Analytic gradients.
        let y = mlp.forward(&x);
        let dl = loss.grad(&y, &t);
        mlp.backward(&dl);
        let mut analytic = Vec::new();
        mlp.visit_params(|_, g| analytic.extend_from_slice(g));

        // Numeric gradients over a sample of parameters.
        let eps = 1e-3f32;
        let mut flat_idx;
        let mut max_rel_err = 0.0f32;
        let total = analytic.len();
        let sample: Vec<usize> = (0..total).step_by(7).collect();
        for &target_idx in &sample {
            let mut plus = 0.0;
            let mut minus = 0.0;
            for &delta in &[eps, -2.0 * eps] {
                // Perturb parameter `target_idx` by walking the flat order.
                flat_idx = 0;
                mlp.visit_params(|p, _| {
                    for v in p.iter_mut() {
                        if flat_idx == target_idx {
                            *v += delta;
                        }
                        flat_idx += 1;
                    }
                });
                let y = mlp.forward(&x);
                let l = loss.value(&y, &t);
                if delta > 0.0 {
                    plus = l;
                } else {
                    minus = l;
                }
            }
            // Restore.
            flat_idx = 0;
            mlp.visit_params(|p, _| {
                for v in p.iter_mut() {
                    if flat_idx == target_idx {
                        *v += eps;
                    }
                    flat_idx += 1;
                }
            });
            let fd = (plus - minus) / (2.0 * eps);
            let an = analytic[target_idx];
            let denom = an.abs().max(fd.abs()).max(1e-3);
            max_rel_err = max_rel_err.max((fd - an).abs() / denom);
        }
        assert!(max_rel_err < 5e-2, "max relative gradient error {max_rel_err}");
    }

    #[test]
    fn deterministic_in_seed() {
        let mut a = tiny_mlp(9);
        let mut b = tiny_mlp(9);
        let x = Matrix::from_vec(1, 3, vec![0.1, -0.2, 0.3]);
        assert_eq!(a.forward(&x), b.forward(&x));
        let mut c = tiny_mlp(10);
        assert_ne!(a.forward(&x), c.forward(&x));
    }

    #[test]
    fn persistence_roundtrip() {
        let mut mlp = tiny_mlp(4);
        let bytes = mlp.to_bytes();
        let mut rt = Mlp::from_bytes(&bytes).expect("roundtrip");
        let x = Matrix::from_vec(2, 3, vec![0.5, 1.0, -1.0, 0.0, 2.0, -0.5]);
        assert_eq!(mlp.forward(&x), rt.forward(&x));
    }

    #[test]
    fn persistence_rejects_corruption() {
        let mlp = tiny_mlp(4);
        let mut bytes = mlp.to_bytes();
        assert!(Mlp::from_bytes(&bytes[..bytes.len() - 2]).is_none());
        bytes[0] = b'X';
        assert!(Mlp::from_bytes(&bytes).is_none());
        assert!(Mlp::from_bytes(&[]).is_none());
    }

    #[test]
    fn infer_matches_forward() {
        let mut mlp = tiny_mlp(11);
        let x = Matrix::from_vec(3, 3, (0..9).map(|i| (i as f32 * 0.21).sin()).collect());
        let y = mlp.forward(&x);
        let shared = &mlp;
        assert_eq!(shared.infer(&x), y);
        assert_eq!(shared.infer_row(&[0.1, 0.2, 0.3]).len(), 2);
    }

    #[test]
    fn file_roundtrip() {
        let mlp = tiny_mlp(6);
        let dir = std::env::temp_dir().join("pmr_nn_mlp_persist_test");
        let path = dir.join("m.pmrn");
        mlp.save(&path).unwrap();
        let rt = Mlp::load(&path).unwrap();
        let x = Matrix::from_vec(1, 3, vec![0.4, -0.7, 1.1]);
        assert_eq!(mlp.infer(&x), rt.infer(&x));
        std::fs::remove_dir_all(&dir).ok();
        assert!(Mlp::load(&path).is_err());
    }

    #[test]
    fn predict_row_convenience() {
        let mut mlp = tiny_mlp(2);
        let out = mlp.predict_row(&[1.0, 2.0, 3.0]);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|v| v.is_finite()));
    }
}
