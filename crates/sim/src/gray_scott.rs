//! 3-D Gray-Scott reaction–diffusion simulation (Pearson, *Science* 1993).
//!
//! Two species `u` and `v` react and diffuse on a periodic cube:
//!
//! ```text
//!   ∂u/∂t = Du ∇²u − u v² + F (1 − u)
//!   ∂v/∂t = Dv ∇²v + u v² − (F + k) v
//! ```
//!
//! integrated with explicit Euler and a 7-point Laplacian. The default
//! parameters sit in the pattern-forming regime, so snapshots evolve
//! non-trivially over time — which is exactly what the paper's
//! train-on-early / test-on-late protocol needs.

use pmr_field::{Field, Shape};
use pmr_rng::Rng;

/// Which species field to extract (paper names: `D_u`, `D_v`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GsSpecies {
    U,
    V,
}

impl GsSpecies {
    /// Field name used throughout the evaluation (`"D_u"` / `"D_v"`).
    pub fn field_name(self) -> &'static str {
        match self {
            GsSpecies::U => "D_u",
            GsSpecies::V => "D_v",
        }
    }
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrayScottConfig {
    /// Cube side length (paper: 512, here scaled down).
    pub size: usize,
    /// Feed rate `F`.
    pub feed: f64,
    /// Kill rate `k`.
    pub kill: f64,
    /// Diffusion rate of `u`.
    pub du: f64,
    /// Diffusion rate of `v`.
    pub dv: f64,
    /// Euler timestep.
    pub dt: f64,
    /// Integration steps between saved snapshots.
    pub steps_per_snapshot: usize,
    /// Number of snapshots to produce.
    pub snapshots: usize,
    /// RNG seed for the initial perturbation.
    pub seed: u64,
}

impl Default for GrayScottConfig {
    fn default() -> Self {
        GrayScottConfig {
            size: 48,
            feed: 0.025,
            kill: 0.055,
            du: 0.2,
            dv: 0.1,
            // Explicit-Euler stability for 3-D diffusion needs
            // dt <= 1 / (6 * max(du, dv)) = 0.83; stay safely below.
            dt: 0.5,
            steps_per_snapshot: 10,
            snapshots: 48,
            seed: 42,
        }
    }
}

impl GrayScottConfig {
    /// Stable identifier for on-disk caching.
    pub fn fingerprint(&self) -> String {
        format!(
            "gs_n{}_f{:.4}_k{:.4}_du{:.3}_dv{:.3}_dt{:.2}_sps{}_s{}",
            self.size,
            self.feed,
            self.kill,
            self.du,
            self.dv,
            self.dt,
            self.steps_per_snapshot,
            self.seed
        )
    }
}

/// A running Gray-Scott simulation.
#[derive(Debug, Clone)]
pub struct GrayScott {
    cfg: GrayScottConfig,
    shape: Shape,
    u: Vec<f64>,
    v: Vec<f64>,
    scratch_u: Vec<f64>,
    scratch_v: Vec<f64>,
    /// Scoped threads each step runs on (resolved once, at construction).
    workers: usize,
}

impl GrayScott {
    /// Initialise: `u = 1`, `v = 0`, with a perturbed seed cube in the
    /// centre plus small seeded noise (the standard Gray-Scott setup).
    /// Steps run on one worker per core (one below 16,384 points).
    pub fn new(cfg: GrayScottConfig) -> Self {
        Self::with_workers(cfg, crate::workers_for(cfg.size.pow(3)))
    }

    /// The same simulation as [`GrayScott::new`], stepped on exactly
    /// `workers` scoped threads (no size gate). No value depends on
    /// `workers`; tests use this to pin the split.
    pub fn with_workers(cfg: GrayScottConfig, workers: usize) -> Self {
        assert!(cfg.size >= 4, "grid too small for the 7-point stencil");
        let shape = Shape::cube(cfg.size);
        let n = shape.len();
        let mut u = vec![1.0; n];
        let mut v = vec![0.0; n];
        let mut rng = Rng::seed_from_u64(cfg.seed);

        let c = cfg.size / 2;
        let r = (cfg.size / 8).max(2);
        for z in c - r..c + r {
            for y in c - r..c + r {
                for x in c - r..c + r {
                    let i = shape.index(x, y, z);
                    u[i] = 0.5 + rng.range(-0.05..0.05);
                    v[i] = 0.25 + rng.range(-0.05..0.05);
                }
            }
        }
        // Tiny broadband noise to break symmetry everywhere.
        for ui in u.iter_mut() {
            *ui += rng.range(-0.01..0.01);
        }

        GrayScott { cfg, shape, u, v, scratch_u: vec![0.0; n], scratch_v: vec![0.0; n], workers }
    }

    pub fn config(&self) -> &GrayScottConfig {
        &self.cfg
    }

    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Advance one Euler step. Z-slabs of the new state are filled on the
    /// workers; each reads the whole old state and writes only its slab.
    pub fn step(&mut self) {
        let n = self.cfg.size;
        let per = crate::slab_planes(n, self.workers);
        let (cfg, u, v) = (&self.cfg, &self.u[..], &self.v[..]);
        let slabs =
            self.scratch_u.chunks_mut(per * n * n).zip(self.scratch_v.chunks_mut(per * n * n));
        crate::for_each_slab((0..).step_by(per).zip(slabs), |z0, (nu, nv)| {
            step_slab(cfg, u, v, z0, nu, nv)
        });
        std::mem::swap(&mut self.u, &mut self.scratch_u);
        std::mem::swap(&mut self.v, &mut self.scratch_v);
    }

    /// Advance to the next snapshot boundary.
    pub fn advance_snapshot(&mut self) {
        for _ in 0..self.cfg.steps_per_snapshot {
            self.step();
        }
    }

    /// Current state of a species as a [`Field`] tagged with the snapshot
    /// index `t`.
    pub fn snapshot(&self, species: GsSpecies, t: usize) -> Field {
        let data = match species {
            GsSpecies::U => self.u.clone(),
            GsSpecies::V => self.v.clone(),
        };
        Field::new(species.field_name(), t, self.shape, data)
    }

    /// Run the full simulation, invoking `sink(t, u_field, v_field)` for
    /// each snapshot (t = 0 is the state after the first advance).
    pub fn run(mut self, mut sink: impl FnMut(usize, Field, Field)) {
        for t in 0..self.cfg.snapshots {
            self.advance_snapshot();
            sink(t, self.snapshot(GsSpecies::U, t), self.snapshot(GsSpecies::V, t));
        }
    }
}

/// One Euler step of the z-planes from `z0` on, written to `nu`/`nv` (whole
/// planes, `z0` first); `u`/`v` are the whole periodic cube. Each x-row is
/// its two wrapping end points around a branch-free interior.
fn step_slab<'a>(
    cfg: &GrayScottConfig,
    u: &'a [f64],
    v: &'a [f64],
    z0: usize,
    nu: &mut [f64],
    nv: &mut [f64],
) {
    let n = cfg.size;
    let down = |i: usize| if i == 0 { n - 1 } else { i - 1 };
    let up = |i: usize| if i == n - 1 { 0 } else { i + 1 };
    let rows = nu.chunks_exact_mut(n).zip(nv.chunks_exact_mut(n));
    for (r, (nu, nv)) in rows.enumerate() {
        let (y, z) = (r % n, z0 + r / n);
        // This x-row and its y−1, y+1, z−1, z+1 neighbour rows.
        let rows_of = |a: &'a [f64]| {
            [(y, z), (down(y), z), (up(y), z), (y, down(z)), (y, up(z))]
                .map(|(y, z)| &a[(z * n + y) * n..][..n])
        };
        let [uc, uym, uyp, uzm, uzp] = rows_of(u);
        let [vc, vym, vyp, vzm, vzp] = rows_of(v);
        let mut end = |x: usize, xm: usize, xp: usize| {
            let un = [uc[xm], uc[xp], uym[x], uyp[x], uzm[x], uzp[x]];
            let vn = [vc[xm], vc[xp], vym[x], vyp[x], vzm[x], vzp[x]];
            (nu[x], nv[x]) = react(cfg, uc[x], vc[x], un, vn);
        };
        end(0, n - 1, 1);
        end(n - 1, n - 2, 0);
        // The interior reads each neighbour as a shifted window of `n − 2`
        // points, so no index needs a wrap or a bounds check.
        let m = n - 2;
        let win = |a: &'a [f64], from: usize| &a[from..][..m];
        let un = [win(uc, 0), win(uc, 2), win(uym, 1), win(uyp, 1), win(uzm, 1), win(uzp, 1)];
        let vn = [win(vc, 0), win(vc, 2), win(vym, 1), win(vyp, 1), win(vzm, 1), win(vzp, 1)];
        let (uc, vc) = (win(uc, 1), win(vc, 1));
        let (nu, nv) = (&mut nu[1..][..m], &mut nv[1..][..m]);
        for x in 0..m {
            (nu[x], nv[x]) = react(cfg, uc[x], vc[x], un.map(|s| s[x]), vn.map(|s| s[x]));
        }
    }
}

/// The Euler update of one point from its value and its six neighbours
/// `[x−1, x+1, y−1, y+1, z−1, z+1]`, summed in that order.
#[inline(always)]
fn react(cfg: &GrayScottConfig, uc: f64, vc: f64, un: [f64; 6], vn: [f64; 6]) -> (f64, f64) {
    let GrayScottConfig { feed, kill, du, dv, dt, .. } = *cfg;
    let lap_u = un[0] + un[1] + un[2] + un[3] + un[4] + un[5] - 6.0 * uc;
    let lap_v = vn[0] + vn[1] + vn[2] + vn[3] + vn[4] + vn[5] - 6.0 * vc;
    let uvv = uc * vc * vc;
    (
        uc + dt * (du * lap_u - uvv + feed * (1.0 - uc)),
        vc + dt * (dv * lap_v + uvv - (feed + kill) * vc),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> GrayScottConfig {
        GrayScottConfig { size: 12, snapshots: 3, steps_per_snapshot: 5, ..Default::default() }
    }

    impl GrayScott {
        /// The per-point step, kept verbatim as the reference the
        /// slab-parallel one must match bit for bit.
        fn step_oracle(&mut self) {
            let n = self.cfg.size;
            let shape = self.shape;
            let (sx, sy, sz) = (shape.stride(0), shape.stride(1), shape.stride(2));
            let u = &self.u;
            let v = &self.v;
            let nu = &mut self.scratch_u;
            let nv = &mut self.scratch_v;
            let GrayScottConfig { feed, kill, du, dv, dt, .. } = self.cfg;

            for z in 0..n {
                let zm = if z == 0 { n - 1 } else { z - 1 };
                let zp = if z == n - 1 { 0 } else { z + 1 };
                for y in 0..n {
                    let ym = if y == 0 { n - 1 } else { y - 1 };
                    let yp = if y == n - 1 { 0 } else { y + 1 };
                    let row = y * sy + z * sz;
                    let row_ym = ym * sy + z * sz;
                    let row_yp = yp * sy + z * sz;
                    let row_zm = y * sy + zm * sz;
                    let row_zp = y * sy + zp * sz;
                    for x in 0..n {
                        let xm = if x == 0 { n - 1 } else { x - 1 };
                        let xp = if x == n - 1 { 0 } else { x + 1 };
                        let i = row + x * sx;
                        let uc = u[i];
                        let vc = v[i];
                        let lap_u = u[row + xm]
                            + u[row + xp]
                            + u[row_ym + x]
                            + u[row_yp + x]
                            + u[row_zm + x]
                            + u[row_zp + x]
                            - 6.0 * uc;
                        let lap_v = v[row + xm]
                            + v[row + xp]
                            + v[row_ym + x]
                            + v[row_yp + x]
                            + v[row_zm + x]
                            + v[row_zp + x]
                            - 6.0 * vc;
                        let uvv = uc * vc * vc;
                        nu[i] = uc + dt * (du * lap_u - uvv + feed * (1.0 - uc));
                        nv[i] = vc + dt * (dv * lap_v + uvv - (feed + kill) * vc);
                    }
                }
            }
            std::mem::swap(&mut self.u, &mut self.scratch_u);
            std::mem::swap(&mut self.v, &mut self.scratch_v);
        }
    }

    fn bits(a: &[f64]) -> Vec<u64> {
        a.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn matches_the_per_point_oracle_at_every_worker_count() {
        for size in [4, 5, 12, 17, 33] {
            let cfg = GrayScottConfig { size, ..Default::default() };
            let mut want = GrayScott::with_workers(cfg, 1);
            let mut sims: Vec<GrayScott> = [0, 1, 2, 3, 7]
                .iter()
                .map(
                    |&w| if w == 0 { GrayScott::new(cfg) } else { GrayScott::with_workers(cfg, w) },
                )
                .collect();
            for step in 1..=30 {
                want.step_oracle();
                for sim in &mut sims {
                    sim.step();
                    assert!(
                        bits(&sim.u) == bits(&want.u) && bits(&sim.v) == bits(&want.v),
                        "{size}^3, {} workers, step {step} differs from the oracle",
                        sim.workers
                    );
                }
            }
        }
    }

    #[test]
    fn concentrations_stay_physical() {
        let mut sim = GrayScott::new(tiny_cfg());
        for _ in 0..50 {
            sim.step();
        }
        let u = sim.snapshot(GsSpecies::U, 0);
        let v = sim.snapshot(GsSpecies::V, 0);
        let (ulo, uhi) = u.min_max();
        let (vlo, vhi) = v.min_max();
        assert!(ulo >= -0.1 && uhi <= 1.5, "u out of range [{ulo},{uhi}]");
        assert!(vlo >= -0.1 && vhi <= 1.5, "v out of range [{vlo},{vhi}]");
    }

    #[test]
    fn fields_evolve_over_time() {
        let mut sim = GrayScott::new(tiny_cfg());
        sim.advance_snapshot();
        let early = sim.snapshot(GsSpecies::V, 0);
        for _ in 0..10 {
            sim.advance_snapshot();
        }
        let late = sim.snapshot(GsSpecies::V, 10);
        let diff = pmr_field::error::max_abs_error(early.data(), late.data());
        assert!(diff > 1e-4, "simulation appears frozen (diff={diff})");
    }

    #[test]
    fn deterministic_under_same_seed() {
        let run = |seed| {
            let mut cfg = tiny_cfg();
            cfg.seed = seed;
            let mut sim = GrayScott::new(cfg);
            sim.advance_snapshot();
            sim.snapshot(GsSpecies::U, 0)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn run_produces_all_snapshots() {
        let mut count = 0;
        GrayScott::new(tiny_cfg()).run(|t, u, v| {
            assert_eq!(u.timestep(), t);
            assert_eq!(u.name(), "D_u");
            assert_eq!(v.name(), "D_v");
            count += 1;
        });
        assert_eq!(count, 3);
    }

    #[test]
    fn reaction_conserves_total_mass_loosely() {
        // Feed adds u, kill removes v; totals change slowly but must not
        // explode (stability check for the default dt).
        let mut sim = GrayScott::new(tiny_cfg());
        let total0: f64 = sim.u.iter().sum::<f64>() + sim.v.iter().sum::<f64>();
        for _ in 0..30 {
            sim.step();
        }
        let total1: f64 = sim.u.iter().sum::<f64>() + sim.v.iter().sum::<f64>();
        assert!((total1 - total0).abs() / total0 < 0.5, "mass drifted {total0} -> {total1}");
        assert!(total1.is_finite());
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let a = tiny_cfg();
        let mut b = tiny_cfg();
        b.feed = 0.03;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
