//! Synthetic WarpX-like laser-driven electron acceleration fields.
//!
//! The paper's WarpX dataset comes from a laser wakefield acceleration (LWFA)
//! run on Summit, which we cannot reproduce. This generator evaluates an
//! analytic-plus-stochastic model of the same scenario directly on the grid:
//!
//! * a linearly polarised **laser pulse** with peak amplitude `a0` and
//!   duration `τ` propagates along x,
//! * a **plasma wake** with wavelength `λ_p ∝ 1/√n_e` trails the pulse and
//!   grows over time (`E_x`),
//! * an accelerated **electron bunch** and the plasma return current form
//!   `J_x` (spiky, localised),
//! * the bunch's azimuthal self-field plus quasi-static structures form
//!   `B_x`,
//! * seeded low-frequency background modes drift with time, and hash-based
//!   broadband micro-noise makes the lowest bit-planes incompressible, as
//!   for real simulation output.
//!
//! What the evaluation needs from this substitute — and what it provides —
//! is (a) field statistics that drift across timesteps, (b) compressibility
//! that depends non-linearly on `t`, the error bound, `a0`, `n_e` and `τ`
//! (the exact sweeps of paper Fig. 3), and (c) three structurally different
//! fields sharing one simulation configuration.

use pmr_field::{Field, Shape};
use pmr_rng::{unit_f64, Rng};

/// Which scalar field to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WarpXField {
    /// Magnetic field along x.
    Bx,
    /// Electric field along x (dominated by the wakefield).
    Ex,
    /// Current density along x (bunch + return current).
    Jx,
}

impl WarpXField {
    /// Field name as used in the paper (`"B_x"`, `"E_x"`, `"J_x"`).
    pub fn field_name(self) -> &'static str {
        match self {
            WarpXField::Bx => "B_x",
            WarpXField::Ex => "E_x",
            WarpXField::Jx => "J_x",
        }
    }

    /// All three fields.
    pub fn all() -> [WarpXField; 3] {
        [WarpXField::Bx, WarpXField::Ex, WarpXField::Jx]
    }

    fn id(self) -> u64 {
        match self {
            WarpXField::Bx => 1,
            WarpXField::Ex => 2,
            WarpXField::Jx => 3,
        }
    }
}

/// Simulation configuration — the knobs of paper Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarpXConfig {
    /// Cube side length (paper: 512, scaled in this repo).
    pub size: usize,
    /// Laser peak (normalised) amplitude `a0`.
    pub a0: f64,
    /// Electron density `n_e` in units of the reference density.
    pub electron_density: f64,
    /// Laser duration `τ` (fraction of the domain the pulse spans).
    pub laser_duration: f64,
    /// Number of snapshots the run produces.
    pub snapshots: usize,
    /// Seed for background modes and micro-noise.
    pub seed: u64,
}

impl Default for WarpXConfig {
    fn default() -> Self {
        WarpXConfig {
            size: 48,
            a0: 2.0,
            electron_density: 1.0,
            laser_duration: 0.05,
            snapshots: 48,
            seed: 1,
        }
    }
}

impl WarpXConfig {
    /// Stable identifier for on-disk caching (includes a generator version
    /// so cached snapshots are invalidated when the field model changes).
    pub fn fingerprint(&self) -> String {
        format!(
            "wx2_n{}_a{:.3}_ne{:.3}_tau{:.4}_s{}",
            self.size, self.a0, self.electron_density, self.laser_duration, self.seed
        )
    }
}

/// Background modes per field.
const MODES: usize = 6;

/// A background mode: low-frequency structure drifting over time.
struct Mode {
    kx: f64,
    ky: f64,
    kz: f64,
    amp: f64,
    phase: f64,
    omega: f64,
}

fn background_modes(cfg: &WarpXConfig, field: WarpXField, scale: f64) -> Vec<Mode> {
    let mut rng = Rng::seed_from_u64(cfg.seed.wrapping_mul(0x9E37_79B9) ^ field.id());
    (0..MODES)
        .map(|_| Mode {
            kx: std::f64::consts::TAU * rng.range(1.0..4.0),
            ky: std::f64::consts::TAU * rng.range(1.0..4.0),
            kz: std::f64::consts::TAU * rng.range(1.0..4.0),
            amp: scale * rng.range(0.02..0.08),
            phase: rng.range(0.0..std::f64::consts::TAU),
            omega: rng.range(0.5..3.0),
        })
        .collect()
}

/// Deterministic broadband micro-noise in [-1, 1] from position and seed.
#[inline]
fn hash_noise(x: usize, y: usize, z: usize, salt: u64) -> f64 {
    let mut h = salt ^ 0x51_7C_C1_B7_27_22_0A_95;
    for v in [x as u64, y as u64, z as u64] {
        h ^= v.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(h << 6).wrapping_add(h >> 2);
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    }
    unit_f64(h) * 2.0 - 1.0
}

/// Generate one field at snapshot `t` (`0 <= t < cfg.snapshots`), on one
/// worker per core (one below 16,384 points).
pub fn warpx_field(cfg: &WarpXConfig, field: WarpXField, t: usize) -> Field {
    warpx_field_with_workers(cfg, field, t, crate::workers_for(cfg.size.pow(3)))
}

/// Factors of a grid point that depend on its x alone, each the per-point
/// expression's own left-associative sub-product, so multiplying it by the
/// (y, z) factors repeats the per-point operation sequence exactly.
struct AlongX {
    /// The pulse envelope before its transverse factor `trans`.
    pulse: f64,
    /// `E_x`: the wake before `trans`; `B_x`: the bracketed wake-plus-bunch
    /// term; `J_x`: the bunch current before `trans`.
    a: f64,
    /// `E_x`: `sin(k0 ξ)`; `B_x`: `cos(k0 ξ)`; `J_x`: the return current
    /// before `trans`.
    b: f64,
    /// `kx · x` of each background mode.
    kx: [f64; MODES],
}

/// The same field as [`warpx_field`], generated on exactly `workers` scoped
/// threads (no size gate). The values never depend on `workers`; tests use
/// this to pin the split.
pub fn warpx_field_with_workers(
    cfg: &WarpXConfig,
    field: WarpXField,
    t: usize,
    workers: usize,
) -> Field {
    assert!(cfg.size >= 4, "grid too small");
    assert!(cfg.snapshots >= 1);
    let n = cfg.size;
    let shape = Shape::cube(n);
    let tn = t as f64 / cfg.snapshots as f64; // normalised time in [0, 1)

    // Pulse kinematics: enters on the left, crosses the domain once.
    let xc = 0.08 + 0.9 * tn;
    let sigma_x = cfg.laser_duration.max(1e-3);
    let sigma_r = 0.16;
    // Laser carrier resolvable on the grid: a few points per cycle.
    let k0 = std::f64::consts::TAU * (n as f64 / 6.0);
    // Plasma wavenumber grows with sqrt(density).
    let kp = std::f64::consts::TAU * 6.0 * cfg.electron_density.max(1e-6).sqrt();
    // Wake excitation is resonant: strongest when the pulse length matches
    // the plasma wavelength (kp * sigma_x ~ pi/2 for a Gaussian pulse);
    // this is what couples laser duration and density to every field.
    let resonance = {
        let r = kp * sigma_x / std::f64::consts::FRAC_PI_2;
        r * (1.0 - r).exp()
    };
    // Wake amplitude grows then saturates (dephasing).
    let wake_amp = cfg.a0 * cfg.a0 * resonance * (1.0 - (-3.0 * tn).exp()) * (1.0 - 0.4 * tn);
    // Accelerated bunch sits half a plasma wavelength behind the pulse and
    // gains charge over time; injection efficiency follows the resonance.
    let xb = xc - std::f64::consts::PI / kp;
    let bunch_amp = cfg.electron_density * cfg.a0 * tn * 4.0 * (0.25 + 0.75 * resonance);
    let sigma_b = 0.02 + 0.01 * tn + 0.2 * sigma_x;

    let scale = match field {
        WarpXField::Bx => cfg.a0,
        WarpXField::Ex => cfg.a0 * cfg.a0,
        WarpXField::Jx => cfg.electron_density * cfg.a0,
    };
    let modes = background_modes(cfg, field, scale);
    let noise_amp = 2e-4 * scale;
    let salt = cfg.seed ^ field.id().wrapping_mul(0xA24B_AED4_963E_E407) ^ (t as u64) << 17;

    let inv = 1.0 / n as f64;
    // The laser residue's amplitude (`E_x`, `B_x`) and each mode's phase
    // drift, hoisted: one multiply each, the same bits at every point.
    let laser = match field {
        WarpXField::Ex => 0.15 * cfg.a0,
        WarpXField::Bx => 0.1 * cfg.a0,
        WarpXField::Jx => 0.0,
    };
    let drift: [f64; MODES] = std::array::from_fn(|m| modes[m].omega * tn);

    let along_x: Vec<AlongX> = (0..n)
        .map(|xi| {
            let x = xi as f64 * inv;
            let xi_rel = x - xc;
            let pulse = (-xi_rel * xi_rel / (2.0 * sigma_x * sigma_x)).exp();
            // Wake exists only behind the pulse, decaying away from it.
            let behind = if xi_rel < 0.0 { (xi_rel / 0.45).exp() } else { 0.0 };
            let db = x - xb;
            let (a, b) = match field {
                // Longitudinal field: wake plus a weak longitudinal laser
                // component at the carrier frequency.
                WarpXField::Ex => (wake_amp * behind * (kp * xi_rel).cos(), (k0 * xi_rel).sin()),
                // Quasi-static azimuthal self-field of bunch and wake
                // currents: antisymmetric swirl around the axis, plus a
                // carrier-frequency laser residue.
                WarpXField::Bx => {
                    let bunch = (-db * db / (2.0 * sigma_b * sigma_b)).exp();
                    (0.5 * wake_amp * behind + bunch * tn, (k0 * xi_rel).cos())
                }
                // Electron bunch current (sharp) + plasma return current
                // (oscillatory, opposite sign).
                WarpXField::Jx => (
                    bunch_amp * (-db * db / (2.0 * sigma_b * sigma_b)).exp(),
                    -0.3 * cfg.electron_density * wake_amp * behind * (kp * xi_rel).sin(),
                ),
            };
            AlongX { pulse, a, b, kx: std::array::from_fn(|m| modes[m].kx * x) }
        })
        .collect();

    let fill = |z0: usize, slab: &mut [f64]| {
        for (zi, plane) in (z0..).zip(slab.chunks_exact_mut(n * n)) {
            let z = zi as f64 * inv;
            for (yi, row) in plane.chunks_exact_mut(n).enumerate() {
                let y = yi as f64 * inv;
                let ry = y - 0.5;
                let rz = z - 0.5;
                let r2 = ry * ry + rz * rz;
                let trans = (-r2 / (2.0 * sigma_r * sigma_r)).exp();
                let swirl = cfg.a0 * (ry - rz) * 8.0 * trans;
                let ky: [f64; MODES] = std::array::from_fn(|m| modes[m].ky * y);
                let kz: [f64; MODES] = std::array::from_fn(|m| modes[m].kz * z);
                for (xi, (out, ax)) in row.iter_mut().zip(&along_x).enumerate() {
                    let mut v = match field {
                        WarpXField::Ex => ax.a * trans + laser * (ax.pulse * trans) * ax.b,
                        WarpXField::Bx => swirl * ax.a + laser * (ax.pulse * trans) * ax.b,
                        WarpXField::Jx => ax.a * trans + ax.b * trans,
                    };
                    // The argument is summed here, per point, in the
                    // order `kx·x + ky·y + kz·z + phase + ω·t`.
                    for (m, mode) in modes.iter().enumerate() {
                        v += mode.amp * (ax.kx[m] + ky[m] + kz[m] + mode.phase + drift[m]).sin();
                    }
                    *out = v + noise_amp * hash_noise(xi, yi, zi, salt);
                }
            }
        }
    };
    let mut data = vec![0.0; shape.len()];
    let per = crate::slab_planes(n, workers);
    crate::for_each_slab((0..).step_by(per).zip(data.chunks_mut(per * n * n)), fill);
    Field::new(field.field_name(), t, shape, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmr_field::FieldStats;

    fn cfg() -> WarpXConfig {
        WarpXConfig { size: 16, snapshots: 8, ..Default::default() }
    }

    /// The per-point generator, kept verbatim as the reference the hoisted,
    /// slab-parallel one must match bit for bit.
    fn warpx_field_oracle(cfg: &WarpXConfig, field: WarpXField, t: usize) -> Field {
        assert!(cfg.size >= 4, "grid too small");
        assert!(cfg.snapshots >= 1);
        let n = cfg.size;
        let shape = Shape::cube(n);
        let tn = t as f64 / cfg.snapshots as f64; // normalised time in [0, 1)

        // Pulse kinematics: enters on the left, crosses the domain once.
        let xc = 0.08 + 0.9 * tn;
        let sigma_x = cfg.laser_duration.max(1e-3);
        let sigma_r = 0.16;
        // Laser carrier resolvable on the grid: a few points per cycle.
        let k0 = std::f64::consts::TAU * (n as f64 / 6.0);
        // Plasma wavenumber grows with sqrt(density).
        let kp = std::f64::consts::TAU * 6.0 * cfg.electron_density.max(1e-6).sqrt();
        // Wake excitation is resonant: strongest when the pulse length matches
        // the plasma wavelength (kp * sigma_x ~ pi/2 for a Gaussian pulse);
        // this is what couples laser duration and density to every field.
        let resonance = {
            let r = kp * sigma_x / std::f64::consts::FRAC_PI_2;
            r * (1.0 - r).exp()
        };
        // Wake amplitude grows then saturates (dephasing).
        let wake_amp = cfg.a0 * cfg.a0 * resonance * (1.0 - (-3.0 * tn).exp()) * (1.0 - 0.4 * tn);
        // Accelerated bunch sits half a plasma wavelength behind the pulse and
        // gains charge over time; injection efficiency follows the resonance.
        let xb = xc - std::f64::consts::PI / kp;
        let bunch_amp = cfg.electron_density * cfg.a0 * tn * 4.0 * (0.25 + 0.75 * resonance);
        let sigma_b = 0.02 + 0.01 * tn + 0.2 * sigma_x;

        let scale = match field {
            WarpXField::Bx => cfg.a0,
            WarpXField::Ex => cfg.a0 * cfg.a0,
            WarpXField::Jx => cfg.electron_density * cfg.a0,
        };
        let modes = background_modes(cfg, field, scale);
        let noise_amp = 2e-4 * scale;
        let salt = cfg.seed ^ field.id().wrapping_mul(0xA24B_AED4_963E_E407) ^ (t as u64) << 17;

        let inv = 1.0 / n as f64;
        Field::from_fn(field.field_name(), t, shape, |xi, yi, zi| {
            let x = xi as f64 * inv;
            let y = yi as f64 * inv;
            let z = zi as f64 * inv;
            let ry = y - 0.5;
            let rz = z - 0.5;
            let r2 = ry * ry + rz * rz;
            let trans = (-r2 / (2.0 * sigma_r * sigma_r)).exp();
            let xi_rel = x - xc;
            let pulse_env = (-xi_rel * xi_rel / (2.0 * sigma_x * sigma_x)).exp() * trans;
            // Wake exists only behind the pulse, decaying away from it.
            let behind = if xi_rel < 0.0 { (xi_rel / 0.45).exp() } else { 0.0 };
            let wake = wake_amp * behind * (kp * xi_rel).cos() * trans;

            let mut v = match field {
                WarpXField::Ex => {
                    // Longitudinal field: wake plus a weak longitudinal laser
                    // component at the carrier frequency.
                    wake + 0.15 * cfg.a0 * pulse_env * (k0 * xi_rel).sin()
                }
                WarpXField::Bx => {
                    // Quasi-static azimuthal self-field of bunch and wake
                    // currents: antisymmetric swirl around the axis, plus a
                    // carrier-frequency laser residue.
                    let db = x - xb;
                    let bunch = (-db * db / (2.0 * sigma_b * sigma_b)).exp();
                    cfg.a0 * (ry - rz) * 8.0 * trans * (0.5 * wake_amp * behind + bunch * tn)
                        + 0.1 * cfg.a0 * pulse_env * (k0 * xi_rel).cos()
                }
                WarpXField::Jx => {
                    // Electron bunch current (sharp) + plasma return current
                    // (oscillatory, opposite sign).
                    let db = x - xb;
                    let bunch = bunch_amp * (-db * db / (2.0 * sigma_b * sigma_b)).exp() * trans;
                    let ret = -0.3
                        * cfg.electron_density
                        * wake_amp
                        * behind
                        * (kp * xi_rel).sin()
                        * trans;
                    bunch + ret
                }
            };
            for m in &modes {
                v += m.amp * (m.kx * x + m.ky * y + m.kz * z + m.phase + m.omega * tn).sin();
            }
            v + noise_amp * hash_noise(xi, yi, zi, salt)
        })
    }

    fn bits(f: &Field) -> Vec<u64> {
        f.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn matches_the_per_point_oracle_at_every_worker_count() {
        for size in [4, 5, 16, 33, 65] {
            let c = WarpXConfig { size, ..Default::default() };
            for field in WarpXField::all() {
                for t in [0, c.snapshots / 2, c.snapshots - 1] {
                    let want = warpx_field_oracle(&c, field, t);
                    let product = warpx_field(&c, field, t);
                    let fixed =
                        [1, 2, 3, 7].map(|w| (w, warpx_field_with_workers(&c, field, t, w)));
                    for (workers, got) in [(0, product)].into_iter().chain(fixed) {
                        assert_eq!((got.name(), got.timestep()), (want.name(), t));
                        assert!(
                            bits(&got) == bits(&want),
                            "{} at {size}^3, t={t}, {workers} workers (0 = auto) differs from \
                             the oracle",
                            field.field_name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_generation() {
        let a = warpx_field(&cfg(), WarpXField::Ex, 3);
        let b = warpx_field(&cfg(), WarpXField::Ex, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn fields_differ_from_each_other() {
        let e = warpx_field(&cfg(), WarpXField::Ex, 3);
        let j = warpx_field(&cfg(), WarpXField::Jx, 3);
        assert!(pmr_field::error::max_abs_error(e.data(), j.data()) > 1e-3);
        assert_eq!(e.name(), "E_x");
        assert_eq!(j.name(), "J_x");
    }

    #[test]
    fn fields_evolve_with_time() {
        for f in WarpXField::all() {
            let a = warpx_field(&cfg(), f, 1);
            let b = warpx_field(&cfg(), f, 6);
            let diff = pmr_field::error::max_abs_error(a.data(), b.data());
            assert!(diff > 1e-3, "{} frozen in time", f.field_name());
        }
    }

    #[test]
    fn statistics_drift_with_time() {
        // Train-early/test-late only makes sense if moments move.
        let s1 = FieldStats::compute(&warpx_field(&cfg(), WarpXField::Jx, 0));
        let s2 = FieldStats::compute(&warpx_field(&cfg(), WarpXField::Jx, 7));
        assert!((s1.std - s2.std).abs() > 1e-6 || (s1.max - s2.max).abs() > 1e-6);
    }

    #[test]
    fn amplitude_scales_with_a0() {
        let mut strong = cfg();
        strong.a0 = 4.0;
        let weak = warpx_field(&cfg(), WarpXField::Ex, 5);
        let heavy = warpx_field(&strong, WarpXField::Ex, 5);
        assert!(heavy.max_abs() > weak.max_abs());
    }

    #[test]
    fn density_changes_wake_structure() {
        let mut dense = cfg();
        dense.electron_density = 4.0;
        let a = warpx_field(&cfg(), WarpXField::Ex, 5);
        let b = warpx_field(&dense, WarpXField::Ex, 5);
        // Different plasma wavelength -> different field pattern.
        assert!(pmr_field::error::max_abs_error(a.data(), b.data()) > 1e-3);
    }

    #[test]
    fn all_values_finite() {
        for f in WarpXField::all() {
            for t in 0..8 {
                let field = warpx_field(&cfg(), f, t);
                assert!(field.data().iter().all(|v| v.is_finite()));
            }
        }
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let mut other = cfg();
        other.laser_duration = 0.1;
        assert_ne!(cfg().fingerprint(), other.fingerprint());
    }

    #[test]
    fn laser_duration_affects_wake_strength() {
        // The resonance makes the wake (and hence E_x amplitude) a
        // non-monotone function of the pulse duration.
        let amp = |tau: f64| {
            let mut c = cfg();
            c.laser_duration = tau;
            warpx_field(&c, WarpXField::Ex, 6).max_abs()
        };
        let amps: Vec<f64> = [0.005, 0.02, 0.08, 0.3].iter().map(|&t| amp(t)).collect();
        let max = amps.iter().cloned().fold(0.0f64, f64::max);
        let min = amps.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max > min * 1.05, "duration has no effect: {amps:?}");
        // Extremely short and extremely long pulses both under-drive the
        // wake relative to the best case.
        assert!(amps[0] < max || amps[3] < max);
    }

    #[test]
    fn pulse_travels_rightward() {
        // The x position of the peak |E_x| slab should advance with time.
        let centre_of_energy = |t: usize| {
            let f = warpx_field(&cfg(), WarpXField::Ex, t);
            let shape = f.shape();
            let mut best = (0usize, 0.0f64);
            for x in 0..shape.dim(0) {
                let mut slab = 0.0;
                for y in 0..shape.dim(1) {
                    for z in 0..shape.dim(2) {
                        slab += f.get(x, y, z).abs();
                    }
                }
                if slab > best.1 {
                    best = (x, slab);
                }
            }
            best.0
        };
        assert!(
            centre_of_energy(7) >= centre_of_energy(1),
            "pulse/wake should move toward larger x"
        );
    }

    #[test]
    fn bunch_current_grows_with_time() {
        // J_x carries an accelerated bunch whose charge grows with time.
        let a = warpx_field(&cfg(), WarpXField::Jx, 1).max_abs();
        let b = warpx_field(&cfg(), WarpXField::Jx, 7).max_abs();
        assert!(b > a, "bunch current should grow: t1={a} t7={b}");
    }
}
