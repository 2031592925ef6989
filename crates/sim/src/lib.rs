//! Scientific dataset generators for the progressive-retrieval evaluation.
//!
//! The paper evaluates on two applications (Table II):
//!
//! * **Gray-Scott** — a 3-D reaction–diffusion simulation; [`gray_scott`]
//!   implements the actual Pearson '93 model with an explicit Euler
//!   integrator and periodic boundaries, producing the `D_u`, `D_v` fields.
//! * **WarpX** — laser-driven electron acceleration. We cannot run WarpX
//!   itself, so [`warpx`] provides a *synthetic* laser–plasma generator with
//!   the same controllable knobs the paper sweeps (timestep, laser peak
//!   amplitude `a0`, electron density `n_e`, laser duration `τ`) producing
//!   the fields `B_x`, `E_x`, `J_x`. See DESIGN.md §2 for why this
//!   substitution preserves the evaluated behaviour.
//!
//! Both generators fill contiguous z-slabs of the grid on scoped worker
//! threads (the caller fills the first slab), serially below 16,384
//! points; the worker count is resolved once per process, and
//! [`GrayScott`] stores it at construction. The initial-condition walk of
//! [`GrayScott::new`] stays serial. WarpX computes what depends on x alone
//! (pulse, wake and bunch envelopes with their `exp`/`sin`/`cos`, `kx·x`
//! per mode) once per x, and what depends on (y, z) alone (`trans`, the
//! `(ry − rz)` swirl prefix, `ky·y`, `kz·z`) once per row, each as the
//! per-point expression's own left-associative sub-product; per point
//! remain a few multiplies, the six mode `sin`s, whose arguments are still
//! summed per point in the original order, and `hash_noise`. Gray-Scott
//! splits each x-row into its two wrapping end points and a branch-free
//! interior over shifted row windows, summing the stencil in the original
//! order.
//!
//! A worker reads shared inputs and writes only its own slab, and no
//! operation combines the values of two grid points, so neither the worker
//! count nor the slab bounds can reorder an operation: every field is
//! bit-identical at any count. The per-point generators are kept verbatim
//! as `#[cfg(test)]` oracles (`warpx::tests::warpx_field_oracle`,
//! `GrayScott::step_oracle`) and compared by `to_bits` at 1, 2, 3 and 7
//! workers, including sizes smaller than and not divisible by the worker
//! count; `tests/parallel_determinism.rs` runs a 33³ field and five steps
//! under TSan. [`warpx_field_with_workers`] and [`GrayScott::with_workers`]
//! pin the count for those tests.

// Panics, lossy casts, nondeterminism sources and discarded `Result`s,
// as scoped to this crate (DESIGN.md §8); test code is exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_methods,
        clippy::disallowed_types,
        unused_must_use,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok,
    )
)]
#![forbid(unsafe_code)]

use std::sync::OnceLock;

pub mod gray_scott;
pub mod warpx;

pub use gray_scott::{GrayScott, GrayScottConfig, GsSpecies};
pub use warpx::{warpx_field, warpx_field_with_workers, WarpXConfig, WarpXField};

/// Grids smaller than this many points are generated on the calling
/// thread: thread start-up would dominate the work.
const PARALLEL_MIN_POINTS: usize = 16_384;

/// Workers for a grid of `points`: one per available core (asked once per
/// process), or one below [`PARALLEL_MIN_POINTS`].
fn workers_for(points: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    if points < PARALLEL_MIN_POINTS {
        1
    } else {
        *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    }
}

/// Z-planes per slab when `planes` (≥ 1) planes are dealt to `workers`
/// workers (at least one plane each, so never more slabs than planes).
fn slab_planes(planes: usize, workers: usize) -> usize {
    planes.div_ceil(workers.clamp(1, planes))
}

/// Run `fill(z0, slab)` for every `(first z-plane, slab)` pair, each slab on
/// a scoped thread of its own except the first, which the calling thread
/// fills.
fn for_each_slab<S: Send>(
    mut slabs: impl Iterator<Item = (usize, S)>,
    fill: impl Fn(usize, S) + Sync,
) {
    let Some((z0, first)) = slabs.next() else { return };
    std::thread::scope(|scope| {
        for (z, slab) in slabs {
            let fill = &fill;
            scope.spawn(move || fill(z, slab));
        }
        fill(z0, first);
    });
}
