//! MGARD-style multilevel decomposition and error-bounded progressive
//! retrieval.
//!
//! This crate is the substrate the paper builds on: a from-scratch
//! reimplementation of the progressive path of MGARD (Ainsworth et al. 2019,
//! Liang et al. SC'21). The pipeline is
//!
//! ```text
//!   field ──decompose──▶ multilevel coefficients (one grid)
//!         ──negabinary bit-plane encode, level by level along its runs──▶
//!         planes + sizes S[l][k] ──collect──▶ error matrix Err[l][b]
//! ```
//!
//! and on retrieval
//!
//! ```text
//!   error bound e ──estimator──▶ plane counts b_l ──fetch & decode──▶
//!   coefficients ──recompose──▶ approximation with max error ≤ e
//! ```
//!
//! Both directions work on one grid: the encoder reads each level's
//! coefficients where the decomposition left them, through the level's runs,
//! and the decoder writes them back through the same runs.
//! `Decomposer::interleave`, which gathers every level into an array of its
//! own first, is the staged oracle of the read (and the stage e2e-bench's
//! traced replay times).
//!
//! The *theory* estimator bounds the reconstruction error by
//! `est(b) = Σ_l C_l · Err[l][b_l]` with per-level constants `C_l` derived
//! from absolute-row-sum operator norms (see [`estimate`]); it is provably an
//! upper bound and — exactly as the paper criticises — pessimistic by orders
//! of magnitude because per-coefficient errors cancel in reality. The
//! DNN-based retrievers in `pmr-core` plug in either predicted plane counts
//! (D-MGARD) or learned constants `C_l` (E-MGARD) through the hooks exposed
//! by [`retrieve`] and [`compress`].

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
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_sign_loss,
        clippy::disallowed_methods,
        clippy::disallowed_types,
        unused_must_use,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok,
    )
)]

mod batched;
pub mod bitplane;
pub mod checksum;
pub mod compress;
pub mod decompose;
mod encode_kernel;
pub mod estimate;
pub mod exec;
pub mod persist;
pub mod retrieve;
pub mod session;
pub mod transform;

pub use bitplane::{LevelEncoding, DEFAULT_BITPLANES};
pub use compress::{CompressConfig, Compressed, DecodeOptions};
pub use decompose::{Decomposer, TransformMode};
pub use estimate::theory_constants;
pub use exec::ExecPolicy;
pub use pmr_codec::PlaneKernel;
pub use retrieve::{
    greedy_plan, greedy_plan_budget, greedy_plan_capped, plan_size, refine_plan, RetrievalPlan,
};
pub use session::ProgressiveSession;
