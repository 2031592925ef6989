//! A small, dependency-light neural-network library.
//!
//! The paper's models are plain multi-layer perceptrons — six
//! fully-connected hidden layers with leaky-ReLU activations trained with
//! the Huber loss (δ = 1) and Adam. Nothing about them requires a tensor
//! framework, so this crate implements exactly what is needed, from
//! scratch:
//!
//! * [`tensor::Matrix`] — a row-major `f32` matrix with the three matmul
//!   variants backpropagation needs,
//! * [`activation`] — leaky ReLU, ReLU, softplus, identity,
//! * [`linear::Linear`] + [`mlp::Mlp`] — layers with cached activations and
//!   exact reverse-mode gradients (verified against finite differences in
//!   the tests),
//! * [`loss`] — MSE, MAE and the Huber loss the paper selects (§III-C),
//! * [`optim::Adam`] — the Adam optimizer,
//! * [`data`] — feature standardisation, shuffled mini-batching, splits,
//! * [`train`] — the mini-batch training loop,
//! * model persistence via [`mlp::Mlp::to_bytes`] / [`mlp::Mlp::from_bytes`].

// Panics, as scoped to this crate (DESIGN.md §8); test code is exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
    )
)]
#![forbid(unsafe_code)]

pub mod activation;
pub mod data;
pub mod linear;
pub mod loss;
pub mod mlp;
pub mod optim;
pub mod tensor;
pub mod train;

pub use activation::Activation;
pub use data::{Dataset, Standardizer};
pub use linear::Linear;
pub use loss::Loss;
pub use mlp::Mlp;
pub use optim::Adam;
pub use tensor::Matrix;
pub use train::{fit, TrainConfig};
