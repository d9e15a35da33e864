//! # tunio-nn — minimal neural networks and PCA
//!
//! The paper builds its RL agents from Keras networks and trains the
//! Smart Configuration Generation component offline with a PCA over
//! parameter-sweep results. This crate supplies those pieces in pure Rust:
//!
//! * [`net`] — dense feed-forward networks with ReLU/tanh/sigmoid/linear
//!   activations, mean-squared-error loss, and SGD / Adam optimizers.
//! * [`tanh`] — the `tanh` the networks use, with the same bits on
//!   every host, applied lane-wise over a layer's outputs.
//! * [`pca`] — principal component analysis via covariance + cyclic Jacobi
//!   eigendecomposition.
//!
//! Everything is deterministic given a seed.

#![warn(missing_docs)]

pub mod net;
pub mod pca;
pub mod tanh;

pub use net::{Activation, Network, Optimizer};
pub use pca::Pca;
