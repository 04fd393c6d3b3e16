//! Dense linear-algebra substrate for the `evfad` workspace.
//!
//! The paper's stack is built on NumPy; this crate provides the equivalent
//! primitives needed by the neural-network substrate ([`evfad-nn`]) and the
//! anomaly-detection pipeline: a row-major [`Matrix`] of `f64`, the
//! in-place [`kernels`] every layer multiplies with, weight initialisers,
//! and the descriptive statistics (percentiles, moments) used by the
//! reconstruction-error thresholding rule.
//!
//! The algebra exists once, in [`kernels`]; `Matrix`'s own products are the
//! plain serial loops the kernels are tested against. Large GEMMs execute
//! on a deterministic worker pool (see [`parallel`]): outputs are
//! partitioned into disjoint row blocks, so results are bitwise identical
//! to serial execution for every thread count.
//!
//! # Examples
//!
//! ```
//! use evfad_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```
//!
//! [`evfad-nn`]: https://example.com/evfad

// `deny` rather than `forbid`: the one audited exception is the lifetime
// erasure in `parallel::run_jobs`, which hands stack-borrowing jobs to the
// persistent worker pool and joins them before returning.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod error;
pub mod fastpath;
mod init;
pub mod kernels;
mod matrix;
pub mod parallel;
pub mod quant;
pub mod solve;
pub mod stats;
pub mod vmath;

pub use alloc::{alloc_stats, AllocStats};
pub use error::ShapeError;
pub use init::{glorot_limit, Initializer};
pub use kernels::{MatMut, MatRef};
pub use matrix::Matrix;
