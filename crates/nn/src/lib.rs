//! From-scratch neural-network substrate for the `evfad` workspace.
//!
//! Reimplements the slice of Keras the paper's models rely on:
//!
//! * [`Lstm`] — full backpropagation-through-time LSTM with
//!   `return_sequences`, combined Glorot-initialised kernel and
//!   unit-initialised forget-gate bias;
//! * [`Dense`] — time-distributed fully connected layer with selectable
//!   [`Activation`];
//! * [`Dropout`] and [`RepeatVector`] — the remaining pieces of the paper's
//!   LSTM-autoencoder stack;
//! * [`Sequential`] — a layer container with a Keras-style
//!   [`fit`](Sequential::fit) loop (mini-batches, shuffling, validation
//!   split, early stopping with best-weight restoration);
//! * the [`Adam`] optimiser and the MSE [`Loss`];
//! * weight export/import ([`Sequential::weights`] /
//!   [`Sequential::set_weights`]) — the federated-averaging interface, and
//!   the only model state that leaves a process (as `EVFD` records of
//!   `evfad-federated`'s wire format; there is no whole-model checkpoint).
//!
//! All layer gradients are validated against finite differences in this
//! crate's test-suite; the finite-difference oracle is test code.
//!
//! # Examples
//!
//! Train a single-step forecaster on a toy signal:
//!
//! ```
//! use evfad_nn::{Activation, Dense, Lstm, Sequential, Sample, TrainConfig};
//! use evfad_tensor::Matrix;
//!
//! let mut model = Sequential::new(42)
//!     .with(Lstm::new(1, 4, false))
//!     .with(Dense::new(4, 1, Activation::Linear));
//! let samples: Vec<Sample> = (0..32)
//!     .map(|i| {
//!         let xs: Vec<f64> = (0..8).map(|t| ((i + t) as f64 * 0.3).sin()).collect();
//!         let y = ((i + 8) as f64 * 0.3).sin();
//!         Sample::new(Matrix::column_vector(&xs), Matrix::from_vec(1, 1, vec![y]))
//!     })
//!     .collect();
//! let cfg = TrainConfig { epochs: 2, batch_size: 8, ..TrainConfig::default() };
//! let history = model.fit(&samples, &cfg)?;
//! assert_eq!(history.epochs.len(), 2);
//! # Ok::<(), evfad_nn::NnError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod arena;
mod batch;
mod error;
#[cfg(test)]
mod gradcheck;
pub mod infer;
mod layer;
mod layers;
mod loss;
mod model;
mod optimizer;
mod seq;

pub use activation::Activation;
pub use arena::{ArenaPlan, LayerBytes};
pub use batch::BatchPlan;
pub use error::{NnError, NnResult};
pub use infer::{InferenceModel, Precision};
pub use layer::Layer;
pub use layers::{Dense, Dropout, Lstm, RepeatVector};
pub use loss::Loss;
pub use model::{
    autoencoder_model, forecaster_model, EpochStats, Sample, Sequential, TrainConfig, TrainCounts,
    TrainHistory,
};
pub use optimizer::Adam;
pub use seq::{Seq, SeqRef};
