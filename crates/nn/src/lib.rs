//! From-scratch dense feed-forward neural networks for the `maleva`
//! adversarial-malware toolkit.
//!
//! The paper's detectors are fully-connected DNNs over 491 API-count
//! features: a proprietary 4-layer **target model** and a 5-layer
//! **substitute model** (Table IV: 491 → 1200 → 1500 → 1300 → 2, trained
//! with Adam, batch size 256). This crate provides everything needed to
//! train and, crucially, to *attack* such models:
//!
//! * [`Network`] — a stack of dense layers with configurable activations
//!   and inverted dropout, built via [`NetworkBuilder`].
//! * [`Activation`] — ReLU / Sigmoid / Tanh / Identity.
//! * Softmax **with temperature** ([`softmax()`]) — temperature is what
//!   defensive distillation (Section II-C-2, T = 50) manipulates.
//! * Cross-entropy on hard labels and on **soft labels**
//!   ([`loss`]) — soft labels are the other half of distillation.
//! * [`optim`] — SGD (+momentum, +weight decay) and Adam.
//! * [`Trainer`] — seeded, reproducible minibatch training with optional
//!   validation tracking.
//! * Input gradients and per-sample class Jacobians
//!   ([`Network::input_jacobian`]) — the raw material of the JSMA attack
//!   (Equation 1 of the paper).
//!
//! # Example: train a tiny detector and inspect its Jacobian
//!
//! ```
//! use maleva_linalg::Matrix;
//! use maleva_nn::{Activation, NetworkBuilder, Trainer, TrainConfig};
//!
//! # fn main() -> Result<(), maleva_nn::NnError> {
//! // Linearly separable toy problem: 2 features, 2 classes.
//! let x = Matrix::from_rows(&[
//!     vec![0.0, 0.1], vec![0.1, 0.0], vec![0.9, 1.0], vec![1.0, 0.9],
//! ]).unwrap();
//! let y = vec![0, 0, 1, 1];
//!
//! let mut net = NetworkBuilder::new(2)
//!     .layer(8, Activation::ReLU)
//!     .layer(2, Activation::Identity)
//!     .seed(7)
//!     .build()?;
//!
//! let config = TrainConfig::new().epochs(200).batch_size(4).learning_rate(0.05);
//! Trainer::new(config).fit(&mut net, &x, &y)?;
//!
//! let probs = net.predict_proba(&x)?;
//! assert_eq!(probs.shape(), (4, 2));
//! let jac = net.input_jacobian(x.row(0))?;  // 2 classes x 2 features
//! assert_eq!(jac.shape(), (2, 2));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod activation;
pub mod checkpoint;
mod error;
pub mod init;
mod layer;
pub mod loss;
mod network;
pub mod optim;
pub mod softmax;
mod trainer;

pub use activation::Activation;
pub use checkpoint::TrainCheckpoint;
pub use error::NnError;
pub use layer::Dense;
pub use network::{ForwardPass, Gradients, Network, NetworkBuilder};
pub use optim::OptimizerState;
pub use softmax::{log_softmax, softmax, softmax_rows};
pub use trainer::{DivergencePolicy, EpochStats, LabelSource, TrainConfig, TrainReport, Trainer};
