use maleva_linalg::{stats, Matrix};
use rand::Rng;
use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize};

use crate::{Activation, NnError};

/// One fully-connected layer: `a = act(x W + b)`, with optional inverted
/// dropout on the activations during training.
///
/// Weights are stored `in_dim x out_dim` so a batch (rows = samples)
/// multiplies on the left.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Dense {
    weights: Matrix,
    bias: Vec<f64>,
    activation: Activation,
    /// Probability of dropping each activation during training; 0 disables.
    dropout: f64,
}

/// Loads through [`Dense::new`], so a stored layer with a bias of the
/// wrong length, a dropout outside `[0, 1)` or a non-finite parameter
/// is refused at load.
impl<'de> Deserialize<'de> for Dense {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        #[derive(Deserialize)]
        struct Raw {
            weights: Matrix,
            bias: Vec<f64>,
            activation: Activation,
            dropout: f64,
        }
        let raw = Raw::deserialize(d)?;
        Dense::new(raw.weights, raw.bias, raw.activation, raw.dropout).map_err(D::Error::custom)
    }
}

/// Per-layer tensors cached by a training forward pass, consumed by
/// backprop.
#[derive(Debug, Clone)]
pub(crate) struct LayerCache {
    /// The input the layer saw (post-dropout output of the previous layer).
    pub input: Matrix,
    /// Pre-activation values `x W + b`.
    pub preact: Matrix,
    /// Inverted-dropout mask applied to the activations (scale factor per
    /// element: either `0` or `1/(1-p)`), if dropout was active.
    pub mask: Option<Matrix>,
}

impl Dense {
    /// Creates a layer from explicit parameters.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if `bias.len() != weights.cols()`,
    /// `dropout` is not in `[0, 1)`, or a weight or bias is NaN or ±∞.
    pub fn new(
        weights: Matrix,
        bias: Vec<f64>,
        activation: Activation,
        dropout: f64,
    ) -> Result<Self, NnError> {
        if bias.len() != weights.cols() {
            return Err(NnError::InvalidConfig {
                detail: format!(
                    "bias has length {} but layer has {} output units",
                    bias.len(),
                    weights.cols()
                ),
            });
        }
        if !(0.0..1.0).contains(&dropout) {
            return Err(NnError::InvalidConfig {
                detail: format!("dropout must be in [0, 1), got {dropout}"),
            });
        }
        stats::check_matrix_finite("weights", &weights)
            .and_then(|()| stats::check_finite("bias", &bias))
            .map_err(|e| NnError::InvalidConfig {
                detail: e.to_string(),
            })?;
        Ok(Dense {
            weights,
            bias,
            activation,
            dropout,
        })
    }

    /// Number of input features.
    pub fn in_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Number of output units.
    pub fn out_dim(&self) -> usize {
        self.weights.cols()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// The layer's dropout probability.
    pub fn dropout(&self) -> f64 {
        self.dropout
    }

    /// Borrows the weight matrix (`in_dim x out_dim`).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Mutably borrows the weight matrix.
    pub fn weights_mut(&mut self) -> &mut Matrix {
        &mut self.weights
    }

    /// Borrows the bias vector.
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    /// Mutably borrows the bias vector.
    pub fn bias_mut(&mut self) -> &mut [f64] {
        &mut self.bias
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    /// Pre-activations `x W + b`.
    pub(crate) fn preact(&self, x: &Matrix) -> Result<Matrix, NnError> {
        Ok(x.matmul(&self.weights)?.add_row_broadcast(&self.bias)?)
    }

    /// Inference-mode forward pass (no dropout).
    pub(crate) fn forward(&self, x: &Matrix) -> Result<Matrix, NnError> {
        Ok(self.preact(x)?.map(|v| self.activation.apply(v)))
    }

    /// Training-mode forward pass: applies dropout and caches
    /// intermediates for backprop. Takes the input by value: the cache
    /// keeps it for the weight gradient.
    pub(crate) fn forward_train(
        &self,
        x: Matrix,
        rng: &mut impl Rng,
    ) -> Result<(Matrix, LayerCache), NnError> {
        let preact = self.preact(&x)?;
        let mut out = preact.map(|v| self.activation.apply(v));
        let mask = if self.dropout > 0.0 {
            let keep = 1.0 - self.dropout;
            let scale = 1.0 / keep;
            let mask = Matrix::from_fn(out.rows(), out.cols(), |_, _| {
                if rng.gen::<f64>() < keep {
                    scale
                } else {
                    0.0
                }
            });
            out = out.hadamard(&mask)?;
            Some(mask)
        } else {
            None
        };
        Ok((
            out,
            LayerCache {
                input: x,
                preact,
                mask,
            },
        ))
    }

    /// Backward pass. `grad_out` is dL/d(layer output). Returns
    /// `(grad_weights, grad_bias, grad_input)`; `grad_input` is computed
    /// only when `input_grad` is set (the first layer's would go unread).
    pub(crate) fn backward(
        &self,
        cache: &LayerCache,
        grad_out: &Matrix,
        input_grad: bool,
    ) -> Result<(Matrix, Vec<f64>, Option<Matrix>), NnError> {
        // Undo dropout scaling first (dL/da_pre_dropout = dL/da_post ∘ mask).
        let grad_act = match &cache.mask {
            Some(mask) => grad_out.hadamard(mask)?,
            None => grad_out.clone(),
        };
        // Through the activation: delta = grad_act ∘ act'(preact).
        let act = self.activation;
        let delta = grad_act.zip_with(&cache.preact, |g, z| g * act.derivative(z))?;
        // Transpose-free products, dispatched through the active linalg
        // backend: bit-identical to the explicit `transpose().matmul()`
        // forms but without materializing the transposed operand on
        // every minibatch.
        let grad_w = cache.input.matmul_tn(&delta)?;
        let grad_b = delta.sum_rows();
        let grad_in = if input_grad {
            Some(delta.matmul_nt(&self.weights)?)
        } else {
            None
        };
        Ok((grad_w, grad_b, grad_in))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    fn layer_2x3() -> Dense {
        let w = Matrix::from_rows(&[vec![1.0, 0.0, -1.0], vec![0.5, 2.0, 0.0]]).unwrap();
        Dense::new(w, vec![0.1, -0.1, 0.0], Activation::Identity, 0.0).unwrap()
    }

    #[test]
    fn forward_computes_affine() {
        let l = layer_2x3();
        let x = Matrix::from_rows(&[vec![2.0, 1.0]]).unwrap();
        let y = l.forward(&x).unwrap();
        // [2*1 + 1*0.5 + 0.1, 2*0 + 1*2 - 0.1, 2*-1 + 0 + 0]
        assert_eq!(y.row(0), &[2.6, 1.9, -2.0]);
    }

    #[test]
    fn relu_forward_clips_negative() {
        let w = Matrix::identity(2);
        let l = Dense::new(w, vec![0.0, 0.0], Activation::ReLU, 0.0).unwrap();
        let x = Matrix::from_rows(&[vec![-1.0, 2.0]]).unwrap();
        assert_eq!(l.forward(&x).unwrap().row(0), &[0.0, 2.0]);
    }

    #[test]
    fn new_rejects_bad_bias() {
        let w = Matrix::identity(2);
        assert!(Dense::new(w, vec![0.0], Activation::ReLU, 0.0).is_err());
    }

    #[test]
    fn new_rejects_non_finite_parameters() {
        let mut w = Matrix::identity(2);
        w.set(1, 0, f64::INFINITY);
        let err = Dense::new(w, vec![0.0, 0.0], Activation::ReLU, 0.0).unwrap_err();
        assert!(err.to_string().contains("inf in weights"), "{err}");
        let err = Dense::new(
            Matrix::identity(2),
            vec![0.0, f64::NAN],
            Activation::ReLU,
            0.0,
        )
        .unwrap_err();
        assert!(err.to_string().contains("NaN in bias"), "{err}");
    }

    #[test]
    fn new_rejects_bad_dropout() {
        let w = Matrix::identity(2);
        assert!(Dense::new(w.clone(), vec![0.0, 0.0], Activation::ReLU, 1.0).is_err());
        assert!(Dense::new(w, vec![0.0, 0.0], Activation::ReLU, -0.1).is_err());
    }

    #[test]
    fn dims_and_params() {
        let l = layer_2x3();
        assert_eq!(l.in_dim(), 2);
        assert_eq!(l.out_dim(), 3);
        assert_eq!(l.param_count(), 9);
    }

    #[test]
    fn dropout_zero_mask_is_none() {
        let l = layer_2x3();
        let x = Matrix::from_rows(&[vec![1.0, 1.0]]).unwrap();
        let (_, cache) = l.forward_train(x, &mut init::rng(0)).unwrap();
        assert!(cache.mask.is_none());
    }

    #[test]
    fn dropout_masks_some_units_and_scales_others() {
        let w = Matrix::identity(4);
        let l = Dense::new(w, vec![0.0; 4], Activation::Identity, 0.5).unwrap();
        let x = Matrix::filled(64, 4, 1.0);
        let (out, cache) = l.forward_train(x, &mut init::rng(3)).unwrap();
        let mask = cache.mask.unwrap();
        let zeros = mask.iter().filter(|&v| v == 0.0).count();
        let scaled = mask.iter().filter(|&v| (v - 2.0).abs() < 1e-12).count();
        assert_eq!(zeros + scaled, 256, "mask values must be 0 or 1/(1-p)");
        assert!(
            zeros > 50 && zeros < 200,
            "roughly half dropped, got {zeros}"
        );
        // expectation preserved: mean of out ≈ 1
        let mean = out.sum() / out.len() as f64;
        assert!((mean - 1.0).abs() < 0.25);
    }

    #[test]
    fn backward_matches_finite_difference() {
        // Single-layer network with scalar loss L = sum(out).
        let mut rng = init::rng(11);
        let w = init::he_uniform(3, 2, &mut rng);
        let l = Dense::new(w, vec![0.05, -0.02], Activation::Tanh, 0.0).unwrap();
        let x = Matrix::from_rows(&[vec![0.3, -0.2, 0.8], vec![-0.1, 0.4, 0.0]]).unwrap();

        let (_, cache) = l.forward_train(x.clone(), &mut rng).unwrap();
        let grad_out = Matrix::filled(2, 2, 1.0); // dL/dout for L = sum(out)
        let (gw, gb, gx) = l.backward(&cache, &grad_out, true).unwrap();
        let gx = gx.expect("input gradient requested");
        // Skipping the input gradient leaves the parameter gradients as
        // they are.
        let (gw_only, gb_only, none) = l.backward(&cache, &grad_out, false).unwrap();
        assert!(none.is_none());
        assert_eq!((&gw_only, &gb_only), (&gw, &gb));

        let eps = 1e-6;
        let loss = |l: &Dense, x: &Matrix| l.forward(x).unwrap().sum();

        // weights
        for i in 0..3 {
            for j in 0..2 {
                let mut lp = l.clone();
                lp.weights_mut().set(i, j, l.weights().get(i, j) + eps);
                let mut lm = l.clone();
                lm.weights_mut().set(i, j, l.weights().get(i, j) - eps);
                let numeric = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * eps);
                assert!(
                    (numeric - gw.get(i, j)).abs() < 1e-5,
                    "dW({i},{j}): {numeric} vs {}",
                    gw.get(i, j)
                );
            }
        }
        // bias
        for (j, g) in gb.iter().enumerate().take(2) {
            let mut lp = l.clone();
            lp.bias_mut()[j] += eps;
            let mut lm = l.clone();
            lm.bias_mut()[j] -= eps;
            let numeric = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * eps);
            assert!((numeric - g).abs() < 1e-5);
        }
        // input
        for r in 0..2 {
            for c in 0..3 {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + eps);
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - eps);
                let numeric = (loss(&l, &xp) - loss(&l, &xm)) / (2.0 * eps);
                assert!((numeric - gx.get(r, c)).abs() < 1e-5);
            }
        }
    }
}
