use maleva_linalg::Matrix;
use rand::Rng;
use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize};

use crate::layer::LayerCache;
use crate::softmax::{softmax, softmax_rows};
use crate::{init, Activation, Dense, NnError};

/// A feed-forward network: a stack of [`Dense`] layers.
///
/// The final layer's outputs are treated as **logits**; probabilities are
/// obtained via [`Network::predict_proba`] (softmax, optionally with a
/// distillation temperature). The paper's models both fit this shape:
///
/// * target model — 4-layer fully-connected DNN (architecture proprietary;
///   our reproduction uses 491 → 512 → 256 → 2),
/// * substitute model — Table IV: 491 → 1200 → 1500 → 1300 → 2.
///
/// Construct networks with [`NetworkBuilder`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Network {
    layers: Vec<Dense>,
}

/// Loads through [`Network::from_layers`] (and each layer through
/// [`Dense::new`]), so every stored model is validated once, wherever
/// it is embedded: a bare export, a detector pipeline or a training
/// checkpoint.
impl<'de> Deserialize<'de> for Network {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        #[derive(Deserialize)]
        struct Raw {
            layers: Vec<Dense>,
        }
        Network::from_layers(Raw::deserialize(d)?.layers).map_err(D::Error::custom)
    }
}

/// Gradients produced by one backward pass, aligned with the network's
/// layers.
#[derive(Debug, Clone)]
pub struct Gradients {
    /// `(weight_grad, bias_grad)` per layer, input-most first.
    pub layers: Vec<(Matrix, Vec<f64>)>,
}

/// One sample's inference forward pass, kept for the backward passes
/// that reuse it ([`Network::forward_pass`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ForwardPass {
    /// Pre-activations `h W + b` of every layer (one row each),
    /// input-most first.
    preacts: Vec<Matrix>,
    /// The final layer's outputs.
    logits: Matrix,
}

impl ForwardPass {
    /// The logits of the sample.
    pub fn logits(&self) -> &[f64] {
        self.logits.row(0)
    }

    /// The predicted class: the argmax of the logits, exactly as
    /// [`Network::predict`] returns it for this sample.
    pub fn predicted_class(&self) -> usize {
        self.logits.argmax_rows()[0]
    }
}

impl Network {
    /// Creates a network from explicit layers.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the stack is empty or
    /// consecutive layer dimensions do not chain.
    pub fn from_layers(layers: Vec<Dense>) -> Result<Self, NnError> {
        if layers.is_empty() {
            return Err(NnError::InvalidConfig {
                detail: "network must have at least one layer".to_string(),
            });
        }
        for (i, pair) in layers.windows(2).enumerate() {
            if pair[0].out_dim() != pair[1].in_dim() {
                return Err(NnError::InvalidConfig {
                    detail: format!(
                        "layer {i} outputs {} units but layer {} expects {}",
                        pair[0].out_dim(),
                        i + 1,
                        pair[1].in_dim()
                    ),
                });
            }
        }
        Ok(Network { layers })
    }

    /// Number of input features.
    pub fn input_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Number of output classes (units of the final layer).
    pub fn num_classes(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Borrows the layer stack.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Mutably borrows the layer stack.
    pub fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// The layer widths, input first: `[input, hidden..., classes]`.
    pub fn dims(&self) -> Vec<usize> {
        let mut dims = vec![self.input_dim()];
        dims.extend(self.layers.iter().map(Dense::out_dim));
        dims
    }

    fn check_input(&self, x: &Matrix) -> Result<(), NnError> {
        if x.cols() != self.input_dim() {
            return Err(NnError::InputShape {
                expected: self.input_dim(),
                actual: x.cols(),
            });
        }
        Ok(())
    }

    /// Inference forward pass producing logits (no dropout).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] if the batch width is wrong.
    pub fn logits(&self, x: &Matrix) -> Result<Matrix, NnError> {
        self.check_input(x)?;
        // Feed the first layer from `x` directly: cloning the input
        // would cost a batch-sized allocation per forward pass, which
        // dominates serving-path latency at large batches.
        let mut layers = self.layers.iter();
        let Some(first) = layers.next() else {
            return Ok(x.clone());
        };
        let mut h = first.forward(x)?;
        for layer in layers {
            h = layer.forward(&h)?;
        }
        Ok(h)
    }

    /// Class probabilities at temperature 1.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] if the batch width is wrong.
    pub fn predict_proba(&self, x: &Matrix) -> Result<Matrix, NnError> {
        self.predict_proba_at(x, 1.0)
    }

    /// Class probabilities at an explicit softmax temperature (defensive
    /// distillation trains at T ≫ 1 and deploys at T = 1).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] if the batch width is wrong.
    ///
    /// # Panics
    ///
    /// Panics if `t <= 0`.
    pub fn predict_proba_at(&self, x: &Matrix, t: f64) -> Result<Matrix, NnError> {
        Ok(softmax_rows(&self.logits(x)?, t))
    }

    /// Hard class predictions (argmax of logits).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] if the batch width is wrong.
    pub fn predict(&self, x: &Matrix) -> Result<Vec<usize>, NnError> {
        Ok(self.logits(x)?.argmax_rows())
    }

    /// Batched inference over loose feature rows: packs `rows` into one
    /// `Matrix` and runs a single forward pass (one matmul per layer
    /// instead of one per row). This is the serving hot path's entry
    /// point — `maleva-serve` drains its micro-batch queue into this.
    ///
    /// The result is **bit-identical** to calling
    /// [`Network::predict_proba`] on each row individually: every output
    /// row of a matmul is an independent dot-product accumulation over
    /// that row alone, so batching changes neither operation order nor
    /// rounding (`maleva-serve`'s proptests pin this invariant). This
    /// holds under every linalg backend — including `simd`, whose
    /// per-element accumulation order is independent of tile position
    /// and batch size (see `maleva_linalg::backend`).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] if `rows` is empty or any row's
    /// width differs from `input_dim()`.
    pub fn predict_proba_rows(&self, rows: &[Vec<f64>]) -> Result<Matrix, NnError> {
        if let Some(bad) = rows.iter().find(|r| r.len() != self.input_dim()) {
            return Err(NnError::InputShape {
                expected: self.input_dim(),
                actual: bad.len(),
            });
        }
        let x = Matrix::from_rows(rows).map_err(|_| NnError::InputShape {
            expected: self.input_dim(),
            actual: 0,
        })?;
        self.predict_proba(&x)
    }

    /// Training forward pass with dropout; returns logits and the caches
    /// needed by [`Network::backward`].
    pub(crate) fn forward_train(
        &self,
        x: &Matrix,
        rng: &mut impl Rng,
    ) -> Result<(Matrix, Vec<LayerCache>), NnError> {
        self.check_input(x)?;
        let mut h = x.clone();
        let mut caches = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let (out, cache) = layer.forward_train(h, rng)?;
            caches.push(cache);
            h = out;
        }
        Ok((h, caches))
    }

    /// Backpropagates `grad_logits` (dL/dlogits) through the cached forward
    /// pass, returning per-layer parameter gradients. The gradient with
    /// respect to the input batch is never formed: training does not
    /// read it, and at the paper's width it is a 491×512 product per
    /// sample.
    pub(crate) fn backward(
        &self,
        caches: &[LayerCache],
        grad_logits: &Matrix,
    ) -> Result<Gradients, NnError> {
        debug_assert_eq!(caches.len(), self.layers.len());
        let mut layer_grads: Vec<(Matrix, Vec<f64>)> = Vec::with_capacity(self.layers.len());
        let mut grad = grad_logits.clone();
        for (i, (layer, cache)) in self.layers.iter().zip(caches).enumerate().rev() {
            let (gw, gb, gx) = layer.backward(cache, &grad, i > 0)?;
            layer_grads.push((gw, gb));
            if let Some(gx) = gx {
                grad = gx;
            }
        }
        layer_grads.reverse();
        Ok(Gradients {
            layers: layer_grads,
        })
    }

    /// Propagates `grad` (dL/dlogits, one row per seed) back to dL/dx
    /// through the pre-activations of an inference forward pass, skipping
    /// the parameter gradients an attacker discards. A one-row `preacts`
    /// entry is shared by every seed row; otherwise row `r` of `grad`
    /// meets row `r` of each pre-activation.
    fn backward_to_input(&self, preacts: &[Matrix], mut grad: Matrix) -> Result<Matrix, NnError> {
        for (layer, preact) in self.layers.iter().zip(preacts).rev() {
            let act = layer.activation();
            let shared = preact.rows() == 1;
            for (r, g_row) in grad.as_mut_slice().chunks_mut(preact.cols()).enumerate() {
                let z_row = preact.row(if shared { 0 } else { r });
                for (g, &z) in g_row.iter_mut().zip(z_row) {
                    *g *= act.derivative(z);
                }
            }
            grad = grad.matmul_nt(layer.weights())?;
        }
        Ok(grad)
    }

    /// Gradient of a scalar function of the logits with respect to the
    /// input batch, where `grad_logits` is dL/dlogits. Dropout is disabled
    /// (inference-mode gradients, as an attacker would compute them).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] on batch-width mismatch and
    /// [`NnError::LabelMismatch`] if `grad_logits` has the wrong shape.
    pub fn input_gradient(&self, x: &Matrix, grad_logits: &Matrix) -> Result<Matrix, NnError> {
        self.check_input(x)?;
        if grad_logits.shape() != (x.rows(), self.num_classes()) {
            return Err(NnError::LabelMismatch {
                detail: format!(
                    "grad_logits is {:?}, expected ({}, {})",
                    grad_logits.shape(),
                    x.rows(),
                    self.num_classes()
                ),
            });
        }
        let (preacts, _) = self.forward_keeping_preacts(x)?;
        self.backward_to_input(&preacts, grad_logits.clone())
    }

    /// Inference-mode forward over a batch that keeps every layer's
    /// pre-activations and returns them with the final outputs. The
    /// attacker-side backward pass needs neither dropout masks nor the
    /// per-layer inputs (those only feed weight gradients, which it never
    /// computes).
    fn forward_keeping_preacts(&self, x: &Matrix) -> Result<(Vec<Matrix>, Matrix), NnError> {
        let mut preacts = Vec::with_capacity(self.layers.len());
        let mut h: Option<Matrix> = None;
        for layer in &self.layers {
            let preact = layer.preact(h.as_ref().unwrap_or(x))?;
            let act = layer.activation();
            h = Some(preact.map(|v| act.apply(v)));
            preacts.push(preact);
        }
        Ok((preacts, h.expect("a network has at least one layer")))
    }

    /// Inference forward pass of one sample that keeps every layer's
    /// pre-activations, so the Jacobians at that sample
    /// ([`Network::input_jacobian_at`],
    /// [`Network::probability_jacobian_at`]) cost only a backward pass.
    /// Its logits equal [`Network::logits`] of the same row bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] if `sample.len() != input_dim()`.
    pub fn forward_pass(&self, sample: &[f64]) -> Result<ForwardPass, NnError> {
        if sample.len() != self.input_dim() {
            return Err(NnError::InputShape {
                expected: self.input_dim(),
                actual: sample.len(),
            });
        }
        let (preacts, logits) = self.forward_keeping_preacts(&Matrix::row_vector(sample))?;
        Ok(ForwardPass { preacts, logits })
    }

    /// The Jacobian of the **logits** with respect to a single input
    /// sample: a `num_classes x input_dim` matrix. This is Equation (1) of
    /// the paper (computed on logits; see
    /// [`Network::probability_jacobian`] for the softmax-space version).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] if `sample.len() != input_dim()`.
    pub fn input_jacobian(&self, sample: &[f64]) -> Result<Matrix, NnError> {
        self.input_jacobian_at(&self.forward_pass(sample)?)
    }

    /// [`Network::input_jacobian`] at the sample of an existing forward
    /// pass of this network.
    ///
    /// All `num_classes` rows come from ONE backward pass seeded with the
    /// identity (row `c` asks for d logit_c / dx); the one-row
    /// pre-activations are shared by every seed row. Every linalg backend
    /// treats batch rows independently, so this is bit-identical to a
    /// forward/backward over the sample replicated once per class.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if `pass` does not have this
    /// network's layer widths.
    pub fn input_jacobian_at(&self, pass: &ForwardPass) -> Result<Matrix, NnError> {
        let widths_match = pass.preacts.len() == self.layers.len()
            && pass
                .preacts
                .iter()
                .zip(&self.layers)
                .all(|(z, layer)| z.shape() == (1, layer.out_dim()));
        if !widths_match {
            return Err(NnError::InvalidConfig {
                detail: "forward pass does not match this network's layer widths".to_string(),
            });
        }
        self.backward_to_input(&pass.preacts, Matrix::identity(self.num_classes()))
    }

    /// The Jacobian of the **softmax probabilities** (at temperature `t`)
    /// with respect to a single input sample: `num_classes x input_dim`.
    ///
    /// Computed from the logit Jacobian via the softmax Jacobian
    /// `∂pᵢ/∂zⱼ = (δᵢⱼ pᵢ − pᵢ pⱼ) / t`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] if `sample.len() != input_dim()`.
    ///
    /// # Panics
    ///
    /// Panics if `t <= 0`.
    pub fn probability_jacobian(&self, sample: &[f64], t: f64) -> Result<Matrix, NnError> {
        self.probability_jacobian_at(&self.forward_pass(sample)?, t)
    }

    /// [`Network::probability_jacobian`] at the sample of an existing
    /// forward pass of this network: one backward pass, with the
    /// softmax taken from the pass's logits.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if `pass` does not have this
    /// network's layer widths.
    ///
    /// # Panics
    ///
    /// Panics if `t <= 0`.
    pub fn probability_jacobian_at(&self, pass: &ForwardPass, t: f64) -> Result<Matrix, NnError> {
        let logit_jac = self.input_jacobian_at(pass)?;
        let p = softmax(pass.logits(), t);
        let c = p.len();
        // softmax Jacobian S (c x c): S[i][j] = (δij p_i − p_i p_j)/t
        let s = Matrix::from_fn(c, c, |i, j| {
            let delta = if i == j { 1.0 } else { 0.0 };
            (delta * p[i] - p[i] * p[j]) / t
        });
        Ok(s.matmul(&logit_jac)?)
    }

    /// Serializes the network (architecture + weights) to a JSON string.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Serialization`] if encoding fails.
    pub fn to_json(&self) -> Result<String, NnError> {
        serde_json::to_string(self).map_err(|e| NnError::Serialization {
            detail: e.to_string(),
        })
    }

    /// Restores a network from [`Network::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Serialization`] if decoding fails, including
    /// when the decoded model breaks an invariant of
    /// [`Network::from_layers`] or [`Dense::new`].
    pub fn from_json(json: &str) -> Result<Self, NnError> {
        serde_json::from_str(json).map_err(|e| NnError::Serialization {
            detail: e.to_string(),
        })
    }
}

/// Builder for [`Network`] values.
///
/// # Example
///
/// ```
/// use maleva_nn::{Activation, NetworkBuilder};
///
/// // The paper's Table IV substitute model (scaled-down widths shown in
/// // the repo's quick presets; full widths work identically).
/// let net = NetworkBuilder::new(491)
///     .layer(1200, Activation::ReLU)
///     .layer(1500, Activation::ReLU)
///     .layer(1300, Activation::ReLU)
///     .layer(2, Activation::Identity)
///     .seed(42)
///     .build()
///     .unwrap();
/// assert_eq!(net.dims(), vec![491, 1200, 1500, 1300, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    input_dim: usize,
    specs: Vec<(usize, Activation, f64)>,
    seed: u64,
}

impl NetworkBuilder {
    /// Starts a builder for a network taking `input_dim` features.
    pub fn new(input_dim: usize) -> Self {
        NetworkBuilder {
            input_dim,
            specs: Vec::new(),
            seed: 0,
        }
    }

    /// Appends a dense layer with `units` outputs and the given activation.
    pub fn layer(mut self, units: usize, activation: Activation) -> Self {
        self.specs.push((units, activation, 0.0));
        self
    }

    /// Sets the dropout probability of the **most recently added** layer.
    ///
    /// # Panics
    ///
    /// Panics if called before any `layer()`.
    pub fn dropout(mut self, p: f64) -> Self {
        let last = self
            .specs
            .last_mut()
            .expect("dropout() must follow layer()");
        last.2 = p;
        self
    }

    /// Sets the weight-initialization seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the network with He-uniform weights and zero biases.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if no layers were added, any
    /// layer has zero units, the input dimension is zero, or a dropout
    /// probability is out of range.
    pub fn build(self) -> Result<Network, NnError> {
        if self.input_dim == 0 {
            return Err(NnError::InvalidConfig {
                detail: "input dimension must be positive".to_string(),
            });
        }
        if self.specs.is_empty() {
            return Err(NnError::InvalidConfig {
                detail: "network must have at least one layer".to_string(),
            });
        }
        let mut rng = init::rng(self.seed);
        let mut layers = Vec::with_capacity(self.specs.len());
        let mut fan_in = self.input_dim;
        for &(units, activation, dropout) in &self.specs {
            if units == 0 {
                return Err(NnError::InvalidConfig {
                    detail: "layer must have at least one unit".to_string(),
                });
            }
            let weights = match activation {
                Activation::ReLU => init::he_uniform(fan_in, units, &mut rng),
                _ => init::xavier_uniform(fan_in, units, &mut rng),
            };
            layers.push(Dense::new(weights, vec![0.0; units], activation, dropout)?);
            fan_in = units;
        }
        Network::from_layers(layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_net(seed: u64) -> Network {
        NetworkBuilder::new(3)
            .layer(5, Activation::ReLU)
            .layer(2, Activation::Identity)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_expected_dims() {
        let net = tiny_net(0);
        assert_eq!(net.dims(), vec![3, 5, 2]);
        assert_eq!(net.input_dim(), 3);
        assert_eq!(net.num_classes(), 2);
        assert_eq!(net.param_count(), 3 * 5 + 5 + 5 * 2 + 2);
    }

    #[test]
    fn builder_rejects_degenerate_configs() {
        assert!(NetworkBuilder::new(0)
            .layer(2, Activation::ReLU)
            .build()
            .is_err());
        assert!(NetworkBuilder::new(3).build().is_err());
        assert!(NetworkBuilder::new(3)
            .layer(0, Activation::ReLU)
            .build()
            .is_err());
    }

    #[test]
    #[should_panic(expected = "dropout() must follow layer()")]
    fn dropout_before_layer_panics() {
        let _ = NetworkBuilder::new(3).dropout(0.5);
    }

    #[test]
    fn from_layers_rejects_non_chaining() {
        let l1 = Dense::new(Matrix::zeros(3, 4), vec![0.0; 4], Activation::ReLU, 0.0).unwrap();
        let l2 = Dense::new(Matrix::zeros(5, 2), vec![0.0; 2], Activation::ReLU, 0.0).unwrap();
        assert!(Network::from_layers(vec![l1, l2]).is_err());
        assert!(Network::from_layers(vec![]).is_err());
    }

    #[test]
    fn logits_shape_and_input_check() {
        let net = tiny_net(1);
        let x = Matrix::zeros(4, 3);
        assert_eq!(net.logits(&x).unwrap().shape(), (4, 2));
        let bad = Matrix::zeros(4, 7);
        assert!(matches!(
            net.logits(&bad).unwrap_err(),
            NnError::InputShape {
                expected: 3,
                actual: 7
            }
        ));
    }

    #[test]
    fn probabilities_sum_to_one() {
        let net = tiny_net(2);
        let x = Matrix::from_rows(&[vec![0.1, -0.5, 0.9], vec![1.0, 1.0, 1.0]]).unwrap();
        let p = net.predict_proba(&x).unwrap();
        for row in p.rows_iter() {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn predict_is_argmax_of_proba() {
        let net = tiny_net(3);
        let x = Matrix::from_rows(&[vec![0.4, 0.2, -0.3], vec![-1.0, 0.5, 0.0]]).unwrap();
        let preds = net.predict(&x).unwrap();
        let probs = net.predict_proba(&x).unwrap();
        assert_eq!(preds, probs.argmax_rows());
    }

    #[test]
    fn same_seed_same_network() {
        let a = tiny_net(9);
        let b = tiny_net(9);
        let x = Matrix::from_rows(&[vec![0.3, 0.1, 0.7]]).unwrap();
        assert_eq!(a.logits(&x).unwrap(), b.logits(&x).unwrap());
    }

    #[test]
    fn input_jacobian_matches_finite_difference() {
        let net = NetworkBuilder::new(4)
            .layer(6, Activation::Tanh)
            .layer(3, Activation::Identity)
            .seed(5)
            .build()
            .unwrap();
        let sample = [0.2, -0.4, 0.7, 0.1];
        let jac = net.input_jacobian(&sample).unwrap();
        assert_eq!(jac.shape(), (3, 4));
        let eps = 1e-6;
        for j in 0..4 {
            let mut plus = sample;
            plus[j] += eps;
            let mut minus = sample;
            minus[j] -= eps;
            let zp = net.logits(&Matrix::row_vector(&plus)).unwrap();
            let zm = net.logits(&Matrix::row_vector(&minus)).unwrap();
            for c in 0..3 {
                let numeric = (zp.get(0, c) - zm.get(0, c)) / (2.0 * eps);
                assert!(
                    (numeric - jac.get(c, j)).abs() < 1e-5,
                    "J({c},{j}): {numeric} vs {}",
                    jac.get(c, j)
                );
            }
        }
    }

    #[test]
    fn probability_jacobian_matches_finite_difference() {
        let net = NetworkBuilder::new(3)
            .layer(4, Activation::Sigmoid)
            .layer(2, Activation::Identity)
            .seed(8)
            .build()
            .unwrap();
        let sample = [0.5, -0.2, 0.3];
        let t = 2.0;
        let jac = net.probability_jacobian(&sample, t).unwrap();
        let eps = 1e-6;
        for j in 0..3 {
            let mut plus = sample;
            plus[j] += eps;
            let mut minus = sample;
            minus[j] -= eps;
            let pp = net.predict_proba_at(&Matrix::row_vector(&plus), t).unwrap();
            let pm = net
                .predict_proba_at(&Matrix::row_vector(&minus), t)
                .unwrap();
            for c in 0..2 {
                let numeric = (pp.get(0, c) - pm.get(0, c)) / (2.0 * eps);
                assert!(
                    (numeric - jac.get(c, j)).abs() < 1e-5,
                    "P-J({c},{j}): {numeric} vs {}",
                    jac.get(c, j)
                );
            }
        }
    }

    #[test]
    fn probability_jacobian_rows_sum_to_zero() {
        // Probabilities sum to 1, so each column of the prob-Jacobian sums
        // to 0 across classes.
        let net = tiny_net(6);
        let jac = net.probability_jacobian(&[0.1, 0.2, 0.3], 1.0).unwrap();
        for j in 0..3 {
            let col_sum: f64 = (0..2).map(|c| jac.get(c, j)).sum();
            assert!(col_sum.abs() < 1e-12);
        }
    }

    #[test]
    fn predict_proba_rows_is_bit_identical_to_per_row() {
        let net = tiny_net(21);
        let rows: Vec<Vec<f64>> = (0..17)
            .map(|i| {
                let t = i as f64 * 0.37;
                vec![t.sin(), (t * 1.7).cos(), t.tanh() - 0.5]
            })
            .collect();
        let batched = net.predict_proba_rows(&rows).unwrap();
        assert_eq!(batched.shape(), (17, 2));
        for (i, row) in rows.iter().enumerate() {
            let single = net.predict_proba(&Matrix::row_vector(row)).unwrap();
            for c in 0..2 {
                // Exact bitwise equality, not approximate: batching must
                // not perturb the serving scores at all.
                assert_eq!(batched.get(i, c).to_bits(), single.get(0, c).to_bits());
            }
        }
    }

    #[test]
    fn predict_proba_rows_rejects_bad_shapes() {
        let net = tiny_net(22);
        assert!(net.predict_proba_rows(&[]).is_err());
        assert!(net
            .predict_proba_rows(&[vec![0.0; 3], vec![0.0; 4]])
            .is_err());
    }

    #[test]
    fn json_round_trip_preserves_behaviour() {
        let net = tiny_net(13);
        let json = net.to_json().unwrap();
        let restored = Network::from_json(&json).unwrap();
        let x = Matrix::from_rows(&[vec![0.9, -0.1, 0.4]]).unwrap();
        assert_eq!(net.logits(&x).unwrap(), restored.logits(&x).unwrap());
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(Network::from_json("{not json").is_err());
        assert!(Network::from_json("{\"layers\": []}").is_err());
    }

    #[test]
    fn input_gradient_validates_shapes() {
        let net = tiny_net(0);
        let x = Matrix::zeros(2, 3);
        let bad_grad = Matrix::zeros(2, 5);
        assert!(net.input_gradient(&x, &bad_grad).is_err());
        assert!(net.input_jacobian(&[0.0; 7]).is_err());
    }
}
