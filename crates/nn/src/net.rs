//! Dense feed-forward networks with backpropagation.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// max(0, x)
    Relu,
    /// tanh(x)
    Tanh,
    /// 1 / (1 + e^-x)
    Sigmoid,
    /// identity
    Linear,
}

impl Activation {
    fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Linear => x,
        }
    }

    /// Derivative expressed in terms of the *activated* output `y`.
    fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Linear => 1.0,
        }
    }
}

/// Gradient-descent optimizers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Optimizer {
    /// Plain stochastic gradient descent.
    Sgd {
        /// Learning rate.
        lr: f64,
    },
    /// Adam with the usual defaults (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
    Adam {
        /// Learning rate.
        lr: f64,
    },
}

/// One dense layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Dense {
    /// Row-major `[out][in]` weights.
    w: Vec<f64>,
    b: Vec<f64>,
    inputs: usize,
    outputs: usize,
    act: Activation,
    // Adam state.
    m_w: Vec<f64>,
    v_w: Vec<f64>,
    m_b: Vec<f64>,
    v_b: Vec<f64>,
}

impl Dense {
    fn new<R: Rng>(inputs: usize, outputs: usize, act: Activation, rng: &mut R) -> Self {
        // Xavier/Glorot uniform initialization.
        let limit = (6.0 / (inputs + outputs) as f64).sqrt();
        let w = (0..inputs * outputs)
            .map(|_| rng.gen_range(-limit..limit))
            .collect();
        Dense {
            w,
            b: vec![0.0; outputs],
            inputs,
            outputs,
            act,
            m_w: vec![0.0; inputs * outputs],
            v_w: vec![0.0; inputs * outputs],
            m_b: vec![0.0; outputs],
            v_b: vec![0.0; outputs],
        }
    }

    fn forward(&self, x: &[f64]) -> Vec<f64> {
        debug_assert_eq!(x.len(), self.inputs);
        (0..self.outputs)
            .map(|o| {
                let mut acc = self.b[o];
                let row = &self.w[o * self.inputs..(o + 1) * self.inputs];
                for (wi, xi) in row.iter().zip(x) {
                    acc += wi * xi;
                }
                self.act.apply(acc)
            })
            .collect()
    }
}

/// A dense feed-forward network trained with backprop + MSE loss.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Network {
    layers: Vec<Dense>,
    optimizer: Optimizer,
    /// Adam step counter.
    t: u64,
}

impl Network {
    /// Build a network. `sizes` is `[in, hidden…, out]`; `activations` has
    /// one entry per layer (`sizes.len() - 1`).
    ///
    /// # Panics
    /// If `sizes` and `activations` lengths are inconsistent.
    pub fn new<R: Rng>(
        sizes: &[usize],
        activations: &[Activation],
        optimizer: Optimizer,
        rng: &mut R,
    ) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        assert_eq!(
            activations.len(),
            sizes.len() - 1,
            "one activation per layer"
        );
        let layers = sizes
            .windows(2)
            .zip(activations)
            .map(|(pair, &act)| Dense::new(pair[0], pair[1], act, rng))
            .collect();
        Network {
            layers,
            optimizer,
            t: 0,
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map(|l| l.inputs).unwrap_or(0)
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map(|l| l.outputs).unwrap_or(0)
    }

    /// Forward pass.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut a = x.to_vec();
        for layer in &self.layers {
            a = layer.forward(&a);
        }
        a
    }

    /// One backprop step on a single example; returns the MSE loss before
    /// the update.
    pub fn train_step(&mut self, x: &[f64], target: &[f64]) -> f64 {
        self.step(x, |out| {
            debug_assert_eq!(out.len(), target.len());
            out.copy_from_slice(target);
        })
    }

    /// One temporal-difference step: move output `action` toward `value`
    /// and leave every other output where it is. Equivalent to
    /// `train_step(x, &t)` with `t = forward(x)` and `t[action] = value`,
    /// bit for bit, but runs the forward pass on `x` once instead of
    /// twice. Returns the MSE loss before the update.
    pub fn td_update(&mut self, x: &[f64], action: usize, value: f64) -> f64 {
        self.step(x, |out| out[action] = value)
    }

    /// The fused training kernel behind [`Self::train_step`] and
    /// [`Self::td_update`]: a forward pass that caches activations, a
    /// target built from the output by `set_target`, then one backward
    /// sweep that computes each gradient and applies the optimizer to it
    /// in place. Adam's bias corrections are computed once per step.
    fn step(&mut self, x: &[f64], set_target: impl FnOnce(&mut [f64])) -> f64 {
        let mut activations: Vec<Vec<f64>> = Vec::with_capacity(self.layers.len() + 1);
        activations.push(x.to_vec());
        for layer in &self.layers {
            let next = layer.forward(activations.last().unwrap());
            activations.push(next);
        }
        let output = activations.last().unwrap();
        let mut target = output.clone();
        set_target(&mut target);
        let n = output.len() as f64;
        let loss: f64 = output
            .iter()
            .zip(&target)
            .map(|(o, t)| (o - t).powi(2))
            .sum::<f64>()
            / n;

        // Backward pass: delta = dL/d(pre-activation).
        let mut delta: Vec<f64> = output
            .iter()
            .zip(&target)
            .map(|(o, t)| 2.0 * (o - t) / n)
            .collect();
        self.t += 1;
        let update = Update::new(self.optimizer, self.t);
        for (li, layer) in self.layers.iter_mut().enumerate().rev() {
            let (input, out) = (&activations[li], &activations[li + 1]);
            let mut d_prev = vec![0.0; layer.inputs];
            for o in 0..layer.outputs {
                let d = delta[o] * layer.act.derivative_from_output(out[o]);
                let row = o * layer.inputs..(o + 1) * layer.inputs;
                let (w, m_w, v_w) = (
                    &mut layer.w[row.clone()],
                    &mut layer.m_w[row.clone()],
                    &mut layer.v_w[row],
                );
                for i in 0..layer.inputs {
                    // Backpropagate through the weight before updating it.
                    d_prev[i] += d * w[i];
                    update.apply(&mut w[i], &mut m_w[i], &mut v_w[i], d * input[i]);
                }
                update.apply(&mut layer.b[o], &mut layer.m_b[o], &mut layer.v_b[o], d);
            }
            delta = d_prev;
        }
        loss
    }

    /// Train over a dataset for `epochs`; returns the final mean loss.
    pub fn fit(&mut self, xs: &[Vec<f64>], ys: &[Vec<f64>], epochs: usize) -> f64 {
        assert_eq!(xs.len(), ys.len());
        let mut last = f64::NAN;
        for _ in 0..epochs {
            let mut total = 0.0;
            for (x, y) in xs.iter().zip(ys) {
                total += self.train_step(x, y);
            }
            last = total / xs.len().max(1) as f64;
        }
        last
    }
}

/// One optimizer step's per-parameter update, with Adam's bias
/// corrections computed once.
#[derive(Clone, Copy)]
enum Update {
    Sgd { lr: f64 },
    Adam { lr: f64, bc1: f64, bc2: f64 },
}

const B1: f64 = 0.9;
const B2: f64 = 0.999;
const EPS: f64 = 1e-8;

impl Update {
    fn new(optimizer: Optimizer, t: u64) -> Update {
        match optimizer {
            Optimizer::Sgd { lr } => Update::Sgd { lr },
            Optimizer::Adam { lr } => Update::Adam {
                lr,
                bc1: 1.0 - B1.powi(t as i32),
                bc2: 1.0 - B2.powi(t as i32),
            },
        }
    }

    #[inline]
    fn apply(self, p: &mut f64, m: &mut f64, v: &mut f64, g: f64) {
        match self {
            Update::Sgd { lr } => *p -= lr * g,
            Update::Adam { lr, bc1, bc2 } => {
                *m = B1 * *m + (1.0 - B1) * g;
                *v = B2 * *v + (1.0 - B2) * g * g;
                let m_hat = *m / bc1;
                let v_hat = *v / bc2;
                *p -= lr * m_hat / (v_hat.sqrt() + EPS);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_dimensions() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = Network::new(
            &[3, 5, 2],
            &[Activation::Relu, Activation::Linear],
            Optimizer::Sgd { lr: 0.01 },
            &mut rng,
        );
        assert_eq!(net.input_dim(), 3);
        assert_eq!(net.output_dim(), 2);
        assert_eq!(net.forward(&[0.1, 0.2, 0.3]).len(), 2);
    }

    #[test]
    fn learns_xor_with_adam() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = Network::new(
            &[2, 8, 1],
            &[Activation::Tanh, Activation::Sigmoid],
            Optimizer::Adam { lr: 0.05 },
            &mut rng,
        );
        let xs = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let ys = vec![vec![0.0], vec![1.0], vec![1.0], vec![0.0]];
        let loss = net.fit(&xs, &ys, 2000);
        assert!(loss < 0.03, "final loss {loss}");
        for (x, y) in xs.iter().zip(&ys) {
            let out = net.forward(x)[0];
            assert!(
                (out - y[0]).abs() < 0.3,
                "xor({x:?}) = {out:.3}, want {}",
                y[0]
            );
        }
    }

    #[test]
    fn learns_linear_regression_with_sgd() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Network::new(
            &[1, 1],
            &[Activation::Linear],
            Optimizer::Sgd { lr: 0.05 },
            &mut rng,
        );
        // y = 2x + 1
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 20.0]).collect();
        let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![2.0 * x[0] + 1.0]).collect();
        let loss = net.fit(&xs, &ys, 500);
        assert!(loss < 1e-3, "loss {loss}");
        let pred = net.forward(&[0.5])[0];
        assert!((pred - 2.0).abs() < 0.1, "pred {pred}");
    }

    #[test]
    fn training_reduces_loss_monotonically_on_average() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut net = Network::new(
            &[2, 6, 1],
            &[Activation::Relu, Activation::Linear],
            Optimizer::Adam { lr: 0.01 },
            &mut rng,
        );
        let xs: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![(i % 10) as f64 / 10.0, (i / 10) as f64 / 5.0])
            .collect();
        let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![x[0] * 0.5 - x[1] * 0.2]).collect();
        let early = net.fit(&xs, &ys, 1);
        let late = net.fit(&xs, &ys, 200);
        assert!(late < early || late < 1e-6, "late {late} >= early {early}");
    }

    #[test]
    fn deterministic_given_seed() {
        let build = || {
            let mut rng = StdRng::seed_from_u64(42);
            Network::new(
                &[2, 4, 1],
                &[Activation::Tanh, Activation::Linear],
                Optimizer::Sgd { lr: 0.01 },
                &mut rng,
            )
        };
        let a = build().forward(&[0.3, 0.7]);
        let b = build().forward(&[0.3, 0.7]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "one activation per layer")]
    fn mismatched_activations_panic() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = Network::new(
            &[2, 2],
            &[Activation::Relu, Activation::Relu],
            Optimizer::Sgd { lr: 0.1 },
            &mut rng,
        );
    }

    #[test]
    fn activation_derivatives_match_definitions() {
        assert_eq!(Activation::Relu.derivative_from_output(2.0), 1.0);
        assert_eq!(Activation::Relu.derivative_from_output(0.0), 0.0);
        let y = 0.5f64.tanh();
        assert!((Activation::Tanh.derivative_from_output(y) - (1.0 - y * y)).abs() < 1e-12);
        assert_eq!(Activation::Linear.derivative_from_output(123.0), 1.0);
    }
}
