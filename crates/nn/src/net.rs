//! Dense feed-forward networks with backpropagation.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

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
    /// Apply the activation to every element of `xs` in place. Tanh runs
    /// the crate's lane-wise [`tanh_slice`](crate::tanh::tanh_slice).
    fn apply(self, xs: &mut [f64]) {
        match self {
            Activation::Relu => xs.iter_mut().for_each(|x| *x = x.max(0.0)),
            Activation::Tanh => crate::tanh::tanh_slice(xs),
            Activation::Sigmoid => xs.iter_mut().for_each(|x| *x = 1.0 / (1.0 + (-*x).exp())),
            Activation::Linear => {}
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
}

/// Per-thread working memory of the kernel. It lives outside
/// [`Network`] so the serialized layout stays exactly the weights and
/// optimizer state, and it keeps its capacity between calls, so a
/// training step allocates nothing once a thread has run one.
struct Scratch {
    /// The input followed by every layer's output, back to back.
    acts: Vec<f64>,
    /// Training target for the output layer.
    target: Vec<f64>,
    /// dL/d(pre-activation) of the layer being backpropagated.
    delta: Vec<f64>,
    /// The same for the layer below, built from `delta`.
    d_prev: Vec<f64>,
    /// Weight and bias gradients of the layer being updated.
    grad_w: Vec<f64>,
    grad_b: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            acts: Vec::new(),
            target: Vec::new(),
            delta: Vec::new(),
            d_prev: Vec::new(),
            grad_w: Vec::new(),
            grad_b: Vec::new(),
        })
    };
}

/// The one list of shapes the fixed-shape kernel runs: `$body` with
/// `$q` the network viewed as a `$view::<I, O>` when it has one of the
/// agents' Q-network shapes, `(I, O)` = (4, 2) for the stop agent or
/// (6, 12) for the subset picker; `None` for any other network.
macro_rules! on_agent_shape {
    ($net:expr, |$q:ident: $view:ident| $body:expr) => {
        match ($net.input_dim(), $net.output_dim()) {
            (4, 2) => $view::<4, 2>::of($net).and_then(|$q| $body),
            (6, 12) => $view::<6, 12>::of($net).and_then(|$q| $body),
            _ => None,
        }
    };
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

    /// Check that the layers fit together, as every network built by
    /// [`Self::new`] does: each weight and Adam moment vector holds
    /// `inputs * outputs` entries, each bias vector `outputs`, and each
    /// layer takes the previous layer's outputs as its inputs. A
    /// deserialized network can break any of these, and then the kernel
    /// would index out of bounds; callers that read networks from
    /// outside the process check them here first.
    pub fn check_shape(&self) -> Result<(), String> {
        if self.layers.is_empty() {
            return Err("network has no layers".into());
        }
        let mut prev = None;
        for (li, l) in self.layers.iter().enumerate() {
            let weights = l
                .inputs
                .checked_mul(l.outputs)
                .ok_or_else(|| format!("layer {li}: {} x {} overflows", l.inputs, l.outputs))?;
            for (name, len, want) in [
                ("w", l.w.len(), weights),
                ("m_w", l.m_w.len(), weights),
                ("v_w", l.v_w.len(), weights),
                ("b", l.b.len(), l.outputs),
                ("m_b", l.m_b.len(), l.outputs),
                ("v_b", l.v_b.len(), l.outputs),
            ] {
                if len != want {
                    return Err(format!("layer {li}: {name} has {len} entries, want {want}"));
                }
            }
            if let Some(prev) = prev.filter(|&p| p != l.inputs) {
                return Err(format!(
                    "layer {li}: takes {} inputs but the layer below gives {prev}",
                    l.inputs
                ));
            }
            prev = Some(l.outputs);
        }
        Ok(())
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map(|l| l.inputs).unwrap_or(0)
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map(|l| l.outputs).unwrap_or(0)
    }

    /// The forward pass behind every entry point: writes `x` and then
    /// each layer's activations into `acts`, so the output is its last
    /// [`Self::output_dim`] entries. A layer writes all its
    /// pre-activations first, then activates them in one pass.
    fn forward_into(&self, x: &[f64], acts: &mut Vec<f64>) {
        acts.clear();
        acts.extend_from_slice(x);
        let mut start = 0;
        for layer in &self.layers {
            let end = acts.len();
            debug_assert_eq!(end - start, layer.inputs);
            for o in 0..layer.outputs {
                let row = &layer.w[o * layer.inputs..(o + 1) * layer.inputs];
                let mut acc = layer.b[o];
                for (wi, xi) in row.iter().zip(&acts[start..end]) {
                    acc += wi * xi;
                }
                acts.push(acc);
            }
            layer.act.apply(&mut acts[end..]);
            start = end;
        }
    }

    /// Forward pass.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        SCRATCH.with(|s| {
            let acts = &mut s.borrow_mut().acts;
            self.forward_into(x, acts);
            acts[acts.len() - self.output_dim()..].to_vec()
        })
    }

    /// The largest output for `x`: `forward(x)` folded with `f64::max`
    /// from negative infinity, without allocating the output vector.
    pub fn max_output(&self, x: &[f64]) -> f64 {
        if let Some(max) = on_agent_shape!(self, |q: QView| q.max_output(x)) {
            return max;
        }
        SCRATCH.with(|s| {
            let acts = &mut s.borrow_mut().acts;
            self.forward_into(x, acts);
            acts[acts.len() - self.output_dim()..]
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        })
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
    /// and leave every other output where it is. Bit for bit the same as
    /// `train_step(x, &t)` with `t = forward(x)` and `t[action] = value`
    /// (a property test pins this), but runs the forward pass on `x` once
    /// instead of twice. Returns the MSE loss before the update.
    pub fn td_update(&mut self, x: &[f64], action: usize, value: f64) -> f64 {
        match on_agent_shape!(self, |q: QNet| q.td_update(x, action, value)) {
            Some(loss) => loss,
            None => self.step(x, |out| out[action] = value),
        }
    }

    /// Whether [`Self::td_update`] and [`Self::max_output`] run the
    /// fixed-shape kernel on this network: a Tanh→Linear `[4, 24, 2]`
    /// (the stop agent's) or `[6, 24, 12]` (the subset picker's). Any
    /// other network runs the generic kernel, to the same bits but
    /// slower, so the agents' tests check that their networks keep a
    /// shape this accepts.
    pub fn has_fixed_kernel(&self) -> bool {
        on_agent_shape!(self, |_q: QView| Some(())).is_some()
    }

    /// The training kernel behind [`Self::train_step`] and
    /// [`Self::td_update`]: a forward pass into the thread's scratch, a
    /// target built from the output by `set_target`, then one backward
    /// sweep. Each layer first backpropagates its delta through the
    /// weights as they were, then runs the optimizer in one flat loop
    /// over its parameters and their gradients. Every parameter sees the
    /// same operations in the same order as a per-weight update would,
    /// so results do not depend on the loop shape.
    fn step(&mut self, x: &[f64], set_target: impl FnOnce(&mut [f64])) -> f64 {
        SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            self.forward_into(x, &mut s.acts);
            let output = &s.acts[s.acts.len() - self.output_dim()..];
            s.target.clear();
            s.target.extend_from_slice(output);
            set_target(&mut s.target);
            let n = output.len() as f64;
            let loss: f64 = output
                .iter()
                .zip(&s.target)
                .map(|(o, t)| (o - t).powi(2))
                .sum::<f64>()
                / n;

            // Backward pass: delta = dL/d(pre-activation).
            s.delta.clear();
            s.delta
                .extend(output.iter().zip(&s.target).map(|(o, t)| 2.0 * (o - t) / n));
            self.t += 1;
            let update = Update::new(self.optimizer, self.t);
            let mut end = s.acts.len();
            for (li, layer) in self.layers.iter_mut().enumerate().rev() {
                let out_start = end - layer.outputs;
                let in_start = if li == 0 { 0 } else { out_start - layer.inputs };
                let input = &s.acts[in_start..out_start][..layer.inputs];
                let out = &s.acts[out_start..end];
                s.grad_w.resize(layer.w.len(), 0.0);
                s.grad_b.resize(layer.outputs, 0.0);
                // The input layer's delta has no reader.
                let backprop = li > 0;
                if backprop {
                    s.d_prev.clear();
                    s.d_prev.resize(layer.inputs, 0.0);
                }
                for (o, (&delta, &y)) in s.delta.iter().zip(out).enumerate() {
                    let d = delta * layer.act.derivative_from_output(y);
                    let row = o * layer.inputs..(o + 1) * layer.inputs;
                    if backprop {
                        for (dp, w) in s.d_prev.iter_mut().zip(&layer.w[row.clone()]) {
                            *dp += d * w;
                        }
                    }
                    for (g, xi) in s.grad_w[row].iter_mut().zip(input) {
                        *g = d * xi;
                    }
                    s.grad_b[o] = d;
                }
                update.apply(&mut layer.w, &mut layer.m_w, &mut layer.v_w, &s.grad_w);
                update.apply(&mut layer.b, &mut layer.m_b, &mut layer.v_b, &s.grad_b);
                std::mem::swap(&mut s.delta, &mut s.d_prev);
                end = out_start;
            }
            loss
        })
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

/// One optimizer step, with Adam's bias corrections computed once.
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

    /// Update the parameters `p` (with Adam moments `m`, `v`) by the
    /// gradients `g`, element by element. All four slices have one
    /// length, so the loop runs without bounds checks and vectorises.
    fn apply(self, p: &mut [f64], m: &mut [f64], v: &mut [f64], g: &[f64]) {
        let n = p.len();
        let (m, v, g) = (&mut m[..n], &mut v[..n], &g[..n]);
        match self {
            Update::Sgd { lr } => {
                for i in 0..n {
                    p[i] -= lr * g[i];
                }
            }
            // Dividing by exactly 1.0 changes no bit, so once a bias
            // correction rounds to 1.0 (β₁'s from step 356 on, β₂'s from
            // about step 37,413) its division is left out.
            Update::Adam { lr, bc1, bc2 } if bc1 != 1.0 => {
                adam(p, m, v, g, lr, |m| m / bc1, |v| v / bc2)
            }
            Update::Adam { lr, bc2, .. } if bc2 != 1.0 => adam(p, m, v, g, lr, |m| m, |v| v / bc2),
            Update::Adam { lr, .. } => adam(p, m, v, g, lr, |m| m, |v| v),
        }
    }
}

/// Adam's step over equal-length slices, with the bias corrections
/// `m_hat` and `v_hat` passed in so each regime compiles to its own
/// loop.
fn adam(
    p: &mut [f64],
    m: &mut [f64],
    v: &mut [f64],
    g: &[f64],
    lr: f64,
    m_hat: impl Fn(f64) -> f64,
    v_hat: impl Fn(f64) -> f64,
) {
    for i in 0..p.len() {
        m[i] = B1 * m[i] + (1.0 - B1) * g[i];
        v[i] = B2 * v[i] + (1.0 - B2) * g[i] * g[i];
        p[i] -= lr * m_hat(m[i]) / (v_hat(v[i]).sqrt() + EPS);
    }
}

/// Hidden width of the agents' Q-networks (`QConfig::hidden` in
/// `tunio-rl`).
const HIDDEN: usize = 24;

/// `v` as `R` rows of `N`, if it holds exactly that many values.
fn rows<const N: usize, const R: usize>(v: &[f64]) -> Option<&[[f64; N]; R]> {
    match v.as_chunks::<N>() {
        (rows, []) => rows.try_into().ok(),
        _ => None,
    }
}

fn rows_mut<const N: usize, const R: usize>(v: &mut [f64]) -> Option<&mut [[f64; N]; R]> {
    match v.as_chunks_mut::<N>() {
        (rows, []) => rows.try_into().ok(),
        _ => None,
    }
}

/// Whether `l` is an `N`-input, `R`-output layer activated by `act`.
fn is_layer<const N: usize, const R: usize>(l: &Dense, act: Activation) -> bool {
    l.act == act && l.inputs == N && l.outputs == R
}

/// The forward weights of an agent's Q-network: `I` inputs, a Tanh
/// layer of [`HIDDEN`], a Linear layer of `O`. The passes below run the
/// generic [`Network::forward_into`]'s operations in its order, on stack
/// arrays whose lengths the compiler knows.
struct QView<'a, const I: usize, const O: usize> {
    w0: &'a [[f64; I]; HIDDEN],
    b0: &'a [f64; HIDDEN],
    w1: &'a [[f64; HIDDEN]; O],
    b1: &'a [f64; O],
}

impl<'a, const I: usize, const O: usize> QView<'a, I, O> {
    fn of(net: &'a Network) -> Option<Self> {
        let [hidden, out] = &net.layers[..] else {
            return None;
        };
        if !is_layer::<I, HIDDEN>(hidden, Activation::Tanh)
            || !is_layer::<HIDDEN, O>(out, Activation::Linear)
        {
            return None;
        }
        Some(QView {
            w0: rows(&hidden.w)?,
            b0: hidden.b.as_slice().try_into().ok()?,
            w1: rows(&out.w)?,
            b1: out.b.as_slice().try_into().ok()?,
        })
    }

    /// The hidden layer's pre-activations for `x`: each row's bias, then
    /// each input's term in turn.
    fn hidden(&self, x: &[f64; I], pre: &mut [f64; HIDDEN]) {
        for ((acc, row), b) in pre.iter_mut().zip(self.w0).zip(self.b0) {
            *acc = *b;
            for (w, xi) in row.iter().zip(x) {
                *acc += w * xi;
            }
        }
    }

    /// The outputs from the hidden activations `h`.
    fn outputs(&self, h: &[f64; HIDDEN]) -> [f64; O] {
        std::array::from_fn(|o| {
            let mut acc = self.b1[o];
            for (w, hj) in self.w1[o].iter().zip(h) {
                acc += w * hj;
            }
            acc
        })
    }

    fn max_output(&self, x: &[f64]) -> Option<f64> {
        let mut h = [0.0; HIDDEN];
        self.hidden(x.try_into().ok()?, &mut h);
        crate::tanh::tanh_slice(&mut h);
        Some(
            self.outputs(&h)
                .into_iter()
                .fold(f64::NEG_INFINITY, f64::max),
        )
    }
}

/// One layer's parameters and Adam moments at a fixed shape: `R` rows
/// of `N` weights, and `R` biases.
struct FixedLayer<'a, const N: usize, const R: usize> {
    w: &'a mut [[f64; N]; R],
    b: &'a mut [f64; R],
    m_w: &'a mut [[f64; N]; R],
    v_w: &'a mut [[f64; N]; R],
    m_b: &'a mut [f64; R],
    v_b: &'a mut [f64; R],
}

impl<'a, const N: usize, const R: usize> FixedLayer<'a, N, R> {
    fn of(l: &'a mut Dense, act: Activation) -> Option<Self> {
        if !is_layer::<N, R>(l, act) {
            return None;
        }
        Some(FixedLayer {
            w: rows_mut(&mut l.w)?,
            b: l.b.as_mut_slice().try_into().ok()?,
            m_w: rows_mut(&mut l.m_w)?,
            v_w: rows_mut(&mut l.v_w)?,
            m_b: l.m_b.as_mut_slice().try_into().ok()?,
            v_b: l.v_b.as_mut_slice().try_into().ok()?,
        })
    }

    /// The optimizer step on the weights, then on the biases.
    fn update(&mut self, update: Update, grad_w: &[[f64; N]; R], grad_b: &[f64; R]) {
        update.apply(
            self.w.as_flattened_mut(),
            self.m_w.as_flattened_mut(),
            self.v_w.as_flattened_mut(),
            grad_w.as_flattened(),
        );
        update.apply(self.b, self.m_b, self.v_b, grad_b);
    }
}

/// An agent's Q-network at its fixed shape (see [`QView`]), open for
/// training.
struct QNet<'a, const I: usize, const O: usize> {
    hidden: FixedLayer<'a, I, HIDDEN>,
    out: FixedLayer<'a, HIDDEN, O>,
    optimizer: Optimizer,
    t: &'a mut u64,
}

impl<'a, const I: usize, const O: usize> QNet<'a, I, O> {
    fn of(net: &'a mut Network) -> Option<Self> {
        let [hidden, out] = &mut net.layers[..] else {
            return None;
        };
        Some(QNet {
            hidden: FixedLayer::of(hidden, Activation::Tanh)?,
            out: FixedLayer::of(out, Activation::Linear)?,
            optimizer: net.optimizer,
            t: &mut net.t,
        })
    }

    fn view(&self) -> QView<'_, I, O> {
        QView {
            w0: self.hidden.w,
            b0: self.hidden.b,
            w1: self.out.w,
            b1: self.out.b,
        }
    }

    /// [`Network::td_update`], with every operation on every value the
    /// generic kernel's, in its order. `None`, with nothing changed, if
    /// `x` has the wrong width.
    fn td_update(mut self, x: &[f64], action: usize, value: f64) -> Option<f64> {
        let x: &[f64; I] = x.try_into().ok()?;
        let view = self.view();
        let mut h = [0.0; HIDDEN];
        view.hidden(x, &mut h);
        crate::tanh::tanh_slice(&mut h);
        let out = view.outputs(&h);
        let mut target = out;
        target[action] = value;
        let n = O as f64;
        let loss = out
            .iter()
            .zip(&target)
            .map(|(o, t)| (o - t).powi(2))
            .sum::<f64>()
            / n;

        // A linear output layer: `d = delta * 1.0` is `delta`, exactly.
        let delta: [f64; O] = std::array::from_fn(|o| 2.0 * (out[o] - target[o]) / n);
        let mut back = [0.0; HIDDEN];
        for (d, row) in delta.iter().zip(view.w1) {
            for (dp, w) in back.iter_mut().zip(row) {
                *dp += d * w;
            }
        }
        let grad_w1: [[f64; HIDDEN]; O] = std::array::from_fn(|o| h.map(|hj| delta[o] * hj));
        let d_hidden: [f64; HIDDEN] = std::array::from_fn(|j| back[j] * (1.0 - h[j] * h[j]));
        let grad_w0: [[f64; I]; HIDDEN] = d_hidden.map(|d| x.map(|xi| d * xi));

        *self.t += 1;
        let update = Update::new(self.optimizer, *self.t);
        self.out.update(update, &grad_w1, &delta);
        self.hidden.update(update, &grad_w0, &d_hidden);
        Some(loss)
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
        let y = crate::tanh::tanh(0.5);
        assert!((Activation::Tanh.derivative_from_output(y) - (1.0 - y * y)).abs() < 1e-12);
        assert_eq!(Activation::Linear.derivative_from_output(123.0), 1.0);
    }
}
