//! Property-based tests: network and PCA numerical invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tunio_nn::{Activation, Network, Optimizer, Pca};

proptest! {
    #[test]
    fn forward_outputs_are_finite(
        seed in any::<u64>(),
        input in proptest::collection::vec(-100.0f64..100.0, 5),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Network::new(
            &[5, 9, 3],
            &[Activation::Tanh, Activation::Linear],
            Optimizer::Adam { lr: 0.01 },
            &mut rng,
        );
        let out = net.forward(&input);
        prop_assert_eq!(out.len(), 3);
        prop_assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn sigmoid_outputs_stay_in_unit_interval(
        seed in any::<u64>(),
        input in proptest::collection::vec(-50.0f64..50.0, 4),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Network::new(
            &[4, 6, 2],
            &[Activation::Relu, Activation::Sigmoid],
            Optimizer::Sgd { lr: 0.01 },
            &mut rng,
        );
        for v in net.forward(&input) {
            prop_assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn train_step_returns_nonnegative_finite_loss(
        seed in any::<u64>(),
        x in proptest::collection::vec(-2.0f64..2.0, 3),
        y in proptest::collection::vec(-2.0f64..2.0, 2),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Network::new(
            &[3, 5, 2],
            &[Activation::Tanh, Activation::Linear],
            Optimizer::Adam { lr: 0.005 },
            &mut rng,
        );
        let loss = net.train_step(&x, &y);
        prop_assert!(loss.is_finite() && loss >= 0.0);
        // Repeated training on the same example drives loss down.
        let mut last = loss;
        for _ in 0..200 {
            last = net.train_step(&x, &y);
        }
        prop_assert!(last <= loss + 1e-9, "loss rose from {loss} to {last}");
    }

    #[test]
    fn pca_eigenvalues_are_sorted_and_explain_all_variance(
        rows in proptest::collection::vec(
            proptest::collection::vec(-5.0f64..5.0, 4),
            4..40,
        ),
    ) {
        let pca = Pca::fit(&rows);
        for pair in pca.eigenvalues.windows(2) {
            prop_assert!(pair[0] >= pair[1] - 1e-9, "eigenvalues unsorted");
        }
        let full = pca.explained_variance(4);
        prop_assert!((full - 1.0).abs() < 1e-6 || full == 0.0);
        // Projections are finite.
        let proj = pca.project(&rows[0], 4);
        prop_assert!(proj.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn pca_importance_is_normalized(
        rows in proptest::collection::vec(
            proptest::collection::vec(-5.0f64..5.0, 3),
            3..30,
        ),
    ) {
        let pca = Pca::fit(&rows);
        let imp = pca.feature_importance();
        prop_assert_eq!(imp.len(), 3);
        let max = imp.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!((max - 1.0).abs() < 1e-9);
        prop_assert!(imp.iter().all(|v| (0.0..=1.0 + 1e-9).contains(v)));
    }
}

/// The kernel as it stood before it moved to per-thread scratch buffers:
/// one allocating forward pass per layer, then a backward sweep that
/// updates each weight right after backpropagating through it. It works
/// on a mirror of the serialized network, so the library's kernel can be
/// checked against it bit for bit.
mod reference {
    use serde::{Deserialize, Serialize};
    use tunio_nn::{Activation, Optimizer};

    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct Dense {
        w: Vec<f64>,
        b: Vec<f64>,
        inputs: usize,
        outputs: usize,
        act: Activation,
        m_w: Vec<f64>,
        v_w: Vec<f64>,
        m_b: Vec<f64>,
        v_b: Vec<f64>,
    }

    /// Mirror of `tunio_nn::Network`'s serialized form.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    pub struct Network {
        layers: Vec<Dense>,
        optimizer: Optimizer,
        t: u64,
    }

    fn apply(act: Activation, x: f64) -> f64 {
        match act {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => tunio_nn::tanh::tanh(x),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Linear => x,
        }
    }

    fn derivative_from_output(act: Activation, y: f64) -> f64 {
        match act {
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

    impl Dense {
        fn forward(&self, x: &[f64]) -> Vec<f64> {
            (0..self.outputs)
                .map(|o| {
                    let mut acc = self.b[o];
                    let row = &self.w[o * self.inputs..(o + 1) * self.inputs];
                    for (wi, xi) in row.iter().zip(x) {
                        acc += wi * xi;
                    }
                    apply(self.act, acc)
                })
                .collect()
        }
    }

    const B1: f64 = 0.9;
    const B2: f64 = 0.999;
    const EPS: f64 = 1e-8;

    #[derive(Clone, Copy)]
    enum Update {
        Sgd { lr: f64 },
        Adam { lr: f64, bc1: f64, bc2: f64 },
    }

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

    impl Network {
        /// A copy of `net`'s weights and optimizer state.
        pub fn of(net: &tunio_nn::Network) -> Network {
            Network::from_value(&net.to_value()).expect("the mirror reads every network")
        }

        /// Every parameter and optimizer moment, as bits, plus the step.
        pub fn bits(&self) -> (Vec<u64>, u64) {
            let mut out = Vec::new();
            for l in &self.layers {
                for v in [&l.w, &l.b, &l.m_w, &l.v_w, &l.m_b, &l.v_b] {
                    out.extend(v.iter().map(|x| x.to_bits()));
                }
            }
            (out, self.t)
        }

        pub fn forward(&self, x: &[f64]) -> Vec<f64> {
            let mut a = x.to_vec();
            for layer in &self.layers {
                a = layer.forward(&a);
            }
            a
        }

        pub fn train_step(&mut self, x: &[f64], target: &[f64]) -> f64 {
            self.step(x, |out| out.copy_from_slice(target))
        }

        pub fn td_update(&mut self, x: &[f64], action: usize, value: f64) -> f64 {
            self.step(x, |out| out[action] = value)
        }

        pub fn fit(&mut self, xs: &[Vec<f64>], ys: &[Vec<f64>], epochs: usize) -> f64 {
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
                    let d = delta[o] * derivative_from_output(layer.act, out[o]);
                    let row = o * layer.inputs..(o + 1) * layer.inputs;
                    let (w, m_w, v_w) = (
                        &mut layer.w[row.clone()],
                        &mut layer.m_w[row.clone()],
                        &mut layer.v_w[row],
                    );
                    for i in 0..layer.inputs {
                        d_prev[i] += d * w[i];
                        update.apply(&mut w[i], &mut m_w[i], &mut v_w[i], d * input[i]);
                    }
                    update.apply(&mut layer.b[o], &mut layer.m_b[o], &mut layer.v_b[o], d);
                }
                delta = d_prev;
            }
            loss
        }
    }
}

const ACTIVATIONS: [Activation; 4] = [
    Activation::Relu,
    Activation::Tanh,
    Activation::Sigmoid,
    Activation::Linear,
];

fn params(net: &Network) -> (Vec<u64>, u64) {
    reference::Network::of(net).bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The kernel matches the reference bit for bit on every entry
    /// point, and `td_update` matches `train_step` toward a target equal
    /// to the output except at `action`.
    #[test]
    fn kernel_matches_the_reference_bit_for_bit(
        seed in any::<u64>(),
        hidden in 1usize..=3,
        acts in proptest::collection::vec(0usize..4, 4),
        adam in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sizes = vec![rng.gen_range(1..6usize)];
        for _ in 0..hidden {
            sizes.push(rng.gen_range(1..8usize));
        }
        sizes.push(rng.gen_range(1..4usize));
        let activations: Vec<Activation> =
            (0..=hidden).map(|l| ACTIVATIONS[acts[l]]).collect();
        let lr = rng.gen_range(0.001..0.05);
        let optimizer = if adam { Optimizer::Adam { lr } } else { Optimizer::Sgd { lr } };
        let mut net = Network::new(&sizes, &activations, optimizer, &mut rng);
        let mut reference = reference::Network::of(&net);
        let (n_in, n_out) = (sizes[0], sizes[sizes.len() - 1]);
        let mut draw = |n: usize| -> Vec<f64> { (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect() };

        for _ in 0..20 {
            let (x, y, next) = (draw(n_in), draw(n_out), draw(n_in));
            let action = (y[0].abs() * 10.0) as usize % n_out;

            let want = reference.forward(&next).into_iter().fold(f64::NEG_INFINITY, f64::max);
            prop_assert_eq!(net.max_output(&next).to_bits(), want.to_bits());
            let got: Vec<u64> = net.forward(&x).iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = reference.forward(&x).iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got, want);

            let loss = net.train_step(&x, &y);
            prop_assert_eq!(loss.to_bits(), reference.train_step(&x, &y).to_bits());
            prop_assert_eq!(params(&net), reference.bits());

            let mut via_train = net.clone();
            let mut target = via_train.forward(&next);
            target[action] = y[0];
            let loss = net.td_update(&next, action, y[0]);
            prop_assert_eq!(loss.to_bits(), via_train.train_step(&next, &target).to_bits());
            prop_assert_eq!(loss.to_bits(), reference.td_update(&next, action, y[0]).to_bits());
            prop_assert_eq!(params(&net), reference.bits());
            prop_assert_eq!(params(&net), params(&via_train));
        }

        let xs: Vec<Vec<f64>> = (0..5).map(|_| draw(n_in)).collect();
        let ys: Vec<Vec<f64>> = (0..5).map(|_| draw(n_out)).collect();
        let loss = net.fit(&xs, &ys, 4);
        prop_assert_eq!(loss.to_bits(), reference.fit(&xs, &ys, 4).to_bits());
        prop_assert_eq!(params(&net), reference.bits());
    }
}

/// Adam's β₁ bias correction rounds to exactly 1.0 from step 356 on;
/// the kernel must stay bit-identical to the reference across it.
#[test]
fn kernel_matches_the_reference_past_adams_bias_correction() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut net = Network::new(
        &[2, 3, 1],
        &[Activation::Tanh, Activation::Linear],
        Optimizer::Adam { lr: 0.01 },
        &mut rng,
    );
    let mut reference = reference::Network::of(&net);
    let checkpoints = [1, 355, 356, 357, 400];
    for t in 1..=400u64 {
        let x = [(t as f64 * 0.37).sin(), (t as f64 * 0.11).cos()];
        let y = [x[0] * 0.5 - x[1]];
        let loss = net.train_step(&x, &y);
        assert_eq!(
            loss.to_bits(),
            reference.train_step(&x, &y).to_bits(),
            "step {t}"
        );
        if checkpoints.contains(&t) {
            assert_eq!(params(&net), reference.bits(), "step {t}");
        }
    }
}

/// The reference's `max_output`: `forward` folded with `f64::max`.
fn reference_max(reference: &reference::Network, x: &[f64]) -> f64 {
    reference
        .forward(x)
        .into_iter()
        .fold(f64::NEG_INFINITY, f64::max)
}

/// A Tanh→Linear network of `[inputs, 24, outputs]`: the agents'
/// Q-network shape, which `td_update` and `max_output` run on the
/// fixed-shape kernel when `(inputs, outputs)` is (4, 2) or (6, 12).
fn q_network(inputs: usize, outputs: usize, optimizer: Optimizer, rng: &mut StdRng) -> Network {
    Network::new(
        &[inputs, 24, outputs],
        &[Activation::Tanh, Activation::Linear],
        optimizer,
        rng,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Both agent shapes, the stop agent's 4→24→2 and the subset
    /// picker's 6→24→12, match the reference bit for bit on every entry
    /// point, including a TD step toward a bootstrapped target, as
    /// `QAgent::learn_batch` takes it.
    #[test]
    fn agent_shapes_match_the_reference_bit_for_bit(
        seed in any::<u64>(),
        picker in any::<bool>(),
        adam in any::<bool>(),
    ) {
        let (n_in, n_out) = if picker { (6, 12) } else { (4, 2) };
        let mut rng = StdRng::seed_from_u64(seed);
        let lr = rng.gen_range(0.001..0.05);
        let optimizer = if adam { Optimizer::Adam { lr } } else { Optimizer::Sgd { lr } };
        let mut net = q_network(n_in, n_out, optimizer, &mut rng);
        prop_assert!(net.has_fixed_kernel());
        let mut reference = reference::Network::of(&net);
        let mut draw = |n: usize| -> Vec<f64> { (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect() };

        for _ in 0..30 {
            let (x, next, r) = (draw(n_in), draw(n_in), draw(3));
            let action = (r[0].abs() * 10.0) as usize % n_out;
            let (reward, gamma) = (r[1], r[2].abs() / 3.0);

            let loss = net.td_update(&x, action, reward);
            prop_assert_eq!(loss.to_bits(), reference.td_update(&x, action, reward).to_bits());
            prop_assert_eq!(params(&net), reference.bits());

            let max = net.max_output(&next);
            prop_assert_eq!(max.to_bits(), reference_max(&reference, &next).to_bits());
            let value = reward + gamma * max;
            let loss = net.td_update(&x, action, value);
            prop_assert_eq!(loss.to_bits(), reference.td_update(&x, action, value).to_bits());
            prop_assert_eq!(params(&net), reference.bits());

            let y = draw(n_out);
            let loss = net.train_step(&x, &y);
            prop_assert_eq!(loss.to_bits(), reference.train_step(&x, &y).to_bits());
            prop_assert_eq!(params(&net), reference.bits());
        }
    }

    /// Networks one detail away from an agent shape run the generic
    /// kernel: the fixed one would activate them with tanh and linear,
    /// and so miss the reference.
    #[test]
    fn near_miss_shapes_stay_on_the_generic_path(seed in any::<u64>(), which in 0usize..3) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (sizes, activations) = [
            ([4, 24, 2], [Activation::Relu, Activation::Linear]),
            ([4, 24, 2], [Activation::Tanh, Activation::Sigmoid]),
            ([6, 24, 12], [Activation::Sigmoid, Activation::Linear]),
        ][which];
        let mut net = Network::new(&sizes, &activations, Optimizer::Adam { lr: 0.01 }, &mut rng);
        prop_assert!(!net.has_fixed_kernel());
        let mut reference = reference::Network::of(&net);
        let mut draw = |n: usize| -> Vec<f64> { (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect() };
        for step in 0..10 {
            let (x, next) = (draw(sizes[0]), draw(sizes[0]));
            let action = step % sizes[2];
            let max = net.max_output(&next);
            prop_assert_eq!(max.to_bits(), reference_max(&reference, &next).to_bits());
            let loss = net.td_update(&x, action, 0.3 + 0.9 * max);
            prop_assert_eq!(loss.to_bits(), reference.td_update(&x, action, 0.3 + 0.9 * max).to_bits());
            let loss = net.td_update(&next, action, -0.2);
            prop_assert_eq!(loss.to_bits(), reference.td_update(&next, action, -0.2).to_bits());
            prop_assert_eq!(params(&net), reference.bits());
        }
    }
}

/// Adam's bias corrections round to exactly 1.0, β₁'s at step 356 and
/// β₂'s near step 37,413, and from there the kernel leaves their
/// divisions out. A stop-agent network trained through both matches the
/// reference bit for bit: loss at every step; weights, biases and both
/// moments around each threshold.
#[test]
fn agent_kernel_matches_the_reference_across_adams_regimes() {
    let first_one = |beta: f64| (1..).find(|&t| 1.0 - beta.powi(t) == 1.0).unwrap() as u64;
    let (t1, t2) = (first_one(0.9), first_one(0.999));
    assert_eq!(t1, 356);
    assert!((37_000..37_500).contains(&t2), "{t2}");
    let steps = 37_500;

    let mut rng = StdRng::seed_from_u64(11);
    let mut net = q_network(4, 2, Optimizer::Adam { lr: 0.01 }, &mut rng);
    let mut reference = reference::Network::of(&net);
    let checkpoints = [1, t1 - 1, t1, t1 + 1, t2 - 1, t2, t2 + 1, steps];
    for t in 1..=steps {
        let f = t as f64;
        let x = [(f * 0.37).sin(), (f * 0.11).cos(), (f * 0.05).sin(), 0.5];
        let next = [(f * 0.23).cos(), (f * 0.07).sin(), 0.25, (f * 0.13).cos()];
        let (action, reward) = ((t % 2) as usize, (f * 0.017).sin());
        let value = if t % 3 == 0 {
            reward
        } else {
            let max = net.max_output(&next);
            assert_eq!(max.to_bits(), reference_max(&reference, &next).to_bits());
            reward + 0.95 * max
        };
        let loss = net.td_update(&x, action, value);
        let want = reference.td_update(&x, action, value);
        assert_eq!(loss.to_bits(), want.to_bits(), "step {t}");
        if checkpoints.contains(&t) {
            assert_eq!(params(&net), reference.bits(), "step {t}");
        }
    }
}
