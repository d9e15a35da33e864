//! Cross-strategy conformance suite.
//!
//! Every [`SearchStrategy`] backend — GA, random, Latin hypercube,
//! Bayesian optimization, hill climbing — must satisfy the same
//! contract the scheduler's determinism proof rests on:
//!
//! 1. same seed ⇒ same proposal stream, for every thread count;
//! 2. proposals always stay inside the active reduced subspace;
//! 3. observing NaN / ±∞ (penalty artifacts) never corrupts state —
//!    it is exactly equivalent to observing the sanitized `0.0`;
//! 4. `snapshot()` + `restore()` resumes the stream byte-identically.
//!
//! The suite drives each backend two ways: raw (direct
//! `propose`/`observe` calls) and through [`run_strategy`] with a real
//! evaluation engine, so both the trait contract and its integration
//! hold for all five backends symmetrically.

use std::cell::RefCell;
use std::rc::Rc;
use tunio_iosim::Simulator;
use tunio_params::{Configuration, ParamId, ParameterSpace};
use tunio_tuner::subset::FixedSubset;
use tunio_tuner::{
    run_strategy, AllParams, BoConfig, BoStrategy, EvalEngine, GaConfig, GaStrategy, HillClimb,
    LhsStrategy, NoObserver, NoStop, RandomStrategy, SearchStrategy,
};
use tunio_workloads::{hacc, Variant, Workload};

const BUDGET: usize = 24;
const BATCH: usize = 4;

type Factory = Box<dyn Fn(u64) -> Box<dyn SearchStrategy>>;

/// Every backend under one constructor signature (seed in, boxed
/// strategy out) with the same 24-evaluation / 4-wide-window shape.
fn backends() -> Vec<(&'static str, Factory)> {
    let space = ParameterSpace::tunio_default;
    vec![
        (
            "ga",
            Box::new(move |seed| {
                Box::new(GaStrategy::new(
                    GaConfig {
                        population: BATCH,
                        max_iterations: (BUDGET / BATCH) as u32,
                        seed,
                        ..GaConfig::default()
                    },
                    space(),
                )) as Box<dyn SearchStrategy>
            }) as Factory,
        ),
        (
            "random",
            Box::new(move |seed| {
                Box::new(RandomStrategy::new(space(), BUDGET, seed)) as Box<dyn SearchStrategy>
            }),
        ),
        (
            "lhs",
            Box::new(move |seed| {
                Box::new(LhsStrategy::new(space(), BUDGET, BATCH, seed)) as Box<dyn SearchStrategy>
            }),
        ),
        (
            "bo",
            Box::new(move |seed| {
                Box::new(BoStrategy::new(
                    BoConfig::for_budget(BUDGET, BATCH, seed),
                    space(),
                )) as Box<dyn SearchStrategy>
            }),
        ),
        (
            "hill",
            Box::new(move |seed| {
                let steps = BUDGET.div_ceil(HillClimb::STEP) as u32;
                Box::new(HillClimb::new(space(), steps, seed)) as Box<dyn SearchStrategy>
            }),
        ),
    ]
}

fn engine(seed: u64) -> EvalEngine {
    EvalEngine::new(
        Simulator::cori_4node(seed),
        Workload::new(hacc(), Variant::Kernel),
        ParameterSpace::tunio_default(),
        3,
    )
}

/// A deterministic stand-in objective for raw-drive tests (no engine):
/// FNV-1a over the gene key, folded into a positive bandwidth-ish range.
fn fake_perf(config: &Configuration) -> f64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &g in config.genes() {
        h ^= g as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    1.0e8 + (h % 1_000_000) as f64
}

/// Decorator that records every proposal a strategy emits, so tests can
/// compare streams across runs without changing scheduler behaviour.
struct Recording {
    inner: Box<dyn SearchStrategy>,
    log: Rc<RefCell<Vec<Vec<usize>>>>,
}

impl SearchStrategy for Recording {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn set_subset(&mut self, subset: &[ParamId]) {
        self.inner.set_subset(subset);
    }
    fn propose(&mut self, max: usize) -> Vec<Configuration> {
        let out = self.inner.propose(max);
        let mut log = self.log.borrow_mut();
        for c in &out {
            log.push(c.genes().to_vec());
        }
        out
    }
    fn observe(&mut self, config: &Configuration, perf: f64, cost_s: f64) {
        self.inner.observe(config, perf, cost_s);
    }
    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
    fn rng_state(&self) -> [u64; 4] {
        self.inner.rng_state()
    }
    fn snapshot(&self) -> String {
        self.inner.snapshot()
    }
    fn restore(&mut self, snapshot: &str) -> Result<(), String> {
        self.inner.restore(snapshot)
    }
}

/// Conformance 1: the proposal stream is a pure function of the seed —
/// one worker thread or four, the recorded stream and the trace match.
#[test]
fn same_seed_yields_the_same_proposal_stream_across_thread_counts() {
    for (label, make) in backends() {
        let run = |threads: usize| {
            let log = Rc::new(RefCell::new(Vec::new()));
            let strategy = Box::new(Recording {
                inner: make(29),
                log: Rc::clone(&log),
            });
            let run = run_strategy(
                &engine(29),
                strategy,
                &mut NoStop,
                &mut AllParams,
                BATCH,
                threads,
                &mut NoObserver,
            );
            (Rc::try_unwrap(log).unwrap().into_inner(), run)
        };
        let (serial_stream, serial) = run(1);
        let (parallel_stream, parallel) = run(4);
        assert!(
            !serial_stream.is_empty(),
            "{label}: the strategy must propose something"
        );
        assert_eq!(
            serial_stream, parallel_stream,
            "{label}: proposal stream must not depend on thread count"
        );
        assert_eq!(
            serde_json::to_string(&serial.trace).unwrap(),
            serde_json::to_string(&parallel.trace).unwrap(),
            "{label}: trace must not depend on thread count"
        );
        assert_eq!(serial.stats, parallel.stats, "{label}: stats must match");
    }
}

/// Conformance 2: with a reduced active subset, every proposal keeps
/// non-subset genes at their incumbent (default) values and every gene
/// inside its parameter's cardinality.
#[test]
fn proposals_stay_inside_the_reduced_space() {
    let subset = vec![ParamId::StripingFactor, ParamId::CbNodes];
    for (label, make) in backends() {
        let space = ParameterSpace::tunio_default();
        let default = space.default_config();
        let log = Rc::new(RefCell::new(Vec::new()));
        let strategy = Box::new(Recording {
            inner: make(31),
            log: Rc::clone(&log),
        });
        let mut provider = FixedSubset {
            subset: subset.clone(),
        };
        run_strategy(
            &engine(31),
            strategy,
            &mut NoStop,
            &mut provider,
            BATCH,
            2,
            &mut NoObserver,
        );
        let stream = Rc::try_unwrap(log).unwrap().into_inner();
        assert!(!stream.is_empty(), "{label}: nothing proposed");
        for genes in &stream {
            assert_eq!(genes.len(), ParamId::ALL.len(), "{label}: genome shape");
            for (i, &g) in genes.iter().enumerate() {
                let p = ParamId::ALL[i];
                assert!(
                    g < space.cardinality(p),
                    "{label}: gene {g} out of bounds for {} (cardinality {})",
                    p.name(),
                    space.cardinality(p)
                );
                if !subset.contains(&p) {
                    assert_eq!(
                        g,
                        default.gene(p),
                        "{label}: proposal mutated {} outside the active subset",
                        p.name()
                    );
                }
            }
        }
    }
}

/// Conformance 3: a NaN / +∞ / -∞ observation is exactly equivalent to
/// observing the sanitized 0.0 — same subsequent proposals, same
/// snapshot bytes, and the poisoned value never leaks into the
/// serialized state.
#[test]
fn non_finite_observations_never_corrupt_state() {
    for (label, make) in backends() {
        let mut poisoned = make(37);
        let mut clean = make(37);
        let poisons = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for round in 0..3 {
            let a = poisoned.propose(BATCH);
            let b = clean.propose(BATCH);
            assert_eq!(
                a.iter().map(|c| c.genes().to_vec()).collect::<Vec<_>>(),
                b.iter().map(|c| c.genes().to_vec()).collect::<Vec<_>>(),
                "{label}: streams diverged at round {round}"
            );
            for (i, config) in a.iter().enumerate() {
                // Poison one observation per round; the rest get the
                // deterministic objective in both strategies.
                let (p, c) = if i == 0 {
                    (poisons[round % poisons.len()], 0.0)
                } else {
                    (fake_perf(config), fake_perf(config))
                };
                poisoned.observe(config, p, 60.0);
                clean.observe(config, c, 60.0);
            }
        }
        let snap = poisoned.snapshot();
        assert_eq!(
            snap,
            clean.snapshot(),
            "{label}: snapshots diverged after sanitized observations"
        );
        assert!(
            !snap.contains("NaN") && !snap.to_lowercase().contains("inf"),
            "{label}: non-finite value leaked into the snapshot: {snap}"
        );
        // The stream keeps going identically after the poison.
        let a = poisoned.propose(BATCH);
        let b = clean.propose(BATCH);
        assert_eq!(
            a.iter().map(|c| c.genes().to_vec()).collect::<Vec<_>>(),
            b.iter().map(|c| c.genes().to_vec()).collect::<Vec<_>>(),
            "{label}: post-poison proposals diverged"
        );
    }
}

/// Conformance 4: snapshot mid-campaign, restore into a fresh instance,
/// and the continuation is byte-identical — proposals, rng state and
/// every subsequent snapshot.
#[test]
fn snapshot_restore_resumes_byte_identically() {
    for (label, make) in backends() {
        let mut original = make(41);
        // Advance two windows.
        for _ in 0..2 {
            for config in original.propose(BATCH) {
                original.observe(&config, fake_perf(&config), 60.0);
            }
        }
        let snap = original.snapshot();

        let mut restored = make(41);
        restored
            .restore(&snap)
            .unwrap_or_else(|e| panic!("{label}: restore failed: {e}"));
        assert_eq!(
            restored.snapshot(),
            snap,
            "{label}: restore → snapshot must round-trip"
        );
        assert_eq!(restored.rng_state(), original.rng_state(), "{label}");

        // Both continue to budget exhaustion, in lockstep.
        while !original.is_done() || !restored.is_done() {
            let a = original.propose(BATCH);
            let b = restored.propose(BATCH);
            assert_eq!(
                a.iter().map(|c| c.genes().to_vec()).collect::<Vec<_>>(),
                b.iter().map(|c| c.genes().to_vec()).collect::<Vec<_>>(),
                "{label}: continuation streams diverged"
            );
            if a.is_empty() {
                break;
            }
            for config in &a {
                original.observe(config, fake_perf(config), 60.0);
                restored.observe(config, fake_perf(config), 60.0);
            }
            assert_eq!(
                original.snapshot(),
                restored.snapshot(),
                "{label}: snapshots diverged mid-continuation"
            );
        }
        assert_eq!(original.is_done(), restored.is_done(), "{label}");
    }
}

/// Restore must reject garbage rather than half-apply it.
#[test]
fn restore_rejects_garbage_snapshots() {
    for (label, make) in backends() {
        let mut s = make(43);
        let before = s.snapshot();
        assert!(
            s.restore("not json at all").is_err(),
            "{label}: garbage must be rejected"
        );
        assert!(
            s.restore("{}").is_err(),
            "{label}: empty object must be rejected"
        );
        assert_eq!(
            s.snapshot(),
            before,
            "{label}: a failed restore must leave state untouched"
        );
    }
}
