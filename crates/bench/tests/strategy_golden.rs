//! Golden-output gate for the asynchronous Bayesian-optimization
//! backend, plus cross-backend smoke invariants.
//!
//! The BO smoke campaign (HACC kernel, 8 generations × 4, seed 7) is
//! fully deterministic — the scheduler commits observations in proposal
//! order regardless of worker timing — so its `outcome_json` dump is a
//! stable fingerprint of the surrogate, the acquisition function and
//! the scheduler. Any drift (a refit reorder, an RNG change, a commit
//! off-by-one) shows up as a byte diff against the blessed baseline.
//!
//! When a change intentionally moves the BO stream, re-bless with:
//!
//! ```text
//! TUNIO_BLESS=1 cargo test -p tunio-bench --test strategy_golden
//! ```
//!
//! and commit the updated baseline together with the change.

use std::path::PathBuf;
use tunio::pipeline::{
    outcome_json, run_strategy_campaign_opts, CampaignOptions, CampaignSpec, PipelineKind,
    StrategyKind,
};
use tunio_workloads::{hacc, Variant};

fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/bo_smoke.json")
}

fn smoke_spec() -> CampaignSpec {
    CampaignSpec {
        app: hacc(),
        variant: Variant::Kernel,
        kind: PipelineKind::HsTunerNoStop,
        max_iterations: 8,
        population: 4,
        seed: 7,
        large_scale: false,
    }
}

fn run(strategy: StrategyKind, threads: usize) -> String {
    let opts = CampaignOptions {
        threads: Some(threads),
        ..CampaignOptions::default()
    };
    let outcome = run_strategy_campaign_opts(&smoke_spec(), strategy, &opts)
        .expect("smoke campaign has no checkpoint, so no failure path");
    let stats = outcome.scheduler.expect("strategy campaigns report stats");
    assert_eq!(
        stats.committed,
        32,
        "{}: exact 8x4 budget",
        strategy.label()
    );
    assert_eq!(stats.starvations, 0, "{}", strategy.label());
    if !matches!(strategy, StrategyKind::Ga) {
        assert_eq!(
            stats.barrier_stalls,
            0,
            "{}: asynchronous backends never stall",
            strategy.label()
        );
    }
    outcome_json(&outcome)
}

/// The BO smoke dump matches the blessed baseline byte-for-byte, at
/// one thread, two (perfbench's `search_bo` shape: one spawned fit
/// worker for the three-network ensemble) and three (one per network).
#[test]
fn bo_smoke_matches_golden_baseline() {
    let serial = run(StrategyKind::Bo, 1);
    for threads in [2, 3] {
        assert_eq!(
            serial,
            run(StrategyKind::Bo, threads),
            "BO outcome must not depend on thread count ({threads} vs 1)"
        );
    }

    let path = baseline_path();
    if std::env::var_os("TUNIO_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create golden dir");
        std::fs::write(&path, &serial).expect("write BO baseline");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing BO baseline {} ({e}); generate it with \
             TUNIO_BLESS=1 cargo test -p tunio-bench --test strategy_golden",
            path.display()
        )
    });
    assert_eq!(
        serial, golden,
        "BO campaign drifted from the blessed baseline; if intentional, \
         re-bless with TUNIO_BLESS=1 cargo test -p tunio-bench --test strategy_golden"
    );
}

/// Every backend completes the smoke budget deterministically across
/// thread counts (the golden file pins only BO; this pins the rest).
#[test]
fn every_backend_is_thread_invariant_on_the_smoke_campaign() {
    for strategy in StrategyKind::ALL {
        let serial = run(strategy, 1);
        let threaded = run(strategy, 3);
        assert_eq!(
            serial,
            threaded,
            "{}: outcome must not depend on thread count",
            strategy.label()
        );
    }
}
