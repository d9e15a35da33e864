//! Deterministic-replay suite: the evaluation engine must produce
//! bitwise-identical tuning traces regardless of thread count, evaluation
//! order, or rerun — the property every golden-trace and figure
//! regression test in this crate relies on.
//!
//! Traces are compared through their serialized JSON, so "equal" here
//! means equal down to the last bit of every float.

use tunio::pipeline::{
    run_campaign, run_strategy_campaign_opts, CampaignOptions, CampaignSpec, PipelineKind,
    StrategyKind,
};
use tunio_workloads::{hacc, Variant};

fn hacc_spec(kind: PipelineKind, seed: u64) -> CampaignSpec {
    CampaignSpec {
        app: hacc(),
        variant: Variant::Kernel,
        kind,
        max_iterations: 8,
        population: 6,
        seed,
        large_scale: false,
    }
}

fn trace_json(spec: &CampaignSpec) -> String {
    serde_json::to_string(&run_campaign(spec).expect("fault-free campaign").trace)
        .expect("trace serializes")
}

#[test]
fn same_seed_reruns_are_bitwise_identical() {
    // The full TunIO pipeline: offline sweep + PCA, smart-config subset
    // picking, RL early stopping, GA tuning — twice, same seed.
    let spec = hacc_spec(PipelineKind::TunIo, 11);
    assert_eq!(
        trace_json(&spec),
        trace_json(&spec),
        "two runs of the full pipeline with one seed must match bitwise"
    );
}

#[test]
fn all_pipeline_kinds_replay_deterministically() {
    for kind in [
        PipelineKind::HsTunerNoStop,
        PipelineKind::HsTunerHeuristic,
        PipelineKind::ImpactFirstOnly,
        PipelineKind::RlStopOnly,
    ] {
        let spec = hacc_spec(kind, 17);
        assert_eq!(
            trace_json(&spec),
            trace_json(&spec),
            "pipeline {kind:?} must replay identically"
        );
    }
}

#[test]
fn thread_count_does_not_change_the_trace() {
    // The scheduler's evaluator slots are the one place evaluations run
    // in parallel, and `threads` is their one knob. A TunIO campaign
    // also runs the offline sweep and pretrains both agents, so every
    // stage before the search is covered too.
    let spec = hacc_spec(PipelineKind::TunIo, 13);
    let trace_at = |threads: usize| {
        let opts = CampaignOptions {
            threads: Some(threads),
            ..CampaignOptions::default()
        };
        let outcome = run_strategy_campaign_opts(&spec, StrategyKind::Ga, &opts)
            .expect("fault-free campaign");
        serde_json::to_string(&outcome.trace).expect("trace serializes")
    };
    let serial = trace_at(1);
    for threads in [2, 4] {
        assert_eq!(
            trace_at(threads),
            serial,
            "{threads}-thread and 1-thread traces must match bitwise"
        );
    }
}
