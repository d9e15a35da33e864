//! End-to-end trace round-trip: run a real campaign with the JSON-lines
//! sink installed, then feed the file through the tunio-report summarizer
//! and check the reconstruction against the in-process `TuningTrace`.
//!
//! The sink is process-global, so the tests in this file take turns on
//! one lock.

use std::sync::Mutex;
use tunio::pipeline::{
    run_strategy_campaign_opts, CampaignOptions, CampaignOutcome, CampaignSpec, PipelineKind,
    StrategyKind,
};
use tunio_trace::report::{self, CampaignSummary};
use tunio_trace::sync::lock;
use tunio_workloads::{hacc, Variant};

static SINK: Mutex<()> = Mutex::new(());

/// Run one campaign with the JSON-lines sink installed and summarize the
/// file it wrote.
fn traced(
    name: &str,
    spec: &CampaignSpec,
    strategy: StrategyKind,
) -> (CampaignOutcome, CampaignSummary) {
    let _turn = lock(&SINK);
    let path = std::env::temp_dir().join(format!("tunio_trace_roundtrip_{name}.jsonl"));
    tunio_trace::install_jsonl_sink(&path).expect("open sink");
    let outcome = run_strategy_campaign_opts(spec, strategy, &CampaignOptions::default())
        .expect("fault-free campaign");
    tunio_trace::clear_sink();

    let text = std::fs::read_to_string(&path).expect("read trace");
    std::fs::remove_file(&path).ok();
    let records = report::parse_jsonl(&text).expect("parse trace");
    let mut summaries = report::summarize(&records);
    assert_eq!(summaries.len(), 1, "one campaign in the trace");
    (outcome, summaries.remove(0))
}

/// The reconstruction must match the in-process trace exactly: one
/// generation row per closed window.
fn assert_rows_match(s: &CampaignSummary, outcome: &CampaignOutcome) {
    assert_eq!(s.generations.len(), outcome.trace.iterations() as usize);
    assert_eq!(s.best_perf, Some(outcome.trace.best_perf));
    assert_eq!(s.default_perf, Some(outcome.trace.default_perf));
    assert_eq!(s.stopped_early, Some(outcome.trace.stopped_early));
    assert_eq!(s.app.as_deref(), Some("hacc"));
    for (row, rec) in s.generations.iter().zip(&outcome.trace.records) {
        assert_eq!(row.iteration, rec.iteration as u64);
        assert_eq!(row.best_perf, rec.best_perf);
        assert_eq!(row.generation_best_perf, rec.generation_best_perf);
        assert_eq!(row.cost_s, rec.cost_s);
        assert_eq!(row.cumulative_cost_s, rec.cumulative_cost_s);
        assert_eq!(row.subset_size, rec.subset_size as u64);
    }
    assert!(s.evaluations.unwrap() > 0);
    assert!(s.cache_hits.is_some());
    assert!(!s.layers.is_empty(), "per-window profile.layer events");
}

#[test]
fn campaign_jsonl_trace_round_trips_through_report() {
    let spec = CampaignSpec {
        app: hacc(),
        variant: Variant::Kernel,
        kind: PipelineKind::HsTunerHeuristic,
        max_iterations: 12,
        population: 6,
        seed: 7,
        large_scale: false,
    };
    let (outcome, s) = traced("ga", &spec, StrategyKind::Ga);
    assert_rows_match(&s, &outcome);
    assert_eq!(s.stopper_name.as_deref(), Some("heuristic-5pct-5iter"));
    assert_eq!(s.label.as_deref(), Some("HSTuner (Heuristic Stop)"));

    // Every generation got a heuristic stop verdict, and the cache
    // counters made it into the summary via the metric flush.
    assert_eq!(s.decisions.len(), s.generations.len());

    // The rendered report mentions the headline numbers.
    let rendered = report::render(&s);
    assert!(rendered.contains("stop reason"));
    assert!(rendered.contains("eval cache"));
    if outcome.trace.stopped_early {
        assert!(rendered.contains("heuristic-5pct-5iter"));
    }
}

#[test]
fn bo_campaign_trace_has_one_generation_row_per_window() {
    let spec = CampaignSpec {
        app: hacc(),
        variant: Variant::Kernel,
        kind: PipelineKind::HsTunerNoStop,
        max_iterations: 5,
        population: 4,
        seed: 3,
        large_scale: false,
    };
    let (outcome, s) = traced("bo", &spec, StrategyKind::Bo);
    assert_eq!(outcome.trace.iterations(), 5);
    assert_rows_match(&s, &outcome);
    assert_eq!(s.label.as_deref(), Some("HSTuner (No Stop)"));
}
