//! CI perf-regression gate over the smoke campaign's attribution profile.
//!
//! The smoke campaign (HACC kernel, TunIO pipeline, 20 generations,
//! seed 2024) is fully deterministic, so its per-layer profile is a
//! stable fingerprint of the simulator's cost model. The gate compares
//! the current profile against a blessed JSON baseline with a 15%
//! noise tolerance: any layer whose self time regresses past that fails
//! the build.
//!
//! When a change intentionally moves the cost model, re-bless with:
//!
//! ```text
//! TUNIO_BLESS=1 cargo test -p tunio-bench --test profile_gate
//! ```
//!
//! and commit the updated baseline together with the change.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use tunio::pipeline::{run_campaign, CampaignOutcome, CampaignSpec, PipelineKind};
use tunio_iosim::{compare_profiles, render_diff, Layer, Profile};
use tunio_trace::report;
use tunio_trace::sync::lock;
use tunio_workloads::{hacc, Variant};

/// Layer self-time regressions beyond this fraction fail the gate.
const TOLERANCE: f64 = 0.15;

fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/profile_smoke.json")
}

/// The tracer's sink is process-global: while one test has a sink
/// installed, a campaign running in another test thread would write its
/// records into it. Every test takes this lock around its campaigns.
static TRACER: Mutex<()> = Mutex::new(());

fn tracer_turn() -> MutexGuard<'static, ()> {
    lock(&TRACER)
}

/// Run the smoke campaign while holding the tracer lock.
fn smoke_campaign() -> CampaignOutcome {
    let _turn = tracer_turn();
    run_campaign(&smoke_spec()).expect("fault-free campaign")
}

/// The CI smoke campaign (same spec as the `trace_campaign` binary).
fn smoke_spec() -> CampaignSpec {
    CampaignSpec {
        app: hacc(),
        variant: Variant::Kernel,
        kind: PipelineKind::TunIo,
        max_iterations: 20,
        population: 6,
        seed: 2024,
        large_scale: false,
    }
}

#[test]
fn smoke_profile_passes_regression_gate() {
    let outcome = smoke_campaign();
    let profile = &outcome.profile;

    // Acceptance: the attribution partition must reconstruct the
    // campaign's charged simulated time to well within 1%.
    let total = profile.total_time_s();
    assert!(total > 0.0, "smoke campaign must charge simulated time");
    let parts =
        profile.io_time_s() + profile.get(Layer::Compute).self_s + profile.get(Layer::Mds).self_s;
    assert!(
        (parts - total).abs() <= 0.01 * total,
        "layer self times must sum to the total: {parts} vs {total}"
    );

    let path = baseline_path();
    if std::env::var_os("TUNIO_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create golden dir");
        std::fs::write(&path, profile.to_json()).expect("write profile baseline");
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing profile baseline {} ({e}); generate it with \
             TUNIO_BLESS=1 cargo test -p tunio-bench --test profile_gate",
            path.display()
        )
    });
    let baseline = Profile::from_json(&text).expect("baseline parses");
    let deltas = compare_profiles(&baseline, profile, TOLERANCE);
    let regressed: Vec<_> = deltas.iter().filter(|d| d.regressed).collect();
    assert!(
        regressed.is_empty(),
        "layer-time regression beyond {:.0}%:\n{}\nif intentional, re-bless with \
         TUNIO_BLESS=1 cargo test -p tunio-bench --test profile_gate",
        TOLERANCE * 100.0,
        render_diff(&deltas)
    );
}

#[test]
fn gate_flags_injected_two_x_slowdown() {
    // Acceptance criterion: a synthetic 2× slowdown of a single layer
    // must trip the gate. Inject it by re-charging one layer's own self
    // time on top of itself.
    let outcome = smoke_campaign();
    let baseline = &outcome.profile;
    let mut slowed = baseline.clone();
    let lustre = baseline.get(Layer::LustreData);
    assert!(lustre.self_s > 0.0, "smoke campaign exercises Lustre");
    slowed.add(Layer::LustreData, lustre.self_s, 0.0, 0.0);

    let deltas = compare_profiles(baseline, &slowed, TOLERANCE);
    let regressed: Vec<_> = deltas.iter().filter(|d| d.regressed).collect();
    assert_eq!(
        regressed.len(),
        1,
        "exactly the slowed layer regresses:\n{}",
        render_diff(&deltas)
    );
    assert_eq!(regressed[0].layer, Layer::LustreData);
    assert!((regressed[0].pct_change() - 100.0).abs() < 1e-6);

    // And the unperturbed profile passes its own gate.
    let clean = compare_profiles(baseline, baseline, TOLERANCE);
    assert!(clean.iter().all(|d| !d.regressed));
}

#[test]
fn trace_carries_layer_events_and_report_renders_attribution() {
    // The trace-side view of the tentpole: `profile.layer` events per
    // generation, folded by tunio-report into a table and tree. Memory
    // sink installation is process-global, so the sink stays installed
    // only while this test holds the tracer lock.
    let turn = tracer_turn();
    let sink = tunio_trace::install_memory_sink();
    let outcome: CampaignOutcome = run_campaign(&smoke_spec()).expect("fault-free campaign");
    tunio_trace::clear_sink();
    drop(turn);
    let records = sink.take();

    let layer_events: Vec<_> = records
        .iter()
        .filter(|r| r.name == "profile.layer")
        .collect();
    assert!(
        !layer_events.is_empty(),
        "campaign must emit profile.layer events when tracing is on"
    );

    let summaries = report::summarize(&records);
    assert_eq!(summaries.len(), 1);
    let s = &summaries[0];
    assert!(!s.layers.is_empty(), "summary folds layer events");

    // Event deltas cover everything the engine charged after the
    // baseline snapshot (the default evaluation), so the trace-derived
    // total is positive and bounded by the engine's profile.
    let event_total: f64 = s.layers.iter().map(|t| t.self_s).sum();
    let engine_total = outcome.profile.total_time_s();
    assert!(event_total > 0.0);
    assert!(
        event_total <= engine_total * (1.0 + 1e-9),
        "trace total {event_total} cannot exceed engine total {engine_total}"
    );

    let text = report::render(s);
    assert!(text.contains("layer attribution (self time)"), "{text}");
    for layer in ["hdf5", "mpiio", "lustre.data", "lustre.rpc", "mds"] {
        assert!(
            text.contains(layer),
            "report missing layer {layer}:\n{text}"
        );
    }
}
