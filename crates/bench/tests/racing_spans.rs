//! Racing and fixed-repeat evaluation share one simulator span: every
//! simulation a traced storm racing campaign runs is an `eval.simulate`
//! span, so the timeline files racing's samples under `Simulation`.
//!
//! The memory sink is process-global, so this file holds exactly one
//! test.

use tunio::pipeline::{
    run_strategy_campaign_opts, CampaignOptions, CampaignSpec, PipelineKind, StrategyKind,
};
use tunio::tuner::RacingConfig;
use tunio_iosim::NoiseProfile;
use tunio_trace::timeline::{self, Segment};
use tunio_workloads::{hacc, Variant};

#[test]
fn every_racing_sample_is_an_eval_simulate_span() {
    let sink = tunio_trace::install_memory_sink();
    let spec = CampaignSpec {
        app: hacc(),
        variant: Variant::Kernel,
        kind: PipelineKind::HsTunerNoStop,
        max_iterations: 6,
        population: 8,
        seed: 5,
        large_scale: false,
    };
    let opts = CampaignOptions {
        threads: Some(2),
        noise_profile: Some(NoiseProfile::Storm),
        racing: Some(RacingConfig::default()),
        ..CampaignOptions::default()
    };
    let outcome =
        run_strategy_campaign_opts(&spec, StrategyKind::Ga, &opts).expect("fault-free campaign");
    tunio_trace::clear_sink();
    let records = sink.take();

    let count = |name: &str| {
        records
            .iter()
            .filter(|r| r.span_id.is_some() && r.name == name)
            .count() as u64
    };
    // Each fault-free fixed-repeat miss is one simulation and charges
    // one evaluation; each raced key charges one more when it settles.
    let racing = outcome.racing;
    assert!(racing.samples > 0, "the campaign must race: {racing:?}");
    let fixed = outcome.counters.evaluations - racing.settled;
    assert!(fixed >= 1, "the default baseline runs the fixed path");
    assert_eq!(count("eval.simulate"), racing.samples + fixed);
    assert_eq!(count("eval.sample"), 0);

    let timelines = timeline::from_records(&records);
    assert_eq!(timelines.len(), 1, "one trace, one timeline");
    assert!(
        timelines[0].segment_us(Segment::Simulation) > 0,
        "{:?}",
        timelines[0]
    );
}
