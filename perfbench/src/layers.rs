//! Per-layer attribution of one traced campaign, and the per-layer
//! metrics computed from a run's samples.
//!
//! Three sources feed a sample: timed calls into the public pretraining
//! functions, the `CampaignOutcome` fields (`counters`, `scheduler`,
//! `racing`) or the daemon's status counters, and the campaign's wall-clock
//! timeline (`wall_breakdown`, or `GET /campaigns/{id}/timeline`). The
//! timeline files pretraining under `scheduler_stall`; pretraining is
//! taken from the timed calls instead and subtracted from that segment to
//! leave `unattributed_s`.

use crate::report::Metric;
use std::time::Instant;
use tunio::iosim::Simulator;
use tunio::params::ParameterSpace;
use tunio::smart_config::{offline_impact_analysis, SmartConfigAgent};
use tunio::EarlyStopAgent;
use tunio_trace::timeline::Segment;
use tunio_trace::{Record, Timeline};

/// Timeline segments, seconds, in [`Segment::ALL`] order.
pub type Segments = [f64; 7];

pub fn seg(s: &Segments, which: Segment) -> f64 {
    let i = Segment::ALL
        .iter()
        .position(|x| *x == which)
        .expect("every segment is in Segment::ALL");
    s[i]
}

/// Segment seconds of a library campaign's timeline.
pub fn segments_of(t: &Timeline) -> Segments {
    let mut s = [0.0; 7];
    for (i, which) in Segment::ALL.iter().enumerate() {
        s[i] = t.segment_us(*which) as f64 / 1e6;
    }
    s
}

/// Segment seconds from the JSON body of the daemon's timeline endpoint.
pub fn segments_from_json(v: &serde_json::Value) -> Option<(f64, Segments)> {
    let wall = v.get("wall_us")?.as_u64()? as f64 / 1e6;
    let mut s = [0.0; 7];
    let serde_json::Value::Array(entries) = v.get("segments")? else {
        return None;
    };
    for entry in entries {
        let name = entry.get("segment")?.as_str()?;
        let us = entry.get("us")?.as_u64()?;
        let i = Segment::ALL.iter().position(|x| x.name() == name)?;
        s[i] = us as f64 / 1e6;
    }
    Some((wall, s))
}

/// Timed pretraining calls made with a campaign's own arguments.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pretraining {
    pub early_stop_s: f64,
    pub episodes: f64,
    pub sweep_s: f64,
    pub picker_s: f64,
}

impl Pretraining {
    /// Time `EarlyStopAgent::pretrained`, `offline_impact_analysis` and
    /// `SmartConfigAgent::new` as the TunIO pipeline calls them.
    pub fn measure(max_iterations: u32, seed: u64) -> Pretraining {
        let t = Instant::now();
        let agent = std::hint::black_box(EarlyStopAgent::pretrained(max_iterations, seed));
        let early_stop_s = t.elapsed().as_secs_f64();
        let space = ParameterSpace::tunio_default();
        let cluster = Simulator::cori_4node(seed).cluster;
        let t = Instant::now();
        let analysis = std::hint::black_box(offline_impact_analysis(&space, seed));
        let sweep_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::hint::black_box(SmartConfigAgent::new(analysis, cluster, seed));
        let picker_s = t.elapsed().as_secs_f64();
        Pretraining {
            early_stop_s,
            episodes: agent.offline_episodes as f64,
            sweep_s,
            picker_s,
        }
    }

    pub fn total_s(&self) -> f64 {
        self.early_stop_s + self.sweep_s + self.picker_s
    }
}

/// Everything one traced campaign contributes to the per-layer metrics.
#[derive(Debug, Clone, Default)]
pub struct LayerSample {
    /// Timed pretraining calls with this campaign's arguments, in total
    /// (zero on pipelines that do not pretrain).
    pub pretrain_s: f64,
    /// Timeline wall time of the traced campaign.
    pub wall_s: f64,
    pub segments: Segments,
    pub wal_bytes: f64,
    pub evaluations: f64,
    pub cache_hits: f64,
    pub sim_wall_s: f64,
    pub surrogate_fits: f64,
    /// `(proposed, aliases, barrier_stalls)`; `None` on the classic loop.
    pub scheduler: Option<(f64, f64, f64)>,
    /// `(samples, settled, topups, discards)`.
    pub racing: (f64, f64, f64, f64),
    /// Tracing overhead as a share of the untraced campaign, measured as a
    /// traced/untraced pair. `None` for served campaigns: the daemon runs
    /// every campaign traced or every one untraced, so there is no pair.
    pub overhead_frac: Option<f64>,
}

/// Completed `surrogate.fit` spans among trace records.
pub fn count_fits(records: &[Record]) -> usize {
    records
        .iter()
        .filter(|r| r.name == "surrogate.fit" && r.dur_us.is_some())
        .count()
}

/// Measurements only the daemon has (serve only): client-timed HTTP
/// requests and the per-tenant warm cache.
#[derive(Debug, Clone, Default)]
pub struct ServeSamples {
    pub healthz_s: Vec<f64>,
    pub submit_s: Vec<f64>,
    pub poll_s: Vec<f64>,
    pub polls_per_campaign: Vec<f64>,
    /// Per campaign: whether its status counters show `sim_wall_s == 0`.
    pub fully_warm: Vec<bool>,
    /// Over repeat visits of a (tenant, app) pair: simulator seconds the
    /// pair's first, cold visit spent, and how much of that the warm cache
    /// spared the repeat.
    pub warm_cold_sim_s: f64,
    pub warm_spared_sim_s: f64,
}

/// The per-layer metrics, in the order `BENCHMARK.json` lists them.
/// `pre` holds the timed pretraining calls.
pub fn metrics(samples: &[LayerSample], pre: &[Pretraining], http: &ServeSamples) -> Vec<Metric> {
    let col = |f: &dyn Fn(&LayerSample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    let pcol = |f: &dyn Fn(&Pretraining) -> f64| pre.iter().map(f).collect::<Vec<f64>>();
    let sched: Vec<(f64, f64, f64)> = samples.iter().filter_map(|s| s.scheduler).collect();
    let scol = |f: &dyn Fn(&(f64, f64, f64)) -> f64| sched.iter().map(f).collect::<Vec<f64>>();
    let n = samples.len();
    let sum = |f: &dyn Fn(&LayerSample) -> f64| samples.iter().map(f).sum::<f64>();
    let evals = sum(&|s| s.evaluations);
    let (race_samples, race_settled) = (sum(&|s| s.racing.0), sum(&|s| s.racing.1));
    let warm = http.fully_warm.iter().filter(|w| **w).count() as f64;
    let served = !http.submit_s.is_empty();
    vec![
        Metric::timing(
            "core.early_stop.pretrain_s",
            "s",
            &pcol(&|p| p.early_stop_s),
            0.5,
        ),
        Metric::mean(
            "core.early_stop.offline_episodes",
            "count",
            &pcol(&|p| p.episodes),
        ),
        Metric::timing("core.smart_config.sweep_s", "s", &pcol(&|p| p.sweep_s), 0.5),
        Metric::timing(
            "core.smart_config.picker_warmup_s",
            "s",
            &pcol(&|p| p.picker_s),
            0.5,
        ),
        Metric::timing(
            "core.pipeline.search_s",
            "s",
            &col(&|s| s.wall_s - seg(&s.segments, Segment::QueueWait) - s.pretrain_s),
            0.5,
        ),
        Metric::timing(
            "core.checkpoint.wal_s",
            "s",
            &col(&|s| seg(&s.segments, Segment::Wal)),
            0.5,
        ),
        Metric::mean("core.checkpoint.wal_bytes", "bytes", &col(&|s| s.wal_bytes)),
        Metric::mean(
            "tuner.engine.evaluations",
            "count",
            &col(&|s| s.evaluations),
        ),
        Metric::ratio(
            "tuner.engine.cache_hit_ratio",
            "ratio",
            sum(&|s| s.cache_hits),
            sum(&|s| s.cache_hits + s.evaluations),
            n,
        ),
        Metric::timing(
            "tuner.bo.surrogate_s",
            "s",
            &col(&|s| seg(&s.segments, Segment::Surrogate)),
            0.5,
        ),
        Metric::mean(
            "tuner.bo.surrogate_fits",
            "count",
            &col(&|s| s.surrogate_fits),
        ),
        Metric::timing(
            "tuner.strategy.propose_s",
            "s",
            &col(&|s| seg(&s.segments, Segment::Propose)),
            0.5,
        ),
        Metric::mean("tuner.scheduler.proposed", "count", &scol(&|s| s.0)),
        Metric::mean("tuner.scheduler.aliases", "count", &scol(&|s| s.1)),
        Metric::mean("tuner.scheduler.barrier_stalls", "count", &scol(&|s| s.2)),
        Metric::timing(
            "tuner.scheduler.stall_s",
            "s",
            &col(&|s| seg(&s.segments, Segment::SchedulerStall)),
            0.5,
        ),
        Metric::mean("tuner.racing.samples", "count", &col(&|s| s.racing.0)),
        Metric::mean("tuner.racing.settled", "count", &col(&|s| s.racing.1)),
        Metric::mean("tuner.racing.topups", "count", &col(&|s| s.racing.2)),
        Metric::mean("tuner.racing.discards", "count", &col(&|s| s.racing.3)),
        Metric::ratio(
            "tuner.racing.samples_per_settled",
            "ratio",
            race_samples,
            race_settled,
            n,
        ),
        Metric::timing("iosim.sim_s", "s", &col(&|s| s.sim_wall_s), 0.5),
        Metric::ratio(
            "iosim.sim_us_per_eval",
            "us",
            sum(&|s| s.sim_wall_s) * 1e6,
            evals,
            n,
        ),
        Metric::timing("serve.http.request_s_p50", "s", &http.healthz_s, 0.5),
        Metric::timing("serve.submit_s_p50", "s", &http.submit_s, 0.5),
        Metric::timing("serve.events_poll_s_p50", "s", &http.poll_s, 0.5),
        Metric::mean(
            "serve.polls_per_campaign",
            "count",
            &http.polls_per_campaign,
        ),
        Metric::timing(
            "serve.queue_wait_s_p50",
            "s",
            &if served {
                col(&|s| seg(&s.segments, Segment::QueueWait))
            } else {
                Vec::new()
            },
            0.5,
        ),
        Metric::ratio(
            "serve.fully_warm_frac",
            "ratio",
            warm,
            http.fully_warm.len() as f64,
            http.fully_warm.len(),
        ),
        Metric::ratio(
            "serve.warm_hit_ratio",
            "ratio",
            http.warm_spared_sim_s,
            http.warm_cold_sim_s,
            http.fully_warm.len(),
        ),
        Metric::timing(
            "trace.overhead_frac",
            "ratio",
            &samples
                .iter()
                .filter_map(|s| s.overhead_frac)
                .collect::<Vec<f64>>(),
            0.5,
        ),
        Metric::timing(
            "trace.overhead_s",
            "s",
            &col(&|s| seg(&s.segments, Segment::TraceOverhead)),
            0.5,
        ),
        Metric::timing(
            "unattributed_s",
            "s",
            &col(&|s| seg(&s.segments, Segment::SchedulerStall) - s.pretrain_s),
            0.5,
        ),
    ]
}
