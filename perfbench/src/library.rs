//! The three library workloads: campaigns run one at a time through the
//! public campaign entry points, `run_campaign` and
//! `run_strategy_campaign_opts`.

use crate::host::{self, HostSpeed, Reference};
use crate::layers::{self, LayerSample, Pretraining, ServeSamples};
use crate::quality::Quality;
use crate::report::{Metric, RunReport};
use crate::{derive_seed, peak_rss_mb, phase, setup_median, stats, Args, SETUPS};
use std::cell::RefCell;
use std::convert::Infallible;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};
use tunio::iosim::NoiseProfile;
use tunio::pipeline::{
    outcome_json, run_campaign, run_strategy_campaign_opts, CampaignOptions, CampaignOutcome,
    CampaignSpec, PipelineKind, StrategyKind,
};
use tunio::tuner::RacingConfig;
use tunio::workloads::{all_apps, AppSpec, Variant};
use tunio_trace::Record;

/// One library workload's campaign shape.
#[derive(Clone, Copy)]
pub struct Library {
    pub kind: PipelineKind,
    /// `None` runs `run_campaign` (the classic loop `tunio-tune` uses).
    pub strategy: Option<StrategyKind>,
    pub iterations: u32,
    pub population: usize,
    /// Storm interference plus the default racing policy.
    pub storm: bool,
    /// The host-speed reference that campaign timings are scaled by.
    pub reference: Reference,
}

/// The paper's pipeline as `tunio-tune` runs it by default.
pub const TUNE_PAPER: Library = Library {
    kind: PipelineKind::TunIo,
    strategy: None,
    iterations: 30,
    population: 8,
    storm: false,
    reference: Reference::Single,
};

/// BO on all twelve parameters with no pretraining.
pub const SEARCH_BO: Library = Library {
    kind: PipelineKind::HsTunerNoStop,
    strategy: Some(StrategyKind::Bo),
    iterations: 10,
    population: 8,
    storm: false,
    reference: Reference::Single,
};

/// GA under storm interference with racing evaluation.
pub const SEARCH_STORM: Library = Library {
    kind: PipelineKind::HsTunerNoStop,
    strategy: Some(StrategyKind::Ga),
    iterations: 30,
    population: 8,
    storm: true,
    reference: Reference::Threaded,
};

/// Evaluator threads for strategy campaigns (the host has two cores).
const THREADS: usize = 2;
/// Set-ups timed together as one sample of `setup_s`.
const SETUP_BATCH: usize = 200;
/// Host-speed samples taken before and again after the set-ups.
const SETUP_HOST_SAMPLES: usize = 3;
/// Timed campaigns every untraced run completes, whatever the clock says,
/// unless one has failed: enough for a median under the percentile rule.
const MIN_TIMED: usize = 20;
/// Traced pairs every traced run completes, unless a campaign has failed.
const MIN_TRACED: usize = 5;
/// Seed of the quality block: `tunio-tune`'s default.
const QUALITY_SEED: u64 = 0;
/// A campaign that has not returned after this long is reported as stuck.
/// The slowest campaign of any workload takes about a second.
const STUCK_AFTER: Duration = Duration::from_secs(10);

/// A campaign's wall time and outcome, or why it has none.
type CampaignResult = Result<(f64, CampaignOutcome), String>;
type Call = Box<dyn FnOnce() -> CampaignResult + Send>;

thread_local! {
    /// The thread campaigns run on; see [`Library::run`].
    static RUNNER: RefCell<Option<(Sender<Call>, Receiver<CampaignResult>)>> =
        const { RefCell::new(None) };
}

/// Run `call` on the campaign thread and wait at most [`STUCK_AFTER`] for
/// it. A call that does not return in time is left blocked on its thread,
/// and the next call gets a fresh one.
fn on_campaign_thread(call: Call) -> CampaignResult {
    RUNNER.with_borrow_mut(|runner| {
        let (calls, results) = runner.get_or_insert_with(|| {
            let (call_tx, call_rx) = mpsc::channel::<Call>();
            let (result_tx, result_rx) = mpsc::channel();
            std::thread::spawn(move || {
                for call in call_rx {
                    if result_tx.send(call()).is_err() {
                        break;
                    }
                }
            });
            (call_tx, result_rx)
        });
        let result = match calls.send(call) {
            Ok(()) => results.recv_timeout(STUCK_AFTER),
            Err(_) => Err(RecvTimeoutError::Disconnected),
        };
        result.unwrap_or_else(|e| {
            *runner = None;
            Err(match e {
                RecvTimeoutError::Timeout => format!(
                    "did not return within {} s; its threads are blocked",
                    STUCK_AFTER.as_secs()
                ),
                RecvTimeoutError::Disconnected => "panicked".to_string(),
            })
        })
    })
}

impl Library {
    fn spec(&self, app: AppSpec, seed: u64) -> CampaignSpec {
        CampaignSpec {
            app,
            variant: Variant::Kernel,
            kind: self.kind,
            max_iterations: self.iterations,
            population: self.population,
            seed,
            large_scale: false,
        }
    }

    fn options(&self, threads: usize, noise_seed: u64) -> CampaignOptions {
        CampaignOptions {
            threads: Some(threads),
            noise_profile: self.storm.then_some(NoiseProfile::Storm),
            noise_seed: self.storm.then_some(noise_seed),
            racing: self.storm.then(RacingConfig::default),
            ..CampaignOptions::default()
        }
    }

    fn pretrains(&self) -> bool {
        self.kind == PipelineKind::TunIo
    }

    /// Campaign `i` of a run: apps rotate, seeds are distinct.
    fn campaign(&self, apps: &[AppSpec], seed: u64, i: usize) -> (CampaignSpec, u64) {
        let spec = self.spec(apps[i % apps.len()].clone(), derive_seed(seed, 1, i as u64));
        (spec, derive_seed(seed, 2, i as u64))
    }

    /// One campaign, timed from call to return. It runs on a thread of its
    /// own, so that a campaign that never returns is reported as a failure
    /// instead of holding the run past its time limit.
    fn run(&self, spec: &CampaignSpec, noise_seed: u64, threads: usize) -> CampaignResult {
        let (this, spec) = (*self, spec.clone());
        on_campaign_thread(Box::new(move || {
            let started = Instant::now();
            let outcome = match this.strategy {
                None => run_campaign(&spec),
                Some(s) => run_strategy_campaign_opts(&spec, s, &this.options(threads, noise_seed)),
            }
            .map_err(|e| e.to_string())?;
            Ok((started.elapsed().as_secs_f64(), outcome))
        }))
    }

    /// Everything a caller does before its first campaign: build the
    /// inputs, the app specs with the campaign spec and options of each.
    fn setup(&self) -> Vec<AppSpec> {
        let apps = all_apps();
        for app in &apps {
            std::hint::black_box((self.spec(app.clone(), 0), self.options(THREADS, 0)));
        }
        apps
    }

    /// [`Library::setup`] [`SETUP_BATCH`] times over: one set-up takes
    /// about a microsecond, too short to time alone.
    fn setup_batch(&self) -> Vec<AppSpec> {
        for _ in 1..SETUP_BATCH {
            std::hint::black_box(self.setup());
        }
        self.setup()
    }

    pub fn execute(&self, args: &Args) -> RunReport {
        let mut report = RunReport::default();
        // Set-up is CPU work of about a microsecond, so it slows down with
        // the host as campaigns do: scale it by kernel samples taken just
        // before and just after it.
        phase("set-ups".into(), true);
        let mut around = HostSpeed::new();
        (0..SETUP_HOST_SAMPLES).for_each(|_| around.sample());
        let Ok((batch_s, apps)) =
            setup_median(SETUPS, |_| Ok::<_, Infallible>(self.setup_batch()), drop);
        (0..SETUP_HOST_SAMPLES).for_each(|_| around.sample());
        let setup_s = batch_s / SETUP_BATCH as f64 * around.scale();
        if args.trace {
            self.traced(args, &apps, &mut report);
        } else {
            self.timed(args, &apps, setup_s, &mut report);
        }
        if self.storm {
            self.check_thread_invariance(args.seed, &apps, &mut report);
        }
        report
    }

    /// The untraced run: campaigns back to back for `--seconds`, with the
    /// host-speed reference sampled between them.
    fn timed(&self, args: &Args, apps: &[AppSpec], setup_s: f64, report: &mut RunReport) {
        phase("timed window".into(), true);
        let window = Duration::from_secs(args.seconds);
        let started = Instant::now();
        let mut host = HostSpeed::of(self.reference);
        host.sample();
        // Each campaign's wall time with the host-speed sample it follows.
        let mut walls = Vec::new();
        let mut failures = Vec::new();
        let mut i = 0;
        while started.elapsed() < window || (i < MIN_TIMED && failures.is_empty()) {
            let (spec, noise_seed) = self.campaign(apps, args.seed, i);
            phase(describe("timed campaign", i, &spec, noise_seed), false);
            let k = host.samples();
            match self.run(&spec, noise_seed, THREADS) {
                Ok((wall, _)) => walls.push((wall, k)),
                Err(e) => failures.push(format!(
                    "{}: {e}",
                    describe("timed campaign", i, &spec, noise_seed)
                )),
            }
            i += 1;
            host.between();
        }
        host.sample();
        let run_s = (started.elapsed() - host.take_spent()).as_secs_f64();
        let scaled: Vec<(f64, f64)> = walls
            .into_iter()
            .map(|(wall, k)| (wall, host.campaign_scale(k)))
            .collect();
        let rate_scale = host::time_weighted(&scaled).unwrap_or(1.0);
        let raw: Vec<f64> = scaled.iter().map(|(wall, _)| *wall).collect();
        let walls: Vec<f64> = scaled.iter().map(|(wall, s)| wall * s).collect();
        let rss = peak_rss_mb();
        let quality = self.quality_block(apps, &mut failures);
        report.attempted = (i + apps.len()) as u64;
        report.failed = failures.len() as u64;
        report.check(
            "campaigns_complete",
            failures.is_empty(),
            if failures.is_empty() {
                format!(
                    "{i} timed campaigns and {} in the quality block",
                    apps.len()
                )
            } else {
                failures.join("; ")
            },
        );
        let (ok, detail) = quality.validate();
        report.check("outcomes_sane", ok, detail);
        report.metrics = vec![
            Metric::new("setup_s", "s", setup_s, SETUPS, "p50 of batch means").host_scaled(),
            Metric::timing("campaign_s_p50", "s", &walls, 0.5).host_scaled(),
            Metric::new(
                "campaigns_per_s",
                "1/s",
                walls.len() as f64 / run_s,
                walls.len(),
                "completed / run wall time",
            )
            .scaled(1.0 / rate_scale),
        ];
        report.metrics.extend(quality.metrics());
        report.metrics.push(Metric::new(
            "completed_frac",
            "ratio",
            walls.len() as f64 / i as f64,
            i,
            "completed / attempted",
        ));
        report
            .metrics
            .push(Metric::new("peak_rss_mb", "MB", rss, 1, "VmHWM"));
        report.host = Some(host);
        report.unscaled_campaign_s_p50 = stats::percentile(&raw, 0.5).map(|s| s.value);
        if self.storm {
            report
                .extra
                .push(Metric::timing("campaign_s_p90", "s", &walls, 0.9).host_scaled());
        }
    }

    /// The quality block, run after the timed window: one campaign per
    /// app at a fixed seed, so the quality metrics are identical on every
    /// run of the same code, whatever the workload seed.
    fn quality_block(&self, apps: &[AppSpec], failures: &mut Vec<String>) -> Quality {
        phase("quality block".into(), true);
        let mut quality = Quality::default();
        for (i, app) in apps.iter().enumerate() {
            let spec = self.spec(app.clone(), QUALITY_SEED);
            phase(describe("quality campaign", i, &spec, QUALITY_SEED), false);
            match self.run(&spec, QUALITY_SEED, THREADS) {
                Ok((_, outcome)) => quality.add(&outcome, self.population),
                Err(e) => failures.push(format!(
                    "{}: {e}",
                    describe("quality campaign", i, &spec, QUALITY_SEED)
                )),
            }
        }
        quality
    }

    /// A campaign with the in-memory trace sink installed, and the span
    /// records it emitted.
    fn run_traced(
        &self,
        spec: &CampaignSpec,
        noise_seed: u64,
    ) -> Result<(f64, CampaignOutcome, Vec<Record>), String> {
        let sink = tunio_trace::install_memory_sink();
        let result = self.run(spec, noise_seed, THREADS);
        tunio_trace::clear_sink();
        result.map(|(wall, outcome)| (wall, outcome, sink.take()))
    }

    /// The traced run: each campaign runs untraced and traced (alternating
    /// which goes first), then its pretraining calls are timed on their own.
    fn traced(&self, args: &Args, apps: &[AppSpec], report: &mut RunReport) {
        phase("traced window".into(), true);
        let window = Duration::from_secs(args.seconds);
        let started = Instant::now();
        let mut samples = Vec::new();
        let mut pretraining = Vec::new();
        let mut problems = Vec::new();
        let mut failed = 0;
        let mut i = 0;
        while started.elapsed() < window || (i < MIN_TRACED && failed == 0) {
            let (spec, noise_seed) = self.campaign(apps, args.seed, i);
            phase(describe("traced pair", i, &spec, noise_seed), false);
            let (plain, traced) = if i % 2 == 0 {
                let plain = self.run(&spec, noise_seed, THREADS);
                (plain, self.run_traced(&spec, noise_seed))
            } else {
                let traced = self.run_traced(&spec, noise_seed);
                (self.run(&spec, noise_seed, THREADS), traced)
            };
            i += 1;
            let ((plain_s, plain), (traced_s, traced, records)) = match (plain, traced) {
                (Ok(p), Ok(t)) => (p, t),
                (p, t) => {
                    for e in [p.err(), t.err()].into_iter().flatten() {
                        failed += 1;
                        problems.push(format!(
                            "{}: {e}",
                            describe("traced pair", i - 1, &spec, noise_seed)
                        ));
                    }
                    continue;
                }
            };
            if outcome_json(&plain) != outcome_json(&traced) {
                problems.push(format!(
                    "campaign {} ({}): traced outcome differs",
                    i - 1,
                    spec.app.name
                ));
            }
            let Some(timeline) = &traced.wall_breakdown else {
                problems.push(format!("campaign {}: traced run has no timeline", i - 1));
                continue;
            };
            let pre = self
                .pretrains()
                .then(|| Pretraining::measure(spec.max_iterations, spec.seed));
            pretraining.extend(pre);
            samples.push(LayerSample {
                pretrain_s: pre.map_or(0.0, |p| p.total_s()),
                wall_s: timeline.wall_us as f64 / 1e6,
                segments: layers::segments_of(timeline),
                wal_bytes: 0.0,
                evaluations: traced.counters.evaluations as f64,
                cache_hits: traced.counters.cache_hits as f64,
                sim_wall_s: traced.counters.sim_wall_s,
                surrogate_fits: layers::count_fits(&records) as f64,
                scheduler: traced
                    .scheduler
                    .map(|s| (s.proposed as f64, s.aliases as f64, s.barrier_stalls as f64)),
                racing: (
                    traced.racing.samples as f64,
                    traced.racing.settled as f64,
                    traced.racing.topups as f64,
                    traced.racing.discards as f64,
                ),
                overhead_frac: Some((traced_s - plain_s) / plain_s),
            });
        }
        report.attempted = 2 * i as u64;
        report.failed = failed;
        report.check(
            "traced_equals_untraced",
            problems.is_empty(),
            if problems.is_empty() {
                format!("{i} campaigns, each run traced and untraced")
            } else {
                problems.join("; ")
            },
        );
        report.metrics = layers::metrics(&samples, &pretraining, &ServeSamples::default());
    }

    /// Thread invariance: one storm campaign gives the same outcome on one
    /// evaluator thread as on two.
    fn check_thread_invariance(&self, seed: u64, apps: &[AppSpec], report: &mut RunReport) {
        let (spec, noise_seed) = self.campaign(apps, seed, 0);
        phase(describe("thread invariance", 0, &spec, noise_seed), true);
        let one = self.run(&spec, noise_seed, 1);
        let two = self.run(&spec, noise_seed, THREADS);
        let (ok, detail) = match (one, two) {
            (Ok((_, a)), Ok((_, b))) => {
                let same = outcome_json(&a) == outcome_json(&b);
                (
                    same,
                    format!("{} at 1 and {THREADS} threads", spec.app.name),
                )
            }
            (Err(e), _) | (_, Err(e)) => (
                false,
                format!("{}: {e}", describe("campaign", 0, &spec, noise_seed)),
            ),
        };
        report.check("thread_invariance", ok, detail);
    }
}

/// A campaign's place in the run and its inputs, for progress messages.
fn describe(what: &str, i: usize, spec: &CampaignSpec, noise_seed: u64) -> String {
    format!(
        "{what} {i}: {} seed {} noise seed {noise_seed}",
        spec.app.name, spec.seed
    )
}
