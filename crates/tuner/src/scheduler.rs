//! Deterministic asynchronous evaluation scheduler.
//!
//! The GA's generation barrier idles evaluator slots: the last slow
//! simulation of a generation holds every other slot hostage. This
//! scheduler removes the barrier for strategies that can propose ahead
//! (random/LHS/BO) while staying **bitwise deterministic** across
//! thread counts — the property every checkpoint, golden test and
//! divergence check in this workspace is built on.
//!
//! How determinism survives asynchrony:
//!
//! * **Eager proposal generation at commit boundaries only.** Proposal
//!   `k` is generated exactly when the commit counter reaches
//!   `k - window` (window = 2× the evaluator batch width). Between
//!   commits the window is full, so no strategy call can happen at a
//!   timing-dependent moment: the proposal stream is a pure function of
//!   the commit count.
//! * **Out-of-order completions are buffered, observations commit in
//!   proposal order.** A completion for proposal 9 arriving before 7's
//!   waits in a seq-keyed scoreboard; `observe` runs strictly in seq
//!   order, so the strategy sees one canonical history no matter how
//!   the wall clock interleaved the simulations.
//! * **Duplicate keys never race.** A proposal whose gene key is
//!   already in flight becomes an *alias* of the primary: it is never
//!   dispatched, and it commits with the primary's perf at zero cost —
//!   exactly the accounting `EvalEngine::evaluate_batch` gives in-batch
//!   duplicates. Keys that already completed are served from a settled
//!   table, so a campaign never re-simulates (and never re-randomizes)
//!   a key it has an answer for.
//!
//! Every `batch` commits close one [`IterationRecord`] window, which is
//! where stoppers, subset providers and checkpoint observers attach —
//! the async stream reuses the whole existing campaign toolchain. With
//! tracing on, each closed window also emits one `search.window` span
//! (the record plus fault/retry deltas) and one `profile.layer` event
//! per I/O-stack layer charged during the window, for every backend.
//!
//! The [`SchedulerStats::barrier_stalls`] counter is the utilization
//! proof: it increments whenever capacity was available but the
//! strategy had nothing to propose while work was in flight. The GA
//! accrues roughly one per commit (its generation barrier); the
//! asynchronous backends stay at zero.

use crate::engine::{EvalEngine, ResilienceCounters};
use crate::ga::{CampaignObserver, GenerationSnapshot, IterationRecord, TuningTrace};
use crate::racing::{RaceOutcome, RacingConfig};
use crate::stoppers::Stopper;
use crate::strategy::SearchStrategy;
use crate::subset::SubsetProvider;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex, PoisonError};
use tunio_iosim::Profile;
use tunio_params::{Configuration, ParamId, ParameterSpace};
use tunio_trace as trace;

/// Scheduler throughput/behaviour counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchedulerStats {
    /// Proposals generated by the strategy.
    pub proposed: u64,
    /// Observations committed back to the strategy.
    pub committed: u64,
    /// Proposals served as aliases of an identical in-flight or settled
    /// key (never dispatched, zero cost).
    pub aliases: u64,
    /// Commits after which the strategy had nothing to propose while
    /// proposal-window capacity was free and work was in flight — the
    /// generation-barrier idle counter, and a pure function of the
    /// commit history (so it replays exactly across thread counts and
    /// resumes). Zero for fully asynchronous strategies.
    pub barrier_stalls: u64,
    /// Times the driver found no job and nothing in flight before the
    /// budget was done (a liveness-contract violation; always 0).
    pub starvations: u64,
    /// Evaluations that panicked inside a worker and were converted
    /// into penalty completions instead of killing the campaign. Always
    /// 0 for a healthy engine, so resume-equality checks still hold.
    pub worker_panics: u64,
}

/// One dispatchable evaluation.
#[derive(Debug, Clone)]
pub struct Job {
    /// Proposal sequence number (commit order).
    pub seq: u64,
    /// The configuration to evaluate.
    pub config: Configuration,
    /// Causal trace context captured at proposal time; worker threads
    /// install it before evaluating so eval spans parent under the
    /// campaign span no matter which thread runs them.
    pub ctx: Option<trace::SpanContext>,
}

/// Racing settle hook: `(config, incumbent) -> outcome`. `None` means
/// the key was never raced (cache hit, replay, penalty) and the
/// worker-reported values are already final.
pub type RacerFn<'a> = dyn Fn(&Configuration, f64) -> Option<RaceOutcome> + 'a;

/// Campaign hooks threaded through commit processing.
pub struct Hooks<'a> {
    /// Termination check, consulted once per closed window.
    pub stopper: &'a mut dyn Stopper,
    /// Active-subset provider, consulted once per closed window.
    pub subsets: &'a mut dyn SubsetProvider,
    /// Checkpoint/telemetry observer, called once per closed window.
    pub observer: &'a mut dyn CampaignObserver,
    /// Racing settle hook, called once per primary commit. When set,
    /// worker completions are provisional: the settled-table insert and
    /// alias resolution move from completion time to the commit
    /// frontier, where the incumbent is deterministic.
    pub racer: Option<&'a RacerFn<'a>>,
}

/// The pure scheduling state machine (no threads — drive it with
/// [`Scheduler::next_job`] / [`Scheduler::complete`], or let
/// [`run_strategy`] do it).
pub struct Scheduler {
    strategy: Box<dyn SearchStrategy>,
    space: ParameterSpace,
    batch: usize,
    window: usize,
    next_seq: u64,
    committed: u64,
    queue: VecDeque<Job>,
    /// Dispatched-or-queued primaries: gene key → seq.
    live: HashMap<Vec<usize>, u64>,
    /// Aliases waiting on a primary completion: primary seq → (seq, config).
    waiters: HashMap<u64, Vec<(u64, Configuration)>>,
    /// Keys with a known outcome; repeat proposals are served from here
    /// so a key's perf is decided exactly once per campaign.
    settled: HashMap<Vec<usize>, f64>,
    /// Completed-but-uncommitted outcomes: seq → (config, perf, cost).
    pending: BTreeMap<u64, (Configuration, f64, f64)>,
    outstanding: usize,
    subset: Vec<ParamId>,
    win_cost: f64,
    win_best: f64,
    win_pop: Vec<Configuration>,
    win_charged: Vec<Vec<usize>>,
    win_count: usize,
    records: Vec<IterationRecord>,
    cumulative: f64,
    best_perf: f64,
    best_config: Configuration,
    default_perf: f64,
    stopping: bool,
    stopped_early: bool,
    stats: SchedulerStats,
}

impl Scheduler {
    /// Build a scheduler over a strategy. `batch` is the evaluator
    /// width: one trace record per `batch` commits, and proposals run
    /// up to `2 * batch` ahead of the commit frontier.
    pub fn new(
        strategy: Box<dyn SearchStrategy>,
        space: ParameterSpace,
        batch: usize,
        default_perf: f64,
    ) -> Self {
        let batch = batch.max(1);
        let best_config = space.default_config();
        Scheduler {
            strategy,
            space,
            batch,
            window: 2 * batch,
            next_seq: 0,
            committed: 0,
            queue: VecDeque::new(),
            live: HashMap::new(),
            waiters: HashMap::new(),
            settled: HashMap::new(),
            pending: BTreeMap::new(),
            outstanding: 0,
            subset: ParamId::ALL.to_vec(),
            win_cost: 0.0,
            win_best: f64::NEG_INFINITY,
            win_pop: Vec::new(),
            win_charged: Vec::new(),
            win_count: 0,
            records: Vec::new(),
            cumulative: 0.0,
            best_perf: default_perf,
            best_config,
            default_perf,
            stopping: false,
            stopped_early: false,
            stats: SchedulerStats::default(),
        }
    }

    /// Attribute the incumbent-default evaluation's cache entry to the
    /// first window. The driver evaluates the default before any job
    /// dispatches, so its entry is never a commit of its own; charging it
    /// here puts it in the first checkpoint line, where a resumed or warm
    /// rerun finds it instead of re-simulating. Call before
    /// [`Scheduler::prime`], and only if that evaluation charged the
    /// simulator.
    fn charge_default(&mut self) {
        self.win_charged
            .push(self.space.default_config().genes().to_vec());
    }

    /// Ask the subset provider for the first subset and generate the
    /// initial proposal window. Call once before the dispatch loop.
    pub fn prime(&mut self, hooks: &mut Hooks<'_>) {
        let subset = nonempty(hooks.subsets.next_subset(1, self.best_perf, &self.space));
        self.subset = subset;
        self.strategy.set_subset(&self.subset);
        self.pump(hooks);
    }

    /// Pop the next dispatchable job, if any.
    pub fn next_job(&mut self) -> Option<Job> {
        let job = self.queue.pop_front()?;
        self.outstanding += 1;
        Some(job)
    }

    /// Report a completed evaluation for a dispatched job.
    pub fn complete(
        &mut self,
        seq: u64,
        config: Configuration,
        perf: f64,
        cost_s: f64,
        hooks: &mut Hooks<'_>,
    ) {
        self.outstanding = self
            .outstanding
            .checked_sub(1)
            .expect("completion without a dispatched job");
        if self.stopping {
            // Late completion of a slot that was in flight when the
            // stopper fired: discard deterministically (it was never
            // going to commit — the stream ended at the stop window).
            return;
        }
        if hooks.racer.is_some() {
            // Racing: the worker's value is provisional until the commit
            // frontier settles it against the deterministic incumbent.
            // Keep the key live (so duplicates keep aliasing instead of
            // re-dispatching) and defer the settled-table insert and
            // alias resolution to [`Scheduler::settle_raced`].
            self.pending.insert(seq, (config, perf, cost_s));
            self.pump(hooks);
            return;
        }
        let key = config.genes().to_vec();
        if self.live.get(&key) == Some(&seq) {
            self.live.remove(&key);
        }
        self.settled.entry(key).or_insert(perf);
        if let Some(aliases) = self.waiters.remove(&seq) {
            for (alias_seq, alias_config) in aliases {
                self.pending.insert(alias_seq, (alias_config, perf, 0.0));
            }
        }
        self.pending.insert(seq, (config, perf, cost_s));
        self.pump(hooks);
    }

    /// Whether the campaign is over (budget finished or stopper fired,
    /// and every in-flight evaluation has drained).
    pub fn finished(&self) -> bool {
        if self.outstanding > 0 {
            return false;
        }
        if self.stopping {
            return true;
        }
        self.strategy.is_done()
            && self.queue.is_empty()
            && self.pending.is_empty()
            && self.committed == self.next_seq
    }

    /// Dispatched-but-unfinished evaluation count.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Undispatched job count.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Commits so far.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Counters.
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// Record a driver starvation (no job, nothing in flight, budget
    /// unexhausted). The property suite asserts this stays zero.
    pub fn note_starvation(&mut self) {
        self.stats.starvations += 1;
    }

    /// Record worker panics that were isolated and completed with the
    /// engine's penalty value.
    pub fn note_worker_panics(&mut self, n: u64) {
        self.stats.worker_panics += n;
    }

    /// Finish the campaign and build the trace.
    pub fn into_trace(self, stopper_name: &str) -> TuningTrace {
        TuningTrace {
            records: self.records,
            best_config: self.best_config,
            best_perf: self.best_perf,
            default_perf: self.default_perf,
            stopped_early: self.stopped_early,
            stopper_name: stopper_name.to_string(),
        }
    }

    /// Run commit/refill to a fixpoint. Commits advance only here, and
    /// refills only happen when the commit frontier moved — so strategy
    /// calls happen at commit-indexed points, never timing-dependent
    /// ones.
    fn pump(&mut self, hooks: &mut Hooks<'_>) {
        loop {
            let commits_before = self.committed;
            let proposals_before = self.next_seq;
            self.commit_ready(hooks);
            if !self.stopping {
                self.fill(false);
            }
            if self.committed == commits_before && self.next_seq == proposals_before {
                break;
            }
        }
        // Budget exhausted with a partially-filled window: close it so
        // the tail commits still land in a record.
        if self.win_count > 0
            && !self.stopping
            && self.strategy.is_done()
            && self.pending.is_empty()
            && self.committed == self.next_seq
        {
            self.close_window(hooks, true);
        }
    }

    /// Commit buffered outcomes in proposal order.
    fn commit_ready(&mut self, hooks: &mut Hooks<'_>) {
        while !self.stopping {
            let Some((config, perf, cost_s)) = self.pending.remove(&self.committed) else {
                break;
            };
            let seq = self.committed;
            let (perf, cost_s, samples) = match hooks.racer {
                Some(racer) => self.settle_raced(seq, &config, perf, cost_s, racer),
                None => (perf, cost_s, None),
            };
            self.strategy.observe(&config, perf, cost_s);
            if trace::enabled() {
                let mut fields = vec![
                    ("strategy", self.strategy.name().into()),
                    ("seq", seq.into()),
                    ("perf", perf.into()),
                    ("cost_s", cost_s.into()),
                ];
                if let Some(n) = samples {
                    fields.push(("samples", n.into()));
                }
                trace::event("strategy.observe", fields);
            }
            self.committed += 1;
            self.stats.committed += 1;
            self.win_cost += cost_s;
            if cost_s > 0.0 {
                // This commit charged the simulator, so the engine journal
                // holds a cache entry for its key. Recording the charged
                // keys per window (in commit order) lets the checkpoint
                // observer attribute journal entries to windows
                // deterministically — under threads the journal itself
                // drains in wall-clock completion order.
                self.win_charged.push(config.genes().to_vec());
            }
            self.win_best = self.win_best.max(perf);
            if perf > self.best_perf {
                self.best_perf = perf;
                self.best_config = config.clone();
            }
            self.win_pop.push(config);
            self.win_count += 1;
            if self.win_count == self.batch {
                let done_now = self.strategy.is_done()
                    && self.pending.is_empty()
                    && self.committed == self.next_seq;
                self.close_window(hooks, done_now);
            }
            // Refill immediately after each commit (not once per drained
            // batch): the stall decision "strategy had nothing after
            // commit k" is then made exactly once per commit, in commit
            // order, so `barrier_stalls` replays bitwise no matter how
            // completions interleaved on the wall clock.
            if !self.stopping {
                self.fill(true);
            }
        }
    }

    /// Settle one raced commit at the frontier. For a primary (its key
    /// still live under this seq) the racer may top up samples against
    /// the current incumbent — `best_perf` after the committed prefix,
    /// a pure function of commit history — and returns the settled
    /// aggregate; the settled-table insert and alias resolution that
    /// non-racing mode performs at completion time happen here instead.
    /// Aliases pass through unchanged (their primary already settled).
    fn settle_raced(
        &mut self,
        seq: u64,
        config: &Configuration,
        perf: f64,
        cost_s: f64,
        racer: &RacerFn<'_>,
    ) -> (f64, f64, Option<u32>) {
        let key = config.genes().to_vec();
        if self.live.get(&key) != Some(&seq) {
            return (perf, cost_s, None);
        }
        let (perf, cost_s, samples) = match racer(config, self.best_perf) {
            Some(outcome) => (outcome.perf, outcome.cost_s, Some(outcome.samples)),
            None => (perf, cost_s, None),
        };
        self.live.remove(&key);
        self.settled.entry(key).or_insert(perf);
        if let Some(aliases) = self.waiters.remove(&seq) {
            for (alias_seq, alias_config) in aliases {
                self.pending.insert(alias_seq, (alias_config, perf, 0.0));
            }
        }
        (perf, cost_s, samples)
    }

    /// Close one record window: record, feedback, stopper, observer,
    /// next subset.
    fn close_window(&mut self, hooks: &mut Hooks<'_>, done_now: bool) {
        let iteration = self.records.len() as u32 + 1;
        self.cumulative += self.win_cost;
        self.records.push(IterationRecord {
            iteration,
            best_perf: self.best_perf,
            generation_best_perf: self.win_best,
            cost_s: self.win_cost,
            cumulative_cost_s: self.cumulative,
            subset_size: self.subset.len(),
        });
        hooks.subsets.feedback(&self.subset, self.best_perf);
        let stop = hooks.stopper.should_stop(iteration, self.best_perf);
        if stop && !done_now {
            self.stopping = true;
            self.stopped_early = true;
            // Queued jobs never dispatch; in-flight ones drain unobserved.
            self.queue.clear();
            self.pending.clear();
            self.live.clear();
            self.waiters.clear();
        }
        hooks.observer.on_generation(&GenerationSnapshot {
            iteration,
            record: self.records.last().expect("record pushed above"),
            population: &self.win_pop,
            rng_state: self.strategy.rng_state(),
            best_perf: self.best_perf,
            best_config: &self.best_config,
            stopped: stop || done_now,
            strategy_state: self.strategy.snapshot(),
            charged: std::mem::take(&mut self.win_charged),
        });
        if !stop && !done_now {
            let next = nonempty(hooks.subsets.next_subset(
                iteration + 1,
                self.best_perf,
                &self.space,
            ));
            self.subset = next;
            self.strategy.set_subset(&self.subset);
        }
        self.win_cost = 0.0;
        self.win_best = f64::NEG_INFINITY;
        self.win_pop.clear();
        self.win_count = 0;
    }

    /// Generate proposals up to the window limit. `after_commit` marks
    /// the one post-commit refill that may record a barrier stall.
    fn fill(&mut self, after_commit: bool) {
        let mut may_stall = after_commit;
        while !self.stopping && !self.strategy.is_done() {
            let capacity =
                (self.committed + self.window as u64).saturating_sub(self.next_seq) as usize;
            if capacity == 0 {
                break;
            }
            // A span (not an event) so the timeline can charge proposal
            // time to its own exclusive segment.
            let mut propose_span = trace::enabled().then(|| {
                trace::span(
                    "strategy.propose",
                    vec![
                        ("strategy", self.strategy.name().into()),
                        ("seq_start", self.next_seq.into()),
                        ("committed", self.committed.into()),
                    ],
                )
            });
            let proposals = self.strategy.propose(capacity);
            if let Some(s) = propose_span.as_mut() {
                s.add_field("count", proposals.len().into());
            }
            drop(propose_span);
            if proposals.is_empty() {
                if may_stall && self.next_seq > self.committed {
                    self.stats.barrier_stalls += 1;
                }
                break;
            }
            may_stall = false;
            for config in proposals.into_iter().take(capacity) {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.stats.proposed += 1;
                let key = config.genes().to_vec();
                if let Some(&perf) = self.settled.get(&key) {
                    // Known outcome: commit it directly, zero cost.
                    self.stats.aliases += 1;
                    self.pending.insert(seq, (config, perf, 0.0));
                } else if let Some(&primary) = self.live.get(&key) {
                    // Same key already in flight: piggyback on it.
                    self.stats.aliases += 1;
                    self.waiters.entry(primary).or_default().push((seq, config));
                } else {
                    self.live.insert(key, seq);
                    self.queue.push_back(Job {
                        seq,
                        config,
                        ctx: trace::current(),
                    });
                }
            }
        }
    }
}

/// Where the previous window ended: the baseline the next `search.window`
/// row's wall time and engine deltas are measured from.
struct WindowProbe {
    start_us: u64,
    resilience: ResilienceCounters,
    profile: Profile,
}

impl WindowProbe {
    fn take(engine: &EvalEngine) -> Self {
        WindowProbe {
            start_us: trace::now_us(),
            resilience: engine.resilience(),
            profile: engine.profile_snapshot(),
        }
    }
}

/// Observer wrapper that writes each closed window's trace rows — the
/// `search.window` span (the window's record plus fault/retry deltas)
/// and one `profile.layer` event per layer charged since the previous
/// window — after passing the snapshot on. Installed only while
/// tracing, so untraced campaigns pay nothing.
struct WindowRows<'a> {
    inner: &'a mut dyn CampaignObserver,
    engine: &'a EvalEngine,
    strategy: &'static str,
    probe: WindowProbe,
}

impl CampaignObserver for WindowRows<'_> {
    fn on_generation(&mut self, snapshot: &GenerationSnapshot<'_>) {
        self.inner.on_generation(snapshot);
        let record = snapshot.record;
        let next = WindowProbe::take(self.engine);
        let (now, prev) = (&next.resilience, &self.probe.resilience);
        let fields = vec![
            ("iteration", record.iteration.into()),
            ("strategy", self.strategy.into()),
            ("best_perf", record.best_perf.into()),
            ("generation_best_perf", record.generation_best_perf.into()),
            ("cost_s", record.cost_s.into()),
            ("cumulative_cost_s", record.cumulative_cost_s.into()),
            ("subset_size", record.subset_size.into()),
            (
                "faults",
                (now.faults_injected - prev.faults_injected).into(),
            ),
            ("retries", (now.retries - prev.retries).into()),
            (
                "failures",
                (now.failed_evaluations - prev.failed_evaluations).into(),
            ),
            (
                "quarantined",
                (now.quarantined_keys - prev.quarantined_keys).into(),
            ),
        ];
        let parent = trace::current();
        let span_id = trace::alloc_span_id();
        trace::emit_span_at(
            "search.window",
            parent.map_or(span_id, |p| p.trace_id),
            span_id,
            parent.map(|p| p.span_id),
            self.probe.start_us,
            next.start_us,
            fields,
        );
        for (layer, stat) in next.profile.delta_since(&self.probe.profile).iter() {
            trace::event(
                "profile.layer",
                vec![
                    ("iteration", record.iteration.into()),
                    ("layer", layer.as_str().into()),
                    ("self_s", stat.self_s.into()),
                    ("cum_self_s", next.profile.get(layer).self_s.into()),
                    ("bytes", stat.bytes.into()),
                    ("ops", stat.ops.into()),
                ],
            );
        }
        self.probe = next;
    }
}

fn nonempty(subset: Vec<ParamId>) -> Vec<ParamId> {
    if subset.is_empty() {
        ParamId::ALL.to_vec()
    } else {
        subset
    }
}

/// Outcome of [`run_strategy`]: the standard trace plus scheduler
/// counters (the barrier-idle proof the benchmarks report).
pub struct StrategyRun {
    /// The per-window tuning trace (same shape as the GA's).
    pub trace: TuningTrace,
    /// Scheduler counters.
    pub stats: SchedulerStats,
}

/// Drive a [`SearchStrategy`] against an [`EvalEngine`] with `threads`
/// parallel evaluator slots.
///
/// The returned trace is bitwise identical for every `threads` value:
/// workers only decide *when* a completion arrives, never what commits
/// or in which order. `threads == 1` runs inline with no worker pool.
pub fn run_strategy(
    engine: &EvalEngine,
    strategy: Box<dyn SearchStrategy>,
    stopper: &mut dyn Stopper,
    subsets: &mut dyn SubsetProvider,
    batch: usize,
    threads: usize,
    observer: &mut dyn CampaignObserver,
) -> StrategyRun {
    run_strategy_opts(
        engine, strategy, stopper, subsets, batch, threads, observer, None,
    )
}

/// [`run_strategy`] with noise-robust racing evaluation.
///
/// With `racing` set, workers run only the warm samples (provisional,
/// uncharged); each primary commit settles its key at the frontier via
/// [`EvalEngine::race_settle`] — top-ups and early discards race
/// against an incumbent that is a pure function of the committed
/// history, so the trace stays bitwise identical across thread counts.
/// The default-configuration baseline is still measured with the
/// engine's fixed `repeats` averaging (the incumbent seed should not
/// itself be a 2-sample estimate).
#[allow(clippy::too_many_arguments)]
pub fn run_strategy_opts(
    engine: &EvalEngine,
    strategy: Box<dyn SearchStrategy>,
    stopper: &mut dyn Stopper,
    subsets: &mut dyn SubsetProvider,
    batch: usize,
    threads: usize,
    observer: &mut dyn CampaignObserver,
    racing: Option<RacingConfig>,
) -> StrategyRun {
    let strategy_name = strategy.name();
    let span = trace::span(
        "strategy.campaign",
        vec![("strategy", strategy_name.into()), ("batch", batch.into())],
    );
    let space = engine.space.clone();
    // The incumbent baseline, charged before any slot spins up.
    let default = engine.evaluate(&space.default_config());
    let mut scheduler = Scheduler::new(strategy, space, batch, default.perf);
    if default.cost_s > 0.0 {
        scheduler.charge_default();
    }
    let stopper_name = stopper.name().to_string();
    let settle = racing.map(|rc| {
        move |config: &Configuration, incumbent: f64| engine.race_settle(config, incumbent, &rc)
    });
    let mut rows;
    let observer: &mut dyn CampaignObserver = if trace::enabled() {
        rows = WindowRows {
            inner: observer,
            engine,
            strategy: strategy_name,
            probe: WindowProbe::take(engine),
        };
        &mut rows
    } else {
        observer
    };
    let mut hooks = Hooks {
        stopper,
        subsets,
        observer,
        racer: settle.as_ref().map(|f| f as &RacerFn<'_>),
    };
    scheduler.prime(&mut hooks);

    if threads <= 1 {
        while !scheduler.finished() {
            let Some(job) = scheduler.next_job() else {
                scheduler.note_starvation();
                break;
            };
            let (config, perf, cost_s) = evaluate_isolated(engine, racing, &job.config, || {
                scheduler.note_worker_panics(1)
            });
            scheduler.complete(job.seq, config, perf, cost_s, &mut hooks);
        }
    } else {
        run_threaded(engine, racing, &mut scheduler, &mut hooks, threads);
    }

    let stats = scheduler.stats();
    let mut span = span;
    span.add_field("proposed", stats.proposed.into());
    span.add_field("committed", stats.committed.into());
    span.add_field("aliases", stats.aliases.into());
    span.add_field("barrier_stalls", stats.barrier_stalls.into());
    drop(span);
    trace::counter("tunio.strategy.proposed").inc(stats.proposed);
    trace::counter("tunio.strategy.barrier_stalls").inc(stats.barrier_stalls);
    trace::counter("tunio.strategy.aliases").inc(stats.aliases);

    StrategyRun {
        trace: scheduler.into_trace(&stopper_name),
        stats,
    }
}

/// Evaluate one configuration with the panic boundary every worker
/// (threaded or inline) runs behind: a panicking evaluation becomes a
/// penalty completion — the same value [`crate::engine::EvalEngine`]'s
/// `PendingGuard` publishes to waiters on the engine side — instead of
/// unwinding the campaign. `on_panic` runs once per caught panic.
fn evaluate_isolated(
    engine: &EvalEngine,
    racing: Option<RacingConfig>,
    config: &Configuration,
    on_panic: impl FnOnce(),
) -> (Configuration, f64, f64) {
    match catch_unwind(AssertUnwindSafe(|| match racing {
        Some(rc) => engine.race_warm(config, &rc),
        None => engine.evaluate(config),
    })) {
        Ok(eval) => (eval.config, eval.perf, eval.cost_s),
        Err(payload) => {
            on_panic();
            trace::counter("tunio.scheduler.worker_panics").inc(1);
            trace::event(
                "scheduler.worker_panic",
                vec![
                    ("key", format!("{:?}", config.genes()).into()),
                    (
                        "message",
                        panic_message(payload.as_ref()).to_string().into(),
                    ),
                ],
            );
            (config.clone(), engine.policy.penalty_perf, 0.0)
        }
    }
}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Shared job board between the coordinator and the worker pool.
///
/// Locking recovers from poisoning instead of `.expect`ing: the queue
/// of `Job`s is valid after any unwind (pushes and pops are single
/// statements), and a panicking worker must never take its siblings
/// down with it.
struct JobBoard {
    jobs: Mutex<VecDeque<Job>>,
    available: Condvar,
    done: AtomicBool,
    /// Panics caught by workers, folded into the scheduler stats after
    /// the pool joins.
    panics: AtomicU64,
}

impl JobBoard {
    fn push(&self, job: Job) {
        self.jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(job);
        self.available.notify_one();
    }

    /// Close the board and wake every worker. `done` is stored under
    /// the jobs mutex: a worker checks `done` and starts waiting while
    /// holding that mutex, so a store made outside it could land between
    /// the check and the wait, and the wake-up would be lost.
    fn close(&self) {
        let _jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        self.done.store(true, Ordering::SeqCst);
        self.available.notify_all();
    }

    /// Blocking pop; `None` means the board is closed.
    fn pop(&self) -> Option<Job> {
        let mut jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if self.done.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(job) = jobs.pop_front() {
                return Some(job);
            }
            jobs = self
                .available
                .wait(jobs)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Coordinator/worker driver. The coordinator owns the scheduler and
/// all campaign hooks (none of which are `Send`); workers only touch
/// the engine (`&EvalEngine` is `Sync`) and a completion channel.
fn run_threaded(
    engine: &EvalEngine,
    racing: Option<RacingConfig>,
    scheduler: &mut Scheduler,
    hooks: &mut Hooks<'_>,
    threads: usize,
) {
    let board = JobBoard {
        jobs: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        done: AtomicBool::new(false),
        panics: AtomicU64::new(0),
    };
    let (tx, rx) = mpsc::channel::<(u64, Configuration, f64, f64)>();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let board = &board;
            scope.spawn(move || {
                while let Some(job) = board.pop() {
                    // Re-establish the campaign's causal context on this
                    // worker thread for the duration of the evaluation.
                    let _ctx = trace::with_context(job.ctx);
                    let (config, perf, cost_s) =
                        evaluate_isolated(engine, racing, &job.config, || {
                            board.panics.fetch_add(1, Ordering::SeqCst);
                        });
                    if tx.send((job.seq, config, perf, cost_s)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);

        while let Some(job) = scheduler.next_job() {
            board.push(job);
        }
        while !scheduler.finished() {
            if scheduler.outstanding() == 0 {
                // Liveness contract broken: nothing in flight, nothing
                // to dispatch, budget unexhausted. Bail instead of
                // blocking forever; the property suite asserts this
                // never fires.
                scheduler.note_starvation();
                break;
            }
            let Ok((seq, config, perf, cost_s)) = rx.recv() else {
                scheduler.note_starvation();
                break;
            };
            scheduler.complete(seq, config, perf, cost_s, hooks);
            while let Some(job) = scheduler.next_job() {
                board.push(job);
            }
        }
        board.close();
    });
    scheduler.note_worker_panics(board.panics.load(Ordering::SeqCst));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ga::{GaConfig, NoObserver};
    use crate::stoppers::{HeuristicStop, NoStop};
    use crate::strategy::{GaStrategy, LhsStrategy, RandomStrategy};
    use crate::subset::AllParams;
    use tunio_iosim::Simulator;
    use tunio_workloads::{hacc, Variant, Workload};

    fn engine(seed: u64) -> EvalEngine {
        EvalEngine::new(
            Simulator::cori_4node(seed),
            Workload::new(hacc(), Variant::Kernel),
            ParameterSpace::tunio_default(),
            3,
        )
    }

    fn ga_cfg(seed: u64, iters: u32, pop: usize) -> GaConfig {
        GaConfig {
            population: pop,
            max_iterations: iters,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn thread_count_does_not_change_the_trace() {
        type Maker = Box<dyn Fn() -> Box<dyn SearchStrategy>>;
        let makers: Vec<(&str, Maker)> = vec![
            (
                "random",
                Box::new(|| {
                    Box::new(RandomStrategy::new(ParameterSpace::tunio_default(), 24, 5)) as _
                }),
            ),
            (
                "lhs",
                Box::new(|| {
                    Box::new(LhsStrategy::new(ParameterSpace::tunio_default(), 24, 4, 5)) as _
                }),
            ),
        ];
        for (label, make) in &makers {
            let run = |threads: usize| {
                run_strategy(
                    &engine(7),
                    make(),
                    &mut NoStop,
                    &mut AllParams,
                    4,
                    threads,
                    &mut NoObserver,
                )
            };
            let serial = run(1);
            let parallel = run(4);
            assert_eq!(
                serde_json::to_string(&serial.trace).unwrap(),
                serde_json::to_string(&parallel.trace).unwrap(),
                "{label}: trace must not depend on thread count"
            );
            assert_eq!(serial.stats, parallel.stats, "{label}: stats must match");
        }
    }

    #[test]
    fn async_strategies_never_stall_while_ga_does() {
        let ga = run_strategy(
            &engine(3),
            Box::new(GaStrategy::new(
                ga_cfg(3, 4, 6),
                ParameterSpace::tunio_default(),
            )),
            &mut NoStop,
            &mut AllParams,
            6,
            1,
            &mut NoObserver,
        );
        let rs = run_strategy(
            &engine(3),
            Box::new(RandomStrategy::new(ParameterSpace::tunio_default(), 24, 3)),
            &mut NoStop,
            &mut AllParams,
            6,
            1,
            &mut NoObserver,
        );
        assert!(
            ga.stats.barrier_stalls > 0,
            "the GA must hit its generation barrier"
        );
        assert_eq!(
            rs.stats.barrier_stalls, 0,
            "random search must never barrier"
        );
        assert_eq!(rs.stats.starvations, 0);
        assert_eq!(ga.stats.starvations, 0);
    }

    #[test]
    fn stopper_attaches_to_async_strategies() {
        let run = run_strategy(
            &engine(9),
            Box::new(RandomStrategy::new(ParameterSpace::tunio_default(), 400, 9)),
            &mut HeuristicStop::paper_default(),
            &mut AllParams,
            8,
            2,
            &mut NoObserver,
        );
        assert!(run.trace.stopped_early, "heuristic stop must fire");
        assert!(run.trace.records.len() < 50);
        assert_eq!(run.stats.starvations, 0);
    }

    #[test]
    fn duplicate_proposals_alias_instead_of_dispatching() {
        // A 1-wide budgeted random search over a space re-proposing keys
        // must serve repeats from the settled table: committed count
        // equals the budget, but the engine only simulated unique keys.
        let eng = engine(13);
        let run = run_strategy(
            &eng,
            Box::new(RandomStrategy::new(ParameterSpace::tunio_default(), 64, 13)),
            &mut NoStop,
            &mut AllParams,
            8,
            3,
            &mut NoObserver,
        );
        assert_eq!(run.stats.committed, 64);
        // Evaluations = default + unique keys (aliases never dispatch).
        assert_eq!(
            eng.evaluations(),
            1 + run.stats.committed - run.stats.aliases
        );
    }

    /// ISSUE 8 regression: a panicking evaluation must not poison the
    /// job board and cascade into every other worker. The panic is
    /// caught at the worker boundary, the proposal completes with the
    /// engine's penalty value, and the rest of the campaign finishes
    /// normally.
    #[test]
    fn worker_panic_is_isolated_and_completes_with_penalty() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let eng = engine(19);
        let default_key = ParameterSpace::tunio_default()
            .default_config()
            .genes()
            .to_vec();
        let armed = Arc::new(AtomicBool::new(true));
        let armed_in_gate = Arc::clone(&armed);
        eng.install_sim_gate(Arc::new(move |key: &[usize]| {
            if key != default_key.as_slice() && armed_in_gate.swap(false, Ordering::SeqCst) {
                panic!("injected evaluation panic");
            }
        }));

        let run = run_strategy(
            &eng,
            Box::new(RandomStrategy::new(ParameterSpace::tunio_default(), 24, 19)),
            &mut NoStop,
            &mut AllParams,
            4,
            3,
            &mut NoObserver,
        );
        assert!(!armed.load(Ordering::SeqCst), "the panic gate must fire");
        assert_eq!(run.stats.worker_panics, 1);
        assert_eq!(run.stats.committed, 24, "every proposal still commits");
        assert_eq!(run.stats.starvations, 0);
        assert_eq!(run.trace.records.len(), 6, "all six windows close");
        // The penalty entry is visible in the accounting: one dispatched
        // job (the panicked one) never charged the simulator.
        assert_eq!(
            eng.evaluations(),
            1 + run.stats.committed - run.stats.aliases - 1
        );
        // The engine (and its job board) remain fully usable.
        let after = eng.evaluate(&ParameterSpace::tunio_default().default_config());
        assert!(after.perf > 0.0);

        // Inline (threads = 1) execution runs behind the same boundary.
        let eng = engine(19);
        let default_key = ParameterSpace::tunio_default()
            .default_config()
            .genes()
            .to_vec();
        let armed = Arc::new(AtomicBool::new(true));
        let armed_in_gate = Arc::clone(&armed);
        eng.install_sim_gate(Arc::new(move |key: &[usize]| {
            if key != default_key.as_slice() && armed_in_gate.swap(false, Ordering::SeqCst) {
                panic!("injected evaluation panic");
            }
        }));
        let run = run_strategy(
            &eng,
            Box::new(RandomStrategy::new(ParameterSpace::tunio_default(), 24, 19)),
            &mut NoStop,
            &mut AllParams,
            4,
            1,
            &mut NoObserver,
        );
        assert_eq!(run.stats.worker_panics, 1);
        assert_eq!(run.stats.committed, 24);
    }

    #[test]
    fn partial_final_window_is_recorded() {
        // Budget 10 with batch 4: windows of 4, 4, then a 2-commit tail.
        let run = run_strategy(
            &engine(17),
            Box::new(RandomStrategy::new(ParameterSpace::tunio_default(), 10, 17)),
            &mut NoStop,
            &mut AllParams,
            4,
            1,
            &mut NoObserver,
        );
        assert_eq!(run.trace.records.len(), 3);
        assert_eq!(run.stats.committed, 10);
    }

    use crate::racing::RacingConfig;
    use tunio_iosim::{InterferenceModel, NoiseProfile};

    /// An engine whose simulator sits on a pathologically contended
    /// machine — the workload racing is built for.
    fn stormy_engine(seed: u64) -> EvalEngine {
        EvalEngine::new(
            Simulator::cori_4node(seed)
                .with_interference(InterferenceModel::new(NoiseProfile::Storm, seed)),
            Workload::new(hacc(), Variant::Kernel),
            ParameterSpace::tunio_default(),
            3,
        )
    }

    #[test]
    fn racing_trace_is_identical_across_thread_counts() {
        // The determinism contract extends to racing: top-ups and
        // discards are decided at the commit frontier against a
        // commit-history incumbent, so worker timing cannot move them.
        let run = |threads: usize| {
            let eng = stormy_engine(7);
            let r = run_strategy_opts(
                &eng,
                Box::new(RandomStrategy::new(ParameterSpace::tunio_default(), 24, 5)),
                &mut NoStop,
                &mut AllParams,
                4,
                threads,
                &mut NoObserver,
                Some(RacingConfig::default()),
            );
            (r, eng.racing_counters(), eng.race_discard_log())
        };
        let (serial, serial_rc, serial_log) = run(1);
        let (parallel, parallel_rc, parallel_log) = run(4);
        assert_eq!(
            serde_json::to_string(&serial.trace).unwrap(),
            serde_json::to_string(&parallel.trace).unwrap(),
            "racing trace must not depend on thread count"
        );
        assert_eq!(serial.stats, parallel.stats);
        assert_eq!(serial_rc, parallel_rc, "racing counters must replay");
        assert_eq!(serial_log, parallel_log, "discard log must replay");
        assert!(serial_rc.settled > 0, "racing must actually settle keys");
    }

    #[test]
    fn racing_discards_clear_losers_early() {
        let eng = stormy_engine(21);
        let run = run_strategy_opts(
            &eng,
            Box::new(RandomStrategy::new(ParameterSpace::tunio_default(), 32, 21)),
            &mut NoStop,
            &mut AllParams,
            8,
            2,
            &mut NoObserver,
            Some(RacingConfig::default()),
        );
        let rc = eng.racing_counters();
        assert!(rc.discards > 0, "storm noise must produce clear losers");
        assert_eq!(rc.discards as usize, eng.race_discard_log().len());
        // Discarded keys still commit (with their aggregated mean), so
        // the strategy's budget accounting is unchanged.
        assert_eq!(run.stats.committed, 32);
        // Every sample is bounded by the cap; warm phase gives 2 each.
        let cfg = RacingConfig::default();
        assert!(rc.samples >= 2 * rc.settled);
        assert!(rc.samples <= cfg.max_samples as u64 * rc.settled);
        // A discarded config's mean genuinely lost to its incumbent by
        // more than the half-width — the rule, re-checked from the log.
        for d in eng.race_discard_log() {
            assert!(
                d.mean + d.half_width < d.incumbent,
                "discard rule violated: {d:?}"
            );
            assert!(d.samples >= 2);
        }
    }

    #[test]
    fn racing_preserves_alias_accounting() {
        // Duplicate proposals must keep aliasing under racing: committed
        // count equals the budget while the engine settles each unique
        // key exactly once (and charges exactly one evaluation for it).
        let eng = stormy_engine(13);
        let run = run_strategy_opts(
            &eng,
            Box::new(RandomStrategy::new(ParameterSpace::tunio_default(), 64, 13)),
            &mut NoStop,
            &mut AllParams,
            8,
            3,
            &mut NoObserver,
            Some(RacingConfig::default()),
        );
        assert_eq!(run.stats.committed, 64);
        assert_eq!(
            eng.evaluations(),
            1 + run.stats.committed - run.stats.aliases
        );
        assert_eq!(
            eng.racing_counters().settled,
            run.stats.committed - run.stats.aliases
        );
    }

    #[test]
    fn racing_observes_the_settled_aggregate_not_the_warm_mean() {
        // With max == min the race can never top up: the settled value
        // must equal the mean of exactly min_samples warm runs, and the
        // trace's best_perf must be one of those settled aggregates.
        let eng = stormy_engine(29);
        let cfg = RacingConfig {
            min_samples: 3,
            max_samples: 3,
            z: 2.0,
        };
        let run = run_strategy_opts(
            &eng,
            Box::new(RandomStrategy::new(ParameterSpace::tunio_default(), 16, 29)),
            &mut NoStop,
            &mut AllParams,
            4,
            1,
            &mut NoObserver,
            Some(cfg),
        );
        let rc = eng.racing_counters();
        assert_eq!(rc.topups, 0, "min == max leaves no top-up room");
        assert_eq!(rc.samples, 3 * rc.settled);
        assert!(run.trace.best_perf > 0.0);
    }
}
