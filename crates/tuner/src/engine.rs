//! Parallel, deterministic configuration evaluation.
//!
//! [`EvalEngine`] replaces the original single-threaded `Evaluator`: it
//! evaluates whole batches of configurations concurrently (one rayon task
//! per cache-missing configuration) behind a sharded, lock-protected memo
//! cache, while producing results that are **bitwise identical** to a
//! serial evaluation in batch order, regardless of thread count or
//! completion order.
//!
//! Determinism rests on three properties:
//!
//! 1. **Pure simulation.** [`Simulator::run`] derives its noise stream
//!    from `(simulator seed, configuration fingerprint, run index)` — see
//!    `tunio_iosim::noise` — so a configuration's report is a pure
//!    function of `(sim, config, repeats)`. Nothing about scheduling can
//!    change it.
//! 2. **Ordered assembly.** [`EvalEngine::evaluate_batch`] returns results
//!    in input order (the shim rayon's indexed `collect` preserves order,
//!    as real rayon's does), and all counter/cost bookkeeping happens in
//!    that order after the parallel section.
//! 3. **Serial-equivalent cost accounting.** Within a batch, the *first*
//!    occurrence of an uncached gene key is charged one run's elapsed
//!    time; later duplicates and cache hits are free — exactly what a
//!    serial memoized loop over the same batch would charge.
//!
//! The pooled per-layer profile is kept per key and summed in key order
//! ([`EvalEngine::profile_snapshot`]), so it too is independent of which
//! evaluator slot finished first.
//!
//! The engine also keeps counters ([`EvalCounters`]) separating the
//! *simulated* tuning cost charged to the budget from the *real* wall
//! time spent inside the simulator, for the bench binaries.

use crate::racing::{Moments, RaceDiscard, RaceOutcome, RacingConfig, RacingCounters};
use parking_lot::Mutex;
use rayon::prelude::*;
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::Instant;
use tunio_iosim::{noise, FaultKind, InjectedFault, Layer, Profile, RunReport, Simulator};
use tunio_params::{Configuration, ParameterSpace};
use tunio_trace as trace;
use tunio_workloads::Workload;

/// Result of evaluating one configuration.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The evaluated configuration.
    pub config: Configuration,
    /// Averaged run report (over `repeats` runs).
    pub report: RunReport,
    /// The tuning objective `perf` in bytes/s.
    pub perf: f64,
    /// Time charged to the tuning budget for this evaluation, seconds.
    /// Zero for memoized repeats; otherwise one run's elapsed time (§IV:
    /// extra runs for averaging are "a necessary expense for a given
    /// platform" and not accumulated).
    pub cost_s: f64,
}

/// Engine counters: how much work was done and what it cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct EvalCounters {
    /// Simulator evaluations actually performed (cache misses).
    pub evaluations: u64,
    /// Memoized lookups served (including within-batch duplicates).
    pub cache_hits: u64,
    /// Simulated tuning time charged to the budget, seconds.
    pub charged_cost_s: f64,
    /// Real wall time spent inside the simulator, seconds. With more
    /// than one worker this is the *sum* across threads, so it can
    /// exceed elapsed time; compare against it to measure speedup.
    pub sim_wall_s: f64,
}

/// How failed evaluations are retried, quarantined and degraded.
///
/// A failed attempt (transient fault or corrupted report) is retried up
/// to [`FailurePolicy::max_retries`] times with fresh fault draws. An
/// evaluation that exhausts its retries yields the penalty value — a zero
/// report with [`FailurePolicy::penalty_perf`] — which can never beat the
/// default configuration, so the GA keeps making progress without ever
/// promoting a failed config to `best`. Failed evaluations are *not*
/// cached: a later generation re-encountering the key tries again, until
/// [`FailurePolicy::quarantine_after`] consecutive whole-evaluation
/// failures open the circuit breaker and the key is permanently served
/// the penalty without touching the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailurePolicy {
    /// Retries per evaluation after the first attempt (so `max_retries`
    /// = 2 means up to three simulation attempts).
    pub max_retries: u32,
    /// Base backoff between retries, milliseconds; doubles per retry.
    /// Zero (the default) skips sleeping — simulated stacks need no
    /// real-time courtesy, and tests stay fast.
    pub backoff_base_ms: u64,
    /// Consecutive failed evaluations before a key is quarantined.
    pub quarantine_after: u32,
    /// Objective value served for unrecoverable evaluations. Must be
    /// ≤ any real perf so a failed config never becomes `best`.
    pub penalty_perf: f64,
}

impl Default for FailurePolicy {
    fn default() -> Self {
        FailurePolicy {
            max_retries: 2,
            backoff_base_ms: 0,
            quarantine_after: 2,
            penalty_perf: 0.0,
        }
    }
}

/// Resilience counters: what the failure machinery actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct ResilienceCounters {
    /// Faults the simulator injected (all kinds, including non-fatal).
    pub faults_injected: u64,
    /// Attempts that failed and were retried.
    pub retries: u64,
    /// Whole evaluations that exhausted their retries.
    pub failed_evaluations: u64,
    /// Keys whose circuit breaker has opened.
    pub quarantined_keys: u64,
    /// Evaluations served the penalty value (failures + quarantine hits).
    pub penalties_served: u64,
}

/// One memo-cache entry, as exported to (and restored from) a campaign
/// checkpoint. `report`/`perf` reproduce the cached result; `profile`
/// lets a resumed campaign re-charge the evaluation's cost attribution
/// bitwise-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    /// The gene key.
    pub key: Vec<usize>,
    /// The averaged run report.
    pub report: RunReport,
    /// The tuning objective.
    pub perf: f64,
    /// Per-layer cost attribution of the charged evaluation.
    pub profile: Profile,
    /// Racing sample count that produced `perf` (0 for the fixed-repeat
    /// path — the WAL omits the racing moments entirely in that case).
    pub samples: u32,
    /// Welford M2 of the per-run objectives (with `samples` and `perf`
    /// as the mean, this restores the key's racing moments bitwise).
    pub m2: f64,
}

/// Per-key failure bookkeeping behind the retry/quarantine policy.
#[derive(Debug, Clone, Copy, Default)]
struct KeyFailState {
    /// Simulation attempts this key has consumed (fault draws are pure in
    /// the attempt index, so retries across generations see fresh draws).
    attempts_used: u32,
    /// Consecutive whole-evaluation failures; reset on success.
    consecutive_failures: u32,
    /// Circuit breaker state: once open, the key is never simulated again.
    quarantined: bool,
}

/// Per-key racing accumulator between the parallel warm phase and the
/// serial settle at the commit frontier. Only the one worker that
/// race-warmed the key and the committing coordinator ever touch it
/// (the scheduler never dispatches a key twice), so its contents are a
/// pure function of `(sim, config, sample indices)`.
#[derive(Debug, Default)]
struct RaceState {
    /// Valid per-run reports, in sample order.
    reports: Vec<RunReport>,
    /// Matching per-run profiles.
    profiles: Vec<Profile>,
    /// Welford moments of the per-run objectives.
    perfs: Moments,
    /// Sample indices consumed, including failed/insane runs (the next
    /// sample always runs at `run_idx = attempts`).
    attempts: u32,
}

impl RaceState {
    fn note(&mut self, sample: Option<(RunReport, Profile)>) {
        self.attempts += 1;
        if let Some((report, profile)) = sample {
            self.perfs.push(report.perf());
            self.reports.push(report);
            self.profiles.push(profile);
        }
    }
}

/// Why a simulation attempt produced no usable report.
enum AttemptError {
    /// A transient fault killed the run.
    Fault(InjectedFault),
    /// The run "completed" but its report failed the sanity gate
    /// (NaN/negative counters — a torn log).
    Corrupt,
}

/// Outcome of a full (retried) evaluation of one key.
enum SimOutcome {
    /// A usable report: `(report, profile, perf)`.
    Success(RunReport, Box<Profile>, f64),
    /// All attempts failed; the caller serves the penalty value.
    Failed,
}

/// Number of cache shards; keys are spread by gene-vector fingerprint.
const SHARDS: usize = 16;

/// Rendezvous point for concurrent evaluations of the same gene key:
/// the first caller simulates, everyone else blocks here — *without*
/// holding the shard lock — until the result is published.
#[derive(Debug, Default)]
struct InFlight {
    result: StdMutex<Option<(RunReport, f64)>>,
    ready: Condvar,
}

impl InFlight {
    fn wait(&self) -> (RunReport, f64) {
        let mut guard = self.result.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(v) = *guard {
                return v;
            }
            guard = self.ready.wait(guard).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn publish(&self, value: (RunReport, f64)) {
        *self.result.lock().unwrap_or_else(|p| p.into_inner()) = Some(value);
        self.ready.notify_all();
    }
}

/// One cache entry: a finished result, a marker that some thread is
/// currently simulating this key, or a checkpoint-restored result that
/// still owes its serial cost/profile charge.
#[derive(Debug)]
enum Slot {
    Ready(RunReport, f64),
    Pending(Arc<InFlight>),
    /// Preloaded from a checkpoint: served like a fresh simulation the
    /// first time the key is used (full miss bookkeeping, cost charged,
    /// profile absorbed), then converted to `Ready`. This is what makes a
    /// resumed campaign's costs and profile accumulator bitwise-identical
    /// to the uninterrupted run.
    Replay(Box<(RunReport, f64, Profile)>),
}

type Shard = Mutex<HashMap<Vec<usize>, Slot>>;

/// What [`EvalEngine::evaluate`] found when it claimed a key.
enum Claim {
    /// Cached result, served immediately.
    Hit(RunReport, f64),
    /// Another thread is simulating this key; wait on its guard.
    Join(Arc<InFlight>),
    /// This thread inserted the pending marker and must simulate.
    Claimed(Arc<InFlight>),
    /// Checkpoint-preloaded result, converted to `Ready` under the shard
    /// lock; the caller owes the miss bookkeeping.
    Replayed(Box<(RunReport, f64, Profile)>),
}

/// Unwinding a panic out of a claimed simulation must not leave the
/// `Pending` marker in place — concurrent waiters on the same key would
/// block forever and wedge the campaign. On drop (while armed) this guard
/// removes the marker and publishes the penalty value to any waiters; the
/// success path disarms it.
struct PendingGuard<'a> {
    engine: &'a EvalEngine,
    key: &'a [usize],
    shard_idx: usize,
    inflight: &'a Arc<InFlight>,
    armed: bool,
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.engine.shards[self.shard_idx].lock().remove(self.key);
            self.inflight
                .publish((RunReport::default(), self.engine.policy.penalty_perf));
        }
    }
}

/// Thread-safe, memoizing configuration evaluator.
///
/// All methods take `&self`; the engine can be shared freely across
/// threads. Prefer [`EvalEngine::evaluate_batch`] for a generation's
/// population — it deduplicates, fans the cache misses out across rayon
/// workers, and reassembles results in input order.
#[derive(Debug)]
pub struct EvalEngine {
    /// The simulated machine.
    pub sim: Simulator,
    /// The application (or kernel) under tuning.
    pub workload: Workload,
    /// The tuning space.
    pub space: ParameterSpace,
    /// Runs averaged per evaluation (the paper uses 3).
    pub repeats: u32,
    /// Retry/quarantine/penalty policy for failed evaluations.
    pub policy: FailurePolicy,
    shards: [Shard; SHARDS],
    evaluations: AtomicU64,
    cache_hits: AtomicU64,
    sim_wall_ns: AtomicU64,
    faults_injected: AtomicU64,
    retries: AtomicU64,
    failed_evaluations: AtomicU64,
    quarantined_keys: AtomicU64,
    penalties_served: AtomicU64,
    charged_cost_s: Mutex<f64>,
    /// Charged evaluations' profiles by key. Snapshots fold them in key
    /// order, so the pooled profile does not depend on which evaluator
    /// slot finished first.
    profiles: Mutex<BTreeMap<Vec<usize>, Profile>>,
    fail_state: Mutex<HashMap<Vec<usize>, KeyFailState>>,
    /// Keys mid-race: warm samples accumulated, settle pending.
    races: Mutex<HashMap<Vec<usize>, RaceState>>,
    /// Racing provenance of settled/preloaded keys — `(samples, m2)` —
    /// consulted when journaling so re-checkpointed entries keep their
    /// moments across kill/resume cycles.
    race_meta: Mutex<HashMap<Vec<usize>, (u32, f64)>>,
    /// Early-discard audit log, in settle (= commit) order.
    race_discard_log: Mutex<Vec<RaceDiscard>>,
    race_samples: AtomicU64,
    race_settled: AtomicU64,
    race_topups: AtomicU64,
    race_discards: AtomicU64,
    /// When enabled, every charged cache insertion is recorded here so a
    /// checkpoint writer can persist the generation's new entries.
    journal: Mutex<Option<Vec<CacheEntry>>>,
    m_hits: trace::Counter,
    m_misses: trace::Counter,
    m_cost: trace::Histogram,
    m_retries: trace::Counter,
    m_failures: trace::Counter,
    m_quarantined: trace::Counter,
    m_faults: Vec<trace::Counter>,
    m_layer_self: Vec<trace::Histogram>,
    m_race_samples: trace::Counter,
    m_race_settled: trace::Counter,
    m_race_topups: trace::Counter,
    m_race_discards: trace::Counter,
    m_noise_interference: trace::Histogram,
    #[cfg(test)]
    sim_gate: SimGate,
}

/// Fault kinds in a stable order for the labeled `tunio.fault.injected`
/// counters.
const FAULT_KINDS: [FaultKind; 4] = [
    FaultKind::Transient,
    FaultKind::Straggler,
    FaultKind::OstFlap,
    FaultKind::Corrupt,
];

/// Callback installed into a [`SimGate`].
#[cfg(test)]
pub(crate) type GateFn = Arc<dyn Fn(&[usize]) + Send + Sync>;

/// Test hook: lets unit tests block inside [`EvalEngine::simulate`] to
/// prove that concurrent evaluations of *different* keys do not
/// serialize behind one another.
#[cfg(test)]
#[derive(Default)]
struct SimGate(StdMutex<Option<GateFn>>);

#[cfg(test)]
impl std::fmt::Debug for SimGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SimGate")
    }
}

impl EvalEngine {
    /// Create an engine; `repeats` follows the paper's 3-run averaging.
    pub fn new(sim: Simulator, workload: Workload, space: ParameterSpace, repeats: u32) -> Self {
        EvalEngine {
            sim,
            workload,
            space,
            repeats: repeats.max(1),
            policy: FailurePolicy::default(),
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            evaluations: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            sim_wall_ns: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            failed_evaluations: AtomicU64::new(0),
            quarantined_keys: AtomicU64::new(0),
            penalties_served: AtomicU64::new(0),
            charged_cost_s: Mutex::new(0.0),
            profiles: Mutex::new(BTreeMap::new()),
            fail_state: Mutex::new(HashMap::new()),
            races: Mutex::new(HashMap::new()),
            race_meta: Mutex::new(HashMap::new()),
            race_discard_log: Mutex::new(Vec::new()),
            race_samples: AtomicU64::new(0),
            race_settled: AtomicU64::new(0),
            race_topups: AtomicU64::new(0),
            race_discards: AtomicU64::new(0),
            journal: Mutex::new(None),
            m_hits: trace::counter("tunio.eval.cache_hits"),
            m_misses: trace::counter("tunio.eval.evaluations"),
            m_cost: trace::histogram("tunio.eval.cost_s"),
            m_retries: trace::counter("tunio.eval.retries"),
            m_failures: trace::counter("tunio.eval.failures"),
            m_quarantined: trace::counter("tunio.eval.quarantined"),
            m_faults: FAULT_KINDS
                .iter()
                .map(|k| trace::labeled_counter("tunio.fault.injected", &[("kind", k.label())]))
                .collect(),
            m_layer_self: Layer::ALL
                .iter()
                .map(|l| trace::labeled_histogram("tunio.profile.self_s", &[("layer", l.as_str())]))
                .collect(),
            m_race_samples: trace::counter("tunio.racing.samples"),
            m_race_settled: trace::counter("tunio.racing.settled"),
            m_race_topups: trace::counter("tunio.racing.topups"),
            m_race_discards: trace::counter("tunio.racing.discards"),
            m_noise_interference: trace::histogram("tunio.noise.interference_s"),
            #[cfg(test)]
            sim_gate: SimGate::default(),
        }
    }

    /// Override the failure policy (builder style).
    pub fn with_policy(mut self, policy: FailurePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Install a simulator-entry hook (crate tests only): called with
    /// the gene key of every configuration about to simulate. Used to
    /// stall or panic chosen evaluations.
    #[cfg(test)]
    pub(crate) fn install_sim_gate(&self, gate: GateFn) {
        *self.sim_gate.0.lock().unwrap_or_else(|p| p.into_inner()) = Some(gate);
    }

    fn shard_of(key: &[usize]) -> usize {
        (noise::fingerprint(key) % SHARDS as u64) as usize
    }

    /// Run the simulator once for one configuration (no cache, no retry).
    /// Pure in `(sim, config, repeats, attempt)`; see the module docs.
    /// Injected non-fatal faults are surfaced as `fault.injected` events
    /// and counters; a transient fault or an insane (NaN/negative) report
    /// comes back as an [`AttemptError`].
    fn simulate_attempt(
        &self,
        config: &Configuration,
        attempt: u32,
    ) -> Result<(RunReport, Profile, f64), AttemptError> {
        #[cfg(test)]
        {
            let gate = self
                .sim_gate
                .0
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .clone();
            if let Some(gate) = gate {
                gate(config.genes());
            }
        }
        let mut span = trace::span("eval.simulate", vec![("repeats", self.repeats.into())]);
        let t0 = Instant::now();
        let phases = self.workload.phases();
        let stack = config.resolve(&self.space);
        let outcome = self
            .sim
            .try_run_averaged_profiled(&phases, &stack, self.repeats, attempt);
        self.sim_wall_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        match outcome {
            Ok((report, profile, faults)) => {
                for fault in &faults {
                    self.note_fault(fault);
                }
                if !report.is_sane() {
                    span.add_field("failed", "corrupt_report".into());
                    return Err(AttemptError::Corrupt);
                }
                span.add_field("perf", report.perf().into());
                span.add_field("cost_s", report.elapsed_s.into());
                let perf = report.perf();
                Ok((report, profile, perf))
            }
            Err(sim_fault) => {
                self.note_fault(&sim_fault.fault);
                span.add_field("failed", sim_fault.fault.kind.label().into());
                Err(AttemptError::Fault(sim_fault.fault))
            }
        }
    }

    /// Record one injected fault: event + labeled counter.
    fn note_fault(&self, fault: &InjectedFault) {
        self.faults_injected.fetch_add(1, Ordering::Relaxed);
        let idx = FAULT_KINDS
            .iter()
            .position(|k| *k == fault.kind)
            .expect("every kind is registered");
        self.m_faults[idx].inc(1);
        trace::event(
            "fault.injected",
            vec![
                ("kind", fault.kind.label().into()),
                ("run_idx", fault.run_idx.into()),
                ("attempt", fault.attempt.into()),
            ],
        );
    }

    /// Evaluate one key with bounded retry and quarantine bookkeeping.
    ///
    /// Deterministic per key: attempt indices continue from the key's
    /// persistent counter, so the sequence of fault draws a key sees is a
    /// pure function of how often it has been (re)tried — independent of
    /// thread interleaving, because each key's state is only touched by
    /// the one worker evaluating it.
    fn simulate_resilient(&self, config: &Configuration) -> SimOutcome {
        let key = config.genes();
        let base = self
            .fail_state
            .lock()
            .get(key)
            .map_or(0, |s| s.attempts_used);
        let tries = self.policy.max_retries + 1;
        for t in 0..tries {
            match self.simulate_attempt(config, base + t) {
                Ok((report, profile, perf)) => {
                    if base > 0 || t > 0 {
                        let mut states = self.fail_state.lock();
                        let state = states.entry(key.to_vec()).or_default();
                        state.attempts_used += t + 1;
                        state.consecutive_failures = 0;
                    }
                    return SimOutcome::Success(report, Box::new(profile), perf);
                }
                Err(why) => {
                    let reason = match why {
                        AttemptError::Fault(f) => f.kind.label(),
                        AttemptError::Corrupt => "corrupt_report",
                    };
                    if t + 1 < tries {
                        self.retries.fetch_add(1, Ordering::Relaxed);
                        self.m_retries.inc(1);
                        trace::event(
                            "eval.retry",
                            vec![
                                ("key_fp", noise::fingerprint(key).into()),
                                ("attempt", (base + t).into()),
                                ("reason", reason.into()),
                            ],
                        );
                        let backoff = self.policy.backoff_base_ms << t;
                        if backoff > 0 {
                            std::thread::sleep(std::time::Duration::from_millis(backoff));
                        }
                    }
                }
            }
        }
        // Retries exhausted: count the failure, maybe open the breaker.
        self.failed_evaluations.fetch_add(1, Ordering::Relaxed);
        self.m_failures.inc(1);
        let newly_quarantined = {
            let mut states = self.fail_state.lock();
            let state = states.entry(key.to_vec()).or_default();
            state.attempts_used += tries;
            state.consecutive_failures += 1;
            if !state.quarantined && state.consecutive_failures >= self.policy.quarantine_after {
                state.quarantined = true;
                true
            } else {
                false
            }
        };
        if newly_quarantined {
            self.quarantined_keys.fetch_add(1, Ordering::Relaxed);
            self.m_quarantined.inc(1);
            trace::event(
                "eval.quarantined",
                vec![("key_fp", noise::fingerprint(key).into())],
            );
        }
        SimOutcome::Failed
    }

    /// True when the key's circuit breaker is open.
    fn is_quarantined(&self, key: &[usize]) -> bool {
        self.fail_state
            .lock()
            .get(key)
            .is_some_and(|s| s.quarantined)
    }

    /// The penalty evaluation served for unrecoverable keys.
    fn penalty_evaluation(&self, config: &Configuration) -> Evaluation {
        self.penalties_served.fetch_add(1, Ordering::Relaxed);
        Evaluation {
            config: config.clone(),
            report: RunReport::default(),
            perf: self.policy.penalty_perf,
            cost_s: 0.0,
        }
    }

    /// Record a charged cache insertion into the checkpoint journal, when
    /// journaling is enabled. Called only from serial accounting sections,
    /// so entry order is deterministic.
    fn journal_push(&self, key: &[usize], report: &RunReport, perf: f64, profile: &Profile) {
        if let Some(journal) = self.journal.lock().as_mut() {
            // Raced keys carry their (sample count, M2) so a resumed
            // campaign restores the racing moments bitwise; the pair is
            // (0, 0.0) — and omitted from the WAL — for fixed repeats.
            let (samples, m2) = self.race_meta.lock().get(key).copied().unwrap_or((0, 0.0));
            journal.push(CacheEntry {
                key: key.to_vec(),
                report: *report,
                perf,
                profile: profile.clone(),
                samples,
                m2,
            });
        }
    }

    /// Start recording charged cache insertions for checkpointing.
    pub fn enable_journal(&self) {
        let mut journal = self.journal.lock();
        if journal.is_none() {
            *journal = Some(Vec::new());
        }
    }

    /// Take the cache entries recorded since the last drain (empty unless
    /// [`EvalEngine::enable_journal`] was called).
    pub fn drain_journal(&self) -> Vec<CacheEntry> {
        match self.journal.lock().as_mut() {
            Some(journal) => std::mem::take(journal),
            None => Vec::new(),
        }
    }

    /// Preload checkpoint-restored entries. Each is served with full miss
    /// bookkeeping on first use (see `Slot::Replay`); keys already in
    /// the cache are left untouched.
    pub fn preload(&self, entries: Vec<CacheEntry>) {
        for e in entries {
            if e.samples > 0 {
                // Restore the key's racing provenance so the replayed
                // entry re-journals with its moments intact and a race
                // warm short-circuits to the memoized aggregate.
                self.race_meta
                    .lock()
                    .insert(e.key.clone(), (e.samples, e.m2));
            }
            let mut shard = self.shards[Self::shard_of(&e.key)].lock();
            shard
                .entry(e.key)
                .or_insert_with(|| Slot::Replay(Box::new((e.report, e.perf, e.profile))));
        }
    }

    /// Drop a cached result, forcing the next evaluation of the key to
    /// re-simulate. Intended for cache management in long campaigns; the
    /// batch path also survives a concurrent eviction by falling back to
    /// re-simulation.
    pub fn evict(&self, key: &[usize]) {
        self.shards[Self::shard_of(key)].lock().remove(key);
    }

    /// Record one charged evaluation's profile under its key and in the
    /// per-layer self-time histograms.
    fn charge_profile(&self, key: &[usize], profile: &Profile) {
        for (layer, stat) in profile.iter() {
            self.m_layer_self[layer as usize].record(stat.self_s);
            if layer == Layer::Interference && stat.self_s > 0.0 {
                self.m_noise_interference.record(stat.self_s);
            }
        }
        self.profiles
            .lock()
            .entry(key.to_vec())
            .or_default()
            .absorb(profile);
    }

    /// Look the key up; if some thread is mid-simulation on it, wait for
    /// that result instead of recomputing.
    fn lookup_or_wait(&self, key: &[usize]) -> Option<(RunReport, f64)> {
        let found = {
            let shard = self.shards[Self::shard_of(key)].lock();
            match shard.get(key) {
                Some(Slot::Ready(report, perf)) => return Some((*report, *perf)),
                Some(Slot::Pending(inflight)) => Some(inflight.clone()),
                // A replay slot still owes its charge: report no result so
                // the caller goes through the claiming path, which does
                // the miss bookkeeping.
                Some(Slot::Replay(_)) | None => None,
            }
        };
        found.map(|inflight| inflight.wait())
    }

    /// Evaluate a single configuration (memoized).
    ///
    /// A miss claims the key with an in-flight marker and releases the
    /// shard lock *before* simulating, so only callers presenting the
    /// **same** gene key wait for each other; different keys that happen
    /// to collide on a shard proceed in parallel. Each unique key is
    /// still simulated at most once. Failed evaluations are retried per
    /// the [`FailurePolicy`] and, if unrecoverable, served the penalty
    /// value *without* caching it (quarantine aside), so later calls get
    /// another chance.
    pub fn evaluate(&self, config: &Configuration) -> Evaluation {
        let key = config.genes().to_vec();
        let shard_idx = Self::shard_of(&key);

        if self.is_quarantined(&key) {
            return self.penalty_evaluation(config);
        }

        let claim = {
            let mut shard = self.shards[shard_idx].lock();
            match shard.get(&key) {
                Some(Slot::Ready(report, perf)) => Claim::Hit(*report, *perf),
                Some(Slot::Pending(inflight)) => Claim::Join(inflight.clone()),
                Some(Slot::Replay(_)) => {
                    let Some(Slot::Replay(entry)) = shard.remove(&key) else {
                        unreachable!("matched Replay under the same lock");
                    };
                    shard.insert(key.clone(), Slot::Ready(entry.0, entry.1));
                    Claim::Replayed(entry)
                }
                None => {
                    let inflight = Arc::new(InFlight::default());
                    shard.insert(key.clone(), Slot::Pending(inflight.clone()));
                    Claim::Claimed(inflight)
                }
            }
        }; // shard lock released here, before any simulation

        let (report, perf) = match claim {
            Claim::Hit(report, perf) => (report, perf),
            Claim::Join(inflight) => inflight.wait(),
            Claim::Replayed(entry) => {
                let (report, perf, profile) = *entry;
                *self.charged_cost_s.lock() += report.elapsed_s;
                return self.charge_miss(config, &key, report, perf, &profile);
            }
            Claim::Claimed(inflight) => {
                let mut guard = PendingGuard {
                    engine: self,
                    key: &key,
                    shard_idx,
                    inflight: &inflight,
                    armed: true,
                };
                let outcome = self.simulate_resilient(config);
                match outcome {
                    SimOutcome::Success(report, profile, perf) => {
                        guard.armed = false;
                        self.shards[shard_idx]
                            .lock()
                            .insert(key.clone(), Slot::Ready(report, perf));
                        inflight.publish((report, perf));
                        *self.charged_cost_s.lock() += report.elapsed_s;
                        return self.charge_miss(config, &key, report, perf, &profile);
                    }
                    SimOutcome::Failed => {
                        // The guard's drop removes the pending marker and
                        // unblocks any waiters with the penalty value; the
                        // key stays uncached so it can retry later.
                        drop(guard);
                        return self.penalty_evaluation(config);
                    }
                }
            }
        };
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
        self.m_hits.inc(1);
        Evaluation {
            config: config.clone(),
            report,
            perf,
            cost_s: 0.0,
        }
    }

    /// Miss bookkeeping for one charged evaluation: counters, profile
    /// accumulator, checkpoint journal. Serial-section only. The caller
    /// owns the `charged_cost_s` fold (batches sum locally and fold once,
    /// preserving the serial float-accumulation order).
    fn charge_miss(
        &self,
        config: &Configuration,
        key: &[usize],
        report: RunReport,
        perf: f64,
        profile: &Profile,
    ) -> Evaluation {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        self.m_misses.inc(1);
        self.m_cost.record(report.elapsed_s);
        self.charge_profile(key, profile);
        self.journal_push(key, &report, perf, profile);
        Evaluation {
            config: config.clone(),
            report,
            perf,
            cost_s: report.elapsed_s,
        }
    }

    /// Evaluate a batch of configurations, simulating cache misses in
    /// parallel. Results come back in input order and are bitwise
    /// identical to evaluating the batch serially in that order:
    /// the first occurrence of each uncached gene key is charged one
    /// run's elapsed time, everything else costs zero.
    pub fn evaluate_batch(&self, configs: &[Configuration]) -> Vec<Evaluation> {
        let keys: Vec<Vec<usize>> = configs.iter().map(|c| c.genes().to_vec()).collect();

        // Classify the first occurrence of each gene key: quarantined
        // (circuit open, never simulated), checkpoint-replayed (converted
        // to Ready here, charged below in input order), fresh (needs the
        // simulator), or already cached.
        let mut seen: HashMap<&[usize], usize> = HashMap::with_capacity(configs.len());
        let mut fresh: Vec<usize> = Vec::new();
        let mut quarantined: Vec<usize> = Vec::new();
        let mut replayed: HashMap<usize, (RunReport, f64, Profile)> = HashMap::new();
        for (i, key) in keys.iter().enumerate() {
            if seen.contains_key(key.as_slice()) {
                continue;
            }
            seen.insert(key, i);
            if self.is_quarantined(key) {
                quarantined.push(i);
                continue;
            }
            let mut shard = self.shards[Self::shard_of(key)].lock();
            match shard.get(key) {
                None => fresh.push(i),
                Some(Slot::Replay(_)) => {
                    let Some(Slot::Replay(entry)) = shard.remove(key) else {
                        unreachable!("matched Replay under the same lock");
                    };
                    shard.insert(key.clone(), Slot::Ready(entry.0, entry.1));
                    replayed.insert(i, *entry);
                }
                Some(_) => {}
            }
        }

        // Fan the misses out; order-preserving collect keeps sims[j]
        // aligned with fresh[j]. Retry/quarantine bookkeeping is per-key,
        // so outcomes stay deterministic under any interleaving. The
        // caller's causal context is re-installed inside each rayon
        // worker so eval spans stay in the campaign's trace.
        let ctx = trace::current();
        let sims: Vec<SimOutcome> = fresh
            .par_iter()
            .map(|&i| {
                let _ctx = trace::with_context(ctx);
                self.simulate_resilient(&configs[i])
            })
            .collect();

        // Publish successes; failures stay uncached so they retry on the
        // next encounter. `penalized` serves this batch's duplicates of a
        // failed or quarantined key.
        let mut fresh_results: HashMap<&[usize], (RunReport, f64)> = HashMap::new();
        let mut penalized: std::collections::HashSet<&[usize]> = std::collections::HashSet::new();
        for (&i, outcome) in fresh.iter().zip(&sims) {
            match outcome {
                SimOutcome::Success(report, _, perf) => {
                    self.shards[Self::shard_of(&keys[i])]
                        .lock()
                        .insert(keys[i].clone(), Slot::Ready(*report, *perf));
                    fresh_results.insert(keys[i].as_slice(), (*report, *perf));
                }
                SimOutcome::Failed => {
                    penalized.insert(keys[i].as_slice());
                }
            }
        }
        for &i in &quarantined {
            penalized.insert(keys[i].as_slice());
        }

        // All bookkeeping in input order — bitwise identical to a serial
        // memoized loop over the same batch.
        let mut out = Vec::with_capacity(configs.len());
        let mut charged = 0.0;
        for (i, config) in configs.iter().enumerate() {
            let key = keys[i].as_slice();
            if let Ok(j) = fresh.binary_search(&i) {
                match &sims[j] {
                    SimOutcome::Success(report, profile, perf) => {
                        charged += report.elapsed_s;
                        out.push(self.charge_miss(config, key, *report, *perf, profile));
                    }
                    SimOutcome::Failed => out.push(self.penalty_evaluation(config)),
                }
            } else if let Some((report, perf, profile)) = replayed.get(&i) {
                charged += report.elapsed_s;
                out.push(self.charge_miss(config, key, *report, *perf, profile));
            } else if penalized.contains(key) {
                out.push(self.penalty_evaluation(config));
            } else if let Some((report, perf)) = self.lookup_or_wait(key) {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                self.m_hits.inc(1);
                out.push(Evaluation {
                    config: config.clone(),
                    report,
                    perf,
                    cost_s: 0.0,
                });
            } else {
                // The entry vanished between classification and assembly
                // (eviction). Recover by re-simulating through the normal
                // claim path, which does its own bookkeeping.
                out.push(self.evaluate(config));
            }
        }
        *self.charged_cost_s.lock() += charged;
        out
    }

    /// Number of simulator evaluations actually performed (cache misses).
    pub fn evaluations(&self) -> u64 {
        self.evaluations.load(Ordering::Relaxed)
    }

    /// Number of memoized lookups served.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Snapshot the accumulated per-layer cost profile: the pooled
    /// attribution of every *charged* evaluation (first occurrence of
    /// each unique configuration). Its total time tracks
    /// [`EvalCounters::charged_cost_s`]. The per-key profiles are summed
    /// in key order, so the snapshot is bitwise identical for any
    /// thread count or completion order.
    pub fn profile_snapshot(&self) -> Profile {
        let mut pooled = Profile::new();
        for profile in self.profiles.lock().values() {
            pooled.absorb(profile);
        }
        pooled
    }

    /// Snapshot the resilience counters.
    pub fn resilience(&self) -> ResilienceCounters {
        ResilienceCounters {
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            failed_evaluations: self.failed_evaluations.load(Ordering::Relaxed),
            quarantined_keys: self.quarantined_keys.load(Ordering::Relaxed),
            penalties_served: self.penalties_served.load(Ordering::Relaxed),
        }
    }

    /// Snapshot all counters.
    pub fn counters(&self) -> EvalCounters {
        EvalCounters {
            evaluations: self.evaluations(),
            cache_hits: self.cache_hits(),
            charged_cost_s: *self.charged_cost_s.lock(),
            sim_wall_s: self.sim_wall_ns.load(Ordering::Relaxed) as f64 / 1e9,
        }
    }

    /// Snapshot the racing activity counters.
    pub fn racing_counters(&self) -> RacingCounters {
        RacingCounters {
            samples: self.race_samples.load(Ordering::Relaxed),
            settled: self.race_settled.load(Ordering::Relaxed),
            topups: self.race_topups.load(Ordering::Relaxed),
            discards: self.race_discards.load(Ordering::Relaxed),
        }
    }

    /// The early-discard audit log, in settle (= commit) order.
    pub fn race_discard_log(&self) -> Vec<RaceDiscard> {
        self.race_discard_log.lock().clone()
    }

    /// One raw single-run sample of `config` at repeat index `rep` — no
    /// cache, no retry, no charge. Pure in `(sim, config, rep)`; a fault
    /// or insane report comes back as `None` (the sample is excluded
    /// from the moments, which is what keeps aggregation NaN-safe).
    fn race_sample(&self, config: &Configuration, rep: u32) -> Option<(RunReport, Profile)> {
        #[cfg(test)]
        {
            let gate = self
                .sim_gate
                .0
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .clone();
            if let Some(gate) = gate {
                gate(config.genes());
            }
        }
        let mut span = trace::span("eval.sample", vec![("rep", rep.into())]);
        let t0 = Instant::now();
        let phases = self.workload.phases();
        let stack = config.resolve(&self.space);
        let outcome = self.sim.try_run_profiled(&phases, &stack, rep, 0);
        self.sim_wall_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.race_samples.fetch_add(1, Ordering::Relaxed);
        self.m_race_samples.inc(1);
        match outcome {
            Ok((report, profile, fault)) => {
                if let Some(f) = &fault {
                    self.note_fault(f);
                }
                if !report.is_sane() || !report.perf().is_finite() {
                    span.add_field("failed", "corrupt_report".into());
                    return None;
                }
                span.add_field("perf", report.perf().into());
                Some((report, profile))
            }
            Err(sim_fault) => {
                self.note_fault(&sim_fault.fault);
                span.add_field("failed", sim_fault.fault.kind.label().into());
                None
            }
        }
    }

    /// Racing warm phase: run the first [`RacingConfig::min_samples`]
    /// raw repeats of an unseen key and return a **provisional**
    /// evaluation (running mean, zero cost). Nothing is cached, charged
    /// or journaled until [`EvalEngine::race_settle`] runs at the
    /// scheduler's commit frontier.
    ///
    /// Keys the engine already knows — the default baseline, a
    /// checkpoint `Slot::Replay`, or an earlier settle — are served
    /// through [`EvalEngine::evaluate`] with standard accounting; no
    /// race state is created, so settling leaves them untouched. This
    /// is what makes a resumed campaign skip re-racing bitwise.
    pub fn race_warm(&self, config: &Configuration, racing: &RacingConfig) -> Evaluation {
        let key = config.genes().to_vec();
        if self.is_quarantined(&key) {
            return self.penalty_evaluation(config);
        }
        let known = self.shards[Self::shard_of(&key)].lock().contains_key(&key);
        if known {
            return self.evaluate(config);
        }
        let min = racing.min_samples.clamp(2, racing.max_samples.max(2));
        let mut state = RaceState::default();
        for rep in 0..min {
            state.note(self.race_sample(config, rep));
        }
        let provisional = if state.perfs.n > 0 {
            state.perfs.mean
        } else {
            self.policy.penalty_perf
        };
        let report = RunReport::average(&state.reports);
        self.races.lock().insert(key, state);
        Evaluation {
            config: config.clone(),
            report,
            perf: provisional,
            cost_s: 0.0,
        }
    }

    /// Settle a raced key against the incumbent objective. **Serial
    /// section**: must be called from the scheduler's commit frontier,
    /// where `incumbent` is a pure function of the committed history —
    /// that is what keeps top-up counts and discards independent of
    /// thread timing.
    ///
    /// Returns `None` for keys with no race state (cache hits, replays,
    /// penalties), whose worker-reported values are already final. The
    /// racing rule: while the CI `mean ± z·sd/√n` overlaps the
    /// incumbent, top up one sample at a time; discard early once
    /// `mean + half < incumbent` (a clear loser needs no more
    /// precision); stop as soon as `mean - half > incumbent` (a clear
    /// winner needs no more either) or at `max_samples`. The settled
    /// aggregate is cached, charged and journaled exactly like a
    /// fixed-repeat miss.
    pub fn race_settle(
        &self,
        config: &Configuration,
        incumbent: f64,
        racing: &RacingConfig,
    ) -> Option<RaceOutcome> {
        let key = config.genes().to_vec();
        let mut state = self.races.lock().remove(&key)?;
        let max = racing.max_samples.max(racing.min_samples).max(2);
        let mut topups = 0u32;
        let mut discarded = false;
        loop {
            if state.perfs.n >= 2 {
                let half = state.perfs.half_width(racing.z);
                let mean = state.perfs.mean;
                if mean + half < incumbent {
                    discarded = true;
                    break;
                }
                if mean - half > incumbent {
                    break;
                }
            }
            if state.attempts >= max {
                break;
            }
            let rep = state.attempts;
            state.note(self.race_sample(config, rep));
            topups += 1;
            trace::event(
                "eval.repeat",
                vec![
                    ("key_fp", noise::fingerprint(&key).into()),
                    ("rep", rep.into()),
                    ("samples", state.perfs.n.into()),
                    ("incumbent", incumbent.into()),
                ],
            );
        }
        self.race_settled.fetch_add(1, Ordering::Relaxed);
        self.m_race_settled.inc(1);
        self.race_topups.fetch_add(topups as u64, Ordering::Relaxed);
        self.m_race_topups.inc(topups as u64);

        let samples = state.perfs.n as u32;
        let mean = state.perfs.mean;
        let half = state.perfs.half_width(racing.z);
        if discarded {
            self.race_discards.fetch_add(1, Ordering::Relaxed);
            self.m_race_discards.inc(1);
            self.race_discard_log.lock().push(RaceDiscard {
                key: key.clone(),
                mean,
                half_width: half,
                incumbent,
                samples,
            });
            trace::event(
                "eval.discard",
                vec![
                    ("key", format!("{:?}", key).into()),
                    ("mean", mean.into()),
                    ("half_width", half.into()),
                    ("incumbent", incumbent.into()),
                    ("samples", samples.into()),
                ],
            );
        }
        if samples == 0 {
            // Every sample failed: serve the penalty and leave the key
            // uncached, mirroring the fixed-repeat failure path.
            self.failed_evaluations.fetch_add(1, Ordering::Relaxed);
            self.m_failures.inc(1);
            self.penalties_served.fetch_add(1, Ordering::Relaxed);
            return Some(RaceOutcome {
                perf: self.policy.penalty_perf,
                cost_s: 0.0,
                samples: 0,
                topups,
                discarded,
                mean: self.policy.penalty_perf,
                half_width: 0.0,
            });
        }
        // Aggregate: the strategy observes the mean of the per-run
        // objectives (the quantity the CI race reasoned about); the
        // pooled report/profile carry the bookkeeping.
        let report = RunReport::average(&state.reports);
        let profile = Profile::average(&state.profiles);
        self.shards[Self::shard_of(&key)]
            .lock()
            .insert(key.clone(), Slot::Ready(report, mean));
        self.race_meta
            .lock()
            .insert(key.clone(), (samples, state.perfs.m2));
        *self.charged_cost_s.lock() += report.elapsed_s;
        let eval = self.charge_miss(config, &key, report, mean, &profile);
        Some(RaceOutcome {
            perf: mean,
            cost_s: eval.cost_s,
            samples,
            topups,
            discarded,
            mean,
            half_width: half,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tunio_iosim::Simulator;
    use tunio_params::ParameterSpace;
    use tunio_workloads::{hacc, Variant, Workload};

    fn engine() -> EvalEngine {
        EvalEngine::new(
            Simulator::cori_4node(1),
            Workload::new(hacc(), Variant::Kernel),
            ParameterSpace::tunio_default(),
            3,
        )
    }

    #[test]
    fn evaluation_produces_positive_perf_and_cost() {
        let ev = engine();
        let cfg = ev.space.default_config();
        let e = ev.evaluate(&cfg);
        assert!(e.perf > 0.0);
        assert!(e.cost_s > 0.0);
        assert_eq!(ev.evaluations(), 1);
    }

    #[test]
    fn repeat_evaluations_are_memoized_and_free() {
        let ev = engine();
        let cfg = ev.space.default_config();
        let first = ev.evaluate(&cfg);
        let second = ev.evaluate(&cfg);
        assert_eq!(first.perf, second.perf);
        assert_eq!(second.cost_s, 0.0, "memoized evaluation must cost nothing");
        assert_eq!(ev.evaluations(), 1);
        assert_eq!(ev.cache_hits(), 1);
    }

    #[test]
    fn different_configs_differ_in_perf() {
        let ev = engine();
        let default = ev.evaluate(&ev.space.default_config().clone());
        let mut tuned_cfg = ev.space.default_config();
        tuned_cfg.set_gene(tunio_params::ParamId::CollectiveIo, 1);
        tuned_cfg.set_gene(tunio_params::ParamId::StripingFactor, 9);
        let tuned = ev.evaluate(&tuned_cfg);
        assert!(tuned.perf != default.perf);
    }

    #[test]
    fn cost_counts_single_run_not_repeats() {
        // Averaging 3 runs must not triple the charged cost.
        let mut ev1 = engine();
        ev1.repeats = 1;
        let ev3 = engine();
        let cfg = ev1.space.default_config();
        let c1 = ev1.evaluate(&cfg).cost_s;
        let c3 = ev3.evaluate(&cfg).cost_s;
        assert!(
            (c3 - c1).abs() / c1 < 0.2,
            "3-run cost {c3} should be ~1-run cost {c1}"
        );
    }

    #[test]
    fn batch_matches_serial_evaluation_bitwise() {
        let space = ParameterSpace::tunio_default();
        let mut configs = vec![space.default_config()];
        for v in [1usize, 3, 5] {
            let mut c = space.default_config();
            c.set_gene(tunio_params::ParamId::StripingFactor, v);
            configs.push(c);
        }
        // Duplicate an earlier entry to exercise within-batch dedup.
        configs.push(configs[1].clone());

        let batch = engine().evaluate_batch(&configs);
        let serial_engine = engine();
        let serial: Vec<Evaluation> = configs.iter().map(|c| serial_engine.evaluate(c)).collect();

        assert_eq!(batch.len(), serial.len());
        for (b, s) in batch.iter().zip(&serial) {
            assert_eq!(b.perf, s.perf, "perf must be bitwise identical");
            assert_eq!(b.report, s.report, "reports must be bitwise identical");
            assert_eq!(b.cost_s, s.cost_s, "cost accounting must match serial");
        }
    }

    #[test]
    fn batch_dedups_and_charges_only_first_occurrence() {
        let ev = engine();
        let cfg = ev.space.default_config();
        let batch = ev.evaluate_batch(&[cfg.clone(), cfg.clone(), cfg]);
        assert_eq!(ev.evaluations(), 1, "one unique key, one simulation");
        assert_eq!(ev.cache_hits(), 2);
        assert!(batch[0].cost_s > 0.0);
        assert_eq!(batch[1].cost_s, 0.0);
        assert_eq!(batch[2].cost_s, 0.0);
    }

    #[test]
    fn counters_track_charged_cost_and_wall_time() {
        let ev = engine();
        let cfg = ev.space.default_config();
        let e = ev.evaluate(&cfg);
        ev.evaluate(&cfg);
        let c = ev.counters();
        assert_eq!(c.evaluations, 1);
        assert_eq!(c.cache_hits, 1);
        assert_eq!(c.charged_cost_s, e.cost_s);
        assert!(c.sim_wall_s > 0.0);
    }

    /// Regression test for the shard-lock contention bug: `evaluate`
    /// used to hold the shard mutex across the entire simulation, so an
    /// unrelated key colliding on the same shard serialized behind a
    /// full multi-run simulation. Blocks key A *inside* the simulator
    /// via the test gate, then requires a different same-shard key B to
    /// complete while A is still simulating.
    #[test]
    fn different_keys_on_same_shard_do_not_serialize() {
        use std::sync::mpsc;
        use std::time::Duration;

        let ev = engine();
        let a = ev.space.default_config();
        let a_key = a.genes().to_vec();
        let shard = EvalEngine::shard_of(&a_key);

        // Find a second configuration with a different key on A's shard.
        let mut b = None;
        'outer: for p in tunio_params::ParamId::ALL {
            for v in 0..ev.space.cardinality(p) {
                let mut c = ev.space.default_config();
                c.set_gene(p, v);
                if c.genes() != a_key.as_slice() && EvalEngine::shard_of(c.genes()) == shard {
                    b = Some(c);
                    break 'outer;
                }
            }
        }
        let b = b.expect("some single-gene mutant shares the default's shard");

        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = std::sync::Mutex::new(release_rx);
        let gate_key = a_key.clone();
        *ev.sim_gate.0.lock().unwrap() = Some(Arc::new(move |key: &[usize]| {
            if key == gate_key.as_slice() {
                entered_tx.send(()).expect("test alive");
                release_rx.lock().unwrap().recv().expect("release signal");
            }
        }));

        std::thread::scope(|s| {
            let ta = s.spawn(|| ev.evaluate(&a));
            // A is now mid-simulation with its in-flight marker planted.
            entered_rx.recv().expect("A entered the simulator");

            let (done_tx, done_rx) = mpsc::channel();
            let evr = &ev;
            let bb = b.clone();
            s.spawn(move || {
                done_tx.send(evr.evaluate(&bb).perf).ok();
            });
            let perf_b = done_rx.recv_timeout(Duration::from_secs(30)).expect(
                "different-key evaluation on the same shard must proceed \
                 while another key's simulation is in flight",
            );
            assert!(perf_b > 0.0);

            release_tx.send(()).expect("release A");
            assert!(ta.join().unwrap().perf > 0.0);
        });
        assert_eq!(ev.evaluations(), 2, "both keys simulated exactly once");
        assert_eq!(ev.cache_hits(), 0);
    }

    #[test]
    fn profile_accumulates_only_charged_evaluations() {
        let ev = engine();
        let cfg = ev.space.default_config();
        assert_eq!(ev.profile_snapshot(), tunio_iosim::Profile::new());
        ev.evaluate(&cfg);
        let after_one = ev.profile_snapshot();
        let total = after_one.total_time_s();
        assert!(total > 0.0);
        // The accumulated layer self times reconstruct the charged cost.
        let c = ev.counters();
        assert!(
            (total - c.charged_cost_s).abs() < 1e-9 * c.charged_cost_s,
            "profile total {total} vs charged {}",
            c.charged_cost_s
        );
        // Cache hits charge nothing and add nothing to the profile.
        ev.evaluate(&cfg);
        assert_eq!(ev.profile_snapshot(), after_one);
    }

    #[test]
    fn batch_profile_matches_serial_profile() {
        let space = ParameterSpace::tunio_default();
        let mut configs = vec![space.default_config()];
        for v in [1usize, 3, 5] {
            let mut c = space.default_config();
            c.set_gene(tunio_params::ParamId::StripingFactor, v);
            configs.push(c);
        }
        configs.push(configs[2].clone()); // duplicate: charged once

        let batch_engine = engine();
        batch_engine.evaluate_batch(&configs);
        let serial_engine = engine();
        for c in &configs {
            serial_engine.evaluate(c);
        }
        assert_eq!(
            batch_engine.profile_snapshot(),
            serial_engine.profile_snapshot(),
            "accumulated profiles must be bitwise identical to serial order"
        );
    }

    #[test]
    fn engine_is_shareable_across_threads() {
        let ev = engine();
        let cfg = ev.space.default_config();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| ev.evaluate(&cfg));
            }
        });
        assert_eq!(
            ev.evaluations(),
            1,
            "concurrent duplicates must simulate once"
        );
        assert_eq!(ev.cache_hits(), 3);
    }

    use tunio_iosim::FaultPlan;

    fn engine_with_plan(plan: FaultPlan) -> EvalEngine {
        EvalEngine::new(
            Simulator::cori_4node(1).with_fault_plan(plan),
            Workload::new(hacc(), Variant::Kernel),
            ParameterSpace::tunio_default(),
            3,
        )
    }

    fn mutant_batch(space: &ParameterSpace, n: usize) -> Vec<Configuration> {
        let mut configs = vec![space.default_config()];
        for v in 0..n {
            let mut c = space.default_config();
            c.set_gene(
                tunio_params::ParamId::StripingFactor,
                v % space.cardinality(tunio_params::ParamId::StripingFactor),
            );
            c.set_gene(
                tunio_params::ParamId::CollectiveIo,
                (v / 3) % space.cardinality(tunio_params::ParamId::CollectiveIo),
            );
            configs.push(c);
        }
        configs
    }

    #[test]
    fn inert_fault_plan_is_bitwise_invisible() {
        let configs = mutant_batch(&ParameterSpace::tunio_default(), 6);
        let plain = engine();
        let armed = engine_with_plan(FaultPlan::disabled(99));
        let a = plain.evaluate_batch(&configs);
        let b = armed.evaluate_batch(&configs);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.perf, y.perf);
            assert_eq!(x.report, y.report);
            assert_eq!(x.cost_s, y.cost_s);
        }
        assert_eq!(plain.counters(), {
            let mut c = armed.counters();
            // Wall time is real time and legitimately differs.
            c.sim_wall_s = plain.counters().sim_wall_s;
            c
        });
        assert_eq!(plain.profile_snapshot(), armed.profile_snapshot());
        let r = armed.resilience();
        assert_eq!(r, ResilienceCounters::default());
    }

    #[test]
    fn transient_faults_are_retried_to_success() {
        let ev = engine_with_plan(FaultPlan::chaos(7, 0.2)).with_policy(FailurePolicy {
            max_retries: 10,
            quarantine_after: 100,
            ..FailurePolicy::default()
        });
        let configs = mutant_batch(&ev.space.clone(), 12);
        let out = ev.evaluate_batch(&configs);
        let r = ev.resilience();
        assert!(r.faults_injected > 0, "chaos plan must fire at this rate");
        assert!(r.retries > 0, "some attempt must have been retried");
        assert_eq!(
            r.failed_evaluations, 0,
            "10 retries at 20% chaos must recover every key"
        );
        for e in &out {
            assert!(e.perf > 0.0, "retried evaluations recover real results");
            assert!(e.report.is_sane());
        }
    }

    #[test]
    fn always_fatal_key_is_quarantined_and_served_penalty() {
        let plan = FaultPlan {
            transient_rate: 1.0,
            ..FaultPlan::disabled(5)
        };
        let ev = engine_with_plan(plan).with_policy(FailurePolicy {
            max_retries: 1,
            quarantine_after: 2,
            ..FailurePolicy::default()
        });
        let cfg = ev.space.default_config();

        let first = ev.evaluate(&cfg);
        assert_eq!(first.perf, ev.policy.penalty_perf);
        assert_eq!(first.report, RunReport::default());
        assert_eq!(ev.resilience().failed_evaluations, 1);
        assert_eq!(ev.resilience().quarantined_keys, 0);

        let second = ev.evaluate(&cfg);
        assert_eq!(second.perf, ev.policy.penalty_perf);
        let r = ev.resilience();
        assert_eq!(r.failed_evaluations, 2);
        assert_eq!(r.quarantined_keys, 1, "breaker opens after 2 consecutive");
        assert_eq!(r.retries, 2, "one retry per evaluation");

        // Quarantined: the penalty is served without touching the simulator.
        let faults_before = ev.resilience().faults_injected;
        let third = ev.evaluate(&cfg);
        assert_eq!(third.perf, ev.policy.penalty_perf);
        assert_eq!(third.cost_s, 0.0);
        assert_eq!(ev.resilience().faults_injected, faults_before);
        assert_eq!(ev.resilience().penalties_served, 3);
        assert_eq!(ev.evaluations(), 0, "nothing was ever charged");

        // Batches serve the open breaker the same way.
        let batch = ev.evaluate_batch(&[cfg.clone(), cfg]);
        assert!(batch.iter().all(|e| e.perf == ev.policy.penalty_perf));
        assert_eq!(ev.resilience().faults_injected, faults_before);
    }

    #[test]
    fn corrupt_reports_never_become_results() {
        // Every run's report reads NaN; the sanity gate must reject them
        // all, so nothing NaN ever escapes the engine.
        let plan = FaultPlan {
            corrupt_rate: 1.0,
            ..FaultPlan::disabled(17)
        };
        let ev = engine_with_plan(plan);
        let configs = mutant_batch(&ev.space.clone(), 4);
        for e in ev.evaluate_batch(&configs) {
            assert!(e.perf.is_finite(), "NaN must never escape: {}", e.perf);
            assert_eq!(e.perf, ev.policy.penalty_perf);
            assert!(e.report.is_sane(), "penalty report is the zero report");
        }
        assert!(ev.resilience().failed_evaluations > 0);
        assert_eq!(ev.evaluations(), 0);
    }

    #[test]
    fn journal_preload_replays_bitwise_identically() {
        let configs = mutant_batch(&ParameterSpace::tunio_default(), 6);

        let live = engine();
        live.enable_journal();
        let live_out = live.evaluate_batch(&configs);
        let entries = live.drain_journal();
        assert_eq!(entries.len() as u64, live.evaluations());
        assert!(live.drain_journal().is_empty(), "drain takes everything");

        let resumed = engine();
        resumed.preload(entries);
        let resumed_out = resumed.evaluate_batch(&configs);

        for (a, b) in live_out.iter().zip(&resumed_out) {
            assert_eq!(a.perf, b.perf);
            assert_eq!(a.report, b.report);
            assert_eq!(a.cost_s, b.cost_s, "replay must charge like a miss");
        }
        let (cl, cr) = (live.counters(), resumed.counters());
        assert_eq!(cl.evaluations, cr.evaluations);
        assert_eq!(cl.cache_hits, cr.cache_hits);
        assert_eq!(cl.charged_cost_s, cr.charged_cost_s);
        assert_eq!(
            cr.sim_wall_s, 0.0,
            "a fully replayed batch never runs the simulator"
        );
        assert_eq!(
            live.profile_snapshot(),
            resumed.profile_snapshot(),
            "replayed profile accumulator must be bitwise identical"
        );
    }

    /// Regression test for the old `.expect("key was cached before the
    /// batch")` panic: if a cached entry is evicted between a batch's
    /// classification and its assembly, the batch must recover by
    /// re-simulating instead of crashing.
    #[test]
    fn batch_survives_eviction_between_classification_and_assembly() {
        use std::sync::mpsc;

        let ev = engine();
        let cached = ev.space.default_config();
        let cached_key = cached.genes().to_vec();
        let first = ev.evaluate(&cached);

        let mut fresh_cfg = ev.space.default_config();
        fresh_cfg.set_gene(tunio_params::ParamId::StripingFactor, 5);
        let fresh_key = fresh_cfg.genes().to_vec();

        let (hit_tx, hit_rx) = mpsc::channel::<()>();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let go_rx = std::sync::Mutex::new(go_rx);
        *ev.sim_gate.0.lock().unwrap() = Some(Arc::new(move |key: &[usize]| {
            if key == fresh_key.as_slice() {
                hit_tx.send(()).ok();
                go_rx.lock().unwrap().recv().ok();
            }
        }));

        std::thread::scope(|s| {
            let evr = &ev;
            let cached_key = cached_key.clone();
            s.spawn(move || {
                // While the batch is mid-parallel-phase (after it classified
                // `cached` as already Ready), evict that entry.
                hit_rx.recv().expect("fresh key entered the simulator");
                evr.evict(&cached_key);
                go_tx.send(()).expect("resume the batch");
            });
            let out = ev.evaluate_batch(&[cached.clone(), fresh_cfg.clone()]);
            assert_eq!(
                out[0].perf, first.perf,
                "eviction recovery must re-simulate to the same result"
            );
            assert!(out[1].perf > 0.0);
        });
        assert_eq!(
            ev.evaluations(),
            3,
            "original + fresh + the re-simulation that replaced the eviction"
        );
    }

    /// A panicking evaluation thread must not wedge the campaign: the
    /// in-flight marker is cleaned up on unwind and any waiters receive
    /// the penalty value instead of blocking forever.
    #[test]
    fn panicking_evaluation_does_not_wedge_waiters() {
        use std::sync::atomic::AtomicBool;
        use std::sync::mpsc;

        let ev = engine();
        let cfg = ev.space.default_config();
        let key = cfg.genes().to_vec();

        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = std::sync::Mutex::new(release_rx);
        let panic_once = AtomicBool::new(true);
        let gate_key = key.clone();
        *ev.sim_gate.0.lock().unwrap() = Some(Arc::new(move |k: &[usize]| {
            if k == gate_key.as_slice() && panic_once.swap(false, Ordering::SeqCst) {
                entered_tx.send(()).ok();
                release_rx.lock().unwrap().recv().ok();
                panic!("injected evaluation panic");
            }
        }));

        let inflight = std::thread::scope(|s| {
            let ta = s.spawn(|| ev.evaluate(&cfg));
            entered_rx.recv().expect("evaluation entered the simulator");
            // Capture the pending marker exactly as a concurrent waiter
            // would see it, then let the evaluation thread panic.
            let inflight = {
                let shard = ev.shards[EvalEngine::shard_of(&key)].lock();
                match shard.get(key.as_slice()) {
                    Some(Slot::Pending(i)) => i.clone(),
                    other => panic!("expected a pending marker, got {other:?}"),
                }
            };
            release_tx.send(()).expect("release the gated thread");
            assert!(ta.join().is_err(), "the evaluation must have panicked");
            inflight
        });

        // The unwind published the penalty, so a waiter returns instantly
        // instead of blocking forever on the condvar.
        let (report, perf) = inflight.wait();
        assert_eq!(perf, ev.policy.penalty_perf);
        assert_eq!(report, RunReport::default());

        // And the marker is gone, so the key recovers on the next call.
        assert!(ev.shards[EvalEngine::shard_of(&key)]
            .lock()
            .get(key.as_slice())
            .is_none());
        let again = ev.evaluate(&cfg);
        assert!(again.perf > 0.0, "key must be evaluable after the panic");
    }
}
