//! The multi-tenant tuning daemon.
//!
//! `tunio-serve` accepts campaign submissions over HTTP and runs them on
//! a shared worker pool. Its design leans entirely on the per-campaign
//! failure boundary the rest of the workspace provides:
//!
//! * a campaign that fails
//!   ([`CampaignError`](tunio::pipeline::CampaignError)) or whose
//!   evaluator *panics* marks only that campaign `failed` — the process,
//!   the other tenants, and the worker thread all survive;
//! * every campaign checkpoints to its own WAL under the daemon's WAL
//!   directory, so a killed daemon resumes every in-flight campaign on
//!   the next boot (bitwise-identically, per the WAL replay contract);
//! * WALs the binary cannot host (unknown strategy, alien version) are
//!   quarantined at boot — renamed aside, counted, logged — never a
//!   reason to refuse to start.
//!
//! Tenancy is cooperative but real: per-tenant admission quotas bound
//! how much of the pool one tenant can hold, and the evaluation memo
//! cache is namespaced per tenant — tenant A's prior results warm-start
//! tenant A's next identical campaign (`counters.sim_wall_s == 0.0`
//! proves a fully-warm run) and are never visible to tenant B.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;
use tunio::checkpoint::{load, scan_dir, CheckpointHeader};
use tunio::pipeline::{
    outcome_json, run_strategy_campaign_opts, spec_from_header, CampaignOptions, CampaignSpec,
    PipelineKind, StrategyKind,
};
use tunio::pretrain::PretrainCache;
use tunio_iosim::{FaultPlan, NoiseProfile};
use tunio_trace as trace;
use tunio_trace::http::{Request, Response, Server, JSON, NDJSON};
use tunio_tuner::{CacheEntry, EvalCounters, RacingConfig};
use tunio_workloads::Variant;

/// Acquire a mutex, recovering from poisoning: a worker that panicked
/// inside a campaign must not wedge the daemon's bookkeeping. All state
/// behind these locks is updated transactionally (full-record writes),
/// so a poisoned guard's data is still consistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Daemon configuration (CLI flags map 1:1).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; `127.0.0.1:0` lets the OS pick (tests).
    pub addr: String,
    /// Directory for campaign WALs, outcome files, and request metadata.
    pub wal_dir: PathBuf,
    /// Campaign worker threads (concurrent campaigns).
    pub workers: usize,
    /// Max queued+running campaigns one tenant may hold (429 beyond).
    pub max_active_per_tenant: usize,
    /// Max total queued campaigns (503 beyond).
    pub max_queue: usize,
    /// Suppress boot/recovery log lines on stderr.
    pub quiet: bool,
    /// Write a JSON-lines causal trace of every campaign here (the file
    /// `tunio-report --critical-path` reads). `None` disables tracing;
    /// the timeline endpoint then only sees scheduler-stall time.
    pub trace_path: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            wal_dir: PathBuf::from("tunio-serve-wal"),
            workers: 2,
            max_active_per_tenant: 4,
            max_queue: 64,
            quiet: false,
            trace_path: None,
        }
    }
}

/// One tenant's campaign submission (the `POST /campaigns` body).
#[derive(Debug, Clone)]
pub struct CampaignRequest {
    /// Tenant identity. Quotas and the warm cache are keyed by this.
    pub tenant: String,
    /// Optional campaign name (the id becomes `{tenant}--{name}`);
    /// auto-numbered when absent.
    pub name: Option<String>,
    /// Application label (`hacc`, `vpic`, ...), as in `tunio-tune --app`.
    pub app: String,
    /// Pipeline label, as in `tunio-tune --pipeline`.
    pub pipeline: String,
    /// Optional strategy backend (`ga|random|lhs|bo`); the GA when
    /// absent.
    pub strategy: Option<String>,
    /// `full`, `kernel`, or `reduced:<frac>`.
    pub variant: String,
    /// Generation budget.
    pub iterations: u32,
    /// Population size.
    pub population: usize,
    /// Campaign seed.
    pub seed: u64,
    /// 500-node scale when true.
    pub large_scale: bool,
    /// Parallel evaluator slots.
    pub threads: Option<usize>,
    /// Transient-fault injection rate (chaos testing).
    pub fault_rate: Option<f64>,
    /// Fault stream seed (defaults to the campaign seed).
    pub fault_seed: Option<u64>,
    /// Drill switch: the worker panics instead of running the campaign.
    /// Proves panic isolation end-to-end without a special build.
    pub inject_panic: bool,
    /// Heteroscedastic interference profile (`quiet|busy|storm`).
    pub noise_profile: Option<String>,
    /// Interference seed (defaults to the campaign seed).
    pub noise_seed: Option<u64>,
    /// Noise-robust racing evaluation.
    pub racing: bool,
}

fn ident_ok(s: &str) -> bool {
    !s.is_empty() && s.len() <= 64 && id_ok(s)
}

/// Whether `s` only uses campaign-id characters, so it names a file
/// inside the WAL directory and nothing outside it.
fn id_ok(s: &str) -> bool {
    s.chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

impl CampaignRequest {
    /// Parse a submission from its JSON body. `tenant` and `app` are
    /// required; everything else has CLI-matching defaults.
    pub fn from_json(v: &serde_json::Value) -> Result<CampaignRequest, String> {
        let str_field = |key: &str| v.get(key).and_then(|x| x.as_str()).map(str::to_string);
        let tenant = str_field("tenant").ok_or("missing field `tenant`")?;
        if !ident_ok(&tenant) {
            return Err(format!(
                "bad tenant `{tenant}` (want [A-Za-z0-9_.-]{{1,64}})"
            ));
        }
        let name = str_field("name");
        if let Some(n) = &name {
            if !ident_ok(n) {
                return Err(format!("bad name `{n}` (want [A-Za-z0-9_.-]{{1,64}})"));
            }
        }
        let req = CampaignRequest {
            tenant,
            name,
            app: str_field("app").ok_or("missing field `app`")?,
            pipeline: str_field("pipeline").unwrap_or_else(|| "tunio".to_string()),
            strategy: str_field("strategy"),
            variant: str_field("variant").unwrap_or_else(|| "kernel".to_string()),
            iterations: v.get("iterations").and_then(|x| x.as_u64()).unwrap_or(10) as u32,
            population: v.get("population").and_then(|x| x.as_u64()).unwrap_or(6) as usize,
            seed: v.get("seed").and_then(|x| x.as_u64()).unwrap_or(42),
            large_scale: matches!(v.get("large_scale"), Some(serde_json::Value::Bool(true))),
            threads: v
                .get("threads")
                .and_then(|x| x.as_u64())
                .map(|n| n as usize),
            fault_rate: v.get("fault_rate").and_then(|x| x.as_f64()),
            fault_seed: v.get("fault_seed").and_then(|x| x.as_u64()),
            inject_panic: matches!(v.get("inject_panic"), Some(serde_json::Value::Bool(true))),
            noise_profile: str_field("noise_profile"),
            noise_seed: v.get("noise_seed").and_then(|x| x.as_u64()),
            racing: matches!(v.get("racing"), Some(serde_json::Value::Bool(true))),
        };
        if let Some(p) = &req.noise_profile {
            NoiseProfile::parse(p)
                .ok_or_else(|| format!("unknown noise profile `{p}` (want quiet|busy|storm)"))?;
        }
        req.to_spec()?; // validate app/pipeline/variant/strategy up front
        Ok(req)
    }

    /// Deterministic JSON rendering (the `{id}.meta.json` sidecar).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"tenant\":{}", quote(&self.tenant)));
        if let Some(n) = &self.name {
            s.push_str(&format!(",\"name\":{}", quote(n)));
        }
        s.push_str(&format!(",\"app\":{}", quote(&self.app)));
        s.push_str(&format!(",\"pipeline\":{}", quote(&self.pipeline)));
        if let Some(st) = &self.strategy {
            s.push_str(&format!(",\"strategy\":{}", quote(st)));
        }
        s.push_str(&format!(",\"variant\":{}", quote(&self.variant)));
        s.push_str(&format!(",\"iterations\":{}", self.iterations));
        s.push_str(&format!(",\"population\":{}", self.population));
        s.push_str(&format!(",\"seed\":{}", self.seed));
        s.push_str(&format!(",\"large_scale\":{}", self.large_scale));
        if let Some(t) = self.threads {
            s.push_str(&format!(",\"threads\":{t}"));
        }
        if let Some(r) = self.fault_rate {
            s.push_str(&format!(",\"fault_rate\":{r:?}"));
        }
        if let Some(fs) = self.fault_seed {
            s.push_str(&format!(",\"fault_seed\":{fs}"));
        }
        if self.inject_panic {
            s.push_str(",\"inject_panic\":true");
        }
        if let Some(p) = &self.noise_profile {
            s.push_str(&format!(",\"noise_profile\":{}", quote(p)));
        }
        if let Some(ns) = self.noise_seed {
            s.push_str(&format!(",\"noise_seed\":{ns}"));
        }
        if self.racing {
            s.push_str(",\"racing\":true");
        }
        s.push('}');
        s
    }

    /// Resolve to a runnable campaign. Errs with a human-readable reason
    /// for anything this build cannot host.
    pub fn to_spec(&self) -> Result<(CampaignSpec, Option<StrategyKind>), String> {
        let app = tunio_workloads::all_apps()
            .into_iter()
            .find(|a| a.name == self.app)
            .ok_or_else(|| format!("unknown application `{}`", self.app))?;
        let kind = match self.pipeline.as_str() {
            "tunio" => PipelineKind::TunIo,
            "hstuner" => PipelineKind::HsTunerNoStop,
            "hstuner-heuristic" => PipelineKind::HsTunerHeuristic,
            "impact-first" => PipelineKind::ImpactFirstOnly,
            "rl-stop" => PipelineKind::RlStopOnly,
            other => return Err(format!("unknown pipeline `{other}`")),
        };
        let variant = parse_variant(&self.variant)?;
        let strategy = match &self.strategy {
            Some(s) => Some(
                StrategyKind::parse(s)
                    .ok_or_else(|| format!("unknown strategy `{s}` (want ga|random|lhs|bo)"))?,
            ),
            None => None,
        };
        if self.iterations == 0 || self.population == 0 {
            return Err("iterations and population must be >= 1".to_string());
        }
        Ok((
            CampaignSpec {
                app,
                variant,
                kind,
                max_iterations: self.iterations,
                population: self.population,
                seed: self.seed,
                large_scale: self.large_scale,
            },
            strategy,
        ))
    }

    /// The warm-cache namespace this campaign's evaluations belong to.
    /// Two campaigns share memo entries only when the simulator would
    /// produce identical results for identical keys: same app, variant,
    /// simulator seed, and scale. Pipeline and strategy deliberately do
    /// NOT participate — they change which keys get evaluated, not what
    /// a key evaluates to.
    pub fn fingerprint(&self) -> String {
        let mut fp = format!(
            "{}|{}|{}|{}",
            self.app, self.variant, self.seed, self.large_scale
        );
        // Interference changes every run's report, so noisy campaigns
        // must never share warm entries with quiet ones (or with noisy
        // campaigns under a different profile or seed).
        if let Some(p) = &self.noise_profile {
            fp.push_str(&format!(
                "|noise={p}:{}",
                self.noise_seed.unwrap_or(self.seed)
            ));
        }
        fp
    }
}

fn parse_variant(v: &str) -> Result<Variant, String> {
    if v == "full" {
        Ok(Variant::Full)
    } else if v == "kernel" {
        Ok(Variant::Kernel)
    } else if let Some(frac) = v.strip_prefix("reduced:") {
        let keep_fraction: f64 = frac.parse().map_err(|_| format!("bad fraction `{frac}`"))?;
        if !(0.0..=1.0).contains(&keep_fraction) || keep_fraction == 0.0 {
            return Err("reduced fraction must be in (0, 1]".to_string());
        }
        Ok(Variant::ReducedKernel { keep_fraction })
    } else {
        Err(format!("unknown variant `{v}`"))
    }
}

/// `s` as a JSON string literal.
fn quote(s: &str) -> String {
    serde_json::to_string(s).expect("a string serializes")
}

/// An `{"error": msg}` response body.
fn error_body(msg: &str) -> String {
    format!("{{\"error\":{}}}", quote(msg))
}

/// Lifecycle of one submitted campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is running it.
    Running,
    /// Finished; outcome JSON is durable next to its WAL.
    Done,
    /// The campaign errored or its evaluator panicked. Everyone else
    /// keeps running.
    Failed,
}

impl CampaignState {
    fn label(&self) -> &'static str {
        match self {
            CampaignState::Queued => "queued",
            CampaignState::Running => "running",
            CampaignState::Done => "done",
            CampaignState::Failed => "failed",
        }
    }

    fn parse(label: &str) -> Option<CampaignState> {
        [
            CampaignState::Queued,
            CampaignState::Running,
            CampaignState::Done,
            CampaignState::Failed,
        ]
        .into_iter()
        .find(|s| s.label() == label)
    }
}

/// Daemon-side record of one campaign. Only queued and running
/// campaigns keep one in memory: a settled campaign's record moves to its
/// `{id}.status.json` sidecar in the WAL directory.
#[derive(Debug, Clone)]
pub struct CampaignRecord {
    /// `{tenant}--{name}`.
    pub id: String,
    /// The submission.
    pub request: CampaignRequest,
    /// Where it is in its lifecycle.
    pub state: CampaignState,
    /// Failure reason, when `Failed`.
    pub error: Option<String>,
    /// Whether this run continued an existing WAL (crash recovery).
    pub resumed: bool,
    /// Engine counters of the finished run. `sim_wall_s == 0.0` means
    /// every evaluation came from the tenant's warm cache or the WAL.
    pub counters: Option<EvalCounters>,
    /// Best tuned performance (B/s), when finished.
    pub best_perf: Option<f64>,
    /// Completed generations (recovered records report the WAL count).
    pub generations: u32,
    /// The campaign's trace id: a stable hash of the campaign id, so the
    /// same campaign resumes under the same trace across daemon
    /// restarts. Minted at submission, returned in the 202 body, and
    /// the root of every span the campaign emits.
    pub trace_id: u64,
    /// Span id reserved for the `serve.campaign` root span (opened
    /// logically at submission, emitted by the worker at completion).
    root_span_id: u64,
    /// Submission wall-clock in trace time (`trace::now_us`); the root
    /// span and queue-wait segment start here.
    submitted_us: u64,
    /// Timeline JSON frozen at completion, served by
    /// `GET /campaigns/{id}/timeline` once the campaign settles.
    timeline_json: Option<String>,
}

/// Stable trace id for a campaign id (FNV-1a 64): resubmitting or
/// resuming the same campaign keeps the same trace identity.
fn trace_id_for(id: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in id.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // The timeline store treats 0 as the synthetic window node.
    h.max(1)
}

impl CampaignRecord {
    fn fresh(id: &str, request: CampaignRequest) -> CampaignRecord {
        let trace_id = trace_id_for(id);
        let submitted_us = trace::now_us();
        trace::timeline::register(trace_id, submitted_us);
        CampaignRecord {
            id: id.to_string(),
            request,
            state: CampaignState::Queued,
            error: None,
            resumed: false,
            counters: None,
            best_perf: None,
            generations: 0,
            trace_id,
            root_span_id: trace::alloc_span_id(),
            submitted_us,
            timeline_json: None,
        }
    }

    /// Deterministic status JSON (the `GET /campaigns/{id}` body).
    pub fn status_json(&self) -> String {
        self.summary().status_json()
    }

    /// What the status, events and timeline endpoints render.
    fn summary(&self) -> Summary {
        Summary {
            id: self.id.clone(),
            trace_id: self.trace_id,
            tenant: self.request.tenant.clone(),
            state: self.state,
            resumed: self.resumed,
            generations: self.generations,
            error: self.error.clone(),
            best_perf: self.best_perf,
            counters: self
                .counters
                .map(|c| (c.evaluations, c.cache_hits, c.sim_wall_s)),
            timeline_json: self.timeline_json.clone(),
        }
    }
}

/// Everything the status, events and timeline endpoints render for one
/// campaign. A settled campaign keeps exactly this, as its
/// `{id}.status.json` sidecar, once its record leaves memory.
#[derive(Debug, Clone, PartialEq)]
struct Summary {
    id: String,
    trace_id: u64,
    tenant: String,
    state: CampaignState,
    resumed: bool,
    generations: u32,
    error: Option<String>,
    best_perf: Option<f64>,
    /// `(evaluations, cache_hits, sim_wall_s)` of the finished run.
    counters: Option<(u64, u64, f64)>,
    timeline_json: Option<String>,
}

impl Summary {
    fn status_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"id\":{}", quote(&self.id)));
        s.push_str(&format!(",\"trace_id\":\"{:016x}\"", self.trace_id));
        s.push_str(&format!(",\"tenant\":{}", quote(&self.tenant)));
        s.push_str(&format!(",\"state\":{}", quote(self.state.label())));
        s.push_str(&format!(",\"resumed\":{}", self.resumed));
        s.push_str(&format!(",\"generations\":{}", self.generations));
        match &self.error {
            Some(e) => s.push_str(&format!(",\"error\":{}", quote(e))),
            None => s.push_str(",\"error\":null"),
        }
        match self.best_perf {
            Some(p) => s.push_str(&format!(",\"best_perf\":{p:?}")),
            None => s.push_str(",\"best_perf\":null"),
        }
        match self.counters {
            Some((evaluations, cache_hits, sim_wall_s)) => s.push_str(&format!(
                ",\"counters\":{{\"evaluations\":{evaluations},\"cache_hits\":{cache_hits},\
                 \"sim_wall_s\":{sim_wall_s:?}}}"
            )),
            None => s.push_str(",\"counters\":null"),
        }
        s.push('}');
        s
    }

    /// The event stream: lifecycle events framed around per-generation
    /// progress read straight from the WAL.
    fn events(&self, wal: &Path) -> Vec<String> {
        let mut lines: Vec<String> = Vec::new();
        lines.push(format!(
            "{{\"event\":\"submitted\",\"id\":{},\"tenant\":{}}}",
            quote(&self.id),
            quote(&self.tenant)
        ));
        if self.resumed {
            lines.push("{\"event\":\"resumed\"}".to_string());
        }
        if self.state != CampaignState::Queued {
            lines.push("{\"event\":\"started\"}".to_string());
        }
        if let Ok((_, generations)) = load(wal) {
            for g in &generations {
                lines.push(format!(
                    "{{\"event\":\"generation\",\"iteration\":{},\"best_perf\":{:?},\"cost_s\":{:?}}}",
                    g.record.iteration, g.record.best_perf, g.record.cost_s
                ));
            }
        }
        match self.state {
            CampaignState::Done => lines.push(format!(
                "{{\"event\":\"done\",\"best_perf\":{:?}}}",
                self.best_perf.unwrap_or(f64::NAN)
            )),
            CampaignState::Failed => lines.push(format!(
                "{{\"event\":\"failed\",\"error\":{}}}",
                quote(self.error.as_deref().unwrap_or("unknown"))
            )),
            _ => {}
        }
        lines
    }

    /// The `{id}.status.json` sidecar. Floats print in shortest
    /// round-trip form and the timeline is kept as its exact body, so
    /// [`Summary::from_json`] restores every rendered byte.
    fn to_json(&self) -> String {
        use serde_json::Value;
        let opt = |v: Option<Value>| v.unwrap_or(Value::Null);
        let counters = self.counters.map(|(evaluations, cache_hits, sim_wall_s)| {
            Value::Object(vec![
                ("evaluations".to_string(), Value::UInt(evaluations)),
                ("cache_hits".to_string(), Value::UInt(cache_hits)),
                ("sim_wall_s".to_string(), Value::Float(sim_wall_s)),
            ])
        });
        let obj = Value::Object(vec![
            ("id".to_string(), Value::String(self.id.clone())),
            (
                "trace_id".to_string(),
                Value::String(format!("{:016x}", self.trace_id)),
            ),
            ("tenant".to_string(), Value::String(self.tenant.clone())),
            (
                "state".to_string(),
                Value::String(self.state.label().to_string()),
            ),
            ("resumed".to_string(), Value::Bool(self.resumed)),
            (
                "generations".to_string(),
                Value::UInt(u64::from(self.generations)),
            ),
            (
                "error".to_string(),
                opt(self.error.clone().map(Value::String)),
            ),
            (
                "best_perf".to_string(),
                opt(self.best_perf.map(Value::Float)),
            ),
            ("counters".to_string(), opt(counters)),
            (
                "timeline".to_string(),
                opt(self.timeline_json.clone().map(Value::String)),
            ),
        ]);
        serde_json::to_string(&obj).expect("summary serializes")
    }

    fn from_json(text: &str) -> Option<Summary> {
        let v: serde_json::Value = serde_json::from_str(text).ok()?;
        let text_of = |key: &str| v.get(key).and_then(|x| x.as_str()).map(str::to_string);
        let counters = match v.get("counters") {
            Some(serde_json::Value::Null) | None => None,
            Some(c) => Some((
                c.get("evaluations")?.as_u64()?,
                c.get("cache_hits")?.as_u64()?,
                c.get("sim_wall_s")?.as_f64()?,
            )),
        };
        Some(Summary {
            id: text_of("id")?,
            trace_id: u64::from_str_radix(&text_of("trace_id")?, 16).ok()?,
            tenant: text_of("tenant")?,
            state: CampaignState::parse(&text_of("state")?)?,
            resumed: match v.get("resumed")? {
                serde_json::Value::Bool(b) => *b,
                _ => return None,
            },
            generations: u32::try_from(v.get("generations")?.as_u64()?).ok()?,
            error: text_of("error"),
            best_perf: v.get("best_perf").and_then(|x| x.as_f64()),
            counters,
            timeline_json: text_of("timeline"),
        })
    }
}

/// Per-tenant warm cache: tenant → campaign fingerprint → key → entry.
type WarmCache = HashMap<String, HashMap<String, HashMap<Vec<usize>, CacheEntry>>>;

struct Shared {
    config: ServeConfig,
    records: Mutex<BTreeMap<String, CampaignRecord>>,
    queue: Mutex<VecDeque<String>>,
    queue_cv: Condvar,
    draining: AtomicBool,
    seq: AtomicU64,
    warm: Mutex<WarmCache>,
    /// Pretrained agents shared by every tenant: they hold no tenant
    /// data, unlike `warm`.
    pretrain: Arc<PretrainCache>,
}

impl Shared {
    fn wal_path(&self, id: &str) -> PathBuf {
        self.config.wal_dir.join(format!("{id}.jsonl"))
    }

    fn outcome_path(&self, id: &str) -> PathBuf {
        self.config.wal_dir.join(format!("{id}.outcome.json"))
    }

    fn meta_path(&self, id: &str) -> PathBuf {
        self.config.wal_dir.join(format!("{id}.meta.json"))
    }

    fn status_path(&self, id: &str) -> PathBuf {
        self.config.wal_dir.join(format!("{id}.status.json"))
    }

    /// A campaign's summary: from memory while it is queued, running or
    /// settling, else from its status sidecar. Memory is read first and
    /// a record leaves memory only after its sidecar is written, so a
    /// settled campaign is always found in one of the two.
    fn summary(&self, id: &str) -> Option<Summary> {
        if let Some(record) = lock(&self.records).get(id) {
            return Some(record.summary());
        }
        if !id_ok(id) {
            return None;
        }
        let text = std::fs::read_to_string(self.status_path(id)).ok()?;
        Summary::from_json(&text)
    }

    fn log(&self, line: &str) {
        if !self.config.quiet {
            eprintln!("tunio-serve: {line}");
        }
    }
}

/// Durable write: temp file in the same directory, then rename.
fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

// ---------------------------------------------------------------------------
// Admission
// ---------------------------------------------------------------------------

/// Admission outcome: HTTP status + JSON body.
type Reply = (u16, String);

fn submit(shared: &Arc<Shared>, req: CampaignRequest) -> Reply {
    if shared.draining.load(Ordering::SeqCst) {
        return (503, "{\"error\":\"draining\"}".to_string());
    }
    let tenant = req.tenant.clone();
    let name = match &req.name {
        Some(n) => n.clone(),
        None => format!("c{:04}", shared.seq.fetch_add(1, Ordering::SeqCst)),
    };
    let id = format!("{tenant}--{name}");
    {
        let mut records = lock(&shared.records);
        if records.contains_key(&id) || shared.status_path(&id).exists() {
            return (409, error_body(&format!("campaign {id} already exists")));
        }
        // Settled records leave memory, but one may still be settling.
        let active = records
            .values()
            .filter(|r| {
                r.request.tenant == tenant
                    && matches!(r.state, CampaignState::Queued | CampaignState::Running)
            })
            .count();
        if active >= shared.config.max_active_per_tenant {
            trace::labeled_counter("tunio.serve.rejected_quota", &[("tenant", &tenant)]).inc(1);
            return (
                429,
                error_body(&format!(
                    "tenant {tenant} already has {active} active campaigns (limit {})",
                    shared.config.max_active_per_tenant
                )),
            );
        }
        let queued = lock(&shared.queue).len();
        if queued >= shared.config.max_queue {
            return (
                503,
                format!(
                    "{{\"error\":\"queue full ({queued}/{})\"}}",
                    shared.config.max_queue
                ),
            );
        }
        // The meta sidecar lets a restarted daemon re-enqueue campaigns
        // that were accepted but never started a WAL before the crash.
        if let Err(e) = write_atomic(&shared.meta_path(&id), &req.to_json()) {
            return (500, error_body(&format!("cannot persist request: {e}")));
        }
        records.insert(id.clone(), CampaignRecord::fresh(&id, req));
        lock(&shared.queue).push_back(id.clone());
    }
    shared.queue_cv.notify_one();
    trace::labeled_counter("tunio.serve.submitted", &[("tenant", &tenant)]).inc(1);
    (
        202,
        format!(
            "{{\"id\":{},\"trace_id\":\"{:016x}\",\"state\":\"queued\"}}",
            quote(&id),
            trace_id_for(&id)
        ),
    )
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let next = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(id) = q.pop_front() {
                    break Some(id);
                }
                if shared.draining.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _) = shared
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(100))
                    .unwrap_or_else(PoisonError::into_inner);
                q = guard;
            }
        };
        match next {
            Some(id) => execute(shared, &id),
            None => break,
        }
    }
}

fn execute(shared: &Arc<Shared>, id: &str) {
    let wal = shared.wal_path(id);
    let resumed = wal.exists();
    let picked = {
        let mut records = lock(&shared.records);
        records.get_mut(id).map(|record| {
            // `resumed` must become visible atomically with `Running`:
            // the events endpoint derives its line sequence from both,
            // and setting them in two steps would let a tailing client
            // see a "started" line whose position later shifts when the
            // "resumed" line lands in front of it (skipped/repeated
            // lines under `from=N` pagination).
            record.state = CampaignState::Running;
            if resumed {
                record.resumed = true;
            }
            (
                record.request.clone(),
                record.trace_id,
                record.root_span_id,
                record.submitted_us,
            )
        })
    };
    let Some((request, trace_id, root_span_id, submitted_us)) = picked else {
        return;
    };
    if resumed {
        trace::labeled_counter("tunio.serve.resumed", &[("tenant", &request.tenant)]).inc(1);
    }
    // Queue-wait span: submission → worker pickup, hanging directly off
    // the campaign's root span (which is emitted at completion).
    let picked_up_us = trace::now_us();
    trace::emit_span_at(
        "serve.queue_wait",
        trace_id,
        trace::alloc_span_id(),
        Some(root_span_id),
        submitted_us,
        picked_up_us,
        vec![("id", id.into())],
    );
    {
        // Everything the campaign emits parents under the serve root.
        let _ctx = trace::with_context(Some(trace::SpanContext {
            trace_id,
            span_id: root_span_id,
        }));
        run_admitted(shared, id, &request, &wal);
    }
    // Close the root span (freezing the trace's overhead accumulator),
    // freeze the timeline for the status endpoint, and release the live
    // store entry.
    let end_us = trace::now_us();
    let state = lock(&shared.records)
        .get(id)
        .map(|r| r.state.label())
        .unwrap_or("unknown");
    trace::emit_span_at(
        "serve.campaign",
        trace_id,
        root_span_id,
        None,
        submitted_us,
        end_us,
        vec![("id", id.into()), ("state", state.into())],
    );
    if let Some(t) = trace::timeline::snapshot(trace_id, end_us) {
        let mut records = lock(&shared.records);
        if let Some(record) = records.get_mut(id) {
            record.timeline_json = Some(t.to_json());
        }
    }
    evict(shared, id);
    trace::timeline::forget(trace_id);
}

/// Move a settled campaign out of memory: write its `{id}.status.json`
/// sidecar, then drop the record (see [`Shared::summary`] for why this
/// order never lets a poll miss it). A campaign whose sidecar cannot be
/// written stays in memory.
fn evict(shared: &Arc<Shared>, id: &str) {
    let Some(summary) = lock(&shared.records).get(id).map(CampaignRecord::summary) else {
        return;
    };
    match write_atomic(&shared.status_path(id), &summary.to_json()) {
        Ok(()) => {
            lock(&shared.records).remove(id);
        }
        Err(e) => shared.log(&format!(
            "keeping {id} in memory: cannot persist status: {e}"
        )),
    }
}

fn run_admitted(shared: &Arc<Shared>, id: &str, request: &CampaignRequest, wal: &Path) {
    let tenant = request.tenant.clone();
    let (spec, strategy) = match request.to_spec() {
        Ok(parts) => parts,
        Err(e) => {
            finish_failed(shared, id, &tenant, &e);
            return;
        }
    };
    // Warm-start from the tenant's own namespace only. Entries from the
    // WAL win (preloaded first inside the campaign), so a resume is
    // bitwise-faithful even when the warm cache has newer data.
    let preload: Vec<CacheEntry> = {
        let warm = lock(&shared.warm);
        warm.get(&tenant)
            .and_then(|per_fp| per_fp.get(&request.fingerprint()))
            .map(|entries| entries.values().cloned().collect())
            .unwrap_or_default()
    };
    let warm_count = preload.len();
    let opts = CampaignOptions {
        checkpoint: Some(wal.to_path_buf()),
        resume: true,
        fault_plan: request
            .fault_rate
            .map(|rate| FaultPlan::chaos(request.fault_seed.unwrap_or(request.seed), rate)),
        policy: None,
        abort_after: None,
        threads: request.threads,
        warm_start: None,
        preload,
        noise_profile: request
            .noise_profile
            .as_deref()
            .and_then(NoiseProfile::parse),
        noise_seed: request.noise_seed,
        racing: request.racing.then(RacingConfig::default),
        pretrain_cache: Some(shared.pretrain.clone()),
    };
    // The panic boundary. An evaluator panic (or the inject_panic drill)
    // unwinds to here, fails this one campaign, and the worker moves on.
    let result = catch_unwind(AssertUnwindSafe(|| {
        if request.inject_panic {
            panic!("injected panic drill (inject_panic=true)");
        }
        run_strategy_campaign_opts(&spec, strategy.unwrap_or(StrategyKind::Ga), &opts)
    }));
    match result {
        Ok(Ok(outcome)) => {
            let json = outcome_json(&outcome);
            if let Err(e) = write_atomic(&shared.outcome_path(id), &json) {
                finish_failed(shared, id, &tenant, &format!("cannot persist outcome: {e}"));
                return;
            }
            harvest_wal(shared, &tenant, &request.fingerprint(), wal);
            {
                let mut records = lock(&shared.records);
                if let Some(record) = records.get_mut(id) {
                    record.state = CampaignState::Done;
                    record.counters = Some(outcome.counters);
                    record.best_perf = Some(outcome.trace.best_perf);
                    record.generations = outcome.trace.records.len() as u32;
                }
            }
            trace::labeled_counter("tunio.serve.completed", &[("tenant", &tenant)]).inc(1);
            if warm_count > 0 && outcome.counters.sim_wall_s == 0.0 {
                trace::labeled_counter("tunio.serve.fully_warm_runs", &[("tenant", &tenant)])
                    .inc(1);
            }
            shared.log(&format!(
                "campaign {id} done ({} generations, {} warm entries preloaded)",
                outcome.trace.records.len(),
                warm_count
            ));
        }
        Ok(Err(e)) => finish_failed(shared, id, &tenant, &e.to_string()),
        Err(payload) => {
            trace::counter("tunio.serve.worker_panics").inc(1);
            let msg: &str = if let Some(s) = payload.downcast_ref::<&str>() {
                s
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s
            } else {
                "non-string panic payload"
            };
            finish_failed(shared, id, &tenant, &format!("evaluator panicked: {msg}"));
        }
    }
}

fn finish_failed(shared: &Arc<Shared>, id: &str, tenant: &str, why: &str) {
    {
        let mut records = lock(&shared.records);
        if let Some(record) = records.get_mut(id) {
            record.state = CampaignState::Failed;
            record.error = Some(why.to_string());
        }
    }
    trace::labeled_counter("tunio.serve.failed", &[("tenant", tenant)]).inc(1);
    shared.log(&format!("campaign {id} failed: {why}"));
}

/// Fold a finished campaign's WAL cache entries into its tenant's warm
/// cache so the tenant's next identical campaign replays them instead of
/// touching the simulator. First write wins on key collisions — entries
/// for one fingerprint are deterministic, so collisions are identical.
fn harvest_wal(shared: &Arc<Shared>, tenant: &str, fingerprint: &str, wal: &Path) {
    let Ok((_, generations)) = load(wal) else {
        return;
    };
    let mut warm = lock(&shared.warm);
    let entries = warm
        .entry(tenant.to_string())
        .or_default()
        .entry(fingerprint.to_string())
        .or_default();
    let mut added = 0u64;
    for generation in generations {
        for entry in generation.entries {
            if !entries.contains_key(&entry.key) {
                entries.insert(entry.key.clone(), entry);
                added += 1;
            }
        }
    }
    if added > 0 {
        trace::labeled_counter("tunio.serve.warm_entries", &[("tenant", tenant)]).inc(added);
    }
}

// ---------------------------------------------------------------------------
// Startup recovery
// ---------------------------------------------------------------------------

fn recover(shared: &Arc<Shared>) -> std::io::Result<()> {
    let scan = scan_dir(&shared.config.wal_dir, |h: &CheckpointHeader| {
        spec_from_header(h).map(|_| ())
    })?;
    for q in scan.quarantined {
        // The trace file may live inside the WAL directory; it is ours,
        // not an alien campaign WAL — never quarantine it.
        if shared.config.trace_path.as_deref() == Some(q.path.as_path()) {
            continue;
        }
        let target = q.path.with_extension("jsonl.quarantined");
        let _ = std::fs::rename(&q.path, &target);
        trace::counter("tunio.serve.quarantined_wals").inc(1);
        shared.log(&format!(
            "quarantined {} -> {}: {}",
            q.path.display(),
            target.display(),
            q.reason
        ));
    }
    let mut to_queue: Vec<String> = Vec::new();
    let mut finished: HashSet<String> = HashSet::new();
    for wal in scan.resumable {
        let Some(id) = wal
            .path
            .file_stem()
            .and_then(|s| s.to_str())
            .map(String::from)
        else {
            continue;
        };
        let request = match recover_request(shared, &id, &wal.header) {
            Ok(r) => r,
            Err(why) => {
                shared.log(&format!("cannot reconstruct request for {id}: {why}"));
                continue;
            }
        };
        if shared.outcome_path(&id).exists() {
            // Finished before the previous shutdown: the outcome file is
            // durable, so recycle its entries. It stays on disk; a WAL
            // directory from before status sidecars gets one now.
            harvest_wal(shared, &request.tenant, &request.fingerprint(), &wal.path);
            if !shared.status_path(&id).exists() {
                let best_perf = load(&wal.path)
                    .ok()
                    .and_then(|(_, generations)| generations.last().map(|g| g.record.best_perf));
                let summary = Summary {
                    id: id.clone(),
                    trace_id: trace_id_for(&id),
                    tenant: request.tenant.clone(),
                    state: CampaignState::Done,
                    resumed: false,
                    generations: wal.generations as u32,
                    error: None,
                    best_perf,
                    counters: None,
                    timeline_json: None,
                };
                write_atomic(&shared.status_path(&id), &summary.to_json())?;
            }
            shared.log(&format!("recovered finished campaign {id}"));
            finished.insert(id);
            continue;
        }
        let mut record = CampaignRecord::fresh(&id, request);
        record.generations = wal.generations as u32;
        record.resumed = true;
        to_queue.push(id.clone());
        shared.log(&format!(
            "resuming campaign {id} ({} generations in WAL)",
            wal.generations
        ));
        lock(&shared.records).insert(id, record);
    }
    // Accepted-but-never-started campaigns: a meta sidecar with no WAL.
    let mut meta_ids: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(&shared.config.wal_dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|s| s.to_str()) else {
            continue;
        };
        if let Some(id) = name.strip_suffix(".meta.json") {
            meta_ids.push(id.to_string());
        }
    }
    meta_ids.sort();
    for id in meta_ids {
        if finished.contains(&id) || lock(&shared.records).contains_key(&id) {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(shared.meta_path(&id)) else {
            continue;
        };
        let Ok(value) = serde_json::from_str::<serde_json::Value>(&text) else {
            shared.log(&format!("unreadable meta sidecar for {id}, skipping"));
            continue;
        };
        match CampaignRequest::from_json(&value) {
            Ok(request) => {
                lock(&shared.records).insert(id.clone(), CampaignRecord::fresh(&id, request));
                to_queue.push(id.clone());
                shared.log(&format!("re-enqueued never-started campaign {id}"));
            }
            Err(why) => shared.log(&format!("stale meta sidecar for {id}: {why}")),
        }
    }
    for id in to_queue {
        lock(&shared.queue).push_back(id);
        shared.queue_cv.notify_one();
    }
    Ok(())
}

/// Rebuild a submission for a recovered WAL: prefer its meta sidecar,
/// else invert the WAL header (tenant comes from the id's `{tenant}--`
/// prefix, or `recovered` for foreign ids).
fn recover_request(
    shared: &Arc<Shared>,
    id: &str,
    header: &CheckpointHeader,
) -> Result<CampaignRequest, String> {
    if let Ok(text) = std::fs::read_to_string(shared.meta_path(id)) {
        if let Ok(value) = serde_json::from_str::<serde_json::Value>(&text) {
            if let Ok(request) = CampaignRequest::from_json(&value) {
                return Ok(request);
            }
        }
    }
    let (spec, strategy) = spec_from_header(header)?;
    let tenant = id
        .split_once("--")
        .map(|(t, _)| t.to_string())
        .filter(|t| ident_ok(t))
        .unwrap_or_else(|| "recovered".to_string());
    Ok(CampaignRequest {
        tenant,
        name: None,
        app: spec.app.name.clone(),
        pipeline: match spec.kind {
            PipelineKind::TunIo => "tunio",
            PipelineKind::HsTunerNoStop => "hstuner",
            PipelineKind::HsTunerHeuristic => "hstuner-heuristic",
            PipelineKind::ImpactFirstOnly => "impact-first",
            PipelineKind::RlStopOnly => "rl-stop",
        }
        .to_string(),
        strategy: Some(strategy.label().to_string()),
        variant: match spec.variant {
            Variant::Full => "full".to_string(),
            Variant::Kernel => "kernel".to_string(),
            Variant::ReducedKernel { keep_fraction } => format!("reduced:{keep_fraction}"),
        },
        iterations: spec.max_iterations,
        population: spec.population,
        seed: spec.seed,
        large_scale: spec.large_scale,
        threads: None,
        fault_rate: None,
        fault_seed: None,
        inject_panic: false,
        noise_profile: None,
        noise_seed: None,
        racing: false,
    })
}

// ---------------------------------------------------------------------------
// HTTP surface
// ---------------------------------------------------------------------------

/// The daemon's routes. Every route but `/metrics` and the event stream
/// answers JSON.
fn handle_request(shared: &Arc<Shared>, req: &Request) -> Response {
    let (status, body) = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/metrics") => return trace::metrics_response(),
        ("GET", "/healthz") => (200, "{\"status\":\"ok\"}".to_string()),
        ("POST", "/drain") => {
            shared.draining.store(true, Ordering::SeqCst);
            shared.queue_cv.notify_all();
            (200, "{\"state\":\"draining\"}".to_string())
        }
        ("POST", "/campaigns") => {
            let body = String::from_utf8_lossy(&req.body);
            match serde_json::from_str::<serde_json::Value>(&body) {
                Err(e) => (400, error_body(&format!("bad JSON: {e}"))),
                Ok(value) => match CampaignRequest::from_json(&value) {
                    Ok(request) => submit(shared, request),
                    Err(why) => (400, error_body(&why)),
                },
            }
        }
        ("GET", "/campaigns") => {
            let filter = req.query_get("tenant");
            let items: Vec<String> = list(shared)
                .values()
                .filter(|s| filter.is_none_or(|t| s.tenant == t))
                .map(Summary::status_json)
                .collect();
            (200, format!("[{}]", items.join(",")))
        }
        ("GET", path) if path.starts_with("/campaigns/") => {
            let rest = &path["/campaigns/".len()..];
            if let Some(id) = rest.strip_suffix("/events") {
                let from: usize = req
                    .query_get("from")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0);
                let (status, body) = events_reply(shared, id, from);
                return (status, NDJSON, body);
            } else if let Some(id) = rest.strip_suffix("/timeline") {
                timeline_reply(shared, id)
            } else {
                match shared.summary(rest) {
                    Some(s) => (200, s.status_json()),
                    None => (404, "{\"error\":\"no such campaign\"}".to_string()),
                }
            }
        }
        _ => (404, "{\"error\":\"no such endpoint\"}".to_string()),
    };
    (status, JSON, body)
}

/// Every campaign by id: the in-memory records, then the status
/// sidecars of the settled ones (memory is read first, for the same
/// reason as in [`Shared::summary`]).
fn list(shared: &Arc<Shared>) -> BTreeMap<String, Summary> {
    let mut all: BTreeMap<String, Summary> = lock(&shared.records)
        .values()
        .map(|r| (r.id.clone(), r.summary()))
        .collect();
    let Ok(dir) = std::fs::read_dir(&shared.config.wal_dir) else {
        return all;
    };
    for entry in dir.flatten() {
        let name = entry.file_name();
        let Some(id) = name.to_str().and_then(|n| n.strip_suffix(".status.json")) else {
            continue;
        };
        if all.contains_key(id) {
            continue;
        }
        if let Some(summary) = std::fs::read_to_string(entry.path())
            .ok()
            .and_then(|text| Summary::from_json(&text))
        {
            all.insert(id.to_string(), summary);
        }
    }
    all
}

/// The event stream for one campaign as JSONL; `from=N` skips the first
/// N lines so clients can tail.
fn events_reply(shared: &Arc<Shared>, id: &str, from: usize) -> Reply {
    let Some(summary) = shared.summary(id) else {
        return (404, "{\"error\":\"no such campaign\"}".to_string());
    };
    let body: String = summary
        .events(&shared.wal_path(id))
        .into_iter()
        .skip(from)
        .map(|l| l + "\n")
        .collect();
    (200, body)
}

/// The wall-clock breakdown for one campaign: the frozen timeline once
/// it settled, a live reconstruction from the span store while it is
/// still queued or running.
fn timeline_reply(shared: &Arc<Shared>, id: &str) -> Reply {
    let Some(summary) = shared.summary(id) else {
        return (404, "{\"error\":\"no such campaign\"}".to_string());
    };
    if let Some(json) = summary.timeline_json {
        return (200, json);
    }
    match trace::timeline::snapshot(summary.trace_id, trace::now_us()) {
        Some(t) => (200, t.to_json()),
        None => (
            404,
            "{\"error\":\"no timeline for this campaign\"}".to_string(),
        ),
    }
}

// ---------------------------------------------------------------------------
// Daemon lifecycle
// ---------------------------------------------------------------------------

/// A running `tunio-serve` instance: HTTP listener + campaign workers.
///
/// Shut down with [`Daemon::drain_and_join`] (graceful: queued work
/// finishes, new submissions get 503). Dropping only stops the listener;
/// an abrupt kill is always safe — that is what the WAL recovery path
/// is for.
pub struct Daemon {
    shared: Arc<Shared>,
    server: Server,
    worker_handles: Vec<JoinHandle<()>>,
    /// Whether this daemon installed the global trace sink (and so must
    /// flush and clear it when it drains).
    owns_sink: bool,
}

impl Daemon {
    /// Boot: create the WAL directory, recover every campaign found in
    /// it, start serving HTTP, start the worker pool.
    pub fn start(config: ServeConfig) -> std::io::Result<Daemon> {
        std::fs::create_dir_all(&config.wal_dir)?;
        let owns_sink = if let Some(path) = &config.trace_path {
            trace::set_sink(Arc::new(trace::JsonlSink::create(path)?));
            true
        } else {
            false
        };
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            config,
            records: Mutex::new(BTreeMap::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            warm: Mutex::new(HashMap::new()),
            pretrain: Arc::new(PretrainCache::new()),
        });
        recover(&shared)?;
        let routes = shared.clone();
        let server = Server::serve(&shared.config.addr, move |req| handle_request(&routes, req))?;
        let worker_handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("tunio-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let addr = server.addr();
        shared.log(&format!(
            "listening on {addr} ({} workers, WAL dir {})",
            workers,
            shared.config.wal_dir.display()
        ));
        Ok(Daemon {
            shared,
            server,
            worker_handles,
            owns_sink,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The pretraining cache every campaign of this daemon draws from.
    pub fn pretrain_cache(&self) -> &PretrainCache {
        &self.shared.pretrain
    }

    /// Campaigns whose records are in memory, by id: the queued and
    /// running ones (a settled campaign leaves memory as soon as its
    /// status sidecar is written).
    pub fn resident(&self) -> Vec<(String, CampaignState)> {
        lock(&self.shared.records)
            .values()
            .map(|r| (r.id.clone(), r.state))
            .collect()
    }

    /// Start a graceful drain: refuse new submissions, let queued and
    /// running campaigns finish.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
    }

    /// Whether a drain has been requested (via [`Daemon::drain`] or
    /// `POST /drain`).
    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Drain and block until every worker has exited, then stop the
    /// listener. Campaigns still queued when the drain starts DO run.
    pub fn drain_and_join(&mut self) {
        self.drain();
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
        self.server.shutdown();
        if self.owns_sink {
            // Flush the JSONL trace so offline reconstruction sees every
            // span the drained campaigns emitted.
            trace::clear_sink();
            self.owns_sink = false;
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only the listener (the server field stops on drop): workers
        // may be mid-campaign, and killing a campaign abruptly is exactly
        // what the WAL makes safe.
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(json: &str) -> serde_json::Value {
        serde_json::from_str(json).expect("valid json")
    }

    #[test]
    fn request_parses_with_defaults() {
        let req =
            CampaignRequest::from_json(&value("{\"tenant\":\"alice\",\"app\":\"hacc\"}")).unwrap();
        assert_eq!(req.pipeline, "tunio");
        assert_eq!(req.variant, "kernel");
        assert_eq!(req.iterations, 10);
        assert_eq!(req.population, 6);
        assert_eq!(req.seed, 42);
        assert!(!req.inject_panic);
        let (spec, strategy) = req.to_spec().unwrap();
        assert_eq!(spec.kind, PipelineKind::TunIo);
        assert!(strategy.is_none());
    }

    #[test]
    fn request_rejects_what_the_build_cannot_host() {
        for (body, needle) in [
            ("{\"app\":\"hacc\"}", "tenant"),
            ("{\"tenant\":\"a\",\"app\":\"nope\"}", "unknown application"),
            (
                "{\"tenant\":\"a\",\"app\":\"hacc\",\"pipeline\":\"x\"}",
                "unknown pipeline",
            ),
            (
                "{\"tenant\":\"a\",\"app\":\"hacc\",\"strategy\":\"x\"}",
                "unknown strategy",
            ),
            (
                "{\"tenant\":\"a\",\"app\":\"hacc\",\"variant\":\"x\"}",
                "unknown variant",
            ),
            (
                "{\"tenant\":\"bad tenant!\",\"app\":\"hacc\"}",
                "bad tenant",
            ),
        ] {
            let err = CampaignRequest::from_json(&value(body)).unwrap_err();
            assert!(err.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn request_meta_json_round_trips() {
        let req = CampaignRequest::from_json(&value(
            "{\"tenant\":\"t1\",\"name\":\"n\",\"app\":\"vpic\",\"pipeline\":\"hstuner\",\
             \"strategy\":\"bo\",\"variant\":\"reduced:0.25\",\"iterations\":7,\
             \"population\":5,\"seed\":9,\"large_scale\":true,\"threads\":3,\
             \"fault_rate\":0.1,\"fault_seed\":4,\"inject_panic\":true}",
        ))
        .unwrap();
        let reparsed = CampaignRequest::from_json(&value(&req.to_json())).unwrap();
        assert_eq!(format!("{reparsed:?}"), format!("{req:?}"));
    }

    #[test]
    fn noisy_request_round_trips_and_namespaces_the_warm_cache() {
        let req = CampaignRequest::from_json(&value(
            "{\"tenant\":\"t1\",\"app\":\"hacc\",\"strategy\":\"random\",\
             \"noise_profile\":\"storm\",\"noise_seed\":7,\"racing\":true}",
        ))
        .unwrap();
        assert_eq!(req.noise_profile.as_deref(), Some("storm"));
        assert_eq!(req.noise_seed, Some(7));
        assert!(req.racing);
        let reparsed = CampaignRequest::from_json(&value(&req.to_json())).unwrap();
        assert_eq!(format!("{reparsed:?}"), format!("{req:?}"));

        // Interference changes every run report, so a noisy submission
        // must never share warm-cache entries with a quiet one (or with
        // a different noise seed).
        let quiet =
            CampaignRequest::from_json(&value("{\"tenant\":\"t1\",\"app\":\"hacc\"}")).unwrap();
        assert_ne!(req.fingerprint(), quiet.fingerprint());
        let mut reseeded = req.clone();
        reseeded.noise_seed = Some(8);
        assert_ne!(req.fingerprint(), reseeded.fingerprint());
    }

    #[test]
    fn racing_is_accepted_on_the_default_backend() {
        // Racing runs on every backend, the default GA included: a
        // submission without `strategy` keeps its racing flag through
        // the meta sidecar a restarted daemon re-enqueues it from.
        let req = CampaignRequest::from_json(&value(
            "{\"tenant\":\"t\",\"app\":\"hacc\",\"racing\":true}",
        ))
        .unwrap();
        assert!(req.racing);
        assert!(req.strategy.is_none());
        let sidecar = req.to_json();
        assert!(sidecar.contains("\"racing\":true"), "{sidecar}");
        let reparsed = CampaignRequest::from_json(&value(&sidecar)).unwrap();
        assert_eq!(format!("{reparsed:?}"), format!("{req:?}"));
        let err = CampaignRequest::from_json(&value(
            "{\"tenant\":\"t\",\"app\":\"hacc\",\"noise_profile\":\"gale\"}",
        ))
        .unwrap_err();
        assert!(err.contains("noise"), "{err}");
    }

    #[test]
    fn summary_sidecar_restores_every_rendered_byte() {
        let mut record = CampaignRecord::fresh(
            "t--a.b",
            CampaignRequest::from_json(&value("{\"tenant\":\"t\",\"app\":\"hacc\"}")).unwrap(),
        );
        record.state = CampaignState::Failed;
        record.resumed = true;
        record.generations = 7;
        record.error = Some("evaluator \"x\" panicked:\n\tbad \\ path".to_string());
        record.best_perf = Some(0.1 + 0.2);
        record.counters = Some(EvalCounters {
            evaluations: 41,
            cache_hits: 3,
            charged_cost_s: 9.5,
            sim_wall_s: 1.0 / 3.0,
        });
        record.timeline_json = Some("{\"trace_id\":\"00ff\",\"share\":0.1}".to_string());
        let wal = Path::new("no-such-wal.jsonl");
        for state in [CampaignState::Failed, CampaignState::Done] {
            record.state = state;
            let summary = record.summary();
            let restored = Summary::from_json(&summary.to_json()).expect("sidecar parses");
            assert_eq!(restored, summary);
            assert_eq!(restored.status_json(), record.status_json());
            assert_eq!(restored.events(wal), summary.events(wal));
        }
        record.best_perf = None;
        record.counters = None;
        record.error = None;
        record.timeline_json = None;
        let summary = record.summary();
        assert_eq!(Summary::from_json(&summary.to_json()), Some(summary));
        assert_eq!(Summary::from_json("{\"id\":1}"), None);
    }

    #[test]
    fn fingerprint_ignores_pipeline_and_strategy() {
        let a = CampaignRequest::from_json(&value("{\"tenant\":\"t\",\"app\":\"hacc\"}")).unwrap();
        let mut b = a.clone();
        b.pipeline = "hstuner".to_string();
        b.strategy = Some("random".to_string());
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        c.seed = 43;
        assert_ne!(a.fingerprint(), c.fingerprint());
    }
}
