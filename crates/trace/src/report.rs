//! Replay a JSON-lines trace into a human-readable campaign summary.
//!
//! This is the library behind the `tunio-report` binary: it parses the
//! records emitted by the instrumented pipeline (see the DESIGN.md trace
//! section for the emission map) and renders per-generation timing, the
//! RoTI curve, cache hit rate and the stop reason.

use crate::sink::record_from_json;
use crate::{FieldValue, Record};
use std::collections::HashMap;

/// Bytes per megabyte (perf fields are bytes/s; reports show MB/s).
const MB: f64 = 1_000_000.0;

/// One generation row reconstructed from a `search.window` span (one
/// per closed scheduler window, for every search backend).
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationRow {
    /// Generation number (1-based).
    pub iteration: u64,
    /// Best perf so far, bytes/s.
    pub best_perf: f64,
    /// Best perf within the generation, bytes/s.
    pub generation_best_perf: f64,
    /// Simulated tuning cost charged this generation, seconds.
    pub cost_s: f64,
    /// Cumulative simulated tuning cost, seconds.
    pub cumulative_cost_s: f64,
    /// Parameter-subset size tuned this generation.
    pub subset_size: u64,
    /// Real wall time of the generation (span duration), microseconds.
    pub wall_us: u64,
    /// Faults the simulator injected during this generation.
    pub faults: u64,
    /// Evaluation attempts retried during this generation.
    pub retries: u64,
    /// Evaluations that exhausted their retries this generation.
    pub failures: u64,
    /// Keys quarantined by the circuit breaker this generation.
    pub quarantined: u64,
}

impl GenerationRow {
    /// RoTI at this generation given the campaign's default perf:
    /// MB/s gained per minute of tuning.
    pub fn roti(&self, default_perf: f64) -> f64 {
        let minutes = self.cumulative_cost_s / 60.0;
        if minutes <= 0.0 {
            return 0.0;
        }
        ((self.best_perf - default_perf) / MB) / minutes
    }
}

/// One stopper verdict reconstructed from a `stop.decision` event.
#[derive(Debug, Clone, PartialEq)]
pub struct StopDecision {
    /// Stopper display name.
    pub stopper: String,
    /// Generation the verdict was issued after.
    pub iteration: u64,
    /// `true` = stop the campaign.
    pub stop: bool,
}

/// Per-layer self-time totals summed from `profile.layer` events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    /// Layer name as emitted by the simulator (e.g. `hdf5`, `lustre.data`).
    pub layer: String,
    /// Exclusive (self) time attributed to the layer, seconds.
    pub self_s: f64,
    /// Bytes that crossed the layer.
    pub bytes: f64,
    /// Operations the layer performed.
    pub ops: f64,
}

/// One static workload inference reconstructed from a `tunio.infer.app`
/// span (emitted by `tunio_discovery::infer::lower_prediction`).
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceRow {
    /// Entry function that was inferred.
    pub app: String,
    /// Prediction confidence in [0, 1].
    pub confidence: f64,
    /// I/O call sites the static model classified.
    pub sites: u64,
    /// Real wall time of the inference (span duration), microseconds.
    pub wall_us: u64,
}

/// Warm-start application reconstructed from a `campaign.warm_start`
/// event (emitted when a campaign seeds its search from inference).
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStartInfo {
    /// App the features were inferred from.
    pub app: String,
    /// Confidence of the inference behind the features.
    pub confidence: f64,
    /// Seed configurations handed to the strategy.
    pub seeds: u64,
}

/// One early racing discard reconstructed from an `eval.discard` event
/// (emitted when noise-robust racing drops a clear loser).
#[derive(Debug, Clone, PartialEq)]
pub struct DiscardRow {
    /// Mean objective when discarded, bytes/s.
    pub mean: f64,
    /// CI half-width at the discard decision, bytes/s.
    pub half_width: f64,
    /// The incumbent objective it lost to, bytes/s.
    pub incumbent: f64,
    /// Samples the configuration had received.
    pub samples: u64,
}

/// Everything the report knows about one campaign in the trace.
#[derive(Debug, Clone, Default)]
pub struct CampaignSummary {
    /// Campaign label (pipeline kind), when the trace carries one.
    pub label: Option<String>,
    /// Application name, when the trace carries one.
    pub app: Option<String>,
    /// Per-generation rows, in order.
    pub generations: Vec<GenerationRow>,
    /// Stopper verdicts, in order.
    pub decisions: Vec<StopDecision>,
    /// Perf of the default configuration, bytes/s.
    pub default_perf: Option<f64>,
    /// Best perf found, bytes/s.
    pub best_perf: Option<f64>,
    /// Whether the stopper fired before the budget.
    pub stopped_early: Option<bool>,
    /// Name of the stopper that ended the campaign.
    pub stopper_name: Option<String>,
    /// Simulator evaluations performed (cache misses).
    pub evaluations: Option<u64>,
    /// Memoized lookups served.
    pub cache_hits: Option<u64>,
    /// Campaign wall time, microseconds (from the `campaign` span).
    pub campaign_wall_us: Option<u64>,
    /// Per-layer attribution summed over the campaign's `profile.layer`
    /// events, in first-seen order (the simulator emits layers in a
    /// fixed order, so this matches the canonical layer order).
    pub layers: Vec<LayerTotals>,
    /// Faults injected over the campaign (from `campaign.done`).
    pub faults_injected: Option<u64>,
    /// Evaluation attempts retried over the campaign.
    pub retries: Option<u64>,
    /// Evaluations that exhausted their retries.
    pub failed_evaluations: Option<u64>,
    /// Keys quarantined by the circuit breaker.
    pub quarantined_keys: Option<u64>,
    /// Evaluations served the penalty value.
    pub penalties_served: Option<u64>,
    /// Static workload inferences that preceded the campaign, in order.
    pub inferences: Vec<InferenceRow>,
    /// Warm-start application, when the campaign was seeded from
    /// inferred features.
    pub warm_start: Option<WarmStartInfo>,
    /// Per-config sample counts observed under noise-robust racing
    /// (the `samples` field of `strategy.observe` events), in commit
    /// order. Empty for racing-free campaigns.
    pub racing_samples: Vec<u64>,
    /// Top-up repeats run at the commit frontier (`eval.repeat` events).
    pub racing_topups: u64,
    /// Early discards, in commit order (`eval.discard` events).
    pub racing_discards: Vec<DiscardRow>,
}

impl CampaignSummary {
    /// Cache hit rate in [0, 1], when both counters are known.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let (h, e) = (self.cache_hits?, self.evaluations?);
        let total = h + e;
        (total > 0).then(|| h as f64 / total as f64)
    }

    /// Final RoTI, MB/s per minute.
    pub fn final_roti(&self) -> Option<f64> {
        let default = self.default_perf?;
        self.generations.last().map(|g| g.roti(default))
    }

    /// Peak RoTI over the campaign, MB/s per minute.
    pub fn peak_roti(&self) -> Option<(u64, f64)> {
        let default = self.default_perf?;
        self.generations
            .iter()
            .map(|g| (g.iteration, g.roti(default)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Whether the campaign saw any fault-machinery activity at all.
    /// A fault-free campaign renders exactly as it did before the
    /// resilience columns existed.
    pub fn had_faults(&self) -> bool {
        self.faults_injected.unwrap_or(0) > 0
            || self.retries.unwrap_or(0) > 0
            || self.penalties_served.unwrap_or(0) > 0
            || self
                .generations
                .iter()
                .any(|g| g.faults > 0 || g.retries > 0 || g.failures > 0 || g.quarantined > 0)
    }

    /// Whether the campaign ran noise-robust racing evaluation at all.
    /// A racing-free campaign renders exactly as it did before the
    /// racing section existed.
    pub fn had_racing(&self) -> bool {
        !self.racing_samples.is_empty()
            || self.racing_topups > 0
            || !self.racing_discards.is_empty()
    }

    /// The stop reason: last affirmative decision, or budget exhaustion.
    pub fn stop_reason(&self) -> String {
        if let Some(d) = self.decisions.iter().rev().find(|d| d.stop) {
            return format!("{} stopped after generation {}", d.stopper, d.iteration);
        }
        match &self.stopper_name {
            Some(name) => format!("budget exhausted under stopper {name}"),
            None => "budget exhausted".to_string(),
        }
    }
}

fn f64_field(r: &Record, key: &str) -> Option<f64> {
    r.fields
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| match v {
            FieldValue::F64(f) => Some(*f),
            FieldValue::I64(i) => Some(*i as f64),
            FieldValue::U64(u) => Some(*u as f64),
            _ => None,
        })
}

fn u64_field(r: &Record, key: &str) -> Option<u64> {
    r.fields
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| match v {
            FieldValue::U64(u) => Some(*u),
            FieldValue::I64(i) => u64::try_from(*i).ok(),
            FieldValue::F64(f) if f.fract() == 0.0 && *f >= 0.0 => Some(*f as u64),
            _ => None,
        })
}

fn str_field<'a>(r: &'a Record, key: &str) -> Option<&'a str> {
    r.fields
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| match v {
            FieldValue::Str(s) => Some(s.as_str()),
            _ => None,
        })
}

fn bool_field(r: &Record, key: &str) -> Option<bool> {
    r.fields
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| match v {
            FieldValue::Bool(b) => Some(*b),
            _ => None,
        })
}

/// Parse a JSON-lines trace (one record per non-empty line). Strict:
/// the first bad line fails the whole parse. Interactive consumers that
/// should survive truncated traces use [`parse_jsonl_lenient`].
pub fn parse_jsonl(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| record_from_json(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Parse a JSON-lines trace, keeping every line that parses and
/// reporting the ones that don't (`"line N: why"`). A trace file
/// truncated mid-line — the emitting process was killed — yields its
/// intact prefix plus one error for the torn tail, never a hard failure.
/// An empty file yields `(vec![], vec![])`.
pub fn parse_jsonl_lenient(text: &str) -> (Vec<Record>, Vec<String>) {
    let mut records = Vec::new();
    let mut errors = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match record_from_json(line) {
            Ok(r) => records.push(r),
            Err(e) => errors.push(format!("line {}: {e}", i + 1)),
        }
    }
    (records, errors)
}

/// Fold a record stream into campaign summaries. Records are first
/// grouped by trace (`group_by_trace`), so campaigns that ran at the
/// same time (a daemon's workers) do not mix their rows. Within a group
/// a `campaign.done` event closes the current campaign; traces without
/// one still yield a single summary from whatever generations and
/// decisions they carry.
pub fn summarize(records: &[Record]) -> Vec<CampaignSummary> {
    let mut out: Vec<CampaignSummary> = Vec::new();
    let mut cur = CampaignSummary::default();
    let mut open = false;

    for r in group_by_trace(records) {
        match r.name.as_str() {
            "campaign" => {
                // The campaign span closes *after* campaign.done; attach
                // its wall time to the most recently closed campaign if
                // this one is empty, else to the current one.
                let target = if !open && !out.is_empty() {
                    out.last_mut().unwrap()
                } else {
                    &mut cur
                };
                target.label = str_field(r, "kind")
                    .map(str::to_string)
                    .or(target.label.take());
                target.app = str_field(r, "app")
                    .map(str::to_string)
                    .or(target.app.take());
                target.campaign_wall_us = r.dur_us.or(target.campaign_wall_us);
            }
            "search.window" => {
                open = true;
                cur.generations.push(GenerationRow {
                    iteration: u64_field(r, "iteration").unwrap_or(0),
                    best_perf: f64_field(r, "best_perf").unwrap_or(0.0),
                    generation_best_perf: f64_field(r, "generation_best_perf").unwrap_or(0.0),
                    cost_s: f64_field(r, "cost_s").unwrap_or(0.0),
                    cumulative_cost_s: f64_field(r, "cumulative_cost_s").unwrap_or(0.0),
                    subset_size: u64_field(r, "subset_size").unwrap_or(0),
                    wall_us: r.dur_us.unwrap_or(0),
                    faults: u64_field(r, "faults").unwrap_or(0),
                    retries: u64_field(r, "retries").unwrap_or(0),
                    failures: u64_field(r, "failures").unwrap_or(0),
                    quarantined: u64_field(r, "quarantined").unwrap_or(0),
                });
            }
            "profile.layer" => {
                open = true;
                let name = str_field(r, "layer").unwrap_or("?");
                let totals = match cur.layers.iter_mut().find(|t| t.layer == name) {
                    Some(t) => t,
                    None => {
                        cur.layers.push(LayerTotals {
                            layer: name.to_string(),
                            ..LayerTotals::default()
                        });
                        cur.layers.last_mut().unwrap()
                    }
                };
                totals.self_s += f64_field(r, "self_s").unwrap_or(0.0);
                totals.bytes += f64_field(r, "bytes").unwrap_or(0.0);
                totals.ops += f64_field(r, "ops").unwrap_or(0.0);
            }
            "tunio.infer.app" => {
                open = true;
                cur.inferences.push(InferenceRow {
                    app: str_field(r, "app").unwrap_or("?").to_string(),
                    confidence: f64_field(r, "confidence").unwrap_or(0.0),
                    sites: u64_field(r, "sites").unwrap_or(0),
                    wall_us: r.dur_us.unwrap_or(0),
                });
            }
            "campaign.warm_start" => {
                open = true;
                cur.warm_start = Some(WarmStartInfo {
                    app: str_field(r, "app").unwrap_or("?").to_string(),
                    confidence: f64_field(r, "confidence").unwrap_or(0.0),
                    seeds: u64_field(r, "seeds").unwrap_or(0),
                });
            }
            "strategy.observe" => {
                if let Some(n) = u64_field(r, "samples") {
                    open = true;
                    cur.racing_samples.push(n);
                }
            }
            "eval.repeat" => {
                open = true;
                cur.racing_topups += 1;
            }
            "eval.discard" => {
                open = true;
                cur.racing_discards.push(DiscardRow {
                    mean: f64_field(r, "mean").unwrap_or(0.0),
                    half_width: f64_field(r, "half_width").unwrap_or(0.0),
                    incumbent: f64_field(r, "incumbent").unwrap_or(0.0),
                    samples: u64_field(r, "samples").unwrap_or(0),
                });
            }
            "stop.decision" => {
                open = true;
                cur.decisions.push(StopDecision {
                    stopper: str_field(r, "stopper").unwrap_or("?").to_string(),
                    iteration: u64_field(r, "iteration").unwrap_or(0),
                    stop: bool_field(r, "stop").unwrap_or(false),
                });
            }
            "campaign.done" => {
                cur.label = str_field(r, "kind")
                    .map(str::to_string)
                    .or(cur.label.take());
                cur.app = str_field(r, "app").map(str::to_string).or(cur.app.take());
                cur.default_perf = f64_field(r, "default_perf");
                cur.best_perf = f64_field(r, "best_perf");
                cur.stopped_early = bool_field(r, "stopped_early");
                cur.stopper_name = str_field(r, "stopper_name").map(str::to_string);
                cur.evaluations = u64_field(r, "evaluations");
                cur.cache_hits = u64_field(r, "cache_hits");
                cur.faults_injected = u64_field(r, "faults_injected");
                cur.retries = u64_field(r, "retries");
                cur.failed_evaluations = u64_field(r, "failed_evaluations");
                cur.quarantined_keys = u64_field(r, "quarantined_keys");
                cur.penalties_served = u64_field(r, "penalties_served");
                out.push(std::mem::take(&mut cur));
                open = false;
            }
            "metric" => {
                let target = if !open && !out.is_empty() {
                    out.last_mut().unwrap()
                } else {
                    &mut cur
                };
                match str_field(r, "metric") {
                    Some("tunio.eval.evaluations") => {
                        target.evaluations = target.evaluations.or(u64_field(r, "value"))
                    }
                    Some("tunio.eval.cache_hits") => {
                        target.cache_hits = target.cache_hits.or(u64_field(r, "value"))
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
    if open
        || !cur.generations.is_empty()
        || !cur.decisions.is_empty()
        || !cur.inferences.is_empty()
    {
        out.push(cur);
    }
    // Derive missing aggregates from the generation rows.
    for s in &mut out {
        if s.best_perf.is_none() {
            s.best_perf = s.generations.last().map(|g| g.best_perf);
        }
        if s.default_perf.is_none() {
            // Without an explicit default, RoTI is relative to the first
            // generation's starting point — better than nothing.
            s.default_perf = s.generations.first().map(|g| g.best_perf);
        }
    }
    out
}

/// The records reordered so each trace's records are contiguous: traces
/// in order of first appearance, records in file order within a trace.
/// A record without a trace id stays with the record before it. A trace
/// whose campaigns ran one after another is left in file order.
fn group_by_trace(records: &[Record]) -> Vec<&Record> {
    let mut order: Vec<Option<u64>> = Vec::new();
    let mut groups: HashMap<Option<u64>, Vec<&Record>> = HashMap::new();
    let mut current = None;
    for r in records {
        current = r.trace_id.or(current);
        groups
            .entry(current)
            .or_insert_with(|| {
                order.push(current);
                Vec::new()
            })
            .push(r);
    }
    order
        .iter()
        .flat_map(|key| groups.remove(key).unwrap_or_default())
        .collect()
}

/// Render the per-layer attribution table from trace-derived totals.
fn render_layer_table(layers: &[LayerTotals]) -> String {
    const MIB: f64 = 1024.0 * 1024.0;
    let total: f64 = layers.iter().map(|t| t.self_s).sum();
    let mut out = String::from(
        "layer         self s   % total        MiB          ops\n\
         ------------+--------+--------+-----------+------------\n",
    );
    for t in layers {
        let pct = if total > 0.0 {
            100.0 * t.self_s / total
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<12} | {:>6.2} | {:>5.1}% | {:>9.1} | {:>10.0}\n",
            t.layer,
            t.self_s,
            pct,
            t.bytes / MIB,
            t.ops,
        ));
    }
    out.push_str(&format!("total {total:>.2} s attributed\n"));
    out
}

/// Render the flamegraph-style self/total tree from trace-derived
/// totals. The hierarchy mirrors the simulated stack: requests enter
/// through HDF5, fan out through MPI-IO onto the network and Lustre,
/// with the burst buffer and metadata path alongside.
fn render_layer_tree(layers: &[LayerTotals]) -> String {
    let s = |name: &str| {
        layers
            .iter()
            .find(|t| t.layer == name)
            .map_or(0.0, |t| t.self_s)
    };
    let lustre = s("lustre.data") + s("lustre.rpc");
    let mpiio = s("mpiio") + s("network") + lustre;
    let hdf5 = s("hdf5") + mpiio;
    let io = s("burst") + hdf5 + s("interference");
    let run = s("compute") + io + s("mds");
    let mut rows: Vec<(usize, &str, f64, f64)> = vec![
        (0, "run", 0.0, run),
        (1, "compute", s("compute"), s("compute")),
        (1, "io", 0.0, io),
        (2, "burst", s("burst"), s("burst")),
        (2, "hdf5", s("hdf5"), hdf5),
        (3, "mpiio", s("mpiio"), mpiio),
        (4, "network", s("network"), s("network")),
        (4, "lustre", 0.0, lustre),
        (5, "lustre.data", s("lustre.data"), s("lustre.data")),
        (5, "lustre.rpc", s("lustre.rpc"), s("lustre.rpc")),
        (1, "mds", s("mds"), s("mds")),
    ];
    // Interference only appears when the simulator ran with a noise
    // profile attached; interference-free traces keep the historical
    // 11-row tree byte-for-byte.
    if layers.iter().any(|t| t.layer == "interference") {
        let pos = rows
            .iter()
            .position(|(_, name, _, _)| *name == "mds")
            .unwrap_or(rows.len());
        rows.insert(
            pos,
            (2, "interference", s("interference"), s("interference")),
        );
    }
    let mut out = String::new();
    for (depth, name, self_s, total_s) in rows {
        out.push_str(&format!(
            "{:indent$}{:<width$} total {:>8.3} s  self {:>8.3} s\n",
            "",
            name,
            total_s,
            self_s,
            indent = depth * 2,
            width = 14usize.saturating_sub(depth * 2) + 8,
        ));
    }
    out
}

fn fmt_us(us: u64) -> String {
    if us >= 2_000_000 {
        format!("{:.2} s", us as f64 / 1e6)
    } else if us >= 2_000 {
        format!("{:.2} ms", us as f64 / 1e3)
    } else {
        format!("{us} µs")
    }
}

/// Render one campaign summary as plain text.
pub fn render(s: &CampaignSummary) -> String {
    let mut out = String::new();
    let label = s.label.as_deref().unwrap_or("campaign");
    match &s.app {
        Some(app) => out.push_str(&format!("== {label} on {app} ==\n")),
        None => out.push_str(&format!("== {label} ==\n")),
    }

    let gens = s.generations.len();
    out.push_str(&format!("generations       : {gens}\n"));
    if let (Some(best), Some(default)) = (s.best_perf, s.default_perf) {
        out.push_str(&format!(
            "best perf         : {:.1} MB/s (default {:.1} MB/s, gain {:.1} MB/s)\n",
            best / MB,
            default / MB,
            (best - default).max(0.0) / MB
        ));
    }
    if let Some(last) = s.generations.last() {
        out.push_str(&format!(
            "tuning cost       : {:.1} min simulated\n",
            last.cumulative_cost_s / 60.0
        ));
    }
    if let Some(wall) = s.campaign_wall_us {
        out.push_str(&format!("real wall time    : {}\n", fmt_us(wall)));
    }
    for inf in &s.inferences {
        out.push_str(&format!(
            "inference         : {} — {} sites, confidence {:.2}, {}\n",
            inf.app,
            inf.sites,
            inf.confidence,
            fmt_us(inf.wall_us)
        ));
    }
    if let Some(ws) = &s.warm_start {
        out.push_str(&format!(
            "warm start        : seeded from {} ({} seeds, confidence {:.2})\n",
            ws.app, ws.seeds, ws.confidence
        ));
    }
    if let (Some(h), Some(e)) = (s.cache_hits, s.evaluations) {
        let rate = s.cache_hit_rate().unwrap_or(0.0);
        out.push_str(&format!(
            "eval cache        : {h} hits / {e} misses ({:.1}% hit rate)\n",
            rate * 100.0
        ));
    }
    if let Some(roti) = s.final_roti() {
        out.push_str(&format!("final RoTI        : {roti:.2} MB/s per min\n"));
    }
    if let Some((at, peak)) = s.peak_roti() {
        out.push_str(&format!(
            "peak RoTI         : {peak:.2} MB/s per min (generation {at})\n"
        ));
    }
    match s.stopped_early {
        Some(true) => out.push_str(&format!(
            "stop reason       : {} (early)\n",
            s.stop_reason()
        )),
        Some(false) => out.push_str(&format!("stop reason       : {}\n", s.stop_reason())),
        None => {}
    }
    let chaotic = s.had_faults();
    if chaotic {
        out.push_str(&format!(
            "resilience        : {} faults, {} retries, {} failed evals, {} quarantined, {} penalties\n",
            s.faults_injected.unwrap_or_else(|| s.generations.iter().map(|g| g.faults).sum()),
            s.retries.unwrap_or_else(|| s.generations.iter().map(|g| g.retries).sum()),
            s.failed_evaluations
                .unwrap_or_else(|| s.generations.iter().map(|g| g.failures).sum()),
            s.quarantined_keys
                .unwrap_or_else(|| s.generations.iter().map(|g| g.quarantined).sum()),
            s.penalties_served.unwrap_or(0),
        ));
    }

    if s.had_racing() {
        let settled = s.racing_samples.len() as u64;
        let total: u64 = s.racing_samples.iter().sum();
        let max = s.racing_samples.iter().max().copied().unwrap_or(0);
        let avg = if settled > 0 {
            total as f64 / settled as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "racing            : {settled} settled ({total} samples, avg {avg:.1}, max {max}), \
             {} top-ups, {} discarded early\n",
            s.racing_topups,
            s.racing_discards.len(),
        ));
        if !s.racing_discards.is_empty() {
            out.push_str("\nearly discards (clear losers):\n");
            out.push_str(
                "   # | mean MB/s | ±CI MB/s | incumbent MB/s | samples\n\
                 -----+-----------+----------+----------------+--------\n",
            );
            for (i, d) in s.racing_discards.iter().enumerate() {
                out.push_str(&format!(
                    "{:>4} | {:>9.1} | {:>8.1} | {:>14.1} | {:>7}\n",
                    i + 1,
                    d.mean / MB,
                    d.half_width / MB,
                    d.incumbent / MB,
                    d.samples,
                ));
            }
        }
    }

    if gens > 0 {
        let fault_cols = if chaotic { " | faults | retries" } else { "" };
        out.push_str(&format!(
            "\n gen | best MB/s | gen-best MB/s | cost s | cum min |   RoTI | subset | wall{fault_cols}\n",
        ));
        let fault_rule = if chaotic { "+--------+--------" } else { "" };
        out.push_str(&format!(
            "-----+-----------+---------------+--------+---------+--------+--------+------{fault_rule}\n",
        ));
        let default = s.default_perf.unwrap_or(0.0);
        for g in &s.generations {
            out.push_str(&format!(
                "{:>4} | {:>9.1} | {:>13.1} | {:>6.1} | {:>7.2} | {:>6.2} | {:>6} | {}",
                g.iteration,
                g.best_perf / MB,
                g.generation_best_perf / MB,
                g.cost_s,
                g.cumulative_cost_s / 60.0,
                g.roti(default),
                g.subset_size,
                fmt_us(g.wall_us),
            ));
            if chaotic {
                out.push_str(&format!(" | {:>6} | {:>7}", g.faults, g.retries));
                if g.quarantined > 0 {
                    out.push_str(&format!("  [{} quarantined]", g.quarantined));
                }
            }
            out.push('\n');
        }
    }

    if !s.layers.is_empty() {
        out.push_str("\nlayer attribution (self time):\n");
        out.push_str(&render_layer_table(&s.layers));
        out.push_str(&render_layer_tree(&s.layers));
    }

    let verdicts: Vec<&StopDecision> = s.decisions.iter().filter(|d| d.stop).collect();
    if !verdicts.is_empty() {
        out.push_str("\nstop verdicts:\n");
        for d in verdicts {
            out.push_str(&format!(
                "  generation {:>3}: {} → stop\n",
                d.iteration, d.stopper
            ));
        }
    }
    out
}

/// Parse, summarize and render a whole JSON-lines trace.
pub fn report(text: &str) -> Result<String, String> {
    let records = parse_jsonl(text)?;
    let summaries = summarize(&records);
    if summaries.is_empty() {
        return Ok("trace contains no campaign records\n".to_string());
    }
    Ok(summaries.iter().map(render).collect::<Vec<_>>().join("\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen_record(iter: u64, best: f64, cum: f64) -> String {
        format!(
            r#"{{"t_us":{},"name":"search.window","dur_us":1200,"fields":{{"iteration":{iter},"best_perf":{best},"generation_best_perf":{best},"cost_s":60.0,"cumulative_cost_s":{cum},"subset_size":12}}}}"#,
            iter * 1000
        )
    }

    fn sample_trace() -> String {
        let lines = [
            gen_record(1, 100e6, 60.0),
            gen_record(2, 400e6, 120.0),
            r#"{"t_us":2500,"name":"stop.decision","fields":{"stopper":"heuristic-5pct-5iter","iteration":2,"stop":true}}"#
                .to_string(),
            r#"{"t_us":2600,"name":"campaign.done","fields":{"kind":"TunIO","app":"hacc","best_perf":400e6,"default_perf":100e6,"stopped_early":true,"stopper_name":"heuristic-5pct-5iter","evaluations":30,"cache_hits":70}}"#
                .to_string(),
            r#"{"t_us":2700,"name":"campaign","dur_us":9000,"fields":{"kind":"TunIO","app":"hacc"}}"#
                .to_string(),
        ];
        lines.join("\n")
    }

    #[test]
    fn summarizes_generations_cache_and_stop() {
        let records = parse_jsonl(&sample_trace()).unwrap();
        let sums = summarize(&records);
        assert_eq!(sums.len(), 1);
        let s = &sums[0];
        assert_eq!(s.generations.len(), 2);
        assert_eq!(s.cache_hit_rate(), Some(0.7));
        assert_eq!(s.stopped_early, Some(true));
        assert_eq!(s.campaign_wall_us, Some(9000));
        // RoTI at generation 2: gained 300 MB/s over 2 minutes = 150.
        let final_roti = s.final_roti().unwrap();
        assert!((final_roti - 150.0).abs() < 1e-9, "{final_roti}");
        assert_eq!(s.peak_roti().unwrap().0, 2);
        assert!(s.stop_reason().contains("heuristic-5pct-5iter"));
        assert!(s.stop_reason().contains("generation 2"));
    }

    #[test]
    fn interleaved_campaigns_are_summarized_apart() {
        // Two campaigns of one daemon, written as their workers ran them.
        let tagged = |trace: u64, line: String| {
            line.replacen("{\"t_us\"", &format!("{{\"trace_id\":{trace},\"t_us\""), 1)
        };
        let done = |app: &str, best: f64| {
            format!(
                r#"{{"t_us":3000,"name":"campaign.done","fields":{{"kind":"TunIO","app":"{app}","best_perf":{best},"default_perf":100e6,"evaluations":10,"cache_hits":0}}}}"#
            )
        };
        let span = |app: &str, dur: u64| {
            format!(
                r#"{{"t_us":3100,"name":"campaign","dur_us":{dur},"fields":{{"kind":"TunIO","app":"{app}"}}}}"#
            )
        };
        let lines = [
            tagged(7, gen_record(1, 150e6, 60.0)),
            tagged(9, gen_record(1, 900e6, 30.0)),
            tagged(7, gen_record(2, 200e6, 120.0)),
            tagged(9, gen_record(2, 950e6, 60.0)),
            tagged(9, gen_record(3, 990e6, 90.0)),
            tagged(9, done("vpic", 990e6)),
            tagged(9, span("vpic", 5000)),
            tagged(7, done("hacc", 200e6)),
            tagged(7, span("hacc", 8000)),
        ];
        let records = parse_jsonl(&lines.join("\n")).unwrap();
        let sums = summarize(&records);
        assert_eq!(sums.len(), 2);
        let (a, b) = (&sums[0], &sums[1]);
        assert_eq!(a.app.as_deref(), Some("hacc"));
        assert_eq!(
            a.generations
                .iter()
                .map(|g| g.best_perf)
                .collect::<Vec<_>>(),
            vec![150e6, 200e6]
        );
        assert_eq!(a.campaign_wall_us, Some(8000));
        assert_eq!(b.app.as_deref(), Some("vpic"));
        assert_eq!(
            b.generations
                .iter()
                .map(|g| g.iteration)
                .collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(b.best_perf, Some(990e6));
        assert_eq!(b.campaign_wall_us, Some(5000));
    }

    #[test]
    fn renders_all_headline_sections() {
        let text = report(&sample_trace()).unwrap();
        for needle in [
            "TunIO on hacc",
            "best perf",
            "eval cache",
            "70.0% hit rate",
            "final RoTI",
            "peak RoTI",
            "stop reason",
            "gen | best MB/s",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn traces_without_campaign_done_still_summarize() {
        let text = format!(
            "{}\n{}",
            gen_record(1, 100e6, 60.0),
            gen_record(2, 150e6, 120.0)
        );
        let sums = summarize(&parse_jsonl(&text).unwrap());
        assert_eq!(sums.len(), 1);
        assert_eq!(sums[0].generations.len(), 2);
        // Default falls back to the first generation's best.
        assert_eq!(sums[0].default_perf, Some(100e6));
    }

    fn layer_record(iter: u64, layer: &str, self_s: f64, bytes: f64, ops: f64) -> String {
        format!(
            r#"{{"t_us":{},"name":"profile.layer","fields":{{"iteration":{iter},"layer":"{layer}","self_s":{self_s},"cum_self_s":{self_s},"bytes":{bytes},"ops":{ops}}}}}"#,
            iter * 1000 + 10
        )
    }

    #[test]
    fn layer_events_accumulate_across_generations() {
        let lines = [
            layer_record(1, "hdf5", 2.0, 1e6, 10.0),
            layer_record(1, "lustre.data", 3.0, 1e6, 0.0),
            layer_record(2, "hdf5", 1.5, 5e5, 4.0),
            r#"{"t_us":9000,"name":"campaign.done","fields":{"kind":"TunIO","app":"hacc"}}"#
                .to_string(),
        ];
        let sums = summarize(&parse_jsonl(&lines.join("\n")).unwrap());
        assert_eq!(sums.len(), 1);
        let layers = &sums[0].layers;
        assert_eq!(layers.len(), 2);
        let hdf5 = layers.iter().find(|t| t.layer == "hdf5").unwrap();
        assert!((hdf5.self_s - 3.5).abs() < 1e-12);
        assert!((hdf5.bytes - 1.5e6).abs() < 1e-3);
        assert!((hdf5.ops - 14.0).abs() < 1e-12);
    }

    #[test]
    fn render_includes_attribution_table_and_tree() {
        let lines = [
            gen_record(1, 100e6, 60.0),
            layer_record(1, "hdf5", 2.0, 1e6, 10.0),
            layer_record(1, "lustre.data", 6.0, 1e6, 0.0),
            r#"{"t_us":9000,"name":"campaign.done","fields":{"kind":"TunIO","app":"hacc"}}"#
                .to_string(),
        ];
        let text = report(&lines.join("\n")).unwrap();
        assert!(text.contains("layer attribution (self time)"), "{text}");
        // Table row: hdf5 carries 25% of the 8 s attributed.
        assert!(text.contains("hdf5"), "{text}");
        assert!(text.contains("25.0%"), "{text}");
        assert!(text.contains("total 8.00 s attributed"), "{text}");
        // Tree: the run total folds hdf5 + lustre.data, and hdf5's
        // subtree includes the lustre time below it.
        assert!(
            text.contains("run                    total    8.000 s"),
            "{text}"
        );
        assert!(text.contains("self    2.000 s"), "{text}");
    }

    #[test]
    fn traces_without_layer_events_render_without_attribution() {
        let text = report(&sample_trace()).unwrap();
        assert!(!text.contains("layer attribution"));
    }

    fn chaos_trace() -> String {
        let lines = [
            r#"{"t_us":1000,"name":"search.window","dur_us":1200,"fields":{"iteration":1,"best_perf":100e6,"generation_best_perf":100e6,"cost_s":60.0,"cumulative_cost_s":60.0,"subset_size":12,"faults":3,"retries":2,"failures":0,"quarantined":0}}"#.to_string(),
            r#"{"t_us":2000,"name":"search.window","dur_us":1100,"fields":{"iteration":2,"best_perf":400e6,"generation_best_perf":400e6,"cost_s":60.0,"cumulative_cost_s":120.0,"subset_size":12,"faults":5,"retries":1,"failures":1,"quarantined":1}}"#.to_string(),
            r#"{"t_us":2600,"name":"campaign.done","fields":{"kind":"TunIO","app":"hacc","best_perf":400e6,"default_perf":100e6,"stopped_early":false,"stopper_name":"budget","evaluations":30,"cache_hits":70,"faults_injected":8,"retries":3,"failed_evaluations":1,"quarantined_keys":1,"penalties_served":2}}"#.to_string(),
        ];
        lines.join("\n")
    }

    #[test]
    fn resilience_counters_are_parsed_and_rendered() {
        let sums = summarize(&parse_jsonl(&chaos_trace()).unwrap());
        assert_eq!(sums.len(), 1);
        let s = &sums[0];
        assert!(s.had_faults());
        assert_eq!(s.faults_injected, Some(8));
        assert_eq!(s.retries, Some(3));
        assert_eq!(s.failed_evaluations, Some(1));
        assert_eq!(s.quarantined_keys, Some(1));
        assert_eq!(s.penalties_served, Some(2));
        assert_eq!(s.generations[0].faults, 3);
        assert_eq!(s.generations[1].quarantined, 1);

        let text = report(&chaos_trace()).unwrap();
        assert!(
            text.contains("resilience        : 8 faults, 3 retries, 1 failed evals, 1 quarantined, 2 penalties"),
            "{text}"
        );
        assert!(text.contains("gen | best MB/s"), "{text}");
        assert!(text.contains("| faults | retries"), "{text}");
        assert!(text.contains("[1 quarantined]"), "{text}");
    }

    #[test]
    fn fault_free_traces_render_without_resilience_columns() {
        let text = report(&sample_trace()).unwrap();
        assert!(!text.contains("resilience"), "{text}");
        assert!(!text.contains("faults"), "{text}");
        assert!(text.contains(
            "\n gen | best MB/s | gen-best MB/s | cost s | cum min |   RoTI | subset | wall\n"
        ));
        assert!(text.contains(
            "-----+-----------+---------------+--------+---------+--------+--------+------\n"
        ));
    }

    fn racing_trace() -> String {
        let lines = [
            gen_record(1, 100e6, 60.0),
            r#"{"t_us":1100,"name":"strategy.observe","fields":{"strategy":"random","seq":0,"perf":100e6,"cost_s":60.0,"samples":2}}"#.to_string(),
            r#"{"t_us":1200,"name":"eval.repeat","fields":{"key_fp":123,"rep":2,"samples":3,"incumbent":100e6}}"#.to_string(),
            r#"{"t_us":1300,"name":"strategy.observe","fields":{"strategy":"random","seq":1,"perf":150e6,"cost_s":60.0,"samples":3}}"#.to_string(),
            r#"{"t_us":1400,"name":"eval.discard","fields":{"key":"[0, 1]","mean":40e6,"half_width":5e6,"incumbent":150e6,"samples":2}}"#.to_string(),
            r#"{"t_us":1500,"name":"strategy.observe","fields":{"strategy":"random","seq":2,"perf":40e6,"cost_s":60.0,"samples":2}}"#.to_string(),
            r#"{"t_us":2600,"name":"campaign.done","fields":{"kind":"TunIO","app":"hacc","best_perf":150e6,"default_perf":100e6}}"#.to_string(),
        ];
        lines.join("\n")
    }

    #[test]
    fn racing_events_are_summarized_and_rendered() {
        let sums = summarize(&parse_jsonl(&racing_trace()).unwrap());
        assert_eq!(sums.len(), 1);
        let s = &sums[0];
        assert!(s.had_racing());
        assert_eq!(s.racing_samples, vec![2, 3, 2]);
        assert_eq!(s.racing_topups, 1);
        assert_eq!(s.racing_discards.len(), 1);
        let d = &s.racing_discards[0];
        assert!((d.mean - 40e6).abs() < 1.0);
        assert!((d.half_width - 5e6).abs() < 1.0);
        assert_eq!(d.samples, 2);

        let text = report(&racing_trace()).unwrap();
        assert!(
            text.contains(
                "racing            : 3 settled (7 samples, avg 2.3, max 3), 1 top-ups, 1 discarded early"
            ),
            "{text}"
        );
        assert!(text.contains("early discards (clear losers):"), "{text}");
        assert!(
            text.contains("40.0 |      5.0 |          150.0 |       2"),
            "{text}"
        );
    }

    #[test]
    fn racing_free_traces_render_without_a_racing_section() {
        let sums = summarize(&parse_jsonl(&sample_trace()).unwrap());
        assert!(!sums[0].had_racing());
        let text = report(&sample_trace()).unwrap();
        assert!(!text.contains("racing"), "{text}");
        assert!(!text.contains("discard"), "{text}");
    }

    #[test]
    fn interference_layer_adds_a_tree_row_only_when_present() {
        let quiet = [
            gen_record(1, 100e6, 60.0),
            layer_record(1, "hdf5", 2.0, 1e6, 10.0),
            r#"{"t_us":9000,"name":"campaign.done","fields":{"kind":"TunIO","app":"hacc"}}"#
                .to_string(),
        ]
        .join("\n");
        let text = report(&quiet).unwrap();
        assert!(!text.contains("interference"), "{text}");

        let noisy = [
            gen_record(1, 100e6, 60.0),
            layer_record(1, "hdf5", 2.0, 1e6, 10.0),
            layer_record(1, "interference", 1.5, 0.0, 0.0),
            r#"{"t_us":9000,"name":"campaign.done","fields":{"kind":"TunIO","app":"hacc"}}"#
                .to_string(),
        ]
        .join("\n");
        let text = report(&noisy).unwrap();
        assert!(text.contains("  interference"), "{text}");
        // Interference folds into the io subtree and the run total.
        assert!(
            text.contains("run                    total    3.500 s"),
            "{text}"
        );
    }

    fn inference_trace() -> String {
        let lines = [
            r#"{"t_us":100,"name":"tunio.infer.app","dur_us":850,"fields":{"app":"vpic_dump","confidence":0.9,"sites":1}}"#.to_string(),
            r#"{"t_us":200,"name":"campaign.warm_start","fields":{"app":"vpic_dump","confidence":0.9,"seeds":2}}"#.to_string(),
            gen_record(1, 100e6, 60.0),
            r#"{"t_us":2600,"name":"campaign.done","fields":{"kind":"TunIO","app":"vpic","best_perf":100e6,"default_perf":50e6}}"#.to_string(),
        ];
        lines.join("\n")
    }

    #[test]
    fn inference_spans_and_warm_start_are_summarized() {
        let sums = summarize(&parse_jsonl(&inference_trace()).unwrap());
        assert_eq!(sums.len(), 1);
        let s = &sums[0];
        assert_eq!(s.inferences.len(), 1);
        assert_eq!(s.inferences[0].app, "vpic_dump");
        assert_eq!(s.inferences[0].sites, 1);
        assert_eq!(s.inferences[0].wall_us, 850);
        assert!((s.inferences[0].confidence - 0.9).abs() < 1e-12);
        let ws = s.warm_start.as_ref().unwrap();
        assert_eq!(ws.app, "vpic_dump");
        assert_eq!(ws.seeds, 2);

        let text = report(&inference_trace()).unwrap();
        assert!(
            text.contains("inference         : vpic_dump — 1 sites, confidence 0.90, 850 µs"),
            "{text}"
        );
        assert!(
            text.contains("warm start        : seeded from vpic_dump (2 seeds, confidence 0.90)"),
            "{text}"
        );
    }

    #[test]
    fn inference_only_traces_still_summarize() {
        let line = r#"{"t_us":100,"name":"tunio.infer.app","dur_us":850,"fields":{"app":"ior_read","confidence":0.8,"sites":1}}"#;
        let sums = summarize(&parse_jsonl(line).unwrap());
        assert_eq!(sums.len(), 1);
        assert_eq!(sums[0].inferences[0].app, "ior_read");
        let text = report(line).unwrap();
        assert!(text.contains("ior_read"), "{text}");
    }

    #[test]
    fn cold_start_traces_render_without_inference_lines() {
        let text = report(&sample_trace()).unwrap();
        assert!(!text.contains("inference "), "{text}");
        assert!(!text.contains("warm start"), "{text}");
    }

    #[test]
    fn bad_lines_are_reported_with_line_numbers() {
        let err = parse_jsonl("{\"t_us\":1,\"name\":\"x\",\"fields\":{}}\nnot json").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn lenient_parse_keeps_the_intact_prefix_of_a_truncated_trace() {
        // A trace killed mid-write: two good lines, then a torn tail.
        let text = format!(
            "{}\n{}\n{}",
            gen_record(1, 100e6, 60.0),
            gen_record(2, 150e6, 120.0),
            r#"{"t_us":3000,"name":"ga.gener"#
        );
        let (records, errors) = parse_jsonl_lenient(&text);
        assert_eq!(records.len(), 2);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("line 3"), "{}", errors[0]);
        // The parsed prefix still summarizes.
        let sums = summarize(&records);
        assert_eq!(sums.len(), 1);
        assert_eq!(sums[0].generations.len(), 2);
    }

    #[test]
    fn lenient_parse_of_empty_input_is_empty_not_an_error() {
        let (records, errors) = parse_jsonl_lenient("");
        assert!(records.is_empty());
        assert!(errors.is_empty());
        let (records, errors) = parse_jsonl_lenient("\n\n  \n");
        assert!(records.is_empty());
        assert!(errors.is_empty());
    }

    #[test]
    fn lenient_parse_of_garbage_reports_every_line() {
        let (records, errors) = parse_jsonl_lenient("not json\nalso not");
        assert!(records.is_empty());
        assert_eq!(errors.len(), 2);
    }
}
