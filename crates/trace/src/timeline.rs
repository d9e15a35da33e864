//! Critical-path timeline: fold a trace's span DAG into exclusive
//! wall-clock segments whose sum equals the trace's wall time exactly.
//!
//! The profiler (PR 4) established a *sums-exactly* discipline for
//! simulated time: every simulated second is attributed to exactly one
//! layer. This module applies the same discipline to *real* time. A
//! campaign's wall clock is partitioned into the segments of
//! [`Segment::ALL`]:
//!
//! * covered segments come from categorized spans (`serve.queue_wait`,
//!   `strategy.propose`, `eval.simulate`, `surrogate.fit`, `wal.append`)
//!   via a sweep over the trace window — an instant where two categories
//!   overlap (worker threads simulate while the scheduler proposes) is
//!   charged to the higher-priority one, so covered segments stay
//!   mutually exclusive;
//! * the uncovered residual splits into `trace_overhead` (measured
//!   inside the emission path, clamped to the residual) and
//!   `scheduler_stall` (everything else: queue management, breeding,
//!   cache lookups, genuine stalls).
//!
//! By construction `sum(segments) == wall_us`, as a `u64` identity, not
//! within a tolerance.
//!
//! The same [`compute`] function serves two feeders:
//!
//! * a **live store**, populated by the tracer's emission path, that
//!   [`snapshot`] reads while a campaign is still running (the serve
//!   daemon's `GET /campaigns/{id}/timeline`), and
//! * **offline records** parsed back from a JSONL trace file
//!   ([`from_records`], behind `tunio-report --critical-path`).
//!
//! Once the root span has closed both feeders see identical span rows
//! and the identical frozen overhead (the root span carries it as a
//! field), so the two reconstructions are equal — a property the bench
//! suite asserts.

use crate::sync::lock;
use crate::{FieldValue, Record};
use serde_json::Value;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Exclusive wall-clock segment kinds, in render order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Segment {
    /// Submission accepted but no worker had picked the campaign up yet
    /// (`serve.queue_wait` spans).
    QueueWait,
    /// The search strategy generating proposals (`strategy.propose`).
    Propose,
    /// Inside the I/O simulator (`eval.simulate`).
    Simulation,
    /// Surrogate model refits (`surrogate.fit`, BO strategy).
    Surrogate,
    /// Checkpoint WAL append + flush (`wal.append`).
    Wal,
    /// The tracing subsystem's own emission cost, measured in the emit
    /// path and clamped to the uncovered residual.
    TraceOverhead,
    /// Everything else: scheduler queue management, breeding, cache
    /// lookups, result assembly, genuine stalls.
    SchedulerStall,
}

impl Segment {
    /// Every segment, in canonical render order.
    pub const ALL: [Segment; 7] = [
        Segment::QueueWait,
        Segment::Propose,
        Segment::Simulation,
        Segment::Surrogate,
        Segment::Wal,
        Segment::TraceOverhead,
        Segment::SchedulerStall,
    ];

    /// Stable label, used in reports, JSON and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            Segment::QueueWait => "queue_wait",
            Segment::Propose => "propose",
            Segment::Simulation => "simulation",
            Segment::Surrogate => "surrogate",
            Segment::Wal => "wal",
            Segment::TraceOverhead => "trace_overhead",
            Segment::SchedulerStall => "scheduler_stall",
        }
    }

    /// When categorized spans overlap in wall time, the instant goes to
    /// the highest-priority category (larger wins). Simulation dominates:
    /// a worker simulating means the machine is doing useful work even
    /// if the coordinator happens to be proposing at the same instant.
    fn priority(self) -> u8 {
        match self {
            Segment::Simulation => 5,
            Segment::Wal => 4,
            Segment::Surrogate => 3,
            Segment::Propose => 2,
            Segment::QueueWait => 1,
            // Residual segments never enter the sweep.
            Segment::TraceOverhead | Segment::SchedulerStall => 0,
        }
    }
}

/// Map a span name to its covered segment, if it has one. Container
/// spans (`campaign`, `search.window`, `strategy.campaign`, ...) are
/// deliberately unmapped: they bound the window, they are not segments.
fn categorize(name: &str) -> Option<Segment> {
    match name {
        "serve.queue_wait" => Some(Segment::QueueWait),
        "strategy.propose" => Some(Segment::Propose),
        "eval.simulate" => Some(Segment::Simulation),
        "surrogate.fit" => Some(Segment::Surrogate),
        "wal.append" => Some(Segment::Wal),
        _ => None,
    }
}

/// The slice of a span record the timeline needs.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRow {
    /// The span's id.
    pub span_id: u64,
    /// Parent span id (`None` for the trace root).
    pub parent_id: Option<u64>,
    /// Span name.
    pub name: String,
    /// Start, microseconds on the tracer clock.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
}

impl SpanRow {
    fn end_us(&self) -> u64 {
        self.start_us.saturating_add(self.dur_us)
    }
}

/// One step along the critical path, root first.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// Span name.
    pub name: String,
    /// Span id.
    pub span_id: u64,
    /// Start, microseconds on the tracer clock.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Exclusive time: duration minus the union of the span's children's
    /// intervals (clipped to the span).
    pub self_us: u64,
}

/// A reconstructed per-trace timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// The trace this timeline describes.
    pub trace_id: u64,
    /// Window start, microseconds on the tracer clock.
    pub start_us: u64,
    /// Window length; `sum(segments) == wall_us` exactly.
    pub wall_us: u64,
    /// Whether the root span has closed (false for live snapshots of a
    /// still-running campaign).
    pub complete: bool,
    /// Exclusive segments in [`Segment::ALL`] order, microseconds.
    pub segments: Vec<(Segment, u64)>,
    /// Critical path, root first: at each level, the child whose end
    /// released its parent (latest end wins, earlier start then lower
    /// span id break ties).
    pub critical_path: Vec<PathStep>,
}

impl Timeline {
    /// Microseconds attributed to `seg`.
    pub fn segment_us(&self, seg: Segment) -> u64 {
        self.segments
            .iter()
            .find(|(s, _)| *s == seg)
            .map_or(0, |(_, us)| *us)
    }

    /// Render as a single JSON object (the serve timeline endpoint body
    /// and the CI timeline artifact).
    pub fn to_json(&self) -> String {
        let segments: Vec<Value> = self
            .segments
            .iter()
            .map(|(seg, us)| {
                let share = if self.wall_us > 0 {
                    *us as f64 / self.wall_us as f64
                } else {
                    0.0
                };
                Value::Object(vec![
                    ("segment".to_string(), Value::String(seg.name().to_string())),
                    ("us".to_string(), Value::UInt(*us)),
                    ("share".to_string(), Value::Float(share)),
                ])
            })
            .collect();
        let path: Vec<Value> = self
            .critical_path
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".to_string(), Value::String(s.name.clone())),
                    ("span_id".to_string(), Value::UInt(s.span_id)),
                    ("start_us".to_string(), Value::UInt(s.start_us)),
                    ("dur_us".to_string(), Value::UInt(s.dur_us)),
                    ("self_us".to_string(), Value::UInt(s.self_us)),
                ])
            })
            .collect();
        let obj = Value::Object(vec![
            (
                "trace_id".to_string(),
                Value::String(format!("{:016x}", self.trace_id)),
            ),
            ("start_us".to_string(), Value::UInt(self.start_us)),
            ("wall_us".to_string(), Value::UInt(self.wall_us)),
            ("complete".to_string(), Value::Bool(self.complete)),
            ("segments".to_string(), Value::Array(segments)),
            ("critical_path".to_string(), Value::Array(path)),
        ]);
        serde_json::to_string(&obj).expect("timeline serializes")
    }

    /// Render as plain text: the critical path chain and the per-segment
    /// breakdown table (`tunio-report --critical-path`).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== trace {:016x} ({}{}) ==\n",
            self.trace_id,
            fmt_us(self.wall_us),
            if self.complete { "" } else { ", still running" },
        ));
        if !self.critical_path.is_empty() {
            out.push_str("critical path:\n");
            for (depth, step) in self.critical_path.iter().enumerate() {
                out.push_str(&format!(
                    "{:indent$}{} — total {}, self {}\n",
                    "",
                    step.name,
                    fmt_us(step.dur_us),
                    fmt_us(step.self_us),
                    indent = depth * 2 + 2,
                ));
            }
        }
        out.push_str(
            "segment           time       share\n\
             ----------------+----------+------\n",
        );
        for (seg, us) in &self.segments {
            let share = if self.wall_us > 0 {
                100.0 * *us as f64 / self.wall_us as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:<16} | {:>8} | {:>4.1}%\n",
                seg.name(),
                fmt_us(*us),
                share
            ));
        }
        out.push_str(&format!(
            "total            | {:>8} | sums exactly\n",
            fmt_us(self.wall_us)
        ));
        out
    }
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

/// Partition `[start_us, end_us)` over the categorized spans and extract
/// the critical path. This is the single reconstruction function behind
/// both the live store ([`snapshot`]) and offline parsing
/// ([`from_records`]); feeding it identical inputs is what makes the two
/// views identical.
pub fn compute(
    trace_id: u64,
    spans: &[SpanRow],
    start_us: u64,
    end_us: u64,
    overhead_us: u64,
    complete: bool,
) -> Timeline {
    let wall_us = end_us.saturating_sub(start_us);

    // Sweep the categorized spans: +1/-1 events per category boundary,
    // each elementary interval charged to the highest-priority active
    // category. Clipping to the window keeps covered ≤ wall.
    let mut events: Vec<(u64, Segment, i32)> = Vec::new();
    for s in spans {
        let Some(seg) = categorize(&s.name) else {
            continue;
        };
        let a = s.start_us.max(start_us);
        let b = s.end_us().min(end_us);
        if b > a {
            events.push((a, seg, 1));
            events.push((b, seg, -1));
        }
    }
    events.sort_by_key(|&(t, seg, delta)| (t, seg.priority(), delta));
    let mut active: HashMap<Segment, i32> = HashMap::new();
    let mut covered: HashMap<Segment, u64> = HashMap::new();
    let mut prev: Option<u64> = None;
    for (t, seg, delta) in events {
        if let Some(p) = prev {
            if t > p {
                if let Some(top) = active
                    .iter()
                    .filter(|(_, n)| **n > 0)
                    .map(|(s, _)| *s)
                    .max_by_key(|s| s.priority())
                {
                    *covered.entry(top).or_insert(0) += t - p;
                }
            }
        }
        prev = Some(t);
        *active.entry(seg).or_insert(0) += delta;
    }

    let covered_total: u64 = covered.values().sum();
    let residual = wall_us.saturating_sub(covered_total);
    let overhead = overhead_us.min(residual);
    let stall = residual - overhead;

    let segments: Vec<(Segment, u64)> = Segment::ALL
        .iter()
        .map(|&seg| {
            let us = match seg {
                Segment::TraceOverhead => overhead,
                Segment::SchedulerStall => stall,
                other => covered.get(&other).copied().unwrap_or(0),
            };
            (seg, us)
        })
        .collect();

    Timeline {
        trace_id,
        start_us,
        wall_us,
        complete,
        segments,
        critical_path: critical_path(spans, start_us, end_us),
    }
}

/// Walk the span DAG from the window down: at each level pick the child
/// whose interval ends last (it is what released the parent), breaking
/// ties toward the earlier start then the lower span id so the path is
/// deterministic. Spans whose parent is unknown (root, or parent still
/// open in a live view) hang off the window itself.
fn critical_path(spans: &[SpanRow], start_us: u64, end_us: u64) -> Vec<PathStep> {
    let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
    // children[parent] — parent 0 is the synthetic window node (real span
    // ids start at 1, so 0 is free).
    let mut children: HashMap<u64, Vec<&SpanRow>> = HashMap::new();
    for s in spans {
        let parent = match s.parent_id {
            Some(p) if ids.contains(&p) && p != s.span_id => p,
            _ => 0,
        };
        children.entry(parent).or_default().push(s);
    }

    let mut path = Vec::new();
    let mut node = 0u64;
    // Depth cap guards against corrupt parent links forming a cycle.
    for _ in 0..64 {
        let Some(kids) = children.get(&node) else {
            break;
        };
        let Some(pick) = kids
            .iter()
            .filter(|s| s.end_us() > start_us && s.start_us < end_us)
            .max_by(|a, b| {
                a.end_us()
                    .cmp(&b.end_us())
                    .then(b.start_us.cmp(&a.start_us))
                    .then(b.span_id.cmp(&a.span_id))
            })
        else {
            break;
        };
        let own: Vec<(u64, u64)> = children
            .get(&pick.span_id)
            .map(|kids| {
                kids.iter()
                    .map(|c| (c.start_us.max(pick.start_us), c.end_us().min(pick.end_us())))
                    .filter(|(a, b)| b > a)
                    .collect()
            })
            .unwrap_or_default();
        let child_union = interval_union(own);
        path.push(PathStep {
            name: pick.name.clone(),
            span_id: pick.span_id,
            start_us: pick.start_us,
            dur_us: pick.dur_us,
            self_us: pick.dur_us.saturating_sub(child_union),
        });
        node = pick.span_id;
    }
    path
}

/// Total length of the union of half-open intervals.
fn interval_union(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

// ---------------------------------------------------------------------
// Live store: span rows accumulated from the emission path, queryable by
// trace id while the trace is still open.
// ---------------------------------------------------------------------

/// Traces kept live at once; least-recently-touched is evicted beyond
/// this (one campaign is one trace, so 64 covers a busy daemon).
const MAX_TRACES: usize = 64;
/// Span rows kept per trace; beyond this, rows are counted but dropped.
const MAX_SPANS_PER_TRACE: usize = 65_536;

#[derive(Debug, Default)]
struct LiveTrace {
    started_us: u64,
    spans: Vec<SpanRow>,
    overhead_ns: u64,
    /// Overhead frozen from the root span's `trace_overhead_us` field at
    /// the moment it closed, so live snapshots of a *finished* trace use
    /// the same number an offline parse of the file will see.
    frozen_overhead_us: Option<u64>,
    dropped: u64,
    touched: u64,
}

#[derive(Debug, Default)]
struct Store {
    traces: HashMap<u64, LiveTrace>,
    clock: u64,
}

impl Store {
    fn touch(&mut self, trace_id: u64, started_us: u64) -> &mut LiveTrace {
        self.clock += 1;
        let clock = self.clock;
        if !self.traces.contains_key(&trace_id) && self.traces.len() >= MAX_TRACES {
            if let Some(&oldest) = self
                .traces
                .iter()
                .min_by_key(|(_, t)| t.touched)
                .map(|(id, _)| id)
            {
                self.traces.remove(&oldest);
            }
        }
        let t = self.traces.entry(trace_id).or_insert_with(|| LiveTrace {
            started_us,
            ..LiveTrace::default()
        });
        t.touched = clock;
        t
    }
}

fn store() -> &'static Mutex<Store> {
    static STORE: OnceLock<Mutex<Store>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(Store::default()))
}

/// Register a trace before its first span: fixes the live window's start
/// (the serve daemon calls this at submission so queue wait is visible
/// in live snapshots before any span has closed).
pub fn register(trace_id: u64, started_us: u64) {
    let mut s = lock(store());
    let t = s.touch(trace_id, started_us);
    // A fresh entry keeps the caller's start; an existing entry only
    // moves earlier, never later.
    t.started_us = t.started_us.min(started_us);
}

/// Record a closed span into the live store (called from the tracer's
/// emission path; `root_overhead_us` is the root span's frozen overhead
/// field, present only when `parent_id` is `None`).
pub(crate) fn ingest(
    trace_id: u64,
    span_id: u64,
    parent_id: Option<u64>,
    name: &str,
    start_us: u64,
    dur_us: u64,
) {
    let mut s = lock(store());
    let t = s.touch(trace_id, start_us);
    if t.spans.is_empty() {
        t.started_us = t.started_us.min(start_us);
    }
    if t.spans.len() >= MAX_SPANS_PER_TRACE {
        t.dropped += 1;
        return;
    }
    t.spans.push(SpanRow {
        span_id,
        parent_id,
        name: name.to_string(),
        start_us,
        dur_us,
    });
}

/// Freeze the root's overhead field into the store (see
/// [`LiveTrace::frozen_overhead_us`]).
pub(crate) fn freeze_overhead(trace_id: u64, overhead_us: u64) {
    let mut s = lock(store());
    let t = s.touch(trace_id, 0);
    t.frozen_overhead_us = Some(overhead_us);
}

/// Accumulate tracing-overhead nanoseconds against a trace.
pub(crate) fn add_overhead_ns(trace_id: u64, ns: u64) {
    let mut s = lock(store());
    if let Some(t) = s.traces.get_mut(&trace_id) {
        t.overhead_ns += ns;
    }
}

/// The trace's accumulated tracing overhead, microseconds.
pub fn overhead_us(trace_id: u64) -> u64 {
    let s = lock(store());
    s.traces.get(&trace_id).map_or(0, |t| t.overhead_ns / 1_000)
}

/// Reconstruct the timeline for a live trace. If the root span has
/// closed, the window is the root's interval and the overhead is the
/// value frozen at root close (identical to the offline reconstruction);
/// otherwise the window runs from the trace's registered start to
/// `now_us` and the overhead is the running accumulator.
pub fn snapshot(trace_id: u64, now_us: u64) -> Option<Timeline> {
    let (spans, started_us, overhead_ns, frozen) = {
        let mut s = lock(store());
        s.clock += 1;
        let clock = s.clock;
        let t = s.traces.get_mut(&trace_id)?;
        t.touched = clock;
        (
            t.spans.clone(),
            t.started_us,
            t.overhead_ns,
            t.frozen_overhead_us,
        )
    };
    Some(build(
        trace_id,
        spans,
        started_us,
        now_us,
        overhead_ns / 1_000,
        frozen,
    ))
}

/// Drop a trace from the live store (the serve daemon calls this after
/// caching a finished campaign's timeline).
pub fn forget(trace_id: u64) {
    lock(store()).traces.remove(&trace_id);
}

fn build(
    trace_id: u64,
    spans: Vec<SpanRow>,
    started_us: u64,
    now_us: u64,
    running_overhead_us: u64,
    frozen_overhead_us: Option<u64>,
) -> Timeline {
    let root = spans
        .iter()
        .filter(|s| s.parent_id.is_none())
        .max_by_key(|s| s.dur_us)
        .cloned();
    match root {
        Some(r) => {
            let overhead = frozen_overhead_us.unwrap_or(running_overhead_us);
            compute(trace_id, &spans, r.start_us, r.end_us(), overhead, true)
        }
        None => compute(
            trace_id,
            &spans,
            started_us,
            now_us.max(started_us),
            running_overhead_us,
            false,
        ),
    }
}

/// Reconstruct timelines from parsed JSONL records: spans are grouped by
/// trace id, each trace windowed by its root span (or its span extent
/// when no root closed — a truncated trace). Timelines come back in
/// first-appearance order.
pub fn from_records(records: &[Record]) -> Vec<Timeline> {
    let mut order: Vec<u64> = Vec::new();
    let mut by_trace: HashMap<u64, Vec<SpanRow>> = HashMap::new();
    let mut root_overhead: HashMap<u64, u64> = HashMap::new();
    for r in records {
        let (Some(tid), Some(sid), Some(dur)) = (r.trace_id, r.span_id, r.dur_us) else {
            continue;
        };
        if !by_trace.contains_key(&tid) {
            order.push(tid);
        }
        if r.parent_id.is_none() {
            if let Some(us) = r
                .fields
                .iter()
                .find(|(k, _)| k == "trace_overhead_us")
                .and_then(|(_, v)| match v {
                    FieldValue::U64(u) => Some(*u),
                    FieldValue::I64(i) => u64::try_from(*i).ok(),
                    _ => None,
                })
            {
                root_overhead.insert(tid, us);
            }
        }
        by_trace.entry(tid).or_default().push(SpanRow {
            span_id: sid,
            parent_id: r.parent_id,
            name: r.name.clone(),
            start_us: r.t_us,
            dur_us: dur,
        });
    }
    order
        .into_iter()
        .map(|tid| {
            let spans = by_trace.remove(&tid).unwrap_or_default();
            let start = spans.iter().map(|s| s.start_us).min().unwrap_or(0);
            let end = spans.iter().map(|s| s.end_us()).max().unwrap_or(start);
            let overhead = root_overhead.get(&tid).copied();
            build(tid, spans, start, end, overhead.unwrap_or(0), overhead)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(span_id: u64, parent: Option<u64>, name: &str, start: u64, dur: u64) -> SpanRow {
        SpanRow {
            span_id,
            parent_id: parent,
            name: name.to_string(),
            start_us: start,
            dur_us: dur,
        }
    }

    #[test]
    fn segments_sum_exactly_to_wall() {
        let spans = vec![
            row(1, None, "campaign", 0, 1000),
            row(2, Some(1), "strategy.propose", 0, 100),
            row(3, Some(1), "eval.simulate", 50, 400), // overlaps propose
            row(4, Some(1), "eval.simulate", 300, 300),
            row(5, Some(1), "wal.append", 700, 50),
        ];
        let t = compute(7, &spans, 0, 1000, 30, true);
        let sum: u64 = t.segments.iter().map(|(_, us)| us).sum();
        assert_eq!(sum, t.wall_us);
        assert_eq!(t.wall_us, 1000);
        // Simulation wins the overlap: [50,600) simulated = 550.
        assert_eq!(t.segment_us(Segment::Simulation), 550);
        // Propose keeps only its non-overlapped [0,50) = 50.
        assert_eq!(t.segment_us(Segment::Propose), 50);
        assert_eq!(t.segment_us(Segment::Wal), 50);
        assert_eq!(t.segment_us(Segment::TraceOverhead), 30);
        assert_eq!(
            t.segment_us(Segment::SchedulerStall),
            1000 - 550 - 50 - 50 - 30
        );
    }

    #[test]
    fn overhead_is_clamped_to_residual() {
        let spans = vec![
            row(1, None, "campaign", 0, 100),
            row(2, Some(1), "eval.simulate", 0, 90),
        ];
        let t = compute(1, &spans, 0, 100, 10_000, true);
        assert_eq!(t.segment_us(Segment::TraceOverhead), 10);
        assert_eq!(t.segment_us(Segment::SchedulerStall), 0);
        let sum: u64 = t.segments.iter().map(|(_, us)| us).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn critical_path_follows_latest_ending_child() {
        let spans = vec![
            row(1, None, "campaign", 0, 1000),
            row(2, Some(1), "search.window", 0, 300),
            row(3, Some(1), "search.window", 300, 650), // ends last
            row(4, Some(3), "eval.simulate", 400, 500),
            row(5, Some(3), "eval.simulate", 350, 100),
        ];
        let t = compute(1, &spans, 0, 1000, 0, true);
        let names: Vec<&str> = t.critical_path.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["campaign", "search.window", "eval.simulate"]);
        assert_eq!(t.critical_path[2].span_id, 4);
        // campaign self time = 1000 − union of children [0,300)∪[300,950).
        assert_eq!(t.critical_path[0].self_us, 50);
        // generation #2 self = 650 − union([400,900)∪[350,450)) = 650 − 550.
        assert_eq!(t.critical_path[1].self_us, 100);
    }

    #[test]
    fn spans_with_unknown_parents_hang_off_the_window() {
        // A live view mid-campaign: the root has not closed, so child
        // spans reference a parent id the store has never seen.
        let spans = vec![
            row(7, Some(99), "eval.simulate", 100, 200),
            row(8, Some(99), "eval.simulate", 350, 100),
        ];
        let t = compute(1, &spans, 0, 500, 0, false);
        assert_eq!(t.segment_us(Segment::Simulation), 300);
        let sum: u64 = t.segments.iter().map(|(_, us)| us).sum();
        assert_eq!(sum, 500);
        assert_eq!(t.critical_path.len(), 1);
        assert_eq!(t.critical_path[0].span_id, 8);
    }

    #[test]
    fn empty_trace_is_all_stall() {
        let t = compute(1, &[], 100, 600, 0, false);
        assert_eq!(t.wall_us, 500);
        assert_eq!(t.segment_us(Segment::SchedulerStall), 500);
        assert!(t.critical_path.is_empty());
    }

    #[test]
    fn spans_are_clipped_to_the_window() {
        let spans = vec![row(1, None, "eval.simulate", 0, 1000)];
        let t = compute(1, &spans, 200, 700, 0, true);
        assert_eq!(t.segment_us(Segment::Simulation), 500);
        let sum: u64 = t.segments.iter().map(|(_, us)| us).sum();
        assert_eq!(sum, 500);
    }

    #[test]
    fn json_rendering_carries_segments_and_path() {
        let spans = vec![
            row(1, None, "campaign", 0, 100),
            row(2, Some(1), "eval.simulate", 10, 50),
        ];
        let t = compute(0xabcd, &spans, 0, 100, 5, true);
        let json = t.to_json();
        assert!(json.contains("\"trace_id\":\"000000000000abcd\""), "{json}");
        assert!(
            json.contains("\"segment\":\"simulation\",\"us\":50"),
            "{json}"
        );
        assert!(json.contains("\"critical_path\""), "{json}");
        assert!(json.contains("\"complete\":true"), "{json}");
    }

    #[test]
    fn live_store_roundtrip_and_forget() {
        let tid = 0x51_0000 + line!() as u64; // unlikely to collide
        register(tid, 1_000);
        ingest(tid, 900, Some(901), "eval.simulate", 1_100, 200);
        add_overhead_ns(tid, 5_000);
        let t = snapshot(tid, 2_000).expect("live trace");
        assert!(!t.complete);
        assert_eq!(t.wall_us, 1_000);
        assert_eq!(t.segment_us(Segment::Simulation), 200);
        assert_eq!(t.segment_us(Segment::TraceOverhead), 5);
        // Root closes: window snaps to the root interval, overhead
        // freezes at the root's recorded value.
        ingest(tid, 901, None, "campaign", 1_050, 800);
        freeze_overhead(tid, 6);
        let t = snapshot(tid, 9_999).expect("closed trace");
        assert!(t.complete);
        assert_eq!(t.start_us, 1_050);
        assert_eq!(t.wall_us, 800);
        assert_eq!(t.segment_us(Segment::TraceOverhead), 6);
        forget(tid);
        assert!(snapshot(tid, 9_999).is_none());
    }

    #[test]
    fn from_records_matches_live_reconstruction() {
        use crate::Record;
        let mk = |name: &str, sid: u64, parent: Option<u64>, t: u64, dur: u64| Record {
            t_us: t,
            name: name.to_string(),
            dur_us: Some(dur),
            trace_id: Some(42),
            span_id: Some(sid),
            parent_id: parent,
            fields: if parent.is_none() {
                vec![("trace_overhead_us".to_string(), FieldValue::U64(3))]
            } else {
                vec![]
            },
        };
        let records = vec![
            mk("eval.simulate", 2, Some(1), 10, 50),
            mk("campaign", 1, None, 0, 100),
        ];
        let offline = from_records(&records);
        assert_eq!(offline.len(), 1);
        let t = &offline[0];
        assert!(t.complete);
        assert_eq!(t.wall_us, 100);
        assert_eq!(t.segment_us(Segment::TraceOverhead), 3);
        assert_eq!(t.segment_us(Segment::Simulation), 50);
        let sum: u64 = t.segments.iter().map(|(_, us)| us).sum();
        assert_eq!(sum, t.wall_us);
    }
}
