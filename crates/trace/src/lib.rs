//! # tunio-trace — structured tracing and metrics for tuning campaigns
//!
//! The tuning pipeline makes per-iteration decisions (subset selection,
//! early stopping, RoTI accounting) that are invisible outside ad-hoc
//! prints. This crate makes them observable: every layer of the pipeline
//! emits *records* (events and spans with typed key/value fields) into a
//! process-global tracer, and keeps *metrics* (counters, gauges,
//! histograms) in a thread-safe registry.
//!
//! Records flow to a pluggable [`Sink`]:
//!
//! * no sink installed (the default) — emission is a single relaxed
//!   atomic load; the instrumented pipeline runs at full speed,
//! * [`JsonlSink`] — one JSON object per line, replayable into a
//!   human-readable campaign summary by the `tunio-report` binary
//!   (see [`report`]),
//! * [`MemorySink`] — buffers records in memory for tests.
//!
//! Metrics are always live (they are plain atomics, as cheap as the
//! counters the evaluation engine already kept); [`flush_metrics`] emits
//! a snapshot of every registered metric into the active sink.
//!
//! ## Granularity rule
//!
//! Events are for *per-generation* (or rarer) occurrences; anything that
//! fires per simulator step or per replay-buffer sample must use a
//! metric instead, so a JSON-lines trace of a full campaign stays small
//! enough to commit as a CI artifact.
//!
//! ## Causality
//!
//! Spans are *causal*: each carries a `trace_id`/`span_id` pair and the
//! id of its parent. Parentage is implicit — [`span`] reads the calling
//! thread's innermost open span — and crosses threads explicitly via
//! [`SpanContext`] handles: capture [`current`] where work is proposed,
//! install it with [`with_context`] where the work runs. A span opened
//! with no surrounding context is a *trace root* and mints the trace id.
//! The [`timeline`] module folds a trace's span DAG into exclusive
//! wall-clock segments and a critical path.
//!
//! ## Example
//!
//! ```
//! use tunio_trace as trace;
//!
//! let sink = trace::install_memory_sink();
//! {
//!     let _span = trace::span("demo.work", vec![("iteration", 1u32.into())]);
//!     trace::event("demo.found", vec![("perf", 1.5e9.into())]);
//! }
//! trace::counter("demo.hits").inc(3);
//! trace::flush_metrics();
//! let records = sink.take();
//! assert_eq!(records[0].name, "demo.found"); // events precede span end
//! assert_eq!(records[1].name, "demo.work");
//! assert!(records[1].dur_us.is_some());
//! trace::clear_sink();
//! ```

#![warn(missing_docs)]

pub mod expose;
pub mod http;
pub mod metrics;
pub mod report;
pub mod sink;
pub mod timeline;

pub use expose::{metrics_response, render_global, render_prometheus, serve_metrics};
pub use metrics::{Counter, Gauge, Histogram, MetricSnapshot};
pub use sink::{JsonlSink, MemorySink, Sink};
pub use timeline::Timeline;

use parking_lot::RwLock;
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A typed field value attached to a record.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// UTF-8 text.
    Str(String),
    /// Signed integer.
    I64(i64),
    /// Unsigned integer.
    U64(u64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        FieldValue::I64(v as i64)
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

/// Field list attached to a record: insertion-ordered key/value pairs.
pub type Fields = Vec<(&'static str, FieldValue)>;

/// One emitted record: an instantaneous event, or a closed span when
/// `dur_us` is set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record {
    /// Microseconds since the tracer's epoch (first use in the process).
    pub t_us: u64,
    /// Record name, e.g. `"search.window"`.
    pub name: String,
    /// Span duration in microseconds; `None` for instantaneous events.
    pub dur_us: Option<u64>,
    /// Trace the record belongs to; `None` for records emitted outside
    /// any span context (e.g. `"metric"` snapshots).
    pub trace_id: Option<u64>,
    /// The span's own id (span records only).
    pub span_id: Option<u64>,
    /// Parent span id; `None` marks a trace root (or, for events, an
    /// event outside any span).
    pub parent_id: Option<u64>,
    /// Typed fields, in emission order.
    pub fields: Vec<(String, FieldValue)>,
}

/// Causal identity of an open span: the trace (campaign) it belongs to
/// and its own process-unique span id. `Copy`, so it can be stored in a
/// job queue entry and carried across threads; install it on the worker
/// with [`with_context`] to make that worker's spans children of the
/// originating span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanContext {
    /// Trace the span belongs to.
    pub trace_id: u64,
    /// The span's own id.
    pub span_id: u64,
}

/// Span ids are allocated from one process-global counter so they are
/// unique across threads and traces (0 is reserved / never allocated).
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate a fresh process-unique span id, for spans emitted explicitly
/// via [`emit_span_at`] (spans whose open and close happen on different
/// threads and therefore cannot use the [`span`] guard).
pub fn alloc_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    /// The calling thread's innermost open span.
    static CURRENT: Cell<Option<SpanContext>> = const { Cell::new(None) };
}

/// The current thread's innermost open span context, if any. Capture
/// this where work is *proposed* and hand it to the thread that runs it.
pub fn current() -> Option<SpanContext> {
    CURRENT.with(|c| c.get())
}

/// Install `ctx` as the calling thread's current span context for the
/// guard's lifetime (restores the previous context on drop). `None`
/// clears the context. This is how scheduler worker threads join the
/// proposing span's causal chain before evaluating a job.
pub fn with_context(ctx: Option<SpanContext>) -> ContextGuard {
    let prev = CURRENT.with(|c| c.replace(ctx));
    ContextGuard {
        prev,
        _not_send: PhantomData,
    }
}

/// RAII guard from [`with_context`]; restores the previous context on
/// drop. `!Send`: it manipulates thread-local state and must be dropped
/// on the thread that created it.
pub struct ContextGuard {
    prev: Option<SpanContext>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        CURRENT.with(|c| c.set(prev));
    }
}

struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    sink: RwLock<Option<Arc<dyn Sink>>>,
    metrics: metrics::Registry,
}

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        enabled: AtomicBool::new(false),
        epoch: Instant::now(),
        sink: RwLock::new(None),
        metrics: metrics::Registry::new(),
    })
}

/// Whether a sink is installed. Callers building expensive field sets
/// should check this first; the emission functions also check it.
#[inline]
pub fn enabled() -> bool {
    tracer().enabled.load(Ordering::Relaxed)
}

/// Install a sink; subsequent events and spans flow into it.
pub fn set_sink(sink: Arc<dyn Sink>) {
    let t = tracer();
    *t.sink.write() = Some(sink);
    t.enabled.store(true, Ordering::Relaxed);
}

/// Remove the active sink (flushing it) and disable emission.
pub fn clear_sink() {
    let t = tracer();
    let old = t.sink.write().take();
    t.enabled.store(false, Ordering::Relaxed);
    if let Some(s) = old {
        s.flush();
    }
}

/// Install a fresh [`MemorySink`] and return a handle for reading it.
pub fn install_memory_sink() -> Arc<MemorySink> {
    let sink = Arc::new(MemorySink::default());
    set_sink(sink.clone());
    sink
}

/// Install a [`JsonlSink`] writing to `path`.
pub fn install_jsonl_sink(path: &std::path::Path) -> std::io::Result<()> {
    let sink = Arc::new(JsonlSink::create(path)?);
    set_sink(sink);
    Ok(())
}

/// Flush the active sink (no-op when none is installed).
pub fn flush() {
    if let Some(s) = tracer().sink.read().as_ref() {
        s.flush();
    }
}

/// Deliver a record to the sink and, for spans with causal ids, to the
/// live timeline store. The wall time this path itself consumes is
/// accumulated per trace so the timeline can attribute tracing overhead
/// as its own segment instead of hiding it inside a stall.
fn emit(record: Record) {
    let t0 = Instant::now();
    if let (Some(tid), Some(sid), Some(dur)) = (record.trace_id, record.span_id, record.dur_us) {
        timeline::ingest(tid, sid, record.parent_id, &record.name, record.t_us, dur);
    }
    if let Some(s) = tracer().sink.read().as_ref() {
        s.emit(&record);
    }
    if let Some(tid) = record.trace_id {
        timeline::add_overhead_ns(tid, t0.elapsed().as_nanos() as u64);
    }
}

/// Microseconds since the tracer's epoch (first use in the process) —
/// the clock every record timestamp is expressed in. Public so explicit
/// span emission ([`emit_span_at`]) can timestamp with the same clock.
pub fn now_us() -> u64 {
    tracer().epoch.elapsed().as_micros() as u64
}

/// Emit an instantaneous event. Cheap when no sink is installed: one
/// atomic load, and the `fields` vec is dropped unused (pass simple
/// scalar fields in hot paths, or guard with [`enabled`]).
///
/// Events attach to the calling thread's current span: they carry its
/// trace id and record the enclosing span as their parent.
pub fn event(name: &'static str, fields: Fields) {
    if !enabled() {
        return;
    }
    let ctx = current();
    emit(Record {
        t_us: now_us(),
        name: name.to_string(),
        dur_us: None,
        trace_id: ctx.map(|c| c.trace_id),
        span_id: None,
        parent_id: ctx.map(|c| c.span_id),
        fields: fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    });
}

/// Start a span: a record emitted on guard drop, carrying its duration.
/// When no sink is installed the guard is inert.
///
/// The span parents itself under the calling thread's current span and
/// becomes the current span until the guard drops. With no surrounding
/// context it is a *trace root* and mints a fresh trace id (equal to its
/// own span id). To join a chosen trace instead, install a context with
/// [`with_context`] first: the serve daemon does this with a trace id
/// derived from the campaign id.
pub fn span(name: &'static str, fields: Fields) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            inner: None,
            _not_send: PhantomData,
        };
    }
    let parent = current();
    let span_id = alloc_span_id();
    let ctx = SpanContext {
        trace_id: parent.map_or(span_id, |p| p.trace_id),
        span_id,
    };
    let prev = CURRENT.with(|c| c.replace(Some(ctx)));
    SpanGuard {
        inner: Some(SpanInner {
            name,
            fields,
            start_us: now_us(),
            start: Instant::now(),
            ctx,
            parent: parent.map(|p| p.span_id),
            prev,
        }),
        _not_send: PhantomData,
    }
}

struct SpanInner {
    name: &'static str,
    fields: Fields,
    start_us: u64,
    start: Instant,
    ctx: SpanContext,
    parent: Option<u64>,
    prev: Option<SpanContext>,
}

/// RAII guard for an open span; emits the span record when dropped.
/// `!Send`: the guard is the thread's current-span marker and must close
/// on the thread that opened it (spans that genuinely cross threads use
/// [`emit_span_at`] instead).
pub struct SpanGuard {
    inner: Option<SpanInner>,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    /// Attach another field to the span before it closes (e.g. an
    /// outcome computed inside the span).
    pub fn add_field(&mut self, key: &'static str, value: FieldValue) {
        if let Some(inner) = self.inner.as_mut() {
            inner.fields.push((key, value));
        }
    }

    /// The span's causal identity (`None` for inert guards), for handing
    /// to other threads via [`with_context`].
    pub fn context(&self) -> Option<SpanContext> {
        self.inner.as_ref().map(|i| i.ctx)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let prev = inner.prev;
            CURRENT.with(|c| c.set(prev));
            let mut fields: Vec<(String, FieldValue)> = inner
                .fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
            if inner.parent.is_none() {
                // Root spans carry the trace's accumulated tracing
                // overhead so an offline reconstruction from the JSONL
                // file sees the same number as the live store; freezing
                // it in the store keeps live snapshots taken *after* the
                // root closed equal to that offline reconstruction.
                let overhead = timeline::overhead_us(inner.ctx.trace_id);
                timeline::freeze_overhead(inner.ctx.trace_id, overhead);
                fields.push(("trace_overhead_us".to_string(), FieldValue::U64(overhead)));
            }
            emit(Record {
                t_us: inner.start_us,
                name: inner.name.to_string(),
                dur_us: Some(inner.start.elapsed().as_micros() as u64),
                trace_id: Some(inner.ctx.trace_id),
                span_id: Some(inner.ctx.span_id),
                parent_id: inner.parent,
                fields,
            });
        }
    }
}

/// Emit a span record directly, for spans whose open and close happen on
/// different threads (e.g. the serve daemon's per-campaign root span,
/// opened on the HTTP thread at submission and closed on the worker that
/// finishes the campaign). The caller allocates ids with
/// [`alloc_span_id`] and timestamps with [`now_us`]; `parent_id: None`
/// marks a trace root and attaches the trace-overhead field exactly as
/// [`SpanGuard`] does.
#[allow(clippy::too_many_arguments)]
pub fn emit_span_at(
    name: &str,
    trace_id: u64,
    span_id: u64,
    parent_id: Option<u64>,
    start_us: u64,
    end_us: u64,
    fields: Fields,
) {
    if !enabled() {
        return;
    }
    let mut fields: Vec<(String, FieldValue)> = fields
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    if parent_id.is_none() {
        let overhead = timeline::overhead_us(trace_id);
        timeline::freeze_overhead(trace_id, overhead);
        fields.push(("trace_overhead_us".to_string(), FieldValue::U64(overhead)));
    }
    emit(Record {
        t_us: start_us,
        name: name.to_string(),
        dur_us: Some(end_us.saturating_sub(start_us)),
        trace_id: Some(trace_id),
        span_id: Some(span_id),
        parent_id,
        fields,
    });
}

/// Look up (or create) a counter in the global metric registry.
pub fn counter(name: &'static str) -> Counter {
    tracer().metrics.counter(name, &[])
}

/// Look up (or create) a gauge in the global metric registry.
pub fn gauge(name: &'static str) -> Gauge {
    tracer().metrics.gauge(name, &[])
}

/// Look up (or create) a histogram in the global metric registry.
pub fn histogram(name: &'static str) -> Histogram {
    tracer().metrics.histogram(name, &[])
}

/// Look up (or create) a counter with labels: same name, different label
/// values are distinct series (e.g. per-layer counters).
pub fn labeled_counter(name: &'static str, labels: &[(&'static str, &str)]) -> Counter {
    tracer().metrics.counter(name, labels)
}

/// Look up (or create) a gauge with labels.
pub fn labeled_gauge(name: &'static str, labels: &[(&'static str, &str)]) -> Gauge {
    tracer().metrics.gauge(name, labels)
}

/// Look up (or create) a histogram with labels.
pub fn labeled_histogram(name: &'static str, labels: &[(&'static str, &str)]) -> Histogram {
    tracer().metrics.histogram(name, labels)
}

/// Snapshot every registered metric (sorted by name, then labels).
pub fn metrics_snapshot() -> Vec<MetricSnapshot> {
    tracer().metrics.snapshot()
}

/// Emit one `"metric"` record per registered metric into the active
/// sink, so traces carry final counter/gauge/histogram values.
pub fn flush_metrics() {
    if !enabled() {
        return;
    }
    for m in metrics_snapshot() {
        emit(Record {
            t_us: now_us(),
            name: "metric".to_string(),
            fields: m.into_fields(),
            ..Record::default()
        });
    }
}

/// Reset every registered metric to zero/empty. Metrics are
/// process-global; campaigns that want per-run numbers call this first
/// (tests do too).
pub fn reset_metrics() {
    tracer().metrics.reset()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tracer is process-global, so sink-swapping tests share one
    // lock to avoid interleaving.
    pub(crate) fn sink_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_tracer_emits_nothing_and_spans_are_inert() {
        let _l = sink_test_lock();
        clear_sink();
        assert!(!enabled());
        event("x", vec![("a", 1u32.into())]);
        let mut g = span("y", vec![]);
        g.add_field("late", true.into());
        drop(g);
        // Installing a sink afterwards must not surface earlier records.
        let sink = install_memory_sink();
        assert!(sink.take().is_empty());
        clear_sink();
    }

    #[test]
    fn memory_sink_preserves_emission_order_and_fields() {
        let _l = sink_test_lock();
        let sink = install_memory_sink();
        event("first", vec![("i", 1u32.into())]);
        {
            let mut s = span("work", vec![("seed", 7u64.into())]);
            event("inside", vec![]);
            s.add_field("verdict", FieldValue::Str("ok".into()));
        }
        event("last", vec![("f", 2.5f64.into())]);
        clear_sink();

        let records = sink.take();
        let names: Vec<&str> = records.iter().map(|r| r.name.as_str()).collect();
        // Span closes after its interior events: ordering is emission
        // (i.e. completion) order.
        assert_eq!(names, ["first", "inside", "work", "last"]);
        let work = &records[2];
        assert!(work.dur_us.is_some());
        assert_eq!(work.fields[0], ("seed".to_string(), FieldValue::U64(7)));
        assert_eq!(
            work.fields[1],
            ("verdict".to_string(), FieldValue::Str("ok".into()))
        );
        // Timestamps are monotone non-decreasing in emission order,
        // except span records which carry their *start* time.
        assert!(records[0].t_us <= records[1].t_us);
        assert!(records[2].t_us <= records[1].t_us);
    }

    #[test]
    fn spans_mint_and_propagate_causal_ids() {
        let _l = sink_test_lock();
        let sink = install_memory_sink();
        let root = span("t.root", vec![]);
        let root_ctx = root.context().expect("live root");
        // A context-free span is a trace root: it mints the trace id.
        assert_eq!(root_ctx.trace_id, root_ctx.span_id);
        assert_eq!(current(), Some(root_ctx));
        {
            let child = span("t.child", vec![]);
            let child_ctx = child.context().expect("live child");
            assert_eq!(child_ctx.trace_id, root_ctx.trace_id);
            assert_ne!(child_ctx.span_id, root_ctx.span_id);
            event("t.evt", vec![]);
        }
        assert_eq!(current(), Some(root_ctx));
        drop(root);
        assert_eq!(current(), None);
        clear_sink();

        let records = sink.take();
        let names: Vec<&str> = records.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["t.evt", "t.child", "t.root"]);
        let (evt, child, rootr) = (&records[0], &records[1], &records[2]);
        // The event attaches under the child span.
        assert_eq!(evt.trace_id, Some(root_ctx.trace_id));
        assert_eq!(evt.parent_id, child.span_id);
        assert_eq!(evt.span_id, None);
        // The child parents under the root; the root has no parent and
        // carries the frozen overhead field.
        assert_eq!(child.parent_id, Some(root_ctx.span_id));
        assert_eq!(rootr.parent_id, None);
        assert_eq!(rootr.span_id, Some(root_ctx.span_id));
        assert!(rootr.fields.iter().any(|(k, _)| k == "trace_overhead_us"));
        timeline::forget(root_ctx.trace_id);
    }

    #[test]
    fn context_handles_cross_threads() {
        let _l = sink_test_lock();
        let sink = install_memory_sink();
        let root = span("x.root", vec![]);
        let ctx = root.context();
        let handle = std::thread::spawn(move || {
            assert_eq!(current(), None, "fresh thread starts context-free");
            let _g = with_context(ctx);
            assert_eq!(current(), ctx);
            let _s = span("x.work", vec![]);
        });
        handle.join().unwrap();
        let trace_id = ctx.unwrap().trace_id;
        drop(root);
        clear_sink();

        let records = sink.take();
        let work = records.iter().find(|r| r.name == "x.work").unwrap();
        assert_eq!(work.trace_id, Some(trace_id));
        assert_eq!(work.parent_id, Some(ctx.unwrap().span_id));
        timeline::forget(trace_id);
    }

    #[test]
    fn emit_span_at_records_cross_thread_roots() {
        let _l = sink_test_lock();
        let sink = install_memory_sink();
        let trace_id = 0xbead;
        let root_id = alloc_span_id();
        timeline::register(trace_id, 100);
        emit_span_at(
            "s.queue_wait",
            trace_id,
            alloc_span_id(),
            Some(root_id),
            100,
            250,
            vec![],
        );
        emit_span_at("s.root", trace_id, root_id, None, 100, 1_100, vec![]);
        clear_sink();
        let records = sink.take();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].dur_us, Some(150));
        assert_eq!(records[1].parent_id, None);
        assert!(records[1]
            .fields
            .iter()
            .any(|(k, _)| k == "trace_overhead_us"));
        let t = timeline::snapshot(trace_id, 9_999).expect("stored trace");
        assert!(t.complete);
        assert_eq!(t.wall_us, 1_000);
        timeline::forget(trace_id);
    }

    #[test]
    fn metrics_register_accumulate_and_reset() {
        let _l = sink_test_lock();
        reset_metrics();
        counter("t.hits").inc(2);
        counter("t.hits").inc(3);
        gauge("t.level").set(4.5);
        histogram("t.cost").record(1.0);
        histogram("t.cost").record(3.0);

        let snap = metrics_snapshot();
        let find = |n: &str| snap.iter().find(|m| m.name == n).unwrap().clone();
        match find("t.hits") {
            MetricSnapshot {
                value: metrics::MetricValue::Counter(v),
                ..
            } => assert_eq!(v, 5),
            other => panic!("unexpected {other:?}"),
        }
        match find("t.level") {
            MetricSnapshot {
                value: metrics::MetricValue::Gauge(v),
                ..
            } => assert_eq!(v, 4.5),
            other => panic!("unexpected {other:?}"),
        }
        match find("t.cost") {
            MetricSnapshot {
                value: metrics::MetricValue::Histogram(h),
                ..
            } => {
                assert_eq!(h.count, 2);
                assert_eq!(h.sum, 4.0);
                assert_eq!(h.min, 1.0);
                assert_eq!(h.max, 3.0);
            }
            other => panic!("unexpected {other:?}"),
        }

        reset_metrics();
        let snap = metrics_snapshot();
        for m in snap {
            match m.value {
                metrics::MetricValue::Counter(v) => assert_eq!(v, 0),
                metrics::MetricValue::Gauge(v) => assert_eq!(v, 0.0),
                metrics::MetricValue::Histogram(h) => assert_eq!(h.count, 0),
            }
        }
    }

    #[test]
    fn flush_metrics_emits_metric_records() {
        let _l = sink_test_lock();
        reset_metrics();
        let sink = install_memory_sink();
        counter("t.flush.n").inc(9);
        flush_metrics();
        clear_sink();
        let records = sink.take();
        let rec = records
            .iter()
            .find(|r| {
                r.name == "metric"
                    && r.fields
                        .iter()
                        .any(|(k, v)| k == "metric" && *v == FieldValue::Str("t.flush.n".into()))
            })
            .expect("flushed metric record");
        assert!(rec
            .fields
            .iter()
            .any(|(k, v)| k == "value" && *v == FieldValue::U64(9)));
    }
}
