//! Counter/gauge/histogram handles behind a thread-safe registry.
//!
//! Handles are cheap `Arc`-clones of atomics; recording never takes the
//! registry lock (that is only held while looking a metric up by name).
//! Unlike events, metrics stay live even without a sink — they replace
//! the ad-hoc `AtomicU64` counters subsystems used to keep by hand.

use crate::sync::lock;
use crate::FieldValue;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn inc(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-value-wins gauge (stores an `f64`).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `v` to the gauge (load/store; last writer wins on races,
    /// which is fine for single-writer gauges).
    pub fn add(&self, v: f64) {
        self.set(self.get() + v);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Aggregated histogram state: count, sum and extrema.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramData {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
}

impl HistogramData {
    fn empty() -> Self {
        HistogramData {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
        }
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Streaming histogram (count/sum/min/max; no buckets — enough for the
/// campaign reports, cheap enough for hot paths).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<Mutex<HistogramData>>);

impl Histogram {
    /// Record one sample.
    pub fn record(&self, v: f64) {
        let mut d = lock(&self.0);
        if d.count == 0 {
            d.min = v;
            d.max = v;
        } else {
            d.min = d.min.min(v);
            d.max = d.max.max(v);
        }
        d.count += 1;
        d.sum += v;
    }

    /// Snapshot the aggregated state.
    pub fn get(&self) -> HistogramData {
        *lock(&self.0)
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// Registry key: a metric name plus its (possibly empty) label set. Two
/// handles with the same name but different labels are distinct series.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct MetricKey {
    name: &'static str,
    labels: Vec<(&'static str, String)>,
}

/// Snapshot of one metric's value at flush time.
#[derive(Debug, Clone)]
pub struct MetricSnapshot {
    /// Registered metric name.
    pub name: String,
    /// Label pairs identifying this series (empty for unlabeled metrics).
    pub labels: Vec<(String, String)>,
    /// Value at snapshot time.
    pub value: MetricValue,
}

/// The value inside a [`MetricSnapshot`].
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram aggregate.
    Histogram(HistogramData),
}

impl MetricSnapshot {
    /// Render as record fields for [`crate::flush_metrics`]. Labels become
    /// `label.<key>` string fields.
    pub fn into_fields(self) -> Vec<(String, FieldValue)> {
        let mut fields = vec![("metric".to_string(), FieldValue::Str(self.name))];
        for (k, v) in self.labels {
            fields.push((format!("label.{k}"), FieldValue::Str(v)));
        }
        match self.value {
            MetricValue::Counter(v) => {
                fields.push(("kind".into(), FieldValue::Str("counter".into())));
                fields.push(("value".into(), FieldValue::U64(v)));
            }
            MetricValue::Gauge(v) => {
                fields.push(("kind".into(), FieldValue::Str("gauge".into())));
                fields.push(("value".into(), FieldValue::F64(v)));
            }
            MetricValue::Histogram(h) => {
                fields.push(("kind".into(), FieldValue::Str("histogram".into())));
                fields.push(("count".into(), FieldValue::U64(h.count)));
                fields.push(("sum".into(), FieldValue::F64(h.sum)));
                fields.push(("min".into(), FieldValue::F64(h.min)));
                fields.push(("max".into(), FieldValue::F64(h.max)));
            }
        }
        fields
    }
}

/// Thread-safe (name, labels) → metric registry.
pub(crate) struct Registry {
    metrics: Mutex<HashMap<MetricKey, Metric>>,
}

impl Registry {
    pub(crate) fn new() -> Self {
        Registry {
            metrics: Mutex::new(HashMap::new()),
        }
    }

    fn key(name: &'static str, labels: &[(&'static str, &str)]) -> MetricKey {
        MetricKey {
            name,
            labels: labels.iter().map(|&(k, v)| (k, v.to_string())).collect(),
        }
    }

    pub(crate) fn counter(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Counter {
        let mut m = lock(&self.metrics);
        match m
            .entry(Self::key(name, labels))
            .or_insert_with(|| Metric::Counter(Counter(Arc::new(AtomicU64::new(0)))))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    pub(crate) fn gauge(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Gauge {
        let mut m = lock(&self.metrics);
        match m
            .entry(Self::key(name, labels))
            .or_insert_with(|| Metric::Gauge(Gauge(Arc::new(AtomicU64::new(0)))))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    pub(crate) fn histogram(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Histogram {
        let mut m = lock(&self.metrics);
        match m.entry(Self::key(name, labels)).or_insert_with(|| {
            Metric::Histogram(Histogram(Arc::new(Mutex::new(HistogramData::empty()))))
        }) {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    pub(crate) fn snapshot(&self) -> Vec<MetricSnapshot> {
        let m = lock(&self.metrics);
        let mut out: Vec<MetricSnapshot> = m
            .iter()
            .map(|(key, metric)| MetricSnapshot {
                name: key.name.to_string(),
                labels: key
                    .labels
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
                value: match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.get()),
                },
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name).then_with(|| a.labels.cmp(&b.labels)));
        out
    }

    pub(crate) fn reset(&self) {
        let m = lock(&self.metrics);
        for metric in m.values() {
            match metric {
                Metric::Counter(c) => c.0.store(0, Ordering::Relaxed),
                Metric::Gauge(g) => g.0.store(0.0f64.to_bits(), Ordering::Relaxed),
                Metric::Histogram(h) => *lock(&h.0) = HistogramData::empty(),
            }
        }
    }
}
