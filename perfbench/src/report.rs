//! What one run reports: named metrics with their unit, statistic and
//! sample count, plus the output checks and the attempted/failed tally.

use crate::host::HostSpeed;
use crate::stats::{self, Summary};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (campaigns, requests or calls).
    pub n: usize,
    /// How the samples were reduced, e.g. `p50`, `p75 (asked p90)`,
    /// `mean`, `geomean`, `ratio of sums`.
    pub stat: String,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, n: usize, stat: &str) -> Self {
        Metric {
            name,
            unit,
            value,
            n,
            stat: stat.to_string(),
        }
    }

    /// A timing reduced by the percentile rule; zero with `n = 0` when
    /// there were no samples (the layer did not run on this workload).
    pub fn timing(name: &'static str, unit: &'static str, samples: &[f64], p: f64) -> Self {
        match stats::percentile(samples, p) {
            Some(s) => Metric::new(name, unit, s.value, s.n, &describe(s, p)),
            None => Metric::new(name, unit, 0.0, 0, "not exercised"),
        }
    }

    /// A mean per sample; zero with `n = 0` when there were no samples.
    pub fn mean(name: &'static str, unit: &'static str, samples: &[f64]) -> Self {
        match stats::mean(samples) {
            Some(v) => Metric::new(name, unit, v, samples.len(), "mean"),
            None => Metric::new(name, unit, 0.0, 0, "not exercised"),
        }
    }

    /// Multiply by the run's host-speed scale (see `host`), or by its
    /// inverse for a rate.
    pub fn scaled(mut self, factor: f64) -> Self {
        self.value *= factor;
        self.host_scaled()
    }

    /// Label a value whose samples were each host-scaled already.
    pub fn host_scaled(mut self) -> Self {
        self.stat.push_str(", host-scaled");
        self
    }

    /// `num / den` summed over samples; zero when the denominator is zero.
    pub fn ratio(name: &'static str, unit: &'static str, num: f64, den: f64, n: usize) -> Self {
        if den > 0.0 {
            Metric::new(name, unit, num / den, n, "ratio of sums")
        } else {
            Metric::new(name, unit, 0.0, 0, "not exercised")
        }
    }
}

/// Label the percentile actually reported, and say when the rule could
/// not be met at all.
fn describe(s: Summary, asked: f64) -> String {
    let mut out = format!("p{}", (s.percentile * 100.0).round());
    if s.percentile < asked {
        out.push_str(&format!(" (asked p{})", (asked * 100.0).round()));
    }
    if s.beyond < stats::MIN_BEYOND {
        out.push_str(&format!(" (only {} samples above it)", s.beyond));
    }
    out
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct RunReport {
    /// The gated metrics for the run's mode.
    pub metrics: Vec<Metric>,
    /// Metrics printed for reference only: they exist on some workloads
    /// but not on all, so they cannot carry a bound.
    pub extra: Vec<Metric>,
    pub checks: Vec<Check>,
    /// The host-speed reference the timings were scaled by (untraced runs).
    pub host: Option<HostSpeed>,
    /// `campaign_s_p50` before host scaling.
    pub unscaled_campaign_s_p50: Option<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl RunReport {
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.ok)
    }
}

/// Render a float for JSON with every digit Rust's shortest round-trip
/// formatting keeps; non-finite values (which the checks reject) become 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
