//! # tunio-bench — experiment harness
//!
//! One binary per table/figure of the paper's evaluation (§IV); each
//! prints the same rows/series the paper reports and writes a JSON dump
//! under `results/`. See DESIGN.md for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured numbers.
//!
//! Run everything with `cargo run -p tunio-bench --bin run_all --release`.

#![warn(missing_docs)]

use serde::Serialize;
use std::path::PathBuf;
use tunio::pipeline::{run_campaign, CampaignOutcome, CampaignSpec};
use tunio::roti::RotiPoint;
use tunio_tuner::{
    run_strategy, EvalEngine, GaConfig, GaStrategy, NoObserver, Stopper, SubsetProvider,
    TuningTrace,
};

/// Gibibytes, for bandwidth reporting.
pub const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
/// Megabytes (decimal), matching the paper's MB/s units.
pub const MB: f64 = 1e6;

/// Where result JSON files land (repo-root `results/`).
pub fn results_dir() -> PathBuf {
    let candidates = [PathBuf::from("results"), PathBuf::from("../../results")];
    for c in &candidates {
        if c.is_dir() {
            return c.clone();
        }
    }
    std::fs::create_dir_all("results").ok();
    PathBuf::from("results")
}

/// Serialize `value` to `results/<name>.json` (best-effort; prints a
/// warning on failure so experiments still run read-only).
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(text) => {
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                eprintln!("[wrote {}]", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
    }
}

/// A labeled tuning campaign for comparison plots.
#[derive(Debug, Clone, Serialize)]
pub struct LabeledTrace {
    /// Legend label.
    pub label: String,
    /// Per-iteration best perf in GiB/s.
    pub bandwidth_gibs: Vec<f64>,
    /// Cumulative tuning minutes per iteration.
    pub minutes: Vec<f64>,
    /// RoTI series (MB/s per minute).
    pub roti: Vec<f64>,
    /// Iteration at which the campaign stopped.
    pub stopped_at: u32,
    /// Total tuning budget consumed, minutes.
    pub total_minutes: f64,
    /// Final best perf, GiB/s.
    pub final_gibs: f64,
    /// Untuned (default-configuration) perf, GiB/s.
    pub default_gibs: f64,
}

impl LabeledTrace {
    /// Build from a campaign outcome.
    pub fn from_outcome(label: impl Into<String>, outcome: &CampaignOutcome) -> Self {
        LabeledTrace::from_trace(label, &outcome.trace)
    }

    /// Build from a raw trace.
    pub fn from_trace(label: impl Into<String>, trace: &TuningTrace) -> Self {
        let roti: Vec<RotiPoint> = tunio::roti::roti_curve(trace);
        LabeledTrace {
            label: label.into(),
            bandwidth_gibs: trace.records.iter().map(|r| r.best_perf / GIB).collect(),
            minutes: trace
                .records
                .iter()
                .map(|r| r.cumulative_cost_s / 60.0)
                .collect(),
            roti: roti.iter().map(|p| p.roti).collect(),
            stopped_at: trace.iterations(),
            total_minutes: trace.total_cost_min(),
            final_gibs: trace.best_perf / GIB,
            default_gibs: trace.default_perf / GIB,
        }
    }
}

/// Run the GA on `engine` through the strategy scheduler, one record
/// window per generation, with one evaluator slot per host core (up to
/// 8). The trace does not depend on the slot count.
pub fn run_ga(
    engine: &EvalEngine,
    cfg: GaConfig,
    stopper: &mut dyn Stopper,
    subsets: &mut dyn SubsetProvider,
) -> TuningTrace {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
    let strategy = Box::new(GaStrategy::new(cfg, engine.space.clone()));
    let batch = cfg.population.max(1);
    run_strategy(
        engine,
        strategy,
        stopper,
        subsets,
        batch,
        threads,
        &mut NoObserver,
    )
    .trace
}

/// Run a campaign and wrap it with a label.
pub fn labeled_campaign(label: impl Into<String>, spec: &CampaignSpec) -> LabeledTrace {
    let outcome = run_campaign(spec).expect("fault-free campaign");
    LabeledTrace::from_outcome(label, &outcome)
}

/// Print a per-iteration series table for several traces.
pub fn print_series_table(title: &str, traces: &[LabeledTrace]) {
    println!("\n=== {title} ===");
    print!("{:>4}", "iter");
    for t in traces {
        print!("  {:>26}", truncate(&t.label, 26));
    }
    println!();
    let max_len = traces
        .iter()
        .map(|t| t.bandwidth_gibs.len())
        .max()
        .unwrap_or(0);
    for i in 0..max_len {
        print!("{:>4}", i + 1);
        for t in traces {
            match t.bandwidth_gibs.get(i) {
                Some(bw) => print!(
                    "  {:>12.3} GiB/s {:>6.1}m",
                    bw,
                    t.minutes.get(i).copied().unwrap_or(0.0)
                ),
                None => print!("  {:>26}", "-"),
            }
        }
        println!();
    }
    for t in traces {
        println!(
            "{:<32} stopped at iter {:>3}, {:>8.1} tuning minutes, final {:.3} GiB/s ({:.2}x over default)",
            t.label,
            t.stopped_at,
            t.total_minutes,
            t.final_gibs,
            t.final_gibs / t.default_gibs.max(1e-12),
        );
    }
}

fn truncate(s: &str, n: usize) -> &str {
    if s.len() <= n {
        s
    } else {
        &s[..n]
    }
}

/// First iteration whose best perf reaches `target_fraction` of the
/// trace's final best.
pub fn first_hit_iteration(trace: &LabeledTrace, target_gibs: f64) -> Option<u32> {
    trace
        .bandwidth_gibs
        .iter()
        .position(|&bw| bw >= target_gibs)
        .map(|i| i as u32 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tunio::pipeline::PipelineKind;
    use tunio_workloads::{hacc, Variant};

    #[test]
    fn labeled_trace_roundtrip() {
        let spec = CampaignSpec {
            app: hacc(),
            variant: Variant::Kernel,
            kind: PipelineKind::HsTunerNoStop,
            max_iterations: 4,
            population: 4,
            seed: 3,
            large_scale: false,
        };
        let t = labeled_campaign("test", &spec);
        assert_eq!(t.stopped_at, 4);
        assert_eq!(t.bandwidth_gibs.len(), 4);
        assert_eq!(t.minutes.len(), 4);
        assert!(t.total_minutes > 0.0);
        assert!(t.final_gibs >= t.default_gibs);
        let hit = first_hit_iteration(&t, t.final_gibs * 0.5);
        assert!(hit.is_some());
    }

    #[test]
    fn truncate_respects_length() {
        assert_eq!(truncate("abcdef", 3), "abc");
        assert_eq!(truncate("ab", 3), "ab");
    }
}
