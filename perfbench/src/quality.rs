//! What the tuner returned: the four quality metrics. They guard against
//! a speed-up that changes the result, so they are computed over a fixed
//! quality block and read the same on every run of the same code.

use crate::report::Metric;
use crate::stats;
use tunio::pipeline::CampaignOutcome;
use tunio::roti::final_roti;

const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
/// Share of the final best that counts as reaching the target.
const TARGET: f64 = 0.95;

#[derive(Debug, Default)]
pub struct Quality {
    tuned_gibs: Vec<f64>,
    tuning_min: Vec<f64>,
    roti: Vec<f64>,
    evals_to_target: Vec<f64>,
    problems: Vec<String>,
}

impl Quality {
    /// Add one campaign; `window` is its committed evaluations per record.
    pub fn add(&mut self, outcome: &CampaignOutcome, window: usize) {
        let t = &outcome.trace;
        let best: Vec<f64> = t.records.iter().map(|r| r.best_perf).collect();
        let evals = stats::evals_to_target(&best, window, TARGET);
        if !(t.best_perf.is_finite() && t.best_perf > 0.0 && t.best_perf >= t.default_perf) {
            self.problems.push(format!(
                "best {} below default {}",
                t.best_perf, t.default_perf
            ));
        }
        let Some(evals) = evals else {
            self.problems.push("empty trace".to_string());
            return;
        };
        self.tuned_gibs.push(t.best_perf / GIB);
        self.tuning_min.push(t.total_cost_min());
        self.roti.push(final_roti(t));
        self.evals_to_target.push(evals as f64);
    }

    /// Every campaign produced a real, finite result.
    pub fn validate(&self) -> (bool, String) {
        let finite = [&self.tuning_min, &self.roti]
            .iter()
            .all(|xs| xs.iter().all(|x| x.is_finite()));
        let ok = self.problems.is_empty() && finite && !self.tuned_gibs.is_empty();
        let detail = if ok {
            format!("{} campaigns in the quality set", self.tuned_gibs.len())
        } else {
            self.problems.join("; ")
        };
        (ok, detail)
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let n = self.tuned_gibs.len();
        vec![
            Metric::new(
                "tuned_gibs_geomean",
                "GiB/s",
                stats::geomean(&self.tuned_gibs).unwrap_or(0.0),
                n,
                "geomean",
            ),
            Metric::mean("tuning_min_mean", "sim_min", &self.tuning_min),
            Metric::mean("roti_mean", "MB/s/min", &self.roti),
            Metric::mean("evals_to_target_mean", "count", &self.evals_to_target),
        ]
    }
}
