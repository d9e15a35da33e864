//! Termination conditions for the tuning pipeline.
//!
//! Every stopper emits a `stop.decision` trace event per verdict
//! (except [`NoStop`], which by definition never has anything to say),
//! so campaign traces record *who* decided to stop and *when*.

use tunio_trace as trace;

/// Decides whether tuning should stop after each generation.
pub trait Stopper {
    /// Called after generation `iteration` (1-based) with the best perf
    /// achieved so far; `true` stops the pipeline.
    fn should_stop(&mut self, iteration: u32, best_perf: f64) -> bool;

    /// Display name for reports. Borrowed from the stopper so
    /// configurable stoppers can reflect their actual configuration.
    fn name(&self) -> &str;
}

/// Never stops (runs the full budget) — the "HSTuner No Stop" baseline.
#[derive(Debug, Clone, Default)]
pub struct NoStop;

impl Stopper for NoStop {
    fn should_stop(&mut self, _iteration: u32, _best_perf: f64) -> bool {
        false
    }
    fn name(&self) -> &str {
        "no-stop"
    }
}

/// The heuristic early stopper the paper compares against (§IV-C): stop
/// when the best perf has improved by less than `threshold` (relative)
/// over the last `window` iterations — 5% over 5 iterations in the paper.
#[derive(Debug, Clone)]
pub struct HeuristicStop {
    /// Relative improvement threshold (0.05 = 5%).
    pub threshold: f64,
    /// Window length in iterations (5 in the paper).
    pub window: u32,
    history: Vec<f64>,
    /// Display name reflecting the actual configuration, e.g.
    /// `heuristic-5pct-5iter` or `heuristic-2.5pct-8iter`.
    name: String,
}

impl HeuristicStop {
    /// The paper's 5% / 5-iteration configuration.
    pub fn paper_default() -> Self {
        HeuristicStop::new(0.05, 5)
    }

    /// Custom threshold/window.
    pub fn new(threshold: f64, window: u32) -> Self {
        let window = window.max(1);
        let pct = threshold * 100.0;
        // Print "5" not "5.000000000000001" for thresholds that are
        // whole percentages after the f64 multiply.
        let pct = if (pct - pct.round()).abs() < 1e-9 {
            format!("{}", pct.round() as i64)
        } else {
            format!("{pct}")
        };
        HeuristicStop {
            threshold,
            window,
            history: Vec::new(),
            name: format!("heuristic-{pct}pct-{window}iter"),
        }
    }
}

impl Stopper for HeuristicStop {
    fn should_stop(&mut self, iteration: u32, best_perf: f64) -> bool {
        self.history.push(best_perf);
        let w = self.window as usize;
        let verdict = if self.history.len() <= w {
            false
        } else {
            let past = self.history[self.history.len() - 1 - w];
            past > 0.0 && (best_perf - past) / past < self.threshold
        };
        if trace::enabled() {
            let windowed_gain = if self.history.len() > w {
                let past = self.history[self.history.len() - 1 - w];
                if past > 0.0 {
                    (best_perf - past) / past
                } else {
                    0.0
                }
            } else {
                0.0
            };
            trace::event(
                "stop.decision",
                vec![
                    ("stopper", self.name().into()),
                    ("iteration", iteration.into()),
                    ("stop", verdict.into()),
                    ("windowed_gain", windowed_gain.into()),
                ],
            );
        }
        verdict
    }
    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_stop_never_stops() {
        let mut s = NoStop;
        for i in 0..1000 {
            assert!(!s.should_stop(i, i as f64));
        }
    }

    #[test]
    fn heuristic_stops_on_plateau() {
        let mut s = HeuristicStop::paper_default();
        // Strong growth for 6 iterations: no stop.
        for (i, p) in [1.0, 1.5, 2.0, 2.5, 3.0, 3.5].iter().enumerate() {
            assert!(!s.should_stop(i as u32 + 1, *p), "iter {i}");
        }
        // Plateau: after `window` flat iterations it must stop.
        let mut stopped = false;
        for i in 7..=12 {
            if s.should_stop(i, 3.55) {
                stopped = true;
                break;
            }
        }
        assert!(stopped);
    }

    #[test]
    fn heuristic_tolerates_continued_growth() {
        let mut s = HeuristicStop::paper_default();
        let mut perf = 1.0;
        for i in 1..=30 {
            perf *= 1.10; // 10% growth per iteration — never below 5%/5iters
            assert!(!s.should_stop(i, perf), "stopped during growth at {i}");
        }
    }

    #[test]
    fn heuristic_is_fooled_by_early_plateau() {
        // The failure mode Fig 10a demonstrates: a plateau at iterations
        // 10–20 traps the heuristic even though gains resume later.
        let mut s = HeuristicStop::paper_default();
        let mut stopped_at = None;
        for i in 1..=20 {
            let perf = if i < 10 { i as f64 } else { 9.2 }; // plateau
            if s.should_stop(i, perf) {
                stopped_at = Some(i);
                break;
            }
        }
        let at = stopped_at.expect("heuristic should stop in the plateau");
        assert!((10..=16).contains(&at), "stopped at {at}");
    }

    /// Regression test: `name()` used to hardcode
    /// `"heuristic-5pct-5iter"` for every configuration, mislabeling
    /// traces and reports of custom-threshold stoppers.
    #[test]
    fn heuristic_name_reflects_configuration() {
        assert_eq!(
            HeuristicStop::paper_default().name(),
            "heuristic-5pct-5iter"
        );
        assert_eq!(HeuristicStop::new(0.05, 5).name(), "heuristic-5pct-5iter");
        assert_eq!(HeuristicStop::new(0.02, 8).name(), "heuristic-2pct-8iter");
        assert_eq!(HeuristicStop::new(0.10, 3).name(), "heuristic-10pct-3iter");
        assert_eq!(
            HeuristicStop::new(0.025, 4).name(),
            "heuristic-2.5pct-4iter"
        );
        // window is clamped to ≥1 and the name must agree.
        assert_eq!(HeuristicStop::new(0.05, 0).name(), "heuristic-5pct-1iter");
    }
}
