//! Aggregation helpers: the percentile rule, means, evaluations-to-target
//! and closed-loop throughput accounting. Pure functions on plain numbers,
//! so the unit tests below pin them on fixed inputs.

/// Samples a reported percentile must leave above it.
pub const MIN_BEYOND: usize = 10;

/// A timing summarised by one percentile: the value, the percentile that
/// was actually reported (which may be lower than the one asked for), the
/// sample count and how many samples lie above the reported one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub percentile: f64,
    pub n: usize,
    pub beyond: usize,
}

/// Nearest-rank percentile (`p` in `[0.5, 1]`) of `samples`, lowered to
/// the highest percentile that still leaves [`MIN_BEYOND`] samples above
/// it, but never below the median: with fewer than `2 * MIN_BEYOND`
/// samples the median is reported and `beyond` shows the shortfall.
/// `None` on an empty input.
pub fn percentile(samples: &[f64], p: f64) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let wanted = ((p * n as f64).ceil() as usize).clamp(1, n);
    let median = n.div_ceil(2);
    // The highest rank with MIN_BEYOND samples above it.
    let cap = n.saturating_sub(MIN_BEYOND);
    let (rank, percentile) = if wanted <= cap {
        (wanted, p)
    } else if cap >= median {
        (cap, cap as f64 / n as f64)
    } else {
        (median, 0.5)
    };
    Some(Summary {
        value: sorted[rank - 1],
        percentile,
        n,
        beyond: n - rank,
    })
}

/// Arithmetic mean; `None` on an empty input.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Geometric mean of positive values; `None` on an empty input or when a
/// value is not positive and finite.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|x| !(x.is_finite() && *x > 0.0)) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// Committed evaluations until the running best first reaches `frac` of
/// the final best. `running_best` holds one entry per committed window of
/// `window` evaluations (a GA generation, or a strategy campaign's record
/// window). `None` for an empty trace.
pub fn evals_to_target(running_best: &[f64], window: usize, frac: f64) -> Option<usize> {
    let last = *running_best.last()?;
    let target = frac * last;
    let first = running_best.iter().position(|b| *b >= target)?;
    Some((first + 1) * window)
}

/// One closed-loop request: when it was sent and when it completed, both
/// in seconds since the measured window opened. `done` is `None` for a
/// request that was refused, failed or timed out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    pub sent_s: f64,
    pub done_s: Option<f64>,
}

/// Closed-loop throughput: requests sent before the deadline that
/// completed, divided by the time from the window's start to the last of
/// those completions. Clients send nothing after the deadline but finish
/// what they have in flight, so every request counted is whole.
pub fn closed_loop_throughput(requests: &[Request], deadline_s: f64) -> Option<f64> {
    let done: Vec<f64> = requests
        .iter()
        .filter(|r| r.sent_s < deadline_s)
        .filter_map(|r| r.done_s)
        .collect();
    let end = done.iter().copied().fold(f64::NAN, f64::max);
    (end > 0.0).then(|| done.len() as f64 / end)
}

/// Completed over attempted, counting refused, failed and timed-out
/// requests as attempted.
pub fn completed_frac(requests: &[Request]) -> Option<f64> {
    (!requests.is_empty()).then(|| {
        requests.iter().filter(|r| r.done_s.is_some()).count() as f64 / requests.len() as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_keeps_ten_samples_beyond_it() {
        // 100 samples support p90 exactly: ten lie above rank 90.
        let s = percentile(&ramp(100), 0.9).unwrap();
        assert_eq!((s.value, s.percentile, s.n, s.beyond), (90.0, 0.9, 100, 10));
        // 40 samples cannot: p90 falls back to p75, the highest with ten
        // samples above it.
        let s = percentile(&ramp(40), 0.9).unwrap();
        assert_eq!((s.value, s.percentile, s.beyond), (30.0, 0.75, 10));
        // 20 samples support the median and nothing above it.
        let s = percentile(&ramp(20), 0.5).unwrap();
        assert_eq!((s.value, s.percentile, s.beyond), (10.0, 0.5, 10));
        let s = percentile(&ramp(20), 0.9).unwrap();
        assert_eq!(s.percentile, 0.5);
        // 15 samples do not support the median either: it is still what
        // is reported, with the shortfall in `beyond`.
        let s = percentile(&ramp(15), 0.5).unwrap();
        assert_eq!((s.value, s.percentile, s.beyond), (8.0, 0.5, 7));
        let s = percentile(&ramp(15), 0.9).unwrap();
        assert_eq!((s.value, s.percentile, s.beyond), (8.0, 0.5, 7));
    }

    #[test]
    fn percentile_ignores_input_order_and_handles_tiny_inputs() {
        let mut xs = ramp(100);
        xs.reverse();
        assert_eq!(percentile(&xs, 0.5).unwrap().value, 50.0);
        assert_eq!(percentile(&[], 0.5), None);
        // Too few samples for any percentile: the median, with the
        // shortfall visible in `beyond`.
        let s = percentile(&[3.0, 1.0, 2.0], 0.9).unwrap();
        assert_eq!((s.value, s.percentile, s.n, s.beyond), (2.0, 0.5, 3, 1));
    }

    #[test]
    fn geomean_and_mean_on_fixed_inputs() {
        assert!((geomean(&[1.0, 4.0, 16.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
        assert_eq!(geomean(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn evals_to_target_counts_whole_windows() {
        // Final best 100: 95 is first reached in the third window.
        let best = [50.0, 90.0, 95.0, 99.0, 100.0];
        assert_eq!(evals_to_target(&best, 8, 0.95), Some(24));
        // Already at target after the first window.
        assert_eq!(evals_to_target(&[100.0, 100.0], 6, 0.95), Some(6));
        // Only the final window reaches it.
        assert_eq!(evals_to_target(&[1.0, 2.0, 3.0, 100.0], 4, 0.95), Some(16));
        assert_eq!(evals_to_target(&[], 8, 0.95), None);
    }

    #[test]
    fn closed_loop_throughput_counts_only_whole_requests_sent_in_time() {
        let reqs = [
            Request {
                sent_s: 0.0,
                done_s: Some(1.0),
            },
            Request {
                sent_s: 0.0,
                done_s: Some(1.5),
            },
            Request {
                sent_s: 1.0,
                done_s: Some(2.0),
            },
            // Refused: attempted, never completed, no throughput.
            Request {
                sent_s: 1.5,
                done_s: None,
            },
            Request {
                sent_s: 1.6,
                done_s: Some(4.0),
            },
            // Sent after the deadline: ignored by throughput.
            Request {
                sent_s: 3.5,
                done_s: Some(5.0),
            },
        ];
        // Four completed requests sent before t = 3, the last done at 4 s.
        assert_eq!(closed_loop_throughput(&reqs, 3.0), Some(1.0));
        assert_eq!(completed_frac(&reqs), Some(5.0 / 6.0));
        assert_eq!(closed_loop_throughput(&reqs[3..4], 3.0), None);
        assert_eq!(completed_frac(&[]), None);
    }
}
