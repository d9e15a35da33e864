//! The repository's benchmark: four workloads over the tuner, measured end
//! to end with tracing off and per layer in a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tune_paper --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it list every
//! metric with its unit, statistic and sample count, the output checks,
//! and the run's provenance. See `perfbench/README.md`.

mod host;
mod layers;
mod library;
mod quality;
mod report;
mod serve;
mod stats;

use report::{json_number, RunReport};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Set-up repetitions; `setup_s` is their median.
pub const SETUPS: usize = 31;

/// End-to-end metrics, in `BENCHMARK.json` order (`--trace 0`).
pub const END_TO_END: [&str; 9] = [
    "setup_s",
    "campaign_s_p50",
    "campaigns_per_s",
    "tuned_gibs_geomean",
    "tuning_min_mean",
    "roti_mean",
    "evals_to_target_mean",
    "completed_frac",
    "peak_rss_mb",
];

/// Per-layer metrics, in `BENCHMARK.json` order (`--trace 1`).
pub const PER_LAYER: [&str; 33] = [
    "core.early_stop.pretrain_s",
    "core.early_stop.offline_episodes",
    "core.smart_config.sweep_s",
    "core.smart_config.picker_warmup_s",
    "core.pipeline.search_s",
    "core.checkpoint.wal_s",
    "core.checkpoint.wal_bytes",
    "tuner.engine.evaluations",
    "tuner.engine.cache_hit_ratio",
    "tuner.bo.surrogate_s",
    "tuner.bo.surrogate_fits",
    "tuner.strategy.propose_s",
    "tuner.scheduler.proposed",
    "tuner.scheduler.aliases",
    "tuner.scheduler.barrier_stalls",
    "tuner.scheduler.stall_s",
    "tuner.racing.samples",
    "tuner.racing.settled",
    "tuner.racing.topups",
    "tuner.racing.discards",
    "tuner.racing.samples_per_settled",
    "iosim.sim_s",
    "iosim.sim_us_per_eval",
    "serve.http.request_s_p50",
    "serve.submit_s_p50",
    "serve.events_poll_s_p50",
    "serve.polls_per_campaign",
    "serve.queue_wait_s_p50",
    "serve.fully_warm_frac",
    "serve.warm_hit_ratio",
    "trace.overhead_frac",
    "trace.overhead_s",
    "unattributed_s",
];

pub const WORKLOADS: [&str; 4] = ["tune_paper", "search_bo", "search_storm", "serve_tenants"];

/// A run still going after this long is stopped by the watchdog, well
/// inside the 180 s a run may take. A normal run ends within about
/// `--seconds` plus 10 s.
const RUN_LIMIT: Duration = Duration::from_secs(150);

static STARTED: OnceLock<Instant> = OnceLock::new();
/// What the run is doing now, for the watchdog's message.
static PHASE: Mutex<String> = Mutex::new(String::new());
/// Set once the report is being printed; the watchdog then lets it finish.
static REPORTING: AtomicBool = AtomicBool::new(false);

/// Name the phase the run is in; with `log` also print it to standard
/// error with the seconds since the start.
pub fn phase(what: String, log: bool) {
    if log {
        let at = STARTED.get().map_or(0.0, |t| t.elapsed().as_secs_f64());
        eprintln!("perfbench: {at:7.2} s  {what}");
    }
    *PHASE.lock().unwrap_or_else(PoisonError::into_inner) = what;
}

/// Stop the process with exit code 3 and no result line if the run is
/// still going after `limit`: a campaign or request that never returns
/// would otherwise hold the run past its time limit. The message on
/// standard error names the phase the run was stuck in.
fn start_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        if REPORTING.load(Ordering::SeqCst) {
            return;
        }
        let phase = PHASE.lock().unwrap_or_else(PoisonError::into_inner).clone();
        eprintln!(
            "perfbench: stopped after {} s without a result, still in: {phase}",
            limit.as_secs()
        );
        serve::remove_scratch();
        std::process::exit(3);
    });
}

/// Command-line arguments.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value `{value}` for --trace (want 0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (want {})",
            WORKLOADS.join("|")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?.max(1),
        trace: trace.ok_or("missing --trace")?,
    })
}

/// A 31-bit seed for item `index` of stream `stream`, derived from the
/// workload seed with SplitMix64 finalisation: the same workload seed
/// always gives the same inputs, and distinct items get distinct seeds.
pub fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ index.wrapping_add(1).wrapping_mul(0xd1b5_4a32_d192_ed03);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) & 0x7fff_ffff
}

/// The process's peak resident set size (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set up `times` times and return the median duration, in seconds, with
/// the last set-up's result; `teardown` takes each earlier result, outside
/// the timing. `setup` gets the repetition's index.
pub fn setup_median<T, E>(
    times: usize,
    mut setup: impl FnMut(usize) -> Result<T, E>,
    mut teardown: impl FnMut(T),
) -> Result<(f64, T), E> {
    let mut durations = Vec::with_capacity(times);
    let mut last = None;
    for k in 0..times {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let started = Instant::now();
        let value = setup(k)?;
        durations.push(started.elapsed().as_secs_f64());
        last = Some(value);
    }
    let median = stats::percentile(&durations, 0.5).map_or(0.0, |s| s.value);
    Ok((median, last.expect("at least one set-up")))
}

fn print_report(args: &Args, report: &RunReport, wall_s: f64) -> bool {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "provenance: workload={} seed={} seconds={} trace={} host_cores={cores} \
         rustc=\"{}\" run_wall_s={wall_s:.3}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("PERFBENCH_RUSTC"),
    );
    if let Some(host) = &report.host {
        println!(
            "host: {} p50 {:.6} s over {} runs, {:.4} of the baseline's {} s; \
             campaign_s_p50 before scaling {:.6} s",
            host.reference().name(),
            host.median_s(),
            host.samples(),
            host.scale(),
            host.reference().nominal_s(),
            report.unscaled_campaign_s_p50.unwrap_or(0.0),
        );
    }
    for (tag, metrics) in [("metric", &report.metrics), ("extra", &report.extra)] {
        for m in metrics.iter() {
            println!(
                "{tag} {:<34} {:>16} {:<9} n={:<5} {}",
                m.name,
                json_number(m.value),
                m.unit,
                m.n,
                m.stat
            );
        }
    }
    for c in &report.checks {
        let verdict = if c.ok { "ok" } else { "FAILED" };
        println!("check {:<24} {verdict}: {}", c.name, c.detail);
    }
    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    let complete = names == expected;
    if !complete && report.checks.iter().all(|c| c.ok) {
        println!("check metric_set FAILED: reported {names:?}");
    }
    let finite = report.metrics.iter().all(|m| m.value.is_finite());
    let correct = report.correct() && complete && finite;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    correct
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let started = *STARTED.get_or_init(Instant::now);
    start_watchdog(RUN_LIMIT);
    let report = match args.workload.as_str() {
        "tune_paper" => library::TUNE_PAPER.execute(&args),
        "search_bo" => library::SEARCH_BO.execute(&args),
        "search_storm" => library::SEARCH_STORM.execute(&args),
        _ => serve::execute(&args),
    };
    REPORTING.store(true, Ordering::SeqCst);
    if print_report(&args, &report, started.elapsed().as_secs_f64()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists above are the ones `BENCHMARK.json` declares.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let v: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            let Some(serde_json::Value::Array(items)) = v.get(key) else {
                panic!("`{key}` is not a list");
            };
            items
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(|n| n.as_str())
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
        assert_eq!(names("workloads"), WORKLOADS);
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(1, 1, 0), derive_seed(1, 1, 0));
        let mut seen: Vec<u64> = (0..1000).map(|i| derive_seed(7, 1, i)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 1000);
        assert_ne!(derive_seed(7, 1, 3), derive_seed(7, 2, 3));
        assert_ne!(derive_seed(7, 1, 3), derive_seed(8, 1, 3));
    }
}
