//! `tunio-tune` — run a tuning campaign from the command line.
//!
//! ```text
//! tunio-tune --app hacc [--pipeline tunio|hstuner|hstuner-heuristic|
//!            impact-first|rl-stop] [--strategy ga|random|lhs|bo]
//!            [--threads N] [--variant full|kernel|reduced:<frac>]
//!            [--iterations N] [--population N] [--seed N] [--large-scale]
//!            [--checkpoint FILE] [--resume] [--abort-after N]
//!            [--fault-rate F] [--fault-seed N]
//!            [--noise-profile quiet|busy|storm] [--noise-seed N] [--racing]
//!            [--infer-workload SAMPLE|FILE.c] [--bind NAME=VALUE]...
//!            [--xml-out FILE] [--out-json FILE]
//!            [--metrics-addr HOST:PORT] [--quiet]
//! ```
//!
//! Prints per-generation progress and the tuned configuration, optionally
//! writing it as an H5Tuner-style XML file (the format the reference
//! implementation injects into HDF5 applications).
//!
//! `--checkpoint` writes a JSONL write-ahead log of completed
//! generations; `--resume` continues a killed campaign from it (the
//! resumed outcome is bitwise-identical to the uninterrupted run).
//! `--fault-rate` attaches a seeded chaos plan to the simulator
//! (transient kills at the given rate, plus stragglers, OST flaps and
//! corrupted reports at derived rates); `--abort-after N` exits cleanly
//! once generation N is durable in the log — the kill switch used by the
//! crash/resume CI job.
//!
//! `--noise-profile` attaches the seeded heteroscedastic interference
//! model to the simulator (noisy-neighbor OST episodes plus time-varying
//! network contention; `--noise-seed` defaults to `--seed`). `--racing`
//! switches the campaign to noise-robust racing evaluation:
//! configurations whose confidence interval still overlaps the
//! incumbent get extra repeats, clear losers are discarded early.
//! Like `--fault-rate`, resumed campaigns must re-pass the same noise
//! and racing flags.
//!
//! `--infer-workload` runs static workload inference (abstract
//! interpretation, see `tunio-infer`) over a built-in sample or a
//! C-minus source file and warm-starts the search from the result: the
//! smart subset agent ranks parameters by the inferred features instead
//! of the offline sweep, and the search backend gets feature-guided
//! seed configurations planted in its starting state. `--bind`
//! overrides the inferred entry's parameter bindings.
//!
//! Every campaign runs through the asynchronous search scheduler.
//! `--strategy` picks its backend: `ga` (the paper's GA, the default),
//! `random`, `lhs` (Latin hypercube) or `bo` (surrogate-driven Bayesian
//! optimization). `--threads` sets the parallel evaluator slot count,
//! which also bounds the threads a `bo` surrogate refit trains its
//! ensemble on (default: host cores, capped at 8); the outcome is
//! bitwise identical for every value.

use std::path::PathBuf;
use std::process::ExitCode;
use tunio::pipeline::{
    outcome_json, run_strategy_campaign_opts, CampaignOptions, CampaignSpec, PipelineKind,
    StrategyKind,
};
use tunio_iosim::{FaultPlan, NoiseProfile};
use tunio_params::ParameterSpace;
use tunio_workloads::{app_by_name, Variant};

const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

struct Args {
    app: String,
    kind: PipelineKind,
    strategy: StrategyKind,
    threads: Option<usize>,
    variant: Variant,
    iterations: u32,
    population: usize,
    seed: u64,
    large_scale: bool,
    checkpoint: Option<PathBuf>,
    resume: bool,
    abort_after: Option<u32>,
    fault_rate: Option<f64>,
    fault_seed: Option<u64>,
    noise_profile: Option<NoiseProfile>,
    noise_seed: Option<u64>,
    racing: bool,
    xml_out: Option<String>,
    out_json: Option<String>,
    metrics_addr: Option<String>,
    quiet: bool,
    infer_workload: Option<String>,
    binds: Vec<(String, i64)>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: tunio-tune --app <hacc|vpic|flash|macsio-vpic-dipole|bdcats>\n\
         \x20      [--pipeline tunio|hstuner|hstuner-heuristic|impact-first|rl-stop]\n\
         \x20      [--strategy ga|random|lhs|bo] [--threads N]\n\
         \x20      [--variant full|kernel|reduced:<fraction>]\n\
         \x20      [--iterations N] [--population N] [--seed N]\n\
         \x20      [--large-scale]\n\
         \x20      [--checkpoint FILE] [--resume] [--abort-after N]\n\
         \x20      [--fault-rate F] [--fault-seed N]\n\
         \x20      [--noise-profile quiet|busy|storm] [--noise-seed N] [--racing]\n\
         \x20      [--infer-workload SAMPLE|FILE.c] [--bind NAME=VALUE]...\n\
         \x20      [--xml-out FILE] [--out-json FILE]\n\
         \x20      [--metrics-addr HOST:PORT] [--quiet]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        app: String::new(),
        kind: PipelineKind::TunIo,
        strategy: StrategyKind::Ga,
        threads: None,
        variant: Variant::Kernel,
        iterations: 30,
        population: 8,
        seed: 0,
        large_scale: false,
        checkpoint: None,
        resume: false,
        abort_after: None,
        fault_rate: None,
        fault_seed: None,
        noise_profile: None,
        noise_seed: None,
        racing: false,
        xml_out: None,
        out_json: None,
        metrics_addr: None,
        quiet: false,
        infer_workload: None,
        binds: Vec::new(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |argv: &[String], i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--app" => args.app = value(&argv, &mut i, "--app")?,
            "--pipeline" => {
                let v = value(&argv, &mut i, "--pipeline")?;
                args.kind =
                    PipelineKind::from_name(&v).ok_or_else(|| format!("unknown pipeline `{v}`"))?;
            }
            "--strategy" => {
                let v = value(&argv, &mut i, "--strategy")?;
                args.strategy = StrategyKind::parse(&v)
                    .ok_or_else(|| format!("unknown strategy `{v}` (want ga|random|lhs|bo)"))?;
            }
            "--threads" => {
                let n: usize = value(&argv, &mut i, "--threads")?
                    .parse()
                    .map_err(|e| format!("bad threads: {e}"))?;
                if n == 0 {
                    return Err("threads must be >= 1".into());
                }
                args.threads = Some(n);
            }
            "--variant" => args.variant = value(&argv, &mut i, "--variant")?.parse()?,
            "--iterations" => {
                args.iterations = value(&argv, &mut i, "--iterations")?
                    .parse()
                    .map_err(|e| format!("bad iterations: {e}"))?
            }
            "--population" => {
                args.population = value(&argv, &mut i, "--population")?
                    .parse()
                    .map_err(|e| format!("bad population: {e}"))?
            }
            "--seed" => {
                args.seed = value(&argv, &mut i, "--seed")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?
            }
            "--large-scale" => args.large_scale = true,
            "--checkpoint" => {
                args.checkpoint = Some(PathBuf::from(value(&argv, &mut i, "--checkpoint")?))
            }
            "--resume" => args.resume = true,
            "--abort-after" => {
                args.abort_after = Some(
                    value(&argv, &mut i, "--abort-after")?
                        .parse()
                        .map_err(|e| format!("bad abort-after: {e}"))?,
                )
            }
            "--fault-rate" => {
                let rate: f64 = value(&argv, &mut i, "--fault-rate")?
                    .parse()
                    .map_err(|e| format!("bad fault rate: {e}"))?;
                if !(0.0..=0.5).contains(&rate) {
                    return Err("fault rate must be in [0, 0.5]".into());
                }
                args.fault_rate = Some(rate);
            }
            "--fault-seed" => {
                args.fault_seed = Some(
                    value(&argv, &mut i, "--fault-seed")?
                        .parse()
                        .map_err(|e| format!("bad fault seed: {e}"))?,
                )
            }
            "--noise-profile" => {
                let v = value(&argv, &mut i, "--noise-profile")?;
                args.noise_profile = Some(NoiseProfile::parse(&v).ok_or_else(|| {
                    format!("unknown noise profile `{v}` (want quiet|busy|storm)")
                })?);
            }
            "--noise-seed" => {
                args.noise_seed = Some(
                    value(&argv, &mut i, "--noise-seed")?
                        .parse()
                        .map_err(|e| format!("bad noise seed: {e}"))?,
                )
            }
            "--racing" => args.racing = true,
            "--xml-out" => args.xml_out = Some(value(&argv, &mut i, "--xml-out")?),
            "--out-json" => args.out_json = Some(value(&argv, &mut i, "--out-json")?),
            "--metrics-addr" => args.metrics_addr = Some(value(&argv, &mut i, "--metrics-addr")?),
            "--infer-workload" => {
                args.infer_workload = Some(value(&argv, &mut i, "--infer-workload")?)
            }
            "--bind" => {
                let kv = value(&argv, &mut i, "--bind")?;
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("--bind expects NAME=VALUE, got `{kv}`"))?;
                let v: i64 = v
                    .parse()
                    .map_err(|e| format!("--bind {k}: bad value: {e}"))?;
                args.binds.push((k.to_string(), v));
            }
            "--quiet" => args.quiet = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    if args.app.is_empty() {
        return Err("missing --app".into());
    }
    Ok(args)
}

/// Resolve `--infer-workload`'s argument (a built-in sample name or a
/// C-minus source path), run static inference, and return the features
/// of the entry that actually performs I/O (plus its name for logging).
fn infer_features(
    input: &str,
    binds: &[(String, i64)],
) -> Result<(tunio_workloads::WorkloadFeatures, String), String> {
    let src = match tunio_cminus::samples::all_samples()
        .into_iter()
        .find(|(n, _)| *n == input)
    {
        Some((_, src)) => src.to_string(),
        None => std::fs::read_to_string(input).map_err(|e| {
            let known: Vec<&str> = tunio_cminus::samples::all_samples()
                .iter()
                .map(|(n, _)| *n)
                .collect();
            format!(
                "--infer-workload `{input}` is neither a readable file ({e}) nor a \
                 built-in sample (known: {})",
                known.join(", ")
            )
        })?,
    };
    let prog =
        tunio_cminus::parser::parse(&src).map_err(|e| format!("{input}: parse error: {e}"))?;
    let overrides: std::collections::BTreeMap<String, i64> = binds.iter().cloned().collect();
    let inferred = tunio_discovery::infer_program(&prog, &overrides);
    inferred
        .into_iter()
        .find(|iw| !iw.spec.iteration_io.is_empty())
        .map(|iw| (iw.features, iw.prediction.entry))
        .ok_or_else(|| format!("{input}: no entry function with inferable I/O"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            return usage();
        }
    };

    let Some(app) = app_by_name(&args.app) else {
        eprintln!("unknown application `{}`", args.app);
        return usage();
    };

    // Keep the server handle alive for the whole campaign; dropping it
    // stops the background thread.
    let _metrics_server = match args.metrics_addr.as_deref() {
        Some(addr) => match tunio_trace::serve_metrics(addr) {
            Ok(server) => {
                if !args.quiet {
                    eprintln!("serving metrics on http://{}/metrics", server.addr());
                }
                Some(server)
            }
            Err(e) => {
                eprintln!("cannot bind metrics server on {addr}: {e}");
                return ExitCode::from(1);
            }
        },
        None => None,
    };

    let spec = CampaignSpec {
        app,
        variant: args.variant,
        kind: args.kind,
        max_iterations: args.iterations,
        population: args.population,
        seed: args.seed,
        large_scale: args.large_scale,
    };
    if !args.quiet {
        eprintln!(
            "tuning {} with {} [strategy={}] ({} iterations max, population {}, {})…",
            args.app,
            spec.kind.label(),
            args.strategy.label(),
            spec.max_iterations,
            spec.population,
            if spec.large_scale {
                "500 nodes / 1600 procs"
            } else {
                "4 nodes / 128 procs"
            }
        );
    }

    let warm_start = match args.infer_workload.as_deref() {
        Some(input) => match infer_features(input, &args.binds) {
            Ok((features, entry)) => {
                if !args.quiet {
                    eprintln!(
                        "warm-start from static inference of `{entry}` \
                         (confidence {:.2}, {:.1} MiB predicted)",
                        features.confidence,
                        features.total_bytes as f64 / (1024.0 * 1024.0),
                    );
                }
                Some(features)
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                return usage();
            }
        },
        None => None,
    };

    let opts = CampaignOptions {
        checkpoint: args.checkpoint.clone(),
        resume: args.resume,
        fault_plan: args
            .fault_rate
            .map(|rate| FaultPlan::chaos(args.fault_seed.unwrap_or(args.seed), rate)),
        abort_after: args.abort_after,
        threads: args.threads,
        warm_start,
        preload: Vec::new(),
        noise_profile: args.noise_profile,
        noise_seed: args.noise_seed,
        racing: args.racing.then(tunio_tuner::RacingConfig::default),
        pretrain_cache: None,
    };
    if args.resume && args.checkpoint.is_none() {
        eprintln!("error: --resume needs --checkpoint");
        return usage();
    }
    if let (Some(path), false) = (&args.checkpoint, args.quiet) {
        if args.resume && path.exists() {
            eprintln!("resuming from checkpoint {}", path.display());
        } else {
            eprintln!("checkpointing to {}", path.display());
        }
    }

    let outcome = match run_strategy_campaign_opts(&spec, args.strategy, &opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("campaign failed: {e}");
            return ExitCode::from(1);
        }
    };
    let trace = &outcome.trace;
    if !args.quiet {
        for r in &trace.records {
            eprintln!(
                "  gen {:>3}  best {:>8.3} GiB/s  subset {:>2}  {:>8.1} min",
                r.iteration,
                r.best_perf / GIB,
                r.subset_size,
                r.cumulative_cost_s / 60.0
            );
        }
    }

    let space = ParameterSpace::tunio_default();
    println!(
        "tuned: {:.3} GiB/s → {:.3} GiB/s ({:.2}x) in {} generations / {:.0} simulated minutes",
        trace.default_perf / GIB,
        trace.best_perf / GIB,
        trace.best_perf / trace.default_perf.max(1e-12),
        trace.iterations(),
        trace.total_cost_min(),
    );
    println!(
        "configuration: {}",
        trace.best_config.describe_changes(&space)
    );
    if let Some(stats) = &outcome.scheduler {
        println!(
            "scheduler: {} proposed, {} committed, {} aliases, {} barrier stalls",
            stats.proposed, stats.committed, stats.aliases, stats.barrier_stalls
        );
    }
    if outcome.racing.settled > 0 {
        let rc = &outcome.racing;
        println!(
            "racing: {} keys settled from {} samples, {} top-ups, {} discarded early",
            rc.settled, rc.settled_samples, rc.topups, rc.discards
        );
    }
    let res = &outcome.resilience;
    if args.fault_rate.is_some() || res.faults_injected > 0 {
        println!(
            "resilience: {} faults injected, {} retries, {} failed evaluations, \
             {} quarantined keys, {} penalties served",
            res.faults_injected,
            res.retries,
            res.failed_evaluations,
            res.quarantined_keys,
            res.penalties_served
        );
    }

    if let Some(path) = args.out_json {
        let json = outcome_json(&outcome);
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(1);
        }
        if !args.quiet {
            eprintln!("wrote outcome JSON to {path}");
        }
    }

    if let Some(path) = args.xml_out {
        let xml = tunio_params::to_xml(&trace.best_config, &space, false);
        if let Err(e) = std::fs::write(&path, &xml) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(1);
        }
        if !args.quiet {
            eprintln!("wrote H5Tuner XML to {path}");
        }
    }
    ExitCode::SUCCESS
}
