//! Run one full TunIO campaign with the JSON-lines trace sink installed
//! and render the resulting trace with the tunio-report summarizer.
//!
//! This is the end-to-end exercise of the tracing pipeline: campaign →
//! `trace.jsonl` artifact → human-readable report. CI runs it and uploads
//! the artifact; locally it doubles as a smoke test:
//!
//! ```text
//! cargo run -p tunio-bench --bin trace_campaign --release -- \
//!     [<out.jsonl>] [--profile-out <profile.json>] [--metrics-addr HOST:PORT]
//! ```
//!
//! `--profile-out` writes the campaign's per-layer attribution profile as
//! JSON (the input format of `tunio-profile`); `--metrics-addr` serves
//! live Prometheus-style metrics for the duration of the run.

use tunio::pipeline::{run_campaign, CampaignSpec, PipelineKind};
use tunio_bench::results_dir;
use tunio_trace::report;
use tunio_workloads::{hacc, Variant};

struct Args {
    trace_path: std::path::PathBuf,
    profile_out: Option<std::path::PathBuf>,
    metrics_addr: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        trace_path: std::env::var("TUNIO_TRACE_PATH")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|_| results_dir().join("trace_campaign.jsonl")),
        profile_out: None,
        metrics_addr: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--profile-out" => {
                i += 1;
                let v = argv.get(i).unwrap_or_else(|| {
                    eprintln!("--profile-out needs a value");
                    std::process::exit(2);
                });
                args.profile_out = Some(std::path::PathBuf::from(v));
            }
            "--metrics-addr" => {
                i += 1;
                let v = argv.get(i).unwrap_or_else(|| {
                    eprintln!("--metrics-addr needs a value");
                    std::process::exit(2);
                });
                args.metrics_addr = Some(v.clone());
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag `{flag}`");
                std::process::exit(2);
            }
            path => args.trace_path = std::path::PathBuf::from(path),
        }
        i += 1;
    }
    args
}

fn main() {
    let args = parse_args();
    let path = args.trace_path;

    // Keep the handle alive for the whole campaign; Drop stops the thread.
    let _metrics_server = args.metrics_addr.as_deref().map(|addr| {
        let server = tunio_trace::serve_metrics(addr).unwrap_or_else(|e| {
            eprintln!("error: cannot bind metrics server on {addr}: {e}");
            std::process::exit(1);
        });
        eprintln!("[metrics on http://{}/metrics]", server.addr());
        server
    });

    if let Err(e) = tunio_trace::install_jsonl_sink(&path) {
        eprintln!("error: cannot open trace sink {}: {e}", path.display());
        std::process::exit(1);
    }

    let spec = CampaignSpec {
        app: hacc(),
        variant: Variant::Kernel,
        kind: PipelineKind::TunIo,
        max_iterations: 20,
        population: 6,
        seed: 2024,
        large_scale: false,
    };
    let outcome = run_campaign(&spec).expect("fault-free campaign");

    // Flush and detach the sink so the file is complete before reading.
    tunio_trace::clear_sink();
    eprintln!("[wrote {}]", path.display());

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    let records = match report::parse_jsonl(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cannot parse {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    let summaries = report::summarize(&records);
    for s in &summaries {
        print!("{}", report::render(s));
    }

    // Per-layer attribution for the whole campaign, straight from the
    // engine's profile (the trace-derived table above only covers traced
    // generations; this one is exact).
    println!("campaign attribution profile:");
    print!("{}", outcome.profile.render_table());
    print!("{}", outcome.profile.render_tree());

    if let Some(out) = args.profile_out {
        if let Err(e) = std::fs::write(&out, outcome.profile.to_json()) {
            eprintln!("error: cannot write {}: {e}", out.display());
            std::process::exit(1);
        }
        eprintln!("[wrote {}]", out.display());
    }

    // Smoke checks: the trace must cover every generation the campaign ran.
    let gens: usize = summaries.iter().map(|s| s.generations.len()).sum();
    assert_eq!(
        gens,
        outcome.trace.iterations() as usize,
        "trace generations must match the campaign's iteration count"
    );
}
