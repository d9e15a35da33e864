//! serve01 — load-generate the `tunio-serve` daemon over real HTTP.
//!
//! Boots an in-process daemon (OS-assigned port, throwaway WAL dir),
//! then has N tenants submit M campaigns each as fast as the API
//! accepts them. Two service-level numbers come out:
//!
//! 1. **Throughput**: completed campaigns per second of wall-clock,
//!    submission of the first to completion of the last.
//! 2. **Submit-to-first-result latency**: per campaign, the time from
//!    its 202 to the first `generation` event appearing in its event
//!    stream (p50/p99). This is what a tenant watching the stream
//!    actually waits before seeing progress.
//!
//! Results land in `results/serve01_load.json` and the summary is
//! mirrored in EXPERIMENTS.md. Numbers are wall-clock and machine-
//! dependent — unlike the fig* benches this one is about the service
//! layer, not the simulated I/O stack.

use std::net::SocketAddr;
use std::time::{Duration, Instant};
use tunio_serve::{Daemon, ServeConfig};
use tunio_trace::http::call;

const TENANTS: usize = 4;
const CAMPAIGNS_PER_TENANT: usize = 3;
const SPEC: &str = "\"app\":\"hacc\",\"variant\":\"kernel\",\"iterations\":6,\
                    \"population\":4,\"seed\":42";

fn http(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    call(addr, method, path, body.unwrap_or("")).expect("http exchange")
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn main() {
    let wal_dir = std::env::temp_dir().join("tunio-serve01-load");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let mut daemon = Daemon::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        wal_dir: wal_dir.clone(),
        workers: 4,
        max_active_per_tenant: CAMPAIGNS_PER_TENANT,
        max_queue: 64,
        quiet: true,
        trace_path: None,
    })
    .expect("daemon boots");
    let addr = daemon.addr();
    eprintln!("serve01: {TENANTS} tenants x {CAMPAIGNS_PER_TENANT} campaigns against {addr}");

    let started = Instant::now();
    let mut submitted: Vec<(String, Instant)> = Vec::new();
    for c in 0..CAMPAIGNS_PER_TENANT {
        for t in 0..TENANTS {
            // Distinct seeds defeat the warm cache: every campaign pays
            // for its own simulations, like distinct real workloads.
            let body = format!(
                "{{\"tenant\":\"load{t}\",\"name\":\"c{c}\",{SPEC},\"fault_seed\":0,\
                 \"seed\":{}}}",
                1000 + c * TENANTS + t
            );
            let (status, reply) = http(addr, "POST", "/campaigns", Some(&body));
            assert_eq!(status, 202, "submit failed: {reply}");
            submitted.push((format!("load{t}--c{c}"), Instant::now()));
        }
    }

    // Tail each campaign's event stream until its first generation event.
    let mut first_result_s: Vec<f64> = Vec::new();
    for (id, at) in &submitted {
        loop {
            let (_, events) = http(addr, "GET", &format!("/campaigns/{id}/events"), None);
            if events.contains("\"event\":\"generation\"") {
                first_result_s.push(at.elapsed().as_secs_f64());
                break;
            }
            assert!(
                !events.contains("\"event\":\"failed\""),
                "campaign {id} failed under load: {events}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    // Wait for full completion for the throughput number.
    for (id, _) in &submitted {
        loop {
            let (_, status) = http(addr, "GET", &format!("/campaigns/{id}"), None);
            if status.contains("\"state\":\"done\"") {
                break;
            }
            assert!(
                !status.contains("\"state\":\"failed\""),
                "campaign {id} failed: {status}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    daemon.drain_and_join();
    let _ = std::fs::remove_dir_all(&wal_dir);

    let total = submitted.len();
    let throughput = total as f64 / wall_s;
    first_result_s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p50 = percentile(&first_result_s, 0.50);
    let p99 = percentile(&first_result_s, 0.99);
    println!("serve01 — tunio-serve load generation");
    println!("  campaigns            {total} ({TENANTS} tenants x {CAMPAIGNS_PER_TENANT})");
    println!("  wall clock           {wall_s:.2} s");
    println!("  throughput           {throughput:.2} campaigns/s");
    println!(
        "  submit→first result  p50 {:.0} ms, p99 {:.0} ms",
        p50 * 1e3,
        p99 * 1e3
    );

    std::fs::create_dir_all("results").expect("results dir");
    let json = format!(
        "{{\n  \"tenants\": {TENANTS},\n  \"campaigns_per_tenant\": {CAMPAIGNS_PER_TENANT},\n  \
         \"wall_s\": {wall_s:?},\n  \"campaigns_per_s\": {throughput:?},\n  \
         \"first_result_p50_s\": {p50:?},\n  \"first_result_p99_s\": {p99:?}\n}}\n"
    );
    std::fs::write("results/serve01_load.json", json).expect("write results");
    eprintln!("wrote results/serve01_load.json");
}
