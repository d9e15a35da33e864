//! Integration tests for the metrics exposition endpoint: a real HTTP
//! scrape against a live server, and a concurrency test proving scrapes
//! mid-campaign never block writers or observe torn histograms.
//!
//! These tests share the process-global metric registry, so they run in
//! one #[test] body each over disjoint metric names.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use tunio_trace as trace;
use tunio_trace::http::call_raw;
use tunio_trace::serve_metrics;

fn scrape(addr: std::net::SocketAddr) -> String {
    let response = call_raw(addr, "GET", "/metrics", "").expect("scrape");
    let (headers, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    assert!(
        headers.starts_with("HTTP/1.1 200 OK"),
        "unexpected status: {headers}"
    );
    assert!(headers.contains("text/plain"));
    body.to_string()
}

#[test]
fn scrape_returns_exposition_format() {
    trace::counter("ep.golden.requests").inc(42);
    trace::labeled_gauge("ep.golden.progress", &[("stage", "ga")]).set(0.5);
    let h = trace::labeled_histogram("ep.golden.self_s", &[("layer", "lustre.data")]);
    h.record(1.0);
    h.record(3.0);

    let server = serve_metrics("127.0.0.1:0").expect("bind");
    let body = scrape(server.addr());

    // Counter: sanitized name, `# TYPE` header, exact value.
    assert!(body.contains("# TYPE ep_golden_requests counter\n"));
    assert!(body.contains("ep_golden_requests 42\n"));
    // Gauge with a label.
    assert!(body.contains("# TYPE ep_golden_progress gauge\n"));
    assert!(body.contains("ep_golden_progress{stage=\"ga\"} 0.5\n"));
    // Histogram as summary: count/sum plus min/max quantiles; the label
    // value keeps its dot (only names are sanitized, values are escaped).
    assert!(body.contains("# TYPE ep_golden_self_s summary\n"));
    assert!(body.contains("ep_golden_self_s{layer=\"lustre.data\",quantile=\"0\"} 1\n"));
    assert!(body.contains("ep_golden_self_s{layer=\"lustre.data\",quantile=\"1\"} 3\n"));
    assert!(body.contains("ep_golden_self_s_sum{layer=\"lustre.data\"} 4\n"));
    assert!(body.contains("ep_golden_self_s_count{layer=\"lustre.data\"} 2\n"));

    // A second scrape on the same server still works (connection: close
    // per request, listener stays up).
    let again = scrape(server.addr());
    assert!(again.contains("ep_golden_requests 42\n"));
}

#[test]
fn label_values_are_escaped_in_scrape() {
    trace::labeled_counter("ep.escape.total", &[("path", "a\"b\\c\nd")]).inc(1);
    let server = serve_metrics("127.0.0.1:0").expect("bind");
    let body = scrape(server.addr());
    assert!(
        body.contains("ep_escape_total{path=\"a\\\"b\\\\c\\nd\"} 1\n"),
        "escaped label missing in:\n{body}"
    );
}

#[test]
fn concurrent_scrapes_never_block_or_tear() {
    // Writers hammer a histogram whose every sample is 2.5; any
    // internally-consistent snapshot therefore satisfies
    // sum == count * 2.5 exactly (2.5 is a power-of-two fraction, so the
    // float sum is exact). A torn read (count from one state, sum from
    // another) would violate it.
    const SAMPLE: f64 = 2.5;
    let server = serve_metrics("127.0.0.1:0").expect("bind");
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..4)
        .map(|_| {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let h = trace::labeled_histogram("ep.tear.cost", &[("layer", "mpiio")]);
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    h.record(SAMPLE);
                    n += 1;
                }
                n
            })
        })
        .collect();

    let mut scrapes = 0;
    while scrapes < 20 {
        let body = scrape(server.addr());
        let field = |suffix: &str| -> Option<f64> {
            body.lines()
                .find(|l| l.starts_with(&format!("ep_tear_cost{suffix}")))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse().ok())
        };
        if let (Some(count), Some(sum)) = (
            field("_count{layer=\"mpiio\"}"),
            field("_sum{layer=\"mpiio\"}"),
        ) {
            assert_eq!(
                sum,
                count * SAMPLE,
                "torn scrape: count {count} vs sum {sum}"
            );
        }
        scrapes += 1;
    }

    stop.store(true, Ordering::Relaxed);
    let total: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
    assert!(total > 0, "writers must have made progress during scrapes");

    // Final state is fully consistent too.
    let h = trace::labeled_histogram("ep.tear.cost", &[("layer", "mpiio")]);
    let d = h.get();
    assert_eq!(d.count, total);
    assert_eq!(d.sum, total as f64 * SAMPLE);
}
