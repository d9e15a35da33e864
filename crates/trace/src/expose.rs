//! Prometheus-style text exposition of the metric registry.
//!
//! [`render_prometheus`] turns a metric snapshot into the text exposition
//! format (version 0.0.4): `# HELP` / `# TYPE` headers for every family,
//! sanitized metric names, escaped label values. Histograms are exposed as summaries carrying
//! `_count`/`_sum` plus min/max as the 0/1 quantiles — the registry keeps
//! no buckets by design (see [`crate::metrics`]).
//!
//! [`serve_metrics`] serves that text over HTTP on every path through
//! the workspace's one [`crate::http::Server`], so a live campaign can be
//! scraped mid-run: scrapes only read atomic snapshots and never block
//! metric writers. The `tunio-serve` daemon answers its `/metrics` route
//! with the same [`metrics_response`].

use crate::http::{Response, Server, PROMETHEUS};
use crate::metrics::{MetricSnapshot, MetricValue};
use crate::sync::lock;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

fn help_registry() -> &'static Mutex<HashMap<String, String>> {
    static HELP: OnceLock<Mutex<HashMap<String, String>>> = OnceLock::new();
    HELP.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Register help text for a metric family (keyed by the raw, unsanitized
/// metric name). Rendering emits it as the family's `# HELP` line; a
/// family never described falls back to its own name, so every exported
/// family always carries a `# HELP` line.
pub fn describe(name: &str, help: &str) {
    lock(help_registry()).insert(name.to_string(), help.to_string());
}

/// Escape help text per the exposition format: backslash and newline.
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Sanitize a metric name for the exposition format: any character
/// outside `[a-zA-Z0-9_:]` becomes `_` (so `tunio.profile.self_s`
/// exposes as `tunio_profile_self_s`).
pub fn sanitize_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Escape a label value: backslash, double quote and newline get
/// backslash-escaped per the exposition format.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize_name(k), escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

/// Render snapshots in the Prometheus text exposition format. Input order
/// is preserved; [`crate::metrics_snapshot`] already sorts by name then
/// labels, which groups each metric's series under one `# TYPE` header.
pub fn render_prometheus(snapshots: &[MetricSnapshot]) -> String {
    let mut out = String::new();
    let mut last_typed: Option<String> = None;
    for snap in snapshots {
        let name = sanitize_name(&snap.name);
        let kind = match snap.value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "summary",
        };
        if last_typed.as_deref() != Some(name.as_str()) {
            let help = lock(help_registry())
                .get(&snap.name)
                .cloned()
                .unwrap_or_else(|| snap.name.clone());
            out.push_str(&format!("# HELP {name} {}\n", escape_help(&help)));
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            last_typed = Some(name.clone());
        }
        match &snap.value {
            MetricValue::Counter(v) => {
                out.push_str(&format!("{name}{} {v}\n", label_block(&snap.labels, None)));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!(
                    "{name}{} {}\n",
                    label_block(&snap.labels, None),
                    fmt_f64(*v)
                ));
            }
            MetricValue::Histogram(h) => {
                out.push_str(&format!(
                    "{name}{} {}\n",
                    label_block(&snap.labels, Some(("quantile", "0"))),
                    fmt_f64(h.min)
                ));
                out.push_str(&format!(
                    "{name}{} {}\n",
                    label_block(&snap.labels, Some(("quantile", "1"))),
                    fmt_f64(h.max)
                ));
                out.push_str(&format!(
                    "{name}_sum{} {}\n",
                    label_block(&snap.labels, None),
                    fmt_f64(h.sum)
                ));
                out.push_str(&format!(
                    "{name}_count{} {}\n",
                    label_block(&snap.labels, None),
                    h.count
                ));
            }
        }
    }
    out
}

/// Render the *global* registry's current state (what a scrape returns).
pub fn render_global() -> String {
    render_prometheus(&crate::metrics_snapshot())
}

/// A scrape's reply: [`render_global`] in the exposition format's
/// content type.
pub fn metrics_response() -> Response {
    (200, PROMETHEUS, render_global())
}

/// Bind `addr` (e.g. `"127.0.0.1:9090"`) and answer every request,
/// whatever its path, with [`metrics_response`] from a background thread.
/// The server stops when dropped.
pub fn serve_metrics(addr: &str) -> std::io::Result<Server> {
    Server::serve(addr, |_| metrics_response())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HistogramData;
    use std::net::TcpStream;
    use std::time::Duration;

    fn snap(name: &str, labels: &[(&str, &str)], value: MetricValue) -> MetricSnapshot {
        MetricSnapshot {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value,
        }
    }

    #[test]
    fn names_are_sanitized() {
        assert_eq!(
            sanitize_name("tunio.eval.cache_hits"),
            "tunio_eval_cache_hits"
        );
        assert_eq!(sanitize_name("ok_name:sub"), "ok_name:sub");
        assert_eq!(sanitize_name("sp ace-dash"), "sp_ace_dash");
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label_value(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape_label_value("line\nbreak"), "line\\nbreak");
    }

    #[test]
    fn renders_each_metric_kind() {
        let snaps = vec![
            snap("app.count", &[], MetricValue::Counter(7)),
            snap("app.level", &[("stage", "two")], MetricValue::Gauge(2.5)),
            snap(
                "app.cost",
                &[("layer", "lustre.data")],
                MetricValue::Histogram(HistogramData {
                    count: 3,
                    sum: 6.0,
                    min: 1.0,
                    max: 3.0,
                }),
            ),
        ];
        let text = render_prometheus(&snaps);
        assert!(text.contains("# TYPE app_count counter\napp_count 7\n"));
        assert!(text.contains("# TYPE app_level gauge\napp_level{stage=\"two\"} 2.5\n"));
        assert!(text.contains("# TYPE app_cost summary\n"));
        assert!(text.contains("app_cost{layer=\"lustre.data\",quantile=\"0\"} 1\n"));
        assert!(text.contains("app_cost{layer=\"lustre.data\",quantile=\"1\"} 3\n"));
        assert!(text.contains("app_cost_sum{layer=\"lustre.data\"} 6\n"));
        assert!(text.contains("app_cost_count{layer=\"lustre.data\"} 3\n"));
    }

    #[test]
    fn every_family_gets_a_help_line_before_its_type_line() {
        describe("helped.metric", "a described family");
        let snaps = vec![
            snap("helped.metric", &[], MetricValue::Counter(1)),
            snap("unhelped.metric", &[], MetricValue::Gauge(0.5)),
        ];
        let text = render_prometheus(&snaps);
        assert!(text
            .contains("# HELP helped_metric a described family\n# TYPE helped_metric counter\n"));
        // Families without registered help fall back to their raw name so
        // a # HELP line is never missing.
        assert!(
            text.contains("# HELP unhelped_metric unhelped.metric\n# TYPE unhelped_metric gauge\n")
        );
    }

    #[test]
    fn type_header_emitted_once_per_series_group() {
        let snaps = vec![
            snap("multi", &[("l", "a")], MetricValue::Counter(1)),
            snap("multi", &[("l", "b")], MetricValue::Counter(2)),
        ];
        let text = render_prometheus(&snaps);
        assert_eq!(text.matches("# TYPE multi counter").count(), 1);
        assert!(text.contains("multi{l=\"a\"} 1\n"));
        assert!(text.contains("multi{l=\"b\"} 2\n"));
    }

    #[test]
    fn stalled_scrapers_do_not_block_healthy_ones() {
        let mut server = serve_metrics("127.0.0.1:0").expect("bind");
        let addr = server.addr();
        // Three clients connect and then say nothing: with a serial accept
        // loop each would hold the server for its full read timeout.
        let stalled: Vec<TcpStream> = (0..3)
            .map(|_| TcpStream::connect(addr).expect("connect"))
            .collect();
        let started = std::time::Instant::now();
        let response = crate::http::call_raw(addr, "GET", "/metrics", "").expect("scrape");
        assert!(
            response.starts_with("HTTP/1.1 200 OK"),
            "unexpected response: {response:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "healthy scrape blocked behind stalled clients: {:?}",
            started.elapsed()
        );
        drop(stalled);
        server.shutdown();
    }

    #[test]
    fn non_finite_values_render_prometheus_style() {
        let snaps = vec![
            snap("g.inf", &[], MetricValue::Gauge(f64::INFINITY)),
            snap("g.nan", &[], MetricValue::Gauge(f64::NAN)),
        ];
        let text = render_prometheus(&snaps);
        assert!(text.contains("g_inf +Inf\n"));
        assert!(text.contains("g_nan NaN\n"));
    }
}
