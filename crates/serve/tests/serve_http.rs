//! End-to-end tests for the daemon over real HTTP: multi-tenant
//! concurrency, per-tenant cache namespacing, quota enforcement, panic
//! isolation, restart recovery, and WAL quarantine.
//!
//! The trace metric registry is global to the test process, so metric
//! assertions check presence/deltas, never absolute values.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tunio_serve::{Daemon, ServeConfig};
use tunio_trace::http::{call, call_raw};

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tunio-serve-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn config(wal_dir: &Path, workers: usize) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        wal_dir: wal_dir.to_path_buf(),
        workers,
        max_active_per_tenant: 4,
        max_queue: 64,
        quiet: true,
        trace_path: None,
    }
}

fn http(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    call(addr, method, path, body.unwrap_or("")).expect("http exchange")
}

fn submit(addr: SocketAddr, body: &str) -> (u16, String) {
    http(addr, "POST", "/campaigns", Some(body))
}

/// Poll a campaign until it leaves queued/running (or the deadline hits).
/// Returns its final status JSON.
fn await_settled(addr: SocketAddr, id: &str) -> serde_json::Value {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = http(addr, "GET", &format!("/campaigns/{id}"), None);
        assert_eq!(status, 200, "status for {id}: {body}");
        let v: serde_json::Value = serde_json::from_str(&body).expect("status json");
        let state = v.get("state").and_then(|s| s.as_str()).unwrap_or("");
        if state == "done" || state == "failed" {
            return v;
        }
        assert!(
            Instant::now() < deadline,
            "campaign {id} stuck in `{state}`"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn state_of(v: &serde_json::Value) -> &str {
    v.get("state").and_then(|s| s.as_str()).unwrap()
}

const SPEC: &str = "\"app\":\"hacc\",\"variant\":\"kernel\",\"iterations\":6,\
                    \"population\":4,\"seed\":42";

#[test]
fn concurrent_tenants_complete_with_namespaced_caches() {
    let dir = test_dir("tenants");
    let mut daemon = Daemon::start(config(&dir, 2)).expect("daemon boots");
    let addr = daemon.addr();

    // Four tenants submit the same campaign simultaneously.
    let tenants = ["t1", "t2", "t3", "t4"];
    let mut ids = Vec::new();
    for t in tenants {
        let (status, body) = submit(
            addr,
            &format!("{{\"tenant\":\"{t}\",\"name\":\"first\",{SPEC}}}"),
        );
        assert_eq!(status, 202, "{body}");
        ids.push(format!("{t}--first"));
    }
    for id in &ids {
        let v = await_settled(addr, id);
        assert_eq!(state_of(&v), "done", "{id}: {v:?}");
    }

    // Determinism across tenants: identical specs, byte-identical outcomes.
    let first = std::fs::read(dir.join("t1--first.outcome.json")).unwrap();
    for t in &tenants[1..] {
        let other = std::fs::read(dir.join(format!("{t}--first.outcome.json"))).unwrap();
        assert_eq!(first, other, "outcome diverged for {t}");
    }

    // A tenant's rerun of the same fingerprint is served fully from its
    // own warm cache: the simulator is never touched (sim_wall_s == 0).
    let (status, _) = submit(
        addr,
        &format!("{{\"tenant\":\"t1\",\"name\":\"again\",{SPEC}}}"),
    );
    assert_eq!(status, 202);
    let v = await_settled(addr, "t1--again");
    assert_eq!(state_of(&v), "done");
    let warm_wall = v
        .get("counters")
        .and_then(|c| c.get("sim_wall_s"))
        .and_then(|x| x.as_f64())
        .unwrap();
    assert_eq!(warm_wall, 0.0, "warm rerun touched the simulator: {v:?}");
    let rerun = std::fs::read(dir.join("t1--again.outcome.json")).unwrap();
    assert_eq!(first, rerun, "warm rerun forked the outcome");

    // A *new* tenant running the same spec gets no such warmth — its
    // namespace is empty, so it must pay for its own simulations.
    let (status, _) = submit(
        addr,
        &format!("{{\"tenant\":\"t5\",\"name\":\"cold\",{SPEC}}}"),
    );
    assert_eq!(status, 202);
    let v = await_settled(addr, "t5--cold");
    assert_eq!(state_of(&v), "done");
    let cold_wall = v
        .get("counters")
        .and_then(|c| c.get("sim_wall_s"))
        .and_then(|x| x.as_f64())
        .unwrap();
    assert!(
        cold_wall > 0.0,
        "tenant t5 was served from another tenant's cache: {v:?}"
    );

    // Progress events: lifecycle + one generation event per WAL line,
    // and `from=N` tails past what was already seen.
    let (status, events) = http(addr, "GET", "/campaigns/t1--first/events", None);
    assert_eq!(status, 200);
    let generations = events
        .lines()
        .filter(|l| l.contains("\"event\":\"generation\""))
        .count();
    assert!(generations >= 1, "no generation events: {events}");
    assert!(events.contains("\"event\":\"submitted\""));
    assert!(events.contains("\"event\":\"done\""));
    let (_, tail) = http(addr, "GET", "/campaigns/t1--first/events?from=2", None);
    assert_eq!(tail.lines().count(), events.lines().count() - 2);

    // Per-tenant labeled metrics are exposed on /metrics.
    let (_, metrics) = http(addr, "GET", "/metrics", None);
    assert!(
        metrics.contains("tunio_serve_submitted{tenant=\"t1\"}"),
        "{metrics}"
    );
    assert!(metrics.contains("tunio_serve_completed{tenant=\"t5\"}"));

    daemon.drain_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `error` string of an error response, which must be valid JSON.
fn error_of(body: &str) -> String {
    let v: serde_json::Value = serde_json::from_str(body).expect("error body is JSON");
    v.get("error")
        .and_then(|e| e.as_str())
        .expect("error field")
        .to_string()
}

#[test]
fn error_bodies_carry_control_characters_as_valid_json() {
    let dir = test_dir("control-chars");
    let mut daemon = Daemon::start(config(&dir, 1)).expect("daemon boots");
    let (status, body) = submit(daemon.addr(), r#"{"tenant":"a\tb","app":"hacc"}"#);
    assert_eq!(status, 400, "{body}");
    assert!(error_of(&body).contains("`a\tb`"), "{body}");
    daemon.drain_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tenant_quota_returns_429_without_losing_admitted_work() {
    let dir = test_dir("quota");
    let mut cfg = config(&dir, 1);
    cfg.max_active_per_tenant = 2;
    let mut daemon = Daemon::start(cfg).expect("daemon boots");
    let addr = daemon.addr();

    let (s1, _) = submit(addr, &format!("{{\"tenant\":\"q\",\"name\":\"a\",{SPEC}}}"));
    let (s2, _) = submit(addr, &format!("{{\"tenant\":\"q\",\"name\":\"b\",{SPEC}}}"));
    assert_eq!((s1, s2), (202, 202));
    let (s3, body) = submit(addr, &format!("{{\"tenant\":\"q\",\"name\":\"c\",{SPEC}}}"));
    assert_eq!(s3, 429, "{body}");
    assert!(error_of(&body).contains("active campaigns"), "{body}");

    // Another tenant is not affected by q's quota.
    let (s4, _) = submit(addr, &format!("{{\"tenant\":\"r\",\"name\":\"a\",{SPEC}}}"));
    assert_eq!(s4, 202);

    // The admitted campaigns still finish; quota frees up afterwards.
    assert_eq!(state_of(&await_settled(addr, "q--a")), "done");
    assert_eq!(state_of(&await_settled(addr, "q--b")), "done");
    let (s5, _) = submit(addr, &format!("{{\"tenant\":\"q\",\"name\":\"c\",{SPEC}}}"));
    assert_eq!(s5, 202);
    assert_eq!(state_of(&await_settled(addr, "q--c")), "done");

    // Duplicate ids are refused.
    let (s6, body) = submit(addr, &format!("{{\"tenant\":\"q\",\"name\":\"c\",{SPEC}}}"));
    assert_eq!(s6, 409);
    assert_eq!(error_of(&body), "campaign q--c already exists");

    daemon.drain_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn evaluator_panic_fails_one_campaign_and_spares_the_rest() {
    let dir = test_dir("panic");
    let mut daemon = Daemon::start(config(&dir, 2)).expect("daemon boots");
    let addr = daemon.addr();

    // Four tenants: one panicking evaluator drill, one chaos-faulted but
    // survivable, two plain. The acceptance bar: 3 complete, 1 failed,
    // the process never dies.
    let bodies = [
        format!("{{\"tenant\":\"p1\",\"name\":\"x\",{SPEC}}}"),
        format!("{{\"tenant\":\"p2\",\"name\":\"x\",{SPEC},\"inject_panic\":true}}"),
        format!("{{\"tenant\":\"p3\",\"name\":\"x\",{SPEC},\"fault_rate\":0.2}}"),
        format!("{{\"tenant\":\"p4\",\"name\":\"x\",{SPEC}}}"),
    ];
    for b in &bodies {
        let (status, body) = submit(addr, b);
        assert_eq!(status, 202, "{body}");
    }
    let p1 = await_settled(addr, "p1--x");
    let p2 = await_settled(addr, "p2--x");
    let p3 = await_settled(addr, "p3--x");
    let p4 = await_settled(addr, "p4--x");
    assert_eq!(state_of(&p1), "done");
    assert_eq!(state_of(&p2), "failed");
    assert!(
        p2.get("error")
            .and_then(|e| e.as_str())
            .unwrap()
            .contains("panicked"),
        "{p2:?}"
    );
    assert_eq!(state_of(&p3), "done");
    assert_eq!(state_of(&p4), "done");

    // The daemon is still healthy and still takes work after the panic.
    let (status, body) = http(addr, "GET", "/healthz", None);
    assert_eq!((status, body.as_str()), (200, "{\"status\":\"ok\"}"));
    let (status, _) = submit(
        addr,
        &format!("{{\"tenant\":\"p2\",\"name\":\"y\",{SPEC}}}"),
    );
    assert_eq!(status, 202);
    assert_eq!(state_of(&await_settled(addr, "p2--y")), "done");

    // The failure is visible in the event stream too.
    let (_, events) = http(addr, "GET", "/campaigns/p2--x/events", None);
    assert!(events.contains("\"event\":\"failed\""), "{events}");

    daemon.drain_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_resumes_interrupted_campaigns_bitwise_identically() {
    let dir = test_dir("restart");
    let (reference, wal_lines) = {
        let mut daemon = Daemon::start(config(&dir, 1)).expect("daemon boots");
        let addr = daemon.addr();
        let (status, _) = submit(
            addr,
            &format!("{{\"tenant\":\"w\",\"name\":\"job\",{SPEC}}}"),
        );
        assert_eq!(status, 202);
        assert_eq!(state_of(&await_settled(addr, "w--job")), "done");
        daemon.drain_and_join();
        let outcome = std::fs::read(dir.join("w--job.outcome.json")).unwrap();
        let wal = std::fs::read_to_string(dir.join("w--job.jsonl")).unwrap();
        (outcome, wal.lines().map(String::from).collect::<Vec<_>>())
    };

    // Simulate a kill -9 mid-campaign: keep the header plus the first
    // two generations of the WAL and delete the outcome file.
    assert!(wal_lines.len() >= 4, "campaign too short for the drill");
    let truncated: String = wal_lines[..3].join("\n") + "\n";
    std::fs::write(dir.join("w--job.jsonl"), truncated).unwrap();
    std::fs::remove_file(dir.join("w--job.outcome.json")).unwrap();

    // A fresh daemon over the same WAL dir resumes it to completion
    // without being asked, and the outcome is byte-identical.
    let mut daemon = Daemon::start(config(&dir, 1)).expect("daemon reboots");
    let addr = daemon.addr();
    let v = await_settled(addr, "w--job");
    assert_eq!(state_of(&v), "done", "{v:?}");
    assert_eq!(
        v.get("resumed"),
        Some(&serde_json::Value::Bool(true)),
        "{v:?}"
    );
    let resumed = std::fs::read(dir.join("w--job.outcome.json")).unwrap();
    assert_eq!(reference, resumed, "resume forked the outcome");
    let (_, events) = http(addr, "GET", "/campaigns/w--job/events", None);
    assert!(events.contains("\"event\":\"resumed\""), "{events}");

    daemon.drain_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn boot_quarantines_alien_wals_and_keeps_serving() {
    let dir = test_dir("quarantine");
    // A WAL this build cannot host (unknown strategy)...
    std::fs::write(
        dir.join("z--alien.jsonl"),
        "{\"version\":2,\"app\":\"hacc\",\"variant\":\"Kernel\",\
         \"kind\":\"TunIO [strategy=alien]\",\"max_iterations\":4,\
         \"population\":4,\"seed\":1,\"large_scale\":false}\n",
    )
    .unwrap();
    // ...a version-1 WAL from before every campaign ran through the
    // strategy scheduler (bare pipeline label, a GA generation line)...
    std::fs::write(
        dir.join("z--v1.jsonl"),
        "{\"version\":1,\"app\":\"hacc\",\"variant\":\"Kernel\",\
         \"kind\":\"TunIO\",\"max_iterations\":4,\
         \"population\":4,\"seed\":1,\"large_scale\":false}\n\
         {\"iteration\":1,\"rng_state\":[1,2,3,4],\"record\":{\"iteration\":1,\
         \"best_perf\":1.0,\"generation_best_perf\":1.0,\"cost_s\":1.0,\
         \"cumulative_cost_s\":1.0,\"subset_size\":12},\"population\":[],\
         \"best_genes\":[],\"stopped\":false,\"entries\":[]}\n",
    )
    .unwrap();
    // ...and one that is not a checkpoint at all.
    std::fs::write(dir.join("z--noise.jsonl"), "not json at all\n").unwrap();

    let mut daemon = Daemon::start(config(&dir, 1)).expect("daemon boots despite bad WALs");
    let addr = daemon.addr();
    assert!(dir.join("z--alien.jsonl.quarantined").exists());
    assert!(dir.join("z--v1.jsonl.quarantined").exists());
    assert!(dir.join("z--noise.jsonl.quarantined").exists());
    assert!(!dir.join("z--alien.jsonl").exists());
    assert!(!dir.join("z--v1.jsonl").exists());
    let (_, listed) = http(addr, "GET", "/campaigns", None);
    assert!(
        !listed.contains("z--v1"),
        "a v1 WAL must not resume: {listed}"
    );

    // Quarantine is an event, not an outage: submissions still work.
    let (status, _) = submit(
        addr,
        &format!("{{\"tenant\":\"z\",\"name\":\"ok\",{SPEC}}}"),
    );
    assert_eq!(status, 202);
    assert_eq!(state_of(&await_settled(addr, "z--ok")), "done");
    let (_, metrics) = http(addr, "GET", "/metrics", None);
    assert!(
        metrics.contains("tunio_serve_quarantined_wals"),
        "{metrics}"
    );

    daemon.drain_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Like [`http`] but returns the raw response (status line + headers +
/// body) so tests can assert on headers.
fn http_raw(addr: SocketAddr, method: &str, path: &str) -> String {
    call_raw(addr, method, path, "").expect("http exchange")
}

/// Exposition-format conformance: the content type advertises version
/// 0.0.4, every `# TYPE` is preceded by a `# HELP` for the same family,
/// and every sample line belongs to a typed family (allowing the
/// summary-style `_sum`/`_count` suffixes).
fn assert_conformant_scrape(raw: &str) -> String {
    let (headers, body) = raw.split_once("\r\n\r\n").expect("headers present");
    assert!(
        headers
            .to_ascii_lowercase()
            .contains("content-type: text/plain; version=0.0.4"),
        "scrape content type is not exposition 0.0.4: {headers}"
    );
    let lines: Vec<&str> = body.lines().collect();
    let mut families = std::collections::HashSet::new();
    for (i, line) in lines.iter().enumerate() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("family name");
            let kind = parts.next().expect("family kind");
            assert!(
                ["counter", "gauge", "summary", "histogram"].contains(&kind),
                "unknown family kind: {line}"
            );
            assert!(
                i > 0 && lines[i - 1].starts_with(&format!("# HELP {name} ")),
                "family {name} lacks a # HELP line before its # TYPE"
            );
            families.insert(name.to_string());
        }
    }
    for line in &lines {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let name = line.split(['{', ' ']).next().expect("sample name");
        let base = name
            .strip_suffix("_sum")
            .filter(|b| families.contains(*b))
            .or_else(|| {
                name.strip_suffix("_count")
                    .filter(|b| families.contains(*b))
            })
            .unwrap_or(name);
        assert!(
            families.contains(base),
            "sample `{name}` has no # TYPE family: {line}"
        );
    }
    body.to_string()
}

#[test]
fn events_from_boundary_is_empty_and_tailing_never_skips_or_repeats() {
    let dir = test_dir("events-pagination");
    let mut daemon = Daemon::start(config(&dir, 1)).expect("daemon boots");
    let addr = daemon.addr();
    let (status, _) = submit(
        addr,
        &format!("{{\"tenant\":\"e\",\"name\":\"tail\",{SPEC}}}"),
    );
    assert_eq!(status, 202);

    // Tail the stream with `from=len(seen)` while the campaign runs. The
    // stream is append-only, so the concatenation of the tails must equal
    // the final full fetch: nothing skipped, nothing repeated.
    let mut collected: Vec<String> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, batch) = http(
            addr,
            "GET",
            &format!("/campaigns/e--tail/events?from={}", collected.len()),
            None,
        );
        assert_eq!(status, 200);
        collected.extend(batch.lines().map(String::from));
        if collected
            .iter()
            .any(|l| l.contains("\"event\":\"done\"") || l.contains("\"event\":\"failed\""))
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "campaign never settled: {collected:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let (status, full) = http(addr, "GET", "/campaigns/e--tail/events", None);
    assert_eq!(status, 200);
    let full_lines: Vec<String> = full.lines().map(String::from).collect();
    assert_eq!(
        collected, full_lines,
        "incremental tails diverged from the full stream"
    );

    // Boundary: `from` equal to the current event count is an empty 200
    // body, not an error — and so is anything past the end.
    let n = full_lines.len();
    let (status, body) = http(
        addr,
        "GET",
        &format!("/campaigns/e--tail/events?from={n}"),
        None,
    );
    assert_eq!((status, body.as_str()), (200, ""));
    let (status, body) = http(
        addr,
        "GET",
        &format!("/campaigns/e--tail/events?from={}", n + 7),
        None,
    );
    assert_eq!((status, body.as_str()), (200, ""));

    // The route's content type does not depend on whether the reply
    // holds events.
    for from in [0, n] {
        let raw = http_raw(
            addr,
            "GET",
            &format!("/campaigns/e--tail/events?from={from}"),
        );
        assert!(
            raw.contains("\r\nContent-Type: application/x-ndjson\r\n"),
            "events content type for from={from}: {raw}"
        );
    }

    daemon.drain_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn timeline_live_equals_offline_reconstruction_and_metrics_conform() {
    let dir = test_dir("timeline");
    let trace_path = dir.join("trace.jsonl");
    let mut cfg = config(&dir, 1);
    cfg.trace_path = Some(trace_path.clone());
    let mut daemon = Daemon::start(cfg).expect("daemon boots");
    let addr = daemon.addr();

    // A strategy campaign across 4 evaluator threads; the 202 body carries
    // the trace id that names this campaign's span DAG.
    let (status, body) = submit(
        addr,
        "{\"tenant\":\"tl\",\"name\":\"flow\",\"app\":\"hacc\",\"variant\":\"kernel\",\
         \"iterations\":3,\"population\":4,\"seed\":7,\"strategy\":\"bo\",\"threads\":4}",
    );
    assert_eq!(status, 202, "{body}");
    let sub: serde_json::Value = serde_json::from_str(&body).expect("202 json");
    let trace_hex = sub
        .get("trace_id")
        .and_then(|t| t.as_str())
        .expect("trace_id in 202 body")
        .to_string();
    assert_eq!(trace_hex.len(), 16, "trace id is 16 hex chars: {trace_hex}");

    // The timeline endpoint answers while the campaign is queued/running
    // (or from the frozen snapshot if it already settled) — and segments
    // sum to the wall clock exactly either way.
    let (status, live_early) = http(addr, "GET", "/campaigns/tl--flow/timeline", None);
    assert_eq!(status, 200, "{live_early}");
    let early: serde_json::Value = serde_json::from_str(&live_early).expect("timeline json");
    let sum_segments = |v: &serde_json::Value| -> u64 {
        match v.get("segments") {
            Some(serde_json::Value::Array(segs)) => segs
                .iter()
                .map(|s| s.get("us").and_then(|u| u.as_u64()).expect("segment us"))
                .sum(),
            other => panic!("segments missing: {other:?}"),
        }
    };
    assert_eq!(
        Some(sum_segments(&early)),
        early.get("wall_us").and_then(|w| w.as_u64()),
        "live segments do not sum to wall: {live_early}"
    );

    let v = await_settled(addr, "tl--flow");
    assert_eq!(state_of(&v), "done", "{v:?}");
    assert_eq!(
        v.get("trace_id").and_then(|t| t.as_str()),
        Some(trace_hex.as_str()),
        "status echoes the submission's trace id"
    );

    // The frozen timeline: complete, same trace id, sums exactly.
    let (status, live) = http(addr, "GET", "/campaigns/tl--flow/timeline", None);
    assert_eq!(status, 200, "{live}");
    let frozen: serde_json::Value = serde_json::from_str(&live).expect("timeline json");
    assert_eq!(
        frozen.get("complete"),
        Some(&serde_json::Value::Bool(true)),
        "{live}"
    );
    assert_eq!(
        frozen.get("trace_id").and_then(|t| t.as_str()),
        Some(trace_hex.as_str())
    );
    let wall = frozen.get("wall_us").and_then(|w| w.as_u64()).unwrap();
    assert_eq!(sum_segments(&frozen), wall, "{live}");
    let crit = match frozen.get("critical_path") {
        Some(serde_json::Value::Array(steps)) => steps.len(),
        other => panic!("critical_path missing: {other:?}"),
    };
    assert!(
        crit >= 2,
        "critical path should descend below the root: {live}"
    );

    // Golden scrape: exposition conformance, and the per-segment
    // histograms from the traced campaign are present and typed.
    let scrape = assert_conformant_scrape(&http_raw(addr, "GET", "/metrics"));
    assert!(
        scrape.contains("# TYPE tunio_timeline_segment_s summary"),
        "per-segment histograms missing from scrape"
    );
    assert!(
        scrape.contains(&format!("trace_id=\"{trace_hex}\"")),
        "exemplar trace id missing from scrape"
    );

    // Drain flushes the JSONL sink; the offline reconstruction from the
    // trace file must be byte-identical to what the live endpoint served.
    daemon.drain_and_join();
    let text = std::fs::read_to_string(&trace_path).expect("trace file");
    let (records, _) = tunio_trace::report::parse_jsonl_lenient(&text);
    let timelines = tunio_trace::timeline::from_records(&records);
    let offline = timelines
        .iter()
        .find(|t| format!("{:016x}", t.trace_id) == trace_hex)
        .expect("campaign's trace in the file");
    assert_eq!(
        offline.to_json(),
        live,
        "offline reconstruction diverged from the live endpoint"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_refuses_new_work_but_finishes_queued_work() {
    let dir = test_dir("drain");
    let mut daemon = Daemon::start(config(&dir, 1)).expect("daemon boots");
    let addr = daemon.addr();
    let (s1, _) = submit(addr, &format!("{{\"tenant\":\"d\",\"name\":\"a\",{SPEC}}}"));
    let (s2, _) = submit(addr, &format!("{{\"tenant\":\"d\",\"name\":\"b\",{SPEC}}}"));
    assert_eq!((s1, s2), (202, 202));
    let (status, body) = http(addr, "POST", "/drain", None);
    assert_eq!((status, body.as_str()), (200, "{\"state\":\"draining\"}"));
    let (s3, body) = submit(addr, &format!("{{\"tenant\":\"d\",\"name\":\"c\",{SPEC}}}"));
    assert_eq!(s3, 503, "{body}");
    daemon.drain_and_join();
    // Both admitted campaigns ran to completion during the drain.
    assert!(dir.join("d--a.outcome.json").exists());
    assert!(dir.join("d--b.outcome.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every body a settled campaign is read through: status, events and
/// timeline per id, then the listing.
fn settled_bodies(addr: SocketAddr, ids: &[&str]) -> Vec<(u16, String)> {
    let mut bodies = Vec::new();
    for id in ids {
        for suffix in ["", "/events", "/timeline"] {
            bodies.push(http(addr, "GET", &format!("/campaigns/{id}{suffix}"), None));
        }
    }
    bodies.push(http(addr, "GET", "/campaigns", None));
    bodies
}

#[test]
fn tenants_share_pretraining_and_settled_campaigns_live_on_disk() {
    let dir = test_dir("pretrain-cache");
    let spec = "\"app\":\"vpic\",\"variant\":\"kernel\",\"iterations\":6,\
                \"population\":4,\"seed\":99";
    let mut daemon = Daemon::start(config(&dir, 1)).expect("daemon boots");
    let addr = daemon.addr();

    // Two tenants submit one seed in turn: the first campaign trains
    // both TunIO agents, the second clones them from the shared cache.
    let ids = ["ca--job", "cb--job"];
    for id in ids {
        let tenant = id.split_once("--").unwrap().0;
        let (status, body) = submit(
            addr,
            &format!("{{\"tenant\":\"{tenant}\",\"name\":\"job\",{spec}}}"),
        );
        assert_eq!(status, 202, "{body}");
        assert_eq!(state_of(&await_settled(addr, id)), "done");
    }
    assert_eq!(daemon.pretrain_cache().lookups(), (2, 2), "(hits, misses)");
    assert_eq!(daemon.pretrain_cache().entries(), (1, 1));

    // A cache hit changes no byte of the outcome.
    let request: serde_json::Value =
        serde_json::from_str(&format!("{{\"tenant\":\"cb\",{spec}}}")).unwrap();
    let (campaign, _) = tunio_serve::CampaignRequest::from_json(&request)
        .unwrap()
        .to_spec()
        .unwrap();
    let expected =
        tunio::pipeline::outcome_json(&tunio::pipeline::run_campaign(&campaign).unwrap());
    for id in ids {
        let served = std::fs::read_to_string(dir.join(format!("{id}.outcome.json"))).unwrap();
        assert_eq!(served, expected, "{id} differs from run_campaign");
    }

    // Settled campaigns leave memory once their status sidecar is down;
    // only queued and running campaigns stay resident.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !daemon.resident().is_empty() {
        assert!(Instant::now() < deadline, "{:?}", daemon.resident());
        std::thread::sleep(Duration::from_millis(10));
    }
    for id in ids {
        assert!(dir.join(format!("{id}.status.json")).exists());
    }
    let evicted = settled_bodies(addr, &ids);
    assert!(
        evicted.iter().take(2).all(|(s, _)| *s == 200),
        "{evicted:?}"
    );
    assert!(evicted[1].1.contains("\"event\":\"done\""), "{evicted:?}");
    assert!(evicted[6].1.contains("ca--job") && evicted[6].1.contains("cb--job"));
    // The id is still taken.
    let (status, _) = submit(
        addr,
        &format!("{{\"tenant\":\"ca\",\"name\":\"job\",{spec}}}"),
    );
    assert_eq!(status, 409);
    daemon.drain_and_join();

    // A restart serves the same bytes from disk without loading the
    // finished campaigns into memory.
    let mut daemon = Daemon::start(config(&dir, 1)).expect("daemon reboots");
    assert!(daemon.resident().is_empty(), "{:?}", daemon.resident());
    assert_eq!(settled_bodies(daemon.addr(), &ids), evicted);
    let (status, _) = submit(
        daemon.addr(),
        &format!("{{\"tenant\":\"cb\",\"name\":\"job\",{spec}}}"),
    );
    assert_eq!(status, 409);
    daemon.drain_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}
