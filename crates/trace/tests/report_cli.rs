//! Regression tests for the `tunio-report` binary's lenient input
//! handling: empty traces and traces truncated mid-line (the emitting
//! process died before its final flush) must report what parsed and
//! exit 0; only totally unreadable input exits non-zero.

use std::path::PathBuf;
use std::process::Command;

fn report_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tunio-report"))
}

fn tmp_file(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("tunio_report_cli_{name}_{}", std::process::id()));
    std::fs::write(&path, contents).unwrap();
    path
}

#[test]
fn empty_trace_file_is_reported_not_an_error() {
    let path = tmp_file("empty", "");
    let out = report_bin().arg(&path).output().unwrap();
    std::fs::remove_file(&path).ok();
    assert!(out.status.success(), "stderr: {}", text(&out.stderr));
    assert!(text(&out.stdout).contains("no campaign records"));
}

#[test]
fn empty_trace_file_with_critical_path_is_reported_not_an_error() {
    let path = tmp_file("empty_cp", "");
    let out = report_bin()
        .arg(&path)
        .arg("--critical-path")
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    assert!(out.status.success(), "stderr: {}", text(&out.stderr));
    assert!(text(&out.stdout).contains("no spans"));
}

#[test]
fn truncated_trace_reports_the_parsed_prefix() {
    let contents = concat!(
        r#"{"t_us":0,"name":"campaign","fields":{"label":"t","iterations":2}}"#,
        "\n",
        r#"{"t_us":100,"name":"search.window","fields":{"iter":0,"best_perf":1.0}}"#,
        "\n",
        r#"{"t_us":200,"name":"search.win"#, // torn tail: process was killed
    );
    let path = tmp_file("torn", contents);
    let out = report_bin().arg(&path).output().unwrap();
    std::fs::remove_file(&path).ok();
    assert!(
        out.status.success(),
        "truncated trace must still report; stderr: {}",
        text(&out.stderr)
    );
    let stdout = text(&out.stdout);
    assert!(stdout.contains('t'), "summary should render: {stdout}");
    let stderr = text(&out.stderr);
    assert!(
        stderr.contains("skipped 1"),
        "torn line should be warned about on stderr: {stderr}"
    );
}

#[test]
fn truncated_trace_critical_path_reports_the_parsed_spans() {
    let contents = concat!(
        r#"{"t_us":0,"name":"serve.campaign","dur_us":1000,"trace_id":5,"span_id":1,"fields":{}}"#,
        "\n",
        r#"{"t_us":100,"name":"eval.simulate","dur_us":400,"trace_id":5,"span_id":2,"parent_id":1,"fields":{}}"#,
        "\n",
        r#"{"t_us":600,"name":"eval.sim"#, // torn tail
    );
    let path = tmp_file("torn_cp", contents);
    let out = report_bin()
        .arg(&path)
        .arg("--critical-path")
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    assert!(out.status.success(), "stderr: {}", text(&out.stderr));
    let stdout = text(&out.stdout);
    assert!(stdout.contains("simulation"), "segment table: {stdout}");
    assert!(stdout.contains("sums exactly"), "invariant line: {stdout}");
}

#[test]
fn totally_unreadable_input_exits_nonzero() {
    let path = tmp_file("garbage", "this is not json\nnor is this\n");
    let out = report_bin().arg(&path).output().unwrap();
    std::fs::remove_file(&path).ok();
    assert!(!out.status.success());
    assert!(text(&out.stderr).contains("no line parsed"));
}

#[test]
fn critical_path_json_emits_one_timeline_per_line() {
    let contents = concat!(
        r#"{"t_us":0,"name":"serve.campaign","dur_us":1000,"trace_id":7,"span_id":1,"fields":{"trace_overhead_us":3}}"#,
        "\n",
        r#"{"t_us":100,"name":"strategy.propose","dur_us":50,"trace_id":7,"span_id":2,"parent_id":1,"fields":{}}"#,
        "\n",
    );
    let path = tmp_file("cp_json", contents);
    let out = report_bin()
        .arg(&path)
        .arg("--critical-path")
        .arg("--json")
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    assert!(out.status.success(), "stderr: {}", text(&out.stderr));
    let stdout = text(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1);
    let v: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
    assert_eq!(
        v.get("trace_id").and_then(|t| t.as_str()),
        Some("0000000000000007")
    );
    assert!(v.get("segments").is_some());
    assert!(v.get("critical_path").is_some());
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}
