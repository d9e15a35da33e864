//! `tunio-tune`'s stdout is part of its determinism contract: the same
//! command and seed print the same bytes at every `--threads` value,
//! racing counters included.

use std::process::{Child, Command, Stdio};

/// Start a storm racing campaign, where evaluator timing decides how
/// many warm samples run for keys that never settle: the stopper ends
/// it at generation 28 of 40 with speculative keys in flight.
fn spawn_racing(threads: &str) -> Child {
    Command::new(env!("CARGO_BIN_EXE_tunio-tune"))
        .args(
            "--app hacc --iterations 40 --population 24 --seed 42 --strategy random --racing \
             --noise-profile storm --noise-seed 9 --large-scale --quiet --threads"
                .split_whitespace(),
        )
        .arg(threads)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start tunio-tune")
}

fn stdout_of(child: Child) -> String {
    let out = child.wait_with_output().expect("run tunio-tune");
    assert!(
        out.status.success(),
        "tunio-tune failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn racing_stdout_is_identical_across_thread_counts() {
    let (serial, parallel) = (spawn_racing("1"), spawn_racing("2"));
    let serial = stdout_of(serial);
    assert!(serial.contains("racing: "), "no racing line in:\n{serial}");
    assert_eq!(serial, stdout_of(parallel));
}
