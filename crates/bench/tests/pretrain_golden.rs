//! Golden snapshot of the pretrained agents' learned state.
//!
//! `EarlyStopAgent::pretrained` and `SmartConfigAgent::pretrained` are
//! pure functions of their arguments. Their `save_state()` JSON (every
//! network weight, printed with shortest round-trip formatting) is
//! compared byte-for-byte against `tests/golden/pretrain_agents.json`,
//! so a change to the replay buffer, the Q-learning update or the
//! network kernel that moves a single weight bit fails here.
//!
//! Re-bless only for an intentional change to pretraining:
//!
//! ```text
//! TUNIO_BLESS=1 cargo test -p tunio-bench --test pretrain_golden
//! ```

use std::path::PathBuf;
use tunio::early_stop::EarlyStopAgent;
use tunio::smart_config::SmartConfigAgent;
use tunio_iosim::ClusterSpec;
use tunio_params::ParameterSpace;

fn snapshot() -> String {
    let mut entries = Vec::new();
    for (max_iterations, seed) in [(10u32, 42u64), (30, 0), (30, 1234)] {
        let state = EarlyStopAgent::pretrained(max_iterations, seed).save_state();
        entries.push(format!(
            "  \"stop({max_iterations},{seed})\": {}",
            serde_json::to_string(&state).expect("state serializes")
        ));
    }
    let space = ParameterSpace::tunio_default();
    let state = SmartConfigAgent::pretrained(&space, ClusterSpec::cori_4node(), 42).save_state();
    entries.push(format!(
        "  \"subsets(42)\": {}",
        serde_json::to_string(&state).expect("state serializes")
    ));
    format!("{{\n{}\n}}\n", entries.join(",\n"))
}

#[test]
fn pretrained_agents_match_golden() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/pretrain_agents.json");
    let actual = snapshot();
    if std::env::var_os("TUNIO_BLESS").is_some() {
        std::fs::write(&path, &actual).expect("write golden snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); generate it with \
             TUNIO_BLESS=1 cargo test -p tunio-bench --test pretrain_golden",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "pretrained agent state diverged from the golden snapshot; if the change is \
         intentional, re-bless with TUNIO_BLESS=1 cargo test -p tunio-bench --test pretrain_golden"
    );
}
