//! Bytes from outside never panic: campaign WALs.
//!
//! A real WAL, written by a short checkpointed campaign, is mutated by
//! byte flips, truncation at any offset, duplicated or dropped lines and
//! non-UTF-8 bytes. `checkpoint::load` must answer every mutant with
//! `Ok` or a typed [`CheckpointError`], and `scan_dir` must quarantine
//! a file `load` refuses instead of failing the scan. A panic anywhere
//! fails the property.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use tunio::checkpoint::{load, scan_dir, CheckpointError};
use tunio::pipeline::{
    run_strategy_campaign_opts, CampaignOptions, CampaignSpec, PipelineKind, StrategyKind,
};
use tunio_workloads::{hacc, Variant};

/// The bytes of a WAL from a four-generation GA campaign (written once
/// per test process).
fn real_wal() -> &'static [u8] {
    static WAL: OnceLock<Vec<u8>> = OnceLock::new();
    WAL.get_or_init(|| {
        let dir = scratch_dir("source");
        let path = dir.join("campaign.jsonl");
        let spec = CampaignSpec {
            app: hacc(),
            variant: Variant::Kernel,
            kind: PipelineKind::HsTunerNoStop,
            max_iterations: 4,
            population: 6,
            seed: 7,
            large_scale: false,
        };
        let opts = CampaignOptions {
            checkpoint: Some(path.clone()),
            threads: Some(1),
            ..CampaignOptions::default()
        };
        run_strategy_campaign_opts(&spec, StrategyKind::Ga, &opts).expect("fault-free campaign");
        let bytes = std::fs::read(&path).expect("campaign wrote its WAL");
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    })
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tunio-prop-checkpoint-{}-{name}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// One edit of the WAL's bytes. `at` is reduced modulo the current
/// length (in bytes or lines), so every draw applies somewhere.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    FlipBit { at: u64, bit: u8 },
    Truncate { at: u64 },
    DuplicateLine { at: u64 },
    DropLine { at: u64 },
    InsertNonUtf8 { at: u64, byte: u8 },
}

fn mutation() -> impl Strategy<Value = Mutation> {
    (0u8..5, any::<u64>(), any::<u8>()).prop_map(|(kind, at, b)| match kind {
        0 => Mutation::FlipBit { at, bit: b % 8 },
        1 => Mutation::Truncate { at },
        2 => Mutation::DuplicateLine { at },
        3 => Mutation::DropLine { at },
        // 0x80..=0xFF alone is never valid UTF-8.
        _ => Mutation::InsertNonUtf8 { at, byte: b | 0x80 },
    })
}

fn line_spans(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut spans = Vec::new();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            spans.push(start..i + 1);
            start = i + 1;
        }
    }
    if start < bytes.len() {
        spans.push(start..bytes.len());
    }
    spans
}

fn apply(bytes: &mut Vec<u8>, m: Mutation) {
    let pick = |at: u64, n: usize| (at % n.max(1) as u64) as usize;
    match m {
        Mutation::FlipBit { at, bit } => {
            if !bytes.is_empty() {
                let i = pick(at, bytes.len());
                bytes[i] ^= 1 << bit;
            }
        }
        Mutation::Truncate { at } => bytes.truncate(pick(at, bytes.len() + 1)),
        Mutation::DuplicateLine { at } => {
            let lines = line_spans(bytes);
            if !lines.is_empty() {
                let line = lines[pick(at, lines.len())].clone();
                let copy = bytes[line.clone()].to_vec();
                bytes.splice(line.end..line.end, copy);
            }
        }
        Mutation::DropLine { at } => {
            let lines = line_spans(bytes);
            if !lines.is_empty() {
                bytes.drain(lines[pick(at, lines.len())].clone());
            }
        }
        Mutation::InsertNonUtf8 { at, byte } => {
            let i = pick(at, bytes.len() + 1);
            bytes.insert(i, byte);
        }
    }
}

/// Load `bytes` as a WAL file; `Ok` must hold a gap-free generation
/// prefix.
fn load_bytes(path: &Path, bytes: &[u8]) -> Result<usize, CheckpointError> {
    std::fs::write(path, bytes).expect("write mutant");
    let (_, generations) = load(path)?;
    for (i, g) in generations.iter().enumerate() {
        assert_eq!(g.iteration, i as u32 + 1, "generation prefix has a gap");
    }
    Ok(generations.len())
}

#[test]
fn the_unmutated_wal_loads_every_generation() {
    let dir = scratch_dir("intact");
    let n = load_bytes(&dir.join("wal.jsonl"), real_wal()).expect("intact WAL loads");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(n, 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn load_never_panics_on_a_mutated_wal(
        edits in proptest::collection::vec(mutation(), 1..4),
    ) {
        let dir = scratch_dir("load");
        let mut bytes = real_wal().to_vec();
        for &m in &edits {
            apply(&mut bytes, m);
        }
        let loaded = load_bytes(&dir.join("wal.jsonl"), &bytes);
        let _ = std::fs::remove_dir_all(&dir);
        if let Ok(n) = loaded {
            prop_assert!(n <= 4 + edits.len(), "{n} generations from {edits:?}");
        }
    }

    #[test]
    fn scan_dir_quarantines_what_load_refuses(
        edits in proptest::collection::vec(mutation(), 1..4),
    ) {
        let dir = scratch_dir("scan");
        let path = dir.join("wal.jsonl");
        let mut bytes = real_wal().to_vec();
        for &m in &edits {
            apply(&mut bytes, m);
        }
        let loaded = load_bytes(&path, &bytes);
        let scan = scan_dir(&dir, |_| Ok(())).expect("the directory is readable");
        let _ = std::fs::remove_dir_all(&dir);
        match loaded {
            Ok(n) => {
                prop_assert!(scan.quarantined.is_empty(), "{:?}", scan.quarantined);
                prop_assert_eq!(scan.resumable.len(), 1);
                prop_assert_eq!(scan.resumable[0].generations, n);
            }
            Err(e) => {
                prop_assert!(scan.resumable.is_empty());
                prop_assert_eq!(scan.quarantined.len(), 1);
                prop_assert_eq!(scan.quarantined[0].path.clone(), path);
                prop_assert_eq!(scan.quarantined[0].reason.clone(), e.to_string());
            }
        }
    }
}
