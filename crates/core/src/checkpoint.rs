//! Campaign checkpointing: a JSONL write-ahead log of completed
//! generations, enabling kill-and-resume with bitwise-identical outcomes.
//!
//! ## Format
//!
//! Line 1 is a header object binding the checkpoint to its campaign spec
//! (format version, app, variant, pipeline kind with its search
//! strategy, budget, population size, seed, scale). Every following line
//! is one completed generation (scheduler window) carrying:
//!
//! * the generation number and its [`IterationRecord`],
//! * the strategy's RNG state and its serialized state after the window,
//! * the evaluated population and the best genome so far,
//! * every memo-cache entry first *charged* during the generation
//!   (report, perf, per-layer profile) — the [`tunio_tuner::EvalEngine`]
//!   journal, attributed in commit order; the first generation leads
//!   with the incumbent-default evaluation.
//!
//! Version 2 is the format every campaign writes since all of them run
//! through the strategy scheduler. A version-1 log (a bare pipeline
//! label, no strategy snapshots) cannot be replayed by it: [`load`]
//! refuses it, resuming one fails with [`CheckpointError::SpecMismatch`]
//! on `version`, and a directory scan quarantines it.
//!
//! Each generation is appended as one `\n`-terminated line and flushed
//! before the campaign proceeds, so the log never claims work that was
//! not finished. A process killed mid-write leaves a torn final line;
//! [`load`] detects and drops it, surrendering at most the one
//! generation that was being written.
//!
//! ## Resume strategy: replay, not state restoration
//!
//! The RL early stopper and the smart-configuration agent carry neural
//! state that has no serialization, so a checkpoint cannot simply be
//! "loaded". Instead, a resumed campaign re-runs from generation 1 with
//! the WAL's cache entries preloaded into the engine
//! ([`tunio_tuner::EvalEngine::preload`]). Replayed generations are then
//! served from the cache with full miss bookkeeping — identical costs,
//! counters and profile accumulator, and **no simulator time** — while
//! the per-generation RNG and strategy states stored here let the
//! resumed run prove it retraced the original trajectory before
//! extending the log. Evaluations that *failed* in the original
//! run were never journaled; the resumed run re-draws their faults
//! deterministically and fails them identically.

use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write as IoWrite};
use std::path::{Path, PathBuf};
use tunio_iosim::Profile;
use tunio_tuner::{CacheEntry, IterationRecord};

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u64 = 2;

/// Identity of the campaign a checkpoint belongs to. A resume refuses to
/// run against a checkpoint whose header disagrees with the requested
/// spec — replaying another campaign's cache would silently corrupt the
/// results.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointHeader {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u64,
    /// Application name.
    pub app: String,
    /// Workload variant (`Full` / `Kernel` / `Reduced`).
    pub variant: String,
    /// Pipeline kind label.
    pub kind: String,
    /// Generation budget.
    pub max_iterations: u32,
    /// GA population size.
    pub population: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Cluster scale flag.
    pub large_scale: bool,
}

/// One completed generation in the write-ahead log.
#[derive(Debug, Clone)]
pub struct CheckpointGeneration {
    /// Generation number (1-based, contiguous from 1).
    pub iteration: u32,
    /// Search-strategy RNG state after this generation.
    pub rng_state: [u64; 4],
    /// The generation's trace record.
    pub record: IterationRecord,
    /// Genomes of the population evaluated this generation.
    pub population: Vec<Vec<usize>>,
    /// Best genome found so far.
    pub best_genes: Vec<usize>,
    /// True when this generation ended the campaign.
    pub stopped: bool,
    /// Memo-cache entries first charged during this generation.
    pub entries: Vec<CacheEntry>,
    /// Serialized search-strategy state after this generation.
    pub strategy_state: String,
}

/// Why a checkpoint could not be used.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem-level failure.
    Io(io::Error),
    /// The file is not a checkpoint (unreadable or malformed header).
    BadHeader(String),
    /// The stored header disagrees with the campaign being resumed.
    SpecMismatch {
        /// Which header field disagreed.
        field: &'static str,
        /// The value stored in the checkpoint.
        stored: String,
        /// The value the resuming campaign expected.
        current: String,
    },
    /// A replayed generation did not retrace the recorded trajectory.
    Diverged {
        /// The generation at which replay and record disagree.
        iteration: u32,
        /// What disagreed.
        why: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadHeader(why) => write!(f, "not a usable checkpoint: {why}"),
            CheckpointError::SpecMismatch {
                field,
                stored,
                current,
            } => write!(
                f,
                "checkpoint belongs to a different campaign: {field} is {stored}, expected {current}"
            ),
            CheckpointError::Diverged { iteration, why } => write!(
                f,
                "resumed campaign diverged from checkpoint at generation {iteration}: {why}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

// ---------------------------------------------------------------------
// Value construction / extraction helpers. The WAL is built from manual
// `Value`s so the on-disk format is explicit and version-checkable, not
// an accident of derive layout.

fn uints(xs: impl IntoIterator<Item = u64>) -> Value {
    Value::Array(xs.into_iter().map(Value::UInt).collect())
}

fn genes_value(genes: &[usize]) -> Value {
    uints(genes.iter().map(|&g| g as u64))
}

fn get<'v>(v: &'v Value, key: &str, line: &str) -> Result<&'v Value, CheckpointError> {
    v.get(key)
        .ok_or_else(|| CheckpointError::BadHeader(format!("missing `{key}` in {line} line")))
}

fn get_u64(v: &Value, key: &str, line: &str) -> Result<u64, CheckpointError> {
    get(v, key, line)?
        .as_u64()
        .ok_or_else(|| CheckpointError::BadHeader(format!("`{key}` is not an integer")))
}

fn get_f64(v: &Value, key: &str, line: &str) -> Result<f64, CheckpointError> {
    get(v, key, line)?
        .as_f64()
        .ok_or_else(|| CheckpointError::BadHeader(format!("`{key}` is not a number")))
}

fn get_str<'v>(v: &'v Value, key: &str, line: &str) -> Result<&'v str, CheckpointError> {
    get(v, key, line)?
        .as_str()
        .ok_or_else(|| CheckpointError::BadHeader(format!("`{key}` is not a string")))
}

fn get_bool(v: &Value, key: &str, line: &str) -> Result<bool, CheckpointError> {
    match get(v, key, line)? {
        Value::Bool(b) => Ok(*b),
        _ => Err(CheckpointError::BadHeader(format!("`{key}` is not a bool"))),
    }
}

fn get_array<'v>(v: &'v Value, key: &str, line: &str) -> Result<&'v [Value], CheckpointError> {
    match get(v, key, line)? {
        Value::Array(items) => Ok(items),
        _ => Err(CheckpointError::BadHeader(format!(
            "`{key}` is not an array"
        ))),
    }
}

fn parse_genes(v: &Value) -> Result<Vec<usize>, CheckpointError> {
    match v {
        Value::Array(items) => items
            .iter()
            .map(|g| {
                g.as_u64()
                    .map(|g| g as usize)
                    .ok_or_else(|| CheckpointError::BadHeader("gene is not an integer".into()))
            })
            .collect(),
        _ => Err(CheckpointError::BadHeader("genome is not an array".into())),
    }
}

impl CheckpointHeader {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("version".into(), Value::UInt(self.version)),
            ("app".into(), Value::String(self.app.clone())),
            ("variant".into(), Value::String(self.variant.clone())),
            ("kind".into(), Value::String(self.kind.clone())),
            (
                "max_iterations".into(),
                Value::UInt(self.max_iterations as u64),
            ),
            ("population".into(), Value::UInt(self.population as u64)),
            ("seed".into(), Value::UInt(self.seed)),
            ("large_scale".into(), Value::Bool(self.large_scale)),
        ])
    }

    fn from_value(v: &Value) -> Result<Self, CheckpointError> {
        Ok(CheckpointHeader {
            version: get_u64(v, "version", "header")?,
            app: get_str(v, "app", "header")?.to_string(),
            variant: get_str(v, "variant", "header")?.to_string(),
            kind: get_str(v, "kind", "header")?.to_string(),
            max_iterations: get_u64(v, "max_iterations", "header")? as u32,
            population: get_u64(v, "population", "header")? as usize,
            seed: get_u64(v, "seed", "header")?,
            large_scale: get_bool(v, "large_scale", "header")?,
        })
    }

    /// Error unless `self` (stored) matches `other` (the resuming
    /// campaign) field-for-field.
    pub fn ensure_matches(&self, other: &CheckpointHeader) -> Result<(), CheckpointError> {
        let fields: [(&'static str, String, String); 8] = [
            (
                "version",
                self.version.to_string(),
                other.version.to_string(),
            ),
            ("app", self.app.clone(), other.app.clone()),
            ("variant", self.variant.clone(), other.variant.clone()),
            ("kind", self.kind.clone(), other.kind.clone()),
            (
                "max_iterations",
                self.max_iterations.to_string(),
                other.max_iterations.to_string(),
            ),
            (
                "population",
                self.population.to_string(),
                other.population.to_string(),
            ),
            ("seed", self.seed.to_string(), other.seed.to_string()),
            (
                "large_scale",
                self.large_scale.to_string(),
                other.large_scale.to_string(),
            ),
        ];
        for (field, stored, current) in fields {
            if stored != current {
                return Err(CheckpointError::SpecMismatch {
                    field,
                    stored,
                    current,
                });
            }
        }
        Ok(())
    }
}

fn record_value(r: &IterationRecord) -> Value {
    Value::Object(vec![
        ("iteration".into(), Value::UInt(r.iteration as u64)),
        ("best_perf".into(), Value::Float(r.best_perf)),
        (
            "generation_best_perf".into(),
            Value::Float(r.generation_best_perf),
        ),
        ("cost_s".into(), Value::Float(r.cost_s)),
        (
            "cumulative_cost_s".into(),
            Value::Float(r.cumulative_cost_s),
        ),
        ("subset_size".into(), Value::UInt(r.subset_size as u64)),
    ])
}

fn record_from_value(v: &Value) -> Result<IterationRecord, CheckpointError> {
    Ok(IterationRecord {
        iteration: get_u64(v, "iteration", "record")? as u32,
        best_perf: get_f64(v, "best_perf", "record")?,
        generation_best_perf: get_f64(v, "generation_best_perf", "record")?,
        cost_s: get_f64(v, "cost_s", "record")?,
        cumulative_cost_s: get_f64(v, "cumulative_cost_s", "record")?,
        subset_size: get_u64(v, "subset_size", "record")? as usize,
    })
}

fn entry_value(e: &CacheEntry) -> Result<Value, CheckpointError> {
    // Profile serializes through its canonical JSON form; floats use
    // shortest-round-trip formatting, so the replay is bitwise exact.
    let profile: Value = serde_json::from_str(&e.profile.to_json())
        .map_err(|err| CheckpointError::BadHeader(format!("profile serialization: {err:?}")))?;
    let mut fields = vec![
        ("key".into(), genes_value(&e.key)),
        ("report".into(), e.report.to_value()),
        ("perf".into(), Value::Float(e.perf)),
        ("profile".into(), profile),
    ];
    // Racing moments travel with the entry: (sample count, Welford M2),
    // with the mean already stored as `perf`. Fixed-repeat entries omit
    // both fields, keeping their WAL lines byte-identical to before
    // racing existed.
    if e.samples > 0 {
        fields.push(("samples".into(), Value::UInt(e.samples as u64)));
        fields.push(("m2".into(), Value::Float(e.m2)));
    }
    Ok(Value::Object(fields))
}

fn entry_from_value(v: &Value) -> Result<CacheEntry, CheckpointError> {
    let report = Deserialize::from_value(get(v, "report", "entry")?)
        .map_err(|e| CheckpointError::BadHeader(format!("bad report in entry: {e}")))?;
    let profile_text = serde_json::to_string(get(v, "profile", "entry")?)
        .map_err(|e| CheckpointError::BadHeader(format!("profile in entry: {e:?}")))?;
    let profile = Profile::from_json(&profile_text).map_err(CheckpointError::BadHeader)?;
    let samples = match v.get("samples") {
        None => 0,
        Some(s) => s
            .as_u64()
            .ok_or_else(|| CheckpointError::BadHeader("`samples` is not an integer".into()))?
            as u32,
    };
    let m2 = if samples > 0 {
        get_f64(v, "m2", "entry")?
    } else {
        0.0
    };
    Ok(CacheEntry {
        key: parse_genes(get(v, "key", "entry")?)?,
        report,
        perf: get_f64(v, "perf", "entry")?,
        profile,
        samples,
        m2,
    })
}

impl CheckpointGeneration {
    fn to_value(&self) -> Result<Value, CheckpointError> {
        let entries = self
            .entries
            .iter()
            .map(entry_value)
            .collect::<Result<Vec<Value>, _>>()?;
        Ok(Value::Object(vec![
            ("iteration".into(), Value::UInt(self.iteration as u64)),
            ("rng_state".into(), uints(self.rng_state)),
            ("record".into(), record_value(&self.record)),
            (
                "population".into(),
                Value::Array(self.population.iter().map(|g| genes_value(g)).collect()),
            ),
            ("best_genes".into(), genes_value(&self.best_genes)),
            ("stopped".into(), Value::Bool(self.stopped)),
            ("entries".into(), Value::Array(entries)),
            (
                "strategy_state".into(),
                Value::String(self.strategy_state.clone()),
            ),
        ]))
    }

    fn from_value(v: &Value) -> Result<Self, CheckpointError> {
        let state = get_array(v, "rng_state", "generation")?;
        if state.len() != 4 {
            return Err(CheckpointError::BadHeader(
                "rng_state must have 4 words".into(),
            ));
        }
        let mut rng_state = [0u64; 4];
        for (slot, word) in rng_state.iter_mut().zip(state) {
            *slot = word
                .as_u64()
                .ok_or_else(|| CheckpointError::BadHeader("rng word is not an integer".into()))?;
        }
        Ok(CheckpointGeneration {
            iteration: get_u64(v, "iteration", "generation")? as u32,
            rng_state,
            record: record_from_value(get(v, "record", "generation")?)?,
            population: get_array(v, "population", "generation")?
                .iter()
                .map(parse_genes)
                .collect::<Result<_, _>>()?,
            best_genes: parse_genes(get(v, "best_genes", "generation")?)?,
            stopped: get_bool(v, "stopped", "generation")?,
            entries: get_array(v, "entries", "generation")?
                .iter()
                .map(entry_from_value)
                .collect::<Result<_, _>>()?,
            strategy_state: get_str(v, "strategy_state", "generation")?.to_string(),
        })
    }
}

/// Append-only writer for the campaign WAL.
#[derive(Debug)]
pub struct CheckpointWriter {
    file: File,
}

impl CheckpointWriter {
    /// Start a fresh checkpoint: truncate `path` and write the header.
    pub fn create(path: &Path, header: &CheckpointHeader) -> Result<Self, CheckpointError> {
        let mut file = File::create(path)?;
        let line = serde_json::to_string(&header.to_value())
            .map_err(|e| CheckpointError::BadHeader(format!("{e:?}")))?;
        writeln!(file, "{line}")?;
        file.flush()?;
        Ok(CheckpointWriter { file })
    }

    /// Reopen an existing checkpoint for appending (after a resume has
    /// verified the stored prefix).
    pub fn append(path: &Path) -> Result<Self, CheckpointError> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(CheckpointWriter { file })
    }

    /// Rewrite a checkpoint to exactly `header` + `generations` and keep
    /// it open for appending. This is how a resume heals a WAL whose
    /// tail is a torn line: appending directly after a line with no
    /// trailing newline would merge the next generation into the
    /// garbage. The rewrite goes through a temp file renamed over the
    /// original, so a crash mid-heal loses nothing.
    pub fn rewrite(
        path: &Path,
        header: &CheckpointHeader,
        generations: &[CheckpointGeneration],
    ) -> Result<Self, CheckpointError> {
        let tmp = path.with_extension("jsonl.tmp");
        let mut writer = Self::create(&tmp, header)?;
        for g in generations {
            writer.write_generation(g)?;
        }
        std::fs::rename(&tmp, path)?;
        // The open handle follows the rename (same inode), so subsequent
        // appends land in the healed file.
        Ok(writer)
    }

    /// Append one completed generation and flush it to the OS before
    /// returning, so the campaign never outruns its log.
    pub fn write_generation(
        &mut self,
        generation: &CheckpointGeneration,
    ) -> Result<(), CheckpointError> {
        let line = serde_json::to_string(&generation.to_value()?)
            .map_err(|e| CheckpointError::BadHeader(format!("{e:?}")))?;
        writeln!(self.file, "{line}")?;
        self.file.flush()?;
        Ok(())
    }
}

/// Parse the header line of a checkpoint, whatever its format version.
fn parse_header(
    lines: &mut impl Iterator<Item = io::Result<String>>,
) -> Result<CheckpointHeader, CheckpointError> {
    let header_line = match lines.next() {
        None => return Err(CheckpointError::BadHeader("empty file".into())),
        // `lines` reports a line that is not UTF-8 as invalid data: the
        // file is corrupt, the disk is not at fault.
        Some(Err(e)) if e.kind() == io::ErrorKind::InvalidData => {
            return Err(CheckpointError::BadHeader(format!("header: {e}")))
        }
        Some(line) => line?,
    };
    let header_value: Value = serde_json::from_str(&header_line)
        .map_err(|e| CheckpointError::BadHeader(format!("unparseable header: {e:?}")))?;
    CheckpointHeader::from_value(&header_value)
}

/// Read only a checkpoint's header. Unlike [`load`] it accepts any
/// format version, so a resume can report a foreign version against
/// the campaign it expected ([`CheckpointHeader::ensure_matches`] names
/// the `version` field).
pub(crate) fn read_header(path: &Path) -> Result<CheckpointHeader, CheckpointError> {
    parse_header(&mut BufReader::new(File::open(path)?).lines())
}

/// Load a checkpoint: the header plus every intact generation line.
///
/// The last line is allowed to be torn (the process died mid-write); it
/// and anything after a gap in the iteration sequence are dropped, never
/// trusted. An unreadable *header* is an error — that file is not a
/// checkpoint, and so is one from another format version.
pub fn load(path: &Path) -> Result<(CheckpointHeader, Vec<CheckpointGeneration>), CheckpointError> {
    let reader = BufReader::new(File::open(path)?);
    let mut lines = reader.lines();
    let header = parse_header(&mut lines)?;
    if header.version != CHECKPOINT_VERSION {
        return Err(CheckpointError::BadHeader(format!(
            "version {} (this build reads {})",
            header.version, CHECKPOINT_VERSION
        )));
    }

    let mut generations: Vec<CheckpointGeneration> = Vec::new();
    for line in lines {
        // A torn or otherwise damaged line (unparseable, or not UTF-8)
        // ends the trusted prefix: every generation after it was logged
        // later and cannot be validated.
        let line = match line {
            Ok(line) => line,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => break,
            Err(e) => return Err(e.into()),
        };
        let Ok(value) = serde_json::from_str::<Value>(&line) else {
            break;
        };
        let Ok(generation) = CheckpointGeneration::from_value(&value) else {
            break;
        };
        if generation.iteration != generations.len() as u32 + 1 {
            break;
        }
        generations.push(generation);
    }
    Ok((header, generations))
}

/// One WAL in a scanned directory that this process can resume.
#[derive(Debug)]
pub struct ScannedWal {
    /// Path of the `.jsonl` file.
    pub path: PathBuf,
    /// Its validated header.
    pub header: CheckpointHeader,
    /// Intact generations in the trusted prefix (a torn tail has
    /// already been dropped by [`load`]).
    pub generations: usize,
    /// Whether the last trusted generation ended the campaign.
    pub finished: bool,
}

/// One WAL that must not be resumed, and why.
#[derive(Debug)]
pub struct QuarantinedWal {
    /// Path of the offending file.
    pub path: PathBuf,
    /// Human-readable reason (unreadable, corrupt header, a campaign
    /// this build cannot host, ...).
    pub reason: String,
}

/// Result of [`scan_dir`]: the partition of a WAL directory into
/// checkpoints a restarted service resumes and checkpoints it must set
/// aside.
#[derive(Debug, Default)]
pub struct WalScan {
    /// Resumable checkpoints, sorted by file name.
    pub resumable: Vec<ScannedWal>,
    /// Everything else, sorted by file name, each with its reason.
    pub quarantined: Vec<QuarantinedWal>,
}

/// Scan a directory of campaign WALs, partitioning them into resumable
/// and quarantined. Startup recovery must never refuse to boot over one
/// bad file: a corrupt header, an unreadable file, or a checkpoint
/// written by a campaign this build cannot host (`validate` errs — e.g.
/// an unknown strategy label) quarantines that WAL and the scan moves
/// on. Only `.jsonl` files are considered; a torn *tail* is not grounds
/// for quarantine (it heals on resume, [`CheckpointWriter::rewrite`]).
///
/// `validate` receives each parsed header and errs with a reason when
/// the campaign it names cannot run here.
pub fn scan_dir(
    dir: &Path,
    validate: impl Fn(&CheckpointHeader) -> Result<(), String>,
) -> io::Result<WalScan> {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
        .collect();
    names.sort();
    let mut scan = WalScan::default();
    for path in names {
        match load(&path) {
            Ok((header, generations)) => match validate(&header) {
                Ok(()) => scan.resumable.push(ScannedWal {
                    path,
                    finished: generations.last().is_some_and(|g| g.stopped),
                    generations: generations.len(),
                    header,
                }),
                Err(reason) => scan.quarantined.push(QuarantinedWal { path, reason }),
            },
            Err(e) => scan.quarantined.push(QuarantinedWal {
                path,
                reason: e.to_string(),
            }),
        }
    }
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tunio_iosim::RunReport;

    fn header() -> CheckpointHeader {
        CheckpointHeader {
            version: CHECKPOINT_VERSION,
            app: "hacc".into(),
            variant: "Kernel".into(),
            kind: "TunIO [strategy=ga]".into(),
            max_iterations: 10,
            population: 6,
            seed: 42,
            large_scale: false,
        }
    }

    fn generation(iteration: u32) -> CheckpointGeneration {
        let mut profile = Profile::new();
        profile.add(tunio_iosim::Layer::LustreData, 0.125, 1e9, 3.0);
        CheckpointGeneration {
            iteration,
            rng_state: [u64::MAX, 1, 2, 0xDEAD_BEEF_0BAD_F00D],
            record: IterationRecord {
                iteration,
                best_perf: 1.25e9 + 0.1,
                generation_best_perf: 1.1e9,
                cost_s: 12.625,
                cumulative_cost_s: 12.625 * iteration as f64,
                subset_size: 12,
            },
            population: vec![vec![0; 12], vec![1, 0, 3, 0, 0, 2, 0, 0, 1, 0, 0, 5]],
            best_genes: vec![1, 0, 3, 0, 0, 2, 0, 0, 1, 0, 0, 5],
            stopped: iteration == 3,
            entries: vec![CacheEntry {
                key: vec![1, 0, 3, 0, 0, 2, 0, 0, 1, 0, 0, 5],
                report: RunReport {
                    elapsed_s: 12.625,
                    io_time_s: 10.0,
                    bytes_written: 50e9,
                    write_ops: 128.0,
                    ..RunReport::default()
                },
                perf: 1.1e9,
                profile,
                // Odd generations carry racing moments, even ones are
                // fixed-repeat entries (samples/m2 omitted on disk).
                samples: if iteration % 2 == 1 { 5 } else { 0 },
                m2: if iteration % 2 == 1 { 3.25e16 } else { 0.0 },
            }],
            strategy_state: format!("{{\"rng\":[1,2,3,{iteration}]}}"),
        }
    }

    #[test]
    fn round_trips_bitwise() {
        let dir = std::env::temp_dir().join("tunio-ckpt-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.jsonl");
        let mut w = CheckpointWriter::create(&path, &header()).unwrap();
        for i in 1..=3 {
            w.write_generation(&generation(i)).unwrap();
        }
        drop(w);

        let (h, gens) = load(&path).unwrap();
        assert_eq!(h, header());
        assert_eq!(gens.len(), 3);
        for (i, g) in gens.iter().enumerate() {
            let want = generation(i as u32 + 1);
            assert_eq!(g.rng_state, want.rng_state);
            assert_eq!(g.record.best_perf, want.record.best_perf);
            assert_eq!(g.record.cost_s, want.record.cost_s);
            assert_eq!(g.population, want.population);
            assert_eq!(g.best_genes, want.best_genes);
            assert_eq!(g.stopped, want.stopped);
            assert_eq!(g.entries.len(), 1);
            assert_eq!(g.entries[0].key, want.entries[0].key);
            assert_eq!(g.entries[0].report, want.entries[0].report);
            assert_eq!(g.entries[0].perf, want.entries[0].perf);
            assert_eq!(g.entries[0].profile, want.entries[0].profile);
            assert_eq!(
                (g.entries[0].samples, g.entries[0].m2),
                (want.entries[0].samples, want.entries[0].m2),
                "racing moments must round-trip (and read 0 when omitted)"
            );
            assert_eq!(
                g.strategy_state, want.strategy_state,
                "strategy state must round-trip"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn racing_free_entries_omit_the_moment_fields() {
        // Byte-compat: a fixed-repeat entry's WAL line must not mention
        // the racing fields at all — old logs and new logs of racing-free
        // campaigns are byte-identical.
        let plain = entry_value(&generation(2).entries[0]).unwrap();
        let line = serde_json::to_string(&plain).unwrap();
        assert!(!line.contains("samples"), "{line}");
        assert!(!line.contains("\"m2\""), "{line}");
        let raced = entry_value(&generation(1).entries[0]).unwrap();
        let line = serde_json::to_string(&raced).unwrap();
        assert!(line.contains("\"samples\":5"), "{line}");
        assert!(line.contains("\"m2\""), "{line}");
    }

    #[test]
    fn torn_final_line_is_dropped() {
        let dir = std::env::temp_dir().join("tunio-ckpt-torn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.jsonl");
        let mut w = CheckpointWriter::create(&path, &header()).unwrap();
        w.write_generation(&generation(1)).unwrap();
        w.write_generation(&generation(2)).unwrap();
        drop(w);
        // Simulate a process killed mid-append.
        let mut raw = std::fs::read_to_string(&path).unwrap();
        raw.push_str("{\"iteration\":3,\"rng_state\":[1,2");
        std::fs::write(&path, raw).unwrap();

        let (_, gens) = load(&path).unwrap();
        assert_eq!(gens.len(), 2, "the torn line must not be trusted");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_utf8_line_ends_the_trusted_prefix() {
        let dir = std::env::temp_dir().join("tunio-ckpt-non-utf8");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.jsonl");
        let mut w = CheckpointWriter::create(&path, &header()).unwrap();
        for i in 1..=3 {
            w.write_generation(&generation(i)).unwrap();
        }
        drop(w);
        // Corrupt one byte of generation 2's line; it used to fail the
        // whole load with an I/O error, so a scan quarantined the WAL.
        let mut raw = std::fs::read(&path).unwrap();
        let line_starts: Vec<usize> = std::iter::once(0)
            .chain(
                raw.iter()
                    .enumerate()
                    .filter(|(_, &b)| b == b'\n')
                    .map(|(i, _)| i + 1),
            )
            .collect();
        raw[line_starts[2] + 1] = 0xFF;
        std::fs::write(&path, raw).unwrap();

        let (_, gens) = load(&path).unwrap();
        assert_eq!(
            gens.len(),
            1,
            "lines from the damaged one on are not trusted"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_utf8_header_is_a_bad_header_and_quarantined_as_one() {
        let dir = std::env::temp_dir().join("tunio-ckpt-non-utf8-header");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.jsonl");
        let mut w = CheckpointWriter::create(&path, &header()).unwrap();
        w.write_generation(&generation(1)).unwrap();
        drop(w);
        let mut raw = std::fs::read(&path).unwrap();
        raw[1] = 0xFF;
        std::fs::write(&path, raw).unwrap();

        let loaded = load(&path);
        assert!(
            matches!(loaded, Err(CheckpointError::BadHeader(_))),
            "{loaded:?}"
        );
        assert!(matches!(
            read_header(&path),
            Err(CheckpointError::BadHeader(_))
        ));
        let scan = scan_dir(&dir, |_| Ok(())).unwrap();
        assert!(scan.resumable.is_empty());
        assert_eq!(scan.quarantined.len(), 1);
        let reason = &scan.quarantined[0].reason;
        assert!(reason.contains("not a usable checkpoint"), "{reason}");
        assert!(!reason.contains("I/O"), "{reason}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn iteration_gap_ends_the_trusted_prefix() {
        let dir = std::env::temp_dir().join("tunio-ckpt-gap");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.jsonl");
        let mut w = CheckpointWriter::create(&path, &header()).unwrap();
        w.write_generation(&generation(1)).unwrap();
        w.write_generation(&generation(3)).unwrap(); // gap: no gen 2
        drop(w);
        let (_, gens) = load(&path).unwrap();
        assert_eq!(gens.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_mismatch_is_detected() {
        let stored = header();
        let mut other = header();
        other.seed = 43;
        let err = stored.ensure_matches(&other).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::SpecMismatch { field: "seed", .. }
        ));
        assert!(stored.ensure_matches(&header()).is_ok());
    }

    /// ISSUE 8 satellite: startup recovery over a directory holding one
    /// good WAL, one with a torn tail, one corrupt beyond the header,
    /// and one from a strategy this "build" refuses — the scan must
    /// partition instead of refusing to boot.
    #[test]
    fn scan_dir_partitions_resumable_vs_quarantined() {
        let dir = std::env::temp_dir().join("tunio-ckpt-scan");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();

        // Good: header + 2 intact generations.
        let mut w = CheckpointWriter::create(&dir.join("a-good.jsonl"), &header()).unwrap();
        w.write_generation(&generation(1)).unwrap();
        w.write_generation(&generation(2)).unwrap();
        drop(w);

        // Torn tail: still resumable (heals on resume), one trusted gen.
        let torn = dir.join("b-torn.jsonl");
        let mut w = CheckpointWriter::create(&torn, &header()).unwrap();
        w.write_generation(&generation(1)).unwrap();
        drop(w);
        let mut raw = std::fs::read_to_string(&torn).unwrap();
        raw.push_str("{\"iteration\":2,\"rng_state\":[9,9");
        std::fs::write(&torn, raw).unwrap();

        // Corrupt: not a checkpoint at all.
        std::fs::write(dir.join("c-garbage.jsonl"), "not json at all\n").unwrap();

        // Wrong strategy: valid file, campaign this host rejects.
        let mut alien = header();
        alien.kind = "TunIO [strategy=alien]".into();
        drop(CheckpointWriter::create(&dir.join("d-alien.jsonl"), &alien).unwrap());

        // A non-jsonl bystander must be ignored entirely.
        std::fs::write(dir.join("notes.txt"), "hello\n").unwrap();

        let scan = scan_dir(&dir, |h| {
            if h.kind.contains("strategy=alien") {
                Err("unknown strategy `alien`".into())
            } else {
                Ok(())
            }
        })
        .unwrap();

        assert_eq!(scan.resumable.len(), 2, "{scan:?}");
        assert!(scan.resumable[0].path.ends_with("a-good.jsonl"));
        assert_eq!(scan.resumable[0].generations, 2);
        assert!(scan.resumable[1].path.ends_with("b-torn.jsonl"));
        assert_eq!(
            scan.resumable[1].generations, 1,
            "the torn tail is dropped, not quarantined"
        );
        assert_eq!(scan.quarantined.len(), 2, "{scan:?}");
        assert!(scan.quarantined[0].path.ends_with("c-garbage.jsonl"));
        assert!(scan.quarantined[0]
            .reason
            .contains("not a usable checkpoint"));
        assert!(scan.quarantined[1].path.ends_with("d-alien.jsonl"));
        assert!(scan.quarantined[1].reason.contains("alien"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_checkpoint_file_is_rejected() {
        let dir = std::env::temp_dir().join("tunio-ckpt-notckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("not_a_checkpoint.txt");
        std::fs::write(&path, "hello world\n").unwrap();
        assert!(matches!(load(&path), Err(CheckpointError::BadHeader(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_version_fails_load_but_its_header_still_reads() {
        let dir = std::env::temp_dir().join("tunio-ckpt-version");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v1.jsonl");
        let mut v1 = header();
        v1.version = 1;
        drop(CheckpointWriter::create(&path, &v1).unwrap());
        assert!(matches!(load(&path), Err(CheckpointError::BadHeader(_))));
        assert_eq!(read_header(&path).unwrap().version, 1);
        std::fs::remove_file(&path).ok();
    }
}
