//! Workload representation: phases of compute and I/O.
//!
//! Workloads describe their behaviour *per process* in aggregate terms
//! (bytes and operation counts), which keeps simulation cost independent of
//! data volume — essential for the 500-node, multi-TB BD-CATS runs.

use serde::{Deserialize, Serialize};

/// Direction of an I/O phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IoKind {
    /// Data flows from processes to storage.
    Write,
    /// Data flows from storage to processes.
    Read,
}

/// Spatial pattern of the accesses issued by each process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AccessPattern {
    /// Each process accesses one contiguous file region.
    Contiguous,
    /// Processes interleave fixed-size records (classic N-proc strided
    /// checkpoint layout); `record` is the record size in bytes.
    Strided {
        /// Size of each interleaved record in bytes.
        record: u64,
    },
    /// Accesses land at effectively random offsets (index lookups etc.).
    Random,
}

impl AccessPattern {
    /// How "irregular" the pattern is for the file system, in `[0, 1]`:
    /// 0 = perfectly contiguous, 1 = fully random.
    pub fn irregularity(&self) -> f64 {
        match self {
            AccessPattern::Contiguous => 0.0,
            AccessPattern::Strided { record } => {
                // Finer interleaving is harder on the PFS: 16 MiB records
                // behave almost contiguously, 4 KiB records almost randomly.
                let r = (*record).max(1) as f64;
                (1.0 - (r.log2() - 12.0) / 12.0).clamp(0.05, 0.95)
            }
            AccessPattern::Random => 1.0,
        }
    }
}

/// One bulk-I/O phase, described per process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IoPhase {
    /// Name of the dataset/file being accessed (for reports).
    pub dataset: String,
    /// Read or write.
    pub kind: IoKind,
    /// Bytes transferred by *each* process in this phase.
    pub per_proc_bytes: u64,
    /// Number of library-level I/O calls each process issues.
    pub ops_per_proc: u64,
    /// Spatial access pattern.
    pub pattern: AccessPattern,
    /// HDF5-level metadata operations accompanying this phase
    /// (dataset create/open/close, attribute writes), per process.
    pub meta_ops: u64,
    /// Whether the phase is a collective access that the middleware may
    /// aggregate (independent POSIX-style streams cannot be).
    pub collective_capable: bool,
    /// Working-set of chunked data each process re-touches, in bytes; the
    /// chunk cache absorbs re-accesses when it is at least this large.
    /// Zero for purely streaming phases.
    pub chunk_reuse_bytes: u64,
    /// For reads of pre-existing datasets: the stripe count the input was
    /// written with. Read parallelism is at least this wide regardless of
    /// the tunable striping, which only governs files the job creates.
    pub pre_striped: u32,
}

/// One step of a workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Phase {
    /// Pure computation (or communication) lasting `seconds` of simulated
    /// time; no storage traffic.
    Compute {
        /// Duration in simulated seconds.
        seconds: f64,
    },
    /// Bulk I/O.
    Io(IoPhase),
}

impl Phase {
    /// Convenience constructor for a compute phase.
    pub fn compute(seconds: f64) -> Phase {
        Phase::Compute { seconds }
    }

    /// Whether this is an I/O phase.
    pub fn is_io(&self) -> bool {
        matches!(self, Phase::Io(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn irregularity_ordering() {
        let contig = AccessPattern::Contiguous.irregularity();
        let coarse = AccessPattern::Strided {
            record: 16 * 1024 * 1024,
        }
        .irregularity();
        let fine = AccessPattern::Strided { record: 4 * 1024 }.irregularity();
        let random = AccessPattern::Random.irregularity();
        assert!(contig < coarse);
        assert!(coarse < fine);
        assert!(fine <= random);
    }

    #[test]
    fn phase_helpers() {
        assert!(!Phase::compute(1.0).is_io());
    }
}
