//! # tunio-iosim — a simulated multi-layer HPC I/O stack
//!
//! The TunIO paper evaluates on NERSC Cori: Haswell compute nodes, an
//! MPI-IO middleware layer, the HDF5 library, and a ~700 GB/s Lustre scratch
//! file system. None of that is available here, so this crate implements the
//! closest synthetic equivalent: an analytical performance model of the same
//! three-layer stack, exposing exactly the twelve tunable parameters the
//! paper sweeps ([`tunio_params::StackConfig`]) and responding to them with
//! the same qualitative interactions the paper describes:
//!
//! * Lustre striping (`striping_factor`, `striping_unit`) spreads a file over
//!   object storage targets; too few stripes serialize on one OST, while
//!   writer/OST contention erodes efficiency.
//! * MPI-IO collective buffering (`collective_io`, `cb_nodes`,
//!   `cb_buffer_size`) trades a network shuffle for fewer, larger,
//!   better-formed file-system requests.
//! * HDF5 chunk caching, alignment and sieve buffering reshape the request
//!   stream before it reaches the middleware; metadata parameters
//!   (`meta_block_size`, `coll_meta_ops`, `mdc_config`,
//!   `coll_metadata_write`) scale the (small) metadata fraction of runtime.
//!
//! A [`Simulator`] executes a workload — a sequence of [`Phase`]s of compute
//! and I/O — under a configuration and returns a [`RunReport`] with bytes
//! moved, operation counts and the simulated elapsed time, from which the
//! paper's `perf = (1-α)·BW_r + α·BW_w` objective is computed. A seeded
//! deterministic noise model emulates platform volatility, and runs are
//! repeatable: the same (workload, config, seed) always produces the same
//! report.

#![warn(missing_docs)]

pub mod burst;
pub mod cluster;
pub mod fault;
pub mod hdf5;
pub mod interference;
pub mod lustre;
pub mod mpiio;
pub mod noise;
pub mod profile;
pub mod report;
pub mod request;
pub mod sim;

pub use burst::BurstBufferSpec;
pub use cluster::ClusterSpec;
pub use fault::{FaultKind, FaultPlan, InjectedFault, SimFault};
pub use interference::{InterferenceModel, NoiseProfile};
pub use lustre::LustreSpec;
pub use profile::{compare_profiles, render_diff, Layer, LayerDelta, LayerStat, Profile, TreeRow};
pub use report::RunReport;
pub use request::{AccessPattern, IoKind, IoPhase, Phase};
pub use sim::Simulator;
