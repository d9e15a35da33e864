//! # tunio — an AI-powered framework for optimizing HPC I/O
//!
//! A from-scratch Rust reproduction of *TunIO* (Rajesh et al., IPDPS
//! 2024): a set of three optimizations that attach to any iterative I/O
//! tuning pipeline to balance tuning cost against performance gain.
//!
//! * **Application I/O Discovery** (re-exported from [`tunio_discovery`])
//!   reduces an application to its I/O kernel so objective evaluations are
//!   cheap (§III-B).
//! * **Smart Configuration Generation** ([`smart_config`]) — an RL agent
//!   (contextual-bandit state observer + NN Q-learning subset picker,
//!   pre-trained offline with parameter sweeps + PCA) that selects the
//!   high-impact parameter subset to tune each generation (§III-C).
//! * **Early Stopping** ([`early_stop`]) — an RL agent pre-trained on
//!   synthetic log-shaped tuning curves that stops the pipeline when
//!   returns diminish (§III-D).
//!
//! [`api::TunIo`] exposes the paper's Table I interface (`stop`,
//! `discover_io`, `subset_picker`); [`pipeline`] assembles the end-to-end
//! tuning campaigns evaluated in §IV; [`roti`] implements the Return on
//! Tuning Investment metric; [`viability`] the production-lifecycle model
//! of Fig 12.
//!
//! ## Quickstart
//!
//! ```
//! use tunio::pipeline::{run_campaign, CampaignSpec, PipelineKind};
//! use tunio_workloads::{hacc, Variant};
//!
//! let spec = CampaignSpec {
//!     app: hacc(),
//!     variant: Variant::Kernel,
//!     kind: PipelineKind::TunIo,
//!     max_iterations: 10,
//!     population: 6,
//!     seed: 7,
//!     large_scale: false,
//! };
//! let outcome = run_campaign(&spec).expect("fault-free campaign");
//! assert!(outcome.trace.best_perf >= outcome.trace.default_perf);
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod checkpoint;
pub mod early_stop;
pub mod perf;
pub mod pipeline;
pub mod pretrain;
pub mod roti;
pub mod session;
pub mod smart_config;
pub mod viability;

pub use api::TunIo;
pub use early_stop::EarlyStopAgent;
pub use pretrain::PretrainCache;
pub use roti::{roti_curve, RotiPoint};
pub use session::TuningSession;
pub use smart_config::SmartConfigAgent;

// Re-export the component crates under one roof for downstream users.
pub use tunio_discovery as discovery;
pub use tunio_iosim as iosim;
pub use tunio_params as params;
pub use tunio_tuner as tuner;
pub use tunio_workloads as workloads;
