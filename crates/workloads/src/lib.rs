//! # tunio-workloads — application I/O kernels
//!
//! Synthetic reconstructions of the applications the paper tunes: HACC,
//! VPIC and FLASH (offline-training and component-evaluation kernels),
//! MACSio configured with the VPIC-dipole compute-to-I/O ratio (Fig 8), and
//! BD-CATS (the 500-node end-to-end analysis, Figs 11–12).
//!
//! Each application is described by an [`AppSpec`] — a setup phase plus a
//! main loop of compute and I/O with optional logging writes — from which
//! three executable [`Variant`]s are derived:
//!
//! * [`Variant::Full`] — the original application: compute + I/O + logging.
//! * [`Variant::Kernel`] — what TunIO's Application I/O Discovery extracts:
//!   I/O and the statements it depends on; compute and trivial logging
//!   writes are gone.
//! * [`Variant::ReducedKernel`] — the kernel after loop reduction: only a
//!   fraction of loop iterations run, with observed metrics extrapolated
//!   back by the reduction factor.

#![warn(missing_docs)]

pub mod apps;
pub mod features;
pub mod spec;

pub use apps::{all_apps, app_by_name, bdcats, flash, hacc, macsio_vpic_dipole, vpic};
pub use features::WorkloadFeatures;
pub use spec::{AppSpec, IterationIo, Variant, Workload};
