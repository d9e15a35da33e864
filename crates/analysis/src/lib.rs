//! # tunio-analysis — dataflow analysis for I/O Discovery
//!
//! The paper's Application I/O Discovery is a static source analysis; the
//! seed implementation approximated it with per-statement *string facts*
//! (variable-name reads/writes) and a syntactic backward sweep. That
//! cannot handle shadowing (two variables with the same name conflate),
//! over-keeps dead stores, and gives no soundness story for the kernel it
//! emits. This crate is the real foundation:
//!
//! * [`resolve`] — scoped name resolution: every variable use binds to a
//!   unique [`resolve::VarId`], so shadowed and same-named variables in
//!   different functions stay distinct.
//! * [`cfg`](mod@cfg) — a control-flow graph per function with basic blocks,
//!   handling `if`/`for`/`while`/`do-while`/`break`/`continue`/`return`.
//! * [`dataflow`] — a generic worklist fixpoint engine with
//!   reaching-definitions and liveness instances.
//! * [`slice`](mod@slice) — a precise interprocedural backward slicer seeded from
//!   I/O calls; `tunio-discovery` uses it as the default marking.
//! * [`lint`] — diagnostics on top of the same analyses (dead-store,
//!   unreachable-code, possibly-uninitialized-read, I/O-inside-hot-loop,
//!   plus pattern-aware I/O lints), rendered with source spans via the
//!   `tunio-lint` binary.
//! * [`domain`] / [`interp`] / [`iomodel`] — an abstract-interpretation
//!   layer: an interval+stride numeric domain with symbolic linear forms,
//!   a CFG fixpoint interpreter with widening at loop heads, and a static
//!   I/O workload model that classifies every I/O call site and predicts
//!   request sizes and transfer volume as functions of the app's size
//!   parameters.

#![warn(missing_docs)]

pub mod cfg;
pub mod dataflow;
pub mod domain;
pub mod interp;
pub mod iomodel;
pub mod lint;
pub mod resolve;
pub mod slice;

pub use cfg::{build_cfg, BlockId, Cfg};
pub use dataflow::{solve, Analysis, Liveness, ReachingDefs, Solution};
pub use domain::{AbsVal, Bound, Congruence, LinExpr};
pub use interp::{interpret_function, FnAbsState};
pub use iomodel::{predict_program, Direction, IoPrediction, PredPattern, SitePrediction};
pub use lint::{lint_program, Diagnostic, LintKind, LintOptions, Severity};
pub use resolve::{resolve_function, resolve_program, FnResolution, VarId, VarKind};
pub use slice::{default_io_predicate, io_function_closure, slice_program, SliceResult};
