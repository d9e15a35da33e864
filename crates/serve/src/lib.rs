//! # tunio-serve — the multi-tenant tuning daemon
//!
//! A long-running service that accepts tuning-campaign submissions over
//! a small JSON/HTTP API and runs them on a shared worker pool:
//!
//! * `POST /campaigns` — submit (202 with the campaign id; 429 over the
//!   tenant quota; 503 while draining or when the queue is full).
//! * `GET /campaigns[?tenant=t]` — list statuses.
//! * `GET /campaigns/{id}` — one status.
//! * `GET /campaigns/{id}/events?from=N` — progress as JSONL events
//!   (lifecycle + one `generation` event per completed WAL generation).
//! * `GET /campaigns/{id}/timeline` — exclusive wall-clock segments and
//!   the critical path of the campaign's span DAG: live while running,
//!   frozen at completion.
//! * `GET /healthz`, `GET /metrics` — liveness and Prometheus text.
//! * `POST /drain` — graceful shutdown: finish everything, accept
//!   nothing new.
//!
//! The daemon exists because the rest of the workspace made it safe: a
//! campaign is a fallible unit of work
//! ([`tunio::pipeline::CampaignError`]), evaluator panics are isolated
//! to the campaign that caused them, and every campaign WALs its
//! progress so a killed daemon resumes all in-flight work at boot —
//! bitwise-identically. See [`daemon`] for the tenancy model.

#![warn(missing_docs)]

pub mod daemon;

pub use daemon::{CampaignRecord, CampaignRequest, CampaignState, Daemon, ServeConfig};
