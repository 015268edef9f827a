//! Top-level experiment API for the GGS reproduction of *Specializing
//! Coherence, Consistency, and Push/Pull for GPU Graph Analytics*
//! (ISPASS 2020).
//!
//! This crate composes the substrates — [`ggs_graph`] inputs,
//! [`ggs_apps`] kernels, the [`ggs_sim`] simulator, and the
//! [`ggs_model`] taxonomy/decision tree — into the paper's experiments:
//!
//! * [`experiment::run_workload_budgeted`] — one (application, graph,
//!   system configuration) point: generates the kernel sequence and
//!   simulates it end to end under the spec's budget, returning the
//!   execution-time breakdown. Its siblings in [`experiment`] replay a
//!   pre-built stream or add per-array attribution; all of them share
//!   one run driver.
//! * [`sweep::WorkloadSweep`] — one workload across a set of
//!   configurations (the bars of one Figure 5 group), with
//!   normalization against the paper's baselines and best-config
//!   selection.
//! * [`runner::run_study`] — the full 36-workload × configurations
//!   study behind Figures 5–6 and the Table V accuracy evaluation
//!   ([`study::Study`]), fault-isolated and parallel.
//! * [`adaptive::run_adaptive_budgeted`] — the paper's §VIII outlook:
//!   per-kernel hardware reconfiguration driven by runtime metrics on
//!   flexible (Spandex-style) hardware.
//!
//! # Example
//!
//! ```
//! use ggs_core::experiment::{run_workload_budgeted, ExperimentSpec};
//! use ggs_core::{GgsError, Tracer};
//! use ggs_apps::AppKind;
//! use ggs_graph::GraphBuilder;
//!
//! let graph = GraphBuilder::new(512)
//!     .edges((0..511).map(|i| (i, i + 1)))
//!     .symmetric(true)
//!     .try_build()?;
//! let spec = ExperimentSpec::try_at_scale(1.0)?;
//! let config = "SGR".parse()?;
//! let stats = run_workload_budgeted(AppKind::Pr, &graph, config, &spec, Tracer::off(), None)?;
//! assert!(stats.total_cycles() > 0);
//! # Ok::<(), GgsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adaptive;
pub mod error;
pub mod experiment;
pub mod json;
pub mod runner;
pub mod store;
pub mod study;
pub mod sweep;
pub mod trace_cache;

pub use error::GgsError;
pub use experiment::{
    produce_trace_stream, run_stream_budgeted, run_workload_budgeted, run_workload_profiled,
    ExperimentSpec, ExperimentSpecBuilder,
};
pub use ggs_trace::{MetricsRegistry, Tracer};
pub use runner::{
    run_study, CellFailure, CellReport, CellStatus, Fault, FaultPlan, RetryPolicy, StudyOptions,
    StudyOutcome,
};
pub use store::{
    Claim, CompactReport, RecordCounts, Store, StoreFaults, StoreLoadReport, StoreSnapshot,
};
pub use study::{Study, WorkloadReport};
pub use sweep::WorkloadSweep;
pub use trace_cache::{graph_fingerprint, StreamKey, TraceCache, TraceCacheStats, TraceStream};
