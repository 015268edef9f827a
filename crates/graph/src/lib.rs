//! Graph substrate for the GGS reproduction of *Specializing Coherence,
//! Consistency, and Push/Pull for GPU Graph Analytics* (ISPASS 2020).
//!
//! This crate provides the compressed-sparse-row ([`Csr`]) graph
//! representation consumed by the simulator and applications, a
//! [`builder::GraphBuilder`] for assembling graphs from edge lists, basic
//! degree statistics, Matrix Market I/O (the format the paper's SuiteSparse
//! inputs ship in), and — because the original SuiteSparse inputs are not
//! redistributable here — six synthetic generators ([`synth`]) that
//! reproduce the structural profile of each input in the paper's Table II
//! (AMZ, DCT, EML, OLS, RAJ, WNG).
//!
//! # Example
//!
//! ```
//! use ggs_graph::{GraphBuilder, synth::{GraphPreset, SynthConfig}};
//!
//! // Build a tiny graph by hand…
//! let g = GraphBuilder::new(4)
//!     .edge(0, 1)
//!     .edge(1, 2)
//!     .edge(2, 3)
//!     .symmetric(true)
//!     .try_build()?;
//! assert_eq!(g.num_edges(), 6); // symmetrized
//!
//! // …or generate a scaled-down synthetic stand-in for one of the paper's
//! // inputs.
//! let amz = SynthConfig::preset(GraphPreset::Amz).scale(0.01).generate();
//! assert!(amz.num_vertices() > 1000);
//! # Ok::<(), ggs_graph::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod builder;
pub mod csr;
pub mod mtx;
pub mod stats;
pub mod synth;

pub use builder::{GraphBuilder, GraphError};
pub use csr::{Csr, VertexId};
pub use stats::DegreeStats;
