//! Edge-list accumulation and normalization into [`Csr`] graphs.

use crate::csr::{Csr, VertexId};

/// Error produced when a [`GraphBuilder`] cannot build a valid graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge references a vertex `>= num_vertices`.
    EndpointOutOfRange {
        /// The offending edge.
        edge: (VertexId, VertexId),
        /// Number of vertices the builder was created with.
        num_vertices: u32,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            GraphError::EndpointOutOfRange {
                edge: (s, t),
                num_vertices,
            } => write!(
                f,
                "edge endpoint out of range: ({s}, {t}) in a graph of {num_vertices} vertices"
            ),
        }
    }
}

impl std::error::Error for GraphError {}

/// Incremental builder that normalizes an edge list into a [`Csr`] graph.
///
/// The paper's methodology (§V-A) prepares every input the same way:
/// *"each graph has been slightly modified to remove self-edges, and has
/// been converted to a directed, symmetric graph"*. The builder performs
/// exactly those steps: duplicate edges are always removed, self-loops are
/// removed by default, and [`GraphBuilder::symmetric`] adds the reverse of
/// every edge.
///
/// # Example
///
/// ```
/// use ggs_graph::GraphBuilder;
///
/// let g = GraphBuilder::new(3)
///     .edge(0, 1)
///     .edge(1, 1) // self-loop: dropped
///     .edge(0, 1) // duplicate: dropped
///     .symmetric(true)
///     .try_build()?;
/// assert_eq!(g.num_edges(), 2);
/// assert!(g.is_symmetric());
/// assert!(!g.has_self_loops());
/// # Ok::<(), ggs_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_vertices: u32,
    edges: Vec<(VertexId, VertexId)>,
    symmetric: bool,
    keep_self_loops: bool,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: u32) -> Self {
        Self {
            num_vertices,
            edges: Vec::new(),
            symmetric: false,
            keep_self_loops: false,
        }
    }

    /// Adds a directed edge.
    ///
    /// Endpoints are validated when the graph is built (see
    /// [`GraphBuilder::try_build`]), so adding is infallible.
    pub fn edge(mut self, source: VertexId, target: VertexId) -> Self {
        self.edges.push((source, target));
        self
    }

    /// Adds every edge from an iterator.
    ///
    /// Endpoints are validated when the graph is built (see
    /// [`GraphBuilder::try_build`]), so adding is infallible.
    pub fn edges<I>(mut self, iter: I) -> Self
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        self.edges.extend(iter);
        self
    }

    /// When `true` (default `false`), the reverse of every edge is added,
    /// producing a directed symmetric graph.
    pub fn symmetric(mut self, yes: bool) -> Self {
        self.symmetric = yes;
        self
    }

    /// When `true` (default `false`), self-loops are preserved instead of
    /// removed.
    pub fn keep_self_loops(mut self, yes: bool) -> Self {
        self.keep_self_loops = yes;
        self
    }

    /// Number of raw (pre-normalization) edges added so far.
    pub fn raw_edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Normalizes and builds the [`Csr`] graph, or returns
    /// [`GraphError::EndpointOutOfRange`] if any added edge has an
    /// endpoint `>= num_vertices`.
    pub fn try_build(self) -> Result<Csr, GraphError> {
        let Self {
            num_vertices,
            mut edges,
            symmetric,
            keep_self_loops,
        } = self;
        if let Some(&edge) = edges
            .iter()
            .find(|&&(s, t)| s >= num_vertices || t >= num_vertices)
        {
            return Err(GraphError::EndpointOutOfRange { edge, num_vertices });
        }
        if !keep_self_loops {
            edges.retain(|&(s, t)| s != t);
        }
        if symmetric {
            let rev: Vec<_> = edges.iter().map(|&(s, t)| (t, s)).collect();
            edges.extend(rev);
        }
        edges.sort_unstable();
        edges.dedup();
        Ok(Csr::from_edges(num_vertices, &edges))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_removes_duplicates() {
        let g = GraphBuilder::new(2)
            .edge(0, 1)
            .edge(0, 1)
            .edge(0, 1)
            .try_build()
            .unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn self_loops_removed_by_default() {
        let g = GraphBuilder::new(2)
            .edge(0, 0)
            .edge(0, 1)
            .try_build()
            .unwrap();
        assert_eq!(g.num_edges(), 1);
        assert!(!g.has_self_loops());
    }

    #[test]
    fn self_loops_kept_on_request() {
        let g = GraphBuilder::new(2)
            .edge(0, 0)
            .keep_self_loops(true)
            .try_build()
            .unwrap();
        assert!(g.has_self_loops());
    }

    #[test]
    fn symmetrize_adds_reverse_edges_without_doubling_existing() {
        let g = GraphBuilder::new(3)
            .edge(0, 1)
            .edge(1, 0) // reverse already present
            .edge(1, 2)
            .symmetric(true)
            .try_build()
            .unwrap();
        assert_eq!(g.num_edges(), 4);
        assert!(g.is_symmetric());
    }

    #[test]
    fn edges_from_iterator() {
        let g = GraphBuilder::new(4)
            .edges((0..3).map(|i| (i, i + 1)))
            .try_build()
            .unwrap();
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn rejects_out_of_range_edges() {
        let err = GraphBuilder::new(1).edge(0, 1).try_build().unwrap_err();
        assert_eq!(
            err,
            GraphError::EndpointOutOfRange {
                edge: (0, 1),
                num_vertices: 1
            }
        );
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn try_build_reports_out_of_range_edges() {
        let err = GraphBuilder::new(1).edge(0, 7).try_build().unwrap_err();
        assert_eq!(
            err,
            GraphError::EndpointOutOfRange {
                edge: (0, 7),
                num_vertices: 1
            }
        );
        assert!(err.to_string().contains("out of range"));
        assert!(GraphBuilder::new(2).edge(0, 1).try_build().is_ok());
    }
}
