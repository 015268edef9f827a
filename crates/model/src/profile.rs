//! Graph-structure profile: the measured + classified metric triple of
//! one input graph (one row of the paper's Table II).

use ggs_graph::{Csr, DegreeStats};

use crate::classes::Level;
use crate::metrics;
use crate::params::MetricParams;

/// Measured and classified structural metrics of an input graph.
///
/// # Example
///
/// ```
/// use ggs_graph::synth::{GraphPreset, SynthConfig};
/// use ggs_model::{GraphProfile, MetricParams, Level};
///
/// let g = SynthConfig::preset(GraphPreset::Ols).scale(0.05).generate();
/// let p = GraphProfile::measure(&g, &MetricParams::default().scaled_caches(0.05));
/// assert_eq!(p.reuse_class, Level::High); // OLS is the high-locality input
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GraphProfile {
    /// Vertex count.
    pub vertices: u32,
    /// Directed edge count.
    pub edges: u64,
    /// Degree statistics (Table II's Max/Avg/Std Dev columns).
    pub degrees: DegreeStats,
    /// Volume in KB (Equation 1).
    pub volume_kb: f64,
    /// Discretized volume.
    pub volume: Level,
    /// Average number of thread-block-local neighbors (Equation 4).
    pub anl: f64,
    /// Average number of thread-block-remote neighbors (Equation 5).
    pub anr: f64,
    /// Reuse metric (Equation 6).
    pub reuse: f64,
    /// Discretized reuse.
    pub reuse_class: Level,
    /// Imbalance metric (Equation 7).
    pub imbalance: f64,
    /// Discretized imbalance.
    pub imbalance_class: Level,
}

impl GraphProfile {
    /// Measures every metric of `graph` and classifies them against
    /// `params`' thresholds.
    pub fn measure(graph: &Csr, params: &MetricParams) -> Self {
        let volume_kb = metrics::volume_kb(graph, params);
        let r = metrics::reuse(graph, params);
        let imbalance = metrics::imbalance(graph, params);
        Self {
            vertices: graph.num_vertices(),
            edges: graph.num_edges(),
            degrees: graph.degree_stats(),
            volume_kb,
            volume: Level::classify(volume_kb, params.volume_low_kb(), params.volume_high_kb()),
            anl: r.anl,
            anr: r.anr,
            reuse: r.reuse,
            reuse_class: Level::classify(r.reuse, params.reuse_low, params.reuse_high),
            imbalance,
            imbalance_class: Level::classify(imbalance, params.imb_low, params.imb_high),
        }
    }

    /// Builds a profile directly from classified levels (useful for
    /// exploring the decision tree without a concrete graph).
    pub fn from_classes(volume: Level, reuse_class: Level, imbalance_class: Level) -> Self {
        Self {
            vertices: 0,
            edges: 0,
            degrees: DegreeStats::default(),
            volume_kb: 0.0,
            volume,
            anl: 0.0,
            anr: 0.0,
            reuse: 0.0,
            reuse_class,
            imbalance: 0.0,
            imbalance_class,
        }
    }

    /// The three-letter class string, e.g. `"HML"` for high volume,
    /// medium reuse, low imbalance (Table II order).
    pub fn class_code(&self) -> String {
        format!(
            "{}{}{}",
            self.volume.letter(),
            self.reuse_class.letter(),
            self.imbalance_class.letter()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggs_graph::GraphBuilder;

    #[test]
    fn measure_small_graph() {
        let g = GraphBuilder::new(512)
            .edges((0..511u32).map(|i| (i, i + 1)))
            .symmetric(true)
            .try_build()
            .unwrap();
        let p = GraphProfile::measure(&g, &MetricParams::default());
        assert_eq!(p.vertices, 512);
        assert_eq!(p.edges, 1022);
        assert_eq!(p.volume, Level::Low);
        // A chain is almost entirely block-local.
        assert_eq!(p.reuse_class, Level::High);
        assert_eq!(p.imbalance_class, Level::Low);
        assert_eq!(p.class_code(), "LHL");
    }

    #[test]
    fn from_classes_roundtrip() {
        let p = GraphProfile::from_classes(Level::High, Level::Medium, Level::Low);
        assert_eq!(p.class_code(), "HML");
    }
}
