//! Property-based tests of the graph substrate's invariants.

use proptest::prelude::*;

use ggs_graph::mtx::{read_mtx, write_mtx};
use ggs_graph::synth::{DegreeModel, SynthConfig};
use ggs_graph::{Csr, GraphBuilder};

/// Strategy: an arbitrary edge list over up to `max_v` vertices.
fn edge_lists(max_v: u32) -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (2..=max_v).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n, 0..n), 0..200);
        (Just(n), edges)
    })
}

proptest! {
    /// The builder always produces a directed symmetric graph without
    /// self-loops or duplicates, regardless of input.
    #[test]
    fn builder_normalizes_any_edge_list((n, edges) in edge_lists(64)) {
        let g = GraphBuilder::new(n).edges(edges).symmetric(true).try_build().unwrap();
        prop_assert!(g.is_symmetric());
        prop_assert!(!g.has_self_loops());
        // No duplicates: every adjacency list is strictly increasing.
        for v in 0..n {
            let ns = g.neighbors(v);
            prop_assert!(ns.windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// Degree identities: the sum of out-degrees equals the edge count,
    /// and the degree statistics bound each other.
    #[test]
    fn degree_identities((n, edges) in edge_lists(64)) {
        let g = GraphBuilder::new(n).edges(edges).try_build().unwrap();
        let total: u64 = (0..n).map(|v| g.out_degree(v) as u64).sum();
        prop_assert_eq!(total, g.num_edges());
        let s = g.degree_stats();
        prop_assert!(s.min as f64 <= s.avg + 1e-9);
        prop_assert!(s.avg <= s.max as f64 + 1e-9);
        prop_assert!(s.std_dev >= 0.0);
    }

    /// Transposing twice is the identity, and the transpose preserves
    /// the edge count.
    #[test]
    fn transpose_involution((n, edges) in edge_lists(48)) {
        let g = Csr::from_edges(n, &edges);
        let tt = g.transpose().transpose();
        prop_assert_eq!(&tt, &g);
        prop_assert_eq!(g.transpose().num_edges(), g.num_edges());
    }

    /// Matrix Market write → read roundtrips any normalized graph.
    #[test]
    fn mtx_roundtrip((n, edges) in edge_lists(48)) {
        let g = GraphBuilder::new(n).edges(edges).symmetric(true).try_build().unwrap();
        let mut buf = Vec::new();
        write_mtx(&g, &mut buf).expect("write succeeds");
        let back = read_mtx(&buf[..]).expect("parse succeeds");
        prop_assert_eq!(back, g);
    }

    /// Hashed edge weights are symmetric and within range for any graph.
    #[test]
    fn hashed_weights_invariants((n, edges) in edge_lists(48), max_w in 1u32..100) {
        let g = GraphBuilder::new(n).edges(edges).symmetric(true).try_build().unwrap()
            .with_hashed_weights(max_w);
        for (s, t) in g.edges() {
            let i = g.neighbors(s).binary_search(&t).expect("edge exists");
            let w_st = g.edge_weights(s).expect("weighted")[i];
            prop_assert!((1..=max_w).contains(&w_st));
            let j = g.neighbors(t).binary_search(&s).expect("symmetric");
            let w_ts = g.edge_weights(t).expect("weighted")[j];
            prop_assert_eq!(w_st, w_ts);
        }
    }

    /// The synthetic generator hits its exact edge target and the
    /// normalization invariants for arbitrary small configurations.
    #[test]
    fn synth_invariants(
        n in 64u32..2048,
        avg in 1.0f64..8.0,
        p_local in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let cfg = SynthConfig::custom(
            "prop",
            n,
            avg,
            DegreeModel::log_normal(0.8),
            p_local,
        )
        .seed(seed);
        let g = cfg.generate();
        prop_assert_eq!(g.num_vertices(), n);
        prop_assert_eq!(g.num_edges(), cfg.target_edges());
        prop_assert!(g.is_symmetric());
        prop_assert!(!g.has_self_loops());
    }

    /// Higher locality never decreases the fraction of thread-block-local
    /// edges (monotonicity of the locality knob, coarse check).
    #[test]
    fn synth_locality_monotone(seed in 0u64..200) {
        let frac = |p_local: f64| {
            let g = SynthConfig::custom(
                "prop", 2048, 6.0, DegreeModel::constant(6, 0.0), p_local)
                .seed(seed)
                .generate();
            let local = g.edges().filter(|&(s, t)| s / 256 == t / 256).count();
            local as f64 / g.num_edges() as f64
        };
        let lo = frac(0.05);
        let hi = frac(0.9);
        prop_assert!(hi > lo, "local fraction should grow: {lo} vs {hi}");
    }
}
