//! Property-based tests of the taxonomy metrics and the decision tree.

use proptest::prelude::*;

use ggs_graph::GraphBuilder;
use ggs_model::classes::Level;
use ggs_model::metrics::{imbalance, kmeans2, reuse};
use ggs_model::profile::GraphProfile;
use ggs_model::taxonomy::{AlgoBias, AlgoProfile, Propagation, Traversal};
use ggs_model::{predict_full, predict_partial, MetricParams};
use ggs_sim::ConsistencyModel;

fn levels() -> impl Strategy<Value = Level> {
    prop_oneof![Just(Level::Low), Just(Level::Medium), Just(Level::High)]
}

fn biases() -> impl Strategy<Value = AlgoBias> {
    prop_oneof![
        Just(AlgoBias::Source),
        Just(AlgoBias::Target),
        Just(AlgoBias::Symmetric)
    ]
}

fn algo_profiles() -> impl Strategy<Value = AlgoProfile> {
    prop_oneof![
        (biases(), biases()).prop_map(|(c, i)| AlgoProfile::new_static(c, i)),
        Just(AlgoProfile::new_dynamic()),
    ]
}

fn edge_lists(max_v: u32) -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (2..=max_v).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n, 0..n), 0..300);
        (Just(n), edges)
    })
}

proptest! {
    /// The Reuse metric is always in [0, 1], and ANL + ANR equals the
    /// average degree.
    #[test]
    fn reuse_is_bounded((n, edges) in edge_lists(1024)) {
        let g = GraphBuilder::new(n).edges(edges).symmetric(true).try_build().unwrap();
        let r = reuse(&g, &MetricParams::default());
        prop_assert!((0.0..=1.0).contains(&r.reuse), "reuse = {}", r.reuse);
        if g.num_edges() > 0 {
            let avg = g.num_edges() as f64 / n as f64;
            prop_assert!((r.anl + r.anr - avg).abs() < 1e-9);
        }
    }

    /// The Imbalance metric is a fraction of thread blocks.
    #[test]
    fn imbalance_is_a_fraction((n, edges) in edge_lists(1024)) {
        let g = GraphBuilder::new(n).edges(edges).try_build().unwrap();
        let i = imbalance(&g, &MetricParams::default());
        prop_assert!((0.0..=1.0).contains(&i));
    }

    /// k-means centroids bracket the data and are ordered.
    #[test]
    fn kmeans_centroids_bracket(values in prop::collection::vec(0.0f64..1e6, 1..64)) {
        let (lo, hi) = kmeans2(&values);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(lo <= hi);
        prop_assert!(lo >= min - 1e-9 && hi <= max + 1e-9);
    }

    /// Level classification is monotone in the value.
    #[test]
    fn level_classification_monotone(a in 0.0f64..100.0, b in 0.0f64..100.0, lo in 0.0f64..50.0, span in 0.0f64..50.0) {
        let hi = lo + span;
        let (x, y) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(Level::classify(x, lo, hi) <= Level::classify(y, lo, hi));
    }

    /// The full decision tree always emits a valid configuration:
    /// dynamic traversal gets DD1, static traversal gets push or pull
    /// with pull always paired with GPU coherence + DRF0.
    #[test]
    fn full_tree_output_is_well_formed(
        algo in algo_profiles(),
        v in levels(), r in levels(), i in levels(),
    ) {
        let g = GraphProfile::from_classes(v, r, i);
        let cfg = predict_full(&algo, &g);
        match algo.traversal {
            Traversal::Dynamic => prop_assert_eq!(cfg.code(), "DD1"),
            Traversal::Static => {
                prop_assert_ne!(cfg.propagation, Propagation::PushPull);
                if cfg.propagation == Propagation::Pull {
                    prop_assert_eq!(cfg.code(), "TG0");
                }
            }
        }
    }

    /// The partial tree never recommends DRFrlx, and it only disagrees
    /// with the full tree on the push/pull split or by weakening the
    /// consistency.
    #[test]
    fn partial_tree_respects_restriction(
        algo in algo_profiles(),
        v in levels(), r in levels(), i in levels(),
    ) {
        let g = GraphProfile::from_classes(v, r, i);
        let partial = predict_partial(&algo, &g);
        prop_assert_ne!(partial.consistency, ConsistencyModel::DrfRlx);
        let full = predict_full(&algo, &g);
        if full.propagation == partial.propagation
            && full.propagation == Propagation::Push
        {
            // Same propagation: the partial model keeps the coherence
            // choice and only collapses the consistency dimension.
            prop_assert_eq!(partial.coherence, full.coherence);
        }
    }

    /// When either algorithmic property favors the source, both trees
    /// recommend push (§IV-A1, §IV-B) for static traversals.
    #[test]
    fn source_bias_forces_push(
        info in biases(),
        v in levels(), r in levels(), i in levels(),
    ) {
        let algo = AlgoProfile::new_static(AlgoBias::Source, info);
        let g = GraphProfile::from_classes(v, r, i);
        prop_assert_eq!(predict_full(&algo, &g).propagation, Propagation::Push);
        prop_assert_eq!(predict_partial(&algo, &g).propagation, Propagation::Push);
    }

    /// Measuring a profile and classifying it agrees with the class
    /// thresholds (internal consistency of GraphProfile).
    #[test]
    fn profile_classes_match_thresholds((n, edges) in edge_lists(512)) {
        let g = GraphBuilder::new(n).edges(edges).symmetric(true).try_build().unwrap();
        let params = MetricParams::default();
        let p = GraphProfile::measure(&g, &params);
        prop_assert_eq!(
            p.volume,
            Level::classify(p.volume_kb, params.volume_low_kb(), params.volume_high_kb())
        );
        prop_assert_eq!(
            p.reuse_class,
            Level::classify(p.reuse, params.reuse_low, params.reuse_high)
        );
        prop_assert_eq!(
            p.imbalance_class,
            Level::classify(p.imbalance, params.imb_low, params.imb_high)
        );
    }
}
