//! Property-based tests of the simulator's structural invariants.

use proptest::prelude::*;

use ggs_sim::cache::{Cache, LineState};
use ggs_sim::config::{CoherenceKind, ConsistencyModel, HwConfig};
use ggs_sim::engine::Simulation;
use ggs_sim::noc::Mesh;
use ggs_sim::params::SystemParams;
use ggs_sim::stats::{StallBreakdown, StallClass};
use ggs_sim::trace::{KernelTrace, MicroOp};

fn small_params() -> SystemParams {
    SystemParams::default().try_scaled_caches(0.125).unwrap()
}

/// Strategy: a small kernel of arbitrary mixed micro-ops.
fn kernels() -> impl Strategy<Value = KernelTrace> {
    let op = prop_oneof![
        (0u64..4096).prop_map(|w| MicroOp::load(w * 4)),
        (0u64..4096).prop_map(|w| MicroOp::store(w * 4)),
        (0u64..4096).prop_map(|w| MicroOp::atomic(w * 4)),
        (0u64..256).prop_map(|w| MicroOp::atomic_returning(w * 4)),
        (1u16..8).prop_map(MicroOp::compute),
    ];
    let thread = prop::collection::vec(op, 0..12);
    prop::collection::vec(thread, 1..200)
        .prop_map(|threads| KernelTrace::try_new(threads, 64).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every configuration executes every kernel to completion, with a
    /// fully-classified non-zero cycle count.
    #[test]
    fn all_configs_terminate(kernel in kernels()) {
        for hw in HwConfig::all() {
            let mut sim = Simulation::new(small_params(), hw);
            sim.run_kernel(&kernel);
            let stats = sim.finish();
            prop_assert!(stats.total_cycles() > 0);
            // Each SM contributes exactly total_cycles classified cycles.
            let expected = stats.total_cycles() * 15;
            prop_assert_eq!(stats.breakdown.total(), expected);
        }
    }

    /// Simulation is deterministic: identical runs produce identical
    /// statistics.
    #[test]
    fn simulation_is_deterministic(kernel in kernels()) {
        let run = || {
            let hw = HwConfig::new(CoherenceKind::DeNovo, ConsistencyModel::DrfRlx);
            let mut sim = Simulation::new(small_params(), hw);
            sim.run_kernel(&kernel);
            sim.finish()
        };
        prop_assert_eq!(run(), run());
    }

    /// Weakening the consistency model never meaningfully slows a
    /// workload down (DRF0 ≥ DRF1 ≥ DRFrlx up to a modest scheduling
    /// tolerance — reordering changes issue interleaving, which can
    /// shift bank contention and cache evictions a little either way,
    /// exactly as on real hardware).
    #[test]
    fn weaker_consistency_is_never_slower(kernel in kernels()) {
        for coh in CoherenceKind::ALL {
            let time = |m: ConsistencyModel| {
                let mut sim = Simulation::new(small_params(), HwConfig::new(coh, m));
                sim.run_kernel(&kernel);
                sim.finish().total_cycles()
            };
            let t0 = time(ConsistencyModel::Drf0);
            let t1 = time(ConsistencyModel::Drf1);
            let tr = time(ConsistencyModel::DrfRlx);
            prop_assert!(t0 * 23 >= t1 * 20, "DRF0 {t0} < DRF1 {t1}");
            prop_assert!(t1 * 23 >= tr * 20, "DRF1 {t1} < DRFrlx {tr}");
        }
    }

    /// Cache: after inserting a line it is present; capacity is never
    /// exceeded; flash invalidation leaves only owned lines.
    #[test]
    fn cache_invariants(lines in prop::collection::vec(0u64..512, 1..300)) {
        let mut c = Cache::new(8, 4);
        for (i, &l) in lines.iter().enumerate() {
            let state = if i % 3 == 0 { LineState::Owned } else { LineState::Valid };
            c.insert(l, state);
            prop_assert_eq!(c.peek(l), Some(state));
            prop_assert!(c.occupancy() <= c.capacity_lines());
        }
        c.invalidate_unowned();
        for &l in &lines {
            if let Some(s) = c.peek(l) {
                prop_assert_eq!(s, LineState::Owned);
            }
        }
    }

    /// Mesh distances form a metric (symmetry + triangle inequality) and
    /// all latencies stay within the paper's Table IV ranges.
    #[test]
    fn mesh_is_a_metric(a in 0u32..16, b in 0u32..16, c in 0u32..16) {
        let m = Mesh::new(&SystemParams::default());
        prop_assert_eq!(m.hops(a, b), m.hops(b, a));
        prop_assert!(m.hops(a, c) <= m.hops(a, b) + m.hops(b, c));
        if a < 15 && b < 15 {
            let r = m.remote_l1_latency(a, b);
            prop_assert!((35..=83).contains(&r));
        }
    }

    /// StallBreakdown arithmetic: totals are additive and fractions sum
    /// to 1 for non-empty breakdowns.
    #[test]
    fn breakdown_arithmetic(cycles in prop::collection::vec((0usize..5, 1u64..1000), 1..20)) {
        let mut b = StallBreakdown::default();
        for &(class, n) in &cycles {
            b.record(StallClass::ALL[class], n);
        }
        let frac_sum: f64 = StallClass::ALL.iter().map(|&c| b.fraction(c)).sum();
        prop_assert!((frac_sum - 1.0).abs() < 1e-9);
        let doubled = b + b;
        prop_assert_eq!(doubled.total(), 2 * b.total());
    }
}
