//! Property tests for the static DRF analyzer: randomized traces with
//! a known verdict, at every consistency level. The race rule does not
//! depend on the consistency model (all three DRF models require
//! race-freedom), so the properties must hold uniformly — only the
//! synchronization counts may differ.

use ggs_check::drf::{analyze_kernel, AccessClass};
use ggs_sim::config::ConsistencyModel;
use ggs_sim::trace::{KernelTrace, MicroOp};
use proptest::prelude::*;

/// Ops confined to a thread-private address region: thread `t` only
/// touches word `t`, so no cross-thread conflict can arise.
fn private_ops(thread: u64, n: usize, stores: bool) -> Vec<MicroOp> {
    let addr = thread * 4;
    (0..n)
        .map(|i| {
            if stores && i % 2 == 1 {
                MicroOp::store(addr)
            } else {
                MicroOp::load(addr)
            }
        })
        .collect()
}

proptest! {
    /// Two threads plain-storing one shared address is flagged as a
    /// race under every consistency model, no matter how much clean
    /// private noise surrounds it.
    #[test]
    fn racy_trace_is_flagged(
        threads in 2usize..20,
        noise in 0usize..8,
        shared_word in 0u64..64,
        racer_b in 1usize..19,
    ) {
        let shared = 0x10_000 + shared_word * 4;
        let b = (racer_b % (threads - 1)) + 1; // any thread but 0
        let mut trace: Vec<Vec<MicroOp>> = (0..threads as u64)
            .map(|t| private_ops(t, noise, true))
            .collect();
        trace[0].push(MicroOp::store(shared));
        trace[b].push(MicroOp::store(shared));
        for model in ConsistencyModel::ALL {
            let analysis = analyze_kernel(&KernelTrace::try_new(trace.clone(), 256).unwrap(), model);
            prop_assert_eq!(analysis.races.len(), 1);
            prop_assert_eq!(analysis.races[0].addr, shared);
            prop_assert_eq!(
                analysis.class_counts[AccessClass::Racy.index()], 1
            );
        }
    }

    /// A trace whose only shared accesses are atomics (plus private
    /// loads/stores and shared plain reads) passes under every
    /// consistency model.
    #[test]
    fn clean_atomic_trace_passes(
        threads in 1usize..20,
        noise in 0usize..8,
        atomics_per_thread in 1usize..4,
        shared_words in 1u64..8,
        returning_bit in 0u8..2,
    ) {
        let returning = returning_bit == 1;
        let trace: Vec<Vec<MicroOp>> = (0..threads as u64)
            .map(|t| {
                let mut ops = private_ops(t, noise, true);
                ops.push(MicroOp::load(0x20_000)); // read-shared word
                for i in 0..atomics_per_thread as u64 {
                    let addr = 0x30_000 + (i % shared_words) * 4;
                    ops.push(if returning {
                        MicroOp::atomic_returning(addr)
                    } else {
                        MicroOp::atomic(addr)
                    });
                }
                ops
            })
            .collect();
        for model in ConsistencyModel::ALL {
            let analysis = analyze_kernel(&KernelTrace::try_new(trace.clone(), 256).unwrap(), model);
            prop_assert_eq!(analysis.races.len(), 0);
            prop_assert_eq!(analysis.class_counts[AccessClass::Racy.index()], 0);
            // The sync counts follow the model's predicates exactly.
            let expected_fences = if model.atomic_is_fence() { analysis.atomic_ops } else { 0 };
            prop_assert_eq!(analysis.fence_atomics, expected_fences);
            let expected_blocking = if model.atomic_blocks_warp(returning) {
                analysis.atomic_ops
            } else {
                0
            };
            prop_assert_eq!(analysis.blocking_atomics, expected_blocking);
        }
    }

    /// A single remote plain *reader* against a plain writer races, but
    /// the same reader against atomic-only writers does not — the
    /// boundary the benign-publication idiom sits on.
    #[test]
    fn plain_reader_races_only_with_plain_writer(
        readers in 1usize..8,
        shared_word in 0u64..64,
    ) {
        let shared = 0x40_000 + shared_word * 4;
        let mut with_plain: Vec<Vec<MicroOp>> =
            (0..readers).map(|_| vec![MicroOp::load(shared)]).collect();
        let mut with_atomic = with_plain.clone();
        with_plain.push(vec![MicroOp::store(shared)]);
        with_atomic.push(vec![MicroOp::atomic(shared)]);
        for model in ConsistencyModel::ALL {
            let racy = analyze_kernel(&KernelTrace::try_new(with_plain.clone(), 256).unwrap(), model);
            prop_assert_eq!(racy.races.len(), 1);
            let clean = analyze_kernel(&KernelTrace::try_new(with_atomic.clone(), 256).unwrap(), model);
            prop_assert_eq!(clean.races.len(), 0);
        }
    }
}
