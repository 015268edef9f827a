//! Ablation microbenches on the simulator's design dimensions: each
//! bench isolates one mechanism (coalescing, atomic overlap, ownership
//! reuse vs. ping-pong, acquire invalidation) with a synthetic kernel,
//! so the cost attribution behind Figure 5 can be inspected directly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use ggs_sim::config::{CoherenceKind, ConsistencyModel, HwConfig};
use ggs_sim::engine::Simulation;
use ggs_sim::params::SystemParams;
use ggs_sim::trace::{KernelTrace, MicroOp};

fn params() -> SystemParams {
    SystemParams::default().try_scaled_caches(0.125).unwrap()
}

/// Dense (coalesced) vs. scattered loads: the push-vs-pull access
/// pattern difference in isolation.
fn bench_coalescing(c: &mut Criterion) {
    let dense = KernelTrace::try_new(
        (0..4096u64)
            .map(|t| (0..8).map(|k| MicroOp::load((t * 8 + k) * 4)).collect())
            .collect(),
        256,
    )
    .unwrap();
    let scattered = KernelTrace::try_new(
        (0..4096u64)
            .map(|t| {
                (0..8)
                    .map(|k| MicroOp::load(((t * 8 + k) * 1103 % 32768) * 64))
                    .collect()
            })
            .collect(),
        256,
    )
    .unwrap();
    let mut group = c.benchmark_group("ablation/coalescing");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for (name, kernel) in [("dense", &dense), ("scattered", &scattered)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), kernel, |b, k| {
            b.iter(|| {
                let hw = HwConfig::new(CoherenceKind::Gpu, ConsistencyModel::Drf0);
                let mut sim = Simulation::new(params(), hw);
                sim.run_kernel(k);
                sim.finish().total_cycles()
            })
        });
    }
    group.finish();
}

/// Atomic ordering ablation: the same atomic-heavy kernel under each
/// consistency model (the DRF0 → DRF1 → DRFrlx ladder of Table I).
fn bench_consistency_ladder(c: &mut Criterion) {
    let kernel = KernelTrace::try_new(
        (0..4096u64)
            .map(|t| {
                (0..8)
                    .map(|k| MicroOp::atomic(((t + k * 997) % 16384) * 4))
                    .collect()
            })
            .collect(),
        256,
    )
    .unwrap();
    let mut group = c.benchmark_group("ablation/consistency");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for model in ConsistencyModel::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(model), &model, |b, &model| {
            b.iter(|| {
                let hw = HwConfig::new(CoherenceKind::Gpu, model);
                let mut sim = Simulation::new(params(), hw);
                sim.run_kernel(&kernel);
                sim.finish().total_cycles()
            })
        });
    }
    group.finish();
}

/// Ownership reuse vs. ping-pong: DeNovo with thread-block-local atomic
/// targets (each SM keeps ownership) versus fully-shared hot words
/// (ownership bounces between SMs).
fn bench_ownership(c: &mut Criterion) {
    let local = KernelTrace::try_new(
        (0..4096u64)
            .map(|t| {
                let block_base = (t / 256) * 256;
                (0..8)
                    .map(|k| MicroOp::atomic((block_base + (t + k * 37) % 256) * 4))
                    .collect()
            })
            .collect(),
        256,
    )
    .unwrap();
    let shared = KernelTrace::try_new(
        (0..4096u64)
            .map(|t| {
                (0..8)
                    .map(|k| MicroOp::atomic(((t + k) % 64) * 4))
                    .collect()
            })
            .collect(),
        256,
    )
    .unwrap();
    let mut group = c.benchmark_group("ablation/denovo_ownership");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for (name, kernel) in [("block_local", &local), ("hot_shared", &shared)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), kernel, |b, k| {
            b.iter(|| {
                let hw = HwConfig::new(CoherenceKind::DeNovo, ConsistencyModel::DrfRlx);
                let mut sim = Simulation::new(params(), hw);
                sim.run_kernel(k);
                sim.finish().total_cycles()
            })
        });
    }
    group.finish();
}

/// Warp-scheduler ablation: greedy-then-oldest vs. round robin on a
/// store-locality kernel (the design choice GPGPU-Sim exposes).
fn bench_scheduler(c: &mut Criterion) {
    use ggs_sim::params::SchedulerPolicy;

    let threads: Vec<Vec<MicroOp>> = (0..2048u64)
        .map(|t| (0..16).map(|k| MicroOp::store((t * 16 + k) * 4)).collect())
        .collect();
    let kernel = KernelTrace::try_new(threads, 256).unwrap();
    let mut group = c.benchmark_group("ablation/scheduler");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for policy in [
        SchedulerPolicy::GreedyThenOldest,
        SchedulerPolicy::RoundRobin,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{policy:?}")),
            &policy,
            |b, &policy| {
                b.iter(|| {
                    let p = SystemParams {
                        scheduler: policy,
                        ..params()
                    };
                    let hw = HwConfig::new(CoherenceKind::DeNovo, ConsistencyModel::Drf1);
                    let mut sim = Simulation::new(p, hw);
                    sim.run_kernel(&kernel);
                    sim.finish().total_cycles()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_coalescing,
    bench_consistency_ladder,
    bench_ownership,
    bench_scheduler
);
criterion_main!(benches);
