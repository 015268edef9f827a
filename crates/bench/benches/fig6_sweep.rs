//! Figure 6 bench: the sweep + best-selection machinery that produces
//! the SGR-vs-BEST-vs-PRED comparison, on one workload.
//!
//! The `repro fig6` binary prints the figure's rows from the full study;
//! this bench tracks the cost of producing one row.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

use ggs_apps::AppKind;
use ggs_core::experiment::ExperimentSpec;
use ggs_core::sweep::{baseline_config, figure5_configs, WorkloadSweep};
use ggs_graph::synth::{GraphPreset, SynthConfig};
use ggs_trace::Tracer;

fn bench_sweep_row(c: &mut Criterion) {
    let scale = 0.02;
    let spec = ExperimentSpec::try_at_scale(scale).unwrap();
    let graph = SynthConfig::preset(GraphPreset::Raj)
        .scale(scale)
        .generate();
    let configs = figure5_configs(AppKind::Mis);

    let mut group = c.benchmark_group("fig6");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("sweep_MIS-RAJ_and_pick_best", |b| {
        b.iter(|| {
            let sweep =
                WorkloadSweep::run(AppKind::Mis, "RAJ", &graph, &configs, &spec, Tracer::off())
                    .expect("figure 5 configs are supported");
            let best = sweep.try_best().unwrap().config;
            let norm = sweep
                .try_normalized_to(baseline_config(AppKind::Mis))
                .unwrap();
            (best, norm.len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sweep_row);
criterion_main!(benches);
