//! The three workloads: one end-to-end pass each (measured with the
//! benchmark's spans off), and a traced replay of the same cells through
//! the public functions of each layer.

use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ggs_apps::{AppKind, Workload};
use ggs_core::experiment::{produce_trace_stream, run_workload_budgeted, ExperimentSpec};
use ggs_core::runner::spec_hash;
use ggs_core::store::versioned_spec_hash;
use ggs_core::study::{ConfigSet, ResultRow};
use ggs_core::sweep::{baseline_config, figure5_configs, hybrid_configs};
use ggs_core::{
    graph_fingerprint, run_study, CellStatus, Claim, MetricsRegistry, Store, StreamKey, Study,
    StudyOptions, TraceCache, TraceCacheStats, Tracer, WorkloadReport,
};
use ggs_graph::synth::{GraphPreset, SynthConfig};
use ggs_graph::Csr;
use ggs_model::{predict_full, predict_partial, GraphProfile, SystemConfig};
use ggs_sim::stats::{MemCounters, StallClass};
use ggs_sim::Simulation;
use ggs_trace::{TraceEvent, TraceSink, NOOP};

use crate::check::CellResult;
use crate::spans::{Span, SpanLog, CELL, NO_CELL};

/// Input scale of every workload (the study's default scale).
pub const SCALE: f64 = 0.125;
/// Worker threads of the `study` workload (and of the pass that writes
/// the warm store `resume` starts from).
pub const STUDY_WORKERS: usize = 2;
/// Worker threads of the `resume` workload. With two, the second worker
/// spends the first one's claim asleep in the store lock's back-off,
/// whose jitter is drawn from the process id: a two-worker resume pass
/// measured 0.86–0.92 s against 0.58–0.66 s on one, and its run-to-run
/// spread (0.26 on `wall_s`, 0.43 on `cell_p90_ms`) exceeded any usable
/// bound. One worker measures the claims themselves.
pub const RESUME_WORKERS: usize = 1;
/// Cells of one `study` pass: 6 apps × 6 graphs, 5 configs (4 for CC).
pub const STUDY_CELLS: usize = 174;
/// The frontier workloads' graphs: every Table II input except AMZ.
pub const FRONTIER_GRAPHS: [GraphPreset; 5] = [
    GraphPreset::Dct,
    GraphPreset::Eml,
    GraphPreset::Ols,
    GraphPreset::Raj,
    GraphPreset::Wng,
];
/// The applications that expose a frontier (and so a hybrid point).
pub const FRONTIER_APPS: [AppKind; 2] = [AppKind::Sssp, AppKind::Bfs];

pub fn spec(scale: f64) -> Result<ExperimentSpec, String> {
    ExperimentSpec::try_at_scale(scale).map_err(|e| e.to_string())
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

fn key(app: AppKind, graph: &str, config: SystemConfig) -> String {
    format!("{}/{graph}/{}", app.mnemonic(), config.code())
}

fn row_of(config: SystemConfig, stats: &ggs_sim::ExecStats) -> ResultRow {
    ResultRow {
        config: config.code(),
        total_cycles: stats.total_cycles,
        fractions: StallClass::ALL.map(|c| stats.breakdown.fraction(c)),
    }
}

/// One input graph with what the runner derives from it up front.
pub struct Input {
    pub preset: GraphPreset,
    pub graph: Arc<Csr>,
    pub profile: GraphProfile,
    pub fp: u64,
}

/// Synthesises one input the way `run_study` does: generate, attach the
/// hashed weights every app shares, profile, fingerprint. `seed` of
/// `None` keeps the preset's own seed.
fn build_input(
    preset: GraphPreset,
    spec: &ExperimentSpec,
    seed: Option<u64>,
    log: Option<&SpanLog>,
) -> Input {
    let graph_layer = || {
        let mut config = SynthConfig::preset(preset).scale(spec.scale);
        if let Some(seed) = seed {
            config = config.seed(seed);
        }
        let g = config.generate().with_hashed_weights(64);
        let fp = graph_fingerprint(&g);
        (g, fp)
    };
    let profile_layer = |g: &Csr| GraphProfile::measure(g, &spec.metric_params());
    let ((graph, fp), profile) = match log {
        Some(log) => {
            let built = log.span("graph.build", NO_CELL, graph_layer);
            let profile = log.span("model.profile", NO_CELL, || profile_layer(&built.0));
            (built, profile)
        }
        None => {
            let built = graph_layer();
            let profile = profile_layer(&built.0);
            (built, profile)
        }
    };
    Input {
        preset,
        graph: Arc::new(graph),
        profile,
        fp,
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The generator seed of one `frontier-cold` graph under `--graph-seed`
/// (distinct per preset); `None` keeps the preset's own, pinned seed.
fn frontier_graph_seed(graph_seed: Option<u64>, preset: GraphPreset) -> Option<u64> {
    graph_seed.map(|s| splitmix64(s ^ (u64::from(preset.mnemonic().as_bytes()[0]) << 56)))
}

/// The order in which a `frontier-cold` pass calls its cells: a
/// Fisher-Yates shuffle of the job order, driven by the workload seed.
fn call_order(len: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    let mut state = seed;
    for i in (1..len).rev() {
        state = splitmix64(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

/// One input set as a workload synthesises it, timed; the set-up
/// samples of passes that do not record their own.
pub fn setup_sample(workload: &str, spec: &ExperimentSpec, graph_seed: Option<u64>) -> f64 {
    let start = Instant::now();
    let inputs = inputs_for(workload, spec, graph_seed, None);
    std::hint::black_box(inputs);
    secs(start)
}

fn inputs_for(
    workload: &str,
    spec: &ExperimentSpec,
    graph_seed: Option<u64>,
    log: Option<&SpanLog>,
) -> Vec<Input> {
    if workload == "frontier-cold" {
        FRONTIER_GRAPHS
            .into_iter()
            .map(|p| build_input(p, spec, frontier_graph_seed(graph_seed, p), log))
            .collect()
    } else {
        GraphPreset::ALL
            .into_iter()
            .map(|p| build_input(p, spec, None, log))
            .collect()
    }
}

/// What the runner-level phases of a pass cost.
#[derive(Debug, Clone, Default)]
pub struct RunnerPhases {
    pub generate_s: f64,
    pub simulate_s: f64,
    pub aggregate_ms: f64,
    pub threads: usize,
}

/// One end-to-end pass.
#[derive(Debug, Default)]
pub struct Pass {
    pub wall_s: f64,
    pub setup_s: f64,
    /// Host time of each cell, in milliseconds.
    pub cell_ms: Vec<f64>,
    /// Every cell's result in job order (cells that failed are absent).
    pub cells: Vec<CellResult>,
    /// Cells attempted.
    pub attempted: u64,
    /// Cells that failed or timed out.
    pub failed: u64,
    /// Cells simulated (study: cells the runner reports as run).
    pub simulated: u64,
    /// Cells answered from the store, by the runner's cell reports.
    pub store_hits: u64,
    /// Store misses and hits as the runner's trace events report them.
    pub sink_misses: u64,
    pub sink_hits: u64,
    /// `(exact predictions, worst slowdown)`.
    pub paper: Option<(usize, f64)>,
    pub runner: RunnerPhases,
}

/// Receives the runner's own cell spans; nothing below the runner is
/// traced, so the simulator runs exactly as it does untraced.
#[derive(Default)]
struct RunnerSink {
    cell_us: Mutex<Vec<u64>>,
    store_hits: AtomicU64,
    store_misses: AtomicU64,
}

impl TraceSink for RunnerSink {
    fn emit(&self, event: &TraceEvent) {
        match event {
            TraceEvent::CellFinish { dur_us, .. } => self
                .cell_us
                .lock()
                .expect("no sink user panics while holding the lock")
                .push(*dur_us),
            TraceEvent::StoreHit { .. } => {
                self.store_hits.fetch_add(1, Ordering::Relaxed);
            }
            TraceEvent::StoreMiss { .. } => {
                self.store_misses.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

/// One `run_study` pass (the `study` and `resume` workloads) on
/// `workers` threads against the store at `store_path`.
pub fn study_pass(
    spec: &ExperimentSpec,
    store_path: &Path,
    workers: usize,
) -> Result<Pass, String> {
    let start = Instant::now();
    let store = Store::open(store_path).map_err(|e| format!("open store: {e}"))?;
    let options = StudyOptions {
        store: Some(store),
        ..StudyOptions::new(ConfigSet::Figure5, workers)
    };
    let metrics = MetricsRegistry::new();
    let sink = RunnerSink::default();
    let outcome = run_study(spec, &options, &metrics, &sink).map_err(|e| e.to_string())?;
    let wall_s = secs(start);

    let phase_s = |name: &str| {
        metrics
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us as f64 / 1e6)
            .sum::<f64>()
    };
    let (ok, failed, timeout, _) = outcome.counts();
    let hits = outcome
        .cells
        .iter()
        .filter(|c| c.status == CellStatus::Skipped && c.detail == "store hit")
        .count() as u64;
    let cells = outcome
        .study
        .reports
        .iter()
        .flat_map(|r| {
            r.rows.iter().map(move |row| CellResult {
                key: format!("{}/{}/{}", r.app, r.graph, row.config),
                cycles: row.total_cycles,
                fractions: row.fractions,
                detail: None,
            })
        })
        .collect();
    let cell_us = sink.cell_us.into_inner().expect("sink lock not poisoned");
    Ok(Pass {
        wall_s,
        setup_s: phase_s("generate_inputs"),
        cell_ms: cell_us.iter().map(|us| *us as f64 / 1e3).collect(),
        cells,
        attempted: outcome.cells.len() as u64,
        failed: (failed + timeout) as u64,
        simulated: ok as u64,
        store_hits: hits,
        sink_misses: sink.store_misses.load(Ordering::Relaxed),
        sink_hits: sink.store_hits.load(Ordering::Relaxed),
        paper: Some((
            outcome.study.exact_predictions(),
            outcome.study.worst_prediction_slowdown(),
        )),
        runner: RunnerPhases {
            generate_s: phase_s("generate_inputs"),
            simulate_s: phase_s("simulate"),
            aggregate_ms: phase_s("aggregate") * 1e3,
            threads: workers,
        },
    })
}

/// The frontier cells of one input set in job order: graph-major, then
/// app, then the Figure 5 configs followed by the hybrid ones.
fn frontier_cells() -> Vec<(usize, AppKind, SystemConfig)> {
    let mut cells = Vec::new();
    for gi in 0..FRONTIER_GRAPHS.len() {
        for app in FRONTIER_APPS {
            for config in figure5_configs(app).into_iter().chain(hybrid_configs(app)) {
                cells.push((gi, app, config));
            }
        }
    }
    cells
}

/// The Table V prediction check over the frontier workloads' Figure 5
/// rows (the hybrid cells are an extension and never the reference).
fn frontier_paper(inputs: &[Input], cells: &[CellResult]) -> (usize, f64) {
    let mut reports = Vec::new();
    for input in inputs {
        let graph = input.preset.mnemonic();
        for app in FRONTIER_APPS {
            let rows: Vec<ResultRow> = figure5_configs(app)
                .into_iter()
                .filter_map(|config| {
                    let k = key(app, graph, config);
                    cells.iter().find(|c| c.key == k).map(|c| ResultRow {
                        config: config.code(),
                        total_cycles: c.cycles,
                        fractions: c.fractions,
                    })
                })
                .collect();
            let Some(best) = rows.iter().min_by_key(|r| r.total_cycles) else {
                continue;
            };
            let algo = app.algo_profile();
            reports.push(WorkloadReport {
                app: app.mnemonic().to_owned(),
                graph: graph.to_owned(),
                classes: input.profile.class_code(),
                predicted: predict_full(&algo, &input.profile).code(),
                predicted_partial: predict_partial(&algo, &input.profile).code(),
                best: best.config.clone(),
                baseline: baseline_config(app).code(),
                rows,
            });
        }
    }
    let study = Study {
        scale: SCALE,
        reports,
        failures: Vec::new(),
    };
    (study.exact_predictions(), study.worst_prediction_slowdown())
}

/// One `frontier-cold` pass: every cell is one cold call of
/// `run_workload_budgeted` on one thread, with no trace cache, in the
/// order `seed` shuffles them into. Cells are reported in job order.
pub fn frontier_pass(spec: &ExperimentSpec, seed: u64, graph_seed: Option<u64>) -> Pass {
    let start = Instant::now();
    let inputs = inputs_for("frontier-cold", spec, graph_seed, None);
    let setup_s = secs(start);
    let sim_start = Instant::now();
    let mut pass = Pass {
        setup_s,
        ..Pass::default()
    };
    let cells = frontier_cells();
    let mut results: Vec<Option<CellResult>> = vec![None; cells.len()];
    for i in call_order(cells.len(), seed) {
        let (gi, app, config) = cells[i];
        let input = &inputs[gi];
        let cell_key = key(app, input.preset.mnemonic(), config);
        let cell_start = Instant::now();
        let result = run_workload_budgeted(app, &input.graph, config, spec, Tracer::off(), None);
        pass.cell_ms.push(cell_start.elapsed().as_secs_f64() * 1e3);
        pass.attempted += 1;
        match result {
            Ok(stats) => {
                pass.simulated += 1;
                results[i] = Some(CellResult::from_stats(cell_key, &stats));
            }
            Err(e) => {
                eprintln!("perfbench: {cell_key} failed: {e}");
                pass.failed += 1;
            }
        }
    }
    pass.cells = results.into_iter().flatten().collect();
    let simulate_s = secs(sim_start);
    let aggregate_start = Instant::now();
    pass.paper = Some(frontier_paper(&inputs, &pass.cells));
    pass.runner = RunnerPhases {
        generate_s: setup_s,
        simulate_s,
        aggregate_ms: secs(aggregate_start) * 1e3,
        threads: 1,
    };
    pass.wall_s = secs(start);
    pass
}

/// Work counts of a traced replay, summed over its cells.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub graph_edges: u64,
    pub streams: u64,
    pub kernels_produced: u64,
    pub micro_ops: u64,
    pub sim_kernels: u64,
    pub sim_cycles: u64,
    pub class_cycles: [u64; 5],
    pub mem: MemCounters,
    pub claims: u64,
    pub publishes: u64,
    pub store_hits: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.graph_edges += o.graph_edges;
        self.streams += o.streams;
        self.kernels_produced += o.kernels_produced;
        self.micro_ops += o.micro_ops;
        self.sim_kernels += o.sim_kernels;
        self.sim_cycles += o.sim_cycles;
        for (a, b) in self.class_cycles.iter_mut().zip(o.class_cycles) {
            *a += b;
        }
        self.mem += o.mem;
        self.claims += o.claims;
        self.publishes += o.publishes;
        self.store_hits += o.store_hits;
    }
}

/// A traced replay: the same cells as a pass, in the same order, each
/// layer call wrapped in a span.
#[derive(Debug, Default)]
pub struct Replay {
    pub wall_s: f64,
    /// Wall of the serial input phase.
    pub setup_wall_s: f64,
    /// Wall of the parallel cell phase.
    pub cells_wall_s: f64,
    pub workers: usize,
    /// One span list per worker; the last is the serial set-up phase.
    pub logs: Vec<Vec<Span>>,
    pub cells: Vec<CellResult>,
    pub failed: Vec<String>,
    pub counts: Counts,
    pub trace_cache: Option<TraceCacheStats>,
}

/// Where a replay sends claims and publishes (`study`, `resume`).
struct StoreTarget<'a> {
    store: &'a Store,
    hash: String,
}

struct Plan<'a> {
    spec: &'a ExperimentSpec,
    inputs: &'a [Input],
    cells: Vec<(usize, AppKind, SystemConfig)>,
    store: Option<StoreTarget<'a>>,
    cache: Option<Arc<TraceCache>>,
}

/// Replays one cell; `Err` describes a failed cell.
fn replay_cell(
    plan: &Plan<'_>,
    index: u32,
    log: &SpanLog,
    counts: &mut Counts,
) -> Result<CellResult, String> {
    let (gi, app, config) = plan.cells[index as usize];
    let input = &plan.inputs[gi];
    let graph_name = input.preset.mnemonic();
    let cell_key = key(app, graph_name, config);
    let spec = plan.spec;
    if let Some(target) = &plan.store {
        counts.claims += 1;
        let ttl = StudyOptions::default().lease_ttl;
        let claim = log.span("store.claim", index, || {
            target.store.try_claim(&target.hash, &cell_key, ttl)
        });
        match claim {
            Ok(Claim::Done(row)) => {
                counts.store_hits += 1;
                return Ok(CellResult {
                    key: cell_key,
                    cycles: row.total_cycles,
                    fractions: row.fractions,
                    detail: None,
                });
            }
            Ok(Claim::Claimed) => {}
            Ok(Claim::Busy(lease)) => {
                return Err(format!("{cell_key}: leased by pid {}", lease.owner))
            }
            Err(e) => return Err(format!("{cell_key}: claim: {e}")),
        }
    }
    let tb = spec.params.tb_size;
    let mut produce = || {
        log.span("apps.trace", index, || {
            let stream = produce_trace_stream(app, &input.graph, config.propagation, tb);
            counts.streams += 1;
            counts.kernels_produced += stream.len() as u64;
            counts.micro_ops += stream.iter().map(|k| k.total_ops()).sum::<u64>();
            Arc::new(stream)
        })
    };
    let stream = match &plan.cache {
        Some(cache) => log.span("trace_cache.get_or_build", index, || {
            let stream_key = StreamKey {
                app,
                graph_fp: input.fp,
                prop: config.propagation,
                tb_size: tb,
                policy_fp: Workload::new(app, &input.graph).policy_fingerprint(config.propagation),
            };
            cache.get_or_build(stream_key, graph_name, &NOOP, || 0, produce)
        }),
        None => produce(),
    };
    let mut sim = log.span("sim.build", index, || {
        Simulation::builder(spec.params.clone(), config.hw())
            .budget(spec.budget)
            .build()
    });
    let stats = log.span("sim.run", index, || {
        for kernel in stream.iter() {
            sim.run_kernel(kernel);
        }
        sim.finish()
    });
    counts.sim_kernels += stats.kernels;
    counts.sim_cycles += stats.total_cycles;
    for (acc, class) in counts.class_cycles.iter_mut().zip(StallClass::ALL) {
        *acc += stats.breakdown.get(class);
    }
    counts.mem += stats.mem;
    if let Some(target) = &plan.store {
        counts.publishes += 1;
        let row = row_of(config, &stats);
        log.span("store.publish", index, || {
            target
                .store
                .publish(&target.hash, app.mnemonic(), graph_name, &row)
        })
        .map_err(|e| format!("{cell_key}: publish: {e}"))?;
    }
    Ok(CellResult::from_stats(cell_key, &stats))
}

/// What one replay worker hands back: its spans, its cells' results by
/// job index, and its work counts.
type WorkerOutput = (Vec<Span>, Vec<(u32, Result<CellResult, String>)>, Counts);

fn run_plan(plan: &Plan<'_>, workers: usize, origin: Instant) -> Vec<WorkerOutput> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let next = &next;
                scope.spawn(move || {
                    let log = SpanLog::new(origin, w as u32);
                    let mut counts = Counts::default();
                    let mut results = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= plan.cells.len() {
                            break;
                        }
                        let index = i as u32;
                        let result =
                            log.span(CELL, index, || replay_cell(plan, index, &log, &mut counts));
                        results.push((index, result));
                    }
                    (log.into_spans(), results, counts)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay worker panicked"))
            .collect()
    })
}

/// Which workload a replay mirrors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayKind {
    Study { workers: usize },
    Frontier { seed: u64, graph_seed: Option<u64> },
}

/// Replays a workload's cells with spans around each layer call.
/// `store_path` is required for [`ReplayKind::Study`] (which also
/// mirrors `resume` when the store is warm).
pub fn replay(
    spec: &ExperimentSpec,
    kind: ReplayKind,
    store_path: Option<&Path>,
) -> Result<Replay, String> {
    let origin = Instant::now();
    let setup_log = SpanLog::new(origin, 0);
    let (workload, graph_seed, workers) = match kind {
        ReplayKind::Study { workers } => ("study", None, workers),
        ReplayKind::Frontier { graph_seed, .. } => ("frontier-cold", graph_seed, 1),
    };
    let store = match (kind, store_path) {
        (ReplayKind::Study { .. }, Some(path)) => Some(
            setup_log
                .span("store.open", NO_CELL, || Store::open(path))
                .map_err(|e| format!("open store: {e}"))?,
        ),
        (ReplayKind::Study { .. }, None) => return Err("study replay needs a store".to_owned()),
        _ => None,
    };
    if let Some(store) = &store {
        // run_study scans the store once up front.
        setup_log
            .span("store.load", NO_CELL, || store.load())
            .map_err(|e| format!("load store: {e}"))?;
    }
    let inputs = inputs_for(workload, spec, graph_seed, Some(&setup_log));
    let setup_wall_s = secs(origin);

    let cells = match kind {
        ReplayKind::Study { .. } => (0..inputs.len())
            .flat_map(|gi| {
                AppKind::ALL.into_iter().flat_map(move |app| {
                    figure5_configs(app).into_iter().map(move |c| (gi, app, c))
                })
            })
            .collect(),
        ReplayKind::Frontier { seed, .. } => {
            let cells = frontier_cells();
            call_order(cells.len(), seed)
                .into_iter()
                .map(|i| cells[i])
                .collect()
        }
    };
    let plan = Plan {
        spec,
        inputs: &inputs,
        cells,
        store: store.as_ref().map(|store| StoreTarget {
            store,
            hash: versioned_spec_hash(&spec_hash(spec, ConfigSet::Figure5)),
        }),
        cache: matches!(kind, ReplayKind::Study { .. })
            .then(|| TraceCache::new(StudyOptions::default().trace_cache_bytes)),
    };
    let cells_start = Instant::now();
    let per_worker = run_plan(&plan, workers, origin);
    let cells_wall_s = secs(cells_start);

    let mut replay = Replay {
        wall_s: secs(origin),
        setup_wall_s,
        cells_wall_s,
        workers,
        trace_cache: plan.cache.as_ref().map(|c| c.stats()),
        ..Replay::default()
    };
    replay.counts.graph_edges = inputs.iter().map(|i| i.graph.num_edges()).sum();
    let mut results = Vec::new();
    for (spans, worker_results, counts) in per_worker {
        replay.logs.push(spans);
        replay.counts.add(&counts);
        results.extend(worker_results);
    }
    let mut setup_spans = setup_log.into_spans();
    for span in &mut setup_spans {
        span.worker = workers as u32;
    }
    replay.logs.push(setup_spans);
    results.sort_by_key(|(i, _)| *i);
    for (_, result) in results {
        match result {
            Ok(cell) => replay.cells.push(cell),
            Err(e) => replay.failed.push(e),
        }
    }
    Ok(replay)
}
