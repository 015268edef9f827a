//! Running one (application, graph, configuration) experiment point.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

use ggs_apps::{AppKind, Workload};
use ggs_graph::Csr;
use ggs_model::SystemConfig;
use ggs_sim::stats::RegionStats;
use ggs_sim::trace::KernelTrace;
use ggs_sim::{BudgetBreach, ExecStats, HwConfig, SimBudget, Simulation, SystemParams};
use ggs_trace::Tracer;

use crate::error::GgsError;

/// Experiment-wide settings shared by every simulation of a study.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Scale factor applied to the synthetic inputs *and* (already) to
    /// the cache capacities inside `params`. Stored for reporting.
    pub scale: f64,
    /// Simulated hardware parameters (Table IV, possibly cache-scaled).
    pub params: SystemParams,
    /// Watchdog budget applied to every simulation run under this spec
    /// (kernel/iteration and simulated-cycle limits). Unlimited by
    /// default; every run entry point ([`run_workload_budgeted`],
    /// [`run_workload_profiled`], [`run_stream_budgeted`],
    /// [`crate::adaptive::run_adaptive_budgeted`] and
    /// [`crate::sweep::WorkloadSweep::run`]) reports a breached run as
    /// [`GgsError::Budget`].
    pub budget: SimBudget,
}

impl ExperimentSpec {
    /// A spec for inputs generated at `scale`, with cache capacities
    /// scaled to match (so the paper's volume classes are preserved —
    /// DESIGN.md §7). Rejects a non-positive or non-finite `scale`.
    pub fn try_at_scale(scale: f64) -> Result<Self, GgsError> {
        let mut params = SystemParams::default().try_scaled_caches(scale)?;
        // Scale the fixed kernel-launch overhead with the input size so
        // the overhead-to-work ratio matches the full-scale system
        // (otherwise launches dominate small inputs and bias against
        // multi-kernel variants).
        params.kernel_launch_cycles =
            ((params.kernel_launch_cycles as f64 * scale) as u64).max(100);
        // Scale resident thread blocks with the caches so each thread's
        // share of the L1 matches the full-scale machine (otherwise the
        // shrunken L1 is thrashed by an unshrunken warp population and
        // the dense-read caching that push relies on disappears).
        params.max_blocks_per_sm =
            ((params.max_blocks_per_sm as f64 * scale).round() as u32).max(1);
        // Floor the simulated L1 at one thread block's working window
        // (~8 KB): a thread block's CSR slice does not shrink with the
        // scale factor, so an exactly-scaled L1 below this floor loses
        // the intra-block locality both pull and DeNovo rely on. The
        // *classifier* keeps nominal scaling (see `metric_params`) so
        // every Table II volume class is preserved.
        params.l1_bytes = params.l1_bytes.max(8 * 1024);
        Ok(Self {
            scale,
            params,
            budget: SimBudget::UNLIMITED,
        })
    }

    /// A fluent builder over [`ExperimentSpec::try_at_scale`] that also
    /// allows overriding the derived [`SystemParams`].
    ///
    /// # Example
    ///
    /// ```
    /// use ggs_core::experiment::ExperimentSpec;
    ///
    /// let spec = ExperimentSpec::builder().scale(0.05).build()?;
    /// assert!(spec.params.l1_bytes >= 8 * 1024);
    /// assert!(ExperimentSpec::builder().scale(-1.0).build().is_err());
    /// # Ok::<(), ggs_core::error::GgsError>(())
    /// ```
    pub fn builder() -> ExperimentSpecBuilder {
        ExperimentSpecBuilder {
            scale: 1.0,
            params: None,
            budget: SimBudget::UNLIMITED,
        }
    }

    /// Metric parameters for the *nominal* scaled machine (cache
    /// capacities scaled exactly, without the simulator's L1 fidelity
    /// floor), so metric classes match the paper's Table II at every
    /// scale.
    pub fn metric_params(&self) -> ggs_model::MetricParams {
        ggs_model::MetricParams::default().scaled_caches(self.scale)
    }
}

/// Fluent builder for [`ExperimentSpec`] (see
/// [`ExperimentSpec::builder`]).
#[derive(Debug, Clone)]
pub struct ExperimentSpecBuilder {
    scale: f64,
    params: Option<SystemParams>,
    budget: SimBudget,
}

impl ExperimentSpecBuilder {
    /// Scale factor for synthetic inputs and cache capacities
    /// (default 1.0).
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Watchdog budget for every simulation run under the spec
    /// (default [`SimBudget::UNLIMITED`]).
    pub fn budget(mut self, budget: SimBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Caps the number of kernels (≈ iterations for the level-
    /// synchronous graph workloads) any single simulation may launch.
    pub fn max_kernels(mut self, limit: u64) -> Self {
        self.budget.max_kernels = Some(limit);
        self
    }

    /// Caps the simulated cycles any single simulation may accumulate.
    pub fn max_sim_cycles(mut self, limit: u64) -> Self {
        self.budget.max_cycles = Some(limit);
        self
    }

    /// Replaces the derived [`SystemParams`] wholesale. The params are
    /// used as given — no cache scaling or launch-overhead adjustment
    /// is applied on top.
    pub fn params(mut self, params: SystemParams) -> Self {
        self.params = Some(params);
        self
    }

    /// Validates and builds the spec.
    ///
    /// # Errors
    ///
    /// Returns [`GgsError::Params`] if `scale` is not positive and
    /// finite.
    pub fn build(self) -> Result<ExperimentSpec, GgsError> {
        let mut spec = ExperimentSpec::try_at_scale(self.scale)?;
        if let Some(params) = self.params {
            spec.params = params;
        }
        spec.budget = self.budget;
        Ok(spec)
    }
}

/// The graph `app` runs on: SSSP needs edge weights, so deterministic
/// ones are attached to an unweighted input; every other case borrows
/// the graph as given.
fn with_weights(app: AppKind, graph: &Csr) -> Cow<'_, Csr> {
    if app.needs_weights() && !graph.is_weighted() {
        Cow::Owned(graph.clone().with_hashed_weights(64))
    } else {
        Cow::Borrowed(graph)
    }
}

/// Where a run's kernels come from.
pub(crate) enum Kernels<'a> {
    /// Generated from the graph while the engine consumes them, so no
    /// stream is ever materialised. `regions` registers the workload's
    /// address map for per-array attribution.
    Fused { graph: &'a Csr, regions: bool },
    /// Replayed from a stream built by [`produce_trace_stream`].
    Stream(&'a [Arc<KernelTrace>]),
}

/// The one run driver behind every public entry point.
///
/// Checks that `app` supports `config`, builds the [`Simulation`] with
/// `tracer`, the workload's regions (if asked for) and the spec's
/// [`SimBudget`] merged with `deadline` (an explicit deadline overrides
/// the budget's own), and feeds it the kernels in order. Cycle limits
/// trip at the exact breach cycle and the deadline mid-kernel; once
/// either trips, remaining kernels are skipped and the run is reported
/// as [`GgsError::Budget`] / [`GgsError::Deadline`] instead of
/// returning partial statistics.
///
/// `reconfigure`, when given, picks the hardware point before every
/// kernel launch (the adaptive runner's hook).
pub(crate) fn drive<'t>(
    app: AppKind,
    kernels: Kernels<'_>,
    config: SystemConfig,
    spec: &ExperimentSpec,
    tracer: Tracer<'t>,
    deadline: Option<Instant>,
    mut reconfigure: Option<&mut dyn FnMut(&KernelTrace) -> HwConfig>,
) -> Result<Simulation<'t>, GgsError> {
    check_supported(app, config)?;
    let mut budget = spec.budget;
    budget.deadline = deadline.or(budget.deadline);
    let mut builder = Simulation::builder(spec.params.clone(), config.hw())
        .tracer(tracer)
        .budget(budget);
    let (graph, stream) = match kernels {
        Kernels::Fused { graph, regions } => {
            let graph = with_weights(app, graph);
            if regions {
                for (name, base, bytes) in Workload::new(app, &graph).memory_map() {
                    builder = builder.region(name, base, bytes);
                }
            }
            (Some(graph), &[][..])
        }
        Kernels::Stream(stream) => (None, stream),
    };
    let mut sim = builder.build();
    let started = Instant::now();
    let mut step = |kernel: &KernelTrace| {
        if sim.budget_exhausted() {
            return;
        }
        if let Some(choose) = reconfigure.as_mut() {
            sim.reconfigure(choose(kernel));
        }
        sim.run_kernel(kernel);
    };
    match &graph {
        Some(graph) => {
            Workload::new(app, graph).generate(config.propagation, spec.params.tb_size, &mut step)
        }
        None => stream.iter().for_each(|kernel| step(kernel)),
    }
    match sim.budget_breach() {
        Some(BudgetBreach::Deadline { .. }) => {
            let limit_ms = budget
                .deadline
                .map(|d| d.saturating_duration_since(started).as_millis() as u64)
                .unwrap_or(0);
            Err(GgsError::Deadline { limit_ms })
        }
        Some(breach) => Err(GgsError::Budget(breach)),
        None => Ok(sim),
    }
}

fn check_supported(app: AppKind, config: SystemConfig) -> Result<(), GgsError> {
    if app.supported_propagations().contains(&config.propagation) {
        Ok(())
    } else {
        Err(GgsError::Unsupported {
            app: app.to_string(),
            propagation: config.propagation.to_string(),
        })
    }
}

/// Simulates `app` on `graph` under `config` and returns the final
/// execution statistics — the default way to run one workload.
///
/// The application's kernel sequence is generated (streamed) into a
/// fresh [`Simulation`] configured with the hardware half of `config`;
/// cache and ownership state persist across the workload's kernels, as
/// on the simulated machine. Every simulator event is emitted through
/// `tracer` ([`Tracer::off`] runs without instrumentation at zero
/// cost). SSSP's weights are attached on the fly when missing.
///
/// # Errors
///
/// [`GgsError::Unsupported`] if `app` does not support
/// `config.propagation` (e.g. push for CC); [`GgsError::Budget`] /
/// [`GgsError::Deadline`] if the spec's [`SimBudget`] or `deadline`
/// trips (see [`ExperimentSpec::budget`]).
pub fn run_workload_budgeted(
    app: AppKind,
    graph: &Csr,
    config: SystemConfig,
    spec: &ExperimentSpec,
    tracer: Tracer<'_>,
    deadline: Option<Instant>,
) -> Result<ExecStats, GgsError> {
    let kernels = Kernels::Fused {
        graph,
        regions: false,
    };
    drive(app, kernels, config, spec, tracer, deadline, None).map(Simulation::finish)
}

/// Like [`run_workload_budgeted`], additionally registering the
/// application's address map so the result carries GSI-style
/// per-data-structure attribution (`(array name, stats)` in address
/// order).
///
/// # Errors
///
/// As for [`run_workload_budgeted`].
pub fn run_workload_profiled(
    app: AppKind,
    graph: &Csr,
    config: SystemConfig,
    spec: &ExperimentSpec,
    tracer: Tracer<'_>,
    deadline: Option<Instant>,
) -> Result<(ExecStats, Vec<(String, RegionStats)>), GgsError> {
    let kernels = Kernels::Fused {
        graph,
        regions: true,
    };
    let sim = drive(app, kernels, config, spec, tracer, deadline, None)?;
    let regions = sim.region_stats();
    Ok((sim.finish(), regions))
}

/// Materializes the kernel stream of `(app, graph, prop, tb_size)` —
/// the *functional* half of a workload run, shared by every
/// configuration cell of a direction (the stream never depends on
/// coherence, consistency, or timing; see [`Workload::produce`]).
///
/// SSSP's weights are attached exactly as the run driver attaches
/// them, so [`run_stream_budgeted`] on this stream matches
/// [`run_workload_budgeted`] on the same graph bit for bit.
///
/// # Panics
///
/// Panics if `prop` is not supported by `app` (see
/// [`AppKind::supported_propagations`]).
pub fn produce_trace_stream(
    app: AppKind,
    graph: &Csr,
    prop: ggs_model::Propagation,
    tb_size: u32,
) -> Vec<Arc<KernelTrace>> {
    Workload::new(app, &with_weights(app, graph)).stream(prop, tb_size)
}

/// Timing half of the split workload run: simulates a pre-built kernel
/// `stream` (from [`produce_trace_stream`], possibly shared through a
/// `TraceCache`) under `config`. Feeding the same kernels in the same
/// order through the same engine makes the statistics bit-identical to
/// [`run_workload_budgeted`].
///
/// # Errors
///
/// As for [`run_workload_budgeted`].
pub fn run_stream_budgeted(
    stream: &[Arc<KernelTrace>],
    app: AppKind,
    config: SystemConfig,
    spec: &ExperimentSpec,
    tracer: Tracer<'_>,
    deadline: Option<Instant>,
) -> Result<ExecStats, GgsError> {
    let kernels = Kernels::Stream(stream);
    drive(app, kernels, config, spec, tracer, deadline, None).map(Simulation::finish)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggs_graph::GraphBuilder;
    use ggs_model::Propagation;
    use ggs_sim::{CoherenceKind, ConsistencyModel};
    use std::time::Duration;

    const SGR: SystemConfig = SystemConfig {
        propagation: Propagation::Push,
        coherence: CoherenceKind::Gpu,
        consistency: ConsistencyModel::DrfRlx,
    };

    fn graph() -> Csr {
        GraphBuilder::new(1024)
            .edges((0..1023).map(|i| (i, i + 1)))
            .edges(
                (0..1024)
                    .map(|i| (i, (i * 37) % 1024))
                    .filter(|&(a, b)| a != b),
            )
            .symmetric(true)
            .try_build()
            .unwrap()
    }

    fn run(app: AppKind, g: &Csr, code: &str, spec: &ExperimentSpec) -> ExecStats {
        let config = code.parse().unwrap();
        run_workload_budgeted(app, g, config, spec, Tracer::off(), None).unwrap()
    }

    /// A public run entry point running PR on a graph under a spec,
    /// with an optional wall-clock deadline.
    type Entry = fn(&Csr, &ExperimentSpec, Option<Instant>) -> Result<(), GgsError>;

    /// Every public run entry point, by name.
    const ENTRIES: [(&str, Entry); 5] = [
        ("fused", |g, spec, deadline| {
            run_workload_budgeted(AppKind::Pr, g, SGR, spec, Tracer::off(), deadline).map(drop)
        }),
        ("stream", |g, spec, deadline| {
            let stream = produce_trace_stream(AppKind::Pr, g, SGR.propagation, spec.params.tb_size);
            run_stream_budgeted(&stream, AppKind::Pr, SGR, spec, Tracer::off(), deadline).map(drop)
        }),
        ("profiled", |g, spec, deadline| {
            run_workload_profiled(AppKind::Pr, g, SGR, spec, Tracer::off(), deadline).map(drop)
        }),
        ("adaptive", |g, spec, deadline| {
            crate::adaptive::run_adaptive_budgeted(AppKind::Pr, g, spec, Tracer::off(), deadline)
                .map(drop)
        }),
        ("sweep", |g, spec, deadline| {
            // The sweep takes its deadline from the spec's budget.
            let mut spec = spec.clone();
            spec.budget.deadline = deadline;
            crate::sweep::WorkloadSweep::run(AppKind::Pr, "g", g, &[SGR], &spec, Tracer::off())
                .map(drop)
        }),
    ];

    #[test]
    fn every_entry_enforces_the_budget_and_deadline() {
        let g = graph();
        let spec = ExperimentSpec::try_at_scale(0.05).unwrap();
        let kernel_capped = ExperimentSpec::builder()
            .scale(0.05)
            .max_kernels(1)
            .build()
            .unwrap();
        let cycle_capped = ExperimentSpec::builder()
            .scale(0.05)
            .max_sim_cycles(1)
            .build()
            .unwrap();
        let past = Instant::now() - Duration::from_millis(1);
        for (name, run) in ENTRIES {
            run(&g, &spec, None).unwrap_or_else(|e| panic!("{name}: {e}"));

            let err = run(&g, &kernel_capped, None).unwrap_err();
            assert!(matches!(err, GgsError::Budget(_)), "{name}: {err}");
            assert!(err.is_timeout() && !err.is_retryable(), "{name}: {err}");
            assert!(
                err.to_string().contains("kernel budget exhausted"),
                "{name}: {err}"
            );

            let err = run(&g, &cycle_capped, None).unwrap_err();
            assert!(matches!(err, GgsError::Budget(_)), "{name}: {err}");
            assert!(err.to_string().contains("cycle budget"), "{name}: {err}");

            let err = run(&g, &spec, Some(past)).unwrap_err();
            assert!(matches!(err, GgsError::Deadline { .. }), "{name}: {err}");
            assert!(err.is_timeout(), "{name}: {err}");
        }
    }

    #[test]
    fn every_app_runs_on_every_supported_config() {
        let g = graph();
        let spec = ExperimentSpec::try_at_scale(0.05).unwrap();
        for app in AppKind::ALL {
            for cfg in ggs_model::SystemConfig::all_for(app.algo_profile().traversal) {
                let stats = run(app, &g, &cfg.code(), &spec);
                assert!(stats.total_cycles() > 0, "{app}/{cfg} produced no cycles");
            }
        }
    }

    #[test]
    fn unsupported_propagation_is_a_typed_error() {
        let g = graph();
        let spec = ExperimentSpec::try_at_scale(1.0).unwrap();
        let err =
            run_workload_budgeted(AppKind::Cc, &g, SGR, &spec, Tracer::off(), None).unwrap_err();
        assert!(matches!(err, GgsError::Unsupported { .. }));
        assert!(err.to_string().contains("does not support"));
    }

    #[test]
    fn spec_builder_validates_scale() {
        let spec = ExperimentSpec::builder().scale(0.05).build().unwrap();
        assert_eq!(spec.scale, 0.05);
        assert_eq!(spec, ExperimentSpec::try_at_scale(0.05).unwrap());
        assert!(ExperimentSpec::builder().scale(0.0).build().is_err());
        assert!(ExperimentSpec::builder().scale(f64::NAN).build().is_err());
        assert!(ExperimentSpec::try_at_scale(-2.0).is_err());
    }

    #[test]
    fn spec_builder_accepts_explicit_params() {
        let params = ggs_sim::SystemParams::builder()
            .tb_size(128)
            .build()
            .unwrap();
        let spec = ExperimentSpec::builder()
            .params(params.clone())
            .build()
            .unwrap();
        assert_eq!(spec.params, params);
    }

    #[test]
    fn untripped_budget_does_not_perturb_the_run() {
        let g = graph();
        let unlimited = ExperimentSpec::try_at_scale(0.05).unwrap();
        let generous = ExperimentSpec::builder()
            .scale(0.05)
            .max_kernels(1 << 20)
            .max_sim_cycles(u64::MAX)
            .build()
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(3600);
        let capped = run_workload_budgeted(
            AppKind::Pr,
            &g,
            SGR,
            &generous,
            Tracer::off(),
            Some(deadline),
        )
        .unwrap();
        assert_eq!(capped, run(AppKind::Pr, &g, "SGR", &unlimited));
    }

    #[test]
    fn stream_path_is_bit_identical_to_generate_path() {
        let g = graph();
        let spec = ExperimentSpec::try_at_scale(0.05).unwrap();
        for (app, cfg) in [
            (AppKind::Pr, "TG0"),
            (AppKind::Sssp, "SD1"), // exercises the weighted clone
            (AppKind::Cc, "DDR"),
        ] {
            let cfg: ggs_model::SystemConfig = cfg.parse().unwrap();
            let stream = produce_trace_stream(app, &g, cfg.propagation, spec.params.tb_size);
            let cached =
                run_stream_budgeted(&stream, app, cfg, &spec, Tracer::off(), None).unwrap();
            let direct = run_workload_budgeted(app, &g, cfg, &spec, Tracer::off(), None).unwrap();
            assert_eq!(cached, direct, "{app}/{cfg}");
        }
    }

    #[test]
    fn sssp_weights_attached_automatically() {
        let g = graph();
        assert!(!g.is_weighted());
        let spec = ExperimentSpec::try_at_scale(0.05).unwrap();
        let stats = run(AppKind::Sssp, &g, "SG1", &spec);
        assert!(stats.total_cycles() > 0);
    }

    #[test]
    fn profiled_run_attributes_every_graph_walk() {
        let g = graph();
        let spec = ExperimentSpec::try_at_scale(0.05).unwrap();
        let (stats, regions) =
            run_workload_profiled(AppKind::Pr, &g, SGR, &spec, Tracer::off(), None).unwrap();
        // Registering regions never changes the timing.
        assert_eq!(stats, run(AppKind::Pr, &g, "SGR", &spec));
        let by_name = |n: &str| {
            regions
                .iter()
                .find(|(name, _)| name == n)
                .map(|(_, s)| *s)
                .expect("region present")
        };
        // Push PR walks col_idx and atomically updates one rank buffer
        // per iteration.
        assert!(by_name("col_idx").loads > 0);
        let rank_atomics = by_name("rank_a").atomics + by_name("rank_b").atomics;
        assert_eq!(
            rank_atomics,
            g.num_edges() * u64::from(ggs_apps::pr::ITERATIONS),
        );
        // No atomics ever hit the read-only CSR arrays.
        assert_eq!(by_name("col_idx").atomics, 0);
        assert_eq!(by_name("row_ptr").atomics, 0);
    }

    #[test]
    fn drf0_push_is_slowest_push_variant() {
        // The paper shows DRF0 performs poorly for all push configs
        // (§VI): heavy atomics + full invalidate/flush per atomic.
        let g = graph();
        let spec = ExperimentSpec::try_at_scale(0.05).unwrap();
        let t0 = run(AppKind::Pr, &g, "SG0", &spec).total_cycles();
        let t1 = run(AppKind::Pr, &g, "SG1", &spec).total_cycles();
        let tr = run(AppKind::Pr, &g, "SGR", &spec).total_cycles();
        assert!(t0 > t1, "DRF0 ({t0}) must be slower than DRF1 ({t1})");
        assert!(t1 >= tr, "DRF1 ({t1}) must not beat DRFrlx ({tr})");
    }
}
