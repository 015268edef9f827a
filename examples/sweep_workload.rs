//! Sweep one workload across the full design space and compare against
//! the model's prediction — one group of the paper's Figure 5, but over
//! all 12 configurations instead of the 5 shown. Each row also reports
//! the host milliseconds its run took (trace production and simulation,
//! one configuration at a time on the calling thread).
//!
//! ```text
//! cargo run --release --example sweep_workload -- SSSP RAJ 0.125
//! ```

use std::time::Instant;

use gpu_graph_spec::prelude::*;

fn main() -> Result<(), GgsError> {
    let mut args = std::env::args().skip(1);
    let app: AppKind = args.next().unwrap_or_else(|| "SSSP".into()).parse()?;
    let preset: GraphPreset = args.next().unwrap_or_else(|| "RAJ".into()).parse()?;
    let scale: f64 = args
        .next()
        .map(|s| s.parse().unwrap_or_else(|_| die("scale must be a number")))
        .unwrap_or(0.125);

    let graph = SynthConfig::preset(preset).scale(scale).generate();
    let spec = ExperimentSpec::builder().scale(scale).build()?;
    let profile = GraphProfile::measure(&graph, &spec.metric_params());
    let predicted = predict_full(&app.algo_profile(), &profile);

    eprintln!(
        "sweeping {app} on {preset} (scale {scale}, classes {})…",
        profile.class_code()
    );
    let configs = SystemConfig::all_for(app.algo_profile().traversal);
    // One single-config sweep per configuration, so each can be timed.
    let mut sweep = WorkloadSweep {
        app,
        graph_name: preset.mnemonic().into(),
        results: Vec::with_capacity(configs.len()),
    };
    let mut host_ms = Vec::with_capacity(configs.len());
    for &config in &configs {
        let start = Instant::now();
        let one = WorkloadSweep::run(
            app,
            preset.mnemonic(),
            &graph,
            &[config],
            &spec,
            Tracer::off(),
        )?;
        host_ms.push(start.elapsed().as_secs_f64() * 1e3);
        sweep.results.extend(one.results);
    }

    let baseline = baseline_config(app);
    let best = sweep
        .try_best()
        .unwrap_or_else(|| die("sweep is empty"))
        .config;
    println!(
        "{:>6} {:>12} {:>10} {:>10}  ",
        "config", "cycles", "vs base", "host ms"
    );
    let normalized = sweep.try_normalized_to(baseline)?;
    for ((config, norm), ms) in normalized.into_iter().zip(host_ms) {
        let cycles = sweep
            .result_for(config)
            .map(|r| r.stats.total_cycles())
            .unwrap_or(0);
        let mark = match config {
            c if c == best && c == predicted => "<= BEST, predicted",
            c if c == best => "<= BEST",
            c if c == predicted => "<= predicted",
            _ => "",
        };
        println!(
            "{:>6} {cycles:>12} {norm:>10.3} {ms:>10.1}  {mark}",
            config.code()
        );
    }
    println!(
        "\nmodel prediction {} runs within {:.1}% of the empirical best",
        predicted.code(),
        sweep.try_slowdown_vs_best(predicted)? * 100.0
    );
    Ok(())
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}
