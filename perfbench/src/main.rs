//! `perfbench`: the repository's benchmark. It runs one workload of the
//! GGS reproduction for a fixed time, checks its outputs, and prints
//! every metric by name with its unit. The last line of standard output
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload study|frontier-cold|resume --seed N --seconds S --trace 0|1 \
//!     [--graph-seed N]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` replays the
//! same cells with spans around every layer call and prints the
//! per-layer metrics. See `perfbench/README.md`.

mod check;
mod spans;
mod work;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use check::{mem_fingerprint, rows_fingerprint, shipped_pins, CellResult, Checks, Pins};
use spans::LayerTimes;
use work::{Pass, Replay, ReplayKind, STUDY_CELLS};

const WORKLOADS: [&str; 3] = ["study", "frontier-cold", "resume"];
/// Passes a run makes at least, however short `--seconds` is: one
/// `study` pass takes longer than a run's budget, and a median of one
/// sample would carry the host's noise straight into `wall_s`.
const MIN_PASSES: usize = 2;
/// Set-up samples a run takes at least, topping up with extra input
/// syntheses when its passes recorded fewer.
const MIN_SETUP_SAMPLES: usize = 5;
/// Run-time files (stores, span dumps) live here, under the directory
/// the benchmark is run from; per-run stores are removed on exit, the
/// warm store `resume` starts from is kept per build.
const RUN_DIR: &str = ".perfbench";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    /// `frontier-cold` only: re-seeds its graphs (`SynthConfig::seed`);
    /// `None` keeps each preset's own seed, the one the pins hold for.
    graph_seed: Option<u64>,
    seconds: f64,
    trace: bool,
    /// Run a single pass and print its [`Summary`] (the child side of
    /// an end-to-end run).
    one_pass: bool,
    store: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        graph_seed: None,
        seconds: 10.0,
        trace: false,
        one_pass: false,
        store: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--graph-seed" => {
                args.graph_seed = Some(value()?.parse().map_err(|e| format!("--graph-seed: {e}"))?)
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--one-pass" => args.one_pass = true,
            "--store" => args.store = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.graph_seed.is_some() && args.workload != "frontier-cold" {
        return Err(
            "--graph-seed applies to frontier-cold only: run_study synthesises its own inputs"
                .to_owned(),
        );
    }
    Ok(args)
}

/// A per-run directory under [`RUN_DIR`], removed when dropped.
struct TmpDir(PathBuf);

impl TmpDir {
    fn create(tag: &str) -> Result<Self, String> {
        let path = Path::new(RUN_DIR).join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(TmpDir(path))
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Removes a store and its lock file.
fn remove_store(path: &Path) {
    let _ = std::fs::remove_file(path);
    let mut lock = path.as_os_str().to_owned();
    lock.push(".lock");
    let _ = std::fs::remove_file(PathBuf::from(lock));
}

fn store_kb(path: &Path) -> f64 {
    std::fs::metadata(path)
        .map(|m| m.len() as f64 / 1024.0)
        .unwrap_or(0.0)
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The nearest-rank median: for an even count, the lower of the two
/// middle values (the faster of a `study` run's two passes).
fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile; 0 for an empty sample.
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Worker threads of a `study` or `resume` pass.
fn workers(workload: &str) -> usize {
    if workload == "resume" {
        work::RESUME_WORKERS
    } else {
        work::STUDY_WORKERS
    }
}

/// What one pass reports to the run that made it: its measurements and
/// the behaviour fingerprints the checks need. Each pass of an
/// end-to-end run is a child process of its own and prints this as one
/// line, so every pass starts from a fresh process, as a user's `repro`
/// invocation does, and `peak_rss_mb` is that process's own.
#[derive(Debug, Clone, PartialEq)]
struct Summary {
    wall_s: f64,
    setup_s: f64,
    rss_mb: f64,
    attempted: u64,
    failed: u64,
    simulated: u64,
    store_hits: u64,
    sink_misses: u64,
    sink_hits: u64,
    rows: u64,
    mem: Option<u64>,
    exact: u64,
    worst: f64,
    cell_ms: Vec<f64>,
}

const SUMMARY_TAG: &str = "perfbench-pass";

impl Summary {
    fn of(pass: &Pass, rss_mb: f64) -> Self {
        let (exact, worst) = pass.paper.unwrap_or((0, 0.0));
        Self {
            wall_s: pass.wall_s,
            setup_s: pass.setup_s,
            rss_mb,
            attempted: pass.attempted,
            failed: pass.failed,
            simulated: pass.simulated,
            store_hits: pass.store_hits,
            sink_misses: pass.sink_misses,
            sink_hits: pass.sink_hits,
            rows: rows_fingerprint(&pass.cells),
            mem: mem_fingerprint(&pass.cells),
            exact: exact as u64,
            worst,
            cell_ms: pass.cell_ms.clone(),
        }
    }

    fn to_line(&self) -> String {
        let cells: Vec<String> = self.cell_ms.iter().map(|ms| format!("{ms:?}")).collect();
        format!(
            "{SUMMARY_TAG} wall_s={:?} setup_s={:?} rss_mb={:?} attempted={} failed={} simulated={} \
             store_hits={} sink_misses={} sink_hits={} rows={:016x} mem={} exact={} worst={:?} cell_ms={}",
            self.wall_s,
            self.setup_s,
            self.rss_mb,
            self.attempted,
            self.failed,
            self.simulated,
            self.store_hits,
            self.sink_misses,
            self.sink_hits,
            self.rows,
            self.mem.map_or("-".to_owned(), |m| format!("{m:016x}")),
            self.exact,
            self.worst,
            cells.join(",")
        )
    }

    fn parse(line: &str) -> Result<Self, String> {
        let rest = line
            .strip_prefix(SUMMARY_TAG)
            .ok_or_else(|| format!("not a pass summary: {line}"))?;
        let fields: BTreeMap<&str, &str> = rest
            .split_whitespace()
            .filter_map(|kv| kv.split_once('='))
            .collect();
        let get = |k: &str| {
            fields
                .get(k)
                .copied()
                .ok_or_else(|| format!("pass summary lacks {k}"))
        };
        let float = |k: &str| get(k)?.parse::<f64>().map_err(|e| format!("{k}: {e}"));
        let int = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("{k}: {e}"));
        let hex = |v: &str| u64::from_str_radix(v, 16).map_err(|e| format!("{v}: {e}"));
        Ok(Self {
            wall_s: float("wall_s")?,
            setup_s: float("setup_s")?,
            rss_mb: float("rss_mb")?,
            attempted: int("attempted")?,
            failed: int("failed")?,
            simulated: int("simulated")?,
            store_hits: int("store_hits")?,
            sink_misses: int("sink_misses")?,
            sink_hits: int("sink_hits")?,
            rows: hex(get("rows")?)?,
            mem: match get("mem")? {
                "-" => None,
                v => Some(hex(v)?),
            },
            exact: int("exact")?,
            worst: float("worst")?,
            cell_ms: get("cell_ms")?
                .split(',')
                .filter(|v| !v.is_empty())
                .map(|v| v.parse::<f64>().map_err(|e| format!("cell_ms: {e}")))
                .collect::<Result<_, _>>()?,
        })
    }
}

/// Whether the store of a `study`/`resume` pass was expected cold or
/// warm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StoreState {
    Cold,
    Warm,
}

/// Checks one `run_study` pass: no failed cells, the expected store
/// traffic, and rows matching the pinned study fingerprint (and, for a
/// warm store, the rows the pass that wrote it produced).
fn check_study_pass(
    pass: &Summary,
    state: StoreState,
    pins: &Pins,
    warm_rows: Option<u64>,
    checks: &mut Checks,
) {
    let cells = STUDY_CELLS as u64;
    checks.attempted += pass.attempted;
    checks.expect(pass.attempted == cells, cells, || {
        format!("{} cells attempted, want {cells}", pass.attempted)
    });
    checks.expect(pass.failed == 0, pass.failed, || {
        format!("{} cells failed or timed out", pass.failed)
    });
    let (want_sim, want_hits) = match state {
        StoreState::Cold => (cells, 0),
        StoreState::Warm => (0, cells),
    };
    let traffic_ok = pass.simulated == want_sim
        && pass.store_hits == want_hits
        && pass.sink_misses == want_sim
        && pass.sink_hits == want_hits;
    let wrong = pass
        .simulated
        .abs_diff(want_sim)
        .max(pass.store_hits.abs_diff(want_hits));
    checks.expect(traffic_ok, wrong.max(1), || {
        format!(
            "store traffic: {} simulated / {} store hits ({} misses / {} hits traced), want {want_sim} / {want_hits}",
            pass.simulated, pass.store_hits, pass.sink_misses, pass.sink_hits
        )
    });
    checks.pin(pins, "study", "rows", pass.rows, cells);
    if let Some(want) = warm_rows {
        checks.expect(pass.rows == want, cells, || {
            format!(
                "resume rows {:016x} differ from the study pass that wrote the store ({want:016x})",
                pass.rows
            )
        });
    }
}

/// Checks one `frontier-cold` pass: no failed cells, and the same
/// behaviour as the run's first pass and, at the presets' own graph
/// seeds, the pin.
fn check_frontier_pass(
    pass: &Summary,
    graph_seed: Option<u64>,
    pins: &Pins,
    first: Option<u64>,
    checks: &mut Checks,
) -> u64 {
    let cells = pass.attempted;
    checks.attempted += cells;
    checks.expect(pass.failed == 0, pass.failed, || {
        format!("{} cells failed", pass.failed)
    });
    let fp = pass.mem.unwrap_or(0);
    if let Some(first) = first {
        checks.expect(fp == first, cells, || {
            format!("frontier-cold behaviour {fp:016x} differs from the first pass {first:016x}")
        });
    }
    if graph_seed.is_none() {
        checks.pin(pins, "frontier-cold", "mem", fp, cells);
    }
    fp
}

/// Checks that a traced replay reproduced its reference pass cell by
/// cell: simulated cycles always, and for the direct paths every
/// statistic.
fn check_replay(replay: &Replay, reference: &[CellResult], checks: &mut Checks) {
    checks.attempted += reference.len() as u64;
    checks.expect(replay.failed.is_empty(), replay.failed.len() as u64, || {
        format!("replay cells failed: {}", replay.failed.join("; "))
    });
    let mismatched = reference
        .iter()
        .filter(|want| {
            let got = replay.cells.iter().find(|c| c.key == want.key);
            match (got, &want.detail) {
                (Some(got), Some(_)) => got != *want,
                (Some(got), None) => got.cycles != want.cycles || got.fractions != want.fractions,
                (None, _) => true,
            }
        })
        .count() as u64;
    checks.expect(mismatched == 0, mismatched, || {
        format!("{mismatched} replayed cells differ from the untraced pass")
    });
}

/// The child side of [`spawn_pass`]: one pass, printed as a summary.
fn one_pass(args: &Args) -> ExitCode {
    let result =
        work::spec(work::SCALE).and_then(|spec| match (args.workload.as_str(), &args.store) {
            ("frontier-cold", _) => Ok(work::frontier_pass(&spec, args.seed, args.graph_seed)),
            (workload, Some(store)) => work::study_pass(&spec, store, workers(workload)),
            (_, None) => Err("a study or resume pass needs --store".to_owned()),
        });
    match result {
        Ok(pass) => {
            println!("{}", Summary::of(&pass, peak_rss_mb()).to_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one pass of `workload` in a child process and waits for it.
fn spawn_pass(workload: &str, args: &Args, store: Option<&Path>) -> Result<Summary, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate self: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &args.seed.to_string(),
        "--one-pass",
    ]);
    if let Some(graph_seed) = args.graph_seed {
        cmd.args(["--graph-seed", &graph_seed.to_string()]);
    }
    if let Some(store) = store {
        cmd.arg("--store").arg(store);
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn pass: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} pass exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with(SUMMARY_TAG))
        .ok_or_else(|| format!("{workload} pass printed no summary"))?;
    Summary::parse(line)
}

/// A warm store for `resume`: one cold `study` pass in a child process,
/// checked like any `study` pass, whose store is kept. A clean one is
/// kept under [`RUN_DIR`] for later runs of the same build (keyed by
/// this executable's size and modification time), so `resume` pays for
/// it once per build rather than once per run. Returns the store's path
/// and the rows the pass that wrote it produced.
fn warm_store(
    args: &Args,
    tmp: &TmpDir,
    pins: &Pins,
    checks: &mut Checks,
) -> Result<(PathBuf, u64), String> {
    let exe = std::env::current_exe()
        .and_then(std::fs::metadata)
        .map_err(|e| format!("stat self: {e}"))?;
    let mtime = exe
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    let kept = Path::new(RUN_DIR).join(format!("warm-{}-{mtime}.store", exe.len()));
    let kept_rows = kept.with_extension("rows");
    let cached = std::fs::read_to_string(&kept_rows)
        .ok()
        .and_then(|hex| u64::from_str_radix(hex.trim(), 16).ok());
    if let (Some(rows), true) = (cached, kept.exists()) {
        return Ok((kept, rows));
    }
    let fresh = tmp.file("warm.store");
    let pass = spawn_pass("study", args, Some(&fresh))?;
    let failures = checks.failures.len();
    check_study_pass(&pass, StoreState::Cold, pins, None, checks);
    if checks.failures.len() > failures {
        return Ok((fresh, pass.rows));
    }
    std::fs::rename(&fresh, &kept).map_err(|e| format!("keep warm store: {e}"))?;
    std::fs::write(&kept_rows, format!("{:016x}\n", pass.rows))
        .map_err(|e| format!("keep warm store rows: {e}"))?;
    Ok((kept, pass.rows))
}

/// A store for one pass: a fresh copy of the warm store, or a new path.
fn pass_store(
    warm: Option<&(PathBuf, u64)>,
    tmp: &TmpDir,
    name: &str,
) -> Result<(PathBuf, StoreState), String> {
    let path = tmp.file(name);
    remove_store(&path);
    match warm {
        Some((warm, _)) => {
            std::fs::copy(warm, &path).map_err(|e| format!("copy warm store: {e}"))?;
            Ok((path, StoreState::Warm))
        }
        None => Ok((path, StoreState::Cold)),
    }
}

struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    checks: Checks,
    notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    fn print(&self) {
        for note in &self.notes {
            println!("{note}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<26} {value:>16.6} {unit}");
        }
        let share = ratio(self.checks.failed as f64, self.checks.attempted as f64);
        println!(
            "{:<26} {share:>16.6} share ({} of {} cells)",
            "failed_share", self.checks.failed, self.checks.attempted
        );
        println!("checks passed: {}", self.checks.passed);
        for failure in &self.checks.failures {
            println!("CHECK FAILED: {failure}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.checks.attempted.max(1),
            self.checks.failed.min(self.checks.attempted.max(1)),
            metrics.join(", ")
        );
    }

    fn correct(&self) -> bool {
        self.checks.failures.is_empty() && self.checks.attempted > 0
    }
}

/// `--trace 0`: passes, each in a child process, until `--seconds` is
/// used up (at least [`MIN_PASSES`]), reporting the end-to-end metrics.
fn run_end_to_end(args: &Args, tmp: &TmpDir) -> Result<Report, String> {
    let pins = shipped_pins();
    let mut checks = Checks::default();
    let warm = match args.workload.as_str() {
        "resume" => Some(warm_store(args, tmp, &pins, &mut checks)?),
        _ => None,
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut passes: Vec<Summary> = Vec::new();
    let mut first_fp = None;
    while passes.len() < MIN_PASSES || start.elapsed() < budget {
        let pass = match args.workload.as_str() {
            "frontier-cold" => {
                let pass = spawn_pass("frontier-cold", args, None)?;
                let fp = check_frontier_pass(&pass, args.graph_seed, &pins, first_fp, &mut checks);
                first_fp.get_or_insert(fp);
                pass
            }
            workload => {
                let (path, state) = pass_store(warm.as_ref(), tmp, "pass.store")?;
                let pass = spawn_pass(workload, args, Some(&path));
                remove_store(&path);
                let pass = pass?;
                let warm_rows = warm.as_ref().map(|(_, rows)| *rows);
                check_study_pass(&pass, state, &pins, warm_rows, &mut checks);
                pass
            }
        };
        passes.push(pass);
    }
    let spec = work::spec(work::SCALE)?;
    let mut setup: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    while setup.len() < MIN_SETUP_SAMPLES {
        setup.push(work::setup_sample(&args.workload, &spec, args.graph_seed));
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let rss: Vec<f64> = passes.iter().map(|p| p.rss_mb).collect();
    let cell_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.cell_ms.iter().copied())
        .collect();
    let last = passes.last().expect("at least MIN_PASSES passes ran");

    let mut report = Report {
        metrics: Vec::new(),
        checks,
        notes: vec![
            format!(
                "perfbench {} seed={} graph-seed={:?} scale={} passes={} cell samples={} setup samples={}",
                args.workload,
                args.seed,
                args.graph_seed,
                work::SCALE,
                passes.len(),
                cell_ms.len(),
                setup.len()
            ),
            format!(
                "threads available: {}; pass walls (s): {}",
                std::thread::available_parallelism().map_or(1, |n| n.get()),
                walls
                    .iter()
                    .map(|w| format!("{w:.3}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
        ],
    };
    report.metric("wall_s", median(&walls), "s");
    report.metric("setup_s", median(&setup), "s");
    report.metric("peak_rss_mb", median(&rss), "MB");
    report.metric("cell_p50_ms", percentile(&cell_ms, 0.5), "ms");
    report.metric("cell_p90_ms", percentile(&cell_ms, 0.9), "ms");
    report.metric("paper_exact", last.exact as f64, "count");
    report.metric("paper_worst_pct", last.worst * 100.0, "%");
    Ok(report)
}

/// `--trace 1`: one untraced reference pass, then a replay of the same
/// cells with spans around each layer call, both in this process;
/// prints the per-layer metrics and writes the spans to
/// `.perfbench/spans-<workload>.jsonl`.
fn run_traced(args: &Args, tmp: &TmpDir) -> Result<Report, String> {
    let spec = work::spec(work::SCALE)?;
    let pins = shipped_pins();
    let mut checks = Checks::default();
    let warm = match args.workload.as_str() {
        "resume" => Some(warm_store(args, tmp, &pins, &mut checks)?),
        _ => None,
    };
    let reference = match args.workload.as_str() {
        "frontier-cold" => {
            let pass = work::frontier_pass(&spec, args.seed, args.graph_seed);
            check_frontier_pass(
                &Summary::of(&pass, 0.0),
                args.graph_seed,
                &pins,
                None,
                &mut checks,
            );
            pass
        }
        _ => {
            let (path, state) = pass_store(warm.as_ref(), tmp, "reference.store")?;
            let pass = work::study_pass(&spec, &path, workers(&args.workload));
            remove_store(&path);
            let pass = pass?;
            let warm_rows = warm.as_ref().map(|(_, rows)| *rows);
            check_study_pass(
                &Summary::of(&pass, 0.0),
                state,
                &pins,
                warm_rows,
                &mut checks,
            );
            pass
        }
    };
    let (replay, kb) = match args.workload.as_str() {
        "frontier-cold" => (
            work::replay(
                &spec,
                ReplayKind::Frontier {
                    seed: args.seed,
                    graph_seed: args.graph_seed,
                },
                None,
            )?,
            0.0,
        ),
        _ => {
            let (path, _) = pass_store(warm.as_ref(), tmp, "replay.store")?;
            let kind = ReplayKind::Study {
                workers: workers(&args.workload),
            };
            let replay = work::replay(&spec, kind, Some(&path));
            let kb = store_kb(&path);
            remove_store(&path);
            (replay?, kb)
        }
    };
    check_replay(&replay, &reference.cells, &mut checks);
    let want_hits = if args.workload == "resume" {
        STUDY_CELLS as u64
    } else {
        0
    };
    if args.workload != "frontier-cold" {
        checks.expect(
            replay.counts.store_hits == want_hits,
            STUDY_CELLS as u64,
            || {
                format!(
                    "replay store hits {} != {want_hits}",
                    replay.counts.store_hits
                )
            },
        );
        let fp = rows_fingerprint(&replay.cells);
        checks.pin(&pins, "study", "rows", fp, STUDY_CELLS as u64);
        if args.workload == "study" {
            let fp = mem_fingerprint(&replay.cells).unwrap_or(0);
            checks.pin(&pins, "study", "mem", fp, STUDY_CELLS as u64);
        }
    }

    let spans_path = Path::new(RUN_DIR).join(format!("spans-{}.jsonl", args.workload));
    spans::write_jsonl(&spans_path, &replay.logs)
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;

    let times = LayerTimes::from_logs(&replay.logs);
    let c = &replay.counts;
    let m = &c.mem;
    let mut report = Report {
        metrics: Vec::new(),
        checks,
        notes: vec![format!(
            "perfbench {} traced seed={} spans={} written to {}",
            args.workload,
            args.seed,
            replay.logs.iter().map(Vec::len).sum::<usize>(),
            spans_path.display()
        )],
    };
    let ms = |name: &str| times.total_ms(name);
    report.metric("graph.build_ms", ms("graph.build"), "ms");
    report.metric("graph.edges", c.graph_edges as f64, "count");
    report.metric("model.profile_ms", ms("model.profile"), "ms");

    report.metric("apps.trace_ms", ms("apps.trace"), "ms");
    report.metric("apps.streams", c.streams as f64, "count");
    report.metric("apps.kernels", c.kernels_produced as f64, "count");
    report.metric("apps.micro_ops", c.micro_ops as f64, "count");
    report.metric(
        "apps.ns_per_op",
        ratio(ms("apps.trace") * 1e6, c.micro_ops as f64),
        "ns",
    );

    let cache = replay.trace_cache.unwrap_or_default();
    report.metric("trace_cache.hits", cache.hits as f64, "count");
    report.metric("trace_cache.misses", cache.misses as f64, "count");
    report.metric(
        "trace_cache.hit_ratio",
        ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
        "ratio",
    );
    report.metric(
        "trace_cache.evicted_mb",
        cache.evicted_bytes as f64 / (1 << 20) as f64,
        "MB",
    );
    report.metric(
        "trace_cache.self_ms",
        times
            .self_ns
            .get("trace_cache.get_or_build")
            .copied()
            .unwrap_or(0) as f64
            / 1e6,
        "ms",
    );

    let loads = m.l1_hits + m.l1_misses;
    let txn = loads + m.write_throughs + m.registrations + m.l1_atomics + m.l2_atomics;
    report.metric("sim.build_us", ms("sim.build") * 1e3, "us");
    report.metric("sim.run_ms", ms("sim.run"), "ms");
    report.metric("sim.kernels", c.sim_kernels as f64, "count");
    report.metric(
        "sim.us_per_kernel",
        ratio(ms("sim.run") * 1e3, c.sim_kernels as f64),
        "us",
    );
    report.metric("sim.cycles", c.sim_cycles as f64, "cycles");
    for (name, cycles) in ["busy", "comp", "data", "sync", "idle"]
        .iter()
        .zip(c.class_cycles)
    {
        report.metric(&format!("sim.{name}_cycles"), cycles as f64, "cycles");
    }
    report.metric(
        "sim.ns_per_txn",
        ratio(ms("sim.run") * 1e6, txn as f64),
        "ns",
    );

    report.metric("mem.txn", txn as f64, "count");
    report.metric(
        "mem.l1_hit_ratio",
        ratio(m.l1_hits as f64, loads as f64),
        "ratio",
    );
    report.metric("mem.l1_misses", m.l1_misses as f64, "count");
    report.metric(
        "mem.l2_hit_ratio",
        ratio(m.l2_hits as f64, (m.l2_hits + m.l2_misses) as f64),
        "ratio",
    );
    report.metric("mem.l2_misses", m.l2_misses as f64, "count");
    report.metric("mem.l1_atomics", m.l1_atomics as f64, "count");
    report.metric("mem.l2_atomics", m.l2_atomics as f64, "count");
    report.metric("mem.registrations", m.registrations as f64, "count");
    report.metric("mem.remote_transfers", m.remote_transfers as f64, "count");
    report.metric("mem.write_throughs", m.write_throughs as f64, "count");
    report.metric("mem.invalidations", m.invalidations as f64, "count");
    report.metric("mem.mshr_stalls", m.mshr_stalls as f64, "count");
    report.metric("mem.sb_stalls", m.store_buffer_stalls as f64, "count");
    report.metric("noc.line_transfers", m.noc_line_transfers as f64, "count");
    report.metric("noc.control_msgs", m.noc_control_messages as f64, "count");

    report.metric("store.claims", c.claims as f64, "count");
    report.metric("store.claim_ms", ms("store.claim"), "ms");
    report.metric("store.publishes", c.publishes as f64, "count");
    report.metric("store.publish_ms", ms("store.publish"), "ms");
    report.metric("store.load_ms", ms("store.open") + ms("store.load"), "ms");
    report.metric("store.hits", c.store_hits as f64, "count");
    report.metric("store.kb", kb, "KiB");

    let r = &reference.runner;
    let cell_sum_s = reference.cell_ms.iter().sum::<f64>() / 1e3;
    let longest_s = reference.cell_ms.iter().copied().fold(0.0, f64::max) / 1e3;
    report.metric("runner.generate_s", r.generate_s, "s");
    report.metric("runner.simulate_s", r.simulate_s, "s");
    report.metric("runner.aggregate_ms", r.aggregate_ms, "ms");
    report.metric("runner.cell_sum_s", cell_sum_s, "s");
    report.metric("runner.longest_cell_s", longest_s, "s");
    report.metric(
        "runner.busy_share",
        ratio(cell_sum_s, r.threads as f64 * r.simulate_s),
        "ratio",
    );

    // The replay's serial input phase has one thread of wall to cover,
    // its cell phase one per worker.
    let available_s = replay.setup_wall_s + replay.workers as f64 * replay.cells_wall_s;
    let covered_s = times.layer_self_s();
    report.metric("trace.layer_self_s", covered_s, "s");
    report.metric(
        "trace.unaccounted_pct",
        100.0 * (1.0 - ratio(covered_s, available_s)),
        "%",
    );
    report.metric(
        "trace.overhead_pct",
        100.0 * (ratio(replay.wall_s, reference.wall_s) - 1.0),
        "%",
    );
    report.notes.push(format!(
        "untraced wall {:.3} s, traced wall {:.3} s; layer self times cover {:.3} of {:.3} thread-seconds (cells {:.3} s summed by the runner)",
        reference.wall_s, replay.wall_s, covered_s, available_s, cell_sum_s
    ));
    for (name, ns) in &times.self_ns {
        report
            .notes
            .push(format!("  self {name:<26} {:>12.3} ms", *ns as f64 / 1e6));
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--graph-seed <n>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.one_pass {
        return one_pass(&args);
    }
    let tmp = match TmpDir::create(&args.workload) {
        Ok(tmp) => tmp,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = if args.trace {
        run_traced(&args, &tmp)
    } else {
        run_end_to_end(&args, &tmp)
    };
    drop(tmp);
    match result {
        Ok(report) => {
            report.print();
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggs_core::study::ResultRow;
    use ggs_core::Store;

    /// A small scale keeps the self-tests to seconds; the checks are the
    /// ones the benchmark runs at full scale.
    const TEST_SCALE: f64 = 0.004;

    #[test]
    fn perturbed_frontier_pin_is_reported() {
        let spec = work::spec(TEST_SCALE).unwrap();
        let pass = Summary::of(&work::frontier_pass(&spec, 7, None), 0.0);
        let fp = pass.mem.unwrap();
        let pins = Pins::parse(&format!("frontier-cold mem {fp:016x}\n")).unwrap();

        let mut clean = Checks::default();
        check_frontier_pass(&pass, None, &pins, None, &mut clean);
        assert!(clean.failures.is_empty(), "{:?}", clean.failures);

        let mut checks = Checks::default();
        check_frontier_pass(
            &pass,
            None,
            &pins.perturbed("frontier-cold", "mem"),
            None,
            &mut checks,
        );
        assert!(checks.has_failure("fingerprint"), "{:?}", checks.failures);
        assert_eq!(checks.failed, pass.attempted);
    }

    #[test]
    fn store_hit_inside_study_is_reported() {
        let spec = work::spec(TEST_SCALE).unwrap();
        let tmp = TmpDir::create("selftest").unwrap();
        let path = tmp.file("seeded.store");
        // One result already in the store: the study pass must not
        // simulate that cell, and the check must call it out.
        let hash = ggs_core::store::versioned_spec_hash(&ggs_core::runner::spec_hash(
            &spec,
            ggs_core::study::ConfigSet::Figure5,
        ));
        let row = ResultRow {
            config: "TG0".to_owned(),
            total_cycles: 1,
            fractions: [1.0, 0.0, 0.0, 0.0, 0.0],
        };
        Store::open(&path)
            .unwrap()
            .publish(&hash, "PR", "AMZ", &row)
            .unwrap();
        let pass = Summary::of(
            &work::study_pass(&spec, &path, work::STUDY_WORKERS).unwrap(),
            0.0,
        );
        let mut checks = Checks::default();
        check_study_pass(
            &pass,
            StoreState::Cold,
            &Pins::parse("").unwrap(),
            None,
            &mut checks,
        );
        assert_eq!(pass.store_hits, 1);
        assert!(checks.has_failure("store traffic"), "{:?}", checks.failures);
        assert!(checks.failed >= 1);
    }

    #[test]
    fn summary_round_trips_through_its_line() {
        let summary = Summary {
            wall_s: 1.0 / 3.0,
            setup_s: 0.1,
            rss_mb: 21.5,
            attempted: 90,
            failed: 0,
            simulated: 90,
            store_hits: 0,
            sink_misses: 0,
            sink_hits: 0,
            rows: 0xdead_beef,
            mem: None,
            exact: 5,
            worst: 0.108_779,
            cell_ms: vec![11.25, 1e-3],
        };
        assert_eq!(Summary::parse(&summary.to_line()), Ok(summary));
        assert!(Summary::parse("perfbench-pass wall_s=1").is_err());
    }
}
