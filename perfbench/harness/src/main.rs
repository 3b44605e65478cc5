//! The CACTI-D benchmark harness: one process runs one workload.
//!
//! ```text
//! perfbench --workload <explore-grid|serve-mixed|study-fig5|shard-64>
//!           --seed N --seconds S --trace 0|1 [--commit ID]
//! ```
//!
//! Every workload drives the stack through the public entry points that
//! the roadmap keeps (`explore`, `Service::new`/`handle_line`,
//! `parse_request`, `run_study`, `run_one`, `figure5`, `configs::build`,
//! `ShardedSimulator`, `NpbTrace`, `Technology::cached`, `cactid_obs`), so
//! deleting a solve variant or the legacy simulator cannot break it.
//!
//! A run has three parts:
//!
//! 1. **Set-up**, timed as `setup_s`: everything before the timed section.
//!    It is repeated in [`SETUP_SAMPLES`]` - 1` child processes of this
//!    binary (`--setup-probe`) so each sample is cold, and the median is
//!    reported. The probes run after the timed section: run before it,
//!    straight after process start, the microsecond set-ups varied
//!    twofold from run to run.
//! 2. **The timed section**, `--seconds` long: whole passes of the
//!    workload, each timed on its own; rates are medians over passes.
//! 3. **Output checks**: every failure counts in `failed` and makes the
//!    process exit non-zero.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics
//! (measured with the harness's per-layer timers off). With `--trace 1`
//! it carries the per-layer metrics: the harness times its calls into each
//! layer and reads the program's `cactid-obs` counters. From the program's
//! histograms it reads only count, sum and max, never their estimated
//! quantiles; every percentile printed here is exact, computed from the
//! harness's own samples, with the sample count beside it.
//!
//! The line holds each metric's value by name. `BENCHMARK.json` is the
//! only list of metric names and units: `perfbench/run.py` adds the units,
//! reads a per-layer metric the workload did not set as 0 (a layer it
//! never enters), and rejects any name `BENCHMARK.json` does not list.
//!
//! The end-to-end metrics are the same three on every workload, so each
//! one compares a commit against its parent on every workload:
//!
//! | metric        | explore-grid | serve-mixed | study-fig5 / shard-64 |
//! |---------------|--------------|-------------|-----------------------|
//! | `work_per_s`  | grid points/s| requests/s  | simulated instr/s     |
//! | `setup_s`     | set-up seconds, median of the cold samples          |
//! | `peak_rss_mb` | peak resident memory of the measuring process (MiB) |
//!
//! Failed over attempted operations is carried by the result's `failed`
//! and `attempted` fields rather than by a metric, because it is zero on a
//! healthy run.

mod explore_grid;
mod layers;
mod serve_mixed;
mod shard64;
mod stats;
mod study_fig5;

use layers::Layers;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Cold set-up samples per run: one in the measuring process plus
/// `SETUP_SAMPLES - 1` probe processes.
const SETUP_SAMPLES: usize = 21;

/// The simulator has no validated reference, so no simulated-error figure
/// is given.
const MODEL_NOTE: &str = "the simulator is unvalidated (no COTSon or hardware reference in the \
repository), so no simulated-error figure is given; the study's L3s start empty and stay mostly \
unfilled at bench length, so its simulated stats are a determinism check, not the paper's \
Figure 4/5";

/// Command-line arguments.
pub struct Args {
    workload: String,
    /// Workload seed; the program only ever sees the inputs made from it.
    pub seed: u64,
    /// Length of the timed section.
    pub seconds: f64,
    /// Per-layer run instead of the end-to-end run.
    pub trace: bool,
    setup_probe: bool,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        setup_probe: false,
        commit: "unknown".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            args.setup_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--commit" => args.commit.clone_from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (passes, requests or runs; see each workload).
    pub attempted: u64,
    /// Attempted operations that failed or produced a wrong output.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// The workload's headline rate, one sample per untraced pass.
    pub rates: Vec<f64>,
    /// The unit of `work_per_s` on this workload, for the summary.
    pub work_unit: &'static str,
    /// Per-layer metrics (`--trace 1` only).
    pub layers: Layers,
    /// Extra context: threads, workers, digests, sample counts.
    pub context: Vec<(&'static str, String)>,
}

impl Report {
    /// Records one failed check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.workload.as_str() {
        "explore-grid" => measure(&args, explore_grid::setup, explore_grid::run),
        "serve-mixed" => measure(&args, serve_mixed::setup, serve_mixed::run),
        "study-fig5" => measure(&args, study_fig5::setup, study_fig5::run),
        "shard-64" => measure(&args, shard64::setup, shard64::run),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            ExitCode::from(2)
        }
    }
}

fn measure<S>(args: &Args, setup: fn(u64) -> S, run: fn(S, &Args) -> Report) -> ExitCode {
    if args.setup_probe {
        let t0 = Instant::now();
        let state = setup(args.seed);
        println!("setup_s {}", t0.elapsed().as_secs_f64());
        drop(state);
        return ExitCode::SUCCESS;
    }

    let t0 = Instant::now();
    let state = setup(args.seed);
    let first_setup_s = t0.elapsed().as_secs_f64();
    // Counters are process-global: start the workload from a clean slate.
    cactid_obs::reset();
    let mut report = run(state, args);

    let peak_rss_mb = match stats::peak_rss_mb() {
        Ok(v) => v,
        Err(e) => {
            report.fail(format!("peak RSS: {e}"));
            0.0
        }
    };
    let mut setup_samples = match setup_probes(args) {
        Ok(s) => s,
        Err(e) => {
            report.fail(format!("set-up probe: {e}"));
            Vec::new()
        }
    };
    setup_samples.push(first_setup_s);
    let setup_s = stats::median(&setup_samples);
    let work_per_s = stats::median(&report.rates);
    if report.attempted == 0 {
        report.fail("no operation completed in the timed section".to_string());
        report.attempted = 1;
    }

    let mut context: Vec<(&str, String)> = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("commit", args.commit.clone()),
        ("host_parallelism", host_parallelism().to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("work_unit", report.work_unit.to_string()),
        ("setup_samples", setup_samples.len().to_string()),
        ("rate_samples", report.rates.len().to_string()),
        (
            "rate_quartiles",
            format!(
                "{} {} {}",
                stats::percentile(&report.rates, 0.25),
                work_per_s,
                stats::percentile(&report.rates, 0.75)
            ),
        ),
        ("attempted", report.attempted.to_string()),
        ("failed", report.failed.to_string()),
        (
            "fail_ratio",
            (report.failed as f64 / report.attempted as f64).to_string(),
        ),
    ];
    context.append(&mut report.context);
    context.push(("model_note", MODEL_NOTE.to_string()));
    println!("{}", context_json(&context));
    for f in &report.failures {
        eprintln!("perfbench: CHECK FAILED: {f}");
    }

    let metrics: Vec<(&str, f64)> = if args.trace {
        report.layers.iter().collect()
    } else {
        vec![
            ("setup_s", setup_s),
            ("work_per_s", work_per_s),
            ("peak_rss_mb", peak_rss_mb),
        ]
    };
    let correct = report.failed == 0;
    println!(
        "{}",
        result_json(correct, report.attempted, report.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs the cold set-up probes, one child process at a time.
fn setup_probes(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut samples = Vec::new();
    for _ in 1..SETUP_SAMPLES {
        let out = Command::new(&exe)
            .args(["--setup-probe", "--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .output()
            .map_err(|e| e.to_string())?;
        if !out.status.success() {
            return Err(format!("probe exited with {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let value = text
            .lines()
            .find_map(|l| l.strip_prefix("setup_s "))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .ok_or_else(|| format!("probe printed no set-up time: {text:?}"))?;
        samples.push(value);
    }
    Ok(samples)
}

/// The host's available parallelism, recorded with every result.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A metric value as JSON: every digit of the measurement, and 0 for the
/// non-finite results of an empty ratio.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn context_json(context: &[(&str, String)]) -> String {
    let fields: Vec<String> = context
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{\"context\": {{{}}}}}", fields.join(", "))
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value)| format!("{}: {}", json_str(name), json_num(*value)))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}
