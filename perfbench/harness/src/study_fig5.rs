//! `study-fig5`: `run_study(n)` then `figure5`, as `llc-study fig5` runs them.
//!
//! Why: this pipeline holds the repository's wall time: 48 serial
//! `run_one`s on the legacy simulator, with almost no solve. Run-level
//! parallelism in the study shows up here.
//!
//! The inputs are the paper's fixed 8 applications × 6 configurations, so
//! the seed does not apply. The six `configs::build` calls go in set-up,
//! which warms the global solve memo. `work_per_s` is simulated
//! instructions per host second, warm-up included (each run retires
//! [`INSTRUCTIONS`] of warm-up, counted at its target, then the measured
//! interval), median over passes.
//!
//! Checks: every run retires its instruction target, Figure 5 has a finite
//! row per run, and the per-run statistics digests are identical across
//! passes. The digests are recorded, not pinned: moving the study to
//! another engine may legitimately change them.

use crate::layers::{fill_sim, Layers, ObsAcc};
use crate::stats::{max, median, percentile, ratio, timed_loop};
use crate::{Args, Report};
use llc_study::configs::{self, LlcKind, StudyConfig};
use llc_study::figure4::{run_one, run_study, AppRun};
use llc_study::figure5::figure5;
use npbgen::{NpbApp, NpbTrace};
use std::time::Instant;

/// Measured instructions per run (and as many again of warm-up).
pub const INSTRUCTIONS: u64 = 50_000;

/// The workload's state after set-up.
pub struct Setup {
    configs: Vec<StudyConfig>,
    tech_ms: f64,
    build_ms: f64,
    seed: u64,
}

/// Warms the technology table and builds the six configurations.
pub fn setup(seed: u64) -> Setup {
    let t0 = Instant::now();
    std::hint::black_box(cactid_tech::Technology::cached(cactid_tech::TechNode::N32));
    let tech_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let configs = LlcKind::ALL.iter().map(|&k| configs::build(k)).collect();
    let build_ms = t1.elapsed().as_secs_f64() * 1e3;
    Setup {
        configs,
        tech_ms,
        build_ms,
        seed,
    }
}

fn instructions(runs: &[(StudyConfig, Vec<AppRun>)]) -> f64 {
    runs.iter()
        .flat_map(|(_, r)| r)
        .map(|r| (INSTRUCTIONS + r.stats.instructions) as f64)
        .sum()
}

/// Checks one pass; returns its per-run digests.
fn check(
    k: usize,
    study: &[(StudyConfig, Vec<AppRun>)],
    rows: usize,
    finite: bool,
    report: &mut Report,
) -> Vec<u64> {
    let mut digests = Vec::new();
    for (cfg, runs) in study {
        for r in runs {
            report.attempted += 1;
            if r.stats.instructions < INSTRUCTIONS {
                report.fail(format!(
                    "pass {k}: {} on {} retired {} of {INSTRUCTIONS} instructions",
                    r.app,
                    cfg.kind.label(),
                    r.stats.instructions
                ));
            }
            digests.push(r.stats.digest());
        }
    }
    if rows != digests.len() || !finite {
        report.fail(format!(
            "pass {k}: figure 5 has {rows} rows for {} runs (finite: {finite})",
            digests.len()
        ));
    }
    digests
}

/// Runs passes for `--seconds`, then reports.
pub fn run(setup: Setup, args: &Args) -> Report {
    let mut report = Report {
        work_unit: "simulated instr/s",
        ..Report::default()
    };
    let mut first: Option<Vec<u64>> = None;
    let (mut walls, mut fig5_ms) = (Vec::new(), Vec::new());
    let mut last = Vec::new();

    timed_loop(args.seconds, 2, |k| {
        let t0 = Instant::now();
        let study = run_study(INSTRUCTIONS);
        let t1 = Instant::now();
        let rows = figure5(&study);
        let wall = t0.elapsed().as_secs_f64();
        fig5_ms.push(t1.elapsed().as_secs_f64() * 1e3);
        walls.push(wall);
        report.rates.push(instructions(&study) / wall);
        let finite = rows
            .iter()
            .all(|r| r.edp.is_finite() && r.system_w.is_finite());
        let digests = check(k, &study, rows.len(), finite, &mut report);
        match &first {
            None => first = Some(digests),
            Some(f) if *f != digests => {
                report.fail(format!("pass {k}: run digests differ from pass 0"));
            }
            Some(_) => {}
        }
        last = study;
    });
    let digest = first
        .unwrap_or_default()
        .iter()
        .fold(0u64, |h, d| h.rotate_left(5) ^ d);
    report
        .context
        .push(("study_digest", format!("{digest:016x}")));
    report
        .context
        .push(("instructions_per_run", INSTRUCTIONS.to_string()));
    report.context.push(("threads", "1".to_string()));
    report.context.push(("passes", walls.len().to_string()));

    if args.trace {
        report.layers = trace(&setup, &last, &walls, &fig5_ms);
    }
    report
}

/// The per-layer run: one traced `run_study` + `figure5` pass, then the 48
/// `run_one` calls timed one by one, then the trace generator alone.
fn trace(
    setup: &Setup,
    untraced: &[(StudyConfig, Vec<AppRun>)],
    untraced_walls: &[f64],
    fig5_ms: &[f64],
) -> Layers {
    let mut l = Layers::default();
    let mut acc = ObsAcc::default();
    let t0 = Instant::now();
    cactid_obs::reset();
    let t_study = Instant::now();
    let study = run_study(INSTRUCTIONS);
    let study_s = t_study.elapsed().as_secs_f64();
    let t_fig = Instant::now();
    std::hint::black_box(figure5(&study));
    let fig_s = t_fig.elapsed().as_secs_f64();
    acc.add_snapshot();
    let pass_s = t0.elapsed().as_secs_f64();

    let mut run_ms = Vec::new();
    for cfg in &setup.configs {
        for &app in NpbApp::ALL {
            let t = Instant::now();
            std::hint::black_box(run_one(cfg, app, INSTRUCTIONS));
            run_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    let traced_s = t0.elapsed().as_secs_f64();
    let run_s_sum = run_ms.iter().sum::<f64>() / 1e3;

    acc.fill(&mut l);
    l.set("tech.cached_ms", setup.tech_ms);
    l.set("study.configs_build_ms", setup.build_ms);
    l.set("study.run_one_ms_p50", percentile(&run_ms, 0.5));
    l.set("study.run_one_ms_max", max(&run_ms));
    l.set("study.run_one_s_sum", run_s_sum);
    l.set("study.run_overlap", ratio(run_s_sum, study_s));
    l.set("study.figure5_ms", median(fig5_ms));
    let stats: Vec<&memsim::SimStats> = untraced
        .iter()
        .flat_map(|(_, r)| r)
        .map(|r| &r.stats)
        .collect();
    fill_sim(&mut l, &stats);
    l.set("coverage", ratio(study_s + fig_s + run_s_sum, traced_s));
    l.set(
        "obs.trace_overhead_ratio",
        ratio(pass_s, median(untraced_walls)),
    );
    l.set("workloads.gen_ns_per_instr", gen_ns_per_instr(setup.seed));
    l
}

/// `TraceSource::next` alone: ns per instruction drawn from the ft.B
/// profile for 256 threads.
pub fn gen_ns_per_instr(seed: u64) -> f64 {
    use memsim::TraceSource as _;
    const THREADS: usize = 256;
    const DRAWS: usize = 4_000_000;
    let mut trace = NpbTrace::from_profile_seeded(NpbApp::FtB.profile(), THREADS, seed);
    let t0 = Instant::now();
    for i in 0..DRAWS {
        std::hint::black_box(trace.next(i % THREADS));
    }
    t0.elapsed().as_secs_f64() * 1e9 / DRAWS as f64
}
