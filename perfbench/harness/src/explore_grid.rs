//! `explore-grid`: a 1080-point, 7-axis grid through `cactid_explore::explore`.
//!
//! Why: `core` (org enumeration, prescreen, `EvalMemo`, select) does nearly
//! all the work here and `sim` none, so solve-side changes show up here.
//!
//! The seed draws 10 capacities from the twelve powers of two between
//! 16 KB and 32 MB, dropping one of the six smaller and one of the six
//! larger, so that every seed's grid costs about the same to solve (a
//! capacity's solve cost grows with its size, from about 17 to 52 ms per
//! 108 points on one thread); the other axes are fixed: blocks 32, 64; assocs 4, 8,
//! 16; cells sram / lp-dram / comm-dram; opts default / ed / c; nodes 32,
//! 45. Every pass runs a fresh engine with a fresh memo on [`THREADS`]
//! pool threads. `work_per_s` is grid points per second, median over
//! passes.
//!
//! Checks: every point's record has status `ok` (all 108 points of every
//! capacity solve, so a change that makes one infeasible or invalid fails
//! here rather than speeding the rate up), the JSONL of every pass is
//! byte-identical to the first pass, and the first pass matches a 1-thread
//! pass.

use crate::layers::{Layers, ObsAcc};
use crate::stats::{median, ratio, timed_loop, Rng};
use crate::{Args, Report};
use cactid_explore::{explore, ExploreConfig, ExploreReport, Grid, OptVariant};
use cactid_tech::{CellTechnology, TechNode, Technology};
use std::time::Instant;

/// Pool threads per pass.
pub const THREADS: usize = 2;

/// The workload's state after set-up.
pub struct Setup {
    grid: Grid,
    tech_ms: f64,
}

/// Warms the technology tables and builds the seeded grid.
pub fn setup(seed: u64) -> Setup {
    let t0 = Instant::now();
    for node in [TechNode::N32, TechNode::N45] {
        std::hint::black_box(Technology::cached(node));
    }
    let tech_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut rng = Rng::new(seed);
    let (small, large) = (14 + rng.below(6), 20 + rng.below(6));
    let capacities: Vec<u64> = (14..=25)
        .filter(|&k| k != small && k != large)
        .map(|k| 1u64 << k)
        .collect();
    let mut grid = Grid::new();
    grid.capacities = capacities;
    grid.blocks = vec![32, 64];
    grid.associativities = vec![4, 8, 16];
    grid.nodes = vec![TechNode::N32, TechNode::N45];
    grid.cells = vec![
        CellTechnology::Sram,
        CellTechnology::LpDram,
        CellTechnology::CommDram,
    ];
    grid.opts = ["default", "ed", "c"]
        .iter()
        .map(|l| OptVariant::named(l).expect("the named opt variants exist"))
        .collect();
    Setup { grid, tech_ms }
}

fn pass(grid: &Grid, threads: usize, report: &mut Report) -> Option<(f64, ExploreReport)> {
    let config = ExploreConfig {
        threads,
        pareto: true,
        ..ExploreConfig::default()
    };
    let t0 = Instant::now();
    let result = explore(grid, &config);
    let wall = t0.elapsed().as_secs_f64();
    report.attempted += 1;
    match result {
        Ok(r) => Some((wall, r)),
        Err(e) => {
            report.fail(format!("explore failed: {e}"));
            None
        }
    }
}

/// Runs passes for `--seconds`, then the output checks.
pub fn run(setup: Setup, args: &Args) -> Report {
    let grid = &setup.grid;
    let points = grid.len() as f64;
    let mut report = Report {
        work_unit: "grid points/s",
        ..Report::default()
    };
    let mut first: Option<Vec<String>> = None;
    let mut traced = Vec::new();
    let mut acc = ObsAcc::default();
    let mut st = cactid_explore::EngineStats::default();

    timed_loop(args.seconds, 3, |k| {
        // In a traced run every other pass is traced: it starts from zeroed
        // counters and reads them afterwards.
        let is_traced = args.trace && k % 2 == 1;
        let t0 = Instant::now();
        if is_traced {
            cactid_obs::reset();
        }
        let Some((wall, r)) = pass(grid, THREADS, &mut report) else {
            return;
        };
        if is_traced {
            acc.add_snapshot();
            traced.push(t0.elapsed().as_secs_f64());
            let s = r.stats;
            st.expand += s.expand;
            st.solve += s.solve;
            st.finalize += s.finalize;
        } else {
            report.rates.push(points / wall);
        }
        match &first {
            None => first = Some(r.lines),
            Some(f) if *f != r.lines => report.fail(format!("pass {k}: JSONL differs from pass 0")),
            Some(_) => {}
        }
    });
    if let (Some(f), Some((_, r))) = (&first, pass(grid, 1, &mut report)) {
        if *f != r.lines {
            report.fail("the 1-thread pass differs from the 2-thread passes".to_string());
        }
    }
    // Every point of this grid solves; the passes are identical, so the
    // first one speaks for all.
    if let Some(f) = &first {
        let ok = f.iter().filter(|l| l.contains("\"status\":\"ok\"")).count();
        report.context.push(("ok_points_per_pass", ok.to_string()));
        if let Some(bad) = f.iter().find(|l| !l.contains("\"status\":\"ok\"")) {
            report.fail(format!(
                "{ok} of {} points are ok; first other: {bad}",
                f.len()
            ));
        }
    }
    report.context.push(("threads", THREADS.to_string()));
    report.context.push(("points", grid.len().to_string()));
    report
        .context
        .push(("passes", (report.rates.len() + traced.len()).to_string()));

    if args.trace {
        let n = traced.len() as f64;
        let mut l = Layers::default();
        acc.fill(&mut l);
        l.set("tech.cached_ms", setup.tech_ms);
        l.set("explore.expand_ms", ratio(st.expand.as_secs_f64(), n) * 1e3);
        l.set("explore.solve_ms", ratio(st.solve.as_secs_f64(), n) * 1e3);
        l.set(
            "explore.finalize_ms",
            ratio(st.finalize.as_secs_f64(), n) * 1e3,
        );
        let (_, work_ns, _) = acc.hist("explore.pool.work_ns");
        l.set(
            "explore.pool.busy_ratio",
            ratio(work_ns / 1e9, THREADS as f64 * st.solve.as_secs_f64()),
        );
        let traced_wall: f64 = traced.iter().sum();
        let stage_s = (st.expand + st.solve + st.finalize).as_secs_f64();
        l.set("coverage", ratio(stage_s, traced_wall));
        let untraced_wall = ratio(points, median(&report.rates));
        l.set(
            "obs.trace_overhead_ratio",
            ratio(median(&traced), untraced_wall),
        );
        report.layers = l;
    }
    report
}
