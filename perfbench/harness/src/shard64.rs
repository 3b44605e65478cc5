//! `shard-64`: a 64-core MESI system on `ShardedSimulator` with the auto
//! worker policy.
//!
//! Why: this is the only workload on `shard.rs` and `par::run_epochs`;
//! the study does not touch them while it runs on the legacy engine. Work
//! to make intra-run parallelism pay, or to remove it, shows up here.
//!
//! `SystemConfig::many_core(64)` runs a seeded
//! `NpbTrace::from_profile_seeded(ft.B)` with `workers = 0` (auto, as
//! `llc-study shard` does): a warm-up run of [`WARMUP`] instructions,
//! `reset_stats`, then a measured run of [`MEASURED`]. Each pass builds a
//! fresh simulator outside the timed section. `work_per_s` is simulated
//! instructions per host second, warm-up included, median over passes.
//!
//! Checks: every run retires its target, every pass gives the same
//! statistics digest, and that digest equals the digest of the same runs
//! on 1 worker.

use crate::layers::{fill_sim, Layers, ObsAcc};
use crate::stats::{median, ratio, timed_loop};
use crate::study_fig5::gen_ns_per_instr;
use crate::{Args, Report};
use memsim::{ShardInfo, ShardedSimulator, SimStats, SystemConfig};
use npbgen::{NpbApp, NpbTrace};
use std::time::Instant;

/// Cores of the simulated system.
const CORES: u32 = 64;
/// Warm-up instructions per pass.
pub const WARMUP: u64 = 500_000;
/// Measured instructions per pass.
pub const MEASURED: u64 = 1_500_000;

/// The workload's state after set-up.
pub struct Setup {
    cfg: SystemConfig,
    trace: NpbTrace,
    sim: ShardedSimulator<NpbTrace>,
    seed: u64,
}

/// Builds the configuration, the seeded trace and the first simulator.
pub fn setup(seed: u64) -> Setup {
    let cfg = SystemConfig::many_core(CORES);
    let trace = NpbTrace::from_profile_seeded(NpbApp::FtB.profile(), cfg.n_threads(), seed);
    let sim = ShardedSimulator::new(cfg.clone(), trace.clone(), 0);
    Setup {
        cfg,
        trace,
        sim,
        seed,
    }
}

/// One pass's outcome.
struct Pass {
    wall: f64,
    warm: SimStats,
    measured: SimStats,
    info: ShardInfo,
}

fn pass(mut sim: ShardedSimulator<NpbTrace>) -> Pass {
    let t0 = Instant::now();
    let warm = sim.run(WARMUP);
    sim.reset_stats();
    let measured = sim.run(MEASURED);
    let wall = t0.elapsed().as_secs_f64();
    Pass {
        wall,
        warm,
        measured,
        info: sim.info().clone(),
    }
}

fn check(k: &str, p: &Pass, digest: &mut Option<u64>, report: &mut Report) {
    report.attempted += 1;
    if p.warm.instructions < WARMUP || p.measured.instructions < MEASURED {
        report.fail(format!(
            "{k}: retired {} + {} of {WARMUP} + {MEASURED} instructions",
            p.warm.instructions, p.measured.instructions
        ));
    }
    let d = p.measured.digest();
    match *digest {
        None => *digest = Some(d),
        Some(f) if f != d => report.fail(format!("{k}: digest {d:016x} != {f:016x}")),
        Some(_) => {}
    }
}

/// Runs passes for `--seconds`, then the 1-worker check.
pub fn run(setup: Setup, args: &Args) -> Report {
    let Setup {
        cfg,
        trace,
        sim,
        seed,
    } = setup;
    let fresh = |workers| ShardedSimulator::new(cfg.clone(), trace.clone(), workers);
    let mut report = Report {
        work_unit: "simulated instr/s",
        ..Report::default()
    };
    let mut digest = None;
    let (mut auto_walls, mut one_walls) = (Vec::new(), Vec::new());
    let mut acc = ObsAcc::default();
    let mut traced: Vec<Pass> = Vec::new();
    let mut traced_walls = Vec::new();
    let mut first_sim = Some(sim);
    let mut workers_used = 0;

    timed_loop(args.seconds, 3, |k| {
        // A traced run cycles through an untraced auto-worker pass, a
        // traced one (read through the counters) and a 1-worker pass for
        // the speed-up.
        let phase = if args.trace { k % 3 } else { 0 };
        let workers = if phase == 2 { 1 } else { 0 };
        let sim = match first_sim.take() {
            Some(s) if workers == 0 => s,
            _ => fresh(workers),
        };
        let t0 = Instant::now();
        if phase == 1 {
            cactid_obs::reset();
        }
        let p = pass(sim);
        check(&format!("pass {k}"), &p, &mut digest, &mut report);
        match phase {
            0 => {
                workers_used = p.info.last_workers;
                auto_walls.push(p.wall);
                report
                    .rates
                    .push((p.warm.instructions + p.measured.instructions) as f64 / p.wall);
            }
            1 => {
                acc.add_snapshot();
                traced_walls.push(t0.elapsed().as_secs_f64());
                traced.push(p);
            }
            _ => one_walls.push(p.wall),
        }
    });
    if one_walls.is_empty() {
        let p = pass(fresh(1));
        check("1-worker pass", &p, &mut digest, &mut report);
        one_walls.push(p.wall);
    }
    report.context.push(("cores", CORES.to_string()));
    report
        .context
        .push(("workers_requested", "0 (auto)".to_string()));
    report
        .context
        .push(("workers_used", workers_used.to_string()));
    report
        .context
        .push(("digest", format!("{:016x}", digest.unwrap_or(0))));
    report
        .context
        .push(("instructions_per_pass", (WARMUP + MEASURED).to_string()));
    report.context.push((
        "passes",
        (auto_walls.len() + traced.len() + one_walls.len()).to_string(),
    ));

    if args.trace {
        let mut l = Layers::default();
        acc.fill(&mut l);
        let n = traced.len() as f64;
        let sum = |f: &dyn Fn(&Pass) -> f64| traced.iter().map(f).sum::<f64>();
        let instr = sum(&|p| (p.warm.instructions + p.measured.instructions) as f64);
        let epochs = sum(&|p| p.info.epochs as f64);
        let thread_cycles =
            sum(&|p| ((p.warm.cycles + p.measured.cycles) * cfg.n_threads() as u64) as f64);
        let wall = sum(&|p| p.wall);
        l.set("shard.workers", workers_used as f64);
        l.set("shard.epochs", ratio(epochs, n));
        l.set("shard.instr_per_epoch", ratio(instr, epochs));
        l.set(
            "shard.msgs_per_epoch",
            ratio(sum(&|p| p.info.messages as f64), epochs),
        );
        l.set(
            "shard.stall_cycle_share",
            ratio(sum(&|p| p.info.stall_cycles as f64), thread_cycles),
        );
        let (_, epoch_ns, _) = acc.hist("sim.shard.epoch.ns");
        l.set("shard.epoch_share", ratio(epoch_ns / 1e9, wall));
        l.set(
            "shard.speedup_auto_vs_1w",
            ratio(median(&one_walls), median(&auto_walls)),
        );
        let stats: Vec<&SimStats> = traced.iter().map(|p| &p.measured).collect();
        fill_sim(&mut l, &stats);
        l.set("coverage", ratio(wall, traced_walls.iter().sum()));
        l.set(
            "obs.trace_overhead_ratio",
            ratio(median(&traced_walls), median(&auto_walls)),
        );
        l.set("workloads.gen_ns_per_instr", gen_ns_per_instr(seed));
        report.layers = l;
    }
    report
}
