//! Simulator throughput: the sharded epoch-synchronized engine at 1 and
//! 8 shard workers, tracked in `BENCH_sim.json`.
//!
//! Fully hermetic (no criterion) and always built. Times an 8-core and a
//! 64-core configuration through the `ShardedSimulator` at 1 and 8 shard
//! workers. The report carries simulated cycles/second for each, plus two
//! gates checkable from the artifact alone:
//!
//! * `sharded_matches_serial` — the sharded engine's stats digest is
//!   bitwise identical at 1, 2 and 8 workers on every benched config
//!   (the determinism contract; CPU-count independent).
//! * `sharded_speedup_ok` — 8 workers beat 1 worker by ≥2× in
//!   cycles/second on the 64-core config, *or* the host has fewer than 2
//!   CPUs (a single-CPU container timeshares the workers through the
//!   epoch barriers and cannot show wall-clock speedup; the value is
//!   still recorded honestly).
//!
//! Usage: `cargo bench -p cactid-bench --bench sim_throughput --
//! [--quick] [--out PATH]`. `--quick` shrinks the instruction counts for
//! CI smoke runs; `--out` chooses where the JSON lands (default
//! `BENCH_sim.json` in the working directory).

use cactid_explore::json::JsonObject;
use memsim::trace::StridedSource;
use memsim::{ShardedSimulator, SimStats, SystemConfig};
use std::time::Instant;

struct BenchRow {
    name: &'static str,
    instructions: u64,
    sharded1_cps: f64,
    sharded8_cps: f64,
    digest: u64,
    matches_serial: bool,
}

fn trace_for(cfg: &SystemConfig) -> StridedSource {
    // 48 KB per thread: mostly L2 hits with a steady trickle of L2 misses,
    // so phase A dominates but the boundary path is exercised too.
    StridedSource::with_seed(cfg.n_threads(), 0.3, 48 << 10, 1)
}

/// Best-of-`batches` simulated-cycles-per-second for one engine closure.
/// Each batch constructs a fresh simulator so cache warm-up is identical.
fn cycles_per_sec<F: FnMut() -> u64>(mut run: F, batches: u32) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..batches {
        let t = Instant::now();
        let cycles = run();
        let cps = cycles as f64 / t.elapsed().as_secs_f64();
        best = best.max(cps);
    }
    best
}

fn sharded_stats(cfg: &SystemConfig, workers: usize, n: u64) -> SimStats {
    let mut sim = ShardedSimulator::new(cfg.clone(), trace_for(cfg), workers);
    sim.run(n)
}

fn bench_config(name: &'static str, cfg: &SystemConfig, n: u64, batches: u32) -> BenchRow {
    // Determinism first (untimed): 1, 2 and 8 workers must agree bit for
    // bit before any throughput number means anything.
    let d1 = sharded_stats(cfg, 1, n).digest();
    let d2 = sharded_stats(cfg, 2, n).digest();
    let d8 = sharded_stats(cfg, 8, n).digest();
    let matches_serial = d1 == d2 && d1 == d8;

    let sharded1_cps = cycles_per_sec(
        || {
            let mut sim = ShardedSimulator::new(cfg.clone(), trace_for(cfg), 1);
            sim.run(n).cycles
        },
        batches,
    );
    let sharded8_cps = cycles_per_sec(
        || {
            let mut sim = ShardedSimulator::new(cfg.clone(), trace_for(cfg), 8);
            sim.run(n).cycles
        },
        batches,
    );
    BenchRow {
        name,
        instructions: n,
        sharded1_cps,
        sharded8_cps,
        digest: d1,
        matches_serial,
    }
}

fn render(row: &BenchRow) -> String {
    let mut o = JsonObject::new();
    o.str("config", row.name)
        .u64("instructions", row.instructions)
        .f64("sharded1_cycles_per_sec", row.sharded1_cps)
        .f64("sharded8_cycles_per_sec", row.sharded8_cps)
        .f64("sharded_speedup_8w", row.sharded8_cps / row.sharded1_cps)
        .str("stats_digest", &format!("{:016x}", row.digest))
        .bool("sharded_matches_serial", row.matches_serial);
    o.finish()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_sim.json".to_string());

    let (n_small, n_large, batches) = if quick {
        (30_000, 60_000, 2)
    } else {
        (300_000, 600_000, 3)
    };
    let rows = [
        bench_config(
            "8-core-sram-l3",
            &SystemConfig::with_sram_l3(),
            n_small,
            batches,
        ),
        bench_config("64-core", &SystemConfig::many_core(64), n_large, batches),
    ];

    let hw = cactid_core::par::host_parallelism();
    println!(
        "sim throughput ({}), host parallelism {hw}:",
        if quick { "quick" } else { "full" }
    );
    let mut matches_all = true;
    let mut speedup_ok = true;
    for row in &rows {
        println!("  {}", render(row));
        matches_all &= row.matches_serial;
        if row.name == "64-core" {
            speedup_ok = row.sharded8_cps / row.sharded1_cps >= 2.0 || hw < 2;
        }
    }

    let mut top = JsonObject::new();
    top.str("schema", "cactid-bench-sim-v2")
        .str("mode", if quick { "quick" } else { "full" })
        .u64("host_parallelism", hw as u64)
        .bool("sharded_matches_serial", matches_all)
        .bool("sharded_speedup_ok", speedup_ok)
        .raw(
            "benches",
            &format!(
                "[\n  {}\n]",
                rows.iter().map(render).collect::<Vec<_>>().join(",\n  ")
            ),
        );
    let json = format!("{}\n", top.finish());
    std::fs::write(&out_path, &json).expect("write BENCH_sim.json");
    println!(
        "wrote {out_path} (sharded_matches_serial = {matches_all}, \
         sharded_speedup_ok = {speedup_ok})"
    );
}
