//! Cold vs warm request latency of the `cactid-serve` service, tracked in
//! `BENCH_serve.json`.
//!
//! Fully hermetic (no criterion) and always built. Drives the same three
//! representative specs as the solve benchmark — an SRAM L2, an LP-DRAM
//! L3 and a COMM-DRAM main-memory chip — through the service's line
//! handler twice:
//!
//! * **cold** — a fresh service with an empty persistent store: the
//!   request pays the full organization sweep, then spills its record.
//! * **warm** — the store file reopened by a *new* service (a restart,
//!   not a memo hit): the duplicate request is answered from disk with no
//!   model evaluation, and the answer is asserted byte-identical to the
//!   cold one.
//!
//! The report carries per-spec cold latency, warm p50/p90/p99, warm
//! queries/second and the warm-vs-cold speedup; the serve PR's acceptance
//! bar (warm speedup > 5× on at least one spec) is baked in as a boolean
//! so it stays checkable from the artifact alone.
//!
//! Usage: `cargo bench -p cactid-bench --bench serve_throughput --
//! [--quick] [--out PATH]`. `--quick` shrinks repetition counts for CI
//! smoke runs; `--out` chooses where the JSON lands (default
//! `BENCH_serve.json` in the working directory).

use cactid_explore::json::JsonObject;
use cactid_serve::{ServeConfig, Service};
use cactid_tech::{TechNode, Technology};
use std::path::PathBuf;
use std::time::Instant;

struct BenchSpec {
    name: &'static str,
    request: &'static str,
}

const SPECS: [BenchSpec; 3] = [
    BenchSpec {
        name: "sram-l2",
        request: r#"{"id":1,"op":"solve","size":1048576,"assoc":8,"cell":"sram","node":32}"#,
    },
    BenchSpec {
        name: "lp-dram-l3",
        request: r#"{"id":2,"op":"solve","size":8388608,"assoc":16,"cell":"lp-dram","node":32}"#,
    },
    BenchSpec {
        name: "comm-dram-dimm",
        request: r#"{"id":3,"op":"solve","size":1073741824,"block":8,"banks":8,"cell":"comm-dram","node":78,"main_memory":{"io":8,"burst":8,"prefetch":8,"page":8192}}"#,
    },
];

fn answer(svc: &Service, request: &str) -> String {
    let (mut lines, _) = svc.handle_line(request);
    assert_eq!(lines.len(), 1, "solve requests answer with one record");
    let line = lines.remove(0);
    assert!(line.contains("\"status\":\"ok\""), "{line}");
    line
}

/// Exact sample quantile: sorted nearest-rank, `q` in [0, 1].
fn quantile_us(sorted: &[f64], q: f64) -> f64 {
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

struct BenchRow {
    name: &'static str,
    cold_us: f64,
    warm_p50_us: f64,
    warm_p90_us: f64,
    warm_p99_us: f64,
    warm_queries_per_sec: f64,
    warm_byte_identical: bool,
}

fn bench_spec(spec: &BenchSpec, store: &PathBuf, warm_reps: u32, batches: u32) -> BenchRow {
    // Cold: best-of-`batches`, each against a freshly created store file,
    // so every timed request pays the full sweep plus the store append.
    let mut cold_us = f64::INFINITY;
    let mut cold_line = String::new();
    for _ in 0..batches {
        std::fs::remove_file(store).ok();
        let svc = Service::new(&ServeConfig {
            threads: 1,
            store: Some(store.clone()),
        })
        .unwrap();
        let t = Instant::now();
        cold_line = answer(&svc, spec.request);
        cold_us = cold_us.min(t.elapsed().as_secs_f64() * 1e6);
    }

    // Warm: a *new* service reopens the populated store — a restart, so
    // the in-process memo is empty and every answer comes from disk.
    let svc = Service::new(&ServeConfig {
        threads: 1,
        store: Some(store.clone()),
    })
    .unwrap();
    let warm_line = answer(&svc, spec.request);
    let warm_byte_identical = warm_line == cold_line;
    assert!(svc.cache().is_empty(), "warm answers must not solve");

    let mut samples: Vec<f64> = (0..warm_reps)
        .map(|_| {
            let t = Instant::now();
            let _ = answer(&svc, spec.request);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    let warm_p50_us = quantile_us(&samples, 0.50);
    BenchRow {
        name: spec.name,
        cold_us,
        warm_p50_us,
        warm_p90_us: quantile_us(&samples, 0.90),
        warm_p99_us: quantile_us(&samples, 0.99),
        warm_queries_per_sec: 1e6 / warm_p50_us,
        warm_byte_identical,
    }
}

fn render(row: &BenchRow) -> String {
    let mut o = JsonObject::new();
    o.str("spec", row.name)
        .f64("cold_us_per_request", row.cold_us)
        .f64("warm_p50_us", row.warm_p50_us)
        .f64("warm_p90_us", row.warm_p90_us)
        .f64("warm_p99_us", row.warm_p99_us)
        .f64("warm_queries_per_sec", row.warm_queries_per_sec)
        .f64("speedup_warm_vs_cold", row.cold_us / row.warm_p50_us)
        .bool("warm_byte_identical", row.warm_byte_identical);
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
        .unwrap_or_else(|| "BENCH_serve.json".to_string());

    // Warm the per-node Technology memo so cold requests time the sweep,
    // not one-off technology table derivation.
    let _ = Technology::cached(TechNode::N32);
    let _ = Technology::cached(TechNode::N78);

    let dir = std::env::temp_dir().join(format!("cactid-serve-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench store dir");

    let (warm_reps, batches) = if quick { (64, 2) } else { (4096, 5) };
    let rows: Vec<BenchRow> = SPECS
        .iter()
        .map(|s| {
            let store = dir.join(format!("{}.store", s.name));
            let row = bench_spec(s, &store, warm_reps, batches);
            std::fs::remove_file(&store).ok();
            row
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();

    let hw = cactid_core::par::host_parallelism();
    println!(
        "serve cold vs warm ({}), host parallelism {hw}:",
        if quick { "quick" } else { "full" }
    );
    for row in &rows {
        println!("  {}", render(row));
    }

    let over_5x = rows
        .iter()
        .any(|r| r.warm_byte_identical && r.cold_us / r.warm_p50_us > 5.0);
    let mut top = JsonObject::new();
    top.str("schema", "cactid-bench-serve-v1")
        .str("mode", if quick { "quick" } else { "full" })
        .u64("host_parallelism", hw as u64)
        .bool("warm_speedup_over_5x", over_5x)
        .raw(
            "benches",
            &format!(
                "[\n  {}\n]",
                rows.iter().map(render).collect::<Vec<_>>().join(",\n  ")
            ),
        );
    let json = format!("{}\n", top.finish());
    std::fs::write(&out_path, &json).expect("write BENCH_serve.json");
    println!("wrote {out_path}");
    assert!(
        rows.iter().all(|r| r.warm_byte_identical),
        "warm answers must be byte-identical to cold solves"
    );
}
