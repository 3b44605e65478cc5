//! Microbenchmarks of the CACTI-D engine itself: organization enumeration,
//! single-array evaluation, full solve and staged selection.
//!
//! The criterion harness compiles only under the `criterion` feature so the
//! default workspace build stays free of registry dependencies; see
//! `crates/bench/Cargo.toml`.

#[cfg(feature = "criterion")]
mod real {
    use cactid_core::{solve, AccessMode, MemoryKind, MemorySpec};
    use cactid_tech::{CellTechnology, TechNode};
    use criterion::{criterion_group, Criterion};
    use std::hint::black_box;

    fn spec(capacity: u64, cell: CellTechnology) -> MemorySpec {
        MemorySpec::builder()
            .capacity_bytes(capacity)
            .block_bytes(64)
            .associativity(8)
            .banks(1)
            .cell_tech(cell)
            .node(TechNode::N32)
            .kind(MemoryKind::Cache {
                access_mode: AccessMode::Normal,
            })
            .build()
            .expect("valid spec")
    }

    fn bench(c: &mut Criterion) {
        for (label, cell) in [
            ("sram", CellTechnology::Sram),
            ("lp_dram", CellTechnology::LpDram),
            ("comm_dram", CellTechnology::CommDram),
        ] {
            let s = spec(1 << 20, cell);
            c.bench_function(&format!("solver/solve_1mb_{label}"), |b| {
                b.iter(|| solve(black_box(&s), None).result.expect("solves"))
            });
        }
        let big = spec(64 << 20, CellTechnology::CommDram);
        c.bench_function("solver/solve_64mb_comm_dram", |b| {
            b.iter(|| solve(black_box(&big), None).result.expect("solves"))
        });
        let s = spec(1 << 20, CellTechnology::Sram);
        let sols = solve(&s, None).result.expect("solves");
        c.bench_function("solver/staged_select_1mb_sram", |b| {
            b.iter(|| cactid_core::select(black_box(&s), black_box(&sols)))
        });
    }

    criterion_group!(
        name = benches;
        config = Criterion::default().sample_size(20);
        targets = bench
    );

    pub fn run() {
        benches();
        Criterion::default().configure_from_args().final_summary();
    }
}

fn main() {
    #[cfg(feature = "criterion")]
    real::run();
    #[cfg(not(feature = "criterion"))]
    eprintln!("solver: built without the `criterion` feature; see crates/bench/Cargo.toml");
}
