//! Regenerates Table 2 (Micron 1 Gb DDR3-1066 validation) and measures the
//! main-memory solve.
//!
//! The criterion harness compiles only under the `criterion` feature so the
//! default workspace build stays free of registry dependencies; see
//! `crates/bench/Cargo.toml`.

#[cfg(feature = "criterion")]
mod real {
    use criterion::{criterion_group, Criterion};
    use std::hint::black_box;

    fn bench(c: &mut Criterion) {
        println!("{}", llc_study::table2::render());

        let spec = llc_study::table2::micron_spec();
        c.bench_function("table2/solve_micron_1gb", |b| {
            b.iter(|| {
                cactid_core::solve(black_box(&spec), None)
                    .result
                    .expect("solves")
            })
        });
        c.bench_function("table2/optimize_micron_1gb", |b| {
            b.iter(|| cactid_core::optimize(black_box(&spec)).expect("solves"))
        });
    }

    criterion_group!(benches, bench);

    pub fn run() {
        benches();
        Criterion::default().configure_from_args().final_summary();
    }
}

fn main() {
    #[cfg(feature = "criterion")]
    real::run();
    #[cfg(not(feature = "criterion"))]
    eprintln!("table2: built without the `criterion` feature; see crates/bench/Cargo.toml");
}
