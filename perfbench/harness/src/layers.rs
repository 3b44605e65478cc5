//! The per-layer metrics, and how each one relates to the end-to-end
//! metrics.
//!
//! A layer is a crate or module of the workspace. Every per-layer metric
//! `BENCHMARK.json` lists is printed on every workload; a layer the
//! workload never enters reads 0 there, which is what "should not move" looks like. Counts are per traced
//! pass. "→" names the end-to-end metric a change in the layer should move
//! and where; "=" names where it should not.
//!
//! | layer       | moves                                                        |
//! |-------------|--------------------------------------------------------------|
//! | `tech`      | → `setup_s` on every workload                                |
//! | `core`      | → `work_per_s` on explore-grid and serve-mixed (misses);     |
//! |             |   = study-fig5, shard-64 and `serve.hit_p50_us`              |
//! | `explore`   | → `work_per_s` on explore-grid; = serve-mixed hits           |
//! | `serve`     | → `work_per_s` on serve-mixed through `serve.hit_p50_us`,    |
//! |             |   `serve.req_p99_us`; = `serve.miss_p50_us` (solve-bound)    |
//! | `study`     | → `work_per_s` on study-fig5, `setup_s` through              |
//! |             |   `study.configs_build_ms`; = explore-grid, serve-mixed      |
//! | `workloads` | the floor under `work_per_s` on study-fig5 and shard-64      |
//! | `sim`       | simulated, not host, numbers: a speed-only change leaves     |
//! |             |   them identical                                             |
//! | `sim.shard` | → `work_per_s` on shard-64; = study-fig5 while the study     |
//! |             |   runs on the legacy engine                                  |
//! | `obs`       | reported with every per-layer table                          |
//!
//! How they interact: on shard-64 `shard.epochs × shard.epoch_us_mean` is
//! about the run wall, so cheaper epoch synchronization raises `work_per_s`
//! there and leaves study-fig5 alone. Run-level parallelism in the study
//! raises `study.run_overlap` toward the thread count and moves study-fig5
//! only. Prescreen or memo work moves `work_per_s` on explore-grid and
//! `serve.miss_p50_us`, but not `serve.hit_p50_us`.
//!
//! Where the values come from: `tech.cached_ms` is the first
//! `Technology::cached` of each node the workload uses, summed (part of
//! set-up); `core.*` the `core.solve.*` counters; `explore.*` the
//! `EngineStats` stages and the `explore.pool.*` metrics; `serve.*` the
//! `serve.*` counters and `handle_line`, `parse_request` and `Service::new`
//! timed by the harness; `study.*` `configs::build`, `run_study`, `run_one`
//! and `figure5` timed by the harness; `workloads.*` `TraceSource::next`
//! drawn straight from `NpbTrace`; `sim.*` the returned `SimStats`;
//! `shard.*` `ShardInfo` and the `sim.shard.*` metrics. `obs.trace_overhead_ratio`
//! is traced wall / untraced wall and `coverage` the share of the traced
//! wall the timed layer calls cover. The program's counters are always on,
//! so the overhead is that of the harness's resets, snapshots and timers.

use crate::stats::ratio;
use std::collections::BTreeMap;

/// Per-layer values of one run, by metric name. `BENCHMARK.json` lists the
/// names and units; a name set here that it does not list is refused when
/// the result is read.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The metrics set, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(&n, &v)| (n, v))
    }
}

/// `cactid-obs` counters and histogram count/sum/max summed over traced
/// passes. Call [`cactid_obs::reset`] before each traced pass and
/// [`ObsAcc::add_snapshot`] after it.
#[derive(Default)]
pub struct ObsAcc {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, (u64, u64, u64)>,
    /// Traced passes folded in.
    pub passes: usize,
}

impl ObsAcc {
    /// Folds the current registry into the sums.
    pub fn add_snapshot(&mut self) {
        let snap = cactid_obs::snapshot();
        for c in snap.counters {
            *self.counters.entry(c.name).or_default() += c.value;
        }
        for h in snap.histograms {
            let e = self.hists.entry(h.name).or_default();
            e.0 += h.count;
            e.1 += h.sum;
            e.2 = e.2.max(h.max);
        }
        self.passes += 1;
    }

    /// A counter's total.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// A counter's mean per traced pass.
    pub fn per_pass(&self, name: &str) -> f64 {
        ratio(self.counter(name), self.passes as f64)
    }

    /// A histogram's (count, sum, max).
    pub fn hist(&self, name: &str) -> (f64, f64, f64) {
        let (c, s, m) = self.hists.get(name).copied().unwrap_or_default();
        (c as f64, s as f64, m as f64)
    }

    /// Sets every metric derived from the program's own counters the same
    /// way on every workload.
    pub fn fill(&self, layers: &mut Layers) {
        let calls = self.counter("core.solve.calls");
        let orgs = self.counter("core.solve.orgs_enumerated");
        let pruned = self.counter("core.solve.bound_pruned");
        layers.set("core.solves", self.per_pass("core.solve.calls"));
        layers.set("core.orgs_per_solve", ratio(orgs, calls));
        layers.set("core.prune_ratio", ratio(pruned, orgs));
        layers.set(
            "core.feasible_ratio",
            ratio(self.counter("core.solve.feasible"), orgs),
        );
        layers.set(
            "core.reuse_per_evaluated",
            ratio(self.counter("core.solve.incremental_reuse"), orgs - pruned),
        );

        let (items, work_ns, work_max) = self.hist("explore.pool.work_ns");
        layers.set("explore.pool.item_us_mean", ratio(work_ns, items) / 1e3);
        layers.set("explore.pool.item_us_max", work_max / 1e3);
        let (_, wait_ns, _) = self.hist("explore.pool.sink_wait_ns");
        layers.set(
            "explore.pool.sink_wait_ms",
            ratio(wait_ns, self.passes as f64) / 1e6,
        );
        let (workers, claims, max_claims) = self.hist("explore.pool.claims_per_worker");
        layers.set(
            "explore.pool.claim_imbalance",
            ratio(max_claims, ratio(claims, workers)),
        );
        let hits = self.counter("explore.cache.hits");
        layers.set(
            "explore.cache.hit_ratio",
            ratio(hits, hits + self.counter("explore.cache.misses")),
        );

        let store_hits = self.counter("serve.store.hits");
        layers.set(
            "serve.hit_ratio",
            ratio(store_hits, store_hits + self.counter("serve.store.misses")),
        );
        layers.set("serve.store.inserts", self.per_pass("serve.store.inserts"));

        let (epochs, epoch_ns, epoch_max) = self.hist("sim.shard.epoch.ns");
        layers.set("shard.epoch_us_mean", ratio(epoch_ns, epochs) / 1e3);
        layers.set("shard.epoch_us_max", epoch_max / 1e3);
        layers.set(
            "shard.serial_fallbacks",
            self.per_pass("sim.shard.serial_fallback"),
        );
    }
}

/// Sets the modelled `sim.*` metrics from one or more runs' statistics.
pub fn fill_sim(layers: &mut Layers, runs: &[&memsim::SimStats]) {
    let sum = |f: &dyn Fn(&memsim::SimStats) -> u64| runs.iter().map(|s| f(s) as f64).sum::<f64>();
    let instr = sum(&|s| s.instructions);
    let loads = sum(&|s| s.loads);
    let [l1, l2, l3, mem] = [0, 1, 2, 3].map(|i| sum(&|s| s.load_level_hits[i]));
    layers.set("sim.ipc", ratio(instr, sum(&|s| s.cycles)));
    layers.set("sim.l1_hit_ratio", ratio(l1, loads));
    layers.set("sim.l2_hit_ratio", ratio(l2, loads - l1));
    layers.set("sim.l3_hit_ratio", ratio(l3, l3 + mem));
    layers.set(
        "sim.dram_per_kinstr",
        ratio(
            sum(&|s| s.counts.mem_reads + s.counts.mem_writes),
            instr / 1e3,
        ),
    );
}
