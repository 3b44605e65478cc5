//! The exploration engine: grid in, Pareto-annotated JSONL out.
//!
//! A run proceeds in three stages:
//!
//! 1. **Expand** — the grid becomes an indexed point list plus a definition
//!    fingerprint ([`crate::grid`]).
//! 2. **Solve** — completed points are restored from the checkpoint
//!    sidecars ([`crate::resume`]); the remaining valid points are grouped
//!    by spec fingerprint so duplicates cost one solve, and the groups are
//!    drained by the work-claiming pool ([`crate::pool`]). Every finished
//!    point streams to the sidecars immediately, so an interrupt loses at
//!    most the points in flight.
//! 3. **Finalize** — the Pareto frontier is extracted ([`crate::pareto`]),
//!    `ok` records are annotated, and the final JSONL is written sorted by
//!    point index via a temp-file rename.
//!
//! Records contain no timing or host data and floats render
//! shortest-round-trip, so the final file is **byte-identical** for a given
//! grid regardless of thread count, completion order, or how many times the
//! run was interrupted and resumed.

use crate::cache::SolveCache;
use crate::error::ExploreError;
use crate::grid::Grid;
use crate::pareto::{frontier, ParetoMetrics, ParetoPoint};
use crate::pool;
use crate::record;
pub use crate::record::PointStatus;
use crate::resume;
use crate::stats::EngineStats;
use cactid_core::SolutionLinter;
use cactid_tech::Technology;
use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// How to run one exploration.
#[derive(Clone, Copy, Default)]
pub struct ExploreConfig<'a> {
    /// Worker threads; `0` means the machine's available parallelism.
    pub threads: usize,
    /// Output JSONL path. `None` runs fully in memory — no sidecars, no
    /// resume.
    pub out: Option<&'a Path>,
    /// Restore completed points from the sidecars of a previous run
    /// against the same grid.
    pub resume: bool,
    /// Extract the Pareto frontier and annotate `ok` records.
    pub pareto: bool,
    /// Lint engine consulted on every candidate (shared across workers).
    pub linter: Option<&'a (dyn SolutionLinter + Sync)>,
    /// Solve memo to populate and consult. `None` (the default) gives the
    /// run a fresh private cache, preserving the engine's historical
    /// behavior byte for byte; passing a handle lets long-lived callers
    /// (the `cactid-serve` service, repeated in-process sweeps) share warm
    /// results across runs. A shared cache must only ever see one linter
    /// configuration — the linter participates in the solve but not in
    /// the cache key (see [`SolveCache`]).
    pub cache: Option<&'a SolveCache>,
}

impl fmt::Debug for ExploreConfig<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExploreConfig")
            .field("threads", &self.threads)
            .field("out", &self.out)
            .field("resume", &self.resume)
            .field("pareto", &self.pareto)
            .field("linter", &self.linter.map(|_| "dyn SolutionLinter"))
            .field("cache", &self.cache.map(|_| "SolveCache"))
            .finish()
    }
}

/// The result of one [`explore`] run.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// One rendered JSONL record per grid point, in index order,
    /// Pareto-annotated when requested — exactly the final file contents.
    pub lines: Vec<String>,
    /// The Pareto frontier (empty unless requested).
    pub frontier: Vec<ParetoPoint>,
    /// Stage counters and timing.
    pub stats: EngineStats,
}

struct Sidecars {
    part: File,
    ckpt: File,
}

impl Sidecars {
    fn open(
        out: &Path,
        fingerprint: u64,
        points: usize,
        append: bool,
    ) -> Result<Self, ExploreError> {
        let open = |p: &Path| -> Result<File, ExploreError> {
            let mut opts = OpenOptions::new();
            opts.create(true);
            if append {
                // A kill mid-write leaves a newline-less fragment; cut it
                // before appending so lines never merge.
                resume::trim_torn_tail(p)?;
                opts.append(true);
            } else {
                opts.write(true).truncate(true);
            }
            opts.open(p)
                .map_err(|e| ExploreError::Io(format!("{}: {e}", p.display())))
        };
        let part = open(&resume::part_path(out))?;
        let mut ckpt = open(&resume::ckpt_path(out))?;
        if !append {
            writeln!(ckpt, "{}", resume::header(fingerprint, points))
                .map_err(|e| ExploreError::Io(format!("checkpoint header: {e}")))?;
        }
        Ok(Sidecars { part, ckpt })
    }

    /// Records one completed point in both sidecars, flushed so a kill
    /// right after loses nothing.
    fn record(
        &mut self,
        idx: usize,
        line: &str,
        status: PointStatus,
        metrics: Option<&ParetoMetrics>,
    ) -> Result<(), ExploreError> {
        let io = |e: std::io::Error| ExploreError::Io(format!("sidecar write: {e}"));
        writeln!(self.part, "{line}").map_err(io)?;
        writeln!(self.ckpt, "{}", resume::line(idx, status, metrics)).map_err(io)?;
        self.part.flush().map_err(io)?;
        self.ckpt.flush().map_err(io)
    }
}

/// Runs one exploration. See the module docs for the staging and the
/// determinism contract.
///
/// # Errors
///
/// [`ExploreError::EmptyAxis`] / [`ExploreError::TooManyPoints`] from
/// expansion, [`ExploreError::Checkpoint`] when resuming against a changed
/// grid, and [`ExploreError::Io`] on filesystem failures. Per-point solve
/// failures are *not* errors — they become `infeasible`/`invalid` records.
pub fn explore(grid: &Grid, config: &ExploreConfig<'_>) -> Result<ExploreReport, ExploreError> {
    // ---- Stage 1: expand ----
    let t0 = Instant::now();
    let expand_span = cactid_obs::span("explore.expand");
    let expansion = grid.expand()?;
    let points = &expansion.points;
    let n = points.len();
    let mut stats = EngineStats {
        points: n,
        ..EngineStats::default()
    };
    stats.expand = t0.elapsed();
    drop(expand_span);
    cactid_obs::counter!("explore.engine.points").add(n as u64);

    // ---- Stage 2: solve ----
    let t1 = Instant::now();
    let solve_span = cactid_obs::span("explore.solve");
    let resumed = match config.out {
        Some(out) if config.resume => resume::load(out, expansion.fingerprint, n)?,
        _ => HashMap::new(),
    };
    let mut sidecars = match config.out {
        Some(out) => Some(Sidecars::open(
            out,
            expansion.fingerprint,
            n,
            !resumed.is_empty(),
        )?),
        None => None,
    };

    let mut lines: Vec<Option<String>> = vec![None; n];
    let mut statuses: Vec<Option<PointStatus>> = vec![None; n];
    let mut metrics: Vec<Option<ParetoMetrics>> = vec![None; n];

    // Place resumed points, render invalid ones, and group the remaining
    // valid points by spec fingerprint — duplicates ride along with their
    // group and cost nothing. Group order follows first point index, so
    // job numbering is deterministic.
    let mut jobs: Vec<Vec<usize>> = Vec::new();
    let mut job_of: HashMap<u64, Vec<usize>> = HashMap::new();
    for point in points {
        let idx = point.idx;
        if let Some(r) = resumed.get(&idx) {
            // A restored invalid point counts under `invalid`, not
            // `resumed`, so the accounting partition stays disjoint.
            if r.status == PointStatus::Invalid {
                stats.invalid += 1;
            } else {
                stats.resumed += 1;
            }
            lines[idx] = Some(r.line.clone());
            statuses[idx] = Some(r.status);
            metrics[idx] = r.metrics;
            continue;
        }
        match (&point.spec, point.fingerprint()) {
            (Ok(spec), Some(fp)) => {
                // Buckets resolve 64-bit collisions by spec equality, like
                // the solve memo does.
                let bucket = job_of.entry(fp).or_default();
                let existing = bucket
                    .iter()
                    .copied()
                    .find(|&j| points[jobs[j][0]].spec.as_ref().ok() == Some(spec));
                match existing {
                    Some(j) => jobs[j].push(idx),
                    None => {
                        bucket.push(jobs.len());
                        jobs.push(vec![idx]);
                    }
                }
            }
            _ => {
                let err = point.spec.as_ref().expect_err("no fingerprint means Err");
                let line = record::render_invalid(point, err);
                if let Some(s) = sidecars.as_mut() {
                    s.record(idx, &line, PointStatus::Invalid, None)?;
                }
                lines[idx] = Some(line);
                statuses[idx] = Some(PointStatus::Invalid);
                stats.invalid += 1;
            }
        }
    }
    stats.unique_specs = jobs.len();

    // Injected handle or a run-private memo: the run-private default keeps
    // the historical behavior (and the determinism tests' bytes) intact.
    let private_cache;
    let cache = match config.cache {
        Some(shared) => shared,
        None => {
            private_cache = SolveCache::new();
            &private_cache
        }
    };
    let linter = config.linter;
    let tech_before = Technology::constructions();
    let mut io_error: Option<ExploreError> = None;
    pool::run_indexed(
        config.threads,
        jobs.len(),
        |j| {
            let Ok(spec) = points[jobs[j][0]].spec.as_ref() else {
                unreachable!("job specs are valid")
            };
            cache.solve_point(spec, linter.map(|l| l as &dyn SolutionLinter))
        },
        |j, (solved, was_cached)| {
            let group = &jobs[j];
            if was_cached {
                stats.memoized += group.len();
            } else {
                stats.solved += 1;
                stats.memoized += group.len() - 1;
                stats.orgs_enumerated += solved.stats.orgs_enumerated;
                stats.bound_pruned += solved.stats.bound_pruned;
                stats.lint_rejected += solved.stats.lint_rejected;
            }
            let status = record::solved_status(&solved);
            let m = solved.result.as_ref().ok().map(record::solution_metrics);
            for &idx in group {
                let line = record::render_solved(&points[idx], &solved);
                if io_error.is_none() {
                    if let Some(s) = sidecars.as_mut() {
                        if let Err(e) = s.record(idx, &line, status, m.as_ref()) {
                            io_error = Some(e);
                        }
                    }
                }
                lines[idx] = Some(line);
                statuses[idx] = Some(status);
                metrics[idx] = m;
            }
        },
    );
    if let Some(e) = io_error {
        return Err(e);
    }
    stats.tech_constructions = Technology::constructions() - tech_before;
    stats.solve = t1.elapsed();
    drop(solve_span);

    // ---- Stage 3: finalize ----
    let t2 = Instant::now();
    let _finalize_span = cactid_obs::span("explore.finalize");
    for status in statuses.iter().flatten() {
        match status {
            PointStatus::Ok => stats.ok += 1,
            PointStatus::Infeasible => stats.infeasible += 1,
            // Already counted at placement, whether fresh or resumed.
            PointStatus::Invalid => {}
        }
    }

    let mut front = Vec::new();
    if config.pareto {
        let pts: Vec<(usize, ParetoMetrics)> = metrics
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.map(|m| (i, m)))
            .collect();
        stats.non_finite = pts.iter().filter(|(_, m)| !m.is_finite()).count();
        cactid_obs::counter!("explore.engine.non_finite").add(stats.non_finite as u64);
        front = frontier(&pts);
        let dominates: HashMap<usize, usize> = front.iter().map(|p| (p.idx, p.dominates)).collect();
        for (i, line) in lines.iter_mut().enumerate() {
            if statuses[i] == Some(PointStatus::Ok) {
                let Some(line) = line.as_mut() else {
                    unreachable!("ok points are rendered")
                };
                record::annotate_pareto(line, dominates.get(&i).copied());
            }
        }
    }
    stats.pareto_points = front.len();

    let lines: Vec<String> = lines
        .into_iter()
        .map(|l| l.unwrap_or_else(|| unreachable!("every point is resolved")))
        .collect();
    if let Some(out) = config.out {
        drop(sidecars); // flushed; keep them on disk so reruns resume free
        let mut buf = String::new();
        for l in &lines {
            buf.push_str(l);
            buf.push('\n');
        }
        let tmp = out.with_extension("jsonl.tmp");
        std::fs::write(&tmp, buf)
            .map_err(|e| ExploreError::Io(format!("{}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, out)
            .map_err(|e| ExploreError::Io(format!("{}: {e}", out.display())))?;
    }
    stats.finalize = t2.elapsed();

    debug_assert!(stats.balanced(), "point accounting is off: {stats:?}");
    Ok(ExploreReport {
        lines,
        frontier: front,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::OptVariant;

    fn grid() -> Grid {
        let mut g = Grid::new();
        g.capacities = vec![64 << 10, 128 << 10];
        g.associativities = vec![4, 8];
        g
    }

    #[test]
    fn in_memory_run_resolves_every_point() {
        let report = explore(&grid(), &ExploreConfig::default()).unwrap();
        assert_eq!(report.lines.len(), 4);
        assert!(report.stats.balanced());
        assert_eq!(report.stats.solved, 4);
        assert_eq!(report.stats.ok, 4);
        assert!(report.stats.orgs_enumerated > 0);
        for (i, line) in report.lines.iter().enumerate() {
            assert_eq!(record::line_idx(line), Some(i));
        }
    }

    #[test]
    fn duplicate_specs_are_memoized_not_resolved() {
        let mut g = grid();
        // Same knobs under a second label: same spec fingerprints.
        g.opts.push(OptVariant {
            label: "duplicate".to_string(),
            ..OptVariant::default_variant()
        });
        let report = explore(&g, &ExploreConfig::default()).unwrap();
        assert_eq!(report.stats.points, 8);
        assert_eq!(report.stats.unique_specs, 4);
        assert_eq!(report.stats.solved, 4);
        assert_eq!(report.stats.memoized, 4);
        // The duplicate records differ only in index and opt label.
        assert_eq!(
            report.lines[0]
                .replace("{\"idx\":0,", "{\"idx\":1,")
                .replace("\"opt\":\"default\"", "\"opt\":\"duplicate\""),
            report.lines[1]
        );
    }

    #[test]
    fn pareto_annotations_mark_a_nonempty_frontier() {
        let config = ExploreConfig {
            pareto: true,
            ..ExploreConfig::default()
        };
        let report = explore(&grid(), &config).unwrap();
        assert!(!report.frontier.is_empty());
        assert_eq!(report.stats.pareto_points, report.frontier.len());
        let members = report
            .lines
            .iter()
            .filter(|l| l.contains("\"pareto\":{\"frontier\":true"))
            .count();
        assert_eq!(members, report.frontier.len());
        assert!(report
            .lines
            .iter()
            .all(|l| l.contains("\"pareto\":{\"frontier\"")));
    }

    #[test]
    fn engine_publishes_obs_metrics() {
        let before = cactid_obs::snapshot();
        let points0 = before.counter("explore.engine.points").unwrap_or(0);
        let claims0 = before.counter("explore.pool.claims").unwrap_or(0);
        let misses0 = before.counter("explore.cache.misses").unwrap_or(0);
        let report = explore(&grid(), &ExploreConfig::default()).unwrap();
        assert_eq!(report.stats.points, 4);
        // Deltas, not absolutes: other tests share the process registry.
        let after = cactid_obs::snapshot();
        assert!(after.counter("explore.engine.points").unwrap() >= points0 + 4);
        assert!(after.counter("explore.pool.claims").unwrap() >= claims0 + 4);
        assert!(after.counter("explore.cache.misses").unwrap() >= misses0 + 4);
        for span in ["expand", "solve", "finalize"] {
            let h = after.histogram(&format!("span.explore.{span}.ns"));
            assert!(h.is_some_and(|h| h.count >= 1), "missing stage span {span}");
        }
        assert!(after.histogram("explore.pool.work_ns").unwrap().count >= 4);
        assert!(
            after
                .histogram("explore.pool.claims_per_worker")
                .unwrap()
                .count
                >= 1
        );
    }

    #[test]
    fn injected_cache_is_shared_across_runs_with_identical_output() {
        let cache = SolveCache::new();
        let config = ExploreConfig {
            cache: Some(&cache),
            ..ExploreConfig::default()
        };
        let cold = explore(&grid(), &config).unwrap();
        assert_eq!(cold.stats.solved, 4);
        assert_eq!(cache.len(), 4);
        // Second run over the same grid: every point served from the
        // injected memo, not re-solved — and the bytes don't move.
        let warm = explore(&grid(), &config).unwrap();
        assert_eq!(warm.stats.solved, 0);
        assert_eq!(warm.stats.memoized, 4);
        assert_eq!(warm.lines, cold.lines);
        // A default-config run still gets a private cache: it re-solves.
        let private = explore(&grid(), &ExploreConfig::default()).unwrap();
        assert_eq!(private.stats.solved, 4);
        assert_eq!(private.lines, cold.lines);
    }

    #[test]
    fn invalid_points_are_reported_not_fatal() {
        let mut g = grid();
        g.capacities = vec![48 << 10, 64 << 10]; // 48 KB: invalid geometry
        let report = explore(&g, &ExploreConfig::default()).unwrap();
        assert_eq!(report.stats.invalid, 2);
        assert_eq!(report.stats.ok, 2);
        assert!(report.lines[0].contains("\"status\":\"invalid\""));
        assert!(report.stats.balanced());
    }
}
