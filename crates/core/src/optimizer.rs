//! Solution-space sweep and the staged optimization of paper §2.4:
//! max-area filter → max-access-time filter → weighted objective.
//!
//! The sweep itself is a staged pipeline (DESIGN.md §14): organizations
//! stream out of [`org::enumerate_lazy`], a closed-form pre-screen
//! ([`array::prescreen`]) rejects electrically doomed candidates before the
//! full circuit models run, and per-spec invariants (technology parameters,
//! the tag design) are hoisted out of the per-candidate loop.

use crate::array::{self, ArrayInput};
use crate::error::CactiError;
use crate::lint::{Severity, SolutionLinter};
use crate::main_memory;
use crate::org::{self, OrgParams};
use crate::solution::Solution;
use crate::spec::{MemoryKind, MemorySpec};
use crate::tag::{self, TagResult};
use cactid_tech::{CellParams, DeviceParams, Technology};
use std::sync::Arc;

/// Everything about a solve that is invariant across candidates, computed
/// once per spec: the interned technology, the cell/peripheral parameter
/// derivations (interpolated nodes re-blend anchor tables on every
/// `Technology::cell` call, which dominated the per-candidate cost on
/// small sweeps), and the single tag design shared by `Arc`.
pub(crate) struct SpecCtx<'a> {
    spec: &'a MemorySpec,
    pub(crate) tech: &'static Technology,
    cell: CellParams,
    periph: DeviceParams,
    output_bits: u64,
    sense_fraction: f64,
    tag: Option<Arc<TagResult>>,
}

impl<'a> SpecCtx<'a> {
    pub(crate) fn new(spec: &'a MemorySpec) -> Result<Self, CactiError> {
        let tech = Technology::cached(spec.node);
        let tag = if spec.kind.is_cache() {
            Some(Arc::new(tag::design_tag(tech, spec)?))
        } else {
            None
        };
        Ok(Self {
            spec,
            tech,
            cell: tech.cell(spec.cell_tech),
            periph: tech.peripheral_device(spec.cell_tech),
            output_bits: spec.output_bits(),
            sense_fraction: spec.sense_fraction(),
            tag,
        })
    }

    pub(crate) fn build_input(&self, org: &OrgParams) -> ArrayInput {
        ArrayInput {
            rows: org.rows(self.spec),
            cols: org.cols(self.spec),
            ndwl: org.ndwl,
            ndbl: org.ndbl,
            deg_bl_mux: org.deg_bl_mux,
            deg_sa_mux: org.deg_sa_mux,
            output_bits: self.output_bits,
            address_bits: self.spec.address_bits,
            cell: self.cell,
            periph: self.periph,
            repeater_relax: self.spec.opt.repeater_relax,
            sleep_transistors: self.spec.opt.sleep_transistors,
            sense_fraction: self.sense_fraction,
        }
    }

    /// Turns an electrically feasible array into a candidate solution:
    /// main memories get the chip-level DRAM assembly, caches share the
    /// per-spec tag design. An error poisons the whole solve.
    pub(crate) fn assemble(
        &self,
        org: OrgParams,
        input: &ArrayInput,
        data: array::ArrayResult,
    ) -> Result<Solution, CactiError> {
        let mm = match self.spec.kind {
            MemoryKind::MainMemory { .. } => {
                Some(main_memory::assemble(self.tech, self.spec, input, &data)?)
            }
            _ => None,
        };
        Ok(Solution::assemble(
            self.spec,
            org,
            input,
            data,
            self.tag.clone(),
            mm,
        ))
    }
}

/// Applies the lint stage to a surviving candidate; `None` means rejected.
pub(crate) fn admit(
    spec: &MemorySpec,
    linter: Option<&dyn SolutionLinter>,
    mut sol: Solution,
    stats: &mut SolveStats,
) -> Option<Solution> {
    if let Some(linter) = linter {
        let diags = linter.lint_candidate(spec, &sol);
        if diags.iter().any(|d| d.severity == Severity::Error) {
            stats.lint_rejected += 1;
            return None;
        }
        sol.warnings = diags;
    }
    Some(sol)
}

/// Counters describing the work one [`solve`] call performed.
///
/// Batch drivers (the `cactid-explore` engine) aggregate these across a
/// sweep to report how much of the organization space was enumerated, how
/// much the cheap pre-screen rejected before the circuit models ran, how
/// much survived the electrical models, and how much the lint engine
/// rejected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Structurally feasible organizations enumerated for the spec.
    pub orgs_enumerated: usize,
    /// Candidates rejected by the closed-form pre-screen bounds before the
    /// full electrical models ran. Zero on the unpruned reference path.
    pub bound_pruned: usize,
    /// Candidates rejected by the full electrical models. With the
    /// pre-screen on this is zero (the screen is exact); the reference
    /// path reports here what the staged path reports as `bound_pruned`.
    pub electrical_pruned: usize,
    /// Organizations that survived the electrical models and (if a linter
    /// ran) the `Error`-severity rules — the size of the solution set.
    pub feasible: usize,
    /// Candidates dropped because an `Error`-severity diagnostic fired.
    pub lint_rejected: usize,
}

/// A solution set together with the [`SolveStats`] of producing it.
///
/// The stats are populated even when `result` is an error, so sweep
/// engines can account for exhausted or lint-rejected points.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The full feasible solution set, or why there is none.
    pub result: Result<Vec<Solution>, CactiError>,
    /// Work counters for this solve.
    pub stats: SolveStats,
}

/// Wraps a completed sweep's `out` set into the final result and marks
/// whether the sweep finished with nothing feasible (the only condition
/// under which the `no_feasible` counter fires — early fatal errors do
/// not count as an exhausted sweep).
pub(crate) fn finish_sweep(
    out: Vec<Solution>,
    stats: &mut SolveStats,
) -> (Result<Vec<Solution>, CactiError>, bool) {
    stats.feasible = out.len();
    if out.is_empty() {
        let e = if stats.lint_rejected > 0 {
            CactiError::LintRejected(stats.lint_rejected)
        } else {
            CactiError::NoFeasibleSolution
        };
        (Err(e), true)
    } else {
        (Ok(out), false)
    }
}

/// Publishes one solve's worth of batched counters to the process-global
/// observability registry. The hot loop accumulates into [`SolveStats`]
/// locally; this is the single flush per solve. `reuse` is the number of
/// memo-slice hits the incremental evaluation scored; it lives outside
/// [`SolveStats`] because the stats are compared bitwise against the
/// from-scratch reference oracle, which has no memo to reuse.
fn flush_obs(stats: &SolveStats, swept_empty: bool, reuse: u64) {
    cactid_obs::counter!("core.solve.calls").inc();
    cactid_obs::counter!("core.solve.orgs_enumerated").add(stats.orgs_enumerated as u64);
    cactid_obs::counter!("core.solve.bound_pruned").add(stats.bound_pruned as u64);
    cactid_obs::counter!("core.solve.electrical_pruned").add(stats.electrical_pruned as u64);
    cactid_obs::counter!("core.solve.lint_rejected").add(stats.lint_rejected as u64);
    cactid_obs::counter!("core.solve.feasible").add(stats.feasible as u64);
    cactid_obs::counter!("core.solve.incremental_reuse").add(reuse);
    if swept_empty {
        cactid_obs::counter!("core.solve.no_feasible").inc();
    }
}

/// Sweeps every feasible organization for `spec` and returns the full
/// solution set (unfiltered) with the [`SolveStats`] of the sweep.
///
/// With a `linter`, every assembled candidate is linted: candidates with
/// any `Error`-severity diagnostic are rejected from the solution set, and
/// the survivors carry their non-error diagnostics in
/// [`Solution::warnings`].
///
/// Never panics on infeasible specs: `result` is
/// [`CactiError::NoFeasibleSolution`] when nothing is feasible, or
/// [`CactiError::LintRejected`] when candidates existed but the linter
/// rejected every one of them. Both [`MemorySpec`] and the returned
/// [`SolveOutcome`] own all their data (`Send`), so batch engines call this
/// from worker threads.
pub fn solve(spec: &MemorySpec, linter: Option<&dyn SolutionLinter>) -> SolveOutcome {
    let _span = cactid_obs::span("core.solve");
    let mut stats = SolveStats::default();
    let mut memo = array::EvalMemo::new();
    let ctx = match SpecCtx::new(spec) {
        Ok(ctx) => ctx,
        Err(e) => {
            flush_obs(&stats, false, 0);
            return SolveOutcome {
                result: Err(e),
                stats,
            };
        }
    };

    let mut iter = org::enumerate_lazy(spec);
    let mut out = Vec::new();
    while let Some(org) = iter.next() {
        stats.orgs_enumerated += 1;
        // The closed-form bounds are the exact feasibility conditions
        // `array::evaluate` would check, so pruning here cannot change the
        // solution set — only skip doomed model evaluations. The memo
        // keeps the verdict (and the sense signal behind it) under
        // (rows, cols), so a surviving candidate's evaluation reuses it,
        // and model slices keyed on unchanged organization axes are reused
        // across adjacent candidates.
        if memo
            .prescreen_cached(&ctx.cell, org.rows(spec), org.cols(spec))
            .is_err()
        {
            stats.bound_pruned += 1;
            continue;
        }
        let input = ctx.build_input(&org);
        let Ok(data) = array::evaluate_incremental(ctx.tech, &input, &mut memo) else {
            stats.electrical_pruned += 1;
            continue;
        };
        match ctx.assemble(org, &input, data) {
            Ok(sol) => {
                if let Some(sol) = admit(spec, linter, sol, &mut stats) {
                    out.push(sol);
                }
            }
            Err(e) => {
                // A fatal error reports the full enumeration count; drain
                // the iterator so the lazy pipeline keeps that contract.
                stats.orgs_enumerated += iter.count();
                flush_obs(&stats, false, memo.reuse_hits());
                return SolveOutcome {
                    result: Err(e),
                    stats,
                };
            }
        }
    }
    let (result, swept_empty) = finish_sweep(out, &mut stats);
    flush_obs(&stats, swept_empty, memo.reuse_hits());
    SolveOutcome { result, stats }
}

/// Per-reason counts of candidates rejected by the closed-form screen,
/// accumulated by [`static_screen`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScreenHistogram {
    /// Candidates with more subarray rows than the cell allows.
    pub subarray_rows: usize,
    /// Candidates past the 3 ns distributed wordline RC bound.
    pub wordline_elmore: usize,
    /// DRAM candidates whose charge-sharing signal misses the sense margin.
    pub sense_margin: usize,
}

impl ScreenHistogram {
    /// Counts one rejection.
    pub fn record(&mut self, failure: array::PrescreenFailure) {
        match failure {
            array::PrescreenFailure::SubarrayRows => self.subarray_rows += 1,
            array::PrescreenFailure::WordlineElmore => self.wordline_elmore += 1,
            array::PrescreenFailure::SenseMargin => self.sense_margin += 1,
        }
    }

    /// Total rejections across all reasons.
    pub fn total(&self) -> usize {
        self.subarray_rows + self.wordline_elmore + self.sense_margin
    }

    /// `(label, count)` pairs in check order, matching
    /// [`array::PrescreenFailure::ALL`].
    pub fn entries(&self) -> [(&'static str, usize); 3] {
        [
            ("subarray-rows", self.subarray_rows),
            ("wordline-elmore", self.wordline_elmore),
            ("sense-margin", self.sense_margin),
        ]
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &ScreenHistogram) {
        self.subarray_rows += other.subarray_rows;
        self.wordline_elmore += other.wordline_elmore;
        self.sense_margin += other.sense_margin;
    }
}

/// What [`static_screen`] proved about a spec without running any circuit
/// model.
#[derive(Debug, Clone, PartialEq)]
pub enum ScreenVerdict {
    /// Provably infeasible: [`solve`] is guaranteed to return exactly this
    /// error for the spec (the screen is exact, so no model evaluation can
    /// change the outcome).
    Infeasible(CactiError),
    /// At least `survivors` organizations pass the closed-form screen. The
    /// spec will very likely solve, but later stages the screen cannot see
    /// (lint rejection, non-finite metrics in [`select`]) may still fail
    /// it — the verdict is one-sided by design.
    MaybeFeasible {
        /// Organizations that pass the closed-form screen.
        survivors: usize,
    },
}

impl ScreenVerdict {
    /// `true` for the provably-infeasible verdict.
    pub fn is_infeasible(&self) -> bool {
        matches!(self, ScreenVerdict::Infeasible(_))
    }
}

/// The result of statically screening one spec: the verdict, the
/// [`SolveStats`] a real solve of an infeasible spec would report, and the
/// per-reason rejection histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticScreen {
    /// Feasibility verdict.
    pub verdict: ScreenVerdict,
    /// For an [`ScreenVerdict::Infeasible`] spec these are byte-for-byte
    /// the counters [`solve`] would report: every enumerated
    /// organization bound-pruned, nothing feasible. For a `MaybeFeasible`
    /// spec only `orgs_enumerated` and `bound_pruned` are meaningful (the
    /// real solve decides the rest).
    pub stats: SolveStats,
    /// Why the screen rejected what it rejected.
    pub reasons: ScreenHistogram,
}

/// Statically classifies a spec using only the exact closed-form checks —
/// the per-spec tag design and [`array::prescreen_explain`] over the full
/// organization enumeration. No circuit model runs and no solve happens:
/// an [`ScreenVerdict::Infeasible`] verdict is a *proof* that
/// [`solve`] would return the same error with the same stats,
/// because the screen evaluates exactly the feasibility conditions
/// [`array::evaluate`] checks first.
///
/// This is the engine behind `cactid audit`: a whole exploration grid can
/// be classified in microseconds per point, and statically-doomed points
/// skipped without changing a byte of the output records.
pub fn static_screen(spec: &MemorySpec) -> StaticScreen {
    cactid_obs::counter!("core.screen.calls").inc();
    let mut stats = SolveStats::default();
    let mut reasons = ScreenHistogram::default();
    // Mirror SpecCtx::new: the technology tables are infallible, the tag
    // design is the only per-spec stage that can fail before enumeration.
    let tech = Technology::cached(spec.node);
    if spec.kind.is_cache() {
        if let Err(e) = tag::design_tag(tech, spec) {
            cactid_obs::counter!("core.screen.infeasible").inc();
            return StaticScreen {
                verdict: ScreenVerdict::Infeasible(e),
                stats,
                reasons,
            };
        }
    }
    let cell = tech.cell(spec.cell_tech);
    let mut survivors = 0usize;
    for org in org::enumerate_lazy(spec) {
        stats.orgs_enumerated += 1;
        match array::prescreen_explain(&cell, org.rows(spec), org.cols(spec)) {
            Ok(_) => survivors += 1,
            Err(failure) => {
                stats.bound_pruned += 1;
                reasons.record(failure);
            }
        }
    }
    let verdict = if survivors == 0 {
        cactid_obs::counter!("core.screen.infeasible").inc();
        ScreenVerdict::Infeasible(CactiError::NoFeasibleSolution)
    } else {
        ScreenVerdict::MaybeFeasible { survivors }
    };
    StaticScreen {
        verdict,
        stats,
        reasons,
    }
}

/// Applies the staged optimization of §2.4 to a solution set and returns
/// the winner.
///
/// 1. keep solutions with `area ≤ (1 + max_area_overhead) · best_area`;
/// 2. of those, keep `access_time ≤ (1 + max_access_time_overhead) · best`;
/// 3. minimize the normalized weighted objective over dynamic energy,
///    leakage (+ refresh) power, random cycle time and interleave cycle
///    time.
///
/// # Errors
///
/// [`CactiError::NoFeasibleSolution`] if `solutions` is empty, or when no
/// candidate survives the staged filters — with well-formed metrics the
/// minimum-area solution always survives both screens, but non-finite
/// areas or access times (NaN propagated through a model escape hatch)
/// fail every `<=` comparison and can empty the stages.
pub fn select(spec: &MemorySpec, solutions: &[Solution]) -> Result<Solution, CactiError> {
    cactid_obs::counter!("core.select.calls").inc();
    if solutions.is_empty() {
        return Err(CactiError::NoFeasibleSolution);
    }
    let opt = &spec.opt;

    // The scoring below is the designated raw-f64 escape hatch: the
    // normalized weighted objective mixes energy, power and time ratios
    // into one dimensionless score, so the quantities drop to `.value()`
    // here and nowhere else in the solver.
    let best_area = solutions
        .iter()
        .map(|s| s.area.value())
        .fold(f64::INFINITY, f64::min);
    let area_cap = best_area * (1.0 + opt.max_area_overhead);
    let stage1: Vec<&Solution> = solutions
        .iter()
        .filter(|s| s.area.value() <= area_cap)
        .collect();

    let best_t = stage1
        .iter()
        .map(|s| s.access_time.value())
        .fold(f64::INFINITY, f64::min);
    let t_cap = best_t * (1.0 + opt.max_access_time_overhead);
    let stage2: Vec<&Solution> = stage1
        .iter()
        .copied()
        .filter(|s| s.access_time.value() <= t_cap)
        .collect();

    let min_of = |f: fn(&Solution) -> f64| {
        stage2
            .iter()
            .map(|s| f(s).max(1e-30))
            .fold(f64::INFINITY, f64::min)
    };
    cactid_obs::counter!("core.select.area_pruned").add((solutions.len() - stage1.len()) as u64);
    cactid_obs::counter!("core.select.time_pruned").add((stage1.len() - stage2.len()) as u64);

    let e_min = min_of(|s| s.read_energy.value());
    let l_min = min_of(|s| (s.leakage_power + s.refresh_power).value());
    let c_min = min_of(|s| s.random_cycle.value());
    let i_min = min_of(|s| s.interleave_cycle.value());

    stage2
        .into_iter()
        .min_by(|a, b| {
            let obj = |s: &Solution| {
                opt.weight_dynamic * s.read_energy.value().max(1e-30) / e_min
                    + opt.weight_leakage * (s.leakage_power + s.refresh_power).value().max(1e-30)
                        / l_min
                    + opt.weight_cycle * s.random_cycle.value().max(1e-30) / c_min
                    + opt.weight_interleave * s.interleave_cycle.value().max(1e-30) / i_min
            };
            obj(a).total_cmp(&obj(b))
        })
        .cloned()
        .ok_or_else(|| {
            cactid_obs::counter!("core.select.no_feasible").inc();
            CactiError::NoFeasibleSolution
        })
}

/// Convenience: [`solve`] without a linter, then [`select`].
///
/// # Errors
///
/// Propagates [`CactiError::NoFeasibleSolution`] from the sweep.
pub fn optimize(spec: &MemorySpec) -> Result<Solution, CactiError> {
    let all = solve(spec, None).result?;
    select(spec, &all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AccessMode, OptimizationOptions};
    use cactid_tech::{CellTechnology, TechNode};
    use cactid_units::{Joules, Seconds, SquareMeters, Watts};

    fn l2() -> MemorySpec {
        MemorySpec::builder()
            .capacity_bytes(1 << 20)
            .block_bytes(64)
            .associativity(8)
            .banks(1)
            .cell_tech(CellTechnology::Sram)
            .node(TechNode::N32)
            .kind(MemoryKind::Cache {
                access_mode: AccessMode::Normal,
            })
            .build()
            .unwrap()
    }

    #[test]
    fn l2_solves_with_many_candidates() {
        let sols = solve(&l2(), None).result.unwrap();
        assert!(sols.len() > 10, "only {} candidates", sols.len());
        for s in &sols {
            assert!(s.access_time > Seconds::ZERO && s.access_time < Seconds::ns(50.0));
            assert!(s.area > SquareMeters::ZERO);
            assert!(s.read_energy > Joules::ZERO);
            assert!(s.leakage_power > Watts::ZERO);
        }
    }

    #[test]
    fn staged_filters_respect_caps() {
        let spec = l2();
        let sols = solve(&spec, None).result.unwrap();
        let chosen = select(&spec, &sols).unwrap();
        let best_area = sols
            .iter()
            .map(|s| s.area.value())
            .fold(f64::INFINITY, f64::min);
        assert!(chosen.area.value() <= best_area * (1.0 + spec.opt.max_area_overhead) + 1e-12);
    }

    #[test]
    fn energy_weighting_changes_the_pick() {
        let mut spec = l2();
        spec.opt = OptimizationOptions {
            weight_dynamic: 100.0,
            weight_leakage: 0.0,
            weight_cycle: 0.0,
            weight_interleave: 0.0,
            max_area_overhead: 1.0,
            max_access_time_overhead: 2.0,
            ..OptimizationOptions::default()
        };
        let sols = solve(&spec, None).result.unwrap();
        let energy_pick = select(&spec, &sols).unwrap();
        spec.opt.weight_dynamic = 0.0;
        spec.opt.weight_cycle = 100.0;
        let cycle_pick = select(&spec, &sols).unwrap();
        // The two objectives should not pick a strictly worse solution on
        // their own axis.
        assert!(energy_pick.read_energy <= cycle_pick.read_energy + Joules::from_si(1e-15));
        assert!(cycle_pick.random_cycle <= energy_pick.random_cycle + Seconds::from_si(1e-15));
    }

    #[test]
    fn solve_counts_the_sweep() {
        let out = solve(&l2(), None);
        let sols = out.result.unwrap();
        assert_eq!(out.stats.feasible, sols.len());
        assert!(out.stats.orgs_enumerated >= sols.len());
        assert_eq!(out.stats.lint_rejected, 0);
    }

    #[test]
    fn solve_reports_orgs_even_on_failure() {
        // A spec whose organizations all fail electrically is hard to build
        // via the builder; instead check the error path maps through.
        let mut spec = l2();
        spec.opt.repeater_relax = 1.0;
        let out = solve(&spec, None);
        assert!(out.result.is_ok());
        assert!(out.stats.orgs_enumerated > 0);
    }

    #[test]
    fn select_with_nonfinite_areas_errors_instead_of_panicking() {
        // Regression: every candidate failing the area screen used to trip
        // the stage-2 `.expect`. NaN areas fail `area <= cap` for every
        // candidate (NaN comparisons are false), emptying both stages.
        let spec = l2();
        let mut sols = solve(&spec, None).result.unwrap();
        for s in &mut sols {
            s.area = SquareMeters::from_si(f64::NAN);
        }
        assert_eq!(
            select(&spec, &sols),
            Err(CactiError::NoFeasibleSolution),
            "non-finite areas must yield a typed error, not a panic"
        );
        // Same story when the access times are the poisoned axis.
        let mut sols = solve(&spec, None).result.unwrap();
        for s in &mut sols {
            s.access_time = Seconds::from_si(f64::NAN);
        }
        assert_eq!(select(&spec, &sols), Err(CactiError::NoFeasibleSolution));
    }

    #[test]
    fn solve_publishes_obs_counters() {
        let calls_before = cactid_obs::counter!("core.solve.calls").get();
        let orgs_before = cactid_obs::counter!("core.solve.orgs_enumerated").get();
        let out = solve(&l2(), None);
        assert!(cactid_obs::counter!("core.solve.calls").get() > calls_before);
        assert!(
            cactid_obs::counter!("core.solve.orgs_enumerated").get()
                >= orgs_before + out.stats.orgs_enumerated as u64
        );
        let snap = cactid_obs::snapshot();
        let h = snap.histogram("span.core.solve.ns").expect("solve span");
        assert!(h.count >= 1);
    }

    #[test]
    fn static_screen_matches_the_sweep_on_a_feasible_spec() {
        let spec = l2();
        let screen = static_screen(&spec);
        let out = solve(&spec, None);
        assert_eq!(screen.stats.orgs_enumerated, out.stats.orgs_enumerated);
        assert_eq!(screen.stats.bound_pruned, out.stats.bound_pruned);
        assert_eq!(screen.reasons.total(), screen.stats.bound_pruned);
        let sols = out.result.unwrap();
        match screen.verdict {
            ScreenVerdict::MaybeFeasible { survivors } => {
                // The screen is exact: survivors are precisely the
                // candidates the full models accept.
                assert_eq!(survivors, sols.len());
            }
            ScreenVerdict::Infeasible(_) => panic!("l2 is feasible"),
        }
    }

    #[test]
    fn screen_histogram_records_and_merges() {
        use crate::array::PrescreenFailure;
        let mut h = ScreenHistogram::default();
        h.record(PrescreenFailure::SubarrayRows);
        h.record(PrescreenFailure::SubarrayRows);
        h.record(PrescreenFailure::SenseMargin);
        assert_eq!(h.total(), 3);
        assert_eq!(
            h.entries(),
            [
                ("subarray-rows", 2),
                ("wordline-elmore", 0),
                ("sense-margin", 1)
            ]
        );
        let mut other = ScreenHistogram::default();
        other.record(PrescreenFailure::WordlineElmore);
        h.merge(&other);
        assert_eq!(h.total(), 4);
        assert_eq!(h.wordline_elmore, 1);
    }

    #[test]
    fn optimize_is_deterministic() {
        let spec = l2();
        let a = optimize(&spec).unwrap();
        let b = optimize(&spec).unwrap();
        assert_eq!(a.org, b.org);
    }
}
