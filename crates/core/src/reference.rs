//! The unpruned reference oracle for the staged sweep.
//!
//! [`solve_unpruned`] runs every enumerated organization through the full
//! electrical models from scratch: no pre-screen, no incremental memo, no
//! observability counters. It exists so equivalence tests can prove the
//! production [`crate::solve`] returns exactly the same solution set, and
//! so the solve bench can measure what the pruning and the memo buy. It
//! shares only the per-spec context (with its candidate assembly), the
//! lint stage and the sweep's result wrapping with the production path;
//! its loop and its array evaluation are its own, so a defect in either
//! pipeline shows up as a divergence instead of cancelling out.

use crate::array;
use crate::lint::SolutionLinter;
use crate::optimizer::{admit, finish_sweep, SpecCtx};
use crate::org;
use crate::spec::MemorySpec;
use crate::{SolveOutcome, SolveStats};

/// Sweeps `spec` with the pre-screen disabled. The solution set and its
/// order equal [`crate::solve`]'s; in the stats, `bound_pruned` is always
/// zero and `electrical_pruned` reports what the staged sweep prunes by
/// bound.
pub fn solve_unpruned(spec: &MemorySpec, linter: Option<&dyn SolutionLinter>) -> SolveOutcome {
    let mut stats = SolveStats::default();
    let ctx = match SpecCtx::new(spec) {
        Ok(ctx) => ctx,
        Err(e) => {
            return SolveOutcome {
                result: Err(e),
                stats,
            }
        }
    };
    let orgs: Vec<_> = org::enumerate_lazy(spec).collect();
    stats.orgs_enumerated = orgs.len();
    let mut out = Vec::new();
    for org in orgs {
        let input = ctx.build_input(&org);
        let Ok(data) = array::evaluate(ctx.tech, &input) else {
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
                return SolveOutcome {
                    result: Err(e),
                    stats,
                }
            }
        }
    }
    let (result, _) = finish_sweep(out, &mut stats);
    SolveOutcome { result, stats }
}
