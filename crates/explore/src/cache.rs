//! A solve memo keyed by canonical spec fingerprints.
//!
//! Exploration grids routinely contain duplicate specs (two opt variants
//! with identical knobs, overlapping sub-sweeps) and study configurations
//! re-optimize the same L1/L2 specs many times over. [`SolveCache`] makes
//! every distinct spec cost one solve: entries are keyed by
//! [`crate::hash::spec_fingerprint`] and verified by full spec equality on
//! lookup, so a 64-bit collision degrades to a miss instead of a wrong
//! answer.
//!
//! The solve itself runs with the mutex *released* — only lookup and
//! insert take the lock — so concurrent workers memoize without
//! serializing on each other. Two threads racing on the same cold spec may
//! both solve it; the first insert wins and both observe the same entry
//! (solves are deterministic). The exploration engine avoids even that
//! duplicated work by pre-grouping its points per fingerprint.

use crate::hash::spec_fingerprint;
use cactid_core::{select, solve, CactiError, MemorySpec, Solution};
use cactid_core::{SolutionLinter, SolveStats};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// One memoized solve: the §2.4 winner (or why there is none) plus the
/// sweep counters of producing it.
#[derive(Debug, Clone)]
pub struct CachedSolve {
    /// The selected winner, or the solve/select failure.
    pub result: Result<Solution, CactiError>,
    /// Counters from the underlying organization sweep.
    pub stats: SolveStats,
}

/// A thread-safe solve memo. See the module docs for the locking contract.
///
/// A cache instance must not be shared between *different* linter
/// configurations: the linter participates in the solve but not in the
/// key. The exploration engine owns a private cache per run (one fixed
/// linter), and the process-global [`SolveCache::global`] must only ever
/// see lint-free solves.
#[derive(Debug, Default)]
pub struct SolveCache {
    map: Mutex<HashMap<u64, Vec<(MemorySpec, CachedSolve)>>>,
}

impl SolveCache {
    /// An empty cache.
    pub fn new() -> Self {
        SolveCache::default()
    }

    /// The process-global cache, for callers that want process-wide
    /// sharing (e.g. `optimize_cached_in(SolveCache::global(), spec)`).
    pub fn global() -> &'static SolveCache {
        static GLOBAL: OnceLock<SolveCache> = OnceLock::new();
        GLOBAL.get_or_init(SolveCache::new)
    }

    /// The number of memoized specs.
    pub fn len(&self) -> usize {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .values()
            .map(Vec::len)
            .sum()
    }

    /// `true` when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (benchmarks use this to re-run cold).
    pub fn clear(&self) {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
    }

    fn lookup(&self, key: u64, spec: &MemorySpec) -> Option<CachedSolve> {
        let map = self
            .map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        map.get(&key)
            .and_then(|bucket| bucket.iter().find(|(s, _)| s == spec))
            .map(|(_, entry)| entry.clone())
    }

    /// Solves `spec` (solve → §2.4 select) through the memo. Returns the
    /// entry and whether it was served from cache.
    pub fn solve_point(
        &self,
        spec: &MemorySpec,
        linter: Option<&dyn SolutionLinter>,
    ) -> (CachedSolve, bool) {
        let key = spec_fingerprint(spec);
        if let Some(hit) = self.lookup(key, spec) {
            cactid_obs::counter!("explore.cache.hits").inc();
            return (hit, true);
        }
        cactid_obs::counter!("explore.cache.misses").inc();
        // Solve outside the lock; expensive points must not serialize the
        // rest of the pool.
        let outcome = solve(spec, linter);
        let entry = CachedSolve {
            result: outcome.result.and_then(|sols| select(spec, &sols)),
            stats: outcome.stats,
        };
        let mut map = self
            .map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let bucket = map.entry(key).or_default();
        if let Some((_, first)) = bucket.iter().find(|(s, _)| s == spec) {
            // Lost a cold-spec race; keep the first insert so every caller
            // observes one entry.
            cactid_obs::counter!("explore.cache.cold_races").inc();
            return (first.clone(), true);
        }
        if !bucket.is_empty() {
            // Same 64-bit fingerprint, different spec: equality verification
            // turned a would-be wrong answer into a plain miss.
            cactid_obs::counter!("explore.cache.collisions").inc();
        }
        bucket.push((spec.clone(), entry.clone()));
        (entry, false)
    }
}

/// [`cactid_core::optimize`] through an explicit, caller-owned memo: the
/// first call per distinct spec solves, every later call against the same
/// `cache` is a lookup. This is the injectable form — the exploration
/// engine ([`crate::ExploreConfig::cache`]), study drivers, and long-lived
/// services each pass the handle they want shared, instead of implicitly
/// coupling through process state. Pass [`SolveCache::global`] to get the
/// old process-wide sharing behavior explicitly.
///
/// The cache must only ever see lint-free solves (this function passes no
/// linter); see the [`SolveCache`] docs for the sharing contract.
///
/// # Errors
///
/// Exactly those of [`cactid_core::optimize`].
pub fn optimize_cached_in(cache: &SolveCache, spec: &MemorySpec) -> Result<Solution, CactiError> {
    cache.solve_point(spec, None).0.result
}

#[cfg(test)]
mod tests {
    use super::*;
    use cactid_core::{optimize, AccessMode, MemoryKind};
    use cactid_tech::{CellTechnology, TechNode};

    fn spec(capacity: u64) -> MemorySpec {
        MemorySpec::builder()
            .capacity_bytes(capacity)
            .block_bytes(64)
            .associativity(4)
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
    fn second_solve_is_a_hit_with_identical_result() {
        let cache = SolveCache::new();
        let s = spec(64 << 10);
        let (a, hit_a) = cache.solve_point(&s, None);
        let (b, hit_b) = cache.solve_point(&s, None);
        assert!(!hit_a && hit_b);
        assert_eq!(cache.len(), 1);
        assert_eq!(a.result.unwrap(), b.result.unwrap());
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn cached_winner_matches_optimize() {
        let s = spec(128 << 10);
        let via_cache = optimize_cached_in(SolveCache::global(), &s).unwrap();
        assert_eq!(via_cache, optimize(&s).unwrap());
        // And the global memo now serves it without re-solving.
        let (_, hit) = SolveCache::global().solve_point(&s, None);
        assert!(hit);
    }

    #[test]
    fn injectable_handles_are_independent() {
        let a = SolveCache::new();
        let b = SolveCache::new();
        let s = spec(64 << 10);
        optimize_cached_in(&a, &s).unwrap();
        assert_eq!(a.len(), 1);
        assert!(b.is_empty(), "separate handles share nothing");
        let (_, hit) = b.solve_point(&s, None);
        assert!(!hit);
    }

    #[test]
    fn cache_handle_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SolveCache>();
    }

    #[test]
    fn clear_makes_the_next_solve_cold() {
        let cache = SolveCache::new();
        let s = spec(64 << 10);
        cache.solve_point(&s, None);
        cache.clear();
        assert!(cache.is_empty());
        let (_, hit) = cache.solve_point(&s, None);
        assert!(!hit);
    }

    #[test]
    fn distinct_specs_get_distinct_entries() {
        let cache = SolveCache::new();
        let (a, _) = cache.solve_point(&spec(64 << 10), None);
        let (b, _) = cache.solve_point(&spec(128 << 10), None);
        assert_eq!(cache.len(), 2);
        assert_ne!(a.result.unwrap().area, b.result.unwrap().area);
    }
}
