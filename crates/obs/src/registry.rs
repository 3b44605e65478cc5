//! The process-global metric registry.
//!
//! Metrics are identified by dotted lowercase names (`domain.noun.verb`,
//! e.g. `explore.cache.hits` — DESIGN.md §13 lists the full scheme). The
//! first request for a name allocates the metric and leaks it, so every
//! handle is `&'static` and the count path never touches the registry
//! again. Lookup takes a `Mutex`; call sites amortize it away with the
//! [`counter!`](crate::counter!)/[`histogram!`](crate::histogram!) macros.

use crate::metrics::{Counter, Histogram, BUCKETS};
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    histograms: Mutex<BTreeMap<String, &'static Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// The counter named `name`, allocating it on first use.
pub fn counter(name: &str) -> &'static Counter {
    let mut map = registry()
        .counters
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(c) = map.get(name) {
        return c;
    }
    let cell: &'static Counter = Box::leak(Box::new(Counter::new()));
    map.insert(name.to_string(), cell);
    cell
}

/// The histogram named `name`, allocating it on first use.
pub fn histogram(name: &str) -> &'static Histogram {
    let mut map = registry()
        .histograms
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(h) = map.get(name) {
        return h;
    }
    let cell: &'static Histogram = Box::leak(Box::new(Histogram::new()));
    map.insert(name.to_string(), cell);
    cell
}

/// Point-in-time value of one counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Dotted metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// Point-in-time state of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Dotted metric name.
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Power-of-two bucket counts (see [`crate::Histogram`]).
    pub buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Estimated `q`-quantile of the snapshotted distribution (0.0 when
    /// empty), never outside `[min, max]`. See
    /// [`crate::metrics::observed_quantile`].
    pub fn quantile(&self, q: f64) -> f64 {
        crate::metrics::observed_quantile(&self.buckets, self.count, self.min, self.max, q)
    }
}

/// Every registered metric at one point in time, sorted by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// All counters.
    pub counters: Vec<CounterSnapshot>,
    /// All histograms.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// Value of the counter named `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The histogram named `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// `true` when no metric has been registered at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }
}

/// Snapshots every registered metric, sorted by name (`BTreeMap` order), so
/// trace sidecars are stable across runs with the same instrumentation.
pub fn snapshot() -> Snapshot {
    let counters = registry()
        .counters
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .map(|(name, c)| CounterSnapshot {
            name: name.clone(),
            value: c.get(),
        })
        .collect();
    let histograms = registry()
        .histograms
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .map(|(name, h)| HistogramSnapshot {
            name: name.clone(),
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            buckets: h.buckets(),
        })
        .collect();
    Snapshot {
        counters,
        histograms,
    }
}

/// Zeroes every registered metric. For benchmark harnesses that measure
/// deltas from a clean slate; racy by design if instrumented code runs
/// concurrently (counts land before or after the reset, never corrupt).
pub fn reset() {
    for c in registry()
        .counters
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .values()
    {
        c.reset();
    }
    for h in registry()
        .histograms
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .values()
    {
        h.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_resolves_to_same_cell() {
        let a = counter("registry.test.same");
        let b = counter("registry.test.same");
        assert!(std::ptr::eq(a, b));
        let ha = histogram("registry.test.same.h");
        let hb = histogram("registry.test.same.h");
        assert!(std::ptr::eq(ha, hb));
    }

    #[test]
    fn snapshot_sees_registered_values_sorted() {
        counter("registry.test.zzz").add(7);
        counter("registry.test.aaa").add(3);
        histogram("registry.test.hist").record(100);
        let s = snapshot();
        assert!(s.counter("registry.test.zzz") >= Some(7));
        assert!(s.counter("registry.test.aaa") >= Some(3));
        let names: Vec<&str> = s.counters.iter().map(|c| c.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "snapshot is name-sorted");
        let h = s.histogram("registry.test.hist").unwrap();
        assert!(h.count >= 1);
        assert!(h.mean() > 0.0);
    }

    #[test]
    fn unknown_names_are_absent_from_snapshot() {
        let s = snapshot();
        assert_eq!(s.counter("registry.test.never-registered"), None);
        assert!(s.histogram("registry.test.never-registered").is_none());
    }
}
