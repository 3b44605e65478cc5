//! Set-associative cache tag array with true-LRU replacement and MESI
//! line states.
//!
//! Each way is one `u64` packing `tag << 2 | state`, with
//! [`LineState::Invalid`] = 0, so a zeroed allocation is an empty cache
//! and building one touches none of its pages. Each set keeps its valid
//! ways in recency order, most recent first, followed by its empty ways:
//! a hit or an insert moves the way to the front, and the victim is the
//! last way. That is exact true LRU at 8 bytes per line.

use std::ops::Range;

/// MESI coherence state of a cached line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Not present.
    Invalid = 0,
    /// Clean, possibly in other caches.
    Shared = 1,
    /// Clean, only copy among peer caches.
    Exclusive = 2,
    /// Dirty, only copy.
    Modified = 3,
}

impl LineState {
    fn from_slot(slot: u64) -> LineState {
        match slot & 3 {
            0 => LineState::Invalid,
            1 => LineState::Shared,
            2 => LineState::Exclusive,
            _ => LineState::Modified,
        }
    }
}

/// A set-associative tag array. Addresses are byte addresses; the cache
/// derives line/set/tag internally.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: u64,
    assoc: usize,
    line_shift: u32,
    /// `assoc` packed ways per set, valid ways most recent first, then
    /// empty (zero) ways.
    slots: Vec<u64>,
}

/// Result of an insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Byte address of the first byte of the evicted line.
    pub addr: u64,
    /// State the victim was in.
    pub state: LineState,
}

impl SetAssocCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if geometry is degenerate (zero sets/ways, non-power-of-two
    /// line size, or fewer than four bytes of address consumed by the line
    /// offset and set index, which would let a packed tag overflow).
    pub fn new(capacity_bytes: u64, line_bytes: u32, associativity: u32) -> SetAssocCache {
        assert!(line_bytes.is_power_of_two() && line_bytes > 0);
        assert!(associativity > 0);
        let sets = capacity_bytes / (u64::from(line_bytes) * u64::from(associativity));
        assert!(sets > 0, "cache smaller than one set");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(
            u64::from(line_bytes) * sets >= 4,
            "line offset and set index must span at least 2 address bits"
        );
        SetAssocCache {
            sets,
            assoc: associativity as usize,
            line_shift: line_bytes.trailing_zeros(),
            slots: vec![0; (sets * u64::from(associativity)) as usize],
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    fn set_of(&self, addr: u64) -> u64 {
        self.line_addr(addr) & (self.sets - 1)
    }

    fn tag_of(&self, addr: u64) -> u64 {
        self.line_addr(addr) >> self.sets.trailing_zeros()
    }

    /// Set index for an address — exposed for bank/subbank steering.
    pub fn set_index(&self, addr: u64) -> u64 {
        self.set_of(addr)
    }

    /// The slot range of `addr`'s set, its tag, and the way holding it,
    /// if any.
    fn find(&self, addr: u64) -> (Range<usize>, u64, Option<usize>) {
        let start = self.set_of(addr) as usize * self.assoc;
        let range = start..start + self.assoc;
        let tag = self.tag_of(addr);
        let way = self.slots[range.clone()]
            .iter()
            .take_while(|&&s| s != 0)
            .position(|&s| s >> 2 == tag);
        (range, tag, way)
    }

    /// Makes `way` of the set at `range` its most recent.
    fn touch(&mut self, range: Range<usize>, way: usize) {
        self.slots[range.start..=range.start + way].rotate_right(1);
    }

    /// Looks up `addr`; on hit returns its state and makes it most recent.
    pub fn lookup(&mut self, addr: u64) -> Option<LineState> {
        let (range, _, way) = self.find(addr);
        let way = way?;
        let state = LineState::from_slot(self.slots[range.start + way]);
        self.touch(range, way);
        Some(state)
    }

    /// Looks up without touching LRU (probe).
    pub fn probe(&self, addr: u64) -> Option<LineState> {
        let (range, _, way) = self.find(addr);
        way.map(|w| LineState::from_slot(self.slots[range.start + w]))
    }

    /// Inserts `addr` in `state` as the most recent line of its set,
    /// evicting the least recent one if the set is full. Returns the
    /// eviction, if any.
    pub fn insert(&mut self, addr: u64, state: LineState) -> Option<Eviction> {
        assert!(state != LineState::Invalid, "cannot insert an invalid line");
        let (range, tag, way) = self.find(addr);
        let packed = (tag << 2) | state as u64;
        if let Some(way) = way {
            // Already present: update the state and make it most recent.
            self.slots[range.start + way] = packed;
            self.touch(range, way);
            return None;
        }
        // The last way is empty or the LRU victim; it rotates to the front.
        let set = self.set_of(addr);
        let ways = &mut self.slots[range];
        ways.rotate_right(1);
        let victim = std::mem::replace(&mut ways[0], packed);
        (victim != 0).then(|| {
            let line = ((victim >> 2) << self.sets.trailing_zeros()) | set;
            Eviction {
                addr: line << self.line_shift,
                state: LineState::from_slot(victim),
            }
        })
    }

    /// Changes the state of a present line without touching LRU; no-op if
    /// absent. Setting [`LineState::Invalid`] invalidates the line.
    pub fn set_state(&mut self, addr: u64, state: LineState) {
        if state == LineState::Invalid {
            self.invalidate(addr);
            return;
        }
        if let (range, tag, Some(way)) = self.find(addr) {
            self.slots[range.start + way] = (tag << 2) | state as u64;
        }
    }

    /// Invalidates a line if present; returns its previous state.
    pub fn invalidate(&mut self, addr: u64) -> Option<LineState> {
        let (range, _, way) = self.find(addr);
        let way = way?;
        let state = LineState::from_slot(self.slots[range.start + way]);
        // Close the gap so the empty way sits behind every valid one.
        let ways = &mut self.slots[range.start + way..range.end];
        ways.rotate_left(1);
        ways[ways.len() - 1] = 0;
        Some(state)
    }

    /// Number of valid lines (test/diagnostic helper).
    pub fn valid_lines(&self) -> usize {
        self.slots.iter().filter(|&&s| s != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        // 4 sets × 2 ways × 64 B lines = 512 B.
        SetAssocCache::new(512, 64, 2)
    }

    #[test]
    fn hit_after_insert() {
        let mut c = small();
        assert_eq!(c.lookup(0x1000), None);
        assert_eq!(c.insert(0x1000, LineState::Exclusive), None);
        assert_eq!(c.lookup(0x1000), Some(LineState::Exclusive));
        // Same line, different byte offset.
        assert_eq!(c.lookup(0x103F), Some(LineState::Exclusive));
        // Different line.
        assert_eq!(c.lookup(0x1040), None);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Three lines mapping to set 0 (set stride = 4 sets × 64 B = 256 B).
        let (a, b, d) = (0x0000, 0x0100, 0x0200);
        c.insert(a, LineState::Shared);
        c.insert(b, LineState::Shared);
        c.lookup(a); // make `b` the LRU
        let ev = c.insert(d, LineState::Shared).expect("must evict");
        assert_eq!(ev.addr, b);
        assert_eq!(c.probe(a), Some(LineState::Shared));
        assert_eq!(c.probe(b), None);
    }

    #[test]
    fn eviction_reports_state_and_line_address() {
        let mut c = small();
        c.insert(0x0040, LineState::Modified);
        c.insert(0x0140, LineState::Shared);
        let ev = c.insert(0x0240, LineState::Shared).unwrap();
        assert_eq!(ev.addr, 0x0040);
        assert_eq!(ev.state, LineState::Modified);
    }

    #[test]
    fn insert_existing_updates_state_without_eviction() {
        let mut c = small();
        c.insert(0x2000, LineState::Shared);
        assert_eq!(c.insert(0x2000, LineState::Modified), None);
        assert_eq!(c.probe(0x2000), Some(LineState::Modified));
        assert_eq!(c.valid_lines(), 1);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = small();
        c.insert(0x3000, LineState::Exclusive);
        assert_eq!(c.invalidate(0x3000), Some(LineState::Exclusive));
        assert_eq!(c.probe(0x3000), None);
        assert_eq!(c.invalidate(0x3000), None);
    }

    #[test]
    #[should_panic(expected = "smaller than one set")]
    fn rejects_degenerate_geometry() {
        SetAssocCache::new(64, 64, 2);
    }

    /// The clock-stamp LRU the packed store replaced, kept as a reference
    /// model: every access stamps its line from a per-cache clock, a miss
    /// fills the first empty way, and a full set evicts the stalest stamp.
    struct StampLru {
        sets: u64,
        assoc: usize,
        lines: Vec<(u64, LineState, u32)>,
        clock: u32,
    }

    impl StampLru {
        fn new(sets: u64, assoc: usize) -> StampLru {
            let lines = vec![(0, LineState::Invalid, 0); sets as usize * assoc];
            StampLru {
                sets,
                assoc,
                lines,
                clock: 0,
            }
        }
        fn find(&self, addr: u64) -> (Range<usize>, u64, Option<usize>) {
            let start = ((addr / 64) % self.sets) as usize * self.assoc;
            let tag = addr / 64 / self.sets;
            let hit = (start..start + self.assoc)
                .find(|&i| self.lines[i].1 != LineState::Invalid && self.lines[i].0 == tag);
            (start..start + self.assoc, tag, hit)
        }
        fn lookup(&mut self, addr: u64) -> Option<LineState> {
            self.clock += 1;
            let i = self.find(addr).2?;
            self.lines[i].2 = self.clock;
            Some(self.lines[i].1)
        }
        fn probe(&self, addr: u64) -> Option<LineState> {
            self.find(addr).2.map(|i| self.lines[i].1)
        }
        fn insert(&mut self, addr: u64, state: LineState) -> Option<Eviction> {
            self.clock += 1;
            let (range, tag, hit) = self.find(addr);
            let free = range
                .clone()
                .find(|&i| self.lines[i].1 == LineState::Invalid);
            let i = hit.or(free).unwrap_or_else(|| {
                range
                    .min_by_key(|&i| self.lines[i].2)
                    .expect("a set has a way")
            });
            let (old_tag, old_state, _) =
                std::mem::replace(&mut self.lines[i], (tag, state, self.clock));
            let set = (i / self.assoc) as u64;
            (hit.is_none() && old_state != LineState::Invalid).then(|| Eviction {
                addr: (old_tag * self.sets + set) * 64,
                state: old_state,
            })
        }
        fn set_state(&mut self, addr: u64, state: LineState) {
            if let Some(i) = self.find(addr).2 {
                self.lines[i].1 = state;
            }
        }
        fn invalidate(&mut self, addr: u64) -> Option<LineState> {
            let i = self.find(addr).2?;
            Some(std::mem::replace(&mut self.lines[i].1, LineState::Invalid))
        }
    }

    const STATES: [LineState; 4] = [
        LineState::Invalid,
        LineState::Shared,
        LineState::Exclusive,
        LineState::Modified,
    ];

    /// Applies one operation to both models and asserts they agree.
    fn step(c: &mut SetAssocCache, r: &mut StampLru, op: u64, addr: u64, state: LineState) {
        let valid = if state == LineState::Invalid {
            LineState::Shared
        } else {
            state
        };
        match op {
            0 => assert_eq!(c.lookup(addr), r.lookup(addr), "lookup {addr:#x}"),
            1 => assert_eq!(c.probe(addr), r.probe(addr), "probe {addr:#x}"),
            2 => assert_eq!(
                c.insert(addr, valid),
                r.insert(addr, valid),
                "insert {addr:#x}"
            ),
            3 => {
                c.set_state(addr, state);
                r.set_state(addr, state);
            }
            _ => assert_eq!(
                c.invalidate(addr),
                r.invalidate(addr),
                "invalidate {addr:#x}"
            ),
        }
    }

    #[test]
    fn recency_order_matches_the_clock_stamp_reference() {
        let mut rng = crate::rng::XorShift64Star::new(0x5EED);
        for assoc in [1u32, 2, 4, 24] {
            let sets = 8;
            let mut c = SetAssocCache::new(sets * u64::from(assoc) * 64, 64, assoc);
            let mut r = StampLru::new(sets, assoc as usize);
            // Three times the capacity in distinct lines: hits, misses and
            // evictions all occur.
            let lines = sets * u64::from(assoc) * 3;
            for _ in 0..40_000 {
                let addr = rng.next_below(lines) * 64 + rng.next_below(64);
                let state = STATES[rng.next_below(4) as usize];
                // Weighted towards lookups and inserts, as the hierarchy is.
                let op = [0, 0, 0, 1, 2, 2, 2, 3, 4][rng.next_below(9) as usize];
                step(&mut c, &mut r, op, addr, state);
            }
            let ref_valid = r.lines.iter().filter(|l| l.1 != LineState::Invalid).count();
            assert_eq!(c.valid_lines(), ref_valid, "{assoc}-way");
        }
    }

    #[test]
    fn invalidated_way_mid_set_is_refilled_without_eviction() {
        let mut c = SetAssocCache::new(4 * 64, 64, 4); // one set, 4 ways
        let mut r = StampLru::new(1, 4);
        let ops = [
            // Fill, recency a < b < d < e, then punch out b mid-set.
            (2, 0x000),
            (2, 0x040),
            (2, 0x080),
            (2, 0x0C0),
            (4, 0x040),
            // Refill b's slot: no eviction; then `a` is the victim.
            (2, 0x100),
            (2, 0x140),
            (0, 0x080),
            (2, 0x040),
            (1, 0x0C0),
        ];
        for (op, addr) in ops {
            step(&mut c, &mut r, op, addr, LineState::Modified);
        }
        assert_eq!(c.probe(0x000), None);
        assert_eq!(c.valid_lines(), 4);
    }

    #[test]
    #[should_panic(expected = "at least 2 address bits")]
    fn rejects_geometry_whose_packed_tag_could_overflow() {
        SetAssocCache::new(2, 2, 1);
    }
}
