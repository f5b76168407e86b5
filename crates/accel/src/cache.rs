//! Set-associative LRU cache model.
//!
//! Models the shared on-chip buffer that holds rows of `B`. Addresses are
//! abstract line numbers; the engine maps each row of `B` to a contiguous
//! line range and fetches it with [`LruCache::access_range`]. True LRU
//! replacement within each set.
//!
//! # Layout
//!
//! The cache is two flat, set-major arrays, `tags` and `stamps`, of
//! `num_sets * ways` entries each: way `w` of set `s` lives at index
//! `s * ways + w`. A way's stamp is the access tick that last touched it. A
//! free way holds tag `u64::MAX` and stamp 0, so it is always the least
//! recently used and a miss fills free ways before it evicts anything.
//!
//! # Why the scan has no branches
//!
//! Which way of a set matches a line, and which one is oldest, depends on
//! the access stream and follows no pattern a branch predictor can learn.
//! So each access scans every way of its set with no early exit and picks
//! the hit way and the LRU victim with conditional moves. It then writes
//! the chosen way once and adds the hit bit to the hit and miss counters.
//! Apart from bounds checks, the only branches left are the loop over the
//! ways, which always runs `ways` times, and the set index wrapping in a
//! range fetch; all of them predict well.

use std::ops::Range;

/// Tag of a way that holds no line.
const FREE: u64 = u64::MAX;

/// A set-associative cache with true-LRU replacement.
///
/// Line `u64::MAX` is reserved as the tag of a free way.
///
/// # Example
///
/// ```
/// use bootes_accel::LruCache;
///
/// let mut c = LruCache::new(2, 1); // 2 sets, direct-mapped
/// assert!(!c.access(0)); // miss
/// assert!(c.access(0));  // hit
/// assert!(!c.access(2)); // maps to set 0, evicts line 0
/// assert!(!c.access(0)); // miss again
/// c.access_range(4..8);  // lines 4..8 fill sets 0, 1, 0, 1 in turn
/// assert_eq!((c.hits(), c.misses()), (1, 7));
/// ```
#[derive(Debug, Clone)]
pub struct LruCache {
    /// Line held by each way, set-major; [`FREE`] for an empty way.
    tags: Vec<u64>,
    /// Tick of each way's last access, set-major; 0 for an empty way.
    stamps: Vec<u64>,
    num_sets: usize,
    ways: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl LruCache {
    /// Creates a cache with `num_sets` sets of `ways` lines each.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets == 0` or `ways == 0`.
    pub fn new(num_sets: usize, ways: usize) -> Self {
        assert!(num_sets > 0, "cache needs at least one set");
        assert!(ways > 0, "cache needs at least one way");
        LruCache {
            tags: vec![FREE; num_sets * ways],
            stamps: vec![0; num_sets * ways],
            num_sets,
            ways,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Accesses line `addr`, returning `true` on a hit. On a miss the line is
    /// installed, evicting the least-recently-used line of its set if full.
    ///
    /// # Panics
    ///
    /// Panics if `addr == u64::MAX`, the free-way tag.
    pub fn access(&mut self, addr: u64) -> bool {
        assert!(addr != FREE, "line u64::MAX is the free-way tag");
        let set = (addr % self.num_sets as u64) as usize;
        self.access_in(set, addr)
    }

    /// Accesses every line of `lines` in order, as [`LruCache::access`] on
    /// each would. Divides once for the first line's set, then steps the
    /// set index, wrapping at the set count. A `Range<u64>` never holds
    /// `u64::MAX`, so no line can collide with the free-way tag.
    pub fn access_range(&mut self, lines: Range<u64>) {
        if lines.is_empty() {
            return;
        }
        let mut set = (lines.start % self.num_sets as u64) as usize;
        for addr in lines {
            self.access_in(set, addr);
            set += 1;
            if set == self.num_sets {
                set = 0;
            }
        }
    }

    /// Accesses line `addr`, which maps to `set`: one scan over every way
    /// picks the hit way and the LRU victim with conditional moves, then one
    /// write installs or refreshes the chosen way.
    #[inline(always)]
    fn access_in(&mut self, set: usize, addr: u64) -> bool {
        self.tick += 1;
        let base = set * self.ways;
        let tags = &self.tags[base..base + self.ways];
        let stamps = &self.stamps[base..base + self.ways];
        let mut hit = self.ways;
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (w, (&t, &s)) in tags.iter().zip(stamps).enumerate() {
            hit = if t == addr { w } else { hit };
            let older = s < oldest;
            victim = if older { w } else { victim };
            oldest = if older { s } else { oldest };
        }
        let is_hit = hit < self.ways;
        let way = base + if is_hit { hit } else { victim };
        self.tags[way] = addr;
        self.stamps[way] = self.tick;
        self.hits += u64::from(is_hit);
        self.misses += u64::from(!is_hit);
        is_hit
    }

    /// Total hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != FREE).count()
    }

    /// Total line capacity.
    pub fn capacity_lines(&self) -> usize {
        self.tags.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The set-of-`Vec`s true-LRU cache the flat one replaced, kept as the
    /// reference it must match access for access.
    struct ReferenceLru {
        sets: Vec<Vec<CacheLine>>,
        ways: usize,
        tick: u64,
        hits: u64,
        misses: u64,
    }

    #[derive(Clone, Copy)]
    struct CacheLine {
        addr: u64,
        last_used: u64,
    }

    impl ReferenceLru {
        fn new(num_sets: usize, ways: usize) -> Self {
            ReferenceLru {
                sets: vec![Vec::with_capacity(ways); num_sets],
                ways,
                tick: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            self.tick += 1;
            let set_idx = (addr % self.sets.len() as u64) as usize;
            let set = &mut self.sets[set_idx];
            if let Some(line) = set.iter_mut().find(|l| l.addr == addr) {
                line.last_used = self.tick;
                self.hits += 1;
                return true;
            }
            self.misses += 1;
            if set.len() < self.ways {
                set.push(CacheLine {
                    addr,
                    last_used: self.tick,
                });
            } else {
                let victim = set
                    .iter_mut()
                    .min_by_key(|l| l.last_used)
                    .expect("set is full, hence non-empty");
                *victim = CacheLine {
                    addr,
                    last_used: self.tick,
                };
            }
            false
        }

        fn resident_lines(&self) -> usize {
            self.sets.iter().map(Vec::len).sum()
        }
    }

    #[test]
    fn hit_after_install() {
        let mut c = LruCache::new(4, 2);
        assert!(!c.access(10));
        assert!(c.access(10));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        // Direct set: addresses 0, 4, 8 all map to set 0 of a 4-set cache.
        let mut c = LruCache::new(4, 2);
        c.access(0);
        c.access(4);
        c.access(0); // 0 is now MRU; 4 is LRU
        c.access(8); // evicts 4
        assert!(c.access(0), "0 must still be resident");
        assert!(!c.access(4), "4 must have been evicted");
    }

    #[test]
    fn sets_are_independent() {
        let mut c = LruCache::new(2, 1);
        c.access(0); // set 0
        c.access(1); // set 1
        assert!(c.access(0));
        assert!(c.access(1));
    }

    #[test]
    fn working_set_within_capacity_always_hits_after_warmup() {
        let mut c = LruCache::new(8, 4); // 32 lines
        for round in 0..3 {
            for addr in 0..32u64 {
                let hit = c.access(addr);
                if round > 0 {
                    assert!(hit, "addr {addr} missed in round {round}");
                }
            }
        }
        assert_eq!(c.resident_lines(), 32);
        assert_eq!(c.capacity_lines(), 32);
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut c = LruCache::new(2, 2); // 4 lines
                                         // Cyclic sweep over 8 lines with LRU: every access misses.
        for _ in 0..4 {
            for addr in 0..8u64 {
                c.access(addr);
            }
        }
        assert_eq!(c.hits(), 0);
    }

    #[test]
    fn range_longer_than_the_set_count_wraps() {
        // Lines 3..10 of a 3-set cache land in sets 0, 1, 2, 0, 1, 2, 0:
        // with two ways, set 0 holds 3 and 6, then 9 evicts 3.
        let mut c = LruCache::new(3, 2);
        c.access_range(3..10);
        assert_eq!((c.hits(), c.misses()), (0, 7));
        assert!(c.access(6) && c.access(9) && !c.access(3));
        c.access_range(5..5);
        assert_eq!(c.hits() + c.misses(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn zero_sets_panics() {
        let _ = LruCache::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "free-way tag")]
    fn reserved_line_panics() {
        LruCache::new(4, 2).access(u64::MAX);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Per-access hit bits and running totals match the reference LRU
        /// over streams that mix single accesses and range fetches, some of
        /// them longer than the set count. The set count is drawn from
        /// 1..200 or from the scaled presets' 40, 122 and 163 sets.
        #[test]
        fn flat_cache_matches_reference_lru(
            (sets_pick, drawn_sets, ways) in (0usize..5, 1usize..200, 1usize..17),
            ops in collection::vec((0u64..3, 0u64..4096, 0u64..600), 1..160),
        ) {
            let num_sets = [drawn_sets, drawn_sets, 40, 122, 163][sets_pick];
            let mut flat = LruCache::new(num_sets, ways);
            let mut reference = ReferenceLru::new(num_sets, ways);
            for (kind, start, len) in ops {
                if kind == 0 {
                    prop_assert_eq!(flat.access(start), reference.access(start));
                } else {
                    // Kind 1 fetches under 12 lines, kind 2 up to 600, more
                    // than any drawn set count.
                    let len = if kind == 1 { len % 12 } else { len };
                    flat.access_range(start..start + len);
                    for line in start..start + len {
                        reference.access(line);
                    }
                }
                prop_assert_eq!(
                    (flat.hits(), flat.misses()),
                    (reference.hits, reference.misses)
                );
            }
            prop_assert_eq!(flat.resident_lines(), reference.resident_lines());
        }
    }
}
