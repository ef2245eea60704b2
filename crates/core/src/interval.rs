//! Circular intervals and interval sets over the ID universe.
//!
//! Every algorithm in the paper except Random emits IDs in *arcs* of the
//! cycle `[0, m)`: Cluster emits one growing arc, Bins(k) emits aligned
//! arcs of length `k`, Cluster★ emits arcs of doubling length, Bins★ emits
//! one aligned arc per chunk. Representing an instance's output as a set of
//! arcs instead of a set of points is what makes both
//!
//! * Cluster★'s placement rule ("draw `x` uniformly such that `run(x, r)`
//!   does not collide with previously chosen runs"), and
//! * symbolic collision detection between instances at demands far beyond
//!   what could be materialized (`d ≈ 2⁴⁰`),
//!
//! tractable. [`IntervalSet`] is the normalized-sorted-disjoint-segment
//! structure providing union, intersection tests, measure, and uniform
//! sampling of run placements.

use crate::id::{Id, IdSpace};
use crate::rng::{uniform_below, Xoshiro256pp};

/// An arc of the cycle `[0, m)`: `len` consecutive IDs starting at `start`,
/// wrapping modulo `m`. `len == m` denotes the full circle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arc {
    /// First ID of the arc.
    pub start: Id,
    /// Number of IDs in the arc (`1 ..= m`).
    pub len: u128,
}

impl Arc {
    /// Creates the arc `run(start, len)` in the paper's notation.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` or the arc does not fit in `space`.
    pub fn new(space: IdSpace, start: Id, len: u128) -> Self {
        assert!(len >= 1, "arcs must contain at least one ID");
        assert!(
            len <= space.size(),
            "arc of length {len} exceeds universe {space}"
        );
        assert!(space.contains(start), "arc start outside the universe");
        Arc { start, len }
    }

    /// The single-ID arc `{id}`.
    pub fn point(space: IdSpace, id: Id) -> Self {
        Arc::new(space, id, 1)
    }

    /// The last ID of the arc.
    pub fn last(&self, space: IdSpace) -> Id {
        space.add(self.start, self.len - 1)
    }

    /// Whether `id` lies on the arc.
    pub fn contains(&self, space: IdSpace, id: Id) -> bool {
        space.forward_distance(self.start, id) < self.len
    }

    /// The `i`-th ID of the arc (zero-based).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn nth(&self, space: IdSpace, i: u128) -> Id {
        assert!(i < self.len, "index {i} out of arc of length {}", self.len);
        space.add(self.start, i)
    }
}

/// A half-open, non-wrapping segment `[lo, hi)` with `0 <= lo < hi <= m`.
///
/// Internal normal form of [`IntervalSet`]; wrapping arcs are stored as two
/// segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Segment {
    lo: u128,
    hi: u128,
}

/// A set of IDs represented as sorted, disjoint, non-adjacent segments.
///
/// All operations are `O(s)` or `O(log s)` in the number of segments `s`,
/// which for every algorithm in this crate is at most the number of
/// runs/bins the instance has opened (`O(log d)` for Cluster★ and Bins★,
/// `O(d/k)` for Bins(k), `1` for Cluster).
#[derive(Debug, Clone)]
pub struct IntervalSet {
    space: IdSpace,
    segments: Vec<Segment>,
    measure: u128,
    /// Index of the segment most recently created or extended by an
    /// insertion. Emitters extend the same segment over and over
    /// (consecutive IDs from the current run), so checking this slot first
    /// turns those insertions into amortized O(1) in-place updates with no
    /// binary search and no memmove. Purely an accelerator: stale or
    /// out-of-range hints are detected and ignored.
    hint: usize,
}

impl IntervalSet {
    /// The empty set over `space`.
    pub fn new(space: IdSpace) -> Self {
        IntervalSet {
            space,
            segments: Vec::new(),
            measure: 0,
            hint: 0,
        }
    }

    /// Empties the set, retaining allocated capacity. This is what lets a
    /// Monte-Carlo worker reuse one generator across millions of trials
    /// without touching the allocator.
    pub fn clear(&mut self) {
        self.segments.clear();
        self.measure = 0;
        self.hint = 0;
    }

    /// The universe this set lives in.
    pub fn space(&self) -> IdSpace {
        self.space
    }

    /// Number of IDs in the set.
    pub fn measure(&self) -> u128 {
        self.measure
    }

    /// Number of IDs *not* in the set.
    pub fn complement_measure(&self) -> u128 {
        self.space.size() - self.measure
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.measure == 0
    }

    /// Whether the set is the whole universe.
    pub fn is_full(&self) -> bool {
        self.measure == self.space.size()
    }

    /// Number of internal segments (diagnostics / complexity assertions).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Whether `id` is in the set.
    pub fn contains(&self, id: Id) -> bool {
        debug_assert!(self.space.contains(id));
        let v = id.value();
        self.segments
            .binary_search_by(|s| {
                if s.hi <= v {
                    std::cmp::Ordering::Less
                } else if s.lo > v {
                    std::cmp::Ordering::Greater
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Splits an arc into at most two non-wrapping half-open segments.
    fn split(&self, arc: Arc) -> [Option<Segment>; 2] {
        let m = self.space.size();
        let lo = arc.start.value();
        if arc.len == m {
            return [Some(Segment { lo: 0, hi: m }), None];
        }
        let end = lo + arc.len; // may exceed m; no overflow since both < 2^127
        if end <= m {
            [Some(Segment { lo, hi: end }), None]
        } else {
            [
                Some(Segment { lo, hi: m }),
                Some(Segment { lo: 0, hi: end - m }),
            ]
        }
    }

    /// Inserts all IDs of `arc` into the set (union).
    pub fn insert(&mut self, arc: Arc) {
        for seg in self.split(arc).into_iter().flatten() {
            self.insert_segment(seg);
        }
    }

    /// Inserts the single ID `id`.
    pub fn insert_point(&mut self, id: Id) {
        self.insert(Arc::point(self.space, id));
    }

    fn insert_segment(&mut self, seg: Segment) {
        // Fast path 1 — extend the hinted segment in place. This is the
        // shape of every consecutive emission from an open run: the new
        // segment starts on or inside the hinted one and stops short of its
        // successor. O(1), no search, no memmove.
        if let Some(&h) = self.segments.get(self.hint) {
            if seg.lo >= h.lo && seg.lo <= h.hi {
                if seg.hi <= h.hi {
                    return; // already covered
                }
                let next_lo = self
                    .segments
                    .get(self.hint + 1)
                    .map(|s| s.lo)
                    .unwrap_or(u128::MAX);
                if seg.hi < next_lo {
                    self.measure += seg.hi - h.hi;
                    self.segments[self.hint].hi = seg.hi;
                    return;
                }
            }
        }
        // Locate the range of existing segments that overlap or touch `seg`.
        let start_idx = self.segments.partition_point(|s| s.hi < seg.lo);
        let end_idx = self.segments.partition_point(|s| s.lo <= seg.hi);
        if start_idx == end_idx {
            // No overlap/adjacency. Appending past the end is O(1); interior
            // insertion pays the memmove (once per *run*, not per ID).
            self.measure += seg.hi - seg.lo;
            self.segments.insert(start_idx, seg);
            self.hint = start_idx;
            return;
        }
        if end_idx == start_idx + 1 {
            // Fast path 2 — merge with exactly one segment: update it in
            // place instead of drain + insert (two memmoves saved).
            let s = &mut self.segments[start_idx];
            let merged = Segment {
                lo: seg.lo.min(s.lo),
                hi: seg.hi.max(s.hi),
            };
            self.measure += (merged.hi - merged.lo) - (s.hi - s.lo);
            *s = merged;
            self.hint = start_idx;
            return;
        }
        let merged = Segment {
            lo: seg.lo.min(self.segments[start_idx].lo),
            hi: seg.hi.max(self.segments[end_idx - 1].hi),
        };
        let removed: u128 = self.segments[start_idx..end_idx]
            .iter()
            .map(|s| s.hi - s.lo)
            .sum();
        self.segments.drain(start_idx + 1..end_idx);
        self.segments[start_idx] = merged;
        self.measure += (merged.hi - merged.lo) - removed;
        self.hint = start_idx;
    }

    /// Whether `arc` intersects the set.
    pub fn intersects_arc(&self, arc: Arc) -> bool {
        self.split(arc)
            .into_iter()
            .flatten()
            .any(|seg| self.overlaps_segment(seg))
    }

    fn overlaps_segment(&self, seg: Segment) -> bool {
        let idx = self.segments.partition_point(|s| s.hi <= seg.lo);
        self.segments.get(idx).is_some_and(|s| s.lo < seg.hi)
    }

    /// Number of IDs of `arc` that are in the set.
    pub fn intersection_measure(&self, arc: Arc) -> u128 {
        self.split(arc)
            .into_iter()
            .flatten()
            .map(|seg| self.segment_intersection_measure(seg))
            .sum()
    }

    fn segment_intersection_measure(&self, seg: Segment) -> u128 {
        let mut total = 0;
        let mut idx = self.segments.partition_point(|s| s.hi <= seg.lo);
        while let Some(s) = self.segments.get(idx) {
            if s.lo >= seg.hi {
                break;
            }
            total += s.hi.min(seg.hi) - s.lo.max(seg.lo);
            idx += 1;
        }
        total
    }

    /// Whether the two sets share any ID. `O(s₁ + s₂)` merge walk.
    ///
    /// This is the symbolic collision test between two instances' emitted
    /// footprints.
    pub fn intersects_set(&self, other: &IntervalSet) -> bool {
        debug_assert_eq!(self.space, other.space);
        let (mut i, mut j) = (0, 0);
        while i < self.segments.len() && j < other.segments.len() {
            let a = self.segments[i];
            let b = other.segments[j];
            if a.lo < b.hi && b.lo < a.hi {
                return true;
            }
            if a.hi <= b.hi {
                i += 1;
            } else {
                j += 1;
            }
        }
        false
    }

    /// Number of IDs shared by the two sets.
    pub fn intersection_measure_set(&self, other: &IntervalSet) -> u128 {
        debug_assert_eq!(self.space, other.space);
        let (mut i, mut j) = (0, 0);
        let mut total = 0;
        while i < self.segments.len() && j < other.segments.len() {
            let a = self.segments[i];
            let b = other.segments[j];
            let lo = a.lo.max(b.lo);
            let hi = a.hi.min(b.hi);
            if lo < hi {
                total += hi - lo;
            }
            if a.hi <= b.hi {
                i += 1;
            } else {
                j += 1;
            }
        }
        total
    }

    /// The *circular gaps*: maximal arcs of the complement.
    ///
    /// If the first and last segments leave room at both ends of `[0, m)`,
    /// those two pieces are one wrapping gap and are reported as a single
    /// arc. An empty set yields one full-circle gap.
    ///
    /// Allocates the result vector; the hot paths
    /// ([`count_fitting_starts`](Self::count_fitting_starts),
    /// [`sample_fitting_start`](Self::sample_fitting_start)) walk the gaps
    /// through an internal zero-allocation cursor instead.
    pub fn gaps(&self) -> Vec<Arc> {
        self.gap_cursor().collect()
    }

    /// Zero-allocation iterator over the circular gaps, in the same order
    /// as [`gaps`](Self::gaps): interior gaps left to right, then the
    /// wrapping gap (if any) last.
    fn gap_cursor(&self) -> GapCursor<'_> {
        GapCursor {
            set: self,
            idx: 0,
            emitted_wrap: self.is_full(),
        }
    }

    /// Uniformly samples an ID from the complement of the set.
    ///
    /// Returns `None` if the set is full.
    pub fn sample_complement(&self, rng: &mut Xoshiro256pp) -> Option<Id> {
        let free = self.complement_measure();
        if free == 0 {
            return None;
        }
        let mut r = uniform_below(rng, free);
        let mut cursor = 0u128;
        for seg in &self.segments {
            let gap = seg.lo - cursor;
            if r < gap {
                return Some(Id(cursor + r));
            }
            r -= gap;
            cursor = seg.hi;
        }
        Some(Id(cursor + r))
    }

    /// Number of starts `x` such that the arc `run(x, len)` is disjoint from
    /// the set. This is the denominator of Cluster★'s placement rule.
    ///
    /// Walks the gaps through the internal cursor — no allocation.
    pub fn count_fitting_starts(&self, len: u128) -> u128 {
        assert!(len >= 1);
        let m = self.space.size();
        assert!(len <= m);
        if self.segments.is_empty() {
            return m;
        }
        self.gap_cursor()
            .filter(|g| g.len >= len)
            .map(|g| g.len - len + 1)
            .sum()
    }

    /// Uniformly samples a start `x` such that `run(x, len)` is disjoint
    /// from the set, or `None` if no such start exists.
    ///
    /// Exactly implements Cluster★'s "draw `x ∈ [m]` uniformly at random
    /// such that `run(x, r)` does not collide with previously chosen runs".
    ///
    /// Two cursor passes (count, then select), zero allocations — this is
    /// the per-run-placement hot path of Cluster★.
    pub fn sample_fitting_start(&self, rng: &mut Xoshiro256pp, len: u128) -> Option<Id> {
        let total = self.count_fitting_starts(len);
        if total == 0 {
            return None;
        }
        if self.segments.is_empty() {
            return Some(Id(uniform_below(rng, total)));
        }
        let mut r = uniform_below(rng, total);
        for gap in self.gap_cursor() {
            if gap.len < len {
                continue;
            }
            let starts = gap.len - len + 1;
            if r < starts {
                return Some(self.space.add(gap.start, r));
            }
            r -= starts;
        }
        unreachable!("sample index exceeded counted fitting starts");
    }

    /// Iterates the normalized half-open segments `[lo, hi)` in increasing
    /// order. Wrapping arcs appear as two segments. This is the raw view
    /// collision detectors use for k-way sweeps across many instances.
    pub fn segments(&self) -> impl Iterator<Item = (u128, u128)> + '_ {
        self.segments.iter().map(|s| (s.lo, s.hi))
    }

    /// Iterates the set's IDs in increasing order. Test/diagnostic helper;
    /// panics for sets with measure above 2²⁴.
    pub fn iter_ids(&self) -> impl Iterator<Item = Id> + '_ {
        assert!(self.measure <= 1 << 24, "iter_ids is for small sets only");
        self.segments.iter().flat_map(|s| (s.lo..s.hi).map(Id))
    }

    /// Internal invariant check used by tests and debug assertions.
    #[doc(hidden)]
    pub fn assert_invariants(&self) {
        let m = self.space.size();
        let mut measure = 0;
        let mut prev_hi: Option<u128> = None;
        for s in &self.segments {
            assert!(s.lo < s.hi, "degenerate segment");
            assert!(s.hi <= m, "segment out of universe");
            if let Some(ph) = prev_hi {
                assert!(s.lo > ph, "segments must be disjoint and non-adjacent");
            }
            measure += s.hi - s.lo;
            prev_hi = Some(s.hi);
        }
        assert_eq!(measure, self.measure, "cached measure out of sync");
    }
}

/// Zero-allocation iterator over a set's circular gaps.
///
/// Yields the interior gaps between consecutive segments in order, then
/// the single wrapping gap spanning the tail of `[0, m)` and the head
/// before the first segment (reported as one arc, or suppressed when the
/// boundary is covered). On the empty set, yields one full-circle gap.
struct GapCursor<'a> {
    set: &'a IntervalSet,
    /// Next interior gap to consider: between `segments[idx]` and
    /// `segments[idx + 1]`.
    idx: usize,
    emitted_wrap: bool,
}

impl Iterator for GapCursor<'_> {
    type Item = Arc;

    fn next(&mut self) -> Option<Arc> {
        let segs = &self.set.segments;
        let m = self.set.space.size();
        if self.emitted_wrap {
            return None;
        }
        if segs.is_empty() {
            self.emitted_wrap = true;
            return Some(Arc {
                start: Id(0),
                len: m,
            });
        }
        if self.idx + 1 < segs.len() {
            let i = self.idx;
            self.idx += 1;
            // Segments are disjoint and non-adjacent, so interior gaps are
            // always non-empty.
            return Some(Arc {
                start: Id(segs[i].hi),
                len: segs[i + 1].lo - segs[i].hi,
            });
        }
        self.emitted_wrap = true;
        let head = segs[0].lo; // room before the first segment
        let last_hi = segs[segs.len() - 1].hi;
        let tail = m - last_hi; // room after the last segment
        if head + tail > 0 {
            return Some(Arc {
                start: Id(if last_hi == m { 0 } else { last_hi }),
                len: head + tail,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space(m: u128) -> IdSpace {
        IdSpace::new(m).unwrap()
    }

    #[test]
    fn arc_basics() {
        let s = space(20);
        let a = Arc::new(s, Id(18), 5); // {18,19,0,1,2}
        assert_eq!(a.last(s), Id(2));
        assert!(a.contains(s, Id(19)));
        assert!(a.contains(s, Id(0)));
        assert!(a.contains(s, Id(2)));
        assert!(!a.contains(s, Id(3)));
        assert!(!a.contains(s, Id(17)));
        assert_eq!(a.nth(s, 0), Id(18));
        assert_eq!(a.nth(s, 4), Id(2));
    }

    #[test]
    fn full_circle_arc() {
        let s = space(8);
        let a = Arc::new(s, Id(5), 8);
        for i in 0..8 {
            assert!(a.contains(s, Id(i)));
        }
    }

    #[test]
    fn insert_and_contains() {
        let s = space(100);
        let mut set = IntervalSet::new(s);
        set.insert(Arc::new(s, Id(10), 5)); // [10,15)
        set.insert(Arc::new(s, Id(20), 5)); // [20,25)
        set.assert_invariants();
        assert_eq!(set.measure(), 10);
        assert!(set.contains(Id(10)));
        assert!(set.contains(Id(14)));
        assert!(!set.contains(Id(15)));
        assert!(set.contains(Id(24)));
        assert!(!set.contains(Id(25)));
        assert_eq!(set.segment_count(), 2);
    }

    #[test]
    fn insert_merges_overlapping_and_adjacent() {
        let s = space(100);
        let mut set = IntervalSet::new(s);
        set.insert(Arc::new(s, Id(10), 5)); // [10,15)
        set.insert(Arc::new(s, Id(15), 5)); // adjacent: [15,20)
        set.assert_invariants();
        assert_eq!(set.segment_count(), 1);
        assert_eq!(set.measure(), 10);
        set.insert(Arc::new(s, Id(12), 20)); // overlapping: [12,32)
        set.assert_invariants();
        assert_eq!(set.segment_count(), 1);
        assert_eq!(set.measure(), 22);
    }

    #[test]
    fn insert_merges_across_many_segments() {
        let s = space(1000);
        let mut set = IntervalSet::new(s);
        for i in 0..10 {
            set.insert(Arc::new(s, Id(i * 20), 5));
        }
        assert_eq!(set.segment_count(), 10);
        set.insert(Arc::new(s, Id(0), 200));
        set.assert_invariants();
        assert_eq!(set.segment_count(), 1);
        assert_eq!(set.measure(), 200);
    }

    #[test]
    fn wrapping_arc_splits_and_wrapping_gap_rejoins() {
        let s = space(20);
        let mut set = IntervalSet::new(s);
        set.insert(Arc::new(s, Id(18), 5)); // {18,19,0,1,2}
        set.assert_invariants();
        assert_eq!(set.measure(), 5);
        assert!(set.contains(Id(19)));
        assert!(set.contains(Id(0)));
        assert!(set.contains(Id(2)));
        assert!(!set.contains(Id(3)));
        let gaps = set.gaps();
        assert_eq!(gaps.len(), 1);
        assert_eq!(gaps[0].start, Id(3));
        assert_eq!(gaps[0].len, 15);
    }

    #[test]
    fn gaps_of_empty_and_full_sets() {
        let s = space(16);
        let set = IntervalSet::new(s);
        let gaps = set.gaps();
        assert_eq!(gaps.len(), 1);
        assert_eq!(gaps[0].len, 16);

        let mut full = IntervalSet::new(s);
        full.insert(Arc::new(s, Id(3), 16));
        assert!(full.is_full());
        assert!(full.gaps().is_empty());
    }

    #[test]
    fn intersects_arc_detects_overlap() {
        let s = space(50);
        let mut set = IntervalSet::new(s);
        set.insert(Arc::new(s, Id(10), 10)); // [10,20)
        assert!(set.intersects_arc(Arc::new(s, Id(19), 1)));
        assert!(set.intersects_arc(Arc::new(s, Id(5), 6)));
        assert!(!set.intersects_arc(Arc::new(s, Id(20), 5)));
        assert!(!set.intersects_arc(Arc::new(s, Id(5), 5)));
        // Wrapping probe that reaches into [10,20).
        assert!(set.intersects_arc(Arc::new(s, Id(45), 16)));
        assert!(!set.intersects_arc(Arc::new(s, Id(45), 15)));
    }

    #[test]
    fn intersection_measures() {
        let s = space(50);
        let mut a = IntervalSet::new(s);
        a.insert(Arc::new(s, Id(10), 10)); // [10,20)
        a.insert(Arc::new(s, Id(30), 5)); // [30,35)
        assert_eq!(a.intersection_measure(Arc::new(s, Id(15), 20)), 10); // [15,35): 5 + 5
        let mut b = IntervalSet::new(s);
        b.insert(Arc::new(s, Id(18), 14)); // [18,32)
        assert!(a.intersects_set(&b));
        assert_eq!(a.intersection_measure_set(&b), 4); // [18,20) + [30,32)
        let mut c = IntervalSet::new(s);
        c.insert(Arc::new(s, Id(20), 10)); // [20,30): touches both but overlaps neither
        assert!(!a.intersects_set(&c));
        assert_eq!(a.intersection_measure_set(&c), 0);
    }

    #[test]
    fn sample_complement_avoids_set() {
        let s = space(100);
        let mut set = IntervalSet::new(s);
        set.insert(Arc::new(s, Id(0), 90)); // only [90,100) free
        let mut rng = Xoshiro256pp::new(1);
        for _ in 0..200 {
            let id = set.sample_complement(&mut rng).unwrap();
            assert!(id.value() >= 90);
        }
        set.insert(Arc::new(s, Id(90), 10));
        assert!(set.sample_complement(&mut rng).is_none());
    }

    #[test]
    fn sample_complement_is_uniform_over_gaps() {
        let s = space(10);
        let mut set = IntervalSet::new(s);
        set.insert(Arc::new(s, Id(2), 3)); // occupied {2,3,4}
        set.insert(Arc::new(s, Id(7), 2)); // occupied {7,8}
        let mut rng = Xoshiro256pp::new(2);
        let mut counts = [0u32; 10];
        let trials = 50_000;
        for _ in 0..trials {
            counts[set.sample_complement(&mut rng).unwrap().value() as usize] += 1;
        }
        let free = [0usize, 1, 5, 6, 9];
        for (id, &count) in counts.iter().enumerate() {
            if free.contains(&id) {
                let expected = trials as f64 / free.len() as f64;
                let dev = (count as f64 - expected).abs() / expected;
                assert!(dev < 0.05, "id {id}: count {count} dev {dev:.3}");
            } else {
                assert_eq!(count, 0, "occupied id {id} was sampled");
            }
        }
    }

    #[test]
    fn count_fitting_starts_matches_brute_force() {
        let s = space(30);
        let mut set = IntervalSet::new(s);
        set.insert(Arc::new(s, Id(5), 4)); // [5,9)
        set.insert(Arc::new(s, Id(25), 8)); // {25..29, 0,1,2}
        set.assert_invariants();
        for len in 1..=30u128 {
            let brute = (0..30u128)
                .filter(|&x| !set.intersects_arc(Arc::new(s, Id(x), len)))
                .count() as u128;
            assert_eq!(set.count_fitting_starts(len), brute, "len = {len} mismatch");
        }
    }

    #[test]
    fn sample_fitting_start_yields_disjoint_runs() {
        let s = space(64);
        let mut set = IntervalSet::new(s);
        let mut rng = Xoshiro256pp::new(3);
        // Place runs of doubling length, exactly like Cluster★.
        for r in [1u128, 2, 4, 8, 16] {
            let start = set.sample_fitting_start(&mut rng, r).unwrap();
            let run = Arc::new(s, start, r);
            assert!(!set.intersects_arc(run), "placed run must fit");
            set.insert(run);
            set.assert_invariants();
        }
        assert_eq!(set.measure(), 31);
    }

    #[test]
    fn sample_fitting_start_none_when_fragmented() {
        let s = space(10);
        let mut set = IntervalSet::new(s);
        // Occupy every other ID: no gap of length >= 2 remains.
        for i in (0..10u128).step_by(2) {
            set.insert_point(Id(i));
        }
        let mut rng = Xoshiro256pp::new(4);
        assert_eq!(set.count_fitting_starts(2), 0);
        assert!(set.sample_fitting_start(&mut rng, 2).is_none());
        // Length-1 runs still fit in each of the 5 singleton gaps.
        assert_eq!(set.count_fitting_starts(1), 5);
        assert!(set.sample_fitting_start(&mut rng, 1).is_some());
    }

    #[test]
    fn sample_fitting_start_uniform_over_valid_starts() {
        let s = space(12);
        let mut set = IntervalSet::new(s);
        set.insert(Arc::new(s, Id(0), 6)); // free: [6,12)
        let len = 3u128;
        // Valid starts: 6,7,8,9 (run must end by 11).
        let mut rng = Xoshiro256pp::new(5);
        let mut counts = std::collections::HashMap::new();
        let trials = 40_000;
        for _ in 0..trials {
            let x = set.sample_fitting_start(&mut rng, len).unwrap();
            *counts.entry(x.value()).or_insert(0u32) += 1;
        }
        assert_eq!(counts.len(), 4);
        for x in 6..=9u128 {
            let c = counts[&x] as f64;
            let expected = trials as f64 / 4.0;
            assert!((c - expected).abs() / expected < 0.05, "start {x}");
        }
    }

    #[test]
    fn clear_retains_nothing_but_stays_usable() {
        let s = space(100);
        let mut set = IntervalSet::new(s);
        set.insert(Arc::new(s, Id(10), 5));
        set.insert(Arc::new(s, Id(90), 15)); // wraps
        set.clear();
        set.assert_invariants();
        assert!(set.is_empty());
        assert_eq!(set.segment_count(), 0);
        assert_eq!(set.gaps().len(), 1);
        set.insert(Arc::new(s, Id(3), 4));
        set.assert_invariants();
        assert_eq!(set.measure(), 4);
        assert!(set.contains(Id(3)));
        assert!(!set.contains(Id(90)));
    }

    #[test]
    fn repeated_one_id_extensions_stay_normalized() {
        // The emitter pattern: the same segment is extended one ID at a
        // time (hint fast path), interleaved with far-away insertions that
        // invalidate the hint.
        let s = space(1 << 20);
        let mut set = IntervalSet::new(s);
        for i in 0..100u128 {
            set.insert(Arc::new(s, Id(5000 + i), 1));
            set.assert_invariants();
        }
        assert_eq!(set.segment_count(), 1);
        set.insert(Arc::new(s, Id(100_000), 7)); // hint now points elsewhere
        for i in 100..200u128 {
            set.insert(Arc::new(s, Id(5000 + i), 1));
            set.assert_invariants();
        }
        assert_eq!(set.segment_count(), 2);
        assert_eq!(set.measure(), 207);
    }

    #[test]
    fn extension_that_reaches_successor_merges_it() {
        let s = space(1000);
        let mut set = IntervalSet::new(s);
        set.insert(Arc::new(s, Id(10), 5)); // [10,15)
        set.insert(Arc::new(s, Id(20), 5)); // [20,25)
                                            // Extend the first segment (hinted) right up to the second.
        set.insert(Arc::new(s, Id(15), 5)); // adjacency on both sides
        set.assert_invariants();
        assert_eq!(set.segment_count(), 1);
        assert_eq!(set.measure(), 15);
    }

    #[test]
    fn gap_cursor_matches_collected_gaps_on_fragmented_sets() {
        let s = space(512);
        let mut set = IntervalSet::new(s);
        let mut rng = Xoshiro256pp::new(17);
        for _ in 0..40 {
            let start = uniform_below(&mut rng, 512);
            let len = 1 + uniform_below(&mut rng, 12);
            set.insert(Arc::new(s, Id(start), len));
            set.assert_invariants();
            // gaps() is itself cursor-backed; cross-check totals against
            // the complement measure and brute-force fitting counts.
            let gaps = set.gaps();
            let total: u128 = gaps.iter().map(|g| g.len).sum();
            assert_eq!(total, set.complement_measure());
            for len in [1u128, 2, 5] {
                let brute = (0..512u128)
                    .filter(|&x| !set.intersects_arc(Arc::new(s, Id(x), len)))
                    .count() as u128;
                assert_eq!(set.count_fitting_starts(len), brute);
            }
        }
    }

    #[test]
    fn iter_ids_lists_members_in_order() {
        let s = space(30);
        let mut set = IntervalSet::new(s);
        set.insert(Arc::new(s, Id(28), 4)); // {28,29,0,1}
        set.insert(Arc::new(s, Id(10), 2)); // {10,11}
        let ids: Vec<u128> = set.iter_ids().map(|i| i.value()).collect();
        assert_eq!(ids, vec![0, 1, 10, 11, 28, 29]);
    }
}
