//! Collision detection between instance footprints.
//!
//! A collision is the same ID appearing in two *different* instances'
//! emitted sets. Two detectors:
//!
//! * [`footprints_collide`] — symbolic: works on [`Footprint`]s, i.e.
//!   interval sets and point lists. Arc segments go through a sort +
//!   sweep (`O(S log S)` in the total segment count); points are then
//!   resolved against the sorted segment table by binary search and
//!   against each other through a hash map, so the whole pass is
//!   `O(S log S + P log S + P)` instead of the naive `O(P · k)` loop
//!   over all `k` footprints. For arc-structured algorithms `S` is tiny
//!   even when the number of IDs is astronomical, which is what lets
//!   worst-case experiments run at `d ≈ 2⁴⁰`.
//! * [`OnlineDetector`] — incremental: IDs stream in one at a time during
//!   adaptive games; detects the first cross-instance duplicate in O(1)
//!   per ID.
//!
//! Both use [`FastIdHasher`], a deterministic multiply-shift hasher over
//! the `u128` key — the adaptive game loop hits the map once per ID, and
//! SipHash was measurable there. Hot callers reuse a
//! [`CollisionScratch`] across trials to keep the segment table and
//! point map allocations alive.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use uuidp_core::id::Id;
use uuidp_core::traits::Footprint;

/// Deterministic multiply-shift hasher for `u128` ID keys.
///
/// Not DoS-resistant — inputs here are simulation IDs, not attacker
/// data — but far cheaper than SipHash and with full avalanche into the
/// low bits the hash map actually uses.
#[derive(Debug, Default, Clone)]
pub struct FastIdHasher {
    state: u64,
}

impl FastIdHasher {
    #[inline]
    fn mix(&mut self, v: u64) {
        // Multiply-shift with two rounds of xor-folding: constants from
        // SplitMix64, which have well-studied avalanche behavior.
        let mut x = self.state ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 32;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 29;
        self.state = x;
    }
}

impl Hasher for FastIdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        // The hot path: one call per ID key.
        self.mix(v as u64);
        self.mix((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// `BuildHasher` for [`FastIdHasher`]-keyed maps.
pub type FastIdBuildHasher = BuildHasherDefault<FastIdHasher>;

/// A hash map keyed by raw ID values with the fast in-crate hasher.
pub type IdMap<V> = HashMap<u128, V, FastIdBuildHasher>;

/// Reusable working memory for [`footprints_collide_with`].
///
/// One scratch per Monte-Carlo worker keeps the segment table and the
/// point map allocated across millions of trials.
#[derive(Debug, Default)]
pub struct CollisionScratch {
    /// `(lo, hi, owner)` for every arc segment of every footprint.
    segments: Vec<(u128, u128, usize)>,
    /// Point-ID → owner, for point-footprint deduplication.
    points: IdMap<usize>,
}

impl CollisionScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Whether any ID belongs to two different footprints.
///
/// Within-instance duplicates (impossible for the paper's algorithms,
/// possible for e.g. Snowflake after timestamp wrap-around) do **not**
/// count — the paper's collision event is about pairwise disjointness of
/// the per-instance sets.
pub fn footprints_collide(footprints: &[Footprint<'_>]) -> bool {
    footprints_collide_with(&mut CollisionScratch::new(), footprints)
}

/// [`footprints_collide`] with caller-provided scratch memory, for hot
/// loops that run many detections.
pub fn footprints_collide_with(
    scratch: &mut CollisionScratch,
    footprints: &[Footprint<'_>],
) -> bool {
    footprints_collide_each(scratch, |visit| {
        for (owner, fp) in footprints.iter().enumerate() {
            match fp {
                Footprint::Arcs(set) => visit(owner, Footprint::Arcs(set)),
                Footprint::Points(points) => visit(owner, Footprint::Points(points)),
            }
        }
    })
}

/// Iterator-driven collision pass: instead of taking a materialized
/// `&[Footprint]`, takes a visitation closure that yields each
/// `(owner, footprint)` pair to the supplied callback. The driver is
/// invoked once per phase (segments, then points), so footprints are
/// borrowed only transiently — which is what lets the symbolic game loop
/// feed generator footprints (`&mut`-borrowed, non-storable) directly
/// into the detector without collecting a per-trial `Vec<Footprint>`.
///
/// Detection semantics are identical to [`footprints_collide`]. The
/// driver must yield the same owners in both invocations; yielding is
/// cheap enough that re-deriving the footprints (e.g. re-calling
/// [`IdGenerator::footprint`](uuidp_core::traits::IdGenerator::footprint),
/// which is amortized O(1) after the first flush) is in the noise.
pub fn footprints_collide_each(
    scratch: &mut CollisionScratch,
    mut for_each: impl FnMut(&mut dyn FnMut(usize, Footprint<'_>)),
) -> bool {
    // Phase 1: k-way sweep over all arc segments.
    let segments = &mut scratch.segments;
    segments.clear();
    for_each(&mut |owner, fp| {
        if let Footprint::Arcs(set) = fp {
            segments.extend(set.segments().map(|(lo, hi)| (lo, hi, owner)));
        }
    });
    scratch.segments.sort_unstable_by_key(|&(lo, _, _)| lo);
    // Sweep with a running covered region (max_hi, owner). A segment that
    // starts inside the covered region overlaps some earlier segment; since
    // each owner's own segments are disjoint, the overlap is cross-owner
    // unless the whole covered region so far belongs to the same owner.
    let mut run_hi = 0u128;
    let mut run_owner = usize::MAX;
    for &(lo, hi, owner) in &scratch.segments {
        if lo < run_hi {
            if owner != run_owner {
                return true;
            }
            run_hi = run_hi.max(hi);
        } else {
            run_hi = hi;
            run_owner = owner;
        }
    }
    // Phase 2: points against the sorted segment table (binary search) and
    // points against points (hash map). Reaching this phase means the arc
    // segments are pairwise disjoint across owners, so containment needs
    // to examine at most one candidate segment per point.
    let CollisionScratch { segments, points } = scratch;
    points.clear();
    let mut collided = false;
    for_each(&mut |owner, fp| {
        if collided {
            return;
        }
        if let Footprint::Points(ids) = fp {
            for id in ids {
                let v = id.value();
                match points.entry(v) {
                    Entry::Occupied(e) => {
                        if *e.get() != owner {
                            collided = true;
                            return;
                        }
                    }
                    Entry::Vacant(e) => {
                        e.insert(owner);
                    }
                }
                // The candidate arc segment containing v, if any: the last
                // segment with lo <= v.
                let idx = segments.partition_point(|&(lo, _, _)| lo <= v);
                if idx > 0 {
                    let (_, hi, seg_owner) = segments[idx - 1];
                    if v < hi && seg_owner != owner {
                        collided = true;
                        return;
                    }
                }
            }
        }
    });
    collided
}

/// Streaming cross-instance duplicate detector for adaptive games.
#[derive(Debug, Default)]
pub struct OnlineDetector {
    owners: IdMap<usize>,
    collided: bool,
}

impl OnlineDetector {
    /// An empty detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the detector, keeping its map allocation for reuse.
    pub fn clear(&mut self) {
        self.owners.clear();
        self.collided = false;
    }

    /// Records that `instance` emitted `id`; returns `true` if this ID was
    /// previously emitted by a *different* instance (now or earlier).
    pub fn record(&mut self, instance: usize, id: Id) -> bool {
        match self.owners.entry(id.value()) {
            Entry::Occupied(e) => {
                if *e.get() != instance {
                    self.collided = true;
                }
            }
            Entry::Vacant(e) => {
                e.insert(instance);
            }
        }
        self.collided
    }

    /// Whether any cross-instance duplicate has been recorded.
    pub fn collided(&self) -> bool {
        self.collided
    }

    /// Number of distinct IDs recorded.
    pub fn distinct_ids(&self) -> usize {
        self.owners.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uuidp_core::id::IdSpace;
    use uuidp_core::interval::{Arc, IntervalSet};
    use uuidp_core::rng::{uniform_below, Xoshiro256pp};

    fn arcs(space: IdSpace, list: &[(u128, u128)]) -> IntervalSet {
        let mut set = IntervalSet::new(space);
        for &(start, len) in list {
            set.insert(Arc::new(space, Id(start), len));
        }
        set
    }

    #[test]
    fn disjoint_arc_sets_do_not_collide() {
        let s = IdSpace::new(100).unwrap();
        let a = arcs(s, &[(0, 10), (50, 5)]);
        let b = arcs(s, &[(20, 10), (60, 5)]);
        assert!(!footprints_collide(&[
            Footprint::Arcs(&a),
            Footprint::Arcs(&b)
        ]));
    }

    #[test]
    fn overlapping_arc_sets_collide() {
        let s = IdSpace::new(100).unwrap();
        let a = arcs(s, &[(0, 10)]);
        let b = arcs(s, &[(9, 3)]);
        assert!(footprints_collide(&[
            Footprint::Arcs(&a),
            Footprint::Arcs(&b)
        ]));
    }

    #[test]
    fn touching_arcs_do_not_collide() {
        let s = IdSpace::new(100).unwrap();
        let a = arcs(s, &[(0, 10)]); // [0,10)
        let b = arcs(s, &[(10, 10)]); // [10,20)
        assert!(!footprints_collide(&[
            Footprint::Arcs(&a),
            Footprint::Arcs(&b)
        ]));
    }

    #[test]
    fn overlap_hidden_behind_long_segment_is_found() {
        let s = IdSpace::new(1000).unwrap();
        // Owner 0 has one huge segment; owner 1 sits inside it, but owner
        // 1's segment sorts *after* an intermediate owner-0 segment.
        let a = arcs(s, &[(0, 500)]);
        let b = arcs(s, &[(100, 5)]);
        let c = arcs(s, &[(300, 5)]);
        assert!(footprints_collide(&[
            Footprint::Arcs(&a),
            Footprint::Arcs(&b),
            Footprint::Arcs(&c),
        ]));
    }

    #[test]
    fn three_way_same_owner_does_not_false_positive() {
        let s = IdSpace::new(1000).unwrap();
        let a = arcs(s, &[(0, 10), (20, 10), (40, 10)]);
        let b = arcs(s, &[(100, 10)]);
        assert!(!footprints_collide(&[
            Footprint::Arcs(&a),
            Footprint::Arcs(&b)
        ]));
    }

    #[test]
    fn points_vs_points() {
        let p1 = [Id(1), Id(5), Id(9)];
        let p2 = [Id(2), Id(5)];
        assert!(footprints_collide(&[
            Footprint::Points(&p1),
            Footprint::Points(&p2)
        ]));
        let p3 = [Id(3), Id(4)];
        assert!(!footprints_collide(&[
            Footprint::Points(&p1),
            Footprint::Points(&p3)
        ]));
    }

    #[test]
    fn points_vs_arcs() {
        let s = IdSpace::new(100).unwrap();
        let a = arcs(s, &[(10, 10)]);
        let inside = [Id(15)];
        let outside = [Id(25)];
        assert!(footprints_collide(&[
            Footprint::Arcs(&a),
            Footprint::Points(&inside)
        ]));
        assert!(!footprints_collide(&[
            Footprint::Arcs(&a),
            Footprint::Points(&outside)
        ]));
    }

    #[test]
    fn points_resolve_against_many_segments() {
        // Exercises the binary-search containment: points on segment
        // boundaries, inside, and in gaps, across many owners' segments.
        let s = IdSpace::new(10_000).unwrap();
        let a = arcs(s, &(0..50).map(|i| (i * 100, 10)).collect::<Vec<_>>());
        let b = arcs(s, &(0..50).map(|i| (i * 100 + 50, 10)).collect::<Vec<_>>());
        let hits = [Id(1234)]; // inside b's [1250..?) no — 12*100+50=1250; 1234 in gap
        assert!(!footprints_collide(&[
            Footprint::Arcs(&a),
            Footprint::Arcs(&b),
            Footprint::Points(&hits),
        ]));
        let inside_a = [Id(4205)]; // a's segment [4200, 4210)
        assert!(footprints_collide(&[
            Footprint::Arcs(&a),
            Footprint::Arcs(&b),
            Footprint::Points(&inside_a),
        ]));
        let boundary = [Id(4210)]; // just past a's segment: a miss
        assert!(!footprints_collide(&[
            Footprint::Arcs(&a),
            Footprint::Arcs(&b),
            Footprint::Points(&boundary),
        ]));
    }

    /// The naive detector: an owner-per-ID table over the whole
    /// universe, claimed one ID at a time. It shares nothing with either
    /// phase of [`footprints_collide`] (no segment table, no sweep, no
    /// binary search, no point map).
    fn owner_table_collides(universe: u128, members: &[Vec<u128>]) -> bool {
        let mut owner_of = vec![usize::MAX; universe as usize];
        for (owner, ids) in members.iter().enumerate() {
            for &v in ids {
                let prev = std::mem::replace(&mut owner_of[v as usize], owner);
                if prev != usize::MAX && prev != owner {
                    return true;
                }
            }
        }
        false
    }

    #[test]
    fn naive_and_fast_detectors_agree_on_random_inputs() {
        const UNIVERSE: u128 = 1 << 16;
        let space = IdSpace::new(UNIVERSE).unwrap();
        let mut rng = Xoshiro256pp::new(11);
        let mut collisions = 0;
        for _ in 0..200 {
            // Three random arc sets (arcs may wrap past the top of the
            // universe) and a random point list; overlap is common at
            // this density, so both outcomes get exercised.
            let mut sets = Vec::new();
            let mut members = Vec::new();
            for _ in 0..3 {
                let mut set = IntervalSet::new(space);
                let mut ids = Vec::new();
                for _ in 0..8 {
                    let start = uniform_below(&mut rng, UNIVERSE);
                    let len = 1 + uniform_below(&mut rng, 1 << 7);
                    set.insert(Arc::new(space, Id(start), len));
                    ids.extend((start..start + len).map(|v| v % UNIVERSE));
                }
                sets.push(set);
                members.push(ids);
            }
            let points: Vec<Id> = (0..32)
                .map(|_| Id(uniform_below(&mut rng, UNIVERSE)))
                .collect();
            members.push(points.iter().map(|id| id.value()).collect());
            let fps: Vec<Footprint<'_>> = sets
                .iter()
                .map(Footprint::Arcs)
                .chain(std::iter::once(Footprint::Points(&points)))
                .collect();
            let naive = owner_table_collides(UNIVERSE, &members);
            assert_eq!(footprints_collide(&fps), naive, "detectors disagree");
            collisions += usize::from(naive);
        }
        assert!(
            (1..200).contains(&collisions),
            "{collisions}/200 cases collided: one outcome never ran"
        );
    }

    #[test]
    fn scratch_reuse_is_stateless_across_calls() {
        let s = IdSpace::new(100).unwrap();
        let a = arcs(s, &[(0, 10)]);
        let b = arcs(s, &[(5, 3)]);
        let c = arcs(s, &[(50, 3)]);
        let mut scratch = CollisionScratch::new();
        assert!(footprints_collide_with(
            &mut scratch,
            &[Footprint::Arcs(&a), Footprint::Arcs(&b)]
        ));
        // A colliding call must not leak state into the next one.
        assert!(!footprints_collide_with(
            &mut scratch,
            &[Footprint::Arcs(&a), Footprint::Arcs(&c)]
        ));
        let p = [Id(51)];
        assert!(footprints_collide_with(
            &mut scratch,
            &[Footprint::Arcs(&c), Footprint::Points(&p)]
        ));
    }

    #[test]
    fn within_instance_duplicates_do_not_count() {
        let p = [Id(5), Id(5)];
        assert!(!footprints_collide(&[Footprint::Points(&p)]));
        let mut det = OnlineDetector::new();
        assert!(!det.record(0, Id(5)));
        assert!(!det.record(0, Id(5)));
        assert!(det.record(1, Id(5)));
    }

    #[test]
    fn online_detector_is_sticky_and_clearable() {
        let mut det = OnlineDetector::new();
        det.record(0, Id(1));
        det.record(1, Id(1));
        assert!(det.collided());
        // Later non-colliding records don't reset it.
        det.record(2, Id(99));
        assert!(det.collided());
        assert_eq!(det.distinct_ids(), 2);
        det.clear();
        assert!(!det.collided());
        assert_eq!(det.distinct_ids(), 0);
        assert!(!det.record(0, Id(1)));
    }

    #[test]
    fn fast_hasher_spreads_sequential_keys() {
        // Sequential IDs are the common case (runs); make sure low bits
        // differ so the hash map doesn't degenerate.
        use std::collections::HashSet;
        let mut low_bits = HashSet::new();
        for v in 0u128..1024 {
            let mut h = FastIdHasher::default();
            h.write_u128(v);
            low_bits.insert(h.finish() & 0x3FF);
        }
        // Perfect spread would be 1024; anything above ~600 is fine.
        assert!(low_bits.len() > 600, "only {} distinct", low_bits.len());
    }
}
