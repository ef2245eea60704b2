//! Streaming, sharded, *symbolic* collision audit for lease traffic.
//!
//! The service layer issues IDs as bulk leases — arcs, not scalars — so
//! auditing them with the per-ID [`OnlineDetector`] would undo the whole
//! point of batching (a 2²⁰-ID lease would cost 2²⁰ map insertions).
//! [`LeaseAudit`] keeps the audit symbolic: every recorded lease arc is
//! intersected against the material already issued to *other* owners in
//! ordered segment sets, so a lease costs `O(arcs · log segments)`,
//! amortized, regardless of how many IDs it covers and in any arrival
//! order — the same interval discipline that makes the oblivious game
//! simulable at `d ≈ 2⁴⁰`, and it holds when every ID is its own
//! segment, as under Random.
//!
//! Each stripe keeps two kinds of disjoint segment sets:
//! - `first` covers every ID recorded so far, each segment labelled with
//!   the owner that covered it first, so each audited ID is stored once.
//!   It lives in two parts: `settled`, a sorted `Vec`, and `fresh`, a
//!   `BTreeMap` of the segments added since `settled` was last rebuilt.
//!   Once `fresh` outgrows a quarter of `settled`, one merge folds it in
//!   and joins touching segments of one owner, which costs `O(1)` per
//!   recorded segment, amortized.
//! - `later` holds, per owner, what that owner covered after another
//!   owner already had. It fills only when duplicates occur.
//!
//! An owner's material is its `first` segments plus its `later` set, and
//! the two are disjoint. A recorded segment walks the `first` segments it
//! overlaps once: gaps join `first` under the recording owner (a gap that
//! continues the owner's own segment grows it in place) and the owner's
//! own pieces cost nothing, while a foreign piece costs its length minus
//! what the owner's `later` set already holds of it, then joins that set.
//!
//! `settled` holds most of a large stripe in one block. With B-tree nodes
//! alone, glibc's malloc never sees a large block freed, so it keeps its
//! default 128 KiB trim threshold and returns a stopped service's channel
//! buffers to the OS, and each following `IdService::start` faults them
//! back in: perfbench's `setup_s` on `issue_bulk_inproc` read about 40 %
//! higher that way (2-vCPU VM, 25 s runs).
//!
//! The universe is partitioned into equal contiguous **stripes**
//! ([`AuditStripe`]), each with its own segment sets; arcs are split at
//! stripe boundaries on the way in. Striping bounds per-record work,
//! keeps each stripe's sets small, and gives a service audit pipeline a
//! natural unit to distribute over threads.
//!
//! The headline counter, [`duplicate_ids`](AuditCounts::duplicate_ids),
//! is **order-invariant**: for every ID `x` issued by `k ≥ 1` distinct
//! owners it counts exactly `k − 1`, no matter how the recording of
//! leases from concurrent shards interleaves. (Proof sketch: whichever
//! owner covers `x` first labels it in `first` and pays nothing, then or
//! on any re-cover. Every other owner pays 1 the first time it covers `x`,
//! which puts `x` in its `later` set, and nothing on any re-cover; so
//! over all owners of `x` exactly the non-first ones pay.) This is what
//! lets a multi-shard service assert bit-identical audit totals for every
//! worker-thread count. [`flagged_records`](AuditCounts::flagged_records)
//! is an arrival-order diagnostic and is *not* interleaving-invariant.
//!
//! [`OnlineDetector`]: crate::collision::OnlineDetector

use std::collections::{BTreeMap, HashMap};

use uuidp_core::id::{Id, IdSpace};
use uuidp_core::interval::Arc;

/// Below this many `fresh` segments a stripe never merges, so a small
/// stripe does not rebuild `settled` every few records.
const FRESH_MIN: usize = 32;

/// A segment `[lo, hi)` of a stripe's `first` set, labelled with the
/// owner that covered it first.
#[derive(Debug, Clone, Copy)]
struct Seg {
    lo: u128,
    hi: u128,
    owner: u64,
}

/// One stripe of the sharded audit: the sub-universe `[lo, hi)` with its
/// first-owner segments, its per-owner `later` sets and its counters.
#[derive(Debug)]
pub struct AuditStripe {
    lo: u128,
    hi: u128,
    /// Most of `first`: sorted, disjoint segments, rebuilt by each
    /// compaction, which merges touching segments of one owner.
    settled: Vec<Seg>,
    /// The rest of `first`, `lo → (hi, owner)`: the segments first covered
    /// since the last compaction, disjoint from `settled`.
    fresh: BTreeMap<u128, (u128, u64)>,
    /// Per owner (keys are caller-defined, e.g. `tenant` or `tenant +
    /// epoch` for restart-aware auditing), the disjoint segments `lo → hi`
    /// it covered after a different owner already had.
    later: HashMap<u64, BTreeMap<u128, u128>>,
    duplicate_ids: u128,
    flagged_records: u64,
    recorded_ids: u128,
    recorded_arcs: u64,
}

impl AuditStripe {
    fn new(lo: u128, hi: u128) -> Self {
        AuditStripe {
            lo,
            hi,
            settled: Vec::new(),
            fresh: BTreeMap::new(),
            later: HashMap::new(),
            duplicate_ids: 0,
            flagged_records: 0,
            recorded_ids: 0,
            recorded_arcs: 0,
        }
    }

    /// The stripe's sub-universe `[lo, hi)`.
    pub fn range(&self) -> (u128, u128) {
        (self.lo, self.hi)
    }

    /// Records the non-wrapping segment `[lo, hi)` (already clipped to
    /// this stripe) for `owner`; returns how many of its IDs were
    /// already held by a different owner.
    pub fn record_segment(&mut self, owner: u64, lo: u128, hi: u128) -> u128 {
        assert!(
            lo >= self.lo && hi <= self.hi && lo < hi,
            "unclipped segment"
        );
        let mut cross = 0;
        // Walk `[lo, hi)` from the top down: `[lo, cur)` is still to walk,
        // and `below` is the segment under it once none reaches into it.
        let mut cur = hi;
        let mut below = None;
        while cur > lo {
            let seg = match self.last_before(cur) {
                Some(seg) if seg.hi > lo => seg,
                seg => {
                    below = seg;
                    break;
                }
            };
            if seg.hi < cur {
                self.fresh.insert(seg.hi, (cur, owner));
            }
            let start = seg.lo.max(lo);
            if seg.owner != owner {
                let piece = (start, seg.hi.min(cur));
                cross += cover(self.later.entry(owner).or_default(), piece);
            }
            cur = start;
        }
        if lo < cur {
            match below {
                // The owner's previous segment ends at `lo`, as when a
                // Cluster tenant's next lease continues its run: grow it.
                Some(seg) if seg.hi == lo && seg.owner == owner => self.extend(seg, cur),
                _ => {
                    self.fresh.insert(lo, (cur, owner));
                }
            }
        }
        if self.fresh.len() > FRESH_MIN + self.settled.len() / 4 {
            self.compact();
        }
        self.duplicate_ids += cross;
        self.flagged_records += (cross > 0) as u64;
        self.recorded_ids += hi - lo;
        self.recorded_arcs += 1;
        cross
    }

    /// The last segment of `first` that starts before `at`.
    fn last_before(&self, at: u128) -> Option<Seg> {
        let settled = self.settled[..self.settled.partition_point(|s| s.lo < at)]
            .last()
            .copied();
        let fresh = self
            .fresh
            .range(..at)
            .next_back()
            .map(|(&lo, &(hi, owner))| Seg { lo, hi, owner });
        match (settled, fresh) {
            (Some(a), Some(b)) => Some(if a.lo > b.lo { a } else { b }),
            (a, b) => a.or(b),
        }
    }

    /// Moves the end of the `first` segment `seg` up to `hi`, over IDs no
    /// segment holds.
    fn extend(&mut self, seg: Seg, hi: u128) {
        match self.fresh.get_mut(&seg.lo) {
            Some(entry) => entry.0 = hi,
            None => {
                let i = self.settled.partition_point(|s| s.lo < seg.lo);
                self.settled[i].hi = hi;
            }
        }
    }

    /// Folds `fresh` into `settled`, joining touching segments of one
    /// owner. Run once `fresh` outgrows a quarter of `settled`, it copies
    /// at most five segments per segment added since the last run.
    fn compact(&mut self) {
        let mut fresh = std::mem::take(&mut self.fresh)
            .into_iter()
            .map(|(lo, (hi, owner))| Seg { lo, hi, owner })
            .peekable();
        let mut settled = std::mem::take(&mut self.settled).into_iter().peekable();
        let mut merged: Vec<Seg> = Vec::with_capacity(settled.len() + fresh.len());
        while let Some(seg) = match (settled.peek(), fresh.peek()) {
            (Some(a), Some(b)) if b.lo < a.lo => fresh.next(),
            (Some(_), _) => settled.next(),
            _ => fresh.next(),
        } {
            match merged.last_mut() {
                Some(last) if last.hi == seg.lo && last.owner == seg.owner => last.hi = seg.hi,
                _ => merged.push(seg),
            }
        }
        self.settled = merged;
    }

    /// IDs in this stripe issued to more than one owner (counted with
    /// multiplicity − 1).
    pub fn duplicate_ids(&self) -> u128 {
        self.duplicate_ids
    }
}

/// Adds `[lo, hi)` to the disjoint segment map `set`, merging what it
/// overlaps or touches; returns how many of its IDs `set` did not hold.
fn cover(set: &mut BTreeMap<u128, u128>, (lo, hi): (u128, u128)) -> u128 {
    let (mut new_lo, mut new_hi, mut held) = (lo, hi, 0);
    if let Some((&plo, &phi)) = set.range(..lo).next_back() {
        if phi >= lo {
            held += phi.min(hi) - lo;
            new_lo = plo;
            new_hi = phi.max(hi);
            set.remove(&plo);
        }
    }
    while let Some((&slo, &shi)) = set.range(lo..=hi).next() {
        held += shi.min(hi) - slo;
        new_hi = new_hi.max(shi);
        set.remove(&slo);
    }
    set.insert(new_lo, new_hi);
    hi - lo - held
}

/// Totals across an audit's stripes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditCounts {
    /// IDs issued to more than one owner (`Σ_x (owners(x) − 1)`;
    /// interleaving-invariant).
    pub duplicate_ids: u128,
    /// Recorded segments that overlapped foreign material on arrival
    /// (arrival-order diagnostic).
    pub flagged_records: u64,
    /// Total IDs recorded.
    pub recorded_ids: u128,
    /// Total segments recorded (after stripe splitting).
    pub recorded_arcs: u64,
}

impl AuditCounts {
    /// Whether any cross-owner duplicate has been observed.
    pub fn collided(&self) -> bool {
        self.duplicate_ids > 0
    }

    /// Element-wise sum, for aggregating per-thread audit partitions.
    pub fn merge(&self, other: &AuditCounts) -> AuditCounts {
        AuditCounts {
            duplicate_ids: self.duplicate_ids + other.duplicate_ids,
            flagged_records: self.flagged_records + other.flagged_records,
            recorded_ids: self.recorded_ids + other.recorded_ids,
            recorded_arcs: self.recorded_arcs + other.recorded_arcs,
        }
    }
}

/// The pure *geometry* of a striped audit: how a universe is cut into
/// equal contiguous stripes, with no per-stripe state attached.
///
/// A [`LeaseAudit`] owns one internally, but the plan is also useful on
/// its own: a service front-end that distributes audit stripes across
/// several pipeline threads builds the same plan on the producer side
/// and uses [`split`](StripePlan::split) to route lease arcs to the
/// thread owning each stripe — guaranteeing producer-side routing and
/// audit-side recording agree on every boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripePlan {
    space: IdSpace,
    /// All stripes have this width except the last, which holds the
    /// remainder (at least one ID).
    stripe_len: u128,
    count: usize,
}

impl StripePlan {
    /// The partition of `space` into `stripes ≥ 1` equal stripes (capped
    /// at the universe size and 2¹⁶, like [`LeaseAudit::new`]). Rounding
    /// the width up can leave fewer stripes than asked for, never an
    /// empty one: `[0, m)` cut into width-2 stripes is ⌈m/2⌉ of them.
    pub fn new(space: IdSpace, stripes: usize) -> Self {
        let stripes = stripes.clamp(1, 1 << 16);
        let m = space.size();
        let stripe_len = m.div_ceil((stripes as u128).min(m));
        let count = m.div_ceil(stripe_len) as usize;
        StripePlan {
            space,
            stripe_len,
            count,
        }
    }

    /// The universe being partitioned.
    pub fn space(&self) -> IdSpace {
        self.space
    }

    /// Number of stripes.
    pub fn stripe_count(&self) -> usize {
        self.count
    }

    /// The stripe containing `id`.
    pub fn stripe_of(&self, id: Id) -> usize {
        ((id.value() / self.stripe_len) as usize).min(self.count - 1)
    }

    /// The sub-universe `[lo, hi)` of stripe `i`.
    pub fn stripe_range(&self, i: usize) -> (u128, u128) {
        let lo = i as u128 * self.stripe_len;
        (lo, (lo + self.stripe_len).min(self.space.size()))
    }

    /// Cuts `arc` at the universe boundary (wrapping arcs) and at every
    /// stripe boundary, yielding `(stripe index, lo, hi)` pieces in
    /// ascending-stripe order per wrap half. Every piece is non-empty,
    /// non-wrapping, and entirely inside its stripe.
    pub fn split(&self, arc: Arc, f: &mut impl FnMut(usize, u128, u128)) {
        let m = self.space.size();
        let lo = arc.start.value();
        let end = lo + arc.len;
        if end <= m {
            self.split_range(lo, end, f);
        } else {
            self.split_range(lo, m, f);
            self.split_range(0, end - m, f);
        }
    }

    /// Cuts the non-wrapping range `[lo, hi)` at stripe boundaries.
    fn split_range(&self, mut lo: u128, hi: u128, f: &mut impl FnMut(usize, u128, u128)) {
        while lo < hi {
            let idx = self.stripe_of(Id(lo));
            let stripe_hi = self.stripe_range(idx).1.min(hi);
            f(idx, lo, stripe_hi);
            lo = stripe_hi;
        }
    }
}

/// A stripe-sharded symbolic lease audit over one universe.
#[derive(Debug)]
pub struct LeaseAudit {
    plan: StripePlan,
    stripes: Vec<AuditStripe>,
}

impl LeaseAudit {
    /// An empty audit over `space` with `stripes ≥ 1` equal stripes.
    pub fn new(space: IdSpace, stripes: usize) -> Self {
        let plan = StripePlan::new(space, stripes);
        let stripes = (0..plan.stripe_count())
            .map(|i| {
                let (lo, hi) = plan.stripe_range(i);
                AuditStripe::new(lo, hi)
            })
            .collect();
        LeaseAudit { plan, stripes }
    }

    /// The universe being audited.
    pub fn space(&self) -> IdSpace {
        self.plan.space
    }

    /// The stripe geometry (shared with producer-side routing).
    pub fn plan(&self) -> StripePlan {
        self.plan
    }

    /// Number of stripes.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// The stripe containing `id`.
    pub fn stripe_of(&self, id: Id) -> usize {
        self.plan.stripe_of(id)
    }

    /// Records one lease arc for `owner`; returns how many of its IDs
    /// were already held by a different owner. Wrapping arcs are split at
    /// the universe boundary and all pieces at stripe boundaries — by
    /// [`StripePlan::split`] itself, so direct recording and producer-side
    /// routing share one boundary definition by construction.
    pub fn record(&mut self, owner: u64, arc: Arc) -> u128 {
        let plan = self.plan;
        let mut cross = 0;
        plan.split(arc, &mut |_, lo, hi| {
            cross += self.record_range(owner, lo, hi);
        });
        cross
    }

    /// Records the non-wrapping range `[lo, hi)` for `owner`, splitting
    /// it at stripe boundaries; returns the cross-owner duplicate count.
    /// This is the entry point for pre-routed traffic: a producer that
    /// already cut a lease with [`StripePlan::split`] records each piece
    /// here and the stripe bookkeeping lands exactly where [`record`]
    /// would have put it.
    ///
    /// [`record`]: LeaseAudit::record
    pub fn record_clipped(&mut self, owner: u64, lo: u128, hi: u128) -> u128 {
        debug_assert!(lo < hi && hi <= self.plan.space.size(), "bad range");
        self.record_range(owner, lo, hi)
    }

    /// Records a non-wrapping range `[lo, hi)`, splitting it at stripe
    /// boundaries.
    fn record_range(&mut self, owner: u64, mut lo: u128, hi: u128) -> u128 {
        let mut cross = 0;
        while lo < hi {
            let idx = self.stripe_of(Id(lo));
            let stripe_hi = self.stripes[idx].hi.min(hi);
            cross += self.stripes[idx].record_segment(owner, lo, stripe_hi);
            lo = stripe_hi;
        }
        cross
    }

    /// Aggregated counters across all stripes.
    pub fn counts(&self) -> AuditCounts {
        self.stripes.iter().fold(AuditCounts::default(), |acc, s| {
            acc.merge(&AuditCounts {
                duplicate_ids: s.duplicate_ids,
                flagged_records: s.flagged_records,
                recorded_ids: s.recorded_ids,
                recorded_arcs: s.recorded_arcs,
            })
        })
    }

    /// Whether any cross-owner duplicate has been observed.
    pub fn collided(&self) -> bool {
        self.stripes.iter().any(|s| s.duplicate_ids > 0)
    }

    /// Read access to the stripes (diagnostics, distribution planning).
    pub fn stripes(&self) -> &[AuditStripe] {
        &self.stripes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uuidp_core::prelude::*;
    use uuidp_core::rng::{uniform_below, Xoshiro256pp};

    fn arc(space: IdSpace, start: u128, len: u128) -> Arc {
        Arc::new(space, Id(start), len)
    }

    #[test]
    fn disjoint_leases_are_clean() {
        let space = IdSpace::new(1 << 10).unwrap();
        let mut audit = LeaseAudit::new(space, 4);
        assert_eq!(audit.record(0, arc(space, 0, 100)), 0);
        assert_eq!(audit.record(1, arc(space, 100, 100)), 0);
        assert_eq!(audit.record(2, arc(space, 500, 400)), 0);
        let c = audit.counts();
        assert!(!c.collided());
        assert_eq!(c.recorded_ids, 600);
        assert_eq!(c.duplicate_ids, 0);
    }

    #[test]
    fn cross_owner_overlap_is_measured_exactly() {
        let space = IdSpace::new(1 << 10).unwrap();
        let mut audit = LeaseAudit::new(space, 8);
        audit.record(0, arc(space, 0, 200));
        let cross = audit.record(1, arc(space, 150, 100)); // [150,250): 50 shared
        assert_eq!(cross, 50);
        assert!(audit.collided());
        assert_eq!(audit.counts().duplicate_ids, 50);
        // Same-owner re-coverage does not count (owner 1 already holds
        // [150,250); recording an adjacent arc overlapping only itself).
        let cross = audit.record(1, arc(space, 240, 20));
        assert_eq!(cross, 0, "own material never self-collides");
    }

    #[test]
    fn wrapping_arcs_split_and_audit_correctly() {
        let space = IdSpace::new(100).unwrap();
        let mut audit = LeaseAudit::new(space, 3);
        audit.record(7, arc(space, 90, 20)); // {90..99, 0..9}
        let cross = audit.record(8, arc(space, 95, 10)); // {95..99, 0..4}
        assert_eq!(cross, 10);
        assert_eq!(audit.counts().duplicate_ids, 10);
    }

    #[test]
    fn duplicate_ids_is_interleaving_invariant() {
        // Three owners over a common region plus private material, fed in
        // every permutation: duplicate_ids must not move.
        let space = IdSpace::new(1 << 12).unwrap();
        let leases: Vec<(u64, Arc)> = vec![
            (0, arc(space, 0, 64)),
            (1, arc(space, 32, 64)),
            (2, arc(space, 48, 8)),
            (0, arc(space, 200, 50)),
            (1, arc(space, 220, 10)),
            (2, arc(space, 4000, 96)), // wraps nothing, private
        ];
        let mut reference = None;
        // All 720 permutations of 6 elements via Heap's algorithm indices.
        let mut perm: Vec<usize> = (0..leases.len()).collect();
        let mut c = vec![0usize; leases.len()];
        let mut check = |perm: &[usize]| {
            let mut audit = LeaseAudit::new(space, 5);
            for &i in perm {
                let (owner, a) = leases[i];
                audit.record(owner, a);
            }
            let d = audit.counts().duplicate_ids;
            match reference {
                None => reference = Some(d),
                Some(r) => assert_eq!(r, d, "order changed duplicate_ids"),
            }
        };
        check(&perm);
        let mut i = 0;
        while i < leases.len() {
            if c[i] < i {
                if i % 2 == 0 {
                    perm.swap(0, i);
                } else {
                    perm.swap(c[i], i);
                }
                check(&perm);
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
        // owners(x) − 1 summed: [32,64) has {0,1} → 32; [48,56) adds owner
        // 2 on top of both → 8 more; [220,230) has {0,1} → 10.
        assert_eq!(reference, Some(32 + 8 + 10));
    }

    #[test]
    fn striping_does_not_change_totals() {
        let space = IdSpace::new(1 << 14).unwrap();
        let mut rng = Xoshiro256pp::new(21);
        let leases: Vec<(u64, Arc)> = (0..200)
            .map(|i| {
                let start = uniform_below(&mut rng, 1 << 14);
                let len = 1 + uniform_below(&mut rng, 1 << 7);
                (i % 9, arc(space, start, len))
            })
            .collect();
        let mut totals = Vec::new();
        for stripes in [1usize, 2, 7, 64] {
            let mut audit = LeaseAudit::new(space, stripes);
            for &(owner, a) in &leases {
                audit.record(owner, a);
            }
            totals.push(audit.counts().duplicate_ids);
        }
        assert!(
            totals.windows(2).all(|w| w[0] == w[1]),
            "stripe count changed duplicate_ids: {totals:?}"
        );
    }

    #[test]
    fn stripe_plan_split_covers_exactly_and_respects_boundaries() {
        let space = IdSpace::new(1000).unwrap();
        let plan = StripePlan::new(space, 7);
        assert_eq!(plan.stripe_count(), 7);
        let mut rng = Xoshiro256pp::new(3);
        for _ in 0..500 {
            let start = uniform_below(&mut rng, 1000);
            let len = 1 + uniform_below(&mut rng, 999);
            let arc = arc(space, start, len);
            let mut covered = 0u128;
            let mut pieces = Vec::new();
            plan.split(arc, &mut |idx, lo, hi| {
                assert!(lo < hi, "empty piece");
                let (slo, shi) = plan.stripe_range(idx);
                assert!(lo >= slo && hi <= shi, "piece escapes its stripe");
                assert_eq!(plan.stripe_of(Id(lo)), idx);
                covered += hi - lo;
                pieces.push((lo, hi));
            });
            assert_eq!(covered, len, "split loses or duplicates IDs");
            // Pieces are disjoint: total coverage as a set equals len.
            pieces.sort_unstable();
            assert!(pieces.windows(2).all(|w| w[0].1 <= w[1].0));
        }
    }

    #[test]
    fn stripe_plan_counts_only_stripes_that_hold_ids() {
        for (m, stripes) in [(10u128, 7usize), (1024, 1000), (1000, 7), (1 << 64, 16)] {
            let plan = StripePlan::new(IdSpace::new(m).unwrap(), stripes);
            let mut next = 0;
            for i in 0..plan.stripe_count() {
                let (lo, hi) = plan.stripe_range(i);
                assert!(lo == next && lo < hi, "m = {m}: stripe {i} is [{lo}, {hi})");
                assert_eq!((plan.stripe_of(Id(lo)), plan.stripe_of(Id(hi - 1))), (i, i));
                next = hi;
            }
            assert_eq!(next, m, "the stripes must tile [0, {m})");
            // `stripe_of` is monotone, so this is its number of values.
            assert_eq!(plan.stripe_of(Id(m - 1)) + 1, plan.stripe_count());
        }
    }

    #[test]
    fn lease_audit_matches_a_brute_force_owner_table() {
        // The reference keeps, per ID, the set of owners that covered it
        // (a bit mask): a record pays for every ID that another owner
        // holds and the recording owner does not.
        const M: u128 = 1 << 10;
        let space = IdSpace::new(M).unwrap();
        let mut rng = Xoshiro256pp::new(16);
        let (mut own_recovers, mut foreign_recovers, mut stacks) = (0u32, 0u32, 0u32);
        for case in 0..256 {
            let n = 4 + uniform_below(&mut rng, 37);
            let leases: Vec<(u64, Arc)> = (0..n)
                .map(|_| {
                    // Half the arcs start in a 96-ID window across the
                    // wrap, so re-coverage and stacks are frequent.
                    let start = if uniform_below(&mut rng, 2) == 0 {
                        (M - 48 + uniform_below(&mut rng, 96)) % M
                    } else {
                        uniform_below(&mut rng, M)
                    };
                    let len = 1 + uniform_below(&mut rng, 64);
                    (uniform_below(&mut rng, 4) as u64, arc(space, start, len))
                })
                .collect();
            let mut owners = vec![0u8; M as usize];
            let mut expected = Vec::new();
            // Per piece of an arc cut at the wrap: whether it paid.
            let mut pieces = Vec::new();
            for &(owner, a) in &leases {
                let bit = 1u8 << owner;
                let (mut cross, mut piece_cross) = (0u128, 0u128);
                for k in 0..a.len {
                    let x = ((a.start.value() + k) % M) as usize;
                    if x == 0 && k > 0 {
                        pieces.push(piece_cross > 0);
                        piece_cross = 0;
                    }
                    let held = owners[x];
                    if held != 0 && held & bit == 0 {
                        cross += 1;
                        piece_cross += 1;
                    }
                    own_recovers += (held == bit) as u32;
                    foreign_recovers += (held & bit != 0 && held != bit) as u32;
                    stacks += ((held | bit).count_ones() >= 3) as u32;
                    owners[x] |= bit;
                }
                pieces.push(piece_cross > 0);
                expected.push(cross);
            }
            let duplicate_ids: u128 = expected.iter().sum();
            let recorded_ids: u128 = leases.iter().map(|(_, a)| a.len).sum();
            for stripes in [1usize, 3, 16] {
                let mut audit = LeaseAudit::new(space, stripes);
                let got: Vec<u128> = leases.iter().map(|&(o, a)| audit.record(o, a)).collect();
                assert_eq!(got, expected, "case {case}, {stripes} stripes");
                let c = audit.counts();
                assert_eq!(
                    (c.duplicate_ids, c.recorded_ids),
                    (duplicate_ids, recorded_ids),
                    "case {case}, {stripes} stripes"
                );
                if stripes == 1 {
                    let flagged = pieces.iter().filter(|&&paid| paid).count() as u64;
                    assert_eq!(
                        (c.flagged_records, c.recorded_arcs),
                        (flagged, pieces.len() as u64),
                        "case {case}"
                    );
                }
            }
        }
        // The cases must reach every path of a record: an owner covering
        // again what it covered first, what it covered after another
        // owner, and IDs held by three owners or more.
        assert!(
            own_recovers > 1000 && foreign_recovers > 1000 && stacks > 1000,
            "{own_recovers} own, {foreign_recovers} foreign re-covers, {stacks} stacks"
        );
    }

    #[test]
    fn pre_routed_recording_matches_direct_recording() {
        // A producer that splits with StripePlan and records pieces with
        // record_clipped must land bit-identical counters to record().
        let space = IdSpace::new(1 << 12).unwrap();
        let mut rng = Xoshiro256pp::new(8);
        let leases: Vec<(u64, Arc)> = (0..300)
            .map(|i| {
                let start = uniform_below(&mut rng, 1 << 12);
                let len = 1 + uniform_below(&mut rng, 1 << 6);
                (i % 5, arc(space, start, len))
            })
            .collect();
        let mut direct = LeaseAudit::new(space, 9);
        let mut routed = LeaseAudit::new(space, 9);
        let plan = routed.plan();
        for &(owner, a) in &leases {
            direct.record(owner, a);
            plan.split(a, &mut |_, lo, hi| {
                routed.record_clipped(owner, lo, hi);
            });
        }
        assert_eq!(direct.counts(), routed.counts());
    }

    #[test]
    fn same_seed_generators_are_always_caught() {
        // The zero-false-negative guarantee the stress test relies on:
        // two identically seeded Cluster instances lease the same arcs,
        // and every leased ID past the first lease is a duplicate.
        let space = IdSpace::with_bits(40).unwrap();
        let alg = Cluster::new(space);
        let mut a = alg.spawn(99);
        let mut b = alg.spawn(99);
        let mut audit = LeaseAudit::new(space, 16);
        let mut lease = Lease::new(space);
        for (owner, generator) in [&mut a, &mut b].into_iter().enumerate() {
            lease.fill(generator.as_mut(), 4096).unwrap();
            for &arc in lease.arcs() {
                audit.record(owner as u64, arc);
            }
        }
        assert!(audit.collided());
        assert_eq!(audit.counts().duplicate_ids, 4096);
    }
}
