//! Streaming, sharded, *symbolic* collision audit for lease traffic.
//!
//! The service layer issues IDs as bulk leases — arcs, not scalars — so
//! auditing them with the per-ID [`OnlineDetector`] would undo the whole
//! point of batching (a 2²⁰-ID lease would cost 2²⁰ map insertions).
//! [`LeaseAudit`] keeps the audit symbolic: every recorded lease arc is
//! intersected against the material already issued to *other* owners in
//! ordered segment sets, so a lease's searches cost `O(arcs · log
//! segments)` regardless of how many IDs it covers and in any arrival
//! order — the same interval discipline that makes the oblivious game
//! simulable at `d ≈ 2⁴⁰`, and it holds when every ID is its own
//! segment, as under Random.
//!
//! Each stripe keeps two kinds of disjoint segment sets:
//! - `first` covers every ID recorded so far, each segment labelled with
//!   the owner that covered it first, so each audited ID is stored once.
//!   Its segments are sorted and cut into blocks of at most 64 (`BLOCK`)
//!   under a `heads` index that holds each block's first `lo`. A lookup
//!   searches `heads`, which is small enough to stay in cache, then one
//!   block; a new segment goes into its block in place, and a full block
//!   splits in two.
//! - `later` holds, per owner, what that owner covered after another
//!   owner already had. It fills only when duplicates occur.
//!
//! An owner's material is its `first` segments plus its `later` set, and
//! the two are disjoint. A recorded segment walks the `first` segments it
//! overlaps once, upward: gaps join `first` under the recording owner (a
//! gap that continues the owner's own segment grows it in place, so a
//! Cluster tenant's run stays one segment) and the owner's own pieces
//! cost nothing, while a foreign piece costs its length minus what the
//! owner's `later` set already holds of it, then joins that set.
//!
//! [`LeaseAudit::record`] records one arc. [`LeaseAudit::record_batch`]
//! records many messages' pieces, pre-cut at stripe boundaries, at once:
//! it sorts them by `lo`, ties in message order, and walks each stripe
//! once, upward, galloping over `heads` from the previous piece's block,
//! so a batch's searches cost the distance between neighbouring pieces
//! rather than a search from the top per piece.
//!
//! glibc's malloc raises its trim threshold once a large block is freed;
//! until then it returns a stopped service's channel buffers to the OS,
//! and each following `IdService::start` faults them back in (perfbench's
//! `setup_s` on `issue_bulk_inproc` read about 40 % higher that way,
//! 2-vCPU VM, 25 s runs). A block of `first` is at most 2.5 KiB, and a
//! stripe's block index stays under 128 KiB up to about 5,000 blocks, so
//! the large block the audit frees is `record_batch`'s sort buffer: 48
//! bytes per piece, about 384 KiB for a service audit thread's full
//! batch of 2¹³ pieces.
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
//! over all owners of `x` exactly the non-first ones pay.) So it, like
//! `recorded_ids` and `recorded_arcs`, is the same whether a stream of
//! leases is recorded one arc at a time or in batches of any size, and a
//! multi-shard service can assert bit-identical audit totals for every
//! worker-thread count. [`flagged_records`](AuditCounts::flagged_records)
//! is an arrival-order diagnostic and is *not* interleaving-invariant:
//! within a batch it follows the batch's sorted order, not arrival.
//!
//! [`OnlineDetector`]: crate::collision::OnlineDetector

use std::collections::{BTreeMap, HashMap};

use uuidp_core::id::{Id, IdSpace};
use uuidp_core::interval::Arc;

/// Most segments a block of a stripe's `first` set holds; a full block
/// splits in two.
const BLOCK: usize = 64;

/// A segment `[lo, hi)` of a stripe's `first` set, labelled with the
/// owner that covered it first. Packed to 8-byte alignment, it takes 40
/// bytes instead of 48, which under Random is the audit's size per ID.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(8))]
struct Seg {
    lo: u128,
    hi: u128,
    owner: u64,
}

const _: () = assert!(std::mem::size_of::<Seg>() == 40);

/// One stripe of the sharded audit: the sub-universe `[lo, hi)` with its
/// first-owner segments, its per-owner `later` sets and its counters.
///
/// The first-owner segments sit in sorted blocks of at most 64 (2.5 KiB)
/// under a `heads` index of each block's first `lo`. A piece, recorded
/// alone or as part of a [`LeaseAudit::record_batch`] batch, searches
/// `heads` upward from a cursor and then one block, and its gaps go into
/// their block in place; a full block splits in two. Within a batch,
/// pieces are recorded in `lo` order, so its `flagged_records` count
/// follows that order, not arrival.
#[derive(Debug)]
pub struct AuditStripe {
    lo: u128,
    hi: u128,
    /// `first`: sorted, disjoint segments, in blocks of 1 to `BLOCK`.
    blocks: Vec<Vec<Seg>>,
    /// `heads[b]` is `blocks[b][0].lo`.
    heads: Vec<u128>,
    /// Per owner (keys are caller-defined, e.g. `tenant` or `tenant +
    /// epoch` for restart-aware auditing), the disjoint segments `lo → hi`
    /// it covered after a different owner already had.
    later: HashMap<u64, BTreeMap<u128, u128>>,
    /// Segments held: `first`'s plus every `later` set's.
    segments: u64,
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
            blocks: Vec::new(),
            heads: Vec::new(),
            later: HashMap::new(),
            segments: 0,
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
    /// already held by a different owner. The search for `lo` gallops
    /// up from block `*cursor`, whose head must be at or below `lo`
    /// unless it is block 0, and leaves there the block of the last
    /// segment starting at or below `lo`: a cursor for any later piece
    /// that starts at or above `lo`.
    fn record_piece(&mut self, cursor: &mut usize, owner: u64, lo: u128, hi: u128) -> u128 {
        assert!(
            lo >= self.lo && hi <= self.hi && lo < hi,
            "unclipped segment"
        );
        let cross = if self.blocks.is_empty() {
            self.blocks.push(vec![Seg { lo, hi, owner }]);
            self.heads.push(lo);
            self.segments += 1;
            0
        } else {
            let heads = &self.heads;
            *cursor = gallop(*cursor, heads.len(), |b| heads[b] <= lo);
            self.walk(*cursor, owner, lo, hi)
        };
        self.duplicate_ids += cross;
        self.flagged_records += (cross > 0) as u64;
        self.recorded_ids += hi - lo;
        self.recorded_arcs += 1;
        cross
    }

    /// Walks `[lo, hi)` up through `first` from block `b`, the last
    /// block whose head is at or below `lo` (or block 0): gaps join
    /// `first` under `owner`, and foreign pieces are paid for from its
    /// `later` set. Returns what they cost.
    fn walk(&mut self, mut b: usize, owner: u64, lo: u128, hi: u128) -> u128 {
        // Segments before `b`'s end at or below `lo`, and so do those
        // before `i`: `(b, i)` is the first segment that may overlap.
        let mut i = self.blocks[b].partition_point(|s| s.hi <= lo);
        let mut at = lo;
        let mut cross = 0;
        while at < hi {
            if i == self.blocks[b].len() && self.heads.get(b + 1).is_some_and(|&h| h <= at) {
                (b, i) = (b + 1, 0);
            }
            match self.blocks[b].get(i).copied() {
                Some(seg) if seg.lo <= at => {
                    let end = seg.hi.min(hi);
                    if seg.owner != owner {
                        cross += self.pay(owner, at, end);
                    }
                    at = end;
                    i += 1;
                }
                next => {
                    let next_lo = match next {
                        Some(seg) => seg.lo,
                        None => self.heads.get(b + 1).copied().unwrap_or(hi),
                    };
                    let end = next_lo.min(hi);
                    (b, i) = self.fill(b, i, owner, at, end);
                    at = end;
                }
            }
        }
        cross
    }

    /// Adds the gap `[at, end)` to `first` under `owner` at position `i`
    /// of block `b`. It grows the segment before that position when the
    /// segment is the owner's and ends at `at`, as when a Cluster
    /// tenant's next lease continues its run; otherwise it is inserted,
    /// splitting a full block first. Returns the position after it.
    fn fill(&mut self, b: usize, i: usize, owner: u64, at: u128, end: u128) -> (usize, usize) {
        if let Some(prev) = i.checked_sub(1).map(|p| &mut self.blocks[b][p]) {
            if prev.hi == at && prev.owner == owner {
                prev.hi = end;
                return (b, i);
            }
        }
        let (b, i) = if self.blocks[b].len() == BLOCK {
            self.split(b, i)
        } else {
            (b, i)
        };
        self.blocks[b].insert(
            i,
            Seg {
                lo: at,
                hi: end,
                owner,
            },
        );
        if i == 0 {
            self.heads[b] = at;
        }
        self.segments += 1;
        (b, i + 1)
    }

    /// Splits the full block `b` in two halves and returns where its
    /// position `i` now is; a position at the cut stays in the first
    /// half, so a gap inserted there leaves the second half's head.
    fn split(&mut self, b: usize, i: usize) -> (usize, usize) {
        let half = BLOCK / 2;
        let right = self.blocks[b].split_off(half);
        self.heads.insert(b + 1, right[0].lo);
        self.blocks.insert(b + 1, right);
        if i <= half {
            (b, i)
        } else {
            (b + 1, i - half)
        }
    }

    /// Pays for `owner`'s cover of the foreign piece `[lo, hi)`: the IDs
    /// its `later` set did not hold, which then joins the set.
    fn pay(&mut self, owner: u64, lo: u128, hi: u128) -> u128 {
        let set = self.later.entry(owner).or_default();
        let before = set.len() as u64;
        let fresh = cover(set, (lo, hi));
        self.segments = self.segments - before + set.len() as u64;
        fresh
    }

    /// IDs in this stripe issued to more than one owner (counted with
    /// multiplicity − 1).
    pub fn duplicate_ids(&self) -> u128 {
        self.duplicate_ids
    }
}

/// The last index in `from..n` at which `le` holds, galloping up from
/// `from`: `le` must hold at `from`, unless `from` is 0 (then the answer
/// is 0 where it holds nowhere), and be monotone, true then false.
fn gallop(from: usize, n: usize, le: impl Fn(usize) -> bool) -> usize {
    let (mut at, mut step) = (from, 1);
    while at + step < n && le(at + step) {
        at += step;
        step *= 2;
    }
    // `le` fails at `at + step` (or that is past the end): bisect.
    let (mut lo, mut hi) = (at, (at + step).min(n));
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if le(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
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
    /// (an arrival-order diagnostic; within a
    /// [`record_batch`](LeaseAudit::record_batch) batch, the batch's
    /// sorted order stands for arrival).
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
    /// The stripes' segment total, kept as they record.
    segments: u64,
}

/// One piece of a [`LeaseAudit::record_batch`] batch: a pre-cut
/// `[lo, hi)` of message `msg`, whose owner is `owner`.
#[derive(Debug, Clone, Copy)]
struct Piece {
    lo: u128,
    hi: u128,
    owner: u64,
    msg: usize,
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
        LeaseAudit {
            plan,
            stripes,
            segments: 0,
        }
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

    /// Segments the audit holds across its stripes: the first-owner
    /// segments plus every owner's `later` segments.
    pub fn segments(&self) -> u64 {
        self.segments
    }

    /// Records one lease arc for `owner`; returns how many of its IDs
    /// were already held by a different owner. Wrapping arcs are split at
    /// the universe boundary and all pieces at stripe boundaries — by
    /// [`StripePlan::split`] itself, so direct recording and producer-side
    /// routing share one boundary definition by construction.
    pub fn record(&mut self, owner: u64, arc: Arc) -> u128 {
        let plan = self.plan;
        let mut cross = 0;
        plan.split(arc, &mut |stripe, lo, hi| {
            cross += self.record_piece(stripe, &mut 0, owner, lo, hi);
        });
        cross
    }

    /// Records a batch of messages at once: message `i` is `batch[i] =
    /// (owner, pieces)`, its pieces non-wrapping `[lo, hi)` ranges each
    /// inside one stripe, as a producer cuts a lease with
    /// [`StripePlan::split`]. Adds message `i`'s cross-owner duplicate
    /// count to `dups[i]`.
    ///
    /// The pieces are sorted by `lo`, ties in message order, and each
    /// stripe is walked once, upward. The counts are those of recording
    /// the pieces one by one in that order: `duplicate_ids`,
    /// `recorded_ids` and `recorded_arcs` equal those of any order (see
    /// the module docs), while the split of the duplicates among the
    /// messages and `flagged_records` follow the sorted order.
    ///
    /// # Panics
    ///
    /// Panics if `dups` is not as long as `batch`, or a piece is empty,
    /// outside the universe or across a stripe boundary.
    pub fn record_batch(&mut self, batch: &[(u64, &[(u128, u128)])], dups: &mut [u128]) {
        assert_eq!(batch.len(), dups.len(), "one duplicate count per message");
        let mut pieces = Vec::with_capacity(batch.iter().map(|(_, p)| p.len()).sum());
        for (msg, &(owner, ranges)) in batch.iter().enumerate() {
            pieces.extend(ranges.iter().map(|&(lo, hi)| Piece { lo, hi, owner, msg }));
        }
        pieces.sort_unstable_by_key(|p| (p.lo, p.msg));
        let (mut stripe, mut cursor) = (0, 0);
        for p in &pieces {
            if p.lo >= self.stripes[stripe].hi {
                let stripes = &self.stripes;
                stripe = gallop(stripe, stripes.len(), |s| stripes[s].lo <= p.lo);
                cursor = 0;
            }
            dups[p.msg] += self.record_piece(stripe, &mut cursor, p.owner, p.lo, p.hi);
        }
    }

    /// Records one piece in its stripe (see [`AuditStripe::record_piece`])
    /// and keeps the segment total.
    fn record_piece(
        &mut self,
        stripe: usize,
        cursor: &mut usize,
        owner: u64,
        lo: u128,
        hi: u128,
    ) -> u128 {
        let stripe = &mut self.stripes[stripe];
        let before = stripe.segments;
        let cross = stripe.record_piece(cursor, owner, lo, hi);
        self.segments = self.segments - before + stripe.segments;
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

    /// One case of the owner-table reference: leases with what each
    /// lease's record must pay and, per piece of an arc cut at the
    /// universe boundary, whether it paid.
    struct Case {
        leases: Vec<(u64, Arc)>,
        expected: Vec<u128>,
        pieces: Vec<bool>,
    }

    const CASE_M: u128 = 1 << 10;

    /// `cases` owner-table cases of `n` (4 to 40 unless given) leases of
    /// 1 to `max_len` IDs over a 2¹⁰ universe from 4 owners, half of them
    /// starting in a 96-ID window across the wrap. With `runs`, every
    /// other lease instead continues its owner's previous lease, as a
    /// Cluster tenant's do. Also returns how often a record re-covered its
    /// owner's first cover, its owner's later cover, and an ID held by
    /// three owners or more.
    fn owner_table_cases(
        seed: u64,
        cases: usize,
        n: Option<u128>,
        max_len: u128,
        runs: bool,
    ) -> (Vec<Case>, [u32; 3]) {
        let space = IdSpace::new(CASE_M).unwrap();
        let mut rng = Xoshiro256pp::new(seed);
        let mut paths = [0u32; 3];
        let cases = (0..cases)
            .map(|_| {
                let n = n.unwrap_or_else(|| 4 + uniform_below(&mut rng, 37));
                let mut ends = [None; 4];
                let leases: Vec<(u64, Arc)> = (0..n)
                    .map(|_| {
                        // Without `runs` the draws come in the order the
                        // cases were first written with: start, length,
                        // owner.
                        let run_owner = runs.then(|| uniform_below(&mut rng, 4) as usize);
                        let start = match run_owner.and_then(|o| ends[o]) {
                            Some(end) if uniform_below(&mut rng, 2) == 0 => end,
                            _ if uniform_below(&mut rng, 2) == 0 => {
                                (CASE_M - 48 + uniform_below(&mut rng, 96)) % CASE_M
                            }
                            _ => uniform_below(&mut rng, CASE_M),
                        };
                        let len = 1 + uniform_below(&mut rng, max_len);
                        let owner =
                            run_owner.unwrap_or_else(|| uniform_below(&mut rng, 4) as usize);
                        ends[owner] = Some((start + len) % CASE_M);
                        (owner as u64, arc(space, start, len))
                    })
                    .collect();
                owner_table(leases, &mut paths)
            })
            .collect();
        (cases, paths)
    }

    /// The reference: per ID, the set of owners that covered it (a bit
    /// mask). A record pays for every ID that another owner holds and
    /// the recording owner does not.
    fn owner_table(leases: Vec<(u64, Arc)>, paths: &mut [u32; 3]) -> Case {
        let mut owners = vec![0u8; CASE_M as usize];
        let (mut expected, mut pieces) = (Vec::new(), Vec::new());
        for &(owner, a) in &leases {
            let bit = 1u8 << owner;
            let (mut cross, mut piece_cross) = (0u128, 0u128);
            for k in 0..a.len {
                let x = ((a.start.value() + k) % CASE_M) as usize;
                if x == 0 && k > 0 {
                    pieces.push(piece_cross > 0);
                    piece_cross = 0;
                }
                let held = owners[x];
                if held != 0 && held & bit == 0 {
                    cross += 1;
                    piece_cross += 1;
                }
                paths[0] += (held == bit) as u32;
                paths[1] += (held & bit != 0 && held != bit) as u32;
                paths[2] += ((held | bit).count_ones() >= 3) as u32;
                owners[x] |= bit;
            }
            pieces.push(piece_cross > 0);
            expected.push(cross);
        }
        Case {
            leases,
            expected,
            pieces,
        }
    }

    /// Every stripe's segment count, summed from the stripes themselves.
    fn stripe_segments(audit: &LeaseAudit) -> u64 {
        audit.stripes().iter().map(|s| s.segments).sum()
    }

    /// Checks each stripe's blocks: 1 to `BLOCK` segments each, sorted,
    /// disjoint and inside the stripe, each block under its own head.
    fn assert_blocks_well_formed(audit: &LeaseAudit) {
        for stripe in audit.stripes() {
            let heads: Vec<u128> = stripe.blocks.iter().map(|b| b[0].lo).collect();
            assert_eq!(stripe.heads, heads, "stale heads");
            assert!(stripe.blocks.iter().all(|b| b.len() <= BLOCK));
            let segs: Vec<&Seg> = stripe.blocks.iter().flatten().collect();
            assert!(segs
                .iter()
                .all(|s| stripe.lo <= s.lo && s.lo < s.hi && s.hi <= stripe.hi));
            assert!(
                segs.windows(2).all(|w| w[0].hi <= w[1].lo),
                "overlapping segments"
            );
        }
    }

    #[test]
    fn lease_audit_matches_a_brute_force_owner_table() {
        let space = IdSpace::new(CASE_M).unwrap();
        let (cases, [own, foreign, stacks]) = owner_table_cases(16, 256, None, 64, false);
        for (i, case) in cases.iter().enumerate() {
            let duplicate_ids: u128 = case.expected.iter().sum();
            let recorded_ids: u128 = case.leases.iter().map(|(_, a)| a.len).sum();
            for stripes in [1usize, 3, 16] {
                let mut audit = LeaseAudit::new(space, stripes);
                let got: Vec<u128> = case
                    .leases
                    .iter()
                    .map(|&(o, a)| audit.record(o, a))
                    .collect();
                assert_eq!(got, case.expected, "case {i}, {stripes} stripes");
                let c = audit.counts();
                assert_eq!(
                    (c.duplicate_ids, c.recorded_ids),
                    (duplicate_ids, recorded_ids),
                    "case {i}, {stripes} stripes"
                );
                assert_eq!(audit.segments(), stripe_segments(&audit));
                if stripes == 1 {
                    let flagged = case.pieces.iter().filter(|&&paid| paid).count() as u64;
                    assert_eq!(
                        (c.flagged_records, c.recorded_arcs),
                        (flagged, case.pieces.len() as u64),
                        "case {i}"
                    );
                }
            }
        }
        // The cases must reach every path of a record: an owner covering
        // again what it covered first, what it covered after another
        // owner, and IDs held by three owners or more.
        assert!(
            own > 1000 && foreign > 1000 && stacks > 1000,
            "{own} own, {foreign} foreign re-covers, {stacks} stacks"
        );
    }

    /// Records `leases` through `record_batch`, each lease one message of
    /// its pieces cut by the audit's plan, in batches of `sizes()`
    /// messages; returns the audit and each message's duplicate count.
    fn record_in_batches(
        space: IdSpace,
        stripes: usize,
        leases: &[(u64, Arc)],
        mut sizes: impl FnMut() -> usize,
    ) -> (LeaseAudit, Vec<u128>) {
        let mut audit = LeaseAudit::new(space, stripes);
        let plan = audit.plan();
        let messages: Vec<(u64, Vec<(u128, u128)>)> = leases
            .iter()
            .map(|&(owner, a)| {
                let mut pieces = Vec::new();
                plan.split(a, &mut |_, lo, hi| pieces.push((lo, hi)));
                (owner, pieces)
            })
            .collect();
        let mut dups = vec![0u128; messages.len()];
        let mut next = 0;
        while next < messages.len() {
            let end = (next + sizes()).min(messages.len());
            let batch: Vec<(u64, &[(u128, u128)])> = messages[next..end]
                .iter()
                .map(|(owner, pieces)| (*owner, pieces.as_slice()))
                .collect();
            audit.record_batch(&batch, &mut dups[next..end]);
            next = end;
        }
        (audit, dups)
    }

    #[test]
    fn batched_recording_matches_the_owner_table() {
        // The owner-table cases, plus cases of 400 arcs of 1–4 IDs, which
        // fill a stripe with enough segments to split its blocks, and as
        // many where every other arc continues its owner's previous one,
        // which grows its segment in place.
        let space = IdSpace::new(CASE_M).unwrap();
        let (mut cases, _) = owner_table_cases(16, 256, None, 64, false);
        cases.extend(owner_table_cases(17, 64, Some(400), 4, false).0);
        cases.extend(owner_table_cases(18, 64, Some(400), 4, true).0);
        let mut rng = Xoshiro256pp::new(27);
        let mut splits = 0;
        for (i, case) in cases.iter().enumerate() {
            for stripes in [1usize, 3, 16] {
                let mut reference = LeaseAudit::new(space, stripes);
                for &(owner, a) in &case.leases {
                    reference.record(owner, a);
                }
                let want = reference.counts();
                assert_eq!(
                    want.duplicate_ids,
                    case.expected.iter().sum(),
                    "case {i}, {stripes} stripes"
                );
                let (audit, dups) = record_in_batches(space, stripes, &case.leases, || {
                    1 + uniform_below(&mut rng, 40) as usize
                });
                let got = audit.counts();
                assert_eq!(
                    (got.duplicate_ids, got.recorded_ids, got.recorded_arcs),
                    (want.duplicate_ids, want.recorded_ids, want.recorded_arcs),
                    "case {i}, {stripes} stripes"
                );
                assert_eq!(dups.iter().sum::<u128>(), want.duplicate_ids);
                assert_eq!(audit.segments(), stripe_segments(&audit));
                assert_blocks_well_formed(&audit);
                splits += audit
                    .stripes()
                    .iter()
                    .map(|s| s.blocks.len().saturating_sub(1))
                    .sum::<usize>();
                // One message per batch is the one-arc order exactly.
                let (audit, dups) = record_in_batches(space, stripes, &case.leases, || 1);
                assert_eq!(dups, case.expected, "case {i}, {stripes} stripes");
                assert_eq!(audit.counts(), want, "case {i}, {stripes} stripes");
            }
        }
        assert!(splits > 256, "only {splits} block splits");
    }

    #[test]
    fn pre_routed_recording_matches_direct_recording() {
        // A producer that splits with StripePlan and records the pieces
        // with record_batch must land the counters record() lands.
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
        for &(owner, a) in &leases {
            direct.record(owner, a);
        }
        let (routed, _) = record_in_batches(space, 9, &leases, || 1);
        assert_eq!(direct.counts(), routed.counts());
        let (batched, dups) = record_in_batches(space, 9, &leases, || 300);
        let (want, got) = (direct.counts(), batched.counts());
        assert_eq!(
            (got.duplicate_ids, got.recorded_ids, got.recorded_arcs),
            (want.duplicate_ids, want.recorded_ids, want.recorded_arcs)
        );
        assert_eq!(dups.iter().sum::<u128>(), want.duplicate_ids);
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
