//! Reusable bulk-lease buffers over [`IdGenerator::next_ids`].
//!
//! A [`Lease`] is the unit of ID issuance for batching front-ends (the
//! `uuidp-service` shards, the kvstore's leased store instances): one
//! `next_ids(count)` call fills the buffer with the arcs of a run of IDs,
//! and consumers then draw scalar IDs from the buffer — or hand the arcs
//! straight to a symbolic auditor — without touching the generator again.
//! The buffer recycles its arc vector across fills, so a long-lived
//! issuing shard allocates nothing per lease in steady state.

use crate::id::{Id, IdSpace};
use crate::interval::Arc;
use crate::traits::{GeneratorError, IdGenerator};

/// A filled (or partially consumed) bulk lease: the arcs of one
/// `next_ids` batch, in emission order, plus a consumption cursor.
#[derive(Debug, Clone)]
pub struct Lease {
    space: IdSpace,
    arcs: Vec<Arc>,
    /// Total IDs across `arcs`.
    granted: u128,
    /// IDs already consumed via [`pop`](Self::pop).
    consumed: u128,
    /// Cursor: next arc to draw from, and offset within it.
    cursor_arc: usize,
    cursor_off: u128,
}

impl Lease {
    /// An empty lease buffer over `space`.
    pub fn new(space: IdSpace) -> Self {
        Lease {
            space,
            arcs: Vec::new(),
            granted: 0,
            consumed: 0,
            cursor_arc: 0,
            cursor_off: 0,
        }
    }

    /// The universe the leased IDs live in.
    pub fn space(&self) -> IdSpace {
        self.space
    }

    /// Empties the buffer, retaining the arc vector's capacity.
    pub fn clear(&mut self) {
        self.arcs.clear();
        self.granted = 0;
        self.consumed = 0;
        self.cursor_arc = 0;
        self.cursor_off = 0;
    }

    /// Discards any unconsumed remainder and refills the buffer with the
    /// next `count` IDs of `generator`, as arcs.
    ///
    /// On exhaustion mid-batch the arcs already granted stay in the
    /// buffer (a *partial* lease) and the error is returned; consumers
    /// can drain the partial grant before surfacing the error.
    pub fn fill(
        &mut self,
        generator: &mut dyn IdGenerator,
        count: u128,
    ) -> Result<(), GeneratorError> {
        debug_assert_eq!(self.space, generator.space(), "lease/generator universe");
        self.clear();
        let Lease { arcs, granted, .. } = self;
        generator.next_ids(count, &mut |arc| {
            *granted += arc.len;
            arcs.push(arc);
        })
    }

    /// Total IDs granted by the last fill.
    pub fn granted(&self) -> u128 {
        self.granted
    }

    /// IDs still available to [`pop`](Self::pop).
    pub fn remaining(&self) -> u128 {
        self.granted - self.consumed
    }

    /// Whether every granted ID has been consumed.
    pub fn is_drained(&self) -> bool {
        self.remaining() == 0
    }

    /// The granted arcs, in emission order (including consumed prefixes).
    pub fn arcs(&self) -> &[Arc] {
        &self.arcs
    }

    /// Draws the next unconsumed ID, in exact emission order.
    pub fn pop(&mut self) -> Option<Id> {
        let arc = *self.arcs.get(self.cursor_arc)?;
        let id = arc.nth(self.space, self.cursor_off);
        self.cursor_off += 1;
        self.consumed += 1;
        if self.cursor_off == arc.len {
            self.cursor_arc += 1;
            self.cursor_off = 0;
        }
        Some(id)
    }

    /// Iterates every granted ID in emission order (consumed or not).
    /// Test/diagnostic helper; intended for small leases.
    pub fn ids(&self) -> impl Iterator<Item = Id> + '_ {
        let space = self.space;
        self.arcs
            .iter()
            .flat_map(move |arc| (0..arc.len).map(move |i| arc.nth(space, i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Cluster, ClusterStar, Random};
    use crate::traits::Algorithm;

    #[test]
    fn fill_and_pop_match_scalar_emission() {
        let space = IdSpace::new(1 << 16).unwrap();
        let alg = ClusterStar::new(space);
        let mut leased = alg.spawn(7);
        let mut scalar = alg.spawn(7);
        let mut lease = Lease::new(space);
        for batch in [1u128, 5, 64, 3, 100] {
            lease.fill(leased.as_mut(), batch).unwrap();
            assert_eq!(lease.granted(), batch);
            for _ in 0..batch {
                assert_eq!(lease.pop(), Some(scalar.next_id().unwrap()));
            }
            assert!(lease.is_drained());
            assert_eq!(lease.pop(), None);
        }
        assert_eq!(leased.generated(), scalar.generated());
    }

    #[test]
    fn cluster_lease_is_a_single_arc() {
        let space = IdSpace::with_bits(40).unwrap();
        let alg = Cluster::new(space);
        let mut gen = alg.spawn(1);
        let mut lease = Lease::new(space);
        lease.fill(gen.as_mut(), 4096).unwrap();
        assert_eq!(lease.arcs().len(), 1, "Cluster leases one arc");
        assert_eq!(lease.granted(), 4096);
    }

    #[test]
    fn partial_grant_on_exhaustion_is_drainable() {
        let space = IdSpace::new(8).unwrap();
        let alg = Random::new(space);
        let mut gen = alg.spawn(3);
        let mut lease = Lease::new(space);
        let err = lease.fill(gen.as_mut(), 20).unwrap_err();
        assert!(matches!(err, GeneratorError::Exhausted { generated: 8 }));
        assert_eq!(lease.granted(), 8, "partial grant delivered");
        let mut seen = std::collections::HashSet::new();
        while let Some(id) = lease.pop() {
            assert!(seen.insert(id));
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn refill_discards_remainder_and_reuses_capacity() {
        let space = IdSpace::new(1 << 12).unwrap();
        let alg = ClusterStar::new(space);
        let mut gen = alg.spawn(9);
        let mut lease = Lease::new(space);
        lease.fill(gen.as_mut(), 10).unwrap();
        lease.pop();
        lease.fill(gen.as_mut(), 6).unwrap();
        assert_eq!(lease.granted(), 6);
        assert_eq!(lease.remaining(), 6);
        // The two fills are consecutive slices of one generator stream.
        assert_eq!(gen.generated(), 16);
    }

    #[test]
    fn ids_iterator_agrees_with_pop_order() {
        let space = IdSpace::new(1 << 10).unwrap();
        let alg = ClusterStar::new(space);
        let mut gen = alg.spawn(11);
        let mut lease = Lease::new(space);
        lease.fill(gen.as_mut(), 50).unwrap();
        let listed: Vec<Id> = lease.ids().collect();
        let popped: Vec<Id> = std::iter::from_fn(|| lease.pop()).collect();
        assert_eq!(listed, popped);
    }
}
