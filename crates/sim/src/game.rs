//! The UUIDP game loop.
//!
//! Two engines:
//!
//! * [`run_adaptive`] — the full interactive game of Section 2: the
//!   adversary observes every produced ID and chooses the next move.
//!   Necessarily materializes IDs; suitable for `d` up to ~10⁶.
//! * [`run_oblivious_symbolic`] — the oblivious special case, executed
//!   symbolically: each instance [`skip`](uuidp_core::traits::IdGenerator::skip)s
//!   its whole demand and only the interval footprints are intersected.
//!   For arc-structured algorithms this handles `d ≈ 2⁴⁰` in microseconds.
//!
//! Both have `_with` variants taking caller-owned scratch
//! ([`AdaptiveScratch`], [`SymbolicScratch`]) so a Monte-Carlo worker can
//! play millions of games without re-boxing generators or re-growing
//! detector maps: instances are recycled through
//! [`IdGenerator::reset`], which
//! is observationally identical to a fresh spawn.

use uuidp_adversary::adaptive::{Action, AdaptiveAdversary, GameView};
use uuidp_adversary::profile::DemandProfile;
use uuidp_core::id::Id;
use uuidp_core::rng::{SeedDomain, SeedTree};
use uuidp_core::traits::{Algorithm, IdGenerator};

use crate::collision::{footprints_collide_each, CollisionScratch, OnlineDetector};

/// Safety limits for adaptive games.
#[derive(Debug, Clone, Copy)]
pub struct GameLimits {
    /// Hard cap on total requests; the game stops (without collision) when
    /// reached. Guards against runaway adversaries.
    pub max_requests: u128,
}

impl Default for GameLimits {
    fn default() -> Self {
        GameLimits {
            max_requests: 1 << 24,
        }
    }
}

/// The lean result of one play: just the trial-level booleans the
/// Monte-Carlo engine aggregates. No allocations.
#[derive(Debug, Clone, Copy)]
pub struct TrialOutcome {
    /// Whether a cross-instance collision occurred.
    pub collided: bool,
    /// Whether any instance reported exhaustion when asked for an ID.
    pub exhausted: bool,
    /// Whether the [`GameLimits`] cap stopped the game.
    pub truncated: bool,
}

/// The result of one play of the game, including the realized demands.
#[derive(Debug, Clone)]
pub struct GameOutcome {
    /// Whether a cross-instance collision occurred.
    pub collided: bool,
    /// The realized demand profile (empty if no instance was activated).
    pub demands: Vec<u128>,
    /// Whether any instance reported exhaustion when asked for an ID.
    pub exhausted: bool,
    /// Whether the [`GameLimits`] cap stopped the game.
    pub truncated: bool,
}

impl GameOutcome {
    /// The realized profile as a [`DemandProfile`], if non-empty.
    pub fn profile(&self) -> Option<DemandProfile> {
        if self.demands.is_empty() || self.demands.contains(&0) {
            None
        } else {
            Some(DemandProfile::new(self.demands.clone()))
        }
    }
}

/// Reusable worker state for adaptive games.
///
/// Holds a pool of generator instances (recycled across games via
/// `reset`), per-instance ID histories, and the online detector. A
/// scratch is tied to the algorithm it first played against — do not
/// share one scratch across different algorithms.
#[derive(Default)]
pub struct AdaptiveScratch {
    pool: Vec<Box<dyn IdGenerator>>,
    histories: Vec<Vec<Id>>,
    detector: OnlineDetector,
    /// Instances activated in the current/last game (prefix of `pool`).
    active: usize,
}

impl AdaptiveScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Realized demands of the last game played with this scratch.
    pub fn demands(&self) -> Vec<u128> {
        self.histories[..self.active]
            .iter()
            .map(|h| h.len() as u128)
            .collect()
    }
}

/// Plays one adaptive game of `adversary` against `algorithm`.
///
/// Instance `i` is seeded from `seeds` under [`SeedDomain::Instance`]`(i)`,
/// so a fixed seed tree replays the exact game.
pub fn run_adaptive(
    algorithm: &dyn Algorithm,
    adversary: &mut dyn AdaptiveAdversary,
    seeds: &SeedTree,
    limits: GameLimits,
) -> GameOutcome {
    let mut scratch = AdaptiveScratch::new();
    let lean = run_adaptive_with(&mut scratch, algorithm, adversary, seeds, limits);
    GameOutcome {
        collided: lean.collided,
        demands: scratch.demands(),
        exhausted: lean.exhausted,
        truncated: lean.truncated,
    }
}

/// [`run_adaptive`] with caller-owned scratch: generators are recycled
/// via `reset` instead of re-spawned, histories and the detector keep
/// their allocations.
pub fn run_adaptive_with(
    scratch: &mut AdaptiveScratch,
    algorithm: &dyn Algorithm,
    adversary: &mut dyn AdaptiveAdversary,
    seeds: &SeedTree,
    limits: GameLimits,
) -> TrialOutcome {
    let space = algorithm.space();
    scratch.detector.clear();
    scratch.active = 0;
    let mut total: u128 = 0;
    let mut exhausted = false;
    let mut truncated = false;

    loop {
        if total >= limits.max_requests {
            truncated = true;
            break;
        }
        let action = {
            let view = GameView {
                space,
                histories: &scratch.histories[..scratch.active],
                collision: scratch.detector.collided(),
                total_requests: total,
            };
            adversary.next_action(&view)
        };
        let target = match action {
            Action::Stop => break,
            Action::Activate => {
                let i = scratch.active;
                let seed = seeds.seed(SeedDomain::Instance(i as u64));
                if i < scratch.pool.len() {
                    scratch.pool[i].reset(seed);
                    scratch.histories[i].clear();
                } else {
                    scratch.pool.push(algorithm.spawn(seed));
                    scratch.histories.push(Vec::new());
                }
                scratch.active += 1;
                i
            }
            Action::Request(i) => {
                if i >= scratch.active {
                    debug_assert!(false, "adversary requested unknown instance {i}");
                    break;
                }
                i
            }
        };
        match scratch.pool[target].next_id() {
            Ok(id) => {
                scratch.detector.record(target, id);
                scratch.histories[target].push(id);
                total += 1;
            }
            Err(_) => {
                // An exhausted instance ends the game: the adversary asked
                // for more than the algorithm can serve.
                exhausted = true;
                break;
            }
        }
    }

    TrialOutcome {
        collided: scratch.detector.collided(),
        exhausted,
        truncated,
    }
}

/// Reusable worker state for symbolic oblivious games: one recycled
/// generator per profile instance plus the collision scratch. Tied to
/// the algorithm it first played against.
#[derive(Default)]
pub struct SymbolicScratch {
    instances: Vec<Box<dyn IdGenerator>>,
    collision: CollisionScratch,
    /// Instances used by the current/last game (prefix of `instances`).
    active: usize,
}

impl SymbolicScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Realized demands of the last game played with this scratch.
    pub fn demands(&self) -> Vec<u128> {
        self.instances[..self.active]
            .iter()
            .map(|g| g.generated())
            .collect()
    }
}

/// Plays the oblivious game on `profile` symbolically: every instance
/// skips its demand in bulk and only footprints are compared.
///
/// Semantically identical to running the materialized game on any request
/// interleaving of `profile` (order cannot matter obliviously) and checking
/// for collisions at the end.
pub fn run_oblivious_symbolic(
    algorithm: &dyn Algorithm,
    profile: &DemandProfile,
    seeds: &SeedTree,
) -> GameOutcome {
    let mut scratch = SymbolicScratch::new();
    let lean = run_oblivious_symbolic_with(&mut scratch, algorithm, profile, seeds);
    GameOutcome {
        collided: lean.collided,
        demands: scratch.demands(),
        exhausted: lean.exhausted,
        truncated: lean.truncated,
    }
}

/// [`run_oblivious_symbolic`] with caller-owned scratch: generators are
/// recycled via `reset`, and collision detection reuses its segment
/// table and point map.
pub fn run_oblivious_symbolic_with(
    scratch: &mut SymbolicScratch,
    algorithm: &dyn Algorithm,
    profile: &DemandProfile,
    seeds: &SeedTree,
) -> TrialOutcome {
    let n = profile.n();
    let mut exhausted = false;
    scratch.active = n;
    for (i, &d) in profile.demands().iter().enumerate() {
        let seed = seeds.seed(SeedDomain::Instance(i as u64));
        if i < scratch.instances.len() {
            scratch.instances[i].reset(seed);
        } else {
            scratch.instances.push(algorithm.spawn(seed));
        }
        if scratch.instances[i].skip(d).is_err() {
            exhausted = true;
        }
    }
    // The collide pass is driven straight off the generators: footprints
    // are borrowed transiently per visit, so no per-trial `Vec<Footprint>`
    // is materialized. Re-visiting calls `footprint()` again, which is a
    // no-op after the first flush.
    let SymbolicScratch {
        instances,
        collision,
        ..
    } = scratch;
    let collided = footprints_collide_each(collision, |visit| {
        for (i, g) in instances[..n].iter_mut().enumerate() {
            visit(i, g.footprint());
        }
    });
    TrialOutcome {
        collided,
        exhausted,
        truncated: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uuidp_adversary::adaptive::AdversarySpec;
    use uuidp_adversary::oblivious::{Oblivious, RequestOrder};
    use uuidp_core::algorithms::{Cluster, Random};
    use uuidp_core::id::IdSpace;

    #[test]
    fn oblivious_adaptive_and_symbolic_agree_per_seed() {
        // Same seed tree ⇒ same instance randomness ⇒ identical collision
        // outcome, whichever engine runs the game.
        let space = IdSpace::new(256).unwrap();
        let alg = Cluster::new(space);
        let profile = DemandProfile::new(vec![20, 20, 20]);
        let mut disagreements = 0;
        for master in 0..200u64 {
            let seeds = SeedTree::new(master);
            let spec = Oblivious::new(profile.clone());
            let mut adv = spec.spawn(0);
            let adaptive = run_adaptive(&alg, adv.as_mut(), &seeds, GameLimits::default());
            let symbolic = run_oblivious_symbolic(&alg, &profile, &seeds);
            assert_eq!(adaptive.demands, symbolic.demands);
            if adaptive.collided != symbolic.collided {
                disagreements += 1;
            }
        }
        assert_eq!(disagreements, 0);
    }

    #[test]
    fn scratch_reuse_replays_identically() {
        // Playing through one reused scratch must give the same outcomes
        // as fresh scratches: reset is observationally a fresh spawn.
        let space = IdSpace::new(512).unwrap();
        let alg = Cluster::new(space);
        let profile = DemandProfile::new(vec![16, 48, 32]);
        let mut scratch = SymbolicScratch::new();
        for master in 0..300u64 {
            let seeds = SeedTree::new(master);
            let reused = run_oblivious_symbolic_with(&mut scratch, &alg, &profile, &seeds);
            let fresh = run_oblivious_symbolic(&alg, &profile, &seeds);
            assert_eq!(reused.collided, fresh.collided, "master {master}");
            assert_eq!(reused.exhausted, fresh.exhausted);
        }
    }

    #[test]
    fn adaptive_scratch_reuse_replays_identically() {
        let space = IdSpace::new(256).unwrap();
        let alg = Cluster::new(space);
        let profile = DemandProfile::new(vec![12, 20]);
        let mut scratch = AdaptiveScratch::new();
        for master in 0..200u64 {
            let seeds = SeedTree::new(master);
            let spec = Oblivious::new(profile.clone());
            let mut adv = spec.spawn(0);
            let reused = run_adaptive_with(
                &mut scratch,
                &alg,
                adv.as_mut(),
                &seeds,
                GameLimits::default(),
            );
            let mut adv2 = spec.spawn(0);
            let fresh = run_adaptive(&alg, adv2.as_mut(), &seeds, GameLimits::default());
            assert_eq!(reused.collided, fresh.collided, "master {master}");
            assert_eq!(scratch.demands(), fresh.demands);
        }
    }

    #[test]
    fn request_order_does_not_change_outcome() {
        let space = IdSpace::new(128).unwrap();
        let alg = Random::new(space);
        let profile = DemandProfile::new(vec![8, 8, 8]);
        for master in 0..100u64 {
            let seeds = SeedTree::new(master);
            let mut outcomes = Vec::new();
            for order in [
                RequestOrder::Sequential,
                RequestOrder::RoundRobin,
                RequestOrder::RandomInterleave,
            ] {
                let spec = Oblivious::with_order(profile.clone(), order);
                let mut adv = spec.spawn(7);
                let out = run_adaptive(&alg, adv.as_mut(), &seeds, GameLimits::default());
                outcomes.push(out.collided);
            }
            assert!(
                outcomes.windows(2).all(|w| w[0] == w[1]),
                "order changed the outcome at master seed {master}"
            );
        }
    }

    #[test]
    fn exhaustion_is_reported() {
        let space = IdSpace::new(8).unwrap();
        let alg = Random::new(space);
        let profile = DemandProfile::new(vec![10]);
        let seeds = SeedTree::new(1);
        let out = run_oblivious_symbolic(&alg, &profile, &seeds);
        assert!(out.exhausted);
        assert_eq!(out.demands, vec![8]);
    }

    #[test]
    fn limits_truncate_runaway_games() {
        struct Forever;
        impl AdaptiveAdversary for Forever {
            fn next_action(&mut self, view: &GameView<'_>) -> Action {
                if view.n() < 2 {
                    Action::Activate
                } else {
                    Action::Request(0)
                }
            }
            fn reset(&mut self, _seed: u64) {}
        }
        let space = IdSpace::new(1 << 20).unwrap();
        let alg = Cluster::new(space);
        let seeds = SeedTree::new(2);
        let out = run_adaptive(&alg, &mut Forever, &seeds, GameLimits { max_requests: 100 });
        assert!(out.truncated);
        assert_eq!(out.demands.iter().sum::<u128>(), 100);
    }

    #[test]
    fn certain_collision_is_detected() {
        // Demand m from each of two instances: total 2m > m forces overlap.
        let space = IdSpace::new(32).unwrap();
        let alg = Cluster::new(space);
        let profile = DemandProfile::new(vec![32, 32]);
        let seeds = SeedTree::new(3);
        let out = run_oblivious_symbolic(&alg, &profile, &seeds);
        assert!(out.collided);
    }
}
