//! One request schedule for every load driver.
//!
//! `uuidp_service::stress` replays a [`TrafficMix`] against one service
//! (in process or over a socket) and `uuidp_fleet` routes it across
//! nodes. Both walk one [`Scheduler`], so a mix names the same sequence
//! of `(tenant, count)` leases whichever runner replays it. A schedule
//! is a pure function of its parameters and the master seed (the
//! hunter's also of the IDs it [observed](Scheduler::observe), which are
//! themselves deterministic), so runs replay exactly.

use std::fmt;

use uuidp_core::id::{Id, IdSpace};
use uuidp_core::rng::{SeedDomain, SeedTree, Xoshiro256pp};

use crate::adaptive::{Action, AdaptiveAdversary, AdversarySpec, GameView};
use crate::profile::power_law;
use crate::run_hunter::RunHunter;

/// Most instances the hunter plays. Every one of its steps scans every
/// instance, so the cap bounds the per-request cost; tenants past it get
/// no request.
const HUNTER_MAX_INSTANCES: usize = 64;

/// The request-mix shapes a [`Scheduler`] can replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrafficMix {
    /// Round-robin, equal batches: the uniform demand profile, Cluster's
    /// oblivious worst case (Theorem 1).
    #[default]
    Uniform,
    /// Tenants drawn from the α = 1.2 [`power_law`] profile: the skewed
    /// profiles of the competitive analysis (Theorems 9–11).
    Skewed,
    /// One hot tenant takes 3 of every 4 requests at 4× the count; the
    /// rest go round-robin over the cold tenants (the
    /// [`SkewedFlood`](crate::flooder::SkewedFlood) shape).
    Flood,
    /// The adaptive [`RunHunter`] (Theorem 8's threat model) aims
    /// single-ID requests at the IDs observed so far.
    Hunter,
}

impl TrafficMix {
    /// Parses a mix name (`uniform | skewed | flood | hunter`, with
    /// `zipf` and `adaptive` as aliases).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "uniform" => Ok(TrafficMix::Uniform),
            "skewed" | "zipf" => Ok(TrafficMix::Skewed),
            "flood" => Ok(TrafficMix::Flood),
            "hunter" | "adaptive" => Ok(TrafficMix::Hunter),
            other => Err(format!(
                "unknown mix `{other}` (uniform | skewed | flood | hunter)"
            )),
        }
    }

    /// The most IDs one lease of this mix asks for, given the batch
    /// size `count`: Flood's hot tenant leases 4×, the hunter single
    /// IDs.
    pub fn largest_lease(self, count: u128) -> u128 {
        match self {
            TrafficMix::Uniform | TrafficMix::Skewed => count,
            TrafficMix::Flood => count.saturating_mul(4),
            TrafficMix::Hunter => 1,
        }
    }
}

impl fmt::Display for TrafficMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TrafficMix::Uniform => "uniform",
            TrafficMix::Skewed => "skewed",
            TrafficMix::Flood => "flood",
            TrafficMix::Hunter => "hunter",
        })
    }
}

/// The per-request schedule of one run: which tenant leases next, and
/// how many IDs.
pub struct Scheduler {
    tenants: u64,
    requests: u64,
    count: u128,
    kind: Kind,
}

enum Kind {
    Uniform,
    Skewed {
        /// Prefix-sum CDF over tenant weights.
        cdf: Vec<f64>,
        rng: Xoshiro256pp,
    },
    Flood,
    Hunter {
        adversary: Box<dyn AdaptiveAdversary>,
        histories: Vec<Vec<Id>>,
        space: IdSpace,
    },
}

impl Scheduler {
    /// A schedule of `requests` leases of `count` IDs over `tenants`
    /// tenants in `space`, seeded from `master_seed`. Flood and the
    /// hunter need two tenants; with one, they conscript tenant 1.
    pub fn new(
        mix: TrafficMix,
        tenants: u64,
        requests: u64,
        count: u128,
        space: IdSpace,
        master_seed: u64,
    ) -> Scheduler {
        assert!(tenants >= 1, "at least one tenant");
        let kind = match mix {
            TrafficMix::Uniform => Kind::Uniform,
            TrafficMix::Skewed => {
                // The integer demand profile, used as sampling weights.
                let profile = power_law(tenants as usize, (tenants as u128) * 1000, 1.2);
                let total: u128 = profile.demands().iter().sum();
                let mut acc = 0.0;
                let cdf = profile
                    .demands()
                    .iter()
                    .map(|&d| {
                        acc += d as f64 / total as f64;
                        acc
                    })
                    .collect();
                Kind::Skewed {
                    cdf,
                    rng: SeedTree::new(master_seed).rng(SeedDomain::Workload),
                }
            }
            TrafficMix::Flood => Kind::Flood,
            TrafficMix::Hunter => {
                let n = (tenants.max(2) as usize).min(HUNTER_MAX_INSTANCES);
                let budget = (requests as u128).max(n as u128);
                Kind::Hunter {
                    adversary: RunHunter::new(n, budget).spawn(master_seed),
                    histories: Vec::new(),
                    space,
                }
            }
        };
        Scheduler {
            tenants,
            requests,
            count,
            kind,
        }
    }

    /// The `(tenant, count)` of request number `submitted`, or `None`
    /// once `requests` were submitted or the hunter stops.
    pub fn next(&mut self, submitted: u64) -> Option<(u64, u128)> {
        if submitted >= self.requests {
            return None;
        }
        match &mut self.kind {
            Kind::Uniform => Some((submitted % self.tenants, self.count)),
            Kind::Skewed { cdf, rng } => {
                let u = (rng.next_value() >> 11) as f64 / (1u64 << 53) as f64;
                let tenant = cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
                Some((tenant as u64, self.count))
            }
            Kind::Flood if submitted % 4 != 3 => {
                Some((0, TrafficMix::Flood.largest_lease(self.count)))
            }
            // Consecutive cold requests visit consecutive cold tenants.
            Kind::Flood => {
                let cold = self.tenants.max(2) - 1;
                Some((1 + (submitted / 4) % cold, self.count))
            }
            Kind::Hunter {
                adversary,
                histories,
                space,
            } => {
                let action = adversary.next_action(&GameView {
                    space: *space,
                    histories,
                    // Audits run as the IDs come back; the attacker plays
                    // its budget out rather than stopping at first blood.
                    collision: false,
                    total_requests: submitted as u128,
                });
                let tenant = match action {
                    Action::Stop => return None,
                    Action::Activate => {
                        histories.push(Vec::new());
                        histories.len() - 1
                    }
                    Action::Request(i) => i,
                };
                Some((tenant as u64, 1))
            }
        }
    }

    /// Feeds an ID a lease for `tenant` returned back to the hunter; the
    /// oblivious mixes ignore it.
    pub fn observe(&mut self, tenant: u64, id: Id) {
        if let Kind::Hunter { histories, .. } = &mut self.kind {
            if let Some(h) = histories.get_mut(tenant as usize) {
                h.push(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_mix_parses_and_displays() {
        for (name, want) in [
            ("uniform", TrafficMix::Uniform),
            ("skewed", TrafficMix::Skewed),
            ("zipf", TrafficMix::Skewed),
            ("Flood", TrafficMix::Flood),
            ("hunter", TrafficMix::Hunter),
            ("adaptive", TrafficMix::Hunter),
        ] {
            assert_eq!(TrafficMix::parse(name).unwrap(), want);
        }
        assert!(TrafficMix::parse("mesh").is_err());
        assert_eq!(TrafficMix::Skewed.to_string(), "skewed");
        assert_eq!(TrafficMix::Flood.to_string(), "flood");
    }

    #[test]
    fn uniform_and_skewed_schedules_are_deterministic() {
        let space = IdSpace::with_bits(32).unwrap();
        for mix in [TrafficMix::Uniform, TrafficMix::Skewed, TrafficMix::Flood] {
            let mut a = Scheduler::new(mix, 6, 100, 8, space, 42);
            let mut b = Scheduler::new(mix, 6, 100, 8, space, 42);
            for r in 0..100 {
                let (x, y) = (a.next(r), b.next(r));
                assert_eq!(x, y, "{mix} diverged at {r}");
                assert!(x.unwrap().0 < 6);
            }
            assert_eq!(a.next(100), None, "{mix} ran past its requests");
        }
    }

    #[test]
    fn skewed_schedule_actually_skews() {
        let space = IdSpace::with_bits(32).unwrap();
        let mut s = Scheduler::new(TrafficMix::Skewed, 8, 4000, 8, space, 7);
        let mut counts = [0u32; 8];
        for r in 0..4000 {
            counts[s.next(r).unwrap().0 as usize] += 1;
        }
        assert!(
            counts[0] > counts[7] * 2,
            "power law should favor tenant 0: {counts:?}"
        );
    }

    #[test]
    fn flood_spreads_cold_requests_over_every_cold_tenant() {
        let space = IdSpace::with_bits(32).unwrap();
        for tenants in [3u64, 5, 8, 9] {
            let requests = 202;
            let mut s = Scheduler::new(TrafficMix::Flood, tenants, requests, 10, space, 1);
            let mut cold = vec![0u64; tenants as usize];
            for r in 0..requests {
                match s.next(r).unwrap() {
                    (0, count) => assert_eq!(count, 40, "hot batches are 4× the count"),
                    (tenant, count) => {
                        assert_eq!(count, 10);
                        cold[tenant as usize] += 1;
                    }
                }
            }
            let total: u64 = cold.iter().sum();
            assert_eq!(total, requests / 4, "{tenants} tenants");
            let share = total / (tenants - 1);
            for (tenant, &got) in cold.iter().enumerate().skip(1) {
                assert!(
                    got == share || got == share + 1,
                    "{tenants} tenants: cold tenant {tenant} got {got} of {total}: {cold:?}"
                );
            }
        }
        let mut huge = Scheduler::new(TrafficMix::Flood, 2, 1, u128::MAX, space, 1);
        assert_eq!(huge.next(0), Some((0, u128::MAX)), "hot batch saturates");
    }

    #[test]
    fn largest_lease_is_the_largest_count_each_mix_schedules() {
        let space = IdSpace::with_bits(24).unwrap();
        for mix in [
            TrafficMix::Uniform,
            TrafficMix::Skewed,
            TrafficMix::Flood,
            TrafficMix::Hunter,
        ] {
            let mut s = Scheduler::new(mix, 4, 40, 10, space, 5);
            let mut largest = 0;
            let mut submitted = 0u64;
            while let Some((tenant, count)) = s.next(submitted) {
                largest = largest.max(count);
                s.observe(tenant, Id(submitted as u128 * 17));
                submitted += 1;
            }
            assert_eq!(largest, mix.largest_lease(10), "{mix}");
        }
    }

    #[test]
    fn hunter_schedule_respects_the_tenant_budget_shape() {
        let space = IdSpace::with_bits(24).unwrap();
        let mut s = Scheduler::new(TrafficMix::Hunter, 4, 50, 64, space, 3);
        let mut submitted = 0u64;
        while let Some((tenant, count)) = s.next(submitted) {
            assert!(tenant < 4, "hunter chose tenant {tenant} of 4");
            assert_eq!(count, 1, "the hunter plays single-ID requests");
            // Feed a fabricated observation to keep the game moving.
            s.observe(tenant, Id(submitted as u128 * 17 % (1 << 24)));
            submitted += 1;
        }
        assert!(submitted >= 4, "probe phase must run");
        assert!(submitted <= 50, "the hunter ran past its requests");
    }
}
