//! Hot-path performance evidence: `repro bench-json`.
//!
//! Measures the PR's optimized hot paths against *reference baselines*
//! that replicate the previous implementation shape (per-ID interval
//! insertion, gap-list allocation per placement, the O(points ×
//! footprints) detector loop, spawn-per-trial Monte-Carlo), and writes
//! the numbers to a JSON file so the perf trajectory of the repository
//! is recorded commit over commit.
//!
//! The baselines run on top of today's `IntervalSet`, which is itself
//! faster than the seed's (in-place segment extension); reported
//! speedups are therefore conservative lower bounds on the true change.

use std::fmt::Write as _;
use std::time::Instant;

use uuidp_adversary::profile::DemandProfile;
use uuidp_core::algorithms::{AlgorithmKind, ClusterStar};
use uuidp_core::id::{Id, IdSpace};
use uuidp_core::interval::{Arc, IntervalSet};
use uuidp_core::rng::{uniform_below, SeedTree, Xoshiro256pp};
use uuidp_core::traits::{Algorithm, Footprint};
use uuidp_service::service::ServiceConfig;
use uuidp_service::stress::{run_stress, StressConfig};
use uuidp_sim::collision::{footprints_collide, CollisionScratch};
use uuidp_sim::game::run_oblivious_symbolic;
use uuidp_sim::montecarlo::{estimate_oblivious, TrialConfig};

/// One measured comparison.
#[derive(Debug, Clone)]
pub struct PerfResult {
    /// Benchmark name.
    pub name: String,
    /// Unit of the two timings.
    pub unit: &'static str,
    /// Optimized-path cost.
    pub new_cost: f64,
    /// Reference-baseline cost.
    pub baseline_cost: f64,
}

impl PerfResult {
    /// baseline / new.
    pub fn speedup(&self) -> f64 {
        self.baseline_cost / self.new_cost
    }
}

/// Median-of-samples wall-clock cost of `f`, in nanoseconds per call.
fn time_ns<F: FnMut()>(mut f: F) -> f64 {
    // Warm-up + calibration.
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed().as_millis() < 50 {
        f();
        calls += 1;
    }
    let per_call = start.elapsed().as_secs_f64() / calls.max(1) as f64;
    let batch = ((0.05 / per_call.max(1e-9)) as u64).clamp(1, 1 << 22);
    let mut samples = Vec::with_capacity(9);
    for _ in 0..9 {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN"));
    samples[samples.len() / 2] * 1e9
}

// ---------------------------------------------------------------------
// Baseline 1: the previous Cluster★ emission shape — every next_id pays
// an interval-set point insertion, every placement allocates two gap
// lists.
// ---------------------------------------------------------------------

/// Gap-list-allocating placement draw (the shape this PR removed from
/// `IntervalSet::sample_fitting_start`): computes the gap vector twice.
fn sample_fitting_start_alloc(set: &IntervalSet, rng: &mut Xoshiro256pp, len: u128) -> Option<Id> {
    let total: u128 = set
        .gaps()
        .iter()
        .filter(|g| g.len >= len)
        .map(|g| g.len - len + 1)
        .sum();
    if set.segment_count() == 0 {
        return Some(Id(uniform_below(rng, set.space().size())));
    }
    if total == 0 {
        return None;
    }
    let mut r = uniform_below(rng, total);
    for gap in set.gaps() {
        if gap.len < len {
            continue;
        }
        let starts = gap.len - len + 1;
        if r < starts {
            return Some(set.space().add(gap.start, r));
        }
        r -= starts;
    }
    unreachable!("sample index exceeded counted fitting starts");
}

/// The previous Cluster★ generator shape: eager per-ID footprint
/// insertion plus allocating placement draws.
struct EagerClusterStar {
    space: IdSpace,
    rng: Xoshiro256pp,
    reserved: IntervalSet,
    emitted: IntervalSet,
    current: Option<(Arc, u128)>,
    next_len: u128,
}

impl EagerClusterStar {
    fn new(space: IdSpace, seed: u64) -> Self {
        EagerClusterStar {
            space,
            rng: Xoshiro256pp::new(seed),
            reserved: IntervalSet::new(space),
            emitted: IntervalSet::new(space),
            current: None,
            next_len: 1,
        }
    }

    fn next_id(&mut self) -> Id {
        let (run, used) = match self.current {
            Some((run, used)) if used < run.len => (run, used),
            _ => {
                let len = self.next_len;
                let start = sample_fitting_start_alloc(&self.reserved, &mut self.rng, len)
                    .expect("baseline bench stays within capacity");
                let run = Arc::new(self.space, start, len);
                self.reserved.insert(run);
                self.next_len = len * 2;
                self.current = Some((run, 0));
                (run, 0)
            }
        };
        let id = run.nth(self.space, used);
        self.current = Some((run, used + 1));
        self.emitted.insert_point(id);
        id
    }
}

/// Cluster★ `next_id` throughput: lazy-footprint generator vs the eager
/// per-ID-insertion baseline. Cost unit: ns per generated ID.
pub fn bench_cluster_star_next_id() -> PerfResult {
    let space = IdSpace::with_bits(64).unwrap();
    let batch = 4096u32;
    let alg = ClusterStar::new(space);
    let mut gen = alg.spawn(42);
    let mut seed = 0u64;
    let new_cost = time_ns(|| {
        seed += 1;
        gen.reset(seed);
        for _ in 0..batch {
            std::hint::black_box(gen.next_id().unwrap());
        }
    }) / batch as f64;
    let baseline_cost = time_ns(|| {
        seed += 1;
        let mut gen = EagerClusterStar::new(space, seed);
        for _ in 0..batch {
            std::hint::black_box(gen.next_id());
        }
    }) / batch as f64;
    PerfResult {
        name: "cluster_star_next_id".into(),
        unit: "ns/id",
        new_cost,
        baseline_cost,
    }
}

/// Fragmented `sample_fitting_start`: the zero-allocation gap cursor vs
/// the double gap-list allocation. Cost unit: ns per draw.
pub fn bench_sample_fitting_start() -> PerfResult {
    let space = IdSpace::with_bits(64).unwrap();
    let mut set = IntervalSet::new(space);
    let mut rng = Xoshiro256pp::new(2);
    for _ in 0..256 {
        if let Some(start) = set.sample_fitting_start(&mut rng, 1 << 16) {
            set.insert(Arc::new(space, start, 1 << 16));
        }
    }
    let mut rng_new = Xoshiro256pp::new(3);
    let new_cost = time_ns(|| {
        std::hint::black_box(set.sample_fitting_start(&mut rng_new, 1 << 12));
    });
    let mut rng_old = Xoshiro256pp::new(3);
    let baseline_cost = time_ns(|| {
        std::hint::black_box(sample_fitting_start_alloc(&set, &mut rng_old, 1 << 12));
    });
    PerfResult {
        name: "sample_fitting_start_fragmented_256_runs".into(),
        unit: "ns/draw",
        new_cost,
        baseline_cost,
    }
}

// ---------------------------------------------------------------------
// Baseline 2: the previous footprints_collide phase 2 — every point
// scanned against every footprint.
// ---------------------------------------------------------------------

fn footprints_collide_naive(footprints: &[Footprint<'_>]) -> bool {
    use std::collections::HashMap;
    let mut segments: Vec<(u128, u128, usize)> = Vec::new();
    for (owner, fp) in footprints.iter().enumerate() {
        if let Footprint::Arcs(set) = fp {
            segments.extend(set.segments().map(|(lo, hi)| (lo, hi, owner)));
        }
    }
    segments.sort_unstable_by_key(|&(lo, _, _)| lo);
    let mut run_hi = 0u128;
    let mut run_owner = usize::MAX;
    for &(lo, hi, owner) in &segments {
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
    // The removed O(points × footprints) nested loop, SipHash point map.
    let mut seen_points: HashMap<u128, usize> = HashMap::new();
    for (owner, fp) in footprints.iter().enumerate() {
        if let Footprint::Points(points) = fp {
            for id in *points {
                match seen_points.entry(id.value()) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        if *e.get() != owner {
                            return true;
                        }
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(owner);
                    }
                }
                for (other, ofp) in footprints.iter().enumerate() {
                    if other == owner {
                        continue;
                    }
                    if let Footprint::Arcs(set) = ofp {
                        if set.contains(*id) {
                            return true;
                        }
                    }
                }
            }
        }
    }
    false
}

/// The shared k-way workload: 16 disjoint arc footprints of 64 segments
/// (2¹² IDs each) plus 2 point footprints of 4096 IDs, all pairwise
/// disjoint. Used by both `bench_footprints_collide_kway` and the
/// criterion `collision_detection` suite so the committed JSON numbers
/// and the interactive bench always measure the same workload.
pub fn kway_fixture() -> (Vec<IntervalSet>, Vec<Vec<Id>>) {
    let space = IdSpace::with_bits(64).unwrap();
    let mut rng = Xoshiro256pp::new(5);
    let mut arc_sets = Vec::new();
    let mut occupied = IntervalSet::new(space);
    for _ in 0..16 {
        let mut set = IntervalSet::new(space);
        for _ in 0..64 {
            let start = occupied
                .sample_fitting_start(&mut rng, 1 << 12)
                .expect("space is sparse");
            let arc = Arc::new(space, start, 1 << 12);
            occupied.insert(arc);
            set.insert(arc);
        }
        arc_sets.push(set);
    }
    let mut point_sets = Vec::new();
    for _ in 0..2 {
        let mut pts = Vec::with_capacity(4096);
        for _ in 0..4096 {
            let start = occupied
                .sample_fitting_start(&mut rng, 1)
                .expect("space is sparse");
            occupied.insert(Arc::new(space, start, 1));
            pts.push(start);
        }
        point_sets.push(pts);
    }
    (arc_sets, point_sets)
}

/// Borrows a [`kway_fixture`] as the footprint slice detectors take.
pub fn kway_footprints<'a>(
    arc_sets: &'a [IntervalSet],
    point_sets: &'a [Vec<Id>],
) -> Vec<Footprint<'a>> {
    arc_sets
        .iter()
        .map(Footprint::Arcs)
        .chain(point_sets.iter().map(|p| Footprint::Points(p)))
        .collect()
}

/// K-way collision detection over mixed arc + point footprints: sorted
/// binary-search phase 2 vs the nested loop. Cost unit: ns per
/// detection pass.
pub fn bench_footprints_collide_kway() -> PerfResult {
    let (arc_sets, point_sets) = kway_fixture();
    let footprints = kway_footprints(&arc_sets, &point_sets);
    let mut scratch = CollisionScratch::new();
    let new_cost = time_ns(|| {
        std::hint::black_box(uuidp_sim::collision::footprints_collide_with(
            &mut scratch,
            &footprints,
        ));
    });
    let baseline_cost = time_ns(|| {
        std::hint::black_box(footprints_collide_naive(&footprints));
    });
    let _ = footprints_collide(&footprints); // sanity: API parity
    PerfResult {
        name: "footprints_collide_16_arcs_2x4096_points".into(),
        unit: "ns/pass",
        new_cost,
        baseline_cost,
    }
}

/// End-to-end `estimate_oblivious`: the scratch-reusing work-stealing
/// engine vs spawn-per-trial. Single-threaded so the comparison isolates
/// per-trial overhead. Cost unit: µs per trial.
pub fn bench_estimate_oblivious() -> PerfResult {
    let space = IdSpace::with_bits(40).unwrap();
    let alg = ClusterStar::new(space);
    let profile = DemandProfile::uniform(16, 1 << 10);
    let trials = 512u64;
    let mut cfg = TrialConfig::new(trials, 42);
    cfg.threads = 1;
    let new_cost = time_ns(|| {
        std::hint::black_box(estimate_oblivious(&alg, &profile, cfg));
    }) / (trials as f64 * 1e3);
    let baseline_cost = time_ns(|| {
        // The previous engine shape: fresh boxed generators and detector
        // state every trial.
        let root = SeedTree::new(42);
        let mut collisions = 0u64;
        for t in 0..trials {
            let tree = root.trial(t);
            collisions += run_oblivious_symbolic(&alg, &profile, &tree).collided as u64;
        }
        std::hint::black_box(collisions);
    }) / (trials as f64 * 1e3);
    PerfResult {
        name: "estimate_oblivious_cluster_star_16x1024".into(),
        unit: "us/trial",
        new_cost,
        baseline_cost,
    }
}

// ---------------------------------------------------------------------
// Baseline 3 (PR 2): scalar service issuing — the same sharded service,
// but every ID is its own request/lease/audit-record, which is what an
// ID-per-call front-end over `next_id` costs end to end.
// ---------------------------------------------------------------------

/// End-to-end ns/ID of the issuing service under a uniform mix:
/// `requests` leases of `count` IDs over 8 tenants, 2 shards, audit tap
/// enabled. Median of three runs.
fn service_ns_per_id(kind: AlgorithmKind, requests: u64, count: u128) -> f64 {
    let space = IdSpace::with_bits(48).unwrap();
    let mut samples: Vec<f64> = (0..3)
        .map(|i| {
            let mut service = ServiceConfig::new(kind.clone(), space);
            service.shards = 2;
            service.master_seed = 0xBE7C + i;
            let cfg = StressConfig::new(service, 8, requests, count);
            let report = run_stress(cfg);
            report.elapsed.as_nanos() as f64 / report.issued_ids as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN"));
    samples[samples.len() / 2]
}

/// The tentpole's end-to-end claim: batch-leased service issuance
/// (1024-ID leases) vs the scalar-issue baseline (1-ID leases) for the
/// same algorithm, both with the online audit tap enabled. ≤ 1000 ns/ID
/// is the "1M IDs/s sustained" acceptance line. Cost unit: ns per
/// issued ID.
pub fn bench_service_issue(kind: AlgorithmKind, label: &str) -> PerfResult {
    // ~1M IDs through the batched path; the scalar baseline pays a full
    // request round-trip per ID, so it measures a smaller volume.
    let new_cost = service_ns_per_id(kind.clone(), 1024, 1024);
    let baseline_cost = service_ns_per_id(kind, 32_768, 1);
    PerfResult {
        name: format!("service_issue_{label}_2shards_audited"),
        unit: "ns/id",
        new_cost,
        baseline_cost,
    }
}

// ---------------------------------------------------------------------
// Baseline 4 (PR 3): the single-thread audit pipeline — same service,
// same striped audit, but every stripe owned by one consumer thread.
// ---------------------------------------------------------------------

/// Full-lifecycle (start → issue → drain → shutdown) ns/ID of an
/// audit-bound service. Random-algorithm leases fragment into per-ID
/// arcs, so the audit does `O(count)` interval work per lease while the
/// producers stay cheap — the pipeline, not the generators, is the
/// bottleneck by construction. Unlike the issue benches this measures
/// through `shutdown()`, because the audit tail after the worker drain
/// is exactly the cost a wider pipeline is supposed to absorb.
fn audited_wall_ns_per_id(audit_threads: usize) -> f64 {
    let space = IdSpace::with_bits(30).unwrap();
    let requests = 2048u64;
    let count = 32u128;
    let mut samples: Vec<f64> = (0..3)
        .map(|i| {
            let mut cfg = uuidp_service::service::ServiceConfig::new(AlgorithmKind::Random, space);
            cfg.shards = 2;
            cfg.audit_stripes = 64;
            cfg.audit_threads = audit_threads;
            cfg.master_seed = 0xA0D17 + i;
            let start = Instant::now();
            let service = uuidp_service::service::IdService::start(cfg);
            for r in 0..requests {
                service.issue(r % 32, count);
            }
            service.drain();
            let report = service.shutdown();
            start.elapsed().as_nanos() as f64 / report.issued_ids as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN"));
    samples[samples.len() / 2]
}

/// The PR 3 pipeline guardrail: the 4-thread stripe-routed audit vs the
/// single consumer that owned every stripe before, on an audit-bound
/// (point-lease) workload. On multi-core hosts the fan-out divides the
/// audit's interval work; on a single-core runner (like the container
/// this JSON is recorded on) the honest expectation is ~1.0× — the
/// number then pins that per-stripe routing and the extra channels cost
/// nothing over the old single tap. Cost unit: ns per issued ID, full
/// service lifecycle.
pub fn bench_audit_pipeline() -> PerfResult {
    PerfResult {
        name: "service_audit_pipeline_random_point_leases".into(),
        unit: "ns/id",
        new_cost: audited_wall_ns_per_id(4),
        baseline_cost: audited_wall_ns_per_id(1),
    }
}

// ---------------------------------------------------------------------
// Baseline 5 (PR 4): connection churn and single-node fleets — what the
// persistent-connection client pool and the multi-node harness replace.
// ---------------------------------------------------------------------

/// Remote lease round-trip cost: one persistent connection reused for
/// every request vs the connect-per-request client shape (dial,
/// handshake, lease, hang up). Cost unit: ns per leased round trip.
pub fn bench_remote_connection_reuse() -> PerfResult {
    use uuidp_client::Client;
    use uuidp_service::net::TcpServer;
    let space = IdSpace::with_bits(48).unwrap();
    let config = ServiceConfig::new(AlgorithmKind::Cluster, space);
    let server = TcpServer::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr();
    let mut tenant = 0u64;
    let client = Client::connect(addr, space).expect("persistent client");
    let new_cost = time_ns(|| {
        tenant = (tenant + 1) % 64;
        let lease = client.lease(tenant, 32).expect("persistent lease");
        std::hint::black_box(lease.granted);
    });
    let baseline_cost = time_ns(|| {
        tenant = (tenant + 1) % 64;
        let throwaway = Client::connect(addr, space).expect("throwaway client");
        let lease = throwaway.lease(tenant, 32).expect("throwaway lease");
        std::hint::black_box(lease.granted);
    });
    let _ = client.shutdown();
    let _ = server.join();
    PerfResult {
        name: "remote_lease_persistent_vs_connect_per_request".into(),
        unit: "ns/lease",
        new_cost,
        baseline_cost,
    }
}

/// Full-lifecycle fleet issuance (launch → route over TCP with durable
/// write-ahead state → graceful shutdown), ns per issued ID. Median of
/// three runs.
fn fleet_ns_per_id(nodes: usize) -> f64 {
    use uuidp_fleet::run::{run_fleet, FleetConfig};
    let space = IdSpace::with_bits(48).unwrap();
    let mut samples: Vec<f64> = (0..3)
        .map(|i| {
            let mut service = ServiceConfig::new(AlgorithmKind::Cluster, space);
            service.master_seed = 0xF1EE7 + i;
            let dir = std::env::temp_dir().join(format!(
                "uuidp-bench-fleet-{}-{nodes}-{i}",
                std::process::id()
            ));
            let mut cfg = FleetConfig::new(service, nodes, &dir);
            cfg.tenants = 6;
            cfg.requests = 1200;
            cfg.count = 256;
            cfg.reservation = 4096;
            let start = Instant::now();
            let report = run_fleet(cfg).expect("bench fleet run");
            let ns = start.elapsed().as_nanos() as f64 / report.issued_ids as f64;
            let _ = std::fs::remove_dir_all(&dir);
            ns
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN"));
    samples[samples.len() / 2]
}

/// The fleet end-to-end entry: 3 durable nodes behind the global-audit
/// router vs the same workload on a 1-node fleet. On multi-core hosts
/// the node fan-out parallelizes issuance; on a single-core runner the
/// honest expectation is ~1× — the number then pins that the router,
/// the per-node TCP hops, and the write-ahead persistence cost nothing
/// over a single node. Cost unit: ns per issued ID, full lifecycle.
pub fn bench_fleet_issue() -> PerfResult {
    PerfResult {
        name: "fleet_issue_3nodes_vs_1node_tcp_durable".into(),
        unit: "ns/id",
        new_cost: fleet_ns_per_id(3),
        baseline_cost: fleet_ns_per_id(1),
    }
}

// ---------------------------------------------------------------------
// Baseline 7 (PR 6): the adversarial network layer — what a fault-free
// chaos proxy costs on the hot path, and what a fixed fault mix does to
// the tail.
// ---------------------------------------------------------------------

/// Proxy passthrough overhead: v2 lease round trips through a
/// `ChaosProxy` configured with the `none` spec (pure byte forwarding,
/// no faults, no shaping) vs the same client dialing the server
/// directly. The delta is the price of having the chaos layer in the
/// path at all — two extra socket hops and the proxy's copy loop.
/// Cost unit: ns per leased round trip.
pub fn bench_chaos_proxy_passthrough() -> PerfResult {
    use uuidp_client::Client;
    use uuidp_netchaos::{ChaosProxy, ChaosSpec};
    use uuidp_service::net::TcpServer;
    let space = IdSpace::with_bits(48).unwrap();
    let config = ServiceConfig::new(AlgorithmKind::Cluster, space);
    let server = TcpServer::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr();
    let proxy = ChaosProxy::launch(addr, ChaosSpec::none(), 0).expect("launch proxy");
    let mut tenant = 0u64;
    let proxied = Client::connect(proxy.addr(), space).expect("proxied client");
    let new_cost = time_ns(|| {
        tenant = (tenant + 1) % 64;
        std::hint::black_box(proxied.lease(tenant, 32).expect("proxied lease").granted);
    });
    drop(proxied);
    let direct = Client::connect(addr, space).expect("direct client");
    let baseline_cost = time_ns(|| {
        tenant = (tenant + 1) % 64;
        std::hint::black_box(direct.lease(tenant, 32).expect("direct lease").granted);
    });
    let _ = direct.shutdown();
    proxy.shutdown();
    let _ = server.join();
    PerfResult {
        name: "remote_lease_v2_through_passthrough_proxy_vs_direct".into(),
        unit: "ns/lease",
        new_cost,
        baseline_cost,
    }
}

/// Full-lifecycle remote stress p99.9 tail, microseconds, for one
/// chaos shape (median of three runs).
fn stress_tail_p999_us(chaos: Option<uuidp_netchaos::ChaosSpec>) -> f64 {
    let space = IdSpace::with_bits(48).unwrap();
    let mut samples: Vec<f64> = (0..3)
        .map(|i| {
            let mut service = ServiceConfig::new(AlgorithmKind::Cluster, space);
            service.master_seed = 0xC405 + i;
            let mut cfg = StressConfig::new(service, 8, 1024, 128);
            cfg.remote_workers = 3;
            cfg.chaos = chaos;
            cfg.chaos_seed = 0xC405;
            let report = uuidp_service::stress::run_stress_remote(cfg).expect("bench chaos stress");
            report.p999_us
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN"));
    samples[samples.len() / 2]
}

/// Tail latency under a fixed fault mix: the p99.9 issue tail of a
/// 3-worker v2 stress run through the `small` chaos preset (seed
/// 0xC405 — partitions, stream cuts, frame corruption, injected
/// latency) vs the identical run on a clean network. The "speedup"
/// reads as the tail *amplification* the retry/backoff path absorbs
/// while the audit stays duplicate-free; well under 1.0× is the honest
/// expectation. Cost unit: µs at p99.9, full lifecycle.
pub fn bench_chaos_tail_latency() -> PerfResult {
    PerfResult {
        name: "stress_v2_p999_tail_chaos_small_vs_clean".into(),
        unit: "us/p999",
        new_cost: stress_tail_p999_us(Some(uuidp_netchaos::ChaosSpec::small())),
        baseline_cost: stress_tail_p999_us(None),
    }
}

// ---------------------------------------------------------------------
// Baseline 8 (PR 7): the observability layer — what a hot metric
// registry plus corr-id trace stamping costs on the batched issuance
// path, against the same service with tracing switched off.
// ---------------------------------------------------------------------

/// Batched-issuance ns/ID with the trace recorder either live
/// (`obs_trace: true`, the default — every lease stamps worker-persist
/// and worker-emit spans into the ring buffer) or idle (`obs_trace:
/// false` — the recorder is a no-op, the metric registry still counts).
/// Median of three runs.
fn service_ns_per_id_obs(obs_trace: bool, seed_salt: u64) -> f64 {
    let space = IdSpace::with_bits(48).unwrap();
    let mut service = ServiceConfig::new(AlgorithmKind::Cluster, space);
    service.shards = 2;
    service.master_seed = 0x0B5 + seed_salt;
    service.obs_trace = obs_trace;
    let cfg = StressConfig::new(service, 8, 2048, 1024);
    let report = run_stress(cfg);
    report.elapsed.as_nanos() as f64 / report.issued_ids as f64
}

/// The PR 7 overhead guardrail: batched issuance with the registry hot
/// and the trace recorder armed vs the identical run with tracing
/// idle. The acceptance line is ≤ 5% overhead (speedup ≥ 0.95×). The
/// registry's relaxed counters and streaming histograms are in the
/// path on both sides; an armed recorder on this path stamps only
/// span-joinable and milestone events (wire corrs, persists,
/// duplicates), so batched corr-0 issuance stays off the ring by
/// design — the delta pins that arming tracing is free for in-process
/// load, and the remote round-trip benches price the per-request wire
/// stamps. The PR 6 comparison lives across JSON artifacts:
/// `service_issue_cluster`'s `new` in BENCH_PR6.json vs BENCH_PR7.json
/// is the registry's own price on the same workload. Cost unit: ns per
/// issued ID.
pub fn bench_obs_overhead() -> PerfResult {
    // Interleaved hot/idle pairs, median of 5: per-sample service
    // startup and scheduler drift hit both sides alike instead of
    // whichever side happened to run during the noisy window.
    let mut hot = Vec::new();
    let mut idle = Vec::new();
    for i in 0..5 {
        hot.push(service_ns_per_id_obs(true, i));
        idle.push(service_ns_per_id_obs(false, i));
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN"));
        v[v.len() / 2]
    };
    PerfResult {
        name: "service_issue_obs_tracing_hot_vs_idle".into(),
        unit: "ns/id",
        new_cost: median(hot),
        baseline_cost: median(idle),
    }
}

/// The scrape-surface price: v2 lease round trips while a second
/// connection scrapes the full Prometheus exposition in a tight loop,
/// vs the same round trips with no scraper attached. This is the
/// adversarial worst case — a zero-interval scraper — so on a
/// single-core runner the ratio is dominated by plain CPU time-slicing
/// between the two clients, not by the obs layer: the exposition is
/// built outside the worker threads from relaxed counter reads, so a
/// snapshot never takes a lock a lease needs. A real scraper polling
/// at seconds-scale intervals is invisible. Cost unit: ns per leased
/// round trip.
pub fn bench_lease_under_scrape_load() -> PerfResult {
    use uuidp_client::Client;
    use uuidp_service::net::TcpServer;
    let space = IdSpace::with_bits(48).unwrap();
    let config = ServiceConfig::new(AlgorithmKind::Cluster, space);
    let server = TcpServer::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr();
    let mut tenant = 0u64;
    let client = Client::connect(addr, space).expect("v2 client");
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let scraper = {
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            let scraper = Client::connect(addr, space).expect("scraper");
            let mut scrapes = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                std::hint::black_box(scraper.metrics().expect("scrape"));
                scrapes += 1;
            }
            scrapes
        })
    };
    let new_cost = time_ns(|| {
        tenant = (tenant + 1) % 64;
        std::hint::black_box(client.lease(tenant, 32).expect("scraped lease").granted);
    });
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let scrapes = scraper.join().expect("scraper thread");
    assert!(scrapes > 0, "the scraper never completed a pass");
    let baseline_cost = time_ns(|| {
        tenant = (tenant + 1) % 64;
        std::hint::black_box(client.lease(tenant, 32).expect("quiet lease").granted);
    });
    let _ = client.shutdown();
    let _ = server.join();
    PerfResult {
        name: "remote_lease_v2_under_continuous_scrape_vs_quiet".into(),
        unit: "ns/lease",
        new_cost,
        baseline_cost,
    }
}

/// The PR 9 time-series price: folding an already-parsed snapshot into
/// the constant-memory window ring (counter deltas, gauge last-values,
/// histogram delta merge) plus a windowed-rate query, vs parsing the
/// exposition text that precedes it in every scrape pipeline. Ingest
/// riding well under the parse it is downstream of means the dashboard
/// aggregation adds nothing material to a scrape's cost — and the ring
/// never grows, so tick one million costs what tick one did. Cost
/// unit: ns per scrape tick.
pub fn bench_timeseries_ingest() -> PerfResult {
    use uuidp_obs::{Registry, Snapshot, TimeSeries};
    // A realistic family mix: the service's own counters, a reactor
    // gauge, and a well-populated latency histogram.
    let registry = Registry::new();
    registry.counter("uuidp_leases_total").add(10_000);
    registry.counter("uuidp_ids_issued_total").add(2_560_000);
    registry.counter("uuidp_lease_errors_total").add(3);
    registry.counter("uuidp_audit_records_total").add(10_000);
    registry.gauge("uuidp_net_out_queue_bytes").set(4096);
    let hist = registry.histogram("uuidp_lease_latency_ns");
    let mut rng = Xoshiro256pp::new(9);
    for _ in 0..4096 {
        hist.record_ns(uniform_below(&mut rng, 1 << 24) as u64);
    }
    let text = registry.snapshot().render_prometheus();
    let snap = Snapshot::parse_prometheus(&text);
    let mut series = TimeSeries::new(1, 64);
    let mut tick = 0u64;
    let new_cost = time_ns(|| {
        tick += 1;
        series.ingest(tick, &snap);
        std::hint::black_box(series.rate("uuidp_ids_issued_total", 1));
    });
    let baseline_cost = time_ns(|| {
        std::hint::black_box(Snapshot::parse_prometheus(&text).metrics.len());
    });
    PerfResult {
        name: "obs_timeseries_ingest_vs_exposition_parse".into(),
        unit: "ns/tick",
        new_cost,
        baseline_cost,
    }
}

/// The dashboard's poll price: one full `uuidp top` cycle — a v2
/// metrics round trip, exposition parse, window ingest, and the
/// windowed ids/s + p50/p99/p999 queries — vs the bare metrics round
/// trip alone. The delta is everything `top` adds on top of the wire
/// scrape it cannot avoid; `--once` is exactly two of these polls.
/// Cost unit: ns per poll.
pub fn bench_top_poll_cost() -> PerfResult {
    use uuidp_client::Client;
    use uuidp_obs::{Snapshot, TimeSeries};
    use uuidp_service::net::TcpServer;
    let space = IdSpace::with_bits(48).unwrap();
    let config = ServiceConfig::new(AlgorithmKind::Cluster, space);
    let server = TcpServer::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr();
    let client = Client::connect(addr, space).expect("v2 client");
    // Populate the histogram and counters the poll reads back.
    for tenant in 0..32u64 {
        client.lease(tenant, 256).expect("warm lease");
    }
    let mut series = TimeSeries::new(1, 64);
    let mut tick = 0u64;
    let new_cost = time_ns(|| {
        tick += 1;
        let text = client.metrics().expect("scrape");
        let snap = Snapshot::parse_prometheus(&text);
        series.ingest(tick, &snap);
        std::hint::black_box((
            series.rate("uuidp_ids_issued_total", 1),
            series.quantile_ns("uuidp_lease_latency_ns", 8, 0.50),
            series.quantile_ns("uuidp_lease_latency_ns", 8, 0.99),
            series.quantile_ns("uuidp_lease_latency_ns", 8, 0.999),
        ));
    });
    let baseline_cost = time_ns(|| {
        std::hint::black_box(client.metrics().expect("bare scrape").len());
    });
    let _ = client.shutdown();
    let _ = server.join();
    PerfResult {
        name: "top_poll_full_cycle_vs_bare_metrics_roundtrip".into(),
        unit: "ns/poll",
        new_cost,
        baseline_cost,
    }
}

/// `n` raw v2 connections with completed hellos, held open (idle) by
/// the caller.
fn open_idle_v2_conns(
    addr: std::net::SocketAddr,
    space: IdSpace,
    n: usize,
) -> Vec<std::net::TcpStream> {
    use uuidp_client::frame::{self, FrameBody};
    (0..n)
        .map(|i| {
            let mut stream =
                std::net::TcpStream::connect(addr).unwrap_or_else(|e| panic!("dial conn {i}: {e}"));
            stream.set_nodelay(true).expect("nodelay");
            frame::write_frame(
                &mut stream,
                0,
                &FrameBody::Hello {
                    version: frame::VERSION,
                    space: space.size(),
                },
            )
            .expect("hello");
            let hello = frame::read_frame(&mut stream).expect("hello-ok");
            assert!(matches!(hello.body, FrameBody::HelloOk { .. }));
            stream
        })
        .collect()
}

/// Child-process half of the idle bench, behind the repro binary's
/// hidden `hold-conns ADDR N` mode: opens `n` idle v2 connections
/// against `addr`, prints `ready`, and holds them until stdin reaches
/// EOF (the parent dropping the pipe). Client sockets live in child
/// processes because containers routinely deny `setrlimit`, so a
/// single process cannot hold both halves of 10k+ loopback pairs
/// within a ~20k fd budget — but each side separately fits.
pub fn hold_conns_main(addr: &str, n: usize) -> std::process::ExitCode {
    use std::io::Write as _;
    let addr: std::net::SocketAddr = match addr.parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hold-conns: bad address {addr}: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    let space = IdSpace::with_bits(48).unwrap();
    let held = open_idle_v2_conns(addr, space, n);
    println!("ready");
    let _ = std::io::stdout().flush();
    let mut line = String::new();
    let _ = std::io::stdin().read_line(&mut line);
    drop(held);
    std::process::ExitCode::SUCCESS
}

/// Spawns `repro hold-conns` children collectively holding `total` idle
/// v2 connections, ≤5000 per child, and waits until every child reports
/// its connections are up. `None` when the current executable is not
/// the repro binary (the only one with the mode).
fn spawn_conn_holders(
    addr: std::net::SocketAddr,
    total: usize,
) -> Option<Vec<std::process::Child>> {
    use std::io::BufRead as _;
    let exe = std::env::current_exe().ok()?;
    let stem = exe.file_stem()?.to_string_lossy().into_owned();
    if !stem.starts_with("repro") {
        return None;
    }
    const PER_CHILD: usize = 5_000;
    let mut children = Vec::new();
    let mut left = total;
    while left > 0 {
        let n = left.min(PER_CHILD);
        left -= n;
        let child = std::process::Command::new(&exe)
            .arg("hold-conns")
            .arg(addr.to_string())
            .arg(n.to_string())
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .ok()?;
        children.push(child);
    }
    for child in &mut children {
        let mut line = String::new();
        let mut reader = std::io::BufReader::new(child.stdout.as_mut()?);
        reader.read_line(&mut line).ok()?;
        if line.trim() != "ready" {
            return None;
        }
    }
    Some(children)
}

/// The PR 8 headline: what parked v2 connections cost. `new` is the
/// epoll reactor's wakeups per second holding 10,000 idle connections —
/// effectively zero, the thread sleeps in `epoll_wait` until a byte
/// arrives. `baseline` is the portable poll-rotation fallback holding a
/// tenth of the connections, which must keep waking to re-scan its
/// sockets. Actual connection counts are in the name. The client
/// sockets are held by `hold-conns` child processes so the fd budget
/// bounds only the server side; without that mode (or enough fds) the
/// bench scales down in-process. Cost unit: reactor wakeups per idle
/// second.
pub fn bench_reactor_idle_wakeups() -> PerfResult {
    use uuidp_client::Client;
    use uuidp_service::net::{ServerOptions, TcpServer};
    use uuidp_service::reactor::{raise_nofile, NetBackend};
    let space = IdSpace::with_bits(48).unwrap();
    // Try for headroom anyway — some hosts do let root raise it.
    let limit = raise_nofile(65_536).unwrap_or(1_024).max(1_024);
    let epoll_conns = if NetBackend::epoll_compiled() {
        // Server-side fds only (accepted sockets); children hold the
        // dialing half. In-process fallback needs both halves.
        ((limit.saturating_sub(512)) as usize).min(10_000)
    } else {
        256 // rotation-only build: keep the headline side honest but small
    };
    let poll_conns = (epoll_conns / 10).max(64);
    let measure = |backend: NetBackend, conns: usize| -> f64 {
        let config = ServiceConfig::new(AlgorithmKind::Cluster, space);
        let options = ServerOptions {
            backend,
            ..ServerOptions::default()
        };
        let server = TcpServer::bind_with("127.0.0.1:0", config, options).expect("bind loopback");
        let mut holders = spawn_conn_holders(server.local_addr(), conns);
        let held = if holders.is_none() {
            let inproc = conns.min((limit.saturating_sub(512) / 3) as usize);
            open_idle_v2_conns(server.local_addr(), space, inproc)
        } else {
            Vec::new()
        };
        let wakeups = server.registry().counter("uuidp_net_wakeups_total");
        let before = wakeups.get();
        std::thread::sleep(std::time::Duration::from_secs(1));
        let woke = (wakeups.get() - before) as f64;
        drop(held);
        if let Some(children) = holders.as_mut() {
            for child in children.iter_mut() {
                drop(child.stdin.take()); // EOF: release the connections
                let _ = child.wait();
            }
        }
        let ctl = Client::connect(server.local_addr(), space).expect("control conn");
        let _ = ctl.shutdown();
        let _ = server.join();
        woke
    };
    let backend_new = if NetBackend::epoll_compiled() {
        NetBackend::Epoll
    } else {
        NetBackend::Poll
    };
    // Floor at 0.5 wakeups/s: an idle epoll reactor genuinely reads 0,
    // and a zero cost would render as an infinite speedup in the JSON.
    let new_cost = measure(backend_new, epoll_conns).max(0.5);
    let baseline_cost = measure(NetBackend::Poll, poll_conns).max(0.5);
    PerfResult {
        name: format!(
            "reactor_idle_wakeups_per_s_{backend_new}_{epoll_conns}conns_vs_poll_{poll_conns}conns"
        ),
        unit: "wakeups/s",
        new_cost,
        baseline_cost,
    }
}

/// Vectored reply flushing: how many queued replies the reactor retires
/// per write syscall when a pipelined client keeps whole batches in
/// flight. `new` is the measured syscalls per reply (the reciprocal of
/// the server's `uuidp_net_replies_per_syscall` mean) under 256-deep
/// pipelining; `baseline` is the old demux's locked write-per-reply:
/// exactly one syscall each. Cost unit: write syscalls per reply.
pub fn bench_reactor_replies_per_syscall() -> PerfResult {
    use std::io::Write as _;
    use uuidp_client::frame::{self, FrameBody};
    use uuidp_client::Client;
    use uuidp_service::net::TcpServer;
    let space = IdSpace::with_bits(48).unwrap();
    let config = ServiceConfig::new(AlgorithmKind::Cluster, space);
    let server = TcpServer::bind("127.0.0.1:0", config).expect("bind loopback");
    let mut stream = open_idle_v2_conns(server.local_addr(), space, 1)
        .pop()
        .expect("one conn");
    let mut corr = 0u64;
    for _ in 0..64 {
        let mut batch = Vec::new();
        for _ in 0..256 {
            corr += 1;
            batch.extend_from_slice(&frame::encode_frame(
                corr,
                &FrameBody::LeaseReq {
                    tenant: corr % 8,
                    count: 1,
                },
            ));
        }
        stream.write_all(&batch).expect("batch write");
        for _ in 0..256 {
            let reply = frame::read_frame(&mut stream).expect("reply");
            assert!(matches!(reply.body, FrameBody::LeaseResp { .. }));
        }
    }
    let hist = server
        .registry()
        .histogram("uuidp_net_replies_per_syscall")
        .snapshot();
    let replies_per_syscall = if hist.count() > 0 {
        hist.mean_ns()
    } else {
        1.0
    };
    drop(stream);
    let ctl = Client::connect(server.local_addr(), space).expect("control conn");
    let _ = ctl.shutdown();
    let _ = server.join();
    PerfResult {
        name: "reactor_vectored_flush_syscalls_per_reply_vs_write_per_reply".into(),
        unit: "syscalls/reply",
        new_cost: 1.0 / replies_per_syscall.max(1.0),
        baseline_cost: 1.0,
    }
}

/// Runs the whole suite.
pub fn run_all() -> Vec<PerfResult> {
    vec![
        bench_cluster_star_next_id(),
        bench_sample_fitting_start(),
        bench_footprints_collide_kway(),
        bench_estimate_oblivious(),
        bench_service_issue(AlgorithmKind::Cluster, "cluster"),
        bench_service_issue(AlgorithmKind::BinsStar, "bins_star"),
        bench_audit_pipeline(),
        bench_remote_connection_reuse(),
        bench_fleet_issue(),
        bench_chaos_proxy_passthrough(),
        bench_chaos_tail_latency(),
        bench_obs_overhead(),
        bench_lease_under_scrape_load(),
        bench_timeseries_ingest(),
        bench_top_poll_cost(),
        bench_reactor_idle_wakeups(),
        bench_reactor_replies_per_syscall(),
    ]
}

/// Renders results as the committed JSON document.
pub fn to_json(pr: u32, results: &[PerfResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"pr\": {pr},");
    out.push_str("  \"benches\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"new\": {:.2}, \"baseline\": {:.2}, \"speedup\": {:.2}}}",
            r.name,
            r.unit,
            r.new_cost,
            r.baseline_cost,
            r.speedup()
        );
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_and_fast_detectors_agree_on_random_inputs() {
        let space = IdSpace::new(1 << 16).unwrap();
        let mut rng = Xoshiro256pp::new(11);
        for _ in 0..200 {
            // A couple of random arc sets and a random point list; overlap
            // is common at this density, so both branches get exercised.
            let mut sets = Vec::new();
            for _ in 0..3 {
                let mut set = IntervalSet::new(space);
                for _ in 0..8 {
                    let start = uniform_below(&mut rng, 1 << 16);
                    let len = 1 + uniform_below(&mut rng, 1 << 7);
                    set.insert(Arc::new(space, Id(start), len));
                }
                sets.push(set);
            }
            let points: Vec<Id> = (0..32)
                .map(|_| Id(uniform_below(&mut rng, 1 << 16)))
                .collect();
            let fps: Vec<Footprint<'_>> = sets
                .iter()
                .map(Footprint::Arcs)
                .chain(std::iter::once(Footprint::Points(&points)))
                .collect();
            assert_eq!(
                footprints_collide(&fps),
                footprints_collide_naive(&fps),
                "detectors disagree"
            );
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let results = vec![PerfResult {
            name: "x".into(),
            unit: "ns",
            new_cost: 1.0,
            baseline_cost: 2.0,
        }];
        let json = to_json(1, &results);
        assert!(json.contains("\"speedup\": 2.00"));
        assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
    }
}
