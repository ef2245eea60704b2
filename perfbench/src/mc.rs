//! The Monte-Carlo workload: `sim::montecarlo::estimate_oblivious` for
//! Cluster★ on the uniform 16 × 1024 profile, in fixed-size batches.

use uuidp_adversary::profile::DemandProfile;
use uuidp_analysis::exact::uniform_p_star;
use uuidp_core::clock;
use uuidp_core::rng::{SeedDomain, SeedTree};
use uuidp_core::traits::Algorithm;
use uuidp_sim::montecarlo::{estimate_oblivious, TrialConfig};
use uuidp_sim::stats::Estimate;

use crate::drive::{count_interval, read_host, Interval, INTERVAL_NS};
use crate::host;
use crate::spans::Tracer;
use crate::workload::{Workload, MC_DEMAND, MC_INSTANCES};

/// Trials per `estimate_oblivious` call: the unit a caller waits on.
pub const BATCH_TRIALS: u64 = 64;

/// Worker threads of the measured `estimate_oblivious` calls. One: a
/// batch on every CPU waits for its slowest thread, so anything else on
/// any CPU (another thread of the process, a busy hyperthread sibling)
/// stalls the whole batch, while one thread leaves a CPU for the rest.
/// Scaling over `nproc` threads is measured per layer
/// (`sim.thread_scaling`).
const THREADS: usize = 1;

/// The workload's demand profile.
pub fn profile() -> DemandProfile {
    DemandProfile::uniform(MC_INSTANCES, MC_DEMAND)
}

/// Set-up: build the algorithm and the profile, and spawn the instances
/// a trial's first game needs. Returns the algorithm and the time taken.
pub fn setup() -> (Box<dyn Algorithm>, DemandProfile, u64) {
    let w = Workload::MontecarloOblivious;
    let t0 = clock::monotonic_ns();
    let algorithm = w.kind().build(w.space());
    let profile = profile();
    let instances: Vec<_> = (0..profile.n() as u64)
        .map(|i| algorithm.spawn(i))
        .collect();
    std::hint::black_box(instances);
    (algorithm, profile, clock::monotonic_ns() - t0)
}

/// The master seed of batch `k` under the run seed.
pub fn batch_seed(seed: u64, k: u64) -> u64 {
    SeedTree::new(seed).seed(SeedDomain::Aux(k))
}

/// One time window's batches.
#[derive(Debug, Default)]
pub struct Window {
    /// The window's `INTERVAL_NS` intervals; an op is a trial, and each
    /// batch adds its wall time per trial as one latency.
    pub intervals: Vec<Interval>,
    /// Leading intervals that are whole.
    pub whole: usize,
    /// Trials run and collisions seen.
    pub trials: u64,
    pub successes: u64,
    /// Trials in which an instance reported exhaustion.
    pub exhausted: u64,
    /// Collisions of batch 0, when this window ran it.
    pub batch0: Option<u64>,
    pub window_ns: u64,
    pub cpu_ns: u64,
}

impl Window {
    /// Pools `other`'s counts into this window's (not its intervals).
    pub fn absorb(&mut self, other: Window) {
        self.trials += other.trials;
        self.successes += other.successes;
        self.exhausted += other.exhausted;
        self.batch0 = self.batch0.or(other.batch0);
        self.window_ns += other.window_ns;
        self.cpu_ns += other.cpu_ns;
    }
}

/// Runs batches `next_batch..` on [`THREADS`] threads for `window_ns`.
pub fn window(
    algorithm: &dyn Algorithm,
    profile: &DemandProfile,
    seed: u64,
    next_batch: &mut u64,
    window_ns: u64,
    tracer: Option<(&Tracer, u64)>,
) -> Window {
    let mut out = Window::default();
    let mut spans = tracer.map(|(t, parent)| t.local(parent));
    let cpu0 = host::cpu_ns();
    let t0 = clock::monotonic_ns();
    let sampler = host::Sampler::start(t0, INTERVAL_NS);
    while clock::monotonic_ns() - t0 < window_ns {
        let mut config = TrialConfig::new(BATCH_TRIALS, batch_seed(seed, *next_batch));
        config.threads = THREADS;
        let a = clock::monotonic_ns();
        let (est, diag) = estimate_oblivious(algorithm, profile, config);
        let b = clock::monotonic_ns();
        out.trials += est.trials;
        out.successes += est.successes;
        out.exhausted += diag.exhausted_trials;
        let ids = est.trials as u128 * profile.l1();
        count_interval(
            &mut out.intervals,
            b - t0,
            (b - a) / BATCH_TRIALS,
            est.trials,
            ids,
        );
        if *next_batch == 0 {
            out.batch0 = Some(est.successes);
        }
        if let Some(spans) = spans.as_mut() {
            spans.record("sim.estimate_batch", *next_batch, a, b);
        }
        *next_batch += 1;
    }
    out.whole = read_host(&mut out.intervals, &sampler.finish());
    out.window_ns = clock::monotonic_ns() - t0;
    out.cpu_ns = host::cpu_ns().saturating_sub(cpu0);
    out
}

/// The Monte-Carlo gates: the pooled estimate's interval reaches
/// Lemma 16's optimum (no algorithm collides less), no trial exhausted
/// an instance, and batch 0 replays to the same success count on another
/// number of threads (the count is a pure function of the seed).
pub fn check(
    algorithm: &dyn Algorithm,
    profile: &DemandProfile,
    seed: u64,
    pooled: &Window,
) -> Result<(), String> {
    let w = Workload::MontecarloOblivious;
    let est = Estimate::from_counts(pooled.successes, pooled.trials);
    let p_star = uniform_p_star(MC_INSTANCES, MC_DEMAND, w.space().size());
    if est.hi < p_star {
        return Err(format!(
            "estimate {:.5} (interval top {:.5}) beats the optimum p* = {p_star:.5}",
            est.p_hat, est.hi
        ));
    }
    if pooled.exhausted > 0 {
        return Err(format!("{} trials exhausted an instance", pooled.exhausted));
    }
    let batch0 = pooled.batch0.ok_or("batch 0 never ran")?;
    let mut config = TrialConfig::new(BATCH_TRIALS, batch_seed(seed, 0));
    config.threads = THREADS + 1;
    let replay = estimate_oblivious(algorithm, profile, config).0.successes;
    if replay != batch0 {
        return Err(format!(
            "batch 0 gave {batch0} collisions, its {}-thread replay {replay}",
            THREADS + 1
        ));
    }
    Ok(())
}
