//! The `uuidp` subcommand implementations.
//!
//! Each command is a plain function from a typed options struct to a
//! `Result<String>` (the rendered output), so the whole surface is unit
//! tested without process spawning.

use std::fmt::Write as _;

use uuidp_adversary::profile::DemandProfile;
use uuidp_adversary::schedule::TrafficMix;
use uuidp_analysis::exact::{cluster_union_bounds, random_exact};
use uuidp_analysis::planning::{self, Scheme};
use uuidp_analysis::theory;
use uuidp_core::algorithms::AlgorithmKind;
use uuidp_core::diagram::render_captioned;
use uuidp_core::id::IdSpace;
use uuidp_core::rng::{SplitMix64, Xoshiro256pp};
use uuidp_sim::montecarlo::{estimate_oblivious, TrialConfig};

use uuidp_client::frame::MAX_LEASE_COUNT;
use uuidp_client::{ClientOptions, RetryPolicy, Session};
use uuidp_fleet::run::{run_fleet, FleetConfig, FleetReport};
use uuidp_fleet::stress::run_stress_remote;
use uuidp_netchaos::ChaosSpec;
use uuidp_service::net::{ServerOptions, TcpServer};
use uuidp_service::protocol::{render_lease, Command};
use uuidp_service::service::{check_tenant, IdService, ServiceConfig, ServiceReport, TENANT_BITS};
use uuidp_service::stress::{run_stress, StressConfig, StressReport};

use crate::spec::{parse_algorithm_kind, IdFormat, ParseError};

/// Options for `uuidp generate`.
#[derive(Debug, Clone)]
pub struct GenerateOpts {
    /// Algorithm spec (see [`crate::spec`]).
    pub algorithm: String,
    /// Universe width in bits.
    pub bits: u32,
    /// Number of IDs to mint.
    pub count: u64,
    /// Seed; `None` uses OS entropy.
    pub seed: Option<u64>,
    /// Output encoding.
    pub format: IdFormat,
}

/// Runs `uuidp generate`.
pub fn generate(opts: &GenerateOpts) -> Result<String, ParseError> {
    let space =
        IdSpace::with_bits(opts.bits).map_err(|e| ParseError(format!("bad --bits: {e}")))?;
    let alg = parse_algorithm_kind(&opts.algorithm, space)?.build(space);
    let seed = opts.seed.unwrap_or_else(entropy_seed);
    let mut gen = alg.spawn(seed);
    let mut out = String::new();
    for i in 0..opts.count {
        match gen.next_id() {
            Ok(id) => {
                out.push_str(&opts.format.render(id, space));
                out.push('\n');
            }
            Err(e) => {
                return Err(ParseError(format!(
                    "generator exhausted after {i} IDs: {e}"
                )))
            }
        }
    }
    Ok(out)
}

/// Options for `uuidp simulate`.
#[derive(Debug, Clone)]
pub struct SimulateOpts {
    /// Algorithm spec.
    pub algorithm: String,
    /// Universe width in bits.
    pub bits: u32,
    /// Number of uncoordinated instances.
    pub instances: usize,
    /// IDs drawn per instance.
    pub per_instance: u128,
    /// Monte-Carlo trials.
    pub trials: u64,
    /// Master seed.
    pub seed: u64,
}

/// Runs `uuidp simulate`: measured collision probability plus the
/// matching paper prediction.
pub fn simulate(opts: &SimulateOpts) -> Result<String, ParseError> {
    if opts.instances < 2 {
        return Err(ParseError("need at least 2 instances to collide".into()));
    }
    if opts.per_instance == 0 {
        return Err(ParseError(
            "need at least 1 ID per instance to collide".into(),
        ));
    }
    let space =
        IdSpace::with_bits(opts.bits).map_err(|e| ParseError(format!("bad --bits: {e}")))?;
    let kind = parse_algorithm_kind(&opts.algorithm, space)?;
    let alg = kind.build(space);
    let profile = DemandProfile::uniform(opts.instances, opts.per_instance);
    let (est, diag) = estimate_oblivious(
        alg.as_ref(),
        &profile,
        TrialConfig::new(opts.trials.max(1), opts.seed),
    );
    let m = space.size();
    let prediction = match kind {
        AlgorithmKind::Random => Some(("exact (Cor. 3)", random_exact(&profile, m))),
        AlgorithmKind::Cluster => {
            Some(("union bound (Thm. 1)", cluster_union_bounds(&profile, m).1))
        }
        AlgorithmKind::Bins { k } => Some(("theta (Thm. 2)", theory::bins(&profile, k, m))),
        _ => None,
    };
    let mut out = format!(
        "algorithm:   {}\nuniverse:    m = 2^{}\nworkload:    {} instances × {} IDs\n\
         measured:    p = {}\n",
        alg.name(),
        opts.bits,
        opts.instances,
        opts.per_instance,
        est
    );
    if let Some((label, p)) = prediction {
        out.push_str(&format!("prediction:  {p:.6e} ({label})\n"));
    }
    if diag.exhausted_trials > 0 {
        out.push_str(&format!(
            "warning:     {} trials exhausted the generator\n",
            diag.exhausted_trials
        ));
    }
    Ok(out)
}

/// Options for `uuidp plan`.
#[derive(Debug, Clone)]
pub struct PlanOpts {
    /// `random` or `cluster`.
    pub scheme: String,
    /// Collision budget, e.g. `1e-6`.
    pub budget: f64,
    /// Fleet size.
    pub instances: u128,
    /// ID width in bits.
    pub bits: u32,
}

/// Runs `uuidp plan`.
pub fn plan(opts: &PlanOpts) -> Result<String, ParseError> {
    let scheme = match opts.scheme.to_ascii_lowercase().as_str() {
        "random" => Scheme::Random,
        "cluster" => Scheme::Cluster,
        other => {
            return Err(ParseError(format!(
                "unknown scheme `{other}` (random | cluster)"
            )))
        }
    };
    if !(opts.budget > 0.0 && opts.budget < 1.0) {
        return Err(ParseError("budget must be in (0, 1)".into()));
    }
    if opts.instances == 0 {
        return Err(ParseError("--instances must be at least 1".into()));
    }
    if !(1..=192).contains(&opts.bits) {
        return Err(ParseError("--bits must be in 1..=192".into()));
    }
    let d = planning::safe_demand(scheme, opts.budget, opts.instances, opts.bits);
    let advantage = planning::cluster_advantage(opts.budget, opts.instances, opts.bits);
    Ok(format!(
        "scheme:      {:?}\nbudget:      {:.1e}\nfleet:       {} instances\nIDs:         {} bits\n\
         safe demand: ~2^{:.1} total IDs\ncluster advantage at this point: {:.1e}×\n",
        scheme,
        opts.budget,
        opts.instances,
        opts.bits,
        d.log2(),
        advantage
    ))
}

/// Options for `uuidp diagram`.
#[derive(Debug, Clone)]
pub struct DiagramOpts {
    /// Algorithm spec.
    pub algorithm: String,
    /// Universe size (not bits — diagrams are figure-sized).
    pub m: u128,
    /// Requests to draw.
    pub requests: u128,
    /// Seed; `None` searches for one whose layout serves all requests.
    pub seed: Option<u64>,
}

/// Runs `uuidp diagram`.
pub fn diagram(opts: &DiagramOpts) -> Result<String, ParseError> {
    if opts.m > 1 << 14 {
        return Err(ParseError("diagrams are for m ≤ 2^14".into()));
    }
    let space = IdSpace::new(opts.m).map_err(|e| ParseError(format!("bad -m: {e}")))?;
    let alg = parse_algorithm_kind(&opts.algorithm, space)?.build(space);
    let seed = match opts.seed {
        Some(s) => s,
        None => (0..1000)
            .find(|&s| alg.spawn(s).skip(opts.requests).is_ok())
            .ok_or_else(|| {
                ParseError(format!(
                    "no seed serves {} requests on m = {}",
                    opts.requests, opts.m
                ))
            })?,
    };
    let mut gen = alg.spawn(seed);
    Ok(render_captioned(
        &alg.name(),
        gen.as_mut(),
        opts.requests,
        opts.m.min(64) as usize,
    ))
}

/// Options for `uuidp serve`.
#[derive(Debug, Clone)]
pub struct ServeOpts {
    /// Algorithm spec.
    pub algorithm: String,
    /// Universe width in bits.
    pub bits: u32,
    /// Worker shards.
    pub shards: usize,
    /// Audit stripes.
    pub audit_stripes: usize,
    /// Audit pipeline threads.
    pub audit_threads: usize,
    /// Master seed for the per-tenant seed tree.
    pub seed: u64,
    /// When set, serve wire protocol v2 over TCP on this address (e.g.
    /// `127.0.0.1:7821`; port 0 binds an ephemeral port) instead of the
    /// stdin REPL.
    pub listen: Option<String>,
    /// Expose the metric registry for scraping (v2 metrics and timeline
    /// frames). Only meaningful with `--listen`.
    pub metrics: bool,
}

/// Runs `uuidp serve`: the sharded batch-leasing service, driven by the
/// stdin REPL (see [`uuidp_service::protocol`]) by default, or fronted
/// by a protocol-v2 TCP listener with `--listen`:
///
/// ```text
/// <tenant> <count>    lease `count` IDs for `tenant`, print the arcs
/// reset <tenant>      recycle the tenant's generator (new epoch)
/// drain               block until all prior requests are processed
/// metrics             print the registry's text exposition
/// quit | shutdown     stop (EOF works too)
/// ```
///
/// Writes one reply line per command to `out` and returns the shutdown
/// summary (issued totals plus the online audit's findings). In
/// `--listen` mode the bound address is announced on `out` and the call
/// blocks until a `uuidp_client::Client` sends `shutdown`.
pub fn serve(
    opts: &ServeOpts,
    input: &mut dyn std::io::BufRead,
    out: &mut dyn std::io::Write,
) -> Result<String, ParseError> {
    let space =
        IdSpace::with_bits(opts.bits).map_err(|e| ParseError(format!("bad --bits: {e}")))?;
    let kind = parse_algorithm_kind(&opts.algorithm, space)?;
    if opts.metrics && opts.listen.is_none() {
        return Err(ParseError(
            "--metrics only applies with --listen (stdin serve has no scrape surface)".into(),
        ));
    }
    let mut config = ServiceConfig::new(kind, space);
    config.shards = opts.shards.max(1);
    config.audit_stripes = opts.audit_stripes.max(1);
    config.audit_threads = opts.audit_threads.max(1);
    config.master_seed = opts.seed;
    let io_err = |e: std::io::Error| ParseError(format!("i/o error: {e}"));

    if let Some(addr) = &opts.listen {
        let options = ServerOptions {
            metrics: opts.metrics,
        };
        let server = TcpServer::bind_with(addr, config, options)
            .map_err(|e| ParseError(format!("bind {addr}: {e}")))?;
        writeln!(out, "listening on {}", server.local_addr()).map_err(io_err)?;
        if opts.metrics {
            writeln!(out, "metrics exposition enabled (v2 metrics frames)").map_err(io_err)?;
        }
        out.flush().map_err(io_err)?;
        let report = server
            .join()
            .ok_or_else(|| ParseError("server exited without a shutdown report".into()))?;
        return Ok(serve_summary(&report));
    }

    let service = IdService::start(config);
    let mut line = String::new();
    loop {
        line.clear();
        if input.read_line(&mut line).map_err(io_err)? == 0 {
            break; // EOF
        }
        // A tenant id must fit under the audit owner key: the service
        // panics its caller on a wider one, so refuse it here.
        let command = Command::parse(&line).and_then(|command| match command {
            Some(Command::Lease { tenant, .. } | Command::Reset { tenant }) => {
                check_tenant(tenant).map(|()| command)
            }
            _ => Ok(command),
        });
        match command {
            Err(msg) => writeln!(out, "error: {msg}").map_err(io_err)?,
            Ok(None) => continue,
            // Process-local: the service stops with this loop either way.
            Ok(Some(Command::Quit | Command::Shutdown)) => break,
            Ok(Some(Command::Drain)) => {
                service.drain();
                writeln!(out, "drained").map_err(io_err)?;
            }
            Ok(Some(Command::Reset { tenant })) => {
                service.reset_tenant(tenant);
                writeln!(out, "reset tenant={tenant}").map_err(io_err)?;
            }
            Ok(Some(Command::Lease { tenant, count })) => {
                let reply = service.lease(tenant, count);
                writeln!(out, "{}", render_lease(&reply)).map_err(io_err)?;
            }
            // Always answered on stdin: `--metrics` gates the *network*
            // scrape surface, and a local pipe needs no such gate.
            Ok(Some(Command::Metrics)) => {
                write!(out, "{}", service.registry().snapshot().render_prometheus())
                    .map_err(io_err)?;
                writeln!(out, "# EOF").map_err(io_err)?;
            }
        }
    }
    Ok(serve_summary(&service.shutdown()))
}

/// The human-readable `uuidp serve` shutdown block.
fn serve_summary(report: &ServiceReport) -> String {
    format!(
        "served:      {} leases, {} IDs\nerrors:      {}\n\
         audit:       {} duplicate IDs across {} flagged leases{}\n",
        report.leases,
        report.issued_ids,
        report.errors,
        report.audit.counts.duplicate_ids,
        report.audit.counts.flagged_records,
        if report.audit.counts.collided() {
            "  ** CROSS-TENANT COLLISION **"
        } else {
            ""
        }
    )
}

/// Options for `uuidp stress`.
#[derive(Debug, Clone)]
pub struct StressOpts {
    /// Algorithm spec.
    pub algorithm: String,
    /// Universe width in bits.
    pub bits: u32,
    /// Worker shards.
    pub shards: usize,
    /// Tenants generating load.
    pub tenants: u64,
    /// Lease requests to submit.
    pub requests: u64,
    /// IDs per lease.
    pub count: u128,
    /// Traffic mix (`uniform | skewed | flood | hunter`).
    pub mix: String,
    /// Audit stripes.
    pub audit_stripes: usize,
    /// Audit pipeline threads.
    pub audit_threads: usize,
    /// Master seed.
    pub seed: u64,
    /// Replay over a loopback TCP server through the real socket client
    /// instead of in-process channels.
    pub remote: bool,
    /// Lease threads of the one-node fleet a `--remote` run drives,
    /// each serving the tenants `t % remote_workers`: they share one
    /// persistent connection, or dial one each under chaos.
    pub remote_workers: usize,
    /// Chaos spec for `--remote` runs: a deterministic fault-injecting
    /// proxy sits between the lease threads and the node (see
    /// `uuidp_netchaos::ChaosSpec` for the grammar, e.g.
    /// `small` or `heavy,latency_us:200`).
    pub chaos: Option<String>,
    /// Seed for the chaos fault schedule; the same seed reproduces the
    /// identical schedule bit for bit.
    pub chaos_seed: u64,
    /// Scrape the node's registry once per time-series window
    /// (`--remote` only); a scrape without a required family, or a
    /// counter that goes backwards, fails the run.
    pub scrape: bool,
}

impl StressOpts {
    /// The CI smoke preset behind `uuidp stress --trials-small`: small
    /// enough for a debug-build smoke run, still multi-shard and mixed.
    pub fn trials_small(algorithm: &str) -> Self {
        StressOpts {
            algorithm: algorithm.to_string(),
            bits: 48,
            shards: 2,
            tenants: 8,
            requests: 2_000,
            count: 64,
            mix: "uniform".into(),
            audit_stripes: 8,
            audit_threads: 1,
            seed: 0x57E5,
            remote: false,
            remote_workers: 1,
            chaos: None,
            chaos_seed: 0,
            scrape: false,
        }
    }
}

/// Runs `uuidp stress`: the requested traffic phase, then a mandatory
/// *injected-collision* validation phase (two tenants share one seed) —
/// if the online audit misses the injected duplicates, the command
/// fails. This is the zero-false-negative gate the CI smoke run relies
/// on.
pub fn stress(opts: &StressOpts) -> Result<String, ParseError> {
    let space =
        IdSpace::with_bits(opts.bits).map_err(|e| ParseError(format!("bad --bits: {e}")))?;
    let kind = parse_algorithm_kind(&opts.algorithm, space)?;
    let mix = TrafficMix::parse(&opts.mix).map_err(ParseError)?;
    let mut service = ServiceConfig::new(kind, space);
    service.shards = opts.shards.max(1);
    service.audit_stripes = opts.audit_stripes.max(1);
    service.audit_threads = opts.audit_threads.max(1);
    service.master_seed = opts.seed;

    // Both the main phase and the injected-collision validation phase go
    // through the selected transport, so `--remote` exercises the whole
    // socket path end to end: a one-node fleet with `--remote-workers`
    // lease threads.
    let run = |cfg: StressConfig, chaos: Option<ChaosSpec>| -> Result<StressReport, ParseError> {
        if !opts.remote {
            return Ok(run_stress(cfg));
        }
        let mut wire = FleetConfig::one_node(cfg);
        wire.workers = opts.remote_workers;
        wire.chaos = chaos;
        wire.chaos_seed = opts.chaos_seed;
        wire.scrape = opts.scrape;
        run_stress_remote(wire).map_err(|e| ParseError(format!("remote stress: {e}")))
    };

    if opts.remote_workers == 0 {
        return Err(ParseError(
            "--remote-workers must be at least 1 (a pool of zero workers would hang)".into(),
        ));
    }
    if opts.remote_workers > 1 && !opts.remote {
        return Err(ParseError(
            "--remote-workers only applies with --remote (the in-process path has no connections to pool)"
                .into(),
        ));
    }
    let chaos = match &opts.chaos {
        None => None,
        Some(s) => Some(ChaosSpec::parse(s).map_err(|e| ParseError(format!("bad --chaos: {e}")))?),
    };
    if chaos.is_some() && !opts.remote {
        return Err(ParseError(
            "--chaos only applies with --remote (the in-process path has no network to break)"
                .into(),
        ));
    }
    if opts.scrape && !opts.remote {
        return Err(ParseError(
            "--scrape only applies with --remote (the in-process path has no wire to scrape)"
                .into(),
        ));
    }
    if opts.remote {
        check_wire_count(mix, opts.count)?;
    }
    let mut cfg = StressConfig::new(
        service,
        tenant_count(opts.tenants)?,
        opts.requests,
        opts.count,
    );
    cfg.mix = mix;
    let mut transport = if !opts.remote {
        String::new()
    } else if opts.remote_workers > 1 && chaos.is_none() {
        format!(
            " (loopback TCP transport, {} workers multiplexing one connection)",
            opts.remote_workers
        )
    } else {
        " (loopback TCP transport)".into()
    };
    if let Some(spec) = &chaos {
        transport.push_str(&format!(" [chaos `{spec}` seed {:#x}]", opts.chaos_seed));
    }
    let main = run(cfg.clone(), chaos)?;
    let mut out = format!(
        "# stress: {} over m = 2^{}{}\n\n{}",
        opts.algorithm,
        opts.bits,
        transport,
        main.render()
    );

    let gate = TwinGate::new(cfg.tenants, cfg.requests, cfg.count);
    let mut check = cfg;
    check.mix = TrafficMix::Uniform;
    (check.tenants, check.requests, check.count) = (TwinGate::TENANTS, gate.requests(), gate.count);
    check.service.seed_alias = Some((0, 1));
    // The twin-stream count is exact only on a clean network: a dropped
    // or truncated request would shorten one twin's stream and turn the
    // gate into noise, so validation always runs chaos-free.
    let injected = run(check, None)?;
    out.push_str(&gate.check(
        "audit validation (injected same-seed twin tenants)",
        injected.audit.counts.duplicate_ids,
        injected.errors,
        "",
    )?);
    Ok(out)
}

/// Refuses a `--count` whose largest lease over the wire is above
/// [`MAX_LEASE_COUNT`]: the larger of the mix's largest lease and the
/// twin phase's `count`-ID leases.
fn check_wire_count(mix: TrafficMix, count: u128) -> Result<(), ParseError> {
    let largest = mix.largest_lease(count).max(count);
    if largest > MAX_LEASE_COUNT {
        return Err(ParseError(format!(
            "--count {count} asks for leases of {largest} IDs under the {mix} mix, \
             above the wire's cap of {MAX_LEASE_COUNT} IDs per lease"
        )));
    }
    Ok(())
}

/// `--tenants`, at least 1 and at most 2^[`TENANT_BITS`] (tenant ids
/// must stay below that to fit an audit owner key).
fn tenant_count(tenants: u64) -> Result<u64, ParseError> {
    if tenants > 1 << TENANT_BITS {
        return Err(ParseError(format!(
            "--tenants {tenants} is above 2^{TENANT_BITS} (tenant ids must stay below 2^{TENANT_BITS})"
        )));
    }
    Ok(tenants.max(1))
}

/// The injected-twin phase `stress` and `fleet` both end with: only
/// tenants 0 and 1 lease, sharing a seed, in uniform rotation,
/// `per_twin` leases each of `count` IDs, so the later-audited twin's
/// whole stream duplicates the other's, and no other duplicate can
/// occur.
struct TwinGate {
    per_twin: u64,
    count: u128,
}

impl TwinGate {
    /// The tenants the phase leases: the twins 0 and 1.
    const TENANTS: u64 = 2;

    /// The phase for a run of `requests` leases of `count` IDs over
    /// `tenants`. Each twin leases as often as a tenant of a rotation of
    /// at most 512 leases over at most 512 tenants would, and at least
    /// one ID per lease, or the gate would pass with nothing injected.
    fn new(tenants: u64, requests: u64, count: u128) -> TwinGate {
        TwinGate {
            per_twin: (requests.clamp(16, 512) / tenants.clamp(2, 512)).max(1),
            count: count.max(1),
        }
    }

    /// Leases the phase submits.
    fn requests(&self) -> u64 {
        Self::TENANTS * self.per_twin
    }

    /// The phase's report section, with `note` under the duplicate
    /// count; an error when the audit counted other than the
    /// `per_twin × count` injected duplicate IDs.
    fn check(
        &self,
        title: &str,
        detected: u128,
        errors: u64,
        note: &str,
    ) -> Result<String, ParseError> {
        // The exact count holds only when no generator exhausted: a
        // partial grant shortens the twin streams by an amount the
        // aggregate report cannot attribute per tenant, so fall back to
        // requiring detection.
        let (expected, bound) = match errors {
            0 => ((self.per_twin as u128).saturating_mul(self.count), ""),
            _ => (1, " (lower bound: generators exhausted mid-phase)"),
        };
        if detected < expected {
            return Err(ParseError(format!(
                "audit false negative: {detected} duplicate IDs detected, {expected} injected"
            )));
        }
        if errors == 0 && detected > expected {
            return Err(ParseError(format!(
                "audit over-count: {detected} duplicate IDs detected, {expected} injected"
            )));
        }
        Ok(format!(
            "\n# {title}\n\nduplicates:  {detected} detected, {expected} injected{bound}\n{note}\
             validation:  ok (no audit false negatives)\n"
        ))
    }
}

/// Options for `uuidp fleet`.
#[derive(Debug, Clone)]
pub struct FleetOpts {
    /// Algorithm spec (must be snapshot-capable for durability).
    pub algorithm: String,
    /// Universe width in bits.
    pub bits: u32,
    /// Nodes in the fleet.
    pub nodes: usize,
    /// Tenants generating load (pinned to nodes).
    pub tenants: u64,
    /// Lease requests to route through the fleet.
    pub requests: u64,
    /// IDs per lease.
    pub count: u128,
    /// The request schedule's mix (`uniform | skewed | flood | hunter`);
    /// tenants are node-pinned, so this is also the cross-node placement.
    pub placement: String,
    /// Worker shards per node.
    pub shards: usize,
    /// Audit stripes (per node and for the global audit).
    pub audit_stripes: usize,
    /// Audit pipeline threads per node.
    pub audit_threads: usize,
    /// Master seed (shared by every node: tenant streams must not
    /// depend on which node serves them).
    pub seed: u64,
    /// Chaos mode: crash-restart a random node every K requests.
    pub kill_every: Option<u64>,
    /// Write-ahead reservation window per persist (with `kill_every`).
    pub reservation: u128,
    /// Durable state root for `kill_every` runs; a per-run temp
    /// directory (cleaned up afterwards) when unset. Without
    /// `kill_every` the nodes keep no state, and setting it is refused.
    pub state_dir: Option<String>,
    /// Chaos spec: every node gets its own deterministic fault-injecting
    /// proxy derived from `--chaos-seed` (see `uuidp_netchaos::ChaosSpec`
    /// for the grammar). Composes with `--kill-every`.
    pub chaos: Option<String>,
    /// Seed for the per-node chaos fault schedules.
    pub chaos_seed: u64,
    /// Scrape every node's metric registry over the wire once per
    /// time-series window and once at the end; a scrape without a
    /// required family, or a counter that goes backwards on one node
    /// incarnation, fails the run.
    pub scrape: bool,
}

impl FleetOpts {
    /// The CI smoke preset behind `uuidp fleet --trials-small`.
    pub fn trials_small(algorithm: &str) -> Self {
        FleetOpts {
            algorithm: algorithm.to_string(),
            bits: 48,
            nodes: 3,
            tenants: 6,
            requests: 600,
            count: 32,
            placement: "uniform".into(),
            shards: 2,
            audit_stripes: 8,
            audit_threads: 1,
            seed: 0xF1EE7,
            kill_every: None,
            reservation: 256,
            state_dir: None,
            chaos: None,
            chaos_seed: 0,
            scrape: false,
        }
    }
}

/// Runs `uuidp fleet`: the requested multi-node scenario, then a
/// mandatory *cross-node twin* validation phase — two same-seed tenants
/// pinned to different nodes, invisible to every node-local audit, that
/// the router's global audit must count exactly. Both phases hard-fail
/// if a recovered node ever re-emits one of its own pre-crash IDs.
pub fn fleet(opts: &FleetOpts) -> Result<String, ParseError> {
    let space =
        IdSpace::with_bits(opts.bits).map_err(|e| ParseError(format!("bad --bits: {e}")))?;
    let kind = parse_algorithm_kind(&opts.algorithm, space)?;
    let placement = TrafficMix::parse(&opts.placement).map_err(ParseError)?;
    if opts.kill_every == Some(0) {
        return Err(ParseError(
            "--kill-every must be at least 1 (omit the flag to disable chaos)".into(),
        ));
    }
    if opts.state_dir.is_some() && opts.kill_every.is_none() {
        return Err(ParseError(
            "--state-dir only applies with --kill-every (a fleet that never restarts keeps no state)"
                .into(),
        ));
    }
    check_wire_count(placement, opts.count)?;
    // The ephemeral root must be unique per *invocation*, not just per
    // (pid, seed): concurrent runs in one process (e.g. the test
    // harness) would otherwise share and then delete each other's
    // node state mid-run.
    static FLEET_RUN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let (state_root, ephemeral) = match &opts.state_dir {
        Some(dir) => (std::path::PathBuf::from(dir), false),
        None => (
            std::env::temp_dir().join(format!(
                "uuidp-fleet-{}-{:x}-{}",
                std::process::id(),
                opts.seed,
                FLEET_RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            )),
            true,
        ),
    };
    let result = fleet_phases(opts, kind, space, placement, &state_root);
    if ephemeral {
        let _ = std::fs::remove_dir_all(&state_root);
    }
    result
}

fn fleet_phases(
    opts: &FleetOpts,
    kind: AlgorithmKind,
    space: IdSpace,
    placement: TrafficMix,
    state_root: &std::path::Path,
) -> Result<String, ParseError> {
    let mut service = ServiceConfig::new(kind, space);
    service.shards = opts.shards.max(1);
    service.audit_stripes = opts.audit_stripes.max(1);
    service.audit_threads = opts.audit_threads.max(1);
    service.master_seed = opts.seed;

    let run = |mut cfg: FleetConfig, tag: &str| -> Result<FleetReport, ParseError> {
        cfg.state_dir = state_root.join(tag);
        let report = run_fleet(cfg).map_err(|e| ParseError(format!("fleet {tag} phase: {e}")))?;
        // The crash-safety gate applies to every phase: a recovered
        // node's tenants must never repeat their own pre-crash IDs.
        if report.recovered_duplicate_ids > 0 {
            return Err(ParseError(format!(
                "recovered nodes re-emitted {} IDs (crash recovery is broken)",
                report.recovered_duplicate_ids
            )));
        }
        Ok(report)
    };

    let mut cfg = FleetConfig::new(service.clone(), opts.nodes.max(1), state_root);
    cfg.tenants = tenant_count(opts.tenants)?;
    cfg.requests = opts.requests;
    cfg.count = opts.count;
    cfg.placement = placement;
    cfg.kill_every = opts.kill_every;
    cfg.reservation = opts.reservation.max(1);
    cfg.chaos = match &opts.chaos {
        None => None,
        Some(s) => Some(ChaosSpec::parse(s).map_err(|e| ParseError(format!("bad --chaos: {e}")))?),
    };
    cfg.chaos_seed = opts.chaos_seed;
    cfg.scrape = opts.scrape;
    let main = run(cfg.clone(), "main")?;
    let mut out = format!(
        "# fleet: {} over m = 2^{}, {} nodes{}{}\n\n{}",
        opts.algorithm,
        opts.bits,
        opts.nodes,
        match opts.kill_every {
            Some(k) => format!(" (chaos: kill every {k} requests)"),
            None => String::new(),
        },
        match &opts.chaos {
            Some(s) => format!(" [chaos `{s}` seed {:#x}]", opts.chaos_seed),
            None => String::new(),
        },
        main.render()
    );

    // With ≥ 2 nodes the twins live on *different* nodes, so only the
    // global audit can see their duplicates. No chaos, so the twin
    // streams stay aligned and the expected count is exact.
    let gate = TwinGate::new(cfg.tenants, cfg.requests, cfg.count);
    let mut check = cfg;
    check.placement = TrafficMix::Uniform;
    check.kill_every = None;
    check.chaos = None;
    (check.tenants, check.requests, check.count) = (TwinGate::TENANTS, gate.requests(), gate.count);
    check.service.seed_alias = Some((0, 1));
    let injected = run(check, "validate")?;
    out.push_str(&gate.check(
        "global audit validation (same-seed twins across nodes)",
        injected.cross_tenant_duplicate_ids,
        injected.errors,
        &format!(
            "node-local:  {} (cross-node duplicates are invisible to node audits)\n",
            injected.merged_nodes.counts.duplicate_ids
        ),
    )?);
    Ok(out)
}

/// Options for `uuidp top`.
#[derive(Debug, Clone)]
pub struct TopOpts {
    /// Comma-separated node addresses to watch (`HOST:PORT[,HOST:PORT...]`).
    pub connect: String,
    /// Universe width in bits (must match the servers').
    pub bits: u32,
    /// Milliseconds between polls (one time-series window per poll).
    pub interval_ms: u64,
    /// Take exactly two polls one interval apart and emit one
    /// machine-readable JSON snapshot instead of the live dashboard.
    pub once: bool,
    /// Ring capacity: polls of history each node's series retains.
    pub windows: usize,
}

/// One watched node: a metrics session (one persistent connection,
/// redialed after any failure), its windowed series, and its burn-rate
/// evaluator.
struct TopNode {
    label: String,
    session: Session,
    series: uuidp_obs::TimeSeries,
    alerts: uuidp_obs::BurnRateAlerts,
    last: Option<uuidp_obs::Snapshot>,
}

impl TopNode {
    fn new(addr: std::net::SocketAddr, space: IdSpace, windows: usize) -> TopNode {
        let options = ClientOptions::bounded(Some(std::time::Duration::from_secs(2)));
        TopNode {
            label: addr.to_string(),
            session: Session::new(addr, space, options, RetryPolicy::none()),
            series: uuidp_obs::TimeSeries::new(windows.max(2)),
            alerts: uuidp_obs::BurnRateAlerts::new(vec![uuidp_obs::AlertRule::availability()]),
            last: None,
        }
    }

    /// One poll: scrape, ingest at `tick`, feed the alert evaluator
    /// with the window's `(lease errors, leases)` delta. A failed
    /// scrape drops the connection (redialed next tick), marks the
    /// node down, and counts — it never kills the dashboard.
    fn poll(&mut self, tick: u64) {
        if let Ok(text) = self.session.call(|c| c.metrics()) {
            let snap = uuidp_obs::Snapshot::parse_prometheus(&text);
            self.series.ingest(tick, &snap);
            let bad = self.window_counter(tick, "uuidp_lease_errors_total");
            let total = self.window_counter(tick, "uuidp_leases_total");
            self.alerts.observe(bad, total);
            self.last = Some(snap);
        }
    }

    /// Whether the latest poll succeeded.
    fn healthy(&self) -> bool {
        self.last.is_some() && self.session.failure_streak() == 0
    }

    fn window_counter(&self, tick: u64, family: &str) -> u64 {
        self.series.window_at(tick).map_or(0, |w| w.counter(family))
    }

    fn cumulative(&self, family: &str) -> f64 {
        self.last
            .as_ref()
            .and_then(|s| s.scalar(family))
            .unwrap_or(0.0)
    }

    /// The display row, with per-tick rates scaled to per-second.
    fn stats(&self, per_sec: f64) -> TopRow {
        let q = |q: f64| {
            self.series
                .quantile_ns("uuidp_lease_latency_ns", 8, q)
                .unwrap_or(0.0)
        };
        TopRow {
            label: self.label.clone(),
            healthy: self.healthy(),
            ids_per_sec: self.series.rate("uuidp_ids_issued_total", 1) * per_sec,
            p50_ns: q(0.50),
            p99_ns: q(0.99),
            p999_ns: q(0.999),
            audit_backlog: (self.cumulative("uuidp_leases_total")
                - self.cumulative("uuidp_audit_records_total")) as i64,
            wakeups_per_sec: self.series.rate("uuidp_net_wakeups_total", 1) * per_sec,
            alerts: self.alerts.firing_rules(),
            spark: self.series.sparkline("uuidp_ids_issued_total", 32),
            scrape_errors: self.session.faults().failed_attempts(),
        }
    }
}

/// One rendered dashboard row (pure data, so the renderers are unit
/// testable without sockets).
struct TopRow {
    label: String,
    healthy: bool,
    ids_per_sec: f64,
    p50_ns: f64,
    p99_ns: f64,
    p999_ns: f64,
    audit_backlog: i64,
    wakeups_per_sec: f64,
    alerts: Vec<&'static str>,
    spark: String,
    scrape_errors: u64,
}

/// The live dashboard frame: plain ANSI (clear + home is prepended by
/// the loop, not baked in here), fixed columns, one sparkline of
/// issue-rate history per node.
fn render_top_frame(rows: &[TopRow], tick: u64, interval_ms: u64) -> String {
    let mut out = format!(
        "uuidp top — {} node{}, {} ms interval, tick {}  (q + Enter quits)\n\n\
         {:<22} {:>10} {:>9} {:>9} {:>9} {:>9} {:>10}  {:<6} alerts\n",
        rows.len(),
        if rows.len() == 1 { "" } else { "s" },
        interval_ms,
        tick,
        "node",
        "ids/s",
        "p50 us",
        "p99 us",
        "p999 us",
        "backlog",
        "wakeups/s",
        "health",
    );
    for row in rows {
        let alerts = if row.alerts.is_empty() {
            "none".to_string()
        } else {
            row.alerts.join(",")
        };
        let _ = writeln!(
            out,
            "{:<22} {:>10.0} {:>9.1} {:>9.1} {:>9.1} {:>9} {:>10.0}  {:<6} {}",
            row.label,
            row.ids_per_sec,
            row.p50_ns / 1e3,
            row.p99_ns / 1e3,
            row.p999_ns / 1e3,
            row.audit_backlog,
            row.wakeups_per_sec,
            if row.healthy { "up" } else { "DOWN" },
            alerts,
        );
        let _ = writeln!(out, "{:<22} ids/s {}", "", row.spark);
    }
    out
}

/// The `--once` snapshot: one JSON object per run, hand-assembled (the
/// repo takes no serialization dependency) and stable enough for CI to
/// grep `"ids_per_sec":`.
fn render_top_json(rows: &[TopRow], interval_ms: u64) -> String {
    let mut out = format!("{{\"interval_ms\":{interval_ms},\"nodes\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let alerts: Vec<String> = row.alerts.iter().map(|a| format!("\"{a}\"")).collect();
        let _ = write!(
            out,
            "{{\"addr\":\"{}\",\"healthy\":{},\"ids_per_sec\":{:.3},\
             \"p50_ns\":{:.0},\"p99_ns\":{:.0},\"p999_ns\":{:.0},\
             \"audit_backlog\":{},\"wakeups_per_sec\":{:.3},\
             \"scrape_errors\":{},\"alerts\":[{}]}}",
            row.label,
            row.healthy,
            row.ids_per_sec,
            row.p50_ns,
            row.p99_ns,
            row.p999_ns,
            row.audit_backlog,
            row.wakeups_per_sec,
            row.scrape_errors,
            alerts.join(","),
        );
    }
    out.push_str("]}\n");
    out
}

/// Runs `uuidp top`: a live plain-ANSI dashboard over one or more
/// node addresses — per-node issue rate, windowed latency quantiles,
/// audit backlog, reactor wakeups, health, firing burn-rate alerts,
/// and an issue-rate sparkline — polling every `--interval-ms`. With
/// `--once`, takes two polls one interval apart and returns a single
/// machine-readable JSON snapshot (the CI smoke path). Works against
/// `uuidp serve --listen --metrics`, `uuidp stress --remote --scrape`
/// servers, and fleet nodes alike: anything that answers a v2 metrics
/// frame.
pub fn top(opts: &TopOpts) -> Result<String, ParseError> {
    let space =
        IdSpace::with_bits(opts.bits).map_err(|e| ParseError(format!("bad --bits: {e}")))?;
    let interval_ms = opts.interval_ms.max(10);
    let per_sec = 1000.0 / interval_ms as f64;
    let mut nodes: Vec<TopNode> = Vec::new();
    for part in opts.connect.split(',').filter(|s| !s.trim().is_empty()) {
        let addr = part
            .trim()
            .parse()
            .map_err(|e| ParseError(format!("bad --connect address `{part}`: {e}")))?;
        nodes.push(TopNode::new(addr, space, opts.windows.max(2)));
    }
    if nodes.is_empty() {
        return Err(ParseError("--connect needs at least one HOST:PORT".into()));
    }
    if opts.once {
        // Two polls bracket one interval, so every rate has a delta.
        for tick in 0..2u64 {
            for node in &mut nodes {
                node.poll(tick);
            }
            if tick == 0 {
                std::thread::sleep(std::time::Duration::from_millis(interval_ms));
            }
        }
        let rows: Vec<TopRow> = nodes.iter().map(|n| n.stats(per_sec)).collect();
        return Ok(render_top_json(&rows, interval_ms));
    }
    // Live mode: a line-buffered stdin reader feeds the quit channel
    // (plain `q` + Enter — no raw-mode dependency), while the main
    // thread polls, clears, and redraws.
    let (quit_tx, quit_rx) = std::sync::mpsc::channel::<()>();
    std::thread::spawn(move || {
        let mut line = String::new();
        loop {
            line.clear();
            match std::io::stdin().read_line(&mut line) {
                Ok(0) | Err(_) => break, // EOF: fall back to Ctrl-C
                Ok(_) if line.trim() == "q" => {
                    let _ = quit_tx.send(());
                    break;
                }
                Ok(_) => {}
            }
        }
    });
    let mut out = std::io::stdout();
    let mut tick = 0u64;
    loop {
        for node in &mut nodes {
            node.poll(tick);
        }
        let rows: Vec<TopRow> = nodes.iter().map(|n| n.stats(per_sec)).collect();
        let frame = render_top_frame(&rows, tick, interval_ms);
        let _ = std::io::Write::write_all(&mut out, format!("\x1b[2J\x1b[H{frame}").as_bytes());
        let _ = std::io::Write::flush(&mut out);
        match quit_rx.recv_timeout(std::time::Duration::from_millis(interval_ms)) {
            Ok(()) => break,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                // Reader died (EOF); keep running on the timer alone.
                std::thread::sleep(std::time::Duration::from_millis(interval_ms));
            }
        }
        tick += 1;
    }
    Ok(String::new())
}

fn entropy_seed() -> u64 {
    // OS entropy via rand, folded through SplitMix64. Keeps the CLI's
    // default mode non-deterministic while --seed stays reproducible.
    let mut bytes = [0u8; 8];
    rand::rng().fill_bytes(&mut bytes);
    SplitMix64::new(u64::from_le_bytes(bytes)).next_value()
}

// Re-export used by `generate`'s entropy path.
use rand::RngCore as _;

/// Quick self-check used by `uuidp doctor`: mints a few IDs with every
/// algorithm and verifies uniqueness within each instance.
pub fn doctor() -> Result<String, ParseError> {
    let space = IdSpace::with_bits(32).expect("32-bit space");
    let mut report = String::from("self-check over m = 2^32:\n");
    for spec in ["random", "cluster", "bins:1024", "cluster*", "bins*"] {
        let alg = parse_algorithm_kind(spec, space)?.build(space);
        let mut gen = alg.spawn(0xD0C);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let id = gen
                .next_id()
                .map_err(|e| ParseError(format!("{spec}: {e}")))?;
            if !seen.insert(id) {
                return Err(ParseError(format!("{spec}: duplicate ID {id}")));
            }
        }
        report.push_str(&format!(
            "  {:<12} ok (1000 IDs, all distinct)\n",
            alg.name()
        ));
    }
    // A tiny statistical check: two Cluster instances on a small universe
    // should collide at roughly the predicted rate.
    let small = IdSpace::new(1 << 16).expect("small space");
    let alg = AlgorithmKind::Cluster.build(small);
    let profile = DemandProfile::uniform(2, 64);
    let (est, _) = estimate_oblivious(alg.as_ref(), &profile, TrialConfig::new(20_000, 0xD0C));
    let exact = (64 + 64 - 1) as f64 / (1u128 << 16) as f64;
    if (est.p_hat - exact).abs() / exact > 0.5 {
        return Err(ParseError(format!(
            "statistical self-check failed: measured {} vs exact {exact}",
            est.p_hat
        )));
    }
    report.push_str("  statistics   ok (cluster pair probability matches Theorem 1)\n");
    Ok(report)
}

/// A lightweight RNG sanity utility for `doctor` exposure in tests.
pub fn rng_smoke() -> bool {
    let mut rng = Xoshiro256pp::new(1);
    let a = rng.next_value();
    let b = rng.next_value();
    a != b
}

#[cfg(test)]
mod tests {
    use super::*;
    use uuidp_client::Client;

    #[test]
    fn generate_mints_the_requested_count() {
        let opts = GenerateOpts {
            algorithm: "cluster".into(),
            bits: 64,
            count: 5,
            seed: Some(1),
            format: IdFormat::Hex,
        };
        let out = generate(&opts).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines.iter().all(|l| l.starts_with("0x")));
        // Reproducible with the same seed.
        assert_eq!(out, generate(&opts).unwrap());
    }

    #[test]
    fn generate_without_seed_differs_between_calls() {
        let opts = GenerateOpts {
            algorithm: "random".into(),
            bits: 64,
            count: 3,
            seed: None,
            format: IdFormat::Dec,
        };
        let a = generate(&opts).unwrap();
        let b = generate(&opts).unwrap();
        assert_ne!(a, b, "entropy-seeded runs should differ");
    }

    #[test]
    fn generate_reports_exhaustion() {
        let opts = GenerateOpts {
            algorithm: "random".into(),
            bits: 2,
            count: 10,
            seed: Some(1),
            format: IdFormat::Dec,
        };
        let err = generate(&opts).unwrap_err();
        assert!(err.0.contains("exhausted after 4"));
    }

    #[test]
    fn simulate_reports_measurement_and_prediction() {
        let opts = SimulateOpts {
            algorithm: "cluster".into(),
            bits: 16,
            instances: 4,
            per_instance: 64,
            trials: 5000,
            seed: 7,
        };
        let out = simulate(&opts).unwrap();
        assert!(out.contains("measured"));
        assert!(out.contains("prediction"));
        assert!(out.contains("Thm. 1"));
    }

    #[test]
    fn simulate_rejects_profiles_that_cannot_collide() {
        // One instance, or instances that draw nothing, is a typed
        // error before any trial runs.
        for (instances, per_instance) in [(1, 64), (2, 0)] {
            let opts = SimulateOpts {
                algorithm: "cluster".into(),
                bits: 16,
                instances,
                per_instance,
                trials: 10,
                seed: 7,
            };
            let err = simulate(&opts).unwrap_err();
            assert!(err.0.starts_with("need at least"), "{err}");
        }
    }

    #[test]
    fn plan_produces_the_headline_numbers() {
        let opts = PlanOpts {
            scheme: "cluster".into(),
            budget: 1e-6,
            instances: 1024,
            bits: 128,
        };
        let out = plan(&opts).unwrap();
        assert!(out.contains("safe demand: ~2^98")); // 128 − 20 − 10
        assert!(plan(&PlanOpts {
            scheme: "bogus".into(),
            ..opts
        })
        .is_err());
    }

    #[test]
    fn plan_refuses_a_fleet_or_width_out_of_range() {
        // `planning` asserts these ranges; the CLI must refuse them as
        // typed errors first, not panic.
        for (instances, bits, expected) in [
            (0, 64, "--instances"),
            (1024, 0, "--bits"),
            (1024, 300, "--bits"),
        ] {
            let err = plan(&PlanOpts {
                scheme: "cluster".into(),
                budget: 0.5,
                instances,
                bits,
            })
            .unwrap_err();
            assert!(err.0.contains(expected), "{instances} x {bits}: {}", err.0);
        }
    }

    #[test]
    fn diagram_renders_the_paper_figure_shape() {
        let opts = DiagramOpts {
            algorithm: "cluster".into(),
            m: 20,
            requests: 8,
            seed: None,
        };
        let out = diagram(&opts).unwrap();
        assert!(out.starts_with("cluster (m = 20, 8 requests)"));
        let marks = out
            .lines()
            .skip(1)
            .flat_map(|l| l.split_whitespace())
            .filter(|c| *c != "·")
            .count();
        assert_eq!(marks, 8);
    }

    #[test]
    fn doctor_passes() {
        let report = doctor().unwrap();
        assert!(report.contains("statistics   ok"));
        assert!(rng_smoke());
    }

    fn serve_opts(algorithm: &str, bits: u32) -> ServeOpts {
        ServeOpts {
            algorithm: algorithm.into(),
            bits,
            shards: 2,
            audit_stripes: 8,
            audit_threads: 1,
            seed: 9,
            listen: None,
            metrics: false,
        }
    }

    #[test]
    fn serve_leases_over_the_line_protocol() {
        let opts = serve_opts("cluster", 40);
        let script = b"0 5\n7 3\nreset 0\ndrain\n0 4\nbogus line here\nquit\n";
        let mut input = &script[..];
        let mut output = Vec::new();
        let summary = serve(&opts, &mut input, &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        assert_eq!(text.matches("lease tenant=0").count(), 2);
        assert!(text.contains("lease tenant=7 granted=3"));
        assert!(text.contains("reset tenant=0"));
        assert!(text.contains("drained"));
        assert!(text.contains("error:"));
        assert!(summary.contains("served:      3 leases, 12 IDs"));
        // Cluster leases are single arcs: `start+len`.
        assert!(text.contains("+5"), "arc rendering: {text}");
    }

    #[test]
    fn serve_refuses_a_tenant_above_the_owner_key_width() {
        let opts = serve_opts("cluster", 40);
        let script = b"1099511627776 5\nreset 1099511627776\n0 4\nquit\n";
        let mut input = &script[..];
        let mut output = Vec::new();
        let summary = serve(&opts, &mut input, &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        assert_eq!(text.matches("is not below 2^40").count(), 2, "{text}");
        assert!(text.contains("lease tenant=0 granted=4"), "{text}");
        assert!(
            summary.contains("served:      1 leases, 4 IDs"),
            "{summary}"
        );
    }

    /// A writer that, on seeing the `listening on ADDR` announcement,
    /// spawns a client thread to drive the TCP front-end and shut it
    /// down — which is what unblocks the `serve` call under test.
    struct ListenDriver {
        buf: Vec<u8>,
        client: Option<std::thread::JoinHandle<u128>>,
    }

    impl std::io::Write for ListenDriver {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.buf.extend_from_slice(data);
            if self.client.is_none() {
                if let Some(rest) = std::str::from_utf8(&self.buf)
                    .ok()
                    .and_then(|s| s.strip_prefix("listening on "))
                {
                    if let Some(addr) = rest.strip_suffix('\n') {
                        let addr: std::net::SocketAddr = addr.parse().expect("announced addr");
                        self.client = Some(std::thread::spawn(move || {
                            let space = IdSpace::with_bits(40).unwrap();
                            let client = Client::connect(addr, space).unwrap();
                            let granted = client.lease(5, 123).unwrap().granted;
                            client.shutdown().unwrap();
                            granted
                        }));
                    }
                }
            }
            Ok(data.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn serve_listen_fronts_the_service_over_tcp() {
        let opts = ServeOpts {
            listen: Some("127.0.0.1:0".into()),
            audit_threads: 2,
            ..serve_opts("cluster", 40)
        };
        let mut input = &b""[..];
        let mut driver = ListenDriver {
            buf: Vec::new(),
            client: None,
        };
        let summary = serve(&opts, &mut input, &mut driver).unwrap();
        let granted = driver
            .client
            .take()
            .expect("listen announcement never seen")
            .join()
            .unwrap();
        assert_eq!(granted, 123);
        assert!(
            summary.contains("served:      1 leases, 123 IDs"),
            "{summary}"
        );
    }

    #[test]
    fn stress_smoke_preset_validates_the_audit() {
        let opts = StressOpts {
            requests: 200,
            ..StressOpts::trials_small("bins*")
        };
        let out = stress(&opts).unwrap();
        assert!(out.contains("throughput"));
        assert!(out.contains("validation:  ok"));
    }

    #[test]
    fn stress_validation_survives_generator_exhaustion() {
        // Tiny universe, oversized leases: the validation twins exhaust
        // mid-phase. The gate must fall back to a detection lower bound
        // instead of reporting a spurious false negative.
        // 64 validation leases × 4096 IDs per twin exceed m = 2^16.
        let opts = StressOpts {
            bits: 16,
            count: 4096,
            ..StressOpts::trials_small("cluster")
        };
        let out = stress(&opts).unwrap();
        assert!(out.contains("lower bound"), "exhaustion fallback: {out}");
        assert!(out.contains("validation:  ok"));
    }

    #[test]
    fn stress_twin_gate_injects_at_least_one_id_per_lease() {
        // `--count 0` leases nothing in the main phase; the twins still
        // lease one ID per request, 200 / 8 = 25 each, so the gate has
        // duplicates to find instead of passing over none.
        let opts = StressOpts {
            requests: 200,
            count: 0,
            ..StressOpts::trials_small("cluster")
        };
        let out = stress(&opts).unwrap();
        assert!(out.contains("0 IDs issued"), "{out}");
        assert!(
            out.contains("duplicates:  25 detected, 25 injected"),
            "{out}"
        );
        assert!(out.contains("validation:  ok"), "{out}");
    }

    #[test]
    fn stress_clamps_zero_tenants_to_one() {
        let opts = StressOpts {
            requests: 200,
            tenants: 0,
            ..StressOpts::trials_small("cluster")
        };
        let out = stress(&opts).unwrap();
        assert!(out.contains("requests:    200 leases"), "{out}");
        assert!(out.contains("validation:  ok"), "{out}");
    }

    #[test]
    fn stress_rejects_tenants_above_the_owner_key_width() {
        let opts = StressOpts {
            requests: 16,
            tenants: (1 << TENANT_BITS) + 1,
            ..StressOpts::trials_small("cluster")
        };
        let err = stress(&opts).unwrap_err();
        assert!(err.0.contains("--tenants"), "{}", err.0);
    }

    #[test]
    fn twin_gate_spans_at_most_512_tenants() {
        assert!(TwinGate::new(200_000, 16, 8).requests() <= 512);
        assert!(TwinGate::new(1 << TENANT_BITS, 16, 8).requests() <= 512);
        // Only the twins lease, each as often as a tenant of the run's
        // rotation over up to 512 tenants.
        assert_eq!(TwinGate::new(8, 200, 1).requests(), 2 * 25);
        assert_eq!(TwinGate::new(512, 16, 1).requests(), 2);
    }

    #[test]
    fn stress_twin_gate_counts_only_the_twins() {
        // Random over 2^16 collides by chance; with every tenant leasing
        // in the phase, those collisions padded the gate to 607 detected
        // against 512 injected.
        let opts = StressOpts {
            bits: 16,
            count: 8,
            ..StressOpts::trials_small("random")
        };
        let out = stress(&opts).unwrap();
        assert!(
            out.contains("duplicates:  512 detected, 512 injected\n"),
            "{out}"
        );
    }

    #[test]
    fn twin_gate_fails_an_over_count() {
        // 64 leases of 8 IDs per twin: 512 injected.
        let gate = TwinGate::new(8, 2000, 8);
        assert!(gate.check("t", 512, 0, "").is_ok());
        let over = gate.check("t", 513, 0, "").unwrap_err();
        assert!(over.0.contains("over-count"), "{}", over.0);
        assert!(gate.check("t", 511, 0, "").is_err(), "false negative");
        // Exhaustion keeps only the lower bound.
        assert!(gate.check("t", 513, 1, "").is_ok());
        assert!(gate.check("t", 0, 1, "").is_err());
    }

    #[test]
    fn stress_remote_replays_over_loopback_tcp() {
        // The same preset over the socket transport: the validation
        // phase (injected twins) must still catch every duplicate, and
        // the header must say which transport ran.
        let opts = StressOpts {
            requests: 120,
            remote: true,
            audit_threads: 2,
            ..StressOpts::trials_small("cluster")
        };
        let out = stress(&opts).unwrap();
        assert!(out.contains("loopback TCP transport"), "{out}");
        assert!(out.contains("validation:  ok"));
    }

    #[test]
    fn stress_remote_pooled_workers_validate_too() {
        let opts = StressOpts {
            requests: 120,
            remote: true,
            remote_workers: 3,
            ..StressOpts::trials_small("cluster")
        };
        let out = stress(&opts).unwrap();
        assert!(
            out.contains("3 workers multiplexing one connection"),
            "{out}"
        );
        assert!(out.contains("validation:  ok"));
    }

    #[test]
    fn fleet_smoke_preset_validates_the_global_audit() {
        let opts = FleetOpts {
            requests: 120,
            ..FleetOpts::trials_small("cluster")
        };
        let out = fleet(&opts).unwrap();
        assert!(out.contains("nodes:        3"), "{out}");
        assert!(out.contains("cross-node duplicates are invisible"), "{out}");
        assert!(out.contains("validation:  ok"), "{out}");
    }

    #[test]
    fn fleet_twin_gate_injects_at_least_one_id_per_lease() {
        // As for stress: 120 / 6 = 20 twin leases of one ID each, which
        // only the global audit can see across nodes.
        let opts = FleetOpts {
            requests: 120,
            count: 0,
            ..FleetOpts::trials_small("cluster")
        };
        let out = fleet(&opts).unwrap();
        assert!(out.contains("0 IDs issued"), "{out}");
        assert!(
            out.contains("duplicates:  20 detected, 20 injected"),
            "{out}"
        );
        assert!(out.contains("validation:  ok"), "{out}");
    }

    #[test]
    fn fleet_rejects_tenants_above_the_owner_key_width() {
        let opts = FleetOpts {
            requests: 16,
            tenants: (1 << TENANT_BITS) + 1,
            ..FleetOpts::trials_small("cluster")
        };
        let err = fleet(&opts).unwrap_err();
        assert!(err.0.contains("--tenants"), "{}", err.0);
    }

    #[test]
    fn fleet_chaos_mode_restarts_and_stays_duplicate_free() {
        let opts = FleetOpts {
            requests: 90,
            kill_every: Some(15),
            reservation: 64,
            ..FleetOpts::trials_small("cluster*")
        };
        let out = fleet(&opts).unwrap();
        assert!(out.contains("chaos: kill every 15"), "{out}");
        assert!(
            !out.contains("(0 crash-restarts)"),
            "chaos must restart: {out}"
        );
        assert!(out.contains("0 from recovered nodes"), "{out}");
        assert!(out.contains("validation:  ok"), "{out}");
    }

    #[test]
    fn fleet_rejects_unknown_placement() {
        let opts = FleetOpts {
            placement: "mesh".into(),
            ..FleetOpts::trials_small("cluster")
        };
        assert!(fleet(&opts).is_err());
    }

    #[test]
    fn fleet_rejects_zero_kill_interval() {
        // kill-every 0 would silently disable chaos while claiming it.
        let opts = FleetOpts {
            kill_every: Some(0),
            ..FleetOpts::trials_small("cluster")
        };
        let err = fleet(&opts).unwrap_err();
        assert!(err.0.contains("--kill-every"), "{}", err.0);
    }

    #[test]
    fn fleet_rejects_a_state_dir_without_kill_every() {
        let opts = FleetOpts {
            state_dir: Some("/nonexistent/uuidp-state".into()),
            ..FleetOpts::trials_small("cluster")
        };
        let err = fleet(&opts).unwrap_err();
        assert!(err.0.contains("--state-dir"), "{}", err.0);
        assert!(err.0.contains("--kill-every"), "{}", err.0);
    }

    #[test]
    fn stress_rejects_pool_without_remote() {
        let opts = StressOpts {
            remote_workers: 4,
            ..StressOpts::trials_small("cluster")
        };
        let err = stress(&opts).unwrap_err();
        assert!(err.0.contains("--remote"), "{}", err.0);
    }

    #[test]
    fn wire_runs_refuse_leases_above_the_cap() {
        let stress_with = |algorithm: &str, mix: &str, count: u128| StressOpts {
            remote: true,
            mix: mix.into(),
            count,
            ..StressOpts::trials_small(algorithm)
        };
        for opts in [
            stress_with("random", "uniform", 600_000),
            stress_with("cluster", "uniform", 600_000),
            stress_with("cluster", "flood", 200_000),
            // The twin phase leases `--count` whatever the mix.
            stress_with("cluster", "hunter", MAX_LEASE_COUNT + 1),
        ] {
            let err = stress(&opts).unwrap_err();
            assert!(err.0.contains("cap of 524284"), "{}", err.0);
        }
        let opts = FleetOpts {
            count: 600_000,
            ..FleetOpts::trials_small("cluster")
        };
        let err = fleet(&opts).unwrap_err();
        assert!(err.0.contains("cap of 524284"), "{}", err.0);
        // The cap itself fits, under flood too.
        assert!(check_wire_count(TrafficMix::Uniform, MAX_LEASE_COUNT).is_ok());
        assert!(check_wire_count(TrafficMix::Flood, MAX_LEASE_COUNT / 4).is_ok());
        assert!(check_wire_count(TrafficMix::Flood, MAX_LEASE_COUNT / 4 + 1).is_err());
    }

    #[test]
    fn stress_rejects_unknown_mix() {
        let opts = StressOpts {
            mix: "tsunami".into(),
            ..StressOpts::trials_small("cluster")
        };
        assert!(stress(&opts).is_err());
    }

    #[test]
    fn stress_remote_protocol_v2_replays_over_the_mux() {
        // The CI smoke's width: four workers multiplexing one framed
        // connection still validate the injected-twin audit phase, and
        // the slowest leases' span timelines come back over the same
        // connection as timeline frames.
        let opts = StressOpts {
            requests: 120,
            remote: true,
            remote_workers: 4,
            ..StressOpts::trials_small("cluster")
        };
        let out = stress(&opts).unwrap();
        assert!(
            out.contains("4 workers multiplexing one connection"),
            "{out}"
        );
        assert!(out.contains("slow leases:"), "{out}");
        assert!(out.contains("span corr="), "{out}");
        assert!(out.contains("reply-sent"), "{out}");
        assert!(out.contains("validation:  ok"), "{out}");
    }

    #[test]
    fn stress_rejects_zero_remote_workers() {
        let opts = StressOpts {
            remote: true,
            remote_workers: 0,
            ..StressOpts::trials_small("cluster")
        };
        let err = stress(&opts).unwrap_err();
        assert!(err.0.contains("--remote-workers"), "{}", err.0);
    }

    #[test]
    fn stress_rejects_chaos_without_remote() {
        let opts = StressOpts {
            chaos: Some("small".into()),
            ..StressOpts::trials_small("cluster")
        };
        let err = stress(&opts).unwrap_err();
        assert!(err.0.contains("--chaos"), "{}", err.0);
        assert!(err.0.contains("--remote"), "{}", err.0);
    }

    #[test]
    fn stress_and_fleet_reject_bad_chaos_specs() {
        let opts = StressOpts {
            remote: true,
            chaos: Some("tsunami".into()),
            ..StressOpts::trials_small("cluster")
        };
        let err = stress(&opts).unwrap_err();
        assert!(err.0.contains("bad --chaos"), "{}", err.0);
        let opts = FleetOpts {
            chaos: Some("drop:1001".into()),
            ..FleetOpts::trials_small("cluster")
        };
        let err = fleet(&opts).unwrap_err();
        assert!(err.0.contains("bad --chaos"), "{}", err.0);
    }

    #[test]
    fn stress_chaos_run_reports_slo_and_still_validates() {
        // The chaos phase degrades gracefully (SLO section, fault
        // counters); the validation twin phase then runs chaos-free so
        // the exact-count audit gate stays exact.
        let opts = StressOpts {
            requests: 150,
            remote: true,
            remote_workers: 2,
            chaos: Some("small".into()),
            chaos_seed: 0xC405,
            ..StressOpts::trials_small("cluster")
        };
        let out = stress(&opts).unwrap();
        assert!(out.contains("[chaos `"), "{out}");
        assert!(out.contains("slo:"), "{out}");
        assert!(out.contains("schedule fingerprint"), "{out}");
        assert!(out.contains("validation:  ok"), "{out}");
    }

    #[test]
    fn fleet_chaos_proxies_compose_with_kill_every_and_stay_duplicate_free() {
        let opts = FleetOpts {
            requests: 90,
            kill_every: Some(30),
            reservation: 64,
            chaos: Some("small".into()),
            chaos_seed: 0xF417,
            ..FleetOpts::trials_small("cluster*")
        };
        let out = fleet(&opts).unwrap();
        assert!(out.contains("[chaos `"), "{out}");
        assert!(out.contains("slo:"), "{out}");
        assert!(out.contains("0 from recovered nodes"), "{out}");
        assert!(out.contains("validation:  ok"), "{out}");
    }

    #[test]
    fn serve_rejects_metrics_without_listen() {
        let opts = ServeOpts {
            metrics: true,
            ..serve_opts("cluster", 32)
        };
        let mut input = &b""[..];
        let mut output = Vec::new();
        let err = serve(&opts, &mut input, &mut output).unwrap_err();
        assert!(err.0.contains("--metrics"), "{}", err.0);
        assert!(err.0.contains("--listen"), "{}", err.0);
    }

    #[test]
    fn stress_rejects_scrape_without_remote() {
        let opts = StressOpts {
            scrape: true,
            ..StressOpts::trials_small("cluster")
        };
        let err = stress(&opts).unwrap_err();
        assert!(err.0.contains("--scrape"), "{}", err.0);
        assert!(err.0.contains("--remote"), "{}", err.0);
    }

    #[test]
    fn stress_remote_scrape_reports_live_scrapes() {
        let opts = StressOpts {
            requests: 120,
            remote: true,
            remote_workers: 2,
            scrape: true,
            ..StressOpts::trials_small("cluster")
        };
        let out = stress(&opts).unwrap();
        assert!(out.contains("live scrapes"), "{out}");
        assert!(out.contains("validation:  ok"));
    }

    #[test]
    fn fleet_scrape_reports_the_metrics_line() {
        let opts = FleetOpts {
            requests: 120,
            scrape: true,
            ..FleetOpts::trials_small("cluster")
        };
        let out = fleet(&opts).unwrap();
        assert!(out.contains("nodes scraped"), "{out}");
        assert!(out.contains("series:"), "{out}");
        assert!(out.contains("cluster fingerprint"), "{out}");
        assert!(out.contains("validation:  ok"), "{out}");
    }

    #[test]
    fn top_once_snapshots_a_live_server_as_json() {
        use uuidp_core::algorithms::AlgorithmKind;
        let space = IdSpace::with_bits(44).unwrap();
        let config = ServiceConfig::new(AlgorithmKind::ClusterStar, space);
        let server = TcpServer::bind("127.0.0.1:0", config).unwrap();
        let client = Client::connect(server.local_addr(), space).unwrap();
        for tenant in 0..4 {
            client.lease(tenant, 32).unwrap();
        }
        let opts = TopOpts {
            connect: server.local_addr().to_string(),
            bits: 44,
            interval_ms: 20,
            once: true,
            windows: 8,
        };
        let out = top(&opts).unwrap();
        assert!(out.contains("\"ids_per_sec\":"), "{out}");
        assert!(out.contains("\"healthy\":true"), "{out}");
        assert!(out.contains("\"p99_ns\":"), "{out}");
        assert!(out.contains("\"alerts\":[]"), "{out}");
        client.shutdown().unwrap();
        let _ = server.join();
    }

    #[test]
    fn top_once_marks_a_dead_address_down_instead_of_failing() {
        // A node that never answers degrades to DOWN with scrape errors
        // counted — the dashboard outlives the fleet it watches.
        let opts = TopOpts {
            connect: "127.0.0.1:1".into(),
            bits: 44,
            interval_ms: 10,
            once: true,
            windows: 4,
        };
        let out = top(&opts).unwrap();
        assert!(out.contains("\"healthy\":false"), "{out}");
        assert!(out.contains("\"scrape_errors\":2"), "{out}");
    }

    #[test]
    fn top_frame_renders_columns_health_and_sparkline() {
        let rows = vec![
            TopRow {
                label: "127.0.0.1:7821".into(),
                healthy: true,
                ids_per_sec: 1234.5,
                p50_ns: 12_300.0,
                p99_ns: 45_600.0,
                p999_ns: 78_900.0,
                audit_backlog: 12,
                wakeups_per_sec: 345.0,
                alerts: vec!["availability-burn"],
                spark: "▁▃█".into(),
                scrape_errors: 0,
            },
            TopRow {
                label: "127.0.0.1:7822".into(),
                healthy: false,
                ids_per_sec: 0.0,
                p50_ns: 0.0,
                p99_ns: 0.0,
                p999_ns: 0.0,
                audit_backlog: 0,
                wakeups_per_sec: 0.0,
                alerts: Vec::new(),
                spark: String::new(),
                scrape_errors: 3,
            },
        ];
        let frame = render_top_frame(&rows, 7, 250);
        assert!(frame.contains("q + Enter quits"), "{frame}");
        assert!(frame.contains("availability-burn"), "{frame}");
        assert!(frame.contains("DOWN"), "{frame}");
        assert!(frame.contains("▁▃█"), "{frame}");
        assert!(frame.contains("tick 7"), "{frame}");
        let json = render_top_json(&rows, 250);
        assert!(
            json.contains("\"alerts\":[\"availability-burn\"]"),
            "{json}"
        );
        assert!(json.ends_with("]}\n"), "{json}");
    }

    #[test]
    fn top_rejects_empty_and_malformed_connect_lists() {
        let mut opts = TopOpts {
            connect: " , ".into(),
            bits: 44,
            interval_ms: 10,
            once: true,
            windows: 4,
        };
        assert!(top(&opts).is_err());
        opts.connect = "not-an-addr".into();
        assert!(top(&opts).is_err());
    }

    #[test]
    fn fleet_smoke_over_protocol_v2_validates_the_global_audit() {
        // The hunter placement aims each single-ID lease at arcs the
        // router's v2 lease replies carried back; the run and the
        // cross-node twin validation both stay clean.
        let opts = FleetOpts {
            requests: 120,
            placement: "hunter".into(),
            ..FleetOpts::trials_small("cluster")
        };
        let out = fleet(&opts).unwrap();
        assert!(out.contains("placement:    hunter"), "{out}");
        assert!(out.contains("120 leases, 120 IDs issued"), "{out}");
        assert!(out.contains("(client-side"), "{out}");
        assert!(out.contains("validation:  ok"), "{out}");
    }

    #[test]
    fn fleet_chaos_over_protocol_v2_stays_duplicate_free() {
        // Two nodes under skewed load take every kill between them, so
        // the router re-dials and re-handshakes each successor often.
        let opts = FleetOpts {
            requests: 90,
            nodes: 2,
            placement: "skewed".into(),
            kill_every: Some(15),
            reservation: 64,
            ..FleetOpts::trials_small("cluster*")
        };
        let out = fleet(&opts).unwrap();
        assert!(out.contains("nodes:        2"), "{out}");
        assert!(out.contains("chaos: kill every 15"), "{out}");
        assert!(
            !out.contains("(0 crash-restarts)"),
            "chaos must restart: {out}"
        );
        assert!(out.contains("0 from recovered nodes"), "{out}");
        assert!(out.contains("validation:  ok"), "{out}");
    }
}
