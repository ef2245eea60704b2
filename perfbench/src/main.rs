//! `uuidp-perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! uuidp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload against the public APIs of the
//! workspace crates, checks that the outputs are correct, and prints
//! the metrics `BENCHMARK.json` declares: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The last line of
//! standard output is the JSON result; a run whose outputs fail a
//! correctness gate exits 1 without printing one.

mod drive;
mod host;
mod layers;
mod mc;
mod metrics;
mod spans;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::time::Duration;

use uuidp_core::algorithms::AlgorithmKind;
use uuidp_core::clock;
use uuidp_core::id::IdSpace;
use uuidp_service::net::TcpServer;
use uuidp_service::service::ServiceConfig;

use drive::{Feed, Interval, Readings, Round, Sample, Stop, Trace, INTERVAL_NS};
use layers::Budget;
use metrics::{Metrics, END_TO_END, PER_LAYER};
use spans::Tracer;
use stats::{median_u64, percentile, quantile};
use workload::Workload;

const USAGE: &str =
    "usage: uuidp-perfbench --workload <name> --seed <n> --seconds <1..=60> --trace <0|1>";

/// A run that has not finished by now is stuck: exit without a result.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Measured windows of the time-boxed workloads.
const ROUNDS: u64 = 24;

/// Where in the run's slices each end-to-end metric is read, from the
/// best end (see [`best`]).
const BEST_SHARE: f64 = 0.1;

/// Set-ups timed before each window: on the lease workloads the window's
/// own and the rest on targets torn down again unused, on
/// `montecarlo_oblivious` algorithm builds. Spread over the whole run,
/// they give `setup_s` a median that no one moment of the host decides.
const SETUPS_PER_ROUND: usize = 8;

/// The shortest measured window of a time-boxed lease round.
const MIN_WINDOW_NS: u64 = 100_000_000;

/// Leases before each round's measured window (lazy tenant set-up).
const WARM_NS: u64 = 100_000_000;

/// Leases per `issue_bulk_inproc` round: the fixed work whose clock
/// stops when the audit has caught up. Rounds this short (about 0.1 s)
/// give a run a couple of hundred of them to read metrics over.
const BULK_LEASES: usize = 256;

/// Requests leased directly on each side of a traced fleet window.
const DIRECT_HALF: usize = 512;

/// `issue_bulk_inproc` rounds run at least this often, however long.
const MIN_BULK_ROUNDS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=60).contains(s))
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: still running after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let outcome = std::fs::create_dir_all(&work)
        .map_err(|e| format!("work dir {}: {e}", work.display()))
        .and_then(|()| run(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    match outcome {
        Ok(result) => {
            print!("{}", result.metrics.table());
            println!("provenance {}", result.provenance);
            println!(
                "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                result.attempted,
                result.failed,
                result.metrics.json()
            );
        }
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            std::process::exit(1);
        }
    }
}

/// A finished run, ready to print.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    provenance: String,
}

fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let provenance = host::provenance(args.workload.name(), args.seed, args.trace, &net_backend()?);
    let budget_ns = args.seconds * 1_000_000_000;
    let (metrics, attempted, failed) = if args.trace {
        let tracer = Tracer::new();
        let (metrics, attempted, failed) =
            traced(args.workload, args.seed, budget_ns, work, &tracer)?;
        let names: Vec<&str> = PER_LAYER.iter().map(|l| l.name).collect();
        metrics.check_complete(&names)?;
        let (kept, dropped) = tracer.counts();
        if dropped > 0 {
            return Err(format!(
                "{dropped} spans over the per-name cap were dropped; the per-layer figures \
                 would come from truncated samples"
            ));
        }
        let out = PathBuf::from(".bench_out");
        std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
        let path = out.join(format!("spans-{}.tsv", args.workload.name()));
        tracer
            .write_tsv(&path, &provenance)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans: {kept} written to {}", path.display());
        (metrics, attempted, failed)
    } else {
        let tally = untraced(args.workload, args.seed, budget_ns, work)?;
        let (attempted, failed) = (tally.attempted, tally.failed);
        (tally.metrics()?, attempted, failed)
    };
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        provenance,
    })
}

/// The reactor backend a default `TcpServer` resolves to.
fn net_backend() -> Result<String, String> {
    let config = ServiceConfig::new(
        AlgorithmKind::Cluster,
        IdSpace::with_bits(32).expect("valid universe"),
    );
    let server = TcpServer::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
    let backend = server.net_backend().to_string();
    server.halt();
    Ok(backend)
}

/// The smallest part of an untraced run the metrics are taken over: a
/// whole interval of a time-boxed window, or a whole `issue_bulk_inproc`
/// round (its clock runs on while the audit catches up, which no interval
/// of lease completions sees).
#[derive(Default)]
struct Slice {
    ns: u64,
    /// Ops completed in full, and the IDs they moved.
    ops: u64,
    ids: u128,
    cpu_ns: u64,
    /// Latencies of the ops that ended in the slice; failures as +∞.
    lat_ns: Vec<u64>,
}

/// The value the best `BEST_SHARE` of a run's slices reach: that
/// quantile of `values` when lower is better, the `1 − BEST_SHARE`
/// quantile when higher is. Whatever else runs on a shared host (steal, a
/// busy hyperthread sibling, a crowded cache) only ever slows a slice, so
/// the best slices are the ones that measure the program, and a run
/// needs only a tenth of its slices to be undisturbed to read true.
fn best(values: Vec<f64>, lower_is_better: bool) -> Option<f64> {
    let q = if lower_is_better {
        BEST_SHARE
    } else {
        1.0 - BEST_SHARE
    };
    quantile(values, q)
}

/// The end-to-end account of an untraced run.
#[derive(Default)]
struct Tally {
    slices: Vec<Slice>,
    /// Every set-up the run timed.
    setup_ns: Vec<u64>,
    /// [`host::reference_ns`] readings, one before the first window and
    /// one after each.
    references: Vec<u64>,
    /// Ops attempted and failed, over every window.
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts a window's ops and logs it.
    fn window(&mut self, attempted: u64, failed: u64, ns: u64) {
        eprintln!("window: {attempted} ops in {:.3} s", ns as f64 / 1e9);
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Adds a time-boxed window's whole intervals, each as a slice.
    fn intervals(&mut self, intervals: Vec<Interval>, whole: usize) {
        for i in intervals.into_iter().take(whole) {
            self.slices.push(Slice {
                ns: INTERVAL_NS,
                ops: i.ops,
                ids: i.ids,
                cpu_ns: i.cpu_ns,
                lat_ns: i.lat_ns,
            });
        }
    }

    /// Adds a lease round: by its window's intervals, or on
    /// `issue_bulk_inproc` as one slice.
    fn round(&mut self, w: Workload, round: Round) {
        let s = round.sample;
        self.setup_ns.push(round.setup_ns);
        self.window(s.attempted, s.failed, s.window_ns);
        if w == Workload::IssueBulkInproc {
            self.slices.push(Slice {
                ns: s.window_ns,
                ops: s.attempted - s.failed,
                ids: s.ids,
                cpu_ns: s.cpu_ns,
                lat_ns: drive::latencies(&s.intervals),
            });
        } else {
            self.intervals(s.intervals, s.whole);
        }
    }

    /// Each metric but `setup_s`, `completed_frac` and `peak_rss_mb` is
    /// read per slice, reported as the [`best`] tenth of slices reach it,
    /// and brought to the reference host's speed: times divided by the
    /// run's [`host::pace`], rates multiplied by it. `setup_s` is the
    /// median of every set-up, and failures count from every window.
    fn metrics(self) -> Result<Metrics, String> {
        let (attempted, failed) = (self.attempted, self.failed);
        let pace = host::pace(&self.references);
        eprintln!("{} slices; host pace {pace:.4}", self.slices.len());
        let none = || "the run measured nothing".to_string();
        let per = |f: &dyn Fn(&Slice) -> Option<f64>, lower_is_better: bool| {
            best(self.slices.iter().filter_map(f).collect(), lower_is_better).ok_or_else(none)
        };
        let pct = |s: &Slice, q: f64| percentile(&mut s.lat_ns.clone(), q).map(|ns| ns / pace);
        let secs = |s: &Slice| s.ns.max(1) as f64 / 1e9 / pace;
        let mut m = Metrics::default();
        m.set(
            "setup_s",
            median_u64(&self.setup_ns).ok_or_else(none)? / 1e9,
        );
        m.set("op_p50_us", per(&|s| pct(s, 0.5), true)? / 1e3);
        m.set("op_p90_us", per(&|s| pct(s, 0.9), true)? / 1e3);
        m.set("ops_per_s", per(&|s| Some(s.ops as f64 / secs(s)), false)?);
        m.set("ids_per_s", per(&|s| Some(s.ids as f64 / secs(s)), false)?);
        // A slice that completed nothing spent its CPU on no op: +∞.
        m.set(
            "cpu_us_per_op",
            per(&|s| Some(s.cpu_ns as f64 / 1e3 / s.ops as f64 / pace), true)?,
        );
        m.set(
            "completed_frac",
            (attempted - failed) as f64 / attempted.max(1) as f64,
        );
        m.set("peak_rss_mb", host::peak_rss_mb());
        let names: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        m.check_complete(&names)
            .map_err(|e| format!("{e} ({failed} of {attempted} operations failed)"))?;
        Ok(m)
    }
}

/// One lease round of workload `w` (its own target kind), measured
/// until `stop`, with `trace` spans and, on the fleet, the direct pass.
fn lease_round(
    w: Workload,
    config: ServiceConfig,
    feed: &Feed<'_>,
    dir: &Path,
    stop: Stop,
    trace: Trace<'_>,
) -> Result<Round, String> {
    match w {
        Workload::LeaseSmallMux => {
            drive::mux_round(config, w.callers(), feed, WARM_NS, stop, trace)
        }
        Workload::IssueBulkInproc => drive::inproc_round(config, w.callers(), feed, stop, trace),
        Workload::LeaseDurableFleet => {
            let direct = trace.map(|_| DIRECT_HALF);
            drive::fleet_round(config, dir, feed, WARM_NS, stop, trace, direct)
        }
        Workload::MontecarloOblivious => unreachable!("montecarlo_oblivious has no lease round"),
    }
}

/// Sets workload `w`'s target up and, on the lease workloads, tears it
/// down again without serving a lease; returns the set-up time.
fn setup_only(w: Workload, dir: &Path) -> Result<u64, String> {
    let feed = Feed::new(&[], 0);
    let (config, none) = (w.service_config(dir), Stop::Ops(0));
    let round = match w {
        Workload::LeaseSmallMux => drive::mux_round(config, w.callers(), &feed, 0, none, None),
        Workload::IssueBulkInproc => drive::inproc_round(config, w.callers(), &feed, none, None),
        Workload::LeaseDurableFleet => drive::fleet_round(config, dir, &feed, 0, none, None, None),
        Workload::MontecarloOblivious => return Ok(mc::setup().2),
    };
    Ok(round?.setup_ns)
}

/// The stop rule of one measured lease window within `window_ns`.
fn lease_stop(w: Workload, window_ns: u64) -> Stop {
    match w {
        Workload::IssueBulkInproc => Stop::Ops(BULK_LEASES),
        _ => Stop::Window(window_ns),
    }
}

fn untraced(w: Workload, seed: u64, budget_ns: u64, work: &Path) -> Result<Tally, String> {
    let mut tally = Tally::default();
    tally.references.push(host::reference_ns());
    if w == Workload::MontecarloOblivious {
        let (algorithm, profile, _) = mc::setup();
        let mut next = 0u64;
        let mut pooled = mc::Window::default();
        for _ in 0..ROUNDS {
            for _ in 0..SETUPS_PER_ROUND {
                tally.setup_ns.push(setup_only(w, work)?);
            }
            let mut win = mc::window(
                algorithm.as_ref(),
                &profile,
                seed,
                &mut next,
                budget_ns * 9 / 10 / ROUNDS,
                None,
            );
            tally.references.push(host::reference_ns());
            tally.window(win.trials, win.exhausted, win.window_ns);
            tally.intervals(std::mem::take(&mut win.intervals), win.whole);
            pooled.absorb(win);
        }
        mc::check(algorithm.as_ref(), &profile, seed, &pooled)?;
        println!(
            "montecarlo: {} collisions in {} trials (batch 0: {:?})",
            pooled.successes, pooled.trials, pooled.batch0
        );
        return Ok(tally);
    }
    let seq = workload::sequence(w, seed);
    let feed = Feed::new(&seq, 0);
    let window_ns = (budget_ns * 8 / 10 / ROUNDS)
        .saturating_sub(WARM_NS)
        .max(MIN_WINDOW_NS);
    let t0 = clock::monotonic_ns();
    let mut r = 0;
    loop {
        let dir = work.join(format!("round-{r}"));
        for _ in 1..SETUPS_PER_ROUND {
            tally.setup_ns.push(setup_only(w, &dir)?);
        }
        let round = lease_round(
            w,
            w.service_config(&dir),
            &feed,
            &dir,
            lease_stop(w, window_ns),
            None,
        )?;
        report_errors(&round.sample);
        tally.references.push(host::reference_ns());
        tally.round(w, round);
        r += 1;
        let done = match w {
            Workload::IssueBulkInproc => {
                r >= MIN_BULK_ROUNDS && clock::monotonic_ns() - t0 > budget_ns * 85 / 100
            }
            _ => r as u64 >= ROUNDS,
        };
        if done {
            return Ok(tally);
        }
    }
}

fn report_errors(sample: &Sample) {
    if let Some(e) = &sample.first_error {
        eprintln!(
            "perfbench: {} leases failed; first error: {e}",
            sample.failed
        );
    }
}

/// The untraced and traced halves of a traced run's main loop.
#[derive(Default)]
struct Halves {
    untraced: Vec<u64>,
    traced: Vec<u64>,
}

impl Halves {
    fn overhead(&mut self) -> Result<(f64, f64), String> {
        let traced = percentile(&mut self.traced, 0.5).ok_or("no traced operations")?;
        let untraced = percentile(&mut self.untraced, 0.5).ok_or("no untraced operations")?;
        Ok((traced, traced / untraced))
    }
}

/// A traced run: the workload's own loop in ABBA order (untraced,
/// traced, traced, untraced), then every layer probe.
fn traced(
    w: Workload,
    seed: u64,
    budget_ns: u64,
    work: &Path,
    tracer: &Tracer,
) -> Result<(Metrics, u64, u64), String> {
    let mut m = Metrics::default();
    let mut halves = Halves::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let window_ns = budget_ns / 10;
    let order = [false, true, true, false];
    // Readings of the rounds that served the workload's own loop.
    let mut serving = Readings::default();
    let probe_cap = budget_ns / 20;

    let seq = workload::sequence(w, seed);
    if w == Workload::MontecarloOblivious {
        let (algorithm, profile, _) = mc::setup();
        let mut next = 0u64;
        let mut pooled = mc::Window::default();
        for on in order {
            let root = tracer.open("loop.montecarlo");
            let win = mc::window(
                algorithm.as_ref(),
                &profile,
                seed,
                &mut next,
                window_ns,
                on.then_some((tracer, root.id)),
            );
            tracer.close(root);
            let half = if on {
                &mut halves.traced
            } else {
                &mut halves.untraced
            };
            half.extend(drive::latencies(&win.intervals));
            pooled.absorb(win);
        }
        mc::check(algorithm.as_ref(), &profile, seed, &pooled)?;
        attempted += pooled.trials;
        failed += pooled.exhausted;
    } else {
        let feed = Feed::new(&seq, 0);
        for (r, on) in order.into_iter().enumerate() {
            let dir = work.join(format!("loop-{r}"));
            let root = tracer.open("loop.lease");
            let trace = on.then_some((tracer, root.id, loop_span(w)));
            let round = lease_round(
                w,
                w.service_config(&dir),
                &feed,
                &dir,
                lease_stop(w, window_ns),
                trace,
            )?;
            tracer.close(root);
            report_errors(&round.sample);
            attempted += round.sample.attempted;
            failed += round.sample.failed;
            let half = if on {
                &mut halves.traced
            } else {
                &mut halves.untraced
            };
            half.extend(drive::latencies(&round.sample.intervals));
            if on {
                serving.merge(&round.readings);
            }
        }
    }

    // Probes of the layers the workload's own loop does not wrap. A
    // workload without a service borrows lease_small_mux's shape.
    let pw = match w {
        Workload::MontecarloOblivious => Workload::LeaseSmallMux,
        w => w,
    };
    let pseq = workload::sequence(pw, seed);
    // Request counts of the probes: replay-based probes, then the
    // socket and fleet rounds (kept short where each lease is large).
    let (probe_ops, net_ops, fleet_ops) = match w {
        Workload::IssueBulkInproc => (BULK_LEASES, 256, 128),
        Workload::MontecarloOblivious => (256, 2048, 1024),
        _ => (4096, 2048, 1024),
    };
    let budget = Budget {
        ops: probe_ops,
        cap_ns: probe_cap,
    };

    let replay = layers::core_replay(w, &seq, budget, tracer)?;
    let segments = layers::audit(w, &replay, probe_cap, tracer);
    layers::global_audit(w, &replay, probe_cap, tracer);
    layers::codec(&replay, tracer)?;
    let sync = Budget {
        ops: 64,
        cap_ns: probe_cap,
    };
    layers::persist(&replay, work, sync, tracer)?;
    let scaling = layers::montecarlo(
        w,
        seed,
        Budget {
            ops: 4096,
            cap_ns: probe_cap,
        },
        tracer,
    );

    // The in-process service: the workload's own loop on
    // issue_bulk_inproc, a probe round elsewhere.
    let service = if w == Workload::IssueBulkInproc {
        serving.clone()
    } else {
        let dir = work.join("probe-service");
        let feed = Feed::new(&pseq, 0);
        let root = tracer.open("probe.service");
        let round = drive::inproc_round(
            pw.service_config(&dir),
            pw.callers(),
            &feed,
            Stop::Ops(probe_ops),
            Some((tracer, root.id, "service.lease")),
        )?;
        tracer.close(root);
        round.readings
    };
    if w == Workload::MontecarloOblivious {
        serving = service.clone();
    }

    // Sockets: the workload's own loop on lease_small_mux, a probe
    // round elsewhere.
    let net = if w == Workload::LeaseSmallMux {
        serving.clone()
    } else {
        let dir = work.join("probe-net");
        let feed = Feed::new(&pseq, 0);
        let root = tracer.open("probe.net");
        let round = drive::mux_round(
            pw.service_config(&dir),
            pw.callers(),
            &feed,
            WARM_NS,
            Stop::Ops(net_ops),
            Some((tracer, root.id, "client.lease")),
        )?;
        tracer.close(root);
        round.readings
    };

    // The fleet: the workload's own loop on lease_durable_fleet, a
    // probe round elsewhere.
    if w != Workload::LeaseDurableFleet {
        let dir = work.join("probe-fleet");
        let feed = Feed::new(&pseq, 0);
        let root = tracer.open("probe.fleet");
        drive::fleet_round(
            pw.service_config(&dir),
            &dir,
            &feed,
            WARM_NS,
            Stop::Ops(fleet_ops),
            Some((tracer, root.id, "fleet.router_lease")),
            Some(fleet_ops / 2),
        )?;
        tracer.close(root);
    }

    let trace_overhead = obs_overhead(pw, &pseq, work, budget_ns / 25)?;

    let p = |name: &str, q: f64| -> Result<f64, String> {
        percentile(&mut tracer.durations(name), q)
            .map(|ns| ns / 1e3)
            .ok_or_else(|| format!("no {name} spans"))
    };
    m.set("core.next_ids_us.p50", p("core.next_ids", 0.5)?);
    m.set("sim.audit_record_us.p50", p("sim.audit_record", 0.5)?);
    m.set("sim.audit_segments_per_lease", segments);
    m.set("sim.trial_us.p50", p("sim.trial", 0.5)?);
    m.set("sim.collide_us.p50", p("sim.collide", 0.5)?);
    m.set("sim.thread_scaling", scaling);
    let service_p50 = p("service.lease", 0.5)?;
    m.set("service.lease_us.p50", service_p50);
    m.set("service.lease_us.p99", p("service.lease", 0.99)?);
    m.set("service.issue_us.p50", serving.issue.quantile_ns(0.5) / 1e3);
    m.set(
        "service.queue_us.p50",
        service_p50 - service.issue.quantile_ns(0.5) / 1e3,
    );
    m.set("service.audit_lag_us.mean", service.audit_lag_mean_ns / 1e3);
    m.set(
        "service.audit_lag_us.max",
        service.audit_lag_max_ns as f64 / 1e3,
    );
    m.set("service.audit_drain_ms", service.drain_ns as f64 / 1e6);
    m.set(
        "service.persists_per_lease",
        serving.persists as f64 / serving.leases.max(1) as f64,
    );
    m.set("persist.save_us.p50", p("persist.save", 0.5)?);
    m.set("persist.save_us.p99", p("persist.save", 0.99)?);
    m.set("persist.save_sync_us.p50", p("persist.save_sync", 0.5)?);
    let codec_p50 = p("client.codec", 0.5)?;
    m.set("client.codec_us.p50", codec_p50);
    let client_p50 = p("client.lease", 0.5)?;
    m.set("client.lease_us.p50", client_p50);
    m.set("client.lease_us.p99", p("client.lease", 0.99)?);
    let residual = client_p50 - service_p50 - codec_p50;
    if residual < 0.0 {
        return Err(format!(
            "traced-run closure: net.residual_us.p50 = {residual:.3} < 0 (client {client_p50:.3} \
             - service {service_p50:.3} - codec {codec_p50:.3})"
        ));
    }
    m.set("net.residual_us.p50", residual);
    m.set("net.replies_per_syscall", net.replies_per_syscall.mean_ns());
    m.set(
        "net.wakeups_per_lease",
        net.wakeups as f64 / net.leases.max(1) as f64,
    );
    let router_p50 = p("fleet.router_lease", 0.5)?;
    m.set("fleet.router_lease_us.p50", router_p50);
    m.set("fleet.router_lease_us.p99", p("fleet.router_lease", 0.99)?);
    m.set(
        "fleet.router_self_us.p50",
        router_p50 - p("fleet.direct_lease", 0.5)?,
    );
    m.set("fleet.global_audit_us.p50", p("fleet.global_audit", 0.5)?);
    m.set("obs.trace_overhead", trace_overhead);
    let (traced_p50, overhead) = halves.overhead()?;
    m.set("bench.op_p50_us.traced", traced_p50 / 1e3);
    m.set("bench.trace_overhead", overhead);
    println!("benchmark tracing overhead: traced / untraced op p50 = {overhead:.4}");
    Ok((m, attempted, failed))
}

/// The span name of one op of the workload's own loop: the layer call
/// the loop wraps.
fn loop_span(w: Workload) -> &'static str {
    match w {
        Workload::LeaseSmallMux => "client.lease",
        Workload::IssueBulkInproc => "service.lease",
        Workload::LeaseDurableFleet => "fleet.router_lease",
        Workload::MontecarloOblivious => unreachable!("montecarlo_oblivious has no lease loop"),
    }
}

/// `obs.trace_overhead`: the multiplexed-lease p50 with the service's
/// trace recorder off, over the p50 with the default (on), in ABBA
/// order of `window_ns` rounds.
fn obs_overhead(
    pw: Workload,
    seq: &[(u64, u128)],
    work: &Path,
    window_ns: u64,
) -> Result<f64, String> {
    let mut on: Vec<u64> = Vec::new();
    let mut off: Vec<u64> = Vec::new();
    let feed = Feed::new(seq, 0);
    for (r, trace_on) in [true, false, false, true].into_iter().enumerate() {
        let dir = work.join(format!("probe-obs-{r}"));
        let mut config = pw.service_config(&dir);
        config.obs_trace = trace_on;
        let round = drive::mux_round(
            config,
            pw.callers(),
            &feed,
            WARM_NS,
            Stop::Window(window_ns),
            None,
        )?;
        let _ = std::fs::remove_dir_all(&dir);
        if trace_on { &mut on } else { &mut off }.extend(drive::latencies(&round.sample.intervals));
    }
    let on = percentile(&mut on, 0.5).ok_or("no traced-service leases")?;
    let off = percentile(&mut off, 0.5).ok_or("no untraced-service leases")?;
    Ok(off / on)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_best_tenth_reads_from_the_right_end() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(best(v.clone(), true), Some(10.0));
        assert_eq!(best(v, false), Some(90.0));
        assert_eq!(best(Vec::new(), true), None);
    }

    #[test]
    fn slowed_slices_do_not_move_the_reading() {
        // A fifth of the slices undisturbed at 10, the rest slowed by up
        // to 4x: latency and rate still read the undisturbed value.
        let mut lat: Vec<f64> = vec![10.0; 20];
        lat.extend((0..80).map(|i| 11.0 + f64::from(i) * 0.4));
        assert_eq!(best(lat.clone(), true), Some(10.0));
        let rate: Vec<f64> = lat.iter().map(|l| 1.0 / l).collect();
        assert_eq!(best(rate, false), Some(0.1));
    }

    #[test]
    fn slices_that_completed_nothing_rank_last() {
        let mut cpu_per_op = vec![f64::INFINITY; 50];
        cpu_per_op.extend([3.0; 50]);
        assert_eq!(best(cpu_per_op, true), Some(3.0));
    }
}
