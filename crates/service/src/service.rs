//! The sharded batch-leasing ID service.
//!
//! ```text
//!   the caller's thread: IdService::lease / issue, or the reactor
//!   that read a wire lease
//!        │  locks shard tenant % shards
//!        ▼
//!   shard: the tenant's recycled generator, write-ahead log, accounting
//!        │  lease = next_ids(count)   O(arcs)
//!        ├──► answer: the reply copy, or the encoded wire reply
//!        └──► audit tap ── bounded channel (arcs) ──► LeaseAudit
//!                                                     (striped, symbolic)
//! ```
//!
//! * **Run to completion**: every tenant is pinned to one shard
//!   (`tenant % shards`), a lock over its tenants' generators, its
//!   write-ahead log, its audit tap and its accounting. A lease, issue,
//!   reset or checkpoint locks the shard on the thread that asked for
//!   it and is served there, with no thread hop; different shards'
//!   tenants are served in parallel.
//! * **Bulk leases**: a request for `count` IDs is served by one
//!   [`IdGenerator::next_ids`] call — `O(touched runs)` interval pushes,
//!   not `count` scalar calls — buffered in a recycled
//!   [`Lease`] per tenant.
//! * **Online audit**: every lease's arcs are tee'd into a pool of
//!   [`LeaseAudit`] pipeline threads. Each audit thread owns the disjoint
//!   stripe subset `{s : s ≡ t (mod audit_threads)}` of the audit's
//!   universe partition behind its own bounded channel; the shard cuts
//!   each lease with the shared [`StripePlan`] and routes every piece to
//!   the thread owning its stripe. An audit thread records the records
//!   queued behind the one it woke for as one batch
//!   ([`LeaseAudit::record_batch`]). Because the audit's headline counter
//!   is order-invariant *within* a stripe and stripes are disjoint
//!   *across* threads, the merged totals are bit-identical for every
//!   `(shards, audit_stripes, audit_threads)` combination and batching
//!   (see [`uuidp_sim::audit`]).
//! * **Determinism**: tenant `t`'s generator is seeded from the master
//!   seed tree independently of the shard layout, and a tenant's
//!   requests are served in the order its shard's lock admits them —
//!   for one caller per tenant, the order it made them — so for a fixed
//!   request script the per-tenant ID streams (and the audit totals)
//!   are bit-identical under any `shards` value.
//!
//! [`IdGenerator::next_ids`]: uuidp_core::traits::IdGenerator::next_ids

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Duration;

use uuidp_core::algorithms::AlgorithmKind;
use uuidp_core::clock;
use uuidp_core::id::IdSpace;
use uuidp_core::interval::Arc;
use uuidp_core::lease::Lease;
use uuidp_core::lockorder;
use uuidp_core::persist::{self, SnapshotRecord, SnapshotStore};
use uuidp_core::rng::{SeedDomain, SeedTree};
use uuidp_core::traits::{Algorithm, GeneratorError, IdGenerator};
use uuidp_obs::{AtomicHistogram, Counter, Gauge, Histogram, Registry, Stage, TraceRecorder};
use uuidp_sim::audit::{AuditCounts, LeaseAudit, StripePlan};

/// Depth of each bounded audit channel.
const QUEUE_DEPTH: usize = 1024;

/// Events the service-wide trace recorder retains (split across its
/// per-thread ring shards).
const TRACE_CAPACITY: usize = 4096;

/// Tenant ids are below `1 << TENANT_BITS`. An audit owner key packs
/// the tenant under its epoch here (so a tenant recycled via
/// [`IdService::reset_tenant`] is audited as a *new* owner, and overlap
/// between its pre- and post-reset streams is caught like any
/// cross-tenant duplicate) and under its node's incarnation in a fleet.
pub const TENANT_BITS: u32 = 40;

/// `Err` with the message a request for `tenant` is refused with,
/// unless `tenant < 2^`[`TENANT_BITS`].
pub fn check_tenant(tenant: u64) -> Result<(), String> {
    if tenant >> TENANT_BITS == 0 {
        Ok(())
    } else {
        Err(format!("tenant id {tenant} is not below 2^{TENANT_BITS}"))
    }
}

/// Durable-state configuration: where tenant snapshots live and how
/// wide the write-ahead reservation window is.
///
/// With durability enabled every shard persists a tenant's
/// [`SnapshotRecord`] *before* emitting any ID past the tenant's
/// current reservation frontier, and a tenant whose snapshot exists on
/// startup is rebuilt with [`uuidp_core::persist::recover`] — restored
/// to the persisted state, then advanced past the whole reserved
/// window. A crashed-and-restarted service therefore never re-emits an
/// ID it may already have handed out; it leaks at most `reservation`
/// IDs per tenant per crash.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// State directory: shard `i` appends its tenants' records to its
    /// own log under `dir/shard-<i>/`, so every log has one writer.
    pub dir: PathBuf,
    /// Minimum reservation window per persist. Each persist reserves
    /// `max(reservation, lease count)` IDs; larger windows persist less
    /// often but leak more IDs per crash.
    pub reservation: u128,
    /// Fsync every appended record before the lease that wrote it
    /// emits (power-loss durability; process-crash safety needs only
    /// the append to reach the OS).
    pub sync: bool,
    /// Crash-injection test hook: when the `N`th write-ahead persist
    /// (counted across all shards) lands, the lease that triggered it
    /// comes back with [`LeaseReply::halted`] set — and a `TcpServer`
    /// seeing that flag suppresses the reply and kills the whole node,
    /// simulating a crash in the exact window the in-process halt can
    /// never hit: *after* the write-ahead record, *before* the reply.
    /// In-process consumers ignore the flag. `None` disables the hook.
    pub halt_after_persists: Option<u64>,
}

impl DurabilityConfig {
    /// Durability rooted at `dir` with a modest default window.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            reservation: 4096,
            sync: false,
            halt_after_persists: None,
        }
    }
}

/// Configuration of an [`IdService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The ID-generation algorithm every tenant runs.
    pub kind: AlgorithmKind,
    /// The ID universe.
    pub space: IdSpace,
    /// Shards: tenants are pinned by `tenant % shards`, and each shard
    /// is one lock over its tenants' state, so leases of different
    /// shards' tenants run in parallel on their callers' threads. A
    /// `TcpServer` runs one reactor thread per shard.
    pub shards: usize,
    /// Stripes of the audit's universe partition.
    pub audit_stripes: usize,
    /// Audit pipeline threads; thread `t` owns stripes `s ≡ t (mod
    /// audit_threads)`. Clamped to the stripe count at startup.
    pub audit_threads: usize,
    /// Root of the per-tenant seed tree.
    pub master_seed: u64,
    /// Fault injection: `(victim, twin)` makes tenant `twin` draw its
    /// seed as if it were `victim` — two identically seeded generators,
    /// the guaranteed-collision scenario the audit must always flag.
    pub seed_alias: Option<(u64, u64)>,
    /// When set, tenant generator state is persisted with the
    /// write-ahead reservation discipline and recovered on startup.
    pub durability: Option<DurabilityConfig>,
    /// Whether the corr-id trace recorder retains events. The metric
    /// registry is always live (it is a handful of relaxed atomics);
    /// turning this off swaps the recorder for a no-op — the
    /// compiled-in-but-idle configuration the overhead benchmark pins.
    pub obs_trace: bool,
}

impl ServiceConfig {
    /// A service for `kind` over `space` with modest defaults.
    pub fn new(kind: AlgorithmKind, space: IdSpace) -> Self {
        ServiceConfig {
            kind,
            space,
            shards: 2,
            audit_stripes: 16,
            audit_threads: 1,
            master_seed: 0x5EED,
            seed_alias: None,
            durability: None,
            obs_trace: true,
        }
    }
}

/// A granted (possibly partial) lease, as returned to clients.
#[derive(Debug)]
pub struct LeaseReply {
    /// The requesting tenant.
    pub tenant: u64,
    /// Granted arcs in emission order.
    pub arcs: Vec<Arc>,
    /// Total IDs granted (sum of arc lengths).
    pub granted: u128,
    /// The generator error, if the grant fell short of the request.
    pub error: Option<GeneratorError>,
    /// Crash-injection marker: this lease tripped
    /// [`DurabilityConfig::halt_after_persists`]. The IDs *were* issued
    /// and the write-ahead record *was* persisted; a `TcpServer` seeing
    /// this suppresses the reply and halts the node, so the client
    /// observes a crash between persist and reply. In-process callers
    /// ignore it.
    pub halted: bool,
}

/// One served lease, lent to its caller's `answer` under the shard
/// lock (see [`IdService::lease_with`]). Its arcs live in the tenant's
/// recycled buffer, so an answer copies only what it keeps.
pub(crate) struct Served<'a> {
    /// The requesting tenant.
    pub(crate) tenant: u64,
    /// Granted arcs in emission order.
    pub(crate) arcs: &'a [Arc],
    /// Total IDs granted.
    pub(crate) granted: u128,
    /// The generator error, if the grant fell short of the request.
    pub(crate) error: Option<GeneratorError>,
    /// See [`LeaseReply::halted`].
    pub(crate) halted: bool,
}

/// One routed batch of audit material: the pieces of one lease that
/// fall in the stripes owned by a single audit thread, pre-cut by the
/// shared [`StripePlan`] so the audit records them with no further
/// routing.
struct AuditRecord {
    owner: u64,
    /// Non-wrapping `[lo, hi)` segments, each inside one owned stripe.
    segments: Vec<(u128, u128)>,
    /// [`clock::monotonic_ns`] stamp taken at the shard's tap, so the
    /// audit thread's lag reading shares every other telemetry
    /// timestamp's epoch.
    sent_ns: u64,
    /// Wire correlation id of the lease that produced this batch (0 =
    /// in-process traffic), for trace spans.
    corr: u64,
}

/// One message into an audit pipeline thread.
enum AuditMsg {
    /// One lease's pieces in this thread's stripes.
    Record(AuditRecord),
    /// Reply with a snapshot of this thread's counters so far. Because
    /// the channel is FIFO, a probe enqueued after a set of records
    /// observes all of them.
    Probe {
        reply: SyncSender<AuditThreadReport>,
    },
}

/// What one audit pipeline thread measured: its stripe subset's counters
/// plus its own tap-to-audit lag profile. Merging every thread's report
/// ([`AuditCounts::merge`] element-wise, max/weighted-mean for lag)
/// reconstructs the aggregate [`AuditReport`] — and when `audit_threads
/// = 1` the merged report *is* the single thread's report.
#[derive(Debug, Clone, Copy)]
pub struct AuditThreadReport {
    /// Duplicate/record counters for this thread's stripes.
    pub counts: AuditCounts,
    /// Worst tap-to-audit lag this thread observed.
    pub max_lag: Duration,
    /// Mean tap-to-audit lag in nanoseconds on this thread.
    pub mean_lag_ns: f64,
    /// Routed lease batches this thread processed.
    pub records: u64,
}

/// Audit-side half of a [`ServiceReport`].
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Aggregated duplicate/record counters (sum over threads).
    pub counts: AuditCounts,
    /// Worst observed tap-to-audit lag on any thread.
    pub max_lag: Duration,
    /// Mean tap-to-audit lag in nanoseconds, weighted across threads by
    /// records processed.
    pub mean_lag_ns: f64,
    /// Routed lease batches processed (with one audit thread this equals
    /// the number of audited leases; with `n` threads a lease fans out
    /// into up to `n` batches).
    pub records: u64,
    /// The per-thread breakdown the aggregate was merged from, in thread
    /// order. Lag asymmetry here is the straggler signal a single merged
    /// number would hide. Empty only in reports reconstructed from a
    /// remote summary line, which carries aggregates alone.
    pub per_thread: Vec<AuditThreadReport>,
}

impl AuditReport {
    /// Merges per-thread reports into the aggregate view.
    pub fn merge(per_thread: Vec<AuditThreadReport>) -> AuditReport {
        let counts = per_thread
            .iter()
            .fold(AuditCounts::default(), |acc, t| acc.merge(&t.counts));
        let max_lag = per_thread
            .iter()
            .map(|t| t.max_lag)
            .max()
            .unwrap_or(Duration::ZERO);
        let records: u64 = per_thread.iter().map(|t| t.records).sum();
        let lag_sum: f64 = per_thread
            .iter()
            .map(|t| t.mean_lag_ns * t.records as f64)
            .sum();
        AuditReport {
            counts,
            max_lag,
            mean_lag_ns: if records == 0 {
                0.0
            } else {
                lag_sum / records as f64
            },
            records,
            per_thread,
        }
    }
}

/// Aggregated shutdown report of an [`IdService`].
#[derive(Debug)]
pub struct ServiceReport {
    /// Total IDs issued across all leases (including partial grants).
    pub issued_ids: u128,
    /// Leases served.
    pub leases: u64,
    /// Leases that ended in a generator error (exhaustion).
    pub errors: u64,
    /// Per-lease issue cost (measured on the serving thread: fill,
    /// write-ahead persist and audit tap, without the reply).
    pub latency: Histogram,
    /// The audit pipeline's findings.
    pub audit: AuditReport,
    /// Wall-clock service lifetime.
    pub uptime: Duration,
}

struct TenantSlot {
    generator: Box<dyn IdGenerator>,
    lease: Lease,
    epoch: u32,
    /// Write-ahead frontier: the generator may emit up to this count
    /// without persisting again (0 forces a persist on the next lease).
    frontier: u128,
    /// Sequence number of the tenant's last persisted record.
    seq: u64,
}

/// One shard's running accounting.
#[derive(Default)]
struct ShardStats {
    issued_ids: u128,
    leases: u64,
    errors: u64,
    latency: Histogram,
}

impl ShardStats {
    fn add(&mut self, other: &ShardStats) {
        self.issued_ids += other.issued_ids;
        self.leases += other.leases;
        self.errors += other.errors;
        self.latency.merge(&other.latency);
    }

    fn report(self, audit: AuditReport, started_ns: u64) -> ServiceReport {
        ServiceReport {
            issued_ids: self.issued_ids,
            leases: self.leases,
            errors: self.errors,
            latency: self.latency,
            audit,
            uptime: Duration::from_nanos(clock::monotonic_ns().saturating_sub(started_ns)),
        }
    }
}

/// One shard: everything a lease of its tenants reads and writes, behind
/// the shard's lock.
struct Shard {
    tenants: HashMap<u64, TenantSlot>,
    tap: AuditTap,
    durability: Option<Durability>,
    stats: ShardStats,
}

/// A running service: lock-guarded shards, served on their callers'
/// threads, and the audit pipeline behind channels.
pub struct IdService {
    config: ServiceConfig,
    algorithm: Box<dyn Algorithm>,
    roots: SeedTree,
    shards: Vec<Mutex<Shard>>,
    obs: LeaseObs,
    /// Probe taps into the audit pipeline (the shards hold the record
    /// taps); dropped at shutdown, with the shards, so the audit threads
    /// can exit.
    audit_txs: Vec<SyncSender<AuditMsg>>,
    audit: Vec<JoinHandle<AuditThreadReport>>,
    /// [`clock::monotonic_ns`] stamp at construction, for uptime.
    started_ns: u64,
    registry: std::sync::Arc<Registry>,
    trace: std::sync::Arc<TraceRecorder>,
}

impl IdService {
    /// Builds the shards and boots the audit pipeline pool.
    ///
    /// # Panics
    ///
    /// Panics if `config.durability` is set but the chosen algorithm
    /// has no snapshot support (SetAside, Snowflake), or if the state
    /// directory cannot be read or holds a damaged or foreign record,
    /// or one that does not restore (see `recover_shards`) — corruption
    /// must surface as a boot error, not a mid-traffic panic under a
    /// shard's lock that would wedge the whole shard. Also panics if the
    /// OS refuses to start an audit thread.
    pub fn start(config: ServiceConfig) -> Self {
        assert!(config.shards >= 1, "at least one shard");
        let mut recovered = match &config.durability {
            Some(durability) => {
                // The kind this configuration's snapshots report, which
                // every record in the state dir must carry.
                let probe = config.kind.build(config.space).spawn(0).snapshot();
                let kind = probe.map(|state| state.kind).unwrap_or_else(|| {
                    panic!(
                        "durability requires a snapshot-capable algorithm, got {:?}",
                        config.kind
                    )
                });
                recover_shards(&config, &kind, durability)
            }
            None => Vec::new(),
        }
        .into_iter();
        let registry = std::sync::Arc::new(Registry::new());
        let trace = std::sync::Arc::new(if config.obs_trace {
            TraceRecorder::new(TRACE_CAPACITY)
        } else {
            TraceRecorder::off()
        });
        let plan = StripePlan::new(config.space, config.audit_stripes);
        // More threads than stripes would idle; clamp rather than panic.
        let audit_threads = config.audit_threads.clamp(1, plan.stripe_count());
        let mut audit_txs = Vec::with_capacity(audit_threads);
        let mut audit = Vec::with_capacity(audit_threads);
        for t in 0..audit_threads {
            let (tx, rx) = sync_channel::<AuditMsg>(QUEUE_DEPTH);
            audit_txs.push(tx);
            let space = config.space;
            let stripes = config.audit_stripes;
            let obs = AuditObs {
                records: registry.counter("uuidp_audit_records_total"),
                duplicate_ids: registry.gauge("uuidp_audit_duplicate_ids"),
                segments: registry.gauge("uuidp_audit_segments"),
                trace: std::sync::Arc::clone(&trace),
            };
            audit.push(
                std::thread::Builder::new()
                    .name(format!("uuidp-audit-{t}"))
                    .spawn(move || audit_loop(space, stripes, rx, obs))
                    .expect("spawn audit thread"),
            );
        }

        // One write-ahead persist counter across all shards drives the
        // `halt_after_persists` crash-injection hook.
        let persists = std::sync::Arc::new(AtomicU64::new(0));
        let shards = (0..config.shards)
            .map(|_| {
                let (store, tenants) = recovered.next().unzip();
                let durability =
                    config
                        .durability
                        .as_ref()
                        .zip(store)
                        .map(|(d, store)| Durability {
                            store,
                            reservation: d.reservation,
                            persists: std::sync::Arc::clone(&persists),
                            halt_after: d.halt_after_persists,
                        });
                Mutex::new(Shard {
                    tenants: tenants.unwrap_or_default(),
                    tap: AuditTap {
                        taps: audit_txs.clone(),
                        plan,
                        batches: vec![Vec::new(); audit_threads],
                    },
                    durability,
                    stats: ShardStats::default(),
                })
            })
            .collect();
        IdService {
            algorithm: config.kind.build(config.space),
            roots: SeedTree::new(config.master_seed),
            obs: LeaseObs::new(&registry, std::sync::Arc::clone(&trace)),
            config,
            shards,
            audit_txs,
            audit,
            started_ns: clock::monotonic_ns(),
            registry,
            trace,
        }
    }

    /// The service's metric registry. Front-ends (the TCP server, the
    /// stress driver) register their own families here too, so one
    /// scrape covers the whole node.
    pub fn registry(&self) -> std::sync::Arc<Registry> {
        std::sync::Arc::clone(&self.registry)
    }

    /// The service's corr-id trace recorder (a no-op recorder when
    /// [`ServiceConfig::obs_trace`] is off).
    pub fn trace(&self) -> std::sync::Arc<TraceRecorder> {
        std::sync::Arc::clone(&self.trace)
    }

    /// Where this service's flight-recorder dumps land, if anywhere.
    pub fn flight_dir(&self) -> Option<&PathBuf> {
        self.config.durability.as_ref().map(|d| &d.dir)
    }

    /// Dumps a flight-recorder file (registry snapshot + recent trace
    /// events + the focus span's timeline) into the durability state
    /// dir. Returns the dump path, or `None` when the service has no
    /// state dir or the write failed (a postmortem aid must never take
    /// the service down with it).
    pub fn dump_flight(&self, reason: &str, focus_corr: Option<u64>) -> Option<PathBuf> {
        let dir = self.flight_dir()?;
        uuidp_obs::dump_flight(
            dir,
            reason,
            &self.registry.snapshot(),
            &self.trace,
            focus_corr,
        )
        .ok()
    }

    /// The service's ID universe.
    pub fn space(&self) -> IdSpace {
        self.config.space
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of audit pipeline threads (after stripe-count clamping).
    pub fn audit_threads(&self) -> usize {
        self.audit.len()
    }

    /// Runs `f` on `tenant`'s shard under the shard's lock, on the
    /// calling thread. The lock is held across everything a lease does,
    /// the write-ahead save and the audit tap's sends included: that is
    /// what orders a tenant's leases, its persists and its audit records
    /// alike, and what puts a [`summary`](IdService::summary)'s audit
    /// probes behind every record its accounting counted.
    ///
    /// # Panics
    ///
    /// Panics unless `tenant < 2^`[`TENANT_BITS`], and on a shard whose
    /// lock a panicking lease poisoned.
    fn with_shard<R>(&self, tenant: u64, f: impl FnOnce(&mut Shard) -> R) -> R {
        if let Err(e) = check_tenant(tenant) {
            panic!("{e}");
        }
        let shard = &self.shards[(tenant % self.shards.len() as u64) as usize];
        let _order = lockorder::track("service.shard");
        let mut shard = shard.lock().expect("shard lock");
        f(&mut shard)
    }

    /// Locks each shard in turn and runs `visit` on it: every lease that
    /// held a shard's lock before the sweep reached it is done.
    fn sweep(&self, mut visit: impl FnMut(&mut Shard)) {
        for shard in &self.shards {
            let _order = lockorder::track("service.shard");
            visit(&mut shard.lock().expect("shard lock"));
        }
    }

    /// Synchronously leases `count` IDs for `tenant`, on the calling
    /// thread.
    ///
    /// # Panics
    ///
    /// Panics unless `tenant < 2^`[`TENANT_BITS`].
    pub fn lease(&self, tenant: u64, count: u128) -> LeaseReply {
        self.lease_with(tenant, count, 0, |served| LeaseReply {
            tenant,
            arcs: served.arcs.to_vec(),
            granted: served.granted,
            error: served.error,
            halted: served.halted,
        })
    }

    /// Serves one lease on the calling thread and hands it to `answer`
    /// under the tenant's shard lock: after the `worker-emit` stamp and
    /// before the audit tee, so a wire answer's `reply-sent` stamp
    /// precedes every `audit-record` of the lease. `corr` is the wire
    /// correlation id the lease's trace events join (0 = in-process).
    pub(crate) fn lease_with<R>(
        &self,
        tenant: u64,
        count: u128,
        corr: u64,
        answer: impl FnOnce(Served<'_>) -> R,
    ) -> R {
        self.with_shard(tenant, |shard| {
            self.serve(shard, tenant, count, corr, answer)
        })
    }

    /// Fire-and-forget lease (stress traffic): the IDs are issued,
    /// audited, and counted, but not shipped back.
    ///
    /// # Panics
    ///
    /// Panics unless `tenant < 2^`[`TENANT_BITS`].
    pub fn issue(&self, tenant: u64, count: u128) {
        self.lease_with(tenant, count, 0, |_| ())
    }

    /// Recycles `tenant`'s generator into a fresh epoch (allocation-free
    /// [`IdGenerator::reset`] under a fresh seed). The audit treats the
    /// new epoch as a new owner, so pre/post-reset overlap is flagged.
    ///
    /// # Panics
    ///
    /// Panics unless `tenant < 2^`[`TENANT_BITS`].
    ///
    /// [`IdGenerator::reset`]: uuidp_core::traits::IdGenerator::reset
    pub fn reset_tenant(&self, tenant: u64) {
        self.with_shard(tenant, |shard| {
            if let Some(slot) = shard.tenants.get_mut(&tenant) {
                slot.epoch += 1;
                slot.generator.reset(self.tenant_seed(tenant, slot.epoch));
                slot.lease.clear();
                // A reset opens a new permutation; persist it before
                // anything from the new epoch can be emitted, or a crash
                // would recover the pre-reset stream while post-reset
                // IDs are already in the wild.
                if let Some(d) = &shard.durability {
                    d.persist(self.config.space, tenant, slot, 0);
                }
            }
        })
    }

    /// Persists every durable tenant's *current* state as an
    /// exact-resume checkpoint (reservation 0) and blocks until done,
    /// tenants boot recovered and nothing has leased since included.
    /// A restart after a clean `checkpoint` resumes every stream with
    /// zero leaked IDs; without one, recovery abandons each tenant's
    /// open reservation window instead. No-op when durability is off.
    pub fn checkpoint(&self) {
        self.sweep(|shard| {
            if let Some(d) = &shard.durability {
                for (&tenant, slot) in shard.tenants.iter_mut() {
                    d.persist(self.config.space, tenant, slot, 0);
                }
            }
        });
    }

    /// Blocks until every lease in flight on another thread when the
    /// call began is served (the audit pipeline may still be draining).
    /// A caller's own requests are served before they return.
    pub fn drain(&self) {
        self.sweep(|_| {});
    }

    /// A live snapshot of the service's accounting — the same shape as
    /// the shutdown report, without stopping anything.
    ///
    /// The snapshot is *consistent*: one sweep over the shards' locks
    /// reads their accounting, and each lease routes its audit records
    /// under the same lock that counts it, so only then are the audit
    /// threads probed — FIFO channels put each probe behind every record
    /// those leases produced. So for a quiesced service, `recorded_ids`
    /// equals `issued_ids` exactly; under live traffic the snapshot
    /// covers at least everything served before the call.
    pub fn summary(&self) -> ServiceReport {
        let mut stats = ShardStats::default();
        self.sweep(|shard| stats.add(&shard.stats));
        let probes: Vec<Receiver<AuditThreadReport>> = self
            .audit_txs
            .iter()
            .map(|tx| {
                let (reply, rx) = sync_channel(1);
                tx.send(AuditMsg::Probe { reply }).expect("audit alive");
                rx
            })
            .collect();
        let audit = AuditReport::merge(
            probes
                .into_iter()
                .map(|rx| rx.recv().expect("audit alive"))
                .collect(),
        );
        stats.report(audit, self.started_ns)
    }

    /// Stops the service: drops the shards (and with them the audit
    /// record taps), joins the audit pipeline, and aggregates the
    /// accounting.
    pub fn shutdown(self) -> ServiceReport {
        let mut stats = ShardStats::default();
        for shard in self.shards {
            stats.add(&shard.into_inner().expect("shard lock").stats);
        }
        // The shards' record taps are gone; dropping the probe taps
        // lets the audit threads run dry and exit.
        drop(self.audit_txs);
        let audit = AuditReport::merge(
            self.audit
                .into_iter()
                .map(|h| h.join().expect("audit panicked"))
                .collect(),
        );
        // An audit that found duplicates is exactly the postmortem the
        // flight recorder exists for: dump before the evidence dies
        // with the process.
        if audit.counts.duplicate_ids > 0 {
            if let Some(d) = &self.config.durability {
                let _ = uuidp_obs::dump_flight(
                    &d.dir,
                    "audit-duplicate",
                    &self.registry.snapshot(),
                    &self.trace,
                    None,
                );
            }
        }
        stats.report(audit, self.started_ns)
    }

    fn tenant_seed(&self, tenant: u64, epoch: u32) -> u64 {
        // Fault injection: the twin draws the victim's seed material.
        let effective = match self.config.seed_alias {
            Some((victim, twin)) if tenant == twin => victim,
            _ => tenant,
        };
        self.roots
            .trial(epoch as u64)
            .seed(SeedDomain::Instance(effective))
    }

    /// Serves one lease under `shard`'s lock: fill from the tenant's
    /// recycled generator (a fresh epoch-0 one for a tenant the shard
    /// has not seen; boot already handed the shard every tenant it
    /// recovered), hand it to `answer`, route the lease's stripe pieces
    /// to the audit threads that own them, and account it.
    ///
    /// With durability on, the write-ahead rule runs first: if this lease
    /// would emit past the tenant's reservation frontier, a fresh record is
    /// persisted *before* any ID leaves the generator. [`Served::halted`]
    /// is the crash-injection hook: it means this lease's write-ahead
    /// persist was the configured `halt_after_persists`-th one, and the
    /// node should now die *without replying* — note that the fill still
    /// runs first, so the "possibly in the wild" IDs recovery must skip
    /// really were emitted.
    fn serve<R>(
        &self,
        shard: &mut Shard,
        tenant: u64,
        count: u128,
        corr: u64,
        answer: impl FnOnce(Served<'_>) -> R,
    ) -> R {
        let t0 = clock::monotonic_ns();
        let slot = shard.tenants.entry(tenant).or_insert_with(|| TenantSlot {
            generator: self.algorithm.spawn(self.tenant_seed(tenant, 0)),
            lease: Lease::new(self.config.space),
            epoch: 0,
            frontier: 0,
            seq: 0,
        });
        let obs = &self.obs;
        let mut halted = false;
        if let Some(d) = &shard.durability {
            // Saturating: the protocol accepts arbitrary u128 counts, and a
            // wrapped sum here would skip exactly the persist the recovery
            // guarantee depends on.
            if slot.generator.generated().saturating_add(count) > slot.frontier {
                d.persist(self.config.space, tenant, slot, count.max(d.reservation));
                halted = d.note_write_ahead();
                obs.persists.inc();
                obs.trace.record(
                    corr,
                    tenant,
                    Stage::WorkerPersist,
                    if halted {
                        "write-ahead (halt hook)"
                    } else {
                        "write-ahead"
                    },
                    clock::monotonic_ns(),
                );
            }
        }
        let error = slot.lease.fill(slot.generator.as_mut(), count).err();
        let granted = slot.lease.granted();
        let failed = error.is_some();
        let emitted = clock::monotonic_ns();
        // Per-lease happy-path stamps only for real (wire) correlation
        // ids: corr-0 emissions cannot join a span — they'd collapse into
        // one shared timeline — so recording them only evicts the events
        // the flight recorder exists to keep (persists, duplicates,
        // connection milestones). Stamped before the audit tee, so no
        // `audit-record` can precede it.
        if corr != 0 && obs.trace.sampled(corr) {
            obs.trace
                .record(corr, tenant, Stage::WorkerEmit, "lease", emitted);
        }
        let answer = answer(Served {
            tenant,
            arcs: slot.lease.arcs(),
            granted,
            error,
            halted,
        });
        // The answer (reply copy or wire encoding) is off the
        // issue-latency clock.
        let answered = clock::monotonic_ns();
        if granted > 0 {
            shard
                .tap
                .send(owner_key(tenant, slot.epoch), slot.lease.arcs(), corr);
        }
        let issue_ns = emitted.saturating_sub(t0) + clock::monotonic_ns().saturating_sub(answered);
        let stats = &mut shard.stats;
        stats.latency.record(Duration::from_nanos(issue_ns));
        stats.issued_ids += granted;
        stats.leases += 1;
        stats.errors += failed as u64;
        obs.latency.record_ns(issue_ns);
        obs.leases.inc();
        obs.issued.add(granted.min(u64::MAX as u128) as u64);
        if failed {
            obs.errors.inc();
        }
        answer
    }
}

/// The service's one recovery point. Opens the shard logs under
/// `durability.dir` and returns, for each shard `i`, its own log
/// (`shard-<i>/`) and the tenants it owns, restored from the state dir.
///
/// Every log in the directory is read, including logs left by a run
/// with another shard count, and every record must carry the configured
/// universe and `kind`, the kind the configured algorithm's own
/// snapshots report (so `cluster*:2` and `cluster*` share records, and
/// `bins*` and `bins*:maxfit` do not). Each tenant's highest-`seq`
/// record, in whichever log holds it, is rebuilt with
/// [`persist::recover`], and shard `tenant % shards` gets the restored
/// slot, frontier at its count. Nothing is copied between logs and no
/// log is deleted: the next boot again takes the highest `seq`.
///
/// # Panics
///
/// On an unreadable log, a damaged entry, a foreign record, a record
/// that does not restore, or a per-tenant `tenant-*.snap` file from the
/// older one-file-per-tenant layout (booting over one as if the
/// directory were empty would re-issue its IDs).
fn recover_shards(
    config: &ServiceConfig,
    kind: &AlgorithmKind,
    durability: &DurabilityConfig,
) -> Vec<(SnapshotStore, HashMap<u64, TenantSlot>)> {
    let dir = &durability.dir;
    let damaged = |path: &std::path::Path, e: persist::PersistError| -> ! {
        panic!("refusing to start over a damaged snapshot store: {path:?}: {e}")
    };
    let open = |path: PathBuf| {
        SnapshotStore::with_sync(&path, durability.sync).unwrap_or_else(|e| damaged(&path, e))
    };
    let mut found: BTreeMap<usize, SnapshotStore> = BTreeMap::new();
    match std::fs::read_dir(dir) {
        Ok(entries) => {
            for entry in entries {
                let name = entry.expect("state directory listing").file_name();
                let name = name.to_string_lossy();
                assert!(
                    !(name.starts_with("tenant-") && name.ends_with(".snap")),
                    "refusing to start over {:?}: a per-tenant snapshot from the \
                     one-file-per-tenant layout, which this service does not read \
                     (it keeps one log per shard under shard-<i>/)",
                    dir.join(&*name)
                );
                if let Some(shard) = name.strip_prefix("shard-").and_then(|i| i.parse().ok()) {
                    found.insert(shard, open(dir.join(&*name)));
                }
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => panic!("snapshot directory {dir:?}: {e}"),
    }
    let mut newest: BTreeMap<u64, SnapshotRecord> = BTreeMap::new();
    for store in found.values() {
        let records = store.records().unwrap_or_else(|e| damaged(store.dir(), e));
        for (tenant, record) in records {
            // A record from a different universe or algorithm means the
            // state dir belongs to another deployment: recovering it
            // would emit IDs outside this service's space (wedging the
            // audit) or from the wrong permutation family.
            assert_eq!(
                record.space, config.space,
                "snapshot store {dir:?} was written for universe {}, \
                 this service is configured for {} (tenant {tenant})",
                record.space, config.space
            );
            assert!(
                record.state.kind == *kind,
                "snapshot store {dir:?} holds {:?} state for tenant \
                 {tenant}, incompatible with configured {:?}",
                record.state.kind,
                config.kind
            );
            if newest.get(&tenant).is_none_or(|held| held.seq < record.seq) {
                newest.insert(tenant, record);
            }
        }
    }
    let mut shards: Vec<(SnapshotStore, HashMap<u64, TenantSlot>)> = (0..config.shards)
        .map(|shard| {
            let store = found
                .remove(&shard)
                .unwrap_or_else(|| open(dir.join(format!("shard-{shard}"))));
            (store, HashMap::new())
        })
        .collect();
    for (tenant, record) in newest {
        let generator = persist::recover(&record).unwrap_or_else(|e| {
            panic!("refusing to start over tenant {tenant}'s record in {dir:?}: {e}")
        });
        let slot = TenantSlot {
            frontier: generator.generated(),
            generator,
            lease: Lease::new(config.space),
            epoch: record.epoch,
            seq: record.seq,
        };
        shards[(tenant % config.shards as u64) as usize]
            .1
            .insert(tenant, slot);
    }
    shards
}

fn owner_key(tenant: u64, epoch: u32) -> u64 {
    ((epoch as u64) << TENANT_BITS) | tenant
}

/// The lease path's shared metric/trace handles: registered once at
/// startup, bumped with relaxed atomics on the hot path. Every counter
/// here is a pure fold of the request script (never of timing), so
/// same-seed twin runs reproduce them bit-identically.
struct LeaseObs {
    leases: std::sync::Arc<Counter>,
    issued: std::sync::Arc<Counter>,
    errors: std::sync::Arc<Counter>,
    persists: std::sync::Arc<Counter>,
    latency: std::sync::Arc<AtomicHistogram>,
    trace: std::sync::Arc<TraceRecorder>,
}

impl LeaseObs {
    fn new(registry: &Registry, trace: std::sync::Arc<TraceRecorder>) -> LeaseObs {
        LeaseObs {
            leases: registry.counter("uuidp_leases_total"),
            issued: registry.counter("uuidp_ids_issued_total"),
            errors: registry.counter("uuidp_lease_errors_total"),
            persists: registry.counter("uuidp_persists_total"),
            latency: registry.histogram("uuidp_lease_latency_ns"),
            trace,
        }
    }
}

/// One audit thread's metric/trace handles.
struct AuditObs {
    records: std::sync::Arc<Counter>,
    duplicate_ids: std::sync::Arc<Gauge>,
    segments: std::sync::Arc<Gauge>,
    trace: std::sync::Arc<TraceRecorder>,
}

/// One shard's routing state: the audit taps plus the shared stripe
/// geometry and a reusable per-shard segment batch buffer.
struct AuditTap {
    taps: Vec<SyncSender<AuditMsg>>,
    plan: StripePlan,
    /// `batches[t]` collects the current lease's pieces bound for audit
    /// thread `t`; drained into messages after each lease.
    batches: Vec<Vec<(u128, u128)>>,
}

impl AuditTap {
    /// Cuts the lease's arcs along the stripe plan and ships each audit
    /// thread the pieces of the stripes it owns (skipping empty batches).
    fn send(&mut self, owner: u64, arcs: &[Arc], corr: u64) {
        let threads = self.taps.len();
        for &arc in arcs {
            self.plan.split(arc, &mut |stripe, lo, hi| {
                self.batches[stripe % threads].push((lo, hi));
            });
        }
        let sent_ns = clock::monotonic_ns();
        for (t, batch) in self.batches.iter_mut().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let _ = self.taps[t].send(AuditMsg::Record(AuditRecord {
                owner,
                segments: std::mem::take(batch),
                sent_ns,
                corr,
            }));
        }
    }
}

/// One shard's durability state: the shard's own snapshot log plus the
/// configured minimum reservation window and the cross-shard
/// write-ahead persist counter behind the crash-injection hook.
struct Durability {
    store: SnapshotStore,
    reservation: u128,
    persists: std::sync::Arc<AtomicU64>,
    halt_after: Option<u64>,
}

impl Durability {
    /// Persists `slot`'s current state for `tenant` with the given
    /// reservation window and advances the slot's frontier/sequence.
    /// Persistence failures are fatal: continuing to issue without the
    /// write-ahead record would silently void the recovery guarantee.
    fn persist(&self, space: IdSpace, tenant: u64, slot: &mut TenantSlot, reservation: u128) {
        let state = slot
            .generator
            .snapshot()
            .expect("snapshot support checked at startup");
        slot.seq += 1;
        self.store
            .save(
                tenant,
                &SnapshotRecord {
                    seq: slot.seq,
                    epoch: slot.epoch,
                    reservation,
                    space,
                    state,
                },
            )
            .expect("persist tenant snapshot");
        // Saturating: a wire-supplied count near u128::MAX must clamp
        // the frontier, not wrap it below `generated` (which would
        // silently skip future write-ahead persists).
        slot.frontier = slot.generator.generated().saturating_add(reservation);
    }

    /// Counts one write-ahead persist toward the crash-injection hook;
    /// `true` means this is the persist the node must "die" after.
    fn note_write_ahead(&self) -> bool {
        let n = self.persists.fetch_add(1, Ordering::SeqCst) + 1;
        self.halt_after == Some(n)
    }
}

/// Most pieces one audit batch takes: an audit thread drains the
/// records queued behind the first one until their pieces reach this,
/// which bounds the batch's sort buffer (48 bytes a piece). A record
/// with more pieces than this, as a Random lease of more IDs has, is
/// recorded alone, and its sort buffer is as large as it.
const AUDIT_BATCH_PIECES: usize = 1 << 13;

/// One audit pipeline thread. It allocates the full stripe array (empty
/// stripes are a few machine words each) but only ever receives pieces
/// of the stripes it owns, so the per-thread working sets stay disjoint
/// and the merged counters are interleaving-invariant.
///
/// Each pass takes one message and, behind a record, the records already
/// queued (up to [`AUDIT_BATCH_PIECES`] pieces, never past a probe), and
/// records them with one [`LeaseAudit::record_batch`]; a probe is
/// answered after the records queued before it. Lag, the record counter,
/// the duplicate gauge and the `audit-record` stamp stay per message.
fn audit_loop(
    space: IdSpace,
    stripes: usize,
    rx: Receiver<AuditMsg>,
    obs: AuditObs,
) -> AuditThreadReport {
    let mut audit = LeaseAudit::new(space, stripes);
    let mut max_lag = Duration::ZERO;
    let mut lag_sum_ns = 0u128;
    let mut records = 0u64;
    let report = |audit: &LeaseAudit, max_lag, lag_sum_ns: u128, records: u64| AuditThreadReport {
        counts: audit.counts(),
        max_lag,
        mean_lag_ns: if records == 0 {
            0.0
        } else {
            lag_sum_ns as f64 / records as f64
        },
        records,
    };
    let mut batch: Vec<AuditRecord> = Vec::new();
    let mut dups: Vec<u128> = Vec::new();
    while let Ok(first) = rx.recv() {
        let (mut next, mut pieces, mut probe) = (Some(first), 0, None);
        while let Some(msg) = next.take() {
            match msg {
                AuditMsg::Record(record) => {
                    pieces += record.segments.len();
                    batch.push(record);
                    if pieces < AUDIT_BATCH_PIECES {
                        next = rx.try_recv().ok();
                    }
                }
                AuditMsg::Probe { reply } => probe = Some(reply),
            }
        }
        if !batch.is_empty() {
            let now = clock::monotonic_ns();
            for record in &batch {
                let lag = Duration::from_nanos(now.saturating_sub(record.sent_ns));
                max_lag = max_lag.max(lag);
                lag_sum_ns += lag.as_nanos();
            }
            records += batch.len() as u64;
            let messages: Vec<(u64, &[(u128, u128)])> = batch
                .iter()
                .map(|r| (r.owner, r.segments.as_slice()))
                .collect();
            dups.clear();
            dups.resize(batch.len(), 0);
            let held = audit.segments();
            audit.record_batch(&messages, &mut dups);
            // Both gauges are cross-thread sums of each thread's
            // stripe-subset totals; move them by this batch's deltas.
            obs.segments.add(audit.segments() as i64 - held as i64);
            obs.records.add(batch.len() as u64);
            for (record, &dup) in batch.iter().zip(&dups) {
                if dup > 0 {
                    obs.duplicate_ids.add(dup.min(i64::MAX as u128) as i64);
                    obs.trace.record(
                        record.corr,
                        record.owner,
                        Stage::AuditRecord,
                        "duplicate",
                        clock::monotonic_ns(),
                    );
                } else if record.corr != 0 && obs.trace.sampled(record.corr) {
                    // Clean audit legs stamp only for wire corrs, like
                    // the worker-emit stamp: a corr-0 "clean" is ring
                    // spam. Duplicates above always record — they are
                    // exactly what the ring is for.
                    obs.trace.record(
                        record.corr,
                        record.owner,
                        Stage::AuditRecord,
                        "clean",
                        clock::monotonic_ns(),
                    );
                }
            }
            batch.clear();
        }
        if let Some(reply) = probe {
            let _ = reply.send(report(&audit, max_lag, lag_sum_ns, records));
        }
    }
    report(&audit, max_lag, lag_sum_ns, records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uuidp_core::id::Id;

    fn config(kind: AlgorithmKind, bits: u32) -> ServiceConfig {
        ServiceConfig::new(kind, IdSpace::with_bits(bits).unwrap())
    }

    /// Expands a reply's arcs into scalar IDs, in emission order.
    fn ids_of(reply: &LeaseReply, space: IdSpace) -> Vec<Id> {
        reply
            .arcs
            .iter()
            .flat_map(|a| (0..a.len).map(move |i| a.nth(space, i)))
            .collect()
    }

    #[test]
    fn the_issued_counter_saturates_past_u64_max() {
        // Each lease's add is clamped to u64::MAX; the running total must
        // saturate too, or three 2^63-ID leases would wrap it to 2^63.
        let service = IdService::start(config(AlgorithmKind::Cluster, 100));
        for _ in 0..3 {
            assert_eq!(service.lease(1, 1 << 63).granted, 1 << 63);
        }
        let issued = service.registry().counter("uuidp_ids_issued_total").get();
        drop(service.shutdown());
        assert_eq!(issued, u64::MAX);
    }

    #[test]
    fn leases_match_direct_generator_streams() {
        let cfg = config(AlgorithmKind::ClusterStar, 32);
        let space = cfg.space;
        let service = IdService::start(cfg.clone());
        let mut streams: HashMap<u64, Vec<Id>> = HashMap::new();
        for round in 0..10u128 {
            for tenant in 0..5u64 {
                let reply = service.lease(tenant, 16 + round);
                assert!(reply.error.is_none());
                assert_eq!(reply.granted, 16 + round);
                streams
                    .entry(tenant)
                    .or_default()
                    .extend(ids_of(&reply, space));
            }
        }
        let report = service.shutdown();
        assert_eq!(report.leases, 50);
        assert!(!report.audit.counts.collided(), "independent tenants");
        // Every tenant's leased stream equals its direct generator stream.
        let alg = cfg.kind.build(space);
        let roots = SeedTree::new(cfg.master_seed);
        for (tenant, stream) in streams {
            let mut gen = alg.spawn(roots.trial(0).seed(SeedDomain::Instance(tenant)));
            for (i, id) in stream.iter().enumerate() {
                assert_eq!(*id, gen.next_id().unwrap(), "tenant {tenant} id {i}");
            }
        }
    }

    #[test]
    fn per_tenant_streams_are_shard_count_invariant() {
        // The satellite concurrency guarantee: a fixed request script
        // yields bit-identical per-tenant ID streams and audit totals for
        // every worker-shard count, mirroring the Monte-Carlo engine's
        // thread-count invariance.
        let tenants = 6u64;
        let script: Vec<(u64, u128)> = (0..60)
            .map(|r| ((r * 7 + 3) % tenants, 8 + (r as u128 % 5) * 13))
            .collect();
        let mut reference: Option<(HashMap<u64, Vec<Id>>, AuditCounts)> = None;
        for shards in [1usize, 2, 3, 5] {
            let mut cfg = config(AlgorithmKind::BinsStar, 40);
            cfg.shards = shards;
            let space = cfg.space;
            let service = IdService::start(cfg);
            let mut streams: HashMap<u64, Vec<Id>> = HashMap::new();
            for &(tenant, count) in &script {
                let reply = service.lease(tenant, count);
                streams
                    .entry(tenant)
                    .or_default()
                    .extend(ids_of(&reply, space));
            }
            service.drain();
            let report = service.shutdown();
            match &reference {
                None => reference = Some((streams, report.audit.counts)),
                Some((ref_streams, ref_counts)) => {
                    assert_eq!(ref_streams, &streams, "{shards} shards changed IDs");
                    assert_eq!(
                        ref_counts, &report.audit.counts,
                        "{shards} shards changed audit"
                    );
                }
            }
        }
    }

    #[test]
    fn audit_totals_are_audit_thread_invariant() {
        // The tentpole determinism guarantee: the same request script
        // yields bit-identical audit counters for every audit-thread
        // count (stripes are disjoint across threads, counters are
        // order-invariant within a stripe). A small universe forces real
        // cross-tenant duplicates so the counter is non-trivial.
        // (`recorded_arcs` counts post-split segments and `flagged_records`
        // is an arrival-order diagnostic, so only the interleaving-invariant
        // counters are pinned across the grid.)
        let script: Vec<(u64, u128)> = (0..80)
            .map(|r| ((r * 5 + 1) % 7, 16 + (r as u128 % 6) * 9))
            .collect();
        let mut reference: Option<(u128, u128, u128)> = None;
        for threads in [1usize, 2, 5] {
            for stripes in [1usize, 16] {
                let mut cfg = config(AlgorithmKind::Cluster, 11); // m = 2048
                cfg.shards = 3;
                cfg.audit_stripes = stripes;
                cfg.audit_threads = threads;
                let service = IdService::start(cfg);
                for &(tenant, count) in &script {
                    service.issue(tenant, count);
                }
                service.drain();
                let report = service.shutdown();
                assert!(report.audit.counts.collided(), "tiny universe must collide");
                let got = (
                    report.issued_ids,
                    report.audit.counts.duplicate_ids,
                    report.audit.counts.recorded_ids,
                );
                match &reference {
                    None => reference = Some(got),
                    Some(r) => assert_eq!(
                        r, &got,
                        "{threads} audit threads x {stripes} stripes changed totals"
                    ),
                }
            }
        }
    }

    #[test]
    fn a_drained_backlog_matches_a_sequential_replay() {
        // The test thread leases without waiting for the audit, so the
        // audit threads find records queued and record them in batches.
        // Random over 2^16 makes birthday collisions certain.
        let mut reference = None;
        for threads in [1usize, 2, 5] {
            let mut cfg = config(AlgorithmKind::Random, 16);
            cfg.shards = 3;
            cfg.audit_threads = threads;
            let space = cfg.space;
            let service = IdService::start(cfg);
            let leases: Vec<(u64, Vec<Arc>)> = (0..2000u64)
                .map(|r| (r % 16, service.lease(r % 16, 64).arcs))
                .collect();
            let report = service.summary();
            // A probe is answered after every record queued before it, so
            // no batch drained behind it was left out.
            assert_eq!(report.audit.counts.recorded_ids, report.issued_ids);
            assert_eq!(report.issued_ids, 2000 * 64);
            let mut replay = LeaseAudit::new(space, 16);
            for (tenant, arcs) in &leases {
                for &arc in arcs {
                    replay.record(owner_key(*tenant, 0), arc);
                }
            }
            let duplicate_ids = report.audit.counts.duplicate_ids;
            assert!(duplicate_ids > 0, "2^16 universe must collide");
            assert_eq!(
                duplicate_ids,
                replay.counts().duplicate_ids,
                "{threads} audit threads"
            );
            match reference {
                None => reference = Some(duplicate_ids),
                Some(r) => assert_eq!(r, duplicate_ids, "{threads} audit threads"),
            }
            drop(service.shutdown());
        }
    }

    #[test]
    fn the_segment_gauge_counts_what_the_audit_holds() {
        // Random over 2^64: every ID is its own segment, so the gauge,
        // moved by each batch's delta on two threads, must sum to the
        // IDs issued.
        let mut cfg = config(AlgorithmKind::Random, 64);
        cfg.audit_threads = 2;
        let service = IdService::start(cfg);
        for r in 0..200u64 {
            service.issue(r % 8, 64);
        }
        let report = service.summary();
        let gauge = service.registry().gauge("uuidp_audit_segments");
        assert_eq!(report.issued_ids, 200 * 64);
        assert_eq!(gauge.get() as u128, report.issued_ids);
        drop(service.shutdown());

        // One Cluster tenant's run grows its one segment in place.
        let service = IdService::start(config(AlgorithmKind::Cluster, 48));
        let gauge = service.registry().gauge("uuidp_audit_segments");
        service.issue(0, 100);
        service.summary();
        let first = gauge.get();
        for _ in 0..500 {
            service.issue(0, 100);
        }
        let report = service.summary();
        assert_eq!(report.audit.counts.recorded_ids, 501 * 100);
        assert_eq!((first, gauge.get()), (1, 1));
        drop(service.shutdown());
    }

    #[test]
    fn merged_report_equals_the_single_thread_report() {
        // Metrics honesty: with one audit thread the merged aggregate is
        // exactly that thread's report — same counts, lag, and records.
        let cfg = config(AlgorithmKind::ClusterStar, 32);
        let service = IdService::start(cfg);
        for tenant in 0..6u64 {
            service.issue(tenant, 300);
        }
        service.drain();
        let report = service.shutdown();
        assert_eq!(report.audit.per_thread.len(), 1);
        let t = &report.audit.per_thread[0];
        assert_eq!(report.audit.counts, t.counts);
        assert_eq!(report.audit.max_lag, t.max_lag);
        assert_eq!(report.audit.mean_lag_ns, t.mean_lag_ns);
        assert_eq!(report.audit.records, t.records);
    }

    #[test]
    fn per_thread_breakdown_is_consistent_with_the_aggregate() {
        let mut cfg = config(AlgorithmKind::BinsStar, 36);
        cfg.audit_stripes = 32;
        cfg.audit_threads = 4;
        cfg.shards = 2;
        let service = IdService::start(cfg);
        assert_eq!(service.audit_threads(), 4);
        for r in 0..40u64 {
            service.issue(r % 5, 200);
        }
        service.drain();
        let report = service.shutdown();
        let audit = &report.audit;
        assert_eq!(audit.per_thread.len(), 4);
        let merged = audit
            .per_thread
            .iter()
            .fold(AuditCounts::default(), |acc, t| acc.merge(&t.counts));
        assert_eq!(audit.counts, merged);
        assert_eq!(
            audit.records,
            audit.per_thread.iter().map(|t| t.records).sum::<u64>()
        );
        assert_eq!(
            audit.max_lag,
            audit.per_thread.iter().map(|t| t.max_lag).max().unwrap()
        );
        // Bins* footprints spread across the universe, so with 32 stripes
        // every thread should have seen material.
        assert!(
            audit.per_thread.iter().all(|t| t.records > 0),
            "a stripe-subset thread starved: {:?}",
            audit.per_thread
        );
        assert_eq!(audit.counts.recorded_ids, report.issued_ids);
    }

    #[test]
    fn audit_threads_clamp_to_the_stripe_count() {
        let mut cfg = config(AlgorithmKind::Cluster, 20);
        cfg.audit_stripes = 2;
        cfg.audit_threads = 16;
        let service = IdService::start(cfg);
        assert_eq!(service.audit_threads(), 2);
        service.issue(0, 64);
        service.drain();
        let report = service.shutdown();
        assert_eq!(report.issued_ids, 64);
        assert_eq!(report.audit.per_thread.len(), 2);
    }

    #[test]
    fn injected_twin_tenants_are_flagged_with_exact_measure() {
        // Zero-false-negative check: tenant 9 is seeded as tenant 0, so
        // every ID it leases duplicates tenant 0's stream.
        let mut cfg = config(AlgorithmKind::Cluster, 48);
        cfg.seed_alias = Some((0, 9));
        cfg.shards = 3;
        cfg.audit_threads = 3; // the duplicates must survive routing
        let service = IdService::start(cfg);
        let per_lease = 512u128;
        let leases = 8u128;
        for _ in 0..leases {
            service.issue(0, per_lease);
            service.issue(9, per_lease);
        }
        service.drain();
        let report = service.shutdown();
        assert!(report.audit.counts.collided(), "audit missed twin tenants");
        assert_eq!(
            report.audit.counts.duplicate_ids,
            per_lease * leases,
            "every twin-issued ID is a duplicate, counted exactly once"
        );
        assert_eq!(report.issued_ids, 2 * per_lease * leases);
    }

    #[test]
    fn reset_tenant_opens_a_new_epoch_and_audits_across_it() {
        // A reset Cluster tenant re-draws its start uniformly; on a tiny
        // universe the pre- and post-reset clusters overlap with high
        // probability, and the audit must catch that *self*-aliasing.
        let mut cfg = config(AlgorithmKind::Cluster, 8); // m = 256
        cfg.shards = 1;
        let service = IdService::start(cfg);
        service.issue(0, 200);
        service.reset_tenant(0);
        service.issue(0, 200);
        service.drain();
        let report = service.shutdown();
        // 200 + 200 IDs in a 256 universe: ≥ 144 duplicates, guaranteed.
        assert!(report.audit.counts.duplicate_ids >= 144);
        assert_eq!(report.issued_ids, 400);
    }

    #[test]
    fn partial_grants_surface_the_generator_error() {
        let mut cfg = config(AlgorithmKind::Random, 4); // m = 16
        cfg.shards = 1;
        let service = IdService::start(cfg);
        let reply = service.lease(3, 100);
        assert_eq!(reply.granted, 16);
        assert!(matches!(
            reply.error,
            Some(GeneratorError::Exhausted { generated: 16 })
        ));
        let report = service.shutdown();
        assert_eq!(report.errors, 1);
        assert_eq!(report.issued_ids, 16);
    }

    fn temp_state_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("uuidp-service-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Expands a reply into scalar IDs (durability tests use small leases).
    fn lease_ids(service: &IdService, tenant: u64, count: u128) -> Vec<Id> {
        let reply = service.lease(tenant, count);
        assert!(reply.error.is_none());
        ids_of(&reply, service.space())
    }

    #[test]
    fn crash_restart_with_durability_never_reissues_an_id() {
        // Run 1 "crashes": it persisted write-ahead records during
        // operation but never checkpoints its final state. Run 2 must
        // recover past everything run 1 can have emitted.
        let dir = temp_state_dir("crash");
        for (kind, sync) in [
            AlgorithmKind::Cluster,
            AlgorithmKind::ClusterStar,
            AlgorithmKind::ClusterStarGrowth { growth: 3 },
            AlgorithmKind::BinsStar,
            AlgorithmKind::BinsStarMaxFit,
            AlgorithmKind::Bins { k: 64 },
            AlgorithmKind::Random,
            AlgorithmKind::SessionCounter {
                session_bits: 12,
                counter_bits: 8,
            },
        ]
        .into_iter()
        .flat_map(|kind| [(kind.clone(), false), (kind, true)])
        {
            let _ = std::fs::remove_dir_all(&dir);
            let mut cfg = config(kind.clone(), 20); // m = 2^20: reuse is *likely* if unsafe
            cfg.durability = Some(DurabilityConfig {
                dir: dir.clone(),
                reservation: 128,
                sync,
                halt_after_persists: None,
            });
            cfg.shards = 2;
            let service = IdService::start(cfg.clone());
            let mut first_run: HashMap<u64, std::collections::HashSet<Id>> = HashMap::new();
            for round in 0..6u128 {
                for tenant in 0..4u64 {
                    first_run.entry(tenant).or_default().extend(lease_ids(
                        &service,
                        tenant,
                        16 + round * 7,
                    ));
                }
            }
            drop(service.shutdown()); // no checkpoint: the crash fiction

            // The guarantee is per instance: a recovered tenant never
            // repeats *its own* pre-crash IDs. (Distinct tenants still
            // collide at the algorithm's inherent rate — that is the
            // paper's subject, and the audit's job, not recovery's.)
            let service = IdService::start(cfg);
            for tenant in 0..4u64 {
                for id in lease_ids(&service, tenant, 300) {
                    assert!(
                        !first_run[&tenant].contains(&id),
                        "{kind:?} (sync {sync}): tenant {tenant} re-issued {id} after restart"
                    );
                }
            }
            drop(service.shutdown());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_makes_the_restart_resume_exactly() {
        let dir = temp_state_dir("checkpoint");
        let mut cfg = config(AlgorithmKind::ClusterStar, 32);
        cfg.durability = Some(DurabilityConfig {
            dir: dir.clone(),
            reservation: 1024,
            sync: false,
            halt_after_persists: None,
        });
        let space = cfg.space;
        let service = IdService::start(cfg.clone());
        let issued = lease_ids(&service, 5, 777);
        service.checkpoint();
        drop(service.shutdown());

        // The restarted tenant continues the same permutation with no
        // gap: its next IDs are exactly what the original seed's stream
        // says positions 777.. are.
        let service = IdService::start(cfg.clone());
        let resumed = lease_ids(&service, 5, 100);
        drop(service.shutdown());
        let alg = cfg.kind.build(space);
        let roots = SeedTree::new(cfg.master_seed);
        let mut reference = alg.spawn(roots.trial(0).seed(SeedDomain::Instance(5)));
        for _ in 0..777 {
            reference.next_id().unwrap();
        }
        for (i, id) in resumed.iter().enumerate() {
            assert_eq!(*id, reference.next_id().unwrap(), "resume diverged at {i}");
        }
        assert_eq!(issued.len(), 777);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reset_epochs_survive_a_restart() {
        // Epoch 1 is persisted at reset time, so a crash after the reset
        // recovers the *new* stream (and its epoch), not the old one.
        let dir = temp_state_dir("reset-epoch");
        let mut cfg = config(AlgorithmKind::Cluster, 24);
        cfg.shards = 1;
        cfg.durability = Some(DurabilityConfig {
            dir: dir.clone(),
            reservation: 64,
            sync: false,
            halt_after_persists: None,
        });
        let service = IdService::start(cfg.clone());
        lease_ids(&service, 0, 50);
        service.reset_tenant(0);
        let post_reset = lease_ids(&service, 0, 40);
        drop(service.shutdown());

        let service = IdService::start(cfg.clone());
        let recovered = lease_ids(&service, 0, 40);
        drop(service.shutdown());
        // The recovered stream continues epoch 1's permutation past its
        // reservation window: the post-reset persist recorded the fresh
        // state, the first post-reset lease reserved max(40, 64) = 64
        // from it, so recovery resumes at position 64.
        let alg = cfg.kind.build(cfg.space);
        let roots = SeedTree::new(cfg.master_seed);
        let mut epoch1 = alg.spawn(roots.trial(1).seed(SeedDomain::Instance(0)));
        epoch1.skip(64).unwrap();
        assert_eq!(recovered[0], epoch1.next_id().unwrap());
        assert!(recovered.iter().all(|id| !post_reset.contains(id)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reset_after_restart_opens_a_new_epoch() {
        // Boot restores every recovered tenant's slot, so a reset sent
        // before the tenant's first lease still opens epoch 1.
        let dir = temp_state_dir("reset-after-restart");
        let mut cfg = config(AlgorithmKind::Cluster, 24);
        cfg.shards = 1;
        cfg.durability = Some(DurabilityConfig {
            dir: dir.clone(),
            reservation: 64,
            sync: false,
            halt_after_persists: None,
        });
        let service = IdService::start(cfg.clone());
        lease_ids(&service, 0, 50);
        drop(service.shutdown());

        let service = IdService::start(cfg.clone());
        service.reset_tenant(0);
        let after_reset = lease_ids(&service, 0, 10);
        drop(service.shutdown());
        let alg = cfg.kind.build(cfg.space);
        let roots = SeedTree::new(cfg.master_seed);
        let mut epoch1 = alg.spawn(roots.trial(1).seed(SeedDomain::Instance(0)));
        assert_eq!(after_reset[0], epoch1.next_id().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "was written for universe")]
    fn foreign_universe_snapshots_are_rejected_at_boot() {
        // Rebinding a state dir to a different --bits must fail fast:
        // recovering 2^40-universe generators into a 2^20 service would
        // emit IDs outside the audit's space.
        let dir = temp_state_dir("foreign-universe");
        let mut cfg = config(AlgorithmKind::Cluster, 40);
        cfg.durability = Some(DurabilityConfig::new(&dir));
        let service = IdService::start(cfg);
        service.lease(0, 10);
        drop(service.shutdown());
        let mut cfg = config(AlgorithmKind::Cluster, 20);
        cfg.durability = Some(DurabilityConfig::new(&dir));
        let _ = IdService::start(cfg);
    }

    #[test]
    #[should_panic(expected = "incompatible with configured")]
    fn foreign_algorithm_snapshots_are_rejected_at_boot() {
        let dir = temp_state_dir("foreign-algorithm");
        let mut cfg = config(AlgorithmKind::Cluster, 32);
        cfg.durability = Some(DurabilityConfig::new(&dir));
        let service = IdService::start(cfg);
        service.lease(0, 10);
        drop(service.shutdown());
        let mut cfg = config(AlgorithmKind::BinsStar, 32);
        cfg.durability = Some(DurabilityConfig::new(&dir));
        let _ = IdService::start(cfg);
    }

    #[test]
    #[should_panic(expected = "damaged snapshot store")]
    fn corrupt_snapshot_records_fail_at_boot_not_mid_traffic() {
        // A bad record must stop the service from booting — not panic
        // under a shard's lock at first-lease time and wedge the shard.
        let dir = temp_state_dir("corrupt-boot");
        let mut cfg = config(AlgorithmKind::Cluster, 20);
        cfg.durability = Some(DurabilityConfig::new(&dir));
        let service = IdService::start(cfg.clone());
        service.lease(3, 10);
        drop(service.shutdown());
        // Tenant 3 lives in shard 1's log (3 % 2); damage its record.
        let log = dir.join("shard-1").join("snapshots.log");
        let mut bytes = std::fs::read(&log).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x41;
        std::fs::write(&log, bytes).unwrap();
        let _ = IdService::start(cfg);
    }

    #[test]
    fn a_record_that_does_not_restore_refuses_boot() {
        // A checksummed Cluster★ record whose count is the whole
        // universe, past what any seed's walk reaches. Boot restores
        // every tenant, so it must refuse to start, not boot and then
        // panic shard 1 at tenant 3's first lease.
        let dir = temp_state_dir("unrestorable");
        let mut cfg = config(AlgorithmKind::ClusterStar, 10); // m = 2^10
        cfg.durability = Some(DurabilityConfig::new(&dir));
        let record = SnapshotRecord {
            seq: 1,
            epoch: 0,
            reservation: 0,
            space: cfg.space,
            state: uuidp_core::state::GeneratorState {
                kind: AlgorithmKind::ClusterStar,
                seed: 7,
                generated: 1 << 10,
            },
        };
        SnapshotStore::open(dir.join("shard-1"))
            .unwrap()
            .save(3, &record)
            .unwrap();
        let boot = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| IdService::start(cfg)));
        let message = boot
            .err()
            .and_then(|panic| panic.downcast::<String>().ok())
            .expect("an unrestorable record must refuse boot");
        assert!(
            message.contains("tenant 3") && message.contains("cannot reach"),
            "{message}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "unsupported snapshot version 1")]
    fn a_version_1_snapshot_log_refuses_boot() {
        // Version 1 records held Random's whole shuffle state, version 2
        // records the runs, bins or sessions Cluster★, Bins★ and
        // SessionCounter had opened, and version 3 records per-state
        // parameters. Nothing reads them, so a state dir written in
        // those formats must not boot as if its tenants were new.
        // Versions 3 and 2 must refuse boot here; version 1 then panics
        // the test.
        for version in [3u32, 2, 1] {
            let dir = temp_state_dir(&format!("v{version}-boot"));
            let mut cfg = config(AlgorithmKind::Random, 20);
            cfg.durability = Some(DurabilityConfig::new(&dir));
            let service = IdService::start(cfg.clone());
            service.lease(3, 10);
            drop(service.shutdown());
            // Tenant 3's one entry, in shard 1's log (3 % 2), re-stamped
            // as `version` under a valid checksum.
            let log = dir.join("shard-1").join("snapshots.log");
            let mut bytes = std::fs::read(&log).unwrap();
            let record = &mut bytes[24..];
            record[8..12].copy_from_slice(&version.to_le_bytes());
            let end = record.len() - 8;
            let sum = uuidp_core::codec::fnv1a(&record[..end]);
            record[end..].copy_from_slice(&sum.to_le_bytes());
            std::fs::write(&log, bytes).unwrap();
            if version == 1 {
                let _ = IdService::start(cfg);
            } else {
                let boot = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    IdService::start(cfg)
                }));
                let message = boot
                    .err()
                    .and_then(|panic| panic.downcast::<String>().ok())
                    .expect("a version 2 or 3 log must refuse boot");
                assert!(
                    message.contains(&format!("unsupported snapshot version {version}")),
                    "{message}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "tenant-3.snap")]
    fn per_tenant_snapshot_files_refuse_boot() {
        // A state dir in the one-file-per-tenant layout must not boot as
        // if it were empty: its tenants would re-issue their IDs.
        let dir = temp_state_dir("old-layout");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("tenant-3.snap"), b"a record").unwrap();
        let mut cfg = config(AlgorithmKind::Cluster, 20);
        cfg.durability = Some(DurabilityConfig::new(&dir));
        let _ = IdService::start(cfg);
    }

    #[test]
    fn restarts_across_shard_counts_never_reissue() {
        // A tenant's record stays in the log of the shard that wrote it;
        // a restart with another shard count must still recover it.
        let dir = temp_state_dir("reshard");
        let mut issued: HashMap<u64, std::collections::HashSet<Id>> = HashMap::new();
        for (run, shards) in [2usize, 3, 1].into_iter().enumerate() {
            let mut cfg = config(AlgorithmKind::Cluster, 20);
            cfg.shards = shards;
            cfg.durability = Some(DurabilityConfig {
                dir: dir.clone(),
                reservation: 64,
                sync: false,
                halt_after_persists: None,
            });
            let service = IdService::start(cfg);
            for tenant in 0..8u64 {
                for id in lease_ids(&service, tenant, 40) {
                    assert!(
                        issued.entry(tenant).or_default().insert(id),
                        "run {run} ({shards} shards): tenant {tenant} re-issued {id}"
                    );
                }
            }
            drop(service.shutdown()); // no checkpoint
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn absurd_lease_counts_do_not_wrap_the_frontier() {
        // The wire accepts arbitrary u128 counts; the write-ahead
        // arithmetic must saturate, persist, and grant the partial
        // lease instead of wrapping past the frontier check.
        let dir = temp_state_dir("huge-count");
        let mut cfg = config(AlgorithmKind::Cluster, 10); // m = 1024
        cfg.shards = 1;
        cfg.durability = Some(DurabilityConfig {
            dir: dir.clone(),
            reservation: 64,
            sync: false,
            halt_after_persists: None,
        });
        let service = IdService::start(cfg.clone());
        let reply = service.lease(0, u128::MAX);
        assert_eq!(reply.granted, 1024, "whole universe granted");
        assert!(reply.error.is_some(), "exhaustion surfaced");
        drop(service.shutdown());
        // Recovery after the monster lease still refuses to re-emit.
        let service = IdService::start(cfg);
        let reply = service.lease(0, 10);
        assert_eq!(reply.granted, 0, "tenant is exhausted, not recycled");
        drop(service.shutdown());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "snapshot-capable")]
    fn durability_rejects_snapshotless_algorithms() {
        let mut cfg = config(AlgorithmKind::SetAside { i: 4, j: 20 }, 16);
        cfg.durability = Some(DurabilityConfig::new(temp_state_dir("reject")));
        let _ = IdService::start(cfg);
    }

    #[test]
    fn latency_histogram_sees_every_lease() {
        let cfg = config(AlgorithmKind::ClusterStar, 24);
        let service = IdService::start(cfg);
        for tenant in 0..4u64 {
            service.issue(tenant, 100);
        }
        service.drain();
        let report = service.shutdown();
        assert_eq!(report.latency.count(), 4);
        assert!(report.latency.quantile_ns(0.99) >= report.latency.quantile_ns(0.5));
        assert_eq!(report.audit.records, 4);
    }
}
