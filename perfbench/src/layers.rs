//! Per-layer probes: each times public calls into one layer, from the
//! benchmark's side, on the workload's own inputs.
//!
//! Every traced run prints every per-layer metric, so each probe runs on
//! every workload: the layer's figure on a workload that does not
//! exercise it is the control its prediction says should not move.
//! `montecarlo_oblivious` has no service, so the service, net and fleet
//! probes run `lease_small_mux`'s configuration under its seed.

use std::collections::HashMap;
use std::path::Path;

use uuidp_client::frame::{decode_frame, encode_frame, FrameBody};
use uuidp_core::clock;
use uuidp_core::interval::Arc;
use uuidp_core::persist::{SnapshotRecord, SnapshotStore};
use uuidp_core::rng::{SeedDomain, SeedTree};
use uuidp_core::traits::{Footprint, IdGenerator};
use uuidp_fleet::router::owner_key;
use uuidp_sim::audit::LeaseAudit;
use uuidp_sim::collision::{footprints_collide_with, CollisionScratch};
use uuidp_sim::game::run_oblivious_symbolic;
use uuidp_sim::montecarlo::{estimate_oblivious, TrialConfig};

use crate::host;
use crate::mc;
use crate::spans::Tracer;
use crate::workload::Workload;

/// Audit stripes of the probes' audits (the service and router default).
const STRIPES: usize = 16;

/// A probe's limits: at most `ops` calls, for at most `cap_ns`.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub ops: usize,
    pub cap_ns: u64,
}

/// The leases of a replayed sequence: per lease, its tenant and arcs,
/// and the snapshot record a write-ahead persist would save after it.
pub struct Replay {
    pub leases: Vec<(u64, Vec<Arc>)>,
    pub records: Vec<(u64, SnapshotRecord)>,
}

/// Replays `seq` through `Algorithm::spawn` + `IdGenerator::next_ids`,
/// one generator per tenant, timing each lease (`core.next_ids`).
pub fn core_replay(
    w: Workload,
    seq: &[(u64, u128)],
    budget: Budget,
    tracer: &Tracer,
) -> Result<Replay, String> {
    let root = tracer.open("probe.core");
    let mut spans = tracer.local(root.id);
    let space = w.space();
    let algorithm = w.kind().build(space);
    let seeds = SeedTree::new(0x5EED);
    let mut gens: HashMap<u64, Box<dyn IdGenerator>> = HashMap::new();
    let mut buf: Vec<Arc> = Vec::new();
    let mut out = Replay {
        leases: Vec::new(),
        records: Vec::new(),
    };
    let t0 = clock::monotonic_ns();
    for (i, &(tenant, count)) in seq.iter().take(budget.ops).enumerate() {
        if clock::monotonic_ns() - t0 > budget.cap_ns {
            break;
        }
        buf.clear();
        let a = clock::monotonic_ns();
        let g = gens
            .entry(tenant)
            .or_insert_with(|| algorithm.spawn(seeds.seed(SeedDomain::Instance(tenant))));
        let result = g.next_ids(count, &mut |arc| buf.push(arc));
        let b = clock::monotonic_ns();
        result.map_err(|e| format!("replay lease {i}: {e}"))?;
        spans.record("core.next_ids", i as u64, a, b);
        out.leases.push((tenant, buf.clone()));
        if let Some(state) = g.snapshot() {
            let record = SnapshotRecord {
                seq: i as u64 + 1,
                epoch: 0,
                reservation: count,
                space,
                state,
            };
            out.records.push((tenant, record));
        }
    }
    drop(spans);
    tracer.close(root);
    Ok(out)
}

/// Records each replayed lease into a fresh `LeaseAudit`
/// (`sim.audit_record`) for at most `cap_ns`; returns audit segments
/// per lease.
pub fn audit(w: Workload, replay: &Replay, cap_ns: u64, tracer: &Tracer) -> f64 {
    let root = tracer.open("probe.audit");
    let mut spans = tracer.local(root.id);
    let mut audit = LeaseAudit::new(w.space(), STRIPES);
    let mut leases = 0;
    for (i, (tenant, arcs)) in replay.leases.iter().enumerate() {
        if clock::monotonic_ns() - root.start_ns > cap_ns {
            break;
        }
        leases += 1;
        let a = clock::monotonic_ns();
        for &arc in arcs {
            audit.record(*tenant, arc);
        }
        spans.record("sim.audit_record", i as u64, a, clock::monotonic_ns());
    }
    drop(spans);
    tracer.close(root);
    audit.counts().recorded_arcs as f64 / f64::from(leases).max(1.0)
}

/// The router's two global-audit passes, keyed by incarnation and by
/// tenant, over each replayed lease (`fleet.global_audit`), for at most
/// `cap_ns`.
pub fn global_audit(w: Workload, replay: &Replay, cap_ns: u64, tracer: &Tracer) {
    let root = tracer.open("probe.global_audit");
    let mut spans = tracer.local(root.id);
    let mut by_owner = LeaseAudit::new(w.space(), STRIPES);
    let mut by_tenant = LeaseAudit::new(w.space(), STRIPES);
    for (i, (tenant, arcs)) in replay.leases.iter().enumerate() {
        if clock::monotonic_ns() - root.start_ns > cap_ns {
            break;
        }
        let a = clock::monotonic_ns();
        let owner = owner_key(*tenant, 0);
        for &arc in arcs {
            by_owner.record(owner, arc);
            by_tenant.record(*tenant, arc);
        }
        spans.record("fleet.global_audit", i as u64, a, clock::monotonic_ns());
    }
    drop(spans);
    tracer.close(root);
}

/// Encodes and decodes each replayed lease's request and reply frames
/// (`client.codec`).
pub fn codec(replay: &Replay, tracer: &Tracer) -> Result<(), String> {
    let root = tracer.open("probe.codec");
    let mut spans = tracer.local(root.id);
    for (i, (tenant, arcs)) in replay.leases.iter().enumerate() {
        let granted: u128 = arcs.iter().map(|a| a.len).sum();
        let raw: Vec<(u128, u128)> = arcs.iter().map(|a| (a.start.value(), a.len)).collect();
        let corr = i as u64 + 1;
        let a = clock::monotonic_ns();
        let req = encode_frame(
            corr,
            &FrameBody::LeaseReq {
                tenant: *tenant,
                count: granted,
            },
        );
        let req_back = decode_frame(&req);
        let resp = encode_frame(
            corr,
            &FrameBody::LeaseResp {
                tenant: *tenant,
                granted,
                arcs: raw,
                error: None,
            },
        );
        let resp_back = decode_frame(&resp);
        let b = clock::monotonic_ns();
        for back in [req_back, resp_back] {
            match back {
                Ok(Some((frame, _))) if frame.corr == corr => {}
                other => return Err(format!("codec round trip of lease {i} gave {other:?}")),
            }
        }
        spans.record("client.codec", i as u64, a, b);
    }
    drop(spans);
    tracer.close(root);
    Ok(())
}

/// Saves the replayed snapshot records, without fsync as `Fleet` runs
/// (`persist.save`), then through a syncing store (`persist.save_sync`).
pub fn persist(
    replay: &Replay,
    dir: &Path,
    sync_budget: Budget,
    tracer: &Tracer,
) -> Result<(), String> {
    let root = tracer.open("probe.persist");
    let mut spans = tracer.local(root.id);
    for (sync, name, budget) in [
        (false, "persist.save", None),
        (true, "persist.save_sync", Some(sync_budget)),
    ] {
        let path = dir.join(name);
        let _ = std::fs::remove_dir_all(&path);
        let store = SnapshotStore::with_sync(&path, sync).map_err(|e| format!("{name}: {e}"))?;
        let t0 = clock::monotonic_ns();
        for (i, (tenant, record)) in replay.records.iter().enumerate() {
            if let Some(b) = budget {
                if i >= b.ops || clock::monotonic_ns() - t0 > b.cap_ns {
                    break;
                }
            }
            let a = clock::monotonic_ns();
            store
                .save(*tenant, record)
                .map_err(|e| format!("{name}: {e}"))?;
            spans.record(name, i as u64, a, clock::monotonic_ns());
        }
        let _ = std::fs::remove_dir_all(&path);
    }
    drop(spans);
    tracer.close(root);
    Ok(())
}

/// Monte-Carlo layer probes on the workload's algorithm and universe
/// with the paper's 16 x 1024 profile: one symbolic trial
/// (`sim.trial`), one collision pass over a trial's footprints
/// (`sim.collide`), and the trial engine's thread scaling.
pub fn montecarlo(w: Workload, seed: u64, budget: Budget, tracer: &Tracer) -> f64 {
    let root = tracer.open("probe.montecarlo");
    let mut spans = tracer.local(root.id);
    let algorithm = w.kind().build(w.space());
    let profile = mc::profile();
    let tree = SeedTree::new(seed);

    let t0 = clock::monotonic_ns();
    let mut trial_ns = Vec::new();
    for t in 0..budget.ops as u64 {
        if clock::monotonic_ns() - t0 > budget.cap_ns {
            break;
        }
        let a = clock::monotonic_ns();
        std::hint::black_box(run_oblivious_symbolic(
            algorithm.as_ref(),
            &profile,
            &tree.trial(t),
        ));
        let b = clock::monotonic_ns();
        spans.record("sim.trial", t, a, b);
        trial_ns.push(b - a);
    }

    let mut scratch = CollisionScratch::new();
    let t0 = clock::monotonic_ns();
    for t in 0..budget.ops as u64 {
        if clock::monotonic_ns() - t0 > budget.cap_ns {
            break;
        }
        let trial = tree.trial(t);
        let mut gens: Vec<Box<dyn IdGenerator>> = profile
            .demands()
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                let mut g = algorithm.spawn(trial.seed(SeedDomain::Instance(i as u64)));
                let _ = g.skip(d);
                g
            })
            .collect();
        let footprints: Vec<Footprint<'_>> = gens.iter_mut().map(|g| g.footprint()).collect();
        let a = clock::monotonic_ns();
        std::hint::black_box(footprints_collide_with(&mut scratch, &footprints));
        spans.record("sim.collide", t, a, clock::monotonic_ns());
    }

    // Size the scaling runs from the measured trial cost, then time one
    // thread and nproc threads in ABBA order so drift cancels.
    trial_ns.sort_unstable();
    let per_trial = trial_ns
        .get(trial_ns.len() / 2)
        .copied()
        .unwrap_or(1)
        .max(1);
    let trials = (budget.cap_ns / 4 / per_trial).clamp(64, 200_000);
    let nproc = host::nproc();
    let mut elapsed = [0u64; 2];
    for (k, threads) in [1, nproc, nproc, 1].into_iter().enumerate() {
        let mut config = TrialConfig::new(trials, mc::batch_seed(seed, k as u64));
        config.threads = threads;
        let a = clock::monotonic_ns();
        std::hint::black_box(estimate_oblivious(algorithm.as_ref(), &profile, config));
        let b = clock::monotonic_ns();
        spans.record("sim.scaling_run", threads as u64, a, b);
        elapsed[usize::from(k == 1 || k == 2)] += b - a;
    }
    drop(spans);
    tracer.close(root);
    elapsed[0] as f64 / (nproc as f64 * elapsed[1].max(1) as f64)
}
