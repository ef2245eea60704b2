//! Synthetic workload generator for the deployment.
//!
//! **Substitution note:** the paper's evidence for
//! Cluster came from Meta production RocksDB deployments, which we cannot
//! replay. Collision exposure, however, depends only on (a) how many IDs
//! each instance draws (flush/compaction volume) and (b) which instances'
//! files share a cache (migration + shared-cache topology). This workload
//! reproduces exactly those two drivers with tunable rates, so the
//! collision/corruption behaviour of the ID algorithms — the thing under
//! study — is preserved; throughput realism is explicitly out of scope.

use uuidp_core::rng::{uniform_below, SeedDomain, SeedTree, Xoshiro256pp};
use uuidp_core::traits::Algorithm;

use crate::cache::CacheStats;
use crate::cluster::Deployment;

/// Workload shape parameters.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Number of store instances.
    pub instances: usize,
    /// Total operations to attempt.
    pub operations: u64,
    /// Blocks per flushed SST.
    pub blocks_per_file: u32,
    /// Shared cache capacity in blocks.
    pub cache_capacity: usize,
    /// Relative weight of flush operations.
    pub flush_weight: u32,
    /// Relative weight of read operations.
    pub read_weight: u32,
    /// Relative weight of compactions.
    pub compact_weight: u32,
    /// Relative weight of migrations.
    pub migrate_weight: u32,
    /// Relative weight of instance crash-restarts.
    pub restart_weight: u32,
    /// Bulk-lease batch size for instance ID issuing (0 = scalar
    /// `next_id` per file; ≥ 1 = instances draw through
    /// [`uuidp_core::lease::Lease`]-buffered `next_ids` batches, the
    /// service-layer discipline). The assigned ID stream — and therefore
    /// the collision/corruption report — is identical in both modes.
    pub lease_batch: u128,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            instances: 8,
            operations: 10_000,
            blocks_per_file: 4,
            cache_capacity: 4096,
            flush_weight: 30,
            read_weight: 50,
            compact_weight: 10,
            migrate_weight: 10,
            restart_weight: 0,
            lease_batch: 0,
        }
    }
}

/// What happened during a workload run.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkloadReport {
    /// Files created (flushes + compaction outputs).
    pub files_created: u64,
    /// Block reads issued.
    pub reads: u64,
    /// Reads that returned another file's data.
    pub corrupt_reads: u64,
    /// Migrations performed.
    pub migrations: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// Instance crash-restarts performed.
    pub restarts: u64,
    /// Distinct duplicate-unique-ID events.
    pub id_collisions: u64,
    /// Whether any generator exhausted mid-run.
    pub exhausted: bool,
    /// Final cache counters.
    pub cache: CacheStats,
}

impl WorkloadReport {
    /// Fraction of reads that were silently wrong.
    pub fn corruption_rate(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.corrupt_reads as f64 / self.reads as f64
        }
    }
}

/// Runs the workload for `algorithm`, deterministically from `master_seed`.
pub fn run_workload(
    algorithm: &dyn Algorithm,
    config: WorkloadConfig,
    master_seed: u64,
) -> WorkloadReport {
    assert!(config.instances >= 2, "need at least two instances");
    assert!(config.blocks_per_file >= 1);
    let seeds = SeedTree::new(master_seed);
    let mut rng: Xoshiro256pp = seeds.rng(SeedDomain::Workload);
    let mut dep = Deployment::with_lease_batch(
        algorithm,
        config.instances,
        config.cache_capacity,
        &seeds,
        config.lease_batch,
    );
    let mut report = WorkloadReport::default();

    let weights = [
        config.flush_weight,
        config.read_weight,
        config.compact_weight,
        config.migrate_weight,
        config.restart_weight,
    ];
    let total_weight: u32 = weights.iter().sum();
    assert!(
        total_weight > 0,
        "at least one operation weight must be set"
    );

    for _ in 0..config.operations {
        let mut roll = uniform_below(&mut rng, total_weight as u128) as u32;
        let op = weights
            .iter()
            .position(|&w| {
                if roll < w {
                    true
                } else {
                    roll -= w;
                    false
                }
            })
            .expect("weighted choice within total");
        match op {
            // Flush on a random instance.
            0 => {
                let i = uniform_below(&mut rng, config.instances as u128) as usize;
                match dep.flush(i, config.blocks_per_file) {
                    Ok(_) => report.files_created += 1,
                    Err(_) => report.exhausted = true,
                }
            }
            // Read a random block of a random live file.
            1 => {
                let i = uniform_below(&mut rng, config.instances as u128) as usize;
                let files = dep.instance(i).files().len();
                if files == 0 {
                    continue;
                }
                let f = uniform_below(&mut rng, files as u128) as usize;
                let blocks = dep.instance(i).files()[f].blocks;
                let b = uniform_below(&mut rng, blocks as u128) as u32;
                report.reads += 1;
                if !dep.read(i, f, b) {
                    report.corrupt_reads += 1;
                }
            }
            // Compact two random files of a random instance.
            2 => {
                let i = uniform_below(&mut rng, config.instances as u128) as usize;
                let files = dep.instance(i).files().len();
                if files < 2 {
                    continue;
                }
                let a = uniform_below(&mut rng, files as u128) as usize;
                let mut b = uniform_below(&mut rng, (files - 1) as u128) as usize;
                if b >= a {
                    b += 1;
                }
                match dep.compact(i, &[a, b], config.blocks_per_file) {
                    Ok(_) => {
                        report.compactions += 1;
                        report.files_created += 1;
                    }
                    Err(_) => report.exhausted = true,
                }
            }
            // Migrate a random file between two random instances.
            3 => {
                let from = uniform_below(&mut rng, config.instances as u128) as usize;
                let mut to = uniform_below(&mut rng, (config.instances - 1) as u128) as usize;
                if to >= from {
                    to += 1;
                }
                let files = dep.instance(from).files().len();
                if files == 0 {
                    continue;
                }
                let f = uniform_below(&mut rng, files as u128) as usize;
                dep.migrate(from, to, f);
                report.migrations += 1;
            }
            // Crash-restart a random instance with a fresh seed.
            _ => {
                let i = uniform_below(&mut rng, config.instances as u128) as usize;
                let seed = uniform_below(&mut rng, u64::MAX as u128) as u64;
                dep.restart_instance(i, algorithm, seed);
                report.restarts += 1;
            }
        }
    }

    report.id_collisions = dep.audit().id_collisions().len() as u64;
    report.corrupt_reads = dep.audit().corruptions().len() as u64;
    report.cache = dep.cache_stats();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use uuidp_core::algorithms::{Cluster, Random};
    use uuidp_core::id::IdSpace;

    #[test]
    fn workload_is_reproducible() {
        let space = IdSpace::with_bits(40).unwrap();
        let alg = Cluster::new(space);
        let cfg = WorkloadConfig {
            operations: 2000,
            ..WorkloadConfig::default()
        };
        let a = run_workload(&alg, cfg, 7);
        let b = run_workload(&alg, cfg, 7);
        assert_eq!(a.files_created, b.files_created);
        assert_eq!(a.reads, b.reads);
        assert_eq!(a.id_collisions, b.id_collisions);
        assert_eq!(a.migrations, b.migrations);
    }

    #[test]
    fn big_universe_cluster_has_no_collisions() {
        let space = IdSpace::with_bits(64).unwrap();
        let alg = Cluster::new(space);
        let cfg = WorkloadConfig {
            operations: 5000,
            ..WorkloadConfig::default()
        };
        let report = run_workload(&alg, cfg, 1);
        assert_eq!(report.id_collisions, 0);
        assert_eq!(report.corrupt_reads, 0);
        assert!(report.files_created > 0);
        assert!(report.reads > 0);
        assert!(!report.exhausted);
    }

    #[test]
    fn tiny_universe_random_collides_and_corrupts() {
        // Scaled-down m so birthday collisions are common within the run.
        let space = IdSpace::new(1 << 10).unwrap();
        let alg = Random::new(space);
        let cfg = WorkloadConfig {
            instances: 8,
            operations: 20_000,
            read_weight: 60,
            flush_weight: 25,
            migrate_weight: 10,
            compact_weight: 5,
            ..WorkloadConfig::default()
        };
        let report = run_workload(&alg, cfg, 3);
        assert!(
            report.id_collisions > 0,
            "expected birthday collisions at m = 2^10"
        );
        assert!(report.reads > 0);
    }

    #[test]
    fn leased_issuing_is_observationally_scalar() {
        // The batch-lease discipline must not change a single assigned ID:
        // the whole report (files, collisions, corruptions, cache hits) is
        // bit-identical between scalar and any lease batch size, including
        // runs with crash-restarts in the mix.
        let space = IdSpace::new(1 << 14).unwrap(); // small: collisions occur
        let alg = Random::new(space);
        let base = WorkloadConfig {
            operations: 8000,
            restart_weight: 5,
            ..WorkloadConfig::default()
        };
        let scalar = run_workload(&alg, base, 13);
        assert!(scalar.id_collisions > 0, "fixture should collide");
        for batch in [1u128, 7, 64] {
            let leased = run_workload(
                &alg,
                WorkloadConfig {
                    lease_batch: batch,
                    ..base
                },
                13,
            );
            assert_eq!(leased.files_created, scalar.files_created, "batch {batch}");
            assert_eq!(leased.id_collisions, scalar.id_collisions, "batch {batch}");
            assert_eq!(leased.corrupt_reads, scalar.corrupt_reads, "batch {batch}");
            assert_eq!(leased.reads, scalar.reads, "batch {batch}");
            assert_eq!(leased.restarts, scalar.restarts, "batch {batch}");
            assert_eq!(leased.cache.hits, scalar.cache.hits, "batch {batch}");
        }
    }

    #[test]
    fn all_operation_types_occur() {
        let space = IdSpace::with_bits(48).unwrap();
        let alg = Cluster::new(space);
        let cfg = WorkloadConfig {
            operations: 5000,
            ..WorkloadConfig::default()
        };
        let report = run_workload(&alg, cfg, 11);
        assert!(report.files_created > 0);
        assert!(report.reads > 0);
        assert!(report.migrations > 0);
        assert!(report.compactions > 0);
    }
}
