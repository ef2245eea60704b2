//! KV-store substrate integration: collisions become corruption, and only
//! collisions do.

use uuidp_core::id::{Id, IdSpace};
use uuidp_core::interval::{Arc, IntervalSet};
use uuidp_core::rng::SeedTree;
use uuidp_core::traits::{Algorithm, Footprint, GeneratorError, IdGenerator};
use uuidp_kvstore::cluster::Deployment;
use uuidp_kvstore::workload::{run_workload, WorkloadConfig};

/// A pathological "algorithm" that hands every instance the same fixed
/// sequence — a collision machine for failure-injection tests.
struct ConstantStream {
    space: IdSpace,
}

struct ConstantGen {
    space: IdSpace,
    next: u128,
    emitted: IntervalSet,
}

impl Algorithm for ConstantStream {
    fn name(&self) -> String {
        "constant-stream".to_owned()
    }
    fn space(&self) -> IdSpace {
        self.space
    }
    fn spawn(&self, _seed: u64) -> Box<dyn IdGenerator> {
        Box::new(ConstantGen {
            space: self.space,
            next: 0,
            emitted: IntervalSet::new(self.space),
        })
    }
}

impl IdGenerator for ConstantGen {
    fn space(&self) -> IdSpace {
        self.space
    }
    fn next_ids(&mut self, count: u128, sink: &mut dyn FnMut(Arc)) -> Result<(), GeneratorError> {
        for _ in 0..count {
            if self.next >= self.space.size() {
                return Err(GeneratorError::Exhausted {
                    generated: self.next,
                });
            }
            let id = Id(self.next);
            self.next += 1;
            self.emitted.insert_point(id);
            sink(Arc::point(self.space, id));
        }
        Ok(())
    }
    fn generated(&self) -> u128 {
        self.next
    }
    fn footprint(&mut self) -> Footprint<'_> {
        Footprint::Arcs(&self.emitted)
    }
    fn reset(&mut self, _seed: u64) {
        self.next = 0;
        self.emitted.clear();
    }
}

#[test]
fn forced_collisions_always_surface_as_corruption() {
    let space = IdSpace::new(1 << 20).unwrap();
    let alg = ConstantStream { space };
    let seeds = SeedTree::new(1);
    let mut dep = Deployment::new(&alg, 2, 1 << 10, &seeds);
    // Both instances create "file number 1" with unique ID 0.
    dep.flush(0, 2).unwrap();
    dep.flush(1, 2).unwrap();
    assert_eq!(dep.audit().id_collisions().len(), 1);
    // Instance 0 warms the cache; instance 1's read is served 0's data.
    assert!(dep.read(0, 0, 0));
    assert!(
        !dep.read(1, 0, 0),
        "aliased read must be detected as corrupt"
    );
    assert_eq!(dep.audit().corruptions().len(), 1);
}

#[test]
fn no_collisions_means_no_corruption_ever() {
    let space = IdSpace::with_bits(64).unwrap();
    let alg = uuidp_core::algorithms::Cluster::new(space);
    let cfg = WorkloadConfig {
        instances: 8,
        operations: 20_000,
        ..WorkloadConfig::default()
    };
    let report = run_workload(&alg, cfg, 2);
    assert_eq!(report.id_collisions, 0);
    assert_eq!(report.corrupt_reads, 0);
    assert!(report.reads > 1000);
    assert!(report.migrations > 100);
}

#[test]
fn corruption_requires_a_collision() {
    // Across many seeds and a mid-sized universe: whenever corrupt reads
    // are observed, an ID collision must also have been recorded.
    let space = IdSpace::new(1 << 12).unwrap();
    let alg = uuidp_core::algorithms::Random::new(space);
    let cfg = WorkloadConfig {
        instances: 6,
        operations: 4_000,
        ..WorkloadConfig::default()
    };
    let mut saw_corruption = false;
    for seed in 0..10u64 {
        let report = run_workload(&alg, cfg, seed);
        if report.corrupt_reads > 0 {
            saw_corruption = true;
            assert!(
                report.id_collisions > 0,
                "seed {seed}: corruption without a collision"
            );
        }
    }
    assert!(
        saw_corruption,
        "expected at least one corrupting run at m = 2^12"
    );
}

#[test]
fn restart_storms_are_safe_for_random_draw_schemes() {
    // Frequent crash-restarts multiply the effective number of
    // uncoordinated instances. With a big enough universe, Cluster
    // stays collision-free even under a restart storm; the audit keeps
    // count across the generator swaps.
    let space = IdSpace::with_bits(64).unwrap();
    let alg = uuidp_core::algorithms::Cluster::new(space);
    let seeds = SeedTree::new(77);
    let mut dep = Deployment::new(&alg, 4, 1 << 10, &seeds);
    for round in 0..50u64 {
        for i in 0..4 {
            dep.flush(i, 2).unwrap();
            dep.restart_instance(i, &alg, round * 10 + i as u64 + 1000);
            dep.flush(i, 2).unwrap();
        }
    }
    assert_eq!(dep.audit().id_collisions().len(), 0);
    assert_eq!(dep.live_files(), 400);
    // And all files still read cleanly.
    for i in 0..4 {
        assert!(dep.read(i, 0, 0));
    }
}

#[test]
fn restart_preserves_files_and_numbering() {
    let space = IdSpace::with_bits(32).unwrap();
    let alg = uuidp_core::algorithms::Cluster::new(space);
    let seeds = SeedTree::new(78);
    let mut dep = Deployment::new(&alg, 2, 64, &seeds);
    let before = dep.flush(0, 2).unwrap();
    dep.restart_instance(0, &alg, 9999);
    let after = dep.flush(0, 2).unwrap();
    // The manifest (file numbering) survives the crash; the ID stream is
    // fresh.
    assert_eq!(before.identity.file_number, 1);
    assert_eq!(after.identity.file_number, 2);
    assert_ne!(before.unique_id, after.unique_id);
    assert_eq!(dep.instance(0).files().len(), 2);
}

#[test]
fn exact_resume_restart_continues_the_id_stream() {
    // Two deployments with identical seeds: one never restarts, the other
    // crash-restarts with exact resume after every flush. They must mint
    // identical unique IDs forever.
    let space = IdSpace::with_bits(32).unwrap();
    let alg = uuidp_core::algorithms::Cluster::new(space);
    let seeds = SeedTree::new(79);
    let mut steady = Deployment::new(&alg, 2, 64, &seeds);
    let mut crashy = Deployment::new(&alg, 2, 64, &seeds);
    for _ in 0..30 {
        for i in 0..2 {
            let a = steady.flush(i, 2).unwrap();
            let b = crashy.flush(i, 2).unwrap();
            assert_eq!(a.unique_id, b.unique_id, "resume must not fork the stream");
            assert!(
                crashy.restart_instance_resumed(i),
                "cluster supports resume"
            );
        }
    }
    assert_eq!(crashy.audit().id_collisions().len(), 0);
}

#[test]
fn collision_rate_orders_algorithms_like_the_theory() {
    let space = IdSpace::new(1 << 20).unwrap();
    let cfg = WorkloadConfig {
        instances: 8,
        operations: 30_000,
        ..WorkloadConfig::default()
    };
    let mut random_collisions = 0u64;
    let mut cluster_collisions = 0u64;
    for seed in 0..5u64 {
        random_collisions +=
            run_workload(&uuidp_core::algorithms::Random::new(space), cfg, seed).id_collisions;
        cluster_collisions +=
            run_workload(&uuidp_core::algorithms::Cluster::new(space), cfg, seed).id_collisions;
    }
    assert!(
        random_collisions > cluster_collisions.saturating_mul(5),
        "random {random_collisions} vs cluster {cluster_collisions}: ordering violated"
    );
}
