//! E13 — the paper's motivation, end to end: RocksDB-style deployments.
//!
//! The introduction's story: production fleets of RocksDB instances
//! generate SST unique IDs without coordination; the IDs key a shared
//! block cache; a collision silently serves one file's block for
//! another's read. RocksDB moved from GUID-style Random to Cluster
//! (PRs #8990/#9126) for exactly the `d²/m → nd/m` improvement.
//!
//! **Metric note:** the comparison is *per-run collision probability*
//! (fraction of deployment runs experiencing any collision), which is the
//! paper's quantity. Raw event counts mislead here because Cluster's rare
//! failures are bursty — one overlap of two sequential ranges produces
//! hundreds of colliding IDs at once — while Random's many failures are
//! isolated singletons. Both views are reported.
//!
//! **Scaling substitution:** production runs at
//! `m = 2¹²⁸` with exabyte-scale object counts we cannot simulate, so the
//! whole system is scaled down *preserving the dimensionless ratios* the
//! bounds depend on: `m = 2²⁴` with `d ≈ 2¹⁵` files across 16 instances
//! puts `d²/m ≈ 60` (Random: collisions expected every run) and
//! `nd/m ≈ 0.03` (Cluster: collisions in ~3% of runs) — the same regime
//! separation as 128-bit IDs at `d ≈ 2⁶⁶`. Snowflake runs with its native
//! layout and a skewed-clock fault model.

use uuidp_core::algorithms::{Cluster, Random, SessionCounter, Snowflake, SnowflakeConfig};
use uuidp_core::id::IdSpace;
use uuidp_core::traits::Algorithm;
use uuidp_kvstore::workload::{run_workload, WorkloadConfig};
use uuidp_sim::experiment::{fmt_ratio, Table};

use super::{Check, Ctx, ExperimentReport};

struct AlgOutcome {
    runs_with_collision: u64,
    runs_with_corruption: u64,
    collision_events: u64,
    corrupt_reads: u64,
    files_per_run: u64,
    hit_rate: f64,
}

/// Runs E13.
pub fn run(ctx: &Ctx) -> ExperimentReport {
    let space = IdSpace::with_bits(24).unwrap();
    let runs: u64 = if ctx.quick { 8 } else { 30 };
    let config = WorkloadConfig {
        instances: 16,
        operations: if ctx.quick { 30_000 } else { 60_000 },
        blocks_per_file: 4,
        cache_capacity: 1 << 14,
        flush_weight: 4000,
        read_weight: 4000,
        compact_weight: 1000,
        migrate_weight: 999,
        // Rare, as in production (a handful of restarts per run): every
        // restart is effectively a fresh uncoordinated instance, so the
        // restart *rate* directly multiplies the effective n.
        restart_weight: 1,
        lease_batch: 0,
    };

    // 64 workers at 16 instances: worker-ID birthday bites within a few
    // runs — the brittleness the paper's introduction warns about.
    let snowflake = SnowflakeConfig {
        timestamp_bits: 10,
        worker_bits: 6,
        sequence_bits: 6,
        requests_per_tick: 16,
        max_skew_ticks: 4,
    };
    let algorithms: Vec<Box<dyn Algorithm>> = vec![
        Box::new(Random::new(space)),
        Box::new(Cluster::new(space)),
        Box::new(SessionCounter::new(14, 10)),
        Box::new(Snowflake::new(snowflake)),
    ];

    let mut table = Table::new(
        format!(
            "Deployment workload, m = 2^24, 16 instances, {} ops × {runs} runs",
            config.operations
        ),
        &[
            "ID algorithm",
            "files/run",
            "P(collision)/run",
            "P(corruption)/run",
            "collision events",
            "corrupt reads",
            "cache hit rate",
        ],
    );

    let mut outcomes: Vec<(String, AlgOutcome)> = Vec::new();
    for alg in &algorithms {
        let mut out = AlgOutcome {
            runs_with_collision: 0,
            runs_with_corruption: 0,
            collision_events: 0,
            corrupt_reads: 0,
            files_per_run: 0,
            hit_rate: 0.0,
        };
        let mut hits = 0u64;
        let mut lookups = 0u64;
        for run_idx in 0..runs {
            let report = run_workload(alg.as_ref(), config, ctx.seed ^ (run_idx << 8));
            out.runs_with_collision += (report.id_collisions > 0) as u64;
            out.runs_with_corruption += (report.corrupt_reads > 0) as u64;
            out.collision_events += report.id_collisions;
            out.corrupt_reads += report.corrupt_reads;
            out.files_per_run += report.files_created;
            hits += report.cache.hits;
            lookups += report.cache.hits + report.cache.misses;
        }
        out.files_per_run /= runs;
        out.hit_rate = hits as f64 / lookups.max(1) as f64;
        table.push_row(vec![
            alg.name(),
            out.files_per_run.to_string(),
            format!("{}/{runs}", out.runs_with_collision),
            format!("{}/{runs}", out.runs_with_corruption),
            out.collision_events.to_string(),
            out.corrupt_reads.to_string(),
            fmt_ratio(out.hit_rate),
        ]);
        outcomes.push((alg.name(), out));
    }

    let get = |prefix: &str| -> &AlgOutcome {
        &outcomes
            .iter()
            .find(|(name, _)| name.starts_with(prefix))
            .expect("algorithm present")
            .1
    };
    let random = get("random");
    let cluster = get("cluster");
    let session = get("session");
    let snowflake = get("snowflake");

    let checks = vec![
        Check::new(
            "Random collides in essentially every run (d ≈ √m·8 regime)",
            random.runs_with_collision >= runs * 8 / 10,
            format!("{}/{runs} runs collided", random.runs_with_collision),
        ),
        Check::new(
            "Cluster survives where Random fails (the RocksDB migration)",
            cluster.runs_with_collision <= runs * 3 / 10,
            format!(
                "cluster {}/{runs} vs random {}/{runs} colliding runs",
                cluster.runs_with_collision, random.runs_with_collision
            ),
        ),
        Check::new(
            "SessionCounter (RocksDB's embodiment) behaves like Cluster",
            session.runs_with_collision <= runs * 3 / 10,
            format!(
                "session {}/{runs} colliding runs",
                session.runs_with_collision
            ),
        ),
        Check::new(
            "Snowflake with skewed clocks collides via worker-ID birthday",
            snowflake.runs_with_collision >= 1,
            format!(
                "{}/{runs} runs collided at 2^6 workers, 16 instances, skew ≤ 4 ticks",
                snowflake.runs_with_collision
            ),
        ),
        Check::new(
            "ID collisions surface as silent cache corruption for Random",
            random.corrupt_reads > 0 && random.runs_with_corruption > 0,
            format!(
                "{} corrupt reads across {}/{runs} runs",
                random.corrupt_reads, random.runs_with_corruption
            ),
        ),
    ];

    ExperimentReport {
        id: "E13",
        title: "RocksDB deployment — collisions become silent corruption",
        sections: vec![table.markdown()],
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e13_quick_passes() {
        let ctx = Ctx {
            quick: true,
            ..Ctx::default()
        };
        let report = run(&ctx);
        for c in &report.checks {
            assert!(c.passed, "{}: {}", c.name, c.detail);
        }
    }
}
