//! Property tests for the observability core: the mergeability
//! invariants the registry's constant-memory design rests on.
//!
//! * **Histogram merge is order-invariant** — per-shard histograms
//!   merged in any order, or built from any interleaving of the same
//!   samples, land on bit-identical buckets, counts, sums, and maxima.
//!   This is what makes per-shard recording legal: the exported totals
//!   cannot depend on thread scheduling.
//! * **Exposition round-trips** — every scalar and histogram bucket a
//!   snapshot renders is recovered exactly by
//!   `Snapshot::parse_prometheus`, so scrapers see the registry's true
//!   values, not an approximation.
//! * **Window merge is order- and interleaving-invariant** — cluster
//!   assembly over per-node windows cannot depend on scrape order.
//! * **Counter resets never produce a negative rate** — a restarted
//!   node's fresh-from-zero counters dip the windowed rate, they never
//!   invert it, no matter where in the sample stream the restarts land.

use std::collections::BTreeMap;

use proptest::prelude::*;
use uuidp::obs::{Histogram, MetricValue, Registry, Snapshot, TimeSeries, Window};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn histogram_merge_is_order_invariant(
        samples in prop::collection::vec(any::<u64>(), 1..200),
        cut_pick in any::<u32>(),
    ) {
        // One histogram fed everything in order...
        let mut serial = Histogram::new();
        for &s in &samples {
            serial.record_ns(s);
        }
        // ...versus two shards fed a split of the same samples, merged
        // in both orders.
        let cut = cut_pick as usize % (samples.len() + 1);
        let (left, right) = samples.split_at(cut);
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for &s in left {
            a.record_ns(s);
        }
        for &s in right {
            b.record_ns(s);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);

        for merged in [&ab, &ba] {
            prop_assert_eq!(merged.buckets(), serial.buckets());
            prop_assert_eq!(merged.count(), serial.count());
            prop_assert_eq!(merged.sum_ns(), serial.sum_ns());
            prop_assert_eq!(merged.max_ns(), serial.max_ns());
        }
    }

    #[test]
    fn interleaving_never_changes_the_merged_totals(
        samples in prop::collection::vec(any::<u64>(), 1..100),
        lanes in prop::collection::vec(any::<u32>(), 1..100),
    ) {
        // Deal the same sample stream across four lanes two different
        // ways: by the fuzzed lane schedule, and round-robin. The
        // merged result must not notice.
        let deal = |assign: &dyn Fn(usize) -> usize| {
            let mut shards = [
                Histogram::new(),
                Histogram::new(),
                Histogram::new(),
                Histogram::new(),
            ];
            for (i, &s) in samples.iter().enumerate() {
                shards[assign(i)].record_ns(s);
            }
            let mut total = Histogram::new();
            for shard in &shards {
                total.merge(shard);
            }
            total
        };
        let fuzzed = deal(&|i| lanes[i % lanes.len()] as usize % 4);
        let round_robin = deal(&|i| i % 4);
        prop_assert_eq!(fuzzed.buckets(), round_robin.buckets());
        prop_assert_eq!(fuzzed.count(), round_robin.count());
        prop_assert_eq!(fuzzed.sum_ns(), round_robin.sum_ns());
        prop_assert_eq!(fuzzed.max_ns(), round_robin.max_ns());
    }

    #[test]
    fn exposition_round_trips_every_scalar(
        counts in prop::collection::vec(any::<u32>(), 1..6),
        gauge_raw in any::<u32>(),
        latencies in prop::collection::vec(any::<u32>(), 0..50),
    ) {
        let registry = Registry::new();
        for (i, &n) in counts.iter().enumerate() {
            registry.counter(&format!("uuidp_test_c{i}_total")).add(n as u64);
        }
        // Centered so negative gauge values get exercised too.
        let gauge = gauge_raw as i64 - i64::from(u32::MAX / 2);
        registry.gauge("uuidp_test_depth").set(gauge);
        let hist = registry.histogram("uuidp_test_latency_ns");
        for &ns in &latencies {
            hist.record_ns(ns as u64);
        }

        let snapshot = registry.snapshot();
        let parsed = Snapshot::parse_prometheus(&snapshot.render_prometheus());
        for (i, &n) in counts.iter().enumerate() {
            prop_assert_eq!(
                parsed.scalar(&format!("uuidp_test_c{i}_total")),
                Some(n as f64)
            );
        }
        prop_assert_eq!(parsed.scalar("uuidp_test_depth"), Some(gauge as f64));
        let Some(MetricValue::Histogram(h)) = parsed.metrics.get("uuidp_test_latency_ns") else {
            panic!("the histogram must parse back as one");
        };
        prop_assert_eq!(h.count(), latencies.len() as u64);
        let sum: u128 = latencies.iter().map(|&n| n as u128).sum();
        prop_assert_eq!(h.sum_ns(), sum);
        prop_assert_eq!(h.buckets(), hist.snapshot().buckets());
    }

    #[test]
    fn window_merge_is_order_and_interleaving_invariant(
        counters in prop::collection::vec((0u8..4, any::<u32>()), 1..40),
        gauges in prop::collection::vec((0u8..4, any::<u32>()), 0..20),
        latencies in prop::collection::vec((0u8..3, any::<u32>()), 0..40),
        order in prop::collection::vec(any::<u32>(), 1..8),
    ) {
        // Build N per-node windows from fuzzed shares of the same
        // families, then merge them in two different orders: sorted and
        // a fuzz-driven permutation. Cluster assembly must not notice.
        let nodes = 4usize;
        let mut per_node = vec![Window::new(7); nodes];
        for (i, &(node, v)) in counters.iter().enumerate() {
            *per_node[node as usize]
                .counters
                .entry(format!("uuidp_c{}_total", i % 3))
                .or_insert(0) += v as u64;
        }
        for (i, &(node, v)) in gauges.iter().enumerate() {
            // Centered so negative gauge contributions get exercised.
            *per_node[node as usize]
                .gauges
                .entry(format!("uuidp_g{}", i % 2))
                .or_insert(0) += v as i64 - i64::from(u32::MAX / 2);
        }
        for &(node, ns) in &latencies {
            per_node[node as usize]
                .histograms
                .entry("uuidp_lat_ns".into())
                .or_default()
                .record_ns(ns as u64);
        }
        let merge_in = |indices: &[usize]| {
            let mut cluster = Window::new(7);
            for &i in indices {
                cluster.merge(&per_node[i]);
            }
            cluster
        };
        let sorted: Vec<usize> = (0..nodes).collect();
        // A fuzzed permutation: repeatedly pick from the remainder.
        let mut rest: Vec<usize> = (0..nodes).collect();
        let mut permuted = Vec::with_capacity(nodes);
        for i in 0..nodes {
            let pick = order[i % order.len()] as usize % rest.len();
            permuted.push(rest.remove(pick));
        }
        prop_assert_eq!(merge_in(&sorted), merge_in(&permuted));
    }

    #[test]
    fn counter_resets_across_restarts_never_yield_a_negative_rate(
        deltas in prop::collection::vec(0u64..65_536, 2..60),
        restarts in prop::collection::vec(any::<u32>(), 0..6),
    ) {
        // A cumulative counter grows by fuzzed deltas; injected
        // restarts snap it back to zero mid-stream. The ingested
        // per-window deltas must equal what the process really counted
        // since the previous sample — fresh-from-zero after a restart —
        // and the windowed rate must never go negative (it cannot even
        // be expressed: deltas are u64 by construction, so the property
        // pins the clamp's *accounting*, not just its sign).
        let restart_at: Vec<usize> =
            restarts.iter().map(|&r| r as usize % deltas.len()).collect();
        let mut series = TimeSeries::new(deltas.len() + 1);
        let mut cumulative = 0u64;
        let mut prev_sample = 0u64;
        let mut expected = Vec::with_capacity(deltas.len());
        let mut detectable_resets = 0u64;
        for (tick, &d) in deltas.iter().enumerate() {
            if restart_at.contains(&tick) {
                cumulative = 0; // the restarted node's registry is fresh
            }
            cumulative += d;
            // What any scraper of cumulative counters *can* know: a
            // regression is a reset (delta = the whole fresh reading);
            // a restart whose new value already passed the old one is
            // indistinguishable from normal growth.
            let want = if cumulative < prev_sample {
                detectable_resets += 1;
                cumulative
            } else {
                cumulative - prev_sample
            };
            prev_sample = cumulative;
            expected.push(want);
            let mut metrics = BTreeMap::new();
            metrics.insert(
                "uuidp_ids_issued_total".to_string(),
                MetricValue::Counter(cumulative),
            );
            series.ingest(tick as u64, &Snapshot { metrics });
            prop_assert!(series.rate("uuidp_ids_issued_total", 1) >= 0.0);
        }
        for (tick, want) in expected.iter().enumerate() {
            let got = series
                .window_at(tick as u64)
                .map(|w| w.counter("uuidp_ids_issued_total"))
                .unwrap_or(0);
            prop_assert_eq!(got, *want, "window {}", tick);
        }
        prop_assert_eq!(series.resets_total(), detectable_resets);
    }
}
