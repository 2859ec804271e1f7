//! The host-runtime attribution profiler's two contracts, pinned:
//!
//! 1. **Bit-identity.** Wrapping any pool region in
//!    `mgg::runtime::profile::collect` must not change a single result bit,
//!    at any worker count — profiling only observes the pool, it never
//!    feeds back into scheduling or merging.
//! 2. **Attribution soundness.** The per-worker categories
//!    (spawn/exec/merge-wait/idle) tile each region's wall time: their sum
//!    never exceeds the region wall per lane, the breakdown totals equal
//!    the lane sums (with lane exec wall split into on-CPU exec +
//!    contended-exec), and the attributed fraction covers (almost) all of
//!    the measured lane time.
//!
//! Plus a self-test of the `perfdiff` regression sentinel: a synthetic ±20%
//! perturbation must be flagged, wobble inside tolerance must stay silent.

use proptest::prelude::*;

use mgg::core::{MggConfig, MggEngine};
use mgg::gnn::reference::AggregateMode;
use mgg::gnn::Matrix;
use mgg::graph::generators::rmat::{rmat, RmatConfig};
use mgg::runtime::profile::{collect, RuntimeProfile};
use mgg::runtime::{par_map, with_threads, Fnv1a};
use mgg::sim::ClusterSpec;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 7];

fn fnv1a(bits: impl Iterator<Item = u64>) -> u64 {
    let mut h = Fnv1a::new();
    bits.for_each(|v| h.u64(v));
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `par_map` under the profiler returns the same bits as without it,
    /// at every worker count.
    #[test]
    fn profiled_par_map_is_bit_identical(xs in proptest::collection::vec(0u64..u64::MAX, 0..200)) {
        let f = |&x: &u64| ((x as f64).sqrt() + 0.5).to_bits() ^ x.rotate_left(11);
        let plain: Vec<u64> = with_threads(1, || par_map(&xs, f));
        for t in THREAD_COUNTS {
            let (profiled, profile) = collect(|| with_threads(t, || par_map(&xs, f)));
            prop_assert_eq!(&plain, &profiled, "profiler changed results at {} threads", t);
            if !xs.is_empty() {
                prop_assert!(!profile.regions.is_empty(), "region not recorded at {} threads", t);
            }
        }
    }
}

fn check_invariants(profile: &RuntimeProfile, threads: usize) {
    let mut lane_exec_cpu = 0u64;
    let mut lane_contended = 0u64;
    let mut lane_spawn = 0u64;
    let mut lane_idle = 0u64;
    let mut lane_merge = 0u64;
    for region in &profile.regions {
        assert!(region.jobs > 0, "empty region recorded");
        assert!(region.workers as usize <= threads.max(1), "more lanes than workers");
        let mut jobs_seen = 0u64;
        for lane in &region.lanes {
            // Lane exec is in-job *wall* time; the contended slice is the
            // descheduled part of it, so it must never exceed exec.
            assert!(
                lane.contended_exec_ns <= lane.exec_ns,
                "lane {} contended-exec exceeds exec ({} threads)",
                lane.worker,
                threads
            );
            let tiled = lane.spawn_delay_ns + lane.exec_ns + lane.merge_wait_ns + lane.idle_ns;
            assert!(
                tiled <= region.wall_ns,
                "lane {} over-attributes: {} > wall {} ({} threads)",
                lane.worker,
                tiled,
                region.wall_ns,
                threads
            );
            jobs_seen += lane.jobs;
            lane_exec_cpu += lane.exec_ns.saturating_sub(lane.contended_exec_ns);
            lane_contended += lane.contended_exec_ns;
            lane_spawn += lane.spawn_delay_ns;
            lane_idle += lane.idle_ns;
            lane_merge += lane.merge_wait_ns;
        }
        assert_eq!(jobs_seen, region.jobs, "lane job counts disagree with region");
        assert_eq!(region.units.count, region.jobs, "unit histogram missed jobs");
        assert!(region.units.buckets.iter().sum::<u64>() == region.units.count);
    }
    // The breakdown is exactly the lane sums — no category invented or
    // lost. Lane exec wall splits into on-CPU exec + contended-exec.
    let b = profile.breakdown();
    assert_eq!(b.exec_ns, lane_exec_cpu);
    assert_eq!(b.contended_exec_ns, lane_contended);
    assert_eq!(b.spawn_ns, lane_spawn);
    assert_eq!(b.idle_ns, lane_idle);
    assert_eq!(b.merge_wait_ns, lane_merge);
    assert!(
        b.attributed_fraction >= 0.9,
        "categories cover only {} of lane time",
        b.attributed_fraction
    );
}

/// Engine aggregation digests are identical profiler-on vs profiler-off at
/// every thread count, and every captured profile satisfies the tiling
/// invariants.
#[test]
fn engine_aggregation_digest_is_profiler_invariant() {
    let g = rmat(&RmatConfig::graph500(9, 6_000, 31));
    let x = Matrix::glorot(g.num_nodes(), 32, 5);
    let engine = MggEngine::new(&g, ClusterSpec::dgx_a100(4), MggConfig::default_fixed(), AggregateMode::Sum);
    let baseline = with_threads(1, || engine.aggregate_values(&x));
    let want = fnv1a(baseline.data().iter().map(|f| f.to_bits() as u64));
    for t in THREAD_COUNTS {
        let plain = with_threads(t, || engine.aggregate_values(&x));
        assert_eq!(want, fnv1a(plain.data().iter().map(|f| f.to_bits() as u64)));
        let (profiled, profile) = collect(|| with_threads(t, || engine.aggregate_values(&x)));
        assert_eq!(
            want,
            fnv1a(profiled.data().iter().map(|f| f.to_bits() as u64)),
            "profiler changed aggregation bits at {t} threads"
        );
        check_invariants(&profile, t);
        // The engine labels its aggregation region.
        assert!(
            profile.regions.iter().any(|r| r.name.starts_with("engine.")),
            "expected an engine.* region, got {:?}",
            profile.regions.iter().map(|r| r.name.clone()).collect::<Vec<_>>()
        );
    }
}

/// Uneven workloads (the idle/merge-wait-heavy case) still tile correctly.
#[test]
fn skewed_workload_profile_satisfies_invariants() {
    let jobs: Vec<u64> = (0..16).map(|i| if i == 0 { 400_000 } else { 4_000 }).collect();
    let work = |&n: &u64| {
        let mut acc = 0u64;
        for i in 0..n {
            acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
        acc
    };
    for t in [2usize, 4, 7] {
        let plain = with_threads(1, || par_map(&jobs, work));
        let (profiled, profile) = collect(|| with_threads(t, || par_map(&jobs, work)));
        assert_eq!(plain, profiled);
        check_invariants(&profile, t);
    }
}

/// The perfdiff sentinel flags a synthetic 20% regression on every guarded
/// metric family and stays silent inside tolerance.
#[test]
fn perfdiff_flags_synthetic_perturbations() {
    use mgg_cli::perfdiff::diff_values;

    let doc = |speedup: f64, p95: f64, goodput: f64, hit: f64| -> serde_json::Value {
        serde_json::from_str(&format!(
            r#"{{"rows": [{{"threads": 4, "speedup": {speedup}, "p95_ns": {p95}}}],
                 "goodput_qps": {goodput}, "cache_hit_rate": {hit}, "digest": "feed"}}"#
        ))
        .unwrap()
    };
    let base = doc(3.0, 1_000.0, 2.0e6, 0.90);

    // -20% on a higher-better metric and +20% on a lower-better metric are
    // both outside tolerance.
    let slow = doc(2.4, 1_200.0, 1.6e6, 0.70);
    let r = diff_values(&base, &slow, "base", "slow");
    assert_eq!(r.errors, 0);
    assert!(r.regressed >= 4, "expected all four perturbations flagged: {r:?}");

    // +20% the other way is an improvement, never a regression.
    let fast = doc(3.6, 800.0, 2.4e6, 0.95);
    let r = diff_values(&base, &fast, "base", "fast");
    assert_eq!(r.regressed, 0, "{r:?}");
    assert!(r.improved >= 3, "{r:?}");

    // Small wobble (well inside every tolerance) is silent.
    let wobble = doc(2.9, 1_030.0, 1.95e6, 0.895);
    let r = diff_values(&base, &wobble, "base", "wobble");
    assert!(r.clean(), "{r:?}");
    assert_eq!(r.improved + r.regressed, 0, "{r:?}");

    // Identical inputs are exactly clean.
    let r = diff_values(&base, &base, "base", "base");
    assert!(r.clean());
    assert_eq!(r.improved + r.regressed, 0);
}
