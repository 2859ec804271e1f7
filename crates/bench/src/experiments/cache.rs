//! `ext_cache`: the remote-embedding cache sweep — the artifact behind
//! `mgg-cache`'s per-GPU HBM cache.
//!
//! For every Table-3 dataset the experiment simulates a multi-layer
//! aggregation pass uncached, then repeats it across a grid of cache
//! configurations: the LRU sweep at increasing budgets and an LFU cell at
//! the 1 MiB eviction-thrash point. Each cached row reports the per-layer
//! mean latency, the cache counters, and the speedup against the uncached
//! baseline of the same dataset. Because the engine keeps cache residency
//! across kernels, later layers re-hit rows fetched by earlier layers — the
//! sweep shows intra-kernel coalescing and cross-layer reuse in one table.
//!
//! The stable correctness signals (the JSON's raison d'être in CI):
//!
//! * `datasets_improved`: the best cached configuration beats the
//!   uncached baseline on every dataset.
//! * `one_mib_floor`: the best 1 MiB configuration is never a slowdown —
//!   the eviction-thrash point is held at >= 1.0x by LFU + the pipelined
//!   (non-blocking) hit path.
//! * `cached_beats_shipped`: at the canonical full-scale run the best
//!   cached configuration beats the latencies the first cache release
//!   shipped on at least 4/5 datasets.
//! * `replay_matches`: values digest and `CacheStats` are bit-identical at
//!   1, 2, 4, and 7 worker threads.
//! * `stale_reads == 0`: the cache never serves a stale row.
//! * `showcase`: a Zipf-skewed serving calibration — the cache raises the
//!   calibrated saturation ceiling on a skewed query mix.

use mgg_core::{CacheConfig, CachePolicy, MggConfig, MggEngine};
use mgg_gnn::tensor::Matrix;
use mgg_gnn::reference::AggregateMode;
use mgg_serve::{Server, ServeConfig, WorkloadSpec};
use mgg_sim::ClusterSpec;
use mgg_telemetry::Telemetry;
use serde::Serialize;

use crate::experiments::common::{datasets, digest_hex};
use crate::report::ExperimentReport;

/// LRU cache capacities swept per dataset, in MiB per GPU. `0` encodes the
/// uncached baseline row.
const SWEEP_MB: &[u32] = &[0, 1, 4, 16, 64];

/// Worker-pool widths the replay check runs under.
const REPLAY_THREADS: &[usize] = &[1, 2, 4, 7];

/// Best LRU mean latencies shipped by the first cache release at the
/// canonical full-scale run (scale 1.0, 8 GPUs, dim 64, 3 layers). The
/// acceptance bar: at full scale the best cached configuration must beat
/// these on >= 4/5 datasets.
const SHIPPED_SINGLE_TIER_BEST: &[(&str, u64)] = &[
    ("RDD", 31_713),
    ("ENWIKI", 72_676),
    ("PROD", 57_279),
    ("PROT", 28_816),
    ("ORKT", 33_180),
];

/// One (dataset, cache-configuration) cell of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct CacheRow {
    /// Dataset name.
    pub dataset: String,
    /// HBM cache budget in MiB per GPU; 0 = caching disabled.
    pub cache_mb: u32,
    /// Replacement policy name.
    pub policy: String,
    /// Mean simulated latency of one aggregation layer, in ns.
    pub mean_latency_ns: u64,
    /// Cache hits.
    pub hits: u64,
    /// Cache misses (fabric GETs issued).
    pub misses: u64,
    /// Requests folded into an in-flight fetch of the same row.
    pub coalesced: u64,
    /// Rows displaced from the cache.
    pub evictions: u64,
    /// hits / (hits + misses); coalesced requests are counted separately.
    pub hit_rate: f64,
    /// Uncached mean latency of the same dataset over this row's mean
    /// (> 1 means the configuration helped).
    pub speedup_vs_uncached: f64,
}

/// The Zipf-skewed serving showcase: the same skewed query mix calibrated
/// against an uncached engine and against a warmed cached engine.
#[derive(Debug, Clone, Serialize)]
pub struct ServeShowcase {
    /// Dataset name.
    pub dataset: String,
    /// Zipf skew of the query mix (hotter than the serving default).
    pub zipf_s: f64,
    /// Offered load, queries/s — the *uncached* saturation ceiling, so
    /// both runs face the same absolute demand.
    pub offered_qps: f64,
    /// Uncached saturation, queries/s.
    pub uncached_saturation_qps: f64,
    /// Cached saturation, queries/s.
    pub cached_saturation_qps: f64,
    /// Uncached p99, in simulated ns.
    pub uncached_p99_ns: u64,
    /// Cached p99, in simulated ns.
    pub cached_p99_ns: u64,
    /// Uncached goodput, queries/s.
    pub uncached_goodput_qps: f64,
    /// Cached goodput, queries/s.
    pub cached_goodput_qps: f64,
    /// cached_saturation / uncached_saturation (> 1: the cache raised the
    /// serving ceiling).
    pub saturation_uplift: f64,
}

/// The `ext_cache` report: the full sweep plus its headline claims.
#[derive(Debug, Clone, Serialize)]
pub struct CacheReport {
    /// Number of GPUs.
    pub gpus: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Aggregation layers simulated back-to-back per cell (residency
    /// carries across layers).
    pub layers: usize,
    /// Per-cell sweep rows.
    pub rows: Vec<CacheRow>,
    /// Datasets whose best cached mean latency beats their uncached mean.
    pub datasets_improved: usize,
    /// Dataset count.
    pub dataset_count: usize,
    /// Minimum over datasets of the best 1 MiB configuration's speedup.
    /// The eviction-thrash guarantee: this never drops below 1.0.
    pub one_mib_floor: f64,
    /// Datasets where the best cached configuration beats the best latency
    /// shipped by the first cache release. Only populated at the canonical
    /// full-scale run (scale 1.0, 8 GPUs) where those shipped numbers are
    /// comparable.
    pub cached_beats_shipped: Option<usize>,
    /// Values digest and cache counters bit-identical at 1, 2, 4, and 7
    /// worker threads.
    pub replay_matches: bool,
    /// Rows served from a cache at a stale version, summed over every
    /// cell. Must be zero: versioned admission refuses stale copies.
    pub stale_reads: u64,
    /// Showcase.
    pub showcase: ServeShowcase,
}

/// One cache configuration of the sweep grid.
#[derive(Clone, Copy)]
struct Cell {
    mb: u32,
    policy: CachePolicy,
}

impl Cell {
    fn config(self) -> CacheConfig {
        CacheConfig::from_mb(self.mb).with_policy(self.policy)
    }
}

/// The sweep grid: the LRU sweep plus the LFU cell at the 1 MiB thrash
/// point.
fn grid() -> Vec<Cell> {
    let mut cells: Vec<Cell> = SWEEP_MB
        .iter()
        .filter(|&&mb| mb > 0)
        .map(|&mb| Cell { mb, policy: CachePolicy::Lru })
        .collect();
    // The 1 MiB eviction-thrash point under frequency-aware replacement.
    cells.push(Cell { mb: 1, policy: CachePolicy::Lfu });
    cells
}

/// Simulates `layers` aggregation passes and returns the mean makespan
/// with the cache counters accumulated across all of them.
fn run_cell(
    eng: &mut MggEngine,
    dim: usize,
    layers: usize,
    cfg: Option<CacheConfig>,
) -> (u64, mgg_core::CacheStats) {
    eng.set_cache(cfg); // resets residency and counters for this cell
    let mut total_ns: u64 = 0;
    for _ in 0..layers {
        let stats = eng.simulate_aggregation(dim).expect("valid launch");
        total_ns += stats.makespan_ns();
    }
    (total_ns / layers as u64, eng.cache_stats())
}

/// Runs a 4 MiB LFU value plane under `threads` workers and returns the
/// output digest plus the counters — the replay check compares these
/// across pool widths.
fn digest_at_threads(
    graph: &mgg_graph::CsrGraph,
    gpus: usize,
    threads: usize,
) -> (String, mgg_core::CacheStats) {
    mgg_runtime::with_threads(threads, || {
        let mut engine = MggEngine::new(
            graph,
            ClusterSpec::dgx_a100(gpus),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        engine.set_cache(Some(Cell { mb: 4, policy: CachePolicy::Lfu }.config()));
        let n = engine.graph().num_nodes();
        let dim = 16;
        let mut x = Matrix::zeros(n, dim);
        for (i, v) in x.data_mut().iter_mut().enumerate() {
            *v = ((i * 31 + 7) % 97) as f32 * 0.01;
        }
        let (y, cs) = engine.aggregate_values_cached(&x).expect("cached values");
        (digest_hex(y.data().iter().map(|f| f.to_bits() as u64)), cs)
    })
}

/// Calibrates serving against an engine and runs one Zipf-skewed window,
/// returning (saturation_qps, p99_ns, goodput_qps).
fn serve_skewed(
    eng: &mut MggEngine,
    dim: usize,
    gpus: usize,
    offered_qps: Option<f64>,
    zipf_s: f64,
) -> (f64, u64, f64) {
    let server = Server::new(eng, dim, ServeConfig::default()).expect("serving calibration");
    let sat = server.calibration().saturation_qps;
    let qps = offered_qps.unwrap_or(sat);
    let mut spec = WorkloadSpec::poisson(42, qps, eng.graph().num_nodes());
    spec.zipf_s = zipf_s;
    let out = server.run(
        &spec,
        &mgg_fault::FaultSchedule::quiet(gpus),
        &Telemetry::disabled(),
    );
    (sat, out.summary.p99_ns, out.summary.goodput_qps)
}

/// The Zipf-skewed serving showcase on the most skew-sensitive dataset:
/// calibrate once uncached, once with a warmed 64 MiB LFU cache, and serve
/// the same skewed mix at the uncached saturation point.
fn showcase(scale: f64, gpus: usize, dim: usize) -> ServeShowcase {
    let ds = datasets(scale);
    let d = &ds[1]; // ENWIKI: heavy-skew degree distribution
    let zipf_s = 1.2;

    let mut plain = MggEngine::new(
        &d.graph,
        ClusterSpec::dgx_a100(gpus),
        MggConfig::default_fixed(),
        AggregateMode::Sum,
    );
    let (un_sat, _, _) = serve_skewed(&mut plain, dim, gpus, None, zipf_s);
    let (_, un_p99, un_goodput) = serve_skewed(&mut plain, dim, gpus, Some(un_sat), zipf_s);

    let mut cached = MggEngine::new(
        &d.graph,
        ClusterSpec::dgx_a100(gpus),
        MggConfig::default_fixed(),
        AggregateMode::Sum,
    );
    cached.set_cache(Some(Cell { mb: 64, policy: CachePolicy::Lfu }.config()));
    // Warm the cache so calibration sees steady-state residency — a
    // serving deployment amortizes its fill traffic across the window.
    cached.simulate_aggregation(dim).expect("warm-up launch");
    let (c_sat, _, _) = serve_skewed(&mut cached, dim, gpus, None, zipf_s);
    let (_, c_p99, c_goodput) = serve_skewed(&mut cached, dim, gpus, Some(un_sat), zipf_s);

    ServeShowcase {
        dataset: d.spec.name.to_string(),
        zipf_s,
        offered_qps: un_sat,
        uncached_saturation_qps: un_sat,
        cached_saturation_qps: c_sat,
        uncached_p99_ns: un_p99,
        cached_p99_ns: c_p99,
        uncached_goodput_qps: un_goodput,
        cached_goodput_qps: c_goodput,
        saturation_uplift: c_sat / un_sat.max(f64::MIN_POSITIVE),
    }
}

/// Runs the cache sweep at `scale`.
pub fn run(scale: f64, gpus: usize) -> CacheReport {
    let ds = datasets(scale);
    let dim = 64;
    let layers = 3;
    let cells = grid();
    let mut rows: Vec<CacheRow> = Vec::new();
    let mut datasets_improved = 0usize;
    let mut one_mib_floor = f64::INFINITY;
    let mut cached_beats = 0usize;
    let mut replay_matches = true;
    let mut stale_reads = 0u64;

    for d in &ds {
        let spec = ClusterSpec::dgx_a100(gpus);
        let mut eng =
            MggEngine::new(&d.graph, spec, MggConfig::default_fixed(), AggregateMode::Sum);

        let (base_ns, _) = run_cell(&mut eng, dim, layers, None);
        rows.push(CacheRow {
            dataset: d.spec.name.to_string(),
            cache_mb: 0,
            policy: "none".to_string(),
            mean_latency_ns: base_ns,
            hits: 0,
            misses: 0,
            coalesced: 0,
            evictions: 0,
            hit_rate: 0.0,
            speedup_vs_uncached: 1.0,
        });

        let mut best_cached = u64::MAX;
        let mut best_1mib = u64::MAX;
        for &cell in &cells {
            let (ns, cs) = run_cell(&mut eng, dim, layers, Some(cell.config()));
            best_cached = best_cached.min(ns);
            if cell.mb == 1 {
                best_1mib = best_1mib.min(ns);
            }
            rows.push(CacheRow {
                dataset: d.spec.name.to_string(),
                cache_mb: cell.mb,
                policy: cell.policy.to_string(),
                mean_latency_ns: ns,
                hits: cs.hits,
                misses: cs.misses,
                coalesced: cs.coalesced,
                evictions: cs.evictions,
                hit_rate: cs.hit_rate(),
                speedup_vs_uncached: base_ns as f64 / ns.max(1) as f64,
            });
        }
        if best_cached < base_ns {
            datasets_improved += 1;
        }
        one_mib_floor = one_mib_floor.min(base_ns as f64 / best_1mib.max(1) as f64);
        if let Some(&(_, shipped)) =
            SHIPPED_SINGLE_TIER_BEST.iter().find(|(n, _)| *n == d.spec.name)
        {
            if best_cached < shipped {
                cached_beats += 1;
            }
        }
        stale_reads += eng.stale_reads();

        // Replay check: the cached value plane digests the same under
        // every pool width, counters included.
        let reference = digest_at_threads(&d.graph, gpus, REPLAY_THREADS[0]);
        for &t in &REPLAY_THREADS[1..] {
            replay_matches &= digest_at_threads(&d.graph, gpus, t) == reference;
        }
    }

    let canonical = (scale - 1.0).abs() < f64::EPSILON && gpus == 8;
    CacheReport {
        gpus,
        dim,
        layers,
        rows,
        datasets_improved,
        dataset_count: ds.len(),
        one_mib_floor,
        cached_beats_shipped: canonical.then_some(cached_beats),
        replay_matches,
        stale_reads,
        showcase: showcase(scale, gpus, dim),
    }
}

impl ExperimentReport for CacheReport {
    fn id(&self) -> &'static str {
        "ext_cache"
    }

    fn print(&self) {
        println!(
            "Cache sweep: {} layers of dim-{} aggregation on {} GPUs",
            self.layers, self.dim, self.gpus
        );
        println!(
            "{:<8} {:>10} {:>12} {:>9} {:>9} {:>8}",
            "dataset", "config", "mean (ms)", "hit rate", "evictions", "speedup"
        );
        for r in &self.rows {
            let cfg = if r.cache_mb == 0 {
                "off".to_string()
            } else {
                format!("{}MiB {}", r.cache_mb, r.policy)
            };
            println!(
                "{:<8} {:>10} {:>12.3} {:>7.1}% {:>9} {:>7.2}x",
                r.dataset,
                cfg,
                r.mean_latency_ns as f64 / 1e6,
                100.0 * r.hit_rate,
                r.evictions,
                r.speedup_vs_uncached
            );
        }
        println!(
            "cache beat the uncached baseline on {}/{} datasets; 1 MiB floor {:.3}x",
            self.datasets_improved, self.dataset_count, self.one_mib_floor
        );
        if let Some(n) = self.cached_beats_shipped {
            println!("best cached config beat the shipped best on {n}/{} datasets", self.dataset_count);
        }
        let s = &self.showcase;
        println!(
            "zipf {:.1} serving on {}: saturation {:.0} -> {:.0} qps ({:.2}x), p99 {:.2} -> {:.2} us",
            s.zipf_s,
            s.dataset,
            s.uncached_saturation_qps,
            s.cached_saturation_qps,
            s.saturation_uplift,
            s.uncached_p99_ns as f64 / 1e3,
            s.cached_p99_ns as f64 / 1e3
        );
        println!(
            "replay across {:?} threads: {}; stale reads: {}",
            REPLAY_THREADS,
            if self.replay_matches { "bit-identical" } else { "DIVERGED" },
            self.stale_reads,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sweep_hits_and_beats_uncached() {
        let report = run(0.05, 4);
        assert_eq!(report.rows.len(), report.dataset_count * (grid().len() + 1));
        // Every cached row must see traffic, and every enabled capacity a hit.
        for r in report.rows.iter().filter(|r| r.cache_mb > 0) {
            assert!(r.hits > 0, "{} @ {} MiB had no hits", r.dataset, r.cache_mb);
            assert!(r.hit_rate > 0.0, "{} @ {} MiB", r.dataset, r.cache_mb);
        }
        // The headline acceptance claims.
        assert!(
            report.datasets_improved >= 2,
            "cache improved only {}/{} datasets",
            report.datasets_improved,
            report.dataset_count
        );
        assert!(
            report.one_mib_floor >= 1.0,
            "1 MiB thrash point regressed below uncached: {:.3}x",
            report.one_mib_floor
        );
        assert!(report.replay_matches, "thread-count replay diverged");
        assert_eq!(report.stale_reads, 0, "stale cache reads detected");
    }

    #[test]
    fn uncached_baseline_rows_report_no_cache_activity() {
        let report = run(0.03, 4);
        for r in report.rows.iter().filter(|r| r.cache_mb == 0) {
            assert_eq!((r.hits, r.misses, r.coalesced), (0, 0, 0), "{}", r.dataset);
            assert_eq!(r.speedup_vs_uncached, 1.0);
        }
    }

    #[test]
    fn skewed_serving_showcase_raises_the_ceiling() {
        let s = showcase(0.05, 4, 64);
        assert!(
            s.saturation_uplift > 1.0,
            "cache did not raise the skewed serving ceiling: {:.3}x",
            s.saturation_uplift
        );
        assert!(s.cached_p99_ns <= s.uncached_p99_ns, "cached p99 regressed");
    }
}
