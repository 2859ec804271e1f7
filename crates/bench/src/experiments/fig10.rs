//! Figure 10: parameter selection under the analytical model and tuner.
//!
//! Three settings, as in the paper: (I) Reddit GCN on 4×A100, (II) on
//! 8×A100, (III) on 4×V100. For each we sweep the full `(ps, dist)` grid
//! (at `wpb = 1`) and the `(wpb, dist)` grid (at the tuned `ps`), then run
//! the cross-iteration tuner and report where it lands, in how many
//! probes, and the latency cut vs the all-ones initial configuration
//! (paper: ~10 probes, up to 68% reduction).

use mgg_core::{AnalyticalModel, MggConfig, MggEngine, Tuner};
use mgg_gnn::reference::AggregateMode;
use mgg_sim::ClusterSpec;
use serde::Serialize;

use mgg_graph::datasets::DatasetSpec;

use crate::report::ExperimentReport;

/// Serialized `grid cell` record of this experiment.
#[derive(Debug, Clone, Serialize)]
pub struct GridCell {
    /// Neighbor-partition size knob.
    pub ps: u32,
    /// Interleaving distance knob.
    pub dist: u32,
    /// Warps-per-block knob.
    pub wpb: u32,
    /// Simulated latency, ms.
    pub latency_ms: f64,
}

/// Serialized `fig10 setting` record of this experiment.
#[derive(Debug, Clone, Serialize)]
pub struct Fig10Setting {
    /// Row label.
    pub name: String,
    /// Latencies over (ps, dist) at wpb = 1.
    pub ps_dist_grid: Vec<GridCell>,
    /// Latencies over (wpb, dist) at the tuned ps.
    pub wpb_dist_grid: Vec<GridCell>,
    /// The tuner’s pick.
    pub tuned: MggConfig,
    /// Tuned latency, in simulated ms.
    pub tuned_latency_ms: f64,
    /// Initial latency, in simulated ms.
    pub initial_latency_ms: f64,
    /// Tuner iterations.
    pub tuner_iterations: usize,
    /// Improvement fraction.
    pub improvement_pct: f64,
    /// Best latency anywhere on the sweeps, to judge tuner quality.
    pub grid_best_ms: f64,
}

/// Serialized `fig10 report` record of this experiment.
#[derive(Debug, Clone, Serialize)]
pub struct Fig10Report {
    /// Per-dataset tuning settings.
    pub settings: Vec<Fig10Setting>,
}

const PS_STEPS: [u32; 6] = [1, 2, 4, 8, 16, 32];
const DIST_STEPS: [u32; 5] = [1, 2, 4, 8, 16];
const WPB_STEPS: [u32; 5] = [1, 2, 4, 8, 16];

fn sweep_setting(name: String, spec: ClusterSpec, dim: usize, scale: f64) -> Fig10Setting {
    let d = DatasetSpec::rdd().build(scale);
    let mut engine =
        MggEngine::new(&d.graph, spec.clone(), MggConfig::initial(), AggregateMode::GcnNorm);
    let model = AnalyticalModel::new(spec.gpu.clone(), dim);

    let mut eval = |cfg: MggConfig| -> Option<u64> {
        if !model.feasible(&cfg) {
            return None;
        }
        engine.set_config(cfg).expect("search configs are valid");
        engine.simulate_aggregation_ns(dim).ok()
    };

    // (ps, dist) grid at wpb = 1.
    let mut ps_dist_grid = Vec::new();
    for &ps in &PS_STEPS {
        for &dist in &DIST_STEPS {
            let cfg = MggConfig { ps, dist, wpb: 1 };
            if let Some(ns) = eval(cfg) {
                ps_dist_grid.push(GridCell { ps, dist, wpb: 1, latency_ms: ns as f64 / 1e6 });
            }
        }
    }

    // Tuner run (fresh table; reuses the same engine through a RefCell).
    let engine_cell = std::cell::RefCell::new(&mut engine);
    let model2 = model.clone();
    let result = Tuner::new(|cfg: &MggConfig| {
        let mut e = engine_cell.borrow_mut();
        e.set_config(*cfg).expect("search configs are valid");
        e.simulate_aggregation_ns(dim).unwrap_or(u64::MAX)
    })
    .with_feasibility(move |cfg| model2.feasible(cfg))
    .run();
    let _ = engine_cell;

    // (wpb, dist) grid at the tuned ps.
    let mut wpb_dist_grid = Vec::new();
    for &wpb in &WPB_STEPS {
        for &dist in &DIST_STEPS {
            let cfg = MggConfig { ps: result.best.ps, dist, wpb };
            if model.feasible(&cfg) {
                engine.set_config(cfg).expect("search configs are valid");
                if let Ok(ns) = engine.simulate_aggregation_ns(dim) {
                    wpb_dist_grid.push(GridCell {
                        ps: result.best.ps,
                        dist,
                        wpb,
                        latency_ms: ns as f64 / 1e6,
                    });
                }
            }
        }
    }

    let grid_best_ms = ps_dist_grid
        .iter()
        .chain(&wpb_dist_grid)
        .map(|c| c.latency_ms)
        .fold(f64::INFINITY, f64::min);

    Fig10Setting {
        name,
        ps_dist_grid,
        wpb_dist_grid,
        tuned: result.best,
        tuned_latency_ms: result.best_latency_ns as f64 / 1e6,
        initial_latency_ms: result.initial_latency_ns() as f64 / 1e6,
        tuner_iterations: result.iterations,
        improvement_pct: 100.0 * result.improvement(),
        grid_best_ms,
    }
}

/// Runs all four settings, one job each on the worker pool, merged in
/// setting order.
///
/// The swept aggregation dimension is the GCN hidden size (16): GCN
/// layers aggregate at the narrow side of the weight multiply, so this is
/// the dimension the runtime actually tunes for — and the regime where
/// the knobs matter (per-request overheads, not wire bytes, dominate).
pub fn run(scale: f64) -> Fig10Report {
    let dim = 16usize;
    let settings = [
        ("I: RDD GCN on 4xA100", ClusterSpec::dgx_a100(4)),
        ("II: RDD GCN on 8xA100", ClusterSpec::dgx_a100(8)),
        ("III: RDD GCN on 4xV100", ClusterSpec::dgx1_v100(4)),
        // Beyond the paper: the full DGX-1V, whose hybrid cube-mesh makes
        // some peers two hops away — another knob-shifting platform.
        ("IV: RDD GCN on 8xV100 (cube mesh)", ClusterSpec::dgx1_v100(8)),
    ];
    let _lbl = mgg_runtime::profile::region_label("bench.fig10");
    let settings = mgg_runtime::par_map(&settings, |(name, spec)| {
        sweep_setting(name.to_string(), spec.clone(), dim, scale)
    });
    Fig10Report { settings }
}

impl ExperimentReport for Fig10Report {
    fn id(&self) -> &'static str {
        "fig10"
    }

    fn print(&self) {
        println!("Figure 10: parameter selection for three settings");
        for s in &self.settings {
            println!("\nSetting {}", s.name);
            println!("  (ps x dist) latency grid at wpb=1, ms:");
            print!("  {:>6}", "ps\\d");
            for &d in &DIST_STEPS {
                print!(" {d:>8}");
            }
            println!();
            for &ps in &PS_STEPS {
                print!("  {ps:>6}");
                for &d in &DIST_STEPS {
                    match s.ps_dist_grid.iter().find(|c| c.ps == ps && c.dist == d) {
                        Some(c) => print!(" {:>8.3}", c.latency_ms),
                        None => print!(" {:>8}", "-"),
                    }
                }
                println!();
            }
            println!("  (wpb x dist) latency grid at tuned ps={}, ms:", s.tuned.ps);
            print!("  {:>6}", "wpb\\d");
            for &d in &DIST_STEPS {
                print!(" {d:>8}");
            }
            println!();
            for &wpb in &WPB_STEPS {
                print!("  {wpb:>6}");
                for &d in &DIST_STEPS {
                    match s.wpb_dist_grid.iter().find(|c| c.wpb == wpb && c.dist == d) {
                        Some(c) => print!(" {:>8.3}", c.latency_ms),
                        None => print!(" {:>8}", "-"),
                    }
                }
                println!();
            }
            println!(
                "  tuner: {} in {} probes | initial {:.3} ms -> tuned {:.3} ms ({:.0}% cut, grid best {:.3} ms)",
                s.tuned,
                s.tuner_iterations,
                s.initial_latency_ms,
                s.tuned_latency_ms,
                s.improvement_pct,
                s.grid_best_ms
            );
        }
        println!("\n(paper: ~10 probe iterations, up to 68% latency reduction vs initial)");
    }
}
