//! `paper-sweep`: the Figure-8 grid on the timing plane.
//!
//! Five Table-3 stand-ins x {4, 8} GPUs x {GCN, GIN}. Each cell tunes MGG
//! with the §4 tuner, then prices the model's forward pass on tuned MGG
//! and on the UVM baseline. No cache, no functional values: the simulator,
//! kernel build, tuner and UVM baseline do the work. Cells fan out over
//! the worker pool at width 2.

use std::sync::Mutex;

use mgg_baselines::UvmGnnEngine;
use mgg_core::{AnalyticalModel, MggConfig, MggEngine, Tuner};
use mgg_gnn::models::{DenseCostModel, ModelKind};
use mgg_graph::datasets::{Dataset, DatasetSpec};
use mgg_sim::{ClusterSpec, KernelStats};

use super::values_gate;
use super::{build_mgg, gate_features, mix, model_time, replay_launch, simulate_mgg, tune_dim};
use super::{Iteration, Size, Workload};
use crate::metrics::{Clock, Gates, Ledger, Metric};
use crate::span::{in_cell, span, timed};
use crate::stats::geomean;

/// Salt of the dataset seeds.
const DATASET_SALT: u64 = 0xF168;

/// Feature width of the values gate.
const GATE_DIM: usize = 16;

/// One grid cell and its engines (reused by every iteration; the tuner
/// sets the configuration before each probe, so no state carries over).
struct Cell {
    dataset: usize,
    gpus: usize,
    kind: ModelKind,
    mgg: MggEngine,
    uvm: UvmGnnEngine,
    /// Tuned configuration and the tuning dimension, from the last
    /// iteration (for the replay).
    tuned: Option<(MggConfig, usize, KernelStats)>,
}

/// What one cell reports.
struct CellOut {
    mgg_ns: u64,
    uvm_ns: u64,
    mgg_aggregate_ns: u64,
    mgg_dense_ns: u64,
    best: MggConfig,
    ledger: Ledger,
    gates: Gates,
}

/// The `paper-sweep` workload.
pub struct PaperSweep {
    seed: u64,
    scale: f64,
    gpu_counts: &'static [usize],
    datasets: Vec<Dataset>,
    cells: Vec<Mutex<Cell>>,
}

impl PaperSweep {
    /// The workload at `size` for `seed`.
    pub fn new(seed: u64, size: Size) -> Self {
        let (scale, gpu_counts): (f64, &'static [usize]) = match size {
            Size::Full => (0.0625, &[4, 8]),
            Size::Tiny => (1.0 / 128.0, &[4]),
        };
        PaperSweep {
            seed,
            scale,
            gpu_counts,
            datasets: Vec::new(),
            cells: Vec::new(),
        }
    }
}

fn kind_name(kind: ModelKind) -> &'static str {
    match kind {
        ModelKind::Gcn => "GCN",
        ModelKind::Gin => "GIN",
    }
}

fn run_cell(cell: &mut Cell, d: &Dataset) -> CellOut {
    let mut ledger = Ledger::default();
    let mut gates = Gates::default();
    let spec = cell.mgg.cluster.spec.clone();
    let dim = tune_dim(cell.kind, d.spec.dim, d.spec.classes);
    let model = AnalyticalModel::new(spec.gpu.clone(), dim);
    let engine = &mut cell.mgg;

    let mut failed_probes = 0u64;
    let (result, ns) = timed("core.tune", || {
        Tuner::new(|cfg: &MggConfig| {
            ledger.add("core.tune_evals", 1.0);
            if engine.set_config(*cfg).is_err() {
                failed_probes += 1;
                return u64::MAX;
            }
            match simulate_mgg(engine, dim, &mut ledger) {
                Ok((ns, _)) => ns,
                Err(_) => {
                    failed_probes += 1;
                    u64::MAX
                }
            }
        })
        .with_feasibility(move |cfg| model.feasible(cfg))
        .run()
    });
    ledger.add("core.tune_s", ns as f64 / 1e9);
    gates.check(failed_probes == 0, || {
        format!("{failed_probes} tuner probe launches failed")
    });
    let best = result.best;
    gates.check(engine.set_config(best).is_ok(), || {
        format!("tuned config {best:?} rejected")
    });

    let n = d.graph.num_nodes();
    let cost = DenseCostModel::a100(cell.gpus);
    let mut tuned_stats = None;
    let mgg_agg = |agg_dim: usize| match simulate_mgg(engine, agg_dim, &mut ledger) {
        Ok((ns, stats)) => {
            ledger.reported_kernel(&stats);
            if agg_dim == dim && tuned_stats.is_none() {
                tuned_stats = Some(stats);
            }
            ns
        }
        Err(e) => {
            gates.check(false, || {
                format!("MGG model launch at dim {agg_dim} failed: {e}")
            });
            0
        }
    };
    let mgg = model_time(cell.kind, n, d.spec.dim, d.spec.classes, &cost, mgg_agg);

    let uvm_engine = &mut cell.uvm;
    let uvm_agg = |agg_dim: usize| {
        let stats = span("baselines.simulate", || {
            uvm_engine.simulate_aggregation(agg_dim)
        });
        ledger.kernel(&stats);
        stats.makespan_ns() + spec.kernel_launch_ns
    };
    let uvm = model_time(cell.kind, n, d.spec.dim, d.spec.classes, &cost, uvm_agg);

    // The replay re-lowers the tuned launch at the tuning dimension; keep
    // what the engine reported for it (or simulate it when the model
    // never aggregates at that width).
    let tuned = match tuned_stats {
        Some(s) => Some(s),
        None => simulate_mgg(engine, dim, &mut Ledger::default())
            .ok()
            .map(|(_, s)| s),
    };
    cell.tuned = tuned.map(|s| (best, dim, s));

    CellOut {
        mgg_ns: mgg.total_ns(),
        uvm_ns: uvm.total_ns(),
        mgg_aggregate_ns: mgg.aggregate_ns,
        mgg_dense_ns: mgg.dense_ns,
        best,
        ledger,
        gates,
    }
}

impl Workload for PaperSweep {
    fn pool_width(&self) -> usize {
        2
    }

    fn setup(&mut self) -> Ledger {
        let mut ledger = Ledger::default();
        let mut datasets = Vec::new();
        for (i, spec) in DatasetSpec::table3().into_iter().enumerate() {
            let spec = DatasetSpec {
                seed: mix(self.seed, DATASET_SALT + i as u64),
                ..spec
            };
            let (d, ns) = timed("graph.generate", || spec.build(self.scale));
            ledger.add("graph.generate_s", ns as f64 / 1e9);
            datasets.push(d);
        }
        let mut cells = Vec::new();
        for (di, d) in datasets.iter().enumerate() {
            for &gpus in self.gpu_counts {
                for kind in [ModelKind::Gcn, ModelKind::Gin] {
                    let spec = ClusterSpec::dgx_a100(gpus);
                    let mode = kind.aggregate_mode();
                    let mgg = build_mgg(
                        &d.graph,
                        spec.clone(),
                        MggConfig::initial(),
                        mode,
                        &mut ledger,
                    );
                    let uvm = span("baselines.plan", || UvmGnnEngine::new(&d.graph, spec, mode));
                    cells.push(Mutex::new(Cell {
                        dataset: di,
                        gpus,
                        kind,
                        mgg,
                        uvm,
                        tuned: None,
                    }));
                }
            }
        }
        self.datasets = datasets;
        self.cells = cells;
        ledger
    }

    fn iterate(&mut self) -> Iteration {
        let ids: Vec<usize> = (0..self.cells.len()).collect();
        let datasets = &self.datasets;
        let cells = &self.cells;
        let t = std::time::Instant::now();
        let outs: Vec<CellOut> = span("runtime.par_map", || {
            mgg_runtime::par_map(&ids, |&i| {
                in_cell(i as u32, || {
                    span("bench.cell", || {
                        let mut cell = cells[i].lock().expect("cell lock");
                        let d = &datasets[cell.dataset];
                        run_cell(&mut cell, d)
                    })
                })
            })
        });
        let wall_s = t.elapsed().as_secs_f64();

        let mut it = Iteration::default();
        let mut mgg_ms = Vec::new();
        let mut speedups = Vec::new();
        let mut uvm_ms = Vec::new();
        for o in outs {
            it.digest.push(o.mgg_ns);
            it.digest.push(o.uvm_ns);
            it.digest.push(o.mgg_aggregate_ns);
            it.digest.push(o.mgg_dense_ns);
            for v in [o.best.ps, o.best.dist, o.best.wpb] {
                it.digest.push(v as u64);
            }
            mgg_ms.push(o.mgg_ns as f64 / 1e6);
            uvm_ms.push(o.uvm_ns as f64 / 1e6);
            speedups.push(o.uvm_ns as f64 / o.mgg_ns.max(1) as f64);
            it.ledger
                .add("model.aggregate_sim_ms", o.mgg_aggregate_ns as f64 / 1e6);
            it.ledger
                .add("model.dense_sim_ms", o.mgg_dense_ns as f64 / 1e6);
            it.ledger.merge(&o.ledger);
            it.gates.merge(o.gates);
        }
        let cells_n = mgg_ms.len();
        it.ledger
            .add("baselines.uvm_model_sim_ms_geomean", geomean(&uvm_ms));
        it.simulated.push(
            Metric::new(
                "model_sim_ms_geomean",
                geomean(&mgg_ms),
                "ms",
                Clock::Simulated,
                cells_n,
            )
            .with_note("tuned MGG forward pass, geomean over cells"),
        );
        it.simulated.push(
            Metric::new(
                "speedup_vs_uvm_geomean",
                geomean(&speedups),
                "x",
                Clock::Simulated,
                cells_n,
            )
            .with_note("UVM over tuned MGG, geomean over cells"),
        );
        let warps = it.ledger.get("sim.warps");
        it.host.push(
            Metric::new("sim_warps_per_s", warps / wall_s, "warps/s", Clock::Host, 1)
                .with_note("simulated warps (MGG and UVM) per host second"),
        );
        it
    }

    fn final_gates(&mut self) -> Gates {
        let mut gates = Gates::default();
        let mut ledger = Ledger::default();
        for (i, cell) in self.cells.iter().enumerate() {
            let cell = cell.lock().expect("cell lock");
            let d = &self.datasets[cell.dataset];
            let x = gate_features(d.graph.num_nodes(), GATE_DIM, mix(self.seed, i as u64));
            let what = format!(
                "{} {} GPUs {}",
                d.spec.name,
                cell.gpus,
                kind_name(cell.kind)
            );
            values_gate(&cell.mgg, &x, &mut ledger, &mut gates, &what);
        }
        gates
    }

    fn replay(&mut self, gates: &mut Gates) -> Ledger {
        let mut ledger = Ledger::default();
        for cell in &self.cells {
            let cell = cell.lock().expect("cell lock");
            let d = &self.datasets[cell.dataset];
            if let Some((cfg, dim, stats)) = &cell.tuned {
                let spec = cell.mgg.cluster.spec.clone();
                replay_launch(&d.graph, &spec, cfg, *dim, stats, &mut ledger, gates);
            } else {
                gates.check(false, || "cell has no tuned launch to replay".to_string());
            }
        }
        ledger
    }
}
