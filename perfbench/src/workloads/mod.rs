//! The three workloads and what they share.
//!
//! Each workload is set up from the seed, then run as whole iterations;
//! every iteration reproduces the same simulated outputs (the digest
//! proves it), and only host time varies between them.

pub mod paper_sweep;
pub mod serve_churn;
pub mod train_values;

use mgg_bench::experiments::common::{model_time_ns, SimAggregator};
use mgg_core::mapping::MappingMode;
use mgg_core::placement::HybridPlacement;
use mgg_core::workload::build_plans;
use mgg_core::{AnalyticalModel, KernelVariant, MggConfig, MggEngine, MggError, MggKernel};
use mgg_gnn::models::{Aggregator, DenseCostModel, ModelKind};
use mgg_gnn::tensor::Matrix;
use mgg_graph::CsrGraph;
use mgg_sim::{Cluster, ClusterSpec, GpuSim, KernelStats, NoPaging};

use crate::metrics::{Digest, Gates, Ledger, Metric};
use crate::span::{span, timed};

/// Input size: the benchmark's own, or a tiny one for the smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured configuration.
    Full,
    /// Seconds-scale inputs that still exercise every layer.
    Tiny,
}

/// What one iteration produced.
#[derive(Debug, Clone, Default)]
pub struct Iteration {
    /// Simulated-clock metrics (identical on every iteration of a seed).
    pub simulated: Vec<Metric>,
    /// Host-clock metrics specific to the workload (`sim_warps_per_s`).
    pub host: Vec<Metric>,
    /// Digest of every simulated output of the iteration.
    pub digest: Digest,
    /// Per-layer counters.
    pub ledger: Ledger,
    /// Gates evaluated during the iteration.
    pub gates: Gates,
}

/// A workload: set up from the seed, then iterated.
pub trait Workload {
    /// Worker-pool width the workload runs at.
    fn pool_width(&self) -> usize;
    /// Builds the inputs (and reusable engines) from the seed, replacing
    /// any previous set-up. Returns the set-up ledger.
    fn setup(&mut self) -> Ledger;
    /// One full pass of the workload.
    fn iterate(&mut self) -> Iteration;
    /// Correctness gates that run once after the measured iterations.
    fn final_gates(&mut self) -> Gates;
    /// The traced kernel-build vs event-loop replay: one launch per cell
    /// through the placement, plan, kernel-build and simulator calls.
    fn replay(&mut self, gates: &mut Gates) -> Ledger;
}

/// Builds a workload by name.
pub fn by_name(name: &str, seed: u64, size: Size) -> Option<Box<dyn Workload>> {
    match name {
        "paper-sweep" => Some(Box::new(paper_sweep::PaperSweep::new(seed, size))),
        "train-values" => Some(Box::new(train_values::TrainValues::new(seed, size))),
        "serve-churn" => Some(Box::new(serve_churn::ServeChurn::new(seed, size))),
        _ => None,
    }
}

/// Every workload name, in report order.
pub const NAMES: [&str; 3] = ["paper-sweep", "train-values", "serve-churn"];

/// Derives an input seed from the workload seed and a per-input salt
/// (splitmix64 finaliser), so one workload seed moves every input.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One MGG timing-plane call, timed and entered in the ledger. Returns the
/// simulated duration including launch overhead.
pub fn simulate_mgg(
    engine: &mut MggEngine,
    dim: usize,
    ledger: &mut Ledger,
) -> Result<(u64, KernelStats), MggError> {
    let (res, ns) = timed("core.simulate", || engine.simulate_aggregation(dim));
    ledger.simulate_ns.push(ns);
    ledger.add("core.simulate_calls", 1.0);
    let stats = res?;
    ledger.kernel(&stats);
    Ok((
        stats.makespan_ns() + engine.cluster.spec.kernel_launch_ns,
        stats,
    ))
}

/// One functional aggregation, timed and entered in the ledger.
pub fn values_mgg(engine: &MggEngine, x: &Matrix, ledger: &mut Ledger) -> Matrix {
    let (out, ns) = timed("core.values", || engine.aggregate_values(x));
    ledger.values_ns.push(ns);
    ledger.add("core.values_calls", 1.0);
    ledger.add(
        "core.values_flops",
        2.0 * engine.graph().num_edges() as f64 * x.cols() as f64,
    );
    out
}

/// Builds an MGG engine, timed as placement planning.
pub fn build_mgg(
    graph: &CsrGraph,
    spec: ClusterSpec,
    config: MggConfig,
    mode: mgg_gnn::reference::AggregateMode,
    ledger: &mut Ledger,
) -> MggEngine {
    let (engine, ns) = timed("core.plan", || MggEngine::new(graph, spec, config, mode));
    ledger.add("core.plan_s", ns as f64 / 1e9);
    engine
}

/// Deterministic features for the values gates: `n x dim`, a pure
/// function of the index and `salt`.
pub fn gate_features(n: usize, dim: usize, salt: u64) -> Matrix {
    let mut x = Matrix::zeros(n, dim);
    for (i, v) in x.data_mut().iter_mut().enumerate() {
        let h = mix(i as u64, salt);
        *v = (h % 2001) as f32 / 1000.0 - 1.0;
    }
    x
}

/// The values gate: MGG's functional aggregation of `x` must be
/// bit-identical to the reference aggregation on the engine's (possibly
/// mutated) graph. Returns a digest of the output.
pub fn values_gate(
    engine: &MggEngine,
    x: &Matrix,
    ledger: &mut Ledger,
    gates: &mut Gates,
    what: &str,
) -> u64 {
    let got = values_mgg(engine, x, ledger);
    let want = span("gnn.reference", || {
        mgg_gnn::reference::aggregate(engine.graph(), x, engine.mode())
    });
    let same = got.rows() == want.rows()
        && got.cols() == want.cols()
        && got
            .data()
            .iter()
            .zip(want.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
    gates.check(same, || {
        format!("values of {what} differ from the reference aggregation")
    });
    let mut d = Digest::default();
    got.data().iter().for_each(|v| d.push(v.to_bits() as u64));
    d.0
}

/// Simulated forward time of a paper model, split into aggregation and
/// dense parts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelTime {
    /// Aggregation kernels, ns.
    pub aggregate_ns: u64,
    /// Dense GEMM / elementwise kernels, ns.
    pub dense_ns: u64,
}

impl ModelTime {
    /// The forward pass, ns.
    pub fn total_ns(&self) -> u64 {
        self.aggregate_ns + self.dense_ns
    }
}

/// A [`SimAggregator`] that prices each aggregation with `agg` and keeps
/// the dimension and simulated ns of every call.
struct Priced<F> {
    agg: F,
    calls: Vec<(usize, u64)>,
}

impl<F: FnMut(usize) -> u64> SimAggregator for Priced<F> {
    fn sim_ns(&mut self, dim: usize) -> u64 {
        let ns = (self.agg)(dim);
        self.calls.push((dim, ns));
        ns
    }
}

/// Runs fig8's timing composition (`model_time_ns`) of `kind` with
/// `agg(dim)` pricing each aggregation; returns the aggregation dimensions
/// in call order and the forward time.
fn compose(
    kind: ModelKind,
    num_nodes: usize,
    input_dim: usize,
    classes: usize,
    cost: &DenseCostModel,
    agg: impl FnMut(usize) -> u64,
) -> (Vec<(usize, u64)>, u64) {
    let mut p = Priced {
        agg,
        calls: Vec::new(),
    };
    let total = model_time_ns(&mut p, kind, num_nodes, input_dim, classes, cost);
    (p.calls, total)
}

/// The Figure-8 forward time of `kind`, priced exactly as fig8 prices its
/// cells; the dense part is what the aggregations leave of the total.
pub fn model_time(
    kind: ModelKind,
    num_nodes: usize,
    input_dim: usize,
    classes: usize,
    cost: &DenseCostModel,
    agg: impl FnMut(usize) -> u64,
) -> ModelTime {
    let (calls, total) = compose(kind, num_nodes, input_dim, classes, cost, agg);
    let aggregate_ns = calls.iter().map(|&(_, ns)| ns).sum();
    ModelTime {
        aggregate_ns,
        dense_ns: total - aggregate_ns,
    }
}

/// The dimension fig8 tunes a cell for: the model's first aggregation
/// width (GCN transform-first at the hidden width, GIN's raw features),
/// read off the composition without simulating anything.
pub fn tune_dim(kind: ModelKind, input_dim: usize, classes: usize) -> usize {
    let cost = DenseCostModel::a100(1);
    compose(kind, 1, input_dim, classes, &cost, |_| 0).0[0].0
}

/// The kernel-build vs event-loop replay of one launch: placement, work
/// plans, kernel lowering and the simulator, each timed on its own. The
/// replayed statistics must equal what the engine reported for the same
/// graph, GPU count, configuration and dimension (`expect`).
pub fn replay_launch(
    graph: &CsrGraph,
    spec: &ClusterSpec,
    cfg: &MggConfig,
    dim: usize,
    expect: &KernelStats,
    ledger: &mut Ledger,
    gates: &mut Gates,
) {
    let (placement, ns) = timed("core.partition", || {
        HybridPlacement::plan(graph, spec.num_gpus)
    });
    ledger.add("core.partition_s", ns as f64 / 1e9);
    let (plans, ns) = timed("core.build_plans", || build_plans(&placement, cfg.ps));
    ledger.add("core.build_plans_s", ns as f64 / 1e9);
    let model = AnalyticalModel::new(spec.gpu.clone(), dim);
    let (kernel, ns) = timed("core.kernel_build", || {
        MggKernel::build(
            &placement,
            &plans,
            cfg,
            dim,
            &model,
            KernelVariant::AsyncPipelined,
            MappingMode::Interleaved,
        )
    });
    ledger.add("core.kernel_build_s", ns as f64 / 1e9);
    let mut cluster = Cluster::new(spec.clone());
    let (stats, ns) = timed("sim.run", || {
        GpuSim::run(&mut cluster, &kernel, &mut NoPaging)
    });
    ledger.add("sim.run_s", ns as f64 / 1e9);
    match stats {
        Ok(stats) => {
            ledger.add(
                "replay.warps",
                stats.per_gpu.iter().map(|g| g.warps).sum::<u64>() as f64,
            );
            gates.check(&stats == expect, || {
                format!(
                    "replayed launch ({} GPUs, dim {dim}) differs from the engine's: {} vs {} ns",
                    spec.num_gpus,
                    stats.makespan_ns(),
                    expect.makespan_ns()
                )
            });
        }
        Err(e) => gates.check(false, || format!("replayed launch failed: {e}")),
    }
}
