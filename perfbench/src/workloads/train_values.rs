//! `train-values`: full-graph two-layer GCN training on MGG.
//!
//! An SBM planted-community graph trained for a fixed number of epochs
//! through `train_gcn_on_engine`. Every aggregation runs MGG's functional
//! value plane; the timing plane prices only the first epoch. Runs at
//! pool width 2, where the pool sees many small regions.

use mgg_core::{MggConfig, MggEngine};
use mgg_gnn::features::{label_features, split_masks};
use mgg_gnn::models::{Aggregator, DenseCostModel};
use mgg_gnn::reference::AggregateMode;
use mgg_gnn::tensor::Matrix;
use mgg_gnn::train::{train_gcn_on_engine, TrainConfig};
use mgg_graph::generators::random::{sbm, SbmConfig, SbmGraph};
use mgg_sim::ClusterSpec;

use super::{build_mgg, mix, replay_launch, simulate_mgg, values_gate, values_mgg};
use super::{Iteration, Size, Workload};
use crate::metrics::{Clock, Gates, Ledger, Metric};
use crate::span::{in_cell, timed};

/// Test accuracy of the default seed (seed 1) at the full size (0.97396).
pub const SEED_ACCURACY: f64 = 0.9740;

/// How far below [`SEED_ACCURACY`] a seed's test accuracy may land before
/// the accuracy gate fails. Covers the spread across seeds; a real
/// regression (broken aggregation or optimiser) lands far lower.
pub const ACCURACY_BOUND: f64 = 0.05;

/// GPUs of the simulated cluster.
const GPUS: usize = 4;

/// SBM blocks, which are also the classes.
const BLOCKS: usize = 10;

/// Input feature width.
const FEATURE_DIM: usize = 32;

/// Salts of the graph, feature, split and initialisation seeds.
const SBM_SALT: u64 = 0x5B3;
const FEATURE_SALT: u64 = 0xFEA7;
const SPLIT_SALT: u64 = 0x5917;
const INIT_SALT: u64 = 0x1417;

/// Training inputs.
struct Inputs {
    graph: SbmGraph,
    x: Matrix,
    train: Vec<bool>,
    val: Vec<bool>,
    test: Vec<bool>,
    engine: MggEngine,
}

/// The `train-values` workload.
pub struct TrainValues {
    seed: u64,
    /// Nodes per SBM block.
    block: usize,
    epochs: usize,
    /// Whether the accuracy gate applies: only at the full size, since the
    /// tiny inputs train too briefly for the seed's accuracy to mean much.
    gate_accuracy: bool,
    inputs: Option<Inputs>,
}

impl TrainValues {
    /// The workload at `size` for `seed`.
    pub fn new(seed: u64, size: Size) -> Self {
        let (block, epochs) = match size {
            Size::Full => (2_000, 50),
            Size::Tiny => (60, 5),
        };
        TrainValues {
            seed,
            block,
            epochs,
            gate_accuracy: size == Size::Full,
            inputs: None,
        }
    }
}

/// MGG behind the `Aggregator` trait, with every call timed from outside:
/// the timing plane as `core.simulate`, the value plane as `core.values`.
/// Computes exactly what `MggEngine`'s own `Aggregator` impl computes.
struct TimedEngine<'a> {
    engine: &'a mut MggEngine,
    ledger: Ledger,
    gates: Gates,
    aggregate_sim_ns: u64,
}

impl Aggregator for TimedEngine<'_> {
    fn aggregate(&mut self, x: &Matrix) -> (Matrix, u64) {
        let ns = match simulate_mgg(self.engine, x.cols(), &mut self.ledger) {
            Ok((ns, stats)) => {
                self.ledger.reported_kernel(&stats);
                ns
            }
            Err(e) => {
                self.gates.check(false, || {
                    format!("training launch at dim {} failed: {e}", x.cols())
                });
                0
            }
        };
        self.aggregate_sim_ns += ns;
        (values_mgg(self.engine, x, &mut self.ledger), ns)
    }

    fn aggregate_only(&mut self, x: &Matrix) -> Matrix {
        values_mgg(self.engine, x, &mut self.ledger)
    }

    fn mode(&self) -> AggregateMode {
        self.engine.mode()
    }
}

impl Workload for TrainValues {
    fn pool_width(&self) -> usize {
        2
    }

    fn setup(&mut self) -> Ledger {
        let mut ledger = Ledger::default();
        let (graph, ns) = timed("graph.generate", || {
            sbm(&SbmConfig {
                block_sizes: vec![self.block; BLOCKS],
                avg_degree_in: 14.0,
                avg_degree_out: 5.0,
                seed: mix(self.seed, SBM_SALT),
            })
        });
        ledger.add("graph.generate_s", ns as f64 / 1e9);
        let x = label_features(
            &graph.labels,
            BLOCKS,
            FEATURE_DIM,
            0.5,
            mix(self.seed, FEATURE_SALT),
        );
        let (train, val, test) = split_masks(
            graph.graph.num_nodes(),
            0.3,
            0.2,
            mix(self.seed, SPLIT_SALT),
        );
        let engine = build_mgg(
            &graph.graph,
            ClusterSpec::dgx_a100(GPUS),
            MggConfig::default_fixed(),
            AggregateMode::GcnNorm,
            &mut ledger,
        );
        self.inputs = Some(Inputs {
            graph,
            x,
            train,
            val,
            test,
            engine,
        });
        ledger
    }

    fn iterate(&mut self) -> Iteration {
        let gate_accuracy = self.gate_accuracy;
        let inp = self.inputs.as_mut().expect("set up");
        let cfg = TrainConfig::paper(self.epochs, mix(self.seed, INIT_SALT));
        let cost = DenseCostModel::a100(GPUS);
        let mut timed_engine = TimedEngine {
            engine: &mut inp.engine,
            ledger: Ledger::default(),
            gates: Gates::default(),
            aggregate_sim_ns: 0,
        };
        let (report, ns) = in_cell(0, || {
            timed("gnn.train", || {
                train_gcn_on_engine(
                    &mut timed_engine,
                    &inp.x,
                    &inp.graph.labels,
                    BLOCKS,
                    &inp.train,
                    &inp.val,
                    &inp.test,
                    &cfg,
                    &cost,
                )
            })
        });
        let TimedEngine {
            ledger,
            gates,
            aggregate_sim_ns,
            ..
        } = timed_engine;
        let mut it = Iteration {
            ledger,
            gates,
            ..Iteration::default()
        };
        // Dense self time: the training call minus the aggregations it
        // made through the engine.
        let agg_host_ns: u64 = it
            .ledger
            .simulate_ns
            .iter()
            .chain(&it.ledger.values_ns)
            .sum();
        it.ledger
            .add("gnn.dense_s", ns.saturating_sub(agg_host_ns) as f64 / 1e9);
        it.ledger
            .add("model.aggregate_sim_ms", aggregate_sim_ns as f64 / 1e6);
        it.ledger.add(
            "model.dense_sim_ms",
            report.epoch_ns.saturating_sub(aggregate_sim_ns) as f64 / 1e6,
        );

        let acc = report.result.test_accuracy;
        if gate_accuracy {
            it.gates.check(acc >= SEED_ACCURACY - ACCURACY_BOUND, || {
                format!("test accuracy {acc:.4} below {SEED_ACCURACY} - {ACCURACY_BOUND}")
            });
        }
        it.digest.push(report.epoch_ns);
        it.digest.push_f64(acc);
        it.digest.push_f64(report.result.val_accuracy);
        report
            .result
            .train_losses
            .iter()
            .for_each(|l| it.digest.push(l.to_bits() as u64));
        it.simulated.push(
            Metric::new(
                "epoch_sim_ms",
                report.epoch_ns as f64 / 1e6,
                "ms",
                Clock::Simulated,
                1,
            )
            .with_note("one training epoch: four aggregations plus dense ops"),
        );
        it.simulated.push(
            Metric::new(
                "test_accuracy",
                acc,
                "frac",
                Clock::Simulated,
                inp.test.iter().filter(|&&t| t).count(),
            )
            .with_note(format!("after {} epochs", self.epochs)),
        );
        it
    }

    fn final_gates(&mut self) -> Gates {
        let inp = self.inputs.as_ref().expect("set up");
        let mut gates = Gates::default();
        values_gate(
            &inp.engine,
            &inp.x,
            &mut Ledger::default(),
            &mut gates,
            "the SBM training graph",
        );
        gates
    }

    fn replay(&mut self, gates: &mut Gates) -> Ledger {
        let inp = self.inputs.as_mut().expect("set up");
        let mut ledger = Ledger::default();
        let dim = TrainConfig::paper(1, 0).hidden;
        match simulate_mgg(&mut inp.engine, dim, &mut Ledger::default()) {
            Ok((_, stats)) => {
                let spec = inp.engine.cluster.spec.clone();
                let cfg = inp.engine.config();
                replay_launch(
                    &inp.graph.graph,
                    &spec,
                    &cfg,
                    dim,
                    &stats,
                    &mut ledger,
                    gates,
                );
            }
            Err(e) => gates.check(false, || format!("replay reference launch failed: {e}")),
        }
        ledger
    }
}
