//! Scaling study: MGG vs the UVM baseline from 1 to 8 simulated A100s on
//! the Reddit stand-in, the headline workload of the paper's Figure 8.
//!
//! ```sh
//! cargo run --release --example multi_gpu_scaling
//! ```

use mgg::baselines::UvmGnnEngine;
use mgg::core::{MggConfig, MggEngine};
use mgg::gnn::reference::AggregateMode;
use mgg::graph::datasets::DatasetSpec;
use mgg::sim::ClusterSpec;

fn main() {
    let spec = DatasetSpec::rdd();
    let d = spec.build(0.5);
    // GCN aggregates at the hidden width (16) after the transform-first
    // weight multiply; GIN's first layer aggregates the raw 602-dim rows.
    let dims = [("GCN layer (dim 16)", 16usize), ("GIN layer-1 (dim 602)", spec.dim)];

    println!(
        "Reddit stand-in: {} nodes, {} edges\n",
        d.graph.num_nodes(),
        d.graph.num_edges()
    );
    for (label, dim) in dims {
        println!("{label}");
        println!(
            "{:>5} {:>12} {:>12} {:>9} {:>14}",
            "GPUs", "MGG (ms)", "UVM (ms)", "speedup", "remote frac"
        );
        for gpus in [1usize, 2, 4, 8] {
            let mut mgg = MggEngine::new(
                &d.graph,
                ClusterSpec::dgx_a100(gpus),
                MggConfig::default_fixed(),
                AggregateMode::Sum,
            );
            let t_mgg = mgg.simulate_aggregation_ns(dim).expect("valid launch");
            let mut uvm =
                UvmGnnEngine::new(&d.graph, ClusterSpec::dgx_a100(gpus), AggregateMode::Sum);
            let t_uvm = uvm.simulate_aggregation_ns(dim);
            println!(
                "{:>5} {:>12.3} {:>12.3} {:>8.2}x {:>13.1}%",
                gpus,
                t_mgg as f64 / 1e6,
                t_uvm as f64 / 1e6,
                t_uvm as f64 / t_mgg as f64,
                100.0 * mgg.placement().remote_fraction(),
            );
        }
        println!();
    }
    println!("Expected shape (paper Figure 8): MGG's advantage grows with the GPU count.");
}
