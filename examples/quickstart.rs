//! Quickstart: run MGG's pipelined multi-GPU aggregation on a synthetic
//! power-law graph and check it against the single-machine reference.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use mgg::core::{MggConfig, MggEngine};
use mgg::gnn::reference::{aggregate, AggregateMode};
use mgg::gnn::Matrix;
use mgg::graph::generators::rmat::{rmat, RmatConfig};
use mgg::sim::ClusterSpec;

fn main() {
    // 1. A Graph500-flavoured power-law graph: 2^12 nodes, ~60k edges.
    let graph = rmat(&RmatConfig::graph500(12, 30_000, 42));
    let dim = 128;
    println!(
        "graph: {} nodes, {} edges, avg degree {:.1}, max degree {}",
        graph.num_nodes(),
        graph.num_edges(),
        graph.avg_degree(),
        graph.max_degree()
    );

    // 2. Random node features.
    let x = Matrix::glorot(graph.num_nodes(), dim, 7);

    // 3. MGG on a simulated 4-GPU DGX-A100 slice.
    let mut engine = MggEngine::new(
        &graph,
        ClusterSpec::dgx_a100(4),
        MggConfig::default_fixed(),
        AggregateMode::GcnNorm,
    );
    println!(
        "placement: {:.1}% of edges need remote access after the edge-balanced split",
        100.0 * engine.placement().remote_fraction()
    );

    // 4. Functional output + simulated timing.
    let out = engine.aggregate_values(&x);
    let stats = engine.simulate_aggregation(dim).expect("valid launch");
    println!(
        "simulated aggregation: {:.3} ms ({} warps, occupancy {:.1}%, SM utilization {:.1}%)",
        stats.makespan_ns() as f64 / 1e6,
        stats.per_gpu.iter().map(|g| g.warps).sum::<u64>(),
        100.0 * stats.achieved_occupancy(),
        100.0 * stats.sm_utilization(),
    );
    println!(
        "fabric traffic: {:.2} MiB in {} remote requests",
        stats.traffic.remote_bytes() as f64 / (1 << 20) as f64,
        stats.traffic.remote_requests(),
    );

    // 5. The distributed result equals the single-machine reference.
    let reference = aggregate(&graph, &x, AggregateMode::GcnNorm);
    let diff = out.max_abs_diff(&reference);
    println!("max |distributed - reference| = {diff:.2e}");
    assert!(diff < 1e-3, "distributed aggregation must match the reference");
    println!("OK: MGG's multi-GPU result matches the reference.");
}
