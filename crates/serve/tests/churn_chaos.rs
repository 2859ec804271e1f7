//! Chaos property: any interleaving of a churn schedule (graph deltas at
//! epoch fences + scripted membership changes) with a transient fault
//! schedule *and* a permanent GPU failure replays bit-identically at every
//! host thread count and run-to-run, and the engine-side mutation replay
//! never reads a stale cache row.
//!
//! This is the whole-loop determinism claim of the churn plane: the
//! serving event loop, the failover health gate, the fence apply
//! transaction and the versioned cache all sit on the same (time, seq)
//! replay, so host parallelism must be unobservable.

use mgg_churn::{
    BurstWindow, ChurnEventKind, ChurnSchedule, ChurnSpec, MembershipChange, MembershipEvent,
};
use mgg_core::{CacheConfig, MggConfig, MggEngine};
use mgg_fault::{FaultSchedule, FaultSpec};
use mgg_gnn::reference::AggregateMode;
use mgg_gnn::tensor::Matrix;
use mgg_graph::generators::rmat::{rmat, RmatConfig};
use mgg_graph::CsrGraph;
use mgg_serve::{PriorityMix, ServeConfig, ServeOutcome, Server, WorkloadSpec};
use mgg_runtime::Fnv1a;
use mgg_sim::ClusterSpec;
use mgg_telemetry::Telemetry;
use proptest::prelude::*;

const GPUS: usize = 4;
const DURATION_NS: u64 = 600_000;

fn graph() -> CsrGraph {
    rmat(&RmatConfig::graph500(9, 3_000, 11))
}

/// One randomized chaos scenario: churn knobs + transient fault knobs +
/// one permanent GPU failure.
#[derive(Debug, Clone)]
struct Chaos {
    churn_seed: u64,
    delta_rate: f64,
    fence_interval_ns: u64,
    burst: bool,
    membership: Vec<MembershipEvent>,
    fault_seed: u64,
    straggler: f64,
    drop_rate: f64,
    dead_gpu: usize,
    dead_at_ns: u64,
    workload_seed: u64,
    mixed: bool,
}

fn arb_membership() -> impl Strategy<Value = Vec<MembershipEvent>> {
    // A drain -> leave -> join arc on one shard plus an optional extra
    // drain elsewhere; times land anywhere in the window, so arcs can be
    // truncated mid-flight (a leave the run never joins back, a join the
    // gate refuses because the shard is dead, ...). All of it must stay
    // deterministic.
    (1usize..GPUS, 0u64..DURATION_NS, 0u64..DURATION_NS, 0u64..DURATION_NS, proptest::bool::ANY).prop_map(
        |(shard, a, b, c, extra)| {
            let mut t = [a, b, c];
            t.sort_unstable();
            let mut events = vec![
                MembershipEvent { shard: shard as u16, at_ns: t[0], change: MembershipChange::Drain },
                MembershipEvent { shard: shard as u16, at_ns: t[1], change: MembershipChange::Leave },
                MembershipEvent { shard: shard as u16, at_ns: t[2], change: MembershipChange::Join },
            ];
            if extra {
                events.push(MembershipEvent {
                    shard: 0,
                    at_ns: DURATION_NS / 2,
                    change: MembershipChange::Drain,
                });
            }
            events
        },
    )
}

fn arb_chaos() -> impl Strategy<Value = Chaos> {
    (
        (
            0u64..1_000_000_000,
            0.0f64..3_000_000.0,
            prop_oneof![Just(50_000u64), Just(100_000u64), Just(250_000u64)],
            proptest::bool::ANY,
            arb_membership(),
        ),
        (
            0u64..1_000_000_000,
            1.0f64..6.0,
            0.0f64..0.3,
            0usize..GPUS,
            0u64..DURATION_NS,
            0u64..1_000_000_000,
            proptest::bool::ANY,
        ),
    )
        .prop_map(
            |(
                (churn_seed, delta_rate, fence_interval_ns, burst, membership),
                (fault_seed, straggler, drop_rate, dead_gpu, dead_at_ns, workload_seed, mixed),
            )| Chaos {
                churn_seed,
                delta_rate,
                fence_interval_ns,
                burst,
                membership,
                fault_seed,
                straggler,
                drop_rate,
                dead_gpu,
                dead_at_ns,
                workload_seed,
                mixed,
            },
        )
}

fn scenario(chaos: &Chaos, num_nodes: usize) -> (WorkloadSpec, FaultSchedule, ChurnSchedule) {
    let mut cs = ChurnSpec::steady(chaos.churn_seed, DURATION_NS, chaos.delta_rate);
    cs.fence_interval_ns = chaos.fence_interval_ns;
    if chaos.burst {
        cs.burst = Some(BurstWindow {
            start_ns: DURATION_NS / 4,
            end_ns: DURATION_NS / 2,
            mult: 5.0,
        });
    }
    cs.membership = chaos.membership.clone();
    let churn = ChurnSchedule::derive(&cs, num_nodes);

    let transient = FaultSpec {
        seed: chaos.fault_seed,
        straggler: chaos.straggler,
        drop_rate: chaos.drop_rate,
        link_degrade: 0.7,
        ..FaultSpec::default()
    };
    let sched = FaultSchedule::derive(&transient, GPUS).with_permanent(
        mgg_fault::PermanentFault::GpuFailure { gpu: chaos.dead_gpu, at_ns: chaos.dead_at_ns },
    );

    let mut spec = WorkloadSpec::poisson(chaos.workload_seed, 8_000_000.0, num_nodes);
    spec.duration_ns = DURATION_NS;
    if chaos.mixed {
        spec.mix = PriorityMix::new(0.2, 0.3, 0.5);
    }
    (spec, sched, churn)
}

fn run_at(server: &Server, sc: &(WorkloadSpec, FaultSchedule, ChurnSchedule), threads: usize) -> ServeOutcome {
    mgg_runtime::with_threads(threads, || {
        server.run_scenario(&sc.0, &sc.1, &sc.2, &Telemetry::disabled())
    })
}

/// FNV-1a over the mutated graph's functional aggregation output.
fn mutate_digest(g: &CsrGraph, churn: &ChurnSchedule, threads: usize) -> (String, u64) {
    mgg_runtime::with_threads(threads, || {
        let mut e =
            MggEngine::new(g, ClusterSpec::dgx_a100(GPUS), MggConfig::default_fixed(), AggregateMode::Sum);
        e.set_cache(Some(CacheConfig::from_mb(16)));
        e.simulate_aggregation(16).expect("warm-up");
        for ev in churn.events() {
            if let ChurnEventKind::Fence { deltas } = &ev.kind {
                if !deltas.is_empty() {
                    e.apply_graph_deltas(deltas).expect("fence applies");
                }
            }
        }
        let n = e.graph().num_nodes();
        let mut x = Matrix::zeros(n, 8);
        for (i, v) in x.data_mut().iter_mut().enumerate() {
            *v = ((i * 13 + 5) % 89) as f32 * 0.01;
        }
        let y = e.aggregate_values(&x);
        let mut h = Fnv1a::new();
        y.data().iter().for_each(|f| h.u32(f.to_bits()));
        (format!("{:016x}", h.finish()), e.stale_reads())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn churn_under_faults_is_thread_count_and_rerun_invariant(chaos in arb_chaos()) {
        let g = graph();
        let mut engine = MggEngine::new(
            &g, ClusterSpec::dgx_a100(GPUS), MggConfig::default_fixed(), AggregateMode::Sum);
        let server = Server::new(&mut engine, 32, ServeConfig::default()).expect("calibration");
        let sc = scenario(&chaos, g.num_nodes());

        let reference = run_at(&server, &sc, 1);
        // The loop conserves queries whatever the interleaving did.
        let shed = reference.summary.shed_queue
            + reference.summary.shed_rate
            + reference.summary.shed_infeasible
            + reference.summary.shed_unavailable;
        prop_assert_eq!(reference.summary.offered, reference.summary.admitted + shed);

        for threads in [2usize, 4, 7] {
            let out = run_at(&server, &sc, threads);
            prop_assert_eq!(&out.summary.digest, &reference.summary.digest,
                "digest diverged at {} threads", threads);
            prop_assert_eq!(&out, &reference, "outcome diverged at {} threads", threads);
        }
        // Run-to-run at the same thread count.
        let again = run_at(&server, &sc, 4);
        prop_assert_eq!(&again, &reference);

        // Engine-side: the same fence stream mutates the graph to the
        // same functional state at every thread count, with zero stale
        // cache reads.
        let (d1, stale1) = mutate_digest(&g, &sc.2, 1);
        prop_assert_eq!(stale1, 0, "stale reads at 1 thread");
        for threads in [2usize, 4, 7] {
            let (d, stale) = mutate_digest(&g, &sc.2, threads);
            prop_assert_eq!(&d, &d1, "mutation digest diverged at {} threads", threads);
            prop_assert_eq!(stale, 0, "stale reads at {} threads", threads);
        }
    }
}
