//! `serve-churn`: online serving on a cached engine under live churn.
//!
//! Six samples of the ENWIKI stand-in per iteration, each on 8 GPUs with
//! an L1-only LFU remote-row cache sized below the remote working set (so
//! it evicts), warmed by one launch: cache statistics start warm. A
//! `Server` calibrated on that engine replays open-loop Poisson Zipf-1.2 query streams at a fixed
//! ladder of offered rates, each under the churn drill (steady deltas, a
//! burst, and a drain -> leave -> join cycle of shard 1). Every fence's
//! deltas also go through `apply_graph_deltas` on the cached engine,
//! followed by a cached re-simulation and a values check on the mutated
//! graph. Rungs pool their queries over the samples. Pool width 1.

use mgg_churn::{
    BurstWindow, ChurnEventKind, ChurnSchedule, ChurnSpec, MembershipChange, MembershipEvent,
};
use mgg_core::{CacheConfig, CachePolicy, MggConfig};
use mgg_fault::FaultSchedule;
use mgg_gnn::reference::AggregateMode;
use mgg_graph::datasets::{Dataset, DatasetSpec};
use mgg_serve::{Decision, ServeConfig, Server, WorkloadSpec};
use mgg_sim::ClusterSpec;
use mgg_telemetry::Telemetry;

use super::{build_mgg, gate_features, mix, replay_launch, simulate_mgg, values_gate};
use super::{Iteration, Size, Workload};
use crate::metrics::{Clock, Ledger, Metric};
use crate::span::{in_cell, span, timed};
use crate::stats::{percentile_sorted, tail_sorted};

/// Offered rates of the ladder, queries per simulated second: 0.4x to
/// 1.2x the default seed's calibrated saturation (about 35.3M qps), with
/// the nominal rate at 0.8x. Chosen once and never re-derived at run time,
/// so every seed and every build offers the same absolute load.
pub const LADDER_QPS: [f64; 5] = [14e6, 21e6, 28e6, 35e6, 42e6];

/// Index of the nominal rate in [`LADDER_QPS`]: `p50_us`, `tail_us` and
/// `failed_frac` are read there.
pub const NOMINAL: usize = 2;

/// Latency objective of `max_qps_at_slo`, microseconds.
pub const SLO_US: f64 = 500.0;

/// Largest failed fraction (shed or late over offered) a rate may have
/// and still count toward `max_qps_at_slo`.
pub const SLO_MAX_FAILED: f64 = 0.01;

/// GPUs of the simulated cluster.
const GPUS: usize = 8;

/// Embedding width served and cached.
const DIM: usize = 64;

/// L1 cache per GPU, bytes: below the remote working set, so it evicts.
const CACHE_BYTES: u64 = 64 << 10;

/// Zipf exponent of query-node popularity.
const ZIPF_S: f64 = 1.2;

/// Steady delta rate of the drill, per simulated second.
const DELTA_RATE: f64 = 500_000.0;

/// ENWIKI samples per iteration. Host cost per query depends on where a
/// sample's hubs land, so one sample's cost swings by about 20% between
/// seeds; pooling several samples per iteration averages that out.
const SAMPLES: usize = 6;

/// Simulated arrival window of each rung, per sample.
const WINDOW_NS: u64 = 400_000;

/// Salts of the sample, dataset, query-stream and churn seeds.
const SAMPLE_SALT: u64 = 0x5A_0000;
const DATASET_SALT: u64 = 0xE4;
const QUERY_SALT: u64 = 0x9E5;
const CHURN_SALT: u64 = 0xC4;
const GATE_SALT: u64 = 0x6A7;

/// The drill's churn plane: steady deltas, a burst over the middle fifth
/// of the window, and shard 1 drained at 20%, gone at 35%, back at 55%.
fn drill_spec(seed: u64, duration_ns: u64) -> ChurnSpec {
    let at = |f: f64| (duration_ns as f64 * f) as u64;
    let mut spec = ChurnSpec::steady(seed, duration_ns, DELTA_RATE);
    spec.burst = Some(BurstWindow {
        start_ns: at(0.40),
        end_ns: at(0.60),
        mult: 4.0,
    });
    spec.membership = vec![
        MembershipEvent {
            shard: 1,
            at_ns: at(0.20),
            change: MembershipChange::Drain,
        },
        MembershipEvent {
            shard: 1,
            at_ns: at(0.35),
            change: MembershipChange::Leave,
        },
        MembershipEvent {
            shard: 1,
            at_ns: at(0.55),
            change: MembershipChange::Join,
        },
    ];
    spec
}

/// One ENWIKI sample: the graph and its churn schedule.
struct Instance {
    dataset: Dataset,
    churn: ChurnSchedule,
    /// Seed of the sample's query streams and gate features.
    seed: u64,
}

/// The `serve-churn` workload.
pub struct ServeChurn {
    seed: u64,
    scale: f64,
    window_ns: u64,
    samples: usize,
    ladder: Vec<f64>,
    instances: Vec<Instance>,
}

impl ServeChurn {
    /// The workload at `size` for `seed`.
    pub fn new(seed: u64, size: Size) -> Self {
        let (scale, window_ns, samples, ladder) = match size {
            Size::Full => (0.125, WINDOW_NS, SAMPLES, LADDER_QPS.to_vec()),
            Size::Tiny => (
                1.0 / 64.0,
                200_000,
                2,
                LADDER_QPS.iter().map(|q| q / 8.0).collect(),
            ),
        };
        ServeChurn {
            seed,
            scale,
            window_ns,
            samples,
            ladder,
            instances: Vec::new(),
        }
    }
}

/// One rung, pooled over the samples.
#[derive(Default)]
struct Rung {
    qps: f64,
    /// Latencies of admitted queries, ns.
    latencies: Vec<u64>,
    offered: u64,
    /// Shed or late.
    failed: u64,
    in_deadline: u64,
    window_ns: u64,
}

impl Rung {
    fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.offered.max(1) as f64
    }
}

/// Serves one sample: cached engine, calibration, the ladder (pooled into
/// `rungs`), then the writes.
fn serve_sample(
    inst: &Instance,
    ladder: &[f64],
    window_ns: u64,
    rungs: &mut [Rung],
    it: &mut Iteration,
) {
    let graph = &inst.dataset.graph;
    // The cached engine, warmed by one launch: statistics start warm.
    let mut engine = build_mgg(
        graph,
        ClusterSpec::dgx_a100(GPUS),
        MggConfig::default_fixed(),
        AggregateMode::Sum,
        &mut it.ledger,
    );
    engine.set_cache(Some(CacheConfig {
        capacity_bytes: CACHE_BYTES,
        policy: CachePolicy::Lfu,
    }));
    match simulate_mgg(&mut engine, DIM, &mut it.ledger) {
        Ok((ns, _)) => it.digest.push(ns),
        Err(e) => it
            .gates
            .check(false, || format!("cache warm-up launch failed: {e}")),
    }
    let warm = engine.cache_stats();

    let (server, ns) = timed("serve.calibrate", || {
        Server::new(&mut engine, DIM, ServeConfig::default())
    });
    it.ledger.add("serve.calibrate_s", ns as f64 / 1e9);
    let server = match server {
        Ok(s) => s,
        Err(e) => {
            it.gates
                .check(false, || format!("serving calibration failed: {e}"));
            return;
        }
    };
    let cal = server.calibration();
    it.digest.push_f64(cal.saturation_qps);
    it.ledger.add("serve.samples", 1.0);
    it.ledger.add("serve.saturation_qps", cal.saturation_qps);

    // Reads: the ladder.
    for (i, (&qps, rung)) in ladder.iter().zip(rungs.iter_mut()).enumerate() {
        let spec = WorkloadSpec {
            zipf_s: ZIPF_S,
            duration_ns: window_ns,
            ..WorkloadSpec::poisson(
                mix(inst.seed, QUERY_SALT + i as u64),
                qps,
                graph.num_nodes(),
            )
        };
        let (out, ns) = in_cell(i as u32, || {
            timed("serve.run_scenario", || {
                server.run_scenario(
                    &spec,
                    &FaultSchedule::quiet(GPUS),
                    &inst.churn,
                    &Telemetry::disabled(),
                )
            })
        });
        it.ledger.add("serve.host_ns", ns as f64);
        let s = out.summary;
        it.ledger.add("serve.queries", s.offered as f64);
        let shed = s.shed_queue + s.shed_rate + s.shed_infeasible + s.shed_unavailable;
        it.gates.check(s.offered == s.admitted + shed, || {
            format!(
                "rate {qps}: offered {} != admitted {} + shed {shed}",
                s.offered, s.admitted
            )
        });
        it.gates.check(s.routing_violations == 0, || {
            format!("rate {qps}: {} routing violations", s.routing_violations)
        });
        it.digest
            .push(u64::from_str_radix(&s.digest, 16).unwrap_or(0));
        rung.qps = qps;
        rung.window_ns += window_ns;
        rung.offered += s.offered;
        rung.failed += shed + s.deadline_violations;
        rung.in_deadline += s.completed_in_deadline;
        rung.latencies.extend(
            out.records
                .iter()
                .filter(|r| r.decision == Decision::Admitted)
                .filter_map(|r| r.completion_ns.map(|c| c - r.arrival_ns)),
        );
        if i == NOMINAL {
            it.ledger.add("serve.mean_batch", s.mean_batch);
            it.ledger.add("serve.shed_queue", s.shed_queue as f64);
            it.ledger.add("serve.shed_rate", s.shed_rate as f64);
            it.ledger
                .add("serve.shed_infeasible", s.shed_infeasible as f64);
            it.ledger
                .add("serve.deadline_misses", s.deadline_violations as f64);
            it.ledger
                .add("serve.fence_stall_us", s.churn.fence_stall_ns as f64 / 1e3);
        }
    }

    // Writes: every fence's deltas through the cached engine, then a
    // cached re-simulation and a values check on the mutated graph.
    let mut applied = 0usize;
    let mut invalidated = 0usize;
    let mut apply_ns = 0u64;
    for ev in inst.churn.events() {
        if let ChurnEventKind::Fence { deltas } = &ev.kind {
            if deltas.is_empty() {
                continue;
            }
            let (r, ns) = timed("churn.apply", || engine.apply_graph_deltas(deltas));
            apply_ns += ns;
            match r {
                Ok(r) => {
                    applied += r.applied;
                    invalidated += r.invalidated;
                    it.digest.push(r.affected_rows as u64);
                }
                Err(e) => it
                    .gates
                    .check(false, || format!("fence at {} ns failed: {e}", ev.at_ns)),
            }
        }
    }
    it.ledger.add("churn.deltas", applied as f64);
    it.ledger.add("churn.apply_s", apply_ns as f64 / 1e9);
    it.ledger.add("cache.invalidated", invalidated as f64);
    let (resim, ns) = timed("churn.resim", || engine.simulate_aggregation(DIM));
    it.ledger.add("churn.resim_s", ns as f64 / 1e9);
    match resim {
        Ok(stats) => {
            it.ledger.kernel(&stats);
            it.ledger.reported_kernel(&stats);
            it.ledger
                .add("model.aggregate_sim_ms", stats.makespan_ns() as f64 / 1e6);
            it.digest.push(stats.makespan_ns());
        }
        Err(e) => it
            .gates
            .check(false, || format!("cached re-simulation failed: {e}")),
    }
    let x = gate_features(engine.graph().num_nodes(), DIM, mix(inst.seed, GATE_SALT));
    let d = values_gate(
        &engine,
        &x,
        &mut it.ledger,
        &mut it.gates,
        "the mutated ENWIKI graph",
    );
    it.digest.push(d);
    let stale = engine.stale_reads();
    it.gates
        .check(stale == 0, || format!("{stale} stale cache reads"));

    // Cache statistics since the warm-up launch.
    let end = engine.cache_stats();
    let hits = end.hits - warm.hits;
    let misses = end.misses - warm.misses;
    it.ledger.add("cache.hits", hits as f64);
    it.ledger.add("cache.lookups", (hits + misses) as f64);
    let evictions = end.evictions - warm.evictions;
    it.gates.check(evictions > 0, || {
        "the cache never evicted: it holds the remote working set".to_string()
    });
    it.ledger.add("cache.evictions", evictions as f64);
    it.ledger
        .add("cache.coalesced", (end.coalesced - warm.coalesced) as f64);
    it.digest.push(hits);
    it.digest.push(misses);
}

impl Workload for ServeChurn {
    fn pool_width(&self) -> usize {
        1
    }

    fn setup(&mut self) -> Ledger {
        let mut ledger = Ledger::default();
        self.instances = (0..self.samples as u64)
            .map(|k| {
                let seed = mix(self.seed, SAMPLE_SALT + k);
                let spec = DatasetSpec {
                    seed: mix(seed, DATASET_SALT),
                    ..DatasetSpec::enwiki()
                };
                let (dataset, ns) = timed("graph.generate", || spec.build(self.scale));
                ledger.add("graph.generate_s", ns as f64 / 1e9);
                let churn = span("churn.derive", || {
                    ChurnSchedule::derive(
                        &drill_spec(mix(seed, CHURN_SALT), self.window_ns),
                        dataset.graph.num_nodes(),
                    )
                });
                Instance {
                    dataset,
                    churn,
                    seed,
                }
            })
            .collect();
        ledger
    }

    fn iterate(&mut self) -> Iteration {
        let mut it = Iteration::default();
        let mut rungs: Vec<Rung> = self.ladder.iter().map(|_| Rung::default()).collect();
        for inst in &self.instances {
            serve_sample(inst, &self.ladder, self.window_ns, &mut rungs, &mut it);
        }
        for r in &mut rungs {
            r.latencies.sort_unstable();
            if r.latencies.is_empty() {
                r.latencies.push(0);
            }
        }
        let max_at_slo = rungs
            .iter()
            .filter(|r| {
                tail_sorted(&r.latencies).value as f64 / 1e3 <= SLO_US
                    && r.failed_frac() <= SLO_MAX_FAILED
            })
            .map(|r| r.qps)
            .fold(0.0, f64::max);
        let nominal = &rungs[NOMINAL.min(rungs.len() - 1)];
        let top = rungs.last().expect("non-empty ladder");
        let tail = tail_sorted(&nominal.latencies);
        let n = nominal.latencies.len();
        let samples = self.instances.len();
        it.simulated.extend([
            Metric::new(
                "p50_us",
                percentile_sorted(&nominal.latencies, 50.0) as f64 / 1e3,
                "us",
                Clock::Simulated,
                n,
            )
            .with_note(format!(
                "at the nominal {} qps, pooled over {samples} samples",
                nominal.qps
            )),
            Metric::new(
                "tail_us",
                tail.value as f64 / 1e3,
                "us",
                Clock::Simulated,
                n,
            )
            .with_note(format!(
                "p{} at the nominal rate, {} samples beyond",
                tail.percentile, tail.beyond
            )),
            Metric::new(
                "goodput_qps",
                top.in_deadline as f64 / (top.window_ns.max(1) as f64 / 1e9),
                "1/s",
                Clock::Simulated,
                top.latencies.len(),
            )
            .with_note(format!(
                "in-deadline completions at the top {} qps",
                top.qps
            )),
            Metric::new(
                "max_qps_at_slo",
                max_at_slo,
                "1/s",
                Clock::Simulated,
                rungs.len(),
            )
            .with_note(format!(
                "highest ladder rate with tail <= {SLO_US} us and <= {SLO_MAX_FAILED} failed"
            )),
            Metric::new(
                "failed_frac",
                nominal.failed_frac(),
                "frac",
                Clock::Simulated,
                nominal.offered as usize,
            )
            .with_note("queries shed or late over offered, at the nominal rate"),
        ]);
        it
    }

    fn final_gates(&mut self) -> crate::metrics::Gates {
        // Every gate of this workload runs inside each iteration.
        crate::metrics::Gates::default()
    }

    fn replay(&mut self, gates: &mut crate::metrics::Gates) -> Ledger {
        let mut ledger = Ledger::default();
        for inst in &self.instances {
            let graph = &inst.dataset.graph;
            let mut engine = build_mgg(
                graph,
                ClusterSpec::dgx_a100(GPUS),
                MggConfig::default_fixed(),
                AggregateMode::Sum,
                &mut Ledger::default(),
            );
            match simulate_mgg(&mut engine, DIM, &mut Ledger::default()) {
                Ok((_, stats)) => {
                    let spec = engine.cluster.spec.clone();
                    replay_launch(
                        graph,
                        &spec,
                        &engine.config(),
                        DIM,
                        &stats,
                        &mut ledger,
                        gates,
                    );
                }
                Err(e) => gates.check(false, || format!("replay reference launch failed: {e}")),
            }
        }
        ledger
    }
}
