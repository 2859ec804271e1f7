//! One benchmark for both clocks of the MGG reproduction.
//!
//! *Simulated time* is the paper's metric: model latency on the modelled
//! DGX. *Host time* is how long the reproduction takes to produce it. Each
//! workload is driven only through the public API of the workspace crates,
//! and every layer is measured from outside, by timing the benchmark's own
//! calls into it. See `README.md` next to this crate for the metric table,
//! the workloads and the layer -> end-to-end predictions.

#![deny(missing_docs)]

pub mod fingerprint;
pub mod metrics;
pub mod span;
pub mod stats;
pub mod workloads;

use std::time::Instant;

use fingerprint::Fingerprint;
use metrics::{json_str, Clock, Digest, Gates, Ledger, Metric};
use span::SelfTimes;
use stats::{median, percentile_sorted, tail_sorted};
use workloads::{Iteration, Size};

/// The default workload seed.
pub const DEFAULT_SEED: u64 = 1;

/// A held-out seed: never used while the benchmark's constants (ladder
/// rates, accuracy floor, sizes) were chosen. Run it to check that a
/// result is not tuned to the default seed.
pub const HELD_OUT_SEED: u64 = 20_231_010;

/// End-to-end metric names of an untraced run, in output order. These are
/// the `end_to_end` entries of `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metric names and units of a traced run, in output order.
/// These are the `per_layer` entries of `BENCHMARK.json`; every workload
/// reports all of them (0 for a layer it bypasses).
pub const PER_LAYER: [(&str, &str); 54] = [
    ("graph.generate_s", "s"),
    ("core.plan_s", "s"),
    ("core.partition_s", "s"),
    ("core.build_plans_s", "s"),
    ("core.tune_s", "s"),
    ("core.tune_evals", "count"),
    ("core.simulate_calls", "count"),
    ("core.simulate_ms_p50", "ms"),
    ("core.simulate_ms_tail", "ms"),
    ("core.kernel_build_s", "s"),
    ("sim.run_s", "s"),
    ("sim.host_ns_per_warp", "ns/warp"),
    ("sim.warps", "count"),
    ("sim.sm_utilization", "frac"),
    ("sim.achieved_occupancy", "frac"),
    ("sim.remote_requests", "count"),
    ("sim.remote_mb", "MB"),
    ("sim.barrier_skew_share", "frac"),
    ("model.aggregate_sim_ms", "ms"),
    ("model.dense_sim_ms", "ms"),
    ("baselines.uvm_model_sim_ms_geomean", "ms"),
    ("core.values_calls", "count"),
    ("core.values_ms_p50", "ms"),
    ("core.values_ms_tail", "ms"),
    ("core.values_gflops", "GFLOP/s"),
    ("gnn.dense_s", "s"),
    ("runtime.exec_s", "s"),
    ("runtime.idle_s", "s"),
    ("runtime.merge_wait_s", "s"),
    ("runtime.spawn_s", "s"),
    ("cache.hit_rate", "frac"),
    ("cache.evictions", "count"),
    ("cache.coalesced", "count"),
    ("cache.invalidated", "count"),
    ("churn.apply_us_per_delta", "us"),
    ("churn.resim_s", "s"),
    ("serve.calibrate_s", "s"),
    ("serve.host_us_per_query", "us"),
    ("serve.saturation_qps", "1/s"),
    ("serve.mean_batch", "queries"),
    ("serve.shed_queue", "count"),
    ("serve.shed_rate", "count"),
    ("serve.shed_infeasible", "count"),
    ("serve.deadline_misses", "count"),
    ("serve.fence_stall_us", "us"),
    ("self.core_s", "s"),
    ("self.baselines_s", "s"),
    ("self.gnn_s", "s"),
    ("self.runtime_s", "s"),
    ("self.serve_s", "s"),
    ("self.churn_s", "s"),
    ("self.unattributed_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead", "x"),
];

/// Which metrics are read from the simulated clock (the rest are host).
fn per_layer_clock(name: &str) -> Clock {
    let simulated =
        name.starts_with("sim.") && name != "sim.run_s" && name != "sim.host_ns_per_warp"
            || name.starts_with("model.")
            || name.starts_with("baselines.")
            || name.starts_with("cache.")
            || matches!(
                name,
                "serve.saturation_qps"
                    | "serve.mean_batch"
                    | "serve.shed_queue"
                    | "serve.shed_rate"
                    | "serve.shed_infeasible"
                    | "serve.deadline_misses"
                    | "serve.fence_stall_us"
            );
    if simulated {
        Clock::Simulated
    } else {
        Clock::Host
    }
}

/// How a run is driven.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Workload name (one of [`workloads::NAMES`]).
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds (whole iterations are run until the next one
    /// would overrun this; at least one always runs).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Directory for the trace artifacts (`None`: write none).
    pub out_dir: Option<std::path::PathBuf>,
}

/// Everything a run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Where it ran.
    pub fingerprint: Fingerprint,
    /// End-to-end metrics (untraced runs) or per-layer ones (traced), in
    /// `BENCHMARK.json` order: exactly what the result line carries.
    pub metrics: Vec<Metric>,
    /// Every other reading, printed but not in the result line: the
    /// workload's simulated metrics, `failed_frac` and workload-specific
    /// host metrics.
    pub report: Vec<Metric>,
    /// Digest of the simulated outputs (identical on every iteration).
    pub digest: Digest,
    /// Correctness gates.
    pub gates: Gates,
    /// Host wall of every measured iteration, seconds, in run order.
    pub iteration_walls: Vec<f64>,
    /// Design claims of a traced run: (claim, holds). Each is also a gate
    /// at the full size.
    pub claims: Vec<(String, bool)>,
    /// The per-layer self-time table of a traced run.
    pub self_table: String,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    metrics::format_value(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.gates.failed() == 0,
            self.gates.attempted.max(1),
            self.gates.failed(),
            metrics.join(", ")
        )
    }
}

/// Runs iterations until the next would overrun `budget_s` (at least one),
/// returning them with their host wall times. With `setups`, the workload
/// is set up afresh before every iteration and each set-up's host seconds
/// are pushed there, so set-ups sample the host over the whole run, as
/// the iterations do.
fn iterate_for(
    w: &mut dyn workloads::Workload,
    budget_s: f64,
    mut setups: Option<&mut Vec<f64>>,
) -> Vec<(Iteration, f64)> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        if let Some(times) = setups.as_deref_mut() {
            let t = Instant::now();
            w.setup();
            times.push(t.elapsed().as_secs_f64());
        }
        let t = Instant::now();
        let it = w.iterate();
        let wall = t.elapsed().as_secs_f64();
        out.push((it, wall));
        if start.elapsed().as_secs_f64() + wall > budget_s {
            return out;
        }
    }
}

/// Every iteration must reproduce the first one's simulated outputs.
fn determinism_gate(its: &[(Iteration, f64)], gates: &mut Gates) {
    let first = its[0].0.digest;
    for (i, (it, _)) in its.iter().enumerate().skip(1) {
        gates.check(it.digest == first, || {
            format!(
                "iteration {i} digest {} != iteration 0 digest {}",
                it.digest.hex(),
                first.hex()
            )
        });
    }
}

/// Runs one workload as `opts` describes.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut w = workloads::by_name(&opts.workload, opts.seed, opts.size).ok_or_else(|| {
        format!(
            "unknown workload `{}` (expected one of {:?})",
            opts.workload,
            workloads::NAMES
        )
    })?;
    let width = w.pool_width();
    mgg_runtime::set_threads(width);
    let fingerprint = Fingerprint::capture(width);

    let mut setup_times = Vec::new();
    let mut gates = Gates::default();
    let (its, traced) = if opts.trace {
        // One set-up, a warm-up iteration, then one untraced iteration that
        // prices the tracing overhead; the rest of the budget is traced.
        let start = Instant::now();
        let setup_ledger = w.setup();
        w.iterate();
        let t = Instant::now();
        let plain = w.iterate();
        let plain_wall = t.elapsed().as_secs_f64();
        span::set_enabled(true);
        let t0 = span::now_ns();
        let (its, profile) = mgg_runtime::profile::collect(|| {
            iterate_for(
                w.as_mut(),
                (opts.seconds - start.elapsed().as_secs_f64()).max(0.0),
                None,
            )
        });
        let t1 = span::now_ns();
        span::set_enabled(false);
        let spans = span::drain();
        let mut all = vec![(plain, plain_wall)];
        all.extend(its);
        (
            all,
            Some((setup_ledger, plain_wall, t0, t1, spans, profile)),
        )
    } else {
        let its = iterate_for(w.as_mut(), opts.seconds, Some(&mut setup_times));
        (its, None)
    };
    determinism_gate(&its, &mut gates);
    for (it, _) in &its {
        gates.merge(it.gates.clone());
    }
    gates.merge(w.final_gates());

    let first = &its[0].0;
    let walls: Vec<f64> = its.iter().map(|(_, w)| *w).collect();
    let mut report: Vec<Metric> = first.simulated.clone();
    for m in &first.host {
        let values: Vec<f64> = its
            .iter()
            .filter_map(|(it, _)| it.host.iter().find(|h| h.name == m.name).map(|h| h.value))
            .collect();
        report.push(Metric {
            value: median(&values),
            samples: values.len(),
            ..m.clone()
        });
    }
    if !report.iter().any(|m| m.name == "failed_frac") {
        report.push(
            Metric::new(
                "failed_frac",
                gates.failed_frac(),
                "frac",
                Clock::Host,
                gates.attempted as usize,
            )
            .with_note("failed or mismatched operations over operations attempted"),
        );
    }

    let mut outcome = Outcome {
        fingerprint,
        metrics: Vec::new(),
        report,
        digest: first.digest,
        gates: Gates::default(),
        iteration_walls: walls.clone(),
        claims: Vec::new(),
        self_table: String::new(),
    };
    match traced {
        None => {
            outcome.metrics = vec![
                Metric::new("wall_s", median(&walls), "s", Clock::Host, walls.len())
                    .with_note("median host seconds of one workload iteration"),
                Metric::new(
                    "setup_s",
                    median(&setup_times),
                    "s",
                    Clock::Host,
                    setup_times.len(),
                )
                .with_note("median host seconds of one set-up (one before every iteration)"),
                Metric::new(
                    "peak_rss_mb",
                    fingerprint::peak_rss_mb(),
                    "MB",
                    Clock::Host,
                    1,
                )
                .with_note("peak resident set of the process"),
            ];
        }
        Some((setup_ledger, plain_wall, t0, t1, spans, profile)) => {
            let traced_its = &its[1..];
            let mut ledger = Ledger::default();
            for (it, _) in traced_its {
                ledger.merge(&it.ledger);
            }
            let replay = w.replay(&mut gates);
            let st = span::self_times(&spans, t0, t1);
            let traced_wall = (t1 - t0) as f64 / 1e9 / traced_its.len() as f64;
            outcome.metrics = per_layer_metrics(
                &setup_ledger,
                &ledger,
                &replay,
                &st,
                &profile.breakdown(),
                traced_its.len(),
                traced_wall / plain_wall,
            );
            outcome.claims = design_claims(&opts.workload, &st);
            // The shares describe the measured inputs; the tiny ones spend
            // a different share of their time in each layer.
            if opts.size == Size::Full {
                for (claim, holds) in &outcome.claims {
                    gates.check(*holds, || format!("design claim fails: {claim}"));
                }
            }
            outcome.self_table = self_table(&st, traced_its.len());
            if let Some(dir) = &opts.out_dir {
                write_artifacts(dir, opts, &spans, &outcome.self_table)?;
            }
        }
    }
    gates.check(
        outcome
            .metrics
            .iter()
            .chain(&outcome.report)
            .all(|m| m.value.is_finite()),
        || "a metric is not a finite number".to_string(),
    );
    outcome.gates = gates;
    Ok(outcome)
}

/// The per-layer readings of a traced run, per iteration, in
/// [`PER_LAYER`] order.
fn per_layer_metrics(
    setup: &Ledger,
    l: &Ledger,
    replay: &Ledger,
    st: &SelfTimes,
    pool: &mgg_runtime::profile::OverheadBreakdown,
    iters: usize,
    overhead: f64,
) -> Vec<Metric> {
    let per = |v: f64| v / iters as f64;
    let ms_dist = |ns: &[u64]| -> (f64, f64) {
        if ns.is_empty() {
            return (0.0, 0.0);
        }
        let mut v = ns.to_vec();
        v.sort_unstable();
        (
            percentile_sorted(&v, 50.0) as f64 / 1e6,
            tail_sorted(&v).value as f64 / 1e6,
        )
    };
    let (sim_p50, sim_tail) = ms_dist(&l.simulate_ns);
    let (val_p50, val_tail) = ms_dist(&l.values_ns);
    let values_s: f64 = l.values_ns.iter().sum::<u64>() as f64 / 1e9;
    let launches = l.get("ledger.launches").max(1.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let layer = st.by_layer();
    let self_s = |name: &str| per(layer.get(name).copied().unwrap_or(0.0) / 1e9);
    let value = |name: &str| -> f64 {
        match name {
            "graph.generate_s" => setup.get(name),
            "core.plan_s" => setup.get(name) + per(l.get(name)),
            "core.partition_s" | "core.build_plans_s" | "core.kernel_build_s" | "sim.run_s" => {
                replay.get(name)
            }
            "sim.host_ns_per_warp" => {
                ratio(replay.get("sim.run_s") * 1e9, replay.get("replay.warps"))
            }
            "core.simulate_ms_p50" => sim_p50,
            "core.simulate_ms_tail" => sim_tail,
            "core.values_ms_p50" => val_p50,
            "core.values_ms_tail" => val_tail,
            "core.values_gflops" => ratio(l.get("core.values_flops") / 1e9, values_s),
            "sim.sm_utilization" => l.get("ledger.sm_utilization") / launches,
            "sim.achieved_occupancy" => l.get("ledger.achieved_occupancy") / launches,
            "sim.remote_mb" => per(l.get("sim.remote_bytes")) / 1e6,
            "sim.barrier_skew_share" => ratio(l.get("ledger.skew_ns"), l.get("ledger.gpu_time_ns")),
            "cache.hit_rate" => ratio(l.get("cache.hits"), l.get("cache.lookups")),
            "churn.apply_us_per_delta" => {
                ratio(l.get("churn.apply_s") * 1e6, l.get("churn.deltas"))
            }
            "serve.saturation_qps" | "serve.mean_batch" => {
                ratio(l.get(name), l.get("serve.samples"))
            }
            "serve.host_us_per_query" => {
                ratio(l.get("serve.host_ns") / 1e3, l.get("serve.queries"))
            }
            "runtime.exec_s" => per(pool.exec_ns as f64 / 1e9),
            "runtime.idle_s" => per(pool.idle_ns as f64 / 1e9),
            "runtime.merge_wait_s" => per(pool.merge_wait_ns as f64 / 1e9),
            "runtime.spawn_s" => per(pool.spawn_ns as f64 / 1e9),
            "self.unattributed_s" => per(st.unattributed_ns / 1e9),
            "trace.wall_s" => per(st.wall_ns / 1e9),
            "trace.overhead" => overhead,
            n if n.starts_with("self.") => self_s(&n["self.".len()..n.len() - 2]),
            n => per(l.get(n)),
        }
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let samples = match name {
                "core.simulate_ms_p50" | "core.simulate_ms_tail" => l.simulate_ns.len(),
                "core.values_ms_p50" | "core.values_ms_tail" => l.values_ns.len(),
                _ => iters,
            };
            Metric::new(name, value(name), unit, per_layer_clock(name), samples)
        })
        .collect()
}

/// Layer prefixes each workload is designed around, and those it should
/// bypass.
fn design(workload: &str) -> (&'static [&'static str], &'static [&'static str]) {
    match workload {
        "paper-sweep" => (
            &["core.simulate", "core.tune", "baselines."],
            &["core.values", "gnn.", "serve.", "churn."],
        ),
        "train-values" => (
            &["core.values", "gnn.train"],
            &["core.tune", "baselines.", "serve.", "churn."],
        ),
        _ => (
            &["serve.", "churn.", "core.simulate"],
            &["core.tune", "baselines.", "gnn.train"],
        ),
    }
}

/// The traced run's confirmation of the workload's design: its layers
/// take most of the wall, and the layers it bypasses a negligible share.
fn design_claims(workload: &str, st: &SelfTimes) -> Vec<(String, bool)> {
    let (main, bypassed) = design(workload);
    let share = |p: &[&str]| {
        p.iter().map(|k| st.sum_prefix(k)).fold(0.0, |a, b| a + b) / st.wall_ns.max(1.0)
    };
    let main_share = share(main);
    let bypass_share = share(bypassed);
    vec![
        (
            format!("{main:?} take most of the wall: {:.3}", main_share),
            main_share > 0.5,
        ),
        (
            format!(
                "bypassed {bypassed:?} take a negligible share: {:.4}",
                bypass_share
            ),
            bypass_share < 0.02,
        ),
    ]
}

/// The per-layer self-time table: per key and per layer, per iteration.
fn self_table(st: &SelfTimes, iters: usize) -> String {
    let per = |ns: f64| ns / 1e9 / iters as f64;
    let wall = st.wall_ns.max(1.0);
    let mut out = format!(
        "{:<28} {:>12} {:>8}\n",
        "span (self time)", "s/iter", "share"
    );
    for (k, v) in &st.by_key {
        out.push_str(&format!("{k:<28} {:>12.6} {:>8.4}\n", per(*v), v / wall));
    }
    out.push_str(&format!(
        "{:<28} {:>12.6} {:>8.4}\n",
        "(unattributed)",
        per(st.unattributed_ns),
        st.unattributed_ns / wall
    ));
    out.push_str(&format!(
        "{:<28} {:>12} {:>8}\n",
        "layer", "s/iter", "share"
    ));
    for (k, v) in st.by_layer() {
        out.push_str(&format!("{k:<28} {:>12.6} {:>8.4}\n", per(v), v / wall));
    }
    let total: f64 = st.by_key.values().sum::<f64>() + st.unattributed_ns;
    out.push_str(&format!(
        "{:<28} {:>12.6} {:>8.4}\n",
        "sum = traced wall",
        per(total),
        total / wall
    ));
    out
}

fn write_artifacts(
    dir: &std::path::Path,
    opts: &Options,
    spans: &[span::Span],
    table: &str,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let stem = format!("{}-seed{}", opts.workload, opts.seed);
    let trace = dir.join(format!("{stem}.trace.json"));
    std::fs::write(&trace, span::chrome_trace(spans))
        .map_err(|e| format!("writing {}: {e}", trace.display()))?;
    let tbl = dir.join(format!("{stem}.self_time.txt"));
    std::fs::write(&tbl, table).map_err(|e| format!("writing {}: {e}", tbl.display()))?;
    Ok(())
}
