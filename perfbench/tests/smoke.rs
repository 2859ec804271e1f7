//! Tiny-input smoke runs of every workload, plus the check that the
//! metric lists match `BENCHMARK.json`.

use std::sync::Mutex;

use perfbench::metrics::Clock;
use perfbench::workloads::{Size, NAMES};
use perfbench::{run, Options, Outcome, END_TO_END, PER_LAYER};

/// Runs share the global pool width and span recorder; one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn tiny(workload: &str, trace: bool) -> Outcome {
    let opts = Options {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
        out_dir: None,
    };
    run(&opts).expect("known workload")
}

/// The simulated metrics each workload names, with their units.
fn simulated_names(workload: &str) -> &'static [(&'static str, &'static str)] {
    match workload {
        "paper-sweep" => &[
            ("model_sim_ms_geomean", "ms"),
            ("speedup_vs_uvm_geomean", "x"),
        ],
        "train-values" => &[("epoch_sim_ms", "ms"), ("test_accuracy", "frac")],
        _ => &[
            ("p50_us", "us"),
            ("tail_us", "us"),
            ("goodput_qps", "1/s"),
            ("max_qps_at_slo", "1/s"),
            ("failed_frac", "frac"),
        ],
    }
}

#[test]
fn every_workload_emits_its_metrics_and_repeats_its_simulated_ones() {
    let _g = SERIAL.lock().expect("serial lock");
    for w in NAMES {
        let a = tiny(w, false);
        assert_eq!(a.gates.failures, Vec::<String>::new(), "{w}: gates failed");
        let names: Vec<(&str, &str)> = a
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.unit))
            .collect();
        assert_eq!(names, END_TO_END.to_vec(), "{w}: end-to-end metrics");
        assert!(
            a.metrics.iter().all(|m| m.value > 0.0),
            "{w}: an end-to-end metric read 0"
        );
        for &(name, unit) in simulated_names(w) {
            let m = a
                .report
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{w}: no {name}"));
            assert_eq!((m.unit, m.clock), (unit, Clock::Simulated), "{w}: {name}");
        }
        assert!(
            a.report.iter().any(|m| m.name == "failed_frac"),
            "{w}: no failed_frac"
        );
        if w == "paper-sweep" {
            assert!(a
                .report
                .iter()
                .any(|m| m.name == "sim_warps_per_s" && m.clock == Clock::Host));
        }

        // A second in-process run of the same seed reproduces every
        // simulated reading and the digest exactly.
        let b = tiny(w, false);
        let sim = |o: &Outcome| -> Vec<(String, u64)> {
            o.report
                .iter()
                .filter(|m| m.clock == Clock::Simulated)
                .map(|m| (m.name.clone(), m.value.to_bits()))
                .collect()
        };
        assert_eq!(
            sim(&a),
            sim(&b),
            "{w}: simulated metrics moved between runs"
        );
        assert_eq!(a.digest, b.digest, "{w}: digest moved between runs");
    }
}

#[test]
fn traced_runs_emit_every_layer_and_account_for_the_wall() {
    let _g = SERIAL.lock().expect("serial lock");
    for w in NAMES {
        let o = tiny(w, true);
        assert_eq!(o.gates.failures, Vec::<String>::new(), "{w}: gates failed");
        let names: Vec<(&str, &str)> = o
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.unit))
            .collect();
        assert_eq!(names, PER_LAYER.to_vec(), "{w}: per-layer metrics");
        let get = |n: &str| {
            o.metrics
                .iter()
                .find(|m| m.name == n)
                .expect("listed")
                .value
        };
        let layers: f64 = o
            .metrics
            .iter()
            .filter(|m| m.name.starts_with("self."))
            .map(|m| m.value)
            .sum();
        let wall = get("trace.wall_s");
        assert!(wall > 0.0);
        assert!(
            (layers - wall).abs() <= 1e-9 * wall.max(1.0),
            "{w}: self times {layers} != wall {wall}"
        );
        assert!(
            get("sim.run_s") > 0.0 && get("sim.host_ns_per_warp") > 0.0,
            "{w}: no replay"
        );
        assert!(o.self_table.contains("sum = traced wall"));
    }
}

#[test]
fn benchmark_json_lists_the_same_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for w in NAMES {
        assert!(
            text.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
            "workload {w}"
        );
    }
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            text.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ")),
            "metric {name}"
        );
    }
    let entries = text.matches("{\"name\": ").count();
    assert_eq!(
        entries,
        NAMES.len() + END_TO_END.len() + PER_LAYER.len(),
        "extra entries"
    );
}
