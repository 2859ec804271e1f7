//! `perfbench`: runs one workload (or all of them) and prints every metric
//! with its unit, clock and sample count, then one JSON result line.
//!
//! ```text
//! perfbench --workload <paper-sweep|train-values|serve-churn|all>
//!           [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! Exits 1 when a correctness gate fails (after printing the result) and
//! 2 on a usage error (without printing one).

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::workloads::{Size, NAMES};
use perfbench::{run, Options, DEFAULT_SEED, HELD_OUT_SEED};

const USAGE: &str = "usage: perfbench --workload <paper-sweep|train-values|serve-churn|all> \
[--seed N] [--seconds S] [--trace 0|1] [--out DIR]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        out_dir: Some(PathBuf::from(".perfbench-out")),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--out" => opts.out_dir = Some(PathBuf::from(value()?)),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(opts)
}

/// `--workload all`: each workload in its own process (so peak RSS and
/// pool state stay per workload), in order.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: cannot locate the benchmark binary: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for name in NAMES {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                child_args.push(a.clone());
            }
        }
        child_args.extend(["--workload".to_string(), name.to_string()]);
        match std::process::Command::new(&exe).args(&child_args).status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("error: running {name}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.workload == "all" {
        return run_all(&args);
    }
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} (default {DEFAULT_SEED}, held out {HELD_OUT_SEED}) trace {} iterations {}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace),
        outcome.iteration_walls.len()
    );
    println!("{}", outcome.fingerprint.line());
    for m in outcome.metrics.iter().chain(&outcome.report) {
        println!("{}", m.line());
    }
    let walls: Vec<String> = outcome
        .iteration_walls
        .iter()
        .map(|w| format!("{w:.4}"))
        .collect();
    println!("iteration_walls_s {}", walls.join(" "));
    println!("sim_digest {}", outcome.digest.hex());
    for (claim, holds) in &outcome.claims {
        println!("claim {} {claim}", if *holds { "holds" } else { "FAILS" });
    }
    if !outcome.self_table.is_empty() {
        print!("{}", outcome.self_table);
    }
    println!(
        "gates {} attempted, {} failed",
        outcome.gates.attempted,
        outcome.gates.failed()
    );
    for f in &outcome.gates.failures {
        println!("gate FAILED: {f}");
    }
    println!("{}", outcome.json_line());
    if outcome.gates.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
