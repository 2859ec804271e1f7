//! Metric records, correctness gates and the per-iteration ledger the
//! workloads fill in.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall time (or host resources) of the reproduction itself.
    Host,
    /// The simulated DGX: the paper's metric. Exact per seed.
    Simulated,
}

impl Clock {
    /// Lower-case label printed next to every metric.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Simulated => "simulated",
        }
    }
}

/// One named reading.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`wall_s`, `core.simulate_calls`, ...).
    pub name: String,
    /// The reading.
    pub value: f64,
    /// Unit (`s`, `ms`, `count`, ...).
    pub unit: &'static str,
    /// Clock it is read from.
    pub clock: Clock,
    /// Samples the reading summarises.
    pub samples: usize,
    /// Free-form qualifier printed after the reading (may be empty).
    pub note: String,
}

impl Metric {
    /// A metric with no note.
    pub fn new(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        clock: Clock,
        samples: usize,
    ) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            clock,
            samples,
            note: String::new(),
        }
    }

    /// Attaches a qualifier.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }

    /// The human-readable report line.
    pub fn line(&self) -> String {
        let mut s = format!(
            "metric {:<36} {:>16} {:<8} clock={:<9} n={}",
            self.name,
            format_value(self.value),
            self.unit,
            self.clock.label(),
            self.samples
        );
        if self.clock == Clock::Simulated {
            s.push_str(" [unvalidated against hardware]");
        }
        if !self.note.is_empty() {
            let _ = write!(s, " ({})", self.note);
        }
        s
    }
}

/// Shortest round-trip decimal form of `v` (all its digits, no rounding).
pub fn format_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Outcome of every correctness gate a run evaluated.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Gates {
    /// Gate evaluations attempted.
    pub attempted: u64,
    /// Failed evaluations, with what failed.
    pub failures: Vec<String>,
}

impl Gates {
    /// Records one gate evaluation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Folds another set of evaluations in.
    pub fn merge(&mut self, other: Gates) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }

    /// Failed evaluations.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

/// Per-layer counters of one or more iterations: sums by name plus raw
/// host-time samples for the distributions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// Summed counters (`core.simulate_calls`, `sim.warps`, ...).
    pub sums: BTreeMap<&'static str, f64>,
    /// Host ns of every MGG timing-plane call.
    pub simulate_ns: Vec<u64>,
    /// Host ns of every functional-aggregation call.
    pub values_ns: Vec<u64>,
}

impl Ledger {
    /// Adds `v` to counter `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_insert(0.0) += v;
    }

    /// Counter `name` (0 when never added).
    pub fn get(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Folds another ledger in.
    pub fn merge(&mut self, other: &Ledger) {
        for (k, v) in &other.sums {
            self.add(k, *v);
        }
        self.simulate_ns.extend_from_slice(&other.simulate_ns);
        self.values_ns.extend_from_slice(&other.values_ns);
    }

    /// Records the ledger of one simulated kernel.
    pub fn kernel(&mut self, stats: &mgg_sim::KernelStats) {
        self.add(
            "sim.warps",
            stats.per_gpu.iter().map(|g| g.warps).sum::<u64>() as f64,
        );
    }

    /// Records a kernel that is part of a reported model latency: the
    /// simulated ledger (utilisation, traffic, barrier skew) of the launches
    /// behind the headline numbers.
    pub fn reported_kernel(&mut self, stats: &mgg_sim::KernelStats) {
        let makespan = stats.makespan_ns();
        let skew: u64 = stats.per_gpu.iter().map(|g| makespan - g.finish_ns).sum();
        self.add("ledger.launches", 1.0);
        self.add("ledger.sm_utilization", stats.sm_utilization());
        self.add("ledger.achieved_occupancy", stats.achieved_occupancy());
        self.add(
            "sim.remote_requests",
            stats.traffic.remote_requests() as f64,
        );
        self.add("sim.remote_bytes", stats.traffic.remote_bytes() as f64);
        self.add("ledger.skew_ns", skew as f64);
        self.add(
            "ledger.gpu_time_ns",
            (makespan * stats.per_gpu.len() as u64) as f64,
        );
    }
}

/// FNV-1a over a stream of 64-bit words: the simulated-output digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes one word in.
    pub fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes a float in by its bits.
    pub fn push_f64(&mut self, v: f64) {
        self.push(v.to_bits());
    }

    /// Hex form.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Minimal JSON string escaping for the names and notes the benchmark
/// emits.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
