//! The machine fingerprint stamped on every run: what a host-time reading
//! was measured on.

use std::path::Path;

/// Where and with what a run was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Logical CPUs listed in `/proc/cpuinfo` (0 when unreadable).
    pub cores: usize,
    /// CPU model name.
    pub cpu_model: String,
    /// `std::thread::available_parallelism()` at start-up.
    pub available_parallelism: usize,
    /// Worker-pool width the workload ran at.
    pub pool_width: usize,
    /// Compiler that built the benchmark.
    pub rustc: String,
    /// Commit of the checkout, or `unknown` outside a git work tree.
    pub git_commit: String,
}

impl Fingerprint {
    /// Reads the fingerprint of this process's machine and checkout.
    pub fn capture(pool_width: usize) -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cores = cpuinfo
            .lines()
            .filter(|l| l.starts_with("processor"))
            .count();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            cores,
            cpu_model,
            available_parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            pool_width,
            rustc: env!("PERFBENCH_RUSTC_VERSION").to_string(),
            git_commit: git_commit(Path::new(".git")).unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// One `key=value` line for the report.
    pub fn line(&self) -> String {
        format!(
            "fingerprint cores={} cpu_model=\"{}\" available_parallelism={} pool_width={} rustc=\"{}\" git_commit={}",
            self.cores, self.cpu_model, self.available_parallelism, self.pool_width, self.rustc, self.git_commit
        )
    }
}

/// Resolves `HEAD` of the git directory `git` by reading its files (no
/// subprocess): a detached hash, a loose ref, or a packed ref.
fn git_commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(hash, _)| hash.to_string())
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
