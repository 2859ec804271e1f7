//! Epoch-boundary checkpoints for failover resume.
//!
//! A checkpoint captures everything needed to resume aggregation after a
//! permanent failure without redoing finished epochs: the partition bound
//! vector (ownership ranges), the feature dimension, and the aggregated
//! feature matrix at the last epoch boundary. A FNV-1a checksum over the
//! payload guards against torn or corrupted snapshots — a restore that
//! fails validation is treated as "no checkpoint" rather than silently
//! resuming from bad state.
//!
//! Two stores are provided: [`MemoryStore`] (the default inside
//! `simulate_aggregation`, zero I/O) and [`FileStore`] (JSON files, one per
//! epoch, for CLI runs that should survive the process).

use mgg_runtime::Fnv1a;
use serde::{Deserialize, Serialize};

/// One epoch-boundary snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Epoch this snapshot closes (resume starts at `epoch + 1`).
    pub epoch: u64,
    /// Feature dimension of `features`.
    pub dim: usize,
    /// Partition bound vector (`NodeSplit::bounds`) active at the snapshot.
    pub bounds: Vec<u32>,
    /// Aggregated features, row-major `[num_nodes x dim]`.
    pub features: Vec<f32>,
    /// FNV-1a over the payload; see [`Checkpoint::is_valid`].
    pub checksum: u64,
}

fn payload_checksum(epoch: u64, dim: usize, bounds: &[u32], features: &[f32]) -> u64 {
    let mut h = Fnv1a::new();
    h.u64(epoch);
    h.u64(dim as u64);
    bounds.iter().for_each(|&b| h.u32(b));
    // Hash the exact bit patterns so restore equality is bit-equality.
    features.iter().for_each(|f| h.u32(f.to_bits()));
    h.finish()
}

impl Checkpoint {
    /// Builds a checkpoint, computing its checksum.
    pub fn new(epoch: u64, dim: usize, bounds: Vec<u32>, features: Vec<f32>) -> Self {
        let checksum = payload_checksum(epoch, dim, &bounds, &features);
        Checkpoint { epoch, dim, bounds, features, checksum }
    }

    /// True when the stored checksum matches the payload.
    pub fn is_valid(&self) -> bool {
        self.checksum == payload_checksum(self.epoch, self.dim, &self.bounds, &self.features)
    }
}

/// Persistence behind checkpoint/resume. Implementations keep only the
/// latest valid checkpoint reachable; resume always restarts from the most
/// recent epoch boundary.
pub trait CheckpointStore {
    /// Persists `ckpt`; replaces any older snapshot.
    fn save(&mut self, ckpt: Checkpoint) -> Result<(), String>;
    /// The most recent *valid* checkpoint, if any.
    fn latest(&self) -> Option<Checkpoint>;
}

/// In-memory store: the engine's default (checkpoints live only as long as
/// the run, which is exactly the resume scope of a simulation).
#[derive(Debug, Default)]
pub struct MemoryStore {
    latest: Option<Checkpoint>,
}

impl MemoryStore {
    /// An empty store holding no checkpoint.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CheckpointStore for MemoryStore {
    fn save(&mut self, ckpt: Checkpoint) -> Result<(), String> {
        if !ckpt.is_valid() {
            return Err("refusing to store checkpoint with bad checksum".into());
        }
        self.latest = Some(ckpt);
        Ok(())
    }

    fn latest(&self) -> Option<Checkpoint> {
        self.latest.clone().filter(Checkpoint::is_valid)
    }
}

/// File-backed store: one JSON document per epoch under `dir`, named
/// `ckpt-<epoch>.json`. Corrupt or truncated files are skipped on load.
#[derive(Debug)]
pub struct FileStore {
    dir: std::path::PathBuf,
}

impl FileStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<std::path::PathBuf>) -> Result<Self, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("checkpoint dir {}: {e}", dir.display()))?;
        Ok(FileStore { dir })
    }

    fn path_for(&self, epoch: u64) -> std::path::PathBuf {
        self.dir.join(format!("ckpt-{epoch}.json"))
    }
}

impl CheckpointStore for FileStore {
    fn save(&mut self, ckpt: Checkpoint) -> Result<(), String> {
        if !ckpt.is_valid() {
            return Err("refusing to store checkpoint with bad checksum".into());
        }
        let text = serde_json::to_string(&ckpt).map_err(|e| e.to_string())?;
        let path = self.path_for(ckpt.epoch);
        // Write-then-rename so a crash mid-write never leaves a torn file
        // under the canonical name.
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, text).map_err(|e| format!("{}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(())
    }

    fn latest(&self) -> Option<Checkpoint> {
        let mut best: Option<Checkpoint> = None;
        let entries = std::fs::read_dir(&self.dir).ok()?;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if !name.starts_with("ckpt-") || !name.ends_with(".json") {
                continue;
            }
            let Ok(text) = std::fs::read_to_string(entry.path()) else { continue };
            let Ok(ckpt) = serde_json::from_str::<Checkpoint>(&text) else { continue };
            if !ckpt.is_valid() {
                continue;
            }
            if best.as_ref().is_none_or(|b| ckpt.epoch > b.epoch) {
                best = Some(ckpt);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(epoch: u64) -> Checkpoint {
        Checkpoint::new(
            epoch,
            2,
            vec![0, 4, 8],
            vec![1.0, 2.5, -0.25, 0.0, 3.5, 1.5, 0.75, -1.0],
        )
    }

    #[test]
    fn checksum_validates_and_detects_corruption() {
        let mut c = sample(3);
        assert!(c.is_valid());
        c.features[1] += 1.0;
        assert!(!c.is_valid());
    }

    #[test]
    fn memory_store_roundtrip_keeps_latest() {
        let mut store = MemoryStore::new();
        assert!(store.latest().is_none());
        store.save(sample(0)).unwrap();
        store.save(sample(1)).unwrap();
        assert_eq!(store.latest().unwrap().epoch, 1);
    }

    #[test]
    fn memory_store_rejects_corrupt() {
        let mut store = MemoryStore::new();
        let mut c = sample(0);
        c.checksum ^= 1;
        assert!(store.save(c).is_err());
    }

    #[test]
    fn file_store_roundtrip_bit_identical() {
        let dir = std::env::temp_dir().join(format!("mgg-ckpt-{}", std::process::id()));
        let mut store = FileStore::open(&dir).unwrap();
        let c = sample(5);
        store.save(c.clone()).unwrap();
        store.save(sample(2)).unwrap();
        let restored = store.latest().unwrap();
        assert_eq!(restored, c, "latest-epoch checkpoint must win, bit-identical");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_store_skips_corrupt_files() {
        let dir = std::env::temp_dir().join(format!("mgg-ckpt-bad-{}", std::process::id()));
        let mut store = FileStore::open(&dir).unwrap();
        store.save(sample(1)).unwrap();
        std::fs::write(dir.join("ckpt-9.json"), "{not json").unwrap();
        let restored = store.latest().unwrap();
        assert_eq!(restored.epoch, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
