//! Benchmark-side spans: host-time measurement of the benchmark's own
//! calls into each crate's public functions.
//!
//! Every span is keyed `plane.call` (`core.simulate`, `gnn.train`, ...);
//! the part before the first dot is the layer it rolls up to. Spans carry
//! the id of the grid cell or serving scenario they ran for. They are
//! recorded only while tracing is on, stay in memory, and are turned into
//! a Chrome trace and a per-layer self-time table at exit.
//!
//! Self time is attributed on the wall clock, not per thread: at every
//! instant the threads inside some span split that instant evenly among
//! their innermost spans. Layer self times therefore add up to the traced
//! wall time, with instants no thread spent inside a span (and spans of
//! the `bench` layer, the harness's own code) left as the unattributed
//! remainder.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Layer key of the harness's own spans; counted as unattributed.
pub const BENCH_LAYER: &str = "bench";

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static CELL: Cell<u32> = const { Cell::new(0) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide trace epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `plane.call` key.
    pub key: &'static str,
    /// Cell or scenario id the call ran for.
    pub cell: u32,
    /// Recording thread (dense, in first-use order).
    pub tid: u32,
    /// Start, ns since the trace epoch.
    pub start_ns: u64,
    /// End, ns since the trace epoch.
    pub end_ns: u64,
}

impl Span {
    /// The layer this span rolls up to: the key's first segment.
    pub fn layer(&self) -> &'static str {
        layer_of(self.key)
    }
}

/// First segment of a `plane.call` key.
pub fn layer_of(key: &'static str) -> &'static str {
    key.split('.').next().unwrap_or(key)
}

/// Turns span recording on or off (off by default).
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Takes every span recorded so far, leaving the buffer empty.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer"))
}

/// Runs `f` with `cell` as the id of the spans this thread records.
pub fn in_cell<R>(cell: u32, f: impl FnOnce() -> R) -> R {
    let prev = CELL.with(|c| c.replace(cell));
    let out = f();
    CELL.with(|c| c.set(prev));
    out
}

/// Runs `f` inside a span keyed `key`. A single relaxed load when tracing
/// is off.
#[inline]
pub fn span<R>(key: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    let span = Span {
        key,
        cell: CELL.with(Cell::get),
        tid: TID.with(|t| *t),
        start_ns,
        end_ns,
    };
    SPANS.lock().expect("span buffer").push(span);
    out
}

/// [`span`] that also returns the call's host duration in ns, measured
/// whether or not tracing is on.
#[inline]
pub fn timed<R>(key: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let out = span(key, f);
    (out, t.elapsed().as_nanos() as u64)
}

/// Wall-clock self time per span key over `[t0, t1]`, in ns, plus the
/// unattributed remainder. The values sum to `t1 - t0` exactly (the
/// remainder absorbs rounding).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelfTimes {
    /// Self time per key, ns.
    pub by_key: BTreeMap<&'static str, f64>,
    /// Wall time inside no non-`bench` span, ns.
    pub unattributed_ns: f64,
    /// The window length, ns.
    pub wall_ns: f64,
}

impl SelfTimes {
    /// Self time per layer (key prefix), ns.
    pub fn by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (k, v) in &self.by_key {
            *out.entry(layer_of(k)).or_insert(0.0) += v;
        }
        out
    }

    /// Self time of every key starting with `prefix`, ns.
    pub fn sum_prefix(&self, prefix: &str) -> f64 {
        self.by_key
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }
}

/// Attributes the window `[t0, t1]` to the innermost spans of `spans`.
pub fn self_times(spans: &[Span], t0: u64, t1: u64) -> SelfTimes {
    // 1. Per thread, the segments during which each span is innermost.
    let mut by_tid: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        by_tid.entry(s.tid).or_default().push(i);
    }
    // (time, +1 / -1, key) boundaries of innermost segments.
    let mut edges: Vec<(u64, i8, &'static str)> = Vec::new();
    for idx in by_tid.values() {
        let mut ev: Vec<(u64, u8, usize)> = Vec::with_capacity(idx.len() * 2);
        for &i in idx {
            let s = &spans[i];
            let (a, b) = (s.start_ns.clamp(t0, t1), s.end_ns.clamp(t0, t1));
            if b > a {
                // Ends sort before starts at the same instant.
                ev.push((a, 1, i));
                ev.push((b, 0, i));
            }
        }
        // Among starts at one instant the longer (outer) span goes first.
        ev.sort_by_key(|&(t, kind, i)| (t, kind, std::cmp::Reverse(spans[i].end_ns)));
        let mut stack: Vec<usize> = Vec::new();
        let mut seg_start = 0u64;
        for (t, kind, i) in ev {
            if let Some(&top) = stack.last() {
                if t > seg_start {
                    edges.push((seg_start, 1, spans[top].key));
                    edges.push((t, -1, spans[top].key));
                }
            }
            if kind == 1 {
                stack.push(i);
            } else if let Some(pos) = stack.iter().rposition(|&j| j == i) {
                stack.remove(pos);
            }
            seg_start = t;
        }
    }
    // 2. Sweep all threads' segments; an instant shared by k threads gives
    //    each innermost span 1/k of it.
    edges.sort_by_key(|&(t, d, _)| (t, d));
    let mut active: BTreeMap<&'static str, u32> = BTreeMap::new();
    let mut by_key: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut k = 0u32;
    let mut last = t0;
    for (t, d, key) in edges {
        if k > 0 && t > last {
            let dt = (t - last) as f64;
            for (&key, &c) in &active {
                if c > 0 {
                    *by_key.entry(key).or_insert(0.0) += dt * c as f64 / k as f64;
                }
            }
        }
        last = t;
        let c = active.entry(key).or_insert(0);
        if d > 0 {
            *c += 1;
            k += 1;
        } else {
            *c -= 1;
            k -= 1;
        }
    }
    by_key.retain(|key, _| layer_of(key) != BENCH_LAYER);
    let wall_ns = t1.saturating_sub(t0) as f64;
    let attributed: f64 = by_key.values().sum();
    SelfTimes {
        by_key,
        unattributed_ns: wall_ns - attributed,
        wall_ns,
    }
}

/// Chrome-trace (`chrome://tracing` / Perfetto) JSON of `spans`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"cell\":{}}}}}",
            s.key,
            s.layer(),
            s.tid,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.cell
        ));
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(key: &'static str, tid: u32, a: u64, b: u64) -> Span {
        Span {
            key,
            cell: 0,
            tid,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn nested_spans_take_self_time_only() {
        let spans = [s("core.tune", 0, 0, 100), s("core.simulate", 0, 10, 60)];
        let st = self_times(&spans, 0, 120);
        assert_eq!(st.by_key["core.simulate"], 50.0);
        assert_eq!(st.by_key["core.tune"], 50.0);
        assert_eq!(st.unattributed_ns, 20.0);
    }

    #[test]
    fn concurrent_threads_split_the_wall() {
        // Two threads busy over [0, 100): each gets half of the overlap.
        let spans = [
            s("core.simulate", 0, 0, 100),
            s("baselines.simulate", 1, 0, 50),
        ];
        let st = self_times(&spans, 0, 100);
        assert_eq!(st.by_key["core.simulate"], 75.0);
        assert_eq!(st.by_key["baselines.simulate"], 25.0);
        assert_eq!(st.unattributed_ns, 0.0);
        let total: f64 = st.by_key.values().sum::<f64>() + st.unattributed_ns;
        assert_eq!(total, st.wall_ns);
    }

    #[test]
    fn bench_spans_count_as_unattributed() {
        let spans = [s("bench.cell", 0, 0, 100), s("core.simulate", 0, 20, 40)];
        let st = self_times(&spans, 0, 100);
        assert_eq!(st.by_key.len(), 1);
        assert_eq!(st.by_key["core.simulate"], 20.0);
        assert_eq!(st.unattributed_ns, 80.0);
        assert_eq!(st.by_layer()["core"], 20.0);
    }

    #[test]
    fn identical_bounds_nest_outer_first() {
        let spans = [s("core.simulate", 0, 0, 10), s("core.tune", 0, 0, 10)];
        let st = self_times(&spans, 0, 10);
        // Same extent: whichever sorts as inner owns the time; the total
        // is conserved either way.
        let total: f64 = st.by_key.values().sum();
        assert_eq!(total, 10.0);
    }
}
