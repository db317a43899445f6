//! `cahd-obs` — first-party observability for the CAHD stack.
//!
//! The paper's evaluation (Figures 6–12) is entirely about *measured*
//! behavior: CAHD runtime versus the privacy degree `p`, the candidate-list
//! factor `alpha`, and the reconstruction-error trade-off. This crate gives
//! the pipeline the instruments to produce those measurements from a normal
//! run instead of ad-hoc stopwatch code:
//!
//! * [`Recorder`] — a thread-safe sink for spans, counters, gauges and
//!   histograms. A *disabled* recorder ([`Recorder::disabled`]) carries no
//!   allocation and every operation is a branch on `None`, so instrumented
//!   hot paths cost nothing when tracing is off.
//! * [`Span`] — an RAII wall-clock timer; dropping it records
//!   `(path, elapsed)` under the span's path. Paths are `/`-separated
//!   (`"pipeline/rcm/aat_build"`) and aggregate by path: the same span
//!   executed `k` times contributes one [`SpanRecord`] with `count == k`.
//! * [`Histogram`] — a fixed-bucket (powers of two) value histogram for
//!   sizes and latencies, usable standalone for lock-free local
//!   accumulation and merged into a recorder afterwards.
//! * [`TraceReport`] — an immutable, serializable snapshot of everything a
//!   recorder saw, with internal-consistency checks
//!   ([`TraceReport::consistency_findings`]) that back the `CAHD-O001`
//!   analysis pass of `cahd-check`.
//! * [`memtrack`] / [`TrackingAllocator`] — an opt-in global-allocator
//!   wrapper maintaining process-wide allocation totals. A recorder built
//!   with [`Recorder::with_memory`] attributes allocation windows to its
//!   spans and emits a [`MemoryReport`] section whose invariants back the
//!   `CAHD-O002` memory audit. Without the wrapper installed (every
//!   library embedder) the capture is inert and reports carry no memory
//!   section.
//!
//! # Determinism contract
//!
//! **Counters must be scheduling-invariant**: instrumented code only
//! records algorithmic event counts (groups formed, candidates scanned,
//! rollbacks, ...) as counters, never anything derived from timing or the
//! thread layout. Scheduling-dependent measurements belong in gauges
//! (e.g. partition imbalance) or in histogram *values* (per-shard scan
//! nanoseconds); histogram *counts* of deterministic event streams stay
//! invariant. The property tests in `cahd-core` pin this contract across
//! thread counts.
//!
//! ```
//! use cahd_obs::Recorder;
//!
//! let rec = Recorder::new();
//! {
//!     let _span = rec.span("pipeline");
//!     rec.add("core.groups_formed", 3);
//!     rec.observe("core.candidate_list_len", 12);
//! }
//! let report = rec.snapshot();
//! assert_eq!(report.counter("core.groups_formed"), Some(3));
//! assert_eq!(report.spans.len(), 1);
//! assert!(report.consistency_findings().is_empty());
//! ```

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

pub mod memtrack;

pub use memtrack::{MemStats, TrackingAllocator};

/// Number of histogram buckets: bucket `i < 41` counts values
/// `<= 2^i`; the final bucket counts everything larger (overflow).
pub const N_BUCKETS: usize = 42;

/// Upper bound (inclusive) of bucket `i`, or `u64::MAX` for the overflow
/// bucket.
#[must_use]
pub fn bucket_bound(i: usize) -> u64 {
    if i + 1 < N_BUCKETS {
        1u64 << i
    } else {
        u64::MAX
    }
}

/// Index of the bucket a value falls into.
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    for i in 0..N_BUCKETS - 1 {
        if value <= (1u64 << i) {
            return i;
        }
    }
    N_BUCKETS - 1
}

/// A fixed-bucket value histogram (powers-of-two bounds, see
/// [`bucket_bound`]). Standalone accumulation is lock-free; merge the
/// result into a [`Recorder`] with [`Recorder::record_histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Number of observed values.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Per-bucket observation counts (see [`bucket_bound`]).
    pub buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            buckets: vec![0; N_BUCKETS],
        }
    }

    /// Records one value.
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.buckets[bucket_index(value)] += 1;
    }

    /// Adds every observation of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }

    /// Mean observed value (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Per-path aggregation of span memory windows (see [`SpanMemRecord`]).
#[derive(Clone, Copy, Default)]
struct SpanMemAgg {
    count: u64,
    alloc_bytes: u64,
    dealloc_bytes: u64,
    peak_bytes: u64,
}

#[derive(Default)]
struct Inner {
    spans: BTreeMap<String, (u64, u64)>, // path -> (count, total_ns)
    span_mem: BTreeMap<String, SpanMemAgg>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Applies `update` to the value under `key`, inserting `V::default()`
/// first if the key is new. Only that first insert copies the key:
/// `BTreeMap::entry` would need an owned `String` on every call.
fn upsert<V: Default>(map: &mut BTreeMap<String, V>, key: &str, update: impl FnOnce(&mut V)) {
    match map.get_mut(key) {
        Some(v) => update(v),
        None => {
            let mut v = V::default();
            update(&mut v);
            map.insert(key.to_owned(), v);
        }
    }
}

/// A thread-safe sink for trace events.
///
/// Cloning is cheap and shares the underlying store, so one recorder can be
/// handed to worker threads (`Recorder` is `Send + Sync`). A recorder built
/// with [`Recorder::disabled`] records nothing and costs one branch per
/// operation — the zero-cost-when-off contract of the instrumentation.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Mutex<Inner>>>,
    mem: bool,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Recorder {
    /// An enabled recorder with an empty store. Memory capture is off;
    /// opt in with [`Recorder::with_memory`].
    #[must_use]
    pub fn new() -> Self {
        Recorder {
            inner: Some(Arc::new(Mutex::new(Inner::default()))),
            mem: false,
        }
    }

    /// A recorder that drops every event (the default).
    #[must_use]
    pub fn disabled() -> Self {
        Recorder {
            inner: None,
            mem: false,
        }
    }

    /// Opts this recorder into memory capture: spans additionally record
    /// their allocation window and [`Recorder::snapshot`] emits a
    /// [`MemoryReport`] section.
    ///
    /// Capture only takes effect when [`TrackingAllocator`] is the
    /// process's global allocator (see [`memtrack::is_active`]); on a
    /// disabled recorder, or in a process using the default allocator,
    /// this is inert and reports stay byte-identical to a plain recorder's.
    #[must_use]
    pub fn with_memory(mut self) -> Self {
        self.mem = true;
        self
    }

    /// Whether events are being recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether span memory windows are actually being captured: the
    /// recorder is enabled, opted in via [`Recorder::with_memory`], and
    /// the tracking allocator is live in this process.
    #[must_use]
    pub fn memory_tracking(&self) -> bool {
        self.mem && self.inner.is_some() && memtrack::is_active()
    }

    /// Starts a wall-clock span; the elapsed time is recorded under `path`
    /// when the returned guard drops. Span paths are `/`-separated and
    /// every ancestor path should itself be recorded as a span (the
    /// `CAHD-O001` nesting check enforces it on emitted reports).
    #[must_use]
    pub fn span(&self, path: &'static str) -> Span<'_> {
        self.open(Cow::Borrowed(path))
    }

    /// Starts the span `parent/name`, for a child whose name is only known
    /// at run time (one span per registered pass, say). The path is built
    /// only when the recorder is enabled.
    #[must_use]
    pub fn child_span(&self, parent: &'static str, name: &str) -> Span<'_> {
        self.open(match self.inner {
            Some(_) => Cow::Owned(format!("{parent}/{name}")),
            None => Cow::Borrowed(parent),
        })
    }

    fn open(&self, path: Cow<'static, str>) -> Span<'_> {
        Span {
            rec: self,
            path,
            start: self.inner.as_ref().map(|_| Instant::now()),
            mem_start: if self.memory_tracking() {
                let s = memtrack::stats();
                Some((s.alloc_bytes, s.dealloc_bytes))
            } else {
                None
            },
        }
    }

    /// Records a completed span measured externally (in nanoseconds).
    /// Carries no memory window — only RAII spans from [`Recorder::span`]
    /// capture allocation data.
    pub fn record_span_ns(&self, path: &str, ns: u64) {
        self.record_span(path, ns, None);
    }

    /// Shared sink for span drops: one lock acquisition records the
    /// wall-clock observation and, when present, the memory window.
    fn record_span(&self, path: &str, ns: u64, mem: Option<(u64, u64, u64)>) {
        if let Some(inner) = &self.inner {
            // cahd-lint: allow(L003, reason = "recorder methods never panic while holding the lock; poisoning implies a foreign panic worth re-surfacing")
            let mut g = inner.lock().expect("obs recorder poisoned");
            upsert(&mut g.spans, path, |e| {
                e.0 += 1;
                e.1 = e.1.saturating_add(ns);
            });
            if let Some((alloc_bytes, dealloc_bytes, peak_bytes)) = mem {
                upsert(&mut g.span_mem, path, |m| {
                    m.count += 1;
                    m.alloc_bytes = m.alloc_bytes.saturating_add(alloc_bytes);
                    m.dealloc_bytes = m.dealloc_bytes.saturating_add(dealloc_bytes);
                    m.peak_bytes = m.peak_bytes.max(peak_bytes);
                });
            }
        }
    }

    /// Records the six `mem.*` gauges from the current allocator totals
    /// (see [`memtrack::stats`]). A no-op unless
    /// [`Recorder::memory_tracking`] — pipelines call this unconditionally
    /// at phase end and embedders without the tracking allocator see
    /// nothing. Gauges are the right home: allocator totals are
    /// scheduling-dependent by nature.
    pub fn record_memory_gauges(&self) {
        if !self.memory_tracking() {
            return;
        }
        let s = memtrack::stats();
        self.gauge("mem.alloc_bytes", s.alloc_bytes as f64);
        self.gauge("mem.dealloc_bytes", s.dealloc_bytes as f64);
        self.gauge("mem.allocs", s.allocs as f64);
        self.gauge("mem.deallocs", s.deallocs as f64);
        self.gauge("mem.live_bytes", s.live_bytes as f64);
        self.gauge("mem.peak_bytes", s.peak_bytes as f64);
    }

    /// Adds `n` to the monotonic counter `name`.
    pub fn add(&self, name: &str, n: u64) {
        if n == 0 {
            return;
        }
        if let Some(inner) = &self.inner {
            // cahd-lint: allow(L003, reason = "recorder methods never panic while holding the lock; poisoning implies a foreign panic worth re-surfacing")
            let mut g = inner.lock().expect("obs recorder poisoned");
            upsert(&mut g.counters, name, |c| *c += n);
        }
    }

    /// Increments the monotonic counter `name` by one.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Sets the gauge `name` (last write wins). Gauges are the home of
    /// scheduling-dependent values — see the crate-level determinism
    /// contract.
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            // cahd-lint: allow(L003, reason = "recorder methods never panic while holding the lock; poisoning implies a foreign panic worth re-surfacing")
            let mut g = inner.lock().expect("obs recorder poisoned");
            upsert(&mut g.gauges, name, |v| *v = value);
        }
    }

    /// Records one value into the histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            // cahd-lint: allow(L003, reason = "recorder methods never panic while holding the lock; poisoning implies a foreign panic worth re-surfacing")
            let mut g = inner.lock().expect("obs recorder poisoned");
            upsert(&mut g.histograms, name, |hist| hist.observe(value));
        }
    }

    /// Merges a locally accumulated [`Histogram`] into `name` under one
    /// lock acquisition (the pattern for hot loops and worker threads).
    pub fn record_histogram(&self, name: &str, h: &Histogram) {
        if h.count == 0 {
            return;
        }
        if let Some(inner) = &self.inner {
            // cahd-lint: allow(L003, reason = "recorder methods never panic while holding the lock; poisoning implies a foreign panic worth re-surfacing")
            let mut g = inner.lock().expect("obs recorder poisoned");
            upsert(&mut g.histograms, name, |hist| hist.merge(h));
        }
    }

    /// An immutable snapshot of everything recorded so far, with every
    /// section sorted by name (snapshots of the same events are therefore
    /// byte-identical regardless of recording order).
    #[must_use]
    pub fn snapshot(&self) -> TraceReport {
        let Some(inner) = &self.inner else {
            return TraceReport::default();
        };
        // cahd-lint: allow(L003, reason = "recorder methods never panic while holding the lock; poisoning implies a foreign panic worth re-surfacing")
        let g = inner.lock().expect("obs recorder poisoned");
        let memory = if self.mem && memtrack::is_active() {
            let s = memtrack::stats();
            Some(MemoryReport {
                totals: MemTotals {
                    alloc_bytes: s.alloc_bytes,
                    dealloc_bytes: s.dealloc_bytes,
                    allocs: s.allocs,
                    deallocs: s.deallocs,
                    live_bytes: s.live_bytes,
                    peak_bytes: s.peak_bytes,
                },
                spans: g
                    .span_mem
                    .iter()
                    .map(|(path, m)| SpanMemRecord {
                        path: path.clone(),
                        count: m.count,
                        alloc_bytes: m.alloc_bytes,
                        dealloc_bytes: m.dealloc_bytes,
                        peak_bytes: m.peak_bytes,
                    })
                    .collect(),
            })
        } else {
            None
        };
        TraceReport {
            memory,
            spans: g
                .spans
                .iter()
                .map(|(path, &(count, total_ns))| SpanRecord {
                    path: path.clone(),
                    count,
                    total_ns,
                })
                .collect(),
            counters: g
                .counters
                .iter()
                .map(|(name, &value)| CounterRecord {
                    name: name.clone(),
                    value,
                })
                .collect(),
            gauges: g
                .gauges
                .iter()
                .map(|(name, &value)| GaugeRecord {
                    name: name.clone(),
                    value,
                })
                .collect(),
            histograms: g
                .histograms
                .iter()
                .map(|(name, h)| HistogramRecord {
                    name: name.clone(),
                    count: h.count,
                    sum: h.sum,
                    buckets: h.buckets.clone(),
                })
                .collect(),
        }
    }
}

/// RAII wall-clock timer returned by [`Recorder::span`].
///
/// The guard records on drop; `start` is only taken when the recorder is
/// enabled, so a disabled span never reads the clock. When the recorder
/// is [memory-tracking](Recorder::memory_tracking), the guard also
/// captures the allocator totals at open and records the window's
/// alloc/dealloc deltas plus the process peak at close (see
/// [`SpanMemRecord`] for the exact semantics).
pub struct Span<'a> {
    rec: &'a Recorder,
    path: Cow<'static, str>,
    start: Option<Instant>,
    mem_start: Option<(u64, u64)>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let mem = self.mem_start.map(|(alloc0, dealloc0)| {
                let s = memtrack::stats();
                (
                    s.alloc_bytes.saturating_sub(alloc0),
                    s.dealloc_bytes.saturating_sub(dealloc0),
                    s.peak_bytes,
                )
            });
            self.rec.record_span(&self.path, ns, mem);
        }
    }
}

/// One aggregated span: all executions of a path, summed.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// `/`-separated span path, e.g. `pipeline/rcm/aat_build`.
    pub path: String,
    /// Number of times the span executed.
    pub count: u64,
    /// Total wall-clock nanoseconds across executions.
    pub total_ns: u64,
}

/// One monotonic counter.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterRecord {
    /// Counter name, e.g. `core.groups_formed`.
    pub name: String,
    /// Final value.
    pub value: u64,
}

/// One gauge (last-write-wins value; may be scheduling-dependent).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GaugeRecord {
    /// Gauge name, e.g. `sparse.aat_partition_imbalance`.
    pub name: String,
    /// Final value.
    pub value: f64,
}

/// One fixed-bucket histogram (see [`bucket_bound`] for the bucket layout).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramRecord {
    /// Histogram name, e.g. `eval.query_ns`.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Per-bucket counts, `buckets[i]` counting values `<= bucket_bound(i)`.
    pub buckets: Vec<u64>,
}

/// Process-lifetime allocator totals at snapshot time (mirrors
/// [`memtrack::MemStats`] in serializable form).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemTotals {
    /// Cumulative bytes allocated since process start.
    pub alloc_bytes: u64,
    /// Cumulative bytes freed since process start.
    pub dealloc_bytes: u64,
    /// Cumulative allocation count.
    pub allocs: u64,
    /// Cumulative deallocation count.
    pub deallocs: u64,
    /// Bytes live at snapshot (`alloc_bytes - dealloc_bytes`).
    pub live_bytes: u64,
    /// High-water mark of live bytes.
    pub peak_bytes: u64,
}

/// Aggregated allocation windows of one span path.
///
/// `alloc_bytes`/`dealloc_bytes` sum the *window deltas* of the monotonic
/// process totals over every execution of the path — so a span's dealloc
/// may legitimately exceed its alloc (it freed buffers built outside its
/// window); the `dealloc <= alloc` invariant belongs to [`MemTotals`]
/// only. `peak_bytes` is the process high-water mark observed at window
/// *close* (max across executions), which is monotone in time: it names
/// the phase during-or-before which the peak occurred, and a child's
/// value can never exceed its parent's.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanMemRecord {
    /// `/`-separated span path, e.g. `pipeline/rcm`.
    pub path: String,
    /// Number of windows aggregated (executions with memory capture on).
    pub count: u64,
    /// Summed per-window allocated-byte deltas.
    pub alloc_bytes: u64,
    /// Summed per-window freed-byte deltas.
    pub dealloc_bytes: u64,
    /// Max process peak observed at window close.
    pub peak_bytes: u64,
}

/// The memory section of a [`TraceReport`]: allocator totals plus
/// per-span attribution. Present only when the emitting process ran the
/// [`TrackingAllocator`] and the recorder opted in via
/// [`Recorder::with_memory`]. All values are scheduling-dependent (a
/// concurrent thread's allocations land in whatever windows are open) —
/// the same caveat as gauges, see `docs/OBSERVABILITY.md`.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryReport {
    /// Process-lifetime allocator totals at snapshot time.
    pub totals: MemTotals,
    /// Per-span windows, sorted by path.
    pub spans: Vec<SpanMemRecord>,
}

/// A serializable snapshot of one traced run. Every section is sorted by
/// name/path; see `docs/OBSERVABILITY.md` for the span taxonomy and the
/// counter glossary.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceReport {
    /// Aggregated spans, sorted by path.
    pub spans: Vec<SpanRecord>,
    /// Monotonic counters, sorted by name. Scheduling-invariant by
    /// contract.
    pub counters: Vec<CounterRecord>,
    /// Gauges, sorted by name. May be scheduling-dependent.
    pub gauges: Vec<GaugeRecord>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramRecord>,
    /// Allocator totals and per-span memory attribution; `None` unless
    /// the run opted in (see [`MemoryReport`]).
    pub memory: Option<MemoryReport>,
}

impl MemoryReport {
    /// The aggregated memory window at span `path`, if recorded.
    #[must_use]
    pub fn span(&self, path: &str) -> Option<&SpanMemRecord> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Direct children of span `path` (one `/` segment deeper).
    #[must_use]
    pub fn span_children(&self, path: &str) -> Vec<&SpanMemRecord> {
        self.spans
            .iter()
            .filter(|s| {
                s.path.len() > path.len()
                    && s.path.starts_with(path)
                    && s.path.as_bytes()[path.len()] == b'/'
                    && !s.path[path.len() + 1..].contains('/')
            })
            .collect()
    }

    /// Internal-consistency findings of the memory section, empty when it
    /// is coherent. Backs the `CAHD-O002` pass of `cahd-check`:
    ///
    /// * totals are monotone-consistent: `dealloc_bytes <= alloc_bytes`,
    ///   `deallocs <= allocs`, `live_bytes == alloc_bytes - dealloc_bytes`
    ///   and `peak_bytes >= live_bytes` at snapshot;
    /// * span paths are strictly sorted, every window executed at least
    ///   once, and no span's alloc/dealloc/peak exceeds the corresponding
    ///   process total;
    /// * child windows are bounded by their parent: direct children are
    ///   disjoint sub-windows, so their summed alloc (and dealloc) deltas
    ///   fit inside the parent's, and each child's close-time peak is at
    ///   most the parent's (the peak reading is monotone in time). As with
    ///   wall-clock nesting, a span whose parent path is absent counts as
    ///   the root of a partial trace.
    #[must_use]
    pub fn consistency_findings(&self) -> Vec<String> {
        let mut out = Vec::new();
        check_sorted_unique(
            self.spans.iter().map(|s| s.path.as_str()),
            "memory spans",
            &mut out,
        );
        let t = &self.totals;
        if t.dealloc_bytes > t.alloc_bytes {
            out.push(format!(
                "memory totals freed {} bytes but only {} were allocated",
                t.dealloc_bytes, t.alloc_bytes
            ));
        } else if t.live_bytes != t.alloc_bytes - t.dealloc_bytes {
            out.push(format!(
                "memory totals live {} bytes, expected alloc - dealloc = {}",
                t.live_bytes,
                t.alloc_bytes - t.dealloc_bytes
            ));
        }
        if t.deallocs > t.allocs {
            out.push(format!(
                "memory totals count {} deallocations but only {} allocations",
                t.deallocs, t.allocs
            ));
        }
        if t.peak_bytes < t.live_bytes {
            out.push(format!(
                "memory totals peak {} bytes is below the live {} bytes",
                t.peak_bytes, t.live_bytes
            ));
        }
        for s in &self.spans {
            if s.count == 0 {
                out.push(format!("memory span `{}` recorded zero windows", s.path));
            }
            if s.alloc_bytes > t.alloc_bytes {
                out.push(format!(
                    "memory span `{}` allocated {} bytes, exceeding the process total {}",
                    s.path, s.alloc_bytes, t.alloc_bytes
                ));
            }
            if s.dealloc_bytes > t.dealloc_bytes {
                out.push(format!(
                    "memory span `{}` freed {} bytes, exceeding the process total {}",
                    s.path, s.dealloc_bytes, t.dealloc_bytes
                ));
            }
            if s.peak_bytes > t.peak_bytes {
                out.push(format!(
                    "memory span `{}` saw peak {} bytes, exceeding the process peak {}",
                    s.path, s.peak_bytes, t.peak_bytes
                ));
            }
            let children = self.span_children(&s.path);
            let child_alloc: u64 = children.iter().map(|c| c.alloc_bytes).sum();
            let child_dealloc: u64 = children.iter().map(|c| c.dealloc_bytes).sum();
            if child_alloc > s.alloc_bytes {
                out.push(format!(
                    "children of memory span `{}` allocated {child_alloc} bytes, exceeding the parent's {}",
                    s.path, s.alloc_bytes
                ));
            }
            if child_dealloc > s.dealloc_bytes {
                out.push(format!(
                    "children of memory span `{}` freed {child_dealloc} bytes, exceeding the parent's {}",
                    s.path, s.dealloc_bytes
                ));
            }
            for c in children {
                if c.peak_bytes > s.peak_bytes {
                    out.push(format!(
                        "memory span `{}` saw peak {} bytes, exceeding its parent `{}`'s {}",
                        c.path, c.peak_bytes, s.path, s.peak_bytes
                    ));
                }
            }
        }
        out
    }
}

impl TraceReport {
    /// The value of counter `name`, if recorded.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The value of counter `name`, or 0 when it was never recorded — the
    /// natural reading for monotonic counters, where "absent" and "never
    /// incremented" coincide.
    #[must_use]
    pub fn counter_or_zero(&self, name: &str) -> u64 {
        self.counter(name).unwrap_or(0)
    }

    /// The gauge `name`, if recorded.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// The aggregated span at `path`, if recorded.
    #[must_use]
    pub fn span(&self, path: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// The histogram `name`, if recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramRecord> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Paths of non-root spans whose parent path was never recorded.
    ///
    /// [`consistency_findings`](TraceReport::consistency_findings) accepts
    /// such spans as roots of a partial trace; callers expecting a *full*
    /// report rooted at known paths (the `CAHD-O001` pass) treat a
    /// non-empty result as a defect.
    #[must_use]
    pub fn orphan_spans(&self) -> Vec<&str> {
        self.spans
            .iter()
            .filter(|s| {
                s.path
                    .rfind('/')
                    .is_some_and(|cut| self.span(&s.path[..cut]).is_none())
            })
            .map(|s| s.path.as_str())
            .collect()
    }

    /// Direct children of span `path` (one `/` segment deeper).
    #[must_use]
    pub fn span_children(&self, path: &str) -> Vec<&SpanRecord> {
        self.spans
            .iter()
            .filter(|s| {
                s.path.len() > path.len()
                    && s.path.starts_with(path)
                    && s.path.as_bytes()[path.len()] == b'/'
                    && !s.path[path.len() + 1..].contains('/')
            })
            .collect()
    }

    /// Generic internal-consistency findings, empty when the report is
    /// coherent. Backs the `CAHD-O001` pass of `cahd-check`:
    ///
    /// * section ordering: every section sorted by name with no duplicates
    ///   (the shape [`Recorder::snapshot`] guarantees);
    /// * span nesting: the direct children of a span account for at most
    ///   its own total time (children time inside their parent; spans are
    ///   recorded on the driving thread only, concurrent work is histogram
    ///   territory). A span whose parent path was never recorded counts as
    ///   a root — partial traces (e.g. a standalone RCM run rooted at
    ///   `pipeline/rcm`) are coherent; use [`TraceReport::orphan_spans`]
    ///   when a report must be rooted at specific paths;
    /// * histograms: bucket counts sum to the recorded `count`, the bucket
    ///   vector has the fixed [`N_BUCKETS`] length, and `sum` is
    ///   consistent with the populated buckets' bounds.
    #[must_use]
    pub fn consistency_findings(&self) -> Vec<String> {
        let mut out = Vec::new();
        check_sorted_unique(
            self.spans.iter().map(|s| s.path.as_str()),
            "spans",
            &mut out,
        );
        check_sorted_unique(
            self.counters.iter().map(|c| c.name.as_str()),
            "counters",
            &mut out,
        );
        check_sorted_unique(
            self.gauges.iter().map(|g| g.name.as_str()),
            "gauges",
            &mut out,
        );
        check_sorted_unique(
            self.histograms.iter().map(|h| h.name.as_str()),
            "histograms",
            &mut out,
        );

        for s in &self.spans {
            let children_ns: u64 = self.span_children(&s.path).iter().map(|c| c.total_ns).sum();
            if children_ns > s.total_ns {
                out.push(format!(
                    "children of span `{}` total {children_ns} ns, exceeding the parent's {} ns",
                    s.path, s.total_ns
                ));
            }
        }

        for h in &self.histograms {
            if h.buckets.len() != N_BUCKETS {
                out.push(format!(
                    "histogram `{}` has {} buckets, expected {N_BUCKETS}",
                    h.name,
                    h.buckets.len()
                ));
                continue;
            }
            let total: u64 = h.buckets.iter().sum();
            if total != h.count {
                out.push(format!(
                    "histogram `{}` buckets sum to {total}, count says {}",
                    h.name, h.count
                ));
            }
            // Upper bound on the sum implied by the populated buckets.
            let max_sum = h.buckets.iter().enumerate().fold(0u64, |acc, (i, &c)| {
                acc.saturating_add(bucket_bound(i).saturating_mul(c))
            });
            if h.sum > max_sum {
                out.push(format!(
                    "histogram `{}` sum {} exceeds the maximum {max_sum} its buckets allow",
                    h.name, h.sum
                ));
            }
        }
        out
    }

    /// Renders a human-readable metrics summary (the CLI `--metrics` view):
    /// a span tree with milliseconds, then counters, gauges and histogram
    /// digests.
    #[must_use]
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str("spans:\n");
            for s in &self.spans {
                let depth = s.path.matches('/').count();
                let name = s.path.rsplit('/').next().unwrap_or(&s.path);
                out.push_str(&format!(
                    "  {:indent$}{name:<24} {:>10.3} ms  x{}\n",
                    "",
                    s.total_ns as f64 / 1e6,
                    s.count,
                    indent = depth * 2,
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for c in &self.counters {
                out.push_str(&format!("  {:<40} {}\n", c.name, c.value));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for g in &self.gauges {
                out.push_str(&format!("  {:<40} {:.3}\n", g.name, g.value));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for h in &self.histograms {
                let mean = if h.count == 0 {
                    0.0
                } else {
                    h.sum as f64 / h.count as f64
                };
                out.push_str(&format!(
                    "  {:<40} count {} mean {mean:.1} p99<={}\n",
                    h.name,
                    h.count,
                    approx_quantile_bound(&h.buckets, h.count, 0.99),
                ));
            }
        }
        if let Some(m) = &self.memory {
            let t = &m.totals;
            out.push_str("memory (tracking allocator; scheduling-dependent):\n");
            out.push_str(&format!(
                "  totals: alloc {} in {} allocs, freed {}, live {}, peak {}\n",
                fmt_bytes(t.alloc_bytes),
                t.allocs,
                fmt_bytes(t.dealloc_bytes),
                fmt_bytes(t.live_bytes),
                fmt_bytes(t.peak_bytes),
            ));
            for s in &m.spans {
                let depth = s.path.matches('/').count();
                let name = s.path.rsplit('/').next().unwrap_or(&s.path);
                let net = i128::from(s.alloc_bytes) - i128::from(s.dealloc_bytes);
                let sign = if net < 0 { "-" } else { "+" };
                out.push_str(&format!(
                    "  {:indent$}{name:<24} alloc {:>10}  net {sign}{:>9}  peak@close {:>10}  x{}\n",
                    "",
                    fmt_bytes(s.alloc_bytes),
                    fmt_bytes(net.unsigned_abs().try_into().unwrap_or(u64::MAX)),
                    fmt_bytes(s.peak_bytes),
                    s.count,
                    indent = depth * 2,
                ));
            }
        }
        out
    }
}

/// Human-readable byte count (`1.5 MiB`-style, exact below 1 KiB).
fn fmt_bytes(b: u64) -> String {
    const KIB: f64 = 1024.0;
    let bf = b as f64;
    if bf >= KIB * KIB * KIB {
        format!("{:.2} GiB", bf / (KIB * KIB * KIB))
    } else if bf >= KIB * KIB {
        format!("{:.2} MiB", bf / (KIB * KIB))
    } else if bf >= KIB {
        format!("{:.1} KiB", bf / KIB)
    } else {
        format!("{b} B")
    }
}

/// Smallest bucket upper bound covering at least `q` of the observations.
fn approx_quantile_bound(buckets: &[u64], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let target = (count as f64 * q).ceil() as u64;
    let mut acc = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        acc += c;
        if acc >= target {
            return bucket_bound(i);
        }
    }
    u64::MAX
}

fn check_sorted_unique<'a>(
    names: impl Iterator<Item = &'a str>,
    section: &str,
    out: &mut Vec<String>,
) {
    let mut prev: Option<&str> = None;
    for n in names {
        if let Some(p) = prev {
            if p >= n {
                out.push(format!(
                    "section `{section}` is not strictly sorted at `{n}` (after `{p}`)"
                ));
            }
        }
        prev = Some(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        {
            let _s = rec.span("pipeline");
            let _c = rec.child_span("pipeline", "group");
            rec.add("c", 5);
            rec.gauge("g", 1.0);
            rec.observe("h", 3);
        }
        let report = rec.snapshot();
        assert_eq!(report, TraceReport::default());
    }

    #[test]
    fn spans_aggregate_by_path() {
        let rec = Recorder::new();
        for _ in 0..3 {
            let _s = rec.span("pipeline");
        }
        let report = rec.snapshot();
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.span("pipeline").unwrap().count, 3);
    }

    #[test]
    fn child_spans_nest_under_their_parent() {
        let rec = Recorder::new();
        {
            let _s = rec.span("check");
            for name in ["coverage", "band-quality", "coverage"] {
                let _c = rec.child_span("check", name);
            }
        }
        let report = rec.snapshot();
        assert_eq!(report.span("check/coverage").unwrap().count, 2);
        assert_eq!(report.span("check/band-quality").unwrap().count, 1);
        assert_eq!(report.span_children("check").len(), 2);
        assert!(report.orphan_spans().is_empty());
        assert!(report.consistency_findings().is_empty());
    }

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let rec = Recorder::new();
        rec.add("b", 2);
        rec.incr("a");
        rec.add("b", 3);
        let report = rec.snapshot();
        assert_eq!(report.counter("a"), Some(1));
        assert_eq!(report.counter("b"), Some(5));
        assert_eq!(report.counters[0].name, "a");
        assert!(report.consistency_findings().is_empty());
    }

    #[test]
    fn histogram_buckets_and_merge() {
        let mut h = Histogram::new();
        h.observe(0);
        h.observe(1);
        h.observe(2);
        h.observe(1_000_000);
        assert_eq!(h.count, 4);
        assert_eq!(h.buckets[0], 2); // 0 and 1 both <= 2^0
        assert_eq!(h.buckets[1], 1);
        let mut h2 = Histogram::new();
        h2.observe(u64::MAX);
        h.merge(&h2);
        assert_eq!(h.count, 5);
        assert_eq!(h.buckets[N_BUCKETS - 1], 1);
        // Sum saturates instead of wrapping when observations overflow u64.
        assert_eq!(h.sum, u64::MAX);
    }

    #[test]
    fn bucket_bounds_cover_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(u64::MAX), N_BUCKETS - 1);
        assert_eq!(bucket_bound(N_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn local_histogram_merges_into_recorder() {
        let rec = Recorder::new();
        let mut local = Histogram::new();
        local.observe(4);
        local.observe(5);
        rec.record_histogram("sizes", &local);
        rec.observe("sizes", 6);
        let report = rec.snapshot();
        let h = report.histogram("sizes").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 15);
        assert!(report.consistency_findings().is_empty());
    }

    #[test]
    fn nesting_findings_flag_orphans_and_overflow() {
        let rec = Recorder::new();
        rec.record_span_ns("pipeline", 100);
        rec.record_span_ns("pipeline/rcm", 60);
        rec.record_span_ns("pipeline/group", 30);
        assert!(rec.snapshot().consistency_findings().is_empty());

        // An orphan child is coherent (a partial-trace root) but listed.
        rec.record_span_ns("other/child", 10);
        let report = rec.snapshot();
        assert!(report.consistency_findings().is_empty());
        assert_eq!(report.orphan_spans(), vec!["other/child"]);

        // Children exceeding the parent.
        let rec2 = Recorder::new();
        rec2.record_span_ns("p", 10);
        rec2.record_span_ns("p/a", 8);
        rec2.record_span_ns("p/b", 8);
        let findings = rec2.snapshot().consistency_findings();
        assert!(
            findings.iter().any(|f| f.contains("exceeding the parent")),
            "{findings:?}"
        );
    }

    #[test]
    fn tampered_histogram_is_flagged() {
        let rec = Recorder::new();
        rec.observe("h", 5);
        let mut report = rec.snapshot();
        report.histograms[0].count = 7;
        let findings = report.consistency_findings();
        assert!(
            findings.iter().any(|f| f.contains("buckets sum")),
            "{findings:?}"
        );
        let mut report2 = rec.snapshot();
        report2.histograms[0].sum = u64::MAX;
        let findings2 = report2.consistency_findings();
        assert!(
            findings2.iter().any(|f| f.contains("exceeds the maximum")),
            "{findings2:?}"
        );
    }

    #[test]
    fn counter_or_zero_defaults_missing_counters() {
        let rec = Recorder::new();
        rec.add("present", 3);
        let report = rec.snapshot();
        assert_eq!(report.counter_or_zero("present"), 3);
        assert_eq!(report.counter_or_zero("absent"), 0);
        assert_eq!(Recorder::disabled().snapshot().counter_or_zero("x"), 0);
    }

    #[test]
    fn memory_capture_is_inert_without_the_allocator() {
        // The lib test binary does not register `TrackingAllocator`, so
        // even an opted-in recorder must emit no memory section and its
        // report must be byte-identical to a plain recorder's.
        assert!(!memtrack::is_active());
        let rec = Recorder::new().with_memory();
        assert!(!rec.memory_tracking());
        {
            let _s = rec.span("pipeline");
            rec.add("c", 1);
        }
        rec.record_memory_gauges();
        let report = rec.snapshot();
        assert!(report.memory.is_none());
        let plain = Recorder::new();
        {
            let _s = plain.span("pipeline");
            plain.add("c", 1);
        }
        let plain_report = plain.snapshot();
        assert!(plain_report.memory.is_none());
        // Identical shape (wall-clock aside): same spans, no gauges.
        assert_eq!(report.spans.len(), plain_report.spans.len());
        assert_eq!(report.spans[0].path, plain_report.spans[0].path);
        assert_eq!(report.gauges, plain_report.gauges);
        assert!(report.gauges.is_empty());
    }

    /// A small coherent memory section: a parent window with two children
    /// plus unattributed slack at every level.
    fn sample_memory() -> MemoryReport {
        MemoryReport {
            totals: MemTotals {
                alloc_bytes: 10_000,
                dealloc_bytes: 9_000,
                allocs: 120,
                deallocs: 110,
                live_bytes: 1_000,
                peak_bytes: 6_000,
            },
            spans: vec![
                SpanMemRecord {
                    path: "pipeline".into(),
                    count: 1,
                    alloc_bytes: 8_000,
                    dealloc_bytes: 7_500,
                    peak_bytes: 5_500,
                },
                SpanMemRecord {
                    path: "pipeline/group".into(),
                    count: 2,
                    alloc_bytes: 3_000,
                    dealloc_bytes: 2_800,
                    peak_bytes: 5_500,
                },
                SpanMemRecord {
                    path: "pipeline/rcm".into(),
                    count: 1,
                    alloc_bytes: 4_000,
                    dealloc_bytes: 4_200,
                    peak_bytes: 4_800,
                },
            ],
        }
    }

    #[test]
    fn memory_findings_accept_coherent_sections() {
        let mem = sample_memory();
        assert!(mem.consistency_findings().is_empty());
        // Per-span dealloc may exceed its alloc (pipeline/rcm frees
        // buffers built outside its window) — that is *not* a finding.
        assert!(mem.span("pipeline/rcm").unwrap().dealloc_bytes > 4_000);
        assert_eq!(mem.span_children("pipeline").len(), 2);
    }

    type Tamper = Box<dyn Fn(&mut MemoryReport)>;

    #[test]
    fn memory_findings_flag_tampering() {
        let tamper: [(&str, Tamper); 6] = [
            ("freed", Box::new(|m| m.totals.dealloc_bytes = 20_000)),
            ("live", Box::new(|m| m.totals.live_bytes = 42)),
            ("peak", Box::new(|m| m.totals.peak_bytes = 500)),
            (
                "exceeding the process total",
                Box::new(|m| m.spans[1].alloc_bytes = 50_000),
            ),
            (
                "children of memory span",
                Box::new(|m| m.spans[0].alloc_bytes = 6_000),
            ),
            (
                "exceeding its parent",
                Box::new(|m| m.spans[2].peak_bytes = 5_600),
            ),
        ];
        for (needle, mutate) in tamper {
            let mut mem = sample_memory();
            mutate(&mut mem);
            let findings = mem.consistency_findings();
            assert!(
                findings.iter().any(|f| f.contains(needle)),
                "tamper `{needle}` not flagged: {findings:?}"
            );
        }
    }

    #[test]
    fn memory_section_roundtrips_through_serde_shim() {
        let report = TraceReport {
            spans: vec![SpanRecord {
                path: "pipeline".into(),
                count: 1,
                total_ns: 10,
            }],
            memory: Some(sample_memory()),
            ..TraceReport::default()
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: TraceReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn render_human_shows_memory_section() {
        let report = TraceReport {
            memory: Some(sample_memory()),
            ..TraceReport::default()
        };
        let text = report.render_human();
        assert!(text.contains("memory (tracking allocator"), "{text}");
        assert!(text.contains("peak@close"), "{text}");
        assert!(text.contains("rcm"), "{text}");
        // Reports without the section render no memory block.
        assert!(!TraceReport::default().render_human().contains("memory"));
    }

    #[test]
    fn report_roundtrips_through_serde_shim() {
        let rec = Recorder::new();
        rec.record_span_ns("pipeline", 42);
        rec.add("core.groups_formed", 7);
        rec.gauge("core.shards", 4.0);
        rec.observe("eval.query_ns", 1234);
        let report = rec.snapshot();
        let json = serde_json::to_string(&report).unwrap();
        let back: TraceReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn render_human_shows_all_sections() {
        let rec = Recorder::new();
        rec.record_span_ns("pipeline", 2_000_000);
        rec.record_span_ns("pipeline/rcm", 1_000_000);
        rec.add("core.groups_formed", 7);
        rec.gauge("core.shards", 4.0);
        rec.observe("eval.query_ns", 100);
        let text = rec.snapshot().render_human();
        assert!(text.contains("spans:"), "{text}");
        assert!(text.contains("core.groups_formed"), "{text}");
        assert!(text.contains("core.shards"), "{text}");
        assert!(text.contains("eval.query_ns"), "{text}");
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let rec = Recorder::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let rec = &rec;
                scope.spawn(move || {
                    for _ in 0..100 {
                        rec.incr("events");
                    }
                });
            }
        });
        assert_eq!(rec.snapshot().counter("events"), Some(400));
    }
}
