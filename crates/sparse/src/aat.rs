//! The row-similarity graph: the pattern of `A x A^T`.
//!
//! Two transactions (rows of the binary matrix `A`) are adjacent iff they
//! share at least one item. The paper (Fig. 5) reduces the bandwidth of the
//! unsymmetric `A` by running RCM on this symmetric pattern.
//!
//! Frequent items are a hazard: an item contained in `k` transactions
//! induces a `k`-clique, i.e. `k(k-1)` directed edges. Real basket data has
//! items with thousands of occurrences, so materializing the explicit edge
//! set can explode. The crate therefore carries two representations behind
//! one oracle interface:
//!
//! * [`Graph`] — the materialized adjacency, built by
//!   [`RowGraph::build_explicit_threaded`];
//! * [`ImplicitRowGraph`] — an inverted index (`A` plus its transpose)
//!   from which the neighbor list of a vertex is computed on demand with
//!   caller-owned stamped scratch. Nothing quadratic is ever stored, the
//!   matrix is *borrowed* (not cloned), and the type is `Sync`, so the
//!   frontier-parallel ordering engine drives it with one scratch per
//!   worker. Its segment-deduplicated traversal path
//!   ([`ParNeighborOracle::visit_neighbors`]) walks each item's posting
//!   clique at most once per declared segment, so a whole frontier
//!   expansion costs O(nnz) enumeration — the `k^2` cliques never
//!   materialize in time either; only the one-shot exact degree pass
//!   pays `sum(support^2)`.
//!
//! [`RowGraphMode`] selects between them (`auto` estimates the directed
//! edge count first and materializes only small graphs); an optional
//! *hub cap* makes the implicit form skip items whose support exceeds the
//! cap, trading a bounded amount of band quality for bounding the degree
//! pass and thinning hub-dominated neighborhoods.

use crate::csr::CsrMatrix;
use crate::graph::Graph;

/// Per-worker scratch for [`ParNeighborOracle::neighbors_scratch`] and
/// [`ParNeighborOracle::visit_neighbors`]: stamped visit marks that never
/// need clearing between queries, plus stamped *item* marks for the
/// segment-deduplicated traversal path.
///
/// Obtained from [`ParNeighborOracle::new_scratch`] — the oracle sizes the
/// mark arrays for its vertex and generator counts (an explicit graph
/// needs neither and returns an empty scratch). One scratch must never be
/// shared between concurrent workers; the ordering engine allocates one
/// per worker, once per ordering, and reuses them across every frontier.
#[derive(Default)]
pub struct OracleScratch {
    mark: Vec<u32>,
    stamp: u32,
    item_mark: Vec<u32>,
    item_stamp: u32,
}

impl OracleScratch {
    /// A scratch with `n` mark slots.
    pub fn with_marks(n: usize) -> Self {
        Self::with_marks_and_items(n, 0)
    }

    /// A scratch with `n` vertex mark slots and `m` item mark slots.
    pub fn with_marks_and_items(n: usize, m: usize) -> Self {
        OracleScratch {
            mark: vec![0; n],
            stamp: 0,
            item_mark: vec![0; m],
            // Starts one ahead of the zeroed marks so the scratch is in an
            // open segment even before the first `begin_segment`.
            item_stamp: 1,
        }
    }

    /// Bumps and returns the stamp, resetting the marks on wrap-around so
    /// stale stamps cannot collide.
    fn next_stamp(&mut self) -> u32 {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.mark.iter_mut().for_each(|m| *m = 0);
            self.stamp = 1;
        }
        self.stamp
    }

    /// Opens a new traversal segment: bumps the item stamp, resetting the
    /// item marks on wrap-around.
    fn next_item_stamp(&mut self) {
        self.item_stamp = self.item_stamp.wrapping_add(1);
        if self.item_stamp == 0 {
            self.item_mark.iter_mut().for_each(|m| *m = 0);
            self.item_stamp = 1;
        }
    }
}

/// Shareable vertex-neighborhood access for the frontier-parallel ordering
/// engine: the oracle is `Sync` and all mutable working state lives in a
/// caller-owned [`OracleScratch`], so any number of workers can query one
/// oracle concurrently, each through its own scratch.
///
/// `degree` must be O(1) and exact (the Cuthill-McKee `(degree, id)` rule
/// reads it per discovered vertex): implementations with non-trivial
/// neighborhoods precompute degrees once at construction.
pub trait ParNeighborOracle: Sync {
    /// Number of vertices.
    fn n_vertices(&self) -> usize;

    /// Number of distinct neighbors of `v` (constant time).
    fn degree(&self, v: usize) -> usize;

    /// A scratch sized for this oracle, for one worker.
    fn new_scratch(&self) -> OracleScratch;

    /// Appends the distinct neighbors of `v` (excluding `v` itself) to
    /// `out`. The sequence is deterministic per vertex — identical every
    /// call — but its *order* is representation-defined; callers must not
    /// let it leak into outputs (the ordering engine canonicalizes every
    /// within-parent batch by a set-determined sort).
    fn neighbors_scratch(&self, v: usize, scratch: &mut OracleScratch, out: &mut Vec<u32>);

    /// Opens a new *traversal segment* on `scratch` (see
    /// [`ParNeighborOracle::visit_neighbors`]). No-op for representations
    /// that keep no segment state.
    fn begin_segment(&self, scratch: &mut OracleScratch) {
        let _ = scratch;
    }

    /// Calls `f(w)` for a superset of the neighbors of `v` that a
    /// traversal could still discover in the current segment. `v` itself
    /// and duplicates may be passed; `f` must tolerate both (the ordering
    /// engine's visited marks filter them anyway).
    ///
    /// The segment contract: within one segment, an implementation may
    /// permanently skip any shared-neighborhood generator (an item's
    /// posting clique) once one vertex has enumerated it — sound for
    /// frontier expansion because every row of that clique was reachable
    /// from the *first* enumerating parent, so later parents can only
    /// re-find them. Callers therefore start a new segment via
    /// [`ParNeighborOracle::begin_segment`] whenever vertices enumerated
    /// earlier must become discoverable again (each BFS level, and each
    /// bid/claim phase of the parallel protocol).
    fn visit_neighbors(&self, v: usize, scratch: &mut OracleScratch, f: &mut dyn FnMut(u32)) {
        let mut tmp = Vec::new();
        self.neighbors_scratch(v, scratch, &mut tmp);
        for w in tmp {
            f(w);
        }
    }
}

impl ParNeighborOracle for Graph {
    fn n_vertices(&self) -> usize {
        Graph::n_vertices(self)
    }

    fn degree(&self, v: usize) -> usize {
        Graph::degree(self, v)
    }

    fn new_scratch(&self) -> OracleScratch {
        // Materialized neighbor lists are already distinct: no marks.
        OracleScratch::default()
    }

    fn neighbors_scratch(&self, v: usize, _scratch: &mut OracleScratch, out: &mut Vec<u32>) {
        out.extend_from_slice(self.neighbors(v));
    }

    fn visit_neighbors(&self, v: usize, _scratch: &mut OracleScratch, f: &mut dyn FnMut(u32)) {
        // Materialized lists are already distinct and self-free: feed them
        // straight through, no segment state.
        for &w in self.neighbors(v) {
            f(w);
        }
    }
}

/// Implicit `A x A^T` pattern: neighbor lists are computed on demand from
/// a *borrowed* matrix and its transpose (the inverted index). The only
/// owned storage is the transpose, the precomputed exact degree per
/// vertex, and the optional hub cap — all `Sync`, so the graph is shared
/// as-is across frontier workers.
///
/// With a hub cap set, items whose support exceeds the cap are skipped
/// during neighbor enumeration *and* excluded from the precomputed
/// degrees, so the `(degree, id)` tie-breaking always agrees with the
/// capped neighborhoods.
pub struct ImplicitRowGraph<'a> {
    rows: &'a CsrMatrix,
    cols: CsrMatrix,
    degrees: Vec<u32>,
    hub_cap: Option<u32>,
}

impl<'a> ImplicitRowGraph<'a> {
    /// Builds the implicit graph for the rows of `a` (no hub cap, one
    /// degree-pass worker).
    pub fn new(a: &'a CsrMatrix) -> Self {
        Self::with_options(a, None, 1)
    }

    /// Builds the implicit graph with an optional hub cap, computing the
    /// exact bulk degree pass with up to `threads` workers. Degrees are a
    /// pure function of the matrix and the cap — identical at every
    /// thread count.
    pub fn with_options(a: &'a CsrMatrix, hub_cap: Option<u32>, threads: usize) -> Self {
        let cols = a.transpose();
        let degrees = bulk_degrees(a, &cols, hub_cap, threads);
        ImplicitRowGraph {
            rows: a,
            cols,
            degrees,
            hub_cap,
        }
    }

    /// The hub cap this graph enumerates under, if any.
    pub fn hub_cap(&self) -> Option<u32> {
        self.hub_cap
    }

    fn collect_neighbors(&self, v: usize, s: &mut OracleScratch, out: &mut Vec<u32>) {
        debug_assert_eq!(
            s.mark.len(),
            self.rows.n_rows(),
            "scratch sized for another oracle"
        );
        let stamp = s.next_stamp();
        s.mark[v] = stamp; // exclude self
        for &item in self.rows.row(v) {
            let list = self.cols.row(item as usize);
            if hub_skipped(list.len(), self.hub_cap) {
                continue;
            }
            for &r in list {
                if s.mark[r as usize] != stamp {
                    s.mark[r as usize] = stamp;
                    out.push(r);
                }
            }
        }
    }
}

impl ParNeighborOracle for ImplicitRowGraph<'_> {
    fn n_vertices(&self) -> usize {
        self.rows.n_rows()
    }

    fn degree(&self, v: usize) -> usize {
        self.degrees[v] as usize
    }

    fn new_scratch(&self) -> OracleScratch {
        OracleScratch::with_marks_and_items(self.rows.n_rows(), self.cols.n_rows())
    }

    fn neighbors_scratch(&self, v: usize, scratch: &mut OracleScratch, out: &mut Vec<u32>) {
        self.collect_neighbors(v, scratch, out);
    }

    fn begin_segment(&self, scratch: &mut OracleScratch) {
        scratch.next_item_stamp();
    }

    fn visit_neighbors(&self, v: usize, s: &mut OracleScratch, f: &mut dyn FnMut(u32)) {
        // Each item's posting list is walked at most once per segment:
        // the first enumerating vertex reaches the whole clique, so later
        // vertices sharing the item could only re-find visited rows. This
        // is what makes a whole frontier expansion cost O(nnz) instead of
        // sum(support^2) — the k^2 clique blow-up never materializes in
        // time, just as it never materializes in memory.
        debug_assert_eq!(
            s.item_mark.len(),
            self.cols.n_rows(),
            "scratch sized for another oracle"
        );
        let stamp = s.item_stamp;
        for &item in self.rows.row(v) {
            let j = item as usize;
            if s.item_mark[j] == stamp {
                continue;
            }
            s.item_mark[j] = stamp;
            let list = self.cols.row(j);
            if hub_skipped(list.len(), self.hub_cap) {
                continue;
            }
            for &r in list {
                f(r);
            }
        }
    }
}

/// Whether an item posting list of length `support` is skipped under the
/// hub cap.
#[inline]
fn hub_skipped(support: usize, hub_cap: Option<u32>) -> bool {
    match hub_cap {
        Some(cap) => support > cap as usize,
        None => false,
    }
}

/// Exact distinct-neighbor degrees under the hub cap, one contiguous row
/// chunk per worker. Each worker owns its own mark array, so the counts
/// are exact and the output is byte-identical at every thread count.
fn bulk_degrees(
    rows: &CsrMatrix,
    cols: &CsrMatrix,
    hub_cap: Option<u32>,
    threads: usize,
) -> Vec<u32> {
    let n = rows.n_rows();
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        return degree_chunk(rows, cols, hub_cap, 0, n);
    }
    let chunk = n.div_ceil(threads).max(1);
    let parts: Vec<Vec<u32>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n.div_ceil(chunk))
            .map(|wi| {
                let lo = wi * chunk;
                let hi = (lo + chunk).min(n);
                scope.spawn(move || degree_chunk(rows, cols, hub_cap, lo, hi))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    // cahd-lint: allow(L003, reason = "worker panics only propagate caller bugs; degree_chunk itself cannot panic on in-range rows")
                    .expect("bulk degree worker panicked")
            })
            .collect()
    });
    let mut out = Vec::with_capacity(n);
    for p in parts {
        out.extend_from_slice(&p);
    }
    out
}

/// Degrees of rows `lo..hi`: stamped dedup over the posting lists.
fn degree_chunk(
    rows: &CsrMatrix,
    cols: &CsrMatrix,
    hub_cap: Option<u32>,
    lo: usize,
    hi: usize,
) -> Vec<u32> {
    let n = rows.n_rows();
    let mut mark = vec![0u32; n];
    let mut stamp = 0u32;
    let mut out = Vec::with_capacity(hi - lo);
    for v in lo..hi {
        stamp += 1;
        mark[v] = stamp;
        let mut d = 0u32;
        for &item in rows.row(v) {
            let list = cols.row(item as usize);
            if hub_skipped(list.len(), hub_cap) {
                continue;
            }
            for &r in list {
                if mark[r as usize] != stamp {
                    mark[r as usize] = stamp;
                    d += 1;
                }
            }
        }
        out.push(d);
    }
    out
}

/// Representation-selection policy for [`RowGraph::build_mode_traced`].
/// Mirrors the `KernelMode` pattern: parseable from `--rowgraph` and the
/// `CAHD_ROWGRAPH` environment variable, resolved once per run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RowGraphMode {
    /// Materialize only when the estimated directed-edge count fits the
    /// edge budget (and no hub cap is requested — the cap applies to the
    /// implicit enumeration, so it forces the implicit form). The
    /// default.
    #[default]
    Auto,
    /// Always materialize the adjacency.
    Explicit,
    /// Always use the inverted-index form.
    Implicit,
}

impl RowGraphMode {
    /// Every mode, for sweeps and test matrices.
    pub const ALL: [RowGraphMode; 3] = [
        RowGraphMode::Auto,
        RowGraphMode::Explicit,
        RowGraphMode::Implicit,
    ];

    /// Parses a mode name as used by `--rowgraph` and `CAHD_ROWGRAPH`:
    /// `auto`, `explicit` or `implicit`.
    pub fn parse(s: &str) -> Option<RowGraphMode> {
        match s {
            "auto" => Some(RowGraphMode::Auto),
            "explicit" => Some(RowGraphMode::Explicit),
            "implicit" => Some(RowGraphMode::Implicit),
            _ => None,
        }
    }

    /// The mode named by the `CAHD_ROWGRAPH` environment variable, if set
    /// to a recognized value.
    pub fn from_env() -> Option<RowGraphMode> {
        std::env::var("CAHD_ROWGRAPH")
            .ok()
            .and_then(|v| RowGraphMode::parse(v.trim()))
    }

    /// Resolves the effective mode: a recognized `CAHD_ROWGRAPH` value
    /// overrides the configured one. Entry points resolve once per run;
    /// unrecognized values are ignored.
    pub fn resolved(self) -> RowGraphMode {
        RowGraphMode::from_env().unwrap_or(self)
    }

    /// The canonical name ([`RowGraphMode::parse`] accepts it back).
    pub fn name(self) -> &'static str {
        match self {
            RowGraphMode::Auto => "auto",
            RowGraphMode::Explicit => "explicit",
            RowGraphMode::Implicit => "implicit",
        }
    }
}

/// Resolves the effective hub cap: a `CAHD_HUB_CAP` value overrides the
/// configured one when set — a positive integer enables the cap, `off`,
/// `none` or `0` disables it; unset or unrecognized keeps `cfg`.
pub fn resolve_hub_cap(cfg: Option<u32>) -> Option<u32> {
    match std::env::var("CAHD_HUB_CAP") {
        Ok(v) => match v.trim() {
            "off" | "none" | "0" => None,
            t => t.parse::<u32>().ok().filter(|&c| c > 0).or(cfg),
        },
        Err(_) => cfg,
    }
}

/// The row-similarity graph of a binary matrix, explicit or implicit. The
/// lifetime ties the implicit form to the borrowed matrix; the explicit
/// form owns its adjacency.
pub enum RowGraph<'a> {
    /// Materialized adjacency.
    Explicit(Graph),
    /// Inverted-index backed adjacency.
    Implicit(ImplicitRowGraph<'a>),
}

impl<'a> RowGraph<'a> {
    /// Default edge budget for the `auto` policy: beyond this many
    /// (estimated, directed) edges the implicit representation is used.
    ///
    /// The implicit backend is parallel and stores nothing quadratic, so
    /// materializing only pays off when the adjacency is small enough to
    /// be effectively free — a few MB, not the hundreds of MB real basket
    /// data can reach.
    pub const DEFAULT_EDGE_BUDGET: usize = 2_000_000;

    /// Upper bound on the number of directed edges of the `A x A^T`
    /// pattern: every column containing `k` rows contributes at most
    /// `k (k - 1)` ordered pairs.
    pub fn estimate_directed_edges(a: &CsrMatrix) -> usize {
        a.col_counts()
            .iter()
            .map(|&k| k.saturating_mul(k.saturating_sub(1)))
            .fold(0usize, usize::saturating_add)
    }

    /// Builds the row graph, choosing the explicit form when the estimated
    /// edge count fits in `edge_budget` and the implicit form otherwise.
    pub fn build(a: &'a CsrMatrix, edge_budget: usize) -> Self {
        Self::build_with_threads(a, edge_budget, 1)
    }

    /// Like [`RowGraph::build`], with `threads` workers for whichever
    /// representation is chosen (the explicit chunked build, or the
    /// implicit bulk degree pass).
    pub fn build_with_threads(a: &'a CsrMatrix, edge_budget: usize, threads: usize) -> Self {
        Self::build_traced(a, edge_budget, threads, &cahd_obs::Recorder::disabled())
    }

    /// [`RowGraph::build_with_threads`] with metric recording; the `auto`
    /// policy with no hub cap. See [`RowGraph::build_mode_traced`].
    pub fn build_traced(
        a: &'a CsrMatrix,
        edge_budget: usize,
        threads: usize,
        rec: &cahd_obs::Recorder,
    ) -> Self {
        Self::build_mode_traced(a, RowGraphMode::Auto, edge_budget, None, threads, rec)
    }

    /// Builds the row graph under an explicit representation policy,
    /// recording `sparse.*` build metrics into `rec`:
    ///
    /// * counters `sparse.aat_rows`, `sparse.aat_nnz`,
    ///   `sparse.aat_edges_estimate`, and (explicit form only)
    ///   `sparse.aat_edges` — all scheduling-invariant;
    /// * counters `sparse.implicit_builds`, `sparse.implicit_postings`,
    ///   `sparse.implicit_capped_postings`, `sparse.implicit_hub_items`
    ///   (implicit form only) — pure functions of the matrix and the hub
    ///   cap, with `implicit_postings + implicit_capped_postings` equal to
    ///   this build's `sparse.aat_nnz` contribution;
    /// * gauge `sparse.aat_partition_imbalance` — for the threaded
    ///   explicit build, the heaviest worker chunk's directed-edge count
    ///   over the mean chunk's (1.0 = perfectly balanced), derived from
    ///   the assembled chunk sizes at O(threads) cost; depends on the
    ///   thread count, hence a gauge.
    ///
    /// `hub_cap` only affects the implicit form; under
    /// [`RowGraphMode::Auto`] a set cap therefore forces the implicit
    /// representation so the cap is never silently ignored.
    pub fn build_mode_traced(
        a: &'a CsrMatrix,
        mode: RowGraphMode,
        edge_budget: usize,
        hub_cap: Option<u32>,
        threads: usize,
        rec: &cahd_obs::Recorder,
    ) -> Self {
        let n = a.n_rows();
        let estimate = Self::estimate_directed_edges(a);
        rec.add("sparse.aat_rows", n as u64);
        rec.add("sparse.aat_nnz", a.nnz() as u64);
        rec.add("sparse.aat_edges_estimate", estimate as u64);
        let explicit = match mode {
            RowGraphMode::Explicit => true,
            RowGraphMode::Implicit => false,
            RowGraphMode::Auto => hub_cap.is_none() && estimate <= edge_budget,
        };
        if !explicit {
            if rec.is_enabled() {
                let mut active = 0u64;
                let mut capped = 0u64;
                let mut hubs = 0u64;
                for k in a.col_counts() {
                    if hub_skipped(k, hub_cap) {
                        capped += k as u64;
                        hubs += 1;
                    } else {
                        active += k as u64;
                    }
                }
                rec.add("sparse.implicit_builds", 1);
                rec.add("sparse.implicit_postings", active);
                rec.add("sparse.implicit_capped_postings", capped);
                rec.add("sparse.implicit_hub_items", hubs);
            }
            return RowGraph::Implicit(ImplicitRowGraph::with_options(a, hub_cap, threads));
        }
        let chunks = explicit_chunks(a, threads);
        if rec.is_enabled() {
            // Chunk loads fall out of the assembled chunk sizes — the
            // directed-edge count per worker — at O(threads) cost, no
            // per-vertex degree sweep.
            let loads: Vec<u64> = chunks.iter().map(|c| c.indices.len() as u64).collect();
            rec.add("sparse.aat_edges", loads.iter().sum::<u64>());
            if loads.len() > 1 {
                let max = loads.iter().copied().max().unwrap_or(0);
                let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
                let imbalance = if mean > 0.0 { max as f64 / mean } else { 1.0 };
                rec.gauge("sparse.aat_partition_imbalance", imbalance);
            }
        }
        RowGraph::Explicit(assemble_chunks(n, &chunks))
    }

    /// Always materializes the adjacency.
    pub fn build_explicit(a: &CsrMatrix) -> Graph {
        Self::build_explicit_threaded(a, 1)
    }

    /// Materializes the adjacency with `threads` workers, each owning a
    /// contiguous row range (and its own scratch, so workers share nothing
    /// mutable). The output is identical for every thread count: each
    /// neighbor list depends only on its own row and the transpose.
    ///
    /// Each worker emits its chunk directly as flat CSR pieces with every
    /// neighbor list already sorted — short rows by a k-way merge of the
    /// (ascending) transpose lists, long rows by a stamped gather plus one
    /// per-row sort — so assembly is a concatenation, not a re-sort of the
    /// full edge set.
    pub fn build_explicit_threaded(a: &CsrMatrix, threads: usize) -> Graph {
        assemble_chunks(a.n_rows(), &explicit_chunks(a, threads))
    }

    /// Always uses the implicit form.
    pub fn build_implicit(a: &'a CsrMatrix) -> ImplicitRowGraph<'a> {
        ImplicitRowGraph::new(a)
    }

    /// Whether the explicit representation was chosen.
    pub fn is_explicit(&self) -> bool {
        matches!(self, RowGraph::Explicit(_))
    }
}

impl ParNeighborOracle for RowGraph<'_> {
    fn n_vertices(&self) -> usize {
        match self {
            RowGraph::Explicit(g) => g.n_vertices(),
            RowGraph::Implicit(g) => g.n_vertices(),
        }
    }

    fn degree(&self, v: usize) -> usize {
        match self {
            RowGraph::Explicit(g) => Graph::degree(g, v),
            RowGraph::Implicit(g) => ParNeighborOracle::degree(g, v),
        }
    }

    fn new_scratch(&self) -> OracleScratch {
        match self {
            RowGraph::Explicit(g) => ParNeighborOracle::new_scratch(g),
            RowGraph::Implicit(g) => g.new_scratch(),
        }
    }

    fn neighbors_scratch(&self, v: usize, scratch: &mut OracleScratch, out: &mut Vec<u32>) {
        match self {
            RowGraph::Explicit(g) => out.extend_from_slice(g.neighbors(v)),
            RowGraph::Implicit(g) => g.neighbors_scratch(v, scratch, out),
        }
    }

    fn begin_segment(&self, scratch: &mut OracleScratch) {
        match self {
            RowGraph::Explicit(g) => ParNeighborOracle::begin_segment(g, scratch),
            RowGraph::Implicit(g) => ParNeighborOracle::begin_segment(g, scratch),
        }
    }

    fn visit_neighbors(&self, v: usize, scratch: &mut OracleScratch, f: &mut dyn FnMut(u32)) {
        match self {
            RowGraph::Explicit(g) => ParNeighborOracle::visit_neighbors(g, v, scratch, f),
            RowGraph::Implicit(g) => g.visit_neighbors(v, scratch, f),
        }
    }
}

/// One worker's contiguous slice of the adjacency, as relative CSR parts
/// (`indptr[0] == 0`; every row strictly ascending).
struct ChunkAdjacency {
    indptr: Vec<usize>,
    indices: Vec<u32>,
}

/// Runs the chunked explicit build: `threads` workers over contiguous row
/// ranges of `ceil(n / threads)` rows each.
fn explicit_chunks(a: &CsrMatrix, threads: usize) -> Vec<ChunkAdjacency> {
    let n = a.n_rows();
    let cols = a.transpose();
    let threads = threads.max(1).min(n.max(1));
    let chunk = n.div_ceil(threads.max(1)).max(1);
    if threads <= 1 {
        return vec![fill_chunk(a, &cols, 0, n)];
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n.div_ceil(chunk))
            .map(|wi| {
                let cols = &cols;
                let lo = wi * chunk;
                let hi = (lo + chunk).min(n);
                scope.spawn(move || fill_chunk(a, cols, lo, hi))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    // cahd-lint: allow(L003, reason = "worker panics only propagate caller bugs; fill_chunk itself cannot panic on in-range rows")
                    .expect("A x A^T build worker panicked")
            })
            .collect()
    })
}

/// Concatenates worker chunks into the final adjacency.
fn assemble_chunks(n: usize, chunks: &[ChunkAdjacency]) -> Graph {
    let nnz: usize = chunks.iter().map(|c| c.indices.len()).sum();
    let mut indptr: Vec<usize> = Vec::with_capacity(n + 1);
    indptr.push(0);
    let mut indices: Vec<u32> = Vec::with_capacity(nnz);
    for c in chunks {
        let base = indices.len();
        indptr.extend(c.indptr.iter().skip(1).map(|&rel| base + rel));
        indices.extend_from_slice(&c.indices);
    }
    Graph::from_adjacency_unchecked(CsrMatrix::from_raw_parts(n, n, indptr, indices))
}

/// Reservation ceiling for one chunk's `indices` vector (entries, i.e.
/// 4 MiB): beyond it the vector grows geometrically instead of pre-paying
/// a duplicate-inflated worst case up front.
const MAX_CHUNK_RESERVE: usize = 1 << 20;

/// Builds the sorted distinct neighbor lists of rows `lo..hi` (each
/// excluding the row itself) as one flat chunk. The transpose rows are
/// ascending, so one- and two-item rows emit pre-sorted lists by a plain
/// merge; wider rows use a stamped gather plus one per-row sort.
fn fill_chunk(a: &CsrMatrix, cols: &CsrMatrix, lo: usize, hi: usize) -> ChunkAdjacency {
    let mut indptr: Vec<usize> = Vec::with_capacity(hi - lo + 1);
    indptr.push(0);
    // Reserve for a clamped per-row estimate: the distinct neighbors of a
    // row are bounded by its raw traversal count *and* by `n - 1`. The raw
    // count alone over-allocates by the duplicate factor on clique-heavy
    // data (frequent items revisit the same rows), so the row bound plus
    // the global ceiling keeps the reservation near the real output size.
    let row_bound = a.n_rows().saturating_sub(1);
    let mut reserve = 0usize;
    for v in lo..hi {
        let raw_v: usize = a.row(v).iter().map(|&i| cols.row(i as usize).len()).sum();
        reserve = reserve.saturating_add(raw_v.min(row_bound));
    }
    let mut indices: Vec<u32> = Vec::with_capacity(reserve.min(MAX_CHUNK_RESERVE));
    let mut scratch = MergeScratch::default();
    for v in lo..hi {
        let items = a.row(v);
        let vv = v as u32;
        match *items {
            [] => {}
            [item] => {
                indices.extend(cols.row(item as usize).iter().copied().filter(|&r| r != vv));
            }
            [i0, i1] => {
                // Two-way merge of two ascending, distinct lists.
                let (x, y) = (cols.row(i0 as usize), cols.row(i1 as usize));
                let (mut p, mut q) = (0usize, 0usize);
                while p < x.len() && q < y.len() {
                    let (rx, ry) = (x[p], y[q]);
                    let min = rx.min(ry);
                    p += usize::from(rx == min);
                    q += usize::from(ry == min);
                    if min != vv {
                        indices.push(min);
                    }
                }
                indices.extend(x[p..].iter().copied().filter(|&r| r != vv));
                indices.extend(y[q..].iter().copied().filter(|&r| r != vv));
            }
            _ => {
                merge_lists(cols, items, vv, &mut indices, &mut scratch);
            }
        }
        indptr.push(indices.len());
    }
    ChunkAdjacency { indptr, indices }
}

/// Ping-pong buffers for [`merge_lists`].
#[derive(Default)]
struct MergeScratch {
    buf: [Vec<u32>; 2],
    bounds: [Vec<usize>; 2],
}

/// Merges `k >= 3` ascending distinct lists (the transpose rows of
/// `items`) into one ascending distinct list appended to `out`, excluding
/// `v`: balanced rounds of two-way merges, so each element is touched
/// `ceil(log2 k)` times instead of paying a comparison sort.
fn merge_lists(cols: &CsrMatrix, items: &[u32], v: u32, out: &mut Vec<u32>, s: &mut MergeScratch) {
    // Round 0 merges the borrowed transpose rows into buffer 0; later
    // rounds ping-pong between the two scratch buffers until one list
    // remains, which is drained into `out` with `v` filtered.
    let (mut cur, mut nxt) = (0usize, 1usize);
    s.buf[cur].clear();
    s.bounds[cur].clear();
    s.bounds[cur].push(0);
    let mut i = 0;
    while i < items.len() {
        let x = cols.row(items[i] as usize);
        if i + 1 < items.len() {
            merge_two(x, cols.row(items[i + 1] as usize), &mut s.buf[cur]);
        } else {
            s.buf[cur].extend_from_slice(x);
        }
        s.bounds[cur].push(s.buf[cur].len());
        i += 2;
    }
    while s.bounds[cur].len() > 2 {
        let (bufs, boundss) = (&mut s.buf, &mut s.bounds);
        let (lo, hi) = split_pair(bufs, cur, nxt);
        let (blo, bhi) = split_pair(boundss, cur, nxt);
        hi.clear();
        bhi.clear();
        bhi.push(0);
        let mut p = 0;
        while p + 1 < blo.len() {
            let x = &lo[blo[p]..blo[p + 1]];
            if p + 2 < blo.len() {
                merge_two(x, &lo[blo[p + 1]..blo[p + 2]], hi);
            } else {
                hi.extend_from_slice(x);
            }
            bhi.push(hi.len());
            p += 2;
        }
        std::mem::swap(&mut cur, &mut nxt);
    }
    out.extend(s.buf[cur].iter().copied().filter(|&r| r != v));
}

/// Indexes two distinct slots of a length-2 array mutably.
fn split_pair<T>(arr: &mut [T; 2], cur: usize, nxt: usize) -> (&T, &mut T) {
    debug_assert!(cur != nxt && cur < 2 && nxt < 2);
    let (a, b) = arr.split_at_mut(1);
    if cur == 0 {
        (&a[0], &mut b[0])
    } else {
        (&b[0], &mut a[0])
    }
}

/// Appends the ascending distinct union of two ascending distinct lists.
fn merge_two(x: &[u32], y: &[u32], out: &mut Vec<u32>) {
    let (mut p, mut q) = (0usize, 0usize);
    while p < x.len() && q < y.len() {
        let (rx, ry) = (x[p], y[q]);
        let min = rx.min(ry);
        p += usize::from(rx == min);
        q += usize::from(ry == min);
        out.push(min);
    }
    out.extend_from_slice(&x[p..]);
    out.extend_from_slice(&y[q..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // rows 0 and 1 share item 0; rows 1 and 2 share item 2; row 3 isolated
        CsrMatrix::from_rows(&[vec![0, 1], vec![0, 2], vec![2], vec![3]], 4)
    }

    fn sorted_neighbors<O: ParNeighborOracle>(o: &O, v: usize) -> Vec<u32> {
        let mut out = Vec::new();
        o.neighbors_scratch(v, &mut o.new_scratch(), &mut out);
        out.sort_unstable();
        out
    }

    #[test]
    fn explicit_matches_expected() {
        let g = RowGraph::build_explicit(&sample());
        assert_eq!(sorted_neighbors(&g, 0), vec![1]);
        assert_eq!(sorted_neighbors(&g, 1), vec![0, 2]);
        assert_eq!(sorted_neighbors(&g, 2), vec![1]);
        assert_eq!(sorted_neighbors(&g, 3), Vec::<u32>::new());
    }

    #[test]
    fn implicit_matches_explicit() {
        let a = sample();
        let ex = RowGraph::build_explicit(&a);
        let im = ImplicitRowGraph::new(&a);
        for v in 0..a.n_rows() {
            assert_eq!(
                sorted_neighbors(&ex, v),
                sorted_neighbors(&im, v),
                "vertex {v}"
            );
            assert_eq!(
                ParNeighborOracle::degree(&ex, v),
                ParNeighborOracle::degree(&im, v)
            );
        }
    }

    #[test]
    fn implicit_degrees_precomputed_and_repeatable() {
        let a = sample();
        let im = ImplicitRowGraph::new(&a);
        assert_eq!(ParNeighborOracle::degree(&im, 1), 2);
        assert_eq!(ParNeighborOracle::degree(&im, 1), 2);
        assert_eq!(sorted_neighbors(&im, 1), vec![0, 2]);
        assert_eq!(sorted_neighbors(&im, 1), vec![0, 2]);
        // The bulk pass matches at every thread count.
        for threads in [2usize, 3, 8] {
            let t = ImplicitRowGraph::with_options(&a, None, threads);
            for v in 0..a.n_rows() {
                assert_eq!(
                    ParNeighborOracle::degree(&im, v),
                    ParNeighborOracle::degree(&t, v),
                    "vertex {v}, threads {threads}"
                );
            }
        }
    }

    #[test]
    fn hub_cap_skips_frequent_items() {
        // item 0 in three rows (support 3), item 1 in two (support 2).
        let a = CsrMatrix::from_rows(&[vec![0, 1], vec![0, 1], vec![0]], 2);
        let uncapped = ImplicitRowGraph::new(&a);
        assert_eq!(sorted_neighbors(&uncapped, 0), vec![1, 2]);
        let capped = ImplicitRowGraph::with_options(&a, Some(2), 1);
        // item 0 (support 3 > 2) is skipped: only item 1 connects rows.
        assert_eq!(sorted_neighbors(&capped, 0), vec![1]);
        assert_eq!(sorted_neighbors(&capped, 2), Vec::<u32>::new());
        // Degrees agree with the capped neighborhoods.
        assert_eq!(ParNeighborOracle::degree(&capped, 0), 1);
        assert_eq!(ParNeighborOracle::degree(&capped, 2), 0);
        assert_eq!(capped.hub_cap(), Some(2));
    }

    #[test]
    fn edge_estimate_is_upper_bound() {
        let a = sample();
        let est = RowGraph::estimate_directed_edges(&a);
        let g = RowGraph::build_explicit(&a);
        let actual: usize = (0..4).map(|v| g.degree(v)).sum();
        assert!(est >= actual);
        assert_eq!(est, 2 + 2); // item0: 2 rows -> 2; item2: 2 rows -> 2
    }

    #[test]
    fn threaded_build_matches_sequential_for_any_thread_count() {
        let rows: Vec<Vec<u32>> = (0..23u32).map(|i| vec![i % 5, 5 + i % 3]).collect();
        let a = CsrMatrix::from_rows(&rows, 8);
        let seq = RowGraph::build_explicit(&a);
        for threads in [2usize, 3, 8, 64] {
            let par = RowGraph::build_explicit_threaded(&a, threads);
            for v in 0..a.n_rows() {
                assert_eq!(
                    sorted_neighbors(&seq, v),
                    sorted_neighbors(&par, v),
                    "vertex {v}, threads {threads}"
                );
            }
        }
        // Zero threads is clamped, and the budget gate still applies.
        let par0 = RowGraph::build_explicit_threaded(&a, 0);
        assert_eq!(sorted_neighbors(&seq, 1), sorted_neighbors(&par0, 1));
        assert!(RowGraph::build_with_threads(&a, usize::MAX, 4).is_explicit());
        assert!(!RowGraph::build_with_threads(&a, 0, 4).is_explicit());
    }

    #[test]
    fn traced_build_records_invariant_counters() {
        let rows: Vec<Vec<u32>> = (0..23u32).map(|i| vec![i % 5, 5 + i % 3]).collect();
        let a = CsrMatrix::from_rows(&rows, 8);
        let mut reports = Vec::new();
        for threads in [1usize, 4] {
            let rec = cahd_obs::Recorder::new();
            let g = RowGraph::build_traced(&a, usize::MAX, threads, &rec);
            assert!(g.is_explicit());
            reports.push(rec.snapshot());
        }
        let [seq, par] = &reports[..] else {
            unreachable!()
        };
        // Counters are identical across thread counts...
        assert_eq!(seq.counters, par.counters);
        assert_eq!(seq.counter("sparse.aat_rows"), Some(23));
        assert_eq!(seq.counter("sparse.aat_nnz"), Some(46));
        assert!(seq.counter("sparse.aat_edges").unwrap() > 0);
        // ...while the imbalance gauge only exists for the threaded build.
        assert!(seq.gauge("sparse.aat_partition_imbalance").is_none());
        assert!(par.gauge("sparse.aat_partition_imbalance").unwrap() >= 1.0);
        // The implicit fallback records sizes but no edge count.
        let rec = cahd_obs::Recorder::new();
        let g = RowGraph::build_traced(&a, 0, 4, &rec);
        assert!(!g.is_explicit());
        assert_eq!(rec.snapshot().counter("sparse.aat_edges"), None);
    }

    #[test]
    fn implicit_build_records_posting_accounting() {
        let rows: Vec<Vec<u32>> = (0..23u32).map(|i| vec![i % 5, 5 + i % 3]).collect();
        let a = CsrMatrix::from_rows(&rows, 8);
        // Uncapped: every posting active, no hub items.
        let rec = cahd_obs::Recorder::new();
        let g = RowGraph::build_mode_traced(&a, RowGraphMode::Implicit, usize::MAX, None, 2, &rec);
        assert!(!g.is_explicit());
        let r = rec.snapshot();
        assert_eq!(r.counter("sparse.implicit_builds"), Some(1));
        assert_eq!(r.counter("sparse.implicit_postings"), Some(a.nnz() as u64));
        assert_eq!(r.counter("sparse.implicit_capped_postings"), None);
        assert_eq!(r.counter("sparse.implicit_hub_items"), None);
        // Capped: active + capped postings account for every nnz.
        let rec = cahd_obs::Recorder::new();
        let _g =
            RowGraph::build_mode_traced(&a, RowGraphMode::Implicit, usize::MAX, Some(5), 2, &rec);
        let r = rec.snapshot();
        let active = r.counter_or_zero("sparse.implicit_postings");
        let capped = r.counter_or_zero("sparse.implicit_capped_postings");
        let hubs = r.counter_or_zero("sparse.implicit_hub_items");
        assert_eq!(active + capped, a.nnz() as u64);
        assert!(hubs > 0 && capped >= hubs);
    }

    #[test]
    fn mode_overrides_budget() {
        let a = sample();
        // Auto keeps the budget gate.
        assert!(RowGraph::build(&a, 1_000).is_explicit());
        assert!(!RowGraph::build(&a, 1).is_explicit());
        let rec = cahd_obs::Recorder::disabled();
        // Forced modes ignore the budget entirely.
        assert!(
            RowGraph::build_mode_traced(&a, RowGraphMode::Explicit, 0, None, 1, &rec).is_explicit()
        );
        assert!(!RowGraph::build_mode_traced(
            &a,
            RowGraphMode::Implicit,
            usize::MAX,
            None,
            1,
            &rec
        )
        .is_explicit());
        // A hub cap under Auto forces the implicit form (the cap applies
        // to implicit enumeration only).
        assert!(
            !RowGraph::build_mode_traced(&a, RowGraphMode::Auto, usize::MAX, Some(7), 1, &rec)
                .is_explicit()
        );
    }

    #[test]
    fn rowgraph_mode_parse_round_trips() {
        for m in RowGraphMode::ALL {
            assert_eq!(RowGraphMode::parse(m.name()), Some(m));
        }
        assert_eq!(RowGraphMode::parse("lazy"), None);
        assert_eq!(RowGraphMode::parse(""), None);
        assert_eq!(RowGraphMode::default(), RowGraphMode::Auto);
    }

    #[test]
    fn no_self_loops() {
        let a = CsrMatrix::from_rows(&[vec![0], vec![0]], 1);
        let g = RowGraph::build_explicit(&a);
        assert_eq!(sorted_neighbors(&g, 0), vec![1]);
        let im = ImplicitRowGraph::new(&a);
        assert_eq!(sorted_neighbors(&im, 0), vec![1]);
    }

    /// Simulates one BFS level over `parents` through the segment API:
    /// returns the fresh vertices grouped by claiming parent, where
    /// `visited` is the pre-visited set (parents are always visited).
    fn expand_segment<O: ParNeighborOracle>(
        o: &O,
        s: &mut OracleScratch,
        parents: &[u32],
        visited: &mut [bool],
    ) -> Vec<Vec<u32>> {
        for &p in parents {
            visited[p as usize] = true;
        }
        o.begin_segment(s);
        let mut out = Vec::new();
        for &p in parents {
            let mut fresh = Vec::new();
            o.visit_neighbors(p as usize, s, &mut |w| {
                if !visited[w as usize] {
                    visited[w as usize] = true;
                    fresh.push(w);
                }
            });
            fresh.sort_unstable();
            out.push(fresh);
        }
        out
    }

    #[test]
    fn visit_neighbors_covers_fresh_vertices_and_claims_first_parent() {
        // Rows 0 and 1 share item 0 (with rows 2, 3); row 1 also holds
        // item 1 (with row 4). Expanding the frontier [0, 1] must claim
        // {2, 3} for parent 0 (first holder of item 0) and {4} for
        // parent 1, under both representations — even though the
        // implicit segment dedup never re-walks item 0 at parent 1.
        let a = CsrMatrix::from_rows(&[vec![0], vec![0, 1], vec![0], vec![0], vec![1]], 2);
        let ex = RowGraph::build_explicit(&a);
        let im = ImplicitRowGraph::new(&a);
        let expect = vec![vec![2, 3], vec![4]];
        let mut vex = vec![false; 5];
        assert_eq!(
            expand_segment(&ex, &mut ex.new_scratch(), &[0, 1], &mut vex),
            expect
        );
        let mut vim = vec![false; 5];
        assert_eq!(
            expand_segment(&im, &mut im.new_scratch(), &[0, 1], &mut vim),
            expect
        );
        assert_eq!(vex, vim);
    }

    #[test]
    fn begin_segment_reopens_skipped_items() {
        let a = sample();
        let im = ImplicitRowGraph::new(&a);
        let mut s = im.new_scratch();
        // Two traversals of the same vertex in fresh segments see the
        // same neighborhood; within one segment the second enumeration
        // of the same items yields nothing.
        let collect = |s: &mut OracleScratch, fresh_segment: bool| {
            if fresh_segment {
                im.begin_segment(s);
            }
            let mut out = Vec::new();
            im.visit_neighbors(1, s, &mut |w| out.push(w));
            out.sort_unstable();
            out.dedup();
            out
        };
        let first = collect(&mut s, true);
        assert_eq!(first, vec![0, 1, 2]); // superset semantics: v itself included
        assert_eq!(collect(&mut s, false), Vec::<u32>::new());
        assert_eq!(collect(&mut s, true), first);
    }

    #[test]
    fn item_stamp_wrap_resets_item_marks() {
        let a = sample();
        let im = ImplicitRowGraph::new(&a);
        let mut s = im.new_scratch();
        s.item_stamp = u32::MAX;
        im.begin_segment(&mut s); // wraps: marks reset, stamp back to 1
        assert_eq!(s.item_stamp, 1);
        let mut out = Vec::new();
        im.visit_neighbors(1, &mut s, &mut |w| out.push(w));
        out.sort_unstable();
        out.dedup();
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn hub_cap_applies_to_segment_traversals() {
        // item 0 in three rows (support 3), item 1 in two (support 2).
        let a = CsrMatrix::from_rows(&[vec![0, 1], vec![0, 1], vec![0]], 2);
        let capped = ImplicitRowGraph::with_options(&a, Some(2), 1);
        let mut s = capped.new_scratch();
        capped.begin_segment(&mut s);
        let mut out = Vec::new();
        capped.visit_neighbors(0, &mut s, &mut |w| out.push(w));
        out.sort_unstable();
        assert_eq!(out, vec![0, 1]); // item 0 skipped; item 1 connects 0 and 1
    }

    #[test]
    fn scratch_stamp_wrap_resets_marks() {
        let a = sample();
        let im = ImplicitRowGraph::new(&a);
        let mut s = im.new_scratch();
        s.stamp = u32::MAX; // force the wrap on the next query
        let mut out = Vec::new();
        im.neighbors_scratch(1, &mut s, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![0, 2]);
        assert_eq!(s.stamp, 1);
    }
}
