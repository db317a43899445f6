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
//!   materialize in time either. Only the one-shot exact degree pass
//!   walks cliques, and it runs once per *twin class* (distinct item
//!   set), so it pairs `sum(class_support^2)` classes rather than
//!   `sum(support^2)` rows — duplicate-heavy click logs cost what their
//!   distinct rows cost — and unions them as per-item class bitsets, up
//!   to 64 classes per word operation.
//!
//! [`RowGraphMode`] selects between them (`auto` estimates the directed
//! edge count first and materializes only small graphs); an optional
//! *hub cap* makes the implicit form skip items whose support exceeds the
//! cap, trading a bounded amount of band quality for bounding the degree
//! pass and thinning hub-dominated neighborhoods.

use std::borrow::Cow;

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
    ///
    /// `f` is a generic parameter, not a trait object, so the caller's
    /// visited-mark check inlines into the posting loop. That makes the
    /// trait usable only through generics (`G: ParNeighborOracle`), which
    /// is how the ordering engine takes it.
    fn visit_neighbors(&self, v: usize, scratch: &mut OracleScratch, f: &mut impl FnMut(u32)) {
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

    fn visit_neighbors(&self, v: usize, _scratch: &mut OracleScratch, f: &mut impl FnMut(u32)) {
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
        Self::build(a, hub_cap, threads, &cahd_obs::Recorder::disabled())
    }

    /// [`ImplicitRowGraph::with_options`], recording the two build phases
    /// as children of `pipeline/rcm/aat_build` (`transpose` and `degrees`)
    /// and the degree pass's `sparse.row_classes`, `sparse.degree_work`
    /// and `sparse.degree_words` counters.
    fn build(
        a: &'a CsrMatrix,
        hub_cap: Option<u32>,
        threads: usize,
        rec: &cahd_obs::Recorder,
    ) -> Self {
        let cols = {
            let _s = rec.span("pipeline/rcm/aat_build/transpose");
            a.transpose()
        };
        let pass = {
            let _s = rec.span("pipeline/rcm/aat_build/degrees");
            bulk_degrees(a, &cols, hub_cap, threads)
        };
        rec.add("sparse.row_classes", pass.classes as u64);
        rec.add("sparse.degree_work", pass.work);
        rec.add("sparse.degree_words", pass.words);
        ImplicitRowGraph {
            rows: a,
            cols,
            degrees: pass.degrees,
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

    fn visit_neighbors(&self, v: usize, s: &mut OracleScratch, f: &mut impl FnMut(u32)) {
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

/// Rows grouped by item set: one class per distinct row. Twins (rows of
/// one class) have identical `A x A^T` neighborhoods, so the degree pass
/// runs once per class instead of once per row; the vulnerable-population
/// scan resolves a posterior within a class; the intersection attacker
/// compares releases by class content.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowClasses {
    /// One representative row per class (its smallest row id).
    pub reps: Vec<u32>,
    /// Number of rows in each class.
    pub mult: Vec<u32>,
    /// The class of every row.
    pub class_of: Vec<u32>,
}

/// Groups the rows of `rows` by item set. One sort of the row ids on
/// `(item set, row id)` puts equal rows side by side, so each class's
/// first row is its smallest and class ids follow the lexicographic order
/// of the item sets: classes sharing leading items get nearby ids, and a
/// binary search over class ids can compare item sets.
///
/// The sort runs on a packed key: the row's leading `item + 1` values at
/// `bits(n_cols)` bits each, first item in the high bits, as many as fit
/// 64 bits (7 items over 494 columns, 3 over two million); a missing item
/// packs as 0, so a shorter row sorts first. Keys order rows as their
/// slices do, and rows of equal keys are equal unless one is longer than
/// the packed width, so only equal-key runs holding such a row are sorted
/// again by `(slice, row id)`.
pub fn row_classes(rows: &CsrMatrix) -> RowClasses {
    let n = rows.n_rows();
    let (width, packed) = packed_key_shape(rows.n_cols());
    let mut order: Vec<(u64, u32)> = (0..n)
        .map(|r| (packed_key(rows.row(r), width, packed), r as u32))
        .collect();
    order.sort_unstable();
    for run in order.chunk_by_mut(|a, b| a.0 == b.0) {
        if run.len() > 1 && run.iter().any(|&(_, r)| rows.row_len(r as usize) > packed) {
            run.sort_unstable_by(|&(_, x), &(_, y)| {
                rows.row(x as usize)
                    .cmp(rows.row(y as usize))
                    .then(x.cmp(&y))
            });
        }
    }
    let mut class_of = vec![0u32; n];
    let mut reps: Vec<u32> = Vec::new();
    let mut mult: Vec<u32> = Vec::new();
    for (p, &(key, r)) in order.iter().enumerate() {
        let twin = p > 0 && {
            let (prev_key, prev) = order[p - 1];
            prev_key == key && rows.row(prev as usize) == rows.row(r as usize)
        };
        if !twin {
            reps.push(r);
            mult.push(0);
        }
        let c = reps.len() - 1;
        mult[c] += 1;
        class_of[r as usize] = c as u32;
    }
    RowClasses {
        reps,
        mult,
        class_of,
    }
}

/// The classes of the degree pass: [`row_classes`], except that rows that
/// are all distinct are numbered by row, so [`ClassSets`] borrows the row
/// transpose as its sets.
fn degree_classes(rows: &CsrMatrix) -> RowClasses {
    let mut classes = row_classes(rows);
    if classes.reps.len() == rows.n_rows() {
        let identity: Vec<u32> = (0..rows.n_rows() as u32).collect();
        classes.reps.clone_from(&identity);
        classes.class_of = identity;
    }
    classes
}

/// The packed twin key's shape over `n_cols` columns: the bits of one
/// `item + 1` value (`bits(n_cols)`, at least 1) and how many values fit
/// one `u64`.
fn packed_key_shape(n_cols: usize) -> (u32, usize) {
    let width = (usize::BITS - n_cols.leading_zeros()).clamp(1, u64::BITS);
    (width, (u64::BITS / width) as usize)
}

/// The first `packed` items of the ascending `row`, each as `item + 1` in
/// `width` bits, the first item highest; missing items are 0.
#[inline]
fn packed_key(row: &[u32], width: u32, packed: usize) -> u64 {
    let mut key = 0u64;
    let mut shift = width * packed as u32;
    for &i in row.iter().take(packed) {
        shift -= width;
        key |= (u64::from(i) + 1) << shift;
    }
    key
}

/// The dense/sparse crossover of an item's class set: the set is stored
/// as the 64-bit words of its word range when those take at most this
/// many times the bytes of its sorted `u32` bit positions, and as the
/// positions otherwise. A word costs one sequential OR where a position
/// costs a dependent read-modify-write, so words win well before they
/// are as compact as positions. Measured on the seed-7 BMS-WebView-1 and
/// BMS-WebView-2 shapes (full scale, release build, 2-core x86, one
/// thread, best of 7 runs of the union alone): factor 1 took 71 / 388 ms,
/// 2 took 38 / 283 ms, 4 took 29 / 209 ms and 16 took 28 / 192 ms, while
/// the BMS-WebView-2 sets grew from 1.1 MB (1) to 2.0 MB (4) and 4.8 MB
/// (16). 4 buys nearly all of the time for less than half the memory.
const DENSE_BYTES_FACTOR: usize = 4;

/// One item's class set over the tiered class numbering of [`ClassSets`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ItemSet {
    /// A hub under the cap, or an item no row holds: never ORed.
    Skip,
    /// The `len` words at `words[start..]`, standing for accumulator
    /// words `first..first + len`.
    Dense { first: u32, len: u32, start: usize },
    /// The `len` ascending bit positions at `positions[start..]`.
    Sparse { len: u32, start: usize },
}

/// The classes of every non-hub item, as sets over one *tiered* class
/// numbering: classes sorted by multiplicity (then by class id), each
/// multiplicity tier starting on a fresh 64-bit word, so every word of a
/// class union stands for classes of one multiplicity and the union's
/// row count is `Σ_w popcount(acc[w]) · mult(w)`. Built once from the
/// class representatives and shared read-only by every degree worker.
struct ClassSets<'m> {
    /// The multiplicity of the classes in each accumulator word.
    word_mult: Vec<u32>,
    /// Every item's set.
    items: Vec<ItemSet>,
    /// The words of every dense set, item after item.
    words: Vec<u64>,
    /// The positions of every sparse set, item after item. When every row
    /// is its own class the numbering is the identity and an item's
    /// positions are its row postings, so this borrows the row transpose.
    positions: Cow<'m, [u32]>,
    /// Words ORed plus positions set by the whole pass: each set is
    /// applied once per class holding its item.
    degree_words: u64,
    /// `Σ class-support²` over the non-hub items.
    degree_work: u64,
}

impl<'m> ClassSets<'m> {
    /// The item sets of `classes` (twin classes of `rows`, whose transpose
    /// is `cols`) under the hub cap.
    fn build(
        rows: &CsrMatrix,
        cols: &'m CsrMatrix,
        classes: &RowClasses,
        hub_cap: Option<u32>,
    ) -> Self {
        let k = classes.reps.len();
        // Twin-free, `bulk_degrees` numbers the classes by row.
        let twin_free = k == rows.n_rows();
        // Tiered numbering: a stable sort by multiplicity keeps class-id
        // order within each tier, and a new multiplicity opens a new word.
        // The tier of multiplicity m holds at least m rows, so there are
        // fewer than √(2n) tiers and under 64·√(2n) bits of padding: the
        // bits fit `u32` as the row ids do.
        let mut by_mult: Vec<u32> = (0..k as u32).collect();
        by_mult.sort_by_key(|&c| classes.mult[c as usize]);
        let mut bit_of = vec![0u32; k];
        let mut word_mult: Vec<u32> = Vec::new();
        let mut next = 0usize;
        for &c in &by_mult {
            let m = classes.mult[c as usize];
            if word_mult.last() != Some(&m) {
                next = next.next_multiple_of(64);
            }
            if next.is_multiple_of(64) {
                word_mult.push(m);
            }
            bit_of[c as usize] = next as u32;
            next += 1;
        }

        // Per non-hub item: how many classes hold it, and its first and
        // last bit.
        let d = rows.n_cols();
        let mut count = vec![0u32; d];
        let mut span = vec![(u32::MAX, 0u32); d];
        for (c, &bit) in bit_of.iter().enumerate() {
            for &i in rows.row(classes.reps[c] as usize) {
                let i = i as usize;
                if !hub_skipped(cols.row_len(i), hub_cap) {
                    count[i] += 1;
                    span[i] = (span[i].0.min(bit), span[i].1.max(bit));
                }
            }
        }
        let mut items = vec![ItemSet::Skip; d];
        let (mut n_words, mut n_positions) = (0usize, 0usize);
        let (mut degree_words, mut degree_work) = (0u64, 0u64);
        for (i, set) in items.iter_mut().enumerate() {
            let n = count[i] as usize;
            if n == 0 {
                continue;
            }
            let first = span[i].0 as usize / 64;
            let len = span[i].1 as usize / 64 + 1 - first;
            degree_work += (n as u64).pow(2);
            if 8 * len <= DENSE_BYTES_FACTOR * 4 * n {
                *set = ItemSet::Dense {
                    first: first as u32,
                    len: len as u32,
                    start: n_words,
                };
                n_words += len;
                degree_words += (n * len) as u64;
            } else {
                *set = ItemSet::Sparse {
                    len: n as u32,
                    start: if twin_free {
                        cols.indptr()[i]
                    } else {
                        n_positions
                    },
                };
                n_positions += n;
                degree_words += (n * n) as u64;
            }
        }
        drop(span);

        // Fill in bit order, so every sparse set comes out ascending;
        // `count` becomes each sparse set's fill cursor.
        let mut words = vec![0u64; n_words];
        let mut owned = vec![0u32; if twin_free { 0 } else { n_positions }];
        count.fill(0);
        for &c in &by_mult {
            let bit = bit_of[c as usize];
            for &i in rows.row(classes.reps[c as usize] as usize) {
                match items[i as usize] {
                    ItemSet::Skip => {}
                    ItemSet::Dense { first, start, .. } => {
                        words[start + (bit / 64 - first) as usize] |= 1 << (bit % 64);
                    }
                    ItemSet::Sparse { start, .. } => {
                        if !twin_free {
                            let cursor = &mut count[i as usize];
                            owned[start + *cursor as usize] = bit;
                            *cursor += 1;
                        }
                    }
                }
            }
        }
        ClassSets {
            word_mult,
            items,
            words,
            positions: if twin_free {
                Cow::Borrowed(cols.indices())
            } else {
                Cow::Owned(owned)
            },
            degree_words,
            degree_work,
        }
    }
}

/// The output of the exact degree pass.
struct DegreePass {
    /// Distinct-neighbor degree of every row under the hub cap.
    degrees: Vec<u32>,
    /// Number of twin classes (distinct rows).
    classes: usize,
    /// `Σ class-support²` over the non-hub items.
    work: u64,
    /// Words ORed plus positions set (see [`ClassSets::degree_words`]).
    words: u64,
}

/// Exact distinct-neighbor degrees under the hub cap, computed once per
/// twin class and expanded back to rows: a row's neighbors are every row
/// of every class sharing a non-hub item with it, minus the row itself.
/// Classes are chunked contiguously across workers, each writing its own
/// slice of the output with its own accumulator, so the degrees are
/// identical at every thread count.
fn bulk_degrees(
    rows: &CsrMatrix,
    cols: &CsrMatrix,
    hub_cap: Option<u32>,
    threads: usize,
) -> DegreePass {
    let classes = degree_classes(rows);
    let sets = ClassSets::build(rows, cols, &classes, hub_cap);
    let k = classes.reps.len();
    let mut class_degrees = vec![0u32; k];
    let threads = threads.max(1).min(k.max(1));
    if threads <= 1 {
        class_degree_chunk(rows, &classes, &sets, 0, &mut class_degrees);
    } else {
        let chunk = k.div_ceil(threads);
        // The scope joins every worker and re-raises any worker's panic.
        std::thread::scope(|scope| {
            for (wi, part) in class_degrees.chunks_mut(chunk).enumerate() {
                let (classes, sets) = (&classes, &sets);
                scope.spawn(move || class_degree_chunk(rows, classes, sets, wi * chunk, part));
            }
        });
    }
    DegreePass {
        degrees: classes
            .class_of
            .iter()
            .map(|&c| class_degrees[c as usize])
            .collect(),
        classes: k,
        work: sets.degree_work,
        words: sets.degree_words,
    }
}

/// Degrees of the classes `lo..lo + out.len()`, into `out`: each class
/// ORs its non-hub items' sets into one accumulator, so the union of
/// classes sharing an item with it is a bitset over the tiered numbering,
/// weighted word by word by multiplicity, then clears the span of words
/// it touched. The class itself is in that union exactly when it holds a
/// non-hub item, and is then counted once too many (the row itself); an
/// empty or all-hub row has no neighbors, whatever its multiplicity.
fn class_degree_chunk(
    rows: &CsrMatrix,
    classes: &RowClasses,
    sets: &ClassSets<'_>,
    lo: usize,
    out: &mut [u32],
) {
    let (words, positions): (&[u64], &[u32]) = (&sets.words, &sets.positions);
    let mut acc = vec![0u64; sets.word_mult.len()];
    for (degree, c) in out.iter_mut().zip(lo..) {
        // The accumulator words touched so far: `first..end`.
        let (mut first, mut end) = (usize::MAX, 0usize);
        for &item in rows.row(classes.reps[c] as usize) {
            match sets.items[item as usize] {
                ItemSet::Skip => {}
                ItemSet::Dense {
                    first: w,
                    len,
                    start,
                } => {
                    let (w, len) = (w as usize, len as usize);
                    for (a, &x) in acc[w..w + len].iter_mut().zip(&words[start..start + len]) {
                        *a |= x;
                    }
                    first = first.min(w);
                    end = end.max(w + len);
                }
                ItemSet::Sparse { len, start } => {
                    let set = &positions[start..start + len as usize];
                    for &bit in set {
                        acc[bit as usize / 64] |= 1 << (bit % 64);
                    }
                    // Ascending, and never empty: its ends bound its words.
                    first = first.min(set[0] as usize / 64);
                    end = end.max(set[set.len() - 1] as usize / 64 + 1);
                }
            }
        }
        let touched = first.min(end)..end;
        let mut d = 0u32;
        for (a, &m) in acc[touched.clone()]
            .iter_mut()
            .zip(&sets.word_mult[touched])
        {
            d += a.count_ones() * m;
            *a = 0;
        }
        *degree = d.saturating_sub(1);
    }
}

/// Representation-selection policy for [`RowGraph::build_mode_traced`].
/// A small enum with a canonical name per variant, parseable from
/// `--rowgraph`.
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

    /// Parses a mode name as used by `--rowgraph`: `auto`, `explicit` or
    /// `implicit`.
    pub fn parse(s: &str) -> Option<RowGraphMode> {
        match s {
            "auto" => Some(RowGraphMode::Auto),
            "explicit" => Some(RowGraphMode::Explicit),
            "implicit" => Some(RowGraphMode::Implicit),
            _ => None,
        }
    }

    /// Returns `self`. Kept only because perfbench calls it; it goes with
    /// the perfbench rewrite (ROADMAP item 2). Nothing else calls it.
    pub fn resolved(self) -> RowGraphMode {
        self
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

/// Returns `cfg`. Kept only because perfbench calls it; it goes with the
/// perfbench rewrite (ROADMAP item 2). Nothing else calls it.
pub fn resolve_hub_cap(cfg: Option<u32>) -> Option<u32> {
    cfg
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

    /// Density limit of the `auto` policy: beyond this many estimated
    /// directed edges per row the implicit representation is used, even
    /// under the edge budget.
    ///
    /// Measured on 1,000- and 2,500-row quest batches over a 2M-item
    /// universe (`pipeline/rcm` median of 7 runs per form): explicit wins
    /// up to ~20 estimated edges per row, the forms cross between ~25 and
    /// ~70, and from ~100 per row on implicit is 2–25× faster (a dense
    /// stream batch of ~920 per row: 14.4 against 1.0 ms).
    pub const DEFAULT_EDGES_PER_ROW: usize = 64;

    /// Whether [`RowGraphMode::Auto`] materializes the adjacency of an
    /// `n_rows`-row matrix with `estimate` estimated directed edges: no
    /// hub cap, at most `edge_budget` edges and at most
    /// [`RowGraph::DEFAULT_EDGES_PER_ROW`] per row.
    pub fn auto_explicit(
        n_rows: usize,
        estimate: usize,
        edge_budget: usize,
        hub_cap: Option<u32>,
    ) -> bool {
        hub_cap.is_none()
            && estimate <= edge_budget
            && estimate <= n_rows.saturating_mul(Self::DEFAULT_EDGES_PER_ROW)
    }

    /// Upper bound on the number of directed edges of the `A x A^T`
    /// pattern: every column containing `k` rows contributes at most
    /// `k (k - 1)` ordered pairs.
    pub fn estimate_directed_edges(a: &CsrMatrix) -> usize {
        a.col_counts()
            .iter()
            .map(|&k| k.saturating_mul(k.saturating_sub(1)))
            .fold(0usize, usize::saturating_add)
    }

    /// Builds the row graph under a representation policy, with `threads`
    /// workers for whichever form is chosen (the explicit chunked build,
    /// or the implicit bulk degree pass), recording `sparse.*` build
    /// metrics into `rec`:
    ///
    /// * counters `sparse.aat_rows`, `sparse.aat_nnz`,
    ///   `sparse.aat_edges_estimate`, and (explicit form only)
    ///   `sparse.aat_edges` — all scheduling-invariant;
    /// * counters `sparse.implicit_builds`, `sparse.implicit_postings`,
    ///   `sparse.implicit_capped_postings`, `sparse.implicit_hub_items`
    ///   (implicit form only) — pure functions of the matrix and the hub
    ///   cap, with `implicit_postings + implicit_capped_postings` equal to
    ///   this build's `sparse.aat_nnz` contribution;
    /// * counters `sparse.row_classes` (distinct rows),
    ///   `sparse.degree_work` (`sum(class_support^2)` over the items below
    ///   the hub cap: the class pairs the exact degree pass unions) and
    ///   `sparse.degree_words` (the words it ORs plus the bit positions it
    ///   sets), and spans `pipeline/rcm/aat_build/transpose` and
    ///   `pipeline/rcm/aat_build/degrees` (implicit form only; the spans
    ///   nest under the caller's `pipeline/rcm/aat_build`);
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
            RowGraphMode::Auto => Self::auto_explicit(n, estimate, edge_budget, hub_cap),
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
            return RowGraph::Implicit(ImplicitRowGraph::build(a, hub_cap, threads, rec));
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

    fn visit_neighbors(&self, v: usize, scratch: &mut OracleScratch, f: &mut impl FnMut(u32)) {
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
/// excluding the row itself) as one flat chunk. An item held by the row
/// alone lists only the row, which is filtered out anyway, so only the
/// items shared with another row are merged. The transpose rows are
/// ascending, so rows with one or two shared items emit pre-sorted lists
/// by a plain merge; wider rows merge their lists in balanced rounds.
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
    let mut items: Vec<u32> = Vec::new();
    for v in lo..hi {
        items.clear();
        items.extend(
            a.row(v)
                .iter()
                .copied()
                .filter(|&i| cols.row(i as usize).len() > 1),
        );
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
                merge_lists(cols, &items, vv, &mut indices, &mut scratch);
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
    fn auto_goes_implicit_past_the_budget_or_the_density_limit() {
        let per_row = RowGraph::DEFAULT_EDGES_PER_ROW;
        let budget = RowGraph::DEFAULT_EDGE_BUDGET;
        // Sparse batches under the budget stay explicit.
        assert!(RowGraph::auto_explicit(10_000, 8_526, budget, None));
        assert!(RowGraph::auto_explicit(
            1_000,
            1_000 * per_row,
            budget,
            None
        ));
        // One edge per row past the density limit goes implicit, under
        // the budget: a dense 1,000-row stream batch.
        assert!(!RowGraph::auto_explicit(
            1_000,
            1_000 * per_row + 1,
            budget,
            None
        ));
        assert!(!RowGraph::auto_explicit(1_000, 923_290, budget, None));
        // The budget still binds on its own, and a hub cap forces implicit.
        assert!(!RowGraph::auto_explicit(100_000, budget + 1, budget, None));
        assert!(!RowGraph::auto_explicit(10, 0, budget, Some(5)));
        assert!(RowGraph::auto_explicit(0, 0, budget, None));
        // The built form follows the rule: two rows sharing one item have
        // two directed edges (one per row), a clique of 66 rows 65 per row.
        let rec = cahd_obs::Recorder::disabled();
        let sparse = CsrMatrix::from_rows(&[vec![0], vec![0]], 1);
        let dense = CsrMatrix::from_rows(&vec![vec![0]; per_row + 2], 1);
        let auto = |a| RowGraph::build_mode_traced(a, RowGraphMode::Auto, budget, None, 1, &rec);
        assert!(auto(&sparse).is_explicit());
        assert!(!auto(&dense).is_explicit());
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
    fn rows_of_single_holder_items_have_no_neighbors() {
        // Row 0 holds three items nobody else holds, row 1 two such items
        // plus item 5, which it shares with row 2 only; row 3 holds one
        // private item. Every path of the builder (1, 2 and ≥ 3 items)
        // sees its private items dropped.
        let a = CsrMatrix::from_rows(
            &[vec![0, 1, 2], vec![3, 4, 5], vec![5, 6, 7, 8], vec![9]],
            10,
        );
        let g = RowGraph::build_explicit(&a);
        assert!(g.neighbors(0).is_empty());
        assert_eq!(g.neighbors(1), &[2]);
        assert_eq!(g.neighbors(2), &[1]);
        assert!(g.neighbors(3).is_empty());
        assert_eq!(g.n_edges(), 1);
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
        let auto = |budget| {
            let rec = cahd_obs::Recorder::disabled();
            RowGraph::build_mode_traced(&a, RowGraphMode::Auto, budget, None, 4, &rec).is_explicit()
        };
        assert!(auto(usize::MAX));
        assert!(!auto(0));
    }

    #[test]
    fn traced_build_records_invariant_counters() {
        let rows: Vec<Vec<u32>> = (0..23u32).map(|i| vec![i % 5, 5 + i % 3]).collect();
        let a = CsrMatrix::from_rows(&rows, 8);
        let mut reports = Vec::new();
        for threads in [1usize, 4] {
            let rec = cahd_obs::Recorder::new();
            let g = RowGraph::build_mode_traced(
                &a,
                RowGraphMode::Auto,
                usize::MAX,
                None,
                threads,
                &rec,
            );
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
        let g = RowGraph::build_mode_traced(&a, RowGraphMode::Auto, 0, None, 4, &rec);
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
        let rec = cahd_obs::Recorder::disabled();
        // Auto keeps the budget gate.
        let auto =
            |budget| RowGraph::build_mode_traced(&a, RowGraphMode::Auto, budget, None, 1, &rec);
        assert!(auto(1_000).is_explicit());
        assert!(!auto(1).is_explicit());
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

    /// Degrees by a stamped walk over every row's postings: the per-row
    /// definition the twin-class pass must reproduce.
    fn per_row_degrees(a: &CsrMatrix, hub_cap: Option<u32>) -> Vec<u32> {
        let cols = a.transpose();
        (0..a.n_rows())
            .map(|v| {
                let mut seen = vec![false; a.n_rows()];
                seen[v] = true;
                let mut d = 0;
                for &i in a.row(v) {
                    let list = cols.row(i as usize);
                    if hub_skipped(list.len(), hub_cap) {
                        continue;
                    }
                    for &r in list {
                        d += u32::from(!std::mem::replace(&mut seen[r as usize], true));
                    }
                }
                d
            })
            .collect()
    }

    #[test]
    fn twin_classes_of_an_empty_matrix() {
        let a = CsrMatrix::from_rows(&[], 3);
        let cols = a.transpose();
        let t = row_classes(&a);
        assert!(t.reps.is_empty());
        assert!(t.class_of.is_empty());
        let pass = bulk_degrees(&a, &cols, None, 4);
        assert!(pass.degrees.is_empty());
        assert_eq!((pass.classes, pass.work, pass.words), (0, 0, 0));
    }

    #[test]
    fn identical_rows_form_one_class() {
        let a = CsrMatrix::from_rows(&vec![vec![1, 3]; 5], 4);
        let cols = a.transpose();
        let t = row_classes(&a);
        assert_eq!(
            (t.reps.len(), t.reps.as_slice(), t.mult.as_slice()),
            (1, &[0][..], &[5][..])
        );
        assert_eq!(t.class_of, vec![0; 5]);
        // One class of five rows: one word of weight 5, and positions of
        // its own (none: both items are a single dense word).
        let sets = ClassSets::build(&a, &cols, &t, None);
        assert_eq!(sets.word_mult, vec![5]);
        assert!(matches!(sets.positions, Cow::Owned(ref p) if p.is_empty()));
        for threads in [1, 2, 8] {
            let pass = bulk_degrees(&a, &cols, None, threads);
            assert_eq!(pass.degrees, vec![4; 5], "threads {threads}");
            // Two items, each in the one class and one word.
            assert_eq!((pass.classes, pass.work, pass.words), (1, 2, 2));
        }
        // Every item over the cap: twins are no longer neighbors.
        assert_eq!(bulk_degrees(&a, &cols, Some(4), 1).degrees, vec![0; 5]);
        // Empty twins are never neighbors of each other.
        let empty = CsrMatrix::from_rows(&vec![vec![]; 3], 2);
        assert_eq!(
            bulk_degrees(&empty, &empty.transpose(), None, 1).degrees,
            vec![0; 3]
        );
    }

    #[test]
    fn distinct_rows_borrow_the_row_transpose() {
        let a = sample();
        let cols = a.transpose();
        let t = row_classes(&a);
        assert_eq!(t.reps, vec![0, 1, 2, 3]);
        assert_eq!(t.class_of, vec![0, 1, 2, 3]);
        assert_eq!(t.mult, vec![1; 4]);
        let pass = bulk_degrees(&a, &cols, None, 1);
        assert_eq!(pass.degrees, per_row_degrees(&a, None));
        // Items 0 and 2 in two rows, items 1 and 3 in one: 4 + 1 + 4 + 1,
        // each set one dense word.
        assert_eq!((pass.classes, pass.work, pass.words), (4, 10, 6));

        // Twin-free, the numbering is the row order and a sparse set is
        // the item's own row postings: item 0, in rows 0 and 299, spans
        // five words for two positions.
        let rows: Vec<Vec<u32>> = (0..300u32)
            .map(|j| match j {
                0 => vec![0, 1],
                299 => vec![0, 300],
                _ => vec![j + 1],
            })
            .collect();
        let a = CsrMatrix::from_rows(&rows, 301);
        let cols = a.transpose();
        // Row 299's set [0, 300] sorts second; the degree pass renumbers.
        assert_eq!(row_classes(&a).class_of[299], 1);
        let t = degree_classes(&a);
        assert_eq!(t.class_of, (0..300).collect::<Vec<u32>>());
        let sets = ClassSets::build(&a, &cols, &t, None);
        assert_eq!(sets.word_mult, vec![1; 5]);
        assert_eq!(sets.items[0], ItemSet::Sparse { len: 2, start: 0 });
        assert!(matches!(sets.positions, Cow::Borrowed(p) if p == cols.indices()));
        assert_eq!(&sets.positions[..2], &[0, 299]);
        for threads in [1, 3] {
            assert_eq!(
                bulk_degrees(&a, &cols, None, threads).degrees,
                per_row_degrees(&a, None)
            );
        }
    }

    #[test]
    fn tiers_start_on_word_boundaries_and_items_pick_an_encoding() {
        // Multiplicity 1: seventy classes {0, 3 + j}, the first also
        // holding item 2, so the tier fills bits 0..70 of words 0 and 1.
        // Then one class per multiplicity 2..=5, each on a fresh word.
        let mut rows: Vec<Vec<u32>> = (0..70u32)
            .map(|j| {
                if j == 0 {
                    vec![0, 2, 3]
                } else {
                    vec![0, 3 + j]
                }
            })
            .collect();
        for (m, set) in [
            (2, vec![0, 1]),
            (3, vec![1]),
            (4, vec![73, 74]),
            (5, vec![2]),
        ] {
            rows.extend(std::iter::repeat_n(set, m));
        }
        let a = CsrMatrix::from_rows(&rows, 75);
        let cols = a.transpose();
        let t = row_classes(&a);
        let sets = ClassSets::build(&a, &cols, &t, None);
        assert_eq!(sets.word_mult, vec![1, 1, 2, 3, 4, 5]);
        // Item 0: bits 0..70 and 128, three words for 71 positions.
        assert_eq!(
            sets.items[0],
            ItemSet::Dense {
                first: 0,
                len: 3,
                start: 0
            }
        );
        // Item 1: bits 128 and 192, two words for two positions.
        assert!(matches!(
            sets.items[1],
            ItemSet::Dense {
                first: 2,
                len: 2,
                ..
            }
        ));
        // Item 2: bits 0 and 320, six words for two positions.
        assert_eq!(sets.items[2], ItemSet::Sparse { len: 2, start: 0 });
        assert_eq!(&*sets.positions, &[0, 320]);
        // Bits 0..64, 64..70 and 128.
        assert_eq!(&sets.words[..3], &[u64::MAX, (1 << 6) - 1, 1]);
        // 71·3 + 2·2 + 2·2 + 70 single-word singletons + 2 of item 73/74.
        assert_eq!(sets.degree_words, 213 + 4 + 4 + 70 + 2);
        assert_eq!(sets.degree_work, 71 * 71 + 4 + 4 + 70 + 2);
        for hub_cap in [None, Some(1), Some(4), Some(5), Some(80)] {
            let want = per_row_degrees(&a, hub_cap);
            for threads in [1, 2, 3, 8] {
                let pass = bulk_degrees(&a, &cols, hub_cap, threads);
                assert_eq!(pass.degrees, want, "hub_cap {hub_cap:?} threads {threads}");
            }
        }
    }

    #[test]
    fn classes_follow_item_set_order() {
        let a = CsrMatrix::from_rows(&[vec![0, 1], vec![2], vec![0, 1], vec![2], vec![]], 3);
        let cols = a.transpose();
        let t = row_classes(&a);
        // Classes [], [0, 1], [2], each represented by its smallest row.
        assert_eq!(t.reps, vec![4, 0, 1]);
        assert_eq!(t.mult, vec![1, 2, 2]);
        assert_eq!(t.class_of, vec![1, 2, 1, 2, 0]);
        assert_eq!(
            bulk_degrees(&a, &cols, None, 1).degrees,
            per_row_degrees(&a, None)
        );
        // Rows agreeing on their first two items are told apart by the rest.
        let b = CsrMatrix::from_rows(
            &[vec![0, 1, 3], vec![0, 1, 2], vec![0, 1], vec![0, 1, 2]],
            4,
        );
        let t = row_classes(&b);
        assert_eq!(t.reps, vec![2, 1, 0]);
        assert_eq!(t.mult, vec![1, 2, 1]);
        assert_eq!(t.class_of, vec![2, 1, 0, 1]);
    }

    /// The twin classes as they were found before the packed key: a
    /// comparator sort of the row ids on a two-item inline key, full slices
    /// compared on ties. The oracle of the packed-key sort; the twin-free
    /// renumbering it also did is now `degree_classes`.
    fn comparator_twin_classes(rows: &CsrMatrix) -> RowClasses {
        let n = rows.n_rows();
        let mut order: Vec<(u64, u32)> = (0..n)
            .map(|r| {
                let mut key = [0u32; 2];
                for (k, &i) in key.iter_mut().zip(rows.row(r)) {
                    *k = i.saturating_add(1);
                }
                ((u64::from(key[0]) << 32) | u64::from(key[1]), r as u32)
            })
            .collect();
        order.sort_unstable_by(|&(kx, x), &(ky, y)| {
            kx.cmp(&ky)
                .then_with(|| rows.row(x as usize).cmp(rows.row(y as usize)))
                .then(x.cmp(&y))
        });
        let mut class_of = vec![0u32; n];
        let mut reps: Vec<u32> = Vec::new();
        let mut mult: Vec<u32> = Vec::new();
        for (p, &(_, r)) in order.iter().enumerate() {
            if p == 0 || rows.row(order[p - 1].1 as usize) != rows.row(r as usize) {
                reps.push(r);
                mult.push(0);
            }
            let c = reps.len() - 1;
            mult[c] += 1;
            class_of[r as usize] = c as u32;
        }
        RowClasses {
            reps,
            mult,
            class_of,
        }
    }

    /// SplitMix64 step.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Duplicate-heavy rows over a universe of `n_cols`: items from both
    /// ends of the universe (so the packed values fill their bits), random
    /// rows up to three items past the packed width, rows that share their
    /// packed prefix and differ only past it, and empty rows, each repeated
    /// up to three times, in a shuffled order.
    fn twin_rows(n_cols: usize, seed: u64) -> Vec<Vec<u32>> {
        let (_, packed) = packed_key_shape(n_cols);
        let mut pool: Vec<u32> = (0..n_cols.min(40) as u32).collect();
        pool.extend((n_cols.saturating_sub(40)..n_cols).map(|i| i as u32));
        pool.sort_unstable();
        pool.dedup();
        let mut state = seed;
        let mut distinct: Vec<Vec<u32>> = vec![Vec::new()];
        for _ in 0..40 {
            let len = mix(&mut state) as usize % (pool.len().min(packed + 3) + 1);
            let row: Vec<u32> = (0..len)
                .map(|_| pool[mix(&mut state) as usize % pool.len()])
                .collect();
            distinct.push(row);
        }
        if pool.len() > packed + 2 {
            let prefix = &pool[..packed];
            let (x, y) = (pool[packed], pool[packed + 1]);
            for tail in [&[][..], &[x], &[y], &[x, y]] {
                distinct.push([prefix, tail].concat());
            }
        }
        let mut rows = Vec::new();
        for row in distinct {
            for _ in 0..1 + mix(&mut state) % 3 {
                rows.push(row.clone());
            }
        }
        for i in (1..rows.len()).rev() {
            rows.swap(i, mix(&mut state) as usize % (i + 1));
        }
        rows
    }

    #[test]
    fn packed_key_width_follows_the_universe() {
        assert_eq!(packed_key_shape(0), (1, 64));
        assert_eq!(packed_key_shape(1), (1, 64));
        assert_eq!(packed_key_shape(2), (2, 32));
        assert_eq!(packed_key_shape(494), (9, 7));
        assert_eq!(packed_key_shape(2_000_000), (21, 3));
        assert_eq!(packed_key_shape(1 << 21), (22, 2));
        assert_eq!(packed_key_shape(u32::MAX as usize), (32, 2));
        assert_eq!(packed_key_shape(u32::MAX as usize + 1), (33, 1));
        // Packed keys order rows as their slices do; a missing item is 0.
        let (w, k) = packed_key_shape(494);
        let rows: [&[u32]; 5] = [&[], &[0], &[0, 493], &[1], &[493]];
        let keys: Vec<u64> = rows.iter().map(|r| packed_key(r, w, k)).collect();
        assert!(keys.windows(2).all(|p| p[0] < p[1]), "{keys:?}");
        assert_eq!(packed_key(&[0, 1, 2, 3, 4, 5, 6], w, k), {
            (1..=7u64).fold(0, |key, v| (key << 9) | v)
        });
        assert_eq!(
            packed_key(&[0, 1, 2, 3, 4, 5, 6, 7], w, k),
            packed_key(&[0, 1, 2, 3, 4, 5, 6], w, k)
        );
    }

    #[test]
    fn packed_twin_classes_match_the_comparator_sort() {
        // Every packed width from 1 to 33 bits (the universes at both ends
        // of each width), the clickstream and 2M-item shapes, and the
        // largest `u32` item universe.
        let mut universes: Vec<usize> = vec![2, 494, 2_000_000, 1 << 21, u32::MAX as usize + 1];
        for w in 1..=32 {
            universes.extend([1usize << (w - 1), (1usize << w) - 1]);
        }
        for (seed, &n_cols) in universes.iter().enumerate() {
            let a = CsrMatrix::from_rows(&twin_rows(n_cols, seed as u64), n_cols);
            let (want, got) = (comparator_twin_classes(&a), row_classes(&a));
            assert!(want.reps.len() < a.n_rows(), "{n_cols} columns: no twins");
            assert_eq!(got.reps, want.reps, "{n_cols} columns");
            assert_eq!(got.mult, want.mult, "{n_cols} columns");
            assert_eq!(got.class_of, want.class_of, "{n_cols} columns");
        }
        // Twin-free rows (the identity numbering), empty rows alone, and
        // no rows at all.
        for rows in [
            (0..50u32).map(|i| vec![i % 7, 7 + i]).collect::<Vec<_>>(),
            vec![Vec::new(); 4],
            Vec::new(),
        ] {
            let a = CsrMatrix::from_rows(&rows, 60);
            let (want, got) = (comparator_twin_classes(&a), row_classes(&a));
            assert_eq!(
                (got.reps, got.mult, got.class_of),
                (want.reps, want.mult, want.class_of)
            );
        }
    }

    #[test]
    fn twin_class_degrees_match_per_row_degrees() {
        // Duplicate-heavy rows with a hub item (0), empty rows and
        // all-hub rows, under every cap and thread count.
        let base: [&[u32]; 6] = [&[0, 1], &[0], &[2, 3], &[], &[1, 4], &[0, 5]];
        let rows: Vec<Vec<u32>> = (0..40)
            .map(|i| base[(i * 5 + i / 7) % 6].to_vec())
            .collect();
        let a = CsrMatrix::from_rows(&rows, 6);
        let cols = a.transpose();
        for hub_cap in [None, Some(1), Some(2), Some(5), Some(20)] {
            let want = per_row_degrees(&a, hub_cap);
            for threads in [1, 2, 3, 8] {
                let pass = bulk_degrees(&a, &cols, hub_cap, threads);
                assert_eq!(pass.degrees, want, "hub_cap {hub_cap:?} threads {threads}");
                assert!(pass.classes < a.n_rows());
            }
        }
    }
}
