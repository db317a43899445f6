//! Frontier-parallel band-reducing ordering.
//!
//! The classic Cuthill-McKee loop looks inherently serial — a BFS queue
//! where each dequeued vertex appends its unvisited neighbors sorted by
//! `(degree, id)`. It is not: the queue decomposes into BFS *levels*, and
//! within one level the ordering rule is exactly
//!
//! > level `k+1` = for each parent of level `k` **in order**: the fresh
//! > neighbors *claimed* by that parent (a vertex is claimed by its
//! > first-in-order parent), sorted within the parent — by `(degree, id)`
//! > in the CM pass, by `id` in plain level-structure builds.
//!
//! Every quantity in that rule — claim ownership, degrees, ids — is a pure
//! function of the graph and the previous level (a *set*-determined rule,
//! independent of the order any oracle happens to enumerate neighbors
//! in), so a level can be expanded by any number of workers over any
//! [`ParNeighborOracle`] and reassembled deterministically:
//!
//! 1. **Bid** (parallel): each worker owns a contiguous chunk of parents;
//!    for each parent position `p` and unvisited neighbor `w` it performs
//!    `owner[w].fetch_min(p)`. After a barrier, `owner[w]` is the claiming
//!    parent of `w` — the same parent the sequential loop would claim.
//! 2. **Claim** (parallel): each worker re-enumerates its parents'
//!    neighbors, keeps the ones it owns (`owner[w] == p`), marks them
//!    visited, resets `owner[w]` for the next level, and sorts them
//!    within each parent. Re-enumerating instead of replaying a recorded
//!    bid buffer keeps the expansion's footprint at O(frontier), not
//!    O(frontier *edges*) — on clique-heavy transaction graphs the edge
//!    count of one frontier reaches tens of millions.
//! 3. **Concatenate** (sequential): worker outputs are appended in worker
//!    index order, which is parent order.
//!
//! The result is **byte-identical to the textbook queue formulation at
//! every thread count and for every representation** (explicit or implicit
//! row graph) — the `ordering_equivalence`, `representation_equivalence`
//! and `proptests` suites check it against a literal transcription of the
//! paper's Fig. 4 that lives only in the test tree. The same engine builds
//! the George–Liu level structures of the pseudo-peripheral search, so
//! the whole ordering phase parallelizes, not just the final CM pass.
//! It is the crate's only implementation of Fig. 4.
//!
//! Workers query the oracle through caller-owned [`OracleScratch`]es —
//! one per worker, allocated once per ordering by the driver — so the
//! implicit row graph's stamped dedup needs no interior mutability and no
//! locks. Every expansion (and each bid/claim phase) is declared as one
//! oracle *segment* via [`ParNeighborOracle::begin_segment`], letting the
//! implicit graph walk each item's posting clique at most once per
//! segment: the first parent holding an item reaches the clique's every
//! row, so later parents could only re-find visited vertices. That keeps
//! a whole frontier expansion at O(nnz) enumeration cost where naive
//! per-parent enumeration pays sum(support^2).
//!
//! # Counter determinism
//!
//! The engine emits `rcm.levels` (total frontier expansions over every
//! BFS it runs) split into `rcm.frontier_parallel` +
//! `rcm.frontier_sequential` by *eligibility* — whether the frontier
//! reached [`PARALLEL_FRONTIER_MIN`] — never by the actual thread count.
//! A run with `threads = 1` therefore reports the same counters as a run
//! with `threads = 8`, keeping the trace-invariance property suite and
//! the `CAHD-O001` identities (`frontier_parallel + frontier_sequential
//! == levels`, `levels >= bfs_levels`) valid for any machine. The
//! counters are also representation-invariant: explicit and implicit
//! oracles produce identical level sets, hence identical counts.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Barrier;

use cahd_obs::Recorder;
use cahd_sparse::{OracleScratch, ParNeighborOracle, Permutation};

use crate::level::LevelStructure;
use crate::peripheral::george_liu_iterate;
use crate::strategy::OrderingStrategy;

/// Frontier width at and above which an expansion is *eligible* for the
/// parallel path (and counted as `rcm.frontier_parallel`). Below it the
/// per-level spawn/barrier overhead outweighs the work; 256 parents keep
/// even degree-1 chains worth splitting eight ways.
pub const PARALLEL_FRONTIER_MIN: usize = 256;

/// Thread count below which [`band_order_traced`] keeps even eligible
/// frontiers on the sequential path: the bid/claim protocol's overhead
/// (two traversals, two barriers, per-level spawns) roughly costs one
/// extra frontier traversal, so splitting it fewer than four ways is a
/// net loss. Output is byte-identical on both paths, and counters
/// classify by frontier width, so the cutoff is invisible outside wall
/// time.
pub const PARALLEL_THREADS_MIN: usize = 4;

/// Ordering-phase counters accumulated by the frontier engine. All fields
/// are pure functions of the graph and the strategy — never of thread
/// scheduling — so they are reproducible across machines and layouts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct FrontierStats {
    /// Connected components ordered.
    components: u64,
    /// Total levels of the final pseudo-peripheral level structures,
    /// summed over components (the paper's rooted-level-structure depth).
    bfs_levels: u64,
    /// Total frontier expansions over every BFS performed (pseudo-
    /// peripheral probes and the CM pass).
    levels: u64,
    /// Expansions whose frontier reached [`PARALLEL_FRONTIER_MIN`].
    parallel: u64,
    /// Expansions below the eligibility threshold.
    sequential: u64,
}

impl FrontierStats {
    /// Records one frontier expansion of `frontier` parents under the
    /// eligibility threshold `frontier_min`.
    fn record(&mut self, frontier: usize, frontier_min: usize) {
        self.levels += 1;
        if frontier >= frontier_min {
            self.parallel += 1;
        } else {
            self.sequential += 1;
        }
    }

    /// Flushes the ordering counters into `rec` (zero counters are
    /// dropped by the recorder).
    fn flush_to(&self, rec: &Recorder) {
        rec.add("rcm.components", self.components);
        rec.add("rcm.bfs_levels", self.bfs_levels);
        rec.add("rcm.levels", self.levels);
        rec.add("rcm.frontier_parallel", self.parallel);
        rec.add("rcm.frontier_sequential", self.sequential);
    }
}

/// What the per-level claim step does with each parent's claimed batch.
/// Both variants sort by a set-determined key, so the output never
/// depends on the oracle's neighbor enumeration order.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Within {
    /// Sort by vertex `id` (level-structure builds). Over ascending
    /// neighbor lists this is exactly a textbook BFS's discovery order.
    Id,
    /// Sort by `(degree, id)` (the Cuthill-McKee rule).
    DegreeThenId,
}

/// Which traversal the driver runs after the pseudo-peripheral search.
#[derive(Clone, Copy, PartialEq, Eq)]
enum BandKind {
    /// Full Cuthill-McKee pass from the pseudo-peripheral root.
    Cm,
    /// Reuse the root's level structure directly as the ordering.
    Bfs,
}

impl BandKind {
    /// Maps the public strategy onto a graph-level traversal. `Cluster`
    /// is a matrix-level strategy dispatched before any graph exists (see
    /// [`crate::unsym`]); if a cluster request reaches the graph engine
    /// anyway it degrades to the nearest graph-level strategy.
    fn of(strategy: OrderingStrategy) -> BandKind {
        match strategy {
            OrderingStrategy::Rcm => BandKind::Cm,
            OrderingStrategy::Bfs | OrderingStrategy::Cluster => BandKind::Bfs,
        }
    }
}

/// Pushes one parent's fresh batch onto `out` under the within-parent
/// rule. `fresh` holds `(key, w)` pairs; for [`Within::Id`] the key *is*
/// the id (duplicated into the pair for a single sort codepath).
fn flush_fresh(fresh: &mut Vec<(u32, u32)>, out: &mut Vec<u32>) {
    fresh.sort_unstable();
    out.extend(fresh.iter().map(|&(_, w)| w));
    fresh.clear();
}

/// The within-parent sort key of a fresh vertex.
#[inline]
fn fresh_key<G: ParNeighborOracle>(g: &G, w: u32, within: Within) -> (u32, u32) {
    match within {
        Within::Id => (w, w),
        Within::DegreeThenId => (g.degree(w as usize) as u32, w),
    }
}

/// One ordering run's working state: the visited marks and claim slots
/// the workers share, one oracle scratch per worker (allocated once per
/// ordering and reused across every frontier of every component), the
/// stamp of the current traversal, and the counters.
struct Engine<'g, G: ParNeighborOracle> {
    g: &'g G,
    threads: usize,
    frontier_min: usize,
    mark: Vec<AtomicU32>,
    owner: Vec<AtomicU32>,
    scratches: Vec<OracleScratch>,
    fresh: Vec<(u32, u32)>,
    stamp: u32,
    stats: FrontierStats,
}

impl<'g, G: ParNeighborOracle> Engine<'g, G> {
    fn new(g: &'g G, threads: usize, frontier_min: usize) -> Self {
        let n = g.n_vertices();
        Engine {
            g,
            threads,
            frontier_min,
            mark: (0..n).map(|_| AtomicU32::new(0)).collect(),
            owner: (0..n).map(|_| AtomicU32::new(u32::MAX)).collect(),
            scratches: (0..threads).map(|_| g.new_scratch()).collect(),
            fresh: Vec::new(),
            stamp: 0,
            stats: FrontierStats::default(),
        }
    }

    /// Opens a new traversal from `root`: stamps strictly increase, so
    /// each traversal sees a clean slate of visited marks.
    fn start(&mut self, root: u32) {
        self.stamp += 1;
        self.mark[root as usize].store(self.stamp, Ordering::Relaxed);
    }

    /// Expands the frontier `current` into `next`, switching between the
    /// parallel and sequential paths by eligibility.
    fn expand(&mut self, current: &[u32], within: Within, next: &mut Vec<u32>) {
        self.stats.record(current.len(), self.frontier_min);
        next.clear();
        if current.len() >= self.frontier_min && self.threads > 1 {
            self.expand_par(current, within, next);
        } else {
            self.expand_seq(current, within, next);
        }
    }

    /// Expands one frontier on the calling thread — the below-threshold path
    /// of the driver: claim-by-first-parent in parent order, which is exactly
    /// the claim-by-minimum-parent rule the parallel path computes. Relaxed
    /// loads/stores on one thread compile to plain memory operations.
    ///
    /// The expansion is one oracle *segment*: the implicit row graph walks
    /// each item's posting clique at most once per level — sound because the
    /// first parent holding an item reaches the whole clique, so later
    /// parents could only re-find visited rows (the marks filter the
    /// duplicates and `v` itself either way).
    fn expand_seq(&mut self, parents: &[u32], within: Within, out: &mut Vec<u32>) {
        let (g, mark, stamp) = (self.g, &self.mark, self.stamp);
        let (scratch, fresh) = (&mut self.scratches[0], &mut self.fresh);
        g.begin_segment(scratch);
        for &v in parents {
            g.visit_neighbors(v as usize, scratch, &mut |w| {
                if mark[w as usize].load(Ordering::Relaxed) != stamp {
                    mark[w as usize].store(stamp, Ordering::Relaxed);
                    fresh.push(fresh_key(g, w, within));
                }
            });
            flush_fresh(fresh, out);
        }
    }

    /// The parallel frontier expansion (module docs, steps 1–3).
    ///
    /// `owner` must be `u32::MAX` everywhere on entry; the claim step restores
    /// that invariant — every bid-on vertex has exactly one claiming parent,
    /// and that parent's worker resets the slot. Other workers racing on the
    /// slot read either the final minimum (not their parent) or the reset
    /// `u32::MAX`; both mean "not mine", so the reset is safe under `Relaxed`
    /// ordering — the barrier separates all bids from all claims. Within one
    /// worker, a vertex bid on by several of its parents is claimed by the
    /// first (the owner reset makes the later re-encounters read MAX).
    ///
    /// Worker `i` gets exclusive use of `scratches[i]`.
    fn expand_par(&mut self, parents: &[u32], within: Within, out: &mut Vec<u32>) {
        let (g, mark, owner, stamp) = (self.g, &self.mark, &self.owner, self.stamp);
        let threads = self.threads;
        // Derive the worker count back from the chunk size: with a plain
        // `threads.min(len)` the ceiling division can leave trailing workers
        // with an empty (out-of-range) slice, and a worker that panics before
        // the barrier strands every other worker at `barrier.wait()`.
        let chunk = parents
            .len()
            .div_ceil(threads.min(parents.len()).max(1))
            .max(1);
        let n_workers = parents.len().div_ceil(chunk).max(1);
        let barrier = Barrier::new(n_workers);
        let claimed: Vec<Vec<u32>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self.scratches[..n_workers]
                .iter_mut()
                .enumerate()
                .map(|(wi, scratch)| {
                    let barrier = &barrier;
                    let lo = wi * chunk;
                    let hi = (lo + chunk).min(parents.len());
                    scope.spawn(move || {
                        // Bid: fetch_min resolves racing parents to the
                        // minimum position — the sequential claimant. Each
                        // phase is one oracle segment, so a segment-dedup
                        // oracle presents each unvisited vertex at the first
                        // chunk parent adjacent to it — the worker's minimum
                        // position, which is all fetch_min needs from this
                        // worker.
                        g.begin_segment(scratch);
                        for (off, &v) in parents[lo..hi].iter().enumerate() {
                            let pos = (lo + off) as u32;
                            g.visit_neighbors(v as usize, scratch, &mut |w| {
                                if mark[w as usize].load(Ordering::Relaxed) != stamp {
                                    owner[w as usize].fetch_min(pos, Ordering::Relaxed);
                                }
                            });
                        }
                        barrier.wait();
                        // Claim: re-traverse (a fresh segment) and keep owned
                        // vertices, grouped per parent. A vertex this worker
                        // owns is re-encountered at exactly the owning
                        // position: the global minimum lies in this chunk, so
                        // it *is* the worker's first adjacent parent. Vertices
                        // owned elsewhere (or already visited) fail the owner
                        // check and fall out.
                        let mut mine: Vec<u32> = Vec::new();
                        let mut fresh: Vec<(u32, u32)> = Vec::new();
                        g.begin_segment(scratch);
                        for (off, &v) in parents[lo..hi].iter().enumerate() {
                            let pos = (lo + off) as u32;
                            g.visit_neighbors(v as usize, scratch, &mut |w| {
                                if owner[w as usize].load(Ordering::Relaxed) == pos {
                                    owner[w as usize].store(u32::MAX, Ordering::Relaxed);
                                    mark[w as usize].store(stamp, Ordering::Relaxed);
                                    fresh.push(fresh_key(g, w, within));
                                }
                            });
                            flush_fresh(&mut fresh, &mut mine);
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        // cahd-lint: allow(L003, reason = "worker panics only propagate caller bugs; the closure itself performs no fallible operations")
                        .expect("frontier worker panicked")
                })
                .collect()
        });
        for c in claimed {
            out.extend_from_slice(&c);
        }
    }

    /// The level structure rooted at `root`, confined to its component.
    fn levels(&mut self, root: u32) -> LevelStructure {
        self.start(root);
        let mut verts: Vec<u32> = vec![root];
        let mut offsets: Vec<usize> = vec![0];
        let mut current: Vec<u32> = vec![root];
        let mut next: Vec<u32> = Vec::new();
        loop {
            offsets.push(verts.len());
            self.expand(&current, Within::Id, &mut next);
            if next.is_empty() {
                break;
            }
            verts.extend_from_slice(&next);
            std::mem::swap(&mut current, &mut next);
        }
        LevelStructure::from_raw(verts, offsets)
    }

    /// The George–Liu pseudo-peripheral root of `start`'s component, with
    /// its level structure.
    fn peripheral(&mut self, start: u32) -> (u32, LevelStructure) {
        let g = self.g;
        george_liu_iterate(|w| g.degree(w as usize), |r| self.levels(r), start)
    }

    /// Appends the Cuthill-McKee ordering of `root`'s component to `order`
    /// (the paper's Fig. 4, steps 2–13, level by level).
    fn cm_component(&mut self, root: u32, order: &mut Vec<u32>) {
        self.start(root);
        let mut current: Vec<u32> = vec![root];
        let mut next: Vec<u32> = Vec::new();
        loop {
            self.expand(&current, Within::DegreeThenId, &mut next);
            order.extend_from_slice(&current);
            if next.is_empty() {
                break;
            }
            std::mem::swap(&mut current, &mut next);
        }
    }

    /// The full-graph driver: per component, in order of its smallest
    /// vertex id, a George–Liu pseudo-peripheral search followed by the
    /// strategy's traversal.
    fn order(&mut self, kind: BandKind) -> Vec<u32> {
        let n = self.g.n_vertices();
        let mut order: Vec<u32> = Vec::with_capacity(n);
        let mut in_order = vec![false; n];
        for start in 0..n {
            if in_order[start] {
                continue;
            }
            let (root, levels) = self.peripheral(start as u32);
            self.stats.components += 1;
            self.stats.bfs_levels += levels.n_levels() as u64;
            let before = order.len();
            match kind {
                BandKind::Cm => self.cm_component(root, &mut order),
                BandKind::Bfs => order.extend_from_slice(levels.vertices()),
            }
            for &v in &order[before..] {
                in_order[v as usize] = true;
            }
        }
        debug_assert_eq!(order.len(), n);
        order
    }
}

/// Finalizes an ordering into the reversed band permutation (the paper's
/// Fig. 4 step 14: "output R in reverse order").
fn reversed_permutation(order: Vec<u32>) -> Permutation {
    // cahd-lint: allow(L003, reason = "the component sweep pushes each vertex exactly once (debug_assert_eq in the driver)")
    let p = Permutation::from_new_to_old(order).expect("band order visits every vertex");
    p.reversed()
}

/// Computes the reversed band ordering of `g` under `strategy` with up to
/// `threads` frontier workers.
///
/// Under [`OrderingStrategy::Rcm`] this is the paper's Fig. 4 (Reverse
/// Cuthill-McKee); the result is the same at every thread count and for
/// every oracle representation (the `ordering_equivalence` and
/// `representation_equivalence` suites check it against a literal Fig. 4
/// transcription). The other strategies are deterministic but cheaper
/// orders with looser band quality.
///
/// # Examples
///
/// ```
/// use cahd_rcm::{band_order, OrderingStrategy};
/// use cahd_sparse::bandwidth::graph_band_stats;
/// use cahd_sparse::{Graph, Permutation};
///
/// // A path graph with scrambled labels has bandwidth 3 as labeled...
/// let g = Graph::from_edges(4, &[(0, 3), (3, 1), (1, 2)]);
/// let before = graph_band_stats(&g, &Permutation::identity(4)).bandwidth;
/// assert_eq!(before, 3);
/// // ...RCM relabels it down to the optimal 1.
/// let p = band_order(&g, OrderingStrategy::Rcm, 1);
/// assert_eq!(graph_band_stats(&g, &p).bandwidth, 1);
/// ```
pub fn band_order<G: ParNeighborOracle>(
    g: &G,
    strategy: OrderingStrategy,
    threads: usize,
) -> Permutation {
    band_order_traced(g, strategy, threads, &Recorder::disabled())
}

/// [`band_order`] recording the ordering counters (`rcm.components`,
/// `rcm.bfs_levels`, `rcm.levels`, `rcm.frontier_parallel`,
/// `rcm.frontier_sequential`) into `rec`. The counters are functions of
/// the graph and strategy only — identical at every thread count.
///
/// The requested thread count is clamped to the machine's available
/// parallelism — extra workers on an oversubscribed host only add spawn
/// and barrier latency — and below [`PARALLEL_THREADS_MIN`] effective
/// workers the expansion runs sequentially even on eligible frontiers:
/// with so few workers the bid/claim protocol costs more than it splits
/// (the second traversal plus two barriers roughly match one extra
/// traversal). The output is byte-identical at every worker count, and
/// the counters classify by frontier *width*, so neither cutoff is
/// visible outside wall time.
pub fn band_order_traced<G: ParNeighborOracle>(
    g: &G,
    strategy: OrderingStrategy,
    threads: usize,
    rec: &Recorder,
) -> Permutation {
    let capped = threads.min(
        std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(usize::MAX),
    );
    let workers = if capped >= PARALLEL_THREADS_MIN {
        capped
    } else {
        1
    };
    band_order_with(g, strategy, workers, PARALLEL_FRONTIER_MIN, rec)
}

/// [`band_order_traced`] with an explicit parallel-eligibility threshold.
///
/// Production code always passes [`PARALLEL_FRONTIER_MIN`]; the override
/// exists so the equivalence suites can force the parallel claim path on
/// graphs far smaller than the production threshold. Counters are
/// computed under the *given* threshold, preserving the `CAHD-O001`
/// identities.
pub fn band_order_with<G: ParNeighborOracle>(
    g: &G,
    strategy: OrderingStrategy,
    threads: usize,
    frontier_min: usize,
    rec: &Recorder,
) -> Permutation {
    // The engine (marks, claim slots, scratches) is dropped before the
    // permutation is built, so the two never coexist in memory.
    let (order, stats) = {
        let mut engine = Engine::new(g, threads.max(1), frontier_min.max(1));
        (engine.order(BandKind::of(strategy)), engine.stats)
    };
    stats.flush_to(rec);
    reversed_permutation(order)
}

/// The engine's level-structure build at one worker, rooted at each of
/// `roots` in turn over one shared set of visited marks.
#[cfg(test)]
pub(crate) fn rooted_levels<G: ParNeighborOracle>(g: &G, roots: &[u32]) -> Vec<LevelStructure> {
    let mut engine = Engine::new(g, 1, PARALLEL_FRONTIER_MIN);
    roots.iter().map(|&r| engine.levels(r)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cahd_sparse::bandwidth::graph_band_stats;
    use cahd_sparse::Graph;

    fn grid(side: usize) -> Graph {
        let mut edges = Vec::new();
        let idx = |r: usize, c: usize| (r * side + c) as u32;
        for r in 0..side {
            for c in 0..side {
                if c + 1 < side {
                    edges.push((idx(r, c), idx(r, c + 1)));
                }
                if r + 1 < side {
                    edges.push((idx(r, c), idx(r + 1, c)));
                }
            }
        }
        Graph::from_edges(side * side, &edges)
    }

    fn graphs() -> Vec<(&'static str, Graph)> {
        vec![
            (
                "path",
                Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]),
            ),
            (
                "star",
                Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]),
            ),
            // A frontier of 9 at 8 threads exercises ceiling-division
            // chunking where a naive worker count leaves a trailing
            // worker with an out-of-range slice (regression: deadlock).
            (
                "star9",
                Graph::from_edges(10, &(1..10u32).map(|v| (0, v)).collect::<Vec<_>>()),
            ),
            (
                "disconnected",
                Graph::from_edges(8, &[(0, 1), (2, 3), (3, 4), (6, 7)]),
            ),
            ("isolated", Graph::from_edges(3, &[])),
            ("empty", Graph::from_edges(0, &[])),
            ("grid6", grid(6)),
        ]
    }

    fn rcm(g: &Graph) -> Vec<u32> {
        band_order(g, OrderingStrategy::Rcm, 1)
            .new_to_old_slice()
            .to_vec()
    }

    #[test]
    fn all_strategies_emit_valid_permutations() {
        for (name, g) in graphs() {
            for strategy in OrderingStrategy::ALL {
                let p = band_order(&g, strategy, 2);
                assert_eq!(p.len(), g.n_vertices(), "{name}/{}", strategy.name());
                assert!(
                    p.then(&p.inverse()).is_identity(),
                    "{name}/{}",
                    strategy.name()
                );
            }
        }
    }

    #[test]
    fn counters_are_thread_count_invariant_and_consistent() {
        for (name, g) in graphs() {
            let mut reports = Vec::new();
            for threads in [1usize, 2, 8] {
                let rec = Recorder::new();
                band_order_with(&g, OrderingStrategy::Rcm, threads, 2, &rec);
                let report = rec.snapshot();
                let counter = |c: &str| report.counter_or_zero(c);
                assert_eq!(
                    counter("rcm.frontier_parallel") + counter("rcm.frontier_sequential"),
                    counter("rcm.levels"),
                    "{name} at {threads} threads"
                );
                assert!(
                    counter("rcm.levels") >= counter("rcm.bfs_levels"),
                    "{name} at {threads} threads"
                );
                reports.push((
                    counter("rcm.components"),
                    counter("rcm.bfs_levels"),
                    counter("rcm.levels"),
                    counter("rcm.frontier_parallel"),
                    counter("rcm.frontier_sequential"),
                ));
            }
            assert!(
                reports.windows(2).all(|w| w[0] == w[1]),
                "{name}: counters varied with thread count: {reports:?}"
            );
        }
    }

    #[test]
    fn path_is_ordered_end_to_end() {
        // Root search from 0 keeps 0 (ecc(3) does not exceed ecc(0)); CM
        // walks 0..3, and the reversal outputs 3..0.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(rcm(&g), vec![3, 2, 1, 0]);
    }

    #[test]
    fn fresh_neighbors_sort_by_degree_before_id() {
        // 0-1, 0-2, 2-3, 2-4: the root search settles on 3. From 3, CM
        // reaches 2, whose fresh neighbors are 0 (degree 2) and 4
        // (degree 1): 4 comes first despite the larger id.
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (2, 3), (2, 4)]);
        assert_eq!(rcm(&g), vec![1, 0, 4, 2, 3]);
    }

    #[test]
    fn equal_degrees_tie_break_by_id() {
        // Star 0-{1,2,3}: root 1; from the centre, leaves 2 and 3 (both
        // degree 1) follow in id order. CM = [1, 0, 2, 3].
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(rcm(&g), vec![3, 2, 0, 1]);
    }

    #[test]
    fn components_are_ordered_by_smallest_id_one_after_another() {
        // Isolated 0, then the edge 1-2: CM = [0, 1, 2]; each component
        // holds only its own vertices.
        let g = Graph::from_edges(3, &[(1, 2)]);
        assert_eq!(rcm(&g), vec![2, 1, 0]);
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(rcm(&g), vec![3, 2, 1, 0]);
    }

    #[test]
    fn shuffled_path_recovers_bandwidth_one() {
        // Path relabeled badly: 3-0-4-1-2 chain.
        let g = Graph::from_edges(5, &[(3, 0), (0, 4), (4, 1), (1, 2)]);
        assert!(graph_band_stats(&g, &Permutation::identity(5)).bandwidth > 1);
        let p = band_order(&g, OrderingStrategy::Rcm, 1);
        assert_eq!(graph_band_stats(&g, &p).bandwidth, 1);
    }

    #[test]
    fn grid_graph_bandwidth_bounded() {
        // 5x5 grid graph: optimal bandwidth is 5; RCM should reach <= 6.
        let g = grid(5);
        let p = band_order(&g, OrderingStrategy::Rcm, 1);
        let s = graph_band_stats(&g, &p);
        assert!(s.bandwidth <= 6, "bandwidth {}", s.bandwidth);
    }

    #[test]
    fn disconnected_components_all_ordered() {
        let g = Graph::from_edges(6, &[(0, 1), (3, 4), (4, 5)]);
        let p = band_order(&g, OrderingStrategy::Rcm, 1);
        assert_eq!(p.len(), 6);
        assert_eq!(graph_band_stats(&g, &p).bandwidth, 1);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, &[]);
        assert!(band_order(&g, OrderingStrategy::Rcm, 1).is_empty());
    }

    #[test]
    fn rcm_profile_not_worse_than_cm() {
        // Classic property: RCM profile <= CM profile (CM is the
        // unreversed order).
        let g = Graph::from_edges(
            8,
            &[
                (0, 2),
                (0, 5),
                (1, 3),
                (2, 6),
                (3, 7),
                (5, 6),
                (6, 7),
                (1, 4),
            ],
        );
        let rcm = band_order(&g, OrderingStrategy::Rcm, 1);
        let cm = rcm.reversed();
        let pc = graph_band_stats(&g, &cm).profile;
        let pr = graph_band_stats(&g, &rcm).profile;
        assert!(pr <= pc, "rcm profile {pr} > cm profile {pc}");
    }

    #[test]
    fn bfs_strategy_bandwidth_is_reasonable_on_path() {
        // A path ordered by pure BFS from a peripheral end is optimal.
        let g = Graph::from_edges(
            9,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 8),
            ],
        );
        let p = band_order(&g, OrderingStrategy::Bfs, 1);
        assert_eq!(graph_band_stats(&g, &p).bandwidth, 1);
    }

    #[test]
    fn golden_bandwidth_bounds_per_strategy() {
        // 6x6 grid: optimal bandwidth 6. RCM must reach <= 7; BFS from a
        // corner stays within the level-structure width bound (<= 11).
        let grid = grid(6);
        let rcm_bw =
            graph_band_stats(&grid, &band_order(&grid, OrderingStrategy::Rcm, 2)).bandwidth;
        assert!(rcm_bw <= 7, "rcm bandwidth {rcm_bw}");
        let bfs_bw =
            graph_band_stats(&grid, &band_order(&grid, OrderingStrategy::Bfs, 2)).bandwidth;
        assert!(bfs_bw <= 11, "bfs bandwidth {bfs_bw}");
        assert!(rcm_bw <= bfs_bw, "rcm {rcm_bw} worse than bfs {bfs_bw}");
    }
}
