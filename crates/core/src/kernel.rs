//! The adaptive sparse/dense QID-similarity kernel.
//!
//! CAHD's dominant cost (paper Section V, Fig. 8) is the QID-overlap
//! score `|QID(t) ∩ QID(c)|`, recomputed for every candidate of every
//! sensitive pivot — `alpha * p` set intersections per pivot. This module
//! concentrates all of that scoring behind one layer with two
//! interchangeable physical representations:
//!
//! * **sparse** — the stamped-marker scan: stamp the pivot's items into a
//!   per-item epoch array, then count a candidate's stamped items. Cost is
//!   `O(|QID(c)|)` random loads; unbeatable for short rows.
//! * **dense** — the candidate's row packed into cache-line-aligned `u64`
//!   bitset blocks, scored by an AND + `popcount` sweep against the
//!   pivot's bitset. Cost is `O(width / 64)` sequential word ops, where
//!   `width` is the kernel's item space (below); unbeatable for long rows
//!   over a compact universe.
//!
//! [`SimilarityKernel`] picks per *candidate* (see
//! [`SimilarityKernel::DENSE_ITEM_WORDS`] for the crossover rule), so a
//! dataset with a dense head and a sparse long tail uses both paths in one
//! run.
//!
//! Both paths read the rows as one borrowed flat view ([`Rows`]: offsets
//! into one item array, the form [`RowSplit`](crate::split::RowSplit)
//! fills), in the rows' own item space. When the universe is wide for
//! the rows (`n_items > 2·nnz`, decided by
//! [`Relabel::when_wide`](cahd_sparse::Relabel::when_wide), the rule the
//! band reduction compacts its columns by), the kernel keeps one more
//! array: the rank of every entry among the distinct items the rows use.
//! The relabel is a bijection on those items, so every
//! `|QID(t) ∩ QID(c)|` is unchanged, and the stamps, the pivot bitset, the
//! arena stride and the dense crossover are all sized on the compacted
//! width `k`: a stream batch over a 2M-item universe allocates for its
//! few thousand items, not for the universe. Only the view's own entries
//! count, so a shard's kernel over rows `lo..hi` of the shared split is
//! sized exactly as one over a copy of those rows. Narrower universes
//! score the borrowed items as they stand.
//!
//! Packing is lazy and cached: the band-order scan gives consecutive
//! pivots heavily overlapping `alpha * p` candidate windows, so a bitset
//! packed for one pivot is almost always reused by the next few — the
//! cache of packed rows is exactly the "per-candidate partial result"
//! that band order lets us keep. (The pivot-*dependent* half of the
//! score, the intersection itself, is recomputed per pivot on purpose:
//! a delta update against the previous pivot would have to inspect both
//! pivot rows, which already costs as much as scoring from scratch.)
//!
//! Every scorer here shares the wrap-safe [`StampSet`] epoch allocator,
//! which clears the marker array when the `u32` epoch overflows instead
//! of letting stale stamps alias fresh ones.
//!
//! The kernel counts its path decisions ([`KernelStats`]) and flushes
//! them to `cahd-obs` as `core.kernel_dense_scores`,
//! `core.kernel_sparse_scores` and `core.kernel_cache_hits`; the
//! `CAHD-O001` check pass audits `dense + sparse ==
//! core.candidates_scanned` so accounting drift is caught in CI.

use cahd_data::ItemId;
use cahd_obs::Recorder;
use cahd_sparse::Relabel;

use crate::split::Rows;

/// The similarity kernel's configuration. There is one kernel, the
/// adaptive one: each candidate takes the dense path when
/// `DENSE_ITEM_WORDS · |row| ≥ words` (see
/// [`SimilarityKernel::DENSE_ITEM_WORDS`]). The type stays only as the
/// value of [`CahdConfig::kernel`](crate::cahd::CahdConfig::kernel), which
/// no code path reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KernelMode {
    /// Choose per candidate by the measured row length.
    #[default]
    Adaptive,
}

/// Path counters of a kernel instance. Deterministic functions of the
/// scored workload — never of thread scheduling — so sums over shards are
/// reproducible and the `CAHD-O001` identities hold for any layout.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Candidates scored by the bitset `popcount` path.
    pub dense_scores: u64,
    /// Candidates scored by the stamped sparse scan.
    pub sparse_scores: u64,
    /// Dense scores served from an already-packed bitset (a strict subset
    /// of `dense_scores`): the candidate was packed while scoring an
    /// earlier, overlapping pivot window.
    pub cache_hits: u64,
}

impl KernelStats {
    /// Total candidates scored, over both paths.
    pub fn total_scores(&self) -> u64 {
        self.dense_scores + self.sparse_scores
    }

    /// Flushes the three kernel counters into `rec` (zero counters are
    /// dropped by the recorder). Additive, so per-shard kernels can each
    /// flush into one recorder and the totals stay scheduling-invariant.
    pub fn flush_to(&self, rec: &Recorder) {
        rec.add("core.kernel_dense_scores", self.dense_scores);
        rec.add("core.kernel_sparse_scores", self.sparse_scores);
        rec.add("core.kernel_cache_hits", self.cache_hits);
    }
}

/// A wrap-safe stamped marker set over `0..n`.
///
/// The classic trick: instead of clearing a membership array between
/// pivots, bump an epoch and treat `stamp[i] == epoch` as membership.
/// The latent failure mode is the epoch wrapping after `2^32` uses —
/// entries stamped exactly `2^32` epochs ago would alias the fresh epoch
/// and phantom-match. `begin` closes the hole by clearing the array and
/// restarting the epoch at 1 when the counter would overflow, keeping
/// the amortized cost at `O(1)` per use.
#[derive(Clone, Debug)]
pub(crate) struct StampSet {
    stamp: Vec<u32>,
    epoch: u32,
}

impl StampSet {
    /// An empty set over the domain `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        StampSet {
            stamp: vec![0u32; n],
            epoch: 0,
        }
    }

    /// Starts a new (empty) epoch, clearing the array on wrap.
    pub(crate) fn begin(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Inserts `i` into the current epoch.
    pub(crate) fn mark(&mut self, i: usize) {
        self.stamp[i] = self.epoch;
    }

    /// Whether `i` was marked in the current epoch.
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.stamp[i] == self.epoch
    }

    /// Test hook: fast-forwards the epoch counter so the wrap path can be
    /// exercised without `2^32` real pivots.
    #[cfg(test)]
    pub(crate) fn force_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }
}

/// The scored rows in the kernel's own item space (see the module docs):
/// the borrowed flat rows, plus their items relabeled to ranks when the
/// universe is wide for them.
struct ItemSpace<'a> {
    rows: Rows<'a>,
    /// The rank of every entry of `rows.entries()`, in order; `None` when
    /// the rows are used as given.
    relabeled: Option<Vec<ItemId>>,
    /// Items the space covers: `n_items`, or the number of distinct items
    /// the rows use.
    width: usize,
}

impl<'a> ItemSpace<'a> {
    /// The rows over `0..n_items`, relabeled when that universe is wide
    /// for them ([`Relabel::when_wide`]). Only the view's own entries
    /// count: a shard's space is sized on its rows alone.
    fn of(rows: Rows<'a>, n_items: usize) -> Self {
        let entries = rows.entries();
        match Relabel::when_wide(n_items, entries.len(), entries.iter().copied()) {
            None => ItemSpace {
                rows,
                relabeled: None,
                width: n_items,
            },
            Some((relabel, ranks)) => ItemSpace {
                rows,
                relabeled: Some(ranks),
                width: relabel.ids().len(),
            },
        }
    }

    #[inline]
    fn row(&self, r: usize) -> &[ItemId] {
        match &self.relabeled {
            None => self.rows.row(r),
            Some(ranks) => {
                let (base, at) = (self.rows.base(), self.rows.range(r));
                &ranks[at.start - base..at.end - base]
            }
        }
    }
}

/// The reference QID-overlap scorer: `|QID(t) ∩ QID(c)|` via the stamped
/// sparse scan over the whole universe, always (it never relabels). This
/// is the pre-kernel behavior (minus the stamp wrap bug) and the ground
/// truth the equivalence property suite scores [`SimilarityKernel`]
/// against.
pub struct QidOverlapScorer<'a> {
    qid_of: &'a [Vec<ItemId>],
    stamps: StampSet,
}

impl<'a> QidOverlapScorer<'a> {
    /// A scorer over the given QID rows (`score` takes indices into
    /// `qid_of`); items must lie in `0..n_items`.
    pub fn new(qid_of: &'a [Vec<ItemId>], n_items: usize) -> Self {
        QidOverlapScorer {
            qid_of,
            stamps: StampSet::new(n_items),
        }
    }

    /// Fills `out` with one overlap score per candidate.
    pub fn score(&mut self, t: usize, candidates: &[usize], out: &mut Vec<u64>) {
        let rows = self.qid_of;
        self.stamps.begin();
        for &it in &rows[t] {
            self.stamps.mark(it as usize);
        }
        out.clear();
        out.extend(candidates.iter().map(|&c| {
            rows[c]
                .iter()
                .filter(|&&it| self.stamps.contains(it as usize))
                .count() as u64
        }));
    }
}

/// The adaptive hybrid scorer. See the module docs for the two physical
/// paths and the caching scheme; construction is cheap (no packing
/// happens until a row is actually scored on the dense path).
pub struct SimilarityKernel<'a> {
    space: ItemSpace<'a>,
    /// `u64` words needed to cover the kernel's item space.
    words: usize,
    /// Arena stride: `words` rounded up to a whole 64-byte cache line, so
    /// every packed row starts line-aligned relative to the arena base
    /// and a score sweep touches the minimum number of lines.
    stride: usize,
    stamps: StampSet,
    /// The pivot's bitset, rebuilt lazily: only when the current pivot
    /// actually scores a dense candidate.
    pivot_bits: Vec<u64>,
    pivot_bits_valid: bool,
    /// Per-row arena slot of the packed bitset, `u32::MAX` = not packed.
    packed_slot: Vec<u32>,
    /// Packed row bitsets, `stride` words each, append-only: rows never
    /// change during a scan, so a packed bitset stays valid for the whole
    /// run and grouping a row merely stops it from being looked up again.
    arena: Vec<u64>,
    stats: KernelStats,
}

/// Sentinel for "row not packed yet".
const UNPACKED: u32 = u32::MAX;

/// `u64` words per 64-byte cache line.
const LINE_WORDS: usize = 8;

impl<'a> SimilarityKernel<'a> {
    /// Adaptive crossover: a candidate row goes dense when
    /// `DENSE_ITEM_WORDS * |row| >= words`, i.e. (at the current value 1)
    /// when the row averages at least one item per bitset word. A stamped
    /// sparse probe is a dependent random load and a bitset word is a
    /// sequential AND+`popcount`, so per-op the probe is costlier — but a
    /// dense score also pays the first-touch packing of the candidate and
    /// the lazy pivot-bitset build, so the break-even sits near one probe
    /// per word, not several. Measured on the perf-snapshot profiles: a
    /// factor of 4 sent BMS1's 2-item average rows (8-word universe) down
    /// the dense path and cost ~10% of group time; at 1, those rows stay
    /// sparse, BMS2's 5-items-in-53-words rows stay sparse, and
    /// Quest-style dense rows (~50 items in 7 words) still go to
    /// `popcount` for a 15-25% group-phase win.
    pub const DENSE_ITEM_WORDS: usize = 1;

    /// A kernel over the given QID rows (`score` takes row indices of
    /// `qid`); items must lie in `0..n_items`. Over a wide universe the
    /// rows are relabeled first (see the module docs), so every buffer
    /// below is sized on the items the rows use.
    pub fn new(qid: Rows<'a>, n_items: usize) -> Self {
        let space = ItemSpace::of(qid, n_items);
        let words = space.width.div_ceil(64);
        let stride = words.next_multiple_of(LINE_WORDS).max(LINE_WORDS);
        SimilarityKernel {
            stamps: StampSet::new(space.width),
            space,
            words,
            stride,
            pivot_bits: vec![0u64; words],
            pivot_bits_valid: false,
            packed_slot: vec![UNPACKED; qid.len()],
            arena: Vec::new(),
            stats: KernelStats::default(),
        }
    }

    /// The path counters accumulated so far.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Flushes the kernel counters into `rec` (see
    /// [`KernelStats::flush_to`]).
    pub fn flush_to(&self, rec: &Recorder) {
        self.stats.flush_to(rec);
    }

    /// Fills `out` with one overlap score per candidate, choosing the
    /// physical path per candidate. Exactly equivalent to
    /// [`QidOverlapScorer::score`].
    pub fn score(&mut self, t: usize, candidates: &[usize], out: &mut Vec<u64>) {
        self.stamps.begin();
        for &it in self.space.row(t) {
            self.stamps.mark(it as usize);
        }
        self.pivot_bits_valid = false;
        out.clear();
        for &c in candidates {
            let s = if Self::DENSE_ITEM_WORDS * self.space.row(c).len() >= self.words {
                self.score_dense(t, c)
            } else {
                self.score_sparse(c)
            };
            out.push(s);
        }
    }

    fn score_sparse(&mut self, c: usize) -> u64 {
        self.stats.sparse_scores += 1;
        self.space
            .row(c)
            .iter()
            .filter(|&&it| self.stamps.contains(it as usize))
            .count() as u64
    }

    fn score_dense(&mut self, t: usize, c: usize) -> u64 {
        self.stats.dense_scores += 1;
        if !self.pivot_bits_valid {
            self.pivot_bits.fill(0);
            for &it in self.space.row(t) {
                self.pivot_bits[(it as usize) >> 6] |= 1u64 << (it & 63);
            }
            self.pivot_bits_valid = true;
        }
        let base = match self.packed_slot[c] {
            UNPACKED => {
                let base = self.arena.len();
                self.arena.resize(base + self.stride, 0);
                for &it in self.space.row(c) {
                    self.arena[base + ((it as usize) >> 6)] |= 1u64 << (it & 63);
                }
                self.packed_slot[c] = (base / self.stride) as u32;
                base
            }
            slot => {
                self.stats.cache_hits += 1;
                slot as usize * self.stride
            }
        };
        self.arena[base..base + self.words]
            .iter()
            .zip(&self.pivot_bits)
            .map(|(a, b)| u64::from((a & b).count_ones()))
            .sum()
    }
}

/// The count-valued scorer behind
/// [`WeightedSimilarity::MinCount`](crate::weighted::WeightedSimilarity):
/// `Σ_{i ∈ QID(t) ∩ QID(c)} min(count_t(i), count_c(i))`. Counts cannot
/// ride in a one-bit-per-item bitset, so this is a sparse-only kernel
/// client — it shares the wrap-safe [`StampSet`] (the stamp carries the
/// pivot's count alongside the epoch) and reports its work as sparse
/// kernel scores. It relabels a wide universe exactly like
/// [`SimilarityKernel`], so its stamps and counts are sized on the items
/// the rows use.
pub struct MinCountScorer<'a> {
    space: ItemSpace<'a>,
    /// The count of every entry of the rows' item array.
    counts: &'a [u32],
    stamps: StampSet,
    pivot_count: Vec<u32>,
    stats: KernelStats,
}

impl<'a> MinCountScorer<'a> {
    /// A scorer over the given QID rows, whose entry at position `k` of
    /// the rows' item array has count `counts[k]` (see
    /// [`RowSplit::weights`](crate::split::RowSplit::weights)); items
    /// must lie in `0..n_items`.
    pub fn new(qid: Rows<'a>, counts: &'a [u32], n_items: usize) -> Self {
        let space = ItemSpace::of(qid, n_items);
        MinCountScorer {
            stamps: StampSet::new(space.width),
            pivot_count: vec![0u32; space.width],
            space,
            counts,
            stats: KernelStats::default(),
        }
    }

    /// The path counters accumulated so far (sparse only).
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Flushes the kernel counters into `rec` (see
    /// [`KernelStats::flush_to`]).
    pub fn flush_to(&self, rec: &Recorder) {
        self.stats.flush_to(rec);
    }

    /// Fills `out` with one min-count similarity per candidate.
    pub fn score(&mut self, t: usize, candidates: &[usize], out: &mut Vec<u64>) {
        let MinCountScorer {
            space,
            counts,
            stamps,
            pivot_count,
            stats,
        } = self;
        // Row `r`'s `(item, count)` entries, in the scorer's item space.
        let entries = |r: usize| space.row(r).iter().zip(&counts[space.rows.range(r)]);
        stamps.begin();
        for (&item, &c) in entries(t) {
            stamps.mark(item as usize);
            pivot_count[item as usize] = c;
        }
        out.clear();
        for &cand in candidates {
            stats.sparse_scores += 1;
            let s: u64 = entries(cand)
                .filter(|&(&item, _)| stamps.contains(item as usize))
                .map(|(&item, &c)| u64::from(c.min(pivot_count[item as usize])))
                .sum();
            out.push(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::FlatRows;

    /// Universe for the mixed fixture: 512 items = 8 words, so the
    /// adaptive crossover needs 8+ items for the dense path — the ~25-item
    /// head rows go dense, the 1-2-item tail stays sparse. It is not wide
    /// for the fixture's 318 non-zeros, so the kernel keeps it as given.
    const N_ITEMS: usize = 512;

    /// A mixed fixture: dense head rows and a sparse long tail over a
    /// universe wide enough that Adaptive takes both paths.
    fn mixed_rows() -> Vec<Vec<ItemId>> {
        let mut rows: Vec<Vec<ItemId>> = Vec::new();
        for i in 0..12u32 {
            // Dense rows: ~25 items each, shifted windows so overlaps vary.
            rows.push((0..25).map(|j| (i * 3 + j) % 100).collect());
        }
        for i in 0..12u32 {
            // Sparse tail: 1-2 items.
            rows.push(if i % 2 == 0 {
                vec![i % 100]
            } else {
                vec![i % 100, (i + 50) % 100]
            });
        }
        for row in &mut rows {
            row.sort_unstable();
            row.dedup();
        }
        rows
    }

    /// Scores every pivot against every other row with the kernel and the
    /// reference scorer, asserts equal scores, and returns the kernel's
    /// path counters.
    fn assert_matches_reference(rows: &[Vec<ItemId>], n_items: usize) -> KernelStats {
        let mut reference = QidOverlapScorer::new(rows, n_items);
        let flat = FlatRows::from_rows(rows);
        let mut kernel = SimilarityKernel::new(flat.rows(), n_items);
        let mut want = Vec::new();
        let mut got = Vec::new();
        let mut overlapping = false;
        for t in 0..rows.len() {
            let candidates: Vec<usize> = (0..rows.len()).filter(|&c| c != t).collect();
            reference.score(t, &candidates, &mut want);
            kernel.score(t, &candidates, &mut got);
            assert_eq!(got, want, "pivot {t}");
            overlapping |= want.iter().any(|&s| s > 0);
        }
        assert!(overlapping, "the fixture must overlap");
        kernel.stats()
    }

    #[test]
    fn kernel_matches_the_reference_scorer() {
        let stats = assert_matches_reference(&mixed_rows(), N_ITEMS);
        assert!(stats.dense_scores > 0, "{stats:?}");
        assert!(stats.sparse_scores > 0, "{stats:?}");
    }

    /// Each path on its own, reached by the input alone: the mixed
    /// fixture's ~25-item head rows all clear the 8-word crossover, and
    /// two-item rows over a 256-item universe (4 words, not wide for
    /// their ~190 non-zeros) all fall below it.
    #[test]
    fn each_path_alone_matches_the_reference_scorer() {
        let dense = assert_matches_reference(&mixed_rows()[..12], N_ITEMS);
        assert!(dense.dense_scores > 0, "{dense:?}");
        assert_eq!(dense.sparse_scores, 0, "{dense:?}");

        let short: Vec<Vec<ItemId>> = (0..96u32)
            .map(|i| {
                let mut row = vec![i % 200, (i * 7 + 3) % 200];
                row.sort_unstable();
                row.dedup();
                row
            })
            .collect();
        let sparse = assert_matches_reference(&short, 256);
        assert!(sparse.sparse_scores > 0, "{sparse:?}");
        assert_eq!(sparse.dense_scores, 0, "{sparse:?}");
    }

    #[test]
    fn adaptive_uses_both_paths_and_caches_across_windows() {
        let rows = FlatRows::from_rows(&mixed_rows());
        let mut kernel = SimilarityKernel::new(rows.rows(), N_ITEMS);
        let mut out = Vec::new();
        // Overlapping windows, like consecutive band-order pivots.
        for t in 0..6 {
            let candidates: Vec<usize> = (t + 1..t + 13).collect();
            kernel.score(t, &candidates, &mut out);
        }
        let stats = kernel.stats();
        assert!(stats.dense_scores > 0, "{stats:?}");
        assert!(stats.sparse_scores > 0, "{stats:?}");
        assert!(
            stats.cache_hits > 0,
            "overlapping windows must hit: {stats:?}"
        );
        assert!(stats.cache_hits < stats.dense_scores, "{stats:?}");
        assert_eq!(stats.total_scores(), 6 * 12);
    }

    /// The satellite regression test for the stamp-aliasing bug: with the
    /// epoch forced next to `u32::MAX`, scoring must survive the wrap.
    /// The pre-fix scorer (`istamp += 1` with no reset) would wrap the
    /// epoch to 0 — the array's *initial* value — making every item of
    /// every candidate phantom-match the pivot.
    #[test]
    fn reference_scorer_survives_stamp_wrap() {
        let rows = mixed_rows();
        let mut fresh = QidOverlapScorer::new(&rows, N_ITEMS);
        let mut wrapping = QidOverlapScorer::new(&rows, N_ITEMS);
        wrapping.stamps.force_epoch(u32::MAX - 2);
        let candidates: Vec<usize> = (1..rows.len()).collect();
        let (mut want, mut got) = (Vec::new(), Vec::new());
        // Epochs MAX-1, MAX, then the wrap path (clear + epoch 1), then 2.
        for t in 0..4 {
            fresh.score(t, &candidates, &mut want);
            wrapping.score(t, &candidates, &mut got);
            assert_eq!(got, want, "pivot {t}");
        }
        assert_eq!(wrapping.stamps.epoch, 2, "wrap must restart the epoch");
    }

    #[test]
    fn adaptive_kernel_survives_stamp_wrap() {
        let rows = FlatRows::from_rows(&mixed_rows());
        let mut fresh = SimilarityKernel::new(rows.rows(), N_ITEMS);
        let mut wrapping = SimilarityKernel::new(rows.rows(), N_ITEMS);
        wrapping.stamps.force_epoch(u32::MAX - 1);
        let candidates: Vec<usize> = (1..rows.rows().len()).collect();
        let (mut want, mut got) = (Vec::new(), Vec::new());
        for t in 0..3 {
            fresh.score(t, &candidates, &mut want);
            wrapping.score(t, &candidates, &mut got);
            assert_eq!(got, want, "pivot {t}");
        }
    }

    #[test]
    fn min_count_scorer_survives_stamp_wrap() {
        let (rows, counts) = flat_counted(&[
            vec![(0, 5), (1, 3), (7, 2)],
            vec![(0, 2), (1, 9)],
            vec![(1, 1), (7, 4)],
            vec![(2, 6)],
        ]);
        let mut fresh = MinCountScorer::new(rows.rows(), &counts, 10);
        let mut wrapping = MinCountScorer::new(rows.rows(), &counts, 10);
        wrapping.stamps.force_epoch(u32::MAX - 1);
        let candidates = vec![1usize, 2, 3];
        let (mut want, mut got) = (Vec::new(), Vec::new());
        for t in 0..3 {
            fresh.score(t, &candidates, &mut want);
            wrapping.score(t, &candidates, &mut got);
            assert_eq!(got, want, "pivot {t}");
        }
        // Spot-check the min-count semantics while we are here:
        // pivot 0 vs candidate 1 shares items 0 (min(5,2)=2) and 1
        // (min(3,9)=3).
        fresh.score(0, &[1], &mut want);
        assert_eq!(want, vec![5]);
    }

    /// `(item, count)` rows as flat QID rows plus their aligned counts.
    fn flat_counted(rows: &[Vec<(ItemId, u32)>]) -> (FlatRows, Vec<u32>) {
        let items: Vec<Vec<ItemId>> = rows
            .iter()
            .map(|row| row.iter().map(|&(item, _)| item).collect())
            .collect();
        let counts = rows.iter().flatten().map(|&(_, c)| c).collect();
        (FlatRows::from_rows(&items), counts)
    }

    /// `mixed_rows` spread over a 2M-item universe: ids `i * 20_011`, so
    /// the kernel relabels the 60 items the rows touch.
    fn wide_rows() -> (Vec<Vec<ItemId>>, usize) {
        let rows = mixed_rows()
            .into_iter()
            .map(|row| row.into_iter().map(|i| i * 20_011).collect())
            .collect();
        (rows, 1 << 21)
    }

    #[test]
    fn wide_universe_is_relabeled_and_matches_the_reference() {
        let (rows, n_items) = wide_rows();
        let flat = FlatRows::from_rows(&rows);
        let kernel = SimilarityKernel::new(flat.rows(), n_items);
        assert!(kernel.space.relabeled.is_some());
        assert_eq!(kernel.space.width, 60);
        assert_eq!(kernel.words, 1);
        assert_eq!(kernel.stamps.stamp.len(), 60);
        assert_matches_reference(&rows, n_items);
        // The narrow fixture borrows its rows.
        let rows = FlatRows::from_rows(&mixed_rows());
        let kernel = SimilarityKernel::new(rows.rows(), N_ITEMS);
        assert!(kernel.space.relabeled.is_none());
        assert_eq!(kernel.words, N_ITEMS / 64);
    }

    /// A shard scores rows `lo..hi` of the one split every shard shares.
    /// Its item space must be sized on those rows alone, exactly as if
    /// they had been copied out: same width, scores and path counters.
    #[test]
    fn a_slice_of_shared_rows_scores_like_a_copy_of_them() {
        let (rows, n_items) = wide_rows();
        let shared = FlatRows::from_rows(&rows);
        let (lo, hi) = (6, 18);
        let copy = FlatRows::from_rows(&rows[lo..hi]);
        let mut sliced = SimilarityKernel::new(shared.rows().slice(lo, hi), n_items);
        let mut copied = SimilarityKernel::new(copy.rows(), n_items);
        assert!(sliced.space.relabeled.is_some());
        assert_eq!(sliced.space.width, copied.space.width);
        assert_eq!(sliced.space.width, 46, "only the slice's own items count");
        assert_eq!(sliced.words, copied.words);
        let n = hi - lo;
        let (mut want, mut got) = (Vec::new(), Vec::new());
        for t in 0..n {
            let candidates: Vec<usize> = (0..n).filter(|&c| c != t).collect();
            copied.score(t, &candidates, &mut want);
            sliced.score(t, &candidates, &mut got);
            assert_eq!(got, want, "pivot {t}");
        }
        assert_eq!(sliced.stats(), copied.stats());
    }

    #[test]
    fn wide_min_count_scorer_matches_the_uncompacted_one() {
        let (rows, n_items) = wide_rows();
        let counted: Vec<Vec<(ItemId, u32)>> = rows
            .iter()
            .enumerate()
            .map(|(r, row)| {
                row.iter()
                    .enumerate()
                    .map(|(j, &i)| (i, 1 + ((r * 7 + j * 3) % 5) as u32))
                    .collect()
            })
            .collect();
        let (flat, counts) = flat_counted(&counted);
        let mut compacted = MinCountScorer::new(flat.rows(), &counts, n_items);
        assert!(compacted.space.relabeled.is_some());
        assert_eq!(compacted.pivot_count.len(), 60);
        let mut uncompacted = MinCountScorer {
            space: ItemSpace {
                rows: flat.rows(),
                relabeled: None,
                width: n_items,
            },
            counts: &counts,
            stamps: StampSet::new(n_items),
            pivot_count: vec![0u32; n_items],
            stats: KernelStats::default(),
        };
        let (mut want, mut got) = (Vec::new(), Vec::new());
        for t in 0..counted.len() {
            let candidates: Vec<usize> = (0..counted.len()).filter(|&c| c != t).collect();
            uncompacted.score(t, &candidates, &mut want);
            compacted.score(t, &candidates, &mut got);
            assert_eq!(got, want, "pivot {t}");
        }
        assert!(want.iter().any(|&s| s > 0), "the fixture must overlap");
        assert_eq!(compacted.stats(), uncompacted.stats());
    }

    #[test]
    fn empty_rows_and_tiny_universes_score_zero() {
        let rows = FlatRows::from_rows(&[vec![], vec![0], vec![]]);
        let mut kernel = SimilarityKernel::new(rows.rows(), 1);
        let mut out = Vec::new();
        kernel.score(0, &[1, 2], &mut out);
        assert_eq!(out, vec![0, 0]);
    }

    #[test]
    fn stats_flush_is_additive_across_instances() {
        let rows = FlatRows::from_rows(&mixed_rows());
        let rec = Recorder::new();
        for lo in [0usize, 6] {
            let mut kernel = SimilarityKernel::new(rows.rows(), N_ITEMS);
            let mut out = Vec::new();
            let candidates: Vec<usize> = (lo + 1..lo + 8).collect();
            kernel.score(lo, &candidates, &mut out);
            kernel.flush_to(&rec);
        }
        let report = rec.snapshot();
        let dense = report.counter_or_zero("core.kernel_dense_scores");
        let sparse = report.counter_or_zero("core.kernel_sparse_scores");
        assert_eq!(dense + sparse, 14);
    }
}
