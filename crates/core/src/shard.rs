//! Sharded, multi-threaded CAHD group formation.
//!
//! The band structure the RCM reorganization creates is exactly what makes
//! sharding safe: transactions far apart in band order share almost no
//! items, so splitting the row sequence into `k` *contiguous* shards and
//! running the CAHD scan independently per shard loses only the groups
//! that would have straddled a boundary. Terrovitis & Mamoulis's
//! disassociation work makes the privacy side of this precise:
//! partitioning transactions into clusters anonymized independently
//! preserves the guarantee, because each cluster's release is a valid
//! release of its own rows.
//!
//! # Merge semantics and the `1/p` bound
//!
//! Each shard runs the verified `form_groups` engine over its own rows
//! with a *per-shard* remaining-occurrence histogram. The merged release
//! is deterministic and scheduling-independent:
//!
//! * regular groups are emitted in shard order (all of shard 0's groups,
//!   then shard 1's, ...), each of size exactly `p`;
//! * every shard's leftover rows are funneled into **one** final global
//!   group instead of one per shard.
//!
//! The boundary-histogram argument for why the per-group `1/p` bound
//! survives the merge: a shard whose scan accepted at least one group ends
//! in a state where `H_i[s] * p <= r_i` for every sensitive item `s`
//! (that inequality *is* the acceptance test, evaluated on the
//! would-be-leftover state), and a shard that accepted none either
//! satisfies it vacuously (its initial histogram was feasible) or is
//! locally infeasible. Summing the per-shard inequalities over feasible
//! shards gives `Σ H_i[s] * p <= Σ r_i` — the merged final group
//! satisfies degree `p`. Locally *infeasible* shards (every occurrence of
//! some item concentrated in one shard) can break the summed bound, so
//! the merge re-validates the final group against the global histogram
//! and, if needed, deterministically dissolves regular groups (last
//! formed first) back into it until the bound holds; global feasibility
//! (`support(s) * p <= n`, checked up front) guarantees termination.
//!
//! With `shards = 1` the computation is the sequential scan of
//! [`cahd`](crate::cahd::cahd) and produces byte-identical output. With any shard count the
//! output is independent of `threads` — workers only decide *when* a
//! shard is computed, never *what* it computes. A shard is never retried:
//! its scan is a deterministic function of its slice, so a rerun would
//! fail the same way, and an error is returned as it is.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use cahd_data::{SensitiveSet, TransactionSet};
use cahd_obs::{Histogram, Recorder};

use crate::cahd::{
    cahd_traced, form_groups, publish_groups, CahdConfig, CahdStats, FeasibilityCheck,
};
use crate::error::CahdError;
use crate::group::PublishedDataset;
use crate::invariant::{strict_invariant, strict_invariant_eq};
use crate::kernel::SimilarityKernel;
use crate::split::RowSplit;

/// How to distribute the anonymization across shards and worker threads.
///
/// The default (`shards = 1`, `threads = 1`) is the sequential pipeline.
/// Zero values are treated as 1; `threads` is additionally capped at the
/// shard count (extra workers would have nothing to do).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Number of contiguous band-order shards the row sequence is split
    /// into. `1` reproduces the sequential scan exactly.
    pub shards: usize,
    /// Number of worker threads shards are distributed over. The output
    /// is identical for every value — threads affect scheduling only.
    pub threads: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            shards: 1,
            threads: 1,
        }
    }
}

impl ParallelConfig {
    /// A config with the given shard and thread counts.
    pub fn new(shards: usize, threads: usize) -> Self {
        ParallelConfig { shards, threads }
    }

    /// The sequential configuration (one shard, one thread).
    pub fn sequential() -> Self {
        ParallelConfig::default()
    }

    /// Whether this config runs the plain sequential scan.
    pub fn is_sequential(&self) -> bool {
        self.shards <= 1
    }
}

/// Counters describing a sharded CAHD run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardedStats {
    /// Aggregated engine counters (summed over shards; `elapsed` is the
    /// wall-clock time of the whole sharded run, not a per-shard sum).
    pub cahd: CahdStats,
    /// Number of shards actually used (the requested count, capped at
    /// the number of transactions).
    pub shards: usize,
    /// Number of worker threads actually used.
    pub threads: usize,
    /// Regular groups formed per shard, in shard order (before any merge
    /// dissolution).
    pub shard_groups: Vec<usize>,
    /// Regular groups dissolved back into the final group by the merge
    /// re-validation. Zero whenever every shard was locally feasible.
    pub merge_dissolved: usize,
}

/// Rows and outcome of one shard, in shard-local indices.
struct ShardOutcome {
    groups: Vec<Vec<usize>>,
    leftover: Vec<usize>,
    stats: CahdStats,
    /// Wall-clock nanoseconds the shard's scan took (on whichever worker
    /// ran it — a scheduling-dependent measurement, reported through the
    /// `core.shard_scan_ns` histogram, never a counter).
    scan_ns: u64,
}

/// Runs CAHD on `data` (assumed band-ordered) split into
/// `config.shards` contiguous shards processed by `config.threads`
/// workers, and returns the merged release plus run statistics. Group
/// members are row indices into `data`.
///
/// The output is a deterministic function of `(data, sensitive, cahd
/// config, shards)` — thread count never changes it — and `shards = 1`
/// is byte-identical to [`cahd`](crate::cahd::cahd). Errors exactly as [`cahd`](crate::cahd::cahd) does:
/// degenerate parameters, empty dataset, universe mismatch, or global
/// infeasibility (`support(s) * p > n`).
pub fn cahd_sharded(
    data: &TransactionSet,
    sensitive: &SensitiveSet,
    config: &CahdConfig,
    parallel: &ParallelConfig,
) -> Result<(PublishedDataset, ShardedStats), CahdError> {
    cahd_sharded_traced(data, sensitive, config, parallel, &Recorder::disabled())
}

/// Like [`cahd_sharded`], recording the group-formation phase into `rec`:
///
/// * spans `pipeline/group` (whole phase) and `pipeline/group/merge` (the
///   deterministic merge plus the dissolve repair loop), both on the
///   calling thread;
/// * the scheduling-invariant `core.*` engine counters of
///   `form_groups` and the kernel path counters
///   (`core.kernel_dense_scores`, `core.kernel_sparse_scores`,
///   `core.kernel_cache_hits`, from each shard's own
///   [`SimilarityKernel`]), summed over shards (sums commute, so the
///   totals are independent of which worker ran which shard), plus
///   `core.merge_dissolved` and `core.fallback_group_size`;
/// * histogram `core.shard_scan_ns` — one observation per shard with its
///   scan wall-clock (values are scheduling-dependent; the *count* is
///   always the shard count);
/// * gauges `core.shards` and `core.threads` (the effective layout).
pub fn cahd_sharded_traced(
    data: &TransactionSet,
    sensitive: &SensitiveSet,
    config: &CahdConfig,
    parallel: &ParallelConfig,
    rec: &Recorder,
) -> Result<(PublishedDataset, ShardedStats), CahdError> {
    config.validate()?;
    let n = data.n_transactions();
    if sensitive.n_items() != data.n_items() {
        return Err(CahdError::UniverseMismatch {
            data_items: data.n_items(),
            sensitive_items: sensitive.n_items(),
        });
    }
    if n == 0 {
        return Err(CahdError::EmptyDataset);
    }
    let k = parallel.shards.max(1).min(n);
    if k == 1 {
        // Delegate to the sequential entry point: same engine, same
        // output bytes, and the equivalence property test pins it.
        let (published, stats) = cahd_traced(data, sensitive, config, rec)?;
        let sharded = ShardedStats {
            shard_groups: vec![stats.groups_formed],
            cahd: stats,
            shards: 1,
            threads: 1,
            merge_dissolved: 0,
        };
        return Ok((published, sharded));
    }
    let threads = parallel.threads.max(1).min(k);
    let _group_span = rec.span("pipeline/group");
    rec.gauge("core.shards", k as f64);
    rec.gauge("core.threads", threads as f64);
    // cahd-lint: allow(L002, reason = "elapsed-time stat only; release bytes never depend on it")
    let t_start = Instant::now();
    let p = config.p;

    // Split every transaction into QID items and sensitive ranks once;
    // shards borrow disjoint slices of these.
    let split = RowSplit::of(data, sensitive);

    // Global feasibility (Section IV): checked once, up front. Shards
    // skip their local check — see `FeasibilityCheck::Skip`.
    for (r, &c) in split.occurrences().iter().enumerate() {
        if c * p > n {
            return Err(CahdError::Infeasible {
                item: sensitive.items()[r],
                support: c,
                p,
                n,
            });
        }
    }

    // Balanced contiguous boundaries: shard i covers [i*n/k, (i+1)*n/k).
    let bounds: Vec<(usize, usize)> = (0..k).map(|i| (i * n / k, (i + 1) * n / k)).collect();

    // One scan of shard `i`. Its engine and kernel counters go straight
    // into `rec`: counter adds and histogram merges commute, so the totals
    // are independent of which worker ran which shard.
    let run_shard = |i: usize| -> Result<ShardOutcome, CahdError> {
        // cahd-lint: allow(L002, reason = "feeds the core.shard_scan_ns histogram; merge order of shard outputs is index-based, never time-based")
        let t_shard = Instant::now();
        let (lo, hi) = bounds[i];
        let shard_sens = split.sens().slice(lo, hi);
        let mut shard_counts = vec![0usize; sensitive.len()];
        for &r in shard_sens.entries() {
            shard_counts[r as usize] += 1;
        }
        let mut kernel = SimilarityKernel::new(split.qid().slice(lo, hi), data.n_items());
        let formed = form_groups(
            shard_sens,
            shard_counts,
            sensitive.items(),
            config,
            |t, cl, out| kernel.score(t, cl, out),
            FeasibilityCheck::Skip,
            rec,
        )?;
        kernel.flush_to(rec);
        Ok(ShardOutcome {
            groups: formed.groups,
            leftover: formed.leftover,
            stats: formed.stats,
            scan_ns: u64::try_from(t_shard.elapsed().as_nanos()).unwrap_or(u64::MAX),
        })
    };

    // Workers pull shard indices from a shared counter and store each
    // outcome in its shard's slot, so the merge below sees results in
    // shard order regardless of which worker computed what.
    let outcomes: Vec<Result<ShardOutcome, CahdError>> = if threads == 1 {
        (0..k).map(run_shard).collect()
    } else {
        let slots: Mutex<Vec<Option<Result<ShardOutcome, CahdError>>>> =
            Mutex::new((0..k).map(|_| None).collect());
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= k {
                        break;
                    }
                    let outcome = run_shard(i);
                    // cahd-lint: allow(L003, reason = "poisoned only if another worker already panicked; re-panicking surfaces that original failure")
                    slots.lock().expect("shard worker poisoned the slots")[i] = Some(outcome);
                });
            }
        });
        slots
            .into_inner()
            // cahd-lint: allow(L003, reason = "poisoned only if a worker panicked; re-panicking surfaces that original failure")
            .expect("shard worker poisoned the slots")
            .into_iter()
            // cahd-lint: allow(L003, reason = "the fetch_add loop hands out every index in 0..k exactly once before the scope joins")
            .map(|slot| slot.expect("every shard index was claimed by a worker"))
            .collect()
    };

    // --- Deterministic merge: groups in shard order, leftovers pooled. ---
    let merge_span = rec.span("pipeline/group/merge");
    let mut scan_hist = Histogram::new();
    let mut member_groups: Vec<Vec<usize>> = Vec::new();
    let mut leftover: Vec<usize> = Vec::new();
    let mut stats = ShardedStats {
        shards: k,
        threads,
        shard_groups: Vec::with_capacity(k),
        ..ShardedStats::default()
    };
    for (outcome, &(lo, _)) in outcomes.into_iter().zip(&bounds) {
        let out = outcome?;
        scan_hist.observe(out.scan_ns);
        stats.shard_groups.push(out.stats.groups_formed);
        stats.cahd.groups_formed += out.stats.groups_formed;
        stats.cahd.rollbacks += out.stats.rollbacks;
        stats.cahd.insufficient_candidates += out.stats.insufficient_candidates;
        stats.cahd.candidates_considered += out.stats.candidates_considered;
        member_groups.extend(
            out.groups
                .into_iter()
                .map(|g| g.into_iter().map(|t| t + lo).collect::<Vec<_>>()),
        );
        leftover.extend(out.leftover.into_iter().map(|t| t + lo));
    }

    // Re-validate the pooled final group against the global histogram and
    // dissolve regular groups (last formed first) until `H[s] * p <=
    // |leftover|` holds for every sensitive item. Global feasibility
    // guarantees termination: dissolving everything reproduces the whole
    // dataset, which satisfies the bound by the up-front check.
    let sens = split.sens();
    let mut hist = vec![0usize; sensitive.len()];
    for &t in &leftover {
        for &r in sens.row(t) {
            hist[r as usize] += 1;
        }
    }
    while hist.iter().any(|&c| c * p > leftover.len()) {
        let g = member_groups
            .pop()
            // cahd-lint: allow(L003, reason = "global feasibility (checked at entry) guarantees the loop terminates before member_groups empties")
            .expect("global feasibility bounds the dissolve loop");
        stats.cahd.groups_formed -= 1;
        stats.merge_dissolved += 1;
        for &t in &g {
            for &r in sens.row(t) {
                hist[r as usize] += 1;
            }
        }
        leftover.extend(g);
    }
    leftover.sort_unstable();
    stats.cahd.fallback_group_size = leftover.len();
    rec.record_histogram("core.shard_scan_ns", &scan_hist);
    rec.add("core.merge_dissolved", stats.merge_dissolved as u64);
    rec.add("core.fallback_group_size", leftover.len() as u64);
    drop(merge_span);

    let groups = publish_groups(member_groups, leftover, sensitive, &split);
    stats.cahd.elapsed = t_start.elapsed();

    let published = PublishedDataset {
        n_items: data.n_items(),
        sensitive_items: sensitive.items().to_vec(),
        groups,
    };
    strict_invariant!(
        published.satisfies(p),
        "sharded CAHD invariant violated after merge"
    );
    strict_invariant_eq!(
        published.n_transactions(),
        n,
        "sharded CAHD must publish every transaction exactly once"
    );
    Ok((published, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cahd::cahd;
    use crate::verify::verify_published;

    fn blocky(n_blocks: usize, rows_per_block: usize) -> (TransactionSet, SensitiveSet) {
        // `n_blocks` disjoint QID blocks of `rows_per_block` rows each;
        // one sensitive occurrence per block. Universe: 4 QID items per
        // block plus one sensitive item per block at the end.
        let n_items = n_blocks * 4 + n_blocks;
        let mut rows = Vec::new();
        for b in 0..n_blocks {
            let base = (b * 4) as u32;
            for i in 0..rows_per_block {
                let mut row = vec![base + (i % 4) as u32, base + ((i + 1) % 4) as u32];
                if i == 0 {
                    row.push((n_blocks * 4 + b) as u32);
                }
                row.sort_unstable();
                rows.push(row);
            }
        }
        let sens: Vec<u32> = (0..n_blocks).map(|b| (n_blocks * 4 + b) as u32).collect();
        (
            TransactionSet::from_rows(&rows, n_items),
            SensitiveSet::new(sens, n_items),
        )
    }

    #[test]
    fn one_shard_is_byte_identical_to_sequential() {
        let (data, sens) = blocky(4, 8);
        let cfg = CahdConfig::new(3);
        let (seq, seq_stats) = cahd(&data, &sens, &cfg).unwrap();
        let (shd, stats) = cahd_sharded(&data, &sens, &cfg, &ParallelConfig::new(1, 8)).unwrap();
        assert_eq!(seq, shd);
        assert_eq!(stats.cahd.groups_formed, seq_stats.groups_formed);
        assert_eq!(stats.shards, 1);
    }

    #[test]
    fn sharded_release_verifies() {
        let (data, sens) = blocky(4, 8);
        for shards in [2usize, 3, 4, 7] {
            let (pub_, stats) = cahd_sharded(
                &data,
                &sens,
                &CahdConfig::new(3),
                &ParallelConfig::new(shards, 2),
            )
            .unwrap();
            verify_published(&data, &sens, &pub_, 3)
                .unwrap_or_else(|e| panic!("shards={shards}: {e}"));
            assert_eq!(stats.shard_groups.len(), shards.min(data.n_transactions()));
        }
    }

    #[test]
    fn output_is_thread_count_independent() {
        let (data, sens) = blocky(4, 8);
        let cfg = CahdConfig::new(3);
        let base = cahd_sharded(&data, &sens, &cfg, &ParallelConfig::new(4, 1))
            .unwrap()
            .0;
        for threads in [2usize, 3, 8] {
            let out = cahd_sharded(&data, &sens, &cfg, &ParallelConfig::new(4, threads))
                .unwrap()
                .0;
            assert_eq!(base, out, "threads={threads}");
        }
    }

    #[test]
    fn locally_infeasible_shard_is_repaired_by_merge() {
        // All occurrences of the sensitive item sit in the first 4 rows:
        // with 4 shards the first shard is locally infeasible (3 * 4 > 4)
        // while the dataset is globally feasible (3 * 4 <= 16). The merge
        // must still produce a valid degree-4 release.
        let mut rows: Vec<Vec<u32>> = Vec::new();
        for i in 0..16u32 {
            let mut row = vec![i % 4];
            if i < 3 {
                row.push(9);
            }
            rows.push(row);
        }
        let data = TransactionSet::from_rows(&rows, 10);
        let sens = SensitiveSet::new(vec![9], 10);
        let (pub_, stats) = cahd_sharded(
            &data,
            &sens,
            &CahdConfig::new(4),
            &ParallelConfig::new(4, 2),
        )
        .unwrap();
        verify_published(&data, &sens, &pub_, 4).unwrap();
        assert!(pub_.satisfies(4));
        // The final pooled group exists and absorbed the overloaded rows.
        assert!(stats.cahd.fallback_group_size >= 12, "{stats:?}");
    }

    #[test]
    fn merge_dissolves_groups_when_pooled_leftover_is_overloaded() {
        // Item 8 occurs 4 times, all in shard 0; p = 2 makes the dataset
        // exactly globally feasible (4 * 2 = 8 = n). Shard 0 forms no
        // groups (every pivot conflicts with every neighbor), shard 1
        // forms one around the single occurrence of item 9. The pooled
        // leftover of 6 rows then carries 4 occurrences of item 8
        // (4 * 2 > 6), forcing the merge to dissolve shard 1's group.
        let rows: Vec<Vec<u32>> = vec![
            vec![0, 8],
            vec![0, 8],
            vec![0, 8],
            vec![0, 8],
            vec![1, 9],
            vec![1],
            vec![1],
            vec![1],
        ];
        let data = TransactionSet::from_rows(&rows, 10);
        let sens = SensitiveSet::new(vec![8, 9], 10);
        let (pub_, stats) = cahd_sharded(
            &data,
            &sens,
            &CahdConfig::new(2),
            &ParallelConfig::new(2, 1),
        )
        .unwrap();
        verify_published(&data, &sens, &pub_, 2).unwrap();
        assert!(stats.merge_dissolved >= 1, "{stats:?}");
        assert_eq!(pub_.n_transactions(), 8);
    }

    #[test]
    fn more_shards_than_rows_is_capped() {
        let (data, sens) = blocky(2, 3);
        let (pub_, stats) = cahd_sharded(
            &data,
            &sens,
            &CahdConfig::new(2),
            &ParallelConfig::new(64, 64),
        )
        .unwrap();
        verify_published(&data, &sens, &pub_, 2).unwrap();
        assert!(stats.shards <= data.n_transactions());
    }

    #[test]
    fn errors_match_sequential_entry_point() {
        let (data, sens) = blocky(2, 4);
        let par = ParallelConfig::new(2, 2);
        assert!(matches!(
            cahd_sharded(&data, &sens, &CahdConfig::new(1), &par),
            Err(CahdError::InvalidPrivacyDegree(1))
        ));
        assert!(matches!(
            cahd_sharded(&data, &sens, &CahdConfig::new(2).with_alpha(0), &par),
            Err(CahdError::InvalidAlpha(0))
        ));
        let empty = TransactionSet::from_rows(&[], data.n_items());
        assert!(matches!(
            cahd_sharded(&empty, &sens, &CahdConfig::new(2), &par),
            Err(CahdError::EmptyDataset)
        ));
        // Globally infeasible: the sensitive item is too frequent.
        let dense = TransactionSet::from_rows(&[vec![0, 2], vec![1, 2], vec![1]], 3);
        let s2 = SensitiveSet::new(vec![2], 3);
        assert!(matches!(
            cahd_sharded(&dense, &s2, &CahdConfig::new(2), &par),
            Err(CahdError::Infeasible { item: 2, .. })
        ));
    }

    #[test]
    fn parallel_config_defaults_are_sequential() {
        assert!(ParallelConfig::default().is_sequential());
        assert!(ParallelConfig::sequential().is_sequential());
        assert!(!ParallelConfig::new(4, 2).is_sequential());
        assert_eq!(ParallelConfig::new(4, 2).shards, 4);
    }
}
