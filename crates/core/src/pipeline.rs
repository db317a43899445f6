//! The end-to-end anonymization pipeline: RCM band reorganization followed
//! by CAHD group formation.

use std::time::{Duration, Instant};

use cahd_data::{ItemId, SensitiveSet, TransactionSet};
use cahd_obs::Recorder;
use cahd_rcm::{reduce_unsymmetric, BandReduction, UnsymOptions};

use crate::cahd::{cahd_traced, CahdConfig, CahdStats};
use crate::error::CahdError;
use crate::group::{AnonymizedGroup, PublishedDataset};
use crate::invariant::{strict_invariant, strict_invariant_eq};
use crate::recovery::{classify_rows, ingest_rows, sanitize_rows, RecoveryConfig, SanitizedRows};
use crate::shard::{cahd_sharded_traced, ParallelConfig, ShardedStats};

/// Configuration of the full pipeline.
#[derive(Clone, Copy, Debug)]
pub struct AnonymizerConfig {
    /// Group-formation parameters.
    pub cahd: CahdConfig,
    /// Whether to run the RCM band reorganization first (disable for the
    /// ablation that runs CAHD on the raw transaction order).
    pub use_rcm: bool,
    /// Options for the unsymmetric bandwidth reduction.
    pub rcm: UnsymOptions,
    /// Shard/thread layout of the group-formation phase. The default is
    /// sequential; see [`crate::shard`] for the merge semantics.
    pub parallel: ParallelConfig,
}

impl AnonymizerConfig {
    /// The paper's defaults for privacy degree `p`: RCM enabled,
    /// `alpha = 3`, sequential execution.
    pub fn with_privacy_degree(p: usize) -> Self {
        AnonymizerConfig {
            cahd: CahdConfig::new(p),
            use_rcm: true,
            rcm: UnsymOptions::default(),
            parallel: ParallelConfig::default(),
        }
    }

    /// Disables the RCM phase (ablation: CAHD over the input order).
    pub fn without_rcm(mut self) -> Self {
        self.use_rcm = false;
        self
    }

    /// Runs the group-formation phase sharded across worker threads, and
    /// gives the `A·Aᵀ` build of the RCM phase the same thread count.
    pub fn with_parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self.rcm.threads = parallel.threads.max(1);
        self
    }

    /// Selects the band-reducing ordering strategy of the RCM phase
    /// (`rcm`, `bfs` or `cluster`; see [`cahd_rcm::OrderingStrategy`]).
    pub fn with_ordering(mut self, ordering: cahd_rcm::OrderingStrategy) -> Self {
        self.rcm.ordering = ordering;
        self
    }

    /// Selects the `A x A^T` representation policy of the RCM phase
    /// (`auto`, `explicit` or `implicit`; see
    /// [`cahd_rcm::RowGraphMode`]).
    pub fn with_rowgraph(mut self, mode: cahd_rcm::RowGraphMode) -> Self {
        self.rcm.rowgraph = mode;
        self
    }

    /// Sets the hub-item support cap of the implicit representation:
    /// items with support above the cap are skipped during neighbor
    /// enumeration (a quality-budgeted variant; under `auto` the cap
    /// forces the implicit representation).
    pub fn with_hub_cap(mut self, cap: Option<u32>) -> Self {
        self.rcm.hub_cap = cap;
        self
    }
}

/// Output of [`Anonymizer::anonymize`].
#[derive(Debug)]
pub struct PipelineResult {
    /// The anonymized release. Group members refer to *original*
    /// transaction indices (the RCM permutation is already undone).
    pub published: PublishedDataset,
    /// CAHD run statistics (aggregated over shards for parallel runs).
    pub cahd_stats: CahdStats,
    /// Shard-level statistics, present when the run was sharded
    /// (`parallel.shards >= 2`).
    pub sharded_stats: Option<ShardedStats>,
    /// The band reduction, when RCM ran.
    pub band: Option<BandReduction>,
    /// Wall-clock time of the RCM phase (zero when disabled).
    pub rcm_time: Duration,
    /// Wall-clock time of the whole pipeline.
    pub total_time: Duration,
}

/// The reusable pipeline object.
#[derive(Clone, Copy, Debug)]
pub struct Anonymizer {
    config: AnonymizerConfig,
}

impl Anonymizer {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: AnonymizerConfig) -> Self {
        Anonymizer { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AnonymizerConfig {
        &self.config
    }

    /// Anonymizes `data` with sensitive set `sensitive`, recording the run
    /// into `rec` (pass [`Recorder::disabled`] to record nothing; the
    /// caller takes the report with [`Recorder::snapshot`]).
    ///
    /// The recorded span tree is rooted at `pipeline` with children
    /// `pipeline/rcm` (and its sub-phases, see [`reduce_unsymmetric`]),
    /// `pipeline/permute`, `pipeline/group` (see [`cahd_traced`] /
    /// [`crate::shard::cahd_sharded_traced`]) and `pipeline/unpermute`;
    /// direct children always sum to within the `pipeline` total, which
    /// the `CAHD-O001` check pass enforces.
    pub fn anonymize(
        &self,
        data: &TransactionSet,
        sensitive: &SensitiveSet,
        rec: &Recorder,
    ) -> Result<PipelineResult, CahdError> {
        // cahd-lint: allow(L002, reason = "elapsed-time stat only; release bytes never depend on it")
        let t0 = Instant::now();
        let pipeline_span = rec.span("pipeline");
        let (band, work): (Option<BandReduction>, TransactionSet) = if self.config.use_rcm {
            let red = reduce_unsymmetric(data.matrix(), self.config.rcm, rec);
            let _s = rec.span("pipeline/permute");
            let permuted = data.permute(&red.row_perm);
            (Some(red), permuted)
        } else {
            (None, data.clone())
        };
        let rcm_time = band.as_ref().map(|b| b.rcm_time).unwrap_or_default();

        let (mut published, cahd_stats, sharded_stats) = if self.config.parallel.is_sequential() {
            let (published, stats) = cahd_traced(&work, sensitive, &self.config.cahd, rec)?;
            (published, stats, None)
        } else {
            let (published, sharded) = cahd_sharded_traced(
                &work,
                sensitive,
                &self.config.cahd,
                &self.config.parallel,
                rec,
            )?;
            (published, sharded.cahd, Some(sharded))
        };

        // Map group members back to original transaction indices.
        if let Some(red) = &band {
            let _s = rec.span("pipeline/unpermute");
            for g in &mut published.groups {
                for m in &mut g.members {
                    *m = red.row_perm.new_to_old(*m as usize) as u32;
                }
            }
        }
        drop(pipeline_span);
        // Inert unless the binary runs the tracking allocator and the
        // recorder opted in via `with_memory`.
        rec.record_memory_gauges();

        Ok(PipelineResult {
            published,
            cahd_stats,
            sharded_stats,
            band,
            rcm_time,
            total_time: t0.elapsed(),
        })
    }

    /// The robust pipeline entry point: raw rows in, a validated release
    /// out, surviving corrupt input.
    ///
    /// Rows are validated against the sensitive set's universe *before*
    /// dataset construction (which would silently sort, de-duplicate, and
    /// re-infer the universe). A row with an out-of-range item or a
    /// duplicate item id is handled per `recovery`:
    ///
    /// * [`RecoveryConfig::Strict`] — the run fails with
    ///   [`CahdError::CorruptRow`] naming the first bad row;
    /// * [`RecoveryConfig::Quarantine`] — the row is sanitized (in-range
    ///   items, de-duplicated) and pinned into the **final leftover
    ///   group**: it is published, but never acts as a pivot or candidate
    ///   during group formation. If absorbing the quarantine overloads
    ///   the final group's `1/p` bound, regular groups are dissolved into
    ///   it (last formed first, exactly like the shard merge repair)
    ///   until the bound holds — global feasibility of the sanitized
    ///   dataset guarantees termination.
    ///
    /// Quarantined rows are recorded on `rec` as the scheduling-invariant
    /// counter `core.quarantined_rows` (audited by the `CAHD-R001` check
    /// pass). With no bad rows the release is byte-identical to
    /// [`Anonymizer::anonymize`] over the same rows.
    ///
    /// # Errors
    /// [`CahdError::CorruptRow`] under the strict policy, then everything
    /// [`Anonymizer::anonymize`] reports (parameter errors first, then
    /// shape errors, then infeasibility — all evaluated on the sanitized
    /// dataset).
    pub fn anonymize_rows<'r, I>(
        &self,
        rows: I,
        sensitive: &SensitiveSet,
        recovery: &RecoveryConfig,
        rec: &Recorder,
    ) -> Result<RobustResult, CahdError>
    where
        I: Iterator<Item = &'r [ItemId]> + Clone,
    {
        self.config.cahd.validate()?;
        let (data, quarantined) = ingest_rows(rows, sensitive.n_items(), recovery)?;
        self.robust_result(data, quarantined, sensitive, rec)
    }

    /// [`Anonymizer::anonymize_rows`] over rows already read and sanitized
    /// against `sensitive`'s universe: the rows are classified as written,
    /// and the pipeline runs on `rows`' own dataset, which the result takes
    /// over. The input is never sanitized twice, so a clean input stays
    /// one CSR for the whole run. Release and counters equal
    /// [`Anonymizer::anonymize_rows`] over `rows.raw_rows()`.
    ///
    /// # Errors
    /// [`CahdError::UniverseMismatch`] when `rows` was sanitized against
    /// another universe, then everything [`Anonymizer::anonymize_rows`]
    /// reports.
    pub fn anonymize_sanitized(
        &self,
        rows: SanitizedRows,
        sensitive: &SensitiveSet,
        recovery: &RecoveryConfig,
        rec: &Recorder,
    ) -> Result<RobustResult, CahdError> {
        self.config.cahd.validate()?;
        let n_items = sensitive.n_items();
        if rows.data().n_items() != n_items {
            return Err(CahdError::UniverseMismatch {
                data_items: rows.data().n_items(),
                sensitive_items: n_items,
            });
        }
        let quarantined = classify_rows(rows.raw_rows(), n_items, recovery)?;
        self.robust_result(rows.into_data(), quarantined, sensitive, rec)
    }

    /// Runs [`Anonymizer::anonymize_ingested`] and keeps its dataset beside
    /// the release.
    fn robust_result(
        &self,
        data: TransactionSet,
        quarantined: Vec<usize>,
        sensitive: &SensitiveSet,
        rec: &Recorder,
    ) -> Result<RobustResult, CahdError> {
        let result = self.anonymize_ingested(&data, &quarantined, sensitive, rec)?;
        Ok(RobustResult {
            result,
            data,
            quarantined,
        })
    }

    /// The robust pipeline past ingestion: `data` is the sanitized dataset
    /// and `quarantined` the ascending indices of its rows to pin into the
    /// final group (see [`crate::recovery::ingest_rows`]). Records into
    /// `rec`. The caller validates the configuration first.
    pub(crate) fn anonymize_ingested(
        &self,
        data: &TransactionSet,
        quarantined: &[usize],
        sensitive: &SensitiveSet,
        rec: &Recorder,
    ) -> Result<PipelineResult, CahdError> {
        // cahd-lint: allow(L002, reason = "elapsed-time stat only; release bytes never depend on it")
        let t0 = Instant::now();
        let n_items = sensitive.n_items();
        let p = self.config.cahd.p;
        let n = data.n_transactions();

        if quarantined.is_empty() {
            return self.anonymize(data, sensitive, rec);
        }

        // --- Quarantine path. ---
        if n == 0 {
            return Err(CahdError::EmptyDataset);
        }
        // Global feasibility over the *sanitized* dataset: quarantined
        // rows are published too, so they count toward both sides of the
        // bound. This also guarantees the dissolve repair terminates.
        let counts = sensitive.occurrence_counts(data);
        for (r, &c) in counts.iter().enumerate() {
            if c * p > n {
                return Err(CahdError::Infeasible {
                    item: sensitive.items()[r],
                    support: c,
                    p,
                    n,
                });
            }
        }
        let mut in_quarantine = vec![false; n];
        for &i in quarantined {
            in_quarantine[i] = true;
        }
        let good: Vec<usize> = (0..n).filter(|&i| !in_quarantine[i]).collect();
        let good_data = sanitize_rows(good.iter().map(|&i| data.transaction(i)), n_items);
        let good_counts = sensitive.occurrence_counts(&good_data);
        let good_feasible = !good.is_empty() && good_counts.iter().all(|&c| c * p <= good.len());

        let sens_ranks_of = |m: u32| sensitive.ranks(data.transaction(m as usize));

        let result = if good_feasible {
            // Anonymize the good subset, then splice the quarantine into
            // the final leftover group.
            let mut result = self.anonymize(&good_data, sensitive, rec)?;
            for g in &mut result.published.groups {
                for m in &mut g.members {
                    *m = good[*m as usize] as u32;
                }
            }
            let mut groups = std::mem::take(&mut result.published.groups);
            let inner_fallback = result.cahd_stats.fallback_group_size;
            let mut final_members: Vec<u32> = if inner_fallback > 0 {
                groups
                    .pop()
                    // cahd-lint: allow(L003, reason = "inner_fallback > 0 records that this same run appended a leftover group")
                    .expect("a recorded leftover group exists")
                    .members
            } else {
                Vec::new()
            };
            final_members.extend(quarantined.iter().map(|&i| i as u32));
            let mut hist = vec![0usize; sensitive.len()];
            for &m in &final_members {
                for r in sens_ranks_of(m) {
                    hist[r] += 1;
                }
            }
            let mut dissolved = 0usize;
            while hist.iter().any(|&c| c * p > final_members.len()) {
                let g = groups
                    .pop()
                    // cahd-lint: allow(L003, reason = "global feasibility (checked at entry) guarantees the loop terminates before groups empties")
                    .expect("global feasibility bounds the dissolve loop");
                for &m in &g.members {
                    for r in sens_ranks_of(m) {
                        hist[r] += 1;
                    }
                }
                final_members.extend(g.members);
                dissolved += 1;
            }
            final_members.sort_unstable();
            groups.push(AnonymizedGroup::from_members(
                data,
                sensitive,
                &final_members,
            ));
            result.published.groups = groups;
            result.cahd_stats.groups_formed -= dissolved;
            result.cahd_stats.fallback_group_size = final_members.len();
            rec.add("core.merge_dissolved", dissolved as u64);
            rec.add(
                "core.fallback_group_size",
                (final_members.len() - inner_fallback) as u64,
            );
            result
        } else {
            // The good subset alone is empty or infeasible (the bad rows
            // held the slack). Degrade to the one release that is always
            // valid under global feasibility: the whole dataset as a
            // single group.
            let members: Vec<u32> =
                // cahd-lint: allow(L003, reason = "TransactionSet indexes rows with u32, so n <= u32::MAX structurally")
                (0..u32::try_from(n).expect("dataset fits u32 indices")).collect();
            let group = AnonymizedGroup::from_members(data, sensitive, &members);
            rec.add("core.fallback_group_size", n as u64);
            PipelineResult {
                published: PublishedDataset {
                    n_items,
                    sensitive_items: sensitive.items().to_vec(),
                    groups: vec![group],
                },
                cahd_stats: CahdStats {
                    fallback_group_size: n,
                    ..CahdStats::default()
                },
                sharded_stats: None,
                band: None,
                rcm_time: Duration::ZERO,
                total_time: Duration::ZERO,
            }
        };
        rec.add("core.quarantined_rows", quarantined.len() as u64);

        strict_invariant!(
            result.published.satisfies(p),
            "robust pipeline invariant violated after quarantine merge"
        );
        strict_invariant_eq!(
            result.published.n_transactions(),
            n,
            "robust pipeline must publish every row exactly once"
        );
        // Refresh the allocator gauges past the quarantine merge (the
        // degraded path never enters `anonymize`).
        rec.record_memory_gauges();
        Ok(PipelineResult {
            total_time: t0.elapsed(),
            ..result
        })
    }
}

/// Output of the robust entry points ([`Anonymizer::anonymize_rows`] and
/// [`Anonymizer::anonymize_sanitized`]).
#[derive(Debug)]
pub struct RobustResult {
    /// The pipeline output. `result.published` covers **every** submitted
    /// row (quarantined ones included, sanitized).
    pub result: PipelineResult,
    /// The sanitized dataset the release publishes — what
    /// [`crate::verify::verify_all`] must be run against.
    pub data: TransactionSet,
    /// Indices of quarantined rows (ascending). Always empty under
    /// [`RecoveryConfig::Strict`].
    pub quarantined: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_published;

    fn block_data() -> (TransactionSet, SensitiveSet) {
        // Two QID blocks interleaved, one sensitive item per block.
        let data = TransactionSet::from_rows(
            &[
                vec![0, 1, 8],
                vec![4, 5],
                vec![0, 1],
                vec![4, 5, 9],
                vec![0, 2],
                vec![4, 6],
                vec![1, 2],
                vec![5, 6],
            ],
            10,
        );
        let sens = SensitiveSet::new(vec![8, 9], 10);
        (data, sens)
    }

    #[test]
    fn pipeline_members_are_original_indices() {
        let (data, sens) = block_data();
        let res = Anonymizer::new(AnonymizerConfig::with_privacy_degree(2))
            .anonymize(&data, &sens, &Recorder::disabled())
            .unwrap();
        verify_published(&data, &sens, &res.published, 2).unwrap();
        assert!(res.band.is_some());
    }

    #[test]
    fn rcm_groups_same_block_together() {
        let (data, sens) = block_data();
        let res = Anonymizer::new(AnonymizerConfig::with_privacy_degree(2))
            .anonymize(&data, &sens, &Recorder::disabled())
            .unwrap();
        // The group containing transaction 0 (block A, items {0,1,2,8})
        // must contain only block-A members.
        let block_a: Vec<u32> = vec![0, 2, 4, 6];
        let g = res
            .published
            .groups
            .iter()
            .find(|g| g.members.contains(&0))
            .unwrap();
        // The regular group has size exactly p = 2.
        if g.size() == 2 {
            assert!(
                g.members.iter().all(|m| block_a.contains(m)),
                "{:?}",
                g.members
            );
        }
    }

    #[test]
    fn without_rcm_still_private() {
        let (data, sens) = block_data();
        let res = Anonymizer::new(AnonymizerConfig::with_privacy_degree(2).without_rcm())
            .anonymize(&data, &sens, &Recorder::disabled())
            .unwrap();
        verify_published(&data, &sens, &res.published, 2).unwrap();
        assert!(res.band.is_none());
        assert_eq!(res.rcm_time, Duration::ZERO);
    }

    #[test]
    fn traced_run_produces_coherent_nested_report() {
        let (data, sens) = block_data();
        for parallel in [ParallelConfig::sequential(), ParallelConfig::new(4, 2)] {
            let rec = Recorder::new();
            let res =
                Anonymizer::new(AnonymizerConfig::with_privacy_degree(2).with_parallel(parallel))
                    .anonymize(&data, &sens, &rec)
                    .unwrap();
            verify_published(&data, &sens, &res.published, 2).unwrap();
            let trace = rec.snapshot();
            assert!(
                trace.consistency_findings().is_empty(),
                "{:?}",
                trace.consistency_findings()
            );
            assert!(
                trace.orphan_spans().is_empty(),
                "{:?}",
                trace.orphan_spans()
            );
            // The root span covers its children and the phase spans exist.
            let root = trace.span("pipeline").expect("root span");
            let children_ns: u64 = trace
                .span_children("pipeline")
                .iter()
                .map(|s| s.total_ns)
                .sum();
            assert!(children_ns <= root.total_ns);
            for path in ["pipeline/rcm", "pipeline/permute", "pipeline/group"] {
                assert!(trace.span(path).is_some(), "missing {path}");
            }
            // Engine counters agree with the returned stats.
            assert_eq!(
                trace.counter_or_zero("core.groups_formed"),
                res.cahd_stats.groups_formed as u64
            );
            assert_eq!(
                trace.counter_or_zero("core.pivots_scanned"),
                trace.counter_or_zero("core.groups_formed")
                    + trace.counter_or_zero("core.rollbacks")
                    + trace.counter_or_zero("core.insufficient_candidates")
            );
            // Every scanned candidate was scored by exactly one kernel path.
            assert_eq!(
                trace.counter_or_zero("core.kernel_dense_scores")
                    + trace.counter_or_zero("core.kernel_sparse_scores"),
                trace.counter_or_zero("core.candidates_scanned")
            );
            assert!(
                trace.counter_or_zero("core.kernel_cache_hits")
                    <= trace.counter_or_zero("core.kernel_dense_scores")
            );
            if !parallel.is_sequential() {
                let scans = trace.histogram("core.shard_scan_ns").expect("shard hist");
                assert_eq!(scans.count as usize, res.sharded_stats.unwrap().shards);
                assert!(trace.span("pipeline/group/merge").is_some());
            }
        }
    }

    #[test]
    fn errors_propagate() {
        let (data, _) = block_data();
        let sens = SensitiveSet::new(vec![0], 10); // item 0: support 3 of 8
        let err = Anonymizer::new(AnonymizerConfig::with_privacy_degree(4))
            .anonymize(&data, &sens, &Recorder::disabled())
            .unwrap_err();
        assert!(matches!(err, CahdError::Infeasible { .. }));
    }

    fn slices(rows: &[Vec<u32>]) -> impl Iterator<Item = &[u32]> + Clone {
        rows.iter().map(Vec::as_slice)
    }

    fn block_rows() -> (Vec<Vec<u32>>, SensitiveSet) {
        let (data, sens) = block_data();
        let rows: Vec<Vec<u32>> = data.iter().map(<[u32]>::to_vec).collect();
        (rows, sens)
    }

    #[test]
    fn clean_rows_match_the_plain_pipeline_exactly() {
        let (rows, sens) = block_rows();
        let anon = Anonymizer::new(AnonymizerConfig::with_privacy_degree(2));
        let plain = anon
            .anonymize(
                &TransactionSet::from_rows(&rows, 10),
                &sens,
                &Recorder::disabled(),
            )
            .unwrap();
        for recovery in [RecoveryConfig::strict(), RecoveryConfig::quarantine()] {
            let robust = anon
                .anonymize_rows(slices(&rows), &sens, &recovery, &Recorder::disabled())
                .unwrap();
            assert_eq!(robust.result.published, plain.published);
            assert!(robust.quarantined.is_empty());
        }
    }

    #[test]
    fn sanitized_rows_run_like_anonymize_rows() {
        let (clean, sens) = block_rows();
        let mut dirty = clean.clone();
        dirty[3] = vec![4, 5, 9, 99];
        dirty[6] = vec![1, 1, 2];
        let anon = Anonymizer::new(AnonymizerConfig::with_privacy_degree(2));
        for rows in [&clean, &dirty] {
            for recovery in [RecoveryConfig::strict(), RecoveryConfig::quarantine()] {
                let (rec_rows, rec_sanitized) = (Recorder::new(), Recorder::new());
                let want = anon.anonymize_rows(slices(rows), &sens, &recovery, &rec_rows);
                let mut raw = cahd_data::RawRows::new();
                for row in rows {
                    raw.push(row);
                }
                let got = anon.anonymize_sanitized(
                    SanitizedRows::new(raw, sens.n_items()),
                    &sens,
                    &recovery,
                    &rec_sanitized,
                );
                match (want, got) {
                    (Ok(want), Ok(got)) => {
                        assert_eq!(got.result.published, want.result.published);
                        assert_eq!(got.quarantined, want.quarantined);
                        assert!(got.data.iter().eq(want.data.iter()));
                    }
                    (Err(want), Err(got)) => assert_eq!(got, want),
                    (want, got) => panic!("{want:?} vs {got:?}"),
                }
                assert_eq!(
                    rec_sanitized.snapshot().counters,
                    rec_rows.snapshot().counters
                );
            }
        }
        // Rows sanitized against another universe are refused up front.
        let err = anon
            .anonymize_sanitized(
                SanitizedRows::new(cahd_data::RawRows::new(), 11),
                &sens,
                &RecoveryConfig::strict(),
                &Recorder::disabled(),
            )
            .unwrap_err();
        assert!(matches!(err, CahdError::UniverseMismatch { .. }), "{err:?}");
    }

    #[test]
    fn strict_policy_rejects_the_first_bad_row() {
        let (mut rows, sens) = block_rows();
        rows[3] = vec![1, 99]; // out of the 10-item universe
        rows[5] = vec![4, 4]; // duplicate item
        let anon = Anonymizer::new(AnonymizerConfig::with_privacy_degree(2));
        let err = anon
            .anonymize_rows(
                slices(&rows),
                &sens,
                &RecoveryConfig::strict(),
                &Recorder::disabled(),
            )
            .unwrap_err();
        assert!(
            matches!(err, CahdError::CorruptRow { row: 3, ref reason }
                if reason.contains("out of range")),
            "{err:?}"
        );
        // Parameter errors still take precedence over ingestion.
        let err = Anonymizer::new(AnonymizerConfig::with_privacy_degree(1))
            .anonymize_rows(
                slices(&rows),
                &sens,
                &RecoveryConfig::strict(),
                &Recorder::disabled(),
            )
            .unwrap_err();
        assert!(matches!(err, CahdError::InvalidPrivacyDegree(1)));
    }

    #[test]
    fn quarantined_rows_land_in_the_final_group() {
        let (mut rows, sens) = block_rows();
        rows[3] = vec![4, 5, 9, 99]; // out-of-range tail; sanitized to {4,5,9}
        rows[6] = vec![1, 1, 2]; // duplicate; sanitized to {1,2}
        let anon = Anonymizer::new(AnonymizerConfig::with_privacy_degree(2));
        let rec = Recorder::new();
        let robust = anon
            .anonymize_rows(slices(&rows), &sens, &RecoveryConfig::quarantine(), &rec)
            .unwrap();
        assert_eq!(robust.quarantined, vec![3, 6]);
        let pub_ = &robust.result.published;
        assert_eq!(pub_.n_transactions(), rows.len());
        assert!(pub_.satisfies(2));
        let errors = crate::verify::verify_all(&robust.data, &sens, pub_, 2);
        assert!(errors.is_empty(), "{errors:?}");
        // Quarantined rows sit in the final (last) group, published with
        // their sanitized contents.
        let last = pub_.groups.last().unwrap();
        for &q in &robust.quarantined {
            assert!(last.members.contains(&(q as u32)), "{:?}", last.members);
        }
        assert_eq!(robust.data.transaction(3), &[4, 5, 9]);
        assert_eq!(robust.data.transaction(6), &[1, 2]);
        let trace = &rec.snapshot();
        assert_eq!(trace.counter("core.quarantined_rows"), Some(2));
        assert!(
            trace.counter_or_zero("core.fallback_group_size")
                >= trace.counter_or_zero("core.quarantined_rows")
        );
    }

    #[test]
    fn infeasible_good_subset_degrades_to_a_single_group() {
        // Both sensitive rows quarantined: the good subset has zero
        // occurrences (feasible), so instead force infeasibility of the
        // good subset by quarantining most NON-sensitive rows (1..7, each
        // with a duplicate or an out-of-range item).
        let rows: Vec<Vec<u32>> = vec![
            vec![0, 8],
            vec![0, 0],
            vec![1, 99],
            vec![2, 2],
            vec![0, 1, 9],
            vec![1, 2, 2],
            vec![2, 0, 0],
            vec![1],
        ];
        let sens = SensitiveSet::new(vec![8], 9);
        let anon = Anonymizer::new(AnonymizerConfig::with_privacy_degree(4));
        let robust = anon
            .anonymize_rows(
                slices(&rows),
                &sens,
                &RecoveryConfig::quarantine(),
                &Recorder::disabled(),
            )
            .unwrap();
        assert_eq!(robust.quarantined, (1..7).collect::<Vec<_>>());
        // Good subset {0, 7} carries the sensitive occurrence with 1*4 > 2
        // -> the whole dataset degrades to one group (1*4 <= 8 globally).
        assert_eq!(robust.result.published.n_groups(), 1);
        assert!(robust.result.published.satisfies(4));
        assert_eq!(robust.result.published.n_transactions(), 8);
    }

    #[test]
    fn quarantine_overload_dissolves_groups() {
        // Quarantined sensitive rows overload the leftover group: the
        // repair loop must dissolve regular groups until 1/p holds.
        let mut rows: Vec<Vec<u32>> = Vec::new();
        for i in 0..12u32 {
            rows.push(vec![i % 3]);
        }
        rows.push(vec![0, 8, 8]); // corrupt AND sensitive
        rows.push(vec![1, 8, 8]); // corrupt AND sensitive
        let sens = SensitiveSet::new(vec![8], 9);
        let anon = Anonymizer::new(AnonymizerConfig::with_privacy_degree(2));
        let robust = anon
            .anonymize_rows(
                slices(&rows),
                &sens,
                &RecoveryConfig::quarantine(),
                &Recorder::disabled(),
            )
            .unwrap();
        assert_eq!(robust.quarantined, vec![12, 13]);
        let pub_ = &robust.result.published;
        assert!(pub_.satisfies(2));
        assert_eq!(pub_.n_transactions(), 14);
        let errors = crate::verify::verify_all(&robust.data, &sens, pub_, 2);
        assert!(errors.is_empty(), "{errors:?}");
        // Both sensitive occurrences live in the final group: it needs
        // size >= 4, more than the two quarantined rows alone.
        assert!(pub_.groups.last().unwrap().size() >= 4);
    }
}
