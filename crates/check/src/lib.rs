//! `cahd-check` — a composable release-analysis pass framework.
//!
//! A release of anonymized transaction data must satisfy a stack of
//! properties: coverage, QID fidelity, correct sensitive summaries, the
//! privacy degree, feasibility of the chosen parameters, and (soft)
//! quality expectations on the grouping. The core verifier
//! ([`cahd_core::verify`]) is the trusted gate for the hard properties;
//! this crate layers a *reporting framework* on top of it:
//!
//! * every check is an independent [`Pass`] over
//!   `(TransactionSet, SensitiveSet, PublishedDataset, p)`;
//! * passes emit [`Diagnostic`]s with **stable codes** (`CAHD-C001`,
//!   `CAHD-P001`, ... — see `docs/CHECKS.md`) and a severity, and a
//!   registry run reports *all* findings instead of failing fast;
//! * the aggregated [`CheckReport`] renders compiler-style text for humans
//!   or JSON for tooling (`cahd check --json`).
//!
//! ```
//! use cahd_check::{default_registry, CheckInput};
//! use cahd_core::pipeline::{Anonymizer, AnonymizerConfig};
//! use cahd_data::{SensitiveSet, TransactionSet};
//! use cahd_obs::Recorder;
//!
//! let data = TransactionSet::from_rows(
//!     &[vec![0, 1, 4], vec![0, 1], vec![2, 3, 5], vec![2, 3], vec![0, 2]],
//!     6,
//! );
//! let sensitive = SensitiveSet::new(vec![4, 5], 6);
//! let result = Anonymizer::new(AnonymizerConfig::with_privacy_degree(2))
//!     .anonymize(&data, &sensitive, &Recorder::disabled())
//!     .unwrap();
//! let input = CheckInput {
//!     data: &data,
//!     sensitive: &sensitive,
//!     published: &result.published,
//!     p: 2,
//!     trace: None,
//!     attack: None,
//! };
//! let report = default_registry().run(&input, &Recorder::disabled());
//! assert!(report.is_clean());
//! ```

use cahd_core::PublishedDataset;
use cahd_data::{SensitiveSet, TransactionSet};
use cahd_eval::AttackPlan;
use cahd_obs::{Recorder, TraceReport};

mod diagnostic;
mod passes;
mod report;

pub use diagnostic::{Diagnostic, Severity};
pub use passes::{
    AttackRegression, BandQuality, ConfigSanity, Coverage, Feasibility, MemoryAudit, Pass,
    PrivacyDegree, QidFidelity, Recovery, SensitiveSummary, ShardMerge, TraceObs,
};
pub use report::CheckReport;

/// Everything a pass may look at: the original data, the sensitive set,
/// the release under scrutiny and the privacy degree it claims.
pub struct CheckInput<'a> {
    /// The original (pre-anonymization) transactions.
    pub data: &'a TransactionSet,
    /// The sensitive item set the release was built for.
    pub sensitive: &'a SensitiveSet,
    /// The release being checked.
    pub published: &'a PublishedDataset,
    /// The required privacy degree.
    pub p: usize,
    /// The observability report emitted alongside the release
    /// (`--trace-json`), when one is available. Passes that audit the
    /// trace ([`TraceObs`]) are no-ops without it.
    pub trace: Option<&'a TraceReport>,
    /// The attack plan the [`AttackRegression`] pass replays. `None`
    /// uses [`cahd_eval::AttackPlan::default`] (seed 42, the committed
    /// regression budget).
    pub attack: Option<&'a AttackPlan>,
}

/// An ordered collection of passes, run as one unit.
#[derive(Default)]
pub struct Registry {
    passes: Vec<Box<dyn Pass>>,
}

impl Registry {
    /// An empty registry; add passes with [`Registry::register`].
    pub fn new() -> Self {
        Registry { passes: Vec::new() }
    }

    /// Appends a pass. Passes run in registration order.
    pub fn register(mut self, pass: impl Pass + 'static) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// The registered passes.
    pub fn passes(&self) -> &[Box<dyn Pass>] {
        &self.passes
    }

    /// Runs every pass over `input` and aggregates all findings. `rec`
    /// records a root `check` span and one `check/<pass>` child per pass
    /// (pass `Recorder::disabled()` for an untraced run).
    pub fn run(&self, input: &CheckInput<'_>, rec: &Recorder) -> CheckReport {
        let _check = rec.span("check");
        let mut diagnostics = Vec::new();
        let mut passes_run = Vec::with_capacity(self.passes.len());
        for pass in &self.passes {
            let _pass = rec.child_span("check", pass.name());
            pass.run(input, &mut diagnostics);
            passes_run.push(pass.name());
        }
        CheckReport {
            diagnostics,
            passes_run,
            required_degree: input.p,
        }
    }
}

/// The full built-in registry: config sanity, feasibility, coverage, QID
/// fidelity, sensitive summaries, privacy degree, shard-merge integrity,
/// band quality, trace-report integrity, memory-audit, recovery
/// accounting and the attack-regression replay.
pub fn default_registry() -> Registry {
    Registry::new()
        .register(ConfigSanity)
        .register(Feasibility)
        .register(Coverage)
        .register(QidFidelity)
        .register(SensitiveSummary)
        .register(PrivacyDegree)
        .register(ShardMerge)
        .register(BandQuality)
        .register(TraceObs)
        .register(MemoryAudit)
        .register(Recovery)
        .register(AttackRegression)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cahd_core::cahd::{cahd, CahdConfig};
    use cahd_core::AnonymizedGroup;

    fn setup() -> (TransactionSet, SensitiveSet, PublishedDataset) {
        let data = TransactionSet::from_rows(
            &[
                vec![0, 1, 4],
                vec![0, 1],
                vec![2, 3],
                vec![2, 3, 5],
                vec![0, 3],
                vec![1, 2],
            ],
            6,
        );
        let sens = SensitiveSet::new(vec![4, 5], 6);
        let (pub_, _) = cahd(&data, &sens, &CahdConfig::new(2)).unwrap();
        (data, sens, pub_)
    }

    fn run(
        data: &TransactionSet,
        sens: &SensitiveSet,
        pub_: &PublishedDataset,
        p: usize,
    ) -> CheckReport {
        default_registry().run(
            &CheckInput {
                data,
                sensitive: sens,
                published: pub_,
                p,
                trace: None,
                attack: None,
            },
            &Recorder::disabled(),
        )
    }

    #[test]
    fn clean_release_is_clean() {
        let (data, sens, pub_) = setup();
        let report = run(&data, &sens, &pub_, 2);
        assert!(report.is_clean(), "{}", report.render_human());
        assert_eq!(report.passes_run.len(), 12);
    }

    #[test]
    fn tampered_release_yields_three_distinct_codes_in_one_run() {
        // The acceptance scenario: several independent tamperings must all
        // surface in a single registry run.
        let (data, sens, mut pub_) = setup();
        pub_.groups[0].qid_rows.edit_rows(|rows| rows[0] = vec![3]); // CAHD-Q001
        pub_.groups[0].members[1] = 99; // CAHD-C002 (+ C001 for the orphan)
        if let Some(g) = pub_
            .groups
            .iter_mut()
            .find(|g| !g.sensitive_counts.is_empty())
        {
            g.sensitive_counts[0].1 += 1; // CAHD-S001 (and likely P001)
        }
        let report = run(&data, &sens, &pub_, 2);
        assert!(!report.is_clean());
        let codes = report.distinct_codes();
        assert!(
            codes.len() >= 3,
            "expected >= 3 distinct codes, got {codes:?}"
        );
        assert!(codes.contains(&"CAHD-Q001"), "{codes:?}");
        assert!(codes.contains(&"CAHD-C002"), "{codes:?}");
    }

    #[test]
    fn config_pass_flags_degenerate_p() {
        let (data, sens, pub_) = setup();
        let report = run(&data, &sens, &pub_, 1);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == "CAHD-G001" && d.severity == Severity::Error));
    }

    #[test]
    fn feasibility_pass_flags_overloaded_item() {
        let (data, sens, pub_) = setup();
        // p = 4 over 6 transactions: support(4) = 1, 1*4 <= 6 is fine, but
        // 2p > n triggers the G001 warning; force an F001 by raising p to 7.
        let report = run(&data, &sens, &pub_, 7);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == "CAHD-F001" && d.severity == Severity::Error),
            "{}",
            report.render_human()
        );
    }

    #[test]
    fn privacy_pass_flags_undersized_groups() {
        let (data, sens, pub_) = setup();
        let report = run(&data, &sens, &pub_, 3);
        // A degree-2 release checked against p = 3 must violate P001
        // somewhere (a group of 2 with one sensitive occurrence).
        assert!(
            report.diagnostics.iter().any(|d| d.code == "CAHD-P001"),
            "{}",
            report.render_human()
        );
    }

    #[test]
    fn band_pass_flags_scrambled_grouping() {
        // Two tight QID blocks; grouping across blocks has zero overlap
        // while sequential grouping keeps the blocks together.
        let data = TransactionSet::from_rows(&[vec![0, 1], vec![0, 1], vec![4, 5], vec![4, 5]], 6);
        let sens = SensitiveSet::new(vec![3], 6);
        let scrambled = PublishedDataset {
            n_items: 6,
            sensitive_items: vec![3],
            groups: vec![
                AnonymizedGroup::from_members(&data, &sens, &[0, 2]),
                AnonymizedGroup::from_members(&data, &sens, &[1, 3]),
            ],
        };
        let report = run(&data, &sens, &scrambled, 2);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == "CAHD-B001" && d.severity == Severity::Warning),
            "{}",
            report.render_human()
        );
        // Warnings alone do not fail the check.
        assert!(report.is_clean());
    }

    #[test]
    fn shard_merge_pass_accepts_sharded_release() {
        use cahd_core::shard::{cahd_sharded, ParallelConfig};
        let (data, sens, _) = setup();
        let (pub_, _) = cahd_sharded(
            &data,
            &sens,
            &CahdConfig::new(2),
            &ParallelConfig::new(3, 2),
        )
        .unwrap();
        let report = run(&data, &sens, &pub_, 2);
        assert!(report.is_clean(), "{}", report.render_human());
        assert!(report.passes_run.contains(&"shard-merge"));
    }

    #[test]
    fn shard_merge_pass_flags_duplicate_and_dropped_rows() {
        let (data, sens, mut pub_) = setup();
        // Simulate a rebase error: one group references a row that another
        // group already owns, so some original row is never referenced.
        let dup = pub_.groups[0].members[0];
        let gi = pub_
            .groups
            .iter()
            .position(|g| !g.members.contains(&dup))
            .expect("some group does not contain the duplicated row");
        let victim = pub_.groups[gi].members[0];
        pub_.groups[gi].members[0] = dup;
        let registry = Registry::new().register(ShardMerge);
        let report = registry.run(
            &CheckInput {
                data: &data,
                sensitive: &sens,
                published: &pub_,
                p: 2,
                trace: None,
                attack: None,
            },
            &Recorder::disabled(),
        );
        assert!(!report.is_clean());
        let msgs: Vec<&str> = report
            .diagnostics
            .iter()
            .map(|d| d.message.as_str())
            .collect();
        assert!(
            msgs.iter().any(|m| m.contains("twice")),
            "expected a duplicate finding: {msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains(&format!("row {victim} was dropped"))),
            "expected a dropped-row finding for {victim}: {msgs:?}"
        );
        assert!(report
            .diagnostics
            .iter()
            .all(|d| d.code == "CAHD-P002" && d.severity == Severity::Error));
    }

    #[test]
    fn shard_merge_pass_leaves_out_of_range_members_to_coverage() {
        let (data, sens, mut pub_) = setup();
        // Two groups point one member each at the same id past the data:
        // the two rows they replaced are dropped, and the repeated dangling
        // id is CAHD-C002's finding, not a duplicate that survived a merge.
        let mut victims = Vec::new();
        for g in pub_.groups.iter_mut().take(2) {
            victims.push(g.members[0]);
            g.members[0] = 99_999;
        }
        assert_eq!(victims.len(), 2);
        let input = CheckInput {
            data: &data,
            sensitive: &sens,
            published: &pub_,
            p: 2,
            trace: None,
            attack: None,
        };
        let report = Registry::new()
            .register(ShardMerge)
            .run(&input, &Recorder::disabled());
        let msgs: Vec<&str> = report
            .diagnostics
            .iter()
            .map(|d| d.message.as_str())
            .collect();
        assert!(msgs.iter().all(|m| !m.contains("twice")), "{msgs:?}");
        victims.sort_unstable();
        let dropped: Vec<String> = victims
            .iter()
            .map(|v| format!("row {v} was dropped by the merge: no group references it"))
            .collect();
        assert_eq!(msgs, dropped);
        let coverage = Registry::new()
            .register(Coverage)
            .run(&input, &Recorder::disabled());
        let dangling = coverage
            .diagnostics
            .iter()
            .filter(|d| d.code == "CAHD-C002")
            .count();
        assert_eq!(dangling, 2, "{}", coverage.render_human());
    }

    #[test]
    fn registry_records_one_span_per_pass_under_check() {
        let (data, sens, pub_) = setup();
        let rec = Recorder::new();
        let report = default_registry().run(
            &CheckInput {
                data: &data,
                sensitive: &sens,
                published: &pub_,
                p: 2,
                trace: None,
                attack: None,
            },
            &rec,
        );
        let trace = rec.snapshot();
        assert_eq!(trace.span("check").map(|s| s.count), Some(1));
        for name in &report.passes_run {
            let span = trace.span(&format!("check/{name}"));
            assert_eq!(span.map(|s| s.count), Some(1), "check/{name}");
        }
        assert_eq!(trace.span_children("check").len(), 12);
        assert_eq!(trace.orphan_spans(), Vec::<&str>::new());
        assert_eq!(trace.consistency_findings(), Vec::<String>::new());
    }

    #[test]
    fn trace_pass_accepts_real_reports_and_flags_tampered_ones() {
        use cahd_core::pipeline::{Anonymizer, AnonymizerConfig};
        use cahd_core::shard::ParallelConfig;
        use cahd_obs::Recorder;
        let (data, sens, _) = setup();
        let rec = Recorder::new();
        let res = Anonymizer::new(
            AnonymizerConfig::with_privacy_degree(2).with_parallel(ParallelConfig::new(3, 2)),
        )
        .anonymize(&data, &sens, &rec)
        .unwrap();
        let trace = rec.snapshot();
        let report = default_registry().run(
            &CheckInput {
                data: &data,
                sensitive: &sens,
                published: &res.published,
                p: 2,
                trace: Some(&trace),
                attack: None,
            },
            &Recorder::disabled(),
        );
        assert!(report.is_clean(), "{}", report.render_human());
        assert!(report.passes_run.contains(&"trace-obs"));

        // Tamper with the pivot accounting: one extra scanned pivot breaks
        // both the counter identity and the histogram pairing.
        let mut bad = trace.clone();
        bad.counters
            .iter_mut()
            .find(|c| c.name == "core.pivots_scanned")
            .expect("traced run scanned pivots")
            .value += 1;
        let report = Registry::new().register(TraceObs).run(
            &CheckInput {
                data: &data,
                sensitive: &sens,
                published: &res.published,
                p: 2,
                trace: Some(&bad),
                attack: None,
            },
            &Recorder::disabled(),
        );
        assert!(!report.is_clean());
        assert!(report
            .diagnostics
            .iter()
            .all(|d| d.code == "CAHD-O001" && d.severity == Severity::Error));
        assert!(report.diagnostics.len() >= 2, "{}", report.render_human());

        // Tamper with the kernel path split: dense + sparse scores must
        // cover every scanned candidate exactly once.
        let mut bad = trace.clone();
        bad.counters
            .iter_mut()
            .find(|c| c.name == "core.kernel_sparse_scores" || c.name == "core.kernel_dense_scores")
            .expect("traced run scored candidates through the kernel")
            .value += 3;
        let report = Registry::new().register(TraceObs).run(
            &CheckInput {
                data: &data,
                sensitive: &sens,
                published: &res.published,
                p: 2,
                trace: Some(&bad),
                attack: None,
            },
            &Recorder::disabled(),
        );
        assert!(!report.is_clean());
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.message.contains("kernel accounting")),
            "{}",
            report.render_human()
        );

        // Tamper with the ordering frontier split: parallel + sequential
        // frontier counts must equal the recorded frontier expansions.
        let mut bad = trace.clone();
        bad.counters
            .iter_mut()
            .find(|c| c.name == "rcm.frontier_sequential")
            .expect("traced run recorded ordering frontiers")
            .value += 1;
        let report = Registry::new().register(TraceObs).run(
            &CheckInput {
                data: &data,
                sensitive: &sens,
                published: &res.published,
                p: 2,
                trace: Some(&bad),
                attack: None,
            },
            &Recorder::disabled(),
        );
        assert!(!report.is_clean());
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.message.contains("ordering frontier accounting")),
            "{}",
            report.render_human()
        );
    }

    /// Runs the trace pass alone over an implicit row-graph build's
    /// counters: 8 rows in 5 distinct-row classes, 16 active postings.
    fn twin_class_trace_findings(tamper: &[(&str, u64)]) -> CheckReport {
        let rec = cahd_obs::Recorder::new();
        for (name, value) in [
            ("sparse.aat_rows", 8),
            ("sparse.aat_nnz", 16),
            ("sparse.implicit_builds", 1),
            ("sparse.implicit_postings", 16),
            ("sparse.row_classes", 5),
            ("sparse.degree_work", 40),
        ] {
            let value = tamper
                .iter()
                .find(|(t, _)| *t == name)
                .map_or(value, |&(_, v)| v);
            rec.add(name, value);
        }
        let trace = rec.snapshot();
        let (data, sens, published) = setup();
        Registry::new().register(TraceObs).run(
            &CheckInput {
                data: &data,
                sensitive: &sens,
                published: &published,
                p: 2,
                trace: Some(&trace),
                attack: None,
            },
            &Recorder::disabled(),
        )
    }

    fn assert_o001_mentions(report: &CheckReport, needle: &str) {
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == "CAHD-O001" && d.message.contains(needle)),
            "{}",
            report.render_human()
        );
    }

    #[test]
    fn trace_pass_accepts_coherent_twin_class_counters() {
        let report = twin_class_trace_findings(&[]);
        assert!(report.is_clean(), "{}", report.render_human());
        // The bounds are inclusive: every row its own class, and every
        // class scanning every active posting.
        let report =
            twin_class_trace_findings(&[("sparse.row_classes", 8), ("sparse.degree_work", 128)]);
        assert!(report.is_clean(), "{}", report.render_human());
    }

    #[test]
    fn trace_pass_flags_more_classes_than_rows() {
        let report = twin_class_trace_findings(&[("sparse.row_classes", 9)]);
        assert_o001_mentions(&report, "distinct-row classes exceed the 8 recorded rows");
    }

    #[test]
    fn trace_pass_flags_degree_work_beyond_postings_times_classes() {
        let report = twin_class_trace_findings(&[("sparse.degree_work", 81)]);
        assert_o001_mentions(&report, "more than 16 active postings times 5 classes");
    }

    #[test]
    fn trace_pass_flags_degree_pass_counters_without_an_implicit_build() {
        let report = twin_class_trace_findings(&[("sparse.implicit_builds", 0)]);
        assert_o001_mentions(&report, "degree-pass counters present");
    }

    #[test]
    fn recovery_pass_accepts_real_recoveries_and_flags_fabricated_ones() {
        use cahd_core::pipeline::{Anonymizer, AnonymizerConfig};
        use cahd_core::recovery::RecoveryConfig;
        use cahd_core::shard::ParallelConfig;
        use cahd_obs::Recorder;
        let rows: [&[u32]; 8] = [
            &[0, 1, 4],
            &[0, 1],
            &[2, 3],
            &[2, 3, 5],
            &[0, 3],
            &[1, 2],
            &[1, 1, 99], // quarantined: duplicate + out-of-range item
            &[0, 2],
        ];
        let sens = SensitiveSet::new(vec![4, 5], 6);
        let rec = Recorder::new();
        let robust = Anonymizer::new(
            AnonymizerConfig::with_privacy_degree(2).with_parallel(ParallelConfig::new(2, 2)),
        )
        .anonymize_rows(rows.into_iter(), &sens, &RecoveryConfig::quarantine(), &rec)
        .unwrap();
        assert_eq!(robust.quarantined, vec![6]);
        let trace = rec.snapshot();
        let input = |trace| CheckInput {
            data: &robust.data,
            sensitive: &sens,
            published: &robust.result.published,
            p: 2,
            trace,
            attack: None,
        };
        let report = default_registry().run(&input(Some(&trace)), &Recorder::disabled());
        assert!(report.is_clean(), "{}", report.render_human());
        assert!(report.passes_run.contains(&"recovery"));

        // Fabricate quarantined rows beyond what the release can hold.
        let mut bad = trace.clone();
        bad.counters
            .iter_mut()
            .find(|c| c.name == "core.quarantined_rows")
            .expect("quarantine was recorded")
            .value = 100;
        let report = Registry::new()
            .register(Recovery)
            .run(&input(Some(&bad)), &Recorder::disabled());
        assert_eq!(report.diagnostics.len(), 2, "{}", report.render_human());
        assert!(report
            .diagnostics
            .iter()
            .all(|d| d.code == "CAHD-R001" && d.severity == Severity::Error));

        // Without a trace the pass is a no-op.
        let report = Registry::new()
            .register(Recovery)
            .run(&input(None), &Recorder::disabled());
        assert!(report.is_clean());
    }

    #[test]
    fn memory_audit_accepts_coherent_sections_and_flags_tampered_ones() {
        use cahd_core::pipeline::{Anonymizer, AnonymizerConfig};
        use cahd_obs::{GaugeRecord, MemTotals, MemoryReport, Recorder, SpanMemRecord};
        let (data, sens, _) = setup();
        let rec = Recorder::new();
        let res = Anonymizer::new(AnonymizerConfig::with_privacy_degree(2))
            .anonymize(&data, &sens, &rec)
            .unwrap();
        // This test binary runs on the default allocator, so a real run
        // cannot produce a memory section; graft a coherent one onto the
        // real report (windows matching recorded spans, counts within
        // their execution counts).
        let mut trace = rec.snapshot();
        let window = |path: &str, alloc: u64, dealloc: u64, peak: u64| SpanMemRecord {
            path: path.to_string(),
            count: 1,
            alloc_bytes: alloc,
            dealloc_bytes: dealloc,
            peak_bytes: peak,
        };
        trace.memory = Some(MemoryReport {
            totals: MemTotals {
                alloc_bytes: 10_000,
                dealloc_bytes: 8_000,
                allocs: 100,
                deallocs: 90,
                live_bytes: 2_000,
                peak_bytes: 5_000,
            },
            spans: vec![
                window("pipeline", 9_000, 7_000, 5_000),
                window("pipeline/group", 4_000, 3_000, 5_000),
                window("pipeline/rcm", 3_000, 2_500, 4_000),
            ],
        });
        let input = |trace| CheckInput {
            data: &data,
            sensitive: &sens,
            published: &res.published,
            p: 2,
            trace,
            attack: None,
        };
        let report = default_registry().run(&input(Some(&trace)), &Recorder::disabled());
        assert!(report.is_clean(), "{}", report.render_human());
        assert!(report.passes_run.contains(&"memory-audit"));

        let o002 = |trace: &TraceReport| {
            Registry::new().register(MemoryAudit).run(
                &CheckInput {
                    data: &data,
                    sensitive: &sens,
                    published: &res.published,
                    p: 2,
                    trace: Some(trace),
                    attack: None,
                },
                &Recorder::disabled(),
            )
        };

        // Structural tampering: freed more than was ever allocated.
        let mut bad = trace.clone();
        bad.memory.as_mut().unwrap().totals.dealloc_bytes = 20_000;
        let report = o002(&bad);
        assert!(!report.is_clean(), "{}", report.render_human());
        assert!(report
            .diagnostics
            .iter()
            .all(|d| d.code == "CAHD-O002" && d.severity == Severity::Error));

        // A memory window with no wall-clock span in the report.
        let mut bad = trace.clone();
        bad.memory.as_mut().unwrap().spans[2].path = "pipeline/phantom".to_string();
        let report = o002(&bad);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.message.contains("no wall-clock span")),
            "{}",
            report.render_human()
        );

        // A window claiming more executions than its span.
        let mut bad = trace.clone();
        bad.memory.as_mut().unwrap().spans[0].count = 99;
        let report = o002(&bad);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.message.contains("only ran")),
            "{}",
            report.render_human()
        );

        // A monotone mem.* gauge exceeding the snapshot totals.
        let mut bad = trace.clone();
        bad.gauges.push(GaugeRecord {
            name: "mem.peak_bytes".to_string(),
            value: 6_000.0,
        });
        let report = o002(&bad);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.message.contains("monotone counter")),
            "{}",
            report.render_human()
        );

        // Without a memory section (or a trace at all) the pass is a no-op.
        let mut plain = trace.clone();
        plain.memory = None;
        assert!(o002(&plain).is_clean());
        assert!(Registry::new()
            .register(MemoryAudit)
            .run(&input(None), &Recorder::disabled())
            .is_clean());
    }

    #[test]
    fn attack_pass_flags_leaky_release_and_accepts_clean_one() {
        let (data, sens, pub_) = setup();
        // Clean CAHD release: the replay stays within 1/2.
        let report = Registry::new().register(AttackRegression).run(
            &CheckInput {
                data: &data,
                sensitive: &sens,
                published: &pub_,
                p: 2,
                trace: None,
                attack: None,
            },
            &Recorder::disabled(),
        );
        assert!(report.is_clean(), "{}", report.render_human());

        // A leaky regrouping: row 0 (which carries sensitive item 4) is
        // published alone, so its posterior is 1.0 > 1/2. The vulnerable
        // scan is deterministic, so this fires on every run.
        let leaky = PublishedDataset {
            n_items: 6,
            sensitive_items: vec![4, 5],
            groups: vec![
                cahd_core::AnonymizedGroup::from_members(&data, &sens, &[0]),
                cahd_core::AnonymizedGroup::from_members(&data, &sens, &[1, 2, 3, 4, 5]),
            ],
        };
        let report = Registry::new().register(AttackRegression).run(
            &CheckInput {
                data: &data,
                sensitive: &sens,
                published: &leaky,
                p: 2,
                trace: None,
                attack: None,
            },
            &Recorder::disabled(),
        );
        assert!(!report.is_clean(), "{}", report.render_human());
        assert!(report
            .diagnostics
            .iter()
            .all(|d| d.code == "CAHD-A001" && d.severity == Severity::Error));
        // The replay leaves the intersection attacker out; the findings
        // are the gates' over the full default suite, in order.
        let plan = cahd_eval::AttackPlan::default();
        let full = cahd_eval::run_attack_suite(
            &data,
            &sens,
            2,
            &[cahd_eval::AttackTarget::release("release", &leaky)],
            &plan,
            &Recorder::disabled(),
        );
        assert!(full
            .curves
            .iter()
            .any(|c| c.attacker == cahd_eval::adversary::ATTACKER_INTERSECTION));
        let mut want = cahd_eval::posterior_violations(&full, 2, plan.tolerance);
        want.extend(cahd_eval::unique_match_violations(
            &full,
            plan.max_unique_match_rate,
        ));
        let got: Vec<String> = report
            .diagnostics
            .iter()
            .map(|d| d.message.clone())
            .collect();
        assert_eq!(got, want);

        // A custom plan travels through CheckInput.
        let plan = cahd_eval::AttackPlan {
            ks: vec![1],
            trials: 50,
            ..cahd_eval::AttackPlan::default()
        };
        let report = Registry::new().register(AttackRegression).run(
            &CheckInput {
                data: &data,
                sensitive: &sens,
                published: &leaky,
                p: 2,
                trace: None,
                attack: Some(&plan),
            },
            &Recorder::disabled(),
        );
        assert!(!report.is_clean(), "{}", report.render_human());
    }

    #[test]
    fn custom_registry_runs_selected_passes_only() {
        let (data, sens, mut pub_) = setup();
        pub_.groups[0].qid_rows.edit_rows(|rows| rows[0] = vec![3]);
        let registry = Registry::new().register(PrivacyDegree);
        let report = registry.run(
            &CheckInput {
                data: &data,
                sensitive: &sens,
                published: &pub_,
                p: 2,
                trace: None,
                attack: None,
            },
            &Recorder::disabled(),
        );
        // The QID tampering is invisible to the privacy pass.
        assert!(report.is_clean());
        assert_eq!(report.passes_run, vec!["privacy-degree"]);
    }

    #[test]
    fn pass_metadata_is_consistent() {
        let registry = default_registry();
        for pass in registry.passes() {
            assert!(!pass.name().is_empty());
            assert!(!pass.codes().is_empty());
            assert!(!pass.description().is_empty());
            for code in pass.codes() {
                assert!(code.starts_with("CAHD-"), "{code}");
            }
        }
    }
}
