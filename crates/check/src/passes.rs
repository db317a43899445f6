//! The built-in analysis passes and their diagnostic codes.

use cahd_core::refine::OverlapCounter;
use cahd_core::verify::{verify_all, VerificationError};
use cahd_core::PublishedDataset;
use cahd_eval::adversary::ATTACKER_INTERSECTION;
use cahd_eval::{
    posterior_violations, run_attack_suite, unique_match_violations, AttackPlan, AttackTarget,
};
use cahd_obs::Recorder;

use crate::diagnostic::Diagnostic;
use crate::CheckInput;

/// One composable analysis over a release. Passes are independent: each
/// re-derives what it needs from the input and reports *all* findings, so
/// a registry run surfaces every problem in one shot instead of failing
/// fast on the first.
pub trait Pass {
    /// Short stable pass name (used in reports and pass selection).
    fn name(&self) -> &'static str;

    /// The diagnostic codes this pass can emit.
    fn codes(&self) -> &'static [&'static str];

    /// One-line description of what the pass checks.
    fn description(&self) -> &'static str;

    /// Runs the pass, appending findings to `out`.
    fn run(&self, input: &CheckInput<'_>, out: &mut Vec<Diagnostic>);
}

/// Maps a core verification error to its stable diagnostic code.
fn diagnose(err: &VerificationError) -> Diagnostic {
    match *err {
        VerificationError::Coverage {
            transaction,
            times_seen,
        } => Diagnostic::error(
            "CAHD-C001",
            format!("transaction {transaction} appears in {times_seen} groups (expected 1)"),
        ),
        VerificationError::MemberOutOfRange {
            group,
            transaction,
            n_transactions,
        } => Diagnostic::error(
            "CAHD-C002",
            format!(
                "member references transaction {transaction}, but the data has only {n_transactions}"
            ),
        )
        .in_group(group),
        VerificationError::Cardinality { expected, actual } => Diagnostic::error(
            "CAHD-C003",
            format!("release publishes {actual} transactions, the data has {expected}"),
        ),
        VerificationError::QidMismatch { group, member } => {
            Diagnostic::error("CAHD-Q001", "published QID row differs from the original transaction")
                .at_member(group, member)
        }
        VerificationError::SensitiveCountMismatch { group } => Diagnostic::error(
            "CAHD-S001",
            "sensitive summary does not match the group's members",
        )
        .in_group(group),
        VerificationError::SensitiveItemsMismatch => Diagnostic::error(
            "CAHD-S002",
            "release's sensitive-item list differs from the sensitive set",
        ),
        VerificationError::PrivacyViolation {
            group,
            degree,
            required,
        } => {
            let actual = degree.map_or("unbounded".to_string(), |d| d.to_string());
            Diagnostic::error(
                "CAHD-P001",
                format!("privacy degree {actual} below required {required}"),
            )
            .in_group(group)
        }
    }
}

/// Runs the core collect-all verifier and keeps the findings whose code is
/// in `codes` — the shared engine behind the conformance passes. On a
/// release whose member lists were stripped the findings that read the
/// members (`CAHD-C001`, `CAHD-S001`) are left out: `CAHD-C004` names
/// their one cause instead.
fn conformance(input: &CheckInput<'_>, codes: &[&str], out: &mut Vec<Diagnostic>) {
    let stripped = members_stripped(input.published);
    for err in verify_all(input.data, input.sensitive, input.published, input.p) {
        let d = diagnose(&err);
        let reads_members = matches!(d.code, "CAHD-C001" | "CAHD-S001");
        if codes.contains(&d.code) && !(stripped && reads_members) {
            out.push(d);
        }
    }
}

/// Whether the release's member lists were stripped (`anonymize
/// --strip-members`): it publishes rows, but no group names a member.
fn members_stripped(published: &PublishedDataset) -> bool {
    published.n_transactions() > 0 && published.groups.iter().all(|g| g.members.is_empty())
}

/// `CAHD-G001`: parameter sanity (privacy degree vs. dataset size).
///
/// Formerly `CAHD-A001`; recoded when the `A` prefix was claimed by the
/// adversarial attack-regression pass (see `docs/CHECKS.md`).
pub struct ConfigSanity;

impl Pass for ConfigSanity {
    fn name(&self) -> &'static str {
        "config-sanity"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["CAHD-G001"]
    }

    fn description(&self) -> &'static str {
        "privacy degree and sensitive-set parameters are usable"
    }

    fn run(&self, input: &CheckInput<'_>, out: &mut Vec<Diagnostic>) {
        let n = input.data.n_transactions();
        let p = input.p;
        if p < 2 {
            out.push(Diagnostic::error(
                "CAHD-G001",
                format!("privacy degree p = {p} offers no protection (need p >= 2)"),
            ));
        } else if p > n {
            // No group of size >= p can exist; that is fatal exactly when
            // something sensitive needs protecting (a small final streaming
            // chunk with no sensitive occurrences is legitimately fine).
            let message = format!("privacy degree p = {p} exceeds the dataset size {n}");
            let occurs = input
                .sensitive
                .occurrence_counts(input.data)
                .iter()
                .any(|&c| c > 0);
            out.push(if occurs {
                Diagnostic::error("CAHD-G001", message)
            } else {
                Diagnostic::warning("CAHD-G001", message)
            });
        } else if 2 * p > n {
            out.push(Diagnostic::warning(
                "CAHD-G001",
                format!("privacy degree p = {p} allows at most one group over {n} transactions"),
            ));
        }
        if input.sensitive.is_empty() {
            out.push(Diagnostic::note(
                "CAHD-G001",
                "sensitive set is empty: the release is trivially private",
            ));
        }
    }
}

/// `CAHD-F001`: remaining-occurrence histogram feasibility
/// (`support(s) * p <= n` for every sensitive item `s`).
pub struct Feasibility;

impl Pass for Feasibility {
    fn name(&self) -> &'static str {
        "feasibility"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["CAHD-F001"]
    }

    fn description(&self) -> &'static str {
        "a degree-p solution exists: support(s) * p <= n for all sensitive s"
    }

    fn run(&self, input: &CheckInput<'_>, out: &mut Vec<Diagnostic>) {
        let n = input.data.n_transactions();
        let counts = input.sensitive.occurrence_counts(input.data);
        for (r, &c) in counts.iter().enumerate() {
            let item = input.sensitive.items()[r];
            if c * input.p > n {
                out.push(Diagnostic::error(
                    "CAHD-F001",
                    format!(
                        "sensitive item {item} has support {c}: {c} * {p} > {n}, degree {p} is infeasible",
                        p = input.p
                    ),
                ));
            } else if c == 0 {
                out.push(Diagnostic::note(
                    "CAHD-F001",
                    format!("sensitive item {item} never occurs in the data"),
                ));
            }
        }
    }
}

/// `CAHD-C001`–`CAHD-C003`: coverage — every transaction published exactly
/// once, no dangling member references, matching cardinality.
pub struct Coverage;

impl Pass for Coverage {
    fn name(&self) -> &'static str {
        "coverage"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["CAHD-C001", "CAHD-C002", "CAHD-C003", "CAHD-C004"]
    }

    fn description(&self) -> &'static str {
        "every transaction appears in exactly one group"
    }

    fn run(&self, input: &CheckInput<'_>, out: &mut Vec<Diagnostic>) {
        if members_stripped(input.published) {
            out.push(Diagnostic::error(
                "CAHD-C004",
                format!(
                    "the release's member lists were stripped (--strip-members): which of the \
                     {} transactions each group publishes cannot be checked, so coverage, \
                     sensitive summaries and the shard merge go unverified",
                    input.data.n_transactions()
                ),
            ));
        }
        conformance(input, self.codes(), out);
    }
}

/// `CAHD-Q001`: QID fidelity — published QID rows are the members'
/// original QID item sets, verbatim.
pub struct QidFidelity;

impl Pass for QidFidelity {
    fn name(&self) -> &'static str {
        "qid-fidelity"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["CAHD-Q001"]
    }

    fn description(&self) -> &'static str {
        "published QID rows match the original transactions"
    }

    fn run(&self, input: &CheckInput<'_>, out: &mut Vec<Diagnostic>) {
        conformance(input, self.codes(), out);
    }
}

/// `CAHD-S001`/`CAHD-S002`: sensitive summaries — per-group frequency
/// summaries recompute from the members, and the release names the right
/// sensitive items.
pub struct SensitiveSummary;

impl Pass for SensitiveSummary {
    fn name(&self) -> &'static str {
        "sensitive-summary"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["CAHD-S001", "CAHD-S002"]
    }

    fn description(&self) -> &'static str {
        "sensitive frequency summaries match the group members"
    }

    fn run(&self, input: &CheckInput<'_>, out: &mut Vec<Diagnostic>) {
        conformance(input, self.codes(), out);
    }
}

/// `CAHD-P001`: the privacy degree — every group satisfies
/// `f_s * p <= |G|`.
pub struct PrivacyDegree;

impl Pass for PrivacyDegree {
    fn name(&self) -> &'static str {
        "privacy-degree"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["CAHD-P001"]
    }

    fn description(&self) -> &'static str {
        "every group satisfies the required privacy degree"
    }

    fn run(&self, input: &CheckInput<'_>, out: &mut Vec<Diagnostic>) {
        conformance(input, self.codes(), out);
    }
}

/// `CAHD-P002`: shard-merge integrity — the merged release references
/// every original row exactly once. A duplicated or dropped row is the
/// signature of a bad shard merge (an offset error when shard-local
/// indices are rebased, or a leftover funneled into two groups).
///
/// Deliberately *not* built on the core verifier: the sharded pipeline's
/// own invariants use that code path, so this pass re-derives coverage
/// from one walk over all member references, keeping the last group that
/// referenced each row: a repeat reference is a duplicate, a row never
/// referenced is a drop. Findings come row by row, duplicates before
/// drops; only the duplicates are sorted. References past the data
/// (`>= n`) are left to `CAHD-C002`: they are neither duplicates nor drops
/// here.
pub struct ShardMerge;

impl Pass for ShardMerge {
    fn name(&self) -> &'static str {
        "shard-merge"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["CAHD-P002"]
    }

    fn description(&self) -> &'static str {
        "shard merging left no duplicate or dropped row"
    }

    fn run(&self, input: &CheckInput<'_>, out: &mut Vec<Diagnostic>) {
        if members_stripped(input.published) {
            return; // CAHD-C004 reports it
        }
        let n = input.data.n_transactions();
        // The last group seen referencing each row; every repeat reference
        // is a finding against it. Groups are walked in order, so a row's
        // findings come in group order (a group listing a row twice names
        // itself twice), and a stable sort by row puts the rows ascending.
        let mut last_group = vec![usize::MAX; n];
        let mut dups: Vec<(u32, usize, usize)> = Vec::new();
        for (gi, g) in input.published.groups.iter().enumerate() {
            for &m in &g.members {
                if let Some(last) = last_group.get_mut(m as usize) {
                    if *last != usize::MAX {
                        dups.push((m, *last, gi));
                    }
                    *last = gi;
                }
            }
        }
        dups.sort_by_key(|&(m, _, _)| m);
        for (m, prev, gi) in dups {
            out.push(
                Diagnostic::error(
                    "CAHD-P002",
                    format!("row {m} survived the merge twice (groups {prev} and {gi})"),
                )
                .in_group(gi),
            );
        }
        for (m, &last) in last_group.iter().enumerate() {
            if last == usize::MAX {
                out.push(Diagnostic::error(
                    "CAHD-P002",
                    format!("row {m} was dropped by the merge: no group references it"),
                ));
            }
        }
    }
}

/// `CAHD-B001`: band quality — the release's intra-group QID overlap (the
/// objective CAHD maximizes via the RCM band ordering) should not fall
/// below what naive sequential chunking of the *original* order achieves.
/// A regression signals the band ordering was ignored or scrambled.
///
/// Both totals come from one [`OverlapCounter`]: the release's groups,
/// then each `p`-row chunk of the data read straight from its
/// transactions with the sensitive items skipped (no baseline release is
/// built). The counter tallies item ids below `min(data.n_items(),
/// release nonzeros)` in place and counts any id past that cap by
/// sorting, so the pass is linear in the nonzeros and nothing is sized by
/// an id value or by the release's own `n_items`.
pub struct BandQuality;

impl Pass for BandQuality {
    fn name(&self) -> &'static str {
        "band-quality"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["CAHD-B001"]
    }

    fn description(&self) -> &'static str {
        "intra-group QID overlap is no worse than naive sequential grouping"
    }

    fn run(&self, input: &CheckInput<'_>, out: &mut Vec<Diagnostic>) {
        if input.p < 2 {
            return; // degenerate; ConfigSanity reports it
        }
        let n = input.data.n_transactions();
        if n == 0 || input.published.n_transactions() != n {
            return; // Coverage reports cardinality problems
        }
        let mut counter = OverlapCounter::for_release(input.published, input.data.n_items());
        let achieved = counter.release(input.published);
        // Baseline: chunk the original order into groups of p. This ignores
        // privacy entirely — it is only an overlap yardstick.
        let sensitive = input.sensitive;
        let mut baseline = 0u64;
        for start in (0..n).step_by(input.p) {
            for t in start..(start + input.p).min(n) {
                let txn = input.data.transaction(t).iter().copied();
                counter.add_row(txn.filter(|&i| !sensitive.contains(i)));
            }
            baseline += counter.finish_group();
        }
        if achieved < baseline {
            out.push(Diagnostic::warning(
                "CAHD-B001",
                format!(
                    "intra-group QID overlap {achieved} is below the sequential-grouping baseline \
                     {baseline}: the band ordering was not exploited"
                ),
            ));
        }
    }
}

/// `CAHD-O001`: observability-report integrity — an emitted
/// [`cahd_obs::TraceReport`] (`--trace-json`) is internally coherent and
/// its counters obey the engine's accounting identities.
///
/// Three layers of findings, all errors:
///
/// * **structural** — the report's own invariants
///   ([`cahd_obs::TraceReport::consistency_findings`]): sorted unique
///   sections, child spans summing to within their parent, histogram
///   buckets summing to the recorded count;
/// * **rooting** — a full pipeline report has no orphan spans
///   ([`cahd_obs::TraceReport::orphan_spans`]); a parentless span means
///   the file was truncated or stitched from partial runs;
/// * **accounting** — counters that the engine defines as identities:
///   every scanned pivot either formed a group, rolled back, or ran out
///   of candidates; every scanned candidate was scored by exactly one
///   kernel path (`core.kernel_dense_scores + core.kernel_sparse_scores
///   == core.candidates_scanned`, with `core.kernel_cache_hits` a subset
///   of the dense scores); the merge cannot dissolve more groups than
///   were formed; deterministic histogram *counts* match their driving
///   counters (`core.candidate_list_len` ↔ `core.pivots_scanned`,
///   `core.shard_scan_ns` ↔ the `core.shards` gauge, `eval.query_ns` ↔
///   `eval.queries`); the attack-suite counters nest
///   (`eval.attack_successes <= eval.attack_matches <=
///   eval.attack_trials`, `eval.attack_unique_matches <=
///   eval.attack_trials`, `eval.attack_violations <=
///   eval.attack_curve_points`, and any nonzero attack counter implies
///   `eval.attack_curve_points >= 1`); the ordering engine's frontier
///   split is exact
///   (`rcm.frontier_parallel + rcm.frontier_sequential == rcm.levels`,
///   and the total frontier count covers at least the Cuthill-McKee
///   BFS levels: `rcm.levels >= rcm.bfs_levels`). The frontier split is
///   decided by *eligibility* (frontier width), never by the actual
///   thread count, so these identities hold for any `--threads`. The
///   implicit row-graph counters account for every nonzero exactly once:
///   `sparse.implicit_postings + sparse.implicit_capped_postings` never
///   exceeds the recorded `sparse.aat_nnz`, any `sparse.implicit_*`
///   activity implies `sparse.implicit_builds >= 1`, and capped postings
///   and hub items appear together (`sparse.implicit_capped_postings >=
///   sparse.implicit_hub_items`, each zero iff the other is). The
///   twin-class degree pass is bounded by its inputs: there are at most
///   as many distinct-row classes as rows (`sparse.row_classes <=
///   sparse.aat_rows`), and an item's class support is bounded by both
///   its row support and the class count (`sparse.degree_work <=
///   sparse.implicit_postings * sparse.row_classes`); both are zero unless
///   `sparse.implicit_builds >= 1`. Like the frontier split, the implicit
///   counters depend only on the matrix and the hub cap — never on
///   `--threads` or `--rowgraph` scheduling details.
///
/// A missing counter reads as zero (the recorder drops zero adds), so a
/// trace from an untraced or partial run stays quiet. When
/// [`CheckInput::trace`] is `None` the pass is a no-op.
pub struct TraceObs;

impl TraceObs {
    fn balance(out: &mut Vec<Diagnostic>, message: String) {
        out.push(Diagnostic::error("CAHD-O001", message));
    }
}

impl Pass for TraceObs {
    fn name(&self) -> &'static str {
        "trace-obs"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["CAHD-O001"]
    }

    fn description(&self) -> &'static str {
        "the emitted trace report is coherent and its counters balance"
    }

    fn run(&self, input: &CheckInput<'_>, out: &mut Vec<Diagnostic>) {
        let Some(trace) = input.trace else {
            return;
        };
        for finding in trace.consistency_findings() {
            Self::balance(out, finding);
        }
        for orphan in trace.orphan_spans() {
            Self::balance(
                out,
                format!("span `{orphan}` has no parent span in the report"),
            );
        }
        let counter = |name: &str| trace.counter_or_zero(name);
        let hist_count = |name: &str| trace.histogram(name).map_or(0, |h| h.count);

        let pivots = counter("core.pivots_scanned");
        let formed = counter("core.groups_formed");
        let rollbacks = counter("core.rollbacks");
        let starved = counter("core.insufficient_candidates");
        if pivots != formed + rollbacks + starved {
            Self::balance(
                out,
                format!(
                    "pivot accounting broken: {pivots} pivots scanned, but {formed} groups formed \
                     + {rollbacks} rollbacks + {starved} candidate shortfalls = {}",
                    formed + rollbacks + starved
                ),
            );
        }
        let candidates = counter("core.candidates_scanned");
        let kernel_dense = counter("core.kernel_dense_scores");
        let kernel_sparse = counter("core.kernel_sparse_scores");
        if kernel_dense + kernel_sparse != candidates {
            Self::balance(
                out,
                format!(
                    "kernel accounting broken: {kernel_dense} dense + {kernel_sparse} sparse \
                     scores = {}, but {candidates} candidates were scanned",
                    kernel_dense + kernel_sparse
                ),
            );
        }
        let cache_hits = counter("core.kernel_cache_hits");
        if cache_hits > kernel_dense {
            Self::balance(
                out,
                format!(
                    "kernel cache accounting broken: {cache_hits} cache hits exceed \
                     {kernel_dense} dense scores"
                ),
            );
        }
        let dissolved = counter("core.merge_dissolved");
        if dissolved > formed {
            Self::balance(
                out,
                format!("merge dissolved {dissolved} groups but only {formed} were formed"),
            );
        }
        let cl = hist_count("core.candidate_list_len");
        if cl != pivots {
            Self::balance(
                out,
                format!(
                    "histogram core.candidate_list_len has {cl} observations for {pivots} \
                     scanned pivots"
                ),
            );
        }
        if let Some(shards) = trace.gauge("core.shards") {
            let scans = hist_count("core.shard_scan_ns");
            if scans as f64 != shards {
                Self::balance(
                    out,
                    format!(
                        "histogram core.shard_scan_ns has {scans} observations for a \
                         {shards}-shard run"
                    ),
                );
            }
        }
        let frontier_parallel = counter("rcm.frontier_parallel");
        let frontier_sequential = counter("rcm.frontier_sequential");
        let levels = counter("rcm.levels");
        if frontier_parallel + frontier_sequential != levels {
            Self::balance(
                out,
                format!(
                    "ordering frontier accounting broken: {frontier_parallel} parallel + \
                     {frontier_sequential} sequential frontiers = {}, but {levels} frontier \
                     expansions were recorded",
                    frontier_parallel + frontier_sequential
                ),
            );
        }
        let bfs_levels = counter("rcm.bfs_levels");
        if levels > 0 && levels < bfs_levels {
            Self::balance(
                out,
                format!(
                    "ordering frontier accounting broken: {levels} total frontier expansions \
                     cannot cover {bfs_levels} Cuthill-McKee BFS levels"
                ),
            );
        }
        let implicit_builds = counter("sparse.implicit_builds");
        let postings = counter("sparse.implicit_postings");
        let capped = counter("sparse.implicit_capped_postings");
        let hub_items = counter("sparse.implicit_hub_items");
        let aat_nnz = counter("sparse.aat_nnz");
        if postings + capped > aat_nnz {
            Self::balance(
                out,
                format!(
                    "implicit row-graph accounting broken: {postings} active + {capped} capped \
                     postings = {}, exceeding the {aat_nnz} recorded nonzeros",
                    postings + capped
                ),
            );
        }
        if implicit_builds == 0 && (postings > 0 || capped > 0 || hub_items > 0) {
            Self::balance(
                out,
                format!(
                    "implicit row-graph accounting broken: posting counters present \
                     ({postings} active, {capped} capped, {hub_items} hub items) without any \
                     sparse.implicit_builds"
                ),
            );
        }
        if capped < hub_items {
            Self::balance(
                out,
                format!(
                    "implicit row-graph accounting broken: {hub_items} hub items but only \
                     {capped} capped postings (a hub item caps at least one posting)"
                ),
            );
        }
        if (capped > 0) != (hub_items > 0) {
            Self::balance(
                out,
                format!(
                    "implicit row-graph accounting broken: capped postings ({capped}) and hub \
                     items ({hub_items}) must appear together"
                ),
            );
        }
        let row_classes = counter("sparse.row_classes");
        let degree_work = counter("sparse.degree_work");
        let aat_rows = counter("sparse.aat_rows");
        if row_classes > aat_rows {
            Self::balance(
                out,
                format!(
                    "implicit row-graph accounting broken: {row_classes} distinct-row classes \
                     exceed the {aat_rows} recorded rows"
                ),
            );
        }
        if u128::from(degree_work) > u128::from(postings) * u128::from(row_classes) {
            Self::balance(
                out,
                format!(
                    "implicit row-graph accounting broken: the degree pass scanned \
                     {degree_work} class postings, more than {postings} active postings \
                     times {row_classes} classes"
                ),
            );
        }
        if implicit_builds == 0 && (row_classes > 0 || degree_work > 0) {
            Self::balance(
                out,
                format!(
                    "implicit row-graph accounting broken: degree-pass counters present \
                     ({row_classes} classes, {degree_work} class postings) without any \
                     sparse.implicit_builds"
                ),
            );
        }
        let queries = counter("eval.queries");
        let timed = hist_count("eval.query_ns");
        if timed != queries {
            Self::balance(
                out,
                format!(
                    "histogram eval.query_ns has {timed} observations for {queries} evaluated \
                     queries"
                ),
            );
        }
        let attack_points = counter("eval.attack_curve_points");
        let attack_trials = counter("eval.attack_trials");
        let attack_matches = counter("eval.attack_matches");
        let attack_successes = counter("eval.attack_successes");
        let attack_unique = counter("eval.attack_unique_matches");
        let attack_violations = counter("eval.attack_violations");
        if attack_successes > attack_matches || attack_matches > attack_trials {
            Self::balance(
                out,
                format!(
                    "attack accounting broken: {attack_successes} successes <= {attack_matches} \
                     matches <= {attack_trials} trials must hold"
                ),
            );
        }
        if attack_unique > attack_trials {
            Self::balance(
                out,
                format!(
                    "attack accounting broken: {attack_unique} unique matches exceed \
                     {attack_trials} trials"
                ),
            );
        }
        if attack_violations > attack_points {
            Self::balance(
                out,
                format!(
                    "attack accounting broken: {attack_violations} violations exceed the \
                     {attack_points} recorded curve points"
                ),
            );
        }
        if attack_points == 0
            && (attack_trials > 0
                || attack_matches > 0
                || attack_successes > 0
                || attack_unique > 0
                || attack_violations > 0)
        {
            Self::balance(
                out,
                format!(
                    "attack accounting broken: attack counters present ({attack_trials} trials, \
                     {attack_matches} matches) without any eval.attack_curve_points"
                ),
            );
        }
    }
}

/// `CAHD-R001` — recovery accounting: the release's recovery counters are
/// consistent with each other and with the release itself.
///
/// Recovery actions (row quarantine, stream resumes) are *silent* by
/// design — the release still verifies — so this pass is the only place
/// their bookkeeping is audited: quarantined rows end up in the final
/// (leftover) group, so `core.quarantined_rows` can exceed neither the
/// accumulated `core.fallback_group_size` nor the number of published
/// transactions.
///
/// `core.resumed_batches` has no cross-check (any count of successful
/// resumes is coherent on its own); it is surfaced by the trace itself.
/// A missing counter reads as zero, so untraced or non-recovering runs
/// stay quiet. When [`CheckInput::trace`] is `None` the pass is a no-op.
pub struct Recovery;

impl Recovery {
    fn finding(out: &mut Vec<Diagnostic>, message: String) {
        out.push(Diagnostic::error("CAHD-R001", message));
    }
}

impl Pass for Recovery {
    fn name(&self) -> &'static str {
        "recovery"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["CAHD-R001"]
    }

    fn description(&self) -> &'static str {
        "recovery counters (quarantine, resumes) are coherent"
    }

    fn run(&self, input: &CheckInput<'_>, out: &mut Vec<Diagnostic>) {
        let Some(trace) = input.trace else {
            return;
        };
        let counter = |name: &str| trace.counter_or_zero(name);

        let quarantined = counter("core.quarantined_rows");
        let fallback = counter("core.fallback_group_size");
        if quarantined > fallback {
            Self::finding(
                out,
                format!(
                    "quarantine accounting broken: {quarantined} quarantined rows but the \
                     final-group counter only accumulated {fallback}"
                ),
            );
        }
        let published = input.published.n_transactions() as u64;
        if quarantined > published {
            Self::finding(
                out,
                format!(
                    "{quarantined} quarantined rows exceed the {published} published \
                     transactions"
                ),
            );
        }
    }
}

/// `CAHD-O002` — memory audit: the trace's `memory` section is coherent
/// with itself and with the rest of the report.
///
/// Two layers of findings, all errors:
///
/// * **structural** — the section's own invariants
///   ([`cahd_obs::MemoryReport::consistency_findings`]): monotone totals
///   (`dealloc <= alloc`, `live == alloc - dealloc`, `peak >= live` at
///   snapshot), strictly sorted span windows bounded by the process
///   totals, and child windows bounded by their parent (children are
///   disjoint sub-windows over monotone counters, and the close-time peak
///   reading is monotone in time);
/// * **cross-section** — every memory window belongs to a wall-clock span
///   recorded in the same report and cannot have executed more often than
///   it; the monotone `mem.*` gauges, recorded *before* the snapshot read
///   its totals, never exceed the corresponding totals
///   (`mem.live_bytes` is exempt — live memory is not monotone).
///
/// Memory numbers are scheduling-dependent (gauge semantics — see
/// `docs/OBSERVABILITY.md`), so this pass audits *consistency*, never
/// absolute values. When the report has no `memory` section (the run did
/// not opt in with `--memory`, or the emitting binary ran without the
/// tracking allocator) or [`CheckInput::trace`] is `None`, the pass is a
/// no-op.
pub struct MemoryAudit;

impl MemoryAudit {
    fn finding(out: &mut Vec<Diagnostic>, message: String) {
        out.push(Diagnostic::error("CAHD-O002", message));
    }
}

impl Pass for MemoryAudit {
    fn name(&self) -> &'static str {
        "memory-audit"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["CAHD-O002"]
    }

    fn description(&self) -> &'static str {
        "the trace's memory section is coherent and agrees with spans and gauges"
    }

    fn run(&self, input: &CheckInput<'_>, out: &mut Vec<Diagnostic>) {
        let Some(trace) = input.trace else {
            return;
        };
        let Some(mem) = trace.memory.as_ref() else {
            return;
        };
        for finding in mem.consistency_findings() {
            Self::finding(out, finding);
        }
        for w in &mem.spans {
            match trace.span(&w.path) {
                None => Self::finding(
                    out,
                    format!(
                        "memory window `{}` has no wall-clock span in the report",
                        w.path
                    ),
                ),
                Some(s) if w.count > s.count => Self::finding(
                    out,
                    format!(
                        "memory window `{}` aggregates {} executions but its span only ran {} \
                         times",
                        w.path, w.count, s.count
                    ),
                ),
                Some(_) => {}
            }
        }
        let t = &mem.totals;
        for (gauge, total) in [
            ("mem.alloc_bytes", t.alloc_bytes),
            ("mem.dealloc_bytes", t.dealloc_bytes),
            ("mem.allocs", t.allocs),
            ("mem.deallocs", t.deallocs),
            ("mem.peak_bytes", t.peak_bytes),
        ] {
            if let Some(g) = trace.gauge(gauge) {
                if g > total as f64 {
                    Self::finding(
                        out,
                        format!(
                            "gauge {gauge} reads {g}, exceeding the snapshot total {total} of a \
                             monotone counter"
                        ),
                    );
                }
            }
        }
    }
}

/// `CAHD-A001` — attack regression: replay a fixed-seed attack plan
/// against the release and fail when the adversary does measurably
/// better than the privacy degree promises.
///
/// The pass runs the single-release attackers of `cahd_eval::adversary`
/// (background-knowledge scoring, linkage, and the deterministic
/// vulnerable-population scan) against the release as its sole target
/// and turns two kinds of empirical regressions into errors:
///
/// * an **empirical posterior** exceeding `1/p` plus the plan's
///   tolerance at any `k` — the release leaks more than Definition 3 of
///   the paper allows, no matter what the structural passes say;
/// * a **unique-match rate** above the plan's committed budget — the
///   adversary pins individual rows more often than the regression
///   fixture permits.
///
/// Intersection (multi-release composition) curves are exempt from the
/// `1/p` gate, so the replay leaves that attacker out: composing
/// independent releases legitimately exceeds the single-release bound,
/// and that exposure is reported by `cahd-cli attack`, not gated here.
/// Raw-data curves are likewise exempt — they calibrate the attacker,
/// they do not judge the release.
///
/// The replay is deterministic for a fixed plan: seeds derive from
/// `plan.seed` per (attacker, target, k) stream, and the vulnerable
/// scan uses no randomness at all, so a leaky fixture fails on every
/// run, not just unlucky ones. With [`CheckInput::attack`] unset the
/// committed default plan (seed 42) is replayed. Degenerate `p < 2`
/// offers no bound to test against and is ConfigSanity's (`CAHD-G001`)
/// territory.
pub struct AttackRegression;

impl Pass for AttackRegression {
    fn name(&self) -> &'static str {
        "attack-regression"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["CAHD-A001"]
    }

    fn description(&self) -> &'static str {
        "a fixed-seed attack replay stays within the 1/p posterior bound"
    }

    fn run(&self, input: &CheckInput<'_>, out: &mut Vec<Diagnostic>) {
        if input.p < 2 {
            return; // degenerate; ConfigSanity reports it
        }
        let default_plan = AttackPlan::default();
        let plan = input.attack.unwrap_or(&default_plan);
        // Neither gate reads intersection curves, and every attacker
        // derives its own seed stream, so leaving it out changes no finding.
        let gated = plan.clone().with_attackers(
            plan.attackers
                .iter()
                .filter(|a| *a != ATTACKER_INTERSECTION)
                .cloned()
                .collect(),
        );
        let targets = [AttackTarget::release("release", input.published)];
        let report = run_attack_suite(
            input.data,
            input.sensitive,
            input.p,
            &targets,
            &gated,
            &Recorder::disabled(),
        );
        for message in posterior_violations(&report, input.p, plan.tolerance) {
            out.push(Diagnostic::error("CAHD-A001", message));
        }
        for message in unique_match_violations(&report, plan.max_unique_match_rate) {
            out.push(Diagnostic::error("CAHD-A001", message));
        }
    }
}
