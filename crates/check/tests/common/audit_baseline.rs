//! The release audit as it was before the linear rewrite, kept as the
//! oracle `audit_oracle.rs` checks the shipped code against: the
//! collect-all verifier (one `split_transaction` row and one expected
//! summary per member and group), the sort-based intra-group overlap, the
//! four conformance passes built on that verifier, the band-quality
//! pass with its materialized baseline release and the shard-merge pass
//! that sorts every `(member, group)` reference.
//!
//! The bodies are the earlier library code, copied verbatim apart from
//! module paths; nothing here reads `cahd_core::refine::OverlapCounter`
//! or the shipped `verify_all`.

use cahd_check::{CheckInput, Diagnostic, Pass};
use cahd_core::verify::VerificationError;
use cahd_core::{AnonymizedGroup, PublishedDataset};
use cahd_data::{ItemId, SensitiveSet, TransactionSet};

/// Verifies `published` against the original `data`, the sensitive set and
/// a required privacy degree `p`, collecting **every** violation instead of
/// stopping at the first. An empty vector means the release is valid.
pub fn verify_all(
    data: &TransactionSet,
    sensitive: &SensitiveSet,
    published: &PublishedDataset,
    p: usize,
) -> Vec<VerificationError> {
    let mut errors = Vec::new();
    if published.sensitive_items != sensitive.items() {
        errors.push(VerificationError::SensitiveItemsMismatch);
    }
    let n = data.n_transactions();
    if published.n_transactions() != n {
        errors.push(VerificationError::Cardinality {
            expected: n,
            actual: published.n_transactions(),
        });
    }

    // Coverage: every original transaction in exactly one group, and no
    // group referencing a transaction outside the data.
    let mut seen = vec![0usize; n];
    for (gi, g) in published.groups.iter().enumerate() {
        for &mt in &g.members {
            if (mt as usize) < n {
                seen[mt as usize] += 1;
            } else {
                errors.push(VerificationError::MemberOutOfRange {
                    group: gi,
                    transaction: mt as usize,
                    n_transactions: n,
                });
            }
        }
    }
    for (t, &c) in seen.iter().enumerate() {
        if c != 1 {
            errors.push(VerificationError::Coverage {
                transaction: t,
                times_seen: c,
            });
        }
    }

    for (gi, g) in published.groups.iter().enumerate() {
        // QID rows and sensitive counts must match the members.
        // Out-of-range members were already reported above; skipping them
        // here keeps the remaining checks well-defined.
        let mut counts: Vec<u32> = vec![0; sensitive.len()];
        let mut summary_defined = true;
        for (k, &mt) in g.members.iter().enumerate() {
            if (mt as usize) >= n {
                summary_defined = false;
                continue;
            }
            let (qid, sens_ranks) = sensitive.split_transaction(data.transaction(mt as usize));
            if g.qid_rows.get(k) != Some(qid.as_slice()) {
                errors.push(VerificationError::QidMismatch {
                    group: gi,
                    member: k,
                });
            }
            for r in sens_ranks {
                counts[r] += 1;
            }
        }
        if summary_defined {
            let expected: Vec<(u32, u32)> = counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(r, &c)| (sensitive.items()[r], c))
                .collect();
            if expected != g.sensitive_counts {
                errors.push(VerificationError::SensitiveCountMismatch { group: gi });
            }
        }
        // Privacy.
        if !g.satisfies(p) {
            errors.push(VerificationError::PrivacyViolation {
                group: gi,
                degree: g.privacy_degree(),
                required: p,
            });
        }
    }
    errors
}

/// The intra-group similarity objective: total pairwise QID overlap
/// within groups, summed over the release. Higher is better; this is the
/// quantity CAHD's candidate selection maximizes greedily.
///
/// Computed without visiting pairs: Σ over row pairs of `|a ∩ b|` equals
/// Σ over items of `C(c, 2)`, where `c` counts the group's rows holding
/// the item. Each group's rows are concatenated, sorted, and counted in
/// runs, so the cost is O(nnz log nnz) in the release's nonzeros and no
/// buffer is sized by an item-id value. Rows are read as sets (a repeated
/// item counts once), which agrees with the pairwise merge on every
/// sorted, duplicate-free row — every release `CAHD-Q001` accepts.
pub fn intra_group_overlap(published: &PublishedDataset) -> u64 {
    let mut items: Vec<ItemId> = Vec::new();
    let mut total = 0u64;
    for g in &published.groups {
        items.clear();
        for row in &g.qid_rows {
            if row.windows(2).all(|w| w[0] < w[1]) {
                items.extend_from_slice(row);
            } else {
                let mut set = row.to_vec();
                set.sort_unstable();
                set.dedup();
                items.extend_from_slice(&set);
            }
        }
        items.sort_unstable();
        total += items
            .chunk_by(|a, b| a == b)
            .map(|run| {
                let c = run.len() as u64;
                c * (c - 1) / 2
            })
            .sum::<u64>();
    }
    total
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
/// in `codes` — the shared engine behind the conformance passes.
fn conformance(input: &CheckInput<'_>, codes: &[&str], out: &mut Vec<Diagnostic>) {
    for err in verify_all(input.data, input.sensitive, input.published, input.p) {
        let d = diagnose(&err);
        if codes.contains(&d.code) {
            out.push(d);
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
        &["CAHD-C001", "CAHD-C002", "CAHD-C003"]
    }

    fn description(&self) -> &'static str {
        "every transaction appears in exactly one group"
    }

    fn run(&self, input: &CheckInput<'_>, out: &mut Vec<Diagnostic>) {
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

/// `CAHD-B001`: band quality — the release's intra-group QID overlap (the
/// objective CAHD maximizes via the RCM band ordering) should not fall
/// below what naive sequential chunking of the *original* order achieves.
/// A regression signals the band ordering was ignored or scrambled.
/// Both totals come from [`intra_group_overlap`], linear in release nnz.
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
        let achieved = intra_group_overlap(input.published);
        // Baseline: chunk the original order into groups of p. This ignores
        // privacy entirely — it is only an overlap yardstick.
        let members: Vec<u32> = (0..n as u32).collect();
        let baseline_groups: Vec<AnonymizedGroup> = members
            .chunks(input.p)
            .map(|chunk| AnonymizedGroup::from_members(input.data, input.sensitive, chunk))
            .collect();
        let baseline_release = cahd_core::PublishedDataset {
            n_items: input.data.n_items(),
            sensitive_items: input.sensitive.items().to_vec(),
            groups: baseline_groups,
        };
        let baseline = intra_group_overlap(&baseline_release);
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

/// `CAHD-P002`: shard-merge integrity — the merged release references
/// every original row exactly once. A duplicated or dropped row is the
/// signature of a bad shard merge (an offset error when shard-local
/// indices are rebased, or a leftover funneled into two groups).
///
/// Deliberately *not* built on the core verifier: the sharded pipeline's
/// own invariants use that code path, so this pass re-derives coverage
/// from a plain sorted scan over all member references. References past
/// the data (`>= n`) are left to `CAHD-C002`: they are neither duplicates
/// nor drops here.
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
        let n = input.data.n_transactions();
        let mut refs: Vec<(u32, usize)> = Vec::new();
        for (gi, g) in input.published.groups.iter().enumerate() {
            refs.extend(g.members.iter().map(|&m| (m, gi)));
        }
        refs.sort_unstable();
        for pair in refs.windows(2) {
            // A reference past the data is Coverage's CAHD-C002, however
            // often it repeats.
            if pair[0].0 == pair[1].0 && (pair[0].0 as usize) < n {
                out.push(
                    Diagnostic::error(
                        "CAHD-P002",
                        format!(
                            "row {} survived the merge twice (groups {} and {})",
                            pair[0].0, pair[0].1, pair[1].1
                        ),
                    )
                    .in_group(pair[1].1),
                );
            }
        }
        // Dropped rows: everything in 0..n not referenced at all.
        // Out-of-range references are Coverage's CAHD-C002 territory.
        let mut next = 0usize;
        for &(m, _) in &refs {
            let m = (m as usize).min(n);
            while next < m {
                out.push(Diagnostic::error(
                    "CAHD-P002",
                    format!("row {next} was dropped by the merge: no group references it"),
                ));
                next += 1;
            }
            next = next.max(m + 1);
        }
        while next < n {
            out.push(Diagnostic::error(
                "CAHD-P002",
                format!("row {next} was dropped by the merge: no group references it"),
            ));
            next += 1;
        }
    }
}
