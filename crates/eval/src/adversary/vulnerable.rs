//! The vulnerable-population scanner.
//!
//! Definition 3 is a worst-case bound; real releases keep most rows far
//! below it. The scanner enumerates the rows that actually sit near the
//! bound — the population a targeted attacker would go after first — and
//! reports how large it is and how close it gets:
//!
//! * against a **release**, the posterior of every row in group `G` for
//!   sensitive item `s` is the published frequency `f_s / |G|`; a row is
//!   vulnerable when its best association reaches `(1 - epsilon) / p`;
//! * against the **raw data**, the attacker who knows a victim's full QID
//!   content reaches posterior `|{rows with this QID content containing
//!   s}| / |{rows with this QID content}|` — 1.0 for every content-unique
//!   sensitive row, which is exactly why the raw scan reads as the
//!   disaster baseline next to the bounded release scan.
//!
//! The scan is fully deterministic (no RNG): it is the one attacker whose
//! verdict on an over-leaky release cannot depend on sampling luck, so
//! the `CAHD-A001` gate inherits a deterministic detector.

use serde::{Deserialize, Serialize};

use cahd_sparse::{row_classes, CsrMatrix};

use super::index::TargetIndex;
use super::CurvePoint;

/// Number of worst rows retained in the report.
const WORST_ROWS: usize = 8;

/// One row near the posterior bound.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct VulnerableRow {
    /// Row index: the original transaction (raw scan) or the flattened
    /// release row in publication order (release scan).
    pub transaction: usize,
    /// Owning group (release scan only).
    pub group: Option<usize>,
    /// The row's best sensitive-association posterior.
    pub posterior: f64,
}

/// Outcome of one vulnerable-population scan.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct VulnerableReport {
    /// Target name (filled in by the suite driver).
    pub target: String,
    /// Vulnerability slack used.
    pub epsilon: f64,
    /// The threshold `(1 - epsilon) / p`.
    pub threshold: f64,
    /// Sensitive-bearing rows examined.
    pub rows_scanned: usize,
    /// Rows whose posterior reached the threshold.
    pub vulnerable_rows: usize,
    /// Largest posterior over all scanned rows.
    pub max_posterior: f64,
    /// Mean posterior over all scanned rows.
    pub mean_posterior: f64,
    /// The worst rows, by descending posterior (capped).
    pub worst: Vec<VulnerableRow>,
}

impl VulnerableReport {
    /// This report as a success-curve point (`k = 0`: the scanner needs
    /// no background knowledge).
    pub fn to_point(&self) -> CurvePoint {
        CurvePoint {
            k: 0,
            trials: self.rows_scanned,
            matches: self.vulnerable_rows,
            successes: self.vulnerable_rows,
            unique_matches: 0,
            mean_posterior: self.mean_posterior,
            max_posterior: self.max_posterior,
        }
    }
}

/// Scans an indexed release (or the raw data) for rows whose empirical
/// posterior approaches `1/p`.
pub fn vulnerable_scan(index: &TargetIndex<'_>, p: usize, epsilon: f64) -> VulnerableReport {
    let threshold = if p == 0 {
        f64::INFINITY
    } else {
        (1.0 - epsilon) / p as f64
    };
    let mut rows: Vec<VulnerableRow> = Vec::new();
    if index.is_published() {
        for r in 0..index.n_rows() {
            let g = index.group_of(r);
            let worst = index.claim_posterior(g);
            if worst > 0.0 {
                rows.push(VulnerableRow {
                    transaction: r,
                    group: Some(g),
                    posterior: worst,
                });
            }
        }
    } else {
        // Content classes over QID item sets: the posterior of a row is
        // resolved within its duplicate class, from one tally per class of
        // the sensitive ranks its members hold.
        let population = index.population();
        let n = population.len();
        let classes = row_classes(&population.qid);
        let (k, class_of) = (classes.reps.len(), classes.class_of);
        let members = CsrMatrix::from_raw_parts(n, k, (0..=n).collect(), class_of).transpose();
        let ranks = |t: &u32| {
            population
                .sensitive_ranks(*t as usize)
                .iter()
                .map(|&r| r as usize)
        };
        let mut posterior = vec![0.0f64; n];
        let mut tally = vec![0u32; population.sensitive().len()];
        for class in members.rows() {
            class.iter().flat_map(ranks).for_each(|r| tally[r] += 1);
            let size = class.len() as f64;
            for t in class {
                let worst = ranks(t).fold(0.0f64, |worst, r| worst.max(tally[r] as f64 / size));
                posterior[*t as usize] = worst;
            }
            class.iter().flat_map(ranks).for_each(|r| tally[r] = 0);
        }
        rows.extend(
            (0..n)
                .filter(|&t| !population.sensitive_ranks(t).is_empty())
                .map(|t| VulnerableRow {
                    transaction: t,
                    group: None,
                    posterior: posterior[t],
                }),
        );
    }
    let rows_scanned = rows.len();
    let vulnerable_rows = rows.iter().filter(|r| r.posterior >= threshold).count();
    let max_posterior = rows.iter().map(|r| r.posterior).fold(0.0f64, f64::max);
    let sum: f64 = rows.iter().map(|r| r.posterior).sum();
    let mean_posterior = if rows_scanned == 0 {
        0.0
    } else {
        sum / rows_scanned as f64
    };
    // Worst offenders: highest posterior first, then lowest row index.
    rows.sort_by(|a, b| {
        b.posterior
            .total_cmp(&a.posterior)
            .then(a.transaction.cmp(&b.transaction))
    });
    rows.truncate(WORST_ROWS);
    VulnerableReport {
        target: String::new(),
        epsilon,
        threshold,
        rows_scanned,
        vulnerable_rows,
        max_posterior,
        mean_posterior,
        worst: rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::index::Population;
    use cahd_core::{cahd, CahdConfig, PublishedDataset};
    use cahd_data::{SensitiveSet, TransactionSet};

    fn scan(
        data: &TransactionSet,
        sens: &SensitiveSet,
        published: Option<&PublishedDataset>,
        p: usize,
        epsilon: f64,
    ) -> VulnerableReport {
        let population = Population::new(data, sens);
        vulnerable_scan(&TargetIndex::new(&population, published), p, epsilon)
    }

    fn setup() -> (TransactionSet, SensitiveSet) {
        let mut rows: Vec<Vec<u32>> = Vec::new();
        for i in 0..8u32 {
            rows.push(vec![i, 8 + i, 20]);
        }
        for i in 0..16u32 {
            rows.push(vec![i % 8, 16 + (i % 4)]);
        }
        (
            TransactionSet::from_rows(&rows, 21),
            SensitiveSet::new(vec![20], 21),
        )
    }

    #[test]
    fn raw_scan_flags_unique_sensitive_rows() {
        let (data, sens) = setup();
        let report = scan(&data, &sens, None, 3, 0.05);
        // Every sensitive row has a globally unique QID pair: posterior 1.
        assert_eq!(report.rows_scanned, 8);
        assert_eq!(report.vulnerable_rows, 8);
        assert_eq!(report.max_posterior, 1.0);
        assert!(!report.worst.is_empty());
        assert!(report.worst[0].group.is_none());
    }

    #[test]
    fn release_scan_is_bounded_and_deterministic() {
        let (data, sens) = setup();
        let p = 3;
        let (published, _) = cahd(&data, &sens, &CahdConfig::new(p)).unwrap();
        let a = scan(&data, &sens, Some(&published), p, 0.05);
        let b = scan(&data, &sens, Some(&published), p, 0.05);
        assert_eq!(a, b);
        assert!(a.max_posterior <= 1.0 / p as f64 + 1e-9, "{a:?}");
        assert!(a.rows_scanned > 0);
    }

    #[test]
    fn leaky_group_is_detected_deterministically() {
        use cahd_core::AnonymizedGroup;
        let (data, sens) = setup();
        let p = 3;
        // A two-row group holding one sensitive occurrence: f/|G| = 1/2,
        // well over 1/3.
        let members: Vec<u32> = (0..data.n_transactions() as u32).collect();
        let mut groups = vec![AnonymizedGroup::from_members(&data, &sens, &members[..2])];
        groups.push(AnonymizedGroup::from_members(&data, &sens, &members[2..]));
        let leaky = PublishedDataset {
            n_items: data.n_items(),
            sensitive_items: sens.items().to_vec(),
            groups,
        };
        let report = scan(&data, &sens, Some(&leaky), p, 0.05);
        assert!(report.max_posterior > 1.0 / p as f64, "{report:?}");
        assert!(report.vulnerable_rows > 0);
        assert_eq!(report.worst[0].group, Some(0));
    }

    #[test]
    fn empty_sensitive_set_scans_nothing() {
        let (data, _) = setup();
        let sens = SensitiveSet::new(vec![], 21);
        let report = scan(&data, &sens, None, 3, 0.05);
        assert_eq!(report.rows_scanned, 0);
        assert_eq!(report.vulnerable_rows, 0);
        assert_eq!(report.mean_posterior, 0.0);
    }
}
