//! Run-time selection of the band-reducing row-ordering strategy.
//!
//! A small enum with a canonical name per variant, parseable from
//! `--ordering`. The caller's
//! [`crate::UnsymOptions::ordering`] is the only way to choose one.

/// Which band-reducing row ordering the unsymmetric reduction runs.
///
/// All strategies produce a valid row permutation; they trade ordering
/// cost against band quality (and hence downstream anonymization
/// utility). [`OrderingStrategy::Rcm`] is the paper's Fig. 4, the same
/// bytes at every thread count; the cheaper strategies are deterministic
/// but intentionally different orders.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OrderingStrategy {
    /// Reverse Cuthill-McKee over the `A x A^T` row graph (the paper's
    /// method, Fig. 4/5). Best band quality; the default.
    #[default]
    Rcm,
    /// Reversed BFS from the pseudo-peripheral root, skipping the
    /// Cuthill-McKee degree sort: the George–Liu level structure that the
    /// root search already built *is* the ordering. Slightly wider bands
    /// than RCM, but the entire CM pass disappears.
    Bfs,
    /// Cluster-then-order: rows sorted by fixed-seed MinHash signatures
    /// (see [`crate::ordering::cluster_order`]), skipping the `A x A^T`
    /// graph entirely. Linear time; the cheapest strategy, in the spirit
    /// of clustering-based query-log anonymization.
    Cluster,
}

impl OrderingStrategy {
    /// Every strategy, for sweeps and test matrices.
    pub const ALL: [OrderingStrategy; 3] = [
        OrderingStrategy::Rcm,
        OrderingStrategy::Bfs,
        OrderingStrategy::Cluster,
    ];

    /// Parses a strategy name as used by `--ordering`: `rcm`, `bfs` or
    /// `cluster`.
    pub fn parse(s: &str) -> Option<OrderingStrategy> {
        match s {
            "rcm" => Some(OrderingStrategy::Rcm),
            "bfs" => Some(OrderingStrategy::Bfs),
            "cluster" => Some(OrderingStrategy::Cluster),
            _ => None,
        }
    }

    /// Returns `self`. Kept only because perfbench calls it; it goes with
    /// the perfbench rewrite (ROADMAP item 2). Nothing else calls it.
    pub fn resolved(self) -> OrderingStrategy {
        self
    }

    /// The canonical name ([`OrderingStrategy::parse`] accepts it back).
    pub fn name(self) -> &'static str {
        match self {
            OrderingStrategy::Rcm => "rcm",
            OrderingStrategy::Bfs => "bfs",
            OrderingStrategy::Cluster => "cluster",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_names() {
        for s in OrderingStrategy::ALL {
            assert_eq!(OrderingStrategy::parse(s.name()), Some(s));
        }
        assert_eq!(OrderingStrategy::parse("minhash"), None);
        assert_eq!(OrderingStrategy::parse(""), None);
    }

    #[test]
    fn default_is_rcm() {
        assert_eq!(OrderingStrategy::default(), OrderingStrategy::Rcm);
    }

    #[test]
    fn names_unique() {
        let mut names: Vec<_> = OrderingStrategy::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), OrderingStrategy::ALL.len());
    }
}
