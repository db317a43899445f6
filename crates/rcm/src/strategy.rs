//! Run-time selection of the band-reducing row-ordering strategy.
//!
//! Mirrors the `KernelMode` pattern of `cahd-core`: a small enum with a
//! canonical name per variant, parseable from `--ordering` and the
//! `CAHD_ORDERING` environment variable, resolved once per run at the
//! pipeline entry point so CI can force any strategy through any entry
//! point without touching configs.

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

    /// Parses a strategy name as used by `--ordering` and
    /// `CAHD_ORDERING`: `rcm`, `bfs` or `cluster`.
    pub fn parse(s: &str) -> Option<OrderingStrategy> {
        match s {
            "rcm" => Some(OrderingStrategy::Rcm),
            "bfs" => Some(OrderingStrategy::Bfs),
            "cluster" => Some(OrderingStrategy::Cluster),
            _ => None,
        }
    }

    /// The strategy named by the `CAHD_ORDERING` environment variable, if
    /// set to a recognized value.
    pub fn from_env() -> Option<OrderingStrategy> {
        std::env::var("CAHD_ORDERING")
            .ok()
            .and_then(|v| OrderingStrategy::parse(v.trim()))
    }

    /// Resolves the effective strategy: a recognized `CAHD_ORDERING`
    /// value overrides the configured one. Entry points resolve once per
    /// run; unrecognized values are ignored.
    pub fn resolved(self) -> OrderingStrategy {
        OrderingStrategy::from_env().unwrap_or(self)
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
