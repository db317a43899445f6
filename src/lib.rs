//! # CAHD — anonymization of sparse high-dimensional transaction data
//!
//! A complete Rust implementation of *"On the Anonymization of Sparse
//! High-Dimensional Data"* (Ghinita, Tao, Kalnis — ICDE 2008): the CAHD
//! algorithm, the band-matrix (Reverse Cuthill-McKee) data reorganization
//! it builds on, the PermMondrian and Anatomy-style baselines it is
//! evaluated against, and the full utility-evaluation methodology
//! (reconstruction queries, KL divergence, re-identification risk).
//!
//! This crate is an umbrella that re-exports the workspace members:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`sparse`] | `cahd-sparse` | CSR binary matrices, graphs, `A x A^T`, bandwidth metrics, visualization |
//! | [`rcm`] | `cahd-rcm` | Reverse Cuthill-McKee, pseudo-peripheral roots, unsymmetric reduction |
//! | [`data`] | `cahd-data` | transaction model, `.dat` I/O, Quest-style generator, BMS-like profiles |
//! | [`core`] | `cahd-core` | privacy model, the CAHD heuristic, pipeline, verifier |
//! | [`baselines`] | `cahd-baselines` | PermMondrian and random (Anatomy-style) grouping |
//! | [`eval`] | `cahd-eval` | group-by queries, PDF reconstruction, KL divergence, re-identification |
//!
//! # Quick start
//!
//! ```
//! use cahd::prelude::*;
//!
//! // Synthesize a small basket dataset (or load one with
//! // `cahd::data::io::read_dat_file`).
//! let data = cahd::data::profiles::bms1_like(0.01, 42);
//!
//! // Pick 5 sensitive items (bounded support keeps p = 10 feasible).
//! let mut rng = rand_seed(7);
//! let sensitive = SensitiveSet::select_random(&data, 5, 10, &mut rng).unwrap();
//!
//! // Anonymize with privacy degree 10: band-matrix reorganization + CAHD.
//! let result = Anonymizer::new(AnonymizerConfig::with_privacy_degree(10))
//!     .anonymize(&data, &sensitive)
//!     .unwrap();
//!
//! // Independently verify the release.
//! verify_published(&data, &sensitive, &result.published, 10).unwrap();
//! assert!(result.published.satisfies(10));
//! ```

pub use cahd_baselines as baselines;
pub use cahd_core as core;
pub use cahd_data as data;
pub use cahd_eval as eval;
pub use cahd_rcm as rcm;
pub use cahd_sparse as sparse;

/// The most commonly used types and functions, re-exported flat.
pub mod prelude {
    pub use cahd_baselines::{perm_mondrian, random_grouping, PmConfig};
    // `cahd_core::cahd` names both a module and a function; import only the
    // function (value namespace) so the glob doesn't shadow the `cahd`
    // crate itself.
    pub use cahd_core::cahd::cahd;
    pub use cahd_core::{
        cahd_sharded, enforce_feasibility, privacy_report, verify_published, AnonymizedGroup,
        Anonymizer, AnonymizerConfig, CahdConfig, CahdError, ParallelConfig, PrivacyReport,
        PublishedDataset, ShardedStats, StreamingAnonymizer, SuppressionReport,
    };
    pub use cahd_data::{DatasetStats, ItemId, SensitiveSet, TransactionSet};
    pub use cahd_eval::{
        estimate_count, evaluate_workload, generate_workload_seeded, kl_divergence, mine_rules,
        reidentification_probability, GroupByQuery,
    };
    pub use cahd_rcm::{band_order, reduce_unsymmetric, OrderingStrategy, UnsymOptions};
    pub use cahd_sparse::{CsrMatrix, Permutation};

    /// A seeded standard RNG — saves examples/doc-tests an explicit `rand`
    /// dependency dance.
    pub fn rand_seed(seed: u64) -> impl rand::Rng {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(seed)
    }
}
