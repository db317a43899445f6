//! CAHD — Correlation-aware Anonymization of High-dimensional Data.
//!
//! This crate implements the primary contribution of the ICDE 2008 paper
//! "On the Anonymization of Sparse High-Dimensional Data":
//!
//! * the privacy model of Section II ([`group::AnonymizedGroup`],
//!   [`group::PublishedDataset`], privacy degree `p`),
//! * the CAHD greedy group-formation heuristic of Section IV
//!   ([`cahd::cahd`], Fig. 8 of the paper), including the
//!   one-occurrence-per-group candidate lists and the remaining-occurrence
//!   feasibility check,
//! * the end-to-end pipeline of band-matrix reorganization followed by
//!   group formation ([`pipeline::Anonymizer`]),
//! * an independent verifier ([`verify::verify_published`]) that checks a
//!   published dataset against the original data and a target privacy
//!   degree without trusting the algorithm that produced it,
//! * a count-valued (non-binary) variant ([`weighted::cahd_weighted`])
//!   realizing the paper's future-work direction.
//!
//! # Quick start
//!
//! ```
//! use cahd_core::pipeline::{Anonymizer, AnonymizerConfig};
//! use cahd_data::{SensitiveSet, TransactionSet};
//! use cahd_obs::Recorder;
//!
//! // Five transactions over items 0..6; items 4 and 5 are sensitive.
//! let data = TransactionSet::from_rows(
//!     &[
//!         vec![0, 1, 4],
//!         vec![0, 1],
//!         vec![2, 3, 5],
//!         vec![2, 3],
//!         vec![0, 2],
//!     ],
//!     6,
//! );
//! let sensitive = SensitiveSet::new(vec![4, 5], 6);
//! let result = Anonymizer::new(AnonymizerConfig::with_privacy_degree(2))
//!     .anonymize(&data, &sensitive, &Recorder::disabled())
//!     .unwrap();
//! assert!(result.published.satisfies(2));
//! ```

pub mod cahd;
pub mod checkpoint;
pub mod diversity;
pub mod error;
pub mod group;
pub mod histogram;
mod invariant;
pub mod kernel;
pub mod order;
pub mod pipeline;
pub mod recovery;
pub mod refine;
pub mod shard;
pub mod split;
pub mod streaming;
pub mod verify;
pub mod weighted;

pub use cahd::{cahd, cahd_traced, CahdConfig, CahdStats};
pub use checkpoint::{StreamingCheckpoint, CHECKPOINT_VERSION};
pub use diversity::{privacy_report, PrivacyReport};
pub use error::CahdError;
pub use group::{AnonymizedGroup, PublishedDataset};
pub use kernel::{KernelMode, KernelStats, MinCountScorer, QidOverlapScorer, SimilarityKernel};
pub use pipeline::{Anonymizer, AnonymizerConfig, PipelineResult, RobustResult};
pub use recovery::RecoveryConfig;
pub use refine::{intra_group_overlap, refine_groups, OverlapCounter, RefineStats};
pub use shard::{cahd_sharded, cahd_sharded_traced, ParallelConfig, ShardedStats};
pub use split::FlatRows;
pub use streaming::{ReleaseChunk, StreamingAnonymizer};
pub use verify::{verify_all, verify_published, VerificationError};
pub use weighted::{cahd_weighted, verify_weighted, WeightedPublished, WeightedSimilarity};
