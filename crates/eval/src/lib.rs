//! Utility evaluation for anonymized transaction data.
//!
//! Implements the utility methodology of Section II-B and the measurements
//! of Section V of the CAHD paper:
//!
//! * [`query::GroupByQuery`] — COUNT queries combining one sensitive item
//!   with `r` QID items (eq. 1 of the paper) and a seeded workload
//!   generator,
//! * [`cells`] — the `2^r` presence/absence cells of a group-by query,
//! * [`reconstruct`] — the actual and estimated probability distribution
//!   functions (the estimate uses `a * b / |G|` per group, eq. 2),
//! * [`kl`] — KL divergence between actual and estimated PDFs, with the
//!   additive smoothing the metric needs on empty estimated cells,
//! * [`reident`] — the re-identification probability experiment of
//!   Table II,
//! * [`mining`] — Apriori frequent-itemset mining and pattern-preservation
//!   metrics (the paper's motivating analysis task),
//! * [`runner`] — workload-level aggregation (mean/median KL over the 100
//!   random queries per setting used throughout Section V).

pub mod adversary;
pub mod attack;
pub mod bootstrap;
pub mod cells;
pub mod kl;
pub mod mining;
pub mod query;
pub mod reconstruct;
pub mod reident;
pub mod runner;

pub use adversary::{
    derive_seed, posterior_violations, run_attack_suite, unique_match_violations, AttackPlan,
    AttackReport, AttackTarget, CurvePoint, IntersectionReport, SuccessCurve, VulnerableReport,
    VulnerableRow,
};
pub use attack::{attack_published, attack_raw, AttackOutcome};
pub use bootstrap::{bootstrap_mean_ci, paired_bootstrap_less, BootstrapInterval};
pub use kl::{kl_divergence, DEFAULT_SMOOTHING};
pub use mining::{frequent_itemsets, top_k_itemsets, Itemset};
pub use query::{
    generate_workload, generate_workload_seeded, GroupByQuery, QidSelection, WorkloadConfig,
};
pub use reconstruct::{actual_pdf, estimated_pdf, WorkloadIndex};
pub use reident::reidentification_probability;
pub use runner::{
    average_relative_error, evaluate_workload, evaluate_workload_traced, workload_kls,
    ReconstructionSummary,
};
