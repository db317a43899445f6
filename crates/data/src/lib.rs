//! Transaction data model, I/O, statistics and synthetic generation.
//!
//! The paper evaluates on two retail clickstream datasets (BMS-WebView-1/2)
//! and one synthetic workload produced by the IBM Quest market-basket
//! generator. The real datasets are not redistributable, so this crate
//! ships:
//!
//! * [`transaction::TransactionSet`] — the binary transaction matrix with
//!   the usual accessors (`cahd-sparse` CSR underneath),
//! * [`io`] — readers/writers for the standard `.dat` basket format, so the
//!   real BMS files can be dropped in when available,
//! * [`quest`] — a Rust reimplementation of the Quest generator's
//!   stochastic model (weighted maximal potential itemsets, Poisson
//!   lengths, pattern-to-pattern correlation, corruption levels),
//! * [`profiles`] — ready-made configurations that mimic the published
//!   characteristics of BMS1, BMS2 (Table I) and the Fig. 6 workload,
//! * [`sensitive`] — strategies for selecting the sensitive item set `S`,
//! * [`stats`] — dataset characteristic reports (Table I),
//! * [`weighted`] — count-valued (non-binary) transactions, realizing the
//!   paper's future-work direction.

pub mod io;
pub mod profiles;
pub mod quest;
pub mod rand_ext;
pub mod sensitive;
pub mod stats;
pub mod transaction;
pub mod weighted;

pub use quest::{QuestConfig, QuestGenerator};
pub use sensitive::SensitiveSet;
pub use stats::DatasetStats;
pub use transaction::{ItemId, TransactionSet};
pub use weighted::WeightedTransactionSet;
