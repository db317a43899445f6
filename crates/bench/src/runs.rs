//! Shared method-execution helpers for the experiment harness.
//!
//! The RCM transformation is a one-off cost per dataset (the paper reports
//! it separately in Fig. 12), so experiments that sweep `p`, `m`, `r` or
//! `alpha` prepare a dataset once with [`prepare`] and run CAHD repeatedly
//! on the band-ordered copy.

use std::time::{Duration, Instant};

use cahd_core::{cahd, cahd_sharded, CahdConfig, CahdError, ParallelConfig, PublishedDataset};
use cahd_data::{SensitiveSet, TransactionSet};
use cahd_eval::{evaluate_workload, generate_workload_seeded, ReconstructionSummary};
use cahd_obs::Recorder;
use cahd_rcm::{reduce_unsymmetric, BandReduction, UnsymOptions};

use cahd_baselines::{perm_mondrian, random_grouping, PmConfig};

/// A dataset with its band reorganization precomputed.
pub struct PreparedDataset {
    /// The original transaction set.
    pub data: TransactionSet,
    /// The RCM reduction (row/column permutations, band stats, timing).
    pub band: BandReduction,
    /// The band-ordered copy CAHD consumes.
    pub permuted: TransactionSet,
}

/// Runs RCM once and caches the permuted dataset.
pub fn prepare(data: TransactionSet, options: UnsymOptions) -> PreparedDataset {
    let band = reduce_unsymmetric(data.matrix(), options, &Recorder::disabled());
    let permuted = data.permute(&band.row_perm);
    PreparedDataset {
        data,
        band,
        permuted,
    }
}

/// The outcome of one anonymization run.
pub struct MethodResult {
    /// The release (members refer to original transaction indices).
    pub published: PublishedDataset,
    /// Wall-clock time of the grouping phase (RCM excluded, as in
    /// Fig. 12).
    pub time: Duration,
}

/// Runs CAHD on a prepared dataset (group formation timed alone).
pub fn run_cahd(
    prep: &PreparedDataset,
    sensitive: &SensitiveSet,
    p: usize,
    alpha: usize,
) -> Result<MethodResult, CahdError> {
    let t0 = Instant::now();
    let (mut published, _) = cahd(
        &prep.permuted,
        sensitive,
        &CahdConfig::new(p).with_alpha(alpha),
    )?;
    let time = t0.elapsed();
    for g in &mut published.groups {
        for m in &mut g.members {
            *m = prep.band.row_perm.new_to_old(*m as usize) as u32;
        }
    }
    Ok(MethodResult { published, time })
}

/// Runs the sharded parallel CAHD on a prepared dataset (group formation
/// timed alone, as in [`run_cahd`]).
pub fn run_cahd_sharded(
    prep: &PreparedDataset,
    sensitive: &SensitiveSet,
    p: usize,
    alpha: usize,
    parallel: ParallelConfig,
) -> Result<MethodResult, CahdError> {
    let t0 = Instant::now();
    let (mut published, _) = cahd_sharded(
        &prep.permuted,
        sensitive,
        &CahdConfig::new(p).with_alpha(alpha),
        &parallel,
    )?;
    let time = t0.elapsed();
    for g in &mut published.groups {
        for m in &mut g.members {
            *m = prep.band.row_perm.new_to_old(*m as usize) as u32;
        }
    }
    Ok(MethodResult { published, time })
}

/// Runs the PermMondrian baseline.
pub fn run_pm(
    data: &TransactionSet,
    sensitive: &SensitiveSet,
    p: usize,
) -> Result<MethodResult, CahdError> {
    let t0 = Instant::now();
    let (published, _) = perm_mondrian(data, sensitive, &PmConfig::new(p))?;
    Ok(MethodResult {
        published,
        time: t0.elapsed(),
    })
}

/// Runs the Anatomy-flavored random-grouping reference.
pub fn run_random(
    data: &TransactionSet,
    sensitive: &SensitiveSet,
    p: usize,
    seed: u64,
) -> Result<MethodResult, CahdError> {
    let t0 = Instant::now();
    let published = random_grouping(data, sensitive, p, seed)?;
    Ok(MethodResult {
        published,
        time: t0.elapsed(),
    })
}

/// Selects `m` sensitive items, reproducibly, keeping degree `p_max`
/// feasible.
pub fn select_sensitive(data: &TransactionSet, m: usize, p_max: usize, seed: u64) -> SensitiveSet {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    SensitiveSet::select_random(data, m, p_max, &mut rng)
        .expect("profiles always have enough low-support items")
}

/// Generates the paper's 100-query workload and evaluates the mean KL
/// divergence of a release.
pub fn kl_of(
    data: &TransactionSet,
    sensitive: &SensitiveSet,
    published: &PublishedDataset,
    r: usize,
    seed: u64,
) -> ReconstructionSummary {
    let queries = generate_workload_seeded(data, sensitive, r, 100, seed);
    evaluate_workload(data, published, &queries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cahd_core::verify_published;
    use cahd_data::profiles;

    fn tiny() -> (PreparedDataset, SensitiveSet) {
        let data = profiles::bms1_like(0.01, 3);
        let sens = select_sensitive(&data, 5, 20, 11);
        (prepare(data, UnsymOptions::default()), sens)
    }

    #[test]
    fn cahd_run_verifies_and_reports_time() {
        let (prep, sens) = tiny();
        let res = run_cahd(&prep, &sens, 4, 3).unwrap();
        verify_published(&prep.data, &sens, &res.published, 4).unwrap();
    }

    #[test]
    fn sharded_run_verifies_and_maps_members_back() {
        let (prep, sens) = tiny();
        let res = run_cahd_sharded(&prep, &sens, 4, 3, ParallelConfig::new(4, 2)).unwrap();
        verify_published(&prep.data, &sens, &res.published, 4).unwrap();
        // shards = 1 reproduces the sequential helper exactly.
        let seq = run_cahd(&prep, &sens, 4, 3).unwrap();
        let one = run_cahd_sharded(&prep, &sens, 4, 3, ParallelConfig::new(1, 4)).unwrap();
        assert_eq!(seq.published, one.published);
    }

    #[test]
    fn pm_and_random_verify() {
        let (prep, sens) = tiny();
        let pm = run_pm(&prep.data, &sens, 4).unwrap();
        verify_published(&prep.data, &sens, &pm.published, 4).unwrap();
        let rnd = run_random(&prep.data, &sens, 4, 5).unwrap();
        verify_published(&prep.data, &sens, &rnd.published, 4).unwrap();
    }

    #[test]
    fn kl_is_finite_and_nonnegative() {
        let (prep, sens) = tiny();
        let res = run_cahd(&prep, &sens, 4, 3).unwrap();
        let kl = kl_of(&prep.data, &sens, &res.published, 3, 7);
        assert!(kl.n_queries > 0);
        assert!(kl.mean_kl.is_finite());
        assert!(kl.mean_kl >= 0.0);
    }
}
