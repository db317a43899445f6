//! Row orderings outside the Cuthill-McKee engine.
//!
//! * [`cluster_order`] — the cluster-then-order strategy
//!   ([`crate::OrderingStrategy::Cluster`]): per-row MinHash signatures
//!   sorted lexicographically, so rows with high Jaccard similarity
//!   receive similar signatures and end up nearby. Linear time, no graph
//!   construction.
//! * [`RowOrder`] — the identity order against RCM, the pair the
//!   `ext-orderings` experiment compares on band locality and utility.
//!
//! Both return a [`Permutation`] in the same convention as
//! [`crate::band_order`].

use cahd_sparse::{CsrMatrix, Permutation, RowGraph, RowGraphMode};

/// Strategy selector used by comparison harnesses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowOrder {
    /// Keep the input order.
    Identity,
    /// Reverse Cuthill-McKee on the `A x A^T` pattern (the paper's method).
    Rcm,
}

impl RowOrder {
    /// Every strategy, for sweeps.
    pub const ALL: [RowOrder; 2] = [RowOrder::Identity, RowOrder::Rcm];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            RowOrder::Identity => "identity",
            RowOrder::Rcm => "rcm",
        }
    }

    /// Computes the row permutation of `a` under this strategy.
    pub fn order(self, a: &CsrMatrix) -> Permutation {
        match self {
            RowOrder::Identity => Permutation::identity(a.n_rows()),
            RowOrder::Rcm => {
                let g = RowGraph::build_mode_traced(
                    a,
                    RowGraphMode::Auto,
                    RowGraph::DEFAULT_EDGE_BUDGET,
                    None,
                    1,
                    &cahd_obs::Recorder::disabled(),
                );
                crate::parallel::band_order(&g, crate::OrderingStrategy::Rcm, 1)
            }
        }
    }
}

/// SplitMix64: cheap, well-distributed 64-bit mixer for the hash families.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Fixed seed of the [`cluster_order`] hash family. Pinned so the
/// cluster strategy is a pure function of the matrix — reproducible
/// across runs, machines and thread counts.
pub const CLUSTER_SEED: u64 = 0xCA4D_07D3;

/// Number of MinHash functions used by [`cluster_order`]. Sixteen
/// signatures give enough resolution to co-locate high-Jaccard rows
/// while keeping the signature pass a small multiple of `nnz`.
pub const CLUSTER_HASHES: usize = 16;

/// The cluster-then-order strategy ([`crate::OrderingStrategy::Cluster`]):
/// rows sorted by fixed-seed MinHash signatures, computed in parallel
/// over row chunks. Skips the `A x A^T` graph entirely, so its cost is
/// `O(nnz * CLUSTER_HASHES + n log n)` regardless of row-similarity
/// density.
///
/// Output is byte-identical at every `threads` value: each row's
/// signature is a pure function of its items, and the final sort breaks
/// signature ties by row id.
pub fn cluster_order(a: &CsrMatrix, threads: usize) -> Permutation {
    signature_order(a, CLUSTER_HASHES, CLUSTER_SEED, threads)
}

/// Rows sorted by their `h`-long MinHash signatures under the hash family
/// seeded by `seed`, with signature ties broken by row id; empty rows sort
/// last. The signatures are filled over contiguous row chunks by up to
/// `threads` workers.
fn signature_order(a: &CsrMatrix, h: usize, seed: u64, threads: usize) -> Permutation {
    let n = a.n_rows();
    let hash_seeds: Vec<u64> = (0..h as u64)
        .map(|k| splitmix64(seed ^ k.wrapping_mul(0xA24BAED4963EE407)))
        .collect();
    let mut sig = vec![u64::MAX; n * h];
    let fill = |rows: std::ops::Range<usize>, sig: &mut [u64]| {
        for (row_off, r) in rows.enumerate() {
            let s = &mut sig[row_off * h..(row_off + 1) * h];
            for &item in a.row(r) {
                for (k, &hs) in hash_seeds.iter().enumerate() {
                    let v = splitmix64(hs ^ item as u64);
                    if v < s[k] {
                        s[k] = v;
                    }
                }
            }
        }
    };
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        fill(0..n, &mut sig);
    } else {
        let chunk_rows = n.div_ceil(threads);
        std::thread::scope(|scope| {
            for (wi, sig_chunk) in sig.chunks_mut(chunk_rows * h).enumerate() {
                let lo = wi * chunk_rows;
                let hi = (lo + chunk_rows).min(n);
                let fill = &fill;
                scope.spawn(move || fill(lo..hi, sig_chunk));
            }
        });
    }
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&x, &y| {
        let sx = &sig[x as usize * h..(x as usize + 1) * h];
        let sy = &sig[y as usize * h..(y as usize + 1) * h];
        sx.cmp(sy).then(x.cmp(&y))
    });
    // cahd-lint: allow(L003, reason = "order is a sort of 0..n, which is a permutation by construction")
    Permutation::from_new_to_old(order).expect("sorted indices are a permutation")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks() -> CsrMatrix {
        // Interleaved two-block data, as in the unsym tests.
        CsrMatrix::from_rows(
            &[
                vec![0, 1],
                vec![3, 4],
                vec![1, 2],
                vec![4, 5],
                vec![0, 2],
                vec![3, 5],
            ],
            6,
        )
    }

    /// A fixed pseudo-random 24-row matrix over 20 items, with empty rows.
    fn random_matrix() -> CsrMatrix {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let rows: Vec<Vec<u32>> = (0..24)
            .map(|_| {
                let len = next() % 5;
                (0..len).map(|_| (next() % 20) as u32).collect()
            })
            .collect();
        CsrMatrix::from_rows(&rows, 20)
    }

    fn positions(p: &Permutation, rows: &[usize]) -> Vec<usize> {
        let mut v: Vec<usize> = rows.iter().map(|&r| p.old_to_new(r)).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn minhash_groups_similar_rows() {
        let a = blocks();
        let p = signature_order(&a, 16, 7, 1);
        let pa = positions(&p, &[0, 2, 4]);
        assert!(
            pa == vec![0, 1, 2] || pa == vec![3, 4, 5],
            "block A positions {pa:?}"
        );
    }

    #[test]
    fn minhash_is_deterministic_per_seed() {
        // Pinned outputs: the permutations must never drift.
        let cases: [(CsrMatrix, &[u32], &[u32]); 2] = [
            (blocks(), &[4, 0, 5, 1, 3, 2], &[2, 0, 4, 5, 1, 3]),
            (
                random_matrix(),
                &[
                    21, 10, 4, 5, 0, 22, 20, 9, 12, 14, 13, 23, 16, 2, 11, 18, 1, 3, 6, 7, 8, 15,
                    17, 19,
                ],
                &[
                    16, 4, 21, 10, 18, 20, 13, 2, 23, 5, 0, 11, 9, 22, 14, 12, 1, 3, 6, 7, 8, 15,
                    17, 19,
                ],
            ),
        ];
        for (a, h8_seed1, h16_seed7) in cases {
            assert_eq!(signature_order(&a, 8, 1, 1).new_to_old_slice(), h8_seed1);
            assert_eq!(signature_order(&a, 16, 7, 1).new_to_old_slice(), h16_seed7);
        }
    }

    #[test]
    fn identical_rows_are_adjacent_under_minhash() {
        let a = CsrMatrix::from_rows(&[vec![5], vec![1, 2], vec![5], vec![1, 2]], 6);
        let p = signature_order(&a, 8, 3, 1);
        assert_eq!(
            p.old_to_new(0).abs_diff(p.old_to_new(2)),
            1,
            "identical rows must be neighbors"
        );
        assert_eq!(p.old_to_new(1).abs_diff(p.old_to_new(3)), 1);
    }

    #[test]
    fn all_strategies_produce_valid_permutations() {
        let a = blocks();
        for strat in RowOrder::ALL {
            let p = strat.order(&a);
            assert_eq!(p.len(), a.n_rows(), "{}", strat.name());
            assert!(p.then(&p.inverse()).is_identity());
        }
        assert!(RowOrder::Identity.order(&a).is_identity());
    }

    #[test]
    fn names_unique() {
        let names: std::collections::HashSet<_> = RowOrder::ALL.iter().map(|o| o.name()).collect();
        assert_eq!(names.len(), RowOrder::ALL.len());
    }

    #[test]
    fn cluster_order_is_thread_count_invariant() {
        // Pinned outputs: the permutations must never drift.
        let cases: [(CsrMatrix, &[u32]); 2] = [
            (blocks(), &[3, 5, 0, 4, 1, 2]),
            (
                random_matrix(),
                &[
                    20, 13, 18, 16, 23, 21, 22, 9, 12, 2, 10, 4, 11, 14, 5, 0, 1, 3, 6, 7, 8, 15,
                    17, 19,
                ],
            ),
        ];
        for (a, pinned) in cases {
            for threads in [1usize, 2, 3, 8] {
                assert_eq!(
                    cluster_order(&a, threads).new_to_old_slice(),
                    pinned,
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn cluster_order_groups_blocks() {
        // Two blocks of high-Jaccard rows (pairwise similarity >= 1/2),
        // interleaved in the input: signatures must co-locate each block.
        let a = CsrMatrix::from_rows(
            &[
                vec![0, 1, 2],
                vec![4, 5, 6],
                vec![0, 1, 2],
                vec![4, 5, 6],
                vec![0, 1, 3],
                vec![4, 5, 7],
            ],
            8,
        );
        let p = cluster_order(&a, 2);
        let pa = positions(&p, &[0, 2, 4]);
        assert!(
            pa == vec![0, 1, 2] || pa == vec![3, 4, 5],
            "block A positions {pa:?}"
        );
    }

    #[test]
    fn cluster_order_valid_on_edge_shapes() {
        for rows in [vec![], vec![vec![], vec![]], vec![vec![0u32, 1], vec![]]] {
            let a = CsrMatrix::from_rows(&rows, 4);
            let p = cluster_order(&a, 4);
            assert_eq!(p.len(), rows.len());
            assert!(p.then(&p.inverse()).is_identity());
        }
    }
}
