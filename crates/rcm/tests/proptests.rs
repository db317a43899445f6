//! Property-based tests for RCM.

mod common;

use cahd_rcm::{band_order, reduce_unsymmetric, OrderingStrategy, UnsymOptions};
use cahd_sparse::bandwidth::graph_band_stats;
use cahd_sparse::{CsrMatrix, Graph, Permutation};
use common::fig4::{fig4, Traversal};
use common::{adjacency, components_contiguous};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..30).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..60)
            .prop_map(move |edges| Graph::from_edges(n, &edges))
    })
}

/// The engine's RCM at one worker — the production path on a small host.
fn rcm(g: &Graph) -> Permutation {
    band_order(g, OrderingStrategy::Rcm, 1)
}

proptest! {
    #[test]
    fn rcm_matches_fig4_and_is_a_permutation(g in arb_graph()) {
        let p = rcm(&g);
        prop_assert_eq!(p.new_to_old_slice(), &fig4(&adjacency(&g), Traversal::Cm).order[..]);
        prop_assert_eq!(p.len(), g.n_vertices());
        // from_new_to_old already validates bijectivity; composing with the
        // inverse must be the identity.
        prop_assert!(p.then(&p.inverse()).is_identity());
    }

    #[test]
    fn rcm_and_cm_have_equal_bandwidth(g in arb_graph()) {
        // Reversal cannot change the bandwidth, only the profile. CM is
        // the RCM order read forwards.
        let rcm = rcm(&g);
        let cm = rcm.reversed();
        let bc = graph_band_stats(&g, &cm).bandwidth;
        let br = graph_band_stats(&g, &rcm).bandwidth;
        prop_assert_eq!(bc, br);
    }

    #[test]
    fn rcm_profile_le_cm_profile(g in arb_graph()) {
        // The classic Liu–Sherman result: reversing CM never increases the
        // envelope/profile.
        let rcm = rcm(&g);
        let cm = rcm.reversed();
        let pc = graph_band_stats(&g, &cm).profile;
        let pr = graph_band_stats(&g, &rcm).profile;
        prop_assert!(pr <= pc, "rcm profile {} > cm profile {}", pr, pc);
    }

    #[test]
    fn components_stay_contiguous(g in arb_graph()) {
        prop_assert!(components_contiguous(&g, &rcm(&g)));
    }

    #[test]
    fn unsym_pipeline_valid_permutations(
        rows in proptest::collection::vec(proptest::collection::vec(0u32..15, 0..6), 1..20)
    ) {
        let a = CsrMatrix::from_rows(&rows, 15);
        let red = reduce_unsymmetric(&a, UnsymOptions::default());
        prop_assert_eq!(red.row_perm.len(), a.n_rows());
        prop_assert_eq!(red.col_perm.len(), a.n_cols());
        // Permuting and measuring with identity must equal measuring the
        // original with the permutations.
        let pa = a.permute_rows(&red.row_perm).permute_cols(&red.col_perm);
        let id_r = Permutation::identity(a.n_rows());
        let id_c = Permutation::identity(a.n_cols());
        let direct = cahd_sparse::rect_band_stats(&pa, &id_r, &id_c);
        prop_assert_eq!(direct.max_row_span, red.after.max_row_span);
        prop_assert!((direct.mean_row_span - red.after.mean_row_span).abs() < 1e-9);
    }
}
