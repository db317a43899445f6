//! Property-based tests for the sparse substrate.

use cahd_sparse::{CsrMatrix, Graph, ParNeighborOracle, Permutation, RowGraph};
use proptest::prelude::*;

/// Strategy: a random binary matrix as per-row column lists.
fn arb_matrix() -> impl Strategy<Value = (Vec<Vec<u32>>, usize)> {
    (1usize..30).prop_flat_map(|n_cols| {
        (
            proptest::collection::vec(proptest::collection::vec(0..n_cols as u32, 0..8), 0..25),
            Just(n_cols),
        )
    })
}

fn arb_perm(n: usize) -> impl Strategy<Value = Permutation> {
    Just(()).prop_perturb(move |_, mut rng| {
        let mut order: Vec<u32> = (0..n as u32).collect();
        // Fisher-Yates with proptest's rng for reproducibility
        for i in (1..n).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        Permutation::from_new_to_old(order).unwrap()
    })
}

proptest! {
    #[test]
    fn transpose_involution((rows, n_cols) in arb_matrix()) {
        let m = CsrMatrix::from_rows(&rows, n_cols);
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_preserves_nnz((rows, n_cols) in arb_matrix()) {
        let m = CsrMatrix::from_rows(&rows, n_cols);
        prop_assert_eq!(m.transpose().nnz(), m.nnz());
    }

    #[test]
    fn row_permutation_preserves_multiset((rows, n_cols) in arb_matrix()) {
        let m = CsrMatrix::from_rows(&rows, n_cols);
        let n = m.n_rows();
        let flip = Permutation::identity(n).reversed();
        let pm = m.permute_rows(&flip);
        prop_assert_eq!(pm.nnz(), m.nnz());
        for r in 0..n {
            prop_assert_eq!(pm.row(r), m.row(n - 1 - r));
        }
    }

    #[test]
    fn random_perm_roundtrip(n in 1usize..40) {
        proptest!(|(p in arb_perm(n))| {
            prop_assert!(p.then(&p.inverse()).is_identity());
            prop_assert!(p.inverse().then(&p).is_identity());
            prop_assert!(p.reversed().reversed() == p);
        });
    }

    #[test]
    fn aat_implicit_equals_explicit((rows, n_cols) in arb_matrix()) {
        let m = CsrMatrix::from_rows(&rows, n_cols);
        let ex = RowGraph::build_explicit(&m);
        let im = RowGraph::build_implicit(&m);
        let mut scratch = im.new_scratch();
        for v in 0..m.n_rows() {
            let mut a = Vec::new();
            let mut b = Vec::new();
            a.extend_from_slice(ex.neighbors(v));
            im.neighbors_scratch(v, &mut scratch, &mut b);
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(&a, &b, "vertex {}", v);
            prop_assert_eq!(ex.degree(v), ParNeighborOracle::degree(&im, v));
        }
    }

    #[test]
    fn aat_is_symmetric_and_loopless((rows, n_cols) in arb_matrix()) {
        let m = CsrMatrix::from_rows(&rows, n_cols);
        let g = RowGraph::build_explicit(&m);
        for v in 0..g.n_vertices() {
            for &w in g.neighbors(v) {
                prop_assert_ne!(w as usize, v, "self loop at {}", v);
                prop_assert!(g.neighbors(w as usize).contains(&(v as u32)),
                    "edge {}-{} not symmetric", v, w);
            }
        }
    }

    #[test]
    fn components_partition_vertices(edges in proptest::collection::vec((0u32..20, 0u32..20), 0..40)) {
        let g = Graph::from_edges(20, &edges);
        let (comp, k) = g.connected_components();
        prop_assert_eq!(comp.len(), 20);
        for &c in &comp {
            prop_assert!((c as usize) < k);
        }
        // Every edge stays within one component.
        for v in 0..20 {
            for &w in g.neighbors(v) {
                prop_assert_eq!(comp[v], comp[w as usize]);
            }
        }
    }

    #[test]
    fn intersection_len_matches_naive(
        a in proptest::collection::btree_set(0u32..50, 0..20),
        b in proptest::collection::btree_set(0u32..50, 0..20),
    ) {
        let va: Vec<u32> = a.iter().copied().collect();
        let vb: Vec<u32> = b.iter().copied().collect();
        let expect = a.intersection(&b).count();
        prop_assert_eq!(CsrMatrix::intersection_len(&va, &vb), expect);
    }
}
