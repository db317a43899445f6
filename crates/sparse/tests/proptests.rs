//! Property-based tests for the sparse substrate.

use cahd_sparse::{
    row_classes, ColumnSpace, CsrMatrix, Graph, ImplicitRowGraph, ParNeighborOracle, Permutation,
    Relabel, RowGraph,
};
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

/// Strategy: raw rows (unsorted, repeating, some ids up to four past the
/// universe) over a universe wide enough for both [`Relabel`]
/// representations: ⌈n_cols/64⌉ runs from 1 to 63 words against up to
/// 200 references.
fn arb_sets() -> impl Strategy<Value = (Vec<Vec<u32>>, usize)> {
    (1usize..4000).prop_flat_map(|n_cols| {
        (
            proptest::collection::vec(proptest::collection::vec(0..n_cols as u32 + 4, 0..8), 0..25),
            Just(n_cols),
        )
    })
}

/// The ids below `n_cols` that `rows` hold, ascending: the relabel's
/// definition.
fn held_ids(rows: &[Vec<u32>], n_cols: usize) -> Vec<u32> {
    let mut ids: Vec<u32> = rows
        .iter()
        .flatten()
        .copied()
        .filter(|&c| (c as usize) < n_cols)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
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

/// Checks [`CsrMatrix::from_sets`] on `rows` against its definition:
/// each row's held ids, and per held id the rows holding it.
fn assert_from_sets(rows: &[Vec<u32>], n_cols: usize) -> Result<(), String> {
    let refs: Vec<&[u32]> = rows.iter().map(Vec::as_slice).collect();
    let (sets, relabel) = CsrMatrix::from_sets(&refs, n_cols);
    prop_assert_eq!(relabel.ids(), &held_ids(rows, n_cols)[..]);
    prop_assert_eq!(sets.n_rows(), rows.len());
    prop_assert_eq!(sets.n_cols(), relabel.ids().len());
    for (r, row) in rows.iter().enumerate() {
        let back: Vec<u32> = sets
            .row(r)
            .iter()
            .map(|&j| relabel.ids()[j as usize])
            .collect();
        prop_assert_eq!(back, held_ids(std::slice::from_ref(row), n_cols));
    }
    // The transpose lists, per held item, the rows holding it.
    let postings = sets.transpose();
    for (j, &id) in relabel.ids().iter().enumerate() {
        let want: Vec<u32> = (0..rows.len() as u32)
            .filter(|&r| rows[r as usize].contains(&id))
            .collect();
        prop_assert_eq!(postings.row(j), &want[..]);
    }
    Ok(())
}

proptest! {
    #[test]
    fn relabel_matches_a_sort((rows, n_cols) in arb_sets()) {
        let want = held_ids(&rows, n_cols);
        let touched: Vec<u32> = rows
            .iter()
            .flatten()
            .copied()
            .filter(|&c| (c as usize) < n_cols)
            .collect();
        let words = n_cols.div_ceil(64);
        // The true count, and counts on both sides of the crossover: the
        // representation changes, the answers do not.
        for nnz in [touched.len(), words.saturating_sub(1), words, words + 1, n_cols + 1] {
            let (r, ranks) = Relabel::of(n_cols, nnz, touched.iter().copied());
            prop_assert_eq!(r.ids(), &want[..]);
            let ranked: Vec<u32> = touched.iter().map(|c| want.binary_search(c).unwrap() as u32).collect();
            prop_assert_eq!(ranks, ranked);
            for id in 0..n_cols as u32 + 4 {
                let rank = want.binary_search(&id).ok().map(|p| p as u32);
                prop_assert_eq!(r.rank(id), rank, "id {}", id);
            }
        }
    }

    #[test]
    fn from_sets_reads_rows_as_sets((rows, n_cols) in arb_sets()) {
        assert_from_sets(&rows, n_cols)?;
    }

    #[test]
    fn from_sets_keeps_rows_that_are_sets((rows, n_cols) in arb_sets()) {
        // Well-formed rows skip the repair pass; narrow universes take
        // the relabel's rank table.
        let sets: Vec<Vec<u32>> = rows
            .iter()
            .map(|row| held_ids(std::slice::from_ref(row), n_cols))
            .collect();
        assert_from_sets(&sets, n_cols)?;
        let narrow: Vec<Vec<u32>> = sets
            .iter()
            .map(|row| held_ids(&[row.iter().map(|&c| c % 16).collect()], 16))
            .collect();
        assert_from_sets(&narrow, 16)?;
    }

    #[test]
    fn compaction_keeps_every_row((rows, n_cols) in arb_sets()) {
        let rows: Vec<Vec<u32>> = rows
            .iter()
            .map(|row| row.iter().copied().filter(|&c| (c as usize) < n_cols).collect())
            .collect();
        let m = CsrMatrix::from_rows(&rows, n_cols);
        let (c, relabel) = m.compact_columns();
        prop_assert_eq!(relabel.ids(), &held_ids(&rows, n_cols)[..]);
        for r in 0..m.n_rows() {
            let back: Vec<u32> = c.row(r).iter().map(|&j| relabel.ids()[j as usize]).collect();
            prop_assert_eq!(&back[..], m.row(r));
        }
        // Compacted only when wide, and then to the same columns.
        let ColumnSpace { matrix: w, relabel: wide } = ColumnSpace::of(&m);
        prop_assert_eq!(wide.is_some(), CsrMatrix::is_wide(n_cols, m.nnz()));
        if wide.is_some() {
            prop_assert_eq!(&*w, &*c);
        } else {
            prop_assert_eq!(&*w, &m);
        }
    }

    #[test]
    fn row_classes_group_equal_rows_in_set_order((rows, n_cols) in arb_matrix()) {
        let m = CsrMatrix::from_rows(&rows, n_cols);
        let classes = row_classes(&m);
        for r in 0..m.n_rows() {
            let rep = classes.reps[classes.class_of[r] as usize] as usize;
            prop_assert_eq!(m.row(rep), m.row(r));
            prop_assert!(rep <= r);
        }
        let mult: u32 = classes.mult.iter().sum();
        prop_assert_eq!(mult as usize, m.n_rows());
        for w in classes.reps.windows(2) {
            prop_assert!(m.row(w[0] as usize) < m.row(w[1] as usize));
        }
    }

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
        let im = ImplicitRowGraph::new(&m);
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
