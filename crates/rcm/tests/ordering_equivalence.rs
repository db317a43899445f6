//! Ordering-equivalence harness for the frontier engine.
//!
//! The properties the ordering engine must uphold:
//!
//! 1. **Fig. 4 identity**: [`band_order_with`] under every strategy equals
//!    the literal Fig. 4 transcription in `common/fig4.rs` exactly — same
//!    bytes, same `rcm.components` and `rcm.bfs_levels` — at every thread
//!    count in `{1, 2, 8}`, with the parallel claim path forced onto
//!    *every* frontier (`frontier_min = 1`) and at the production
//!    threshold ([`PARALLEL_FRONTIER_MIN`]), so the identity holds for
//!    the parallel code itself, not only for the sequential path.
//! 2. **Validity of every strategy**: `rcm`, `bfs` and `cluster` each
//!    emit a bijective permutation that keeps every connected component
//!    contiguous (graph strategies) on random sparse graphs including
//!    disconnected, star, path and empty-row shapes.
//! 3. **Worker agreement**: one worker and eight workers produce
//!    identical bytes and identical `rcm.*` counters for every strategy.
//! 4. **Counter identities**: `rcm.frontier_parallel +
//!    rcm.frontier_sequential == rcm.levels >= rcm.bfs_levels`, at every
//!    thread count — the `CAHD-O001` contract.
//! 5. **Isolated vertices**: the engine places a degree-0 vertex without
//!    a traversal. On all-isolated and mixed graphs (explicit, implicit,
//!    and implicit under a hub cap that isolates an all-hub row) the
//!    orders and every `rcm.*` counter equal literal values recorded from
//!    full traversals; the oracle checks only `rcm.components` and
//!    `rcm.bfs_levels`.
//! 6. **Many small components**: on graphs of interleaved paths, stars
//!    and cliques (the shape of a streamed batch's row graph), where some
//!    root searches restart on a strict eccentricity increase and some
//!    stop on a tie, the orders and all five `rcm.*` counters equal the
//!    oracle's, which counts every frontier its traversals expand. The
//!    engine reuses its level buffers from one component to the next, so
//!    this is where a stale buffer would show.
//!
//! The `CAHD_TEST_THREADS` environment variable (used by the CI matrix)
//! adds one more thread count to every sweep.

mod common;

use cahd_obs::Recorder;
use cahd_rcm::{band_order, band_order_with, OrderingStrategy, PARALLEL_FRONTIER_MIN};
use cahd_sparse::{CsrMatrix, Graph, ImplicitRowGraph, ParNeighborOracle, RowGraph};
use common::fig4::{self, fig4, Traversal};
use common::{adjacency, components_contiguous, thread_counts};
use proptest::prelude::*;

/// The oracle traversal of a strategy on a graph: `cluster` is a
/// matrix-level strategy, and on a graph it runs as `bfs`.
fn traversal(strategy: OrderingStrategy) -> Traversal {
    match strategy {
        OrderingStrategy::Rcm => Traversal::Cm,
        OrderingStrategy::Bfs | OrderingStrategy::Cluster => Traversal::Bfs,
    }
}

/// Checks the engine against the oracle on `g` for every strategy, thread
/// count and eligibility threshold: bytes and the oracle's counters.
fn assert_matches_fig4(g: &Graph) -> Result<(), String> {
    let adj = adjacency(g);
    for strategy in OrderingStrategy::ALL {
        let want = fig4(&adj, traversal(strategy));
        for threads in thread_counts(&[1, 2, 8]) {
            for frontier_min in [1, PARALLEL_FRONTIER_MIN] {
                let rec = Recorder::new();
                let p = band_order_with(g, strategy, threads, frontier_min, &rec);
                let ctx = format!(
                    "{} threads={threads} frontier_min={frontier_min}",
                    strategy.name()
                );
                prop_assert_eq!(p.new_to_old_slice(), &want.order[..], "{}", ctx);
                let report = rec.snapshot();
                prop_assert_eq!(
                    report.counter_or_zero("rcm.components"),
                    want.components,
                    "{}",
                    ctx
                );
                prop_assert_eq!(
                    report.counter_or_zero("rcm.bfs_levels"),
                    want.bfs_levels,
                    "{}",
                    ctx
                );
            }
            let p = band_order(g, strategy, threads);
            prop_assert_eq!(
                p.new_to_old_slice(),
                &want.order[..],
                "band_order {}",
                strategy.name()
            );
        }
    }
    Ok(())
}

/// Random sparse graphs, biased toward interesting shapes: plain random
/// edge sets (which naturally include disconnected pieces and isolated
/// vertices), stars, paths, and graphs whose first vertices have no
/// edges at all (the "empty row" shape of transaction data).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        0usize..4,
        2usize..40,
        2usize..16,
        proptest::collection::vec((0u32..40, 0u32..40), 0..80),
    )
        .prop_map(|(kind, n, iso, raw_edges)| {
            let clamp = |edges: &[(u32, u32)], m: usize, shift: u32| -> Vec<(u32, u32)> {
                edges
                    .iter()
                    .map(|&(a, b)| (a % m as u32 + shift, b % m as u32 + shift))
                    .collect()
            };
            match kind {
                // Plain random edge set: naturally includes disconnected
                // pieces and isolated vertices.
                0 => Graph::from_edges(n, &clamp(&raw_edges, n, 0)),
                // Star: one hub, n-1 leaves.
                1 => {
                    let edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (0, v)).collect();
                    Graph::from_edges(n, &edges)
                }
                // Path.
                2 => {
                    let edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (v - 1, v)).collect();
                    Graph::from_edges(n, &edges)
                }
                // `iso` leading vertices stay edge-free (the "empty row"
                // shape of transaction data); the rest is random.
                _ => Graph::from_edges(iso + n, &clamp(&raw_edges, n, iso as u32)),
            }
        })
}

#[test]
fn fixed_graphs_match_fig4() {
    let idx = |r: usize, c: usize| (r * 6 + c) as u32;
    let mut grid = Vec::new();
    for r in 0..6 {
        for c in 0..6 {
            if c + 1 < 6 {
                grid.push((idx(r, c), idx(r, c + 1)));
            }
            if r + 1 < 6 {
                grid.push((idx(r, c), idx(r + 1, c)));
            }
        }
    }
    let star9: Vec<(u32, u32)> = (1..10u32).map(|v| (0, v)).collect();
    for (name, g) in [
        (
            "path",
            Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]),
        ),
        (
            "star",
            Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]),
        ),
        // A frontier of 9 at 8 threads exercises ceiling-division
        // chunking where a naive worker count leaves a trailing worker
        // with an out-of-range slice (regression: deadlock).
        ("star9", Graph::from_edges(10, &star9)),
        (
            "disconnected",
            Graph::from_edges(8, &[(0, 1), (2, 3), (3, 4), (6, 7)]),
        ),
        ("isolated", Graph::from_edges(3, &[])),
        ("empty", Graph::from_edges(0, &[])),
        ("grid6", Graph::from_edges(36, &grid)),
    ] {
        if let Err(e) = assert_matches_fig4(&g) {
            panic!("{name}: {e}");
        }
    }
}

/// One ordering's recorded outcome: the permutation's `new_to_old`, and
/// `rcm.components`, `rcm.bfs_levels` and `rcm.levels`.
type Pin = (&'static [u32], u64, u64, u64);

/// Checks `g` against its `rcm` and `bfs` pins at every thread count and
/// both eligibility thresholds. Every frontier of these graphs is under
/// [`PARALLEL_FRONTIER_MIN`], so `rcm.levels` is all parallel at
/// `frontier_min = 1` and all sequential at the production threshold.
fn assert_pinned<G: ParNeighborOracle>(name: &str, g: &G, rcm: Pin, bfs: Pin) {
    for (strategy, (order, components, bfs_levels, levels)) in
        [(OrderingStrategy::Rcm, rcm), (OrderingStrategy::Bfs, bfs)]
    {
        for threads in thread_counts(&[1, 2, 8]) {
            for frontier_min in [1, PARALLEL_FRONTIER_MIN] {
                let rec = Recorder::new();
                let p = band_order_with(g, strategy, threads, frontier_min, &rec);
                let ctx = format!(
                    "{name} {} threads={threads} frontier_min={frontier_min}",
                    strategy.name()
                );
                assert_eq!(p.new_to_old_slice(), order, "{ctx}");
                let (parallel, sequential) = if frontier_min == 1 {
                    (levels, 0)
                } else {
                    (0, levels)
                };
                let report = rec.snapshot();
                for (counter, want) in [
                    ("rcm.components", components),
                    ("rcm.bfs_levels", bfs_levels),
                    ("rcm.levels", levels),
                    ("rcm.frontier_parallel", parallel),
                    ("rcm.frontier_sequential", sequential),
                ] {
                    assert_eq!(report.counter_or_zero(counter), want, "{ctx} {counter}");
                }
            }
        }
    }
}

#[test]
fn isolated_vertices_keep_their_orders_and_counters() {
    // Every vertex isolated: each one is a probe and a CM pass (`rcm`) or
    // a probe (`bfs`) over a one-vertex frontier.
    const ISOLATED: [Pin; 2] = [(&[4, 3, 2, 1, 0], 5, 5, 10), (&[4, 3, 2, 1, 0], 5, 5, 5)];
    // Rows 1 (its item alone), 3 (its item alone), 4 (empty) and 6 are
    // isolated; 0-2-5-7 is a path through items 1, 3 and 5.
    const MIXED_ROWS: [Pin; 2] = [
        (&[6, 4, 3, 1, 7, 5, 2, 0], 5, 8, 20),
        (&[6, 4, 3, 1, 7, 5, 2, 0], 5, 8, 12),
    ];
    let isolated_rows =
        CsrMatrix::from_rows(&[vec![0], vec![1, 2], vec![], vec![3], vec![4, 5]], 6);
    let mixed_rows = CsrMatrix::from_rows(
        &[
            vec![0, 1],
            vec![2],
            vec![1, 3],
            vec![4],
            vec![],
            vec![3, 5],
            vec![6],
            vec![5],
        ],
        7,
    );
    // Item 0 is held by five rows: under a hub cap of 3 it links nothing,
    // so row 4, whose only item it is, becomes isolated, like row 5.
    let hub_rows = CsrMatrix::from_rows(
        &[
            vec![0, 1],
            vec![0, 1, 2],
            vec![0, 2],
            vec![0, 3],
            vec![0],
            vec![5],
            vec![3, 6],
        ],
        7,
    );
    let [rcm, bfs] = ISOLATED;
    assert_pinned("graph_isolated", &Graph::from_edges(5, &[]), rcm, bfs);
    assert_pinned(
        "explicit_isolated",
        &RowGraph::build_explicit(&isolated_rows),
        rcm,
        bfs,
    );
    let implicit = ImplicitRowGraph::with_options(&isolated_rows, None, 1);
    assert_pinned("implicit_isolated", &implicit, rcm, bfs);
    assert_pinned(
        "graph_mixed",
        &Graph::from_edges(9, &[(1, 4), (4, 7), (2, 8), (5, 6), (6, 8)]),
        (&[3, 5, 6, 8, 2, 7, 4, 1, 0], 4, 9, 25),
        (&[3, 5, 6, 8, 2, 7, 4, 1, 0], 4, 9, 16),
    );
    let [rcm, bfs] = MIXED_ROWS;
    assert_pinned(
        "explicit_mixed",
        &RowGraph::build_explicit(&mixed_rows),
        rcm,
        bfs,
    );
    let implicit = ImplicitRowGraph::with_options(&mixed_rows, None, 1);
    assert_pinned("implicit_mixed", &implicit, rcm, bfs);
    assert_pinned(
        "implicit_hub_capped",
        &ImplicitRowGraph::with_options(&hub_rows, Some(3), 1),
        (&[5, 4, 6, 3, 2, 1, 0], 4, 7, 19),
        (&[5, 4, 6, 3, 2, 1, 0], 4, 7, 12),
    );
}

#[test]
fn fig4_oracle_follows_the_textbook_rules() {
    let path = adjacency(&Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]));
    assert_eq!(fig4::cuthill_mckee(&path, 0), vec![0, 1, 2, 3]);
    assert_eq!(fig4::cuthill_mckee(&path, 3), vec![3, 2, 1, 0]);
    // Fresh neighbors by increasing degree: 2 (degree 1) before 1.
    let g = adjacency(&Graph::from_edges(4, &[(0, 1), (0, 2), (1, 3)]));
    assert_eq!(fig4::cuthill_mckee(&g, 0), vec![0, 2, 1, 3]);
    // Equal degrees: vertex id breaks the tie.
    let g = adjacency(&Graph::from_edges(3, &[(0, 1), (0, 2)]));
    assert_eq!(fig4::cuthill_mckee(&g, 0), vec![0, 1, 2]);
    // Only the root's component.
    let g = adjacency(&Graph::from_edges(4, &[(0, 1), (2, 3)]));
    assert_eq!(fig4::cuthill_mckee(&g, 0), vec![0, 1]);
    // The root search walks from the middle of a path to an end.
    let (root, lv) = fig4::pseudo_peripheral(
        &adjacency(&Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)])),
        2,
    );
    assert!(root == 0 || root == 4, "got {root}");
    assert_eq!(lv.len(), 5);
}

#[test]
fn rcm_is_the_reversal_of_cm() {
    let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
    let cm = fig4::cuthill_mckee(&adjacency(&g), 0);
    let rcm = band_order(&g, OrderingStrategy::Rcm, 1);
    for (pos, &v) in cm.iter().enumerate() {
        assert_eq!(rcm.old_to_new(v as usize), 3 - pos);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn engine_is_byte_identical_to_fig4(g in arb_graph()) {
        assert_matches_fig4(&g)?;
    }

    #[test]
    fn every_strategy_emits_a_valid_component_contiguous_permutation(g in arb_graph()) {
        for strategy in OrderingStrategy::ALL {
            for threads in thread_counts(&[1, 2, 8]) {
                let p = band_order_with(
                    &g,
                    strategy,
                    threads,
                    1,
                    &Recorder::disabled(),
                );
                prop_assert_eq!(p.len(), g.n_vertices(), "{}", strategy.name());
                prop_assert!(
                    p.then(&p.inverse()).is_identity(),
                    "{} not bijective", strategy.name()
                );
                prop_assert!(
                    components_contiguous(&g, &p),
                    "{} split a component", strategy.name()
                );
            }
        }
    }

    #[test]
    fn one_worker_matches_eight_workers_bytes_and_counters(g in arb_graph()) {
        for strategy in OrderingStrategy::ALL {
            for frontier_min in [1usize, 3] {
                let one_rec = Recorder::new();
                let one = band_order_with(&g, strategy, 1, frontier_min, &one_rec);
                let par_rec = Recorder::new();
                let par = band_order_with(&g, strategy, 8, frontier_min, &par_rec);
                prop_assert_eq!(
                    one.new_to_old_slice(),
                    par.new_to_old_slice(),
                    "{} frontier_min={}", strategy.name(), frontier_min
                );
                let (one_report, par_report) = (one_rec.snapshot(), par_rec.snapshot());
                for c in [
                    "rcm.components",
                    "rcm.bfs_levels",
                    "rcm.levels",
                    "rcm.frontier_parallel",
                    "rcm.frontier_sequential",
                ] {
                    prop_assert_eq!(
                        one_report.counter(c),
                        par_report.counter(c),
                        "counter {} drifted between worker counts ({})", c, strategy.name()
                    );
                }
            }
        }
    }

    #[test]
    fn counters_satisfy_o001_identities_at_every_thread_count(g in arb_graph()) {
        for strategy in OrderingStrategy::ALL {
            let mut seen: Option<(u64, u64, u64, u64, u64)> = None;
            for threads in thread_counts(&[1, 2, 8]) {
                let rec = Recorder::new();
                band_order_with(&g, strategy, threads, 2, &rec);
                let report = rec.snapshot();
                let counter = |c: &str| report.counter_or_zero(c);
                let tuple = (
                    counter("rcm.components"),
                    counter("rcm.bfs_levels"),
                    counter("rcm.levels"),
                    counter("rcm.frontier_parallel"),
                    counter("rcm.frontier_sequential"),
                );
                prop_assert_eq!(tuple.3 + tuple.4, tuple.2, "split identity, threads={}", threads);
                prop_assert!(tuple.2 >= tuple.1, "levels >= bfs_levels, threads={}", threads);
                if let Some(prev) = seen {
                    prop_assert_eq!(prev, tuple, "thread-variant counters at {}", threads);
                }
                seen = Some(tuple);
            }
        }
    }
}

/// One small component: its shape, its vertex count, and whether its
/// smallest id (where the root search starts) sits inside it.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// A path; entered inside, the search restarts toward an end.
    Path(usize, bool),
    /// A star; entered at the centre, the search restarts at a leaf.
    Star(usize, bool),
    /// A clique: every candidate ties, so the search never restarts.
    Clique(usize),
}

/// The components of `shapes` plus `isolated` edge-free vertices over ids
/// scrambled by `seed`, so every component's ids interleave with the
/// others' and components are met in no particular order.
fn mixed_components(shapes: &[Shape], isolated: usize, seed: u32) -> Graph {
    let size = |s: &Shape| match *s {
        Shape::Path(n, _) | Shape::Star(n, _) | Shape::Clique(n) => n,
    };
    let n = shapes.iter().map(size).sum::<usize>() + isolated;
    let mut ids: Vec<u32> = (0..n as u32).collect();
    ids.sort_by_key(|&v| (v.wrapping_mul(0x9e37_79b9) ^ seed, v));
    let mut edges = Vec::new();
    let mut next = 0;
    for shape in shapes {
        let k = size(shape);
        let mut mine = ids[next..next + k].to_vec();
        next += k;
        mine.sort_unstable();
        // `first` is the local vertex that receives the smallest id.
        let first = match *shape {
            Shape::Path(k, true) => k / 2,
            Shape::Star(_, false) => 1,
            _ => 0,
        };
        let local = |i: usize| match i.cmp(&first) {
            std::cmp::Ordering::Equal => mine[0],
            std::cmp::Ordering::Less => mine[i + 1],
            std::cmp::Ordering::Greater => mine[i],
        };
        match *shape {
            Shape::Path(k, _) => edges.extend((1..k).map(|i| (local(i - 1), local(i)))),
            Shape::Star(k, _) => edges.extend((1..k).map(|i| (local(0), local(i)))),
            Shape::Clique(k) => {
                for i in 0..k {
                    edges.extend((i + 1..k).map(|j| (local(i), local(j))));
                }
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// Checks orders and all five `rcm.*` counters against the oracle under
/// `rcm` and `bfs`, at every thread count and both thresholds.
fn assert_counters_match_fig4(g: &Graph) -> Result<(), String> {
    let adj = adjacency(g);
    for strategy in [OrderingStrategy::Rcm, OrderingStrategy::Bfs] {
        let want = fig4(&adj, traversal(strategy));
        for threads in thread_counts(&[1, 2, 8]) {
            for frontier_min in [1, PARALLEL_FRONTIER_MIN] {
                let rec = Recorder::new();
                let p = band_order_with(g, strategy, threads, frontier_min, &rec);
                let ctx = format!(
                    "{} threads={threads} frontier_min={frontier_min}",
                    strategy.name()
                );
                prop_assert_eq!(p.new_to_old_slice(), &want.order[..], "{}", ctx);
                let report = rec.snapshot();
                let got = [
                    "rcm.components",
                    "rcm.bfs_levels",
                    "rcm.levels",
                    "rcm.frontier_parallel",
                    "rcm.frontier_sequential",
                ]
                .map(|c| report.counter_or_zero(c));
                prop_assert_eq!(got, want.counters(frontier_min), "{}", ctx);
            }
        }
    }
    Ok(())
}

#[test]
fn many_small_components_match_fig4_orders_and_counters() {
    // 1,200 components of two to six vertices, every shape entered both
    // ways, one 300-leaf star whose centre frontier reaches the parallel
    // threshold, and 400 isolated vertices.
    let mut shapes = Vec::new();
    for i in 0..1200usize {
        let k = 2 + i % 5;
        shapes.push(match i % 5 {
            0 | 1 => Shape::Path(k, i % 2 == 0),
            2 | 3 => Shape::Star(k.max(3), i % 2 == 0),
            _ => Shape::Clique(k.min(4)),
        });
    }
    shapes.push(Shape::Star(301, true));
    let g = mixed_components(&shapes, 400, 7);
    let want = fig4(&adjacency(&g), Traversal::Cm);
    assert_eq!(want.components, 1601);
    assert!(
        want.restarted > 100 && want.restarted < 1000,
        "some searches must restart and some stop: {} of {}",
        want.restarted,
        want.components
    );
    assert!(want.counters(PARALLEL_FRONTIER_MIN)[3] > 0);
    assert_counters_match_fig4(&g).unwrap();
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    (0usize..3, 2usize..8, 0u8..2).prop_map(|(kind, k, inside)| match kind {
        0 => Shape::Path(k, inside == 1),
        1 => Shape::Star(k.max(3), inside == 1),
        _ => Shape::Clique(k.min(5)),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mixed_small_components_match_fig4_counters(
        shapes in proptest::collection::vec(arb_shape(), 1..40),
        isolated in 0usize..12,
        seed in 0u32..u32::MAX,
    ) {
        assert_counters_match_fig4(&mixed_components(&shapes, isolated, seed))?;
    }
}
