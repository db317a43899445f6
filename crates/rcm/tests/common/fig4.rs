//! The paper's Fig. 4 (Reverse Cuthill-McKee), transcribed literally: the
//! one ordering reference every `cahd-rcm` suite checks the frontier
//! engine against. It shares no code with the crate under test.
//!
//! The input is an adjacency list: `adj[v]` holds the neighbors of `v`,
//! ascending, without duplicates and without `v` itself. The degree of
//! `v` is `adj[v].len()`.
//!
//! For each connected component, in order of its smallest unvisited id:
//!
//! 1. find a pseudo-peripheral root (George–Liu): from the component's
//!    first vertex `v`, build the BFS level structure `L(v)`; let `u` be
//!    the minimum of the last level by `(degree, id)`; if `u != v` and
//!    `ecc(u) > ecc(v)` (strictly), continue from `u`, else stop at `v`;
//! 2. Cuthill-McKee (steps 2–13): a queue from the root, where each
//!    dequeued vertex appends its unvisited neighbors sorted by
//!    `(degree, id)` — or, for the BFS strategy, the root's level
//!    structure itself;
//!
//! and finally (step 14) output the whole order reversed.

use std::collections::VecDeque;

/// The traversal run after the root search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Traversal {
    /// Cuthill-McKee: fresh neighbors sorted by `(degree, id)`.
    Cm,
    /// Plain BFS: the root's level structure, fresh neighbors by id.
    Bfs,
}

/// What the oracle produced: the reversed order, the two counters it can
/// state without reference to how the engine schedules its work, and the
/// frontiers the traversals expand.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fig4 {
    /// `order[i]` is the old id of the vertex placed at position `i`.
    pub order: Vec<u32>,
    /// Connected components ordered (`rcm.components`).
    pub components: u64,
    /// Levels of the chosen roots' level structures, summed over the
    /// components (`rcm.bfs_levels`).
    pub bfs_levels: u64,
    /// The width of every level of every level structure built (each
    /// George–Liu probe's, then, for Cuthill-McKee, the chosen root's
    /// again, since the queue visits the same levels): one entry per
    /// frontier expansion.
    pub frontiers: Vec<usize>,
    /// Components whose root search moved off its start vertex (at least
    /// one strict eccentricity increase).
    pub restarted: u64,
}

impl Fig4 {
    /// The five `rcm.*` counters at the eligibility threshold
    /// `frontier_min`: components, bfs_levels, levels, frontier_parallel
    /// and frontier_sequential.
    pub fn counters(&self, frontier_min: usize) -> [u64; 5] {
        let parallel = self
            .frontiers
            .iter()
            .filter(|&&w| w >= frontier_min)
            .count() as u64;
        let levels = self.frontiers.len() as u64;
        [
            self.components,
            self.bfs_levels,
            levels,
            parallel,
            levels - parallel,
        ]
    }
}

/// The BFS level structure of `root`: `levels[k]` lists the vertices at
/// distance `k`, in queue (discovery) order.
pub fn levels(adj: &[Vec<u32>], root: u32) -> Vec<Vec<u32>> {
    let mut seen = vec![false; adj.len()];
    seen[root as usize] = true;
    let mut levels = vec![vec![root]];
    loop {
        let mut next = Vec::new();
        for &v in levels.last().unwrap() {
            for &w in &adj[v as usize] {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    next.push(w);
                }
            }
        }
        if next.is_empty() {
            return levels;
        }
        levels.push(next);
    }
}

/// George–Liu pseudo-peripheral root search from `start`.
pub fn pseudo_peripheral(adj: &[Vec<u32>], start: u32) -> (u32, Vec<Vec<u32>>) {
    probing(adj, start, &mut Vec::new())
}

/// [`pseudo_peripheral`], appending each probe's level widths to
/// `frontiers`.
fn probing(adj: &[Vec<u32>], start: u32, frontiers: &mut Vec<usize>) -> (u32, Vec<Vec<u32>>) {
    let degree = |w: u32| adj[w as usize].len();
    let mut probe = |root: u32| {
        let lv = levels(adj, root);
        frontiers.extend(lv.iter().map(Vec::len));
        lv
    };
    let mut v = start;
    let mut lv = probe(v);
    loop {
        let last = lv.last().unwrap();
        let u = *last.iter().min_by_key(|&&w| (degree(w), w)).unwrap();
        if u == v {
            return (v, lv);
        }
        let lu = probe(u);
        if lu.len() > lv.len() {
            v = u;
            lv = lu;
        } else {
            return (v, lv);
        }
    }
}

/// The Cuthill-McKee order of `root`'s component (not reversed).
pub fn cuthill_mckee(adj: &[Vec<u32>], root: u32) -> Vec<u32> {
    let degree = |w: u32| adj[w as usize].len();
    let mut seen = vec![false; adj.len()];
    seen[root as usize] = true;
    let mut queue = VecDeque::from([root]);
    let mut order = Vec::new();
    while let Some(v) = queue.pop_front() {
        order.push(v);
        let mut fresh: Vec<u32> = adj[v as usize]
            .iter()
            .copied()
            .filter(|&w| !seen[w as usize])
            .collect();
        fresh.sort_by_key(|&w| (degree(w), w));
        for &w in &fresh {
            seen[w as usize] = true;
        }
        queue.extend(fresh);
    }
    order
}

/// Fig. 4 over the whole graph: every component in turn, then reversed.
pub fn fig4(adj: &[Vec<u32>], traversal: Traversal) -> Fig4 {
    let mut placed = vec![false; adj.len()];
    let mut order = Vec::with_capacity(adj.len());
    let (mut components, mut bfs_levels, mut restarted) = (0, 0, 0);
    let mut frontiers = Vec::new();
    for start in 0..adj.len() as u32 {
        if placed[start as usize] {
            continue;
        }
        let (root, lv) = probing(adj, start, &mut frontiers);
        components += 1;
        bfs_levels += lv.len() as u64;
        restarted += u64::from(root != start);
        let component = match traversal {
            Traversal::Cm => {
                frontiers.extend(lv.iter().map(Vec::len));
                cuthill_mckee(adj, root)
            }
            Traversal::Bfs => lv.concat(),
        };
        for &v in &component {
            placed[v as usize] = true;
        }
        order.extend(component);
    }
    order.reverse();
    Fig4 {
        order,
        components,
        bfs_levels,
        frontiers,
        restarted,
    }
}
