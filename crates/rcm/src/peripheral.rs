//! George–Liu pseudo-peripheral root finding.
//!
//! The bandwidth quality of a Cuthill-McKee ordering depends strongly on
//! the root: a vertex at one end of a *pseudo-diameter* (a pair of vertices
//! whose distance is close to the graph diameter) yields deep, narrow level
//! structures. The paper's Fig. 4 step 1 ("pick peripheral vertex, compute
//! pseudo-diameter") is realized here with the classic George–Liu iteration:
//!
//! 1. start from any vertex `v` of the component,
//! 2. build the level structure `L(v)`,
//! 3. let `u` be a minimum-degree vertex of the deepest level,
//! 4. if `ecc(u) > ecc(v)`, set `v = u` and repeat; otherwise stop.
//!
//! The iteration is linear in the component size per round and terminates
//! because eccentricity strictly increases.
//!
//! # Determinism: the restart/tie rule
//!
//! The returned root — and through it every downstream ordering — is a
//! pure function of the *graph* (vertex count plus adjacency sets), never
//! of input edge order, thread count, or adjacency *enumeration* order:
//!
//! * **Candidate rule (step 3).** Among the deepest level's vertices, the
//!   next candidate `u` is the minimum under the `(degree, vertex-id)`
//!   key. Degree and level membership are set-determined; the id breaks
//!   ties totally, so `u` never depends on the order the level was
//!   discovered in.
//! * **Restart rule (step 4).** The iteration restarts from `u` only on a
//!   *strict* eccentricity increase (`ecc(u) > ecc(v)`); on a tie it keeps
//!   `v`. Combined with the candidate rule this makes the whole visit
//!   sequence `v, u, ...` — and hence the final root — reproducible.
//! * **Fixed point.** If the candidate `u` equals `v` itself, `v` is
//!   returned immediately (an isolated vertex is its own candidate).
//!
//! The frontier engine (see [`crate::parallel`]) runs the single
//! [`george_liu_iterate`] loop below at every thread count and for every
//! representation, so the rule cannot drift between them.

use crate::level::LevelStructure;

/// The shared George–Liu iteration, generic over how level structures are
/// built: `degree(w)` must report the set-determined vertex degree and
/// `build(root)` must return the BFS level structure rooted at `root`.
///
/// This is the *single* home of the pseudo-peripheral restart/tie rule
/// (see the module docs), so the chosen root is identical across
/// representations and thread counts.
pub(crate) fn george_liu_iterate(
    degree: impl Fn(u32) -> usize,
    mut build: impl FnMut(u32) -> LevelStructure,
    start: u32,
) -> (u32, LevelStructure) {
    let mut v = start;
    let mut lv = build(v);
    loop {
        // Minimum-(degree, id) vertex in the deepest level.
        let u = *lv
            .last_level()
            .iter()
            .min_by_key(|&&w| (degree(w), w))
            // cahd-lint: allow(L003, reason = "a BFS level structure rooted at v always has a non-empty last level (it contains v at minimum)")
            .expect("levels are non-empty");
        if u == v {
            return (v, lv);
        }
        let lu = build(u);
        if lu.eccentricity() > lv.eccentricity() {
            v = u;
            lv = lu;
        } else {
            return (v, lv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::rooted_levels;
    use cahd_sparse::Graph;

    /// The root search as the engine runs it at one worker.
    fn pseudo_peripheral(g: &Graph, start: u32) -> (u32, LevelStructure) {
        george_liu_iterate(
            |w| g.degree(w as usize),
            |r| rooted_levels(g, &[r]).remove(0),
            start,
        )
    }

    #[test]
    fn path_finds_an_end() {
        // Path 0-1-2-3-4; starting from the middle should walk to an end.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let (root, l) = pseudo_peripheral(&g, 2);
        assert!(root == 0 || root == 4, "got {root}");
        assert_eq!(l.eccentricity(), 4);
    }

    #[test]
    fn star_moves_off_center() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let (root, l) = pseudo_peripheral(&g, 0);
        assert_ne!(root, 0);
        assert_eq!(l.eccentricity(), 2);
    }

    #[test]
    fn already_peripheral_is_stable() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let (root, l) = pseudo_peripheral(&g, 0);
        assert_eq!(l.eccentricity(), 2);
        assert!(root == 0 || root == 2);
    }

    #[test]
    fn isolated_vertex_returns_itself() {
        let g = Graph::from_edges(2, &[]);
        let (root, l) = pseudo_peripheral(&g, 1);
        assert_eq!(root, 1);
        assert_eq!(l.vertices().len(), 1);
    }

    #[test]
    fn lollipop_prefers_tail_end() {
        // Clique {0,1,2} with a tail 2-3-4-5: pseudo-peripheral from inside
        // the clique should reach the tail end (eccentricity 4 from 0/1).
        let g = Graph::from_edges(6, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let (_, l) = pseudo_peripheral(&g, 2);
        assert!(l.eccentricity() >= 4);
    }

    #[test]
    fn edge_order_does_not_change_root() {
        // The same wheel-with-tail graph presented in four different edge
        // orders: the chosen pseudo-peripheral root must be identical
        // (the module-level restart/tie rule is set-determined).
        let edges = [
            (0u32, 1u32),
            (0, 2),
            (0, 3),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 6),
        ];
        let mut variants: Vec<Vec<(u32, u32)>> = Vec::new();
        variants.push(edges.to_vec());
        let mut rev = edges.to_vec();
        rev.reverse();
        variants.push(rev);
        let mut swapped: Vec<(u32, u32)> = edges.iter().map(|&(a, b)| (b, a)).collect();
        variants.push(swapped.clone());
        swapped.rotate_left(3);
        variants.push(swapped);
        let roots: Vec<u32> = variants
            .iter()
            .map(|es| {
                let g = Graph::from_edges(7, es);
                pseudo_peripheral(&g, 0).0
            })
            .collect();
        assert!(
            roots.windows(2).all(|w| w[0] == w[1]),
            "roots varied with edge order: {roots:?}"
        );
    }
}
