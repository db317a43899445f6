//! Rooted BFS level structures.
//!
//! A level structure `L(v) = {L0, L1, ..., Lh}` partitions the component of
//! `v` by BFS distance from `v`. Its *eccentricity* `h` drives the
//! pseudo-peripheral root search: RCM wants a root of (nearly) maximal
//! eccentricity, because deep, narrow level structures produce orderings
//! with small bandwidth. The frontier engine ([`crate::parallel`]) builds
//! them.

/// A BFS level structure rooted at some vertex, confined to that vertex's
/// connected component.
#[derive(Clone, Debug)]
pub(crate) struct LevelStructure {
    /// Concatenated vertices, level by level (the root first).
    verts: Vec<u32>,
    /// `offsets[k]..offsets[k+1]` indexes level `k` in `verts`.
    offsets: Vec<usize>,
}

impl LevelStructure {
    /// Assembles a level structure from the engine's parts: `offsets[k]`
    /// is the start of level `k` in `verts`, with a final entry equal to
    /// `verts.len()`.
    pub(crate) fn from_raw(verts: Vec<u32>, offsets: Vec<usize>) -> Self {
        debug_assert!(offsets.len() >= 2);
        debug_assert_eq!(*offsets.last().unwrap_or(&0), verts.len());
        LevelStructure { verts, offsets }
    }

    /// Number of levels (`h + 1` where `h` is the eccentricity).
    pub(crate) fn n_levels(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The eccentricity of the root within its component.
    pub(crate) fn eccentricity(&self) -> usize {
        self.n_levels() - 1
    }

    /// The vertices of level `k`, in discovery order.
    pub(crate) fn level(&self, k: usize) -> &[u32] {
        &self.verts[self.offsets[k]..self.offsets[k + 1]]
    }

    /// The deepest level.
    pub(crate) fn last_level(&self) -> &[u32] {
        self.level(self.n_levels() - 1)
    }

    /// All reached vertices in BFS order.
    pub(crate) fn vertices(&self) -> &[u32] {
        &self.verts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::rooted_levels;
    use cahd_sparse::Graph;

    fn rooted_at(g: &Graph, root: u32) -> LevelStructure {
        rooted_levels(g, &[root]).remove(0)
    }

    fn width(l: &LevelStructure) -> usize {
        (0..l.n_levels())
            .map(|k| l.level(k).len())
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn path_levels() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let l = rooted_at(&g, 0);
        assert_eq!(l.n_levels(), 4);
        assert_eq!(l.eccentricity(), 3);
        assert_eq!(width(&l), 1);
        assert_eq!(l.level(2), &[2]);
        assert_eq!(l.last_level(), &[3]);
        assert_eq!(l.vertices().len(), 4);
    }

    #[test]
    fn star_from_center_and_leaf() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let center = rooted_at(&g, 0);
        assert_eq!(center.eccentricity(), 1);
        assert_eq!(width(&center), 4);
        let leaf = rooted_at(&g, 1);
        assert_eq!(leaf.eccentricity(), 2);
        assert_eq!(width(&leaf), 3);
    }

    #[test]
    fn stays_in_component() {
        let g = Graph::from_edges(5, &[(0, 1), (2, 3)]);
        let l = rooted_at(&g, 0);
        assert_eq!(l.vertices().len(), 2);
        assert!(!l.vertices().contains(&2));
    }

    #[test]
    fn isolated_vertex() {
        let g = Graph::from_edges(3, &[(1, 2)]);
        let l = rooted_at(&g, 0);
        assert_eq!(l.n_levels(), 1);
        assert_eq!(l.eccentricity(), 0);
        assert_eq!(l.vertices().len(), 1);
    }

    #[test]
    fn reusable_marks() {
        // Two traversals over one set of visited marks: the second must
        // not see the first's marks.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let ls = rooted_levels(&g, &[0, 2]);
        assert_eq!(ls[0].eccentricity(), 2);
        assert_eq!(ls[1].eccentricity(), 2);
    }
}
