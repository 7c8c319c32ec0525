//! Logical tree topology over a dense set of node indices.
//!
//! QR arranges the replica nodes in a logical ternary tree (paper §II,
//! Fig. 3): node 0 is the root and the children of node `i` are
//! `b*i + 1 ..= b*i + b` for branching factor `b` (breadth-first layout).
//! The tree is purely logical — it exists only to define quorums — so this
//! module is arithmetic over indices, no allocation per query.

/// A complete-as-possible `b`-ary tree over nodes `0..n` in breadth-first
/// layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tree {
    n: usize,
    branching: usize,
}

impl Tree {
    /// Ternary tree over `0..n` (the paper's arrangement).
    pub fn ternary(n: usize) -> Self {
        Tree::with_branching(n, 3)
    }

    /// `b`-ary tree over `0..n`. Panics if `n == 0` or `b < 2`.
    pub fn with_branching(n: usize, branching: usize) -> Self {
        assert!(n > 0, "tree needs at least one node");
        assert!(branching >= 2, "branching must be at least 2");
        Tree { n, branching }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false: a tree has at least one node (`with_branching`
    /// panics on `n == 0`).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The root node (always 0).
    pub fn root(&self) -> usize {
        0
    }

    /// Parent of `v`, or `None` for the root. Panics if `v >= len()`.
    pub fn parent(&self, v: usize) -> Option<usize> {
        assert!(v < self.n, "node {v} out of range");
        if v == 0 {
            None
        } else {
            Some((v - 1) / self.branching)
        }
    }

    /// Children of `v` that exist in the tree (possibly fewer than the
    /// branching factor at the fringe).
    pub fn children(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        assert!(v < self.n, "node {v} out of range");
        let first = self.branching * v + 1;
        let last = (self.branching * v + self.branching).min(self.n.saturating_sub(1));
        let end = if first > last { first } else { last + 1 };
        first..end.min(self.n)
    }

    /// Depth of `v` (root is 0).
    pub fn depth(&self, v: usize) -> usize {
        let mut d = 0;
        let mut cur = v;
        while let Some(p) = self.parent(cur) {
            cur = p;
            d += 1;
        }
        d
    }

    /// Height of the tree: maximum depth over all nodes.
    pub fn height(&self) -> usize {
        self.depth(self.n - 1)
    }

    /// Majority count for `k` children: `floor(k/2) + 1`; 0 for no children.
    pub fn majority_of(k: usize) -> usize {
        if k == 0 {
            0
        } else {
            k / 2 + 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_figure3_layout_13_nodes() {
        // Fig. 3 of the paper: 13 nodes, root n0 with children n1..n3,
        // n2's children are n7,n8,n9 and n3's are n10,n11,n12.
        let t = Tree::ternary(13);
        assert_eq!(t.children(0).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(t.children(1).collect::<Vec<_>>(), vec![4, 5, 6]);
        assert_eq!(t.children(2).collect::<Vec<_>>(), vec![7, 8, 9]);
        assert_eq!(t.children(3).collect::<Vec<_>>(), vec![10, 11, 12]);
        assert_eq!(t.children(4).count(), 0);
        assert_eq!(t.parent(7), Some(2));
        assert_eq!(t.parent(12), Some(3));
        assert_eq!(t.parent(0), None);
        assert_eq!(t.height(), 2);
    }

    #[test]
    fn fringe_children_are_truncated() {
        let t = Tree::ternary(6); // children of 1 would be 4,5,6 but 6 doesn't exist
        assert_eq!(t.children(1).collect::<Vec<_>>(), vec![4, 5]);
        assert_eq!(t.children(2).count(), 0);
        assert_eq!(t.children(5).count(), 0);
    }

    #[test]
    fn depth_is_consistent_with_parent_chain() {
        let t = Tree::ternary(40);
        assert_eq!(t.depth(0), 0);
        assert_eq!(t.depth(3), 1);
        assert_eq!(t.depth(4), 2);
        assert_eq!(t.depth(13), 3);
        assert_eq!(t.depth(39), 3);
        for v in 0..40 {
            if let Some(p) = t.parent(v) {
                assert_eq!(t.depth(v), t.depth(p) + 1);
            }
        }
    }

    #[test]
    fn binary_tree_layout() {
        let t = Tree::with_branching(7, 2);
        assert_eq!(t.children(0).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(t.children(2).collect::<Vec<_>>(), vec![5, 6]);
        assert_eq!(t.parent(6), Some(2));
        assert_eq!(t.height(), 2);
    }

    #[test]
    fn majority_arithmetic() {
        assert_eq!(Tree::majority_of(0), 0);
        assert_eq!(Tree::majority_of(1), 1);
        assert_eq!(Tree::majority_of(2), 2);
        assert_eq!(Tree::majority_of(3), 2);
        assert_eq!(Tree::majority_of(4), 3);
    }

    #[test]
    fn single_node_tree() {
        let t = Tree::ternary(1);
        assert_eq!(t.root(), 0);
        assert_eq!(t.children(0).count(), 0);
        assert_eq!(t.height(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = Tree::ternary(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn children_of_out_of_range_panics() {
        let t = Tree::ternary(4);
        let _ = t.children(4);
    }
}
