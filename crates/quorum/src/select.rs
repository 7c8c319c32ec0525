//! Read- and write-quorum construction (Agrawal–El Abbadi tree quorum
//! protocol, extended with the failure substitutions QR-DTM needs).
//!
//! * A **read quorum** for a subtree rooted at `v` is `{v}` if `v` is alive,
//!   otherwise the union of read quorums of a *majority* of `v`'s children.
//!   The *level* policy additionally lets an alive node delegate to a
//!   majority of its children (`level > 0`), which is how the paper gets
//!   `R1 = {n1, n2}` in Fig. 3 and how load is spread off the root.
//! * A **write quorum** for `v` is `{v}` plus recursively the write quorums
//!   of a majority of `v`'s children all the way to the leaves
//!   (`W2 = {n0, n2, n3, n8, n9, n11, n12}` in Fig. 3). If `v` has failed it
//!   is substituted by the write quorums of a **majority** of its children,
//!   which preserves both read–write and write–write intersection (see the
//!   property tests).
//!
//! Both constructions cover a node's children through one step,
//! `majority`, and are deterministic: among eligible children the
//! lowest-index candidates whose own cover succeeds win, so every node in
//! the system derives the same quorums from the same failure view.

use crate::tree::Tree;

/// Why a quorum could not be formed from the current failure view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuorumError {
    /// Too many failures: no read quorum exists.
    ReadUnavailable,
    /// Too many failures: no write quorum exists.
    WriteUnavailable,
}

impl std::fmt::Display for QuorumError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuorumError::ReadUnavailable => write!(f, "no read quorum available"),
            QuorumError::WriteUnavailable => write!(f, "no write quorum available"),
        }
    }
}

impl std::error::Error for QuorumError {}

/// Tree-quorum constructor over a [`Tree`] and an aliveness view.
#[derive(Clone, Debug)]
pub struct TreeQuorum {
    tree: Tree,
    alive: Vec<bool>,
}

impl TreeQuorum {
    /// All nodes alive.
    pub fn new(tree: Tree) -> Self {
        TreeQuorum {
            alive: vec![true; tree.len()],
            tree,
        }
    }

    /// The underlying tree.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Mark a node failed.
    pub fn fail(&mut self, v: usize) {
        self.alive[v] = false;
    }

    /// Mark a node alive again.
    pub fn recover(&mut self, v: usize) {
        self.alive[v] = true;
    }

    /// Whether `v` is alive in this view.
    pub fn is_alive(&self, v: usize) -> bool {
        self.alive[v]
    }

    /// Indices of currently-failed nodes.
    pub fn failed(&self) -> Vec<usize> {
        (0..self.tree.len()).filter(|&v| !self.alive[v]).collect()
    }

    /// Read quorum at level 0 (the root itself when alive).
    pub fn read_quorum(&self) -> Result<Vec<usize>, QuorumError> {
        self.read_quorum_at_level(0)
    }

    /// Read quorum where alive nodes above `level` delegate to a majority of
    /// their children; failed nodes are always substituted by a majority of
    /// theirs. Level 0 is the classic tree-quorum read set.
    pub fn read_quorum_at_level(&self, level: usize) -> Result<Vec<usize>, QuorumError> {
        let mut out = Vec::new();
        self.read_rec(self.tree.root(), level, &mut out)
            .ok_or(QuorumError::ReadUnavailable)?;
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }

    fn read_rec(&self, v: usize, level: usize, out: &mut Vec<usize>) -> Option<()> {
        if self.alive[v] && (level == 0 || self.tree.children(v).next().is_none()) {
            out.push(v);
            return Some(());
        }
        // Either v failed (substitute regardless of level) or the policy
        // pushes the quorum down a level.
        let next_level = if self.alive[v] { level - 1 } else { level };
        self.majority(v, out, |c, out| self.read_rec(c, next_level, out))
    }

    /// Write quorum: root-to-leaf majority cover, with failed nodes
    /// substituted by a majority of their children.
    pub fn write_quorum(&self) -> Result<Vec<usize>, QuorumError> {
        let mut out = Vec::new();
        self.write_rec(self.tree.root(), &mut out)
            .ok_or(QuorumError::WriteUnavailable)?;
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }

    fn write_rec(&self, v: usize, out: &mut Vec<usize>) -> Option<()> {
        if self.alive[v] {
            out.push(v);
            if self.tree.children(v).next().is_none() {
                return Some(());
            }
        }
        // An alive node covers a majority of its children, and a failed one
        // is substituted by a MAJORITY of them too: any two majorities of
        // the same child set intersect, so both write/write and read/write
        // intersection are preserved by induction (within one agreed
        // failure view) — and availability degrades gracefully, as the
        // Fig. 10 experiment requires.
        self.majority(v, out, |c, out| self.write_rec(c, out))
    }

    /// The one cover step of both quorums: cover a majority of `v`'s
    /// children with `rec`, lowest index first, truncating a child's
    /// partial cover when it fails. `None` for a leaf, or when too few
    /// children can be covered.
    fn majority(
        &self,
        v: usize,
        out: &mut Vec<usize>,
        rec: impl Fn(usize, &mut Vec<usize>) -> Option<()>,
    ) -> Option<()> {
        let need = Tree::majority_of(self.tree.children(v).count());
        if need == 0 {
            return None;
        }
        let mut got = 0;
        for c in self.tree.children(v) {
            if got == need {
                break;
            }
            let mark = out.len();
            if rec(c, out).is_some() {
                got += 1;
            } else {
                out.truncate(mark);
            }
        }
        (got == need).then_some(())
    }
}

/// True if the two sorted-or-not index sets share at least one element.
pub fn intersects(a: &[usize], b: &[usize]) -> bool {
    a.iter().any(|x| b.contains(x))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q13() -> TreeQuorum {
        TreeQuorum::new(Tree::ternary(13))
    }

    #[test]
    fn paper_read_quorum_r1() {
        // Level-1 read quorum in Fig. 3 is a majority of the root's
        // children: {n1, n2}.
        let q = q13();
        assert_eq!(q.read_quorum_at_level(1).unwrap(), vec![1, 2]);
    }

    #[test]
    fn paper_write_quorum_w2_shape() {
        // Fig. 3's W2 = {n0, n2, n3, n8, n9, n11, n12} picks children
        // {n2, n3}; our deterministic selector prefers the lowest indices,
        // giving the same-shape quorum {n0, n1, n2, n4, n5, n7, n8}: root +
        // 2-of-3 children + 2-of-3 grandchildren under each.
        let q = q13();
        let w = q.write_quorum().unwrap();
        assert_eq!(w, vec![0, 1, 2, 4, 5, 7, 8]);
        // Same cardinality as the paper's W2.
        assert_eq!(w.len(), 7);
        // A failed n1 is substituted by a majority of its children, {n4,
        // n5}, in both quorums; all of them would add n6.
        let mut q = q13();
        q.fail(1);
        assert_eq!(q.write_quorum().unwrap(), vec![0, 2, 4, 5, 7, 8]);
        assert_eq!(q.read_quorum_at_level(1).unwrap(), vec![2, 4, 5]);
    }

    #[test]
    fn root_read_quorum_is_root() {
        assert_eq!(q13().read_quorum().unwrap(), vec![0]);
    }

    #[test]
    fn read_quorum_grows_by_one_as_members_fail() {
        // The Fig. 10 setup: fail the current read-quorum members one at a
        // time; the quorum grows by one node per failure.
        let mut q = TreeQuorum::new(Tree::ternary(28));
        let mut sizes = vec![q.read_quorum().unwrap().len()];
        for _ in 0..6 {
            let rq = q.read_quorum().unwrap();
            // Fail the first still-alive member of the current quorum.
            let victim = rq.iter().copied().find(|&v| q.is_alive(v)).unwrap();
            q.fail(victim);
            sizes.push(q.read_quorum().unwrap().len());
        }
        assert_eq!(sizes, vec![1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn read_write_intersect_under_root_failure() {
        let mut q = q13();
        q.fail(0);
        let r = q.read_quorum().unwrap();
        let w = q.write_quorum().unwrap();
        assert_eq!(r, vec![1, 2]);
        assert!(intersects(&r, &w), "r={r:?} w={w:?}");
    }

    #[test]
    fn write_quorum_unavailable_when_majority_of_children_dead_at_leaves() {
        let mut q = TreeQuorum::new(Tree::ternary(4)); // root + 3 leaves
        q.fail(1);
        q.fail(2);
        q.fail(3);
        // Root alive but cannot cover a majority of its children.
        assert_eq!(q.write_quorum(), Err(QuorumError::WriteUnavailable));
        // Reads still fine: the root by itself.
        assert_eq!(q.read_quorum().unwrap(), vec![0]);
    }

    #[test]
    fn read_unavailable_when_root_and_majority_children_dead() {
        let mut q = TreeQuorum::new(Tree::ternary(4));
        q.fail(0);
        q.fail(1);
        q.fail(2);
        assert_eq!(q.read_quorum(), Err(QuorumError::ReadUnavailable));
        q.recover(1);
        assert_eq!(q.read_quorum().unwrap(), vec![1, 3]);
    }

    #[test]
    fn single_node_tree_quorums() {
        let q = TreeQuorum::new(Tree::ternary(1));
        assert_eq!(q.read_quorum().unwrap(), vec![0]);
        assert_eq!(q.write_quorum().unwrap(), vec![0]);
    }

    #[test]
    fn level_deeper_than_tree_clamps_to_leaves() {
        let q = q13();
        let r = q.read_quorum_at_level(10).unwrap();
        // Leaves only, still a valid quorum.
        assert!(r.iter().all(|&v| q.tree().children(v).count() == 0));
        let w = q.write_quorum().unwrap();
        assert!(intersects(&r, &w));
    }

    #[test]
    fn forty_node_tree_quorum_sizes() {
        // The testbed size used for Figs. 5-7.
        let q = TreeQuorum::new(Tree::ternary(40));
        assert_eq!(q.read_quorum().unwrap().len(), 1);
        let w = q.write_quorum().unwrap();
        assert!(w.len() >= 7, "write quorum covers every level: {w:?}");
        assert!(intersects(&q.read_quorum_at_level(1).unwrap(), &w));
    }

    #[test]
    fn substitution_is_deterministic() {
        let mut a = q13();
        let mut b = q13();
        for v in [0usize, 2, 5] {
            a.fail(v);
            b.fail(v);
        }
        assert_eq!(a.read_quorum(), b.read_quorum());
        assert_eq!(a.write_quorum(), b.write_quorum());
        assert_eq!(a.read_quorum_at_level(1), b.read_quorum_at_level(1));
    }
}
