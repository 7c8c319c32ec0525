//! Transactional objects and their replicated copies.
//!
//! Every node in QR holds a copy of every object (paper §III-B, property 1).
//! A copy carries a monotonically increasing [`Version`] and the `protected`
//! flag set while a committing transaction holds the object locked during
//! two-phase commit. The paper also keeps potential-readers / potential-writers
//! lists (PR/PW) per copy for contention managers to consult; the one rule
//! implemented here (abort the requester) reads neither, so no copy carries
//! them — a manager that needs them adds them back together with its reader.
//!
//! An [`ObjVal`] is immutable once written: its variable-length parts are
//! shared slices, so a clone — replica to read reply, reply to data set,
//! data set to op log and commit payload, commit payload to every
//! write-quorum replica — moves a reference count and never bytes. A writer
//! builds a new value (`to_vec()` … `.into()`, or `Arc::make_mut` on its own
//! clone) and hands that to [`Tx::write`](crate::Tx::write). The slices are
//! `Arc`, not `Rc`: the threaded backend (`qrdtm-par`) keeps values in
//! tables shared between threads, so `ObjVal` must stay `Send + Sync`.

use std::fmt;
use std::sync::Arc;

// The replica tables' integer keys ([`ObjectId`]) go through the workspace's
// one integer hasher, which lives in the lowest crate.
pub use qrdtm_sim::{IdHasher, IdMap};

use crate::txid::TxId;

/// Identifier of a shared transactional object.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ObjectId(pub u64);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// Object version; starts at 1 when preloaded and increments on every
/// committed write.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct Version(pub u64);

impl Version {
    /// The version a freshly preloaded object carries.
    pub const INITIAL: Version = Version(1);

    /// The next version after a committed write.
    pub fn next(self) -> Version {
        Version(self.0 + 1)
    }
}

/// A node of a transactional search tree (red-black or plain BST).
#[derive(Clone, Debug, PartialEq)]
pub struct TreeNode {
    /// Search key.
    pub key: i64,
    /// Payload.
    pub val: i64,
    /// Left child object, if any.
    pub left: Option<ObjectId>,
    /// Right child object, if any.
    pub right: Option<ObjectId>,
    /// Red-black colour (`true` = red); unused by plain BSTs.
    pub red: bool,
}

/// A node of a transactional skip list.
#[derive(Clone, Debug, PartialEq)]
pub struct SkipNode {
    /// Search key.
    pub key: i64,
    /// Payload.
    pub val: i64,
    /// Forward pointers, one per level (index 0 = bottom).
    pub nexts: Arc<[Option<ObjectId>]>,
}

/// A row of a Vacation-style relation (cars / rooms / flights).
#[derive(Clone, Debug, PartialEq)]
pub struct TableRow {
    /// Resource id.
    pub id: i64,
    /// Total capacity.
    pub total: i64,
    /// Currently reserved.
    pub used: i64,
    /// Price per reservation.
    pub price: i64,
}

/// The value stored in a transactional object.
///
/// A small closed universe is enough for every benchmark in the paper; the
/// variants map 1:1 onto the data structures of §VI (Bank accounts, Hashmap
/// buckets, RBTree/BST nodes, Skiplist nodes, Vacation relations).
#[derive(Clone, Debug, PartialEq, Default)]
pub enum ObjVal {
    /// Placeholder / deleted.
    #[default]
    Unit,
    /// A scalar (bank account balance, counters).
    Int(i64),
    /// A sorted list of keys (hashmap bucket).
    IntList(Arc<[i64]>),
    /// Search-tree node.
    Node(TreeNode),
    /// Skip-list node.
    SkipNode(SkipNode),
    /// Vacation relation fragment.
    Table(Arc<[TableRow]>),
    /// A pointer cell (tree root, list head).
    Ptr(Option<ObjectId>),
    /// A directory of object ids (index structures).
    Dir(Arc<[ObjectId]>),
}

const _: fn() = || {
    fn is<T: Send + Sync>() {}
    is::<ObjVal>();
};

impl ObjVal {
    /// Approximate serialized size in bytes, used for wire accounting.
    pub fn approx_size(&self) -> usize {
        match self {
            ObjVal::Unit => 1,
            ObjVal::Int(_) => 8,
            ObjVal::IntList(v) => 8 + 8 * v.len(),
            ObjVal::Node(_) => 40,
            ObjVal::SkipNode(s) => 24 + 9 * s.nexts.len(),
            ObjVal::Table(t) => 8 + 32 * t.len(),
            ObjVal::Ptr(_) => 9,
            ObjVal::Dir(d) => 8 + 8 * d.len(),
        }
    }

    /// Unwrap an `Int`, panicking with a protocol-bug message otherwise.
    pub fn expect_int(&self) -> i64 {
        match self {
            ObjVal::Int(v) => *v,
            other => panic!("expected Int, found {other:?}"),
        }
    }

    /// Unwrap an `IntList`.
    pub fn expect_list(&self) -> &[i64] {
        match self {
            ObjVal::IntList(v) => v,
            other => panic!("expected IntList, found {other:?}"),
        }
    }

    /// Unwrap a tree node.
    pub fn expect_node(&self) -> &TreeNode {
        match self {
            ObjVal::Node(n) => n,
            other => panic!("expected Node, found {other:?}"),
        }
    }

    /// Unwrap a skip-list node.
    pub fn expect_skip(&self) -> &SkipNode {
        match self {
            ObjVal::SkipNode(n) => n,
            other => panic!("expected SkipNode, found {other:?}"),
        }
    }

    /// Unwrap a table.
    pub fn expect_table(&self) -> &[TableRow] {
        match self {
            ObjVal::Table(t) => t,
            other => panic!("expected Table, found {other:?}"),
        }
    }

    /// Unwrap a pointer cell.
    pub fn expect_ptr(&self) -> Option<ObjectId> {
        match self {
            ObjVal::Ptr(p) => *p,
            other => panic!("expected Ptr, found {other:?}"),
        }
    }
}

/// One node's copy of an object.
#[derive(Clone, Debug)]
pub struct Replica {
    /// Current value at this node (may be stale relative to the system-wide
    /// latest; reads take the max version across a read quorum).
    pub val: ObjVal,
    /// Version of `val`.
    pub version: Version,
    /// Set while a transaction holds this object locked in 2PC.
    pub protected: bool,
    /// The transaction holding the lock, when `protected`.
    pub protected_by: Option<TxId>,
}

impl Replica {
    /// A fresh replica with the initial version.
    pub fn new(val: ObjVal) -> Self {
        Replica {
            val,
            version: Version::INITIAL,
            protected: false,
            protected_by: None,
        }
    }

    /// Whether `tx` conflicts with the current lock holder.
    pub fn locked_by_other(&self, tx: TxId) -> bool {
        self.protected && self.protected_by != Some(tx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txid::TxId;

    fn node() -> TreeNode {
        TreeNode {
            key: 1,
            val: 2,
            left: None,
            right: Some(ObjectId(3)),
            red: true,
        }
    }

    #[test]
    fn version_progression() {
        let v = Version::INITIAL;
        assert_eq!(v.next(), Version(2));
        assert!(v < v.next());
    }

    #[test]
    fn replica_lock_semantics() {
        let t1 = TxId { node: 0, seq: 1 };
        let t2 = TxId { node: 1, seq: 1 };
        let mut r = Replica::new(ObjVal::Int(7));
        assert!(!r.locked_by_other(t1));
        r.protected = true;
        r.protected_by = Some(t1);
        assert!(!r.locked_by_other(t1), "own lock never conflicts");
        assert!(r.locked_by_other(t2));
    }

    #[test]
    fn approx_size_is_pinned_per_variant() {
        // Wire accounting (`bytes_per_commit`, every digest) reads these; a
        // change of representation must not move them.
        let row = TableRow {
            id: 0,
            total: 1,
            used: 0,
            price: 10,
        };
        let skip = SkipNode {
            key: 1,
            val: 2,
            nexts: vec![None; 8].into(),
        };
        let sizes = [
            (ObjVal::Unit, 1),
            (ObjVal::Int(-7), 8),
            (ObjVal::IntList([].into()), 8),
            (ObjVal::IntList(vec![1; 10].into()), 88),
            (ObjVal::Node(node()), 40),
            (ObjVal::SkipNode(skip), 96),
            (ObjVal::Table(vec![row; 4].into()), 136),
            (ObjVal::Ptr(Some(ObjectId(3))), 9),
            (ObjVal::Dir(vec![ObjectId(1); 3].into()), 32),
        ];
        for (val, bytes) in sizes {
            assert_eq!(val.approx_size(), bytes, "{val:?}");
        }
    }

    #[test]
    fn expect_accessors_round_trip() {
        assert_eq!(ObjVal::Int(5).expect_int(), 5);
        assert_eq!(ObjVal::IntList(vec![1, 2].into()).expect_list(), [1, 2]);
        assert_eq!(
            ObjVal::Ptr(Some(ObjectId(3))).expect_ptr(),
            Some(ObjectId(3))
        );
        assert_eq!(ObjVal::Node(node()).expect_node(), &node());
    }

    #[test]
    #[should_panic(expected = "expected Int")]
    fn expect_int_panics_on_mismatch() {
        ObjVal::Unit.expect_int();
    }

    #[test]
    fn display_formats() {
        assert_eq!(ObjectId(4).to_string(), "o4");
    }
}
