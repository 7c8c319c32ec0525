//! Transactional objects and their replicated copies.
//!
//! Every node in QR holds a copy of every object (paper §III-B, property 1).
//! A copy carries a monotonically increasing [`Version`] and, while a
//! committing transaction holds the object locked during two-phase commit,
//! that transaction (`protected_by`). The paper also keeps
//! potential-readers / potential-writers lists (PR/PW) per copy for
//! contention managers to consult; the one rule implemented here (abort
//! the requester) reads neither, so no copy carries them — a manager that
//! needs them adds them back together with its reader.
//!
//! An [`ObjVal`] is immutable once written: its variable-length parts are
//! shared slices and a tree node sits behind its own `Arc`, so a clone —
//! replica to read reply, reply to data set, data set to commit payload,
//! commit payload to every write-quorum replica — moves a reference count
//! and never bytes. A writer builds a new value (one `collect`, or
//! `Arc::make_mut` on its own clone; an [`IntLog`] append shares the log it
//! extends) and hands that to [`Tx::write`](crate::Tx::write). The shared
//! parts are `Arc`, not `Rc`: the threaded backend (`qrdtm-par`) keeps
//! values in tables shared between threads, so `ObjVal` must stay `Send +
//! Sync`.

use std::fmt;
use std::sync::Arc;

// Q-Store's and the baselines' replica tables key [`ObjectId`]s through the
// workspace's one integer hasher, which lives in the lowest crate (QR's own
// table is a dense row per id).
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

/// An immutable, append-only list of integers (a Vacation customer's
/// reservations). An append is a chunk of the new entries behind a shared
/// pointer to the log it extends, so it allocates only what it adds.
/// `PartialEq` and `Debug` read the entries in order, whatever the chunks.
#[derive(Clone, Default)]
pub struct IntLog(Option<Arc<LogChunk>>);

struct LogChunk {
    prev: IntLog,
    /// Entries up to and including this chunk.
    len: usize,
    items: Box<[i64]>,
}

impl IntLog {
    /// This log with `items` appended after its entries.
    pub fn append(&self, items: &[i64]) -> IntLog {
        IntLog(Some(Arc::new(LogChunk {
            prev: self.clone(),
            len: self.len() + items.len(),
            items: items.into(),
        })))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |c| c.len)
    }

    /// Whether the log has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entries in append order.
    pub fn iter(&self) -> impl Iterator<Item = i64> + '_ {
        let mut chunks = Vec::new();
        let mut at = &self.0;
        while let Some(c) = at {
            chunks.push(&c.items[..]);
            at = &c.prev.0;
        }
        chunks.into_iter().rev().flatten().copied()
    }
}

impl Drop for LogChunk {
    // Unlinks the chunks only this one held, one by one: the default
    // recursive drop would use a stack frame per chunk.
    fn drop(&mut self) {
        let mut next = self.prev.0.take();
        while let Some(chunk) = next {
            next = Arc::into_inner(chunk).and_then(|mut c| c.prev.0.take());
        }
    }
}

impl PartialEq for IntLog {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for IntLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The value stored in a transactional object.
///
/// A small closed universe is enough for every benchmark in the paper; the
/// variants map 1:1 onto the data structures of §VI (Bank accounts, Hashmap
/// buckets, RBTree/BST nodes, Skiplist nodes, Vacation relations and
/// customer records).
#[derive(Clone, Debug, PartialEq, Default)]
pub enum ObjVal {
    /// Placeholder / deleted.
    #[default]
    Unit,
    /// A scalar (bank account balance, counters).
    Int(i64),
    /// A sorted list of keys (hashmap bucket).
    IntList(Arc<[i64]>),
    /// Search-tree node, behind a pointer: inline it would make every
    /// value 56 bytes rather than 40.
    Node(Arc<TreeNode>),
    /// Skip-list node.
    SkipNode(SkipNode),
    /// Vacation relation fragment.
    Table(Arc<[TableRow]>),
    /// Vacation customer record: its reservations in booking order.
    Log(IntLog),
    /// A pointer cell (tree root, list head).
    Ptr(Option<ObjectId>),
}

const _: fn() = || {
    fn is<T: Send + Sync>() {}
    is::<ObjVal>();
};

// Every data-set entry, replica row, commit payload and event slot that
// carries a value holds one inline. If this fails, a variant grew past a
// tag plus two words: box it as `Node` is, or those all regrow.
const _: () = assert!(std::mem::size_of::<ObjVal>() <= 40);

impl ObjVal {
    /// Approximate serialized size in bytes, used for wire accounting.
    pub fn approx_size(&self) -> usize {
        match self {
            ObjVal::Unit => 1,
            ObjVal::Int(_) => 8,
            ObjVal::IntList(v) => 8 + 8 * v.len(),
            ObjVal::Log(l) => 8 + 8 * l.len(),
            ObjVal::Node(_) => 40,
            ObjVal::SkipNode(s) => 24 + 9 * s.nexts.len(),
            ObjVal::Table(t) => 8 + 32 * t.len(),
            ObjVal::Ptr(_) => 9,
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

    /// Unwrap a `Log`.
    pub fn expect_log(&self) -> &IntLog {
        match self {
            ObjVal::Log(l) => l,
            other => panic!("expected Log, found {other:?}"),
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
    /// The transaction holding this object locked in 2PC, if any.
    pub protected_by: Option<TxId>,
}

// One replica row per object per node. If this fails, `ObjVal` grew or a
// lock field came back beside `protected_by`, and every node's dense row
// table regrows with it.
const _: () = assert!(std::mem::size_of::<Replica>() <= 72);

impl Replica {
    /// A fresh replica with the initial version.
    pub fn new(val: ObjVal) -> Self {
        Replica {
            val,
            version: Version::INITIAL,
            protected_by: None,
        }
    }

    /// Whether `tx` conflicts with the current lock holder.
    pub fn locked_by_other(&self, tx: TxId) -> bool {
        self.protected_by.is_some_and(|holder| holder != tx)
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

    /// A log built by one append per chunk.
    fn log(chunks: &[&[i64]]) -> IntLog {
        chunks.iter().fold(IntLog::default(), |l, c| l.append(c))
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
            (ObjVal::Node(node().into()), 40),
            (ObjVal::SkipNode(skip), 96),
            (ObjVal::Table(vec![row; 4].into()), 136),
            (ObjVal::Log(IntLog::default()), 8),
            (ObjVal::Log(log(&[&[1; 4], &[1; 6]])), 88),
            (ObjVal::Ptr(Some(ObjectId(3))), 9),
        ];
        for (val, bytes) in sizes {
            assert_eq!(val.approx_size(), bytes, "{val:?}");
        }
    }

    #[test]
    fn expect_accessors_round_trip() {
        assert_eq!(ObjVal::Int(5).expect_int(), 5);
        assert_eq!(ObjVal::IntList(vec![1, 2].into()).expect_list(), [1, 2]);
        let entries: Vec<i64> = ObjVal::Log(log(&[&[1, 2], &[3]]))
            .expect_log()
            .iter()
            .collect();
        assert_eq!(entries, [1, 2, 3]);
        assert_eq!(
            ObjVal::Ptr(Some(ObjectId(3))).expect_ptr(),
            Some(ObjectId(3))
        );
        assert_eq!(ObjVal::Node(node().into()).expect_node(), &node());
    }

    #[test]
    fn logs_compare_and_print_by_contents() {
        let base = log(&[&[1, 2]]);
        let a = base.append(&[3]);
        let b = base.append(&[4]);
        assert_eq!(base.len(), 2, "an append leaves the log it extends alone");
        assert_eq!(a, log(&[&[1], &[], &[2, 3]]), "same entries, other chunks");
        assert_ne!(a, b);
        assert_ne!(a, base);
        assert_eq!(format!("{:?}", ObjVal::Log(a)), "Log([1, 2, 3])");
    }

    #[test]
    fn a_million_appends_drop_compare_and_format_without_recursion() {
        // On the default 2 MiB test-thread stack: a recursive walk of the
        // chain would overflow it.
        const N: i64 = 1_000_000;
        let long = (0..N).fold(IntLog::default(), |l, i| l.append(&[i]));
        let flat = IntLog::default().append(&(0..N).collect::<Vec<_>>());
        assert_eq!(long.len(), N as usize);
        assert!(long == flat);
        assert_eq!(format!("{long:?}"), format!("{flat:?}"));
        drop(long);
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
