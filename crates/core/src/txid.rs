//! Transaction identity, nesting hierarchy, and abort targets.

use std::fmt;

/// Globally unique id of a *root* transaction attempt.
///
/// Closed-nested transactions execute on behalf of their root and are
/// identified remotely by `(root, level)`; the paper's Alg. 2 records the
/// parent/child relation at the remote node, which here travels inside each
/// request instead.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TxId {
    /// Node the transaction runs on.
    pub node: u32,
    /// Per-node sequence number.
    pub seq: u64,
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}.{}", self.node, self.seq)
    }
}

/// Which nesting mode a cluster runs in (the three columns of every figure
/// in the paper's evaluation).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NestingMode {
    /// Flat nesting: inner transactions are ignored; any conflict aborts the
    /// root. Reads are *not* incrementally validated (base QR).
    Flat,
    /// Closed nesting (QR-CN): inner transactions can abort and retry
    /// independently; reads carry Rqv incremental validation; CT commits and
    /// read-only commits are local.
    Closed,
    /// Checkpointing (QR-CHK): flat structure with automatic checkpoints;
    /// read-time conflicts roll back to the newest checkpoint that excludes
    /// every invalid object; commit-time conflicts abort fully.
    Checkpoint,
}

impl NestingMode {
    /// All three modes, in the order the paper plots them.
    pub const ALL: [NestingMode; 3] = [
        NestingMode::Flat,
        NestingMode::Closed,
        NestingMode::Checkpoint,
    ];
}

impl fmt::Display for NestingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NestingMode::Flat => write!(f, "flat"),
            NestingMode::Closed => write!(f, "closed"),
            NestingMode::Checkpoint => write!(f, "chk"),
        }
    }
}

/// Where an abort unwinds to.
///
/// `Level(0)` is the root: a full abort. Under closed nesting the target is
/// the invalid-object owner *highest in the hierarchy* (paper Alg. 1's
/// `abortClosed`); under checkpointing it is the *minimum* owner checkpoint
/// among invalid objects (Alg. 4's `abortChk`), and checkpoint 0 is the
/// implicit empty checkpoint at transaction start.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AbortTarget {
    /// Abort the closed-nested transaction at this depth (0 = root).
    Level(u32),
    /// Roll back to this checkpoint id.
    Chk(u32),
}

impl AbortTarget {
    /// A full (root) abort.
    pub const ROOT: AbortTarget = AbortTarget::Level(0);

    /// Merge two abort targets observed from different quorum nodes into the
    /// most conservative one (closest to the transaction start), which is
    /// the one that removes every invalid object.
    pub fn merge(self, other: AbortTarget) -> AbortTarget {
        match (self, other) {
            (AbortTarget::Level(a), AbortTarget::Level(b)) => AbortTarget::Level(a.min(b)),
            (AbortTarget::Chk(a), AbortTarget::Chk(b)) => AbortTarget::Chk(a.min(b)),
            // Mixed targets cannot occur within one protocol mode; fall back
            // to a full abort if they somehow do.
            _ => AbortTarget::ROOT,
        }
    }
}

/// The error value that unwinds transaction bodies.
///
/// Propagate with `?`; the [`closed`](crate::Tx::closed) combinator catches
/// targets addressed to its own level and the root runner handles the rest.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Abort {
    /// Where to unwind to.
    pub target: AbortTarget,
}

impl Abort {
    /// A full abort of the root transaction.
    pub fn root() -> Self {
        Abort {
            target: AbortTarget::ROOT,
        }
    }

    /// Abort the closed-nested transaction at `level`.
    pub fn level(level: u32) -> Self {
        Abort {
            target: AbortTarget::Level(level),
        }
    }

    /// Roll back to checkpoint `id`.
    pub fn chk(id: u32) -> Self {
        Abort {
            target: AbortTarget::Chk(id),
        }
    }
}

impl fmt::Display for Abort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.target {
            AbortTarget::Level(0) => write!(f, "abort(root)"),
            AbortTarget::Level(l) => write!(f, "abort(level {l})"),
            AbortTarget::Chk(c) => write!(f, "rollback(chk {c})"),
        }
    }
}

impl std::error::Error for Abort {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_prefers_highest_in_hierarchy() {
        // Paper Alg. 1: if both a parent-owned and a child-owned object are
        // invalid, abort the parent (the smaller level).
        assert_eq!(
            AbortTarget::Level(2).merge(AbortTarget::Level(1)),
            AbortTarget::Level(1)
        );
        assert_eq!(
            AbortTarget::Chk(3).merge(AbortTarget::Chk(5)),
            AbortTarget::Chk(3)
        );
    }

    #[test]
    fn merge_mixed_degrades_to_root() {
        assert_eq!(
            AbortTarget::Level(2).merge(AbortTarget::Chk(1)),
            AbortTarget::ROOT
        );
    }

    #[test]
    fn mode_display() {
        assert_eq!(NestingMode::Closed.to_string(), "closed");
    }

    #[test]
    fn abort_constructors_and_display() {
        assert_eq!(Abort::root().target, AbortTarget::Level(0));
        assert_eq!(Abort::level(3).to_string(), "abort(level 3)");
        assert_eq!(Abort::chk(2).to_string(), "rollback(chk 2)");
        assert_eq!(Abort::root().to_string(), "abort(root)");
    }

    #[test]
    fn txid_ordering_and_display() {
        let a = TxId { node: 0, seq: 5 };
        let b = TxId { node: 1, seq: 0 };
        assert!(a < b);
        assert_eq!(a.to_string(), "T0.5");
    }
}
