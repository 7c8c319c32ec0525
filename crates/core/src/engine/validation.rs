//! Validation layer: the Rqv incremental-validation path.
//!
//! Under Rqv every remote read piggybacks the transaction's merged data
//! set; each read-quorum node revalidates it and either serves the object
//! or reports a conflict with an abort target. This module assembles the
//! outbound payload and merges the inbound replies — the max-version copy
//! wins and abort targets merge toward the outermost scope.

use qrdtm_sim::NodeId;

use crate::msg::{Msg, ValEntry, ValidationKind};
use crate::object::{ObjVal, Version};
use crate::txid::{Abort, AbortTarget};

use super::nesting::{NestingPolicy, TxState};

/// The validation payload piggybacked on a remote read: the kind the
/// policy mandates (or [`ValidationKind::None`] with Rqv disabled) plus
/// the merged data set when a validating kind is in effect.
pub(super) fn read_validation(
    st: &TxState,
    rqv: bool,
    pol: &dyn NestingPolicy,
) -> (ValidationKind, Vec<ValEntry>) {
    let kind = if rqv {
        pol.validation_kind()
    } else {
        ValidationKind::None
    };
    let entries = if kind == ValidationKind::None {
        Vec::new()
    } else {
        st.entries()
    };
    (kind, entries)
}

/// Merge a read round's replies (paper Alg. 2, quorum part): the
/// max-version copy served, or — if any node reported a conflict — the
/// abort targets merged toward the outermost scope.
pub(super) fn resolve_replies(replies: Vec<(NodeId, Msg)>) -> Result<(Version, ObjVal), Abort> {
    let mut best: Option<(Version, ObjVal)> = None;
    let mut abort: Option<AbortTarget> = None;
    for (_, m) in replies {
        match m {
            Msg::ReadOk { version, val, .. } if best.as_ref().is_none_or(|(v, _)| version > *v) => {
                best = Some((version, val));
            }
            Msg::ReadOk { .. } => {}
            Msg::ReadAbort { target } => {
                abort = Some(match abort {
                    Some(prev) => prev.merge(target),
                    None => target,
                });
            }
            _ => {}
        }
    }
    match abort {
        Some(target) => Err(Abort { target }),
        None => Ok(best.expect("non-empty read quorum")),
    }
}
