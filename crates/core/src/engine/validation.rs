//! Validation layer: the inbound half of the Rqv incremental-validation
//! path.
//!
//! Under Rqv every remote read piggybacks the transaction's merged data
//! set (assembled by [`TxState::entries`](super::nesting::TxState::entries));
//! each read-quorum node revalidates it and either serves the object or
//! reports a conflict with an abort target. This module merges the inbound
//! replies — the max-version copy wins and abort targets merge toward the
//! outermost scope.

use qrdtm_sim::NodeId;

use crate::msg::Msg;
use crate::object::{ObjVal, Version};
use crate::txid::{Abort, AbortTarget};

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
