//! # qrdtm-mc — bounded schedule exploration over the deterministic sim
//!
//! Stateless model checking for the QR-DTM protocols: the simulator's
//! [`Scheduler`](qrdtm_sim::Scheduler) hook exposes every same-instant tie
//! group as an explicit choice point, and this crate enumerates those
//! choices — exhaustively ([`dfs_explore`], with commutativity pruning),
//! randomly ([`pct_explore`], PCT-style priorities), or one recorded
//! schedule at a time ([`replay`]).
//!
//! After every schedule the full invariant battery runs: history
//! serializability, balance conservation, durability no-regress, and the
//! structural nesting/checkpoint assertions (an abort's target must be an
//! ancestor on the current stack; a checkpoint restore must never
//! resurrect state captured after it). A violation stops exploration with
//! a [`Counterexample`]; [`qrdtm_chaos::shrink`] with [`zero_pick`]
//! shrinks it to the picks `repro mc --save-trace` writes and
//! [`parse_picks`] reads back: the scope is the flags of the command in
//! the file's header, so the file holds nothing else.
//!
//! Exploration covers the rows of the family table
//! ([`qrdtm_chaos::Proto`]) that keep a membership view: the QR nesting
//! variants and the Q-Store speculative-batching protocol. The Q-Store arm
//! swaps the QR structural assertions for batch-atomicity checks, so
//! schedule exploration reaches the batch-boundary races a wall-clock run
//! rarely hits.
//!
//! ```
//! use std::collections::HashSet;
//! use qrdtm_core::NestingMode;
//! use qrdtm_chaos::Proto;
//! use qrdtm_mc::{dfs_explore, Scope};
//!
//! let scope = Scope::smoke(Proto::Qr(NestingMode::Closed));
//! let mut seen = HashSet::new();
//! let report = dfs_explore(&scope, 25, &mut seen);
//! assert!(report.counterexample.is_none());
//! assert!(report.distinct > 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod runner;
mod strategies;
mod trace;

pub use runner::{run_schedule, McBug, RunOutcome, Scope, INITIAL_BALANCE};
pub use strategies::{
    dfs_explore, pct_explore, replay, schedule_key, zero_pick, Counterexample, ExploreReport,
    ForcedPolicy, PctPolicy,
};
pub use trace::parse_picks;
