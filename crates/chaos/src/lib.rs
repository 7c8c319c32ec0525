//! `qrdtm-chaos`: fault injection and invariant checking for the QR-DTM
//! protocol family and its baselines.
//!
//! The subsystem has three parts:
//!
//! - **Plans** ([`plan`], [`mod@generate`]): a declarative, serializable
//!   [`FaultPlan`] — crash/recover, partition/heal, per-link loss and
//!   latency spikes, slow nodes — plus a seeded generator and a
//!   delta-debugging shrinker for minimizing failing plans.
//! - **Nemesis** ([`nemesis`]): runs a bank workload on any
//!   [`ChaosTarget`] (all five protocol configurations implement it)
//!   while applying a plan at virtual-time offsets, healing everything at
//!   the horizon, and draining to quiescence.
//! - **Checkers** ([`checkers`]): safety (balance conservation, 1-copy
//!   serializability of the committed history), liveness (progress in
//!   fault-free windows, re-convergence after heal), and overload
//!   robustness (no retry storms past the client budget, post-surge
//!   goodput re-convergence — the metastability checker).
//!
//! Everything is deterministic per `(config, seed, plan)`, so any
//! violation the nemesis finds comes with an exact textual repro.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkers;
pub mod generate;
pub mod nemesis;
pub mod plan;
pub mod target;

pub use checkers::{check_balances, check_durability, ChaosViolation, Sample};
pub use generate::{generate, shrink, FaultBudget};
pub use nemesis::{run_plan, ChaosReport, ChaosSpec, Fingerprint};
pub use plan::{FaultEvent, FaultKind, FaultPlan};
pub use target::ChaosTarget;
