//! `qrdtm-chaos`: fault injection and invariant checking for the QR-DTM
//! protocol family and its baselines.
//!
//! The subsystem has three parts, plus the one table of the six protocol
//! families ([`Proto`]) it drives:
//!
//! - **Plans** ([`plan`], [`mod@generate`]): a declarative, serializable
//!   [`FaultPlan`], a seeded generator and the delta-debugging shrinker
//!   for failing plans (and `qrdtm-mc`'s failing schedules). One table of fault classes ([`FaultClass`])
//!   draws generated faults, spreads budgets and admits them per target.
//! - **Nemesis** ([`nemesis`]): runs a bank workload on any
//!   [`ChaosTarget`] (the QR cluster, which serves its three nesting
//!   modes, Q-Store, TFA and Decent-STM implement it) while applying a
//!   plan at virtual-time offsets, healing everything at the horizon, and
//!   draining to quiescence. It keeps only its own log: what is broken it
//!   reads off the simulator and the open-loop load control.
//! - **Checkers** ([`checkers`]): safety ([`audit`], the battery the
//!   model checker shares: balance conservation, durability, 1-copy
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
pub mod family;
pub mod generate;
pub mod nemesis;
pub mod plan;
pub mod target;

pub use checkers::{audit, Audit, ChaosViolation, Sample};
pub use family::Proto;
pub use generate::{drop_at, generate, shrink, FaultBudget, FaultClass};
pub use nemesis::{run_plan, ChaosReport, ChaosSpec, Fingerprint};
pub use plan::{FaultEvent, FaultKind, FaultPlan};
pub use target::ChaosTarget;
