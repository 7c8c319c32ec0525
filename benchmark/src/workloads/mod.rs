//! The seven workloads. Each module runs one rep (fresh set-up plus one
//! measured phase) and returns a [`crate::harness::Rep`].

pub mod bank;
pub mod open;
pub mod par;
pub mod proto;
pub mod qr;
pub mod ring;
