//! The one table of the six protocol families the fault layer drives —
//! what `repro chaos --proto` and `repro mc --proto` name, and what each
//! family may honestly be subjected to.

use qrdtm_core::NestingMode;

use crate::generate::{FaultBudget, FaultClass};

/// One protocol family: a QR nesting variant, a baseline, or Q-Store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proto {
    /// Quorum replication (QR / QR-CN / QR-CHK by nesting mode).
    Qr(NestingMode),
    /// The TFA (HyFlow) baseline.
    Tfa,
    /// The Decent-STM baseline.
    Decent,
    /// Q-Store: planner-ordered epochs, reads of committed slots,
    /// batch-atomic group commit.
    QStore,
}

impl Proto {
    /// Every family with its command-line label, in the order `--proto all`
    /// runs them.
    pub const ALL: [(Proto, &'static str); 6] = [
        (Proto::Qr(NestingMode::Flat), "qr"),
        (Proto::Qr(NestingMode::Closed), "qr-cn"),
        (Proto::Qr(NestingMode::Checkpoint), "qr-chk"),
        (Proto::Tfa, "tfa"),
        (Proto::Decent, "decent"),
        (Proto::QStore, "qstore"),
    ];

    /// The command-line label (`qr-cn`).
    pub fn label(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(p, _)| *p == self)
            .expect("every Proto is in ALL")
            .1
    }

    /// Whether the family keeps a reconfigurable membership view — the QR
    /// quorum view or the Q-Store planner view — so a failure detector can
    /// drive it and node faults have something to reconfigure. The paper
    /// is explicit that the baselines keep none.
    pub fn has_view(self) -> bool {
        !matches!(self, Proto::Tfa | Proto::Decent)
    }

    /// The fewest nodes the family builds a meaningful cluster on:
    /// Q-Store's majority needs three, every other family runs on one.
    pub fn min_nodes(self) -> usize {
        if self == Proto::QStore {
            3
        } else {
            1
        }
    }

    /// The fault budget the family can honestly be subjected to: `events`
    /// faults spread over the classes [`FaultClass::admitted`] lets
    /// through for its view, `durable` or not — amnesiac restarts first,
    /// then every node and link fault.
    pub fn budget(self, events: usize, durable: bool) -> FaultBudget {
        let admitted: Vec<FaultClass> = [
            FaultClass::Amnesia,
            FaultClass::Crash,
            FaultClass::Partition,
            FaultClass::Drop,
            FaultClass::Delay,
            FaultClass::Slow,
        ]
        .into_iter()
        .filter(|c| c.admitted(self.has_view(), durable))
        .collect();
        FaultBudget::spread(events, &admitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_label_round_trips_through_the_table() {
        for (proto, label) in Proto::ALL {
            assert_eq!(proto.label(), label);
        }
        // Every variant has a row (`label()` panics on one left out).
        for mode in NestingMode::ALL {
            Proto::Qr(mode).label();
        }
        for proto in [Proto::Tfa, Proto::Decent, Proto::QStore] {
            proto.label();
        }
        let lower = |l: &&str| *l == l.to_lowercase();
        assert!(
            Proto::ALL.map(|r| r.1).iter().all(lower),
            "labels are lower-case"
        );
    }
}
