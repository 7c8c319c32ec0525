//! Transaction-level statistics.
//!
//! The paper reports throughput (committed transactions per second), abort
//! rates split into root and child aborts, and message counts. Message
//! counts come from the simulator's [`qrdtm_sim::Metrics`]; everything
//! transaction-shaped is counted here by the runtime.

/// Counters accumulated by every transaction runtime of a cluster.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DtmStats {
    /// Root transactions committed.
    pub commits: u64,
    /// Full (root) aborts — commit-time conflicts, or read-time conflicts
    /// that unwound to the root.
    pub root_aborts: u64,
    /// Closed-nested partial aborts (a CT retried without killing the root).
    pub ct_aborts: u64,
    /// Checkpoint partial rollbacks.
    pub chk_rollbacks: u64,
    /// Closed-nested transactions committed (merged into their parent).
    pub ct_commits: u64,
    /// Read-only transactions committed locally with zero messages
    /// (possible under QR-CN thanks to Rqv).
    pub local_commits: u64,
    /// Remote read rounds issued (each costs one message per read-quorum
    /// member plus the replies).
    pub read_rounds: u64,
    /// Reads and writes satisfied from the transaction's own (or an
    /// ancestor's) data set without any communication.
    pub local_hits: u64,
    /// Two-phase-commit rounds issued (phase one).
    pub commit_rounds: u64,
    /// Checkpoints created.
    pub checkpoints: u64,
    /// Operations replayed from the op log after a checkpoint rollback.
    pub replayed_ops: u64,
    /// RPC rounds that timed out (only possible with failures).
    pub timeouts: u64,
    /// Always 0: the wait-retry contention policy that bumped it is gone.
    /// Kept because `benchmark/src/layers.rs` reads it by field.
    pub lock_waits: u64,
    /// Sum of committed-transaction latencies, in nanoseconds (start of
    /// first attempt to commit confirmation).
    pub latency_sum_ns: u64,
    /// Largest committed-transaction latency observed, in nanoseconds.
    pub latency_max_ns: u64,
}

impl DtmStats {
    /// Root + child + checkpoint aborts — the "total aborts" of Table 8.
    pub fn total_aborts(&self) -> u64 {
        self.root_aborts + self.ct_aborts + self.chk_rollbacks
    }

    /// Abort rate as aborts per committed transaction.
    pub fn abort_rate(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.total_aborts() as f64 / self.commits as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_rates() {
        let s = DtmStats {
            commits: 10,
            root_aborts: 2,
            ct_aborts: 3,
            chk_rollbacks: 1,
            ..Default::default()
        };
        assert_eq!(s.total_aborts(), 6);
        assert!((s.abort_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn abort_rate_of_empty_run_is_zero() {
        assert_eq!(DtmStats::default().abort_rate(), 0.0);
    }
}
