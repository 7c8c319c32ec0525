//! Thread-side execution: a minimal executor for the protocol's async
//! surface, and the closed-count bank driver behind the audited
//! multi-thread stress in `tests/protocol_conformance.rs`.
//!
//! [`DtmProtocol`] is an async trait so the simulator protocols can await
//! virtual time, but the TL2 backend completes every operation
//! synchronously — its futures resolve on first poll. [`block_on`] is
//! therefore a no-frills poll loop with a no-op waker, not a runtime.

use std::future::Future;
use std::pin::pin;
use std::task::{Context, Poll, Waker};

use qrdtm_core::history;
use qrdtm_core::{DtmProtocol, ObjVal, ObjectId};
use qrdtm_sim::NodeId;
use qrdtm_workloads::protocol_bank::random_op;

use crate::tl2::ParBackend;

/// Drive `fut` to completion on the current thread.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    let mut cx = Context::from_waker(Waker::noop());
    let mut fut = pin!(fut);
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(v) => return v,
            // The TL2 futures never pend; yield defensively if one does.
            Poll::Pending => std::thread::yield_now(),
        }
    }
}

/// Tiny per-thread deterministic RNG (splitmix-seeded xorshift64*) for the
/// workload's account draws — the sim's seeded RNG is single-threaded.
struct SmallRng(u64);

impl SmallRng {
    fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        SmallRng((z ^ (z >> 31)) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Bank workload shape for the threaded backend: closed op *counts* (not a
/// virtual-time window — wall clocks don't pause between ops).
#[derive(Clone, Copy, Debug)]
pub struct ParBankSpec {
    /// Number of account objects.
    pub accounts: u64,
    /// Percentage of read-only audits.
    pub read_pct: u32,
    /// Transactions each worker thread runs to completion.
    pub ops_per_thread: u64,
}

impl Default for ParBankSpec {
    fn default() -> Self {
        ParBankSpec {
            accounts: 32,
            read_pct: 50,
            ops_per_thread: 1_000,
        }
    }
}

/// Checked outcome of a threaded bank run.
#[derive(Clone, Debug)]
pub struct ParBankResult {
    /// Transactions run to commit (threads × ops_per_thread).
    pub ops: u64,
    /// Committed transactions (equals `ops` — closed loop retries).
    pub commits: u64,
    /// Serializability violations in the recorded history (must be 0).
    pub violations: usize,
    /// Sum of all account balances after the run (conservation check).
    pub total_balance: i64,
}

/// Run the bank mix on `threads` OS threads against one TL2 instance:
/// preload, fan out closed-count workers (each with its own seeded RNG),
/// join, then audit the full commit history for serializability.
pub fn run_par_bank(seed: u64, threads: usize, spec: &ParBankSpec) -> ParBankResult {
    let backend = ParBackend::new();
    let stm = backend.stm();
    for i in 0..spec.accounts {
        stm.preload(ObjectId(i), ObjVal::Int(1_000));
    }
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let p = backend.stm();
            let spec = *spec;
            std::thread::spawn(move || {
                let mut rng = SmallRng::new(seed ^ (t as u64).wrapping_mul(0xA5A5_A5A5));
                for _ in 0..spec.ops_per_thread {
                    let node = NodeId(t as u32);
                    block_on(random_op(&p, node, spec.accounts, spec.read_pct, |n| {
                        rng.below(n)
                    }));
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker thread panicked");
    }
    let commits = stm.protocol_stats().commits;
    let total_balance: i64 = (0..spec.accounts)
        .map(|i| stm.latest(ObjectId(i)).expect("preloaded").1.expect_int())
        .sum();
    drop(stm);
    let (records, _) = backend.finish();
    let violations = history::verify(&records).len();
    ParBankResult {
        ops: threads as u64 * spec.ops_per_thread,
        commits,
        violations,
        total_balance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_on_runs_nested_futures() {
        async fn add(a: u32, b: u32) -> u32 {
            a + b
        }
        assert_eq!(block_on(async { add(40, 2).await }), 42);
    }

    #[test]
    fn small_rng_is_deterministic_per_seed() {
        let mut a = SmallRng::new(7);
        let mut b = SmallRng::new(7);
        let mut c = SmallRng::new(8);
        let (x, y, z) = (a.next(), b.next(), c.next());
        assert_eq!(x, y);
        assert_ne!(x, z);
    }

    #[test]
    fn bank_run_conserves_money_and_serializes() {
        let spec = ParBankSpec {
            accounts: 16,
            read_pct: 50,
            ops_per_thread: 200,
        };
        let r = run_par_bank(11, 4, &spec);
        assert_eq!(r.ops, 800);
        assert_eq!(r.commits, 800);
        assert_eq!(r.violations, 0, "history must be serializable");
        assert_eq!(r.total_balance, 16 * 1_000, "transfers conserve money");
    }
}
