//! [`DtmProtocol`] — one transactional interface over every protocol.
//!
//! The reproduction compares six simulator-hosted families — QR flat,
//! QR-CN and QR-CHK (this crate), HyFlow's TFA and a Decent-STM analogue
//! (`qrdtm-baselines`) and Q-Store (`qrdtm-qstore`) — plus a threaded TL2
//! backend (`qrdtm-par`). Workload drivers and the benchmark harness
//! program against this one begin/read/write/commit/stats surface, and any
//! conformance test runs unchanged against all of them.
//!
//! Who plays the paper's Cluster Manager is a property of the run: an
//! oracle, or the heartbeat detector the one switch `ChaosSpec::detector`
//! starts ([`spawn_detector`](crate::spawn_detector), stopped through a
//! [`DetectorHandle`](crate::DetectorHandle)). Either way a QR cluster's
//! transport is the same: the detector only moves the view it reads.
//!
//! The shape is *attempt-oriented*: `begin` hands out a transaction
//! handle, `commit` tries to finish the current attempt, and on an abort
//! `restart` takes the protocol's backoff and rolls the handle back — to a
//! checkpoint under QR-CHK, to a fresh attempt otherwise — before the body
//! runs again on the same handle. [`attempts`] is the one loop that applies
//! this retry rule, and [`atomically`] is `begin` plus that loop; it is the
//! contract [`Client::run`] implements natively for QR's nested bodies.
//!
//! [`Client::run`]: crate::Client::run

use qrdtm_sim::{NodeId, Sim, SimMessage, SimTime};

use crate::cluster::Cluster;
use crate::engine::Tx;
use crate::msg::Msg;
use crate::object::{ObjVal, ObjectId};
use crate::txid::{Abort, NestingMode};

/// Protocol-independent commit/abort counters, for apples-to-apples
/// comparison across engines with different native stats structs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProtocolStats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts (full aborts plus checkpoint rollbacks).
    pub aborts: u64,
}

/// A distributed transactional memory, seen as begin/read/write/commit
/// plus run bookkeeping.
///
/// The trait is *host-agnostic*: it says nothing about how time passes or
/// where transactions execute, so both the single-threaded simulator
/// protocols and the multi-threaded `qrdtm-par` backend implement it, and
/// one workload (`qrdtm-workloads::protocol_bank`) drives either world.
/// Simulator-hosted protocols additionally implement [`SimHosted`], which
/// is what drivers that spawn tasks and pump virtual time require.
/// Handles are plain values and futures need not be `Send` — a handle
/// lives on the thread (or task) that began it.
///
/// Drivers do not sequence `commit` and `restart` themselves: [`atomically`]
/// and [`attempts`] are the one retry rule over these methods.
#[allow(async_fn_in_trait)]
pub trait DtmProtocol {
    /// In-flight transaction state, valid across restarts until commit.
    type TxHandle;

    /// Display name ("QR-CN", "HyFlow", ...).
    fn protocol_name(&self) -> &'static str;

    /// Install an object before the run (bootstrap, no transaction).
    fn preload(&self, oid: ObjectId, val: ObjVal);

    /// Start a transaction at `node`.
    fn begin(&self, node: NodeId) -> Self::TxHandle;

    /// Transactional read.
    async fn read(&self, tx: &mut Self::TxHandle, oid: ObjectId) -> Result<ObjVal, Abort>;

    /// Transactional write (protocols that need the object's version first
    /// acquire it internally).
    async fn write(&self, tx: &mut Self::TxHandle, oid: ObjectId, val: ObjVal)
        -> Result<(), Abort>;

    /// Try to commit the current attempt. On `Ok` the handle is spent; on
    /// `Err` call [`DtmProtocol::restart`] and re-run the body.
    async fn commit(&self, tx: &mut Self::TxHandle) -> Result<(), Abort>;

    /// Prepare the handle for the next attempt after an abort (backoff,
    /// rollback or reset) — the retry edge of [`attempts`].
    async fn restart(&self, tx: &mut Self::TxHandle, abort: Abort);

    /// Arm (or clear) a completion deadline on an in-flight transaction.
    ///
    /// Protocols with deadline-aware early abort (the QR engine) abandon
    /// quorum rounds past this instant instead of burning retries on a
    /// request the client already gave up on. The default is a no-op so
    /// protocols without the machinery (the baselines, Q-Store) stay
    /// correct — an ignored deadline only wastes work, never safety.
    fn set_deadline(&self, _tx: &mut Self::TxHandle, _deadline: Option<SimTime>) {}

    /// Commit/abort counters since the last reset.
    fn protocol_stats(&self) -> ProtocolStats;

    /// Zero the protocol's counters (measurement-window start).
    fn reset_protocol_stats(&self);
}

/// Run `body` then `commit` on `h` until an attempt commits, returning the
/// body's value. After an abort, return it if `give_up()` holds; otherwise
/// `restart` the handle and run the body again.
pub async fn attempts<P: DtmProtocol, T>(
    p: &P,
    h: &mut P::TxHandle,
    mut give_up: impl FnMut() -> bool,
    mut body: impl AsyncFnMut(&mut P::TxHandle) -> Result<T, Abort>,
) -> Result<T, Abort> {
    loop {
        let r = match body(h).await {
            Ok(v) => p.commit(h).await.map(|()| v),
            Err(e) => Err(e),
        };
        match r {
            Ok(v) => return Ok(v),
            Err(e) if give_up() => return Err(e),
            Err(e) => p.restart(h, e).await,
        }
    }
}

/// Begin a transaction at `node` and run `body` in it until it commits.
pub async fn atomically<P: DtmProtocol, T>(
    p: &P,
    node: NodeId,
    body: impl AsyncFnMut(&mut P::TxHandle) -> Result<T, Abort>,
) -> T {
    let mut h = p.begin(node);
    attempts(p, &mut h, || false, body)
        .await
        .expect("an attempt loop that never gives up returns only on commit")
}

/// A [`DtmProtocol`] hosted on the deterministic simulator.
///
/// Closed-loop drivers, the conformance suite and the chaos/mc harnesses
/// need more than begin/read/write/commit: they spawn tasks, pump virtual
/// time and read message metrics. That is simulator-world capability, so
/// it lives here rather than on [`DtmProtocol`] — the threaded backend
/// implements only the base trait and is driven by real threads instead.
pub trait SimHosted: DtmProtocol {
    /// Wire message type of the protocol's simulator.
    type Msg: SimMessage;

    /// The simulator this protocol runs on (drives time, RNG, metrics).
    fn sim(&self) -> &Sim<Self::Msg>;
}

/// The QR engine is a [`DtmProtocol`]: one implementation, three protocol
/// configurations (QR, QR-CN, QR-CHK) selected by the cluster's
/// [`NestingMode`]. The handle is the engine's own [`Tx`], and its methods
/// are the exact attempt-level engine paths [`Client::run`] is built from,
/// so a trait-driven workload and a closure-driven one produce identical
/// message sequences.
///
/// [`Client::run`]: crate::Client::run
impl DtmProtocol for Cluster {
    type TxHandle = Tx;

    fn protocol_name(&self) -> &'static str {
        match self.inner.cfg.mode {
            NestingMode::Flat => "QR",
            NestingMode::Closed => "QR-CN",
            NestingMode::Checkpoint => "QR-CHK",
        }
    }

    fn preload(&self, oid: ObjectId, val: ObjVal) {
        Cluster::preload(self, oid, val);
    }

    fn begin(&self, node: NodeId) -> Tx {
        self.client(node).begin_tx()
    }

    async fn read(&self, tx: &mut Tx, oid: ObjectId) -> Result<ObjVal, Abort> {
        tx.read(oid).await
    }

    async fn write(&self, tx: &mut Tx, oid: ObjectId, val: ObjVal) -> Result<(), Abort> {
        tx.write(oid, val).await
    }

    async fn commit(&self, tx: &mut Tx) -> Result<(), Abort> {
        tx.commit_attempt().await
    }

    async fn restart(&self, tx: &mut Tx, abort: Abort) {
        tx.restart_after(abort).await;
    }

    fn set_deadline(&self, tx: &mut Tx, deadline: Option<SimTime>) {
        tx.set_deadline(deadline);
    }

    fn protocol_stats(&self) -> ProtocolStats {
        let s = self.stats();
        ProtocolStats {
            commits: s.commits,
            aborts: s.root_aborts + s.chk_rollbacks,
        }
    }

    fn reset_protocol_stats(&self) {
        self.reset_stats();
    }
}

impl SimHosted for Cluster {
    type Msg = Msg;

    fn sim(&self) -> &Sim<Msg> {
        Cluster::sim(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::DtmConfig;
    use std::cell::Cell;
    use std::rc::Rc;

    fn cluster(mode: NestingMode) -> Rc<Cluster> {
        let c = Rc::new(Cluster::new(DtmConfig {
            mode,
            ..Default::default()
        }));
        DtmProtocol::preload(&*c, ObjectId(1), ObjVal::Int(10));
        DtmProtocol::preload(&*c, ObjectId(2), ObjVal::Int(20));
        c
    }

    #[test]
    fn protocol_names_follow_the_mode() {
        assert_eq!(cluster(NestingMode::Flat).protocol_name(), "QR");
        assert_eq!(cluster(NestingMode::Closed).protocol_name(), "QR-CN");
        assert_eq!(cluster(NestingMode::Checkpoint).protocol_name(), "QR-CHK");
    }

    #[test]
    fn a_body_that_aborts_k_times_commits_on_attempt_k_plus_one() {
        const K: u64 = 3;
        let c = cluster(NestingMode::Flat);
        let (c2, got) = (Rc::clone(&c), Rc::new(Cell::new(0)));
        let got2 = Rc::clone(&got);
        c.sim().spawn(async move {
            let p = &*c2;
            let mut left = K;
            let v = atomically(p, NodeId(3), async |h| {
                let a = p.read(h, ObjectId(1)).await?.expect_int();
                if left > 0 {
                    left -= 1;
                    return Err(Abort::root());
                }
                Ok(a)
            })
            .await;
            got2.set(v);
        });
        c.sim().run();
        assert_eq!(got.get(), 10, "the committed attempt's value comes back");
        assert_eq!(
            c.protocol_stats(),
            ProtocolStats {
                commits: 1,
                aborts: K
            }
        );
    }

    #[test]
    fn giving_up_returns_the_first_abort_without_a_restart() {
        let c = cluster(NestingMode::Flat);
        let c2 = Rc::clone(&c);
        c.sim().spawn(async move {
            let p = &*c2;
            let mut h = p.begin(NodeId(3));
            let r: Result<(), Abort> =
                attempts(p, &mut h, || true, async |_| Err(Abort::root())).await;
            assert_eq!(r, Err(Abort::root()));
        });
        c.sim().run();
        assert_eq!(c.stats().root_aborts, 0, "restart was never called");
        assert_eq!(c.sim().now(), SimTime::ZERO, "no backoff was charged");
    }

    #[test]
    fn trait_path_matches_closure_path_message_for_message() {
        // The same transfer via Client::run and via the trait must cost the
        // same messages — the trait reuses the engine's attempt internals.
        fn run_closure(mode: NestingMode) -> u64 {
            let c = cluster(mode);
            let client = c.client(NodeId(3));
            c.sim().spawn(async move {
                client
                    .run(|tx| async move {
                        let a = tx.read(ObjectId(1)).await?.expect_int();
                        tx.write(ObjectId(1), ObjVal::Int(a + 1)).await?;
                        Ok(())
                    })
                    .await;
            });
            c.sim().run();
            c.sim().metrics().sent_total
        }
        fn run_trait(mode: NestingMode) -> u64 {
            let c = cluster(mode);
            let c2 = Rc::clone(&c);
            c.sim().spawn(async move {
                let p = &*c2;
                atomically(p, NodeId(3), async |h| {
                    let a = p.read(h, ObjectId(1)).await?.expect_int();
                    p.write(h, ObjectId(1), ObjVal::Int(a + 1)).await
                })
                .await;
            });
            c.sim().run();
            c.sim().metrics().sent_total
        }
        for mode in [
            NestingMode::Flat,
            NestingMode::Closed,
            NestingMode::Checkpoint,
        ] {
            assert_eq!(run_closure(mode), run_trait(mode), "{mode:?}");
        }
    }
}
