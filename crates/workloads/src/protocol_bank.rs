//! Bank — the paper's macro-benchmark "similar to the one in HyFlow" —
//! written once, against [`DtmProtocol`].
//!
//! Accounts are objects `0..accounts` holding integer balances. The bank
//! transaction is two attempt bodies: [`transfer_in`] reads two accounts
//! and writes both, [`audit_in`] reads two. [`transfer`] and [`audit`] run
//! one to commit; the closed-loop driver ([`crate::run`]) runs
//! `calls` of them per root transaction, each inside `Tx::closed` (closed
//! nesting under QR-CN, inline otherwise); the open-loop workers run them
//! under a deadline. [`spawn_bank_clients`] is the one closed-loop client
//! pool, shared by the chaos nemesis and [`run_bank`], Section VI-D's
//! comparison of QR-DTM, HyFlow (TFA) and Decent-STM (Fig. 9): one
//! closed-loop driver for every family, where the caller only assembles
//! the cluster. Every client draws its account/mix stream from the
//! protocol's own simulator RNG, so runs stay deterministic per seed.

use std::cell::Cell;
use std::rc::Rc;

use qrdtm_core::{atomically, Abort, DtmProtocol, ObjVal, ObjectId, SimHosted};
use qrdtm_sim::{NodeId, SimDuration};

/// Fig. 9 bank workload shape.
#[derive(Clone, Copy, Debug)]
pub struct BankSpec {
    /// Number of account objects.
    pub accounts: u64,
    /// Percentage of read-only audits.
    pub read_pct: u32,
    /// Warm-up window.
    pub warmup: SimDuration,
    /// Measurement window.
    pub duration: SimDuration,
}

impl Default for BankSpec {
    fn default() -> Self {
        BankSpec {
            accounts: 32,
            read_pct: 50,
            warmup: SimDuration::from_secs(2),
            duration: SimDuration::from_secs(20),
        }
    }
}

/// Measured outcome of a bank run.
#[derive(Clone, Debug)]
pub struct BankRunResult {
    /// Committed transactions per virtual second.
    pub throughput: f64,
    /// Committed transactions in the window.
    pub commits: u64,
    /// Aborted attempts in the window.
    pub aborts: u64,
    /// Messages sent in the window.
    pub messages: u64,
}

/// The transfer body: move `amount` from `from` to `to` in the attempt on
/// `h` (unchecked, as in the paper's bank: an account may overdraw, and
/// the total is still conserved).
pub async fn transfer_in<P: DtmProtocol>(
    p: &P,
    h: &mut P::TxHandle,
    from: ObjectId,
    to: ObjectId,
    amount: i64,
) -> Result<(), Abort> {
    let a = p.read(h, from).await?.expect_int();
    let b = p.read(h, to).await?.expect_int();
    p.write(h, from, ObjVal::Int(a - amount)).await?;
    p.write(h, to, ObjVal::Int(b + amount)).await
}

/// The audit body: read two accounts in the attempt on `h` and return
/// their combined balance.
pub async fn audit_in<P: DtmProtocol>(
    p: &P,
    h: &mut P::TxHandle,
    a: ObjectId,
    b: ObjectId,
) -> Result<i64, Abort> {
    let va = p.read(h, a).await?.expect_int();
    let vb = p.read(h, b).await?.expect_int();
    Ok(va + vb)
}

/// Transfer `amount` between two accounts, retrying until it commits.
pub async fn transfer<P: DtmProtocol>(
    p: &P,
    node: NodeId,
    from: ObjectId,
    to: ObjectId,
    amount: i64,
) {
    atomically(p, node, async |h| transfer_in(p, h, from, to, amount).await).await
}

/// Read-only audit of two accounts, retrying until it commits.
pub async fn audit<P: DtmProtocol>(p: &P, node: NodeId, a: ObjectId, b: ObjectId) -> i64 {
    atomically(p, node, async |h| audit_in(p, h, a, b).await).await
}

/// Run one random bank transaction at `node` until it commits: an
/// [`audit`] (`read_pct` % of the time) or a [`transfer`] of 5 between two
/// distinct accounts of `accounts`. Draws from `below(n)` (uniform in
/// `0..n`) in order: account `a`, then `b` (moved off `a`), then the mix.
pub async fn random_op<P: DtmProtocol>(
    p: &P,
    node: NodeId,
    accounts: u64,
    read_pct: u32,
    mut below: impl FnMut(u64) -> u64,
) {
    let a = below(accounts);
    let mut b = below(accounts);
    if b == a {
        b = (b + 1) % accounts;
    }
    let (a, b) = (ObjectId(a), ObjectId(b));
    if below(100) < u64::from(read_pct) {
        audit(p, node, a, b).await;
    } else {
        transfer(p, node, a, b, 5).await;
    }
}

/// Poll interval of a client waiting for its down node to recover.
const DOWN_POLL: SimDuration = SimDuration::from_millis(200);

/// Spawn the closed-loop bank mix on `proto`'s simulator: one client per
/// node running [`random_op`] back to back until `stop` is set, idle while
/// its node is down (the check draws and schedules nothing while it is up).
pub fn spawn_bank_clients<P: SimHosted + 'static>(
    proto: &Rc<P>,
    accounts: u64,
    read_pct: u32,
    stop: Rc<Cell<bool>>,
) {
    let sim = proto.sim();
    for node in (0..sim.num_nodes() as u32).map(NodeId) {
        let (p, stop) = (Rc::clone(proto), Rc::clone(&stop));
        sim.spawn(async move {
            let s = p.sim();
            while !stop.get() {
                if s.is_alive(node) {
                    random_op(&*p, node, accounts, read_pct, |n| s.rand_below(n)).await;
                } else {
                    s.sleep(DOWN_POLL).await;
                }
            }
        });
    }
}

/// Run the closed-loop bank mix on any simulator-hosted [`DtmProtocol`]
/// cluster, with [`spawn_bank_clients`] never told to stop: warm up, reset
/// counters, measure for `spec.duration`, then shut the simulation down
/// (what is left stays readable). (The closed loop spawns simulator tasks and pumps
/// virtual time, hence the [`SimHosted`] bound; the threaded backend has
/// its own closed-loop driver in `qrdtm-par`, reusing [`transfer`] and
/// [`audit`] which only need [`DtmProtocol`].)
pub fn run_bank<P: SimHosted + 'static>(proto: Rc<P>, spec: &BankSpec) -> BankRunResult {
    for i in 0..spec.accounts {
        proto.preload(ObjectId(i), ObjVal::Int(1_000));
    }
    spawn_bank_clients(&proto, spec.accounts, spec.read_pct, Rc::default());
    let sim = proto.sim().clone();
    sim.run_for(spec.warmup);
    proto.reset_protocol_stats();
    sim.reset_metrics();
    sim.run_for(spec.duration);
    let st = proto.protocol_stats();
    let r = BankRunResult {
        throughput: st.commits as f64 / spec.duration.as_secs_f64(),
        commits: st.commits,
        aborts: st.aborts,
        messages: sim.metrics().sent_total,
    };
    // The clients hold the cluster: end them, or it outlives every handle.
    sim.shutdown();
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    use qrdtm_baselines::{DecentCluster, DecentConfig, TfaCluster, TfaConfig};
    use qrdtm_core::{Cluster, DtmConfig, NestingMode, ProtocolStats, Version};
    use qrdtm_qstore::{QStoreCluster, QStoreConfig};

    /// A default QR cluster with eight accounts of 100.
    fn qr_bank(mode: NestingMode) -> Rc<Cluster> {
        let c = Rc::new(Cluster::new(DtmConfig {
            mode,
            ..Default::default()
        }));
        c.preload_all((0..8).map(|i| (ObjectId(i), ObjVal::Int(100))));
        c
    }

    fn balances(c: &Cluster, n: u64) -> Vec<i64> {
        (0..n)
            .map(|i| c.latest(ObjectId(i)).unwrap().1.expect_int())
            .collect()
    }

    #[test]
    fn a_transfer_moves_money() {
        let c = qr_bank(NestingMode::Flat);
        let p = Rc::clone(&c);
        c.sim()
            .spawn(async move { transfer(&*p, NodeId(3), ObjectId(0), ObjectId(1), 30).await });
        c.sim().run();
        assert_eq!(
            c.latest(ObjectId(0)).unwrap(),
            (Version(2), ObjVal::Int(70))
        );
        assert_eq!(
            c.latest(ObjectId(1)).unwrap(),
            (Version(2), ObjVal::Int(130))
        );
        assert_eq!(
            c.protocol_stats(),
            ProtocolStats {
                commits: 1,
                aborts: 0
            }
        );
    }

    #[test]
    fn closed_nested_transfers_conserve_money() {
        let c = qr_bank(NestingMode::Closed);
        let (p, client) = (Rc::clone(&c), c.client(NodeId(4)));
        c.sim().spawn(async move {
            let p = &*p;
            client
                .run(|tx| async move {
                    for (from, to) in [(0, 1), (2, 3), (1, 2)] {
                        let (from, to) = (ObjectId(from), ObjectId(to));
                        tx.closed(
                            |mut t| async move { transfer_in(p, &mut t, from, to, 10).await },
                        )
                        .await?;
                    }
                    Ok(())
                })
                .await;
        });
        c.sim().run();
        assert_eq!(c.stats().ct_commits, 3, "each transfer is a nested commit");
        let b = balances(&c, 8);
        assert_eq!(b[..4], [90, 100, 100, 110]);
        assert_eq!(b.iter().sum::<i64>(), 800, "money conserved");
    }

    #[test]
    fn a_closed_nesting_audit_commits_locally() {
        let c = qr_bank(NestingMode::Closed);
        let (p, sum) = (Rc::clone(&c), Rc::new(Cell::new(0)));
        let got = Rc::clone(&sum);
        c.sim().spawn(async move {
            got.set(audit(&*p, NodeId(3), ObjectId(0), ObjectId(1)).await);
        });
        c.sim().run();
        assert_eq!(sum.get(), 200);
        assert_eq!(c.stats().commit_rounds, 0, "local read-only commit");
    }

    fn quick() -> BankSpec {
        BankSpec {
            accounts: 16,
            read_pct: 50,
            warmup: SimDuration::from_millis(500),
            duration: SimDuration::from_secs(5),
        }
    }

    #[test]
    fn qr_bank_commits() {
        let r = run_bank(
            Rc::new(Cluster::new(DtmConfig {
                nodes: 10,
                seed: 3,
                ..Default::default()
            })),
            &quick(),
        );
        assert!(r.commits > 0);
        assert!(r.throughput > 0.0);
    }

    #[test]
    fn tfa_bank_commits() {
        let r = run_bank(
            Rc::new(TfaCluster::new(TfaConfig {
                nodes: 10,
                seed: 3,
                ..Default::default()
            })),
            &quick(),
        );
        assert!(r.commits > 0);
        assert!(r.throughput > 0.0);
    }

    #[test]
    fn decent_bank_commits() {
        let r = run_bank(
            Rc::new(DecentCluster::new(DecentConfig {
                nodes: 10,
                seed: 3,
                ..Default::default()
            })),
            &quick(),
        );
        assert!(r.commits > 0);
    }

    #[test]
    fn qstore_bank_commits() {
        let cfg = QStoreConfig {
            nodes: 10,
            seed: 3,
            ..Default::default()
        };
        let r = run_bank(Rc::new(QStoreCluster::new(cfg)), &quick());
        assert!(r.commits > 0);
        assert!(r.throughput > 0.0);
    }

    #[test]
    fn tfa_outpaces_decent_on_the_same_workload() {
        // The paper's Fig. 9 ordering (HyFlow > Decent-STM) should hold for
        // any reasonable window: unicast 5 ms RTTs against multicast
        // consensus at 30 ms RTTs.
        let spec = quick();
        let t = run_bank(
            Rc::new(TfaCluster::new(TfaConfig {
                nodes: 10,
                seed: 5,
                ..Default::default()
            })),
            &spec,
        );
        let d = run_bank(
            Rc::new(DecentCluster::new(DecentConfig {
                nodes: 10,
                seed: 5,
                ..Default::default()
            })),
            &spec,
        );
        assert!(
            t.throughput > d.throughput,
            "TFA {} <= Decent {}",
            t.throughput,
            d.throughput
        );
    }

    #[test]
    fn bank_runs_are_deterministic() {
        let spec = quick();
        for (a, b) in [
            (
                run_bank(Rc::new(TfaCluster::new(TfaConfig::default())), &spec),
                run_bank(Rc::new(TfaCluster::new(TfaConfig::default())), &spec),
            ),
            (
                run_bank(Rc::new(Cluster::new(DtmConfig::default())), &spec),
                run_bank(Rc::new(Cluster::new(DtmConfig::default())), &spec),
            ),
        ] {
            assert_eq!(a.commits, b.commits);
            assert_eq!(a.messages, b.messages);
        }
    }
}
