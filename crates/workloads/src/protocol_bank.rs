//! The unified Fig. 9 bank driver: one closed-loop workload, generic over
//! [`DtmProtocol`].
//!
//! Section VI-D of the paper compares QR-DTM, HyFlow (TFA) and Decent-STM
//! on the Bank benchmark. Each protocol used to carry its own hand-wired
//! driver loop; with the [`DtmProtocol`] trait there is exactly one —
//! [`run_bank`] — and thin per-protocol constructors ([`run_qr_bank`],
//! [`run_tfa_bank`], [`run_decent_bank`]) that only assemble the cluster.
//! Every client draws the same account/mix stream from the protocol's own
//! simulator RNG, so runs stay deterministic per seed.

use std::rc::Rc;

use qrdtm_baselines::{DecentCluster, DecentConfig, TfaCluster, TfaConfig};
use qrdtm_core::{atomically, Cluster, DtmConfig, DtmProtocol, ObjVal, ObjectId, SimHosted};
use qrdtm_qstore::{QStoreCluster, QStoreConfig};
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
    /// Closed-loop clients per node.
    pub clients_per_node: usize,
}

impl Default for BankSpec {
    fn default() -> Self {
        BankSpec {
            accounts: 32,
            read_pct: 50,
            warmup: SimDuration::from_secs(2),
            duration: SimDuration::from_secs(20),
            clients_per_node: 1,
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

/// Transfer `amount` between two accounts, retrying until it commits.
pub async fn transfer<P: DtmProtocol>(
    p: &P,
    node: NodeId,
    from: ObjectId,
    to: ObjectId,
    amount: i64,
) {
    atomically(p, node, async |h| {
        let a = p.read(h, from).await?.expect_int();
        let b = p.read(h, to).await?.expect_int();
        p.write(h, from, ObjVal::Int(a - amount)).await?;
        p.write(h, to, ObjVal::Int(b + amount)).await
    })
    .await
}

/// Read-only audit of two accounts, retrying until it commits.
pub async fn audit<P: DtmProtocol>(p: &P, node: NodeId, a: ObjectId, b: ObjectId) -> i64 {
    atomically(p, node, async |h| {
        let va = p.read(h, a).await?.expect_int();
        let vb = p.read(h, b).await?.expect_int();
        Ok(va + vb)
    })
    .await
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

/// Run the closed-loop bank mix on any simulator-hosted [`DtmProtocol`]
/// cluster with `nodes` nodes: warm up, reset counters, measure for
/// `spec.duration`. (The closed loop spawns simulator tasks and pumps
/// virtual time, hence the [`SimHosted`] bound; the threaded backend has
/// its own closed-loop driver in `qrdtm-par`, reusing [`transfer`] and
/// [`audit`] which only need [`DtmProtocol`].)
pub fn run_bank<P: SimHosted + 'static>(
    proto: Rc<P>,
    nodes: usize,
    spec: &BankSpec,
) -> BankRunResult {
    for i in 0..spec.accounts {
        proto.preload(ObjectId(i), ObjVal::Int(1_000));
    }
    let sim = proto.sim().clone();
    for node in 0..nodes as u32 {
        for _ in 0..spec.clients_per_node {
            let p = Rc::clone(&proto);
            let spec = *spec;
            sim.spawn(async move {
                loop {
                    random_op(&*p, NodeId(node), spec.accounts, spec.read_pct, |n| {
                        p.sim().rand_below(n)
                    })
                    .await;
                }
            });
        }
    }
    sim.run_for(spec.warmup);
    proto.reset_protocol_stats();
    sim.reset_metrics();
    sim.run_for(spec.duration);
    let st = proto.protocol_stats();
    BankRunResult {
        throughput: st.commits as f64 / spec.duration.as_secs_f64(),
        commits: st.commits,
        aborts: st.aborts,
        messages: sim.metrics().sent_total,
    }
}

/// Run the bank workload on a QR-DTM cluster (mode per `cfg`).
pub fn run_qr_bank(cfg: DtmConfig, spec: &BankSpec) -> BankRunResult {
    let nodes = cfg.nodes;
    run_bank(Rc::new(Cluster::new(cfg)), nodes, spec)
}

/// Run the bank workload on a TFA (HyFlow) cluster.
pub fn run_tfa_bank(cfg: TfaConfig, spec: &BankSpec) -> BankRunResult {
    let nodes = cfg.nodes;
    run_bank(Rc::new(TfaCluster::new(cfg)), nodes, spec)
}

/// Run the bank workload on a Decent-STM cluster.
pub fn run_decent_bank(cfg: DecentConfig, spec: &BankSpec) -> BankRunResult {
    let nodes = cfg.nodes;
    run_bank(Rc::new(DecentCluster::new(cfg)), nodes, spec)
}

/// Run the bank workload on a Q-Store cluster — the bodies in
/// [`transfer`]/[`audit`] run unchanged; only the cluster assembly
/// differs.
pub fn run_qstore_bank(cfg: QStoreConfig, spec: &BankSpec) -> BankRunResult {
    let nodes = cfg.nodes;
    run_bank(Rc::new(QStoreCluster::new(cfg)), nodes, spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> BankSpec {
        BankSpec {
            accounts: 16,
            read_pct: 50,
            warmup: SimDuration::from_millis(500),
            duration: SimDuration::from_secs(5),
            clients_per_node: 1,
        }
    }

    #[test]
    fn qr_bank_commits() {
        let r = run_qr_bank(
            DtmConfig {
                nodes: 10,
                seed: 3,
                ..Default::default()
            },
            &quick(),
        );
        assert!(r.commits > 0);
        assert!(r.throughput > 0.0);
    }

    #[test]
    fn tfa_bank_commits() {
        let r = run_tfa_bank(
            TfaConfig {
                nodes: 10,
                seed: 3,
                ..Default::default()
            },
            &quick(),
        );
        assert!(r.commits > 0);
        assert!(r.throughput > 0.0);
    }

    #[test]
    fn decent_bank_commits() {
        let r = run_decent_bank(
            DecentConfig {
                nodes: 10,
                seed: 3,
                ..Default::default()
            },
            &quick(),
        );
        assert!(r.commits > 0);
    }

    #[test]
    fn qstore_bank_commits() {
        let r = run_qstore_bank(
            QStoreConfig {
                nodes: 10,
                seed: 3,
                ..Default::default()
            },
            &quick(),
        );
        assert!(r.commits > 0);
        assert!(r.throughput > 0.0);
    }

    #[test]
    fn tfa_outpaces_decent_on_the_same_workload() {
        // The paper's Fig. 9 ordering (HyFlow > Decent-STM) should hold for
        // any reasonable window: unicast 5 ms RTTs against multicast
        // consensus at 30 ms RTTs.
        let spec = quick();
        let t = run_tfa_bank(
            TfaConfig {
                nodes: 10,
                seed: 5,
                ..Default::default()
            },
            &spec,
        );
        let d = run_decent_bank(
            DecentConfig {
                nodes: 10,
                seed: 5,
                ..Default::default()
            },
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
                run_tfa_bank(TfaConfig::default(), &spec),
                run_tfa_bank(TfaConfig::default(), &spec),
            ),
            (
                run_qr_bank(DtmConfig::default(), &spec),
                run_qr_bank(DtmConfig::default(), &spec),
            ),
        ] {
            assert_eq!(a.commits, b.commits);
            assert_eq!(a.messages, b.messages);
        }
    }
}
