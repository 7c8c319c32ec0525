//! Layer values read from the program's public counters after a run.
//!
//! Everything here is measured from outside: `Sim::metrics()`,
//! `Cluster::stats()` and friends are snapshotted at the window edges and
//! turned into per-commit ratios. Nothing inside the program is touched.

use qrdtm_core::{Cluster, DtmStats};
use qrdtm_sim::{Metrics, WheelStats};

use crate::harness::Layers;
use crate::stats::ratio;

/// `sim.*` values of one measured window. `q0` is the wheel-counter
/// snapshot at the window start (they are lifetime counters, so the window
/// is the difference).
pub fn sim(layers: &mut Layers, m: &Metrics, q0: &WheelStats, commits: u64) {
    let events = m.events as f64;
    let mev = events / 1e6;
    layers.insert("sim.events_per_commit", ratio(events, commits as f64));
    layers.insert(
        "sim.wheel.overflow_promotions_per_mev",
        ratio((m.queue.promotions - q0.promotions) as f64, mev),
    );
    layers.insert(
        "sim.wheel.bucket_sorts_per_mev",
        ratio((m.queue.bucket_sorts - q0.bucket_sorts) as f64, mev),
    );
    layers.insert("sim.arena.high_water", m.queue.arena.high_water as f64);
    let all: Vec<usize> = (0..m.processed_by_node.len()).collect();
    layers.insert("sim.mailbox.load_cv", m.load_cv(&all));
    let total: u64 = m.processed_by_node.iter().sum();
    let max = m.processed_by_node.iter().copied().max().unwrap_or(0);
    layers.insert(
        "sim.mailbox.max_node_share",
        ratio(max as f64, total as f64),
    );
}

/// `core.transport.*` values every simulator-hosted family has: what went
/// over the wire per commit.
pub fn transport(layers: &mut Layers, m: &Metrics, commits: u64) {
    let c = commits as f64;
    layers.insert(
        "core.transport.msgs_per_commit",
        ratio(m.sent_total as f64, c),
    );
    layers.insert(
        "core.transport.bytes_per_commit",
        ratio(m.bytes_total as f64, c),
    );
    layers.insert(
        "core.transport.rpc_retries_per_commit",
        ratio(m.rpc_retries as f64, c),
    );
}

/// The QR engine's own counters: quorum rounds, local hits, aborts by
/// kind, nesting and checkpoint work.
pub fn engine(layers: &mut Layers, s: &DtmStats) {
    let c = s.commits as f64;
    layers.insert(
        "core.transport.quorum_rounds_per_commit",
        ratio((s.read_rounds + s.commit_rounds) as f64, c),
    );
    layers.insert(
        "core.transport.timeouts_per_commit",
        ratio(s.timeouts as f64, c),
    );
    layers.insert(
        "core.engine.read_rounds_per_commit",
        ratio(s.read_rounds as f64, c),
    );
    layers.insert(
        "core.engine.commit_rounds_per_commit",
        ratio(s.commit_rounds as f64, c),
    );
    layers.insert(
        "core.engine.local_hit_ratio",
        ratio(s.local_hits as f64, (s.local_hits + s.read_rounds) as f64),
    );
    layers.insert(
        "core.engine.local_commit_share",
        ratio(s.local_commits as f64, c),
    );
    layers.insert(
        "core.engine.aborts_per_commit",
        ratio(s.total_aborts() as f64, c),
    );
    layers.insert(
        "core.engine.lock_waits_per_commit",
        ratio(s.lock_waits as f64, c),
    );
    layers.insert(
        "core.nesting.ct_commits_per_commit",
        ratio(s.ct_commits as f64, c),
    );
    layers.insert(
        "core.nesting.ct_abort_share",
        ratio(s.ct_aborts as f64, s.total_aborts() as f64),
    );
    layers.insert(
        "core.chk.checkpoints_per_commit",
        ratio(s.checkpoints as f64, c),
    );
    layers.insert(
        "core.chk.rollbacks_per_commit",
        ratio(s.chk_rollbacks as f64, c),
    );
    layers.insert(
        "core.chk.replayed_ops_per_rollback",
        ratio(s.replayed_ops as f64, s.chk_rollbacks as f64),
    );
}

/// The read and write quorums the cluster's clients are using.
pub fn quorum_sizes(layers: &mut Layers, cluster: &Cluster) {
    layers.insert(
        "quorum.read_quorum_size",
        cluster.read_quorum().len() as f64,
    );
    layers.insert(
        "quorum.write_quorum_size",
        cluster.write_quorum().len() as f64,
    );
}
