//! Experiment driver: run a benchmark on a cluster configuration and
//! measure what the paper measures — throughput (committed root
//! transactions per second), abort counts, and messages exchanged.
//!
//! A run has three phases, all in virtual time:
//! 1. **Setup** — populate the data structure (single writer, no
//!    contention).
//! 2. **Warm-up** — clients run closed-loop on every (alive) node; counters
//!    are then zeroed.
//! 3. **Measurement** — a fixed virtual-time window; throughput is
//!    `commits / window`.
//!
//! Every benchmark's clients are one closed-loop client, `run_client`: a
//! benchmark supplies only its *draw* (one root transaction's calls, taken
//! from the simulator's RNG in the benchmark's own order) and its *call*
//! (one call, run inside the root).
//!
//! Everything is parameterized the way the paper's sweeps are: read
//! percentage (Fig. 5), number of nested calls per root transaction
//! (Fig. 6), and number of objects (Fig. 7); plus a failure count for the
//! Fig. 10 experiment. Mid-run fault schedules and detector-driven
//! membership are the chaos harness's business (`qrdtm-chaos`), not this
//! driver's.

use std::rc::Rc;

use qrdtm_core::{
    crash, Abort, Cluster, DtmConfig, DtmStats, Membership, Msg, ObjVal, ObjectId, Tx,
};
use qrdtm_sim::{mix, NodeId, Sim, SimDuration};

use crate::bst;
use crate::hashmap::{self, HashmapLayout};
use crate::protocol_bank::{audit_in, transfer_in};
use crate::rbtree::{self, TreeLayout};
use crate::skiplist::{self, SkiplistLayout};
use crate::vacation::{self, VacationLayout};

/// The paper's benchmarks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Benchmark {
    /// Monetary transfers/audits over account objects.
    Bank,
    /// Fixed-bucket hash map under churn.
    Hashmap,
    /// Skip list (the paper's SList).
    SList,
    /// Red-black tree.
    RBTree,
    /// Plain binary search tree (Fig. 10).
    Bst,
    /// STAMP Vacation reservations.
    Vacation,
}

impl Benchmark {
    /// The five benchmarks of Figs. 5-7 and Table 8, in the paper's order.
    pub const FIGURE_SET: [Benchmark; 5] = [
        Benchmark::Bank,
        Benchmark::Hashmap,
        Benchmark::SList,
        Benchmark::RBTree,
        Benchmark::Vacation,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Bank => "Bank",
            Benchmark::Hashmap => "Hashmap",
            Benchmark::SList => "SList",
            Benchmark::RBTree => "RBTree",
            Benchmark::Bst => "BST",
            Benchmark::Vacation => "Vacation",
        }
    }
}

/// Workload shape parameters (the three sweep axes of Figs. 5-7).
#[derive(Clone, Copy, Debug)]
pub struct WorkloadParams {
    /// Percentage of read-only operations (0-100).
    pub read_pct: u32,
    /// Closed-nested calls per root transaction (transaction length).
    pub calls: usize,
    /// Number of objects (accounts / key space / rows), the contention
    /// knob.
    pub objects: u64,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams {
            read_pct: 50,
            calls: 3,
            objects: 32,
        }
    }
}

/// One experiment run specification.
#[derive(Clone, Copy, Debug)]
pub struct RunSpec {
    /// Which benchmark to drive.
    pub bench: Benchmark,
    /// Workload shape.
    pub params: WorkloadParams,
    /// Warm-up window (excluded from measurement).
    pub warmup: SimDuration,
    /// Measurement window.
    pub duration: SimDuration,
    /// Closed-loop client tasks per alive node.
    pub clients_per_node: usize,
    /// Nodes to fail before the run, Fig. 10 style: each failure removes
    /// the first alive member of the current read quorum, growing it.
    pub failures: usize,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            bench: Benchmark::Bank,
            params: WorkloadParams::default(),
            warmup: SimDuration::from_secs(2),
            duration: SimDuration::from_secs(20),
            clients_per_node: 1,
            failures: 0,
        }
    }
}

/// Measured outcome of one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Committed root transactions per virtual second.
    pub throughput: f64,
    /// Committed root transactions in the window.
    pub commits: u64,
    /// Transaction-level counters.
    pub stats: DtmStats,
    /// Total messages sent during the window.
    pub messages: u64,
    /// Read-request messages (class 0).
    pub read_msgs: u64,
    /// Commit-protocol messages (classes 2, 4, 5).
    pub commit_msgs: u64,
}

/// Execute one experiment run. Deterministic for a given `(cfg, spec)`.
/// The simulation is shut down before the result is returned.
pub fn run(cfg: DtmConfig, spec: &RunSpec) -> RunResult {
    let cluster = Rc::new(Cluster::new(cfg));
    let sim = cluster.sim().clone();
    let nodes = sim.num_nodes();

    // --- Phase 1: setup -------------------------------------------------
    setup_bench(&cluster, spec);
    sim.run(); // drain the population phase

    // Fig. 10-style failures: shrink the alive set, growing the read quorum.
    for _ in 0..spec.failures {
        let victim = cluster
            .read_quorum_victim()
            .expect("read quorum has a member");
        assert!(
            crash(&*cluster, &sim, victim),
            "quorum survives the configured failures"
        );
    }

    // --- Phase 2+3: drive clients ---------------------------------------
    for node in 0..nodes as u32 {
        let node = NodeId(node);
        if !sim.is_alive(node) {
            continue;
        }
        for _ in 0..spec.clients_per_node {
            spawn_client(&cluster, node, spec);
        }
    }
    sim.run_for(spec.warmup);
    cluster.reset_stats();
    sim.reset_metrics();
    sim.run_for(spec.duration);

    let stats = cluster.stats();
    let m = sim.metrics();
    // Bank clients hold the cluster: end them, or it outlives this call.
    sim.shutdown();
    RunResult {
        throughput: stats.commits as f64 / spec.duration.as_secs_f64(),
        commits: stats.commits,
        messages: m.sent_total,
        read_msgs: m.sent(qrdtm_core::msg::class::READ_REQ),
        commit_msgs: m.sent(qrdtm_core::msg::class::COMMIT_REQ)
            + m.sent(qrdtm_core::msg::class::APPLY)
            + m.sent(qrdtm_core::msg::class::ABORT_REQ),
        stats,
    }
}

/// Layout bases keep every benchmark's objects in disjoint id ranges even
/// if several coexist in one cluster.
const BASE: u64 = 0;

fn bank_accounts(p: &WorkloadParams) -> u64 {
    p.objects.max(2)
}

fn map_layout(_p: &WorkloadParams) -> HashmapLayout {
    HashmapLayout {
        base: BASE,
        buckets: 16,
    }
}

fn slist_layout(p: &WorkloadParams) -> SkiplistLayout {
    SkiplistLayout::new(BASE, p.objects.max(4) as i64)
}

fn tree_layout(p: &WorkloadParams) -> TreeLayout {
    TreeLayout {
        base: BASE,
        key_space: p.objects.max(4) as i64,
    }
}

fn vacation_layout(p: &WorkloadParams) -> VacationLayout {
    VacationLayout {
        base: BASE,
        rows: p.objects.max(4),
        customers: p.objects.max(4),
        // Large capacity: contention comes from row conflicts, not
        // exhaustion, within a measurement window.
        capacity: 1 << 40,
    }
}

fn setup_bench(cluster: &Cluster, spec: &RunSpec) {
    let p = spec.params;
    match spec.bench {
        Benchmark::Bank => cluster
            .preload_all((0..bank_accounts(&p)).map(|i| (ObjectId(BASE + i), ObjVal::Int(1_000)))),
        Benchmark::Hashmap => {
            let map = map_layout(&p);
            cluster.preload_all(map.setup());
            // Pre-populate half the key space directly (bucket contents are
            // a pure function of the keys).
            let mut buckets: Vec<Vec<i64>> = vec![Vec::new(); map.buckets as usize];
            for k in (0..p.objects.max(2) as i64).step_by(2) {
                let b = (map.bucket(k).0 - map.base) as usize;
                buckets[b].push(k);
            }
            for (b, mut keys) in buckets.into_iter().enumerate() {
                keys.sort_unstable();
                cluster.preload(ObjectId(map.base + b as u64), ObjVal::IntList(keys.into()));
            }
        }
        Benchmark::SList => {
            let sl = slist_layout(&p);
            cluster.preload_all(sl.setup());
            populate(cluster, sl, (0..sl.key_space).step_by(2));
        }
        Benchmark::RBTree => {
            let t = tree_layout(&p);
            cluster.preload_all(t.setup());
            populate(cluster, t, (0..t.key_space).step_by(2));
        }
        Benchmark::Bst => {
            let t = tree_layout(&p);
            cluster.preload_all(t.setup());
            // Shuffled-ish order keeps the unbalanced tree shallow.
            let n = t.key_space;
            populate(
                cluster,
                Bst(t),
                (0..n).map(move |step| (mix(step as u64) % n as u64) as i64),
            );
        }
        Benchmark::Vacation => cluster.preload_all(vacation_layout(&p).setup()),
    }
}

/// Spawn one closed-loop client of `spec.bench` on `node`: the benchmark's
/// draw, in its own RNG order, and its call, run by [`run_client`].
fn spawn_client(cluster: &Rc<Cluster>, node: NodeId, spec: &RunSpec) {
    let (p, calls) = (spec.params, spec.params.calls.max(1));
    let reads = move |sim: &Sim<Msg>| sim.rand_below(100) < u64::from(p.read_pct);
    // The keyed sets' draw: per call a key, then an operation.
    let ops = move |keys: u64| {
        move |sim: &Sim<Msg>| {
            (0..calls)
                .map(|_| {
                    let key = sim.rand_below(keys) as i64;
                    let op = if reads(sim) {
                        Op::Read
                    } else if sim.rand_below(2) == 0 {
                        Op::Insert
                    } else {
                        Op::Remove
                    };
                    (key, op)
                })
                .collect()
        }
    };
    match spec.bench {
        Benchmark::Bank => {
            let accounts = bank_accounts(&p);
            let bank = Rc::clone(cluster);
            let draw = move |sim: &Sim<Msg>| {
                let read = reads(sim);
                (0..calls)
                    .map(|_| {
                        let a = sim.rand_below(accounts);
                        let mut b = sim.rand_below(accounts);
                        if b == a {
                            b = (b + 1) % accounts;
                        }
                        (read, ObjectId(BASE + a), ObjectId(BASE + b))
                    })
                    .collect()
            };
            run_client(cluster, node, draw, async move |tx: &Tx, (read, a, b)| {
                let bank = &*bank;
                tx.closed(|mut t| async move {
                    if read {
                        audit_in(bank, &mut t, a, b).await.map(drop)
                    } else {
                        transfer_in(bank, &mut t, a, b, 5).await
                    }
                })
                .await
            });
        }
        Benchmark::Hashmap => {
            let m = map_layout(&p);
            run_client(cluster, node, ops(p.objects.max(2)), set_call(m));
        }
        Benchmark::SList => {
            let sl = slist_layout(&p);
            run_client(cluster, node, ops(sl.key_space as u64), set_call(sl));
        }
        Benchmark::RBTree => {
            let t = tree_layout(&p);
            run_client(cluster, node, ops(t.key_space as u64), set_call(t));
        }
        Benchmark::Bst => {
            let t = tree_layout(&p);
            run_client(cluster, node, ops(t.key_space as u64), set_call(Bst(t)));
        }
        Benchmark::Vacation => {
            let v = vacation_layout(&p);
            let draw = move |sim: &Sim<Msg>| {
                let (read, customer) = (reads(sim), sim.rand_below(v.customers));
                (0..calls)
                    .map(|_| {
                        (
                            read,
                            customer,
                            std::array::from_fn(|_| sim.rand_below(v.rows)),
                        )
                    })
                    .collect()
            };
            run_client(
                cluster,
                node,
                draw,
                async move |tx: &Tx, (read, customer, picks)| {
                    if read {
                        vacation::query(tx, &v, picks).await.map(drop)
                    } else {
                        vacation::make_reservation(tx, &v, customer, picks)
                            .await
                            .map(drop)
                    }
                },
            );
        }
    }
}

/// The one closed-loop client: `draw` a root transaction's calls from the
/// simulator's RNG, run each through `call` inside one root transaction
/// (retried until it commits), repeat.
fn run_client<C: Copy + 'static, R>(
    cluster: &Cluster,
    node: NodeId,
    draw: impl Fn(&Sim<Msg>) -> Vec<C> + 'static,
    call: impl AsyncFn(&Tx, C) -> Result<R, Abort> + 'static,
) {
    let sim = cluster.sim().clone();
    let client = cluster.client(node);
    sim.clone().spawn(async move {
        loop {
            let (calls, call) = (&draw(&sim), &call);
            client
                .run(|tx| async move {
                    for &c in calls {
                        call(&tx, c).await?;
                    }
                    Ok(())
                })
                .await;
        }
    });
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Read,
    Insert,
    Remove,
}

/// A keyed set under churn — what the Hashmap, SList, RBTree and BST
/// benchmarks share, so one client call and one populate loop drive all
/// four layouts.
#[allow(async_fn_in_trait)]
trait KeyedSet: Copy + 'static {
    /// `op` on `key`: whether the key was present (`Read`), newly added
    /// (`Insert`) or removed (`Remove`).
    async fn call(&self, tx: &Tx, key: i64, op: Op) -> Result<bool, Abort>;
}

impl KeyedSet for HashmapLayout {
    async fn call(&self, tx: &Tx, key: i64, op: Op) -> Result<bool, Abort> {
        match op {
            Op::Read => hashmap::get(tx, self, key).await,
            Op::Insert => hashmap::put(tx, self, key).await,
            Op::Remove => hashmap::remove(tx, self, key).await,
        }
    }
}

impl KeyedSet for SkiplistLayout {
    async fn call(&self, tx: &Tx, key: i64, op: Op) -> Result<bool, Abort> {
        match op {
            Op::Read => skiplist::contains(tx, self, key).await,
            Op::Insert => skiplist::insert(tx, self, key, key).await,
            Op::Remove => skiplist::remove(tx, self, key).await,
        }
    }
}

impl KeyedSet for TreeLayout {
    async fn call(&self, tx: &Tx, key: i64, op: Op) -> Result<bool, Abort> {
        match op {
            Op::Read => rbtree::contains(tx, self, key).await,
            Op::Insert => rbtree::insert(tx, self, key, key).await,
            Op::Remove => rbtree::remove(tx, self, key).await,
        }
    }
}

/// The BST benchmark: the red-black tree with BST's insert.
#[derive(Clone, Copy)]
struct Bst(TreeLayout);

impl KeyedSet for Bst {
    async fn call(&self, tx: &Tx, key: i64, op: Op) -> Result<bool, Abort> {
        match op {
            Op::Read => rbtree::contains(tx, &self.0, key).await,
            Op::Insert => bst::insert(tx, &self.0, key, key).await,
            Op::Remove => rbtree::remove(tx, &self.0, key).await,
        }
    }
}

/// A keyed set's client call: `op` on `key` in a closed-nested scope.
fn set_call<S: KeyedSet>(set: S) -> impl AsyncFn(&Tx, (i64, Op)) -> Result<bool, Abort> {
    async move |tx: &Tx, (key, op)| {
        tx.closed(move |tx2| async move { set.call(&tx2, key, op).await })
            .await
    }
}

/// Setup: insert `keys` into `set`, one root transaction each, from a
/// single writer on node 0.
fn populate<S: KeyedSet>(cluster: &Cluster, set: S, keys: impl Iterator<Item = i64> + 'static) {
    let client = cluster.client(NodeId(0));
    cluster.sim().spawn(async move {
        for k in keys {
            client
                .run(|tx| async move { set.call(&tx, k, Op::Insert).await })
                .await;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrdtm_core::{LatencySpec, NestingMode};

    fn quick_spec(bench: Benchmark) -> RunSpec {
        RunSpec {
            bench,
            params: WorkloadParams {
                read_pct: 50,
                calls: 2,
                objects: 16,
            },
            warmup: SimDuration::from_millis(500),
            duration: SimDuration::from_secs(3),
            clients_per_node: 1,
            failures: 0,
        }
    }

    fn quick_cfg(mode: NestingMode) -> DtmConfig {
        DtmConfig {
            nodes: 13,
            mode,
            seed: 11,
            latency: LatencySpec::Jittered(SimDuration::from_millis(15), 0.1),
            ..Default::default()
        }
    }

    #[test]
    fn every_benchmark_commits_under_every_mode() {
        for bench in [
            Benchmark::Bank,
            Benchmark::Hashmap,
            Benchmark::SList,
            Benchmark::RBTree,
            Benchmark::Bst,
            Benchmark::Vacation,
        ] {
            for mode in NestingMode::ALL {
                let r = run(quick_cfg(mode), &quick_spec(bench));
                assert!(
                    r.commits > 0,
                    "{} under {mode} committed nothing: {:?}",
                    bench.name(),
                    r.stats
                );
                assert!(r.throughput > 0.0);
                assert!(r.messages > 0);
            }
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(
            quick_cfg(NestingMode::Closed),
            &quick_spec(Benchmark::Hashmap),
        );
        let b = run(
            quick_cfg(NestingMode::Closed),
            &quick_spec(Benchmark::Hashmap),
        );
        assert_eq!(a.commits, b.commits);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn failures_grow_the_read_quorum_and_keep_committing() {
        let mut spec = quick_spec(Benchmark::Bst);
        spec.failures = 3;
        let mut cfg = quick_cfg(NestingMode::Closed);
        cfg.nodes = 28;
        cfg.read_level = 0;
        let r = run(cfg, &spec);
        assert!(r.commits > 0, "cluster survives 3 failures: {:?}", r.stats);
    }
}
