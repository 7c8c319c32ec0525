//! The benchmark's vocabulary: workload names, end-to-end metrics with
//! their regression bounds, per-layer metrics — and `BENCHMARK.json`,
//! which is generated from these tables (`qrdtm-benchmark contract`) so the
//! contract file and the program cannot drift apart.

/// Seconds one run measures (`run_seconds` of the contract and the default
/// of `--seconds`). The windows in `sizes` are calibrated so that the
/// measured phases of one run add up to about this much wall time on the
/// 2-core reference host.
pub const RUN_SECONDS: u32 = 8;

/// A workload and the reason it exists.
pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
    /// Whether `BENCHMARK.json` lists it, i.e. whether the driver gates on
    /// it. `par_bank` is not listed: thread scheduling on a shared 2-core
    /// host gives its tail latency a 15-25 % run-to-run spread, at or past
    /// the largest bound the contract allows, and a gate that flaky would
    /// take the other six down with it. It runs like the others by name.
    pub gated: bool,
}

pub const WORKLOADS: [WorkloadInfo; 7] = [
    WorkloadInfo {
        name: "cn_vacation",
        why: "QR-CN closed loop on the 40-node paper testbed: nesting merge, Rqv local commits and store validation do the host work; disk off, event queue shallow",
        gated: true,
    },
    WorkloadInfo {
        name: "chk_slist",
        why: "QR-CHK closed loop, long skip-list traversals: checkpoint capture/rollback/replay and big data-set piggybacks; bypasses the nesting merge",
        gated: true,
    },
    WorkloadInfo {
        name: "qstore_hot",
        why: "durable Q-Store on 8 hot accounts, 90% writes: planner batching and group-commit fsync dominate; only workload with the disk on; bypasses the QR engine",
        gated: true,
    },
    WorkloadInfo {
        name: "fig9_bank",
        why: "read-mostly low-contention bank with the same plans on QR flat, TFA and Decent-STM: the only coverage of the baselines crate",
        gated: true,
    },
    WorkloadInfo {
        name: "open_overload",
        why: "open-loop Poisson arrivals through and past saturation: admission shedding, deadline aborts, retry budgets and RPC retry paths idle on every closed loop",
        gated: true,
    },
    WorkloadInfo {
        name: "par_bank",
        why: "two OS threads on the TL2 backend: the only wall-clock, truly concurrent path; runs no simulator code, so simulator changes must leave it flat",
        gated: false,
    },
    WorkloadInfo {
        name: "hot_ring",
        why: "4-node ping ring with 300k perpetual chains: the simulator's wheel, arena and dispatch loop do all the work and every protocol crate none",
        gated: true,
    },
];

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "commits_per_vsec",
        unit: "1/vs",
        better: "higher",
        bound: 0.12,
    },
    EndToEnd {
        name: "goodput_per_vsec",
        unit: "1/vs",
        better: "higher",
        bound: 0.12,
    },
    EndToEnd {
        name: "commit_p50_vms",
        unit: "vms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "commit_p99_vms",
        unit: "vms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "commits_per_cpu_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "events_per_cpu_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "ok_share",
        unit: "share",
        better: "higher",
        bound: 0.03,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
];

/// Per-layer metrics, `(name, unit, better)`. Layer = crate/module name. A
/// value is 0 on a workload that bypasses the layer. `better` is the
/// direction that helps the end-to-end metric the layer feeds: rates and
/// shares of useful outcomes up; costs, waste and work per commit down.
pub const PER_LAYER: [(&str, &str, &str); 85] = [
    ("sim.events_per_cpu_s", "1/s", "higher"),
    ("sim.events_per_commit", "count", "lower"),
    ("sim.wheel.push_pop_ns", "ns", "lower"),
    ("sim.wheel.overflow_promotions_per_mev", "count", "lower"),
    ("sim.wheel.bucket_sorts_per_mev", "count", "lower"),
    ("sim.arena.high_water", "count", "lower"),
    ("sim.mailbox.load_cv", "ratio", "lower"),
    ("sim.mailbox.max_node_share", "share", "lower"),
    ("sim.disk.append_fsync_ns", "ns", "lower"),
    ("sim.disk.fsync_p50_vus", "vus", "lower"),
    ("sim.disk.fsync_p99_vus", "vus", "lower"),
    ("quorum.read_quorum_ns", "ns", "lower"),
    ("quorum.write_quorum_ns", "ns", "lower"),
    ("quorum.read_quorum_size", "count", "lower"),
    ("quorum.write_quorum_size", "count", "lower"),
    ("core.transport.msgs_per_commit", "count", "lower"),
    ("core.transport.bytes_per_commit", "B", "lower"),
    ("core.transport.quorum_rounds_per_commit", "count", "lower"),
    ("core.transport.rpc_retries_per_commit", "count", "lower"),
    ("core.transport.timeouts_per_commit", "count", "lower"),
    ("core.engine.read_rounds_per_commit", "count", "lower"),
    ("core.engine.commit_rounds_per_commit", "count", "lower"),
    ("core.engine.local_hit_ratio", "share", "higher"),
    ("core.engine.local_commit_share", "share", "higher"),
    ("core.engine.aborts_per_commit", "count", "lower"),
    ("core.engine.lock_waits_per_commit", "count", "lower"),
    ("core.nesting.ct_commits_per_commit", "count", "lower"),
    ("core.nesting.ct_abort_share", "share", "higher"),
    ("core.chk.checkpoints_per_commit", "count", "lower"),
    ("core.chk.rollbacks_per_commit", "count", "lower"),
    ("core.chk.replayed_ops_per_rollback", "count", "lower"),
    ("core.store.validate_ns_8", "ns", "lower"),
    ("core.store.validate_ns_64", "ns", "lower"),
    ("core.store.read_ns", "ns", "lower"),
    ("core.store.vote_apply_ns", "ns", "lower"),
    ("core.history.verify_records_per_s", "1/s", "higher"),
    (
        "core.overload.deadline_aborts_per_offered",
        "share",
        "lower",
    ),
    ("core.overload.retry_budget_exhausted", "count", "lower"),
    ("core.overload.hedges_suppressed", "count", "lower"),
    ("open_loop.slo_rate_per_vsec", "1/vs", "higher"),
    ("open_loop.goodput_share_at_40", "share", "higher"),
    ("open_loop.goodput_share_at_60", "share", "higher"),
    ("open_loop.goodput_share_at_80", "share", "higher"),
    ("open_loop.goodput_share_at_100", "share", "higher"),
    ("open_loop.goodput_share_at_120", "share", "higher"),
    ("open_loop.goodput_share_at_160", "share", "higher"),
    ("open_loop.goodput_share_at_200", "share", "higher"),
    ("open_loop.shed_share", "share", "lower"),
    ("open_loop.late_share", "share", "lower"),
    ("open_loop.abandoned_share", "share", "lower"),
    ("open_loop.max_queue_depth", "count", "lower"),
    ("open_loop.offered_vs_target", "ratio", "higher"),
    ("open_loop.flash_goodput_share", "share", "higher"),
    ("qstore.batch_occupancy", "share", "higher"),
    ("qstore.fsyncs_per_commit", "count", "lower"),
    ("qstore.epoch_p50_vms", "vms", "lower"),
    ("qstore.epoch_p99_vms", "vms", "lower"),
    ("qstore.aborts_per_commit", "count", "lower"),
    ("core.qr.commits_per_vsec", "1/vs", "higher"),
    ("core.qr.msgs_per_commit", "count", "lower"),
    ("core.qr.commits_per_cpu_s", "1/s", "higher"),
    ("baselines.tfa.commits_per_vsec", "1/vs", "higher"),
    ("baselines.tfa.msgs_per_commit", "count", "lower"),
    ("baselines.tfa.commits_per_cpu_s", "1/s", "higher"),
    ("baselines.decent.commits_per_vsec", "1/vs", "higher"),
    ("baselines.decent.msgs_per_commit", "count", "lower"),
    ("baselines.decent.commits_per_cpu_s", "1/s", "higher"),
    ("par.x1_commits_per_wall_s", "1/s", "higher"),
    ("par.speedup_x2", "ratio", "higher"),
    ("par.aborts_per_commit", "count", "lower"),
    ("par.commit_p50_ns", "ns", "lower"),
    ("par.commit_p99_ns", "ns", "lower"),
    ("par.audit_records_per_s", "1/s", "higher"),
    ("par.txn_uncontended_ns", "ns", "lower"),
    ("bench.phase.ct_vms_p50", "vms", "lower"),
    ("bench.phase.attempts_per_commit", "count", "lower"),
    ("bench.phase.commit_tail_vms_p50", "vms", "lower"),
    ("bench.phase.read_vms_p50", "vms", "lower"),
    ("bench.phase.commit_vms_p50", "vms", "lower"),
    ("bench.phase.restart_vms_p50", "vms", "lower"),
    ("bench.slice_wall_growth", "ratio", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
    ("bench.host_speed", "ratio", "higher"),
    ("bench.failed_share", "share", "lower"),
    ("bench.starved_clients", "count", "lower"),
];

/// The text of `BENCHMARK.json`.
pub fn contract() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let gated: Vec<_> = WORKLOADS.iter().filter(|w| w.gated).collect();
    for (i, w) in gated.iter().enumerate() {
        let sep = if i + 1 == gated.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name, m.unit, m.better, m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{sep}\n"
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.0));
        for n in names {
            assert!(seen.insert(n), "{n} used twice");
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains(['"', '\n']),
                "{}",
                w.name
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"
            && m.unit == "s"
            && m.better == "lower"
            && m.bound == 0.25));
    }

    #[test]
    fn committed_contract_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            contract(),
            "regenerate with `qrdtm-benchmark contract > BENCHMARK.json`"
        );
    }
}
