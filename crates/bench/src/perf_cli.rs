//! `repro perf` — the wall-clock performance baseline.
//!
//! Every other `repro` subcommand reports *virtual*-time results from the
//! deterministic simulator; this one also runs the real multi-threaded
//! TL2 backend (`qrdtm-par`) and measures wall-clock throughput, sampled
//! latency percentiles and peak RSS, then writes the whole baseline as a
//! `BENCH_*.json` artifact:
//!
//! ```text
//! repro perf [--quick] [--out FILE]     (default FILE: BENCH_baseline.json)
//! ```
//!
//! Four legs:
//!
//! * **sim** — the QR-CN cluster on the simulator: virtual txn/s (the
//!   paper's metric), plus how fast the simulator itself executes (wall
//!   events/s) and the virtual commit-latency percentiles from the
//!   sampled reservoir.
//! * **write-heavy grid** — QR vs Q-Store head to head on a write-heavy,
//!   high-contention bank (few hot accounts, 10% reads): the workload
//!   speculative batching is built for. The Q-Store leg runs durable
//!   (batch WAL on the simulated disk); it reports per-protocol virtual
//!   txn/s plus Q-Store's batch size, realized batch occupancy, group
//!   commit fsync totals, epoch (seal→quorum-ack) latency percentiles
//!   and the real per-fsync virtual latencies paid to the disk model.
//! * **par ×1 / par ×N** — the TL2 backend at 1 thread and at
//!   `PAR_THREADS` threads: wall txn/s, abort rate, wall latency
//!   percentiles, and a full serializability audit of the recorded
//!   history (the run fails if any violation is found).
//! * **overload grid** — the open-loop traffic generator sweeps offered
//!   load from well under to well past the saturation knee on a QR-CN
//!   cluster with the overload protections armed, plus one flash-crowd
//!   surge point. Each point reports offered load vs goodput
//!   (within-deadline commits), shed arrivals, deadline aborts,
//!   retry-budget exhaustion and commit-latency percentiles; the run
//!   fails if goodput at twice the knee has collapsed below 1/1.5 of the
//!   peak — the graceful-degradation gate.
//!
//! The emitted JSON is validated by the built-in parser before the
//! process exits (exit 1 on malformed output), so CI can gate on it.
//! `--out` creates missing parent directories instead of failing.

use std::path::{Path, PathBuf};
use std::rc::Rc;

use qrdtm_core::{Cluster, DtmConfig, DurabilityConfig, LatencySpec, NestingMode, OverloadConfig};
use qrdtm_par::{run_par_bank, ParBankResult, ParBankSpec};
use qrdtm_qstore::{QStoreCluster, QStoreConfig};
use qrdtm_sim::SimDuration;
use qrdtm_workloads::{run_bank, run_open_loop, BankSpec, OpenLoopSpec, RateSchedule};

/// Threads for the scaled par leg.
const PAR_THREADS: usize = 8;

fn usage() -> i32 {
    eprintln!("usage: repro perf [--quick] [--out FILE]");
    2
}

/// Entry point for `repro perf`. Returns the process exit code.
pub fn run(mut args: impl Iterator<Item = String>) -> i32 {
    let mut quick = false;
    let mut out = PathBuf::from("BENCH_baseline.json");
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => match args.next() {
                Some(f) => out = PathBuf::from(f),
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    let sim = sim_leg(quick);
    let grid = write_heavy_grid(quick);
    let par1 = par_leg(quick, 1);
    let parn = par_leg(quick, PAR_THREADS);
    if par1.violations + parn.violations > 0 {
        eprintln!(
            "FAIL: serializability violations in par history (x1: {}, x{PAR_THREADS}: {})",
            par1.violations, parn.violations
        );
        return 1;
    }
    let overload = overload_grid(quick);
    if let Err(msg) = overload.degradation_check() {
        eprintln!("FAIL: {msg}");
        return 1;
    }

    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let speedup = parn.throughput / par1.throughput.max(1e-9);
    let json = render_json(
        quick,
        cores,
        &sim,
        &grid,
        &overload,
        &[&par1, &parn],
        speedup,
    );
    if let Err(e) = validate_json(&json) {
        eprintln!("FAIL: generated benchmark JSON is malformed: {e}");
        return 1;
    }
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("FAIL: cannot create {}: {e}", dir.display());
            return 1;
        }
    }
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("FAIL: cannot write {}: {e}", out.display());
        return 1;
    }

    print_summary(
        cores,
        &sim,
        &grid,
        &overload,
        &[&par1, &parn],
        speedup,
        &out,
    );
    0
}

/// Measured outcome of the simulator leg.
struct SimLeg {
    protocol: &'static str,
    virtual_tps: f64,
    commits: u64,
    aborts: u64,
    wall_secs: f64,
    events_per_sec: f64,
    p50_ns: Option<u64>,
    p99_ns: Option<u64>,
    p999_ns: Option<u64>,
}

fn sim_leg(quick: bool) -> SimLeg {
    let cfg = DtmConfig {
        nodes: 10,
        mode: NestingMode::Closed,
        seed: 42,
        latency: LatencySpec::Jittered(SimDuration::from_millis(15), 0.1),
        ..Default::default()
    };
    let spec = BankSpec {
        accounts: 32,
        read_pct: 50,
        warmup: SimDuration::from_millis(500),
        duration: if quick {
            SimDuration::from_secs(2)
        } else {
            SimDuration::from_secs(20)
        },
        clients_per_node: 1,
    };
    let nodes = cfg.nodes;
    let proto = Rc::new(Cluster::new(cfg));
    let t0 = std::time::Instant::now();
    let r = run_bank(Rc::clone(&proto), nodes, &spec);
    let wall = t0.elapsed().as_secs_f64();
    let m = proto.sim().metrics();
    SimLeg {
        protocol: "QR-CN",
        virtual_tps: r.throughput,
        commits: r.commits,
        aborts: r.aborts,
        wall_secs: wall,
        events_per_sec: m.events as f64 / wall.max(1e-9),
        p50_ns: m.latency.percentile(50.0),
        p99_ns: m.latency.percentile(99.0),
        p999_ns: m.latency.percentile(99.9),
    }
}

/// Workload shape of the write-heavy high-contention grid.
const GRID_ACCOUNTS: u64 = 8;
const GRID_READ_PCT: u32 = 10;
const GRID_CLIENTS_PER_NODE: usize = 2;

/// One protocol's measurement on the write-heavy grid.
struct GridLeg {
    protocol: &'static str,
    virtual_tps: f64,
    commits: u64,
    aborts: u64,
    wall_secs: f64,
}

/// Q-Store's batching telemetry from the grid run.
struct BatchTelemetry {
    batch_size: usize,
    batches: u64,
    batch_txns: u64,
    wal_fsyncs: u64,
    epoch_p50_ns: Option<u64>,
    epoch_p99_ns: Option<u64>,
    /// Per-fsync virtual latency percentiles from the simulated disks —
    /// the group-commit cost actually paid, not the modelled constant.
    fsync_p50_ns: Option<u64>,
    fsync_p99_ns: Option<u64>,
}

/// Both write-heavy grid legs: QR (flat) and Q-Store on the same bank
/// shape, network, and seed.
struct WriteHeavyGrid {
    qr: GridLeg,
    qstore: GridLeg,
    batching: BatchTelemetry,
}

fn grid_spec(quick: bool) -> BankSpec {
    BankSpec {
        accounts: GRID_ACCOUNTS,
        read_pct: GRID_READ_PCT,
        warmup: SimDuration::from_millis(500),
        duration: if quick {
            SimDuration::from_secs(2)
        } else {
            SimDuration::from_secs(10)
        },
        clients_per_node: GRID_CLIENTS_PER_NODE,
    }
}

fn percentile_ns(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = ((sorted.len() - 1) as f64 * q / 100.0).round() as usize;
    sorted.get(idx).copied()
}

/// Run the write-heavy high-contention grid: the sixth protocol's home
/// turf. Same 10-node jittered network and seed for both protocols.
fn write_heavy_grid(quick: bool) -> WriteHeavyGrid {
    let spec = grid_spec(quick);

    let qr_cfg = DtmConfig {
        nodes: 10,
        mode: NestingMode::Flat,
        seed: 42,
        latency: LatencySpec::Jittered(SimDuration::from_millis(15), 0.1),
        ..Default::default()
    };
    let nodes = qr_cfg.nodes;
    let qr_cluster = Rc::new(Cluster::new(qr_cfg));
    let t0 = std::time::Instant::now();
    let qr_run = run_bank(Rc::clone(&qr_cluster), nodes, &spec);
    let qr = GridLeg {
        protocol: "QR",
        virtual_tps: qr_run.throughput,
        commits: qr_run.commits,
        aborts: qr_run.aborts,
        wall_secs: t0.elapsed().as_secs_f64(),
    };

    let qs_cfg = QStoreConfig {
        nodes: 10,
        seed: 42,
        // The grid leg runs durable: every epoch pays a real append+fsync
        // on the simulated disk, so the reported throughput and fsync
        // percentiles reflect the group-commit protocol, not a cost model.
        durability: Some(DurabilityConfig::default()),
        ..QStoreConfig::default()
    };
    let batch_size = qs_cfg.batch_size;
    let qs_cluster = Rc::new(QStoreCluster::new(qs_cfg));
    let t0 = std::time::Instant::now();
    let qs_run = run_bank(Rc::clone(&qs_cluster), nodes, &spec);
    let qstore = GridLeg {
        protocol: "Q-Store",
        virtual_tps: qs_run.throughput,
        commits: qs_run.commits,
        aborts: qs_run.aborts,
        wall_secs: t0.elapsed().as_secs_f64(),
    };

    let stats = qs_cluster.stats();
    let (_, wal_fsyncs) = qs_cluster.wal_totals();
    let mut epochs = qs_cluster.epoch_latencies();
    epochs.sort_unstable();
    let mut fsyncs = qs_cluster.fsync_latencies();
    fsyncs.sort_unstable();
    let batching = BatchTelemetry {
        batch_size,
        batches: stats.batches,
        batch_txns: stats.batch_txns,
        wal_fsyncs,
        epoch_p50_ns: percentile_ns(&epochs, 50.0),
        epoch_p99_ns: percentile_ns(&epochs, 99.0),
        fsync_p50_ns: percentile_ns(&fsyncs, 50.0),
        fsync_p99_ns: percentile_ns(&fsyncs, 99.0),
    };
    WriteHeavyGrid {
        qr,
        qstore,
        batching,
    }
}

fn par_leg(quick: bool, threads: usize) -> ParBankResult {
    let spec = ParBankSpec {
        accounts: 32,
        read_pct: 50,
        ops_per_thread: if quick { 2_000 } else { 25_000 },
    };
    run_par_bank(42, threads, &spec)
}

/// Offered-load sweep for the overload grid, in arrivals/s. The low end
/// sits well under capacity, the high end well past the saturation knee.
const OVERLOAD_RATES: [u64; 6] = [100, 200, 400, 800, 1_600, 3_200];
/// Surge factor for the flash-crowd point, in percent of the base rate.
const SURGE_FACTOR_PCT: u32 = 400;

/// One offered-load point of the overload grid.
struct OverloadPoint {
    /// Configured arrival rate (the open-loop generator's set point).
    offered_tps: u64,
    /// Arrivals actually generated during the measurement window.
    offered: u64,
    /// Within-deadline commits.
    goodput: u64,
    /// Arrivals rejected at the admission queue.
    shed: u64,
    /// Commits that landed past their deadline (wasted work).
    late: u64,
    /// Deadline-driven aborts/abandons (driver + engine).
    deadline_aborts: u64,
    /// Times a client wanted a retry token and the budget was dry.
    retry_budget_exhausted: u64,
    /// Deepest admission queue seen on any node.
    max_queue_depth: u64,
    offered_tps_measured: f64,
    goodput_tps: f64,
    p50_ns: Option<u64>,
    p99_ns: Option<u64>,
    p999_ns: Option<u64>,
}

/// The whole overload sweep plus the flash-crowd surge point and the
/// knee statistics the degradation gate is judged on.
struct OverloadGrid {
    points: Vec<OverloadPoint>,
    surge: OverloadPoint,
    knee_offered_tps: u64,
    peak_goodput_tps: f64,
    goodput_at_2x_knee_tps: f64,
}

impl OverloadGrid {
    /// The graceful-degradation gate: past twice the saturation knee,
    /// goodput must stay within 1.5x of the peak — admission control and
    /// deadline abandon are supposed to hold the floor, not merely delay
    /// the collapse.
    fn degradation_check(&self) -> Result<(), String> {
        for p in self
            .points
            .iter()
            .filter(|p| p.offered_tps >= 2 * self.knee_offered_tps)
        {
            if p.goodput_tps * 1.5 < self.peak_goodput_tps {
                return Err(format!(
                    "overload degradation: goodput {:.1} tps at {} tps offered is below \
                     1/1.5 of the {:.1} tps peak (knee {} tps)",
                    p.goodput_tps, p.offered_tps, self.peak_goodput_tps, self.knee_offered_tps
                ));
            }
        }
        Ok(())
    }
}

/// Run one open-loop point: a fresh protected QR-CN cluster, the given
/// arrival rate and schedule, uniform keys over 64 accounts so the knee
/// measures capacity rather than lock contention.
fn overload_point(quick: bool, rate: u64, schedule: RateSchedule) -> OverloadPoint {
    let cfg = DtmConfig {
        nodes: 10,
        mode: NestingMode::Closed,
        seed: 42,
        rpc_timeout: Some(SimDuration::from_millis(100)),
        overload: Some(OverloadConfig::default()),
        ..Default::default()
    };
    let nodes = cfg.nodes;
    let proto = Rc::new(Cluster::new(cfg));
    let spec = OpenLoopSpec {
        accounts: 64,
        zipf_milli: 0,
        rate_tps: rate,
        deadline: SimDuration::from_millis(500),
        // The queue bound is the load-shedding knob: it must hold less
        // work than a deadline's worth of service time, or admitted jobs
        // are already doomed and goodput collapses past the knee.
        queue_bound: 4,
        schedule,
        ..OpenLoopSpec::default()
    };
    let duration = if quick {
        SimDuration::from_secs(2)
    } else {
        SimDuration::from_secs(6)
    };
    let r = run_open_loop(
        Rc::clone(&proto),
        nodes,
        &spec,
        SimDuration::from_millis(300),
        duration,
    );
    let m = proto.sim().metrics();
    OverloadPoint {
        offered_tps: rate,
        offered: r.offered,
        goodput: r.goodput,
        shed: r.shed,
        late: r.late,
        deadline_aborts: m.deadline_aborts,
        retry_budget_exhausted: m.retry_budget_exhausted,
        max_queue_depth: r.max_queue_depth,
        offered_tps_measured: r.offered_tps,
        goodput_tps: r.goodput_tps,
        p50_ns: m.latency.percentile(50.0),
        p99_ns: m.latency.percentile(99.0),
        p999_ns: m.latency.percentile(99.9),
    }
}

/// Sweep the offered-load grid and run the flash-crowd surge point (base
/// rate at the knee, `SURGE_FACTOR_PCT` for the middle third of the run).
fn overload_grid(quick: bool) -> OverloadGrid {
    let points: Vec<OverloadPoint> = OVERLOAD_RATES
        .iter()
        .map(|&rate| overload_point(quick, rate, RateSchedule::Steady))
        .collect();
    let peak_goodput_tps = points.iter().map(|p| p.goodput_tps).fold(0.0, f64::max);
    // The knee: the smallest offered rate already delivering 95% of peak
    // goodput — beyond it, extra offered load is shed or times out.
    let knee_offered_tps = points
        .iter()
        .find(|p| p.goodput_tps >= peak_goodput_tps * 0.95)
        .map_or(OVERLOAD_RATES[0], |p| p.offered_tps);
    let past_2x = points
        .iter()
        .filter(|p| p.offered_tps >= 2 * knee_offered_tps)
        .map(|p| p.goodput_tps)
        .fold(f64::INFINITY, f64::min);
    // If the sweep never reaches twice the knee the gate is vacuous;
    // report the top point so the JSON stays finite.
    let goodput_at_2x_knee_tps = if past_2x.is_finite() {
        past_2x
    } else {
        points.last().map_or(0.0, |p| p.goodput_tps)
    };
    let duration = if quick { 2u64 } else { 6 };
    let surge_at = SimDuration::from_secs(duration / 3).max(SimDuration::from_millis(500));
    let surge = overload_point(
        quick,
        knee_offered_tps,
        RateSchedule::FlashCrowd {
            at: surge_at,
            lasting: surge_at,
            factor_pct: SURGE_FACTOR_PCT,
        },
    );
    OverloadGrid {
        points,
        surge,
        knee_offered_tps,
        peak_goodput_tps,
        goodput_at_2x_knee_tps,
    }
}

/// Peak resident set size of this process in kB, from `/proc/self/status`
/// (`VmHWM`); 0 where procfs is unavailable.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

fn opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".into(), |x| x.to_string())
}

fn latency_obj(p50: Option<u64>, p99: Option<u64>, p999: Option<u64>) -> String {
    format!(
        "{{\"p50\": {}, \"p99\": {}, \"p999\": {}}}",
        opt_u64(p50),
        opt_u64(p99),
        opt_u64(p999)
    )
}

fn grid_leg_json(leg: &GridLeg, extra: &str) -> String {
    format!(
        "{{\"protocol\": \"{}\", \"virtual_txns_per_sec\": {:.2}, \"commits\": {}, \"aborts\": {}, \"wall_secs\": {:.3}{extra}}}",
        leg.protocol, leg.virtual_tps, leg.commits, leg.aborts, leg.wall_secs
    )
}

fn overload_point_json(p: &OverloadPoint) -> String {
    format!(
        "{{\"offered_load\": {}, \"offered_arrivals\": {}, \"offered_tps_measured\": {:.1}, \
         \"goodput\": {}, \"goodput_tps\": {:.1}, \"shed\": {}, \"late\": {}, \
         \"deadline_aborts\": {}, \"retry_budget_exhausted\": {}, \"max_queue_depth\": {}, \
         \"latency_virtual_ns\": {}}}",
        p.offered_tps,
        p.offered,
        p.offered_tps_measured,
        p.goodput,
        p.goodput_tps,
        p.shed,
        p.late,
        p.deadline_aborts,
        p.retry_budget_exhausted,
        p.max_queue_depth,
        latency_obj(p.p50_ns, p.p99_ns, p.p999_ns)
    )
}

fn render_json(
    quick: bool,
    cores: usize,
    sim: &SimLeg,
    grid: &WriteHeavyGrid,
    overload: &OverloadGrid,
    par: &[&ParBankResult],
    speedup: f64,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"benchmark\": \"bank\",\n");
    s.push_str("  \"generated_by\": \"repro perf\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!(
        "  \"host\": {{\"cores\": {cores}, \"peak_rss_kb\": {}}},\n",
        peak_rss_kb()
    ));
    s.push_str(&format!(
        "  \"sim\": {{\"protocol\": \"{}\", \"virtual_txns_per_sec\": {:.2}, \"commits\": {}, \"aborts\": {}, \"wall_secs\": {:.3}, \"events_per_sec_wall\": {:.0}, \"latency_virtual_ns\": {}}},\n",
        sim.protocol,
        sim.virtual_tps,
        sim.commits,
        sim.aborts,
        sim.wall_secs,
        sim.events_per_sec,
        latency_obj(sim.p50_ns, sim.p99_ns, sim.p999_ns)
    ));
    let b = &grid.batching;
    let qstore_extra = format!(
        ", \"batch_size\": {}, \"batches\": {}, \"batch_txns\": {}, \"wal_fsyncs\": {}, \"epoch_latency_virtual_ns\": {{\"p50\": {}, \"p99\": {}}}, \"disk_fsync_virtual_ns\": {{\"p50\": {}, \"p99\": {}}}",
        b.batch_size,
        b.batches,
        b.batch_txns,
        b.wal_fsyncs,
        opt_u64(b.epoch_p50_ns),
        opt_u64(b.epoch_p99_ns),
        opt_u64(b.fsync_p50_ns),
        opt_u64(b.fsync_p99_ns)
    );
    s.push_str(&format!(
        "  \"write_heavy_grid\": {{\"accounts\": {GRID_ACCOUNTS}, \"read_pct\": {GRID_READ_PCT}, \"clients_per_node\": {GRID_CLIENTS_PER_NODE}, \"qr\": {}, \"qstore\": {}}},\n",
        grid_leg_json(&grid.qr, ""),
        grid_leg_json(&grid.qstore, &qstore_extra)
    ));
    s.push_str(
        "  \"overload_grid\": {\"protocol\": \"QR-CN\", \"nodes\": 10, \"deadline_ms\": 500, \"points\": [\n",
    );
    for (i, p) in overload.points.iter().enumerate() {
        s.push_str(&format!(
            "    {}{}\n",
            overload_point_json(p),
            if i + 1 < overload.points.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str(&format!(
        "  ], \"surge\": {{\"factor_pct\": {}, \"point\": {}}}, \"knee_offered_tps\": {}, \"peak_goodput_tps\": {:.1}, \"goodput_at_2x_knee_tps\": {:.1}}},\n",
        SURGE_FACTOR_PCT,
        overload_point_json(&overload.surge),
        overload.knee_offered_tps,
        overload.peak_goodput_tps,
        overload.goodput_at_2x_knee_tps
    ));
    s.push_str("  \"par\": [\n");
    for (i, r) in par.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"protocol\": \"PAR-TL2\", \"threads\": {}, \"txns_per_sec\": {:.0}, \"commits\": {}, \"aborts\": {}, \"wall_secs\": {:.3}, \"violations\": {}, \"latency_wall_ns\": {}}}{}\n",
            r.threads,
            r.throughput,
            r.commits,
            r.aborts,
            r.wall_secs,
            r.violations,
            latency_obj(r.p50_ns, r.p99_ns, r.p999_ns),
            if i + 1 < par.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"par_speedup_{PAR_THREADS}_vs_1\": {speedup:.2}\n"
    ));
    s.push_str("}\n");
    s
}

fn print_summary(
    cores: usize,
    sim: &SimLeg,
    grid: &WriteHeavyGrid,
    overload: &OverloadGrid,
    par: &[&ParBankResult],
    speedup: f64,
    out: &Path,
) {
    println!("## perf — bank workload, wall-clock baseline ({cores} host cores)\n");
    println!(
        "sim    {:>8}: {:9.1} txn/s (virtual), {} commits, {:.0} sim events/s wall",
        sim.protocol, sim.virtual_tps, sim.commits, sim.events_per_sec
    );
    println!(
        "\ngrid   write-heavy/hot ({GRID_ACCOUNTS} accounts, {GRID_READ_PCT}% reads, \
         {GRID_CLIENTS_PER_NODE} clients/node):"
    );
    for leg in [&grid.qr, &grid.qstore] {
        println!(
            "       {:>8}: {:9.1} txn/s (virtual), {} commits, {} aborts",
            leg.protocol, leg.virtual_tps, leg.commits, leg.aborts
        );
    }
    let b = &grid.batching;
    println!(
        "       Q-Store batching: size {}, {} batches / {} batched txns ({:.1} avg), \
         {} fsyncs, epoch p50 {} ms p99 {} ms, fsync p50 {} µs p99 {} µs",
        b.batch_size,
        b.batches,
        b.batch_txns,
        b.batch_txns as f64 / (b.batches.max(1)) as f64,
        b.wal_fsyncs,
        b.epoch_p50_ns.map_or(0, |n| n / 1_000_000),
        b.epoch_p99_ns.map_or(0, |n| n / 1_000_000),
        b.fsync_p50_ns.map_or(0, |n| n / 1_000),
        b.fsync_p99_ns.map_or(0, |n| n / 1_000),
    );
    println!(
        "       Q-Store vs QR: {:.2}x on the write-heavy grid\n",
        grid.qstore.virtual_tps / grid.qr.virtual_tps.max(1e-9)
    );
    println!("overload open-loop grid (QR-CN, protections armed, 500 ms deadlines):");
    for p in &overload.points {
        println!(
            "       offered {:>5} tps: goodput {:>7.1} tps, shed {:>6}, deadline aborts {:>6}, \
             budget dry {:>4}, p99 {} ms",
            p.offered_tps,
            p.goodput_tps,
            p.shed,
            p.deadline_aborts,
            p.retry_budget_exhausted,
            p.p99_ns.map_or(0, |n| n / 1_000_000),
        );
    }
    let s = &overload.surge;
    println!(
        "       flash-crowd {SURGE_FACTOR_PCT}% @ {} tps: goodput {:.1} tps, shed {}, \
         deadline aborts {}, p99 {} ms p999 {} ms",
        s.offered_tps,
        s.goodput_tps,
        s.shed,
        s.deadline_aborts,
        s.p99_ns.map_or(0, |n| n / 1_000_000),
        s.p999_ns.map_or(0, |n| n / 1_000_000),
    );
    println!(
        "       knee {} tps, peak goodput {:.1} tps, goodput past 2x knee {:.1} tps \
         (graceful-degradation gate: within 1.5x of peak)\n",
        overload.knee_offered_tps, overload.peak_goodput_tps, overload.goodput_at_2x_knee_tps
    );
    for r in par {
        println!(
            "par    TL2 x{:<3}: {:9.0} txn/s (wall),   {} commits, {} aborts, p50 {} µs, p99 {} µs",
            r.threads,
            r.throughput,
            r.commits,
            r.aborts,
            r.p50_ns.map_or(0, |n| n / 1_000),
            r.p99_ns.map_or(0, |n| n / 1_000),
        );
    }
    println!("\npar speedup x{PAR_THREADS} vs x1: {speedup:.2} (host has {cores} cores)");
    println!("serializability audit: clean on both par runs");
    println!("wrote {}", out.display());
}

// ---------------------------------------------------------------------------
// Minimal strict JSON validator (no external deps): parses the full value
// grammar and rejects trailing garbage. Used as the emit gate and by tests.

/// Validate that `s` is one well-formed JSON value. Returns a short error
/// description on malformed input.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing garbage at byte {i}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
    match b.get(*i) {
        Some(b'{') => object(b, i),
        Some(b'[') => array(b, i),
        Some(b'"') => string(b, i),
        Some(b't') => literal(b, i, "true"),
        Some(b'f') => literal(b, i, "false"),
        Some(b'n') => literal(b, i, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
        Some(c) => Err(format!("unexpected byte {:?} at {}", *c as char, *i)),
        None => Err("unexpected end of input".into()),
    }
}

fn object(b: &[u8], i: &mut usize) -> Result<(), String> {
    *i += 1; // '{'
    skip_ws(b, i);
    if b.get(*i) == Some(&b'}') {
        *i += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, i);
        string(b, i)?;
        skip_ws(b, i);
        if b.get(*i) != Some(&b':') {
            return Err(format!("expected ':' at byte {i}", i = *i));
        }
        *i += 1;
        skip_ws(b, i);
        value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b'}') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {i}", i = *i)),
        }
    }
}

fn array(b: &[u8], i: &mut usize) -> Result<(), String> {
    *i += 1; // '['
    skip_ws(b, i);
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, i);
        value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b']') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {i}", i = *i)),
        }
    }
}

fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
    if b.get(*i) != Some(&b'"') {
        return Err(format!("expected string at byte {i}", i = *i));
    }
    *i += 1;
    while let Some(&c) = b.get(*i) {
        match c {
            b'"' => {
                *i += 1;
                return Ok(());
            }
            b'\\' => *i += 2,
            _ => *i += 1,
        }
    }
    Err("unterminated string".into())
}

fn literal(b: &[u8], i: &mut usize, lit: &str) -> Result<(), String> {
    if b[*i..].starts_with(lit.as_bytes()) {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {i}", i = *i))
    }
}

fn number(b: &[u8], i: &mut usize) -> Result<(), String> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    let mut digits = 0;
    while *i < b.len()
        && (b[*i].is_ascii_digit() || matches!(b[*i], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        digits += 1;
        *i += 1;
    }
    let text = std::str::from_utf8(&b[start..*i]).map_err(|_| "non-utf8 number".to_string())?;
    if digits == 0 || text.parse::<f64>().map_or(true, |v| !v.is_finite()) {
        return Err(format!("bad number {text:?} at byte {start}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validator_accepts_wellformed_and_rejects_malformed() {
        assert!(validate_json("{\"a\": [1, 2.5, -3e2], \"b\": null}").is_ok());
        assert!(validate_json("{\"a\": 1,}").is_err());
        assert!(validate_json("{\"a\": }").is_err());
        assert!(validate_json("{} garbage").is_err());
        assert!(validate_json("{\"a\": NaN}").is_err());
        assert!(validate_json("{\"unterminated").is_err());
    }

    #[test]
    fn rendered_baseline_validates() {
        let sim = SimLeg {
            protocol: "QR-CN",
            virtual_tps: 12.5,
            commits: 250,
            aborts: 3,
            wall_secs: 0.8,
            events_per_sec: 100_000.0,
            p50_ns: Some(40_000_000),
            p99_ns: Some(90_000_000),
            p999_ns: None,
        };
        let par = ParBankResult {
            threads: 8,
            ops: 16_000,
            commits: 16_000,
            aborts: 12,
            wall_secs: 0.5,
            throughput: 32_000.0,
            p50_ns: Some(20_000),
            p99_ns: Some(600_000),
            p999_ns: Some(900_000),
            violations: 0,
            total_balance: 32_000,
        };
        let grid = WriteHeavyGrid {
            qr: GridLeg {
                protocol: "QR",
                virtual_tps: 60.0,
                commits: 600,
                aborts: 400,
                wall_secs: 0.4,
            },
            qstore: GridLeg {
                protocol: "Q-Store",
                virtual_tps: 90.0,
                commits: 900,
                aborts: 80,
                wall_secs: 0.5,
            },
            batching: BatchTelemetry {
                batch_size: 16,
                batches: 70,
                batch_txns: 980,
                wal_fsyncs: 700,
                epoch_p50_ns: Some(33_000_000),
                epoch_p99_ns: None,
                fsync_p50_ns: Some(300_000),
                fsync_p99_ns: Some(450_000),
            },
        };
        let point = |offered_tps: u64, goodput_tps: f64| OverloadPoint {
            offered_tps,
            offered: offered_tps * 2,
            goodput: (goodput_tps * 2.0) as u64,
            shed: 40,
            late: 12,
            deadline_aborts: 30,
            retry_budget_exhausted: 5,
            max_queue_depth: 17,
            offered_tps_measured: offered_tps as f64 * 0.99,
            goodput_tps,
            p50_ns: Some(4_000_000),
            p99_ns: Some(60_000_000),
            p999_ns: None,
        };
        let overload = OverloadGrid {
            points: vec![point(100, 98.0), point(200, 180.0), point(400, 170.0)],
            surge: point(200, 150.0),
            knee_offered_tps: 200,
            peak_goodput_tps: 180.0,
            goodput_at_2x_knee_tps: 170.0,
        };
        assert!(overload.degradation_check().is_ok());
        let json = render_json(true, 1, &sim, &grid, &overload, &[&par, &par], 1.0);
        validate_json(&json).expect("baseline JSON must validate");
        for key in [
            "\"host\"",
            "\"sim\"",
            "\"par\"",
            "\"txns_per_sec\"",
            "\"peak_rss_kb\"",
            "\"write_heavy_grid\"",
            "\"batch_size\"",
            "\"epoch_latency_virtual_ns\"",
            "\"disk_fsync_virtual_ns\"",
            "\"overload_grid\"",
            "\"offered_load\"",
            "\"goodput\"",
            "\"shed\"",
            "\"deadline_aborts\"",
            "\"retry_budget_exhausted\"",
            "\"knee_offered_tps\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
    }

    #[test]
    fn degradation_gate_catches_a_goodput_collapse() {
        let point = |offered_tps: u64, goodput_tps: f64| OverloadPoint {
            offered_tps,
            offered: offered_tps,
            goodput: goodput_tps as u64,
            shed: 0,
            late: 0,
            deadline_aborts: 0,
            retry_budget_exhausted: 0,
            max_queue_depth: 0,
            offered_tps_measured: offered_tps as f64,
            goodput_tps,
            p50_ns: None,
            p99_ns: None,
            p999_ns: None,
        };
        let collapsed = OverloadGrid {
            points: vec![point(100, 100.0), point(200, 180.0), point(400, 40.0)],
            surge: point(200, 150.0),
            knee_offered_tps: 200,
            peak_goodput_tps: 180.0,
            goodput_at_2x_knee_tps: 40.0,
        };
        let err = collapsed.degradation_check().unwrap_err();
        assert!(err.contains("overload degradation"), "got: {err}");
    }

    #[test]
    fn epoch_percentiles_handle_empty_and_sorted_inputs() {
        assert_eq!(percentile_ns(&[], 50.0), None);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&v, 50.0), Some(51));
        assert_eq!(percentile_ns(&v, 99.0), Some(99));
        assert_eq!(percentile_ns(&[7], 99.9), Some(7));
    }
}
