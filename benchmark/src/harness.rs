//! What every workload shares: the per-rep result record, wall-clock phase
//! spans, the sliced window pump and seeded plan streams.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use qrdtm_core::{check_abort_targets, Cluster, ObjectId};
use qrdtm_sim::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::host::Stopwatch;
use crate::spans::SpanLog;

/// The span log of a traced rep; `None` on untraced reps.
pub type Log = Option<Rc<RefCell<SpanLog>>>;

/// Layer values by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// The measured window is pumped in this many equal `run_for` slices, each
/// wall-timed (`measure{slice}` spans, `bench.slice_wall_growth`).
pub const SLICES: u32 = 20;

/// Outcome of one rep: one fresh set-up plus one measured phase.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// CPU seconds of plan generation, cluster build, preload, population
    /// and warm-up (see [`Stopwatch`]).
    pub setup_s: f64,
    /// Wall seconds of the measured phase.
    pub measure_s: f64,
    /// CPU seconds this process spent in the measured phase. On an idle
    /// host a single-threaded simulation makes this its wall time; on a
    /// shared one it leaves out the time the hypervisor or other tenants
    /// took, so host-speed metrics are per CPU second.
    pub cpu_s: f64,
    /// System-time seconds the measured phase covers: virtual on the
    /// simulator, wall on the threaded backend.
    pub vsecs: f64,
    /// Work units completed in the measured phase (committed root
    /// transactions; delivered messages on `hot_ring`).
    pub commits: u64,
    /// Work units that also met the workload's deadline.
    pub goodput: u64,
    /// Work units completed during `cpu_s`, for host speed: equal to
    /// `commits` unless the rep has legs that only count for speed.
    pub host_commits: u64,
    /// Backend steps in the measured phase (simulator events; transaction
    /// attempts on `par_bank`).
    pub events: u64,
    /// Operations offered / operations that succeeded, for `ok_share`.
    pub offered: u64,
    pub ok: u64,
    /// Commit latencies in system-time ns, ascending.
    pub lat_ns: Vec<u64>,
    /// Output checks made and the ones that failed.
    pub checks: u64,
    pub violations: Vec<String>,
    /// `setup_s` and `cpu_s` in CPU seconds of the reference host: each
    /// stretch of CPU time scaled by the [`crate::host::speed`] samples
    /// taken right around it. The host-time metrics are built on these.
    pub ref_setup_s: f64,
    pub ref_cpu_s: f64,
    /// Wall seconds of each window slice.
    pub slices: Vec<f64>,
    /// Layer values that are exact for a seed (counters, virtual times).
    pub layers: Layers,
    /// Layer values read from the host clock.
    pub wall_layers: Layers,
}

impl Rep {
    /// Everything that must repeat exactly for a seed, as one comparable
    /// string: two reps (or a traced and an untraced rep) whose
    /// fingerprints differ have run different schedules.
    pub fn fingerprint(&self) -> String {
        let lat_sum: u128 = self.lat_ns.iter().map(|&x| u128::from(x)).sum();
        let mut s = format!(
            "vsecs={:016x} commits={} goodput={} host_commits={} events={} offered={} ok={} lat_n={} lat_sum={}",
            self.vsecs.to_bits(),
            self.commits,
            self.goodput,
            self.host_commits,
            self.events,
            self.offered,
            self.ok,
            self.lat_ns.len(),
            lat_sum
        );
        for (k, v) in &self.layers {
            s.push_str(&format!(" {k}={:016x}", v.to_bits()));
        }
        s
    }

    /// Mean host speed over the measured phase (1 = the reference host at
    /// rest).
    pub fn host_speed(&self) -> f64 {
        crate::stats::ratio(self.ref_cpu_s, self.cpu_s)
    }

    /// Record one output check; `problem` is `Some` when it failed.
    pub fn check(&mut self, problem: Option<String>) {
        self.checks += 1;
        self.violations.extend(problem);
    }

    /// Add a leg's host-side totals: wall times, the work and events done
    /// in them, and its output checks.
    pub fn absorb_host(&mut self, leg: &Rep) {
        self.setup_s += leg.setup_s;
        self.ref_setup_s += leg.ref_setup_s;
        self.measure_s += leg.measure_s;
        self.cpu_s += leg.cpu_s;
        self.ref_cpu_s += leg.ref_cpu_s;
        self.host_commits += leg.host_commits;
        self.events += leg.events;
        self.checks += leg.checks;
        self.violations.extend(leg.violations.iter().cloned());
        if self.slices.is_empty() {
            self.slices = leg.slices.clone();
        } else {
            for (a, b) in self.slices.iter_mut().zip(&leg.slices) {
                *a += b;
            }
        }
    }

    /// Pool a whole leg into this rep: host-side totals plus commits,
    /// system time and latency samples (layer maps are merged by the
    /// caller, which knows the names).
    pub fn absorb(&mut self, leg: Rep) {
        self.absorb_host(&leg);
        self.vsecs += leg.vsecs;
        self.commits += leg.commits;
        self.goodput += leg.goodput;
        self.offered += leg.offered;
        self.ok += leg.ok;
        self.lat_ns.extend(leg.lat_ns);
    }
}

/// Run `f` inside a wall span called `name` (a no-op span when untraced);
/// `f` receives the span id to parent its own children on.
pub fn wall_span<T>(log: &Log, parent: u32, name: &'static str, f: impl FnOnce(u32) -> T) -> T {
    let id = log
        .as_ref()
        .map_or(0, |l| l.borrow_mut().open_wall(parent, name));
    let out = f(id);
    if let Some(l) = log {
        l.borrow_mut().close_wall(id);
    }
    out
}

/// After the window: let every client finish the transaction it is in.
/// `exited` counts clients whose loop has returned; a client still running
/// after ten virtual minutes is a failed check.
pub fn drain(rep: &mut Rep, exited: &Cell<usize>, clients: usize, run_for: impl Fn(SimDuration)) {
    for _ in 0..600 {
        if exited.get() == clients {
            break;
        }
        run_for(SimDuration::from_secs(1));
    }
    rep.check((exited.get() != clients).then(|| "clients did not drain".to_string()));
}

/// Bank conservation: the committed balances of `accounts` accounts,
/// preloaded with `initial` each, must still add up.
pub fn check_balance(
    rep: &mut Rep,
    accounts: u64,
    initial: i64,
    latest: impl Fn(ObjectId) -> Option<i64>,
) {
    let total: Option<i64> = (0..accounts).map(|i| latest(ObjectId(i))).sum();
    let expected = accounts as i64 * initial;
    rep.check(
        (total != Some(expected))
            .then(|| format!("bank balance {total:?} after the run, {expected} before")),
    );
}

/// Traced legs only: replay the recorded commit history (`records` long)
/// through the family's serializability auditor, under an `audit` span.
pub fn audit_history<V: std::fmt::Display>(
    rep: &mut Rep,
    log: &Log,
    records: usize,
    verify: impl FnOnce() -> Vec<V>,
) {
    if log.is_none() {
        return;
    }
    wall_span(log, 0, "audit", |audit| {
        let t0 = Instant::now();
        let violations = wall_span(log, audit, "verify_history", |_| verify());
        rep.wall_layers.insert(
            "core.history.verify_records_per_s",
            records as f64 / t0.elapsed().as_secs_f64().max(1e-9),
        );
        rep.check(violations.first().map(|v| {
            format!(
                "{} serializability violations, first: {v}",
                violations.len()
            )
        }));
    });
}

/// Traced QR-engine legs: arm history and engine-event recording. Called
/// before the first transaction, because the audit replays from the
/// initial state.
pub fn record_qr(cluster: &Cluster, log: &Log) {
    if log.is_some() {
        cluster.enable_history();
        cluster.sim().record_engine_events(true);
    }
}

/// Traced QR-engine legs: the serializability audit, plus the recorded
/// engine events' abort targets (every abort must address a scope that was
/// on the stack).
pub fn audit_qr(rep: &mut Rep, log: &Log, cluster: &Cluster) {
    if log.is_none() {
        return;
    }
    audit_history(rep, log, cluster.history().len(), || {
        cluster.verify_history()
    });
    let stray = check_abort_targets(&cluster.sim().metrics().engine_event_log);
    rep.check(
        stray
            .first()
            .map(|v| format!("{} stray abort targets, first: {v}", stray.len())),
    );
}

/// Pump `window` of virtual time through `run_for` in [`SLICES`] equal
/// slices under a `measure` span, with a host-speed sample before the
/// first slice and after each one. Records in `rep` the phase's wall and
/// CPU seconds (slices only, not the samples), each slice's CPU seconds
/// scaled by the two samples around it, the set-up's scaled by the first
/// sample (set-up ends where the window starts), and per-slice wall
/// seconds.
pub fn pump(rep: &mut Rep, log: &Log, window: SimDuration, run_for: impl Fn(SimDuration)) {
    let slice = SimDuration::from_nanos(window.as_nanos() / u64::from(SLICES));
    wall_span(log, 0, "measure", |measure| {
        let mut before = crate::host::speed();
        rep.ref_setup_s = rep.setup_s * before;
        let mut unsampled_cpu = 0.0;
        for _ in 0..SLICES {
            let watch = Stopwatch::thread();
            wall_span(log, measure, "slice", |_| run_for(slice));
            let (wall, cpu) = (watch.wall_s(), watch.cpu_s());
            // A 4 ms sample per slice is 3-10 % of a full-size slice; on
            // tiny windows it would dwarf the slices, so the last sample
            // stands until its own length of CPU time has gone by.
            unsampled_cpu += cpu;
            let after = if unsampled_cpu < 0.004 {
                before
            } else {
                unsampled_cpu = 0.0;
                crate::host::speed()
            };
            rep.slices.push(wall);
            rep.cpu_s += cpu;
            rep.ref_cpu_s += cpu * (before + after) / 2.0;
            before = after;
        }
        rep.measure_s = rep.slices.iter().sum();
    });
    rep.vsecs = pumped_secs(window);
}

/// The virtual length [`pump`] covers (the window rounded down to a whole
/// number of slices).
pub fn pumped_secs(window: SimDuration) -> f64 {
    let slice = window.as_nanos() / u64::from(SLICES);
    SimDuration::from_nanos(slice * u64::from(SLICES)).as_secs_f64()
}

/// A closed-loop client with no commit after this instant (virtual ns)
/// counts as starved. The cut is the middle of the window: the contended
/// workloads have commit latencies of up to a quarter of the rescaled
/// windows, so a shorter tail would flag clients that are merely slow.
pub fn starved_before(start: SimTime, end: SimTime) -> u64 {
    end.as_nanos() - end.saturating_since(start).as_nanos() / 2
}

/// Wall time per virtual second in the last quarter of the window over the
/// first quarter: above 1 the run slows down as it goes.
pub fn slice_growth(slices: &[f64]) -> f64 {
    let q = slices.len() / 4;
    if q == 0 {
        return 0.0;
    }
    let first: f64 = slices[..q].iter().sum();
    let last: f64 = slices[slices.len() - q..].iter().sum();
    crate::stats::ratio(last, first)
}

/// An independent seeded stream: the run seed mixed with a stream id, so a
/// client's plan does not depend on how many other clients exist.
pub fn stream(seed: u64, id: u64) -> StdRng {
    let mut z = seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// The simulator seed for `leg` of a run: derived from the same `--seed`
/// as the plans.
pub fn sim_seed(seed: u64, leg: u64) -> u64 {
    use rand::RngCore;
    stream(seed, 0xC1A5_7E12 ^ leg).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn streams_are_seeded_and_distinct() {
        assert_eq!(stream(1, 2).next_u64(), stream(1, 2).next_u64());
        assert_ne!(stream(1, 2).next_u64(), stream(1, 3).next_u64());
        assert_ne!(stream(1, 2).next_u64(), stream(2, 2).next_u64());
        assert_ne!(sim_seed(1, 0), sim_seed(1, 1));
    }

    #[test]
    fn growth_compares_last_quarter_with_first() {
        let mut s = vec![1.0; 20];
        assert_eq!(slice_growth(&s), 1.0);
        for x in &mut s[15..] {
            *x = 3.0;
        }
        assert_eq!(slice_growth(&s), 3.0);
        assert_eq!(slice_growth(&[]), 0.0);
    }

    #[test]
    fn fingerprint_ignores_wall_values() {
        let mut a = Rep {
            commits: 3,
            lat_ns: vec![1, 2, 3],
            ..Rep::default()
        };
        let mut b = a.clone();
        a.measure_s = 1.0;
        b.measure_s = 2.0;
        b.wall_layers.insert("x", 1.0);
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.layers.insert("y", 1.0);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
