//! Span recording from outside the program.
//!
//! A span is `(id, parent, txn, name, start, end)` on one of two clocks:
//! wall spans cover the harness's own phases (`setup{…}`, `measure{slice}`,
//! `audit{…}`), virtual spans cover what the benchmark's client loops call
//! into (`txn → attempt → closed/read/write/commit/restart`). Spans are
//! kept in memory and written out only after the run, and recording never
//! touches the simulator (it reads `Sim::now`, nothing else), so a traced
//! run replays the untraced schedule bit for bit.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::rc::Rc;
use std::time::Instant;

use qrdtm_sim::{Sim, SimMessage};

/// Which clock a span's `start`/`end` are read from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Clock {
    /// Host nanoseconds since the process started.
    Wall,
    /// Simulated nanoseconds.
    Virtual,
}

/// One recorded span. `id` is 1-based; `parent == 0` means a root span,
/// `txn == 0` means "not part of a transaction", and `end == OPEN` means the
/// span was still running when the log was read.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub txn: u64,
    pub name: &'static str,
    pub clock: Clock,
    pub start: u64,
    pub end: u64,
}

/// `end` of a span that has not been closed.
pub const OPEN: u64 = u64::MAX;

impl Span {
    /// Length of a closed span.
    pub fn duration(&self) -> Option<u64> {
        (self.end != OPEN).then(|| self.end - self.start)
    }
}

/// Per-name totals: how often, how long, and how long excluding children.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The in-memory span store of one benchmark process.
pub struct SpanLog {
    spans: Vec<Span>,
    origin: Instant,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            spans: Vec::new(),
            origin: Instant::now(),
        }
    }

    /// Host nanoseconds since this log was created.
    pub fn wall_now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(
        &mut self,
        parent: u32,
        txn: u64,
        name: &'static str,
        clock: Clock,
        start: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            txn,
            name,
            clock,
            start,
            end: OPEN,
        });
        id
    }

    pub fn close(&mut self, id: u32, end: u64) {
        if id != 0 {
            self.spans[id as usize - 1].end = end;
        }
    }

    pub fn open_wall(&mut self, parent: u32, name: &'static str) -> u32 {
        let now = self.wall_now();
        self.open(parent, 0, name, Clock::Wall, now)
    }

    pub fn close_wall(&mut self, id: u32) {
        let now = self.wall_now();
        self.close(id, now);
    }

    /// Durations of every closed span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(Span::duration)
            .collect()
    }

    /// For every closed `txn` span, the time between the end of its last
    /// `attempt` child and its own end: the commit path that runs after
    /// the body returned.
    pub fn commit_tails(&self) -> Vec<u64> {
        let mut last_attempt_end = vec![0u64; self.spans.len() + 1];
        for s in self.spans.iter().filter(|s| s.name == "attempt") {
            if s.end != OPEN {
                let e = &mut last_attempt_end[s.parent as usize];
                *e = (*e).max(s.end);
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == "txn" && s.end != OPEN)
            .filter(|s| last_attempt_end[s.id as usize] != 0)
            .map(|s| s.end.saturating_sub(last_attempt_end[s.id as usize]))
            .collect()
    }

    /// Count, total and self time per span name, over closed spans.
    /// Children of one span run one after another here (a client awaits
    /// each call), so self time is the span minus the sum of its children.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.duration().unwrap_or(0);
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for s in &self.spans {
            let Some(d) = s.duration() else { continue };
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += d;
            t.self_ns += d.saturating_sub(child_ns[s.id as usize]);
        }
        out
    }

    /// Write every span as one JSON array (the `<out>.trace.json` file).
    pub fn write_json(&self, w: &mut impl Write) -> io::Result<()> {
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let clock = match s.clock {
                Clock::Wall => "wall",
                Clock::Virtual => "virtual",
            };
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let end = match s.end {
                OPEN => "null".to_string(),
                e => e.to_string(),
            };
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"txn\":{},\"name\":\"{}\",\"clock\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{}",
                s.id, s.parent, s.txn, s.name, clock, s.start, end, sep
            )?;
        }
        writeln!(w, "]")
    }
}

/// What a client loop records while it runs on a simulator: commit
/// latencies always, virtual spans only when a [`SpanLog`] is attached.
pub struct Recorder {
    now: Box<dyn Fn() -> u64>,
    measuring: Cell<bool>,
    log: Option<Rc<RefCell<SpanLog>>>,
    next_txn: Cell<u64>,
    lat_ns: RefCell<Vec<u64>>,
    last_commit_ns: RefCell<Vec<u64>>,
}

impl Recorder {
    /// `now` reads the simulator clock in ns; `txn_base` keeps transaction
    /// ids of different legs of one run apart.
    pub fn new(
        now: impl Fn() -> u64 + 'static,
        clients: usize,
        log: Option<Rc<RefCell<SpanLog>>>,
        txn_base: u64,
    ) -> Rc<Self> {
        Rc::new(Recorder {
            now: Box::new(now),
            measuring: Cell::new(false),
            log,
            next_txn: Cell::new(txn_base),
            lat_ns: RefCell::new(Vec::new()),
            last_commit_ns: RefCell::new(vec![0; clients]),
        })
    }

    /// A recorder on `sim`'s virtual clock.
    pub fn on_sim<M: SimMessage>(
        sim: &Sim<M>,
        clients: usize,
        log: Option<Rc<RefCell<SpanLog>>>,
        txn_base: u64,
    ) -> Rc<Self> {
        let sim = sim.clone();
        Self::new(move || sim.now().as_nanos(), clients, log, txn_base)
    }

    pub fn now(&self) -> u64 {
        (self.now)()
    }

    /// Start of the measured window: samples and spans count from here.
    pub fn start_measuring(&self) {
        self.measuring.set(true);
    }

    /// End of the measured window (clients may still drain afterwards).
    pub fn stop_measuring(&self) {
        self.measuring.set(false);
    }

    pub fn next_txn(&self) -> u64 {
        let t = self.next_txn.get() + 1;
        self.next_txn.set(t);
        t
    }

    /// Open the root `txn` span of transaction `txn`; 0 (no span) when
    /// untraced or outside the measured window.
    pub fn open_txn(&self, txn: u64) -> u32 {
        match &self.log {
            Some(log) if self.measuring.get() => {
                log.borrow_mut()
                    .open(0, txn, "txn", Clock::Virtual, self.now())
            }
            _ => 0,
        }
    }

    /// Open a child span; transactions that began before the window have
    /// no root span (`parent == 0`) and record no children either.
    pub fn open(&self, parent: u32, txn: u64, name: &'static str) -> u32 {
        match &self.log {
            Some(log) if parent != 0 => {
                log.borrow_mut()
                    .open(parent, txn, name, Clock::Virtual, self.now())
            }
            _ => 0,
        }
    }

    pub fn close(&self, id: u32) {
        if id != 0 {
            if let Some(log) = &self.log {
                log.borrow_mut().close(id, self.now());
            }
        }
    }

    /// A root transaction that started at `start_ns` just committed.
    pub fn committed(&self, client: Option<usize>, start_ns: u64) {
        if !self.measuring.get() {
            return;
        }
        let now = self.now();
        self.lat_ns.borrow_mut().push(now - start_ns);
        if let Some(c) = client {
            self.last_commit_ns.borrow_mut()[c] = now;
        }
    }

    /// The latency samples of the measured window, in commit order.
    pub fn take_latencies(&self) -> Vec<u64> {
        std::mem::take(&mut self.lat_ns.borrow_mut())
    }

    /// Clients whose last commit is older than `since_ns` (or that never
    /// committed) — starved, and counted as failed operations.
    pub fn starved_clients(&self, since_ns: u64) -> u64 {
        self.last_commit_ns
            .borrow()
            .iter()
            .filter(|&&t| t < since_ns)
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut log = SpanLog::new();
        let txn = log.open(0, 1, "txn", Clock::Virtual, 0);
        let a = log.open(txn, 1, "attempt", Clock::Virtual, 0);
        let r = log.open(a, 1, "read", Clock::Virtual, 10);
        log.close(r, 40);
        log.close(a, 50);
        log.close(txn, 80);
        let t = log.totals();
        assert_eq!(t["txn"].self_ns, 30);
        assert_eq!(t["attempt"].self_ns, 20);
        assert_eq!(t["read"].self_ns, 30);
        assert_eq!(log.durations("attempt"), vec![50]);
        assert_eq!(log.commit_tails(), vec![30]);
        let open = log.open(0, 2, "txn", Clock::Virtual, 90);
        assert_eq!(log.totals()["txn"].count, 1, "open spans are not counted");
        log.close(open, 95);
        assert_eq!(log.totals()["txn"].count, 2);
    }

    #[test]
    fn recorder_is_silent_until_measuring_and_without_a_log() {
        let clock = Rc::new(Cell::new(5u64));
        let c2 = Rc::clone(&clock);
        let log = Rc::new(RefCell::new(SpanLog::new()));
        let rec = Recorder::new(move || c2.get(), 2, Some(Rc::clone(&log)), 0);
        assert_eq!(rec.open_txn(1), 0);
        assert_eq!(rec.open(0, 1, "attempt"), 0);
        rec.committed(Some(0), 0);
        assert!(rec.take_latencies().is_empty());
        rec.start_measuring();
        let id = rec.open_txn(1);
        let child = rec.open(id, 1, "attempt");
        assert_ne!(child, 0);
        clock.set(9);
        rec.close(child);
        rec.close(id);
        rec.committed(Some(1), 5);
        assert_eq!(rec.take_latencies(), vec![4]);
        assert_eq!(rec.starved_clients(1), 1);
        assert_eq!(log.borrow().durations("txn"), vec![4]);

        let quiet = Recorder::new(|| 0, 1, None, 0);
        quiet.start_measuring();
        assert_eq!(quiet.open_txn(1), 0);
    }
}
