//! Simulated per-node durable storage.
//!
//! A [`Disk`] models the only three operations a write-ahead-logging replica
//! needs — `append`, `fsync`, `snapshot` — plus the failure semantics that
//! make recovery interesting: on a crash, appended-but-unsynced records are
//! (partially) lost, and with configurable probability the *last* record
//! that did reach the platter is torn mid-write and unreadable, taking the
//! rest of the log tail with it (a torn record breaks the chain; nothing
//! after it can be trusted).
//!
//! The disk is pure state plus cost accounting: every mutating operation
//! returns the [`SimDuration`] it would occupy the node for, and the caller
//! charges it (e.g. via [`Sim::occupy`](crate::Sim::occupy) or
//! [`HandlerCtx::occupy`](crate::HandlerCtx::occupy)). Randomness for the
//! torn-tail model is injected by the caller so all loss is seeded by the
//! simulation RNG and every crash is exactly repeatable.

use rand::rngs::StdRng;
use rand::RngExt;

use crate::time::SimDuration;

/// Latency and failure knobs for a simulated [`Disk`].
#[derive(Clone, Copy, Debug)]
pub struct DiskConfig {
    /// Cost of appending one record to the (volatile) log buffer.
    pub append_latency: SimDuration,
    /// Cost of an fsync (buffer → durable).
    pub fsync_latency: SimDuration,
    /// Cost of writing a full snapshot (which also truncates the log).
    pub snapshot_latency: SimDuration,
    /// Probability, in percent, that a crash tears the last record it
    /// persisted (leaving a detectable-but-unreadable tail).
    pub torn_tail_pct: u32,
}

impl Default for DiskConfig {
    fn default() -> Self {
        DiskConfig {
            append_latency: SimDuration::from_micros(20),
            fsync_latency: SimDuration::from_micros(300),
            snapshot_latency: SimDuration::from_millis(2),
            torn_tail_pct: 35,
        }
    }
}

/// What a restarting node reads back from its [`Disk`].
#[derive(Clone, Debug)]
pub struct DiskImage<R, S> {
    /// The newest snapshot, if one was ever taken.
    pub snapshot: Option<S>,
    /// Log records after the snapshot, in append order, up to (and
    /// excluding) any torn record.
    pub log: Vec<R>,
    /// Whether a torn record was found (and the tail truncated at it).
    /// Plain loss of the unsynced buffer is *not* detectable from the disk
    /// alone — only corruption of what was thought durable is.
    pub torn_tail_detected: bool,
}

/// A simulated disk holding one snapshot and an appended log.
///
/// `R` is the log-record type, `S` the snapshot type; the disk treats both
/// as opaque payloads.
#[derive(Clone, Debug)]
pub struct Disk<R, S> {
    cfg: DiskConfig,
    snapshot: Option<S>,
    durable: Vec<R>,
    buffered: Vec<R>,
    /// Index into `durable` of the first unreadable record, if the tail is
    /// torn. Everything at or after this index is lost at recovery.
    torn_at: Option<usize>,
}

impl<R: Clone, S: Clone> Disk<R, S> {
    /// An empty disk.
    pub fn new(cfg: DiskConfig) -> Self {
        Disk {
            cfg,
            snapshot: None,
            durable: Vec::new(),
            buffered: Vec::new(),
            torn_at: None,
        }
    }

    /// The configured latencies.
    pub fn config(&self) -> &DiskConfig {
        &self.cfg
    }

    /// Append a record to the volatile log buffer. It becomes durable only
    /// at the next [`fsync`](Disk::fsync) (or partially, by luck, at a
    /// crash). Returns the occupancy cost.
    pub fn append(&mut self, rec: R) -> SimDuration {
        self.buffered.push(rec);
        self.cfg.append_latency
    }

    /// Flush the buffer to durable storage. Returns the occupancy cost.
    pub fn fsync(&mut self) -> SimDuration {
        self.durable.append(&mut self.buffered);
        self.cfg.fsync_latency
    }

    /// Write a full snapshot, superseding (and truncating) the log.
    /// Returns the occupancy cost.
    pub fn snapshot(&mut self, s: S) -> SimDuration {
        self.snapshot = Some(s);
        self.durable.clear();
        self.buffered.clear();
        self.torn_at = None;
        self.cfg.snapshot_latency
    }

    /// Crash the node this disk belongs to: a seeded prefix of the unsynced
    /// buffer makes it to the platter, the rest is lost, and with
    /// [`DiskConfig::torn_tail_pct`] probability the last record persisted
    /// is torn mid-write.
    pub fn crash(&mut self, rng: &mut StdRng) {
        let persisted = rng.random_range(0..self.buffered.len() as u64 + 1) as usize;
        let lucky = self.buffered.drain(..persisted);
        self.durable.extend(lucky);
        self.buffered.clear();
        if persisted > 0
            && self.torn_at.is_none()
            && rng.random_range(0..100u32) < self.cfg.torn_tail_pct
        {
            self.torn_at = Some(self.durable.len() - 1);
        }
    }

    /// Corrupt the last `records` readable durable records (a byzantine
    /// disk fault, injected independently of any crash). Returns whether
    /// anything was actually corrupted.
    pub fn corrupt_tail(&mut self, records: usize) -> bool {
        let readable = self.readable_len();
        if readable == 0 || records == 0 {
            return false;
        }
        self.torn_at = Some(readable - records.min(readable));
        true
    }

    /// Read the disk back after a restart: the snapshot plus the readable
    /// log (truncated at any torn record, which is also reported). The
    /// volatile buffer is discarded — a restart loses it by definition —
    /// and the torn tail is physically truncated so subsequent appends
    /// start from a clean log.
    pub fn recover(&mut self) -> DiskImage<R, S> {
        self.buffered.clear();
        let torn = self.torn_at.is_some();
        let readable = self.readable_len();
        self.durable.truncate(readable);
        self.torn_at = None;
        DiskImage {
            snapshot: self.snapshot.clone(),
            log: self.durable.clone(),
            torn_tail_detected: torn,
        }
    }

    /// Durable records that would survive a restart (excludes a torn tail).
    pub fn readable_len(&self) -> usize {
        self.torn_at.unwrap_or(self.durable.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn disk() -> Disk<u32, Vec<u32>> {
        Disk::new(DiskConfig::default())
    }

    #[test]
    fn append_fsync_recover_round_trip() {
        let mut d = disk();
        assert_eq!(d.append(1), DiskConfig::default().append_latency);
        d.append(2);
        d.fsync();
        let img = d.recover();
        assert_eq!(img.log, vec![1, 2]);
        assert!(img.snapshot.is_none());
        assert!(!img.torn_tail_detected);
    }

    #[test]
    fn unsynced_buffer_is_lost_on_restart() {
        let mut d = disk();
        d.append(1);
        d.fsync();
        d.append(2); // never synced
        let img = d.recover();
        assert_eq!(img.log, vec![1], "restart drops the volatile buffer");
    }

    #[test]
    fn snapshot_truncates_log() {
        let mut d = disk();
        d.append(1);
        d.fsync();
        d.snapshot(vec![10, 20]);
        d.append(3);
        d.fsync();
        let img = d.recover();
        assert_eq!(img.snapshot, Some(vec![10, 20]));
        assert_eq!(img.log, vec![3], "pre-snapshot records are gone");
    }

    #[test]
    fn crash_persists_a_seeded_prefix() {
        // With a wide-open buffer the persisted prefix length is a seeded
        // draw; the same seed must lose exactly the same suffix.
        let run = |seed: u64| {
            let mut d = disk();
            for i in 0..10 {
                d.append(i);
            }
            let mut rng = StdRng::seed_from_u64(seed);
            d.crash(&mut rng);
            let img = d.recover();
            (img.log, img.torn_tail_detected)
        };
        assert_eq!(run(7), run(7), "crash loss is deterministic per seed");
        let (log, _) = run(7);
        assert!(log.len() <= 10);
        let mut hit_torn = false;
        let mut hit_clean = false;
        for seed in 0..50 {
            let (_, torn) = run(seed);
            hit_torn |= torn;
            hit_clean |= !torn;
        }
        assert!(hit_torn, "some crashes tear the tail");
        assert!(hit_clean, "some crashes do not");
    }

    #[test]
    fn corrupt_tail_truncates_at_recovery() {
        let mut d = disk();
        for i in 0..5 {
            d.append(i);
        }
        d.fsync();
        assert!(d.corrupt_tail(2));
        assert_eq!(d.readable_len(), 3);
        let img = d.recover();
        assert_eq!(img.log, vec![0, 1, 2]);
        assert!(img.torn_tail_detected);
        // The tear is gone after recovery truncated it.
        let img2 = d.recover();
        assert!(!img2.torn_tail_detected);
        assert_eq!(img2.log, vec![0, 1, 2]);
    }

    #[test]
    fn corrupt_tail_on_empty_log_is_a_no_op() {
        let mut d = disk();
        assert!(!d.corrupt_tail(1));
        d.append(1); // buffered only — nothing durable to corrupt
        assert!(!d.corrupt_tail(1));
    }
}
