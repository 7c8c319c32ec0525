//! The one write-ahead log every durable replica keeps on its simulated
//! disk, generic over what a family logs.
//!
//! [`Wal<R, S>`] wraps a [`qrdtm_sim::Disk`] of log records `R` and
//! snapshots `S` and owns everything about durability that does not depend
//! on the record type: the latencies, the since-last-fsync and
//! since-last-snapshot policy counters, seeded crash loss, tail corruption,
//! group-commit latency samples, and the cost of reading the image back at
//! an amnesiac restart. A family keeps only its record and snapshot types
//! and the fold that turns a [`Replay`] into installable state: for QR,
//! [`WalRecord`] (one phase-2 application) folded into an install stream
//! by [`install_stream`]; for Q-Store, one whole batch per record.
//!
//! A *crash-restart-with-amnesia* (as opposed to the classic crash-pause)
//! wipes a replica's volatile state; the restart replays snapshot+log from
//! here, detects a torn tail if the crash (or a `corrupt-tail` fault)
//! damaged the last durable records, and hands the rest to the family's
//! repair protocol to catch up the lost suffix.

use rand::rngs::StdRng;

use qrdtm_sim::{Disk, DiskConfig, SimDuration};

use crate::object::{ObjVal, ObjectId, Version};

/// QR's group commit: the log is fsynced every this many appended records.
/// Q-Store does not use it: that family group-commits by construction, one
/// fsync per batch record.
const FSYNC_EVERY: usize = 4;

/// Durable-storage knobs (see `DtmConfig::durability`; `None` = replicas
/// are memory-only and a crash is a pause, today's classic behaviour).
#[derive(Clone, Copy, Debug)]
pub struct DurabilityConfig {
    /// Take a snapshot (and truncate the log) every N appended records.
    pub snapshot_every: usize,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig { snapshot_every: 64 }
    }
}

/// What a restarting replica reads back from its [`Wal`].
pub struct Replay<R, S> {
    /// The newest snapshot, if one was ever taken.
    pub snapshot: Option<S>,
    /// Readable log records after the snapshot, in append order, up to
    /// (and excluding) any torn record.
    pub records: Vec<R>,
    /// `records.len()`, kept for the accounting after a fold consumed them.
    pub records_replayed: u64,
    /// Whether a torn tail was detected (and truncated).
    pub torn_tail_detected: bool,
    /// Occupancy cost of reading the disk back: one append-cost per record
    /// scanned, plus the snapshot read if there was one.
    pub cost: SimDuration,
}

/// The write-ahead log one replica keeps on its simulated disk.
pub struct Wal<R, S> {
    cfg: DurabilityConfig,
    disk: Disk<R, S>,
    appends_since_fsync: usize,
    appends_since_snapshot: usize,
    /// Cost of each [`fsync`](Self::fsync), in nanoseconds — the real disk
    /// latencies behind the benchmark's fsync percentiles.
    sync_lat: Vec<u64>,
}

impl<R: Clone, S: Clone> Wal<R, S> {
    /// An empty log on a disk with [`DiskConfig::default`]'s latencies and
    /// torn-tail probability.
    pub fn new(cfg: DurabilityConfig) -> Self {
        Wal {
            cfg,
            disk: Disk::new(DiskConfig::default()),
            appends_since_fsync: 0,
            appends_since_snapshot: 0,
            sync_lat: Vec::new(),
        }
    }

    /// Bootstrap: persist `rec` as part of the initial durable image. Free
    /// of charge and outside the policy counters — preloading happens
    /// before the simulation starts.
    pub fn preload(&mut self, rec: R) {
        self.disk.append(rec);
        self.disk.fsync();
    }

    /// Append one record to the volatile log buffer; it becomes durable at
    /// the next [`fsync`](Self::fsync). Returns the occupancy cost.
    pub fn append(&mut self, rec: R) -> SimDuration {
        self.appends_since_fsync += 1;
        self.appends_since_snapshot += 1;
        self.disk.append(rec)
    }

    /// Whether `FSYNC_EVERY` (4) appends have accumulated.
    pub fn fsync_due(&self) -> bool {
        self.appends_since_fsync >= FSYNC_EVERY
    }

    /// Whether [`DurabilityConfig::snapshot_every`] appends have
    /// accumulated (the caller captures its state only when asked to).
    pub fn snapshot_due(&self) -> bool {
        self.appends_since_snapshot >= self.cfg.snapshot_every
    }

    /// Group commit: flush the buffer, then supersede the log with `snap`
    /// if the caller captured one. Returns the total occupancy cost, which
    /// is also sampled for [`sync_latencies`](Self::sync_latencies).
    pub fn fsync(&mut self, snap: Option<S>) -> SimDuration {
        let mut cost = self.disk.fsync();
        self.appends_since_fsync = 0;
        if let Some(s) = snap {
            cost += self.snapshot(s);
        }
        self.sync_lat.push(cost.as_nanos());
        cost
    }

    /// Write a full snapshot, superseding (and truncating) the log.
    /// Returns the occupancy cost.
    pub fn snapshot(&mut self, s: S) -> SimDuration {
        self.appends_since_fsync = 0;
        self.appends_since_snapshot = 0;
        self.disk.snapshot(s)
    }

    /// The node crashed: lose a seeded portion of the unsynced buffer,
    /// possibly tearing the last persisted record.
    pub fn crash(&mut self, rng: &mut StdRng) {
        self.disk.crash(rng);
        self.appends_since_fsync = 0;
    }

    /// Corrupt the last `records` readable durable records (the
    /// `corrupt-tail` chaos verb). Returns whether anything was corrupted.
    pub fn corrupt_tail(&mut self, records: usize) -> bool {
        self.disk.corrupt_tail(records)
    }

    /// Read the durable image back after an amnesiac restart. A torn
    /// record truncates the log there.
    pub fn replay(&mut self) -> Replay<R, S> {
        let img = self.disk.recover();
        let disk = self.disk.config();
        let records_replayed = img.log.len() as u64;
        let mut cost = disk.append_latency * records_replayed;
        if img.snapshot.is_some() {
            cost += disk.snapshot_latency;
        }
        Replay {
            snapshot: img.snapshot,
            records: img.log,
            records_replayed,
            torn_tail_detected: img.torn_tail_detected,
            cost,
        }
    }

    /// Cost of every [`fsync`](Self::fsync) so far, ns.
    pub fn sync_latencies(&self) -> &[u64] {
        &self.sync_lat
    }
}

/// QR's log record: one phase-2 application of a committed transaction's
/// write set — the installed `(oid, new version, value)` triples. Replay
/// reinstalls by version (idempotent `sync`), not by transaction identity.
#[derive(Clone, Debug)]
pub(crate) struct WalRecord {
    pub writes: Vec<(ObjectId, Version, ObjVal)>,
}

/// QR's snapshot: the full committed object table at snapshot time.
pub(crate) type SnapshotImage = Vec<(ObjectId, Version, ObjVal)>;

/// A QR replica's log.
pub(crate) type ReplicaWal = Wal<WalRecord, SnapshotImage>;

/// QR's fold: snapshot entries then log records, flattened into the
/// `(oid, version, value)` install stream to apply via `sync`.
pub(crate) fn install_stream(
    snapshot: Option<SnapshotImage>,
    records: Vec<WalRecord>,
) -> impl Iterator<Item = (ObjectId, Version, ObjVal)> {
    snapshot
        .into_iter()
        .flatten()
        .chain(records.into_iter().flat_map(|rec| rec.writes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Records and snapshots are opaque to the log: plain integers do.
    fn wal(snapshot_every: usize) -> Wal<u32, Vec<u32>> {
        Wal::new(DurabilityConfig { snapshot_every })
    }

    /// One append under the policy QR's apply path runs.
    fn apply(w: &mut Wal<u32, Vec<u32>>, rec: u32) {
        w.append(rec);
        if w.snapshot_due() {
            w.snapshot(vec![rec]);
        } else if w.fsync_due() {
            w.fsync(None);
        }
    }

    #[test]
    fn fsync_and_snapshot_policy_fire_on_schedule() {
        let mut w = wal(8);
        for rec in 1..FSYNC_EVERY as u32 {
            apply(&mut w, rec);
        }
        assert_eq!(w.disk.readable_len(), 0, "appends still buffered");
        apply(&mut w, 4);
        assert_eq!(w.disk.readable_len(), 4, "FSYNC_EVERY appends flushed");
        for rec in 5..=8 {
            apply(&mut w, rec);
        }
        assert_eq!(
            w.disk.readable_len(),
            0,
            "snapshot_every=8 truncated the log"
        );
        let img = w.replay();
        assert_eq!(img.records_replayed, 0);
        assert_eq!(img.snapshot, Some(vec![8]), "snapshot carries state");
        assert_eq!(img.cost, DiskConfig::default().snapshot_latency);
        apply(&mut w, 9);
        assert!(!w.fsync_due(), "the snapshot restarted both counters");
    }

    #[test]
    fn crash_loses_unsynced_tail_deterministically() {
        let run = |seed: u64| {
            // One fsync after the fourth append leaves three unsynced.
            let mut w = wal(1000);
            for i in 0..7 {
                apply(&mut w, i);
            }
            w.crash(&mut StdRng::seed_from_u64(seed));
            let img = w.replay();
            (img.records, img.torn_tail_detected)
        };
        assert_eq!(run(3), run(3));
        assert!(run(3).0.len() <= 7);
    }

    #[test]
    fn corrupt_tail_is_detected_on_replay() {
        let mut w = wal(8);
        for rec in 1..=4 {
            apply(&mut w, rec); // fsynced after the fourth
        }
        assert!(w.corrupt_tail(1));
        let img = w.replay();
        assert!(img.torn_tail_detected);
        assert_eq!(img.records, vec![1, 2, 3], "tail truncated at the tear");
        assert_eq!(img.cost, DiskConfig::default().append_latency * 3);
    }

    #[test]
    fn group_commit_samples_feed_the_fsync_telemetry() {
        let d = DiskConfig::default();
        let mut w = wal(2);
        w.append(1);
        w.fsync(None);
        w.append(2);
        w.fsync(Some(vec![2]));
        assert_eq!(
            w.sync_latencies(),
            &[
                d.fsync_latency.as_nanos(),
                (d.fsync_latency + d.snapshot_latency).as_nanos()
            ],
            "a policy snapshot is part of its group commit's sample"
        );
        w.snapshot(vec![2]);
        assert_eq!(w.sync_latencies().len(), 2, "full-state installs are not");
    }

    #[test]
    fn preloads_survive_replay() {
        let mut w = ReplicaWal::new(DurabilityConfig::default());
        w.preload(WalRecord {
            writes: vec![(ObjectId(7), Version::INITIAL, ObjVal::Int(100))],
        });
        let img = w.replay();
        assert!(!img.torn_tail_detected);
        assert_eq!(
            install_stream(img.snapshot, img.records).collect::<Vec<_>>(),
            vec![(ObjectId(7), Version::INITIAL, ObjVal::Int(100))]
        );
    }
}
