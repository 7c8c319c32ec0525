//! Bucketed timing wheel with an overflow level — the O(1) event core.
//!
//! A calendar queue in the NS-3 / shadow lineage: virtual time is divided
//! into power-of-two *pages* of `1 << bucket_shift` nanoseconds, and a
//! window of `1 << bucket_bits` consecutive pages (the *horizon*) maps onto
//! a circular array of buckets. Scheduling an event inside the horizon is
//! an O(1) append; events beyond the horizon go to a small overflow heap
//! (the second, coarse level of the hierarchy) and are *promoted* into the
//! wheel as the cursor approaches their page.
//!
//! Popping walks an occupancy bitmap to the next non-empty bucket, sorts
//! that bucket once by `(time, seq)` into the *run*, and then drains the
//! run front to back. Because the simulator's sequence numbers are
//! globally monotonic, appends within a bucket arrive nearly sorted and
//! the sort is usually a no-op scan.
//!
//! ## Tie-order contract
//!
//! The wheel is a drop-in replacement for a `BinaryHeap` ordered by
//! `(time, seq)`: pops come out in exactly that total order, including
//! FIFO (`seq`) order among events due at the same instant. Events
//! scheduled *at* the instant currently being drained are inserted into
//! the undrained suffix of the run by binary search, which preserves the
//! invariant — this is what keeps [`Scheduler`](crate::Scheduler)
//! tie-groups and model-checker choice vectors byte-identical between the
//! heap and the wheel.
//!
//! ## Service lanes
//!
//! A producer whose events are already in `(time, seq)` order among
//! themselves — a node's FIFO service queue, whose completion instants
//! never decrease — schedules through [`TimingWheel::push_lane`]. Only the
//! lane's **head**, its oldest unpopped key, is resident in the wheel; the
//! keys behind it wait in push order in a per-lane deque, payloads staying
//! in their arena slots, and the `pop` that removes the head moves its
//! successor in. Every waiting key is later than the resident head of its
//! own lane, so it can never be the global minimum: pop order is the same
//! total order as if every key had gone through [`TimingWheel::push`],
//! while a backlog thousands deep never touches the buckets or the
//! overflow heap. Keys of one lane due at the *same* instant need no
//! special case: the successor is resident before `pop` returns, hence
//! before the next [`TimingWheel::peek_key`], so a caller collecting a
//! same-instant group by peek-and-pop (the `Scheduler` tie groups) finds
//! every member.
//!
//! The hand-off is also the one place that knows which payload pops next
//! with a few events of lead time. Behind a deep backlog the successor's
//! arena slot and the lane's new front were last touched a whole backlog
//! ago, so the hand-off prefetches both; a lane with no successor issues
//! nothing. Prefetching reads nothing and changes no order.
//!
//! ## The far lane
//!
//! The overflow level has a FIFO side for a producer whose far keys arrive
//! in `(time, seq)` order — RPC deadlines, `now + d` for a constant `d`
//! past the horizon. [`TimingWheel::push_far`] appends a key that is beyond
//! the horizon and not before the deque's tail, and is a plain push
//! otherwise; promotion takes from the deque's front as from the heap's
//! top, so pop order is the same total order with no sift per key. The
//! deque is the wheel's own second level, not a service lane: it is outside
//! [`WheelStats::lane_high_water`], and `promotions` counts heap traffic
//! only.
//!
//! ## Arena lifetimes
//!
//! Payloads live in a pre-allocated free-list arena ([`EventArena`]); the
//! buckets, run, lanes and overflow heap hold 24-byte keys only, so
//! sorting never moves payload bytes and popping never allocates. A slot
//! is recycled the moment its event is popped. Nothing outlives a pop — no
//! handle is handed out and nothing is cancelled — so slots carry no
//! generation: each key is the only reference to its slot.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Default page width: 2^16 ns = 65.536 µs per bucket.
pub const DEFAULT_BUCKET_SHIFT: u32 = 16;
/// Default wheel size: 2^12 = 4096 buckets (horizon ≈ 268 ms).
pub const DEFAULT_BUCKET_BITS: u32 = 12;

const NO_SLOT: u32 = u32::MAX;
/// `EvKey::lane` of an event pushed outside any lane.
const NO_LANE: u32 = u32::MAX;

/// Key of one scheduled event: total order is `(time, seq)`; `idx` is the
/// arena slot holding the payload and `lane` the service lane the event
/// was pushed through (or `NO_LANE`) — neither participates in ordering.
#[derive(Clone, Copy, Debug)]
struct EvKey {
    time: SimTime,
    seq: u64,
    idx: u32,
    lane: u32,
}

impl EvKey {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl PartialEq for EvKey {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for EvKey {}
impl PartialOrd for EvKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EvKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

enum Slot<T> {
    Vacant { next_free: u32 },
    Full { payload: T },
}

/// Start moving the cache line holding `p` toward the core, without
/// waiting for it. Compiles to nothing off x86_64.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(unsafe_code)]
fn prefetch_line<P>(p: *const P) {
    use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    // SAFETY: a prefetch never faults, whatever the address, and has no
    // architectural effect (it reads no value and writes nothing); SSE,
    // which provides it, is part of the x86_64 baseline.
    unsafe { _mm_prefetch::<_MM_HINT_T0>(p.cast()) }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn prefetch_line<P>(_: *const P) {}

/// Free-list slab holding event payloads; see the module docs for the
/// lifetime story.
pub struct EventArena<T> {
    slots: Vec<Slot<T>>,
    free_head: u32,
    live: usize,
    stats: ArenaStats,
}

/// Occupancy telemetry of an [`EventArena`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Most slots ever live at once (arena high-water mark).
    pub high_water: u64,
}

impl<T> Default for EventArena<T> {
    fn default() -> Self {
        EventArena::new()
    }
}

impl<T> EventArena<T> {
    /// An empty arena.
    pub fn new() -> Self {
        EventArena {
            slots: Vec::new(),
            free_head: NO_SLOT,
            live: 0,
            stats: ArenaStats::default(),
        }
    }

    /// Store `payload`, returning its slot index.
    pub fn alloc(&mut self, payload: T) -> u32 {
        self.live += 1;
        self.stats.high_water = self.stats.high_water.max(self.live as u64);
        if self.free_head != NO_SLOT {
            let idx = self.free_head;
            let slot = &mut self.slots[idx as usize];
            match slot {
                Slot::Vacant { next_free } => self.free_head = *next_free,
                Slot::Full { .. } => unreachable!("free list points at a full slot"),
            }
            *slot = Slot::Full { payload };
            idx
        } else {
            let idx = u32::try_from(self.slots.len()).expect("arena overflow");
            self.slots.push(Slot::Full { payload });
            idx
        }
    }

    /// Remove and return the payload at `idx`, freeing the slot for reuse;
    /// `None` if the slot is vacant. An index is good for exactly one
    /// `take`: once freed, the slot may be handed to a newer payload.
    #[inline]
    pub fn take(&mut self, idx: u32) -> Option<T> {
        let slot = self.slots.get_mut(idx as usize)?;
        if matches!(slot, Slot::Vacant { .. }) {
            return None;
        }
        let next_free = std::mem::replace(&mut self.free_head, idx);
        let Slot::Full { payload } = std::mem::replace(slot, Slot::Vacant { next_free }) else {
            unreachable!("checked Full above")
        };
        self.live -= 1;
        Some(payload)
    }

    /// Ask for slot `idx` ahead of its `take`: both of its cache lines, as
    /// a slot may straddle two. A hint only — nothing is read.
    #[inline]
    fn prefetch(&self, idx: u32) {
        let slot = self.slots.as_ptr().wrapping_add(idx as usize);
        prefetch_line(slot);
        prefetch_line(slot.cast::<u8>().wrapping_add(size_of::<Slot<T>>() - 1));
    }

    /// Live (allocated, not yet taken) payload count.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Occupancy telemetry.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }
}

/// Lifetime telemetry of a [`TimingWheel`] (surfaced through
/// [`Metrics::queue`](crate::Metrics)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WheelStats {
    /// Events promoted overflow heap → wheel as the cursor advanced.
    pub promotions: u64,
    /// Buckets drained into the run and sorted.
    pub bucket_sorts: u64,
    /// Most keys ever waiting in one service lane behind its head
    /// (for the simulator: the deepest node mailbox).
    pub lane_high_water: u64,
    /// Arena telemetry.
    pub arena: ArenaStats,
}

/// One FIFO service lane (see the module docs).
#[derive(Default)]
struct Lane {
    /// Whether the lane's head — its oldest unpopped key — is in the wheel.
    /// `waiting` is non-empty only while it is.
    head_resident: bool,
    /// The keys behind the head, in push order.
    waiting: VecDeque<EvKey>,
    /// Time of the latest push, for the monotonicity check.
    tail_time: SimTime,
}

/// The two-level timing wheel. Generic over the payload so property tests
/// can drive it with plain integers; the simulator instantiates it with
/// its event kind.
pub struct TimingWheel<T> {
    bucket_shift: u32,
    slot_mask: u64,
    buckets: Box<[Vec<EvKey>]>,
    /// One bit per bucket: set iff the bucket Vec is non-empty.
    occupied: Box<[u64]>,
    overflow: BinaryHeap<Reverse<EvKey>>,
    /// The overflow level's FIFO side: keys beyond the horizon pushed
    /// through [`TimingWheel::push_far`], ascending by `(time, seq)`.
    far: VecDeque<EvKey>,
    /// The current page's events, sorted ascending by `(time, seq)`;
    /// `run[..run_idx]` is already popped.
    run: Vec<EvKey>,
    run_idx: usize,
    /// Page of the run being drained; every live event has page >= this.
    cursor_page: u64,
    arena: EventArena<T>,
    /// Keys resident in `buckets`.
    wheel_count: usize,
    /// Service lanes by index, grown on first use.
    lanes: Vec<Lane>,
    stats: WheelStats,
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        TimingWheel::new()
    }
}

impl<T> TimingWheel<T> {
    /// A wheel with the default geometry (4096 buckets of 65.536 µs).
    pub fn new() -> Self {
        TimingWheel::with_geometry(DEFAULT_BUCKET_SHIFT, DEFAULT_BUCKET_BITS)
    }

    /// A wheel with `1 << bucket_bits` buckets of `1 << bucket_shift`
    /// nanoseconds each. Small geometries stress the overflow level in
    /// tests; `bucket_shift + bucket_bits` must stay below 64.
    pub fn with_geometry(bucket_shift: u32, bucket_bits: u32) -> Self {
        assert!(bucket_bits >= 6 && bucket_shift + bucket_bits < 64);
        let n = 1usize << bucket_bits;
        TimingWheel {
            bucket_shift,
            slot_mask: (n as u64) - 1,
            buckets: (0..n).map(|_| Vec::new()).collect(),
            occupied: vec![0u64; n / 64].into_boxed_slice(),
            overflow: BinaryHeap::new(),
            far: VecDeque::new(),
            run: Vec::new(),
            run_idx: 0,
            cursor_page: 0,
            arena: EventArena::new(),
            wheel_count: 0,
            lanes: Vec::new(),
            stats: WheelStats::default(),
        }
    }

    #[inline]
    fn page(&self, t: SimTime) -> u64 {
        t.wheel_page(self.bucket_shift)
    }

    #[inline]
    fn slot(&self, page: u64) -> usize {
        (page & self.slot_mask) as usize
    }

    #[inline]
    fn horizon(&self) -> u64 {
        self.slot_mask + 1
    }

    /// Live event count.
    pub fn len(&self) -> usize {
        self.arena.live()
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Empty the wheel, handing back every queued payload for the caller to
    /// drop. Allocates nothing.
    pub(crate) fn take_events(&mut self) -> EventArena<T> {
        self.buckets.iter_mut().for_each(Vec::clear);
        self.occupied.fill(0);
        self.overflow.clear();
        self.far.clear();
        self.run.clear();
        self.run_idx = 0;
        self.wheel_count = 0;
        self.lanes.clear();
        std::mem::take(&mut self.arena)
    }

    /// Telemetry snapshot.
    pub fn stats(&self) -> WheelStats {
        let mut s = self.stats;
        s.arena = self.arena.stats();
        s
    }

    /// Schedule `payload` at `(time, seq)`. `seq` must be unique across the
    /// wheel's lifetime and callers must never schedule before an already
    /// popped instant's page (the simulator guarantees both: `seq` is its
    /// global creation counter and events are never scheduled in the past).
    pub fn push(&mut self, time: SimTime, seq: u64, payload: T) {
        let key = self.admit(time, seq, NO_LANE, payload);
        self.place(key);
    }

    /// Schedule `payload` at `(time, seq)` through service lane `lane`:
    /// same contract and same pop order as [`TimingWheel::push`], for a
    /// producer whose times never decrease from one push to the next.
    /// Only the lane's head occupies the wheel; later keys wait in the lane
    /// until the keys ahead of them have popped.
    pub fn push_lane(&mut self, lane: u32, time: SimTime, seq: u64, payload: T) {
        let key = self.admit(time, seq, lane, payload);
        let li = lane as usize;
        if li >= self.lanes.len() {
            self.lanes.resize_with(li + 1, Lane::default);
        }
        let l = &mut self.lanes[li];
        debug_assert!(
            time >= l.tail_time,
            "lane {lane}: key at {time:?} pushed behind {:?}; a lane's producer must be \
             monotone (a node's `busy_until` only ever moves forward)",
            l.tail_time
        );
        l.tail_time = time;
        if l.head_resident {
            l.waiting.push_back(key);
            self.stats.lane_high_water = self.stats.lane_high_water.max(l.waiting.len() as u64);
        } else {
            l.head_resident = true;
            self.place(key);
        }
    }

    /// [`TimingWheel::push`] for a producer whose keys beyond the horizon
    /// mostly arrive in order: such a key joins the far lane (see the
    /// module docs) when it is not before the lane's tail.
    pub fn push_far(&mut self, time: SimTime, seq: u64, payload: T) {
        let key = self.admit(time, seq, NO_LANE, payload);
        let beyond = self.page(time) >= self.cursor_page + self.horizon();
        if beyond && self.far.back().is_none_or(|tail| *tail <= key) {
            self.far.push_back(key);
        } else {
            self.place(key);
        }
    }

    /// Give the payload its arena slot and key.
    #[inline]
    fn admit(&mut self, time: SimTime, seq: u64, lane: u32, payload: T) -> EvKey {
        let idx = self.arena.alloc(payload);
        EvKey {
            time,
            seq,
            idx,
            lane,
        }
    }

    /// Key `(time, seq)` of the next event, without consuming it. May
    /// internally advance the cursor, promote overflow entries, and sort
    /// a bucket.
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        self.position().map(|k| k.key())
    }

    /// Pop the globally minimum `(time, seq)` event.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        let k = self.position()?;
        self.run_idx += 1;
        let payload = self.arena.take(k.idx).expect("queued key owns its slot");
        if k.lane != NO_LANE {
            self.lane_popped(k.lane);
        }
        Some((k.time, k.seq, payload))
    }

    /// The head of `lane` popped: its successor, if any, becomes the head
    /// and moves into the wheel, and the cache lines it and the lane's new
    /// front will need are requested now (see the module docs). Out of
    /// line, so that `pop` stays small enough to inline into the run loop.
    #[inline(never)]
    fn lane_popped(&mut self, lane: u32) {
        let l = &mut self.lanes[lane as usize];
        match l.waiting.pop_front() {
            Some(next) => {
                if let Some(front) = l.waiting.front() {
                    prefetch_line(front);
                }
                self.arena.prefetch(next.idx);
                self.place(next);
            }
            None => l.head_resident = false,
        }
    }

    /// Put `key` where its page says: the live run, a bucket, or the
    /// overflow level.
    #[inline]
    fn place(&mut self, key: EvKey) {
        let p = self.page(key.time);
        if p <= self.cursor_page {
            // The event lands on the page currently draining (or, under a
            // clock anomaly, behind it): keep the run sorted by inserting
            // into the undrained suffix. Everything before `run_idx` is
            // strictly older in (time, seq), so total order is preserved.
            let at = self.run[self.run_idx..].partition_point(|k| k.key() < key.key());
            self.run.insert(self.run_idx + at, key);
        } else if p - self.cursor_page < self.horizon() {
            self.bucket_insert(key, p);
        } else {
            self.overflow.push(Reverse(key));
        }
    }

    #[inline]
    fn bucket_insert(&mut self, key: EvKey, page: u64) {
        let s = self.slot(page);
        if self.buckets[s].is_empty() {
            self.occupied[s / 64] |= 1u64 << (s % 64);
        }
        self.buckets[s].push(key);
        self.wheel_count += 1;
    }

    /// Advance past exhausted pages until `run_idx` rests on a key;
    /// returns that key.
    #[inline]
    fn position(&mut self) -> Option<EvKey> {
        loop {
            if let Some(&k) = self.run.get(self.run_idx) {
                return Some(k);
            }
            if self.is_empty() {
                return None;
            }
            self.advance();
        }
    }

    /// Move the cursor to the next non-empty page and drain its bucket
    /// into the run. Caller ensures at least one live event exists.
    fn advance(&mut self) {
        self.promote();
        if self.wheel_count == 0 {
            // Nothing within the horizon: jump the cursor so the earliest
            // overflow page becomes the next scan position, then pull the
            // newly in-horizon entries in.
            let heap_min = self.overflow.peek().map(|k| k.0);
            let earliest = heap_min.into_iter().chain(self.far.front().copied()).min();
            self.cursor_page = self.page(earliest.expect("live events exist").time) - 1;
            self.promote();
        }
        let s0 = self.slot(self.cursor_page + 1);
        let s = self
            .next_occupied_slot(s0)
            .expect("wheel_count > 0 after promotion");
        // Within the horizon every resident page maps to a distinct slot,
        // so the wrap distance from the scan origin recovers the page.
        let delta = (s as u64).wrapping_sub(s0 as u64) & self.slot_mask;
        self.cursor_page = self.cursor_page + 1 + delta;
        let bucket = &mut self.buckets[s];
        self.run.clear();
        self.run.append(bucket);
        self.occupied[s / 64] &= !(1u64 << (s % 64));
        self.wheel_count -= self.run.len();
        self.run_idx = 0;
        self.stats.bucket_sorts += 1;
        // Appends arrive in seq order and times within one page correlate
        // with creation order, so the common case is already sorted.
        if !self.run.windows(2).all(|w| w[0].key() <= w[1].key()) {
            self.run.sort_unstable();
        }
    }

    /// First occupied bucket slot at or after `from`, scanning the bitmap
    /// circularly (one full lap); `None` when every bucket is empty.
    fn next_occupied_slot(&self, from: usize) -> Option<usize> {
        let words = self.occupied.len();
        let n = words * 64;
        // Partial first word: mask off bits below `from`.
        let w0 = from / 64;
        let first = self.occupied[w0] & (!0u64 << (from % 64));
        if first != 0 {
            return Some(w0 * 64 + first.trailing_zeros() as usize);
        }
        for step in 1..=words {
            let wi = (w0 + step) % words;
            let w = if wi == w0 {
                // Wrapped back to the origin word: only bits below `from`
                // remain unexamined.
                self.occupied[wi] & !(!0u64 << (from % 64))
            } else {
                self.occupied[wi]
            };
            if w != 0 {
                return Some((wi * 64 + w.trailing_zeros() as usize) % n);
            }
        }
        None
    }

    /// Pull every overflow entry, of the heap and of the far lane, whose
    /// page is now within the horizon into its bucket.
    fn promote(&mut self) {
        let limit = self.cursor_page + self.horizon();
        while let Some(Reverse(k)) = self.overflow.peek() {
            let p = self.page(k.time);
            if p >= limit {
                break;
            }
            let Reverse(k) = self.overflow.pop().expect("peeked");
            self.bucket_insert(k, p);
            self.stats.promotions += 1;
        }
        while let Some(&k) = self.far.front() {
            let p = self.page(k.time);
            if p >= limit {
                break;
            }
            self.far.pop_front();
            self.bucket_insert(k, p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime(ns)
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w: TimingWheel<u32> = TimingWheel::with_geometry(4, 6);
        w.push(t(100), 0, 0);
        w.push(t(50), 1, 1);
        w.push(t(100), 2, 2);
        w.push(t(50), 3, 3);
        let order: Vec<u32> = std::iter::from_fn(|| w.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, vec![1, 3, 0, 2]);
    }

    #[test]
    fn overflow_promotion_is_exact() {
        // Tiny wheel: 64 buckets of 16 ns → horizon 1024 ns.
        let mut w: TimingWheel<u64> = TimingWheel::with_geometry(4, 6);
        for i in 0..200u64 {
            w.push(t(i * 37 % 5000), i, i);
        }
        let mut last = (SimTime::ZERO, 0u64);
        let mut n = 0;
        while let Some((time, seq, _)) = w.pop() {
            assert!((time, seq) > last || n == 0, "order regressed");
            last = (time, seq);
            n += 1;
        }
        assert_eq!(n, 200);
        assert!(w.stats().promotions > 0, "sweep crosses the horizon");
    }

    #[test]
    fn same_instant_insert_during_drain_keeps_fifo() {
        let mut w: TimingWheel<u32> = TimingWheel::with_geometry(4, 6);
        w.push(t(32), 0, 0);
        w.push(t(32), 1, 1);
        assert_eq!(w.pop().map(|x| x.2), Some(0));
        // Schedule at the instant being drained: must slot between the
        // remaining seq-1 event only per (time, seq) order.
        w.push(t(32), 2, 2);
        w.push(t(33), 3, 3);
        assert_eq!(w.pop().map(|x| x.2), Some(1));
        assert_eq!(w.pop().map(|x| x.2), Some(2));
        assert_eq!(w.pop().map(|x| x.2), Some(3));
    }

    #[test]
    fn arena_recycles_freed_slots() {
        let mut a: EventArena<String> = EventArena::new();
        let i0 = a.alloc("first".into());
        assert_eq!(a.take(i0), Some("first".into()));
        assert_eq!(a.take(i0), None, "a taken slot is vacant");
        let i1 = a.alloc("second".into());
        assert_eq!(i1, i0, "slot recycled");
        assert_eq!(a.take(i1), Some("second".into()));
        assert_eq!(a.stats().high_water, 1);
    }

    #[test]
    fn lane_keeps_only_its_head_in_the_wheel() {
        // Tiny wheel (horizon 1024 ns) and a lane reaching 100x past it:
        // no lane key overflows, because only one is resident at a time,
        // and a plain event in between still pops in its place.
        let mut w: TimingWheel<u64> = TimingWheel::with_geometry(4, 6);
        for i in 0..1000u64 {
            w.push_lane(0, t(100 * (i + 1)), i, i);
        }
        w.push(t(250), 1000, 1000);
        assert_eq!(w.stats().lane_high_water, 999);
        assert_eq!(w.len(), 1001);
        let order: Vec<u64> = std::iter::from_fn(|| w.pop().map(|x| x.2)).collect();
        let mut want: Vec<u64> = (0..1000).collect();
        want.insert(2, 1000);
        assert_eq!(order, want);
        assert_eq!(w.stats().promotions, 0);
    }

    #[test]
    fn same_instant_lane_keys_are_all_visible_to_peek_and_pop() {
        // Keys 1..=3 of one lane share an instant with plain key 4. A
        // caller collecting the instant by peek-and-pop (a scheduler's tie
        // group) must get all four, in seq order.
        let mut w: TimingWheel<u64> = TimingWheel::new();
        w.push_lane(7, t(10), 0, 0);
        for seq in 1..=3 {
            w.push_lane(7, t(20), seq, seq);
        }
        w.push(t(20), 4, 4);
        w.push_lane(7, t(30), 5, 5);
        assert_eq!(w.pop().map(|x| x.2), Some(0));
        let mut group = Vec::new();
        while w.peek_key().map(|(time, _)| time) == Some(t(20)) {
            group.push(w.pop().expect("peeked").2);
        }
        assert_eq!(group, vec![1, 2, 3, 4]);
        assert_eq!(w.pop().map(|x| x.2), Some(5));
        assert!(w.pop().is_none() && w.is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must be monotone")]
    fn lane_push_behind_its_tail_is_diagnosed() {
        let mut w: TimingWheel<u64> = TimingWheel::new();
        w.push_lane(0, t(20), 0, 0);
        w.push_lane(0, t(10), 1, 1);
    }

    #[test]
    fn far_future_jump_lands_on_the_right_page() {
        let mut w: TimingWheel<u32> = TimingWheel::with_geometry(4, 6);
        w.push(t(1 << 30), 0, 7);
        w.push(t((1 << 30) + 1), 1, 8);
        assert_eq!(w.peek_key(), Some((t(1 << 30), 0)));
        assert_eq!(w.pop().map(|x| x.2), Some(7));
        assert_eq!(w.pop().map(|x| x.2), Some(8));
    }
}
