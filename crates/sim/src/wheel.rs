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
//! Popping walks an occupancy bitmap to the next non-empty bucket, swaps
//! its buffer with the emptied *run*'s (no copy, and no second buffer the
//! size of a page's burst), sorts it once by `(time, seq)`, and drains the
//! run front to back. Before the swap the emptied run is trimmed to the
//! power of two at or above the keys it last held (at least
//! `BUCKET_KEEP`): untrimmed, the buffers would trade capacities until each
//! held the largest page any bucket ever saw, and a fixed size would regrow
//! every busy page. Pages are sized to the traffic, as in Brown's calendar
//! queue: the service lanes below hold the node backlogs, so a ≈ 1 ms page
//! holds several events and they share one drain, while a key due on the
//! current page is binary-inserted into the live run.
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
//! Behind a deep backlog both ends of a lane are cold: the successor's arena
//! slot and the deque's front and tail lines were last touched a whole
//! backlog ago. So the hand-off prefetches the slot and the front's two
//! lines, and each `push_back` the line two past the tail, for writing.
//! Prefetching reads nothing and changes no order.
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
//! A key joining the deque gets a [`FarTicket`] (keys popped from the front
//! so far, plus its index): [`TimingWheel::cancel_far`] frees its payload
//! and marks it, and a marked key is dropped at the front, never bucketed,
//! sorted or popped. A key already promoted stays queued.
//!
//! ## Arena lifetimes
//!
//! Payloads live in a pre-allocated free-list arena ([`EventArena`]); the
//! buckets, run, lanes and overflow heap hold 24-byte keys only, so
//! sorting never moves payload bytes and popping never allocates. A key is
//! the only reference to its slot, which [`TimingWheel::pop_key`] hands
//! back with the payload in it to be read, keyed again or taken, or which
//! [`TimingWheel::cancel_far`] frees: slots carry no generation. The wheel
//! counts keys, not slots (a cancelled key no longer counts).

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Default page width: 2^20 ns ≈ 1.05 ms per bucket, several events per
/// page at the paper testbed's traffic (see the module docs).
pub const DEFAULT_BUCKET_SHIFT: u32 = 20;
/// Default wheel size: 2^8 = 256 buckets, so the horizon stays 2^28 ns
/// ≈ 268 ms and a 500 ms call deadline stays in the far lane.
pub const DEFAULT_BUCKET_BITS: u32 = 8;

/// Least room, in keys, a drained page's buffer keeps for the bucket it
/// goes back to (see the module docs).
const BUCKET_KEEP: usize = 16;

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

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::{_MM_HINT_ET0 as FOR_WRITE, _MM_HINT_T0 as FOR_READ};
#[cfg(not(target_arch = "x86_64"))]
const FOR_READ: i32 = 0;
#[cfg(not(target_arch = "x86_64"))]
const FOR_WRITE: i32 = 0;

/// Start moving the cache line `offset` bytes past `p` toward the core
/// (`FOR_WRITE`: exclusive, for a store), without waiting. A no-op off x86_64.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(unsafe_code)]
fn prefetch_line<const HINT: i32, P>(p: *const P, offset: usize) {
    // SAFETY: a prefetch never faults, whatever the address, and has no
    // architectural effect (it reads no value and writes nothing); SSE,
    // which provides it, is part of the x86_64 baseline.
    unsafe { core::arch::x86_64::_mm_prefetch::<HINT>(p.cast::<i8>().wrapping_add(offset)) }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn prefetch_line<const HINT: i32, P>(_: *const P, _: usize) {}

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

    /// The payload at `idx`, left in place; `None` if the slot is vacant.
    pub fn get_mut(&mut self, idx: u32) -> Option<&mut T> {
        match self.slots.get_mut(idx as usize)? {
            Slot::Full { payload } => Some(payload),
            Slot::Vacant { .. } => None,
        }
    }

    /// Ask for slot `idx` ahead of its use: both of its cache lines, as a
    /// slot may straddle two. A hint only — nothing is read.
    #[inline]
    fn prefetch(&self, idx: u32) {
        let slot = self.slots.as_ptr().wrapping_add(idx as usize);
        prefetch_line::<FOR_READ, _>(slot, 0);
        prefetch_line::<FOR_READ, _>(slot, size_of::<Slot<T>>() - 1);
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
    /// Far-lane keys retired by [`TimingWheel::cancel_far`] (for the
    /// simulator: deadlines of calls resolved first, never events).
    pub cancelled: u64,
    /// Arena telemetry.
    pub arena: ArenaStats,
}

/// Where a key waits in the far lane (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FarTicket(u64);

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
    /// through [`TimingWheel::push_far`], ascending by `(time, seq)`; a
    /// cancelled key's `idx` is `NO_SLOT`.
    far: VecDeque<EvKey>,
    /// Keys ever pushed onto `far`: the next ticket.
    far_pushed: u64,
    /// The current page's events, sorted ascending by `(time, seq)`;
    /// `run[..run_idx]` is already popped.
    run: Vec<EvKey>,
    run_idx: usize,
    /// Page of the run being drained; every live event has page >= this.
    cursor_page: u64,
    arena: EventArena<T>,
    /// Keys resident in `buckets`.
    wheel_count: usize,
    /// Keys anywhere in the wheel, its overflow level and its lanes.
    queued: usize,
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
    /// A wheel with the default geometry (256 buckets of ≈ 1.05 ms).
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
            far_pushed: 0,
            run: Vec::new(),
            run_idx: 0,
            cursor_page: 0,
            arena: EventArena::new(),
            wheel_count: 0,
            queued: 0,
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

    /// Queued event count: keys, not payloads (see the module docs).
    pub fn len(&self) -> usize {
        self.queued
    }

    /// True when no event is queued.
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
        self.queued = 0;
        self.lanes.clear();
        let arena = std::mem::take(&mut self.arena);
        // The high-water mark describes the run, not the payloads: it stays.
        self.arena.stats = arena.stats;
        arena
    }

    /// The payloads, where a slot [`TimingWheel::pop_key`] hands back is read.
    pub fn arena_mut(&mut self) -> &mut EventArena<T> {
        &mut self.arena
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
    #[inline]
    pub fn push(&mut self, time: SimTime, seq: u64, payload: T) {
        let idx = self.arena.alloc(payload);
        self.push_slot(time, seq, idx);
    }

    /// [`TimingWheel::push`] for the payload in arena slot `idx`, keyed nowhere else.
    #[inline]
    pub fn push_slot(&mut self, time: SimTime, seq: u64, idx: u32) {
        let key = self.key(time, seq, idx, NO_LANE);
        self.place(key);
    }

    /// [`TimingWheel::push_slot`] through service lane `lane`, for a
    /// producer whose times never decrease from one push to the next: same
    /// contract, same pop order. Only the lane's head occupies the wheel;
    /// later keys wait in the lane until the keys ahead of them have popped.
    pub fn push_lane(&mut self, lane: u32, time: SimTime, seq: u64, idx: u32) {
        let key = self.key(time, seq, idx, lane);
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
            prefetch_line::<FOR_WRITE, _>(l.waiting.back().expect("just pushed"), 128);
            self.stats.lane_high_water = self.stats.lane_high_water.max(l.waiting.len() as u64);
        } else {
            l.head_resident = true;
            self.place(key);
        }
    }

    /// [`TimingWheel::push`] for a producer whose keys beyond the horizon
    /// mostly arrive in order: such a key joins the far lane (see the
    /// module docs) when it is not before the lane's tail, and gets a ticket.
    pub fn push_far(&mut self, time: SimTime, seq: u64, payload: T) -> Option<FarTicket> {
        let idx = self.arena.alloc(payload);
        let key = self.key(time, seq, idx, NO_LANE);
        let beyond = self.page(time) >= self.cursor_page + self.horizon();
        if beyond && self.far.back().is_none_or(|tail| *tail <= key) {
            self.far.push_back(key);
            self.far_pushed += 1;
            Some(FarTicket(self.far_pushed - 1))
        } else {
            self.place(key);
            None
        }
    }

    /// Retire the far-lane key of `ticket` and hand back its payload, if
    /// the key still waits there (not promoted, popped or cancelled).
    pub fn cancel_far(&mut self, ticket: FarTicket) -> Option<T> {
        // The keys popped from the front are those pushed and gone.
        let at = (ticket.0 + self.far.len() as u64).checked_sub(self.far_pushed)?;
        let key = self.far.get_mut(at as usize).filter(|k| k.idx != NO_SLOT)?;
        let payload = self.arena.take(std::mem::replace(&mut key.idx, NO_SLOT));
        self.queued -= 1;
        self.stats.cancelled += 1;
        payload
    }

    /// The far lane's first key, once the cancelled ones before it are dropped.
    fn far_front(&mut self) -> Option<EvKey> {
        while self.far.front().is_some_and(|k| k.idx == NO_SLOT) {
            self.far.pop_front();
        }
        self.far.front().copied()
    }

    /// The key of a payload about to be queued.
    #[inline]
    fn key(&mut self, time: SimTime, seq: u64, idx: u32, lane: u32) -> EvKey {
        self.queued += 1;
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
        let (time, seq, idx) = self.pop_key()?;
        let payload = self.arena.take(idx).expect("queued key owns its slot");
        Some((time, seq, payload))
    }

    /// Pop the globally minimum key, `(time, seq, slot)`, leaving its
    /// payload in the slot for the caller to read, key again or take.
    #[inline]
    pub fn pop_key(&mut self) -> Option<(SimTime, u64, u32)> {
        let k = self.position()?;
        self.run_idx += 1;
        self.queued -= 1;
        if k.lane != NO_LANE {
            self.lane_popped(k.lane);
        }
        Some((k.time, k.seq, k.idx))
    }

    /// The head of `lane` popped: its successor, if any, becomes the head
    /// and moves into the wheel, and the cache lines it and the lane's new
    /// front will need are requested now (see the module docs). Out of
    /// line, so that `pop_key` stays small enough to inline into the run.
    #[inline(never)]
    fn lane_popped(&mut self, lane: u32) {
        let l = &mut self.lanes[lane as usize];
        match l.waiting.pop_front() {
            Some(next) => {
                if let Some(front) = l.waiting.front() {
                    prefetch_line::<FOR_READ, _>(front, 0);
                    prefetch_line::<FOR_READ, _>(front, 64);
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
            let earliest = heap_min.into_iter().chain(self.far_front()).min();
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
        // Trim, then swap, not `append`: see the module docs.
        let held = self.run.len();
        self.run.clear();
        self.run
            .shrink_to(held.next_power_of_two().max(BUCKET_KEEP));
        std::mem::swap(&mut self.run, &mut self.buckets[s]);
        self.occupied[s / 64] &= !(1u64 << (s % 64));
        self.wheel_count -= self.run.len();
        self.run_idx = 0;
        self.stats.bucket_sorts += 1;
        self.run.sort_unstable();
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
        while let Some(k) = self.far_front() {
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

    /// Store `payload` and push its slot through `lane`.
    fn push_lane<T>(w: &mut TimingWheel<T>, lane: u32, time: SimTime, seq: u64, payload: T) {
        let idx = w.arena_mut().alloc(payload);
        w.push_lane(lane, time, seq, idx);
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
    fn a_big_page_leaves_no_big_buffer_behind() {
        // A thousand keys on page 1, then one per page for three laps of
        // the 64 buckets: the page-1 buffer comes back as a run once a lap
        // and holds one key each time.
        let mut w: TimingWheel<u64> = TimingWheel::with_geometry(4, 6);
        for i in 0..1000u64 {
            w.push(t(16), i, i);
        }
        for page in 2..=200u64 {
            w.push(t(page * 16), 1000 + page, page);
        }
        while w.pop().is_some() {}
        assert!(w.buckets.iter().all(|b| b.capacity() <= BUCKET_KEEP));
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
            push_lane(&mut w, 0, t(100 * (i + 1)), i, i);
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
        push_lane(&mut w, 7, t(10), 0, 0);
        for seq in 1..=3 {
            push_lane(&mut w, 7, t(20), seq, seq);
        }
        w.push(t(20), 4, 4);
        push_lane(&mut w, 7, t(30), 5, 5);
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
        push_lane(&mut w, 0, t(20), 0, 0);
        push_lane(&mut w, 0, t(10), 1, 1);
    }

    #[test]
    fn a_popped_key_is_not_a_queued_event() {
        // What a scheduler's tie group does: pop a key and hold its slot
        // while it peeks for the next one. The held payload must not make
        // the wheel look non-empty, or `peek_key` advances into nothing.
        let mut w: TimingWheel<u32> = TimingWheel::with_geometry(4, 6);
        w.push(t(10), 0, 7);
        w.push(t(20), 1, 8);
        let (_, _, held) = w.pop_key().expect("two queued");
        assert_eq!(
            w.arena_mut().get_mut(held),
            Some(&mut 7),
            "payload stays in its slot"
        );
        assert_eq!(w.len(), 1);
        assert_eq!(w.peek_key(), Some((t(20), 1)));
        assert_eq!(w.pop().map(|x| x.2), Some(8));
        assert_eq!(w.peek_key(), None);
        assert!(w.is_empty() && w.arena_mut().live() == 1);
        assert_eq!(w.arena_mut().take(held), Some(7));
        assert_eq!(w.arena_mut().live(), 0, "take freed the held slot");
    }

    #[test]
    fn a_cancelled_far_key_is_never_popped_and_a_promoted_one_is() {
        // Tiny wheel (horizon 1024 ns): three far keys in order, the middle
        // one cancelled while it waits, the last once it was promoted.
        let mut w: TimingWheel<u32> = TimingWheel::with_geometry(4, 6);
        let tickets = [2000, 2100, 2200].map(|ns| w.push_far(t(ns), ns, ns as u32));
        let [a, b, c] = tickets.map(|k| k.expect("beyond the horizon, in order"));
        w.push(t(500), 1, 1);
        assert_eq!(w.cancel_far(b), Some(2100));
        assert_eq!(w.cancel_far(b), None, "a second cancel finds nothing");
        assert_eq!(w.len(), 3);
        assert_eq!(w.pop().map(|x| x.2), Some(1));
        // The cursor jumps to a's page: a and c are promoted, b dropped.
        assert_eq!(w.peek_key(), Some((t(2000), 2000)));
        assert_eq!(w.cancel_far(c), None, "a promoted key stays queued");
        let rest: Vec<u32> = std::iter::from_fn(|| w.pop().map(|x| x.2)).collect();
        assert_eq!(rest, [2000, 2200]);
        assert_eq!(w.cancel_far(a), None, "a popped key is gone");
        assert!(w.is_empty() && w.arena_mut().live() == 0);
        assert_eq!((w.stats().cancelled, w.stats().promotions), (1, 0));
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
