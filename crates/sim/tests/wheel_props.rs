//! Property tests for the timing wheel against a sorted-vec oracle:
//! arbitrary interleaved schedule/pop sequences — plain pushes, pushes
//! through FIFO service lanes and through the far lane, far keys cancelled,
//! popped slots held and keyed again — never lose an event, never pop a
//! cancelled one, never reorder equal-timestamp events, and promote
//! overflow entries exactly, on a tiny geometry and on the default one;
//! plus the
//! arena recycle property (a freed slot is reused, and every live payload
//! stays reachable through its own index only).

use proptest::prelude::*;
use qrdtm_sim::wheel::{
    EventArena, FarTicket, TimingWheel, DEFAULT_BUCKET_BITS, DEFAULT_BUCKET_SHIFT,
};
use qrdtm_sim::SimTime;
use std::collections::VecDeque;

/// One step of an interleaved workload, drawn by proptest.
#[derive(Clone, Debug)]
enum Op {
    /// Schedule at `now + dt` (dt spans sub-bucket to far-beyond-horizon).
    Push { dt: u64 },
    /// Schedule through service lane `lane` at `max(now, the lane's last
    /// time) + dt`: per-lane times never decrease, as a node's completion
    /// instants never do. `dt == 0` makes same-instant groups in a lane.
    PushLane { lane: u32, dt: u64 },
    /// Schedule at `now + dt` through the far lane, as
    /// `SimInner::schedule_timeout` does: the wheel queues the key FIFO when
    /// it is beyond the horizon and not before the lane's tail, and pushes
    /// it plainly otherwise.
    PushFar { dt: u64 },
    /// What resolving a call does to its deadline: cancel the key of one
    /// ticket `push_far` returned (the `pick`-th, modulo those not yet
    /// cancelled; no-op when none). A key still waiting in the far lane
    /// leaves the wheel with its payload; one already promoted or popped
    /// is not touched.
    CancelFar { pick: usize },
    /// Pop the minimum (no-op when empty).
    Pop,
    /// Pop the minimum key and hold its slot, the payload left in it (no-op
    /// when empty).
    Hold,
    /// What admitting a request does: key the oldest held slot (or, with
    /// none held, the slot of a key popped now) again through service lane
    /// `lane`, at a later, lane-monotone time under a fresh seq.
    Rekey { lane: u32, dt: u64 },
    /// Take the payload out of the oldest held slot (no-op when none).
    Take,
    /// What `Sim::apply_scheduler` does at a tie: pop every key due at
    /// the head's instant, keep the `pick`-th, push the rest back at that
    /// instant under their original seqs (as plain keys of the same slots).
    PopTieGroup { pick: usize },
}

const LANES: u32 = 3;

/// The tiny test geometry: 64 buckets of 16 ns, so 300 ops cross many pages
/// and the overflow level.
const TINY: (u32, u32) = (4, 6);

/// `ops` for a wheel of `1 << bucket_bits` pages of `1 << shift` ns. The dt
/// mix is scaled to the page `p` and the horizon `h`: same-instant ties (0),
/// sub-page, in-horizon, and far past the horizon, to force overflow
/// promotion on every run. At the tiny geometry (p = 16, h = 1024) the
/// values are 0, 16, 200, 1500, 3000, 4096 and so on. Repeated arms stand in
/// for weights (the vendored stub picks uniformly).
fn op_strategy((shift, bits): (u32, u32)) -> impl Strategy<Value = Op> {
    let (p, h) = (1u64 << shift, 1u64 << (shift + bits));
    // A lane's step of a dozen pages (200 ns at the tiny geometry), and the
    // far lane's durations: one past the horizon, one shorter but still
    // past it, one inside it and one within the page.
    let (step, far, near) = (p * 25 / 2, h * 3000 / 1024, h * 1500 / 1024);
    let far_dt = move || {
        prop_oneof![
            Just(far),
            Just(far),
            Just(near),
            Just(step),
            Just(p * 3 / 16)
        ]
    };
    prop_oneof![
        (0..4 * h).prop_map(|dt| Op::Push { dt }),
        (0..4 * h).prop_map(|dt| Op::Push { dt }),
        (0..4 * p).prop_map(|dt| Op::Push { dt }),
        prop_oneof![Just(0u64), Just(1), Just(p), Just(8 * h), Just(1024 * h)]
            .prop_map(|dt| Op::Push { dt }),
        // Lane steps: ties (0), sub-page, a few pages, and past the
        // horizon, so a released head lands in the live run, a bucket and
        // the overflow level.
        (0u32..LANES, prop_oneof![Just(0u64), Just(0), 0..p, 0..step])
            .prop_map(|(lane, dt)| Op::PushLane { lane, dt }),
        (
            0u32..LANES,
            prop_oneof![Just(0u64), 0..p, 0..step, Just(2 * h)]
        )
            .prop_map(|(lane, dt)| Op::PushLane { lane, dt }),
        // Far-lane steps: mostly one duration past the horizon (monotone,
        // the lane's case), sometimes a shorter far one (behind the tail:
        // the heap), an in-horizon one and a same-page one (plain pushes).
        far_dt().prop_map(|dt| Op::PushFar { dt }),
        far_dt().prop_map(|dt| Op::PushFar { dt }),
        (0usize..8).prop_map(|pick| Op::CancelFar { pick }),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Hold),
        (0u32..LANES, prop_oneof![Just(0u64), 0..step])
            .prop_map(|(lane, dt)| Op::Rekey { lane, dt }),
        Just(Op::Take),
        (0usize..8).prop_map(|pick| Op::PopTieGroup { pick }),
    ]
}

/// A burst onto the next page, out of time order, one pop (that page's
/// drain), and a second burst onto the page being drained: every case at
/// the default geometry sorts a drained page and binary-inserts into the
/// live run before its random ops start. (Page 0 is the cursor's page from
/// the start, so a burst onto it would go straight into the live run.)
fn page_bursts(shift: u32) -> Vec<Op> {
    let p = 1u64 << shift;
    let burst = |from: u64, step: u64| {
        (0..32u64).map(move |i| Op::Push {
            dt: from + (i * 37 % 32) * step,
        })
    };
    let mut ops: Vec<Op> = burst(p, p / 64).collect();
    ops.push(Op::Pop);
    ops.extend(burst(0, p / 128));
    ops
}

/// Oracle entry: `(time, seq, payload)`; the expected pop order is the
/// ascending `(time, seq)` sort.
struct Oracle {
    live: Vec<(u64, u64, u64)>,
}

impl Oracle {
    fn pop_min(&mut self) -> Option<(u64, u64, u64)> {
        let i = self
            .live
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (e.0, e.1))
            .map(|(i, _)| i)?;
        Some(self.live.remove(i))
    }
}

/// Pop the minimum key, check it and the payload left in its slot against
/// the oracle, and hand back `(slot, payload)`; `None` when both are empty.
fn pop_key(w: &mut TimingWheel<u64>, oracle: &mut Oracle, now: &mut u64) -> Option<(u32, u64)> {
    let got = w.pop_key();
    let want = oracle.pop_min();
    let got_full = got.map(|(t, s, slot)| {
        (
            t.as_nanos(),
            s,
            *w.arena_mut().get_mut(slot).expect("popped"),
        )
    });
    prop_assert_eq!(got_full, want, "pop_key diverged from oracle");
    let (t, _, p) = want?;
    prop_assert!(t >= *now, "time went backwards");
    *now = t;
    got.map(|(_, _, slot)| (slot, p))
}

/// Run `ops` on `w` and on the oracle side by side: every pop, held slot,
/// queued count and arena count must agree, and so must the final drain.
fn check_against_oracle(mut w: TimingWheel<u64>, ops: Vec<Op>) {
    let mut oracle = Oracle { live: Vec::new() };
    let mut now = 0u64;
    let mut seq = 0u64;
    let mut payload = 0u64;
    let mut lane_last = [0u64; LANES as usize];
    // Popped slots not yet keyed again or taken: (slot, payload).
    let mut held: VecDeque<(u32, u64)> = VecDeque::new();
    // Far-lane tickets not yet cancelled: (ticket, seq, payload).
    let mut tickets: Vec<(FarTicket, u64, u64)> = Vec::new();

    for op in ops {
        match op {
            Op::Push { dt } => {
                let t = now + dt;
                w.push(SimTime(t), seq, payload);
                oracle.live.push((t, seq, payload));
                seq += 1;
                payload += 1;
            }
            Op::PushFar { dt } => {
                let t = now + dt;
                if let Some(ticket) = w.push_far(SimTime(t), seq, payload) {
                    tickets.push((ticket, seq, payload));
                }
                oracle.live.push((t, seq, payload));
                seq += 1;
                payload += 1;
            }
            Op::CancelFar { pick } => {
                if tickets.is_empty() {
                    continue;
                }
                let (ticket, s, p) = tickets.swap_remove(pick % tickets.len());
                if let Some(got) = w.cancel_far(ticket) {
                    prop_assert_eq!(got, p, "cancel handed back another payload");
                    let before = oracle.live.len();
                    oracle.live.retain(|e| e.1 != s);
                    prop_assert_eq!(oracle.live.len() + 1, before, "cancelled a popped key");
                }
            }
            Op::PushLane { lane, dt } => {
                let last = &mut lane_last[lane as usize];
                let t = now.max(*last) + dt;
                *last = t;
                let slot = w.arena_mut().alloc(payload);
                w.push_lane(lane, SimTime(t), seq, slot);
                oracle.live.push((t, seq, payload));
                seq += 1;
                payload += 1;
            }
            Op::Pop => {
                let got = w.pop();
                let want = oracle.pop_min();
                prop_assert_eq!(
                    got.map(|(t, s, p)| (t.as_nanos(), s, p)),
                    want,
                    "pop diverged from oracle"
                );
                if let Some((t, _, _)) = want {
                    prop_assert!(t >= now, "time went backwards");
                    now = t;
                }
            }
            Op::Hold => {
                if let Some(popped) = pop_key(&mut w, &mut oracle, &mut now) {
                    held.push_back(popped);
                }
            }
            Op::Rekey { lane, dt } => {
                let popped = held.pop_front();
                let popped = popped.or_else(|| pop_key(&mut w, &mut oracle, &mut now));
                let Some((slot, p)) = popped else { continue };
                let last = &mut lane_last[lane as usize];
                let t = now.max(*last) + dt;
                *last = t;
                w.push_lane(lane, SimTime(t), seq, slot);
                oracle.live.push((t, seq, p));
                seq += 1;
            }
            Op::Take => {
                if let Some((slot, p)) = held.pop_front() {
                    prop_assert_eq!(w.arena_mut().take(slot), Some(p), "held payload lost");
                }
            }
            Op::PopTieGroup { pick } => {
                let Some(head) = w.pop_key() else { continue };
                prop_assert!(head.0.as_nanos() >= now, "time went backwards");
                now = head.0.as_nanos();
                let mut group = vec![head];
                while w.peek_key().map(|(t, _)| t) == Some(head.0) {
                    group.push(w.pop_key().expect("peeked"));
                }
                // The group is every live event due now, in seq order:
                // a lane must not hold part of an instant back.
                let mut due: Vec<_> = oracle.live.iter().copied().filter(|e| e.0 == now).collect();
                due.sort_unstable();
                let got: Vec<_> = group
                    .iter()
                    .map(|&(t, s, slot)| {
                        (t.as_nanos(), s, *w.arena_mut().get_mut(slot).expect("held"))
                    })
                    .collect();
                prop_assert_eq!(&got, &due, "tie group diverged from oracle");
                let (_, chosen, slot) = group.swap_remove(pick % group.len());
                oracle.live.retain(|e| e.1 != chosen);
                for (t, s, slot) in group {
                    w.push_slot(t, s, slot);
                }
                prop_assert!(w.arena_mut().take(slot).is_some());
            }
        }
        prop_assert_eq!(w.len(), oracle.live.len(), "queued count diverged");
        prop_assert_eq!(
            w.arena_mut().live(),
            w.len() + held.len(),
            "arena holds a lost slot"
        );
    }

    // Drain: everything still queued must come out in exact order, and
    // every held slot still holds its own payload.
    while let Some(want) = oracle.pop_min() {
        let got = w.pop().map(|(t, s, p)| (t.as_nanos(), s, p));
        prop_assert_eq!(got, Some(want), "drain diverged from oracle");
    }
    prop_assert!(w.pop().is_none(), "wheel had events the oracle did not");
    prop_assert!(w.is_empty());
    for (slot, p) in held {
        prop_assert_eq!(w.arena_mut().take(slot), Some(p), "held payload lost");
    }
    prop_assert_eq!(w.arena_mut().live(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn wheel_matches_sorted_vec_oracle(ops in proptest::collection::vec(op_strategy(TINY), 1..300)) {
        check_against_oracle(TimingWheel::with_geometry(TINY.0, TINY.1), ops);
    }

    #[test]
    fn wheel_matches_sorted_vec_oracle_at_the_default_geometry(
        ops in proptest::collection::vec(op_strategy((DEFAULT_BUCKET_SHIFT, DEFAULT_BUCKET_BITS)), 1..300)
    ) {
        let mut all = page_bursts(DEFAULT_BUCKET_SHIFT);
        all.extend(ops);
        let w = TimingWheel::new();
        check_against_oracle(w, all);
    }

    #[test]
    fn equal_timestamp_events_stay_fifo(
        events in proptest::collection::vec((0u64..64, 0usize..4), 2..80)
    ) {
        // Many events `(instant, pick)` on few distinct instants: within
        // one instant, pops must come out in push (seq) order — and must
        // keep doing so under the pattern `Sim::run_until` uses to offer
        // tie groups to an mc scheduler: pop every event due at `now`,
        // dispatch the one at the scheduler's pick, push the rest back at
        // `now` under their original seqs.
        let mut w: TimingWheel<usize> = TimingWheel::with_geometry(4, 6);
        for (i, &(t, _)) in events.iter().enumerate() {
            w.push(SimTime(t * 8), i as u64, i);
        }
        let mut now = SimTime::ZERO;
        let mut dispatched = vec![false; events.len()];
        while let Some(head) = w.pop() {
            prop_assert!(head.0 >= now, "time went backwards");
            now = head.0;
            let pick = events[head.2].1;
            let mut group = vec![head];
            while w.peek_key().map(|(t, _)| t) == Some(now) {
                group.push(w.pop().expect("peeked"));
            }
            for pair in group.windows(2) {
                prop_assert!(pair[0].1 < pair[1].1, "tie group out of seq order");
            }
            let due = (0..events.len())
                .filter(|&i| SimTime(events[i].0 * 8) == now && !dispatched[i])
                .count();
            prop_assert_eq!(group.len(), due, "tie group lost or gained an event");
            let (_, s, p) = group.swap_remove(pick % group.len());
            prop_assert_eq!(s as usize, p);
            prop_assert!(!dispatched[p], "event dispatched twice");
            dispatched[p] = true;
            for (t, s, p) in group {
                w.push(t, s, p);
            }
        }
        prop_assert!(dispatched.iter().all(|&d| d), "event never dispatched");
    }

    #[test]
    fn arena_recycle_never_loses_or_aliases_payloads(
        ops in proptest::collection::vec((0u8..2, 0usize..32), 1..200)
    ) {
        // Free/alloc churn: every live payload is reachable through its own
        // index and no other, freed slots are vacant until recycled, and a
        // recycled slot serves its new tenant.
        let mut arena: EventArena<u64> = EventArena::new();
        let mut live: Vec<(u32, u64)> = Vec::new(); // (idx, payload)
        let mut vacant: Vec<u32> = Vec::new();
        let mut next = 0u64;
        for (kind, i) in ops {
            if kind == 0 || live.is_empty() {
                let idx = arena.alloc(next);
                prop_assert!(!live.iter().any(|&(l, _)| l == idx), "live slot handed out twice");
                if !vacant.is_empty() {
                    prop_assert!(vacant.contains(&idx), "grew while slots were free");
                    vacant.retain(|&v| v != idx);
                }
                live.push((idx, next));
                next += 1;
            } else {
                let (idx, p) = live.remove(i % live.len());
                prop_assert_eq!(arena.take(idx), Some(p), "live take returned wrong payload");
                prop_assert_eq!(arena.take(idx), None, "freed slot still served a payload");
                vacant.push(idx);
            }
            prop_assert_eq!(arena.live(), live.len());
        }
        prop_assert!(arena.stats().high_water <= next);
        for (idx, p) in live {
            prop_assert_eq!(arena.take(idx), Some(p), "payload lost or aliased in the churn");
        }
    }
}
