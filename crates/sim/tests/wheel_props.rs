//! Property tests for the timing wheel against a sorted-vec oracle:
//! arbitrary interleaved schedule/pop sequences — plain pushes, pushes
//! through FIFO service lanes and through the far lane — never lose an event, never reorder
//! equal-timestamp events, and promote overflow entries exactly; plus the
//! arena recycle property (a freed slot is reused, and every live payload
//! stays reachable through its own index only).

use proptest::prelude::*;
use qrdtm_sim::wheel::{EventArena, TimingWheel};
use qrdtm_sim::SimTime;

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
    /// Pop the minimum (no-op when empty).
    Pop,
    /// What `Sim::apply_scheduler` does at a tie: pop every event due at
    /// the head's instant, keep the `pick`-th, push the rest back at that
    /// instant under their original seqs (as plain events).
    PopTieGroup { pick: usize },
}

const LANES: u32 = 3;

fn op_strategy() -> impl Strategy<Value = Op> {
    // dt mix: same-instant ties (0), sub-bucket, in-horizon, and far past
    // the horizon of the test geometry (shift 4, 64 buckets → horizon
    // 1024 ns) to force overflow promotion on every run. Repeated arms
    // stand in for weights (the vendored stub picks uniformly).
    prop_oneof![
        (0u64..4096).prop_map(|dt| Op::Push { dt }),
        (0u64..4096).prop_map(|dt| Op::Push { dt }),
        (0u64..64).prop_map(|dt| Op::Push { dt }),
        prop_oneof![Just(0u64), Just(1), Just(16), Just(1 << 13), Just(1 << 20)]
            .prop_map(|dt| Op::Push { dt }),
        // Lane steps: ties (0), sub-bucket, a few buckets, and past the
        // horizon, so a released head lands in the live run, a bucket and
        // the overflow level.
        (
            0u32..LANES,
            prop_oneof![Just(0u64), Just(0), 0u64..16, 0u64..200]
        )
            .prop_map(|(lane, dt)| Op::PushLane { lane, dt }),
        (
            0u32..LANES,
            prop_oneof![Just(0u64), 0u64..16, 0u64..200, Just(1 << 11)]
        )
            .prop_map(|(lane, dt)| Op::PushLane { lane, dt }),
        // Far-lane steps: mostly one duration past the horizon (monotone,
        // the lane's case), sometimes a shorter far one (behind the tail:
        // the heap), an in-horizon one and a same-page one (plain pushes).
        prop_oneof![Just(3000u64), Just(3000), Just(1500), Just(200), Just(3)]
            .prop_map(|dt| Op::PushFar { dt }),
        prop_oneof![Just(3000u64), Just(3000), Just(1500), Just(200), Just(3)]
            .prop_map(|dt| Op::PushFar { dt }),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Pop),
        (0usize..8).prop_map(|pick| Op::PopTieGroup { pick }),
    ]
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn wheel_matches_sorted_vec_oracle(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        // Tiny geometry so 300 ops cross many pages and the overflow level.
        let mut w: TimingWheel<u64> = TimingWheel::with_geometry(4, 6);
        let mut oracle = Oracle { live: Vec::new() };
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut payload = 0u64;
        let mut lane_last = [0u64; LANES as usize];

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
                    w.push_far(SimTime(t), seq, payload);
                    oracle.live.push((t, seq, payload));
                    seq += 1;
                    payload += 1;
                }
                Op::PushLane { lane, dt } => {
                    let last = &mut lane_last[lane as usize];
                    let t = now.max(*last) + dt;
                    *last = t;
                    w.push_lane(lane, SimTime(t), seq, payload);
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
                Op::PopTieGroup { pick } => {
                    let Some(head) = w.pop() else { continue };
                    prop_assert!(head.0.as_nanos() >= now, "time went backwards");
                    now = head.0.as_nanos();
                    let mut group = vec![head];
                    while w.peek_key().map(|(t, _)| t) == Some(head.0) {
                        group.push(w.pop().expect("peeked"));
                    }
                    // The group is every live event due now, in seq order:
                    // a lane must not hold part of an instant back.
                    let mut due: Vec<_> =
                        oracle.live.iter().copied().filter(|e| e.0 == now).collect();
                    due.sort_unstable();
                    let got: Vec<_> =
                        group.iter().map(|&(t, s, p)| (t.as_nanos(), s, p)).collect();
                    prop_assert_eq!(&got, &due, "tie group diverged from oracle");
                    let (_, chosen, _) = group.swap_remove(pick % group.len());
                    oracle.live.retain(|e| e.1 != chosen);
                    for (t, s, p) in group {
                        w.push(t, s, p);
                    }
                }
            }
            prop_assert_eq!(w.len(), oracle.live.len(), "live count diverged");
        }

        // Drain: everything still queued must come out in exact order.
        while let Some(want) = oracle.pop_min() {
            let got = w.pop().map(|(t, s, p)| (t.as_nanos(), s, p));
            prop_assert_eq!(got, Some(want), "drain diverged from oracle");
        }
        prop_assert!(w.pop().is_none(), "wheel had events the oracle did not");
        prop_assert!(w.is_empty());
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
