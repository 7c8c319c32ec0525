//! Property tests for the timing wheel against a sorted-vec oracle:
//! arbitrary interleaved schedule/cancel/pop sequences never lose an
//! event, never reorder equal-timestamp events, and promote overflow
//! entries exactly; plus the arena recycle property (a freed slot can be
//! reused, but a stale handle can never observe the new tenant).

use proptest::prelude::*;
use qrdtm_sim::wheel::{EventArena, TimingWheel, WheelHandle};
use qrdtm_sim::SimTime;

/// One step of an interleaved workload, drawn by proptest.
#[derive(Clone, Debug)]
enum Op {
    /// Schedule at `now + dt` (dt spans sub-bucket to far-beyond-horizon).
    Push { dt: u64 },
    /// Pop the minimum (no-op when empty).
    Pop,
    /// Cancel the `i % live`-th oldest outstanding event (no-op when none).
    Cancel { i: usize },
}

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
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Pop),
        (0usize..64).prop_map(|i| Op::Cancel { i }),
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
        let mut handles: Vec<(WheelHandle, u64, u64, u64)> = Vec::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut payload = 0u64;

        for op in ops {
            match op {
                Op::Push { dt } => {
                    let t = now + dt;
                    let h = w.push(SimTime(t), seq, payload);
                    oracle.live.push((t, seq, payload));
                    handles.push((h, t, seq, payload));
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
                Op::Cancel { i } => {
                    if handles.is_empty() {
                        continue;
                    }
                    let (h, t, s, p) = handles.remove(i % handles.len());
                    let live = oracle.live.iter().position(|e| e.1 == s);
                    let got = w.cancel(h);
                    match live {
                        Some(j) => {
                            prop_assert_eq!(got, Some(p), "cancelled wrong payload");
                            oracle.live.remove(j);
                            let _ = t;
                        }
                        // Already popped: the stale handle must be refused.
                        None => prop_assert_eq!(got, None, "stale cancel succeeded"),
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
    fn arena_recycle_never_leaks_stale_payloads(
        ops in proptest::collection::vec((0u8..2, 0usize..32), 1..200)
    ) {
        // Free/alloc churn: a payload must only ever be observable through
        // the handle it was allocated under, even as slots recycle.
        let mut arena: EventArena<u64> = EventArena::new();
        let mut live: Vec<(u32, u64, u64)> = Vec::new(); // (idx, seq, payload)
        let mut freed: Vec<(u32, u64)> = Vec::new();
        let mut seq = 0u64;
        for (kind, i) in ops {
            if kind == 0 || live.is_empty() {
                let idx = arena.alloc(seq, seq * 1000);
                live.push((idx, seq, seq * 1000));
                seq += 1;
            } else {
                let (idx, s, p) = live.remove(i % live.len());
                prop_assert_eq!(arena.take(idx, s), Some(p), "live take returned wrong payload");
                freed.push((idx, s));
            }
            // Every stale handle stays dead, even if its slot was reused.
            for &(idx, s) in &freed {
                prop_assert!(
                    !live.iter().any(|&(_, ls, _)| ls == s),
                    "seq reused across allocations"
                );
                prop_assert_eq!(arena.take(idx, s), None, "stale handle resurrected a slot");
            }
            prop_assert_eq!(arena.live(), live.len());
        }
        prop_assert!(arena.stats().high_water as usize <= seq as usize);
    }
}
