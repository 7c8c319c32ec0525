//! Seeded fault-plan generation and plan shrinking.
//!
//! [`generate`] samples a random but *bounded* plan from a
//! [`FaultBudget`] of [`FaultClass`] counts: every injected fault is paired
//! with its cure inside the plan horizon, so a generated plan always ends
//! with a healthy network (the nemesis additionally heals everything at
//! the horizon as a backstop). [`shrink`] minimizes a
//! failing sequence — a plan's events here, a model-checked schedule's
//! picks in `qrdtm-mc` — with the classic delta-debugging moves: smallest
//! failing prefix, then greedy single-position cuts, re-running the (fully
//! deterministic) repro closure at each step.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use qrdtm_sim::SimDuration;

use crate::plan::{FaultEvent, FaultKind, FaultPlan};

/// One class of generated fault, paired with the cure that ends it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    /// Crash, cured by a recover.
    Crash,
    /// Partition into two sides, cured by a heal.
    Partition,
    /// Per-link message loss, cured by a heal-link.
    Drop,
    /// Per-link latency spike, cured by a heal-link.
    Delay,
    /// Slow node (a gray failure), cured by a restore.
    Slow,
    /// Amnesiac crash, half the time after a torn log tail, cured by a
    /// recover.
    Amnesia,
    /// Offered-load surge (open-loop runs only), cured by a calm.
    Surge,
    /// Flash crowd on one node (open-loop runs only), cured by a calm.
    FlashCrowd,
}

impl FaultClass {
    /// Every class, in the order [`generate`] draws them.
    pub const ALL: [FaultClass; 8] = [
        FaultClass::Crash,
        FaultClass::Partition,
        FaultClass::Drop,
        FaultClass::Delay,
        FaultClass::Slow,
        FaultClass::Amnesia,
        FaultClass::Surge,
        FaultClass::FlashCrowd,
    ];

    /// Whether a target may be subjected to this class. Gray and load
    /// faults violate no protocol's assumption. Crashes, partitions and
    /// lossy links need a membership view to reconfigure: the paper is
    /// explicit that the baselines keep none (TFA has single-copy home
    /// nodes; Decent-STM as modelled has no recovery protocol), so
    /// subjecting them would only reconfirm their stated assumptions.
    /// Amnesia needs a durable view, with a disk to restart from.
    pub fn admitted(self, has_view: bool, durable: bool) -> bool {
        match self {
            FaultClass::Crash | FaultClass::Partition | FaultClass::Drop => has_view,
            FaultClass::Amnesia => has_view && durable,
            FaultClass::Delay | FaultClass::Slow | FaultClass::Surge | FaultClass::FlashCrowd => {
                true
            }
        }
    }

    /// Draw one fault of this class on `nodes` nodes, and its cure.
    fn draw(self, rng: &mut StdRng, nodes: u32) -> (FaultKind, FaultKind) {
        let node = |rng: &mut StdRng| rng.random_range(0..nodes);
        let link = |rng: &mut StdRng| {
            let from = rng.random_range(0..nodes);
            let mut to = rng.random_range(0..nodes);
            if to == from {
                to = (to + 1) % nodes;
            }
            (from, to)
        };
        match self {
            FaultClass::Crash => {
                let node = node(rng);
                (FaultKind::Crash { node }, FaultKind::Recover { node })
            }
            FaultClass::Partition => {
                // A random cut: k consecutive ids (mod n) on one side, rest
                // on the other. Both sides are non-empty by construction.
                let k = rng.random_range(1..nodes);
                let off = rng.random_range(0..nodes);
                let side: Vec<u32> = (0..k).map(|i| (off + i) % nodes).collect();
                let rest: Vec<u32> = (0..nodes).filter(|n| !side.contains(n)).collect();
                let groups = vec![side, rest];
                (FaultKind::Partition { groups }, FaultKind::Heal)
            }
            FaultClass::Drop => {
                let (from, to) = link(rng);
                let permille = rng.random_range(200..601) as u16;
                let drop = FaultKind::DropLink { from, to, permille };
                (drop, FaultKind::HealLink { from, to })
            }
            FaultClass::Delay => {
                let (from, to) = link(rng);
                let extra_us = rng.random_range(5_000..40_000u64);
                let delay = FaultKind::Delay { from, to, extra_us };
                (delay, FaultKind::HealLink { from, to })
            }
            FaultClass::Slow => {
                let node = node(rng);
                let factor_pct = rng.random_range(200..800);
                let slow = FaultKind::Slow { node, factor_pct };
                (slow, FaultKind::Restore { node })
            }
            FaultClass::Amnesia => {
                let node = node(rng);
                let crash = FaultKind::CrashAmnesia { node };
                (crash, FaultKind::Recover { node })
            }
            FaultClass::Surge => {
                let factor_pct = rng.random_range(300..900);
                (FaultKind::Surge { factor_pct }, FaultKind::Calm)
            }
            FaultClass::FlashCrowd => (FaultKind::FlashCrowd { node: node(rng) }, FaultKind::Calm),
        }
    }
}

/// How many faults of each [`FaultClass`] a generated plan may contain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultBudget {
    counts: [usize; FaultClass::ALL.len()],
}

impl FaultBudget {
    /// Spread `n` faults round-robin over `classes`, in their order.
    pub fn spread(n: usize, classes: &[FaultClass]) -> Self {
        let mut counts = [0; FaultClass::ALL.len()];
        for &class in classes.iter().cycle().take(n) {
            counts[class as usize] += 1;
        }
        FaultBudget { counts }
    }

    /// Overload mix for open-loop runs: surges and flash crowds, plus
    /// gray failures to compose with (a slow node under a flash crowd is
    /// the scenario closed-loop drivers can never produce).
    pub fn overload(n: usize) -> Self {
        let classes = [
            FaultClass::Surge,
            FaultClass::FlashCrowd,
            FaultClass::Slow,
            FaultClass::Delay,
        ];
        Self::spread(n, &classes)
    }
}

/// Sample a random fault plan: each budgeted fault starts somewhere in the
/// first ~60% of `horizon` and is cured after a random span, no later than
/// ~90% of `horizon`. Classes are drawn in [`FaultClass::ALL`] order, each
/// fault's parameters before its window. Deterministic per `(seed, nodes,
/// horizon, budget)`.
pub fn generate(seed: u64, nodes: u32, horizon: SimDuration, budget: &FaultBudget) -> FaultPlan {
    assert!(
        nodes >= 2,
        "need at least two nodes to break things between"
    );
    // Decorrelate from workload RNG streams seeded with the same value.
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xc4a05);
    let h = horizon.as_nanos();
    let mut events = Vec::new();
    for class in FaultClass::ALL {
        for _ in 0..budget.counts[class as usize] {
            let (fault, cure) = class.draw(&mut rng, nodes);
            // Quantized to whole microseconds so plans survive the text
            // format.
            let t0 = rng.random_range(h / 20..h * 6 / 10) / 1_000 * 1_000;
            let dur = rng.random_range(h / 10..h * 3 / 10);
            let at = SimDuration::from_nanos(t0);
            let cured = SimDuration::from_nanos((t0 + dur).min(h * 9 / 10) / 1_000 * 1_000);
            // Half the amnesiac crashes also damage the durable tail first,
            // so recovery exercises both the clean-replay and the torn-tail
            // repair paths. Pushed before the crash at the same offset —
            // the plan's stable sort keeps insertion order for equal times.
            if let FaultKind::CrashAmnesia { node } = fault {
                if rng.random_bool(0.5) {
                    let kind = FaultKind::CorruptTail { node };
                    events.push(FaultEvent { at, kind });
                }
            }
            events.push(FaultEvent { at, kind: fault });
            events.push(FaultEvent {
                at: cured,
                kind: cure,
            });
        }
    }
    FaultPlan::new(events)
}

/// Minimize a failing sequence — a plan's events, a schedule's picks.
/// `fails(candidate)` must deterministically re-run the scenario and report
/// whether the violation reproduces; `cut(seq, i)` is `seq` made smaller at
/// position `i` ([`drop_at`] for a plan), `None` when it cannot be. First
/// the shortest failing prefix, starting from the empty one, then one
/// greedy pass from the tail (a plan's cures sort late) keeping each cut
/// that still fails. Precondition: `fails(seq)`. With nothing smaller
/// failing, returns the input.
pub fn shrink<T: Clone>(
    seq: &[T],
    cut: impl Fn(&[T], usize) -> Option<Vec<T>>,
    mut fails: impl FnMut(&[T]) -> bool,
) -> Vec<T> {
    let k = (0..seq.len()).find(|&k| fails(&seq[..k]));
    let mut best = seq[..k.unwrap_or(seq.len())].to_vec();
    let mut i = best.len();
    while i > 0 {
        i -= 1;
        if let Some(cand) = cut(&best, i).filter(|cand| fails(cand)) {
            best = cand;
            i = i.min(best.len());
        }
    }
    best
}

/// [`shrink`]'s cut for a plan: `seq` without event `i`.
pub fn drop_at<T: Clone>(seq: &[T], i: usize) -> Option<Vec<T>> {
    let mut cand = seq.to_vec();
    cand.remove(i);
    Some(cand)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Proto;
    use qrdtm_core::NestingMode;

    /// Every node and link fault: a memory-only view's budget.
    fn full(n: usize) -> FaultBudget {
        Proto::Qr(NestingMode::Flat).budget(n, false)
    }

    #[test]
    fn generation_is_deterministic_and_bounded() {
        let horizon = SimDuration::from_secs(4);
        let b = full(7);
        assert_eq!(b.counts, [2, 2, 1, 1, 1, 0, 0, 0], "FaultClass::ALL order");
        let a = generate(11, 13, horizon, &b);
        let b2 = generate(11, 13, horizon, &b);
        assert_eq!(a, b2, "same seed, same plan");
        assert_ne!(a, generate(12, 13, horizon, &full(7)));
        assert_eq!(a.len(), 14, "every fault has a paired cure");
        for ev in &a.events {
            assert!(ev.at <= horizon, "events stay inside the horizon");
        }
    }

    /// Pins the exact plans: a draw moved, added or dropped changes every
    /// later value of the stream, and with it the text of some plan.
    #[test]
    fn generated_plans_are_pinned() {
        let budgets = [
            Proto::Qr(NestingMode::Flat).budget(12, false),
            Proto::Qr(NestingMode::Flat).budget(12, true),
            Proto::Tfa.budget(12, false),
            FaultBudget::overload(12),
        ];
        let mut hashes = Vec::new();
        for seed in 1..=3 {
            for b in &budgets {
                let text = generate(seed, 10, SimDuration::from_secs(2), b).to_text();
                hashes.push(qrdtm_sim::fnv(text.bytes().map(u64::from)));
            }
        }
        // FNV-1a of each plan's text, seeds 1-3 by budget (node and link
        // faults, the same with amnesia, gray faults only, overload).
        let pinned: [u64; 12] = [
            0xdc85_ed2a_a0f5_0115,
            0x9884_9b41_8137_8b70,
            0x70e1_b5e9_d311_36d4,
            0x3be9_b99d_bee2_da76,
            0xe055_4ec6_2b72_8695,
            0xaa82_96a0_0620_07c8,
            0xea57_aa47_5b37_061e,
            0x8fa5_1614_4108_697d,
            0xf3b1_8c40_a723_f67e,
            0x0986_5b3a_64ce_5a57,
            0x8dc6_1579_a964_50da,
            0xaccc_1af3_c2df_bfa6,
        ];
        assert_eq!(hashes, pinned);
    }

    #[test]
    fn gray_budget_generates_only_gray_faults() {
        let p = generate(
            3,
            10,
            SimDuration::from_secs(2),
            &Proto::Tfa.budget(6, false),
        );
        for ev in &p.events {
            assert!(
                matches!(
                    ev.kind,
                    FaultKind::Delay { .. }
                        | FaultKind::Slow { .. }
                        | FaultKind::HealLink { .. }
                        | FaultKind::Restore { .. }
                ),
                "non-gray event {:?}",
                ev.kind
            );
        }
    }

    #[test]
    fn generated_plans_round_trip_through_text() {
        for seed in 0..8 {
            let p = generate(seed, 13, SimDuration::from_secs(3), &full(6));
            assert_eq!(FaultPlan::parse(&p.to_text()).unwrap(), p);
        }
    }

    #[test]
    fn overload_budget_pairs_every_surge_with_a_calm() {
        let b = FaultBudget::overload(8);
        assert_eq!(b.counts, [0, 0, 0, 2, 2, 0, 2, 2], "FaultClass::ALL order");
        for seed in 0..6 {
            let p = generate(seed, 10, SimDuration::from_secs(3), &b);
            let mut loads = 0;
            let mut calms = 0;
            for ev in &p.events {
                match ev.kind {
                    FaultKind::Surge { factor_pct } => {
                        assert!((300..900).contains(&factor_pct));
                        loads += 1;
                    }
                    FaultKind::FlashCrowd { node } => {
                        assert!(node < 10);
                        loads += 1;
                    }
                    FaultKind::Calm => calms += 1,
                    _ => {}
                }
            }
            assert_eq!(loads, 4);
            assert_eq!(calms, 4, "every overload verb comes with a calm");
            assert_eq!(FaultPlan::parse(&p.to_text()).unwrap(), p);
        }
    }

    #[test]
    fn durable_budget_generates_amnesia_units() {
        let b = Proto::QStore.budget(12, true);
        assert_eq!(b.counts, [2, 2, 2, 2, 2, 2, 0, 0], "FaultClass::ALL order");
        let mut amnesias = 0;
        let mut recovers_for_amnesia = 0;
        for seed in 0..6 {
            let p = generate(seed, 10, SimDuration::from_secs(3), &b);
            let mut crashed: Vec<u32> = Vec::new();
            for ev in &p.events {
                match ev.kind {
                    FaultKind::CrashAmnesia { node } => {
                        amnesias += 1;
                        crashed.push(node);
                    }
                    FaultKind::Recover { node } if crashed.contains(&node) => {
                        recovers_for_amnesia += 1;
                    }
                    FaultKind::CorruptTail { node } => {
                        // Corruption always precedes its crash (same offset,
                        // stable sort keeps insertion order).
                        assert!(
                            p.events.iter().any(
                                |e| e.at >= ev.at && e.kind == FaultKind::CrashAmnesia { node }
                            ),
                            "corrupt-tail without a following amnesiac crash"
                        );
                    }
                    _ => {}
                }
            }
        }
        assert_eq!(amnesias, 12, "two amnesia units per seed, six seeds");
        assert!(
            recovers_for_amnesia >= amnesias,
            "every amnesiac crash is paired with a recover"
        );
    }

    #[test]
    fn shrink_finds_the_single_guilty_event() {
        // A synthetic oracle: the run "fails" iff the plan still contains
        // the crash of node 7.
        let p = generate(5, 13, SimDuration::from_secs(4), &full(10));
        let guilty = FaultEvent {
            at: SimDuration::from_millis(100),
            kind: FaultKind::Crash { node: 7 },
        };
        let mut with_guilty = p.clone();
        with_guilty.events.insert(0, guilty.clone());
        let fails = |cand: &[FaultEvent]| cand.contains(&guilty);
        assert!(fails(&with_guilty.events));
        let min = shrink(&with_guilty.events, drop_at, fails);
        assert_eq!(min, vec![guilty], "shrunk to exactly the cause");
    }

    #[test]
    fn shrink_returns_input_when_nothing_smaller_fails() {
        let p = FaultPlan::fig10(
            2,
            SimDuration::from_millis(100),
            SimDuration::from_millis(100),
        );
        // Only the full plan fails.
        let full = p.clone();
        let min = shrink(&p.events, drop_at, |cand| cand == full.events);
        assert_eq!(min, p.events);
    }
}
