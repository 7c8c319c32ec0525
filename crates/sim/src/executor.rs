//! A minimal single-threaded task executor, and the slab it keeps tasks in.
//!
//! The simulator runs all protocol logic on one OS thread: node handlers are
//! plain callbacks, and *transactions* are `async` tasks that suspend on
//! virtual-time primitives (sleeps, quorum calls). Tasks are therefore plain
//! `!Send` boxed futures, held in a [`Slab`], as are the calls in flight.
//!
//! A wake-up goes through no [`std::task::Waker`]: tasks are polled with
//! [`Waker::noop`] under [`poll_as`], a simulator future records the id of
//! the task polling it ([`current_task`]), and the event that resolves the
//! future pushes that id onto the simulator's ready queue, a plain `Vec`
//! the loop drains after each event: wake-ups never poll inline, and
//! execution order is a deterministic function of the event order.

use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Waker};

/// A slab row together with the row's generation when it was filled, the
/// row in the low 32 bits. Rows are reused, so the row alone would let an
/// id that outlived its value reach the row's next tenant; the generation,
/// bumped on every free, makes such an access miss.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct SlabId(u64);

impl SlabId {
    fn row(self) -> usize {
        self.0 as u32 as usize
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The id as one integer, for [`EventInfo`](crate::EventInfo).
    pub(crate) fn bits(self) -> u64 {
        self.0
    }
}

/// Identifier of a spawned task: its row in the task slab.
pub(crate) type TaskId = SlabId;

/// A boxed, non-`Send` future owned by the executor.
pub(crate) type LocalFuture = Pin<Box<dyn Future<Output = ()> + 'static>>;

struct Row<T> {
    /// Bumped every time the row is freed.
    gen: u32,
    /// `None` while the row is free, and while its value is taken out (a
    /// task being polled).
    val: Option<T>,
}

/// Rows of `T` addressed by [`SlabId`], with a free list. A value may be
/// taken out and put back without giving up its row, so that a task's
/// poll can re-enter the simulator (spawn, send, schedule) with no borrow
/// of the slab outstanding.
pub(crate) struct Slab<T> {
    rows: Vec<Row<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            rows: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    pub(crate) fn insert(&mut self, val: T) -> SlabId {
        let row = self.free.pop().unwrap_or_else(|| {
            self.rows.push(Row { gen: 0, val: None });
            u32::try_from(self.rows.len() - 1).expect("slab overflow")
        });
        let r = &mut self.rows[row as usize];
        r.val = Some(val);
        SlabId(u64::from(r.gen) << 32 | u64::from(row))
    }

    /// The row of `id`, unless it was freed since (whether or not it has a
    /// new tenant).
    fn current(&mut self, id: SlabId) -> Option<&mut Row<T>> {
        self.rows.get_mut(id.row()).filter(|r| r.gen == id.gen())
    }

    /// The value `id` names; `None` if its row was freed since or the value
    /// is taken out.
    pub(crate) fn get_mut(&mut self, id: SlabId) -> Option<&mut T> {
        self.current(id)?.val.as_mut()
    }

    /// Take the value out, keeping its row; see [`Slab::get_mut`] for `None`.
    pub(crate) fn take(&mut self, id: SlabId) -> Option<T> {
        self.current(id)?.val.take()
    }

    /// Return a value taken out of its row.
    pub(crate) fn put_back(&mut self, id: SlabId, val: T) {
        let r = &mut self.rows[id.row()];
        debug_assert!(r.gen == id.gen() && r.val.is_none());
        r.val = Some(val);
    }

    /// Free the row of a value taken out. Ids still held elsewhere keep the
    /// old generation and will miss.
    pub(crate) fn free(&mut self, id: SlabId) {
        let r = &mut self.rows[id.row()];
        debug_assert!(r.gen == id.gen() && r.val.is_none());
        // A collision needs one row to be reused 2^32 times under an id
        // that is still held.
        r.gen = r.gen.wrapping_add(1);
        self.free.push(id.row() as u32);
    }

    /// Take the value out and free its row.
    pub(crate) fn remove(&mut self, id: SlabId) -> Option<T> {
        let val = self.take(id)?;
        self.free(id);
        Some(val)
    }

    /// Rows filled and not yet freed (a value taken out counts).
    pub(crate) fn live(&self) -> usize {
        self.rows.len() - self.free.len()
    }
}

thread_local! {
    /// The task being polled on this thread, if any.
    static CURRENT: Cell<Option<TaskId>> = const { Cell::new(None) };
}

/// Poll `fut` as task `id`; true when it completed. The task polled before
/// is current again afterwards, so a simulation run from inside another
/// simulation's task leaves the outer task's wake-ups intact.
pub(crate) fn poll_as(id: TaskId, fut: &mut LocalFuture) -> bool {
    let _outer = Restore(CURRENT.replace(Some(id)));
    fut.as_mut()
        .poll(&mut Context::from_waker(Waker::noop()))
        .is_ready()
}

/// Makes its task current again when dropped, by a poll's return or by
/// its panic unwinding: a caught panic leaves no finished task current.
struct Restore(Option<TaskId>);

impl Drop for Restore {
    fn drop(&mut self) {
        CURRENT.set(self.0);
    }
}

/// The task being polled, which a pending simulator future records to be
/// woken by: a simulator's futures are awaited by its own tasks.
pub(crate) fn current_task() -> TaskId {
    CURRENT.get().expect(
        "a simulator future was polled outside a simulator task, where no event can wake it: \
         await it inside `Sim::spawn`",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::tests::sim;
    use crate::time::SimDuration;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::task::Poll;

    #[test]
    fn rows_are_reused_under_a_new_generation() {
        let mut slab = Slab::default();
        let a = slab.insert('a');
        let b = slab.insert('b');
        assert_ne!(a, b);
        assert_eq!(slab.live(), 2);
        assert_eq!(slab.remove(a), Some('a'));
        let c = slab.insert('c');
        assert_eq!(c.row(), a.row(), "freed row is reused");
        assert_ne!(c, a, "under a new generation");
        assert_eq!(slab.live(), 2);
        assert_eq!(
            slab.get_mut(a),
            None,
            "the stale id misses on its generation"
        );
        assert_eq!(slab.remove(a), None);
        assert_eq!(
            slab.get_mut(c),
            Some(&mut 'c'),
            "and the tenant is undisturbed"
        );
    }

    #[test]
    fn take_and_put_back_round_trip() {
        let mut slab = Slab::default();
        let id = slab.insert(7);
        let val = slab.take(id).expect("present");
        assert_eq!(slab.live(), 1, "a value taken out still holds its row");
        assert!(slab.take(id).is_none(), "second take sees nothing");
        slab.put_back(id, val);
        assert_eq!(slab.take(id), Some(7));
        slab.free(id);
        assert_eq!(slab.live(), 0);
    }

    /// Names logged by tasks, in the order they ran.
    type Log = Rc<RefCell<Vec<char>>>;

    #[test]
    fn ready_tasks_are_polled_in_wake_order() {
        // Spawning pushes the new task's id onto the ready queue, as a
        // wake-up does: the first task readies c, a, b, which run so.
        let (s, log) = (sim(1), Log::default());
        let (s2, l) = (s.clone(), Rc::clone(&log));
        s.spawn(async move {
            for name in ['c', 'a', 'b'] {
                let l = Rc::clone(&l);
                s2.spawn(async move { l.borrow_mut().push(name) });
            }
        });
        s.run();
        assert_eq!(*log.borrow(), ['c', 'a', 'b']);
    }

    #[test]
    fn a_task_woken_while_the_batch_drains_runs_after_the_batch() {
        // The loop's order must be the one-id-at-a-time FIFO's: with a and
        // b ready, a's poll readying c gives a, b, c — not a, c, b.
        let (s, log) = (sim(1), Log::default());
        let (s2, la, lb) = (s.clone(), Rc::clone(&log), Rc::clone(&log));
        s.spawn(async move {
            la.borrow_mut().push('a');
            s2.spawn(async move { la.borrow_mut().push('c') });
        });
        s.spawn(async move { lb.borrow_mut().push('b') });
        s.run();
        assert_eq!(*log.borrow(), ['a', 'b', 'c']);
    }

    /// Polls the future it wraps once and completes, whatever it answered:
    /// its task finishes while the timer it parked on still holds its id.
    struct PollOnce<F>(Pin<Box<F>>);

    impl<F: Future> Future for PollOnce<F> {
        type Output = ();
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            let _ = self.0.as_mut().poll(cx);
            Poll::Ready(())
        }
    }

    /// Counts the polls of the future it wraps.
    struct Counted<F>(Rc<Cell<u32>>, Pin<Box<F>>);

    impl<F: Future> Future for Counted<F> {
        type Output = F::Output;
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
            self.0.set(self.0.get() + 1);
            self.1.as_mut().poll(cx)
        }
    }

    #[test]
    fn a_finished_tasks_stale_id_polls_nothing() {
        // `old` parks on a 10 ms timer and finishes; `new` takes its row
        // and waits on a 20 ms one. The 10 ms timer pushes `old`'s id,
        // which misses on its generation: `new` is polled at spawn and at
        // 20 ms, not at 10 ms.
        let s = sim(1);
        s.spawn(PollOnce(Box::pin(s.sleep(SimDuration::from_millis(10)))));
        s.run_until(s.now());
        assert_eq!(s.live_tasks(), 0, "old finished under a pending timer");
        let polls = Rc::new(Cell::new(0));
        let new = Box::pin(s.sleep(SimDuration::from_millis(20)));
        s.spawn(Counted(Rc::clone(&polls), new));
        s.run_for(SimDuration::from_millis(15));
        assert_eq!(polls.get(), 1, "the stale wake polled nothing");
        s.run();
        assert_eq!((polls.get(), s.live_tasks()), (2, 0));
        assert_eq!(s.metrics().events, 2, "both timers fired");
    }

    #[test]
    fn a_simulation_run_inside_a_task_leaves_the_outer_tasks_wakes_intact() {
        // The inner task's id (row 0) names a finished task of the outer
        // simulation, whose own task holds row 1: after the inner run, the
        // outer sleep must record row 1 again, or nothing wakes it.
        let (outer, done) = (sim(1), Rc::new(Cell::new(false)));
        outer.spawn(async {});
        let (o2, d2) = (outer.clone(), Rc::clone(&done));
        outer.spawn(async move {
            let inner = sim(1);
            let i2 = inner.clone();
            inner.spawn(async move { i2.sleep(SimDuration::from_millis(1)).await });
            inner.run();
            o2.sleep(SimDuration::from_millis(5)).await;
            d2.set(true);
        });
        outer.run();
        assert!(done.get(), "the outer task was not woken");
    }

    #[test]
    #[should_panic(expected = "outside a simulator task")]
    fn a_caught_panic_in_a_task_leaves_no_task_current() {
        // The panic unwinds out of the task's poll; once it is caught, a
        // future polled outside any task must still find none current.
        let s = sim(1);
        s.spawn(async { panic!("the task fails") });
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.run()));
        assert!(run.is_err(), "the task's panic reached the caller");
        let mut sleep = std::pin::pin!(sim(1).sleep(SimDuration::from_millis(1)));
        let _ = sleep.as_mut().poll(&mut Context::from_waker(Waker::noop()));
    }

    #[test]
    #[should_panic(expected = "outside a simulator task")]
    fn a_simulator_future_polled_outside_a_task_panics() {
        let s = sim(1);
        let mut sleep = std::pin::pin!(s.sleep(SimDuration::from_millis(1)));
        let _ = sleep.as_mut().poll(&mut Context::from_waker(Waker::noop()));
    }
}
