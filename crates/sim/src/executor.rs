//! A minimal single-threaded task executor.
//!
//! The simulator runs all protocol logic on one OS thread: node handlers are
//! plain callbacks, and *transactions* are `async` tasks that suspend on
//! virtual-time primitives (sleeps, quorum calls). Tasks are therefore plain
//! `!Send` boxed futures; the only `Send + Sync` piece is the ready queue,
//! which the [`std::task::Waker`] contract requires.
//!
//! Wake-ups never poll inline: a waker pushes the task id onto the shared
//! ready queue and the simulation loop drains it after each event, keeping
//! execution order a deterministic function of the event order.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Wake, Waker};

/// Identifier of a spawned task: its slot in the [`TaskStore`] plus the
/// slot's generation when the task was spawned. Slots are reused, so the
/// index alone would let a waker that outlived its task wake the slot's
/// next tenant; the generation makes such a wake-up miss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct TaskId {
    idx: u32,
    gen: u32,
}

/// A boxed, non-`Send` future owned by the executor.
pub(crate) type LocalFuture = Pin<Box<dyn Future<Output = ()> + 'static>>;

/// One slab slot: a task's future together with its waker. A waker is two
/// `Arc`s, so each task gets one at spawn and every poll borrows it —
/// allocating one per poll dominated the hot loop for tasks that suspend
/// thousands of times.
struct TaskSlot {
    /// Bumped every time the slot is freed.
    gen: u32,
    /// `None` while the task is being polled, and while the slot is free.
    task: Option<(LocalFuture, Waker)>,
}

/// Owns every live task, in a slab indexed by [`TaskId`]. Tasks are taken
/// out while being polled so that the poll may re-enter the simulator
/// (spawn, send, schedule) without holding any borrow of the store.
#[derive(Default)]
pub(crate) struct TaskStore {
    slots: Vec<TaskSlot>,
    free: Vec<u32>,
    live: usize,
    /// Set by `Sim::shutdown`: the store stays empty and takes no task.
    pub(crate) closed: bool,
}

impl TaskStore {
    /// The empty store a shut-down simulation keeps.
    pub(crate) fn closed() -> Self {
        TaskStore {
            closed: true,
            ..TaskStore::default()
        }
    }

    /// Store `fut` with a waker that pushes its id onto `ready`.
    pub(crate) fn insert(&mut self, fut: LocalFuture, ready: &ReadyQueue) -> TaskId {
        self.live += 1;
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slots.push(TaskSlot { gen: 0, task: None });
            u32::try_from(self.slots.len() - 1).expect("task slab overflow")
        });
        let slot = &mut self.slots[idx as usize];
        let id = TaskId { idx, gen: slot.gen };
        slot.task = Some((fut, ready.waker(id)));
        id
    }

    /// Remove the task and its waker for polling; `None` if the task
    /// already completed (a stale or duplicate wake-up), whether or not its
    /// slot has a new tenant since, or was dropped with a closed store.
    pub(crate) fn take(&mut self, id: TaskId) -> Option<(LocalFuture, Waker)> {
        let slot = self.slots.get_mut(id.idx as usize)?;
        if slot.gen != id.gen {
            return None;
        }
        slot.task.take()
    }

    /// Return a task that is still pending after its poll.
    pub(crate) fn put_back(&mut self, id: TaskId, fut: LocalFuture, waker: Waker) {
        let slot = &mut self.slots[id.idx as usize];
        debug_assert!(slot.gen == id.gen && slot.task.is_none());
        slot.task = Some((fut, waker));
    }

    /// Free the slot of a task whose poll completed. Wakers still held
    /// elsewhere keep the old generation and will miss.
    pub(crate) fn finish(&mut self, id: TaskId) {
        let slot = &mut self.slots[id.idx as usize];
        debug_assert!(slot.gen == id.gen && slot.task.is_none());
        // A collision needs one slot to be reused 2^32 times under a waker
        // that is still alive.
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(id.idx);
        self.live -= 1;
    }

    /// Tasks spawned and not yet completed (being polled counts).
    pub(crate) fn live(&self) -> usize {
        self.live
    }
}

struct ReadyShared {
    /// True iff `ids` is non-empty. Written only while holding the `ids`
    /// lock; the `Release` store in [`ReadyQueue::push`] pairs with the
    /// `Acquire` load in [`ReadyQueue::take_batch`], which is what lets
    /// the drain skip the lock when nothing woke.
    nonempty: AtomicBool,
    ids: Mutex<Vec<TaskId>>,
}

/// FIFO of task ids made runnable by wakers. Shared with every waker, so it
/// must satisfy the `Send + Sync` contract even though the simulator itself
/// is single-threaded. The event loop asks it for work after *every* event
/// and most events wake nothing, so that question is one plain load: an
/// uncontended [`std::sync::Mutex`] is two locked instructions per
/// lock/unlock pair, which at one pair per event was the simulator crate's
/// hottest line on most workloads.
#[derive(Clone)]
pub(crate) struct ReadyQueue(Arc<ReadyShared>);

impl Default for ReadyQueue {
    fn default() -> Self {
        ReadyQueue(Arc::new(ReadyShared {
            nonempty: AtomicBool::new(false),
            ids: Mutex::new(Vec::new()),
        }))
    }
}

impl ReadyQueue {
    pub(crate) fn push(&self, id: TaskId) {
        let mut ids = self.0.ids.lock().expect("ready queue poisoned");
        ids.push(id);
        self.0.nonempty.store(true, Ordering::Release);
    }

    /// Move every ready id, in wake order, into `batch` (which must be
    /// empty) and report whether there were any. Takes no lock when the
    /// queue is empty. Ids pushed while the caller works through `batch`
    /// land in the next batch, so polling batch after batch is the same
    /// FIFO order as popping one id at a time.
    pub(crate) fn take_batch(&self, batch: &mut Vec<TaskId>) -> bool {
        debug_assert!(batch.is_empty());
        if !self.0.nonempty.load(Ordering::Acquire) {
            return false;
        }
        let mut ids = self.0.ids.lock().expect("ready queue poisoned");
        // Swapping hands the drained buffer back, so neither side
        // reallocates in steady state.
        std::mem::swap(&mut *ids, batch);
        self.0.nonempty.store(false, Ordering::Release);
        true
    }

    fn waker(&self, id: TaskId) -> Waker {
        Waker::from(Arc::new(TaskWaker {
            id,
            ready: self.clone(),
        }))
    }
}

struct TaskWaker {
    id: TaskId,
    ready: ReadyQueue,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.ready.push(self.id);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.ready.push(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::task::Context;

    /// Every ready id, batch by batch, in the order the loop would poll.
    fn drain(q: &ReadyQueue) -> Vec<TaskId> {
        let mut all = Vec::new();
        let mut batch = Vec::new();
        while q.take_batch(&mut batch) {
            all.append(&mut batch);
        }
        all
    }

    #[test]
    fn slots_are_reused_under_a_new_generation() {
        let q = ReadyQueue::default();
        let mut store = TaskStore::default();
        let a = store.insert(Box::pin(async {}), &q);
        let b = store.insert(Box::pin(async {}), &q);
        assert_ne!(a, b);
        assert_eq!(store.live(), 2);
        let _ = store.take(a).expect("present");
        store.finish(a);
        let c = store.insert(Box::pin(async {}), &q);
        assert_eq!(c.idx, a.idx, "freed slot is reused");
        assert_ne!(c, a, "under a new generation");
        assert_eq!(store.live(), 2);
    }

    #[test]
    fn take_and_put_back_round_trip() {
        let q = ReadyQueue::default();
        let mut store = TaskStore::default();
        let id = store.insert(Box::pin(async {}), &q);
        let (fut, waker) = store.take(id).expect("present");
        assert_eq!(store.live(), 1, "a task being polled is still live");
        assert!(store.take(id).is_none(), "second take sees nothing");
        store.put_back(id, fut, waker);
        assert!(store.take(id).is_some());
    }

    #[test]
    fn ready_queue_is_fifo_and_empty_without_pushes() {
        let q = ReadyQueue::default();
        let mut store = TaskStore::default();
        let ids: Vec<TaskId> = (0..3)
            .map(|_| store.insert(Box::pin(async {}), &q))
            .collect();
        let mut batch = Vec::new();
        assert!(!q.take_batch(&mut batch), "nothing pushed, nothing ready");
        q.push(ids[2]);
        q.push(ids[0]);
        q.push(ids[1]);
        assert_eq!(drain(&q), vec![ids[2], ids[0], ids[1]]);
        assert!(!q.take_batch(&mut batch), "drained");
    }

    #[test]
    fn a_task_woken_while_the_batch_drains_runs_after_the_batch() {
        // The loop's order must be the one-id-at-a-time FIFO's: with a and
        // b ready, a's poll waking c gives a, b, c — not a, c, b.
        let q = ReadyQueue::default();
        let mut store = TaskStore::default();
        let [a, b, c] = [(); 3].map(|()| store.insert(Box::pin(async {}), &q));
        q.push(a);
        q.push(b);
        let mut polled = Vec::new();
        let mut batch = Vec::new();
        while q.take_batch(&mut batch) {
            for id in batch.drain(..) {
                polled.push(id);
                if id == a {
                    q.push(c);
                }
            }
        }
        assert_eq!(polled, vec![a, b, c]);
    }

    #[test]
    fn the_task_waker_enqueues_its_task_every_time() {
        let q = ReadyQueue::default();
        let mut store = TaskStore::default();
        let id = store.insert(Box::pin(async {}), &q);
        let (fut, waker) = store.take(id).expect("present");
        waker.wake_by_ref();
        let owned = waker.clone();
        owned.wake();
        assert_eq!(drain(&q), vec![id, id]);
        store.put_back(id, fut, waker);
    }

    #[test]
    fn a_stale_waker_of_a_finished_task_polls_nothing() {
        let q = ReadyQueue::default();
        let mut store = TaskStore::default();
        let old = store.insert(Box::pin(async {}), &q);
        let (mut fut, waker) = store.take(old).expect("present");
        let kept = waker.clone(); // e.g. parked in a timer that fires later
        assert!(fut
            .as_mut()
            .poll(&mut Context::from_waker(&waker))
            .is_ready());
        store.finish(old);
        let new = store.insert(Box::pin(std::future::pending()), &q);
        assert_eq!(new.idx, old.idx, "the slot has a new tenant");
        kept.wake();
        assert_eq!(drain(&q), vec![old], "the stale id is enqueued");
        assert!(store.take(old).is_none(), "and misses on its generation");
        assert!(store.take(new).is_some(), "the tenant was not disturbed");
    }
}
