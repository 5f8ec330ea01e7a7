//! Deterministic work-stealing fan-out for a table cell's instances, plus
//! the bounded task queue behind the job server.
//!
//! [`run_indexed`]: one shared atomic cursor hands out task indices to
//! worker threads as they free up, so a single slow task (a straggler)
//! never holds idle workers hostage the way static chunking does: the cell
//! finishes in roughly `max(task)` wall time, not `sum(chunk)`. Results
//! are written into fixed per-index slots and returned in index order,
//! which keeps every downstream reduction (floating-point sums, WAL
//! records) bitwise identical to a sequential run regardless of thread
//! interleaving.
//!
//! [`TaskQueue`] is the long-lived counterpart for open-ended work: a
//! bounded multi-producer/multi-consumer queue whose `push` never blocks
//! (a full queue is the caller's backpressure signal — the job server
//! turns it into HTTP 429) and whose `pop` parks consumers until work or
//! shutdown arrives. The queue spreads *jobs* across the server's
//! workers; each job runs its instances one after another on its worker
//! ([`JobSpec::execute`](crate::jobs::JobSpec::execute)), without
//! [`run_indexed`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Runs `f(0..n)` over `threads` workers, returning results in index
/// order. `threads == 1` (or `n <= 1`) degenerates to a plain sequential
/// loop on the calling thread — the exact historical hot path, with no
/// thread or lock overhead.
///
/// # Panics
///
/// Panics if `threads == 0`, and propagates a panic from `f` (the worker
/// thread unwinds into the scope join).
pub fn run_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(threads > 0, "need at least one thread");
    if threads == 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            let next = &next;
            let slots = &slots;
            let f = &f;
            scope.spawn(move || loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= n {
                    break;
                }
                let out = f(index);
                slots.lock().expect("no poisoned workers")[index] = Some(out);
            });
        }
    });
    slots
        .into_inner()
        .expect("no poisoned workers")
        .into_iter()
        .map(|o| o.expect("every slot filled"))
        .collect()
}

/// Why a [`TaskQueue::push`] was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue holds `capacity` items: the producer must shed load
    /// (the job server answers 429).
    Full,
    /// [`TaskQueue::close`] was called: no new work is accepted.
    Closed,
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::Full => write!(f, "queue full"),
            PushError::Closed => write!(f, "queue closed"),
        }
    }
}

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer/multi-consumer task queue.
///
/// `push` is non-blocking by design: a full queue is a *backpressure
/// signal* the producer must surface (the job server maps it to HTTP 429)
/// rather than silently absorb. `pop` blocks until an item arrives or the
/// queue is closed and drained, so consumer threads can simply loop
/// `while let Some(item) = queue.pop()`.
#[derive(Debug)]
pub struct TaskQueue<T> {
    capacity: usize,
    state: Mutex<QueueState<T>>,
    takers: Condvar,
}

impl<T> TaskQueue<T> {
    /// A queue refusing pushes beyond `capacity` queued items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` — a queue that can hold nothing would
    /// reject every job.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        TaskQueue {
            capacity,
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            takers: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues `item`, or refuses with the reason ([`PushError::Full`] /
    /// [`PushError::Closed`]). Never blocks.
    pub fn push(&self, item: T) -> Result<(), PushError> {
        let mut state = self.lock();
        if state.closed {
            return Err(PushError::Closed);
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full);
        }
        state.items.push_back(item);
        drop(state);
        self.takers.notify_one();
        Ok(())
    }

    /// Dequeues the oldest item, blocking while the queue is open but
    /// empty. Returns `None` once the queue is closed *and* drained —
    /// the consumer's signal to exit its loop.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .takers
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: pending items still drain, new pushes are
    /// refused, and blocked consumers wake to observe the shutdown.
    pub fn close(&self) {
        self.lock().closed = true;
        self.takers.notify_all();
    }

    /// Items currently queued (racy by nature; for backpressure messages
    /// and metrics, not for flow control).
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.lock().items.is_empty()
    }

    /// The `capacity` the queue was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn results_come_back_in_index_order_for_any_thread_count() {
        for threads in [1, 2, 3, 8, 33] {
            let out = run_indexed(17, threads, |i| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_single_task_sets_work() {
        assert_eq!(run_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(1, 4, |i| i + 10), vec![10]);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let _ = run_indexed(4, 0, |i| i);
    }

    #[test]
    fn a_single_straggler_does_not_serialize_the_set() {
        // One 400 ms task among seven 50 ms tasks over four workers. Work
        // stealing finishes in ~max(task) ≈ 400-450 ms: while one worker
        // holds the straggler, the others drain the fast tasks. A static
        // chunking that co-schedules fast tasks behind the straggler would
        // need 500+ ms, and a serial run 750 ms. The 600 ms bound leaves
        // slack for CI jitter while still ruling both out.
        let slow = Duration::from_millis(400);
        let fast = Duration::from_millis(50);
        let started = Instant::now();
        let out = run_indexed(8, 4, |i| {
            std::thread::sleep(if i == 0 { slow } else { fast });
            i
        });
        let elapsed = started.elapsed();
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert!(elapsed >= slow, "the straggler itself ran");
        assert!(
            elapsed < Duration::from_millis(600),
            "straggler serialized the set: took {elapsed:?}"
        );
    }

    #[test]
    fn workers_steal_everything_under_a_blocked_worker() {
        // Pin worker progress: the task-0 closure blocks until every other
        // task has finished, which can only happen if the remaining workers
        // keep pulling from the shared queue while task 0 is stuck.
        use std::sync::atomic::AtomicUsize;
        let done = AtomicUsize::new(0);
        let out = run_indexed(8, 2, |i| {
            if i == 0 {
                let deadline = Instant::now() + Duration::from_secs(30);
                while done.load(Ordering::SeqCst) < 7 {
                    assert!(Instant::now() < deadline, "other worker stalled");
                    std::thread::yield_now();
                }
            } else {
                done.fetch_add(1, Ordering::SeqCst);
            }
            i * 2
        });
        assert_eq!(out, (0..8).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn queue_is_fifo_and_reports_backpressure() {
        let q = TaskQueue::bounded(2);
        assert!(q.is_empty());
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.push(3), Err(PushError::Full));
        assert_eq!(q.len(), 2);
        assert_eq!(q.capacity(), 2);
        assert_eq!(q.pop(), Some(1));
        // Popping freed a slot: the producer may retry.
        q.push(3).unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn close_drains_pending_items_then_stops_consumers() {
        let q = TaskQueue::bounded(4);
        q.push("a").unwrap();
        q.push("b").unwrap();
        q.close();
        assert_eq!(q.push("c"), Err(PushError::Closed));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "a drained closed queue stays drained");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_queue_panics() {
        let _ = TaskQueue::<u64>::bounded(0);
    }

    #[test]
    fn blocked_consumers_wake_on_push_and_on_close() {
        use std::sync::Arc;
        let q = Arc::new(TaskQueue::bounded(8));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(item) = q.pop() {
                        got.push(item);
                    }
                    got
                })
            })
            .collect();
        for i in 0..10 {
            // Interleave pushes with tiny sleeps so consumers genuinely
            // park and wake rather than racing one hot loop.
            q.push(i).unwrap();
            if i % 3 == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        q.close();
        let mut all: Vec<i32> = consumers
            .into_iter()
            .flat_map(|c| c.join().expect("consumer exits cleanly"))
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }
}
