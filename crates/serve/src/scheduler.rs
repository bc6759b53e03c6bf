//! The sharded work-stealing scheduler.
//!
//! Jobs are decomposed into small closures (prepare, plan chunks,
//! finalize) and pushed onto per-shard queues. Each worker thread owns
//! one home shard: it pops its own queue from the front and, when
//! empty, steals from the other shards' backs. Stealing keeps every
//! core busy even when one shard holds a disproportionately expensive
//! job, while the per-shard queues keep the common submit path from
//! funneling through a single lock.
//!
//! The pool is deliberately async-free: plan execution is CPU-bound
//! interpreter work, so threads + condvars beat an executor here, and
//! the whole daemon stays dependency-free.
//!
//! [`Scheduler::drain`] implements the graceful half of shutdown:
//! workers finish the task they are currently running and then exit
//! *without* popping queued tasks. Whatever stays queued is recovered
//! on restart from the `.job` checkpoints and campaign journals.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

type Task = Box<dyn FnOnce() + Send + 'static>;

struct Inner {
    shards: Vec<Mutex<VecDeque<Task>>>,
    /// Wakes idle workers on submit and on drain. Both ring the bell
    /// while holding the gate.
    gate: Mutex<()>,
    bell: Condvar,
    draining: AtomicBool,
    next_shard: AtomicUsize,
}

/// Locks a mutex, recovering from poisoning (tasks are panic-isolated
/// upstream, but a poisoned queue must not wedge the daemon).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Inner {
    /// Pops the worker's own shard front, else steals another shard's
    /// back.
    fn grab(&self, home: usize) -> Option<Task> {
        if let Some(task) = lock(&self.shards[home]).pop_front() {
            return Some(task);
        }
        let n = self.shards.len();
        for offset in 1..n {
            if let Some(task) = lock(&self.shards[(home + offset) % n]).pop_back() {
                return Some(task);
            }
        }
        None
    }

    /// The worker's next task: [`Inner::grab`], else wait on the bell
    /// until one is queued. `None` once the pool drains.
    fn next_task(&self, home: usize) -> Option<Task> {
        if self.draining.load(Ordering::Acquire) {
            return None;
        }
        if let Some(task) = self.grab(home) {
            return Some(task);
        }
        let mut guard = lock(&self.gate);
        loop {
            // Re-check under the gate. A submit or drain that the empty
            // grab above missed either shows here or rings the bell
            // after this worker is waiting, so no wake-up is lost and
            // the wait needs no timeout.
            if self.draining.load(Ordering::Acquire) {
                return None;
            }
            if let Some(task) = self.grab(home) {
                return Some(task);
            }
            guard = self.bell.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// A fixed pool of worker threads over sharded task queues (see module
/// docs).
pub struct Scheduler {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("shards", &self.inner.shards.len())
            .finish_non_exhaustive()
    }
}

impl Scheduler {
    /// Starts `threads` workers over `shards` queues (both forced to at
    /// least 1). Worker `w`'s home shard is `w % shards`.
    pub fn new(threads: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let threads = threads.max(1);
        let inner = Arc::new(Inner {
            shards: (0..shards).map(|_| Mutex::new(VecDeque::new())).collect(),
            gate: Mutex::new(()),
            bell: Condvar::new(),
            draining: AtomicBool::new(false),
            next_shard: AtomicUsize::new(0),
        });
        let workers = (0..threads)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || {
                    let home = w % inner.shards.len();
                    while let Some(task) = inner.next_task(home) {
                        // Panic isolation: a dying task must not take
                        // its worker thread with it.
                        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
                    }
                })
            })
            .collect();
        Scheduler {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// Enqueues a task on the next shard round-robin.
    pub fn submit(&self, task: impl FnOnce() + Send + 'static) {
        let shard = self.inner.next_shard.fetch_add(1, Ordering::Relaxed);
        self.submit_to(shard, task);
    }

    /// Enqueues a task on a specific shard (callers distribute a job's
    /// chunks across shards so every worker gets stealable pieces).
    pub fn submit_to(&self, shard: usize, task: impl FnOnce() + Send + 'static) {
        let n = self.inner.shards.len();
        lock(&self.inner.shards[shard % n]).push_back(Box::new(task));
        let _gate = lock(&self.inner.gate);
        self.inner.bell.notify_one();
    }

    /// Tasks currently queued (not the ones being executed).
    pub fn queued(&self) -> usize {
        self.inner.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// Graceful drain: workers finish their in-flight task, leave the
    /// queues untouched, and exit. Returns the number of tasks left
    /// queued. Idempotent; safe to call once at shutdown.
    pub fn drain(&self) -> usize {
        self.inner.draining.store(true, Ordering::Release);
        {
            let _guard = lock(&self.inner.gate);
            self.inner.bell.notify_all();
        }
        for worker in lock(&self.workers).drain(..) {
            let _ = worker.join();
        }
        self.queued()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn runs_all_submitted_tasks() {
        let pool = Scheduler::new(4, 2);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let done = Arc::clone(&done);
            pool.submit(move || {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while done.load(Ordering::SeqCst) < 64 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(done.load(Ordering::SeqCst), 64);
        assert_eq!(pool.drain(), 0);
    }

    #[test]
    fn steals_across_shards() {
        // All tasks land on shard 0; with 4 workers homed across 2
        // shards, finishing 8 × 30ms of work in well under 8 × 30ms
        // proves shard-1 workers stole shard-0 tasks.
        let pool = Scheduler::new(4, 2);
        let done = Arc::new(AtomicUsize::new(0));
        let start = std::time::Instant::now();
        for _ in 0..8 {
            let done = Arc::clone(&done);
            pool.submit_to(0, move || {
                std::thread::sleep(Duration::from_millis(30));
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        while done.load(Ordering::SeqCst) < 8 {
            assert!(start.elapsed() < Duration::from_secs(10));
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            start.elapsed() < Duration::from_millis(8 * 30),
            "no stealing: tasks ran serially on one shard"
        );
        pool.drain();
    }

    #[test]
    fn drain_finishes_in_flight_but_leaves_queue() {
        let pool = Scheduler::new(1, 1);
        let done = Arc::new(AtomicUsize::new(0));
        let started = Arc::new(AtomicUsize::new(0));
        for _ in 0..6 {
            let done = Arc::clone(&done);
            let started = Arc::clone(&started);
            pool.submit(move || {
                started.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(40));
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Let the single worker pick up the first task, then drain.
        while started.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        let left = pool.drain();
        // The in-flight task completed; queued ones were not popped.
        assert_eq!(done.load(Ordering::SeqCst), started.load(Ordering::SeqCst));
        assert!(left >= 1, "drain must leave queued tasks for restart");
        assert_eq!(left, 6 - started.load(Ordering::SeqCst));
    }

    #[test]
    fn every_submit_wakes_an_idle_worker() {
        // Each round trip submits one task and waits for it, so the
        // next submit lands just as the workers go idle: the window a
        // lost wake-up needs. Idle workers wait without a timeout, so
        // a lost wake-up hangs its round trip until `recv_timeout`.
        for threads in [1, 2] {
            let pool = Scheduler::new(threads, threads);
            let (tx, rx) = std::sync::mpsc::channel();
            for i in 0..3000 {
                let tx = tx.clone();
                pool.submit(move || {
                    let _ = tx.send(i);
                });
                assert_eq!(
                    rx.recv_timeout(Duration::from_secs(10)),
                    Ok(i),
                    "task {i} on {threads} worker(s) never ran: a lost wake-up"
                );
            }
            assert_eq!(pool.drain(), 0);
        }
    }

    #[test]
    fn panicking_task_does_not_kill_the_pool() {
        let pool = Scheduler::new(2, 2);
        let done = Arc::new(AtomicUsize::new(0));
        pool.submit(|| panic!("task died"));
        for _ in 0..4 {
            let done = Arc::clone(&done);
            pool.submit(move || {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while done.load(Ordering::SeqCst) < 4 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(done.load(Ordering::SeqCst), 4);
        pool.drain();
    }
}
