//! # sched — deterministic discrete-event task scheduler
//!
//! Replaces free-running thread-per-rank execution with a **cooperative
//! virtual-time scheduler**: every rank (and every request-engine worker)
//! is a *task* backed by an OS thread, but exactly one task holds the
//! **run token** at any moment. A task keeps the token until it reaches a
//! blocking site (mailbox match, ring-slot acquisition, barrier, lock,
//! request wait, backpressure stall) and parks; parking hands the token to
//! the runnable task with the smallest `(virtual time, rank, sequence)`
//! key. Dispatch order is therefore a pure function of the simulation
//! state — same seed, same interleaving, bit for bit — and wall-clock
//! cost per rank is one parked thread, not one spinning poll loop.
//!
//! The protocol code stays *scheduler-agnostic*: every blocking site
//! calls [`WaitQueue::wait`], which blocks a plain thread on the queue's
//! `Condvar` and parks an event task here, and producers call
//! [`WaitQueue::notify_all`], which wakes both.
//!
//! ## Ordering and tie-break
//!
//! The ready queue is a min-heap over `(SimTime, rank, seq, task-id)`:
//! earliest virtual time first, then lowest rank, then creation sequence
//! number (so a rank's request-engine tasks dispatch in post order).
//! A task parks *at* its current virtual time; primitives with no
//! timestamp of their own (turn tickets, task joins) park at the task's
//! last recorded time, which keeps the key deterministic.
//!
//! ## Stalls — virtual-time liveness
//!
//! The thread backend discovers rank death, revocation, and lost grants
//! by letting its condvar waits time out every `POLL_SLICE` of *real*
//! time. The event backend has no real time, so when every live task is
//! blocked and nothing is in flight the scheduler runs a **stall round**:
//! all blocked tasks wake with `Wake::Stalled` and re-check liveness
//! (dead peer? revoked epoch? cancelled barrier?) exactly as a timed-out
//! wait would. Progress is counted (unparks, adoptions, retirements);
//! consecutive stall rounds without progress mean a genuine deadlock and
//! panic with a task-table dump instead of hanging CI.
//!
//! See `docs/SCHEDULER.md` for the full model.

use simclock::SimTime;
use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::panic_any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Sentinel panic payload used to unwind tasks after another task has
/// aborted the run. Wrappers around task bodies treat it as "shut down
/// quietly"; the first *real* panic is stored and re-thrown by the
/// launcher. Taking the run down is the abort's job, not every task's.
#[derive(Debug, Clone, Copy)]
pub struct Aborted;

/// Why a parked task resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wake {
    /// A producer woke this task; its condition may now hold.
    Woken,
    /// Scheduler stall round: nothing else can run. Re-check liveness
    /// (dead peers, revocation, cancellation) and park again.
    Stalled,
}

/// Identifies a task within its [`Scheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId(usize);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Created but its thread has not adopted it yet.
    Created,
    /// In the ready heap awaiting dispatch.
    Ready,
    /// Holds the run token.
    Running,
    /// Parked at a blocking site.
    Blocked,
    /// Finished.
    Exited,
}

struct Task {
    rank: u32,
    seq: u64,
    /// Virtual time of the last park — the heap key's primary component.
    time: SimTime,
    status: Status,
    /// A wake arrived while the task was not parked; the next park
    /// returns immediately instead of blocking (no lost wakeups).
    pending_wake: bool,
    /// The pending dispatch is a stall round, not a producer wake.
    stalled: bool,
    root: bool,
    /// Per-task condvar (all waiting on the scheduler mutex) so a grant
    /// wakes exactly one thread instead of storming all 10k of them.
    cv: Arc<Condvar>,
    /// Tasks parked in `join` on this task's exit.
    exit_waiters: Vec<usize>,
}

struct Inner {
    tasks: Vec<Task>,
    /// Min-heap of runnable tasks keyed `(time, rank, seq, id)`.
    ready: BinaryHeap<Reverse<(SimTime, u32, u64, usize)>>,
    /// The task currently holding the run token, if any.
    running: Option<usize>,
    /// Root tasks created but not yet adopted; dispatch is gated until
    /// every root has checked in so the first grant is deterministic.
    gate: usize,
    /// Dynamically created tasks not yet adopted by their thread.
    /// Dispatch *waits* while this is non-zero: a freshly spawned task
    /// must be in the heap before the next pop, or adoption timing
    /// (real time!) would leak into dispatch order.
    incoming: usize,
    blocked: usize,
    live: usize,
    next_seq: u64,
    /// Unparks + adoptions + retirements — the progress measure that
    /// separates productive stall rounds from deadlock.
    progress: u64,
    progress_at_stall: u64,
    barren_stalls: u32,
    aborted: bool,
    stats: Stats,
}

/// Scheduler run statistics, for benches and the megascale smoke test.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    /// Total park/dispatch events processed.
    pub events: u64,
    /// High-water mark of the ready heap (memory-boundedness proxy).
    pub ready_high_water: usize,
    /// Peak number of simultaneously live tasks.
    pub tasks_high_water: usize,
    /// Stall rounds run (deterministic liveness sweeps).
    pub stalls: u64,
}

/// A deterministic cooperative scheduler over OS-thread-backed tasks.
pub struct Scheduler {
    inner: Mutex<Inner>,
    /// Signalled on adoption; dispatchers wait here while `incoming > 0`.
    adopt_cv: Condvar,
    /// First non-[`Aborted`] panic payload, re-thrown by the launcher.
    first_panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

// Scheduler-internal locks tolerate poisoning: a panicking task unwinds
// through park/retire and the launcher still needs the lock to tear the
// run down and re-throw the stored panic.
fn relock<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Scheduler {
    /// A scheduler expecting `roots` root tasks (one per rank). Dispatch
    /// opens once all roots have been adopted.
    pub fn new(roots: usize) -> Arc<Self> {
        Arc::new(Scheduler {
            inner: Mutex::new(Inner {
                tasks: Vec::with_capacity(roots),
                ready: BinaryHeap::with_capacity(roots),
                running: None,
                gate: roots,
                incoming: 0,
                blocked: 0,
                live: 0,
                next_seq: 0,
                progress: 0,
                progress_at_stall: 0,
                barren_stalls: 0,
                aborted: false,
                stats: Stats::default(),
            }),
            adopt_cv: Condvar::new(),
            first_panic: Mutex::new(None),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        relock(self.inner.lock())
    }

    /// Create a root task for `rank` starting at virtual time zero.
    /// Called by the launcher before spawning the rank's thread; the
    /// thread itself must [`Handle::adopt`] the returned handle.
    pub fn create_root(self: &Arc<Self>, rank: u32) -> Handle {
        let mut g = self.lock();
        let id = Self::create_in(&mut g, rank, SimTime::ZERO, true);
        Handle {
            sched: Arc::clone(self),
            id,
        }
    }

    /// Create a dynamic task (request engine, sendrecv fork) starting at
    /// `time`. The creating task keeps running; dispatch will not pop the
    /// heap again until the new task's thread has adopted it.
    pub fn create_task(self: &Arc<Self>, rank: u32, time: SimTime) -> Handle {
        let mut g = self.lock();
        g.incoming += 1;
        let id = Self::create_in(&mut g, rank, time, false);
        Handle {
            sched: Arc::clone(self),
            id,
        }
    }

    fn create_in(g: &mut Inner, rank: u32, time: SimTime, root: bool) -> TaskId {
        let seq = g.next_seq;
        g.next_seq += 1;
        g.tasks.push(Task {
            rank,
            seq,
            time,
            status: Status::Created,
            pending_wake: false,
            stalled: false,
            root,
            cv: Arc::new(Condvar::new()),
            exit_waiters: Vec::new(),
        });
        g.live += 1;
        g.stats.tasks_high_water = g.stats.tasks_high_water.max(g.live);
        TaskId(g.tasks.len() - 1)
    }

    /// Abort the run: store the first real panic payload and wake every
    /// task so it unwinds with the [`Aborted`] sentinel.
    pub fn abort_with(&self, payload: Box<dyn Any + Send + 'static>) {
        {
            let mut fp = relock(self.first_panic.lock());
            if fp.is_none() && !payload.is::<Aborted>() {
                *fp = Some(payload);
            }
        }
        let mut g = self.lock();
        if g.aborted {
            return;
        }
        g.aborted = true;
        for t in &g.tasks {
            t.cv.notify_all();
        }
        self.adopt_cv.notify_all();
    }

    /// The stored first panic, if any task aborted. The launcher resumes
    /// unwinding with it after joining all task threads.
    pub fn take_panic(&self) -> Option<Box<dyn Any + Send + 'static>> {
        relock(self.first_panic.lock()).take()
    }

    /// Run statistics so far.
    pub fn stats(&self) -> Stats {
        let g = self.lock();
        g.stats
    }

    /// Wake `task` if it is parked; remember the wake otherwise.
    /// Callable from any thread (producers hold no scheduler state).
    pub fn unpark(&self, task: TaskId) {
        let mut g = self.lock();
        Self::unpark_in(&mut g, task.0);
    }

    fn unpark_in(g: &mut Inner, id: usize) {
        match g.tasks[id].status {
            Status::Blocked => {
                g.tasks[id].status = Status::Ready;
                g.tasks[id].stalled = false;
                g.blocked -= 1;
                g.progress += 1;
                let key = (g.tasks[id].time, g.tasks[id].rank, g.tasks[id].seq, id);
                g.ready.push(Reverse(key));
                g.stats.ready_high_water = g.stats.ready_high_water.max(g.ready.len());
            }
            Status::Ready => {
                if g.tasks[id].stalled {
                    // Upgrade a stall round to a real wake.
                    g.tasks[id].stalled = false;
                    g.progress += 1;
                } else {
                    g.tasks[id].pending_wake = true;
                }
            }
            Status::Running | Status::Created => g.tasks[id].pending_wake = true,
            Status::Exited => {}
        }
    }

    /// Hand the run token to the best ready task. Called with no task
    /// running; returns once a grant happened, the run aborted, or no
    /// live task remains. Blocks (deterministically) while spawned tasks
    /// have not yet been adopted.
    fn dispatch<'a>(&'a self, mut g: MutexGuard<'a, Inner>) -> MutexGuard<'a, Inner> {
        debug_assert!(g.running.is_none());
        loop {
            if g.aborted || g.gate > 0 || g.live == 0 {
                return g;
            }
            if g.incoming > 0 {
                g = relock(self.adopt_cv.wait(g));
                continue;
            }
            if let Some(Reverse((_, _, _, id))) = g.ready.pop() {
                debug_assert_eq!(g.tasks[id].status, Status::Ready);
                g.tasks[id].status = Status::Running;
                g.running = Some(id);
                g.tasks[id].cv.notify_all();
                return g;
            }
            // Ready heap empty, nothing incoming, nothing running, yet
            // live tasks exist: everyone is blocked. Stall round.
            self.stall_round(&mut g);
        }
    }

    fn stall_round(&self, g: &mut Inner) {
        if g.stats.stalls > 0 && g.progress == g.progress_at_stall {
            g.barren_stalls += 1;
            if g.barren_stalls >= 2 {
                let dump = Self::render_tasks(g);
                panic!(
                    "event scheduler deadlock: every live task is blocked and \
                     {} consecutive stall rounds made no progress\n{dump}",
                    g.barren_stalls
                );
            }
        } else {
            g.barren_stalls = 0;
        }
        g.stats.stalls += 1;
        g.progress_at_stall = g.progress;
        for id in 0..g.tasks.len() {
            if g.tasks[id].status == Status::Blocked {
                g.tasks[id].status = Status::Ready;
                g.tasks[id].stalled = true;
                g.blocked -= 1;
                let key = (g.tasks[id].time, g.tasks[id].rank, g.tasks[id].seq, id);
                g.ready.push(Reverse(key));
            }
        }
        g.stats.ready_high_water = g.stats.ready_high_water.max(g.ready.len());
    }

    fn render_tasks(g: &Inner) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("task table (first 64):\n");
        for (id, t) in g.tasks.iter().enumerate().take(64) {
            let _ = writeln!(
                out,
                "  #{id} rank={} seq={} {:?} t={:?}{}",
                t.rank,
                t.seq,
                t.status,
                t.time,
                if t.root { " root" } else { "" }
            );
        }
        if g.tasks.len() > 64 {
            let _ = writeln!(out, "  … {} more", g.tasks.len() - 64);
        }
        out
    }

    /// Park body shared by `park`, `join` and adoption: caller has set up
    /// the task's blocked/ready state; waits until granted the run token.
    fn wait_for_grant<'a>(
        &'a self,
        mut g: MutexGuard<'a, Inner>,
        me: usize,
    ) -> (MutexGuard<'a, Inner>, Wake) {
        let cv = Arc::clone(&g.tasks[me].cv);
        loop {
            if g.aborted {
                drop(g);
                panic_any(Aborted);
            }
            if g.tasks[me].status == Status::Running {
                let stalled = std::mem::take(&mut g.tasks[me].stalled);
                let wake = if stalled { Wake::Stalled } else { Wake::Woken };
                return (g, wake);
            }
            g = relock(cv.wait(g));
        }
    }

    /// Park the current task (`me`) at virtual time `now` (or its last
    /// recorded time if `None`) and hand the token over. Returns when the
    /// task is granted the token again.
    fn park_task(&self, me: usize, now: Option<SimTime>) -> Wake {
        let mut g = self.lock();
        g.stats.events += 1;
        debug_assert_eq!(g.running, Some(me));
        if g.aborted {
            drop(g);
            panic_any(Aborted);
        }
        if let Some(now) = now {
            g.tasks[me].time = now;
        }
        if std::mem::take(&mut g.tasks[me].pending_wake) {
            return Wake::Woken;
        }
        g.tasks[me].status = Status::Blocked;
        g.tasks[me].stalled = false;
        g.blocked += 1;
        g.running = None;
        g = self.dispatch(g);
        let (_g, wake) = self.wait_for_grant(g, me);
        wake
    }

    /// Retire the current task (`me`): mark it exited, wake joiners,
    /// dispatch a successor. The task's thread must not touch the
    /// scheduler afterwards.
    fn retire_task(&self, me: usize) {
        let mut g = self.lock();
        g.stats.events += 1;
        g.tasks[me].status = Status::Exited;
        g.live -= 1;
        g.progress += 1;
        let waiters = std::mem::take(&mut g.tasks[me].exit_waiters);
        for w in waiters {
            Self::unpark_in(&mut g, w);
        }
        if g.running == Some(me) {
            g.running = None;
            let _g = self.dispatch(g);
        }
    }

    /// Block the current task (`me`) until `target` exits.
    fn join_task_inner(&self, me: usize, target: usize) {
        loop {
            let mut g = self.lock();
            if g.aborted {
                drop(g);
                panic_any(Aborted);
            }
            if g.tasks[target].status == Status::Exited {
                return;
            }
            if !g.tasks[target].exit_waiters.contains(&me) {
                g.tasks[target].exit_waiters.push(me);
            }
            g.stats.events += 1;
            debug_assert_eq!(g.running, Some(me));
            if std::mem::take(&mut g.tasks[me].pending_wake) {
                continue;
            }
            g.tasks[me].status = Status::Blocked;
            g.tasks[me].stalled = false;
            g.blocked += 1;
            g.running = None;
            g = self.dispatch(g);
            let (_g, _wake) = self.wait_for_grant(g, me);
            // Re-check the target (stall rounds wake joiners too).
        }
    }

    /// Adopt `id` on the calling thread: register it with the scheduler,
    /// install the thread-local handle, and wait for the first grant.
    fn adopt_task(self: &Arc<Self>, id: usize) {
        let mut g = self.lock();
        debug_assert_eq!(g.tasks[id].status, Status::Created);
        g.tasks[id].status = Status::Ready;
        let key = (g.tasks[id].time, g.tasks[id].rank, g.tasks[id].seq, id);
        g.ready.push(Reverse(key));
        g.stats.ready_high_water = g.stats.ready_high_water.max(g.ready.len());
        if g.tasks[id].root {
            g.gate -= 1;
            if g.gate == 0 {
                // Last root opens the gate and runs the first dispatch.
                debug_assert!(g.running.is_none());
                g = self.dispatch(g);
            }
        } else {
            g.incoming -= 1;
            g.progress += 1;
            self.adopt_cv.notify_all();
        }
        let (_g, _wake) = self.wait_for_grant(g, id);
    }
}

/// A reference to one task of one scheduler — cloneable, sendable, and
/// the registration unit of [`WaitQueue`].
#[derive(Clone)]
pub struct Handle {
    sched: Arc<Scheduler>,
    id: TaskId,
}

impl Handle {
    /// This task's id.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// The scheduler owning this task.
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.sched
    }

    /// Bind this task to the calling thread and block until it is first
    /// granted the run token. From then on the thread runs under the
    /// scheduler until [`retire`].
    pub fn adopt(&self) {
        CURRENT.with(|c| {
            debug_assert!(c.borrow().is_none(), "thread already runs a task");
            *c.borrow_mut() = Some(self.clone());
        });
        self.sched.adopt_task(self.id.0);
    }

    /// Wake this task if parked (remembering the wake otherwise).
    pub fn unpark(&self) {
        self.sched.unpark(self.id);
    }

    fn same_task(&self, other: &Handle) -> bool {
        self.id == other.id && Arc::ptr_eq(&self.sched, &other.sched)
    }
}

impl std::fmt::Debug for Handle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Handle").field("id", &self.id).finish()
    }
}

thread_local! {
    static CURRENT: std::cell::RefCell<Option<Handle>> = const { std::cell::RefCell::new(None) };
}

/// The current thread's task handle, if it runs under a scheduler.
pub fn current() -> Option<Handle> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Whether the current thread is an event-scheduler task: the one
/// backend fork, taken inside [`WaitQueue::wait`].
pub(crate) fn is_event_task() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Park the current task at virtual time `now`. Panics (by design) if
/// the thread is not a task — callers must check [`is_event_task`].
pub(crate) fn park(now: SimTime) -> Wake {
    let h = current().expect("sched::park outside a task");
    h.sched.park_task(h.id.0, Some(now))
}

/// Park at the task's last recorded virtual time — for blocking sites
/// with no timestamp of their own (turn tickets, joins), keeping the
/// dispatch key deterministic.
pub(crate) fn park_stale() -> Wake {
    let h = current().expect("sched::park_stale outside a task");
    h.sched.park_task(h.id.0, None)
}

/// Retire the current task and clear the thread-local binding. The
/// thread may outlive the task (e.g. to return a value) but must not
/// call back into the scheduler.
pub fn retire() {
    let h = CURRENT.with(|c| c.borrow_mut().take());
    if let Some(h) = h {
        h.sched.retire_task(h.id.0);
    }
}

/// Spawn a dynamic task for `rank` starting at `time` under the current
/// task's scheduler. Returns `None` on a non-task thread (thread
/// backend). The returned handle must be [`Handle::adopt`]ed by the new
/// task's thread before the simulation can advance.
pub fn spawn_handle(rank: u32, time: SimTime) -> Option<Handle> {
    current().map(|h| h.sched.create_task(rank, time))
}

/// Block the current task until `target` retires. No-op (falls through
/// to the caller's real `JoinHandle::join`) when the current thread is
/// not a task of the same scheduler.
pub fn join_task(target: &Handle) {
    if let Some(me) = current() {
        if Arc::ptr_eq(&me.sched, &target.sched) {
            me.sched.join_task_inner(me.id.0, target.id.0);
        }
    }
}

/// Abort the current task's run with `payload` (stored as the run's
/// first panic unless it is the [`Aborted`] sentinel). No-op outside a
/// task.
pub fn abort_current(payload: Box<dyn Any + Send + 'static>) {
    if let Some(h) = current() {
        h.sched.abort_with(payload);
    }
}

/// The one wait point of both backends: a `Condvar` for plain threads
/// next to the list of event tasks parked on the same condition.
/// Consumers block in [`WaitQueue::wait`]; producers change the state
/// under the same mutex and then call [`WaitQueue::notify_all`].
#[derive(Default)]
pub struct WaitQueue {
    waiters: Mutex<Vec<Handle>>,
    cv: Condvar,
    /// Plain threads blocked on `cv`, counted under the caller's mutex so
    /// `notify_all` can skip the condvar (a syscall) when none are.
    sleepers: AtomicUsize,
}

impl WaitQueue {
    /// A fresh, empty queue.
    pub const fn new() -> Self {
        WaitQueue {
            waiters: Mutex::new(Vec::new()),
            cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
        }
    }

    /// Block until `ready` yields a value, re-checking it under `lock`'s
    /// guard before the first block and after every wake.
    ///
    /// A plain thread blocks on the condvar. An event task registers and
    /// parks at `at` (its last recorded virtual time when `None`) while
    /// still holding the run token, so no wake slips between check and
    /// park. `slice` bounds the wait:
    ///
    /// * `None` — never times out; a stall round re-checks and parks
    ///   again;
    /// * `Some(Duration::ZERO)` — checks once and never blocks;
    /// * `Some(d)` — returns `None` after `d` of real time, or on a
    ///   stall round (`Wake::Stalled`), so the caller can re-check
    ///   liveness between slices.
    pub fn wait<T, R>(
        &self,
        lock: &Mutex<T>,
        slice: Option<Duration>,
        at: Option<SimTime>,
        mut ready: impl FnMut(&mut T) -> Option<R>,
    ) -> Option<R> {
        const POISONED: &str = "a waiter's lock holder panicked";
        let task = is_event_task();
        let deadline = if task {
            None
        } else {
            slice.map(|s| Instant::now() + s)
        };
        let mut g = lock.lock().expect(POISONED);
        loop {
            if let Some(r) = ready(&mut g) {
                return Some(r);
            }
            if slice == Some(Duration::ZERO) {
                return None;
            }
            if task {
                self.register_current();
                drop(g);
                let wake = match at {
                    Some(now) => park(now),
                    None => park_stale(),
                };
                if wake == Wake::Stalled && slice.is_some() {
                    return None;
                }
                g = lock.lock().expect(POISONED);
            } else {
                let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
                if left == Some(Duration::ZERO) {
                    return None;
                }
                self.sleepers.fetch_add(1, Ordering::SeqCst);
                g = match left {
                    Some(left) => self.cv.wait_timeout(g, left).expect(POISONED).0,
                    None => self.cv.wait(g).expect(POISONED),
                };
                self.sleepers.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }

    /// Register the current task (if any); duplicates are ignored, so
    /// re-registering on every loop iteration is fine.
    fn register_current(&self) {
        if let Some(h) = current() {
            let mut w = relock(self.waiters.lock());
            if !w.iter().any(|x| x.same_task(&h)) {
                w.push(h);
            }
        }
    }

    /// Wake every waiter: blocked threads and registered tasks (the
    /// queue is cleared; woken tasks re-register if they park again).
    pub fn notify_all(&self) {
        // A sleeper checked its predicate and registered under the mutex
        // the producer has since released, so the count is visible here.
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            self.cv.notify_all();
        }
        let drained = {
            let mut w = relock(self.waiters.lock());
            if w.is_empty() {
                return;
            }
            std::mem::take(&mut *w)
        };
        for h in drained {
            h.unpark();
        }
    }
}

impl std::fmt::Debug for WaitQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = relock(self.waiters.lock()).len();
        f.debug_struct("WaitQueue").field("waiters", &n).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::SimDuration;

    /// Run `bodies` as root tasks under one scheduler; returns stats.
    fn run_tasks(bodies: Vec<Box<dyn FnOnce() + Send>>) -> Stats {
        let sched = Scheduler::new(bodies.len());
        let handles: Vec<Handle> = (0..bodies.len())
            .map(|i| sched.create_root(i as u32))
            .collect();
        std::thread::scope(|s| {
            for (h, body) in handles.into_iter().zip(bodies) {
                s.spawn(move || {
                    // Adoption itself can unwind with the Aborted
                    // sentinel (another task died before our first
                    // grant), so it lives inside the catch too.
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        h.adopt();
                        body()
                    }));
                    if let Err(p) = r {
                        abort_current(p);
                    }
                    retire();
                });
            }
        });
        if let Some(p) = sched.take_panic() {
            std::panic::resume_unwind(p);
        }
        sched.stats()
    }

    #[test]
    fn two_tasks_ping_pong_deterministically() {
        // Task 0 produces 100 items; task 1 consumes them through a
        // WaitQueue-guarded slot. Order of consumption is pinned.
        let slot = Arc::new(Mutex::new(Vec::<usize>::new()));
        let wq = Arc::new(WaitQueue::new());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (s2, w2, e2) = (Arc::clone(&slot), Arc::clone(&wq), Arc::clone(&seen));
        let (s1, w1) = (Arc::clone(&slot), Arc::clone(&wq));
        let stats = run_tasks(vec![
            Box::new(move || {
                let mut t = SimTime::ZERO;
                for i in 0..100 {
                    t += SimDuration::from_ns(10);
                    s1.lock().unwrap().push(i);
                    w1.notify_all();
                    park(t);
                }
            }),
            Box::new(move || {
                let mut t = SimTime::ZERO;
                let mut got = 0usize;
                while got < 100 {
                    let drained: Vec<usize> = std::mem::take(&mut *s2.lock().unwrap());
                    if drained.is_empty() {
                        w2.register_current();
                        park(t);
                        continue;
                    }
                    got += drained.len();
                    e2.lock().unwrap().extend(drained);
                    t += SimDuration::from_ns(10);
                }
            }),
        ]);
        let seen = seen.lock().unwrap();
        assert_eq!(*seen, (0..100).collect::<Vec<_>>());
        assert!(stats.events > 0);
        assert_eq!(stats.tasks_high_water, 2);
    }

    #[test]
    fn tie_break_is_time_then_rank() {
        // Three tasks all parked at the same virtual time resume in rank
        // order; at different times, in time order.
        let order = Arc::new(Mutex::new(Vec::new()));
        let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..3u32)
            .map(|rank| {
                let order = Arc::clone(&order);
                Box::new(move || {
                    // Park at t=100 for everyone: wake order = rank order.
                    let w = park(SimTime::ZERO + SimDuration::from_ns(100));
                    assert_eq!(w, Wake::Stalled);
                    order.lock().unwrap().push(rank);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        run_tasks(bodies);
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn stall_round_wakes_blocked_tasks() {
        // A task parked with nobody to wake it gets a Stalled wake
        // instead of hanging.
        let stalls = Arc::new(AtomicUsize::new(0));
        let s = Arc::clone(&stalls);
        let stats = run_tasks(vec![Box::new(move || {
            if park(SimTime::ZERO) == Wake::Stalled {
                s.fetch_add(1, Ordering::Relaxed);
            }
        })]);
        assert_eq!(stalls.load(Ordering::Relaxed), 1);
        assert!(stats.stalls >= 1);
    }

    #[test]
    fn barren_stalls_panic_with_task_table() {
        let r = std::panic::catch_unwind(|| {
            run_tasks(vec![Box::new(|| loop {
                park(SimTime::ZERO);
            })]);
        });
        let p = r.expect_err("deadlock must panic");
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()).unwrap());
        assert!(msg.contains("deadlock"), "{msg}");
        assert!(msg.contains("task table"), "{msg}");
    }

    #[test]
    fn dynamic_task_spawn_and_join() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let l = Arc::clone(&log);
        run_tasks(vec![Box::new(move || {
            let child = spawn_handle(0, SimTime::ZERO + SimDuration::from_ns(5)).unwrap();
            let lc = Arc::clone(&l);
            let hc = child.clone();
            let jh = std::thread::spawn(move || {
                hc.adopt();
                lc.lock().unwrap().push("child");
                retire();
            });
            join_task(&child);
            l.lock().unwrap().push("parent-after-join");
            jh.join().unwrap();
        })]);
        assert_eq!(*log.lock().unwrap(), vec!["child", "parent-after-join"]);
    }

    #[test]
    fn panic_in_one_task_aborts_all() {
        let r = std::panic::catch_unwind(|| {
            run_tasks(vec![
                Box::new(|| panic!("boom in task 0")),
                Box::new(|| {
                    // Would deadlock forever without the abort.
                    loop {
                        park(SimTime::ZERO);
                    }
                }),
            ]);
        });
        let p = r.expect_err("panic must propagate");
        let msg = p.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "boom in task 0");
    }

    #[test]
    fn pending_wake_is_not_lost() {
        // Producer wakes the consumer *before* it parks; the park must
        // return immediately rather than deadlock.
        let wq = Arc::new(WaitQueue::new());
        let w1 = Arc::clone(&wq);
        let w2 = Arc::clone(&wq);
        run_tasks(vec![
            Box::new(move || {
                w1.register_current();
                // Let the producer run first (it has rank 1 but we park).
                if park(SimTime::ZERO) == Wake::Stalled {
                    // Producer hadn't run yet; re-register and park again.
                    w1.register_current();
                    park(SimTime::ZERO);
                }
            }),
            Box::new(move || {
                w2.notify_all();
            }),
        ]);
        // Plain threads: a notify issued (and finished) before the
        // consumer waits is not lost either — `wait` re-checks the state
        // under the lock before it ever blocks on the condvar.
        let pair = Arc::new((Mutex::new(false), WaitQueue::new()));
        let p2 = Arc::clone(&pair);
        std::thread::spawn(move || {
            *p2.0.lock().unwrap() = true;
            p2.1.notify_all();
        })
        .join()
        .unwrap();
        let slice = Duration::from_secs(10);
        let start = Instant::now();
        let got = pair
            .1
            .wait(&pair.0, Some(slice), None, |set| set.then_some(()));
        assert_eq!(got, Some(()), "notify before wait was lost");
        assert!(start.elapsed() < slice, "waited out the slice");
    }

    #[test]
    fn timed_wait_off_task_returns_none_after_slice() {
        let wq = WaitQueue::new();
        let m = Mutex::new(0u32);
        let slice = Duration::from_millis(20);
        let start = Instant::now();
        let got = wq.wait(&m, Some(slice), None, |checks| {
            *checks += 1;
            None::<()>
        });
        assert_eq!(got, None);
        assert!(start.elapsed() >= slice, "returned before its slice");
        assert!(*m.lock().unwrap() >= 1);
    }

    #[test]
    fn zero_slice_never_parks() {
        // Off a task: one check, no condvar wait.
        let wq = WaitQueue::new();
        let m = Mutex::new(0u32);
        let zero = Some(Duration::ZERO);
        let bump = |n: &mut u32| -> Option<()> {
            *n += 1;
            None
        };
        assert_eq!(wq.wait(&m, zero, None, bump), None);
        assert_eq!(*m.lock().unwrap(), 1);
        // On a task: no park event and no stall round — the only event
        // is the task's own retirement.
        let stats = run_tasks(vec![Box::new(move || {
            let wq = WaitQueue::new();
            let m = Mutex::new(0u32);
            for _ in 0..10 {
                assert_eq!(wq.wait(&m, zero, Some(SimTime::ZERO), bump), None);
            }
            assert_eq!(*m.lock().unwrap(), 10);
        })]);
        assert_eq!((stats.events, stats.stalls), (1, 0));
    }

    #[test]
    fn untimed_wait_survives_a_stall_round() {
        // A lone task whose condition holds on the second check: the
        // stall round wakes it, and an untimed wait re-checks instead of
        // returning, while a timed wait maps the same wake to `None`.
        let stats = run_tasks(vec![Box::new(|| {
            let wq = WaitQueue::new();
            let m = Mutex::new(0u32);
            let second = |n: &mut u32| {
                *n += 1;
                (*n > 1).then_some(*n)
            };
            assert_eq!(wq.wait(&m, None, None, second), Some(2));
            *m.lock().unwrap() = 0;
            let slice = Some(Duration::from_millis(10));
            assert_eq!(wq.wait(&m, slice, Some(SimTime::ZERO), second), None);
        })]);
        assert_eq!(stats.stalls, 2);
    }
}
