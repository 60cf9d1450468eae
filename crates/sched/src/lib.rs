//! # sched — deterministic discrete-event task scheduler
//!
//! Replaces free-running thread-per-rank execution with a **cooperative
//! virtual-time scheduler**: every rank (and every request-engine worker
//! and `sendrecv` send half) is a *task* with a stack of its own, and all
//! tasks of a run take turns on the one thread that called [`run`]. A
//! task runs until it reaches a blocking site (mailbox match, ring-slot
//! acquisition, barrier, lock, request wait, backpressure stall) and
//! parks: it switches back to the dispatch loop, which resumes the
//! runnable task with the smallest `(virtual time, rank, sequence)` key.
//! Dispatch order is therefore a pure function of the simulation state —
//! same seed, same interleaving, bit for bit — and a dispatch costs a
//! user-space register switch, not an OS context switch.
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
//! wait would. Progress is counted (unparks, spawns, retirements);
//! consecutive stall rounds without progress mean a genuine deadlock and
//! abort the run with a task-table dump instead of hanging CI.
//!
//! ## Thread-locals
//!
//! Tasks share their thread, so its thread-locals would leak from one
//! task into the next. The scheduler keeps the current task's handle
//! itself; every other binding the protocol reads is one [`Locals`]
//! value per task, swapped in when the task resumes and out when it
//! switches away, so each task sees exactly what a thread of its own
//! would, and the launcher's bindings are back after the run.
//!
//! See `docs/SCHEDULER.md` for the full model.

mod context;

use context::Stack;
use simclock::SimTime;
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Sentinel panic payload used to unwind tasks after another task has
/// aborted the run. The first *real* panic is stored and re-thrown by
/// the launcher; taking the run down is the abort's job, not every
/// task's. It unwinds without running the panic hook.
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

/// Identifies a task within its scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TaskId(usize);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// In the ready heap awaiting dispatch.
    Ready,
    /// Switched in by the dispatch loop.
    Running,
    /// Parked at a blocking site.
    Blocked,
    /// Finished.
    Exited,
}

struct TaskState {
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
    /// Tasks parked in `join` on this task's exit.
    exit_waiters: Vec<usize>,
}

struct Inner {
    tasks: Vec<TaskState>,
    /// Min-heap of runnable tasks keyed `(time, rank, seq, id)`.
    ready: BinaryHeap<Reverse<(SimTime, u32, u64, usize)>>,
    /// The task currently switched in, if any.
    running: Option<usize>,
    live: usize,
    next_seq: u64,
    /// Unparks + spawns + retirements — the progress measure that
    /// separates productive stall rounds from deadlock.
    progress: u64,
    progress_at_stall: u64,
    barren_stalls: u32,
    aborted: bool,
    /// Where an aborted run resumes its next task to unwind it.
    abort_cursor: usize,
    /// First non-[`Aborted`] panic payload, re-thrown by the launcher.
    first_panic: Option<Box<dyn Any + Send + 'static>>,
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
    /// Task stacks mapped. A retired task's stack serves the next task,
    /// so this never exceeds `tasks_high_water`.
    pub stacks: usize,
}

/// Thread-local state a task keeps across switches: the bindings the
/// code running in tasks reads from its thread (see the crate docs).
pub trait Locals: 'static {
    /// Exchange the calling thread's bindings with the values held here.
    /// A fresh value (`Default`) holds what a new thread starts with.
    fn swap(&mut self);
}

/// A task's execution state. Only the thread driving the run touches
/// it; the scheduler reaches it through a raw pointer because the task
/// itself writes `sp` and takes `body` while the loop is suspended.
struct Context {
    /// The body, until the first dispatch starts it.
    body: Option<Box<dyn FnOnce()>>,
    /// Mapped at the first dispatch; back to the pool at exit.
    stack: Option<Stack>,
    /// Saved stack pointer while the task is switched out.
    sp: *mut u8,
    locals: Box<dyn Locals>,
}

/// The half of the scheduler that belongs to the thread driving the run.
struct Exec {
    /// Identifies that thread (the address of its [`MARK`]).
    owner: *const u8,
    /// The dispatch loop's saved stack pointer while a task runs.
    loop_sp: Cell<*mut u8>,
    /// One context per task id; null once the task has exited.
    contexts: RefCell<Vec<*mut Context>>,
    /// Stacks of retired tasks, reused by the next first dispatch.
    pool: RefCell<Vec<Stack>>,
    new_locals: fn() -> Box<dyn Locals>,
}

// SAFETY: `Exec` is reached only through `Scheduler::exec`, which panics
// on any thread but the one driving the run, so its cells, raw pointers
// and non-`Send` task bodies never cross threads. [`run`] empties it
// before the scheduler can be dropped elsewhere.
unsafe impl Send for Exec {}
unsafe impl Sync for Exec {}

impl Exec {
    fn context(&self, id: usize) -> *mut Context {
        let ctx = self.contexts.borrow()[id];
        assert!(!ctx.is_null(), "sched: task {id} has no context");
        ctx
    }

    /// Free an exited task's context and return its stack to the pool.
    fn release(&self, id: usize) {
        let ctx = std::mem::replace(&mut self.contexts.borrow_mut()[id], std::ptr::null_mut());
        // SAFETY: `ctx` came from `Box::into_raw` in `create` and the
        // task has switched away for the last time.
        let ctx = unsafe { Box::from_raw(ctx) };
        if let Some(stack) = ctx.stack {
            self.pool.borrow_mut().push(stack);
        }
    }

    /// Drop every context and unmap every stack.
    fn clear(&self) {
        for ctx in self.contexts.take() {
            if !ctx.is_null() {
                // SAFETY: as in `release`; no context is resumed after
                // the run, so dropping one without unwinding it only
                // leaks what its stack owned.
                drop(unsafe { Box::from_raw(ctx) });
            }
        }
        self.pool.take();
    }
}

thread_local! {
    /// A per-thread address that identifies the thread driving a run.
    static MARK: u8 = const { 0 };
    static CURRENT: RefCell<Option<Handle>> = const { RefCell::new(None) };
}

fn thread_mark() -> *const u8 {
    MARK.with(|m| m as *const u8)
}

/// A deterministic cooperative scheduler over stackful tasks.
struct Scheduler {
    inner: Mutex<Inner>,
    exec: Exec,
}

// Scheduler-internal locks tolerate poisoning: a panicking task unwinds
// through park/retire and the launcher still needs the lock to tear the
// run down and re-throw the stored panic.
fn relock<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Scheduler {
    fn new(roots: usize, new_locals: fn() -> Box<dyn Locals>) -> Arc<Self> {
        Arc::new(Scheduler {
            inner: Mutex::new(Inner {
                tasks: Vec::with_capacity(roots),
                ready: BinaryHeap::with_capacity(roots),
                running: None,
                live: 0,
                next_seq: 0,
                progress: 0,
                progress_at_stall: 0,
                barren_stalls: 0,
                aborted: false,
                abort_cursor: 0,
                first_panic: None,
                stats: Stats::default(),
            }),
            exec: Exec {
                owner: thread_mark(),
                loop_sp: Cell::new(std::ptr::null_mut()),
                contexts: RefCell::new(Vec::with_capacity(roots)),
                pool: RefCell::new(Vec::new()),
                new_locals,
            },
        })
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        relock(self.inner.lock())
    }

    fn exec(&self) -> &Exec {
        assert!(
            self.exec.owner == thread_mark(),
            "sched: an event task was touched off the thread driving its run"
        );
        &self.exec
    }

    /// Create a task for `rank` starting at `time`, ready to dispatch.
    ///
    /// # Safety
    /// Whatever `body` borrows must outlive the task: the caller joins
    /// it, or drives the run to its end, before the borrow ends.
    unsafe fn create(
        &self,
        rank: u32,
        time: SimTime,
        root: bool,
        body: Box<dyn FnOnce() + '_>,
    ) -> TaskId {
        // SAFETY: the lifetime is the caller's promise above.
        let body: Box<dyn FnOnce()> = unsafe { std::mem::transmute(body) };
        let exec = self.exec();
        let ctx = Box::new(Context {
            body: Some(body),
            stack: None,
            sp: std::ptr::null_mut(),
            locals: (exec.new_locals)(),
        });
        exec.contexts.borrow_mut().push(Box::into_raw(ctx));
        let mut g = self.lock();
        let seq = g.next_seq;
        g.next_seq += 1;
        let id = g.tasks.len();
        g.tasks.push(TaskState {
            rank,
            seq,
            time,
            status: Status::Ready,
            pending_wake: false,
            stalled: false,
            root,
            exit_waiters: Vec::new(),
        });
        g.ready.push(Reverse((time, rank, seq, id)));
        g.stats.ready_high_water = g.stats.ready_high_water.max(g.ready.len());
        g.live += 1;
        g.stats.tasks_high_water = g.stats.tasks_high_water.max(g.live);
        if !root {
            g.progress += 1;
        }
        TaskId(id)
    }

    /// Abort the run: store the first real panic payload; every task
    /// still live unwinds with the [`Aborted`] sentinel when next resumed.
    fn abort_with(&self, payload: Box<dyn Any + Send + 'static>) {
        let mut g = self.lock();
        if g.first_panic.is_none() && !payload.is::<Aborted>() {
            g.first_panic = Some(payload);
        }
        g.aborted = true;
    }

    /// Wake `task` if it is parked; remember the wake otherwise.
    /// Callable from any thread (producers hold no scheduler state).
    fn unpark(&self, task: TaskId) {
        let mut g = self.lock();
        Self::unpark_in(&mut g, task.0);
    }

    fn unpark_in(g: &mut Inner, id: usize) {
        match g.tasks[id].status {
            Status::Blocked => {
                g.tasks[id].status = Status::Ready;
                g.tasks[id].stalled = false;
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
            Status::Running => g.tasks[id].pending_wake = true,
            Status::Exited => {}
        }
    }

    /// The dispatch loop: resume the best ready task until no live task
    /// remains. Runs on the thread that called [`run`].
    fn drive(self: &Arc<Self>) {
        loop {
            let id = {
                let mut g = self.lock();
                if g.live == 0 {
                    return;
                }
                Self::next_task(&mut g)
            };
            self.resume(id);
        }
    }

    fn next_task(g: &mut Inner) -> usize {
        debug_assert!(g.running.is_none());
        loop {
            let next = if g.aborted {
                // Unwind what is left in id order; a joiner re-parks
                // until its target is gone, so go round.
                let n = g.tasks.len();
                let id = (0..n)
                    .map(|k| (g.abort_cursor + k) % n)
                    .find(|&id| g.tasks[id].status != Status::Exited)
                    .expect("a live task");
                g.abort_cursor = id + 1;
                Some(id)
            } else {
                g.ready.pop().map(|Reverse((_, _, _, id))| id)
            };
            if let Some(id) = next {
                g.tasks[id].status = Status::Running;
                g.running = Some(id);
                return id;
            }
            // Ready heap empty, nothing running, yet live tasks exist:
            // everyone is blocked. Stall round.
            Self::stall_round(g);
        }
    }

    fn stall_round(g: &mut Inner) {
        if g.stats.stalls > 0 && g.progress == g.progress_at_stall {
            g.barren_stalls += 1;
            if g.barren_stalls >= 2 {
                let dump = Self::render_tasks(g);
                g.first_panic.get_or_insert_with(|| {
                    Box::new(format!(
                        "event scheduler deadlock: every live task is blocked and \
                         {} consecutive stall rounds made no progress\n{dump}",
                        g.barren_stalls
                    ))
                });
                g.aborted = true;
                return;
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

    /// Switch task `id` in until it parks or exits. This is the one place
    /// that installs a task's thread-locals and takes them back.
    fn resume(self: &Arc<Self>, id: usize) {
        let exec = self.exec();
        let ctx = exec.context(id);
        // SAFETY: `ctx` stays allocated until `release` below, and only
        // this thread touches it; no reference into it is held across
        // the switch, during which the task uses it too.
        unsafe {
            if (*ctx).stack.is_none() {
                if self.lock().aborted {
                    // Never started: drop the body here, no stack needed.
                    drop((*ctx).body.take());
                    self.retire_task(id);
                    exec.release(id);
                    return;
                }
                let stack = exec.pool.borrow_mut().pop().unwrap_or_else(|| {
                    self.lock().stats.stacks += 1;
                    Stack::new()
                });
                (*ctx).sp = context::init(&stack, ctx.cast());
                (*ctx).stack = Some(stack);
            }
            let handle = Handle {
                sched: Arc::clone(self),
                id: TaskId(id),
            };
            let launcher = CURRENT.replace(Some(handle));
            (*ctx).locals.swap();
            context::switch(exec.loop_sp.as_ptr(), (*ctx).sp);
            (*ctx).locals.swap();
            CURRENT.set(launcher);
        }
        if self.lock().tasks[id].status == Status::Exited {
            exec.release(id);
        }
    }

    /// Switch the running task `me` out to the dispatch loop; returns
    /// when the loop resumes it. No lock may be held across this.
    fn switch_out(&self, me: usize) {
        let exec = self.exec();
        let ctx = exec.context(me);
        // SAFETY: the loop suspended itself in `resume` and saved its
        // stack pointer in `loop_sp`; ours goes into the task's context.
        unsafe { context::switch(&raw mut (*ctx).sp, exec.loop_sp.get()) };
    }

    /// Park the running task `me` at virtual time `now` (or its last
    /// recorded time if `None`) and switch to the dispatch loop. Returns
    /// when the task is resumed. An aborted run unwinds the task with
    /// [`Aborted`] instead.
    fn park_task(&self, me: usize, now: Option<SimTime>) -> Wake {
        {
            let mut g = self.lock();
            g.stats.events += 1;
            debug_assert_eq!(g.running, Some(me));
            if g.aborted {
                drop(g);
                resume_unwind(Box::new(Aborted));
            }
            if let Some(now) = now {
                g.tasks[me].time = now;
            }
            if std::mem::take(&mut g.tasks[me].pending_wake) {
                return Wake::Woken;
            }
            Self::block_in(&mut g, me);
        }
        self.switch_out(me);
        let mut g = self.lock();
        if g.aborted {
            drop(g);
            resume_unwind(Box::new(Aborted));
        }
        if std::mem::take(&mut g.tasks[me].stalled) {
            Wake::Stalled
        } else {
            Wake::Woken
        }
    }

    fn block_in(g: &mut Inner, me: usize) {
        g.tasks[me].status = Status::Blocked;
        g.tasks[me].stalled = false;
        g.running = None;
    }

    /// Retire task `me`: mark it exited and wake its joiners. Its last
    /// switch back to the loop follows.
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
        }
    }

    /// Block the running task `me` until `target` exits. Unlike a park,
    /// this keeps waiting in an aborted run, so a task never outlives
    /// the joiner whose stack it may borrow from.
    fn join_task(&self, me: usize, target: usize) {
        loop {
            {
                let mut g = self.lock();
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
                Self::block_in(&mut g, me);
            }
            self.switch_out(me);
            // Re-check the target (stall rounds wake joiners too).
        }
    }
}

/// First Rust code on a task's stack (entered from `context::init`'s
/// frame): run the body, turn a panic into the run's abort, retire, and
/// switch away for good. Nothing may stay alive on this stack at the
/// final switch, since it is never resumed.
extern "C" fn task_main(ctx: *mut u8) -> ! {
    let ctx = ctx.cast::<Context>();
    // SAFETY: `resume` passed this task's live context; the loop does
    // not touch it while the task runs.
    let body = unsafe { (*ctx).body.take() }.expect("sched: task started twice");
    let sched = current_handle().expect("sched: task without a scheduler");
    if let Err(p) = catch_unwind(AssertUnwindSafe(body)) {
        sched.sched.abort_with(p);
    }
    sched.sched.retire_task(sched.id.0);
    let loop_sp = sched.sched.exec().loop_sp.get();
    drop(sched);
    // SAFETY: the loop is suspended in `resume` at `loop_sp`.
    unsafe { context::switch(&raw mut (*ctx).sp, loop_sp) };
    unreachable!("sched: a retired task was resumed")
}

/// A reference to one task of one scheduler: the registration unit of
/// [`WaitQueue`].
#[derive(Clone)]
struct Handle {
    sched: Arc<Scheduler>,
    id: TaskId,
}

impl Handle {
    fn unpark(&self) {
        self.sched.unpark(self.id);
    }

    fn same_task(&self, other: &Handle) -> bool {
        self.id == other.id && Arc::ptr_eq(&self.sched, &other.sched)
    }
}

fn current_handle() -> Option<Handle> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Whether the current code runs in an event task: the one backend
/// fork, taken inside [`WaitQueue::wait`] and [`spawn`].
pub(crate) fn is_event_task() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Park the current task at virtual time `now`. Panics (by design) off
/// a task — callers must check [`is_event_task`].
pub(crate) fn park(now: SimTime) -> Wake {
    let h = current_handle().expect("sched::park outside a task");
    h.sched.park_task(h.id.0, Some(now))
}

/// Park at the task's last recorded virtual time — for blocking sites
/// with no timestamp of their own (turn tickets, joins), keeping the
/// dispatch key deterministic.
pub(crate) fn park_stale() -> Wake {
    let h = current_handle().expect("sched::park_stale outside a task");
    h.sched.park_task(h.id.0, None)
}

/// Run `roots` as root tasks, root `i` on rank `i` at virtual time zero,
/// and drive them on the calling thread until every task has exited.
/// Each task starts with `L::default()` as its [`Locals`].
///
/// Returns the run's statistics and the roots' results in rank order,
/// or the first real panic of any task (every other task is unwound
/// with [`Aborted`] first; a deadlock is reported the same way).
///
/// # Panics
/// On targets other than x86_64 Linux, which have no task switch.
pub fn run<L, T, B>(roots: Vec<B>) -> (Stats, std::thread::Result<Vec<T>>)
where
    L: Locals + Default,
    B: FnOnce() -> T,
{
    if !context::SUPPORTED {
        panic!(
            "the event backend switches task stacks with x86_64 Linux assembly \
             and cannot run on this target; use Backend::Thread"
        );
    }
    let slots: Vec<Cell<Option<T>>> = roots.iter().map(|_| Cell::new(None)).collect();
    let sched = Scheduler::new(roots.len(), || Box::new(L::default()));
    // Empty the contexts however the run ends, so nothing the roots
    // borrow outlives this call inside a scheduler that a handle keeps.
    struct Clear<'a>(&'a Exec);
    impl Drop for Clear<'_> {
        fn drop(&mut self) {
            self.0.clear();
        }
    }
    let _clear = Clear(sched.exec());
    for (rank, (body, slot)) in roots.into_iter().zip(&slots).enumerate() {
        // SAFETY: `drive` returns only once every task has exited, and
        // `_clear` drops unstarted bodies before `slots` goes away.
        unsafe {
            sched.create(
                rank as u32,
                SimTime::ZERO,
                true,
                Box::new(move || slot.set(Some(body()))),
            )
        };
    }
    sched.drive();
    let mut g = sched.lock();
    let outs = match g.first_panic.take() {
        Some(p) => Err(p),
        None => slots
            .into_iter()
            .map(Cell::into_inner)
            .collect::<Option<Vec<T>>>()
            .ok_or_else(|| Box::new(Aborted) as Box<dyn Any + Send>),
    };
    (g.stats, outs)
}

/// A task spawned by [`spawn`]: a scheduler task under the event
/// backend, an OS thread elsewhere.
pub struct Task<T>(TaskKind<T>);

enum TaskKind<T> {
    Event {
        handle: Handle,
        result: Arc<Mutex<Option<T>>>,
    },
    Thread(std::thread::JoinHandle<T>),
}

impl<T> Task<T> {
    /// Wait for the task to finish and take its result; `Err` carries a
    /// thread's panic payload, or [`Aborted`] for an event task that
    /// panicked (the real payload is the run's, re-thrown by [`run`]).
    ///
    /// An event task is awaited in virtual time (the caller parks).
    /// While the caller is unwinding it is not awaited at all — no
    /// switch happens during an unwind — and `Err(Aborted)` returns at
    /// once: the run's abort unwinds the task on its own.
    pub fn join(self) -> std::thread::Result<T> {
        match self.0 {
            TaskKind::Thread(j) => j.join(),
            TaskKind::Event { handle, result } => {
                if std::thread::panicking() {
                    return Err(Box::new(Aborted));
                }
                // Off the task's run (after it ended), the task is gone.
                if let Some(me) = current_handle() {
                    if Arc::ptr_eq(&me.sched, &handle.sched) {
                        me.sched.join_task(me.id.0, handle.id.0);
                    }
                }
                relock(result.lock())
                    .take()
                    .ok_or_else(|| Box::new(Aborted) as Box<dyn Any + Send>)
            }
        }
    }
}

/// Spawn `body` for `rank`: inside an event task, as a new task of the
/// same run that first becomes ready at virtual time `time` (it starts
/// with fresh [`Locals`], like a new thread); anywhere else, on a new OS
/// thread.
pub fn spawn<T, F>(rank: u32, time: SimTime, body: F) -> Task<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    // SAFETY: `body` borrows nothing.
    unsafe { spawn_unchecked(rank, time, body) }
}

/// [`spawn`] for a body that borrows from the caller.
///
/// # Safety
/// The caller must join the task on every path, unwinding included,
/// before anything `body` borrows goes away.
unsafe fn spawn_unchecked<'a, T, F>(rank: u32, time: SimTime, body: F) -> Task<T>
where
    F: FnOnce() -> T + Send + 'a,
    T: Send + 'a,
{
    match current_handle() {
        Some(me) => {
            let result = Arc::new(Mutex::new(None));
            let out = Arc::clone(&result);
            let body = Box::new(move || *relock(out.lock()) = Some(body()));
            // SAFETY: forwarded from the caller.
            let id = unsafe { me.sched.create(rank, time, false, body) };
            Task(TaskKind::Event {
                handle: Handle {
                    sched: me.sched,
                    id,
                },
                result,
            })
        }
        None => {
            // SAFETY: forwarded from the caller.
            let thread = unsafe { std::thread::Builder::new().spawn_unchecked(body) };
            Task(TaskKind::Thread(thread.expect("spawn task thread")))
        }
    }
}

/// Run `child` as a task of `rank` that becomes ready at `time` (an OS
/// thread off the event backend) while the caller runs `parent`, then
/// join the child. Both may borrow from the caller: the child is joined
/// on every path, and a panic of `parent` resumes only after the join.
///
/// # Panics
/// When called during an unwind, where an event task could not be
/// awaited (see [`Task::join`]).
pub fn fork_join<A, B>(
    rank: u32,
    time: SimTime,
    child: impl FnOnce() -> A + Send,
    parent: impl FnOnce() -> B,
) -> (std::thread::Result<A>, B)
where
    A: Send,
{
    assert!(
        !std::thread::panicking(),
        "sched::fork_join called during an unwind"
    );
    // SAFETY: joined below before returning or resuming a panic; the
    // parent's panic is caught first and the caller was not unwinding,
    // so the join really waits.
    let task = unsafe { spawn_unchecked(rank, time, child) };
    let parent = catch_unwind(AssertUnwindSafe(parent));
    let child = task.join();
    match parent {
        Ok(b) => (child, b),
        Err(p) => resume_unwind(p),
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
    /// parks at `at` (its last recorded virtual time when `None`); no
    /// other task runs between its check and its park, so no wake slips
    /// in between. `slice` bounds the wait:
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
        if let Some(h) = current_handle() {
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

    impl Locals for () {
        fn swap(&mut self) {}
    }

    /// Run `bodies` as root tasks under one scheduler; returns stats and
    /// re-throws the run's first panic.
    fn run_tasks(bodies: Vec<Box<dyn FnOnce()>>) -> Stats {
        let (stats, outs) = run::<(), _, _>(bodies);
        if let Err(p) = outs {
            resume_unwind(p);
        }
        stats
    }

    fn ns(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_ns(n)
    }

    fn message(p: &(dyn Any + Send)) -> String {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
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
        let bodies: Vec<Box<dyn FnOnce()>> = (0..3u32)
            .map(|rank| {
                let order = Arc::clone(&order);
                Box::new(move || {
                    // Park at t=100 for everyone: wake order = rank order.
                    let w = park(ns(100));
                    assert_eq!(w, Wake::Stalled);
                    order.lock().unwrap().push(rank);
                }) as Box<dyn FnOnce()>
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
        let r = catch_unwind(|| {
            run_tasks(vec![Box::new(|| loop {
                park(SimTime::ZERO);
            })]);
        });
        let msg = message(&*r.expect_err("deadlock must panic"));
        assert!(msg.contains("deadlock"), "{msg}");
        assert!(msg.contains("task table"), "{msg}");
    }

    #[test]
    fn dynamic_task_spawn_and_join() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let l = Arc::clone(&log);
        let launcher = std::thread::current().id();
        let stats = run_tasks(vec![Box::new(move || {
            let lc = Arc::clone(&l);
            let child = spawn(0, ns(5), move || {
                assert_eq!(std::thread::current().id(), launcher);
                lc.lock().unwrap().push("child");
                7
            });
            assert_eq!(child.join().unwrap(), 7);
            l.lock().unwrap().push("parent-after-join");
        })]);
        assert_eq!(*log.lock().unwrap(), vec!["child", "parent-after-join"]);
        assert_eq!((stats.tasks_high_water, stats.stacks), (2, 2));
        // Off a task, `spawn` is a thread and `join` an OS join.
        assert_eq!(spawn(0, SimTime::ZERO, || 3).join().unwrap(), 3);
    }

    #[test]
    fn panic_in_one_task_aborts_all() {
        let r = catch_unwind(|| {
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
        assert_eq!(
            message(&*r.expect_err("panic must propagate")),
            "boom in task 0"
        );
    }

    #[test]
    fn panic_unwinds_every_parked_task_and_releases_every_stack() {
        // Each task holds a drop counter on its own stack; 63 park for
        // good, then the last one panics.
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let mapped = context::MAPPED.get();
        let bodies: Vec<Box<dyn FnOnce()>> = (0..64u64)
            .map(|rank| {
                let held = Counted(Arc::clone(&drops));
                Box::new(move || {
                    let _held = held;
                    if rank == 63 {
                        panic!("boom in task 63");
                    }
                    loop {
                        park(ns(rank));
                    }
                }) as Box<dyn FnOnce()>
            })
            .collect();
        let (stats, outs) = run::<(), _, _>(bodies);
        let payload = outs.expect_err("the panic is re-thrown");
        assert_eq!(message(&*payload), "boom in task 63");
        assert_eq!(
            drops.load(Ordering::Relaxed),
            64,
            "a parked stack was not unwound"
        );
        assert_eq!(stats.stacks, 64);
        assert_eq!(context::MAPPED.get(), mapped, "a stack was not unmapped");
    }

    #[test]
    fn sequential_spawns_reuse_one_stack() {
        let stats = run_tasks(vec![Box::new(|| {
            for i in 0..1000 {
                let t = spawn(0, ns(i), move || {
                    park(ns(i));
                    i
                });
                assert_eq!(t.join().unwrap(), i);
            }
        })]);
        assert_eq!(stats.tasks_high_water, 2);
        assert!(stats.stacks <= stats.tasks_high_water, "{stats:?}");
    }

    #[test]
    fn fork_join_outlives_a_panicking_parent() {
        // The child borrows `data`; the parent panics while the child is
        // parked, and the panic resumes only after the child finished.
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        let r = catch_unwind(AssertUnwindSafe(|| {
            run_tasks(vec![Box::new(move || {
                let data: Vec<u8> = (1..=3).collect();
                let _ = fork_join(
                    0,
                    ns(1),
                    || {
                        park(ns(1));
                        d.fetch_add(data.len(), Ordering::Relaxed);
                    },
                    || panic!("parent half"),
                );
            })]);
        }));
        assert_eq!(message(&*r.expect_err("parent panic")), "parent half");
        assert_eq!(done.load(Ordering::Relaxed), 3);
        // Off a task both halves run, the child on a thread.
        let data = [5u8; 4];
        let (child, parent) = fork_join(0, SimTime::ZERO, || data.len(), || data[0]);
        assert_eq!((child.unwrap(), parent), (4, 5));
    }

    thread_local! {
        static TAG: Cell<u32> = const { Cell::new(0) };
    }

    #[derive(Default)]
    struct Tag(u32);

    impl Locals for Tag {
        fn swap(&mut self) {
            self.0 = TAG.replace(self.0);
        }
    }

    #[test]
    fn tasks_share_the_launcher_thread_but_not_its_locals() {
        let launcher = std::thread::current().id();
        TAG.set(99);
        // Each task wakes the other and parks: they alternate.
        let wq = Arc::new(WaitQueue::new());
        let bodies: Vec<Box<dyn FnOnce()>> = (0..2u32)
            .map(|rank| {
                let wq = Arc::clone(&wq);
                Box::new(move || {
                    assert_eq!(std::thread::current().id(), launcher);
                    assert_eq!(TAG.get(), 0, "a task starts with fresh locals");
                    TAG.set(rank + 1);
                    for i in 0..100 {
                        wq.notify_all();
                        wq.register_current();
                        park(ns(i));
                        assert_eq!(TAG.get(), rank + 1);
                    }
                }) as Box<dyn FnOnce()>
            })
            .collect();
        let (stats, outs) = run::<Tag, _, _>(bodies);
        if let Err(p) = outs {
            panic!("{}", message(&*p));
        }
        assert_eq!(TAG.get(), 99, "the launcher's binding changed");
        assert!(stats.events >= 200);
    }

    #[test]
    fn backtrace_inside_a_task() {
        run_tasks(vec![Box::new(|| {
            park(SimTime::ZERO);
            let bt = std::backtrace::Backtrace::force_capture();
            assert!(!format!("{bt}").is_empty());
        })]);
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
