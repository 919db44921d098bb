//! The unified work-stealing runtime.
//!
//! One [`Runtime`] owns every worker thread a session (or a whole serving
//! fleet) uses. Both parallelism dimensions the paper's Figure 6 sweeps —
//! intra-op (one kernel split across workers) and inter-op (independent
//! operations co-scheduled) — run on the *same* workers, through two
//! dispatch shapes sized to what they carry:
//!
//! * **Whole operations** are queued as plain [`Task`] records
//!   (`fn(ctx, index)`, three words, no allocation). Each worker owns a
//!   **local deque**; threads that are not runtime workers (the session
//!   coordinator, serving threads) share the global **injector** as
//!   theirs. A thread pushes to its own deque and pops it LIFO — the
//!   newest task reads what the thread just wrote — and an idle thread
//!   takes the oldest task of the injector first, then of its peers'
//!   deques (those steals are counted).
//! * **Kernel chunks** are never queued. [`Runtime::for_chunks`] publishes
//!   one stack-resident descriptor in a broadcast slot; the caller and any
//!   idle thread claim chunk indices from its atomic cursor until none are
//!   left. A peer that is busy simply never shows up and the caller runs
//!   every chunk itself, so a wide kernel balances against co-scheduled
//!   operations with no decision made in advance.
//!
//! # Idle protocol
//!
//! A thread with nothing to run **spins** for [`SPIN_BUDGET`] (handing work
//! to a spinning peer costs a cache-line transfer, about a microsecond),
//! then registers in the sleeper list and **parks**. Publishers read one
//! sleeper count after publishing and touch the list's mutex only when it
//! is nonzero, so a busy pool dispatches without a system call. Waiting is
//! still **helping**: [`Runtime::help_until`] runs queued tasks and chunks
//! while its condition is false, which is what makes a single shared pool
//! deadlock-free — no thread parks while runnable work exists.
//!
//! Determinism is unaffected by who claims what: chunk boundaries are
//! fixed by the caller before publication, every chunk writes a
//! deterministic function of its index to a disjoint region, and executor
//! ops publish into position-keyed slots, so *which thread* runs a piece
//! never changes the bytes produced.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// How long a thread with nothing to run keeps polling before it parks,
/// and how long a barrier spins for the last chunk before it parks. About
/// the cost of one park/unpark round trip, so spinning never wastes more
/// than sleeping would have; the second half of the budget yields between
/// polls so that, with more threads than cores, the thread being waited
/// for gets the core.
const SPIN_BUDGET: Duration = Duration::from_micros(60);

/// Polls between clock reads while spinning.
const POLLS_PER_CLOCK: u32 = 32;

/// Most broadcast slots a runtime has (one bit each in `slot_mask`).
const MAX_SLOTS: usize = 64;

thread_local! {
    /// `(shared-ptr address, queue index)` of the runtime this thread
    /// works for; `(0, 0)` when the thread is not a runtime worker.
    static WORKER: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

/// One bounded spin: `poll` burns a moment and reports whether the budget
/// still has time left.
struct Spin {
    polls: u32,
    started: Option<Instant>,
}

impl Spin {
    fn new() -> Self {
        Spin { polls: 0, started: None }
    }

    fn poll(&mut self) -> bool {
        self.polls += 1;
        if !self.polls.is_multiple_of(POLLS_PER_CLOCK) {
            std::hint::spin_loop();
            return true;
        }
        let spent = self.started.get_or_insert_with(Instant::now).elapsed();
        if spent >= SPIN_BUDGET {
            return false;
        }
        if spent >= SPIN_BUDGET / 2 {
            std::thread::yield_now();
        }
        true
    }
}

/// A queued whole-operation task: `run(ctx, index)`, executed exactly once
/// by whichever thread dequeues it.
#[derive(Debug, Clone, Copy)]
pub struct Task {
    run: unsafe fn(*const (), usize),
    ctx: *const (),
    index: usize,
}

// SAFETY: `Task::new`'s contract makes the call sound from any thread.
unsafe impl Send for Task {}

impl Task {
    /// A task that calls `run(ctx, index)`.
    ///
    /// # Safety
    ///
    /// From the moment the task is handed to [`Runtime::spawn`] until
    /// `run` returns, calling `run(ctx, index)` once from any thread must
    /// be sound: `ctx` stays valid and whatever it points at is safe to
    /// share. `run` must not unwind past data it leaves half-updated (the
    /// runtime catches the panic and only records it).
    pub unsafe fn new(run: unsafe fn(*const (), usize), ctx: *const (), index: usize) -> Self {
        Task { run, ctx, index }
    }
}

/// The descriptor of one in-flight [`Runtime::for_chunks`], resident in the
/// caller's stack frame for exactly as long as a broadcast slot points at
/// it.
#[repr(align(64))]
struct ForJob {
    run: unsafe fn(*const (), usize),
    ctx: *const (),
    chunks: usize,
    /// Next unclaimed chunk index; claims at or past `chunks` find nothing.
    cursor: AtomicUsize,
    /// The first panic raised by a chunk, re-raised by the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl ForJob {
    /// Claims and runs chunks until none are left. A panicking chunk is
    /// recorded and cancels the chunks nobody has claimed yet.
    fn work(&self) {
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.chunks {
                return;
            }
            // SAFETY: `for_chunks` built `run`/`ctx` from a `&F` that
            // outlives the descriptor, and `F: Sync`.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
                (self.run)(self.ctx, i);
            }));
            if let Err(payload) = outcome {
                self.cursor.store(self.chunks, Ordering::Relaxed);
                self.panic.lock().expect("chunk panic slot").get_or_insert(payload);
            }
        }
    }
}

/// Where a `for_chunks` caller advertises its descriptor. `visitors` is
/// the lifetime protocol: a helper counts itself in *before* it reads
/// `job`, and the owner clears `job` *before* it waits for the count to
/// drain, so (both sequentially consistent) a helper either sees null or
/// is waited for — the descriptor is never touched after its frame dies.
#[repr(align(64))]
struct ForSlot {
    claimed: AtomicBool,
    job: AtomicPtr<ForJob>,
    visitors: AtomicUsize,
    /// The owner, named only while it is parked waiting for the visitors
    /// to leave; the last one out unparks it. The mutex orders the two
    /// sides: a visitor that locks after the owner named itself finds
    /// the name, one that locked before has already left the count the
    /// owner reads next.
    owner: Mutex<Option<Thread>>,
}

/// Queues and coordination state shared by every handle and worker.
struct Shared {
    /// `queues[0]` is the global injector; `queues[1..]` are the workers'
    /// local deques (worker `i` owns `queues[i + 1]`).
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Tasks queued but not yet picked up, across all queues. Lets idle
    /// threads poll one word instead of locking every queue.
    queued: AtomicUsize,
    slots: Vec<ForSlot>,
    /// Bit `i` is set while slot `i` advertises unclaimed chunks.
    slot_mask: AtomicU64,
    /// Parked threads, and their number readable without the lock.
    sleepers: Mutex<Vec<Thread>>,
    sleeping: AtomicUsize,
    steals: AtomicU64,
    parks: AtomicU64,
    poisoned: AtomicBool,
    shutdown: AtomicBool,
}

impl Shared {
    fn addr(self: &Arc<Self>) -> usize {
        Arc::as_ptr(self) as usize
    }

    /// The calling thread's own queue index, when it is a worker of this
    /// runtime.
    fn me(self: &Arc<Self>) -> Option<usize> {
        let (addr, slot) = WORKER.get();
        (addr == self.addr()).then_some(slot)
    }

    fn has_work(&self) -> bool {
        self.queued.load(Ordering::SeqCst) != 0 || self.slot_mask.load(Ordering::SeqCst) != 0
    }

    /// Wakes up to `n` parked threads. Callers publish their work
    /// (sequentially consistent) *before* this reads the sleeper count; a
    /// sleeper bumps the count before its last look for work, so one side
    /// always sees the other and no wakeup is lost.
    fn wake(&self, n: usize) {
        if self.sleeping.load(Ordering::SeqCst) == 0 {
            return;
        }
        let mut list = self.sleepers.lock().expect("runtime sleeper list");
        for _ in 0..n {
            match list.pop() {
                Some(thread) => thread.unpark(),
                None => break,
            }
        }
        self.sleeping.store(list.len(), Ordering::SeqCst);
    }

    /// Parks the calling thread once, unless `ready` already holds after
    /// it has registered as a sleeper. Returns on any unpark — from
    /// `wake`, or from whoever the caller arranged to make `ready` true —
    /// so callers re-check in a loop.
    fn sleep(&self, ready: impl Fn() -> bool) {
        let me = std::thread::current();
        {
            let mut list = self.sleepers.lock().expect("runtime sleeper list");
            list.push(me.clone());
            self.sleeping.store(list.len(), Ordering::SeqCst);
        }
        if !ready() {
            self.parks.fetch_add(1, Ordering::Relaxed);
            std::thread::park();
        }
        let mut list = self.sleepers.lock().expect("runtime sleeper list");
        if let Some(at) = list.iter().position(|t| t.id() == me.id()) {
            list.swap_remove(at);
            self.sleeping.store(list.len(), Ordering::SeqCst);
        }
    }

    /// Pushes a task onto the caller's own deque: its local one when the
    /// caller is a worker of this runtime, the injector otherwise.
    fn push(self: &Arc<Self>, task: Task) {
        let queue = self.me().unwrap_or(0);
        self.queues[queue].lock().expect("runtime queue").push_back(task);
        self.queued.fetch_add(1, Ordering::SeqCst);
        self.wake(1);
    }

    /// Pops one runnable task, preferring the caller's own deque (LIFO,
    /// newest first), then the oldest of the injector and of each peer.
    fn find(&self, me: Option<usize>) -> Option<Task> {
        if self.queued.load(Ordering::Acquire) == 0 {
            return None;
        }
        // A thread that is not a worker pushes to the injector, so that
        // is its "own" deque.
        let own = me.unwrap_or(0);
        if let Some(task) = self.queues[own].lock().expect("runtime queue").pop_back() {
            self.queued.fetch_sub(1, Ordering::Release);
            return Some(task);
        }
        // The injector, then the peers in ring order after the caller.
        let n = self.queues.len();
        let peers = (1..n).map(|off| (own + off) % n).filter(|&q| q != 0);
        for q in std::iter::once(0).chain(peers).filter(|&q| q != own) {
            if let Some(task) = self.queues[q].lock().expect("runtime queue").pop_front() {
                self.queued.fetch_sub(1, Ordering::Release);
                if q != 0 {
                    // Taking from a peer's deque is a steal; injector
                    // pulls are ordinary dispatch.
                    self.steals.fetch_add(1, Ordering::Relaxed);
                }
                return Some(task);
            }
        }
        None
    }

    /// Joins every advertised `for_chunks` that still has unclaimed
    /// chunks; reports whether any slot was visited.
    fn help_chunks(&self) -> bool {
        let mut mask = self.slot_mask.load(Ordering::Acquire);
        let visited = mask != 0;
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let slot = &self.slots[i];
            slot.visitors.fetch_add(1, Ordering::SeqCst);
            let job = slot.job.load(Ordering::SeqCst);
            if !job.is_null() {
                // SAFETY: counted in as a visitor before reading `job`,
                // so its owner cannot leave `retire` (and its frame)
                // until the count below drops.
                unsafe { (*job).work() };
                // Every chunk is claimed: stop advertising, so idle
                // threads go back to polling two words instead of this
                // slot while the owner finishes its own chunk.
                self.slot_mask.fetch_and(!(1 << i), Ordering::SeqCst);
            }
            if slot.visitors.fetch_sub(1, Ordering::SeqCst) == 1 {
                if let Some(owner) = slot.owner.lock().expect("slot owner").as_ref() {
                    owner.unpark();
                }
            }
        }
        visited
    }

    /// Runs one piece of available work — chunks first (someone is
    /// blocked on them and they are short), then one queued task. Panics
    /// inside tasks are caught and recorded in the poison flag, so a
    /// panicking task never kills a worker.
    fn help(&self, me: Option<usize>) -> bool {
        if self.help_chunks() {
            return true;
        }
        match self.find(me) {
            Some(task) => {
                // SAFETY: the contract of `Task::new`.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
                    (task.run)(task.ctx, task.index);
                }));
                if outcome.is_err() {
                    self.poisoned.store(true, Ordering::SeqCst);
                }
                true
            }
            None => false,
        }
    }

    /// Helps until `ready` holds; with nothing to run, spins the budget
    /// out and then sleeps until new work is published or the caller's
    /// own waker unparks this thread.
    fn help_until(&self, me: Option<usize>, ready: impl Fn() -> bool) {
        let mut spin = Spin::new();
        while !ready() {
            if self.help(me) {
                spin = Spin::new();
            } else if !spin.poll() {
                self.sleep(|| ready() || self.has_work());
                spin = Spin::new();
            }
        }
    }

    fn worker_loop(self: Arc<Self>, index: usize) {
        WORKER.set((self.addr(), index + 1));
        self.help_until(Some(index + 1), || self.shutdown.load(Ordering::SeqCst));
    }

    /// Advertises `job` in a free slot and wakes sleepers for its other
    /// chunks. `None` when every slot is taken: the caller then runs all
    /// chunks itself, which the cursor makes correct anyway.
    fn publish(&self, job: &ForJob) -> Option<usize> {
        let i = self.slots.iter().position(|slot| {
            !slot.claimed.load(Ordering::Relaxed)
                && slot
                    .claimed
                    .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
        })?;
        self.slots[i].job.store(job as *const ForJob as *mut ForJob, Ordering::SeqCst);
        self.slot_mask.fetch_or(1 << i, Ordering::SeqCst);
        self.wake(job.chunks - 1);
        Some(i)
    }

    /// Withdraws slot `i` and returns once no helper can still reach the
    /// descriptor it advertised: bounded spin for the stragglers' chunks,
    /// then park until the last visitor unparks the owner.
    fn retire(&self, i: usize) {
        let slot = &self.slots[i];
        self.slot_mask.fetch_and(!(1 << i), Ordering::SeqCst);
        slot.job.store(std::ptr::null_mut(), Ordering::SeqCst);
        let mut spin = Spin::new();
        while slot.visitors.load(Ordering::SeqCst) != 0 {
            if spin.poll() {
                continue;
            }
            *slot.owner.lock().expect("slot owner") = Some(std::thread::current());
            while slot.visitors.load(Ordering::SeqCst) != 0 {
                self.parks.fetch_add(1, Ordering::Relaxed);
                std::thread::park();
            }
            *slot.owner.lock().expect("slot owner") = None;
        }
        slot.claimed.store(false, Ordering::Release);
    }
}

/// Counts outstanding tasks of one dispatch; a barrier the submitting
/// thread waits on with [`Runtime::wait`] (helping) or [`Latch::block`]
/// (not helping).
///
/// `done` reads the latch after its decrement, so the latch must outlive
/// every `done` call — share it through an [`Arc`] each task holds a clone
/// of, never through a pointer into the waiter's frame.
#[derive(Debug, Default)]
pub struct Latch {
    pending: AtomicUsize,
    /// The thread to unpark when the count reaches zero.
    waiter: Mutex<Option<Thread>>,
}

impl Latch {
    /// A latch expecting `count` completions.
    pub fn new(count: usize) -> Self {
        Latch { pending: AtomicUsize::new(count), waiter: Mutex::new(None) }
    }

    /// Registers `n` more expected completions.
    pub fn add(&self, n: usize) {
        self.pending.fetch_add(n, Ordering::SeqCst);
    }

    /// Signals one completion; the one that closes the latch unparks the
    /// registered waiter. The registration is left in place: a latch that
    /// is reused for the next dispatch may see this call finish late,
    /// after its waiter has registered again, and taking the name away
    /// then would strand the waiter (a spare unpark is harmless — every
    /// parked loop re-checks its condition).
    pub fn done(&self) {
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            if let Some(waiter) = self.waiter.lock().expect("latch waiter").as_ref() {
                waiter.unpark();
            }
        }
    }

    /// Whether completions are still outstanding.
    pub fn is_open(&self) -> bool {
        self.pending.load(Ordering::SeqCst) != 0
    }

    /// Names the calling thread as the one the closing `done` unparks.
    /// Either that `done` locks the name after this and finds the
    /// thread, or it locked it before and the caller's next `is_open`
    /// sees the latch closed.
    fn register_waiter(&self) {
        *self.waiter.lock().expect("latch waiter") = Some(std::thread::current());
    }

    /// Blocks until the latch closes *without* running other work: a
    /// bounded spin, then parked until the closing `done`. For barriers
    /// that must not execute arbitrary tasks, such as one running during
    /// unwinding.
    pub fn block(&self) {
        let mut spin = Spin::new();
        while self.is_open() {
            if spin.poll() {
                continue;
            }
            self.register_waiter();
            if self.is_open() {
                std::thread::park();
            }
        }
    }
}

/// A shared work-stealing thread pool: `threads - 1` persistent workers
/// plus the participating caller. See the module docs for the dispatch
/// and idle protocols.
///
/// Handles are not `Clone`; share a runtime through `Arc<Runtime>`.
pub struct Runtime {
    shared: Arc<Shared>,
    threads: usize,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("threads", &self.threads)
            .field("steals", &self.steal_count())
            .field("parks", &self.park_count())
            .finish()
    }
}

impl Runtime {
    /// Creates a runtime that executes on up to `threads` threads: the
    /// caller participates through [`Runtime::for_chunks`] and
    /// [`Runtime::help_until`], and `threads - 1` detached workers are
    /// spawned.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queues: (0..threads).map(|_| Mutex::new(VecDeque::with_capacity(64))).collect(),
            queued: AtomicUsize::new(0),
            // Two per thread: one for a kernel, one for a kernel nested in
            // one of its chunks. More concurrent dispatches than that find
            // no idle thread to help them anyway.
            slots: (0..(2 * threads).min(MAX_SLOTS))
                .map(|_| ForSlot {
                    claimed: AtomicBool::new(false),
                    job: AtomicPtr::new(std::ptr::null_mut()),
                    visitors: AtomicUsize::new(0),
                    owner: Mutex::new(None),
                })
                .collect(),
            slot_mask: AtomicU64::new(0),
            sleepers: Mutex::new(Vec::with_capacity(threads + 8)),
            sleeping: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });
        for i in 0..threads - 1 {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("fathom-rt-{i}"))
                .spawn(move || shared.worker_loop(i))
                .expect("can spawn runtime worker");
        }
        Runtime { shared, threads }
    }

    /// The machine-wide default worker count: the `FATHOM_WORKERS`
    /// environment variable when set to a positive integer, otherwise the
    /// host's available parallelism. Every component that sizes threads —
    /// devices, serving replicas, benches — reads this one source, so a
    /// single variable controls the whole process's thread budget.
    pub fn workers() -> usize {
        std::env::var("FATHOM_WORKERS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// Total threads this runtime may use, including the caller.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Tasks executed by a thread other than the one whose deque held
    /// them, since the runtime was created.
    pub fn steal_count(&self) -> u64 {
        self.shared.steals.load(Ordering::Relaxed)
    }

    /// Times a worker, a waiter or a `for_chunks` barrier actually went
    /// to sleep (spun its budget out and parked), since the runtime was
    /// created.
    pub fn park_count(&self) -> u64 {
        self.shared.parks.load(Ordering::Relaxed)
    }

    /// Queues `task` for execution by any thread.
    pub fn spawn(&self, task: Task) {
        self.shared.push(task);
    }

    /// Runs `body(i)` once for every `i` in `0..chunks` and returns when
    /// all have finished. The calling thread claims chunks from a shared
    /// cursor and so does every thread of this runtime that is idle
    /// meanwhile; with no idle peer the caller simply runs them all.
    /// Nothing is allocated and nothing is queued.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic of any chunk, after every claimed chunk
    /// has finished; unclaimed chunks are skipped.
    pub fn for_chunks<F>(&self, chunks: usize, body: F)
    where
        F: Fn(usize) + Sync,
    {
        unsafe fn call<F: Fn(usize)>(ctx: *const (), i: usize) {
            // SAFETY: `ctx` is the `&F` stored below.
            unsafe { (*ctx.cast::<F>())(i) }
        }
        /// Withdraws the slot when the frame is left, by return or unwind.
        struct Published<'a>(&'a Shared, Option<usize>);
        impl Drop for Published<'_> {
            fn drop(&mut self) {
                if let Some(i) = self.1 {
                    self.0.retire(i);
                }
            }
        }
        if chunks == 0 {
            return;
        }
        let job = ForJob {
            run: call::<F>,
            ctx: (&body as *const F).cast(),
            chunks,
            cursor: AtomicUsize::new(0),
            panic: Mutex::new(None),
        };
        {
            let slot = if chunks > 1 && self.threads > 1 { self.shared.publish(&job) } else { None };
            let _published = Published(&self.shared, slot);
            job.work();
        }
        if let Some(payload) = job.panic.into_inner().expect("chunk panic slot") {
            std::panic::resume_unwind(payload);
        }
    }

    /// Blocks until `ready()` holds, executing queued tasks and chunks
    /// meanwhile (helping); with nothing runnable it spins a bounded
    /// budget and then parks. A parked caller is woken by newly published
    /// work; whoever makes `ready` true must unpark it as well, or the
    /// change is only seen at the next wake.
    pub fn help_until(&self, ready: impl Fn() -> bool) {
        self.shared.help_until(self.shared.me(), ready);
    }

    /// Blocks until `latch` closes, helping while it waits. The helping
    /// discipline means a caller never parks while its own tasks sit
    /// unclaimed in a queue.
    pub fn wait(&self, latch: &Latch) {
        if latch.is_open() {
            latch.register_waiter();
            self.help_until(|| !latch.is_open());
        }
    }

    /// Swaps the poison flag off and reports whether it was set — i.e.
    /// whether any queued task unwound since the last call.
    pub fn take_poison(&self) -> bool {
        self.shared.poisoned.swap(false, Ordering::SeqCst)
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Workers are detached; tell them to exit. Spinning ones see the
        // flag on their next poll, parked ones are woken to see it.
        // Barrier discipline guarantees no task referencing caller stack
        // frames can still be queued here.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake(usize::MAX);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test context: a counter the task bumps and the latch it signals.
    struct Bump {
        hits: AtomicUsize,
        latch: Latch,
    }

    /// A task context: one strong count of an `Arc<T>`, handed to the
    /// task, so the latch inside outlives the task's `done` (the
    /// contract on [`Latch`]).
    fn lend<T>(ctx: &Arc<T>) -> *const () {
        Arc::into_raw(Arc::clone(ctx)).cast()
    }

    /// The other end of [`lend`]: the task's own strong count.
    unsafe fn borrowed<T>(ctx: *const ()) -> Arc<T> {
        unsafe { Arc::from_raw(ctx.cast::<T>()) }
    }

    unsafe fn bump(ctx: *const (), by: usize) {
        let ctx = unsafe { borrowed::<Bump>(ctx) };
        ctx.hits.fetch_add(by, Ordering::SeqCst);
        ctx.latch.done();
    }

    fn spawn_bumps(rt: &Runtime, ctx: &Arc<Bump>, n: usize) {
        for _ in 0..n {
            // SAFETY: the task owns a strong count and `Bump` is `Sync`.
            rt.spawn(unsafe { Task::new(bump, lend(ctx), 1) });
        }
    }

    /// Fails the test instead of hanging it when `f` does not finish.
    fn within(secs: u64, f: impl FnOnce() + Send + 'static) {
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            f();
            let _ = tx.send(());
        });
        match rx.recv_timeout(Duration::from_secs(secs)) {
            Ok(()) => worker.join().expect("watched body panicked"),
            // The body panicked before sending: surface its message.
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                worker.join().expect("watched body panicked");
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("watchdog: no completion within {secs} s (lost wakeup or deadlock)")
            }
        }
    }

    #[test]
    fn spawned_tasks_all_run() {
        let rt = Runtime::new(4);
        let ctx = Arc::new(Bump { hits: AtomicUsize::new(0), latch: Latch::new(100) });
        spawn_bumps(&rt, &ctx, 100);
        rt.wait(&ctx.latch);
        assert_eq!(ctx.hits.load(Ordering::SeqCst), 100);
        assert!(!rt.take_poison());
    }

    #[test]
    fn single_thread_runtime_helps_itself() {
        // With no spawned workers, the caller's helping wait must drain
        // the queue entirely on its own.
        let rt = Runtime::new(1);
        let ctx = Arc::new(Bump { hits: AtomicUsize::new(0), latch: Latch::new(10) });
        spawn_bumps(&rt, &ctx, 10);
        rt.wait(&ctx.latch);
        assert_eq!(ctx.hits.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn task_panics_poison_and_are_reported_once() {
        unsafe fn boom(ctx: *const (), _: usize) {
            // Signal first: the runtime only records the unwind.
            unsafe { borrowed::<Latch>(ctx) }.done();
            panic!("deliberate failure");
        }
        let rt = Runtime::new(2);
        let latch = Arc::new(Latch::new(1));
        rt.spawn(unsafe { Task::new(boom, lend(&latch), 0) });
        rt.wait(&latch);
        // The flag is set after the unwind, a moment after `done`.
        while !rt.shared.poisoned.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        assert!(rt.take_poison(), "panic must set the poison flag");
        assert!(!rt.take_poison(), "the flag is consumed");
    }

    #[test]
    fn for_chunks_runs_every_index_once() {
        let rt = Runtime::new(4);
        for chunks in [0usize, 1, 2, 3, 8, 100] {
            let hits: Vec<AtomicUsize> = (0..chunks).map(|_| AtomicUsize::new(0)).collect();
            rt.for_chunks(chunks, |i| {
                hits[i].fetch_add(1, Ordering::SeqCst);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1), "{chunks} chunks");
        }
    }

    #[test]
    fn lost_wakeup_stress() {
        // Thousands of short dispatch rounds with pauses long enough for
        // the workers (and, every so often, everyone) to park in between:
        // each round must find its helpers again or finish alone.
        within(120, || {
            let rt = Runtime::new(4);
            let parks_before = rt.park_count();
            let ctx = Arc::new(Bump { hits: AtomicUsize::new(0), latch: Latch::new(0) });
            for round in 0..3000usize {
                if round % 3 == 0 {
                    std::thread::sleep(SPIN_BUDGET * 2);
                }
                let sum = AtomicUsize::new(0);
                rt.for_chunks(4, |i| {
                    sum.fetch_add(i + 1, Ordering::SeqCst);
                });
                assert_eq!(sum.load(Ordering::SeqCst), 10);
                ctx.latch.add(3);
                spawn_bumps(&rt, &ctx, 3);
                rt.wait(&ctx.latch);
            }
            assert_eq!(ctx.hits.load(Ordering::SeqCst), 9000);
            assert!(rt.park_count() > parks_before, "the pauses outlast the spin budget");
        });
    }

    #[test]
    fn nested_fan_out_with_all_workers_busy() {
        // Every thread of the pool is inside a task that itself fans out
        // and waits: the kernel-inside-operation shape. With no idle peer
        // each task must be able to finish its chunks alone.
        struct Outer {
            rt: Runtime,
            total: AtomicUsize,
            latch: Latch,
        }
        unsafe fn outer(ctx: *const (), _: usize) {
            let ctx = unsafe { borrowed::<Outer>(ctx) };
            ctx.rt.for_chunks(8, |i| {
                // A chunk that fans out again takes the second slot.
                ctx.rt.for_chunks(2, |j| {
                    ctx.total.fetch_add(i * 2 + j + 1, Ordering::SeqCst);
                });
            });
            ctx.latch.done();
        }
        within(60, || {
            let ctx = Arc::new(Outer {
                rt: Runtime::new(2),
                total: AtomicUsize::new(0),
                latch: Latch::new(16),
            });
            for _ in 0..16 {
                ctx.rt.spawn(unsafe { Task::new(outer, lend(&ctx), 0) });
            }
            ctx.rt.wait(&ctx.latch);
            // Each task adds 1 + 2 + ... + 16.
            assert_eq!(ctx.total.load(Ordering::SeqCst), 16 * 136);
        });
    }

    #[test]
    fn panicking_chunk_propagates_and_leaves_the_pool_usable() {
        let rt = Runtime::new(4);
        for _ in 0..50 {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rt.for_chunks(8, |i| assert!(i != 5, "deliberate failure in chunk {i}"));
            }));
            let payload = result.expect_err("the chunk's panic must reach the caller");
            let msg = payload.downcast_ref::<String>().expect("the original payload");
            assert!(msg.contains("deliberate failure in chunk 5"), "{msg}");
        }
        assert_eq!(rt.shared.slot_mask.load(Ordering::SeqCst), 0, "no slot left advertised");
        assert!(rt.shared.slots.iter().all(|s| !s.claimed.load(Ordering::SeqCst)));
        let sum = AtomicUsize::new(0);
        rt.for_chunks(8, |i| {
            sum.fetch_add(i, Ordering::SeqCst);
        });
        assert_eq!(sum.load(Ordering::SeqCst), 28);
    }

    #[test]
    fn more_dispatches_than_slots_still_complete() {
        // Six threads dispatch concurrently on a runtime with four slots.
        let rt = Arc::new(Runtime::new(2));
        let callers: Vec<_> = (0..6)
            .map(|_| {
                let rt = Arc::clone(&rt);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let sum = AtomicUsize::new(0);
                        rt.for_chunks(3, |i| {
                            sum.fetch_add(i + 1, Ordering::SeqCst);
                        });
                        assert_eq!(sum.load(Ordering::SeqCst), 6);
                    }
                })
            })
            .collect();
        for c in callers {
            c.join().expect("caller");
        }
    }

    #[test]
    fn drop_wakes_spinning_and_parked_workers() {
        /// Every worker holds one strong count of the shared state until
        /// its loop returns.
        fn workers_left(shared: &Arc<Shared>) -> usize {
            Arc::strong_count(shared) - 1
        }
        within(30, || {
            // Parked: give the workers time to spin out and sleep.
            let rt = Runtime::new(4);
            let shared = Arc::clone(&rt.shared);
            while shared.sleeping.load(Ordering::SeqCst) < 3 {
                std::thread::yield_now();
            }
            drop(rt);
            while workers_left(&shared) != 0 {
                std::thread::yield_now();
            }
            // Spinning: drop right after a dispatch, inside the budget.
            let rt = Runtime::new(4);
            let shared = Arc::clone(&rt.shared);
            rt.for_chunks(4, |_| {});
            drop(rt);
            while workers_left(&shared) != 0 {
                std::thread::yield_now();
            }
        });
    }

    #[test]
    fn steals_are_counted_eventually() {
        // Tasks spawned from inside a task land on that worker's own
        // deque; the other threads must steal them across queues.
        struct Fan {
            rt: Runtime,
            latch: Latch,
        }
        unsafe fn leaf(ctx: *const (), _: usize) {
            std::hint::black_box((0..1000).sum::<u64>());
            unsafe { borrowed::<Fan>(ctx) }.latch.done();
        }
        unsafe fn fan(ctx: *const (), _: usize) {
            let fan = unsafe { borrowed::<Fan>(ctx) };
            fan.rt.spawn(unsafe { Task::new(leaf, lend(&fan), 0) });
        }
        let ctx = Arc::new(Fan { rt: Runtime::new(4), latch: Latch::new(64) });
        for _ in 0..64 {
            ctx.rt.spawn(unsafe { Task::new(fan, lend(&ctx), 0) });
        }
        ctx.rt.wait(&ctx.latch);
        // No assertion on an exact count (timing-dependent), only that
        // all work completed and nothing poisoned.
        assert!(!ctx.rt.take_poison());
    }

    #[test]
    fn workers_env_override_shape() {
        // Do not mutate the process environment (tests run concurrently);
        // just pin the fallback contract.
        let n = Runtime::workers();
        assert!(n >= 1);
    }
}
