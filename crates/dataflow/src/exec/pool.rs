//! The pool driver: executes a plan on the device's shared
//! work-stealing runtime by dependency counting and chain-following.
//! Ordering, value slots and liveness release are its own; every node
//! still runs through [`Step::run_node`], the path it shares with the
//! serial walk in `super::step`.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use fathom_tensor::{BufferPool, Latch, Runtime, Task, Tensor};

use super::plan::Plan;
use super::session::SessionState;
use super::step::{extract_fetches, Step, StepOutput};
use super::ExecError;
use crate::graph::NodeId;

/// Executes a plan on the device's shared work-stealing runtime.
///
/// Each op's unmet-dependency count starts at [`Plan::indegree`];
/// when a producer finishes it publishes its value and decrements
/// its consumers' counts. The first pure consumer that reaches zero
/// runs next *on the same thread* (chain-following: no queue round
/// trip, and the value it reads is still in that core's cache); any
/// further ones are queued as tasks on the [`Runtime`] — the same
/// workers that claim intra-op kernel chunks, so an op split across
/// threads shares its chunks with whichever workers are idle (there is
/// no static inter-op/intra-op worker split). A serial op that becomes
/// ready is handed to the coordinating thread, which alone runs them;
/// the serialization chain built at plan time guarantees at most one is
/// ready at any moment, and in plan order, so variable reads/writes and
/// RNG draws happen in exactly the order the serial walk would perform
/// them. With no serial op ready the coordinator helps the runtime.
pub(super) fn run_pooled(
    step: &Step<'_>,
    state: &mut SessionState,
    rt: &Arc<Runtime>,
    recycler: &Arc<BufferPool>,
) -> Result<StepOutput, ExecError> {
    let plan = step.plan;
    let total = plan.order.len();
    let scratch = &plan.scratch;
    scratch.begin_step(plan);

    let frame = TaskFrame {
        rt,
        step,
        recycler,
        serial_ready: AtomicUsize::new(NO_OP),
        completed: AtomicUsize::new(0),
        inline_ops: AtomicU64::new(0),
        abort: AtomicBool::new(false),
        failure: Mutex::new(None),
        panic_slot: Mutex::new(None),
        live_bytes: AtomicUsize::new(0),
        peak_bytes: AtomicUsize::new(0),
        coordinator: std::thread::current(),
    };
    // In-flight tasks address the frame by raw pointer, so it must
    // stay pinned in this stack slot until every task retires:
    // `Runtime::wait` below proves that on the normal path, the guard
    // on the unwinding path.
    let guard = FrameGuard { frame: &frame };
    for (pos, (&deg, &serial)) in plan.indegree.iter().zip(&plan.serial).enumerate() {
        if deg == 0 {
            if serial {
                // At most one: the head of the serialization chain.
                frame.serial_ready.store(pos, Ordering::Release);
            } else {
                frame.spawn_pure(pos);
            }
        }
    }
    // The coordinator owns the session state. Its first duty is the
    // serial op that is ready, if one is (the chain admits at most
    // one): those ops sit on the step's critical path and nobody else
    // may run them. Only with none ready does it help the runtime —
    // op tasks and kernel chunks alike, its own or (on a shared
    // runtime) a sibling session's — spinning briefly and then
    // parking when there is nothing to run. `finish` unparks it when
    // a serial op becomes ready or the last op completes, `fail` and
    // `trap` when the step aborts, and the runtime when work is
    // queued; an unpark that lands before the park leaves a token
    // that makes the park return immediately, so no wakeup is lost.
    let settled = || {
        frame.completed.load(Ordering::SeqCst) >= total || frame.abort.load(Ordering::SeqCst)
    };
    while !settled() {
        let pos = frame.serial_ready.swap(NO_OP, Ordering::AcqRel);
        if pos == NO_OP {
            rt.help_until(|| frame.serial_ready.load(Ordering::SeqCst) != NO_OP || settled());
            continue;
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            frame.run_chain(pos, Some(&mut *state), true);
        }));
        frame.trap(outcome);
    }
    // Aborted or not, every spawned task must retire before the
    // frame's borrows expire (aborted tasks exit early but still
    // count down the latch).
    rt.wait(&scratch.latch);
    std::mem::forget(guard);

    let TaskFrame { failure, panic_slot, peak_bytes, inline_ops, .. } = frame;
    if let Some(payload) = panic_slot.into_inner().expect("panic slot") {
        std::panic::resume_unwind(payload);
    }
    if let Some(err) = failure.into_inner().expect("failure mutex") {
        return Err(err);
    }
    // SAFETY: every task has retired, so this thread is the only one
    // touching the slots; fetched values are kept alive by their
    // fetch uses.
    let fetched = extract_fetches(step.fetches, |f| unsafe { scratch.slots.take(f.index()) });
    scratch.end_step();
    Ok(StepOutput {
        fetched,
        peak_live_bytes: peak_bytes.into_inner(),
        inline_ops: inline_ops.into_inner(),
    })
}

/// "No plan position": the empty value of [`TaskFrame::serial_ready`].
const NO_OP: usize = usize::MAX;

/// Shared state of one in-flight pooled step. Queued op tasks address
/// the frame by raw pointer (see [`TaskFrame::spawn_pure`]), so
/// `run_pooled` pins it in one stack slot until the latch confirms
/// every task has retired.
struct TaskFrame<'a> {
    /// The device's work-stealing runtime; op tasks and their kernel
    /// chunks share its workers.
    rt: &'a Arc<Runtime>,
    /// The step's read-only side and the node path every op runs through.
    /// Its plan carries the [`Scratch`] tables this frame works on: value
    /// slots, dependency and use counters, and the latch counting
    /// in-flight op tasks (closed means no task can still hold a pointer
    /// into the frame).
    step: &'a Step<'a>,
    /// The session arena, installed on whichever worker runs each task
    /// so eager releases recycle no matter where an op lands.
    recycler: &'a Arc<BufferPool>,
    /// The ready serial op, or [`NO_OP`]; only the coordinator takes it.
    /// One word is a whole queue here: the plan's serialization chain
    /// makes each serial op wait for the previous one to finish, so at
    /// most one is ever ready and not yet run.
    serial_ready: AtomicUsize,
    completed: AtomicUsize,
    /// Ops that ran by chain-following: on the thread that made them
    /// ready, without passing through a queue.
    inline_ops: AtomicU64,
    abort: AtomicBool,
    failure: Mutex<Option<ExecError>>,
    /// A panic raised by an op is caught on the executing thread and
    /// re-raised on the coordinator after the latch closes: letting it
    /// unwind through a worker would tear down the shared runtime.
    panic_slot: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Live and peak intermediate bytes, maintained only when tracing.
    live_bytes: AtomicUsize,
    peak_bytes: AtomicUsize,
    /// The coordinating thread, unparked when a serial op becomes ready,
    /// when the last op completes and when the step aborts.
    coordinator: std::thread::Thread,
}

impl TaskFrame<'_> {
    /// Queues the pure op at `pos` as one task on the shared runtime.
    fn spawn_pure(&self, pos: usize) {
        /// Runs the op at `pos` of the frame at `ctx`, then whatever
        /// chain of consumers it makes ready.
        unsafe fn run(ctx: *const (), pos: usize) {
            // SAFETY: see `spawn_pure`; the latch keeps the frame pinned
            // until `done` below.
            let frame = unsafe { &*ctx.cast::<TaskFrame<'_>>() };
            // The coordinator may leave (and the frame die) the moment
            // the latch closes, so the task keeps the latch alive itself
            // and `done` is its last act.
            let latch = Arc::clone(&frame.step.plan.scratch.latch);
            {
                let _arena = BufferPool::install(frame.recycler);
                let on_coordinator = std::thread::current().id() == frame.coordinator.id();
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    frame.run_chain(pos, None, on_coordinator);
                }));
                frame.trap(outcome);
            }
            latch.done();
        }
        // The latch must cover the task before it is queued.
        self.step.plan.scratch.latch.add(1);
        // SAFETY: the frame outlives every queued task — the coordinator
        // blocks on the latch before the frame leaves its stack slot
        // (`Runtime::wait` on the normal path, `FrameGuard` when
        // unwinding) — and everything a task reaches through it is
        // shared through atomics, mutexes or the slot protocol.
        self.rt.spawn(unsafe { Task::new(run, (self as *const TaskFrame<'_>).cast(), pos) });
    }

    /// Runs the op at `pos` — a serial one when `state` is given — and
    /// then follows the chain: each op's first newly ready pure consumer
    /// runs next on this thread. On the coordinator the chain is cut as
    /// soon as a serial op is ready — only this thread can run that one,
    /// so the rest of the chain goes to the queue for someone else.
    fn run_chain(&self, pos: usize, state: Option<&mut SessionState>, on_coordinator: bool) {
        let mut next = self.run_op(pos, state);
        let mut ran = 1usize;
        while let Some(pos) = next {
            if on_coordinator && self.serial_ready.load(Ordering::Acquire) != NO_OP {
                self.spawn_pure(pos);
                break;
            }
            ran += 1;
            next = self.run_op(pos, None);
        }
        if ran > 1 {
            self.inline_ops.fetch_add(ran as u64 - 1, Ordering::Relaxed);
        }
        self.retire(ran);
    }

    /// Counts `ops` finished ops into the step's total — once per chain,
    /// not per op, to keep the shared counter's cache line out of the
    /// per-op path — and wakes the coordinator when the step is complete.
    /// An aborted step never completes; `fail`/`trap` wake it instead.
    fn retire(&self, ops: usize) {
        if self.completed.fetch_add(ops, Ordering::SeqCst) + ops == self.step.plan.order.len() {
            self.coordinator.unpark();
        }
    }

    /// Executes the op at `pos` — with exclusive access to the session
    /// state when it is a serial op, which only the coordinator runs —
    /// and returns the consumer to run next on this thread, if it made
    /// one ready.
    fn run_op(&self, pos: usize, state: Option<&mut SessionState>) -> Option<usize> {
        if self.abort.load(Ordering::Acquire) {
            return None;
        }
        // SAFETY (the `slots.get`): every input slot was published by its
        // producer before the dependency count that released this op
        // reached zero, and stays alive until this op completes.
        let resolve = |n: NodeId| unsafe { self.step.plan.scratch.slots.get(n.index()) };
        match self.step.run_node(pos, resolve, state) {
            Ok(value) => self.finish(pos, value),
            Err(err) => {
                self.fail(err);
                None
            }
        }
    }

    /// Runs on whichever thread produced `value` for position `pos`:
    /// publishes the value, releases inputs whose uses are exhausted, and
    /// releases consumers whose dependency count reaches zero — a serial
    /// one to the coordinator, the first pure one to the caller (the
    /// return value, to run next on this thread), further pure ones to
    /// the queue.
    fn finish(&self, pos: usize, value: Tensor) -> Option<usize> {
        let plan = self.step.plan;
        let scratch = &plan.scratch;
        let id = plan.order[pos];
        let tracing = self.step.timed;
        let bytes = value.len() * 4;
        if tracing {
            let now_live = self.live_bytes.fetch_add(bytes, Ordering::AcqRel) + bytes;
            self.peak_bytes.fetch_max(now_live, Ordering::Relaxed);
        }
        if plan.use_count[pos] == 0 {
            // Nothing consumes or fetches this value: dead on arrival.
            // The drop recycles it through the installed arena.
            if tracing {
                self.live_bytes.fetch_sub(bytes, Ordering::AcqRel);
            }
            drop(value);
        } else {
            // SAFETY: this thread is the slot's only producer and no
            // consumer reads it before the fan-out below releases them.
            unsafe { scratch.slots.set(id.index(), value) };
        }
        for &input in &self.step.graph.node(id).inputs {
            let ipos = plan.pos_of[input.index()];
            if scratch.remaining[ipos].fetch_sub(1, Ordering::AcqRel) == 1 {
                // SAFETY: the last consumer has completed, so no
                // reference into this slot can still be alive, and the
                // AcqRel counter chain orders all of their reads before
                // this take.
                if let Some(dead) = unsafe { scratch.slots.take(input.index()) } {
                    if tracing {
                        self.live_bytes.fetch_sub(dead.len() * 4, Ordering::AcqRel);
                    }
                    drop(dead);
                }
            }
        }
        let mut next = None;
        let mut serial_released = false;
        for &c in &plan.consumers[pos] {
            let c = c as usize;
            if scratch.indegree[c].fetch_sub(1, Ordering::AcqRel) == 1 {
                if plan.serial[c] {
                    self.serial_ready.store(c, Ordering::SeqCst);
                    serial_released = true;
                } else if next.is_none() {
                    next = Some(c);
                } else {
                    self.spawn_pure(c);
                }
            }
        }
        if serial_released {
            self.coordinator.unpark();
        }
        next
    }

    /// Records the first typed error and aborts the step.
    fn fail(&self, err: ExecError) {
        let mut slot = self.failure.lock().expect("failure mutex");
        if slot.is_none() {
            *slot = Some(err);
        }
        drop(slot);
        self.abort.store(true, Ordering::SeqCst);
        self.coordinator.unpark();
    }

    /// Routes an op panic through the abort path (see `panic_slot`).
    fn trap(&self, result: std::thread::Result<()>) {
        if let Err(payload) = result {
            let mut slot = self.panic_slot.lock().expect("panic slot");
            if slot.is_none() {
                *slot = Some(payload);
            }
            drop(slot);
            self.abort.store(true, Ordering::SeqCst);
            self.coordinator.unpark();
        }
    }
}

/// Unwind insurance for [`TaskFrame`]: if the coordinator unwinds while
/// tasks are in flight, aborts the step and blocks until the latch closes
/// so no task outlives the frame it points into — without helping, since
/// running arbitrary tasks while unwinding risks a second panic. Forgotten
/// on the normal path, after `Runtime::wait` has proven the same thing.
struct FrameGuard<'a, 'b> {
    frame: &'a TaskFrame<'b>,
}

impl Drop for FrameGuard<'_, '_> {
    fn drop(&mut self) {
        self.frame.abort.store(true, Ordering::SeqCst);
        self.frame.step.plan.scratch.latch.block();
    }
}

/// The pool driver's per-plan run-time tables. They live with the cached
/// plan and are reset in place, so a steady-state step allocates none of
/// them.
/// Exclusive use is guaranteed by `Session::run` taking `&mut self`: one
/// step of one session is in flight at a time.
#[derive(Debug)]
pub(super) struct Scratch {
    /// Node values, by graph node index.
    slots: SlotTable,
    /// Unmet-dependency count per plan position (counted down at run
    /// time; an op is released when its count hits zero).
    indegree: Vec<AtomicU32>,
    /// Remaining uses per plan position (eager release when exhausted).
    remaining: Vec<AtomicU32>,
    /// Counts in-flight op tasks of the current step.
    latch: Arc<Latch>,
    /// Set from `begin_step` to `end_step`: still set at the next
    /// `begin_step` means the last step aborted or unwound and may have
    /// left values in the slots.
    dirty: AtomicBool,
}

impl Scratch {
    /// Tables for a plan over `positions` ops of a graph of `nodes`
    /// nodes.
    pub(super) fn new(nodes: usize, positions: usize) -> Self {
        Scratch {
            slots: SlotTable::new(nodes),
            indegree: (0..positions).map(|_| AtomicU32::new(0)).collect(),
            remaining: (0..positions).map(|_| AtomicU32::new(0)).collect(),
            latch: Arc::new(Latch::new(0)),
            dirty: AtomicBool::new(false),
        }
    }

    /// Resets the counters to the plan's and, after a step that did not
    /// end cleanly, empties the slots (under the caller's installed
    /// arena, so the leftovers recycle).
    fn begin_step(&self, plan: &Plan) {
        if self.dirty.swap(true, Ordering::AcqRel) {
            for idx in 0..self.slots.cells.len() {
                // SAFETY: no step is in flight, so nothing else can
                // reach the slots.
                drop(unsafe { self.slots.take(idx) });
            }
        }
        for (live, &planned) in self.indegree.iter().zip(&plan.indegree) {
            live.store(planned, Ordering::Relaxed);
        }
        for (live, &planned) in self.remaining.iter().zip(&plan.use_count) {
            live.store(planned, Ordering::Relaxed);
        }
    }

    /// Marks a clean end: every slot has been emptied by its last use or
    /// by fetch extraction.
    fn end_step(&self) {
        self.dirty.store(false, Ordering::Release);
    }
}

/// Node-value table shared between scheduler threads. Soundness rests on
/// the dependency counts: a slot is written exactly once (by its
/// producer, before any consumer is released), read only while its
/// remaining-use count is positive, and taken only after the count hits
/// zero — so no two threads ever touch a cell concurrently.
#[derive(Debug)]
struct SlotTable {
    cells: Vec<UnsafeCell<Option<Tensor>>>,
}

// SAFETY: see the type's docs; every access goes through the unsafe
// methods below, whose contracts state the exclusion each one needs.
unsafe impl Sync for SlotTable {}

impl SlotTable {
    fn new(len: usize) -> Self {
        SlotTable { cells: (0..len).map(|_| UnsafeCell::new(None)).collect() }
    }

    /// # Safety
    ///
    /// Caller must be the cell's unique producer, before consumers run.
    unsafe fn set(&self, idx: usize, value: Tensor) {
        *self.cells[idx].get() = Some(value);
    }

    /// # Safety
    ///
    /// Caller must hold an outstanding use (remaining-use count > 0).
    unsafe fn get(&self, idx: usize) -> &Tensor {
        (*self.cells[idx].get()).as_ref().expect("input executed before use")
    }

    /// # Safety
    ///
    /// Caller must have observed the remaining-use count reach zero, or
    /// otherwise be the only thread that can reach the cell.
    unsafe fn take(&self, idx: usize) -> Option<Tensor> {
        (*self.cells[idx].get()).take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::exec::Session;
    use crate::graph::Graph;
    use crate::op::OpKind;
    use fathom_tensor::Shape;

    #[test]
    fn parallel_executor_matches_serial_results() {
        // A graph with parallel branches, RNG, and an optimizer update:
        // every worker count must produce bitwise-identical results.
        fn build() -> (Graph, NodeId, NodeId, NodeId, NodeId) {
            let mut g = Graph::new();
            let x = g.placeholder("x", Shape::matrix(16, 16));
            let v = g.variable("v", Tensor::filled([16, 16], 0.1));
            let noise = g.random_normal([16, 16]);
            let a = g.matmul(x, v);
            let b = g.tanh(x);
            let c = g.add_op(a, b);
            let d = g.add_op(c, noise);
            let loss = g.mean_all(d);
            let grads = crate::grad::gradients(&mut g, loss, &[v]);
            let apply = g.add(OpKind::Apply(crate::optim::Optimizer::sgd(0.05)), &[v, grads[0]]);
            (g, x, v, loss, apply)
        }
        let feed = Tensor::filled([16, 16], 0.25);
        let mut reference: Option<(Tensor, Tensor)> = None;
        for inter_ops in [1usize, 2, 4, 8] {
            let (g, x, v, loss, apply) = build();
            let device = if inter_ops == 1 {
                Device::cpu(1)
            } else {
                Device::cpu_inter_op(1, inter_ops)
            };
            let mut s = Session::with_seed(g, device, 7);
            let mut last_loss = Tensor::scalar(0.0);
            for _ in 0..3 {
                let out = s.run(&[loss, apply], &[(x, feed.clone())]).unwrap();
                last_loss = out.into_iter().next().unwrap();
            }
            let var = s.variable_value(v).unwrap().clone();
            match &reference {
                None => reference = Some((last_loss, var)),
                Some((ref_loss, ref_var)) => {
                    assert_eq!(&last_loss, ref_loss, "loss diverged at {inter_ops} workers");
                    assert_eq!(&var, ref_var, "variables diverged at {inter_ops} workers");
                }
            }
        }
    }

    #[test]
    fn parallel_executor_reports_missing_feed() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(3));
        let y = g.neg(x);
        let mut s = Session::new(g, Device::cpu_inter_op(1, 4));
        assert_eq!(s.run(&[y], &[]), Err(ExecError::MissingFeed(x)));
    }

    #[test]
    fn parallel_executor_traces_in_plan_order() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::matrix(4, 4));
        let y = g.matmul(x, x);
        let z = g.relu(y);
        let mut s = Session::new(g, Device::cpu_inter_op(1, 4));
        s.enable_tracing();
        s.run(&[z], &[(x, Tensor::ones([4, 4]))]).unwrap();
        let trace = s.take_trace();
        let ops: Vec<&str> = trace.events.iter().map(|e| e.op).collect();
        assert_eq!(ops, vec!["Placeholder", "MatMul", "Relu"]);
        assert!(trace.events.iter().all(|e| e.nanos >= 0.0));
    }

    #[test]
    fn parallel_executor_propagates_op_errors() {
        let mut g = Graph::new();
        let logits = g.placeholder("logits", Shape::new(vec![4, 1, 3]));
        let labels = g.placeholder("labels", Shape::matrix(1, 2));
        let loss = g.ctc_loss(logits, labels, 0);
        let mut s = Session::new(g, Device::cpu_inter_op(1, 4));
        // Label 0 collides with the blank symbol: BadLabels.
        let err = s
            .run(
                &[loss],
                &[
                    (logits, Tensor::zeros([4, 1, 3])),
                    (labels, Tensor::from_vec(vec![0.0, 1.0], [1, 2])),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, ExecError::BadLabels(_)));
    }

    #[test]
    fn parallel_executor_propagates_op_panics() {
        // A gather with an out-of-range index asserts inside the kernel
        // at run time. The parallel executor must re-raise that panic on
        // the calling thread — not hang the coordinator (the panicking
        // op never reports completion) and not poison the worker set.
        let mut g = Graph::new();
        let table = g.constant(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]));
        let idx = g.placeholder("idx", Shape::vector(2));
        let rows = g.gather(table, idx);
        let mut s = Session::new(g, Device::cpu_inter_op(1, 4));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = s.run(&[rows], &[(idx, Tensor::from(vec![0.0, 9.0]))]);
        }));
        assert!(result.is_err(), "kernel panic must propagate, not hang");
        // The session (and its inter-op pool) must remain usable.
        let out = s.run1(rows, &[(idx, Tensor::from(vec![1.0, 0.0]))]).unwrap();
        assert_eq!(out.data(), &[3.0, 4.0, 1.0, 2.0]);
    }
}
