//! Intra-operation parallelism.
//!
//! TensorFlow exposes "hooks to specify the available thread pool for the
//! underlying Eigen library"; the paper's Figure 6 uses those hooks to
//! sweep intra-op parallelism from 1 to 8 threads. [`ExecPool`] is this
//! suite's equivalent: a *width-limited view* over the shared
//! work-stealing [`Runtime`], whose dispatch splits an output buffer into
//! disjoint contiguous chunks. Several views can sit on one runtime —
//! that is how a device's kernels and its ready operations share one
//! worker set, and how serving replicas share one process's workers.
//!
//! Each dispatch decides its own width: one worker per grain of work,
//! at most one per parallel unit, at most the view's `threads`
//! (`ExecPool::workers_for`). Work below a grain runs serially on the
//! calling thread, modeling the thread-dispatch avoidance of production
//! linear algebra libraries — which is exactly the behavior that keeps
//! skinny-tensor operations flat in the Figure 6 reproduction ("the trip
//! count is too low for thread-level parallelism, so the underlying
//! library avoids it"). It is the only width rule: the executor hands
//! every op the device's full intra-op width and lets this one size the
//! kernel.
//!
//! Chunk boundaries depend only on the dispatch width and the work
//! estimate — never on timing or on which thread runs a chunk — so for a
//! given width the bytes produced are identical to a serial loop.

use std::sync::Arc;

use crate::runtime::Runtime;

/// Minimum useful work (in touched elements) per participating worker.
pub const DEFAULT_GRAIN: usize = 16 * 1024;

/// A configurable intra-op execution pool: a dispatch-width view over a
/// shared [`Runtime`].
///
/// Cloning is cheap and shares the same runtime. A pool created with
/// `threads == 1` and no backing runtime performs no cross-thread
/// dispatch at all.
///
/// # Dispatch
///
/// A dispatch fixes its chunk boundaries from the width and the work
/// estimate, then hands the chunk count to [`Runtime::for_chunks`]: the
/// calling thread and any idle worker claim chunk indices from one shared
/// cursor. Nothing is boxed or queued per chunk, and a peer that is busy
/// with a co-scheduled operation costs nothing — the caller runs its
/// chunks too.
///
/// # Panics in chunks
///
/// A panicking chunk never kills a worker: the first payload is kept in
/// the dispatch's own descriptor, unclaimed chunks are skipped, and once
/// every claimed chunk has finished the panic is re-raised on the calling
/// thread. The pool stays usable afterwards, and a concurrent dispatch on
/// another thread never sees it.
///
/// # Examples
///
/// ```
/// use fathom_tensor::ExecPool;
///
/// let pool = ExecPool::new(4);
/// let mut out = vec![0.0f32; 100_000];
/// pool.for_spans(&mut out, 1, 0, |i, span| span[0] = i as f32);
/// assert_eq!(out[99_999], 99_999.0);
/// ```
#[derive(Debug, Clone)]
pub struct ExecPool {
    threads: usize,
    grain: usize,
    rt: Option<Arc<Runtime>>,
}

impl ExecPool {
    /// Creates a pool that may use up to `threads` threads per dispatch
    /// (the calling thread participates; `threads - 1` workers are
    /// spawned on a private runtime). `threads <= 1` means fully serial
    /// execution.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let rt = (threads > 1).then(|| Arc::new(Runtime::new(threads)));
        ExecPool { threads, grain: DEFAULT_GRAIN, rt }
    }

    /// A serial pool.
    pub fn serial() -> Self {
        ExecPool::new(1)
    }

    /// A width-`width` view over an existing runtime: dispatches split
    /// work across at most `width` chunks, but those chunks run on (and
    /// are claimed by) the shared worker set. `width` is clamped to the
    /// runtime's thread count so chunking never outpaces the machine.
    pub fn on_runtime(rt: &Arc<Runtime>, width: usize) -> Self {
        let threads = width.clamp(1, rt.threads());
        ExecPool { threads, grain: DEFAULT_GRAIN, rt: Some(Arc::clone(rt)) }
    }

    /// The backing runtime, when this pool dispatches at all.
    pub fn runtime(&self) -> Option<&Arc<Runtime>> {
        self.rt.as_ref()
    }

    /// Overrides the per-worker grain (in elements of total work).
    pub fn with_grain(mut self, grain: usize) -> Self {
        self.grain = grain.max(1);
        self
    }

    /// Maximum threads (including the caller) per dispatch.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The runtime a dispatch over `workers > 1` chunks runs on.
    fn dispatcher(&self) -> &Runtime {
        self.rt.as_deref().expect("workers > 1 implies a live runtime")
    }

    /// Splits `out` into consecutive spans of `span` elements and invokes
    /// `f(span_index, span_slice)` for each, in parallel across chunks of
    /// spans.
    ///
    /// `work_per_span` estimates the elements touched to produce one span
    /// beyond the span itself (e.g. the reduction length of a matmul
    /// row); it drives the how-many-workers decision.
    ///
    /// # Panics
    ///
    /// Panics if `span == 0`, `out.len()` is not a multiple of `span`, or
    /// `f` panicked on any thread.
    pub fn for_spans<F>(&self, out: &mut [f32], span: usize, work_per_span: usize, f: F)
    where
        F: Fn(usize, &mut [f32]) + Sync,
    {
        assert!(span > 0, "span must be positive");
        assert_eq!(out.len() % span, 0, "output length {} not a multiple of span {span}", out.len());
        let spans = out.len() / span;
        let total_work = out.len() + spans.saturating_mul(work_per_span);
        let workers = self.workers_for(total_work, spans);
        if workers <= 1 {
            for (i, chunk) in out.chunks_mut(span).enumerate() {
                f(i, chunk);
            }
            return;
        }
        let spans_per_chunk = spans.div_ceil(workers);
        let chunk_len = spans_per_chunk * span;
        let len = out.len();
        let base = SharedMut(out.as_mut_ptr());
        self.dispatcher().for_chunks(len.div_ceil(chunk_len), |w| {
            let start = w * chunk_len;
            // SAFETY: chunk `w` is the only one that touches
            // `out[start..end]`, and `out` is borrowed mutably for the
            // whole dispatch.
            let chunk = unsafe {
                std::slice::from_raw_parts_mut(base.get().add(start), chunk_len.min(len - start))
            };
            for (i, sub) in chunk.chunks_mut(span).enumerate() {
                f(w * spans_per_chunk + i, sub);
            }
        });
    }

    /// Invokes `f(i)` for every index in `0..n`, parallelized over
    /// contiguous index chunks sized by the same policy as
    /// [`ExecPool::for_spans`].
    ///
    /// Unlike `for_spans`, no output buffer is managed: `f` is responsible
    /// for writing only data it owns for that index (e.g. one disjoint
    /// macro-tile of a matrix). This is the dispatch shape used by kernels
    /// whose parallel units are not contiguous output spans — the packed
    /// GEMM engine parallelizes over a 2-D tile grid this way.
    ///
    /// Chunk boundaries depend only on `n` and the work estimate, never on
    /// timing, so any `f` that writes a deterministic function of `i` to a
    /// disjoint region yields results identical to a serial loop.
    ///
    /// # Panics
    ///
    /// Panics if `f` panicked on any thread.
    pub fn for_indices<F>(&self, n: usize, work_per_index: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if n == 0 {
            return;
        }
        let total_work = n.saturating_mul(work_per_index.max(1));
        let workers = self.workers_for(total_work, n);
        if workers <= 1 {
            for i in 0..n {
                f(i);
            }
            return;
        }
        let per = n.div_ceil(workers);
        self.dispatcher().for_chunks(n.div_ceil(per), |w| {
            for i in w * per..((w + 1) * per).min(n) {
                f(i);
            }
        });
    }

    /// Parallel map-reduce over the index range `0..n`: `map` is invoked
    /// on disjoint subranges and the partial results are combined with
    /// `reduce`, in subrange order — whichever threads produced them.
    /// Returns `identity` when `n == 0`.
    ///
    /// Used by coarse-grained kernels (e.g. CTC's per-utterance
    /// forward-backward) where per-item work is large.
    pub fn map_reduce<T, M, R>(&self, n: usize, work_per_item: usize, identity: T, map: M, reduce: R) -> T
    where
        T: Send,
        M: Fn(std::ops::Range<usize>) -> T + Sync,
        R: Fn(T, T) -> T,
    {
        if n == 0 {
            return identity;
        }
        let workers = self.workers_for(n * work_per_item.max(1), n);
        if workers <= 1 {
            return reduce(identity, map(0..n));
        }
        let per = n.div_ceil(workers);
        let chunks = n.div_ceil(per);
        let mut parts: Vec<Option<T>> = Vec::with_capacity(chunks);
        parts.resize_with(chunks, || None);
        let cells = SharedMut(parts.as_mut_ptr());
        self.dispatcher().for_chunks(chunks, |w| {
            let part = map(w * per..((w + 1) * per).min(n));
            // SAFETY: chunk `w` is the only writer of slot `w`, and the
            // dispatch's barrier orders every write before the reads
            // below.
            unsafe { *cells.get().add(w) = Some(part) };
        });
        let mut acc = identity;
        for p in parts {
            acc = reduce(acc, p.expect("every chunk produced a part"));
        }
        acc
    }

    /// How many threads to use for a dispatch: at most `threads`, at most
    /// one per parallel unit, and at most one per `grain` of total work.
    fn workers_for(&self, total_work: usize, parallel_units: usize) -> usize {
        if self.threads <= 1 {
            return 1;
        }
        let by_work = total_work / self.grain;
        by_work.min(self.threads).min(parallel_units).max(1)
    }
}

/// A base pointer the chunks of one dispatch index disjointly.
struct SharedMut<T>(*mut T);

// SAFETY: every user gives each chunk its own elements, and a `T` written
// on one thread is read on another only after the dispatch's barrier.
unsafe impl<T: Send> Sync for SharedMut<T> {}

impl<T> SharedMut<T> {
    /// The pointer, through `&self` so closures capture the wrapper (a
    /// field access would capture the bare, non-`Sync` pointer).
    fn get(&self) -> *mut T {
        self.0
    }
}

impl Default for ExecPool {
    fn default() -> Self {
        ExecPool::serial()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn serial_and_parallel_agree() {
        let mut serial_out = vec![0.0f32; 64 * 1024];
        let mut par_out = vec![0.0f32; 64 * 1024];
        ExecPool::serial().for_spans(&mut serial_out, 16, 0, |i, s| {
            for (j, v) in s.iter_mut().enumerate() {
                *v = (i * 16 + j) as f32 * 0.5;
            }
        });
        ExecPool::new(4).for_spans(&mut par_out, 16, 0, |i, s| {
            for (j, v) in s.iter_mut().enumerate() {
                *v = (i * 16 + j) as f32 * 0.5;
            }
        });
        assert_eq!(serial_out, par_out);
    }

    #[test]
    fn small_work_stays_serial() {
        // With work below the grain, even a many-threaded pool must not
        // dispatch: span indices then arrive strictly in order.
        let pool = ExecPool::new(8);
        let mut out = vec![0.0f32; 128];
        let order = std::sync::Mutex::new(Vec::new());
        pool.for_spans(&mut out, 1, 0, |i, _| order.lock().unwrap().push(i));
        let order = order.into_inner().unwrap();
        assert_eq!(order, (0..128).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_span_division() {
        // 10 spans across 4 workers: 3,3,3,1.
        let pool = ExecPool::new(4).with_grain(1);
        let mut out = vec![0.0f32; 10 * 3];
        pool.for_spans(&mut out, 3, 0, |i, s| s.fill(i as f32));
        for i in 0..10 {
            assert_eq!(&out[i * 3..i * 3 + 3], &[i as f32; 3]);
        }
    }

    #[test]
    #[should_panic(expected = "not a multiple of span")]
    fn misaligned_span_panics() {
        ExecPool::serial().for_spans(&mut [0.0; 7], 2, 0, |_, _| {});
    }

    #[test]
    fn for_indices_covers_every_index_once() {
        let pool = ExecPool::new(4).with_grain(1);
        let hits: Vec<std::sync::atomic::AtomicUsize> =
            (0..37).map(|_| std::sync::atomic::AtomicUsize::new(0)).collect();
        pool.for_indices(37, 1, |i| {
            hits[i].fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(std::sync::atomic::Ordering::SeqCst), 1, "index {i}");
        }
    }

    #[test]
    fn for_indices_small_work_stays_serial_and_ordered() {
        let pool = ExecPool::new(8); // default grain: tiny work stays serial
        let order = std::sync::Mutex::new(Vec::new());
        pool.for_indices(64, 1, |i| order.lock().unwrap().push(i));
        assert_eq!(order.into_inner().unwrap(), (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn for_indices_empty_range_is_a_noop() {
        ExecPool::new(4).with_grain(1).for_indices(0, 1, |_| unreachable!());
    }

    #[test]
    fn for_indices_panic_propagates_and_pool_survives() {
        let pool = ExecPool::new(4).with_grain(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.for_indices(1024, 1, |i| assert!(i != 700, "deliberate failure"));
        }));
        assert!(result.is_err(), "panic in a worker must propagate");
        let ran = std::sync::atomic::AtomicBool::new(false);
        pool.for_indices(1, 1, |_| ran.store(true, std::sync::atomic::Ordering::SeqCst));
        assert!(ran.load(std::sync::atomic::Ordering::SeqCst));
    }

    #[test]
    fn map_reduce_sums() {
        let pool = ExecPool::new(4).with_grain(1);
        let total = pool.map_reduce(
            1000,
            1,
            0u64,
            |r| r.map(|i| i as u64).sum::<u64>(),
            |a, b| a + b,
        );
        assert_eq!(total, 499_500);
    }

    #[test]
    fn map_reduce_empty() {
        let pool = ExecPool::new(4);
        let total = pool.map_reduce(0, 1, 7i64, |_| unreachable!(), |a, b| a + b);
        assert_eq!(total, 7);
    }

    #[test]
    fn map_reduce_order_is_deterministic() {
        // Parts must combine in subrange order regardless of which
        // worker finishes first.
        let pool = ExecPool::new(4).with_grain(1);
        let joined = pool.map_reduce(
            8,
            1,
            String::new(),
            |r| r.map(|i| i.to_string()).collect::<String>(),
            |a, b| a + &b,
        );
        assert_eq!(joined, "01234567");
    }

    #[test]
    fn pool_clamps_zero_threads() {
        assert_eq!(ExecPool::new(0).threads(), 1);
    }

    #[test]
    fn clones_share_workers() {
        let pool = ExecPool::new(4).with_grain(1);
        let clone = pool.clone();
        let mut a = vec![0.0f32; 1024];
        let mut b = vec![0.0f32; 1024];
        pool.for_spans(&mut a, 1, 0, |i, s| s[0] = i as f32);
        clone.for_spans(&mut b, 1, 0, |i, s| s[0] = i as f32);
        assert_eq!(a, b);
    }

    #[test]
    fn repeated_dispatches_are_stable() {
        // Exercise the queue/latch plumbing under churn.
        let pool = ExecPool::new(8).with_grain(1);
        for round in 0..200 {
            let mut out = vec![0.0f32; 256];
            pool.for_spans(&mut out, 4, 0, |i, s| s.fill((i + round) as f32));
            assert_eq!(out[0], round as f32);
            assert_eq!(out[252], (63 + round) as f32);
        }
    }

    #[test]
    fn worker_panic_is_reported() {
        let pool = ExecPool::new(4).with_grain(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut out = vec![0.0f32; 1024];
            pool.for_spans(&mut out, 1, 0, |i, _| {
                assert!(i != 900, "deliberate failure");
            });
        }));
        assert!(result.is_err(), "panic in a worker must propagate to the caller");
        // The pool must remain usable afterwards.
        let mut out = vec![0.0f32; 64];
        pool.for_spans(&mut out, 1, 0, |i, s| s[0] = i as f32);
        assert_eq!(out[63], 63.0);
    }

    /// A view of `threads` width and `grain` for sizing questions alone:
    /// `workers_for` never touches the runtime, so none is spawned.
    fn sizing_view(threads: usize, grain: usize) -> ExecPool {
        ExecPool { threads, grain, rt: None }
    }

    proptest! {
        /// A dispatch's width is a usable thread count, at most one per
        /// parallel unit and at most one per grain of work.
        #[test]
        fn workers_for_stays_within_its_caps(
            threads in 1usize..64,
            work in 0usize..1_000_000_000,
            units in 1usize..4_096,
            grain in 1usize..100_000,
        ) {
            let w = sizing_view(threads, grain).workers_for(work, units);
            prop_assert!((1..=threads).contains(&w), "{w} at {threads} threads");
            prop_assert!(w <= units, "{w} > {units} units");
            prop_assert!(w <= (work / grain).max(1), "{w} for {work} work");
        }

        /// A wider view never shrinks a dispatch.
        #[test]
        fn workers_for_never_shrinks_as_threads_grow(
            work in 0usize..1_000_000_000,
            units in 1usize..4_096,
            grain in 1usize..100_000,
        ) {
            let mut prev = 0usize;
            for threads in 1..=32 {
                let w = sizing_view(threads, grain).workers_for(work, units);
                prop_assert!(w >= prev, "shrank from {prev} to {w} at {threads} threads");
                prev = w;
            }
        }
    }

    #[test]
    fn workers_for_respects_grain() {
        let pool = ExecPool::new(8); // default grain 16k
        assert_eq!(pool.workers_for(1_000, 100), 1, "tiny work stays serial");
        assert_eq!(pool.workers_for(40_000, 100), 2, "two grains of work -> 2 workers");
        assert_eq!(pool.workers_for(10_000_000, 100), 8, "big work uses all threads");
        assert_eq!(pool.workers_for(10_000_000, 3), 3, "capped by parallel units");
    }
}
