//! Size-bucketed recycling of tensor backing buffers: the session's
//! buffer arena.
//!
//! A training step allocates and frees the same set of intermediate
//! shapes every iteration, so the allocator sees a perfectly periodic
//! churn of large short-lived `Vec<f32>`s. A [`BufferPool`] breaks that
//! cycle: dead intermediates return their buffers (the executor releases
//! them eagerly at last use, and [`Tensor`](crate::Tensor) returns its
//! buffer on drop whenever a pool is installed on the thread) and later
//! tensor constructors draw from the pool instead of the system
//! allocator.
//!
//! # One rule
//!
//! The pool learns, per exact buffer size, the most buffers of that size
//! the workload has had out at once — its high-water mark — and keeps
//! that many:
//!
//! * [`BufferPool::take`] pops a free buffer. When there is none it
//!   counts a miss and raises that size's cap by one; the caller then
//!   allocates, and the cap makes room to keep that buffer when it
//!   returns.
//! * [`BufferPool::give`] keeps a buffer only while that size's free list
//!   is shorter than its cap. A size that was never taken has cap zero,
//!   so it is never kept.
//!
//! A miss therefore marks a new record for its size, and once a periodic
//! step has set its records it misses zero times.
//! [`BufferPool::misses`] counts every miss — the executor's
//! `allocations` trace counter is the per-run delta of that number — and
//! [`BufferPool::arena_bytes`] is Σ cap × size, the learned footprint.
//!
//! The pool is *installed* per thread ([`BufferPool::install`]); while a
//! guard is alive, every pooled tensor constructor on that thread draws
//! from it. Constructors overwrite a recycled buffer before use, so
//! recycling never changes computed results — only where the bytes live.
//!
//! Buckets are keyed by exact element count. Workloads execute a fixed
//! graph, so sizes repeat exactly; near-miss reuse (handing a 1000-element
//! request a 1024-element buffer) would silently change `capacity` and
//! complicate accounting for no measured benefit.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// One size class of pooled buffers.
#[derive(Debug, Default)]
struct Bucket {
    free: Vec<Vec<f32>>,
    /// Misses of this size so far: its high-water mark, and the most
    /// free buffers it keeps.
    cap: usize,
}

/// A thread-safe free list of tensor backing buffers, bucketed by exact
/// element count.
#[derive(Debug, Default)]
pub struct BufferPool {
    buckets: Mutex<HashMap<usize, Bucket>>,
    misses: AtomicU64,
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        BufferPool::default()
    }

    fn buckets(&self) -> MutexGuard<'_, HashMap<usize, Bucket>> {
        self.buckets.lock().expect("buffer pool lock")
    }

    /// Takes a free buffer of exactly `len` elements. `None` is a miss:
    /// the size's cap has grown by one and the caller allocates. Contents
    /// are unspecified; callers must overwrite them.
    pub fn take(&self, len: usize) -> Option<Vec<f32>> {
        let mut buckets = self.buckets();
        let bucket = buckets.entry(len).or_default();
        let buf = bucket.free.pop();
        if buf.is_none() {
            bucket.cap += 1;
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        buf
    }

    /// Returns a dead buffer to the pool, which keeps it only while its
    /// size's free list is shorter than the size's cap.
    pub fn give(&self, buf: Vec<f32>) {
        if let Some(bucket) = self.buckets().get_mut(&buf.len()) {
            if bucket.free.len() < bucket.cap {
                bucket.free.push(buf);
            }
        }
    }

    /// Takes that found no free buffer, since the pool was created. Once
    /// a periodic step has warmed the pool this number stops moving.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The learned footprint: Σ cap × len × 4 bytes over every size.
    /// The trace reports it as `arena_bytes`.
    pub fn arena_bytes(&self) -> u64 {
        self.buckets().iter().map(|(len, b)| (len * b.cap * 4) as u64).sum()
    }

    /// Installs `pool` as the calling thread's allocation source for
    /// pooled tensor constructors. The previous installation (if any) is
    /// restored when the returned guard drops, so installs nest.
    pub fn install(pool: &Arc<BufferPool>) -> InstallGuard {
        let previous = ACTIVE.with(|active| active.replace(Some(Arc::clone(pool))));
        InstallGuard { previous }
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<Arc<BufferPool>>> = const { RefCell::new(None) };
}

/// Restores the thread's previous pool installation on drop.
#[derive(Debug)]
pub struct InstallGuard {
    previous: Option<Arc<BufferPool>>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        ACTIVE.with(|active| {
            *active.borrow_mut() = self.previous.take();
        });
    }
}

/// A buffer of `len` elements from the thread's installed pool, or a
/// fresh zeroed one on a miss or when none is installed. **Contents are
/// unspecified** — the caller fills, copies into or otherwise overwrites
/// every element before reading. Empty buffers own no allocation and
/// never touch the pool.
pub(crate) fn take(len: usize) -> Vec<f32> {
    let pooled = if len == 0 {
        None
    } else {
        ACTIVE.with(|active| active.borrow().as_ref().and_then(|pool| pool.take(len)))
    };
    pooled.unwrap_or_else(|| vec![0.0; len])
}

/// Returns a dead buffer to the thread's installed pool; drops it when
/// none is installed. `Tensor`'s drop glue calls this, so temporaries
/// that never pass through the executor's liveness bookkeeping recycle
/// too, and kernels hand their scratch back through it.
pub(crate) fn give(buf: Vec<f32>) {
    ACTIVE.with(|active| {
        if let Some(pool) = active.borrow().as_ref() {
            pool.give(buf);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    /// `(held, cap)` of one size.
    fn bucket(pool: &BufferPool, len: usize) -> (usize, usize) {
        pool.buckets().get(&len).map_or((0, 0), |b| (b.free.len(), b.cap))
    }

    #[test]
    fn a_miss_raises_the_cap_by_exactly_one() {
        let pool = BufferPool::new();
        assert!(pool.take(512).is_none());
        assert_eq!((pool.misses(), bucket(&pool, 512)), (1, (0, 1)));
        assert!(pool.take(512).is_none());
        assert_eq!((pool.misses(), bucket(&pool, 512)), (2, (0, 2)));
        assert_eq!(pool.arena_bytes(), 2 * 512 * 4);
        // Sizes keep separate caps, and a hit leaves the cap alone.
        pool.give(vec![0.0; 512]);
        assert!(pool.take(512).is_some());
        assert!(pool.take(7).is_none());
        assert_eq!((pool.misses(), bucket(&pool, 512), bucket(&pool, 7)), (3, (0, 2), (0, 1)));
    }

    #[test]
    fn replaying_a_take_give_sequence_misses_zero_times() {
        // One "step": three 64s and two 9s out at once at its peak, with
        // gives interleaved, and every buffer back by the end.
        fn step(pool: &BufferPool) {
            let take = |len| pool.take(len).unwrap_or_else(|| vec![0.0; len]);
            let (a, b) = (take(64), take(9));
            let c = take(64);
            pool.give(a);
            let (d, e) = (take(64), take(64));
            pool.give(c);
            let f = take(9);
            for buf in [b, d, e, f] {
                pool.give(buf);
            }
        }
        let pool = BufferPool::new();
        step(&pool);
        let learned = pool.misses();
        assert_eq!((learned, bucket(&pool, 64).1, bucket(&pool, 9).1), (5, 3, 2));
        for _ in 0..3 {
            step(&pool);
        }
        assert_eq!(pool.misses(), learned, "a replayed step must not miss");
    }

    #[test]
    fn a_size_never_taken_is_never_kept() {
        let pool = BufferPool::new();
        pool.give(vec![0.0; 1000]);
        assert_eq!(bucket(&pool, 1000), (0, 0));
        assert!(pool.take(1000).is_none(), "the given buffer was dropped");
        assert_eq!(pool.arena_bytes(), 1000 * 4);
    }

    #[test]
    fn held_never_exceeds_the_cap() {
        let pool = BufferPool::new();
        assert!(pool.take(256).is_none());
        for _ in 0..5 {
            pool.give(vec![0.0; 256]);
        }
        assert_eq!(bucket(&pool, 256), (1, 1));
    }

    #[test]
    fn threads_sharing_sizes_keep_held_within_cap_and_misses_equal_to_caps() {
        let pool = BufferPool::new();
        let sizes = [16, 300, 4096];
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for t in 0..2 {
                let (pool, start) = (&pool, &start);
                scope.spawn(move || {
                    start.wait();
                    let mut out = Vec::new();
                    for i in 0..2000 {
                        let len = sizes[(i + t) % sizes.len()];
                        out.push(pool.take(len).unwrap_or_else(|| vec![0.0; len]));
                        if i % 3 != 0 {
                            pool.give(out.swap_remove((i * 7 + t) % out.len()));
                        }
                    }
                    for buf in out {
                        pool.give(buf);
                    }
                });
            }
        });
        let mut caps = 0;
        for len in sizes {
            let (held, cap) = bucket(&pool, len);
            assert!(held <= cap, "size {len}: {held} held over cap {cap}");
            caps += cap as u64;
        }
        assert_eq!(pool.misses(), caps);
    }

    #[test]
    fn installed_pool_feeds_zeros_and_restores_on_drop() {
        let pool = Arc::new(BufferPool::new());
        {
            let _guard = BufferPool::install(&pool);
            drop(Tensor::filled([4096], 7.0));
            let t = Tensor::zeros([4096]);
            assert!(t.data().iter().all(|&v| v == 0.0), "recycled buffer must be re-filled");
            assert_eq!(pool.misses(), 1, "the second tensor reused the first one's buffer");
            drop(t);
            assert_eq!(bucket(&pool, 4096), (1, 1));
        }
        // Guard dropped: allocations no longer touch the pool.
        let _t = Tensor::zeros([4096]);
        assert_eq!((pool.misses(), bucket(&pool, 4096)), (1, (1, 1)));
    }

    #[test]
    fn installs_nest() {
        let outer = Arc::new(BufferPool::new());
        let inner = Arc::new(BufferPool::new());
        let _outer_guard = BufferPool::install(&outer);
        {
            let _inner_guard = BufferPool::install(&inner);
            let _ = Tensor::ones([2048]);
            assert_eq!((inner.misses(), outer.misses()), (1, 0), "inner pool shadows outer");
        }
        let _t = Tensor::ones([2048]);
        assert_eq!((inner.misses(), outer.misses()), (1, 1), "outer pool restored");
    }
}
