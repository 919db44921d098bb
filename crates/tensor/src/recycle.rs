//! Size-bucketed recycling of tensor backing buffers: the session's
//! buffer arena, and the shared storage a [`Tensor`](crate::Tensor) sits
//! on.
//!
//! A training step allocates and frees the same set of intermediate
//! shapes every iteration, so the allocator sees a perfectly periodic
//! churn of large short-lived `Vec<f32>`s. A [`BufferPool`] breaks that
//! cycle: every pooled tensor constructor draws from the pool installed
//! on its thread, and the buffer goes back to *that* pool when its last
//! owner drops (the executor drops intermediates eagerly at last use).
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
//! # Shared storage
//!
//! A tensor's buffer is shared, not owned: cloning a tensor bumps a
//! count. The buffer remembers the pool that issued it and returns there
//! when the last owner drops, on whatever thread that happens — a
//! snapshot writer or a caller with no pool installed included. A write
//! to a shared buffer first copies it ([`Tensor::data_mut`]); the pool
//! the copy is drawn from counts those bytes as
//! [`BufferPool::copied_bytes`]. A buffer the caller built
//! ([`Tensor::from_vec`]) belongs to no pool and is simply freed.
//!
//! [`Tensor::data_mut`]: crate::Tensor::data_mut
//! [`Tensor::from_vec`]: crate::Tensor::from_vec
//!
//! Buckets are keyed by exact element count. Workloads execute a fixed
//! graph, so sizes repeat exactly; near-miss reuse (handing a 1000-element
//! request a 1024-element buffer) would silently change `capacity` and
//! complicate accounting for no measured benefit.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};

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
    copied: AtomicU64,
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

    /// Bytes copied because a shared buffer was written or taken
    /// ([`Tensor::data_mut`](crate::Tensor::data_mut),
    /// [`Tensor::into_vec`](crate::Tensor::into_vec)), counted on the pool
    /// the shared buffer came from, else on the copying thread's pool.
    pub fn copied_bytes(&self) -> u64 {
        self.copied.load(Ordering::Relaxed)
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

/// `f` of the calling thread's installed pool, if any.
fn with_installed<R>(f: impl FnOnce(Option<&Arc<BufferPool>>) -> R) -> R {
    ACTIVE.with(|active| f(active.borrow().as_ref()))
}

/// A buffer of `len` elements from `pool`, or a fresh zeroed one on a
/// miss or without a pool. Contents are unspecified.
fn take_from(pool: Option<&Arc<BufferPool>>, len: usize) -> Vec<f32> {
    pool.filter(|_| len > 0).and_then(|pool| pool.take(len)).unwrap_or_else(|| vec![0.0; len])
}

/// A buffer of `len` elements from the thread's installed pool, or a
/// fresh zeroed one on a miss or when none is installed. **Contents are
/// unspecified** — the caller fills, copies into or otherwise overwrites
/// every element before reading. Empty buffers own no allocation and
/// never touch the pool. Kernels take their scratch here and hand it
/// back through [`give`].
pub(crate) fn take(len: usize) -> Vec<f32> {
    with_installed(|pool| take_from(pool, len))
}

/// Returns a dead scratch buffer to the thread's installed pool; drops it
/// when none is installed.
pub(crate) fn give(buf: Vec<f32>) {
    with_installed(|pool| {
        if let Some(pool) = pool {
            pool.give(buf);
        }
    });
}

/// A tensor's backing buffer and the pool it returns to when dropped.
/// [`Tensor`](crate::Tensor) shares one behind an `Arc`, so this drops
/// when the buffer's last owner does.
#[derive(Debug)]
pub(crate) struct Storage {
    data: Vec<f32>,
    /// The issuing pool; dangling for a caller's buffer, and once the
    /// pool itself is gone.
    home: Weak<BufferPool>,
}

impl Storage {
    /// `data` drawn from `pool`, returning there.
    fn issued(data: Vec<f32>, pool: Option<&Arc<BufferPool>>) -> Self {
        Storage { data, home: pool.map_or_else(Weak::new, Arc::downgrade) }
    }

    /// `len` elements from the thread's installed pool, homed there.
    /// Contents are unspecified.
    pub(crate) fn take(len: usize) -> Self {
        with_installed(|pool| Storage::issued(take_from(pool, len), pool))
    }

    /// A caller's buffer: no pool issued it, so none gets it back.
    pub(crate) fn adopt(data: Vec<f32>) -> Self {
        Storage { data, home: Weak::new() }
    }

    /// The pool a copy of this buffer is drawn from and counted on: the
    /// issuing pool while it lives, else the thread's installed one.
    fn copy_pool(&self) -> Option<Arc<BufferPool>> {
        let pool = self.home.upgrade().or_else(|| with_installed(|pool| pool.cloned()));
        if let Some(pool) = &pool {
            pool.copied.fetch_add(self.data.len() as u64 * 4, Ordering::Relaxed);
        }
        pool
    }

    /// The elements as a fresh caller-owned `Vec`, counted as a copy.
    pub(crate) fn to_vec(&self) -> Vec<f32> {
        self.copy_pool();
        self.data.clone()
    }

    /// The buffer itself, which leaves its pool for good.
    pub(crate) fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }

    pub(crate) fn data(&self) -> &[f32] {
        &self.data
    }

    pub(crate) fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

/// The copy-on-write copy (`Arc::make_mut` in
/// [`Tensor::data_mut`](crate::Tensor::data_mut)): a private buffer for a
/// writer that shares this one, counted as copied bytes.
impl Clone for Storage {
    fn clone(&self) -> Self {
        let pool = self.copy_pool();
        let mut data = take_from(pool.as_ref(), self.data.len());
        data.copy_from_slice(&self.data);
        Storage::issued(data, pool.as_ref())
    }
}

impl Drop for Storage {
    fn drop(&mut self) {
        // A taken buffer (`into_vec`) leaves an empty one behind, which
        // owns no allocation.
        if !self.data.is_empty() {
            if let Some(pool) = self.home.upgrade() {
                pool.give(std::mem::take(&mut self.data));
            }
        }
    }
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
    fn a_buffer_whose_last_owner_drops_on_another_thread_returns_to_its_issuer() {
        let pool = Arc::new(BufferPool::new());
        // One "step": a pooled tensor and a clone of it, the original
        // dropped here and the clone on a thread with no pool installed.
        let step = || {
            let t = {
                let _guard = BufferPool::install(&pool);
                Tensor::filled([4096], 1.0)
            };
            let shared = t.clone();
            drop(t);
            std::thread::spawn(move || drop(shared)).join().expect("drop thread");
        };
        step();
        assert_eq!((pool.misses(), bucket(&pool, 4096)), (1, (1, 1)), "the buffer came home");
        for _ in 0..3 {
            step();
        }
        assert_eq!(pool.misses(), 1, "a replayed clone/drop sequence must not miss");
        // A buffer that outlives its pool is simply freed.
        let orphan = {
            let gone = Arc::new(BufferPool::new());
            let _guard = BufferPool::install(&gone);
            Tensor::filled([4096], 2.0)
        };
        drop(orphan);
        assert_eq!(bucket(&pool, 4096), (1, 1), "another pool's buffer is not this one's");
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
