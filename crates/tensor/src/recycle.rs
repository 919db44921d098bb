//! Size-bucketed recycling of tensor backing buffers, and the static
//! arena plan that makes steady-state steps allocation-free.
//!
//! A training step allocates and frees the same set of intermediate
//! shapes every iteration, so the allocator sees a perfectly periodic
//! churn of large short-lived `Vec<f32>`s. A [`BufferPool`] breaks that
//! cycle: dead intermediates return their buffers (the executor gives
//! them back eagerly at last use, and [`Tensor`] returns its buffer on
//! drop whenever a pool is installed on the thread) and subsequent tensor
//! constructors draw from the pool instead of the system allocator.
//!
//! # The arena plan
//!
//! On top of that dynamic fallback sits a **static plan**: the session's
//! per-step liveness analysis counts, per exact buffer size, how many
//! tensors are simultaneously live during one step, and installs that
//! census with [`BufferPool::apply_plan`]. Planned sizes are *always*
//! pooled (even tiny scalars), their buckets are pre-warmed to the census
//! count at plan time, and their retention caps start at census + slack.
//! Out-of-order parallel execution can hold more same-sized tensors live
//! than the serial-order census predicted, so every planned miss raises
//! that bucket's cap by one — the arena learns the true high-water mark
//! during warm-up, and from then on a step performs **zero heap
//! allocations** for planned tensors.
//! [`BufferPool::planned_misses`] counts the exceptions; the executor's
//! `allocations` trace counter is the per-run delta of that number.
//! Unplanned (dynamic-shape) sizes keep the classic recycling rules
//! below — that path is the fallback, not the steady state.
//!
//! The pool is *installed* per thread ([`BufferPool::install`]); while a
//! guard is alive, every constant-fill tensor constructor on that thread
//! transparently draws from the pool. Recycled buffers are re-filled with
//! the requested value before use, so recycling never changes computed
//! results — only where the bytes live.
//!
//! Buckets are keyed by exact element count. Workloads execute a fixed
//! graph, so sizes repeat exactly; near-miss reuse (handing a 1000-element
//! request a 1024-element buffer) would silently change `capacity` and
//! complicate accounting for no measured benefit.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::tensor::Tensor;

/// Maximum buffers retained per *unplanned* size bucket; beyond this,
/// `give` lets the buffer drop. Bounds worst-case retention on graphs
/// with many same-shaped intermediates that are live simultaneously.
const BUCKET_CAP: usize = 16;

/// Buffers below this element count are not worth pooling dynamically: a
/// small `Vec` costs less to allocate than a `HashMap` probe under a
/// lock. Planned sizes ignore this floor — a scalar allocated every step
/// is exactly the churn the arena plan exists to remove.
const MIN_POOLED_LEN: usize = 256;

/// Extra buffers a planned bucket may retain beyond its census count.
/// Kernel-internal temporaries (a discarded softmax twin, selection
/// masks) take same-sized buffers the liveness census cannot see; the
/// slack lets the bucket absorb them so the steady state stays
/// allocation-free instead of missing once per step.
const PLAN_SLACK: usize = 8;

/// Counters describing how a [`BufferPool`] has been used.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecycleStats {
    /// Allocations served from the pool.
    pub hits: u64,
    /// Pool-eligible allocations that fell through to the allocator.
    pub misses: u64,
    /// Buffers returned with [`BufferPool::give`] (whether or not they
    /// were retained).
    pub returned: u64,
}

impl RecycleStats {
    /// Fraction of pool-eligible allocations served from the pool.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One size class of pooled buffers.
#[derive(Debug, Default)]
struct Bucket {
    bufs: Vec<Vec<f32>>,
    /// Retention cap: `BUCKET_CAP` for dynamic buckets, census + slack
    /// for planned ones.
    cap: usize,
    /// Peak simultaneous live count from the liveness census; 0 for
    /// dynamic buckets.
    census: usize,
}

impl Bucket {
    fn planned(&self) -> bool {
        self.census > 0
    }
}

/// A thread-safe free list of tensor backing buffers, bucketed by exact
/// element count.
#[derive(Debug, Default)]
pub struct BufferPool {
    buckets: Mutex<HashMap<usize, Bucket>>,
    /// Fast-path gate: whether any planned size is below
    /// `MIN_POOLED_LEN` (small takes/gives must then probe the map).
    small_plan: AtomicBool,
    hits: AtomicU64,
    misses: AtomicU64,
    returned: AtomicU64,
    planned_misses: AtomicU64,
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        BufferPool::default()
    }

    /// Takes a buffer of exactly `len` elements, if one is pooled.
    /// Contents are unspecified; callers must overwrite them.
    pub fn take(&self, len: usize) -> Option<Vec<f32>> {
        if len < MIN_POOLED_LEN && !self.small_plan.load(Ordering::Relaxed) {
            return None;
        }
        let mut buckets = self.buckets.lock().expect("buffer pool lock");
        let bucket = buckets.get_mut(&len)?;
        if len < MIN_POOLED_LEN && !bucket.planned() {
            return None;
        }
        match bucket.bufs.pop() {
            Some(buf) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(buf)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                if bucket.planned() {
                    self.planned_misses.fetch_add(1, Ordering::Relaxed);
                    // A planned miss means more same-sized buffers were
                    // in use at once than the census predicted (kernel
                    // temporaries the liveness walk cannot see, or an
                    // unlucky parallel interleaving). Grow the bucket
                    // past the record: the cap rises to retain both the
                    // heap buffer the caller is about to allocate and
                    // one spare provisioned here, so matching the same
                    // high-water mark again hits the spare instead of
                    // missing — misses only ever fire on a *new*
                    // record, and the steady state converges to zero
                    // allocations.
                    bucket.cap += 2;
                    bucket.bufs.push(vec![0.0; len]);
                }
                None
            }
        }
    }

    /// Returns a dead tensor's buffer to the pool (or drops it if the
    /// bucket is full or the buffer is too small to pool).
    pub fn give(&self, tensor: Tensor) {
        self.give_vec(tensor.into_vec());
    }

    /// Returns a raw buffer to the pool (or drops it if the bucket is
    /// full or the buffer is too small to pool).
    pub fn give_vec(&self, buf: Vec<f32>) {
        let len = buf.len();
        if len < MIN_POOLED_LEN && !self.small_plan.load(Ordering::Relaxed) {
            return;
        }
        let mut buckets = self.buckets.lock().expect("buffer pool lock");
        match buckets.get_mut(&len) {
            Some(bucket) => {
                if len < MIN_POOLED_LEN && !bucket.planned() {
                    return;
                }
                self.returned.fetch_add(1, Ordering::Relaxed);
                if bucket.bufs.len() < bucket.cap {
                    bucket.bufs.push(buf);
                }
            }
            None => {
                if len >= MIN_POOLED_LEN {
                    self.returned.fetch_add(1, Ordering::Relaxed);
                    buckets.insert(len, Bucket { bufs: vec![buf], cap: BUCKET_CAP, census: 0 });
                }
            }
        }
    }

    /// Installs a static arena plan: for each `(len, peak_live)` pair the
    /// bucket is marked planned (always pooled, even below the dynamic
    /// size floor), its retention cap raised to `peak_live + slack`, and
    /// its free list pre-warmed with fresh buffers up to the census
    /// count. Re-applying merges by maximum, so a session with several
    /// cached plans (different fetch sets) ends up provisioned for the
    /// largest.
    pub fn apply_plan(&self, sizes: &[(usize, usize)]) {
        let mut buckets = self.buckets.lock().expect("buffer pool lock");
        for &(len, count) in sizes {
            if len == 0 || count == 0 {
                continue;
            }
            if len < MIN_POOLED_LEN {
                self.small_plan.store(true, Ordering::Relaxed);
            }
            let bucket = buckets.entry(len).or_default();
            bucket.census = bucket.census.max(count);
            bucket.cap = bucket.cap.max(bucket.census + PLAN_SLACK);
            while bucket.bufs.len() < bucket.census {
                bucket.bufs.push(vec![0.0; len]);
            }
        }
    }

    /// Total bytes of the planned arena: census count x size over every
    /// planned bucket. This is the compile-time steady-state footprint
    /// number the trace reports as `arena_bytes`.
    pub fn arena_bytes(&self) -> u64 {
        self.buckets
            .lock()
            .expect("buffer pool lock")
            .iter()
            .map(|(len, b)| (len * b.census * 4) as u64)
            .sum()
    }

    /// Takes of a *planned* size that fell through to the heap since the
    /// pool was created. In steady state this number stops moving; the
    /// executor asserts the per-step delta is zero.
    pub fn planned_misses(&self) -> u64 {
        self.planned_misses.load(Ordering::Relaxed)
    }

    /// Number of buffers currently held, across all buckets.
    pub fn buffers_held(&self) -> usize {
        self.buckets.lock().expect("buffer pool lock").values().map(|b| b.bufs.len()).sum()
    }

    /// Bytes currently held, across all buckets.
    pub fn bytes_held(&self) -> usize {
        self.buckets
            .lock()
            .expect("buffer pool lock")
            .values()
            .flat_map(|bucket| bucket.bufs.iter().map(|buf| buf.len() * 4))
            .sum()
    }

    /// Usage counters since the pool was created.
    pub fn stats(&self) -> RecycleStats {
        RecycleStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            returned: self.returned.load(Ordering::Relaxed),
        }
    }

    /// Drops every held buffer (counters and plan configuration are
    /// kept; planned buckets empty but stay planned).
    pub fn clear(&self) {
        self.buckets.lock().expect("buffer pool lock").retain(|_, bucket| {
            bucket.bufs.clear();
            bucket.planned()
        });
    }

    /// Installs `pool` as the calling thread's allocation source for
    /// constant-fill tensor constructors. The previous installation (if
    /// any) is restored when the returned guard drops, so installs nest.
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

/// Allocates a buffer of `len` copies of `value`, drawing from the
/// thread's installed pool when possible. Used by `Tensor::zeros`,
/// `Tensor::filled`, and `Tensor::ones`.
pub(crate) fn alloc_filled(len: usize, value: f32) -> Vec<f32> {
    let pooled = ACTIVE.with(|active| {
        active.borrow().as_ref().and_then(|pool| pool.take(len))
    });
    match pooled {
        Some(mut buf) => {
            buf.fill(value);
            buf
        }
        None => vec![value; len],
    }
}

/// Allocates a buffer holding a copy of `src`, drawing from the thread's
/// installed pool when possible. Used by `Tensor::clone`, so the
/// executor's per-step variable/constant clones recycle like every other
/// intermediate.
pub(crate) fn alloc_copy(src: &[f32]) -> Vec<f32> {
    let pooled = ACTIVE.with(|active| {
        active.borrow().as_ref().and_then(|pool| pool.take(src.len()))
    });
    match pooled {
        Some(mut buf) => {
            buf.copy_from_slice(src);
            buf
        }
        None => src.to_vec(),
    }
}

/// Returns a dead buffer to the thread's installed pool, if any. Called
/// by `Tensor`'s drop glue so temporaries that never pass through the
/// executor's liveness bookkeeping still recycle.
pub(crate) fn drop_back(buf: Vec<f32>) {
    ACTIVE.with(|active| {
        if let Some(pool) = active.borrow().as_ref() {
            pool.give_vec(buf);
        }
    });
}

/// Takes a kernel-scratch buffer of exactly `len` elements, drawing from
/// the thread's installed pool when possible. **Contents are
/// unspecified** — pooled buffers carry stale data; callers must
/// overwrite every element before reading. Fresh allocations are zeroed.
///
/// Pair with [`give_buffer`] so steady-state kernel scratch (GEMM packing
/// panels) costs no allocation.
pub fn take_buffer(len: usize) -> Vec<f32> {
    let pooled = ACTIVE.with(|active| active.borrow().as_ref().and_then(|pool| pool.take(len)));
    pooled.unwrap_or_else(|| vec![0.0; len])
}

/// Returns a scratch buffer to the thread's installed pool. Drops it when
/// no pool is installed.
pub fn give_buffer(buf: Vec<f32>) {
    drop_back(buf);
}

/// Recycles a dead intermediate tensor's backing buffer into the thread's
/// installed pool (drops it when none is installed). Kernels use this for
/// scratch tensors that never escape the call.
pub fn reclaim(tensor: Tensor) {
    give_buffer(tensor.into_vec());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(n: usize) -> Tensor {
        Tensor::filled([n], 7.0)
    }

    #[test]
    fn take_returns_given_buffer() {
        let pool = BufferPool::new();
        pool.give(big(1000));
        assert_eq!(pool.buffers_held(), 1);
        let buf = pool.take(1000).expect("bucket has a buffer");
        assert_eq!(buf.len(), 1000);
        assert_eq!(pool.buffers_held(), 0);
        assert!(pool.take(1000).is_none(), "bucket drained");
        let s = pool.stats();
        assert_eq!((s.hits, s.returned), (1, 1));
        assert!(s.misses >= 1);
    }

    #[test]
    fn exact_size_match_only() {
        let pool = BufferPool::new();
        pool.give(big(1024));
        assert!(pool.take(1000).is_none());
        assert!(pool.take(1024).is_some());
    }

    #[test]
    fn small_buffers_bypass_the_pool() {
        let pool = BufferPool::new();
        pool.give(big(MIN_POOLED_LEN - 1));
        assert_eq!(pool.buffers_held(), 0);
        assert_eq!(pool.stats().returned, 0);
        assert!(pool.take(MIN_POOLED_LEN - 1).is_none());
        assert_eq!(pool.stats().misses, 0, "small takes are not counted as misses");
    }

    #[test]
    fn bucket_is_capped() {
        let pool = BufferPool::new();
        for _ in 0..BUCKET_CAP + 5 {
            pool.give(big(512));
        }
        assert_eq!(pool.buffers_held(), BUCKET_CAP);
        assert_eq!(pool.stats().returned, (BUCKET_CAP + 5) as u64);
    }

    #[test]
    fn installed_pool_feeds_zeros_and_restores_on_drop() {
        let pool = Arc::new(BufferPool::new());
        pool.give(big(4096));
        {
            let _guard = BufferPool::install(&pool);
            let t = Tensor::zeros([4096]);
            assert!(t.data().iter().all(|&v| v == 0.0), "recycled buffer must be re-filled");
            assert_eq!(pool.stats().hits, 1);
            // Dropping the tensor hands its buffer straight back.
            drop(t);
            assert_eq!(pool.buffers_held(), 1);
        }
        // Guard dropped: allocations no longer touch the pool.
        let _t = Tensor::zeros([4096]);
        assert_eq!(pool.stats().hits + pool.stats().misses, 1);
    }

    #[test]
    fn installs_nest() {
        let outer = Arc::new(BufferPool::new());
        let inner = Arc::new(BufferPool::new());
        outer.give(big(2048));
        inner.give(big(2048));
        let _outer_guard = BufferPool::install(&outer);
        {
            let _inner_guard = BufferPool::install(&inner);
            let t = Tensor::ones([2048]);
            assert_eq!(inner.stats().hits, 1, "inner pool shadows outer");
            assert_eq!(outer.stats().hits, 0);
            // Keep the buffer out of the pools for the outer check.
            let _ = t.into_vec();
        }
        let _t = Tensor::ones([2048]);
        assert_eq!(outer.stats().hits, 1, "outer pool restored");
    }

    #[test]
    fn hit_rate_is_sane() {
        let pool = BufferPool::new();
        assert_eq!(pool.stats().hit_rate(), 0.0);
        pool.give(big(512));
        let _ = pool.take(512);
        let _ = pool.take(512);
        let s = pool.stats();
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn plan_prewarms_and_pools_small_sizes() {
        let pool = BufferPool::new();
        pool.apply_plan(&[(1, 2), (4096, 3)]);
        // Pre-warmed to census counts, scalars included.
        assert_eq!(pool.buffers_held(), 5);
        assert_eq!(pool.arena_bytes(), (2 * 4 + 3 * 4096 * 4) as u64);
        // A planned scalar take hits despite being below the size floor.
        assert!(pool.take(1).is_some());
        assert_eq!(pool.planned_misses(), 0);
        // Draining the bucket counts planned misses.
        assert!(pool.take(1).is_some());
        assert!(pool.take(1).is_none());
        assert_eq!(pool.planned_misses(), 1);
        // Giving a planned small buffer back is accepted.
        pool.give_vec(vec![0.0]);
        assert!(pool.take(1).is_some());
    }

    #[test]
    fn plan_merge_takes_the_maximum() {
        let pool = BufferPool::new();
        pool.apply_plan(&[(512, 2)]);
        pool.apply_plan(&[(512, 5), (512, 1)]);
        assert_eq!(pool.buffers_held(), 5);
        assert_eq!(pool.arena_bytes(), 5 * 512 * 4);
        // Retention cap is census + slack: give more than that and the
        // bucket stays bounded.
        for _ in 0..20 {
            pool.give_vec(vec![0.0; 512]);
        }
        assert_eq!(pool.buffers_held(), 5 + PLAN_SLACK);
    }

    #[test]
    fn planned_misses_grow_the_retention_cap() {
        let pool = BufferPool::new();
        pool.apply_plan(&[(512, 1)]);
        // Simulate one step whose parallel interleaving needs more
        // same-sized buffers than the census: drain well past the cap.
        let demand = 1 + PLAN_SLACK + 3;
        let mut held = Vec::new();
        for _ in 0..demand {
            held.push(pool.take(512).unwrap_or_else(|| vec![0.0; 512]));
        }
        let first_step_misses = pool.planned_misses();
        assert!(first_step_misses > 0, "demand exceeded the prewarmed census");
        // End of step: everything comes back. The grown cap retains it
        // all, so the next identical step misses zero times.
        for buf in held {
            pool.give_vec(buf);
        }
        assert!(pool.buffers_held() >= demand, "grown cap retains the high-water mark");
        for _ in 0..demand {
            assert!(pool.take(512).is_some());
        }
        assert_eq!(pool.planned_misses(), first_step_misses, "steady state allocates nothing");
    }

    #[test]
    fn clear_keeps_the_plan() {
        let pool = BufferPool::new();
        pool.apply_plan(&[(128, 2)]);
        pool.give_vec(vec![0.0; 1024]);
        pool.clear();
        assert_eq!(pool.buffers_held(), 0);
        // Planned bucket survives (still accepts/pools small buffers);
        // the dynamic bucket is gone.
        pool.give_vec(vec![0.0; 128]);
        assert!(pool.take(128).is_some());
    }

    #[test]
    fn unplanned_small_sizes_still_bypass_under_a_plan() {
        let pool = BufferPool::new();
        pool.apply_plan(&[(7, 1)]);
        // 7 is planned, 9 is not: the small-size bypass must stay
        // per-bucket once any small plan exists.
        pool.give_vec(vec![0.0; 9]);
        assert!(pool.take(9).is_none());
        assert!(pool.take(7).is_some());
    }
}
