//! Execution devices.
//!
//! The paper measures a 4 GHz Skylake i7-6700k CPU and a GTX 960 GPU. The
//! CPU device here executes kernels for real through an [`ExecPool`] with
//! a configurable thread count (the paper's intra-op parallelism knob).
//! The GPU is **simulated**: operations still execute on the host so that
//! values are exact, but their *reported* durations come from an analytic
//! roofline model — see DESIGN.md's substitution table for why this
//! preserves the relative behavior Figure 5 depends on.

use std::sync::Arc;

use fathom_tensor::{ExecPool, Runtime};

use crate::cost::OpCost;
use crate::op::{OpClass, OpKind};

/// Analytic roofline model of an accelerator.
///
/// Per-op modeled latency is
/// `max(flops / peak_flops(class), bytes / bandwidth) + launch_overhead`.
/// Dense matrix and convolution ops reach `peak_flops`; everything else is
/// capped at `scalar_flops` (vector units without tensor-core-style reuse).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuModel {
    /// Peak throughput for convolution/matmul, in flop/s.
    pub peak_flops: f64,
    /// Throughput for all other compute, in flop/s.
    pub scalar_flops: f64,
    /// Device memory bandwidth, in bytes/s.
    pub bandwidth: f64,
    /// Fixed kernel-launch overhead per operation, in seconds.
    pub launch_overhead: f64,
}

impl GpuModel {
    /// A model in the spirit of the paper's NVidia GTX 960 (Maxwell,
    /// ~2.3 TFLOP/s, 112 GB/s, PCIe-attached).
    pub fn gtx960() -> Self {
        GpuModel {
            peak_flops: 2.3e12,
            scalar_flops: 3.0e11,
            bandwidth: 1.12e11,
            // Raw CUDA launches cost ~5us, but stream pipelining overlaps
            // them with execution; 1.5us is the effective amortized cost.
            launch_overhead: 1.5e-6,
        }
    }

    /// Modeled execution time of an operation, in nanoseconds.
    pub fn model_nanos(&self, kind: &OpKind, cost: OpCost) -> f64 {
        let peak = match kind.class() {
            OpClass::MatrixOps | OpClass::Convolution => self.peak_flops,
            _ => self.scalar_flops,
        };
        let compute = cost.flops / peak;
        let memory = cost.bytes / self.bandwidth;
        (compute.max(memory) + self.launch_overhead) * 1e9
    }
}

impl Default for GpuModel {
    fn default() -> Self {
        GpuModel::gtx960()
    }
}

/// Analytic model of intra-op thread scaling on a multi-core CPU.
///
/// The benchmark host may have fewer cores than the paper's quad-core
/// i7-6700k (or than the 8-thread sweep of Figure 6). [`Device::SimCpu`]
/// executes every op serially — values are exact — and scales the
/// *measured serial duration* by the same worker-count policy the real
/// [`ExecPool`] uses: ops whose total work is below one grain per extra
/// worker stay serial, the rest follow Amdahl's law with a per-dispatch
/// wake-up cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    /// Fraction of an op's serial time that parallelizes.
    pub parallel_fraction: f64,
    /// Cross-thread dispatch cost per parallelized op, in seconds.
    pub dispatch_overhead: f64,
    /// Minimum work (elements touched) per participating worker.
    pub grain: usize,
}

impl CpuModel {
    /// Scales a measured serial duration to `threads` modeled workers.
    /// `pool_backed` says whether the op's kernel dispatches through the
    /// intra-op pool at all (see `OpKind::uses_intra_op_pool`). Modeled
    /// time never exceeds the serial time: a real pool with this policy
    /// would fall back to serial when dispatch cannot pay for itself.
    pub fn model_nanos(&self, serial_nanos: f64, cost: OpCost, threads: usize, pool_backed: bool) -> f64 {
        if !pool_backed {
            return serial_nanos;
        }
        // Elements touched is the same notion of work the pool sizes by.
        let work = (cost.bytes / 4.0).max(cost.flops) as usize;
        let workers = (work / self.grain.max(1)).clamp(1, threads.max(1));
        if workers <= 1 {
            return serial_nanos;
        }
        let p = self.parallel_fraction;
        let scaled = serial_nanos * ((1.0 - p) + p / workers as f64) + self.dispatch_overhead * 1e9;
        scaled.min(serial_nanos)
    }
}

impl Default for CpuModel {
    fn default() -> Self {
        CpuModel {
            parallel_fraction: 0.9,
            // A persistent-pool wake-up (channel send + condvar) costs a
            // couple of microseconds, not a thread spawn.
            dispatch_overhead: 2e-6,
            grain: fathom_tensor::DEFAULT_GRAIN,
        }
    }
}

/// Where (and how) a session executes operations.
#[derive(Debug, Clone)]
pub enum Device {
    /// Real execution on the host CPU. `pool` is the intra-op thread pool
    /// (workers splitting one kernel); `inter_ops` only picks the step
    /// driver. At `1` the session walks the plan serially; above `1` it
    /// runs the pool driver, which releases every ready op onto `pool`'s
    /// runtime. How many ops are then in flight at once is bounded by
    /// that runtime's worker count, not by `inter_ops`: nothing else
    /// reads the number.
    Cpu {
        /// The intra-op thread pool shared by every kernel.
        pool: ExecPool,
        /// `1` selects the serial plan walk, anything above it the pool
        /// driver.
        inter_ops: usize,
    },
    /// Serial execution with durations scaled by an analytic multi-core
    /// model (for hosts with fewer cores than the experiment sweeps).
    SimCpu {
        /// Modeled worker count.
        threads: usize,
        /// Scaling model.
        model: CpuModel,
    },
    /// Real execution on the host for values, with durations replaced by
    /// the roofline model.
    SimGpu(GpuModel),
}

impl Device {
    /// CPU device with `threads` intra-op workers and a serial (one op at
    /// a time) scheduler.
    pub fn cpu(threads: usize) -> Self {
        Device::Cpu { pool: ExecPool::new(threads), inter_ops: 1 }
    }

    /// CPU device with `intra_threads` workers per kernel on **one**
    /// work-stealing runtime sized `max(intra, inter)`. An `inter_ops`
    /// above 1 selects the pool driver, which co-schedules every ready
    /// operation on that same runtime; it does not cap how many are in
    /// flight. Kernel chunks and whole ready operations share the one
    /// worker set, so the thread budget is exactly that maximum.
    pub fn cpu_inter_op(intra_threads: usize, inter_ops: usize) -> Self {
        let intra = intra_threads.max(1);
        let inter = inter_ops.max(1);
        let budget = intra.max(inter);
        if budget <= 1 {
            return Device::cpu(1);
        }
        let rt = Arc::new(Runtime::new(budget));
        Device::Cpu { pool: ExecPool::on_runtime(&rt, intra), inter_ops: inter }
    }

    /// CPU device whose kernels and scheduler run on an **existing**
    /// runtime instead of spawning threads of their own. This is how a
    /// serving fleet gives every replica full-width kernels without
    /// multiplying the process's thread count by the replica count.
    pub fn cpu_on_runtime(rt: &Arc<Runtime>, intra_threads: usize, inter_ops: usize) -> Self {
        Device::Cpu { pool: ExecPool::on_runtime(rt, intra_threads.max(1)), inter_ops: inter_ops.max(1) }
    }

    /// Modeled multi-core CPU with `threads` workers.
    pub fn sim_cpu(threads: usize) -> Self {
        Device::SimCpu { threads, model: CpuModel::default() }
    }

    /// A CPU device with `threads` intra-op workers: real when the host
    /// has that many cores, modeled otherwise.
    pub fn cpu_or_model(threads: usize) -> Self {
        let cores = Runtime::workers();
        if cores >= threads {
            Device::cpu(threads)
        } else {
            Device::sim_cpu(threads)
        }
    }

    /// Simulated GPU with the default GTX 960-class model.
    pub fn sim_gpu() -> Self {
        Device::SimGpu(GpuModel::default())
    }

    /// The pool ops should execute on. Modeled devices compute values on
    /// a serial host pool so their measured serial time is meaningful.
    pub fn pool(&self) -> ExecPool {
        match self {
            Device::Cpu { pool, .. } => pool.clone(),
            Device::SimCpu { .. } | Device::SimGpu(_) => ExecPool::serial(),
        }
    }

    /// The device's `inter_ops` setting: above 1 the session steps on the
    /// pool driver, at 1 it walks the plan serially. It is not a cap on
    /// concurrent ops (see [`Device::Cpu`]). Modeled devices execute
    /// serially (their op durations are scaled analytically instead), so
    /// they report 1.
    pub fn inter_ops(&self) -> usize {
        match self {
            Device::Cpu { inter_ops, .. } => (*inter_ops).max(1),
            Device::SimCpu { .. } | Device::SimGpu(_) => 1,
        }
    }

    /// Returns `true` if durations are modeled rather than measured.
    pub fn is_modeled(&self) -> bool {
        matches!(self, Device::SimCpu { .. } | Device::SimGpu(_))
    }
}

impl Default for Device {
    fn default() -> Self {
        Device::cpu(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fathom_tensor::kernels::fused::FusedOp;

    #[test]
    fn big_matmul_is_compute_bound() {
        let m = GpuModel::gtx960();
        // 1024^3-ish matmul: 2 GFLOP over 12 MB.
        let cost = OpCost { flops: 2.15e9, bytes: 1.2e7 };
        let kind = OpKind::MatMul { transpose_a: false, transpose_b: false };
        let nanos = m.model_nanos(&kind, cost);
        let compute_ns = cost.flops / m.peak_flops * 1e9;
        assert!(nanos >= compute_ns);
        // Memory time would be ~107us; compute ~934us; so compute dominates.
        assert!(nanos < compute_ns + (m.launch_overhead * 1e9) + 1.0);
    }

    #[test]
    fn tiny_op_is_launch_bound() {
        let m = GpuModel::gtx960();
        let cost = OpCost { flops: 100.0, bytes: 400.0 };
        let nanos = m.model_nanos(&OpKind::Elementwise(FusedOp::Add), cost);
        // Essentially pure launch overhead (1.5us).
        assert!((nanos - 1_500.0).abs() < 100.0, "nanos {nanos}");
    }

    #[test]
    fn elementwise_is_bandwidth_bound() {
        let m = GpuModel::gtx960();
        // 100M-element add: 0.1 GFLOP over 1.2 GB.
        let cost = OpCost { flops: 1e8, bytes: 1.2e9 };
        let nanos = m.model_nanos(&OpKind::Elementwise(FusedOp::Add), cost);
        let memory_ns = cost.bytes / m.bandwidth * 1e9;
        assert!((nanos - memory_ns - m.launch_overhead * 1e9).abs() < 1.0);
    }

    #[test]
    fn matrix_class_uses_peak_throughput() {
        let m = GpuModel::gtx960();
        let cost = OpCost { flops: 1e9, bytes: 1000.0 };
        let mm = m.model_nanos(&OpKind::MatMul { transpose_a: false, transpose_b: false }, cost);
        let ew = m.model_nanos(&OpKind::Elementwise(FusedOp::Tanh), cost);
        assert!(ew > 5.0 * mm, "elementwise {ew} should be much slower than matmul {mm}");
    }

    #[test]
    fn cpu_model_keeps_small_ops_serial() {
        let m = CpuModel::default();
        let cost = OpCost { flops: 100.0, bytes: 400.0 };
        assert_eq!(m.model_nanos(1000.0, cost, 8, true), 1000.0);
    }

    #[test]
    fn cpu_model_scales_big_ops() {
        let m = CpuModel::default();
        // 10M flops of work, 10 ms serial.
        let cost = OpCost { flops: 1e7, bytes: 1e6 };
        let t1 = m.model_nanos(1e7, cost, 1, true);
        let t8 = m.model_nanos(1e7, cost, 8, true);
        assert_eq!(t1, 1e7);
        // Amdahl with p = 0.9 at 8 workers: ~0.2125x plus 2us dispatch.
        let expected = 1e7 * (0.1 + 0.9 / 8.0) + 2_000.0;
        assert!((t8 - expected).abs() < 1.0, "t8 {t8} vs {expected}");
        assert!(t8 < t1 / 3.0);
    }

    #[test]
    fn cpu_model_worker_count_capped_by_work() {
        let m = CpuModel::default();
        // Two grains of work: only 2 workers even with 8 threads.
        let cost = OpCost { flops: (2 * m.grain) as f64, bytes: 0.0 };
        let t8 = m.model_nanos(1e6, cost, 8, true);
        let expected = 1e6 * (0.1 + 0.9 / 2.0) + 2_000.0;
        assert!((t8 - expected).abs() < 1.0, "t8 {t8} vs {expected}");
    }

    #[test]
    fn cpu_model_never_slower_than_serial_and_skips_serial_ops() {
        let m = CpuModel::default();
        let cost = OpCost { flops: 40_000.0, bytes: 0.0 };
        // 2 workers on a 3us op: Amdahl saving < dispatch cost -> serial.
        assert_eq!(m.model_nanos(3_000.0, cost, 8, true), 3_000.0);
        // Non-pool-backed ops (Apply, clones) never scale.
        let big = OpCost { flops: 1e8, bytes: 0.0 };
        assert_eq!(m.model_nanos(1e6, big, 8, false), 1e6);
    }

    #[test]
    fn cpu_or_model_picks_a_device() {
        // On any host this returns *something* consistent with core count.
        let d = Device::cpu_or_model(1);
        assert!(!d.is_modeled(), "1 thread is always real");
        assert!(Device::sim_cpu(8).is_modeled());
    }

    #[test]
    fn device_pool_threads() {
        assert_eq!(Device::cpu(8).pool().threads(), 8);
        assert!(Device::sim_gpu().is_modeled());
        assert!(!Device::cpu(1).is_modeled());
    }
}
