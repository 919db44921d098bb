//! Fusion ablation: executed nodes per training step and median step
//! wall time with fusion off, with elementwise fusion only, and with
//! full fusion (GEMM epilogues + elementwise), across all eight
//! workloads.
//!
//! Elementwise fusion collapses chains and DAGs of class-C operations
//! into single `Fused` nodes whose loop-jammed interpreter keeps
//! intermediates register-resident. GEMM epilogue fusion goes further
//! and absorbs the bias/activation/residual chain hanging off a packed
//! MatMul or Conv2D into the microkernel's accumulator
//! writeback, so the product is never spilled and re-read at all. Both
//! passes are bitwise-identical to the unfused kernels
//! (`tests/fusion.rs` asserts it), so the ablation measures pure
//! scheduling/traversal/memory-traffic savings. Besides the
//! human-readable table, the experiment emits machine-readable
//! `BENCH_fusion.json` through `crate::measure` (interleaved rounds,
//! median and inter-quartile distance per leg) so the perf trajectory is
//! tracked across PRs.

use std::collections::HashSet;
use std::fmt::Write as _;

use fathom::{BuildConfig, FusionLevel, ModelKind};
use fathom_dataflow::{Json, OpKind};
use fathom_profile::OpProfile;

use crate::measure::{emit, envelope, geomean, rounds, timed_ms, Spread, WithSpread};
use crate::{write_artifact, Effort};

/// One workload's three-leg fusion comparison.
#[derive(Debug, Clone)]
pub struct FusionRow {
    /// Workload name.
    pub workload: &'static str,
    /// `Fused` nodes present in the fully fused training graph.
    pub fused_groups: usize,
    /// `GemmFused` (epilogue) nodes present in the fully fused graph.
    pub gemm_groups: usize,
    /// Executed nodes per training step, fusion off.
    pub nodes_unfused: usize,
    /// Executed nodes per training step, elementwise fusion only.
    pub nodes_elementwise: usize,
    /// Executed nodes per training step, full fusion.
    pub nodes_fused: usize,
    /// Training-step wall time (ms), fusion off.
    pub ms_unfused: Spread,
    /// Training-step wall time (ms), elementwise fusion only — the
    /// prior ablation's "fused" leg, kept as the epilogue baseline.
    pub ms_elementwise: Spread,
    /// Training-step wall time (ms), full fusion.
    pub ms_fused: Spread,
    /// Class-C (elementwise) share of traced step time, fusion off/full.
    pub class_c: (f64, f64),
    /// Class-G (data movement) share of traced step time, fusion off/full.
    pub class_g: (f64, f64),
}

impl FusionRow {
    /// Fraction of per-step node launches removed by full fusion.
    pub fn node_reduction(&self) -> f64 {
        if self.nodes_unfused == 0 {
            return 0.0;
        }
        1.0 - self.nodes_fused as f64 / self.nodes_unfused as f64
    }

    /// Unfused-to-fully-fused step-time ratio (>1 means fusion is
    /// faster).
    pub fn speedup(&self) -> f64 {
        if self.ms_fused.median > 0.0 { self.ms_unfused.median / self.ms_fused.median } else { 0.0 }
    }

    /// Elementwise-only-to-full step-time ratio: what the GEMM epilogue
    /// pass buys on top of the elementwise pass.
    pub fn epilogue_speedup(&self) -> f64 {
        if self.ms_fused.median > 0.0 { self.ms_elementwise.median / self.ms_fused.median } else { 0.0 }
    }
}

/// Steady-state step time plus one traced step's node count and class
/// shares for one (workload, fusion level) leg.
///
/// Timing is taken untraced (tracing itself costs per-event work that
/// fusion would otherwise be credited for); the traced step that follows
/// only feeds the node count and the class-share attribution. `Fused`
/// and `GemmFused` nodes emit one trace event per constituent op, all
/// carrying the node's id, so distinct `(run, node)` pairs count
/// *executed nodes* rather than attributed ops.
fn leg(kind: ModelKind, fusion: FusionLevel, effort: &Effort) -> (f64, usize, f64, f64) {
    let cfg = BuildConfig::training().with_fusion_level(fusion);
    let mut workload = kind.build(&cfg);
    let ms = timed_ms(effort.warmup, effort.steps, || {
        workload.step();
    });
    workload.session_mut().enable_tracing();
    workload.step();
    let trace = workload.session_mut().take_trace();
    let nodes: HashSet<(u64, fathom_dataflow::NodeId)> =
        trace.events.iter().map(|e| (e.step, e.node)).collect();
    let profile = OpProfile::from_trace(kind.name(), &trace);
    let mut class_c = 0.0;
    let mut class_g = 0.0;
    for (class, fraction) in profile.class_fractions() {
        match class.letter() {
            'C' => class_c = fraction,
            'G' => class_g = fraction,
            _ => {}
        }
    }
    (ms, nodes.len(), class_c, class_g)
}

/// Compares one workload across the three fusion legs, measured in
/// interleaved rounds (off, elementwise, full, off, ...). Node counts are
/// deterministic; they and the class shares are the last round's.
pub fn compare(kind: ModelKind, effort: &Effort) -> FusionRow {
    let ([ms_unfused, ms_elementwise, ms_fused], counts) = rounds(effort, || {
        let legs = [FusionLevel::Off, FusionLevel::Elementwise, FusionLevel::Full]
            .map(|level| leg(kind, level, effort));
        (legs.map(|(ms, ..)| ms), legs.map(|(_, nodes, c, g)| (nodes, c, g)))
    });
    let [(nodes_unfused, c0, g0), (nodes_elementwise, ..), (nodes_fused, c1, g1)] = counts;
    let (fused_groups, gemm_groups) = {
        let cfg = BuildConfig::training().with_fusion_level(FusionLevel::Full);
        let workload = kind.build(&cfg);
        let graph = workload.session().graph();
        (
            graph.iter().filter(|(_, n)| matches!(n.kind, OpKind::Fused(_))).count(),
            graph.iter().filter(|(_, n)| matches!(n.kind, OpKind::GemmFused { .. })).count(),
        )
    };
    FusionRow {
        workload: kind.name(),
        fused_groups,
        gemm_groups,
        nodes_unfused,
        nodes_elementwise,
        nodes_fused,
        ms_unfused,
        ms_elementwise,
        ms_fused,
        class_c: (c0, c1),
        class_g: (g0, g1),
    }
}

/// The rows as the `BENCH_fusion.json` document. The `unfused`/`fused`
/// keys keep their historical meaning (fusion off vs everything on) so
/// the cross-PR trajectory stays comparable; `elementwise` is the
/// intermediate leg and `epilogue_speedup` is `elementwise / fused`.
pub fn document(rows: &[FusionRow], effort: &Effort) -> Json {
    let pair = |(unfused, fused): (f64, f64)| {
        Json::obj().with("unfused", Json::fixed(unfused, 4)).with("fused", Json::fixed(fused, 4))
    };
    let workloads = rows.iter().map(|r| {
        let legs = [("unfused", r.ms_unfused), ("elementwise", r.ms_elementwise), ("fused", r.ms_fused)];
        Json::obj()
            .with("name", r.workload)
            .with("fused_groups", r.fused_groups)
            .with("gemm_groups", r.gemm_groups)
            .with(
                "nodes_per_step",
                Json::obj()
                    .with("unfused", r.nodes_unfused)
                    .with("elementwise", r.nodes_elementwise)
                    .with("fused", r.nodes_fused),
            )
            .with("node_reduction", Json::fixed(r.node_reduction(), 4))
            .with_legs("step_ms", &legs, 4)
            .with("speedup", Json::fixed(r.speedup(), 3))
            .with("epilogue_speedup", Json::fixed(r.epilogue_speedup(), 3))
            .with("class_c_share", pair(r.class_c))
            .with("class_g_share", pair(r.class_g))
    });
    // Every leg steps on `Device::cpu(1)`: the serial plan walk.
    envelope("ablation_fusion", 1, effort)
        .with("geomean_speedup", Json::fixed(geomean(rows.iter().map(FusionRow::speedup)), 3))
        .with(
            "geomean_epilogue_speedup",
            Json::fixed(geomean(rows.iter().map(FusionRow::epilogue_speedup)), 3),
        )
        .with("workloads", Json::arr(workloads))
}

/// Runs the fusion ablation over every workload.
pub fn run(effort: &Effort) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ABLATION: fusion off vs elementwise-only vs full (training step, median ms)\n\
         (nodes = executed nodes per step; class shares from one traced step;\n\
         ep-x = what GEMM epilogue fusion buys over elementwise-only;\n\
         fused runs are bitwise-identical to unfused -- see tests/fusion.rs)\n"
    );
    let _ = writeln!(out, "(each leg: median over {} interleaved round(s))\n", effort.repeats);
    let _ = writeln!(
        out,
        "{:<12} {:>6} {:>6} {:>8} {:>8} {:>7} {:>9} {:>9} {:>9} {:>8} {:>6} {:>11} {:>11}",
        "workload", "groups", "gemm", "nodes", "nodes'", "-nodes", "ms off", "ms elem",
        "ms full", "speedup", "ep-x", "C% off/on", "G% off/on"
    );
    let rows: Vec<FusionRow> = ModelKind::ALL.iter().map(|&k| compare(k, effort)).collect();
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<12} {:>6} {:>6} {:>8} {:>8} {:>6.1}% {:>9.2} {:>9.2} {:>9.2} {:>7.2}x \
             {:>5.2}x {:>5.1}/{:<5.1} {:>5.1}/{:<5.1}",
            r.workload,
            r.fused_groups,
            r.gemm_groups,
            r.nodes_unfused,
            r.nodes_fused,
            r.node_reduction() * 100.0,
            r.ms_unfused.median,
            r.ms_elementwise.median,
            r.ms_fused.median,
            r.speedup(),
            r.epilogue_speedup(),
            r.class_c.0 * 100.0,
            r.class_c.1 * 100.0,
            r.class_g.0 * 100.0,
            r.class_g.1 * 100.0,
        );
    }
    let total_unfused: usize = rows.iter().map(|r| r.nodes_unfused).sum();
    let total_fused: usize = rows.iter().map(|r| r.nodes_fused).sum();
    let faster = rows.iter().filter(|r| r.speedup() > 1.0).count();
    let _ = writeln!(
        out,
        "\nsuite node launches per step: {total_unfused} -> {total_fused}; \
         workloads faster with fusion: {faster}/{}; \
         geomean speedup {:.3}x (epilogue leg {:.3}x)",
        rows.len(),
        geomean(rows.iter().map(FusionRow::speedup)),
        geomean(rows.iter().map(FusionRow::epilogue_speedup)),
    );
    emit("BENCH_fusion.json", &document(&rows, effort));
    write_artifact("ablation_fusion.txt", &out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_fuses_and_preserves_metrics() {
        let r = compare(ModelKind::Memnet, &Effort::quick());
        assert!(r.fused_groups > 0, "memnet has fusible hop arithmetic");
        assert!(r.nodes_fused < r.nodes_unfused, "fusion must shrink the executed-node count");
        assert!(r.ms_unfused.median > 0.0 && r.ms_elementwise.median > 0.0 && r.ms_fused.median > 0.0);
        for share in [r.class_c.0, r.class_c.1, r.class_g.0, r.class_g.1] {
            assert!((0.0..=1.0).contains(&share));
        }
    }

}
