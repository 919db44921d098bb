//! Figure 1 — stationarity of per-operation execution time.
//!
//! "Sampling the execution time of operations across the life of a
//! program shows their execution time is stationary \[and\] has low
//! variance." We trace many steps of one workload, bucket per-op times by
//! step, and report coefficient of variation and first/second-half drift
//! for the heaviest ops, plus a histogram of step totals.

use std::fmt::Write as _;

use fathom::{BuildConfig, ModelKind};
use fathom_profile::{runner, OpProfile, StabilityReport};

use crate::{write_artifact, Effort};

/// Regenerates Figure 1 on the `autoenc` workload (any workload works;
/// autoenc is the fastest to sample densely).
pub fn run(effort: &Effort) -> String {
    // Stationarity needs many samples; scale the effort up.
    let steps = (effort.steps * 8).max(16);
    let mut model = ModelKind::Autoenc.build(&BuildConfig::training());
    for _ in 0..effort.warmup {
        model.step();
    }
    let trace = runner::trace_steps(model.as_mut(), steps);
    let profile = OpProfile::from_trace("autoenc", &trace);
    let report = StabilityReport::from_trace(&trace);

    let mut out = String::new();
    let _ = writeln!(out, "FIGURE 1: Operation execution-time stationarity (autoenc, {steps} steps)\n");
    let _ = writeln!(out, "{:<24} {:>10} {:>8} {:>8}", "op", "mean(us)", "cov", "drift");
    let mut csv_rows = Vec::new();
    for e in profile.ranked().into_iter().take(10) {
        let s = &report.ops[&e.op];
        let _ = writeln!(
            out,
            "{:<24} {:>10.1} {:>8.3} {:>+8.3}",
            e.op,
            s.mean / 1_000.0,
            s.cov(),
            s.drift()
        );
        csv_rows.push((e.op.clone(), vec![s.mean, s.cov(), s.drift()]));
    }
    let _ = writeln!(
        out,
        "\ntime-weighted mean CoV across op types: {:.3}",
        report.weighted_cov()
    );

    // Histogram of per-step total times (the paper's sample-count plot).
    let min = report.step_totals.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = report.step_totals.iter().cloned().fold(0.0, f64::max);
    let bins = 12usize;
    let mut counts = vec![0usize; bins];
    for &t in &report.step_totals {
        let idx = if max > min {
            (((t - min) / (max - min)) * (bins as f64 - 1.0)) as usize
        } else {
            0
        };
        counts[idx.min(bins - 1)] += 1;
    }
    let _ = writeln!(out, "\nstep-time histogram ({:.2} .. {:.2} ms):", min / 1e6, max / 1e6);
    for (i, c) in counts.iter().enumerate() {
        let _ = writeln!(out, "  bin {i:>2} | {}", "#".repeat(*c));
    }
    let _ = writeln!(
        out,
        "\nPaper's claim to reproduce: distribution is stationary with low variance\n\
         (weighted CoV well below 1, |drift| small for heavy ops)."
    );

    write_artifact(
        "fig1_stationarity.csv",
        &fathom_profile::report::to_csv(&["op", "mean_ns", "cov", "drift"], &csv_rows),
    );
    write_artifact("fig1_stationarity.txt", &out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationarity_holds_for_autoenc() {
        let out = run(&Effort::quick());
        assert!(out.contains("FIGURE 1"));
        assert!(out.contains("weighted mean CoV"));
    }
}
