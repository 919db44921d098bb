//! The one measure-and-emit path under the six `BENCH_*.json` ablations
//! (`ablation_runtime`, `ablation_fusion`, `ablation_precision`,
//! `ablation_recovery`, `gemm_scaling`, `serve_latency`).
//!
//! A timed number is produced the same way everywhere: [`timed_ms`] is
//! the warm-up-then-timed-steps loop, [`rounds`] re-measures every leg of
//! a comparison `Effort::repeats` times in interleaved order and keeps
//! each leg's median and inter-quartile distance over the rounds (the
//! statistics `benchmark/` judges with; a host slowdown spans whole legs
//! at this scale, so it lands on every leg of a round instead of on
//! whichever leg ran last), and [`emit`] writes the document under the
//! envelope [`envelope`] starts.

use std::path::PathBuf;
use std::time::Instant;

use fathom_dataflow::Json;

use crate::{write_artifact, Effort};

/// Median of a sample set (mean of the middle two for even sizes, 0 for
/// an empty one).
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    match samples.len() {
        0 => 0.0,
        n if n % 2 == 1 => samples[n / 2],
        n => (samples[n / 2 - 1] + samples[n / 2]) / 2.0,
    }
}

/// Geometric mean of the positive ratios (0 for an empty set).
pub fn geomean(ratios: impl Iterator<Item = f64>) -> f64 {
    let (mut log_sum, mut count) = (0.0f64, 0usize);
    for r in ratios.filter(|r| *r > 0.0) {
        log_sum += r.ln();
        count += 1;
    }
    if count == 0 { 0.0 } else { (log_sum / count as f64).exp() }
}

/// Median wall time of one `step()` call, milliseconds: `warmup` untimed
/// calls, then `steps` (at least one) timed individually.
pub fn timed_ms(warmup: usize, steps: usize, mut step: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        step();
    }
    let mut samples: Vec<f64> = (0..steps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            step();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&mut samples)
}

/// One number measured once per round: its median over the rounds and
/// the distance between their quartiles (0 for a single round).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Spread {
    /// Median over the rounds.
    pub median: f64,
    /// Third minus first quartile of the rounds, by the exclusive method
    /// (`benchmark/src/stats.rs::quartiles`).
    pub iqr: f64,
}

impl Spread {
    /// The statistics of one leg's per-round values.
    pub fn of(samples: &mut [f64]) -> Spread {
        let median = median(samples);
        let n = samples.len();
        if n < 2 {
            return Spread { median, iqr: 0.0 };
        }
        // `median` left the samples sorted. Rank k(n+1)/4, interpolated
        // between (or extrapolated past) its two neighbours.
        let quartile = |k: f64| {
            let pos = k * (n as f64 + 1.0) / 4.0;
            let lo = (pos.floor() as usize).clamp(1, n - 1);
            samples[lo - 1] + (pos - lo as f64) * (samples[lo] - samples[lo - 1])
        };
        Spread { median, iqr: quartile(3.0) - quartile(1.0) }
    }
}

/// The interleaved-rounds driver: calls `round` `effort.repeats` times;
/// each call measures every leg once, in a fixed order, and returns one
/// number per leg plus whatever else the round observed (node counts, a
/// report to take counters from, `()`), of which the last round's is
/// handed back.
pub fn rounds<const N: usize, T>(
    effort: &Effort,
    mut round: impl FnMut() -> ([f64; N], T),
) -> ([Spread; N], T) {
    let mut legs: [Vec<f64>; N] = std::array::from_fn(|_| Vec::new());
    let mut observed = None;
    for _ in 0..effort.repeats.max(1) {
        let (values, other) = round();
        for (leg, value) in legs.iter_mut().zip(values) {
            leg.push(value);
        }
        observed = Some(other);
    }
    (legs.map(|mut samples| Spread::of(&mut samples)), observed.expect("at least one round ran"))
}

/// Members for timed numbers, chained like [`Json::with`].
pub trait WithSpread {
    /// Appends `key` (the median) and `<key>_iqr` beside it.
    fn with_spread(self, key: &str, value: Spread, precision: usize) -> Self;

    /// Appends `key: {name: median, ..}` and `<key>_iqr: {name: iqr, ..}`
    /// for a group of legs.
    fn with_legs(self, key: &str, legs: &[(&str, Spread)], precision: usize) -> Self;
}

impl WithSpread for Json {
    fn with_spread(self, key: &str, value: Spread, precision: usize) -> Json {
        self.with(key, Json::fixed(value.median, precision))
            .with(&format!("{key}_iqr"), Json::fixed(value.iqr, precision))
    }

    fn with_legs(self, key: &str, legs: &[(&str, Spread)], precision: usize) -> Json {
        let object = |pick: fn(&Spread) -> f64| {
            legs.iter().fold(Json::obj(), |o, (name, s)| o.with(name, Json::fixed(pick(s), precision)))
        };
        self.with(key, object(|s| s.median)).with(&format!("{key}_iqr"), object(|s| s.iqr))
    }
}

/// Starts an ablation's document with the envelope all six share:
/// which experiment, on what host, at which width its legs ran, at what
/// effort.
pub fn envelope(experiment: &str, workers: usize, effort: &Effort) -> Json {
    Json::obj()
        .with("experiment", experiment)
        .with("host_cores", std::thread::available_parallelism().map_or(1, |n| n.get()))
        .with("workers", workers)
        .with(
            "effort",
            Json::obj()
                .with("warmup", effort.warmup)
                .with("steps", effort.steps)
                .with("repeats", effort.repeats),
        )
}

/// Writes a document as `target/fathom-results/<name>` and again at the
/// repository root, where the PR driver tracks it.
pub fn emit(name: &str, document: &Json) {
    let json = document.render();
    write_artifact(name, &json);
    let repo_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::write(repo_root.join(name), &json)
        .unwrap_or_else(|e| panic!("can write {name} at the repo root: {e}"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_samples() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean([2.0, 0.5].into_iter()) - 1.0).abs() < 1e-12);
        assert!((geomean([1.2, 1.2, 1.2].into_iter()) - 1.2).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 0.0);
        assert_eq!(geomean([0.0, -1.0].into_iter()), 0.0, "non-positive ratios are skipped");
    }

    #[test]
    fn spread_is_the_exclusive_quartile_distance() {
        assert_eq!(Spread::of(&mut []), Spread::default());
        assert_eq!(Spread::of(&mut [7.0]), Spread { median: 7.0, iqr: 0.0 });
        // Python: statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5].
        assert_eq!(Spread::of(&mut [5.0, 1.0, 4.0, 2.0, 3.0]), Spread { median: 3.0, iqr: 3.0 });
        // quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0].
        assert_eq!(Spread::of(&mut [4.0, 1.0, 2.0]), Spread { median: 2.0, iqr: 3.0 });
        // quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: tiny samples extrapolate.
        assert_eq!(Spread::of(&mut [20.0, 10.0]), Spread { median: 15.0, iqr: 15.0 });
    }

    #[test]
    fn rounds_interleave_legs_and_honour_repeats() {
        let effort = Effort { warmup: 0, steps: 1, repeats: 3 };
        let mut order = Vec::new();
        let mut tick = 0.0;
        let ([a, b], last) = rounds(&effort, || {
            tick += 1.0;
            order.push("a");
            order.push("b");
            ([tick, 10.0 * tick], tick)
        });
        assert_eq!(last, 3.0, "the last round's observation is handed back");
        assert_eq!(order, ["a", "b", "a", "b", "a", "b"]);
        assert_eq!((a.median, b.median), (2.0, 20.0));
        assert_eq!((a.iqr, b.iqr), (2.0, 20.0));
        let ([once], ()) = rounds(&Effort { repeats: 0, ..effort }, || ([4.0], ()));
        assert_eq!(once, Spread { median: 4.0, iqr: 0.0 }, "at least one round runs");
    }

    #[test]
    fn timed_ms_warms_up_then_times_at_least_one_step() {
        let mut calls = 0;
        assert!(timed_ms(2, 3, || calls += 1) >= 0.0);
        assert_eq!(calls, 5);
        timed_ms(0, 0, || calls += 1);
        assert_eq!(calls, 6);
    }

    #[test]
    fn spreads_sit_beside_their_medians() {
        let s = Spread { median: 1.5, iqr: 0.25 };
        let doc = Json::obj().with_spread("ms", s, 2).with_legs("step_ms", &[("a", s), ("b", s)], 1);
        assert_eq!(
            doc.render_nested(),
            "{\"ms\": 1.50, \"ms_iqr\": 0.25, \"step_ms\": {\"a\": 1.5, \"b\": 1.5}, \
             \"step_ms_iqr\": {\"a\": 0.2, \"b\": 0.2}}"
        );
    }
}
