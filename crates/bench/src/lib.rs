//! Benchmark harness regenerating every table and figure of the Fathom
//! paper's evaluation (§II Table I, §IV Table II, §V Figures 1-6).
//!
//! Each experiment lives in [`experiments`] as a `run(&Effort) -> String`
//! function that prints the same rows/series the paper reports and writes
//! CSV under `target/fathom-results/`. The `benches/` targets (run via
//! `cargo bench -p fathom-bench`) are thin wrappers over these functions;
//! see EXPERIMENTS.md for the paper-vs-measured record. The six ablations
//! that leave a `BENCH_*.json` behind time their legs and write their
//! documents through [`measure`].

#![warn(missing_docs)]

pub mod experiments;
pub mod measure;

use std::path::PathBuf;

/// How much work each experiment performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Effort {
    /// Untraced warm-up steps per configuration.
    pub warmup: usize,
    /// Measured steps per configuration.
    pub steps: usize,
    /// Interleaved rounds over the legs of each `BENCH_*.json` ablation
    /// ([`measure::rounds`]): every timed number is the median over the
    /// rounds with their inter-quartile distance beside it, so a
    /// transient host slowdown lands on every leg of an A/B comparison
    /// instead of on one.
    pub repeats: usize,
}

impl Effort {
    /// The default effort used by `cargo bench`.
    pub fn standard() -> Self {
        Effort { warmup: 1, steps: 4, repeats: 1 }
    }

    /// A minimal effort for smoke tests (1 step, no warm-up).
    pub fn quick() -> Self {
        Effort { warmup: 0, steps: 1, repeats: 1 }
    }

    /// Reads `FATHOM_STEPS` / `FATHOM_WARMUP` / `FATHOM_REPEATS`
    /// overrides from the environment, falling back to
    /// [`Effort::standard`].
    pub fn from_env() -> Self {
        let var = |name: &str| std::env::var(name).ok().and_then(|s| s.parse::<usize>().ok());
        let standard = Effort::standard();
        Effort {
            warmup: var("FATHOM_WARMUP").unwrap_or(standard.warmup),
            steps: var("FATHOM_STEPS").unwrap_or(standard.steps),
            repeats: var("FATHOM_REPEATS").map_or(standard.repeats, |v| v.max(1)),
        }
    }
}

impl Default for Effort {
    fn default() -> Self {
        Effort::standard()
    }
}

/// Directory where experiments drop their CSV artifacts
/// (`target/fathom-results/`, created on demand).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/fathom-results");
    std::fs::create_dir_all(&dir).expect("can create results directory");
    dir
}

/// Writes an artifact file into [`results_dir`], returning its path.
pub fn write_artifact(name: &str, contents: &str) -> PathBuf {
    let path = results_dir().join(name);
    std::fs::write(&path, contents).expect("can write results artifact");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_defaults() {
        assert_eq!(Effort::standard().steps, 4);
        assert_eq!(Effort::quick().steps, 1);
    }

    #[test]
    fn artifacts_round_trip() {
        let path = write_artifact("test_artifact.txt", "hello");
        assert_eq!(std::fs::read_to_string(path).unwrap(), "hello");
    }
}
