//! A full set: every workload, each in a process of its own, one after
//! the other; with `--repeat N`, N sets and the spread between them.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use crate::catalogue::{self, MetricDef};
use crate::{config, json, stats};

/// What a full set was asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteArgs {
    /// Seed of every run.
    pub seed: u64,
    /// Follow each untraced run with the traced one.
    pub trace: bool,
    /// How many sets.
    pub repeat: usize,
}

/// One child run's result line, parsed.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildResult {
    /// Whether the child's output checks passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Parses the last line of a child's standard output.
pub fn parse_result(stdout: &str) -> Result<ChildResult, String> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("no output")?;
    let doc = json::parse(line)?;
    let field = |k: &str| doc.get(k).ok_or_else(|| format!("result line lacks {k:?}"));
    let mut metrics = BTreeMap::new();
    for (name, m) in field("metrics")?
        .members()
        .ok_or("metrics is not an object")?
    {
        let value = m
            .get("value")
            .and_then(json::Value::as_f64)
            .ok_or_else(|| format!("{name} has no value"))?;
        metrics.insert(name.clone(), value);
    }
    Ok(ChildResult {
        correct: field("correct")?
            .as_bool()
            .ok_or("correct is not a boolean")?,
        attempted: field("attempted")?
            .as_f64()
            .ok_or("attempted is not a number")? as u64,
        failed: field("failed")?.as_f64().ok_or("failed is not a number")? as u64,
        metrics,
    })
}

/// How one end-to-end metric repeated over the sets on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Repeatability {
    /// The sets' values, in order.
    pub values: Vec<f64>,
    /// Their median.
    pub median: f64,
    /// Interquartile range over median (0 for a single set).
    pub spread: f64,
    /// Whether the spread is within the metric's bound.
    pub within_bound: bool,
}

/// Fewest sets whose spread is judged: quartiles of two values are an
/// extrapolation one and a half times their distance.
const MIN_JUDGED_SETS: usize = 3;

/// Judges one metric's values over the sets against its bound. Fewer than
/// [`MIN_JUDGED_SETS`] sets pass unjudged, and so does `setup_s`, whose
/// spread the driver does not judge either (it is a fraction of a second,
/// and only its median is compared between commits).
pub fn repeatability(values: &[f64], def: &MetricDef) -> Repeatability {
    let spread = if values.len() > 1 {
        stats::spread(values)
    } else {
        0.0
    };
    let judged = values.len() >= MIN_JUDGED_SETS && def.name != "setup_s";
    Repeatability {
        values: values.to_vec(),
        median: stats::median(values),
        spread,
        within_bound: !judged || def.bound.is_none_or(|b| spread <= b),
    }
}

fn run_child(workload: &str, args: &SuiteArgs, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &config::RUN_SECONDS.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    // The child's own block, without its machine-readable last line.
    let shown: Vec<&str> = stdout.lines().collect();
    for line in &shown[..shown.len().saturating_sub(1)] {
        println!("{line}");
    }
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let result = parse_result(&stdout)?;
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    Ok(result)
}

/// Runs the sets and prints the summary and the JSON document.
pub fn run(args: &SuiteArgs) -> ExitCode {
    let e2e = catalogue::end_to_end();
    let layers = catalogue::per_layer();
    // values[workload][metric] over the sets.
    let mut values: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut totals: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let mut all_correct = true;
    for set in 0..args.repeat {
        println!(
            "==== set {} of {} | seed {} ====",
            set + 1,
            args.repeat,
            args.seed
        );
        for workload in catalogue::WORKLOADS {
            let kinds: &[bool] = if args.trace { &[false, true] } else { &[false] };
            for &trace in kinds {
                match run_child(workload, args, trace) {
                    Ok(r) => {
                        all_correct &= r.correct && r.failed == 0;
                        let t = totals.entry(workload).or_default();
                        t.0 += r.attempted;
                        t.1 += r.failed;
                        let per_workload = values.entry(workload).or_default();
                        for (name, v) in r.metrics {
                            per_workload.entry(name).or_default().push(v);
                        }
                    }
                    Err(e) => {
                        all_correct = false;
                        println!("FAIL  {workload}: {e}");
                    }
                }
            }
        }
    }

    println!("==== summary over {} set(s) ====", args.repeat);
    let mut doc = Vec::new();
    for workload in catalogue::WORKLOADS {
        let empty = BTreeMap::new();
        let per_workload = values.get(workload).unwrap_or(&empty);
        let (attempted, failed) = totals.get(workload).copied().unwrap_or((0, 0));
        println!("{workload}: ops_attempted {attempted} ops_failed {failed}");
        let mut e2e_doc = Vec::new();
        for def in &e2e {
            let Some(vs) = per_workload.get(&def.name) else {
                all_correct = false;
                println!("  FAIL  {:<18} not reported", def.name);
                continue;
            };
            let r = repeatability(vs, def);
            let bound = def.bound.unwrap_or(0.0);
            all_correct &= r.within_bound;
            println!(
                "  {}  {:<18} {:<6} {:<6} median {:>16.6}  iqr/median {:.4}  bound {:.2}  values {}",
                if r.within_bound { "PASS" } else { "FAIL" },
                def.name,
                def.unit,
                def.better.word(),
                r.median,
                r.spread,
                bound,
                vs.iter().map(|v| format!("{v:.6}")).collect::<Vec<_>>().join(" "),
            );
            e2e_doc.push(format!(
                "{}: {{\"unit\": {}, \"better\": {}, \"bound\": {}, \"values\": [{}], \"median\": {}, \"spread\": {}, \"within_bound\": {}}}",
                json::quote(&def.name),
                json::quote(def.unit),
                json::quote(def.better.word()),
                json::number(bound),
                vs.iter().map(|v| json::number(*v)).collect::<Vec<_>>().join(", "),
                json::number(r.median),
                json::number(r.spread),
                r.within_bound,
            ));
        }
        let mut layer_doc = Vec::new();
        for def in &layers {
            if let Some(vs) = per_workload.get(&def.name) {
                layer_doc.push(format!(
                    "{}: {{\"unit\": {}, \"better\": {}, \"values\": [{}]}}",
                    json::quote(&def.name),
                    json::quote(def.unit),
                    json::quote(def.better.word()),
                    vs.iter()
                        .map(|v| json::number(*v))
                        .collect::<Vec<_>>()
                        .join(", "),
                ));
            }
        }
        doc.push(format!(
            "{}: {{\"attempted\": {attempted}, \"failed\": {failed}, \"end_to_end\": {{{}}}, \"per_layer\": {{{}}}}}",
            json::quote(workload),
            e2e_doc.join(", "),
            layer_doc.join(", "),
        ));
    }
    println!(
        "{{\"seed\": {}, \"seconds\": {}, \"sets\": {}, \"correct\": {}, \"workloads\": {{{}}}}}",
        args.seed,
        config::RUN_SECONDS,
        args.repeat,
        all_correct,
        doc.join(", ")
    );
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::Better;

    #[test]
    fn result_lines_parse_and_reject_garbage() {
        let out = "human line\n{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}\n";
        let r = parse_result(out).unwrap();
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (10, 0));
        assert_eq!(r.metrics["setup_s"], 0.25);
        assert!(parse_result("").is_err());
        assert!(parse_result("not json").is_err());
        assert!(parse_result("{\"correct\": true}").is_err());
        // A measured NaN is written as null and must not pass as a number.
        assert!(parse_result(
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"x\": {\"value\": null, \"unit\": \"s\"}}}"
        )
        .is_err());
    }

    #[test]
    fn spread_is_judged_against_the_metrics_own_bound() {
        let def = |bound| MetricDef {
            name: "m".into(),
            unit: "s",
            better: Better::Lower,
            bound: Some(bound),
        };
        // quartiles of [10, 11, 12] are (10, 12): spread 2/11.
        let r = repeatability(&[10.0, 12.0, 11.0], &def(0.25));
        assert!((r.spread - 2.0 / 11.0).abs() < 1e-12 && r.within_bound);
        assert!(!repeatability(&[10.0, 12.0, 11.0], &def(0.10)).within_bound);
        // One set says nothing about spread, and two too little.
        let one = repeatability(&[5.0], &def(0.10));
        assert_eq!((one.spread, one.within_bound, one.median), (0.0, true, 5.0));
        assert!(repeatability(&[5.0, 9.0], &def(0.10)).within_bound);
        // Set-up time is reported, not judged.
        let setup = MetricDef {
            name: "setup_s".into(),
            ..def(0.10)
        };
        assert!(repeatability(&[10.0, 12.0, 11.0], &setup).within_bound);
    }
}
