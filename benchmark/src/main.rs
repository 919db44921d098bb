//! The Fathom-rs benchmark: five workloads over training, serving and the
//! cluster control plane, measured from outside through the crates'
//! public API. See `README.md` beside this package.

mod catalogue;
mod config;
mod harness;
mod json;
mod probes;
mod serve;
mod sim;
mod spans;
mod stats;
mod suite;
mod train;

use std::process::ExitCode;

use harness::{Env, RunArgs};

const USAGE: &str = "usage:
  fathom-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one run; the last line of standard output is the result object
  fathom-benchmark [--seed <n>] [--trace] [--repeat <N>]
      every workload, each in its own process, one after the other
--seconds takes only run_seconds of BENCHMARK.json: the loads are fixed
--seed holdout names the seed kept out of use while changes are written
workloads: train_conv train_smallop train_guarded serve_fleet cluster_sim";

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    trace: bool,
    repeat: usize,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: config::DEFAULT_SEED,
        trace: false,
        repeat: 1,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || -> Result<&str, String> {
            i += 1;
            args.get(i)
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--workload" => {
                let w = value()?;
                if !catalogue::WORKLOADS.contains(&w) {
                    return Err(format!("unknown workload {w:?}"));
                }
                cli.workload = Some(w.to_string());
            }
            "--seed" => {
                cli.seed = match value()? {
                    "holdout" => config::HOLDOUT_SEED,
                    n => n.parse().map_err(|e| format!("--seed: {e}"))?,
                }
            }
            // The driver passes it; every load is a constant sized to
            // `RUN_SECONDS`, so no other value can be honoured.
            "--seconds" => {
                if value()?.parse() != Ok(config::RUN_SECONDS) {
                    return Err(format!(
                        "--seconds must be {}: the loads are fixed",
                        config::RUN_SECONDS
                    ));
                }
            }
            "--repeat" => {
                cli.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if cli.repeat == 0 || cli.repeat > 50 {
                    return Err("--repeat must be between 1 and 50".into());
                }
            }
            // `--trace 0|1` from the driver, bare `--trace` by hand.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    cli.trace = false;
                    i += 1;
                }
                Some("1") => {
                    cli.trace = true;
                    i += 1;
                }
                Some(v) if !v.starts_with("--") => {
                    return Err(format!("--trace takes 0 or 1, got {v:?}"))
                }
                _ => cli.trace = true,
            },
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(cli)
}

/// Runs one workload in this process and prints its result.
fn run_one(args: RunArgs) -> ExitCode {
    let mut env = Env::new(args);
    match env.args.workload.as_str() {
        "train_conv" => train::run_bare(&mut env, &config::TRAIN_CONV, config::TRAIN_CONV_SEGMENTS),
        "train_smallop" => train::run_bare(
            &mut env,
            &config::TRAIN_SMALLOP,
            config::TRAIN_SMALLOP_SEGMENTS,
        ),
        "train_guarded" => train::run_guarded(&mut env),
        "serve_fleet" => serve::run_fleet(&mut env),
        "cluster_sim" => sim::run(&mut env),
        other => {
            eprintln!("workload {other} is not implemented");
            return ExitCode::from(2);
        }
    }
    if env.args.trace {
        let path = harness::out_dir().join(format!("trace-{}.json", env.args.workload));
        match spans::write_chrome_trace(env.rec.spans(), &path) {
            Ok(()) => env.out.note(format!(
                "{} spans written to {}",
                env.rec.spans().len(),
                path.display()
            )),
            Err(e) => env.out.check("span file written", false, e.to_string()),
        }
        let root = env.rec.spans().first().map_or(0, |s| s.end - s.start);
        let by_name = spans::self_time_by_name(env.rec.spans());
        for (name, (nanos, count)) in &by_name {
            env.out.note(format!(
                "self time {name:<28} {:>10.3} ms  {:>5.1} %  spans {count}",
                *nanos as f64 / 1e6,
                100.0 * *nanos as f64 / root.max(1) as f64
            ));
        }
        // Self times of nested spans add up to the root by construction;
        // what can go missing is wall time no layer's span covers, and that
        // is the root's own self time. The untraced reference leg is the
        // root's child too, and no part of the traced wall time.
        let reference: u64 = env
            .rec
            .spans()
            .iter()
            .filter(|s| s.name == "bench.untraced_reference")
            .map(|s| s.end - s.start)
            .sum();
        let traced = root.saturating_sub(reference);
        let uncovered = by_name.get("bench.workload").map_or(traced, |(t, _)| *t);
        env.out.check(
            "layer spans cover the traced wall time to within 5 %",
            traced > 0 && uncovered as f64 <= 0.05 * traced as f64,
            format!(
                "{:.3} ms of {:.3} ms lie in no layer's span",
                uncovered as f64 / 1e6,
                traced as f64 / 1e6
            ),
        );
    }
    print!("{}", harness::render_human(&env));
    match harness::render_result(&env) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    }
    if env.out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match cli.workload {
        Some(workload) => run_one(RunArgs {
            workload,
            seed: cli.seed,
            trace: cli.trace,
        }),
        None => suite::run(&suite::SuiteArgs {
            seed: cli.seed,
            trace: cli.trace,
            repeat: cli.repeat,
        }),
    }
}
