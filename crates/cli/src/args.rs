//! Hand-rolled argument parsing (no external parser dependency).

use std::fmt;

use fathom::{Mode, ModelKind, ModelScale, Precision, RetryPolicy};

/// A fully parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `fathom list [--json]` — print the workload inventory.
    List {
        /// Emit machine-readable JSON instead of the table.
        json: bool,
    },
    /// `fathom run <model> [options]` — step a workload and report.
    Run(RunArgs),
    /// `fathom profile <model> [options]` — op-type profile.
    Profile(RunArgs),
    /// `fathom trace <model> --out <file> [options]` — Chrome-trace JSON.
    Trace(RunArgs),
    /// `fathom dot <model> --out <file> [options]` — Graphviz export.
    Dot(RunArgs),
    /// `fathom serve-bench <model> [options]` — batched serving benchmark.
    ServeBench(ServeArgs),
    /// `fathom train <model> [options]` — resilient training loop with
    /// snapshots, guardrails, and deterministic resume.
    Train(TrainArgs),
    /// `fathom help` or `-h`/`--help`.
    Help,
}

/// Options shared by the model-driving subcommands.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Which workload.
    pub model: ModelKind,
    /// Training (default) or inference.
    pub mode: Mode,
    /// Reference (default) or full scale.
    pub scale: ModelScale,
    /// Steps to execute.
    pub steps: usize,
    /// Intra-op threads.
    pub threads: usize,
    /// Inter-op workers (1 = serial plan walk).
    pub inter_ops: usize,
    /// Random seed.
    pub seed: u64,
    /// Output path for export subcommands.
    pub out: Option<String>,
    /// Load variables from this checkpoint before stepping.
    pub load: Option<String>,
    /// Save variables to this checkpoint after stepping.
    pub save: Option<String>,
    /// Run the elementwise fusion pass on the built graph.
    pub fuse: bool,
    /// GEMM compute width (f32 default; bf16 packs panels half-width).
    pub precision: Precision,
}

impl RunArgs {
    fn new(model: ModelKind) -> Self {
        RunArgs {
            model,
            mode: Mode::Training,
            scale: ModelScale::Reference,
            steps: 5,
            threads: 1,
            inter_ops: 1,
            seed: 0xFA7408,
            out: None,
            load: None,
            save: None,
            fuse: false,
            precision: Precision::F32,
        }
    }
}

/// Options for the resilient training loop.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainArgs {
    /// Which workload to train.
    pub model: ModelKind,
    /// Total optimizer steps (counting any resumed prefix).
    pub steps: u64,
    /// Intra-op threads.
    pub threads: usize,
    /// Random seed.
    pub seed: u64,
    /// Snapshot directory (enables the snapshot cadence).
    pub dir: Option<String>,
    /// Resume from the newest loadable snapshot in `--dir` first.
    pub resume: bool,
    /// Snapshot every N steps.
    pub snap_every: u64,
    /// Snapshot generations kept on disk.
    pub snap_keep: usize,
    /// Guardrail: trip when `|loss|` exceeds this.
    pub max_abs_loss: f32,
    /// Guardrail: trip when the gradient norm exceeds this.
    pub max_grad_norm: f32,
    /// Recovery action between guardrail retries.
    pub retry: RetryPolicy,
    /// Guardrail trips tolerated per step.
    pub max_retries: u32,
    /// Fault-plan spec (`train@K=crash`, `ckpt-write@0=bitflip:8`, ...).
    pub fault_plan: Option<String>,
    /// Write the JSON run report here.
    pub out: Option<String>,
}

impl TrainArgs {
    fn new(model: ModelKind) -> Self {
        TrainArgs {
            model,
            steps: 10,
            threads: 1,
            seed: 0xFA7408,
            dir: None,
            resume: false,
            snap_every: 5,
            snap_keep: 3,
            max_abs_loss: 1e4,
            max_grad_norm: 1e6,
            retry: RetryPolicy::Replay,
            max_retries: 3,
            fault_plan: None,
            out: None,
        }
    }
}

/// Options for the serving benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Which workload to serve (the first of `models`).
    pub model: ModelKind,
    /// Every workload named in the positional (comma-separated); more
    /// than one requires `--cluster`.
    pub models: Vec<ModelKind>,
    /// Serve as a fleet (sharded routing, SLO classes, continuous
    /// batching) instead of as the single-model case of the same loop.
    pub cluster: bool,
    /// Shard groups per model in cluster mode.
    pub shards: usize,
    /// SLO traffic mix, `interactive,standard,batch` weights.
    pub slo_mix: Option<String>,
    /// Reference (default) or full scale.
    pub scale: ModelScale,
    /// Open-loop offered rate, requests/second.
    pub rps: f64,
    /// Open-loop arrival window, seconds.
    pub duration: f64,
    /// Closed-loop concurrent callers (presence selects closed loop).
    pub clients: Option<usize>,
    /// Closed-loop total request budget.
    pub requests: Option<usize>,
    /// Batcher coalescing limit (also the graph's batch extent).
    pub max_batch: usize,
    /// Longest a request may head the queue before a partial dispatch, ms.
    pub max_delay_ms: f64,
    /// Admission bound (default `8 * max_batch`).
    pub queue_cap: Option<usize>,
    /// Per-request deadline, ms (absent = never time out).
    pub deadline_ms: Option<f64>,
    /// Session workers serving in parallel.
    pub replicas: usize,
    /// Random seed for arrivals and request payloads.
    pub seed: u64,
    /// Intra-op threads per worker.
    pub threads: usize,
    /// Inter-op workers per session.
    pub inter_ops: usize,
    /// Warm-start checkpoint to restore before serving.
    pub load: Option<String>,
    /// Write the full JSON report here.
    pub out: Option<String>,
    /// Fault-plan spec (`[seed=N;]site@hit=action;...`) injected into
    /// the replicas, e.g. `replica0@3=crash`.
    pub fault_plan: Option<String>,
}

impl ServeArgs {
    fn new(model: ModelKind) -> Self {
        ServeArgs {
            model,
            models: vec![model],
            cluster: false,
            shards: 2,
            slo_mix: None,
            scale: ModelScale::Reference,
            rps: 50.0,
            duration: 1.0,
            clients: None,
            requests: None,
            max_batch: 4,
            max_delay_ms: 2.0,
            queue_cap: None,
            deadline_ms: None,
            replicas: 1,
            seed: 0xFA7408,
            threads: 1,
            inter_ops: 1,
            load: None,
            out: None,
            fault_plan: None,
        }
    }
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// The help text.
pub const USAGE: &str = "fathom — the Fathom-rs workload suite

USAGE:
    fathom list    [--json]
    fathom run     <model> [--mode training|inference] [--scale reference|full]
                           [--steps N] [--threads N] [--inter-ops N] [--seed N]
                           [--load FILE] [--save FILE] [--fuse]
                           [--precision f32|bf16]
    fathom profile <model> [same options as run]
    fathom trace   <model> --out FILE.json [same options]
    fathom dot     <model> --out FILE.dot  [same options]
    fathom serve-bench <model>[,<model>...]
                   [--rps R --duration S | --clients N --requests N]
                   [--max-batch N] [--max-delay-ms MS] [--queue-cap N]
                   [--deadline-ms MS] [--replicas N] [--scale reference|full]
                   [--threads N] [--inter-ops N] [--seed N]
                   [--load FILE.ck] [--out FILE.json] [--fault-plan SPEC]
                   [--cluster] [--shards N] [--slo-mix I,S,B]
    fathom train   <model> [--steps N] [--threads N] [--seed N]
                   [--dir DIR] [--resume] [--snap-every N] [--snap-keep K]
                   [--max-loss X] [--max-grad-norm X] [--max-retries N]
                   [--retry replay|skip-batch|lr-backoff:<f>]
                   [--fault-plan SPEC] [--out FILE.json]

MODELS:
    seq2seq memnet speech autoenc residual vgg alexnet deepq

CLUSTER MODE:
    `--cluster` serves one or more comma-separated models through the
    fleet layer: per-model shard groups (`--shards`, `--replicas` per
    shard), consistent-hash routing with load-aware spill, SLO-class
    admission (`--slo-mix I,S,B` weights, default 50,30,20), and
    continuous batching. `--rps` is the offered rate per model.

RESILIENT TRAINING:
    `fathom train` drives a workload with snapshot cadence (`--dir` +
    `--snap-every`/`--snap-keep`: crash-consistent resume checkpoints,
    rotated), divergence guardrails (NaN/Inf or `--max-loss` /
    `--max-grad-norm` trips roll the step back and retry under
    `--retry`, at most `--max-retries` times before a typed divergence
    error), and deterministic resume (`--resume` restores the newest
    loadable snapshot and continues bitwise-identically).

MIXED PRECISION:
    `--precision bf16` runs eligible GEMMs with bf16-packed panels and
    f32 accumulation — faster and bitwise-deterministic across worker
    counts, but not bitwise-equal to f32.

FAULT PLANS:
    SPEC is `[seed=N;]site@hit=action;...` — sites: op, train,
    ckpt-write, ckpt-read, replica<R>; actions: panic, nan, crash,
    stall:<ns>, truncate:<keep>, bitflip:<n>. Example: `replica0@3=crash`
    crashes replica 0's fourth batch dispatch; `train@7=crash` kills a
    training loop's eighth step.
";

/// The arguments after the subcommand, consumed left to right: the one
/// cursor every subcommand's flag loop walks.
struct Flags<'a>(std::slice::Iter<'a, String>);

impl<'a> Flags<'a> {
    /// The next flag or positional, if any is left.
    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }

    /// The value following flag `name`.
    fn value(&mut self, name: &str) -> Result<&'a str, ParseError> {
        self.next().ok_or_else(|| ParseError(format!("{name} needs a value")))
    }

    /// The value following flag `name`, parsed; `what` completes the
    /// error text ("an integer", "a number").
    fn parsed<T: std::str::FromStr>(&mut self, name: &str, what: &str) -> Result<T, ParseError> {
        self.value(name)?.parse().map_err(|_| ParseError(format!("{name} needs {what}")))
    }

    fn int<T: std::str::FromStr>(&mut self, name: &str) -> Result<T, ParseError> {
        self.parsed(name, "an integer")
    }

    fn num<T: std::str::FromStr>(&mut self, name: &str) -> Result<T, ParseError> {
        self.parsed(name, "a number")
    }

    /// The model-name positional of subcommand `sub`.
    fn model(&mut self, sub: &str) -> Result<&'a str, ParseError> {
        self.next().ok_or_else(|| ParseError(format!("'{sub}' needs a model name")))
    }
}

fn unknown_flag(flag: &str) -> ParseError {
    ParseError(format!("unknown flag '{flag}'"))
}

fn parse_model(raw: &str) -> Result<ModelKind, ParseError> {
    raw.parse().map_err(|e: fathom::ParseModelError| ParseError(e.to_string()))
}

/// Parses an argument list (without the program name).
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first problem encountered.
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let mut flags = Flags(args.iter());
    let sub = match flags.next() {
        None => return Ok(Command::Help),
        Some(s) => s,
    };
    match sub {
        "help" | "-h" | "--help" => Ok(Command::Help),
        "list" => {
            let mut json = false;
            while let Some(flag) = flags.next() {
                match flag {
                    "--json" => json = true,
                    other => return Err(unknown_flag(other)),
                }
            }
            Ok(Command::List { json })
        }
        "serve-bench" => parse_serve_bench(flags),
        "train" => parse_train(flags),
        "run" | "profile" | "trace" | "dot" => {
            let mut run = RunArgs::new(parse_model(flags.model(sub)?)?);
            while let Some(flag) = flags.next() {
                match flag {
                    "--mode" => {
                        run.mode = match flags.value("--mode")? {
                            "training" => Mode::Training,
                            "inference" => Mode::Inference,
                            other => {
                                return Err(ParseError(format!(
                                    "unknown mode '{other}' (training|inference)"
                                )))
                            }
                        }
                    }
                    "--scale" => run.scale = parse_scale(flags.value("--scale")?)?,
                    "--steps" => run.steps = flags.int("--steps")?,
                    "--threads" => run.threads = flags.int("--threads")?,
                    "--inter-ops" => {
                        run.inter_ops = flags.int("--inter-ops")?;
                        if run.inter_ops == 0 {
                            return Err(ParseError("--inter-ops must be at least 1".into()));
                        }
                    }
                    "--seed" => run.seed = flags.int("--seed")?,
                    "--out" => run.out = Some(flags.value("--out")?.to_string()),
                    "--load" => run.load = Some(flags.value("--load")?.to_string()),
                    "--save" => run.save = Some(flags.value("--save")?.to_string()),
                    "--fuse" => run.fuse = true,
                    "--precision" => run.precision = parse_precision(flags.value("--precision")?)?,
                    other => return Err(unknown_flag(other)),
                }
            }
            if matches!(sub, "trace" | "dot") && run.out.is_none() {
                return Err(ParseError(format!("'{sub}' requires --out FILE")));
            }
            Ok(match sub {
                "run" => Command::Run(run),
                "profile" => Command::Profile(run),
                "trace" => Command::Trace(run),
                _ => Command::Dot(run),
            })
        }
        other => Err(ParseError(format!(
            "unknown command '{other}' (try 'fathom help')"
        ))),
    }
}

fn parse_train(mut flags: Flags<'_>) -> Result<Command, ParseError> {
    let mut a = TrainArgs::new(parse_model(flags.model("train")?)?);
    while let Some(flag) = flags.next() {
        match flag {
            "--steps" => a.steps = flags.num("--steps")?,
            "--threads" => a.threads = flags.num("--threads")?,
            "--seed" => a.seed = flags.num("--seed")?,
            "--dir" => a.dir = Some(flags.value("--dir")?.to_string()),
            "--resume" => a.resume = true,
            "--snap-every" => a.snap_every = flags.num("--snap-every")?,
            "--snap-keep" => a.snap_keep = flags.num("--snap-keep")?,
            "--max-loss" => a.max_abs_loss = flags.num("--max-loss")?,
            "--max-grad-norm" => a.max_grad_norm = flags.num("--max-grad-norm")?,
            "--retry" => a.retry = parse_retry(flags.value("--retry")?)?,
            "--max-retries" => a.max_retries = flags.num("--max-retries")?,
            "--fault-plan" => a.fault_plan = Some(flags.value("--fault-plan")?.to_string()),
            "--out" => a.out = Some(flags.value("--out")?.to_string()),
            other => return Err(unknown_flag(other)),
        }
    }
    if a.steps == 0 || a.threads == 0 {
        return Err(ParseError("train --steps and --threads must be positive".into()));
    }
    if a.resume && a.dir.is_none() {
        return Err(ParseError("--resume needs --dir to find snapshots in".into()));
    }
    if a.snap_keep == 0 {
        return Err(ParseError("--snap-keep must be at least 1".into()));
    }
    Ok(Command::Train(a))
}

/// Parses a `--scale` value: `reference` or `full`.
fn parse_scale(raw: &str) -> Result<ModelScale, ParseError> {
    match raw {
        "reference" => Ok(ModelScale::Reference),
        "full" => Ok(ModelScale::Full),
        other => Err(ParseError(format!("unknown scale '{other}' (reference|full)"))),
    }
}

/// Parses a `--precision` value: `f32` or `bf16`.
fn parse_precision(raw: &str) -> Result<Precision, ParseError> {
    match raw {
        "f32" => Ok(Precision::F32),
        "bf16" => Ok(Precision::Bf16),
        other => Err(ParseError(format!("unknown precision '{other}' (f32|bf16)"))),
    }
}

/// Parses a `--retry` policy: `replay`, `skip-batch`, or
/// `lr-backoff:<factor>`.
fn parse_retry(raw: &str) -> Result<RetryPolicy, ParseError> {
    match raw {
        "replay" => Ok(RetryPolicy::Replay),
        "skip-batch" => Ok(RetryPolicy::SkipBatch),
        other => {
            if let Some(f) = other.strip_prefix("lr-backoff:") {
                let factor: f32 = f.parse().map_err(|_| {
                    ParseError(format!("lr-backoff factor '{f}' is not a number"))
                })?;
                if !(factor > 0.0 && factor < 1.0) {
                    return Err(ParseError(format!(
                        "lr-backoff factor must be in (0, 1), got {factor}"
                    )));
                }
                Ok(RetryPolicy::LrBackoff { factor })
            } else {
                Err(ParseError(format!(
                    "unknown retry policy '{other}' (replay|skip-batch|lr-backoff:<f>)"
                )))
            }
        }
    }
}

fn parse_serve_bench(mut flags: Flags<'_>) -> Result<Command, ParseError> {
    let models: Vec<ModelKind> = flags
        .model("serve-bench")?
        .split(',')
        .map(|part| parse_model(part.trim()))
        .collect::<Result<_, _>>()?;
    let mut a = ServeArgs::new(models[0]);
    a.models = models;
    /// A rate or a span of time, `per_unit` virtual nanoseconds to
    /// the unit: finite, not negative, and inside `u64` once scaled
    /// (`inf` never ends an arrival trace, `nan` slips past `<= 0`
    /// tests, and a saturated span overflows the clock it is added to).
    fn scaled(flags: &mut Flags<'_>, name: &str, per_unit: f64) -> Result<f64, ParseError> {
        let v: f64 = flags.num(name)?;
        if v >= 0.0 && v * per_unit < u64::MAX as f64 {
            Ok(v)
        } else {
            Err(ParseError(format!(
                "{name} must be a finite, non-negative number (time spans under 2^64 ns)"
            )))
        }
    }
    while let Some(flag) = flags.next() {
        match flag {
            "--scale" => a.scale = parse_scale(flags.value("--scale")?)?,
            "--cluster" => a.cluster = true,
            "--shards" => a.shards = flags.num("--shards")?,
            "--slo-mix" => a.slo_mix = Some(flags.value("--slo-mix")?.to_string()),
            "--rps" => a.rps = scaled(&mut flags, "--rps", 1.0)?,
            "--duration" => a.duration = scaled(&mut flags, "--duration", 1e9)?,
            "--clients" => a.clients = Some(flags.num("--clients")?),
            "--requests" => a.requests = Some(flags.num("--requests")?),
            "--max-batch" => a.max_batch = flags.num("--max-batch")?,
            "--max-delay-ms" => a.max_delay_ms = scaled(&mut flags, "--max-delay-ms", 1e6)?,
            "--queue-cap" => a.queue_cap = Some(flags.num("--queue-cap")?),
            "--deadline-ms" => a.deadline_ms = Some(scaled(&mut flags, "--deadline-ms", 1e6)?),
            "--replicas" => a.replicas = flags.num("--replicas")?,
            "--seed" => a.seed = flags.num("--seed")?,
            "--threads" => a.threads = flags.num("--threads")?,
            "--inter-ops" => a.inter_ops = flags.num("--inter-ops")?,
            "--load" => a.load = Some(flags.value("--load")?.to_string()),
            "--out" => a.out = Some(flags.value("--out")?.to_string()),
            "--fault-plan" => a.fault_plan = Some(flags.value("--fault-plan")?.to_string()),
            other => return Err(unknown_flag(other)),
        }
    }
    if a.max_batch == 0 {
        return Err(ParseError("--max-batch must be at least 1".into()));
    }
    if a.replicas == 0 {
        return Err(ParseError("--replicas must be at least 1".into()));
    }
    if a.rps <= 0.0 || a.duration <= 0.0 {
        return Err(ParseError("--rps and --duration must be positive".into()));
    }
    if a.clients == Some(0) {
        return Err(ParseError("--clients must be at least 1".into()));
    }
    if a.models.len() > 1 && !a.cluster {
        return Err(ParseError(
            "serving several models at once needs --cluster".into(),
        ));
    }
    if a.shards == 0 {
        return Err(ParseError("--shards must be at least 1".into()));
    }
    if a.cluster && a.clients.is_some() {
        return Err(ParseError(
            "--cluster serves an open-loop load; --clients/--requests do not apply".into(),
        ));
    }
    if let Some(mix) = &a.slo_mix {
        if !a.cluster {
            return Err(ParseError("--slo-mix only applies with --cluster".into()));
        }
        // Validate eagerly so a typo fails at parse time, not mid-run.
        fathom_serve::SloMix::parse(mix).map_err(ParseError)?;
    }
    Ok(Command::ServeBench(a))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|p| p.to_string()).collect()
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&s(&["--help"])).unwrap(), Command::Help);
        assert_eq!(parse(&s(&["help"])).unwrap(), Command::Help);
    }

    #[test]
    fn usage_and_parser_name_the_same_subcommands() {
        let mut subs = Vec::new();
        for line in USAGE.lines().filter_map(|l| l.strip_prefix("    fathom ")) {
            // The required arguments: everything before the first
            // optional `[...]`, with a real name for `<model>`.
            let argv: Vec<String> = line
                .split_whitespace()
                .take_while(|t| !t.starts_with('['))
                .map(|t| if t.starts_with("<model>") { "memnet".into() } else { t.to_string() })
                .collect();
            if let Err(e) = parse(&argv) {
                panic!("USAGE line `fathom {line}` does not parse as {argv:?}: {e}");
            }
            subs.push(argv[0].clone());
        }
        assert_eq!(subs, ["list", "run", "profile", "trace", "dot", "serve-bench", "train"]);
        // The self-checks that became tests are gone from both.
        for gone in [
            "chaos", "train-soak", "cluster-check", "gemm-check", "fuse-check", "runtime-check",
            "precision-check",
        ] {
            assert!(!USAGE.contains(gone), "USAGE still names {gone}");
            for argv in [s(&[gone]), s(&[gone, "autoenc"])] {
                let err = parse(&argv).unwrap_err();
                assert!(err.0.starts_with("unknown command"), "{argv:?}: {err}");
            }
        }
    }

    #[test]
    fn list_parses() {
        assert_eq!(parse(&s(&["list"])).unwrap(), Command::List { json: false });
        assert_eq!(parse(&s(&["list", "--json"])).unwrap(), Command::List { json: true });
        assert!(parse(&s(&["list", "--table"])).is_err());
    }

    #[test]
    fn serve_bench_defaults() {
        let Command::ServeBench(a) = parse(&s(&["serve-bench", "alexnet"])).unwrap() else {
            panic!("expected ServeBench");
        };
        assert_eq!(a.model, ModelKind::Alexnet);
        assert_eq!(a.max_batch, 4);
        assert_eq!(a.replicas, 1);
        assert_eq!(a.clients, None);
        assert!((a.rps - 50.0).abs() < 1e-9);
    }

    #[test]
    fn serve_bench_all_flags() {
        let Command::ServeBench(a) = parse(&s(&[
            "serve-bench", "speech", "--rps", "120.5", "--duration", "2", "--max-batch", "8",
            "--max-delay-ms", "1.5", "--queue-cap", "32", "--deadline-ms", "50",
            "--replicas", "2", "--scale", "full", "--threads", "2", "--inter-ops", "3",
            "--seed", "7", "--load", "w.ck", "--out", "r.json",
        ]))
        .unwrap() else {
            panic!("expected ServeBench");
        };
        assert_eq!(a.model, ModelKind::Speech);
        assert!((a.rps - 120.5).abs() < 1e-9);
        assert_eq!(a.max_batch, 8);
        assert_eq!(a.queue_cap, Some(32));
        assert_eq!(a.deadline_ms, Some(50.0));
        assert_eq!(a.replicas, 2);
        assert_eq!(a.scale, ModelScale::Full);
        assert_eq!(a.inter_ops, 3);
        assert_eq!(a.load.as_deref(), Some("w.ck"));
        assert_eq!(a.out.as_deref(), Some("r.json"));
    }

    #[test]
    fn serve_bench_closed_loop_flags() {
        let Command::ServeBench(a) =
            parse(&s(&["serve-bench", "vgg", "--clients", "6", "--requests", "48"])).unwrap()
        else {
            panic!("expected ServeBench");
        };
        assert_eq!(a.clients, Some(6));
        assert_eq!(a.requests, Some(48));
    }

    #[test]
    fn serve_bench_rejects_degenerate_values() {
        assert!(parse(&s(&["serve-bench", "vgg", "--max-batch", "0"])).is_err());
        assert!(parse(&s(&["serve-bench", "vgg", "--replicas", "0"])).is_err());
        assert!(parse(&s(&["serve-bench", "vgg", "--rps", "0"])).is_err());
        assert!(parse(&s(&["serve-bench"])).is_err());
    }

    #[test]
    fn serve_bench_rejects_rates_and_spans_that_hang_or_overflow() {
        for (flag, bad) in [
            ("--rps", "inf"),
            ("--rps", "nan"),
            ("--rps", "-5"),
            ("--duration", "inf"),
            ("--duration", "NaN"),
            ("--duration", "-1"),
            ("--duration", "1e11"),
            ("--max-delay-ms", "-1"),
            ("--max-delay-ms", "inf"),
            ("--max-delay-ms", "1e14"),
            ("--deadline-ms", "1e14"),
            ("--deadline-ms", "nan"),
            ("--deadline-ms", "-0.5"),
        ] {
            let err = parse(&s(&["serve-bench", "alexnet", flag, bad]));
            assert!(err.is_err(), "{flag} {bad} must be a parse error, got {err:?}");
        }
        // The edges that are fine: no delay at all, and the longest
        // spans that still fit the virtual clock.
        let Command::ServeBench(a) = parse(&s(&[
            "serve-bench", "alexnet", "--max-delay-ms", "0", "--deadline-ms", "1e13",
            "--duration", "1e10",
        ]))
        .unwrap() else {
            panic!("expected ServeBench");
        };
        assert_eq!((a.max_delay_ms, a.deadline_ms, a.duration), (0.0, Some(1e13), 1e10));
        assert!(parse(&s(&["serve-bench", "vgg", "--clients", "0"])).is_err());
    }

    #[test]
    fn serve_bench_fault_plan_flag() {
        let Command::ServeBench(a) =
            parse(&s(&["serve-bench", "alexnet", "--fault-plan", "replica0@3=crash"])).unwrap()
        else {
            panic!("expected ServeBench");
        };
        assert_eq!(a.fault_plan.as_deref(), Some("replica0@3=crash"));
    }

    #[test]
    fn serve_bench_cluster_flags() {
        let Command::ServeBench(a) = parse(&s(&[
            "serve-bench", "memnet,alexnet", "--cluster", "--shards", "3",
            "--slo-mix", "60,25,15", "--rps", "200",
        ]))
        .unwrap() else {
            panic!("expected ServeBench");
        };
        assert!(a.cluster);
        assert_eq!(a.models, vec![ModelKind::Memnet, ModelKind::Alexnet]);
        assert_eq!(a.model, ModelKind::Memnet);
        assert_eq!(a.shards, 3);
        assert_eq!(a.slo_mix.as_deref(), Some("60,25,15"));
    }

    #[test]
    fn serve_bench_cluster_rejects_bad_combinations() {
        // A model list without --cluster is ambiguous.
        assert!(parse(&s(&["serve-bench", "memnet,alexnet"])).is_err());
        // A malformed mix fails at parse time.
        assert!(parse(&s(&["serve-bench", "memnet", "--cluster", "--slo-mix", "1,2"])).is_err());
        // The mix means nothing outside cluster mode.
        assert!(parse(&s(&["serve-bench", "memnet", "--slo-mix", "1,2,3"])).is_err());
        // Cluster mode is open-loop only.
        assert!(parse(&s(&["serve-bench", "memnet", "--cluster", "--clients", "3"])).is_err());
        assert!(parse(&s(&["serve-bench", "memnet", "--cluster", "--shards", "0"])).is_err());
        // An unknown name anywhere in the list is rejected.
        assert!(parse(&s(&["serve-bench", "memnet,gpt", "--cluster"])).is_err());
    }

    #[test]
    fn train_defaults_and_flags() {
        let Command::Train(a) = parse(&s(&["train", "autoenc"])).unwrap() else {
            panic!("expected Train");
        };
        assert_eq!(a.model, ModelKind::Autoenc);
        assert_eq!(a.steps, 10);
        assert_eq!(a.retry, RetryPolicy::Replay);
        assert!(!a.resume);

        let Command::Train(a) = parse(&s(&[
            "train", "deepq", "--steps", "20", "--seed", "3", "--dir", "ck", "--resume",
            "--snap-every", "4", "--snap-keep", "2", "--max-loss", "100",
            "--max-grad-norm", "5000", "--retry", "lr-backoff:0.5", "--max-retries", "2",
            "--fault-plan", "train@7=crash", "--out", "report.json",
        ]))
        .unwrap() else {
            panic!("expected Train");
        };
        assert_eq!(a.model, ModelKind::Deepq);
        assert_eq!(a.steps, 20);
        assert_eq!(a.dir.as_deref(), Some("ck"));
        assert!(a.resume);
        assert_eq!(a.snap_every, 4);
        assert_eq!(a.snap_keep, 2);
        assert_eq!(a.retry, RetryPolicy::LrBackoff { factor: 0.5 });
        assert_eq!(a.max_retries, 2);
        assert_eq!(a.fault_plan.as_deref(), Some("train@7=crash"));
        assert_eq!(a.out.as_deref(), Some("report.json"));
    }

    #[test]
    fn train_rejects_degenerate_values() {
        assert!(parse(&s(&["train"])).is_err());
        assert!(parse(&s(&["train", "autoenc", "--steps", "0"])).is_err());
        assert!(parse(&s(&["train", "autoenc", "--resume"])).is_err());
        assert!(parse(&s(&["train", "autoenc", "--snap-keep", "0"])).is_err());
        assert!(parse(&s(&["train", "autoenc", "--retry", "pray"])).is_err());
        assert!(parse(&s(&["train", "autoenc", "--retry", "lr-backoff:2"])).is_err());
        assert!(parse(&s(&["train", "autoenc", "--frob"])).is_err());
    }

    #[test]
    fn run_parses_precision_flag() {
        let Command::Run(args) = parse(&s(&["run", "vgg"])).unwrap() else {
            panic!("expected Run");
        };
        assert_eq!(args.precision, Precision::F32);
        let Command::Run(args) = parse(&s(&["run", "vgg", "--precision", "bf16"])).unwrap()
        else {
            panic!("expected Run");
        };
        assert_eq!(args.precision, Precision::Bf16);
        assert!(parse(&s(&["run", "vgg", "--precision", "fp8"])).is_err());
        assert!(parse(&s(&["run", "vgg", "--precision"])).is_err());
    }

    #[test]
    fn run_parses_fuse_flag() {
        let Command::Run(args) = parse(&s(&["run", "vgg", "--fuse"])).unwrap() else {
            panic!("expected Run");
        };
        assert!(args.fuse);
        let Command::Run(args) = parse(&s(&["run", "vgg"])).unwrap() else {
            panic!("expected Run");
        };
        assert!(!args.fuse);
    }

    #[test]
    fn run_with_defaults() {
        let Command::Run(args) = parse(&s(&["run", "alexnet"])).unwrap() else {
            panic!("expected Run");
        };
        assert_eq!(args.model, ModelKind::Alexnet);
        assert_eq!(args.mode, Mode::Training);
        assert_eq!(args.steps, 5);
        assert_eq!(args.threads, 1);
    }

    #[test]
    fn run_with_all_flags() {
        let Command::Run(args) = parse(&s(&[
            "run", "deepq", "--mode", "inference", "--scale", "full", "--steps", "9",
            "--threads", "4", "--inter-ops", "2", "--seed", "42",
            "--load", "in.ck", "--save", "out.ck",
        ]))
        .unwrap() else {
            panic!("expected Run");
        };
        assert_eq!(args.model, ModelKind::Deepq);
        assert_eq!(args.mode, Mode::Inference);
        assert_eq!(args.scale, ModelScale::Full);
        assert_eq!(args.steps, 9);
        assert_eq!(args.threads, 4);
        assert_eq!(args.inter_ops, 2);
        assert_eq!(args.seed, 42);
        assert_eq!(args.load.as_deref(), Some("in.ck"));
        assert_eq!(args.save.as_deref(), Some("out.ck"));
    }

    #[test]
    fn unknown_model_is_rejected_with_suggestions() {
        let err = parse(&s(&["run", "gpt"])).unwrap_err();
        assert!(err.0.contains("unknown workload"));
        assert!(err.0.contains("seq2seq"));
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let err = parse(&s(&["run", "vgg", "--frobnicate"])).unwrap_err();
        assert!(err.0.contains("--frobnicate"));
    }

    #[test]
    fn missing_flag_value_is_rejected() {
        let err = parse(&s(&["run", "vgg", "--steps"])).unwrap_err();
        assert!(err.0.contains("--steps"));
    }

    #[test]
    fn exports_require_out() {
        assert!(parse(&s(&["trace", "vgg"])).is_err());
        assert!(parse(&s(&["dot", "vgg"])).is_err());
        assert!(parse(&s(&["dot", "vgg", "--out", "g.dot"])).is_ok());
    }

    #[test]
    fn zero_inter_ops_is_rejected() {
        let err = parse(&s(&["run", "vgg", "--inter-ops", "0"])).unwrap_err();
        assert!(err.0.contains("--inter-ops"));
    }

    #[test]
    fn bad_mode_is_rejected() {
        let err = parse(&s(&["run", "vgg", "--mode", "sideways"])).unwrap_err();
        assert!(err.0.contains("sideways"));
    }
}
