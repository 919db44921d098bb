//! `fathom` — command-line driver for the Fathom-rs workload suite.
//!
//! ```text
//! fathom list
//! fathom run alexnet --steps 10 --threads 4
//! fathom profile seq2seq --steps 3
//! fathom trace deepq --out deepq.json     # open in chrome://tracing
//! fathom dot memnet --out memnet.dot      # render with graphviz
//! ```

mod args;

use std::process::ExitCode;
use std::sync::Arc;

use args::{parse, Command, RunArgs, ServeArgs, TrainArgs, USAGE};
use fathom::{
    BuildConfig, FusionLevel, GuardrailPolicy, Mode, ModelKind, Precision,
    RetryPolicy, SnapshotPolicy, TrainOutcome, Trainer, Workload,
};
use fathom_dataflow::{checkpoint, export, Device, FaultAction, FaultPlan, FaultSite, Json};
use fathom_profile::{report, runner, OpProfile};
use fathom_serve::{
    serve, serve_cluster, synth_inputs, BatchRunner, ClusterConfig, ClusterReport, ClusterRunner,
    FaultyRunner, LoadModel, ModelSpec, RecoveryCounters, RecoveryPolicy, ReloadPlan, ServeConfig,
    SessionWorker, SloClass, SloMix, SloPolicy,
};
use fathom_suite::FathomError;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match dispatch(command) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(command: Command) -> Result<(), FathomError> {
    match command {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::List { json } => {
            if json {
                print!("{}", list_json());
            } else {
                println!(
                    "{:<9} {:>5} {:<22} {:>6} {:<14} {:<10}",
                    "model", "year", "style", "layers", "task", "dataset"
                );
                for kind in ModelKind::ALL {
                    let m = kind.metadata();
                    println!(
                        "{:<9} {:>5} {:<22} {:>6} {:<14} {:<10}",
                        m.name, m.year, m.style, m.layers, m.task, m.dataset
                    );
                }
            }
            Ok(())
        }
        Command::Run(a) => cmd_run(a),
        Command::Profile(a) => cmd_profile(a),
        Command::Trace(a) => cmd_trace(a),
        Command::Dot(a) => cmd_dot(a),
        Command::ServeBench(a) => cmd_serve_bench(a),
        Command::Train(a) => cmd_train(a),
        Command::TrainSoak { quick, seed, steps } => cmd_train_soak(quick, seed, steps),
        Command::Chaos { model, seed } => cmd_chaos(model, seed),
        Command::ClusterCheck { seed } => cmd_cluster_check(seed),
        Command::GemmCheck { m, k, n, threads } => cmd_gemm_check(m, k, n, threads),
        Command::FuseCheck { steps, threads, inter_ops, seed } => {
            cmd_fuse_check(steps, threads, inter_ops, seed)
        }
        Command::RuntimeCheck { model, steps, seed } => cmd_runtime_check(model, steps, seed),
        Command::PrecisionCheck { steps, threads, seed, tolerance } => {
            cmd_precision_check(steps, threads, seed, tolerance)
        }
    }
}

/// Gates the unified work-stealing runtime: every checked workload must
/// train bitwise-identically on the serial plan walk and the parallel
/// executor at worker counts {1, 2, 8}; once the static arena plan has
/// warmed up, steps must serve every planned tensor from the arena —
/// zero heap allocations in steady state; and the parallel executor must
/// have run some ops by chain-following (every workload has producer →
/// consumer chains, so a zero count means the inline path is dead).
/// Only counts are asserted, never wall time. Exits nonzero on any
/// violation, so scripts/tier1.sh can use it as a smoke gate.
fn cmd_runtime_check(
    model: Option<ModelKind>,
    steps: usize,
    seed: u64,
) -> Result<(), FathomError> {
    const WORKERS: [usize; 3] = [1, 2, 8];
    // Kernel temporaries and unlucky interleavings can push a bucket
    // past its provisioned count a few times before the arena's
    // miss-driven growth absorbs the parallel high-water mark, so the
    // warm-up length is not fixed. The gate asserts the steady state
    // *exists*: within the step budget, the run must reach
    // `QUIET_STEPS` consecutive steps that allocate nothing.
    const MAX_PROBE_STEPS: usize = 40;
    const QUIET_STEPS: u32 = 4;

    println!("runtime-check | {steps} step(s) | worker counts {WORKERS:?} | seed {seed:#x}");
    let kinds: Vec<ModelKind> = match model {
        Some(k) => vec![k],
        None => ModelKind::ALL.to_vec(),
    };
    let mut failures = 0u32;
    for kind in kinds {
        let make = |device: Device| {
            kind.build(&BuildConfig::training().with_device(device).with_seed(seed))
        };
        // Serial reference: the plan-order walk on one thread.
        let mut base = make(Device::cpu(1));
        let mut base_losses = Vec::with_capacity(steps);
        for _ in 0..steps {
            base_losses.push(base.step().loss.expect("training emits a loss").to_bits());
        }
        let mut base_vars = Vec::new();
        checkpoint::save(base.session(), &mut base_vars)?;

        let mut bits_ok = true;
        for w in WORKERS {
            let mut par = make(Device::cpu_inter_op(w, w));
            for (i, &want) in base_losses.iter().enumerate() {
                let got = par.step().loss.expect("training emits a loss").to_bits();
                if got != want {
                    println!("      {} @ {w} worker(s): loss bits diverge at step {i}", kind.name());
                    bits_ok = false;
                }
            }
            let mut par_vars = Vec::new();
            checkpoint::save(par.session(), &mut par_vars)?;
            if par_vars != base_vars {
                println!("      {} @ {w} worker(s): trained variables diverge", kind.name());
                bits_ok = false;
            }
        }

        // Steady-state allocation gate on the parallel executor.
        let mut probe = make(Device::cpu_inter_op(2, 2));
        let mut quiet = 0u32;
        let mut last_allocs = 0u64;
        let mut spent = 0usize;
        while spent < MAX_PROBE_STEPS && quiet < QUIET_STEPS {
            probe.step();
            spent += 1;
            let now = probe.session().runtime_counters().allocations;
            quiet = if now == last_allocs { quiet + 1 } else { 0 };
            last_allocs = now;
        }
        let counters = probe.session().runtime_counters();
        let alloc_ok = quiet >= QUIET_STEPS && counters.arena_bytes > 0;
        if !alloc_ok {
            println!(
                "      {}: no run of {QUIET_STEPS} allocation-free steps within {spent} \
                 step(s) ({} total allocation(s), arena {} B)",
                kind.name(),
                counters.allocations,
                counters.arena_bytes
            );
        }

        let chain_ok = counters.inline_ops > 0;
        let ok = bits_ok && alloc_ok && chain_ok;
        if !ok {
            failures += 1;
        }
        println!(
            "{}  {:<8} bitwise vs serial: {bits_ok}  zero steady-state allocs: {alloc_ok}  \
             chain-following: {chain_ok} ({} inline op(s), {} park(s) in {spent} step(s))",
            if ok { "PASS" } else { "FAIL" },
            kind.name(),
            counters.inline_ops,
            counters.parks,
        );
    }
    if failures == 0 {
        println!("runtime-check: unified runtime matches the serial walk bit for bit");
        Ok(())
    } else {
        Err(FathomError::Message(format!("runtime-check: {failures} workload(s) failed")))
    }
}

/// Gates the mixed-precision compute paths across every workload:
/// bf16 inference metrics must stay within `tolerance` of the f32
/// reference and be bitwise identical serial vs parallel, and the
/// int8 path (calibrate on the first `steps` batches, quantize, serve
/// the next `steps`) must also land within `tolerance`. Exits nonzero
/// on any violation, so scripts/tier1.sh can use it as a smoke gate.
fn cmd_precision_check(
    steps: usize,
    threads: usize,
    seed: u64,
    tolerance: f32,
) -> Result<(), FathomError> {
    println!(
        "precision-check | {steps} calibration + {steps} serving step(s) | parallel leg \
         {threads} worker(s) | seed {seed:#x} | tolerance {tolerance}"
    );
    // Deviation of a mean metric from its reference, relative for
    // metrics above 1 and absolute below — classification accuracies
    // and confidences live in [0, 1], where a ratio would explode near
    // zero.
    let deviation = |got: f32, want: f32| (got - want).abs() / want.abs().max(1.0);
    let mean = |xs: &[f32]| xs.iter().sum::<f32>() / xs.len().max(1) as f32;

    let mut failures = 0u32;
    for kind in ModelKind::ALL {
        let make = |precision: Precision, device: Device| {
            kind.build(
                &BuildConfig::inference().with_device(device).with_seed(seed).with_precision(precision),
            )
        };

        // f32 reference over 2x steps: the first half aligns with the
        // quantized model's calibration batches, the tail with its
        // post-quantization serving batches.
        let mut reference = make(Precision::F32, Device::cpu(1));
        let mut ref_metrics = Vec::with_capacity(2 * steps);
        for _ in 0..2 * steps {
            ref_metrics
                .push(reference.step().metric.expect("inference reports a metric"));
        }

        // Leg 1: bf16 storage / f32 accumulate stays within tolerance.
        let mut bf16 = make(Precision::Bf16, Device::cpu(1));
        let mut bf16_metrics = Vec::with_capacity(2 * steps);
        for _ in 0..2 * steps {
            bf16_metrics.push(bf16.step().metric.expect("inference reports a metric"));
        }
        let bf16_dev = deviation(mean(&bf16_metrics), mean(&ref_metrics));
        let bf16_ok = bf16_dev <= tolerance;

        // Leg 2: bf16 is bitwise deterministic, serial vs parallel.
        let mut par = make(Precision::Bf16, Device::cpu_inter_op(threads, threads));
        let mut det_ok = true;
        for (i, &want) in bf16_metrics.iter().enumerate() {
            let got = par.step().metric.expect("inference reports a metric");
            if got.to_bits() != want.to_bits() {
                println!(
                    "      {} bf16 @ {threads} worker(s): metric bits diverge at step {i}",
                    kind.name()
                );
                det_ok = false;
            }
        }

        // Leg 3: per-channel int8. Calibration runs the same batch
        // stream as the reference's first half (unquantized, so metrics
        // match f32), then the quantized tail is judged against the
        // reference tail.
        let mut quant = make(Precision::F32, Device::cpu(threads));
        quant.session_mut().begin_calibration();
        for _ in 0..steps {
            quant.step();
        }
        quant.session_mut().finish_calibration();
        let (int8_ok, int8_dev) = match quant.session_mut().quantize_from_calibration() {
            Ok(_gemms) => {
                let mut int8_metrics = Vec::with_capacity(steps);
                for _ in 0..steps {
                    int8_metrics
                        .push(quant.step().metric.expect("inference reports a metric"));
                }
                let dev = deviation(mean(&int8_metrics), mean(&ref_metrics[steps..]));
                (dev <= tolerance, dev)
            }
            Err(e) => {
                println!("      {}: int8 quantization failed: {e}", kind.name());
                (false, f32::NAN)
            }
        };

        let ok = bf16_ok && det_ok && int8_ok;
        if !ok {
            failures += 1;
        }
        println!(
            "{}  {:<8} bf16 dev {bf16_dev:.4} ({bf16_ok})  bf16 bitwise serial vs \
             parallel: {det_ok}  int8 dev {int8_dev:.4} ({int8_ok})",
            if ok { "PASS" } else { "FAIL" },
            kind.name(),
        );
    }
    if failures == 0 {
        println!("precision-check: bf16 and int8 paths hold accuracy on all workloads");
        Ok(())
    } else {
        Err(FathomError::Message(format!("precision-check: {failures} workload(s) failed")))
    }
}

/// Checks the fusion passes across every workload: training losses,
/// trained variables, and inference metrics must be bitwise identical
/// with fusion (GEMM epilogues included) on and off, serial and parallel
/// — and both elementwise and epilogue fusion must actually fire
/// somewhere in the suite. Exits nonzero on any violation, so
/// scripts/tier1.sh can use it as a smoke gate.
fn cmd_fuse_check(
    steps: usize,
    threads: usize,
    inter_ops: usize,
    seed: u64,
) -> Result<(), FathomError> {
    use fathom_dataflow::OpKind;

    println!(
        "fuse-check | {steps} step(s) | parallel leg {threads} thread(s) x {inter_ops} \
         inter-op worker(s) | seed {seed:#x}"
    );
    let mut failures = 0u32;
    let mut total_groups = 0usize;
    let mut total_gemm_groups = 0usize;
    for kind in ModelKind::ALL {
        let make = |mode: Mode, fusion: FusionLevel, device: Device| {
            let base = BuildConfig { mode, ..BuildConfig::training() };
            kind.build(&base.with_device(device).with_seed(seed).with_fusion_level(fusion))
        };
        // Training legs: unfused serial is the reference; fused serial and
        // fused parallel must both reproduce it bit for bit.
        let mut base = make(Mode::Training, FusionLevel::Off, Device::cpu(1));
        let mut fused = make(Mode::Training, FusionLevel::Full, Device::cpu(1));
        let mut fused_par =
            make(Mode::Training, FusionLevel::Full, Device::cpu_inter_op(threads, inter_ops));
        let groups = fused
            .session()
            .graph()
            .iter()
            .filter(|(_, n)| matches!(n.kind, OpKind::Fused(_)))
            .count();
        let gemm_groups = fused
            .session()
            .graph()
            .iter()
            .filter(|(_, n)| matches!(n.kind, OpKind::GemmFused { .. }))
            .count();
        total_groups += groups;
        total_gemm_groups += gemm_groups;
        let mut loss_ok = true;
        for _ in 0..steps {
            let l0 = base.step().loss.expect("training emits a loss");
            let l1 = fused.step().loss.expect("training emits a loss");
            let l2 = fused_par.step().loss.expect("training emits a loss");
            loss_ok &= l0.to_bits() == l1.to_bits() && l0.to_bits() == l2.to_bits();
        }
        // Trained variables must agree too; fusion never touches variable
        // nodes, so the checkpoint byte streams are directly comparable.
        let mut base_vars = Vec::new();
        checkpoint::save(base.session(), &mut base_vars)?;
        let mut fused_vars = Vec::new();
        checkpoint::save(fused.session(), &mut fused_vars)?;
        let mut par_vars = Vec::new();
        checkpoint::save(fused_par.session(), &mut par_vars)?;
        let vars_ok = base_vars == fused_vars && base_vars == par_vars;
        // Inference leg: one step, metric bits must agree.
        let mut inf_base = make(Mode::Inference, FusionLevel::Off, Device::cpu(1));
        let mut inf_fused = make(Mode::Inference, FusionLevel::Full, Device::cpu(1));
        let m0 = inf_base.step().metric.expect("inference emits a metric");
        let m1 = inf_fused.step().metric.expect("inference emits a metric");
        let inf_ok = m0.to_bits() == m1.to_bits();
        let ok = loss_ok && vars_ok && inf_ok;
        if !ok {
            failures += 1;
        }
        println!(
            "{}  {:<8} {groups:>3} fused + {gemm_groups:>3} epilogue group(s) | \
             loss bits: {loss_ok}  variables: {vars_ok}  inference bits: {inf_ok}",
            if ok { "PASS" } else { "FAIL" },
            kind.name(),
        );
    }
    if total_groups == 0 {
        return Err(FathomError::Message(
            "fuse-check: elementwise fusion never fired on any workload".into(),
        ));
    }
    if total_gemm_groups == 0 {
        return Err(FathomError::Message(
            "fuse-check: GEMM epilogue fusion never fired on any workload".into(),
        ));
    }
    if failures == 0 {
        println!(
            "fuse-check: all workloads agree bitwise ({total_groups} fused + \
             {total_gemm_groups} epilogue groups total)"
        );
        Ok(())
    } else {
        Err(FathomError::Message(format!("fuse-check: {failures} workload(s) failed")))
    }
}

/// Checks the packed GEMM driver on one geometry, once per panel format
/// (f32, then bf16): agreement with the naive kernel across all four
/// transpose layouts (on bf16-rounded operands for the bf16 panels),
/// bitwise serial == parallel determinism at the requested width, and a
/// fused bias+ReLU epilogue that must reproduce the unfused
/// matmul-then-elementwise pipeline bit for bit. Then the same driver
/// under patch views ([`conv_check`]). Exits nonzero on any violation,
/// so scripts/tier1.sh can use it as a smoke gate.
fn cmd_gemm_check(m: usize, k: usize, n: usize, threads: usize) -> Result<(), FathomError> {
    use fathom_tensor::kernels::elementwise as kew;
    use fathom_tensor::kernels::epilogue::{Epilogue, EpilogueArg, EpilogueInstr, OperandKind};
    use fathom_tensor::kernels::fused::FusedOp;
    use fathom_tensor::kernels::gemm::gemm_into;
    use fathom_tensor::kernels::matmul::matmul_naive;
    use fathom_tensor::kernels::quant::{bf16_to_f32, bf16_from_f32};
    use fathom_tensor::{ExecPool, Rng, Tensor};
    use std::time::Instant;

    println!("gemm-check | {m}x{k}x{n} | serial vs {threads} worker(s)");
    let mut rng = Rng::seeded(0xFA7408);
    let serial = ExecPool::serial();
    let wide = ExecPool::new(threads);
    // Naive accumulates in the same k-order, so the gap is pure rounding
    // from the packed kernel's blocked summation; scale the bound with k.
    let tol = 1e-6 * k as f64;
    let mut failures = 0u32;
    // `gemm_into` packs whatever the geometry, so the check exercises the
    // driver even on shapes `gemm::select` would leave to the row kernel.
    type Fused<'a> = Option<(&'a Epilogue, &'a [&'a [f32]])>;
    let packed = |a: &Tensor, b: &Tensor, ta, tb, precision, ep: Fused<'_>, pool: &ExecPool| {
        let mut c = vec![0.0f32; m * n];
        gemm_into(&mut c, m, n, k, a.data(), ta, b.data(), tb, precision, ep, pool);
        Tensor::from_vec(c, [m, n])
    };
    for precision in [Precision::F32, Precision::Bf16] {
        // bf16 panels round each operand element once at pack time, so
        // their exact reference is the naive product of rounded operands.
        let on_grid = |t: &Tensor| match precision {
            Precision::F32 => t.clone(),
            Precision::Bf16 => Tensor::from_vec(
                t.data().iter().map(|&v| bf16_to_f32(bf16_from_f32(v))).collect(),
                t.shape().dims(),
            ),
        };
        for (ta, tb) in [(false, false), (true, false), (false, true), (true, true)] {
            let a = Tensor::randn(if ta { [k, m] } else { [m, k] }, 0.0, 1.0, &mut rng);
            let b = Tensor::randn(if tb { [n, k] } else { [k, n] }, 0.0, 1.0, &mut rng);
            let reference = matmul_naive(&on_grid(&a), &on_grid(&b), ta, tb);
            let t0 = Instant::now();
            let product = packed(&a, &b, ta, tb, precision, None, &wide);
            let elapsed = t0.elapsed().as_secs_f64();
            let gflops = 2.0 * (m * k * n) as f64 / elapsed / 1e9;
            let diff = product.max_abs_diff(&reference) as f64;
            let agree = diff < tol;
            let deterministic =
                packed(&a, &b, ta, tb, precision, None, &serial).data() == product.data();
            let layout = format!(
                "{}{}",
                if ta { 't' } else { 'n' },
                if tb { 't' } else { 'n' }
            );
            let ok = agree && deterministic;
            if !ok {
                failures += 1;
            }
            println!(
                "{}  {precision} {layout}: max |packed - naive| = {diff:.2e} (tol {tol:.2e}), \
                 bitwise serial == parallel: {deterministic}, {gflops:.1} GFLOP/s",
                if ok { "PASS" } else { "FAIL" },
            );
        }
        // Fused-epilogue case: bias + ReLU applied in the microkernel
        // writeback must match the product followed by the elementwise
        // kernels, bit for bit, serial and parallel.
        let a = Tensor::randn([m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::randn([k, n], 0.0, 1.0, &mut rng);
        let bias = Tensor::randn([n], 0.0, 1.0, &mut rng);
        let ep = Epilogue {
            n_operands: 1,
            instrs: vec![
                EpilogueInstr {
                    op: FusedOp::Add,
                    args: vec![
                        EpilogueArg::Acc,
                        EpilogueArg::Operand { index: 0, kind: OperandKind::Col },
                    ],
                },
                EpilogueInstr { op: FusedOp::Relu, args: vec![EpilogueArg::Acc] },
            ],
        };
        let product = packed(&a, &b, false, false, precision, None, &wide);
        let biased = kew::eval(FusedOp::Add, &[&product, &bias], &wide);
        let reference = kew::eval(FusedOp::Relu, &[&biased], &wide);
        let ops: [&[f32]; 1] = [bias.data()];
        let fused = packed(&a, &b, false, false, precision, Some((&ep, &ops)), &wide);
        let bitwise = fused.data() == reference.data();
        let deterministic =
            packed(&a, &b, false, false, precision, Some((&ep, &ops)), &serial).data()
                == fused.data();
        let ok = bitwise && deterministic;
        if !ok {
            failures += 1;
        }
        println!(
            "{}  {precision} bias+relu epilogue: bitwise fused == unfused: {bitwise}, \
             bitwise serial == parallel: {deterministic}",
            if ok { "PASS" } else { "FAIL" },
        );
    }
    failures += conv_check(&serial, &wide);
    if failures == 0 {
        println!(
            "gemm-check: both panel formats and the convolution engine agree with their \
             references and are deterministic"
        );
        Ok(())
    } else {
        Err(FathomError::Message(format!("gemm-check: {failures} check(s) failed")))
    }
}

/// The convolution leg of `gemm-check`: forward, backprop-input and
/// backprop-filter through the engine against the naive sums, and bitwise
/// serial == parallel, on the four convolutional workloads' first-layer
/// geometries plus one strided, one pointwise and one 2x2-spatial layer.
/// Returns the number of failed checks.
fn conv_check(serial: &fathom_tensor::ExecPool, wide: &fathom_tensor::ExecPool) -> u32 {
    use fathom_tensor::kernels::conv::{
        conv2d, conv2d_backprop_filter, conv2d_backprop_filter_naive, conv2d_backprop_input,
        conv2d_backprop_input_naive, conv2d_naive, Conv2dSpec,
    };
    use fathom_tensor::{ExecPool, Rng, Tensor};

    let mut rng = Rng::seeded(0xC0_47);
    let mut failures = 0u32;
    // (label, [n, h, w, ic], k, oc, stride, pad)
    for (label, [n, h, w, ic], k, oc, stride, pad) in [
        ("residual/vgg stem 3x3 3->16", [2, 32, 32, 3], 3, 16, 1, 1),
        ("alexnet conv1 11x11 s4 3->24", [2, 64, 64, 3], 11, 24, 4, 2),
        ("deepq conv1 8x8 s4 4->8", [2, 84, 84, 4], 8, 8, 4, 0),
        ("stride-2 3x3 16->32", [2, 32, 32, 16], 3, 32, 2, 1),
        ("pointwise 1x1 32->64", [2, 16, 16, 32], 1, 64, 1, 0),
        ("2x2-spatial 3x3 128->128", [2, 2, 2, 128], 3, 128, 1, 1),
    ] {
        let spec = Conv2dSpec { stride, pad };
        let x = Tensor::randn([n, h, w, ic], 0.0, 1.0, &mut rng);
        let f = Tensor::randn([k, k, ic, oc], 0.0, 1.0, &mut rng);
        let g = Tensor::randn(spec.out_shape(x.shape(), f.shape()), 0.0, 1.0, &mut rng);
        let run = |pool: &ExecPool| {
            [
                conv2d(&x, &f, spec, None, pool),
                conv2d_backprop_input(x.shape(), &f, &g, spec, pool),
                conv2d_backprop_filter(&x, f.shape(), &g, spec, pool),
            ]
        };
        let reference = [
            conv2d_naive(&x, &f, spec),
            conv2d_backprop_input_naive(x.shape(), &f, &g, spec),
            conv2d_backprop_filter_naive(&x, f.shape(), &g, spec),
        ];
        // Rounding scales with the terms per sum: a window for the two
        // activation-shaped results, every pixel for the filter's.
        let terms = [k * k * ic, k * k * oc, g.len() / oc];
        let (par, ser) = (run(wide), run(serial));
        for (i, op) in ["forward", "backprop-input", "backprop-filter"].iter().enumerate() {
            let tol = 2e-6 * terms[i] as f64 + 1e-5;
            let diff = f64::from(par[i].max_abs_diff(&reference[i]));
            let deterministic = par[i].data() == ser[i].data();
            let ok = diff < tol && deterministic;
            failures += u32::from(!ok);
            println!(
                "{}  conv {label} {op}: max |engine - naive| = {diff:.2e} (tol {tol:.2e}), \
                 bitwise serial == parallel: {deterministic}",
                if ok { "PASS" } else { "FAIL" },
            );
        }
    }
    failures
}

/// The workload inventory as a JSON array, one workload per line.
fn list_json() -> String {
    Json::arr(ModelKind::ALL.iter().map(|kind| {
        let m = kind.metadata();
        Json::obj()
            .with("name", m.name)
            .with("year", u64::from(m.year))
            .with("style", m.style)
            .with("layers", m.layers)
            .with("task", m.task)
            .with("dataset", m.dataset)
            .with("reference", m.reference)
    }))
    .render()
}

fn build(a: &RunArgs) -> Box<dyn Workload> {
    let cfg = BuildConfig { mode: a.mode, ..BuildConfig::training() }
        .with_scale(a.scale)
        .with_device(Device::cpu_inter_op(a.threads, a.inter_ops))
        .with_seed(a.seed)
        .with_fusion(a.fuse)
        .with_precision(a.precision);
    a.model.build(&cfg)
}

fn cmd_run(a: RunArgs) -> Result<(), FathomError> {
    let mut model = build(&a);
    if let Some(path) = &a.load {
        let file = std::fs::File::open(path)?;
        checkpoint::load(model.session_mut(), std::io::BufReader::new(file))?;
        println!("restored variables from {path}");
    }
    println!(
        "{} | {} | {} ops in graph",
        model.name(),
        a.mode.label(),
        model.session().graph().len()
    );
    for step in 0..a.steps {
        let stats = model.step();
        match (stats.loss, stats.metric) {
            (Some(loss), Some(metric)) => println!("step {step}: loss {loss:.4}  metric {metric:.4}"),
            (Some(loss), None) => println!("step {step}: loss {loss:.4}"),
            (None, Some(metric)) => println!("step {step}: metric {metric:.4}"),
            (None, None) => println!("step {step}: done"),
        }
    }
    if let Some(path) = &a.save {
        // Crash-consistent: temp file, fsync, verify, atomic rename.
        checkpoint::save_to_path(model.session(), std::path::Path::new(path))?;
        println!("saved variables to {path}");
    }
    Ok(())
}

fn cmd_profile(a: RunArgs) -> Result<(), FathomError> {
    let mut model = build(&a);
    model.step(); // warm-up
    let trace = runner::trace_steps(model.as_mut(), a.steps);
    let profile = OpProfile::from_trace(a.model.name(), &trace);
    println!("{} | {} steps traced", a.model.name(), a.steps);
    print!("{}", report::render_profile_table(&profile, 15));
    println!("\nclass shares:");
    for (class, fraction) in profile.class_fractions() {
        if fraction > 0.0 {
            println!("  [{}] {:<24} {:>5.1}%", class.letter(), class.label(), fraction * 100.0);
        }
    }
    println!("\ninter-op overhead: {:.2}%", trace.overhead_fraction() * 100.0);
    Ok(())
}

fn cmd_trace(a: RunArgs) -> Result<(), FathomError> {
    let out = a.out.clone().expect("parser enforces --out");
    let mut model = build(&a);
    model.step();
    let trace = runner::trace_steps(model.as_mut(), a.steps);
    std::fs::write(&out, export::to_chrome_trace(&trace))?;
    println!(
        "wrote {} events to {out} (open in chrome://tracing or Perfetto)",
        trace.events.len()
    );
    Ok(())
}

fn cmd_serve_bench(a: ServeArgs) -> Result<(), FathomError> {
    if a.cluster {
        return cmd_serve_cluster(a);
    }
    let cfg = BuildConfig::inference()
        .with_scale(a.scale)
        .with_device(Device::cpu_inter_op(a.threads, a.inter_ops))
        .with_seed(a.seed)
        .with_batch(a.max_batch);
    let mut workers = Vec::with_capacity(a.replicas);
    for _ in 0..a.replicas {
        let mut w = SessionWorker::new(a.model, &cfg)?;
        if let Some(path) = &a.load {
            let file = std::fs::File::open(path)?;
            w.warm_start(std::io::BufReader::new(file))?;
        }
        w.enable_tracing();
        workers.push(w);
    }
    if a.load.is_some() {
        println!("restored variables from {} into {} replica(s)", a.load.as_deref().unwrap(), a.replicas);
    }
    let shapes = workers[0].item_shapes();
    let domains = workers[0].domains();

    let serve_cfg = ServeConfig {
        max_batch: a.max_batch,
        max_delay_nanos: (a.max_delay_ms * 1e6) as u64,
        queue_cap: a.queue_cap.unwrap_or(8 * a.max_batch),
        deadline_nanos: a.deadline_ms.map(|ms| (ms * 1e6) as u64),
        seed: a.seed,
        recovery: RecoveryPolicy::default(),
    };
    let load = match (a.clients, a.requests) {
        (None, None) => {
            LoadModel::Open { rps: a.rps, duration_nanos: (a.duration * 1e9) as u64 }
        }
        (clients, requests) => {
            let clients = clients.unwrap_or(2 * a.max_batch);
            LoadModel::Closed { clients, requests: requests.unwrap_or(8 * clients) }
        }
    };

    // Every replica rides the same seeded plan (empty without
    // `--fault-plan`, which makes the wrapper a pass-through);
    // `replica<N>` specs target runners by their position here.
    let plan = fault_plan(&a)?;
    let mut replicas: Vec<FaultyRunner<SessionWorker>> = workers
        .into_iter()
        .enumerate()
        .map(|(i, w)| FaultyRunner::new(w, plan.clone(), i))
        .collect();
    let mut runners: Vec<&mut dyn BatchRunner> =
        replicas.iter_mut().map(|w| w as &mut dyn BatchRunner).collect();
    let report = serve(
        &mut runners,
        &serve_cfg,
        &load,
        &mut |rng, _id| synth_inputs(&shapes, &domains, rng),
        a.model.name(),
    )?;

    let ms = |nanos: f64| nanos / 1e6;
    println!("{} | serve-bench | {:?}", a.model.name(), load);
    println!(
        "issued {}  completed {}  shed {}  timed-out {}",
        report.issued, report.completed, report.shed, report.timed_out
    );
    println!(
        "throughput {:.1} req/s over {:.1} ms of virtual time",
        report.throughput_rps(),
        report.makespan_nanos as f64 / 1e6
    );
    println!(
        "latency ms: p50 {:.3}  p95 {:.3}  p99 {:.3}  max {:.3}",
        ms(report.latency.quantile(0.50)),
        ms(report.latency.quantile(0.95)),
        ms(report.latency.quantile(0.99)),
        ms(report.latency.max()),
    );
    println!(
        "batches {}  mean size {:.2}  max queue depth {}",
        report.batches(),
        report.mean_batch_size(),
        report.max_queue_depth()
    );
    print_recovery(&report.recovery);
    print_runtime(&report.runtime);
    if let Some(path) = &a.out {
        std::fs::write(path, report.to_json())?;
        println!("wrote report to {path}");
    }
    Ok(())
}

/// `serve-bench --cluster`: every named model behind `--shards` shard
/// groups of `--replicas` replicas, offered `--rps` each through the
/// fleet layer (consistent-hash routing, SLO-class admission, continuous
/// batching).
fn cmd_serve_cluster(a: ServeArgs) -> Result<(), FathomError> {
    if a.load.is_some() {
        return Err(FathomError::Message(
            "--load does not apply in cluster mode (reloads are per model)".into(),
        ));
    }
    let plan = fault_plan(&a)?;

    // One work-stealing runtime for the whole fleet: every model's
    // replicas share the same worker set, so the process thread budget
    // is max(threads, inter_ops) regardless of fleet size.
    let fleet_rt = Arc::new(fathom_tensor::Runtime::new(a.threads.max(a.inter_ops).max(1)));

    // Replica indices for `replica<N>` fault specs run fleet-wide, in
    // model -> shard -> replica order.
    let mut fleet: Vec<Vec<Vec<FaultyRunner<SessionWorker>>>> =
        Vec::with_capacity(a.models.len());
    let mut replica_idx = 0usize;
    for kind in &a.models {
        let cfg = BuildConfig::inference()
            .with_scale(a.scale)
            .with_device(Device::cpu_on_runtime(&fleet_rt, a.threads, a.inter_ops))
            .with_seed(a.seed)
            .with_batch(a.max_batch);
        let mut shards = Vec::with_capacity(a.shards);
        for _ in 0..a.shards {
            let mut replicas = Vec::with_capacity(a.replicas);
            for _ in 0..a.replicas {
                let w = SessionWorker::new(*kind, &cfg)?;
                replicas.push(FaultyRunner::new(w, plan.clone(), replica_idx));
                replica_idx += 1;
            }
            shards.push(replicas);
        }
        fleet.push(shards);
    }

    let mut specs: Vec<ModelSpec<'_>> = Vec::with_capacity(a.models.len());
    for (kind, shards_of) in a.models.iter().zip(fleet.iter_mut()) {
        let shapes = shards_of[0][0].inner().item_shapes();
        let domains = shards_of[0][0].inner().domains();
        specs.push(ModelSpec {
            name: kind.name().to_string(),
            shards: shards_of
                .iter_mut()
                .map(|s| s.iter_mut().map(|w| w as &mut dyn ClusterRunner).collect())
                .collect(),
            rps: a.rps,
            synth: Box::new(move |rng, _id| synth_inputs(&shapes, &domains, rng)),
        });
    }

    let mix = match &a.slo_mix {
        Some(spec) => SloMix::parse(spec).map_err(FathomError::Message)?,
        None => SloMix::default_mix(),
    };
    let cfg = ClusterConfig {
        queue_cap: a.queue_cap.unwrap_or(16 * a.max_batch),
        mix,
        duration_nanos: (a.duration * 1e9) as u64,
        seed: a.seed,
        ..ClusterConfig::new(a.max_batch)
    };
    let report = serve_cluster(&mut specs, &cfg)?;
    drop(specs);

    println!(
        "cluster | {} model(s) x {} shard(s) x {} replica(s) | {:.0} rps/model over {:.1} s",
        a.models.len(),
        a.shards,
        a.replicas,
        a.rps,
        a.duration
    );
    print_cluster_report(&report);
    if let Some(path) = &a.out {
        std::fs::write(path, report.to_json())?;
        println!("wrote report to {path}");
    }
    Ok(())
}

/// Human-readable per-class and per-model summary of a cluster run.
fn print_cluster_report(report: &ClusterReport) {
    let ms = |nanos: f64| nanos / 1e6;
    println!(
        "issued {}  completed {}  shed {}  timed-out {}  spilled {}  reloads {}",
        report.issued(),
        report.completed(),
        report.shed(),
        report.timed_out(),
        report.spilled(),
        report.reloads()
    );
    println!(
        "throughput {:.1} req/s over {:.1} ms of virtual time",
        report.throughput_rps(),
        report.makespan_nanos as f64 / 1e6
    );
    for class in SloClass::ALL {
        let c = &report.per_class[class.idx()];
        if c.issued == 0 {
            continue;
        }
        println!(
            "  {:<12} issued {:>5}  completed {:>5}  shed {:>4}  timed-out {:>4}  \
             p50 {:.3} ms  p99 {:.3} ms",
            class.name(),
            c.issued,
            c.completed,
            c.shed,
            c.timed_out,
            ms(c.latency.quantile(0.50)),
            ms(c.latency.quantile(0.99)),
        );
    }
    for m in &report.models {
        println!(
            "  model {:<9} issued {:>5}  completed {:>5}  batches {:>5}  mean size {:.2}  \
             spilled {}  reloads {}",
            m.model,
            m.issued(),
            m.completed(),
            m.batches,
            m.mean_batch(),
            m.spilled,
            m.reloads
        );
    }
    let reasons = report.shed_reasons();
    if reasons.any() {
        println!(
            "  shed reasons: queue-full {}  deadline-infeasible {}  priority-evicted {}  \
             replica-loss {}",
            reasons.queue_full,
            reasons.deadline_infeasible,
            reasons.priority_evicted,
            reasons.replica_loss
        );
    }
    print_recovery(&report.recovery);
    print_runtime(&report.runtime);
}

/// Self-verifying cluster smoke: two models behind two shards each,
/// mixed-SLO traffic, and a hot reload of one model mid-run. Exits
/// nonzero unless conservation holds, nothing is dropped, and every
/// replica of the reloaded model swapped exactly once.
fn cmd_cluster_check(seed: u64) -> Result<(), FathomError> {
    println!("cluster-check | 2 models x 2 shards | mixed SLO | hot reload mid-run | seed {seed}");
    let mut failures = 0u32;
    let mut probe = |name: &str, ok: bool| {
        if ok {
            println!("PASS  {name}");
        } else {
            println!("FAIL  {name}");
            failures += 1;
        }
    };

    // The checkpoint the fleet swaps to mid-run: a briefly trained
    // memnet, so the reloaded weights demonstrably differ from the
    // build-time initialization.
    let mut trained = ModelKind::Memnet.build(&BuildConfig::training().with_seed(seed ^ 1));
    for _ in 0..2 {
        trained.step();
    }
    let mut ck = Vec::new();
    checkpoint::save(trained.session(), &mut ck)?;
    drop(trained);

    const MAX_BATCH: usize = 2;
    let build = |kind: ModelKind| -> Result<SessionWorker, FathomError> {
        let cfg = BuildConfig::inference().with_seed(seed).with_batch(MAX_BATCH);
        Ok(SessionWorker::new(kind, &cfg)?)
    };
    let kinds = [ModelKind::Memnet, ModelKind::Autoenc];
    let mut fleet: Vec<Vec<Vec<SessionWorker>>> = Vec::new();
    for kind in kinds {
        fleet.push(vec![vec![build(kind)?], vec![build(kind)?]]);
    }
    let mut specs: Vec<ModelSpec<'_>> = Vec::new();
    for (kind, shards_of) in kinds.iter().zip(fleet.iter_mut()) {
        let shapes = shards_of[0][0].item_shapes();
        let domains = shards_of[0][0].domains();
        specs.push(ModelSpec {
            name: kind.name().to_string(),
            shards: shards_of
                .iter_mut()
                .map(|s| s.iter_mut().map(|w| w as &mut dyn ClusterRunner).collect())
                .collect(),
            rps: 150.0,
            synth: Box::new(move |rng, _id| synth_inputs(&shapes, &domains, rng)),
        });
    }
    let cfg = ClusterConfig {
        // Wall-clock service times make virtual backlog uncontrolled, so
        // the smoke disables the admission limits: with no deadline and
        // an effectively unbounded queue, the only legitimate outcome is
        // that every request completes exactly once.
        slo: SloPolicy { deadline_nanos: [None, None, None] },
        queue_cap: 1_000_000,
        duration_nanos: 200_000_000,
        seed,
        reloads: vec![ReloadPlan {
            model: "memnet".into(),
            at_nanos: 100_000_000,
            checkpoint: ck.clone(),
        }],
        ..ClusterConfig::new(MAX_BATCH)
    };
    let report = serve_cluster(&mut specs, &cfg)?;
    drop(specs);
    print_cluster_report(&report);

    probe("cluster: conservation (completed + shed + timed-out == offered)", report.conserved());
    probe(
        "cluster: zero drops across the hot reload",
        report.shed() == 0 && report.timed_out() == 0 && report.completed() == report.issued(),
    );
    probe("cluster: every class saw traffic", report.per_class.iter().all(|c| c.issued > 0));
    probe(
        "cluster: both shards of both models served work",
        report.models.iter().all(|m| m.batches >= 2 && m.completed() > 0),
    );
    probe("cluster: reloaded model swapped every replica once", report.models[0].reloads == 2);
    probe("cluster: un-reloaded model swapped nothing", report.models[1].reloads == 0);

    // The swap took effect: both memnet replicas now hold the trained
    // variables (reload also resets the recovery baseline).
    let mut swapped = true;
    for shard in &mut fleet[0] {
        for worker in shard.iter_mut() {
            let mut after = Vec::new();
            checkpoint::save(worker.workload_mut().session(), &mut after)?;
            swapped &= after == ck;
        }
    }
    probe("cluster: replicas hold the reloaded checkpoint bytes", swapped);

    if failures == 0 {
        println!("cluster-check: all checks passed");
        Ok(())
    } else {
        Err(FathomError::Message(format!("cluster-check: {failures} check(s) failed")))
    }
}

/// The serve commands' fault plan: `--fault-plan` parsed under the run
/// seed, or the empty plan, under which [`FaultyRunner`] only forwards.
fn fault_plan(a: &ServeArgs) -> Result<Arc<FaultPlan>, FathomError> {
    let Some(spec) = &a.fault_plan else { return Ok(Arc::new(FaultPlan::new(a.seed))) };
    let plan = FaultPlan::parse(spec, a.seed).map_err(FathomError::Message)?;
    println!("fault plan: {spec} (seed {})", plan.seed());
    Ok(Arc::new(plan))
}

/// One line of supervisor activity, only when there was any — fault-free
/// output stays identical to earlier builds.
fn print_recovery(r: &RecoveryCounters) {
    if r.any() {
        println!(
            "recovery: crashes {}  retried {}  dropped {}  quarantines {}  recoveries {}  dead replicas {}",
            r.crashes, r.retried, r.dropped, r.quarantines, r.recoveries, r.dead_replicas
        );
    }
}

/// One line of unified-runtime counters, printed only when the run
/// actually exercised the runtime (parallel device, planned arena).
fn print_runtime(rc: &fathom_dataflow::RuntimeCounters) {
    if rc.any() {
        println!(
            "runtime: allocations {}  arena {} B  steals {}  wide ops {}  co-scheduled ops {}  \
             parks {}  inline ops {}",
            rc.allocations,
            rc.arena_bytes,
            rc.steal_count,
            rc.wide_ops,
            rc.coscheduled_ops,
            rc.parks,
            rc.inline_ops
        );
    }
}

/// Runs seeded fault-injection probes across the three recovery layers —
/// executor rollback, checkpoint integrity, serve supervision — and
/// fails (nonzero exit) if any layer does not recover.
/// Builds a [`Trainer`] for one workload: training mode, guardrail
/// armed, optional snapshot cadence and fault plan.
fn build_trainer(
    model: ModelKind,
    seed: u64,
    threads: usize,
    guard: GuardrailPolicy,
    snapshots: Option<(SnapshotPolicy, &str)>,
    faults: Option<Arc<FaultPlan>>,
) -> Result<Trainer, FathomError> {
    let cfg = BuildConfig::training().with_device(Device::cpu(threads)).with_seed(seed);
    let mut trainer = Trainer::new(model.build(&cfg))?.with_guardrail(guard);
    if let Some((policy, dir)) = snapshots {
        trainer = trainer.with_snapshots(policy, dir);
    }
    if let Some(plan) = faults {
        trainer = trainer.with_faults(plan);
    }
    Ok(trainer)
}

fn cmd_train(a: TrainArgs) -> Result<(), FathomError> {
    let guard = GuardrailPolicy {
        max_abs_loss: a.max_abs_loss,
        max_grad_norm: a.max_grad_norm,
        retry: a.retry,
        max_retries: a.max_retries,
    };
    let faults = match &a.fault_plan {
        Some(spec) => Some(Arc::new(
            FaultPlan::parse(spec, a.seed).map_err(FathomError::Message)?,
        )),
        None => None,
    };
    let snapshots = a
        .dir
        .as_deref()
        .map(|dir| (SnapshotPolicy { every: a.snap_every, keep: a.snap_keep }, dir));
    let mut trainer = build_trainer(a.model, a.seed, a.threads, guard, snapshots, faults)?;
    println!(
        "{} | resilient training | target {} step(s) | seed {:#x} | retry {} (max {})",
        a.model.name(),
        a.steps,
        a.seed,
        a.retry,
        a.max_retries
    );
    if a.resume {
        let dir = a.dir.as_deref().expect("parser enforces --dir with --resume");
        let at = trainer.resume(dir)?;
        println!("resumed from step {at} in {dir}");
    }
    let outcome = trainer.run(a.steps)?;
    let report = trainer.report();
    match outcome {
        TrainOutcome::Completed => println!("completed: {} step(s) done", report.steps),
        TrainOutcome::Killed { at_step } => println!(
            "killed by injected fault after {at_step} step(s); continue with --resume"
        ),
    }
    if let Some(loss) = report.final_loss {
        println!("final loss {loss:.6}");
    }
    for t in &report.trips {
        println!(
            "guardrail trip at step {} (attempt {}, action {}): {}",
            t.step, t.attempt, t.action, t.reason
        );
    }
    if report.snapshots_written > 0 {
        println!(
            "snapshots: {} written, {:.2} ms total overhead",
            report.snapshots_written,
            report.snapshot_nanos as f64 / 1e6
        );
    }
    print_runtime(&report.runtime);
    if let Some(path) = &a.out {
        std::fs::write(path, report.to_json(&outcome))?;
        println!("wrote run report to {path}");
    }
    Ok(())
}

/// The crash-soak gate. For each workload, three legs share one seed:
///
/// 1. **Clean** — train `steps` steps, record the final loss bits.
/// 2. **Fault** — fresh model, snapshot cadence on, with an injected
///    NaN loss (guardrail must trip and replay), a corrupted snapshot
///    write (resume must fall back past it), and a mid-run kill.
/// 3. **Resume** — fresh model restored from the newest loadable
///    snapshot, trained to the same target.
///
/// The resumed run must land on *bitwise* the same final loss as the
/// clean run — that is the whole resilience contract in one assert.
fn cmd_train_soak(quick: bool, seed: u64, steps: u64) -> Result<(), FathomError> {
    let workloads: &[ModelKind] = if quick { &[ModelKind::Autoenc] } else { &ModelKind::ALL };
    println!(
        "train-soak | {} workload(s) | {steps} step(s)/leg | seed {seed:#x}",
        workloads.len()
    );
    let mut failures = 0u32;
    let probe = |name: &str, ok: bool, failures: &mut u32| {
        if ok {
            println!("PASS  {name}");
        } else {
            println!("FAIL  {name}");
            *failures += 1;
        }
    };
    let guard = GuardrailPolicy { retry: RetryPolicy::Replay, ..GuardrailPolicy::default() };
    for &kind in workloads {
        let name = kind.name();
        let dir = std::env::temp_dir()
            .join(format!("fathom-soak-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_str = dir.to_string_lossy().into_owned();

        // Leg 1: clean reference run.
        let mut clean = build_trainer(kind, seed, 1, guard, None, None)?;
        let clean_outcome = clean.run(steps)?;
        let clean_loss = clean.report().final_loss.map(f32::to_bits);
        probe(
            &format!("{name}: clean leg completed"),
            clean_outcome == TrainOutcome::Completed && clean_loss.is_some(),
            &mut failures,
        );

        // Leg 2: same seed under fire. The NaN at hit 2 costs one extra
        // step attempt (the replay), so the crash at hit `steps - 1`
        // kills the loop after `steps - 2` committed steps — late enough
        // that snapshots exist, early enough that resume has work left.
        let plan = FaultPlan::new(seed)
            .with(FaultSite::TrainStep, 2, FaultAction::PoisonNan)
            .with(FaultSite::TrainStep, steps - 1, FaultAction::Crash)
            .with(FaultSite::CheckpointWrite, 1, FaultAction::BitFlips { flips: 16 });
        let snaps = SnapshotPolicy { every: 3, keep: 3 };
        let mut faulty =
            build_trainer(kind, seed, 1, guard, Some((snaps, &dir_str)), Some(Arc::new(plan)))?;
        let fault_outcome = faulty.run(steps)?;
        let killed_at = match fault_outcome {
            TrainOutcome::Killed { at_step } => Some(at_step),
            TrainOutcome::Completed => None,
        };
        probe(
            &format!("{name}: fault leg killed mid-run with snapshots on disk"),
            killed_at.is_some_and(|at| at > 0 && at < steps)
                && faulty.report().snapshots_written > 0,
            &mut failures,
        );
        probe(
            &format!("{name}: injected NaN tripped the guardrail and was retried"),
            !faulty.report().trips.is_empty(),
            &mut failures,
        );

        // Leg 3: resume from disk (past the bitflipped generation) and
        // finish. Bitwise-equal final loss is the resilience contract.
        let mut resumed = build_trainer(kind, seed, 1, guard, Some((snaps, &dir_str)), None)?;
        let resumed_at = resumed.resume(&dir_str)?;
        probe(
            &format!("{name}: resumed from a snapshot strictly before the kill"),
            killed_at.is_some_and(|at| resumed_at <= at) && resumed_at > 0,
            &mut failures,
        );
        let resumed_outcome = resumed.run(steps)?;
        let resumed_loss = resumed.report().final_loss.map(f32::to_bits);
        probe(
            &format!("{name}: resumed final loss is bitwise identical to the clean run"),
            resumed_outcome == TrainOutcome::Completed
                && resumed_loss.is_some()
                && resumed_loss == clean_loss,
            &mut failures,
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    if failures > 0 {
        return Err(FathomError::Message(format!("train-soak: {failures} probe(s) failed")));
    }
    println!("train-soak: all probes passed");
    Ok(())
}

fn cmd_chaos(model: ModelKind, seed: u64) -> Result<(), FathomError> {
    println!("{} | chaos probes | seed {seed}", model.name());
    let mut failures = 0u32;
    let probe = |name: &str, ok: bool, failures: &mut u32| {
        if ok {
            println!("PASS  {name}");
        } else {
            println!("FAIL  {name}");
            *failures += 1;
        }
    };

    // Probe 1: an injected op panic mid-step must roll the session back
    // to its pre-step state and leave it usable.
    {
        let mut m = model.build(&BuildConfig::training().with_seed(seed));
        let mut before = Vec::new();
        checkpoint::save(m.session(), &mut before)?;
        // Hit 2 fires before any optimizer Apply* op can commit, so the
        // rolled-back state must be byte-identical to `before`.
        m.session_mut().set_fault_plan(Some(Arc::new(
            FaultPlan::new(seed).with(FaultSite::ExecOp, 2, FaultAction::Panic),
        )));
        // The injected panic is expected; keep its backtrace off stderr.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = m.step();
        }))
        .is_err();
        std::panic::set_hook(hook);
        m.session_mut().set_fault_plan(None);
        let mut after = Vec::new();
        checkpoint::save(m.session(), &mut after)?;
        let rolled_back = before == after;
        let reusable = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = m.step();
        }))
        .is_ok();
        probe(
            "exec: injected op panic rolled back, session reusable",
            panicked && rolled_back && reusable,
            &mut failures,
        );

        // Probe 2: seeded corruption of checkpoint bytes must surface as
        // a typed error, and the crash-consistent save must verify.
        let mut clean = Vec::new();
        checkpoint::save(m.session(), &mut clean)?;
        let plan = FaultPlan::new(seed);
        let mut flipped = clean.clone();
        plan.corrupt(&mut flipped, &FaultAction::BitFlips { flips: 4 });
        let flip_detected = checkpoint::verify(flipped.as_slice()).is_err();
        let mut torn = clean.clone();
        plan.corrupt(&mut torn, &FaultAction::Truncate { keep: clean.len() / 2 });
        let torn_detected = checkpoint::verify(torn.as_slice()).is_err();
        let dir = std::env::temp_dir().join(format!("fathom-chaos-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.ckpt", model.name()));
        checkpoint::save_to_path(m.session(), &path)?;
        let resumable = checkpoint::load_from_path(m.session_mut(), &path).is_ok();
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
        probe(
            "checkpoint: bit flips and truncation detected, atomic save resumes",
            flip_detected && torn_detected && resumable,
            &mut failures,
        );
    }

    // Probe 3: a replica crash mid-run must retry the batch on the
    // healthy replica — recovery counters nonzero, no request lost.
    {
        let cfg = BuildConfig::inference().with_seed(seed).with_batch(2);
        let plan = Arc::new(
            FaultPlan::new(seed).with(FaultSite::ServeBatch { replica: 0 }, 0, FaultAction::Crash),
        );
        let mut workers = Vec::with_capacity(2);
        for i in 0..2 {
            workers.push(FaultyRunner::new(SessionWorker::new(model, &cfg)?, plan.clone(), i));
        }
        let shapes = workers[0].inner().item_shapes();
        let domains = workers[0].inner().domains();
        let serve_cfg = ServeConfig { seed, ..ServeConfig::new(2) };
        let load = LoadModel::Closed { clients: 2, requests: 8 };
        let mut runners: Vec<&mut dyn BatchRunner> =
            workers.iter_mut().map(|w| w as &mut dyn BatchRunner).collect();
        let report = serve(
            &mut runners,
            &serve_cfg,
            &load,
            &mut |rng, _id| synth_inputs(&shapes, &domains, rng),
            model.name(),
        )?;
        println!(
            "  serve: issued {}  completed {}  shed {}  timed-out {}",
            report.issued, report.completed, report.shed, report.timed_out
        );
        print_recovery(&report.recovery);
        let conserved = report.issued == report.completed + report.shed + report.timed_out;
        let recovered = report.recovery.crashes >= 1
            && report.recovery.retried >= 1
            && report.completed == report.issued;
        probe(
            "serve: replica crash retried on healthy replica, zero requests lost",
            conserved && recovered,
            &mut failures,
        );
    }

    if failures == 0 {
        println!("chaos: all probes recovered");
        Ok(())
    } else {
        Err(FathomError::Message(format!("chaos: {failures} probe(s) failed")))
    }
}

fn cmd_dot(a: RunArgs) -> Result<(), FathomError> {
    let out = a.out.clone().expect("parser enforces --out");
    let model = build(&a);
    let dot = export::to_dot(model.session().graph());
    std::fs::write(&out, &dot)?;
    println!(
        "wrote {}-node graph to {out} (render with: dot -Tsvg {out} -o graph.svg)",
        model.session().graph().len()
    );
    let _ = Mode::Inference; // silence unused import warnings in some cfgs
    Ok(())
}
