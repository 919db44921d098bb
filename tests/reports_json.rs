//! Integration: every JSON report the suite emits must be well-formed
//! JSON — even when the run it describes produced NaN or infinite
//! floats, or was given a name with a quote in it. All of them are
//! rendered by `fathom_dataflow::json`, which has no reader, so the check
//! here is a minimal recursive-descent validator of the RFC 8259
//! grammar: emit, validate, and reject bare `NaN`/`inf`/`Infinity` tokens
//! (which the writer degrades to `null`), raw control characters inside
//! strings and escapes JSON does not define.

use fathom_bench::experiments::{fusion, gemm, precision, recovery, runtime, serve as serve_sweep};
use fathom_bench::measure::Spread;
use fathom_bench::Effort;
use fathom_suite::fathom::train::{RetryPolicy, TrainOutcome, TrainReport, TripEvent};
use fathom_suite::fathom_dataflow::cost::OpCost;
use fathom_suite::fathom_dataflow::trace::{RunTrace, TraceEvent};
use fathom_suite::fathom_dataflow::{export, Json, NodeId, OpClass, RuntimeCounters};
use fathom_suite::fathom_serve::{
    serve, serve_cluster, BatchResult, BatchRunner, ClusterConfig, ClusterRunner, LoadModel,
    ModelSpec, Request, ServeConfig, ServeError,
};
use fathom_suite::fathom_tensor::{Rng, Tensor};
use proptest::prelude::*;

/// A minimal JSON validator: returns `Err` with a position on the first
/// syntax violation. Accepts exactly the grammar of RFC 8259, which bare
/// `NaN` and `inf` tokens, a raw newline inside a string and a `\c`
/// escape all fail.
fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    parse_value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing bytes at {i}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn parse_value(b: &[u8], i: &mut usize) -> Result<(), String> {
    skip_ws(b, i);
    match b.get(*i) {
        Some(b'{') => parse_object(b, i),
        Some(b'[') => parse_array(b, i),
        Some(b'"') => parse_string(b, i),
        Some(b't') => parse_lit(b, i, "true"),
        Some(b'f') => parse_lit(b, i, "false"),
        Some(b'n') => parse_lit(b, i, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, i),
        other => Err(format!("unexpected {other:?} at {i}")),
    }
}

fn parse_lit(b: &[u8], i: &mut usize, lit: &str) -> Result<(), String> {
    if b[*i..].starts_with(lit.as_bytes()) {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at {i} (wanted {lit})"))
    }
}

/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, and finite.
fn parse_number(b: &[u8], i: &mut usize) -> Result<(), String> {
    let start = *i;
    let digits = |i: &mut usize| {
        let from = *i;
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
        *i - from
    };
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    let int_digits = digits(i);
    let mut ok = int_digits == 1 || (int_digits > 1 && b[*i - int_digits] != b'0');
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        ok &= digits(i) > 0;
    }
    if matches!(b.get(*i), Some(b'e' | b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+' | b'-')) {
            *i += 1;
        }
        ok &= digits(i) > 0;
    }
    let span = std::str::from_utf8(&b[start..*i]).map_err(|e| e.to_string())?;
    match span.parse::<f64>() {
        Ok(v) if ok && v.is_finite() => Ok(()),
        _ => Err(format!("bad number '{span}' at {start}")),
    }
}

fn parse_string(b: &[u8], i: &mut usize) -> Result<(), String> {
    *i += 1; // opening quote
    while let Some(&c) = b.get(*i) {
        *i += 1;
        match c {
            b'"' => return Ok(()),
            0x00..=0x1f => return Err(format!("raw control character {c:#04x} at {}", *i - 1)),
            b'\\' => match b.get(*i) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 1,
                Some(b'u') if b.len() > *i + 4 && b[*i + 1..*i + 5].iter().all(u8::is_ascii_hexdigit) => {
                    *i += 5
                }
                other => return Err(format!("bad escape {other:?} at {i}")),
            },
            _ => {}
        }
    }
    Err("unterminated string".into())
}

fn parse_object(b: &[u8], i: &mut usize) -> Result<(), String> {
    *i += 1; // '{'
    skip_ws(b, i);
    if b.get(*i) == Some(&b'}') {
        *i += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, i);
        if b.get(*i) != Some(&b'"') {
            return Err(format!("object key must be a string at {i}"));
        }
        parse_string(b, i)?;
        skip_ws(b, i);
        if b.get(*i) != Some(&b':') {
            return Err(format!("missing ':' at {i}"));
        }
        *i += 1;
        parse_value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b'}') => {
                *i += 1;
                return Ok(());
            }
            other => return Err(format!("unexpected {other:?} in object at {i}")),
        }
    }
}

fn parse_array(b: &[u8], i: &mut usize) -> Result<(), String> {
    *i += 1; // '['
    skip_ws(b, i);
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Ok(());
    }
    loop {
        parse_value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b']') => {
                *i += 1;
                return Ok(());
            }
            other => return Err(format!("unexpected {other:?} in array at {i}")),
        }
    }
}

fn assert_round_trips(name: &str, json: &str) {
    validate_json(json).unwrap_or_else(|e| panic!("{name} emits malformed JSON ({e}):\n{json}"));
    for token in ["NaN", "Infinity", "inf,", "inf}", "inf\n"] {
        assert!(!json.contains(token), "{name} leaked a bare {token:?} token:\n{json}");
    }
}

#[test]
fn the_validator_itself_rejects_bare_float_tokens() {
    assert!(validate_json("{\"x\": 1.5, \"y\": [null, -2e3]}").is_ok());
    assert!(validate_json("{\"x\": NaN}").is_err());
    assert!(validate_json("{\"x\": inf}").is_err());
    assert!(validate_json("{\"x\": 1,}").is_err());
    assert!(validate_json("{\"x\" 1}").is_err());
}

#[test]
fn the_validator_itself_holds_strings_and_numbers_to_the_grammar() {
    for good in ["\"a\\\"b\\\\c\\n\\u00e9\\/\"", "\"\u{7f} \u{1f980}\"", "0", "-0.5e+3", "10", "[1E2]"] {
        assert!(validate_json(good).is_ok(), "{good}");
    }
    for bad in ["\"a\nb\"", "\"a\tb\"", "\"\u{1}\"", "\"\\c\"", "\"\\u12g4\"", "\"\\u12\"", "\"\\", "\"open"] {
        assert!(validate_json(bad).is_err(), "{bad:?}");
    }
    for bad in ["01", "1.", "-", "1e", ".5", "+1", "1e999", "--1"] {
        assert!(validate_json(bad).is_err(), "{bad}");
    }
}

/// A 1 ms replica of capacity 4 that reports `class_nanos` as each
/// batch's op time by class.
struct FixedRunner {
    class_nanos: [f64; 7],
}

impl BatchRunner for FixedRunner {
    fn capacity(&self) -> usize {
        4
    }

    fn run_batch(&mut self, reqs: &[&Request]) -> Result<BatchResult, ServeError> {
        Ok(BatchResult {
            outputs: reqs.iter().map(|_| Tensor::zeros([1])).collect(),
            service_nanos: 1_000_000.0,
            class_nanos: self.class_nanos,
        })
    }
}

impl ClusterRunner for FixedRunner {
    fn reload(&mut self, _checkpoint: &[u8]) -> Result<(), ServeError> {
        Ok(())
    }
}

#[test]
fn serve_report_json_round_trips_clean_and_poisoned() {
    let run = |class_nanos: [f64; 7]| {
        let mut runner = FixedRunner { class_nanos };
        let cfg = ServeConfig { queue_cap: 2, ..ServeConfig::new(4) };
        let load = LoadModel::Closed { clients: 5, requests: 10 };
        serve(&mut [&mut runner], &cfg, &load, &mut |_rng, _id| Vec::new(), "speech")
            .expect("serves")
    };
    let r = run([1.0; 7]);
    assert!(r.completed > 0 && r.shed > 0, "the fixture both serves and sheds");
    assert_round_trips("ServeReport (clean)", &r.to_json());

    // Poison it the way a broken clock or divided-by-zero trace would:
    // a class-time sum through the loop, latencies directly.
    let mut poisoned = [0.0; 7];
    poisoned[2] = f64::NAN;
    let mut r = run(poisoned);
    r.latency.record(f64::NAN);
    r.latency.record(f64::INFINITY);
    let json = r.to_json();
    assert!(json.contains("\"C\": null"), "a poisoned class sum degrades to null:\n{json}");
    assert_round_trips("ServeReport (poisoned)", &json);
}

/// A name that breaks a writer which interpolates it raw: a quote, a
/// backslash and two control characters.
const HOSTILE_NAME: &str = "a\"b\\c\n\u{1}";
const HOSTILE_NAME_JSON: &str = "\"a\\\"b\\\\c\\n\\u0001\"";

#[test]
fn a_hostile_workload_name_is_escaped_in_the_serve_report() {
    let mut runner = FixedRunner { class_nanos: [0.0; 7] };
    let load = LoadModel::Closed { clients: 2, requests: 4 };
    let json = serve(&mut [&mut runner], &ServeConfig::new(4), &load, &mut |_rng, _id| Vec::new(), HOSTILE_NAME)
        .expect("serves")
        .to_json();
    assert!(json.contains(&format!("\"workload\": {HOSTILE_NAME_JSON}")), "{json}");
    assert_round_trips("ServeReport (hostile name)", &json);
}

#[test]
fn a_hostile_model_name_is_escaped_in_the_cluster_report() {
    let mut w = FixedRunner { class_nanos: [0.0; 7] };
    let mut models = vec![ModelSpec {
        name: HOSTILE_NAME.into(),
        shards: vec![vec![&mut w]],
        rps: 200.0,
        synth: Box::new(|_rng: &mut Rng, _id| Vec::new()),
    }];
    let cfg = ClusterConfig { duration_nanos: 50_000_000, ..ClusterConfig::new(4) };
    let json = serve_cluster(&mut models, &cfg).expect("serves").to_json();
    assert!(json.contains(&format!("\"model\": {HOSTILE_NAME_JSON}")), "{json}");
    assert_round_trips("ClusterReport (hostile name)", &json);
}

#[test]
fn cluster_report_json_round_trips_clean_and_poisoned() {
    let mut w0 = FixedRunner { class_nanos: [0.0; 7] };
    let mut w1 = FixedRunner { class_nanos: [0.0; 7] };
    let mut models = vec![ModelSpec {
        name: "fixed".into(),
        shards: vec![vec![&mut w0], vec![&mut w1]],
        rps: 400.0,
        synth: Box::new(|_rng: &mut Rng, _id| Vec::new()),
    }];
    let cfg = ClusterConfig { duration_nanos: 100_000_000, ..ClusterConfig::new(4) };
    let mut report = serve_cluster(&mut models, &cfg).expect("serves");
    assert_round_trips("ClusterReport (clean)", &report.to_json());

    // Latency histograms are the only cluster floats fed by
    // measurement; poison them at both aggregation levels.
    report.per_class[0].latency.record(f64::NAN);
    report.per_class[2].latency.record(f64::INFINITY);
    for m in &mut report.models {
        m.per_class[1].latency.record(f64::NEG_INFINITY);
    }
    assert_round_trips("ClusterReport (poisoned)", &report.to_json());
}

#[test]
fn train_report_json_round_trips_clean_and_poisoned() {
    let clean = TrainReport {
        workload: "autoenc",
        steps: 4,
        final_loss: Some(0.25),
        final_grad_norm: Some(1.5),
        ..TrainReport::default()
    };
    assert_round_trips("TrainReport (clean)", &clean.to_json(&TrainOutcome::Completed));

    let poisoned = TrainReport {
        workload: "autoenc",
        steps: 4,
        final_loss: Some(f32::NAN),
        final_grad_norm: Some(f32::NEG_INFINITY),
        ..TrainReport::default()
    };
    assert_round_trips(
        "TrainReport (poisoned)",
        &poisoned.to_json(&TrainOutcome::Killed { at_step: 3 }),
    );

    // A trip reason is free text; `{:?}` would have written `\u{1}`.
    let tripped = TrainReport {
        workload: "autoenc",
        trips: vec![TripEvent {
            step: 1,
            reason: HOSTILE_NAME.into(),
            attempt: 1,
            action: RetryPolicy::SkipBatch,
        }],
        ..TrainReport::default()
    };
    let json = tripped.to_json(&TrainOutcome::Completed);
    assert!(json.contains(&format!("\"reason\": {HOSTILE_NAME_JSON}")), "{json}");
    assert_round_trips("TrainReport (hostile reason)", &json);
}

#[test]
fn runtime_counters_json_round_trips() {
    let quiet = RuntimeCounters { allocations: 2, arena_bytes: 4096, ..RuntimeCounters::default() };
    assert_round_trips("RuntimeCounters (no parks)", &quiet.to_json());
    assert_round_trips("RuntimeCounters (parks)", &RuntimeCounters { parks: 3, inline_ops: 9, ..quiet }.to_json());
}

#[test]
fn chrome_trace_round_trips_clean_and_poisoned() {
    let event = |op, nanos, flops| TraceEvent {
        node: NodeId::default(),
        op,
        class: OpClass::MatrixOps,
        step: 0,
        nanos,
        cost: OpCost { flops, bytes: 0.0 },
    };
    let trace = |events| RunTrace { events, ..RunTrace::new() };
    assert_round_trips("chrome trace (empty)", &export::to_chrome_trace(&RunTrace::new()));
    assert_round_trips("chrome trace (clean)", &export::to_chrome_trace(&trace(vec![event("MatMul", 1500.0, 64.0)])));
    // A name with control characters, a NaN duration (which also poisons
    // the lane's cursor for the event after it) and an infinite flop count.
    let poisoned = trace(vec![
        event("in\nput\t\"x\"", f64::NAN, f64::INFINITY),
        event("MatMul", 10.0, 1.0),
    ]);
    let json = export::to_chrome_trace(&poisoned);
    assert!(json.contains("\"name\":\"in\\nput\\t\\\"x\\\"\"") && json.contains("\"dur\":null"), "{json}");
    assert_round_trips("chrome trace (poisoned)", &json);
}

/// Walks `doc` along a dotted path of member names and array indices.
fn at<'a>(doc: &'a Json, path: &str) -> &'a Json {
    path.split('.').fold(doc, |node, step| match node {
        Json::Obj(members) => members
            .iter()
            .find_map(|(key, value)| (key == step).then_some(value))
            .unwrap_or_else(|| panic!("no member '{step}' on path {path}")),
        Json::Arr(items) => &items[step.parse::<usize>().expect("an array index")],
        scalar => panic!("path {path} walks into the scalar {scalar:?} at '{step}'"),
    })
}

/// Values a document must carry, by dotted path.
type Expected = Vec<(&'static str, Json)>;

/// One document per `BENCH_*.json` ablation, built from a fixture row
/// (nothing is timed), with the values it must carry by path.
fn bench_documents() -> Vec<(&'static str, Json, Expected)> {
    let effort = Effort { warmup: 1, steps: 4, repeats: 5 };
    let ms = |median, iqr| Spread { median, iqr };
    let fixed = Json::fixed;
    let int = |v: u64| Json::from(v);

    let sweep = runtime::RuntimeSweep {
        workload: "memnet",
        serial_millis: ms(7.5, 0.5),
        pool_millis: ms(5.0, 0.25),
        pool: runtime::PoolPoint {
            millis: 5.0,
            steady_zero_alloc: true,
            arena_bytes: 1024,
            steal_count: 7,
            wide_ops: 3,
            coscheduled_ops: 9,
        },
    };
    let fusion_row = fusion::FusionRow {
        workload: "memnet",
        fused_groups: 2,
        gemm_groups: 3,
        nodes_unfused: 100,
        nodes_elementwise: 95,
        nodes_fused: 90,
        ms_unfused: ms(10.0, 0.4),
        ms_elementwise: ms(9.0, 0.3),
        ms_fused: ms(8.0, 0.2),
        class_c: (0.30, 0.25),
        class_g: (0.20, 0.21),
    };
    let precision_row = precision::PrecisionRow {
        workload: "memnet",
        gemm: [64, 128, 256],
        gemm_ms_f32: ms(2.0, 0.1),
        gemm_ms_bf16: ms(1.0, 0.05),
        step_ms_f32: ms(10.0, 1.0),
        step_ms_bf16: ms(8.0, 0.5),
        bf16_dev: 0.001,
        int8_dev: f64::INFINITY,
        int8_gemms: 0,
    };
    let recovery_row = recovery::RecoveryRow {
        workload: "autoenc",
        steps: 4,
        cadence: 1,
        step_ms: ms(1.0, 0.1),
        guarded_step_ms: ms(1.1, 0.1),
        guard_overhead_pct: ms(10.0, 12.5),
        snapshot_overhead_pct: ms(3.0, 0.5),
        snapshot_bytes: 2048,
        save_ms: ms(0.2, 0.01),
        load_ms: ms(0.4, 0.02),
    };
    let class_sweep = gemm::ClassSweep { workload: "memnet", times: [[ms(1.0, 0.5); 7]; gemm::THREADS.len()] };
    let point = gemm::GeometryPoint {
        m: 512,
        k: 512,
        n: 512,
        transpose_a: false,
        transpose_b: false,
        rows_ms: ms(4.0, 0.2),
        packed_ms: ms(2.0, 0.1),
    };
    let serve_point = serve_sweep::ServePoint {
        workload: "memnet",
        max_batch: 4,
        throughput_rps: ms(123.4, 5.0),
        p50_ms: ms(1.0, 0.1),
        p99_ms: ms(2.0, 0.3),
        mean_batch: ms(3.5, 0.0),
        completed: 32,
    };

    vec![
        (
            "ablation_runtime",
            runtime::document(&[sweep], 4, &effort),
            vec![
                ("workers", int(4)),
                ("workloads.0.name", "memnet".into()),
                ("workloads.0.serial_millis", fixed(7.5, 4)),
                ("workloads.0.serial_millis_iqr", fixed(0.5, 4)),
                ("workloads.0.pool.millis", fixed(5.0, 4)),
                ("workloads.0.pool.millis_iqr", fixed(0.25, 4)),
                ("workloads.0.pool.steady_zero_alloc", true.into()),
                ("workloads.0.pool.coscheduled_ops", int(9)),
                ("workloads.0.speedup_vs_serial", fixed(1.5, 3)),
                ("beats_serial", int(1)),
                ("zero_alloc_workloads", int(1)),
                ("total_workloads", int(1)),
            ],
        ),
        (
            "ablation_fusion",
            fusion::document(&[fusion_row], &effort),
            vec![
                ("geomean_speedup", fixed(1.25, 3)),
                ("geomean_epilogue_speedup", fixed(1.125, 3)),
                ("workloads.0.gemm_groups", int(3)),
                ("workloads.0.nodes_per_step.elementwise", int(95)),
                ("workloads.0.node_reduction", fixed(0.1, 4)),
                ("workloads.0.step_ms.unfused", fixed(10.0, 4)),
                ("workloads.0.step_ms.elementwise", fixed(9.0, 4)),
                ("workloads.0.step_ms.fused", fixed(8.0, 4)),
                ("workloads.0.step_ms_iqr.fused", fixed(0.2, 4)),
                ("workloads.0.speedup", fixed(1.25, 3)),
                ("workloads.0.epilogue_speedup", fixed(1.125, 3)),
                ("workloads.0.class_c_share.unfused", fixed(0.3, 4)),
                ("workloads.0.class_c_share.fused", fixed(0.25, 4)),
            ],
        ),
        (
            "ablation_precision",
            precision::document(&[precision_row], &effort),
            vec![
                ("tolerance", 0.05.into()),
                ("bf16_gemm_speedups_over_1_2x", int(1)),
                ("workloads_within_tolerance", int(0)),
                ("workloads.0.gemm", Json::arr([64u64, 128, 256])),
                ("workloads.0.gemm_ms.bf16", fixed(1.0, 4)),
                ("workloads.0.gemm_ms_iqr.bf16", fixed(0.05, 4)),
                ("workloads.0.gemm_speedup", fixed(2.0, 3)),
                ("workloads.0.step_speedup", fixed(1.25, 3)),
                ("workloads.0.bf16_metric_dev", fixed(0.001, 5)),
                ("workloads.0.int8_metric_dev", Json::Null),
                ("workloads.0.within_tolerance", false.into()),
            ],
        ),
        (
            "ablation_recovery",
            recovery::document(&[recovery_row], &effort),
            vec![
                ("workloads.0.name", "autoenc".into()),
                ("workloads.0.step_ms", fixed(1.0, 4)),
                ("workloads.0.guarded_step_ms", fixed(1.1, 4)),
                ("workloads.0.guard_overhead_pct", fixed(10.0, 2)),
                ("workloads.0.guard_overhead_pct_iqr", fixed(12.5, 2)),
                ("workloads.0.snapshot_overhead_pct", fixed(3.0, 2)),
                ("workloads.0.snapshot_bytes", int(2048)),
                ("workloads.0.load_ms_iqr", fixed(0.02, 4)),
            ],
        ),
        (
            "gemm_scaling",
            gemm::document(&[class_sweep], &[point], &effort),
            vec![
                ("workers", int(8)),
                ("threads", Json::arr(gemm::THREADS)),
                ("workloads.0.name", "memnet".into()),
                ("workloads.0.classes.0.class", "A".into()),
                ("workloads.0.classes.6.nanos_per_step", Json::arr([fixed(1.0, 1), fixed(1.0, 1), fixed(1.0, 1), fixed(1.0, 1)])),
                ("workloads.0.classes.6.nanos_per_step_iqr.3", fixed(0.5, 1)),
                ("geometries.0.shape", "512x512x512 nn".into()),
                ("geometries.0.packed_ms_iqr", fixed(0.1, 4)),
                ("geometries.0.speedup", fixed(2.0, 3)),
            ],
        ),
        (
            "serve_latency",
            serve_sweep::document(&[serve_point], Some(Json::obj().with("shards", 2u64)), &effort),
            vec![
                ("batch_sizes", Json::arr(serve_sweep::BATCH_SIZES)),
                ("points.0.workload", "memnet".into()),
                ("points.0.throughput_rps", fixed(123.4, 3)),
                ("points.0.throughput_rps_iqr", fixed(5.0, 3)),
                ("points.0.p99_ms", fixed(2.0, 3)),
                ("points.0.mean_batch", fixed(3.5, 2)),
                ("points.0.completed", int(32)),
                ("cluster.shards", int(2)),
            ],
        ),
    ]
}

#[test]
fn bench_documents_share_the_envelope_and_carry_their_values() {
    for (experiment, doc, values) in bench_documents() {
        // The envelope every ablation starts with, in this order.
        let Json::Obj(members) = &doc else { panic!("{experiment}: not an object") };
        let keys: Vec<&str> = members.iter().take(4).map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["experiment", "host_cores", "workers", "effort"], "{experiment}");
        assert_eq!(at(&doc, "experiment"), &Json::from(experiment));
        assert!(matches!(at(&doc, "host_cores"), Json::Int(n) if *n >= 1), "{experiment}");
        let effort = Json::obj().with("warmup", 1u64).with("steps", 4u64).with("repeats", 5u64);
        assert_eq!(at(&doc, "effort"), &effort, "{experiment}");
        for (path, want) in values {
            assert_eq!(at(&doc, path), &want, "{experiment}: {path}");
        }
        assert_round_trips(experiment, &doc.render());
    }
    // Without a cluster scenario the serve document has no such member.
    let Json::Obj(members) = serve_sweep::document(&[], None, &Effort::quick()) else { unreachable!() };
    assert!(members.iter().all(|(key, _)| key != "cluster"));
}

/// A random tree: depth at most 4, strings and keys from a set with
/// quotes, backslashes and control characters, floats that include the
/// non-finite ones.
fn random_tree(rng: &mut TestRng, depth: u32) -> Json {
    const STRINGS: [&str; 8] =
        ["", "plain", "a\"b", "back\\slash", "line\nfeed\ttab", "\u{0}\u{1f}\u{7f}", "é🦀", "\\u0041\"\\"];
    const FLOATS: [f64; 8] = [0.0, -0.0, 1.5, -2.5e-7, 1e21, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let float = FLOATS[rng.below(8) as usize];
    let width = rng.below(4);
    match rng.below(if depth < 4 { 9 } else { 7 }) {
        0 => Json::Null,
        1 => Json::Bool(width.is_multiple_of(2)),
        2 => Json::from(rng.next_u64()),
        3 => Json::from(float),
        4 => Json::from(float as f32),
        5 => Json::fixed(float, rng.below(6) as usize),
        6 => Json::from(STRINGS[rng.below(8) as usize]),
        7 => Json::arr((0..width).map(|_| random_tree(rng, depth + 1))),
        _ => (0..width).fold(Json::obj(), |o, k| {
            o.with(STRINGS[rng.below(8) as usize], random_tree(rng, depth + 1))
                .with_nondefault("maybe", k % 2)
        }),
    }
}

proptest! {
    #[test]
    fn any_tree_renders_to_valid_json_in_every_mode(seed in 0u64..u64::MAX) {
        let tree = random_tree(&mut TestRng::for_test(&seed.to_string()), 0);
        for (mode, text) in [
            ("document", tree.render()),
            ("nested", tree.render_nested()),
            ("compact", tree.render_compact()),
        ] {
            prop_assert!(validate_json(&text).is_ok(), "{mode}: {:?}\n{text}", validate_json(&text));
        }
        // The modes differ in whitespace outside strings only: no string
        // in the set holds a space, and control characters are escaped.
        let strip = |text: String| text.split_whitespace().collect::<String>();
        prop_assert_eq!(strip(tree.render()), tree.render_compact());
    }
}
