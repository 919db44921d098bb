//! Integration: every hand-rolled JSON report the suite emits must be
//! well-formed JSON — even when the run it describes produced NaN or
//! infinite floats. The vendored serde is marker-traits only, so the
//! round trip here is through a minimal recursive-descent JSON parser:
//! emit, parse, and reject bare `NaN`/`inf`/`Infinity` tokens (which
//! the writers degrade to `null`).

use fathom_suite::fathom::train::{TrainOutcome, TrainReport};
use fathom_suite::fathom_serve::{
    serve, serve_cluster, BatchResult, BatchRunner, ClusterConfig, ClusterRunner, LoadModel,
    ModelSpec, Request, ServeConfig, ServeError,
};
use fathom_suite::fathom_tensor::{Rng, Tensor};

/// A minimal JSON validator: returns `Err` with a position on the first
/// syntax violation. Accepts exactly the grammar of RFC 8259 (numbers
/// are delegated to `f64::parse` over the matched span), which bare
/// `NaN` and `inf` tokens fail.
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

fn parse_number(b: &[u8], i: &mut usize) -> Result<(), String> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    while *i < b.len() && (b[*i].is_ascii_digit() || matches!(b[*i], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *i += 1;
    }
    let span = std::str::from_utf8(&b[start..*i]).map_err(|e| e.to_string())?;
    let parsed: f64 = span.parse().map_err(|_| format!("bad number '{span}' at {start}"))?;
    if !parsed.is_finite() {
        return Err(format!("non-finite number '{span}' at {start}"));
    }
    Ok(())
}

fn parse_string(b: &[u8], i: &mut usize) -> Result<(), String> {
    *i += 1; // opening quote
    while *i < b.len() {
        match b[*i] {
            b'"' => {
                *i += 1;
                return Ok(());
            }
            b'\\' => *i += 2,
            _ => *i += 1,
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
}
