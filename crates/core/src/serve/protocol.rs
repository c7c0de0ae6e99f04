//! Wire protocol for the serving daemon: line-delimited JSON.
//!
//! Every request and every response is exactly one `\n`-terminated JSON
//! object, read and written with the workspace's one JSON codec
//! ([`crate::json`]). This module holds the typed request/response/error
//! vocabulary documented in `DESIGN.md` §13. A line the codec rejects —
//! malformed, nested deeper than [`crate::json::MAX_DEPTH`], or holding a
//! raw control character — is a `bad_json` error.

use vmprobe_platform::PlatformKind;
use vmprobe_power::{EnergyPerturbation, FaultPlan};
use vmprobe_workloads::InputScale;

use crate::json::JsonObj;
pub use crate::json::JsonValue;
use crate::{
    DiffOptions, ExperimentConfig, ExperimentError, ObserveReport, RegressionReport, RunSummary,
    VmChoice,
};

/// Maximum request line length in bytes (longer lines are `bad_request`).
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// The daemon's error taxonomy. Every refused or failed request renders to
/// one error line carrying the stable `code` string below — clients branch
/// on the code, never on the human-readable message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line was not valid JSON.
    BadJson,
    /// The request was valid JSON but not a valid request (unknown op,
    /// missing or ill-typed field, oversized line, unknown benchmark…).
    BadRequest,
    /// The request exceeds the daemon's resource envelope (heap cap).
    LimitExceeded,
    /// The admission queue is full — retry later (HTTP 429 analogue).
    QueueFull,
    /// The tenant is under quarantine until its cooldown elapses.
    Quarantined,
    /// The experiment executed and failed with a typed VM fault.
    VmFault,
    /// The experiment completed but exceeded the envelope's virtual
    /// deadline (checked post-hoc on the simulated clock).
    Deadline,
    /// The experiment panicked; the panic was contained on the worker.
    Panic,
    /// The daemon is draining for shutdown and admits nothing new.
    Draining,
    /// The submitted or resolved program failed admission-time bytecode
    /// verification (or did not assemble). The request consumed no pool
    /// slot and does not count against the tenant's quarantine standing.
    VerifyRejected,
}

impl ErrorCode {
    /// The stable wire string for this code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadJson => "bad_json",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::LimitExceeded => "limit_exceeded",
            ErrorCode::QueueFull => "queue_full",
            ErrorCode::Quarantined => "quarantined",
            ErrorCode::VmFault => "vm_fault",
            ErrorCode::Deadline => "deadline",
            ErrorCode::Panic => "panic",
            ErrorCode::Draining => "draining",
            ErrorCode::VerifyRejected => "verify_rejected",
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Run one experiment cell.
    Run(RunRequest),
    /// Verify a tenant-submitted program without running anything.
    Verify(VerifyRequest),
    /// Diff one cell's per-component energy against the baseline cache.
    Diff(DiffRequest),
    /// Observer-effect sweep over one cell: transparent vs non-transparent
    /// across a probe-period grid.
    Observe(ObserveRequest),
    /// Report queue, tenant and quarantine state.
    Status,
    /// Return the Prometheus text dump.
    Metrics,
    /// Begin a graceful drain (same as SIGTERM).
    Shutdown,
}

/// One tenant-submitted experiment request.
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// Client-chosen request id, echoed on every line about this request.
    pub id: String,
    /// Tenant name — the quarantine and fair-scheduling identity.
    pub tenant: String,
    /// The experiment to run.
    pub config: ExperimentConfig,
    /// Optional per-request fault plan (`faults` spec string).
    pub plan: Option<FaultPlan>,
}

/// One tenant-submitted verification request: assembler text in, a
/// `verified` line or a `verify_rejected` error out. Nothing executes,
/// so the request never touches the pool, the queue or quarantine.
#[derive(Debug, Clone)]
pub struct VerifyRequest {
    /// Client-chosen request id, echoed on the response line.
    pub id: String,
    /// The program, in `vmprobe_bytecode::assemble` notation.
    pub program: String,
}

/// Cap on the `replicates` a diff request may ask for: the diff runs
/// inline on the connection's reader thread, so the ensemble must stay
/// small enough not to starve that tenant's own request stream.
pub const MAX_DIFF_REPLICATES: u64 = 16;
/// Cap on a diff request's bootstrap resamples (CPU-bound, reader thread).
pub const MAX_DIFF_RESAMPLES: u64 = 2000;

/// One tenant-submitted regression-gate request: the cell named by the
/// same fields as a [`RunRequest`], diffed against the daemon's shared
/// cache under this build's fingerprint, optionally with a candidate-side
/// perturbation. Executed inline like `verify` — no pool slot, no
/// quarantine accounting.
#[derive(Debug, Clone)]
pub struct DiffRequest {
    /// Client-chosen request id, echoed on the response line.
    pub id: String,
    /// Tenant name (admission envelope identity).
    pub tenant: String,
    /// The cell to diff.
    pub config: ExperimentConfig,
    /// Statistical knobs (bounded at parse time).
    pub options: DiffOptions,
    /// Candidate-side perturbation (identity when the request omits it).
    pub perturb: EnergyPerturbation,
}

/// Cap on the probe-period grid an `observe` request may name. The sweep
/// runs inline on the reader thread at two runs per period, so the grid
/// must stay small enough not to starve the tenant's own request stream
/// (tighter than the engine-level [`crate::MAX_OBSERVE_PERIODS`]).
pub const MAX_OBSERVE_REQUEST_PERIODS: usize = 4;

/// One tenant-submitted observer-effect request: the cell named by the
/// same fields as a [`RunRequest`] plus an optional `periods` grid spec.
/// Executed inline like `diff` — no pool slot, no quarantine accounting.
#[derive(Debug, Clone)]
pub struct ObserveRequest {
    /// Client-chosen request id, echoed on the response line.
    pub id: String,
    /// Tenant name (admission envelope identity).
    pub tenant: String,
    /// The cell to sweep.
    pub config: ExperimentConfig,
    /// Probe-period grid, ascending, in nanoseconds (bounded at parse
    /// time).
    pub periods: Vec<u64>,
}

/// Parse one request line. Errors carry the taxonomy code to respond with.
pub fn parse_request(line: &str) -> Result<Request, (ErrorCode, String)> {
    if line.len() > MAX_LINE_BYTES {
        return Err((
            ErrorCode::BadRequest,
            format!("request line exceeds {MAX_LINE_BYTES} bytes"),
        ));
    }
    let v = JsonValue::parse(line).map_err(|e| (ErrorCode::BadJson, e))?;
    let op = v
        .get("op")
        .and_then(JsonValue::as_str)
        .ok_or((ErrorCode::BadRequest, "missing string field 'op'".into()))?;
    match op {
        "status" => Ok(Request::Status),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        "run" => parse_run(&v).map(Request::Run),
        "verify" => parse_verify(&v).map(Request::Verify),
        "diff" => parse_diff(&v).map(Request::Diff),
        "observe" => parse_observe(&v).map(Request::Observe),
        other => Err((ErrorCode::BadRequest, format!("unknown op '{other}'"))),
    }
}

fn parse_verify(v: &JsonValue) -> Result<VerifyRequest, (ErrorCode, String)> {
    let bad = |msg: &str| (ErrorCode::BadRequest, msg.to_owned());
    let id = v
        .get("id")
        .and_then(JsonValue::as_str)
        .filter(|s| !s.is_empty())
        .ok_or_else(|| bad("verify request needs a non-empty string 'id'"))?
        .to_owned();
    let program = v
        .get("program")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| bad("verify request needs a string 'program'"))?
        .to_owned();
    Ok(VerifyRequest { id, program })
}

fn parse_run(v: &JsonValue) -> Result<RunRequest, (ErrorCode, String)> {
    let bad = |msg: String| (ErrorCode::BadRequest, msg);
    let str_field = |key: &str| -> Result<Option<&str>, (ErrorCode, String)> {
        match v.get(key) {
            None | Some(JsonValue::Null) => Ok(None),
            Some(JsonValue::Str(s)) => Ok(Some(s)),
            Some(_) => Err(bad(format!("field '{key}' must be a string"))),
        }
    };
    let id = str_field("id")?
        .ok_or_else(|| bad("run request needs a string 'id'".into()))?
        .to_owned();
    let tenant = str_field("tenant")?
        .ok_or_else(|| bad("run request needs a string 'tenant'".into()))?
        .to_owned();
    if tenant.is_empty() || id.is_empty() {
        return Err(bad("'id' and 'tenant' must be non-empty".into()));
    }
    let benchmark = str_field("benchmark")?
        .ok_or_else(|| bad("run request needs a string 'benchmark'".into()))?
        .to_owned();

    let collector = str_field("collector")?.unwrap_or("gencopy");
    let vm = VmChoice::from_collector_name(collector)
        .ok_or_else(|| bad(format!("unknown collector '{collector}'")))?;
    let heap_mb = match v.get("heap_mb") {
        None => 64,
        Some(n) => n
            .as_u64()
            .filter(|&h| h >= 1 && h <= u64::from(u32::MAX))
            .ok_or_else(|| bad("'heap_mb' must be a positive integer".into()))?
            as u32,
    };
    let platform = str_field("platform")?.unwrap_or("p6");
    let platform = PlatformKind::from_name(platform)
        .ok_or_else(|| bad(format!("unknown platform '{platform}'")))?;
    let scale = str_field("scale")?.unwrap_or("full");
    let scale =
        InputScale::from_name(scale).ok_or_else(|| bad(format!("unknown scale '{scale}'")))?;

    let mut plan = match str_field("faults")? {
        None => None,
        Some(spec) => {
            Some(FaultPlan::parse(spec).map_err(|e| bad(format!("bad 'faults' spec: {e}")))?)
        }
    };
    if let Some(seed) = v.get("seed") {
        let seed = seed
            .as_u64()
            .ok_or_else(|| bad("'seed' must be an unsigned integer".into()))?;
        plan = Some(plan.unwrap_or_else(FaultPlan::none).with_seed(seed));
    }

    Ok(RunRequest {
        id,
        tenant,
        config: ExperimentConfig {
            benchmark,
            vm,
            heap_mb,
            platform,
            scale,
            trace_power: false,
            record_spans: false,
            verify: true,
            probe: vmprobe_power::ProbeSpec::default(),
        },
        plan,
    })
}

fn parse_diff(v: &JsonValue) -> Result<DiffRequest, (ErrorCode, String)> {
    let bad = |msg: String| (ErrorCode::BadRequest, msg);
    if v.get("faults").is_some() {
        return Err(bad(
            "diff requests take no 'faults' (the seed ensemble injects its own noise)".into(),
        ));
    }
    // A diff names its cell with exactly the run-request vocabulary
    // (benchmark/collector/heap_mb/platform/scale), so the cell fields are
    // parsed by the same code path; 'seed' seeds the diff, not a fault plan.
    let run = parse_run(v)?;
    let mut options = DiffOptions {
        replicates: 4,
        resamples: 100,
        ..DiffOptions::default()
    };
    if let Some(plan) = run.plan {
        options.seed = plan.seed;
    }
    let bounded = |key: &str, lo: u64, hi: u64| -> Result<Option<u64>, (ErrorCode, String)> {
        match v.get(key) {
            None | Some(JsonValue::Null) => Ok(None),
            Some(n) => n
                .as_u64()
                .filter(|x| (lo..=hi).contains(x))
                .map(Some)
                .ok_or_else(|| bad(format!("'{key}' must be an integer in [{lo}, {hi}]"))),
        }
    };
    if let Some(r) = bounded("replicates", 1, MAX_DIFF_REPLICATES)? {
        options.replicates = r as usize;
    }
    if let Some(r) = bounded("resamples", 1, MAX_DIFF_RESAMPLES)? {
        options.resamples = r as u32;
    }
    match v.get("confidence") {
        None | Some(JsonValue::Null) => {}
        Some(c) => match c.as_f64() {
            Some(c) if c > 0.0 && c < 1.0 => options.confidence = c,
            _ => return Err(bad("'confidence' must be a number in (0, 1)".into())),
        },
    }
    let perturb = match v.get("perturb") {
        None | Some(JsonValue::Null) => EnergyPerturbation::none(),
        Some(JsonValue::Str(spec)) => {
            EnergyPerturbation::parse(spec).map_err(|e| bad(e.to_string()))?
        }
        Some(_) => return Err(bad("'perturb' must be a spec string".into())),
    };
    Ok(DiffRequest {
        id: run.id,
        tenant: run.tenant,
        config: run.config,
        options,
        perturb,
    })
}

fn parse_observe(v: &JsonValue) -> Result<ObserveRequest, (ErrorCode, String)> {
    let bad = |msg: String| (ErrorCode::BadRequest, msg);
    if v.get("faults").is_some() || v.get("seed").is_some() {
        return Err(bad(
            "observe requests take no 'faults' or 'seed' (the sweep needs a clean cell)".into(),
        ));
    }
    // An observe names its cell with exactly the run-request vocabulary;
    // the only extra knob is the probe-period grid.
    let run = parse_run(v)?;
    let periods = match v.get("periods") {
        None | Some(JsonValue::Null) => {
            crate::observe::parse_period_grid("4us..4ms").expect("default observe grid must parse")
        }
        Some(JsonValue::Str(spec)) => crate::observe::parse_period_grid(spec)
            .map_err(|e| bad(format!("bad 'periods': {e}")))?,
        Some(_) => return Err(bad("'periods' must be a grid spec string".into())),
    };
    if periods.len() > MAX_OBSERVE_REQUEST_PERIODS {
        return Err((
            ErrorCode::LimitExceeded,
            format!(
                "observe grid has {} periods; serve caps at {MAX_OBSERVE_REQUEST_PERIODS}",
                periods.len()
            ),
        ));
    }
    Ok(ObserveRequest {
        id: run.id,
        tenant: run.tenant,
        config: run.config,
        periods,
    })
}

/// Render an error response line (no trailing newline).
pub fn error_line(id: Option<&str>, code: ErrorCode, message: &str) -> String {
    let mut o = JsonObj::new();
    o.bool("ok", false).str("kind", "error");
    if let Some(id) = id {
        o.str("id", id);
    }
    o.str("code", code.as_str()).str("message", message);
    o.finish()
}

/// Render the admission acknowledgement for a run request.
pub fn accepted_line(id: &str, queue_depth: usize) -> String {
    let mut o = JsonObj::new();
    o.bool("ok", true)
        .str("kind", "accepted")
        .str("id", id)
        .u64("queue_depth", queue_depth as u64);
    o.finish()
}

/// Render the success response for a `verify` request.
pub fn verified_line(id: &str, methods: usize) -> String {
    let mut o = JsonObj::new();
    o.bool("ok", true)
        .str("kind", "verified")
        .str("id", id)
        .u64("methods", methods as u64);
    o.finish()
}

/// Render a completed run as one result line.
///
/// This is **the** canonical result payload: the batch-mode soak baseline
/// renders its locally computed [`RunSummary`] through this same function,
/// and the acceptance test compares the daemon's bytes against it. Every
/// field is a deterministic function of the summary.
pub fn result_line(id: &str, summary: &RunSummary) -> String {
    let r = &summary.report;
    let mut o = JsonObj::new();
    o.bool("ok", true).str("kind", "result").str("id", id);
    o.schema_version()
        .str("benchmark", &summary.config.benchmark)
        .str("vm", &summary.config.vm.to_string())
        .u64("heap_mb", u64::from(summary.config.heap_mb));
    match summary.result_checksum {
        Some(c) => o.i64("checksum", c),
        None => o.raw("checksum", "null"),
    };
    o.f64("duration_s", summary.duration_s())
        .f64("cpu_energy_j", r.cpu_energy.joules())
        .f64("mem_energy_j", r.mem_energy.joules())
        .f64("total_energy_j", r.total_energy.joules())
        .f64("edp_js", summary.edp())
        .u64("gc_collections", summary.gc.collections)
        .u64("bytecodes", summary.vm.bytecodes)
        .u64("allocations", summary.vm.allocations)
        .u64("fault_samples_dropped", r.faults.samples_dropped)
        .u64("fault_injected_oom", r.faults.injected_oom);
    o.finish()
}

/// Render the success response for a `diff` request: the full
/// [`RegressionReport`] JSON nested under `report`, with the gate verdict
/// hoisted to a top-level `clean` flag.
pub fn diff_line(id: &str, report: &RegressionReport) -> String {
    let mut o = JsonObj::new();
    o.bool("ok", true)
        .str("kind", "diff")
        .str("id", id)
        .bool("clean", report.clean())
        .raw("report", &report.to_json());
    o.finish()
}

/// Render the success response for an `observe` request: the full
/// [`ObserveReport`] JSON nested under `report`, with the recommended
/// probe period hoisted to a top-level field.
pub fn observe_line(id: &str, report: &ObserveReport) -> String {
    let mut o = JsonObj::new();
    o.bool("ok", true)
        .str("kind", "observe")
        .str("id", id)
        .u64("recommended_ns", report.recommended_ns)
        .raw("report", &report.to_json());
    o.finish()
}

/// Map a runner error to its taxonomy code.
pub fn code_for(err: &ExperimentError) -> ErrorCode {
    match err {
        ExperimentError::UnknownBenchmark(_) => ErrorCode::BadRequest,
        ExperimentError::Vm { .. } => ErrorCode::VmFault,
        ExperimentError::Quarantined { .. } => ErrorCode::Quarantined,
        ExperimentError::Panicked { .. } => ErrorCode::Panic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmprobe_heap::CollectorKind;

    #[test]
    fn parses_a_run_request_with_defaults() {
        let req = parse_request(r#"{"op":"run","id":"r1","tenant":"alice","benchmark":"_209_db"}"#)
            .unwrap();
        let Request::Run(run) = req else {
            panic!("expected run")
        };
        assert_eq!(run.id, "r1");
        assert_eq!(run.tenant, "alice");
        assert_eq!(run.config.heap_mb, 64);
        assert_eq!(run.config.vm, VmChoice::Jikes(CollectorKind::GenCopy));
        assert_eq!(run.config.scale, InputScale::Full);
        assert!(run.plan.is_none());
    }

    #[test]
    fn parses_faults_and_seed() {
        let req = parse_request(
            r#"{"op":"run","id":"r","tenant":"t","benchmark":"moldyn","collector":"semispace","heap_mb":32,"scale":"s10","faults":"oom@1","seed":9}"#,
        )
        .unwrap();
        let Request::Run(run) = req else {
            panic!("expected run")
        };
        let plan = run.plan.unwrap();
        assert_eq!(plan.fail_alloc_at, Some(1));
        assert_eq!(plan.seed, 9);
        assert_eq!(run.config.scale, InputScale::Reduced);
    }

    #[test]
    fn request_errors_carry_the_right_code() {
        let cases = [
            ("not json", ErrorCode::BadJson),
            (r#"{"op":"fly"}"#, ErrorCode::BadRequest),
            (r#"{"id":"x"}"#, ErrorCode::BadRequest),
            (
                r#"{"op":"run","id":"r","tenant":"t"}"#,
                ErrorCode::BadRequest,
            ),
            (
                r#"{"op":"run","id":"r","tenant":"t","benchmark":"m","heap_mb":0}"#,
                ErrorCode::BadRequest,
            ),
            (
                r#"{"op":"run","id":"r","tenant":"t","benchmark":"m","faults":"zap=1"}"#,
                ErrorCode::BadRequest,
            ),
        ];
        for (line, code) in cases {
            let err = parse_request(line).expect_err(line);
            assert_eq!(err.0, code, "{line}");
        }
    }

    #[test]
    fn parses_a_diff_request_with_bounds() {
        let req = parse_request(
            r#"{"op":"diff","id":"d1","tenant":"alice","benchmark":"_209_db","scale":"s10","replicates":3,"resamples":64,"confidence":0.95,"seed":7,"perturb":"gc=+5%"}"#,
        )
        .unwrap();
        let Request::Diff(diff) = req else {
            panic!("expected diff")
        };
        assert_eq!(diff.id, "d1");
        assert_eq!(diff.config.benchmark, "_209_db");
        assert_eq!(diff.config.scale, InputScale::Reduced);
        assert_eq!(diff.options.replicates, 3);
        assert_eq!(diff.options.resamples, 64);
        assert_eq!(diff.options.confidence, 0.95);
        assert_eq!(diff.options.seed, 7);
        assert!(!diff.perturb.is_none());

        for bad in [
            // replicates over the inline-execution cap
            r#"{"op":"diff","id":"d","tenant":"t","benchmark":"m","replicates":17}"#,
            r#"{"op":"diff","id":"d","tenant":"t","benchmark":"m","resamples":0}"#,
            r#"{"op":"diff","id":"d","tenant":"t","benchmark":"m","confidence":1.5}"#,
            r#"{"op":"diff","id":"d","tenant":"t","benchmark":"m","perturb":"warp=+5%"}"#,
            r#"{"op":"diff","id":"d","tenant":"t","benchmark":"m","faults":"noise=0.1"}"#,
        ] {
            let err = parse_request(bad).expect_err(bad);
            assert_eq!(err.0, ErrorCode::BadRequest, "{bad}");
        }
    }

    #[test]
    fn parses_an_observe_request_with_grid_cap() {
        let req = parse_request(
            r#"{"op":"observe","id":"o1","tenant":"alice","benchmark":"_209_db","scale":"s10","periods":"4us,40us"}"#,
        )
        .unwrap();
        let Request::Observe(obs) = req else {
            panic!("expected observe")
        };
        assert_eq!(obs.id, "o1");
        assert_eq!(obs.config.benchmark, "_209_db");
        assert_eq!(obs.config.scale, InputScale::Reduced);
        assert_eq!(obs.periods, vec![4_000, 40_000]);

        // The default grid is 4us..4ms — four decade points, exactly the cap.
        let req = parse_request(r#"{"op":"observe","id":"o2","tenant":"alice","benchmark":"m"}"#)
            .unwrap();
        let Request::Observe(obs) = req else {
            panic!("expected observe")
        };
        assert_eq!(obs.periods, vec![4_000, 40_000, 400_000, 4_000_000]);

        // One period over the serve cap: typed as a limit, not a bad request.
        let err = parse_request(
            r#"{"op":"observe","id":"o","tenant":"t","benchmark":"m","periods":"1us,2us,3us,4us,5us"}"#,
        )
        .expect_err("grid over cap");
        assert_eq!(err.0, ErrorCode::LimitExceeded);

        for bad in [
            r#"{"op":"observe","id":"o","tenant":"t","benchmark":"m","faults":"noise=0.1"}"#,
            r#"{"op":"observe","id":"o","tenant":"t","benchmark":"m","seed":7}"#,
            r#"{"op":"observe","id":"o","tenant":"t","benchmark":"m","periods":"0ns"}"#,
            r#"{"op":"observe","id":"o","tenant":"t","benchmark":"m","periods":7}"#,
        ] {
            let err = parse_request(bad).expect_err(bad);
            assert_eq!(err.0, ErrorCode::BadRequest, "{bad}");
        }
    }

    /// Every valid request line the tests above parse.
    const VALID_LINES: [&str; 6] = [
        r#"{"op":"status"}"#,
        r#"{"op":"run","id":"r1","tenant":"alice","benchmark":"_209_db"}"#,
        r#"{"op":"run","id":"r","tenant":"t","benchmark":"moldyn","collector":"semispace","heap_mb":32,"scale":"s10","faults":"oom@1","seed":9}"#,
        r#"{"op":"diff","id":"d1","tenant":"alice","benchmark":"_209_db","scale":"s10","replicates":3,"resamples":64,"confidence":0.95,"seed":7,"perturb":"gc=+5%"}"#,
        r#"{"op":"observe","id":"o1","tenant":"alice","benchmark":"_209_db","scale":"s10","periods":"4us,40us"}"#,
        r#"{"op":"observe","id":"o2","tenant":"alice","benchmark":"m"}"#,
    ];

    /// Random bytes, every truncation and every single-byte mutation of
    /// each valid line yield `Ok` or a typed error, never a panic.
    #[test]
    fn damaged_request_lines_never_panic() {
        let parse = |bytes: &[u8]| {
            if let Err((_, msg)) = parse_request(&String::from_utf8_lossy(bytes)) {
                assert!(!msg.is_empty());
            }
        };
        for line in VALID_LINES {
            assert!(parse_request(line).is_ok(), "{line}");
            let bytes = line.as_bytes();
            for len in 0..bytes.len() {
                parse(&bytes[..len]);
            }
            for i in 0..bytes.len() {
                let mut mutated = bytes.to_vec();
                for b in 0..=u8::MAX {
                    mutated[i] = b;
                    parse(&mutated);
                }
            }
        }
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..2000 {
            let len = (state % 96) as usize;
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state >> 24) as u8
                })
                .collect();
            parse(&bytes);
        }
    }

    #[test]
    fn non_json_numbers_are_bad_json() {
        for n in ["1.", "-.5", "01", "+1", ".5"] {
            let line =
                format!(r#"{{"op":"run","id":"r","tenant":"t","benchmark":"m","heap_mb":{n}}}"#);
            assert_eq!(
                parse_request(&line).expect_err(&line).0,
                ErrorCode::BadJson,
                "{line}"
            );
        }
    }

    #[test]
    fn response_lines_are_parseable_json() {
        let e = error_line(Some("r1"), ErrorCode::QueueFull, "busy");
        let v = JsonValue::parse(&e).unwrap();
        assert_eq!(v.get("code").unwrap().as_str(), Some("queue_full"));
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(false)));
        let a = accepted_line("r1", 3);
        let v = JsonValue::parse(&a).unwrap();
        assert_eq!(v.get("queue_depth").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn result_line_is_deterministic_for_a_summary() {
        let mut cfg = ExperimentConfig::jikes("_209_db", CollectorKind::SemiSpace, 32);
        cfg.scale = InputScale::Reduced;
        let summary = cfg.run().expect("runs");
        let a = result_line("id-1", &summary);
        let b = result_line("id-1", &summary);
        assert_eq!(a, b);
        let v = JsonValue::parse(&a).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("result"));
        assert_eq!(v.get("benchmark").unwrap().as_str(), Some("_209_db"));
        assert!(v.get("total_energy_j").is_some());
    }
}
