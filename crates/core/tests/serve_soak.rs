//! End-to-end acceptance tests for `vmprobe-serve`.
//!
//! The daemon binary is spawned for real, driven over its Unix socket with
//! hand-written JSON lines, and held to the PR's acceptance bar:
//!
//! * healthy tenants receive result lines **byte-identical** to batch mode
//!   (the same `RunSummary` rendered through `protocol::result_line`);
//! * a poisoned tenant is quarantined after the configured threshold,
//!   visibly in `status`, and auto-released after its deterministic
//!   cooldown;
//! * SIGTERM (and the `shutdown` op) drain gracefully: every admitted
//!   request's response is delivered, then `bye`, then exit code 0 — an
//!   `observe` still running at the drain included — while `run`, `diff`
//!   and `observe` sent after it are refused with `draining`, and a
//!   client that stops reading cannot hold the daemon open;
//! * a mixed concurrent tenant population (size via `VMPROBE_SOAK_CLIENTS`)
//!   soaks the admission path without cross-tenant interference;
//! * one tenant's pipelined results keep request order, warm ones included;
//! * every request line, however damaged, gets exactly one typed reply;
//! * a restarted daemon answers a stored cell inline from the persistent
//!   cache, and a damaged entry falls back to the executor, which
//!   recomputes and rewrites it.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use vmprobe::serve::protocol::{observe_line, result_line, JsonValue};
use vmprobe::{ExperimentConfig, ObserveEngine, Runner, VmChoice};
use vmprobe_heap::CollectorKind;
use vmprobe_workloads::InputScale;

/// How many concurrent healthy clients the soak test drives (plus one
/// poisoned tenant). Override with `VMPROBE_SOAK_CLIENTS`.
fn soak_clients() -> usize {
    std::env::var("VMPROBE_SOAK_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .clamp(1, 64)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vmprobe-serve-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Spawn the daemon and wait for its socket to exist.
fn spawn_daemon(socket: &Path, extra: &[&str]) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_vmprobe-serve"));
    cmd.arg("--socket")
        .arg(socket)
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    let child = cmd.spawn().expect("daemon spawns");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "daemon never bound its socket");
        std::thread::sleep(Duration::from_millis(10));
    }
    child
}

struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    fn connect(socket: &Path) -> Self {
        let stream = UnixStream::connect(socket).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client {
            writer: stream,
            reader,
        }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send newline");
    }

    /// Read lines until one matches `kind` (skipping chatter like
    /// `accepted` and `dropped`). Panics on EOF.
    fn read_kind(&mut self, kinds: &[&str]) -> (String, JsonValue) {
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line).expect("read line");
            assert!(n > 0, "daemon hung up while waiting for {kinds:?}");
            let line = line.trim_end().to_owned();
            let v = JsonValue::parse(&line).expect("daemon speaks JSON");
            let kind = v.get("kind").and_then(JsonValue::as_str).unwrap_or("");
            if kinds.contains(&kind) {
                return (line, v);
            }
        }
    }

    /// Read to EOF, returning every remaining line.
    fn drain(mut self) -> Vec<String> {
        let mut out = Vec::new();
        loop {
            let mut line = String::new();
            match self.reader.read_line(&mut line) {
                Ok(0) | Err(_) => return out,
                Ok(_) => out.push(line.trim_end().to_owned()),
            }
        }
    }
}

fn run_line(id: &str, tenant: &str, benchmark: &str, heap_mb: u32, faults: Option<&str>) -> String {
    let faults = match faults {
        Some(f) => format!(",\"faults\":\"{f}\""),
        None => String::new(),
    };
    format!(
        "{{\"op\":\"run\",\"id\":\"{id}\",\"tenant\":\"{tenant}\",\"benchmark\":\"{benchmark}\",\
         \"collector\":\"gencopy\",\"heap_mb\":{heap_mb},\"scale\":\"s10\"{faults}}}"
    )
}

/// The batch-mode baseline: the same cell run in-process, rendered
/// through the same canonical result renderer the daemon uses.
fn baseline_line(id: &str, benchmark: &str, heap_mb: u32) -> String {
    let cfg = ExperimentConfig {
        benchmark: benchmark.to_owned(),
        vm: VmChoice::Jikes(CollectorKind::GenCopy),
        heap_mb,
        platform: vmprobe_platform::PlatformKind::PentiumM,
        scale: InputScale::Reduced,
        trace_power: false,
        record_spans: false,
        probe: vmprobe::ProbeSpec::default(),
    };
    let summary = Runner::new().run(&cfg).expect("baseline runs");
    result_line(id, &summary)
}

/// The Prometheus text of a `metrics` reply.
fn metrics_text(client: &mut Client) -> String {
    client.send(r#"{"op":"metrics"}"#);
    let (line, v) = client.read_kind(&["metrics"]);
    v.get("text")
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("metrics text missing: {line}"))
        .to_owned()
}

/// The value of one Prometheus sample, by its full name.
fn sample(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("{name} missing: {text}"))
}

/// A daemon that is killed if a failed assertion unwinds past it.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

/// Ask a client's daemon to shut down and wait for its clean exit.
fn shut_down(mut client: Client, mut daemon: Reaped) {
    client.send(r#"{"op":"shutdown"}"#);
    client.read_kind(&["bye"]);
    let status = daemon.0.wait().expect("daemon exits");
    assert_eq!(status.code(), Some(0));
}

/// Wait for a daemon to exit on its own, at most `limit`; its status.
fn exits_within(daemon: &mut Reaped, limit: Duration) -> std::process::ExitStatus {
    let deadline = Instant::now() + limit;
    loop {
        if let Some(status) = daemon.0.try_wait().expect("poll daemon") {
            return status;
        }
        assert!(
            Instant::now() < deadline,
            "daemon still running {limit:?} after the drain began"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Have one daemon over `cache` compute and store `moldyn` GenCopy 32 MB
/// at `s10`, then stop it; returns the stored entry's path and bytes.
fn fill_cache(dir: &Path, cache: &Path) -> (PathBuf, Vec<u8>) {
    let socket = dir.join("fill.sock");
    let daemon = Reaped(spawn_daemon(
        &socket,
        &["--jobs", "1", "--cache-dir", cache.to_str().unwrap()],
    ));
    let mut client = Client::connect(&socket);
    client.send(&run_line("fill", "filler", "moldyn", 32, None));
    let (line, _) = client.read_kind(&["result", "error"]);
    assert_eq!(line, baseline_line("fill", "moldyn", 32));
    shut_down(client, daemon);
    let entries: Vec<PathBuf> = std::fs::read_dir(cache)
        .expect("cache dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "entry"))
        .collect();
    assert_eq!(entries.len(), 1, "one cell stored: {entries:?}");
    let bytes = std::fs::read(&entries[0]).expect("entry readable");
    (entries[0].clone(), bytes)
}

#[test]
fn a_restarted_daemon_answers_a_stored_cell_inline() {
    let dir = temp_dir("restore");
    let cache = dir.join("cache");
    fill_cache(&dir, &cache);

    let socket = dir.join("warm.sock");
    let report = dir.join("report.json");
    let daemon = Reaped(spawn_daemon(
        &socket,
        &[
            "--jobs",
            "1",
            "--cache-dir",
            cache.to_str().unwrap(),
            "--report-json",
            report.to_str().unwrap(),
        ],
    ));
    let mut erin = Client::connect(&socket);
    erin.send(&run_line("r1", "erin", "moldyn", 32, None));
    let (ack, v) = erin.read_kind(&["accepted", "result", "error"]);
    assert_eq!(v.get("kind").unwrap().as_str(), Some("accepted"), "{ack}");
    let (line, _) = erin.read_kind(&["result", "error"]);
    assert_eq!(line, baseline_line("r1", "moldyn", 32));

    // The first touch of the stored cell was restored on the reader
    // thread and accounted as a batch restores a cell: no executor batch.
    let text = metrics_text(&mut erin);
    for (name, want) in [
        ("vmprobe_serve_inline_hits_total", 1),
        ("vmprobe_cache_hits_total", 1),
        ("vmprobe_cells_executed_total", 0),
        ("vmprobe_cells_from_cache_total", 0),
        ("vmprobe_batches_submitted_total", 0),
        ("vmprobe_serve_results_total", 1),
        ("vmprobe_serve_result_us_count", 1),
    ] {
        assert_eq!(sample(&text, name), want, "{name}");
    }
    shut_down(erin, daemon);
    let report = std::fs::read_to_string(&report).expect("report written");
    assert!(report.contains("\"runs_ok\":1"), "report: {report}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_damaged_entry_goes_to_the_executor_and_is_rewritten() {
    let dir = temp_dir("damaged");
    let cache = dir.join("cache");
    let (entry, stored) = fill_cache(&dir, &cache);
    // Flip one bit in the middle of the body line, past the header.
    let body = stored
        .iter()
        .position(|&b| b == b'\n')
        .expect("header line")
        + 1;
    let mut damaged = stored.clone();
    damaged[body + (stored.len() - body) / 2] ^= 0x01;
    std::fs::write(&entry, &damaged).expect("damage the entry");

    let socket = dir.join("warm.sock");
    let daemon = Reaped(spawn_daemon(
        &socket,
        &["--jobs", "1", "--cache-dir", cache.to_str().unwrap()],
    ));
    let mut frank = Client::connect(&socket);
    frank.send(&run_line("r1", "frank", "moldyn", 32, None));
    let (line, _) = frank.read_kind(&["result", "error"]);
    assert_eq!(line, baseline_line("r1", "moldyn", 32));

    // The reader's probe counted nothing; the executor's counted one
    // damaged entry, recomputed the cell and stored it again.
    let text = metrics_text(&mut frank);
    for (name, want) in [
        ("vmprobe_serve_inline_hits_total", 0),
        ("vmprobe_cache_corrupt_total", 1),
        ("vmprobe_cache_hits_total", 0),
        ("vmprobe_cache_misses_total", 0),
        ("vmprobe_cells_executed_total", 1),
        ("vmprobe_cache_stores_total", 1),
        ("vmprobe_serve_results_total", 1),
        ("vmprobe_serve_result_us_count", 1),
    ] {
        assert_eq!(sample(&text, name), want, "{name}");
    }
    shut_down(frank, daemon);
    assert_eq!(
        std::fs::read(&entry).expect("entry readable"),
        stored,
        "the entry is rewritten whole"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn healthy_results_are_byte_identical_to_batch_mode_and_sigterm_drains() {
    let dir = temp_dir("basic");
    let socket = dir.join("daemon.sock");
    let report = dir.join("report.json");
    let metrics = dir.join("metrics.prom");
    let mut daemon = spawn_daemon(
        &socket,
        &[
            "--jobs",
            "2",
            "--report-json",
            report.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ],
    );

    let mut alice = Client::connect(&socket);
    alice.send(&run_line("cell-1", "alice", "moldyn", 32, None));
    let (line, v) = alice.read_kind(&["result", "error"]);
    assert_eq!(v.get("kind").unwrap().as_str(), Some("result"), "{line}");
    assert_eq!(line, baseline_line("cell-1", "moldyn", 32));

    // A second tenant asking for the same cell shares the warm memo and
    // gets the exact same bytes.
    let mut bob = Client::connect(&socket);
    bob.send(&run_line("cell-1", "bob", "moldyn", 32, None));
    let (bob_line, _) = bob.read_kind(&["result", "error"]);
    assert_eq!(bob_line, line, "shared cache must not change a byte");

    // In-flight delivery across SIGTERM: admit a request, then terminate.
    // (The executor races the acceptance ack, so the result may already
    // be queued when the ack is read — tolerate both orders.)
    alice.send(&run_line("cell-2", "alice", "search", 32, None));
    let (first, v) = alice.read_kind(&["accepted", "result"]);
    Command::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status()
        .expect("kill runs");

    // The admitted cell's result still arrives, then the goodbye.
    let line2 = if v.get("kind").unwrap().as_str() == Some("accepted") {
        let (line2, v2) = alice.read_kind(&["result", "error"]);
        assert_eq!(v2.get("kind").unwrap().as_str(), Some("result"), "{line2}");
        line2
    } else {
        first
    };
    assert_eq!(line2, baseline_line("cell-2", "search", 32));
    alice.read_kind(&["bye"]);
    assert!(alice.drain().is_empty(), "nothing after bye");

    let status = daemon.wait().expect("daemon exits");
    assert_eq!(status.code(), Some(0), "graceful SIGTERM exit");
    // Final artifacts flushed on drain.
    let report = std::fs::read_to_string(&report).expect("report written");
    assert!(report.contains("\"runs_ok\":2"), "report: {report}");
    let metrics = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(
        metrics.contains("vmprobe_serve_requests_total 3"),
        "metrics: {metrics}"
    );
    assert!(
        metrics.contains("vmprobe_serve_results_total 3"),
        "metrics: {metrics}"
    );
    // Bob's request was the one warm request: answered on his
    // connection's reader thread, without an executor batch.
    assert!(
        metrics.contains("vmprobe_serve_inline_hits_total 1"),
        "metrics: {metrics}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn one_tenants_pipelined_results_keep_request_order() {
    let dir = temp_dir("order");
    let socket = dir.join("daemon.sock");
    let mut daemon = spawn_daemon(&socket, &["--jobs", "2"]);

    let mut dave = Client::connect(&socket);
    dave.send(&run_line("warm", "dave", "search", 32, None));
    let (line, _) = dave.read_kind(&["result", "error"]);
    assert_eq!(line, baseline_line("warm", "search", 32));

    // A cold cell, that cell again, then the warm one: the warm request
    // must not overtake the work its tenant has outstanding.
    let order = [("o1", "moldyn"), ("o2", "moldyn"), ("o3", "search")];
    for (id, bench) in order {
        dave.send(&run_line(id, "dave", bench, 32, None));
    }
    for (id, bench) in order {
        let (line, _) = dave.read_kind(&["result", "error"]);
        assert_eq!(line, baseline_line(id, bench, 32), "result for {id}");
    }

    Command::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status()
        .expect("kill runs");
    dave.read_kind(&["bye"]);
    let status = daemon.wait().expect("daemon exits");
    assert_eq!(status.code(), Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

/// The valid request lines `serve::protocol`'s unit tests parse.
const VALID_LINES: [&str; 6] = [
    r#"{"op":"status"}"#,
    r#"{"op":"run","id":"r1","tenant":"alice","benchmark":"_209_db"}"#,
    r#"{"op":"run","id":"r","tenant":"t","benchmark":"moldyn","collector":"semispace","heap_mb":32,"scale":"s10","faults":"oom@1","seed":9}"#,
    r#"{"op":"diff","id":"d1","tenant":"alice","benchmark":"_209_db","scale":"s10","replicates":3,"resamples":64,"confidence":0.95,"seed":7,"perturb":"gc=+5%"}"#,
    r#"{"op":"observe","id":"o1","tenant":"alice","benchmark":"_209_db","scale":"s10","periods":"4us,40us"}"#,
    r#"{"op":"observe","id":"o2","tenant":"alice","benchmark":"m"}"#,
];

/// Damaged and hostile request lines: random bytes, every truncation and
/// a seeded sample of single-byte mutations of each valid line, a
/// non-UTF-8 byte, and lines just over the cap and far over it. Lines
/// the daemon skips as blank are left out.
fn hostile_lines() -> Vec<Vec<u8>> {
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    // A newline inside a line would make it two.
    let byte = |r: u64| match (r >> 24) as u8 {
        b'\n' => b'?',
        b => b,
    };
    let mut lines: Vec<Vec<u8>> = Vec::new();
    for line in VALID_LINES {
        let bytes = line.as_bytes();
        lines.push(bytes.to_vec());
        lines.extend((1..bytes.len()).map(|len| bytes[..len].to_vec()));
        for i in 0..bytes.len() {
            let mut mutated = bytes.to_vec();
            mutated[i] = byte(next());
            lines.push(mutated);
        }
    }
    for _ in 0..200 {
        let len = (next() % 96) as usize;
        lines.push((0..len).map(|_| byte(next())).collect());
    }
    lines.push(vec![0xff]);
    lines.push(vec![b'a'; 64 * 1024 + 1]);
    lines.push(vec![b'{'; 1 << 20]);
    lines.retain(|l| !std::str::from_utf8(l).is_ok_and(|t| t.trim().is_empty()));
    lines
}

#[test]
fn every_request_line_gets_exactly_one_typed_reply() {
    let dir = temp_dir("hostile");
    let socket = dir.join("daemon.sock");
    // The heap cap refuses every cell over 32 MB at admission, so the
    // mutants that still parse stay cheap: the only cells that reach the
    // executor are s10 moldyn ones, and most of those fail at `oom@1`.
    let mut daemon = spawn_daemon(&socket, &["--jobs", "2", "--max-heap-mb", "32"]);
    let lines = hostile_lines();
    let mut client = Client::connect(&socket);
    let mut writer = client.writer.try_clone().expect("clone");
    let sender = std::thread::spawn({
        let lines = lines.clone();
        move || {
            for line in &lines {
                writer.write_all(line).expect("send");
                writer.write_all(b"\n").expect("send newline");
            }
        }
    });

    // Pipelined: read while sending, counting final replies (everything
    // but `accepted` acks and `dropped` confessions).
    let mut finals = 0;
    while finals < lines.len() {
        let mut reply = String::new();
        let n = client.reader.read_line(&mut reply).expect("read reply");
        assert!(n > 0, "daemon hung up after {finals} replies");
        let v = JsonValue::parse(reply.trim_end())
            .unwrap_or_else(|e| panic!("reply is not JSON ({e}): {reply}"));
        let kind = v.get("kind").and_then(JsonValue::as_str).unwrap_or("");
        assert!(!kind.is_empty(), "untyped reply: {reply}");
        if kind == "error" {
            assert!(
                v.get("code").and_then(JsonValue::as_str).is_some(),
                "error without a code: {reply}"
            );
        }
        if kind != "accepted" && kind != "dropped" {
            finals += 1;
        }
    }
    sender.join().expect("sender");

    // No reply beyond one per line, and the daemon still answers.
    client.send(r#"{"op":"status"}"#);
    let (line, _) = client.read_kind(&["status", "result", "error", "verified"]);
    assert!(line.contains(r#""kind":"status""#), "extra reply: {line}");

    Command::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status()
        .expect("kill runs");
    client.read_kind(&["bye"]);
    let status = daemon.wait().expect("daemon exits");
    assert_eq!(status.code(), Some(0), "clean SIGTERM exit");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_non_utf8_line_gets_bad_json_and_the_session_carries_on() {
    let dir = temp_dir("utf8");
    let socket = dir.join("daemon.sock");
    let mut daemon = spawn_daemon(&socket, &["--jobs", "1"]);
    let mut client = Client::connect(&socket);
    client.writer.write_all(b"\xff\n").expect("send");
    let (line, v) = client.read_kind(&["error"]);
    assert_eq!(
        v.get("code").and_then(JsonValue::as_str),
        Some("bad_json"),
        "{line}"
    );
    client.send(r#"{"op":"status"}"#);
    client.read_kind(&["status"]);
    client.send(r#"{"op":"shutdown"}"#);
    client.read_kind(&["draining"]);
    client.read_kind(&["bye"]);
    let status = daemon.wait().expect("daemon exits");
    assert_eq!(status.code(), Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_diff_and_observe_sent_after_shutdown_are_refused_with_draining() {
    let dir = temp_dir("refuse");
    let socket = dir.join("daemon.sock");
    let report = dir.join("report.json");
    let metrics = dir.join("metrics.prom");
    let mut daemon = Reaped(spawn_daemon(
        &socket,
        &[
            "--jobs",
            "1",
            "--report-json",
            report.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ],
    ));
    let cell =
        r#""tenant":"t","benchmark":"moldyn","collector":"gencopy","heap_mb":32,"scale":"s10""#;
    // One write, so all four lines reach the reader before the drain
    // shuts its read half: the last three arrive after `shutdown`.
    let lines = [
        r#"{"op":"shutdown"}"#.to_owned(),
        format!(r#"{{"op":"run","id":"r",{cell}}}"#),
        format!(r#"{{"op":"diff","id":"d",{cell},"replicates":2,"resamples":20}}"#),
        format!(r#"{{"op":"observe","id":"o",{cell},"periods":"40us"}}"#),
    ];
    let mut client = Client::connect(&socket);
    client.send(&lines.join("\n"));
    client.read_kind(&["draining"]);
    for id in ["r", "d", "o"] {
        let (line, v) = client.read_kind(&["error", "result", "diff", "observe", "bye"]);
        assert_eq!(v.get("id").and_then(JsonValue::as_str), Some(id), "{line}");
        assert_eq!(
            v.get("code").and_then(JsonValue::as_str),
            Some("draining"),
            "{line}"
        );
    }
    client.read_kind(&["bye"]);
    assert_eq!(
        exits_within(&mut daemon, Duration::from_secs(60)).code(),
        Some(0)
    );
    let report = std::fs::read_to_string(&report).expect("report written");
    assert!(report.contains("\"runs_ok\":0"), "nothing ran: {report}");
    let metrics = std::fs::read_to_string(&metrics).expect("metrics written");
    assert_eq!(sample(&metrics, "vmprobe_serve_rejected_draining_total"), 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_client_that_stops_reading_cannot_hold_the_drain() {
    let dir = temp_dir("unread");
    let socket = dir.join("daemon.sock");
    let mut daemon = Reaped(spawn_daemon(&socket, &["--jobs", "1", "--outbox-cap", "4"]));
    // Far more `metrics` replies (about 5 KB each) than the socket and
    // the outbox hold, and never a read: the writer blocks on the full
    // socket, and the reader on the full outbox.
    let mut silent = Client::connect(&socket);
    let flood = format!("{}\n", r#"{"op":"metrics"}"#).repeat(400);
    silent.writer.write_all(flood.as_bytes()).expect("send");
    let mut other = Client::connect(&socket);
    other.send(r#"{"op":"status"}"#);
    other.read_kind(&["status"]);

    other.send(r#"{"op":"shutdown"}"#);
    other.read_kind(&["draining"]);
    other.read_kind(&["bye"]);
    // The silent client is still connected; the daemon gives up on it
    // after its flush bound and exits cleanly.
    assert_eq!(
        exits_within(&mut daemon, Duration::from_secs(30)).code(),
        Some(0)
    );
    drop(silent);
    std::fs::remove_dir_all(&dir).ok();
}

/// An `observe` (8 runs) still running when the drain begins — by the
/// `shutdown` op, or by SIGTERM — gets its reply before `bye`, and the
/// final report counts its runs.
fn observe_in_flight_at_the_drain_is_answered_before_bye(sigterm: bool) {
    let dir = temp_dir(if sigterm {
        "inflight-term"
    } else {
        "inflight-op"
    });
    let socket = dir.join("daemon.sock");
    let report = dir.join("report.json");
    let mut daemon = Reaped(spawn_daemon(
        &socket,
        &["--jobs", "1", "--report-json", report.to_str().unwrap()],
    ));
    let mut alice = Client::connect(&socket);
    alice.send(
        r#"{"op":"observe","id":"late","tenant":"alice","benchmark":"_213_javac","collector":"gencopy","heap_mb":64,"scale":"s10","periods":"4us,40us,400us,4ms"}"#,
    );
    // Wait until the observe is admitted, and check it is still running.
    let mut bob = Client::connect(&socket);
    loop {
        let text = metrics_text(&mut bob);
        if sample(&text, "vmprobe_serve_observe_total") == 1 {
            assert_eq!(
                sample(&text, "vmprobe_serve_results_total"),
                0,
                "the observe finished before the drain began"
            );
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    if sigterm {
        Command::new("kill")
            .args(["-TERM", &daemon.0.id().to_string()])
            .status()
            .expect("kill runs");
    } else {
        bob.send(r#"{"op":"shutdown"}"#);
        bob.read_kind(&["draining"]);
    }
    let (line, v) = alice.read_kind(&["observe", "error", "bye"]);
    assert_eq!(v.get("kind").unwrap().as_str(), Some("observe"), "{line}");
    alice.read_kind(&["bye"]);
    bob.read_kind(&["bye"]);
    assert_eq!(
        exits_within(&mut daemon, Duration::from_secs(120)).code(),
        Some(0)
    );
    let report = std::fs::read_to_string(&report).expect("report written");
    assert!(report.contains("\"runs_ok\":8"), "report: {report}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_observe_in_flight_at_the_shutdown_op_is_answered_before_bye() {
    observe_in_flight_at_the_drain_is_answered_before_bye(false);
}

#[test]
fn an_observe_in_flight_at_sigterm_is_answered_before_bye() {
    observe_in_flight_at_the_drain_is_answered_before_bye(true);
}

#[test]
fn observe_requests_run_inline_and_match_the_batch_engine() {
    let dir = temp_dir("observe");
    let socket = dir.join("daemon.sock");
    let metrics = dir.join("metrics.prom");
    let report_json = dir.join("report.json");
    let mut daemon = spawn_daemon(
        &socket,
        &[
            "--jobs",
            "2",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--report-json",
            report_json.to_str().unwrap(),
        ],
    );

    let mut alice = Client::connect(&socket);
    alice.send(
        r#"{"op":"observe","id":"obs-1","tenant":"alice","benchmark":"moldyn","collector":"gencopy","heap_mb":32,"scale":"s10","periods":"40us,400us"}"#,
    );
    let (line, v) = alice.read_kind(&["observe", "error"]);
    assert_eq!(v.get("kind").unwrap().as_str(), Some("observe"), "{line}");

    // The daemon's bytes must match the in-process engine rendered through
    // the same canonical renderer — observe reports are deterministic.
    let cfg = ExperimentConfig {
        benchmark: "moldyn".to_owned(),
        vm: VmChoice::Jikes(CollectorKind::GenCopy),
        heap_mb: 32,
        platform: vmprobe_platform::PlatformKind::PentiumM,
        scale: InputScale::Reduced,
        trace_power: false,
        record_spans: false,
        probe: vmprobe::ProbeSpec::default(),
    };
    let report = ObserveEngine::new(vec![40_000, 400_000])
        .run(&Runner::new(), std::slice::from_ref(&cfg))
        .expect("baseline sweep runs");
    assert_eq!(line, observe_line("obs-1", &report));

    // A grid over the serve cap is refused as a typed limit, not executed.
    alice.send(
        r#"{"op":"observe","id":"obs-2","tenant":"alice","benchmark":"moldyn","periods":"1us,2us,3us,4us,5us"}"#,
    );
    let (eline, ev) = alice.read_kind(&["error"]);
    assert_eq!(
        ev.get("code").and_then(JsonValue::as_str),
        Some("limit_exceeded"),
        "{eline}"
    );

    Command::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status()
        .expect("kill runs");
    alice.read_kind(&["bye"]);
    let status = daemon.wait().expect("daemon exits");
    assert_eq!(status.code(), Some(0), "graceful exit");
    let metrics = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(
        metrics.contains("vmprobe_serve_observe_total 1"),
        "metrics: {metrics}"
    );
    // The sweep ran on the daemon's runner: its 2 periods x 2 modes are
    // in the final report.
    let report_json = std::fs::read_to_string(&report_json).expect("report written");
    assert!(
        report_json.contains("\"runs_ok\":4"),
        "report: {report_json}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repeated_diff_and_observe_requests_are_answered_from_the_memo() {
    let dir = temp_dir("repeat");
    let socket = dir.join("daemon.sock");
    let cache = dir.join("cache");
    let daemon = Reaped(spawn_daemon(
        &socket,
        &["--jobs", "1", "--cache-dir", cache.to_str().unwrap()],
    ));
    let mut carol = Client::connect(&socket);
    let cell =
        r#""tenant":"carol","benchmark":"moldyn","collector":"gencopy","heap_mb":32,"scale":"s10""#;
    let counters = [
        "vmprobe_cells_executed_total",
        "vmprobe_cache_hits_total",
        "vmprobe_cells_from_cache_total",
    ];
    // Each request with its reply kind and its run count: 2 periods x 2
    // modes, and a self-diff's one sweep of 2 replicates.
    for (request, kind, runs) in [
        (
            format!(r#"{{"op":"observe","id":"o",{cell},"periods":"40us,400us"}}"#),
            "observe",
            4,
        ),
        (
            format!(r#"{{"op":"diff","id":"d",{cell},"replicates":2,"resamples":20}}"#),
            "diff",
            2,
        ),
    ] {
        carol.send(&request);
        let (first, _) = carol.read_kind(&[kind, "error"]);
        assert!(first.contains(&format!("\"kind\":\"{kind}\"")), "{first}");
        let before = metrics_text(&mut carol);
        carol.send(&request);
        let (repeat, _) = carol.read_kind(&[kind, "error"]);
        assert_eq!(repeat, first, "a repeat must not change a byte");
        let after = metrics_text(&mut carol);
        let [executed, hits, from_memo] =
            counters.map(|name| (sample(&before, name), sample(&after, name)));
        assert_eq!(executed.0, executed.1, "{kind}: the repeat executed a cell");
        assert_eq!(hits.0, hits.1, "{kind}: the repeat read the disk");
        assert_eq!(from_memo.1, from_memo.0 + runs, "{kind}: memo hits");
    }
    shut_down(carol, daemon);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn poisoned_tenant_is_quarantined_released_and_isolated() {
    let dir = temp_dir("quarantine");
    let socket = dir.join("daemon.sock");
    let mut daemon = spawn_daemon(
        &socket,
        &[
            "--jobs",
            "2",
            "--quarantine-threshold",
            "2",
            "--quarantine-cooldown",
            "4",
        ],
    );

    let mut mallory = Client::connect(&socket);
    // Two failing requests: vm_fault, vm_fault → quarantine entered.
    // Distinct seeds make distinct cells, so the runner's per-config
    // negative memo is not what rejects the second one.
    for seed in [1, 2] {
        mallory.send(&run_line(
            &format!("poison-{seed}"),
            "mallory",
            "moldyn",
            32,
            Some(&format!("oom@1,seed={seed}")),
        ));
        let (line, v) = mallory.read_kind(&["result", "error"]);
        assert_eq!(
            v.get("code").and_then(JsonValue::as_str),
            Some("vm_fault"),
            "{line}"
        );
    }

    // Admission seqs so far: 1, 2 (both mallory). The second failure was
    // recorded at seq 2 → release at seq 6. Seqs 3, 4, 5 must be refused,
    // seq 6 re-admitted.
    for attempt in 3..6 {
        mallory.send(&run_line(
            &format!("poison-{attempt}"),
            "mallory",
            "moldyn",
            32,
            Some("oom@1,seed=9"),
        ));
        let (line, v) = mallory.read_kind(&["error"]);
        assert_eq!(
            v.get("code").and_then(JsonValue::as_str),
            Some("quarantined"),
            "attempt {attempt}: {line}"
        );
    }

    // Quarantine is visible in status while it holds… briefly: check via
    // a second connection (status does not bump the admission clock).
    let mut observer = Client::connect(&socket);
    observer.send(r#"{"op":"status"}"#);
    let (status_line, status) = observer.read_kind(&["status"]);
    let tenants = match status.get("tenants") {
        Some(JsonValue::Arr(items)) => items.clone(),
        other => panic!("tenants missing in {status_line}: {other:?}"),
    };
    let mallory_row = tenants
        .iter()
        .find(|t| t.get("tenant").and_then(JsonValue::as_str) == Some("mallory"))
        .unwrap_or_else(|| panic!("mallory not in status: {status_line}"));
    assert_eq!(
        mallory_row.get("quarantined"),
        Some(&JsonValue::Bool(true)),
        "{status_line}"
    );
    assert_eq!(
        mallory_row
            .get("release_at_seq")
            .and_then(JsonValue::as_u64),
        Some(6),
        "{status_line}"
    );

    // Seq 6: the cooldown elapsed exactly — re-admitted (and the poison
    // fails again, as a vm_fault, not a quarantine refusal).
    mallory.send(&run_line(
        "poison-return",
        "mallory",
        "moldyn",
        32,
        Some("oom@1,seed=10"),
    ));
    let (line, v) = mallory.read_kind(&["error"]);
    assert_eq!(
        v.get("code").and_then(JsonValue::as_str),
        Some("vm_fault"),
        "released request executes again: {line}"
    );

    // A healthy tenant was never affected: bytes identical to batch mode.
    let mut alice = Client::connect(&socket);
    alice.send(&run_line("clean", "alice", "search", 32, None));
    let (result, _) = alice.read_kind(&["result"]);
    assert_eq!(result, baseline_line("clean", "search", 32));

    // The shutdown op drains exactly like SIGTERM.
    alice.send(r#"{"op":"shutdown"}"#);
    alice.read_kind(&["draining"]);
    alice.read_kind(&["bye"]);
    let status = daemon.wait().expect("daemon exits");
    assert_eq!(status.code(), Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_programs_are_rejected_at_admission_without_touching_quarantine() {
    let dir = temp_dir("verify");
    let socket = dir.join("daemon.sock");
    let mut daemon = spawn_daemon(
        &socket,
        &[
            "--jobs",
            "2",
            "--quarantine-threshold",
            "2",
            "--quarantine-cooldown",
            "64",
        ],
    );

    let mut carol = Client::connect(&socket);

    // The merge-point regression program: both branch arms reach `merge`
    // at depth 1, one with an int and one with a float, and the merged
    // value feeds an integer add. The old structural verifier accepted
    // this shape (depths agree); the dataflow verifier must reject it.
    let merge_conflict = ".method main 0 0 ret\\n const_i 1\\n br_true thenarm\\n \
                          const_f 2.0\\n jump merge\\nthenarm: const_i 3\\n\
                          merge: const_i 1\\n add\\n ret_value";
    // A structurally broken program (dangling branch target).
    let dangling = ".method main 0 0\\n jump @99\\n ret";
    // One that does not even assemble.
    let garbage = ".method main 0 0\\n frobnicate\\n ret";

    // More rejections than the quarantine threshold: none of them may
    // count against the tenant.
    for (i, program) in [merge_conflict, dangling, garbage, merge_conflict]
        .iter()
        .enumerate()
    {
        carol.send(&format!(
            "{{\"op\":\"verify\",\"id\":\"v{i}\",\"program\":\"{program}\"}}"
        ));
        let (line, v) = carol.read_kind(&["error", "verified"]);
        assert_eq!(
            v.get("code").and_then(JsonValue::as_str),
            Some("verify_rejected"),
            "program {i}: {line}"
        );
        assert_eq!(
            v.get("id").and_then(JsonValue::as_str),
            Some(format!("v{i}").as_str())
        );
    }

    // A well-formed program passes both verifier tiers over the wire.
    let good = ".method main 0 1 ret\\n const_i 1\\n br_true thenarm\\n \
                const_i 2\\n jump merge\\nthenarm: const_i 3\\n\
                merge: store 0\\n load 0\\n ret_value";
    carol.send(&format!(
        "{{\"op\":\"verify\",\"id\":\"ok\",\"program\":\"{good}\"}}"
    ));
    let (line, v) = carol.read_kind(&["error", "verified"]);
    assert_eq!(v.get("kind").unwrap().as_str(), Some("verified"), "{line}");
    assert_eq!(v.get("methods").and_then(JsonValue::as_u64), Some(1));

    // The rejections consumed no pool slot and never touched quarantine:
    // the same tenant's run is admitted and bit-identical to batch mode.
    carol.send(&run_line("after-verify", "carol", "search", 32, None));
    let (result, _) = carol.read_kind(&["result"]);
    assert_eq!(result, baseline_line("after-verify", "search", 32));

    // Status reports the rejections and an empty quarantine book.
    carol.send(r#"{"op":"status"}"#);
    let (status_line, status) = carol.read_kind(&["status"]);
    assert_eq!(
        status.get("verify_rejected").and_then(JsonValue::as_u64),
        Some(4),
        "{status_line}"
    );
    assert!(
        !status_line.contains("\"quarantined\":true"),
        "verify rejections must not quarantine anyone: {status_line}"
    );

    carol.send(r#"{"op":"shutdown"}"#);
    carol.read_kind(&["draining"]);
    carol.read_kind(&["bye"]);
    let status = daemon.wait().expect("daemon exits");
    assert_eq!(status.code(), Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_mixed_tenants_soak_without_interference() {
    let dir = temp_dir("soak");
    let socket = dir.join("daemon.sock");
    let metrics = dir.join("metrics.prom");
    let mut daemon = spawn_daemon(
        &socket,
        &[
            "--jobs",
            "4",
            "--quarantine-threshold",
            "2",
            "--quarantine-cooldown",
            "64",
            "--queue-cap",
            "256",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ],
    );

    let clients = soak_clients();
    // Benchmarks cycle per client; baselines computed once, in-process.
    let cells: Vec<(String, u32)> = ["moldyn", "search", "_209_db"]
        .iter()
        .cycle()
        .take(clients)
        .enumerate()
        .map(|(i, b)| ((*b).to_owned(), 32 + 16 * ((i as u32) % 2)))
        .collect();
    let baselines: Vec<String> = cells
        .iter()
        .map(|(b, heap)| baseline_line("soak", b, *heap))
        .collect();

    let sock: &Path = &socket;
    std::thread::scope(|scope| {
        // One poisoned tenant hammers failing configs throughout.
        scope.spawn(move || {
            let mut poison = Client::connect(sock);
            for i in 0..6 {
                poison.send(&run_line(
                    &format!("p{i}"),
                    "poisoned",
                    "moldyn",
                    32,
                    Some(&format!("oom@1,seed={i}")),
                ));
                let (line, v) = poison.read_kind(&["error"]);
                let code = v.get("code").and_then(JsonValue::as_str).unwrap();
                assert!(
                    code == "vm_fault" || code == "quarantined",
                    "poisoned tenant saw '{code}': {line}"
                );
            }
        });
        for (i, ((bench, heap), baseline)) in cells.iter().zip(&baselines).enumerate() {
            scope.spawn(move || {
                let mut c = Client::connect(sock);
                let tenant = format!("tenant-{i}");
                // Three rounds over the same cell: first computes, the
                // rest replay from the shared memo — all byte-identical.
                for round in 0..3 {
                    c.send(&run_line("soak", &tenant, bench, *heap, None));
                    let (line, v) = c.read_kind(&["result", "error"]);
                    assert_eq!(
                        v.get("kind").unwrap().as_str(),
                        Some("result"),
                        "tenant {i} round {round}: {line}"
                    );
                    assert_eq!(
                        &line, baseline,
                        "tenant {i} round {round} diverged from batch mode"
                    );
                }
            });
        }
    });

    // Everyone is done; the queue must be empty and the poisoned tenant
    // on the books.
    let mut observer = Client::connect(&socket);
    observer.send(r#"{"op":"status"}"#);
    let (status_line, status) = observer.read_kind(&["status"]);
    assert_eq!(
        status.get("queued").and_then(JsonValue::as_u64),
        Some(0),
        "{status_line}"
    );
    assert!(
        status_line.contains("\"tenant\":\"poisoned\""),
        "poisoned tenant visible: {status_line}"
    );

    Command::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status()
        .expect("kill runs");
    observer.read_kind(&["bye"]);
    let status = daemon.wait().expect("daemon exits");
    assert_eq!(status.code(), Some(0), "soak ends in a clean exit");
    let metrics = std::fs::read_to_string(&metrics).expect("metrics written");
    // The poisoned tenant entered quarantine at least once (a very large
    // client count can outrun the cooldown and re-trigger it).
    let entered: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("vmprobe_serve_quarantine_entered_total "))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("quarantine counter missing: {metrics}"));
    assert!(entered >= 1, "metrics: {metrics}");
    std::fs::remove_dir_all(&dir).ok();
}
