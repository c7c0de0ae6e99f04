//! The warm serve workload: a fresh `vmprobe-serve` daemon per round
//! over a cache pre-filled with every cell of both cold sweeps, driven
//! by two closed-loop clients with a seeded request stream.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vmprobe::serve::protocol;
use vmprobe::{CacheLookup, ExperimentCache, ExperimentConfig, RunSummary, VmChoice};
use vmprobe_heap::CollectorKind;
use vmprobe_platform::PlatformKind;
use vmprobe_workloads::InputScale;

use crate::grid::{self, Digest, Sweep};
use crate::host::HostSpeed;
use crate::stats::{beyond, mean, median, percentile, samples_needed, Metrics};
use crate::sys;
use crate::trace::{Recorder, Span};
use crate::{Outcome, MEASURE_CAP_S};

/// Run requests per round: every cell once, the rest hot repeats.
pub const RUNS_PER_ROUND: usize = 1000;
/// Verify requests per round: about a tenth of the stream.
pub const VERIFIES_PER_ROUND: usize = 111;
/// Cells a round's repeats concentrate on.
const HOT_CELLS: usize = 8;
/// Share (in tenths) of repeats drawn from the hot cells.
const HOT_TENTHS: usize = 8;
/// Closed-loop clients, one tenant each.
const CLIENTS: usize = 2;
/// Round trips in each host reference run: requests and replies are
/// this workload's work, so its reference bounces messages too.
const REFERENCE_ROUND_TRIPS: u32 = 2_000;
/// How long a daemon may take to accept its first connection.
const CONNECT_DEADLINE: Duration = Duration::from_secs(20);

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One request of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// Run the cell with this index into the pre-filled cell list.
    Run(usize),
    /// Verify the corpus program with this index.
    Verify(usize),
}

/// The request stream of one round, from the run's seed alone: every
/// one of `cells` is asked for at least once, repeats favour a seeded
/// hot set, and verify requests are mixed in.
pub fn stream(seed: u64, round: u64, cells: usize) -> Vec<Req> {
    let mut rng = Rng::new(seed ^ round.wrapping_mul(0xd1b5_4a32_d192_ed03));
    let mut order: Vec<usize> = (0..cells).collect();
    rng.shuffle(&mut order);
    let hot = &order[..HOT_CELLS.min(cells)];
    let mut reqs: Vec<Req> = (0..cells).map(Req::Run).collect();
    while reqs.len() < RUNS_PER_ROUND.max(cells) {
        let cell = if rng.below(10) < HOT_TENTHS {
            hot[rng.below(hot.len())]
        } else {
            rng.below(cells)
        };
        reqs.push(Req::Run(cell));
    }
    reqs.extend((0..VERIFIES_PER_ROUND).map(|_| Req::Verify(rng.below(CORPUS.len()))));
    rng.shuffle(&mut reqs);
    reqs
}

/// What the daemon must answer to a corpus program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `verified`, with this many methods.
    Verified(u64),
    /// `error` with code `verify_rejected`.
    Rejected,
}

/// The verify corpus: three well-typed programs and one whose branch
/// arms merge an int with a float before an integer add.
pub const CORPUS: [(&str, Verdict); 4] = [
    (
        ".method main 0 2 ret\n const_i 0\n store 0\nloop: load 0\n const_i 10\n lt\n \
         br_false done\n load 0\n const_i 1\n add\n store 0\n jump loop\ndone: load 0\n ret_value",
        Verdict::Verified(1),
    ),
    (
        ".method main 0 1 ret\n const_i 1\n br_true thenarm\n const_i 2\n jump merge\n\
         thenarm: const_i 3\nmerge: store 0\n load 0\n ret_value",
        Verdict::Verified(1),
    ),
    (
        ".method main 0 0 ret\n call helper\n ret_value\n.method helper 0 0 ret\n const_i 7\n \
         ret_value",
        Verdict::Verified(2),
    ),
    (
        ".method main 0 0 ret\n const_i 1\n br_true thenarm\n const_f 2.0\n jump merge\n\
         thenarm: const_i 3\nmerge: const_i 1\n add\n ret_value",
        Verdict::Rejected,
    ),
];

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// The wire request for a cell, in the run-request vocabulary.
pub fn run_line(id: &str, tenant: &str, cfg: &ExperimentConfig) -> String {
    let collector = match cfg.vm {
        VmChoice::Jikes(CollectorKind::SemiSpace) => "semispace",
        VmChoice::Jikes(CollectorKind::MarkSweep) => "marksweep",
        VmChoice::Jikes(CollectorKind::GenCopy) => "gencopy",
        VmChoice::Jikes(CollectorKind::GenMs) => "genms",
        VmChoice::Jikes(CollectorKind::KaffeIncremental) | VmChoice::Kaffe => "kaffe",
    };
    let platform = match cfg.platform {
        PlatformKind::PentiumM => "p6",
        PlatformKind::Pxa255 => "pxa255",
    };
    let scale = match cfg.scale {
        InputScale::Full => "full",
        InputScale::Reduced => "s10",
    };
    format!(
        "{{\"op\":\"run\",\"id\":\"{id}\",\"tenant\":\"{tenant}\",\"benchmark\":\"{}\",\
         \"collector\":\"{collector}\",\"heap_mb\":{},\"platform\":\"{platform}\",\"scale\":\"{scale}\"}}",
        cfg.benchmark, cfg.heap_mb
    )
}

pub fn verify_line(id: &str, program: &str) -> String {
    format!(
        "{{\"op\":\"verify\",\"id\":\"{id}\",\"program\":\"{}\"}}",
        json_escape(program)
    )
}

/// The `kind` field of a response line.
fn kind_of(line: &str) -> &str {
    line.split_once("\"kind\":\"")
        .and_then(|(_, rest)| rest.split_once('"'))
        .map_or("", |(kind, _)| kind)
}

/// The pre-filled cache and the batch summaries every reply must match.
struct Ctx {
    seed: u64,
    cache_dir: PathBuf,
    socket: PathBuf,
    cells: Vec<ExperimentConfig>,
    /// `cells[i].key()`: the cache key the daemon looks the cell up by.
    keys: Vec<String>,
    baseline: Vec<Arc<RunSummary>>,
    digest: Digest,
    prefill_s: f64,
    problems: Vec<String>,
}

impl Ctx {
    /// Run both cold sweeps into a fresh cache: every cell is stored.
    fn prefill(work: &Path, seed: u64) -> Result<Self, String> {
        let t0 = Instant::now();
        let cache_dir = work.join("cache");
        let cache = grid::fresh_cache(&cache_dir)?;
        let mut cells = Vec::new();
        let mut baseline = Vec::new();
        let mut problems = Vec::new();
        for sweep in [Sweep::Jikes, Sweep::Kaffe] {
            let mut runners = sweep.runners(&cache, None);
            problems.extend(grid::check_goldens(
                &sweep.render(&mut runners, &mut || {})?,
            ));
            baseline.extend(grid::summaries(sweep, &mut runners)?);
            cells.extend(sweep.cells());
        }
        Ok(Ctx {
            seed,
            socket: work.join("d.sock"),
            digest: Digest::of(baseline.iter().map(Arc::as_ref)),
            keys: cells.iter().map(ExperimentConfig::key).collect(),
            cache_dir,
            cells,
            baseline,
            prefill_s: t0.elapsed().as_secs_f64(),
            problems,
        })
    }

    /// The wire lines of a round's stream, in stream order. Request `i`
    /// goes to client `i % CLIENTS`, whose tenant it names.
    fn lines(&self, round: u64, reqs: &[Req]) -> Vec<String> {
        reqs.iter()
            .enumerate()
            .map(|(i, req)| {
                let id = format!("r{round}-{i}");
                match *req {
                    Req::Run(c) => run_line(&id, &format!("t{}", i % CLIENTS), &self.cells[c]),
                    Req::Verify(p) => verify_line(&id, CORPUS[p].0),
                }
            })
            .collect()
    }
}

/// A daemon child process; killed and reaped if dropped unfinished.
struct Daemon(Child);

impl Daemon {
    fn spawn(socket: &Path, cache_dir: &Path) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
        Command::new(exe)
            .arg("--daemon")
            .arg(socket)
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map(Daemon)
            .map_err(|e| format!("cannot start daemon: {e}"))
    }

    fn connect(&mut self, socket: &Path) -> Result<Client, String> {
        let deadline = Instant::now() + CONNECT_DEADLINE;
        loop {
            if let Ok(stream) = UnixStream::connect(socket) {
                return Client::new(stream);
            }
            if let Ok(Some(status)) = self.0.try_wait() {
                return Err(format!("daemon exited before accepting: {status}"));
            }
            if Instant::now() > deadline {
                return Err("daemon never accepted a connection".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn wait(mut self) -> Result<(), String> {
        let status = self
            .0
            .wait()
            .map_err(|e| format!("cannot reap daemon: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    fn new(stream: UnixStream) -> Result<Self, String> {
        let io = |e: std::io::Error| format!("socket setup failed: {e}");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(io)?;
        let reader = BufReader::new(stream.try_clone().map_err(io)?);
        Ok(Client {
            writer: stream,
            reader,
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer
            .write_all(&buf)
            .map_err(|e| format!("send failed: {e}"))
    }

    fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("daemon hung up".into()),
            Ok(_) => Ok(line.trim_end().to_owned()),
            Err(e) => Err(format!("receive failed: {e}")),
        }
    }

    /// Read until a line of one of `kinds` arrives.
    fn until(&mut self, kinds: &[&str]) -> Result<String, String> {
        loop {
            let line = self.recv()?;
            if kinds.contains(&kind_of(&line)) {
                return Ok(line);
            }
        }
    }
}

/// What one client saw in one round.
#[derive(Default)]
struct ClientLog {
    latencies_s: Vec<f64>,
    accept_s: Vec<f64>,
    result_s: Vec<f64>,
    verify_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    bytecodes: u64,
    problems: Vec<String>,
    spans: Option<Recorder>,
}

/// One closed-loop client: send, wait for the final reply, check it,
/// send the next.
fn drive(
    client: &mut Client,
    ctx: &Ctx,
    round: u64,
    work: &[(usize, Req, &str)],
    spans: Option<Instant>,
) -> Result<ClientLog, String> {
    let mut log = ClientLog {
        spans: spans.map(Recorder::new),
        ..ClientLog::default()
    };
    for &(i, req, line) in work {
        let id = format!("r{round}-{i}");
        let own = format!("\"id\":\"{id}\"");
        let sent = Instant::now();
        client.send(line)?;
        // The executor races the `accepted` chatter line, so a result can
        // precede its own acknowledgement, which then arrives during the
        // next request and is skipped here by its id.
        let mut accepted = None;
        let reply = loop {
            let reply = client.recv()?;
            match kind_of(&reply) {
                "accepted" if reply.contains(&own) => accepted = Some(Instant::now()),
                "accepted" | "dropped" => {}
                _ => break reply,
            }
        };
        let done = Instant::now();
        log.attempted += 1;
        log.latencies_s.push((done - sent).as_secs_f64());
        let ok = match req {
            Req::Run(c) => {
                if let Some(at) = accepted {
                    log.accept_s.push((at - sent).as_secs_f64());
                    log.result_s.push((done - at).as_secs_f64());
                }
                let ok = reply == protocol::result_line(&id, &ctx.baseline[c]);
                if ok {
                    log.bytecodes += ctx.baseline[c].vm.bytecodes;
                }
                ok
            }
            Req::Verify(p) => {
                log.verify_s.push((done - sent).as_secs_f64());
                match CORPUS[p].1 {
                    Verdict::Verified(n) => {
                        kind_of(&reply) == "verified" && reply.contains(&format!("\"methods\":{n}"))
                    }
                    Verdict::Rejected => {
                        kind_of(&reply) == "error" && reply.contains("\"code\":\"verify_rejected\"")
                    }
                }
            }
        };
        if !ok {
            log.failed += 1;
            if log.problems.len() < 3 {
                log.problems
                    .push(format!("unexpected reply to {id}: {reply}"));
            }
        }
        if let Some(rec) = &mut log.spans {
            let cell = Some(u32::try_from(i).expect("small round"));
            let (s, d) = (rec.ns_since_epoch(sent), rec.ns_since_epoch(done));
            let parent = Some(rec.record(span("request", cell, s, d, None)));
            match (req, accepted) {
                (Req::Run(_), Some(at)) => {
                    let a = rec.ns_since_epoch(at);
                    rec.record(span("accept", cell, s, a, parent));
                    rec.record(span("result", cell, a, d, parent));
                }
                (Req::Run(_), None) => {
                    rec.record(span("result", cell, s, d, parent));
                }
                (Req::Verify(_), _) => {
                    rec.record(span("verify", cell, s, d, parent));
                }
            }
        }
    }
    Ok(log)
}

fn span(
    call: &'static str,
    cell: Option<u32>,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
) -> Span {
    Span {
        layer: "serve",
        call,
        cell,
        start_ns,
        end_ns,
        parent,
    }
}

/// One round: a fresh daemon, the round's stream, a clean shutdown.
struct Round {
    end: Instant,
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    rss_mb: f64,
    logs: Vec<ClientLog>,
    reqs: Vec<Req>,
    lines: Vec<String>,
}

fn round(ctx: &Ctx, index: u64, spans: Option<Instant>) -> Result<Round, String> {
    let reqs = stream(ctx.seed, index, ctx.cells.len());
    let lines = ctx.lines(index, &reqs);
    let shares: Vec<Vec<(usize, Req, &str)>> = (0..CLIENTS)
        .map(|k| {
            reqs.iter()
                .zip(&lines)
                .enumerate()
                .filter(|(i, _)| i % CLIENTS == k)
                .map(|(i, (r, l))| (i, *r, l.as_str()))
                .collect()
        })
        .collect();
    if ctx.socket.exists() {
        std::fs::remove_file(&ctx.socket).map_err(|e| format!("cannot clear socket: {e}"))?;
    }

    let cpu0 = sys::children().cpu_s;
    let t0 = Instant::now();
    let mut daemon = Daemon::spawn(&ctx.socket, &ctx.cache_dir)?;
    let mut clients = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        // A `status` round trip proves the daemon accepted the session.
        let mut client = daemon.connect(&ctx.socket)?;
        client.send("{\"op\":\"status\"}")?;
        client.until(&["status"])?;
        clients.push(client);
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let logs: Vec<Result<ClientLog, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&shares)
            .map(|(client, share)| s.spawn(move || drive(client, ctx, index, share, spans)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let end = Instant::now();
    let wall_s = (end - t1).as_secs_f64();
    let logs = logs.into_iter().collect::<Result<Vec<_>, _>>()?;
    let rss_mb = sys::peak_rss_mb_of(daemon.0.id())?;

    clients[0].send("{\"op\":\"shutdown\"}")?;
    for client in &mut clients {
        client.until(&["bye"])?;
    }
    drop(clients);
    daemon.wait()?;
    Ok(Round {
        end,
        setup_s,
        wall_s,
        cpu_s: sys::children().cpu_s - cpu0,
        rss_mb,
        logs,
        reqs,
        lines,
    })
}

/// Rounds until `seconds` have passed and `need` latencies are pooled,
/// with a host reference run before each round that is due one.
fn rounds_until(
    ctx: &Ctx,
    next: &mut u64,
    seconds: f64,
    need: usize,
    spans: Option<Instant>,
    mut host: Option<&mut HostSpeed>,
) -> Result<Vec<Round>, String> {
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        if let Some(h) = host.as_deref_mut() {
            h.mark_if_due()?;
        }
        rounds.push(round(ctx, *next, spans)?);
        *next += 1;
        let samples: usize = rounds
            .iter()
            .flat_map(|r| &r.logs)
            .map(|l| l.latencies_s.len())
            .sum();
        let t = start.elapsed().as_secs_f64();
        if (rounds.len() >= 3 && t >= seconds && samples >= need) || t >= MEASURE_CAP_S {
            return Ok(rounds);
        }
    }
}

fn pooled(rounds: &[Round], f: impl Fn(&ClientLog) -> &Vec<f64>) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(|r| &r.logs)
        .flat_map(|l| f(l).iter().copied())
        .collect()
}

fn tally(rounds: &[Round], problems: &mut Vec<String>) -> (u64, u64) {
    let logs = rounds.iter().flat_map(|r| &r.logs);
    let mut attempted = 0;
    let mut failed = 0;
    for l in logs {
        attempted += l.attempted;
        failed += l.failed;
        problems.extend(l.problems.iter().cloned());
    }
    (attempted, failed)
}

/// The untraced run.
pub fn measure(work: &Path, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let ctx = Ctx::prefill(work, seed)?;
    let mut host = HostSpeed::start(CLIENTS, REFERENCE_ROUND_TRIPS)?;
    let mut next = 0;
    // One unrecorded round lets the page cache and allocator settle.
    round(&ctx, u64::MAX, None)?;
    let need = samples_needed(0.99);
    let rounds = rounds_until(&ctx, &mut next, seconds, need, None, Some(&mut host))?;
    host.mark()?;

    let mut problems = ctx.problems.clone();
    let (attempted, failed) = tally(&rounds, &mut problems);
    // A round lasts about 40 ms, shorter than the host's stalls, so a
    // stall spoils a few rounds instead of taking its share of every one,
    // as it does of a batch pass. Every figure is therefore a median over
    // rounds, each round divided by the median slowdown around it (see
    // `host`): a median passes over the stalled rounds on both sides.
    let slow: Vec<f64> = rounds.iter().map(|r| host.slowdown(r.end)).collect();
    let per_round = |f: &dyn Fn(&Round, f64) -> f64| {
        median(
            &rounds
                .iter()
                .zip(&slow)
                .map(|(r, &s)| f(r, s))
                .collect::<Vec<_>>(),
        )
    };
    let requests = |r: &Round| r.logs.iter().map(|l| l.attempted).sum::<u64>() as f64;
    let delivered = |r: &Round| r.logs.iter().map(|l| l.bytecodes).sum::<u64>() as f64;
    let latencies = |r: &Round| -> Vec<f64> {
        r.logs
            .iter()
            .flat_map(|l| l.latencies_s.iter().copied())
            .collect()
    };
    // Each round's percentile, or `None` when a round is too short for it.
    let round_pct = |q: f64| -> Option<Vec<f64>> {
        rounds
            .iter()
            .zip(&slow)
            .map(|(r, s)| percentile(&latencies(r), q).map(|v| v / s))
            .collect()
    };

    let mut m = Metrics::default();
    m.push("setup_s", per_round(&|r, s| r.setup_s / s), "s");
    m.push("wall_s", per_round(&|r, s| r.wall_s / s), "s");
    m.push("cpu_s", per_round(&|r, s| r.cpu_s / s), "s");
    m.push(
        "peak_rss_mb",
        rounds.iter().map(|r| r.rss_mb).fold(0.0, f64::max),
        "MB",
    );
    m.push(
        "sim_mbc_per_s",
        per_round(&|r, s| delivered(r) * s / r.wall_s / 1e6),
        "Mbc/s",
    );
    m.push(
        "req_per_s",
        per_round(&|r, s| requests(r) * s / r.wall_s),
        "1/s",
    );
    let (p50, p99) = (round_pct(0.5), round_pct(0.99));
    if p99.is_none() {
        problems.push(format!("a round holds fewer than {need} request latencies"));
    }
    m.push("req_p50_ms", p50.map_or(0.0, |v| median(&v)) * 1e3, "ms");
    m.push("req_p99_ms", p99.map_or(0.0, |v| median(&v)) * 1e3, "ms");
    let per = attempted as usize / rounds.len();
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
        digest: ctx.digest,
        problems,
        notes: vec![
            format!(
                "prefill {:.3} s ({} cells); {} rounds of {} requests, one more unrecorded",
                ctx.prefill_s,
                ctx.cells.len(),
                rounds.len(),
                RUNS_PER_ROUND + VERIFIES_PER_ROUND
            ),
            host.note(),
            format!(
                "undivided wall_s {:.6} s",
                median(&rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>())
            ),
            format!(
                "request = one wire request; {per} latency samples per round \
                 (its p99 rests on {} beyond it); figures are medians over rounds",
                beyond(per, 0.99)
            ),
        ],
        spans: None,
    })
}

/// Outside-in replay of a round's stream through the serve layers'
/// public calls: parse every line, look each distinct cell up once
/// through a fresh cache handle, encode every result, and assemble and
/// verify every corpus program.
/// One round's outside-in replay.
struct Replayed {
    rec: Recorder,
    wall_s: f64,
    hits: u64,
    probes: u64,
}

fn replay(ctx: &Ctx, round: &Round, epoch: Instant) -> Result<Replayed, String> {
    let mut rec = Recorder::new(epoch);
    let cache =
        ExperimentCache::open(&ctx.cache_dir).map_err(|e| format!("cannot reopen cache: {e}"))?;
    let mut looked = vec![false; ctx.cells.len()];
    let (mut hits, mut probes) = (0, 0);
    let t0 = Instant::now();
    let root = rec.open("core.serve", "replay", None, None);
    for (i, (req, line)) in round.reqs.iter().zip(&round.lines).enumerate() {
        let id = Some(u32::try_from(i).expect("small round"));
        // Each closure drops its result inside its span, so the
        // deallocation is charged to the layer that allocated.
        let parsed = rec.time("core.serve", "parse", id, Some(root), || {
            protocol::parse_request(line).is_ok()
        });
        if !parsed {
            return Err(format!("request {i} does not parse"));
        }
        match *req {
            Req::Run(c) => {
                if !looked[c] {
                    looked[c] = true;
                    probes += 1;
                    let key = &ctx.keys[c];
                    let hit = rec.time("core.cache", "lookup", id, Some(root), || {
                        matches!(cache.lookup(key), CacheLookup::Hit(_))
                    });
                    hits += u64::from(hit);
                }
                let summary = &ctx.baseline[c];
                rec.time("core.serve", "encode", id, Some(root), || {
                    std::hint::black_box(protocol::result_line("replay", summary)).len()
                });
            }
            Req::Verify(p) => {
                let verdict = rec.time("analysis", "verify", id, Some(root), || {
                    vmprobe_bytecode::assemble(CORPUS[p].0)
                        .map_err(|e| e.to_string())
                        .and_then(|prog| {
                            vmprobe_analysis::verify_program(&prog)
                                .map(|_| prog.method_count())
                                .map_err(|e| e.to_string())
                        })
                });
                let expected = match CORPUS[p].1 {
                    Verdict::Verified(n) => verdict.ok() == Some(n as usize),
                    Verdict::Rejected => verdict.is_err(),
                };
                if !expected {
                    return Err(format!("corpus program {p} got the wrong verdict"));
                }
            }
        }
    }
    rec.close(root);
    Ok(Replayed {
        rec,
        wall_s: t0.elapsed().as_secs_f64(),
        hits,
        probes,
    })
}

const REPLAY_LEAVES: [(&str, &str); 4] = [
    ("core.serve", "parse"),
    ("core.cache", "lookup"),
    ("core.serve", "encode"),
    ("analysis", "verify"),
];

/// The traced run: untraced rounds, then rounds with client-side spans,
/// each followed by an outside-in replay of its stream.
pub fn trace(work: &Path, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let ctx = Ctx::prefill(work, seed)?;
    let mut next = 0;
    round(&ctx, u64::MAX, None)?;
    let cold = rounds_until(&ctx, &mut next, seconds / 3.0, 0, None, None)?;
    let epoch = Instant::now();
    let traced = rounds_until(&ctx, &mut next, seconds / 3.0, 0, Some(epoch), None)?;

    let mut problems = ctx.problems.clone();
    let (mut attempted, mut failed) = tally(&cold, &mut problems);
    let (a, f) = tally(&traced, &mut problems);
    attempted += a;
    failed += f;

    let mut all = Recorder::new(epoch);
    let per_round = traced
        .iter()
        .map(|r| replay(&ctx, r, epoch))
        .collect::<Result<Vec<_>, _>>()?;
    let med = |f: &dyn Fn(&Replayed) -> f64| median(&per_round.iter().map(f).collect::<Vec<_>>());
    let layer = |l: &'static str, c: &'static str| med(&|p| p.rec.total(l, c));
    let residual = med(&|p| {
        p.wall_s
            - REPLAY_LEAVES
                .iter()
                .map(|(l, c)| p.rec.total(l, c))
                .sum::<f64>()
    });
    let replay_wall = med(&|p| p.wall_s);
    if residual > 0.05 * replay_wall {
        problems.push(format!(
            "layer spans leave {residual:.6} s of a {replay_wall:.6} s replay uncovered"
        ));
    }
    let hits: u64 = per_round.iter().map(|p| p.hits).sum();
    let probes: u64 = per_round.iter().map(|p| p.probes).sum();
    let hit_ratio = hits as f64 / probes as f64;
    if hits != probes {
        problems.push(format!("fresh-handle lookups hit {hits} of {probes}"));
    }
    // Means, as for `wall_s` itself.
    let untraced_wall = mean(&cold.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let traced_wall = mean(&traced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let p50 = |v: Vec<f64>| percentile(&v, 0.5).unwrap_or(0.0) * 1e3;
    let pairs = vec![
        ("serve.accept_ms_p50", p50(pooled(&traced, |l| &l.accept_s))),
        ("serve.result_ms_p50", p50(pooled(&traced, |l| &l.result_s))),
        ("serve.verify_ms_p50", p50(pooled(&traced, |l| &l.verify_s))),
        ("core.serve.parse_s", layer("core.serve", "parse")),
        ("core.serve.encode_s", layer("core.serve", "encode")),
        ("core.cache.lookup_s", layer("core.cache", "lookup")),
        ("analysis.verify_s", layer("analysis", "verify")),
        ("core.runner.residual_s", residual),
        ("trace.wall_s", traced_wall),
        ("trace.overhead_s", traced_wall - untraced_wall),
        ("core.cache.entry_kb", grid::mean_entry_kb(&ctx.cache_dir)),
        ("core.cache.hit_ratio", hit_ratio),
    ];
    for r in traced {
        for mut log in r.logs {
            if let Some(rec) = log.spans.take() {
                all.absorb(rec);
            }
        }
    }
    let rounds = per_round.len();
    for p in per_round {
        all.absorb(p.rec);
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: crate::per_layer(&pairs),
        digest: ctx.digest,
        problems,
        notes: vec![
            format!(
                "{} untraced rounds (wall {untraced_wall:.4} s), {rounds} traced rounds (wall {traced_wall:.4} s)",
                cold.len()
            ),
            format!(
                "tracing overhead {:.4} s per round; replay wall {replay_wall:.6} s",
                traced_wall - untraced_wall
            ),
        ],
        spans: Some(all),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_a_pure_function_of_seed_and_round() {
        assert_eq!(stream(7, 3, 48), stream(7, 3, 48));
        assert_ne!(stream(7, 3, 48), stream(8, 3, 48));
        assert_ne!(stream(7, 3, 48), stream(7, 4, 48));
    }

    #[test]
    fn stream_asks_for_every_cell_and_mixes_in_verifies() {
        let s = stream(42, 0, 48);
        assert_eq!(s.len(), RUNS_PER_ROUND + VERIFIES_PER_ROUND);
        for c in 0..48 {
            assert!(s.contains(&Req::Run(c)), "cell {c} never asked for");
        }
        let verifies = s.iter().filter(|r| matches!(r, Req::Verify(_))).count();
        let share = verifies as f64 / s.len() as f64;
        assert!((0.09..0.11).contains(&share), "verify share {share}");
        for p in 0..CORPUS.len() {
            assert!(s.contains(&Req::Verify(p)), "program {p} never sent");
        }
    }

    #[test]
    fn corpus_verdicts_hold_in_process() {
        for (i, (text, verdict)) in CORPUS.iter().enumerate() {
            let got = vmprobe_bytecode::assemble(text)
                .map_err(|e| e.to_string())
                .and_then(|p| {
                    vmprobe_analysis::verify_program(&p)
                        .map(|_| p.method_count() as u64)
                        .map_err(|e| e.to_string())
                });
            match verdict {
                Verdict::Verified(n) => assert_eq!(got, Ok(*n), "program {i}"),
                Verdict::Rejected => assert!(got.is_err(), "program {i} must be rejected"),
            }
        }
    }

    #[test]
    fn wire_lines_parse_back_to_the_same_cell() {
        for sweep in [Sweep::Jikes, Sweep::Kaffe] {
            for cfg in sweep.cells() {
                match protocol::parse_request(&run_line("x", "t0", &cfg)) {
                    Ok(protocol::Request::Run(run)) => assert_eq!(run.config.key(), cfg.key()),
                    other => panic!("{cfg}: {other:?}"),
                }
            }
        }
        assert!(protocol::parse_request(&verify_line("v", CORPUS[0].0)).is_ok());
    }

    #[test]
    fn kinds_are_read_from_response_lines() {
        assert_eq!(
            kind_of("{\"ok\":true,\"kind\":\"accepted\",\"id\":\"a\"}"),
            "accepted"
        );
        assert_eq!(kind_of("{\"ok\":false}"), "");
    }
}
