//! `vmprobe-serve`: a fault-contained multi-tenant experiment daemon.
//!
//! Batch mode (`vmprobe-run`) pays for a sweep once and exits; the serving
//! daemon keeps the engine resident so many clients — CI shards, notebook
//! sessions, parameter-scan scripts — can share one warm process, one
//! sweep pool and one content-addressed result cache. Requests
//! arrive as line-delimited JSON over a local Unix socket
//! ([`protocol`]); admission control, per-tenant fairness, quarantine
//! and the drain flag live in [`scheduler`]; per-connection backpressure
//! in [`session`]; the resource envelope in [`limits`].
//!
//! # Request path
//!
//! The accept loop waits in `poll(2)` on the listener, so a connection is
//! accepted as soon as it arrives. A connection's reader thread answers
//! most requests itself, warm runs included ([`session`]): a run is warm
//! when its cell is memoized or restorable from the persistent cache, and
//! the reader then sends its `accepted` line and its result in one write.
//! Only runs that must simulate, whose cell is in flight, or whose tenant
//! has work outstanding cross to the executor thread and its
//! sweep pool. Either way [`HistId::ServeResultUs`] records the
//! host time from admission to the result line.
//!
//! # Robustness envelope
//!
//! The daemon's contract mirrors a supervised-VM `spawn` boundary:
//!
//! * every failure a request can cause — bad JSON, a VM fault, an
//!   injected OOM, even a panic inside the experiment — becomes a typed
//!   error *line* for that request, never a dead worker or a dead daemon
//!   (the runner executes with
//!   [`Runner::contain_panics`](crate::Runner::contain_panics));
//! * admission is bounded: a full queue answers `queue_full` (the HTTP
//!   429 analogue) immediately instead of queueing unboundedly;
//! * slow readers shed chatter, with counts, never results
//!   ([`session::Outbox`]);
//! * tenants whose requests keep failing are quarantined for a
//!   deterministic cooldown measured in admission sequence numbers
//!   ([`scheduler`]), visible in `status`;
//! * SIGTERM or the `shutdown` op drains gracefully, in one order: stop
//!   accepting and refuse new work; shut each connection's read half and
//!   join its reader, which finishes the request in hand; let the
//!   executor empty the queue; then say `bye`, close the outboxes and
//!   flush them (for at most `FLUSH_TIMEOUT`). Every admitted request
//!   is answered before `bye`; the final [`RunReport`](crate::RunReport)
//!   and metrics are written, and the process exits 0.
//!
//! Determinism is preserved: the daemon runs a counters-only telemetry
//! hub and applies no envelope caps by default, so a healthy request
//! produces a result line byte-identical to batch mode rendering the same
//! summary through [`protocol::result_line`].

pub mod limits;
pub mod protocol;
pub mod scheduler;
pub mod session;

use std::net::Shutdown;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vmprobe_telemetry::{CounterId, HistId, Telemetry};

use crate::json::JsonObj;
use crate::{ExperimentCache, Runner};

use limits::Envelope;
use scheduler::{Job, Scheduler};
use session::SessionHandle;

/// How long the accept loop waits for a connection before it checks for
/// a drain again.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// How long the drain's final flush may take: a connection whose client
/// has not read its last lines by then is given up on.
const FLUSH_TIMEOUT: Duration = Duration::from_secs(2);

/// Signal-handler-set shutdown request (SIGTERM/SIGINT): static because a
/// signal handler can touch nothing else safely. The accept loop turns it
/// into the scheduler's drain.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Route SIGTERM and SIGINT to the shutdown request. Declares libc's `signal`
/// directly — the symbol is always present on Unix and the build stays
/// dependency-free.
fn install_signal_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    let handler = on_signal as extern "C" fn(i32) as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

/// Wait until `listener` has a connection to accept, `timeout` passes,
/// or a signal arrives. Declares libc's `poll` directly, like `signal`.
fn wait_for_connection(listener: &UnixListener, timeout: Duration) {
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    const POLLIN: i16 = 1;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout_ms: i32) -> i32;
    }
    let mut fd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout_ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
    // SAFETY: one valid `pollfd` for the duration of the call. Every
    // outcome (ready, timed out, interrupted) sends the caller back round
    // its accept loop, so the result is not needed.
    unsafe {
        poll(&mut fd, 1, timeout_ms);
    }
}

/// Operator configuration for one daemon instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix socket path to listen on (a stale file is replaced).
    pub socket: PathBuf,
    /// Worker threads for the experiment pool.
    pub jobs: usize,
    /// Persistent experiment cache directory, shared across tenants.
    pub cache_dir: Option<PathBuf>,
    /// Admission queue bound (jobs across all tenants).
    pub queue_cap: usize,
    /// Per-connection outbox bound (chatter lines).
    pub outbox_cap: usize,
    /// Consecutive failures before a tenant is quarantined (0 = never).
    pub quarantine_threshold: u32,
    /// Quarantine length in admission sequence numbers.
    pub quarantine_cooldown: u64,
    /// Per-request resource envelope.
    pub envelope: Envelope,
    /// Write the final Prometheus dump here on shutdown.
    pub metrics_out: Option<PathBuf>,
    /// Write the final `RunReport` JSON here on shutdown.
    pub report_json: Option<PathBuf>,
    /// Narrate admissions and results on stderr.
    pub verbose: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            socket: PathBuf::from("vmprobe.sock"),
            jobs: crate::default_jobs(),
            cache_dir: None,
            queue_cap: 64,
            outbox_cap: 256,
            quarantine_threshold: 3,
            quarantine_cooldown: 16,
            envelope: Envelope::default(),
            metrics_out: None,
            report_json: None,
            verbose: false,
        }
    }
}

/// State shared between the accept loop, every session and the executor.
#[derive(Debug)]
pub struct ServeShared {
    /// Admission queue, tenant table and drain flag.
    pub scheduler: Scheduler,
    /// Counters-only hub (summaries must stay byte-identical to batch
    /// mode, so span recording is never enabled here).
    pub telemetry: Telemetry,
    /// The resource envelope applied to every request.
    pub envelope: Envelope,
    /// Per-connection outbox bound.
    pub outbox_cap: usize,
    /// The daemon's one runner: the executor's batches, the readers'
    /// inline restores and every `diff` and `observe` resolve cells
    /// through its memo, persistent cache and report.
    runner: Runner,
    /// Narrate admissions and results on stderr.
    verbose: bool,
}

impl ServeShared {
    /// Render the `status` response line.
    pub fn status_line(&self) -> String {
        let s = self.scheduler.status();
        let tenants = s.tenants.iter().map(|row| {
            let mut o = JsonObj::new();
            o.str("tenant", &row.tenant)
                .u64("failure_streak", u64::from(row.failure_streak))
                .u64("queued", row.queued as u64)
                .bool("quarantined", row.release_at.is_some());
            if let Some(at) = row.release_at {
                o.u64("release_at_seq", at);
            }
            o.finish()
        });
        let mut o = JsonObj::new();
        o.bool("ok", true).str("kind", "status");
        o.schema_version()
            .bool("draining", s.draining)
            .u64("queued", s.queued as u64)
            .u64("admission_seq", s.admitted_seq)
            .u64("cache_hits", self.telemetry.counter(CounterId::CacheHits))
            .u64(
                "results_delivered",
                self.telemetry.counter(CounterId::ServeResults),
            )
            .u64(
                "verify_rejected",
                self.telemetry.counter(CounterId::ServeVerifyRejected),
            )
            .array("tenants", tenants);
        o.finish()
    }
}

/// The executor loop: drain round-robin batches from the scheduler,
/// run them on the supervised pool, deliver one line per job.
fn executor(shared: &ServeShared, batch_max: usize) {
    while let Some(jobs) = shared.scheduler.next_batch(batch_max) {
        let batch: Vec<_> = jobs.iter().map(|j| (j.config.clone(), j.plan)).collect();
        let results = shared.runner.run_batch_with_plans(&batch);
        for (job, result) in jobs.iter().zip(results) {
            deliver(shared, job, result, None);
            shared.scheduler.finish(&job.tenant);
        }
    }
}

/// Turn one runner result into one response line, with quarantine
/// accounting. Both the executor and a reader answering a warm run
/// inline deliver through here; the reader passes its `accepted` line as
/// `ack`, to go out with the result in one write.
fn deliver(
    shared: &ServeShared,
    job: &Job,
    result: Result<Arc<crate::RunSummary>, crate::ExperimentError>,
    ack: Option<String>,
) {
    let verbose = shared.verbose;
    let (line, ok) = match result {
        Ok(summary) => match shared.envelope.check_deadline(&summary) {
            Ok(()) => (protocol::result_line(&job.id, &summary), true),
            Err((code, msg)) => (protocol::error_line(Some(&job.id), code, &msg), false),
        },
        Err(err) => (
            protocol::error_line(Some(&job.id), protocol::code_for(&err), &err.to_string()),
            false,
        ),
    };
    if let Some(release_at) = shared.scheduler.record_outcome(&job.tenant, ok) {
        if verbose {
            eprintln!(
                "vmprobe-serve: tenant '{}' quarantined until admission seq {release_at}",
                job.tenant
            );
        }
    }
    shared.telemetry.count(CounterId::ServeResults, 1);
    shared.telemetry.observe(
        HistId::ServeResultUs,
        crate::runner::micros_since(job.admitted),
    );
    match ack {
        Some(ack) => job.outbox.push_with_ack(ack, line),
        None => job.outbox.push_must(line),
    };
    if verbose {
        eprintln!(
            "vmprobe-serve: {} '{}' for tenant '{}'",
            if ok { "completed" } else { "failed" },
            job.id,
            job.tenant
        );
    }
}

/// Run the daemon until SIGTERM/SIGINT or a `shutdown` request, then
/// drain and exit cleanly.
///
/// # Errors
///
/// A rendered message when the socket cannot be bound, the cache cannot
/// be opened, or a final artifact cannot be written. Per-request failures
/// never surface here — they are response lines.
pub fn serve(config: ServeConfig) -> Result<(), String> {
    SHUTDOWN.store(false, Ordering::SeqCst);
    install_signal_handlers();

    // Counters only: span recording would flip `record_spans` on every
    // config and change summaries/cache keys away from batch mode.
    let telemetry = Telemetry::counters_only();
    let jobs = config.jobs.max(1);
    let mut runner = Runner::new()
        .jobs(jobs)
        .contain_panics(true)
        .with_telemetry(telemetry.clone());
    if let Some(dir) = &config.cache_dir {
        let cache = ExperimentCache::open(dir)
            .map_err(|e| format!("cannot open cache dir {}: {e}", dir.display()))?;
        runner = runner.with_cache(Arc::new(cache));
    }
    let shared = Arc::new(ServeShared {
        scheduler: Scheduler::new(
            config.queue_cap,
            config.quarantine_threshold,
            config.quarantine_cooldown,
            telemetry.clone(),
        ),
        telemetry: telemetry.clone(),
        envelope: config.envelope,
        outbox_cap: config.outbox_cap,
        runner,
        verbose: config.verbose,
    });

    // Replace a stale socket file from a previous unclean exit.
    if config.socket.exists() {
        std::fs::remove_file(&config.socket).map_err(|e| {
            format!(
                "cannot replace stale socket {}: {e}",
                config.socket.display()
            )
        })?;
    }
    let listener = UnixListener::bind(&config.socket)
        .map_err(|e| format!("cannot bind {}: {e}", config.socket.display()))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot set socket nonblocking: {e}"))?;
    if config.verbose {
        eprintln!(
            "vmprobe-serve: listening on {} ({} workers)",
            config.socket.display(),
            jobs
        );
    }

    let executor_handle = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || executor(&shared, jobs))
    };

    let mut sessions: Vec<SessionHandle> = Vec::new();
    loop {
        if SHUTDOWN.load(Ordering::SeqCst) {
            shared.scheduler.drain();
        }
        if shared.scheduler.draining() {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => match session::spawn(stream, Arc::clone(&shared)) {
                Ok(handle) => sessions.push(handle),
                Err(e) => eprintln!("vmprobe-serve: cannot start session: {e}"),
            },
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                wait_for_connection(&listener, ACCEPT_POLL);
            }
            Err(e) => return Err(format!("accept failed: {e}")),
        }
    }

    // 1. New work is refused; stop accepting connections too.
    drop(listener);
    if config.verbose {
        eprintln!("vmprobe-serve: draining…");
    }
    // 2. Stop reading. Each reader answers what its socket already holds
    //    (new work gets `draining`) without waiting for outbox room, then
    //    returns, so joining it finishes the request in hand, a `diff` or
    //    `observe` included.
    for handle in &sessions {
        let _ = handle.stream.shutdown(Shutdown::Read);
        handle.outbox.release_reader();
    }
    let writers: Vec<_> = sessions
        .into_iter()
        .map(|handle| {
            let _ = handle.reader.join();
            (handle.outbox, handle.stream, handle.writer)
        })
        .collect();
    // 3. No reader holds a run now: the executor empties the queue and
    //    exits, delivering every queued response.
    let _ = executor_handle.join();
    // 4. Say goodbye and flush. A client that does not read its last
    //    lines within the flush bound is cut off, so it cannot hold the
    //    daemon open.
    let mut bye = JsonObj::new();
    bye.bool("ok", true).str("kind", "bye");
    let bye = bye.finish();
    for (outbox, ..) in &writers {
        outbox.push_must(bye.clone());
        outbox.close();
    }
    let deadline = Instant::now() + FLUSH_TIMEOUT;
    for (_, stream, writer) in writers {
        while !writer.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let _ = stream.shutdown(Shutdown::Both);
        let _ = writer.join();
    }
    let _ = std::fs::remove_file(&config.socket);

    // Every reader has returned, so the report covers every cell the
    // daemon resolved, a `diff` or `observe` still running at the drain
    // included.
    if let Some(dest) = &config.report_json {
        std::fs::write(dest, shared.runner.report().to_json())
            .map_err(|e| format!("cannot write report to {}: {e}", dest.display()))?;
    }
    if let Some(dest) = &config.metrics_out {
        std::fs::write(dest, telemetry.snapshot().prometheus())
            .map_err(|e| format!("cannot write metrics to {}: {e}", dest.display()))?;
    }
    if config.verbose {
        eprintln!("vmprobe-serve: done");
    }
    Ok(())
}

/// Drive one connection from a test: see `tests/serve_soak.rs`.
#[doc(hidden)]
pub fn connect(socket: &std::path::Path) -> std::io::Result<UnixStream> {
    UnixStream::connect(socket)
}
