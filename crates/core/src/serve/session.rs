//! Per-connection plumbing: the bounded outbox and the reader/writer
//! thread pair.
//!
//! Each accepted connection gets two threads. The **reader** parses one
//! request per line and answers what it can on the spot: admission
//! decisions, `status`, `verify`, `diff` and `observe` (on the daemon's
//! runner, so their cells share its memo, cache and report), and a `run`
//! whose tenant has nothing queued or executing and whose cell needs no
//! simulation — memoized, or restorable from the persistent cache
//! ([`Runner::restore`](crate::Runner::restore), which never waits on a
//! cell in flight). Every other `run` goes to the shared executor thread,
//! which pushes its result into the outbox of the connection that
//! submitted it.
//!
//! A line pushed while nothing is queued goes straight to the socket with
//! a non-blocking `send`, and a run answered inline sends its `accepted`
//! line and its result in that one `send`; the **writer** thread only
//! drains the backlog a full socket leaves behind. A slow client
//! therefore never blocks the executor (the [`Outbox`]'s drop policy
//! absorbs it), and the reader stops reading a client's requests while
//! that client's outbox is full.
//!
//! `run`, `diff` and `observe` pass one admission path: the resource
//! envelope, the benchmark-name lookup, then the scheduler's draining
//! gate (a `run` then meets the scheduler's own gates). The shipped
//! benchmarks are not verified here: the class loader verifies every
//! non-boot class as it loads it. The `verify` op verifies a program a
//! tenant submits.
//!
//! At a drain the daemon shuts each connection's read half and releases
//! its reader from the wait for outbox room
//! (`Outbox::release_reader`): the reader answers what the socket
//! already holds — new work gets `draining` — and returns, finishing the
//! request in hand before the daemon says `bye`.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use vmprobe_telemetry::{CounterId, Telemetry};

use super::protocol::{self, ErrorCode, Request, MAX_LINE_BYTES};
use super::scheduler::{Admitted, Job};
use super::ServeShared;
use crate::json::JsonObj;
use crate::sweep::lock_unpoisoned;
use crate::ExperimentConfig;

/// `MSG_DONTWAIT | MSG_NOSIGNAL`: one send that never blocks, and a gone
/// peer as `EPIPE` rather than a signal.
#[cfg(target_os = "linux")]
const SEND_FLAGS: i32 = 0x40 | 0x4000;
/// `MSG_DONTWAIT` (BSD value); the Rust runtime already ignores SIGPIPE.
#[cfg(not(target_os = "linux"))]
const SEND_FLAGS: i32 = 0x80;

/// Send what the socket takes of `bytes` without blocking. The socket
/// stays blocking (`O_NONBLOCK` would be shared with the writer's cloned
/// fd), so this passes `MSG_DONTWAIT` to libc's `send`, declared directly
/// to keep the build dependency-free.
fn send_now(socket: &UnixStream, bytes: &[u8]) -> std::io::Result<usize> {
    extern "C" {
        fn send(fd: i32, buf: *const u8, len: usize, flags: i32) -> isize;
    }
    // SAFETY: the fd is open for as long as `socket` is borrowed, and the
    // buffer is valid for `bytes.len()` bytes.
    let sent = unsafe { send(socket.as_raw_fd(), bytes.as_ptr(), bytes.len(), SEND_FLAGS) };
    usize::try_from(sent).map_err(|_| std::io::Error::last_os_error())
}

#[derive(Debug, Default)]
struct OutState {
    /// Bytes waiting for the writer, one `\n`-terminated line each; the
    /// first may be the unsent tail of a line the socket took part of.
    lines: VecDeque<Vec<u8>>,
    /// The writer is writing bytes it popped: later lines must queue.
    writing: bool,
    /// Chatter lines shed while the queue was full, not yet reported.
    dropped_pending: u64,
    /// No further pushes are accepted; the writer exits once drained.
    closed: bool,
    /// The read half is shut: the reader no longer waits for room.
    reader_released: bool,
}

/// A bounded per-connection output queue with a two-tier drop policy.
///
/// * **Essential** lines (results, errors, the shutdown notice) always
///   enqueue: losing a response would violate the daemon's delivery
///   contract. Their count is bounded by the admission queue, so the
///   overshoot past `cap` is bounded too.
/// * **Chatter** (acceptance acks, status payloads) is shed when the
///   queue is full — counted, and confessed to the client with a
///   `{"kind":"dropped","count":N}` line once the queue has space again.
///
/// With a socket attached ([`Outbox::with_socket`]), a line pushed while
/// nothing is queued and the writer is idle is sent at once; only what
/// the socket does not take is queued. This is slow-reader backpressure
/// without executor stalls: the shared executor never blocks on one
/// tenant's unread socket.
#[derive(Debug)]
pub struct Outbox {
    state: Mutex<OutState>,
    /// Signalled when a line is queued or the outbox closes.
    ready: Condvar,
    /// Signalled when the writer takes a line or the outbox closes.
    room: Condvar,
    cap: usize,
    telemetry: Telemetry,
    /// The connection, for write-through sends.
    socket: Option<UnixStream>,
}

impl Outbox {
    /// A queue-only outbox shedding chatter beyond `cap` queued lines.
    pub fn new(cap: usize, telemetry: Telemetry) -> Self {
        Self {
            state: Mutex::new(OutState::default()),
            ready: Condvar::new(),
            room: Condvar::new(),
            cap: cap.max(1),
            telemetry,
            socket: None,
        }
    }

    /// Write lines through to `socket` whenever nothing is queued ahead
    /// of them.
    pub fn with_socket(mut self, socket: UnixStream) -> Self {
        self.socket = Some(socket);
        self
    }

    /// Send or queue a droppable line. Returns `false` (and counts the
    /// drop) when the queue is full, or when the connection is gone.
    pub fn push(&self, line: String) -> bool {
        let mut s = lock_unpoisoned(&self.state);
        if s.closed {
            return false;
        }
        self.push_chatter(&mut s, line)
    }

    /// Shed and count `line` when `cap` lines are queued, else send or
    /// queue it after any pending confession.
    fn push_chatter(&self, s: &mut OutState, line: String) -> bool {
        if s.lines.len() >= self.cap {
            s.dropped_pending += 1;
            self.telemetry.count(CounterId::ServeDroppedLines, 1);
            return false;
        }
        self.confess_drops(s);
        self.enqueue(s, line)
    }

    /// Send or queue an essential line (results, errors): never shed, may
    /// overshoot `cap` (bounded by the admission queue). Returns `false`
    /// only when the connection is gone.
    pub fn push_must(&self, line: String) -> bool {
        let mut s = lock_unpoisoned(&self.state);
        if s.closed {
            return false;
        }
        self.confess_drops(&mut s);
        self.enqueue(&mut s, line)
    }

    /// A droppable `ack` and then an essential `line`, as
    /// [`Outbox::push`] then [`Outbox::push_must`] — except that when
    /// nothing is queued and the writer is idle, both go out in one
    /// `send`, and the ack is not shed. Returns `false` only when the
    /// connection is gone.
    pub fn push_with_ack(&self, ack: String, line: String) -> bool {
        let mut s = lock_unpoisoned(&self.state);
        if s.closed {
            return false;
        }
        if s.lines.is_empty() && !s.writing {
            self.confess_drops(&mut s);
            let mut both = String::with_capacity(ack.len() + line.len() + 2);
            both.push_str(&ack);
            both.push('\n');
            both.push_str(&line);
            return self.enqueue(&mut s, both);
        }
        self.push_chatter(&mut s, ack);
        self.confess_drops(&mut s);
        self.enqueue(&mut s, line)
    }

    /// If drops are pending and there is room, own up to them in-band.
    fn confess_drops(&self, s: &mut OutState) {
        if s.dropped_pending > 0 && s.lines.len() < self.cap {
            let mut o = JsonObj::new();
            o.bool("ok", true)
                .str("kind", "dropped")
                .u64("count", s.dropped_pending);
            s.dropped_pending = 0;
            self.enqueue(s, o.finish());
        }
    }

    /// Send `line` and its newline straight to the socket when nothing is
    /// queued and the writer is idle; queue whatever the socket does not
    /// take, a partial send's tail first in line. `false` when the peer
    /// is gone (the outbox is then abandoned).
    fn enqueue(&self, s: &mut OutState, line: String) -> bool {
        if s.closed {
            return false;
        }
        let mut bytes = line.into_bytes();
        bytes.push(b'\n');
        let idle = s.lines.is_empty() && !s.writing;
        if let Some(socket) = self.socket.as_ref().filter(|_| idle) {
            match send_now(socket, &bytes) {
                Ok(sent) if sent == bytes.len() => return true,
                Ok(sent) => {
                    bytes.drain(..sent);
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                Err(_) => {
                    self.abandon(s);
                    return false;
                }
            }
        }
        s.lines.push_back(bytes);
        self.ready.notify_all();
        true
    }

    /// Stop accepting lines; the writer exits once the backlog is flushed.
    pub fn close(&self) {
        let mut s = lock_unpoisoned(&self.state);
        s.closed = true;
        self.ready.notify_all();
        self.room.notify_all();
    }

    /// Abandon everything (peer is gone): close and discard the backlog.
    fn abort(&self) {
        self.abandon(&mut lock_unpoisoned(&self.state));
    }

    fn abandon(&self, s: &mut OutState) {
        s.closed = true;
        s.lines.clear();
        self.ready.notify_all();
        self.room.notify_all();
    }

    /// Block for the next bytes to write (a whole line with its newline,
    /// or a tail); `None` once closed and drained. Calling again means the
    /// previous bytes are written.
    fn pop_blocking(&self) -> Option<Vec<u8>> {
        let mut s = lock_unpoisoned(&self.state);
        s.writing = false;
        loop {
            if let Some(bytes) = s.lines.pop_front() {
                s.writing = true;
                self.room.notify_all();
                return Some(bytes);
            }
            if s.closed {
                return None;
            }
            s = self.ready.wait(s).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Block while `cap` or more lines are queued: a client that stops
    /// reading its replies stops being read, until
    /// [`Outbox::release_reader`].
    fn wait_for_room(&self) {
        let mut s = lock_unpoisoned(&self.state);
        while s.lines.len() >= self.cap && !s.closed && !s.reader_released {
            s = self.room.wait(s).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// The connection's read half is shut: let the reader answer what the
    /// socket still holds without waiting for room. What it pushes is
    /// bounded by those few buffered lines.
    pub(super) fn release_reader(&self) {
        lock_unpoisoned(&self.state).reader_released = true;
        self.room.notify_all();
    }

    /// Lines currently queued (tests and status).
    pub fn depth(&self) -> usize {
        lock_unpoisoned(&self.state).lines.len()
    }
}

/// Handles to one live connection.
pub(super) struct SessionHandle {
    pub(super) outbox: Arc<Outbox>,
    pub(super) stream: UnixStream,
    pub(super) reader: JoinHandle<()>,
    pub(super) writer: JoinHandle<()>,
}

/// Spawn the reader/writer pair for one accepted connection.
pub(super) fn spawn(
    stream: UnixStream,
    shared: Arc<ServeShared>,
) -> std::io::Result<SessionHandle> {
    let outbox = Arc::new(
        Outbox::new(shared.outbox_cap, shared.telemetry.clone()).with_socket(stream.try_clone()?),
    );

    let write_half = stream.try_clone()?;
    let writer = {
        let outbox = Arc::clone(&outbox);
        std::thread::spawn(move || {
            let mut out = write_half;
            while let Some(bytes) = outbox.pop_blocking() {
                if out.write_all(&bytes).is_err() {
                    outbox.abort();
                    return;
                }
            }
            let _ = out.flush();
        })
    };

    let read_half = stream.try_clone()?;
    let reader = {
        let outbox = Arc::clone(&outbox);
        std::thread::spawn(move || {
            let mut input = BufReader::new(read_half);
            let mut line = Vec::new();
            while let Ok(true) = read_line_capped(&mut input, &mut line) {
                if std::str::from_utf8(&line).is_ok_and(|l| l.trim().is_empty()) {
                    continue;
                }
                outbox.wait_for_room();
                handle_line(&line, &outbox, &shared);
            }
            // End of input: the peer hung up or the drain shut the read
            // half. The outbox stays open for the executor's results
            // until the drain closes it.
        })
    };

    Ok(SessionHandle {
        outbox,
        stream,
        reader,
        writer,
    })
}

/// Read one line into `line` without its `\n` (or `\r\n`), keeping at
/// most `MAX_LINE_BYTES + 1` bytes of it: enough for the parser to see
/// that it is over-long, while the rest is discarded through its newline.
/// A last line without a newline still counts; `Ok(false)` at end of
/// stream.
fn read_line_capped(input: &mut impl BufRead, line: &mut Vec<u8>) -> std::io::Result<bool> {
    line.clear();
    let limit = MAX_LINE_BYTES as u64 + 1;
    if input.by_ref().take(limit).read_until(b'\n', line)? == 0 {
        return Ok(false);
    }
    let ended = if line.last() == Some(&b'\n') {
        line.pop();
        true
    } else {
        // Cut at the limit, or the stream ended: discard the rest of the
        // line. A newline right after the limit still ends it whole.
        input.skip_until(b'\n')? == 1
    };
    if ended && line.last() == Some(&b'\r') {
        line.pop();
    }
    Ok(true)
}

/// Parse and answer one request line (runs on the connection's reader
/// thread; admission decisions happen here, cold runs execute elsewhere).
fn handle_line(line: &[u8], outbox: &Arc<Outbox>, shared: &ServeShared) {
    let request = match protocol::parse_line(line) {
        Ok(r) => r,
        Err((code, msg)) => {
            outbox.push_must(protocol::error_line(None, code, &msg));
            return;
        }
    };
    match request {
        Request::Status => {
            outbox.push(shared.status_line());
        }
        Request::Metrics => {
            let mut o = JsonObj::new();
            o.bool("ok", true)
                .str("kind", "metrics")
                .str("text", &shared.telemetry.snapshot().prometheus());
            outbox.push(o.finish());
        }
        Request::Shutdown => {
            let mut o = JsonObj::new();
            o.bool("ok", true).str("kind", "draining");
            outbox.push_must(o.finish());
            shared.scheduler.drain();
        }
        Request::Verify(req) => {
            // Pure analysis on the reader thread: no pool slot, no queue
            // entry, and — deliberately — no quarantine accounting. A
            // tenant probing whether its program is well-formed is using
            // the daemon as intended, not failing.
            let verdict = vmprobe_bytecode::assemble(&req.program)
                .map_err(|e| e.to_string())
                .and_then(|p| {
                    vmprobe_analysis::verify_program(&p)
                        .map(|_| p.method_count())
                        .map_err(|e| e.to_string())
                });
            match verdict {
                Ok(methods) => {
                    outbox.push_must(protocol::verified_line(&req.id, methods));
                }
                Err(reason) => {
                    shared.telemetry.count(CounterId::ServeVerifyRejected, 1);
                    outbox.push_must(protocol::error_line(
                        Some(&req.id),
                        ErrorCode::VerifyRejected,
                        &reason,
                    ));
                }
            }
        }
        Request::Diff(diff) => {
            // Answered on this thread like `verify`, but it does execute
            // experiments, so it passes the admission path a run does, up
            // to the draining gate. No queue slot and no tenant quarantine
            // accounting — the ensemble is bounded at parse time and
            // failures are typed back to the tenant. A self-diff of this
            // build: the daemon's runner serves both sides, so a repeat is
            // answered from its memo.
            if !admit(&diff.id, &diff.config, outbox, shared) {
                return;
            }
            shared.telemetry.count(CounterId::ServeRequests, 1);
            let label = crate::cache::build_fingerprint();
            let engine =
                crate::diff::DiffEngine::new(diff.options, &label, &label).perturb(diff.perturb);
            let runner = &shared.runner;
            match engine.run(runner, runner, std::slice::from_ref(&diff.config)) {
                Ok(report) => {
                    shared.telemetry.count(CounterId::ServeResults, 1);
                    outbox.push_must(protocol::diff_line(&diff.id, &report));
                }
                Err(reason) => {
                    outbox.push_must(protocol::error_line(
                        Some(&diff.id),
                        ErrorCode::VmFault,
                        &reason,
                    ));
                }
            }
        }
        Request::Observe(req) => {
            // Answered on this thread like `diff`, through the same
            // admission path; the grid is hard-capped at parse time
            // (MAX_OBSERVE_REQUEST_PERIODS) so the reader thread stays
            // responsive. The daemon's memo answers a repeat.
            if !admit(&req.id, &req.config, outbox, shared) {
                return;
            }
            shared.telemetry.count(CounterId::ServeRequests, 1);
            shared.telemetry.count(CounterId::ServeObserve, 1);
            let engine = crate::observe::ObserveEngine::new(req.periods);
            match engine.run(&shared.runner, std::slice::from_ref(&req.config)) {
                Ok(report) => {
                    shared.telemetry.count(CounterId::ServeResults, 1);
                    outbox.push_must(protocol::observe_line(&req.id, &report));
                }
                Err(reason) => {
                    outbox.push_must(protocol::error_line(
                        Some(&req.id),
                        ErrorCode::VmFault,
                        &reason,
                    ));
                }
            }
        }
        Request::Run(run) => {
            if !admit(&run.id, &run.config, outbox, shared) {
                return;
            }
            let job = Job {
                id: run.id.clone(),
                tenant: run.tenant,
                config: run.config,
                plan: shared.envelope.shape_plan(run.plan),
                outbox: Arc::clone(outbox),
                admitted: Instant::now(),
            };
            let queued = match shared.scheduler.admit(job) {
                Ok(Admitted::Inline(job, depth)) => {
                    match shared.runner.restore(&job.config, job.plan) {
                        Some(summary) => {
                            // Resolved and accounted as in a batch, minus
                            // the batch. The slot is released only once
                            // the result is out, so a drain cannot say
                            // `bye` ahead of it.
                            shared.telemetry.count(CounterId::ServeInlineHits, 1);
                            let ack = protocol::accepted_line(&job.id, depth);
                            super::deliver(shared, &job, Ok(summary), Some(ack));
                            shared.scheduler.answered();
                            return;
                        }
                        None => Ok(shared.scheduler.decline(*job)),
                    }
                }
                Ok(Admitted::Queued(depth)) => Ok(depth),
                Err(refusal) => Err(refusal),
            };
            match queued {
                Ok(depth) => {
                    outbox.push(protocol::accepted_line(&run.id, depth));
                }
                Err((code, msg)) => {
                    outbox.push_must(protocol::error_line(Some(&run.id), code, &msg));
                }
            }
        }
    }
}

/// The admission path every executing request passes, in order: the
/// resource envelope, the benchmark-name lookup and the draining gate. On
/// refusal the error line is already queued and this returns `false`.
fn admit(id: &str, config: &ExperimentConfig, outbox: &Outbox, shared: &ServeShared) -> bool {
    let refusal = if let Err(refusal) = shared.envelope.admit(config) {
        shared.telemetry.count(CounterId::ServeRejectedLimits, 1);
        refusal
    } else if vmprobe_workloads::benchmark(&config.benchmark).is_none() {
        let msg = format!("unknown benchmark '{}'", config.benchmark);
        (ErrorCode::BadRequest, msg)
    } else if let Err(refusal) = shared.scheduler.open() {
        refusal
    } else {
        return true;
    };
    outbox.push_must(protocol::error_line(Some(id), refusal.0, &refusal.1));
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The next queued line, without its newline.
    fn next_line(outbox: &Outbox) -> Option<String> {
        let bytes = outbox.pop_blocking()?;
        let line = String::from_utf8(bytes).expect("UTF-8 line");
        Some(
            line.strip_suffix('\n')
                .expect("newline-terminated")
                .to_owned(),
        )
    }

    #[test]
    fn chatter_is_shed_and_confessed() {
        let t = Telemetry::counters_only();
        let outbox = Outbox::new(2, t.clone());
        assert!(outbox.push("a".into()));
        assert!(outbox.push("b".into()));
        assert!(!outbox.push("c".into()), "over cap: shed");
        assert!(!outbox.push("d".into()));
        assert_eq!(t.counter(CounterId::ServeDroppedLines), 2);
        // Drain one; the next push confesses the drops first.
        assert_eq!(next_line(&outbox).as_deref(), Some("a"));
        assert_eq!(next_line(&outbox).as_deref(), Some("b"));
        assert!(outbox.push("e".into()));
        let confession = next_line(&outbox).unwrap();
        assert!(confession.contains("\"kind\":\"dropped\""));
        assert!(confession.contains("\"count\":2"));
        assert_eq!(next_line(&outbox).as_deref(), Some("e"));
    }

    #[test]
    fn essential_lines_are_never_shed() {
        let outbox = Outbox::new(1, Telemetry::disabled());
        assert!(outbox.push("chatter".into()));
        for i in 0..10 {
            assert!(outbox.push_must(format!("result-{i}")), "push {i}");
        }
        assert_eq!(outbox.depth(), 11, "results overshoot the cap");
    }

    #[test]
    fn close_drains_then_ends() {
        let outbox = Arc::new(Outbox::new(8, Telemetry::disabled()));
        outbox.push_must("x".into());
        outbox.close();
        assert!(!outbox.push_must("late".into()), "closed refuses pushes");
        assert_eq!(next_line(&outbox).as_deref(), Some("x"));
        assert_eq!(next_line(&outbox), None);
    }

    #[test]
    fn write_through_queues_behind_a_full_socket_and_sends_the_tail_first() {
        let (ours, mut peer) = UnixStream::pair().expect("socket pair");
        let t = Telemetry::counters_only();
        let outbox = Outbox::new(3, t.clone()).with_socket(ours.try_clone().unwrap());
        assert!(outbox.push_must("first".into()));
        assert_eq!(outbox.depth(), 0, "an idle socket takes a line at once");
        // More than any socket buffer holds: the socket takes a part, and
        // the tail waits at the head of the queue.
        let big = "x".repeat(8 << 20);
        assert!(outbox.push_must(big.clone()));
        assert_eq!(outbox.depth(), 1, "the tail of a partial send is queued");
        // Behind the tail, lines queue in push order; chatter past the
        // cap is shed and counted.
        assert!(outbox.push_must("e0".into()));
        assert!(outbox.push("c0".into()));
        assert!(!outbox.push("c1".into()), "over cap: shed");
        assert!(!outbox.push("c2".into()));
        assert_eq!(t.counter(CounterId::ServeDroppedLines), 2);

        // The peer starts reading; this thread plays the writer.
        let reader = std::thread::spawn(move || {
            let mut text = String::new();
            peer.read_to_string(&mut text).expect("read peer");
            text
        });
        let mut out = ours;
        for _ in 0..3 {
            out.write_all(&outbox.pop_blocking().unwrap()).unwrap();
        }
        // The writer is mid-line until it asks for more, so this queues:
        // first the confession, then the line.
        assert!(outbox.push_must("e1".into()));
        outbox.close();
        while let Some(bytes) = outbox.pop_blocking() {
            out.write_all(&bytes).unwrap();
        }
        drop(out);
        drop(outbox);
        let text = reader.join().unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6, "every line arrives whole");
        assert_eq!(lines[0], "first");
        assert!(lines[1] == big, "the tail went out first");
        assert_eq!(&lines[2..4], ["e0", "c0"]);
        assert_eq!(lines[4], r#"{"ok":true,"kind":"dropped","count":2}"#);
        assert_eq!(lines[5], "e1");
    }

    #[test]
    fn an_inline_answer_leaves_in_one_send_when_the_outbox_is_idle() {
        let (ours, mut peer) = UnixStream::pair().expect("socket pair");
        let t = Telemetry::counters_only();
        let outbox = Outbox::new(1, t.clone()).with_socket(ours);
        let ack = protocol::accepted_line("r1", 1);
        let result = r#"{"ok":true,"kind":"result","id":"r1"}"#;
        assert!(outbox.push_with_ack(ack.clone(), result.into()));
        assert_eq!(outbox.depth(), 0, "both lines were sent");
        // One non-blocking read sees both lines, byte for byte as two
        // separate pushes would have sent them.
        peer.set_nonblocking(true).unwrap();
        let mut buf = [0u8; 4096];
        let n = peer.read(&mut buf).expect("one read");
        assert_eq!(&buf[..n], format!("{ack}\n{result}\n").as_bytes());
        assert!(peer.read(&mut buf).is_err(), "nothing more was sent");
        assert_eq!(t.counter(CounterId::ServeDroppedLines), 0);
    }

    #[test]
    fn a_busy_outbox_sheds_the_ack_but_never_the_result() {
        let t = Telemetry::counters_only();
        let outbox = Outbox::new(1, t.clone());
        assert!(outbox.push_must("queued".into()));
        assert!(outbox.push_with_ack("ack".into(), "result".into()));
        assert_eq!(
            t.counter(CounterId::ServeDroppedLines),
            1,
            "the ack is chatter"
        );
        assert_eq!(next_line(&outbox).as_deref(), Some("queued"));
        assert_eq!(next_line(&outbox).as_deref(), Some("result"));
        // With room, a queued ack keeps its place ahead of its result,
        // after the confession of the earlier drop.
        assert!(outbox.push_with_ack("ack".into(), "result".into()));
        assert!(next_line(&outbox).unwrap().contains("\"kind\":\"dropped\""));
        assert_eq!(next_line(&outbox).as_deref(), Some("ack"));
        assert_eq!(next_line(&outbox).as_deref(), Some("result"));
    }

    #[test]
    fn reader_waits_while_the_outbox_is_full() {
        let outbox = Arc::new(Outbox::new(2, Telemetry::disabled()));
        outbox.push_must("a".into());
        outbox.push_must("b".into());
        let waiter = {
            let outbox = Arc::clone(&outbox);
            std::thread::spawn(move || {
                outbox.wait_for_room();
                outbox.depth()
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!waiter.is_finished(), "a full outbox holds the reader");
        assert_eq!(next_line(&outbox).as_deref(), Some("a"));
        assert_eq!(waiter.join().unwrap(), 1, "one line out lets it go on");
    }

    #[test]
    fn a_released_reader_stops_waiting_for_room() {
        let outbox = Arc::new(Outbox::new(1, Telemetry::disabled()));
        outbox.push_must("a".into());
        let waiter = {
            let outbox = Arc::clone(&outbox);
            std::thread::spawn(move || outbox.wait_for_room())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!waiter.is_finished(), "a full outbox holds the reader");
        outbox.release_reader();
        waiter.join().unwrap();
        outbox.wait_for_room();
        assert_eq!(outbox.depth(), 1, "released without taking a line");
    }

    #[test]
    fn request_lines_are_capped_and_split_on_newlines() {
        let long = vec![b'{'; MAX_LINE_BYTES + 10];
        let mut at_cap = vec![b'{'; MAX_LINE_BYTES];
        at_cap.push(b'\r');
        let mut input = Vec::new();
        for part in [&b"one\r"[..], &long, &at_cap, b"\xff", b""] {
            input.extend_from_slice(part);
            input.push(b'\n');
        }
        input.extend_from_slice(b"last");
        let mut input = BufReader::with_capacity(4096, &input[..]);
        let mut line = Vec::new();
        let mut lines = Vec::new();
        while read_line_capped(&mut input, &mut line).unwrap() {
            lines.push(line.clone());
        }
        assert_eq!(lines.len(), 6);
        assert_eq!(lines[0], b"one", "CRLF is stripped");
        assert_eq!(lines[1], &long[..MAX_LINE_BYTES + 1], "kept one byte over");
        assert_eq!(
            lines[2],
            &at_cap[..MAX_LINE_BYTES],
            "a line at the cap, CRLF"
        );
        assert_eq!(lines[3], b"\xff");
        assert_eq!(lines[4], b"");
        assert_eq!(lines[5], b"last", "an unterminated last line counts");
    }
}
