//! Per-connection plumbing: the bounded outbox and the reader/writer
//! thread pair.
//!
//! Each accepted connection gets two threads. The **reader** parses one
//! request per line and answers admission-time decisions immediately; the
//! **writer** drains the connection's [`Outbox`] to the socket. Results
//! are produced by the shared executor thread and pushed into the outbox
//! of whichever connection submitted the request, so a slow client never
//! blocks the executor — backpressure is absorbed by the outbox's drop
//! policy instead.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use vmprobe_telemetry::{CounterId, Telemetry};

use super::protocol::{self, ErrorCode, Request};
use super::scheduler::Job;
use super::ServeShared;
use crate::json::JsonObj;
use crate::sweep::lock_unpoisoned;
use crate::ExperimentConfig;

#[derive(Debug, Default)]
struct OutState {
    lines: VecDeque<String>,
    /// Chatter lines shed while the queue was full, not yet reported.
    dropped_pending: u64,
    /// No further pushes are accepted; the writer exits once drained.
    closed: bool,
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
/// This is slow-reader backpressure without executor stalls: the shared
/// executor never blocks on one tenant's unread socket.
#[derive(Debug)]
pub struct Outbox {
    state: Mutex<OutState>,
    ready: Condvar,
    cap: usize,
    telemetry: Telemetry,
}

impl Outbox {
    /// An outbox shedding chatter beyond `cap` queued lines.
    pub fn new(cap: usize, telemetry: Telemetry) -> Self {
        Self {
            state: Mutex::new(OutState::default()),
            ready: Condvar::new(),
            cap: cap.max(1),
            telemetry,
        }
    }

    /// Queue a droppable line. Returns `false` (and counts the drop) when
    /// the queue is full or the connection is gone.
    pub fn push(&self, line: String) -> bool {
        let mut s = lock_unpoisoned(&self.state);
        if s.closed {
            return false;
        }
        if s.lines.len() >= self.cap {
            s.dropped_pending += 1;
            self.telemetry.count(CounterId::ServeDroppedLines, 1);
            return false;
        }
        self.confess_drops(&mut s);
        s.lines.push_back(line);
        self.ready.notify_all();
        true
    }

    /// Queue an essential line (results, errors): never shed, may
    /// overshoot `cap` (bounded by the admission queue). Returns `false`
    /// only when the connection is already gone.
    pub fn push_must(&self, line: String) -> bool {
        let mut s = lock_unpoisoned(&self.state);
        if s.closed {
            return false;
        }
        self.confess_drops(&mut s);
        s.lines.push_back(line);
        self.ready.notify_all();
        true
    }

    /// If drops are pending and there is room, own up to them in-band.
    fn confess_drops(&self, s: &mut OutState) {
        if s.dropped_pending > 0 && s.lines.len() < self.cap {
            let mut o = JsonObj::new();
            o.bool("ok", true)
                .str("kind", "dropped")
                .u64("count", s.dropped_pending);
            s.lines.push_back(o.finish());
            s.dropped_pending = 0;
        }
    }

    /// Stop accepting lines; the writer exits once the backlog is flushed.
    pub fn close(&self) {
        let mut s = lock_unpoisoned(&self.state);
        s.closed = true;
        self.ready.notify_all();
    }

    /// Abandon everything (peer is gone): close and discard the backlog.
    fn abort(&self) {
        let mut s = lock_unpoisoned(&self.state);
        s.closed = true;
        s.lines.clear();
        self.ready.notify_all();
    }

    /// Block for the next line; `None` once closed and drained.
    fn pop_blocking(&self) -> Option<String> {
        let mut s = lock_unpoisoned(&self.state);
        loop {
            if let Some(line) = s.lines.pop_front() {
                return Some(line);
            }
            if s.closed {
                return None;
            }
            s = self.ready.wait(s).unwrap_or_else(|p| p.into_inner());
        }
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
    let outbox = Arc::new(Outbox::new(shared.outbox_cap, shared.telemetry.clone()));

    let write_half = stream.try_clone()?;
    let writer = {
        let outbox = Arc::clone(&outbox);
        std::thread::spawn(move || {
            let mut out = write_half;
            while let Some(line) = outbox.pop_blocking() {
                if out
                    .write_all(line.as_bytes())
                    .and_then(|()| out.write_all(b"\n"))
                    .is_err()
                {
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
            for line in BufReader::new(read_half).lines() {
                let Ok(line) = line else { break };
                if line.trim().is_empty() {
                    continue;
                }
                handle_line(&line, &outbox, &shared);
            }
            // Peer hung up: nothing more can be delivered to it, but the
            // outbox stays open for stragglers so the executor's
            // `push_must` calls stay cheap no-ops after `close`.
        })
    };

    Ok(SessionHandle {
        outbox,
        stream,
        reader,
        writer,
    })
}

/// Parse and answer one request line (runs on the connection's reader
/// thread; admission decisions happen here, execution elsewhere).
fn handle_line(line: &str, outbox: &Arc<Outbox>, shared: &ServeShared) {
    let request = match protocol::parse_request(line) {
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
            shared.begin_drain();
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
            // Inline like `verify`, but it does execute experiments, so it
            // passes the same admission gates as a run. No pool slot and no
            // quarantine accounting — the ensemble is bounded at parse time
            // and failures are typed back to the tenant.
            if !admit(&diff.id, &diff.config, outbox, shared) {
                return;
            }
            shared.telemetry.count(CounterId::ServeRequests, 1);
            let label = crate::cache::build_fingerprint();
            let mut side = crate::diff::DiffSide::new(&label);
            if let Some(cache) = &shared.cache {
                side = side.with_cache(Arc::clone(cache));
            }
            let engine = crate::diff::DiffEngine::new(diff.options, side.clone(), side)
                .perturb(diff.perturb)
                .with_telemetry(shared.telemetry.clone());
            match engine.run(std::slice::from_ref(&diff.config)) {
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
            // Inline like `diff`: executes experiments, so it passes the
            // run-request admission gates, but the grid is hard-capped at
            // parse time (MAX_OBSERVE_REQUEST_PERIODS) so the reader
            // thread stays responsive. Cached cells make repeats cheap.
            if !admit(&req.id, &req.config, outbox, shared) {
                return;
            }
            shared.telemetry.count(CounterId::ServeRequests, 1);
            shared.telemetry.count(CounterId::ServeObserve, 1);
            let mut engine = crate::observe::ObserveEngine::new(req.periods.clone())
                .with_telemetry(shared.telemetry.clone());
            if let Some(cache) = &shared.cache {
                engine = engine.with_cache(Arc::clone(cache));
            }
            match engine.run(std::slice::from_ref(&req.config)) {
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
            };
            match shared.scheduler.admit(job) {
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

/// The admission gates every executing request passes, in order: the
/// resource envelope, the benchmark lookup, and the memoized verification
/// (per benchmark and scale) — so an ill-typed program is refused before
/// it can consume a pool slot, and the refusal never touches quarantine.
/// On refusal the error line is already queued and this returns `false`.
fn admit(id: &str, config: &ExperimentConfig, outbox: &Outbox, shared: &ServeShared) -> bool {
    let (code, msg) = if let Err(refusal) = shared.envelope.admit(config) {
        shared.telemetry.count(CounterId::ServeRejectedLimits, 1);
        refusal
    } else if let Some(bench) = vmprobe_workloads::benchmark(&config.benchmark) {
        let Err(reason) = shared.verify_benchmark(&bench, config.scale) else {
            return true;
        };
        shared.telemetry.count(CounterId::ServeVerifyRejected, 1);
        (ErrorCode::VerifyRejected, reason)
    } else {
        let msg = format!("unknown benchmark '{}'", config.benchmark);
        (ErrorCode::BadRequest, msg)
    };
    outbox.push_must(protocol::error_line(Some(id), code, &msg));
    false
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(outbox.pop_blocking().as_deref(), Some("a"));
        assert_eq!(outbox.pop_blocking().as_deref(), Some("b"));
        assert!(outbox.push("e".into()));
        let confession = outbox.pop_blocking().unwrap();
        assert!(confession.contains("\"kind\":\"dropped\""));
        assert!(confession.contains("\"count\":2"));
        assert_eq!(outbox.pop_blocking().as_deref(), Some("e"));
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
        assert_eq!(outbox.pop_blocking().as_deref(), Some("x"));
        assert_eq!(outbox.pop_blocking(), None);
    }
}
