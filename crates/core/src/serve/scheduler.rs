//! Admission control and fair cross-tenant scheduling.
//!
//! One bounded admission queue feeds one executor thread, which drains it
//! in tenant round-robin order and submits each round as a batch to the
//! [`SupervisedRunner`](crate::SupervisedRunner)'s work-stealing pool.
//! Admission decisions (queue-full, quarantine, draining) are made under
//! one lock on the reader thread of whichever connection submitted the
//! request, so every rejection is immediate and carries an exact reason.
//!
//! A request whose cell is already memoized passes the same gates through
//! [`Scheduler::admit_warm`], which hands it back to the reader thread to
//! answer when its tenant has nothing queued or executing. A tenant with
//! work outstanding queues as usual, so its results keep admission order.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};

use vmprobe_power::FaultPlan;
use vmprobe_telemetry::{CounterId, HistId, Telemetry};

use super::protocol::ErrorCode;
use super::quarantine::{Gate, QuarantineBook, TenantStanding};
use super::session::Outbox;
use crate::sweep::lock_unpoisoned;
use crate::ExperimentConfig;

/// One admitted experiment request, waiting for the executor.
#[derive(Debug, Clone)]
pub struct Job {
    /// Client-chosen request id (echoed on the result line).
    pub id: String,
    /// Submitting tenant.
    pub tenant: String,
    /// The experiment to run (envelope already applied).
    pub config: ExperimentConfig,
    /// Per-request master fault plan, if any (envelope already applied).
    pub plan: Option<FaultPlan>,
    /// Where the result line goes.
    pub outbox: Arc<Outbox>,
}

#[derive(Debug, Default)]
struct State {
    /// Per-tenant FIFO queues; `BTreeMap` so round-robin order is the
    /// deterministic lexicographic tenant order, not hash order.
    queues: BTreeMap<String, VecDeque<Job>>,
    /// Jobs across all queues (the bounded quantity).
    total: usize,
    /// Tenant served last; the next round starts strictly after it.
    rr_last: Option<String>,
    /// Jobs per tenant that are queued or executing (tenants with none
    /// are absent): a warm request is answered inline only when its
    /// tenant is absent.
    outstanding: BTreeMap<String, usize>,
    /// Admission clock: run-request admission attempts seen so far.
    seq: u64,
    /// Draining: admit nothing, executor exits once queues are empty.
    draining: bool,
    book: QuarantineBook,
}

/// A point-in-time view of the scheduler for `/status`.
#[derive(Debug, Clone)]
pub struct SchedulerStatus {
    /// Jobs currently queued across all tenants.
    pub queued: usize,
    /// Run-request admission attempts seen so far (the quarantine clock).
    pub admitted_seq: u64,
    /// Whether the daemon is draining.
    pub draining: bool,
    /// Per-tenant queue depths, lexicographic order.
    pub tenant_queues: Vec<(String, usize)>,
    /// Tenants with failures on record or under quarantine.
    pub standings: Vec<TenantStanding>,
}

/// How an admitted warm request proceeds.
#[derive(Debug)]
pub enum Admitted {
    /// Queued for the executor; the total queue depth after admission.
    Queued(usize),
    /// Answer it on the calling thread; the depth it reports (queued jobs
    /// plus itself).
    Inline(Job, usize),
}

/// The daemon's admission queue (see module docs).
#[derive(Debug)]
pub struct Scheduler {
    state: Mutex<State>,
    ready: Condvar,
    cap: usize,
    telemetry: Telemetry,
}

impl Scheduler {
    /// A scheduler admitting at most `cap` queued jobs, quarantining
    /// tenants per `threshold`/`cooldown` (see
    /// [`QuarantineBook::new`]).
    pub fn new(cap: usize, threshold: u32, cooldown: u64, telemetry: Telemetry) -> Self {
        Self {
            state: Mutex::new(State {
                book: QuarantineBook::new(threshold, cooldown),
                ..State::default()
            }),
            ready: Condvar::new(),
            cap: cap.max(1),
            telemetry,
        }
    }

    /// Admit one run request, or reject it with a taxonomy code. On
    /// success returns the total queue depth *after* admission (reported
    /// back to the client on its `accepted` line).
    ///
    /// Every call — admitted or refused — advances the admission clock
    /// that quarantine cooldowns are measured in.
    pub fn admit(&self, job: Job) -> Result<usize, (ErrorCode, String)> {
        let mut s = lock_unpoisoned(&self.state);
        let depth = self.gate(&mut s, &job.tenant)?;
        self.enqueue(&mut s, job);
        Ok(depth)
    }

    /// Admit a run request whose cell is already memoized: the same gates
    /// as [`Scheduler::admit`], then [`Admitted::Inline`] when its tenant
    /// has no job queued or executing, else queued like any other.
    pub fn admit_warm(&self, job: Job) -> Result<Admitted, (ErrorCode, String)> {
        let mut s = lock_unpoisoned(&self.state);
        let depth = self.gate(&mut s, &job.tenant)?;
        if s.outstanding.contains_key(&job.tenant) {
            self.enqueue(&mut s, job);
            Ok(Admitted::Queued(depth))
        } else {
            Ok(Admitted::Inline(job, depth))
        }
    }

    /// The admission gates, in order: the clock tick, draining,
    /// quarantine and the queue cap. A passing request is counted and its
    /// queue depth (queued jobs plus itself) returned.
    fn gate(&self, s: &mut State, tenant: &str) -> Result<usize, (ErrorCode, String)> {
        s.seq += 1;
        let now = s.seq;
        if s.draining {
            self.telemetry.count(CounterId::ServeRejectedDraining, 1);
            return Err((
                ErrorCode::Draining,
                "daemon is draining for shutdown".into(),
            ));
        }
        match s.book.gate(tenant, now) {
            Gate::Refused { release_at } => {
                self.telemetry.count(CounterId::ServeRejectedQuarantine, 1);
                return Err((
                    ErrorCode::Quarantined,
                    format!(
                        "tenant '{tenant}' is quarantined until admission seq {release_at} (now {now})"
                    ),
                ));
            }
            Gate::Admit { released } => {
                if released {
                    self.telemetry.count(CounterId::ServeQuarantineReleased, 1);
                }
            }
        }
        if s.total >= self.cap {
            self.telemetry.count(CounterId::ServeRejectedQueueFull, 1);
            return Err((
                ErrorCode::QueueFull,
                format!("admission queue is full ({} jobs); retry later", s.total),
            ));
        }
        let depth = s.total + 1;
        self.telemetry.count(CounterId::ServeRequests, 1);
        self.telemetry
            .observe(HistId::ServeQueueDepth, depth as u64);
        Ok(depth)
    }

    fn enqueue(&self, s: &mut State, job: Job) {
        *s.outstanding.entry(job.tenant.clone()).or_default() += 1;
        s.queues
            .entry(job.tenant.clone())
            .or_default()
            .push_back(job);
        s.total += 1;
        self.ready.notify_all();
    }

    /// Block until work is available, then return up to `max` jobs —
    /// at most one per tenant per round-robin lap, laps starting strictly
    /// after the previously served tenant — or `None` once the daemon is
    /// draining and every queue is empty (the executor's exit signal).
    pub fn next_batch(&self, max: usize) -> Option<Vec<Job>> {
        let mut s = lock_unpoisoned(&self.state);
        loop {
            if s.total > 0 {
                return Some(Self::take_round_robin(&mut s, max.max(1)));
            }
            if s.draining {
                return None;
            }
            s = self.ready.wait(s).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn take_round_robin(s: &mut State, max: usize) -> Vec<Job> {
        let mut batch = Vec::new();
        while batch.len() < max && s.total > 0 {
            // One lap: tenants strictly after the round-robin cursor, in
            // lexicographic order, wrapping around.
            let tenants: Vec<String> = {
                let after: Vec<String> = match &s.rr_last {
                    Some(last) => s
                        .queues
                        .range::<String, _>((
                            std::ops::Bound::Excluded(last.clone()),
                            std::ops::Bound::Unbounded,
                        ))
                        .map(|(t, _)| t.clone())
                        .collect(),
                    None => Vec::new(),
                };
                let before = s
                    .queues
                    .keys()
                    .filter(|t| !after.contains(t))
                    .cloned()
                    .collect::<Vec<_>>();
                after.into_iter().chain(before).collect()
            };
            let mut took_any = false;
            for tenant in tenants {
                if batch.len() >= max {
                    break;
                }
                let Some(queue) = s.queues.get_mut(&tenant) else {
                    continue;
                };
                if let Some(job) = queue.pop_front() {
                    if queue.is_empty() {
                        s.queues.remove(&tenant);
                    }
                    s.total -= 1;
                    s.rr_last = Some(tenant);
                    batch.push(job);
                    took_any = true;
                }
            }
            if !took_any {
                break;
            }
        }
        batch
    }

    /// The executor delivered one of `tenant`'s jobs: it no longer holds
    /// back that tenant's warm requests.
    pub fn finish(&self, tenant: &str) {
        let mut s = lock_unpoisoned(&self.state);
        if let Some(n) = s.outstanding.get_mut(tenant) {
            *n -= 1;
            if *n == 0 {
                s.outstanding.remove(tenant);
            }
        }
    }

    /// Record one delivered result for quarantine accounting. Bumps the
    /// entered counter when this failure tips the tenant over the
    /// threshold; returns that release sequence for logging.
    pub fn record_outcome(&self, tenant: &str, ok: bool) -> Option<u64> {
        let mut s = lock_unpoisoned(&self.state);
        let now = s.seq;
        let entered = s.book.record(tenant, ok, now);
        if entered.is_some() {
            self.telemetry.count(CounterId::ServeQuarantineEntered, 1);
        }
        entered
    }

    /// Stop admitting (new run requests get `draining`) and wake the
    /// executor so it can finish the backlog and exit.
    pub fn drain(&self) {
        let mut s = lock_unpoisoned(&self.state);
        s.draining = true;
        self.ready.notify_all();
    }

    /// Point-in-time status for the `status` op.
    pub fn status(&self) -> SchedulerStatus {
        let s = lock_unpoisoned(&self.state);
        SchedulerStatus {
            queued: s.total,
            admitted_seq: s.seq,
            draining: s.draining,
            tenant_queues: s.queues.iter().map(|(t, q)| (t.clone(), q.len())).collect(),
            standings: s.book.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmprobe_heap::CollectorKind;

    fn job(tenant: &str, id: &str) -> Job {
        Job {
            id: id.to_owned(),
            tenant: tenant.to_owned(),
            config: ExperimentConfig::jikes("_209_db", CollectorKind::SemiSpace, 32),
            plan: None,
            outbox: Arc::new(Outbox::new(8, Telemetry::disabled())),
        }
    }

    fn sched(cap: usize) -> Scheduler {
        Scheduler::new(cap, 0, 0, Telemetry::counters_only())
    }

    #[test]
    fn bounded_queue_rejects_with_queue_full() {
        let s = sched(2);
        assert_eq!(s.admit(job("a", "1")).unwrap(), 1);
        assert_eq!(s.admit(job("a", "2")).unwrap(), 2);
        let (code, _) = s.admit(job("b", "3")).unwrap_err();
        assert_eq!(code, ErrorCode::QueueFull);
        assert_eq!(s.telemetry.counter(CounterId::ServeRejectedQueueFull), 1);
    }

    #[test]
    fn round_robin_interleaves_tenants() {
        let s = sched(16);
        for i in 0..3 {
            s.admit(job("alice", &format!("a{i}"))).unwrap();
        }
        for i in 0..3 {
            s.admit(job("bob", &format!("b{i}"))).unwrap();
        }
        let ids: Vec<String> = s.next_batch(6).unwrap().into_iter().map(|j| j.id).collect();
        // Alternating laps, not alice's whole backlog first.
        assert_eq!(ids, ["a0", "b0", "a1", "b1", "a2", "b2"]);
    }

    #[test]
    fn round_robin_cursor_rotates_across_batches() {
        let s = sched(16);
        s.admit(job("alice", "a0")).unwrap();
        s.admit(job("bob", "b0")).unwrap();
        s.admit(job("carol", "c0")).unwrap();
        let first = s.next_batch(1).unwrap();
        assert_eq!(first[0].id, "a0");
        // Next lap starts after alice even though alice-adjacent work
        // could be re-queued.
        s.admit(job("alice", "a1")).unwrap();
        let second = s.next_batch(2).unwrap();
        let ids: Vec<&str> = second.iter().map(|j| j.id.as_str()).collect();
        assert_eq!(ids, ["b0", "c0"]);
    }

    #[test]
    fn draining_rejects_and_terminates_the_feed() {
        let s = sched(4);
        s.admit(job("a", "1")).unwrap();
        s.drain();
        let (code, _) = s.admit(job("a", "2")).unwrap_err();
        assert_eq!(code, ErrorCode::Draining);
        // Backlog still drains…
        assert_eq!(s.next_batch(4).unwrap().len(), 1);
        // …then the executor is told to exit.
        assert!(s.next_batch(4).is_none());
    }

    #[test]
    fn quarantined_tenant_is_rejected_then_auto_released() {
        let s = Scheduler::new(16, 2, 3, Telemetry::counters_only());
        // Two failures → quarantine (threshold 2).
        s.admit(job("p", "1")).unwrap(); // seq 1
        s.record_outcome("p", false);
        s.admit(job("p", "2")).unwrap(); // seq 2
        assert_eq!(s.record_outcome("p", false), Some(2 + 3));
        let (code, msg) = s.admit(job("p", "3")).unwrap_err(); // seq 3
        assert_eq!(code, ErrorCode::Quarantined);
        assert!(msg.contains("seq 5"), "release seq is visible: {msg}");
        // Other tenants advance the admission clock and stay admitted.
        s.admit(job("q", "4")).unwrap(); // seq 4
                                         // seq 5 reaches release_at 5: the quarantine auto-releases.
        assert!(s.admit(job("p", "5")).is_ok());
        assert_eq!(s.telemetry.counter(CounterId::ServeQuarantineEntered), 1);
        assert_eq!(s.telemetry.counter(CounterId::ServeQuarantineReleased), 1);
    }

    #[test]
    fn quarantine_release_happens_exactly_at_the_release_seq() {
        let s = Scheduler::new(16, 1, 4, Telemetry::counters_only());
        s.admit(job("p", "1")).unwrap(); // seq 1
        assert_eq!(s.record_outcome("p", false), Some(1 + 4));
        for i in 2..5 {
            // seqs 2, 3, 4 — all before release_at 5.
            let (code, _) = s.admit(job("p", &i.to_string())).unwrap_err();
            assert_eq!(code, ErrorCode::Quarantined, "seq {i}");
        }
        // seq 5 == release_at → admitted, counted as a release.
        assert!(s.admit(job("p", "5")).is_ok());
        assert_eq!(s.telemetry.counter(CounterId::ServeQuarantineReleased), 1);
    }

    #[test]
    fn warm_requests_run_inline_only_for_an_idle_tenant() {
        let s = sched(16);
        let inline = |a: Admitted| matches!(a, Admitted::Inline(_, 1));
        assert!(inline(s.admit_warm(job("a", "1")).unwrap()), "idle tenant");
        s.admit(job("a", "2")).unwrap();
        // Work outstanding for `a`: its warm request queues behind it,
        // while another tenant is still answered inline.
        assert!(matches!(
            s.admit_warm(job("a", "3")).unwrap(),
            Admitted::Queued(2)
        ));
        assert!(matches!(
            s.admit_warm(job("b", "4")).unwrap(),
            Admitted::Inline(_, 3)
        ));
        let batch = s.next_batch(4).unwrap();
        // Executing still counts as outstanding, until each job finishes.
        assert!(matches!(
            s.admit_warm(job("a", "5")).unwrap(),
            Admitted::Queued(_)
        ));
        for j in &batch {
            s.finish(&j.tenant);
        }
        let _ = s.next_batch(4).unwrap();
        s.finish("a");
        assert!(inline(s.admit_warm(job("a", "6")).unwrap()));
        // Inline answers pass every gate and are counted as requests.
        assert_eq!(s.telemetry.counter(CounterId::ServeRequests), 6);
        s.drain();
        let (code, _) = s.admit_warm(job("a", "7")).unwrap_err();
        assert_eq!(code, ErrorCode::Draining);
    }

    #[test]
    fn status_reports_queues_and_standings() {
        let s = Scheduler::new(16, 2, 3, Telemetry::counters_only());
        s.admit(job("a", "1")).unwrap();
        s.admit(job("a", "2")).unwrap();
        s.record_outcome("b", false);
        let status = s.status();
        assert_eq!(status.queued, 2);
        assert_eq!(status.tenant_queues, vec![("a".to_owned(), 2)]);
        assert_eq!(status.standings.len(), 1);
        assert_eq!(status.standings[0].tenant, "b");
        assert!(!status.draining);
    }
}
