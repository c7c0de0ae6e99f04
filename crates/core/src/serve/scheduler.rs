//! Admission control, fair cross-tenant scheduling, tenant quarantine
//! and the drain flag.
//!
//! One bounded admission queue feeds one executor thread, which drains it
//! in tenant round-robin order and submits each round as a batch to the
//! [`Runner`](crate::Runner)'s sweep pool.
//! Admission decisions (queue-full, quarantine, draining) are made under
//! one lock on the reader thread of whichever connection submitted the
//! request, so every rejection is immediate and carries an exact reason.
//!
//! Everything the daemon knows about a tenant is one row of one table:
//! its FIFO queue, its jobs outstanding (queued or executing), its
//! failure streak and, while quarantined, the admission sequence that
//! releases it. A row that holds none of these is dropped.
//!
//! [`Scheduler::admit`] hands a run request back to the reader thread
//! when its tenant has nothing queued or executing, so the reader can
//! answer it if its cell needs no simulation. A tenant with work
//! outstanding queues as usual, so its results keep admission order. A
//! request handed back holds a queue slot until the reader answers it
//! ([`Scheduler::answered`]) or queues it ([`Scheduler::decline`]), and
//! a draining executor waits for it.
//!
//! # Quarantine
//!
//! A tenant whose results keep failing is throttled as a whole, so a
//! poisoned client cannot monopolize the pool by cycling through
//! variations of a broken request:
//!
//! ```text
//!           failure (streak < threshold)
//!          ┌─────────────┐
//!          ▼             │
//!   ┌───────────┐ streak == threshold  ┌─────────────┐
//!   │  Healthy  │─────────────────────▶│ Quarantined │
//!   └───────────┘                      └─────────────┘
//!          ▲        admission seq >= release_at            │
//!          └───────────────────────────────────────────────┘
//!                      (auto-release, streak reset)
//! ```
//!
//! Time is measured in **admission sequence numbers**, not wall-clock:
//! every run request that reaches [`Scheduler::admit`], admitted or
//! refused, advances the clock by one, so a replayed request stream
//! reproduces the exact same admission decisions. A success resets the streak; failures of cells
//! admitted before the quarantine began do not extend it; threshold 0
//! turns quarantine off.
//!
//! # Draining
//!
//! [`Scheduler::drain`] sets the daemon's one drain flag: from then on
//! `run`, `diff` and `observe` are refused with `draining`, and the
//! executor exits once the queue is empty and no reader holds a run.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use vmprobe_power::FaultPlan;
use vmprobe_telemetry::{CounterId, HistId, Telemetry};

use super::protocol::ErrorCode;
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
    /// When the daemon admitted it (for [`HistId::ServeResultUs`]).
    pub admitted: Instant,
}

/// One tenant's row (see module docs).
#[derive(Debug, Default)]
struct Tenant {
    /// Queued jobs, in admission order.
    queue: VecDeque<Job>,
    /// Jobs queued or executing: a warm request is answered inline only
    /// when this is 0.
    outstanding: usize,
    /// Consecutive failed results (a success resets it).
    failure_streak: u32,
    /// `Some(seq)` while quarantined: released at admission seq `seq`.
    release_at: Option<u64>,
}

#[derive(Debug, Default)]
struct State {
    /// The tenant table; `BTreeMap` so round-robin order is the
    /// deterministic lexicographic tenant order, not hash order.
    tenants: BTreeMap<String, Tenant>,
    /// Jobs across all queues (the bounded quantity).
    total: usize,
    /// Tenant served last; the next round starts strictly after it.
    rr_last: Option<String>,
    /// Requests handed back to a reader and not yet answered or queued.
    /// Each holds a queue slot, and a draining executor waits for them,
    /// so the daemon says `bye` only after their results.
    inline: usize,
    /// Admission clock: run-request admission attempts seen so far.
    seq: u64,
    /// Draining: admit nothing, executor exits once queues are empty.
    draining: bool,
}

impl State {
    /// Drop `tenant`'s row if it no longer holds anything.
    fn prune(&mut self, tenant: &str) {
        let idle =
            |t: &Tenant| t.outstanding == 0 && t.failure_streak == 0 && t.release_at.is_none();
        if self.tenants.get(tenant).is_some_and(idle) {
            self.tenants.remove(tenant);
        }
    }
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
    /// Tenants with jobs queued, failures on record or a quarantine, in
    /// lexicographic order.
    pub tenants: Vec<TenantRow>,
}

/// One row of the `/status` tenant table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantRow {
    /// Tenant name.
    pub tenant: String,
    /// Current consecutive-failure streak.
    pub failure_streak: u32,
    /// Jobs queued (not yet executing).
    pub queued: usize,
    /// Release sequence while quarantined.
    pub release_at: Option<u64>,
}

/// How an admitted run request proceeds.
#[derive(Debug)]
pub enum Admitted {
    /// Queued for the executor; the total queue depth after admission.
    Queued(usize),
    /// The calling thread may answer it, and then must call
    /// [`Scheduler::answered`] or [`Scheduler::decline`]; the depth it
    /// reports (queued jobs plus itself).
    Inline(Box<Job>, usize),
}

/// The daemon's admission queue and tenant table (see module docs).
#[derive(Debug)]
pub struct Scheduler {
    state: Mutex<State>,
    ready: Condvar,
    cap: usize,
    /// Consecutive failures before a tenant is quarantined (0 = never).
    threshold: u32,
    /// Admission sequences a quarantine lasts.
    cooldown: u64,
    telemetry: Telemetry,
}

impl Scheduler {
    /// A scheduler admitting at most `cap` queued jobs, quarantining a
    /// tenant after `threshold` consecutive failures (0 = never) for
    /// `cooldown` admission sequences.
    pub fn new(cap: usize, threshold: u32, cooldown: u64, telemetry: Telemetry) -> Self {
        Self {
            state: Mutex::new(State::default()),
            ready: Condvar::new(),
            cap: cap.max(1),
            threshold,
            cooldown,
            telemetry,
        }
    }

    /// Admit one run request, or reject it with a taxonomy code. An
    /// admitted request whose tenant has a job queued or executing is
    /// queued behind it; otherwise it is handed back as
    /// [`Admitted::Inline`] and holds a queue slot until the caller
    /// settles it. The depth is the total queue depth *after* admission
    /// (reported back to the client on its `accepted` line).
    ///
    /// Every call — admitted or refused — advances the admission clock
    /// that quarantine cooldowns are measured in.
    pub fn admit(&self, job: Job) -> Result<Admitted, (ErrorCode, String)> {
        let mut s = lock_unpoisoned(&self.state);
        let depth = self.gate(&mut s, &job.tenant)?;
        if s.tenants
            .get(&job.tenant)
            .is_some_and(|t| t.outstanding > 0)
        {
            self.enqueue(&mut s, job);
            Ok(Admitted::Queued(depth))
        } else {
            s.inline += 1;
            Ok(Admitted::Inline(Box::new(job), depth))
        }
    }

    /// An inline admission was answered: release its queue slot. Only a
    /// draining executor waiting for the last of them is woken.
    pub fn answered(&self) {
        let mut s = lock_unpoisoned(&self.state);
        s.inline = s.inline.saturating_sub(1);
        if s.draining && s.inline == 0 {
            self.ready.notify_all();
        }
    }

    /// An inline admission the caller could not answer joins the queue in
    /// the slot it holds, even if the daemon began draining meanwhile.
    /// Returns the total queue depth after it.
    pub fn decline(&self, job: Job) -> usize {
        let mut s = lock_unpoisoned(&self.state);
        s.inline = s.inline.saturating_sub(1);
        self.enqueue(&mut s, job);
        s.total
    }

    /// The draining gate of the admission path `run`, `diff` and
    /// `observe` share. It ticks no admission clock: `diff` and `observe`
    /// meet no other gate, and a `run` that passes meets [`Self::admit`]'s
    /// gates next, which tick the clock and check draining again under
    /// the same lock.
    pub fn open(&self) -> Result<(), (ErrorCode, String)> {
        if self.draining() {
            return Err(self.refuse_draining());
        }
        Ok(())
    }

    fn refuse_draining(&self) -> (ErrorCode, String) {
        self.telemetry.count(CounterId::ServeRejectedDraining, 1);
        (
            ErrorCode::Draining,
            "daemon is draining for shutdown".into(),
        )
    }

    /// The admission gates, in order: the clock tick, draining,
    /// quarantine and the queue cap. A passing request is counted and its
    /// queue depth (queued jobs plus itself) returned.
    fn gate(&self, s: &mut State, tenant: &str) -> Result<usize, (ErrorCode, String)> {
        s.seq += 1;
        let now = s.seq;
        if s.draining {
            return Err(self.refuse_draining());
        }
        if let Some(row) = s.tenants.get_mut(tenant) {
            match row.release_at {
                Some(release_at) if now < release_at => {
                    self.telemetry.count(CounterId::ServeRejectedQuarantine, 1);
                    return Err((
                        ErrorCode::Quarantined,
                        format!(
                            "tenant '{tenant}' is quarantined until admission seq {release_at} (now {now})"
                        ),
                    ));
                }
                Some(_) => {
                    row.failure_streak = 0;
                    row.release_at = None;
                    self.telemetry.count(CounterId::ServeQuarantineReleased, 1);
                }
                None => {}
            }
        }
        let held = s.total + s.inline;
        if held >= self.cap {
            self.telemetry.count(CounterId::ServeRejectedQueueFull, 1);
            return Err((
                ErrorCode::QueueFull,
                format!("admission queue is full ({held} jobs); retry later"),
            ));
        }
        let depth = s.total + 1;
        self.telemetry.count(CounterId::ServeRequests, 1);
        self.telemetry
            .observe(HistId::ServeQueueDepth, depth as u64);
        Ok(depth)
    }

    fn enqueue(&self, s: &mut State, job: Job) {
        let row = s.tenants.entry(job.tenant.clone()).or_default();
        row.outstanding += 1;
        row.queue.push_back(job);
        s.total += 1;
        self.ready.notify_all();
    }

    /// Block until work is available, then return up to `max` jobs —
    /// at most one per tenant per round-robin lap, laps starting strictly
    /// after the previously served tenant — or `None` once the daemon is
    /// draining, every queue is empty and no inline admission can still
    /// be declined into one (the executor's exit signal).
    pub fn next_batch(&self, max: usize) -> Option<Vec<Job>> {
        let mut s = lock_unpoisoned(&self.state);
        loop {
            if s.total > 0 {
                return Some(Self::take_round_robin(&mut s, max.max(1)));
            }
            if s.draining && s.inline == 0 {
                return None;
            }
            s = self.ready.wait(s).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn take_round_robin(s: &mut State, max: usize) -> Vec<Job> {
        let mut batch = Vec::new();
        while batch.len() < max && s.total > 0 {
            // One lap: tenants with queued jobs strictly after the
            // round-robin cursor, in lexicographic order, wrapping around.
            let mut lap: Vec<String> = s
                .tenants
                .iter()
                .filter(|(_, t)| !t.queue.is_empty())
                .map(|(name, _)| name.clone())
                .collect();
            if let Some(last) = &s.rr_last {
                let after = lap.partition_point(|name| name <= last);
                lap.rotate_left(after);
            }
            for name in lap {
                if batch.len() >= max {
                    break;
                }
                if let Some(job) = s.tenants.get_mut(&name).and_then(|t| t.queue.pop_front()) {
                    s.total -= 1;
                    s.rr_last = Some(name);
                    batch.push(job);
                }
            }
        }
        batch
    }

    /// The executor delivered one of `tenant`'s jobs: it no longer holds
    /// back that tenant's warm requests.
    pub fn finish(&self, tenant: &str) {
        let mut s = lock_unpoisoned(&self.state);
        if let Some(row) = s.tenants.get_mut(tenant) {
            row.outstanding = row.outstanding.saturating_sub(1);
        }
        s.prune(tenant);
    }

    /// Record one delivered result for quarantine accounting. Bumps the
    /// entered counter when this failure tips the tenant over the
    /// threshold; returns that release sequence for logging.
    pub fn record_outcome(&self, tenant: &str, ok: bool) -> Option<u64> {
        if self.threshold == 0 {
            return None;
        }
        let mut s = lock_unpoisoned(&self.state);
        if ok && !s.tenants.contains_key(tenant) {
            return None;
        }
        let now = s.seq;
        let row = s.tenants.entry(tenant.to_owned()).or_default();
        let mut entered = None;
        if ok {
            row.failure_streak = 0;
        } else if row.release_at.is_none() {
            // Results for cells admitted before the quarantine began do
            // not extend it.
            row.failure_streak += 1;
            if row.failure_streak >= self.threshold {
                row.release_at = Some(now + self.cooldown);
                entered = row.release_at;
                self.telemetry.count(CounterId::ServeQuarantineEntered, 1);
            }
        }
        s.prune(tenant);
        entered
    }

    /// Begin the drain (idempotent): `run`, `diff` and `observe` are
    /// refused from now on, and the executor is woken so it can finish
    /// the backlog and exit.
    pub fn drain(&self) {
        let mut s = lock_unpoisoned(&self.state);
        s.draining = true;
        self.ready.notify_all();
    }

    /// Whether the drain has begun.
    pub fn draining(&self) -> bool {
        lock_unpoisoned(&self.state).draining
    }

    /// Point-in-time status for the `status` op.
    pub fn status(&self) -> SchedulerStatus {
        let s = lock_unpoisoned(&self.state);
        let tenants = s
            .tenants
            .iter()
            .filter(|(_, t)| !t.queue.is_empty() || t.failure_streak > 0 || t.release_at.is_some())
            .map(|(name, t)| TenantRow {
                tenant: name.clone(),
                failure_streak: t.failure_streak,
                queued: t.queue.len(),
                release_at: t.release_at,
            })
            .collect();
        SchedulerStatus {
            queued: s.total,
            admitted_seq: s.seq,
            draining: s.draining,
            tenants,
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
            admitted: Instant::now(),
        }
    }

    fn sched(cap: usize) -> Scheduler {
        Scheduler::new(cap, 0, 0, Telemetry::counters_only())
    }

    /// One run admission attempt by `tenant`, settled at once (an inline
    /// one is answered): it advances the admission clock by one.
    fn attempt(s: &Scheduler, tenant: &str) -> Result<(), ErrorCode> {
        match s.admit(job(tenant, "x")) {
            Ok(Admitted::Inline(..)) => {
                s.answered();
                Ok(())
            }
            Ok(Admitted::Queued(_)) => Ok(()),
            Err((code, _)) => Err(code),
        }
    }

    /// Admit `job` into the queue, declining it when it is handed back.
    fn queue(s: &Scheduler, job: Job) -> Result<usize, (ErrorCode, String)> {
        match s.admit(job)? {
            Admitted::Queued(depth) => Ok(depth),
            Admitted::Inline(job, _) => Ok(s.decline(*job)),
        }
    }

    #[test]
    fn bounded_queue_rejects_with_queue_full() {
        let s = sched(2);
        assert_eq!(queue(&s, job("a", "1")).unwrap(), 1);
        assert_eq!(queue(&s, job("a", "2")).unwrap(), 2);
        let (code, _) = queue(&s, job("b", "3")).unwrap_err();
        assert_eq!(code, ErrorCode::QueueFull);
        assert_eq!(s.telemetry.counter(CounterId::ServeRejectedQueueFull), 1);
    }

    #[test]
    fn round_robin_interleaves_tenants() {
        let s = sched(16);
        for i in 0..3 {
            queue(&s, job("alice", &format!("a{i}"))).unwrap();
        }
        for i in 0..3 {
            queue(&s, job("bob", &format!("b{i}"))).unwrap();
        }
        let ids: Vec<String> = s.next_batch(6).unwrap().into_iter().map(|j| j.id).collect();
        // Alternating laps, not alice's whole backlog first.
        assert_eq!(ids, ["a0", "b0", "a1", "b1", "a2", "b2"]);
    }

    #[test]
    fn round_robin_cursor_rotates_across_batches() {
        let s = sched(16);
        queue(&s, job("alice", "a0")).unwrap();
        queue(&s, job("bob", "b0")).unwrap();
        queue(&s, job("carol", "c0")).unwrap();
        let first = s.next_batch(1).unwrap();
        assert_eq!(first[0].id, "a0");
        // Next lap starts after alice even though alice-adjacent work
        // could be re-queued.
        queue(&s, job("alice", "a1")).unwrap();
        let second = s.next_batch(2).unwrap();
        let ids: Vec<&str> = second.iter().map(|j| j.id.as_str()).collect();
        assert_eq!(ids, ["b0", "c0"]);
    }

    #[test]
    fn draining_rejects_and_terminates_the_feed() {
        let s = sched(4);
        queue(&s, job("a", "1")).unwrap();
        s.drain();
        let (code, _) = queue(&s, job("a", "2")).unwrap_err();
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
        queue(&s, job("p", "1")).unwrap(); // seq 1
        s.record_outcome("p", false);
        queue(&s, job("p", "2")).unwrap(); // seq 2
        assert_eq!(s.record_outcome("p", false), Some(2 + 3));
        let (code, msg) = queue(&s, job("p", "3")).unwrap_err(); // seq 3
        assert_eq!(code, ErrorCode::Quarantined);
        assert!(msg.contains("seq 5"), "release seq is visible: {msg}");
        // Other tenants advance the admission clock and stay admitted.
        queue(&s, job("q", "4")).unwrap(); // seq 4
                                           // seq 5 reaches release_at 5: the quarantine auto-releases.
        assert!(queue(&s, job("p", "5")).is_ok());
        assert_eq!(s.telemetry.counter(CounterId::ServeQuarantineEntered), 1);
        assert_eq!(s.telemetry.counter(CounterId::ServeQuarantineReleased), 1);
    }

    #[test]
    fn quarantine_release_happens_exactly_at_the_release_seq() {
        let s = Scheduler::new(16, 1, 4, Telemetry::counters_only());
        queue(&s, job("p", "1")).unwrap(); // seq 1
        assert_eq!(s.record_outcome("p", false), Some(1 + 4));
        for i in 2..5 {
            // seqs 2, 3, 4 — all before release_at 5.
            let (code, _) = queue(&s, job("p", &i.to_string())).unwrap_err();
            assert_eq!(code, ErrorCode::Quarantined, "seq {i}");
        }
        // seq 5 == release_at → admitted, counted as a release.
        assert!(queue(&s, job("p", "5")).is_ok());
        assert_eq!(s.telemetry.counter(CounterId::ServeQuarantineReleased), 1);
    }

    #[test]
    fn warm_requests_run_inline_only_for_an_idle_tenant() {
        let s = sched(16);
        let inline = |a: Admitted| matches!(a, Admitted::Inline(_, 1));
        assert!(inline(s.admit(job("a", "1")).unwrap()), "idle tenant");
        queue(&s, job("a", "2")).unwrap();
        // Work outstanding for `a`: its warm request queues behind it,
        // while another tenant is still answered inline.
        assert!(matches!(
            s.admit(job("a", "3")).unwrap(),
            Admitted::Queued(2)
        ));
        assert!(matches!(
            s.admit(job("b", "4")).unwrap(),
            Admitted::Inline(_, 3)
        ));
        let batch = s.next_batch(4).unwrap();
        // Executing still counts as outstanding, until each job finishes.
        assert!(matches!(
            s.admit(job("a", "5")).unwrap(),
            Admitted::Queued(_)
        ));
        for j in &batch {
            s.finish(&j.tenant);
        }
        let _ = s.next_batch(4).unwrap();
        s.finish("a");
        assert!(inline(s.admit(job("a", "6")).unwrap()));
        // Inline answers pass every gate and are counted as requests.
        assert_eq!(s.telemetry.counter(CounterId::ServeRequests), 6);
        s.drain();
        let (code, _) = s.admit(job("a", "7")).unwrap_err();
        assert_eq!(code, ErrorCode::Draining);
    }

    #[test]
    fn inline_admissions_hold_a_slot_until_settled() {
        let s = sched(2);
        let Ok(Admitted::Inline(a1, 1)) = s.admit(job("a", "a1")) else {
            panic!("an idle tenant is handed back");
        };
        assert_eq!(queue(&s, job("b", "b1")).unwrap(), 1);
        let (code, _) = queue(&s, job("c", "c1")).unwrap_err();
        assert_eq!(
            code,
            ErrorCode::QueueFull,
            "the inline request holds a slot"
        );
        s.drain();
        assert_eq!(s.next_batch(4).unwrap()[0].id, "b1");
        // Draining with an empty queue, but the inline request may still
        // be declined into it: the executor waits for it.
        std::thread::scope(|scope| {
            let executor = scope.spawn(|| s.next_batch(4));
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(
                !executor.is_finished(),
                "the executor outlives the inline request"
            );
            assert_eq!(s.decline(*a1), 1);
            let batch = executor.join().unwrap().expect("the declined job runs");
            assert_eq!(batch[0].id, "a1");
        });
        assert!(s.next_batch(4).is_none());

        let s = sched(1);
        assert!(matches!(
            s.admit(job("a", "a1")).unwrap(),
            Admitted::Inline(..)
        ));
        assert!(queue(&s, job("b", "b1")).is_err());
        s.drain();
        std::thread::scope(|scope| {
            let executor = scope.spawn(|| s.next_batch(4));
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!executor.is_finished());
            s.answered();
            assert!(
                executor.join().unwrap().is_none(),
                "answered: the executor exits"
            );
        });
    }

    #[test]
    fn quarantine_enters_at_exactly_the_threshold() {
        let s = Scheduler::new(16, 2, 4, Telemetry::counters_only());
        assert_eq!(attempt(&s, "p"), Ok(())); // seq 1
        assert_eq!(s.record_outcome("p", false), None, "one failure is free");
        assert_eq!(attempt(&s, "p"), Ok(())); // seq 2
        assert_eq!(s.record_outcome("p", false), Some(6), "second hits it");
        assert_eq!(attempt(&s, "p"), Err(ErrorCode::Quarantined)); // seq 3
                                                                   // Other tenants are unaffected.
        assert_eq!(attempt(&s, "q"), Ok(())); // seq 4
        assert_eq!(attempt(&s, "p"), Err(ErrorCode::Quarantined)); // seq 5
        assert_eq!(s.telemetry.counter(CounterId::ServeQuarantineEntered), 1);
        assert_eq!(s.telemetry.counter(CounterId::ServeRejectedQuarantine), 2);
    }

    #[test]
    fn cooldown_elapses_on_the_admission_clock() {
        let s = Scheduler::new(16, 1, 3, Telemetry::counters_only());
        assert_eq!(attempt(&s, "p"), Ok(())); // seq 1
        assert_eq!(s.record_outcome("p", false), Some(4));
        // Requests that take no queue slot do not tick the clock.
        for _ in 0..10 {
            assert!(s.open().is_ok());
            let _ = s.status();
        }
        assert_eq!(s.status().admitted_seq, 1);
        // A refused attempt ticks it like an admitted one.
        assert_eq!(attempt(&s, "p"), Err(ErrorCode::Quarantined)); // seq 2
        assert_eq!(attempt(&s, "q"), Ok(())); // seq 3
        assert_eq!(attempt(&s, "p"), Ok(()), "released at seq 4");
        assert_eq!(s.telemetry.counter(CounterId::ServeQuarantineReleased), 1);
        // Released clean: the streak restarted.
        assert_eq!(s.record_outcome("p", false), Some(4 + 3));
    }

    #[test]
    fn success_resets_the_streak() {
        let s = Scheduler::new(16, 3, 4, Telemetry::counters_only());
        assert_eq!(s.record_outcome("t", false), None);
        assert_eq!(s.record_outcome("t", false), None);
        assert_eq!(s.record_outcome("t", true), None);
        assert_eq!(s.record_outcome("t", false), None, "streak restarted");
        assert_eq!(s.record_outcome("t", false), None);
        assert_eq!(attempt(&s, "t"), Ok(())); // seq 1
        assert_eq!(s.record_outcome("t", false), Some(1 + 4));
    }

    #[test]
    fn straggler_failures_do_not_extend_quarantine() {
        let s = Scheduler::new(16, 1, 5, Telemetry::counters_only());
        for _ in 0..3 {
            attempt(&s, "q").unwrap();
        }
        assert_eq!(s.record_outcome("p", false), Some(8));
        // A cell admitted before the quarantine finishes late and fails:
        // the release sequence must not move.
        attempt(&s, "q").unwrap(); // seq 4
        assert_eq!(s.record_outcome("p", false), None);
        assert_eq!(s.status().tenants[0].release_at, Some(8));
        for seq in 5..8 {
            assert_eq!(attempt(&s, "p"), Err(ErrorCode::Quarantined), "seq {seq}");
        }
        assert_eq!(attempt(&s, "p"), Ok(()), "seq 8 releases");
        assert_eq!(s.telemetry.counter(CounterId::ServeQuarantineEntered), 1);
    }

    #[test]
    fn threshold_zero_disables_quarantine() {
        let s = Scheduler::new(16, 0, 4, Telemetry::counters_only());
        for _ in 0..20 {
            assert_eq!(attempt(&s, "t"), Ok(()));
            assert_eq!(s.record_outcome("t", false), None);
        }
        assert!(s.status().tenants.is_empty());
        assert_eq!(s.telemetry.counter(CounterId::ServeQuarantineEntered), 0);
    }

    #[test]
    fn diff_and_observe_meet_only_the_draining_gate() {
        let s = Scheduler::new(1, 1, 100, Telemetry::counters_only());
        queue(&s, job("a", "1")).unwrap();
        s.record_outcome("a", false);
        // Full queue and a quarantined tenant: `open` does not care.
        assert!(s.open().is_ok());
        s.drain();
        let (code, _) = s.open().unwrap_err();
        assert_eq!(code, ErrorCode::Draining);
        assert_eq!(s.telemetry.counter(CounterId::ServeRejectedDraining), 1);
        assert_eq!(s.status().admitted_seq, 1, "no clock tick");
    }

    fn row(tenant: &str, failure_streak: u32, queued: usize, release_at: Option<u64>) -> TenantRow {
        TenantRow {
            tenant: tenant.to_owned(),
            failure_streak,
            queued,
            release_at,
        }
    }

    #[test]
    fn status_reports_queues_and_standings() {
        let s = Scheduler::new(16, 2, 3, Telemetry::counters_only());
        queue(&s, job("c", "1")).unwrap();
        queue(&s, job("c", "2")).unwrap();
        s.record_outcome("b", false);
        s.record_outcome("a", false);
        s.record_outcome("a", false);
        attempt(&s, "d").unwrap();
        s.record_outcome("d", true);
        let status = s.status();
        assert_eq!(status.queued, 2);
        assert!(!status.draining);
        // One list in tenant order; the healthy idle tenant `d` has none.
        assert_eq!(
            status.tenants,
            [
                row("a", 2, 0, Some(2 + 3)),
                row("b", 1, 0, None),
                row("c", 0, 2, None)
            ]
        );
    }

    #[test]
    fn a_tenant_with_a_streak_and_queued_jobs_is_one_row() {
        let s = Scheduler::new(16, 3, 3, Telemetry::counters_only());
        s.record_outcome("a", false);
        queue(&s, job("a", "1")).unwrap();
        queue(&s, job("a", "2")).unwrap();
        assert_eq!(s.status().tenants, [row("a", 1, 2, None)]);
    }

    #[test]
    fn a_row_holding_nothing_is_dropped() {
        let s = Scheduler::new(16, 1, 2, Telemetry::counters_only());
        queue(&s, job("a", "1")).unwrap();
        s.record_outcome("b", false); // seq 1: b quarantined until 3
        let batch = s.next_batch(4).unwrap();
        s.record_outcome("a", true);
        s.finish(&batch[0].tenant);
        attempt(&s, "c").unwrap(); // seq 2
        attempt(&s, "b").unwrap(); // seq 3: released
        s.record_outcome("b", true);
        assert!(lock_unpoisoned(&s.state).tenants.is_empty());
    }
}
