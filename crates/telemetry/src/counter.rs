//! The static counter registry.
//!
//! Counters are keyed by a closed enum rather than strings so a probe site
//! is an array index + relaxed atomic add — no hashing, no allocation, no
//! registration races — and so the Prometheus exporter can enumerate every
//! metric that exists.

use std::sync::atomic::{AtomicU64, Ordering};

/// Every counter the stack can bump, in export order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterId {
    /// Distinct cells actually executed by the supervised runner.
    CellsExecuted,
    /// Cells served from the cross-batch memo without executing: batch
    /// occurrences, and the serving daemon's inline hits.
    CellsFromCache,
    /// Batch cells resolved to an earlier duplicate in the same batch.
    CellsDedupedInBatch,
    /// Cells a tolerant figure sweep could not fill (first sighting only).
    CellsFailed,
    /// Configurations quarantined after exhausting their retry budget.
    CellsQuarantined,
    /// Requests refused because the configuration was already quarantined.
    QuarantineHits,
    /// Individual attempts that failed (including retries).
    AttemptsFailed,
    /// Retries performed (attempts beyond each configuration's first).
    Retries,
    /// Virtual backoff milliseconds accumulated by the retry schedule.
    BackoffVirtualMs,
    /// Times a memo caller blocked on another thread's in-flight compute.
    MemoInFlightWaits,
    /// Jobs a pool worker stole from a sibling's deque.
    WorkerSteals,
    /// Batches submitted to the work-stealing pool.
    BatchesSubmitted,
    /// Figure/table sweep phases started.
    PhasesStarted,
    /// Log lines routed through the sink.
    LogLines,
    /// Cells restored from the persistent experiment cache.
    CacheHits,
    /// Persistent-cache probes that found no usable entry.
    CacheMisses,
    /// Persistent-cache entries that failed their checksum or parse and
    /// were transparently recomputed.
    CacheCorrupt,
    /// Entries written to the persistent cache.
    CacheStores,
    /// Experiment requests admitted by the serving daemon.
    ServeRequests,
    /// Results (success or per-request error) delivered by the daemon.
    ServeResults,
    /// Requests refused because the admission queue was full (429-style).
    ServeRejectedQueueFull,
    /// Requests refused because the tenant was under quarantine.
    ServeRejectedQuarantine,
    /// Requests refused because the daemon was draining for shutdown.
    ServeRejectedDraining,
    /// Requests refused by the resource envelope (heap cap exceeded).
    ServeRejectedLimits,
    /// Tenants placed under quarantine after repeated failures.
    ServeQuarantineEntered,
    /// Tenants released from quarantine after their cooldown elapsed.
    ServeQuarantineReleased,
    /// Response lines dropped by a bounded per-connection output buffer
    /// (slow-reader backpressure).
    ServeDroppedLines,
    /// Tenant programs rejected by the admission-time bytecode verifier
    /// (explicit `verify` requests and memoized benchmark checks).
    ServeVerifyRejected,
    /// Ensemble sweeps executed by the diff engine (one per distinct
    /// fingerprint side; a self-diff counts one).
    DiffSweeps,
    /// Scenario cells compared by the diff engine.
    DiffCellsCompared,
    /// Per-component comparisons flagged as regressions (candidate CI
    /// strictly above baseline CI and shift beyond the floor).
    DiffRegressions,
    /// Bootstrap resample draws performed by the diff engine.
    DiffResamples,
    /// Observer-effect sweeps executed (`--observe-cost` or `op:"observe"`).
    ObserveSweeps,
    /// (cell, probe-period, mode) points measured by observer-effect sweeps.
    ObservePoints,
    /// Component-ID port stores charged by non-transparent probes.
    ProbePortStores,
    /// DAQ samples whose ISR cost was charged by non-transparent probes.
    ProbeDaqSamples,
    /// HPM reads whose syscall-shaped cost was charged by non-transparent
    /// probes.
    ProbeHpmReads,
    /// Simulated cycles charged directly to non-transparent probes (the
    /// knock-on cache-eviction cost comes on top and is not counted here).
    ProbeCyclesPaid,
    /// `op:"observe"` requests admitted by the serving daemon.
    ServeObserve,
    /// Run requests the serving daemon answered on the connection's
    /// reader thread from a memoized cell, without an executor batch.
    ServeInlineHits,
    /// Total measured cell energy, in integer microjoules (deterministic;
    /// lets dashboards track energy throughput without parsing reports).
    CellEnergyUj,
    /// Telemetry host tax from `--telemetry-overhead`, in parts per
    /// million of the bare wall time (host-timing dependent).
    HostTaxPpm,
    /// Probe tax from `--telemetry-overhead`: extra *simulated* cycles per
    /// million charged by a non-transparent probe pass (deterministic).
    ProbeTaxPpm,
}

impl CounterId {
    /// All counters, in export order.
    pub const ALL: [CounterId; 43] = [
        CounterId::CellsExecuted,
        CounterId::CellsFromCache,
        CounterId::CellsDedupedInBatch,
        CounterId::CellsFailed,
        CounterId::CellsQuarantined,
        CounterId::QuarantineHits,
        CounterId::AttemptsFailed,
        CounterId::Retries,
        CounterId::BackoffVirtualMs,
        CounterId::MemoInFlightWaits,
        CounterId::WorkerSteals,
        CounterId::BatchesSubmitted,
        CounterId::PhasesStarted,
        CounterId::LogLines,
        CounterId::CacheHits,
        CounterId::CacheMisses,
        CounterId::CacheCorrupt,
        CounterId::CacheStores,
        CounterId::ServeRequests,
        CounterId::ServeResults,
        CounterId::ServeRejectedQueueFull,
        CounterId::ServeRejectedQuarantine,
        CounterId::ServeRejectedDraining,
        CounterId::ServeRejectedLimits,
        CounterId::ServeQuarantineEntered,
        CounterId::ServeQuarantineReleased,
        CounterId::ServeDroppedLines,
        CounterId::ServeVerifyRejected,
        CounterId::DiffSweeps,
        CounterId::DiffCellsCompared,
        CounterId::DiffRegressions,
        CounterId::DiffResamples,
        CounterId::ObserveSweeps,
        CounterId::ObservePoints,
        CounterId::ProbePortStores,
        CounterId::ProbeDaqSamples,
        CounterId::ProbeHpmReads,
        CounterId::ProbeCyclesPaid,
        CounterId::ServeObserve,
        CounterId::ServeInlineHits,
        CounterId::CellEnergyUj,
        CounterId::HostTaxPpm,
        CounterId::ProbeTaxPpm,
    ];

    /// Stable metric name (Prometheus-style snake case).
    pub fn name(self) -> &'static str {
        match self {
            CounterId::CellsExecuted => "cells_executed",
            CounterId::CellsFromCache => "cells_from_cache",
            CounterId::CellsDedupedInBatch => "cells_deduped_in_batch",
            CounterId::CellsFailed => "cells_failed",
            CounterId::CellsQuarantined => "cells_quarantined",
            CounterId::QuarantineHits => "quarantine_hits",
            CounterId::AttemptsFailed => "attempts_failed",
            CounterId::Retries => "retries",
            CounterId::BackoffVirtualMs => "backoff_virtual_ms",
            CounterId::MemoInFlightWaits => "memo_inflight_waits",
            CounterId::WorkerSteals => "worker_steals",
            CounterId::BatchesSubmitted => "batches_submitted",
            CounterId::PhasesStarted => "phases_started",
            CounterId::LogLines => "log_lines",
            CounterId::CacheHits => "cache_hits",
            CounterId::CacheMisses => "cache_misses",
            CounterId::CacheCorrupt => "cache_corrupt",
            CounterId::CacheStores => "cache_stores",
            CounterId::ServeRequests => "serve_requests",
            CounterId::ServeResults => "serve_results",
            CounterId::ServeRejectedQueueFull => "serve_rejected_queue_full",
            CounterId::ServeRejectedQuarantine => "serve_rejected_quarantine",
            CounterId::ServeRejectedDraining => "serve_rejected_draining",
            CounterId::ServeRejectedLimits => "serve_rejected_limits",
            CounterId::ServeQuarantineEntered => "serve_quarantine_entered",
            CounterId::ServeQuarantineReleased => "serve_quarantine_released",
            CounterId::ServeDroppedLines => "serve_dropped_lines",
            CounterId::ServeVerifyRejected => "serve_verify_rejected",
            CounterId::DiffSweeps => "diff_sweeps",
            CounterId::DiffCellsCompared => "diff_cells_compared",
            CounterId::DiffRegressions => "diff_regressions",
            CounterId::DiffResamples => "diff_resamples",
            CounterId::ObserveSweeps => "observe_sweeps",
            CounterId::ObservePoints => "observe_points",
            CounterId::ProbePortStores => "probe_port_stores",
            CounterId::ProbeDaqSamples => "probe_daq_samples",
            CounterId::ProbeHpmReads => "probe_hpm_reads",
            CounterId::ProbeCyclesPaid => "probe_cycles_paid",
            CounterId::ServeObserve => "serve_observe",
            CounterId::ServeInlineHits => "serve_inline_hits",
            CounterId::CellEnergyUj => "cell_energy_uj",
            CounterId::HostTaxPpm => "host_tax_ppm",
            CounterId::ProbeTaxPpm => "probe_tax_ppm",
        }
    }

    /// Whether the counter's value is independent of worker-thread count.
    ///
    /// Deterministic counters are merged on the calling thread in batch
    /// submission order; the two scheduling-dependent ones
    /// ([`CounterId::MemoInFlightWaits`], [`CounterId::WorkerSteals`])
    /// are host-side observations and are excluded from golden
    /// comparisons, exactly like [`crate::HostSpan`]s.
    pub fn deterministic(self) -> bool {
        // Dropped response lines depend on how fast a client drains its
        // socket, which is host scheduling, like steals and memo waits;
        // whether a warm request is answered inline depends on whether
        // its cell was published and its tenant idle when it arrived.
        // The host tax is a wall-clock ratio, so it moves with the host;
        // the probe tax is a simulated-cycle ratio and stays put.
        !matches!(
            self,
            CounterId::MemoInFlightWaits
                | CounterId::WorkerSteals
                | CounterId::ServeDroppedLines
                | CounterId::ServeInlineHits
                | CounterId::HostTaxPpm
        )
    }

    fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|c| *c == self)
            .expect("every CounterId is in ALL")
    }
}

/// One atomic slot per [`CounterId`].
#[derive(Debug)]
pub(crate) struct CounterSet {
    slots: [AtomicU64; CounterId::ALL.len()],
}

impl Default for CounterSet {
    // Derived Default stops at 32-element arrays; the registry is larger.
    fn default() -> Self {
        Self {
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl CounterSet {
    pub(crate) fn add(&self, id: CounterId, n: u64) {
        self.slots[id.index()].fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn get(&self, id: CounterId) -> u64 {
        self.slots[id.index()].load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_snake_case() {
        let mut names: Vec<_> = CounterId::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
        for name in names {
            assert!(name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'));
        }
    }

    #[test]
    fn index_round_trips() {
        for (i, c) in CounterId::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn aggregation_across_threads_is_exact() {
        // The satellite-task requirement: counter adds from many workers
        // must never lose increments.
        let set = CounterSet::default();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        set.add(CounterId::WorkerSteals, 1);
                        set.add(CounterId::CellsExecuted, 2);
                    }
                });
            }
        });
        assert_eq!(set.get(CounterId::WorkerSteals), 8 * 1000);
        assert_eq!(set.get(CounterId::CellsExecuted), 2 * 8 * 1000);
        assert_eq!(set.get(CounterId::Retries), 0);
    }
}
