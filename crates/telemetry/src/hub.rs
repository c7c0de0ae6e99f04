//! The telemetry hub and its cheap cloneable handle.
//!
//! A [`Telemetry`] handle is what every layer of the stack holds. Disabled
//! (the default) it contains no hub at all, and every probe site is a
//! `None` branch; enabled means holding a hub, and each site records into
//! it.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::counter::CounterSet;
use crate::hist::{HistId, Histogram};
use crate::sink::{NoopSink, Sink};
use crate::span::{HostSpan, SpanTrace};
use crate::CounterId;

/// The virtual span stream of one executed cell, in execution order.
#[derive(Debug, Clone, PartialEq)]
pub struct CellStream {
    /// The cell's cache key.
    pub key: String,
    /// The cell's virtual-clock trace.
    pub trace: SpanTrace,
}

#[derive(Debug, Default)]
struct HubState {
    cells: Vec<CellStream>,
    host: Vec<HostSpan>,
    hists: Vec<Histogram>,
}

struct Hub {
    record_spans: bool,
    counters: CounterSet,
    state: Mutex<HubState>,
    sink: Box<dyn Sink>,
    epoch: Instant,
}

impl std::fmt::Debug for Hub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hub")
            .field("record_spans", &self.record_spans)
            .finish_non_exhaustive()
    }
}

impl Hub {
    fn state(&self) -> MutexGuard<'_, HubState> {
        // Nothing panics while holding this lock (pushes and integer
        // folds only), so poison recovery is sound: the protected data
        // cannot be mid-mutation.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Cheap cloneable handle to a telemetry hub (or to nothing).
///
/// Everything on this type is a no-op when the handle is
/// [`Telemetry::disabled`], so probe sites never need their own gating.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    hub: Option<Arc<Hub>>,
}

impl Telemetry {
    /// The no-op handle (the stack-wide default).
    pub fn disabled() -> Self {
        Self { hub: None }
    }

    /// A hub recording counters, histograms, and virtual + host spans,
    /// with a quiet sink.
    pub fn recording() -> Self {
        Self::with_sink(true, Box::new(NoopSink))
    }

    /// A hub recording counters and histograms only (no span streams);
    /// cheaper when just `--metrics-out` is wanted.
    pub fn counters_only() -> Self {
        Self::with_sink(false, Box::new(NoopSink))
    }

    /// A hub with an explicit sink; `record_spans` selects whether cell
    /// span streams and host spans are kept.
    pub fn with_sink(record_spans: bool, sink: Box<dyn Sink>) -> Self {
        Self {
            hub: Some(Arc::new(Hub {
                record_spans,
                counters: CounterSet::default(),
                state: Mutex::new(HubState {
                    cells: Vec::new(),
                    host: Vec::new(),
                    hists: vec![Histogram::new(); HistId::ALL.len()],
                }),
                sink,
                epoch: Instant::now(),
            })),
        }
    }

    /// True when a hub is attached.
    pub fn is_enabled(&self) -> bool {
        self.hub.is_some()
    }

    /// True when span streams are being recorded.
    pub fn spans_enabled(&self) -> bool {
        self.hub.as_ref().is_some_and(|h| h.record_spans)
    }

    /// Add `n` to a counter.
    pub fn count(&self, id: CounterId, n: u64) {
        if let Some(h) = &self.hub {
            h.counters.add(id, n);
        }
    }

    /// Current value of a counter (0 when disabled).
    pub fn counter(&self, id: CounterId) -> u64 {
        self.hub.as_ref().map_or(0, |h| h.counters.get(id))
    }

    /// Record one histogram observation.
    pub fn observe(&self, id: HistId, v: u64) {
        if let Some(h) = &self.hub {
            h.state().hists[id.index()].observe(v);
        }
    }

    /// Route one log line through the sink.
    pub fn log(&self, line: &str) {
        if let Some(h) = &self.hub {
            h.counters.add(CounterId::LogLines, 1);
            h.sink.log(line);
        }
    }

    /// Append one executed cell's virtual span stream.
    ///
    /// The supervised runner calls this on the submitting thread in batch
    /// submission order, which is what makes the virtual stream
    /// byte-identical across worker counts.
    pub fn record_cell(&self, key: &str, trace: &SpanTrace) {
        if let Some(h) = &self.hub {
            if h.record_spans {
                h.state().cells.push(CellStream {
                    key: key.to_owned(),
                    trace: trace.clone(),
                });
            }
        }
    }

    /// Open a wall-clock host span; it closes (and is recorded) when the
    /// returned guard drops.
    pub fn host_span(&self, track: &str, name: &str) -> HostSpanGuard {
        HostSpanGuard {
            hub: self.hub.as_ref().filter(|h| h.record_spans).map(Arc::clone),
            track: track.to_owned(),
            name: name.to_owned(),
            start: Instant::now(),
        }
    }

    /// Snapshot everything recorded so far for export.
    pub fn snapshot(&self) -> Snapshot {
        match &self.hub {
            None => Snapshot {
                schema_version: crate::SCHEMA_VERSION,
                ..Snapshot::default()
            },
            Some(h) => {
                let state = h.state();
                Snapshot {
                    schema_version: crate::SCHEMA_VERSION,
                    counters: CounterId::ALL.map(|c| (c, h.counters.get(c))).to_vec(),
                    hists: HistId::ALL
                        .iter()
                        .map(|&id| (id, state.hists[id.index()].clone()))
                        .collect(),
                    cells: state.cells.clone(),
                    host: state.host.clone(),
                }
            }
        }
    }
}

/// RAII host span: records a [`HostSpan`] when dropped.
#[derive(Debug)]
pub struct HostSpanGuard {
    hub: Option<Arc<Hub>>,
    track: String,
    name: String,
    start: Instant,
}

impl Drop for HostSpanGuard {
    fn drop(&mut self) {
        if let Some(h) = &self.hub {
            let start_us = self
                .start
                .duration_since(h.epoch)
                .as_micros()
                .min(u128::from(u64::MAX)) as u64;
            let dur_us = self.start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            h.state().host.push(HostSpan {
                track: std::mem::take(&mut self.track),
                name: std::mem::take(&mut self.name),
                start_us,
                dur_us,
            });
        }
    }
}

/// A point-in-time copy of everything a hub recorded, ready to export
/// (see the rendering methods in `export.rs`).
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Schema version stamped into every rendered artifact.
    pub schema_version: u32,
    /// Counter values in export order.
    pub counters: Vec<(CounterId, u64)>,
    /// Histograms in export order.
    pub hists: Vec<(HistId, Histogram)>,
    /// Virtual span streams, one per executed cell, in submission order.
    pub cells: Vec<CellStream>,
    /// Host-side wall-clock spans (excluded from golden comparisons).
    pub host: Vec<HostSpan>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        t.count(CounterId::QuarantineHits, 3);
        t.observe(HistId::CellSpans, 9);
        t.log("nothing");
        t.record_cell("k", &SpanTrace::new(1e9));
        drop(t.host_span("runner", "phase"));
        assert!(!t.is_enabled());
        assert_eq!(t.counter(CounterId::QuarantineHits), 0);
        let snap = t.snapshot();
        assert_eq!(snap.schema_version, crate::SCHEMA_VERSION);
        assert!(snap.cells.is_empty() && snap.host.is_empty());
    }

    #[test]
    fn clones_share_one_hub() {
        let t = Telemetry::recording();
        let u = t.clone();
        u.count(CounterId::CellsExecuted, 5);
        assert_eq!(t.counter(CounterId::CellsExecuted), 5);
        let mut trace = SpanTrace::new(1e9);
        trace.enter("GC", 0);
        trace.exit(10);
        u.record_cell("cell-a", &trace);
        let snap = t.snapshot();
        assert_eq!(snap.cells.len(), 1);
        assert_eq!(snap.cells[0].key, "cell-a");
        assert_eq!(snap.schema_version, crate::SCHEMA_VERSION);
    }

    #[test]
    fn host_spans_record_on_drop() {
        let t = Telemetry::recording();
        {
            let _g = t.host_span("worker-0", "drain");
        }
        let snap = t.snapshot();
        assert_eq!(snap.host.len(), 1);
        assert_eq!(snap.host[0].track, "worker-0");
        assert_eq!(snap.host[0].name, "drain");
    }

    #[test]
    fn counters_only_drops_span_streams() {
        let t = Telemetry::counters_only();
        assert!(t.is_enabled() && !t.spans_enabled());
        t.record_cell("k", &SpanTrace::new(1e9));
        drop(t.host_span("runner", "phase"));
        let snap = t.snapshot();
        assert!(snap.cells.is_empty() && snap.host.is_empty());
    }
}
