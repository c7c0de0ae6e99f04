//! Snapshot rendering: Chrome trace-event JSON, Prometheus text, and a
//! human-readable summary.
//!
//! The Chrome trace uses the `traceEvents` object form Perfetto and
//! `chrome://tracing` load directly. Two processes keep the clock domains
//! apart: **pid 1** is the simulated machine (one thread track per VM
//! component, microseconds on the *virtual* clock, cells laid out back to
//! back in submission order), **pid 2** is the host runner (one track per
//! worker, wall-clock microseconds). The virtual-only rendering is the
//! artifact the determinism suite compares byte for byte across worker
//! counts.

use std::fmt::Write as _;

use crate::hub::Snapshot;
use crate::json::escape;

/// Virtual process id in the Chrome trace.
const PID_VIRTUAL: u32 = 1;
/// Host process id in the Chrome trace.
const PID_HOST: u32 = 2;
/// Reserved virtual thread id for the per-cell extent track.
const TID_CELLS: u32 = 0;

fn meta_event(pid: u32, tid: Option<u32>, kind: &str, name: &str) -> String {
    let tid_field = tid.map_or(String::new(), |t| format!("\"tid\":{t},"));
    format!(
        "{{\"name\":\"{kind}\",\"ph\":\"M\",\"pid\":{pid},{tid_field}\"args\":{{\"name\":\"{}\"}}}}",
        escape(name)
    )
}

fn complete_event(pid: u32, tid: u32, name: &str, ts_us: f64, dur_us: f64) -> String {
    format!(
        "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts_us:.3},\"dur\":{dur_us:.3}}}",
        escape(name)
    )
}

/// Assigns stable thread ids in order of first appearance.
struct TidRegistry {
    names: Vec<String>,
    base: u32,
}

impl TidRegistry {
    fn new(base: u32) -> Self {
        Self {
            names: Vec::new(),
            base,
        }
    }

    fn tid(&mut self, name: &str) -> u32 {
        match self.names.iter().position(|n| n == name) {
            Some(i) => self.base + i as u32,
            None => {
                self.names.push(name.to_owned());
                self.base + (self.names.len() - 1) as u32
            }
        }
    }
}

impl Snapshot {
    /// Render the full Chrome trace: virtual spans plus host spans.
    pub fn chrome_trace(&self) -> String {
        self.render_chrome(true)
    }

    /// Render the virtual-clock span stream only.
    ///
    /// This is the determinism artifact: byte-identical for `--jobs 1`
    /// and `--jobs N` because every input to it is (see
    /// `tests/telemetry_determinism.rs`).
    pub fn chrome_trace_virtual(&self) -> String {
        self.render_chrome(false)
    }

    fn render_chrome(&self, include_host: bool) -> String {
        let mut events: Vec<String> = Vec::new();
        events.push(meta_event(
            PID_VIRTUAL,
            None,
            "process_name",
            "virtual: simulated machine",
        ));
        events.push(meta_event(
            PID_VIRTUAL,
            Some(TID_CELLS),
            "thread_name",
            "cells",
        ));

        // Component tracks, tids assigned on first appearance — an order
        // that is itself deterministic because cells arrive in submission
        // order and each cell's spans are a pure function of its config.
        let mut vtids = TidRegistry::new(TID_CELLS + 1);
        let mut offset_us = 0.0f64;
        let mut component_events: Vec<String> = Vec::new();
        for cell in &self.cells {
            let extent_us = cell.trace.cycles_to_us(cell.trace.total_cycles());
            component_events.push(complete_event(
                PID_VIRTUAL,
                TID_CELLS,
                &cell.key,
                offset_us,
                extent_us,
            ));
            for span in cell.trace.spans() {
                let ts = offset_us + cell.trace.cycles_to_us(span.start_cycles);
                let dur = cell.trace.cycles_to_us(span.cycles());
                component_events.push(complete_event(
                    PID_VIRTUAL,
                    vtids.tid(span.name),
                    span.name,
                    ts,
                    dur,
                ));
            }
            offset_us += extent_us;
        }
        for (i, name) in vtids.names.iter().enumerate() {
            events.push(meta_event(
                PID_VIRTUAL,
                Some(TID_CELLS + 1 + i as u32),
                "thread_name",
                name,
            ));
        }
        events.extend(component_events);

        if include_host {
            events.push(meta_event(PID_HOST, None, "process_name", "host: runner"));
            let mut htids = TidRegistry::new(0);
            let mut host_events: Vec<String> = Vec::new();
            for span in &self.host {
                let tid = htids.tid(&span.track);
                host_events.push(complete_event(
                    PID_HOST,
                    tid,
                    &span.name,
                    span.start_us as f64,
                    span.dur_us as f64,
                ));
            }
            for (i, name) in htids.names.iter().enumerate() {
                events.push(meta_event(PID_HOST, Some(i as u32), "thread_name", name));
            }
            events.extend(host_events);
        }

        format!(
            "{{\"schema_version\":{},\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}\n",
            self.schema_version,
            events.join(",\n")
        )
    }

    /// Render a Prometheus-style text metrics dump.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# vmprobe self-telemetry");
        let _ = writeln!(out, "# TYPE vmprobe_schema_version gauge");
        let _ = writeln!(out, "vmprobe_schema_version {}", self.schema_version);
        for (id, value) in &self.counters {
            let name = id.name();
            let _ = writeln!(out, "# TYPE vmprobe_{name}_total counter");
            let _ = writeln!(out, "vmprobe_{name}_total {value}");
        }
        for (id, hist) in &self.hists {
            let name = id.name();
            let _ = writeln!(out, "# TYPE vmprobe_{name} histogram");
            for (bound, cum) in hist.cumulative_buckets() {
                let _ = writeln!(out, "vmprobe_{name}_bucket{{le=\"{bound}\"}} {cum}");
            }
            let _ = writeln!(out, "vmprobe_{name}_bucket{{le=\"+Inf\"}} {}", hist.count());
            let _ = writeln!(out, "vmprobe_{name}_sum {}", hist.sum());
            let _ = writeln!(out, "vmprobe_{name}_count {}", hist.count());
        }
        let virtual_spans: usize = self.cells.iter().map(|c| c.trace.len()).sum();
        let _ = writeln!(out, "# TYPE vmprobe_virtual_spans_total counter");
        let _ = writeln!(out, "vmprobe_virtual_spans_total {virtual_spans}");
        let _ = writeln!(out, "# TYPE vmprobe_host_spans_total counter");
        let _ = writeln!(out, "vmprobe_host_spans_total {}", self.host.len());
        out
    }

    /// Render the human-readable end-of-run summary table.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "telemetry summary (schema {})", self.schema_version);
        let _ = writeln!(out, "  counters");
        for (id, value) in &self.counters {
            if *value > 0 {
                let _ = writeln!(out, "    {:26} {value}", id.name());
            }
        }
        let _ = writeln!(out, "  histograms");
        for (id, hist) in &self.hists {
            if hist.count() == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "    {:26} count {}  min {}  mean {:.1}  max {}",
                id.name(),
                hist.count(),
                hist.min().unwrap_or(0),
                hist.mean().unwrap_or(0.0),
                hist.max().unwrap_or(0),
            );
        }
        let virtual_spans: usize = self.cells.iter().map(|c| c.trace.len()).sum();
        let _ = writeln!(
            out,
            "  spans: {} cells / {} virtual spans; {} host spans",
            self.cells.len(),
            virtual_spans,
            self.host.len()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;
    use crate::{CounterId, HistId, SpanTrace, Telemetry};

    fn sample_snapshot() -> Snapshot {
        let t = Telemetry::recording();
        t.count(CounterId::CellsExecuted, 2);
        t.observe(HistId::CellSpans, 2);
        t.observe(HistId::CellSpans, 1);
        let mut a = SpanTrace::new(1.6e9);
        a.enter("GC", 1_600);
        a.enter("CL", 3_200);
        a.exit(4_800);
        a.exit(16_000);
        a.finish(32_000);
        t.record_cell("cell \"a\"", &a);
        let mut b = SpanTrace::new(1.6e9);
        b.enter("opt_comp", 0);
        b.exit(1_600);
        b.finish(8_000);
        t.record_cell("cell-b", &b);
        {
            let _g = t.host_span("worker-0", "drain");
        }
        t.snapshot()
    }

    #[test]
    fn chrome_trace_is_valid_json_with_both_processes() {
        let trace = sample_snapshot().chrome_trace();
        JsonValue::parse(&trace).expect("well-formed");
        assert!(trace.contains("\"schema_version\":"));
        assert!(trace.contains("virtual: simulated machine"));
        assert!(trace.contains("host: runner"));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("cell \\\"a\\\""), "keys are escaped");
    }

    #[test]
    fn virtual_rendering_excludes_host_spans() {
        let trace = sample_snapshot().chrome_trace_virtual();
        JsonValue::parse(&trace).expect("well-formed");
        assert!(!trace.contains("host: runner"));
        assert!(!trace.contains("worker-0"));
        assert!(trace.contains("\"name\":\"GC\""));
    }

    #[test]
    fn cells_lay_out_back_to_back() {
        let snap = sample_snapshot();
        let trace = snap.chrome_trace_virtual();
        // First cell extends 32_000 cycles at 1.6 GHz = 20 µs, so the
        // second cell's extent event starts at ts 20.000.
        assert!(
            trace.contains("\"name\":\"cell-b\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":20.000")
        );
    }

    #[test]
    fn prometheus_dump_has_counters_and_histograms() {
        let prom = sample_snapshot().prometheus();
        assert!(prom.contains(&format!("vmprobe_schema_version {}", crate::SCHEMA_VERSION)));
        assert!(prom.contains("vmprobe_cells_executed_total 2"));
        assert!(prom.contains("vmprobe_cell_spans_count 2"));
        assert!(prom.contains("vmprobe_cell_spans_bucket{le=\"+Inf\"} 2"));
        assert!(prom.contains("vmprobe_virtual_spans_total 3"));
        // Every non-comment line is `name[{labels}] value`.
        for line in prom.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("two fields");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "bad value in '{line}'");
        }
    }

    #[test]
    fn prometheus_dump_covers_every_registered_metric() {
        // Audit: the dump is registry-driven, so every counter (even at
        // zero) and every histogram's count series must be present — a
        // new CounterId/HistId can never be silently missing from the
        // export.
        let prom = Telemetry::recording().snapshot().prometheus();
        for c in CounterId::ALL {
            let line = format!("vmprobe_{}_total 0", c.name());
            assert!(prom.contains(&line), "missing counter: {line}");
        }
        for h in HistId::ALL {
            let line = format!("vmprobe_{}_count 0", h.name());
            assert!(prom.contains(&line), "missing histogram: {line}");
        }
        assert!(prom.contains("vmprobe_probe_period_us_count"));
        assert!(prom.contains("vmprobe_host_tax_ppm_total"));
        assert!(prom.contains("vmprobe_probe_tax_ppm_total"));
    }

    #[test]
    fn summary_renders_nonzero_rows() {
        let text = sample_snapshot().summary();
        assert!(text.contains("cells_executed"));
        assert!(text.contains("2 cells / 3 virtual spans"));
    }
}
