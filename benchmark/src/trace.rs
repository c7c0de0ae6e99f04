//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions: the program itself is not
//! instrumented. They stay in memory and are written out once, when the
//! run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub call: &'static str,
    /// Submission index of the cell (or request) the call served.
    pub cell: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<u32>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Append-only span store sharing one clock origin.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::with_capacity(4096),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; close it with [`Recorder::close`].
    pub fn open(
        &mut self,
        layer: &'static str,
        call: &'static str,
        cell: Option<u32>,
        parent: Option<u32>,
    ) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            call,
            cell,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        u32::try_from(self.spans.len() - 1).expect("fewer than 2^32 spans")
    }

    pub fn close(&mut self, id: u32) {
        let end = self.now_ns();
        self.spans[id as usize].end_ns = end;
    }

    /// Record an already-measured interval.
    pub fn record(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        u32::try_from(self.spans.len() - 1).expect("fewer than 2^32 spans")
    }

    /// Time `f` as one span.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        call: &'static str,
        cell: Option<u32>,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(layer, call, cell, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn ns_since_epoch(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Move another recorder's spans (same epoch) in, re-basing parents.
    pub fn absorb(&mut self, other: Recorder) {
        let base = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Total seconds of the spans of one (layer, call).
    pub fn total(&self, layer: &str, call: &str) -> f64 {
        self.durations(layer, call).iter().sum()
    }

    /// Durations of the spans of one (layer, call), in record order.
    pub fn durations(&self, layer: &str, call: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.call == call)
            .map(Span::secs)
            .collect()
    }

    /// Write every span as tab-separated text: id, parent, layer, call,
    /// cell, start and end in ns since the run's clock origin.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tlayer\tcall\tcell\tstart_ns\tend_ns")?;
        let opt = |v: Option<u32>| v.map_or_else(|| "-".to_owned(), |v| v.to_string());
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{}\t{}",
                opt(s.parent),
                s.layer,
                s.call,
                opt(s.cell),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum() {
        let mut r = Recorder::new(Instant::now());
        let root = r.open("core.runner", "replay", None, None);
        r.time("vm", "run", Some(0), Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.time("vm", "run", Some(1), Some(root), || ());
        r.close(root);
        assert_eq!(r.durations("vm", "run").len(), 2);
        assert!(r.total("vm", "run") >= 0.002);
        assert!(r.spans()[0].secs() >= r.total("vm", "run"));
        assert_eq!(r.spans()[1].parent, Some(root));
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch);
        a.open("x", "a", None, None);
        let mut b = Recorder::new(epoch);
        let p = b.open("serve", "request", Some(0), None);
        b.open("serve", "accept", Some(0), Some(p));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
