//! Persistent, content-addressed experiment result store.
//!
//! The in-process [`Memo`](crate::Memo) deduplicates work *within* one
//! process; this layer persists finished cells *across* processes, so a
//! figure campaign re-run after a code-free restart (or an interrupted
//! sweep resumed with `--cache-dir`) recomputes only what is missing.
//! The cache keeps nothing in memory and counts nothing: every probe reads
//! the disk, and the runner's telemetry (`cache_hits`, `cache_misses`,
//! `cache_corrupt`, `cache_stores`) is the one ledger of its traffic.
//!
//! # Entry format
//!
//! One file per (fingerprint, cell) under the cache directory, named by a
//! 128-bit hash of the fingerprint and the cell's full cache key
//! ([`ExperimentConfig::key`] plus the runner's fault-plan suffix), so
//! handles with different fingerprints — the two sides of a cross-build
//! `vmprobe-diff` — keep their entries side by side in one directory.
//! Entries of other builds are never overwritten; delete the directory to
//! reclaim their space. An entry is two lines of JSON, written and read
//! with the workspace's one codec ([`crate::json`]):
//!
//! ```text
//! {"format":3,"fingerprint":"<build fingerprint>","key":"<full key>","fnv":"<16 hex>"}
//! {"config":{…},"checksum":…,"report":{…},"gc":{…},…}
//! ```
//!
//! `fnv` is the FNV-1a-64 of the body line's bytes. Every `f64` in the
//! body is stored as the 16-hex-digit string of its IEEE bit pattern and
//! every integer as a JSON integer, so a restored summary is
//! *bit-identical* to the computed one — the property that lets a warm
//! cache re-render byte-identical figures.
//!
//! A lookup decodes both lines in one pass with the codec's pull
//! [`Reader`]: fields are read in the order `render_entry` writes them,
//! straight into the [`RunSummary`], with no tree, no `String` per key and
//! none per float. A first touch therefore costs about the file read, the
//! checksum and one walk over the bytes.
//!
//! # Invalidation and corruption
//!
//! A probe returns [`CacheLookup::Miss`] when the entry is absent or
//! *stale* (another format version, including the v1/v2 line format,
//! another build fingerprint, or a filename-hash collision whose stored
//! key differs), and [`CacheLookup::Corrupt`] when the header is not the
//! v3 header, the body fails its checksum or does not follow the body
//! schema, or bytes follow the body. The schema is strict: a missing,
//! extra, repeated or reordered field, a value of the wrong type, a float
//! that is not 16 hex digits or a fixed-shape array of another length is
//! damage even under a matching checksum. Neither is ever an error: the
//! runner recomputes the cell and overwrites the entry. Writes are atomic
//! (unique temp file in the cache directory, then `rename`), so a killed
//! sweep never leaves a truncated entry a later resume would trust.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vmprobe_heap::{CollectorKind, GcStats};
use vmprobe_platform::PlatformKind;
use vmprobe_power::{
    ComponentId, ComponentProfile, EnergyDelay, FaultStats, Joules, PowerSample, ProbeSpec,
    ProbeStats, Report, Seconds, Watts,
};
use vmprobe_telemetry::{SpanTrace, VirtualSpan};
use vmprobe_vm::{CompilerStats, VmStats};
use vmprobe_workloads::InputScale;

use crate::experiment::{ExperimentConfig, RunSummary, VmChoice};
use crate::json::{self, JsonObj, Reader, Token};

/// On-disk format version; bumping it invalidates every existing entry.
/// v2 added the measurement-mode config fields and the probe ledger; v3
/// replaced the line format with two JSON lines.
const FORMAT_VERSION: u32 = 3;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The build fingerprint baked into every entry: format version, telemetry
/// schema version and crate version. Any change to one of them makes every
/// existing entry stale (a silent miss), never a parse error.
pub fn build_fingerprint() -> String {
    format!(
        "fmt{}|schema{}|v{}",
        FORMAT_VERSION,
        vmprobe_telemetry::SCHEMA_VERSION,
        env!("CARGO_PKG_VERSION")
    )
}

/// Outcome of one cache probe.
#[derive(Debug, Clone)]
pub enum CacheLookup {
    /// A valid entry for this exact key and build; compute is skipped.
    Hit(Arc<RunSummary>),
    /// No entry, or a stale one (different build fingerprint or a
    /// filename collision with a different key).
    Miss,
    /// An entry exists for this key but failed its checksum or left the
    /// entry schema; the caller recomputes and overwrites it.
    Corrupt,
}

/// Process-wide temp-file sequence. Shared across *every*
/// [`ExperimentCache`] instance, because the serving daemon (and tests)
/// may open several handles onto the same directory: with a per-instance
/// counter, two handles in one process would both write `.tmp-<pid>-0`
/// and one handle's rename could publish the other's half-written bytes.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Disk-backed, content-addressed store for finished experiment cells: a
/// directory and the fingerprint its entries must carry, nothing more.
///
/// Layered *under* the in-process memo by the runner: the memo answers
/// every repeat within a process, the cache persists results across
/// processes, and the runner's telemetry counts every probe and store.
/// Lookups and stores never fail the sweep — I/O problems and damaged
/// entries degrade to recomputation.
#[derive(Debug)]
pub struct ExperimentCache {
    dir: PathBuf,
    fingerprint: String,
}

impl ExperimentCache {
    /// Open (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when the directory cannot be created —
    /// the only fatal path in the module, because a cache the user asked
    /// for but that cannot persist anything is a misconfiguration.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            fingerprint: build_fingerprint(),
        })
    }

    /// Replace the entry fingerprint with an explicit `label`.
    ///
    /// Entries written by a handle only satisfy lookups from a handle with
    /// the same fingerprint, and live in files of their own, so two
    /// handles with different labels partition one directory into
    /// independent namespaces. `vmprobe-diff` uses this
    /// to address a baseline build's entries (written under that build's
    /// [`build_fingerprint`]) from the candidate binary.
    #[must_use]
    pub fn with_fingerprint(mut self, label: &str) -> Self {
        self.fingerprint = label.to_owned();
        self
    }

    /// The fingerprint stamped into (and required of) entries.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// File the entry for `key` under this handle's fingerprint lives in:
    /// one file per (fingerprint, key), so handles with different
    /// fingerprints never overwrite each other's entries.
    pub fn entry_path(&self, key: &str) -> PathBuf {
        let hash = |seed| {
            let prefix = fnv1a(self.fingerprint.as_bytes(), seed);
            fnv1a(key.as_bytes(), fnv1a(b"\0", prefix))
        };
        let (lo, hi) = (hash(FNV_OFFSET), hash(FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15));
        self.dir.join(format!("{hi:016x}{lo:016x}.entry"))
    }

    /// Read and check the entry for `key`.
    pub fn lookup(&self, key: &str) -> CacheLookup {
        match fs::read(self.entry_path(key)) {
            Err(_) => CacheLookup::Miss,
            // The file exists, so anything unreadable from here on is
            // damage, including bit flips that break the UTF-8 encoding.
            Ok(bytes) => match String::from_utf8(bytes) {
                Ok(text) => parse_entry(&text, key, &self.fingerprint),
                Err(_) => CacheLookup::Corrupt,
            },
        }
    }

    /// Persist a freshly computed summary under `key` (atomic write:
    /// unique temp file, then rename) and say whether the entry was
    /// published. I/O failure is not an error — the sweep's results are
    /// already in memory and must not be lost to a full disk.
    ///
    /// Safe under a *shared* cache directory: the temp name is unique per
    /// (process, process-wide sequence), and `rename` atomically replaces
    /// any existing entry, so two threads — or two processes — storing
    /// the same key concurrently both succeed and readers only ever see
    /// a complete entry (one of the two, whole).
    pub fn store(&self, key: &str, summary: &RunSummary) -> bool {
        let text = render_entry(key, &self.fingerprint, summary);
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let published =
            fs::write(&tmp, text).is_ok() && fs::rename(&tmp, self.entry_path(key)).is_ok();
        if !published {
            let _ = fs::remove_file(&tmp);
        }
        published
    }
}

// ---------------------------------------------------------------------------
// Entry codec
// ---------------------------------------------------------------------------

/// The JSON form of a struct whose fields are all `u64` counters, `f64`
/// quantities and unit newtypes over `f64` (`field: Unit.accessor`): a
/// fixed-shape array in the order listed, counters as integers and the
/// rest in their exact bit spelling. Arrays rather than keyed objects
/// halve the bytes and the allocations a lookup parses. The decoder is an
/// exhaustive struct literal, so a field added to the struct but not
/// listed here fails to compile.
macro_rules! flat_codec {
    ($encode:ident, $decode:ident, $ty:ident {
        u64: [$($int:ident),*]
        $(, f64: [$($float:ident),*])?
        $(, units: [$($unit:ident: $wrap:ident.$raw:ident),*])?
    }) => {
        fn $encode(s: &$ty) -> String {
            json::array([
                $(s.$int.to_string(),)*
                $($(json::f64_bits(s.$float),)*)?
                $($(json::f64_bits(s.$unit.$raw()),)*)?
            ])
        }

        fn $decode(r: &mut Reader<'_>) -> Result<$ty, String> {
            r.array()?;
            let decoded = $ty {
                $($int: item(r, Reader::u64)?,)*
                $($($float: item(r, Reader::f64_bits)?,)*)?
                $($($unit: $wrap::new(item(r, Reader::f64_bits)?),)*)?
            };
            r.array_end()?;
            Ok(decoded)
        }
    };
}

flat_codec! {
    encode_gc, decode_gc, GcStats {
        u64: [
            collections, minor_collections, major_collections, increments, total_pause_cycles,
            total_copied_bytes, total_marked_objects, total_swept_objects, barrier_remembers,
            barrier_stores
        ]
    }
}

flat_codec! {
    encode_vm, decode_vm, VmStats {
        u64: [
            bytecodes, calls, allocations, classes_loaded, classfile_bytes_loaded, gc_requests,
            gc_increments, quanta, controller_activations, max_stack_depth
        ]
    }
}

flat_codec! {
    encode_compiler, decode_compiler, CompilerStats {
        u64: [baseline_compiles, jit_compiles, opt_compiles, bytes_compiled]
    }
}

flat_codec! {
    encode_faults, decode_faults, FaultStats {
        u64: [
            samples_total, samples_dropped, samples_duplicated, port_glitches, wraps_unwrapped,
            injected_oom, budget_exhausted
        ],
        f64: [dropped_energy_j, duplicated_energy_j, noise_abs_j, drift_abs_j, misattributed_energy_j]
    }
}

flat_codec! {
    encode_probe, decode_probe, ProbeStats {
        u64: [port_stores, daq_samples_paid, hpm_reads_paid, cycles_paid, transition_windows],
        f64: [transition_energy_j]
    }
}

flat_codec! {
    encode_profile, decode_profile, ComponentProfile {
        u64: [instructions, samples],
        f64: [ipc, l2_miss_rate],
        units: [
            time: Seconds.seconds, energy: Joules.joules, mem_energy: Joules.joules,
            avg_power: Watts.watts, peak_power: Watts.watts
        ]
    }
}

/// The body line: one JSON object holding every field of the summary.
/// Power samples and spans are fixed-shape arrays (`[t, cpu_w, mem_w,
/// component]`, `[name, start, end, depth]`) to keep traced entries small.
fn encode_body(s: &RunSummary) -> String {
    let c = &s.config;
    let mut config = JsonObj::new();
    config
        .str("benchmark", &c.benchmark)
        .str("vm", &c.vm.to_string())
        .u64("heap_mb", u64::from(c.heap_mb))
        .str("platform", c.platform.name())
        .str("scale", c.scale.name())
        .bool("trace_power", c.trace_power)
        .bool("record_spans", c.record_spans)
        .u64("daq_period_ns", c.probe.daq_period_ns)
        .bool("nontransparent", c.probe.nontransparent);

    let r = &s.report;
    let mut components = JsonObj::new();
    for (id, p) in &r.components {
        components.raw(id.label(), &encode_profile(p));
    }
    let mut report = JsonObj::new();
    report
        .str("platform", r.platform.name())
        .f64_bits("duration", r.duration.seconds())
        .f64_bits("cpu_energy", r.cpu_energy.joules())
        .f64_bits("mem_energy", r.mem_energy.joules())
        .f64_bits("total_energy", r.total_energy.joules())
        .f64_bits("edp", r.edp.joule_seconds())
        .f64_bits("clean_total_energy", r.clean_total_energy.joules())
        .raw("faults", &encode_faults(&r.faults))
        .raw("probe", &encode_probe(&r.probe))
        .raw("components", &components.finish());

    let mut o = JsonObj::new();
    o.raw("config", &config.finish());
    match s.result_checksum {
        Some(v) => o.i64("checksum", v),
        None => o.raw("checksum", "null"),
    };
    o.raw("report", &report.finish())
        .raw("gc", &encode_gc(&s.gc))
        .raw("vm", &encode_vm(&s.vm))
        .raw("compiler", &encode_compiler(&s.compiler))
        .u64("total_alloc_bytes", s.total_alloc_bytes)
        .u64("live_bytes_end", s.live_bytes_end);
    match &s.power_trace {
        None => o.raw("power_trace", "null"),
        Some(t) => o.array(
            "power_trace",
            t.iter().map(|p| {
                format!(
                    "[{},{},{},\"{}\"]",
                    json::f64_bits(p.t),
                    json::f64_bits(p.cpu_w),
                    json::f64_bits(p.mem_w),
                    json::escape(p.component.label())
                )
            }),
        ),
    };
    match &s.spans {
        None => o.raw("spans", "null"),
        Some(t) => {
            let mut spans = JsonObj::new();
            spans
                .f64_bits("clock_hz", t.clock_hz())
                .u64("max_depth", t.max_depth() as u64)
                .u64("total_cycles", t.total_cycles())
                .array(
                    "spans",
                    t.spans().iter().map(|sp| {
                        format!(
                            "[\"{}\",{},{},{}]",
                            json::escape(sp.name),
                            sp.start_cycles,
                            sp.end_cycles,
                            sp.depth
                        )
                    }),
                );
            o.raw("spans", &spans.finish())
        }
    };
    o.finish()
}

/// Field `name` of the open object, read by `read`: the next field must
/// be this one.
fn field<'a, T>(
    r: &mut Reader<'a>,
    name: &str,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, String>,
) -> Result<T, String> {
    r.field(name)?;
    read(r)
}

/// The next item of the open array, read by `read`.
fn item<'a, T>(
    r: &mut Reader<'a>,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, String>,
) -> Result<T, String> {
    r.item()?;
    read(r)
}

/// The next string, looked up by `from_name`.
fn named<T>(r: &mut Reader<'_>, from_name: impl FnOnce(&str) -> Option<T>) -> Result<T, String> {
    let name = r.str()?;
    from_name(&name).ok_or_else(|| format!("unknown name '{name}'"))
}

/// The next integer, which must fit `T`.
fn int<T: TryFrom<u64>>(r: &mut Reader<'_>) -> Result<T, String> {
    let n = r.u64()?;
    T::try_from(n).map_err(|_| format!("{n} out of range"))
}

/// The next value: `null`, or what `read` reads after the opening token
/// `open` ([`Token::Arr`] or [`Token::Obj`]).
fn nullable<'a, T>(
    r: &mut Reader<'a>,
    open: Token<'static>,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, String>,
) -> Result<Option<T>, String> {
    match r.value()? {
        Token::Null => Ok(None),
        t if t == open => read(r).map(Some),
        _ => Err(format!("expected null or {open:?}")),
    }
}

/// The body line read back by [`encode_body`]'s schema, field by field
/// and in its order, straight from the reader: a missing, extra, repeated
/// or reordered field, a wrongly typed value or a fixed-shape array of
/// another length is an error.
fn decode_body(r: &mut Reader<'_>) -> Result<RunSummary, String> {
    r.object()?;
    let config = field(r, "config", decode_config)?;
    let result_checksum = field(r, "checksum", |r| match r.value()? {
        Token::Null => Ok(None),
        Token::Int(v) => i64::try_from(v)
            .map(Some)
            .map_err(|_| "checksum out of range".into()),
        _ => Err("checksum is not an integer".into()),
    })?;
    let summary = RunSummary {
        config,
        result_checksum,
        report: field(r, "report", decode_report)?,
        gc: field(r, "gc", decode_gc)?,
        vm: field(r, "vm", decode_vm)?,
        compiler: field(r, "compiler", decode_compiler)?,
        total_alloc_bytes: field(r, "total_alloc_bytes", Reader::u64)?,
        live_bytes_end: field(r, "live_bytes_end", Reader::u64)?,
        power_trace: field(r, "power_trace", |r| nullable(r, Token::Arr, power_trace))?,
        spans: field(r, "spans", |r| nullable(r, Token::Obj, decode_spans))?,
    };
    r.object_end()?;
    Ok(summary)
}

/// The power trace's samples, `[t, cpu_w, mem_w, component]` each, after
/// the opening bracket.
fn power_trace(r: &mut Reader<'_>) -> Result<Vec<PowerSample>, String> {
    let mut samples = Vec::new();
    while r.more_items()? {
        r.array()?;
        samples.push(PowerSample {
            t: item(r, Reader::f64_bits)?,
            cpu_w: item(r, Reader::f64_bits)?,
            mem_w: item(r, Reader::f64_bits)?,
            component: item(r, |r| named(r, ComponentId::from_label))?,
        });
        r.array_end()?;
    }
    Ok(samples)
}

fn decode_config(r: &mut Reader<'_>) -> Result<ExperimentConfig, String> {
    r.object()?;
    let config = ExperimentConfig {
        benchmark: field(r, "benchmark", Reader::str)?.into_owned(),
        vm: field(r, "vm", |r| {
            named(r, |vm| match vm {
                "Kaffe" => Some(VmChoice::Kaffe),
                vm => vm
                    .strip_prefix("Jikes/")
                    .and_then(CollectorKind::from_name)
                    .map(VmChoice::Jikes),
            })
        })?,
        heap_mb: field(r, "heap_mb", int)?,
        platform: field(r, "platform", |r| named(r, PlatformKind::from_name))?,
        scale: field(r, "scale", |r| named(r, InputScale::from_name))?,
        trace_power: field(r, "trace_power", Reader::bool)?,
        record_spans: field(r, "record_spans", Reader::bool)?,
        probe: ProbeSpec {
            daq_period_ns: field(r, "daq_period_ns", Reader::u64)?,
            nontransparent: field(r, "nontransparent", Reader::bool)?,
        },
    };
    r.object_end()?;
    Ok(config)
}

fn decode_report(r: &mut Reader<'_>) -> Result<Report, String> {
    r.object()?;
    let platform = field(r, "platform", |r| named(r, PlatformKind::from_name))?;
    let mut bits = |name| field(r, name, Reader::f64_bits);
    let duration = Seconds::new(bits("duration")?);
    let cpu_energy = Joules::new(bits("cpu_energy")?);
    let mem_energy = Joules::new(bits("mem_energy")?);
    let total_energy = Joules::new(bits("total_energy")?);
    let edp = EnergyDelay::new(bits("edp")?);
    let clean_total_energy = Joules::new(bits("clean_total_energy")?);
    let faults = field(r, "faults", decode_faults)?;
    let probe = field(r, "probe", decode_probe)?;
    r.field("components")?;
    r.object()?;
    // Labels come in the map's order, each once.
    let mut components = BTreeMap::new();
    while let Some(label) = r.next_key()? {
        let id = ComponentId::from_label(&label)
            .filter(|id| {
                components
                    .last_key_value()
                    .is_none_or(|(last, _)| last < id)
            })
            .ok_or_else(|| format!("component '{label}' unknown or out of order"))?;
        components.insert(id, decode_profile(r)?);
    }
    r.object_end()?;
    Ok(Report {
        platform,
        components,
        duration,
        cpu_energy,
        mem_energy,
        total_energy,
        edp,
        clean_total_energy,
        faults,
        probe,
    })
}

/// The `spans` object after its opening brace.
fn decode_spans(r: &mut Reader<'_>) -> Result<SpanTrace, String> {
    let clock_hz = field(r, "clock_hz", Reader::f64_bits)?;
    let max_depth = field(r, "max_depth", int)?;
    let total_cycles = field(r, "total_cycles", Reader::u64)?;
    r.field("spans")?;
    r.array()?;
    let mut spans = Vec::new();
    while r.more_items()? {
        r.array()?;
        spans.push(VirtualSpan {
            // Span names are component labels, restored as the registry's
            // `&'static str`.
            name: item(r, |r| named(r, ComponentId::from_label))?.label(),
            start_cycles: item(r, Reader::u64)?,
            end_cycles: item(r, Reader::u64)?,
            depth: item(r, int)?,
        });
        r.array_end()?;
    }
    r.object_end()?;
    Ok(SpanTrace::from_parts(
        clock_hz,
        spans,
        max_depth,
        total_cycles,
    ))
}

/// An entry is two lines: a JSON header carrying the format, fingerprint,
/// key and the FNV-1a-64 of the body line's bytes, then the body line.
fn render_entry(key: &str, fingerprint: &str, summary: &RunSummary) -> String {
    let body = encode_body(summary);
    let mut header = JsonObj::new();
    header
        .u64("format", u64::from(FORMAT_VERSION))
        .str("fingerprint", fingerprint)
        .str("key", key)
        .str("fnv", &body_checksum(&body));
    format!("{}\n{body}\n", header.finish())
}

/// The header's `fnv` field: FNV-1a-64 of the body line, 16 hex digits.
fn body_checksum(body: &str) -> String {
    format!("{:016x}", fnv1a(body.as_bytes(), FNV_OFFSET))
}

/// Read an entry's text for `key`: a stale entry (another format, build
/// fingerprint or key) is a `Miss`, a damaged one `Corrupt`. Both lines
/// are read by their schema in the order [`render_entry`] writes them, so
/// an entry that passes its checksum but is off-schema is `Corrupt` too.
fn parse_entry(text: &str, key: &str, fingerprint: &str) -> CacheLookup {
    let Some((header, rest)) = text.split_once('\n') else {
        return CacheLookup::Corrupt;
    };
    // The v1/v2 line format is an older revision: stale, not damage.
    if header.starts_with("vmprobe-cache ") {
        return CacheLookup::Miss;
    }
    let mut h = Reader::new(header);
    match h
        .object()
        .and_then(|()| h.field("format"))
        .and_then(|()| h.u64())
    {
        // The rest of another format's header is that format's business.
        Ok(f) if f != u64::from(FORMAT_VERSION) => return CacheLookup::Miss,
        Ok(_) => {}
        Err(_) => return CacheLookup::Corrupt,
    }
    let mut field = |name: &str| {
        h.field(name)?;
        h.str()
    };
    let (Ok(fp), Ok(stored_key), Ok(sum)) = (field("fingerprint"), field("key"), field("fnv"))
    else {
        return CacheLookup::Corrupt;
    };
    if h.object_end().and_then(|()| h.end()).is_err() {
        return CacheLookup::Corrupt;
    }
    if fp != fingerprint || stored_key != key {
        return CacheLookup::Miss;
    }
    // Anything after the body line, or a missing final newline, fails here
    // or at the checksum.
    let Some(body) = rest.strip_suffix('\n') else {
        return CacheLookup::Corrupt;
    };
    if sum != body_checksum(body) {
        return CacheLookup::Corrupt;
    }
    let mut r = Reader::new(body);
    match decode_body(&mut r).and_then(|s| r.end().map(|()| s)) {
        Ok(summary) => CacheLookup::Hit(Arc::new(summary)),
        Err(_) => CacheLookup::Corrupt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "vmprobe-cache-test-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// A synthetic summary touching every field, with awkward float values
    /// (subnormal, negative-zero, extremes) that only a bit-exact codec
    /// survives.
    fn summary() -> RunSummary {
        let mut components = BTreeMap::new();
        components.insert(
            ComponentId::Application,
            ComponentProfile {
                time: Seconds::new(0.1 + 0.2), // 0.30000000000000004
                energy: Joules::new(1.0 / 3.0),
                mem_energy: Joules::new(f64::MIN_POSITIVE / 2.0),
                avg_power: Watts::new(-0.0),
                peak_power: Watts::new(12.5),
                instructions: u64::MAX,
                ipc: 0.87,
                l2_miss_rate: 1e-300,
                samples: 3,
            },
        );
        components.insert(
            ComponentId::Gc,
            ComponentProfile {
                time: Seconds::new(2e-3),
                energy: Joules::new(0.5),
                mem_energy: Joules::new(0.01),
                avg_power: Watts::new(9.0),
                peak_power: Watts::new(11.0),
                instructions: 42,
                ipc: 1.25,
                l2_miss_rate: 0.125,
                samples: 1,
            },
        );
        let mut trace = SpanTrace::new(1.6e9);
        trace.enter(ComponentId::Gc.label(), 100);
        trace.enter(ComponentId::ClassLoader.label(), 150);
        trace.exit(200);
        trace.exit(400);
        trace.finish(500);
        RunSummary {
            config: ExperimentConfig::jikes("_213_javac", CollectorKind::GenMs, 48)
                .with_trace()
                .with_probe(ProbeSpec::nontransparent_at(4_000)),
            result_checksum: Some(-12345),
            report: Report {
                platform: PlatformKind::PentiumM,
                components,
                duration: Seconds::new(1.2345678901234567),
                cpu_energy: Joules::new(10.0),
                mem_energy: Joules::new(0.7),
                total_energy: Joules::new(10.7),
                edp: EnergyDelay::new(13.2),
                clean_total_energy: Joules::new(10.7),
                faults: FaultStats {
                    samples_total: 9,
                    dropped_energy_j: 0.25,
                    ..FaultStats::default()
                },
                probe: ProbeStats {
                    port_stores: 6,
                    daq_samples_paid: 250,
                    hpm_reads_paid: 2,
                    cycles_paid: 48_000,
                    transition_windows: 5,
                    transition_energy_j: 1e-4,
                },
            },
            gc: GcStats {
                collections: 7,
                barrier_stores: 1 << 40,
                ..GcStats::default()
            },
            vm: VmStats {
                bytecodes: 123_456_789,
                max_stack_depth: 17,
                ..VmStats::default()
            },
            compiler: CompilerStats {
                jit_compiles: 11,
                bytes_compiled: 2048,
                ..CompilerStats::default()
            },
            power_trace: Some(vec![PowerSample {
                t: 40e-6,
                cpu_w: 7.25,
                mem_w: 0.5,
                component: ComponentId::Application,
            }]),
            total_alloc_bytes: 1 << 33,
            live_bytes_end: 12_345,
            spans: Some(trace),
        }
    }

    fn assert_bit_identical(a: &RunSummary, b: &RunSummary) {
        assert_eq!(a.config, b.config);
        assert_eq!(a.result_checksum, b.result_checksum);
        assert_eq!(a.report, b.report);
        // PartialEq on f64 treats -0.0 == 0.0; the bit patterns must match
        // too for byte-identical rendering.
        for (x, y) in a
            .report
            .components
            .values()
            .zip(b.report.components.values())
        {
            assert_eq!(x.avg_power.watts().to_bits(), y.avg_power.watts().to_bits());
            assert_eq!(x.time.seconds().to_bits(), y.time.seconds().to_bits());
        }
        assert_eq!(a.gc, b.gc);
        assert_eq!(a.vm, b.vm);
        assert_eq!(a.compiler, b.compiler);
        assert_eq!(a.power_trace, b.power_trace);
        assert_eq!(a.total_alloc_bytes, b.total_alloc_bytes);
        assert_eq!(a.live_bytes_end, b.live_bytes_end);
        assert_eq!(a.spans, b.spans);
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let dir = test_dir("roundtrip");
        let cache = ExperimentCache::open(&dir).unwrap();
        let s = Arc::new(summary());
        let key = s.config.key();
        assert!(matches!(cache.lookup(&key), CacheLookup::Miss));
        assert!(cache.store(&key, &s));
        // Through the writing handle and through a fresh one alike.
        for handle in [&cache, &ExperimentCache::open(&dir).unwrap()] {
            let CacheLookup::Hit(hit) = handle.lookup(&key) else {
                panic!("expected disk hit");
            };
            assert_bit_identical(&s, &hit);
        }

        // Awkward strings survive as fingerprint label and benchmark name.
        for text in [
            "a b",
            "a\\b",
            "line\nbreak",
            "",
            "plain",
            "\\s \\n",
            "say \"hi\"",
            "Jikes/é😀",
        ] {
            let mut awkward = summary();
            awkward.config.benchmark = text.to_owned();
            let awkward = Arc::new(awkward);
            let key = awkward.config.key();
            ExperimentCache::open(&dir)
                .unwrap()
                .with_fingerprint(text)
                .store(&key, &awkward);
            let cold = ExperimentCache::open(&dir).unwrap().with_fingerprint(text);
            let CacheLookup::Hit(hit) = cold.lookup(&key) else {
                panic!("expected disk hit for {text:?}");
            };
            assert_bit_identical(&awkward, &hit);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_config_axis_round_trips() {
        let mut s = summary();
        let vms = [
            VmChoice::Kaffe,
            VmChoice::Jikes(CollectorKind::SemiSpace),
            VmChoice::Jikes(CollectorKind::MarkSweep),
            VmChoice::Jikes(CollectorKind::GenCopy),
            VmChoice::Jikes(CollectorKind::GenMs),
            VmChoice::Jikes(CollectorKind::KaffeIncremental),
        ];
        for vm in vms {
            for platform in [PlatformKind::PentiumM, PlatformKind::Pxa255] {
                for scale in [InputScale::Full, InputScale::Reduced] {
                    s.config.vm = vm;
                    s.config.platform = platform;
                    s.config.scale = scale;
                    s.report.platform = platform;
                    s.result_checksum = None;
                    s.power_trace = None;
                    let body = encode_body(&s);
                    let back = decode_body(&mut Reader::new(&body)).expect("decodes");
                    assert_bit_identical(&s, &back);
                }
            }
        }
    }

    /// Every truncation and every single-byte flip of a stored entry reads
    /// as a miss, as damage, or as a hit identical to the original — and
    /// never panics. A body that leaves the entry schema is damage even
    /// under a matching checksum.
    #[test]
    fn damaged_entries_never_yield_a_wrong_hit() {
        let dir = test_dir("damage");
        let cache = ExperimentCache::open(&dir).unwrap();
        let s = Arc::new(summary());
        let key = s.config.key();
        cache.store(&key, &s);
        let path = cache.entry_path(&key);
        let original = fs::read(&path).unwrap();
        let check = |bytes: &[u8]| {
            fs::write(&path, bytes).unwrap();
            if let CacheLookup::Hit(hit) = cache.lookup(&key) {
                assert_bit_identical(&s, &hit);
            }
        };
        for len in 0..original.len() {
            check(&original[..len]);
        }
        for i in 0..original.len() {
            for mask in [0x01, 0x20, 0x80] {
                let mut bytes = original.clone();
                bytes[i] ^= mask;
                check(&bytes);
            }
        }

        // A body edited off its schema and sealed with a fresh checksum
        // still never hits: the decoder reads the schema, not the bytes.
        let text = String::from_utf8(original).unwrap();
        let (header, body) = text.trim_end().split_once('\n').unwrap();
        let verdict = |entry: String| {
            fs::write(&path, entry).unwrap();
            cache.lookup(&key)
        };
        let resealed = |edited: &str| {
            let header = header.replace(&body_checksum(body), &body_checksum(edited));
            format!("{header}\n{edited}\n")
        };
        assert!(matches!(verdict(resealed(body)), CacheLookup::Hit(_)));
        let tail = ",\"live_bytes_end\":12345";
        let float = json::f64_bits(s.report.duration.seconds());
        let gc = encode_gc(&s.gc);
        let app = encode_profile(&s.report.components[&ComponentId::Application]);
        let edits = [
            ("a dropped field", tail.to_owned(), String::new()),
            (
                "an added field",
                tail.to_owned(),
                format!("{tail},\"extra\":0"),
            ),
            (
                "two swapped fields",
                "\"total_alloc_bytes\":8589934592,\"live_bytes_end\":12345".to_owned(),
                "\"live_bytes_end\":12345,\"total_alloc_bytes\":8589934592".to_owned(),
            ),
            ("a duplicated key", tail.to_owned(), format!("{tail}{tail}")),
            (
                "a duplicated component",
                "\"components\":{".to_owned(),
                format!("\"components\":{{\"App\":{app},"),
            ),
            (
                "a 15-digit float",
                float.clone(),
                format!("{}\"", &float[..16]),
            ),
            (
                "a non-hex float",
                float.clone(),
                format!("{}g\"", &float[..16]),
            ),
            (
                "a string for an integer",
                "\"heap_mb\":48".to_owned(),
                "\"heap_mb\":\"48\"".to_owned(),
            ),
            (
                "a flat array one item short",
                gc.clone(),
                format!("{}]", &gc[..gc.rfind(',').unwrap()]),
            ),
            (
                "a flat array one item long",
                gc.clone(),
                format!("{},0]", &gc[..gc.len() - 1]),
            ),
        ];
        for (what, from, to) in edits {
            assert!(body.contains(&from), "{what}: {from} not in the body");
            let edited = body.replacen(&from, &to, 1);
            let got = verdict(resealed(&edited));
            assert!(matches!(got, CacheLookup::Corrupt), "{what}: {got:?}");
        }
        for after in ["x", "{}", ",0"] {
            let got = verdict(resealed(&format!("{body}{after}")));
            assert!(
                matches!(got, CacheLookup::Corrupt),
                "bytes after the body: {got:?}"
            );
        }
        // The header's outcomes of DESIGN §12: another format is stale, a
        // header without its checksum is damage.
        let other_format = header.replace("\"format\":3,", "\"format\":2,");
        assert!(matches!(
            verdict(format!("{other_format}\n{body}\n")),
            CacheLookup::Miss
        ));
        let fnv = format!(",\"fnv\":\"{}\"", body_checksum(body));
        let no_fnv = header.replace(&fnv, "");
        assert_ne!(no_fnv, header);
        assert!(matches!(
            verdict(format!("{no_fnv}\n{body}\n")),
            CacheLookup::Corrupt
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    /// An entry in the v2 line format, as the previous release wrote it.
    const V2_ENTRY: &str = "\
vmprobe-cache 2
fingerprint fmt2|schema1|v0.1.0
key moldyn|Jikes/GenCopy|32|PentiumM|Reduced|false
body 15 e11e5c2eeb447ef9
config moldyn jikes:gencopy 32 p6 reduced f f 40000 f
checksum 308631
report p6 3f525a181bcb9804 3f938f95ab3fb7bb 3f41b22b0af09ee5 3f941d2703973cb2 3ef7120e2e29ff30 3f941d2703973cb3
faults 28 0 0 0 0 0 0 0000000000000000 0000000000000000 0000000000000000 0000000000000000 0000000000000000
probe 0 0 0 0 11 3f7f4bdd828a5af9
components 3
c App 3f510a31065d3c47 3f92248c7a29f048 3f40080430664f41 403109208a71f09c 403206e978d4fdf4 2666646 3ffaaa9d1f601798 3fec12a9d6517f39 26
c base_comp 3f04f98c48783ed6 3f45d9bafa6ffbc4 3f05619bd1574b15 4030ab02c9008fbf 4030ab02c9008fbf 0 0000000000000000 0000000000000000 1
c sched 3f0503475d36bcd6 3f47876b2848f2ae 3ee503475d36bcd6 4031ea795bf18702 4031ea795bf18702 0 0000000000000000 0000000000000000 1
gc 0 0 0 0 0 0 0 0 0 600
vm 935309 12 704 15 11470 0 0 1 0 3
compiler 12 0 0 1522
alloc 303408 303408
trace none
spans none
";

    #[test]
    fn v2_line_format_entry_is_a_stale_miss() {
        let dir = test_dir("v2");
        let cache = ExperimentCache::open(&dir).unwrap();
        let key = "moldyn|Jikes/GenCopy|32|PentiumM|Reduced|false";
        fs::write(cache.entry_path(key), V2_ENTRY).unwrap();
        assert!(matches!(cache.lookup(key), CacheLookup::Miss));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_flagged_never_fatal() {
        let dir = test_dir("corrupt");
        let cache = ExperimentCache::open(&dir).unwrap();
        let s = Arc::new(summary());
        let key = s.config.key();
        cache.store(&key, &s);
        // Flip bytes in the middle of the entry on disk.
        let path = cache.entry_path(&key);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        bytes[mid + 1] ^= 0xff;
        fs::write(&path, bytes).unwrap();
        let cold = ExperimentCache::open(&dir).unwrap();
        assert!(matches!(cold.lookup(&key), CacheLookup::Corrupt));
        // Recompute-and-overwrite heals the entry.
        cold.store(&key, &s);
        let fresh = ExperimentCache::open(&dir).unwrap();
        assert!(matches!(fresh.lookup(&key), CacheLookup::Hit(_)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_is_corrupt() {
        let dir = test_dir("truncated");
        let cache = ExperimentCache::open(&dir).unwrap();
        let s = Arc::new(summary());
        let key = s.config.key();
        cache.store(&key, &s);
        let path = cache.entry_path(&key);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        let cold = ExperimentCache::open(&dir).unwrap();
        assert!(matches!(cold.lookup(&key), CacheLookup::Corrupt));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_fingerprint_is_a_silent_miss() {
        let dir = test_dir("stale");
        let cache = ExperimentCache::open(&dir).unwrap();
        let s = Arc::new(summary());
        let key = s.config.key();
        cache.store(&key, &s);
        let path = cache.entry_path(&key);
        let text = fs::read_to_string(&path).unwrap();
        for (from, to) in [
            (build_fingerprint(), "fmt0|schema0|v0.0.0".to_owned()),
            ("\"format\":3,".to_owned(), "\"format\":4,".to_owned()),
        ] {
            let doctored = text.replacen(&from, &to, 1);
            assert_ne!(text, doctored, "{from} must be present");
            fs::write(&path, doctored).unwrap();
            let cold = ExperimentCache::open(&dir).unwrap();
            assert!(matches!(cold.lookup(&key), CacheLookup::Miss));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn handles_with_different_fingerprints_keep_their_own_entries() {
        let dir = test_dir("two-builds");
        // Two builds, one cell, two different results.
        let (a_summary, key) = (summary(), summary().config.key());
        let mut b_summary = summary();
        b_summary.result_checksum = None;
        assert_ne!(a_summary.result_checksum, b_summary.result_checksum);
        let a = ExperimentCache::open(&dir).unwrap().with_fingerprint("A");
        let b = ExperimentCache::open(&dir).unwrap().with_fingerprint("B");
        assert!(a.store(&key, &a_summary));
        assert!(b.store(&key, &b_summary));
        for (handle, stored) in [(&a, &a_summary), (&b, &b_summary)] {
            let CacheLookup::Hit(hit) = handle.lookup(&key) else {
                panic!("{} lost its entry", handle.fingerprint());
            };
            assert_bit_identical(stored, &hit);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_collision_on_filename_is_detected() {
        let dir = test_dir("collision");
        let cache = ExperimentCache::open(&dir).unwrap();
        let s = Arc::new(summary());
        let key = s.config.key();
        cache.store(&key, &s);
        // Another key whose entry file we overwrite to simulate a 128-bit
        // hash collision: the stored key line disagrees, so the probe is a
        // miss, not a wrong answer.
        let text = fs::read_to_string(cache.entry_path(&key)).unwrap();
        let other = "some|other|key";
        fs::write(cache.entry_path(other), text).unwrap();
        let cold = ExperimentCache::open(&dir).unwrap();
        assert!(matches!(cold.lookup(other), CacheLookup::Miss));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_stores_of_the_same_key_are_benign() {
        // The daemon shares one cache directory across tenants, each with
        // its own handle. Two threads hammering the same key through two
        // handles must never produce a torn entry, and a third handle
        // probing throughout must only ever see Miss (nothing published
        // yet) or a valid Hit — never Corrupt.
        let dir = test_dir("shared");
        let a = ExperimentCache::open(&dir).unwrap();
        let b = ExperimentCache::open(&dir).unwrap();
        let reader = ExperimentCache::open(&dir).unwrap();
        let s = Arc::new(summary());
        let key = s.config.key();
        let published = std::thread::scope(|scope| {
            let writers: Vec<_> = [&a, &b]
                .into_iter()
                .map(|cache| scope.spawn(|| (0..50).filter(|_| cache.store(&key, &s)).count()))
                .collect();
            scope.spawn(|| {
                for _ in 0..100 {
                    match reader.lookup(&key) {
                        CacheLookup::Hit(hit) => assert_bit_identical(&s, &hit),
                        CacheLookup::Miss => {}
                        CacheLookup::Corrupt => panic!("reader saw a torn entry"),
                    }
                }
            });
            writers
                .into_iter()
                .map(|w| w.join().unwrap())
                .sum::<usize>()
        });
        assert_eq!(published, 100);
        // After the dust settles the entry is valid on disk.
        let cold = ExperimentCache::open(&dir).unwrap();
        assert!(matches!(cold.lookup(&key), CacheLookup::Hit(_)));
        // No temp files were leaked by the race.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "leaked temp files: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
