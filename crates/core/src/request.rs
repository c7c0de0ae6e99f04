//! The front door: one argument lexer for every binary, and one request
//! parser fed by both the command line and the serve wire.
//!
//! [`lex`] turns `argv` into [`Args`]; a wire request is a [`JsonValue`]
//! object. Both are key→value [`Source`]s, and everything above reading a
//! value — the cell, the fault plan, the diff options, the period grid,
//! their defaults, ranges and error text — is written once against it.

use std::collections::BTreeMap;
use std::str::FromStr;

use vmprobe_platform::PlatformKind;
use vmprobe_power::{EnergyPerturbation, FaultPlan, ProbeSpec};
use vmprobe_workloads::InputScale;

use crate::json::JsonValue;
use crate::observe::{parse_period_grid, DEFAULT_PERIOD_GRID};
use crate::{DiffOptions, ExperimentConfig, VmChoice};

/// `vmprobe-run`'s single-experiment positionals, as request fields:
/// `<benchmark> [collector] [heap_mb] [platform] [scale]`.
pub const CELL_FIELDS: [&str; 5] = ["benchmark", "collector", "heap_mb", "platform", "scale"];

/// Command-line arguments after lexing.
#[derive(Debug, Default, PartialEq)]
pub struct Args {
    /// Positional arguments, in order.
    pub positionals: Vec<String>,
    /// The last value of each flag given (`""` for a switch), keyed by
    /// flag name, plus the positionals named by [`Args::name_positionals`].
    values: BTreeMap<String, String>,
    named: Vec<&'static str>,
}

/// Lex `argv` (without the program name) against a binary's switches,
/// which never take a value, and its valued flags (`--name value` or
/// `--name=value`). `Ok(None)` means `--help` or `-h` was given.
pub fn lex(
    argv: impl IntoIterator<Item = String>,
    switches: &[&str],
    valued: &[&str],
) -> Result<Option<Args>, String> {
    let mut args = Args::default();
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            return Ok(None);
        }
        let Some(flag) = arg.strip_prefix("--") else {
            args.positionals.push(arg);
            continue;
        };
        let (name, inline) = match flag.split_once('=') {
            Some((n, v)) => (n, Some(v.to_owned())),
            None => (flag, None),
        };
        let value = if switches.contains(&name) {
            if inline.is_some() {
                return Err(format!("--{name} takes no value"));
            }
            String::new()
        } else if valued.contains(&name) {
            inline
                .or_else(|| it.next())
                .ok_or_else(|| format!("--{name} needs a value"))?
        } else {
            return Err(format!("unknown flag --{name}"));
        };
        args.values.insert(name.to_owned(), value);
    }
    Ok(Some(args))
}

impl Args {
    /// Whether a flag was given.
    pub fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// A valued flag's text.
    pub fn string(&self, name: &str) -> Option<String> {
        self.values.get(name).cloned()
    }

    /// Read the positionals as the request fields `keys`, in order.
    pub fn name_positionals(&mut self, keys: &[&'static str]) -> Result<(), String> {
        if let Some(extra) = self.positionals.get(keys.len()) {
            return Err(format!("unexpected extra argument '{extra}'"));
        }
        for (key, value) in keys.iter().zip(&self.positionals) {
            self.values.insert((*key).to_owned(), value.clone());
            self.named.push(key);
        }
        Ok(())
    }

    /// Request field `key`: a named positional, or the flag spelled with
    /// dashes (`heap_mb` is `--heap-mb`).
    fn raw(&self, key: &str) -> Option<&str> {
        let flag = key.replace('_', "-");
        self.values
            .get(key)
            .or(self.values.get(&flag))
            .map(String::as_str)
    }

    fn parsed<T: FromStr>(&self, key: &str, what: &str) -> Result<Option<T>, String> {
        let parse = |v: &str| {
            v.parse()
                .map_err(|_| format!("{} expects {what}, got '{v}'", self.label(key)))
        };
        self.raw(key).map(parse).transpose()
    }
}

/// A key→value source a request is read from, keyed by wire field name.
pub trait Source {
    /// How an error names `key` in this source's own syntax.
    fn label(&self, key: &str) -> String;
    /// A string field.
    fn str(&self, key: &str) -> Result<Option<&str>, String>;
    /// An unsigned-integer field.
    fn u64(&self, key: &str) -> Result<Option<u64>, String>;
    /// A number field.
    fn f64(&self, key: &str) -> Result<Option<f64>, String>;

    /// An unsigned-integer field that must lie in `lo..=hi`.
    fn u64_in(&self, key: &str, lo: u64, hi: u64) -> Result<Option<u64>, String> {
        let v = self.u64(key)?;
        match v.filter(|v| !(lo..=hi).contains(v)) {
            None => Ok(v),
            Some(v) if hi == u64::MAX => Err(format!(
                "{} must be at least {lo}, got {v}",
                self.label(key)
            )),
            Some(v) => Err(format!(
                "{} must be an integer in [{lo}, {hi}], got {v}",
                self.label(key)
            )),
        }
    }
}

impl Source for Args {
    fn label(&self, key: &str) -> String {
        if self.named.contains(&key) {
            format!("'{key}'")
        } else {
            format!("--{}", key.replace('_', "-"))
        }
    }

    fn str(&self, key: &str) -> Result<Option<&str>, String> {
        Ok(self.raw(key))
    }

    fn u64(&self, key: &str) -> Result<Option<u64>, String> {
        self.parsed(key, "an unsigned integer")
    }

    fn f64(&self, key: &str) -> Result<Option<f64>, String> {
        self.parsed(key, "a number")
    }
}

/// Wire field `key` read by `read`; `null` reads as absent.
fn field<'a, T>(
    v: &'a JsonValue,
    key: &str,
    what: &str,
    read: fn(&'a JsonValue) -> Option<T>,
) -> Result<Option<T>, String> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(x) => read(x)
            .map(Some)
            .ok_or_else(|| format!("'{key}' must be {what}")),
    }
}

impl Source for JsonValue {
    fn label(&self, key: &str) -> String {
        format!("'{key}'")
    }

    fn str(&self, key: &str) -> Result<Option<&str>, String> {
        field(self, key, "a string", JsonValue::as_str)
    }

    fn u64(&self, key: &str) -> Result<Option<u64>, String> {
        field(self, key, "an unsigned integer", JsonValue::as_u64)
    }

    fn f64(&self, key: &str) -> Result<Option<f64>, String> {
        field(self, key, "a number", JsonValue::as_f64)
    }
}

/// A platform name: `p6` or `pxa255`.
pub fn platform(name: &str) -> Result<PlatformKind, String> {
    PlatformKind::from_name(name)
        .ok_or_else(|| format!("unknown platform '{name}' (expected p6 or pxa255)"))
}

/// An input-scale name: `full` or `s10`.
pub fn scale(name: &str) -> Result<InputScale, String> {
    InputScale::from_name(name)
        .ok_or_else(|| format!("unknown scale '{name}' (expected full or s10)"))
}

/// The `heap_mb` field: a paper heap label in `1..=u32::MAX` MB.
pub fn heap_mb(src: &impl Source) -> Result<Option<u32>, String> {
    Ok(src.u64_in("heap_mb", 1, u32::MAX.into())?.map(|h| h as u32))
}

/// One experiment cell: `benchmark` (required, looked up later so the
/// serve envelope can refuse first), then `collector` (default gencopy),
/// `heap_mb` (64), `platform` (p6) and `scale` (full).
pub fn cell(src: &impl Source) -> Result<ExperimentConfig, String> {
    let benchmark = src
        .str("benchmark")?
        .ok_or("request needs a string 'benchmark'")?
        .to_owned();
    let collector = src.str("collector")?.unwrap_or("gencopy");
    let vm = VmChoice::from_collector_name(collector).ok_or_else(|| {
        format!(
            "unknown collector '{collector}' (expected semispace, marksweep, gencopy, genms or kaffe)"
        )
    })?;
    Ok(ExperimentConfig {
        benchmark,
        vm,
        heap_mb: heap_mb(src)?.unwrap_or(64),
        platform: platform(src.str("platform")?.unwrap_or("p6"))?,
        scale: scale(src.str("scale")?.unwrap_or("full"))?,
        trace_power: false,
        record_spans: false,
        probe: ProbeSpec::default(),
    })
}

/// The `faults` spec and `seed`: `None` when neither is given, so a plain
/// request keeps the batch cache key.
pub fn fault_plan(src: &impl Source) -> Result<Option<FaultPlan>, String> {
    let plan = src
        .str("faults")?
        .map(|spec| FaultPlan::parse(spec).map_err(|e| format!("bad 'faults' spec: {e}")))
        .transpose()?;
    Ok(match src.u64("seed")? {
        Some(seed) => Some(plan.unwrap_or_else(FaultPlan::none).with_seed(seed)),
        None => plan,
    })
}

/// The diff knobs over caller defaults: `seed`, `replicates` (at most
/// `max_replicates`), `resamples` (at most `max_resamples`), `confidence`
/// in (0, 1), and the candidate-side `perturb` spec.
pub fn diff_options(
    src: &impl Source,
    defaults: DiffOptions,
    max_replicates: u64,
    max_resamples: u64,
) -> Result<(DiffOptions, EnergyPerturbation), String> {
    let mut options = defaults;
    if let Some(seed) = src.u64("seed")? {
        options.seed = seed;
    }
    if let Some(r) = src.u64_in("replicates", 1, max_replicates)? {
        options.replicates = r as usize;
    }
    if let Some(r) = src.u64_in("resamples", 1, max_resamples)? {
        options.resamples = r as u32;
    }
    if let Some(c) = src.f64("confidence")? {
        if !(c > 0.0 && c < 1.0) {
            return Err(format!(
                "{} must be a number in (0, 1), got {c}",
                src.label("confidence")
            ));
        }
        options.confidence = c;
    }
    let perturb = match src.str("perturb")? {
        None => EnergyPerturbation::none(),
        Some(spec) => EnergyPerturbation::parse(spec).map_err(|e| e.to_string())?,
    };
    Ok((options, perturb))
}

/// The observe probe-period grid under `key`, defaulting to
/// [`DEFAULT_PERIOD_GRID`].
pub fn period_grid(src: &impl Source, key: &str) -> Result<Vec<u64>, String> {
    let spec = src.str(key)?.unwrap_or(DEFAULT_PERIOD_GRID);
    parse_period_grid(spec).map_err(|e| format!("bad {}: {e}", src.label(key)))
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::serve::protocol::{parse_request, Request};

    /// One cell spec: `vmprobe-run` positionals (the same values become
    /// wire fields under [`CELL_FIELDS`]), then `--faults` and `--seed`.
    type Case = (&'static [&'static str], Option<&'static str>, Option<u64>);

    const CASES: [Case; 17] = [
        (&["moldyn"], None, None),
        (&["moldyn", "semispace", "32", "p6", "full"], None, None),
        (&["moldyn", "marksweep", "48", "p6", "s10"], None, None),
        (&["_209_db", "gencopy", "64", "pxa255", "full"], None, None),
        (&["_209_db", "genms", "128", "pxa255", "s10"], None, None),
        (&["fop", "kaffe", "16", "pxa255", "s10"], None, None),
        (&["moldyn", "gencopy", "0"], None, None),
        (&["moldyn", "gencopy", "4294967295"], None, None),
        (&["moldyn", "gencopy", "4294967296"], None, None),
        (&["moldyn", "concmark"], None, None),
        (&["moldyn", "gencopy", "64", "sparc"], None, None),
        (&["moldyn", "gencopy", "64", "p6", "s20"], None, None),
        (&["moldyn"], Some("zap=1"), None),
        (&["moldyn"], Some("drop=0.05,dup=0.01"), None),
        (&["moldyn"], None, Some(7)),
        (&["moldyn"], Some("oom@100"), Some(42)),
        (
            &["_209_db", "kaffe", "32", "pxa255", "s10"],
            Some("wrap32"),
            Some(9),
        ),
    ];

    type Lowered = Result<(String, Option<FaultPlan>), String>;

    /// The `vmprobe-run` path: lex, name the positionals, read the request.
    fn via_cli((fields, faults, seed): Case) -> Lowered {
        let mut argv: Vec<String> = fields.iter().map(|f| f.to_string()).collect();
        if let Some(spec) = faults {
            argv.extend(["--faults".to_owned(), spec.to_owned()]);
        }
        if let Some(seed) = seed {
            argv.push(format!("--seed={seed}"));
        }
        let mut args = lex(argv, &[], &["faults", "seed"])?.expect("no --help");
        args.name_positionals(&CELL_FIELDS)?;
        Ok((cell(&args)?.key(), fault_plan(&args)?))
    }

    /// The serve path: one `run` request line through `parse_request`.
    fn via_wire((fields, faults, seed): Case) -> Lowered {
        let mut line = String::from(r#"{"op":"run","id":"p","tenant":"t""#);
        for (key, value) in CELL_FIELDS.iter().zip(fields) {
            match *key {
                "heap_mb" => line += &format!(r#","{key}":{value}"#),
                _ => line += &format!(r#","{key}":"{value}""#),
            }
        }
        if let Some(spec) = faults {
            line += &format!(r#","faults":"{spec}""#);
        }
        if let Some(seed) = seed {
            line += &format!(r#","seed":{seed}"#);
        }
        line.push('}');
        match parse_request(&line) {
            Ok(Request::Run(run)) => Ok((run.config.key(), run.plan)),
            Ok(other) => panic!("{line} parsed as {other:?}"),
            Err((_, msg)) => Err(msg),
        }
    }

    #[test]
    fn cli_and_wire_lower_every_cell_identically() {
        let mut errors = 0;
        for case in CASES {
            let cli = via_cli(case);
            assert_eq!(cli, via_wire(case), "{case:?}");
            errors += usize::from(cli.is_err());
        }
        assert_eq!(errors, 6, "the table covers six malformed cells");
    }

    #[test]
    fn lexer_rules() {
        let lexed = |argv: &[&str]| lex(argv.iter().map(|a| a.to_string()), &["json"], &["out"]);
        let args = lexed(&["a", "--out", "x", "--json", "b", "--out=y"])
            .unwrap()
            .unwrap();
        assert_eq!(args.positionals, ["a", "b"]);
        assert_eq!(args.string("out").as_deref(), Some("y"), "last value wins");
        assert!(args.has("json"));
        assert_eq!(lexed(&["--out", "x", "-h", "--bogus"]), Ok(None));
        assert_eq!(
            lexed(&["--json=false"]),
            Err("--json takes no value".into())
        );
        assert_eq!(lexed(&["--out"]), Err("--out needs a value".into()));
        assert_eq!(lexed(&["--bogus"]), Err("unknown flag --bogus".into()));
    }
}
