//! Integration tests for the `vmprobe-run` command-line interface.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vmprobe-run"))
}

#[test]
fn runs_an_experiment_and_prints_a_report() {
    let out = bin()
        .args(["moldyn", "gencopy", "32"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("experiment : moldyn on Jikes/GenCopy @ 32 MB"));
    assert!(text.contains("components :"));
    assert!(text.contains("App"));
    assert!(text.contains("jvm energy :"));
}

#[test]
fn kaffe_and_pxa_flags_are_honoured() {
    let out = bin()
        .args(["_209_db", "kaffe", "16", "pxa255", "s10"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Kaffe"));
    assert!(text.contains("Pxa255"));
}

#[test]
fn unknown_benchmark_fails_with_usage() {
    let out = bin().args(["_999_bogus"]).output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown benchmark") || err.contains("usage"),
        "stderr: {err}"
    );
}

#[test]
fn no_arguments_prints_benchmark_list() {
    let out = bin().output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage"));
    assert!(err.contains("_213_javac"));
    assert!(err.contains("moldyn"));
}

#[test]
fn unknown_collector_gets_a_specific_error_not_the_usage_dump() {
    let out = bin()
        .args(["moldyn", "concmark"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown collector 'concmark'"),
        "stderr: {err}"
    );
    assert!(!err.contains("benchmarks:"), "usage dump leaked: {err}");
}

#[test]
fn unknown_benchmark_gets_a_specific_error_not_the_usage_dump() {
    let out = bin().args(["_999_bogus"]).output().expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown benchmark '_999_bogus'"),
        "stderr: {err}"
    );
    assert!(!err.contains("benchmarks:"), "usage dump leaked: {err}");
}

#[test]
fn fault_flags_inject_and_report() {
    let out = bin()
        .args([
            "moldyn",
            "gencopy",
            "32",
            "p6",
            "s10",
            "--faults",
            "drop=0.05,dup=0.01",
            "--seed",
            "42",
            "--report-json",
            "-",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("faults     :"), "stdout: {text}");
    assert!(text.contains("degradation:"), "stdout: {text}");
    assert!(text.contains("\"runs_ok\":1"), "stdout: {text}");
    assert!(text.contains("\"samples_dropped\""), "stdout: {text}");
}

#[test]
fn injected_oom_runs_once_and_surfaces_the_typed_error() {
    let out = bin()
        .args([
            "moldyn",
            "gencopy",
            "32",
            "p6",
            "s10",
            "--faults",
            "oom@100",
            "--verbose",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    // The last line is the cell's own `ExperimentError::Vm`, not a
    // replayed quarantine.
    let last = err.lines().last().unwrap_or_default();
    assert!(
        last.starts_with("error: experiment moldyn on Jikes/GenCopy @ 32 MB"),
        "stderr: {err}"
    );
    assert!(
        last.contains(") failed: injected heap exhaustion"),
        "stderr: {err}"
    );
    // One run, then quarantine.
    let logged = |what: &str| err.lines().filter(|l| l.contains(what)).count();
    assert_eq!(logged("running moldyn"), 1, "stderr: {err}");
    assert_eq!(logged("quarantined moldyn"), 1, "stderr: {err}");
}

#[test]
fn the_retry_budget_flag_is_gone_from_both_binaries() {
    let cases: [(&str, &[&str]); 2] = [
        (
            env!("CARGO_BIN_EXE_vmprobe-run"),
            &["moldyn", "--retries", "1"],
        ),
        (
            env!("CARGO_BIN_EXE_vmprobe-serve"),
            &["--socket", "s", "--retries", "1"],
        ),
    ];
    for (path, args) in cases {
        let out = Command::new(path).args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{path}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err, "error: unknown flag --retries\n", "{path}");
    }
}

#[test]
fn bad_flag_values_fail_clearly() {
    let out = bin()
        .args(["moldyn", "--jobs", "lots"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--jobs"), "stderr: {err}");

    let out = bin()
        .args(["moldyn", "--faults", "zap=1"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:"), "stderr: {err}");
}

#[test]
fn telemetry_flags_write_trace_and_metrics_files() {
    let dir = std::env::temp_dir().join(format!("vmprobe-cli-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("trace.json");
    let metrics = dir.join("metrics.prom");
    let out = bin()
        .args([
            "moldyn",
            "gencopy",
            "32",
            "p6",
            "s10",
            "--trace-out",
            trace.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let t = std::fs::read_to_string(&trace).expect("trace written");
    assert!(t.starts_with("{\"schema_version\""), "trace: {t}");
    assert!(t.contains("\"traceEvents\""), "trace: {t}");
    let m = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(m.contains("vmprobe_schema_version"), "metrics: {m}");
    assert!(m.contains("vmprobe_cells_executed_total 1"), "metrics: {m}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn default_run_is_quiet_and_verbose_narrates_to_stderr() {
    let out = bin()
        .args(["moldyn", "gencopy", "32", "p6", "s10"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert!(
        out.stderr.is_empty(),
        "default run must be quiet on stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = bin()
        .args(["moldyn", "gencopy", "32", "p6", "s10", "--verbose"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("[vmprobe] running moldyn"), "stderr: {err}");
    assert!(err.contains("telemetry summary"), "stderr: {err}");
    // The narration stays off stdout, where the report lives.
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(!text.contains("[vmprobe]"), "stdout polluted: {text}");
}

#[test]
fn telemetry_overhead_mode_reports_a_tax_line() {
    let out = bin()
        .args([
            "moldyn",
            "gencopy",
            "32",
            "p6",
            "s10",
            "--telemetry-overhead",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("telemetry overhead: bare") && text.contains("tax"),
        "stdout: {text}"
    );
}

#[test]
fn cache_dir_round_trip_hits_on_the_second_run() {
    let dir = std::env::temp_dir().join(format!("vmprobe-cli-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cache = dir.join("cache");
    let args = [
        "moldyn",
        "gencopy",
        "32",
        "p6",
        "s10",
        "--cache-dir",
        cache.to_str().unwrap(),
        "--resume",
    ];
    let cold = bin().args(args).output().expect("binary runs");
    assert!(
        cold.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let err = String::from_utf8_lossy(&cold.stderr);
    assert!(
        err.contains("resume: 0 cells restored") && err.contains("1 recomputed (1 stored"),
        "cold stderr: {err}"
    );

    let warm = bin().args(args).output().expect("binary runs");
    assert!(warm.status.success());
    let err = String::from_utf8_lossy(&warm.stderr);
    assert!(
        err.contains("resume: 1 cells restored") && err.contains("0 recomputed"),
        "warm stderr: {err}"
    );
    // Everything but the host wall-clock reading must match.
    let strip_wall = |out: &[u8]| {
        String::from_utf8_lossy(out)
            .lines()
            .filter(|l| !l.starts_with("simulated"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip_wall(&cold.stdout), strip_wall(&warm.stdout));

    // One flipped body byte fails the entry's checksum: the next run
    // recomputes and replaces it, and the run after that restores it.
    let entry = std::fs::read_dir(&cache)
        .expect("read cache dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "entry"))
        .expect("one cache entry on disk");
    let mut bytes = std::fs::read(&entry).expect("read entry");
    let body = bytes.iter().position(|&b| b == b'\n').expect("header line") + 1;
    let mid = body + (bytes.len() - body) / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&entry, &bytes).expect("write damage");
    let hurt = bin().args(args).output().expect("binary runs");
    assert!(hurt.status.success());
    let err = String::from_utf8_lossy(&hurt.stderr);
    assert!(
        err.contains("resume: 0 cells restored")
            && err.contains("1 recomputed (1 stored, 1 corrupt entries replaced)"),
        "damaged stderr: {err}"
    );
    assert_eq!(strip_wall(&cold.stdout), strip_wall(&hurt.stdout));

    let healed = bin().args(args).output().expect("binary runs");
    assert!(healed.status.success());
    let err = String::from_utf8_lossy(&healed.stderr);
    assert!(
        err.contains("resume: 1 cells restored") && err.contains("0 recomputed"),
        "healed stderr: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn no_cache_disables_the_cache_dir() {
    let dir = std::env::temp_dir().join(format!("vmprobe-cli-nocache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cache = dir.join("cache");
    let out = bin()
        .args([
            "moldyn",
            "gencopy",
            "32",
            "p6",
            "s10",
            "--cache-dir",
            cache.to_str().unwrap(),
            "--no-cache",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!cache.exists(), "--no-cache must not create the cache dir");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_without_cache_dir_is_an_error() {
    let out = bin()
        .args(["moldyn", "--resume"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--resume needs --cache-dir"), "stderr: {err}");
}

#[test]
fn no_cache_conflicts_with_resume() {
    // Fail fast, before any work: the conflict is nonsense regardless of
    // whether --cache-dir is present.
    let out = bin()
        .args(["moldyn", "--no-cache", "--resume", "--cache-dir", "x"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--no-cache cannot be combined with --resume"),
        "stderr: {err}"
    );
    assert!(out.stdout.is_empty(), "no work before the conflict check");

    let out = bin()
        .args(["moldyn", "--resume", "--no-cache"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--no-cache cannot be combined with --resume"),
        "order-independent: {err}"
    );
}

#[test]
fn cache_dir_conflicts_with_telemetry_overhead() {
    let out = bin()
        .args(["moldyn", "--cache-dir", "x", "--telemetry-overhead"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--cache-dir cannot be combined with --telemetry-overhead"),
        "stderr: {err}"
    );
}

#[test]
fn boolean_flags_reject_inline_values() {
    let out = bin()
        .args(["moldyn", "--verbose=yes"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--verbose takes no value"), "stderr: {err}");
}

/// `vmprobe-analyze` only runs the closure gate over the fixed golden
/// grid: the old bounds' step budget, scale, platform and JSON switches
/// are no flags at all.
#[test]
fn analyze_rejects_every_retired_flag() {
    for (flag, value) in [
        ("step-budget", Some("50000000")),
        ("scale", Some("s10")),
        ("platform", Some("p6")),
        ("json", None),
    ] {
        let flag_arg = format!("--{flag}");
        let out = Command::new(env!("CARGO_BIN_EXE_vmprobe-analyze"))
            .arg(&flag_arg)
            .args(value)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{flag_arg}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("error: unknown flag {flag_arg}\n")
        );
        assert!(out.stdout.is_empty(), "{flag_arg}");
    }
}

/// Every malformed argument, on every binary, fails at parse time with one
/// `error:` line on stderr, nothing on stdout, and the binary's usage
/// exit code (1 for run and serve, 2 for diff and analyze).
#[test]
fn malformed_arguments_yield_one_error_line_on_every_binary() {
    let cases: [(&str, u8, &[&str]); 41] = [
        ("vmprobe-run", 1, &["moldyn", "semispace", "0", "p6", "s10"]),
        ("vmprobe-run", 1, &["moldyn", "gencopy", "4294967296"]),
        ("vmprobe-run", 1, &["moldyn", "gencopy", "lots"]),
        ("vmprobe-run", 1, &["moldyn", "concmark"]),
        ("vmprobe-run", 1, &["moldyn", "gencopy", "64", "sparc"]),
        (
            "vmprobe-run",
            1,
            &["moldyn", "gencopy", "64", "p6", "s20", "x"],
        ),
        ("vmprobe-run", 1, &["_999_bogus"]),
        ("vmprobe-run", 1, &["moldyn", "--jobs", "0"]),
        ("vmprobe-run", 1, &["moldyn", "--seed", "-1"]),
        ("vmprobe-run", 1, &["moldyn", "--faults", "zap=1"]),
        ("vmprobe-run", 1, &["moldyn", "--faults"]),
        ("vmprobe-run", 1, &["moldyn", "--verbose=yes"]),
        ("vmprobe-run", 1, &["moldyn", "--bogus"]),
        ("vmprobe-run", 1, &["fig6", "fig99"]),
        (
            "vmprobe-run",
            1,
            &["--observe-cost", "--probe-period", "0ns"],
        ),
        ("vmprobe-diff", 2, &["--json=false"]),
        ("vmprobe-diff", 2, &["--jobs", "0"]),
        ("vmprobe-diff", 2, &["--replicates", "0"]),
        ("vmprobe-diff", 2, &["--resamples", "0"]),
        ("vmprobe-diff", 2, &["--confidence", "1.5"]),
        ("vmprobe-diff", 2, &["--noise", "-1"]),
        ("vmprobe-diff", 2, &["--perturb", "warp=+5%"]),
        ("vmprobe-diff", 2, &["--seed"]),
        ("vmprobe-analyze", 2, &["--check-golden=no"]),
        ("vmprobe-analyze", 2, &["--platform", "arm"]),
        ("vmprobe-analyze", 2, &["--scale", "s20"]),
        ("vmprobe-analyze", 2, &["--out"]),
        ("vmprobe-analyze", 2, &["--json=yes"]),
        (
            "vmprobe-analyze",
            2,
            &[
                "moldyn",
                "--scale",
                "full",
                "--platform",
                "pxa255",
                "--check-golden",
            ],
        ),
        ("vmprobe-analyze", 2, &["--check-golden", "--scale", "full"]),
        (
            "vmprobe-analyze",
            2,
            &["--platform", "pxa255", "--check-golden"],
        ),
        ("vmprobe-analyze", 2, &["--check-golden", "--json"]),
        ("vmprobe-analyze", 2, &[]),
        ("vmprobe-analyze", 2, &["_209_db"]),
        ("vmprobe-analyze", 2, &["--json"]),
        ("vmprobe-analyze", 2, &["--platform", "p6"]),
        ("vmprobe-serve", 1, &["--jobs", "0"]),
        ("vmprobe-serve", 1, &["--queue-cap", "0", "--socket", "s"]),
        ("vmprobe-serve", 1, &["--verbose=1"]),
        ("vmprobe-serve", 1, &["stray"]),
        ("vmprobe-serve", 1, &[]),
    ];
    for (binary, code, args) in cases {
        let path = match binary {
            "vmprobe-run" => env!("CARGO_BIN_EXE_vmprobe-run"),
            "vmprobe-diff" => env!("CARGO_BIN_EXE_vmprobe-diff"),
            "vmprobe-analyze" => env!("CARGO_BIN_EXE_vmprobe-analyze"),
            _ => env!("CARGO_BIN_EXE_vmprobe-serve"),
        };
        let out = Command::new(path).args(args).output().expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        let case = format!("{binary} {args:?}: stderr {err:?}");
        assert_eq!(out.status.code(), Some(i32::from(code)), "{case}");
        assert_eq!(err.lines().count(), 1, "{case}");
        assert!(err.starts_with("error: "), "{case}");
        assert!(!err.contains("panicked"), "{case}");
        assert!(out.stdout.is_empty(), "{case}");
    }
}
