//! The vmprobe serving daemon: a long-running, fault-contained,
//! multi-tenant front end for the experiment engine.
//!
//! ```text
//! vmprobe-serve --socket <path> [flags]
//! flags:
//!   --socket <path>             Unix socket to listen on (required)
//!   --jobs <n>                  worker threads (default: available parallelism)
//!   --cache-dir <p>             persistent experiment cache shared by all tenants
//!   --queue-cap <n>             admission queue bound (default 64); a full
//!                               queue answers queue_full immediately
//!   --outbox-cap <n>            per-connection output buffer (default 256);
//!                               chatter beyond it is dropped with a count,
//!                               results never are
//!   --quarantine-threshold <n>  consecutive failures before a tenant is
//!                               quarantined (default 3; 0 disables)
//!   --quarantine-cooldown <n>   quarantine length in admission seqs (default 16)
//!   --max-heap-mb <n>           reject requests over this heap label (0 = off)
//!   --step-budget-cap <n>       clamp per-request step budgets (0 = off)
//!   --deadline-virtual-ms <n>   fail results over this simulated time (0 = off)
//!   --retries <n>               per-cell retry budget (default 2)
//!   --report-json <p>           write the final RunReport JSON here on shutdown
//!   --metrics-out <p>           write the final Prometheus dump here on shutdown
//!   --verbose                   narrate admissions/results on stderr
//! ```
//!
//! Protocol: one JSON object per line, both directions — see DESIGN.md §13
//! and the README's "Serving mode" walkthrough. SIGTERM (or a `shutdown`
//! request) drains gracefully: queued cells finish, every in-flight
//! response is delivered, final artifacts are flushed, exit code 0.

use std::process::ExitCode;

#[cfg(unix)]
fn run() -> ExitCode {
    use std::path::PathBuf;
    use vmprobe::request::{self, Args, Source};
    use vmprobe::serve::{serve, ServeConfig};

    fn fail(msg: &str) -> ExitCode {
        eprintln!("error: {msg}");
        ExitCode::FAILURE
    }

    /// Flags that never take a value.
    const SWITCHES: [&str; 1] = ["verbose"];

    /// Flags that take one.
    const VALUED: [&str; 13] = [
        "socket",
        "jobs",
        "cache-dir",
        "queue-cap",
        "outbox-cap",
        "quarantine-threshold",
        "quarantine-cooldown",
        "max-heap-mb",
        "step-budget-cap",
        "deadline-virtual-ms",
        "retries",
        "report-json",
        "metrics-out",
    ];

    /// The default configuration with the flags applied.
    fn configure(args: &Args) -> Result<ServeConfig, String> {
        if let Some(arg) = args.positionals.first() {
            return Err(format!("unexpected positional argument '{arg}'"));
        }
        let mut config = ServeConfig::default();
        let positive = |key| args.u64_in(key, 1, usize::MAX as u64);
        let path = |key| args.string(key).map(PathBuf::from);
        config.cache_dir = path("cache-dir");
        config.report_json = path("report-json");
        config.metrics_out = path("metrics-out");
        config.verbose = args.has("verbose");
        config.jobs = positive("jobs")?.map_or(config.jobs, |v| v as usize);
        config.queue_cap = positive("queue_cap")?.map_or(config.queue_cap, |v| v as usize);
        config.outbox_cap = positive("outbox_cap")?.map_or(config.outbox_cap, |v| v as usize);
        let u32_flag = |key, default: u32| -> Result<u32, String> {
            Ok(args
                .u64_in(key, 0, u32::MAX.into())?
                .map_or(default, |v| v as u32))
        };
        let u64_flag =
            |key, default: u64| -> Result<u64, String> { Ok(args.u64(key)?.unwrap_or(default)) };
        config.quarantine_threshold =
            u32_flag("quarantine_threshold", config.quarantine_threshold)?;
        config.quarantine_cooldown = u64_flag("quarantine_cooldown", config.quarantine_cooldown)?;
        config.envelope.max_heap_mb = u32_flag("max_heap_mb", config.envelope.max_heap_mb)?;
        config.envelope.step_budget_cap =
            u64_flag("step_budget_cap", config.envelope.step_budget_cap)?;
        config.envelope.deadline_virtual_ms =
            u64_flag("deadline_virtual_ms", config.envelope.deadline_virtual_ms)?;
        config.retries = u32_flag("retries", config.retries)?;
        config.socket = path("socket").ok_or("--socket is required (run with --help for usage)")?;
        Ok(config)
    }

    let args = match request::lex(std::env::args().skip(1), &SWITCHES, &VALUED) {
        Ok(Some(args)) => args,
        Ok(None) => {
            eprintln!(
                "usage: vmprobe-serve --socket <path> [--jobs <n>] [--cache-dir <p>]\n\
                 \x20      [--queue-cap <n>] [--outbox-cap <n>] [--quarantine-threshold <n>]\n\
                 \x20      [--quarantine-cooldown <n>] [--max-heap-mb <n>] [--step-budget-cap <n>]\n\
                 \x20      [--deadline-virtual-ms <n>] [--retries <n>] [--report-json <p>]\n\
                 \x20      [--metrics-out <p>] [--verbose]"
            );
            return ExitCode::FAILURE;
        }
        Err(e) => return fail(&e),
    };
    let config = match configure(&args) {
        Ok(config) => config,
        Err(e) => return fail(&e),
    };
    let envelope_is_default = config.envelope.max_heap_mb == 0
        && config.envelope.step_budget_cap == 0
        && config.envelope.deadline_virtual_ms == 0;
    if config.verbose && !envelope_is_default {
        eprintln!(
            "vmprobe-serve: envelope active (heap cap {} MB, step cap {}, deadline {} virtual ms)",
            config.envelope.max_heap_mb,
            config.envelope.step_budget_cap,
            config.envelope.deadline_virtual_ms
        );
    }
    match serve(config) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

#[cfg(not(unix))]
fn run() -> ExitCode {
    eprintln!("error: vmprobe-serve requires Unix domain sockets");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    run()
}
