//! Golden-figure conformance: every regenerated artifact must match its
//! canonical expected output under `tests/golden/`, byte for byte (modulo
//! a trailing-newline trim).
//!
//! Two tiers:
//!
//! * **quick** (always run): every `figures::ARTIFACTS` entry that sweeps
//!   a benchmark grid, over `Grid::quick()` at `Reduced` input scale —
//!   fast enough for every `cargo test`, and still sensitive to any change
//!   in the energy model, the sweep engine, or the table renderers.
//! * **full** (`#[ignore]`, run by the CI release leg): every entry over
//!   `Grid::full()`, against the per-artifact goldens committed under
//!   `tests/golden/full/`.
//!
//! Each tier renders on one runner, so artifacts that share cells (Figures
//! 6–8, Figures 9–10) run them once, and every mismatch is reported
//! together.
//!
//! To re-bless after an *intentional* model change:
//!
//! ```text
//! VMPROBE_BLESS=1 cargo test --release --test golden_figures -- --include-ignored
//! ```

use std::path::PathBuf;
use std::sync::OnceLock;

use vmprobe::figures::{self, Artifact, Grid, ARTIFACTS};
use vmprobe::Runner;
use vmprobe_workloads::InputScale;

fn golden_path(tier: &str, name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(tier)
        .join(format!("{name}.txt"))
}

/// Compare one artifact with its golden (or re-bless it); the divergence
/// report when they differ.
fn mismatch(tier: &str, name: &str, actual: &str) -> Option<String> {
    let path = golden_path(tier, name);
    if std::env::var_os("VMPROBE_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return None;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    (actual.trim_end() != golden.trim_end()).then(|| {
        format!(
            "{tier}/{name} diverged from its golden ({}).\n\
             --- golden ---\n{golden}\n--- actual ---\n{actual}",
            path.display()
        )
    })
}

/// Check every rendered artifact, reporting all mismatches at once.
fn check_all<'a>(tier: &str, rendered: impl IntoIterator<Item = (&'a str, &'a str)>) {
    let failures: Vec<String> = rendered
        .into_iter()
        .filter_map(|(name, text)| mismatch(tier, name, text))
        .collect();
    assert!(
        failures.is_empty(),
        "{} artifact(s) diverged. If the change is intentional, re-bless with \
         VMPROBE_BLESS=1.\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Render every registry entry `pick` selects, in registry order, on one
/// runner.
fn render_tier(
    runner: &mut Runner,
    grid: &Grid,
    pick: impl Fn(&Artifact) -> bool,
) -> Vec<(&'static str, String)> {
    ARTIFACTS
        .iter()
        .filter(|a| pick(a))
        .map(|a| {
            let text = (a.render)(runner, grid)
                .unwrap_or_else(|e| panic!("{} failed to render: {e}", a.name));
            (a.name, text)
        })
        .collect()
}

/// The quick tier, rendered once and shared by the per-artifact tests.
fn quick_tier() -> &'static [(&'static str, String)] {
    static TIER: OnceLock<Vec<(&'static str, String)>> = OnceLock::new();
    TIER.get_or_init(|| {
        let mut r = Runner::new()
            .jobs(vmprobe::default_jobs())
            .scale(InputScale::Reduced);
        render_tier(&mut r, &Grid::quick(), |a| a.sweeps_benchmarks)
    })
}

/// Check the named quick-tier artifacts against their goldens.
fn check_quick(names: &[&str]) {
    let tier = quick_tier();
    check_all(
        "quick",
        names.iter().map(|name| {
            let (_, text) = tier
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("{name} is not in the quick tier"));
            (*name, text.as_str())
        }),
    );
}

#[test]
fn quick_tier_is_every_benchmark_sweep() {
    let names: Vec<&str> = ARTIFACTS
        .iter()
        .filter(|a| a.sweeps_benchmarks)
        .map(|a| a.name)
        .collect();
    assert_eq!(names, ["fig6", "fig7", "fig8", "fig9", "fig10", "fig11"]);
}

#[test]
fn quick_fig6_matches_golden() {
    check_quick(&["fig6"]);
}

#[test]
fn quick_fig7_matches_golden() {
    check_quick(&["fig7"]);
}

#[test]
fn quick_fig8_matches_golden() {
    check_quick(&["fig8"]);
}

#[test]
fn quick_fig9_and_fig10_match_goldens() {
    check_quick(&["fig9", "fig10"]);
}

#[test]
fn quick_fig11_matches_golden() {
    check_quick(&["fig11"]);
}

#[test]
fn fig5_matches_golden_at_full_scope() {
    // Static (no simulated runs): the full paper-scope table is free.
    check_all("full", [("fig5", figures::fig5().to_string().as_str())]);
}

/// Every artifact at full paper scope. Slow in debug — the CI release leg
/// runs it with `--include-ignored`.
#[test]
#[ignore = "full paper scope; run in release (CI does)"]
fn full_paper_scope_conformance() {
    let mut r = Runner::new().jobs(vmprobe::default_jobs());
    let rendered = render_tier(&mut r, &Grid::full(), |_| true);
    check_all(
        "full",
        rendered.iter().map(|(name, text)| (*name, text.as_str())),
    );
}
