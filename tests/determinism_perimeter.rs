//! The determinism perimeter: which crates clippy's bans reach.
//!
//! `crates/clippy.toml` bans wall clocks, OS entropy, randomly keyed hash
//! tables and thread spawning, and CI's clippy step (`-D warnings`) fails
//! on any use. Clippy reads the nearest `clippy.toml` above a crate's
//! manifest, so these tests pin the layout that makes the bans reach the
//! simulation crates (DESIGN.md §14):
//!
//! * every crate under `crates/` resolves to the ban list, except the four
//!   outside the simulation, each of which holds a comment-only opt-out;
//! * the ban list names all six banned paths, each with a reason;
//! * the simulation crates depend only on each other and `serde`, so an
//!   entropy-seeded RNG crate cannot enter without a named dependency.

use std::fs;
use std::path::{Path, PathBuf};

/// The crates on the simulation path, which the bans must reach.
const SIMULATION: &[&str] = &[
    "vm",
    "power",
    "heap",
    "platform",
    "faults",
    "bytecode",
    "workloads",
];

/// The crates outside the simulation, each opted out by its own file.
const OUTSIDE: &[&str] = &["core", "telemetry", "analysis", "bench"];

/// The banned paths, by the `crates/clippy.toml` list that holds each.
const BANS: &[(&str, &[&str])] = &[
    (
        "disallowed-types",
        &[
            "std::collections::HashMap",
            "std::collections::HashSet",
            "std::hash::RandomState",
            "std::time::SystemTime",
        ],
    ),
    (
        "disallowed-methods",
        &["std::time::Instant::now", "std::thread::spawn"],
    ),
];

fn crates_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("crates")
}

/// Every directory under `crates/`, sorted.
fn crate_dirs() -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(crates_dir())
        .expect("crates/ is readable")
        .map(|e| e.expect("crates/ entry").path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    dirs
}

/// The configuration clippy uses for a crate in `dir`: the first
/// `clippy.toml` or `.clippy.toml` found walking up from it.
fn nearest_config(dir: &Path) -> Option<PathBuf> {
    dir.ancestors()
        .flat_map(|d| [d.join("clippy.toml"), d.join(".clippy.toml")])
        .find(|p| p.is_file())
}

/// `text` without comments and blank lines.
fn settings(text: &str) -> Vec<&str> {
    text.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .collect()
}

#[test]
fn every_crate_but_four_resolves_to_the_ban_list() {
    let bans = crates_dir().join("clippy.toml");
    let dirs = crate_dirs();
    for name in SIMULATION.iter().chain(OUTSIDE) {
        assert!(
            dirs.iter().any(|d| d.ends_with(name)),
            "crates/{name} is gone; update the perimeter"
        );
    }
    for dir in &dirs {
        let name = dir.file_name().unwrap().to_string_lossy();
        let config = nearest_config(dir);
        if OUTSIDE.contains(&name.as_ref()) {
            let own = dir.join("clippy.toml");
            assert_eq!(config.as_ref(), Some(&own), "crates/{name} has no opt-out");
            let text = fs::read_to_string(&own).unwrap();
            assert!(
                settings(&text).is_empty(),
                "crates/{name}/clippy.toml must hold only comments: {:?}",
                settings(&text)
            );
        } else {
            assert_eq!(
                config.as_ref(),
                Some(&bans),
                "crates/{name} must resolve to crates/clippy.toml"
            );
        }
    }
}

#[test]
fn the_ban_list_names_every_banned_path() {
    let text = fs::read_to_string(crates_dir().join("clippy.toml")).unwrap();
    let lines = settings(&text);
    for &(list, paths) in BANS {
        let start = lines
            .iter()
            .position(|l| l.starts_with(list) && l.contains('='))
            .unwrap_or_else(|| panic!("crates/clippy.toml has no {list}"));
        let entries: Vec<&str> = lines[start + 1..]
            .iter()
            .take_while(|l| !l.starts_with(']'))
            .copied()
            .collect();
        for path in paths {
            let entry = entries
                .iter()
                .find(|e| e.contains(&format!("path = \"{path}\"")))
                .unwrap_or_else(|| panic!("{list} does not ban {path}"));
            assert!(
                entry.contains("reason = \""),
                "{path} is banned without a reason"
            );
        }
    }
}

/// The crate names a manifest's `[dependencies]` tables list, the
/// target-specific ones included.
fn dependencies(manifest: &str) -> Vec<String> {
    let mut deps = Vec::new();
    let mut table = String::new();
    for line in settings(manifest) {
        if let Some(header) = line.strip_prefix('[') {
            table = header.trim_end_matches(']').trim().to_owned();
            let dotted = table
                .strip_prefix("dependencies.")
                .or_else(|| table.split_once(".dependencies.").map(|(_, name)| name));
            if let Some(name) = dotted {
                deps.push(name.trim_matches('"').to_owned());
            }
            continue;
        }
        if table != "dependencies" && !table.ends_with(".dependencies") {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        assert!(!value.contains("package"), "a renamed dependency: {line}");
        let key = key.trim().trim_matches('"');
        deps.push(key.split('.').next().unwrap().to_owned());
    }
    deps
}

#[test]
fn simulation_crates_depend_only_on_vmprobe_and_serde() {
    for name in SIMULATION {
        let path = crates_dir().join(name).join("Cargo.toml");
        let manifest = fs::read_to_string(&path).unwrap();
        for dep in dependencies(&manifest) {
            assert!(
                dep.starts_with("vmprobe-") || dep == "serde",
                "crates/{name} depends on `{dep}`: a crate outside the workspace \
                 can bring OS entropy or wall clocks past the clippy bans"
            );
        }
    }
}

#[test]
fn the_manifest_reader_finds_every_dependency_form() {
    let manifest = "[package]\nname = \"x\"\n\n[dependencies]\n# comment\n\
                    serde = { workspace = true }\nvmprobe-vm.workspace = true\n\n\
                    [dev-dependencies]\nproptest.workspace = true\n\n\
                    [dev-dependencies.criterion]\nversion = \"0.5\"\n\n\
                    [dependencies.rand]\nversion = \"1\"\n\n\
                    [target.'cfg(unix)'.dependencies]\ngetrandom = \"0.2\"\n";
    assert_eq!(
        dependencies(manifest),
        ["serde", "vmprobe-vm", "rand", "getrandom"]
    );
}
