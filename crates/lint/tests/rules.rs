//! Rule self-tests: every rule fires on its failing fixture and stays
//! silent on its passing one, the `oasis-lint` binary reflects that in
//! its exit status, and deliberately breaking a checked invariant in the
//! *real* tree makes the corresponding rule fire.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use oasis_lint::rules::serving_index::is_serving_path;
use oasis_lint::{find_root, Diagnostic, Workspace};

fn fixture(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(rel)
}

fn lint_fixtures(rels: &[&str]) -> Vec<Diagnostic> {
    let paths: Vec<PathBuf> = rels.iter().map(|r| fixture(r)).collect();
    Workspace::from_fixtures(&paths)
        .expect("fixture files load")
        .lint()
}

fn fires(diags: &[Diagnostic], rule: &str) -> bool {
    diags.iter().any(|d| d.rule == rule)
}

#[test]
fn front_door_paths_have_fixture_pairs() {
    // The front door: the waker each connection's reader, writer and
    // readiness hooks share, and the result cache on every dispatch. A
    // guard held across the waker's blocking recv must fire, and so must
    // a `VecDeque` index into the cache's LRU order; each twin is clean.
    for (rule, fail, pass) in [
        (
            "guard-across-blocking",
            "guard_blocking/waker_fail.rs",
            "guard_blocking/waker_pass.rs",
        ),
        (
            "serving-index",
            "serving_index/cache_fail.rs",
            "serving_index/cache_pass.rs",
        ),
    ] {
        let diags = lint_fixtures(&[fail]);
        assert!(fires(&diags, rule), "{fail}: {diags:?}");
        let diags = lint_fixtures(&[pass]);
        assert!(diags.is_empty(), "{pass}: {diags:?}");
    }
}

#[test]
fn guard_blocking_fixtures() {
    let fail = lint_fixtures(&["guard_blocking/fail.rs"]);
    assert!(fires(&fail, "guard-across-blocking"), "{fail:?}");
    assert!(
        fail.len() >= 2,
        "both the held guard and the chained acquisition should fire: {fail:?}"
    );
    let pass = lint_fixtures(&["guard_blocking/pass.rs"]);
    assert!(pass.is_empty(), "{pass:?}");
}

/// The binary itself: exit 1 on every failing fixture, exit 0 on every
/// passing one.
#[test]
fn binary_exit_status_tracks_fixtures() {
    let bin = env!("CARGO_BIN_EXE_oasis-lint");
    let run = |rel: &str| {
        Command::new(bin)
            .arg(fixture(rel))
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .expect("run oasis-lint")
            .code()
    };
    for fail in [
        "guard_blocking/fail.rs",
        "guard_blocking/waker_fail.rs",
        "serving_index/cache_fail.rs",
    ] {
        assert_eq!(run(fail), Some(1), "expected findings in {fail}");
    }
    for pass in [
        "guard_blocking/pass.rs",
        "guard_blocking/waker_pass.rs",
        "serving_index/cache_pass.rs",
    ] {
        assert_eq!(run(pass), Some(0), "expected a clean run on {pass}");
    }
}

// ---- break-the-invariant tests over the real tree -----------------------

fn real_tree() -> Workspace {
    let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    Workspace::load(&root).expect("load workspace")
}

#[test]
fn the_real_tree_lints_clean() {
    let diags = real_tree().lint();
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn a_guard_across_recv_fires_guard_blocking() {
    let mut ws = real_tree();
    let src = ws
        .text_of("crates/engine/src/serving.rs")
        .expect("serving source")
        .to_string();
    let broken = format!(
        "{src}\nfn oops(m: &std::sync::Mutex<u32>, rx: &std::sync::mpsc::Receiver<u32>) -> u32 {{\n    let g = m.lock();\n    let v = rx.recv();\n    drop(g);\n    match v {{ Ok(v) => v, Err(_) => 0 }}\n}}\n"
    );
    assert!(ws.patch("crates/engine/src/serving.rs", broken));
    assert!(fires(&ws.lint(), "guard-across-blocking"));
}

#[test]
fn a_map_index_in_the_result_cache_fires_serving_index() {
    // Clippy's `indexing_slicing` misses `HashMap`'s `Index` impl.
    let mut ws = real_tree();
    let src = ws
        .text_of("crates/engine/src/cache.rs")
        .expect("cache.rs is loaded")
        .to_string();
    let broken = format!(
        "{src}\nfn oops(m: &std::collections::HashMap<u64, u64>) -> u64 {{\n    m[&0]\n}}\n"
    );
    assert!(ws.patch("crates/engine/src/cache.rs", broken));
    assert!(fires(&ws.lint(), "serving-index"));
}

// ---- the invariants rustc and clippy enforce ----------------------------

/// The clippy lints that keep a module panic-free.
const PANIC_FREE_DENY: &str = "#![deny(clippy::unwrap_used,clippy::expect_used,clippy::panic,\
                               clippy::todo,clippy::unimplemented,clippy::indexing_slicing,\
                               clippy::string_slice)]";

/// Panic-freedom on the serving path, reasons on lint suppressions and
/// `forbid(unsafe_code)` are compiler lints, so `cargo clippy -D warnings`
/// fails on a regression. This pins the configuration that makes it so:
/// deleting any of it fails here.
#[test]
fn the_compiler_lint_config_is_in_place() {
    let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let ws = real_tree();
    // Every serving crate root and module carries the deny, and
    // `serving-index` covers each of them.
    for path in [
        "crates/engine/src/lib.rs",
        "crates/net/src/lib.rs",
        "crates/obs/src/lib.rs",
        "crates/storage/src/artifact.rs",
        "crates/storage/src/wal.rs",
        "crates/suffix/src/esa.rs",
    ] {
        assert!(is_serving_path(path), "serving-index skips {path}");
        let file = ws
            .files
            .iter()
            .find(|f| f.path == path)
            .unwrap_or_else(|| panic!("{path} is loaded"));
        let code: String = file
            .code_indices()
            .into_iter()
            .map(|i| file.tokens[i].text.as_str())
            .collect();
        assert!(
            code.contains(PANIC_FREE_DENY),
            "{path} lost its panic-free deny attribute"
        );
    }

    // Manifests with all whitespace removed.
    let manifest = |dir: &Path| {
        let text = std::fs::read_to_string(dir.join("Cargo.toml"))
            .unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
        text.split_whitespace().collect::<String>()
    };
    let workspace = manifest(&root);
    assert!(workspace.contains("[workspace.lints.rust]unsafe_code=\"forbid\""));
    assert!(workspace.contains("[workspace.lints.clippy]allow_attributes_without_reason=\"deny\""));

    let mut packages = vec![root.clone()];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ lists") {
        let dir = entry.expect("crates/ entry").path();
        if dir.join("Cargo.toml").is_file() {
            packages.push(dir);
        }
    }
    assert!(packages.len() > 12, "found only {packages:?}");
    for dir in packages {
        assert!(
            manifest(&dir).contains("[lints]workspace=true"),
            "{} does not inherit the workspace lints",
            dir.display()
        );
    }
}
