//! Rule self-tests: every rule fires on its failing fixture and stays
//! silent on its passing one, the `oasis-lint` binary reflects that in
//! its exit status, and deliberately breaking a checked invariant in the
//! *real* tree makes the corresponding rule fire.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

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
fn panic_free_fixtures() {
    let fail = lint_fixtures(&["panic_free/fail.rs"]);
    assert!(fires(&fail, "panic-free-serving"), "{fail:?}");
    assert!(
        fail.len() >= 3,
        "the unwrap, the panic!, and the indexing should all fire: {fail:?}"
    );
    let pass = lint_fixtures(&["panic_free/pass.rs"]);
    assert!(pass.is_empty(), "{pass:?}");
}

#[test]
fn live_ingestion_mutation_paths_have_fixture_pairs() {
    // Every mutation path of the layered live index — the WAL, the delta
    // index, the layered executor, and the background compactor — is
    // serving-path code: the rule must fire on each failing fixture and
    // stay silent on its panic-free twin.
    for (fail, pass) in [
        ("panic_free_live/wal_fail.rs", "panic_free_live/wal_pass.rs"),
        (
            "panic_free_live/delta_fail.rs",
            "panic_free_live/delta_pass.rs",
        ),
        (
            "panic_free_live/layered_fail.rs",
            "panic_free_live/layered_pass.rs",
        ),
        (
            "panic_free_live/compactor_fail.rs",
            "panic_free_live/compactor_pass.rs",
        ),
    ] {
        let diags = lint_fixtures(&[fail]);
        assert!(fires(&diags, "panic-free-serving"), "{fail}: {diags:?}");
        let diags = lint_fixtures(&[pass]);
        assert!(diags.is_empty(), "{pass}: {diags:?}");
    }
}

#[test]
fn front_door_paths_have_fixture_pairs() {
    // The front door — the waker each connection's threads share, the
    // reader decoding peer-controlled bytes, and the result cache on
    // every dispatch — is serving-path code: the rule must fire on each
    // failing fixture and stay silent on its panic-free twin.
    for (fail, pass) in [
        (
            "panic_free_front_door/waker_fail.rs",
            "panic_free_front_door/waker_pass.rs",
        ),
        (
            "panic_free_front_door/conn_fail.rs",
            "panic_free_front_door/conn_pass.rs",
        ),
        (
            "panic_free_front_door/cache_fail.rs",
            "panic_free_front_door/cache_pass.rs",
        ),
    ] {
        let diags = lint_fixtures(&[fail]);
        assert!(fires(&diags, "panic-free-serving"), "{fail}: {diags:?}");
        let diags = lint_fixtures(&[pass]);
        assert!(diags.is_empty(), "{pass}: {diags:?}");
    }
    // The waker fixture also holds an inbox guard across a blocking
    // recv — lock discipline is checked on the new paths too.
    let diags = lint_fixtures(&["panic_free_front_door/waker_fail.rs"]);
    assert!(fires(&diags, "guard-across-blocking"), "{diags:?}");
}

#[test]
fn observability_paths_have_fixture_pairs() {
    // The metrics registry runs on every served query — a panic while
    // recording a sample kills the daemon just like one in the frame
    // codec, so the obs crate is serving-path code: the rule must fire
    // on the failing fixture and stay silent on its panic-free twin.
    let fail = lint_fixtures(&["panic_free_obs/hist_fail.rs"]);
    assert!(fires(&fail, "panic-free-serving"), "{fail:?}");
    assert!(
        fail.len() >= 2,
        "the indexed bucket lookup and the quantile unwrap should both fire: {fail:?}"
    );
    let pass = lint_fixtures(&["panic_free_obs/hist_pass.rs"]);
    assert!(pass.is_empty(), "{pass:?}");
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

#[test]
fn protocol_drift_fixtures() {
    let fail = lint_fixtures(&["protocol_drift/fail.md"]);
    assert!(fires(&fail, "protocol-drift"), "{fail:?}");
    let pass = lint_fixtures(&["protocol_drift/pass.md"]);
    assert!(pass.is_empty(), "{pass:?}");
}

#[test]
fn manifest_coverage_fixtures() {
    let fail = lint_fixtures(&["manifest_coverage/fail.rs"]);
    assert!(fires(&fail, "manifest-coverage"), "{fail:?}");
    assert!(
        fail.len() >= 2,
        "both the unrecorded section and the unswept pattern should fire: {fail:?}"
    );
    let pass = lint_fixtures(&["manifest_coverage/pass.rs"]);
    assert!(pass.is_empty(), "{pass:?}");
}

#[test]
fn allow_reason_fixtures() {
    let fail = lint_fixtures(&["allow_reason/fail.rs"]);
    assert!(fires(&fail, "allow-needs-reason"), "{fail:?}");
    assert!(
        fail.len() >= 3,
        "the bare allow, the reasonless escape, and the unknown rule should all fire: {fail:?}"
    );
    let pass = lint_fixtures(&["allow_reason/pass.rs"]);
    assert!(pass.is_empty(), "{pass:?}");
}

#[test]
fn forbid_unsafe_fixtures() {
    let fail = lint_fixtures(&["forbid_unsafe/fail.rs"]);
    assert!(fires(&fail, "forbid-unsafe"), "{fail:?}");
    let pass = lint_fixtures(&["forbid_unsafe/pass.rs"]);
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
        "panic_free/fail.rs",
        "panic_free_live/wal_fail.rs",
        "panic_free_live/delta_fail.rs",
        "panic_free_live/layered_fail.rs",
        "panic_free_live/compactor_fail.rs",
        "panic_free_front_door/waker_fail.rs",
        "panic_free_front_door/conn_fail.rs",
        "panic_free_front_door/cache_fail.rs",
        "panic_free_obs/hist_fail.rs",
        "guard_blocking/fail.rs",
        "protocol_drift/fail.md",
        "manifest_coverage/fail.rs",
        "allow_reason/fail.rs",
        "forbid_unsafe/fail.rs",
    ] {
        assert_eq!(run(fail), Some(1), "expected findings in {fail}");
    }
    for pass in [
        "panic_free/pass.rs",
        "panic_free_live/wal_pass.rs",
        "panic_free_live/delta_pass.rs",
        "panic_free_live/layered_pass.rs",
        "panic_free_live/compactor_pass.rs",
        "panic_free_front_door/waker_pass.rs",
        "panic_free_front_door/conn_pass.rs",
        "panic_free_front_door/cache_pass.rs",
        "panic_free_obs/hist_pass.rs",
        "guard_blocking/pass.rs",
        "protocol_drift/pass.md",
        "manifest_coverage/pass.rs",
        "allow_reason/pass.rs",
        "forbid_unsafe/pass.rs",
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
fn renumbering_a_documented_tag_fires_protocol_drift() {
    let mut ws = real_tree();
    let doc = ws
        .text_of("docs/PROTOCOL.md")
        .expect("doc loaded")
        .to_string();
    let broken = doc.replace("| 1    | Hello", "| 9    | Hello");
    assert_ne!(doc, broken, "the Hello row should exist to renumber");
    assert!(ws.patch("docs/PROTOCOL.md", broken));
    assert!(fires(&ws.lint(), "protocol-drift"));
}

#[test]
fn an_unwrap_in_the_net_server_fires_panic_free() {
    let mut ws = real_tree();
    let src = ws
        .text_of("crates/net/src/server.rs")
        .expect("server source")
        .to_string();
    let broken = format!("{src}\nfn oops(v: &[u8]) -> u8 {{ v.first().copied().unwrap() }}\n");
    assert!(ws.patch("crates/net/src/server.rs", broken));
    assert!(fires(&ws.lint(), "panic-free-serving"));
}

#[test]
fn the_esa_backend_is_on_the_serving_path_list() {
    // The packed-ESA index serves loaded artifact bytes directly, so its
    // decoder and traversal sit on the serving path like the artifact
    // reader does: an injected unwrap (or a direct index) must fire.
    let mut ws = real_tree();
    let src = ws
        .text_of("crates/suffix/src/esa.rs")
        .expect("esa source")
        .to_string();
    let broken = format!("{src}\nfn oops(v: &[u8]) -> u8 {{ v.first().copied().unwrap() }}\n");
    assert!(ws.patch("crates/suffix/src/esa.rs", broken));
    assert!(fires(&ws.lint(), "panic-free-serving"));

    let mut ws = real_tree();
    let indexed = format!("{src}\nfn oops2(v: &[u8]) -> u8 {{ v[0] }}\n");
    assert!(ws.patch("crates/suffix/src/esa.rs", indexed));
    assert!(fires(&ws.lint(), "panic-free-serving"));
}

#[test]
fn the_connection_module_is_on_the_serving_path_list() {
    // Every connection's reader and writer run `conn.rs` inside the
    // daemon: an injected unwrap there must fire, exactly like one in
    // server.rs.
    let path = "crates/net/src/conn.rs";
    let mut ws = real_tree();
    let src = ws.text_of(path).expect("source loaded").to_string();
    let broken = format!("{src}\nfn oops(v: &[u8]) -> u8 {{ v.first().copied().unwrap() }}\n");
    assert!(ws.patch(path, broken));
    assert!(fires(&ws.lint(), "panic-free-serving"));
}

#[test]
fn the_obs_crate_is_on_the_serving_path_list() {
    // The histogram registry and the trace carrier both execute inside
    // the daemon on every query: an injected unwrap (or a direct index)
    // in either must fire.
    for path in ["crates/obs/src/hist.rs", "crates/obs/src/trace.rs"] {
        let mut ws = real_tree();
        let src = ws.text_of(path).expect("source loaded").to_string();
        let broken = format!("{src}\nfn oops(v: &[u8]) -> u8 {{ v.first().copied().unwrap() }}\n");
        assert!(ws.patch(path, broken));
        assert!(fires(&ws.lint(), "panic-free-serving"), "{path}");

        let mut ws = real_tree();
        let src = ws.text_of(path).expect("source loaded").to_string();
        let indexed = format!("{src}\nfn oops2(v: &[u8]) -> u8 {{ v[0] }}\n");
        assert!(ws.patch(path, indexed));
        assert!(fires(&ws.lint(), "panic-free-serving"), "{path}");
    }
}

#[test]
fn the_result_cache_is_on_the_serving_path_list() {
    let mut ws = real_tree();
    let src = ws
        .text_of("crates/engine/src/cache.rs")
        .expect("cache source")
        .to_string();
    let broken = format!("{src}\nfn oops(v: &[u8]) -> u8 {{ v[0] }}\n");
    assert!(ws.patch("crates/engine/src/cache.rs", broken));
    assert!(fires(&ws.lint(), "panic-free-serving"));
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
fn dropping_a_gc_pattern_fires_manifest_coverage() {
    let mut ws = real_tree();
    let src = ws
        .text_of("crates/storage/src/artifact.rs")
        .expect("artifact source")
        .to_string();
    let broken = src.replace("ends_with(\".oasis\")", "ends_with(\".bak\")");
    assert_ne!(src, broken, "the shard sweep pattern should exist to drop");
    assert!(ws.patch("crates/storage/src/artifact.rs", broken));
    assert!(fires(&ws.lint(), "manifest-coverage"));
}

#[test]
fn a_bare_allow_fires_allow_needs_reason() {
    let mut ws = real_tree();
    let src = ws
        .text_of("crates/core/src/expand.rs")
        .expect("expand source")
        .to_string();
    let broken = format!("{src}\n#[allow(dead_code)]\nfn oops() {{}}\n");
    assert!(ws.patch("crates/core/src/expand.rs", broken));
    assert!(fires(&ws.lint(), "allow-needs-reason"));
}

#[test]
fn stripping_the_forbid_attribute_fires_forbid_unsafe() {
    let mut ws = real_tree();
    let src = ws
        .text_of("crates/core/src/lib.rs")
        .expect("core lib root")
        .to_string();
    let broken = src.replace("#![forbid(unsafe_code)]\n", "");
    assert_ne!(src, broken, "the attribute should exist to strip");
    assert!(ws.patch("crates/core/src/lib.rs", broken));
    assert!(fires(&ws.lint(), "forbid-unsafe"));
}
