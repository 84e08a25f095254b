//! The rule engine: each rule is a module with a `check` entry point;
//! [`run_all`] dispatches every rule over a workspace, then applies the
//! inline escapes and sorts the survivors.

use std::collections::HashMap;

use crate::diag::{sort, Diagnostic};
use crate::workspace::Workspace;

pub mod allow_reason;
pub mod forbid_unsafe;
pub mod guard_blocking;
pub mod manifest_coverage;
pub mod panic_free;
pub mod protocol_drift;

/// Every rule name, in reporting order. Escape comments may only name
/// rules from this list.
pub const RULES: &[&str] = &[
    panic_free::RULE,
    guard_blocking::RULE,
    protocol_drift::RULE,
    manifest_coverage::RULE,
    allow_reason::RULE,
    forbid_unsafe::RULE,
];

/// Serving-path modules: the files where a panic kills a live daemon or
/// corrupts an artifact load, so [`panic_free`] applies. Matched by
/// workspace-relative suffix.
pub const SERVING_PATHS: &[&str] = &[
    "crates/net/src/lib.rs",
    "crates/net/src/frame.rs",
    "crates/net/src/server.rs",
    "crates/net/src/conn.rs",
    "crates/net/src/client.rs",
    "crates/engine/src/lib.rs",
    "crates/engine/src/serving.rs",
    "crates/engine/src/cache.rs",
    "crates/engine/src/catalog.rs",
    "crates/engine/src/shard.rs",
    "crates/engine/src/persist.rs",
    "crates/engine/src/delta.rs",
    "crates/engine/src/layered.rs",
    "crates/engine/src/compactor.rs",
    "crates/storage/src/artifact.rs",
    "crates/storage/src/wal.rs",
    "crates/suffix/src/esa.rs",
    "crates/obs/src/lib.rs",
    "crates/obs/src/hist.rs",
    "crates/obs/src/trace.rs",
    "crates/obs/src/slowlog.rs",
    "crates/obs/src/prom.rs",
];

/// True if `path` is one of the serving-path modules.
pub fn is_serving_path(path: &str) -> bool {
    SERVING_PATHS
        .iter()
        .any(|s| path == *s || path.ends_with(&format!("/{s}")))
}

/// Run every rule over `ws`, drop findings covered by an escape, and
/// return the rest sorted by file/line/rule.
pub fn run_all(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in &ws.files {
        if is_serving_path(&file.path) {
            panic_free::check(file, &mut diags);
        }
        guard_blocking::check(file, &mut diags);
        allow_reason::check(file, &mut diags);
        if file.path == "crates/storage/src/artifact.rs"
            || file.path.ends_with("/crates/storage/src/artifact.rs")
        {
            manifest_coverage::check(file, &mut diags);
        }
    }
    protocol_drift::check(ws, &mut diags);
    forbid_unsafe::check(ws, &mut diags);

    // Escapes: a finding on a line covered by an inline allow-escape is
    // suppressed — except [`allow_reason`] findings, which police the
    // escapes themselves and therefore cannot be escaped away.
    let by_path: HashMap<&str, &crate::source::SourceFile> =
        ws.files.iter().map(|f| (f.path.as_str(), f)).collect();
    diags.retain(|d| {
        if d.rule == allow_reason::RULE {
            return true;
        }
        match by_path.get(d.file.as_str()) {
            Some(f) => !f.allows(d.rule, d.line),
            None => true,
        }
    });
    sort(&mut diags);
    diags
}
