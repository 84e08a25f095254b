//! The compiler-lint configuration is in place.
//!
//! Panic-freedom and lock discipline on the serving path, reasons on lint
//! suppressions and `forbid(unsafe_code)` are rustc/clippy lints, so
//! `cargo clippy -D warnings` fails on a regression — but only while the
//! configuration that turns them on survives. This test reads that
//! configuration as plain text (whitespace removed) and fails if any
//! piece of it is deleted (docs/LINTS.md).

use std::path::{Path, PathBuf};

/// The clippy lints that keep a module panic-free.
const PANIC_FREE_DENY: &str = "#![deny(clippy::unwrap_used,clippy::expect_used,clippy::panic,\
                               clippy::todo,clippy::unimplemented,clippy::indexing_slicing,\
                               clippy::string_slice)]";

/// The clippy lints that turn on `clippy.toml`'s type and method bans.
const BAN_DENY: &str = "#![deny(clippy::disallowed_types,clippy::disallowed_methods)]";

/// The serving crate roots and modules: each denies both sets.
const SERVING: &[&str] = &[
    "crates/engine/src/lib.rs",
    "crates/net/src/lib.rs",
    "crates/obs/src/lib.rs",
    "crates/storage/src/artifact.rs",
    "crates/storage/src/wal.rs",
    "crates/suffix/src/esa.rs",
];

/// Types `clippy.toml` bans where the deny above is in force.
const BANNED_TYPES: &[&str] = &[
    "std::collections::VecDeque",
    "std::collections::HashMap",
    "std::collections::BTreeMap",
    "std::sync::Mutex",
    "std::sync::RwLock",
    "std::sync::Condvar",
];

/// Blocking methods `clippy.toml` bans where the deny above is in force.
const BANNED_METHODS: &[&str] = &[
    "std::sync::mpsc::Receiver::recv",
    "std::sync::mpsc::Receiver::recv_timeout",
    "std::thread::sleep",
    "std::thread::park",
    "std::thread::park_timeout",
    "std::thread::JoinHandle::join",
    "std::thread::ScopedJoinHandle::join",
    "std::net::TcpListener::accept",
    "std::net::TcpStream::connect",
    "std::io::Read::read_exact",
    "std::io::Read::read_to_end",
    "std::io::Read::read_to_string",
    "std::io::Write::write_all",
    "std::io::Write::flush",
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `path` under the root, with all whitespace removed.
fn squashed(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    text.split_whitespace().collect()
}

/// The entries of the `key = [ … ]` list in `clippy.toml` (squashed).
fn clippy_list(clippy: &str, key: &str) -> String {
    let start = clippy
        .find(&format!("{key}=["))
        .unwrap_or_else(|| panic!("clippy.toml lost `{key}`"));
    let list = &clippy[start..];
    let end = list.find("]").expect("the list closes");
    list[..end].to_string()
}

#[test]
fn the_compiler_lint_config_is_in_place() {
    let root = root();
    for path in SERVING {
        let code = squashed(&root.join(path));
        assert!(
            code.contains(PANIC_FREE_DENY),
            "{path} lost its panic-free deny attribute"
        );
        assert!(
            code.contains(BAN_DENY),
            "{path} lost its ban deny attribute"
        );
    }
    // Every query on a disk-resident artifact takes the buffer pool's lock.
    let pool = squashed(&root.join("crates/storage/src/pool.rs"));
    assert!(
        pool.contains(BAN_DENY),
        "pool.rs lost its ban deny attribute"
    );

    let clippy = squashed(&root.join("clippy.toml"));
    for setting in [
        "allow-unwrap-in-tests=true",
        "allow-expect-in-tests=true",
        "allow-panic-in-tests=true",
        "allow-indexing-slicing-in-tests=true",
    ] {
        assert!(clippy.contains(setting), "clippy.toml lost {setting}");
    }
    let types = clippy_list(&clippy, "disallowed-types");
    for banned in BANNED_TYPES {
        let entry = format!("{{path=\"{banned}\",");
        assert!(types.contains(&entry), "disallowed-types lost {banned}");
    }
    let methods = clippy_list(&clippy, "disallowed-methods");
    for banned in BANNED_METHODS {
        let entry = format!("{{path=\"{banned}\",");
        assert!(methods.contains(&entry), "disallowed-methods lost {banned}");
    }

    let workspace = squashed(&root.join("Cargo.toml"));
    assert!(workspace.contains("[workspace.lints.rust]unsafe_code=\"forbid\""));
    assert!(workspace.contains("[workspace.lints.clippy]allow_attributes_without_reason=\"deny\""));
    // The bans are off by default, so only the denies above turn them on.
    for lint in ["disallowed_types", "disallowed_methods"] {
        let allow = format!("{lint}=\"allow\"");
        assert!(workspace.contains(&allow), "the workspace lost `{allow}`");
    }

    let mut packages = vec![root.clone()];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ lists") {
        let dir = entry.expect("crates/ entry").path();
        if dir.join("Cargo.toml").is_file() {
            packages.push(dir);
        }
    }
    assert!(packages.len() > 11, "found only {packages:?}");
    for dir in packages {
        assert!(
            squashed(&dir.join("Cargo.toml")).contains("[lints]workspace=true"),
            "{} does not inherit the workspace lints",
            dir.display()
        );
    }
}
