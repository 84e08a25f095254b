//! The `oasis-lint` binary: lint the workspace, print `file:line`
//! diagnostics (or `--json`), exit non-zero on findings.

use std::path::PathBuf;
use std::process::ExitCode;

use oasis_lint::{find_root, render_json, Workspace};

const USAGE: &str = "\
oasis-lint — workspace invariant checker

USAGE:
    oasis-lint [--workspace] [--root <DIR>] [--json]
    oasis-lint [--json] <FIXTURE>...

OPTIONS:
    --workspace    Lint the whole workspace (the default mode)
    --root <DIR>   Workspace root (default: auto-detected from the cwd)
    --json         Emit the findings as a JSON array on stdout
    -h, --help     Show this help
    <FIXTURE>...   Lint fixture files instead of the workspace; fixtures
                   declare their mount point via `//@ mount:` directives

EXIT STATUS:
    0  clean       1  findings       2  usage or I/O error
";

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut fixtures: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => {}
            "--json" => json = true,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("oasis-lint: --root needs a directory argument");
                    return ExitCode::from(2);
                }
            },
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') => fixtures.push(PathBuf::from(other)),
            other => {
                eprintln!("oasis-lint: unknown argument `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let ws = if fixtures.is_empty() {
        let root =
            match root.or_else(|| std::env::current_dir().ok().and_then(|cwd| find_root(&cwd))) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "oasis-lint: could not find the workspace root (no Cargo.toml + crates/ \
                     above the cwd); pass --root"
                    );
                    return ExitCode::from(2);
                }
            };
        match Workspace::load(&root) {
            Ok(ws) => ws,
            Err(e) => {
                eprintln!(
                    "oasis-lint: cannot load workspace at {}: {e}",
                    root.display()
                );
                return ExitCode::from(2);
            }
        }
    } else {
        match Workspace::from_fixtures(&fixtures) {
            Ok(ws) => ws,
            Err(e) => {
                eprintln!("oasis-lint: cannot read fixtures: {e}");
                return ExitCode::from(2);
            }
        }
    };
    let diags = ws.lint();

    if json {
        println!("{}", render_json(&diags));
    } else {
        for d in &diags {
            println!("{d}");
        }
    }
    if diags.is_empty() {
        eprintln!(
            "oasis-lint: clean — {} files, {} rules",
            ws.files.len(),
            oasis_lint::rules::RULES.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("oasis-lint: {} finding(s)", diags.len());
        ExitCode::FAILURE
    }
}
