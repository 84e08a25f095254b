//! Workspace loading: gather the Rust sources the rules read, either
//! from disk (the real tree) or from fixture files mounted at workspace
//! paths.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::diag::Diagnostic;
use crate::rules;
use crate::source::SourceFile;

/// The sources a lint run sees.
pub struct Workspace {
    /// Rust sources, paths workspace-relative with `/` separators.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Build a workspace from fixture files on disk. A fixture declares
    /// where it mounts with a `//@ mount: <path>` header line; without
    /// one it mounts under `crates/fixture/src/`.
    pub fn from_fixtures(paths: &[PathBuf]) -> io::Result<Workspace> {
        let mut files = Vec::new();
        for path in paths {
            let text = fs::read_to_string(path)?;
            let mount = text
                .lines()
                .find_map(|l| l.trim().strip_prefix("//@")?.trim().strip_prefix("mount:"))
                .map(|m| m.trim().to_string())
                .unwrap_or_else(|| {
                    let name = path
                        .file_name()
                        .map(|n| n.to_string_lossy().into_owned())
                        .unwrap_or_else(|| "fixture.rs".to_string());
                    format!("crates/fixture/src/{name}")
                });
            files.push(SourceFile::new(mount, text));
        }
        Ok(Workspace { files })
    }

    /// Load the workspace rooted at `root` from disk: every `.rs` file
    /// under `crates/*/src` and the root `src/`. Fixture corpora
    /// (`crates/*/fixtures`) are deliberately excluded — they exist to
    /// *fail* rules.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut rel_files = Vec::new();
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut krates: Vec<PathBuf> = fs::read_dir(&crates_dir)?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect();
            krates.sort();
            for krate in krates {
                let src = krate.join("src");
                if src.is_dir() {
                    walk_rs(&src, &mut rel_files)?;
                }
            }
        }
        let root_src = root.join("src");
        if root_src.is_dir() {
            walk_rs(&root_src, &mut rel_files)?;
        }

        let mut files = Vec::new();
        for path in &rel_files {
            let text = fs::read_to_string(path)?;
            files.push(SourceFile::new(relative(root, path), text));
        }
        Ok(Workspace { files })
    }

    /// Run every rule; returns the findings, sorted.
    pub fn lint(&self) -> Vec<Diagnostic> {
        rules::run_all(self)
    }

    /// Replace the text of the file at `path` (suffix-matched),
    /// re-analysing it. Returns false if no such source exists. The
    /// break-the-invariant self-tests use this to corrupt one file of the
    /// real tree in memory and assert the right rule fires.
    pub fn patch(&mut self, path: &str, text: impl Into<String>) -> bool {
        let text = text.into();
        if let Some(f) = self
            .files
            .iter_mut()
            .find(|f| f.path == path || f.path.ends_with(path))
        {
            *f = SourceFile::new(f.path.clone(), text);
            return true;
        }
        false
    }

    /// A read handle on the text of the source at `path` (suffix-matched).
    pub fn text_of(&self, path: &str) -> Option<&str> {
        self.files
            .iter()
            .find(|f| f.path == path || f.path.ends_with(path))
            .map(|f| f.text.as_str())
    }
}

/// Recursively collect `.rs` files under `dir`, skipping fixture corpora.
fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "fixtures" || name == "target" {
                continue;
            }
            walk_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `path` relative to `root`, `/`-separated.
fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Find the workspace root at or above `start`: the nearest directory
/// holding both a `Cargo.toml` and a `crates/` directory.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    for _ in 0..16 {
        let d = dir?;
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
