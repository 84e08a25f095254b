//! The rule engine: each rule is a module with a `check` entry point;
//! [`run_all`] dispatches every rule over a workspace and sorts the
//! findings.

use crate::diag::{sort, Diagnostic};
use crate::workspace::Workspace;

pub mod guard_blocking;
pub mod serving_index;

/// Every rule name, in reporting order.
pub const RULES: &[&str] = &[serving_index::RULE, guard_blocking::RULE];

/// Run every rule over `ws` and return the findings sorted by
/// file/line/rule.
pub fn run_all(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in &ws.files {
        if serving_index::is_serving_path(&file.path) {
            serving_index::check(file, &mut diags);
        }
        guard_blocking::check(file, &mut diags);
    }
    sort(&mut diags);
    diags
}
