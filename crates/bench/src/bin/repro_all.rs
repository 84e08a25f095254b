//! Run the complete reproduction suite: every table and figure of the
//! paper's §4 plus the ablations, in order. Each experiment is also
//! available as its own binary (`fig3_time`, `fig4_columns`, …).

use std::process::Command;

fn main() {
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    let bins = [
        "table_space",
        "fig3_time",
        "fig3_dna",
        "fig4_columns",
        "fig5_accuracy",
        "fig6_selectivity",
        "fig7_bufferpool",
        "fig8_hitratio",
        "fig9_online",
        "ablation_pruning",
        "ablation_ordering",
        "ablation_blocksize",
        "ablation_seeding",
    ];
    let mut failures = Vec::new();
    for bin in bins {
        let path = dir.join(bin);
        if !path.exists() {
            eprintln!("skipping {bin}: binary not built (cargo build -p oasis-bench --bins)");
            failures.push(bin);
            continue;
        }
        println!();
        let status = Command::new(&path)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        if !status.success() {
            eprintln!("{bin} FAILED ({status})");
            failures.push(bin);
        }
    }
    println!();
    if failures.is_empty() {
        println!("repro_all: all {} experiments completed.", bins.len());
    } else {
        println!("repro_all: FAILURES: {failures:?}");
        std::process::exit(1);
    }
}
