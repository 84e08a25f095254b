//! End-to-end CLI coverage of the serving path over index artifacts: a
//! multi-shard artifact produces byte-identical output to the one-shard,
//! disk-resident one, per-query pool accounting is reported (on the
//! drained and the `--top` early-exit path), and degenerate inputs fail
//! cleanly instead of panicking — bad shape flags before any write.

use std::path::PathBuf;
use std::process::{Command, Output};

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oasis-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp workdir");
    dir
}

fn oasis(args: &[&str], dir: &PathBuf) -> Output {
    Command::new(env!("CARGO_BIN_EXE_oasis"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("launch oasis CLI")
}

fn setup(tag: &str) -> PathBuf {
    let dir = workdir(tag);
    std::fs::write(
        dir.join("db.fa"),
        ">s0\nAGTACGCCTAG\n>s1\nTACCG\n>s2\nGGTAGG\n>s3\nGATTACA\n",
    )
    .unwrap();
    std::fs::write(dir.join("q.fa"), ">q0\nTACG\n>q1\nGATT\n").unwrap();
    // One shard: opens disk-resident through the buffer pool.
    build(&dir, "idx", &[]);
    dir
}

/// `index build db.fa --out <out> --dna --block-size 64` plus `extra`.
fn build(dir: &PathBuf, out: &str, extra: &[&str]) {
    let mut args = vec![
        "index",
        "build",
        "db.fa",
        "--out",
        out,
        "--dna",
        "--block-size",
        "64",
    ];
    args.extend_from_slice(extra);
    let built = oasis(&args, dir);
    assert!(
        built.status.success(),
        "index build {extra:?} failed: {built:?}"
    );
}

const COMMON: &[&str] = &[
    "--dna",
    "--matrix",
    "unit",
    "--gap",
    "-1",
    "--min-score",
    "2",
];

/// `search --index <index>` plus `extra` and the common scoring flags.
fn search_in(dir: &PathBuf, index: &str, extra: &[&str]) -> Output {
    let mut args = vec!["search", "--index", index];
    args.extend_from_slice(extra);
    args.extend_from_slice(COMMON);
    oasis(&args, dir)
}

/// A search over the one-shard, disk-resident artifact `setup` built.
fn search(dir: &PathBuf, extra: &[&str]) -> Output {
    search_in(dir, "idx", extra)
}

#[test]
fn sharded_search_is_byte_identical_to_disk_search() {
    let dir = setup("shards");
    let disk = search(&dir, &["TACG"]);
    assert!(disk.status.success(), "disk search failed: {disk:?}");
    assert!(
        String::from_utf8_lossy(&disk.stderr).contains("disk-resident through the buffer pool"),
        "{disk:?}"
    );
    let disk_batch = search(&dir, &["--queries", "q.fa"]);
    assert!(disk_batch.status.success(), "{disk_batch:?}");
    for shards in ["2", "3"] {
        let out = format!("idx{shards}");
        build(&dir, &out, &["--shards", shards]);
        let sharded = search_in(&dir, &out, &["TACG"]);
        assert!(
            sharded.status.success(),
            "sharded search failed: {sharded:?}"
        );
        assert_eq!(
            String::from_utf8_lossy(&disk.stdout),
            String::from_utf8_lossy(&sharded.stdout),
            "--shards {shards} must not change results"
        );
        // Batch mode too.
        let sharded = search_in(&dir, &out, &["--queries", "q.fa"]);
        assert!(sharded.status.success(), "{sharded:?}");
        assert_eq!(
            String::from_utf8_lossy(&disk_batch.stdout),
            String::from_utf8_lossy(&sharded.stdout),
            "--shards {shards} must not change batch results"
        );
    }
}

#[test]
fn pool_hit_ratio_reported_on_drained_and_top_k_paths() {
    let dir = setup("hitratio");
    for extra in [
        &["TACG"][..],
        &["TACG", "--top", "1"][..],
        &["TACG", "--top", "0"][..],
    ] {
        let out = search(&dir, extra);
        assert!(out.status.success(), "search failed: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("hit ratio"),
            "per-query pool accounting missing ({extra:?}):\n{stderr}"
        );
    }
    // Batch mode reports the pool's traffic across the whole batch.
    let out = search(&dir, &["--queries", "q.fa"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("hit ratio"), "batch accounting:\n{stderr}");
    // `--top 1` prints exactly one hit before the early exit, and
    // `--top 0` none — like `--queries` and `query --remote`.
    let top = search(&dir, &["TACG", "--top", "1"]);
    assert_eq!(String::from_utf8_lossy(&top.stdout).lines().count(), 1);
    let none = search(&dir, &["TACG", "--top", "0"]);
    assert_eq!(String::from_utf8_lossy(&none.stdout).lines().count(), 0);
}

#[test]
fn pool_mb_warns_when_ignored_by_in_memory_backends() {
    let dir = setup("poolmb");
    // Multi-shard (in-memory) warns, single-shard (disk-resident through
    // the pool) does not.
    build(&dir, "arti2", &["--shards", "2"]);
    let multi = search_in(&dir, "arti2", &["TACG", "--pool-mb", "8"]);
    assert!(multi.status.success(), "artifact search failed: {multi:?}");
    assert!(
        String::from_utf8_lossy(&multi.stderr).contains("warning: --pool-mb is ignored"),
        "multi-shard artifact must warn: {multi:?}"
    );
    // Without --pool-mb there is nothing to warn about.
    let quiet = search_in(&dir, "arti2", &["TACG"]);
    assert!(quiet.status.success(), "artifact search failed: {quiet:?}");
    assert!(
        !String::from_utf8_lossy(&quiet.stderr).contains("warning: --pool-mb"),
        "spurious warning: {quiet:?}"
    );
    let single = search(&dir, &["TACG", "--pool-mb", "8"]);
    assert!(
        single.status.success(),
        "artifact search failed: {single:?}"
    );
    let stderr = String::from_utf8_lossy(&single.stderr);
    assert!(
        !stderr.contains("warning: --pool-mb"),
        "single-shard artifact must not warn: {single:?}"
    );
    assert!(
        stderr.contains("disk-resident through the buffer pool")
            && stderr.contains("buffer pool: ")
            && !stderr.contains("no requests"),
        "single-shard artifact must serve through the pool: {stderr}"
    );
}

#[test]
fn index_inspect_prints_the_manifest_without_loading_trees() {
    let dir = setup("inspect");
    build(&dir, "arti", &["--shards", "2"]);
    let out = oasis(&["index", "inspect", "arti"], &dir);
    assert!(out.status.success(), "inspect failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "version:       4",
        "block size:    64",
        "sequences:     4",
        "shards:        2",
        "index bytes:",
        "bytes/symbol",
        "shard 0000",
        "shard 0001",
        "tree-image",
        "checksum",
        "db-",
    ] {
        assert!(
            needle.is_empty() || stdout.contains(needle),
            "missing {needle:?} in:\n{stdout}"
        );
    }
    // The shard boundary table tiles the database.
    assert!(stdout.contains("seqs 0..="), "{stdout}");
    // A packed-ESA artifact reports its backend kind per shard.
    build(&dir, "esa-arti", &["--shards", "2", "--backend", "esa"]);
    let out = oasis(&["index", "inspect", "esa-arti"], &dir);
    assert!(out.status.success(), "esa inspect failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("packed-esa"), "{stdout}");
    assert!(!stdout.contains("tree-image"), "{stdout}");
    // Inspecting a non-artifact directory fails cleanly.
    let out = oasis(&["index", "inspect", "."], &dir);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("error:"),
        "{out:?}"
    );
}

#[test]
fn index_inspect_json_is_machine_readable_and_tracks_the_live_state() {
    let dir = setup("inspect-json");
    build(&dir, "arti", &["--shards", "2"]);

    // A fresh artifact: no lineage, no WAL, every manifest fact present.
    let out = oasis(&["index", "inspect", "arti", "--json"], &dir);
    assert!(out.status.success(), "inspect --json failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = stdout.trim();
    assert!(doc.starts_with('{') && doc.ends_with('}'), "{doc}");
    for needle in [
        "\"artifact\": \"arti\"",
        "\"version\": 4",
        "\"block_size\": 64",
        "\"sequences\": 4",
        "\"text_length\":",
        "\"database\": {\"file\":",
        "\"shards\": [",
        "\"seq_lo\": 0",
        "\"kind\": \"tree-image\"",
        "\"checksum\": \"",
        "\"lineage\": null",
        "\"wal\": null",
    ] {
        assert!(doc.contains(needle), "missing {needle:?} in:\n{doc}");
    }
    // Machine output only — none of the human-format lines leak in.
    assert!(!doc.contains("version:"), "{doc}");

    // After an append the document reports the pending WAL records.
    std::fs::write(dir.join("add.fa"), ">a0\nTTGACA\n").unwrap();
    let appended = oasis(
        &[
            "index", "append", "add.fa", "--index", "arti", "--matrix", "unit",
        ],
        &dir,
    );
    assert!(appended.status.success(), "append failed: {appended:?}");
    let out = oasis(&["index", "inspect", "arti", "--json"], &dir);
    assert!(out.status.success(), "inspect after append: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "\"lineage\": null",
        "\"wal\": {\"bytes\":",
        "\"pending_seqs\": 1",
        "\"torn_tail\": false",
    ] {
        assert!(stdout.contains(needle), "missing {needle:?} in:\n{stdout}");
    }

    // After a compacting append the lineage lands and the log drains.
    std::fs::write(dir.join("add2.fa"), ">a1\nCGCGTT\n").unwrap();
    let compacted = oasis(
        &[
            "index",
            "append",
            "add2.fa",
            "--index",
            "arti",
            "--matrix",
            "unit",
            "--compact",
        ],
        &dir,
    );
    assert!(compacted.status.success(), "compact failed: {compacted:?}");
    let out = oasis(&["index", "inspect", "arti", "--json"], &dir);
    assert!(out.status.success(), "inspect after compact: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "\"version\": 4",
        "\"sequences\": 6",
        "\"lineage\": {\"compactions\": 1, \"appended_seqs\": 2, \"folded_through\": 1}",
        "\"pending_seqs\": 0",
    ] {
        assert!(stdout.contains(needle), "missing {needle:?} in:\n{stdout}");
    }
}

#[test]
fn esa_backend_serves_byte_identical_search_results() {
    let dir = setup("esa-backend");
    for (out, backend) in [("tree-arti", "tree"), ("esa-arti", "esa")] {
        build(&dir, out, &["--shards", "2", "--backend", backend]);
    }
    for query in ["TACG", "ACGT", "GGG"] {
        let disk = search(&dir, &[query]);
        assert!(disk.status.success(), "disk search failed: {disk:?}");
        let mut outputs = Vec::new();
        for index in ["tree-arti", "esa-arti"] {
            let out = search_in(&dir, index, &[query]);
            assert!(out.status.success(), "{index} search failed: {out:?}");
            outputs.push(String::from_utf8_lossy(&out.stdout).into_owned());
        }
        assert_eq!(
            outputs[0], outputs[1],
            "{query}: tree and esa artifacts must serve identical hits"
        );
        assert_eq!(
            String::from_utf8_lossy(&disk.stdout),
            outputs[1],
            "{query}: esa artifact must match the one-shard disk-resident search"
        );
    }
}

#[test]
fn degenerate_inputs_fail_cleanly() {
    let dir = setup("degenerate");
    let empty = search(&dir, &[""]);
    assert!(!empty.status.success());
    let stderr = String::from_utf8_lossy(&empty.stderr);
    assert!(stderr.contains("query is empty"), "got: {stderr}");

    let zero_shards = oasis(
        &["index", "build", "db.fa", "--out", "zero", "--shards", "0"],
        &dir,
    );
    assert!(!zero_shards.status.success());
    assert!(
        String::from_utf8_lossy(&zero_shards.stderr).contains("--shards"),
        "got: {}",
        String::from_utf8_lossy(&zero_shards.stderr)
    );

    let out = oasis(
        &[
            "search",
            "--index",
            "idx",
            "TACG",
            "--dna",
            "--matrix",
            "unit",
            "--gap",
            "-1",
            "--min-score",
            "0",
        ],
        &dir,
    );
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--min-score must be at least 1"),
        "a non-positive threshold must be a clean error, not a panic"
    );

    // A degenerate E-value is a clean error, not a panic in the
    // Karlin-Altschul conversion.
    for evalue in ["0", "-1", "nan", "inf"] {
        let out = oasis(
            &[
                "search", "--index", "idx", "TACG", "--dna", "--matrix", "unit", "--gap", "-1",
                "--evalue", evalue,
            ],
            &dir,
        );
        assert_eq!(out.status.code(), Some(1), "--evalue {evalue}: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("E-value must be finite and positive"),
            "--evalue {evalue}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // The artifact directory is the only on-disk index: a search without
    // `--index` names it, `index` needs a subcommand, and `info` is not a
    // verb.
    let positional = oasis(&["search", "db.fa", "idx", "TACG"], &dir);
    assert_eq!(positional.status.code(), Some(1), "{positional:?}");
    assert!(
        String::from_utf8_lossy(&positional.stderr).contains("--index"),
        "{positional:?}"
    );
    let bare = oasis(&["index", "db.fa", "bare"], &dir);
    assert_eq!(bare.status.code(), Some(1), "{bare:?}");
    assert!(!dir.join("bare").exists());
    let info = oasis(&["info", "idx"], &dir);
    assert_eq!(info.status.code(), Some(2), "{info:?}");
    assert!(
        String::from_utf8_lossy(&info.stderr).contains("USAGE:"),
        "{info:?}"
    );
}

#[test]
fn shape_flags_are_rejected_before_any_write() {
    let dir = setup("shape");
    // `index build` checks --block-size before it reads the FASTA: a
    // missing database is not even opened.
    for (flag, value) in [
        ("--block-size", "0"),
        ("--block-size", "100"),
        ("--shards", "0"),
    ] {
        let out = oasis(
            &[
                "index",
                "build",
                "missing.fa",
                "--out",
                "never",
                flag,
                value,
            ],
            &dir,
        );
        assert_eq!(out.status.code(), Some(1), "{flag} {value}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag) && !stderr.contains("missing.fa"),
            "{flag} {value}: {stderr}"
        );
        assert!(!dir.join("never").exists());
    }
    // `index append` checks them before the WAL write, so a rejected
    // append leaves nothing behind to be appended twice on a retry.
    std::fs::write(dir.join("add.fa"), ">a0\nTTGACA\n").unwrap();
    for (flag, value) in [("--block-size", "0"), ("--shards", "0")] {
        let out = oasis(
            &[
                "index",
                "append",
                "add.fa",
                "--index",
                "idx",
                "--matrix",
                "unit",
                "--compact",
                flag,
                value,
            ],
            &dir,
        );
        assert_eq!(out.status.code(), Some(1), "{flag} {value}: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(flag),
            "{flag} {value}: {out:?}"
        );
        let inspect = oasis(&["index", "inspect", "idx", "--json"], &dir);
        let stdout = String::from_utf8_lossy(&inspect.stdout);
        assert!(
            stdout.contains("\"wal\": null") && stdout.contains("\"lineage\": null"),
            "{flag} {value} must not touch the artifact:\n{stdout}"
        );
    }
}

#[test]
fn matrix_default_follows_the_artifact_alphabet() {
    let dir = setup("matrix-default");
    // A DNA artifact without `--matrix` (and without `--dna`) scores with
    // `unit`, exactly as if it were given.
    let query = [
        "search",
        "--index",
        "idx",
        "TACG",
        "--gap",
        "-1",
        "--min-score",
        "3",
    ];
    let implicit = oasis(&query, &dir);
    assert!(implicit.status.success(), "{implicit:?}");
    let explicit = oasis(&[&query[..], &["--matrix", "unit"]].concat(), &dir);
    assert!(explicit.status.success(), "{explicit:?}");
    assert!(!explicit.stdout.is_empty(), "{explicit:?}");
    assert_eq!(
        String::from_utf8_lossy(&implicit.stdout),
        String::from_utf8_lossy(&explicit.stdout)
    );
    // `index append` needs no `--matrix` either.
    std::fs::write(dir.join("add.fa"), ">a0\nTTGACA\n").unwrap();
    let appended = oasis(&["index", "append", "add.fa", "--index", "idx"], &dir);
    assert!(appended.status.success(), "{appended:?}");
    // An explicit protein matrix on a DNA artifact is still an error, but
    // `--protein` cannot help (the artifact's alphabet wins), so the
    // message does not suggest it.
    let wrong = oasis(&[&query[..], &["--matrix", "pam30"]].concat(), &dir);
    assert_eq!(wrong.status.code(), Some(1), "{wrong:?}");
    let stderr = String::from_utf8_lossy(&wrong.stderr);
    assert!(
        stderr.contains("--matrix unit") && !stderr.contains("--protein"),
        "{stderr}"
    );
}
