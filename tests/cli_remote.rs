//! End-to-end CLI coverage of the network path: `oasis serve` on an
//! ephemeral port, `oasis query --remote` byte-identical to the local
//! `oasis search --index`, and `oasis admin` metrics/reload/shutdown.

use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oasis-cli-remote-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
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

/// A running `oasis serve` child that is killed on drop if the test did
/// not shut it down gracefully first.
struct Server {
    child: Child,
    addr: String,
    /// The `--metrics-addr` scrape endpoint, when one was requested.
    metrics_addr: Option<String>,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_server(dir: &PathBuf, extra: &[&str]) -> Server {
    let mut args = vec![
        "serve",
        "--index",
        "idx",
        "--addr",
        "127.0.0.1:0",
        "--matrix",
        "unit",
        "--gap",
        "-1",
    ];
    args.extend_from_slice(extra);
    let mut child = Command::new(env!("CARGO_BIN_EXE_oasis"))
        .args(&args)
        .current_dir(dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn oasis serve");
    // The daemon prints `listening on <addr>` once bound (followed by
    // `metrics on <addr>` when a scrape endpoint was requested); resolve
    // the ephemeral ports from those lines.
    let want_metrics = extra.contains(&"--metrics-addr");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let start = Instant::now();
    let mut addr = None;
    let mut metrics_addr = None;
    let addr = loop {
        match lines.next() {
            Some(Ok(line)) => {
                if let Some(a) = line.strip_prefix("listening on ") {
                    addr = Some(a.to_string());
                }
                if let Some(m) = line.strip_prefix("metrics on ") {
                    metrics_addr = Some(m.to_string());
                }
                if let Some(a) = &addr {
                    if !want_metrics || metrics_addr.is_some() {
                        break a.clone();
                    }
                }
            }
            _ => panic!("serve exited before announcing its address"),
        }
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "serve never announced its address"
        );
    };
    Server {
        child,
        addr,
        metrics_addr,
    }
}

#[test]
fn remote_query_is_byte_identical_to_local_search_and_admin_works() {
    let dir = workdir("e2e");
    std::fs::write(
        dir.join("db.fa"),
        ">s0\nAGTACGCCTAG\n>s1\nTACCG\n>s2\nGGTAGG\n>s3\nGATTACA\n",
    )
    .unwrap();
    std::fs::write(dir.join("q.fa"), ">q0\nTACG\n>q1\nGATT\n").unwrap();
    let out = oasis(
        &[
            "index",
            "build",
            "db.fa",
            "--out",
            "idx",
            "--dna",
            "--shards",
            "2",
            "--block-size",
            "64",
        ],
        &dir,
    );
    assert!(out.status.success(), "index build failed: {out:?}");
    // A second artifact for the reload hop (same db, single shard).
    let out = oasis(
        &[
            "index",
            "build",
            "db.fa",
            "--out",
            "idx1",
            "--dna",
            "--block-size",
            "64",
        ],
        &dir,
    );
    assert!(out.status.success(), "index build (idx1) failed: {out:?}");

    let server = spawn_server(&dir, &[]);
    let addr = server.addr.clone();

    // Local reference output over the very same artifact.
    let local = oasis(
        &[
            "search",
            "--index",
            "idx",
            "TACG",
            "--matrix",
            "unit",
            "--gap",
            "-1",
            "--min-score",
            "2",
        ],
        &dir,
    );
    assert!(local.status.success(), "local search failed: {local:?}");

    let remote = oasis(
        &["query", "--remote", &addr, "TACG", "--min-score", "2"],
        &dir,
    );
    assert!(remote.status.success(), "remote query failed: {remote:?}");
    assert_eq!(
        String::from_utf8_lossy(&local.stdout),
        String::from_utf8_lossy(&remote.stdout),
        "remote stdout must be byte-identical to the local search"
    );
    assert!(
        !remote.stdout.is_empty(),
        "the diff above compared something"
    );

    // Batch mode parity.
    let local = oasis(
        &[
            "search",
            "--index",
            "idx",
            "--queries",
            "q.fa",
            "--matrix",
            "unit",
            "--gap",
            "-1",
            "--min-score",
            "2",
        ],
        &dir,
    );
    let remote = oasis(
        &[
            "query",
            "--remote",
            &addr,
            "--queries",
            "q.fa",
            "--min-score",
            "2",
        ],
        &dir,
    );
    assert!(local.status.success() && remote.status.success());
    assert_eq!(
        String::from_utf8_lossy(&local.stdout),
        String::from_utf8_lossy(&remote.stdout),
        "remote batch stdout must be byte-identical to the local batch"
    );

    // E-value rule parity (server-side Equation 3 vs local conversion).
    let local = oasis(
        &[
            "search", "--index", "idx", "TACG", "--matrix", "unit", "--gap", "-1", "--evalue",
            "1.0",
        ],
        &dir,
    );
    let remote = oasis(
        &["query", "--remote", &addr, "TACG", "--evalue", "1.0"],
        &dir,
    );
    assert!(local.status.success() && remote.status.success());
    assert_eq!(
        String::from_utf8_lossy(&local.stdout),
        String::from_utf8_lossy(&remote.stdout)
    );

    // Admin: metrics prints the one admin snapshot as one aligned table —
    // index-centric rows and the front-door gauges.
    let metrics = oasis(&["admin", "--remote", &addr, "metrics"], &dir);
    assert!(metrics.status.success(), "metrics failed: {metrics:?}");
    let text = String::from_utf8_lossy(&metrics.stdout);
    assert!(text.contains("generation:   0"), "{text}");
    assert!(text.contains("served:"), "{text}");
    assert!(text.contains("delta:"), "{text}");
    assert!(text.contains("compactions:"), "{text}");
    assert!(text.contains("connections:"), "{text}");
    assert!(text.contains("pipelined:"), "{text}");
    assert!(text.contains("uptime:"), "{text}");
    assert!(text.contains("gen 0"), "{text}");

    let reload = oasis(&["admin", "--remote", &addr, "reload", "idx1"], &dir);
    assert!(reload.status.success(), "reload failed: {reload:?}");
    assert!(
        String::from_utf8_lossy(&reload.stdout).contains("generation 1"),
        "{reload:?}"
    );
    // Post-reload queries still serve identical results.
    let local = oasis(
        &[
            "search",
            "--index",
            "idx1",
            "TACG",
            "--matrix",
            "unit",
            "--gap",
            "-1",
            "--min-score",
            "2",
        ],
        &dir,
    );
    let remote = oasis(
        &["query", "--remote", &addr, "TACG", "--min-score", "2"],
        &dir,
    );
    assert!(local.status.success() && remote.status.success());
    assert_eq!(
        String::from_utf8_lossy(&local.stdout),
        String::from_utf8_lossy(&remote.stdout)
    );

    // Graceful shutdown: the daemon exits 0.
    let shutdown = oasis(&["admin", "--remote", &addr, "shutdown"], &dir);
    assert!(shutdown.status.success(), "shutdown failed: {shutdown:?}");
    let mut server = server;
    let start = Instant::now();
    let status = loop {
        if let Some(status) = server.child.try_wait().expect("try_wait") {
            break status;
        }
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "serve did not exit after admin shutdown"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(status.success(), "serve exited with {status}");
}

#[test]
fn prom_exposition_metrics_endpoint_and_slowlog_work_end_to_end() {
    let dir = workdir("obs");
    std::fs::write(
        dir.join("db.fa"),
        ">s0\nAGTACGCCTAG\n>s1\nTACCG\n>s2\nGGTAGG\n>s3\nGATTACA\n",
    )
    .unwrap();
    let out = oasis(
        &[
            "index",
            "build",
            "db.fa",
            "--out",
            "idx",
            "--dna",
            "--block-size",
            "64",
        ],
        &dir,
    );
    assert!(out.status.success(), "index build failed: {out:?}");

    // `--slow-ms 0` logs every answered search; `--metrics-addr 127.0.0.1:0`
    // opens the plain-HTTP scrape endpoint on an ephemeral port.
    let server = spawn_server(&dir, &["--metrics-addr", "127.0.0.1:0", "--slow-ms", "0"]);
    let addr = server.addr.clone();
    let maddr = server
        .metrics_addr
        .clone()
        .expect("serve announced its metrics endpoint");

    // A search and its repeat: both execute, both land in the slow log,
    // and both count toward the histograms.
    for _ in 0..2 {
        let remote = oasis(
            &["query", "--remote", &addr, "TACG", "--min-score", "2"],
            &dir,
        );
        assert!(remote.status.success(), "remote query failed: {remote:?}");
    }

    // Prometheus exposition through the admin CLI: the pinned family
    // names and the histogram-backed quantile series must be present.
    let prom = oasis(&["admin", "--remote", &addr, "metrics", "--prom"], &dir);
    assert!(prom.status.success(), "metrics --prom failed: {prom:?}");
    let text = String::from_utf8_lossy(&prom.stdout);
    assert!(
        text.contains("# TYPE oasis_queries_served_total counter"),
        "{text}"
    );
    assert!(text.contains("\noasis_queries_served_total 2\n"), "{text}");
    assert!(
        text.contains("oasis_query_latency_us{quantile=\"0.99\"}"),
        "{text}"
    );
    for stage in [
        "queue_wait",
        "execute",
        "resolve",
        "frame_flush",
        "first_hit",
    ] {
        assert!(
            text.contains(&format!(
                "oasis_stage_latency_us{{stage=\"{stage}\",quantile=\"0.5\"}}"
            )),
            "missing {stage} series in:\n{text}"
        );
    }
    assert!(!text.contains("oasis_cache"), "{text}");

    // The same exposition over plain HTTP — what an actual scraper sees.
    let scrape = {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(&maddr).expect("connect metrics endpoint");
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\nHost: oasis\r\n\r\n")
            .expect("write scrape request");
        let mut body = String::new();
        stream.read_to_string(&mut body).expect("read scrape");
        body
    };
    assert!(scrape.starts_with("HTTP/1.0 200 OK\r\n"), "{scrape}");
    assert!(
        scrape.contains("Content-Type: text/plain; version=0.0.4"),
        "{scrape}"
    );
    assert!(
        scrape.contains("\noasis_queries_served_total 2\n"),
        "{scrape}"
    );
    assert!(
        scrape.contains("oasis_stage_latency_us{stage=\"execute\""),
        "{scrape}"
    );

    // The slow log holds both queries, each with the full stage trace
    // (time to first hit included) and its work counters.
    let slowlog = oasis(&["admin", "--remote", &addr, "slowlog"], &dir);
    assert!(slowlog.status.success(), "slowlog failed: {slowlog:?}");
    let text = String::from_utf8_lossy(&slowlog.stdout);
    assert!(text.contains("slow-query log:"), "{text}");
    for stage in [
        "queue_wait",
        "execute",
        "resolve",
        "frame_flush",
        "first_hit",
    ] {
        assert!(text.contains(stage), "missing {stage} span in:\n{text}");
    }
    assert_eq!(text.matches("  stages: queue_wait").count(), 2, "{text}");
    assert!(text.contains("expanded"), "{text}");

    let shutdown = oasis(&["admin", "--remote", &addr, "shutdown"], &dir);
    assert!(shutdown.status.success(), "shutdown failed: {shutdown:?}");
}

#[test]
fn query_without_remote_and_bad_addr_fail_cleanly() {
    let dir = workdir("errs");
    let out = oasis(&["query", "TACG"], &dir);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--remote"),
        "{out:?}"
    );
    // Nothing listens on this port: a clean connection error, no panic.
    let out = oasis(
        &[
            "query",
            "--remote",
            "127.0.0.1:1",
            "TACG",
            "--min-score",
            "2",
        ],
        &dir,
    );
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("error:"),
        "{out:?}"
    );
    // Bad score flags fail before connecting, with the local wording —
    // never as a connect error or a server-side framing error.
    for (flag, value, want) in [
        ("--evalue", "0", "E-value must be finite and positive"),
        ("--evalue", "-1", "E-value must be finite and positive"),
        ("--evalue", "nan", "E-value must be finite and positive"),
        ("--evalue", "inf", "E-value must be finite and positive"),
        ("--min-score", "0", "--min-score must be at least 1"),
    ] {
        let out = oasis(
            &["query", "--remote", "127.0.0.1:1", "TACG", flag, value],
            &dir,
        );
        assert!(!out.status.success(), "{flag} {value}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(want), "{flag} {value}: {stderr}");
    }
}
