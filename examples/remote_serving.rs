//! Serve an index over TCP and query it remotely — the whole network
//! stack in one process: build a small database, persist it as an index
//! artifact, start `OasisServer` on an ephemeral loopback port, stream
//! hits through the wire protocol, hot-swap a new generation, and shut
//! down gracefully.
//!
//! Run with: `cargo run --example remote_serving`

use std::sync::Arc;

use oasis::prelude::*;

fn main() {
    // 1. A small DNA database, persisted as a 2-shard index artifact.
    let mut b = DatabaseBuilder::new(Alphabet::dna());
    for (name, seq) in [
        ("chr1:demo", "AGTACGCCTAGGATTACAGGTAGG"),
        ("chr2:demo", "TACCGTACGTACGCCCCCC"),
        ("plasmid:demo", "GGTAGGACGTACGTGT"),
    ] {
        b.push_str(name, seq).unwrap();
    }
    let db = Arc::new(b.finish());
    let dir = std::env::temp_dir().join(format!("oasis-remote-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    oasis::engine::build_index_artifact(&db, &dir, 2, 64, oasis::engine::IndexBackend::Tree)
        .expect("artifact");
    println!("persisted a 2-shard artifact to {}", dir.display());

    // 2. Serve it: generation 0 loads from the artifact, exactly like
    //    `oasis serve --index <dir> --addr 127.0.0.1:0`.
    let scoring = Scoring::unit_dna();
    let index = ServedIndex::from_artifact(&dir, scoring.clone(), 1 << 20).expect("load");
    let server = OasisServer::bind(
        "127.0.0.1:0",
        index,
        scoring,
        ServerConfig {
            workers: 2,
            queue_capacity: 16,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());
    println!("serving on {addr}");

    // 3. Connect and stream a search. The handshake names the protocol
    //    version and the serving generation; hits arrive one frame at a
    //    time, best-first — the online property, end to end over TCP.
    let mut client = Client::connect(addr).expect("connect");
    let hello = client.hello().clone();
    println!(
        "handshake: protocol v{}, generation {} ({}), {} sequences",
        hello.protocol, hello.generation, hello.generation_label, hello.num_seqs
    );
    let mut stream = client
        .search(SearchRequest::new("TACG").with_min_score(2))
        .expect("search");
    while let Some(hit) = stream.next_hit().expect("stream") {
        println!(
            "  {:<14} score={:<3} window={}..{}",
            hit.name,
            hit.score,
            hit.t_start,
            hit.t_start + hit.t_len
        );
    }
    let done = stream.finish().expect("done");
    println!(
        "{} hits from generation {} in {}us of service time",
        done.hits, done.generation, done.service_us
    );

    // 4. Hot-swap a new generation under the live server (here: the same
    //    artifact reloaded; in production, a freshly built index).
    let reloaded = client
        .reload(dir.to_string_lossy().to_string())
        .expect("reload");
    println!(
        "hot-swapped to generation {} ({})",
        reloaded.generation, reloaded.label
    );
    let (_, done) = client
        .search_collect(SearchRequest::new("TACG").with_min_score(2))
        .expect("post-swap search");
    assert_eq!(done.generation, reloaded.generation);

    // 5. The admin snapshot, then a graceful shutdown.
    let metrics = client.metrics().expect("metrics");
    println!(
        "served {} queries (p50 {}us), generation {}",
        metrics.served, metrics.p50_us, metrics.generation
    );
    client.shutdown_server().expect("shutdown");
    runner.join().expect("server thread").expect("clean exit");
    drop(handle);
    std::fs::remove_dir_all(&dir).ok();
    println!("server drained and exited cleanly");
}
