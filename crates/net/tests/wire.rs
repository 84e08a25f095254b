//! Wire-format guarantees: every frame type round-trips through
//! encode → decode as the identity (property-tested over randomized
//! field values), malformed or truncated input is rejected with a
//! clean protocol error — never a panic, never a silent misparse — and
//! the codec agrees with the frame, error-code and metric tables of
//! `docs/PROTOCOL.md` and `docs/OBSERVABILITY.md`.

use std::collections::BTreeSet;
use std::path::Path;

use oasis_bioseq::AlphabetKind;
use oasis_net::frame::{read_frame, write_frame};
use oasis_net::{
    AppendDone, AppendRequest, ErrorCode, ErrorFrame, Frame, GenerationServed, Hello,
    MetricsReport, NetError, ReloadDone, ReloadRequest, RemoteHit, ScoreRule, SearchDone,
    SearchRequest, StageSummary, TraceDump, TraceEntry, TraceSpan, MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
};
use proptest::prelude::*;

/// Deterministically build a printable string from a seed (the proptest
/// shim has no string strategy; deriving text from integers keeps every
/// case reproducible).
fn string_from(seed: u64, max_len: usize) -> String {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _-./|";
    let len = (seed as usize) % (max_len + 1);
    (0..len)
        .map(|i| {
            let at = (seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add((i as u64).wrapping_mul(1442695040888963407))
                >> 33) as usize;
            CHARS[at % CHARS.len()] as char
        })
        .collect()
}

fn roundtrip(frame: &Frame) -> Frame {
    let bytes = frame.encode().expect("encodable frame");
    let decoded = read_frame(&mut &bytes[..]).expect("decodable frame");
    // The streaming writer agrees with encode().
    let mut written = Vec::new();
    write_frame(&mut written, frame).expect("writable frame");
    assert_eq!(written, bytes, "write_frame and encode() must agree");
    decoded
}

/// Every strict prefix of a valid frame must be rejected, not misread.
fn assert_prefixes_rejected(frame: &Frame) {
    let bytes = frame.encode().expect("encodable frame");
    for cut in 0..bytes.len() {
        let r = read_frame(&mut &bytes[..cut]);
        assert!(
            r.is_err(),
            "{}-byte prefix of {} accepted",
            cut,
            frame.kind()
        );
    }
    // One trailing byte after the declared payload must also fail the
    // decode of the *next* frame (it reads as a fresh, truncated header).
    let mut longer = bytes.clone();
    longer.push(0xAB);
    let mut cursor = &longer[..];
    read_frame(&mut cursor).expect("the valid frame still parses");
    assert!(
        read_frame(&mut cursor).is_err(),
        "stray trailing byte accepted"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hello_roundtrips(seed in 0u64..u64::MAX, generation in 0u64..u64::MAX,
                        num_seqs in 0u32..u32::MAX, residues in 0u64..u64::MAX,
                        dna in 0u8..2) {
        let frame = Frame::Hello(Hello {
            protocol: 1,
            generation,
            generation_label: string_from(seed, 40),
            alphabet: if dna == 0 { AlphabetKind::Dna } else { AlphabetKind::Protein },
            num_seqs,
            total_residues: residues,
        });
        prop_assert_eq!(roundtrip(&frame), frame.clone());
        assert_prefixes_rejected(&frame);
    }

    #[test]
    fn search_roundtrips(seed in 0u64..u64::MAX, qseed in 0u64..u64::MAX,
                         min in 1i32..10_000, emilli in 1u64..10_000_000,
                         rule in 0u8..2, all in 0u8..2,
                         top in 0u32..100, deadline in 0u32..100_000,
                         with_top in 0u8..2, with_deadline in 0u8..2) {
        let frame = Frame::Search(SearchRequest {
            id: string_from(seed, 24),
            query: string_from(qseed, 200),
            rule: if rule == 0 {
                ScoreRule::MinScore(min)
            } else {
                ScoreRule::Evalue(emilli as f64 / 1000.0)
            },
            all_occurrences: all == 1,
            top: (with_top == 1).then_some(top),
            deadline_ms: (with_deadline == 1).then_some(deadline),
        });
        prop_assert_eq!(roundtrip(&frame), frame.clone());
        assert_prefixes_rejected(&frame);
    }

    #[test]
    fn hit_roundtrips(seed in 0u64..u64::MAX, seq in 0u32..u32::MAX,
                      score in i32::MIN..i32::MAX, t_start in 0u32..u32::MAX,
                      t_len in 0u32..u32::MAX, q_end in 0u32..u32::MAX) {
        let frame = Frame::Hit(RemoteHit {
            seq, score, t_start, t_len, q_end,
            name: string_from(seed, 64),
        });
        prop_assert_eq!(roundtrip(&frame), frame.clone());
        assert_prefixes_rejected(&frame);
    }

    #[test]
    fn done_roundtrips(hits in 0u32..u32::MAX, min in i32::MIN..i32::MAX,
                       generation in 0u64..u64::MAX, service in 0u64..u64::MAX,
                       total in 0u64..u64::MAX) {
        let frame = Frame::Done(SearchDone {
            hits, min_score: min, generation,
            service_us: service, total_us: total,
        });
        prop_assert_eq!(roundtrip(&frame), frame.clone());
        assert_prefixes_rejected(&frame);
    }

    #[test]
    fn error_roundtrips(seed in 0u64..u64::MAX, code in 0usize..5) {
        let codes = [
            ErrorCode::Busy,
            ErrorCode::ShuttingDown,
            ErrorCode::Malformed,
            ErrorCode::DeadlineExceeded,
            ErrorCode::Internal,
        ];
        let frame = Frame::Error(ErrorFrame::new(codes[code], string_from(seed, 80)));
        prop_assert_eq!(roundtrip(&frame), frame.clone());
        assert_prefixes_rejected(&frame);
    }

    #[test]
    fn append_frames_roundtrip(seed in 0u64..u64::MAX, appended in 0u32..u32::MAX,
                               appended_res in 0u64..u64::MAX, delta_seqs in 0u32..u32::MAX,
                               delta_res in 0u64..u64::MAX, wal_bytes in 0u64..u64::MAX,
                               generation in 0u64..u64::MAX) {
        let append = Frame::Append(AppendRequest {
            fasta: format!(">q{}\nACGT\n", string_from(seed, 200)),
        });
        prop_assert_eq!(roundtrip(&append), append.clone());
        assert_prefixes_rejected(&append);
        let appended_frame = Frame::Appended(AppendDone {
            appended_seqs: appended,
            appended_residues: appended_res,
            delta_seqs,
            delta_residues: delta_res,
            wal_bytes,
            generation,
        });
        prop_assert_eq!(roundtrip(&appended_frame), appended_frame.clone());
        assert_prefixes_rejected(&appended_frame);
    }

    #[test]
    fn metrics_roundtrips(served in 0u64..u64::MAX, rejected in 0u64..u64::MAX,
                          depth in 0u32..u32::MAX, cap in 0u32..u32::MAX,
                          p50 in 0u64..u64::MAX, p95 in 0u64..u64::MAX,
                          p99 in 0u64..u64::MAX, max in 0u64..u64::MAX,
                          generation in 0u64..u64::MAX, label_seed in 0u64..u64::MAX,
                          delta_seqs in 0u32..u32::MAX, delta_residues in 0u64..u64::MAX,
                          wal_bytes in 0u64..u64::MAX, compactions in 0u64..u64::MAX,
                          last_compaction in 0u64..u64::MAX, hits in 0u64..u64::MAX,
                          misses in 0u64..u64::MAX, evictions in 0u64..u64::MAX,
                          entries in 0u32..u32::MAX, cache_cap in 0u32..u32::MAX,
                          open in 0u32..u32::MAX, accepted in 0u64..u64::MAX,
                          peak in 0u32..u32::MAX, uptime in 0u64..u64::MAX,
                          gens in 0usize..5, gen_seed in 0u64..u64::MAX,
                          num_stages in 0usize..5, stage_seed in 0u64..u64::MAX) {
        let per_generation = (0..gens)
            .map(|i| GenerationServed {
                generation: gen_seed.wrapping_add(i as u64),
                served: gen_seed.rotate_left(i as u32),
            })
            .collect();
        let stages = (0..num_stages)
            .map(|i| StageSummary {
                stage: string_from(stage_seed.wrapping_add(i as u64), 24),
                count: stage_seed.rotate_left(i as u32),
                p50_us: stage_seed.rotate_right(i as u32),
                p95_us: stage_seed.wrapping_mul(3).wrapping_add(i as u64),
                p99_us: stage_seed.wrapping_mul(5).wrapping_add(i as u64),
                max_us: stage_seed.wrapping_mul(7).wrapping_add(i as u64),
                sum_us: stage_seed.wrapping_mul(11).wrapping_add(i as u64),
            })
            .collect();
        let frame = Frame::Metrics(MetricsReport {
            served, rejected,
            queue_depth: depth, queue_capacity: cap,
            p50_us: p50, p95_us: p95, p99_us: p99, max_us: max,
            generation,
            generation_label: string_from(label_seed, 48),
            delta_seqs, delta_residues, wal_bytes, compactions,
            last_compaction_us: last_compaction,
            cache_hits: hits, cache_misses: misses, cache_evictions: evictions,
            cache_entries: entries, cache_capacity: cache_cap,
            connections_open: open, connections_accepted: accepted,
            pipelined_peak: peak,
            uptime_us: uptime,
            per_generation,
            stages,
        });
        prop_assert_eq!(roundtrip(&frame), frame.clone());
        assert_prefixes_rejected(&frame);
    }

    #[test]
    fn trace_dump_roundtrips(threshold in 0u64..u64::MAX, capacity in 0u32..u32::MAX,
                             dropped in 0u64..u64::MAX, num_entries in 0usize..4,
                             num_spans in 0usize..5, seed in 0u64..u64::MAX,
                             cache_hit in 0u8..2) {
        let entries = (0..num_entries)
            .map(|i| TraceEntry {
                id: seed.wrapping_add(i as u64),
                query_len: (seed >> 32) as u32,
                total_us: seed.rotate_left(i as u32),
                generation: seed.wrapping_mul(3),
                cache_hit: cache_hit == 1,
                nodes_expanded: seed.wrapping_mul(5),
                nodes_enqueued: seed.wrapping_mul(7),
                columns_expanded: seed.wrapping_mul(11),
                nodes_pruned: seed.wrapping_mul(13),
                hits: seed.wrapping_mul(17),
                wal_fsyncs: seed.wrapping_mul(19),
                spans: (0..num_spans)
                    .map(|s| TraceSpan {
                        stage: string_from(seed.wrapping_add(s as u64), 16),
                        start_us: seed.rotate_right(s as u32),
                        dur_us: seed.wrapping_add(s as u64 * 31),
                    })
                    .collect(),
            })
            .collect();
        let frame = Frame::TraceDump(TraceDump {
            threshold_us: threshold,
            capacity,
            dropped,
            entries,
        });
        prop_assert_eq!(roundtrip(&frame), frame.clone());
        assert_prefixes_rejected(&frame);
    }

    #[test]
    fn reload_frames_roundtrip(seed in 0u64..u64::MAX, generation in 0u64..u64::MAX) {
        let reload = Frame::Reload(ReloadRequest { path: string_from(seed, 120) });
        prop_assert_eq!(roundtrip(&reload), reload.clone());
        assert_prefixes_rejected(&reload);
        let reloaded = Frame::Reloaded(ReloadDone {
            generation,
            label: string_from(seed ^ 0xDEAD, 120),
        });
        prop_assert_eq!(roundtrip(&reloaded), reloaded.clone());
        assert_prefixes_rejected(&reloaded);
    }
}

#[test]
fn empty_payload_frames_roundtrip() {
    for frame in [
        Frame::MetricsRequest,
        Frame::TraceDumpRequest,
        Frame::Shutdown,
        Frame::ShutdownAck,
    ] {
        assert_eq!(roundtrip(&frame), frame);
        assert_prefixes_rejected(&frame);
    }
}

/// A frame with the given type byte and raw payload.
fn raw_frame(ty: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.push(ty);
    out.extend_from_slice(payload);
    out
}

fn expect_protocol_error(bytes: &[u8], what: &str) {
    match read_frame(&mut &bytes[..]) {
        Err(NetError::Protocol(_)) => {}
        other => panic!("{what}: expected a protocol error, got {other:?}"),
    }
}

#[test]
fn unknown_frame_type_is_rejected() {
    expect_protocol_error(&raw_frame(0, &[]), "type 0");
    // Types 6 and 7 (the retired stats request and response) stay
    // reserved: a peer still sending them gets a protocol error.
    expect_protocol_error(&raw_frame(6, &[]), "type 6");
    expect_protocol_error(&raw_frame(7, &[0; 8]), "type 7");
    expect_protocol_error(&raw_frame(0xEE, &[1, 2, 3]), "type 0xEE");
}

#[test]
fn oversized_declared_length_is_rejected_before_allocation() {
    let mut bytes = raw_frame(3, &[]);
    bytes[0..4].copy_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
    expect_protocol_error(&bytes, "oversized length");
    // u32::MAX must not trigger a 4 GB allocation attempt either.
    bytes[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
    expect_protocol_error(&bytes, "u32::MAX length");
}

#[test]
fn trailing_payload_bytes_are_rejected() {
    // A valid Shutdown frame with one extra declared payload byte.
    expect_protocol_error(&raw_frame(10, &[0]), "shutdown with payload");
    // A valid Done frame with an extra byte appended to its payload.
    let done = Frame::Done(SearchDone {
        hits: 1,
        min_score: 2,
        generation: 3,
        service_us: 4,
        total_us: 5,
    });
    let encoded = done.encode().unwrap();
    let mut payload = encoded[5..].to_vec();
    payload.push(0);
    expect_protocol_error(&raw_frame(4, &payload), "done with trailing byte");
}

#[test]
fn bad_enum_tags_are_rejected() {
    // Hello with alphabet tag 9.
    let hello = Frame::Hello(Hello {
        protocol: 1,
        generation: 0,
        generation_label: "x".into(),
        alphabet: AlphabetKind::Dna,
        num_seqs: 1,
        total_residues: 1,
    });
    let bytes = hello.encode().unwrap();
    let mut payload = bytes[5..].to_vec();
    // magic(8) + protocol(4) + generation(8) + label len(2) + "x"(1) = 23.
    payload[23] = 9;
    expect_protocol_error(&raw_frame(1, &payload), "alphabet tag 9");

    // Search with score-rule tag 7.
    let search = Frame::Search(SearchRequest::new("ACGT").with_min_score(3));
    let bytes = search.encode().unwrap();
    let mut payload = bytes[5..].to_vec();
    // id len(2) + "" + query len(4) + "ACGT"(4) = 10 → rule tag at 10.
    payload[10] = 7;
    expect_protocol_error(&raw_frame(2, &payload), "score-rule tag 7");

    // Error with unknown code 99.
    let err = Frame::Error(ErrorFrame::new(ErrorCode::Busy, "m"));
    let bytes = err.encode().unwrap();
    let mut payload = bytes[5..].to_vec();
    payload[0..2].copy_from_slice(&99u16.to_le_bytes());
    expect_protocol_error(&raw_frame(5, &payload), "error code 99");

    // Search with boolean tag 2 for all_occurrences.
    let bytes = Frame::Search(SearchRequest::new("A").with_min_score(1))
        .encode()
        .unwrap();
    let mut payload = bytes[5..].to_vec();
    // id(2) + query len(4) + "A"(1) + rule tag(1) + i32(4) = 12.
    payload[12] = 2;
    expect_protocol_error(&raw_frame(2, &payload), "bool tag 2");
}

#[test]
fn bad_magic_and_bad_utf8_are_rejected() {
    let hello = Frame::Hello(Hello {
        protocol: 1,
        generation: 0,
        generation_label: "gen".into(),
        alphabet: AlphabetKind::Protein,
        num_seqs: 0,
        total_residues: 0,
    });
    let bytes = hello.encode().unwrap();
    let mut payload = bytes[5..].to_vec();
    payload[0] ^= 0x20; // corrupt the magic
    expect_protocol_error(&raw_frame(1, &payload), "bad magic");

    let mut payload = bytes[5..].to_vec();
    payload[22] = 0xFF; // corrupt a label byte into invalid UTF-8
    expect_protocol_error(&raw_frame(1, &payload), "bad utf-8");
}

#[test]
fn non_finite_evalue_is_rejected() {
    let search = Frame::Search(SearchRequest::new("ACGT").with_evalue(1.0));
    let bytes = search.encode().unwrap();
    let mut payload = bytes[5..].to_vec();
    // id(2) + query len(4) + "ACGT"(4) + rule tag(1) = 11 → f64 bits at 11.
    payload[11..19].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
    expect_protocol_error(&raw_frame(2, &payload), "NaN evalue");
}

#[test]
fn oversized_string_field_fails_encode_cleanly() {
    let frame = Frame::Error(ErrorFrame::new(ErrorCode::Internal, "x".repeat(70_000)));
    match frame.encode() {
        Err(NetError::Protocol(_)) => {}
        other => panic!(
            "expected a protocol error, got {:?}",
            other.map(|b| b.len())
        ),
    }
}

// ---- the codec against the specs in docs/ --------------------------------

fn doc(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../docs")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The body rows of the first Markdown table after the line `heading`.
fn table_rows<'d>(doc: &'d str, heading: &str) -> Vec<&'d str> {
    let rows: Vec<&str> = doc
        .lines()
        .skip_while(|l| l.trim() != heading)
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2)
        .collect();
    assert!(!rows.is_empty(), "no table under {heading:?}");
    rows
}

/// `(number, name)` from the first two cells of each row under `heading`.
fn numbered_rows(doc: &str, heading: &str) -> BTreeSet<(u16, String)> {
    table_rows(doc, heading)
        .into_iter()
        .map(|row| {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            let num = cells[1]
                .parse()
                .unwrap_or_else(|_| panic!("bad number in {row:?}"));
            (num, cells[2].to_string())
        })
        .collect()
}

/// A metrics report with one generation row and every stage.
fn full_report() -> MetricsReport {
    let stages = oasis_obs::trace::stage::ALL
        .iter()
        .map(|stage| StageSummary {
            stage: stage.to_string(),
            count: 1,
            p50_us: 2,
            p95_us: 3,
            p99_us: 4,
            max_us: 5,
            sum_us: 6,
        })
        .collect();
    MetricsReport {
        served: 1,
        rejected: 0,
        queue_depth: 0,
        queue_capacity: 64,
        p50_us: 1,
        p95_us: 2,
        p99_us: 3,
        max_us: 4,
        generation: 1,
        generation_label: "idx".into(),
        delta_seqs: 0,
        delta_residues: 0,
        wal_bytes: 0,
        compactions: 0,
        last_compaction_us: 0,
        cache_hits: 0,
        cache_misses: 1,
        cache_evictions: 0,
        cache_entries: 1,
        cache_capacity: 16,
        connections_open: 1,
        connections_accepted: 1,
        pipelined_peak: 1,
        uptime_us: 1_000,
        per_generation: vec![GenerationServed {
            generation: 1,
            served: 1,
        }],
        stages,
    }
}

/// One frame of every `Frame` variant. Adding a variant fails to compile
/// here until it is listed.
fn every_frame() -> Vec<Frame> {
    let frames = vec![
        Frame::Hello(Hello {
            protocol: PROTOCOL_VERSION,
            generation: 1,
            generation_label: "idx".into(),
            alphabet: AlphabetKind::Dna,
            num_seqs: 1,
            total_residues: 4,
        }),
        Frame::Search(SearchRequest::new("ACGT").with_min_score(3)),
        Frame::Hit(RemoteHit {
            seq: 0,
            score: 4,
            t_start: 0,
            t_len: 4,
            q_end: 4,
            name: "s0".into(),
        }),
        Frame::Done(SearchDone {
            hits: 1,
            min_score: 3,
            generation: 1,
            service_us: 2,
            total_us: 3,
        }),
        Frame::Error(ErrorFrame::new(ErrorCode::Busy, "busy")),
        Frame::Reload(ReloadRequest { path: "idx".into() }),
        Frame::Reloaded(ReloadDone {
            generation: 2,
            label: "idx".into(),
        }),
        Frame::Shutdown,
        Frame::ShutdownAck,
        Frame::Append(AppendRequest {
            fasta: ">a\nACGT\n".into(),
        }),
        Frame::Appended(AppendDone {
            appended_seqs: 1,
            appended_residues: 4,
            delta_seqs: 1,
            delta_residues: 4,
            wal_bytes: 64,
            generation: 2,
        }),
        Frame::MetricsRequest,
        Frame::Metrics(full_report()),
        Frame::TraceDumpRequest,
        Frame::TraceDump(TraceDump {
            threshold_us: 0,
            capacity: 8,
            dropped: 0,
            entries: Vec::new(),
        }),
    ];
    for frame in &frames {
        match frame {
            Frame::Hello(_)
            | Frame::Search(_)
            | Frame::Hit(_)
            | Frame::Done(_)
            | Frame::Error(_)
            | Frame::Reload(_)
            | Frame::Reloaded(_)
            | Frame::Shutdown
            | Frame::ShutdownAck
            | Frame::Append(_)
            | Frame::Appended(_)
            | Frame::MetricsRequest
            | Frame::Metrics(_)
            | Frame::TraceDumpRequest
            | Frame::TraceDump(_) => {}
        }
    }
    frames
}

/// Every `ErrorCode`. Adding a code fails to compile here until it is
/// listed.
fn every_error_code() -> Vec<ErrorCode> {
    let codes = vec![
        ErrorCode::Busy,
        ErrorCode::ShuttingDown,
        ErrorCode::Malformed,
        ErrorCode::DeadlineExceeded,
        ErrorCode::Internal,
    ];
    for code in &codes {
        match code {
            ErrorCode::Busy
            | ErrorCode::ShuttingDown
            | ErrorCode::Malformed
            | ErrorCode::DeadlineExceeded
            | ErrorCode::Internal => {}
        }
    }
    codes
}

#[test]
fn the_codec_matches_the_protocol_tables() {
    let doc = doc("PROTOCOL.md");
    let title = doc.lines().next().unwrap_or_default();
    let version = title
        .split("(version ")
        .nth(1)
        .and_then(|rest| rest.split(')').next())
        .and_then(|v| v.parse::<u32>().ok());
    assert_eq!(version, Some(PROTOCOL_VERSION), "title: {title:?}");

    let errors = every_error_code()
        .into_iter()
        .map(|code| Frame::Error(ErrorFrame::new(code, "m")));
    let mut types = BTreeSet::new();
    let mut codes = BTreeSet::new();
    let mut payloads = Vec::new();
    for frame in every_frame().into_iter().chain(errors) {
        let bytes = frame.encode().unwrap();
        let (ty, payload) = (bytes[4], &bytes[5..]);
        assert_eq!(Frame::decode(ty, payload).unwrap(), frame);
        types.insert((u16::from(ty), frame.kind().to_string()));
        if let Frame::Error(e) = &frame {
            let code = u16::from_le_bytes([payload[0], payload[1]]);
            codes.insert((code, format!("{:?}", e.code)));
        }
        payloads.push(payload.to_vec());
    }
    assert_eq!(types, numbered_rows(&doc, "## Frame catalogue"));
    assert_eq!(codes, numbered_rows(&doc, "### Error codes"));

    // A type byte the catalogue does not list decodes nothing.
    for ty in 0..=u8::MAX {
        if types.iter().any(|(t, _)| *t == u16::from(ty)) {
            continue;
        }
        for payload in &payloads {
            assert!(
                Frame::decode(ty, payload).is_err(),
                "undocumented type {ty} decoded"
            );
        }
    }
}

#[test]
fn the_prometheus_families_match_the_metric_table() {
    let body = full_report().to_prometheus();
    let rendered: BTreeSet<&str> = body
        .lines()
        .filter_map(|line| match line.strip_prefix("# TYPE ") {
            Some(rest) => rest.split(' ').next(),
            None if line.starts_with('#') => None,
            None => line.split(['{', ' ']).next(),
        })
        .collect();
    let doc = doc("OBSERVABILITY.md");
    let documented: BTreeSet<&str> = table_rows(&doc, "## Scraping metrics")
        .into_iter()
        .flat_map(|row| row.split('`').skip(1).step_by(2))
        .filter(|code| code.starts_with("oasis_"))
        .map(|code| code.split('{').next().unwrap_or(code))
        .collect();
    assert_eq!(rendered, documented);
}
