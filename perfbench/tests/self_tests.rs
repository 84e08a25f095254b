//! Self-tests of the benchmark's own machinery: the percentile rule, span
//! self-time arithmetic, the steal share, and the ingest oracle.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use oasis_align::{sw_best, Scoring};
use oasis_core::OasisParams;
use oasis_engine::ShardedEngine;
use oasis_net::RemoteHit;
use oasis_perfbench::oracle::{check_exact, check_ingest};
use oasis_perfbench::spans::{self_time, Tracer};
use oasis_perfbench::stats::{median, percentile, MIN_BEYOND};
use oasis_perfbench::steal::{self, CpuTimes, StealLog};
use oasis_workloads::{generate_protein, ProteinDbSpec};

fn ramp(n: usize) -> Vec<f64> {
    // Shuffled 1..=n, so the rule cannot lean on sorted input.
    let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
    v.reverse();
    v.swap(0, n / 2);
    v
}

#[test]
fn percentile_needs_ten_samples_beyond_it() {
    assert_eq!(percentile(&ramp(19), 50.0), None);
    assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
    assert_eq!(percentile(&ramp(199), 95.0), None);
    assert_eq!(percentile(&ramp(200), 95.0), Some(190.0));
    assert_eq!(percentile(&ramp(999), 99.0), None);
    assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
    for n in [20, 57, 200, 1234] {
        for pct in [50.0, 90.0, 95.0] {
            if let Some(v) = percentile(&ramp(n), pct) {
                let beyond = n - v as usize;
                assert!(beyond >= MIN_BEYOND, "p{pct} of {n}: {beyond} beyond");
            }
        }
    }
    assert_eq!(percentile(&[], 50.0), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn steal_share_covers_the_sampled_windows_around_an_interval() {
    let stat = "cpu  100 5 20 900 7 1 2 30 0 0\ncpu0 50 0 10 450 3 0 1 15 0 0\n";
    let t = steal::parse(stat).unwrap();
    assert_eq!(t, CpuTimes { busy: 128, steal: 30 });
    assert_eq!(steal::parse("cpu0 1 2 3\n"), None);

    // Windows of a hundred ticks: no steal, then half the wanted time
    // stolen, then a quarter; then an idle window of ten ticks, half of
    // them stolen.
    let base = Instant::now();
    let at = |s: u64| base + Duration::from_secs(s);
    let cpu = |busy, steal| CpuTimes { busy, steal };
    let log = StealLog {
        samples: vec![
            (at(0), cpu(0, 0)),
            (at(1), cpu(100, 0)),
            (at(2), cpu(150, 50)),
            (at(3), cpu(225, 75)),
            (at(4), cpu(230, 80)),
        ],
    };
    let near = |a: f64, b: f64| (a - b).abs() < 1e-12;
    let ms = |m: u64| Duration::from_millis(m);
    assert!(near(log.share(at(0) + ms(100), at(0) + ms(900)), 0.0));
    assert!(near(log.share(at(1) + ms(100), at(1) + ms(200)), 0.5));
    // Spanning two windows takes both: 75 stolen of 200 wanted.
    assert!(near(log.share(at(1) + ms(500), at(2) + ms(500)), 75.0 / 200.0));
    // The idle window is too thin, so it takes in its neighbour: 30
    // stolen of 110 wanted. Beyond the log, the same.
    assert!(near(log.share(at(3) + ms(500), at(3) + ms(600)), 30.0 / 110.0));
    assert!(near(log.share(at(5), at(6)), 30.0 / 110.0));
    assert!(near(StealLog::default().share(at(0), at(1)), 0.0));
}

#[test]
fn self_time_subtracts_the_union_of_clipped_children() {
    assert_eq!(self_time((0, 100), &[]), 100);
    // Overlapping children count once; a child sticking out is clipped.
    assert_eq!(self_time((0, 100), &[(10, 30), (20, 50), (90, 120)]), 50);
    // Children fully covering the parent leave no self time.
    assert_eq!(self_time((10, 20), &[(0, 15), (15, 40)]), 0);
    // A child outside the parent does not count.
    assert_eq!(self_time((10, 20), &[(30, 40)]), 10);
}

#[test]
fn tracer_groups_self_times_by_span_name() {
    let mut t = Tracer::new();
    let base = Instant::now();
    let at = |ms: u64| base + Duration::from_millis(ms);
    let req = t.record("net.request", at(0), at(10), None, 7);
    let serving = t.record("engine.serving", at(4), at(10), Some(req), 7);
    t.record("engine.execute", at(5), at(10), Some(serving), 7);
    let by_name = t.self_times_by_name();
    assert_eq!(by_name["net.request"], vec![4_000_000]);
    assert_eq!(by_name["engine.serving"], vec![1_000_000]);
    assert_eq!(by_name["engine.execute"], vec![5_000_000]);
    assert_eq!(t.spans().len(), 3);
    assert!(t.to_json().contains("\"parent\": 1"));
}

fn remote(db: &oasis_bioseq::SequenceDatabase, hit: &oasis_core::Hit) -> RemoteHit {
    RemoteHit {
        seq: hit.seq,
        score: hit.score,
        t_start: hit.t_start,
        t_len: hit.t_len,
        q_end: hit.q_end,
        name: db.name(hit.seq).to_string(),
    }
}

#[test]
fn ingest_oracle_rejects_a_planted_wrong_hit() {
    let workload = generate_protein(&ProteinDbSpec::tiny());
    let db = workload.db.clone();
    let scoring = Scoring::pam30_protein();
    let query = workload.motifs[0][..12].to_vec();
    let min_score = 20;
    let engine = ShardedEngine::build(db.clone(), scoring.clone(), 2);
    let expected = engine
        .run_one(&query, &OasisParams::with_min_score(min_score))
        .hits;
    assert!(
        !expected.is_empty(),
        "the motif query should hit its family"
    );
    let base_hits: Vec<RemoteHit> = expected.iter().map(|h| remote(&db, h)).collect();
    check_exact(&expected, &base_hits, &db).expect("the oracle's own answer verifies");

    // An appended sequence carrying the query itself, hit with its true
    // pairwise Smith-Waterman score, placed in score order.
    let mut codes = workload.motifs[1].clone();
    codes.extend_from_slice(&query);
    let appended: HashMap<String, Vec<u8>> = [("appended_0".to_string(), codes.clone())].into();
    let true_score = sw_best(&query, &codes, &scoring).score;
    let with_hit = |score| {
        let hit = RemoteHit {
            seq: db.num_sequences(),
            score,
            t_start: db.text_len(),
            t_len: query.len() as u32,
            q_end: query.len() as u32,
            name: "appended_0".to_string(),
        };
        let mut got = base_hits.clone();
        let at = got.partition_point(|h| h.score >= score);
        got.insert(at, hit);
        got
    };
    let check = |got: &[RemoteHit]| {
        check_ingest(&query, got, &expected, &db, &appended, &scoring, min_score)
    };
    check(&base_hits).expect("base-only response verifies");
    check(&with_hit(true_score)).expect("a correctly scored appended hit verifies");

    // Planted wrong hits: a mis-scored appended hit, a hit on a sequence
    // never appended, a base hit changed, a base hit dropped.
    assert!(check(&with_hit(true_score + 1)).is_err());
    let mut unknown = with_hit(true_score);
    for h in unknown.iter_mut().filter(|h| h.name == "appended_0") {
        h.name = "never_appended".to_string();
    }
    assert!(check(&unknown).is_err());
    let mut changed = base_hits.clone();
    changed[0].t_len += 1;
    assert!(check(&changed).is_err());
    assert!(check(&base_hits[1..]).is_err() || base_hits.len() == 1);
    let mut unordered = with_hit(true_score);
    unordered.reverse();
    assert!(unordered.len() < 2 || check(&unordered).is_err());
}
