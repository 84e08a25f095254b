//! The correctness oracle behind `ok_share`: every server response is
//! compared with the library's in-process answer for the same query.

use std::collections::HashMap;

use oasis_align::{sw_best, Score, Scoring};
use oasis_bioseq::SequenceDatabase;
use oasis_core::Hit;
use oasis_net::RemoteHit;

/// The response must be exactly `expected`, hit for hit and in order,
/// with every hit named after its sequence in `db`.
pub fn check_exact(
    expected: &[Hit],
    got: &[RemoteHit],
    db: &SequenceDatabase,
) -> Result<(), String> {
    if expected.len() != got.len() {
        return Err(format!(
            "{} hits returned, the oracle has {}",
            got.len(),
            expected.len()
        ));
    }
    for (i, (want, hit)) in expected.iter().zip(got).enumerate() {
        if hit.hit() != *want {
            return Err(format!(
                "hit {i} is {:?}, the oracle has {want:?}",
                hit.hit()
            ));
        }
        if want.seq >= db.num_sequences() || hit.name != db.name(want.seq) {
            return Err(format!("hit {i} names sequence {:?}", hit.name));
        }
    }
    Ok(())
}

/// A response from a database that grows while queries run. Hits on the
/// base database must equal the base oracle exactly (a fixed min-score
/// makes them independent of the appended sequences); every hit on an
/// appended sequence must reach `min_score` and carry exactly that
/// sequence's pairwise Smith-Waterman score.
pub fn check_ingest(
    query: &[u8],
    got: &[RemoteHit],
    base_expected: &[Hit],
    base: &SequenceDatabase,
    appended: &HashMap<String, Vec<u8>>,
    scoring: &Scoring,
    min_score: Score,
) -> Result<(), String> {
    if got.windows(2).any(|w| w[0].score < w[1].score) {
        return Err("hits are not in non-increasing score order".to_string());
    }
    let (on_base, on_appended): (Vec<RemoteHit>, Vec<RemoteHit>) = got
        .iter()
        .cloned()
        .partition(|h| h.seq < base.num_sequences());
    check_exact(base_expected, &on_base, base)?;
    for hit in &on_appended {
        let codes = appended
            .get(&hit.name)
            .ok_or_else(|| format!("hit on unknown sequence {:?}", hit.name))?;
        let rescored = sw_best(query, codes, scoring).score;
        if hit.score != rescored || hit.score < min_score {
            return Err(format!(
                "hit on {:?} scores {}, pairwise Smith-Waterman gives {rescored} \
                 (min-score {min_score})",
                hit.name, hit.score
            ));
        }
    }
    Ok(())
}
