//! Linear-time suffix-array construction by induced sorting (SA-IS).
//!
//! Implements Nong, Zhang & Chan's SA-IS algorithm: classify suffixes as
//! S-/L-type, sort the LMS substrings by one round of induced sorting, name
//! them, recurse on the reduced string if names repeat, then induce the full
//! order from the sorted LMS suffixes.
//!
//! This is the only production builder used for index construction; it is
//! tested against the prefix-doubling and naive test oracles, which share
//! no code with it.

const EMPTY: u32 = u32::MAX;

/// Build the suffix array of `text` (arbitrary `u32` symbols).
///
/// Runs in O(n) time and O(n) extra space. A unique sentinel smaller than
/// every symbol is appended internally and excluded from the result, so the
/// ordering convention is "shorter suffix first" on ties — the same as plain
/// lexicographic slice comparison.
pub fn suffix_array(text: &[u32]) -> Vec<u32> {
    if text.is_empty() {
        return Vec::new();
    }
    let mut t: Vec<u32> = Vec::with_capacity(text.len() + 1);
    let mut max = 0u32;
    for &x in text {
        assert!(x < u32::MAX - 1, "symbol value too large");
        t.push(x + 1);
        max = max.max(x + 1);
    }
    t.push(0); // sentinel: unique minimum
    let sa = sais(&t, max as usize + 1);
    // Drop the sentinel suffix (position n), keep the rest in order.
    sa.into_iter()
        .filter(|&p| (p as usize) < text.len())
        .collect()
}

/// Core SA-IS over a text whose last symbol is the unique minimum.
fn sais(t: &[u32], k: usize) -> Vec<u32> {
    let n = t.len();
    let mut sa = vec![EMPTY; n];
    if n == 1 {
        sa[0] = 0;
        return sa;
    }
    if n == 2 {
        // Last symbol is the unique minimum, so suffix 1 < suffix 0.
        sa[0] = 1;
        sa[1] = 0;
        return sa;
    }

    // --- classify S/L types ------------------------------------------------
    let mut is_s = vec![false; n];
    is_s[n - 1] = true;
    for i in (0..n - 1).rev() {
        is_s[i] = t[i] < t[i + 1] || (t[i] == t[i + 1] && is_s[i + 1]);
    }
    let is_lms = |i: usize| i > 0 && is_s[i] && !is_s[i - 1];

    // --- bucket bookkeeping -------------------------------------------------
    let mut count = vec![0u32; k];
    for &c in t {
        count[c as usize] += 1;
    }
    let bucket_heads = |count: &[u32]| -> Vec<u32> {
        let mut heads = vec![0u32; count.len()];
        let mut sum = 0u32;
        for (i, &c) in count.iter().enumerate() {
            heads[i] = sum;
            sum += c;
        }
        heads
    };
    let bucket_tails = |count: &[u32]| -> Vec<u32> {
        let mut tails = vec![0u32; count.len()];
        let mut sum = 0u32;
        for (i, &c) in count.iter().enumerate() {
            sum += c;
            tails[i] = sum;
        }
        tails
    };

    // --- step 1: rough-sort LMS suffixes by induced sorting -----------------
    let lms_positions: Vec<u32> = (1..n).filter(|&i| is_lms(i)).map(|i| i as u32).collect();
    let m = lms_positions.len();
    {
        let mut tails = bucket_tails(&count);
        for &p in &lms_positions {
            let c = t[p as usize] as usize;
            tails[c] -= 1;
            sa[tails[c] as usize] = p;
        }
    }
    induce(t, &mut sa, &is_s, &count, &bucket_heads, &bucket_tails);

    // --- step 2: name the LMS substrings ------------------------------------
    let mut sorted_lms: Vec<u32> = Vec::with_capacity(m);
    for &p in sa.iter() {
        if p != EMPTY && is_lms(p as usize) {
            sorted_lms.push(p);
        }
    }
    debug_assert_eq!(sorted_lms.len(), m);
    let mut name_of = vec![EMPTY; n];
    let mut name = 0u32;
    let mut prev = EMPTY;
    for &p in &sorted_lms {
        if prev != EMPTY && !lms_equal(t, &is_s, prev as usize, p as usize) {
            name += 1;
        }
        name_of[p as usize] = name;
        prev = p;
    }
    let num_names = (name + 1) as usize;

    // --- step 3: order the LMS suffixes exactly -----------------------------
    // `reduced[i]` is the name of the i-th LMS position (text order). The
    // last LMS is the sentinel position, whose name 0 is unique, so the
    // reduced string again ends with its unique minimum.
    let reduced: Vec<u32> = lms_positions.iter().map(|&p| name_of[p as usize]).collect();
    let lms_order: Vec<u32> = if num_names == m {
        // All names distinct: invert the permutation directly.
        let mut order = vec![0u32; m];
        for (i, &nm) in reduced.iter().enumerate() {
            order[nm as usize] = i as u32;
        }
        order
    } else {
        sais(&reduced, num_names)
    };

    // --- step 4: final induced sort from exactly ordered LMS suffixes -------
    sa.fill(EMPTY);
    {
        let mut tails = bucket_tails(&count);
        for &ri in lms_order.iter().rev() {
            let p = lms_positions[ri as usize];
            let c = t[p as usize] as usize;
            tails[c] -= 1;
            sa[tails[c] as usize] = p;
        }
    }
    induce(t, &mut sa, &is_s, &count, &bucket_heads, &bucket_tails);
    sa
}

/// One round of induced sorting: L-types left-to-right from bucket heads,
/// then S-types right-to-left from bucket tails.
fn induce(
    t: &[u32],
    sa: &mut [u32],
    is_s: &[bool],
    count: &[u32],
    bucket_heads: &dyn Fn(&[u32]) -> Vec<u32>,
    bucket_tails: &dyn Fn(&[u32]) -> Vec<u32>,
) {
    let n = t.len();
    let mut heads = bucket_heads(count);
    for i in 0..n {
        let j = sa[i];
        if j != EMPTY && j != 0 {
            let prev = (j - 1) as usize;
            if !is_s[prev] {
                let c = t[prev] as usize;
                sa[heads[c] as usize] = j - 1;
                heads[c] += 1;
            }
        }
    }
    let mut tails = bucket_tails(count);
    for i in (0..n).rev() {
        let j = sa[i];
        if j != EMPTY && j != 0 {
            let prev = (j - 1) as usize;
            if is_s[prev] {
                let c = t[prev] as usize;
                tails[c] -= 1;
                sa[tails[c] as usize] = j - 1;
            }
        }
    }
}

/// Are the LMS substrings starting at `a` and `b` identical (symbols and
/// types, up to and including the next LMS position)?
fn lms_equal(t: &[u32], is_s: &[bool], a: usize, b: usize) -> bool {
    let n = t.len();
    if a == n - 1 || b == n - 1 {
        return a == b; // the sentinel's LMS substring is unique
    }
    let is_lms = |i: usize| i > 0 && is_s[i] && !is_s[i - 1];
    let mut i = 0usize;
    loop {
        let a_end = i > 0 && is_lms(a + i);
        let b_end = i > 0 && is_lms(b + i);
        if a_end && b_end {
            return true;
        }
        if a_end != b_end || t[a + i] != t[b + i] {
            return false;
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doubling::suffix_array_doubling;
    use crate::naive::suffix_array_naive;

    #[test]
    fn banana() {
        let text = [1, 0, 2, 0, 2, 0];
        assert_eq!(suffix_array(&text), vec![5, 3, 1, 0, 4, 2]);
    }

    #[test]
    fn mississippi() {
        // i=0, m=1, p=2, s=3
        let text: Vec<u32> = "mississippi"
            .bytes()
            .map(|b| match b {
                b'i' => 0,
                b'm' => 1,
                b'p' => 2,
                b's' => 3,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(suffix_array(&text), suffix_array_naive(&text));
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(suffix_array(&[]), Vec::<u32>::new());
        assert_eq!(suffix_array(&[5]), vec![0]);
        assert_eq!(suffix_array(&[1, 1]), vec![1, 0]);
        assert_eq!(suffix_array(&[0, 0, 0, 0, 0]), vec![4, 3, 2, 1, 0]);
        assert_eq!(suffix_array(&[0, 1]), vec![0, 1]);
        assert_eq!(suffix_array(&[1, 0]), vec![1, 0]);
    }

    #[test]
    fn periodic_inputs() {
        for text in [
            vec![0u32, 1, 0, 1, 0, 1, 0, 1],
            vec![1, 0, 1, 0, 1, 0],
            vec![2, 1, 0, 2, 1, 0, 2, 1, 0],
            vec![0, 0, 1, 0, 0, 1, 0, 0, 1],
        ] {
            assert_eq!(suffix_array(&text), suffix_array_naive(&text), "{text:?}");
        }
    }

    #[test]
    fn large_alphabet_values() {
        let text = [1_000_000u32, 5, 999_999, 5, 1_000_000];
        assert_eq!(suffix_array(&text), suffix_array_naive(&text));
    }

    #[test]
    fn matches_both_references_on_pseudorandom() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in [1usize, 2, 3, 5, 8, 13, 21, 50, 128, 500] {
            for alpha in [1u64, 2, 3, 4, 20, 26] {
                let text: Vec<u32> = (0..len).map(|_| (next() % alpha) as u32).collect();
                let got = suffix_array(&text);
                assert_eq!(
                    got,
                    suffix_array_naive(&text),
                    "naive: len={len} alpha={alpha}"
                );
                assert_eq!(
                    got,
                    suffix_array_doubling(&text),
                    "doubling: len={len} alpha={alpha}"
                );
            }
        }
    }

    #[test]
    fn is_a_permutation() {
        let text: Vec<u32> = (0..200u32).map(|i| (i * 7919) % 13).collect();
        let sa = suffix_array(&text);
        let mut seen = vec![false; text.len()];
        for &p in &sa {
            assert!(!seen[p as usize], "duplicate {p}");
            seen[p as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn suffixes_strictly_increasing() {
        let text: Vec<u32> = (0..300u32).map(|i| (i * 31 + i / 7) % 5).collect();
        let sa = suffix_array(&text);
        for w in sa.windows(2) {
            let a = &text[w[0] as usize..];
            let b = &text[w[1] as usize..];
            assert!(a < b, "suffix {} !< suffix {}", w[0], w[1]);
        }
    }
}
