//! Prefix-doubling suffix-array construction (Manber & Myers style).
//!
//! O(n log² n) with library sorting. A test oracle for [`crate::sais`]
//! (compiled only under `#[cfg(test)]`): the two builders share no code,
//! so agreement between them on random inputs is strong evidence of
//! correctness.

/// Build the suffix array of `text` by prefix doubling.
pub fn suffix_array_doubling(text: &[u32]) -> Vec<u32> {
    let n = text.len();
    if n == 0 {
        return Vec::new();
    }
    let mut sa: Vec<u32> = (0..n as u32).collect();
    // rank[i] = rank of suffix i by its first k symbols; -1 pads past the end
    // (so shorter suffixes sort first, matching sentinel semantics).
    let mut rank: Vec<i64> = text.iter().map(|&x| x as i64).collect();
    let mut next_rank: Vec<i64> = vec![0; n];
    let mut k = 1usize;
    loop {
        {
            let rank = &rank;
            let key = move |i: u32| -> (i64, i64) {
                let i = i as usize;
                let second = if i + k < n { rank[i + k] } else { -1 };
                (rank[i], second)
            };
            sa.sort_unstable_by_key(|&i| key(i));
            next_rank[sa[0] as usize] = 0;
            for w in 1..n {
                let bump = (key(sa[w]) != key(sa[w - 1])) as i64;
                next_rank[sa[w] as usize] = next_rank[sa[w - 1] as usize] + bump;
            }
        }
        std::mem::swap(&mut rank, &mut next_rank);
        if rank[sa[n - 1] as usize] == (n - 1) as i64 {
            break; // all ranks distinct: fully sorted
        }
        k *= 2;
    }
    sa
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::suffix_array_naive;

    #[test]
    fn banana() {
        let text = [1, 0, 2, 0, 2, 0];
        assert_eq!(suffix_array_doubling(&text), vec![5, 3, 1, 0, 4, 2]);
    }

    #[test]
    fn empty_single_and_repeats() {
        assert_eq!(suffix_array_doubling(&[]), Vec::<u32>::new());
        assert_eq!(suffix_array_doubling(&[9]), vec![0]);
        assert_eq!(suffix_array_doubling(&[0, 0, 0]), vec![2, 1, 0]);
    }

    #[test]
    fn matches_naive_on_fixed_cases() {
        let cases: &[&[u32]] = &[
            &[3, 1, 4, 1, 5, 9, 2, 6],
            &[0, 1, 0, 1, 0, 1],
            &[5, 4, 3, 2, 1, 0],
            &[0, 1, 2, 3, 4, 5],
            &[2, 2, 1, 2, 2, 1, 2],
        ];
        for case in cases {
            assert_eq!(
                suffix_array_doubling(case),
                suffix_array_naive(case),
                "case {case:?}"
            );
        }
    }

    #[test]
    fn matches_naive_on_pseudorandom() {
        // Cheap deterministic PRNG to avoid a dev-dependency here.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in [2usize, 3, 7, 16, 33, 100] {
            for alpha in [2u32, 4, 20] {
                let text: Vec<u32> = (0..len).map(|_| (next() % alpha as u64) as u32).collect();
                assert_eq!(
                    suffix_array_doubling(&text),
                    suffix_array_naive(&text),
                    "len={len} alpha={alpha} text={text:?}"
                );
            }
        }
    }
}
