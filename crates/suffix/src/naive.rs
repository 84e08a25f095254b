//! Naive quadratic suffix-array construction — the reference implementation
//! the fast builders are tested against (compiled only under
//! `#[cfg(test)]`).

/// Sort all suffixes of `text` by direct lexicographic comparison.
///
/// O(n² log n) worst case; for tests and tiny inputs only.
pub fn suffix_array_naive(text: &[u32]) -> Vec<u32> {
    let mut sa: Vec<u32> = (0..text.len() as u32).collect();
    sa.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
    sa
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banana() {
        // "banana" with a=0, b=1, n=2: banana = 1,0,2,0,2,0
        let text = [1, 0, 2, 0, 2, 0];
        // suffixes sorted: a(5), ana(3), anana(1), banana(0), na(4), nana(2)
        assert_eq!(suffix_array_naive(&text), vec![5, 3, 1, 0, 4, 2]);
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(suffix_array_naive(&[]), Vec::<u32>::new());
        assert_eq!(suffix_array_naive(&[7]), vec![0]);
    }

    #[test]
    fn all_equal_symbols() {
        // aaaa: shorter suffixes sort first.
        assert_eq!(suffix_array_naive(&[0, 0, 0, 0]), vec![3, 2, 1, 0]);
    }
}
