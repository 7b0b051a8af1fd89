//! Portable reference implementations — the semantic contract the AVX2
//! tier must reproduce bit-for-bit, including the first-match tie-break.

/// First way with `valid[i] && tags[i] == needle`.
#[inline]
pub fn find_valid_tag(tags: &[u64], valid: &[bool], needle: u64) -> Option<usize> {
    (0..tags.len()).find(|&i| valid[i] && tags[i] == needle)
}

/// First `i` in `1..deltas.len()-1` with `deltas[i] == d1 && deltas[i+1] == d2`.
#[inline]
pub fn find_pair_i64(deltas: &[i64], d1: i64, d2: i64) -> Option<usize> {
    if deltas.len() < 3 {
        return None;
    }
    (1..deltas.len() - 1).find(|&i| deltas[i] == d1 && deltas[i + 1] == d2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_probe_skips_invalid_ways() {
        assert_eq!(find_valid_tag(&[7, 7, 7], &[false, true, true], 7), Some(1));
        assert_eq!(find_valid_tag(&[7, 8], &[false, true], 7), None);
        assert_eq!(find_valid_tag(&[], &[], 7), None);
    }

    #[test]
    fn pair_scan_skips_index_zero_and_needs_a_successor() {
        let d = [7i64, 7, 7, 9];
        // i=0 excluded; i=1 matches (7,7)? deltas[1]=7, deltas[2]=7.
        assert_eq!(find_pair_i64(&d, 7, 7), Some(1));
        assert_eq!(find_pair_i64(&d, 7, 9), Some(2));
        assert_eq!(find_pair_i64(&d, 9, 7), None);
        assert_eq!(find_pair_i64(&[1, 2], 1, 2), None, "too short");
    }
}
