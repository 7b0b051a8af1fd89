//! Order statistics over timing samples.

/// Median of `v` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// The tail rule: the highest integer percentile `p` whose nearest-rank
/// value leaves at least `beyond` samples above it. Returns `(p, value,
/// samples beyond)`, or `None` when fewer than `beyond + 1` samples exist.
pub fn tail(v: &[f64], beyond: usize) -> Option<(u32, f64, usize)> {
    let n = v.len();
    if n <= beyond {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    // Nearest rank of percentile p: ceil(p * n / 100), 1-based.
    let rank = |p: usize| (p * n).div_ceil(100);
    let p = (1..100)
        .rev()
        .find(|&p| rank(p) >= 1 && n - rank(p) >= beyond)?;
    let r = rank(p);
    Some((p as u32, s[r - 1], n - r))
}

/// Geometric mean of positive values; `None` when empty or when any
/// value is not positive and finite.
pub fn geomean(v: &[f64]) -> Option<f64> {
    if v.is_empty() || v.iter().any(|x| !x.is_finite() || *x <= 0.0) {
        return None;
    }
    Some((v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp())
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(v, n=4)` does (the exclusive method); `None`
/// below two samples.
pub fn quartiles(v: &[f64]) -> Option<[f64; 3]> {
    let n = v.len();
    if n < 2 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, n - 1);
        // Signed: for two samples the cut can fall before the first one.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}
