//! Metric naming, the tail-percentile rule and the probe's scale.

use semloc_perf::names::{is_valid, sanitize};
use semloc_perf::probe::{ns_per_record, scale, Probe, REFERENCE_NS_PER_RECORD};
use semloc_perf::stats::tail;

#[test]
fn labels_map_onto_the_metric_alphabet() {
    assert_eq!(sanitize("ghb-g/dc"), "ghb-gdc");
    assert_eq!(sanitize("ghb-pc/dc"), "ghb-pcdc");
    assert_eq!(sanitize("pc+deltas"), "pc-deltas");
    for label in [
        "ghb-g/dc",
        "ghb-pc/dc",
        "next-line",
        "pc+deltas+gauss-pen+cst2048",
    ] {
        assert!(is_valid(&format!("pf.{}.ns_per_access", sanitize(label))));
    }
    assert!(!is_valid("pf.ghb-g/dc.ns_per_access"));
    assert!(!is_valid(".leading_dot"));
    assert!(!is_valid(&"x".repeat(65)));
}

#[test]
fn the_tail_percentile_leaves_at_least_ten_samples_beyond() {
    for n in 0..=10 {
        let v: Vec<f64> = (0..n).map(f64::from).collect();
        assert_eq!(tail(&v, 10), None, "{n} samples have no tail");
    }
    for n in 11..=400usize {
        // Reversed input: the rule must sort.
        let v: Vec<f64> = (0..n).rev().map(|x| x as f64).collect();
        let (p, value, beyond) = tail(&v, 10).expect("enough samples");
        let above = v.iter().filter(|&&x| x > value).count();
        assert!(above >= 10, "n={n}: p{p} leaves {above} beyond");
        assert_eq!(above, beyond, "n={n}: reported count");
        // And it is the highest such percentile.
        if p < 99 {
            let rank = ((p as usize + 1) * n).div_ceil(100);
            assert!(n - rank < 10, "n={n}: p{} would also qualify", p + 1);
        }
    }
}

#[test]
fn quartiles_match_the_exclusive_method() {
    use semloc_perf::stats::quartiles;
    // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn the_probe_scale_takes_host_times_to_the_reference_speed() {
    let mut probe = Probe::new();
    let ns: u64 = (0..4).map(|_| probe.sample()).sum();
    assert!(ns > 0, "a sample takes time");
    // Scaled, the probe itself runs at the reference speed.
    let at_reference = ns_per_record(ns, 4) * scale(ns, 4);
    assert!((at_reference - REFERENCE_NS_PER_RECORD).abs() < 1e-9);
    // A host twice as slow halves the scale, so a cell that took twice as
    // long there reads the same.
    assert!((scale(2 * ns, 4) * 2.0 - scale(ns, 4)).abs() < 1e-12);
    assert_eq!(scale(0, 0), 1.0, "no samples, no scaling");
}
