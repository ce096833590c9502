//! Order statistics the metrics are built from.

use ibis_benchmark::stats::{percentile, tail_percentile, Summary};

#[test]
fn tail_percentile_keeps_ten_jobs_beyond_it() {
    assert_eq!(tail_percentile(51), 80);
    assert_eq!(tail_percentile(31), 67);
    assert_eq!(tail_percentile(512), 98);
    assert_eq!(tail_percentile(1024), 99);
    for n in [25usize, 51, 100, 256, 384, 1000] {
        let p = tail_percentile(n) as usize;
        let rank = (p * n).div_ceil(100);
        assert!(n - rank >= 10, "p{p} of {n} leaves {} beyond", n - rank);
        let next = (p + 1) * n;
        assert!(
            n - next.div_ceil(100) < 10,
            "p{} of {n} would also do",
            p + 1
        );
    }
    assert_eq!(tail_percentile(5), 50);
}

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=51).map(f64::from).collect();
    assert_eq!(percentile(&v, 80), 41.0);
    assert_eq!(percentile(&v, 50), 26.0);
    assert_eq!(percentile(&v, 100), 51.0);
    assert_eq!(percentile(&[], 50), 0.0);
}

#[test]
fn quartiles_match_pythons_exclusive_method() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    let s = Summary::of(&v);
    assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    let s = Summary::of(&[3.0, 1.0, 2.0]);
    assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    assert_eq!(Summary::of(&[4.0]).spread(), 0.0);
}
