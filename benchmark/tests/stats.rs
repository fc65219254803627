//! Median, percentile and quartile helpers, against values worked by hand
//! and against Python's `statistics.quantiles(values, n=4)`.

use fedscope_benchmark::stats::{median, percentile, quartiles, Summary};

#[test]
fn median_of_odd_even_and_empty_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=20).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), 10.0);
    assert_eq!(percentile(&v, 95.0), 19.0);
    assert_eq!(percentile(&v, 100.0), 20.0);
    assert_eq!(percentile(&v, 0.0), 1.0);
    assert_eq!(percentile(&[7.0], 95.0), 7.0);
    assert_eq!(percentile(&[], 95.0), 0.0);
}

#[test]
fn quartiles_match_python_exclusive_method() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 8.25));
    // statistics.quantiles([2, 4, 4, 5, 9], n=4) == [3.0, 4.0, 7.0]
    assert_eq!(quartiles(&[9.0, 2.0, 4.0, 5.0, 4.0]), (3.0, 7.0));
    // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
}

#[test]
fn summary_reports_spread_and_count() {
    let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
    assert_eq!((s.median, s.min, s.max, s.n), (5.5, 1.0, 10.0, 10));
    assert_eq!(s.iqr, 5.5);
    let one = Summary::single(3.0);
    assert_eq!((one.median, one.iqr, one.n), (3.0, 0.0, 1));
}
