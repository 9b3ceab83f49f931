//! Order statistics, answer fingerprints and the seeded generator the
//! workloads draw their inputs from.

use se_sparql::ResultSet;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// Samples beyond the reported tail: a tail percentile is only as good as
/// the number of samples above it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least [`TAIL_MIN_BEYOND`] samples
/// strictly above it: `(value, percentile)`. With too few samples for
/// that, the maximum and its percentile (100) are returned.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= TAIL_MIN_BEYOND {
        return (v[n - 1], 100.0);
    }
    let idx = n - TAIL_MIN_BEYOND - 1;
    (v[idx], 100.0 * (idx + 1) as f64 / n as f64)
}

/// Milliseconds of a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds of a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Repeats `f` until at least 20 ms have been spent; returns ns per unit
/// of work (`f` returns the units it did; 0 if it does none).
pub fn ns_per(mut f: impl FnMut() -> usize) -> f64 {
    let (mut units, mut spent) = (0usize, Duration::ZERO);
    while spent < Duration::from_millis(20) {
        let t = Instant::now();
        units += f();
        spent += t.elapsed();
        if units == 0 {
            return 0.0;
        }
    }
    spent.as_nanos() as f64 / units as f64
}

/// Order-independent fingerprint of an answer multiset: the row count
/// plus the wrapping sum and xor of per-row hashes. Two answers with the
/// same variables and the same rows in any order share a fingerprint;
/// comparing fingerprints keeps the oracle check cheap enough to run on
/// every operation without storing every answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fingerprint {
    rows: usize,
    sum: u64,
    xor: u64,
}

pub fn fingerprint(rs: &ResultSet) -> Fingerprint {
    let mut h = DefaultHasher::new();
    rs.variables.hash(&mut h);
    let vars = h.finish();
    let mut fp = Fingerprint {
        rows: rs.rows.len(),
        sum: vars,
        xor: vars,
    };
    for row in &rs.rows {
        let mut h = DefaultHasher::new();
        row.hash(&mut h);
        let x = h.finish();
        fp.sum = fp.sum.wrapping_add(x);
        fp.xor ^= x.rotate_left(17);
    }
    fp
}

/// SplitMix64: the benchmark's own seeded generator for traffic mixes, so
/// a seed fixes every input independently of the program's crates.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5EED_0FBE_4C4D_4100)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_rdf::Term;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        // 1..=100: the highest value with ten strictly above it is 90.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let (v, pct) = tail(&xs);
        assert_eq!(v, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), TAIL_MIN_BEYOND);
        assert!((pct - 90.0).abs() < 1e-9);
        // One more sample moves the tail up one rank, never past it.
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        let (v, _) = tail(&xs);
        assert_eq!(v, 91.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), TAIL_MIN_BEYOND);
    }

    #[test]
    fn tail_with_few_samples_is_the_maximum() {
        let xs = [3.0, 1.0, 2.0];
        assert_eq!(tail(&xs), (3.0, 100.0));
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&xs).0, 1.0);
        assert_eq!(tail(&[]), (0.0, 0.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn fingerprint_ignores_row_order_but_not_content() {
        let row = |s: &str| vec![Some(Term::iri(s))];
        let a = ResultSet {
            variables: vec!["x".into()],
            rows: vec![row("http://a"), row("http://b")],
        };
        let mut b = a.clone();
        b.rows.reverse();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        b.rows[0] = row("http://c");
        assert_ne!(fingerprint(&a), fingerprint(&b));
        b.rows.pop();
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }
}
