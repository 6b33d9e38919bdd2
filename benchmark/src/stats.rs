//! Order statistics and result checksums.

use rql::Value;

/// Median of `values` (mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile `p` in `[0, 1]` of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Fewest samples a round needs before its own median is trusted: below
/// this the median of a round is noisier than the interference the
/// quietest-round rule is there to dodge.
pub const ROUND_MIN: usize = 8;

/// The median of the quietest round: the smallest of the rounds' medians.
/// A run measures in several rounds spread over its length; on a shared
/// host interference comes in spells of several seconds and only ever
/// adds time, so the round it touched least is the best estimate of what
/// the code costs. When any round has fewer than [`ROUND_MIN`] samples
/// the rounds are pooled instead, and a spell that covers one round still
/// leaves the pooled median alone.
pub fn quietest_median(rounds: &[Vec<f64>]) -> f64 {
    if rounds.is_empty() || rounds.iter().any(|r| r.len() < ROUND_MIN) {
        return median(&rounds.concat());
    }
    rounds
        .iter()
        .map(|r| median(r))
        .fold(f64::INFINITY, f64::min)
}

/// Work per second by the same rule: `(work, seconds, samples)` per
/// round; the best round's rate, or the total's when rounds are short.
pub fn best_rate(rounds: &[(f64, f64, usize)]) -> f64 {
    if rounds.iter().any(|r| r.2 < ROUND_MIN) {
        let (work, seconds) = rounds
            .iter()
            .fold((0.0, 0.0), |acc, r| (acc.0 + r.0, acc.1 + r.1));
        return work / seconds.max(1e-9);
    }
    rounds
        .iter()
        .map(|r| r.0 / r.1.max(1e-9))
        .fold(0.0, f64::max)
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// returns them — the acceptance check on this benchmark uses that
/// function, so `--aa` must agree with it to the last digit.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len();
    if m < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn iqr_frac(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Canonical text of one value. Reals keep ten significant digits: the
/// oracle folds per-snapshot answers in benchmark code, and a fold that
/// adds the same numbers in another order may differ in the last bits.
fn canonical(v: &Value, out: &mut String) {
    use std::fmt::Write;
    let _ = match v {
        Value::Null => write!(out, "N|"),
        Value::Integer(i) => write!(out, "I{i}|"),
        // An integral real and the integer it equals are the same SQL
        // value (`GroupKey` groups them together), so they hash alike.
        Value::Real(r) if r.fract() == 0.0 && r.abs() < 1e15 => write!(out, "I{}|", *r as i64),
        Value::Real(r) => write!(out, "R{r:.9e}|"),
        Value::Text(t) => write!(out, "T{}:{t}|", t.len()),
    };
}

/// Order-insensitive checksum of a bag of rows: the wrapping sum of the
/// rows' hashes, mixed with the row count. Two tables with the same
/// multiset of rows — in any order — have the same checksum.
pub fn table_checksum<'a>(rows: impl IntoIterator<Item = &'a Vec<Value>>) -> u64 {
    let mut sum = 0u64;
    let mut count = 0u64;
    let mut text = String::new();
    for row in rows {
        text.clear();
        for v in row {
            canonical(v, &mut text);
        }
        sum = sum.wrapping_add(fnv1a(text.as_bytes()));
        count += 1;
    }
    sum ^ count.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 11.0);
        assert_eq!(percentile(&v, 0.95), 10.5);
    }

    #[test]
    fn quietest_round_wins_when_rounds_are_long_enough() {
        let quiet: Vec<f64> = (0..8).map(|i| 10.0 + f64::from(i)).collect();
        let noisy: Vec<f64> = quiet.iter().map(|v| v * 1.3).collect();
        assert_eq!(
            quietest_median(&[noisy.clone(), quiet.clone(), noisy.clone()]),
            13.5
        );
        // Short rounds are pooled: the median of everything.
        assert_eq!(
            quietest_median(&[vec![1.0, 9.0], vec![2.0, 3.0], vec![50.0]]),
            3.0
        );
        assert_eq!(quietest_median(&[]), 0.0);
        assert_eq!(quietest_median(&[vec![]]), 0.0);
    }

    #[test]
    fn best_rate_follows_the_same_rule() {
        assert_eq!(best_rate(&[(100.0, 10.0, 8), (100.0, 5.0, 8)]), 20.0);
        assert_eq!(
            best_rate(&[(100.0, 10.0, 8), (100.0, 5.0, 3)]),
            200.0 / 15.0
        );
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 2, 7, 4, 9], n=4) == [3.0, 7.0, 9.5]
        assert_eq!(quartiles(&[10.0, 2.0, 7.0, 4.0, 9.0]), [3.0, 7.0, 9.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn iqr_fraction() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_frac(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_frac(&[5.0, 5.0, 5.0, 5.0]), 0.0);
        assert_eq!(iqr_frac(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn checksum_ignores_order_but_not_content() {
        let a = vec![Value::Integer(1), Value::text("x")];
        let b = vec![Value::Integer(2), Value::Real(0.1 + 0.2)];
        let b_other_bits = vec![Value::Integer(2), Value::Real(0.3)];
        let fwd = table_checksum([&a, &b]);
        assert_eq!(fwd, table_checksum([&b, &a]));
        assert_eq!(fwd, table_checksum([&a, &b_other_bits]));
        assert_ne!(fwd, table_checksum([&a]));
        assert_ne!(fwd, table_checksum([&a, &a]));
        assert_ne!(fwd, table_checksum([&a, &b, &b]));
        // Column boundaries matter: ("ab","c") is not ("a","bc").
        let l = vec![Value::text("ab"), Value::text("c")];
        let r = vec![Value::text("a"), Value::text("bc")];
        assert_ne!(table_checksum([&l]), table_checksum([&r]));
        // 2.0 and 2 are the same SQL value.
        assert_eq!(
            table_checksum([&vec![Value::Real(2.0)]]),
            table_checksum([&vec![Value::Integer(2)]])
        );
    }
}
