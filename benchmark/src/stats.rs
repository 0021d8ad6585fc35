//! Order statistics and JSON helpers shared by every pass.

use std::collections::BTreeMap;

use serde_json::Value;

/// `(p25, p50, p75)` by the exclusive method Python's
/// `statistics.quantiles(values, n=4)` uses, so spreads computed here
/// match the ones the acceptance procedure computes. One value is its own
/// three quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let q = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // Outside 1..n-1 the position extrapolates, as Python's does.
        let frac = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (q(1), q(2), q(3))
}

/// The median (0 for no values).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The fields of a JSON object from `(key, value)` pairs.
pub fn fields<const N: usize>(pairs: [(&str, Value); N]) -> BTreeMap<String, Value> {
    pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect()
}

/// A JSON object from `(key, value)` pairs.
pub fn obj<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    Value::Object(fields(pairs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }
}
