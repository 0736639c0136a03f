//! Reference answers computed straight from the generated rows, and the
//! comparison every wire result must pass.
//!
//! The reference never touches the engine: group sums, counts and
//! averages are plain iterator folds, top-k is a sort. Floats compare
//! within a relative tolerance (the engine may add in another order);
//! results compare as multisets unless an `ORDER BY` fixes the order, and
//! rows tied on the sort key compare as multisets within their tie group
//! (a `LIMIT` cutting through a tie group may keep any of its rows).

use std::cmp::Ordering;
use std::collections::BTreeMap;

use rheem_core::{Record, Value};

/// Relative (and absolute, near zero) float tolerance.
const TOLERANCE: f64 = 1e-9;

/// `ORDER BY` of a statement: output column and direction.
#[derive(Clone, Copy, Debug)]
pub struct Order {
    /// Output column index the rows are sorted by.
    pub column: usize,
    /// `DESC` when true.
    pub descending: bool,
}

/// What a statement must return.
#[derive(Clone, Debug)]
pub struct Expected {
    /// Every row of the un-limited result; sorted by `order` when set.
    pub rows: Vec<Vec<Value>>,
    /// The statement's `ORDER BY`, if any.
    pub order: Option<Order>,
    /// The statement's `LIMIT`, if any.
    pub limit: Option<usize>,
}

impl Expected {
    /// An unordered result (compared as a multiset).
    pub fn unordered(rows: Vec<Vec<Value>>) -> Self {
        Expected {
            rows,
            order: None,
            limit: None,
        }
    }

    /// An ordered, optionally limited result; sorts `rows` itself.
    pub fn ordered(mut rows: Vec<Vec<Value>>, order: Order, limit: Option<usize>) -> Self {
        rows.sort_by(|a, b| {
            let o = cmp_value(&a[order.column], &b[order.column]);
            if order.descending {
                o.reverse()
            } else {
                o
            }
        });
        Expected {
            rows,
            order: Some(order),
            limit,
        }
    }
}

/// Numeric view of a value (Int and Float compare numerically).
fn numeric(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(x) => Some(*x),
        _ => None,
    }
}

/// Total order over values: Null < Bool < numbers < strings, numbers by
/// value regardless of Int/Float.
pub fn cmp_value(a: &Value, b: &Value) -> Ordering {
    fn class(v: &Value) -> u8 {
        match v {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }
    match (a, b) {
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        _ => match (numeric(a), numeric(b)) {
            (Some(x), Some(y)) => x.total_cmp(&y),
            _ => class(a).cmp(&class(b)),
        },
    }
}

/// Equality up to the float tolerance (Int vs Float numerically).
pub fn value_close(a: &Value, b: &Value) -> bool {
    match (numeric(a), numeric(b)) {
        (Some(x), Some(y)) => {
            (x - y).abs() <= TOLERANCE * x.abs().max(y.abs()) + TOLERANCE || x == y
        }
        _ => a == b,
    }
}

fn row_close(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| value_close(x, y))
}

fn cmp_row(a: &[Value], b: &[Value]) -> Ordering {
    a.iter()
        .zip(b)
        .map(|(x, y)| cmp_value(x, y))
        .find(|o| o.is_ne())
        .unwrap_or_else(|| a.len().cmp(&b.len()))
}

fn show(row: &[Value]) -> String {
    format!("{row:?}")
}

/// Multiset equality of two row lists (sorted pairwise comparison).
fn same_multiset(got: &[&[Value]], want: &[&[Value]]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} rows, expected {}", got.len(), want.len()));
    }
    let mut g = got.to_vec();
    let mut w = want.to_vec();
    g.sort_by(|a, b| cmp_row(a, b));
    w.sort_by(|a, b| cmp_row(a, b));
    match g.iter().zip(&w).find(|(a, b)| !row_close(a, b)) {
        None => Ok(()),
        Some((a, b)) => Err(format!("row {} where {} was expected", show(a), show(b))),
    }
}

/// Every row of `got` matches a distinct row of `pool`.
fn sub_multiset(got: &[&[Value]], pool: &[&[Value]]) -> Result<(), String> {
    let mut used = vec![false; pool.len()];
    for row in got {
        let slot = (0..pool.len()).find(|&j| !used[j] && row_close(row, pool[j]));
        match slot {
            Some(j) => used[j] = true,
            None => return Err(format!("row {} is not in the tie group", show(row))),
        }
    }
    Ok(())
}

/// Check one result against its reference.
pub fn check(expected: &Expected, got: &[Record]) -> Result<(), String> {
    let got: Vec<&[Value]> = got.iter().map(|r| r.fields()).collect();
    let want: Vec<&[Value]> = expected.rows.iter().map(Vec::as_slice).collect();
    let Some(order) = expected.order else {
        return same_multiset(&got, &want);
    };
    let n = expected.limit.map_or(want.len(), |k| k.min(want.len()));
    if got.len() != n {
        return Err(format!("{} rows, expected {n}", got.len()));
    }
    let key = |row: &[Value]| row.get(order.column).cloned().unwrap_or(Value::Null);
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        if !value_close(&key(g), &key(w)) {
            return Err(format!(
                "position {i}: sort key {:?}, expected {:?}",
                key(g),
                key(w)
            ));
        }
    }
    // Walk the tie groups of the reference's first `n` rows.
    let mut start = 0;
    while start < n {
        let k = key(want[start]);
        let mut end = start;
        while end < want.len() && value_close(&key(want[end]), &k) {
            end += 1;
        }
        let stop = end.min(n);
        if end <= n {
            same_multiset(&got[start..stop], &want[start..end])?;
        } else {
            sub_multiset(&got[start..stop], &want[start..end])?;
        }
        start = stop;
    }
    Ok(())
}

/// Group-by fold: per key, the sum and count of `value`.
pub fn sum_count_by<K: Ord, I>(items: I) -> BTreeMap<K, (f64, i64)>
where
    I: IntoIterator<Item = (K, f64)>,
{
    items.into_iter().fold(BTreeMap::new(), |mut acc, (k, v)| {
        let e = acc.entry(k).or_insert((0.0, 0));
        e.0 += v;
        e.1 += 1;
        acc
    })
}

/// Global `COUNT(*)` and `AVG(value)` fold.
pub fn count_avg<I: IntoIterator<Item = f64>>(values: I) -> (i64, f64) {
    let (n, sum) = values
        .into_iter()
        .fold((0i64, 0.0f64), |(n, s), v| (n + 1, s + v));
    (n, if n == 0 { 0.0 } else { sum / n as f64 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rheem_core::rec;

    /// `(customer, amount)` rows whose group folds are easy to check by hand.
    fn sales() -> Vec<(i64, f64)> {
        vec![(1, 10.0), (2, 5.5), (1, 2.5), (3, 7.0), (2, 0.5), (1, 1.0)]
    }

    #[test]
    fn group_sum_count_matches_hand_totals() {
        let g = sum_count_by(sales());
        assert_eq!(g[&1], (13.5, 3));
        assert_eq!(g[&2], (6.0, 2));
        assert_eq!(g[&3], (7.0, 1));
        let (n, avg) = count_avg(sales().into_iter().map(|(_, a)| a));
        assert_eq!(n, 6);
        assert!((avg - 26.5 / 6.0).abs() < 1e-12);
        assert_eq!(count_avg(std::iter::empty()), (0, 0.0));
    }

    fn totals() -> Vec<Vec<Value>> {
        sum_count_by(sales())
            .into_iter()
            .map(|(k, (s, n))| vec![Value::Int(k), Value::Float(s), Value::Int(n)])
            .collect()
    }

    #[test]
    fn unordered_results_compare_as_multisets_with_float_tolerance() {
        let want = Expected::unordered(totals());
        let got = vec![
            rec![3i64, 7.0, 1i64],
            rec![1i64, 13.5 + 1e-12, 3i64],
            rec![2i64, 6.0, 2.0],
        ];
        assert_eq!(check(&want, &got), Ok(()));
        let wrong = vec![
            rec![3i64, 7.0, 1i64],
            rec![1i64, 13.6, 3i64],
            rec![2i64, 6.0, 2i64],
        ];
        assert!(check(&want, &wrong).is_err());
        assert!(check(&want, &got[..2]).is_err());
    }

    #[test]
    fn top_k_follows_the_sort_and_the_limit() {
        let order = Order {
            column: 1,
            descending: true,
        };
        let want = Expected::ordered(totals(), order, Some(2));
        assert_eq!(want.rows[0][0], Value::Int(1));
        let got = vec![rec![1i64, 13.5, 3i64], rec![3i64, 7.0, 1i64]];
        assert_eq!(check(&want, &got), Ok(()));
        let swapped = vec![rec![3i64, 7.0, 1i64], rec![1i64, 13.5, 3i64]];
        assert!(check(&want, &swapped).is_err());
    }

    #[test]
    fn ties_compare_as_multisets_and_a_cut_tie_group_may_keep_any_member() {
        let rows = vec![
            vec![Value::Int(1), Value::Float(5.0)],
            vec![Value::Int(2), Value::Float(9.0)],
            vec![Value::Int(3), Value::Float(5.0)],
            vec![Value::Int(4), Value::Float(5.0)],
        ];
        let order = Order {
            column: 1,
            descending: true,
        };
        // LIMIT 3 cuts the three-way tie at 5.0 after two members.
        let want = Expected::ordered(rows, order, Some(3));
        assert_eq!(
            check(&want, &[rec![2i64, 9.0], rec![4i64, 5.0], rec![1i64, 5.0]]),
            Ok(())
        );
        assert!(check(&want, &[rec![2i64, 9.0], rec![4i64, 5.0], rec![4i64, 5.0]]).is_err());
        assert!(check(&want, &[rec![2i64, 9.0], rec![7i64, 5.0], rec![1i64, 5.0]]).is_err());
    }
}
