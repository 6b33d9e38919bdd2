//! SQL values with SQLite-style dynamic typing.
//!
//! Four storage classes are supported: `NULL`, 64-bit integers, 64-bit
//! floats and UTF-8 text. Comparison follows SQL three-valued logic for
//! predicates (`NULL` compares unknown) while sorting and grouping use a
//! total order (`NULL` first, then numbers, then text — SQLite's ordering
//! across storage classes).

use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};

/// A dynamically typed SQL value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Integer(i64),
    /// 64-bit IEEE float.
    Real(f64),
    /// UTF-8 text.
    Text(String),
}

impl Value {
    /// Text value from anything string-like.
    pub fn text(s: impl Into<String>) -> Value {
        Value::Text(s.into())
    }

    /// Whether this is SQL NULL.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// SQL truthiness: numbers are true when non-zero; NULL is not true;
    /// text parses as a number where possible (SQLite behaviour). Inline:
    /// every scan filter calls it per row, from another module.
    #[inline]
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Integer(i) => *i != 0,
            Value::Real(r) => *r != 0.0,
            Value::Text(t) => t.trim().parse::<f64>().is_ok_and(|v| v != 0.0),
        }
    }

    /// Numeric view (integers widen to float), `None` for NULL/non-numeric
    /// text.
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Integer(i) => Some(*i as f64),
            Value::Real(r) => Some(*r),
            _ => None,
        }
    }

    /// Integer view, `None` unless the value is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Integer(i) => Some(*i),
            _ => None,
        }
    }

    /// Text view, `None` unless the value is text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(t) => Some(t),
            _ => None,
        }
    }

    /// SQL comparison with three-valued logic: `None` when either side is
    /// NULL, otherwise the total-order comparison.
    #[inline]
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other))
    }

    /// Total order used for ORDER BY / MIN / MAX: NULL < numbers < text;
    /// numbers compare numerically across Integer/Real.
    #[inline]
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Integer(a), Integer(b)) => a.cmp(b),
            (Integer(a), Real(b)) => cmp_f64(*a as f64, *b),
            (Real(a), Integer(b)) => cmp_f64(*a, *b as f64),
            (Real(a), Real(b)) => cmp_f64(*a, *b),
            (Integer(_) | Real(_), Text(_)) => Ordering::Less,
            (Text(_), Integer(_) | Real(_)) => Ordering::Greater,
            (Text(a), Text(b)) => a.cmp(b),
        }
    }

    /// Addition with SQL NULL propagation and int/float promotion.
    pub fn add(&self, other: &Value) -> Value {
        numeric_binop(self, other, i64::checked_add, |a, b| a + b)
    }

    /// Subtraction.
    pub fn sub(&self, other: &Value) -> Value {
        numeric_binop(self, other, i64::checked_sub, |a, b| a - b)
    }

    /// Multiplication.
    pub fn mul(&self, other: &Value) -> Value {
        numeric_binop(self, other, i64::checked_mul, |a, b| a * b)
    }

    /// Division; division by zero yields NULL (SQLite behaviour).
    pub fn div(&self, other: &Value) -> Value {
        match (self.as_f64(), other.as_f64()) {
            (Some(_), Some(0.0)) => Value::Null,
            _ => {
                if let (Value::Integer(a), Value::Integer(b)) = (self, other) {
                    return if *b == 0 {
                        Value::Null
                    } else {
                        Value::Integer(a.wrapping_div(*b))
                    };
                }
                numeric_binop(self, other, |_, _| None, |a, b| a / b)
            }
        }
    }

    /// Remainder; zero modulus yields NULL.
    pub fn rem(&self, other: &Value) -> Value {
        match (self, other) {
            (Value::Integer(a), Value::Integer(b)) => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Integer(a.wrapping_rem(*b))
                }
            }
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) if b != 0.0 => Value::Real(a % b),
                _ => Value::Null,
            },
        }
    }

    /// Unary negation.
    pub fn neg(&self) -> Value {
        match self {
            Value::Integer(i) => Value::Integer(-i),
            Value::Real(r) => Value::Real(-r),
            _ => Value::Null,
        }
    }

    /// String concatenation (SQL `||`); NULL propagates.
    pub fn concat(&self, other: &Value) -> Value {
        if self.is_null() || other.is_null() {
            return Value::Null;
        }
        Value::Text(format!("{self}{other}"))
    }

    /// SQL `LIKE` with `%` and `_` wildcards (case-sensitive).
    pub fn like(&self, pattern: &Value) -> Value {
        let (Some(text), Some(pat)) = (self.as_str(), pattern.as_str()) else {
            return Value::Null;
        };
        Value::Integer(like_match(pat.as_bytes(), text.as_bytes()) as i64)
    }
}

fn cmp_f64(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or(Ordering::Equal)
}

fn numeric_binop(
    lhs: &Value,
    rhs: &Value,
    int_op: impl Fn(i64, i64) -> Option<i64>,
    float_op: impl Fn(f64, f64) -> f64,
) -> Value {
    match (lhs, rhs) {
        (Value::Integer(a), Value::Integer(b)) => match int_op(*a, *b) {
            Some(v) => Value::Integer(v),
            None => Value::Real(float_op(*a as f64, *b as f64)),
        },
        _ => match (lhs.as_f64(), rhs.as_f64()) {
            (Some(a), Some(b)) => Value::Real(float_op(a, b)),
            _ => Value::Null,
        },
    }
}

/// Recursive LIKE matcher.
fn like_match(pat: &[u8], text: &[u8]) -> bool {
    match pat.first() {
        None => text.is_empty(),
        Some(b'%') => {
            // Collapse consecutive %.
            let rest = &pat[1..];
            (0..=text.len()).any(|i| like_match(rest, &text[i..]))
        }
        Some(b'_') => !text.is_empty() && like_match(&pat[1..], &text[1..]),
        Some(&c) => text.first() == Some(&c) && like_match(&pat[1..], &text[1..]),
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Integer(i) => write!(f, "{i}"),
            Value::Real(r) => {
                if r.fract() == 0.0 && r.abs() < 1e15 {
                    write!(f, "{r:.1}")
                } else {
                    write!(f, "{r}")
                }
            }
            Value::Text(t) => write!(f, "{t}"),
        }
    }
}

/// Wrapper giving [`Value`] `Eq + Hash` semantics for GROUP BY / DISTINCT
/// keys: floats hash by bits with `-0.0` normalized to `0.0`, and a float
/// equal to an integer hashes like that integer so `1` and `1.0` group
/// together (SQL equality semantics).
#[derive(Debug, Clone)]
pub struct GroupKey(pub Vec<Value>);

impl PartialEq for GroupKey {
    fn eq(&self, other: &Self) -> bool {
        self.sql_eq(other)
    }
}

impl Eq for GroupKey {}

impl Hash for GroupKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for v in &self.0 {
            hash_group_value(v, state);
        }
    }
}

/// The [`GroupKey`] of `row`'s values at `positions`, read where they lie:
/// hashed and compared exactly as that key is, with no value copied.
#[derive(Debug, Clone, Copy)]
pub struct GroupKeyRef<'a> {
    /// The row holding the key's values.
    pub row: &'a [Value],
    /// The key's positions in `row`.
    pub positions: &'a [usize],
}

impl<'a> GroupKeyRef<'a> {
    fn values(&self) -> impl Iterator<Item = &'a Value> + 'a {
        let row = self.row;
        self.positions.iter().map(move |&p| &row[p])
    }
}

impl PartialEq for GroupKeyRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.positions.len() == other.positions.len()
            && (self.values().zip(other.values())).all(|(a, b)| group_value_eq(a, b))
    }
}

impl Eq for GroupKeyRef<'_> {}

impl Hash for GroupKeyRef<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for v in self.values() {
            hash_group_value(v, state);
        }
    }
}

/// The one hasher of every executor map and set keyed by [`GroupKey`] or
/// [`GroupKeyRef`] ([`KeyMap`], [`KeySet`]): seeded per map from std's
/// `RandomState`, mixing each word with a folded multiply (the 128-bit
/// product's halves XORed) and once more at `finish`, so every key bit
/// reaches the low bits the table indexes by — keys that are multiples
/// of 2^k spread as well as any others. It is not a keyed PRF like std's SipHash; see DESIGN.md
/// §5c for why that costs nothing here.
#[derive(Debug, Clone)]
pub struct KeyState {
    seed: u64,
}

impl Default for KeyState {
    /// A fresh seed: each map hashes its keys its own way.
    fn default() -> Self {
        KeyState {
            seed: RandomState::new().build_hasher().finish(),
        }
    }
}

impl BuildHasher for KeyState {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        KeyHasher(self.seed)
    }
}

/// A map keyed by [`GroupKey`] or [`GroupKeyRef`] (or another key
/// hashed a word at a time, such as a page version).
pub type KeyMap<K, V> = HashMap<K, V, KeyState>;
/// A set of [`GroupKey`]s or [`GroupKeyRef`]s.
pub type KeySet<K> = HashSet<K, KeyState>;

/// [`KeyState`]'s hasher.
#[derive(Debug)]
pub struct KeyHasher(u64);

/// The 128-bit product of `a` and `b`, its halves XORed.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

impl KeyHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        // Odd constants with no structure of their own (digits of pi),
        // here and in `finish`.
        self.0 = folded_multiply(self.0 ^ word, 0x243f_6a88_85a3_08d3);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.mix(u64::from_le_bytes(word.try_into().unwrap_or_default()));
        }
        let tail = words.remainder();
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        // The length keeps "a" apart from "a\0".
        self.mix(u64::from_le_bytes(last) ^ ((tail.len() as u64) << 56));
    }

    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    fn finish(&self) -> u64 {
        // A last round carries the high bits of the last word, which one
        // multiply leaves in the product's upper half, into the low bits.
        folded_multiply(self.0, 0xa409_3822_299f_31d1)
    }
}

/// One value's part of a grouping key's hash.
fn hash_group_value<H: Hasher>(v: &Value, state: &mut H) {
    match v {
        Value::Null => 0u8.hash(state),
        Value::Integer(i) => {
            1u8.hash(state);
            i.hash(state);
        }
        Value::Real(r) => {
            // Integral floats hash as their integer counterpart.
            if r.fract() == 0.0 && *r >= i64::MIN as f64 && *r <= i64::MAX as f64 {
                1u8.hash(state);
                (*r as i64).hash(state);
            } else {
                2u8.hash(state);
                let bits = if *r == 0.0 { 0u64 } else { r.to_bits() };
                bits.hash(state);
            }
        }
        Value::Text(t) => {
            3u8.hash(state);
            t.hash(state);
        }
    }
}

impl GroupKey {
    /// Make this the one-value key of `v` in place: a text value is copied
    /// into the string already there, so a reused key allocates nothing.
    pub(crate) fn set_single(&mut self, v: &Value) {
        self.0.truncate(1);
        match (self.0.first_mut(), v) {
            (Some(Value::Text(s)), Value::Text(t)) => {
                s.clear();
                s.push_str(t);
            }
            (Some(slot), v) => *slot = v.clone(),
            (None, v) => self.0.push(v.clone()),
        }
    }

    /// Equality matching SQL grouping: integers and integral reals match.
    pub fn sql_eq(&self, other: &GroupKey) -> bool {
        self.0.len() == other.0.len()
            && self
                .0
                .iter()
                .zip(&other.0)
                .all(|(a, b)| group_value_eq(a, b))
    }
}

fn group_value_eq(a: &Value, b: &Value) -> bool {
    use Value::*;
    match (a, b) {
        (Null, Null) => true, // grouping treats NULLs as equal
        (Integer(x), Real(y)) | (Real(y), Integer(x)) => *x as f64 == *y,
        // Bit equality so NaN keys satisfy the Eq reflexivity HashMap needs.
        (Real(x), Real(y)) => x.to_bits() == y.to_bits() || x == y,
        _ => a == b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_valued_comparison() {
        assert_eq!(Value::Integer(1).sql_cmp(&Value::Null), None);
        assert_eq!(
            Value::Integer(1).sql_cmp(&Value::Integer(2)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Integer(2).sql_cmp(&Value::Real(2.0)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn total_order_across_classes() {
        let mut vals = vec![
            Value::text("abc"),
            Value::Integer(5),
            Value::Null,
            Value::Real(2.5),
        ];
        vals.sort_by(super::Value::total_cmp);
        assert_eq!(
            vals,
            vec![
                Value::Null,
                Value::Real(2.5),
                Value::Integer(5),
                Value::text("abc"),
            ]
        );
    }

    #[test]
    fn arithmetic_with_promotion_and_null() {
        assert_eq!(Value::Integer(2).add(&Value::Integer(3)), Value::Integer(5));
        assert_eq!(Value::Integer(2).add(&Value::Real(0.5)), Value::Real(2.5));
        assert!(Value::Integer(2).add(&Value::Null).is_null());
        assert_eq!(Value::Integer(7).div(&Value::Integer(2)), Value::Integer(3));
        assert!(Value::Integer(7).div(&Value::Integer(0)).is_null());
        assert_eq!(Value::Integer(7).rem(&Value::Integer(4)), Value::Integer(3));
        assert_eq!(Value::Integer(5).neg(), Value::Integer(-5));
    }

    #[test]
    fn integer_overflow_promotes_to_real() {
        let v = Value::Integer(i64::MAX).add(&Value::Integer(1));
        assert!(matches!(v, Value::Real(_)));
    }

    #[test]
    fn like_patterns() {
        let t = Value::text("STANDARD POLISHED TIN");
        assert_eq!(t.like(&Value::text("%POLISHED%")), Value::Integer(1));
        assert_eq!(t.like(&Value::text("STANDARD%")), Value::Integer(1));
        assert_eq!(t.like(&Value::text("%BRASS%")), Value::Integer(0));
        assert_eq!(
            Value::text("abc").like(&Value::text("a_c")),
            Value::Integer(1)
        );
        assert!(Value::Null.like(&Value::text("x")).is_null());
    }

    #[test]
    fn truthiness() {
        assert!(Value::Integer(1).is_truthy());
        assert!(!Value::Integer(0).is_truthy());
        assert!(!Value::Null.is_truthy());
        assert!(Value::Real(0.5).is_truthy());
        assert!(Value::text("2").is_truthy());
        assert!(!Value::text("abc").is_truthy());
    }

    #[test]
    fn group_key_unifies_int_and_real() {
        let mut m: KeyMap<GroupKey, u32> = KeyMap::default();
        m.insert(GroupKey(vec![Value::Integer(1)]), 1);
        assert!(m.contains_key(&GroupKey(vec![Value::Real(1.0)])));
        assert!(!m.contains_key(&GroupKey(vec![Value::Real(1.5)])));
    }

    #[test]
    fn group_key_nulls_group_together() {
        let a = GroupKey(vec![Value::Null]);
        let b = GroupKey(vec![Value::Null]);
        assert!(a.sql_eq(&b));
        let mut m: KeyMap<GroupKey, u32> = KeyMap::default();
        m.insert(a, 1);
        assert!(m.contains_key(&b));
    }

    /// A key read in place groups exactly as the same values copied out,
    /// under the executor's hasher: equal keys — `1` and `1.0`, `-0.0`
    /// and `0.0` among them — hash alike.
    #[test]
    fn group_key_ref_groups_like_group_key() {
        let hasher = KeyState::default();
        let rows = [
            vec![Value::text("x"), Value::Integer(1), Value::Null],
            vec![Value::Real(1.0), Value::Null, Value::text("x")],
            vec![Value::Real(-0.0), Value::Real(1.5), Value::Integer(0)],
            vec![Value::Integer(0), Value::Real(1.5), Value::Real(0.0)],
        ];
        let positions = [[1, 2], [0, 1], [2, 0]];
        for (a, b) in rows.iter().flat_map(|a| rows.iter().map(move |b| (a, b))) {
            for (pa, pb) in positions
                .iter()
                .flat_map(|p| positions.iter().map(move |q| (p, q)))
            {
                let (ra, rb) = (
                    GroupKeyRef {
                        row: a,
                        positions: pa,
                    },
                    GroupKeyRef {
                        row: b,
                        positions: pb,
                    },
                );
                let owned = |row: &[Value], p: &[usize]| {
                    GroupKey(p.iter().map(|&i| row[i].clone()).collect())
                };
                let (ka, kb) = (owned(a, pa), owned(b, pb));
                assert_eq!(ra == rb, ka == kb, "{ka:?} vs {kb:?}");
                assert_eq!(hasher.hash_one(ra), hasher.hash_one(&ka));
                if ka == kb {
                    assert_eq!(hasher.hash_one(&ka), hasher.hash_one(&kb), "{ka:?}");
                }
            }
        }
    }

    /// Structured keys — multiples of 2^12 and of 2^32, integral reals
    /// (which hash as integers), texts sharing a 64-byte prefix — spread
    /// over the low bits a table indexes by: 4,096 keys of each family
    /// reach at least half of the 4,096 low-12-bit buckets.
    #[test]
    fn structured_keys_reach_the_low_bits() {
        let hasher = KeyState::default();
        let prefix = "p".repeat(64);
        for family in ["i * 4096", "i * 2^32", "integral reals", "shared prefix"] {
            let key = |i: i64| match family {
                "i * 4096" => Value::Integer(i << 12),
                "i * 2^32" => Value::Integer(i << 32),
                "integral reals" => Value::Real((i << 20) as f64),
                _ => Value::text(format!("{prefix}{i}")),
            };
            let buckets: std::collections::HashSet<u64> = (0..4096)
                .map(|i| hasher.hash_one(GroupKey(vec![key(i)])) & 0xfff)
                .collect();
            assert!(buckets.len() >= 2048, "{family}: {} buckets", buckets.len());
        }
    }

    /// Each map draws its own seed: the same key hashes differently in
    /// two maps.
    #[test]
    fn two_maps_hash_a_key_differently() {
        let key = GroupKey(vec![Value::Integer(42), Value::text("k")]);
        let (a, b) = (KeyState::default(), KeyState::default());
        assert_ne!(a.hash_one(&key), b.hash_one(&key));
        assert_eq!(a.hash_one(&key), a.clone().hash_one(&key));
    }

    /// The probe buffer refilled in place equals a fresh one-value key.
    #[test]
    fn set_single_refills_the_key_in_place() {
        let mut key = GroupKey(vec![Value::text("old"), Value::Integer(3)]);
        for v in [
            Value::text("a"),
            Value::Integer(1),
            Value::Null,
            Value::text("bc"),
        ] {
            key.set_single(&v);
            assert!(key.sql_eq(&GroupKey(vec![v.clone()])) && key.0.len() == 1);
        }
    }

    #[test]
    fn display_format() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Integer(42).to_string(), "42");
        assert_eq!(Value::Real(1.5).to_string(), "1.5");
        assert_eq!(Value::Real(2.0).to_string(), "2.0");
        assert_eq!(Value::text("hi").to_string(), "hi");
    }

    #[test]
    fn concat() {
        assert_eq!(
            Value::text("a").concat(&Value::Integer(1)),
            Value::text("a1")
        );
        assert!(Value::text("a").concat(&Value::Null).is_null());
    }
}
