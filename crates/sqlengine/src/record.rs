//! Row ↔ byte-record serialization.
//!
//! Records are stored in slotted heap pages and B-tree leaves. The format
//! is a column count followed by tagged values; integers use a varint so
//! typical TPC-H rows stay compact.

use crate::error::{Result, SqlError};
use crate::value::Value;

/// A row of values.
pub type Row = Vec<Value>;

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_REAL: u8 = 2;
const TAG_TEXT: u8 = 3;

/// Encode a row into `out`.
pub fn encode_row(row: &[Value], out: &mut Vec<u8>) {
    write_varint(row.len() as u64, out);
    for v in row {
        match v {
            Value::Null => out.push(TAG_NULL),
            Value::Integer(i) => {
                out.push(TAG_INT);
                write_varint(zigzag(*i), out);
            }
            Value::Real(r) => {
                out.push(TAG_REAL);
                out.extend_from_slice(&r.to_bits().to_le_bytes());
            }
            Value::Text(t) => {
                out.push(TAG_TEXT);
                write_varint(t.len() as u64, out);
                out.extend_from_slice(t.as_bytes());
            }
        }
    }
}

/// Encoded size of a row without allocating.
pub fn encoded_len(row: &[Value]) -> usize {
    let mut n = varint_len(row.len() as u64);
    for v in row {
        n += 1;
        n += match v {
            Value::Null => 0,
            Value::Integer(i) => varint_len(zigzag(*i)),
            Value::Real(_) => 8,
            Value::Text(t) => varint_len(t.len() as u64) + t.len(),
        };
    }
    n
}

/// Decode every column of a row from `bytes`.
pub fn decode_row(bytes: &[u8]) -> Result<Row> {
    let mut row = Vec::new();
    decode_row_into(bytes, None, &mut row)?;
    Ok(row)
}

/// Decode a row from `bytes` into `row`, reusing its allocations (a text
/// value overwrites the string already in its slot). `cols` marks the
/// columns to materialize, `None` meaning all of them; every other column
/// becomes NULL, so the row keeps the record's width and every compiled
/// offset still lands on its column. The walk stops after the last marked
/// column: the columns after it are NULL without being looked at, and an
/// unmarked text cell before it is skipped by its length, never
/// UTF-8-validated. Every cell the walk passes is bounds-checked. A
/// column count larger than the bytes left is corrupt — every column
/// takes at least its tag byte — and is refused before anything is
/// allocated.
pub fn decode_row_into(bytes: &[u8], cols: Option<&[bool]>, row: &mut Row) -> Result<()> {
    let mut pos = 0usize;
    let count = read_varint(bytes, &mut pos)?;
    if count > (bytes.len() - pos) as u64 {
        return Err(corrupt("column count exceeds record"));
    }
    let count = count as usize;
    let walked = cols.map_or(count, |c| {
        c.iter()
            .rposition(|&r| r)
            .map_or(0, |last| count.min(last + 1))
    });
    row.truncate(count);
    row.reserve(count - row.len());
    for i in 0..walked {
        let read = cols.is_none_or(|c| c.get(i).copied().unwrap_or(false));
        let tag = *bytes
            .get(pos)
            .ok_or_else(|| corrupt("truncated record (tag)"))?;
        pos += 1;
        let v = match tag {
            TAG_NULL => Value::Null,
            TAG_INT => {
                let raw = read_varint(bytes, &mut pos)?;
                if read {
                    Value::Integer(unzigzag(raw))
                } else {
                    Value::Null
                }
            }
            TAG_REAL => {
                let raw = take(bytes, &mut pos, 8, "real")?;
                if read {
                    Value::Real(f64::from_le_bytes(raw.try_into().unwrap_or_default()))
                } else {
                    Value::Null
                }
            }
            TAG_TEXT => {
                let len = read_varint(bytes, &mut pos)?;
                let raw = take(bytes, &mut pos, len, "text")?;
                if !read {
                    Value::Null
                } else {
                    let text = std::str::from_utf8(raw)
                        .map_err(|_| corrupt("record text is not UTF-8"))?;
                    if let Some(Value::Text(s)) = row.get_mut(i) {
                        s.clear();
                        s.push_str(text);
                        continue;
                    }
                    Value::Text(text.to_owned())
                }
            }
            t => return Err(corrupt(&format!("bad value tag {t}"))),
        };
        match row.get_mut(i) {
            Some(slot) => *slot = v,
            None => row.push(v),
        }
    }
    // The unwalked tail is NULL, filled in only after the walked prefix
    // has put every value at its own offset. (Overwriting the reused
    // slots measured faster than truncating and re-growing the row.)
    for slot in row.iter_mut().skip(walked) {
        *slot = Value::Null;
    }
    row.resize(count, Value::Null);
    Ok(())
}

/// The next `len` bytes at `pos`, advancing past them.
fn take<'a>(bytes: &'a [u8], pos: &mut usize, len: u64, what: &str) -> Result<&'a [u8]> {
    let end = usize::try_from(len)
        .ok()
        .and_then(|len| pos.checked_add(len))
        .filter(|&end| end <= bytes.len())
        .ok_or_else(|| corrupt(&format!("truncated record ({what})")))?;
    let raw = &bytes[*pos..end];
    *pos = end;
    Ok(raw)
}

fn corrupt(msg: &str) -> SqlError {
    SqlError::Invalid(format!("corrupt record: {msg}"))
}

fn zigzag(i: i64) -> u64 {
    ((i << 1) ^ (i >> 63)) as u64
}

fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

fn write_varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos).ok_or_else(|| corrupt("truncated varint"))?;
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(corrupt("varint too long"));
        }
    }
}

/// Encode values as an order-preserving byte key for B-tree indexes:
/// comparing encoded keys with `memcmp` matches [`Value::total_cmp`]
/// lexicographically per column.
pub fn encode_index_key(values: &[Value], out: &mut Vec<u8>) {
    for v in values {
        match v {
            Value::Null => out.push(0x00),
            // Integers and reals share one numeric key space (both ordered
            // as f64) so `1` and `1.0` compare equal, matching
            // `Value::total_cmp`. Integers beyond 2^53 may collide in the
            // key space; executors always re-verify predicates on fetched
            // rows, so collisions cost a re-check, never a wrong answer.
            Value::Integer(i) => {
                out.push(0x01);
                out.extend_from_slice(&f64_key(*i as f64).to_be_bytes());
            }
            Value::Real(r) => {
                out.push(0x01);
                out.extend_from_slice(&f64_key(*r).to_be_bytes());
            }
            Value::Text(t) => {
                out.push(0x02);
                // Escape 0x00 so the terminator is unambiguous.
                for &b in t.as_bytes() {
                    if b == 0 {
                        out.extend_from_slice(&[0x00, 0xff]);
                    } else {
                        out.push(b);
                    }
                }
                out.extend_from_slice(&[0x00, 0x00]);
            }
        }
    }
}

/// Order-preserving 64-bit key for a float (`-0.0` normalized to `0.0`).
fn f64_key(r: f64) -> u64 {
    let r = if r == 0.0 { 0.0 } else { r };
    let bits = r.to_bits();
    if r >= 0.0 {
        bits ^ (1 << 63)
    } else {
        !bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(row: Row) {
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        assert_eq!(buf.len(), encoded_len(&row));
        assert_eq!(decode_row(&buf).unwrap(), row);
    }

    #[test]
    fn encode_decode_roundtrip() {
        roundtrip(vec![]);
        roundtrip(vec![Value::Null]);
        roundtrip(vec![
            Value::Integer(0),
            Value::Integer(-1),
            Value::Integer(i64::MAX),
            Value::Integer(i64::MIN),
        ]);
        roundtrip(vec![
            Value::Real(3.25),
            Value::Real(-0.0),
            Value::Real(f64::MAX),
        ]);
        roundtrip(vec![
            Value::text(""),
            Value::text("hello world"),
            Value::Null,
        ]);
        roundtrip(vec![
            Value::Integer(42),
            Value::text("UserB"),
            Value::Real(1.5),
            Value::Null,
        ]);
    }

    #[test]
    fn truncated_records_error() {
        let mut buf = Vec::new();
        encode_row(&[Value::text("hello")], &mut buf);
        for cut in 0..buf.len() {
            assert!(decode_row(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn hostile_column_count_is_refused_before_allocating() {
        // Claims 2^32 columns in a 5-byte cell.
        assert!(decode_row(&[0xff, 0xff, 0xff, 0xff, 0x0f]).is_err());
        let mut row = Vec::new();
        let err = decode_row_into(&[0xff, 0xff, 0xff, 0xff, 0x0f], Some(&[]), &mut row);
        assert!(err.is_err() && row.is_empty());
    }

    /// `[7, 'kept', 2.5, 'skipped']`: columns end at bytes 3, 9, 18, 27.
    fn four_columns() -> (Row, Vec<u8>) {
        let full = vec![
            Value::Integer(7),
            Value::text("kept"),
            Value::Real(2.5),
            Value::text("skipped"),
        ];
        let mut buf = Vec::new();
        encode_row(&full, &mut buf);
        assert_eq!(buf.len(), 27);
        (full, buf)
    }

    /// The decoder walks up to the last column it reads and no further:
    /// unread columns are NULL, an unread text cell before that point is
    /// bounds-checked but not UTF-8-validated, and nothing after it is
    /// looked at.
    #[test]
    fn unread_columns_decode_as_null_and_are_still_checked() {
        let (full, buf) = four_columns();
        let middle: &[bool] = &[false, true, false, false];
        let kept = vec![Value::Null, Value::text("kept"), Value::Null, Value::Null];

        // A reused buffer shorter or longer than the record still gets
        // every value at its own offset, and the record's width.
        for old in [
            vec![Value::text("old buffer")],
            vec![Value::text("old"); 6],
            Vec::new(),
        ] {
            let mut row = old;
            decode_row_into(&buf, Some(middle), &mut row).unwrap();
            assert_eq!(row, kept);
            decode_row_into(&buf, None, &mut row).unwrap();
            assert_eq!(row, full);
            decode_row_into(&buf, Some(&[false, false, false, true]), &mut row).unwrap();
            assert_eq!(row[3], Value::text("skipped"));
            assert!(row[..3].iter().all(Value::is_null));
        }
        let mut row = Row::new();
        decode_row_into(&buf, Some(&[]), &mut row).unwrap();
        assert_eq!(row, vec![Value::Null; 4]);

        // Invalid UTF-8 in an unread cell before the last read column
        // decodes as NULL; the same cell read is an error.
        let mut bad = buf.clone();
        bad[5] = 0xff; // inside 'kept'
        decode_row_into(&bad, Some(&[false, false, true]), &mut row).unwrap();
        assert_eq!(
            row,
            vec![Value::Null, Value::Null, Value::Real(2.5), Value::Null]
        );
        let err = decode_row_into(&bad, Some(middle), &mut row).unwrap_err();
        assert!(err.to_string().contains("not UTF-8"), "{err}");

        // Every cut that loses a byte of the last read column, or of any
        // column before it, errors; every cut after that column decodes.
        // (Each end here leaves at least one byte per claimed column, so
        // the count check passes.)
        for (mask, end) in [
            (Some(middle), 9),
            (Some(&[false, false, true][..]), 18),
            (None, 27),
        ] {
            for cut in 0..=buf.len() {
                let got = decode_row_into(&buf[..cut], mask, &mut row);
                assert_eq!(got.is_ok(), cut >= end, "cut at {cut} under {mask:?}");
            }
        }

        // An empty set still refuses a hostile count before allocating.
        let mut fresh = Row::new();
        assert!(decode_row_into(&[0xff, 0xff, 0xff, 0xff, 0x0f], Some(&[]), &mut fresh).is_err());
        assert_eq!(fresh.capacity(), 0);
    }

    /// Every single-byte overwrite of a record, under every kind of
    /// column set, decodes to the claimed width or errors — never panics.
    #[test]
    fn overwritten_bytes_decode_or_error_under_every_column_set() {
        let (_, buf) = four_columns();
        let masks: [Option<&[bool]>; 4] =
            [None, Some(&[]), Some(&[true, true]), Some(&[false, true])];
        let mut row = Row::new();
        for at in 0..buf.len() {
            for byte in 0..=255u8 {
                let mut bytes = buf.clone();
                bytes[at] = byte;
                let claimed = read_varint(&bytes, &mut 0).unwrap();
                for mask in masks {
                    if decode_row_into(&bytes, mask, &mut row).is_ok() {
                        assert_eq!(row.len() as u64, claimed, "byte {byte:#04x} at {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for i in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(i)), i);
        }
    }

    #[test]
    fn index_key_order_matches_value_order() {
        let values = vec![
            Value::Null,
            Value::Integer(-10),
            Value::Integer(0),
            Value::Real(0.5),
            Value::Integer(3),
            Value::Real(1e9),
            Value::text(""),
            Value::text("a"),
            Value::text("ab"),
            Value::text("b"),
        ];
        for a in &values {
            for b in &values {
                let (mut ka, mut kb) = (Vec::new(), Vec::new());
                encode_index_key(std::slice::from_ref(a), &mut ka);
                encode_index_key(std::slice::from_ref(b), &mut kb);
                assert_eq!(
                    ka.cmp(&kb),
                    a.total_cmp(b),
                    "key order mismatch for {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn index_key_prefix_property() {
        // A multi-column key sorts by first column, then second.
        let (mut k1, mut k2) = (Vec::new(), Vec::new());
        encode_index_key(&[Value::text("a"), Value::Integer(5)], &mut k1);
        encode_index_key(&[Value::text("ab"), Value::Integer(1)], &mut k2);
        assert!(k1 < k2);
    }

    #[test]
    fn index_key_embedded_nul_unambiguous() {
        let (mut k1, mut k2) = (Vec::new(), Vec::new());
        encode_index_key(&[Value::text("a\0b")], &mut k1);
        encode_index_key(&[Value::text("a")], &mut k2);
        assert!(k2 < k1);
    }
}
