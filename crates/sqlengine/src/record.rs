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
    decode_row_into(bytes, None, Cursor::START, Walk::ALL, &mut row)?;
    Ok(row)
}

/// Where the walk of one record stands between two stages of
/// [`decode_row_into`].
#[derive(Debug, Clone, Copy)]
pub struct Cursor {
    /// Byte offset of the next cell; 0 before the column count is read.
    pos: usize,
    /// The next column to walk.
    col: usize,
    /// Where the walk ends: one past the last column the set marks.
    end: usize,
}

impl Cursor {
    /// A walk not yet begun.
    pub const START: Cursor = Cursor {
        pos: 0,
        col: 0,
        end: 0,
    };
}

/// What one stage of [`decode_row_into`] does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Walk {
    /// Materialize the marked columns before this one. A stage that
    /// reaches the walk's end also sets the unwalked tail to NULL, leaving
    /// the row a one-stage decode leaves.
    Upto(usize),
    /// Walk on to the end checking every cell as [`Walk::Upto`] would —
    /// tag, bounds, and UTF-8 for a marked text cell — and materialize
    /// nothing: the row is left as it is.
    Check,
}

impl Walk {
    /// The whole walk in one stage.
    pub const ALL: Walk = Walk::Upto(usize::MAX);
}

/// Decode a row from `bytes` into `row`, reusing its allocations (a text
/// value overwrites the string already in its slot), in one stage or
/// several: each stage goes on from the cursor the one before returned
/// (the first from [`Cursor::START`]) as `walk` says. `cols` marks the
/// columns to materialize, `None` meaning all of them; every other column
/// becomes NULL, so the row keeps the record's width and every compiled
/// offset still lands on its column. The walk stops after the last marked
/// column: the columns after it are NULL without being looked at, and an
/// unmarked text cell before it is skipped by its length, never
/// UTF-8-validated. Every cell the walk passes is bounds-checked. A
/// column count larger than the bytes left is corrupt — every column
/// takes at least its tag byte — and is refused before anything is
/// allocated. Until a stage reaches the end, the slots after the last
/// column walked hold whatever the buffer held.
// Inlined into each caller, whose `walk` is known there: a check-only
// stage then compiles to the bare walk (measured ≈ 20 % off a hash join
// whose keys mostly miss, against one out-of-line copy for all stages).
#[inline(always)]
pub fn decode_row_into(
    bytes: &[u8],
    cols: Option<&[bool]>,
    mut at: Cursor,
    walk: Walk,
    row: &mut Row,
) -> Result<Cursor> {
    if at.pos == 0 {
        let count = read_varint(bytes, &mut at.pos)?;
        if count > (bytes.len() - at.pos) as u64 {
            return Err(corrupt("column count exceeds record"));
        }
        let count = count as usize;
        at.end = cols.map_or(count, |c| {
            c.iter()
                .rposition(|&r| r)
                .map_or(0, |last| count.min(last + 1))
        });
        if walk != Walk::Check {
            row.resize(count, Value::Null);
        }
    }
    let (stop, store) = match walk {
        Walk::Upto(col) => (col.clamp(at.col, at.end), true),
        Walk::Check => (at.end, false),
    };
    // The offset is a local while the walk runs: kept in a register, not
    // written back through `at` at every cell.
    let mut pos = at.pos;
    for i in at.col..stop {
        let marked = cols.is_none_or(|c| c.get(i).copied().unwrap_or(false));
        let read = marked && store;
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
                if !marked {
                    Value::Null
                } else {
                    let text = std::str::from_utf8(raw)
                        .map_err(|_| corrupt("record text is not UTF-8"))?;
                    if !store {
                        continue;
                    }
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
        if let Some(slot) = row.get_mut(i).filter(|_| store) {
            *slot = v;
        }
    }
    (at.pos, at.col) = (pos, stop);
    // The unwalked tail is NULL, filled in only once the walked prefix
    // has put every value at its own offset. (Overwriting the reused
    // slots measured faster than truncating and re-growing the row.)
    if store && stop == at.end {
        for slot in &mut row[stop..] {
            *slot = Value::Null;
        }
    }
    Ok(at)
}

/// A record decoded by [`decode_row_into`] up to its gate column, whose
/// walk goes on either way: to materialize the rest of the column set, or
/// to check it.
pub(crate) struct GatedRow<'a> {
    bytes: &'a [u8],
    cols: Option<&'a [bool]>,
    at: Cursor,
    row: &'a mut Row,
}

impl<'a> GatedRow<'a> {
    /// Decode `bytes` into `row` up to column `gate` of `cols`; a gate at
    /// or past the last marked column decodes the row whole.
    #[inline]
    pub(crate) fn decode(
        bytes: &'a [u8],
        cols: Option<&'a [bool]>,
        gate: usize,
        row: &'a mut Row,
    ) -> Result<Self> {
        let at = decode_row_into(bytes, cols, Cursor::START, Walk::Upto(gate), row)?;
        Ok(GatedRow {
            bytes,
            cols,
            at,
            row,
        })
    }

    /// The row so far: every column before the gate as the whole row has
    /// it. Slots past the gate are stale until [`GatedRow::rest`].
    #[inline]
    pub(crate) fn gate(&self) -> &Row {
        self.row
    }

    /// The whole row: the walk goes on and materializes the rest.
    #[inline]
    pub(crate) fn rest(&mut self) -> Result<&Row> {
        if self.at.col < self.at.end {
            self.at = decode_row_into(self.bytes, self.cols, self.at, Walk::ALL, self.row)?;
        }
        Ok(self.row)
    }

    /// Finish the walk checking only (nothing left after
    /// [`GatedRow::rest`]): every cell the column set reaches is checked
    /// whether the row was wanted or not.
    #[inline]
    pub(crate) fn check(self) -> Result<()> {
        if self.at.col < self.at.end {
            decode_row_into(self.bytes, self.cols, self.at, Walk::Check, self.row)?;
        }
        Ok(())
    }
}

/// The next `len` bytes at `pos`, advancing past them.
#[inline(always)]
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

#[inline(always)]
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

    /// The whole walk in one stage.
    fn decode_into(bytes: &[u8], cols: Option<&[bool]>, row: &mut Row) -> Result<()> {
        decode_row_into(bytes, cols, Cursor::START, Walk::ALL, row).map(drop)
    }

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
        let err = decode_into(&[0xff, 0xff, 0xff, 0xff, 0x0f], Some(&[]), &mut row);
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
            decode_into(&buf, Some(middle), &mut row).unwrap();
            assert_eq!(row, kept);
            decode_into(&buf, None, &mut row).unwrap();
            assert_eq!(row, full);
            decode_into(&buf, Some(&[false, false, false, true]), &mut row).unwrap();
            assert_eq!(row[3], Value::text("skipped"));
            assert!(row[..3].iter().all(Value::is_null));
        }
        let mut row = Row::new();
        decode_into(&buf, Some(&[]), &mut row).unwrap();
        assert_eq!(row, vec![Value::Null; 4]);

        // Invalid UTF-8 in an unread cell before the last read column
        // decodes as NULL; the same cell read is an error.
        let mut bad = buf.clone();
        bad[5] = 0xff; // inside 'kept'
        decode_into(&bad, Some(&[false, false, true]), &mut row).unwrap();
        assert_eq!(
            row,
            vec![Value::Null, Value::Null, Value::Real(2.5), Value::Null]
        );
        let err = decode_into(&bad, Some(middle), &mut row).unwrap_err();
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
                let got = decode_into(&buf[..cut], mask, &mut row);
                assert_eq!(got.is_ok(), cut >= end, "cut at {cut} under {mask:?}");
            }
        }

        // An empty set still refuses a hostile count before allocating.
        let mut fresh = Row::new();
        assert!(decode_into(&[0xff, 0xff, 0xff, 0xff, 0x0f], Some(&[]), &mut fresh).is_err());
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
                    if decode_into(&bytes, mask, &mut row).is_ok() {
                        assert_eq!(row.len() as u64, claimed, "byte {byte:#04x} at {at}");
                    }
                }
            }
        }
    }

    /// A walk in two stages — up to a gate, then the rest read or only
    /// checked — ends as the one-stage walk does: the same row, and an
    /// error for exactly the records the one-stage walk refuses.
    #[test]
    fn a_staged_walk_ends_as_the_one_stage_walk() {
        let (_, buf) = four_columns();
        let masks: [Option<&[bool]>; 3] = [None, Some(&[false, true]), Some(&[true, false, true])];
        let stages = |bytes: &[u8], mask, gate, rest, row: &mut Row| {
            let at = decode_row_into(bytes, mask, Cursor::START, Walk::Upto(gate), row)?;
            decode_row_into(bytes, mask, at, rest, row)
        };
        for (mask, at, byte) in (masks.into_iter())
            .flat_map(|m| (0..buf.len()).map(move |at| (m, at)))
            .flat_map(|(m, at)| [0x00, 0x03, 0x07, 0x7f, 0xff].map(|b| (m, at, b)))
        {
            let mut bytes = buf.clone();
            bytes[at] = byte;
            let mut whole = Row::new();
            let want = decode_into(&bytes, mask, &mut whole).is_ok();
            for gate in 0..=5 {
                let mut row = vec![Value::text("stale"); 6];
                let read = stages(&bytes, mask, gate, Walk::ALL, &mut row);
                assert_eq!(read.is_ok(), want, "byte {byte:#04x} at {at}, gate {gate}");
                if want {
                    assert_eq!(row, whole);
                }
                let checked = stages(&bytes, mask, gate, Walk::Check, &mut row);
                assert_eq!(
                    checked.is_ok(),
                    want,
                    "byte {byte:#04x} at {at}, gate {gate}"
                );
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
