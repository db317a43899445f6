//! Readers and writers for the standard `.dat` basket format.
//!
//! One transaction per line, whitespace-separated non-negative integer item
//! ids — the format of the FIMI repository and the original BMS-WebView
//! files, so real datasets can replace the synthetic profiles directly.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use cahd_sparse::CsrMatrix;

use crate::raw::RawRows;
use crate::transaction::{ItemId, TransactionSet};

/// Reads a `.dat` basket stream into *raw* rows, one CSR, plus the
/// inferred item universe (`0..=max_id`, or 0 when every row is empty).
///
/// Lines that are empty or start with `#` are skipped. Item ids must parse
/// as `u32`. Rows are kept exactly as written — unsorted, duplicates and
/// every id kept — so ingestion layers can distinguish a malformed row
/// from its normalized form ([`read_dat`] sorts and dedups).
pub fn read_dat_raw<R: BufRead>(reader: R) -> io::Result<(RawRows, usize)> {
    let mut indptr = vec![0usize];
    let mut ids: Vec<ItemId> = Vec::new();
    let inferred = for_each_row(reader, &mut ids, |ids, _| indptr.push(ids.len()))?;
    // The rows are kept for the whole run: no growth slack.
    indptr.shrink_to_fit();
    ids.shrink_to_fit();
    Ok((RawRows::from_parts(indptr, ids), inferred))
}

/// [`read_dat_raw`] with every row copied out into its own `Vec`.
pub fn read_dat_rows<R: BufRead>(reader: R) -> io::Result<(Vec<Vec<ItemId>>, usize)> {
    let (rows, inferred) = read_dat_raw(reader)?;
    Ok((rows.iter().map(<[ItemId]>::to_vec).collect(), inferred))
}

/// Reads a `.dat` basket stream. The item universe is `0..=max_id` unless
/// `n_items` forces a larger one.
///
/// Lines that are empty or start with `#` are skipped. Item ids must parse
/// as `u32`.
pub fn read_dat<R: BufRead>(reader: R, n_items: Option<usize>) -> io::Result<TransactionSet> {
    let mut indptr = vec![0usize];
    let mut indices: Vec<ItemId> = Vec::new();
    // Each row is scanned straight onto the end of `indices`; only a row
    // that is not strictly ascending is sorted and deduplicated in place.
    let inferred = for_each_row(reader, &mut indices, |indices, start| {
        let row = &mut indices[start..];
        if !row.is_sorted_by(|a, b| a < b) {
            row.sort_unstable();
            let mut kept = 1;
            for i in 1..row.len() {
                if row[i] != row[kept - 1] {
                    row[kept] = row[i];
                    kept += 1;
                }
            }
            indices.truncate(start + kept);
        }
        indptr.push(indices.len());
    })?;
    // The set is kept for the whole run: no growth slack.
    indptr.shrink_to_fit();
    indices.shrink_to_fit();
    let d = n_items.unwrap_or(0).max(inferred);
    let matrix = CsrMatrix::from_raw_parts(indptr.len() - 1, d, indptr, indices);
    Ok(TransactionSet::from_matrix(matrix))
}

/// The one `.dat` line loop: scans the ids of every transaction line onto
/// the end of `ids`, calls `row(ids, start)` with the row at
/// `ids[start..]` as written, and returns the inferred item universe.
///
/// The scanner works on the reader's own buffer, chunk by chunk. A line
/// of ASCII digits (runs of at most 9), spaces, tabs and `\r` is parsed
/// straight from the bytes: for such a line `trim` plus
/// `split_ascii_whitespace` yields exactly its digit runs. Every other
/// line — a comment, a sign, a longer token, `\x0b`/`\x0c`, non-ASCII or
/// invalid UTF-8 — is read through [`slow_line`], the `str` path of
/// [`BufRead::lines`]. A line that straddles a refill is copied into a
/// carry buffer first, so memory holds one chunk and one line.
fn for_each_row<R: BufRead>(
    mut reader: R,
    ids: &mut Vec<ItemId>,
    mut row: impl FnMut(&mut Vec<ItemId>, usize),
) -> io::Result<usize> {
    let mut scan = Scan::default();
    let mut carry: Vec<u8> = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            break;
        }
        let len = chunk.len();
        let mut rest = chunk;
        if !carry.is_empty() {
            match rest.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    carry.extend_from_slice(&rest[..=i]);
                    rest = &rest[i + 1..];
                    scan.lines(&carry, ids, &mut row)?;
                    carry.clear();
                }
                None => {
                    carry.extend_from_slice(rest);
                    rest = &[];
                }
            }
        }
        let complete = rest.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        scan.lines(&rest[..complete], ids, &mut row)?;
        carry.extend_from_slice(&rest[complete..]);
        reader.consume(len);
    }
    if !carry.is_empty() {
        // The last line has no `\n`; one more reads the same.
        carry.push(b'\n');
        scan.lines(&carry, ids, &mut row)?;
    }
    Ok(if scan.any_item {
        scan.max_id as usize + 1
    } else {
        0
    })
}

/// The line count and the largest id of the rows scanned so far.
#[derive(Default)]
struct Scan {
    lineno: usize,
    max_id: ItemId,
    any_item: bool,
}

impl Scan {
    /// Scans `block`, whole lines each ending in `\n`.
    fn lines(
        &mut self,
        block: &[u8],
        ids: &mut Vec<ItemId>,
        row: &mut impl FnMut(&mut Vec<ItemId>, usize),
    ) -> io::Result<()> {
        let mut at = 0;
        while at < block.len() {
            self.lineno += 1;
            let start = ids.len();
            let line = &block[at..];
            let (len, max) = match fast_line(line, ids) {
                Some(read) => read,
                None => {
                    ids.truncate(start);
                    let len = line
                        .iter()
                        .position(|&b| b == b'\n')
                        .map_or(line.len(), |i| i + 1);
                    (len, slow_line(&line[..len], self.lineno, ids)?)
                }
            };
            at += len;
            if ids.len() > start {
                self.max_id = self.max_id.max(max);
                self.any_item = true;
                row(ids, start);
            }
        }
        Ok(())
    }
}

/// Scans one line of `bytes` (ending in its `\n`) onto `ids` when it is
/// only digit runs of at most 9 digits — below `u32::MAX` by
/// construction — and spaces, tabs and `\r`: its length and largest id,
/// or `None` for the `str` path.
#[inline]
fn fast_line(bytes: &[u8], ids: &mut Vec<ItemId>) -> Option<(usize, ItemId)> {
    let mut max = 0;
    let mut i = 0;
    loop {
        let b = *bytes.get(i)?;
        i += 1;
        let d = b.wrapping_sub(b'0');
        if d < 10 {
            let (mut id, mut digits) = (ItemId::from(d), 1);
            loop {
                let d = bytes.get(i)?.wrapping_sub(b'0');
                if d >= 10 {
                    break;
                }
                if digits == 9 {
                    return None;
                }
                id = id * 10 + ItemId::from(d);
                digits += 1;
                i += 1;
            }
            ids.push(id);
            max = max.max(id);
            continue;
        }
        match b {
            b'\n' => return Some((i, max)),
            b' ' | b'\t' | b'\r' => {}
            _ => return None,
        }
    }
}

/// Reads one line the way [`BufRead::lines`] plus `trim` and
/// `split_ascii_whitespace` do, pushing its ids onto `ids`: the largest
/// id, or the error of the first bad token (`lineno` is 1-based).
fn slow_line(line: &[u8], lineno: usize, ids: &mut Vec<ItemId>) -> io::Result<ItemId> {
    let text = std::str::from_utf8(line).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )
    })?;
    let trimmed = text.trim();
    let mut max = 0;
    if trimmed.starts_with('#') {
        return Ok(max);
    }
    for tok in trimmed.split_ascii_whitespace() {
        let id = tok.parse().map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {lineno}: bad item id {tok:?}: {e}"),
            )
        })?;
        max = max.max(id);
        ids.push(id);
    }
    Ok(max)
}

/// Reads a `.dat` basket file from disk.
pub fn read_dat_file<P: AsRef<Path>>(
    path: P,
    n_items: Option<usize>,
) -> io::Result<TransactionSet> {
    read_dat(BufReader::new(File::open(path)?), n_items)
}

/// Writes a transaction set in `.dat` format: each row's ids in decimal,
/// space-separated, formatted into one reused line buffer.
pub fn write_dat<W: Write>(mut writer: W, data: &TransactionSet) -> io::Result<()> {
    let mut line: Vec<u8> = Vec::new();
    for txn in data.iter() {
        line.clear();
        for (i, &item) in txn.iter().enumerate() {
            if i > 0 {
                line.push(b' ');
            }
            push_decimal(&mut line, item);
        }
        line.push(b'\n');
        writer.write_all(&line)?;
    }
    Ok(())
}

/// Appends `id` in decimal, as `{id}` formats it.
fn push_decimal(out: &mut Vec<u8>, mut id: ItemId) {
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (id % 10) as u8;
        id /= 10;
        if id == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Writes a transaction set to a `.dat` file on disk.
pub fn write_dat_file<P: AsRef<Path>>(path: P, data: &TransactionSet) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write_dat(&mut w, data)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_in_memory() {
        let t = TransactionSet::from_rows(&[vec![3, 1], vec![], vec![2]], 4);
        let mut buf = Vec::new();
        write_dat(&mut buf, &t).unwrap();
        assert_eq!(String::from_utf8_lossy(&buf), "1 3\n\n2\n");
        // Note: empty lines are skipped on read, so re-read drops empty
        // transactions — callers keep them only through the binary model.
        let back = read_dat(Cursor::new(&buf), Some(4)).unwrap();
        assert_eq!(back.n_transactions(), 2);
        assert_eq!(back.transaction(0), &[1, 3]);
        assert_eq!(back.transaction(1), &[2]);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let src = "# header\n\n5 2 5\n";
        let t = read_dat(Cursor::new(src), None).unwrap();
        assert_eq!(t.n_transactions(), 1);
        assert_eq!(t.transaction(0), &[2, 5]);
        assert_eq!(t.n_items(), 6);
    }

    #[test]
    fn n_items_override_grows_universe() {
        let t = read_dat(Cursor::new("1\n"), Some(100)).unwrap();
        assert_eq!(t.n_items(), 100);
        // But the inferred size wins when larger.
        let t2 = read_dat(Cursor::new("7\n"), Some(2)).unwrap();
        assert_eq!(t2.n_items(), 8);
    }

    #[test]
    fn bad_token_is_an_error() {
        let err = read_dat(Cursor::new("1 x 2\n"), None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn file_roundtrip() {
        let t = TransactionSet::from_rows(&[vec![0, 9], vec![4]], 10);
        let path = std::env::temp_dir().join(format!("cahd_io_test_{}.dat", std::process::id()));
        write_dat_file(&path, &t).unwrap();
        let back = read_dat_file(&path, Some(10)).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, t);
    }

    #[test]
    fn raw_rows_keep_duplicates_and_order() {
        let src = "# header\n\n5 2 5\n7 1\n";
        let (rows, inferred) = read_dat_rows(Cursor::new(src)).unwrap();
        assert_eq!(rows, vec![vec![5, 2, 5], vec![7, 1]]);
        assert_eq!(inferred, 8);
        let (raw, raw_inferred) = read_dat_raw(Cursor::new(src)).unwrap();
        assert_eq!(raw.into_parts(), (vec![0, 3, 5], vec![5, 2, 5, 7, 1]));
        assert_eq!(raw_inferred, 8);
        // The normalizing reader sorts and dedups the same stream.
        let t = read_dat(Cursor::new("5 2 5\n"), None).unwrap();
        assert_eq!(t.transaction(0), &[2, 5]);
    }

    #[test]
    fn ids_past_the_fast_path_parse_like_str() {
        let t = read_dat(Cursor::new("+5 007 999999999 4294967295\r\n"), None).unwrap();
        assert_eq!(t.transaction(0), &[5, 7, 999_999_999, 4_294_967_295]);
        let err = read_dat(Cursor::new("1\n4294967296\n"), None).unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 2: bad item id \"4294967296\": number too large to fit in target type"
        );
        let err = read_dat_rows(Cursor::new(b"1\n2 \xff\n".as_slice())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "stream did not contain valid UTF-8");
    }

    #[test]
    fn read_dat_builds_the_normalized_csr() {
        let t = read_dat(Cursor::new("3 1 3\n\n2 0\n5\n"), None).unwrap();
        let m = t.matrix();
        assert_eq!(m.indptr(), &[0, 2, 4, 5]);
        assert_eq!(m.indices(), &[1, 3, 0, 2, 5]);
        assert_eq!(
            t,
            TransactionSet::from_rows(&[vec![3, 1], vec![2, 0], vec![5]], 6)
        );
    }

    #[test]
    fn write_dat_matches_the_write_macro_formatter() {
        let mut cfg = crate::profiles::bms1_config(0.25);
        cfg.n_transactions = 2_000;
        let mut rows: Vec<Vec<ItemId>> = crate::QuestGenerator::new(cfg, 7)
            .generate()
            .iter()
            .map(<[ItemId]>::to_vec)
            .collect();
        // Every digit count a `u32` can take, and an empty row.
        rows.push(vec![0, 9, 10, 99, 100, 65_535, 999_999_999, 1_000_000_000]);
        rows.push(vec![u32::MAX - 1, u32::MAX]);
        rows.push(vec![]);
        let data = TransactionSet::from_rows(&rows, 1 << 32);
        let mut want = Vec::new();
        for txn in data.iter() {
            let mut first = true;
            for &item in txn {
                if !first {
                    want.write_all(b" ").unwrap();
                }
                first = false;
                write!(want, "{item}").unwrap();
            }
            want.write_all(b"\n").unwrap();
        }
        let mut got = Vec::new();
        write_dat(&mut got, &data).unwrap();
        assert_eq!(got, want);
        let back = read_dat(Cursor::new(&got), Some(data.n_items())).unwrap();
        assert_eq!(back.n_transactions(), data.n_transactions() - 1);
        assert!(back.iter().eq(data.iter().filter(|t| !t.is_empty())));
    }

    #[test]
    fn empty_input() {
        let t = read_dat(Cursor::new(""), None).unwrap();
        assert_eq!(t.n_transactions(), 0);
        assert_eq!(t.n_items(), 0);
    }
}
