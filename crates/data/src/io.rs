//! Readers and writers for the standard `.dat` basket format.
//!
//! One transaction per line, whitespace-separated non-negative integer item
//! ids — the format of the FIMI repository and the original BMS-WebView
//! files, so real datasets can replace the synthetic profiles directly.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use cahd_sparse::CsrMatrix;

use crate::transaction::{ItemId, TransactionSet};

/// Reads a `.dat` basket stream into *raw* rows plus the inferred item
/// universe (`0..=max_id`, or 0 when every row is empty).
///
/// Lines that are empty or start with `#` are skipped. Item ids must parse
/// as `u32`. Rows are returned exactly as written — unsorted, duplicates
/// kept — so ingestion layers can distinguish a malformed row from its
/// normalized form ([`crate::TransactionSet::from_rows`] sorts and dedups).
pub fn read_dat_rows<R: BufRead>(reader: R) -> io::Result<(Vec<Vec<ItemId>>, usize)> {
    let mut rows: Vec<Vec<ItemId>> = Vec::new();
    let inferred = for_each_row(reader, |row| rows.push(row.clone()))?;
    Ok((rows, inferred))
}

/// Reads a `.dat` basket stream. The item universe is `0..=max_id` unless
/// `n_items` forces a larger one.
///
/// Lines that are empty or start with `#` are skipped. Item ids must parse
/// as `u32`.
pub fn read_dat<R: BufRead>(reader: R, n_items: Option<usize>) -> io::Result<TransactionSet> {
    let mut indptr = vec![0usize];
    let mut indices: Vec<ItemId> = Vec::new();
    let inferred = for_each_row(reader, |row| {
        row.sort_unstable();
        row.dedup();
        indices.extend_from_slice(row);
        indptr.push(indices.len());
    })?;
    // The set is kept for the whole run: no growth slack.
    indptr.shrink_to_fit();
    indices.shrink_to_fit();
    let d = n_items.unwrap_or(0).max(inferred);
    let matrix = CsrMatrix::from_raw_parts(indptr.len() - 1, d, indptr, indices);
    Ok(TransactionSet::from_matrix(matrix))
}

/// The one `.dat` line loop: calls `row` with the ids of every
/// transaction line as written (in one reused `Vec`) and returns the
/// inferred item universe. Lines are read into one reused byte buffer and
/// checked as UTF-8 like [`BufRead::lines`] does.
fn for_each_row<R: BufRead>(
    mut reader: R,
    mut row: impl FnMut(&mut Vec<ItemId>),
) -> io::Result<usize> {
    let mut line: Vec<u8> = Vec::new();
    let mut ids: Vec<ItemId> = Vec::new();
    let mut max_id: u64 = 0;
    let mut any_item = false;
    let mut lineno = 0usize;
    loop {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            break;
        }
        lineno += 1;
        let text = std::str::from_utf8(&line).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
        })?;
        let trimmed = text.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        ids.clear();
        for tok in trimmed.split_ascii_whitespace() {
            let id = parse_id(tok).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {lineno}: bad item id {tok:?}: {e}"),
                )
            })?;
            max_id = max_id.max(id as u64);
            any_item = true;
            ids.push(id);
        }
        row(&mut ids);
    }
    Ok(if any_item { max_id as usize + 1 } else { 0 })
}

/// Parses one id token: at most 9 ASCII digits straight from the bytes
/// (below `u32::MAX` by construction), anything else through
/// `str::parse`, which owns the accepted forms and the error texts.
fn parse_id(tok: &str) -> Result<ItemId, std::num::ParseIntError> {
    let bytes = tok.as_bytes();
    if !bytes.is_empty() && bytes.len() <= 9 && bytes.iter().all(u8::is_ascii_digit) {
        return Ok(bytes
            .iter()
            .fold(0, |id, &b| id * 10 + ItemId::from(b - b'0')));
    }
    tok.parse()
}

/// Reads a `.dat` basket file from disk.
pub fn read_dat_file<P: AsRef<Path>>(
    path: P,
    n_items: Option<usize>,
) -> io::Result<TransactionSet> {
    read_dat(BufReader::new(File::open(path)?), n_items)
}

/// Writes a transaction set in `.dat` format.
pub fn write_dat<W: Write>(mut writer: W, data: &TransactionSet) -> io::Result<()> {
    for txn in data.iter() {
        let mut first = true;
        for &item in txn {
            if !first {
                writer.write_all(b" ")?;
            }
            first = false;
            write!(writer, "{item}")?;
        }
        writer.write_all(b"\n")?;
    }
    Ok(())
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
        let (rows, inferred) = read_dat_rows(Cursor::new("# header\n\n5 2 5\n7 1\n")).unwrap();
        assert_eq!(rows, vec![vec![5, 2, 5], vec![7, 1]]);
        assert_eq!(inferred, 8);
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
    fn empty_input() {
        let t = read_dat(Cursor::new(""), None).unwrap();
        assert_eq!(t.n_transactions(), 0);
        assert_eq!(t.n_items(), 0);
    }
}
