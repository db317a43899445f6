//! The `.dat` reader as it was before it read into one reused byte
//! buffer: one `String` per line through `BufRead::lines`, one `Vec` per
//! row, then `TransactionSet::from_rows`. Kept as a test oracle for the
//! production reader: every stream must be accepted or rejected alike,
//! with the same rows and the same error kind and message.

use std::io::{self, BufRead};

use cahd::data::{ItemId, TransactionSet};

/// Raw rows as written plus the inferred universe (`0..=max_id`).
pub fn read_dat_rows<R: BufRead>(reader: R) -> io::Result<(Vec<Vec<ItemId>>, usize)> {
    let mut rows: Vec<Vec<ItemId>> = Vec::new();
    let mut max_id: u64 = 0;
    let mut any_item = false;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut row: Vec<ItemId> = Vec::new();
        for tok in trimmed.split_ascii_whitespace() {
            let id: u32 = tok.parse().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: bad item id {tok:?}: {e}", lineno + 1),
                )
            })?;
            max_id = max_id.max(id as u64);
            any_item = true;
            row.push(id);
        }
        rows.push(row);
    }
    let inferred = if any_item { max_id as usize + 1 } else { 0 };
    Ok((rows, inferred))
}

/// The normalized set over `0..=max_id`, or the larger `n_items`.
pub fn read_dat<R: BufRead>(reader: R, n_items: Option<usize>) -> io::Result<TransactionSet> {
    let (rows, inferred) = read_dat_rows(reader)?;
    let d = n_items.unwrap_or(0).max(inferred);
    Ok(TransactionSet::from_rows(&rows, d))
}
