//! The `.dat` reader against the line-based reader it replaced
//! (`common/dat_lines.rs`): seeded mutants of the committed `demo.dat`
//! must be accepted or rejected alike by `read_dat_raw` (one raw CSR),
//! `read_dat_rows` and `read_dat`, with the same rows and the same error
//! kind and message, and must never panic. A generated BMS1-sized file with unsorted and repeating rows,
//! CRLF endings, comments and a row longer than the buffer must read the
//! same at every buffer capacity.

mod common;

use std::io::{self, BufReader, Cursor};
use std::panic::{catch_unwind, AssertUnwindSafe};

use cahd::data::io::{read_dat, read_dat_raw, read_dat_rows, write_dat};
use cahd::data::profiles::bms1_config;
use cahd::data::QuestGenerator;
use common::dat_lines;

/// Mutants of `demo.dat`.
const MUTANTS: u64 = 10_000;

/// SplitMix64: a seeded, dependency-free stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Bytes a flip writes: digits, the separators `split_ascii_whitespace`
/// and `trim` disagree on (`\x0b`, `\x0c`), line ends, comment and sign
/// characters, and bytes that are not UTF-8 on their own.
const FLIP_BYTES: &[u8] = b"0123456789 \t\n\r\x0b\x0c#+-x.\xff\xc3\x80\x00";

/// Byte strings an insertion writes: non-ASCII whitespace (U+00A0,
/// U+2003, U+FEFF), a lone continuation byte, CRLF, and comment lines.
const INSERTS: &[&[u8]] = &[
    "\u{a0}".as_bytes(),
    "\u{2003}".as_bytes(),
    "\u{feff}".as_bytes(),
    b"\x80",
    b"\xc3",
    b"\r\n",
    b"\n# note\n",
    b"\n\n",
    b" #",
];

/// Tokens a digit-run edit writes: the 9-digit fast-path edge, the `u32`
/// boundary, leading zeros and signs.
const ID_TOKENS: &[&str] = &[
    "0",
    "00",
    "007",
    "+7",
    "-0",
    "-1",
    "999999999",
    "1000000000",
    "0000000001",
    "4294967295",
    "4294967296",
    "18446744073709551616",
    "+",
    "1e3",
];

/// One to three edits of `doc`: byte flips, insertions, truncations,
/// deletions, splices of another piece of `doc`, and digit-run
/// replacements.
fn mutate(doc: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut bytes = doc.to_vec();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(bytes.len() + 1);
        match rng.below(7) {
            0 if at < bytes.len() => bytes[at] = FLIP_BYTES[rng.below(FLIP_BYTES.len())],
            1 => {
                let insert = INSERTS[rng.below(INSERTS.len())];
                bytes.splice(at..at, insert.iter().copied());
            }
            2 => bytes.truncate(at),
            3 => {
                let end = (at + 1 + rng.below(16)).min(bytes.len());
                bytes.drain(at.min(end)..end);
            }
            4 => {
                let from = rng.below(doc.len());
                let to = (from + 1 + rng.below(64)).min(doc.len());
                bytes.splice(at..at, doc[from..to].iter().copied());
            }
            _ => {
                let runs = digit_runs(&bytes);
                if runs.is_empty() {
                    continue;
                }
                let (start, end) = runs[rng.below(runs.len())];
                let token: Vec<u8> = if rng.below(2) == 0 {
                    ID_TOKENS[rng.below(ID_TOKENS.len())].as_bytes().to_vec()
                } else {
                    (0..1 + rng.below(25))
                        .map(|_| b'0' + rng.below(10) as u8)
                        .collect()
                };
                bytes.splice(start..end, token);
            }
        }
    }
    bytes
}

fn digit_runs(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit() {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            runs.push((start, i));
        } else {
            i += 1;
        }
    }
    runs
}

/// An error as the comparison sees it: kind and message.
fn verdict<T>(r: io::Result<T>) -> Result<T, (io::ErrorKind, String)> {
    r.map_err(|e| (e.kind(), e.to_string()))
}

/// [`read_dat_raw`] with its CSR rows copied out, to compare with the
/// nested rows of the other readers.
fn raw_rows<R: io::BufRead>(reader: R) -> io::Result<(Vec<Vec<u32>>, usize)> {
    read_dat_raw(reader)
        .map(|(raw, inferred)| (raw.iter().map(<[u32]>::to_vec).collect(), inferred))
}

/// How the mutants fared.
#[derive(Debug, Default)]
struct Tally {
    accepted: usize,
    utf8_errors: usize,
    id_errors: usize,
}

#[test]
fn dat_mutants_read_like_the_line_reader() {
    let doc = std::fs::read("fixtures/demo.dat").unwrap();
    let mut rng = Rng(20);
    let mut tally = Tally::default();
    for i in 0..MUTANTS {
        let bytes = mutate(&doc, &mut rng);
        // A small buffer makes lines straddle `fill_buf` refills.
        let capacity = [8192, 2, 7, 64][rng.below(4)];
        let n_items = [None, Some(10), Some(40)][rng.below(3)];
        let reader = || BufReader::with_capacity(capacity, Cursor::new(bytes.as_slice()));
        let show = || String::from_utf8_lossy(&bytes).into_owned();

        let rows = catch_unwind(AssertUnwindSafe(|| verdict(read_dat_rows(reader()))))
            .unwrap_or_else(|_| panic!("mutant {i} panics read_dat_rows: {:?}", show()));
        assert_eq!(
            rows,
            verdict(dat_lines::read_dat_rows(reader())),
            "read_dat_rows, mutant {i}: {:?}",
            show()
        );
        let raw = catch_unwind(AssertUnwindSafe(|| verdict(raw_rows(reader()))))
            .unwrap_or_else(|_| panic!("mutant {i} panics read_dat_raw: {:?}", show()));
        assert_eq!(raw, rows, "read_dat_raw, mutant {i}: {:?}", show());
        let set = catch_unwind(AssertUnwindSafe(|| verdict(read_dat(reader(), n_items))))
            .unwrap_or_else(|_| panic!("mutant {i} panics read_dat: {:?}", show()));
        assert_eq!(
            set,
            verdict(dat_lines::read_dat(reader(), n_items)),
            "read_dat({n_items:?}), mutant {i}: {:?}",
            show()
        );
        match rows {
            Ok(_) => tally.accepted += 1,
            Err((_, msg)) if msg.contains("UTF-8") => tally.utf8_errors += 1,
            Err(_) => tally.id_errors += 1,
        }
    }
    // Every verdict occurs often enough for the comparison to mean
    // something.
    let n = MUTANTS as usize;
    for count in [tally.accepted, tally.utf8_errors, tally.id_errors] {
        assert!(count >= n / 20, "{tally:?}");
    }
}

#[test]
fn edge_lines_read_like_the_line_reader() {
    let cases: &[&[u8]] = &[
        b"",
        b"\n",
        b"1 2\r\n3\r\n",
        b"1 2",
        b"  # comment\n5",
        b"#\n\n\n7 7 7\n",
        b"4294967295\n",
        b"4294967296\n",
        b"999999999 1000000000\n",
        b"+5 007\n",
        b"1\x0b2\n",
        b"1\x0c2\n",
        b"\x0b1 2\x0b\n",
        "1\u{a0}2\n".as_bytes(),
        "\u{a0}1 2\u{a0}\n".as_bytes(),
        "\u{feff}1 2\n".as_bytes(),
        b"1 2\n\xff\n",
        b"1 \xc3\n",
        b"1 x\n\xff\n",
        b"-1\n",
        b"1 2 3 \t 4\n",
    ];
    for &case in cases {
        let reader = || Cursor::new(case);
        let show = String::from_utf8_lossy(case);
        assert_eq!(
            verdict(read_dat_rows(reader())),
            verdict(dat_lines::read_dat_rows(reader())),
            "{show:?}"
        );
        assert_eq!(
            verdict(raw_rows(reader())),
            verdict(dat_lines::read_dat_rows(reader())),
            "{show:?}"
        );
        assert_eq!(
            verdict(read_dat(reader(), None)),
            verdict(dat_lines::read_dat(reader(), None)),
            "{show:?}"
        );
    }
}

#[test]
fn bms1_sized_file_reads_like_the_line_reader() {
    let data = QuestGenerator::new(bms1_config(0.25), 7).generate();
    let nonempty = data.iter().filter(|t| !t.is_empty()).count();
    assert!(nonempty > 14_000, "{nonempty}");
    let mut clean = Vec::new();
    write_dat(&mut clean, &data).unwrap();
    // The generated file, roughened the ways real `.dat` files are.
    let mut doc: Vec<u8> = Vec::new();
    for (i, line) in clean.split_inclusive(|&b| b == b'\n').enumerate() {
        let ids: Vec<&[u8]> = line[..line.len() - 1].split(|&b| b == b' ').collect();
        let mut row: Vec<&[u8]> = ids.clone();
        if i % 7 == 3 {
            row.reverse();
        }
        if i % 11 == 5 && !ids[0].is_empty() {
            row.push(ids[0]);
        }
        if i % 500 == 0 {
            doc.extend_from_slice(format!("# block {}\n", i / 500).as_bytes());
        }
        if i == 7_000 {
            // One row longer than the default 8 KiB buffer, unsorted
            // and repeating ids.
            let long: Vec<String> = (0..2_500).map(|j| ((j * 37) % 1_200).to_string()).collect();
            doc.extend_from_slice(long.join(" ").as_bytes());
            doc.push(b'\n');
        }
        doc.extend_from_slice(&row.join(&b' '));
        doc.extend_from_slice(match i % 4 {
            0 => b"\r\n".as_slice(),
            1 => b" \t\n",
            _ => b"\n",
        });
    }
    assert!(doc.len() > 8192 * 10);
    for capacity in [8192, 64, 7] {
        let reader = || BufReader::with_capacity(capacity, Cursor::new(doc.as_slice()));
        let rows = verdict(read_dat_rows(reader()));
        assert_eq!(
            rows,
            verdict(dat_lines::read_dat_rows(reader())),
            "{capacity}"
        );
        assert_eq!(verdict(raw_rows(reader())), rows, "{capacity}");
        let (rows, _) = rows.unwrap();
        assert_eq!(rows.len(), nonempty + 1);
        assert!(rows.iter().any(|r| r.len() == 2_500));
        let set = verdict(read_dat(reader(), None));
        assert_eq!(
            set,
            verdict(dat_lines::read_dat(reader(), None)),
            "{capacity}"
        );
        assert!(set.unwrap().iter().any(|t| t.len() == 1_200));
    }
}
