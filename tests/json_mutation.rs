//! The direct JSON reader against the tree-based reader it replaced
//! (`common/value_tree.rs`): seeded mutants of the committed release,
//! checkpoint and attack-curve fixtures must be accepted or rejected
//! alike, with the same value and the same error message, and must never
//! panic. A table pins the number and object edge cases to the values the
//! tree reader gave.

mod common;

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

use cahd::core::checkpoint::StreamingCheckpoint;
use cahd::core::{AnonymizedGroup, PublishedDataset};
use common::value_tree::{self, FromTree, Tree};
use serde_json::Value;

/// Mutants per fixture.
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

/// Bytes a flip writes: JSON structure, number and keyword characters,
/// escapes and a few strangers.
const FLIP_BYTES: &[u8] = b"{}[],:\"\\ \n\t0123456789-+.eEnultrfasx/#\x01";

/// Number tokens a digit-run edit writes: the 15-digit fast-path edge,
/// 2^53 and u64 boundaries, leading zeros, signs, fractions, exponents.
const NUMBER_TOKENS: &[&str] = &[
    "0",
    "-0",
    "01",
    "1.",
    "4.0",
    "1e3",
    "1E+2",
    "-1",
    "0.5",
    "1e400",
    "-",
    "1e",
    "999999999999999",
    "1000000000000000",
    "9007199254740993",
    "18446744073709551615",
    "18446744073709551616",
    "4294967296",
    "-9223372036854775809",
    "123456789012345678901234567890",
];

/// One to three edits of `doc`: byte flips, truncations, deletions,
/// splices from any fixture, and digit-run replacements.
fn mutate(doc: &[u8], donors: &[&[u8]], rng: &mut Rng) -> String {
    let mut bytes = doc.to_vec();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(bytes.len() + 1);
        match rng.below(6) {
            0 if at < bytes.len() => bytes[at] = FLIP_BYTES[rng.below(FLIP_BYTES.len())],
            1 => bytes.truncate(at),
            2 => {
                let end = (at + 1 + rng.below(16)).min(bytes.len());
                bytes.drain(at.min(end)..end);
            }
            3 | 4 => {
                let donor = donors[rng.below(donors.len())];
                let from = rng.below(donor.len());
                let to = (from + 1 + rng.below(64)).min(donor.len());
                // Splice in (3) or overwrite (4) with a piece of a fixture.
                let end = if rng.below(2) == 0 {
                    at
                } else {
                    (at + rng.below(64)).min(bytes.len())
                };
                bytes.splice(at..end, donor[from..to].iter().copied());
            }
            _ => {
                let runs: Vec<(usize, usize)> = digit_runs(&bytes);
                if runs.is_empty() {
                    continue;
                }
                let (start, end) = runs[rng.below(runs.len())];
                let token = if rng.below(2) == 0 {
                    NUMBER_TOKENS[rng.below(NUMBER_TOKENS.len())].to_string()
                } else {
                    (0..1 + rng.below(25))
                        .map(|_| char::from(b'0' + rng.below(10) as u8))
                        .collect()
                };
                bytes.splice(start..end, token.bytes());
            }
        }
    }
    // Flips and cuts keep the ASCII fixtures ASCII; the lossy conversion
    // only guards against a future multibyte fixture.
    String::from_utf8_lossy(&bytes).into_owned()
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

fn fixture(name: &str) -> Vec<u8> {
    std::fs::read(format!("fixtures/{name}")).unwrap()
}

/// Converts the oracle's tree to the shim's `Value`, node for node.
fn tree_to_value(t: Tree) -> Value {
    match t {
        Tree::Null => Value::Null,
        Tree::Bool(b) => Value::Bool(b),
        Tree::Num(n) => Value::Num(n),
        Tree::Str(s) => Value::Str(s),
        Tree::Array(items) => Value::Array(items.into_iter().map(tree_to_value).collect()),
        Tree::Object(entries) => Value::Object(
            entries
                .into_iter()
                .map(|(k, v)| (k, tree_to_value(v)))
                .collect(),
        ),
    }
}

/// How many mutants each reader accepted, and how many of the rejected
/// ones were syntactically valid (type errors).
#[derive(Debug, Default)]
struct Tally {
    accepted: usize,
    type_errors: usize,
}

/// Runs [`MUTANTS`] mutants of `name` through both readers.
fn differential<T: PartialEq + Debug>(
    name: &str,
    seed: u64,
    new: impl Fn(&str) -> Result<T, String>,
    old: impl Fn(&str) -> Result<T, String>,
) -> Tally {
    let docs = [
        fixture("demo_release.json"),
        fixture("demo_checkpoint.json"),
        fixture("demo_attack_curves.json"),
    ];
    let donors: Vec<&[u8]> = docs.iter().map(Vec::as_slice).collect();
    let doc = fixture(name);
    let mut rng = Rng(seed);
    let mut tally = Tally::default();
    for i in 0..MUTANTS {
        let text = mutate(&doc, &donors, &mut rng);
        let got = catch_unwind(AssertUnwindSafe(|| new(&text)))
            .unwrap_or_else(|_| panic!("{name} mutant {i} panics the reader: {text:?}"));
        let want = old(&text);
        assert_eq!(got, want, "{name} mutant {i}: {text:?}");
        if got.is_ok() {
            tally.accepted += 1;
        } else if value_tree::parse(&text).is_ok() {
            tally.type_errors += 1;
        }
    }
    tally
}

fn typed<T: serde::Deserialize>(text: &str) -> Result<T, String> {
    serde_json::from_str(text).map_err(|e| e.to_string())
}

/// Both verdicts occur often enough for the comparison to mean something.
fn assert_mixed(name: &str, tally: &Tally) {
    let n = MUTANTS as usize;
    assert!(tally.accepted >= n / 50, "{name}: {tally:?}");
    assert!(tally.accepted <= n / 2, "{name}: {tally:?}");
}

#[test]
fn release_mutants_read_like_the_tree_reader() {
    let tally = differential(
        "demo_release.json",
        1,
        typed::<PublishedDataset>,
        value_tree::from_str::<PublishedDataset>,
    );
    assert_mixed("release", &tally);
    assert!(tally.type_errors >= 100, "{tally:?}");
}

#[test]
fn checkpoint_mutants_read_like_the_tree_reader() {
    let tally = differential(
        "demo_checkpoint.json",
        2,
        typed::<StreamingCheckpoint>,
        value_tree::from_str::<StreamingCheckpoint>,
    );
    assert_mixed("checkpoint", &tally);
    assert!(tally.type_errors >= 100, "{tally:?}");
}

#[test]
fn attack_curve_mutants_read_like_the_tree_reader() {
    let tally = differential("demo_attack_curves.json", 3, typed::<Value>, |text| {
        value_tree::parse(text).map(tree_to_value)
    });
    assert_mixed("attack curves", &tally);
}

#[test]
fn both_readers_accept_the_committed_fixtures() {
    // The oracle is only a witness if it accepts what the program wrote.
    fn same<T: serde::Deserialize + FromTree + PartialEq + Debug>(name: &str) {
        let text = String::from_utf8(fixture(name)).unwrap();
        let want = value_tree::from_str::<T>(&text);
        assert!(want.is_ok(), "{name}");
        assert_eq!(typed::<T>(&text), want, "{name}");
    }
    for name in [
        "demo_release.json",
        "demo_release_tampered.json",
        "demo_release_leaky.json",
    ] {
        same::<PublishedDataset>(name);
    }
    for name in ["demo_checkpoint.json", "demo_checkpoint_tampered.json"] {
        same::<StreamingCheckpoint>(name);
    }
}

/// `(type, input, what the tree reader returned)`, recorded from the
/// reader this one replaced.
const EDGE_CASES: &[(&str, &str, &str)] = &[
    ("u64", r#"4.0"#, r#"Ok(4)"#),
    ("u64", r#"1e3"#, r#"Ok(1000)"#),
    ("u64", r#"-0"#, r#"Ok(0)"#),
    ("u64", r#"01"#, r#"Ok(1)"#),
    ("u64", r#"1."#, r#"Ok(1)"#),
    ("u64", r#"1E+2"#, r#"Ok(100)"#),
    ("u64", r#"0.0e0"#, r#"Ok(0)"#),
    ("u64", r#"123456789012345"#, r#"Ok(123456789012345)"#),
    ("u64", r#"1234567890123456"#, r#"Ok(1234567890123456)"#),
    ("u64", r#"9007199254740993"#, r#"Ok(9007199254740992)"#),
    (
        "u64",
        r#"18446744073709551615"#,
        r#"Ok(18446744073709551615)"#,
    ),
    (
        "u64",
        r#"18446744073709551616"#,
        r#"Ok(18446744073709551615)"#,
    ),
    (
        "u64",
        r#"1e20"#,
        r#"Err(number 100000000000000000000 out of range for u64)"#,
    ),
    ("u64", r#" 7 "#, r#"Ok(7)"#),
    ("u64", r#"-"#, r#"Err(invalid number `-` at byte 0)"#),
    ("u64", r#"1e"#, r#"Err(invalid number `1e` at byte 0)"#),
    ("u64", r#".5"#, r#"Err(unexpected `.` at byte 0)"#),
    ("u64", r#"+1"#, r#"Err(unexpected `+` at byte 0)"#),
    ("u64", r#""#, r#"Err(unexpected end of input)"#),
    ("u64", r#"1 2"#, r#"Err(trailing characters at byte 2)"#),
    ("u64", r#"1.5"#, r#"Err(expected integer, found number)"#),
    ("u64", r#"1e400"#, r#"Err(expected integer, found number)"#),
    ("u64", r#""7""#, r#"Err(expected integer, found string)"#),
    ("u64", r#"null"#, r#"Err(expected integer, found null)"#),
    (
        "u32",
        r#"4294967296"#,
        r#"Err(number 4294967296 out of range for u32)"#,
    ),
    ("u32", r#"-1"#, r#"Err(number -1 out of range for u32)"#),
    ("f64", r#"-0"#, r#"Ok(-0.0)"#),
    ("f64", r#"0.1"#, r#"Ok(0.1)"#),
    ("f64", r#"-12.5e-1"#, r#"Ok(-1.25)"#),
    ("f64", r#"1e400"#, r#"Ok(inf)"#),
    ("f64", r#"true"#, r#"Err(expected number, found bool)"#),
    ("bool", r#"tru"#, r#"Err(unexpected `t` at byte 0)"#),
    ("bool", r#"false"#, r#"Ok(false)"#),
    ("opt", r#"null"#, r#"Ok(None)"#),
    ("opt", r#"nul"#, r#"Err(unexpected `n` at byte 0)"#),
    ("opt", r#"3"#, r#"Ok(Some(3))"#),
    ("opt", r#""3""#, r#"Err(expected integer, found string)"#),
    ("str", r#""aé""#, r#"Ok("aé")"#),
    ("str", r#""abc"#, r#"Err(unterminated string)"#),
    ("pair", r#"[1,2]"#, r#"Ok((1, 2))"#),
    (
        "pair",
        r#"[1]"#,
        r#"Err(expected array of length 2, found length 1)"#,
    ),
    (
        "pair",
        r#"[1,2,3]"#,
        r#"Err(expected array of length 2, found length 3)"#,
    ),
    (
        "pair",
        r#"["a",2,3]"#,
        r#"Err(expected array of length 2, found length 3)"#,
    ),
    (
        "pair",
        r#"["a",2]"#,
        r#"Err(expected integer, found string)"#,
    ),
    (
        "pair",
        r#"[1,"b"]"#,
        r#"Err(expected integer, found string)"#,
    ),
    ("pair", r#"{}"#, r#"Err(expected array, found object)"#),
    ("pair", r#"[1,2"#, r#"Err(expected `,` or `]` at byte 4)"#),
    ("vec", r#"[]"#, r#"Ok([])"#),
    ("vec", r#"[1,,2]"#, r#"Err(unexpected `,` at byte 3)"#),
    ("vec", r#"[1,2,]"#, r#"Err(unexpected `]` at byte 5)"#),
    ("vec", r#"[1 2]"#, r#"Err(expected `,` or `]` at byte 3)"#),
    ("vec", r#"["x",1,]"#, r#"Err(unexpected `]` at byte 7)"#),
    ("vec", r#"["x"] 1"#, r#"Err(trailing characters at byte 6)"#),
    (
        "vec",
        r#"["x",1.5]"#,
        r#"Err(expected integer, found string)"#,
    ),
    (
        "group",
        r#"{"members":[1],"qid_rows":[[2]],"sensitive_counts":[[3,1]]}"#,
        r#"Ok(AnonymizedGroup { members: [1], qid_rows: [[2]], sensitive_counts: [(3, 1)] })"#,
    ),
    (
        "group",
        r#"{"members":[1],"members":[9],"qid_rows":[],"sensitive_counts":[]}"#,
        r#"Ok(AnonymizedGroup { members: [1], qid_rows: [], sensitive_counts: [] })"#,
    ),
    (
        "group",
        r#"{"members":[1],"members":"x","qid_rows":[],"sensitive_counts":[]}"#,
        r#"Ok(AnonymizedGroup { members: [1], qid_rows: [], sensitive_counts: [] })"#,
    ),
    (
        "group",
        r#"{"members":"x","members":[1],"qid_rows":[],"sensitive_counts":[]}"#,
        r#"Err(field `members`: expected array, found string)"#,
    ),
    (
        "group",
        r#"{"extra":{"a":[1,2,{"b":null}],"c":"A"},"members":[],"qid_rows":[],"sensitive_counts":[]}"#,
        r#"Ok(AnonymizedGroup { members: [], qid_rows: [], sensitive_counts: [] })"#,
    ),
    (
        "group",
        r#"{"extra":[1,],"members":[],"qid_rows":[],"sensitive_counts":[]}"#,
        r#"Err(unexpected `]` at byte 12)"#,
    ),
    (
        "group",
        r#"{"members":[5],"qid_rows":[],"sensitive_counts":[]}"#,
        r#"Ok(AnonymizedGroup { members: [5], qid_rows: [], sensitive_counts: [] })"#,
    ),
    (
        "group",
        r#"{"members":[],"qid_rows":[]}"#,
        r#"Err(missing field `sensitive_counts`)"#,
    ),
    (
        "group",
        r#"{"sensitive_counts":"x","qid_rows":[]}"#,
        r#"Err(missing field `members`)"#,
    ),
    (
        "group",
        r#"{"qid_rows":"x","members":[],"sensitive_counts":[[1]]}"#,
        r#"Err(field `qid_rows`: expected array, found string)"#,
    ),
    (
        "group",
        r#"{"sensitive_counts":[[1]],"qid_rows":"x","members":[]}"#,
        r#"Err(field `qid_rows`: expected array, found string)"#,
    ),
    (
        "group",
        r#"[1]"#,
        r#"Err(expected object with field `members`, found array)"#,
    ),
    (
        "group",
        r#"null"#,
        r#"Err(expected object with field `members`, found null)"#,
    ),
    ("group", r#"{}"#, r#"Err(missing field `members`)"#),
    (
        "group",
        r#"{"members":"x","#,
        r#"Err(expected `"` at byte 15)"#,
    ),
    (
        "group",
        r#"{"members":"x"} x"#,
        r#"Err(trailing characters at byte 16)"#,
    ),
    (
        "group",
        r#"{"members":[],"qid_rows":[],"sensitive_counts":[],}"#,
        r#"Err(expected `"` at byte 50)"#,
    ),
    (
        "group",
        r#"{"members" [],"qid_rows":[],"sensitive_counts":[]}"#,
        r#"Err(expected `:` at byte 11)"#,
    ),
    ("group", r#"{members:[]}"#, r#"Err(expected `"` at byte 1)"#),
    (
        "release",
        r#"{"n_items":3,"sensitive_items":[],"groups":[{"members":["x"],"qid_rows":[],"sensitive_counts":[]}]}"#,
        r#"Err(field `groups`: field `members`: expected integer, found string)"#,
    ),
    (
        "release",
        r#"{"n_items":3,"sensitive_items":[1],"groups":[{"members":[0],"qid_rows":[[0,1]],"sensitive_counts":[[1,1],[2]]}]}"#,
        r#"Err(field `groups`: field `sensitive_counts`: expected array of length 2, found length 1)"#,
    ),
    (
        "release",
        r#"{"n_items":-3,"sensitive_items":[],"groups":[]}"#,
        r#"Err(field `n_items`: number -3 out of range for usize)"#,
    ),
    (
        "release",
        r#"{"n_items":3,"sensitive_items":[],"groups":[],"n_items":"x"}"#,
        r#"Ok(PublishedDataset { n_items: 3, sensitive_items: [], groups: [] })"#,
    ),
    (
        "value",
        r#"{"a":1,"a":2,"b":[true,false,null,"s",-0.5e1]}"#,
        r#"Ok(Object([("a", Num(1.0)), ("a", Num(2.0)), ("b", Array([Bool(true), Bool(false), Null, Str("s"), Num(-5.0)]))]))"#,
    ),
    (
        "value",
        r#"[1,2]]"#,
        r#"Err(trailing characters at byte 5)"#,
    ),
    (
        "value",
        r#"{"a" :1 , "b": [ ] }"#,
        r#"Ok(Object([("a", Num(1.0)), ("b", Array([]))]))"#,
    ),
];

fn show<T: serde::Deserialize + Debug>(text: &str) -> String {
    match serde_json::from_str::<T>(text) {
        Ok(v) => format!("Ok({v:?})"),
        Err(e) => format!("Err({e})"),
    }
}

#[test]
fn number_and_object_edge_cases_keep_their_values_and_messages() {
    for &(ty, text, want) in EDGE_CASES {
        let got = match ty {
            "u64" => show::<u64>(text),
            "u32" => show::<u32>(text),
            "f64" => show::<f64>(text),
            "bool" => show::<bool>(text),
            "opt" => show::<Option<u32>>(text),
            "str" => show::<String>(text),
            "pair" => show::<(u32, u32)>(text),
            "vec" => show::<Vec<u64>>(text),
            "group" => show::<AnonymizedGroup>(text),
            "release" => show::<PublishedDataset>(text),
            "value" => show::<Value>(text),
            other => panic!("unknown type {other}"),
        };
        assert_eq!(got, want, "{ty} {text:?}");
    }
}

#[test]
fn numbers_write_like_the_tree_writer() {
    // Integers below 2^53 as digits; everything else as `f64` `Display`.
    let cases: [(&str, String); 5] = [
        (
            "18446744073709552000",
            serde_json::to_string(&u64::MAX).unwrap(),
        ),
        (
            "9007199254740992",
            serde_json::to_string(&((1u64 << 53) + 1)).unwrap(),
        ),
        (
            "-9223372036854776000",
            serde_json::to_string(&(i64::MIN as f64)).unwrap(),
        ),
        (
            "[0.1,0,1000000000000000000000,0.0000001,123456789.5,NaN,inf,4]",
            serde_json::to_string(&vec![
                0.1f64,
                -0.0,
                1e21,
                1e-7,
                123_456_789.5,
                f64::NAN,
                f64::INFINITY,
                4.0,
            ])
            .unwrap(),
        ),
        (
            "\"a\\u0001\u{7f}\\u001f\u{e9}\\\"\\t\\n\\r\\\\/\"",
            serde_json::to_string("a\u{1}\u{7f}\u{1f}\u{e9}\"\t\n\r\\/").unwrap(),
        ),
    ];
    for (want, got) in cases {
        assert_eq!(got, want);
    }
}
