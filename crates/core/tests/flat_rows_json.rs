//! A group's QID rows are one `FlatRows` (an item array plus row
//! offsets), but their JSON is that of the `Vec<Vec<u32>>` they stand
//! for. Over arbitrary rows (empty rows, empty groups, ids up to
//! `u32::MAX`) the two write the same bytes, compact and pretty, and on
//! every seeded mutation of that text the two readers accept the same
//! documents with the same rows and reject the rest with the same
//! message.

use cahd_core::FlatRows;
use proptest::prelude::*;

/// Ids from every part of the `u32` range: small, near `u32::MAX`, and
/// `u32::MAX` itself.
fn arb_id() -> impl Strategy<Value = u32> {
    (0u32..4, 0u32..=u32::MAX, 0u32..64).prop_map(|(kind, any, small)| match kind {
        0 => small,
        1 => u32::MAX - small,
        2 => u32::MAX,
        _ => any,
    })
}

/// Up to eight rows (none at all included) of up to five ids, empty rows
/// included.
fn arb_rows() -> impl Strategy<Value = Vec<Vec<u32>>> {
    collection::vec(collection::vec(arb_id(), 0..6), 0..9)
}

/// Bytes a mutation may insert or write over: JSON structure, digits and
/// the starts of the other value kinds.
const ALPHABET: &[u8] = b"[]{},:0123456789-+.eE\" ntf";

/// `text` with one to three seeded byte edits: delete, insert or replace.
fn mutate(text: &str, rng: &mut TestRng) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..1 + rng.next_u64() % 3 {
        let at = (rng.next_u64() % (bytes.len() as u64 + 1)) as usize;
        let b = ALPHABET[(rng.next_u64() % ALPHABET.len() as u64) as usize];
        match rng.next_u64() % 3 {
            0 if at < bytes.len() => {
                bytes.remove(at);
            }
            1 if at < bytes.len() => bytes[at] = b,
            _ => bytes.insert(at, b),
        }
    }
    String::from_utf8(bytes).expect("ASCII edits of ASCII text")
}

/// What a reader makes of a text: its rows, or its error message.
type Read = Result<Vec<Vec<u32>>, String>;

/// Both readers on `text`.
fn read_both(text: &str) -> (Read, Read) {
    let flat = serde_json::from_str::<FlatRows>(text)
        .map(|f| f.to_rows())
        .map_err(|e| e.to_string());
    let nested = serde_json::from_str::<Vec<Vec<u32>>>(text).map_err(|e| e.to_string());
    (flat, nested)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn flat_rows_write_and_read_like_nested_vecs(rows in arb_rows(), seed in 0u64..u64::MAX) {
        let flat = FlatRows::from_rows(&rows);
        prop_assert_eq!(flat.len(), rows.len());
        prop_assert_eq!(flat.iter().collect::<Vec<_>>(), rows.iter().map(Vec::as_slice).collect::<Vec<_>>());
        prop_assert_eq!(format!("{flat:?}"), format!("{rows:?}"));
        let text = serde_json::to_string(&rows).unwrap();
        prop_assert_eq!(serde_json::to_string(&flat).unwrap(), text.clone());
        prop_assert_eq!(
            serde_json::to_string_pretty(&flat).unwrap(),
            serde_json::to_string_pretty(&rows).unwrap()
        );
        let back: FlatRows = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(back, flat);

        let mut rng = TestRng::seed(seed);
        for _ in 0..25 {
            let mutant = mutate(&text, &mut rng);
            let (flat, nested) = read_both(&mutant);
            prop_assert_eq!(flat, nested, "mutant {}", mutant);
        }
    }
}

#[test]
fn edge_cases_read_alike() {
    for text in [
        "[]",
        "[[]]",
        "[[],[]]",
        " [ [ 1 , 2 ] , [ ] ] ",
        "[[4294967295]]",
        "[[4294967296]]",
        "[[-1]]",
        "[[1.0]]",
        "[[1.5]]",
        "[[1e3]]",
        "[[01]]",
        "[1]",
        "[[1],2]",
        "[[1],null]",
        "[[\"1\"]]",
        "{}",
        "null",
        "[[1,]]",
        "[[1] [2]]",
        "[[1]",
        "[[1]]]",
        "",
    ] {
        let (flat, nested) = read_both(text);
        assert_eq!(flat, nested, "{text:?}");
    }
}
