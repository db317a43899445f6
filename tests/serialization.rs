//! Release serialization: the published dataset round-trips through JSON
//! (the wire format a data owner would actually ship).

use cahd::prelude::*;

fn release() -> (TransactionSet, SensitiveSet, PublishedDataset) {
    let data = cahd::data::profiles::bms1_like(0.01, 3);
    let mut rng = rand_seed(5);
    let sens = SensitiveSet::select_random(&data, 5, 10, &mut rng).unwrap();
    let pub_ = Anonymizer::new(AnonymizerConfig::with_privacy_degree(5))
        .anonymize(&data, &sens, &Recorder::disabled())
        .unwrap()
        .published;
    (data, sens, pub_)
}

#[test]
fn json_roundtrip_preserves_release() {
    let (data, sens, pub_) = release();
    let json = serde_json::to_string(&pub_).unwrap();
    let back: PublishedDataset = serde_json::from_str(&json).unwrap();
    assert_eq!(back, pub_);
    // The deserialized release still verifies against the original data.
    verify_published(&data, &sens, &back, 5).unwrap();
}

#[test]
fn stripped_release_omits_member_ids() {
    let (_, _, pub_) = release();
    let stripped = pub_.clone().strip_members();
    let json = serde_json::to_string(&stripped).unwrap();
    let back: PublishedDataset = serde_json::from_str(&json).unwrap();
    assert!(back.groups.iter().all(|g| g.members.is_empty()));
    // Group structure and summaries are intact.
    assert_eq!(back.n_groups(), pub_.n_groups());
    assert_eq!(back.n_transactions(), pub_.n_transactions());
    assert_eq!(back.privacy_degree(), pub_.privacy_degree());
}

#[test]
fn json_is_human_inspectable() {
    let (_, _, pub_) = release();
    let json = serde_json::to_string_pretty(&pub_).unwrap();
    assert!(json.contains("\"sensitive_items\""));
    assert!(json.contains("\"qid_rows\""));
    assert!(json.contains("\"sensitive_counts\""));
}

#[test]
fn checkpoint_fixture_resumes_and_tampered_one_fails_closed() {
    use cahd::core::checkpoint::StreamingCheckpoint;
    use cahd::core::streaming::StreamingAnonymizer;
    use cahd::core::CahdError;

    // The clean fixture (a real `--checkpoint` pause after one 40-row
    // batch of fixtures/demo.dat) validates and resumes.
    let text = std::fs::read_to_string("fixtures/demo_checkpoint.json").unwrap();
    let cp: StreamingCheckpoint = serde_json::from_str(&text).unwrap();
    cp.validate().unwrap();
    assert_eq!(cp.next_id, 40);
    let sens = SensitiveSet::new(vec![14, 26, 28], 30);
    let mut s = StreamingAnonymizer::resume(
        AnonymizerConfig::with_privacy_degree(4),
        sens.clone(),
        &cp,
        &Recorder::disabled(),
    )
    .unwrap();
    assert_eq!(s.next_stream_id(), 40);
    // It is live: feeding the rest of demo.dat releases the stream's
    // remaining chunks.
    let data = cahd::data::io::read_dat_file("fixtures/demo.dat", Some(30)).unwrap();
    let mut released = 0;
    for i in 40..data.n_transactions() {
        if s.push(data.transaction(i).to_vec()).unwrap().is_some() {
            released += 1;
        }
    }
    if s.finish().unwrap().is_some() {
        released += 1;
    }
    assert_eq!(released, 2, "80 remaining rows at batch 40");

    // The tampered twin (stream cursor advanced behind the digest's back)
    // fails closed before any state is trusted.
    let text = std::fs::read_to_string("fixtures/demo_checkpoint_tampered.json").unwrap();
    let bad: StreamingCheckpoint = serde_json::from_str(&text).unwrap();
    let err = bad.validate().unwrap_err();
    assert!(
        matches!(err, CahdError::CorruptCheckpoint { ref reason } if reason.contains("digest")),
        "{err:?}"
    );
    assert!(StreamingAnonymizer::resume(
        AnonymizerConfig::with_privacy_degree(4),
        sens,
        &bad,
        &Recorder::disabled()
    )
    .is_err());
}

#[test]
fn dat_roundtrip_through_disk() {
    let data = cahd::data::profiles::bms1_like(0.01, 9);
    let path = std::env::temp_dir().join(format!("cahd_it_{}.dat", std::process::id()));
    cahd::data::io::write_dat_file(&path, &data).unwrap();
    let back = cahd::data::io::read_dat_file(&path, Some(data.n_items())).unwrap();
    std::fs::remove_file(&path).ok();
    // The generator never emits empty transactions, so the roundtrip is
    // exact.
    assert_eq!(back, data);
}

/// Strings the JSON parser must carry through unchanged: 2-, 3- and
/// 4-byte UTF-8, escapes on either side of multibyte characters, control
/// characters, and the empty string.
const TRICKY_STRINGS: &[&str] = &[
    "",
    "plain ascii",
    "é",
    "€",
    "𝄞",
    "aé€𝄞z",
    "é\"€\\𝄞",
    "\"é\"",
    "\\€\\",
    "𝄞\n€\t é\r",
    "\u{1}é\u{1f}",
    "/ ✓ /",
];

#[test]
fn json_strings_roundtrip_multibyte_and_escapes() {
    for &s in TRICKY_STRINGS {
        let json = serde_json::to_string(s).unwrap();
        let back: String = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s, "{json}");
        // Inside a document, next to other strings and structure.
        let doc = serde_json::to_string_pretty(&vec![s.to_string(), s.to_string()]).unwrap();
        let back: Vec<String> = serde_json::from_str(&doc).unwrap();
        assert_eq!(back, vec![s.to_string(), s.to_string()], "{doc}");
    }
    // A very long string with multibyte characters and escapes throughout.
    let long: String = TRICKY_STRINGS.concat().repeat(20_000);
    let back: String = serde_json::from_str(&serde_json::to_string(&long).unwrap()).unwrap();
    assert_eq!(back, long);
}

#[test]
fn json_unicode_escapes_decode() {
    let cases = [
        (r#""\u0041""#, "A"),
        (r#""\u00e9\u20AC""#, "é€"),
        (r#""é\u0041€""#, "éA€"),
        (r#""\u00e9𝄞\/\b\f""#, "é𝄞/\u{8}\u{c}"),
        (r#""""#, ""),
    ];
    for (json, want) in cases {
        let got: String = serde_json::from_str(json).unwrap();
        assert_eq!(got, want, "{json}");
    }
}

#[test]
fn json_malformed_strings_report_the_same_errors() {
    let cases = [
        ("\"abc", "unterminated string"),
        ("\"é€𝄞", "unterminated string"),
        ("[\"ok\", \"é", "unterminated string"),
        (r#""\x""#, "invalid escape sequence"),
        ("\"\\é\"", "invalid escape sequence"),
        ("\"abc\\", "invalid escape sequence"),
        (r#""\u12"#, "truncated \\u escape"),
        (r#""é\u12""#, "truncated \\u escape"),
        (r#""\u12"x"#, "invalid \\u escape"),
        ("\"\\u00é\"", "invalid \\u escape"),
        (r#""\ud800""#, "invalid \\u code point"),
    ];
    for (json, want) in cases {
        let err = serde_json::from_str::<serde_json::Value>(json).unwrap_err();
        assert_eq!(err.to_string(), want, "{json}");
    }
}

/// Reads a committed document as `T` and writes it back, compact or
/// pretty.
fn rewrite<T: serde::Serialize + serde::Deserialize>(text: &str, pretty: bool) -> String {
    let value: T = serde_json::from_str(text).unwrap();
    if pretty {
        serde_json::to_string_pretty(&value).unwrap()
    } else {
        serde_json::to_string(&value).unwrap()
    }
}

#[test]
fn committed_documents_rewrite_byte_identically() {
    use cahd::core::checkpoint::StreamingCheckpoint;
    use cahd::eval::AttackReport;
    use cahd_bench::snapshot::PerfSnapshot;

    type Rewrite = fn(&str, bool) -> String;
    // (path, reader/writer, pretty, file ends in a newline)
    let cases: [(&str, Rewrite, bool, bool); 5] = [
        (
            "fixtures/demo_release.json",
            rewrite::<PublishedDataset>,
            false,
            false,
        ),
        (
            "fixtures/demo_checkpoint.json",
            rewrite::<StreamingCheckpoint>,
            false,
            false,
        ),
        (
            "fixtures/demo_checkpoint_tampered.json",
            rewrite::<StreamingCheckpoint>,
            false,
            false,
        ),
        (
            "fixtures/demo_attack_curves.json",
            rewrite::<AttackReport>,
            true,
            true,
        ),
        (
            "bench-snapshots/BENCH_1786179307.json",
            rewrite::<PerfSnapshot>,
            true,
            false,
        ),
    ];
    for (path, rewrite, pretty, newline) in cases {
        let text = std::fs::read_to_string(path).unwrap();
        let mut out = rewrite(&text, pretty);
        if newline {
            out.push('\n');
        }
        assert!(out == text, "{path} does not rewrite to itself");
    }
}

/// Asserts that `to_writer` streams exactly the bytes `to_string` builds.
fn writes_like_to_string<T: serde::Serialize>(value: &T, what: &str) {
    let mut bytes = Vec::new();
    serde_json::to_writer(&mut bytes, value).unwrap();
    let text = serde_json::to_string(value).unwrap();
    assert!(bytes == text.as_bytes(), "{what}: to_writer bytes differ");
}

#[test]
fn to_writer_matches_to_string_on_releases_checkpoints_and_traces() {
    use cahd::core::checkpoint::StreamingCheckpoint;

    let text = std::fs::read_to_string("fixtures/demo_release.json").unwrap();
    let fixture: PublishedDataset = serde_json::from_str(&text).unwrap();
    writes_like_to_string(&fixture, "demo_release.json");
    let text = std::fs::read_to_string("fixtures/demo_checkpoint.json").unwrap();
    let cp: StreamingCheckpoint = serde_json::from_str(&text).unwrap();
    writes_like_to_string(&cp, "demo_checkpoint.json");

    // Documents past the writer's drain threshold: a live release and the
    // trace of the run that made it.
    let data = cahd::data::profiles::bms1_like(0.1, 3);
    let sens = SensitiveSet::select_random(&data, 5, 10, &mut rand_seed(5)).unwrap();
    let rec = Recorder::new();
    let result = Anonymizer::new(AnonymizerConfig::with_privacy_degree(5))
        .anonymize(&data, &sens, &rec)
        .unwrap();
    let len = serde_json::to_string(&result.published).unwrap().len();
    assert!(len > 4 * serde::SINK_FLUSH_BYTES, "{len}");
    writes_like_to_string(&result.published, "live release");
    writes_like_to_string(&rec.snapshot(), "live trace");
}

#[test]
fn to_writer_on_a_failing_file_is_an_error() {
    /// Accepts the first 1000 bytes, then reports a full disk.
    struct FullDisk(usize);
    impl std::io::Write for FullDisk {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.0 + buf.len() > 1000 {
                return Err(std::io::Error::other("no space left on device"));
            }
            self.0 += buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let (_, _, release) = release();
    let err = serde_json::to_writer(FullDisk(0), &release).unwrap_err();
    assert!(err.to_string().contains("no space left"), "{err}");
}
