//! The CLI subcommands, as plain functions returning their stdout text.

use std::io::{BufWriter, Write as _};
use std::path::Path;

use rand::rngs::StdRng;
use rand::SeedableRng;

use cahd_baselines::{perm_mondrian, random_grouping, PmConfig};
use cahd_core::checkpoint::StreamingCheckpoint;
use cahd_core::diversity::privacy_report;
use cahd_core::pipeline::{Anonymizer, AnonymizerConfig};
use cahd_core::recovery::{RecoveryConfig, SanitizedRows};
use cahd_core::shard::ParallelConfig;
use cahd_core::streaming::{ReleaseChunk, StreamingAnonymizer};
use cahd_core::weighted::{anonymize_weighted, verify_weighted, WeightedSimilarity};
use cahd_core::{verify_published, AnonymizedGroup, CahdConfig, FlatRows, PublishedDataset};
use cahd_data::{
    io, profiles, DatasetStats, QuestConfig, QuestGenerator, RawRows, SensitiveSet, TransactionSet,
};
use cahd_eval::{
    derive_seed, evaluate_workload_traced, generate_workload_seeded, posterior_violations,
    reidentification_probability, run_attack_suite, unique_match_violations, AttackPlan,
    AttackReport, AttackTarget,
};
use cahd_obs::{Recorder, TraceReport};
use cahd_rcm::{OrderingStrategy, RowGraphMode};

use crate::args::{Args, FlagSpec};
use crate::CliError;

/// `stats <data.dat>`: dataset characteristics.
pub fn stats(args: &Args) -> Result<String, CliError> {
    let data = load(args.positional(0, "data.dat")?)?;
    Ok(format!("{}\n", DatasetStats::compute(&data)))
}

/// Resolves the Monte-Carlo seed shared by every randomized command:
/// `--seed`, else 42. Commands derive per-experiment streams from this
/// one value with [`cahd_eval::derive_seed`], so a single setting
/// reproduces a whole run.
fn resolve_seed(args: &Args) -> Result<u64, CliError> {
    args.parse_or("seed", 42)
}

/// Flags accepted by [`generate`].
pub const GENERATE_FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "out",
        takes_value: true,
    },
    FlagSpec {
        name: "scale",
        takes_value: true,
    },
    FlagSpec {
        name: "seed",
        takes_value: true,
    },
    FlagSpec {
        name: "transactions",
        takes_value: true,
    },
    FlagSpec {
        name: "items",
        takes_value: true,
    },
    FlagSpec {
        name: "avg-len",
        takes_value: true,
    },
    FlagSpec {
        name: "patterns",
        takes_value: true,
    },
    FlagSpec {
        name: "correlation",
        takes_value: true,
    },
];

/// `generate {bms1|bms2|quest} --out file.dat [...]`: synthesize data.
pub fn generate(args: &Args) -> Result<String, CliError> {
    let kind = args.positional(0, "bms1|bms2|quest")?;
    let out = args
        .value("out")
        .ok_or_else(|| CliError::Usage("--out <file.dat> is required".into()))?;
    let scale: f64 = args.parse_or("scale", 1.0)?;
    let seed: u64 = resolve_seed(args)?;
    let data = match kind {
        "bms1" => profiles::bms1_like(scale, seed),
        "bms2" => profiles::bms2_like(scale, seed),
        "quest" => {
            let cfg = QuestConfig {
                n_transactions: args.parse_or("transactions", 10_000usize)?,
                n_items: args.parse_or("items", 1_000usize)?,
                avg_txn_len: args.parse_or("avg-len", 10.0f64)?,
                n_patterns: args.parse_or("patterns", 100usize)?,
                correlation: args.parse_or("correlation", 0.5f64)?,
                ..Default::default()
            };
            cfg.validate().map_err(CliError::Usage)?;
            QuestGenerator::new(cfg, seed).generate()
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown generator {other:?}; expected bms1, bms2 or quest"
            )))
        }
    };
    io::write_dat_file(out, &data)?;
    Ok(format!(
        "wrote {} ({})\n",
        out,
        DatasetStats::compute(&data)
    ))
}

/// Flags accepted by [`audit`].
pub const AUDIT_FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "max-k",
        takes_value: true,
    },
    FlagSpec {
        name: "trials",
        takes_value: true,
    },
    FlagSpec {
        name: "seed",
        takes_value: true,
    },
];

/// `audit <data.dat>`: re-identification risk per number of known items
/// (the paper's Table II). The linkage attack against a release is
/// `attack --attacker linkage`.
pub fn audit(args: &Args) -> Result<String, CliError> {
    let data = load(args.positional(0, "data.dat")?)?;
    let max_k: usize = args.parse_or("max-k", 4)?;
    let trials: usize = args.parse_or("trials", 10_000)?;
    let seed: u64 = resolve_seed(args)?;
    let mut out = String::from("known items -> re-identification probability\n");
    for k in 1..=max_k {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, k as u64));
        match reidentification_probability(&data, None, k, trials, &mut rng) {
            Some(p) => out.push_str(&format!("{k:>11} -> {:.2}%\n", p * 100.0)),
            None => out.push_str(&format!("{k:>11} -> (no transaction has {k} items)\n")),
        }
    }
    Ok(out)
}

/// Flags accepted by [`anonymize`].
pub const ANONYMIZE_FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "weighted",
        takes_value: false,
    },
    FlagSpec {
        name: "p",
        takes_value: true,
    },
    FlagSpec {
        name: "sensitive",
        takes_value: true,
    },
    FlagSpec {
        name: "random-m",
        takes_value: true,
    },
    FlagSpec {
        name: "method",
        takes_value: true,
    },
    FlagSpec {
        name: "alpha",
        takes_value: true,
    },
    FlagSpec {
        name: "no-rcm",
        takes_value: false,
    },
    FlagSpec {
        name: "shards",
        takes_value: true,
    },
    FlagSpec {
        name: "threads",
        takes_value: true,
    },
    FlagSpec {
        name: "refine",
        takes_value: false,
    },
    FlagSpec {
        name: "strip-members",
        takes_value: false,
    },
    FlagSpec {
        name: "out",
        takes_value: true,
    },
    FlagSpec {
        name: "seed",
        takes_value: true,
    },
    FlagSpec {
        name: "trace-json",
        takes_value: true,
    },
    FlagSpec {
        name: "metrics",
        takes_value: false,
    },
    FlagSpec {
        name: "memory",
        takes_value: false,
    },
    FlagSpec {
        name: "ordering",
        takes_value: true,
    },
    FlagSpec {
        name: "rowgraph",
        takes_value: true,
    },
    FlagSpec {
        name: "hub-cap",
        takes_value: true,
    },
    FlagSpec {
        name: "bad-input",
        takes_value: true,
    },
    FlagSpec {
        name: "items",
        takes_value: true,
    },
    FlagSpec {
        name: "stream-batch",
        takes_value: true,
    },
    FlagSpec {
        name: "checkpoint",
        takes_value: true,
    },
    FlagSpec {
        name: "resume",
        takes_value: false,
    },
    FlagSpec {
        name: "max-batches",
        takes_value: true,
    },
];

/// Parses `--ordering {rcm|bfs|cluster}` (default: rcm).
fn ordering_from_args(args: &Args) -> Result<OrderingStrategy, CliError> {
    match args.value("ordering") {
        None => Ok(OrderingStrategy::Rcm),
        Some(v) => OrderingStrategy::parse(v).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown ordering strategy {v:?}; expected rcm, bfs or cluster"
            ))
        }),
    }
}

/// Parses `--rowgraph {auto|explicit|implicit}` (default: auto).
fn rowgraph_from_args(args: &Args) -> Result<RowGraphMode, CliError> {
    match args.value("rowgraph") {
        None => Ok(RowGraphMode::Auto),
        Some(v) => RowGraphMode::parse(v).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown rowgraph mode {v:?}; expected auto, explicit or implicit"
            ))
        }),
    }
}

/// Parses `--hub-cap {off|<support>}` (default: off). Items with support
/// above the cap are skipped by the implicit row graph's neighbor
/// enumeration — a quality-budgeted variant gated by the golden
/// bandwidth/KL tests.
fn hub_cap_from_args(args: &Args) -> Result<Option<u32>, CliError> {
    match args.value("hub-cap") {
        None | Some("off") | Some("none") | Some("0") => Ok(None),
        Some(v) => match v.parse::<u32>() {
            Ok(cap) => Ok(Some(cap)),
            Err(_) => Err(CliError::Usage(format!(
                "invalid --hub-cap {v:?}; expected a positive support bound or off"
            ))),
        },
    }
}

/// Whether any observability flag asks for a traced run.
fn tracing_requested(args: &Args) -> bool {
    args.value("trace-json").is_some() || args.has("metrics") || args.has("memory")
}

/// Builds the recorder implied by the observability flags: memory-tracking
/// when `--memory`, plain when only `--trace-json`/`--metrics`, disabled
/// otherwise (so untraced runs pay nothing). Commands that accept only
/// `--trace-json` get a plain or a disabled one.
fn recorder_from_args(args: &Args) -> Recorder {
    if args.has("memory") {
        Recorder::new().with_memory()
    } else if tracing_requested(args) {
        Recorder::new()
    } else {
        Recorder::disabled()
    }
}

/// Appends the observability outputs of a traced run: the raw report for
/// `--trace-json`, the human rendering for `--metrics` — and for
/// `--memory` without `--trace-json`, which would otherwise capture a
/// report nobody sees.
fn emit_trace(args: &Args, trace: &TraceReport, out: &mut String) -> Result<(), CliError> {
    if let Some(path) = args.value("trace-json") {
        std::fs::write(path, serde_json::to_string_pretty(trace)?)?;
        out.push_str(&format!("trace written to {path}\n"));
    }
    if args.has("metrics") || (args.has("memory") && args.value("trace-json").is_none()) {
        out.push_str(&trace.render_human());
    }
    Ok(())
}

/// `anonymize <data.dat> --p P ...`: produce a release (JSON on disk or a
/// summary on stdout). With `--trace-json <path>` and/or `--metrics` the
/// run is traced: the observability report is written as JSON and/or
/// rendered to stdout (instrumented `cahd` method only, including the
/// `--weighted`, `--bad-input` and `--stream-batch` paths). `--memory`
/// additionally attributes allocator activity to pipeline phases.
pub fn anonymize(args: &Args) -> Result<String, CliError> {
    let p: usize = args.parse_or("p", 0).and_then(|p: usize| {
        if p == 0 {
            Err(CliError::Usage("--p <degree> is required".into()))
        } else {
            Ok(p)
        }
    })?;
    let seed: u64 = resolve_seed(args)?;
    let tracing = tracing_requested(args);
    if args.has("weighted") {
        return anonymize_weighted_cmd(args, p, seed);
    }
    if args.value("stream-batch").is_some() {
        return anonymize_stream_cmd(args, p);
    }
    for flag in ["checkpoint", "max-batches"] {
        if args.value(flag).is_some() {
            return Err(CliError::Usage(format!(
                "--{flag} requires --stream-batch <n>"
            )));
        }
    }
    if args.has("resume") {
        return Err(CliError::Usage(
            "--resume requires --stream-batch <n>".into(),
        ));
    }
    if args.value("bad-input").is_some() {
        return anonymize_robust_cmd(args, p, seed);
    }
    let method = args.value("method").unwrap_or("cahd");
    // The cahd run is traced from ingest to the written release file.
    let rec = if method == "cahd" {
        recorder_from_args(args)
    } else {
        Recorder::disabled()
    };
    let data = {
        let _s = rec.span("ingest");
        load(args.positional(0, "data.dat")?)?
    };
    let sensitive = sensitive_from_args(args, &data, p, seed)?;
    if tracing && method != "cahd" {
        return Err(CliError::Usage(format!(
            "--trace-json/--metrics require the instrumented cahd method, not {method:?}"
        )));
    }

    let published: PublishedDataset = match method {
        "cahd" => {
            let cfg = anonymizer_config_from_args(args, p)?;
            Anonymizer::new(cfg)
                .anonymize(&data, &sensitive, &rec)?
                .published
        }
        "pm" => perm_mondrian(&data, &sensitive, &PmConfig::new(p))?.0,
        "random" => random_grouping(&data, &sensitive, p, seed)?,
        other => {
            return Err(CliError::Usage(format!(
                "unknown method {other:?}; expected cahd, pm or random"
            )))
        }
    };
    let (to_write, n_groups, degree) = finish_release(args, published, &data, &sensitive, p)?;
    let out =
        format!("method {method}, p {p}: {n_groups} groups, privacy degree {degree:?}, verified\n");
    write_release(args, &rec, &to_write, "release", out)
}

/// The tail the batch and `--bad-input` paths share: `--refine`, the
/// verification against `data`, then `--strip-members`. Returns the
/// release to write with its group count and privacy degree.
fn finish_release(
    args: &Args,
    mut published: PublishedDataset,
    data: &TransactionSet,
    sensitive: &SensitiveSet,
    p: usize,
) -> Result<(PublishedDataset, usize, Option<usize>), CliError> {
    if args.has("refine") {
        cahd_core::refine::refine_groups(&mut published, data, sensitive, p, 2, 3);
    }
    verify_published(data, sensitive, &published, p)
        .map_err(|e| CliError::Run(format!("internal error: release failed verification: {e}")))?;
    let degree = published.privacy_degree();
    let n_groups = published.n_groups();
    let to_write = if args.has("strip-members") {
        published.strip_members()
    } else {
        published
    };
    Ok((to_write, n_groups, degree))
}

/// The tail every anonymize path ends with: writes `release` to `--out`
/// (span `serialize`, and the line "`{what}` written to `<path>`"), then
/// appends the trace outputs when `rec` is enabled. Returns `out`.
fn write_release<T: serde::Serialize + ?Sized>(
    args: &Args,
    rec: &Recorder,
    release: &T,
    what: &str,
    mut out: String,
) -> Result<String, CliError> {
    if let Some(path) = args.value("out") {
        let _s = rec.span("serialize");
        write_json(path, release)?;
        out.push_str(&format!("{what} written to {path}\n"));
    }
    if rec.is_enabled() {
        emit_trace(args, &rec.snapshot(), &mut out)?;
    }
    Ok(out)
}

/// The `--weighted` path of [`anonymize`]: reads `.wdat` count data and
/// runs the weighted CAHD pipeline (traced, so `--trace-json`/`--metrics`/
/// `--memory` work here too).
fn anonymize_weighted_cmd(args: &Args, p: usize, seed: u64) -> Result<String, CliError> {
    let path = args.positional(0, "data.wdat")?;
    if !Path::new(path).exists() {
        return Err(CliError::Run(format!("no such file: {path}")));
    }
    if let Some(m) = args.value("method") {
        if m != "cahd" {
            return Err(CliError::Usage(
                "--weighted supports only --method cahd".into(),
            ));
        }
    }
    // Traced from ingest (`.wdat` → counts → binary view) to the written
    // release, like the batch `cahd` path.
    let rec = recorder_from_args(args);
    let (data, binary) = {
        let _s = rec.span("ingest");
        let data = cahd_data::weighted::read_wdat_file(path, None)?;
        let binary = data.to_binary();
        (data, binary)
    };
    let sensitive = sensitive_from_args(args, &binary, p, seed)?;
    let cfg = CahdConfig::new(p).with_alpha(args.parse_or("alpha", 3usize)?);
    let (mut release, _) =
        anonymize_weighted(&data, &sensitive, &cfg, WeightedSimilarity::MinCount, &rec)?;
    verify_weighted(&data, &sensitive, &release, p)
        .map_err(|e| CliError::Run(format!("internal error: release failed verification: {e}")))?;
    let n_groups = release.groups.len();
    if args.has("strip-members") {
        for g in &mut release.groups {
            g.members.clear();
        }
    }
    let out = format!("method cahd (weighted), p {p}: {n_groups} groups, verified\n");
    write_release(args, &rec, &release, "weighted release", out)
}

/// Builds the cahd engine configuration shared by the plain, robust and
/// streaming anonymize paths.
fn anonymizer_config_from_args(args: &Args, p: usize) -> Result<AnonymizerConfig, CliError> {
    let mut cfg = AnonymizerConfig::with_privacy_degree(p)
        .with_ordering(ordering_from_args(args)?)
        .with_rowgraph(rowgraph_from_args(args)?)
        .with_hub_cap(hub_cap_from_args(args)?);
    cfg.cahd = CahdConfig::new(p).with_alpha(args.parse_or("alpha", 3usize)?);
    if args.has("no-rcm") {
        cfg = cfg.without_rcm();
    }
    let shards: usize = args.parse_or("shards", 1)?;
    let threads: usize = args.parse_or("threads", 1)?;
    if shards > 1 || threads > 1 {
        cfg = cfg.with_parallel(ParallelConfig::new(shards, threads));
    }
    Ok(cfg)
}

/// Parses `--bad-input {strict|quarantine}`.
fn recovery_from_args(args: &Args) -> Result<RecoveryConfig, CliError> {
    match args.value("bad-input") {
        None | Some("strict") => Ok(RecoveryConfig::strict()),
        Some("quarantine") => Ok(RecoveryConfig::quarantine()),
        Some(other) => Err(CliError::Usage(format!(
            "unknown --bad-input policy {other:?}; expected strict or quarantine"
        ))),
    }
}

/// Reads a `.dat` file as *raw* rows in one CSR (duplicates and order
/// preserved, so malformed rows are visible to the ingestion policy) plus
/// the item universe: the larger of the inferred `max_id + 1` and
/// `--items`.
fn load_raw(args: &Args) -> Result<(RawRows, usize), CliError> {
    let path = args.positional(0, "data.dat")?;
    if !Path::new(path).exists() {
        return Err(CliError::Run(format!("no such file: {path}")));
    }
    let file = std::fs::File::open(path).map_err(io_to_run(path))?;
    let (rows, inferred) =
        io::read_dat_raw(std::io::BufReader::new(file)).map_err(io_to_run(path))?;
    let d = inferred.max(args.parse_or("items", 0usize)?);
    Ok((rows, d))
}

fn io_to_run(path: &str) -> impl Fn(std::io::Error) -> CliError + '_ {
    move |e| CliError::Run(format!("{path}: {e}"))
}

/// The `--bad-input` path of [`anonymize`]: raw rows go through the
/// robust pipeline, which rejects (strict) or quarantines corrupt rows
/// into the final group instead of trusting the normalizing reader to
/// paper over them. The trace has root spans `ingest` (`.dat` → raw rows
/// and their sanitized view, one CSR when every row is clean),
/// `pipeline` and `serialize` (with `--out`).
fn anonymize_robust_cmd(args: &Args, p: usize, seed: u64) -> Result<String, CliError> {
    if args.value("method").unwrap_or("cahd") != "cahd" {
        return Err(CliError::Usage(
            "--bad-input is only supported with --method cahd".into(),
        ));
    }
    let policy = args.value("bad-input").unwrap_or("strict");
    let recovery = recovery_from_args(args)?;
    let rec = recorder_from_args(args);
    let rows = {
        let _s = rec.span("ingest");
        let (raw, d) = load_raw(args)?;
        // Sensitive-set selection needs a normalized view; sanitizing first
        // keeps out-of-range ids in corrupt rows from poisoning the universe.
        SanitizedRows::new(raw, d)
    };
    let sensitive = sensitive_from_args(args, rows.data(), p, seed)?;
    // The pipeline classifies the rows as written and runs on their
    // sanitized dataset, which the result then holds: one CSR throughout
    // when every row is clean.
    let robust = Anonymizer::new(anonymizer_config_from_args(args, p)?)
        .anonymize_sanitized(rows, &sensitive, &recovery, &rec)?;
    let (to_write, n_groups, degree) =
        finish_release(args, robust.result.published, &robust.data, &sensitive, p)?;
    let out = format!(
        "method cahd ({policy}), p {p}: {n_groups} groups, privacy degree {degree:?}, \
         {} quarantined rows, verified\n",
        robust.quarantined.len(),
    );
    write_release(args, &rec, &to_write, "release", out)
}

/// The `--stream-batch` path of [`anonymize`]: feed the file through
/// [`StreamingAnonymizer`] batch by batch. With `--checkpoint <dir>` every
/// released chunk and a sealed checkpoint land in the directory, so a
/// killed run resumes with `--resume` exactly where it stopped
/// (already-released chunks are never recomputed); `--max-batches N`
/// pauses deliberately after `N` releases. At the end the chunks merge
/// into one release, re-verified against the whole dataset. The trace has
/// root spans `ingest` (`.dat` → one raw CSR and its sanitized view, the
/// same CSR when every row is clean), `pipeline` (one window per batch),
/// `merge` (chunks → one verified release) and `serialize` (with `--out`).
fn anonymize_stream_cmd(args: &Args, p: usize) -> Result<String, CliError> {
    if args.value("method").unwrap_or("cahd") != "cahd" {
        return Err(CliError::Usage(
            "--stream-batch is only supported with --method cahd".into(),
        ));
    }
    let batch: usize = args.parse_or("stream-batch", 0)?;
    if batch < 2 * p {
        return Err(CliError::Usage(format!(
            "--stream-batch must be at least 2p ({batch} < {})",
            2 * p
        )));
    }
    let Some(items) = args.parse_list("sensitive")? else {
        return Err(CliError::Usage(
            "--stream-batch requires an explicit --sensitive list".into(),
        ));
    };
    let recovery = recovery_from_args(args)?;
    let rec = recorder_from_args(args);
    // Ingest reads the raw rows the stream consumes and builds the
    // sanitized dataset the merge verifies against: one CSR for both
    // when every row is clean.
    let (rows, d) = {
        let _s = rec.span("ingest");
        let (raw, inferred) = load_raw(args)?;
        let d = inferred.max(items.iter().map(|&i| i as usize + 1).max().unwrap_or(0));
        (SanitizedRows::new(raw, d), d)
    };
    let n_rows = rows.data().n_transactions();
    let sensitive = SensitiveSet::new(items, d);
    let cfg = anonymizer_config_from_args(args, p)?;
    let ckpt_dir = args.value("checkpoint");
    let max_batches: usize = args.parse_or("max-batches", usize::MAX)?;
    if (args.has("resume") || max_batches != usize::MAX) && ckpt_dir.is_none() {
        return Err(CliError::Usage(
            "--resume/--max-batches require --checkpoint <dir>".into(),
        ));
    }

    let mut out = String::new();
    let mut chunks: Vec<ReleaseChunk> = Vec::new();
    let mut chunk_idx = 0usize;
    let mut stream = if args.has("resume") {
        let dir = ckpt_dir.expect("checked above");
        let cp_path = format!("{dir}/checkpoint.json");
        let text = std::fs::read_to_string(&cp_path)
            .map_err(|e| CliError::Run(format!("cannot read {cp_path}: {e}")))?;
        let cp: StreamingCheckpoint = serde_json::from_str(&text)?;
        while Path::new(&chunk_path(dir, chunk_idx)).exists() {
            chunk_idx += 1;
        }
        out.push_str(&format!(
            "resumed from {cp_path} (stream position {}, {chunk_idx} chunks released)\n",
            cp.next_id
        ));
        StreamingAnonymizer::resume(cfg, sensitive.clone(), &cp, &rec)?.with_recovery(recovery)
    } else {
        if let Some(dir) = ckpt_dir {
            std::fs::create_dir_all(dir).map_err(io_to_run(dir))?;
        }
        StreamingAnonymizer::new(cfg, sensitive.clone(), batch)
            .with_recovery(recovery)
            .with_recorder(&rec)
    };
    let start = usize::try_from(stream.next_stream_id()).unwrap_or(usize::MAX);
    if start > n_rows {
        return Err(CliError::Run(format!(
            "checkpoint is ahead of the input: stream position {start} > {n_rows} rows"
        )));
    }

    let mut released_now = 0usize;
    // Each row is copied into the stream's flat buffer, which the batch
    // borrows as its dataset when every row of it is clean.
    for row in rows.raw_rows().skip(start) {
        let released = stream
            .push_row(row)
            .map_err(|e| CliError::Run(e.to_string()))?;
        if let Some(chunk) = released {
            if let Some(dir) = ckpt_dir {
                persist_chunk(dir, chunk_idx, &chunk, &stream.checkpoint())?;
            }
            chunks.push(chunk);
            chunk_idx += 1;
            released_now += 1;
            if released_now >= max_batches {
                out.push_str(&format!(
                    "paused after {released_now} batches ({} rows buffered); \
                     rerun with --resume to continue\n",
                    stream.buffered()
                ));
                if rec.is_enabled() {
                    emit_trace(args, &rec.snapshot(), &mut out)?;
                }
                return Ok(out);
            }
        }
    }
    if let Some(chunk) = stream.finish().map_err(|e| CliError::Run(e.to_string()))? {
        if let Some(dir) = ckpt_dir {
            persist_chunk(dir, chunk_idx, &chunk, &stream.checkpoint())?;
        }
        chunks.push(chunk);
        chunk_idx += 1;
    }

    // Merge every chunk — including ones released by earlier, interrupted
    // runs — into a single release over the whole (sanitized) dataset.
    let merge_span = rec.span("merge");
    let all_chunks: Vec<ReleaseChunk> = match ckpt_dir {
        Some(dir) => {
            let mut all = Vec::with_capacity(chunk_idx);
            for i in 0..chunk_idx {
                let path = chunk_path(dir, i);
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| CliError::Run(format!("cannot read {path}: {e}")))?;
                all.push(serde_json::from_str(&text)?);
            }
            all
        }
        None => chunks,
    };
    let n_chunks = all_chunks.len();
    let merged = PublishedDataset {
        n_items: d,
        sensitive_items: sensitive.items().to_vec(),
        groups: merge_chunks(all_chunks)?,
    };
    // The chunks' rows were moved, not rebuilt from the data, and a chunk
    // read back from disk may have been edited: the whole-dataset check
    // of every member, row and count is what guards the merge.
    verify_published(rows.data(), &sensitive, &merged, p)
        .map_err(|e| CliError::Run(format!("merged stream release failed verification: {e}")))?;
    // Only the merged release is needed from here on.
    drop(rows);
    drop(merge_span);
    out.push_str(&format!(
        "method cahd (streaming), p {p}: {n_chunks} chunks, {} groups over {} transactions, \
         {} carried over, verified\n",
        merged.n_groups(),
        merged.n_transactions(),
        stream.carried_over(),
    ));
    let to_write = if args.has("strip-members") {
        merged.strip_members()
    } else {
        merged
    };
    write_release(args, &rec, &to_write, "release", out)
}

/// The groups of every chunk in chunk order, each moved out of its chunk
/// with its members renumbered to stream positions: members and QID rows
/// are reordered together by stream position (the rows in one gather),
/// and the sensitive summary (sorted by item, order-free) moves as it is.
/// A member that indexes past its chunk's stream positions, or a group
/// whose rows and members differ in number, fails the merge (a chunk file
/// can say anything).
fn merge_chunks(chunks: Vec<ReleaseChunk>) -> Result<Vec<AnonymizedGroup>, CliError> {
    let mut groups = Vec::new();
    let mut order: Vec<(u32, usize)> = Vec::new();
    let mut picks: Vec<usize> = Vec::new();
    for (ci, chunk) in chunks.into_iter().enumerate() {
        let ReleaseChunk {
            stream_ids,
            published,
        } = chunk;
        for (gi, mut g) in published.groups.into_iter().enumerate() {
            let bad = |what: String| {
                CliError::Run(format!("stream merge: chunk {ci}, group {gi}: {what}"))
            };
            if g.qid_rows.len() != g.members.len() {
                return Err(bad(format!(
                    "{} QID rows for {} members",
                    g.qid_rows.len(),
                    g.members.len()
                )));
            }
            order.clear();
            for (k, &m) in g.members.iter().enumerate() {
                let id = stream_ids
                    .get(m as usize)
                    .and_then(|&id| u32::try_from(id).ok())
                    .ok_or_else(|| {
                        bad(format!(
                            "member {m} has no stream position (the chunk holds {})",
                            stream_ids.len()
                        ))
                    })?;
                order.push((id, k));
            }
            order.sort_unstable();
            g.members.clear();
            g.members.extend(order.iter().map(|&(id, _)| id));
            picks.clear();
            picks.extend(order.iter().map(|&(_, k)| k));
            g.qid_rows = FlatRows::gather(g.qid_rows.rows(), &picks);
            groups.push(g);
        }
    }
    Ok(groups)
}

fn chunk_path(dir: &str, idx: usize) -> String {
    format!("{dir}/chunk-{idx:04}.json")
}

/// Writes a released chunk and the post-release checkpoint atomically
/// enough for the resume workflow: the chunk first, then the checkpoint
/// that says it was released (a crash between the two re-releases a chunk
/// file, which the next run simply overwrites with identical bytes).
fn persist_chunk(
    dir: &str,
    idx: usize,
    chunk: &ReleaseChunk,
    cp: &StreamingCheckpoint,
) -> Result<(), CliError> {
    write_json(&chunk_path(dir, idx), chunk)?;
    write_json(&format!("{dir}/checkpoint.json"), cp)
}

/// Writes `value` to `path` as compact JSON, streamed through a buffered
/// file writer: the bytes of [`serde_json::to_string`], without the text
/// ever existing whole in memory.
fn write_json<T: serde::Serialize + ?Sized>(path: &str, value: &T) -> Result<(), CliError> {
    let mut file = BufWriter::new(std::fs::File::create(path)?);
    serde_json::to_writer(&mut file, value)?;
    file.flush()?;
    Ok(())
}

/// `report <release.json>`: privacy audit of a release.
pub fn report(args: &Args) -> Result<String, CliError> {
    let release = load_release(args.positional(0, "release.json")?)?;
    let r = privacy_report(&release);
    let mut out = String::new();
    out.push_str(&format!("groups:                     {}\n", r.groups));
    out.push_str(&format!(
        "groups with sensitive item: {}\n",
        r.sensitive_groups
    ));
    out.push_str(&format!(
        "group sizes:                {}..{}\n",
        r.min_group_size, r.max_group_size
    ));
    out.push_str(&format!(
        "min privacy degree:         {:?}\n",
        r.min_privacy_degree
    ));
    out.push_str(&format!(
        "max association probability: {:.4}\n",
        r.max_association_probability
    ));
    if r.sensitive_groups > 0 {
        out.push_str(&format!(
            "min effective entropy-l:    {:.2}\n",
            r.min_effective_l
        ));
    }
    Ok(out)
}

/// Flags accepted by [`check`].
pub const CHECK_FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "p",
        takes_value: true,
    },
    FlagSpec {
        name: "json",
        takes_value: false,
    },
    FlagSpec {
        name: "trace",
        takes_value: true,
    },
    FlagSpec {
        name: "trace-json",
        takes_value: true,
    },
    FlagSpec {
        name: "seed",
        takes_value: true,
    },
];

/// `check <data.dat> <release.json> --p P [--json] [--trace trace.json]
/// [--trace-json out.json]`: run the full `cahd-check` pass registry and
/// report every diagnostic. With `--trace` the observability report
/// emitted by `anonymize --trace-json` is audited by the `CAHD-O001` pass
/// as well. `--trace-json` writes the check's own report: a root `check`
/// span with one `check/<pass>` child per pass (written before the
/// verdict, so a failing check leaves it too). Error-severity findings
/// make the command fail after the report is printed.
pub fn check(args: &Args) -> Result<String, CliError> {
    let rec = recorder_from_args(args);
    let (data, release) = {
        let _s = rec.span("ingest");
        let data = load(args.positional(0, "data.dat")?)?;
        let release = load_release(args.positional(1, "release.json")?)?;
        (data, release)
    };
    if rec.is_enabled() {
        // The audit's size: the row pairs the band-quality pass weighs
        // and the largest group any pass walks.
        let sizes = release.groups.iter().map(|g| g.size() as u64);
        let pairs = sizes.clone().map(|s| s * s.saturating_sub(1) / 2).sum();
        rec.add("check.band_pairs", pairs);
        rec.add("check.largest_group", sizes.max().unwrap_or(0));
    }
    let p: usize = args.parse_or("p", 2)?;
    let trace: Option<TraceReport> = match args.value("trace") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::Run(format!("cannot read {path}: {e}")))?;
            Some(serde_json::from_str(&text)?)
        }
        None => None,
    };
    // A sensitive id past the data's universe cannot be in the set the
    // passes audit against, so `CAHD-S002` reports the release.
    let sensitive = release_sensitive_set(&release, &data).unwrap_or_else(|_| {
        let d = data.n_items();
        let known = release.sensitive_items.iter().copied();
        SensitiveSet::new(known.filter(|&i| (i as usize) < d).collect(), d)
    });
    let plan = AttackPlan {
        seed: resolve_seed(args)?,
        ..AttackPlan::default()
    };
    let report = cahd_check::default_registry().run(
        &cahd_check::CheckInput {
            data: &data,
            sensitive: &sensitive,
            published: &release,
            p,
            trace: trace.as_ref(),
            attack: Some(&plan),
        },
        &rec,
    );
    let mut out = if args.has("json") {
        format!("{}\n", serde_json::to_string(&report)?)
    } else {
        report.render_human()
    };
    if let Some(path) = args.value("trace-json") {
        std::fs::write(path, serde_json::to_string_pretty(&rec.snapshot())?)?;
        // `--json` keeps stdout one JSON object.
        if !args.has("json") {
            out.push_str(&format!("trace written to {path}\n"));
        }
    }
    if report.is_clean() {
        Ok(out)
    } else {
        Err(CliError::Check(out))
    }
}

/// Flags accepted by [`lint`].
pub const LINT_FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "json",
        takes_value: false,
    },
    FlagSpec {
        name: "root",
        takes_value: true,
    },
];

/// `lint [--json] [--root DIR]`: run the `cahd-lint` static-analysis
/// registry over the workspace's own sources (see `docs/LINTS.md`) —
/// where `check` audits a finished release, `lint` audits the code that
/// produces releases. Findings make the command fail after the report is
/// printed, mirroring `check`.
pub fn lint(args: &Args) -> Result<String, CliError> {
    let root = match args.value("root") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => cahd_lint::discover_root().ok_or_else(|| {
            CliError::Usage(
                "no [workspace] Cargo.toml above the current directory; pass --root DIR".into(),
            )
        })?,
    };
    let report = cahd_lint::run_workspace(&root).map_err(|e| CliError::Run(e.to_string()))?;
    let out = if args.has("json") {
        format!("{}\n", report.render_json())
    } else {
        report.render_human()
    };
    if report.is_clean() {
        Ok(out)
    } else {
        Err(CliError::Check(out))
    }
}

/// Flags accepted by [`evaluate`].
pub const EVALUATE_FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "r",
        takes_value: true,
    },
    FlagSpec {
        name: "queries",
        takes_value: true,
    },
    FlagSpec {
        name: "seed",
        takes_value: true,
    },
    FlagSpec {
        name: "attack",
        takes_value: false,
    },
    FlagSpec {
        name: "trace-json",
        takes_value: true,
    },
];

/// `evaluate <data.dat> <release.json>`: reconstruction-error summary.
/// With `--attack`, the deterministic adversary suite runs against the
/// raw data and the release and the attacker-success curves are printed
/// alongside the KL summary (see `docs/ATTACKS.md`). `--trace-json`
/// writes the run's observability report: root spans `ingest` (the
/// `.dat` and the release read), `workload` (the query workload drawn)
/// and `eval` with its `eval/index` child, the `eval.*` counters, plus
/// the `attack/*` spans with `--attack`.
pub fn evaluate(args: &Args) -> Result<String, CliError> {
    let rec = recorder_from_args(args);
    let (data, release) = {
        let _s = rec.span("ingest");
        let data = load(args.positional(0, "data.dat")?)?;
        let release = load_release(args.positional(1, "release.json")?)?;
        (data, release)
    };
    require_canonical_rows(&release)?;
    let r: usize = args.parse_or("r", 4)?;
    let n_queries: usize = args.parse_or("queries", 100)?;
    let seed: u64 = resolve_seed(args)?;
    let sensitive = release_sensitive_set(&release, &data)?;
    let queries = {
        let _s = rec.span("workload");
        generate_workload_seeded(&data, &sensitive, r, n_queries, seed)
    };
    if queries.is_empty() {
        return Err(CliError::Run(
            "no queries could be generated (sensitive items absent?)".into(),
        ));
    }
    let trace_path = args.value("trace-json");
    let s = evaluate_workload_traced(&data, &release, &queries, &rec);
    let mut out = format!(
        "reconstruction error over {} queries (r = {r}): mean KL {:.4}, median {:.4}, max {:.4}, std {:.4}\n",
        s.n_queries, s.mean_kl, s.median_kl, s.max_kl, s.std_kl
    );
    if args.has("attack") {
        // Gate against the degree the release actually achieves; an
        // unbounded degree (no sensitive occurrence) has nothing to test.
        let p = release.privacy_degree().unwrap_or(0);
        let plan = AttackPlan {
            seed,
            ..AttackPlan::default()
        };
        let targets = [
            AttackTarget::raw(),
            AttackTarget::release("release", &release),
        ];
        let report = run_attack_suite(&data, &sensitive, p, &targets, &plan, &rec);
        out.push('\n');
        out.push_str(&render_attack_human(&report, p));
    }
    if let Some(path) = trace_path {
        std::fs::write(path, serde_json::to_string_pretty(&rec.snapshot())?)?;
        out.push_str(&format!("trace written to {path}\n"));
    }
    Ok(out)
}

/// Flags accepted by [`attack`].
pub const ATTACK_FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "p",
        takes_value: true,
    },
    FlagSpec {
        name: "json",
        takes_value: false,
    },
    FlagSpec {
        name: "seed",
        takes_value: true,
    },
    FlagSpec {
        name: "k",
        takes_value: true,
    },
    FlagSpec {
        name: "trials",
        takes_value: true,
    },
    FlagSpec {
        name: "attacker",
        takes_value: true,
    },
    FlagSpec {
        name: "phi",
        takes_value: true,
    },
    FlagSpec {
        name: "wrong",
        takes_value: true,
    },
    FlagSpec {
        name: "epsilon",
        takes_value: true,
    },
    FlagSpec {
        name: "max-unique",
        takes_value: true,
    },
    FlagSpec {
        name: "out",
        takes_value: true,
    },
    FlagSpec {
        name: "trace-json",
        takes_value: true,
    },
];

/// Renders an [`AttackReport`] for humans: one success-curve row per
/// (attacker, target, k), then the vulnerable-population scans and any
/// multi-release intersections.
fn render_attack_human(report: &AttackReport, p: usize) -> String {
    let mut out = format!(
        "attack replay: seed {}, posterior bound 1/{p}\n",
        report.seed
    );
    out.push_str(
        "attacker      target            k  trials  matches  unique  success  max post.\n",
    );
    for curve in &report.curves {
        for pt in &curve.points {
            out.push_str(&format!(
                "{:<12}  {:<14} {:>4} {:>7} {:>8} {:>7} {:>7.1}% {:>10.4}\n",
                curve.attacker,
                curve.target,
                pt.k,
                pt.trials,
                pt.matches,
                pt.unique_matches,
                pt.success_rate() * 100.0,
                pt.max_posterior,
            ));
        }
    }
    for v in &report.vulnerable {
        out.push_str(&format!(
            "vulnerable scan on `{}`: {}/{} rows within {:.0}% of the 1/{p} bound (max posterior {:.4})\n",
            v.target,
            v.vulnerable_rows,
            v.rows_scanned,
            v.epsilon * 100.0,
            v.max_posterior,
        ));
    }
    for i in &report.intersections {
        out.push_str(&format!(
            "intersection of {:?} at k = {}: {}/{} trials composed, {} narrowed, {} unique, max composed posterior {:.4}\n",
            i.targets,
            i.k,
            i.composed_trials,
            i.trials,
            i.narrowed_trials,
            i.unique_matches,
            i.max_composed_posterior,
        ));
    }
    out
}

/// `attack <data.dat> <release.json> [more.json ...] --p P`: replay the
/// deterministic adversary suite (background-knowledge scoring, linkage,
/// vulnerable-population scan, and — with several releases — the
/// multi-release intersection attack) against the raw data and every
/// given release. Prints attacker-success curves; `--json` emits the
/// whole [`AttackReport`] instead, `--out` writes it to disk and
/// `--trace-json` writes the audited `eval.attack_*` observability
/// report. The command fails when any release posterior exceeds
/// `1/p + tolerance` or the unique-match budget (`--max-unique`) is
/// blown — the same gate as the `CAHD-A001` check pass.
pub fn attack(args: &Args) -> Result<String, CliError> {
    let data = load(args.positional(0, "data.dat")?)?;
    let p: usize = args.parse_or("p", 0).and_then(|p: usize| {
        if p == 0 {
            Err(CliError::Usage("--p <degree> is required".into()))
        } else {
            Ok(p)
        }
    })?;
    if args.n_positionals() < 2 {
        return Err(CliError::Usage("missing <release.json>".into()));
    }
    let mut releases: Vec<(String, PublishedDataset)> = Vec::new();
    for i in 1..args.n_positionals() {
        let path = args.positional(i, "release.json")?;
        let name = Path::new(path).file_stem().map_or_else(
            || format!("release{i}"),
            |s| s.to_string_lossy().into_owned(),
        );
        releases.push((name, load_release(path)?));
    }
    let sensitive = release_sensitive_set(&releases[0].1, &data)?;
    for (name, rel) in &releases {
        if rel.sensitive_items != releases[0].1.sensitive_items {
            return Err(CliError::Usage(format!(
                "release `{name}` declares different sensitive items than `{}`",
                releases[0].0
            )));
        }
    }

    let mut plan = AttackPlan {
        seed: resolve_seed(args)?,
        ..AttackPlan::default()
    };
    if let Some(ks) = args.parse_list("k")? {
        plan.ks = ks.into_iter().map(|k| k as usize).collect();
    }
    plan.trials = args.parse_or("trials", plan.trials)?;
    plan.phi = args.parse_or("phi", plan.phi)?;
    plan.wrong_items = args.parse_or("wrong", plan.wrong_items)?;
    plan.epsilon = args.parse_or("epsilon", plan.epsilon)?;
    plan.max_unique_match_rate = args.parse_or("max-unique", plan.max_unique_match_rate)?;
    match args.value("attacker") {
        None | Some("all") => {}
        Some(a) if plan.wants(a) => plan = plan.with_attackers(vec![a.to_string()]),
        Some(a) => {
            return Err(CliError::Usage(format!(
            "unknown attacker {a:?}; expected all, background, linkage, intersection or vulnerable"
        )))
        }
    }

    let mut targets = vec![AttackTarget::raw()];
    for (name, rel) in &releases {
        targets.push(AttackTarget::release(name, rel));
    }
    let trace_path = args.value("trace-json");
    let rec = recorder_from_args(args);
    let report = run_attack_suite(&data, &sensitive, p, &targets, &plan, &rec);
    if let Some(path) = trace_path {
        std::fs::write(path, serde_json::to_string_pretty(&rec.snapshot())?)?;
    }
    if let Some(path) = args.value("out") {
        std::fs::write(path, serde_json::to_string_pretty(&report)?)?;
    }

    let mut violations = posterior_violations(&report, p, plan.tolerance);
    violations.extend(unique_match_violations(&report, plan.max_unique_match_rate));
    let mut out = if args.has("json") {
        format!("{}\n", serde_json::to_string(&report)?)
    } else {
        render_attack_human(&report, p)
    };
    if violations.is_empty() {
        Ok(out)
    } else {
        if !args.has("json") {
            for v in &violations {
                out.push_str(&format!("VIOLATION: {v}\n"));
            }
        }
        Err(CliError::Check(out))
    }
}

fn sensitive_from_args(
    args: &Args,
    data: &TransactionSet,
    p: usize,
    seed: u64,
) -> Result<SensitiveSet, CliError> {
    if let Some(items) = args.parse_list("sensitive")? {
        if let Some(&bad) = items.iter().find(|&&i| i as usize >= data.n_items()) {
            return Err(CliError::Usage(format!(
                "--sensitive: item {bad} out of range (universe {})",
                data.n_items()
            )));
        }
        return Ok(SensitiveSet::new(items, data.n_items()));
    }
    if let Some(m) = args.value("random-m") {
        let m: usize = m
            .parse()
            .map_err(|_| CliError::Usage("--random-m: not a number".into()))?;
        let mut rng = StdRng::seed_from_u64(seed);
        return SensitiveSet::select_random(data, m, p, &mut rng)
            .map_err(|e| CliError::Run(e.to_string()));
    }
    Err(CliError::Usage(
        "one of --sensitive <ids> or --random-m <m> is required".into(),
    ))
}

fn load(path: &str) -> Result<TransactionSet, CliError> {
    if !Path::new(path).exists() {
        return Err(CliError::Run(format!("no such file: {path}")));
    }
    Ok(io::read_dat_file(path, None)?)
}

/// Rejects a release with a QID row that is not strictly ascending or
/// that names an item outside its universe. The workload index answers
/// cell membership by postings, which equals eq. (2)'s per-row lookup only
/// on such canonical rows.
fn require_canonical_rows(release: &PublishedDataset) -> Result<(), CliError> {
    for (gi, group) in release.groups.iter().enumerate() {
        for (ri, row) in group.qid_rows.iter().enumerate() {
            let fault = if let Some(w) = row.windows(2).find(|w| w[0] >= w[1]) {
                format!("items not strictly ascending ({} then {})", w[0], w[1])
            } else if let Some(&item) = row.last().filter(|&&i| i as usize >= release.n_items) {
                format!(
                    "item {item} outside the universe of {} items",
                    release.n_items
                )
            } else {
                continue;
            };
            return Err(CliError::Run(format!(
                "release group {gi}, QID row {ri}: {fault}"
            )));
        }
    }
    Ok(())
}

/// The sensitive set `release` declares, over `data`'s item universe.
///
/// # Errors
/// [`CliError::Run`] when the release names a sensitive id outside that
/// universe: the release was not made from this data.
fn release_sensitive_set(
    release: &PublishedDataset,
    data: &TransactionSet,
) -> Result<SensitiveSet, CliError> {
    let d = data.n_items();
    match release.sensitive_items.iter().find(|&&i| i as usize >= d) {
        Some(bad) => Err(CliError::Run(format!(
            "release names sensitive item {bad}, outside the data's universe of {d} items"
        ))),
        None => Ok(SensitiveSet::new(release.sensitive_items.clone(), d)),
    }
}

fn load_release(path: &str) -> Result<PublishedDataset, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Run(format!("cannot read {path}: {e}")))?;
    Ok(serde_json::from_str(&text)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("cahd_cli_{}_{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    fn parse(spec: &[FlagSpec], argv: &[&str]) -> Args {
        let v: Vec<String> = argv.iter().map(std::string::ToString::to_string).collect();
        Args::parse(&v, spec).unwrap()
    }

    #[test]
    fn generate_stats_roundtrip() {
        let f = tmp("gen.dat");
        let out = generate(&parse(
            GENERATE_FLAGS,
            &[
                "quest",
                "--out",
                &f,
                "--transactions",
                "200",
                "--items",
                "50",
                "--seed",
                "1",
            ],
        ))
        .unwrap();
        assert!(out.contains("wrote"));
        let s = stats(&parse(&[], &[&f])).unwrap();
        assert!(s.contains("200 transactions"), "{s}");
        std::fs::remove_file(&f).ok();
    }

    #[test]
    fn anonymize_check_evaluate_flow() {
        let data_f = tmp("flow.dat");
        let rel_f = tmp("flow.json");
        generate(&parse(
            GENERATE_FLAGS,
            &[
                "quest",
                "--out",
                &data_f,
                "--transactions",
                "400",
                "--items",
                "60",
                "--seed",
                "2",
            ],
        ))
        .unwrap();
        let out = anonymize(&parse(
            ANONYMIZE_FLAGS,
            &[&data_f, "--p", "5", "--random-m", "4", "--out", &rel_f],
        ))
        .unwrap();
        assert!(out.contains("verified"), "{out}");
        let v = check(&parse(CHECK_FLAGS, &[&data_f, &rel_f, "--p", "5"])).unwrap();
        assert!(v.contains("check: PASS"), "{v}");
        let e = evaluate(&parse(EVALUATE_FLAGS, &[&data_f, &rel_f, "--r", "3"])).unwrap();
        assert!(e.contains("mean KL"));
        std::fs::remove_file(&data_f).ok();
        std::fs::remove_file(&rel_f).ok();
    }

    #[test]
    fn ordering_flag_selects_strategy_and_rejects_unknown() {
        let data_f = tmp("ordering.dat");
        generate(&parse(
            GENERATE_FLAGS,
            &[
                "quest",
                "--out",
                &data_f,
                "--transactions",
                "300",
                "--items",
                "50",
                "--seed",
                "7",
            ],
        ))
        .unwrap();
        for strategy in ["rcm", "bfs", "cluster"] {
            let out = anonymize(&parse(
                ANONYMIZE_FLAGS,
                &[
                    &data_f,
                    "--p",
                    "4",
                    "--random-m",
                    "4",
                    "--ordering",
                    strategy,
                ],
            ))
            .unwrap();
            assert!(out.contains("verified"), "--ordering {strategy}: {out}");
        }
        let err = anonymize(&parse(
            ANONYMIZE_FLAGS,
            &[&data_f, "--p", "4", "--random-m", "4", "--ordering", "zig"],
        ))
        .unwrap_err();
        assert!(
            err.to_string().contains("unknown ordering strategy"),
            "{err}"
        );
        std::fs::remove_file(&data_f).ok();
    }

    #[test]
    fn refine_flag_produces_valid_release() {
        let data_f = tmp("refine.dat");
        generate(&parse(
            GENERATE_FLAGS,
            &[
                "quest",
                "--out",
                &data_f,
                "--transactions",
                "400",
                "--items",
                "60",
                "--seed",
                "21",
            ],
        ))
        .unwrap();
        let out = anonymize(&parse(
            ANONYMIZE_FLAGS,
            &[&data_f, "--p", "5", "--random-m", "4", "--refine"],
        ))
        .unwrap();
        assert!(out.contains("verified"), "{out}");
        std::fs::remove_file(&data_f).ok();
    }

    #[test]
    fn all_methods_work() {
        let data_f = tmp("methods.dat");
        generate(&parse(
            GENERATE_FLAGS,
            &[
                "quest",
                "--out",
                &data_f,
                "--transactions",
                "300",
                "--items",
                "40",
                "--seed",
                "3",
            ],
        ))
        .unwrap();
        for method in ["cahd", "pm", "random"] {
            let out = anonymize(&parse(
                ANONYMIZE_FLAGS,
                &[&data_f, "--p", "4", "--random-m", "3", "--method", method],
            ))
            .unwrap();
            assert!(out.contains("verified"), "{method}: {out}");
        }
        std::fs::remove_file(&data_f).ok();
    }

    #[test]
    fn sharded_anonymize_verifies_and_one_shard_matches_sequential() {
        let data_f = tmp("shards.dat");
        let rel_seq = tmp("shards_seq.json");
        let rel_one = tmp("shards_one.json");
        let rel_par = tmp("shards_par.json");
        generate(&parse(
            GENERATE_FLAGS,
            &[
                "quest",
                "--out",
                &data_f,
                "--transactions",
                "400",
                "--items",
                "60",
                "--seed",
                "11",
            ],
        ))
        .unwrap();
        let base = ["--p", "5", "--random-m", "4"];
        let run = |rel: &str, extra: &[&str]| {
            let mut argv = vec![data_f.as_str()];
            argv.extend_from_slice(&base);
            argv.extend_from_slice(extra);
            argv.extend_from_slice(&["--out", rel]);
            anonymize(&parse(ANONYMIZE_FLAGS, &argv)).unwrap()
        };
        run(&rel_seq, &[]);
        // shards=1 with extra threads must reproduce the sequential release.
        run(&rel_one, &["--shards", "1", "--threads", "4"]);
        assert_eq!(
            load_release(&rel_seq).unwrap(),
            load_release(&rel_one).unwrap()
        );
        // A genuinely sharded run passes verification (checked inside
        // `anonymize`) and still covers every transaction.
        let out = run(&rel_par, &["--shards", "4", "--threads", "2"]);
        assert!(out.contains("verified"), "{out}");
        assert_eq!(load_release(&rel_par).unwrap().n_transactions(), 400);
        for f in [&data_f, &rel_seq, &rel_one, &rel_par] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn audit_reports_each_k() {
        let data_f = tmp("audit.dat");
        generate(&parse(
            GENERATE_FLAGS,
            &["bms1", "--out", &data_f, "--scale", "0.005", "--seed", "4"],
        ))
        .unwrap();
        let out = audit(&parse(
            AUDIT_FLAGS,
            &[&data_f, "--max-k", "2", "--trials", "500"],
        ))
        .unwrap();
        assert!(out.contains("1 ->"));
        assert!(out.contains("2 ->"));
        std::fs::remove_file(&data_f).ok();
    }

    #[test]
    fn weighted_anonymize_and_report() {
        let data_f = tmp("weighted.wdat");
        let rel_f = tmp("weighted.json");
        // Hand-build a small .wdat: items 0..3 QID-ish, item 3 sensitive.
        let mut lines = String::new();
        for i in 0..60 {
            let sens = if i % 12 == 0 { " 3:1" } else { "" };
            lines.push_str(&format!("{}:2 {}:1{}\n", i % 2, 2, sens));
        }
        std::fs::write(&data_f, lines).unwrap();
        let out = anonymize(&parse(
            ANONYMIZE_FLAGS,
            &[
                &data_f,
                "--weighted",
                "--p",
                "4",
                "--sensitive",
                "3",
                "--out",
                &rel_f,
                "--metrics",
                "--memory",
            ],
        ))
        .unwrap();
        assert!(out.contains("weighted"), "{out}");
        // The weighted path is traced now: `--metrics` renders the span
        // tree instead of being rejected. This test binary does not run
        // the tracking allocator, so `--memory` degrades to the plain
        // wall-clock report instead of producing a memory block.
        assert!(out.contains("spans:"), "{out}");
        assert!(!out.contains("memory (tracking allocator"), "{out}");
        assert!(std::fs::read_to_string(&rel_f)
            .unwrap()
            .contains("qid_rows"));
        std::fs::remove_file(&data_f).ok();
        std::fs::remove_file(&rel_f).ok();
    }

    #[test]
    fn report_summarizes_release() {
        let data_f = tmp("report.dat");
        let rel_f = tmp("report.json");
        generate(&parse(
            GENERATE_FLAGS,
            &[
                "quest",
                "--out",
                &data_f,
                "--transactions",
                "300",
                "--items",
                "40",
                "--seed",
                "9",
            ],
        ))
        .unwrap();
        anonymize(&parse(
            ANONYMIZE_FLAGS,
            &[&data_f, "--p", "5", "--random-m", "4", "--out", &rel_f],
        ))
        .unwrap();
        let out = report(&parse(&[], &[&rel_f])).unwrap();
        assert!(
            out.contains("min privacy degree:         Some(5)")
                || out.contains("min privacy degree:"),
            "{out}"
        );
        assert!(out.contains("max association probability"));
        std::fs::remove_file(&data_f).ok();
        std::fs::remove_file(&rel_f).ok();
    }

    #[test]
    fn lint_passthrough_reports_clean_workspace() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root")
            .to_string_lossy()
            .into_owned();
        let out = lint(&parse(LINT_FLAGS, &["--root", &root, "--json"])).unwrap();
        assert!(out.contains("\"clean\":true"), "{out}");
        let human = lint(&parse(LINT_FLAGS, &["--root", &root])).unwrap();
        assert!(human.contains("lint: PASS"), "{human}");
    }

    #[test]
    fn check_clean_and_tampered() {
        let data_f = tmp("check.dat");
        let rel_f = tmp("check.json");
        generate(&parse(
            GENERATE_FLAGS,
            &[
                "quest",
                "--out",
                &data_f,
                "--transactions",
                "300",
                "--items",
                "40",
                "--seed",
                "7",
            ],
        ))
        .unwrap();
        anonymize(&parse(
            ANONYMIZE_FLAGS,
            &[&data_f, "--p", "4", "--random-m", "3", "--out", &rel_f],
        ))
        .unwrap();
        let ok = check(&parse(CHECK_FLAGS, &[&data_f, &rel_f, "--p", "4"])).unwrap();
        assert!(ok.contains("check: PASS"), "{ok}");
        let json = check(&parse(
            CHECK_FLAGS,
            &[&data_f, &rel_f, "--p", "4", "--json"],
        ))
        .unwrap();
        assert!(json.contains("\"clean\":true"), "{json}");

        // Tamper with the release on disk: point a member out of range and
        // scramble a QID row, then expect a failing check naming both codes.
        let mut release = load_release(&rel_f).unwrap();
        release.groups[0].members[0] = 9_999;
        release.groups[0]
            .qid_rows
            .edit_rows(|rows| rows[1] = vec![0]);
        std::fs::write(&rel_f, serde_json::to_string(&release).unwrap()).unwrap();
        let err = check(&parse(
            CHECK_FLAGS,
            &[&data_f, &rel_f, "--p", "4", "--json"],
        ));
        let Err(CliError::Check(out)) = err else {
            panic!("expected CliError::Check, got {err:?}");
        };
        assert!(out.contains("\"clean\":false"), "{out}");
        assert!(out.contains("CAHD-C002"), "{out}");
        assert!(out.contains("CAHD-Q001"), "{out}");
        std::fs::remove_file(&data_f).ok();
        std::fs::remove_file(&rel_f).ok();
    }

    #[test]
    fn traced_anonymize_check_and_evaluate_flow() {
        let data_f = tmp("trace.dat");
        let rel_f = tmp("trace_rel.json");
        let trace_f = tmp("trace_report.json");
        generate(&parse(
            GENERATE_FLAGS,
            &[
                "quest",
                "--out",
                &data_f,
                "--transactions",
                "400",
                "--items",
                "60",
                "--seed",
                "13",
            ],
        ))
        .unwrap();
        let out = anonymize(&parse(
            ANONYMIZE_FLAGS,
            &[
                &data_f,
                "--p",
                "5",
                "--random-m",
                "4",
                "--shards",
                "4",
                "--threads",
                "2",
                "--out",
                &rel_f,
                "--trace-json",
                &trace_f,
                "--metrics",
            ],
        ))
        .unwrap();
        assert!(out.contains("trace written to"), "{out}");
        assert!(out.contains("core.groups_formed"), "{out}");
        // The emitted report round-trips and passes the CAHD-O001 audit.
        let trace: TraceReport =
            serde_json::from_str(&std::fs::read_to_string(&trace_f).unwrap()).unwrap();
        assert!(trace.span("pipeline/group/merge").is_some());
        let ok = check(&parse(
            CHECK_FLAGS,
            &[&data_f, &rel_f, "--p", "5", "--trace", &trace_f],
        ))
        .unwrap();
        assert!(ok.contains("check: PASS"), "{ok}");
        // A truncated trace (merge span gone, counters kept) fails it.
        let mut bad = trace.clone();
        bad.spans.retain(|s| s.path != "pipeline/group");
        std::fs::write(&trace_f, serde_json::to_string(&bad).unwrap()).unwrap();
        let err = check(&parse(
            CHECK_FLAGS,
            &[&data_f, &rel_f, "--p", "5", "--trace", &trace_f],
        ));
        let Err(CliError::Check(out)) = err else {
            panic!("expected CliError::Check, got {err:?}");
        };
        assert!(out.contains("CAHD-O001"), "{out}");
        // Tracing an uninstrumented baseline is a usage error.
        assert!(matches!(
            anonymize(&parse(
                ANONYMIZE_FLAGS,
                &[
                    &data_f,
                    "--p",
                    "5",
                    "--random-m",
                    "4",
                    "--method",
                    "pm",
                    "--metrics"
                ],
            )),
            Err(CliError::Usage(_))
        ));
        // A traced evaluate records the whole command (reading the inputs,
        // drawing the workload, answering it); its trace passes CAHD-O001
        // and its stdout is the untraced run's plus one line.
        let eval_f = tmp("trace_eval.json");
        let plain = evaluate(&parse(EVALUATE_FLAGS, &[&data_f, &rel_f])).unwrap();
        let traced = evaluate(&parse(
            EVALUATE_FLAGS,
            &[&data_f, &rel_f, "--trace-json", &eval_f],
        ))
        .unwrap();
        assert_eq!(traced, format!("{plain}trace written to {eval_f}\n"));
        let trace: TraceReport =
            serde_json::from_str(&std::fs::read_to_string(&eval_f).unwrap()).unwrap();
        for path in ["ingest", "workload", "eval", "eval/index"] {
            assert!(trace.span(path).is_some(), "missing {path}");
        }
        assert_eq!(trace.counter("eval.queries"), Some(100));
        let ok = check(&parse(
            CHECK_FLAGS,
            &[&data_f, &rel_f, "--p", "5", "--trace", &eval_f],
        ))
        .unwrap();
        assert!(ok.contains("check: PASS"), "{ok}");
        std::fs::remove_file(&eval_f).ok();
        for f in [&data_f, &rel_f, &trace_f] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn bad_input_policies_reject_or_quarantine() {
        let data_f = tmp("badinput.dat");
        let rel_f = tmp("badinput.json");
        let mut lines = String::new();
        for i in 0..12 {
            lines.push_str(&format!("{}\n", i % 4));
        }
        lines.push_str("0 5\n1 5\n");
        lines.push_str("2 2\n"); // corrupt: duplicate item (row 14)
        std::fs::write(&data_f, &lines).unwrap();
        let base = [data_f.as_str(), "--p", "2", "--sensitive", "5"];
        // Strict names the offending row and fails.
        let mut argv = base.to_vec();
        argv.extend_from_slice(&["--bad-input", "strict"]);
        let err = anonymize(&parse(ANONYMIZE_FLAGS, &argv));
        let Err(CliError::Run(msg)) = err else {
            panic!("expected CliError::Run, got {err:?}");
        };
        assert!(msg.contains("corrupt input row 14"), "{msg}");
        // Quarantine publishes everything, corrupt row included.
        let mut argv = base.to_vec();
        argv.extend_from_slice(&["--bad-input", "quarantine", "--out", &rel_f]);
        let out = anonymize(&parse(ANONYMIZE_FLAGS, &argv)).unwrap();
        assert!(out.contains("1 quarantined rows"), "{out}");
        assert!(out.contains("verified"), "{out}");
        assert_eq!(load_release(&rel_f).unwrap().n_transactions(), 15);
        // A clean file under strict is byte-identical to the default path.
        let clean_f = tmp("badinput_clean.dat");
        let rel_def = tmp("badinput_def.json");
        let rel_strict = tmp("badinput_strict.json");
        std::fs::write(&clean_f, lines.replace("2 2\n", "2 3\n")).unwrap();
        let clean = [clean_f.as_str(), "--p", "2", "--sensitive", "5"];
        let mut argv = clean.to_vec();
        argv.extend_from_slice(&["--out", &rel_def]);
        anonymize(&parse(ANONYMIZE_FLAGS, &argv)).unwrap();
        let mut argv = clean.to_vec();
        argv.extend_from_slice(&["--bad-input", "strict", "--out", &rel_strict]);
        anonymize(&parse(ANONYMIZE_FLAGS, &argv)).unwrap();
        assert_eq!(
            std::fs::read(&rel_def).unwrap(),
            std::fs::read(&rel_strict).unwrap()
        );
        for f in [&data_f, &rel_f, &clean_f, &rel_def, &rel_strict] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn streaming_pause_and_resume_match_an_uninterrupted_run() {
        let data_f = tmp("stream.dat");
        let rel_one = tmp("stream_one.json");
        let rel_two = tmp("stream_two.json");
        let ckpt = tmp("stream_ckpt");
        let mut lines = String::new();
        for i in 0..180 {
            let sens = if i % 20 == 0 { " 9" } else { "" };
            lines.push_str(&format!("{} {}{sens}\n", i % 5, 5 + i % 3));
        }
        std::fs::write(&data_f, lines).unwrap();
        let base = [data_f.as_str(), "--p", "3", "--sensitive", "9"];
        // Uninterrupted streaming run, no checkpointing.
        let mut argv = base.to_vec();
        argv.extend_from_slice(&["--stream-batch", "50", "--out", &rel_one]);
        let out = anonymize(&parse(ANONYMIZE_FLAGS, &argv)).unwrap();
        assert!(out.contains("streaming"), "{out}");
        assert!(out.contains("verified"), "{out}");
        // Same stream, paused after 2 batches, then resumed.
        let mut argv = base.to_vec();
        argv.extend_from_slice(&[
            "--stream-batch",
            "50",
            "--checkpoint",
            &ckpt,
            "--max-batches",
            "2",
        ]);
        let out = anonymize(&parse(ANONYMIZE_FLAGS, &argv)).unwrap();
        assert!(out.contains("paused after 2 batches"), "{out}");
        assert!(Path::new(&format!("{ckpt}/checkpoint.json")).exists());
        let mut argv = base.to_vec();
        argv.extend_from_slice(&[
            "--stream-batch",
            "50",
            "--checkpoint",
            &ckpt,
            "--resume",
            "--out",
            &rel_two,
        ]);
        let out = anonymize(&parse(ANONYMIZE_FLAGS, &argv)).unwrap();
        assert!(out.contains("resumed from"), "{out}");
        assert_eq!(
            load_release(&rel_one).unwrap(),
            load_release(&rel_two).unwrap()
        );
        // The released chunks themselves verify: the merged release covers
        // all 180 transactions.
        assert_eq!(load_release(&rel_two).unwrap().n_transactions(), 180);
        // A tampered checkpoint fails closed on resume.
        let cp_path = format!("{ckpt}/checkpoint.json");
        let tampered = std::fs::read_to_string(&cp_path)
            .unwrap()
            .replace("\"finished\":true", "\"finished\":false");
        std::fs::write(&cp_path, tampered).unwrap();
        let mut argv = base.to_vec();
        argv.extend_from_slice(&["--stream-batch", "50", "--checkpoint", &ckpt, "--resume"]);
        let err = anonymize(&parse(ANONYMIZE_FLAGS, &argv));
        let Err(CliError::Run(msg)) = err else {
            panic!("expected CliError::Run, got {err:?}");
        };
        assert!(msg.contains("corrupt checkpoint"), "{msg}");
        std::fs::remove_file(&data_f).ok();
        std::fs::remove_file(&rel_one).ok();
        std::fs::remove_file(&rel_two).ok();
        std::fs::remove_dir_all(&ckpt).ok();
    }

    #[test]
    fn streaming_flag_dependencies_are_enforced() {
        assert!(matches!(
            anonymize(&parse(
                ANONYMIZE_FLAGS,
                &[
                    "/nonexistent.dat",
                    "--p",
                    "2",
                    "--sensitive",
                    "1",
                    "--resume"
                ],
            )),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            anonymize(&parse(
                ANONYMIZE_FLAGS,
                &[
                    "/nonexistent.dat",
                    "--p",
                    "4",
                    "--sensitive",
                    "1",
                    "--stream-batch",
                    "5",
                ],
            )),
            Err(CliError::Usage(_)) // 5 < 2p
        ));
        assert!(matches!(
            anonymize(&parse(
                ANONYMIZE_FLAGS,
                &[
                    "/nonexistent.dat",
                    "--p",
                    "2",
                    "--random-m",
                    "2",
                    "--stream-batch",
                    "8",
                ],
            )),
            Err(CliError::Usage(_)) // streaming needs explicit --sensitive
        ));
        assert!(matches!(
            anonymize(&parse(
                ANONYMIZE_FLAGS,
                &[
                    "/nonexistent.dat",
                    "--p",
                    "2",
                    "--sensitive",
                    "1",
                    "--bad-input",
                    "lenient",
                ],
            )),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn errors_are_reported() {
        assert!(matches!(
            stats(&parse(&[], &["/nonexistent/file.dat"])),
            Err(CliError::Run(_))
        ));
        assert!(matches!(
            anonymize(&parse(ANONYMIZE_FLAGS, &["/nonexistent.dat", "--p", "5"])),
            Err(CliError::Run(_))
        ));
        assert!(matches!(
            generate(&parse(GENERATE_FLAGS, &["bogus", "--out", "/tmp/x.dat"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn explicit_sensitive_items_and_strip() {
        let data_f = tmp("strip.dat");
        let rel_f = tmp("strip.json");
        generate(&parse(
            GENERATE_FLAGS,
            &[
                "quest",
                "--out",
                &data_f,
                "--transactions",
                "300",
                "--items",
                "40",
                "--seed",
                "5",
            ],
        ))
        .unwrap();
        // Find a low-support item to declare sensitive.
        let data = load(&data_f).unwrap();
        let supports = data.item_supports();
        let item = (0..40u32)
            .rfind(|&i| supports[i as usize] >= 1 && supports[i as usize] * 4 <= 300)
            .unwrap();
        anonymize(&parse(
            ANONYMIZE_FLAGS,
            &[
                &data_f,
                "--p",
                "4",
                "--sensitive",
                &item.to_string(),
                "--strip-members",
                "--out",
                &rel_f,
            ],
        ))
        .unwrap();
        let rel = load_release(&rel_f).unwrap();
        assert!(rel.groups.iter().all(|g| g.members.is_empty()));
        std::fs::remove_file(&data_f).ok();
        std::fs::remove_file(&rel_f).ok();
    }

    /// A small dataset + CAHD release pair on disk for the attack tests.
    fn attack_fixture(tag: &str) -> (String, String) {
        let data_f = tmp(&format!("atk_{tag}.dat"));
        let rel_f = tmp(&format!("atk_{tag}.json"));
        generate(&parse(
            GENERATE_FLAGS,
            &[
                "quest",
                "--out",
                &data_f,
                "--transactions",
                "300",
                "--items",
                "40",
                "--seed",
                "9",
            ],
        ))
        .unwrap();
        anonymize(&parse(
            ANONYMIZE_FLAGS,
            &[&data_f, "--p", "4", "--random-m", "3", "--out", &rel_f],
        ))
        .unwrap();
        (data_f, rel_f)
    }

    #[test]
    fn attack_flow_clean_release_passes_the_gate() {
        let (data_f, rel_f) = attack_fixture("flow");
        let out = attack(&parse(
            ATTACK_FLAGS,
            &[
                &data_f, &rel_f, "--p", "4", "--seed", "7", "--k", "1,2", "--trials", "150",
            ],
        ))
        .unwrap();
        assert!(out.contains("attack replay: seed 7"), "{out}");
        assert!(out.contains("background"), "{out}");
        assert!(out.contains("vulnerable scan"), "{out}");
        // Same seed, same numbers — the replay is deterministic.
        let again = attack(&parse(
            ATTACK_FLAGS,
            &[
                &data_f, &rel_f, "--p", "4", "--seed", "7", "--k", "1,2", "--trials", "150",
            ],
        ))
        .unwrap();
        assert_eq!(out, again);
        std::fs::remove_file(&data_f).ok();
        std::fs::remove_file(&rel_f).ok();
    }

    #[test]
    fn attack_json_and_report_out() {
        let (data_f, rel_f) = attack_fixture("json");
        let report_f = tmp("atk_report.json");
        let out = attack(&parse(
            ATTACK_FLAGS,
            &[
                &data_f,
                &rel_f,
                "--p",
                "4",
                "--json",
                "--trials",
                "100",
                "--attacker",
                "background",
                "--out",
                &report_f,
            ],
        ))
        .unwrap();
        assert!(out.contains("\"curves\""), "{out}");
        assert!(!out.contains("linkage"), "single-attacker run: {out}");
        let written = std::fs::read_to_string(&report_f).unwrap();
        assert!(written.contains("\"curves\""));
        std::fs::remove_file(&data_f).ok();
        std::fs::remove_file(&rel_f).ok();
        std::fs::remove_file(&report_f).ok();
    }

    #[test]
    fn attack_gates_leaky_release() {
        let (data_f, rel_f) = attack_fixture("leaky");
        // Tamper: publish the first group's rows as singleton groups, so a
        // sensitive-bearing row gets posterior 1.0 > 1/4.
        let data = load(&data_f).unwrap();
        let release = load_release(&rel_f).unwrap();
        let sens = SensitiveSet::new(release.sensitive_items.clone(), data.n_items());
        let mut groups = Vec::new();
        for g in &release.groups {
            if groups.is_empty() && g.sensitive_counts.iter().any(|&(_, c)| c > 0) {
                for &m in &g.members {
                    groups.push(AnonymizedGroup::from_members(&data, &sens, &[m]));
                }
            } else {
                groups.push(g.clone());
            }
        }
        let leaky = PublishedDataset {
            n_items: release.n_items,
            sensitive_items: release.sensitive_items.clone(),
            groups,
        };
        let leaky_f = tmp("atk_leaky_rel.json");
        std::fs::write(&leaky_f, serde_json::to_string(&leaky).unwrap()).unwrap();
        let res = attack(&parse(
            ATTACK_FLAGS,
            &[&data_f, &leaky_f, "--p", "4", "--trials", "100"],
        ));
        match res {
            Err(CliError::Check(out)) => assert!(out.contains("VIOLATION"), "{out}"),
            other => panic!("leaky release must fail the gate, got {other:?}"),
        }
        std::fs::remove_file(&data_f).ok();
        std::fs::remove_file(&rel_f).ok();
        std::fs::remove_file(&leaky_f).ok();
    }

    #[test]
    fn attack_intersection_of_two_releases() {
        let (data_f, rel_f) = attack_fixture("inter");
        // Second release of the same data: PermMondrian over the same
        // sensitive items.
        let data = load(&data_f).unwrap();
        let release = load_release(&rel_f).unwrap();
        let sens = SensitiveSet::new(release.sensitive_items.clone(), data.n_items());
        let (pm, _) = perm_mondrian(&data, &sens, &PmConfig::new(4)).unwrap();
        let pm_f = tmp("atk_inter_pm.json");
        std::fs::write(&pm_f, serde_json::to_string(&pm).unwrap()).unwrap();
        let out = attack(&parse(
            ATTACK_FLAGS,
            &[
                &data_f, &rel_f, &pm_f, "--p", "4", "--trials", "60", "--k", "2",
            ],
        ))
        .unwrap();
        assert!(out.contains("intersection of"), "{out}");
        std::fs::remove_file(&data_f).ok();
        std::fs::remove_file(&rel_f).ok();
        std::fs::remove_file(&pm_f).ok();
    }

    #[test]
    fn attack_usage_errors() {
        let (data_f, rel_f) = attack_fixture("usage");
        assert!(matches!(
            attack(&parse(ATTACK_FLAGS, &[&data_f, &rel_f])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            attack(&parse(ATTACK_FLAGS, &[&data_f, "--p", "4"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            attack(&parse(
                ATTACK_FLAGS,
                &[&data_f, &rel_f, "--p", "4", "--attacker", "bogus"]
            )),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_file(&data_f).ok();
        std::fs::remove_file(&rel_f).ok();
    }

    #[test]
    fn evaluate_attack_flag_appends_curves() {
        let (data_f, rel_f) = attack_fixture("evalatk");
        let out = evaluate(&parse(
            EVALUATE_FLAGS,
            &[&data_f, &rel_f, "--r", "3", "--attack"],
        ))
        .unwrap();
        assert!(out.contains("mean KL"), "{out}");
        assert!(out.contains("attack replay"), "{out}");
        std::fs::remove_file(&data_f).ok();
        std::fs::remove_file(&rel_f).ok();
    }

    #[test]
    fn check_runs_attack_regression_pass() {
        let (data_f, rel_f) = attack_fixture("check");
        let out = check(&parse(
            CHECK_FLAGS,
            &[&data_f, &rel_f, "--p", "4", "--json", "--seed", "3"],
        ))
        .unwrap();
        assert!(out.contains("attack-regression"), "{out}");
        std::fs::remove_file(&data_f).ok();
        std::fs::remove_file(&rel_f).ok();
    }
}
