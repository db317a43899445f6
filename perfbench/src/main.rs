//! `cahd-perfbench`: the CAHD publishing loop (release, check, evaluate)
//! timed end to end through the CLI's own commands, and the same loop
//! composed layer by layer in a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload clickstream --seed 1 --seconds 30 --trace 0 [--smoke]
//! ```
//!
//! The last line of stdout is one JSON object
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` with
//! the end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`). The exit code is nonzero when any operation failed.
//! `perfbench/README.md` describes the workloads and metrics.

use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use cahd_check::{default_registry, CheckInput, Severity};
use cahd_cli::args::{Args, FlagSpec};
use cahd_cli::{commands, CliError};
use cahd_core::pipeline::AnonymizerConfig;
use cahd_core::recovery::{sanitize_row, RecoveryConfig};
use cahd_core::shard::cahd_sharded_traced;
use cahd_core::streaming::{ReleaseChunk, StreamingAnonymizer};
use cahd_core::{
    cahd_traced, verify_published, AnonymizedGroup, CahdConfig, KernelMode, PublishedDataset,
};
use cahd_data::{io, profiles, ItemId, QuestConfig, QuestGenerator, SensitiveSet, TransactionSet};
use cahd_eval::{evaluate_workload, generate_workload_seeded, AttackPlan};
use cahd_obs::{memtrack, Recorder, TrackingAllocator};
use cahd_rcm::unsym::order_columns;
use cahd_rcm::{band_order, cluster_order, AatMethod, OrderingStrategy, RowGraphMode};
use cahd_sparse::{rect_band_stats, resolve_hub_cap, Permutation, RowGraph};

mod stats;

use stats::{fnv1a, Metric, Samples, Tally, MIB};

/// Registered so `release_peak_mib` and `sparse.rowgraph_peak_mib` can read
/// the allocator's high-water mark, as `cahd-cli --memory` does.
#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

/// Times the inputs are set up in one run; `setup_s` is the median.
const SETUP_REPS: usize = 9;
/// Loop passes measured even when `--seconds` has run out.
const MIN_SAMPLES: usize = 3;
/// Seconds of back-to-back releases averaged into one `release_s` sample.
const BATCH_SECONDS: f64 = 1.0;
/// Scratch directory for inputs and releases, under the working directory.
const WORK_DIR: &str = ".bench_work";
/// Where the traced run writes its spans.
const TRACE_DIR: &str = ".bench_out";
/// `check --seed`, `evaluate --seed`, `--r` and `--queries`: the CLI
/// defaults, passed explicitly so `CAHD_SEED` cannot change them.
const SEED_FLAG: u64 = 42;
const EVAL_R: usize = 4;
const EVAL_QUERIES: usize = 100;

const USAGE: &str = "usage: cahd-perfbench --workload {clickstream|stream} --seed N \
--seconds S --trace {0|1} [--smoke]";

/// One workload: the data shape, the flags a publisher types, and how
/// much of the publishing loop it runs. Why each exists is in the README.
struct Workload {
    name: &'static str,
    config: fn() -> QuestConfig,
    rows: usize,
    smoke_rows: usize,
    p: usize,
    alpha: usize,
    /// The number of `--stream-batch` batches the rows are cut into.
    stream_batches: Option<usize>,
    /// Whether `check` and `evaluate` follow the release.
    full_loop: bool,
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "clickstream",
        config: || profiles::bms1_config(1.0),
        rows: 14_900,
        smoke_rows: 600,
        p: 4,
        alpha: 3,
        stream_batches: None,
        full_loop: true,
    },
    Workload {
        name: "stream",
        config: || profiles::quest_xl_config(1.0),
        rows: 10_000,
        smoke_rows: 2_000,
        p: 4,
        alpha: 3,
        stream_batches: Some(4),
        full_loop: false,
    },
];

struct Opts {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

const FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "workload",
        takes_value: true,
    },
    FlagSpec {
        name: "seed",
        takes_value: true,
    },
    FlagSpec {
        name: "seconds",
        takes_value: true,
    },
    FlagSpec {
        name: "trace",
        takes_value: true,
    },
    FlagSpec {
        name: "smoke",
        takes_value: false,
    },
];

impl Opts {
    fn parse(argv: &[String]) -> Result<Opts, String> {
        let a = Args::parse(argv, FLAGS).map_err(|e| e.to_string())?;
        if let Ok(extra) = a.positional(0, "argument") {
            return Err(format!("unexpected argument {extra:?}"));
        }
        let required = |f: &str| a.value(f).ok_or_else(|| format!("--{f} is required"));
        let name = required("workload")?;
        let workload = WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))?;
        required("seed")?;
        required("seconds")?;
        let seconds: f64 = a.parse_or("seconds", 0.0).map_err(|e| e.to_string())?;
        if !(seconds.is_finite() && seconds >= 0.0) {
            return Err(format!(
                "--seconds must be a finite number >= 0, not {seconds}"
            ));
        }
        let trace = match required("trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
        };
        Ok(Opts {
            workload,
            seed: a.parse_or("seed", 0).map_err(|e| e.to_string())?,
            seconds,
            trace,
            smoke: a.has("smoke"),
        })
    }

    fn rows(&self) -> usize {
        if self.smoke {
            self.workload.smoke_rows
        } else {
            self.workload.rows
        }
    }

    fn stream_batch(&self) -> Option<usize> {
        self.workload.stream_batches.map(|b| self.rows() / b)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let o = match Opts::parse(&argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cahd-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = Path::new(WORK_DIR).join(format!("{}-{}", o.workload.name, std::process::id()));
    let outcome = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("creating {}: {e}", dir.display()))
        .and_then(|()| measure(&o, &dir));
    // Best effort: a leftover scratch directory is harmless.
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(WORK_DIR);
    let (tally, metrics) = outcome.unwrap_or_else(|e| {
        let mut tally = Tally::default();
        tally.ok::<()>("setup", Err(e));
        (tally, Vec::new())
    });
    println!("{}", stats::result_line(&tally, &metrics));
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Everything fixed before the loop starts.
struct Prepared {
    data_path: PathBuf,
    release_path: PathBuf,
    sensitive: Vec<ItemId>,
    degree_work: u64,
    input_bytes: u64,
    cli: CommandLines,
    /// The warm-up release every later release must reproduce byte for byte.
    reference: Vec<u8>,
    /// Exact mean KL of the query workload on the reference release.
    kl_mean: Option<f64>,
    setup_s: Samples,
    /// Wall time of the last warm-up release.
    warmup_s: f64,
}

fn measure(o: &Opts, dir: &Path) -> Result<(Tally, Vec<Metric>), String> {
    let prep = prepare(o, dir)?;
    println!("{}", prep.cli);
    println!("{}", prep.setup_s.describe("setup_s", "s"));
    println!(
        "release digest fnv1a:{:016x} ({} bytes)",
        fnv1a(&prep.reference),
        prep.reference.len()
    );
    if o.trace {
        Ok(traced(o, &prep, dir))
    } else {
        Ok(untraced(o, &prep))
    }
}

/// Sets the workload up [`SETUP_REPS`] times — generate the rows from the
/// seed, write them as `.dat`, pick the sensitive items, and run one
/// warm-up release through the CLI — and keeps the last warm-up release
/// as the reference.
fn prepare(o: &Opts, dir: &Path) -> Result<Prepared, String> {
    let w = o.workload;
    let data_path = dir.join("data.dat");
    let release_path = dir.join("release.json");
    let mut setup_s = Samples::default();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let mut cfg = (w.config)();
        cfg.n_transactions = o.rows();
        let generated = QuestGenerator::new(cfg, o.seed).generate();
        io::write_dat_file(&data_path, &generated).map_err(|e| format!("writing data: {e}"))?;
        // Everything downstream sees the program's own view of the file.
        let data = io::read_dat_file(&data_path, None).map_err(|e| format!("reading data: {e}"))?;
        let sensitive = pick_sensitive(&data, 4, w.p)?;
        std::fs::write(dir.join("sensitive.txt"), format!("{sensitive:?}\n"))
            .map_err(|e| format!("writing sensitive list: {e}"))?;
        let cli = CommandLines::new(o, &data_path, &sensitive, &release_path);
        let warmup = Instant::now();
        cli.anonymize()
            .map_err(|e| format!("warm-up release failed: {e}"))?;
        let warmup_s = warmup.elapsed().as_secs_f64();
        setup_s.push(t.elapsed().as_secs_f64());
        last = Some((data, sensitive, cli, warmup_s));
    }
    let (data, sensitive, cli, warmup_s) = last.ok_or("no setup ran")?;
    let supports = data.item_supports();
    let degree_work: u64 = supports.iter().map(|&s| (s as u64) * (s as u64)).sum();
    let mut rows: Vec<&[ItemId]> = data.iter().collect();
    rows.sort_unstable();
    let duplicates = rows.windows(2).filter(|r| r[0] == r[1]).count();
    let pairs: Vec<String> = sensitive
        .iter()
        .map(|&i| format!("{i}:{}", supports[i as usize]))
        .collect();
    println!(
        "workload {} seed {}: {} rows x {} items, nnz {}, sum support^2 {degree_work}, \
         top item support {}, duplicate rows {duplicates} ({:.2}%), sensitive item:support {}",
        w.name,
        o.seed,
        data.n_transactions(),
        data.n_items(),
        data.total_items(),
        supports.iter().copied().max().unwrap_or(0),
        100.0 * duplicates as f64 / data.n_transactions().max(1) as f64,
        pairs.join(",")
    );
    let reference = std::fs::read(&release_path).map_err(|e| format!("reading release: {e}"))?;
    let kl_mean = if w.full_loop {
        let text = std::str::from_utf8(&reference).map_err(|e| e.to_string())?;
        let release: PublishedDataset = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let sens = SensitiveSet::new(release.sensitive_items.clone(), data.n_items());
        let queries = generate_workload_seeded(&data, &sens, EVAL_R, EVAL_QUERIES, SEED_FLAG);
        Some(evaluate_workload(&data, &release, &queries).mean_kl)
    } else {
        None
    };
    let input_bytes = std::fs::metadata(&data_path)
        .map_err(|e| e.to_string())?
        .len();
    Ok(Prepared {
        data_path,
        release_path,
        sensitive,
        degree_work,
        input_bytes,
        cli,
        reference,
        kl_mean,
        setup_s,
        warmup_s,
    })
}

/// Picks `m` sensitive items among those a release at degree `p` can
/// protect (support in `1..=n/p`), at the midpoints of `m` equal slices of
/// their support order: the expected order statistics of `m` uniform
/// picks (what `--random-m` does) without the pick's own variance, so runs
/// on different seeds carry comparable sensitive loads.
fn pick_sensitive(data: &TransactionSet, m: usize, p: usize) -> Result<Vec<ItemId>, String> {
    let cap = data.n_transactions() / p;
    let mut eligible: Vec<(usize, ItemId)> = data
        .item_supports()
        .into_iter()
        .enumerate()
        .filter(|&(_, s)| s >= 1 && s <= cap)
        .map(|(i, s)| (s, i as ItemId))
        .collect();
    if eligible.len() < m {
        return Err(format!("only {} items can be sensitive", eligible.len()));
    }
    eligible.sort_unstable();
    let mut picked: Vec<ItemId> = (0..m)
        .map(|k| eligible[(2 * k + 1) * eligible.len() / (2 * m)].1)
        .collect();
    picked.sort_unstable();
    Ok(picked)
}

/// The argument lists of one publishing loop, as typed after
/// `cahd-cli <command>`.
struct CommandLines {
    anonymize: Vec<String>,
    check: Vec<String>,
    evaluate: Vec<String>,
}

impl CommandLines {
    fn new(o: &Opts, data: &Path, sensitive: &[ItemId], release: &Path) -> Self {
        let w = o.workload;
        let data = data.display().to_string();
        let release = release.display().to_string();
        let list: Vec<String> = sensitive.iter().map(ToString::to_string).collect();
        let owned = |v: &[&str]| v.iter().map(ToString::to_string).collect::<Vec<_>>();
        let (p, alpha, seed) = (w.p.to_string(), w.alpha.to_string(), SEED_FLAG.to_string());
        let mut anonymize = owned(&[&data, "--p", &p, "--alpha", &alpha, "--threads", "1"]);
        anonymize.extend(owned(&["--sensitive", &list.join(",")]));
        if let Some(batch) = o.stream_batch() {
            anonymize.extend(owned(&["--stream-batch", &batch.to_string()]));
        }
        anonymize.extend(owned(&["--out", &release]));
        let check = owned(&[&data, &release, "--p", &p, "--seed", &seed]);
        let (r, queries) = (EVAL_R.to_string(), EVAL_QUERIES.to_string());
        let evaluate = owned(&[
            &data,
            &release,
            "--r",
            &r,
            "--queries",
            &queries,
            "--seed",
            &seed,
        ]);
        CommandLines {
            anonymize,
            check,
            evaluate,
        }
    }

    fn anonymize(&self) -> Result<String, String> {
        run_cli(
            commands::anonymize,
            commands::ANONYMIZE_FLAGS,
            &self.anonymize,
        )
    }

    fn check(&self) -> Result<String, String> {
        run_cli(commands::check, commands::CHECK_FLAGS, &self.check)
    }

    fn evaluate(&self) -> Result<String, String> {
        run_cli(commands::evaluate, commands::EVALUATE_FLAGS, &self.evaluate)
    }
}

impl std::fmt::Display for CommandLines {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "cahd-cli anonymize {}", self.anonymize.join(" "))?;
        writeln!(f, "cahd-cli check {}", self.check.join(" "))?;
        write!(f, "cahd-cli evaluate {}", self.evaluate.join(" "))
    }
}

/// Runs one command in-process, parsed and dispatched as `cahd-cli` does.
fn run_cli(
    cmd: fn(&Args) -> Result<String, CliError>,
    flags: &[FlagSpec],
    argv: &[String],
) -> Result<String, String> {
    Args::parse(argv, flags)
        .and_then(|a| cmd(&a))
        .map_err(|e| e.to_string())
}

/// Runs `anonymize` once with the allocator's high-water mark re-armed and
/// checks the release against the reference. Returns the wall time in
/// seconds and the peak in MiB above the live bytes at the start.
fn timed_release(prep: &Prepared, tally: &mut Tally) -> Option<(f64, f64)> {
    memtrack::reset_peak();
    let live = memtrack::stats().live_bytes;
    let t = Instant::now();
    let out = prep.cli.anonymize();
    let secs = t.elapsed().as_secs_f64();
    let peak = memtrack::stats().peak_bytes.saturating_sub(live) as f64 / MIB;
    let same = out.and_then(|_| {
        let bytes = std::fs::read(&prep.release_path).map_err(|e| e.to_string())?;
        same_bytes(&bytes, &prep.reference)
    });
    tally.ok("anonymize", same).map(|()| (secs, peak))
}

fn same_bytes(got: &[u8], reference: &[u8]) -> Result<(), String> {
    if got == reference {
        Ok(())
    } else {
        Err(format!(
            "release fnv1a:{:016x} differs from the reference fnv1a:{:016x}",
            fnv1a(got),
            fnv1a(reference)
        ))
    }
}

/// Passes `Ok` through when `good`, else the error `why()`.
fn expect(good: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if good {
        Ok(())
    } else {
        Err(why())
    }
}

/// The end-to-end run: the publishing loop through the CLI, untraced.
fn untraced(o: &Opts, prep: &Prepared) -> (Tally, Vec<Metric>) {
    let mut tally = Tally::default();
    let mut release_s = Samples::default();
    let mut check_s = Samples::default();
    let mut evaluate_s = Samples::default();
    let mut publish_s = Samples::default();
    let mut peak_mib = Samples::default();
    let expected_kl = format!("mean KL {:.4}", prep.kl_mean.unwrap_or_default());
    // One `release_s` sample is the mean of enough back-to-back releases to
    // last about BATCH_SECONDS, and every pass starts with one, so a 50 ms
    // release is sampled across the whole run, like check and evaluate,
    // rather than at whichever speed the host happens to run in one spell.
    let batch_s = BATCH_SECONDS.min(o.seconds / 20.0);
    let per_sample = (batch_s / prep.warmup_s.max(1e-6)).ceil().max(1.0) as usize;
    println!("release_s: each sample is the mean of {per_sample} back-to-back releases");
    let start = Instant::now();
    let mut passes = 0;
    while passes < MIN_SAMPLES || start.elapsed().as_secs_f64() < o.seconds {
        passes += 1;
        let mut total = 0.0;
        let mut ok = 0;
        for _ in 0..per_sample {
            if let Some((rel, peak)) = timed_release(prep, &mut tally) {
                total += rel;
                ok += 1;
                peak_mib.push(peak);
            }
        }
        if ok == 0 {
            continue;
        }
        let rel = total / f64::from(ok);
        release_s.push(rel);
        if !o.workload.full_loop {
            publish_s.push(rel);
            continue;
        }
        let t = Instant::now();
        let out = prep.cli.check();
        let chk = t.elapsed().as_secs_f64();
        let verdict = out.and_then(|text| {
            expect(text.contains("check: PASS"), || {
                format!("no PASS in {text:?}")
            })
        });
        if tally.ok("check", verdict).is_none() {
            continue;
        }
        check_s.push(chk);
        let t = Instant::now();
        let out = prep.cli.evaluate();
        let ev = t.elapsed().as_secs_f64();
        let kl = out.and_then(|text| {
            expect(text.contains(&expected_kl), || {
                format!("expected {expected_kl:?} in {text:?}")
            })
        });
        if tally.ok("evaluate", kl).is_none() {
            continue;
        }
        evaluate_s.push(ev);
        publish_s.push(rel + chk + ev);
    }
    println!("{}", release_s.describe("release_s", "s"));
    if o.workload.full_loop {
        println!("{}", check_s.describe("check_s", "s"));
        println!("{}", evaluate_s.describe("evaluate_s", "s"));
        println!("kl_mean: {} nats", prep.kl_mean.unwrap_or_default());
    }
    println!("{}", publish_s.describe("publish_s", "s"));
    println!("{}", peak_mib.describe("release_peak_mib", "MiB"));
    println!(
        "error_rate: {} ({} failed / {} attempted)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    let metrics = vec![
        Metric::new("setup_s", "s", prep.setup_s.median()),
        Metric::new("release_s", "s", release_s.median()),
        Metric::new("publish_s", "s", publish_s.median()),
        Metric::new("release_peak_mib", "MiB", peak_mib.median()),
    ];
    (tally, metrics)
}

/// One timed layer call, `layer.name`, under the loop step (`release`,
/// `probe`, `check` or `evaluate`) that made it.
struct Span {
    layer: &'static str,
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Spans kept in memory for the whole run and written out at its end.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    root: Option<usize>,
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Times `f` as the root span of one loop step; the spans it opens
    /// become the root's children. Returns the root's index.
    fn step<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (usize, T) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer: "loop",
            name,
            parent: None,
            start_ns,
            end_ns: start_ns,
        });
        self.root = Some(id);
        let out = f(self);
        self.spans[id].end_ns = self.now_ns();
        self.root = None;
        (id, out)
    }

    /// Times one call into a layer under the current step.
    fn time<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            parent: self.root,
            start_ns,
            end_ns,
        });
        out
    }

    /// Durations of every `layer.name` span under the given step roots.
    fn durations(&self, roots: &[usize], layer: &str, name: &str) -> Samples {
        let mut out = Samples::default();
        for s in &self.spans {
            if s.layer == layer && s.name == name && s.parent.is_some_and(|p| roots.contains(&p)) {
                out.push(s.ms());
            }
        }
        out
    }

    fn to_json(&self) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"layer\": \"{}\", \"name\": \"{}\", \"parent\": {parent}, \
                     \"start_ns\": {}, \"end_ns\": {}}}",
                    s.layer, s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        format!("{{\"spans\": [\n{}\n]}}\n", spans.join(",\n"))
    }
}

/// The engine counters the traced run reads from the program's own
/// recorder: pivots, candidates, groups, dense kernel scores, cache hits.
const COUNTERS: [&str; 5] = [
    "core.pivots_scanned",
    "core.candidates_scanned",
    "core.groups_formed",
    "core.kernel_dense_scores",
    "core.kernel_cache_hits",
];

/// What one traced pass measured besides its spans.
#[derive(Default)]
struct Pass {
    release: Option<usize>,
    probe: Option<usize>,
    check: Option<usize>,
    evaluate: Option<usize>,
    rowgraph_peak_mib: Option<f64>,
    batch_ms: Vec<f64>,
    counters: [u64; 5],
    band_pairs: u64,
    largest_group: u64,
    kl_mean: f64,
}

/// The engine configuration `cahd-cli anonymize` resolves from the
/// workload's flags (`--p`, `--alpha`, `--threads 1`; the rest default).
fn engine_config(w: &Workload) -> AnonymizerConfig {
    let mut cfg = AnonymizerConfig::with_privacy_degree(w.p)
        .with_ordering(OrderingStrategy::Rcm)
        .with_rowgraph(RowGraphMode::Auto)
        .with_hub_cap(None);
    cfg.cahd = CahdConfig::new(w.p)
        .with_alpha(w.alpha)
        .with_kernel(KernelMode::Adaptive);
    cfg
}

/// The traced run: each pass times one untraced CLI release (the base of
/// the tracing overhead), then composes the release from each layer's
/// public function in the order the CLI calls them, then runs check and
/// evaluate step by step. The composed release must equal the untraced
/// bytes.
fn traced(o: &Opts, prep: &Prepared, dir: &Path) -> (Tally, Vec<Metric>) {
    let w = o.workload;
    let cfg = engine_config(w);
    let traced_path = dir.join("release-traced.json");
    let mut tr = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
        root: None,
    };
    let mut tally = Tally::default();
    let mut untraced_ms = Samples::default();
    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    while passes.len() < MIN_SAMPLES || start.elapsed().as_secs_f64() < o.seconds {
        if let Some((secs, _)) = timed_release(prep, &mut tally) {
            untraced_ms.push(secs * 1e3);
        }
        let mut pass = Pass::default();
        let (id, out) = tr.step("release", |tr| {
            release(o, prep, &cfg, &traced_path, tr, &mut pass)
        });
        pass.release = Some(id);
        let out = out.and_then(|(data, bytes)| same_bytes(&bytes, &prep.reference).map(|()| data));
        if let Some(data) = tally.ok("traced release", out) {
            // Alone, after the release: the row graph repeats it inside.
            let (id, ()) = tr.step("probe", |tr| {
                tr.time("sparse", "transpose", || {
                    std::hint::black_box(data.matrix().transpose());
                });
            });
            pass.probe = Some(id);
            if w.full_loop {
                let (id, out) = tr.step("check", |tr| check(w, prep, &traced_path, tr, &mut pass));
                pass.check = Some(id);
                tally.ok("traced check", out);
                let (id, out) =
                    tr.step("evaluate", |tr| evaluate(prep, &traced_path, tr, &mut pass));
                pass.evaluate = Some(id);
                let kl = pass.kl_mean;
                let same = out.and_then(|()| {
                    expect(Some(kl) == prep.kl_mean, || {
                        format!("mean KL {kl} differs from {:?}", prep.kl_mean)
                    })
                });
                tally.ok("traced evaluate", same);
            }
            if let Some(first) = passes.first() {
                let (a, b) = (first.counters, pass.counters);
                tally.ok(
                    "work counters",
                    expect(a == b, || format!("{b:?} differs from {a:?}")),
                );
            }
        }
        passes.push(pass);
    }

    let roots =
        |f: fn(&Pass) -> Option<usize>| -> Vec<usize> { passes.iter().filter_map(f).collect() };
    let (rel, probe) = (roots(|p| p.release), roots(|p| p.probe));
    let (chk, ev) = (roots(|p| p.check), roots(|p| p.evaluate));
    let both: Vec<usize> = chk.iter().chain(&ev).copied().collect();
    let d = |roots: &[usize], layer: &str, name: &str| tr.durations(roots, layer, name).median();
    let mut traced_ms = Samples::default();
    let mut other_ms = Samples::default();
    for &r in &rel {
        let total = tr.spans[r].ms();
        let covered: f64 = tr
            .spans
            .iter()
            .filter(|s| s.parent == Some(r))
            .map(Span::ms)
            .sum();
        traced_ms.push(total);
        other_ms.push(total - covered);
    }
    let mut peak = Samples::default();
    let mut batch = Samples::default();
    for p in &passes {
        if let Some(v) = p.rowgraph_peak_mib {
            peak.push(v);
        }
        for &b in &p.batch_ms {
            batch.push(b);
        }
    }
    let last = passes.last().expect("at least MIN_SAMPLES passes ran");
    let c = last.counters;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let base = untraced_ms.median();
    let overhead = if base > 0.0 {
        100.0 * (traced_ms.median() - base) / base
    } else {
        0.0
    };
    println!("{}", traced_ms.describe("traced release", "ms"));
    println!("{}", untraced_ms.describe("untraced release", "ms"));
    println!(
        "layer spans cover {:.1}% of the traced release; other_ms {:.3}",
        100.0 * (1.0 - other_ms.median() / traced_ms.median().max(f64::MIN_POSITIVE)),
        other_ms.median()
    );
    println!(
        "core.group_yield = {} groups / {} pivots; \
         core.kernel_cache_hit_ratio = {} hits / {} dense scores",
        c[2], c[0], c[4], c[3]
    );

    let mut m = vec![
        Metric::new("data.ingest_ms", "ms", d(&rel, "data", "ingest")),
        Metric::new("data.input_mib", "MiB", prep.input_bytes as f64 / MIB),
        Metric::new(
            "sparse.transpose_ms",
            "ms",
            d(&probe, "sparse", "transpose"),
        ),
        Metric::new("sparse.rowgraph_ms", "ms", d(&rel, "sparse", "rowgraph")),
        Metric::new("sparse.rowgraph_peak_mib", "MiB", peak.median()),
        Metric::new("sparse.degree_work", "count", prep.degree_work as f64),
        Metric::new("rcm.order_ms", "ms", d(&rel, "rcm", "order")),
        Metric::new("rcm.columns_ms", "ms", d(&rel, "rcm", "columns")),
        Metric::new("rcm.stats_ms", "ms", d(&rel, "rcm", "stats")),
        Metric::new("core.permute_ms", "ms", d(&rel, "core", "permute")),
        Metric::new("core.group_ms", "ms", d(&rel, "core", "group")),
        Metric::new("core.pivots_scanned", "count", c[0] as f64),
        Metric::new("core.candidates_scanned", "count", c[1] as f64),
        Metric::new("core.groups_formed", "count", c[2] as f64),
        Metric::new("core.group_yield", "ratio", ratio(c[2], c[0])),
        Metric::new("core.kernel_dense_scores", "count", c[3] as f64),
        Metric::new("core.kernel_cache_hits", "count", c[4] as f64),
        Metric::new("core.kernel_cache_hit_ratio", "ratio", ratio(c[4], c[3])),
        Metric::new("core.verify_ms", "ms", d(&rel, "core", "verify")),
        Metric::new("core.stream_ms", "ms", d(&rel, "core", "stream")),
        Metric::new("core.stream_batch_ms", "ms", batch.median()),
        Metric::new("core.stream_batches", "count", last.batch_ms.len() as f64),
        Metric::new("core.merge_ms", "ms", d(&rel, "core", "merge")),
        Metric::new(
            "serde_json.serialize_ms",
            "ms",
            d(&rel, "serde_json", "serialize"),
        ),
        Metric::new(
            "serde_json.release_mib",
            "MiB",
            prep.reference.len() as f64 / MIB,
        ),
        Metric::new("serde_json.parse_ms", "ms", d(&both, "serde_json", "parse")),
    ];
    for check_pass in default_registry().passes() {
        let name = check_pass.name();
        let ms = d(&chk, "check", name);
        m.push(Metric::new(format!("check.{name}_ms"), "ms", ms));
    }
    m.extend([
        Metric::new("check.band_pairs", "count", last.band_pairs as f64),
        Metric::new("check.largest_group", "count", last.largest_group as f64),
        Metric::new("eval.workload_ms", "ms", d(&ev, "eval", "workload")),
        Metric::new("eval.kl_ms", "ms", d(&ev, "eval", "kl")),
        Metric::new("eval.kl_mean", "nats", last.kl_mean),
        Metric::new("obs.trace_overhead_pct", "%", overhead),
        Metric::new("other_ms", "ms", other_ms.median()),
    ]);

    let trace_path = Path::new(TRACE_DIR).join(format!("{}-seed{}-trace.json", w.name, o.seed));
    let written = std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::write(&trace_path, tr.to_json()))
        .map_err(|e| format!("writing {}: {e}", trace_path.display()));
    if tally.ok("trace file", written).is_some() {
        println!("spans written to {}", trace_path.display());
    }
    (tally, m)
}

type Released = (TransactionSet, SensitiveSet, PublishedDataset);

/// The release as `cahd-cli anonymize` computes it, one layer call at a
/// time. Returns the data it was verified against and the bytes written.
fn release(
    o: &Opts,
    prep: &Prepared,
    cfg: &AnonymizerConfig,
    out_path: &Path,
    tr: &mut Tracer,
    pass: &mut Pass,
) -> Result<(TransactionSet, Vec<u8>), String> {
    let (data, sensitive, published) = match o.stream_batch() {
        None => release_batch(prep, cfg, tr, pass)?,
        Some(batch) => release_stream(prep, cfg, batch, tr, pass)?,
    };
    tr.time("core", "verify", || {
        verify_published(&data, &sensitive, &published, o.workload.p)
    })
    .map_err(|e| format!("release failed verification: {e}"))?;
    let text = tr.time("serde_json", "serialize", || -> Result<String, String> {
        let text = serde_json::to_string(&published).map_err(|e| e.to_string())?;
        std::fs::write(out_path, &text).map_err(|e| e.to_string())?;
        Ok(text)
    })?;
    Ok((data, text.into_bytes()))
}

/// `anonymize` without `--stream-batch`: the pipeline's band reduction,
/// permutation and group formation, called layer by layer.
fn release_batch(
    prep: &Prepared,
    cfg: &AnonymizerConfig,
    tr: &mut Tracer,
    pass: &mut Pass,
) -> Result<Released, String> {
    let data = tr
        .time("data", "ingest", || {
            io::read_dat_file(&prep.data_path, None)
        })
        .map_err(|e| format!("reading data: {e}"))?;
    let sensitive = SensitiveSet::new(prep.sensitive.clone(), data.n_items());
    let opts = cfg.rcm;
    let a = data.matrix();
    let strategy = opts.ordering.resolved();
    let row_perm = match (opts.aat_method, strategy) {
        (AatMethod::Product, OrderingStrategy::Cluster) => {
            tr.time("rcm", "order", || cluster_order(a, opts.threads))
        }
        (AatMethod::Product, _) => {
            memtrack::reset_peak();
            let live = memtrack::stats().live_bytes;
            let graph = tr.time("sparse", "rowgraph", || {
                RowGraph::build_mode_traced(
                    a,
                    opts.rowgraph.resolved(),
                    opts.edge_budget,
                    resolve_hub_cap(opts.hub_cap),
                    opts.threads,
                    &Recorder::disabled(),
                )
            });
            let peak = memtrack::stats().peak_bytes.saturating_sub(live);
            pass.rowgraph_peak_mib = Some(peak as f64 / MIB);
            tr.time("rcm", "order", || {
                band_order(&graph, strategy, opts.threads)
            })
        }
        (AatMethod::Sum, _) => return Err("the CLI never selects the A + A^T method".into()),
    };
    let col_perm = tr.time("rcm", "columns", || {
        order_columns(a, &row_perm, opts.column_order)
    });
    tr.time("rcm", "stats", || {
        let id_rows = Permutation::identity(a.n_rows());
        let id_cols = Permutation::identity(a.n_cols());
        std::hint::black_box((
            rect_band_stats(a, &id_rows, &id_cols),
            rect_band_stats(a, &row_perm, &col_perm),
        ));
    });
    let work = tr.time("core", "permute", || data.permute(&row_perm));
    let rec = Recorder::new();
    let grouped = tr.time("core", "group", || {
        if cfg.parallel.is_sequential() {
            cahd_traced(&work, &sensitive, &cfg.cahd, &rec).map(|(p, _)| p)
        } else {
            cahd_sharded_traced(&work, &sensitive, &cfg.cahd, &cfg.parallel, &rec).map(|(p, _)| p)
        }
    });
    let mut published = grouped.map_err(|e| e.to_string())?;
    drop(work);
    for g in &mut published.groups {
        for m in &mut g.members {
            *m = row_perm.new_to_old(*m as usize) as u32;
        }
    }
    let report = rec.snapshot();
    pass.counters = COUNTERS.map(|c| report.counter_or_zero(c));
    Ok((data, sensitive, published))
}

/// `anonymize --stream-batch`: raw rows through the streaming anonymizer,
/// then the CLI's merge of the released chunks into one release.
fn release_stream(
    prep: &Prepared,
    cfg: &AnonymizerConfig,
    batch: usize,
    tr: &mut Tracer,
    pass: &mut Pass,
) -> Result<Released, String> {
    let (rows, inferred) = tr
        .time("data", "ingest", || {
            File::open(&prep.data_path).and_then(|f| io::read_dat_rows(BufReader::new(f)))
        })
        .map_err(|e| format!("reading data: {e}"))?;
    let d = inferred.max(
        prep.sensitive
            .iter()
            .map(|&i| i as usize + 1)
            .max()
            .unwrap_or(0),
    );
    let sensitive = SensitiveSet::new(prep.sensitive.clone(), d);
    let rec = Recorder::new();
    let mut stream = StreamingAnonymizer::new(*cfg, sensitive.clone(), batch)
        .with_recovery(RecoveryConfig::strict())
        .with_recorder(&rec);
    let mut chunks: Vec<ReleaseChunk> = Vec::new();
    let batch_ms = &mut pass.batch_ms;
    tr.time("core", "stream", || -> Result<(), String> {
        for row in &rows {
            let t = Instant::now();
            if let Some(chunk) = stream.push(row.clone()).map_err(|e| e.to_string())? {
                batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
                chunks.push(chunk);
            }
        }
        let t = Instant::now();
        if let Some(chunk) = stream.finish().map_err(|e| e.to_string())? {
            batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
            chunks.push(chunk);
        }
        Ok(())
    })?;
    let report = rec.snapshot();
    pass.counters = COUNTERS.map(|c| report.counter_or_zero(c));
    let (data, published) = tr.time("core", "merge", || {
        let sanitized: Vec<Vec<ItemId>> = rows.iter().map(|r| sanitize_row(r, d)).collect();
        let data = TransactionSet::from_rows(&sanitized, d);
        let mut groups = Vec::new();
        for chunk in &chunks {
            for g in &chunk.published.groups {
                let mut members: Vec<u32> = g
                    .members
                    .iter()
                    .map(|&m| u32::try_from(chunk.stream_ids[m as usize]).unwrap_or(u32::MAX))
                    .collect();
                members.sort_unstable();
                groups.push(AnonymizedGroup::from_members(&data, &sensitive, &members));
            }
        }
        let published = PublishedDataset {
            n_items: d,
            sensitive_items: sensitive.items().to_vec(),
            groups,
        };
        (data, published)
    });
    Ok((data, sensitive, published))
}

fn read_release(tr: &mut Tracer, path: &Path) -> Result<PublishedDataset, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading release: {e}"))?;
    tr.time("serde_json", "parse", || serde_json::from_str(&text))
        .map_err(|e| format!("parsing release: {e}"))
}

/// `cahd-cli check`: every pass of the default registry, timed one by one.
fn check(
    w: &Workload,
    prep: &Prepared,
    release_path: &Path,
    tr: &mut Tracer,
    pass: &mut Pass,
) -> Result<(), String> {
    let data = io::read_dat_file(&prep.data_path, None).map_err(|e| e.to_string())?;
    let release = read_release(tr, release_path)?;
    let sensitive = SensitiveSet::new(release.sensitive_items.clone(), data.n_items());
    let plan = AttackPlan {
        seed: SEED_FLAG,
        ..AttackPlan::default()
    };
    let input = CheckInput {
        data: &data,
        sensitive: &sensitive,
        published: &release,
        p: w.p,
        trace: None,
        attack: Some(&plan),
    };
    let registry = default_registry();
    let mut diagnostics = Vec::new();
    for check_pass in registry.passes() {
        tr.time("check", check_pass.name(), || {
            check_pass.run(&input, &mut diagnostics);
        });
    }
    let sizes: Vec<u64> = release.groups.iter().map(|g| g.size() as u64).collect();
    pass.band_pairs = sizes.iter().map(|&s| s * s.saturating_sub(1) / 2).sum();
    pass.largest_group = sizes.iter().copied().max().unwrap_or(0);
    let errors: Vec<String> = diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| format!("{}: {}", d.code, d.message))
        .collect();
    expect(errors.is_empty(), || errors.join("; "))
}

/// `cahd-cli evaluate`: the seeded query workload and its mean KL.
fn evaluate(
    prep: &Prepared,
    release_path: &Path,
    tr: &mut Tracer,
    pass: &mut Pass,
) -> Result<(), String> {
    let data = io::read_dat_file(&prep.data_path, None).map_err(|e| e.to_string())?;
    let release = read_release(tr, release_path)?;
    let sensitive = SensitiveSet::new(release.sensitive_items.clone(), data.n_items());
    let queries = tr.time("eval", "workload", || {
        generate_workload_seeded(&data, &sensitive, EVAL_R, EVAL_QUERIES, SEED_FLAG)
    });
    expect(!queries.is_empty(), || {
        "no queries could be generated".into()
    })?;
    let summary = tr.time("eval", "kl", || {
        evaluate_workload(&data, &release, &queries)
    });
    pass.kl_mean = summary.mean_kl;
    Ok(())
}
