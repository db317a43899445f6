//! Thin entry point: dispatches to [`cahd_cli::commands`].

use std::process::ExitCode;

use cahd_cli::args::Args;
use cahd_cli::{commands, CliError};
use cahd_obs::TrackingAllocator;

/// Every allocation the CLI makes goes through the tracking allocator, so
/// `--memory` can attribute per-phase peaks and deltas. Without `--memory`
/// the recorder never reads the counters and the cost stays at a few
/// relaxed atomic ops per allocation.
#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

const USAGE: &str = "\
cahd-cli — anonymization of sparse transaction data (CAHD, ICDE 2008)

usage:
  cahd-cli stats     <data.dat>
  cahd-cli generate  {bms1|bms2|quest} --out data.dat [--scale F] [--seed N]
                     [--transactions N] [--items N] [--avg-len F]
                     [--patterns N] [--correlation F]
  cahd-cli audit     <data.dat> [--max-k K] [--trials N] [--seed N]
  cahd-cli anonymize <data.dat> --p P (--sensitive 1,2,3 | --random-m M)
                     [--method cahd|pm|random] [--alpha A] [--no-rcm] [--refine]
                     [--ordering rcm|bfs|cluster]  (band-reducing ordering)
                     [--rowgraph auto|explicit|implicit]  (A·Aᵀ representation)
                     [--hub-cap S|off]  (skip items with support > S in the
                     implicit row graph; quality-budgeted)
                     [--shards K] [--threads T]  (sharded parallel pipeline)
                     [--weighted]  (input is .wdat item:count data)
                     [--bad-input strict|quarantine] [--items D]  (robust
                     ingestion: corrupt rows rejected or quarantined into
                     the final group)
                     [--stream-batch N] [--checkpoint dir] [--resume]
                     [--max-batches M]  (streaming with checkpoint/resume)
                     [--trace-json trace.json] [--metrics] [--memory]
                     (observability; --memory adds allocator attribution)
                     [--strip-members] [--out release.json] [--seed N]
  cahd-cli report    <release.json>
  cahd-cli check     <data.dat> <release.json> --p P [--json] [--seed N]
                     [--trace trace.json]  (audit a --trace-json report too)
                     [--trace-json out.json]  (per-pass check spans)
                     (all diagnostics in one run, including the CAHD-A001
                     attack replay; see docs/CHECKS.md)
  cahd-cli lint      [--json] [--root DIR]
                     (static analysis of this workspace's own sources;
                     see docs/LINTS.md)
  cahd-cli attack    <data.dat> <release.json> [more.json ...] --p P [--json]
                     [--seed N] [--k 1,2,4] [--trials N]
                     [--attacker all|background|linkage|intersection|vulnerable]
                     [--phi F] [--wrong N] [--epsilon F] [--max-unique F]
                     [--out report.json] [--trace-json trace.json]
                     (deterministic adversary replay; fails when a release
                     posterior exceeds 1/p — see docs/ATTACKS.md)
  cahd-cli evaluate  <data.dat> <release.json> [--r R] [--queries N] [--seed N]
                     [--attack]  (adds attacker-success curves)
                     [--trace-json trace.json]  (eval spans and counters;
                     see docs/OBSERVABILITY.md)
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "stats" => Args::parse(rest, &[]).and_then(|a| commands::stats(&a)),
        "generate" => {
            Args::parse(rest, commands::GENERATE_FLAGS).and_then(|a| commands::generate(&a))
        }
        "audit" => Args::parse(rest, commands::AUDIT_FLAGS).and_then(|a| commands::audit(&a)),
        "anonymize" => {
            Args::parse(rest, commands::ANONYMIZE_FLAGS).and_then(|a| commands::anonymize(&a))
        }
        "check" => Args::parse(rest, commands::CHECK_FLAGS).and_then(|a| commands::check(&a)),
        "lint" => Args::parse(rest, commands::LINT_FLAGS).and_then(|a| commands::lint(&a)),
        "report" => Args::parse(rest, &[]).and_then(|a| commands::report(&a)),
        "attack" => Args::parse(rest, commands::ATTACK_FLAGS).and_then(|a| commands::attack(&a)),
        "evaluate" => {
            Args::parse(rest, commands::EVALUATE_FLAGS).and_then(|a| commands::evaluate(&a))
        }
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    };
    match result {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Run(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
        Err(CliError::Check(report)) => {
            print!("{report}");
            ExitCode::FAILURE
        }
    }
}
