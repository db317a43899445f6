//! The linear release audit against the code it replaced
//! (`common/audit_baseline.rs`): seeded tampered releases of two bases —
//! the committed demo release and a CAHD release of the same rows spread
//! over a 2,000-item universe, whose ids partly lie past the band-quality
//! tally's cap — must give the same `verify_all` error vector (order
//! included), the same intra-group overlap and the same registry report.
//!
//! The oracle registry runs the earlier conformance, shard-merge and
//! band-quality passes in their registry positions and the shipped code
//! for every other pass, so a difference in a report is a difference in
//! the rewritten computations.

mod common;

use std::fs;
use std::path::{Path, PathBuf};

use cahd_check::{
    default_registry, AttackRegression, CheckInput, ConfigSanity, Feasibility, MemoryAudit,
    Recovery, Registry, TraceObs,
};
use cahd_core::cahd::{cahd, CahdConfig};
use cahd_core::verify::{verify_all, VerificationError};
use cahd_core::{intra_group_overlap, AnonymizedGroup, PublishedDataset};
use cahd_data::io::read_dat_file;
use cahd_data::{ItemId, SensitiveSet, TransactionSet};
use cahd_eval::AttackPlan;
use cahd_obs::Recorder;
use common::audit_baseline as old;

/// Tampered releases per base.
const MUTANTS: u64 = 5_000;

/// Universe of the wide base: above its release's nonzero count.
const WIDE_ITEMS: usize = 2_000;

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

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../fixtures")
        .join(name)
}

/// The default registry with the earlier conformance, shard-merge and
/// band-quality passes in place of the shipped ones.
fn oracle_registry() -> Registry {
    Registry::new()
        .register(ConfigSanity)
        .register(Feasibility)
        .register(old::Coverage)
        .register(old::QidFidelity)
        .register(old::SensitiveSummary)
        .register(old::PrivacyDegree)
        .register(old::ShardMerge)
        .register(old::BandQuality)
        .register(TraceObs)
        .register(MemoryAudit)
        .register(Recovery)
        .register(AttackRegression)
}

struct Base {
    name: &'static str,
    data: TransactionSet,
    sensitive: SensitiveSet,
    release: PublishedDataset,
}

/// The committed demo data and release (30 items, p = 4).
fn demo_base() -> Base {
    let release: PublishedDataset =
        serde_json::from_str(&fs::read_to_string(fixture("demo_release.json")).unwrap()).unwrap();
    let data = read_dat_file(fixture("demo.dat"), Some(release.n_items)).unwrap();
    let sensitive = SensitiveSet::new(release.sensitive_items.clone(), release.n_items);
    Base {
        name: "demo",
        data,
        sensitive,
        release,
    }
}

/// The demo rows with item `i` moved to `2i² + i`, over a universe of
/// [`WIDE_ITEMS`], released by CAHD at p = 4: the high QID ids lie past
/// the release's nonzero count, so the band-quality tally counts them by
/// sorting.
fn wide_base() -> Base {
    let demo = demo_base();
    let spread = |i: ItemId| 2 * i * i + i;
    let rows: Vec<Vec<ItemId>> = demo
        .data
        .iter()
        .map(|t| t.iter().map(|&i| spread(i)).collect())
        .collect();
    let data = TransactionSet::from_rows(&rows, WIDE_ITEMS);
    let sensitive = SensitiveSet::new(
        demo.sensitive.items().iter().map(|&i| spread(i)).collect(),
        WIDE_ITEMS,
    );
    let (release, _) = cahd(&data, &sensitive, &CahdConfig::new(4)).unwrap();
    let nnz: usize = release.groups.iter().map(|g| g.qid_rows.nnz()).sum();
    // The tally's cap (the nonzero count, below the universe) splits the
    // QID ids: low ones are tallied in place, high ones sorted.
    let top = data.iter().flatten().copied().max().unwrap();
    assert!(nnz < WIDE_ITEMS && (nnz as ItemId) < top, "{nnz} nonzeros");
    Base {
        name: "wide",
        data,
        sensitive,
        release,
    }
}

/// A random `(group, position)` below `len(group)`, if that group has one.
fn pick(
    release: &PublishedDataset,
    rng: &mut Rng,
    len: fn(&AnonymizedGroup) -> usize,
) -> Option<(usize, usize)> {
    let gi = rng.below(release.groups.len());
    let len = len(release.groups.get(gi)?);
    (len > 0).then(|| (gi, rng.below(len)))
}

fn members(g: &AnonymizedGroup) -> usize {
    g.members.len()
}

fn rows(g: &AnonymizedGroup) -> usize {
    g.qid_rows.len()
}

fn both(g: &AnonymizedGroup) -> usize {
    g.members.len().min(g.qid_rows.len())
}

/// An item id that is hostile to a tally: past the universe, near
/// `u32::MAX`, or an ordinary id.
fn hostile_id(n_items: usize, rng: &mut Rng) -> ItemId {
    let n = n_items as u32;
    match rng.below(4) {
        0 => n + rng.below(64) as u32,
        1 => u32::MAX - rng.below(64) as u32,
        2 => u32::MAX,
        _ => rng.below(n_items) as u32,
    }
}

/// One to three tampers of `release`.
fn tamper(base: &Base, rng: &mut Rng) -> PublishedDataset {
    let mut r = base.release.clone();
    let n = base.data.n_transactions();
    let n_items = base.data.n_items();
    for _ in 0..1 + rng.below(3) {
        match rng.below(18) {
            // Swap two members, rows left in place.
            0 => {
                if let (Some((ga, ma)), Some((gb, mb))) =
                    (pick(&r, rng, members), pick(&r, rng, members))
                {
                    let a = r.groups[ga].members[ma];
                    r.groups[ga].members[ma] = r.groups[gb].members[mb];
                    r.groups[gb].members[mb] = a;
                }
            }
            // Move a member with its row to another group.
            1 => {
                if let Some((ga, ma)) = pick(&r, rng, both) {
                    let gb = rng.below(r.groups.len());
                    let m = r.groups[ga].members.remove(ma);
                    let mut row = Vec::new();
                    r.groups[ga]
                        .qid_rows
                        .edit_rows(|rows| row = rows.remove(ma));
                    r.groups[gb].members.push(m);
                    r.groups[gb].qid_rows.edit_rows(|rows| rows.push(row));
                }
            }
            // Duplicate a member id.
            2 => {
                if let (Some((ga, ma)), Some((gb, mb))) =
                    (pick(&r, rng, members), pick(&r, rng, members))
                {
                    r.groups[ga].members[ma] = r.groups[gb].members[mb];
                }
            }
            // Drop a member: with its row, or only the member.
            3 => {
                if let Some((gi, mi)) = pick(&r, rng, both) {
                    r.groups[gi].members.remove(mi);
                    if rng.below(2) == 0 {
                        r.groups[gi].qid_rows.edit_rows(|rows| {
                            rows.remove(mi);
                        });
                    }
                }
            }
            // An out-of-range member.
            4 => {
                if let Some((gi, mi)) = pick(&r, rng, members) {
                    r.groups[gi].members[mi] = match rng.below(3) {
                        0 => (n + rng.below(4)) as u32,
                        1 => 99_999,
                        _ => u32::MAX,
                    };
                }
            }
            // Edit a row: replace, insert or remove one item.
            5 => {
                if let Some((gi, mi)) = pick(&r, rng, rows) {
                    r.groups[gi].qid_rows.edit_rows(|rows| {
                        let row = &mut rows[mi];
                        let item = rng.below(n_items) as u32;
                        match rng.below(3) {
                            0 if !row.is_empty() => {
                                let at = rng.below(row.len());
                                row[at] = item;
                            }
                            1 => {
                                let at = rng.below(row.len() + 1);
                                row.insert(at, item);
                            }
                            _ if !row.is_empty() => {
                                row.remove(rng.below(row.len()));
                            }
                            _ => row.push(item),
                        }
                    });
                }
            }
            // An unsorted row.
            6 => {
                if let Some((gi, mi)) = pick(&r, rng, rows) {
                    r.groups[gi].qid_rows.edit_rows(|rows| rows[mi].reverse());
                }
            }
            // A row repeating an item.
            7 => {
                if let Some((gi, mi)) = pick(&r, rng, rows) {
                    r.groups[gi].qid_rows.edit_rows(|rows| {
                        let row = &mut rows[mi];
                        if let Some(&first) = row.first() {
                            row.insert(rng.below(row.len() + 1), first);
                        }
                    });
                }
            }
            // Ids past the universe or near u32::MAX, in place or sorted.
            8 => {
                if let Some((gi, mi)) = pick(&r, rng, rows) {
                    r.groups[gi].qid_rows.edit_rows(|rows| {
                        let row = &mut rows[mi];
                        for _ in 0..1 + rng.below(3) {
                            row.push(hostile_id(n_items, rng));
                        }
                        if rng.below(2) == 0 {
                            row.sort_unstable();
                        }
                    });
                }
            }
            // The same hostile id in several rows of one group.
            9 => {
                let gi = rng.below(r.groups.len());
                let id = hostile_id(n_items, rng);
                r.groups[gi].qid_rows.edit_rows(|rows| {
                    for row in rows {
                        if rng.below(2) == 0 {
                            row.push(id);
                        }
                    }
                });
            }
            // A tampered n_items.
            10 => {
                r.n_items = match rng.below(3) {
                    0 => 0,
                    1 => rng.below(n_items),
                    _ => u32::MAX as usize,
                };
            }
            // Bumped or lowered sensitive counts.
            11 => {
                let gi = rng.below(r.groups.len());
                let counts = &mut r.groups[gi].sensitive_counts;
                if let Some(c) = counts.first_mut() {
                    c.1 = if rng.below(2) == 0 {
                        c.1 + 1
                    } else {
                        c.1.saturating_sub(1)
                    };
                } else if let Some(&s) = base.sensitive.items().first() {
                    counts.push((s, 1));
                }
            }
            // Foreign sensitive counts: a QID item, an id past the
            // universe, or an entry out of order.
            12 => {
                let gi = rng.below(r.groups.len());
                let entry = (hostile_id(n_items, rng), 1 + rng.below(3) as u32);
                let counts = &mut r.groups[gi].sensitive_counts;
                let at = rng.below(counts.len() + 1);
                counts.insert(at, entry);
            }
            // A wrong sensitive list.
            13 => match rng.below(3) {
                0 => {
                    r.sensitive_items.pop();
                }
                1 => r.sensitive_items.push(hostile_id(n_items, rng)),
                _ => r.sensitive_items.reverse(),
            },
            // Drop or duplicate a whole group.
            14 => {
                let gi = rng.below(r.groups.len());
                if rng.below(2) == 0 && r.groups.len() > 1 {
                    r.groups.remove(gi);
                } else {
                    let g = r.groups[gi].clone();
                    r.groups.push(g);
                }
            }
            // A row without a member, or a member without a row.
            15 => {
                let gi = rng.below(r.groups.len());
                if rng.below(2) == 0 {
                    r.groups[gi].qid_rows.edit_rows(|rows| rows.push(Vec::new()));
                } else {
                    r.groups[gi].members.push(rng.below(n) as u32);
                }
            }
            // Regroup every row in a random order, consistently: a valid
            // release whose band order is scrambled.
            16 => {
                let mut members: Vec<u32> = (0..n as u32).collect();
                for i in (1..members.len()).rev() {
                    members.swap(i, rng.below(i + 1));
                }
                let p = 2 + rng.below(4);
                r.groups = members
                    .chunks(p)
                    .map(|c| AnonymizedGroup::from_members(&base.data, &base.sensitive, c))
                    .collect();
            }
            // Move one row between groups, leaving its member behind.
            _ => {
                if let Some((ga, ma)) = pick(&r, rng, rows) {
                    let gb = rng.below(r.groups.len());
                    let mut row = Vec::new();
                    r.groups[ga]
                        .qid_rows
                        .edit_rows(|rows| row = rows.remove(ma));
                    r.groups[gb].qid_rows.edit_rows(|rows| rows.push(row));
                }
            }
        }
    }
    r
}

/// Which error kinds and warnings the suite produced, so the comparison
/// is known to cover each of them.
#[derive(Debug, Default)]
struct Seen {
    coverage: bool,
    out_of_range: bool,
    cardinality: bool,
    qid: bool,
    summary: bool,
    privacy: bool,
    sensitive_list: bool,
    band_warnings: usize,
    merge_duplicates: usize,
    merge_drops: usize,
    clean: usize,
}

impl Seen {
    fn note(&mut self, errors: &[VerificationError]) {
        for e in errors {
            match e {
                VerificationError::Coverage { .. } => self.coverage = true,
                VerificationError::MemberOutOfRange { .. } => self.out_of_range = true,
                VerificationError::Cardinality { .. } => self.cardinality = true,
                VerificationError::QidMismatch { .. } => self.qid = true,
                VerificationError::SensitiveCountMismatch { .. } => self.summary = true,
                VerificationError::PrivacyViolation { .. } => self.privacy = true,
                VerificationError::SensitiveItemsMismatch => self.sensitive_list = true,
            }
        }
    }
}

fn differential(base: &Base, seed: u64) {
    // Both registries run the same attack pass, so it replays no
    // attacker here (its index is still built on every mutant).
    let plan = AttackPlan::default().with_attackers(Vec::new());
    let shipped = default_registry();
    let oracle = oracle_registry();
    let mut rng = Rng(seed);
    let mut seen = Seen::default();
    for i in 0..MUTANTS {
        let release = tamper(base, &mut rng);
        let p = 1 + rng.below(5);
        let name = base.name;
        let errors = verify_all(&base.data, &base.sensitive, &release, p);
        assert_eq!(
            errors,
            old::verify_all(&base.data, &base.sensitive, &release, p),
            "{name} mutant {i} (p = {p}): verify_all"
        );
        assert_eq!(
            intra_group_overlap(&release),
            old::intra_group_overlap(&release),
            "{name} mutant {i}: intra_group_overlap"
        );
        let input = CheckInput {
            data: &base.data,
            sensitive: &base.sensitive,
            published: &release,
            p,
            trace: None,
            attack: Some(&plan),
        };
        let report = shipped.run(&input, &Recorder::disabled());
        assert_eq!(
            report,
            oracle.run(&input, &Recorder::disabled()),
            "{name} mutant {i} (p = {p}): registry report"
        );
        seen.note(&errors);
        seen.clean += usize::from(errors.is_empty());
        seen.band_warnings += report
            .diagnostics
            .iter()
            .filter(|d| d.code == "CAHD-B001")
            .count();
        for d in report.diagnostics.iter().filter(|d| d.code == "CAHD-P002") {
            if d.message.contains("twice") {
                seen.merge_duplicates += 1;
            } else {
                seen.merge_drops += 1;
            }
        }
    }
    assert!(
        seen.coverage
            && seen.out_of_range
            && seen.cardinality
            && seen.qid
            && seen.summary
            && seen.privacy
            && seen.sensitive_list,
        "{}: some error kind never occurred: {seen:?}",
        base.name
    );
    assert!(seen.band_warnings > 0, "{}: {seen:?}", base.name);
    assert!(
        seen.merge_duplicates > 0 && seen.merge_drops > 0,
        "{}: {seen:?}",
        base.name
    );
    assert!(
        seen.clean > 0,
        "{}: no mutant verified: {seen:?}",
        base.name
    );
}

#[test]
fn demo_mutants_audit_like_the_sort_based_code() {
    differential(&demo_base(), 0x5eed_0a0d);
}

#[test]
fn wide_universe_mutants_audit_like_the_sort_based_code() {
    differential(&wide_base(), 0x5eed_0a0e);
}

/// The shipped release of each base verifies clean through both codes.
#[test]
fn untampered_bases_are_clean() {
    for base in [demo_base(), wide_base()] {
        let input = CheckInput {
            data: &base.data,
            sensitive: &base.sensitive,
            published: &base.release,
            p: 4,
            trace: None,
            attack: None,
        };
        let report = default_registry().run(&input, &Recorder::disabled());
        assert!(
            report.is_clean(),
            "{}: {}",
            base.name,
            report.render_human()
        );
        assert_eq!(report, oracle_registry().run(&input, &Recorder::disabled()));
    }
}
