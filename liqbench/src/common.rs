//! What the workloads share: their configuration, the per-run tallies and
//! sample sets, the journal replay, and the counters read off a finished
//! simulation report.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use defi_analytics::StudyAnalysis;
use defi_bench::render;
use defi_chain::ChainEvent;
use defi_journal::JournalReader;
use defi_lending::BreachPaths;
use defi_sim::{MultiObserver, SimConfig, SimulationReport};

use crate::probe::{BookCounters, Probe};
use crate::stats::share;
use crate::trace::Tracer;

/// Every workload runs the paper config from its first block (7.5M) and
/// stops after the tick that reaches this block, the end of the March-2020
/// crash (blocks 9.5M–9.9M), finishing the session early. The crash thus
/// meets the book the two-year study has at that point, about 1 200 open
/// accounts at block 9.5M.
pub const STOP_BLOCK: u64 = 9_900_000;

/// The what-if query of the stress analyst: which accounts breach HF 1 if
/// ETH drops 20 %.
pub const BREACH_SHOCK_BPS: i32 = -2_000;

/// Ticks a workload runs: from the config's first block to [`STOP_BLOCK`].
pub fn ticks_to_run(config: &SimConfig) -> u64 {
    STOP_BLOCK.saturating_sub(config.start_block) / config.tick_blocks
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperStudy,
    CrunchSpiral,
    RiskService,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperStudy,
        Workload::CrunchSpiral,
        Workload::RiskService,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperStudy => "paper-study",
            Workload::CrunchSpiral => "crunch-spiral",
            Workload::RiskService => "risk-service",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Input sets one run cycles through. Each must run twice in a run for
    /// the determinism gate, and a `risk-service` repetition takes 5–8 s,
    /// so it has one input set; the batch workloads, at 1–3 s a repetition,
    /// have two.
    pub fn input_sets(self) -> u64 {
        match self {
            Workload::PaperStudy | Workload::CrunchSpiral => 2,
            Workload::RiskService => 1,
        }
    }

    /// Input set `index` of the run seeded `seed` — the only input the
    /// program receives: a `SimConfig` made from the workload name and the
    /// seed. `book_workers` keeps its default of 1.
    pub fn input(self, seed: u64, index: u64) -> SimConfig {
        let mut config = SimConfig::paper_default(subseed(seed, index % self.input_sets()));
        if self == Workload::CrunchSpiral {
            config.scenario = Some("capital-crunch-spiral".to_string());
        }
        config
    }
}

/// SplitMix64 of (`seed`, `index`): the simulation seed of one input set.
fn subseed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(64)
        .wrapping_add(index)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Operations attempted and failed in one run. Every correctness gate that
/// trips counts one failed operation.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation; record it as failed with `problem` when
    /// `ok` is false.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("liqbench: FAILED: {}", problem());
        }
    }

    /// Count `ops` operations that all succeeded.
    pub fn ok(&mut self, ops: u64) {
        self.attempted += ops;
    }

    /// Count one operation that failed with an error.
    pub fn fail(&mut self, problem: String) {
        self.check(false, || problem);
    }
}

/// Samples gathered over one run. Layer metrics are keyed by their reported
/// name and summarised by their median.
#[derive(Debug, Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    pub run_s: Vec<f64>,
    pub traced_run_s: Vec<f64>,
    pub tick_ms: Vec<f64>,
    /// Tick latencies of the traced repetitions.
    pub step_ms: Vec<f64>,
    pub breach_us: Vec<f64>,
    pub replay_s: Vec<f64>,
    /// Peak resident set of the process when its first repetition ended.
    pub peak_rss_mb: Option<f64>,
    pub layers: BTreeMap<&'static str, Vec<f64>>,
}

impl Samples {
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.entry(name).or_default().push(value);
    }

    /// The book's own counters over one repetition.
    pub fn book(&mut self, book: &BookCounters) {
        let ms = |nanos: u64| nanos as f64 / 1e6;
        self.layer("lending.book.flush_ms", ms(book.flush_nanos));
        self.layer("lending.book.visit_ms", ms(book.visit_nanos));
        self.layer("lending.book.freshen_ms", ms(book.freshen_nanos));
        self.layer(
            "lending.book.envelope_derive_ms",
            ms(book.envelope_derive_nanos),
        );
        self.layer("lending.book.flushes", book.flushes as f64);
        self.layer("lending.book.revaluations", book.revaluations as f64);
        self.layer("lending.book.term_reprices", book.term_reprices as f64);
        self.layer("lending.book.light_refreshes", book.light_refreshes as f64);
        self.layer("lending.book.envelope_skips", book.envelope_skips as f64);
        self.layer(
            "lending.book.envelope_derives",
            book.envelope_derives as f64,
        );
        self.layer("lending.book.scratch_grows", book.scratch_grows as f64);
        self.layer(
            "lending.book.stale_violations",
            book.stale_violations as f64,
        );
        let considered = book.envelope_skips + book.revaluations;
        self.layer(
            "lending.book.skip_ratio",
            share(book.envelope_skips, considered),
        );
    }

    /// Which path answered the accounts of the what-if queries of one
    /// repetition.
    pub fn breach_paths(&mut self, paths: BreachPaths) {
        self.layer("service.breach.critical", paths.critical as f64);
        self.layer("service.breach.insensitive", paths.insensitive as f64);
        self.layer("service.breach.envelope", paths.envelope as f64);
        self.layer("service.breach.revalued", paths.revalued as f64);
        let shortcuts = paths.critical + paths.insensitive + paths.envelope;
        self.layer(
            "service.breach.shortcut_ratio",
            share(shortcuts as u64, (shortcuts + paths.revalued) as u64),
        );
    }
}

/// Sum of two path tallies.
pub fn add_paths(total: &mut BreachPaths, more: BreachPaths) {
    total.critical += more.critical;
    total.insensitive += more.insensitive;
    total.envelope += more.envelope;
    total.revalued += more.revalued;
}

/// The deterministic outputs of one repetition. Every repetition of one
/// input set must produce the same fingerprint.
pub type Fingerprint = Vec<u64>;

/// What one repetition hands back to [`drive`].
pub struct Outcome {
    pub fingerprint: Fingerprint,
    /// Liquidations the live run settled.
    pub live_liquidations: u64,
    /// The journal the repetition recorded and left in place, if any.
    pub journal: Option<PathBuf>,
}

/// A recorded journal, with the live run's liquidation count.
type Recorded = (PathBuf, u64);

/// What a repetition's clock readings are for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Untimed: warms the process up and, on the batch workloads, records
    /// the journal of its input set.
    Warmup,
    /// End-to-end samples.
    Timed,
    /// Per-layer samples, with spans.
    Traced,
}

/// Where a repetition of `config` records the journal [`drive`] replays.
pub fn journal_path(workload: Workload, config: &SimConfig) -> PathBuf {
    out_dir().join(format!("{}-{}.djrn", workload.name(), config.seed))
}

/// The run loop every workload shares.
///
/// 1. The batch workloads journal nothing while timed, so they first make
///    one warm-up repetition of every input set, recording its journal.
///    `risk-service` journals every repetition and needs no warm-up.
/// 2. Timed repetitions, cycling through the input sets, until `seconds` is
///    up and every input set has run twice. With a tracer each input set
///    runs twice in a row, untraced and then traced.
///
/// Every repetition must produce the fingerprint of its input set's first
/// repetition, and each timed or traced one is followed by a replay of every
/// journal recorded so far.
pub fn drive(
    workload: Workload,
    seed: u64,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    mut repetition: impl FnMut(
        &SimConfig,
        Role,
        Option<&mut Tracer>,
        &mut Samples,
        &mut Tally,
    ) -> Option<Outcome>,
) -> (Samples, Tally) {
    let mut samples = Samples::default();
    let mut tally = Tally::default();
    let began = Instant::now();
    let sets = workload.input_sets();
    let warmups = if workload == Workload::RiskService {
        0
    } else {
        sets
    };
    let timed: &[Role] = match tracer {
        Some(_) => &[Role::Timed, Role::Traced],
        None => &[Role::Timed],
    };
    let mut journals: Vec<Recorded> = Vec::new();
    let mut firsts: Vec<Option<Fingerprint>> = vec![None; sets as usize];
    let mut runs = vec![0u64; sets as usize];
    let mut step_secs = Vec::new();
    for step in 0.. {
        let roles: &[Role] = if step < warmups {
            &[Role::Warmup]
        } else {
            timed
        };
        if step >= warmups {
            let estimate = crate::stats::median(&step_secs).unwrap_or(0.0);
            let gated = runs.iter().all(|&count| count >= 2);
            if gated && began.elapsed().as_secs_f64() + estimate > seconds {
                break;
            }
        }
        let input = step % sets;
        let config = workload.input(seed, input);
        let started = Instant::now();
        for &role in roles {
            let traced = tracer.as_deref_mut().filter(|_| role == Role::Traced);
            let Some(outcome) = repetition(&config, role, traced, &mut samples, &mut tally) else {
                return finish(journals, samples, tally);
            };
            // One study (or one service run) in a fresh process, as its user
            // runs it. Later repetitions add only what the allocator kept of
            // earlier ones, which varied by 0.10 of the median across runs.
            samples.peak_rss_mb.get_or_insert_with(peak_rss_mb);
            let slot = input as usize;
            runs[slot] += 1;
            match &firsts[slot] {
                None => {
                    if let Some(path) = outcome.journal {
                        journals.push((path, outcome.live_liquidations));
                    }
                    firsts[slot] = Some(outcome.fingerprint);
                }
                Some(first) => tally.check(*first == outcome.fingerprint, || {
                    format!(
                        "work counters differ between repetitions of input set {input}: \
                         {first:?} vs {:?}",
                        outcome.fingerprint
                    )
                }),
            }
            if role != Role::Warmup {
                let traced = tracer.as_deref_mut().filter(|_| role == Role::Traced);
                replay_pass(&journals, &mut samples, &mut tally, traced);
            }
        }
        if step >= warmups {
            step_secs.push(started.elapsed().as_secs_f64());
        }
    }
    finish(journals, samples, tally)
}

/// Delete the run's journals and hand back its samples.
fn finish(journals: Vec<Recorded>, samples: Samples, tally: Tally) -> (Samples, Tally) {
    for (journal, _) in journals {
        let _ = std::fs::remove_file(journal);
    }
    (samples, tally)
}

pub fn secs_between(start: Instant, end: Instant) -> f64 {
    end.saturating_duration_since(start).as_secs_f64()
}

/// Render every simulation artefact `repro all` prints, to memory.
pub fn render_all(analysis: &StudyAnalysis) -> String {
    [
        render::render_headline(analysis),
        render::render_table1(analysis),
        render::render_figure4(analysis),
        render::render_figure5(analysis),
        render::render_figure6(analysis),
        render::render_auctions(analysis),
        render::render_table2(analysis),
        render::render_table3(analysis),
        render::render_table4(analysis),
        render::render_figure8(analysis),
        render::render_stablecoins(analysis),
        render::render_figure9(analysis),
        render::render_table8(analysis),
        render::render_table7(analysis),
    ]
    .join("\n")
}

/// FNV-1a, to fingerprint rendered text.
pub fn hash_text(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Settled liquidations in a finished report — the events the session
/// surfaces through `on_liquidation`.
pub fn live_liquidations(report: &SimulationReport) -> u64 {
    report
        .chain
        .events()
        .iter()
        .filter(|logged| {
            matches!(
                logged.event,
                ChainEvent::Liquidation(_) | ChainEvent::AuctionFinalized { .. }
            )
        })
        .count() as u64
}

/// Event counts by kind, oracle writes and behavioural-layer counters of a
/// finished report, as layer metrics.
pub fn report_counters(samples: &mut Samples, report: &SimulationReport) {
    let mut kinds: BTreeMap<&'static str, u64> = BTreeMap::new();
    for logged in report.chain.events().iter() {
        let kind = match logged.event {
            ChainEvent::Liquidation(_) => "sim.events.liquidation",
            ChainEvent::AuctionBid { .. } => "sim.events.auction_bid",
            ChainEvent::FlashLoan { .. } => "sim.events.flash_loan",
            ChainEvent::OracleUpdate { .. } => "sim.events.oracle_update",
            ChainEvent::Borrow { .. } => "sim.events.borrow",
            ChainEvent::Deposit { .. } => "sim.events.deposit",
            ChainEvent::Repay { .. } => "sim.events.repay",
            ChainEvent::AuctionStarted { .. } | ChainEvent::AuctionFinalized { .. } => continue,
        };
        *kinds.entry(kind).or_default() += 1;
    }
    for name in [
        "sim.events.liquidation",
        "sim.events.auction_bid",
        "sim.events.flash_loan",
        "sim.events.oracle_update",
        "sim.events.borrow",
        "sim.events.deposit",
        "sim.events.repay",
    ] {
        samples.layer(name, kinds.get(name).copied().unwrap_or(0) as f64);
    }
    let oracle_writes = report.market_oracle.epoch()
        + report
            .platform_oracles
            .values()
            .map(|oracle| oracle.epoch())
            .sum::<u64>();
    samples.layer("oracle.writes", oracle_writes as f64);
    let behavior = report
        .behavior
        .as_ref()
        .map(|behavior| behavior.stats)
        .unwrap_or_default();
    samples.layer("sim.behavior.queued", behavior.opportunities_queued as f64);
    samples.layer(
        "sim.behavior.executed_delayed",
        behavior.executed_delayed as f64,
    );
    samples.layer("sim.behavior.stale_dropped", behavior.stale_dropped as f64);
    samples.layer(
        "sim.behavior.inventory_exhaustions",
        behavior.inventory_exhaustions as f64,
    );
    samples.layer("sim.behavior.panic_exits", behavior.panic_exits as f64);
}

/// Where a run keeps its journal and trace: inside the checkout, in a
/// directory `.gitignore` names.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

/// Replay every journal into a fresh study, back to back. One pass is one
/// `replay_s` sample: the mean time of one replay (open + replay +
/// `into_analysis`), so a sample spans every input set and far more work
/// than a single replay. Each replay's liquidation count must equal the live
/// run's.
fn replay_pass(
    journals: &[Recorded],
    samples: &mut Samples,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
) {
    let traced = tracer.is_some();
    let (mut open_ns, mut decode_ns, mut collect_ns, mut run_end_ns) = (0, 0, 0, 0);
    let pass = Instant::now();
    for (path, live) in journals {
        let start = Instant::now();
        let reader = match JournalReader::open(path) {
            Ok(reader) => reader,
            Err(error) => return tally.fail(format!("journal open {}: {error}", path.display())),
        };
        let opened = Instant::now();
        let mut hooks = (0, 0);
        let analysis = StudyAnalysis::from_replay(|observer| {
            let mut probe = Probe::new(MultiObserver::new().with(observer), traced);
            let result = reader.replay(&mut probe);
            hooks = (probe.take_hook_ns(), probe.run_end_ns);
            result
        });
        let end = Instant::now();
        let analysis = match analysis {
            Ok(Some(analysis)) => analysis,
            Ok(None) => return tally.fail("journal replay ended before the run end".to_string()),
            Err(error) => return tally.fail(format!("journal replay: {error}")),
        };
        let replayed = u64::from(analysis.headline.liquidation_count);
        tally.check(replayed == *live, || {
            format!("replayed study has {replayed} liquidations, the live run {live}")
        });
        if let Some(tracer) = tracer.as_deref_mut() {
            let root = tracer.open("journal.replay", start, None);
            tracer.record("journal.open", start, opened, Some(root), vec![]);
            tracer.record(
                "journal.decode",
                opened,
                end,
                Some(root),
                vec![("collect_ns", hooks.0), ("run_end_ns", hooks.1)],
            );
            tracer.close(root, end);
        }
        open_ns += nanos_between(start, opened);
        decode_ns += nanos_between(opened, end);
        collect_ns += hooks.0;
        run_end_ns += hooks.1;
    }
    let count = journals.len().max(1) as f64;
    if !traced {
        samples.replay_s.push(pass.elapsed().as_secs_f64() / count);
    } else {
        let ms = |nanos: u64| nanos as f64 / 1e6 / count;
        samples.layer("journal.open_ms", ms(open_ns));
        samples.layer(
            "journal.replay_ms",
            ms(decode_ns.saturating_sub(collect_ns + run_end_ns)),
        );
        samples.layer("analytics.replay_collect_ms", ms(collect_ns));
        samples.layer("analytics.replay_run_end_ms", ms(run_end_ns));
    }
}

fn nanos_between(start: Instant, end: Instant) -> u64 {
    u64::try_from(end.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_sets_cycle_and_differ() {
        let workload = Workload::CrunchSpiral;
        let sets = workload.input_sets();
        let seeds: Vec<u64> = (0..sets)
            .map(|index| workload.input(7, index).seed)
            .collect();
        let distinct: std::collections::BTreeSet<u64> = seeds.iter().copied().collect();
        assert_eq!(distinct.len() as u64, sets);
        assert_eq!(workload.input(7, sets + 1).seed, seeds[1]);
        assert!(!seeds.contains(&workload.input(8, 0).seed));
        let config = workload.input(7, 1);
        assert_eq!(config.scenario.as_deref(), Some("capital-crunch-spiral"));
        assert_eq!(config.book_workers, 1);
        let paper = Workload::PaperStudy.input(7, 1);
        assert_eq!(paper.scenario, None);
        assert_eq!(
            (paper.start_block, paper.end_block),
            (
                SimConfig::paper_default(0).start_block,
                SimConfig::paper_default(0).end_block
            )
        );
        assert_eq!(ticks_to_run(&paper), 4_000);
    }

    #[test]
    fn tally_counts_failures_as_attempts() {
        let mut tally = Tally::default();
        tally.ok(5);
        tally.check(true, || unreachable!());
        tally.check(false, || "mismatch".to_string());
        assert_eq!((tally.attempted, tally.failed), (7, 1));
    }
}
