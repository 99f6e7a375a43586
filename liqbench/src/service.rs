//! The `risk-service` workload: a `RiskService` over the paper config ticks
//! on the writer thread with a `JournalWriter` as its observer, while one
//! reader thread answers a fixed query mix on every new epoch (closed loop:
//! it waits for the next epoch, never spins). The journals recorded by the
//! warm-up repetitions are replayed into a `StudyCollector` (see [`drive`]).

use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Weak};
use std::time::Instant;

use defi_journal::{JournalWriter, RiskService, ServiceSnapshot, SnapshotHandle};
use defi_lending::{BreachPaths, ShardSnapshot};
use defi_sim::{MultiObserver, SessionStatus, SimConfig};
use defi_types::{Address, Platform, Token};

use crate::common::{
    add_paths, drive, journal_path, live_liquidations, report_counters, secs_between, ticks_to_run,
    Outcome, Role, Samples, Tally, Workload, BREACH_SHOCK_BPS,
};
use crate::probe::{BookCounters, Probe};
use crate::stats::share;
use crate::trace::Tracer;

/// Point lookups in each query mix.
const LOOKUPS: usize = 8;
/// The reader re-draws its lookup accounts every this many epochs.
const REDRAW_EVERY: u64 = 32;
/// Every this many epochs the reader checks `breach_under` against the
/// shortcut-free reference on the same snapshot, outside the timed query.
const CHECK_EVERY: u64 = 16;

/// What the writer tells the reader.
enum Note {
    Handle(SnapshotHandle),
    Epoch,
}

#[derive(Default)]
struct ReaderOut {
    load_us: Vec<f64>,
    breach_us: Vec<f64>,
    at_risk_us: Vec<f64>,
    lookup_us: Vec<f64>,
    paths: BreachPaths,
    queries: u64,
    epochs_missed: u64,
    checks: u64,
    mismatches: Vec<String>,
}

fn micros_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// xorshift64*, seeded from the workload seed: which accounts the reader
/// looks up is an input, so it must repeat for one seed.
fn next_random(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

fn draw_accounts(snapshot: &ServiceSnapshot, state: &mut u64) -> Vec<Address> {
    let open = snapshot.open_positions() as u64;
    if open == 0 {
        return Vec::new();
    }
    let mut picks: Vec<u64> = (0..LOOKUPS).map(|_| next_random(state) % open).collect();
    picks.sort_unstable();
    let mut accounts = Vec::with_capacity(LOOKUPS);
    let mut picks = picks.into_iter().peekable();
    let entries = snapshot
        .books()
        .flat_map(|(_, book)| book.entries().map(|(address, _)| *address));
    for (index, address) in entries.enumerate() {
        while picks.peek() == Some(&(index as u64)) {
            picks.next();
            accounts.push(address);
        }
    }
    accounts
}

fn reader(notes: Receiver<Note>, seed: u64) -> ReaderOut {
    let mut out = ReaderOut::default();
    let Ok(Note::Handle(handle)) = notes.recv() else {
        return out;
    };
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15 | 1;
    let mut accounts = Vec::new();
    while notes.recv().is_ok() {
        while notes.try_recv().is_ok() {
            out.epochs_missed += 1;
        }
        let start = Instant::now();
        let snapshot = handle.load();
        out.load_us.push(micros_since(start));
        if out.queries % REDRAW_EVERY == 0 || accounts.is_empty() {
            accounts = draw_accounts(&snapshot, &mut state);
        }
        let start = Instant::now();
        let breach = snapshot.breach_under(Token::ETH, BREACH_SHOCK_BPS);
        out.breach_us.push(micros_since(start));
        let start = Instant::now();
        black_box(snapshot.at_risk());
        out.at_risk_us.push(micros_since(start));
        for account in &accounts {
            let start = Instant::now();
            black_box(snapshot.position(*account));
            out.lookup_us.push(micros_since(start));
        }
        for (_, report) in &breach {
            add_paths(&mut out.paths, report.paths);
        }
        if out.queries % CHECK_EVERY == 0 {
            for (platform, report) in &breach {
                let Some(book) = snapshot.book(*platform) else {
                    continue;
                };
                let reference = book.breach_under_reference(Token::ETH, BREACH_SHOCK_BPS);
                out.checks += 1;
                if reference != report.breached {
                    out.mismatches.push(format!(
                        "epoch {}: {platform} breach_under found {} accounts, the reference {}",
                        snapshot.epoch(),
                        report.breached.len(),
                        reference.len()
                    ));
                }
            }
        }
        out.queries += 1;
    }
    out
}

fn snapshot_counters(snapshot: &ServiceSnapshot) -> BookCounters {
    let mut counters = BookCounters::default();
    for (_, book) in snapshot.books() {
        counters.add(&book.stats);
    }
    counters
}

/// Weak references to a snapshot's shards, per platform. A weak reference
/// keeps the shard's allocation reserved without keeping the shard alive, so
/// the benchmark never becomes the last owner of a superseded snapshot (its
/// release stays where the service puts it) and a pointer match still proves
/// the shard was shared.
type ShardRefs = Vec<(Platform, Vec<Weak<ShardSnapshot>>)>;

fn shard_refs(snapshot: &ServiceSnapshot) -> ShardRefs {
    snapshot
        .books()
        .map(|(platform, book)| {
            (
                *platform,
                book.shards().iter().map(Arc::downgrade).collect(),
            )
        })
        .collect()
}

/// Shards of `now` frozen afresh vs shared with the previous snapshot.
fn shard_reuse(before: &ShardRefs, now: &ServiceSnapshot) -> (u64, u64) {
    let (mut refrozen, mut reused) = (0, 0);
    for (platform, book) in now.books() {
        let old = before
            .iter()
            .find(|(p, _)| p == platform)
            .map(|(_, shards)| shards);
        for (index, shard) in book.shards().iter().enumerate() {
            let shared = old
                .and_then(|old| old.get(index))
                .is_some_and(|old| std::ptr::eq(old.as_ptr(), Arc::as_ptr(shard)));
            if shared {
                reused += 1;
            } else {
                refrozen += 1;
            }
        }
    }
    (refrozen, reused)
}

/// Run one repetition, recording its journal for [`drive`] to replay. Only
/// a timed repetition's clock readings are end-to-end samples (set-up is
/// sampled on every repetition), and only a traced one records spans.
fn repetition(
    config: &SimConfig,
    role: Role,
    mut tracer: Option<&mut Tracer>,
    samples: &mut Samples,
    tally: &mut Tally,
) -> Option<Outcome> {
    let timed = role == Role::Timed;
    let traced = role == Role::Traced;
    let path = journal_path(Workload::RiskService, config);
    let journal = &path;
    let (notes, inbox) = channel();
    let seed = config.seed;
    // `move`: an early return drops `notes`, which ends the reader before
    // the scope joins it.
    std::thread::scope(move |scope| {
        let reader = scope.spawn(move || reader(inbox, seed));
        // Creating the journal file is file-system work outside the
        // service's set-up, so it stays outside `setup_s`.
        let mut writer = match JournalWriter::create(journal) {
            Ok(writer) => writer,
            Err(error) => {
                tally.fail(format!("journal create: {error}"));
                return None;
            }
        };
        let start = Instant::now();
        let root = tracer.as_deref_mut().map(|t| t.open("rep", start, None));
        let mut service = RiskService::new(config.clone());
        let handle = service.handle();
        let built = Instant::now();
        let _ = notes.send(Note::Handle(handle.clone()));

        let mut ticks = 0u64;
        let last_tick = ticks_to_run(config);
        let mut tick_ms = Vec::with_capacity(last_tick as usize);
        let mut previous = ShardRefs::new();
        let (mut refrozen, mut reused, mut entries) = (0u64, 0u64, 0u64);
        let mut before = BookCounters::default();
        let (mut engine_self_ns, mut write_ns, mut book_ns) = (0u64, 0u64, 0u64);
        let (report, first_tick, finish_start, finish_end, run_end_ns, final_counters) = {
            let mut probe = Probe::new(MultiObserver::new().with(&mut writer), traced);
            let final_counters = loop {
                let call = Instant::now();
                let status = match service.tick(&mut probe) {
                    Ok(status) => status,
                    Err(error) => {
                        tally.fail(format!("tick {ticks}: {error}"));
                        return None;
                    }
                };
                let end = Instant::now();
                let begin = if ticks == 0 {
                    let first = probe.first_tick.unwrap_or(call);
                    if let (Some(tracer), Some(root)) = (tracer.as_deref_mut(), root) {
                        tracer.record("sim.build", start, built, Some(root), vec![]);
                        tracer.record("sim.genesis", call, first, Some(root), vec![]);
                    }
                    first
                } else {
                    call
                };
                ticks += 1;
                tick_ms.push(secs_between(begin, end) * 1e3);
                let snapshot = handle.load();
                let (fresh, shared) = shard_reuse(&previous, &snapshot);
                refrozen += fresh;
                reused += shared;
                entries += snapshot.open_positions() as u64;
                if let (Some(tracer), Some(root)) = (tracer.as_deref_mut(), root) {
                    let after = snapshot_counters(&snapshot);
                    let delta = after.since(&before);
                    before = after;
                    let hook = probe.take_hook_ns();
                    let tick_ns = u64::try_from(end.duration_since(begin).as_nanos()).unwrap_or(0);
                    engine_self_ns += tick_ns.saturating_sub(hook + delta.busy_nanos());
                    book_ns += delta.busy_nanos();
                    write_ns += hook;
                    let mut attrs = vec![
                        ("hook_ns", hook),
                        ("shards_refrozen", fresh),
                        ("shards_reused", shared),
                    ];
                    attrs.extend(delta.attrs());
                    tracer.record("service.tick", begin, end, Some(root), attrs);
                }
                let _ = notes.send(Note::Epoch);
                previous = shard_refs(&snapshot);
                if ticks == last_tick || status == SessionStatus::TicksComplete {
                    break snapshot_counters(&snapshot);
                }
            };
            tally.ok(ticks);
            let finish_start = Instant::now();
            let report = match service.finish(&mut probe) {
                Ok(report) => report,
                Err(error) => {
                    tally.fail(format!("finish: {error}"));
                    return None;
                }
            };
            (
                report,
                probe.first_tick.unwrap_or(start),
                finish_start,
                Instant::now(),
                probe.run_end_ns,
                final_counters,
            )
        };
        let frames = writer.frames_written();
        if let Err(error) = writer.finish() {
            tally.fail(format!("journal finish: {error}"));
            return None;
        }
        let closed = Instant::now();
        drop(notes);
        let Ok(read) = reader.join() else {
            tally.fail("the reader thread panicked".to_string());
            return None;
        };
        let run_s = secs_between(first_tick, closed);
        let bytes = std::fs::metadata(journal).map_or(0, |meta| meta.len());

        tally.check(final_counters.stale_violations == 0, || {
            format!(
                "book stale-flag invariant violated {} times",
                final_counters.stale_violations
            )
        });
        tally.ok(read.queries + read.checks - read.mismatches.len() as u64);
        for mismatch in read.mismatches {
            tally.fail(mismatch);
        }

        samples.setup_s.push(secs_between(start, first_tick));
        if timed {
            samples.run_s.push(run_s);
            samples.tick_ms.extend(&tick_ms);
            samples.breach_us.extend(&read.breach_us);
        }
        samples.layer("sim.build_ms", secs_between(start, built) * 1e3);
        samples.layer("sim.genesis_ms", secs_between(built, first_tick) * 1e3);
        let p50 = |values: &[f64]| crate::stats::median(values).unwrap_or(0.0);
        samples.layer("service.load_us_p50", p50(&read.load_us));
        samples.layer("service.at_risk_us_p50", p50(&read.at_risk_us));
        samples.layer("service.lookup_us_p50", p50(&read.lookup_us));
        samples.layer("service.epochs_missed", read.epochs_missed as f64);
        samples.layer("service.queries", read.queries as f64);
        samples.breach_paths(read.paths);
        samples.layer("service.shards_refrozen", refrozen as f64);
        samples.layer("service.shards_reused", reused as f64);
        samples.layer("service.reuse_ratio", share(reused, reused + refrozen));
        samples.layer(
            "service.snapshot_entries",
            entries as f64 / ticks.max(1) as f64,
        );
        samples.layer("journal.frames", frames as f64);
        samples.layer("journal.bytes", bytes as f64);
        samples.layer("sim.ticks", ticks as f64);
        samples.book(&final_counters);
        report_counters(samples, &report);

        if let (Some(tracer), Some(root)) = (tracer, root) {
            tracer.record(
                "sim.finish",
                finish_start,
                finish_end,
                Some(root),
                vec![("run_end_ns", run_end_ns)],
            );
            tracer.record("journal.finish", finish_end, closed, Some(root), vec![]);
            tracer.close(root, closed);
            let finish_ms = secs_between(finish_start, finish_end) * 1e3;
            let close_ms = secs_between(finish_end, closed) * 1e3;
            samples.traced_run_s.push(run_s);
            samples.layer("sim.engine_self_ms", engine_self_ns as f64 / 1e6);
            samples.layer("lending.book.busy_ms", book_ns as f64 / 1e6);
            samples.layer("journal.write_ms", (write_ns + run_end_ns) as f64 / 1e6);
            samples.layer("sim.finish_ms", finish_ms - run_end_ns as f64 / 1e6);
            samples.layer("journal.finish_ms", close_ms);
            samples.layer(
                "trace.attributed_share",
                (tick_ms.iter().sum::<f64>() + finish_ms + close_ms) / (run_s * 1e3),
            );
            samples.step_ms.extend(&tick_ms);
        }

        let live = live_liquidations(&report);
        let mut fingerprint = vec![ticks, live, frames, bytes, refrozen, reused, entries];
        fingerprint.extend(final_counters.work());
        Some(Outcome {
            fingerprint,
            live_liquidations: live,
            journal: Some(journal.clone()),
        })
    })
}

/// One run of `risk-service` (see [`drive`]).
pub fn run(seed: u64, seconds: f64, tracer: Option<&mut Tracer>) -> (Samples, Tally) {
    drive(Workload::RiskService, seed, seconds, tracer, repetition)
}
