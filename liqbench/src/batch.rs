//! The batch workloads, `paper-study` and `crunch-spiral`: one engine per
//! repetition, stepped tick by tick through a `StudyCollector`, finished and
//! rendered to memory — the researcher's time-to-result. After the result
//! the final books answer the stress analyst's what-if query.

use std::hint::black_box;
use std::time::Instant;

use defi_analytics::StudyCollector;
use defi_journal::JournalWriter;
use defi_lending::{BookSnapshot, BreachPaths};
use defi_sim::{EngineBuilder, MultiObserver, Session, SessionStatus, SimConfig};
use defi_types::{Platform, Token};

use crate::common::{
    add_paths, drive, hash_text, journal_path, live_liquidations, render_all, report_counters,
    secs_between, ticks_to_run, Outcome, Role, Samples, Tally, Workload, BREACH_SHOCK_BPS,
};
use crate::probe::{BookCounters, Probe};
use crate::trace::Tracer;

/// Timed what-if queries against the final books of each repetition.
const BREACH_QUERIES: usize = 100;

fn book_counters(session: &mut Session, platforms: &[Platform]) -> BookCounters {
    let mut counters = BookCounters::default();
    for platform in platforms {
        if let Some(stats) =
            session.inspect_protocol(*platform, |protocol, _| protocol.book_stats())
        {
            counters.add(&stats);
        }
    }
    counters
}

/// Run one repetition. A warm-up repetition attaches a journal writer next
/// to the collector and records the journal [`drive`] replays. Only a timed
/// repetition's clock readings are end-to-end samples (set-up is sampled on
/// every repetition), and only a traced one records spans.
fn repetition(
    workload: Workload,
    config: &SimConfig,
    role: Role,
    mut tracer: Option<&mut Tracer>,
    samples: &mut Samples,
    tally: &mut Tally,
) -> Option<Outcome> {
    let timed = role == Role::Timed;
    let traced = role == Role::Traced;
    let journal = (role == Role::Warmup).then(|| journal_path(workload, config));
    let mut writer = match journal.as_deref().map(JournalWriter::create).transpose() {
        Ok(writer) => writer,
        Err(error) => {
            tally.fail(format!("journal create: {error}"));
            return None;
        }
    };
    let start = Instant::now();
    let root = tracer.as_deref_mut().map(|t| t.open("rep", start, None));
    let engine = EngineBuilder::new(config.clone()).build();
    let built = Instant::now();
    let mut session = Session::new(engine);
    let platforms = session.platforms();
    let mut collector = StudyCollector::new();
    let mut ticks = 0u64;
    let last_tick = ticks_to_run(config);
    let mut tick_ms = Vec::with_capacity(last_tick as usize);
    let mut engine_self_ns = 0u64;
    let mut collect_ns = 0u64;
    let mut book_ns = 0u64;
    let mut before = BookCounters::default();
    let (report, first_tick, ticks_end, finish_start, finish_end, run_end_ns, end_counters, books) = {
        let mut observers = MultiObserver::new().with(&mut collector);
        if let Some(writer) = writer.as_mut() {
            observers = observers.with(writer);
        }
        let mut probe = Probe::new(observers, traced);
        loop {
            let call = Instant::now();
            let status = match session.step(&mut probe) {
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
            if let (Some(tracer), Some(root)) = (tracer.as_deref_mut(), root) {
                let after = book_counters(&mut session, &platforms);
                let delta = after.since(&before);
                before = after;
                let hook = probe.take_hook_ns();
                let step_ns = u64::try_from(end.duration_since(begin).as_nanos()).unwrap_or(0);
                let busy = delta.busy_nanos();
                engine_self_ns += step_ns.saturating_sub(hook + busy);
                collect_ns += hook;
                book_ns += busy;
                let mut attrs = vec![("hook_ns", hook)];
                attrs.extend(delta.attrs());
                tracer.record("sim.step", begin, end, Some(root), attrs);
            }
            if ticks == last_tick || status == SessionStatus::TicksComplete {
                break;
            }
        }
        tally.ok(ticks);
        let ticks_end = Instant::now();
        let end_counters = book_counters(&mut session, &platforms);
        // The what-if query runs on frozen copies of the final books, taken
        // outside the timed interval.
        let books: Vec<BookSnapshot> = platforms
            .iter()
            .filter_map(|platform| {
                session
                    .inspect_protocol(*platform, |protocol, oracle| protocol.book_snapshot(oracle))
            })
            .collect();
        let finish_start = Instant::now();
        let report = match session.finish(&mut probe) {
            Ok(report) => report,
            Err(error) => {
                tally.fail(format!("finish: {error}"));
                return None;
            }
        };
        let finish_end = Instant::now();
        (
            report,
            probe.first_tick.unwrap_or(start),
            ticks_end,
            finish_start,
            finish_end,
            probe.run_end_ns,
            end_counters,
            books,
        )
    };
    let Some(analysis) = collector.into_analysis() else {
        tally.fail("the study collector saw no run end".to_string());
        return None;
    };
    let render_start = Instant::now();
    let text = black_box(render_all(&analysis));
    let render_end = Instant::now();
    let run_s = secs_between(first_tick, ticks_end) + secs_between(finish_start, render_end);

    if let Some(writer) = writer {
        let frames = writer.frames_written();
        let close = Instant::now();
        if let Err(error) = writer.finish() {
            tally.fail(format!("journal finish: {error}"));
            return None;
        }
        samples.layer("journal.finish_ms", close.elapsed().as_secs_f64() * 1e3);
        samples.layer("journal.frames", frames as f64);
    }

    // Correctness: the study saw every settled liquidation, no lazily-stale
    // valuation survived a drain, and the shortcut answers of the what-if
    // query equal the exact re-projection.
    let live = live_liquidations(&report);
    let studied = u64::from(analysis.headline.liquidation_count);
    tally.check(studied == live, || {
        format!("study counted {studied} liquidations, the chain settled {live}")
    });
    tally.check(end_counters.stale_violations == 0, || {
        format!(
            "book stale-flag invariant violated {} times",
            end_counters.stale_violations
        )
    });
    let mut breached = 0u64;
    let mut paths = BreachPaths::default();
    for book in &books {
        let report = book.breach_under(Token::ETH, BREACH_SHOCK_BPS);
        let reference = book.breach_under_reference(Token::ETH, BREACH_SHOCK_BPS);
        tally.check(report.breached == reference, || {
            format!(
                "breach_under found {} accounts, the reference {}",
                report.breached.len(),
                reference.len()
            )
        });
        breached += report.breached.len() as u64;
        add_paths(&mut paths, report.paths);
    }
    samples.breach_paths(paths);
    for _ in 0..BREACH_QUERIES {
        let query = Instant::now();
        for book in &books {
            black_box(book.breach_under(Token::ETH, BREACH_SHOCK_BPS));
        }
        if timed {
            samples.breach_us.push(query.elapsed().as_secs_f64() * 1e6);
        }
    }
    tally.ok(BREACH_QUERIES as u64);

    samples.setup_s.push(secs_between(start, first_tick));
    if timed {
        samples.run_s.push(run_s);
        samples.tick_ms.extend(&tick_ms);
    }
    samples.layer("sim.build_ms", secs_between(start, built) * 1e3);
    samples.layer("sim.genesis_ms", secs_between(built, first_tick) * 1e3);
    if let (Some(tracer), Some(root)) = (tracer, root) {
        tracer.record(
            "bench.snapshot",
            ticks_end,
            finish_start,
            Some(root),
            vec![],
        );
        tracer.record(
            "sim.finish",
            finish_start,
            finish_end,
            Some(root),
            vec![("run_end_ns", run_end_ns)],
        );
        tracer.record("bench.render", render_start, render_end, Some(root), vec![]);
        tracer.close(root, render_end);
        let step_ms: f64 = tick_ms.iter().sum();
        let finish_ms = secs_between(finish_start, finish_end) * 1e3;
        let render_ms = secs_between(render_start, render_end) * 1e3;
        samples.traced_run_s.push(run_s);
        samples.step_ms.extend(&tick_ms);
        samples.layer("sim.engine_self_ms", engine_self_ns as f64 / 1e6);
        samples.layer("analytics.collect_ms", collect_ns as f64 / 1e6);
        samples.layer("lending.book.busy_ms", book_ns as f64 / 1e6);
        samples.layer("analytics.run_end_ms", run_end_ns as f64 / 1e6);
        samples.layer("sim.finish_ms", finish_ms - run_end_ns as f64 / 1e6);
        samples.layer("bench.render_ms", render_ms);
        samples.layer(
            "trace.attributed_share",
            (step_ms + finish_ms + render_ms) / (run_s * 1e3),
        );
    }
    samples.layer("sim.ticks", ticks as f64);
    samples.layer("analytics.records", studied as f64);
    samples.book(&end_counters);
    report_counters(samples, &report);

    if let Some(journal) = &journal {
        if let Ok(meta) = std::fs::metadata(journal) {
            samples.layer("journal.bytes", meta.len() as f64);
        }
    }

    let mut fingerprint = vec![ticks, live, breached, hash_text(&text)];
    fingerprint.extend(end_counters.work());
    Some(Outcome {
        fingerprint,
        live_liquidations: live,
        journal,
    })
}

/// One run of a batch workload (see [`drive`]).
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    tracer: Option<&mut Tracer>,
) -> (Samples, Tally) {
    drive(
        workload,
        seed,
        seconds,
        tracer,
        |config, role, tracer, samples, tally| {
            repetition(workload, config, role, tracer, samples, tally)
        },
    )
}
