//! `liqbench` — end-to-end and per-layer benchmark of the simulator.
//!
//! ```text
//! liqbench --workload <paper-study|crunch-spiral|risk-service> --seed N --seconds S --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1` (which also writes the
//! spans to `.bench_out/trace-<workload>-<seed>.json`). The process exits
//! non-zero when any correctness gate fails. See `README.md` for the
//! workloads, the metrics and the program surfaces they call.

#![forbid(unsafe_code)]

mod batch;
mod common;
mod probe;
mod service;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use common::{out_dir, Samples, Tally, Workload};
use stats::{median, percentile};
use trace::Tracer;

/// End-to-end metrics, reported with tracing off.
const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, reported by the traced run. A layer a workload does
/// not exercise reports 0. The run time, the tick and query latencies and
/// the replay time are here because across runs on the 2-vCPU host they
/// spread beyond any allowed bound on some workload (see README.md):
/// `run_s` by 0.42–0.55 of its median in sets of ten runs, `breach_us_p99`
/// by 0.74, and on the batch workloads `tick_ms_p50` by up to 0.33,
/// `breach_us_p50` by 0.37–0.52 and `replay_s` by 0.26–0.35.
const PER_LAYER: [(&str, &str); 68] = [
    ("run_s", "s"),
    ("tick_ms_p50", "ms"),
    ("tick_ms_p99", "ms"),
    ("breach_us_p50", "us"),
    ("breach_us_p99", "us"),
    ("replay_s", "s"),
    ("sim.build_ms", "ms"),
    ("sim.genesis_ms", "ms"),
    ("sim.step_ms_p50", "ms"),
    ("sim.step_ms_p99", "ms"),
    ("sim.finish_ms", "ms"),
    ("sim.engine_self_ms", "ms"),
    ("sim.ticks", "count"),
    ("sim.events.liquidation", "count"),
    ("sim.events.auction_bid", "count"),
    ("sim.events.flash_loan", "count"),
    ("sim.events.oracle_update", "count"),
    ("sim.events.borrow", "count"),
    ("sim.events.deposit", "count"),
    ("sim.events.repay", "count"),
    ("oracle.writes", "count"),
    ("sim.behavior.queued", "count"),
    ("sim.behavior.executed_delayed", "count"),
    ("sim.behavior.stale_dropped", "count"),
    ("sim.behavior.inventory_exhaustions", "count"),
    ("sim.behavior.panic_exits", "count"),
    ("lending.book.busy_ms", "ms"),
    ("lending.book.flush_ms", "ms"),
    ("lending.book.flushes", "count"),
    ("lending.book.revaluations", "count"),
    ("lending.book.term_reprices", "count"),
    ("lending.book.light_refreshes", "count"),
    ("lending.book.envelope_skips", "count"),
    ("lending.book.skip_ratio", "ratio"),
    ("lending.book.envelope_derives", "count"),
    ("lending.book.envelope_derive_ms", "ms"),
    ("lending.book.visit_ms", "ms"),
    ("lending.book.freshen_ms", "ms"),
    ("lending.book.scratch_grows", "count"),
    ("lending.book.stale_violations", "count"),
    ("service.shards_refrozen", "count"),
    ("service.shards_reused", "count"),
    ("service.reuse_ratio", "ratio"),
    ("service.snapshot_entries", "count"),
    ("service.load_us_p50", "us"),
    ("service.at_risk_us_p50", "us"),
    ("service.lookup_us_p50", "us"),
    ("service.epochs_missed", "count"),
    ("service.queries", "count"),
    ("service.breach.critical", "count"),
    ("service.breach.insensitive", "count"),
    ("service.breach.envelope", "count"),
    ("service.breach.revalued", "count"),
    ("service.breach.shortcut_ratio", "ratio"),
    ("journal.write_ms", "ms"),
    ("journal.frames", "count"),
    ("journal.bytes", "bytes"),
    ("journal.finish_ms", "ms"),
    ("journal.open_ms", "ms"),
    ("journal.replay_ms", "ms"),
    ("analytics.collect_ms", "ms"),
    ("analytics.run_end_ms", "ms"),
    ("analytics.records", "count"),
    ("analytics.replay_collect_ms", "ms"),
    ("analytics.replay_run_end_ms", "ms"),
    ("bench.render_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.attributed_share", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "liqbench: {problem}\nusage: liqbench --workload <paper-study|crunch-spiral|risk-service> \
         --seed N --seconds S --trace <0|1>"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage("--seed takes an unsigned integer")),
                )
            }
            "--seconds" => {
                let parsed = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0);
                seconds = Some(parsed.unwrap_or_else(|| usage("--seconds takes 0 < S <= 3600")))
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or(false),
    }
}

/// Nearest-rank percentile, 0 without samples.
fn pct(values: &[f64], rank: f64) -> f64 {
    percentile(values, rank).map_or(0.0, |p| p.value)
}

fn end_to_end(samples: &Samples) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        ("setup_s", median(&samples.setup_s).unwrap_or(0.0)),
        ("peak_rss_mb", samples.peak_rss_mb.unwrap_or(0.0)),
    ])
}

fn per_layer(samples: &Samples) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = samples
        .layers
        .iter()
        .filter_map(|(name, values)| Some((*name, median(values)?)))
        .collect();
    let p = pct;
    out.insert("run_s", median(&samples.run_s).unwrap_or(0.0));
    out.insert("tick_ms_p50", p(&samples.tick_ms, 50.0));
    out.insert("tick_ms_p99", p(&samples.tick_ms, 99.0));
    out.insert("breach_us_p50", p(&samples.breach_us, 50.0));
    out.insert("breach_us_p99", p(&samples.breach_us, 99.0));
    out.insert("replay_s", median(&samples.replay_s).unwrap_or(0.0));
    out.insert("sim.step_ms_p50", p(&samples.step_ms, 50.0));
    out.insert("sim.step_ms_p99", p(&samples.step_ms, 99.0));
    // Repetitions alternate untraced and traced, so each traced repetition
    // is compared with the untraced one just before it.
    let ratios: Vec<f64> = samples
        .run_s
        .iter()
        .zip(&samples.traced_run_s)
        .filter(|(plain, _)| **plain > 0.0)
        .map(|(plain, traced)| traced / plain)
        .collect();
    let overhead = median(&ratios).map_or(0.0, |ratio| (ratio - 1.0) * 100.0);
    out.insert("trace.overhead_pct", overhead);
    out
}

fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn result_line(tally: &Tally, metrics: &[(&str, &str)], values: &BTreeMap<&str, f64>) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    );
    for (index, (name, unit)) in metrics.iter().enumerate() {
        if index > 0 {
            out.push_str(", ");
        }
        let value = values.get(name).copied().unwrap_or(0.0);
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(value)
        );
    }
    out.push_str("}}");
    out
}

fn main() {
    let args = parse_args();
    if let Err(error) = std::fs::create_dir_all(out_dir()) {
        eprintln!("liqbench: create {}: {error}", out_dir().display());
        std::process::exit(1);
    }
    let mut tracer = args.trace.then(Tracer::new);
    let (samples, mut tally) = match args.workload {
        Workload::PaperStudy | Workload::CrunchSpiral => {
            batch::run(args.workload, args.seed, args.seconds, tracer.as_mut())
        }
        Workload::RiskService => service::run(args.seed, args.seconds, tracer.as_mut()),
    };
    if samples.run_s.is_empty() || samples.replay_s.is_empty() || samples.setup_s.is_empty() {
        tally.fail("the run produced no timed repetition".to_string());
    }
    eprintln!(
        "liqbench: {} seed {}: {} timed + {} traced repetitions, {} set-ups, {} replays, \
         {} tick samples, {} breach samples; {} of {} operations failed ({:.4} %)",
        args.workload.name(),
        args.seed,
        samples.run_s.len(),
        samples.traced_run_s.len(),
        samples.setup_s.len(),
        samples.replay_s.len(),
        samples.tick_ms.len(),
        samples.breach_us.len(),
        tally.failed,
        tally.attempted,
        stats::share(tally.failed, tally.attempted) * 100.0,
    );
    for (name, values) in [
        ("tick_ms", &samples.tick_ms),
        ("breach_us", &samples.breach_us),
    ] {
        if let Some(p99) = percentile(values, 99.0) {
            eprintln!(
                "liqbench: {name}_p99 {:.4} over {} samples, {} beyond it",
                p99.value, p99.samples, p99.beyond
            );
        }
    }
    let rounded: Vec<String> = samples.run_s.iter().map(|s| format!("{s:.3}")).collect();
    eprintln!(
        "liqbench: run_s per repetition: [{}], spread {:.3}",
        rounded.join(", "),
        stats::relative_iqr(&samples.run_s).unwrap_or(0.0)
    );
    let line = match &tracer {
        None => result_line(&tally, &END_TO_END, &end_to_end(&samples)),
        Some(tracer) => {
            let path = out_dir().join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
            if let Err(error) =
                std::fs::write(&path, tracer.to_json(args.workload.name(), args.seed))
            {
                tally.fail(format!("write {}: {error}", path.display()));
            } else {
                eprintln!("liqbench: wrote {}", path.display());
            }
            eprintln!("liqbench: {} spans", tracer.spans().len());
            let layers = per_layer(&samples);
            for (name, unit) in PER_LAYER {
                eprintln!(
                    "  {name:<36} {:>16.4} {unit}",
                    layers.get(name).copied().unwrap_or(0.0)
                );
            }
            result_line(&tally, &PER_LAYER, &layers)
        }
    };
    println!("{line}");
    if tally.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names and units listed in the repository's `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let manifest = include_str!("../../BENCHMARK.json");
        let start = manifest
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &manifest[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let at = entry.find(&format!("\"{key}\"")).expect("key present");
                    let rest = &entry[at + key.len() + 2..];
                    let open = rest.find('"').expect("value opens") + 1;
                    let close = open + rest[open..].find('"').expect("value closes");
                    rest[open..close].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn ours(metrics: &[(&str, &str)]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|(name, unit)| (name.to_string(), unit.to_string()))
            .collect()
    }

    #[test]
    fn metric_lists_match_the_manifest() {
        assert_eq!(declared("end_to_end"), ours(&END_TO_END));
        assert_eq!(declared("per_layer"), ours(&PER_LAYER));
    }

    #[test]
    fn workload_names_match_the_manifest() {
        let manifest = include_str!("../../BENCHMARK.json");
        for workload in Workload::ALL {
            assert!(manifest.contains(&format!("\"name\": \"{}\"", workload.name())));
        }
    }

    #[test]
    fn result_line_reports_every_metric_and_the_tally() {
        let mut tally = Tally::default();
        tally.ok(3);
        tally.fail("broken".to_string());
        let values = BTreeMap::from([("setup_s", 0.5)]);
        let line = result_line(&tally, &[("setup_s", "s"), ("run_s", "s")], &values);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, \"metrics\": {\
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"run_s\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
        assert_eq!(stats::share(tally.failed, tally.attempted), 0.25);
    }
}
