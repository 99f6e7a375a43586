//! Observation from outside the program: an observer wrapper that marks the
//! end of genesis seeding and (when tracing) times the hooks it forwards, and
//! the book's own counters summed over platforms.

use std::time::Instant;

use defi_chain::LoggedEvent;
use defi_lending::BookStats;
use defi_sim::{
    LiquidationObservation, RunEnd, RunStart, SimObserver, TickEnd, TickStart, VolumeSample,
};

/// Wraps the observer a workload attaches (the study collector or the
/// journal writer). It records the first `on_tick_start` — genesis seeding
/// has finished by then, so set-up ends there — and, with `timed` set, the
/// nanoseconds spent inside the wrapped observer's hooks.
pub struct Probe<O> {
    pub inner: O,
    timed: bool,
    /// When the first tick started (`None` until then).
    pub first_tick: Option<Instant>,
    /// Nanoseconds spent in per-tick hooks since the last [`take_hook_ns`].
    ///
    /// [`take_hook_ns`]: Probe::take_hook_ns
    hook_ns: u64,
    /// Nanoseconds spent in `on_run_end`.
    pub run_end_ns: u64,
}

impl<O: SimObserver> Probe<O> {
    pub fn new(inner: O, timed: bool) -> Self {
        Probe {
            inner,
            timed,
            first_tick: None,
            hook_ns: 0,
            run_end_ns: 0,
        }
    }

    /// Hook time accumulated since the previous call (0 when untimed).
    pub fn take_hook_ns(&mut self) -> u64 {
        std::mem::take(&mut self.hook_ns)
    }

    fn time<R>(&mut self, hook: impl FnOnce(&mut O) -> R) -> R {
        if !self.timed {
            return hook(&mut self.inner);
        }
        let start = Instant::now();
        let out = hook(&mut self.inner);
        self.hook_ns += nanos_since(start);
        out
    }
}

impl<O: SimObserver> SimObserver for Probe<O> {
    fn on_run_start(&mut self, run: &RunStart<'_>) {
        self.time(|inner| inner.on_run_start(run));
    }

    fn on_tick_start(&mut self, tick: &TickStart) {
        if self.first_tick.is_none() {
            self.first_tick = Some(Instant::now());
            // Seeding-time hooks belong to set-up, not to the first tick.
            self.hook_ns = 0;
        }
        self.time(|inner| inner.on_tick_start(tick));
    }

    fn on_event(&mut self, logged: &LoggedEvent) {
        self.time(|inner| inner.on_event(logged));
    }

    fn on_liquidation(&mut self, liquidation: &LiquidationObservation<'_>) {
        self.time(|inner| inner.on_liquidation(liquidation));
    }

    fn on_volume_sample(&mut self, sample: &VolumeSample) {
        self.time(|inner| inner.on_volume_sample(sample));
    }

    fn on_tick_end(&mut self, tick: &TickEnd<'_>) {
        self.time(|inner| inner.on_tick_end(tick));
    }

    fn wants_tick_end(&self) -> bool {
        self.inner.wants_tick_end()
    }

    fn on_run_end(&mut self, end: &RunEnd<'_>) {
        let start = Instant::now();
        self.inner.on_run_end(end);
        self.run_end_ns = nanos_since(start);
    }
}

pub fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// `BookStats` counters summed over every platform's book. Only the
/// monotone counters: gauges (cached accounts etc.) do not sum meaningfully
/// across ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BookCounters {
    pub revaluations: u64,
    pub envelope_skips: u64,
    pub stale_violations: u64,
    pub term_reprices: u64,
    pub light_refreshes: u64,
    pub envelope_derives: u64,
    pub envelope_derive_nanos: u64,
    pub flushes: u64,
    pub flush_nanos: u64,
    pub freshen_nanos: u64,
    pub visit_nanos: u64,
    pub scratch_grows: u64,
}

impl BookCounters {
    pub fn add(&mut self, stats: &BookStats) {
        self.revaluations += stats.revaluations;
        self.envelope_skips += stats.envelope_skips;
        self.stale_violations += stats.stale_violations;
        self.term_reprices += stats.term_reprices;
        self.light_refreshes += stats.light_refreshes;
        self.envelope_derives += stats.envelope_derives;
        self.envelope_derive_nanos += stats.envelope_derive_nanos;
        self.flushes += stats.flush_count;
        self.flush_nanos += stats.flush_nanos;
        self.freshen_nanos += stats.freshen_nanos;
        self.visit_nanos += stats.visit_nanos;
        self.scratch_grows += stats.scratch_grows;
    }

    /// Counters accrued since `earlier`.
    pub fn since(&self, earlier: &BookCounters) -> BookCounters {
        let d = |now: u64, then: u64| now.saturating_sub(then);
        BookCounters {
            revaluations: d(self.revaluations, earlier.revaluations),
            envelope_skips: d(self.envelope_skips, earlier.envelope_skips),
            stale_violations: d(self.stale_violations, earlier.stale_violations),
            term_reprices: d(self.term_reprices, earlier.term_reprices),
            light_refreshes: d(self.light_refreshes, earlier.light_refreshes),
            envelope_derives: d(self.envelope_derives, earlier.envelope_derives),
            envelope_derive_nanos: d(self.envelope_derive_nanos, earlier.envelope_derive_nanos),
            flushes: d(self.flushes, earlier.flushes),
            flush_nanos: d(self.flush_nanos, earlier.flush_nanos),
            freshen_nanos: d(self.freshen_nanos, earlier.freshen_nanos),
            visit_nanos: d(self.visit_nanos, earlier.visit_nanos),
            scratch_grows: d(self.scratch_grows, earlier.scratch_grows),
        }
    }

    /// Wall-clock nanoseconds the book reports for itself. The envelope
    /// derivations run inside flushes and freshens, so they are not added.
    pub fn busy_nanos(&self) -> u64 {
        self.flush_nanos + self.freshen_nanos + self.visit_nanos
    }

    /// The work counters: identical for every run of one input set.
    /// `scratch_grows` is left out: scratch buffers filled from the book's
    /// per-token hash maps can grow a different number of times on the same
    /// input (seen: by one).
    pub fn work(&self) -> [u64; 7] {
        [
            self.revaluations,
            self.envelope_skips,
            self.stale_violations,
            self.term_reprices,
            self.light_refreshes,
            self.envelope_derives,
            self.flushes,
        ]
    }

    /// Name/value pairs attached to a traced tick span.
    pub fn attrs(&self) -> [(&'static str, u64); 12] {
        [
            ("revaluations", self.revaluations),
            ("envelope_skips", self.envelope_skips),
            ("stale_violations", self.stale_violations),
            ("term_reprices", self.term_reprices),
            ("light_refreshes", self.light_refreshes),
            ("envelope_derives", self.envelope_derives),
            ("envelope_derive_ns", self.envelope_derive_nanos),
            ("flushes", self.flushes),
            ("flush_ns", self.flush_nanos),
            ("freshen_ns", self.freshen_nanos),
            ("visit_ns", self.visit_nanos),
            ("scratch_grows", self.scratch_grows),
        ]
    }
}
