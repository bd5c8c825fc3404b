//! The phase clock: a telemetry recorder that only reads the wall clock.
//!
//! `MobileGridSim::step_recorded` calls `tick_start` when a tick begins and
//! `span` at the end of each of its four phases. The clock stamps
//! `Instant::now()` at each call, so a phase's self time is the gap since
//! the previous stamp. It reports `enabled() == false`, so the tick takes
//! the same event-free path as `step()` and computes the same result.

use std::any::Any;
use std::time::{Duration, Instant};

use mobigrid_telemetry::{Phase, Recorder};

/// The tick's phases, in the order `step_recorded` ends them.
pub const PHASES: [Phase; 4] = [
    Phase::Observe,
    Phase::Filter,
    Phase::Transmit,
    Phase::Estimate,
];

/// Per-phase wall-clock totals over the ticks it has seen.
#[derive(Debug, Clone, Default)]
pub struct PhaseClock {
    last: Option<Instant>,
    seen: [u32; 4],
    stray: bool,
    /// Self time of each of [`PHASES`], summed over finished ticks.
    pub phase: [Duration; 4],
    /// Time from the last phase span to the return of the tick call.
    pub tail: Duration,
    /// Ticks finished.
    pub ticks: u64,
    /// Finished ticks in which some phase span did not arrive exactly once,
    /// or a span of another phase arrived.
    pub malformed_ticks: u64,
}

impl PhaseClock {
    /// Closes the tick whose call returned at `end`.
    pub fn finish_tick(&mut self, end: Instant) {
        if let Some(last) = self.last.take() {
            self.tail += end.saturating_duration_since(last);
        }
        self.ticks += 1;
        if self.stray || self.seen != [1; 4] {
            self.malformed_ticks += 1;
        }
    }

    /// Self time of all phases plus the tail.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.phase.iter().sum::<Duration>() + self.tail
    }
}

impl Recorder for PhaseClock {
    fn tick_start(&mut self, _tick: u64) {
        self.last = Some(Instant::now());
        self.seen = [0; 4];
        self.stray = false;
    }

    fn span(&mut self, phase: Phase, _items: u64) {
        let now = Instant::now();
        match (PHASES.iter().position(|p| *p == phase), self.last) {
            (Some(i), Some(last)) => {
                self.phase[i] += now.saturating_duration_since(last);
                self.seen[i] += 1;
            }
            _ => self.stray = true,
        }
        self.last = Some(now);
    }

    fn fork(&self) -> Box<dyn Recorder> {
        Box::new(PhaseClock::default())
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any + Send> {
        self
    }
}
