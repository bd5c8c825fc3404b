//! The tick-engine workloads: `metro_dense`, `city_lossy` and `idle_sparse`.

use std::time::{Duration, Instant};

use mobigrid_adf::{FaultSpec, MobileGridSim, RuntimeOptions, TickDriver, TickStats};
use mobigrid_experiments::fault_matrix::FaultMatrixConfig;
use mobigrid_experiments::simconfig::SimConfig;
use mobigrid_wireless::RetryPolicy;

use crate::clock::{PhaseClock, PHASES};
use crate::host::ShareClock;
use crate::report::{median, percentile, ratio, tail, us, Report};
use crate::Scale;

/// Mixed into the workload seed to seed the fault channel's fate stream.
const FAULT_SALT: u64 = 0x00FA_0175;

/// The sim-layer names of the phase split, in [`PHASES`] order.
pub const PHASE_LAYERS: [&str; 4] = [
    "mobility.observe",
    "adf.filter",
    "wireless.transmit",
    "broker.estimate",
];

/// A tick-engine workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    /// metro_100k, dense driver, 2 threads, lossless.
    MetroDense,
    /// city_1140 on the fault-matrix channel at loss 0.2, dense, 2 threads.
    CityLossy,
    /// 20,000 parked nodes and 200 walkers, sparse driver, 1 thread.
    IdleSparse,
}

impl SimWorkload {
    /// Worker threads of the tick.
    #[must_use]
    pub fn threads(self) -> usize {
        match self {
            SimWorkload::MetroDense | SimWorkload::CityLossy => 2,
            SimWorkload::IdleSparse => 1,
        }
    }

    /// Builds the workload's simulation from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the fixed configuration is rejected, which is a bug.
    #[must_use]
    pub fn build(self, seed: u64, threads: usize, toy: bool) -> MobileGridSim {
        match self {
            SimWorkload::MetroDense => {
                SimConfig::scenario(if toy { "campus_140" } else { "metro_100k" })
                    .seed(seed)
                    .threads(threads)
                    .build()
                    .expect("metro_dense configuration")
            }
            SimWorkload::CityLossy => {
                let plan = FaultMatrixConfig::default().plan_for(0.2);
                let runtime = RuntimeOptions {
                    threads,
                    faults: Some(FaultSpec {
                        plan,
                        seed: seed ^ FAULT_SALT,
                    }),
                    retry: Some(RetryPolicy::default()),
                    ..RuntimeOptions::default()
                };
                SimConfig::scenario(if toy { "campus_140" } else { "city_1140" })
                    .seed(seed)
                    .runtime(runtime)
                    .with_network(true)
                    .build()
                    .expect("city_lossy configuration")
            }
            SimWorkload::IdleSparse => {
                assert_eq!(threads, 1, "the idle workload helper runs single-threaded");
                let (parked, walkers) = if toy { (300, 10) } else { (20_000, 200) };
                mobigrid_bench::build_idle_sim(seed, parked, walkers, TickDriver::Sparse)
            }
        }
    }

    /// Ticks run inside set-up, before anything is timed.
    fn warmup(self, toy: bool) -> u64 {
        match (self, toy) {
            (_, true) => 5,
            (SimWorkload::MetroDense, false) => 5,
            (_, false) => 50,
        }
    }

    /// Set-ups per run; `setup_s` is their median.
    fn setups(self, toy: bool) -> usize {
        match (self, toy) {
            (_, true) => 2,
            (SimWorkload::MetroDense, false) => 3,
            (_, false) => 9,
        }
    }

    /// Measured ticks over which `sent_pct` and `rmse_m` are taken, so
    /// they depend on the seed only. A run measures at least these, and at
    /// least 200 so p90 has 20 samples beyond it.
    fn window(self, toy: bool) -> usize {
        match (self, toy) {
            (_, true) => 200,
            (SimWorkload::MetroDense, false) => 100,
            (_, false) => 1000,
        }
    }
}

/// How long a leg runs.
#[derive(Debug, Clone, Copy)]
enum Length {
    /// At least `seconds` of measured ticks and at least `ticks` of them.
    Until { seconds: f64, ticks: usize },
    /// Exactly this many measured ticks.
    Exactly(usize),
}

/// One pass of a simulation: `warmup` untimed ticks, then measured ones.
struct Leg {
    /// Every tick's statistics, warm-up included.
    stats: Vec<TickStats>,
    /// Host time of each measured tick, in µs.
    tick_us: Vec<f64>,
    /// The ticks of the run's quiet half (see [`host`]).
    quiet_us: Vec<f64>,
    /// Wall time of the measured ticks.
    wall: Duration,
    /// Sparse replays over the measured ticks, and sleepers at the end.
    replays: u64,
    asleep: usize,
}

impl Leg {
    fn measured(&self) -> &[TickStats] {
        &self.stats[self.stats.len() - self.tick_us.len()..]
    }
}

fn run_leg(
    sim: &mut MobileGridSim,
    warmup: u64,
    length: Length,
    mut clock: Option<&mut PhaseClock>,
    rep: &mut Report,
) -> Leg {
    let nodes = sim.node_count() as u32;
    let mut stats = Vec::new();
    let mut step = |sim: &mut MobileGridSim, clock: &mut Option<&mut PhaseClock>| {
        let t0 = Instant::now();
        let s = match clock.as_deref_mut() {
            Some(c) => sim.step_recorded(c),
            None => sim.step(),
        };
        let t1 = Instant::now();
        if let Some(c) = clock.as_deref_mut() {
            c.finish_tick(t1);
        }
        stats.push(s);
        t1 - t0
    };
    for _ in 0..warmup {
        step(sim, &mut clock);
    }
    if let Some(c) = clock.as_deref_mut() {
        *c = PhaseClock::default();
    }
    let replays_before = sim.wake_stats().map_or(0, |w| w.replayed_node_ticks);
    let mut tick_us = Vec::new();
    let mut shares = ShareClock::default();
    let started = Instant::now();
    loop {
        let done = match length {
            Length::Until { seconds, ticks } => {
                tick_us.len() >= ticks && started.elapsed().as_secs_f64() >= seconds
            }
            Length::Exactly(n) => tick_us.len() >= n,
        };
        if done {
            break;
        }
        tick_us.push(us(step(sim, &mut clock)));
        shares.sample();
    }
    let wall = started.elapsed();
    rep.attempts(stats.len() as u64);
    for (t, s) in stats.iter().enumerate() {
        if s.observed != nodes {
            rep.fail(
                "sim.tick_accounting",
                format!("tick {t}: observed {} of {nodes} nodes", s.observed),
            );
        }
    }
    let violations = sim.invariant_violations();
    rep.check("sim.invariants", violations.is_empty(), || {
        format!(
            "{} violations, first {:?}",
            violations.len(),
            violations.first()
        )
    });
    let wake = sim.wake_stats();
    Leg {
        stats,
        quiet_us: shares.quiet_half().iter().map(|&i| tick_us[i]).collect(),
        tick_us,
        wall,
        replays: wake.map_or(0, |w| w.replayed_node_ticks) - replays_before,
        asleep: wake.map_or(0, |w| w.asleep),
    }
}

/// Checks that two tick streams are identical bit for bit. `Debug` prints
/// every float in its shortest round-trip form, so equal text means equal
/// bits for every value but NaN, which the tick never reports.
fn check_identical(rep: &mut Report, name: &str, a: &[TickStats], b: &[TickStats]) {
    let first = a
        .iter()
        .zip(b)
        .position(|(x, y)| format!("{x:?}") != format!("{y:?}"));
    rep.check(name, a.len() == b.len() && first.is_none(), || {
        format!(
            "lengths {} and {}, first differing tick {first:?}",
            a.len(),
            b.len()
        )
    });
}

/// Transmitted ÷ observed and mean with-LE RMSE over `stats`.
#[must_use]
pub fn traffic_and_error(stats: &[TickStats]) -> (f64, f64) {
    let sent: f64 = stats.iter().map(|s| f64::from(s.sent)).sum();
    let observed: f64 = stats.iter().map(|s| f64::from(s.observed)).sum();
    let rmse: f64 = stats.iter().map(|s| s.rmse_with_le).sum();
    (
        100.0 * ratio(sent, observed),
        ratio(rmse, stats.len() as f64),
    )
}

/// The untraced run: set-up several times, then measure ticks.
pub fn run(w: SimWorkload, seed: u64, scale: Scale, rep: &mut Report) {
    let threads = w.threads();
    rep.note("threads", threads);
    let mut setups = Vec::new();
    let mut sim = None;
    for _ in 0..w.setups(scale.toy) {
        drop(sim.take());
        let t = Instant::now();
        let mut s = w.build(seed, threads, scale.toy);
        for _ in 0..w.warmup(scale.toy) {
            s.step();
        }
        setups.push(t.elapsed().as_secs_f64());
        sim = Some(s);
    }
    let mut sim = sim.expect("at least one set-up");
    let window = w.window(scale.toy);
    let leg = run_leg(
        &mut sim,
        0,
        Length::Until {
            seconds: scale.seconds,
            ticks: window.max(200),
        },
        None,
        rep,
    );
    let (sent_pct, rmse_m) = traffic_and_error(&leg.measured()[..window]);
    // Every tick observes every node (checked per tick in `run_leg`).
    let nodes = sim.node_count() as f64;
    let quiet_s = leg.quiet_us.iter().sum::<f64>() / 1e6;
    rep.note(
        "samples.latency (the quiet half of the ticks)",
        leg.quiet_us.len(),
    );
    rep.note("wall_s", leg.wall.as_secs_f64());
    rep.metric("setup_s", median(&setups), "s");
    rep.metric(
        "lu_per_s",
        nodes * leg.quiet_us.len() as f64 / quiet_s,
        "LU/s",
    );
    percentiles(rep, &leg.quiet_us);
    rep.metric("sent_pct", sent_pct, "%");
    rep.note(
        "rmse_m (not a gated metric, see README)",
        format!("{rmse_m} m"),
    );
}

/// Emits `latency_p50_us` and prints p90, failing the run if the samples
/// cannot support them. p90 is not a gated metric: see the README.
pub fn percentiles(rep: &mut Report, samples: &[f64]) {
    let (p50, p90) = (percentile(samples, 50.0), percentile(samples, 90.0));
    rep.check("percentile.samples", p50.is_some() && p90.is_some(), || {
        format!("{} samples", samples.len())
    });
    rep.metric("latency_p50_us", p50.unwrap_or(0.0), "us");
    rep.note(
        "latency_p90_us (not gated)",
        format!("{} us", p90.unwrap_or(0.0)),
    );
}

/// A traced simulation pass, reduced to what the per-layer metrics need.
pub struct Traced {
    /// Phase totals of the traced ticks.
    pub clock: PhaseClock,
    /// Sum of the traced ticks' host times.
    pub outer: Duration,
    /// Median traced tick, in µs.
    pub p50_us: f64,
}

impl Traced {
    fn per_tick(&self, d: Duration) -> f64 {
        ratio(us(d), self.clock.ticks as f64)
    }
}

/// Emits the phase split of `traced` against the untraced tick times in
/// `untraced_us`, and checks its spans. `legs` are the same ticks traced at
/// one and at two threads, for the executor's speed-up.
pub fn phase_metrics(
    rep: &mut Report,
    traced: &Traced,
    untraced_us: &[f64],
    legs: Option<(&Traced, &Traced)>,
) {
    let c = &traced.clock;
    rep.check("trace.spans", c.malformed_ticks == 0 && c.ticks > 0, || {
        format!(
            "{} of {} ticks without exactly one span per phase",
            c.malformed_ticks, c.ticks
        )
    });
    let outer = us(traced.outer);
    for (i, layer) in PHASE_LAYERS.iter().enumerate() {
        rep.metric(
            format!("{layer}_us_per_tick"),
            traced.per_tick(c.phase[i]),
            "us",
        );
        rep.metric(
            format!("{layer}_share_pct"),
            100.0 * ratio(us(c.phase[i]), outer),
            "%",
        );
    }
    rep.metric("telemetry.tail_us_per_tick", traced.per_tick(c.tail), "us");
    rep.metric(
        "telemetry.tail_share_pct",
        100.0 * ratio(us(c.tail), outer),
        "%",
    );
    let sum_pct = 100.0 * ratio(us(c.total()), outer);
    rep.check(
        "trace.phase_sum",
        (98.0..=100.0 + 1e-9).contains(&sum_pct),
        || format!("phases plus tail cover {sum_pct:.3}% of the traced tick time"),
    );
    rep.metric("trace.phase_sum_pct", sum_pct, "%");
    let base = median(untraced_us);
    rep.metric(
        "trace.overhead_pct",
        100.0 * (traced.p50_us / base - 1.0),
        "%",
    );
    rep.metric("sim.traced_tick_p50_us", traced.p50_us, "us");
    let (q, v) = tail(untraced_us);
    rep.metric("sim.tick_tail_q", q, "pct");
    rep.metric("sim.tick_tail_us", v, "us");
    rep.metric("sim.tick_samples", untraced_us.len() as f64, "count");
    if let Some((one, two)) = legs {
        for (i, p) in PHASES.iter().enumerate() {
            let t1 = one.per_tick(one.clock.phase[i]);
            let t2 = two.per_tick(two.clock.phase[i]);
            rep.metric(format!("sim.par_speedup.{}", p.name()), ratio(t1, t2), "x");
        }
    }
}

/// Emits the filter, channel, broker and wheel counts of `stats`.
pub fn flow_metrics(rep: &mut Report, stats: &[TickStats], replays: u64, asleep: usize) {
    let sum = |f: fn(&TickStats) -> u32| stats.iter().map(|s| f64::from(f(s))).sum::<f64>();
    let ticks = stats.len() as f64;
    let (sent, retries, observed) = (sum(|s| s.sent), sum(|s| s.retries), sum(|s| s.observed));
    rep.metric("adf.sent_ratio", ratio(sent - retries, observed), "ratio");
    rep.metric("wireless.retries_per_tick", ratio(retries, ticks), "count");
    rep.metric("wireless.lost_ratio", ratio(sum(|s| s.lost), sent), "ratio");
    rep.metric(
        "broker.stale_nodes",
        ratio(sum(|s| s.stale_nodes), ticks),
        "count",
    );
    rep.metric("broker.rmse_m", traffic_and_error(stats).1, "m");
    rep.metric("sim.wheel.asleep", asleep as f64, "count");
    rep.metric(
        "sim.wheel.replays_per_tick",
        ratio(replays as f64, ticks),
        "count",
    );
}

/// The traced run: an untraced leg, a traced leg of the same ticks that
/// must reproduce it bit for bit, and for a two-thread workload a traced
/// one-thread leg for the executor's speed-up.
pub fn trace(w: SimWorkload, seed: u64, scale: Scale, rep: &mut Report) {
    let threads = w.threads();
    rep.note("threads", threads);
    let warmup = w.warmup(scale.toy);
    let leg_seconds = scale.seconds / 3.0;

    let base = {
        let mut sim = w.build(seed, threads, scale.toy);
        run_leg(
            &mut sim,
            warmup,
            Length::Until {
                seconds: leg_seconds,
                ticks: 100,
            },
            None,
            rep,
        )
    };
    let n = base.tick_us.len();
    let traced_leg = |threads: usize, rep: &mut Report| {
        let mut sim = w.build(seed, threads, scale.toy);
        let mut clock = PhaseClock::default();
        let leg = run_leg(&mut sim, warmup, Length::Exactly(n), Some(&mut clock), rep);
        check_identical(
            rep,
            &format!("trace.identical_stats.{threads}_threads"),
            &base.stats,
            &leg.stats,
        );
        Traced {
            clock,
            outer: Duration::from_secs_f64(leg.tick_us.iter().sum::<f64>() / 1e6),
            p50_us: median(&leg.tick_us),
        }
    };
    let traced = traced_leg(threads, rep);
    let one = (threads == 2).then(|| traced_leg(1, rep));
    phase_metrics(
        rep,
        &traced,
        &base.tick_us,
        one.as_ref().map(|o| (o, &traced)),
    );
    flow_metrics(rep, base.measured(), base.replays, base.asleep);
}
