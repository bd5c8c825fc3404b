//! The repository benchmark: four workloads over the tick engine and the
//! served broker.
//!
//! ```text
//! cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <metro_dense|city_lossy|idle_sparse|serve_city> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing but the
//! benchmark's own clock around the public calls, over the part of the run
//! in which the host took the least CPU from this guest (see `host`).
//! `--trace 1` is a separate run that splits the time into layers. Both
//! print their provenance and every metric by name and unit, then one JSON
//! line with the result. See `perfbench/README.md` for what each metric means.

mod clock;
mod host;
mod report;
mod serveload;
mod simload;

use std::process::Command;

use report::Report;
use simload::SimWorkload;

/// Run length and input size of one run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Seconds the run measures for (a run also meets its sample minimums).
    pub seconds: f64,
    /// Toy-size inputs, for the self-test.
    pub toy: bool,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["metro_dense", "city_lossy", "idle_sparse", "serve_city"];

/// The seed a gain claimed on other seeds is confirmed on; not used while
/// tuning a change.
pub const HELD_OUT_SEED: u64 = 7_919_301;

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("lu_per_s", "LU/s"),
    ("latency_p50_us", "us"),
    ("sent_pct", "%"),
    ("peak_rss_mb", "MB"),
    ("ok_pct", "%"),
];

/// Per-layer metrics (`--trace 1`), with units. A layer a workload does not
/// reach reads 0 there.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("mobility.observe_us_per_tick", "us"),
    ("mobility.observe_share_pct", "%"),
    ("adf.filter_us_per_tick", "us"),
    ("adf.filter_share_pct", "%"),
    ("adf.sent_ratio", "ratio"),
    ("wireless.transmit_us_per_tick", "us"),
    ("wireless.transmit_share_pct", "%"),
    ("wireless.retries_per_tick", "count"),
    ("wireless.lost_ratio", "ratio"),
    ("broker.estimate_us_per_tick", "us"),
    ("broker.estimate_share_pct", "%"),
    ("broker.stale_nodes", "count"),
    ("broker.rmse_m", "m"),
    ("telemetry.tail_us_per_tick", "us"),
    ("telemetry.tail_share_pct", "%"),
    ("sim.wheel.asleep", "count"),
    ("sim.wheel.replays_per_tick", "count"),
    ("sim.par_speedup.observe", "x"),
    ("sim.par_speedup.filter", "x"),
    ("sim.par_speedup.transmit", "x"),
    ("sim.par_speedup.estimate", "x"),
    ("sim.traced_tick_p50_us", "us"),
    ("sim.tick_tail_q", "pct"),
    ("sim.tick_tail_us", "us"),
    ("sim.tick_samples", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.phase_sum_pct", "%"),
    ("wireless.encode_us_per_batch", "us"),
    ("wireless.crc_us_per_batch", "us"),
    ("wireless.decode_us_per_batch", "us"),
    ("store.apply_us_per_batch", "us"),
    ("store.digest_us", "us"),
    ("serve.ingest_frame_us_per_batch", "us"),
    ("serve.metrics_us_per_batch", "us"),
    ("serve.query_us.position", "us"),
    ("serve.query_us.census", "us"),
    ("serve.query_us.staleness_report", "us"),
    ("serve.query_us.stats", "us"),
    ("serve.query_tail_q", "pct"),
    ("serve.query_tail_us", "us"),
    ("serve.query_samples", "count"),
    ("serve.records_per_batch", "count"),
    ("serve.wire_bytes_per_batch", "bytes"),
    ("net.ack_p50_us", "us"),
    ("net.ack_tail_q", "pct"),
    ("net.ack_tail_us", "us"),
    ("net.ack_samples", "count"),
    ("net.transport_us", "us"),
    ("loadgen.gen_s", "s"),
    ("loadgen.late_max_us", "us"),
    ("loadgen.late_sends", "count"),
];

/// Runs `workload` and returns its report with exactly the declared
/// metrics of the mode, in declaration order.
///
/// # Panics
///
/// Panics on an unknown workload name.
#[must_use]
pub fn run(workload: &str, seed: u64, scale: Scale, traced: bool) -> Report {
    let mut rep = Report::default();
    let sim = match workload {
        "metro_dense" => Some(SimWorkload::MetroDense),
        "city_lossy" => Some(SimWorkload::CityLossy),
        "idle_sparse" => Some(SimWorkload::IdleSparse),
        "serve_city" => None,
        other => panic!("unknown workload {other:?}; one of {WORKLOADS:?}"),
    };
    match (sim, traced) {
        (Some(w), false) => simload::run(w, seed, scale, &mut rep),
        (Some(w), true) => simload::trace(w, seed, scale, &mut rep),
        (None, false) => serveload::run(seed, scale, &mut rep),
        (None, true) => serveload::trace(seed, scale, &mut rep),
    }
    let wanted: &[(&'static str, &'static str)] = if traced {
        &PER_LAYER
    } else {
        let peak = peak_rss_mb();
        rep.check("peak_rss.readable", peak.is_some(), || {
            "no VmHWM in /proc/self/status".into()
        });
        rep.metric("peak_rss_mb", peak.unwrap_or(0.0), "MB");
        // The gates `keep_only` adds check the benchmark's own
        // declarations, which the self-test covers; `ok_pct` counts the
        // program's.
        rep.metric("ok_pct", 100.0 - rep.failed_pct(), "%");
        &END_TO_END
    };
    let missing = rep.keep_only(wanted);
    if !traced {
        rep.note(
            "what the shared names mean here",
            if sim.is_some() {
                "lu_per_s is sim_lu_per_s, latency_p50_us is tick_p50_us"
            } else {
                "lu_per_s is ingest_lu_per_s, latency_p50_us is query_p50_us"
            },
        );
    }
    if !missing.is_empty() {
        rep.note(
            "layers this workload does not reach (reported as 0)",
            missing.join(" "),
        );
    }
    rep
}

/// Resident high-water mark of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// First line of a command's standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        traced: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
            WORKLOADS.join("|")
        );
        std::process::exit(2);
    });
    let scale = Scale {
        seconds: args.seconds,
        toy: false,
    };
    let cpu_before = host::CpuTimes::now();
    let started = std::time::Instant::now();
    let mut rep = run(&args.workload, args.seed, scale, args.traced);
    if let (Some(a), Some(b)) = (cpu_before, host::CpuTimes::now()) {
        let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let wall = cpus as f64 * started.elapsed().as_secs_f64();
        rep.note(
            "host_steal_pct",
            format!("{:.1}", 100.0 * b.steal_s_since(a) / wall),
        );
        rep.note("cpu_share", format!("{:.3}", b.share_since(a)));
    }
    rep.note("workload", &args.workload);
    rep.note("seed", args.seed);
    rep.note("held_out_seed", HELD_OUT_SEED);
    rep.note("seconds", args.seconds);
    rep.note("trace", u8::from(args.traced));
    rep.note(
        "nproc",
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
    );
    rep.note("rustc", command_line("rustc", &["-V"]));
    let git_rev = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "--short", "HEAD"])
    } else {
        "none (not a git checkout)".to_string()
    };
    rep.note("git_rev", git_rev);
    rep.note(
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    let result = rep.json();
    for line in rep.lines() {
        println!("{line}");
    }
    println!("{result}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobigrid_telemetry::json::{self, Value};

    use crate::clock::PhaseClock;

    const TOY: Scale = Scale {
        seconds: 0.05,
        toy: true,
    };

    fn declared_in_benchmark_json(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let Some(Value::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn names(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        assert_eq!(declared_in_benchmark_json("end_to_end"), names(&END_TO_END));
        assert_eq!(declared_in_benchmark_json("per_layer"), names(&PER_LAYER));
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Some(Value::Arr(workloads)) = doc.get("workloads") else {
            panic!("no workloads");
        };
        let listed: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(listed, WORKLOADS);
    }

    #[test]
    fn every_workload_prints_every_declared_metric_at_toy_size() {
        for workload in WORKLOADS {
            for (traced, list) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
                let mut rep = run(workload, 3, TOY, traced);
                let line = rep.json();
                assert!(
                    line.contains("\"correct\": true"),
                    "{workload} {traced}: {:?}",
                    rep.lines()
                );
                let doc = json::parse(&line).expect("the result line is JSON");
                let metrics = doc.get("metrics").expect("metrics");
                for (name, unit) in list {
                    let m = metrics
                        .get(name)
                        .unwrap_or_else(|| panic!("{workload}: no {name}"));
                    assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit), "{name}");
                    assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
                }
                let Some(Value::Obj(members)) = doc.get("metrics") else {
                    panic!("metrics is an object");
                };
                assert_eq!(members.len(), list.len(), "{workload}: undeclared metrics");
            }
        }
    }

    #[test]
    fn phase_clock_sees_each_phase_once_per_tick_under_both_drivers() {
        use mobigrid_adf::TickDriver;
        for driver in [TickDriver::Dense, TickDriver::Sparse] {
            let mut sim = mobigrid_bench::build_idle_sim(9, 200, 20, driver);
            let mut clock = PhaseClock::default();
            for _ in 0..40 {
                sim.step_recorded(&mut clock);
                clock.finish_tick(std::time::Instant::now());
            }
            assert_eq!(clock.ticks, 40, "{driver:?}");
            assert_eq!(clock.malformed_ticks, 0, "{driver:?}");
        }
        // A tick that skips a phase, or repeats one, is caught.
        let mut clock = PhaseClock::default();
        use mobigrid_telemetry::{Phase, Recorder};
        clock.tick_start(1);
        clock.span(Phase::Observe, 1);
        clock.span(Phase::Observe, 1);
        clock.span(Phase::Transmit, 1);
        clock.span(Phase::Estimate, 1);
        clock.finish_tick(std::time::Instant::now());
        assert_eq!(clock.malformed_ticks, 1);
    }
}
