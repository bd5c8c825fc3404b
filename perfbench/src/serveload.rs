//! The served-broker workload, `serve_city`: a `Server` on loopback TCP,
//! fed a pre-generated city_1140 op stream by one closed-loop ingest
//! client while a second client sends open-loop queries.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mobigrid_adf::{BrokerStore, TickStats};
use mobigrid_broker_serve::net::{spawn_ingest, spawn_query, IngestClient, QueryClient};
use mobigrid_broker_serve::{ServeConfig, Server};
use mobigrid_experiments::simconfig::SimConfig;
use mobigrid_geo::Point;
use mobigrid_telemetry::json::Value;
use mobigrid_telemetry::{NoopRecorder, Recorder};
use mobigrid_wireless::{decode_batch, encode_batch, verify_batch_crcs, MnId, BATCH_PREFIX_SIZE};

use crate::clock::PhaseClock;
use crate::host::ShareClock;
use crate::report::{median, percentile, ratio, tail, us, Report};
use crate::simload::{flow_metrics, percentiles, phase_metrics, traffic_and_error, Traced};
use crate::Scale;

/// Shards of the served store.
const SHARDS: usize = 4;
/// Open-loop query schedule: one query due every 500 µs, 2,000 per second.
const QUERY_INTERVAL: Duration = Duration::from_micros(500);
/// The query mix, one of each in turn.
const QUERY_OPS: [&str; 4] = ["position", "census", "staleness_report", "stats"];
/// Fewest queries a run answers, so p90 has ten samples beyond it.
const MIN_QUERIES: usize = 200;
/// Fewest rounds a run makes, so `setup_s` is a median.
const MIN_ROUNDS: usize = 3;

/// The op stream a round replays, generated from the seed before timing.
struct Stream {
    nodes: usize,
    anchors: Vec<(u32, Point)>,
    /// One encoded batch per tick, prefix included.
    frames: Vec<Vec<u8>>,
    /// Records in each batch.
    records: Vec<u32>,
    /// The generating sim's with-LE broker digest after the last tick.
    digest: u64,
    stats: Vec<TickStats>,
    tick_us: Vec<f64>,
    gen_s: f64,
}

fn generate(
    seed: u64,
    scale: Scale,
    threads: usize,
    clock: Option<&mut PhaseClock>,
    rep: &mut Report,
) -> Stream {
    let started = Instant::now();
    let (scenario, ticks) = if scale.toy {
        ("campus_140", 60)
    } else {
        ("city_1140", 2000)
    };
    let mut sim = SimConfig::scenario(scenario)
        .seed(seed)
        .threads(threads)
        .build()
        .expect("serve_city configuration");
    let anchors = sim
        .columns()
        .home_anchors()
        .iter()
        .enumerate()
        .filter_map(|(i, a)| a.map(|p| (i as u32, p)))
        .collect();
    let mut noop = NoopRecorder;
    let mut clock = clock;
    let mut out = Stream {
        nodes: sim.node_count(),
        anchors,
        frames: Vec::new(),
        records: Vec::new(),
        digest: 0,
        stats: Vec::new(),
        tick_us: Vec::new(),
        gen_s: 0.0,
    };
    let mut ops = Vec::new();
    for _ in 0..ticks {
        ops.clear();
        let t0 = Instant::now();
        let rec: &mut dyn Recorder = match clock.as_deref_mut() {
            Some(c) => c,
            None => &mut noop,
        };
        out.stats.push(sim.step_tapped_recorded(rec, &mut ops));
        let t1 = Instant::now();
        if let Some(c) = clock.as_deref_mut() {
            c.finish_tick(t1);
        }
        out.tick_us.push(us(t1 - t0));
        out.frames.push(encode_batch(&ops));
        out.records.push(ops.len() as u32);
    }
    out.digest = sim.broker_with_le().state_digest();
    rep.attempts(ticks);
    for (t, s) in out.stats.iter().enumerate() {
        if s.observed as usize != out.nodes {
            rep.fail(
                "sim.tick_accounting",
                format!("generating tick {t}: observed {}", s.observed),
            );
        }
    }
    let violations = sim.invariant_violations();
    rep.check("sim.invariants", violations.is_empty(), || {
        format!(
            "generating sim: {} violations, first {:?}",
            violations.len(),
            violations.first()
        )
    });
    out.gen_s = started.elapsed().as_secs_f64();
    out
}

fn query_request(k: usize, nodes: usize) -> String {
    match QUERY_OPS[k % QUERY_OPS.len()] {
        "position" => format!("{{\"op\":\"position\",\"node\":{}}}", (k * 7919) % nodes),
        "census" => {
            "{\"op\":\"census\",\"x0\":0.0,\"y0\":0.0,\"x1\":480.0,\"y1\":480.0}".to_string()
        }
        op => format!("{{\"op\":\"{op}\"}}"),
    }
}

fn register_request(node: u32, p: Point) -> String {
    format!(
        "{{\"op\":\"register\",\"node\":{node},\"x\":{},\"y\":{}}}",
        p.x, p.y
    )
}

/// Registers the stream's home anchors through `server`'s query handler.
fn register_anchors(server: &Server, stream: &Stream, rep: &mut Report) {
    for &(node, p) in &stream.anchors {
        let line = server.query_line(&register_request(node, p));
        rep.check("serve.register", line.contains("\"ok\":true"), || line);
    }
}

fn is_ok(v: &Value) -> bool {
    v.get("ok").and_then(Value::as_bool) == Some(true) && v.get("error").is_none()
}

/// What the TCP rounds of one run measured.
#[derive(Default)]
struct Rounds {
    setup_s: Vec<f64>,
    wire_bytes: u64,
    /// Round trip of each batch, and the records it acked.
    ack_us: Vec<f64>,
    ack_records: Vec<f64>,
    /// Latency of each query, from when it was due.
    query_us: Vec<f64>,
    late_max_us: f64,
    late_sends: u64,
    /// Which block of CPU share each batch and query fell in, over all
    /// rounds (see [`host`]).
    ack_clock: ShareClock,
    query_clock: ShareClock,
}

impl Rounds {
    /// Records acked per second of ingest time in the quiet half of the
    /// batches. One batch is in flight at a time, so ingest time is the sum
    /// of the batches' round trips.
    fn quiet_lu_per_s(&mut self) -> f64 {
        let quiet = std::mem::take(&mut self.ack_clock).quiet_half();
        let records: f64 = quiet.iter().map(|&i| self.ack_records[i]).sum();
        let time_us: f64 = quiet.iter().map(|&i| self.ack_us[i]).sum();
        records * 1e6 / time_us
    }

    /// The query latencies in the quiet half of the queries.
    fn quiet_query_us(&mut self) -> Vec<f64> {
        let quiet = std::mem::take(&mut self.query_clock).quiet_half();
        quiet.iter().map(|&i| self.query_us[i]).collect()
    }
}

/// One round: a fresh server on loopback, anchors registered, the whole
/// stream ingested while queries run, then the digest compared and the
/// server shut down.
fn round(stream: &Stream, rep: &mut Report, out: &mut Rounds) {
    let started = Instant::now();
    let cfg = ServeConfig {
        nodes: stream.nodes,
        shards: SHARDS,
        ..ServeConfig::default()
    };
    let server = Arc::new(Server::new(&cfg).expect("valid serve configuration"));
    let (ingest_addr, ingest_loop) =
        spawn_ingest(Arc::clone(&server), "127.0.0.1:0").expect("bind the ingest port");
    let (query_addr, query_loop) =
        spawn_query(Arc::clone(&server), "127.0.0.1:0").expect("bind the query port");
    // Registered through the query handler in process: over TCP the first
    // request waits for the accept loop's 25 ms poll or not, at random,
    // which would make set-up time bimodal.
    register_anchors(&server, stream, rep);
    out.setup_s.push(started.elapsed().as_secs_f64());
    let mut ingest = IngestClient::connect(ingest_addr).expect("connect to ingest");
    let mut query = QueryClient::connect(query_addr).expect("connect to query");

    let flowing = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    let (mut ack_clock, mut query_clock) = (
        std::mem::take(&mut out.ack_clock),
        std::mem::take(&mut out.query_clock),
    );
    let (ingest_side, query_side) = std::thread::scope(|s| {
        let ingest_side = s.spawn(|| {
            let mut acks = Vec::with_capacity(stream.frames.len());
            let mut acked = Vec::with_capacity(stream.frames.len());
            let mut failures = Vec::new();
            ack_clock.cut();
            for (i, frame) in stream.frames.iter().enumerate() {
                let t = Instant::now();
                let result = ingest.send_frame(frame);
                acks.push(us(t.elapsed()));
                ack_clock.sample();
                flowing.store(true, Ordering::SeqCst);
                acked.push(result.as_ref().map_or(0.0, |&n| f64::from(n)));
                match result {
                    Ok(n) if n == stream.records[i] => {}
                    Ok(n) => failures.push((
                        "serve.ack_count",
                        format!("batch {i}: acked {n} of {}", stream.records[i]),
                    )),
                    Err(e) => {
                        failures.push(("serve.nak", format!("batch {i}: {e}")));
                        break;
                    }
                }
            }
            ack_clock.cut();
            flowing.store(true, Ordering::SeqCst);
            done.store(true, Ordering::SeqCst);
            (acks, acked, failures)
        });
        let query_side = s.spawn(|| {
            let mut latencies = Vec::new();
            let mut failures = Vec::new();
            let (mut late_max, mut late_sends) = (0.0f64, 0u64);
            // Queries start once the first batch is in, so every node has
            // a record to ask for.
            while !flowing.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            let origin = Instant::now();
            query_clock.cut();
            for k in 0.. {
                if done.load(Ordering::SeqCst) {
                    break;
                }
                let due = origin + QUERY_INTERVAL * k as u32;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let late = Instant::now().saturating_duration_since(due);
                late_max = late_max.max(us(late));
                late_sends += u64::from(late >= QUERY_INTERVAL);
                let response = query.call(&query_request(k, stream.nodes));
                // Timed from when the query was due, not when it was sent.
                latencies.push(us(Instant::now().saturating_duration_since(due)));
                query_clock.sample();
                match response {
                    Ok(v) if is_ok(&v) => {}
                    Ok(v) => failures.push(("serve.query_error", format!("query {k}: {v:?}"))),
                    Err(e) => failures.push(("serve.query_transport", format!("query {k}: {e}"))),
                }
            }
            query_clock.cut();
            (latencies, late_max, late_sends, failures)
        });
        (
            ingest_side.join().expect("ingest client thread"),
            query_side.join().expect("query client thread"),
        )
    });
    let (acks, acked, ingest_failures) = ingest_side;
    let (latencies, late_max, late_sends, query_failures) = query_side;
    (out.ack_clock, out.query_clock) = (ack_clock, query_clock);
    rep.attempts((stream.frames.len() + latencies.len()) as u64);
    for (name, detail) in ingest_failures.into_iter().chain(query_failures) {
        rep.fail(name, detail);
    }
    out.ack_records.extend(acked);
    out.wire_bytes += stream
        .frames
        .iter()
        .take(acks.len())
        .map(|f| f.len() as u64)
        .sum::<u64>();
    out.ack_us.extend(acks);
    out.query_us.extend(latencies);
    out.late_max_us = out.late_max_us.max(late_max);
    out.late_sends += late_sends;

    let served = query
        .call_ok("{\"op\":\"digest\"}")
        .ok()
        .and_then(|v| v.get("digest").and_then(Value::as_str).map(str::to_string));
    rep.check(
        "serve.digest_parity",
        served.as_deref() == Some(format!("{:016x}", stream.digest).as_str()),
        || format!("served {served:?}, in-sim {:016x}", stream.digest),
    );
    let stopped = query.call_ok("{\"op\":\"shutdown\"}");
    rep.check("serve.shutdown", stopped.is_ok(), || format!("{stopped:?}"));
    drop(ingest);
    drop(query);
    ingest_loop.join().expect("ingest accept loop");
    query_loop.join().expect("query accept loop");
}

fn rounds(stream: &Stream, seconds: f64, rep: &mut Report) -> Rounds {
    let mut out = Rounds::default();
    let started = Instant::now();
    while out.setup_s.len() < MIN_ROUNDS
        || out.query_us.len() < MIN_QUERIES
        || started.elapsed().as_secs_f64() < seconds
    {
        round(stream, rep, &mut out);
    }
    out
}

/// The untraced run.
pub fn run(seed: u64, scale: Scale, rep: &mut Report) {
    let stream = generate(seed, scale, 1, None, rep);
    rep.note(
        "threads",
        "1 generating, 2 client threads, server 1 per connection",
    );
    rep.note("loadgen.gen_s (outside setup_s)", stream.gen_s);
    let mut r = rounds(&stream, scale.seconds, rep);
    let quiet_query_us = r.quiet_query_us();
    rep.note(
        "samples.latency (the quiet half of the queries)",
        quiet_query_us.len(),
    );
    rep.note("rounds", r.setup_s.len());
    let (sent_pct, rmse_m) = traffic_and_error(&stream.stats);
    rep.metric("setup_s", median(&r.setup_s), "s");
    rep.metric("lu_per_s", r.quiet_lu_per_s(), "LU/s");
    percentiles(rep, &quiet_query_us);
    rep.metric("sent_pct", sent_pct, "%");
    rep.note(
        "rmse_m (not a gated metric, see README)",
        format!("{rmse_m} m"),
    );
}

/// Median host time of `f` over `items`, in µs.
fn time_each<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let times: Vec<f64> = items
        .iter()
        .map(|x| {
            let t = Instant::now();
            f(x);
            us(t.elapsed())
        })
        .collect();
    median(&times)
}

/// The traced run: the generating sim's phase split at one and two
/// threads, the wire codec, store and server stages timed in process, and
/// TCP rounds for the transport and the load generator.
pub fn trace(seed: u64, scale: Scale, rep: &mut Report) {
    let stream = generate(seed, scale, 1, None, rep);
    rep.note(
        "threads",
        "1 generating (2 in the speed-up leg), 2 client threads",
    );
    let traced_gen = |threads: usize, rep: &mut Report| {
        let mut clock = PhaseClock::default();
        let s = generate(seed, scale, threads, Some(&mut clock), rep);
        rep.check(
            &format!("trace.identical_stream.{threads}_threads"),
            s.frames == stream.frames && format!("{:?}", s.stats) == format!("{:?}", stream.stats),
            || "traced op stream differs from the untraced one".to_string(),
        );
        Traced {
            clock,
            outer: Duration::from_secs_f64(s.tick_us.iter().sum::<f64>() / 1e6),
            p50_us: median(&s.tick_us),
        }
    };
    let one = traced_gen(1, rep);
    let two = traced_gen(2, rep);
    phase_metrics(rep, &one, &stream.tick_us, Some((&one, &two)));
    flow_metrics(rep, &stream.stats, 0, 0);
    rep.metric("loadgen.gen_s", stream.gen_s, "s");

    // Wire codec, store and server, in process.
    let cfg = ServeConfig {
        nodes: stream.nodes,
        shards: SHARDS,
        ..ServeConfig::default()
    };
    let mut roundtrip_ok = true;
    let crc_us = time_each(&stream.frames, |f| {
        roundtrip_ok &= verify_batch_crcs(&f[BATCH_PREFIX_SIZE..]).is_ok();
    });
    let mut decode_times = Vec::new();
    let mut encode_times = Vec::new();
    let mut apply_times = Vec::new();
    let store = BrokerStore::new(cfg.estimator, cfg.nodes, SHARDS).expect("valid store");
    for &(node, p) in &stream.anchors {
        store.set_home_anchor(MnId::new(node), p);
    }
    for frame in &stream.frames {
        let t = Instant::now();
        let ops = decode_batch(frame);
        decode_times.push(us(t.elapsed()));
        let Ok(ops) = ops else {
            roundtrip_ok = false;
            continue;
        };
        let t = Instant::now();
        let encoded = encode_batch(&ops);
        encode_times.push(us(t.elapsed()));
        roundtrip_ok &= encoded == *frame;
        let t = Instant::now();
        store.apply_batch(&ops);
        apply_times.push(us(t.elapsed()));
    }
    rep.check("wire.roundtrip", roundtrip_ok, || {
        "a frame failed its CRC pass, decode or re-encode".to_string()
    });
    rep.check(
        "store.digest_parity",
        store.state_digest() == stream.digest,
        || {
            format!(
                "store {:016x}, in-sim {:016x}",
                store.state_digest(),
                stream.digest
            )
        },
    );
    let digest_us = time_each(&[(); 9], |()| {
        std::hint::black_box(store.state_digest());
    });
    drop(store);

    let server = Server::new(&cfg).expect("valid serve configuration");
    register_anchors(&server, &stream, rep);
    let mut acked_ok = true;
    let frame_us = time_each(&stream.frames, |f| {
        acked_ok &= server.ingest_frame(f).is_ok();
    });
    rep.check("serve.ingest_frame", acked_ok, || {
        "an in-process frame was rejected".to_string()
    });
    let digest_line = server.query_line("{\"op\":\"digest\"}");
    rep.check(
        "serve.inproc_digest_parity",
        digest_line.contains(&format!("{:016x}", stream.digest)),
        || digest_line.clone(),
    );
    let (decode_us, apply_us) = (median(&decode_times), median(&apply_times));
    rep.metric("wireless.encode_us_per_batch", median(&encode_times), "us");
    rep.metric("wireless.crc_us_per_batch", crc_us, "us");
    rep.metric("wireless.decode_us_per_batch", decode_us, "us");
    rep.metric("store.apply_us_per_batch", apply_us, "us");
    rep.metric("store.digest_us", digest_us, "us");
    rep.metric("serve.ingest_frame_us_per_batch", frame_us, "us");
    rep.metric(
        "serve.metrics_us_per_batch",
        frame_us - decode_us - apply_us,
        "us",
    );
    for (i, op) in QUERY_OPS.iter().enumerate() {
        let requests: Vec<String> = (0..300)
            .map(|k| query_request(k * QUERY_OPS.len() + i, stream.nodes))
            .collect();
        let mut all_ok = true;
        let t = time_each(&requests, |r| {
            all_ok &= server.query_line(r).contains("\"ok\":true")
        });
        rep.check("serve.inproc_query", all_ok, || {
            format!("a {op} query failed")
        });
        rep.metric(format!("serve.query_us.{op}"), t, "us");
    }
    drop(server);

    // Transport and load generator, over TCP.
    let r = rounds(&stream, scale.seconds / 2.0, rep);
    let ack_p50 = percentile(&r.ack_us, 50.0).unwrap_or(0.0);
    let (ack_q, ack_tail) = tail(&r.ack_us);
    rep.metric("net.ack_p50_us", ack_p50, "us");
    rep.metric("net.ack_tail_q", ack_q, "pct");
    rep.metric("net.ack_tail_us", ack_tail, "us");
    rep.metric("net.ack_samples", r.ack_us.len() as f64, "count");
    rep.metric("net.transport_us", ack_p50 - frame_us, "us");
    let (query_q, query_tail) = tail(&r.query_us);
    rep.metric("serve.query_tail_q", query_q, "pct");
    rep.metric("serve.query_tail_us", query_tail, "us");
    rep.metric("serve.query_samples", r.query_us.len() as f64, "count");
    rep.metric("loadgen.late_max_us", r.late_max_us, "us");
    rep.metric("loadgen.late_sends", r.late_sends as f64, "count");
    rep.metric(
        "serve.records_per_batch",
        ratio(r.ack_records.iter().sum(), r.ack_us.len() as f64),
        "count",
    );
    rep.metric(
        "serve.wire_bytes_per_batch",
        ratio(r.wire_bytes as f64, r.ack_us.len() as f64),
        "bytes",
    );
}
