//! The fluxcomp benchmark: one command runs a workload of the fix
//! pipeline, checks its outputs, and prints every metric by name with
//! its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep|serve_fresh|serve_hot|all --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that reports per-layer metrics
//! and writes its spans to `perfbench/out/`. The last stdout line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; the line
//! before it stamps the run (threads, host CPUs, generator, rate, seed,
//! commit). See `perfbench/README.md` for the metric definitions.

mod host;
mod inputs;
mod layers;
mod sched;
mod serve;
mod stats;
mod sweep;
mod trace;

use host::Sampler;
use inputs::StreamKind;
use layers::Metric;
use serve::{Limit, Phase, Rig, Tally};
use stats::{json_num, json_str, median, quantile, windowed_quantile};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Open-loop rate of `serve_fresh`: about a third of its closed-loop
/// saturation (≈850 fixes/s at nominal host speed on 2 CPUs).
const FRESH_RATE_HZ: f64 = 300.0;
/// Open-loop rate of `serve_hot`.
const HOT_RATE_HZ: f64 = 5000.0;
/// Latency limits of the SLO (open loop, from each request's due time;
/// for `sweep`, a fix's time inside its worker).
const SWEEP_LIMIT_MS: f64 = 10.0;
const FRESH_LIMIT_MS: f64 = 20.0;
const HOT_LIMIT_MS: f64 = 5.0;
/// Outstanding requests in the closed-loop (throughput) phase.
const CLOSED_WINDOW: usize = 32;
/// Share of a serve run spent in the open loop; the rest is closed loop.
const OPEN_SHARE: f64 = 0.6;
/// Latency samples per window: p50, p75 and p90 are taken per window of
/// 500 requests (50 beyond p90), p99 per window of 1,000 (10 beyond).
const LATENCY_WINDOW: usize = 500;
const P99_WINDOW: usize = 1000;
/// Across latency windows the quieter quartile is reported (as for
/// throughput slices and batches): the host's neighbours steal whole
/// stretches of a run, while a slower program slows every window alike.
const QUIET_LOW: f64 = 0.25;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 100;
const HOT_SETUPS: usize = 3;
/// The traced run's serve probe on `sweep` (which has no server).
const PROBE_OPEN: Duration = Duration::from_secs(2);
const PROBE_CLOSED: Duration = Duration::from_secs(1);
/// Round trips with one request in flight.
const RTT_CACHED: usize = 400;
const RTT_FRESH: usize = 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Sweep,
    ServeFresh,
    ServeHot,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Sweep, Workload::ServeFresh, Workload::ServeHot];

    fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::ServeFresh => "serve_fresh",
            Workload::ServeHot => "serve_hot",
        }
    }

    fn stream(self) -> StreamKind {
        match self {
            Workload::Sweep => StreamKind::SweepHeadings,
            Workload::ServeFresh => StreamKind::Fresh,
            Workload::ServeHot => StreamKind::Hot,
        }
    }

    fn rate_hz(self) -> f64 {
        match self {
            Workload::Sweep | Workload::ServeFresh => FRESH_RATE_HZ,
            Workload::ServeHot => HOT_RATE_HZ,
        }
    }

    fn limit_ms(self) -> f64 {
        match self {
            Workload::Sweep => SWEEP_LIMIT_MS,
            Workload::ServeFresh => FRESH_LIMIT_MS,
            Workload::ServeHot => HOT_LIMIT_MS,
        }
    }

    /// Whether open-loop latencies are rescaled to nominal host speed.
    /// `serve_hot`'s ~0.1 ms round trip is wake-ups and syscalls on
    /// mostly idle vCPUs, whose cost does not follow the reference
    /// kernel: rescaled, its p50 spread 0.12 (quartile distance over
    /// median, six seeds), as measured 0.05. Its closed-loop throughput
    /// keeps the CPUs busy and is rescaled like every other figure.
    fn rescales_latency(self) -> bool {
        self != Workload::ServeHot
    }

    fn setups(self) -> usize {
        match self {
            Workload::ServeHot => HOT_SETUPS,
            _ => SETUPS,
        }
    }
}

#[derive(Debug, Clone)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut all = false;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => match value.as_str() {
                "all" => all = true,
                name => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == name)
                            .ok_or_else(|| format!("unknown workload {name:?}"))?,
                    )
                }
            },
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 120.0)
                    .ok_or_else(|| format!("bad --seconds {value:?} (0 < s ≤ 120)"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if workload.is_none() && !all {
        return Err("--workload is required".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The repository root: the benchmark package's parent directory.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// What one run produced.
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Extra stamp fields, as `(key, JSON value)`.
    stamp: Vec<(&'static str, String)>,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Latency p50, p75, p90 and p99 of a sequence in send order: p50, p75
/// and p90 per window of [`LATENCY_WINDOW`] samples, reported at the
/// quieter quartile of windows; p99 per window of [`P99_WINDOW`], the
/// median window.
///
/// p75 is the bounded tail metric. On a shared host the hypervisor
/// stalls a vCPU for milliseconds at a time, delaying every fix that
/// runs on it; once stalls reach a tenth of the requests, p90 measures
/// the neighbours rather than the program. p90 and p99 are stamped.
fn latency_summary(latencies_ms: &[f64]) -> [f64; 4] {
    [
        windowed_quantile(latencies_ms, 0.5, LATENCY_WINDOW, QUIET_LOW),
        windowed_quantile(latencies_ms, 0.75, LATENCY_WINDOW, QUIET_LOW),
        windowed_quantile(latencies_ms, 0.9, LATENCY_WINDOW, QUIET_LOW),
        windowed_quantile(latencies_ms, 0.99, P99_WINDOW, 0.5),
    ]
}

/// Runs `setup` `times` times, returning its last result and each
/// run's duration in s as measured and at nominal host speed.
///
/// A set-up shorter than the samplers' period is rescaled by the
/// reference kernel timed on the same thread just before and after it.
/// The vCPU's speed changes faster than the samplers follow: within one
/// process, `CompassDesign::new` took about 85 µs in some 40-ms stretches
/// and 140 µs in others, while its ratio to the adjacent reference
/// samples stayed within ±3 %.
fn timed_setups<T>(
    times: usize,
    host: &Sampler,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>, Vec<f64>), String> {
    let reference = host::Reference::new();
    let mut spans = Vec::new();
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let before = reference.sample();
        let t = Instant::now();
        let value = setup()?;
        let end = Instant::now();
        spans.push((t, end, (before + reference.sample()) / 2.0));
        last = Some(value);
    }
    // Set-up runs as the samplers start: wait for the samples after it
    // that a longer set-up's factor averages, or the factor rests on the
    // first one or two.
    std::thread::sleep(host::SMOOTH);
    let raw = spans.iter().map(|&(t, end, _)| secs(end - t)).collect();
    let nominal = spans
        .iter()
        .map(|&(t, end, reference_ns)| {
            if end - t < host::EVERY {
                secs(end - t) * host::REFERENCE_NS / reference_ns
            } else {
                secs(end - t) / host.factor(t, end)
            }
        })
        .collect();
    Ok((last.expect("at least one set-up"), raw, nominal))
}

fn new_design() -> Result<fluxcomp_compass::CompassDesign, String> {
    fluxcomp_compass::CompassDesign::new(fluxcomp_compass::CompassConfig::paper_design())
        .map_err(|e| e.to_string())
}

fn sweep_run(args: &Args, threads: usize, host: &Sampler) -> Result<RunResult, String> {
    let (design, raw_setup, setup) = timed_setups(Workload::Sweep.setups(), host, new_design)?;
    let duration = Duration::from_secs_f64(args.seconds);
    let outcome = sweep::run(&design, args.seed, 0, threads, duration, host, None);
    let mismatched = sweep::traced_gate(&design, &outcome);
    let latencies = outcome.latencies_ms();
    let [p50, p75, p90, p99] = latency_summary(&latencies);
    let within = latencies.iter().filter(|&&l| l <= SWEEP_LIMIT_MS).count();
    Ok(RunResult {
        attempted: outcome.fixes,
        failed: mismatched,
        metrics: vec![
            ("setup_s", median(&setup), "s"),
            ("fixes_per_s", outcome.fixes_per_s(), "fixes/s"),
            ("latency_p50_ms", p50, "ms"),
            ("latency_p75_ms", p75, "ms"),
            (
                "slo_met_ratio",
                within as f64 / latencies.len() as f64,
                "ratio",
            ),
            ("heading_max_error_deg", outcome.max_error_deg, "deg"),
            ("peak_rss_mb", stats::peak_rss_mb(), "MB"),
        ],
        stamp: vec![
            ("raw_setup_s", json_num(median(&raw_setup))),
            (
                "raw_fixes_per_s",
                json_num(quantile(&outcome.raw_batch_rates, 0.75)),
            ),
            ("latency_p90_ms", json_num(p90)),
            ("latency_p99_ms", json_num(p99)),
            ("latency_samples", latencies.len().to_string()),
            ("sweep_batch", inputs::SWEEP_BATCH.to_string()),
            ("batches", outcome.batch_rates.len().to_string()),
            ("fixes", outcome.fixes.to_string()),
            ("traced_gate_mismatches", mismatched.to_string()),
        ],
    })
}

/// Set-ups of a serve workload, timed; returns the last rig and the
/// tally of every warm-up (the wire gate runs on the last one).
fn serve_setup(
    w: Workload,
    args: &Args,
    threads: usize,
    host: &Sampler,
) -> Result<(Rig, Vec<f64>, Vec<f64>, Tally), String> {
    let mut tally = Tally::default();
    let ((rig, warm), raw, nominal) = timed_setups(w.setups(), host, || {
        let (rig, warm) = Rig::setup(w.stream(), args.seed, threads).map_err(|e| e.to_string())?;
        tally.add(&warm.tally);
        Ok((rig, warm))
    })?;
    tally.mismatched += rig.wire_gate(&warm);
    Ok((rig, raw, nominal, tally))
}

/// Open-loop latency metrics of a phase: p50, p75, p90, p99 (from due time,
/// over answered requests), and the share of sent requests answered
/// `Ok`, `Good` and within the workload's limit.
fn open_loop_metrics(open: &Phase, w: Workload, host: &Sampler) -> ([f64; 4], f64) {
    let latencies: Vec<Option<f64>> = open
        .exchanges
        .iter()
        .map(|x| {
            if w.rescales_latency() {
                x.latency_ms(host)
            } else {
                x.raw_latency_ms()
            }
        })
        .collect();
    let answered: Vec<f64> = latencies.iter().flatten().copied().collect();
    let percentiles = latency_summary(&answered);
    let met = open
        .exchanges
        .iter()
        .zip(&latencies)
        .filter(|(x, l)| x.good() && l.is_some_and(|l| l <= w.limit_ms()))
        .count();
    (percentiles, met as f64 / open.exchanges.len().max(1) as f64)
}

fn send_lag_p99_ms(open: &Phase) -> f64 {
    let lags: Vec<f64> = open
        .exchanges
        .iter()
        .map(|x| secs(x.sent - x.due) * 1e3)
        .collect();
    quantile(&lags, 0.99)
}

fn serve_run(
    w: Workload,
    args: &Args,
    threads: usize,
    host: &Sampler,
) -> Result<RunResult, String> {
    let (mut rig, raw_setup, setup, mut tally) = serve_setup(w, args, threads, host)?;
    let warm_fixes = tally.sent;
    let open_d = Duration::from_secs_f64(args.seconds * OPEN_SHARE);
    let closed_d = Duration::from_secs_f64(args.seconds * (1.0 - OPEN_SHARE));
    let open = rig
        .open_loop(w.rate_hz(), open_d)
        .map_err(|e| e.to_string())?;
    let closed = rig
        .closed_loop(CLOSED_WINDOW, Limit::Duration(closed_d))
        .map_err(|e| e.to_string())?;
    for phase in [&open, &closed] {
        tally.add(&phase.tally);
        tally.mismatched += rig.wire_gate(phase);
    }
    let ([p50, p75, p90, p99], met) = open_loop_metrics(&open, w, host);
    let raw_latencies: Vec<f64> = open
        .exchanges
        .iter()
        .filter_map(|x| x.raw_latency_ms())
        .collect();
    let [raw_p50, raw_p75, raw_p90, raw_p99] = latency_summary(&raw_latencies);
    Ok(RunResult {
        attempted: tally.sent,
        failed: tally.failed(),
        metrics: vec![
            ("setup_s", median(&setup), "s"),
            ("fixes_per_s", closed.ok_per_s(host), "fixes/s"),
            ("latency_p50_ms", p50, "ms"),
            ("latency_p75_ms", p75, "ms"),
            ("slo_met_ratio", met, "ratio"),
            (
                "heading_max_error_deg",
                open.max_error_deg.max(closed.max_error_deg),
                "deg",
            ),
            ("peak_rss_mb", stats::peak_rss_mb(), "MB"),
        ],
        stamp: vec![
            ("raw_setup_s", json_num(median(&raw_setup))),
            ("raw_fixes_per_s", json_num(closed.raw_ok_per_s())),
            ("raw_latency_p50_ms", json_num(raw_p50)),
            ("raw_latency_p75_ms", json_num(raw_p75)),
            ("raw_latency_p90_ms", json_num(raw_p90)),
            ("raw_latency_p99_ms", json_num(raw_p99)),
            ("latency_p90_ms", json_num(p90)),
            ("latency_p99_ms", json_num(p99)),
            ("server_workers", rig.workers.to_string()),
            ("open_loop_requests", open.exchanges.len().to_string()),
            ("closed_loop_requests", closed.exchanges.len().to_string()),
            ("warm_up_requests", warm_fixes.to_string()),
            ("send_lag_p99_ms", json_num(send_lag_p99_ms(&open))),
            ("tally", tally_json(&tally)),
        ],
    })
}

fn tally_json(t: &Tally) -> String {
    format!(
        "{{\"sent\":{},\"ok\":{},\"overloaded\":{},\"deadline_exceeded\":{},\"unmeasurable\":{},\"other_status\":{},\"lost\":{},\"not_good\":{},\"cache_hits\":{},\"protocol_errors\":{},\"mismatched\":{}}}",
        t.sent, t.ok, t.overloaded, t.deadline_exceeded, t.unmeasurable, t.other_status, t.lost,
        t.not_good, t.cache_hits, t.protocol_errors, t.mismatched
    )
}

/// The serve-side part of a traced run against `rig`: an untraced and a
/// traced open + closed pass (their throughput ratio is the tracing
/// overhead), the server's own queue counters from the traced pass,
/// one-in-flight round trips, and the single-threaded replay.
struct ServeTrace {
    metrics: Vec<Metric>,
    untraced_ok_per_s: f64,
    traced_ok_per_s: f64,
    tally: Tally,
}

fn serve_trace(
    rig: &mut Rig,
    w: Workload,
    open_d: Duration,
    closed_d: Duration,
    tracer: &mut Tracer,
    host: &Sampler,
) -> Result<ServeTrace, String> {
    let err = |e: std::io::Error| e.to_string();
    let mut tally = Tally::default();
    let mut passes = Vec::new();
    for traced in [false, true] {
        let name = if traced {
            "client.traced_pass"
        } else {
            "client.untraced_pass"
        };
        let pass = tracer.enter(name, None);
        // The queue statistics come from the open loop alone: the closed
        // loop keeps its window queued by design.
        let session = traced.then(fluxcomp_obs::init_for_test);
        let open = rig.open_loop(w.rate_hz(), open_d).map_err(err)?;
        let profile = session.and_then(|s| s.profile());
        let session = traced.then(fluxcomp_obs::init_for_test);
        let closed = rig
            .closed_loop(CLOSED_WINDOW, Limit::Duration(closed_d))
            .map_err(err)?;
        drop(session);
        tracer.exit(pass);
        serve::record_spans(tracer, "client.open_loop", &open);
        serve::record_spans(tracer, "client.closed_loop", &closed);
        for phase in [&open, &closed] {
            tally.add(&phase.tally);
            tally.mismatched += rig.wire_gate(phase);
        }
        passes.push((open, closed, profile));
    }
    let (open_u, closed_u, _) = &passes[0];
    let (open_t, closed_t, profile) = &passes[1];
    let profile = profile.clone().unwrap_or_default();
    let hist = |name: &str| {
        profile
            .histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| *h)
    };
    let batch_mean = hist("serve.batch_size").map_or(f64::NAN, |h| h.mean());
    let residence_us = hist("serve.latency_us").map_or(f64::NAN, |h| h.mean())
        / open_t.start.map_or(1.0, |s| host.factor(s, s + open_d));

    let rtt_cached = tracer.scope("client.rtt_cached", None, |_| {
        rig.round_trips(RTT_CACHED, true)
    });
    let rtt_cached = rtt_cached.map_err(err)?;
    let rtt_fresh = tracer.scope("client.rtt_fresh", None, |_| {
        rig.round_trips(RTT_FRESH, false)
    });
    let rtt_fresh = rtt_fresh.map_err(err)?;
    let rtts = |p: &Phase| -> Vec<f64> {
        p.exchanges
            .iter()
            .filter_map(|x| x.latency_ms(host))
            .collect()
    };
    let rtt_cached_ms = median(&rtts(&rtt_cached));
    let rtt_fresh_ms = median(&rtts(&rtt_fresh));
    tally.add(&rtt_cached.tally);
    tally.add(&rtt_fresh.tally);

    let served: Vec<(fluxcomp_serve::FixRequest, fluxcomp_serve::FixResponse)> = open_u
        .exchanges
        .iter()
        .filter_map(|x| x.answer.as_ref().map(|(_, r)| (x.draw.request, *r)))
        .take(layers::REPLAY)
        .collect();
    let replay_mismatched = layers::replay(rig.server.design(), &served, tracer);
    tally.sent += served.len() as u64;
    tally.ok += served.len() as u64;
    tally.mismatched += replay_mismatched;

    Ok(ServeTrace {
        metrics: vec![
            ("serve.queue.batch_size_mean", batch_mean, "count"),
            ("serve.queue.residence_us", residence_us, "us"),
            (
                "serve.cache.hit_ratio",
                {
                    let mut t = open_t.tally;
                    t.add(&closed_t.tally);
                    t.hit_ratio()
                },
                "ratio",
            ),
            ("serve.server.rtt_cached_us", rtt_cached_ms * 1e3, "us"),
            ("serve.server.rtt_fresh_ms", rtt_fresh_ms, "ms"),
            ("client.send_lag_p99_ms", send_lag_p99_ms(open_u), "ms"),
            (
                "client.latency_p99_ms",
                open_loop_metrics(open_u, w, host).0[3],
                "ms",
            ),
        ],
        untraced_ok_per_s: closed_u.ok_per_s(host),
        traced_ok_per_s: closed_t.ok_per_s(host),
        tally,
    })
}

fn traced_run(
    w: Workload,
    args: &Args,
    threads: usize,
    host: &Sampler,
) -> Result<RunResult, String> {
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let (design, serve_part, overhead, efficiency_base) = match w {
        Workload::Sweep => {
            let design = tracer.scope("compass.design_new", None, |_| new_design())?;
            let untraced = sweep::run(&design, args.seed, 0, threads, half, host, None);
            let session = fluxcomp_obs::init_for_test();
            let pass = tracer.enter("exec.traced_pass", None);
            let traced = sweep::run(
                &design,
                args.seed,
                untraced.fixes,
                threads,
                half,
                host,
                Some(&mut tracer),
            );
            tracer.exit(pass);
            drop(session);
            for o in [&untraced, &traced] {
                attempted += o.fixes;
                failed += sweep::traced_gate(&design, o);
            }
            // The sweep has no server: its serve metrics come from a
            // short probe that serves the sweep's own headings.
            let (mut rig, _) = Rig::setup(StreamKind::SweepHeadings, args.seed, threads)
                .map_err(|e| e.to_string())?;
            let probe = serve_trace(&mut rig, w, PROBE_OPEN, PROBE_CLOSED, &mut tracer, host)?;
            let overhead = untraced.fixes_per_s() / traced.fixes_per_s();
            (design, probe, overhead, untraced.fixes_per_s())
        }
        Workload::ServeFresh | Workload::ServeHot => {
            let setup = tracer.enter("serve.setup", None);
            let (mut rig, warm) =
                Rig::setup(w.stream(), args.seed, threads).map_err(|e| e.to_string())?;
            tracer.exit(setup);
            let mut warm_tally = warm.tally;
            warm_tally.mismatched += rig.wire_gate(&warm);
            attempted += warm_tally.sent;
            failed += warm_tally.failed();
            let open_d = half.mul_f64(OPEN_SHARE);
            let closed_d = half.mul_f64(1.0 - OPEN_SHARE);
            let part = serve_trace(&mut rig, w, open_d, closed_d, &mut tracer, host)?;
            let overhead = part.untraced_ok_per_s / part.traced_ok_per_s;
            let base = part.untraced_ok_per_s;
            (rig.server.design().clone(), part, overhead, base)
        }
    };
    attempted += serve_part.tally.sent;
    failed += serve_part.tally.failed();
    let stream = inputs::RequestStream::new(w.stream(), args.seed, &design);
    let mut metrics = layers::time_layers(&design, &stream, &mut tracer, host);
    let get = |metrics: &[Metric], name: &str| {
        metrics
            .iter()
            .find(|m| m.0 == name)
            .map_or(f64::NAN, |m| m.1)
    };
    let fix_us = get(&metrics, "compass.fix_us");
    metrics.push((
        "exec.parallel_efficiency",
        efficiency_base / (threads as f64 * 1e6 / fix_us),
        "ratio",
    ));
    metrics.extend(serve_part.metrics);
    let stages_us = (get(&metrics, "serve.protocol.decode_ns")
        + get(&metrics, "serve.cache.key_ns")
        + get(&metrics, "serve.cache.get_hit_ns")
        + get(&metrics, "serve.protocol.encode_ns"))
        / 1e3;
    let overhead_us = get(&metrics, "serve.server.rtt_cached_us") - stages_us;
    metrics.push(("serve.server.overhead_us", overhead_us, "us"));
    metrics.push(("obs.overhead_ratio", overhead, "ratio"));

    let path = repo_root().join("perfbench").join("out").join(format!(
        "trace-{}-seed{}.jsonl",
        w.name(),
        args.seed
    ));
    let header = format!(
        "{{\"workload\":{},\"seed\":{},\"spans\":{}}}",
        json_str(w.name()),
        args.seed,
        tracer.spans().len()
    );
    tracer
        .write_jsonl(&path, &header)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let totals = tracer.totals();
    eprintln!("span self time (ms):");
    for (name, t) in &totals {
        eprintln!(
            "  {name:<36} n={:<7} total={:>10.3} self={:>10.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    Ok(RunResult {
        attempted,
        failed,
        metrics,
        stamp: vec![
            (
                "trace_file",
                json_str(
                    &path
                        .strip_prefix(repo_root())
                        .unwrap_or(&path)
                        .display()
                        .to_string(),
                ),
            ),
            ("spans", tracer.spans().len().to_string()),
        ],
    })
}

fn run_workload(w: Workload, args: &Args) -> Result<RunResult, String> {
    let threads = stats::host_cpus();
    let host = Sampler::start();
    let mut result = match (args.trace, w) {
        (false, Workload::Sweep) => sweep_run(args, threads, &host)?,
        (false, _) => serve_run(w, args, threads, &host)?,
        (true, _) => traced_run(w, args, threads, &host)?,
    };
    let (host_cpus_sampled, host_samples, host_median_ns) = host.summary();
    let host_stolen = host.stolen_share();
    drop(host);
    let root = repo_root();
    let serve_load = w != Workload::Sweep || args.trace;
    let mut stamp: Vec<(&'static str, String)> = vec![
        ("workload", json_str(w.name())),
        ("seed", args.seed.to_string()),
        ("seconds", json_num(args.seconds)),
        ("trace", u8::from(args.trace).to_string()),
        ("threads", threads.to_string()),
        ("host_cpus", stats::host_cpus().to_string()),
        (
            "generator_threads",
            if serve_load { "2" } else { "0" }.to_string(),
        ),
        (
            "connections",
            if serve_load { "1" } else { "0" }.to_string(),
        ),
        (
            "offered_rate_hz",
            if serve_load {
                json_num(w.rate_hz())
            } else {
                "null".to_string()
            },
        ),
        (
            "closed_window",
            if serve_load {
                CLOSED_WINDOW.to_string()
            } else {
                "null".to_string()
            },
        ),
        ("latency_limit_ms", json_num(w.limit_ms())),
        ("hot_set", inputs::HOT_SET.to_string()),
        ("host_reference_ns", json_num(host::REFERENCE_NS)),
        ("host_reference_median_ns", json_num(host_median_ns)),
        ("host_reference_samples", host_samples.to_string()),
        ("host_reference_cpus", host_cpus_sampled.to_string()),
        ("host_stolen_share", json_num(host_stolen)),
        (
            "commit",
            stats::git_commit(&root).map_or("null".to_string(), |c| json_str(&c)),
        ),
        (
            "source_hash",
            json_str(&stats::source_hash(
                &root,
                &["crates", "perfbench/src", "Cargo.lock"],
            )),
        ),
    ];
    stamp.append(&mut result.stamp);
    result.stamp = stamp;
    Ok(result)
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.1.is_finite());
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        failed == 0 && finite,
        attempted.max(1),
        failed,
        metrics_json(metrics)
    )
}

/// Runs every workload in its own child process (so each reports its
/// own peak memory) and prints their results, then a combined line.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut correct = true;
    let mut combined: Vec<String> = Vec::new();
    for w in Workload::ALL {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let Some(last) = stdout.lines().last().filter(|_| out.status.success()) else {
            return Err(format!("{} failed ({})", w.name(), out.status));
        };
        for line in stdout.lines() {
            println!("{line}");
        }
        let value = fluxcomp_obs::json::parse(last).map_err(|e| e.to_string())?;
        correct &= matches!(
            value.get("correct"),
            Some(fluxcomp_obs::json::Value::Bool(true))
        );
        attempted += value.get("attempted").and_then(|v| v.as_u64()).unwrap_or(0);
        failed += value.get("failed").and_then(|v| v.as_u64()).unwrap_or(1);
        if let Some(fluxcomp_obs::json::Value::Object(metrics)) = value.get("metrics") {
            for (name, m) in metrics {
                let v = m.get("value").and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(|u| u.as_str()).unwrap_or("");
                combined.push(format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(&format!("{}.{name}", w.name())),
                    json_num(v),
                    json_str(unit)
                ));
            }
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        correct && failed == 0,
        attempted.max(1),
        failed,
        combined.join(",")
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload sweep|serve_fresh|serve_hot|all --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let Some(w) = args.workload else {
        return match run_all(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    };
    match run_workload(w, &args) {
        Ok(r) => {
            for (name, value, unit) in &r.metrics {
                eprintln!(
                    "{:<34} {:>16.6} {unit}",
                    format!("{}.{name}", w.name()),
                    value
                );
            }
            let stamp: Vec<String> = r
                .stamp
                .iter()
                .map(|(k, v)| format!("{}:{v}", json_str(k)))
                .collect();
            println!("{{\"stamp\":{{{}}}}}", stamp.join(","));
            println!("{}", result_json(r.attempted, r.failed, &r.metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", w.name());
            ExitCode::FAILURE
        }
    }
}
