//! The open-loop load generator.
//!
//! Open-loop means arrivals are scheduled on a wall clock — request `k`
//! is sent at `start + k / rate` regardless of whether earlier
//! responses have come back — so a slow server faces a growing backlog
//! exactly like production traffic, instead of the coordinated-omission
//! trap of closed-loop "send, wait, send" clients whose measured
//! latency politely stops rising the moment the server saturates.
//!
//! Each connection runs a sender (paced writes) and a receiver thread
//! (tallies responses, matches request ids to send timestamps for
//! latency). Percentiles come from [`SortedSamples`] over the `Ok`
//! response latencies.
//!
//! ## Retries
//!
//! `Overloaded` responses can be retried with deterministic jittered
//! exponential backoff: attempt `a` of request `id` waits
//! `retry_backoff · 2^a · (0.5 + unit_f64(derive_seed(id, a)))`, so the
//! retry schedule is a pure function of the request and reproducible
//! run to run. Retries draw from a run-wide `retry_budget` shared by
//! all connections — a saturated server sees at most `budget` extra
//! requests, never a retry storm.

use crate::protocol::{
    read_frame, write_request, FieldSpec, FixRequest, FixResponse, ReadFrame, Status,
};
use fluxcomp_compass::FixQuality;
use fluxcomp_exec::{derive_seed, unit_f64, SortedSamples};
use std::collections::HashMap;
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Load-generator parameters.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Server address, e.g. `"127.0.0.1:9000"`.
    pub addr: String,
    /// Concurrent connections; requests are split round-robin.
    pub connections: usize,
    /// Total requests across all connections.
    pub requests: usize,
    /// Open-loop arrival rate in fixes/s across all connections;
    /// `0.0` means closed-throttle (send as fast as the sockets take).
    pub rate_hz: f64,
    /// Deadline stamped on every request (milliseconds; 0 = none).
    pub deadline_ms: u32,
    /// Set the no-cache flag on every request.
    pub no_cache: bool,
    /// Send explicit field vectors instead of heading truths.
    pub field_vector: bool,
    /// Distinct `(field, seed)` combinations cycled through; `1` sends
    /// the identical fix every time (maximally cache-friendly), large
    /// values defeat the cache.
    pub unique_fixes: usize,
    /// Base noise seed; per-fix seeds derive from it.
    pub base_seed: u64,
    /// How long receivers keep draining after the last send.
    pub drain_timeout: Duration,
    /// Per-request cap on `Overloaded` retries; `0` disables retrying.
    pub max_retries: u32,
    /// Run-wide retry budget shared across all connections; each retry
    /// send consumes one unit. `0` disables retrying.
    pub retry_budget: u64,
    /// Base backoff before the first retry (doubles per attempt, with
    /// ×[0.5, 1.5) deterministic jitter).
    pub retry_backoff: Duration,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        Self {
            addr: String::new(),
            connections: 4,
            requests: 1000,
            rate_hz: 0.0,
            deadline_ms: 0,
            no_cache: false,
            field_vector: false,
            unique_fixes: 64,
            base_seed: 0xf1c5,
            drain_timeout: Duration::from_secs(10),
            max_retries: 0,
            retry_budget: 0,
            retry_backoff: Duration::from_millis(2),
        }
    }
}

/// Aggregated results of one load-generator run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Requests written to the sockets (retries included).
    pub sent: u64,
    /// Responses received (any status).
    pub completed: u64,
    /// `Ok` responses.
    pub ok: u64,
    /// `Ok` responses served from the fix cache.
    pub cache_hits: u64,
    /// `Ok` responses flagged [`FixQuality::Good`].
    pub quality_good: u64,
    /// `Ok` responses flagged [`FixQuality::Degraded`].
    pub quality_degraded: u64,
    /// `Unmeasurable` responses (the server held a stale heading;
    /// quality is `Invalid`).
    pub unmeasurable: u64,
    /// `Overloaded` responses.
    pub overloaded: u64,
    /// `DeadlineExceeded` responses.
    pub deadline_exceeded: u64,
    /// `ShuttingDown` responses.
    pub shutting_down: u64,
    /// Retry sends performed after `Overloaded` responses.
    pub retries: u64,
    /// Protocol-level failures: `BadRequest`/`InvalidConfig` responses,
    /// undecodable frames, responses to unknown ids, and socket errors.
    pub protocol_errors: u64,
    /// Requests that never got a response within the drain timeout.
    pub lost: u64,
    /// Wall-clock duration from first send to last response.
    pub elapsed: Duration,
    /// `Ok` responses per second of elapsed time.
    pub fixes_per_s: f64,
    /// Median `Ok` latency, milliseconds (0 when nothing succeeded).
    pub p50_ms: f64,
    /// 95th-percentile `Ok` latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile `Ok` latency, milliseconds.
    pub p99_ms: f64,
}

impl LoadReport {
    /// Adds one connection's response counters into the run's.
    fn merge(&mut self, other: &Self) {
        self.sent += other.sent;
        self.completed += other.completed;
        self.ok += other.ok;
        self.cache_hits += other.cache_hits;
        self.quality_good += other.quality_good;
        self.quality_degraded += other.quality_degraded;
        self.unmeasurable += other.unmeasurable;
        self.overloaded += other.overloaded;
        self.deadline_exceeded += other.deadline_exceeded;
        self.shutting_down += other.shutting_down;
        self.retries += other.retries;
        self.protocol_errors += other.protocol_errors;
    }
}

/// The fix request for global index `k` under `config`'s mix.
fn request_for(config: &LoadGenConfig, k: usize) -> FixRequest {
    let unique = config.unique_fixes.max(1);
    let slot = k % unique;
    let heading = 360.0 * slot as f64 / unique as f64;
    let field = if config.field_vector {
        // A 12 A/m horizontal field rotated to the slot's heading —
        // the same magnitude class the paper's 15 µT environment
        // induces, swept around the circle.
        let rad = heading.to_radians();
        FieldSpec::FieldVector {
            hx: 12.0 * rad.cos(),
            hy: 12.0 * rad.sin(),
        }
    } else {
        FieldSpec::HeadingTruth(heading)
    };
    FixRequest {
        id: k as u64,
        seed: derive_seed(config.base_seed, slot as u64),
        deadline_ms: config.deadline_ms,
        no_cache: config.no_cache,
        field,
    }
}

/// Runs the configured load against the server and reports.
///
/// # Errors
///
/// Only connection establishment errors are returned; socket failures
/// mid-run are tallied as `protocol_errors` in the report.
pub fn run(config: &LoadGenConfig) -> io::Result<LoadReport> {
    let connections = config.connections.max(1);
    let start = Instant::now();
    let budget = Arc::new(AtomicU64::new(config.retry_budget));
    let mut handles = Vec::with_capacity(connections);
    for c in 0..connections {
        let stream = TcpStream::connect(&config.addr)?;
        let config = config.clone();
        let budget = Arc::clone(&budget);
        handles.push(thread::spawn(move || {
            connection_run(&config, c, stream, start, &budget)
        }));
    }
    let mut report = LoadReport::default();
    let mut latencies_ms = Vec::new();
    for handle in handles {
        let (tally, latencies) = handle.join().expect("loadgen connection thread panicked");
        report.merge(&tally);
        latencies_ms.extend_from_slice(&latencies);
    }
    report.elapsed = start.elapsed();
    report.lost = report.sent.saturating_sub(report.completed);
    let secs = report.elapsed.as_secs_f64();
    if secs > 0.0 {
        report.fixes_per_s = report.ok as f64 / secs;
    }
    if !latencies_ms.is_empty() {
        let sorted = SortedSamples::new(&latencies_ms);
        report.p50_ms = sorted.quantile(0.50);
        report.p95_ms = sorted.quantile(0.95);
        report.p99_ms = sorted.quantile(0.99);
    }
    Ok(report)
}

/// The deterministic jittered backoff before retry attempt `attempt`
/// (1-based) of request `id`.
fn retry_delay(config: &LoadGenConfig, id: u64, attempt: u32) -> Duration {
    let jitter = 0.5 + unit_f64(derive_seed(id, u64::from(attempt)));
    let scale = f64::from(1u32 << attempt.min(16)) / 2.0;
    Duration::from_secs_f64(config.retry_backoff.as_secs_f64() * scale * jitter)
}

fn connection_run(
    config: &LoadGenConfig,
    conn_index: usize,
    stream: TcpStream,
    start: Instant,
    budget: &Arc<AtomicU64>,
) -> (LoadReport, Vec<f64>) {
    let connections = config.connections.max(1);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let pending: Arc<Mutex<HashMap<u64, Instant>>> = Arc::new(Mutex::new(HashMap::new()));
    let sent = Arc::new(AtomicUsize::new(0));
    let sender_done = Arc::new(AtomicBool::new(false));
    // Retries are written by the receiver, so all writes to the socket
    // (paced sends and retries) go through one shared lock.
    let writer = Arc::new(Mutex::new(
        stream.try_clone().expect("clone loadgen socket"),
    ));

    let receiver = {
        let config = config.clone();
        let pending = Arc::clone(&pending);
        let sent = Arc::clone(&sent);
        let sender_done = Arc::clone(&sender_done);
        let writer = Arc::clone(&writer);
        let budget = Arc::clone(budget);
        thread::spawn(move || {
            receive_loop(
                &config,
                stream,
                &pending,
                &sent,
                &sender_done,
                &writer,
                &budget,
            )
        })
    };

    let mut send_errors = 0u64;
    let mut k = conn_index;
    let mut j = 0usize;
    while k < config.requests {
        if config.rate_hz > 0.0 {
            let due = start + Duration::from_secs_f64(k as f64 / config.rate_hz);
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
        }
        let request = request_for(config, k);
        // Record the pending send *before* the write so a fast response
        // can never race the bookkeeping.
        pending.lock().unwrap().insert(request.id, Instant::now());
        if write_request(&mut *writer.lock().unwrap(), &request).is_err() {
            pending.lock().unwrap().remove(&request.id);
            send_errors += 1;
            break;
        }
        sent.fetch_add(1, Ordering::SeqCst);
        j += 1;
        k = conn_index + j * connections;
    }
    sender_done.store(true, Ordering::SeqCst);
    let (mut tally, latencies_ms) = receiver.join().expect("loadgen receiver thread panicked");
    tally.sent = sent.load(Ordering::SeqCst) as u64;
    tally.protocol_errors += send_errors;
    (tally, latencies_ms)
}

/// A retry scheduled for `due`; `attempt` is how many times the request
/// has already been sent.
struct PendingRetry {
    due: Instant,
    id: u64,
    attempt: u32,
}

#[allow(clippy::too_many_arguments)]
fn receive_loop(
    config: &LoadGenConfig,
    mut stream: TcpStream,
    pending: &Mutex<HashMap<u64, Instant>>,
    sent: &AtomicUsize,
    sender_done: &AtomicBool,
    writer: &Mutex<TcpStream>,
    budget: &AtomicU64,
) -> (LoadReport, Vec<f64>) {
    let mut tally = LoadReport::default();
    let mut latencies_ms = Vec::new();
    let mut buf = Vec::new();
    let mut drain_start: Option<Instant> = None;
    // Attempts already made per request id (first send = attempt 1).
    let mut attempts: HashMap<u64, u32> = HashMap::new();
    let mut retries: Vec<PendingRetry> = Vec::new();
    loop {
        // Fire due retries before checking for completion so a
        // scheduled retry is never abandoned by an early exit.
        let now = Instant::now();
        let mut i = 0;
        while i < retries.len() {
            if retries[i].due <= now {
                let retry = retries.swap_remove(i);
                let request = request_for(config, retry.id as usize);
                pending.lock().unwrap().insert(request.id, Instant::now());
                if write_request(&mut *writer.lock().unwrap(), &request).is_err() {
                    pending.lock().unwrap().remove(&request.id);
                    tally.protocol_errors += 1;
                } else {
                    sent.fetch_add(1, Ordering::SeqCst);
                    tally.retries += 1;
                    attempts.insert(retry.id, retry.attempt + 1);
                }
            } else {
                i += 1;
            }
        }
        let done = sender_done.load(Ordering::SeqCst);
        if done && retries.is_empty() && tally.completed as usize >= sent.load(Ordering::SeqCst) {
            break;
        }
        if done && retries.is_empty() {
            let since = drain_start.get_or_insert_with(Instant::now);
            if since.elapsed() > config.drain_timeout {
                break;
            }
        }
        match read_frame(&mut stream, &mut buf) {
            Ok(ReadFrame::Frame(len)) => match FixResponse::decode_payload(&buf[..len]) {
                Ok(response) => {
                    tally.completed += 1;
                    drain_start = None;
                    let sent_at = pending.lock().unwrap().remove(&response.id);
                    match (response.status, sent_at) {
                        (Status::Ok, Some(at)) => {
                            tally.ok += 1;
                            if response.cache_hit {
                                tally.cache_hits += 1;
                            }
                            match response.quality {
                                FixQuality::Good => tally.quality_good += 1,
                                FixQuality::Degraded => tally.quality_degraded += 1,
                                FixQuality::Invalid => {}
                            }
                            latencies_ms.push(at.elapsed().as_secs_f64() * 1e3);
                        }
                        (Status::Ok, None) => tally.protocol_errors += 1,
                        (Status::Unmeasurable, _) => tally.unmeasurable += 1,
                        (Status::Overloaded, _) => {
                            tally.overloaded += 1;
                            let attempt = *attempts.entry(response.id).or_insert(1);
                            if attempt <= config.max_retries
                                && budget
                                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| {
                                        b.checked_sub(1)
                                    })
                                    .is_ok()
                            {
                                retries.push(PendingRetry {
                                    due: Instant::now() + retry_delay(config, response.id, attempt),
                                    id: response.id,
                                    attempt,
                                });
                            }
                        }
                        (Status::DeadlineExceeded, _) => tally.deadline_exceeded += 1,
                        (Status::ShuttingDown, _) => tally.shutting_down += 1,
                        (_, _) => tally.protocol_errors += 1,
                    }
                }
                Err(_) => {
                    tally.protocol_errors += 1;
                    break;
                }
            },
            Ok(ReadFrame::Eof) => break,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(_) => {
                tally.protocol_errors += 1;
                break;
            }
        }
    }
    (tally, latencies_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_mix_cycles_unique_fixes() {
        let config = LoadGenConfig {
            unique_fixes: 4,
            ..LoadGenConfig::default()
        };
        let a = request_for(&config, 1);
        let b = request_for(&config, 5);
        // Same slot → same field and seed, different id.
        assert_eq!(a.field, b.field);
        assert_eq!(a.seed, b.seed);
        assert_ne!(a.id, b.id);
        // Different slot → different fix.
        let c = request_for(&config, 2);
        assert_ne!(a.field, c.field);
        assert_ne!(a.seed, c.seed);
    }

    #[test]
    fn field_vector_mix_stays_on_the_12_am_circle() {
        let config = LoadGenConfig {
            field_vector: true,
            unique_fixes: 8,
            ..LoadGenConfig::default()
        };
        for k in 0..8 {
            match request_for(&config, k).field {
                FieldSpec::FieldVector { hx, hy } => {
                    assert!((hx.hypot(hy) - 12.0).abs() < 1e-9);
                }
                other => panic!("expected a field vector, got {other:?}"),
            }
        }
    }
}
