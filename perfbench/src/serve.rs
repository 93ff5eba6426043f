//! The serve workloads' client side: an in-process `FixServer` on
//! loopback, one connection, and a load generator written for timing.
//!
//! The open-loop generator uses exactly two threads — one writes each
//! request at its due time, one reads responses — and times every
//! request from when it was **due**, so a generator or server stall
//! charges its delay to every request queued behind it. How late each
//! write ran against its due time is kept too (`send lag`).
//! `fluxcomp_serve::loadgen` is not used for timing: it stamps requests
//! at the actual write and runs two threads per connection.

use crate::host::Sampler;
use crate::inputs::{same_bits, sample_indices, Draw, RequestStream, StreamKind};
use crate::stats::Reservoir;
use crate::trace::Tracer;
use fluxcomp_compass::{CompassConfig, CompassDesign, FixQuality, MeasureScratch};
use fluxcomp_serve::protocol::{REQUEST_LEN_VECTOR, RESPONSE_LEN};
use fluxcomp_serve::{FixResponse, FixServer, ServeConfig, Status};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How long a phase waits for outstanding responses after its last
/// send before counting them as lost.
const DRAIN: Duration = Duration::from_secs(3);
/// Socket read timeout: how often a blocked reader re-checks the drain
/// deadline.
const POLL: Duration = Duration::from_millis(50);
/// Served fixes per phase recomputed directly for the wire == direct gate.
const WIRE_GATE_FIXES: usize = 16;
/// Nice value of the server's threads: below the load generator's, so a
/// busy server cannot starve the client that measures it.
const SERVER_NICE: i32 = 5;
/// Throughput slice of a timed closed loop.
const SLICE: Duration = Duration::from_millis(500);
/// Outstanding requests while warming the hot set.
const WARM_WINDOW: usize = 32;

/// One request's round trip.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// The request as drawn from the stream.
    pub draw: Draw,
    /// When it was due (open loop) or sent (closed loop).
    pub due: Instant,
    /// When its write started.
    pub sent: Instant,
    /// When its response was read, with the response.
    pub answer: Option<(Instant, FixResponse)>,
}

impl Exchange {
    /// Due → response, ms as measured (`None` when unanswered).
    pub fn raw_latency_ms(&self) -> Option<f64> {
        self.answer
            .as_ref()
            .map(|(at, _)| (*at - self.due).as_secs_f64() * 1e3)
    }

    /// Due → response, ms at nominal host speed.
    pub fn latency_ms(&self, host: &Sampler) -> Option<f64> {
        let (at, _) = self.answer.as_ref()?;
        Some((*at - self.due).as_secs_f64() * 1e3 / host.factor(self.due, *at))
    }

    /// `true` for an answered `Ok` response of `Good` quality.
    pub fn good(&self) -> bool {
        matches!(&self.answer, Some((_, r)) if r.status == Status::Ok && r.quality == FixQuality::Good)
    }
}

/// One phase: its outcome counts and worst heading error over every
/// request, plus the exchanges themselves — all of them for phases of
/// fixed size (open loop, warm-up, round trips), a seeded sample for the
/// closed loop, whose length grows with the server's speed.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Every exchange, or a seeded sample of them (closed loop).
    pub exchanges: Vec<Exchange>,
    /// Outcome counts over every request of the phase.
    pub tally: Tally,
    /// Worst `|heading − truth|` over every `Ok` fix, degrees.
    pub max_error_deg: f64,
    /// Length of the window throughput is counted over, s.
    pub window_s: f64,
    /// `Ok` responses read inside the window.
    pub ok_in_window: u64,
    /// `Ok` responses read in each [`SLICE`] of a timed closed loop.
    pub ok_per_slice: Vec<u64>,
    /// When the phase started.
    pub start: Option<Instant>,
}

impl Phase {
    /// `Ok` fixes per second at nominal host speed: the upper quartile of
    /// the closed loop's slices (a stretch the host's neighbours stole
    /// does not move it), else over the whole window.
    pub fn ok_per_s(&self, host: &Sampler) -> f64 {
        let Some(start) = self.start else {
            return self.raw_ok_per_s();
        };
        if self.ok_per_slice.is_empty() {
            let end = start + Duration::from_secs_f64(self.window_s);
            return self.raw_ok_per_s() * host.factor(start, end);
        }
        let rates: Vec<f64> = self
            .ok_per_slice
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let from = start + SLICE * i as u32;
                n as f64 / SLICE.as_secs_f64() * host.factor(from, from + SLICE)
            })
            .collect();
        crate::stats::quantile(&rates, 0.75)
    }

    /// `Ok` fixes per second over the whole window, as measured.
    pub fn raw_ok_per_s(&self) -> f64 {
        self.ok_in_window as f64 / self.window_s
    }

    /// Counts one finished exchange.
    fn fold(&mut self, x: &Exchange) {
        self.tally.count(x);
        if let Some((_, r)) = &x.answer {
            if r.status == Status::Ok {
                self.max_error_deg = self
                    .max_error_deg
                    .max(crate::inputs::heading_error(r.heading, x.draw.truth));
            }
        }
    }

    fn from_exchanges(exchanges: Vec<Exchange>, window_s: f64, ok_in_window: u64) -> Self {
        let mut phase = Self {
            window_s,
            ok_in_window,
            ..Self::default()
        };
        for x in &exchanges {
            phase.fold(x);
        }
        phase.exchanges = exchanges;
        phase
    }
}

/// Outcome counts over one or more phases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests sent.
    pub sent: u64,
    /// `Ok` responses.
    pub ok: u64,
    /// `Overloaded` responses.
    pub overloaded: u64,
    /// `DeadlineExceeded` responses.
    pub deadline_exceeded: u64,
    /// `Unmeasurable` responses.
    pub unmeasurable: u64,
    /// Any other non-`Ok` status.
    pub other_status: u64,
    /// Requests never answered.
    pub lost: u64,
    /// `Ok` responses whose quality is not `Good`.
    pub not_good: u64,
    /// Responses that hit the fix cache.
    pub cache_hits: u64,
    /// Undecodable or unmatched frames.
    pub protocol_errors: u64,
    /// Served fixes that differ from a direct measurement.
    pub mismatched: u64,
}

impl Tally {
    /// Counts one finished exchange.
    fn count(&mut self, x: &Exchange) {
        self.sent += 1;
        let Some((_, r)) = &x.answer else {
            self.lost += 1;
            return;
        };
        match r.status {
            Status::Ok => self.ok += 1,
            Status::Overloaded => self.overloaded += 1,
            Status::DeadlineExceeded => self.deadline_exceeded += 1,
            Status::Unmeasurable => self.unmeasurable += 1,
            _ => self.other_status += 1,
        }
        if r.status == Status::Ok && r.quality != FixQuality::Good {
            self.not_good += 1;
        }
        self.cache_hits += u64::from(r.cache_hit);
    }

    /// Adds another tally's counts.
    pub fn add(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.overloaded += other.overloaded;
        self.deadline_exceeded += other.deadline_exceeded;
        self.unmeasurable += other.unmeasurable;
        self.other_status += other.other_status;
        self.lost += other.lost;
        self.not_good += other.not_good;
        self.cache_hits += other.cache_hits;
        self.protocol_errors += other.protocol_errors;
        self.mismatched += other.mismatched;
    }

    /// Share of answered requests served from the cache.
    pub fn hit_ratio(&self) -> f64 {
        self.cache_hits as f64 / (self.sent - self.lost).max(1) as f64
    }

    /// Operations that failed: every request not answered `Ok` + `Good`
    /// and every served fix that differs from direct measurement.
    pub fn failed(&self) -> u64 {
        (self.sent - self.ok) + self.not_good + self.mismatched + self.protocol_errors
    }
}

/// Reads length-prefixed response frames from a socket with a read
/// timeout, keeping partial frames across timeouts.
#[derive(Debug)]
struct FrameReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl FrameReader {
    /// The next response; `Ok(None)` when the read timed out first.
    fn next(&mut self) -> io::Result<Option<FixResponse>> {
        loop {
            if self.buf.len() >= 4 {
                let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]])
                    as usize;
                if len != RESPONSE_LEN {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "bad frame length",
                    ));
                }
                if self.buf.len() >= 4 + len {
                    let response = FixResponse::decode_payload(&self.buf[4..4 + len])
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e));
                    self.buf.drain(..4 + len);
                    return response.map(Some);
                }
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Writes one request frame with a single `write_all`.
fn send(stream: &mut TcpStream, draw: &Draw) -> io::Result<()> {
    let mut frame = [0u8; 4 + REQUEST_LEN_VECTOR];
    let len = draw.request.encode_payload(&mut frame[4..]);
    frame[..4].copy_from_slice(&(len as u32).to_le_bytes());
    stream.write_all(&frame[..4 + len])
}

/// The in-process server, its request stream and the one client
/// connection.
#[derive(Debug)]
pub struct Rig {
    /// The running server.
    pub server: FixServer,
    /// The workload's seeded requests.
    pub stream: RequestStream,
    writer: TcpStream,
    reader: FrameReader,
    seed: u64,
    /// Next unused stream index.
    next: u64,
    /// Worker threads the server runs.
    pub workers: usize,
}

impl Rig {
    /// `CompassDesign::new` + `FixServer::start` (workers = `threads`,
    /// default cache) + connect, and for a repeating stream the cache
    /// warm-up. Returns the rig and the warm-up phase.
    pub fn setup(kind: StreamKind, seed: u64, threads: usize) -> io::Result<(Self, Phase)> {
        let design = CompassDesign::new(CompassConfig::paper_design())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let stream = RequestStream::new(kind, seed, &design);
        let config = ServeConfig {
            workers: threads,
            ..ServeConfig::default()
        };
        // Started from a helper thread at the server's nice value: the
        // acceptor, workers and connection readers it spawns inherit it.
        let server = std::thread::scope(|s| {
            s.spawn(|| {
                crate::sched::set_current_thread_nice(SERVER_NICE);
                FixServer::start(design, config)
            })
            .join()
            .expect("server start thread panicked")
        })?;
        let (writer, reader) = connect(server.local_addr())?;
        let mut rig = Self {
            server,
            stream,
            writer,
            reader,
            seed,
            next: 0,
            workers: threads,
        };
        let warm = match rig.stream.distinct() {
            Some(n) => rig.closed_loop(WARM_WINDOW, Limit::Count(n))?,
            None => Phase::default(),
        };
        Ok((rig, warm))
    }

    fn take(&mut self) -> Draw {
        let draw = self.stream.draw(self.next);
        self.next += 1;
        draw
    }

    /// Open loop at `rate_hz` for `duration`: request `i` is due at
    /// `start + i / rate_hz` whatever happened to earlier requests.
    pub fn open_loop(&mut self, rate_hz: f64, duration: Duration) -> io::Result<Phase> {
        let n = ((rate_hz * duration.as_secs_f64()).round() as usize).max(1);
        let draws: Vec<Draw> = (0..n).map(|_| self.take()).collect();
        let start = Instant::now() + Duration::from_millis(2);
        let due: Vec<Instant> = (0..n)
            .map(|i| start + Duration::from_secs_f64(i as f64 / rate_hz))
            .collect();
        let writer_done = AtomicBool::new(false);
        let first = draws[0].request.id;
        let (writer, reader) = (&mut self.writer, &mut self.reader);
        let (sent, (answers, protocol_errors)) = std::thread::scope(|s| {
            let w = s.spawn(|| {
                let mut sent = Vec::with_capacity(n);
                for (draw, &at) in draws.iter().zip(&due) {
                    let now = Instant::now();
                    if at > now {
                        std::thread::sleep(at - now);
                    }
                    let t = Instant::now();
                    if send(writer, draw).is_err() {
                        break;
                    }
                    sent.push(t);
                }
                writer_done.store(true, Ordering::SeqCst);
                sent
            });
            let r = s.spawn(|| read_answers(reader, first, n, &writer_done));
            (
                w.join().expect("writer thread panicked"),
                r.join().expect("reader thread panicked"),
            )
        });
        let exchanges: Vec<Exchange> = draws
            .into_iter()
            .zip(due)
            .zip(answers)
            .zip(&sent)
            .map(|(((draw, due), answer), &sent)| Exchange {
                draw,
                due,
                sent,
                answer,
            })
            .collect();
        let end = start + duration;
        let ok_in_window = exchanges
            .iter()
            .filter(|x| matches!(&x.answer, Some((at, r)) if *at <= end && r.status == Status::Ok))
            .count() as u64;
        let mut phase = Phase::from_exchanges(exchanges, duration.as_secs_f64(), ok_in_window);
        phase.tally.protocol_errors += protocol_errors;
        phase.start = Some(start);
        Ok(phase)
    }

    /// Closed loop: keep `window` requests outstanding on the one
    /// connection until `limit` is reached, then drain. Keeps a seeded
    /// sample of the exchanges for the wire gate.
    pub fn closed_loop(&mut self, window: usize, limit: Limit) -> io::Result<Phase> {
        let window = window.max(1);
        let start = Instant::now();
        let end = match limit {
            Limit::Duration(d) => Some(start + d),
            Limit::Count(_) => None,
        };
        let mut phase = Phase {
            start: Some(start),
            ..Phase::default()
        };
        if let Limit::Duration(d) = limit {
            let slices = (d.as_secs_f64() / SLICE.as_secs_f64()).floor() as usize;
            phase.ok_per_slice = vec![0; slices];
        }
        let mut sample = Reservoir::new(WIRE_GATE_FIXES, self.seed ^ self.next);
        let mut outstanding: HashMap<u64, Exchange> = HashMap::with_capacity(window);
        let mut sent = 0usize;
        let mut last_progress = Instant::now();
        loop {
            while outstanding.len() < window
                && match limit {
                    Limit::Duration(_) => end.is_some_and(|e| Instant::now() < e),
                    Limit::Count(n) => sent < n,
                }
            {
                let draw = self.take();
                let t = Instant::now();
                send(&mut self.writer, &draw)?;
                outstanding.insert(
                    draw.request.id,
                    Exchange {
                        draw,
                        due: t,
                        sent: t,
                        answer: None,
                    },
                );
                sent += 1;
            }
            if outstanding.is_empty() {
                break;
            }
            match self.reader.next() {
                Ok(Some(response)) => {
                    let now = Instant::now();
                    last_progress = now;
                    let Some(mut x) = outstanding.remove(&response.id) else {
                        phase.tally.protocol_errors += 1;
                        continue;
                    };
                    if end.is_none_or(|e| now <= e) && response.status == Status::Ok {
                        phase.ok_in_window += 1;
                        let slice = ((now - start).as_secs_f64() / SLICE.as_secs_f64()) as usize;
                        if let Some(n) = phase.ok_per_slice.get_mut(slice) {
                            *n += 1;
                        }
                    }
                    x.answer = Some((now, response));
                    phase.fold(&x);
                    sample.push(x);
                }
                Ok(None) if last_progress.elapsed() < DRAIN => {}
                Ok(None) => break,
                Err(_) => {
                    phase.tally.protocol_errors += 1;
                    break;
                }
            }
        }
        for x in outstanding.into_values() {
            phase.fold(&x);
        }
        phase.window_s = match limit {
            Limit::Duration(d) => d.as_secs_f64(),
            Limit::Count(_) => start.elapsed().as_secs_f64(),
        };
        phase.exchanges = sample.into_items();
        Ok(phase)
    }

    /// Round trips with one request in flight: `count` requests that
    /// repeat one fix (`cached`, after a first fill) or that bypass the
    /// cache, so every one is measured.
    pub fn round_trips(&mut self, count: usize, cached: bool) -> io::Result<Phase> {
        let mut template = self.take();
        template.request.no_cache = !cached;
        let mut exchanges = Vec::with_capacity(count + 1);
        for i in 0..=count {
            let draw = match (i, cached) {
                (0, _) => template,
                (_, true) => {
                    let mut repeat = template;
                    repeat.request.id = self.take().request.id;
                    repeat
                }
                (_, false) => {
                    let mut fresh = self.take();
                    fresh.request.no_cache = true;
                    fresh
                }
            };
            let t = Instant::now();
            send(&mut self.writer, &draw)?;
            let answer = loop {
                match self.reader.next()? {
                    Some(r) => break Some((Instant::now(), r)),
                    None if t.elapsed() < DRAIN => {}
                    None => break None,
                }
            };
            exchanges.push(Exchange {
                draw,
                due: t,
                sent: t,
                answer,
            });
        }
        // The first exchange only fills the cache for the cached case.
        if cached {
            exchanges.remove(0);
        }
        let mut phase = Phase::from_exchanges(exchanges, 0.0, 0);
        phase.tally.protocol_errors += phase
            .exchanges
            .iter()
            .filter(|x| matches!(&x.answer, Some((_, r)) if r.id != x.draw.request.id))
            .count() as u64;
        Ok(phase)
    }

    /// The wire == direct gate over a seeded subsample of a phase's `Ok`
    /// responses. Returns the number that differ.
    pub fn wire_gate(&self, phase: &Phase) -> u64 {
        let served: Vec<(&Draw, &FixResponse)> = phase
            .exchanges
            .iter()
            .filter_map(|x| match &x.answer {
                Some((_, r)) if r.status == Status::Ok => Some((&x.draw, r)),
                _ => None,
            })
            .collect();
        let mut scratch = MeasureScratch::for_design(self.server.design());
        sample_indices(self.seed, served.len(), WIRE_GATE_FIXES)
            .into_iter()
            .filter(|&i| {
                let (draw, response) = served[i];
                !same_bits(response, &self.stream.direct(&draw.request, &mut scratch))
            })
            .count() as u64
    }
}

/// When a closed loop stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// After this long.
    Duration(Duration),
    /// After this many requests.
    Count(usize),
}

fn connect(addr: SocketAddr) -> io::Result<(TcpStream, FrameReader)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(POLL))?;
    let reader = FrameReader {
        stream: stream.try_clone()?,
        buf: Vec::with_capacity(1 << 16),
    };
    Ok((stream, reader))
}

/// The open loop's reader: collects `n` answers for ids `first..first+n`
/// until all arrive or, once the writer is done, nothing arrives for
/// [`DRAIN`].
fn read_answers(
    reader: &mut FrameReader,
    first: u64,
    n: usize,
    writer_done: &AtomicBool,
) -> (Vec<Option<(Instant, FixResponse)>>, u64) {
    let mut answers: Vec<Option<(Instant, FixResponse)>> = vec![None; n];
    let mut received = 0usize;
    let mut protocol_errors = 0u64;
    let mut last_progress = Instant::now();
    while received < n {
        match reader.next() {
            Ok(Some(response)) => {
                let now = Instant::now();
                last_progress = now;
                match response
                    .id
                    .checked_sub(first)
                    .and_then(|i| answers.get_mut(i as usize))
                {
                    Some(slot @ None) => {
                        *slot = Some((now, response));
                        received += 1;
                    }
                    _ => protocol_errors += 1,
                }
            }
            Ok(None) => {
                if writer_done.load(Ordering::SeqCst) && last_progress.elapsed() >= DRAIN {
                    break;
                }
            }
            Err(_) => {
                protocol_errors += 1;
                break;
            }
        }
    }
    (answers, protocol_errors)
}

/// Adds one `client.request` span per exchange (due → answer) with a
/// `client.write` child (due → write start is the send lag; the child
/// covers the write itself up to the answer's arrival only when
/// answered).
pub fn record_spans(tracer: &mut Tracer, name: &'static str, phase: &Phase) {
    let (Some(first), Some(last)) = (phase.exchanges.first(), phase.exchanges.last()) else {
        return;
    };
    let end = last.answer.as_ref().map_or(last.sent, |(at, _)| *at);
    let root = tracer.record(name, first.due, end, None, None);
    for x in &phase.exchanges {
        let id = Some(x.draw.request.id);
        let done = x.answer.as_ref().map_or(x.sent, |(at, _)| *at);
        let request = tracer.record("client.request", x.due, done, Some(root), id);
        tracer.record("client.send_lag", x.due, x.sent, Some(request), id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_and_hot_phases_serve_good_bit_exact_fixes() {
        let (mut rig, warm) = Rig::setup(StreamKind::Hot, 3, 2).expect("hot rig");
        assert_eq!(warm.tally.sent, crate::inputs::HOT_SET as u64);
        let open = rig
            .open_loop(2000.0, Duration::from_millis(300))
            .expect("open loop");
        let mut tally = warm.tally;
        tally.add(&open.tally);
        tally.mismatched += rig.wire_gate(&warm) + rig.wire_gate(&open);
        assert_eq!(tally.failed(), 0, "{tally:?}");
        assert_eq!(
            open.tally.cache_hits, open.tally.sent,
            "a warmed hot set always hits"
        );

        let (mut rig, _) = Rig::setup(StreamKind::Fresh, 3, 2).expect("fresh rig");
        let closed = rig
            .closed_loop(8, Limit::Duration(Duration::from_millis(200)))
            .expect("closed loop");
        let mut tally = closed.tally;
        tally.mismatched += rig.wire_gate(&closed);
        assert_eq!(tally.failed(), 0, "{tally:?}");
        assert_eq!(tally.cache_hits, 0, "fresh requests never repeat");
        assert!(closed.raw_ok_per_s() > 0.0);
        assert!(closed.ok_per_s(&Sampler::start()) > 0.0);
        assert!(closed.exchanges.len() <= WIRE_GATE_FIXES);

        let cached = rig.round_trips(20, true).expect("cached round trips");
        assert_eq!(cached.tally.cache_hits, 20);
        let fresh = rig.round_trips(5, false).expect("fresh round trips");
        assert_eq!((fresh.tally.ok, fresh.tally.cache_hits), (6, 0));
    }

    #[test]
    fn same_seed_gives_the_same_hit_ratio_and_max_error() {
        let run = |kind, seed| {
            let (mut rig, warm) = Rig::setup(kind, seed, 2).expect("rig");
            let open = rig
                .open_loop(500.0, Duration::from_millis(200))
                .expect("open loop");
            assert_eq!(warm.tally.failed() + open.tally.failed(), 0);
            (
                open.tally.hit_ratio().to_bits(),
                open.max_error_deg.to_bits(),
            )
        };
        for kind in [StreamKind::Fresh, StreamKind::Hot] {
            assert_eq!(run(kind, 21), run(kind, 21), "{kind:?}");
            assert_ne!(run(kind, 21).1, run(kind, 22).1, "{kind:?}");
        }
    }
}
