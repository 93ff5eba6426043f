//! Host-speed normalisation.
//!
//! The benchmark runs on shared virtual CPUs whose speed drifts by up to
//! ±30 % over seconds, independently per vCPU (measured on a 2-vCPU
//! host: one fix took 1.3–2.5 ms from one second to the next, while the
//! ratio of fix time to the reference kernel below stayed within ±5 %).
//! Raw wall-clock figures from two runs minutes apart are therefore not
//! comparable.
//!
//! A sampler thread on each CPU times a fixed reference kernel — floating-point and
//! branch work owned by the benchmark, not the program — for a few
//! microseconds every [`EVERY`]. Every time the benchmark reports is
//! rescaled to the host speed at which the reference takes
//! [`REFERENCE_NS`]: a duration `d` measured while the reference took
//! `r` ns is reported as `d · REFERENCE_NS / r`, a rate as
//! `x · r / REFERENCE_NS`. A change to the program moves the rescaled
//! figures exactly as it moves the raw ones; a change of host speed
//! moves both the figure and the reference and cancels. Raw figures are
//! printed alongside in the stamp line.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sampling period of the reference kernel.
pub const EVERY: Duration = Duration::from_millis(40);
/// Half-width of the window a factor averages over: host speed is taken
/// over `[from − SMOOTH, to + SMOOTH]` (about 12 samples per CPU around a short
/// interval).
pub const SMOOTH: Duration = Duration::from_millis(250);
/// Reference-kernel time (ns per sample) that defines nominal host
/// speed — the median measured on the 2-vCPU Xeon host the benchmark
/// was sized on.
pub const REFERENCE_NS: f64 = 65_000.0;
/// Kernel passes per sample; the fastest pass is kept, so a sample that
/// was preempted part-way does not read as a slow host.
const PASSES: usize = 2;
/// Table rows per pass: the fix's excitation table has 4,096 rows of
/// five `f64`, and the reference walks a table of the same footprint so
/// that cache pressure from other tenants slows both alike.
const ROWS: usize = 4096;

/// One row of the reference table (the layout of a drive sample).
#[derive(Debug, Clone, Copy)]
struct Row {
    h: f64,
    dh: f64,
    i: f64,
    di: f64,
    clip: f64,
}

fn table() -> Vec<Row> {
    (0..ROWS)
        .map(|k| {
            let x = (k as f64 / ROWS as f64 - 0.5) * 6.0;
            Row {
                h: x,
                dh: 1.0 - x.abs() / 3.0,
                i: x * 1e-3,
                di: 0.5,
                clip: f64::from(u8::from(x.abs() > 2.9)),
            }
        })
        .collect()
}

/// The reference kernel: a pickup-like nonlinearity, a comparator-like
/// branch and an accumulator over the table.
fn kernel(rows: &[Row]) -> f64 {
    let mut acc = 0.0;
    let mut state = false;
    for r in rows {
        let c = ((r.h + 0.01) * 1.7).cosh();
        let v = 0.3 * r.dh / (c * c) + r.i * r.di * (1.0 - r.clip);
        if v > 0.02 {
            state = !state;
        }
        acc += if state { v } else { -v };
    }
    acc
}

/// One reference sample: the fastest of [`PASSES`] timed passes, ns.
fn sample(rows: &[Row]) -> f64 {
    (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            black_box(kernel(black_box(rows)));
            t.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// The reference kernel timed on the calling thread, for intervals too
/// short for the samplers to follow: the vCPU's speed changes from one
/// 10-ms stretch to the next.
#[derive(Debug)]
pub struct Reference(Vec<Row>);

impl Reference {
    pub fn new() -> Self {
        Self(table())
    }

    /// One reference sample on this thread, ns.
    pub fn sample(&self) -> f64 {
        sample(&self.0)
    }
}

/// The running sampler: one thread pinned to each CPU the process may
/// use (the vCPUs drift independently, so one unpinned sampler would see
/// whichever it happened to land on). Dropping it stops and joins them.
#[derive(Debug)]
pub struct Sampler {
    stop: Arc<AtomicBool>,
    /// The sampled CPUs (`None`: one unpinned sampler).
    cpus: Vec<Option<usize>>,
    /// Per-CPU sample series, in time order.
    series: Vec<Arc<Mutex<Vec<Sample>>>>,
    threads: Vec<JoinHandle<()>>,
}

impl Sampler {
    /// Starts sampling now.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let cpus = crate::sched::allowed_cpus();
        let mut series = Vec::new();
        let mut threads = Vec::new();
        for &cpu in &cpus {
            let samples = Arc::new(Mutex::new(Vec::with_capacity(1 << 14)));
            let (sample_stop, out) = (Arc::clone(&stop), Arc::clone(&samples));
            let thread = std::thread::Builder::new()
                .name(format!("host-speed-{}", cpu.unwrap_or(0)))
                .spawn(move || {
                    if let Some(cpu) = cpu {
                        crate::sched::pin_current_thread(cpu);
                    }
                    let rows = table();
                    while !sample_stop.load(Ordering::SeqCst) {
                        let at = Instant::now();
                        let ns = sample(&rows);
                        let steal = cpu.and_then(steal_ticks);
                        out.lock()
                            .expect("sampler lock poisoned")
                            .push(Sample { at, ns, steal });
                        std::thread::sleep(EVERY);
                    }
                })
                .expect("spawn a host-speed sampler");
            series.push(samples);
            threads.push(thread);
        }
        Self {
            stop,
            cpus,
            series,
            threads,
        }
    }

    /// Host slowness around `[from, to]`, 1 at nominal speed and 1.3 on a
    /// host 30 % slower: per CPU, the mean reference time of the samples
    /// in `[from − SMOOTH, to + SMOOTH]` (or of the nearest one) over
    /// [`REFERENCE_NS`]; across CPUs, the harmonic mean — the slowness
    /// of the CPUs' combined capacity.
    pub fn factor(&self, from: Instant, to: Instant) -> f64 {
        let from = from.checked_sub(SMOOTH).unwrap_or(from);
        let to = to + SMOOTH;
        let speeds: Vec<f64> = self
            .series
            .iter()
            .map(|s| 1.0 / factor(&s.lock().expect("sampler lock poisoned"), from, to))
            .collect();
        if speeds.is_empty() {
            return 1.0;
        }
        speeds.len() as f64 / speeds.iter().sum::<f64>()
    }

    /// Slowness of one CPU around `[from, to]` (see [`Sampler::factor`]);
    /// the all-CPU factor when `cpu` was not sampled.
    pub fn factor_on(&self, cpu: Option<usize>, from: Instant, to: Instant) -> f64 {
        let Some(i) = cpu.and_then(|c| self.cpus.iter().position(|&s| s == Some(c))) else {
            return self.factor(from, to);
        };
        let samples = self.series[i].lock().expect("sampler lock poisoned");
        factor(
            &samples,
            from.checked_sub(SMOOTH).unwrap_or(from),
            to + SMOOTH,
        )
    }

    /// Share of wall time the sampled CPUs were stolen by the hypervisor
    /// since sampling started.
    pub fn stolen_share(&self) -> f64 {
        let shares: Vec<f64> = self
            .series
            .iter()
            .filter_map(|s| {
                let s = s.lock().expect("sampler lock poisoned");
                let (a, b) = (s.first()?, s.last()?);
                let ticks = b.steal?.saturating_sub(a.steal?) as f64;
                let secs = (b.at - a.at).as_secs_f64();
                (secs > 0.0).then(|| ticks * 0.01 / secs)
            })
            .collect();
        shares.iter().sum::<f64>() / shares.len().max(1) as f64
    }

    /// CPUs sampled, samples taken so far and their median reference
    /// time, ns.
    pub fn summary(&self) -> (usize, usize, f64) {
        let ns: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| {
                let s = s.lock().expect("sampler lock poisoned");
                s.iter().map(|x| x.ns).collect::<Vec<_>>()
            })
            .collect();
        (self.series.len(), ns.len(), crate::stats::median(&ns))
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// One reference sample.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// When it was taken.
    at: Instant,
    /// Reference-kernel time, ns.
    ns: f64,
    /// The sampled CPU's cumulative steal time (`/proc/stat`, in clock
    /// ticks of 10 ms), when readable.
    steal: Option<u64>,
}

/// Cumulative steal ticks of `cpu` from `/proc/stat`: time the
/// hypervisor ran something else while this vCPU had work, which the
/// reference kernel (fastest pass of a few) does not see.
fn steal_ticks(cpu: usize) -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let label = format!("cpu{cpu} ");
    let line = stat.lines().find(|l| l.starts_with(&label))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Slowness of one CPU over `[from, to]` against [`REFERENCE_NS`]: the
/// mean reference time of the samples inside (or of the nearer neighbour
/// when none falls inside), divided by the share of wall time the CPU
/// was not stolen.
fn factor(samples: &[Sample], from: Instant, to: Instant) -> f64 {
    if samples.is_empty() {
        return 1.0;
    }
    let lo = samples.partition_point(|x| x.at < from);
    let hi = samples.partition_point(|x| x.at <= to);
    let inside = &samples[lo..hi];
    let ns = if inside.is_empty() {
        let before = lo.checked_sub(1).map(|i| samples[i]);
        let after = samples.get(lo).copied();
        match (before, after) {
            (Some(b), Some(a)) if from - b.at <= a.at - to => b.ns,
            (_, Some(a)) => a.ns,
            (Some(b), None) => b.ns,
            (None, None) => REFERENCE_NS,
        }
    } else {
        inside.iter().map(|x| x.ns).sum::<f64>() / inside.len() as f64
    };
    let stolen = match (inside.first(), inside.last()) {
        (Some(a), Some(b)) if b.at > a.at => match (a.steal, b.steal) {
            (Some(s0), Some(s1)) => {
                let ticks = s1.saturating_sub(s0) as f64;
                (ticks * 0.01 / (b.at - a.at).as_secs_f64()).clamp(0.0, 0.9)
            }
            _ => 0.0,
        },
        _ => 0.0,
    };
    ns / REFERENCE_NS / (1.0 - stolen)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_averages_samples_and_discounts_steal() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let s = |ms: u64, r: f64, steal: u64| Sample {
            at: at(ms),
            ns: r * REFERENCE_NS,
            steal: Some(steal),
        };
        let samples = [s(0, 1.0, 0), s(1000, 2.0, 0), s(2000, 4.0, 50)];
        assert_eq!(factor(&samples, at(500), at(2500)), 3.0 / 0.5);
        assert_eq!(factor(&samples, at(900), at(1100)), 2.0);
        assert_eq!(factor(&samples, at(1700), at(1800)), 4.0);
        assert_eq!(factor(&samples, at(3000), at(4000)), 4.0);
        assert_eq!(factor(&[], at(0), at(1)), 1.0);
    }

    #[test]
    fn sampler_samples_until_dropped() {
        let sampler = Sampler::start();
        std::thread::sleep(EVERY * 3);
        let (cpus, n, median_ns) = sampler.summary();
        assert!(cpus >= 1 && n >= cpus);
        assert!(median_ns > 0.0);
        let t = Instant::now();
        assert!(sampler.factor(t, t) > 0.0);
        drop(sampler);
    }
}
