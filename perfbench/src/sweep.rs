//! The `sweep` workload: an offline accuracy sweep through `exec`, with
//! no server — `fluxgate`/`afe`/`rtl`/`compass`/`exec` do all the work.

use crate::host::Sampler;
use crate::inputs::{heading_error, same_reading, sample_indices, sweep_heading, SWEEP_BATCH};
use crate::stats::{quantile, Reservoir};
use crate::trace::Tracer;
use fluxcomp_compass::{CompassDesign, MeasureScratch, Reading};
use fluxcomp_exec::{par_map_range_scratch, ExecPolicy};
use fluxcomp_units::angle::Degrees;
use std::time::{Duration, Instant};

/// Fixes per run checked against the traced (diagnostic) tier.
const TRACED_GATE_FIXES: usize = 8;
/// Per-fix latencies kept for the percentiles (a seeded uniform sample
/// once a run completes more fixes than this).
const LATENCY_SAMPLES: usize = 4096;

/// One fix of the sweep, as the worker produced it.
#[derive(Debug, Clone)]
pub struct Fix {
    /// Global fix index (the seed stream index).
    pub index: u64,
    /// True heading, degrees.
    pub truth: f64,
    /// The fast-path result.
    pub reading: Reading,
    /// The CPU the fix started on.
    pub cpu: Option<usize>,
    /// When the worker started and finished the fix.
    pub start: Instant,
    /// See `start`.
    pub end: Instant,
}

/// What a timed sweep phase measured. Memory is bounded: fixes are
/// folded into these summaries batch by batch.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Fixes per second of each batch, at nominal host speed.
    pub batch_rates: Vec<f64>,
    /// The same, as measured.
    pub raw_batch_rates: Vec<f64>,
    /// Fixes completed.
    pub fixes: u64,
    /// `(fix index, worker time in ms at nominal host speed)` samples.
    pub latencies: Reservoir<(u64, f64)>,
    /// Worst `|heading − truth|` over every fix, degrees.
    pub max_error_deg: f64,
    /// One seeded fix per batch, for the fast == traced gate.
    pub gate: Reservoir<Fix>,
}

impl SweepOutcome {
    /// Fixes per second at nominal host speed: the upper quartile over
    /// batches (a stretch the host's neighbours stole does not move it).
    pub fn fixes_per_s(&self) -> f64 {
        quantile(&self.batch_rates, 0.75)
    }

    /// The sampled per-fix worker times, ms, in fix order.
    pub fn latencies_ms(&self) -> Vec<f64> {
        let mut sample = self.latencies.items().to_vec();
        sample.sort_unstable_by_key(|&(index, _)| index);
        sample.into_iter().map(|(_, ms)| ms).collect()
    }
}

/// Runs whole sweep batches of [`SWEEP_BATCH`] seeded headings on
/// `threads` workers — the calls `sweep_headings` makes — until
/// `duration` has passed. Batch `b` continues the seed stream at
/// `first_index + b·SWEEP_BATCH`. With a tracer, every fix gets a span
/// under its batch's span.
pub fn run(
    design: &CompassDesign,
    seed: u64,
    first_index: u64,
    threads: usize,
    duration: Duration,
    host: &Sampler,
    mut tracer: Option<&mut Tracer>,
) -> SweepOutcome {
    let policy = ExecPolicy::parallel(threads);
    let noise_seed = design.config().frontend.noise_seed;
    let mut out = SweepOutcome {
        batch_rates: Vec::new(),
        raw_batch_rates: Vec::new(),
        fixes: 0,
        latencies: Reservoir::new(LATENCY_SAMPLES, seed),
        max_error_deg: 0.0,
        gate: Reservoir::new(TRACED_GATE_FIXES, seed),
    };
    let start = Instant::now();
    let mut next = first_index;
    while out.batch_rates.is_empty() || start.elapsed() < duration {
        let base = next;
        let t0 = Instant::now();
        let batch = par_map_range_scratch(
            &policy,
            SWEEP_BATCH,
            || MeasureScratch::for_design(design),
            |scratch, i| {
                let index = base + i as u64;
                let truth = sweep_heading(seed, index);
                let cpu = crate::sched::current_cpu();
                let start = Instant::now();
                let reading =
                    design.measure_heading_scratch(Degrees::new(truth), noise_seed, scratch);
                Fix {
                    index,
                    truth,
                    reading,
                    cpu,
                    start,
                    end: Instant::now(),
                }
            },
        );
        let t1 = Instant::now();
        let slowness = host.factor(t0, t1);
        let rate = SWEEP_BATCH as f64 / (t1 - t0).as_secs_f64();
        out.raw_batch_rates.push(rate);
        out.batch_rates.push(rate * slowness);
        if let Some(t) = tracer.as_deref_mut() {
            let parent = t.record("exec.sweep_batch", t0, t1, None, None);
            for fix in &batch {
                t.record(
                    "compass.measure_heading_scratch",
                    fix.start,
                    fix.end,
                    Some(parent),
                    Some(fix.index),
                );
            }
        }
        // A fix runs on one CPU: its time is rescaled by that CPU's speed.
        let mut per_cpu: Vec<(Option<usize>, f64)> = Vec::new();
        for fix in &batch {
            let cpu_slowness = match per_cpu.iter().find(|(c, _)| *c == fix.cpu) {
                Some(&(_, f)) => f,
                None => {
                    let f = host.factor_on(fix.cpu, t0, t1);
                    per_cpu.push((fix.cpu, f));
                    f
                }
            };
            out.latencies.push((
                fix.index,
                (fix.end - fix.start).as_secs_f64() * 1e3 / cpu_slowness,
            ));
            out.max_error_deg = out
                .max_error_deg
                .max(heading_error(fix.reading.heading.value(), fix.truth));
        }
        let pick = sample_indices(seed ^ base, batch.len(), 1)[0];
        out.gate.push(batch[pick].clone());
        out.fixes += batch.len() as u64;
        next += SWEEP_BATCH as u64;
    }
    out
}

/// The fast == traced gate: the seeded subsample of the sweep's fixes,
/// replayed on the diagnostic tier, must agree bit for bit. Returns the
/// number of mismatching fixes.
pub fn traced_gate(design: &CompassDesign, outcome: &SweepOutcome) -> u64 {
    let noise_seed = design.config().frontend.noise_seed;
    outcome
        .gate
        .items()
        .iter()
        .filter(|fix| {
            let traced = design.measure_heading_traced(Degrees::new(fix.truth), noise_seed);
            !same_reading(&traced, &fix.reading)
        })
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluxcomp_compass::CompassConfig;

    #[test]
    fn same_seed_gives_the_same_max_error_and_gates_pass() {
        let design = CompassDesign::new(CompassConfig::paper_design()).expect("paper design");
        let host = Sampler::start();
        let a = run(&design, 11, 0, 2, Duration::ZERO, &host, None);
        let b = run(&design, 11, 0, 1, Duration::ZERO, &host, None);
        assert_eq!(a.fixes, SWEEP_BATCH as u64);
        assert_eq!(a.max_error_deg.to_bits(), b.max_error_deg.to_bits());
        assert_eq!(a.gate.items()[0].index, b.gate.items()[0].index);
        assert!(same_reading(
            &a.gate.items()[0].reading,
            &b.gate.items()[0].reading
        ));
        assert_eq!(traced_gate(&design, &a), 0);
        let c = run(&design, 12, 0, 2, Duration::ZERO, &host, None);
        assert_ne!(a.max_error_deg.to_bits(), c.max_error_deg.to_bits());
        assert_ne!(
            a.gate.items()[0].truth.to_bits(),
            c.gate.items()[0].truth.to_bits()
        );
    }
}
