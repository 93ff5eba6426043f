//! The event-driven measurement kernel for noiseless fixes.
//!
//! The pulse-position detector turns the field into one digital signal
//! whose information lies entirely in its edge times, so most of the
//! per-sample loop in [`FrontEnd::measure_into`] recomputes a detector
//! output that cannot change. This kernel produces the same measurement
//! from far fewer pickup evaluations, in three exact steps:
//!
//! 1. **Period replication.** The drive is periodic and, without noise,
//!    a period's detector outputs are a pure function of the detector
//!    state at its start. The kernel simulates one period at a time and
//!    records its output runs; as soon as the whole
//!    [`PulsePositionDetector`] state at a period's end equals (`==`) its
//!    state at that period's start, every later period repeats the
//!    recorded one exactly (including the edge across the period
//!    boundary, since the output it starts from is the same), so the
//!    record is replayed for the rest of the run. If the state never
//!    repeats, the kernel keeps simulating.
//! 2. **Quiet-block skipping.** A comparator can only change state when
//!    its input `±v + offset` crosses `threshold ± hysteresis/2`. Over
//!    one [`DriveBlock`] the drive field lies in `[h_lo, h_hi]` and the
//!    slew below `max_dh_dt`, both independent of the external field.
//!    With `L = threshold − hysteresis/2` (as the comparator computes
//!    it) the block is *quiet* for a field `h_ext` when
//!    `N·A·µ_max·max_dh_dt + |offset| < L`, where `µ_max` is `mu_diff`
//!    at the point of the branch-shifted range nearest zero. In a quiet
//!    block both comparators read below their release level on every
//!    sample: the first sample may still release a comparator and latch
//!    an output edge, so the kernel steps it exactly; after it, both
//!    comparators and their edge memories are low and the output is
//!    latched, so the rest of the block is one constant-output run and
//!    leaves the detector state untouched.
//! 3. **Run-length output.** The kernel reports `(start, len, level)`
//!    [`Run`]s instead of samples, so a clocked consumer (the up/down
//!    counter) can take each run in one step.
//!
//! ## Why the quiet test is exact in floating point
//!
//! The per-sample path evaluates `h = h_drive + h_ext`, then `mu_diff`
//! at the branch argument `a = h ∓ H_c` (sign by sweep direction), then
//! `v = −N·A·µ·dh_dt`. Two facts carry a bound over a block to every
//! sample in it, for the rounded values the loop actually computes:
//!
//! * **Rounding is monotone.** IEEE round-to-nearest addition is
//!   nondecreasing in each operand, so for every sample with
//!   `h_lo ≤ h_drive ≤ h_hi` the rounded argument lies in
//!   `[(h_lo + h_ext) − H_c, (h_hi + h_ext) + H_c]`, computed with the
//!   same rounded operations. If that interval lies entirely at or
//!   beyond a radius `r` from zero, so does every sample's argument.
//!   Likewise `|v|` is nondecreasing in `µ` and in `|dh_dt|`.
//! * **sech² decreases in |a|.** `mu_diff = (B_sat/H_K)·sech²(a/H_K) + µ₀`
//!   falls as `|a|` grows, so `µ_max` bounds `µ` at every sample.
//!   [`CoreModel::mu_diff_radius`](fluxcomp_fluxgate::core_model::CoreModel::mu_diff_radius)
//!   inverts it with a relative margin at each step that dwarfs the few
//!   ulps of error in `cosh`, `powi`, the divisions and `acosh`.
//!
//! The voltage budget itself keeps a margin of 10⁻⁶·L and the kernel
//! compares against the very `L` the comparator computes, so rounding
//! `±v + offset` cannot cross it either. The per-block quiet radius is
//! built once per front-end, in `FrontEnd::new`; a fix then costs two
//! additions and two comparisons per block to classify it. A NaN
//! anywhere in the chain makes every comparison false, so the block is
//! simply stepped sample by sample.
//!
//! ## Relation to the per-sample oracle
//!
//! [`FrontEnd::measure_into`] stays the reference: the kernel only runs
//! when `pickup_noise_rms == 0.0` (validation rejects negative or
//! non-finite noise, so this is exactly "noiseless"), and faulted and
//! traced fixes never reach it. Every output — duty, high samples,
//! pulse edges, clipping and the detector bitstream as runs — matches
//! the oracle bit for bit; the differential property tests in the
//! compass crate enforce this across configurations.

use crate::detector::{DetectorConfig, PulsePositionDetector};
use crate::excitation::{DriveBlock, ExcitationTable, BLOCK_LEN};
use crate::frontend::{FrontEnd, MeasureResult};
use fluxcomp_fluxgate::transducer::Fluxgate;
use fluxcomp_units::magnetics::AmperePerMeter;

/// Relative margin on the comparator voltage budget.
const MARGIN: f64 = 1e-6;

/// A stretch of constant detector output in the measurement window:
/// samples `start .. start + len` (measurement-window indices, as
/// [`FrontEnd::measure_into`] numbers them) all read `level`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// First measurement-window sample of the run.
    pub start: usize,
    /// Number of samples, at least one.
    pub len: usize,
    /// The detector output over the run.
    pub level: bool,
}

/// What [`FrontEnd::measure_runs`] returns: the measurement plus how
/// much analogue work it took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunMeasurement {
    /// The measurement, bit-identical to [`FrontEnd::measure_into`]'s.
    pub result: MeasureResult,
    /// Grid samples whose pickup EMF was actually evaluated. Equal to
    /// the whole grid (settle + measure periods) on the per-sample path.
    pub evaluated_samples: u64,
}

/// The quiet radius of every block of `table` for `sensor` read by a
/// detector configured as `detector`: block `b` is quiet for a field
/// whose branch-argument range (module docs) lies at least `radius[b]`
/// from zero. `None` marks a block that is never quiet.
pub(crate) fn build_quiet_radii(
    table: &ExcitationTable,
    sensor: &Fluxgate,
    detector: &DetectorConfig,
) -> Vec<Option<f64>> {
    // The comparator's release level, formed exactly as it forms it.
    let limit = detector.threshold.value() - detector.hysteresis.value() / 2.0;
    let budget = limit - detector.offset.value().abs() - MARGIN * limit.abs();
    let params = sensor.params();
    // |−N·A| as the pickup EMF rounds it.
    let gain = (-(params.turns_pickup as f64) * params.core_area).abs();
    table
        .blocks()
        .iter()
        .map(|block| {
            if budget.is_nan() || budget <= 0.0 {
                None
            } else if block.max_dh_dt == 0.0 {
                // Zero slew: the EMF is exactly zero.
                Some(f64::NEG_INFINITY)
            } else {
                let mu_cap = budget / (gain * block.max_dh_dt) * (1.0 - MARGIN);
                params.core.mu_diff_radius(mu_cap)
            }
        })
        .collect()
}

/// Whether `block` is quiet for `h_ext` given its radius: every branch
/// argument the block can produce lies at least `radius` from zero.
#[inline]
fn is_quiet(block: &DriveBlock, radius: Option<f64>, h_ext: f64, hc: f64) -> bool {
    let Some(r) = radius else {
        return false;
    };
    let lo = (block.h_lo.value() + h_ext) - hc;
    let hi = (block.h_hi.value() + h_ext) + hc;
    lo >= r || hi <= -r
}

/// Coalesces adjacent same-level stretches into maximal [`Run`]s and
/// hands each finished one to the consumer.
pub(crate) struct RunSink<F: FnMut(Run)> {
    pending: Option<Run>,
    on_run: F,
}

impl<F: FnMut(Run)> RunSink<F> {
    pub(crate) fn new(on_run: F) -> Self {
        Self {
            pending: None,
            on_run,
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, start: usize, len: usize, level: bool) {
        match &mut self.pending {
            Some(run) if run.level == level => run.len += len,
            _ => {
                if let Some(done) = self.pending.replace(Run { start, len, level }) {
                    (self.on_run)(done);
                }
            }
        }
    }

    pub(crate) fn finish(mut self) {
        if let Some(done) = self.pending.take() {
            (self.on_run)(done);
        }
    }
}

/// Appends a stretch to a period record, merging with the previous one
/// when the level is unchanged. Offsets are period-relative.
#[inline]
fn record(period: &mut Vec<Run>, start: usize, len: usize, level: bool) {
    match period.last_mut() {
        Some(run) if run.level == level => run.len += len,
        _ => period.push(Run { start, len, level }),
    }
}

impl FrontEnd {
    /// The event-driven kernel (module docs). The caller guarantees the
    /// channel is noiseless.
    pub(crate) fn measure_events(
        &self,
        h_ext: AmperePerMeter,
        detector: &mut PulsePositionDetector,
        period: &mut Vec<Run>,
        on_run: impl FnMut(Run),
    ) -> RunMeasurement {
        let cfg = self.config();
        let table = self.excitation_table();
        let drive = table.samples();
        let n = table.len();
        let total = cfg.settle_periods + cfg.measure_periods;
        let hc = self.sensor().params().core.coercive_field().value();
        let h = h_ext.value();
        debug_assert_eq!(
            detector.config(),
            &cfg.detector,
            "scratch detector configured for a different channel"
        );
        detector.reset();

        let mut sink = RunSink::new(on_run);
        let mut evaluated = 0u64;
        let mut pulse_edges = 0u64;
        let mut high_samples = 0u64;
        let mut prev_out = false;
        let mut p = 0;
        while p < total {
            let start_state = detector.clone();
            period.clear();
            let mut edges = 0u64;
            let mut step = |j: usize, detector: &mut PulsePositionDetector| {
                let s = &drive[j];
                let out = detector.step(self.sensor().pickup_emf(s.h_drive + h_ext, s.dh_dt));
                edges += u64::from(out != prev_out);
                prev_out = out;
                out
            };
            for (b, (block, &radius)) in table.blocks().iter().zip(self.quiet_radii()).enumerate() {
                let first = b * BLOCK_LEN;
                let end = (first + BLOCK_LEN).min(n);
                if is_quiet(block, radius, h, hc) {
                    let out = step(first, detector);
                    record(period, first, end - first, out);
                    evaluated += 1;
                } else {
                    for j in first..end {
                        let out = step(j, detector);
                        record(period, j, 1, out);
                    }
                    evaluated += (end - first) as u64;
                }
            }
            let high: u64 = period
                .iter()
                .filter(|r| r.level)
                .map(|r| r.len as u64)
                .sum();
            // Periods `p..repeat_until` all produce this record: just
            // `p` itself, or every remaining period once the state at
            // its end equals the state at its start.
            let repeat_until = if *detector == start_state {
                total
            } else {
                p + 1
            };
            for q in p..repeat_until {
                pulse_edges += edges;
                if q >= cfg.settle_periods {
                    high_samples += high;
                    let base = (q - cfg.settle_periods) * n;
                    for run in period.iter() {
                        sink.push(base + run.start, run.len, run.level);
                    }
                }
            }
            p = repeat_until;
        }
        sink.finish();

        let measure_samples = (cfg.measure_periods * n) as u64;
        self.finish_measure(high_samples, measure_samples, pulse_edges, evaluated)
    }
}
