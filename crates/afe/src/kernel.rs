//! The event-driven measurement kernel for noiseless fixes.
//!
//! The pulse-position detector turns the field into one digital signal
//! whose information lies entirely in its edge times, so most of the
//! per-sample loop in [`FrontEnd::measure_into`] recomputes a detector
//! output that cannot change. This kernel produces the same measurement
//! from far fewer pickup evaluations, in three exact steps:
//!
//! 1. **Period convergence.** The drive is periodic and, without noise,
//!    the outputs of a [`DriveBlock`] are a pure function of the
//!    detector's dynamic state at its start (two comparators, their two
//!    edge memories and the latched output), the block index and the
//!    external field. The kernel simulates one period at a time and
//!    records, at each block start, that state and the output run the
//!    block begins in. When period `p` reaches block `b` in the state
//!    period `p − 1` had at block `b`, the rest of period `p` is period
//!    `p − 1`'s from block `b` on, so its runs are spliced in without
//!    stepping (a period's pulse edges follow from its maximal runs and
//!    the output it started with). Period `p` then ends where period
//!    `p − 1` ended, which is where `p` started, so every later period
//!    repeats it exactly (including the edge across the period boundary,
//!    since the output it starts from is the same) and the record is
//!    replayed for the rest of the run. If no block's state recurs, the
//!    kernel keeps simulating.
//! 2. **Hold blocks.** Before each sample it would step, the kernel asks
//!    whether the rest of the block can change the detector; once the
//!    answer is no, the rest of the block is one constant-output run and
//!    is not evaluated. A comparator sees `±v + offset`; it sets above
//!    `S = threshold + hysteresis/2` and releases below
//!    `R = threshold − hysteresis/2` (both formed as the comparator forms
//!    them), and the output and edge memories only move when a
//!    comparator does. The rest of the block *holds* in two cases:
//!    * **both comparators low** and `|v| + |offset| ≤ S` on every
//!      sample: neither can set;
//!    * **only the comparator of the block's polarity high** and
//!      `|v| − |offset| ≥ max(R, −S)` on every sample: it cannot release
//!      and the other cannot set. The polarity is fixed because `dh_dt`
//!      has one strict sign over the block ([`DriveBlock::slew_sign`]),
//!      so `v = −N·A·µ·dh_dt` has the opposite one.
//!
//!    Over one block the drive field lies in `[h_lo, h_hi]` and the slew
//!    magnitude in `[min_dh_dt, max_dh_dt]`, all independent of the
//!    external field. The first case needs `N·A·µ·max_dh_dt` at or below
//!    a budget, i.e. an upper bound on `µ`, which holds on branch
//!    arguments at least a radius away from the permeability peak; the
//!    second needs `N·A·µ·min_dh_dt` at or above a floor, i.e. a lower
//!    bound on `µ`, which holds on branch arguments within a radius of
//!    the peak. The bounds cover the whole block, so they cover whatever
//!    is left of it; the state they are checked against is the exact
//!    state after the samples already stepped. A block that holds from
//!    its start costs no evaluation at all, and one whose comparator
//!    releases early in the block (a pulse's trailing edge) costs only
//!    the samples up to the release.
//! 3. **Run-length output.** The kernel reports `(start, len, level)`
//!    [`Run`]s instead of samples, so a clocked consumer (the up/down
//!    counter) can take each run in one step.
//!
//! ## Why the hold test is exact in floating point
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
//!   beyond a radius `r` from zero, or entirely within it, so does every
//!   sample's argument. Likewise `|v|` is nondecreasing in `µ` and in
//!   `|dh_dt|`, and the comparator's `±v + offset` is nondecreasing in
//!   `v`, so a bound on the exact `|v|` against `S` or `R` carries to the
//!   rounded comparator input.
//! * **sech² decreases in |a|.** `mu_diff = (B_sat/H_K)·sech²(a/H_K) + µ₀`
//!   falls as `|a|` grows. [`CoreModel::mu_diff_radius`] inverts it for
//!   the upper bound (outside the radius, `µ ≤ cap`) and
//!   [`CoreModel::mu_diff_floor_radius`] for the lower one (inside it,
//!   `µ ≥ floor`), each with a relative margin of 10⁻⁶ at every step,
//!   applied in the direction that shrinks the set of qualifying
//!   arguments; the margin dwarfs the few ulps of error in `cosh`,
//!   `powi`, the divisions and `acosh`.
//!
//! The voltage budget and floor keep their own margin of 10⁻⁶ of their
//! size, and the µ bounds derived from them another, so rounding the
//! products and sums cannot cross `S` or `R` either. The per-block hold
//! radii are built once per front-end, in `FrontEnd::new`; a fix then
//! costs two additions and two comparisons per block to classify it. A
//! NaN anywhere in the chain makes every comparison false, so the block
//! is simply stepped sample by sample.
//!
//! Period convergence is exact without any floating-point argument: the
//! recorded state is the detector's whole dynamic state (its
//! configuration never changes), and two runs of the same block from the
//! same state evaluate the same pickup values in the same order.
//!
//! [`CoreModel::mu_diff_radius`]: fluxcomp_fluxgate::core_model::CoreModel::mu_diff_radius
//! [`CoreModel::mu_diff_floor_radius`]: fluxcomp_fluxgate::core_model::CoreModel::mu_diff_floor_radius
//!
//! ## Relation to the per-sample oracle
//!
//! [`FrontEnd::measure_into`] stays the reference: the kernel only runs
//! when `pickup_noise_rms == 0.0` (validation rejects negative or
//! non-finite noise, so this is exactly "noiseless"), and faulted and
//! traced fixes never reach it. Every output — duty, high samples,
//! pulse edges, clipping, the detector bitstream as runs and the
//! detector's final state — matches the oracle bit for bit; the
//! differential property tests in the compass crate enforce this across
//! configurations.

use crate::detector::{
    DetectorConfig, PulsePositionDetector, COMPARATOR_BITS, NEGATIVE_HIGH, POSITIVE_HIGH,
};
use crate::excitation::{DriveBlock, ExcitationTable, BLOCK_LEN};
use crate::frontend::{FrontEnd, MeasureResult};
use fluxcomp_fluxgate::transducer::Fluxgate;
use fluxcomp_units::magnetics::AmperePerMeter;

/// Relative margin on the comparator voltage budget and floor.
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

/// Reusable buffers of the event-driven kernel: the output runs and
/// block-start marks of the period being simulated and of the one
/// before it. They start empty ([`Default`]) and grow on first use;
/// [`FrontEnd::measure_runs`] clears them on entry, so one scratch can
/// serve any number of fixes without allocating once it has grown to a
/// period's size.
#[derive(Debug, Clone, Default)]
pub struct KernelScratch {
    runs: Vec<Run>,
    marks: Vec<BlockMark>,
    prev_runs: Vec<Run>,
    prev_marks: Vec<BlockMark>,
}

/// Where a simulated period stood when one of its blocks began.
#[derive(Debug, Clone, Copy)]
struct BlockMark {
    /// [`PulsePositionDetector::dynamic_state`] at the block's start.
    state: u8,
    /// Runs the period had recorded before the block.
    run: usize,
}

/// When the rest of one block cannot change the detector (module docs,
/// step 2).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockHold {
    /// Both comparators low: the rest of the block holds for a field
    /// whose branch-argument range lies at least this far from zero.
    low: Option<f64>,
    /// The comparator bits of the block's polarity: only the comparator
    /// its pickup pulse drives (and that comparator's edge memory) high.
    high_bits: u8,
    /// With `high_bits`: the rest of the block holds for a field whose
    /// branch-argument range lies within this radius of zero.
    high: Option<f64>,
}

impl BlockHold {
    /// Whether the rest of `block` holds for `h_ext` given the detector's
    /// dynamic `state` before the next sample.
    #[inline]
    fn holds(&self, block: &DriveBlock, state: u8, h_ext: f64, hc: f64) -> bool {
        let lo = (block.h_lo.value() + h_ext) - hc;
        let hi = (block.h_hi.value() + h_ext) + hc;
        let comparators = state & COMPARATOR_BITS;
        if comparators == 0 {
            self.low.is_some_and(|r| lo >= r || hi <= -r)
        } else if comparators == self.high_bits {
            self.high.is_some_and(|r| lo >= -r && hi <= r)
        } else {
            false
        }
    }
}

/// The hold radii of every block of `table` for `sensor` read by a
/// detector configured as `detector`.
pub(crate) fn build_hold_radii(
    table: &ExcitationTable,
    sensor: &Fluxgate,
    detector: &DetectorConfig,
) -> Vec<BlockHold> {
    // The comparator's set and release levels, formed exactly as it
    // forms them.
    let half = detector.hysteresis / 2.0;
    let set = (detector.threshold + half).value();
    let release = (detector.threshold - half).value();
    let offset = detector.offset.value().abs();
    // Both low: |v| ≤ budget keeps every ±v + offset at or below `set`.
    let budget = set - offset - MARGIN * set.abs();
    // One high: |v| ≥ floor keeps its input at or above `release` and the
    // other comparator's at or below `set`.
    let need = release.max(-set) + offset;
    let floor = need + MARGIN * need.abs();
    let params = sensor.params();
    let core = &params.core;
    // |−N·A| as the pickup EMF rounds it.
    let gain = (-(params.turns_pickup as f64) * params.core_area).abs();
    table
        .blocks()
        .iter()
        .map(|block| {
            let low = if budget.is_nan() || budget <= 0.0 {
                None
            } else if block.max_dh_dt == 0.0 {
                // Zero slew: the EMF is exactly zero.
                Some(f64::NEG_INFINITY)
            } else {
                core.mu_diff_radius(budget / (gain * block.max_dh_dt) * (1.0 - MARGIN))
            };
            let high = if block.slew_sign == 0 {
                None
            } else if floor <= 0.0 {
                // Any |v| keeps the high comparator high and the other low.
                Some(f64::INFINITY)
            } else {
                core.mu_diff_floor_radius(floor / (gain * block.min_dh_dt) * (1.0 + MARGIN))
            };
            BlockHold {
                low,
                // A rising drive gives a negative pulse, read by the
                // negative comparator.
                high_bits: if block.slew_sign > 0 {
                    NEGATIVE_HIGH
                } else {
                    POSITIVE_HIGH
                },
                high,
            }
        })
        .collect()
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

/// Appends to `runs` the part of a previous period's record `prev` from
/// sample `first` on, where `mark` is the number of runs `prev` had
/// before sample `first`.
fn splice(runs: &mut Vec<Run>, prev: &[Run], mark: usize, first: usize) {
    // Sample `first` either opened run `mark` or extended the one before.
    let mark = match prev.get(mark) {
        Some(run) if run.start == first => mark,
        _ => mark - 1,
    };
    let head = prev[mark];
    record(runs, first, head.start + head.len - first, head.level);
    for run in &prev[mark + 1..] {
        record(runs, run.start, run.len, run.level);
    }
}

impl FrontEnd {
    /// The event-driven kernel (module docs). The caller guarantees the
    /// channel is noiseless.
    pub(crate) fn measure_events(
        &self,
        h_ext: AmperePerMeter,
        detector: &mut PulsePositionDetector,
        scratch: &mut KernelScratch,
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
        let KernelScratch {
            runs,
            marks,
            prev_runs,
            prev_marks,
        } = scratch;
        // No period has been simulated yet in this fix.
        prev_marks.clear();

        let mut sink = RunSink::new(on_run);
        let mut evaluated = 0u64;
        let mut pulse_edges = 0u64;
        let mut high_samples = 0u64;
        let mut p = 0;
        while p < total {
            let start_state = detector.clone();
            runs.clear();
            marks.clear();
            let mut converged = false;
            for (b, (block, hold)) in table.blocks().iter().zip(self.block_holds()).enumerate() {
                let first = b * BLOCK_LEN;
                let end = (first + BLOCK_LEN).min(n);
                let state = detector.dynamic_state();
                if let Some(mark) = prev_marks.get(b).filter(|mark| mark.state == state) {
                    // The rest of this period is the previous one's.
                    splice(runs, prev_runs, mark.run, first);
                    converged = true;
                    break;
                }
                marks.push(BlockMark {
                    state,
                    run: runs.len(),
                });
                let mut j = first;
                while j < end {
                    if hold.holds(block, detector.dynamic_state(), h, hc) {
                        record(runs, j, end - j, detector.output());
                        break;
                    }
                    let s = &drive[j];
                    let out = detector.step(self.sensor().pickup_emf(s.h_drive + h_ext, s.dh_dt));
                    record(runs, j, 1, out);
                    j += 1;
                }
                evaluated += (j - first) as u64;
            }
            // The runs are maximal, so the output changes between every
            // two of them, and at the first one if it differs from the
            // output the period started with.
            let edges = (runs.len() - 1) as u64 + u64::from(runs[0].level != start_state.output());
            let high: u64 = runs.iter().filter(|r| r.level).map(|r| r.len as u64).sum();
            // Periods `p..repeat_until` all produce this record: just `p`
            // itself, or every remaining period once it has converged.
            let repeat_until = if converged { total } else { p + 1 };
            for q in p..repeat_until {
                pulse_edges += edges;
                if q >= cfg.settle_periods {
                    high_samples += high;
                    let base = (q - cfg.settle_periods) * n;
                    for run in runs.iter() {
                        sink.push(base + run.start, run.len, run.level);
                    }
                }
            }
            if converged {
                // Every remaining period ends where this one started.
                *detector = start_state;
            } else {
                std::mem::swap(runs, prev_runs);
                std::mem::swap(marks, prev_marks);
            }
            p = repeat_until;
        }
        sink.finish();

        let measure_samples = (cfg.measure_periods * n) as u64;
        self.finish_measure(high_samples, measure_samples, pulse_edges, evaluated)
    }
}
