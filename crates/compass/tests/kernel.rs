//! Differential gate for the event-driven noiseless kernel.
//!
//! `FrontEnd::measure_runs` (the kernel, counted run by run through
//! `ClockSchedule::edges_between`) against the per-sample oracle
//! `FrontEnd::measure_into` (counted sample by sample through
//! `edges_at`): duty, counts, high samples, pulse edges, clipping and the
//! detector's final state must agree bit for bit on every configuration
//! class the kernel accepts.

use fluxcomp_afe::detector::PulsePositionDetector;
use fluxcomp_afe::frontend::{FrontEnd, FrontEndConfig, MeasureResult};
use fluxcomp_afe::kernel::KernelScratch;
use fluxcomp_faults::FixFaults;
use fluxcomp_fluxgate::transducer::FluxgateParams;
use fluxcomp_rtl::clock::ClockTree;
use fluxcomp_rtl::counter::{ClockSchedule, UpDownCounter};
use fluxcomp_units::magnetics::AmperePerMeter;
use fluxcomp_units::si::{Ampere, Ohm, Volt};
use proptest::prelude::*;

/// Counter widths every comparison runs: the paper's 16 bits and a
/// 4-bit counter that rails within the window.
const WIDTHS: [u32; 2] = [16, 4];

struct Outcome {
    result: MeasureResult,
    counts: [i64; 2],
}

fn schedule(fe: &FrontEnd) -> ClockSchedule {
    let cfg = fe.config();
    ClockSchedule::new(
        cfg.measure_periods * cfg.samples_per_period,
        cfg.measure_periods as f64 / cfg.excitation.frequency().value(),
        ClockTree::paper().master(),
    )
}

fn oracle(
    fe: &FrontEnd,
    schedule: &ClockSchedule,
    h: AmperePerMeter,
) -> (Outcome, PulsePositionDetector) {
    let mut detector = PulsePositionDetector::new(fe.config().detector);
    let mut counters = WIDTHS.map(UpDownCounter::new);
    let result = fe.measure_into(h, 1, &mut detector, |index, up| {
        for c in &mut counters {
            c.clock_n(up, schedule.edges_at(index));
        }
    });
    let outcome = Outcome {
        result,
        counts: counters.map(|c| c.value()),
    };
    (outcome, detector)
}

fn kernel(
    fe: &FrontEnd,
    schedule: &ClockSchedule,
    h: AmperePerMeter,
) -> (Outcome, PulsePositionDetector, u64) {
    let mut detector = PulsePositionDetector::new(fe.config().detector);
    let mut counters = WIDTHS.map(UpDownCounter::new);
    let none = FixFaults::none();
    let mut scratch = KernelScratch::default();
    let outcome = fe.measure_runs(h, 1, &none, &mut detector, &mut scratch, |run| {
        let edges = schedule.edges_between(run.start, run.start + run.len);
        for c in &mut counters {
            c.clock_n(run.level, edges);
        }
    });
    let got = Outcome {
        result: outcome.result,
        counts: counters.map(|c| c.value()),
    };
    (got, detector, outcome.evaluated_samples)
}

/// Runs both paths and compares every output bit; returns the kernel's
/// evaluated-sample count.
fn differential(cfg: FrontEndConfig, h: f64) -> Result<u64, TestCaseError> {
    let fe = FrontEnd::new(cfg).expect("valid config");
    let schedule = schedule(&fe);
    let h = AmperePerMeter::new(h);
    let (expected, oracle_detector) = oracle(&fe, &schedule, h);
    let (got, kernel_detector, evaluated) = kernel(&fe, &schedule, h);
    prop_assert_eq!(got.result.duty.to_bits(), expected.result.duty.to_bits());
    prop_assert_eq!(got.counts, expected.counts);
    prop_assert_eq!(got.result.high_samples, expected.result.high_samples);
    prop_assert_eq!(got.result.pulse_edges, expected.result.pulse_edges);
    prop_assert_eq!(got.result.clipped, expected.result.clipped);
    prop_assert_eq!(got.result, expected.result);
    prop_assert_eq!(kernel_detector, oracle_detector);
    Ok(evaluated)
}

/// `h`, with the two signed zeros drawn on purpose.
fn field(pick: u8, h: f64) -> f64 {
    match pick {
        0 => 0.0,
        1 => -0.0,
        _ => h,
    }
}

/// The edges of the hold rule's budget and floor, picked by `edge`:
/// set == release (no hysteresis); |offset| at or above the release
/// level; a release level ≤ 0 with a set level ≥ 0, so the floor a high
/// comparator needs is ≤ 0 and every block of one slew polarity can
/// hold; a negative threshold, where −set exceeds release and the low
/// comparator bounds the floor; a set level near the pulse peak
/// (≈ 58 mV on the paper sensor), so that the offset decides whether a
/// comparator ever sets.
fn hold_edge(cfg: &mut FrontEndConfig, edge: usize, knobs: (f64, f64, f64)) {
    let sign = if knobs.2 < 0.5 { -1.0 } else { 1.0 };
    let (threshold, hysteresis, offset) = match edge {
        0 => {
            let threshold = 0.002 + knobs.0 * 0.038;
            (threshold, 0.0, sign * knobs.1 * threshold)
        }
        1 => {
            let (threshold, hysteresis) = (0.005 + knobs.0 * 0.035, knobs.2 * 0.008);
            let release = threshold - hysteresis / 2.0;
            (threshold, hysteresis, sign * release * (1.0 + knobs.1))
        }
        2 => {
            let threshold = if (0.4..0.6).contains(&knobs.0) {
                0.0
            } else {
                (knobs.0 - 0.5) * 2e-3
            };
            (threshold, 2.0 * threshold.abs() + knobs.1 * 0.004, 0.0)
        }
        3 => (-knobs.0 * 0.01, knobs.1 * 0.004, sign * knobs.2 * 0.004),
        _ => (
            0.04 + knobs.0 * 0.03,
            knobs.1 * 0.008,
            sign * knobs.2 * 0.03,
        ),
    };
    cfg.detector.threshold = Volt::new(threshold);
    cfg.detector.hysteresis = Volt::new(hysteresis);
    cfg.detector.offset = Volt::new(offset);
}

fn paper_grid() -> FrontEndConfig {
    // The compass's channel: 1 settle + 8 measure periods of 4096.
    let mut cfg = FrontEndConfig::paper_design();
    cfg.measure_periods = 8;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 400, ..ProptestConfig::default() })]

    /// Every configuration class, grid shape and run length.
    #[test]
    fn kernel_matches_the_per_sample_oracle(
        class in 0usize..6,
        edge in 0usize..5,
        h_pick in 0u8..12,
        h in -300.0f64..300.0,
        grid in (0usize..3, 0usize..3, 0usize..3),
        knobs in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
    ) {
        let mut cfg = FrontEndConfig::paper_design();
        match class {
            0 => {}
            1 => cfg.sensor.r_excitation = Ohm::new(2_000.0),
            2 => cfg.sensor = FluxgateParams::adapted_hysteretic(0.1),
            3 => {
                let offset = Ampere::new((knobs.0 - 0.5) * 4e-3);
                cfg.excitation = cfg.excitation.with_dc_offset(offset);
            }
            4 => {
                // Threshold 2–50 mV, hysteresis 0–20 mV, offset ±15 mV:
                // the release level is often small and sometimes ≤ 0.
                cfg.detector.threshold = Volt::new(0.002 + knobs.0 * 0.048);
                cfg.detector.hysteresis = Volt::new(knobs.1 * 0.02);
                cfg.detector.offset = Volt::new((knobs.2 - 0.5) * 0.03);
            }
            _ => hold_edge(&mut cfg, edge, knobs),
        }
        cfg.samples_per_period = [4096, 1000, 333][grid.0];
        cfg.settle_periods = [1, 0, 3][grid.1];
        cfg.measure_periods = [8, 1, 4][grid.2];
        differential(cfg, field(h_pick, h))?;
    }

    /// On the paper design the kernel evaluates at most 2 % of the grid
    /// — taken from its own return value, not a global recorder.
    #[test]
    fn kernel_skips_most_of_the_paper_grid(h_pick in 0u8..12, h in -300.0f64..300.0) {
        let cfg = paper_grid();
        let grid = ((cfg.settle_periods + cfg.measure_periods) * cfg.samples_per_period) as u64;
        let evaluated = differential(cfg, field(h_pick, h))?;
        prop_assert!(evaluated * 50 <= grid, "{} of {} samples evaluated", evaluated, grid);
    }
}

#[test]
fn a_paper_fix_evaluates_at_most_800_samples_on_average() {
    // Both axes of a fix on the paper design, over the earth-field range
    // h ∈ [−60, 60] A/m in 1 A/m steps (the whole grid is 2 × 36,864).
    let cfg = paper_grid();
    let fields: Vec<f64> = (-60..=60).map(f64::from).collect();
    let evaluated: u64 = fields
        .iter()
        .map(|&h| differential(cfg.clone(), h).expect("kernel == oracle"))
        .sum();
    let per_fix = 2.0 * evaluated as f64 / fields.len() as f64;
    assert!(per_fix <= 800.0, "{per_fix} samples per fix");
}

#[test]
fn a_non_positive_release_level_still_holds_blocks() {
    // threshold − hysteresis/2 = −2 mV: a high comparator never releases
    // inside a pulse of its own polarity, so the floor it needs is ≤ 0
    // and those blocks hold; far from the pulses both comparators are
    // low and the set level (6 mV) holds them too. No block lies below
    // the release level, so every skipped sample is the set-level or
    // floor rule's.
    let mut cfg = paper_grid();
    cfg.detector.threshold = Volt::new(0.002);
    cfg.detector.hysteresis = Volt::new(0.008);
    let n = cfg.samples_per_period as u64;
    for h in [-120.0, 0.0, 35.0] {
        let evaluated = differential(cfg.clone(), h).expect("kernel == oracle");
        assert!(
            (1..n).contains(&evaluated),
            "{evaluated} samples at {h} A/m"
        );
    }
    // An offset that leaves no margin below the release level
    // (18 mV − |−18.5 mV| < 0) still leaves 3.5 mV below the set level.
    let mut cfg = paper_grid();
    cfg.detector.offset = Volt::new(-0.0185);
    let evaluated = differential(cfg, 12.0).expect("kernel == oracle");
    assert!((1..n).contains(&evaluated), "{evaluated} samples");
}

#[test]
fn signed_zero_fields_agree() {
    for cfg in [paper_grid(), {
        let mut c = paper_grid();
        c.sensor = FluxgateParams::adapted_hysteretic(0.1);
        c
    }] {
        let plus = differential(cfg.clone(), 0.0).expect("kernel == oracle at +0");
        let minus = differential(cfg, -0.0).expect("kernel == oracle at −0");
        assert_eq!(plus, minus);
    }
}
