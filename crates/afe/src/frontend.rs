//! Transient simulation of the complete analogue front-end.
//!
//! [`FrontEnd`] wires the triangular oscillator, a V-I converter, one
//! fluxgate element and the pulse-position detector into the transient
//! readout chain of Fig. 1's analogue section, and runs it over a
//! configurable number of excitation periods.
//!
//! The analogue grid is stepped sample by sample in exactly one place,
//! a private walk generic over a small probe trait, all fed from the
//! same precomputed [`ExcitationTable`] (built once per channel — the
//! drive chain is periodic and field-independent). Its three probes
//! give the three per-sample entry points:
//!
//! * [`FrontEnd::measure_into`] — no probe: the per-sample oracle,
//!   tallying the detector output inline with zero per-sample
//!   allocation;
//! * [`FrontEnd::measure_runs`] with active faults — the fault probe,
//!   applying one fix's `FixFaults` in physical order;
//! * [`FrontEnd::run`] — the trace probe: the diagnostic path that also
//!   records the full `i_exc`/`v_exc`/`v_pickup`/`detector` waveform set
//!   for the Fig. 3 / Fig. 4 reproductions and the spectrum tests.
//!
//! [`FrontEnd::measure_runs`] is the entry point every fix uses: a
//! noiseless, fault-free channel runs the event-driven kernel of
//! [`crate::kernel`] instead of the walk, with the same result bit for
//! bit; the determinism suite and the kernel's differential tests
//! enforce this.
//!
//! The closed-form expectation, derived in the [`detector`](crate::detector)
//! docs, is `duty = 1/2 − H_ext/(2·H_peak)`; the simulation reproduces it
//! including all modelled non-idealities (comparator thresholds, noise,
//! clipping, hysteretic cores).

use crate::detector::{DetectorConfig, PulsePositionDetector};
use crate::excitation::{DriveSample, ExcitationTable};
use crate::kernel::{build_hold_radii, BlockHold, KernelScratch, Run, RunMeasurement, RunSink};
use crate::oscillator::TriangleWave;
use crate::vi_converter::ViConverter;
use fluxcomp_faults::{BurstFault, FixFaults};
use fluxcomp_fluxgate::noise::GaussianNoise;
use fluxcomp_fluxgate::transducer::{Fluxgate, FluxgateParams};
use fluxcomp_msim::time::SimTime;
use fluxcomp_msim::trace::TraceSet;
use fluxcomp_units::magnetics::AmperePerMeter;
use fluxcomp_units::si::{Seconds, Volt};
use std::error::Error;
use std::fmt;

/// Why a front-end channel configuration was rejected.
///
/// Each variant corresponds to one structural constraint of the readout
/// chain, so callers that relay the failure over a wire (the serve
/// layer's typed statuses) or fold it into a larger build error
/// (`compass::BuildError::BadFrontEnd`) can match on the cause instead
/// of parsing a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FrontEndError {
    /// The analogue grid is too coarse to resolve the pulse shape:
    /// fewer than 16 samples per excitation period.
    TooFewSamplesPerPeriod {
        /// The rejected `samples_per_period`.
        got: usize,
    },
    /// `measure_periods == 0` — there would be no measurement window.
    NoMeasurePeriods,
    /// The sensor element parameters are invalid.
    BadSensor {
        /// The message [`FluxgateParams::check`] rejected them with.
        reason: &'static str,
    },
    /// `pickup_noise_rms` is negative or not finite.
    BadNoise,
    /// A comparator width — hysteresis or propagation delay — is
    /// negative, NaN or infinite.
    BadDetectorWidth {
        /// Which parameter.
        param: DetectorParam,
    },
    /// A comparator level — threshold or offset — is not finite.
    NonFiniteDetectorLevel {
        /// Which parameter.
        param: DetectorParam,
    },
}

/// The [`DetectorConfig`] field a [`FrontEndError`] refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectorParam {
    /// [`DetectorConfig::threshold`].
    Threshold,
    /// [`DetectorConfig::hysteresis`].
    Hysteresis,
    /// [`DetectorConfig::offset`].
    Offset,
    /// [`DetectorConfig::delay`].
    Delay,
}

impl fmt::Display for DetectorParam {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DetectorParam::Threshold => "threshold",
            DetectorParam::Hysteresis => "hysteresis",
            DetectorParam::Offset => "offset",
            DetectorParam::Delay => "delay",
        })
    }
}

impl fmt::Display for FrontEndError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrontEndError::TooFewSamplesPerPeriod { got } => {
                write!(f, "need at least 16 samples per period, got {got}")
            }
            FrontEndError::NoMeasurePeriods => write!(f, "need at least one measurement period"),
            FrontEndError::BadSensor { reason } => write!(f, "invalid sensor element: {reason}"),
            FrontEndError::BadNoise => {
                write!(f, "pickup noise RMS must be finite and non-negative")
            }
            FrontEndError::BadDetectorWidth { param } => {
                write!(f, "detector {param} must be finite and non-negative")
            }
            FrontEndError::NonFiniteDetectorLevel { param } => {
                write!(f, "detector {param} must be finite")
            }
        }
    }
}

impl Error for FrontEndError {}

/// Configuration of one front-end channel.
#[derive(Debug, Clone)]
pub struct FrontEndConfig {
    /// The excitation waveform.
    pub excitation: TriangleWave,
    /// The V-I converter driving the sensor.
    pub vi: ViConverter,
    /// The sensor element.
    pub sensor: FluxgateParams,
    /// The pulse detector.
    pub detector: DetectorConfig,
    /// RMS noise added to the pickup voltage, in volts.
    pub pickup_noise_rms: f64,
    /// Noise seed.
    pub noise_seed: u64,
    /// Analogue samples per excitation period.
    pub samples_per_period: usize,
    /// Settling periods discarded before measurement.
    pub settle_periods: usize,
    /// Measurement periods.
    pub measure_periods: usize,
}

impl FrontEndConfig {
    /// The paper's operating point: 12 mA p-p @ 8 kHz through the adapted
    /// sensor, paper detector design, no noise, 4096 samples/period
    /// (the analogue grid is synchronous with the excitation, so the
    /// detector edges quantise to it — 4096 keeps that quantisation well
    /// below the counter's own), 1 settle + 4 measure periods.
    pub fn paper_design() -> Self {
        Self {
            excitation: TriangleWave::paper_excitation(),
            vi: ViConverter::paper_design(),
            sensor: FluxgateParams::adapted(),
            detector: DetectorConfig::paper_design(),
            pickup_noise_rms: 0.0,
            noise_seed: 0x5EED,
            samples_per_period: 4096,
            settle_periods: 1,
            measure_periods: 4,
        }
    }

    /// Validates the configuration without constructing a channel.
    ///
    /// Returns the same [`FrontEndError`] [`FrontEnd::new`] reports, so
    /// callers can check a configuration before handing it over.
    pub fn check(&self) -> Result<(), FrontEndError> {
        if self.samples_per_period < 16 {
            return Err(FrontEndError::TooFewSamplesPerPeriod {
                got: self.samples_per_period,
            });
        }
        if self.measure_periods == 0 {
            return Err(FrontEndError::NoMeasurePeriods);
        }
        // The noise source and the comparators assert these at
        // measurement time; reject them here instead.
        if !(self.pickup_noise_rms >= 0.0 && self.pickup_noise_rms.is_finite()) {
            return Err(FrontEndError::BadNoise);
        }
        let d = &self.detector;
        for (param, width) in [
            (DetectorParam::Hysteresis, d.hysteresis.value()),
            (DetectorParam::Delay, d.delay.value()),
        ] {
            if !(width >= 0.0 && width.is_finite()) {
                return Err(FrontEndError::BadDetectorWidth { param });
            }
        }
        for (param, level) in [
            (DetectorParam::Threshold, d.threshold.value()),
            (DetectorParam::Offset, d.offset.value()),
        ] {
            if !level.is_finite() {
                return Err(FrontEndError::NonFiniteDetectorLevel { param });
            }
        }
        self.sensor
            .check()
            .map_err(|reason| FrontEndError::BadSensor { reason })
    }
}

impl Default for FrontEndConfig {
    fn default() -> Self {
        Self::paper_design()
    }
}

/// Result of a traced front-end transient run.
#[derive(Debug, Clone)]
pub struct FrontEndResult {
    /// Measured high fraction of the detector output over the
    /// measurement periods.
    pub duty: f64,
    /// Detector output samples (measurement periods only), in time order.
    pub detector_samples: Vec<bool>,
    /// Full waveform set: `i_exc`, `v_exc`, `v_pickup`, `detector`.
    pub traces: TraceSet,
    /// `true` if the V-I converter clipped at any point in the run.
    pub clipped: bool,
}

impl FrontEndResult {
    /// The field estimate implied by the duty cycle, inverted through the
    /// ideal detector equation `duty = 1/2 − H/(2·H_peak)`.
    pub fn field_estimate(&self, h_peak: AmperePerMeter) -> AmperePerMeter {
        h_peak * ((0.5 - self.duty) * 2.0)
    }
}

/// Result of a duty-only fast measurement — the tallies the digital
/// counter side actually consumes, with no waveform capture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasureResult {
    /// Measured high fraction of the detector output over the
    /// measurement periods. Bit-identical to the traced
    /// [`FrontEndResult::duty`] for the same configuration and seed.
    pub duty: f64,
    /// `true` if the V-I converter clips anywhere in the (periodic)
    /// drive.
    pub clipped: bool,
    /// Detector output edges over the whole run (settle + measurement).
    pub pulse_edges: u64,
    /// Detector-high samples within the measurement window.
    pub high_samples: u64,
    /// Total samples in the measurement window.
    pub measure_samples: u64,
}

impl MeasureResult {
    /// The field estimate implied by the duty cycle, inverted through the
    /// ideal detector equation `duty = 1/2 − H/(2·H_peak)`.
    pub fn field_estimate(&self, h_peak: AmperePerMeter) -> AmperePerMeter {
        h_peak * ((0.5 - self.duty) * 2.0)
    }
}

/// One analogue front-end channel (oscillator → V-I → sensor → detector).
#[derive(Debug, Clone)]
pub struct FrontEnd {
    config: FrontEndConfig,
    sensor: Fluxgate,
    table: ExcitationTable,
    /// Per-block hold radii of the event-driven kernel
    /// ([`crate::kernel`]), derived once from the table.
    holds: Vec<BlockHold>,
}

impl FrontEnd {
    /// Builds the channel, precomputing one period of the excitation
    /// drive chain (shared by every subsequent run and measurement).
    ///
    /// # Errors
    ///
    /// The [`FrontEndConfig::check`] error if `samples_per_period < 16`,
    /// `measure_periods == 0`, the noise or detector parameters are out
    /// of range, or the sensor parameters are invalid.
    pub fn new(config: FrontEndConfig) -> Result<Self, FrontEndError> {
        config.check()?;
        let sensor = Fluxgate::new(config.sensor);
        let table = ExcitationTable::build(
            &config.excitation,
            &config.vi,
            &sensor,
            config.samples_per_period,
        );
        let holds = build_hold_radii(&table, &sensor, &config.detector);
        Ok(Self {
            config,
            sensor,
            table,
            holds,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &FrontEndConfig {
        &self.config
    }

    /// The sensor element.
    pub fn sensor(&self) -> &Fluxgate {
        &self.sensor
    }

    /// The precomputed one-period excitation drive table.
    pub fn excitation_table(&self) -> &ExcitationTable {
        &self.table
    }

    /// The hold radii of each excitation-table block; see
    /// [`crate::kernel`].
    pub(crate) fn block_holds(&self) -> &[BlockHold] {
        &self.holds
    }

    /// The peak excitation field the configured drive produces (after
    /// V-I compliance limiting).
    pub fn peak_excitation_field(&self) -> AmperePerMeter {
        let demanded =
            self.config.excitation.amplitude_pp() / 2.0 + self.config.excitation.dc_offset().abs();
        let delivered = self
            .config
            .vi
            .drive(demanded, self.config.sensor.r_excitation);
        self.sensor.h_from_current(delivered)
    }

    /// Runs the traced transient readout with external axial field
    /// `h_ext` and returns the measured duty cycle plus all waveforms.
    ///
    /// Noise is seeded from the configured `noise_seed`; this call is a
    /// pure function of the configuration and `h_ext`, so repeated runs
    /// return bit-identical results. Sweep-style callers that discard the
    /// waveforms should use [`measure`](Self::measure) instead.
    pub fn run(&self, h_ext: AmperePerMeter) -> FrontEndResult {
        self.run_with_seed(h_ext, self.config.noise_seed)
    }

    /// Like [`run`](Self::run), but with an explicit noise seed.
    ///
    /// This is the entry point for repeat/Monte-Carlo studies that need
    /// a *different* noise realisation per run while staying fully
    /// deterministic: derive one seed per run (e.g. with
    /// `fluxcomp_exec::derive_seed`) instead of mutating shared state.
    pub fn run_with_seed(&self, h_ext: AmperePerMeter, noise_seed: u64) -> FrontEndResult {
        let _run = fluxcomp_obs::span("afe.run");
        let cfg = &self.config;
        let n = cfg.samples_per_period;
        let mut traces = TraceSet::new();
        let channels = ["i_exc", "v_exc", "v_pickup", "detector"]
            .map(|name| traces.add_with_capacity(name, self.grid_len()));
        let mut probe = Trace {
            sensor: &self.sensor,
            h_ext,
            dt: 1.0 / cfg.excitation.frequency().value() / n as f64,
            traces,
            channels,
        };
        let mut detector = PulsePositionDetector::new(cfg.detector);
        let mut detector_samples = Vec::with_capacity(cfg.measure_periods * n);
        let result = self
            .walk(h_ext, noise_seed, &mut detector, &mut probe, |_, out| {
                detector_samples.push(out);
            })
            .result;
        fluxcomp_obs::counter_add("afe.runs", 1);
        FrontEndResult {
            duty: result.duty,
            detector_samples,
            traces: probe.traces,
            clipped: result.clipped,
        }
    }

    /// Runs the duty-only fast measurement with external axial field
    /// `h_ext` and the configured noise seed: same physics, same noise
    /// sequence and same detector stepping as [`run`](Self::run), but no
    /// waveform capture. The returned duty is bit-identical to the
    /// traced path's.
    pub fn measure(&self, h_ext: AmperePerMeter) -> MeasureResult {
        let mut detector = PulsePositionDetector::new(self.config.detector);
        self.measure_runs(
            h_ext,
            self.config.noise_seed,
            &FixFaults::none(),
            &mut detector,
            &mut KernelScratch::default(),
            |_| {},
        )
        .result
    }

    /// The entry point every fix goes through: measures under the
    /// per-fix `faults` into a caller-provided detector (reset on entry)
    /// and reports the measurement-window detector output as maximal
    /// constant-level [`Run`]s, in time order.
    ///
    /// A noiseless channel (`pickup_noise_rms == 0.0`) with no active
    /// fault runs the event-driven kernel of [`crate::kernel`], which
    /// evaluates only a few percent of the grid; every other fix walks
    /// the grid sample by sample, with the faults applied in physical
    /// order (dropout, H_K ramp, pickup gain, nominal noise, burst,
    /// stuck output), and coalesces the samples into runs.
    /// `kernel` holds the kernel's period records; reuse it across calls
    /// so a fix allocates nothing.
    pub fn measure_runs(
        &self,
        h_ext: AmperePerMeter,
        noise_seed: u64,
        faults: &FixFaults,
        detector: &mut PulsePositionDetector,
        kernel: &mut KernelScratch,
        on_run: impl FnMut(Run),
    ) -> RunMeasurement {
        if faults.is_none() && self.config.pickup_noise_rms == 0.0 {
            let _run = fluxcomp_obs::span("afe.measure");
            return self.measure_events(h_ext, detector, kernel, on_run);
        }
        let mut sink = RunSink::new(on_run);
        let on_sample = |index, level| sink.push(index, 1, level);
        let outcome = if faults.is_none() {
            let _run = fluxcomp_obs::span("afe.measure");
            self.walk(h_ext, noise_seed, detector, &mut Plain, on_sample)
        } else {
            let _run = fluxcomp_obs::span("faults.measure");
            fluxcomp_obs::counter_add("faults.faulted_measures", 1);
            let mut probe = Faulted::new(faults, self.grid_len());
            self.walk(h_ext, noise_seed, detector, &mut probe, on_sample)
        };
        sink.finish();
        outcome
    }

    /// The per-sample oracle: measures into a caller-provided detector
    /// (reset on entry, so a scratch detector can be reused across any
    /// number of measurements), stepping every grid sample, and reports
    /// every measurement-window sample to `on_sample(index, output)` as
    /// it happens. Indices run `0..measure_periods·samples_per_period`
    /// in time order.
    ///
    /// This is the grid walk with no probe attached; the event-driven
    /// kernel behind [`measure_runs`](Self::measure_runs) must reproduce
    /// it bit for bit.
    pub fn measure_into(
        &self,
        h_ext: AmperePerMeter,
        noise_seed: u64,
        detector: &mut PulsePositionDetector,
        on_sample: impl FnMut(usize, bool),
    ) -> MeasureResult {
        let _run = fluxcomp_obs::span("afe.measure");
        self.walk(h_ext, noise_seed, detector, &mut Plain, on_sample)
            .result
    }

    /// Grid samples in one run: settle plus measurement periods.
    fn grid_len(&self) -> usize {
        (self.config.settle_periods + self.config.measure_periods) * self.config.samples_per_period
    }

    /// The one per-sample grid walk. Steps every settle and measurement
    /// sample in time order: the probe's pickup EMF, the channel noise
    /// (drawn once per sample, whatever the probe does), the probe's
    /// post-noise term, the detector, the probe's view of its output.
    /// Reports each measurement-window output to `on_sample(index, out)`.
    fn walk<P: Probe>(
        &self,
        h_ext: AmperePerMeter,
        noise_seed: u64,
        detector: &mut PulsePositionDetector,
        probe: &mut P,
        mut on_sample: impl FnMut(usize, bool),
    ) -> RunMeasurement {
        let cfg = &self.config;
        debug_assert_eq!(
            detector.config(),
            &cfg.detector,
            "scratch detector configured for a different channel"
        );
        detector.reset();
        let mut noise = GaussianNoise::new(cfg.pickup_noise_rms, noise_seed);
        let mut pulse_edges = 0u64;
        let mut prev_out = false;
        let mut high_samples = 0u64;
        let mut index = 0usize;
        let mut k = 0usize;
        for period in 0..cfg.settle_periods + cfg.measure_periods {
            let measuring = period >= cfg.settle_periods;
            for drive in self.table.samples() {
                let mut v_pickup = probe.pickup(&self.sensor, k, drive, h_ext);
                v_pickup += Volt::new(noise.sample());
                let v_pickup = probe.after_noise(v_pickup);
                let out = probe.output(k, drive, v_pickup, detector.step(v_pickup));
                k += 1;
                pulse_edges += u64::from(out != prev_out);
                prev_out = out;
                if measuring {
                    high_samples += u64::from(out);
                    on_sample(index, out);
                    index += 1;
                }
            }
        }
        self.finish_measure(high_samples, index as u64, pulse_edges, k as u64)
    }

    /// The tallies every measurement path ends with, plus their
    /// observability counters. `msim.analog_steps` counts the logical
    /// grid, `afe.evaluated_samples` the samples whose pickup EMF the
    /// path actually evaluated.
    pub(crate) fn finish_measure(
        &self,
        high_samples: u64,
        measure_samples: u64,
        pulse_edges: u64,
        evaluated_samples: u64,
    ) -> RunMeasurement {
        let duty = high_samples as f64 / measure_samples as f64;
        let clipped = self.table.any_clips();
        fluxcomp_obs::counter_add("msim.analog_steps", self.grid_len() as u64);
        fluxcomp_obs::counter_add("afe.measures", 1);
        fluxcomp_obs::counter_add("afe.evaluated_samples", evaluated_samples);
        fluxcomp_obs::counter_add("afe.pulse_edges", pulse_edges);
        fluxcomp_obs::counter_add("afe.clipped_runs", u64::from(clipped));
        fluxcomp_obs::histogram_record("afe.duty", duty);
        RunMeasurement {
            result: MeasureResult {
                duty,
                clipped,
                pulse_edges,
                high_samples,
                measure_samples,
            },
            evaluated_samples,
        }
    }
}

/// Per-sample hooks of [`FrontEnd::walk`]. Each impl gets its own
/// monomorphised copy of the loop, so the defaults cost nothing.
trait Probe {
    /// The pickup EMF of global grid sample `k`, before the channel
    /// noise.
    #[inline]
    fn pickup(
        &mut self,
        sensor: &Fluxgate,
        _k: usize,
        drive: &DriveSample,
        h_ext: AmperePerMeter,
    ) -> Volt {
        sensor.pickup_emf(drive.h_drive + h_ext, drive.dh_dt)
    }

    /// The pickup voltage the detector reads, given the noisy EMF.
    #[inline]
    fn after_noise(&mut self, v_pickup: Volt) -> Volt {
        v_pickup
    }

    /// The output the chain sees when the detector, fed `v_pickup` at
    /// sample `k`, produced `out`.
    #[inline]
    fn output(&mut self, _k: usize, _drive: &DriveSample, _v_pickup: Volt, out: bool) -> bool {
        out
    }
}

/// No probe: the plain measurement.
struct Plain;

impl Probe for Plain {}

/// Applies one fix's [`FixFaults`] in physical order:
///
/// 1. excitation dropout zeroes the drive field and slew over its
///    window;
/// 2. the H_K drift ramp adds a linearly growing field offset;
/// 3. an open pickup scales the EMF by its residual gain;
/// 4. (the walk adds the nominal noise, always drawn, so a fault never
///    perturbs the draw sequence;)
/// 5. a noise burst adds draws from its own stream over its window;
/// 6. a stuck comparator overrides the detector output (the detector is
///    still stepped, as the damaged circuit's would be).
///
/// Window fractions cover the full settle+measure run.
struct Faulted<'a> {
    faults: &'a FixFaults,
    inv_total: f64,
    burst: Option<(BurstFault, GaussianNoise)>,
    /// Window fraction of the current sample.
    frac: f64,
}

impl<'a> Faulted<'a> {
    fn new(faults: &'a FixFaults, total_samples: usize) -> Self {
        Self {
            faults,
            inv_total: 1.0 / total_samples as f64,
            burst: faults.burst.map(|b| (b, GaussianNoise::new(b.rms, b.seed))),
            frac: 0.0,
        }
    }
}

impl Probe for Faulted<'_> {
    #[inline]
    fn pickup(
        &mut self,
        sensor: &Fluxgate,
        k: usize,
        drive: &DriveSample,
        h_ext: AmperePerMeter,
    ) -> Volt {
        let faults = self.faults;
        let frac = k as f64 * self.inv_total;
        self.frac = frac;
        let dropped = faults
            .dropout
            .is_some_and(|(from, until)| frac >= from && frac < until);
        let (h_drive, dh_dt) = if dropped {
            (AmperePerMeter::ZERO, 0.0)
        } else {
            (drive.h_drive, drive.dh_dt)
        };
        let h = h_drive + h_ext + AmperePerMeter::new(faults.hk_ramp * frac);
        // The nominal gain is 1.0, and `x * 1.0 == x` bit for bit.
        Volt::new(sensor.pickup_emf(h, dh_dt).value() * faults.pickup_gain)
    }

    #[inline]
    fn after_noise(&mut self, v_pickup: Volt) -> Volt {
        match &mut self.burst {
            Some((burst, stream)) if self.frac >= burst.from && self.frac < burst.until => {
                v_pickup + Volt::new(stream.sample())
            }
            _ => v_pickup,
        }
    }

    #[inline]
    fn output(&mut self, _k: usize, _drive: &DriveSample, _v_pickup: Volt, out: bool) -> bool {
        self.faults.stuck_output.unwrap_or(out)
    }
}

/// Records the `i_exc`/`v_exc`/`v_pickup`/`detector` waveforms of a
/// traced run.
struct Trace<'a> {
    sensor: &'a Fluxgate,
    h_ext: AmperePerMeter,
    /// Grid step in seconds.
    dt: f64,
    traces: TraceSet,
    /// Trace indices of `i_exc`, `v_exc`, `v_pickup` and `detector`.
    channels: [usize; 4],
}

impl Probe for Trace<'_> {
    fn output(&mut self, k: usize, drive: &DriveSample, v_pickup: Volt, out: bool) -> bool {
        let t = SimTime::from_seconds(Seconds::new(k as f64 * self.dt));
        let v_exc = self
            .sensor
            .excitation_voltage(drive.i, drive.di_dt, self.h_ext);
        let [ch_i, ch_ve, ch_vp, ch_d] = self.channels;
        self.traces.record(ch_i, t, drive.i.value());
        self.traces.record(ch_ve, t, v_exc.value());
        self.traces.record(ch_vp, t, v_pickup.value());
        self.traces.record(ch_d, t, if out { 1.0 } else { 0.0 });
        out
    }
}

impl Default for FrontEnd {
    fn default() -> Self {
        Self::new(FrontEndConfig::default()).expect("paper design is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluxcomp_units::magnetics::MU_0;

    fn h_from_microtesla(ut: f64) -> AmperePerMeter {
        AmperePerMeter::new(ut * 1e-6 / MU_0)
    }

    /// One fix through `measure_runs` with a fresh detector.
    fn measure_fix(
        fe: &FrontEnd,
        h: AmperePerMeter,
        seed: u64,
        faults: &FixFaults,
    ) -> MeasureResult {
        let mut detector = PulsePositionDetector::new(fe.config().detector);
        fe.measure_runs(
            h,
            seed,
            faults,
            &mut detector,
            &mut KernelScratch::default(),
            |_| {},
        )
        .result
    }

    #[test]
    fn zero_field_gives_half_duty() {
        let fe = FrontEnd::default();
        let r = fe.run(AmperePerMeter::ZERO);
        assert!(
            (r.duty - 0.5).abs() < 0.005,
            "duty = {} should be 0.5",
            r.duty
        );
        assert!(!r.clipped);
    }

    #[test]
    fn duty_shift_is_linear_in_field() {
        let fe = FrontEnd::default();
        let h_peak = fe.peak_excitation_field();
        // 15 µT ≈ 11.9 A/m; H_peak = 240 A/m → expected shift ≈ 0.0249.
        let h1 = h_from_microtesla(15.0);
        let d1 = fe.run(h1).duty;
        let expected1 = 0.5 - h1.value() / (2.0 * h_peak.value());
        assert!((d1 - expected1).abs() < 0.005, "{d1} vs {expected1}");
        // Twice the field → twice the shift, within tolerance.
        let h2 = h_from_microtesla(30.0);
        let d2 = fe.run(h2).duty;
        let shift1 = 0.5 - d1;
        let shift2 = 0.5 - d2;
        assert!(
            (shift2 / shift1 - 2.0).abs() < 0.15,
            "shift ratio {}",
            shift2 / shift1
        );
    }

    #[test]
    fn negative_field_shifts_duty_the_other_way() {
        let fe = FrontEnd::default();
        let plus = fe.run(h_from_microtesla(20.0)).duty;
        let minus = fe.run(h_from_microtesla(-20.0)).duty;
        assert!(plus < 0.5 && minus > 0.5);
        // Symmetric response.
        assert!(((0.5 - plus) - (minus - 0.5)).abs() < 0.005);
    }

    #[test]
    fn field_estimate_inverts_duty() {
        let fe = FrontEnd::default();
        let h = h_from_microtesla(25.0);
        let r = fe.run(h);
        let est = r.field_estimate(fe.peak_excitation_field());
        let rel = (est.value() - h.value()).abs() / h.value();
        assert!(rel < 0.05, "estimate {est} vs {h}, rel err {rel}");
    }

    #[test]
    fn traces_are_complete() {
        let fe = FrontEnd::default();
        let r = fe.run(AmperePerMeter::ZERO);
        for name in ["i_exc", "v_exc", "v_pickup", "detector"] {
            let tr = r.traces.by_name(name).unwrap();
            assert_eq!(tr.len(), (1 + 4) * 4096, "{name}");
        }
        // Pickup shows both polarities of pulses.
        let (lo, hi) = r.traces.by_name("v_pickup").unwrap().value_range().unwrap();
        assert!(lo < -0.02 && hi > 0.02, "pulses missing: {lo}..{hi}");
    }

    #[test]
    fn peak_excitation_field_matches_design_point() {
        let fe = FrontEnd::default();
        // ±6 mA × 40 turns / 1 mm = 240 A/m = 2× saturation field.
        assert!((fe.peak_excitation_field().value() - 240.0).abs() < 1e-9);
    }

    #[test]
    fn noise_perturbs_but_does_not_break_readout() {
        let mut cfg = FrontEndConfig::paper_design();
        cfg.pickup_noise_rms = 2e-3; // 2 mV RMS on ~58 mV pulses
                                     // Size the hysteresis well above the noise (≫ 3σ both ways), as a
                                     // real detector design would — otherwise comparator chatter inside
                                     // a pulse releases the latch early (see the E1 hysteresis
                                     // ablation, which sweeps this deliberately).
        cfg.detector.hysteresis = fluxcomp_units::Volt::new(0.016);
        cfg.measure_periods = 8;
        let fe = FrontEnd::new(cfg).expect("valid config");
        let h = h_from_microtesla(20.0);
        let r = fe.run(h);
        let est = r.field_estimate(fe.peak_excitation_field());
        let rel = (est.value() - h.value()).abs() / h.value();
        assert!(rel < 0.15, "rel err {rel} under noise");
    }

    #[test]
    fn excessive_drive_reports_clipping() {
        let mut cfg = FrontEndConfig::paper_design();
        cfg.sensor.r_excitation = fluxcomp_units::Ohm::new(2_000.0);
        let fe = FrontEnd::new(cfg).expect("valid config");
        let r = fe.run(AmperePerMeter::ZERO);
        assert!(r.clipped);
        assert!(fe.excitation_table().any_clips());
    }

    #[test]
    fn hysteretic_core_still_reads_field() {
        let mut cfg = FrontEndConfig::paper_design();
        cfg.sensor = FluxgateParams::adapted_hysteretic(0.1);
        let fe = FrontEnd::new(cfg).expect("valid config");
        let h = h_from_microtesla(20.0);
        let est = fe.run(h).field_estimate(fe.peak_excitation_field());
        let rel = (est.value() - h.value()).abs() / h.value();
        assert!(rel < 0.1, "rel err {rel} with hysteresis");
    }

    #[test]
    fn too_few_samples_rejected() {
        let mut cfg = FrontEndConfig::paper_design();
        cfg.samples_per_period = 8;
        let err = FrontEnd::new(cfg).unwrap_err();
        assert_eq!(err, FrontEndError::TooFewSamplesPerPeriod { got: 8 });
        assert!(err.to_string().contains("16 samples"));
    }

    #[test]
    fn zero_measure_periods_rejected() {
        let mut cfg = FrontEndConfig::paper_design();
        cfg.measure_periods = 0;
        let err = FrontEnd::new(cfg).unwrap_err();
        assert_eq!(err, FrontEndError::NoMeasurePeriods);
        assert!(err.to_string().contains("measurement period"));
    }

    #[test]
    fn bad_sensor_reports_the_element_reason() {
        let mut cfg = FrontEndConfig::paper_design();
        cfg.sensor.turns_pickup = 0;
        assert_eq!(
            FrontEnd::new(cfg).unwrap_err(),
            FrontEndError::BadSensor {
                reason: "pickup coil needs turns"
            }
        );
    }

    /// The contract the whole fast path rests on: for every configuration
    /// class (clean, noisy, clipping, hysteretic core), every seed and
    /// every field, the duty-only tier reproduces the traced tier bit for
    /// bit. `measure` goes through `measure_runs`, so the noiseless
    /// classes here run the event-driven kernel.
    #[test]
    fn measure_matches_run_bitwise() {
        let noisy = {
            let mut cfg = FrontEndConfig::paper_design();
            cfg.pickup_noise_rms = 2e-3;
            cfg.detector.hysteresis = fluxcomp_units::Volt::new(0.016);
            cfg
        };
        let clipping = {
            let mut cfg = FrontEndConfig::paper_design();
            cfg.sensor.r_excitation = fluxcomp_units::Ohm::new(2_000.0);
            cfg
        };
        let hysteretic = {
            let mut cfg = FrontEndConfig::paper_design();
            cfg.sensor = FluxgateParams::adapted_hysteretic(0.1);
            cfg
        };
        let configs = [
            ("paper", FrontEndConfig::paper_design()),
            ("noisy", noisy),
            ("clipping", clipping),
            ("hysteretic", hysteretic),
        ];
        for (name, cfg) in configs {
            let fe = FrontEnd::new(cfg).expect("valid config");
            for seed in [0x5EED_u64, 1, 0xDEAD_BEEF] {
                for ut in [-20.0, 0.0, 15.0] {
                    let h = h_from_microtesla(ut);
                    let traced = fe.run_with_seed(h, seed);
                    let fast = measure_fix(&fe, h, seed, &FixFaults::none());
                    assert_eq!(
                        traced.duty.to_bits(),
                        fast.duty.to_bits(),
                        "{name}: duty differs at seed {seed:#x}, {ut} µT"
                    );
                    assert_eq!(traced.clipped, fast.clipped, "{name}");
                    let high = traced.detector_samples.iter().filter(|&&s| s).count() as u64;
                    assert_eq!(high, fast.high_samples, "{name}");
                    assert_eq!(
                        traced.detector_samples.len() as u64,
                        fast.measure_samples,
                        "{name}"
                    );
                }
            }
        }
    }

    /// Expands the kernel's runs back into samples: they must tile the
    /// measurement window and reproduce the per-sample oracle's stream.
    fn kernel_samples(fe: &FrontEnd, h: AmperePerMeter) -> (Vec<bool>, RunMeasurement) {
        let mut detector = PulsePositionDetector::new(fe.config().detector);
        let mut samples = Vec::new();
        let mut prev: Option<Run> = None;
        let none = FixFaults::none();
        let outcome = fe.measure_runs(
            h,
            7,
            &none,
            &mut detector,
            &mut KernelScratch::default(),
            |run| {
                assert_eq!(run.start, samples.len(), "runs tile the window in order");
                assert!(run.len > 0);
                if let Some(p) = prev {
                    assert_ne!(p.level, run.level, "runs are maximal");
                }
                prev = Some(run);
                samples.extend(std::iter::repeat_n(run.level, run.len));
            },
        );
        (samples, outcome)
    }

    #[test]
    fn kernel_matches_the_per_sample_oracle() {
        let offset_detector = {
            let mut cfg = FrontEndConfig::paper_design();
            cfg.detector.offset = fluxcomp_units::Volt::new(0.005);
            cfg.settle_periods = 0;
            cfg
        };
        let clipping = {
            let mut cfg = FrontEndConfig::paper_design();
            cfg.sensor.r_excitation = fluxcomp_units::Ohm::new(2_000.0);
            cfg
        };
        let hysteretic = {
            let mut cfg = FrontEndConfig::paper_design();
            cfg.sensor = FluxgateParams::adapted_hysteretic(0.1);
            cfg.samples_per_period = 1000;
            cfg
        };
        for cfg in [
            FrontEndConfig::paper_design(),
            offset_detector,
            clipping,
            hysteretic,
        ] {
            let fe = FrontEnd::new(cfg).expect("valid config");
            for h in [-250.0, -20.0, -0.0, 0.0, 11.9, 300.0] {
                let h = AmperePerMeter::new(h);
                let mut detector = PulsePositionDetector::new(fe.config().detector);
                let mut oracle = Vec::new();
                let expected = fe.measure_into(h, 7, &mut detector, |_, out| oracle.push(out));
                let (samples, outcome) = kernel_samples(&fe, h);
                assert_eq!(outcome.result, expected, "{h}");
                assert_eq!(outcome.result.duty.to_bits(), expected.duty.to_bits());
                assert_eq!(samples, oracle, "{h}");
            }
        }
    }

    #[test]
    fn kernel_evaluates_a_small_share_of_the_grid() {
        let mut cfg = FrontEndConfig::paper_design();
        cfg.measure_periods = 8;
        let fe = FrontEnd::new(cfg).expect("valid config");
        let grid = 9 * 4096;
        for h in [-60.0, 0.0, 12.0, 60.0] {
            let (_, outcome) = kernel_samples(&fe, AmperePerMeter::new(h));
            assert!(
                outcome.evaluated_samples * 10 <= grid,
                "{h} A/m: {} of {grid} samples evaluated",
                outcome.evaluated_samples
            );
        }
    }

    #[test]
    fn noisy_channel_runs_the_per_sample_loop() {
        let mut cfg = FrontEndConfig::paper_design();
        cfg.pickup_noise_rms = 2e-3;
        cfg.detector.hysteresis = fluxcomp_units::Volt::new(0.016);
        let fe = FrontEnd::new(cfg).expect("valid config");
        let h = h_from_microtesla(15.0);
        let mut detector = PulsePositionDetector::new(fe.config().detector);
        let mut oracle = Vec::new();
        let expected = fe.measure_into(h, 7, &mut detector, |_, out| oracle.push(out));
        let (samples, outcome) = kernel_samples(&fe, h);
        assert_eq!(outcome.result, expected);
        assert_eq!(samples, oracle);
        assert_eq!(outcome.evaluated_samples, 5 * 4096);
    }

    #[test]
    fn invalid_noise_and_detector_params_rejected() {
        type Mutation = fn(&mut FrontEndConfig);
        let cases: [(Mutation, FrontEndError); 7] = [
            (|c| c.pickup_noise_rms = -1e-3, FrontEndError::BadNoise),
            (|c| c.pickup_noise_rms = f64::NAN, FrontEndError::BadNoise),
            (
                |c| c.detector.hysteresis = fluxcomp_units::Volt::new(-1e-3),
                FrontEndError::BadDetectorWidth {
                    param: DetectorParam::Hysteresis,
                },
            ),
            (
                |c| c.detector.delay = Seconds::new(-1e-9),
                FrontEndError::BadDetectorWidth {
                    param: DetectorParam::Delay,
                },
            ),
            (
                |c| c.detector.hysteresis = fluxcomp_units::Volt::new(f64::INFINITY),
                FrontEndError::BadDetectorWidth {
                    param: DetectorParam::Hysteresis,
                },
            ),
            (
                |c| c.detector.threshold = fluxcomp_units::Volt::new(f64::NAN),
                FrontEndError::NonFiniteDetectorLevel {
                    param: DetectorParam::Threshold,
                },
            ),
            (
                |c| c.detector.offset = fluxcomp_units::Volt::new(f64::NEG_INFINITY),
                FrontEndError::NonFiniteDetectorLevel {
                    param: DetectorParam::Offset,
                },
            ),
        ];
        for (mutate, expected) in cases {
            let mut cfg = FrontEndConfig::paper_design();
            mutate(&mut cfg);
            assert_eq!(cfg.check(), Err(expected));
            assert_eq!(FrontEnd::new(cfg).unwrap_err(), expected);
            assert!(!expected.to_string().is_empty());
        }
        assert!(FrontEndError::BadDetectorWidth {
            param: DetectorParam::Hysteresis
        }
        .to_string()
        .contains("hysteresis"));
    }

    #[test]
    fn measure_into_reports_every_measurement_sample_in_order() {
        let fe = FrontEnd::default();
        let h = h_from_microtesla(15.0);
        let mut detector = PulsePositionDetector::new(fe.config().detector);
        let mut seen = Vec::new();
        let result = fe.measure_into(h, fe.config().noise_seed, &mut detector, |index, out| {
            assert_eq!(index, seen.len());
            seen.push(out);
        });
        let traced = fe.run(h);
        assert_eq!(seen, traced.detector_samples);
        assert_eq!(result.measure_samples as usize, seen.len());
        // Reuse: the detector is reset on entry, so a second measurement
        // with the same (dirty) detector reproduces the first.
        let again = fe.measure_into(h, fe.config().noise_seed, &mut detector, |_, _| {});
        assert_eq!(result, again);
    }

    #[test]
    fn measure_field_estimate_matches_traced_estimate() {
        let fe = FrontEnd::default();
        let h = h_from_microtesla(25.0);
        let traced = fe.run(h).field_estimate(fe.peak_excitation_field());
        let fast = fe.measure(h).field_estimate(fe.peak_excitation_field());
        assert_eq!(traced.value().to_bits(), fast.value().to_bits());
    }

    /// The fault probe with every effect neutral (an injected fault
    /// that changes nothing) walks the grid exactly as the plain loop
    /// does: same noise draws, same field and EMF arithmetic.
    #[test]
    fn neutral_fault_probe_matches_the_plain_loop() {
        let mut cfg = FrontEndConfig::paper_design();
        cfg.pickup_noise_rms = 2e-3;
        cfg.detector.hysteresis = fluxcomp_units::Volt::new(0.016);
        let fe = FrontEnd::new(cfg).expect("valid config");
        let neutral = FixFaults {
            injected: 1,
            ..FixFaults::none()
        };
        for ut in [-20.0, 0.0, 15.0] {
            let h = h_from_microtesla(ut);
            for seed in [1u64, 0x5EED] {
                let mut detector = PulsePositionDetector::new(fe.config().detector);
                let mut plain_samples = Vec::new();
                let plain = fe.measure_into(h, seed, &mut detector, |_, out| {
                    plain_samples.push(out);
                });
                let mut faulted_samples = Vec::new();
                let faulted = fe.measure_runs(
                    h,
                    seed,
                    &neutral,
                    &mut detector,
                    &mut KernelScratch::default(),
                    |run| {
                        faulted_samples.extend(std::iter::repeat_n(run.level, run.len));
                    },
                );
                assert_eq!(
                    plain.duty.to_bits(),
                    faulted.result.duty.to_bits(),
                    "{ut} µT"
                );
                assert_eq!(plain, faulted.result);
                assert_eq!(plain_samples, faulted_samples);
            }
        }
    }

    #[test]
    fn open_pickup_collapses_duty_and_edges() {
        let fe = FrontEnd::default();
        let mut faults = FixFaults::none();
        faults.pickup_gain = fluxcomp_faults::OPEN_PICKUP_GAIN;
        faults.injected = 1;
        let r = measure_fix(&fe, h_from_microtesla(15.0), 1, &faults);
        // µV-scale EMF never crosses the comparator threshold: the
        // detector output is flat and the duty is pinned at an
        // implausible extreme (0 or 1 depending on idle polarity).
        assert_eq!(r.pulse_edges, 0, "open pickup must kill every pulse edge");
        assert!(r.duty == 0.0 || r.duty == 1.0, "duty {} not pinned", r.duty);
    }

    #[test]
    fn stuck_comparator_pins_duty_and_is_deterministic() {
        let fe = FrontEnd::default();
        let mut faults = FixFaults::none();
        faults.stuck_output = Some(true);
        faults.injected = 1;
        let h = h_from_microtesla(15.0);
        let a = measure_fix(&fe, h, 9, &faults);
        assert_eq!(a.duty, 1.0);
        // One edge at most: the idle-low → welded-high transition.
        assert!(a.pulse_edges <= 1, "edges {}", a.pulse_edges);
        let b = measure_fix(&fe, h, 9, &faults);
        assert_eq!(a, b, "faulted measurement must be reproducible");
    }

    #[test]
    fn hk_ramp_shifts_duty_beyond_clean_value() {
        let fe = FrontEnd::default();
        let mut faults = FixFaults::none();
        faults.hk_ramp = 60.0; // a quarter of H_peak by window end
        faults.injected = 1;
        let h = h_from_microtesla(15.0);
        let clean = measure_fix(&fe, h, 3, &FixFaults::none());
        let drifted = measure_fix(&fe, h, 3, &faults);
        // duty = 1/2 − H/(2·H_peak): a positive field offset pushes the
        // duty further down than the clean measurement.
        assert!(
            drifted.duty < clean.duty - 0.01,
            "drift did not move duty: clean {} vs drifted {}",
            clean.duty,
            drifted.duty
        );
    }
}
