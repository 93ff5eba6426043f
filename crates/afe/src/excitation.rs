//! The precomputed excitation drive table.
//!
//! The oscillator → V-I converter → excitation-coil chain is strictly
//! periodic and completely independent of the external field: at grid
//! sample `k` of a run the demanded current, the delivered (compliance-
//! limited) current, its slew rate and the resulting core drive field
//! depend only on `k mod samples_per_period`. The analogue grid is
//! synchronous with the excitation (the front-end samples each period at
//! the same phases), so **one period of the drive chain — evaluated once
//! at construction — covers every settle and measure period of every
//! run**, for every axis, heading and worker thread.
//!
//! [`ExcitationTable`] is that single period. Both measurement tiers of
//! [`FrontEnd`](crate::frontend::FrontEnd) read their drive values from
//! it, which is what makes the duty-only fast path bit-identical to the
//! traced diagnostic path: they consume literally the same numbers in
//! the same order, and only differ in what they *record*.
//!
//! The table also summarises each fixed block of [`BLOCK_LEN`] samples
//! as a [`DriveBlock`]: the drive-field range, the smallest and largest
//! slew rate and the slew's sign in the block. Like the samples, these
//! bounds do not depend on the external field; the event-driven kernel
//! turns them into per-block hold radii once per front-end (see
//! [`crate::kernel`]).

use crate::oscillator::TriangleWave;
use crate::vi_converter::ViConverter;
use fluxcomp_fluxgate::transducer::Fluxgate;
use fluxcomp_units::magnetics::AmperePerMeter;
use fluxcomp_units::si::Ampere;

/// The heading-invariant drive state at one analogue grid sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriveSample {
    /// Delivered excitation current (after V-I compliance limiting).
    pub i: Ampere,
    /// Delivered current slew rate in A/s (zero while the converter
    /// clips: the current is pinned at the compliance limit).
    pub di_dt: f64,
    /// Core drive field produced by `i` alone (the external field adds
    /// on top at measurement time).
    pub h_drive: AmperePerMeter,
    /// Core drive-field slew rate in A/m/s.
    pub dh_dt: f64,
    /// Whether the V-I converter clips at this sample.
    pub clips: bool,
}

/// Grid samples per [`DriveBlock`]; the last block of a period is
/// shorter when the period is not a multiple of it.
pub const BLOCK_LEN: usize = 32;

/// Field-independent bounds of the drive over one block of the table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriveBlock {
    /// Smallest `h_drive` in the block.
    pub h_lo: AmperePerMeter,
    /// Largest `h_drive` in the block.
    pub h_hi: AmperePerMeter,
    /// Largest `|dh_dt|` in the block, A/m/s; NaN if any drive value in
    /// the block is not finite, so that no bound built on it can hold.
    pub max_dh_dt: f64,
    /// Smallest `|dh_dt|` in the block, A/m/s; NaN under the same
    /// condition as `max_dh_dt`.
    pub min_dh_dt: f64,
    /// The sign every `dh_dt` in the block shares: `1` if all are `> 0`,
    /// `-1` if all are `< 0`, `0` otherwise (a zero, a sign change or a
    /// non-finite drive value).
    pub slew_sign: i8,
}

impl DriveBlock {
    fn spanning(samples: &[DriveSample]) -> Self {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut max_dh_dt = 0.0_f64;
        let mut min_dh_dt = f64::INFINITY;
        let (mut rising, mut falling) = (true, true);
        let mut finite = true;
        for s in samples {
            let h = s.h_drive.value();
            finite &= h.is_finite() && s.dh_dt.is_finite();
            lo = lo.min(h);
            hi = hi.max(h);
            max_dh_dt = max_dh_dt.max(s.dh_dt.abs());
            min_dh_dt = min_dh_dt.min(s.dh_dt.abs());
            rising &= s.dh_dt > 0.0;
            falling &= s.dh_dt < 0.0;
        }
        let slew_sign = match (finite, rising, falling) {
            (true, true, _) => 1,
            (true, _, true) => -1,
            _ => 0,
        };
        Self {
            h_lo: AmperePerMeter::new(lo),
            h_hi: AmperePerMeter::new(hi),
            max_dh_dt: if finite { max_dh_dt } else { f64::NAN },
            min_dh_dt: if finite { min_dh_dt } else { f64::NAN },
            slew_sign,
        }
    }
}

/// One period of the periodic oscillator → V-I → coil drive chain,
/// sampled on the front-end's analogue grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ExcitationTable {
    samples: Vec<DriveSample>,
    blocks: Vec<DriveBlock>,
    any_clips: bool,
}

impl ExcitationTable {
    /// Evaluates the drive chain over one period of `samples` grid
    /// points: sample `k` is taken at `t = k·(T/samples)`, matching the
    /// transient loop's grid exactly.
    pub fn build(
        excitation: &TriangleWave,
        vi: &ViConverter,
        sensor: &Fluxgate,
        samples: usize,
    ) -> Self {
        let period = 1.0 / excitation.frequency().value();
        let dt = period / samples as f64;
        let load = sensor.params().r_excitation;
        let mut any_clips = false;
        let samples: Vec<DriveSample> = (0..samples)
            .map(|k| {
                let (demanded, slope) = excitation.value_and_slope(k as f64 * dt);
                let i = vi.drive(demanded, load);
                let clips = vi.clips(demanded, load);
                any_clips |= clips;
                let di_dt = if i == demanded { slope } else { 0.0 };
                DriveSample {
                    i,
                    di_dt,
                    h_drive: sensor.h_from_current(i),
                    dh_dt: sensor.dh_dt_from_current(di_dt),
                    clips,
                }
            })
            .collect();
        let blocks = samples
            .chunks(BLOCK_LEN)
            .map(DriveBlock::spanning)
            .collect();
        Self {
            samples,
            blocks,
            any_clips,
        }
    }

    /// The drive samples of one period, in grid order.
    pub fn samples(&self) -> &[DriveSample] {
        &self.samples
    }

    /// The drive bounds of each [`BLOCK_LEN`]-sample block, in grid
    /// order: block `b` covers samples `b·BLOCK_LEN ..` up to the next
    /// block or the end of the period.
    pub fn blocks(&self) -> &[DriveBlock] {
        &self.blocks
    }

    /// Number of grid samples per period.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` for a zero-length table (never produced by `build` with a
    /// validated front-end configuration).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Whether the V-I converter clips anywhere in the period — and
    /// therefore (by periodicity) anywhere in any run.
    pub fn any_clips(&self) -> bool {
        self.any_clips
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluxcomp_fluxgate::transducer::FluxgateParams;
    use fluxcomp_units::si::Ohm;

    fn paper_table() -> ExcitationTable {
        let excitation = TriangleWave::paper_excitation();
        let vi = ViConverter::paper_design();
        let sensor = Fluxgate::new(FluxgateParams::adapted());
        ExcitationTable::build(&excitation, &vi, &sensor, 4096)
    }

    #[test]
    fn table_is_one_period_of_the_grid() {
        let table = paper_table();
        assert_eq!(table.len(), 4096);
        assert!(!table.is_empty());
        assert!(!table.any_clips());
    }

    #[test]
    fn entries_match_direct_evaluation() {
        let excitation = TriangleWave::paper_excitation();
        let vi = ViConverter::paper_design();
        let sensor = Fluxgate::new(FluxgateParams::adapted());
        let n = 512;
        let table = ExcitationTable::build(&excitation, &vi, &sensor, n);
        let dt = (1.0 / excitation.frequency().value()) / n as f64;
        for (k, drive) in table.samples().iter().enumerate() {
            let t = k as f64 * dt;
            let demanded = excitation.value(t);
            let i = vi.drive(demanded, sensor.params().r_excitation);
            assert_eq!(drive.i, i, "sample {k}");
            assert_eq!(drive.h_drive, sensor.h_from_current(i), "sample {k}");
            let di_dt = if i == demanded {
                excitation.slope(t)
            } else {
                0.0
            };
            assert_eq!(drive.di_dt.to_bits(), di_dt.to_bits(), "sample {k}");
            assert_eq!(
                drive.dh_dt.to_bits(),
                sensor.dh_dt_from_current(di_dt).to_bits(),
                "sample {k}"
            );
        }
    }

    #[test]
    fn clipping_load_marks_the_table() {
        let excitation = TriangleWave::paper_excitation();
        let vi = ViConverter::paper_design();
        let mut params = FluxgateParams::adapted();
        params.r_excitation = Ohm::new(2_000.0); // beyond the 800 Ω limit
        let sensor = Fluxgate::new(params);
        let table = ExcitationTable::build(&excitation, &vi, &sensor, 1024);
        assert!(table.any_clips());
        // Clipped samples carry zero slew — the current is pinned.
        for drive in table.samples().iter().filter(|d| d.clips) {
            assert_eq!(drive.di_dt, 0.0);
            assert_eq!(drive.dh_dt, 0.0);
        }
        // The triangle crosses zero, so not every sample clips.
        assert!(table.samples().iter().any(|d| !d.clips));
    }

    #[test]
    fn blocks_bound_every_sample() {
        let excitation = TriangleWave::paper_excitation();
        let vi = ViConverter::paper_design();
        let sensor = Fluxgate::new(FluxgateParams::adapted());
        // 1000 is not a multiple of the block length: the last block is
        // short.
        let table = ExcitationTable::build(&excitation, &vi, &sensor, 1000);
        assert_eq!(table.blocks().len(), 1000usize.div_ceil(BLOCK_LEN));
        for (b, block) in table.blocks().iter().enumerate() {
            let chunk = &table.samples()[b * BLOCK_LEN..((b + 1) * BLOCK_LEN).min(1000)];
            for drive in chunk {
                assert!(block.h_lo <= drive.h_drive && drive.h_drive <= block.h_hi);
                assert!(block.min_dh_dt <= drive.dh_dt.abs());
                assert!(drive.dh_dt.abs() <= block.max_dh_dt);
            }
            assert!(chunk.iter().any(|d| d.h_drive == block.h_lo));
            assert!(chunk.iter().any(|d| d.h_drive == block.h_hi));
            assert!(chunk.iter().any(|d| d.dh_dt.abs() == block.max_dh_dt));
            assert!(chunk.iter().any(|d| d.dh_dt.abs() == block.min_dh_dt));
            let strict = |sign: f64| chunk.iter().all(|d| d.dh_dt * sign > 0.0);
            let expected = if strict(1.0) {
                1
            } else if strict(-1.0) {
                -1
            } else {
                0
            };
            assert_eq!(block.slew_sign, expected, "block {b}");
        }
        // Rising and falling sweeps, and the turning points between them.
        for sign in [1, -1, 0] {
            assert!(table.blocks().iter().any(|block| block.slew_sign == sign));
        }
    }
}
