//! Seeded workload inputs. Every input is a pure function of the
//! workload seed and an index, so the same seed replays the identical
//! request stream on any host, thread count or run.

use fluxcomp_compass::{CompassDesign, Reading};
use fluxcomp_exec::{derive_seed, unit_f64};
use fluxcomp_serve::{FieldSpec, FixRequest, FixResponse};
use fluxcomp_units::angle::Degrees;

/// Headings per `sweep` batch (one `par_map_range_scratch` call).
pub const SWEEP_BATCH: usize = 256;

/// Distinct fixes `serve_hot` cycles through. Every one stays cached:
/// the server's 4,096-entry cache splits into 8 shards of 512, and
/// 2,048 seeded keys never fill a shard. Fix `j` sits at a seeded
/// heading inside the `j`-th of 2,048 equal arcs, so every seed's hot set
/// covers the circle evenly.
pub const HOT_SET: usize = 2048;

// Seed domains, so the streams drawn from one workload seed are
// independent of each other.
const SWEEP_DOMAIN: u64 = 0x5357_4545_5000_0000;
const FRESH_DOMAIN: u64 = 0x4652_4553_4800_0000;
const HOT_DOMAIN: u64 = 0x484F_5400_0000_0000;
const NOISE_DOMAIN: u64 = 0x4E4F_4953_4500_0000;
const SAMPLE_DOMAIN: u64 = 0x5341_4D50_4C45_0000;

/// A heading in `[0, 360)` drawn from `(seed, domain, index)`.
fn heading(seed: u64, domain: u64, index: u64) -> f64 {
    360.0 * unit_f64(derive_seed(seed ^ domain, index))
}

/// True heading of fix `index` of the `sweep` workload.
pub fn sweep_heading(seed: u64, index: u64) -> f64 {
    heading(seed, SWEEP_DOMAIN, index)
}

/// `count` distinct indices in `0..n`, drawn from the seed — the
/// subsample the correctness gates recompute.
pub fn sample_indices(seed: u64, n: usize, count: usize) -> Vec<usize> {
    let mut picked: Vec<usize> = Vec::with_capacity(count.min(n));
    let mut draw = 0u64;
    while picked.len() < count.min(n) {
        let i = (unit_f64(derive_seed(seed ^ SAMPLE_DOMAIN, draw)) * n as f64) as usize;
        draw += 1;
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked
}

/// Which request stream a serve phase sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// Every request a distinct field vector and noise seed.
    Fresh,
    /// Requests cycle a [`HOT_SET`] of field vectors and seeds.
    Hot,
    /// The `sweep` workload's headings as heading-truth requests (the
    /// serve probe of the traced `sweep` run).
    SweepHeadings,
}

/// One request of a stream together with the truth it was drawn from.
#[derive(Debug, Clone, Copy)]
pub struct Draw {
    /// The request to send (`id` is the stream index).
    pub request: FixRequest,
    /// The platform's true heading, degrees.
    pub truth: f64,
}

/// A seeded, endless request stream: request `k` is a pure function of
/// `(kind, seed, k)` and the design's field model.
#[derive(Debug, Clone)]
pub struct RequestStream {
    kind: StreamKind,
    seed: u64,
    /// Precomputed draws for the hot set (empty otherwise).
    hot: Vec<Draw>,
    design: CompassDesign,
}

impl RequestStream {
    /// The stream of `kind` for workload seed `seed`.
    pub fn new(kind: StreamKind, seed: u64, design: &CompassDesign) -> Self {
        let mut stream = Self {
            kind,
            seed,
            hot: Vec::new(),
            design: design.clone(),
        };
        if kind == StreamKind::Hot {
            stream.hot = (0..HOT_SET as u64)
                .map(|j| {
                    let arc = 360.0 / HOT_SET as f64;
                    let truth = (j as f64 + heading(seed, HOT_DOMAIN, j) / 360.0) * arc;
                    stream.field_draw(truth, HOT_DOMAIN, j)
                })
                .collect();
        }
        stream
    }

    /// The stream's kind.
    pub fn kind(&self) -> StreamKind {
        self.kind
    }

    /// Distinct fixes in the stream before it repeats (`None`: never).
    pub fn distinct(&self) -> Option<usize> {
        (self.kind == StreamKind::Hot).then_some(HOT_SET)
    }

    /// A field-vector request for a platform at `truth` degrees, with
    /// id and noise seed drawn from `(domain, index)`.
    fn field_draw(&self, truth: f64, domain: u64, index: u64) -> Draw {
        let (hx, hy) = self.design.axial_fields(Degrees::new(truth));
        Draw {
            request: FixRequest {
                id: index,
                seed: derive_seed(self.seed ^ NOISE_DOMAIN ^ domain, index),
                deadline_ms: 0,
                no_cache: false,
                field: FieldSpec::FieldVector {
                    hx: hx.value(),
                    hy: hy.value(),
                },
            },
            truth,
        }
    }

    /// Request `k` of the stream, with id `k`.
    pub fn draw(&self, k: u64) -> Draw {
        match self.kind {
            StreamKind::Fresh => {
                self.field_draw(heading(self.seed, FRESH_DOMAIN, k), FRESH_DOMAIN, k)
            }
            StreamKind::Hot => {
                let mut d = self.hot[(k % HOT_SET as u64) as usize];
                d.request.id = k;
                d
            }
            StreamKind::SweepHeadings => {
                let truth = sweep_heading(self.seed, k);
                Draw {
                    request: FixRequest {
                        id: k,
                        seed: self.design.config().frontend.noise_seed,
                        deadline_ms: 0,
                        no_cache: false,
                        field: FieldSpec::HeadingTruth(truth),
                    },
                    truth,
                }
            }
        }
    }

    /// The fix a direct, in-process measurement gives for `request` — the
    /// reference every served answer must equal bit for bit.
    pub fn direct(
        &self,
        request: &FixRequest,
        scratch: &mut fluxcomp_compass::MeasureScratch,
    ) -> Reading {
        match request.field {
            FieldSpec::HeadingTruth(deg) => {
                self.design
                    .measure_heading_scratch(Degrees::new(deg), request.seed, scratch)
            }
            FieldSpec::FieldVector { hx, hy } => self.design.measure_field_scratch(
                fluxcomp_units::AmperePerMeter::new(hx),
                fluxcomp_units::AmperePerMeter::new(hy),
                request.seed,
                scratch,
            ),
        }
    }
}

/// `true` when a response carries exactly the bits of `reading`.
pub fn same_bits(response: &FixResponse, reading: &Reading) -> bool {
    response.heading.to_bits() == reading.heading.value().to_bits()
        && response.duty_x.to_bits() == reading.x.duty.to_bits()
        && response.duty_y.to_bits() == reading.y.duty.to_bits()
        && response.count_x == reading.x.count
        && response.count_y == reading.y.count
        && response.clipped == (reading.x.clipped || reading.y.clipped)
}

/// `true` when two readings agree bit for bit.
pub fn same_reading(a: &Reading, b: &Reading) -> bool {
    a.heading.value().to_bits() == b.heading.value().to_bits()
        && a.x.duty.to_bits() == b.x.duty.to_bits()
        && a.y.duty.to_bits() == b.y.duty.to_bits()
        && a.x.count == b.x.count
        && a.y.count == b.y.count
        && a.x.clipped == b.x.clipped
        && a.y.clipped == b.y.clipped
}

/// `|heading − truth|` in degrees, on the circle.
pub fn heading_error(heading: f64, truth: f64) -> f64 {
    Degrees::new(heading)
        .signed_error_from(Degrees::new(truth))
        .value()
        .abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluxcomp_compass::CompassConfig;

    fn design() -> CompassDesign {
        CompassDesign::new(CompassConfig::paper_design()).expect("paper design builds")
    }

    fn fingerprint(stream: &RequestStream, n: u64) -> Vec<(u64, u64, u64, u64)> {
        (0..n)
            .map(|k| {
                let d = stream.draw(k);
                let (a, b) = match d.request.field {
                    FieldSpec::FieldVector { hx, hy } => (hx.to_bits(), hy.to_bits()),
                    FieldSpec::HeadingTruth(h) => (h.to_bits(), 0),
                };
                (a, b, d.request.seed, d.truth.to_bits())
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_the_identical_request_stream() {
        let design = design();
        for kind in [
            StreamKind::Fresh,
            StreamKind::Hot,
            StreamKind::SweepHeadings,
        ] {
            let a = RequestStream::new(kind, 42, &design);
            let b = RequestStream::new(kind, 42, &design);
            assert_eq!(fingerprint(&a, 300), fingerprint(&b, 300), "{kind:?}");
        }
        let sweep_a: Vec<u64> = (0..100).map(|k| sweep_heading(9, k).to_bits()).collect();
        let sweep_b: Vec<u64> = (0..100).map(|k| sweep_heading(9, k).to_bits()).collect();
        assert_eq!(sweep_a, sweep_b);
    }

    #[test]
    fn different_seeds_give_different_headings_and_fields() {
        let design = design();
        for kind in [
            StreamKind::Fresh,
            StreamKind::Hot,
            StreamKind::SweepHeadings,
        ] {
            let a = fingerprint(&RequestStream::new(kind, 1, &design), 64);
            let b = fingerprint(&RequestStream::new(kind, 2, &design), 64);
            let shared = a.iter().filter(|x| b.contains(x)).count();
            assert_eq!(shared, 0, "{kind:?} streams overlap across seeds");
        }
        assert_ne!(sweep_heading(1, 0).to_bits(), sweep_heading(2, 0).to_bits());
    }

    #[test]
    fn fresh_requests_are_all_distinct_and_hot_requests_cycle() {
        let design = design();
        let fresh = fingerprint(&RequestStream::new(StreamKind::Fresh, 5, &design), 2000);
        let mut keys: Vec<_> = fresh.iter().map(|f| (f.0, f.1, f.2)).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 2000);
        let hot = RequestStream::new(StreamKind::Hot, 5, &design);
        let a = hot.draw(3).request;
        let b = hot.draw(3 + HOT_SET as u64).request;
        assert_eq!((a.field, a.seed), (b.field, b.seed));
    }

    #[test]
    fn sample_indices_are_distinct_and_in_range() {
        let picked = sample_indices(7, 50, 20);
        assert_eq!(picked.len(), 20);
        assert!(picked.iter().all(|&i| i < 50));
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20);
        assert_eq!(sample_indices(7, 3, 10).len(), 3);
    }
}
