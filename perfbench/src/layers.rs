//! Per-layer timings for the traced run: loops of calls into each
//! layer's public functions, over the workload's own fields, each
//! repetition in a span; plus the single-threaded replay of served
//! requests through the worker's stages in the worker's order.

use crate::host::Sampler;
use crate::inputs::{Draw, RequestStream, StreamKind};
use crate::stats::median;
use crate::trace::Tracer;
use fluxcomp_afe::excitation::ExcitationTable;
use fluxcomp_afe::frontend::FrontEnd;
use fluxcomp_compass::{CheckedReading, CompassDesign, DegradedTracker, MeasureScratch, Reading};
use fluxcomp_rtl::cordic::CordicArctan;
use fluxcomp_rtl::counter::{ClockSchedule, UpDownCounter};
use fluxcomp_serve::protocol::{REQUEST_LEN_VECTOR, RESPONSE_LEN, WIRE_VERSION};
use fluxcomp_serve::{
    BatchQueue, CachedFix, FieldSpec, FixCache, FixKey, FixRequest, FixResponse, ServeConfig,
    Status,
};
use fluxcomp_units::angle::Degrees;
use fluxcomp_units::magnetics::AmperePerMeter;
use fluxcomp_units::si::Volt;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of every timed loop; the median repetition is reported.
const REPS: usize = 7;
/// Fixes whose fields feed the per-stage loops.
const STAGE_FIXES: usize = 8;
/// Calls per repetition of the nanosecond-scale loops.
const MICRO_CALLS: usize = 4096;
/// Requests replayed through the worker's stages.
pub const REPLAY: usize = 64;

/// A per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Times `REPS` repetitions of `body` (which makes `calls` calls), each
/// in a span named `name`, and returns the median ns per call at nominal
/// host speed.
fn per_call_ns(
    tracer: &mut Tracer,
    host: &Sampler,
    name: &'static str,
    calls: usize,
    mut body: impl FnMut(),
) -> f64 {
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        tracer.scope(name, None, |_| body());
        let end = Instant::now();
        samples.push((end - t).as_nanos() as f64 / calls as f64 / host.factor(t, end));
    }
    median(&samples)
}

/// Axial field components of the workload's first fixes (both axes).
fn stage_fields(design: &CompassDesign, stream: &RequestStream) -> Vec<AmperePerMeter> {
    (0..STAGE_FIXES as u64)
        .flat_map(|k| {
            let (hx, hy) = match stream.draw(k).request.field {
                FieldSpec::FieldVector { hx, hy } => {
                    (AmperePerMeter::new(hx), AmperePerMeter::new(hy))
                }
                FieldSpec::HeadingTruth(deg) => design.axial_fields(Degrees::new(deg)),
            };
            [hx, hy]
        })
        .collect()
}

/// One health-checked fix the way a serve worker computes it.
fn measure_checked(
    design: &CompassDesign,
    request: &FixRequest,
    scratch: &mut MeasureScratch,
    tracker: &mut DegradedTracker,
) -> CheckedReading {
    match request.field {
        FieldSpec::HeadingTruth(deg) => {
            design.measure_heading_checked(Degrees::new(deg), request.seed, scratch, None, tracker)
        }
        FieldSpec::FieldVector { hx, hy } => design.measure_field_checked(
            AmperePerMeter::new(hx),
            AmperePerMeter::new(hy),
            request.seed,
            scratch,
            None,
            tracker,
        ),
    }
}

fn cached(reading: &Reading) -> CachedFix {
    CachedFix {
        heading: reading.heading.value(),
        duty_x: reading.x.duty,
        duty_y: reading.y.duty,
        count_x: reading.x.count,
        count_y: reading.y.count,
        clipped: reading.x.clipped || reading.y.clipped,
    }
}

fn response(id: u64, fix: &CachedFix, hit: bool) -> FixResponse {
    FixResponse {
        id,
        status: Status::Ok,
        cache_hit: hit,
        clipped: fix.clipped,
        quality: fluxcomp_compass::FixQuality::Good,
        heading: fix.heading,
        duty_x: fix.duty_x,
        duty_y: fix.duty_y,
        count_x: fix.count_x,
        count_y: fix.count_y,
    }
}

/// Times every layer's calls over the workload's fields. `compass.fix_us`
/// and the shares use the fix entry point the workload uses.
pub fn time_layers(
    design: &CompassDesign,
    stream: &RequestStream,
    tracer: &mut Tracer,
    host: &Sampler,
) -> Vec<Metric> {
    let cfg = design.config();
    let mut fe_cfg = cfg.frontend.clone();
    fe_cfg.sensor = cfg.pair.element;
    let frontend = FrontEnd::new(fe_cfg.clone()).expect("the paper front-end builds");
    let sensor = frontend.sensor();
    let table = frontend.excitation_table();
    let spp = fe_cfg.samples_per_period;
    let fields = stage_fields(design, stream);
    let noise_seed = fe_cfg.noise_seed;
    let mut out: Vec<Metric> = Vec::new();

    // afe: the excitation table, once per design.
    let build_ns = per_call_ns(tracer, host, "afe.excitation_table_build", 1, || {
        black_box(ExcitationTable::build(
            &fe_cfg.excitation,
            &fe_cfg.vi,
            sensor,
            spp,
        ));
    });
    out.push(("afe.excitation_table_build_ms", build_ns / 1e6, "ms"));

    // fluxgate: pickup EMF over one period of drive samples per field.
    let pickup_ns = per_call_ns(
        tracer,
        host,
        "fluxgate.pickup_emf",
        fields.len() * spp,
        || {
            for &h_ext in &fields {
                for drive in table.samples() {
                    black_box(sensor.pickup_emf(black_box(drive.h_drive + h_ext), drive.dh_dt));
                }
            }
        },
    );
    out.push(("fluxgate.pickup_emf_ns", pickup_ns, "ns"));

    // afe: the detector over the same pickup waveforms.
    let pickups: Vec<Volt> = fields
        .iter()
        .flat_map(|&h_ext| {
            table
                .samples()
                .iter()
                .map(move |d| sensor.pickup_emf(d.h_drive + h_ext, d.dh_dt))
        })
        .collect();
    let mut detector = fluxcomp_afe::detector::PulsePositionDetector::new(fe_cfg.detector);
    let detector_ns = per_call_ns(tracer, host, "afe.detector_step", pickups.len(), || {
        detector.reset();
        for &v in &pickups {
            black_box(detector.step(black_box(v)));
        }
    });
    out.push(("afe.detector_step_ns", detector_ns, "ns"));

    // rtl: the up/down counter fed by the clock schedule, over the
    // detector outputs of each field's measurement window.
    let window = fe_cfg.measure_periods as f64 / fe_cfg.excitation.frequency().value();
    let n_measure = fe_cfg.measure_periods * spp;
    let schedule = ClockSchedule::new(n_measure, window, cfg.clock.master());
    let mut bits: Vec<bool> = Vec::with_capacity(fields.len() * n_measure);
    for &h_ext in &fields {
        frontend.measure_into(h_ext, noise_seed, &mut detector, |_, up| bits.push(up));
    }
    let mut counter = UpDownCounter::paper_design();
    let clock_ns = per_call_ns(tracer, host, "rtl.clock_n", bits.len(), || {
        for chunk in bits.chunks(n_measure) {
            counter.reset();
            for (i, &up) in chunk.iter().enumerate() {
                counter.clock_n(black_box(up), schedule.edges_at(i));
            }
            black_box(counter.value());
        }
    });
    out.push(("rtl.clock_n_ns", clock_ns, "ns"));

    // The workload's own fixes, serially, through its entry point.
    let mut scratch = MeasureScratch::for_design(design);
    let mut tracker = DegradedTracker::for_design(design);
    let draws: Vec<Draw> = (0..STAGE_FIXES as u64).map(|k| stream.draw(k)).collect();
    let readings: Vec<Reading> = draws
        .iter()
        .map(|d| stream.direct(&d.request, &mut scratch))
        .collect();

    // rtl: CORDIC over the fixes' counts.
    let cordic = CordicArctan::new(cfg.cordic_iterations);
    let counts: Vec<(i64, i64)> = readings.iter().map(|r| (-r.x.count, -r.y.count)).collect();
    let cordic_ns = per_call_ns(tracer, host, "rtl.cordic_heading", MICRO_CALLS, || {
        for i in 0..MICRO_CALLS {
            let (x, y) = counts[i % counts.len()];
            let _ = black_box(cordic.heading(black_box(x), black_box(y)));
        }
    });
    out.push(("rtl.cordic_heading_ns", cordic_ns, "ns"));

    // afe: one axis measurement, trace-free.
    let axis_ns = per_call_ns(tracer, host, "afe.measure_into", fields.len(), || {
        for &h_ext in &fields {
            black_box(
                frontend.measure_into(h_ext, noise_seed, &mut detector, |_, up| {
                    black_box(up);
                }),
            );
        }
    });
    out.push(("afe.measure_axis_us", axis_ns / 1e3, "us"));

    // compass: whole fixes, serially.
    let fix_ns = per_call_ns(tracer, host, "compass.fix", draws.len(), || {
        for d in &draws {
            if stream.kind() == StreamKind::SweepHeadings {
                black_box(stream.direct(&d.request, &mut scratch));
            } else {
                black_box(measure_checked(
                    design,
                    &d.request,
                    &mut scratch,
                    &mut tracker,
                ));
            }
        }
    });
    out.push(("compass.fix_us", fix_ns / 1e3, "us"));
    let periods = (fe_cfg.settle_periods + fe_cfg.measure_periods) as f64;
    let analog_calls = 2.0 * periods * spp as f64;
    let counter_calls = 2.0 * n_measure as f64;
    let shares = [
        ("compass.share.pickup_emf", analog_calls * pickup_ns),
        ("compass.share.detector", analog_calls * detector_ns),
        ("compass.share.counter", counter_calls * clock_ns),
        ("compass.share.cordic", cordic_ns),
    ];
    let mut accounted = 0.0;
    for (name, ns) in shares {
        accounted += ns / fix_ns;
        out.push((name, ns / fix_ns, "ratio"));
    }
    out.push(("compass.share.other", 1.0 - accounted, "ratio"));

    // compass: the health verdict.
    let assess_ns = per_call_ns(tracer, host, "compass.assess", MICRO_CALLS, || {
        for i in 0..MICRO_CALLS {
            black_box(tracker.assess(readings[i % readings.len()].clone()));
        }
    });
    out.push(("compass.assess_ns", assess_ns, "ns"));

    // serve.protocol: request decode, response encode.
    let payloads: Vec<([u8; REQUEST_LEN_VECTOR], usize)> = draws
        .iter()
        .map(|d| {
            let mut buf = [0u8; REQUEST_LEN_VECTOR];
            let len = d.request.encode_payload(&mut buf);
            (buf, len)
        })
        .collect();
    let decode_ns = per_call_ns(tracer, host, "serve.protocol.decode", MICRO_CALLS, || {
        for i in 0..MICRO_CALLS {
            let (buf, len) = &payloads[i % payloads.len()];
            let _ = black_box(FixRequest::decode_versioned(black_box(&buf[..*len])));
        }
    });
    out.push(("serve.protocol.decode_ns", decode_ns, "ns"));
    let responses: Vec<FixResponse> = readings
        .iter()
        .zip(&draws)
        .map(|(r, d)| response(d.request.id, &cached(r), false))
        .collect();
    let mut frame = [0u8; RESPONSE_LEN];
    let encode_ns = per_call_ns(tracer, host, "serve.protocol.encode", MICRO_CALLS, || {
        for i in 0..MICRO_CALLS {
            let r = &responses[i % responses.len()];
            black_box(r.encode_payload_versioned(WIRE_VERSION, black_box(&mut frame)));
        }
    });
    out.push(("serve.protocol.encode_ns", encode_ns, "ns"));

    // serve.queue: push then batch-pop, single-threaded (uncontended).
    let config = ServeConfig::default();
    let queue: BatchQueue<FixRequest> = BatchQueue::new(config.queue_capacity);
    let mut batch = Vec::with_capacity(config.batch_max);
    let queue_ns = per_call_ns(tracer, host, "serve.queue.push_pop", MICRO_CALLS, || {
        for chunk in 0..MICRO_CALLS / config.batch_max {
            for i in 0..config.batch_max {
                let _ = queue.try_push(draws[(chunk + i) % draws.len()].request);
            }
            queue.pop_batch(config.batch_max, &mut batch);
            black_box(&batch);
        }
    });
    out.push(("serve.queue.push_pop_ns", queue_ns, "ns"));

    // serve.cache: keys, hits, misses and evicting inserts at the
    // server's capacity and shard count.
    let key_for = |k: usize, salt: u64| {
        let mut request = draws[k % draws.len()].request;
        request.seed = request.seed.wrapping_add(salt + k as u64);
        request
    };
    let resident: Vec<FixRequest> = (0..config.cache_capacity).map(|k| key_for(k, 0)).collect();
    let absent: Vec<FixRequest> = (0..MICRO_CALLS).map(|k| key_for(k, 1 << 40)).collect();
    let key_ns = per_call_ns(tracer, host, "serve.cache.key", resident.len(), || {
        for r in &resident {
            black_box(FixKey::for_request(black_box(r)));
        }
    });
    out.push(("serve.cache.key_ns", key_ns, "ns"));
    let to_key = |r: &FixRequest| FixKey::for_request(r).expect("seeded fields are finite");
    let resident: Vec<FixKey> = resident.iter().map(to_key).collect();
    let absent: Vec<FixKey> = absent.iter().map(to_key).collect();
    let value = cached(&readings[0]);
    let cache = FixCache::new(config.cache_capacity, config.cache_shards);
    for &k in &resident {
        cache.insert(k, value);
    }
    let hits: Vec<FixKey> = resident
        .iter()
        .copied()
        .filter(|k| cache.get(k).is_some())
        .collect();
    let get_hit_ns = per_call_ns(tracer, host, "serve.cache.get_hit", hits.len(), || {
        for k in &hits {
            black_box(cache.get(black_box(k)));
        }
    });
    out.push(("serve.cache.get_hit_ns", get_hit_ns, "ns"));
    let get_miss_ns = per_call_ns(tracer, host, "serve.cache.get_miss", absent.len(), || {
        for k in &absent {
            black_box(cache.get(black_box(k)));
        }
    });
    out.push(("serve.cache.get_miss_ns", get_miss_ns, "ns"));
    // Each repetition inserts keys the cache has not seen, so every
    // insert into a full shard evicts.
    let mut salt = 2u64 << 40;
    let insert_ns = per_call_ns(tracer, host, "serve.cache.insert", MICRO_CALLS, || {
        salt += 1 << 32;
        for k in 0..MICRO_CALLS {
            cache.insert(to_key(&key_for(k, salt)), value);
        }
    });
    // `insert_ns` includes building the key; report the insert alone.
    out.push(("serve.cache.insert_ns", (insert_ns - key_ns).max(0.0), "ns"));
    out
}

/// Replays `served` requests single-threaded through the worker's
/// stages in the worker's order — decode → `FixKey::for_request` →
/// `FixCache::get` → on a miss the checked measurement → `insert` →
/// encode — each stage in a span, and returns how many replayed
/// responses differ from what the server sent.
pub fn replay(
    design: &CompassDesign,
    served: &[(FixRequest, FixResponse)],
    tracer: &mut Tracer,
) -> u64 {
    let config = ServeConfig::default();
    let cache = FixCache::new(config.cache_capacity, config.cache_shards);
    let mut scratch = MeasureScratch::for_design(design);
    let mut tracker = DegradedTracker::for_design(design);
    let mut mismatched = 0;
    for (request, served) in served.iter().take(REPLAY) {
        let id = Some(request.id);
        let mut payload = [0u8; REQUEST_LEN_VECTOR];
        let len = request.encode_payload(&mut payload);
        let replayed = tracer.scope("replay.request", id, |t| {
            let (decoded, version) = t
                .scope("serve.protocol.decode", id, |_| {
                    FixRequest::decode_versioned(&payload[..len])
                })
                .map_err(|_| ())?;
            let key = t
                .scope("serve.cache.key", id, |_| FixKey::for_request(&decoded))
                .ok_or(())?;
            let fix = match t.scope("serve.cache.get", id, |_| cache.get(&key)) {
                Some(hit) => response(decoded.id, &hit, true),
                None => {
                    let checked = t.scope("compass.measure_checked", id, |_| {
                        measure_checked(design, &decoded, &mut scratch, &mut tracker)
                    });
                    let fix = cached(&checked.reading);
                    t.scope("serve.cache.insert", id, |_| cache.insert(key, fix));
                    let mut r = response(decoded.id, &fix, false);
                    r.quality = checked.quality;
                    r
                }
            };
            let mut frame = [0u8; RESPONSE_LEN];
            t.scope("serve.protocol.encode", id, |_| {
                fix.encode_payload_versioned(version, &mut frame)
            });
            FixResponse::decode_payload(&frame).map_err(|_| ())
        });
        let same = match replayed {
            Ok(r) => {
                r.status == served.status
                    && r.quality == served.quality
                    && r.heading.to_bits() == served.heading.to_bits()
                    && r.duty_x.to_bits() == served.duty_x.to_bits()
                    && r.duty_y.to_bits() == served.duty_y.to_bits()
                    && r.count_x == served.count_x
                    && r.count_y == served.count_y
                    && r.clipped == served.clipped
            }
            Err(()) => false,
        };
        mismatched += u64::from(!same);
    }
    mismatched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::Rig;
    use std::time::Duration;

    #[test]
    fn replay_reproduces_the_served_bits() {
        for kind in [
            StreamKind::Fresh,
            StreamKind::Hot,
            StreamKind::SweepHeadings,
        ] {
            let (mut rig, _) = Rig::setup(kind, 8, 2).expect("rig");
            let open = rig
                .open_loop(400.0, Duration::from_millis(100))
                .expect("open loop");
            let served: Vec<(FixRequest, FixResponse)> = open
                .exchanges
                .iter()
                .filter_map(|x| x.answer.as_ref().map(|(_, r)| (x.draw.request, *r)))
                .collect();
            assert!(served.len() >= 30, "{kind:?}");
            let mut tracer = Tracer::new(Instant::now());
            assert_eq!(
                replay(rig.server.design(), &served, &mut tracer),
                0,
                "{kind:?}"
            );
            let totals = tracer.totals();
            assert_eq!(
                totals["replay.request"].count,
                served.len().min(REPLAY) as u64
            );
            assert!(totals.contains_key("compass.measure_checked"));

            // A served fix whose bits were altered is caught.
            let mut tampered = served.clone();
            tampered[0].1.count_x += 1;
            assert_eq!(
                replay(rig.server.design(), &tampered, &mut tracer),
                1,
                "{kind:?}"
            );
        }
    }
}
