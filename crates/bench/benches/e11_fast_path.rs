//! E11 — the duty-only fast measurement path.
//!
//! The production hot path (the event-driven noiseless kernel behind
//! `FrontEnd::measure_runs`, counted run by run through a precomputed
//! `ClockSchedule`) against the per-sample loop it replaces and the
//! diagnostic full-waveform tier: first the **bit-identity check** over
//! a full 360° sweep — fast and traced must produce the same
//! `AccuracyStats` to the last bit — then the throughput comparison,
//! recorded as a machine-readable `BENCH_sweep.json` for regression
//! tracking.

use criterion::{criterion_group, Criterion};
use fluxcomp_afe::detector::PulsePositionDetector;
use fluxcomp_afe::frontend::FrontEnd;
use fluxcomp_afe::kernel::KernelScratch;
use fluxcomp_bench::{banner, write_bench_json};
use fluxcomp_compass::evaluate::{sweep_headings, sweep_headings_traced};
use fluxcomp_compass::{CompassConfig, CompassDesign, MeasureScratch};
use fluxcomp_exec::ExecPolicy;
use fluxcomp_faults::FixFaults;
use fluxcomp_rtl::counter::{ClockSchedule, UpDownCounter};
use fluxcomp_units::Degrees;
use std::hint::black_box;
use std::time::Instant;

/// Serial fixes per second of `fix`, timed over `n` calls.
fn fixes_per_second(n: usize, mut fix: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for k in 0..n {
        fix(k);
    }
    n as f64 / start.elapsed().as_secs_f64()
}

fn print_experiment() -> std::io::Result<()> {
    banner(
        "E11",
        "duty-only fast path vs full-waveform diagnostic tier",
        "perf: event-driven noiseless kernel + run-length counting",
    );

    let design = CompassDesign::new(CompassConfig::paper_design()).expect("valid design");
    let policy = ExecPolicy::auto();
    let headings = 360usize;

    // Contract first: the two tiers are the same computation.
    let fast = sweep_headings(&design, headings, &policy);
    let traced = sweep_headings_traced(&design, headings, &policy);
    let bit_identical = [
        (fast.max_error, traced.max_error),
        (fast.mean_error, traced.mean_error),
        (fast.rms_error, traced.rms_error),
        (fast.bias, traced.bias),
    ]
    .iter()
    .all(|(f, t)| f.value().to_bits() == t.value().to_bits());
    assert!(
        bit_identical && fast.samples == traced.samples,
        "fast and traced sweeps must agree bit for bit"
    );
    eprintln!("  360° sweep, fast vs traced AccuracyStats: bit-identical ✓");
    eprintln!(
        "  max err {:.4}°, rms {:.4}° (spec ≤ 1°: {})",
        fast.max_error.value(),
        fast.rms_error.value(),
        fast.meets_one_degree_spec()
    );

    // Serial throughput of one complete fix (both axes) on the three
    // tiers. Enough fixes to dwarf timer noise, few enough to keep
    // `cargo bench` turnaround sane.
    let seed = design.config().frontend.noise_seed;
    let mut scratch = MeasureScratch::for_design(&design);
    let fps_fast = fixes_per_second(960, |k| {
        let truth = Degrees::new(k as f64 * 0.375);
        black_box(design.measure_heading_scratch(truth, seed, &mut scratch));
    });
    let fps_traced = fixes_per_second(32, |k| {
        let truth = Degrees::new(k as f64 * 11.25);
        black_box(design.measure_heading_traced(truth, seed));
    });
    // The per-sample loop the kernel replaced: every grid sample stepped
    // and clocked into the counter (the oracle of the kernel's tests).
    let cfg = design.config();
    let mut fe_cfg = cfg.frontend.clone();
    fe_cfg.sensor = cfg.pair.element;
    let fe = FrontEnd::new(fe_cfg).expect("valid front-end");
    let fe_cfg = fe.config();
    let schedule = ClockSchedule::new(
        fe_cfg.measure_periods * fe_cfg.samples_per_period,
        fe_cfg.measure_periods as f64 / fe_cfg.excitation.frequency().value(),
        cfg.clock.master(),
    );
    let mut detector = PulsePositionDetector::new(fe_cfg.detector);
    let mut counter = UpDownCounter::paper_design();
    let fps_per_sample = fixes_per_second(96, |k| {
        let (hx, hy) = design.axial_fields(Degrees::new(k as f64 * 3.75));
        for h in [hx, hy] {
            counter.reset();
            fe.measure_into(h, seed, &mut detector, |index, up| {
                counter.clock_n(up, schedule.edges_at(index));
            });
            black_box(counter.value());
        }
    });
    // Share of the grid the kernel actually evaluates, over the sweep.
    let grid =
        ((fe_cfg.settle_periods + fe_cfg.measure_periods) * fe_cfg.samples_per_period) as f64;
    let none = FixFaults::none();
    let evaluated: u64 = (0..headings)
        .flat_map(|k| {
            let (hx, hy) = design.axial_fields(Degrees::new(k as f64));
            [hx, hy]
        })
        .map(|h| {
            fe.measure_runs(
                h,
                seed,
                &none,
                &mut detector,
                &mut KernelScratch::default(),
                |_| {},
            )
            .evaluated_samples
        })
        .sum();
    let evaluated_share = evaluated as f64 / (2.0 * headings as f64 * grid);
    let speedup = fps_fast / fps_traced;
    let kernel_speedup = fps_fast / fps_per_sample;

    // Logical analogue-grid samples per fix: two axes, settle + measure
    // periods (the kernel evaluates only `evaluated_share` of them).
    let samples_per_fix = 2.0 * grid;

    eprintln!("  serial throughput (one fix = X + Y axis):");
    eprintln!("    traced tier : {fps_traced:>9.1} fixes/s");
    eprintln!("    per-sample  : {fps_per_sample:>9.1} fixes/s");
    eprintln!(
        "    fast path   : {fps_fast:>9.1} fixes/s  ({speedup:.1}x traced, {kernel_speedup:.1}x per-sample)"
    );
    eprintln!(
        "    fast path   : {:.2e} logical analogue samples/s, {:.1} % of them evaluated",
        fps_fast * samples_per_fix,
        evaluated_share * 100.0
    );

    let path = write_bench_json(
        "BENCH_sweep.json",
        "e11_fast_path",
        &[
            ("headings", headings as f64),
            ("fixes_per_s_traced", fps_traced),
            ("fixes_per_s_per_sample", fps_per_sample),
            ("fixes_per_s_fast", fps_fast),
            ("speedup", speedup),
            ("kernel_speedup", kernel_speedup),
            ("evaluated_share", evaluated_share),
            ("samples_per_s_fast", fps_fast * samples_per_fix),
            ("bit_identical", f64::from(u8::from(bit_identical))),
        ],
    )?;
    eprintln!("  -> {}", path.display());
    Ok(())
}

fn bench(c: &mut Criterion) {
    print_experiment().expect("bench artefact written");

    let design = CompassDesign::new(CompassConfig::paper_design()).expect("valid design");
    let seed = design.config().frontend.noise_seed;
    let truth = Degrees::new(123.0);

    let mut group = c.benchmark_group("e11_fast_path");
    group.sample_size(20);
    group.bench_function("fix_traced", |b| {
        b.iter(|| black_box(design.measure_heading_traced(black_box(truth), seed)))
    });
    group.bench_function("fix_fast_fresh", |b| {
        b.iter(|| {
            let mut scratch = MeasureScratch::for_design(&design);
            black_box(design.measure_heading_scratch(black_box(truth), seed, &mut scratch))
        })
    });
    let mut scratch = MeasureScratch::for_design(&design);
    group.bench_function("fix_fast_scratch", |b| {
        b.iter(|| black_box(design.measure_heading_scratch(black_box(truth), seed, &mut scratch)))
    });
    group.finish();
}

criterion_group!(benches, bench);
fluxcomp_bench::bench_main!(benches);
