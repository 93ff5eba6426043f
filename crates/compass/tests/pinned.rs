//! Literal pins of the fix outputs.
//!
//! The other bit-identity gates compare one measurement path with
//! another (fast == traced, zero plan == clean, kernel == per-sample
//! loop); a change to code both sides share moves them together and
//! those gates still pass. These tests compare against literal values
//! instead: x/y count, duty bits and clipping plus the heading bits of
//! clean, traced and faulted fixes, and the quality of checked fixes,
//! on a noiseless and a noisy design.

use fluxcomp_compass::{CompassConfig, CompassDesign, DegradedTracker, MeasureScratch, Reading};
use fluxcomp_faults::{AxisSel, FaultKind, FaultPlan, FaultSpec};
use fluxcomp_units::angle::Degrees;
use fluxcomp_units::si::Volt;

/// (true heading in degrees, noise seed) of every pinned fix.
const INPUTS: [(f64, u64); 8] = [
    (0.0, 0x5EED),
    (33.0, 1),
    (90.0, 7),
    (123.0, 0xDEAD_BEEF),
    (201.5, 42),
    (287.25, 3),
    (359.0, 0xFA17),
    (45.0, 99),
];

/// The paper design (noiseless) and a noisy one.
fn designs() -> [CompassDesign; 2] {
    let mut noisy = CompassConfig::paper_design();
    noisy.frontend.pickup_noise_rms = 2e-3;
    noisy.frontend.detector.hysteresis = Volt::new(0.016);
    [CompassConfig::paper_design(), noisy].map(|cfg| CompassDesign::new(cfg).expect("valid design"))
}

fn spec(kind: FaultKind, axis: AxisSel) -> FaultSpec {
    FaultSpec {
        kind,
        axis,
        rate: 1.0,
    }
}

/// One plan per fault kind, each striking both axes on every fix
/// (open, stuck, ramp, dropout, burst), plus a mixed plan.
fn plans() -> [FaultPlan; 6] {
    let both = |kind| FaultPlan::new(0x9127).with(spec(kind, AxisSel::Both));
    [
        both(FaultKind::OpenPickup),
        both(FaultKind::StuckComparator { output: true }),
        both(FaultKind::HkDriftRamp { h_end: 40.0 }),
        both(FaultKind::ExcitationDropout {
            from: 0.3,
            until: 0.5,
        }),
        both(FaultKind::NoiseBurst {
            rms: 0.02,
            from: 0.2,
            until: 0.7,
        }),
        FaultPlan::new(0x3141)
            .with(spec(
                FaultKind::ExcitationDropout {
                    from: 0.6,
                    until: 0.7,
                },
                AxisSel::X,
            ))
            .with(spec(FaultKind::HkDriftRamp { h_end: -25.0 }, AxisSel::Y))
            .with(spec(
                FaultKind::NoiseBurst {
                    rms: 0.01,
                    from: 0.1,
                    until: 0.4,
                },
                AxisSel::Both,
            )),
    ]
}

/// `x count duty clipped | y count duty clipped | heading`, floats as
/// their bit patterns.
fn line(r: &Reading) -> String {
    format!(
        "{} {:#x} {} | {} {:#x} {} | {:#x}",
        r.x.count,
        r.x.duty.to_bits(),
        u8::from(r.x.clipped),
        r.y.count,
        r.y.duty.to_bits(),
        u8::from(r.y.clipped),
        r.heading.value().to_bits()
    )
}

const CLEAN: [&str; 16] = [
    // paper
    "-210 0x3fde680000000000 0 | 0 0x3fe0000000000000 0 | 0x0",
    "-176 0x3fdea80000000000 0 | -114 0x3fdf200000000000 0 | 0x40406a0000000000",
    "0 0x3fe0000000000000 0 | -210 0x3fde680000000000 0 | 0x4056800000000000",
    "114 0x3fe0700000000000 0 | -176 0x3fdea80000000000 0 | 0x405ebd0000000000",
    "194 0x3fe0be0000000000 0 | 78 0x3fe04c0000000000 0 | 0x4069338000000000",
    "-62 0x3fdf880000000000 0 | 200 0x3fe0c20000000000 0 | 0x4071f8a000000000",
    "-210 0x3fde680000000000 0 | 4 0x3fe0040000000000 0 | 0x407671b000000000",
    "-146 0x3fdee00000000000 0 | -146 0x3fdee00000000000 0 | 0x4046800000000000",
    // noisy
    "-212 0x3fde618000000000 0 | 8 0x3fe0098000000000 0 | 0x4076636000000000",
    "-192 0x3fde940000000000 0 | -96 0x3fdf3e0000000000 0 | 0x403a910000000000",
    "-8 0x3fdff20000000000 0 | -200 0x3fde7e0000000000 0 | 0x4055d90000000000",
    "108 0x3fe06dc000000000 0 | -186 0x3fde978000000000 0 | 0x405e210000000000",
    "190 0x3fe0b7c000000000 0 | 78 0x3fe04b0000000000 0 | 0x406941c000000000",
    "-58 0x3fdf8f0000000000 0 | 204 0x3fe0c80000000000 0 | 0x4071e32000000000",
    "-222 0x3fde4e0000000000 0 | 2 0x3fe003c000000000 0 | 0x407678d000000000",
    "-138 0x3fdef50000000000 0 | -138 0x3fdef50000000000 0 | 0x4046800000000000",
];

const FAULTED: [&str; 96] = [
    // paper, open
    "-4194 0x0 0 | -4194 0x0 0 | 0x4046800000000000",
    "-4194 0x0 0 | -4194 0x0 0 | 0x4046800000000000",
    "-4194 0x0 0 | -4194 0x0 0 | 0x4046800000000000",
    "-4194 0x0 0 | -4194 0x0 0 | 0x4046800000000000",
    "-4194 0x0 0 | -4194 0x0 0 | 0x4046800000000000",
    "-4194 0x0 0 | -4194 0x0 0 | 0x4046800000000000",
    "-4194 0x0 0 | -4194 0x0 0 | 0x4046800000000000",
    "-4194 0x0 0 | -4194 0x0 0 | 0x4046800000000000",
    // paper, stuck
    "4194 0x3ff0000000000000 0 | 4194 0x3ff0000000000000 0 | 0x406c200000000000",
    "4194 0x3ff0000000000000 0 | 4194 0x3ff0000000000000 0 | 0x406c200000000000",
    "4194 0x3ff0000000000000 0 | 4194 0x3ff0000000000000 0 | 0x406c200000000000",
    "4194 0x3ff0000000000000 0 | 4194 0x3ff0000000000000 0 | 0x406c200000000000",
    "4194 0x3ff0000000000000 0 | 4194 0x3ff0000000000000 0 | 0x406c200000000000",
    "4194 0x3ff0000000000000 0 | 4194 0x3ff0000000000000 0 | 0x406c200000000000",
    "4194 0x3ff0000000000000 0 | 4194 0x3ff0000000000000 0 | 0x406c200000000000",
    "4194 0x3ff0000000000000 0 | 4194 0x3ff0000000000000 0 | 0x406c200000000000",
    // paper, ramp
    "-600 0x3fdb6a8000000000 0 | -392 0x3fdd030000000000 0 | 0x40406a0000000000",
    "-568 0x3fdbad0000000000 0 | -508 0x3fdc248000000000 0 | 0x4044bf8000000000",
    "-392 0x3fdd030000000000 0 | -600 0x3fdb6a8000000000 0 | 0x404c4c8000000000",
    "-278 0x3fdde00000000000 0 | -568 0x3fdbad0000000000 0 | 0x404fc10000000000",
    "-200 0x3fde7b8000000000 0 | -318 0x3fdd970000000000 0 | 0x404cbf0000000000",
    "-454 0x3fdc890000000000 0 | -194 0x3fde870000000000 0 | 0x4036f30000000000",
    "-600 0x3fdb6b0000000000 0 | -390 0x3fdd098000000000 0 | 0x40406a0000000000",
    "-540 0x3fdbe18000000000 0 | -540 0x3fdbe18000000000 0 | 0x4046800000000000",
    // paper, dropout
    "-1206 0x3fd6ce0000000000 0 | -1048 0x3fd8000000000000 0 | 0x40444d0000000000",
    "-1182 0x3fd6fe0000000000 0 | -1134 0x3fd7580000000000 0 | 0x4045de0000000000",
    "-1048 0x3fd8000000000000 0 | -1206 0x3fd6ce0000000000 0 | 0x40484a0000000000",
    "1230 0x3fe4b2c000000000 0 | -1182 0x3fd6fe0000000000 0 | 0x4061088000000000",
    "1286 0x3fe4e84000000000 0 | -990 0x3fd8720000000000 0 | 0x4061d76000000000",
    "-1094 0x3fd7a60000000000 0 | 1290 0x3fe4eb0000000000 0 | 0x4073687000000000",
    "-1206 0x3fd6ce0000000000 0 | -1046 0x3fd8060000000000 0 | 0x40444d0000000000",
    "-1158 0x3fd7280000000000 0 | -1158 0x3fd7280000000000 0 | 0x4046800000000000",
    // paper, burst
    "116 0x3fe062c000000000 0 | -362 0x3fdd8c8000000000 0 | 0x405aff0000000000",
    "-358 0x3fdcfd8000000000 0 | -418 0x3fdcef0000000000 0 | 0x4048838000000000",
    "-312 0x3fdd928000000000 0 | -372 0x3fdd0f8000000000 0 | 0x4048f60000000000",
    "-278 0x3fde118000000000 0 | -396 0x3fdd170000000000 0 | 0x404b678000000000",
    "-312 0x3fddad8000000000 0 | -320 0x3fde208000000000 0 | 0x4046b98000000000",
    "-398 0x3fdd170000000000 0 | -238 0x3fde068000000000 0 | 0x403e980000000000",
    "-416 0x3fdcdd0000000000 0 | -294 0x3fddb68000000000 0 | 0x4041848000000000",
    "-340 0x3fdd118000000000 0 | -444 0x3fdc5e8000000000 0 | 0x404a100000000000",
    // paper, mixed
    "-716 0x3fda870000000000 0 | 384 0x3fe1724000000000 0 | 0x4074c17000000000",
    "-734 0x3fda748000000000 0 | 248 0x3fe0ed0000000000 0 | 0x407557e000000000",
    "-442 0x3fdc9f8000000000 0 | -100 0x3fdf428000000000 0 | 0x4028fc0000000000",
    "-516 0x3fdc178000000000 0 | 278 0x3fe116c000000000 0 | 0x4074c17000000000",
    "-334 0x3fdd810000000000 0 | 300 0x3fe1260000000000 0 | 0x4073e81000000000",
    "-502 0x3fdc398000000000 0 | 442 0x3fe1a6c000000000 0 | 0x4073ef3000000000",
    "-410 0x3fdcd10000000000 0 | 220 0x3fe0ce8000000000 0 | 0x4074c17000000000",
    "-694 0x3fdab28000000000 0 | 356 0x3fe15e4000000000 0 | 0x4074cfc000000000",
    // noisy, open
    "-4194 0x0 0 | -4194 0x0 0 | 0x4046800000000000",
    "-4194 0x0 0 | -4194 0x0 0 | 0x4046800000000000",
    "-4194 0x0 0 | -4194 0x0 0 | 0x4046800000000000",
    "-4194 0x0 0 | -4194 0x0 0 | 0x4046800000000000",
    "-4194 0x0 0 | -4194 0x0 0 | 0x4046800000000000",
    "-4194 0x0 0 | -4194 0x0 0 | 0x4046800000000000",
    "-4194 0x0 0 | -4194 0x0 0 | 0x4046800000000000",
    "-4194 0x0 0 | -4194 0x0 0 | 0x4046800000000000",
    // noisy, stuck
    "4194 0x3ff0000000000000 0 | 4194 0x3ff0000000000000 0 | 0x406c200000000000",
    "4194 0x3ff0000000000000 0 | 4194 0x3ff0000000000000 0 | 0x406c200000000000",
    "4194 0x3ff0000000000000 0 | 4194 0x3ff0000000000000 0 | 0x406c200000000000",
    "4194 0x3ff0000000000000 0 | 4194 0x3ff0000000000000 0 | 0x406c200000000000",
    "4194 0x3ff0000000000000 0 | 4194 0x3ff0000000000000 0 | 0x406c200000000000",
    "4194 0x3ff0000000000000 0 | 4194 0x3ff0000000000000 0 | 0x406c200000000000",
    "4194 0x3ff0000000000000 0 | 4194 0x3ff0000000000000 0 | 0x406c200000000000",
    "4194 0x3ff0000000000000 0 | 4194 0x3ff0000000000000 0 | 0x406c200000000000",
    // noisy, ramp
    "-598 0x3fdb748000000000 0 | -398 0x3fdcf60000000000 0 | 0x4040a38000000000",
    "-570 0x3fdbaf8000000000 0 | -496 0x3fdc3b8000000000 0 | 0x40444d0000000000",
    "-392 0x3fdd100000000000 0 | -602 0x3fdb6b8000000000 0 | 0x404c4c8000000000",
    "-286 0x3fddd88000000000 0 | -574 0x3fdba30000000000 0 | 0x404fc10000000000",
    "-180 0x3fde9b8000000000 0 | -312 0x3fdda20000000000 0 | 0x404df70000000000",
    "-460 0x3fdc800000000000 0 | -198 0x3fde820000000000 0 | 0x4036f30000000000",
    "-578 0x3fdb930000000000 0 | -396 0x3fdcfa8000000000 0 | 0x4041120000000000",
    "-546 0x3fdbda8000000000 0 | -546 0x3fdbda8000000000 0 | 0x4046800000000000",
    // noisy, dropout
    "-1210 0x3fd6c38000000000 0 | -1038 0x3fd8190000000000 0 | 0x40444d0000000000",
    "-1194 0x3fd6ec0000000000 0 | -1124 0x3fd76b0000000000 0 | 0x40456b8000000000",
    "-1050 0x3fd7f90000000000 0 | -1202 0x3fd6d78000000000 0 | 0x40484a0000000000",
    "-964 0x3fd8a88000000000 0 | -1184 0x3fd6fa0000000000 0 | 0x4049688000000000",
    "1284 0x3fe4e6c000000000 0 | -986 0x3fd8790000000000 0 | 0x4061d76000000000",
    "-1094 0x3fd7a60000000000 0 | 1294 0x3fe4ef8000000000 0 | 0x4073687000000000",
    "-1222 0x3fd6ac8000000000 0 | -1050 0x3fd8000000000000 0 | 0x40444d0000000000",
    "-1148 0x3fd73f0000000000 0 | -1148 0x3fd73f0000000000 0 | 0x4046800000000000",
    // noisy, burst
    "-398 0x3fdce40000000000 0 | -320 0x3fddc98000000000 0 | 0x40434e8000000000",
    "-458 0x3fdcbb8000000000 0 | -442 0x3fdcc20000000000 0 | 0x4045de0000000000",
    "-282 0x3fdd928000000000 0 | -418 0x3fdcf10000000000 0 | 0x404bda0000000000",
    "-298 0x3fde018000000000 0 | -398 0x3fdd538000000000 0 | 0x404a828000000000",
    "-330 0x3fdd6b8000000000 0 | -344 0x3fddd98000000000 0 | 0x4046f28000000000",
    "-344 0x3fdd500000000000 0 | -224 0x3fde3b8000000000 0 | 0x40406a0000000000",
    "-398 0x3fdcce0000000000 0 | -266 0x3fde048000000000 0 | 0x4040d88000000000",
    "-362 0x3fdd450000000000 0 | -426 0x3fdca18000000000 0 | 0x4048bc8000000000",
    // noisy, mixed
    "-738 0x3fda578000000000 0 | 42 0x3fe0284000000000 0 | 0x40764de000000000",
    "-684 0x3fdad40000000000 0 | -138 0x3fdefa8000000000 0 | 0x40264e0000000000",
    "-502 0x3fdc300000000000 0 | 138 0x3fe083c000000000 0 | 0x4075912000000000",
    "-384 0x3fdd0f0000000000 0 | -210 0x3fde670000000000 0 | 0x403c5b0000000000",
    "-580 0x3fdb8c0000000000 0 | 18 0x3fe010c000000000 0 | 0x40766a8000000000",
    "-156 0x3fded00000000000 0 | 692 0x3fe2a10000000000 0 | 0x4071b11000000000",
    "-586 0x3fdb8c0000000000 0 | 164 0x3fe09e0000000000 0 | 0x407589f000000000",
    "-868 0x3fd9658000000000 0 | 42 0x3fe02a4000000000 0 | 0x4076551000000000",
];

const CHECKED: [&str; 14] = [
    // paper: none, open, stuck, ramp, dropout, burst, mixed
    "GGGGGGGG", "IIIIIIII", "IIIIIIII", "GGGGGGGG", "IIIIIIII", "GGGGGGGG", "DDGGGGGD",
    // noisy: none, open, stuck, ramp, dropout, burst, mixed
    "GGGGGGGG", "IIIIIIII", "IIIIIIII", "GGGGGGGG", "IIIIIIII", "GGGGGGGG", "DDGGGDGD",
];

#[test]
fn clean_and_traced_fixes_are_pinned() {
    let mut actual = Vec::new();
    for design in designs() {
        let mut scratch = MeasureScratch::for_design(&design);
        for (deg, seed) in INPUTS {
            let truth = Degrees::new(deg);
            let fast = line(&design.measure_heading_scratch(truth, seed, &mut scratch));
            let traced = line(&design.measure_heading_traced(truth, seed));
            assert_eq!(fast, traced, "{deg}° seed {seed:#x}");
            actual.push(fast);
        }
    }
    assert_eq!(actual, CLEAN, "{actual:#?}");
}

#[test]
fn faulted_fixes_are_pinned() {
    let mut actual = Vec::new();
    for design in designs() {
        let mut scratch = MeasureScratch::for_design(&design);
        for plan in plans() {
            for (deg, seed) in INPUTS {
                let truth = Degrees::new(deg);
                let r = design.measure_heading_scratch_faulted(truth, seed, &mut scratch, &plan);
                actual.push(line(&r));
            }
        }
    }
    assert_eq!(actual, FAULTED, "{actual:#?}");
}

/// One string of quality letters (`G`ood, `D`egraded, `I`nvalid) per
/// design and plan (none first), over `INPUTS` in order through one
/// tracker.
#[test]
fn checked_qualities_are_pinned() {
    let mut actual = Vec::new();
    for design in designs() {
        let mut scratch = MeasureScratch::for_design(&design);
        let plans = plans();
        let plans = std::iter::once(None).chain(plans.iter().map(Some));
        for plan in plans {
            let mut tracker = DegradedTracker::for_design(&design);
            let qualities: String = INPUTS
                .iter()
                .map(|&(deg, seed)| {
                    let checked = design.measure_heading_checked(
                        Degrees::new(deg),
                        seed,
                        &mut scratch,
                        plan,
                        &mut tracker,
                    );
                    format!("{:?}", checked.quality).remove(0)
                })
                .collect();
            actual.push(qualities);
        }
    }
    assert_eq!(actual, CHECKED, "{actual:#?}");
}
