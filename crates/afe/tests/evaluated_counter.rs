//! `afe.evaluated_samples` is recorded on every measurement path.
//!
//! A binary of its own: the recorder is process-global, so no other
//! test's measurements can land in these counters.

use fluxcomp_afe::detector::PulsePositionDetector;
use fluxcomp_afe::frontend::{FrontEnd, FrontEndConfig};
use fluxcomp_afe::kernel::KernelScratch;
use fluxcomp_faults::FixFaults;
use fluxcomp_units::magnetics::AmperePerMeter;
use fluxcomp_units::si::Volt;

#[test]
fn evaluated_samples_counter_covers_every_path() {
    let session = fluxcomp_obs::init_for_test();
    let paper = FrontEnd::new(FrontEndConfig::paper_design()).expect("paper design");
    let noisy = {
        let mut cfg = FrontEndConfig::paper_design();
        cfg.pickup_noise_rms = 2e-3;
        cfg.detector.hysteresis = Volt::new(0.016);
        FrontEnd::new(cfg).expect("noisy design")
    };
    let ramp = FixFaults {
        hk_ramp: 40.0,
        injected: 1,
        ..FixFaults::none()
    };
    let none = FixFaults::none();
    let h = AmperePerMeter::new(12.0);
    let mut returned = 0;
    // Noiseless (the kernel), noisy and faulted (the per-sample walk).
    for (fe, faults) in [(&paper, &none), (&noisy, &none), (&paper, &ramp)] {
        let mut detector = PulsePositionDetector::new(fe.config().detector);
        returned += fe
            .measure_runs(
                h,
                7,
                faults,
                &mut detector,
                &mut KernelScratch::default(),
                |_| {},
            )
            .evaluated_samples;
    }
    let profile = session.profile().expect("recorder installed");
    assert_eq!(profile.counter("afe.evaluated_samples"), Some(returned));
    let grid = 5 * 4096;
    assert!(returned < 3 * grid, "the kernel skips most of its grid");
    assert_eq!(profile.counter("msim.analog_steps"), Some(3 * grid));
}
