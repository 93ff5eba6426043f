//! Property tests for the sensor physics.

use fluxcomp_fluxgate::core_model::{CoreModel, Sweep};
use fluxcomp_fluxgate::earth::{EarthField, MagneticDisturbance};
use fluxcomp_fluxgate::jiles_atherton::{JaParams, JilesAthertonCore};
use fluxcomp_fluxgate::pair::{SensorPair, SensorPairParams};
use fluxcomp_fluxgate::transducer::{Fluxgate, FluxgateParams};
use fluxcomp_units::magnetics::{AmperePerMeter, Tesla, MU_0};
use fluxcomp_units::si::Ampere;
use fluxcomp_units::Degrees;
use proptest::prelude::*;

proptest! {
    /// The anhysteretic B(H) curve is strictly increasing (µ > 0
    /// everywhere) and odd.
    #[test]
    fn anhysteretic_monotone_and_odd(h1 in -500.0f64..500.0, h2 in -500.0f64..500.0) {
        let m = CoreModel::anhysteretic(Tesla::new(0.5), AmperePerMeter::new(40.0));
        let b1 = m.b(AmperePerMeter::new(h1), Sweep::Up).value();
        let b2 = m.b(AmperePerMeter::new(h2), Sweep::Up).value();
        if h1 < h2 {
            prop_assert!(b1 < b2);
        }
        let bneg = m.b(AmperePerMeter::new(-h1), Sweep::Up).value();
        prop_assert!((b1 + bneg).abs() < 1e-12);
        prop_assert!(m.mu_diff(AmperePerMeter::new(h1), Sweep::Up) > 0.0);
    }

    /// |B| never exceeds B_sat + µ0·|H| (the physical bound).
    #[test]
    fn flux_density_bounded(h in -1e5f64..1e5) {
        let m = CoreModel::anhysteretic(Tesla::new(0.5), AmperePerMeter::new(40.0));
        let b = m.b(AmperePerMeter::new(h), Sweep::Up).value().abs();
        let bound = 0.5 + fluxcomp_units::MU_0 * h.abs() + 1e-12;
        prop_assert!(b <= bound);
    }

    /// Current → field → current round-trips through the transducer.
    #[test]
    fn transducer_current_field_bijection(ma in -50.0f64..50.0) {
        let s = Fluxgate::new(FluxgateParams::adapted());
        let i = Ampere::new(ma * 1e-3);
        let back = s.current_for_field(s.h_from_current(i));
        prop_assert!((back.value() - i.value()).abs() < 1e-15);
    }

    /// Pickup EMF is linear in the field slew rate.
    #[test]
    fn pickup_emf_linear_in_slew(h in -200.0f64..200.0, slew in 1e3f64..1e7) {
        let s = Fluxgate::new(FluxgateParams::adapted());
        let ha = AmperePerMeter::new(h);
        let v1 = s.pickup_emf(ha, slew).value();
        let v2 = s.pickup_emf(ha, 2.0 * slew).value();
        prop_assert!((v2 - 2.0 * v1).abs() < 1e-9 * v1.abs().max(1e-12));
    }

    /// The earth-model heading round-trip holds for any heading and any
    /// nonzero horizontal field.
    #[test]
    fn earth_heading_round_trip(heading in 0.0f64..360.0, ut in 1.0f64..80.0) {
        let f = EarthField::horizontal(Tesla::from_microtesla(ut));
        let (bx, by) = f.body_components(Degrees::new(heading));
        let back = EarthField::heading_from_components(bx, by);
        prop_assert!(back.angular_distance(Degrees::new(heading)).value() < 1e-9);
    }

    /// Disturbance application is affine: applying to a sum equals the
    /// sum of applications minus one extra offset.
    #[test]
    fn disturbance_is_affine(bx in -50.0f64..50.0, by in -50.0f64..50.0,
                              ox in -5.0f64..5.0, oy in -5.0f64..5.0) {
        let d = MagneticDisturbance {
            hard_iron: (Tesla::from_microtesla(ox), Tesla::from_microtesla(oy)),
            soft_iron: [[1.1, 0.05], [-0.03, 0.95]],
        };
        let a = (Tesla::from_microtesla(bx), Tesla::from_microtesla(by));
        let b = (Tesla::from_microtesla(by), Tesla::from_microtesla(bx));
        let (sx, sy) = d.apply(a.0 + b.0, a.1 + b.1);
        let (ax, ay) = d.apply(a.0, a.1);
        let (bx2, by2) = d.apply(b.0, b.1);
        // f(a+b) = f(a) + f(b) − offset.
        prop_assert!((sx.value() - (ax.value() + bx2.value() - d.hard_iron.0.value())).abs() < 1e-18);
        prop_assert!((sy.value() - (ay.value() + by2.value() - d.hard_iron.1.value())).abs() < 1e-18);
    }

    /// An ideal pair recovers any heading exactly from its axial fields.
    #[test]
    fn ideal_pair_recovers_heading(heading in 0.0f64..360.0) {
        let pair = SensorPair::new(SensorPairParams::ideal());
        let f = EarthField::horizontal(Tesla::from_microtesla(20.0));
        let (hx, hy) = pair.axial_fields(&f, Degrees::new(heading));
        let est = Degrees::atan2(hy.value(), hx.value()).normalized();
        prop_assert!(est.angular_distance(Degrees::new(heading)).value() < 1e-9);
    }

    /// The JA core's magnetisation always stays within ±Ms, whatever
    /// drive sequence it sees.
    #[test]
    fn ja_magnetization_bounded(targets in prop::collection::vec(-500.0f64..500.0, 1..12)) {
        let params = JaParams::permalloy_film();
        let mut core = JilesAthertonCore::new(params);
        for t in targets {
            core.drive_to(AmperePerMeter::new(t), 64);
            prop_assert!(core.magnetization().value().abs() <= params.ms + 1e-9);
        }
    }

    /// Within `mu_diff_floor_radius(floor)` of the peak the computed µ
    /// never drops below `floor`: at ±r, at the next float inside ±r and
    /// at interior points. The radius is also at least the exact inverse
    /// at a floor 10⁻⁴ higher, so the margins do not make it useless.
    #[test]
    fn mu_diff_floor_radius_bounds_mu_from_below(
        bsat in 0.05f64..2.0,
        hk in 1.0f64..400.0,
        level in 0.0f64..1.0,
        inner in prop::collection::vec(0.0f64..1.0, 8),
    ) {
        let core = CoreModel::anhysteretic(Tesla::new(bsat), AmperePerMeter::new(hk));
        let floor = MU_0 + level * (bsat / hk);
        let mu = |a: f64| core.mu_diff(AmperePerMeter::new(a), Sweep::Up);
        match core.mu_diff_floor_radius(floor) {
            None => prop_assert!(level > 1.0 - 1e-5, "no radius at level {}", level),
            Some(r) => {
                prop_assert!((0.0..f64::INFINITY).contains(&r), "r = {}", r);
                let sech2 = (floor * (1.0 + 1e-4) - MU_0) / (bsat / hk);
                if sech2 < 1.0 {
                    let exact = hk * (1.0 / sech2.sqrt()).acosh();
                    prop_assert!(r >= exact, "r = {} vs exact {}", r, exact);
                }
                let mut points = vec![r, r.next_down().max(0.0)];
                points.extend(inner.iter().map(|t| t * r));
                for a in points {
                    for a in [a, -a] {
                        prop_assert!(mu(a) >= floor, "µ({}) = {} < {}", a, mu(a), floor);
                    }
                }
            }
        }
    }
}

#[test]
fn mu_diff_floor_radius_edges() {
    let core = CoreModel::anhysteretic(Tesla::new(0.5), AmperePerMeter::new(40.0));
    let peak = core.mu_diff(AmperePerMeter::ZERO, Sweep::Up);
    // At or below µ₀ every argument qualifies, even deep in saturation.
    for floor in [MU_0, MU_0 * 0.5, 0.0, -1.0, f64::NEG_INFINITY] {
        assert_eq!(core.mu_diff_floor_radius(floor), Some(f64::INFINITY));
    }
    for a in [1e3, 1e300, f64::INFINITY] {
        assert!(core.mu_diff(AmperePerMeter::new(a), Sweep::Up) >= MU_0);
    }
    // At or above the sech² peak no argument is guaranteed to.
    for floor in [peak, peak * 1.5, f64::INFINITY] {
        assert_eq!(core.mu_diff_floor_radius(floor), None);
    }
    // Just below the peak the radius is small but real.
    let r = core
        .mu_diff_floor_radius(peak * (1.0 - 1e-3))
        .expect("a radius");
    assert!(r > 0.0 && r < 40.0, "r = {r}");
    assert!(core
        .mu_diff_floor_radius(f64::NAN)
        .expect("NaN radius")
        .is_nan());
}
