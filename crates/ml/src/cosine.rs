//! A portable, vectorizable cosine.
//!
//! `f64::cos` is the platform libm: its precision is documented as
//! platform- and version-dependent, and a call cannot be vectorized.
//! [`cos_portable`] is multiplies, adds and bit operations only — the
//! same bits on every IEEE-754 target, within 2 ulp of 1.0 of libm — and
//! branch-free in range, so a loop over it vectorizes: two lanes in the
//! baseline SSE2 clone, four in the AVX2 clone and eight in the AVX-512
//! clone, whichever `hetflow_sim::num::dispatch` picks for the CPU. The
//! clones return the same bits: Rust emits no contracted multiply-add,
//! the crate has no `mul_add`, and every lane evaluates its own
//! argument's sequence of operations.

/// Below this magnitude the reduction is exact: `PIO2_1`/`PIO2_2` carry
/// 33 significant bits, so `n * PIO2_x` is exact while `|n| < 2^20`, and
/// `|x| < 2^20` keeps `|n| = |x·2/π| < 0.64·2^20`.
const EXACT_BELOW: f64 = 1_048_576.0;

/// `1.5 · 2^52`: adding it rounds to the nearest integer and leaves that
/// integer (two's complement) in the low mantissa bits.
const TO_INT: f64 = 6_755_399_441_055_744.0;
// fdlibm's constants by bit pattern: 2/π; π/2 in 33-bit pieces (`pio2_1`,
// `pio2_2`, `pio2_2t`); `__kernel_cos` C1..C6; `__kernel_sin` S1..S6.
const INV_PIO2: f64 = f64::from_bits(0x3FE4_5F30_6DC9_C883);
const PIO2_1: f64 = f64::from_bits(0x3FF9_21FB_5440_0000);
const PIO2_2: f64 = f64::from_bits(0x3DD0_B461_1A60_0000);
const PIO2_3: f64 = f64::from_bits(0x3BA3_198A_2E03_7073);
const C: [f64; 6] = [
    f64::from_bits(0x3FA5_5555_5555_554C), f64::from_bits(0xBF56_C16C_16C1_5177),
    f64::from_bits(0x3EFA_01A0_19CB_1590), f64::from_bits(0xBE92_7E4F_809C_52AD),
    f64::from_bits(0x3E21_EE9E_BDB4_B1C4), f64::from_bits(0xBDA8_FAE9_BE88_38D4),
];
const S: [f64; 6] = [
    f64::from_bits(0xBFC5_5555_5555_5549), f64::from_bits(0x3F81_1111_1110_F8A6),
    f64::from_bits(0xBF2A_01A0_19C1_61D5), f64::from_bits(0x3EC7_1DE3_57B1_FE7D),
    f64::from_bits(0xBE5A_E5E6_8A2B_9CEB), f64::from_bits(0x3DE5_D93A_5ACF_D57C),
];

/// `cos(x)` for `|x| < EXACT_BELOW`: round to the nearest multiple of
/// π/2, 3-part Cody–Waite reduction, both fdlibm kernel polynomials,
/// branch-free quadrant select.
#[inline(always)]
fn cos_in_range(x: f64) -> f64 {
    let t = x * INV_PIO2 + TO_INT;
    let (q, n) = (t.to_bits(), t - TO_INT);
    let r = ((x - n * PIO2_1) - n * PIO2_2) - n * PIO2_3;
    let z = r * r;
    let w = z * z;
    let rc = z * (C[0] + z * (C[1] + z * C[2])) + (w * w) * (C[3] + z * (C[4] + z * C[5]));
    let hz = 0.5 * z;
    let one = 1.0 - hz;
    let kcos = one + (((1.0 - one) - hz) + z * rc);
    let rs = S[1] + z * (S[2] + z * S[3]) + z * w * (S[4] + z * S[5]);
    let ksin = r + (z * r) * (S[0] + z * rs);
    // Quadrant q mod 4: 0 → cos r, 1 → −sin r, 2 → −cos r, 3 → sin r.
    let odd = 0u64.wrapping_sub(q & 1);
    let magnitude = (ksin.to_bits() & odd) | (kcos.to_bits() & !odd);
    f64::from_bits(magnitude ^ ((q.wrapping_add(1) & 2) << 62))
}

/// Total cosine: NaN, ±∞ and arguments too large for the exact
/// reduction go to libm (NaN/±∞ → NaN as there).
pub(crate) fn cos_portable(x: f64) -> f64 {
    if x.abs() < EXACT_BELOW { cos_in_range(x) } else { x.cos() }
}

/// `a ← scale · cos(a)` over a tile. One cold check keeps the hot loop
/// branch-free; a lane's value is the same on either side of it.
#[inline(always)]
pub(crate) fn scaled_cos_in_place(args: &mut [f64], scale: f64) {
    if args.iter().fold(true, |ok, a| ok & (a.abs() < EXACT_BELOW)) {
        args.iter_mut().for_each(|a| *a = scale * cos_in_range(*a));
    } else {
        args.iter_mut().for_each(|a| *a = scale * cos_portable(*a));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_4;

    const TWO_ULP: f64 = 2.0 * f64::EPSILON;

    #[test]
    #[allow(clippy::excessive_precision, clippy::approx_constant, reason = "fdlibm's own digits")]
    fn constants_are_fdlibm_s_published_values() {
        // A second, independent spelling of every constant: fdlibm's
        // decimal literals must parse to exactly the bit patterns above.
        assert_eq!(INV_PIO2, 6.36619772367581382433e-01);
        assert_eq!(PIO2_1, 1.57079632673412561417e+00);
        assert_eq!(PIO2_2, 6.07710050630396597660e-11);
        assert_eq!(PIO2_3, 2.02226624879595063154e-21);
        let c = [
            4.16666666666666019037e-02, -1.38888888888741095749e-03, 2.48015872894767294178e-05,
            -2.75573143513906633035e-07, 2.08757232129817482790e-09, -1.13596475577881948265e-11,
        ];
        let s = [
            -1.66666666666666324348e-01, 8.33333333332248946124e-03, -1.98412698298579493134e-04,
            2.75573137070700676789e-06, -2.50507602534068634195e-08, 1.58969099521155010221e-10,
        ];
        assert_eq!((C, S), (c, s));
        assert_eq!(TO_INT, 1.5 * 2f64.powi(52));
    }

    #[test]
    fn output_bits_are_pinned() {
        // The portability claim as a test: FNV-1a over the result bits
        // of a fixed sweep. Any change to a constant, to the evaluation
        // order, or to the quadrant logic lands here first.
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for i in -200_000..=200_000i64 {
            let x = i as f64 * 2.500_000_617e-4;
            h = (h ^ cos_portable(x).to_bits()).wrapping_mul(0x0000_0100_0000_01B3);
        }
        assert_eq!(h, PINNED, "cos_portable bits drifted: {h:#018x}");
    }
    const PINNED: u64 = 0xFB25_4D98_E7DA_2737;

    #[test]
    fn within_two_ulp_of_libm_on_a_dense_sweep() {
        let mut worst = 0.0f64;
        for i in -2_000_000..=2_000_000i64 {
            // Irrational step so the sweep does not sit on a lattice.
            let x = i as f64 * 5.000_000_123e-4;
            worst = worst.max((cos_portable(x) - x.cos()).abs());
        }
        assert!(worst <= TWO_ULP, "max |error| {worst:e}");
    }

    #[test]
    fn within_two_ulp_at_every_multiple_of_quarter_pi() {
        let n = (1e3 / FRAC_PI_4) as i64;
        for i in -n..=n {
            let x = i as f64 * FRAC_PI_4;
            for x in [x, x.next_up(), x.next_down()] {
                let err = (cos_portable(x) - x.cos()).abs();
                assert!(err <= TWO_ULP, "x {x:e}: error {err:e}");
            }
        }
    }

    #[test]
    fn zero_is_exactly_one_and_the_function_is_even() {
        assert_eq!(cos_portable(0.0), 1.0);
        assert_eq!(cos_portable(-0.0), 1.0);
        let mut x = 1e-9;
        while x < EXACT_BELOW {
            assert_eq!(cos_portable(x).to_bits(), cos_portable(-x).to_bits(), "x {x:e}");
            x *= 1.37;
        }
    }

    #[test]
    fn non_finite_inputs_give_nan() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(cos_portable(x).is_nan());
            let mut tile = [0.5, x, -3.0];
            scaled_cos_in_place(&mut tile, 2.0);
            assert!(tile[1].is_nan());
            // In-range neighbours of a guarded lane keep the portable bits.
            assert_eq!(tile[0].to_bits(), (2.0 * cos_in_range(0.5)).to_bits());
            assert_eq!(tile[2].to_bits(), (2.0 * cos_in_range(-3.0)).to_bits());
        }
    }

    #[test]
    fn beyond_the_guard_is_libm_exactly() {
        for x in [EXACT_BELOW, -EXACT_BELOW, 3.7e9, -1e300] {
            assert_eq!(cos_portable(x).to_bits(), x.cos().to_bits());
        }
        // Just inside the guard the reduction is still accurate.
        let x = EXACT_BELOW.next_down();
        assert!((cos_portable(x) - x.cos()).abs() <= TWO_ULP);
    }
}
