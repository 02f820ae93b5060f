//! Portable elementary functions: the same bits on every IEEE-754 target.
//!
//! `f64::exp` is the platform libm: its last bit follows the libm build
//! (glibc picks an FMA variant at load time on hosts that have FMA), and a
//! call cannot be vectorized. [`exp`] is the table-driven algorithm glibc
//! (since 2.28) and musl ship, ARM's optimized-routines `exp`, ported with
//! its constants as bit patterns and without `mul_add`: multiplies, adds
//! and bit operations only, so it returns the same bits everywhere, within
//! 1 ulp of any correct libm. [`exp_in_place`] is its branch-free body
//! over a slice, which vectorizes wherever it is inlined.
//!
//! **The algorithm.** `x = k·ln2/N + r` with `N = 128`, `k` the nearest
//! integer to `x·N/ln2` (rounded by adding `1.5·2⁵²`) and `|r| ≤ ln2/2N`
//! by a two-part Cody–Waite reduction; `exp(x) = 2^(k/N)·exp(r)`, where
//! `2^(k/N)` is a table entry `2^(i/N)` (`i = k mod N`, stored as a
//! double `scale` with its exponent pre-shifted and a correction `tail`)
//! with `k div N` added to the exponent bits, and `exp(r) − 1` is a
//! degree-5 polynomial. Below `|x| < 512` the scale is a normal double;
//! beyond it, and for NaN and ±∞, [`exp`] takes glibc's special-case
//! path: overflow to `+∞`, results in the subnormal range rounded once,
//! underflow to `+0`.
//!
//! **One source, three clones.** [`dispatch`] runs a kernel body inside
//! a `#[target_feature(enable = "avx512f")]` function when the CPU
//! reports AVX-512F, inside an `avx2` one when it reports AVX2, and
//! plainly otherwise (and off x86-64), so LLVM compiles each kernel three
//! times from the same source (baseline SSE2, AVX2, AVX-512) and the CPU
//! chooses at run time; no option or build flag is involved. Each clone
//! is the same sequence of IEEE-754 operations in wider registers:
//! `avx512f` implies `fma`, but Rust never contracts `a * b + c`, the
//! workspace has no `mul_add`, and no reduction is split across lanes,
//! so every clone returns the same bits (CI's disassembly guard checks
//! that none holds an FMA). A `#[target_feature]` function changes only
//! the code inlined into it, so each body closure and every kernel
//! function it reaches is `#[inline(always)]`; a callee left out of line
//! runs its baseline copy.

/// `N/ln 2`, `−ln 2/N` in two parts (the high one ends in 17 zero bits,
/// so `k·NEG_LN2_HI_N` is exact for `|k| < 2¹⁷`), and the rounding shift
/// `1.5·2⁵²`.
const INV_LN2_N: f64 = f64::from_bits(0x4067_1547_652B_82FE);
const NEG_LN2_HI_N: f64 = f64::from_bits(0xBF76_2E42_FEFA_0000);
const NEG_LN2_LO_N: f64 = f64::from_bits(0xBD0C_F79A_BC9E_3B3A);
const SHIFT: f64 = 6_755_399_441_055_744.0;
/// `exp(r) − 1 − r ≈ r²(C[0] + r C[1]) + r⁴(C[2] + r C[3])`.
const C: [f64; 4] = [
    f64::from_bits(0x3FDF_FFFF_FFFF_FDBD), f64::from_bits(0x3FC5_5555_5555_543C),
    f64::from_bits(0x3FA5_5555_CF17_2B91), f64::from_bits(0x3F81_1111_67A4_D017),
];
/// `2^(i/128)` for `i` in `0..128`, two words each: the `tail` with
/// `2^(i/128) ≈ scale·(1 + tail)`, then `scale`'s bits minus `i << 45`,
/// so that adding `k << 45` puts `k div 128` into the exponent.
#[rustfmt::skip]
const T: [u64; 256] = [
    0x0000_0000_0000_0000, 0x3FF0_0000_0000_0000, 0x3C9B_3B4F_1A88_BF6E, 0x3FEF_F63D_A9FB_3335,
    0xBC71_6013_9CD8_DC5D, 0x3FEF_EC9A_3E77_8061, 0xBC90_5E7A_1087_66D1, 0x3FEF_E315_E86E_7F85,
    0x3C8C_D252_3567_F613, 0x3FEF_D9B0_D315_8574, 0xBC8B_CE80_23F9_8EFA, 0x3FEF_D06B_29DD_F6DE,
    0x3C60_F74E_61E6_C861, 0x3FEF_C745_1875_9BC8, 0x3C90_A3E4_5B33_D399, 0x3FEF_BE3E_CAC6_F383,
    0x3C97_9AA6_5D83_7B6D, 0x3FEF_B558_6CF9_890F, 0x3C8E_B51A_92FD_EFFC, 0x3FEF_AC92_2B72_47F7,
    0x3C3E_BE3D_702F_9CD1, 0x3FEF_A3EC_32D3_D1A2, 0xBC6A_0334_8990_6E0B, 0x3FEF_9B66_AFFE_D31B,
    0xBC95_5652_2A2F_BD0E, 0x3FEF_9301_D012_5B51, 0xBC50_80EF_8C4E_EA55, 0x3FEF_8ABD_C06C_31CC,
    0xBC91_C923_B9D5_F416, 0x3FEF_829A_AEA9_2DE0, 0x3C80_D3E3_E95C_55AF, 0x3FEF_7A98_C8A5_8E51,
    0xBC80_1B15_EAA5_9348, 0x3FEF_72B8_3C7D_517B, 0xBC8F_1FF0_55DE_323D, 0x3FEF_6AF9_388C_8DEA,
    0x3C8B_898C_3F13_53BF, 0x3FEF_635B_EB6F_CB75, 0xBC96_D99C_7611_EB26, 0x3FEF_5BE0_8404_5CD4,
    0x3C9A_ECF7_3E3A_2F60, 0x3FEF_5487_3168_B9AA, 0xBC8F_E782_CB86_389D, 0x3FEF_4D50_22FC_D91D,
    0x3C8A_6F41_44A6_C38D, 0x3FEF_463B_8862_8CD6, 0x3C80_7A05_B0E4_047D, 0x3FEF_3F49_917D_DC96,
    0x3C96_8EFD_E3A8_A894, 0x3FEF_387A_6E75_6238, 0x3C87_5E18_F274_487D, 0x3FEF_31CE_4FB2_A63F,
    0x3C80_472B_981F_E7F2, 0x3FEF_2B45_65E2_7CDD, 0xBC96_B87B_3F71_085E, 0x3FEF_24DF_E1F5_6381,
    0x3C82_F7E1_6D09_AB31, 0x3FEF_1E9D_F51F_DEE1, 0xBC3D_219B_1A6F_BFFA, 0x3FEF_187F_D0DA_D990,
    0x3C8B_3782_720C_0AB4, 0x3FEF_1285_A6E4_030B, 0x3C6E_1492_89CE_CB8F, 0x3FEF_0CAF_A93E_2F56,
    0x3C83_4D75_4DB0_ABB6, 0x3FEF_06FE_0A31_B715, 0x3C86_4201_E2AC_744C, 0x3FEF_0170_FC4C_D831,
    0x3C8F_DD39_5DD3_F84A, 0x3FEE_FC08_B264_16FF, 0xBC86_A380_3B8E_5B04, 0x3FEE_F6C5_5F92_9FF1,
    0xBC92_4AED_CC4B_5068, 0x3FEE_F1A7_373A_A9CB, 0xBC99_07F8_1B51_2D8E, 0x3FEE_ECAE_6D05_D866,
    0xBC71_D1E8_3E94_36D2, 0x3FEE_E7DB_34E5_9FF7, 0xBC99_1919_B3CE_1B15, 0x3FEE_E32D_C313_A8E5,
    0x3C85_9F48_A72A_4C6D, 0x3FEE_DEA6_4C12_3422, 0xBC93_1260_7A28_698A, 0x3FEE_DA45_04AC_801C,
    0xBC58_A78F_4817_895B, 0x3FEE_D60A_21F7_2E2A, 0xBC7C_2C9B_6749_9A1B, 0x3FEE_D1F5_D950_A897,
    0x3C43_63ED_60C2_AC11, 0x3FEE_CE08_6061_892D, 0x3C96_6609_3B06_64EF, 0x3FEE_CA41_ED1D_0057,
    0x3C6E_CCE1_DAA1_0379, 0x3FEE_C6A2_B5C1_3CD0, 0x3C93_FF8E_3F0F_1230, 0x3FEE_C32A_F0D7_D3DE,
    0x3C76_90CE_BB7A_AFB0, 0x3FEE_BFDA_D536_2A27, 0x3C93_1DBD_EB54_E077, 0x3FEE_BCB2_99FD_DD0D,
    0xBC8F_9434_0071_A38E, 0x3FEE_B9B2_769D_2CA7, 0xBC87_DECC_DC93_A349, 0x3FEE_B6DA_A2CF_6642,
    0xBC78_DEC6_BD0F_385F, 0x3FEE_B42B_569D_4F82, 0xBC86_1246_EC7B_5CF6, 0x3FEE_B1A4_CA5D_920F,
    0x3C93_3505_18FD_D78E, 0x3FEE_AF47_36B5_27DA, 0x3C7B_98B7_2F8A_9B05, 0x3FEE_AD12_D497_C7FD,
    0x3C90_63E1_E21C_5409, 0x3FEE_AB07_DD48_5429, 0x3C34_C785_5019_C6EA, 0x3FEE_A926_8A59_46B7,
    0x3C94_32E6_2B64_C035, 0x3FEE_A76F_15AD_2148, 0xBC8C_E44A_6199_769F, 0x3FEE_A5E1_B976_DC09,
    0xBC8C_33C5_3BEF_4DA8, 0x3FEE_A47E_B03A_5585, 0xBC84_5378_892B_E9AE, 0x3FEE_A346_34CC_C320,
    0xBC93_CEDD_7856_5858, 0x3FEE_A238_8255_2225, 0x3C57_10AA_807E_1964, 0x3FEE_A155_D44C_A973,
    0xBC93_B3EF_BF5E_2228, 0x3FEE_A09E_667F_3BCD, 0xBC6A_12AD_8734_B982, 0x3FEE_A012_750B_DABF,
    0xBC63_67EF_B86D_A9EE, 0x3FEE_9FB2_3C65_1A2F, 0xBC80_DC3D_54E0_8851, 0x3FEE_9F7D_F951_9484,
    0xBC78_1F64_7E5A_3ECF, 0x3FEE_9F75_E8EC_5F74, 0xBC86_EE4A_C08B_7DB0, 0x3FEE_9F9A_48A5_8174,
    0xBC86_1932_1E55_E68A, 0x3FEE_9FEB_5642_67C9, 0x3C90_9CCB_5E09_D4D3, 0x3FEE_A069_4FDE_5D3F,
    0xBC7B_32DC_B94D_A51D, 0x3FEE_A114_73EB_0187, 0x3C94_ECFD_5467_C06B, 0x3FEE_A1ED_0130_C132,
    0x3C65_EBE1_ABD6_6C55, 0x3FEE_A2F3_36CF_4E62, 0xBC88_A1C5_2FB3_CF42, 0x3FEE_A427_543E_1A12,
    0xBC93_69B6_F13B_3734, 0x3FEE_A589_994C_CE13, 0xBC80_5E84_3A19_FF1E, 0x3FEE_A71A_4623_C7AD,
    0xBC94_D450_D872_576E, 0x3FEE_A8D9_9B44_92ED, 0x3C90_AD67_5B0E_8A00, 0x3FEE_AAC7_D98A_6699,
    0x3C8D_B72F_C1F0_EAB4, 0x3FEE_ACE5_422A_A0DB, 0xBC65_B660_9CC5_E7FF, 0x3FEE_AF32_16B5_448C,
    0x3C7B_F683_59F3_5F44, 0x3FEE_B1AE_9915_7736, 0xBC93_091F_A71E_3D83, 0x3FEE_B45B_0B91_FFC6,
    0xBC5D_A9B8_8B6C_1E29, 0x3FEE_B737_B0CD_C5E5, 0xBC6C_23F9_7C90_B959, 0x3FEE_BA44_CBC8_520F,
    0xBC92_4343_22F4_F9AA, 0x3FEE_BD82_9FDE_4E50, 0xBC85_CA6C_D766_8E4B, 0x3FEE_C0F1_70CA_07BA,
    0x3C71_AFFC_2B91_CE27, 0x3FEE_C491_82A3_F090, 0x3C6D_D235_E10A_73BB, 0x3FEE_C863_19E3_2323,
    0xBC87_C504_2262_2263, 0x3FEE_CC66_7B5D_E565, 0x3C8B_1C86_E3E2_31D5, 0x3FEE_D09B_EC4A_2D33,
    0xBC91_BBD1_D3BC_BB15, 0x3FEE_D503_B23E_255D, 0x3C90_CC31_9CEE_31D2, 0x3FEE_D99E_1330_B358,
    0x3C84_6984_6E73_5AB3, 0x3FEE_DE6B_5579_FDBF, 0xBC82_DFCD_978E_9DB4, 0x3FEE_E36B_BFD3_F37A,
    0x3C8C_1A77_92CB_3387, 0x3FEE_E89F_995A_D3AD, 0xBC90_7B8F_4AD1_D9FA, 0x3FEE_EE07_298D_B666,
    0xBC55_C3D9_56DC_AEBA, 0x3FEE_F3A2_B84F_15FB, 0xBC90_A40E_3DA6_F640, 0x3FEE_F972_8DE5_593A,
    0xBC68_D6F4_38AD_9334, 0x3FEE_FF76_F2FB_5E47, 0xBC91_EEE2_6B58_8A35, 0x3FEF_05B0_30A1_064A,
    0x3C74_FFD7_0A5F_DDCD, 0x3FEF_0C1E_904B_C1D2, 0xBC91_BDFB_FA92_98AC, 0x3FEF_12C2_5BD7_1E09,
    0x3C73_6EAE_30AF_0CB3, 0x3FEF_199B_DD85_529C, 0x3C8E_E332_5C9F_FD94, 0x3FEF_20AB_5FFF_D07A,
    0x3C84_E08F_D109_59AC, 0x3FEF_27F1_2E57_D14B, 0x3C63_CDAF_384E_1A67, 0x3FEF_2F6D_9406_E7B5,
    0x3C67_6B2C_6C92_1968, 0x3FEF_3720_DCEF_9069, 0xBC80_8A18_83CC_B5D2, 0x3FEF_3F0B_555D_C3FA,
    0xBC8F_AD5D_3FFF_FA6F, 0x3FEF_472D_4A07_897C, 0xBC90_0DAE_3875_A949, 0x3FEF_4F87_080D_89F2,
    0x3C74_A385_A63D_07A7, 0x3FEF_5818_DCFB_A487, 0xBC82_919E_2040_220F, 0x3FEF_60E3_16C9_8398,
    0x3C8E_5A50_D5C1_92AC, 0x3FEF_69E6_03DB_3285, 0x3C84_3A59_AC01_6B4B, 0x3FEF_7321_F301_B460,
    0xBC82_D521_07B4_3E1F, 0x3FEF_7C97_337B_9B5F, 0xBC89_2AB9_3B47_0DC9, 0x3FEF_8646_14F5_A129,
    0x3C74_B604_603A_88D3, 0x3FEF_902E_E78B_3FF6, 0x3C83_C5EC_519D_7271, 0x3FEF_9A51_FBC7_4C83,
    0xBC8F_F712_8FD3_91F0, 0x3FEF_A4AF_A2A4_90DA, 0xBC8D_AE98_E223_747D, 0x3FEF_AF48_2D8E_67F1,
    0x3C8E_C3BC_41AA_2008, 0x3FEF_BA1B_EE61_5A27, 0x3C84_2B94_C3A9_EB32, 0x3FEF_C52B_376B_BA97,
    0x3C8A_64A9_31D1_85EE, 0x3FEF_D076_5B6E_4540, 0xBC8E_37BA_E43B_E3ED, 0x3FEF_DBFD_AD9C_BE14,
    0x3C77_893B_4D91_CD9D, 0x3FEF_E7C1_819E_90D8, 0x3C53_05C1_4160_CC89, 0x3FEF_F3C2_2B8F_71F1,
];

/// Below this magnitude [`exp`] takes its branch-free body.
const IN_RANGE: f64 = 512.0;
/// The top 12 bits (sign and exponent) of `2⁻⁵⁴`, `512` and `1024`.
const TOP_TINY: u32 = 0x3C9;
const TOP_512: u32 = 0x408;
const TOP_1024: u32 = 0x409;

/// The reduction and polynomial: `(tmp, sbits, ki)` with `exp(x) =
/// scale·(1 + tmp)`, `scale` the double with bits `sbits` when `|x| <
/// 512`, and `k` in the low bits of `ki`.
#[inline(always)]
fn reduce(x: f64) -> (f64, u64, u64) {
    let kd = INV_LN2_N * x + SHIFT;
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = x + kd * NEG_LN2_HI_N + kd * NEG_LN2_LO_N;
    let i = (ki % 128) as usize;
    let tail = f64::from_bits(T[2 * i]);
    let sbits = T[2 * i + 1].wrapping_add(ki << 45);
    let r2 = r * r;
    let tmp = tail + r + r2 * (C[0] + r * C[1]) + r2 * r2 * (C[2] + r * C[3]);
    (tmp, sbits, ki)
}

/// `exp(x)` for `|x| < 512`: no branch, so a loop over it vectorizes.
/// Below `2⁻⁵⁴` it returns 1, as [`exp`]'s `1 + x` does.
#[inline(always)]
fn exp_in_range(x: f64) -> f64 {
    let (tmp, sbits, _) = reduce(x);
    let scale = f64::from_bits(sbits);
    scale + scale * tmp
}

/// `eˣ`, the same bits on every target: glibc's and musl's algorithm,
/// within 1 ulp of a correctly rounded result.
#[inline]
pub fn exp(x: f64) -> f64 {
    let abstop = (x.to_bits() >> 52) as u32 & 0x7FF;
    if abstop.wrapping_sub(TOP_TINY) < TOP_512 - TOP_TINY {
        exp_in_range(x)
    } else {
        exp_special(x, abstop)
    }
}

/// `x ← exp(x)` over a slice. One cold check keeps the hot loop
/// branch-free; each element gets [`exp`]'s bits on either side of it.
#[inline(always)]
pub fn exp_in_place(xs: &mut [f64]) {
    if xs.iter().fold(true, |ok, x| ok & (x.abs() < IN_RANGE)) {
        xs.iter_mut().for_each(|x| *x = exp_in_range(*x));
    } else {
        xs.iter_mut().for_each(|x| *x = exp(*x));
    }
}

/// [`exp`] off its fast path: `|x| < 2⁻⁵⁴`, `|x| ≥ 512`, ±∞ and NaN.
#[cold]
#[inline(never)]
fn exp_special(x: f64, abstop: u32) -> f64 {
    if abstop < TOP_TINY {
        // Also ±0: `1 + x` is 1 without a spurious underflow.
        return 1.0 + x;
    }
    if abstop >= TOP_1024 {
        return if x == f64::NEG_INFINITY {
            0.0
        } else if abstop == 0x7FF {
            // NaN stays NaN, +∞ stays +∞.
            1.0 + x
        } else if x < 0.0 {
            0.0
        } else {
            f64::INFINITY
        };
    }
    // 512 ≤ |x| < 1024: `scale`'s exponent may leave the normal range, so
    // build it shifted and scale the result back.
    let (tmp, sbits, ki) = reduce(x);
    if ki & 0x8000_0000 == 0 {
        // k > 0: the exponent overflowed by at most 460.
        let scale = f64::from_bits(sbits.wrapping_sub(1009 << 52));
        return f64::from_bits(0x7F00_0000_0000_0000) * (scale + scale * tmp);
    }
    // k < 0: the result may be subnormal. Round `y` to the precision it
    // will have there before scaling, so it is rounded once, not twice.
    let scale = f64::from_bits(sbits.wrapping_add(1022 << 52));
    let mut y = scale + scale * tmp;
    if y < 1.0 {
        let lo = scale - y + scale * tmp;
        let hi = 1.0 + y;
        let lo = 1.0 - hi + y + lo;
        y = (hi + lo) - 1.0;
    }
    f64::MIN_POSITIVE * y
}

/// A clone of the kernels, narrowest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arm {
    /// The target's baseline (SSE2 on x86-64).
    Baseline,
    /// Compiled with `avx2` enabled.
    Avx2,
    /// Compiled with `avx512f` enabled.
    Avx512,
}

impl Arm {
    const ALL: [Arm; 3] = [Arm::Baseline, Arm::Avx2, Arm::Avx512];

    /// Whether the CPU reports every feature this arm's clone is compiled
    /// with: rustc's `avx512f` also enables `avx2`, `fma` and `f16c`.
    fn supported(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        use std::arch::is_x86_feature_detected as has;
        match self {
            Arm::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Arm::Avx2 => has!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Arm::Avx512 => has!("avx512f") && has!("avx2") && has!("fma") && has!("f16c"),
            #[cfg(not(target_arch = "x86_64"))]
            Arm::Avx2 | Arm::Avx512 => false,
        }
    }
}

/// Every arm this CPU can run, narrowest first: what a bit-for-bit test
/// runs a body on through [`run_on`].
pub fn supported_arms() -> impl Iterator<Item = Arm> {
    Arm::ALL.into_iter().filter(|arm| arm.supported())
}

/// The widest arm the CPU supports.
fn widest() -> Arm {
    Arm::ALL.into_iter().rfind(|arm| arm.supported()).unwrap_or(Arm::Baseline)
}

/// Runs `body` in the widest clone the CPU supports.
#[inline(always)]
pub fn dispatch<R>(body: impl FnOnce() -> R) -> R {
    run_on(widest(), body)
}

/// Runs `body` in `arm`'s clone. Panics if the CPU lacks `arm`'s features.
#[inline(always)]
pub fn run_on<R>(arm: Arm, body: impl FnOnce() -> R) -> R {
    assert!(arm.supported(), "this CPU cannot run the {arm:?} clone");
    #[cfg(target_arch = "x86_64")]
    if arm != Arm::Baseline {
        // SAFETY: a clone needs nothing but the features it is compiled
        // with, which `Arm::supported` just found the CPU reports
        // (`is_x86_feature_detected!`).
        #[allow(unsafe_code, reason = "the workspace's one unsafe block; see SAFETY above")]
        return unsafe {
            match arm {
                Arm::Avx512 => avx512(body),
                _ => avx2(body),
            }
        };
    }
    body()
}

/// `body`, with everything inlined into it compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<R>(body: impl FnOnce() -> R) -> R {
    body()
}

/// `body`, with everything inlined into it compiled for AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn avx512<R>(body: impl FnOnce() -> R) -> R {
    body()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::fnv1a;

    #[test]
    #[expect(clippy::print_stdout, reason = "the test log names the arms this host exercised")]
    fn dispatch_runs_the_widest_supported_arm() {
        let arms: Vec<Arm> = supported_arms().collect();
        assert_eq!(arms.first(), Some(&Arm::Baseline));
        assert_eq!(arms.last(), Some(&widest()));
        println!("num::dispatch: arms exercised {arms:?}, entry points run {:?}", widest());
    }

    /// FNV-1a over the bits of `xs`' images under [`exp`].
    fn pin(xs: impl Iterator<Item = f64>) -> u64 {
        fnv1a(&xs.flat_map(|x| exp(x).to_bits().to_le_bytes()).collect::<Vec<u8>>())
    }

    fn ulps(a: f64, b: f64) -> u64 {
        a.to_bits().abs_diff(b.to_bits())
    }

    #[expect(clippy::disallowed_methods, reason = "libm is the oracle here")]
    fn libm(x: f64) -> f64 {
        x.exp()
    }

    #[test]
    fn constants_are_glibc_s_reduction_constants() {
        use std::f64::consts::{LN_2, LOG2_E};
        assert_eq!(INV_LN2_N, 128.0 * LOG2_E);
        // |x| < 512 keeps |k| < 512·128/ln 2 < 2¹⁷.
        assert_eq!(NEG_LN2_HI_N.to_bits() & 0x1_FFFF, 0);
        assert_eq!(NEG_LN2_HI_N + NEG_LN2_LO_N, -LN_2 / 128.0);
        assert_eq!(SHIFT, 1.5 * 2f64.powi(52));
        // The top-12-bit thresholds.
        let top = |x: f64| (x.to_bits() >> 52) as u32;
        assert_eq!((top(2f64.powi(-54)), top(512.0), top(1024.0)), (TOP_TINY, TOP_512, TOP_1024));
    }

    #[test]
    fn table_bits_are_pinned() {
        let bytes: Vec<u8> = T.iter().flat_map(|b| b.to_le_bytes()).collect();
        let h = fnv1a(&bytes);
        assert_eq!(h, TABLE_PINNED, "exp table drifted: {h:#018x}");
    }
    const TABLE_PINNED: u64 = 0x3025_0B75_E556_CAA5;

    /// `a·b` as an exact `hi + lo` (Dekker, Veltkamp split: no FMA).
    fn two_prod(a: f64, b: f64) -> (f64, f64) {
        let split = |v: f64| {
            let c = 134_217_729.0 * v;
            let hi = c - (c - v);
            (hi, v - hi)
        };
        let p = a * b;
        let ((ah, al), (bh, bl)) = (split(a), split(b));
        (p, ((ah * bh - p) + ah * bl + al * bh) + al * bl)
    }

    /// A double-double product, relative error near 2⁻¹⁰⁴.
    fn dd_mul((ah, al): (f64, f64), (bh, bl): (f64, f64)) -> (f64, f64) {
        let (p, e) = two_prod(ah, bh);
        let e = e + (ah * bl + al * bh);
        let s = p + e;
        (s, e - (s - p))
    }

    #[test]
    fn table_is_two_to_the_i_over_128() {
        // Entry `i` as a double-double `scale + scale·tail`. Each is the
        // one before it times entry 1, and entry 1 to the 128th is 2:
        // both to ~2⁻¹⁰⁰ relative, where a wrong scale bit is 2⁻⁵².
        let entry = |i: usize| {
            let scale = f64::from_bits(T[2 * i + 1].wrapping_add((i as u64) << 45));
            (scale, scale * f64::from_bits(T[2 * i]))
        };
        let close = |(h, l): (f64, f64), (h2, l2): (f64, f64), tol: f64| {
            ((h - h2) + (l - l2)).abs() <= tol * h2
        };
        assert_eq!(entry(0), (1.0, 0.0));
        for i in 0..128 {
            let (scale, tail) = entry(i);
            assert!(tail.abs() <= scale * f64::EPSILON / 2.0, "entry {i}: tail above half an ulp");
            let want = if i == 127 { (2.0, 0.0) } else { entry(i + 1) };
            assert!(close(dd_mul(entry(i), entry(1)), want, 2f64.powi(-100)), "entry {}", i + 1);
        }
        let mut x = entry(1);
        for _ in 0..7 {
            x = dd_mul(x, x);
        }
        assert!(close(x, (2.0, 0.0), 2f64.powi(-96)), "2^(1/128) to the 128th: {x:?}");
    }

    #[test]
    fn output_bits_are_pinned() {
        // The portability claim as a test: a fixed sweep over
        // [−740, 740], the overflow and subnormal paths included.
        let h = pin((-200_000..=200_000i64).map(|i| i as f64 * 3.700_000_123e-3));
        assert_eq!(h, PINNED, "exp bits drifted: {h:#018x}");
    }
    const PINNED: u64 = 0x526D_3D84_AB63_A564;

    #[test]
    fn within_one_ulp_of_libm_from_underflow_to_overflow() {
        let (n, lo, hi) = (2_000_000, -745.0, 709.8);
        let (mut worst, mut differ) = (0, 0);
        for i in 0..=n {
            let x = lo + (hi - lo) * (i as f64 / n as f64);
            let d = ulps(exp(x), libm(x));
            worst = worst.max(d);
            differ += usize::from(d > 0);
        }
        assert!(worst <= 1, "worst {worst} ulp, {differ} of {n} points differ");
    }

    #[test]
    fn special_values() {
        assert_eq!(exp(0.0).to_bits(), 1f64.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1f64.to_bits());
        assert_eq!(exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp(f64::NEG_INFINITY).to_bits(), 0);
        assert!(exp(f64::NAN).is_nan() && exp(-f64::NAN).is_nan());
        // The largest finite result, then overflow.
        let top = 709.78;
        assert!(exp(top).is_finite() && ulps(exp(top), libm(top)) <= 1);
        assert_eq!(exp(709.783), f64::INFINITY);
        assert_eq!((exp(1e3), exp(f64::MAX)), (f64::INFINITY, f64::INFINITY));
        // 2⁻¹⁰²² ≈ e^−708.4 down to the least subnormal ≈ e^−744.44, then 0.
        let mut x = -708.3;
        while x > -745.2 {
            assert!(ulps(exp(x), libm(x)) <= 1, "x {x}: {:e} against {:e}", exp(x), libm(x));
            x -= 0.013_7;
        }
        assert_eq!(exp(-745.14).to_bits(), 0);
        assert_eq!(exp(-745.13).to_bits(), 1);
        assert_eq!((exp(-1e3).to_bits(), exp(f64::MIN).to_bits()), (0, 0));
        // Tiny arguments: 1 + x, whichever path.
        for x in [1e-300, -1e-300, 5e-324, 2f64.powi(-55), -(2f64.powi(-54)).next_down()] {
            assert_eq!(exp(x).to_bits(), (1.0 + x).to_bits());
            assert_eq!(exp_in_range(x).to_bits(), (1.0 + x).to_bits());
        }
    }

    #[test]
    fn in_place_gives_exp_s_bits_whatever_the_neighbours() {
        let mut xs: Vec<f64> = (-2000..2000).map(|i| f64::from(i) * 0.3).collect();
        let want: Vec<u64> = xs.iter().map(|&x| exp(x).to_bits()).collect();
        // [−600, −300) mixes both paths; [−300, 300) is all in range.
        for chunk in xs.chunks_mut(1000) {
            exp_in_place(chunk);
        }
        assert_eq!(xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), want);
        for arm in supported_arms() {
            let mut ys: Vec<f64> = (-2000..2000).map(|i| f64::from(i) * 0.3).collect();
            run_on(arm, #[inline(always)] || ys.chunks_mut(1000).for_each(exp_in_place));
            assert_eq!(ys.iter().map(|y| y.to_bits()).collect::<Vec<_>>(), want, "{arm:?}");
        }
        let mut tile = [0.5, f64::NAN, -800.0, 1e-20, 600.0];
        let want = tile.map(|x| exp(x).to_bits());
        exp_in_place(&mut tile);
        assert_eq!(tile.map(f64::to_bits)[..], want[..]);
        assert_eq!(tile[0].to_bits(), exp_in_range(0.5).to_bits());
    }
}
