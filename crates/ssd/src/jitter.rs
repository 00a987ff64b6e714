//! Exact fast jitter: the integer microsecond of a jittered service time
//! without libm's `ln`, `cos` and `exp`.
//!
//! The device model uses a log-normal draw only through the integer
//! `((base · e^{σz}).max(1.0) · multiplier) as u64`, with
//! `z = √(−2 ln u1) · cos(2π u2)` as in [`heimdall_trace::rng::Rng64::normal`].
//! [`service_us`] approximates that product, p̃, from the same two draws and
//! returns its integer part only when p̃ is farther than `MARGIN · p̃` from
//! every integer; otherwise [`service_from_draws`] runs the exact chain.
//! Integers are the chain's only discontinuities (`max(1.0)` and the
//! multiplier are continuous), so while p̃ is within a relative `DELTA` of
//! what the exact chain computes, a decided integer is the exact chain's
//! integer.
//!
//! # The bound
//!
//! `DELTA = 2⁻³⁶` bounds |p̃ − p| / p against p as computed with the
//! platform's libm (each call within one ulp), not the real value. With
//! σ ≤ `MAX_SIGMA` = 0.5 and r = √(−2 ln u1) ≤ 37.7, |σz| ≤ 18.9:
//! - ln: an absolute error ε in ln u1 moves r by ε/r. Below 1 − 2⁻⁸ the
//!   degree-4 log1p on |r| ≤ 2⁻⁸ truncates ≤ 2⁻⁴⁰/5 and r ≥ 0.088, so σz
//!   moves ≤ 1.1·10⁻¹². Above it √ would turn ε into √ε; there w = 1 − u1
//!   is exact and the series to w³/4 is off by ≤ w⁴/5 ≤ 4.7·10⁻¹¹
//!   *relative*, half that in r ≤ 0.089: ≤ 10⁻¹² in σz.
//! - cos: |h| ≤ π/64 truncates h⁷/7! ≤ 1.4·10⁻¹³; table entries and libm's
//!   own argument `TAU * u2` each carry ≤ 1.5·10⁻¹⁵. The error is absolute,
//!   so zeros of cos are no worse: ≤ 2.9·10⁻¹² in σz = σr·cos.
//! - e^x: the 2^(i/64) entry, the degree-4 polynomial on |r| ≤ ln2/128
//!   (r⁵/5! ≤ 4·10⁻¹⁴), the reduction's |x|·2⁻⁵³ and libm's ulp, at either
//!   end of the range: ≤ 10⁻¹³. Roundings elsewhere: ≤ 10⁻¹⁴.
//!
//! The sum is ≤ 5.2·10⁻¹² (measured: 1.0·10⁻¹²); `MARGIN = 2⁻²⁹` is
//! 128·`DELTA`. σ above `MAX_SIGMA` (presets: 0.07–0.10) runs the exact chain.
//!
//! # Deferred evaluation
//!
//! [`service_from_draws`] is the one evaluation of a service from its two
//! draws: the fast path, else the exact chain. The device calls it at
//! submission, or later from draws it stored: a write whose completion no
//! caller reads keeps its draws and, as its channel's free time,
//! [`service_us_bound`]'s upper bound. That bound reads only u1, the cap
//! e^{8σ} (once per device), the base and the multiplier, so it costs two
//! products instead of the chain.

use std::f64::consts::{LN_2, TAU};
use std::sync::OnceLock;

/// Relative error bound of p̃ against the exact chain's p (see the module
/// docs for the derivation).
const DELTA: f64 = 1.0 / (1u64 << 36) as f64;
/// Decide only when p̃ is farther than `MARGIN · p̃` from every integer.
const MARGIN: f64 = 128.0 * DELTA;
/// Largest σ the bound covers.
const MAX_SIGMA: f64 = 0.5;
/// Below this u1, ln comes from the table; at or above, from the series in
/// 1 − u1.
const NEAR_ONE: f64 = 1.0 - 1.0 / 256.0;
/// Adding and subtracting 1.5·2⁵² rounds |x| < 2⁵¹ to an integer, which
/// the low bits of the sum then hold.
const ROUND: f64 = 6_755_399_441_055_744.0;
/// Largest p̃ that `ROUND` can split.
const LIMIT: f64 = (1u64 << 51) as f64;
/// Smallest u1 [`service_us_bound`] covers: r = √(−2 ln u1) < 8 above it.
const U1_FLOOR: f64 = 1.3e-14;
/// [`service_us_bound`] gives up at p̂ ≥ 2⁴⁸ µs, where its slack of 1 µs
/// would no longer cover the ulps.
const BOUND_LIMIT: f64 = (1u64 << 48) as f64;

struct Tables {
    /// `2⁻⁸/xᵢ` and `−2 ln xᵢ` at the centres xᵢ = (257 + 2i)/512 of the
    /// 128 equal cells of [0.5, 1).
    inv: [f64; 128],
    ln2: [f64; 128],
    /// cos and sin of 2π·i/64, side by side.
    cos_sin: [[f64; 2]; 64],
    /// The bits of 2^(i/64).
    exp2: [u64; 64],
}

/// Built once per process on first use.
fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let centre = |i: usize| (257 + 2 * i) as f64 / 512.0;
        Tables {
            inv: std::array::from_fn(|i| (1.0 / 256.0) / centre(i)),
            ln2: std::array::from_fn(|i| -2.0 * centre(i).ln()),
            cos_sin: std::array::from_fn(|i| {
                let a = i as f64 * (TAU / 64.0);
                [a.cos(), a.sin()]
            }),
            exp2: std::array::from_fn(|i| (i as f64 / 64.0).exp2().to_bits()),
        }
    })
}

/// e^{σz} for the Box–Muller draws `u1` (≥ `f64::MIN_POSITIVE`) and `u2`.
#[inline(always)]
fn jitter(u1: f64, u2: f64, sigma: f64) -> f64 {
    let t = tables();
    let v = if u1 >= NEAR_ONE {
        // −2 ln(1 − w) = 2w(1 + w/2 + w²/3 + w³/4 + …).
        let w = 1.0 - u1;
        (w + w) * ((1.0 + 0.5 * w) + w * w * (1.0 / 3.0 + 0.25 * w))
    } else {
        // u1 = x·2^e, x in cell i of [0.5, 1): the low 45 bits place x in
        // its cell, f − 1.5 = (x − xᵢ)·2⁸ exactly, and |r| ≤ 2⁻⁸.
        let bits = u1.to_bits();
        let e = (bits >> 52) as i64 - 1022;
        let i = (bits >> 45) as usize & 127;
        let f = f64::from_bits((bits << 7) & ((1 << 52) - 1) | 1f64.to_bits());
        let r = (f - 1.5) * t.inv[i];
        let r2 = r * r;
        let log1p = r + r2 * ((-0.5 + r * (1.0 / 3.0)) - 0.25 * r2);
        (t.ln2[i] - 2.0 * log1p) + e as f64 * (-2.0 * LN_2)
    };
    // 2π·u2 = 2π(k + d)/64 with k the integer nearest 64·u2, so |h| ≤ π/64:
    // cos(a + h) = cos a + (cos a·(cos h − 1) − sin a·sin h).
    let q = u2 * 64.0;
    let kq = q + ROUND;
    let [ca, sa] = t.cos_sin[kq.to_bits() as usize & 63];
    let h = (q - (kq - ROUND)) * (TAU / 64.0);
    let h2 = h * h;
    let cos_h_1 = h2 * (-0.5 + h2 * (1.0 / 24.0 - h2 * (1.0 / 720.0)));
    let sin_h = h + h * h2 * (-1.0 / 6.0 + h2 * (1.0 / 120.0));
    let n = sigma * v.sqrt() * (ca + (ca * cos_h_1 - sa * sin_h));
    // e^n = 2^(m/64) · e^r with m the integer nearest 64n/ln 2.
    let mq = n * (64.0 / LN_2) + ROUND;
    let m = mq.to_bits().wrapping_sub(ROUND.to_bits());
    let r = n - (mq - ROUND) * (LN_2 / 64.0);
    let r2 = r * r;
    let exp_r = (1.0 + r) + r2 * ((0.5 + r * (1.0 / 6.0)) + r2 * (1.0 / 24.0));
    // 2^(m/64) = 2^(m mod 64 / 64) · 2^⌊m/64⌋, the second by exponent.
    let scale = ((m as i64 >> 6) as u64) << 52;
    f64::from_bits(t.exp2[m as usize & 63].wrapping_add(scale)) * exp_r
}

/// `((base · e^{σz}).max(1.0) · multiplier) as u64` for the Box–Muller
/// draws `u1`, `u2` — the integer the exact chain computes — or `None`
/// when the approximation cannot decide it. Expects σ > 0 and a finite
/// multiplier ≥ 1.
#[inline]
fn service_us(u1: f64, u2: f64, sigma: f64, base: f64, multiplier: f64) -> Option<u64> {
    if sigma > MAX_SIGMA {
        return None;
    }
    let q = base * jitter(u1, u2, sigma);
    if q < 1.0 - MARGIN {
        // Clamped on both sides: the exact chain computes 1.0 · multiplier.
        return Some(multiplier as u64);
    }
    // `max` maps a NaN to 1.0 on both sides, and an infinity stops here.
    let p = q.max(1.0) * multiplier;
    if p >= LIMIT {
        return None;
    }
    let pq = p + ROUND;
    let nearest = pq - ROUND;
    if (p - nearest).abs() <= MARGIN * p {
        return None;
    }
    Some(pq.to_bits() - ROUND.to_bits() - u64::from(nearest > p))
}

/// libm's e^{σz}, exactly as `Rng64::log_normal(0.0, σ)` computes it from
/// the same two draws.
fn libm_jitter(u1: f64, u2: f64, sigma: f64) -> f64 {
    let z = (-2.0 * u1.ln()).sqrt() * (TAU * u2).cos();
    (0.0 + sigma * z).exp()
}

/// The definition: `((base · e^{σz}).max(1.0) · multiplier) as u64` with
/// e^{σz} from libm.
#[cold]
fn exact_us(u1: f64, u2: f64, sigma: f64, base: f64, multiplier: f64) -> u64 {
    ((base * libm_jitter(u1, u2, sigma)).max(1.0) * multiplier) as u64
}

/// Whole microseconds of a jittered service from its two Box–Muller draws:
/// [`service_us`] when it decides, else the exact chain on the same draws.
/// Either way the exact chain's integer, so a service evaluated later from
/// stored draws is the one evaluated at submission.
#[inline]
pub(crate) fn service_from_draws(u1: f64, u2: f64, sigma: f64, base: f64, multiplier: f64) -> u64 {
    match service_us(u1, u2, sigma, base, multiplier) {
        Some(us) => us,
        None => exact_us(u1, u2, sigma, base, multiplier),
    }
}

/// `e^{8σ}` as libm computes it: the jitter cap [`service_us_bound`] takes,
/// computed once per device. `None` when σ is 0, above `MAX_SIGMA` or NaN;
/// such a device evaluates every service when it is submitted.
pub(crate) fn jitter_cap(sigma: f64) -> Option<f64> {
    (sigma > 0.0 && sigma <= MAX_SIGMA).then(|| (8.0 * sigma).exp())
}

/// An upper bound on [`service_from_draws`]`(u1, u2, σ, base, multiplier)`
/// that holds for every `u2`, with `cap` = [`jitter_cap`]`(σ)`; `None` when
/// `u1` is below `U1_FLOOR` or the bound reaches `BOUND_LIMIT`.
///
/// # Derivation
///
/// For u1 ≥ `U1_FLOOR` = 1.3·10⁻¹⁴ > e⁻³² ≈ 1.266·10⁻¹⁴, ln u1 ≥ −31.974;
/// libm's ln is within an ulp (≈ 4·10⁻¹⁵ there), so −2 ln u1 ≤ 63.95 and,
/// √ being correctly rounded, r = √(−2 ln u1) ≤ 7.997. Every double
/// neighbour of a value in [−1, 1] lies in [−1, 1], so libm's cos does too,
/// and the rounded z = r·cos is at most 7.997·(1 + 2⁻⁵³) < 8(1 − 3·10⁻⁴).
/// Hence σz < 8σ(1 − 3·10⁻⁴), and libm's e^{σz} is at most
/// e^{8σ}·e^{−2.4·10⁻³·σ}·(1 + 2⁻⁵²), while `cap` ≥ e^{8σ}(1 − 2⁻⁵²): the
/// jitter j ≤ cap·(1 + 2⁻⁵⁰) for every σ, and j ≤ cap once σ > 2·10⁻¹³.
///
/// Rounded IEEE products and `max` are monotone, so p = (base·j).max(1)·m
/// is at most this function's p̂ = (base·cap).max(1)·m times (1 + 2⁻⁴⁹).
/// Below `BOUND_LIMIT` = 2⁴⁸ that excess is under 1, so the integer
/// ⌊p⌋ ≤ ⌊p̂⌋ + 1. The `+ 1` is the slack for libm's ulps where the
/// floor's margin vanishes; for σ above 2·10⁻¹³, ⌊p̂⌋ alone would hold.
#[inline]
pub(crate) fn service_us_bound(u1: f64, cap: f64, base: f64, multiplier: f64) -> Option<u64> {
    if u1 < U1_FLOOR {
        return None;
    }
    let p = (base * cap).max(1.0) * multiplier;
    (p < BOUND_LIMIT).then(|| p as u64 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceConfig;
    use heimdall_trace::rng::Rng64;

    /// The generator's grid: every `Rng64::f64` draw is a multiple of it.
    const ULP: f64 = 1.0 / (1u64 << 53) as f64;

    fn preset_sigmas() -> [f64; 4] {
        [
            DeviceConfig::datacenter_nvme(),
            DeviceConfig::consumer_nvme(),
            DeviceConfig::sata_datacenter(),
            DeviceConfig::femu_emulated(),
        ]
        .map(|c| c.jitter_sigma)
    }

    /// u1 from `a`: uniform, or where the ln stage is weakest.
    fn draw_u1(a: u64) -> f64 {
        let k = a >> 3;
        let u = match a & 7 {
            0 | 1 => Rng64::new(k).f64(),
            // 1 − k·2⁻⁵³: v falls toward 2⁻⁵², where √ amplifies error.
            2 => 1.0 - (1 + k % 4096) as f64 * ULP,
            // The smallest draws; 0 becomes the `MIN_POSITIVE` clamp.
            3 => (k % 1024) as f64 * ULP,
            // Either side of the switch from the table to the series.
            4 => NEAR_ONE + ((k % 65) as f64 - 32.0) * ULP,
            // Either side of a table-cell edge, in binades down to 2⁻¹⁶.
            _ => {
                let edge = (0.5 + (k % 128) as f64 / 256.0) / (1u64 << (k / 128 % 16)) as f64;
                f64::from_bits(edge.to_bits() + k / 2048 % 9 - 4)
            }
        };
        u.max(f64::MIN_POSITIVE)
    }

    /// u2 from `b`: uniform, or within 32 grid steps of a cos zero or
    /// extremum, a table centre i/64 or a rounding edge (i + ½)/64.
    fn draw_u2(b: u64) -> f64 {
        let k = b >> 2;
        let step = (k % 65) as i64 - 32;
        let near = |num: u64, den: u64| {
            (((num << 53) / den) as i64 + step).rem_euclid(1 << 53) as f64 * ULP
        };
        match b & 3 {
            0 | 1 => Rng64::new(k).f64(),
            2 => near(k / 65 % 4, 4),
            _ => near(k / 65 % 128, 128),
        }
    }

    /// σ, multiplier and base from `c`. Half the bases put the exact p
    /// within a few ulps or 10⁻⁹ of an integer, or base·j just either side
    /// of 1.0, using libm's own j for the draws.
    fn draw_rest(c: u64, u1: f64, u2: f64) -> (f64, f64, f64) {
        let mut rng = Rng64::new(c >> 4);
        let sigma = match c & 3 {
            0 | 1 => preset_sigmas()[rng.below(4) as usize],
            2 => MAX_SIGMA * (1.0 - rng.f64()),
            // Either side of the guard.
            _ => 2.0 * MAX_SIGMA * (1.0 - rng.f64()),
        };
        let multiplier = match (c >> 2) & 3 {
            0 | 1 => 1.0,
            2 => rng.range(1, 101) as f64,
            _ => 1.0 + 99.0 * rng.f64(),
        };
        let j = libm_jitter(u1, u2, sigma);
        let target = match rng.below(4) {
            0 | 1 => return (sigma, multiplier, 10f64.powf(4.3 * rng.f64())),
            2 => rng.range(1, 20_001) as f64 / multiplier,
            _ => 1.0,
        };
        let base = target / j;
        let base = if rng.chance(0.5) {
            f64::from_bits(base.to_bits() + rng.below(9) - 4)
        } else {
            base * (1.0 + (rng.f64() - 0.5) * 2e-9)
        };
        (sigma, multiplier, base)
    }

    #[test]
    fn the_transcribed_chain_is_the_generators() {
        let mut rng = Rng64::new(0x0de1);
        for i in 0..10_000 {
            let sigma = preset_sigmas()[i % 4] * (1 + i % 7) as f64;
            let mut draws = rng.clone();
            let u1 = draws.f64().max(f64::MIN_POSITIVE);
            let u2 = draws.f64();
            let j = rng.log_normal(0.0, sigma);
            assert_eq!(j.to_bits(), libm_jitter(u1, u2, sigma).to_bits());
            assert_eq!(rng.next_u64(), draws.next_u64(), "two draws each");
        }
    }

    /// Whenever the fast path decides, its integer is the exact chain's.
    #[test]
    fn prop_decided_service_time_is_the_exact_chains() {
        use heimdall_integration::prop::{check, tuple3, u64_in, Config};
        let any = u64_in(0..=u64::MAX);
        let cfg = Config {
            cases: 20_000,
            ..Config::seeded(0x6a17_7e55)
        };
        check(
            "prop_decided_service_time_is_the_exact_chains",
            &cfg,
            &tuple3(any, any, any),
            |&(a, b, c)| {
                let (u1, u2) = (draw_u1(a), draw_u2(b));
                let (sigma, multiplier, base) = draw_rest(c, u1, u2);
                let exact = exact_us(u1, u2, sigma, base, multiplier);
                match service_us(u1, u2, sigma, base, multiplier) {
                    Some(fast) if fast != exact => Err(format!(
                        "u1 {u1:e} u2 {u2:e} sigma {sigma} base {base:e} x{multiplier}: \
                         fast {fast} exact {exact}"
                    )),
                    _ => Ok(()),
                }
            },
        );
    }

    /// One evaluation from the draws is the exact chain's integer, and the
    /// bound from u1 alone is never below it. The adversarial draws reach
    /// the bound's corner: u1 just above `U1_FLOOR` (r ≈ 8), u2 where
    /// cos(2πu2) = ±1, and exact services a few ulps from an integer.
    #[test]
    fn prop_service_bound_covers_the_exact_chain() {
        use heimdall_integration::prop::{check, tuple3, u64_in, Config};
        let any = u64_in(0..=u64::MAX);
        let cfg = Config {
            cases: 20_000,
            ..Config::seeded(0xb0_0d)
        };
        check(
            "prop_service_bound_covers_the_exact_chain",
            &cfg,
            &tuple3(any, any, any),
            |&(a, b, c)| {
                let (u1, u2) = (draw_u1(a), draw_u2(b));
                let (sigma, multiplier, base) = draw_rest(c, u1, u2);
                let exact = exact_us(u1, u2, sigma, base, multiplier);
                let evaluated = service_from_draws(u1, u2, sigma, base, multiplier);
                let bound =
                    jitter_cap(sigma).and_then(|cap| service_us_bound(u1, cap, base, multiplier));
                let case = format!("u1 {u1:e} u2 {u2:e} sigma {sigma} base {base:e} x{multiplier}");
                if evaluated != exact {
                    return Err(format!("{case}: evaluated {evaluated}, exact {exact}"));
                }
                match bound {
                    Some(bound) if bound < exact => {
                        Err(format!("{case}: bound {bound} below exact {exact}"))
                    }
                    _ => Ok(()),
                }
            },
        );
    }

    /// The bound declines exactly where it is not proved: σ = 0, σ above
    /// `MAX_SIGMA` or NaN, u1 below the floor, and bounds past 2⁴⁸ µs.
    #[test]
    fn bound_declines_outside_its_proof() {
        assert_eq!(jitter_cap(0.0), None);
        assert_eq!(jitter_cap(MAX_SIGMA * 1.01), None);
        assert_eq!(jitter_cap(f64::NAN), None);
        let cap = jitter_cap(MAX_SIGMA).expect("σ = MAX_SIGMA is covered");
        assert_eq!(service_us_bound(U1_FLOOR * 0.99, cap, 100.0, 1.0), None);
        assert_eq!(service_us_bound(0.5, cap, BOUND_LIMIT, 1.0), None);
        assert_eq!(service_us_bound(0.5, cap, f64::INFINITY, 1.0), None);
        // A base far below 1 µs clamps to one microsecond per unit of
        // multiplier, plus the slack.
        assert_eq!(service_us_bound(0.5, cap, 1e-9, 25.0), Some(26));
    }

    /// The measured error of e^{σz} against libm's, over the adversarial
    /// draws and σ up to `MAX_SIGMA`, stays inside the documented bound.
    #[test]
    fn jitter_error_stays_inside_the_bound() {
        let mut worst = 0f64;
        for i in 0..200_000u64 {
            let (u1, u2) = (draw_u1(i.wrapping_mul(0x9e37_79b9)), draw_u2(i ^ 0x5bd1));
            let sigma = MAX_SIGMA * (1.0 - Rng64::new(i).f64());
            let exact = libm_jitter(u1, u2, sigma);
            worst = worst.max((jitter(u1, u2, sigma) - exact).abs() / exact);
        }
        assert!(worst < DELTA / 4.0, "worst relative error {worst:e}");
    }

    /// On the device's own inputs the exact chain is the rare branch.
    #[test]
    fn decides_all_but_a_sliver_of_device_draws() {
        let mut rng = Rng64::new(0xfa11);
        let sigmas = preset_sigmas();
        let mut declined = 0;
        for i in 0..200_000 {
            let u1 = rng.f64().max(f64::MIN_POSITIVE);
            let u2 = rng.f64();
            let base = 5.0 + 5_000.0 * rng.f64();
            if service_us(u1, u2, sigmas[i % 4], base, 1.0).is_none() {
                declined += 1;
            }
        }
        assert!(declined <= 20, "{declined} of 200000 fell back");
    }
}
