//! Float text oracle for the JSON writer behind checkpoints, serve state
//! and the response cache.
//!
//! Every `f64` the writer prints must match, byte for byte, the text the
//! format has always had: `format!("{x:.1}")` for integral values below
//! 1e16, `format!("{x}")` for every other finite value, and `null` for
//! NaN and the infinities. A single differing byte would change the
//! checksum of an existing checkpoint, so the comparison covers the
//! corners of the double format, not only typical temperatures.

use xylem_obs::hash::splitmix64;

/// The reference text: what the writer printed before it had its own
/// float formatter.
fn reference(x: f64) -> String {
    if !x.is_finite() {
        "null".to_owned()
    } else if x.fract() == 0.0 && x.abs() < 1e16 {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

#[derive(Default)]
struct Tally {
    checked: u64,
    mismatches: u64,
    first: Vec<String>,
}

impl Tally {
    fn check(&mut self, x: f64) {
        self.checked += 1;
        let got = serde_json::to_string(&x).unwrap();
        let want = reference(x);
        if got != want {
            self.mismatches += 1;
            if self.first.len() < 10 {
                self.first
                    .push(format!("{:#018x}: got {got} want {want}", x.to_bits()));
            }
        }
    }

    /// Checks both signs of every double within `ulps` steps of `x`.
    fn check_around(&mut self, x: f64, ulps: u64) {
        let bits = x.to_bits();
        for b in bits.saturating_sub(ulps)..=bits.saturating_add(ulps) {
            let y = f64::from_bits(b);
            self.check(y);
            self.check(-y);
        }
    }

    fn assert_clean(&self, what: &str, at_least: u64) {
        assert!(
            self.checked >= at_least,
            "{what}: only {} values checked",
            self.checked
        );
        assert_eq!(
            self.mismatches, 0,
            "{what}: {} of {} values differ, first: {:#?}",
            self.mismatches, self.checked, self.first
        );
    }
}

#[test]
fn random_bit_patterns_match_std() {
    let mut t = Tally::default();
    let mut state = 0x5eed_f10a_7000_0001u64;
    for _ in 0..1_000_000 {
        state = splitmix64(state);
        t.check(f64::from_bits(state));
    }
    // Random bits are mostly huge or tiny; also cover the magnitudes a
    // temperature field holds.
    for _ in 0..200_000 {
        state = splitmix64(state);
        let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
        t.check(20.0 + 100.0 * unit);
        t.check(unit);
    }
    t.assert_clean("random bit patterns", 1_400_000);
}

#[test]
fn powers_of_two_and_ten_match_std() {
    let mut t = Tally::default();
    for e in -1074i64..=1023 {
        // 2^e: a lone mantissa bit below 2^-1022, a bare exponent above.
        let bits = if e < -1022 {
            1u64 << (e + 1074)
        } else {
            ((e + 1023) as u64) << 52
        };
        t.check_around(f64::from_bits(bits), 1);
    }
    for k in -323..=308 {
        let x: f64 = format!("1e{k}").parse().unwrap();
        t.check_around(x, 3);
    }
    // Less a few steps the saturating walk cannot take below 5e-324.
    t.assert_clean("powers of two and ten", 2 * (2098 * 3 + 632 * 7) - 8);
}

#[test]
fn subnormals_and_extremes_match_std() {
    let mut t = Tally::default();
    for b in 1..=100_000u64 {
        let x = f64::from_bits(b);
        t.check(x);
        t.check(-x);
    }
    // The largest subnormals, the smallest normals and the largest
    // finite values.
    t.check_around(f64::MIN_POSITIVE, 1000);
    t.check_around(f64::MAX, 1000);
    t.assert_clean("subnormals and extremes", 200_000);
}

#[test]
fn exact_ties_round_up_like_std() {
    // Between 2^50 and 2^51 the spacing is 1/4, so n + 1/4 and n + 3/4
    // sit exactly halfway between two 17-digit candidates:
    // 1658206780088562.25 prints as ...562.3, not the even ...562.2.
    assert_eq!(
        serde_json::to_string(&1_658_206_780_088_562.25f64).unwrap(),
        "1658206780088562.3"
    );
    let mut t = Tally::default();
    let mut state = 0x7e5_0000_0000_0001u64;
    for _ in 0..50_000 {
        state = splitmix64(state);
        let n = (1u64 << 50) + state % (1u64 << 50);
        for frac in [0.25, 0.75] {
            t.check(n as f64 + frac);
            t.check(-(n as f64 + frac));
        }
    }
    t.assert_clean("exact ties", 200_000);
}

#[test]
fn integers_around_1e16_match_std() {
    let mut t = Tally::default();
    // The boundary between the `.0` form and the bare-integer form.
    t.check_around(1e16, 5000);
    // Where integers stop being exactly representable.
    t.check_around(9_007_199_254_740_992.0, 5000);
    for k in 0..=100_000u64 {
        t.check(k as f64);
    }
    for e in 0..=308 {
        let x: f64 = format!("1e{e}").parse().unwrap();
        t.check(x - 1.0);
        t.check(x + 1.0);
    }
    t.assert_clean("integers", 2 * 2 * 10_001 + 100_001);
}

#[test]
fn signed_zero_and_non_finite_values_match_std() {
    let mut t = Tally::default();
    for x in [
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff0_0000_0000_0001),
        f64::INFINITY,
        f64::NEG_INFINITY,
    ] {
        t.check(x);
    }
    t.assert_clean("signed zero and non-finite", 7);
    assert_eq!(serde_json::to_string(&-0.0f64).unwrap(), "-0.0");
    assert_eq!(serde_json::to_string(&f64::NAN).unwrap(), "null");
}
