//! Physical-quantity newtypes enforced across the workspace's public APIs.
//!
//! Every quantity that crosses a public API boundary of `xylem-thermal`,
//! `xylem-power`, or `xylem-core` carries its unit in the type:
//!
//! | type | unit | invariant |
//! |------|------|-----------|
//! | [`Celsius`] | deg C | finite, >= absolute zero |
//! | [`Watts`] | W | finite (negative = heat extraction) |
//! | [`WattsPerMeterKelvin`] | W/(m*K) | finite, > 0 |
//! | [`VolumetricHeatCapacity`] | J/(m^3*K) | finite, > 0 |
//!
//! Two constructors exist per type: `new` is `const` and asserts the
//! invariant (usable for compile-time constants; panics with the quantity
//! name on bad runtime input), `try_new` rejects `NaN`/out-of-range values
//! with a [`UnitError`]. The raw `f64` comes back out through `get`.
//!
//! `xylem-lint` (rule `raw-f64-param`) rejects bare `f64` scalars in
//! public signatures of the three crates where one of these types is
//! expected; bulk `&[f64]` fields/slices deliberately stay raw for
//! numeric-kernel interop.

/// Offset between the Celsius and Kelvin scales: 0 deg C in K.
pub const KELVIN_OFFSET: f64 = 273.15;

/// Absolute zero on the Celsius scale, deg C.
pub const ABSOLUTE_ZERO_C: f64 = -KELVIN_OFFSET;

/// A quantity failed its unit invariant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitError {
    /// The quantity (type) being constructed.
    pub quantity: &'static str,
    /// The rejected value.
    pub value: f64,
}

impl std::fmt::Display for UnitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid {}: {}", self.quantity, self.value)
    }
}

impl std::error::Error for UnitError {}

impl From<UnitError> for crate::error::ThermalError {
    fn from(e: UnitError) -> Self {
        crate::error::ThermalError::InvalidMaterial {
            what: e.quantity.into(),
            value: e.value,
        }
    }
}

macro_rules! unit_newtype {
    (
        $(#[$doc:meta])*
        $name:ident, $label:expr, $suffix:expr, |$v:ident| $valid:expr
    ) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
        #[repr(transparent)]
        pub struct $name(f64);

        // Serialized as the bare number (serde's newtype-struct behavior);
        // deserialization re-checks the invariant.
        impl serde::Serialize for $name {
            fn to_value(&self) -> serde::Value {
                self.0.to_value()
            }
        }

        impl serde::Deserialize for $name {
            fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
                let raw = f64::from_value(v)?;
                $name::try_new(raw).map_err(|e| serde::DeError::new(e.to_string()))
            }
        }

        impl $name {
            /// Constructs the quantity, asserting its invariant. `const`,
            /// so usable in statics; panics (with the quantity name) on
            /// invalid runtime input — use [`Self::try_new`] for untrusted
            /// values.
            #[must_use]
            pub const fn new($v: f64) -> Self {
                assert!($valid, concat!("invalid ", $label));
                $name($v)
            }

            /// Checked constructor: rejects `NaN` and out-of-range values.
            ///
            /// # Errors
            ///
            /// [`UnitError`] naming the quantity and offending value.
            pub fn try_new($v: f64) -> Result<Self, UnitError> {
                if $valid {
                    Ok($name($v))
                } else {
                    Err(UnitError {
                        quantity: $label,
                        value: $v,
                    })
                }
            }

            /// The raw value in the type's base unit.
            #[must_use]
            pub const fn get(self) -> f64 {
                self.0
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}{}", self.0, $suffix)
            }
        }

        impl PartialEq<f64> for $name {
            fn eq(&self, other: &f64) -> bool {
                self.0 == *other
            }
        }

        impl PartialEq<$name> for f64 {
            fn eq(&self, other: &$name) -> bool {
                *self == other.0
            }
        }

        impl PartialOrd<f64> for $name {
            fn partial_cmp(&self, other: &f64) -> Option<std::cmp::Ordering> {
                self.0.partial_cmp(other)
            }
        }

        impl PartialOrd<$name> for f64 {
            fn partial_cmp(&self, other: &$name) -> Option<std::cmp::Ordering> {
                self.partial_cmp(&other.0)
            }
        }

        /// Difference of two like quantities, in the base unit.
        impl std::ops::Sub for $name {
            type Output = f64;
            fn sub(self, rhs: Self) -> f64 {
                self.0 - rhs.0
            }
        }
    };
}

unit_newtype!(
    /// A temperature on the Celsius scale (the solver's working scale).
    Celsius, "Celsius temperature", " degC",
    |v| v.is_finite() && v >= ABSOLUTE_ZERO_C
);

unit_newtype!(
    /// A power (heat flow). Negative values mean heat extraction.
    Watts, "power in watts", " W",
    |v| v.is_finite()
);

unit_newtype!(
    /// A thermal conductivity.
    WattsPerMeterKelvin, "thermal conductivity", " W/(m*K)",
    |v| v.is_finite() && v > 0.0
);

unit_newtype!(
    /// A volumetric heat capacity.
    VolumetricHeatCapacity, "volumetric heat capacity", " J/(m^3*K)",
    |v| v.is_finite() && v > 0.0
);

impl Celsius {
    /// The larger of two temperatures.
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        if other.0 > self.0 {
            other
        } else {
            self
        }
    }

    /// The smaller of two temperatures.
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        if other.0 < self.0 {
            other
        } else {
            self
        }
    }
}

impl Watts {
    /// Zero power.
    pub const ZERO: Watts = Watts::new(0.0);
}

impl std::ops::Add for Watts {
    type Output = Watts;
    fn add(self, rhs: Self) -> Watts {
        Watts::new(self.0 + rhs.0)
    }
}

impl std::iter::Sum for Watts {
    fn sum<I: Iterator<Item = Watts>>(iter: I) -> Watts {
        Watts::new(iter.map(Watts::get).sum())
    }
}

impl WattsPerMeterKelvin {
    /// Thermal resistance per unit area of a slab of this conductivity,
    /// `t / lambda`, in m^2*K/W.
    #[must_use]
    pub fn rth_per_area(self, thickness_m: f64) -> f64 {
        thickness_m / self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nan_and_out_of_range_rejected() {
        assert!(Celsius::try_new(f64::NAN).is_err());
        assert!(Celsius::try_new(f64::INFINITY).is_err());
        assert!(Celsius::try_new(-274.0).is_err());
        assert!(Watts::try_new(f64::NAN).is_err());
        assert!(Watts::try_new(-3.0).is_ok(), "extraction is signed");
        assert!(WattsPerMeterKelvin::try_new(0.0).is_err());
        assert!(WattsPerMeterKelvin::try_new(-1.0).is_err());
        assert!(VolumetricHeatCapacity::try_new(f64::NAN).is_err());
        assert!(VolumetricHeatCapacity::try_new(0.0).is_err());
        assert!(VolumetricHeatCapacity::try_new(1.75e6).is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid Celsius temperature")]
    fn const_constructor_asserts() {
        let _ = Celsius::new(f64::NAN);
    }

    #[test]
    fn const_in_static_position() {
        const LIMIT: Celsius = Celsius::new(100.0);
        static SI_K: WattsPerMeterKelvin = WattsPerMeterKelvin::new(120.0);
        assert_eq!(LIMIT.get(), 100.0);
        assert_eq!(SI_K.get(), 120.0);
    }

    #[test]
    fn comparisons_with_raw_floats() {
        let t = Celsius::new(95.0);
        assert!(t > 90.0);
        assert!(t < 100.0);
        assert!(100.0 > t);
        assert!(t == 95.0);
        assert!((t - Celsius::new(90.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn watts_arithmetic() {
        let total: Watts = [1.5, 2.5, 4.0].into_iter().map(Watts::new).sum();
        assert_eq!(total, 8.0);
        assert_eq!((Watts::new(2.0) + Watts::new(3.0)).get(), 5.0);
    }

    #[test]
    fn unit_error_display_names_quantity() {
        let e = WattsPerMeterKelvin::try_new(-5.0).unwrap_err();
        assert_eq!(e.to_string(), "invalid thermal conductivity: -5");
        let te: crate::error::ThermalError = e.into();
        assert!(te.to_string().contains("thermal conductivity"));
    }

    #[test]
    fn serde_round_trip() {
        let w = Watts::new(12.5);
        let s = serde_json::to_string(&w).unwrap();
        let back: Watts = serde_json::from_str(&s).unwrap();
        assert_eq!(w, back);
    }
}
