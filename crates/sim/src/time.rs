//! Virtual timestamps.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point on the virtual clock, in seconds.
///
/// Wraps a finite `f64` and provides the total ordering the event queue
/// needs. Construction asserts finiteness, so `Ord` is safe.
#[derive(Clone, Copy, PartialEq, PartialOrd)]
pub struct VirtualTime(f64);

impl VirtualTime {
    /// The origin of every FL course (the paper: "the server begins to
    /// broadcast at timestamp 0").
    pub const ZERO: VirtualTime = VirtualTime(0.0);

    /// Creates a timestamp.
    ///
    /// # Panics
    /// Panics if `secs` is not finite or is negative.
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "invalid virtual time {secs}"
        );
        VirtualTime(secs)
    }

    /// Seconds since the course origin.
    pub fn as_secs(self) -> f64 {
        self.0
    }
}

impl Eq for VirtualTime {}

#[expect(
    clippy::derive_ord_xor_partial_ord,
    reason = "the derived PartialOrd and this total_cmp agree on the finite values construction admits"
)]
impl Ord for VirtualTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // total_cmp agrees with partial_cmp on the finite values virtual
        // times hold, and stays a total order even if a NaN slips in
        self.0.total_cmp(&other.0)
    }
}

impl Add<f64> for VirtualTime {
    type Output = VirtualTime;
    fn add(self, rhs: f64) -> VirtualTime {
        VirtualTime::from_secs(self.0 + rhs)
    }
}

impl AddAssign<f64> for VirtualTime {
    fn add_assign(&mut self, rhs: f64) {
        *self = *self + rhs;
    }
}

impl Sub for VirtualTime {
    type Output = f64;
    fn sub(self, rhs: VirtualTime) -> f64 {
        self.0 - rhs.0
    }
}

// Serialized as the bare seconds value; the tuple-struct shape (unsupported
// by the in-repo derive) and the finiteness invariant both want manual impls.
impl serde::Serialize for VirtualTime {
    fn to_value(&self) -> serde::Value {
        serde::Value::F64(self.0)
    }
}

impl serde::Deserialize for VirtualTime {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let secs = v
            .as_f64()
            .ok_or_else(|| serde::DeError::mismatch("number (virtual seconds)", v))?;
        if !(secs.is_finite() && secs >= 0.0) {
            return Err(serde::DeError(format!("invalid virtual time {secs}")));
        }
        Ok(VirtualTime(secs))
    }
}

impl fmt::Debug for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.0)
    }
}

impl fmt::Display for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_arithmetic() {
        let a = VirtualTime::from_secs(1.0);
        let b = a + 2.5;
        assert!(b > a);
        assert_eq!(b.as_secs(), 3.5);
        assert!((b - a - 2.5).abs() < 1e-12);
        assert_eq!(VirtualTime::ZERO.as_secs(), 0.0);
    }

    #[test]
    fn serde_roundtrip_preserves_seconds() {
        use serde::{Deserialize, Serialize};
        let t = VirtualTime::from_secs(12.25);
        assert_eq!(t.to_value(), serde::Value::F64(12.25));
        assert_eq!(VirtualTime::from_value(&t.to_value()).unwrap(), t);
        // integer-typed JSON numbers widen
        assert_eq!(
            VirtualTime::from_value(&serde::Value::UInt(3)).unwrap(),
            VirtualTime::from_secs(3.0)
        );
        // the finiteness/non-negativity invariant survives deserialization
        assert!(VirtualTime::from_value(&serde::Value::F64(-1.0)).is_err());
        assert!(VirtualTime::from_value(&serde::Value::F64(f64::NAN)).is_err());
    }

    #[test]
    #[should_panic(expected = "invalid virtual time")]
    fn rejects_nan() {
        let _ = VirtualTime::from_secs(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "invalid virtual time")]
    fn rejects_negative() {
        let _ = VirtualTime::from_secs(-1.0);
    }
}
