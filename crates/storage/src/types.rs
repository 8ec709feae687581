//! Physical value types stored in columns.
//!
//! LAS point records are composed entirely of fixed-width numeric fields, so
//! the storage layer supports exactly the ten machine types that occur in the
//! format. A small dynamic [`Value`] type lifts every native value into one
//! of three lattices (signed, unsigned, floating) for use at API boundaries
//! such as the SQL executor; the hot query paths are monomorphised over
//! [`Native`] and never touch [`Value`].

use std::cmp::Ordering;

use crate::CACHELINE_BYTES;

/// The physical (machine) type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhysicalType {
    /// 8-bit signed integer.
    I8,
    /// 16-bit signed integer.
    I16,
    /// 32-bit signed integer.
    I32,
    /// 64-bit signed integer.
    I64,
    /// 8-bit unsigned integer.
    U8,
    /// 16-bit unsigned integer.
    U16,
    /// 32-bit unsigned integer.
    U32,
    /// 64-bit unsigned integer.
    U64,
    /// 32-bit IEEE float.
    F32,
    /// 64-bit IEEE float.
    F64,
}

impl PhysicalType {
    /// Width of one value in bytes.
    pub const fn size(self) -> usize {
        match self {
            PhysicalType::I8 | PhysicalType::U8 => 1,
            PhysicalType::I16 | PhysicalType::U16 => 2,
            PhysicalType::I32 | PhysicalType::U32 | PhysicalType::F32 => 4,
            PhysicalType::I64 | PhysicalType::U64 | PhysicalType::F64 => 8,
        }
    }

    /// Number of values of this type that fit in one 64-byte cacheline.
    ///
    /// This is the granularity at which column imprints index a column: one
    /// 64-bit imprint vector per cacheline of values.
    pub const fn values_per_cacheline(self) -> usize {
        CACHELINE_BYTES / self.size()
    }

    /// Whether the type is a floating-point type.
    pub const fn is_float(self) -> bool {
        matches!(self, PhysicalType::F32 | PhysicalType::F64)
    }

    /// Whether the type is a signed integer type.
    pub const fn is_signed_int(self) -> bool {
        matches!(
            self,
            PhysicalType::I8 | PhysicalType::I16 | PhysicalType::I32 | PhysicalType::I64
        )
    }

    /// Short lowercase name, e.g. `"f64"`.
    pub const fn name(self) -> &'static str {
        match self {
            PhysicalType::I8 => "i8",
            PhysicalType::I16 => "i16",
            PhysicalType::I32 => "i32",
            PhysicalType::I64 => "i64",
            PhysicalType::U8 => "u8",
            PhysicalType::U16 => "u16",
            PhysicalType::U32 => "u32",
            PhysicalType::U64 => "u64",
            PhysicalType::F32 => "f32",
            PhysicalType::F64 => "f64",
        }
    }
}

/// A dynamically typed value, used at API boundaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Any signed integer, widened to 64 bits.
    I64(i64),
    /// Any unsigned integer, widened to 64 bits.
    U64(u64),
    /// Any float, widened to 64 bits.
    F64(f64),
}

impl Value {
    /// Lossy view of the value as `f64` (exact for integers up to 2^53).
    pub fn as_f64(self) -> f64 {
        match self {
            Value::I64(v) => v as f64,
            Value::U64(v) => v as f64,
            Value::F64(v) => v,
        }
    }

    /// View of the value as `i64`, truncating floats toward zero and
    /// saturating out-of-range unsigned values.
    pub fn as_i64(self) -> i64 {
        match self {
            Value::I64(v) => v,
            Value::U64(v) => i64::try_from(v).unwrap_or(i64::MAX),
            Value::F64(v) => v as i64,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

/// A native (machine) value type storable in a column.
///
/// The trait supplies a *total* order (`total_cmp`) so that binning and
/// sorting are well-defined even for floating point columns: NaNs order
/// greater than every other value. LAS data never contains NaN, but the
/// storage layer must not misbehave if one appears.
pub trait Native: Copy + PartialOrd + Send + Sync + 'static + std::fmt::Debug {
    /// The physical type tag corresponding to `Self`.
    const PHYS: PhysicalType;

    /// Smallest representable value, widened to `f64` (floats: `-inf`).
    const MIN_F: f64;

    /// Largest representable value, widened to `f64` (floats: `+inf`).
    const MAX_F: f64;

    /// Whether the type is an integer type (range bounds must be rounded
    /// inward when translating an `f64` query range onto the column).
    const IS_INT: bool;

    /// Exact or lossy widening to `f64`.
    fn to_f64(self) -> f64;

    /// Narrowing conversion from `f64`, saturating at the type bounds.
    fn from_f64(v: f64) -> Self;

    /// Lift into a dynamic [`Value`].
    fn to_value(self) -> Value;

    /// Total order (IEEE totalOrder-like for floats: NaN sorts last).
    fn total_cmp(&self, other: &Self) -> Ordering;

    /// An unsigned key ordered exactly like [`Native::total_cmp`]:
    /// `a.total_cmp(&b) == a.order_key().cmp(&b.order_key())`. Floats map
    /// `-0.0` and `+0.0` to one key and every NaN to `u64::MAX`.
    fn order_key(self) -> u64;

    /// Encode as little-endian bytes, appending to `out`.
    fn write_le(self, out: &mut Vec<u8>);

    /// Decode from little-endian bytes. `bytes.len()` must equal the width.
    fn read_le(bytes: &[u8]) -> Self;
}

macro_rules! impl_native_int {
    ($t:ty, $phys:expr, $val:ident, $wide:ty) => {
        impl Native for $t {
            const PHYS: PhysicalType = $phys;
            const MIN_F: f64 = <$t>::MIN as f64;
            const MAX_F: f64 = <$t>::MAX as f64;
            const IS_INT: bool = true;
            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline]
            fn from_f64(v: f64) -> Self {
                if v.is_nan() {
                    0
                } else if v <= <$t>::MIN as f64 {
                    <$t>::MIN
                } else if v >= <$t>::MAX as f64 {
                    <$t>::MAX
                } else {
                    v as $t
                }
            }
            #[inline]
            fn to_value(self) -> Value {
                Value::$val(self as $wide)
            }
            #[inline]
            fn total_cmp(&self, other: &Self) -> Ordering {
                Ord::cmp(self, other)
            }
            #[inline]
            fn order_key(self) -> u64 {
                // Signed types flip the sign bit of the widened value.
                (self as $wide as u64) ^ (u64::from(<$t>::MIN != 0) << 63)
            }
            #[inline]
            fn write_le(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read_le(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("width-checked slice"))
            }
        }
    };
}

impl_native_int!(i8, PhysicalType::I8, I64, i64);
impl_native_int!(i16, PhysicalType::I16, I64, i64);
impl_native_int!(i32, PhysicalType::I32, I64, i64);
impl_native_int!(i64, PhysicalType::I64, I64, i64);
impl_native_int!(u8, PhysicalType::U8, U64, u64);
impl_native_int!(u16, PhysicalType::U16, U64, u64);
impl_native_int!(u32, PhysicalType::U32, U64, u64);
impl_native_int!(u64, PhysicalType::U64, U64, u64);

macro_rules! impl_native_float {
    ($t:ty, $phys:expr) => {
        impl Native for $t {
            const PHYS: PhysicalType = $phys;
            const MIN_F: f64 = f64::NEG_INFINITY;
            const MAX_F: f64 = f64::INFINITY;
            const IS_INT: bool = false;
            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline]
            fn to_value(self) -> Value {
                Value::F64(self as f64)
            }
            #[inline]
            fn total_cmp(&self, other: &Self) -> Ordering {
                match self.partial_cmp(other) {
                    Some(o) => o,
                    // At least one NaN: NaN sorts after everything, two NaNs
                    // are equal. This gives a genuine total order.
                    None => match (self.is_nan(), other.is_nan()) {
                        (true, true) => Ordering::Equal,
                        (true, false) => Ordering::Greater,
                        (false, true) => Ordering::Less,
                        (false, false) => unreachable!("partial_cmp is None only with NaN"),
                    },
                }
            }
            #[inline]
            fn order_key(self) -> u64 {
                // `+ 0.0` turns -0.0 into +0.0; widening to f64 is exact
                // and order-preserving. Negative values invert every bit
                // (larger magnitude, smaller key), positive ones set the
                // sign bit to rise above them.
                let bits = (self as f64 + 0.0).to_bits();
                let key = bits ^ (((bits as i64 >> 63) as u64) | 1 << 63);
                if self.is_nan() {
                    u64::MAX
                } else {
                    key
                }
            }
            #[inline]
            fn write_le(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read_le(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("width-checked slice"))
            }
        }
    };
}

impl_native_float!(f32, PhysicalType::F32);
impl_native_float!(f64, PhysicalType::F64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_cachelines() {
        assert_eq!(PhysicalType::F64.size(), 8);
        assert_eq!(PhysicalType::F64.values_per_cacheline(), 8);
        assert_eq!(PhysicalType::I32.values_per_cacheline(), 16);
        assert_eq!(PhysicalType::U16.values_per_cacheline(), 32);
        assert_eq!(PhysicalType::U8.values_per_cacheline(), 64);
    }

    #[test]
    fn value_lifting() {
        assert_eq!(5i32.to_value(), Value::I64(5));
        assert_eq!(5u16.to_value(), Value::U64(5));
        assert_eq!(2.5f32.to_value(), Value::F64(2.5));
        assert_eq!(Value::I64(-3).as_f64(), -3.0);
        assert_eq!(Value::U64(u64::MAX).as_i64(), i64::MAX);
    }

    #[test]
    fn saturating_from_f64() {
        assert_eq!(u8::from_f64(300.0), 255);
        assert_eq!(u8::from_f64(-4.0), 0);
        assert_eq!(i16::from_f64(1e9), i16::MAX);
        assert_eq!(i16::from_f64(f64::NAN), 0);
    }

    #[test]
    fn float_total_order_with_nan() {
        let mut v = [3.0f64, f64::NAN, -1.0, 2.0];
        v.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(&v[..3], &[-1.0, 2.0, 3.0]);
        assert!(v[3].is_nan());
        assert_eq!(Native::total_cmp(&f64::NAN, &f64::NAN), Ordering::Equal);
    }

    /// `order_key` sorts every edge value exactly as `total_cmp` does.
    #[test]
    fn order_key_agrees_with_total_cmp() {
        fn check<T: Native>(vals: &[T]) {
            for a in vals {
                for b in vals {
                    assert_eq!(
                        a.order_key().cmp(&b.order_key()),
                        a.total_cmp(b),
                        "{a:?} vs {b:?}"
                    );
                }
            }
        }
        let neg_nan = f64::from_bits(f64::NAN.to_bits() | 1 << 63 | 5);
        check(&[
            f64::NEG_INFINITY,
            f64::MIN,
            -1.5,
            -f64::MIN_POSITIVE,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            1.5,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            neg_nan,
        ]);
        check(&[
            f32::NEG_INFINITY,
            -1.5f32,
            -1e-45,
            -0.0,
            0.0,
            1e-45,
            2.5,
            f32::INFINITY,
            f32::NAN,
        ]);
        check(&[i64::MIN, -1, 0, 1, i64::MAX]);
        check(&[i8::MIN, -1, 0, 1, i8::MAX]);
        check(&[0u64, 1, u64::MAX - 1, u64::MAX]);
        check(&[0u16, 1, u16::MAX]);
    }

    #[test]
    fn le_roundtrip() {
        let mut buf = Vec::new();
        0x1234_5678_9abc_def0u64.write_le(&mut buf);
        assert_eq!(u64::read_le(&buf), 0x1234_5678_9abc_def0);
        buf.clear();
        (-2.5f64).write_le(&mut buf);
        assert_eq!(f64::read_le(&buf), -2.5);
        buf.clear();
        (-7i16).write_le(&mut buf);
        assert_eq!(i16::read_le(&buf), -7);
    }

    #[test]
    fn names() {
        assert_eq!(PhysicalType::U32.name(), "u32");
        assert!(PhysicalType::F32.is_float());
        assert!(PhysicalType::I8.is_signed_int());
        assert!(!PhysicalType::U8.is_signed_int());
    }
}
