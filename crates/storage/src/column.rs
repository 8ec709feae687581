//! Type-erased growable columns.
//!
//! A [`Column`] is the unit of storage of the flat table: a densely packed
//! vector of one physical type. It supports `COPY BINARY`-style bulk append
//! (the loading path of §3.2 of the paper: per-attribute binary dumps are
//! appended to the column tails with a plain memcpy), dynamic access through
//! [`Value`], and typed access through [`Column::as_slice`] for the
//! monomorphised kernels.

use crate::error::StorageError;
use crate::types::{Native, PhysicalType, Value};

/// A type-erased column of numeric values.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Column of `i8`.
    I8(Vec<i8>),
    /// Column of `i16`.
    I16(Vec<i16>),
    /// Column of `i32`.
    I32(Vec<i32>),
    /// Column of `i64`.
    I64(Vec<i64>),
    /// Column of `u8`.
    U8(Vec<u8>),
    /// Column of `u16`.
    U16(Vec<u16>),
    /// Column of `u32`.
    U32(Vec<u32>),
    /// Column of `u64`.
    U64(Vec<u64>),
    /// Column of `f32`.
    F32(Vec<f32>),
    /// Column of `f64`.
    F64(Vec<f64>),
}

/// Dispatch `$body` with `$v` bound to the inner `Vec<T>` of every variant
/// of a [`Column`] — the one typed dispatch behind the monomorphised
/// kernels, here and in the query engine.
#[macro_export]
macro_rules! for_each_variant {
    ($self:expr, $v:ident => $body:expr) => {
        match $self {
            $crate::Column::I8($v) => $body,
            $crate::Column::I16($v) => $body,
            $crate::Column::I32($v) => $body,
            $crate::Column::I64($v) => $body,
            $crate::Column::U8($v) => $body,
            $crate::Column::U16($v) => $body,
            $crate::Column::U32($v) => $body,
            $crate::Column::U64($v) => $body,
            $crate::Column::F32($v) => $body,
            $crate::Column::F64($v) => $body,
        }
    };
}

impl Column {
    /// Create an empty column of the given physical type.
    pub fn new(ptype: PhysicalType) -> Self {
        Self::with_capacity(ptype, 0)
    }

    /// Create an empty column with reserved capacity for `n` values.
    pub fn with_capacity(ptype: PhysicalType, n: usize) -> Self {
        match ptype {
            PhysicalType::I8 => Column::I8(Vec::with_capacity(n)),
            PhysicalType::I16 => Column::I16(Vec::with_capacity(n)),
            PhysicalType::I32 => Column::I32(Vec::with_capacity(n)),
            PhysicalType::I64 => Column::I64(Vec::with_capacity(n)),
            PhysicalType::U8 => Column::U8(Vec::with_capacity(n)),
            PhysicalType::U16 => Column::U16(Vec::with_capacity(n)),
            PhysicalType::U32 => Column::U32(Vec::with_capacity(n)),
            PhysicalType::U64 => Column::U64(Vec::with_capacity(n)),
            PhysicalType::F32 => Column::F32(Vec::with_capacity(n)),
            PhysicalType::F64 => Column::F64(Vec::with_capacity(n)),
        }
    }

    /// The physical type of the column.
    pub fn ptype(&self) -> PhysicalType {
        match self {
            Column::I8(_) => PhysicalType::I8,
            Column::I16(_) => PhysicalType::I16,
            Column::I32(_) => PhysicalType::I32,
            Column::I64(_) => PhysicalType::I64,
            Column::U8(_) => PhysicalType::U8,
            Column::U16(_) => PhysicalType::U16,
            Column::U32(_) => PhysicalType::U32,
            Column::U64(_) => PhysicalType::U64,
            Column::F32(_) => PhysicalType::F32,
            Column::F64(_) => PhysicalType::F64,
        }
    }

    /// Number of values in the column.
    pub fn len(&self) -> usize {
        for_each_variant!(self, v => v.len())
    }

    /// Whether the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the value payload in bytes.
    pub fn byte_len(&self) -> usize {
        self.len() * self.ptype().size()
    }

    /// Bytes the column's buffer holds: its values plus the spare
    /// capacity growth left behind.
    pub fn capacity_bytes(&self) -> usize {
        for_each_variant!(self, v => v.capacity()) * self.ptype().size()
    }

    /// Make room for exactly `n` more values (`Vec::reserve_exact`): an
    /// append of up to `n` values then copies no value already held.
    pub fn reserve_exact(&mut self, n: usize) {
        for_each_variant!(self, v => v.reserve_exact(n))
    }

    /// Fetch the value at `row`, lifted into a [`Value`].
    ///
    /// Returns `None` when `row` is out of bounds.
    pub fn get(&self, row: usize) -> Option<Value> {
        for_each_variant!(self, v => v.get(row).map(|x| x.to_value()))
    }

    /// Append one dynamic value, converting through `f64` when the variant
    /// lattice differs from the column type.
    pub fn push(&mut self, value: Value) {
        match self {
            Column::I8(v) => v.push(i8::from_f64(value.as_f64())),
            Column::I16(v) => v.push(i16::from_f64(value.as_f64())),
            Column::I32(v) => v.push(i32::from_f64(value.as_f64())),
            Column::I64(v) => v.push(match value {
                Value::I64(x) => x,
                other => i64::from_f64(other.as_f64()),
            }),
            Column::U8(v) => v.push(u8::from_f64(value.as_f64())),
            Column::U16(v) => v.push(u16::from_f64(value.as_f64())),
            Column::U32(v) => v.push(u32::from_f64(value.as_f64())),
            Column::U64(v) => v.push(match value {
                Value::U64(x) => x,
                other => u64::from_f64(other.as_f64()),
            }),
            Column::F32(v) => v.push(value.as_f64() as f32),
            Column::F64(v) => v.push(value.as_f64()),
        }
    }

    /// Typed view of the data. Errors when `T` does not match the column.
    pub fn as_slice<T: Native>(&self) -> Result<&[T], StorageError> {
        fn cast<A: 'static, B: 'static>(v: &[A]) -> &[B] {
            debug_assert_eq!(std::any::TypeId::of::<A>(), std::any::TypeId::of::<B>());
            // SAFETY: caller (below) only reaches this when A == B, verified
            // by the PhysicalType check; the debug_assert documents it.
            unsafe { std::slice::from_raw_parts(v.as_ptr().cast::<B>(), v.len()) }
        }
        if T::PHYS != self.ptype() {
            return Err(StorageError::TypeMismatch {
                expected: T::PHYS,
                found: self.ptype(),
            });
        }
        Ok(for_each_variant!(self, v => cast::<_, T>(v)))
    }

    /// Typed mutable handle used by loaders. Errors when `T` mismatches.
    pub fn as_vec_mut<T: Native>(&mut self) -> Result<&mut Vec<T>, StorageError> {
        fn cast<A: 'static, B: 'static>(v: &mut Vec<A>) -> &mut Vec<B> {
            // SAFETY: as in `as_slice`, only reached when A == B.
            unsafe { &mut *(v as *mut Vec<A>).cast::<Vec<B>>() }
        }
        if T::PHYS != self.ptype() {
            return Err(StorageError::TypeMismatch {
                expected: T::PHYS,
                found: self.ptype(),
            });
        }
        Ok(for_each_variant!(self, v => cast::<_, T>(v)))
    }

    /// Append a typed slice (the fast `COPY BINARY` path once the binary
    /// dump has been decoded to native values).
    pub fn extend_typed<T: Native>(&mut self, values: &[T]) -> Result<(), StorageError> {
        self.as_vec_mut::<T>()?.extend_from_slice(values);
        Ok(())
    }

    /// Append values from a little-endian binary dump, i.e. the exact bytes
    /// a `COPY BINARY` column file contains. The buffer length must be a
    /// multiple of the value width.
    pub fn extend_from_le_bytes(&mut self, bytes: &[u8]) -> Result<usize, StorageError> {
        let width = self.ptype().size();
        if !bytes.len().is_multiple_of(width) {
            return Err(StorageError::MisalignedBuffer {
                ptype: self.ptype(),
                len: bytes.len(),
            });
        }
        let n = bytes.len() / width;
        for_each_variant!(self, v => extend_le(v, bytes));
        Ok(n)
    }

    /// A column of `n` values of `ptype` whose little-endian dump `fill`
    /// writes straight into the column's own buffer — the one copy of a
    /// dump read. `fill` gets the `n * width` bytes (zeroed) and may check
    /// them before they become values; its error is returned as is.
    pub fn from_le_with<E>(
        ptype: PhysicalType,
        n: usize,
        fill: impl FnOnce(&mut [u8]) -> Result<(), E>,
    ) -> Result<Column, E> {
        let mut col = match ptype {
            PhysicalType::I8 => Column::I8(vec![0; n]),
            PhysicalType::I16 => Column::I16(vec![0; n]),
            PhysicalType::I32 => Column::I32(vec![0; n]),
            PhysicalType::I64 => Column::I64(vec![0; n]),
            PhysicalType::U8 => Column::U8(vec![0; n]),
            PhysicalType::U16 => Column::U16(vec![0; n]),
            PhysicalType::U32 => Column::U32(vec![0; n]),
            PhysicalType::U64 => Column::U64(vec![0; n]),
            PhysicalType::F32 => Column::F32(vec![0.0; n]),
            PhysicalType::F64 => Column::F64(vec![0.0; n]),
        };
        for_each_variant!(&mut col, v => {
            fill(value_bytes_mut(v))?;
            if cfg!(target_endian = "big") {
                let values = value_bytes_mut(v).chunks_exact(ptype.size()).map(Native::read_le);
                *v = values.collect();
            }
        });
        Ok(col)
    }

    /// Serialise the column payload as a little-endian binary dump — the
    /// format produced by the binary loader of §3.2.
    pub fn to_le_bytes(&self) -> Vec<u8> {
        self.range_to_le_bytes(0..self.len())
    }

    /// [`Self::to_le_bytes`] of the rows in `rows` only — one tile of a
    /// tiled dump, without serialising the rest of the column.
    ///
    /// # Panics
    /// Panics if `rows` is out of bounds.
    pub fn range_to_le_bytes(&self, rows: std::ops::Range<usize>) -> Vec<u8> {
        let mut out = Vec::with_capacity(rows.len() * self.ptype().size());
        for_each_variant!(self, v => {
            for &x in &v[rows] {
                x.write_le(&mut out);
            }
        });
        out
    }

    /// Gather rows listed in `sel` into a new column of the same type.
    ///
    /// # Panics
    /// Panics if any selected row is out of bounds.
    pub fn gather(&self, sel: &[usize]) -> Column {
        match self {
            Column::I8(v) => Column::I8(sel.iter().map(|&i| v[i]).collect()),
            Column::I16(v) => Column::I16(sel.iter().map(|&i| v[i]).collect()),
            Column::I32(v) => Column::I32(sel.iter().map(|&i| v[i]).collect()),
            Column::I64(v) => Column::I64(sel.iter().map(|&i| v[i]).collect()),
            Column::U8(v) => Column::U8(sel.iter().map(|&i| v[i]).collect()),
            Column::U16(v) => Column::U16(sel.iter().map(|&i| v[i]).collect()),
            Column::U32(v) => Column::U32(sel.iter().map(|&i| v[i]).collect()),
            Column::U64(v) => Column::U64(sel.iter().map(|&i| v[i]).collect()),
            Column::F32(v) => Column::F32(sel.iter().map(|&i| v[i]).collect()),
            Column::F64(v) => Column::F64(sel.iter().map(|&i| v[i]).collect()),
        }
    }

    /// Iterate all values lifted to `f64`. Intended for cold paths
    /// (aggregation over small result sets, tests, rendering).
    pub fn iter_f64(&self) -> Box<dyn Iterator<Item = f64> + '_> {
        for_each_variant!(self, v => Box::new(v.iter().map(|&x| x.to_f64())))
    }
}

/// Append the values of a little-endian dump whose length is a multiple
/// of the width (one bounds-check-free loop, not a push per value).
fn extend_le<T: Native>(v: &mut Vec<T>, bytes: &[u8]) {
    v.extend(bytes.chunks_exact(T::PHYS.size()).map(T::read_le));
}

/// The bytes of one of a [`Column`]'s value vectors, in memory order.
fn value_bytes_mut<T: Native>(v: &mut [T]) -> &mut [u8] {
    // SAFETY: only called on the vectors inside a `Column`, whose element
    // types are primitive integers and floats: no padding, every bit
    // pattern a valid value. The view covers exactly `v`'s initialised
    // bytes and borrows `v` mutably for its whole life.
    unsafe { std::slice::from_raw_parts_mut(v.as_mut_ptr().cast::<u8>(), std::mem::size_of_val(v)) }
}

impl<T: Native> FromIterator<T> for Column {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut col = Column::new(T::PHYS);
        {
            let v = col.as_vec_mut::<T>().expect("freshly typed column");
            v.extend(iter);
        }
        col
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_roundtrip() {
        let col: Column = vec![1.0f64, 2.0, 3.5].into_iter().collect();
        assert_eq!(col.ptype(), PhysicalType::F64);
        assert_eq!(col.len(), 3);
        assert_eq!(col.as_slice::<f64>().unwrap(), &[1.0, 2.0, 3.5]);
        assert!(col.as_slice::<i32>().is_err());
    }

    #[test]
    fn binary_dump_roundtrip() {
        let col: Column = vec![7u16, 8, 9, 65535].into_iter().collect();
        let bytes = col.to_le_bytes();
        assert_eq!(bytes.len(), 8);
        let mut col2 = Column::new(PhysicalType::U16);
        assert_eq!(col2.extend_from_le_bytes(&bytes).unwrap(), 4);
        assert_eq!(col, col2);
    }

    #[test]
    fn misaligned_binary_dump_rejected() {
        let mut col = Column::new(PhysicalType::F64);
        let err = col.extend_from_le_bytes(&[0u8; 12]).unwrap_err();
        assert!(matches!(err, StorageError::MisalignedBuffer { .. }));
    }

    #[test]
    fn push_and_get_dynamic() {
        let mut col = Column::new(PhysicalType::U8);
        col.push(Value::I64(42));
        col.push(Value::F64(300.0)); // saturates
        assert_eq!(col.get(0), Some(Value::U64(42)));
        assert_eq!(col.get(1), Some(Value::U64(255)));
        assert_eq!(col.get(2), None);
    }

    #[test]
    fn gather_preserves_type_and_order() {
        let col: Column = vec![10.0f32, 20.0, 30.0, 40.0].into_iter().collect();
        let picked = col.gather(&[3, 1]);
        assert_eq!(picked.as_slice::<f32>().unwrap(), &[40.0, 20.0]);
    }

    /// A dump read in place decodes to the column `extend_from_le_bytes`
    /// builds, for every type; `fill`'s error comes back unchanged.
    #[test]
    fn from_le_with_equals_extend_from_le_bytes() {
        let cols = [
            Column::from_iter([i8::MIN, -1, 0, 7, i8::MAX]),
            Column::from_iter([i16::MIN, -300, 0, i16::MAX]),
            Column::from_iter([i32::MIN, -70_000, 0, i32::MAX]),
            Column::from_iter([i64::MIN, -1, 0, i64::MAX]),
            Column::from_iter([0u8, 200, u8::MAX]),
            Column::from_iter([0u16, 60_000]),
            Column::from_iter([0u32, u32::MAX]),
            Column::from_iter([0u64, u64::MAX]),
            Column::from_iter([f32::MIN, -0.0, 1.5, f32::INFINITY]),
            Column::from_iter([f64::MIN_POSITIVE, -2.5, f64::NAN]),
        ];
        for col in cols {
            let dump = col.to_le_bytes();
            let mut expect = Column::new(col.ptype());
            expect.extend_from_le_bytes(&dump).unwrap();
            let got = Column::from_le_with(col.ptype(), col.len(), |b: &mut [u8]| {
                b.copy_from_slice(&dump);
                Ok::<_, ()>(())
            })
            .unwrap();
            assert_eq!(got.to_le_bytes(), expect.to_le_bytes(), "{:?}", col.ptype());
            assert_eq!(got.len(), col.len());
        }
        let err = Column::from_le_with(PhysicalType::U16, 3, |b| Err(b.len()));
        assert_eq!(err, Err(6));
    }

    #[test]
    fn extend_typed_checks_type() {
        let mut col = Column::new(PhysicalType::F64);
        col.extend_typed(&[1.0f64, 2.0]).unwrap();
        assert!(col.extend_typed(&[1i64]).is_err());
        assert_eq!(col.len(), 2);
    }

    #[test]
    fn iter_f64_covers_all_variants() {
        let cols = [
            Column::from_iter([1i8]),
            Column::from_iter([1i16]),
            Column::from_iter([1i32]),
            Column::from_iter([1i64]),
            Column::from_iter([1u8]),
            Column::from_iter([1u16]),
            Column::from_iter([1u32]),
            Column::from_iter([1u64]),
            Column::from_iter([1f32]),
            Column::from_iter([1f64]),
        ];
        for c in &cols {
            assert_eq!(c.iter_f64().collect::<Vec<_>>(), vec![1.0]);
        }
    }
}
