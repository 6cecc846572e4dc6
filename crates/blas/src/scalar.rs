//! The sealed element-type abstraction of the compute stack.
//!
//! Every hot-path container and kernel in the reproduction — matrices,
//! dense tensors, KRP streams, the [`crate::KernelSet`] function-pointer
//! layer, the MTTKRP plans, and the CP drivers — is generic over one
//! [`Scalar`] parameter, defaulting to `f64` so the original all-double
//! API is unchanged. The trait is **sealed** to exactly `f32` and `f64`:
//! the paper's machine model prices MTTKRP in memory traffic and SIMD
//! lanes, and those are the two IEEE types the SIMD tiers implement
//! (each `f32` kernel runs twice the lanes of its `f64` twin).
//!
//! Mixed precision is part of the contract, not an afterthought: dot
//! products, SYRK/Gram accumulation, and norm reductions always
//! accumulate in `f64` regardless of the storage type (see
//! [`crate::KernelSet::dot`] and [`crate::KernelSet::syrk_rank1_lower`]),
//! so `f32` factor matrices lose precision only at the final store, not
//! inside long reductions.
//!
//! The trait also carries the workspace's one binary codec primitive: a
//! byte view of a slice's storage ([`Scalar::as_bytes`]), through which
//! [`Scalar::read_le`] and [`Scalar::write_le`] move little-endian
//! payloads between files and vectors with no per-element conversion.

use std::fmt::{Debug, Display};
use std::io::{self, Read, Write};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::sync::OnceLock;

use crate::kernels::{KernelSet, KernelTier};

mod sealed {
    /// Seal: only `f32` and `f64` can implement [`super::Scalar`].
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// Runtime tag for the two storable element types.
///
/// This is what file headers, CLI flags (`--dtype`), and bench records
/// carry; [`Scalar::DTYPE`] maps the compile-time parameter to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dtype {
    /// IEEE-754 binary32 storage (f64 accumulation in reductions).
    F32,
    /// IEEE-754 binary64 storage.
    F64,
}

impl Dtype {
    /// Lower-case dtype name as used by `--dtype` and file headers.
    pub fn name(self) -> &'static str {
        match self {
            Dtype::F32 => "f32",
            Dtype::F64 => "f64",
        }
    }

    /// Storage size of one element in bytes.
    pub fn size_bytes(self) -> usize {
        match self {
            Dtype::F32 => 4,
            Dtype::F64 => 8,
        }
    }

    /// Parse a dtype name (`"f32"` or `"f64"`).
    pub fn parse(s: &str) -> Result<Dtype, String> {
        match s {
            "f32" => Ok(Dtype::F32),
            "f64" => Ok(Dtype::F64),
            other => Err(format!("unknown dtype {other:?} (expected f32|f64)")),
        }
    }
}

impl Display for Dtype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A storable element type of the compute stack: `f32` or `f64`.
///
/// Beyond plain arithmetic, the trait carries the per-type dispatch
/// plumbing the crate needs because Rust statics and `thread_local!`
/// cannot themselves be generic: the process-wide [`KernelSet`] cell,
/// the SIMD tier constructors, and the GEMM pack-buffer arena each have
/// one monomorphic home per type, reached through these methods.
pub trait Scalar:
    sealed::Sealed
    + Copy
    + Default
    + Send
    + Sync
    + 'static
    + PartialEq
    + PartialOrd
    + Debug
    + Display
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Machine epsilon of this type (`f32::EPSILON` / `f64::EPSILON`),
    /// the unit the factorization tolerances in `mttkrp-linalg` scale.
    const EPSILON: Self;
    /// Smallest positive normal value of this type.
    const MIN_POSITIVE: Self;
    /// Runtime tag of this type.
    const DTYPE: Dtype;

    /// Narrow (or pass through) an `f64` value.
    fn from_f64(x: f64) -> Self;

    /// Widen (or pass through) to `f64`.
    fn to_f64(self) -> f64;

    /// Absolute value.
    fn abs(self) -> Self;

    /// Square root (what the Cholesky pivot and the EVD rotations
    /// need; follows IEEE `sqrt` for the type).
    fn sqrt(self) -> Self;

    /// `sqrt(self² + other²)` without intermediate overflow.
    fn hypot(self, other: Self) -> Self;

    /// IEEE maximum of two values.
    fn max(self, other: Self) -> Self;

    /// IEEE minimum of two values.
    fn min(self, other: Self) -> Self;

    /// `true` when neither infinite nor NaN.
    fn is_finite(self) -> bool;

    /// Fused (or contracted) `self * a + b`.
    fn mul_add(self, a: Self, b: Self) -> Self;

    /// The process-wide kernel-set cell for this type. Use
    /// [`crate::kernels::kernels`] instead of touching this directly.
    #[doc(hidden)]
    fn global_kernel_cell() -> &'static OnceLock<KernelSet<Self>>;

    /// The SIMD kernel set for `tier` on this type, if the crate ships
    /// one for the compile target. `tier` is already known to be
    /// supported by the running CPU when this is called.
    #[doc(hidden)]
    fn simd_set(tier: KernelTier) -> Option<KernelSet<Self>>;

    /// Run `f` with this thread's reusable GEMM pack buffers
    /// (packed A; packed B followed by the packed C block) for this
    /// element type.
    #[doc(hidden)]
    fn with_pack_buffers<R>(f: impl FnOnce(&mut Vec<Self>, &mut Vec<Self>) -> R) -> R;

    /// The storage bytes of `xs`, `xs.len() × size_bytes` of them in
    /// native byte order — on little-endian hosts exactly the
    /// little-endian encoding the file formats use.
    fn as_bytes(xs: &[Self]) -> &[u8] {
        // SAFETY: the trait is sealed to `f32` and `f64`, which have no
        // padding, so the slice is `size_of_val(xs)` initialized bytes;
        // `u8` has alignment 1 and the borrow keeps `xs` alive.
        unsafe { std::slice::from_raw_parts(xs.as_ptr().cast(), std::mem::size_of_val(xs)) }
    }

    /// The mutable storage bytes of `xs` (see [`Scalar::as_bytes`]).
    fn as_bytes_mut(xs: &mut [Self]) -> &mut [u8] {
        // SAFETY: as in `as_bytes`, and every bit pattern is a valid
        // `f32`/`f64`, so any bytes stored through the view leave `xs`
        // holding valid values. The exclusive borrow rules out aliasing.
        unsafe { std::slice::from_raw_parts_mut(xs.as_mut_ptr().cast(), std::mem::size_of_val(xs)) }
    }

    /// Fill `xs` from its little-endian encoding with one `read_exact`
    /// straight into the storage. Bit-exact: NaN payloads, signed
    /// zeros and subnormals arrive unchanged.
    fn read_le(r: &mut impl Read, xs: &mut [Self]) -> io::Result<()> {
        r.read_exact(Self::as_bytes_mut(xs))?;
        #[cfg(target_endian = "big")]
        swap_bytes(Self::as_bytes_mut(xs), Self::DTYPE.size_bytes());
        Ok(())
    }

    /// Write the little-endian encoding of `xs`, straight from the
    /// storage on little-endian hosts.
    fn write_le(w: &mut impl Write, xs: &[Self]) -> io::Result<()> {
        #[cfg(target_endian = "big")]
        for chunk in xs.chunks(1024) {
            let mut le = chunk.to_vec();
            swap_bytes(Self::as_bytes_mut(&mut le), Self::DTYPE.size_bytes());
            w.write_all(Self::as_bytes(&le))?;
        }
        #[cfg(target_endian = "little")]
        w.write_all(Self::as_bytes(xs))?;
        Ok(())
    }
}

/// Reverse each `esz`-byte element between native and little-endian
/// order (big-endian hosts only).
#[cfg(target_endian = "big")]
fn swap_bytes(bytes: &mut [u8], esz: usize) {
    for e in bytes.chunks_exact_mut(esz) {
        e.reverse();
    }
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: Self = f64::EPSILON;
    const MIN_POSITIVE: Self = f64::MIN_POSITIVE;
    const DTYPE: Dtype = Dtype::F64;

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }

    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }

    #[inline(always)]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }

    #[inline(always)]
    fn hypot(self, other: Self) -> Self {
        f64::hypot(self, other)
    }

    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }

    #[inline(always)]
    fn min(self, other: Self) -> Self {
        f64::min(self, other)
    }

    #[inline(always)]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }

    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        self * a + b
    }

    fn global_kernel_cell() -> &'static OnceLock<KernelSet<f64>> {
        static CELL: OnceLock<KernelSet<f64>> = OnceLock::new();
        &CELL
    }

    fn simd_set(tier: KernelTier) -> Option<KernelSet<f64>> {
        match tier {
            KernelTier::Scalar => Some(KernelSet::scalar()),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => Some(crate::kernels::x86_64::avx2_set_f64()),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 => Some(crate::kernels::x86_64::avx512_set_f64()),
            #[cfg(target_arch = "aarch64")]
            KernelTier::Neon => Some(crate::kernels::aarch64::neon_set_f64()),
            #[allow(unreachable_patterns)]
            _ => None,
        }
    }

    fn with_pack_buffers<R>(f: impl FnOnce(&mut Vec<f64>, &mut Vec<f64>) -> R) -> R {
        thread_local! {
            static PACKS: std::cell::RefCell<(Vec<f64>, Vec<f64>)> =
                const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
        }
        PACKS.with(|cell| {
            let mut packs = cell.borrow_mut();
            let (a, b) = &mut *packs;
            f(a, b)
        })
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: Self = f32::EPSILON;
    const MIN_POSITIVE: Self = f32::MIN_POSITIVE;
    const DTYPE: Dtype = Dtype::F32;

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x as f32
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }

    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }

    #[inline(always)]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }

    #[inline(always)]
    fn hypot(self, other: Self) -> Self {
        f32::hypot(self, other)
    }

    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f32::max(self, other)
    }

    #[inline(always)]
    fn min(self, other: Self) -> Self {
        f32::min(self, other)
    }

    #[inline(always)]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }

    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        self * a + b
    }

    fn global_kernel_cell() -> &'static OnceLock<KernelSet<f32>> {
        static CELL: OnceLock<KernelSet<f32>> = OnceLock::new();
        &CELL
    }

    fn simd_set(tier: KernelTier) -> Option<KernelSet<f32>> {
        match tier {
            KernelTier::Scalar => Some(KernelSet::scalar()),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => Some(crate::kernels::x86_64::avx2_set_f32()),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 => Some(crate::kernels::x86_64::avx512_set_f32()),
            #[cfg(target_arch = "aarch64")]
            KernelTier::Neon => Some(crate::kernels::aarch64::neon_set_f32()),
            #[allow(unreachable_patterns)]
            _ => None,
        }
    }

    fn with_pack_buffers<R>(f: impl FnOnce(&mut Vec<f32>, &mut Vec<f32>) -> R) -> R {
        thread_local! {
            static PACKS: std::cell::RefCell<(Vec<f32>, Vec<f32>)> =
                const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
        }
        PACKS.with(|cell| {
            let mut packs = cell.borrow_mut();
            let (a, b) = &mut *packs;
            f(a, b)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_round_trips() {
        for d in [Dtype::F32, Dtype::F64] {
            assert_eq!(Dtype::parse(d.name()), Ok(d));
        }
        assert!(Dtype::parse("f16").is_err());
        assert_eq!(Dtype::F32.size_bytes(), 4);
        assert_eq!(Dtype::F64.size_bytes(), 8);
    }

    #[test]
    fn scalar_consts_and_conversions() {
        assert_eq!(<f32 as Scalar>::DTYPE, Dtype::F32);
        assert_eq!(<f64 as Scalar>::DTYPE, Dtype::F64);
        assert_eq!(f32::from_f64(1.5), 1.5f32);
        assert_eq!(Scalar::to_f64(2.5f32), 2.5f64);
        assert_eq!(<f32 as Scalar>::ZERO + <f32 as Scalar>::ONE, 1.0f32);
    }

    #[test]
    fn math_methods_match_inherent_ops() {
        fn probe<S: Scalar>() {
            let four = S::from_f64(4.0);
            let three = S::from_f64(3.0);
            assert_eq!(four.sqrt().to_f64(), 2.0);
            assert_eq!(four.hypot(three).to_f64(), 5.0);
            assert_eq!(four.max(three), four);
            assert_eq!(four.min(three), three);
            assert!(four.is_finite());
            assert!(!(four / S::ZERO).is_finite());
            assert!(S::EPSILON.to_f64() > 0.0);
            assert!(S::MIN_POSITIVE.to_f64() > 0.0);
        }
        probe::<f32>();
        probe::<f64>();
    }

    #[test]
    fn byte_view_is_the_little_endian_encoding() {
        let xs = [1.5f64, -0.0, f64::from_bits(0x7ff4_0000_0000_0001)];
        let mut enc = Vec::new();
        f64::write_le(&mut enc, &xs).unwrap();
        let want: Vec<u8> = xs.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(enc, want);
        let mut back = [0.0f32; 2];
        let src = [f32::from_bits(0x7fa0_0001), f32::from_bits(1)];
        let enc: Vec<u8> = src.iter().flat_map(|v| v.to_le_bytes()).collect();
        f32::read_le(&mut &enc[..], &mut back).unwrap();
        assert_eq!(back.map(f32::to_bits), src.map(f32::to_bits));
        assert_eq!(f32::as_bytes(&back).len(), 8);
    }

    #[test]
    fn pack_buffers_persist_per_type() {
        let first = f32::with_pack_buffers(|a, _| {
            a.resize(64, 0.0);
            a.as_ptr() as usize
        });
        let second = f32::with_pack_buffers(|a, _| a.as_ptr() as usize);
        assert_eq!(first, second, "pack arena must be stable per thread");
    }
}
