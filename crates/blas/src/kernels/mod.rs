//! Runtime-dispatched hardware kernels under every hot loop.
//!
//! The paper's performance argument is that MTTKRP should run at the
//! speed of tuned matrix kernels (it reaches memory-bound throughput
//! via multithreaded MKL). Autovectorization gets close on simple
//! streams but leaves the register-tiled GEMM microkernel, the SYRK
//! row updates, and the CSF accumulate loops short of peak — dedicated
//! per-architecture kernels close that gap (cf. the GenTen follow-up's
//! performance-portable MTTKRP).
//!
//! Each primitive has a shared scalar reference implementation
//! ([`scalar`]) and, where the target supports it, explicit-SIMD
//! variants: AVX2+FMA and AVX-512F on `x86_64`, NEON on `aarch64`.
//! Every kernel exists for both element types ([`crate::Scalar`]): the
//! `f32` SIMD variants run **twice the lanes** of their `f64` twins
//! (AVX2 8 vs 4, AVX-512 16 vs 8, NEON 4 vs 2), while the reductions —
//! `dot` and the SYRK rank-1 update — always accumulate in `f64`.
//!
//! CPU capability is detected **once** (via
//! `is_x86_feature_detected!`-style runtime checks) and resolved into a
//! [`KernelSet`] — a plain struct of function pointers — so hot loops
//! pay one indirect call per kernel invocation and zero per-call
//! feature checks.
//!
//! The process-wide default set is [`kernels()`] (one per element
//! type). It honours the `MTTKRP_KERNEL` environment variable (`auto`,
//! `scalar`, `avx2`, `avx512`, `neon`) so CI can force the portable
//! fallback, and [`force_tier`] lets a harness pin the tier
//! programmatically before first use (the `--kernel` flag; it pins
//! **both** element types). Plans capture a `KernelSet` at
//! construction, so a forced tier threads through `MttkrpPlan` /
//! `SparseMttkrpPlan` executions built afterwards.

use crate::scalar::Scalar;

pub mod scalar;

#[cfg(target_arch = "aarch64")]
pub mod aarch64;
#[cfg(target_arch = "x86_64")]
pub mod x86_64;

/// Tallest GEMM register tile of any set ([`KernelSet::mr`]): the
/// `f32` AVX-512 tile, two 16-lane vectors along `m`. The GEMM driver
/// sizes its stack of row slices for the transposing pack by it.
pub(crate) const MAX_MR: usize = 32;

/// Widest GEMM register tile of any set ([`KernelSet::nr`]): the
/// AVX-512 tile. The KRP pack sizes its stack row of leading-factor
/// products by it.
pub(crate) const MAX_NR: usize = 12;
const _: () = assert!(scalar::NR <= MAX_NR);

/// Checks the [`KernelSet::gemm_micro`] contract for a tile of height
/// `mr` and widest panel `nr`: A is read at `a[p·lda + i]` for `p < kc`,
/// `i < mr`, so it needs `lda >= mr` and `(kc − 1)·lda + mr` elements.
/// The SIMD microkernels read their operands through raw pointers, so
/// this check is what makes their safe wrappers sound.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn check_micro_args(
    mr: usize,
    nr: usize,
    kc: usize,
    w: usize,
    a: usize,
    lda: usize,
    b_panel: usize,
    tile: usize,
) {
    let a_need = kc.checked_sub(1).map_or(0, |p| p * lda + mr);
    assert!(
        (1..=nr).contains(&w) && lda >= mr && a >= a_need && b_panel >= kc * w && tile >= mr * w,
        "gemm_micro: w={w} (nr={nr}), kc={kc}, a {a} (lda={lda}), b {b_panel}, tile {tile} (mr={mr})"
    );
}

/// Checks the `pack_rows` contract (at most `mr` rows, all of one
/// length `kc`, and room for a `kc × mr` micro-panel) and returns `kc`.
#[inline]
pub(crate) fn check_pack_rows<S>(mr: usize, rows: &[&[S]], dst: usize) -> usize {
    let kc = rows.first().map_or(0, |r| r.len());
    assert!(
        rows.len() <= mr && rows.iter().all(|r| r.len() == kc) && dst >= kc * mr,
        "pack_rows: {} rows of length {kc} into {dst} (mr={mr})",
        rows.len()
    );
    kc
}

/// A dispatchable kernel tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelTier {
    /// Portable reference kernels (autovectorized Rust).
    Scalar,
    /// AVX2 + FMA (`x86_64`).
    Avx2,
    /// AVX-512F (`x86_64`).
    Avx512,
    /// NEON / AdvSIMD (`aarch64`).
    Neon,
}

impl KernelTier {
    /// Lower-case tier name as used by `--kernel` and `MTTKRP_KERNEL`.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Avx2 => "avx2",
            KernelTier::Avx512 => "avx512",
            KernelTier::Neon => "neon",
        }
    }

    /// Parse a tier name (`auto` maps to `None`, i.e. detect).
    pub fn parse(s: &str) -> Result<Option<KernelTier>, String> {
        match s {
            "auto" => Ok(None),
            "scalar" => Ok(Some(KernelTier::Scalar)),
            "avx2" => Ok(Some(KernelTier::Avx2)),
            "avx512" => Ok(Some(KernelTier::Avx512)),
            "neon" => Ok(Some(KernelTier::Neon)),
            other => Err(format!(
                "unknown kernel tier {other:?} (expected auto|scalar|avx2|avx512|neon)"
            )),
        }
    }

    /// Whether this tier's instructions are available on the running CPU.
    pub fn supported(self) -> bool {
        match self {
            KernelTier::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "aarch64")]
            KernelTier::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[cfg(not(target_arch = "x86_64"))]
            KernelTier::Avx2 | KernelTier::Avx512 => false,
            #[cfg(not(target_arch = "aarch64"))]
            KernelTier::Neon => false,
        }
    }

    /// SIMD lane count of this tier's kernels for an element of
    /// `size_bytes` (8 for `f64`, 4 for `f32`); 1 for the scalar tier.
    pub fn lanes_for(self, size_bytes: usize) -> usize {
        let vector_bytes = match self {
            KernelTier::Scalar => return 1,
            KernelTier::Avx2 => 32,
            KernelTier::Avx512 => 64,
            KernelTier::Neon => 16,
        };
        vector_bytes / size_bytes
    }
}

impl std::fmt::Display for KernelTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One resolved set of kernel function pointers — the unit of dispatch.
///
/// Sets for SIMD tiers are only constructible when
/// [`KernelTier::supported`] holds (enforced by [`KernelSet::for_tier`]),
/// which is what makes calling their pointers sound.
///
/// The element type `S` defaults to `f64`; the two reductions (`dot`,
/// `syrk_rank1_lower`) accumulate in `f64` for every `S`.
#[derive(Clone, Copy)]
pub struct KernelSet<S: Scalar = f64> {
    tier: KernelTier,
    /// Height of the `gemm_micro` tile (rows of C, along which it is
    /// vectorized).
    mr: usize,
    /// Widest B panel of `gemm_micro` (columns of C per register tile).
    nr: usize,
    /// Dot product `Σ x[i]·y[i]` (equal lengths), accumulated in `f64`.
    pub dot: fn(&[S], &[S]) -> f64,
    /// `y[i] += α·x[i]` (equal lengths).
    pub axpy: fn(S, &[S], &mut [S]),
    /// `out[i] = a[i]·b[i]` (equal lengths).
    pub hadamard: fn(&[S], &[S], &mut [S]),
    /// `a[i] *= b[i]` (equal lengths).
    pub hadamard_assign: fn(&mut [S], &[S]),
    /// `out[i] += a[i]·b[i]` (equal lengths) — the CSF internal-node
    /// accumulate.
    pub mul_add: fn(&[S], &[S], &mut [S]),
    /// Rank-1 lower-triangle SYRK row update into an **f64**
    /// accumulator: for `n = row.len()`,
    /// `acc[p·n .. p·n+p+1] += row[p] · row[0..=p]` for every `p`
    /// (`acc.len() == n·n`; only the lower-triangle prefixes are
    /// touched).
    pub syrk_rank1_lower: fn(&[S], &mut [f64]),
    /// Register-tiled rank-`kc` GEMM microkernel:
    /// `tile[j·mr + i] += Σ_p a[p·lda + i] · b_panel[p·w + j]` for
    /// `i < mr`, `j < w`, with `mr = self.mr()`, any panel width
    /// `1 <= w <= self.nr()` and any leading dimension `lda >= mr`
    /// (`a.len() >= (kc−1)·lda + mr`, `b_panel.len() >= kc·w`,
    /// `tile.len() >= mr·w`; panics otherwise).
    ///
    /// The leading dimension lets one kernel read both A layouts the
    /// GEMM driver packs: a `kc × mr` micro-panel (`lda = mr`) and an
    /// `mr`-row strip of a column-major `mc × kc` block (`lda` = the
    /// block's padded height). The tile is vectorized along `m` (the
    /// tensor's `I_n` rows): each step loads two vectors of A from one
    /// column and broadcasts `w` entries of B into `2·w` independent
    /// accumulators, so a rank of 25 runs as exact panels of 9 + 8 + 8
    /// with no zero-padded columns. The tile is column-major and
    /// accumulated natively in `S`, summing `p` in order.
    #[allow(clippy::type_complexity)]
    pub gemm_micro: fn(usize, usize, &[S], usize, &[S], &mut [S]),
    /// Packs at most `mr` rows of A, each a contiguous slice of one
    /// length `kc`, into a `kc × mr` micro-panel
    /// (`dst[p·mr + i] = rows[i][p]`, zeros for `i >= rows.len()`):
    /// the pack of a unit-column-stride A (row-major blocks, the last
    /// mode, transposed matricizations), an in-register transpose on
    /// the SIMD tiers.
    pub(crate) pack_rows: fn(&[&[S]], &mut [S]),
}

impl<S: Scalar> std::fmt::Debug for KernelSet<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelSet")
            .field("tier", &self.tier)
            .field("dtype", &S::DTYPE)
            .finish()
    }
}

impl<S: Scalar> KernelSet<S> {
    /// The tier this set dispatches to.
    #[inline]
    pub fn tier(&self) -> KernelTier {
        self.tier
    }

    /// The height of this set's `gemm_micro` tile (rows of C per
    /// register tile): two SIMD vectors of `S`.
    #[inline]
    pub fn mr(&self) -> usize {
        self.mr
    }

    /// The widest B panel of this set's `gemm_micro` (columns of C per
    /// register tile). The GEMM driver splits `n` into
    /// `ceil(n / nr)` panels of near-equal width at most this.
    #[inline]
    pub fn nr(&self) -> usize {
        self.nr
    }

    /// The portable reference set (always available).
    pub fn scalar() -> KernelSet<S> {
        KernelSet {
            tier: KernelTier::Scalar,
            mr: scalar::MR,
            nr: scalar::NR,
            dot: scalar::dot::<S>,
            axpy: scalar::axpy::<S>,
            hadamard: scalar::hadamard::<S>,
            hadamard_assign: scalar::hadamard_assign::<S>,
            mul_add: scalar::mul_add::<S>,
            syrk_rank1_lower: scalar::syrk_rank1_lower::<S>,
            gemm_micro: scalar::gemm_micro::<S>,
            pack_rows: scalar::pack_rows::<S>,
        }
    }

    /// The set for `tier`, or `None` when the running CPU (or compile
    /// target) does not support it.
    pub fn for_tier(tier: KernelTier) -> Option<KernelSet<S>> {
        if !tier.supported() {
            return None;
        }
        S::simd_set(tier)
    }

    /// The best set the running CPU supports
    /// (AVX-512 > AVX2 > NEON > scalar).
    pub fn detect() -> KernelSet<S> {
        for tier in [KernelTier::Avx512, KernelTier::Avx2, KernelTier::Neon] {
            if let Some(set) = KernelSet::for_tier(tier) {
                return set;
            }
        }
        KernelSet::scalar()
    }
}

/// Every tier the running CPU supports, best first (scalar always
/// last). What the parity tests and the kernel microbench iterate over.
pub fn available_tiers() -> Vec<KernelTier> {
    let mut tiers = Vec::new();
    for tier in [KernelTier::Avx512, KernelTier::Avx2, KernelTier::Neon] {
        if tier.supported() {
            tiers.push(tier);
        }
    }
    tiers.push(KernelTier::Scalar);
    tiers
}

/// The process-wide kernel set for element type `S`, resolved once on
/// first use: `MTTKRP_KERNEL` (if set and not `auto`) pins the tier,
/// otherwise the best supported tier is detected. The two element
/// types resolve independently but follow the same policy, so they land
/// on the same tier unless [`force_tier`] raced a resolution.
///
/// # Panics
/// Panics if `MTTKRP_KERNEL` names an unknown tier or one the running
/// CPU does not support — a forced tier silently falling back would
/// defeat its point (CI forcing `scalar` must actually test scalar).
pub fn kernels<S: Scalar>() -> &'static KernelSet<S> {
    S::global_kernel_cell().get_or_init(|| match std::env::var("MTTKRP_KERNEL") {
        Ok(name) => match KernelTier::parse(&name) {
            Ok(None) => KernelSet::detect(),
            Ok(Some(tier)) => KernelSet::for_tier(tier)
                .unwrap_or_else(|| panic!("MTTKRP_KERNEL={name} is not supported on this CPU")),
            Err(e) => panic!("MTTKRP_KERNEL: {e}"),
        },
        Err(_) => KernelSet::detect(),
    })
}

/// Pin the process-wide tier for **both** element types before first
/// use (the harness `--kernel` flag). Returns the pinned `f64` set; an
/// error if the tier is unsupported on this CPU, or if either global
/// set was already resolved to a *different* tier.
pub fn force_tier(tier: KernelTier) -> Result<&'static KernelSet, String> {
    fn pin<S: Scalar>(tier: KernelTier) -> Result<&'static KernelSet<S>, String> {
        let set = KernelSet::<S>::for_tier(tier)
            .ok_or_else(|| format!("kernel tier {tier} is not supported on this CPU"))?;
        let got = S::global_kernel_cell().get_or_init(|| set);
        if got.tier() == tier {
            Ok(got)
        } else {
            Err(format!(
                "kernel tier already resolved to {} (force_tier({tier}) came too late)",
                got.tier()
            ))
        }
    }
    pin::<f32>(tier)?;
    pin::<f64>(tier)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_available() {
        assert!(KernelTier::Scalar.supported());
        assert_eq!(KernelSet::<f64>::scalar().tier(), KernelTier::Scalar);
        assert_eq!(KernelSet::<f32>::scalar().tier(), KernelTier::Scalar);
        assert_eq!(
            KernelSet::<f64>::for_tier(KernelTier::Scalar)
                .unwrap()
                .tier(),
            KernelTier::Scalar
        );
    }

    #[test]
    fn available_tiers_ends_with_scalar_and_are_constructible() {
        let tiers = available_tiers();
        assert_eq!(*tiers.last().unwrap(), KernelTier::Scalar);
        for tier in tiers {
            let set = KernelSet::<f64>::for_tier(tier).expect("listed tier must resolve");
            assert_eq!(set.tier(), tier);
            let set32 = KernelSet::<f32>::for_tier(tier).expect("listed tier must resolve (f32)");
            assert_eq!(set32.tier(), tier);
        }
    }

    #[test]
    fn parse_round_trips_names() {
        for tier in [
            KernelTier::Scalar,
            KernelTier::Avx2,
            KernelTier::Avx512,
            KernelTier::Neon,
        ] {
            assert_eq!(KernelTier::parse(tier.name()), Ok(Some(tier)));
        }
        assert_eq!(KernelTier::parse("auto"), Ok(None));
        assert!(KernelTier::parse("sse9").is_err());
    }

    #[test]
    fn detect_matches_global_default_tier() {
        // The global may have been pinned by the environment; absent
        // that, it must agree with fresh detection, for both types.
        if std::env::var("MTTKRP_KERNEL").is_err() {
            assert_eq!(kernels::<f64>().tier(), KernelSet::<f64>::detect().tier());
            assert_eq!(kernels::<f32>().tier(), KernelSet::<f32>::detect().tier());
        }
    }

    #[test]
    fn every_tile_is_two_vectors_tall() {
        for tier in available_tiers() {
            let k64 = KernelSet::<f64>::for_tier(tier).unwrap();
            let k32 = KernelSet::<f32>::for_tier(tier).unwrap();
            // The transposing A pack stacks at most MAX_MR row slices.
            for (mr, nr) in [(k64.mr(), k64.nr()), (k32.mr(), k32.nr())] {
                assert!([8, 16, MAX_MR].contains(&mr) && nr > 0, "{tier}");
            }
            if matches!(tier, KernelTier::Avx2 | KernelTier::Avx512) {
                assert_eq!(k64.mr(), 2 * tier.lanes_for(8), "{tier}");
                assert_eq!(k32.mr(), 2 * tier.lanes_for(4), "{tier}");
                // 2·nr accumulators: 24 zmm on AVX-512, 12 ymm on AVX2.
                let accumulators = if tier == KernelTier::Avx512 { 24 } else { 12 };
                assert_eq!(2 * k64.nr(), accumulators, "{tier}");
                assert_eq!(k64.nr(), k32.nr(), "{tier}");
            }
        }
    }

    #[test]
    fn f32_tiers_double_the_f64_lanes() {
        for tier in [KernelTier::Avx2, KernelTier::Avx512, KernelTier::Neon] {
            assert_eq!(tier.lanes_for(4), 2 * tier.lanes_for(8), "{tier}");
        }
        assert_eq!(KernelTier::Scalar.lanes_for(4), 1);
        assert_eq!(KernelTier::Avx512.lanes_for(4), 16);
    }
}
