//! The dense tensor container.

use mttkrp_blas::{Layout, MatRef, Scalar};

use crate::dims::DimInfo;
use crate::unfold::ModeUnfolding;

/// Entries per block of [`DenseTensor::norm`]'s fixed-order sum.
const NORM_BLOCK: usize = 4096;
/// Independent `f64` accumulators per block of [`DenseTensor::norm`].
const NORM_LANES: usize = 16;

/// `Σ x²` over one block of at most [`NORM_BLOCK`] entries, in
/// [`NORM_LANES`] lanes combined by a fixed pairwise tree.
fn sum_squares_block<S: Scalar>(block: &[S]) -> f64 {
    let mut acc = [0.0f64; NORM_LANES];
    let mut chunks = block.chunks_exact(NORM_LANES);
    for chunk in &mut chunks {
        for (a, &x) in acc.iter_mut().zip(chunk) {
            let x = x.to_f64();
            *a += x * x;
        }
    }
    for (a, &x) in acc.iter_mut().zip(chunks.remainder()) {
        let x = x.to_f64();
        *a += x * x;
    }
    let mut width = NORM_LANES;
    while width > 1 {
        width /= 2;
        for l in 0..width {
            acc[l] += acc[l + width];
        }
    }
    acc[0]
}

/// A dense `N`-way tensor stored under the natural linearization
/// (mode 0 fastest; generalized column-major).
///
/// The element type `S` is any [`Scalar`] (`f32` or `f64`; defaults to
/// `f64`). Reductions over entries ([`Self::norm`]) accumulate in
/// `f64` regardless of the storage type.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseTensor<S: Scalar = f64> {
    info: DimInfo,
    data: Vec<S>,
}

impl<S: Scalar> DenseTensor<S> {
    /// All-zeros tensor of the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let info = DimInfo::new(dims);
        let data = vec![S::ZERO; info.total()];
        DenseTensor { info, data }
    }

    /// Wrap an existing linearized buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the product of `dims`.
    pub fn from_vec(dims: &[usize], data: Vec<S>) -> Self {
        let info = DimInfo::new(dims);
        assert_eq!(data.len(), info.total(), "data length must match shape");
        DenseTensor { info, data }
    }

    /// Tensor filled by calling `f` once per entry in linearization order.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut() -> S) -> Self {
        let info = DimInfo::new(dims);
        let data = (0..info.total()).map(|_| f()).collect();
        DenseTensor { info, data }
    }

    /// Rank-`C` Kruskal tensor `⟦U_0, …, U_{N−1}⟧` evaluated densely:
    /// `X(i_0,…,i_{N−1}) = Σ_c Π_n U_n(i_n, c)`.
    ///
    /// Factors are column-major `I_n × C` matrices. Used to plant
    /// known-rank inputs for CP-ALS recovery tests.
    pub fn from_factors(dims: &[usize], factors: &[Vec<S>], rank: usize) -> Self {
        let info = DimInfo::new(dims);
        assert_eq!(factors.len(), dims.len(), "one factor matrix per mode");
        for (n, f) in factors.iter().enumerate() {
            assert_eq!(f.len(), dims[n] * rank, "factor {n} must be I_n x C");
        }
        let mut data = vec![S::ZERO; info.total()];
        let mut idx = vec![0usize; dims.len()];
        for slot in data.iter_mut() {
            let mut s = S::ZERO;
            for c in 0..rank {
                let mut p = S::ONE;
                for (n, &i) in idx.iter().enumerate() {
                    // column-major factor: entry (i, c) at i + c * I_n
                    p *= factors[n][i + c * dims[n]];
                }
                s += p;
            }
            *slot = s;
            info.increment(&mut idx);
        }
        DenseTensor { info, data }
    }

    /// Shape metadata.
    #[inline]
    pub fn info(&self) -> &DimInfo {
        &self.info
    }

    /// Dimension list.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.info.dims()
    }

    /// Number of modes.
    #[inline]
    pub fn order(&self) -> usize {
        self.info.order()
    }

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has zero entries (never, given nonzero dims).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The linearized entries.
    #[inline]
    pub fn data(&self) -> &[S] {
        &self.data
    }

    /// Mutable linearized entries.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// Entry at a multi-index.
    ///
    /// Debug builds assert the index arity matches [`Self::order`]; a
    /// wrong-length index would otherwise silently linearize against a
    /// prefix of the shape.
    #[inline]
    pub fn get(&self, idx: &[usize]) -> S {
        debug_assert_eq!(
            idx.len(),
            self.order(),
            "index arity must match the tensor order"
        );
        self.data[self.info.linear(idx)]
    }

    /// Write the entry at a multi-index.
    ///
    /// Debug builds assert the index arity matches [`Self::order`],
    /// like [`Self::get`].
    #[inline]
    pub fn set(&mut self, idx: &[usize], v: S) {
        debug_assert_eq!(
            idx.len(),
            self.order(),
            "index arity must match the tensor order"
        );
        let ell = self.info.linear(idx);
        self.data[ell] = v;
    }

    /// Frobenius norm (square root of the sum of squared entries),
    /// accumulated in `f64` for both storage types.
    ///
    /// The sum runs in a fixed order that depends only on the entries:
    /// blocks of 4096 entries, each summed on one thread into 16
    /// independent `f64` accumulators (entry `i` into lane `i mod 16`,
    /// which the compiler vectorizes), the lanes
    /// combined by a fixed pairwise tree, and the block sums added in
    /// index order. So the result is bit-reproducible across calls,
    /// machines and kernel tiers, and no longer a serial chain of
    /// dependent adds.
    pub fn norm(&self) -> f64 {
        self.data
            .chunks(NORM_BLOCK)
            .map(sum_squares_block)
            .fold(0.0, |total, block| total + block)
            .sqrt()
    }

    /// Copy into a tensor of another element type (widening is exact;
    /// narrowing rounds each entry to nearest).
    pub fn cast<T: Scalar>(&self) -> DenseTensor<T> {
        DenseTensor {
            info: self.info.clone(),
            data: self.data.iter().map(|&x| T::from_f64(x.to_f64())).collect(),
        }
    }

    /// Mode-`n` unfolding as a block sequence (zero-copy; see
    /// [`ModeUnfolding`]). Valid for every mode including external ones.
    pub fn unfold(&self, n: usize) -> ModeUnfolding<'_, S> {
        ModeUnfolding::new(self, n)
    }

    /// `X(0:n)` — the multi-mode matricization with row modes
    /// `{0, …, n}` — as a single zero-copy *column-major* view of shape
    /// `(I_0⋯I_n) × (I_{n+1}⋯I_{N−1})`.
    ///
    /// This is the left operand of the 2-step algorithm's partial MTTKRP
    /// (Algorithm 4 line 11; transposed for line 5).
    pub fn unfold_leading(&self, n: usize) -> MatRef<'_, S> {
        assert!(n < self.order(), "mode {n} out of range");
        let rows = self.info.i_left(n + 1);
        let cols = self.info.total() / rows;
        MatRef::from_slice(&self.data, rows, cols, Layout::ColMajor)
    }

    /// Explicit mode-`n` matricization: copies entries into a freshly
    /// allocated `I_n × I≠n` matrix in the requested layout.
    ///
    /// This reordering pass is exactly what the Bader–Kolda baseline pays
    /// for and the paper's algorithms avoid; it exists here to implement
    /// that baseline and to validate the zero-copy views against it.
    pub fn materialize_unfolding(&self, n: usize, layout: Layout) -> Vec<S> {
        let rows = self.info.dim(n);
        let cols = self.info.i_neq(n);
        let mut out = vec![S::ZERO; rows * cols];
        let unf = self.unfold(n);
        let il = self.info.i_left(n);
        for j in 0..self.info.i_right(n) {
            let block = unf.block(j);
            for i in 0..rows {
                for col in 0..il {
                    let v = unsafe { block.get_unchecked(i, col) };
                    let global_col = col + j * il;
                    match layout {
                        Layout::ColMajor => out[i + global_col * rows] = v,
                        Layout::RowMajor => out[i * cols + global_col] = v,
                    }
                }
            }
        }
        out
    }

    /// Copy the axis-aligned block starting at `offsets` with shape
    /// `shape` into `out`, in the block's own natural linearization
    /// (mode 0 fastest within the block).
    ///
    /// This is the gather a tiled/out-of-core store performs per tile;
    /// mode-0 runs are contiguous in the source, so the copy moves
    /// `shape[0]`-length slices, not single entries.
    ///
    /// # Panics
    /// Panics if the block does not fit inside the tensor or `out` is
    /// not exactly the block's entry count.
    pub fn gather_block(&self, offsets: &[usize], shape: &[usize], out: &mut [S]) {
        self.for_block_runs(offsets, shape, out.len(), |dst, src, len| {
            out[dst..dst + len].copy_from_slice(&self.data[src..src + len]);
        });
    }

    /// Inverse of [`Self::gather_block`]: write `src` (the block's
    /// natural linearization) into the block at `offsets`.
    ///
    /// # Panics
    /// Panics if the block does not fit inside the tensor or `src` is
    /// not exactly the block's entry count.
    pub fn scatter_block(&mut self, offsets: &[usize], shape: &[usize], src: &[S]) {
        // Collect the runs first: `for_block_runs` borrows `self`
        // shared, the writes need it mutable.
        let mut runs: Vec<(usize, usize, usize)> = Vec::new();
        self.for_block_runs(offsets, shape, src.len(), |dst, gsrc, len| {
            runs.push((dst, gsrc, len));
        });
        for (blk, glb, len) in runs {
            self.data[glb..glb + len].copy_from_slice(&src[blk..blk + len]);
        }
    }

    /// Enumerate the mode-0-contiguous runs of an axis-aligned block as
    /// `(block_linear_start, global_linear_start, run_len)` triples.
    fn for_block_runs(
        &self,
        offsets: &[usize],
        shape: &[usize],
        buf_len: usize,
        mut f: impl FnMut(usize, usize, usize),
    ) {
        let order = self.order();
        assert_eq!(offsets.len(), order, "one offset per mode");
        assert_eq!(shape.len(), order, "one extent per mode");
        let mut entries = 1usize;
        for n in 0..order {
            assert!(shape[n] > 0, "empty block extent in mode {n}");
            assert!(
                offsets[n] + shape[n] <= self.info.dim(n),
                "block exceeds mode {n}: {} + {} > {}",
                offsets[n],
                shape[n],
                self.info.dim(n)
            );
            entries *= shape[n];
        }
        assert_eq!(buf_len, entries, "buffer must match the block size");

        let run = shape[0];
        let nruns = entries / run;
        // Walk the block's outer modes (1..order) in its own
        // linearization order, tracking the matching global index.
        let mut local = vec![0usize; order];
        for r in 0..nruns {
            let mut global = 0usize;
            for n in 0..order {
                global += (offsets[n] + local[n]) * self.info.i_left(n);
            }
            f(r * run, global, run);
            // Increment local over modes 1.. (mode 0 spans the run).
            for n in 1..order {
                local[n] += 1;
                if local[n] < shape[n] {
                    break;
                }
                local[n] = 0;
            }
        }
    }

    /// Consume the tensor, returning its linearized buffer.
    pub fn into_vec(self) -> Vec<S> {
        self.data
    }

    /// Reinterpret the entries under a new shape with the same total
    /// size (e.g. the paper's 4-way → 3-way fMRI linearization merges
    /// the two region modes).
    pub fn reshape(self, dims: &[usize]) -> DenseTensor<S> {
        let info = DimInfo::new(dims);
        assert_eq!(
            info.total(),
            self.data.len(),
            "reshape must preserve entry count"
        );
        DenseTensor {
            info,
            data: self.data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iota_tensor(dims: &[usize]) -> DenseTensor {
        let mut c = -1.0;
        DenseTensor::from_fn(dims, || {
            c += 1.0;
            c
        })
    }

    #[test]
    fn get_set_round_trip() {
        let mut x = DenseTensor::zeros(&[3, 4, 2]);
        x.set(&[2, 1, 1], 5.5);
        assert_eq!(x.get(&[2, 1, 1]), 5.5);
        // linear position: 2 + 1*3 + 1*12 = 17
        assert_eq!(x.data()[17], 5.5);
    }

    #[test]
    fn from_fn_fills_linearization_order() {
        let x = iota_tensor(&[2, 3]);
        assert_eq!(x.get(&[0, 0]), 0.0);
        assert_eq!(x.get(&[1, 0]), 1.0);
        assert_eq!(x.get(&[0, 1]), 2.0);
        assert_eq!(x.get(&[1, 2]), 5.0);
    }

    #[test]
    fn norm_matches_manual() {
        let x = DenseTensor::from_vec(&[2, 2], vec![1.0, 2.0, 2.0, 4.0]);
        assert!((x.norm() - 25.0f64.sqrt()).abs() < 1e-12);
    }

    /// `Σ x²` by a compensated (two-sum) accumulation: the oracle the
    /// blocked norm is held to.
    fn two_sum_squares<S: Scalar>(data: &[S]) -> f64 {
        let (mut sum, mut comp) = (0.0f64, 0.0f64);
        for &x in data {
            let v = x.to_f64() * x.to_f64();
            let t = sum + v;
            // Knuth's two-sum: the exact rounding error of `sum + v`.
            let bv = t - sum;
            comp += (sum - (t - bv)) + (v - bv);
            sum = t;
        }
        sum + comp
    }

    /// Seeded entries in `[-1.5, 1.5)`.
    fn seeded<S: Scalar>(n: usize, seed: u64) -> Vec<S> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                S::from_f64(3.0 * ((s >> 11) as f64 / (1u64 << 53) as f64) - 1.5)
            })
            .collect()
    }

    fn check_norm<S: Scalar>(dims: &[usize]) {
        let len = dims.iter().product();
        let x = DenseTensor::<S>::from_vec(dims, seeded(len, len as u64));
        let got = x.norm();
        let want = two_sum_squares(x.data()).sqrt();
        assert!(
            (got - want).abs() <= 1e-14 * want,
            "{} {dims:?}: {got} vs {want}",
            S::DTYPE
        );
        assert_eq!(
            got.to_bits(),
            x.norm().to_bits(),
            "{} {dims:?}: repeat",
            S::DTYPE
        );
    }

    #[test]
    fn norm_matches_compensated_sum_across_block_edges() {
        // One entry, a block less one, a block plus one (the block is
        // 4096 entries), and the fMRI tensor's shape; a zero-size
        // tensor cannot be built, so its norm is checked on the block
        // sum directly.
        for dims in [&[1usize][..], &[4095], &[4097], &[17, 241]] {
            check_norm::<f64>(dims);
            check_norm::<f32>(dims);
        }
        check_norm::<f32>(&[225, 59, 32, 32]);
        assert_eq!(sum_squares_block::<f64>(&[]), 0.0);
        assert_eq!(sum_squares_block::<f32>(&[]), 0.0);
    }

    #[test]
    fn from_factors_matches_definition_3way() {
        // Rank-1: X(i,j,k) = u(i) v(j) w(k)
        let u = vec![1.0, 2.0];
        let v = vec![3.0, 4.0, 5.0];
        let w = vec![6.0, 7.0];
        let x = DenseTensor::from_factors(&[2, 3, 2], &[u.clone(), v.clone(), w.clone()], 1);
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..2 {
                    assert_eq!(x.get(&[i, j, k]), u[i] * v[j] * w[k]);
                }
            }
        }
    }

    #[test]
    fn from_factors_rank2_sums_components() {
        // U: 2x2 col-major, V: 2x2
        let u = vec![1.0, 0.0, 0.0, 1.0]; // columns e1, e2
        let v = vec![2.0, 3.0, 4.0, 5.0]; // columns (2,3), (4,5)
        let x = DenseTensor::from_factors(&[2, 2], &[u, v], 2);
        // X(i,j) = e1(i)*(2,3)(j) + e2(i)*(4,5)(j)
        assert_eq!(x.get(&[0, 0]), 2.0);
        assert_eq!(x.get(&[0, 1]), 3.0);
        assert_eq!(x.get(&[1, 0]), 4.0);
        assert_eq!(x.get(&[1, 1]), 5.0);
    }

    #[test]
    fn unfold_leading_is_column_major_view() {
        let x = iota_tensor(&[2, 3, 4]);
        let m = x.unfold_leading(1); // 6 x 4, col-major over the raw data
        assert_eq!(m.nrows(), 6);
        assert_eq!(m.ncols(), 4);
        for ell in 0..24 {
            assert_eq!(m.get(ell % 6, ell / 6), ell as f64);
        }
    }

    #[test]
    fn unfold_leading_last_mode_is_whole_tensor_as_one_column_block() {
        let x = iota_tensor(&[2, 3]);
        let m = x.unfold_leading(1);
        assert_eq!(m.nrows(), 6);
        assert_eq!(m.ncols(), 1);
    }

    #[test]
    fn materialized_unfolding_matches_definition() {
        let x = iota_tensor(&[2, 3, 2]);
        // X(1) is I1 x (I0*I2) = 3 x 4; column (i0, i2) pairs with i0 fastest.
        let m = x.materialize_unfolding(1, Layout::ColMajor);
        for i1 in 0..3 {
            for i0 in 0..2 {
                for i2 in 0..2 {
                    let col = i0 + i2 * 2;
                    assert_eq!(m[i1 + col * 3], x.get(&[i0, i1, i2]));
                }
            }
        }
        let mr = x.materialize_unfolding(1, Layout::RowMajor);
        for i1 in 0..3 {
            for col in 0..4 {
                assert_eq!(mr[i1 * 4 + col], m[i1 + col * 3]);
            }
        }
    }

    #[test]
    fn reshape_preserves_data() {
        let x = iota_tensor(&[2, 3, 2]);
        let y = x.clone().reshape(&[6, 2]);
        assert_eq!(y.data(), x.data());
        assert_eq!(y.get(&[5, 1]), 11.0);
    }

    #[test]
    fn gather_scatter_block_round_trips() {
        let x = iota_tensor(&[4, 3, 5]);
        let offsets = [1usize, 0, 2];
        let shape = [2usize, 3, 2];
        let mut block = vec![f64::NAN; 12];
        x.gather_block(&offsets, &shape, &mut block);
        // Entry (i0, i1, i2) of the block is x(1+i0, i1, 2+i2).
        let mut k = 0;
        for i2 in 0..2 {
            for i1 in 0..3 {
                for i0 in 0..2 {
                    assert_eq!(block[k], x.get(&[1 + i0, i1, 2 + i2]), "k={k}");
                    k += 1;
                }
            }
        }
        let mut y = DenseTensor::zeros(&[4, 3, 5]);
        y.scatter_block(&offsets, &shape, &block);
        for i2 in 0..2 {
            for i1 in 0..3 {
                for i0 in 0..2 {
                    assert_eq!(y.get(&[1 + i0, i1, 2 + i2]), x.get(&[1 + i0, i1, 2 + i2]));
                }
            }
        }
        // Everything outside the block stays zero.
        assert_eq!(y.get(&[0, 0, 0]), 0.0);
        assert_eq!(y.get(&[3, 2, 4]), 0.0);
    }

    #[test]
    fn gather_whole_tensor_is_identity() {
        let x = iota_tensor(&[3, 2, 2]);
        let mut block = vec![0.0; 12];
        x.gather_block(&[0, 0, 0], &[3, 2, 2], &mut block);
        assert_eq!(&block[..], x.data());
    }

    #[test]
    #[should_panic(expected = "block exceeds mode")]
    fn gather_out_of_range_block_panics() {
        let x = iota_tensor(&[3, 3]);
        let mut block = vec![0.0; 4];
        x.gather_block(&[2, 0], &[2, 2], &mut block);
    }

    #[test]
    #[should_panic]
    fn reshape_wrong_size_panics() {
        let x = iota_tensor(&[2, 3]);
        let _ = x.reshape(&[7]);
    }

    #[test]
    #[should_panic]
    fn from_vec_wrong_len_panics() {
        let _ = DenseTensor::from_vec(&[2, 2], vec![0.0; 5]);
    }

    // Regression: a wrong-arity index used to silently linearize
    // against a prefix of the shape (e.g. `get(&[1, 1])` on a 3-way
    // tensor read entry (1, 1, 0)); it must be rejected in debug
    // builds.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "index arity")]
    fn get_rejects_wrong_arity_in_debug() {
        let x = DenseTensor::<f64>::zeros(&[2, 3, 2]);
        let _ = x.get(&[1, 1]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "index arity")]
    fn set_rejects_wrong_arity_in_debug() {
        let mut x = DenseTensor::zeros(&[2, 3]);
        x.set(&[1, 1, 0], 4.0);
    }
}
