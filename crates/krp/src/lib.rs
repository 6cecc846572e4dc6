//! Row-wise Khatri-Rao product (KRP) with partial-Hadamard reuse —
//! Algorithm 1 of the paper — plus the naive and column-wise reference
//! implementations it is benchmarked against, and the parallel variant.
//!
//! These form a KRP in memory: the explicit baseline, Algorithm 2 and
//! Figure 4 use them. The planned MTTKRP executors never do; their
//! GEMMs generate KRP rows in the pack (`mttkrp_blas::KrpRef`).
//!
//! For inputs `U_0 (J_0×C), …, U_{Z−1} (J_{Z−1}×C)` the KRP
//! `K = U_0 ⊙ ⋯ ⊙ U_{Z−1}` is `(Π J_z) × C`; row `j` of `K` is the
//! Hadamard product of one row from each input, where the multi-index
//! `(ℓ_0, …, ℓ_{Z−1})` decomposes `j` with **the last input varying
//! fastest** (`j = ℓ_{Z−1} + J_{Z−1}·(ℓ_{Z−2} + J_{Z−2}·(…))`).
//!
//! In the MTTKRP for mode `n`, callers pass the factors in descending
//! mode order `U_{N−1}, …, U_{n+1}, U_{n−1}, …, U_0` so that `U_0`
//! varies fastest, matching the column order of the mode-`n`
//! matricization.
//!
//! Algorithm 1 stores the `Z−2` prefix Hadamard products
//! `P_z = U_0(ℓ_0,:) ∗ ⋯ ∗ U_{z+1}(ℓ_{z+1},:)`; because the fastest
//! index changes on every row, the dominant cost is exactly one Hadamard
//! product per output row, and prefixes are recomputed only on carries
//! (one in every `J_{Z−1}` rows). The [`KrpCursor`] exposes this as a
//! seekable row stream, which is what the parallel KRP is built on.
//!
//! # Example
//!
//! ```
//! use mttkrp_blas::{Layout, MatRef};
//! use mttkrp_krp::{krp_reuse, krp_rows};
//!
//! let a = [1.0, 2.0, 3.0, 4.0]; // 2x2 row-major
//! let b = [5.0, 6.0, 7.0, 8.0];
//! let inputs = [
//!     MatRef::from_slice(&a, 2, 2, Layout::RowMajor),
//!     MatRef::from_slice(&b, 2, 2, Layout::RowMajor),
//! ];
//! let mut k = vec![0.0; krp_rows(&inputs) * 2];
//! krp_reuse(&inputs, &mut k);
//! // Row 1 = A(0,:) ∗ B(1,:) (last input varies fastest).
//! assert_eq!(&k[2..4], &[1.0 * 7.0, 2.0 * 8.0]);
//! ```

use mttkrp_blas::{kernels, MatRef, Scalar};
use mttkrp_parallel::ThreadPool;

/// The Hadamard kernel signature cached inside [`KrpCursor`]: the
/// dispatched SIMD tier is resolved once per cursor, so the
/// one-Hadamard-per-row hot loop of Algorithm 1 pays no per-row
/// dispatch lookup.
type HadamardFn<S> = fn(&[S], &[S], &mut [S]);

/// Total number of rows of the KRP of `inputs`.
pub fn krp_rows<S: Scalar>(inputs: &[MatRef<S>]) -> usize {
    inputs.iter().map(|u| u.nrows()).product()
}

/// Common column count of the inputs.
///
/// # Panics
/// Panics if the inputs disagree on column count or the list is empty.
pub fn krp_cols<S: Scalar>(inputs: &[MatRef<S>]) -> usize {
    assert!(!inputs.is_empty(), "KRP of zero matrices is undefined");
    let c = inputs[0].ncols();
    for (z, u) in inputs.iter().enumerate() {
        assert_eq!(u.ncols(), c, "input {z} has mismatched column count");
    }
    c
}

/// A seekable stream over the rows of a Khatri-Rao product, implementing
/// Algorithm 1's reuse of prefix Hadamard products.
///
/// `seek(j)` initializes the multi-index and prefix table for output row
/// `j` (the per-thread initialization of the parallel variant, §4.1.2);
/// `write_next` emits the current row and advances.
pub struct KrpCursor<'a, S: Scalar = f64> {
    inputs: Vec<MatRef<'a, S>>,
    rows: Vec<usize>,
    c: usize,
    /// Multi-index `ℓ`; `ell[Z−1]` varies fastest.
    ell: Vec<usize>,
    /// Prefix Hadamard products: `Z−2` rows of length `C`
    /// (`prefix[z] = U_0(ℓ_0,:) ∗ ⋯ ∗ U_{z+1}(ℓ_{z+1},:)`).
    prefix: Vec<S>,
    remaining: usize,
    /// Dispatched Hadamard kernel, resolved at construction.
    had: HadamardFn<S>,
}

impl<'a, S: Scalar> KrpCursor<'a, S> {
    /// Create a cursor positioned at row 0, dispatching through the
    /// process-wide kernel set.
    ///
    /// # Panics
    /// Panics if inputs are empty, disagree on columns, or any input has
    /// rows that are not contiguous (`col_stride != 1`), since rows are
    /// consumed as slices.
    pub fn new(inputs: &[MatRef<'a, S>]) -> Self {
        let c = krp_cols(inputs);
        for (z, u) in inputs.iter().enumerate() {
            assert_eq!(u.col_stride(), 1, "KRP input {z} must have contiguous rows");
        }
        let rows: Vec<usize> = inputs.iter().map(|u| u.nrows()).collect();
        let z = inputs.len();
        let total: usize = rows.iter().product();
        let mut cur = KrpCursor {
            inputs: inputs.to_vec(),
            rows,
            c,
            ell: vec![0; z],
            prefix: vec![S::ZERO; z.saturating_sub(2) * c],
            remaining: total,
            had: kernels::<S>().hadamard,
        };
        cur.rebuild_prefixes(0);
        cur
    }

    /// Number of rows not yet emitted.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Column count `C`.
    #[inline]
    pub fn cols(&self) -> usize {
        self.c
    }

    /// Position the cursor at absolute output row `j`, rebuilding the
    /// multi-index and every prefix product (Algorithm 1's per-thread
    /// initialization).
    pub fn seek(&mut self, j: usize) {
        let total: usize = self.rows.iter().product();
        assert!(j <= total, "seek past end of KRP");
        let mut rem = j;
        for z in (0..self.rows.len()).rev() {
            self.ell[z] = rem % self.rows[z];
            rem /= self.rows[z];
        }
        self.remaining = total - j;
        self.rebuild_prefixes(0);
    }

    /// Recompute prefix products `prefix[from..]` from the current
    /// multi-index.
    fn rebuild_prefixes(&mut self, from: usize) {
        let z = self.inputs.len();
        if z < 3 {
            return;
        }
        let c = self.c;
        for k in from..z - 2 {
            let right = self.inputs[k + 1].row_slice(self.ell[k + 1]);
            if k == 0 {
                let left = self.inputs[0].row_slice(self.ell[0]);
                let dst = &mut self.prefix[..c];
                (self.had)(left, right, dst);
            } else {
                let (done, rest) = self.prefix.split_at_mut(k * c);
                let left = &done[(k - 1) * c..];
                (self.had)(left, right, &mut rest[..c]);
            }
        }
    }

    /// Write the current row into `out` and advance the cursor.
    ///
    /// # Panics
    /// Panics if the cursor is exhausted or `out.len() != C`.
    pub fn write_next(&mut self, out: &mut [S]) {
        assert!(self.remaining > 0, "KRP cursor exhausted");
        assert_eq!(out.len(), self.c, "output row must have length C");
        let z = self.inputs.len();
        let last = self.inputs[z - 1].row_slice(self.ell[z - 1]);
        match z {
            1 => out.copy_from_slice(last),
            2 => (self.had)(self.inputs[0].row_slice(self.ell[0]), last, out),
            _ => (self.had)(&self.prefix[(z - 3) * self.c..(z - 2) * self.c], last, out),
        }
        self.advance();
    }

    /// Increment the multi-index (last position fastest) and refresh the
    /// prefix products invalidated by the carry, if any.
    fn advance(&mut self) {
        self.remaining -= 1;
        if self.remaining == 0 {
            return;
        }
        let z = self.inputs.len();
        let mut pos = z - 1;
        loop {
            self.ell[pos] += 1;
            if self.ell[pos] < self.rows[pos] {
                break;
            }
            self.ell[pos] = 0;
            debug_assert!(pos > 0, "advance past end contradicts remaining > 0");
            pos -= 1;
        }
        // prefix[k] depends on ℓ_0..ℓ_{k+1}; a change at `pos < Z−1`
        // invalidates prefixes k >= pos−1.
        if pos < z - 1 {
            self.rebuild_prefixes(pos.saturating_sub(1));
        }
    }
}

/// Khatri-Rao product with reuse (Algorithm 1): writes the full
/// `(Π J_z) × C` row-major KRP into `out`.
pub fn krp_reuse<S: Scalar>(inputs: &[MatRef<S>], out: &mut [S]) {
    let c = krp_cols(inputs);
    let j = krp_rows(inputs);
    assert_eq!(out.len(), j * c, "output must be (Π J_z) × C");
    let mut cur = KrpCursor::new(inputs);
    for row in out.chunks_exact_mut(c) {
        cur.write_next(row);
    }
}

/// Naive row-wise KRP: `Z−1` Hadamard products per output row, no reuse
/// (the "Naive" series of Figure 4).
pub fn krp_naive<S: Scalar>(inputs: &[MatRef<S>], out: &mut [S]) {
    let c = krp_cols(inputs);
    let j = krp_rows(inputs);
    assert_eq!(out.len(), j * c, "output must be (Π J_z) × C");
    let z = inputs.len();
    let rows: Vec<usize> = inputs.iter().map(|u| u.nrows()).collect();
    let mut ell = vec![0usize; z];
    for row in out.chunks_exact_mut(c) {
        row.copy_from_slice(inputs[0].row_slice(ell[0]));
        for k in 1..z {
            let src = inputs[k].row_slice(ell[k]);
            for (o, &s) in row.iter_mut().zip(src) {
                *o *= s;
            }
        }
        // Increment, last position fastest.
        for pos in (0..z).rev() {
            ell[pos] += 1;
            if ell[pos] < rows[pos] {
                break;
            }
            ell[pos] = 0;
        }
    }
}

/// Column-wise KRP via the Kronecker definition
/// (`K(:,c) = U_0(:,c) ⊗ ⋯ ⊗ U_{Z−1}(:,c)`), used as a cross-check
/// oracle. Output is row-major.
pub fn krp_colwise<S: Scalar>(inputs: &[MatRef<S>], out: &mut [S]) {
    let c = krp_cols(inputs);
    let j = krp_rows(inputs);
    assert_eq!(out.len(), j * c, "output must be (Π J_z) × C");
    for col in 0..c {
        // Kronecker of column `col` of each input, first input slowest.
        for (row_idx, chunk) in out.chunks_exact_mut(c).enumerate() {
            let mut rem = row_idx;
            let mut v = S::ONE;
            for u in inputs.iter().rev() {
                let r = rem % u.nrows();
                rem /= u.nrows();
                v *= u.get(r, col);
            }
            chunk[col] = v;
        }
    }
}

/// Parallel naive KRP: the Figure 4 "Naive" comparator with the same
/// static row partitioning as [`par_krp`] but no prefix reuse —
/// `Z−1` Hadamard products per output row.
pub fn par_krp_naive<S: Scalar>(pool: &ThreadPool, inputs: &[MatRef<S>], out: &mut [S]) {
    let c = krp_cols(inputs);
    let j = krp_rows(inputs);
    assert_eq!(out.len(), j * c, "output must be (Π J_z) × C");
    if pool.num_threads() == 1 {
        krp_naive(inputs, out);
        return;
    }
    let z = inputs.len();
    let row_counts: Vec<usize> = inputs.iter().map(|u| u.nrows()).collect();
    let mut rows: Vec<&mut [S]> = out.chunks_exact_mut(c).collect();
    let nrows = rows.len();
    pool.parallel_for_blocks(nrows, &mut rows, |_, range, chunk| {
        // Decompose the starting row into the multi-index (last fastest).
        let mut ell = vec![0usize; z];
        let mut rem = range.start;
        for pos in (0..z).rev() {
            ell[pos] = rem % row_counts[pos];
            rem /= row_counts[pos];
        }
        for row in chunk.iter_mut() {
            row.copy_from_slice(inputs[0].row_slice(ell[0]));
            for k in 1..z {
                let src = inputs[k].row_slice(ell[k]);
                for (o, &s) in row.iter_mut().zip(src) {
                    *o *= s;
                }
            }
            for pos in (0..z).rev() {
                ell[pos] += 1;
                if ell[pos] < row_counts[pos] {
                    break;
                }
                ell[pos] = 0;
            }
        }
    });
}

/// Parallel KRP (§4.1.2): output rows are statically partitioned into
/// contiguous blocks; each thread seeks a private [`KrpCursor`] to its
/// starting row and streams its block.
pub fn par_krp<S: Scalar>(pool: &ThreadPool, inputs: &[MatRef<S>], out: &mut [S]) {
    let c = krp_cols(inputs);
    let j = krp_rows(inputs);
    assert_eq!(out.len(), j * c, "output must be (Π J_z) × C");
    let _span = mttkrp_obs::span_full!("par_krp", rows = j);
    if pool.num_threads() == 1 {
        krp_reuse(inputs, out);
        return;
    }
    let mut rows: Vec<&mut [S]> = out.chunks_exact_mut(c).collect();
    let nrows = rows.len();
    pool.parallel_for_blocks(nrows, &mut rows, |_, range, chunk| {
        let mut cur = KrpCursor::new(inputs);
        cur.seek(range.start);
        for row in chunk.iter_mut() {
            cur.write_next(row);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use mttkrp_blas::Layout;

    fn mat(rows: usize, cols: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        (0..rows * cols)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 32) as f64) - 0.5
            })
            .collect()
    }

    fn check_all_variants(shapes: &[usize], c: usize) {
        let datas: Vec<Vec<f64>> = shapes
            .iter()
            .enumerate()
            .map(|(z, &r)| mat(r, c, z as u64 + 1))
            .collect();
        let inputs: Vec<MatRef> = datas
            .iter()
            .zip(shapes)
            .map(|(d, &r)| MatRef::from_slice(d, r, c, Layout::RowMajor))
            .collect();
        let j: usize = shapes.iter().product();
        let mut reuse = vec![0.0; j * c];
        let mut naive = vec![0.0; j * c];
        let mut colwise = vec![0.0; j * c];
        krp_reuse(&inputs, &mut reuse);
        krp_naive(&inputs, &mut naive);
        krp_colwise(&inputs, &mut colwise);
        assert_eq!(reuse, naive, "reuse vs naive, shapes {shapes:?}");
        for (a, b) in reuse.iter().zip(&colwise) {
            assert!((a - b).abs() < 1e-14, "reuse vs colwise, shapes {shapes:?}");
        }

        let pool = ThreadPool::new(4);
        let mut par = vec![0.0; j * c];
        par_krp(&pool, &inputs, &mut par);
        assert_eq!(par, reuse, "parallel vs reuse, shapes {shapes:?}");

        let mut par_naive = vec![0.0; j * c];
        par_krp_naive(&pool, &inputs, &mut par_naive);
        assert_eq!(
            par_naive, naive,
            "parallel naive vs naive, shapes {shapes:?}"
        );
    }

    #[test]
    fn variants_agree_z2_to_z5() {
        check_all_variants(&[3, 4], 5);
        check_all_variants(&[2, 3, 4], 5);
        check_all_variants(&[3, 2, 2, 3], 4);
        check_all_variants(&[2, 2, 2, 2, 2], 3);
    }

    #[test]
    fn single_input_is_identity() {
        check_all_variants(&[6], 4);
    }

    #[test]
    fn row_ordering_matches_paper_example() {
        // K = A ⊙ B ⊙ C with row j = A(a,:)∗B(b,:)∗C(c,:),
        // j = a·I_B·I_C + b·I_C + c (paper §4.1).
        let (ia, ib, ic, c) = (2usize, 3usize, 2usize, 3usize);
        let a = mat(ia, c, 1);
        let b = mat(ib, c, 2);
        let cc = mat(ic, c, 3);
        let inputs = [
            MatRef::from_slice(&a, ia, c, Layout::RowMajor),
            MatRef::from_slice(&b, ib, c, Layout::RowMajor),
            MatRef::from_slice(&cc, ic, c, Layout::RowMajor),
        ];
        let mut k = vec![0.0; ia * ib * ic * c];
        krp_reuse(&inputs, &mut k);
        for ra in 0..ia {
            for rb in 0..ib {
                for rc in 0..ic {
                    let j = ra * ib * ic + rb * ic + rc;
                    for col in 0..c {
                        let expect = a[ra * c + col] * b[rb * c + col] * cc[rc * c + col];
                        assert!((k[j * c + col] - expect).abs() < 1e-15);
                    }
                }
            }
        }
    }

    #[test]
    fn cursor_seek_matches_streaming() {
        let shapes = [3usize, 4, 2];
        let c = 4;
        let datas: Vec<Vec<f64>> = shapes
            .iter()
            .enumerate()
            .map(|(z, &r)| mat(r, c, z as u64 + 7))
            .collect();
        let inputs: Vec<MatRef> = datas
            .iter()
            .zip(&shapes)
            .map(|(d, &r)| MatRef::from_slice(d, r, c, Layout::RowMajor))
            .collect();
        let j: usize = shapes.iter().product();
        let mut full = vec![0.0; j * c];
        krp_reuse(&inputs, &mut full);

        for start in [0usize, 1, 5, 11, 23] {
            let mut cur = KrpCursor::new(&inputs);
            cur.seek(start);
            assert_eq!(cur.remaining(), j - start);
            let mut row = vec![0.0; c];
            for jj in start..j {
                cur.write_next(&mut row);
                assert_eq!(&row, &full[jj * c..(jj + 1) * c], "start={start} row={jj}");
            }
            assert_eq!(cur.remaining(), 0);
        }
    }

    #[test]
    fn parallel_krp_many_thread_counts() {
        let shapes = [5usize, 3, 4];
        let c = 6;
        let datas: Vec<Vec<f64>> = shapes
            .iter()
            .enumerate()
            .map(|(z, &r)| mat(r, c, z as u64 + 11))
            .collect();
        let inputs: Vec<MatRef> = datas
            .iter()
            .zip(&shapes)
            .map(|(d, &r)| MatRef::from_slice(d, r, c, Layout::RowMajor))
            .collect();
        let j: usize = shapes.iter().product();
        let mut reference = vec![0.0; j * c];
        krp_reuse(&inputs, &mut reference);
        for t in [1usize, 2, 3, 8, 61, 64] {
            let pool = ThreadPool::new(t);
            let mut par = vec![0.0; j * c];
            par_krp(&pool, &inputs, &mut par);
            assert_eq!(par, reference, "t={t}");
        }
    }

    #[test]
    fn krp_of_ones_is_ones() {
        let a = [1.0; 12];
        let inputs = [
            MatRef::from_slice(&a[..6], 2, 3, Layout::RowMajor),
            MatRef::from_slice(&a[..9], 3, 3, Layout::RowMajor),
        ];
        let mut out = vec![0.0; 18];
        krp_reuse(&inputs, &mut out);
        assert!(out.iter().all(|&x| x == 1.0));
    }

    #[test]
    #[should_panic]
    fn exhausted_cursor_panics() {
        let d = mat(2, 2, 1);
        let inputs = [MatRef::from_slice(&d, 2, 2, Layout::RowMajor)];
        let mut cur = KrpCursor::new(&inputs);
        let mut row = vec![0.0; 2];
        cur.write_next(&mut row);
        cur.write_next(&mut row);
        cur.write_next(&mut row);
    }

    #[test]
    #[should_panic]
    fn mismatched_columns_panic() {
        let a = mat(2, 2, 1);
        let b = mat(2, 3, 2);
        let inputs = [
            MatRef::from_slice(&a, 2, 2, Layout::RowMajor),
            MatRef::from_slice(&b, 2, 3, Layout::RowMajor),
        ];
        let mut out = vec![0.0; 4 * 2];
        krp_reuse(&inputs, &mut out);
    }
}
