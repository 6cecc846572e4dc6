//! Coordinate-format sparse tensors — the ingestion type.
//!
//! A [`CooTensor`] holds one `(i_0, …, i_{N−1}, value)` entry per
//! stored nonzero. Construction canonicalizes the entry list: indices
//! are bounds-checked against the shape, entries are sorted into
//! natural linearization order (mode 0 fastest — the same order
//! [`DenseTensor`] stores entries in), and duplicate coordinates are
//! merged by summing their values, matching the accumulation semantics
//! of every common sparse-tensor reader. A canonical `CooTensor` is
//! therefore a value type: two tensors with the same nonzeros compare
//! equal regardless of the entry order they were built from.
//!
//! COO is the interchange format — disk codecs (`mttkrp-workloads`),
//! generators, and densification all speak it. The MTTKRP kernels run
//! on the compressed-sparse-fiber form instead; convert with
//! [`crate::CsfTensor::from_coo`].

use mttkrp_tensor::{DenseTensor, DimInfo};

/// A sparse tensor as a canonical (sorted, deduplicated, validated)
/// list of coordinate entries.
#[derive(Debug, Clone, PartialEq)]
pub struct CooTensor {
    dims: Vec<usize>,
    /// Entry-major index storage: entry `k` occupies
    /// `inds[k*N .. (k+1)*N]`.
    inds: Vec<usize>,
    vals: Vec<f64>,
}

impl CooTensor {
    /// Build a canonical COO tensor from an entry list.
    ///
    /// `inds` is entry-major (`nnz × N` indices, entry `k`'s
    /// multi-index at `inds[k*N..(k+1)*N]`); `vals` holds one value per
    /// entry. Entries may arrive in any order and may repeat a
    /// coordinate — duplicates are summed.
    ///
    /// # Panics
    /// Panics if the shape has fewer than 2 modes or a zero dimension,
    /// if `inds.len() != vals.len() * dims.len()`, or if any index is
    /// out of bounds for its mode.
    pub fn from_entries(dims: &[usize], inds: Vec<usize>, vals: Vec<f64>) -> Self {
        assert!(dims.len() >= 2, "sparse tensors need at least 2 modes");
        let info = DimInfo::new(dims); // rejects zero dims, checks overflow
        let nm = dims.len();
        assert_eq!(
            inds.len(),
            vals.len() * nm,
            "index list must hold one multi-index per value"
        );
        let nnz_in = vals.len();
        for k in 0..nnz_in {
            let idx = &inds[k * nm..(k + 1) * nm];
            for (m, (&i, &d)) in idx.iter().zip(dims).enumerate() {
                assert!(
                    i < d,
                    "entry {k}: index {i} out of bounds for mode {m} ({d})"
                );
            }
        }

        let linear = |k: usize| info.linear(&inds[k * nm..(k + 1) * nm]);
        // Already canonical (every file `write_sparse` writes is):
        // strictly increasing positions, so keep the input as is.
        if (1..nnz_in).all(|k| linear(k - 1) < linear(k)) {
            return CooTensor {
                dims: dims.to_vec(),
                inds,
                vals,
            };
        }

        // Sort by linear position (the natural linearization order),
        // then merge runs of equal positions by summing.
        let mut perm: Vec<usize> = (0..nnz_in).collect();
        let lin: Vec<usize> = (0..nnz_in).map(linear).collect();
        perm.sort_by_key(|&k| lin[k]);

        let mut out_inds = Vec::with_capacity(inds.len());
        let mut out_vals: Vec<f64> = Vec::with_capacity(nnz_in);
        let mut last_lin = usize::MAX;
        for &k in &perm {
            if !out_vals.is_empty() && lin[k] == last_lin {
                *out_vals.last_mut().unwrap() += vals[k];
            } else {
                out_inds.extend_from_slice(&inds[k * nm..(k + 1) * nm]);
                out_vals.push(vals[k]);
                last_lin = lin[k];
            }
        }

        CooTensor {
            dims: dims.to_vec(),
            inds: out_inds,
            vals: out_vals,
        }
    }

    /// Sparsify a dense tensor: keep every entry with
    /// `|x| > threshold` (so `threshold = 0.0` keeps exact nonzeros).
    pub fn from_dense(x: &DenseTensor, threshold: f64) -> Self {
        let dims = x.dims();
        let nm = dims.len();
        let mut inds = Vec::new();
        let mut vals = Vec::new();
        let mut idx = vec![0usize; nm];
        for &v in x.data() {
            if v.abs() > threshold {
                inds.extend_from_slice(&idx);
                vals.push(v);
            }
            x.info().increment(&mut idx);
        }
        // Entries were visited in linearization order with no
        // duplicates, but route through the canonicalizer anyway so
        // every constructor upholds the same invariant.
        Self::from_entries(dims, inds, vals)
    }

    /// Materialize as a dense tensor (test/interchange sizes only).
    pub fn to_dense(&self) -> DenseTensor {
        let mut x = DenseTensor::zeros(&self.dims);
        let nm = self.dims.len();
        for (k, &v) in self.vals.iter().enumerate() {
            let idx = &self.inds[k * nm..(k + 1) * nm];
            let prev = x.get(idx);
            x.set(idx, prev + v);
        }
        x
    }

    /// Tensor dimensions.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of modes.
    #[inline]
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Fraction of entries stored.
    pub fn density(&self) -> f64 {
        self.nnz() as f64 / self.dims.iter().product::<usize>() as f64
    }

    /// Multi-index of stored entry `k`.
    // Not `ops::Index`: this maps an entry ordinal to its coordinate
    // tuple, not a container position to an element.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn index(&self, k: usize) -> &[usize] {
        let nm = self.dims.len();
        &self.inds[k * nm..(k + 1) * nm]
    }

    /// Value of stored entry `k`.
    #[inline]
    pub fn value(&self, k: usize) -> f64 {
        self.vals[k]
    }

    /// All stored values in canonical order.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.vals
    }

    /// Entry-major index storage (`nnz × N`).
    #[inline]
    pub fn indices(&self) -> &[usize] {
        &self.inds
    }

    /// Iterate `(multi-index, value)` pairs in canonical order.
    pub fn entries(&self) -> impl Iterator<Item = (&[usize], f64)> + '_ {
        let nm = self.dims.len();
        self.inds.chunks_exact(nm).zip(self.vals.iter().copied())
    }

    /// Frobenius norm of the stored entries.
    pub fn norm(&self) -> f64 {
        self.vals.iter().map(|&v| v * v).sum::<f64>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_are_sorted_and_deduplicated() {
        // Same coordinate twice (summed), out-of-order input.
        let inds = vec![1, 1, /**/ 0, 0, /**/ 1, 1, /**/ 0, 1];
        let vals = vec![2.0, 5.0, 3.0, 7.0];
        let x = CooTensor::from_entries(&[2, 2], inds, vals);
        assert_eq!(x.nnz(), 3);
        assert_eq!(x.index(0), &[0, 0]);
        assert_eq!(x.value(0), 5.0);
        assert_eq!(x.index(1), &[0, 1]);
        assert_eq!(x.value(1), 7.0);
        assert_eq!(x.index(2), &[1, 1]);
        assert_eq!(x.value(2), 5.0);
    }

    #[test]
    fn canonical_input_is_kept_without_a_copy() {
        let x = CooTensor::from_dense(
            &DenseTensor::from_vec(&[2, 3], vec![0.0, 1.0, 0.0, 0.0, 2.5, 3.0]),
            0.0,
        );
        let (inds, vals) = (x.indices().to_vec(), x.values().to_vec());
        let (ip, vp) = (inds.as_ptr(), vals.as_ptr());
        let y = CooTensor::from_entries(&[2, 3], inds, vals);
        assert_eq!(y, x);
        assert_eq!((y.indices().as_ptr(), y.values().as_ptr()), (ip, vp));
    }

    #[test]
    fn construction_order_does_not_matter() {
        let a = CooTensor::from_entries(&[3, 2], vec![0, 0, 2, 1], vec![1.0, 2.0]);
        let b = CooTensor::from_entries(&[3, 2], vec![2, 1, 0, 0], vec![2.0, 1.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn dense_round_trip() {
        let x = DenseTensor::from_vec(&[2, 3], vec![0.0, 1.0, 0.0, 0.0, 2.5, 0.0]);
        let coo = CooTensor::from_dense(&x, 0.0);
        assert_eq!(coo.nnz(), 2);
        assert!((coo.density() - 2.0 / 6.0).abs() < 1e-15);
        assert_eq!(coo.to_dense(), x);
        assert!((coo.norm() - x.norm()).abs() < 1e-15);
    }

    #[test]
    fn threshold_drops_small_entries() {
        let x = DenseTensor::from_vec(&[2, 2], vec![0.1, -0.5, 0.05, 2.0]);
        let coo = CooTensor::from_dense(&x, 0.2);
        assert_eq!(coo.nnz(), 2);
        assert_eq!(coo.value(0), -0.5);
        assert_eq!(coo.value(1), 2.0);
    }

    #[test]
    fn entries_iterator_matches_accessors() {
        let coo = CooTensor::from_entries(&[2, 2, 2], vec![1, 0, 1, 0, 1, 0], vec![4.0, 3.0]);
        let got: Vec<(Vec<usize>, f64)> = coo.entries().map(|(idx, v)| (idx.to_vec(), v)).collect();
        assert_eq!(got, vec![(vec![0, 1, 0], 3.0), (vec![1, 0, 1], 4.0)]);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_index_rejected() {
        let _ = CooTensor::from_entries(&[2, 2], vec![0, 2], vec![1.0]);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_rejected() {
        let _ = CooTensor::from_entries(&[2, 2], vec![0, 0, 1], vec![1.0]);
    }

    #[test]
    #[should_panic]
    fn one_mode_rejected() {
        let _ = CooTensor::from_entries(&[4], vec![1], vec![1.0]);
    }
}
