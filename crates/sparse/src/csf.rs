//! Compressed sparse fiber (CSF) storage with per-mode orderings.
//!
//! CSF stores the nonzeros of an `N`-way tensor as a forest of depth-`N`
//! paths with shared prefixes: level 0 holds the distinct root-mode
//! indices, level `d` holds one node per distinct `(i_{m_0}, …, i_{m_d})`
//! prefix, and the leaves carry the values. A fiber at depth `d` is the
//! contiguous range of depth-`d+1` nodes below one node, addressed by
//! `fptr`. This is the layout SPLATT introduced for sparse MTTKRP and
//! the one the related multicore work (Dynasor, out-of-memory MTTKRP)
//! builds on: walking a subtree reuses the factor rows of every shared
//! prefix instead of recomputing an `N−1`-way Hadamard product per
//! nonzero.
//!
//! [`CsfTensor`] keeps **one tree per mode**, each rooted at that mode
//! (the remaining modes follow in ascending order). The mode-`n` MTTKRP
//! then walks the mode-`n` tree: every output row is owned by exactly
//! one root fiber, so a static partition over root fibers never writes
//! a row from two threads, and the per-level partial sums implement the
//! prefix reuse. The memory cost is `N` copies of the value array plus
//! the (smaller) fiber index arrays — the classic "allmode" CSF
//! trade-off, which this repo accepts to keep every mode's kernel
//! allocation-free and race-free.
//!
//! # Construction
//!
//! [`CsfTensor::from_coo`] orders each tree's entries with counting
//! sorts, not comparisons. Every entry becomes one integer record: its
//! indices in the tree's mode order, root highest, each in a field as
//! wide as that mode's largest stored index, above the entry id. Stable
//! LSD counting-sort passes over digits of at most 11 bits sort the
//! records. One sequential scan of them counts each level's nodes, a
//! second emits the nodes into levels allocated at their exact lengths,
//! and a last loop gathers the values. The records fit one `u64`
//! whenever the key and id bits do (the daemon benchmark's
//! 300 × 250 × 200 fixture needs 43) and take a `u128` otherwise. The
//! two record buffers are allocated once, shared by every tree and
//! freed on return; the bucket counts are at most 2^11 per pass. Nothing is sized by a dimension, so a
//! shape like `[2^60, 4]` costs what its entries cost, which matters
//! because the daemon builds the trees before it checks factor sizes.
//! Keys are unique (canonical COO has no repeated coordinate), so the
//! trees are exactly those of a comparison sort.

use std::ops::{BitOr, BitXor, Shl, Shr};

use mttkrp_tensor::DenseTensor;

use crate::coo::CooTensor;

/// One CSF tree: the nonzeros ordered with `order[0]` as the root mode.
#[derive(Debug, Clone, PartialEq)]
pub struct CsfTree {
    /// Mode permutation: `order[d]` is the tensor mode stored at tree
    /// depth `d`; `order[0]` is the root (output) mode.
    pub(crate) order: Vec<usize>,
    /// `fids[d][j]`: the mode-`order[d]` index of node `j` at depth `d`.
    pub(crate) fids: Vec<Vec<usize>>,
    /// `fptr[d][j] .. fptr[d][j+1]`: children of node `j` (depth `d`)
    /// within level `d+1`. One entry per node plus a trailing sentinel;
    /// `fptr.len() == order.len() - 1`.
    pub(crate) fptr: Vec<Vec<usize>>,
    /// Values, aligned with the deepest level's nodes (one per nonzero).
    pub(crate) vals: Vec<f64>,
}

impl CsfTree {
    /// The mode permutation (root first).
    #[inline]
    pub fn mode_order(&self) -> &[usize] {
        &self.order
    }

    /// Number of root fibers (distinct root-mode indices with any
    /// nonzero).
    #[inline]
    pub fn num_root_fibers(&self) -> usize {
        self.fids[0].len()
    }

    /// Number of nodes at depth `d`.
    #[inline]
    pub fn level_len(&self, d: usize) -> usize {
        self.fids[d].len()
    }

    /// The stored values in this tree's depth-first order (one per
    /// nonzero; a permutation of every other tree's values).
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.vals
    }

    /// Nonzeros stored under each root fiber, in root-fiber order —
    /// the load measure the plan's static partition balances.
    pub fn root_fiber_nnz(&self) -> Vec<usize> {
        let depth = self.fids.len();
        // Fold leaf counts upward one level at a time.
        let mut counts: Vec<usize> = vec![1; self.fids[depth - 1].len()];
        for d in (0..depth - 1).rev() {
            let ptr = &self.fptr[d];
            counts = (0..self.fids[d].len())
                .map(|j| counts[ptr[j]..ptr[j + 1]].iter().sum())
                .collect();
        }
        counts
    }
}

/// A sparse tensor in per-mode CSF form, ready for MTTKRP on any mode.
#[derive(Debug, Clone, PartialEq)]
pub struct CsfTensor {
    dims: Vec<usize>,
    nnz: usize,
    trees: Vec<CsfTree>,
}

impl CsfTensor {
    /// Compress a canonical COO tensor into one CSF tree per mode.
    ///
    /// Each tree's entries are ordered by stable LSD counting-sort
    /// passes over one-word records (see the [module docs](self)), and
    /// the tree is assembled in sequential scans of the sorted records.
    /// Scratch is two records per nonzero, shared by every
    /// tree and freed before this returns, plus at most 2^11 bucket
    /// counts per pass. None of it is sized by the dimensions.
    pub fn from_coo(coo: &CooTensor) -> Self {
        let layout = RecordLayout::new(coo);
        let trees = if layout.bits() <= u64::BITS {
            build_trees::<u64>(coo, &layout)
        } else {
            // The widest key any shape whose size fits in `usize` can
            // have is 82 bits, so this needs more than 2^46 entries.
            assert!(
                layout.bits() <= u128::BITS,
                "{} sort-record bits exceed two words",
                layout.bits()
            );
            build_trees::<u128>(coo, &layout)
        };
        CsfTensor {
            dims: coo.dims().to_vec(),
            nnz: coo.nnz(),
            trees,
        }
    }

    /// Decompress back to canonical COO form (inverse of
    /// [`CsfTensor::from_coo`]).
    pub fn to_coo(&self) -> CooTensor {
        let t = &self.trees[0];
        let nm = self.dims.len();
        let mut inds = Vec::with_capacity(self.nnz * nm);
        let mut vals = Vec::with_capacity(self.nnz);
        let mut idx = vec![0usize; nm];
        walk_collect(t, 0, 0..t.fids[0].len(), &mut idx, &mut inds, &mut vals);
        CooTensor::from_entries(&self.dims, inds, vals)
    }

    /// Sparsify a dense tensor straight into CSF (entries with
    /// `|x| > threshold`).
    pub fn from_dense(x: &DenseTensor, threshold: f64) -> Self {
        Self::from_coo(&CooTensor::from_dense(x, threshold))
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

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The tree rooted at mode `n` (the one mode-`n` MTTKRP walks).
    #[inline]
    pub fn tree(&self, n: usize) -> &CsfTree {
        &self.trees[n]
    }

    /// Frobenius norm of the stored values.
    pub fn norm(&self) -> f64 {
        self.trees[0]
            .vals
            .iter()
            .map(|&v| v * v)
            .sum::<f64>()
            .sqrt()
    }
}

/// Mode order of the tree rooted at `n`: `n`, then the other modes
/// ascending.
fn tree_order(n: usize, nm: usize) -> Vec<usize> {
    let mut order = Vec::with_capacity(nm);
    order.push(n);
    order.extend((0..nm).filter(|&m| m != n));
    order
}

/// Bits needed to write `x` (0 for 0).
fn bit_len(x: usize) -> u32 {
    usize::BITS - x.leading_zeros()
}

/// Widest digit one counting pass sorts on: at most 2^11 buckets.
const MAX_DIGIT_BITS: u32 = 11;

/// How a tree's sort records are packed: each mode's index in a field
/// as wide as that mode's largest stored index, root mode highest,
/// above the entry id in the low bits. Comparing records as integers
/// then orders entries lexicographically by the tree's mode order, and
/// keys are unique because canonical COO has no repeated coordinate.
#[derive(Debug)]
struct RecordLayout {
    /// Field width of each tensor mode.
    width: Vec<u32>,
    /// Bits of the entry id (enough for `nnz - 1`).
    id_bits: u32,
}

impl RecordLayout {
    fn new(coo: &CooTensor) -> Self {
        let nm = coo.order();
        let mut max = vec![0usize; nm];
        for idx in coo.indices().chunks_exact(nm) {
            for (mx, &i) in max.iter_mut().zip(idx) {
                *mx = (*mx).max(i);
            }
        }
        RecordLayout {
            width: max.into_iter().map(bit_len).collect(),
            id_bits: bit_len(coo.nnz().saturating_sub(1)),
        }
    }

    fn key_bits(&self) -> u32 {
        self.width.iter().sum()
    }

    /// Total record bits: the key plus the entry id.
    fn bits(&self) -> u32 {
        self.key_bits() + self.id_bits
    }

    /// `(shift, mask)` of each depth's field for a tree with `order`.
    /// A zero-width field gets shift 0, so no shift reaches the word
    /// size.
    fn fields(&self, order: &[usize]) -> Vec<(u32, u64)> {
        let mut fields = vec![(0, 0); order.len()];
        let mut shift = self.id_bits;
        for (f, &m) in fields.iter_mut().zip(order).rev() {
            let w = self.width[m];
            if w > 0 {
                *f = (shift, u64::MAX >> (u64::BITS - w));
                shift += w;
            }
        }
        fields
    }
}

/// A sort record: one machine word (`u64`) or, for keys too wide for
/// one, two (`u128`).
trait Record:
    Copy
    + From<u64>
    + Shl<u32, Output = Self>
    + Shr<u32, Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
{
    /// The low 64 bits.
    fn low(self) -> u64;
}

impl Record for u64 {
    #[inline]
    fn low(self) -> u64 {
        self
    }
}

impl Record for u128 {
    #[inline]
    fn low(self) -> u64 {
        self as u64
    }
}

/// Build every mode's tree: pack one record per entry under the tree's
/// mode order, counting-sort them, then assemble the tree. The two
/// record buffers are shared by all trees.
fn build_trees<W: Record>(coo: &CooTensor, layout: &RecordLayout) -> Vec<CsfTree> {
    let nm = coo.order();
    let mut recs = vec![W::from(0); coo.nnz()];
    let mut tmp = recs.clone();
    (0..nm)
        .map(|n| {
            let order = tree_order(n, nm);
            let fields = layout.fields(&order);
            for (k, (r, idx)) in recs
                .iter_mut()
                .zip(coo.indices().chunks_exact(nm))
                .enumerate()
            {
                *r = order
                    .iter()
                    .zip(&fields)
                    .fold(W::from(k as u64), |rec, (&m, &(shift, _))| {
                        rec | (W::from(idx[m] as u64) << shift)
                    });
            }
            radix_sort(&mut recs, &mut tmp, layout.id_bits, layout.key_bits());
            if n + 1 == nm {
                // Free the idle buffer before the last tree's levels are
                // allocated, which is when the build's memory peaks.
                tmp = Vec::new();
            }
            assemble(coo, order, &fields, layout.id_bits, &recs)
        })
        .collect()
}

/// Stable LSD counting sort of `recs` on bits `lo .. lo + bits`, in
/// equal digits of at most [`MAX_DIGIT_BITS`] (and no wider than
/// `log2(len)`, so tiny inputs do not pay for 2^11 buckets). `tmp` is
/// the second buffer each pass scatters into; the sorted records end
/// in `recs`.
fn radix_sort<W: Record>(recs: &mut Vec<W>, tmp: &mut Vec<W>, lo: u32, bits: u32) {
    let n = recs.len();
    if bits == 0 || n < 2 {
        return;
    }
    let passes = bits.div_ceil(bit_len(n).min(MAX_DIGIT_BITS));
    let digit = bits.div_ceil(passes);
    let mask = u64::MAX >> (u64::BITS - digit);
    let mut counts = vec![0usize; 1 << digit];
    for p in 0..passes {
        // `p · digit < bits`, so the shift stays inside the record.
        let shift = lo + p * digit;
        let bucket = |r: W| ((r >> shift).low() & mask) as usize;
        counts.fill(0);
        for &r in recs.iter() {
            counts[bucket(r)] += 1;
        }
        if counts[bucket(recs[0])] == n {
            continue; // every record shares this digit
        }
        let mut start = 0;
        for c in counts.iter_mut() {
            (*c, start) = (start, start + *c);
        }
        for &r in recs.iter() {
            let b = bucket(r);
            tmp[counts[b]] = r;
            counts[b] += 1;
        }
        std::mem::swap(recs, tmp);
    }
}

/// Assemble one tree from its sorted records: emit a node at depth `d`
/// whenever the prefix `(i_{m_0}, …, i_{m_d})` changes. A first scan
/// counts the nodes of each depth, so every level is allocated once at
/// its exact length.
fn assemble<W: Record>(
    coo: &CooTensor,
    order: Vec<usize>,
    fields: &[(u32, u64)],
    id_bits: u32,
    recs: &[W],
) -> CsfTree {
    let nm = order.len();
    let field = |r: W, d: usize| {
        let (shift, mask) = fields[d];
        ((r >> shift).low() & mask) as usize
    };
    // The first depth at which record `k` leaves record `k − 1`'s path;
    // it and every deeper depth start a fresh node. Keys are unique, so
    // some depth differs.
    let first_new = |k: usize| {
        if k == 0 {
            return 0;
        }
        let diff = recs[k] ^ recs[k - 1];
        (0..nm)
            .find(|&d| field(diff, d) != 0)
            .expect("canonical COO entries have distinct coordinates")
    };
    let mut nodes = vec![0usize; nm];
    for k in 0..recs.len() {
        for n in &mut nodes[first_new(k)..] {
            *n += 1;
        }
    }
    let mut fids: Vec<Vec<usize>> = nodes.iter().map(|&n| Vec::with_capacity(n)).collect();
    let mut fptr: Vec<Vec<usize>> = nodes[..nm - 1]
        .iter()
        .map(|&n| Vec::with_capacity(n + 1))
        .collect();
    for (k, &r) in recs.iter().enumerate() {
        for d in first_new(k)..nm {
            if d + 1 < nm {
                fptr[d].push(fids[d + 1].len());
            }
            fids[d].push(field(r, d));
        }
    }
    for d in 0..nm - 1 {
        fptr[d].push(fids[d + 1].len());
    }
    // A loop of its own, so the random value loads overlap.
    let id_mask = u64::MAX.checked_shr(u64::BITS - id_bits).unwrap_or(0);
    let values = coo.values();
    let vals = recs
        .iter()
        .map(|r| values[(r.low() & id_mask) as usize])
        .collect();

    CsfTree {
        order,
        fids,
        fptr,
        vals,
    }
}

/// Depth-first reconstruction of `(multi-index, value)` entries.
fn walk_collect(
    t: &CsfTree,
    depth: usize,
    range: std::ops::Range<usize>,
    idx: &mut [usize],
    inds: &mut Vec<usize>,
    vals: &mut Vec<f64>,
) {
    let leaf = depth == t.fids.len() - 1;
    for j in range {
        idx[t.order[depth]] = t.fids[depth][j];
        if leaf {
            inds.extend_from_slice(idx);
            vals.push(t.vals[j]);
        } else {
            walk_collect(
                t,
                depth + 1,
                t.fptr[depth][j]..t.fptr[depth][j + 1],
                idx,
                inds,
                vals,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mttkrp_rng::Rng64;

    /// Reference build by comparison sort: sort entry ids
    /// lexicographically under `order`, then emit a node at depth `d`
    /// whenever the prefix `(i_{m_0}, …, i_{m_d})` changes.
    fn oracle_tree(coo: &CooTensor, order: Vec<usize>) -> CsfTree {
        let nm = order.len();
        let nnz = coo.nnz();
        let mut perm: Vec<usize> = (0..nnz).collect();
        perm.sort_by(|&a, &b| {
            let (ia, ib) = (coo.index(a), coo.index(b));
            for &m in &order {
                match ia[m].cmp(&ib[m]) {
                    std::cmp::Ordering::Equal => continue,
                    other => return other,
                }
            }
            std::cmp::Ordering::Equal
        });

        let mut fids: Vec<Vec<usize>> = vec![Vec::new(); nm];
        let mut fptr: Vec<Vec<usize>> = vec![Vec::new(); nm - 1];
        let mut vals = Vec::with_capacity(nnz);
        for &e in &perm {
            let idx = coo.index(e);
            let mut diverged = fids[0].is_empty();
            for d in 0..nm {
                let i = idx[order[d]];
                if !diverged && *fids[d].last().unwrap() != i {
                    diverged = true;
                }
                if diverged {
                    if d + 1 < nm {
                        fptr[d].push(fids[d + 1].len());
                    }
                    fids[d].push(i);
                }
            }
            vals.push(coo.value(e));
        }
        for d in 0..nm - 1 {
            fptr[d].push(fids[d + 1].len());
        }
        CsfTree {
            order,
            fids,
            fptr,
            vals,
        }
    }

    fn oracle(coo: &CooTensor) -> CsfTensor {
        let nm = coo.order();
        CsfTensor {
            dims: coo.dims().to_vec(),
            nnz: coo.nnz(),
            trees: (0..nm)
                .map(|n| oracle_tree(coo, tree_order(n, nm)))
                .collect(),
        }
    }

    /// `draws` seeded random coordinates under `dims` (duplicates are
    /// merged by the COO constructor), each index drawn below
    /// `dims[m]`.
    fn random_coo(dims: &[usize], draws: usize, seed: u64) -> CooTensor {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut inds = Vec::with_capacity(draws * dims.len());
        let mut vals = Vec::with_capacity(draws);
        for _ in 0..draws {
            inds.extend(dims.iter().map(|&d| rng.usize_below(d)));
            vals.push(rng.next_f64() - 0.5);
        }
        CooTensor::from_entries(dims, inds, vals)
    }

    /// The counting-sort build must equal the comparator oracle,
    /// returning the record width it used.
    fn assert_matches_oracle(coo: &CooTensor) -> u32 {
        let csf = CsfTensor::from_coo(coo);
        assert_eq!(csf, oracle(coo), "dims {:?}, nnz {}", coo.dims(), coo.nnz());
        assert_eq!(csf.to_coo(), *coo);
        RecordLayout::new(coo).bits()
    }

    #[test]
    fn counting_sort_build_matches_comparator_oracle_orders_2_to_5() {
        let mut rng = Rng64::seed_from_u64(0xC5F0_0001);
        for case in 0..80 {
            let order = rng.usize_in(2, 6);
            // Size-1 modes included; dense enough to share prefixes.
            let dims: Vec<usize> = (0..order).map(|_| rng.usize_in(1, 9)).collect();
            let total: usize = dims.iter().product();
            let draws = rng.usize_in(0, 2 * total + 2);
            let coo = random_coo(&dims, draws, 0xC5F0_1000 + case);
            assert_matches_oracle(&coo);
        }
    }

    #[test]
    fn counting_sort_build_handles_empty_single_and_size_one_modes() {
        for dims in [&[3usize, 3][..], &[1, 1], &[1, 4, 1], &[2, 1, 3, 1, 2]] {
            let empty = CooTensor::from_entries(dims, Vec::new(), Vec::new());
            assert_matches_oracle(&empty);
            let last: Vec<usize> = dims.iter().map(|&d| d - 1).collect();
            let single = CooTensor::from_entries(dims, last, vec![2.5]);
            assert_eq!(CsfTensor::from_coo(&single).tree(0).values(), &[2.5]);
            assert_matches_oracle(&single);
        }
    }

    #[test]
    fn counting_sort_build_matches_oracle_on_merged_duplicates() {
        // Every coordinate drawn three times, in shuffled order.
        let dims = [5usize, 4, 3];
        let base = random_coo(&dims, 30, 0xC5F0_0002);
        let mut rng = Rng64::seed_from_u64(0xC5F0_0003);
        let mut entries: Vec<(Vec<usize>, f64)> = Vec::new();
        for (idx, v) in base.entries() {
            for _ in 0..3 {
                entries.push((idx.to_vec(), v / 3.0));
            }
        }
        for k in (1..entries.len()).rev() {
            entries.swap(k, rng.usize_below(k + 1));
        }
        let inds = entries.iter().flat_map(|(i, _)| i.clone()).collect();
        let vals = entries.iter().map(|&(_, v)| v).collect();
        let coo = CooTensor::from_entries(&dims, inds, vals);
        assert_eq!(coo.nnz(), base.nnz());
        assert_matches_oracle(&coo);
    }

    #[test]
    fn counting_sort_build_matches_oracle_on_modes_wider_than_one_digit() {
        // 13-bit and 17-bit modes: several passes per tree.
        assert_matches_oracle(&random_coo(&[5000, 7, 3], 4000, 0xC5F0_0004));
        assert_matches_oracle(&random_coo(&[3, 100_000, 6000, 2], 6000, 0xC5F0_0005));
    }

    #[test]
    fn counting_sort_build_uses_two_word_records_for_wide_keys() {
        let coo = random_coo(&[1 << 40, 1 << 20, 3], 1 << 10, 0xC5F0_0006);
        assert!(assert_matches_oracle(&coo) > u64::BITS);
        let coo = random_coo(&[1 << 40, 1 << 20], 1 << 10, 0xC5F0_0007);
        assert!(assert_matches_oracle(&coo) > u64::BITS);
    }

    #[test]
    fn counting_sort_build_handles_2_pow_60_modes() {
        let d = 1usize << 60;
        // The two corner entries fit one word; random ones need two.
        let corners = CooTensor::from_entries(&[d, 4], vec![0, 0, d - 1, 3], vec![1.0, 2.0]);
        assert!(assert_matches_oracle(&corners) <= u64::BITS);
        let coo = random_coo(&[d, 4], 64, 0xC5F0_0008);
        assert!(assert_matches_oracle(&coo) > u64::BITS);
    }

    #[test]
    fn counting_sort_build_matches_oracle_at_fixture_scale() {
        // The daemon benchmark's sparse fixture: 240k draws of a
        // 300 x 250 x 200 tensor.
        assert_matches_oracle(&random_coo(&[300, 250, 200], 240_000, 0xC5F0_0009));
    }

    fn sample_coo() -> CooTensor {
        // 3 x 2 x 2 tensor with 4 nonzeros, two sharing a root fiber
        // in mode 0.
        CooTensor::from_entries(
            &[3, 2, 2],
            vec![
                0, 1, 0, //
                2, 0, 1, //
                0, 0, 1, //
                1, 1, 1,
            ],
            vec![1.0, 2.0, 3.0, 4.0],
        )
    }

    #[test]
    fn tree_structure_mode0() {
        let csf = CsfTensor::from_coo(&sample_coo());
        let t = csf.tree(0);
        assert_eq!(t.mode_order(), &[0, 1, 2]);
        // Root fibers: i0 ∈ {0, 1, 2}.
        assert_eq!(t.fids[0], vec![0, 1, 2]);
        assert_eq!(t.num_root_fibers(), 3);
        // i0 = 0 has two children fibers (j = 0 and j = 1).
        assert_eq!(t.fptr[0], vec![0, 2, 3, 4]);
        assert_eq!(t.fids[1], vec![0, 1, 1, 0]);
        // Leaves carry one node per nonzero.
        assert_eq!(t.level_len(2), 4);
        assert_eq!(t.root_fiber_nnz(), vec![2, 1, 1]);
    }

    #[test]
    fn every_mode_tree_holds_all_values() {
        let coo = sample_coo();
        let csf = CsfTensor::from_coo(&coo);
        for n in 0..3 {
            let t = csf.tree(n);
            assert_eq!(t.mode_order()[0], n);
            assert_eq!(t.vals.len(), coo.nnz());
            let sum: f64 = t.vals.iter().sum();
            assert!((sum - 10.0).abs() < 1e-12, "mode {n}");
            assert_eq!(t.root_fiber_nnz().iter().sum::<usize>(), coo.nnz());
        }
    }

    #[test]
    fn coo_round_trip_is_identity() {
        let coo = sample_coo();
        let back = CsfTensor::from_coo(&coo).to_coo();
        assert_eq!(back, coo);
    }

    #[test]
    fn from_dense_matches_coo_path() {
        let x = sample_coo().to_dense();
        let a = CsfTensor::from_dense(&x, 0.0);
        let b = CsfTensor::from_coo(&CooTensor::from_dense(&x, 0.0));
        assert_eq!(a, b);
        assert!((a.norm() - x.norm()).abs() < 1e-12);
    }

    #[test]
    fn empty_tensor_is_representable() {
        let coo = CooTensor::from_entries(&[3, 3], Vec::new(), Vec::new());
        let csf = CsfTensor::from_coo(&coo);
        assert_eq!(csf.nnz(), 0);
        assert_eq!(csf.tree(0).num_root_fibers(), 0);
        assert_eq!(csf.to_coo(), coo);
    }
}
