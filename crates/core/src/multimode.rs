//! The partial MTTKRP, and the two-group (dimension-tree) plan that
//! serves every mode of a sweep from two of them.
//!
//! A *partial MTTKRP* splits the modes at `s` into a prefix
//! `{0, …, s−1}` and a suffix `{s, …, N−1}` and contracts the tensor
//! with the other group's KRP in one GEMM, leaving the group's own
//! modes open:
//!
//! * prefix group: `R = X(0:s−1) · (U_{N−1} ⊙ ⋯ ⊙ U_s)`, `(I_0⋯I_{s−1}) × C`;
//! * suffix group: `L = X(0:s−1)ᵀ · (U_{s−1} ⊙ ⋯ ⊙ U_0)`, `(I_s⋯I_{N−1}) × C`.
//!
//! Column `j` of a partial is a small tensor over its group's modes;
//! contracting it with column `j` of every other in-group factor (a
//! multi-TTV: a chain of GEMVs) yields column `j` of `M_n` for any mode
//! `n` of the group. The crate-private `Partial` runs both steps for
//! two plans:
//!
//! * the per-mode 2-step (Algorithm 4, Phan et al.): a
//!   [`MttkrpPlan`](crate::MttkrpPlan) for internal mode `n` holds the
//!   suffix group `n..N` (`TwoStepLeft`, split `n`) or the prefix group
//!   `0..=n` (`TwoStepRight`, split `n+1`), and forms it on every call;
//! * [`DimTreePlan`], the paper's future-work multi-mode reuse (Phan et
//!   al. §III.C): two groups split at `s = ⌈N/2⌉`. In a CP-ALS sweep
//!   ([`DimTreePlan::execute_in_sweep`] for `n = 0..N−1`, factor `n−1`
//!   updated between calls) `R` depends only on the right factors, so
//!   it is formed at `n = 0` and serves every left mode as ALS updates
//!   the left factors; `L` is formed at `n = s` from the updated left
//!   factors. A gradient (all modes at fixed factors) is the same
//!   sequence with no updates in between.
//!
//! The other group's KRP is never formed: the partial GEMM takes it as
//! a [`KrpRef`] `B` operand over the other group's factors, and the
//! GEMM's pack generates each KRP row it needs, so its time is charged
//! to `dgemm` (never `lr_krp`). A GEMM whose `k` is at least `4m` (the
//! `L` partial of a cubic 3-way tensor: `k = I²` against `m = I`) runs as
//! `k`-chunks cut by the shape alone (`k_chunks`): the team deals
//! them in static blocks, each into its own slice of plan-owned
//! scratch, and the chunk products are summed in chunk order, so each
//! thread generates only its own KRP rows. Any other partial GEMM
//! splits its output across the team.
//!
//! Each multi-TTV deals the `C` columns across the team in static
//! blocks and runs a column's GEMV chain sequentially, so — with the
//! chunk sum in a fixed order and the GEMM's per-element sums fixed by
//! the shape — the result does not depend on the team size.
//! Steady-state execution on a one-thread pool allocates nothing.

use std::ops::Range;

use mttkrp_blas::{
    gemm_krp_with, gemv, k_block, kernels, par_gemm_krp_with, KernelSet, KrpRef, Layout, MatMut,
    MatRef, Scalar,
};
use mttkrp_parallel::{block_range, ThreadPool, Workspace};
use mttkrp_tensor::DenseTensor;

use crate::breakdown::{timed_traced, Breakdown};
use crate::plan::check_planned;

/// A partial MTTKRP over one mode group, a prefix `0..s` or a suffix
/// `s..N` of the modes. See the [module docs](self).
pub(crate) struct Partial<S: Scalar> {
    /// The group's modes.
    modes: Range<usize>,
    /// The other group's factor indices in KRP order (descending).
    other_order: Vec<usize>,
    /// The `k`-chunks of the partial GEMM ([`k_chunks`]); empty when it
    /// runs as one team-split GEMM.
    chunks: Vec<Range<usize>>,
    /// Per-thread outputs of the chunks dealt to each thread, in chunk
    /// order.
    chunk_out: Workspace<ChunkSlot<S>>,
    /// The partial, `(Π group dims) × C` column-major.
    partial: Vec<S>,
}

/// One thread's share of a chunked partial GEMM.
pub(crate) struct ChunkSlot<S: Scalar> {
    /// This thread's static block of chunk indices.
    chunks: Range<usize>,
    /// One column-major `rows × C` product per chunk.
    out: Vec<S>,
}

/// The `k`-chunks of a partial GEMM with `m` output rows and inner
/// dimension `k`, cut at multiples of `kc`. A GEMM this long (`k ≥ 4m`)
/// runs as near-equal chunks of whole `kc`-blocks, none longer than
/// `max(16·kc, m)` rounded up to a block, so a team shares it by `k`
/// and each thread generates only its own KRP rows. The cut depends
/// only on the shape, never on the team. Empty when the GEMM is one
/// chunk.
fn k_chunks(m: usize, k: usize, kc: usize) -> Vec<Range<usize>> {
    if k < 4 * m {
        return Vec::new();
    }
    let blocks = k.div_ceil(kc);
    let n = blocks.div_ceil((16 * kc).max(m).div_ceil(kc));
    if n < 2 {
        return Vec::new();
    }
    (0..n)
        .map(|i| {
            let b = block_range(blocks, n, i);
            b.start * kc..(b.end * kc).min(k)
        })
        .collect()
}

impl<S: Scalar> Partial<S> {
    /// Allocate the partial of group `modes` (a prefix or a suffix of
    /// the modes) of a `dims` tensor at rank `c`, with the chunk
    /// outputs of a `t`-thread team.
    pub(crate) fn new(dims: &[usize], modes: Range<usize>, c: usize, t: usize) -> Self {
        let other = if modes.start == 0 {
            modes.end..dims.len()
        } else {
            0..modes.start
        };
        let rows = |r: &Range<usize>| dims[r.clone()].iter().product::<usize>();
        let m = rows(&modes);
        let chunks = k_chunks(m, rows(&other), k_block::<S>());
        let nsplit = t.min(chunks.len());
        let chunk_out = Workspace::new(t, |tid| {
            let mine = if tid < nsplit {
                block_range(chunks.len(), nsplit, tid)
            } else {
                0..0
            };
            ChunkSlot {
                out: vec![S::ZERO; mine.len() * m * c],
                chunks: mine,
            }
        });
        Partial {
            other_order: other.rev().collect(),
            chunks,
            chunk_out,
            partial: vec![S::ZERO; m * c],
            modes,
        }
    }

    /// Address of the partial's buffer (stable across executions).
    pub(crate) fn as_ptr(&self) -> *const S {
        self.partial.as_ptr()
    }

    /// Form the partial at `factors` with one partial GEMM, charged to
    /// `dgemm`, whose `B` is the other group's KRP generated in the
    /// GEMM's pack. A chunked GEMM deals its chunks across the team and
    /// sums their products in chunk order.
    pub(crate) fn form(
        &mut self,
        ks: &KernelSet<S>,
        pool: &ThreadPool,
        x: &DenseTensor<S>,
        factors: &[MatRef<S>],
        bd: &mut Breakdown,
    ) {
        let c = factors[0].ncols();
        let krp = KrpRef::new(factors, &self.other_order);
        // X(0:s−1) is (Π prefix dims) × (Π suffix dims) column-major.
        let prefix = self.modes.start == 0;
        let split = if prefix {
            self.modes.end
        } else {
            self.modes.start
        };
        let xv = x.unfold_leading(split - 1);
        let a = if prefix { xv } else { xv.t() };
        let rows = a.nrows();
        timed_traced("gemm", &mut bd.dgemm, || {
            if self.chunks.is_empty() {
                let out = MatMut::from_slice(&mut self.partial, rows, c, Layout::ColMajor);
                par_gemm_krp_with(ks, pool, 1.0, a, krp, 0.0, out);
                return;
            }
            let chunks = &self.chunks;
            pool.run_with_workspace(&mut self.chunk_out, |_, slot| {
                for (out, i) in slot.out.chunks_exact_mut(rows * c).zip(slot.chunks.clone()) {
                    let r = chunks[i].clone();
                    gemm_krp_with(
                        ks,
                        1.0,
                        a.submatrix(0, r.start, rows, r.len()),
                        krp.rows(r.start, r.len()),
                        0.0,
                        MatMut::from_slice(out, rows, c, Layout::ColMajor),
                    );
                }
            });
            let slots = self.chunk_out.slots();
            let mut outs = slots.iter().flat_map(|s| s.out.chunks_exact(rows * c));
            self.partial
                .copy_from_slice(outs.next().expect("a chunked GEMM has chunks"));
            for out in outs {
                for (p, &v) in self.partial.iter_mut().zip(out) {
                    *p += v;
                }
            }
        });
    }

    /// `out ← M_n` for group mode `n` from the formed partial, charged
    /// to `dgemv`: column `j` of the partial, a tensor over the group
    /// dims, contracted with column `j` of every other group factor.
    /// The columns are dealt across the team; each thread's results land
    /// in its slot and are scattered into the row-major `out` afterwards.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn contract(
        &self,
        pool: &ThreadPool,
        ttv: &mut Workspace<TtvSlot<S>>,
        dims: &[usize],
        factors: &[MatRef<S>],
        n: usize,
        out: &mut [S],
        bd: &mut Breakdown,
    ) {
        let (g, gf) = (&dims[self.modes.clone()], &factors[self.modes.clone()]);
        let (p, c) = (n - self.modes.start, factors[0].ncols());
        let (total, rows) = (self.partial.len() / c, g[p]);
        timed_traced("gemv", &mut bd.dgemv, || {
            pool.run_with_workspace(ttv, |_, slot| {
                for (jj, j) in slot.cols.clone().enumerate() {
                    let sub = &self.partial[j * total..(j + 1) * total];
                    let col =
                        contract_column(sub, g, p, gf, j, &mut slot.v, &mut slot.a, &mut slot.b);
                    slot.out[jj * rows..(jj + 1) * rows].copy_from_slice(col);
                }
            });
            for slot in ttv.slots() {
                for (jj, j) in slot.cols.clone().enumerate() {
                    for (i, &v) in slot.out[jj * rows..(jj + 1) * rows].iter().enumerate() {
                        out[i * c + j] = v;
                    }
                }
            }
        });
    }
}

/// Per-thread multi-TTV scratch.
pub(crate) struct TtvSlot<S: Scalar> {
    /// This thread's static block of component columns.
    cols: Range<usize>,
    /// One factor column.
    v: Vec<S>,
    /// Ping-pong contraction intermediates.
    a: Vec<S>,
    b: Vec<S>,
    /// Column-major `I_n × |cols|` result of the current mode.
    out: Vec<S>,
}

/// Multi-TTV scratch for `t` threads contracting any mode of `groups`
/// of a `dims` tensor at rank `c`.
pub(crate) fn ttv_workspace<S: Scalar>(
    t: usize,
    dims: &[usize],
    c: usize,
    groups: &[Partial<S>],
) -> Workspace<TtvSlot<S>> {
    // The first contraction of a column is the largest: of the last
    // group mode, or of mode 0 when the last mode is the one kept.
    let inter = groups
        .iter()
        .map(|g| {
            let gd = &dims[g.modes.clone()];
            gd.iter().product::<usize>() / gd[0].min(gd[gd.len() - 1])
        })
        .max()
        .unwrap_or(0);
    let max_dim = dims.iter().copied().max().unwrap_or(0);
    let nsplit = t.min(c);
    Workspace::new(t, |tid| {
        let cols = if tid < nsplit {
            block_range(c, nsplit, tid)
        } else {
            0..0
        };
        TtvSlot {
            v: vec![S::ZERO; max_dim],
            a: vec![S::ZERO; inter],
            b: vec![S::ZERO; inter],
            out: vec![S::ZERO; max_dim * cols.len()],
            cols,
        }
    })
}

/// Reusable two-group MTTKRP plan for one tensor shape, rank and team.
/// See the [module docs](self).
pub struct DimTreePlan<S: Scalar = f64> {
    dims: Vec<usize>,
    c: usize,
    threads: usize,
    /// Left (`0..s`) and right (`s..N`) groups.
    groups: [Partial<S>; 2],
    /// The mode an in-sweep call may continue from without refreshing
    /// its group's partial.
    next: usize,
    ttv: Workspace<TtvSlot<S>>,
    kernels: KernelSet<S>,
}

impl<S: Scalar> std::fmt::Debug for DimTreePlan<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DimTreePlan")
            .field("dims", &self.dims)
            .field("c", &self.c)
            .field("split", &self.split())
            .field("threads", &self.threads)
            .finish()
    }
}

impl<S: Scalar> DimTreePlan<S> {
    /// Plan the two-group MTTKRP of a `dims` tensor at rank `c` on
    /// `pool`'s team, allocating both partials and all scratch.
    ///
    /// # Panics
    /// Panics if the tensor order is below 2 or `c == 0`.
    pub fn new(pool: &ThreadPool, dims: &[usize], c: usize) -> Self {
        let nmodes = dims.len();
        assert!(nmodes >= 2, "MTTKRP requires an order >= 2 tensor");
        assert!(c > 0, "rank must be positive");
        let _span = mttkrp_obs::span!("plan_build", modes = nmodes);
        mttkrp_obs::counter!("core.plans_built").incr();
        let s = nmodes.div_ceil(2);
        let t = pool.num_threads();
        let groups = [
            Partial::new(dims, 0..s, c, t),
            Partial::new(dims, s..nmodes, c, t),
        ];
        DimTreePlan {
            dims: dims.to_vec(),
            c,
            threads: t,
            ttv: ttv_workspace(t, dims, c, &groups),
            groups,
            next: 0,
            kernels: *kernels::<S>(),
        }
    }

    /// Tensor dimensions the plan was built for.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Decomposition rank `C`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.c
    }

    /// Split point `s`: the left group is modes `0..s`, the right group
    /// modes `s..N`.
    #[inline]
    pub fn split(&self) -> usize {
        self.groups[1].modes.start
    }

    /// Mode `n`'s MTTKRP inside a sweep: `out ← X(n) · (⊙_{k≠n} U_k)`,
    /// row-major `I_n × C`, overwritten.
    ///
    /// Contract: calls come for `n = 0, 1, …, N−1` in order, and only
    /// factor `n−1` (factor `N−1` before `n = 0`) has changed since the
    /// previous call. The left partial is then formed at `n = 0` and the
    /// right one at `n = s`; every other mode is only its multi-TTV. A
    /// call out of that order forms its group's partial afresh.
    ///
    /// The group work is charged to the triggering mode's breakdown:
    /// the partial GEMM, with the KRP generated inside it, to `dgemm`,
    /// and every mode's multi-TTV to `dgemv`.
    ///
    /// # Panics
    /// Panics if `pool`, `x`, `factors`, or `out` disagree with the
    /// planned shape.
    pub fn execute_in_sweep(
        &mut self,
        pool: &ThreadPool,
        x: &DenseTensor<S>,
        factors: &[MatRef<S>],
        n: usize,
        out: &mut [S],
    ) -> Breakdown {
        let refresh = n == 0 || n == self.split() || n != self.next;
        self.run(pool, x, factors, n, out, refresh)
    }

    /// Mode `n`'s MTTKRP at arbitrary factors: forms mode `n`'s group
    /// partial, then its multi-TTV. Any call order is valid.
    pub fn execute(
        &mut self,
        pool: &ThreadPool,
        x: &DenseTensor<S>,
        factors: &[MatRef<S>],
        n: usize,
        out: &mut [S],
    ) -> Breakdown {
        self.run(pool, x, factors, n, out, true)
    }

    fn run(
        &mut self,
        pool: &ThreadPool,
        x: &DenseTensor<S>,
        factors: &[MatRef<S>],
        n: usize,
        out: &mut [S],
        refresh: bool,
    ) -> Breakdown {
        check_planned(&self.dims, self.c, self.threads, pool, x, factors, n, out);
        let _span = mttkrp_obs::span!("mttkrp", mode = n);
        let total_t0 = std::time::Instant::now();
        let mut bd = Breakdown::default();
        let g = usize::from(n >= self.split());
        let group = &mut self.groups[g];
        if refresh {
            group.form(&self.kernels, pool, x, factors, &mut bd);
        }
        group.contract(pool, &mut self.ttv, &self.dims, factors, n, out, &mut bd);
        self.next = n + 1;
        bd.total = total_t0.elapsed().as_secs_f64();
        bd
    }
}

/// Contract the column-major tensor `sub` (dims `g`) with column `j` of
/// every factor in `gf` except local mode `p`, returning the length
/// `g[p]` result. Modes above `p` go first, highest first, as GEMVs with
/// the `(lead × g_high)` column-major reshape; then modes below `p`,
/// lowest first, through the transposed `(g_low × rest)` reshape. Every
/// step reads and writes contiguous memory, ping-ponging between `a`
/// and `b`.
#[allow(clippy::too_many_arguments)]
fn contract_column<'a, S: Scalar>(
    sub: &'a [S],
    g: &[usize],
    p: usize,
    gf: &[MatRef<S>],
    j: usize,
    v: &mut [S],
    a: &'a mut [S],
    b: &'a mut [S],
) -> &'a [S] {
    #[derive(Clone, Copy)]
    enum Cur {
        Sub,
        A,
        B,
    }
    let (mut lo, mut hi) = (0, g.len());
    let mut cur = Cur::Sub;
    while hi - lo > 1 {
        let high = hi - 1 > p;
        let k = if high { hi - 1 } else { lo };
        let d = g[k];
        for (i, vi) in v[..d].iter_mut().enumerate() {
            *vi = gf[k].get(i, j);
        }
        let len: usize = g[lo..hi].iter().product();
        let rest = len / d;
        let (src, dst): (&[S], &mut [S]) = match cur {
            Cur::Sub => (&sub[..len], &mut a[..rest]),
            Cur::A => (&a[..len], &mut b[..rest]),
            Cur::B => (&b[..len], &mut a[..rest]),
        };
        if high {
            let m = MatRef::from_slice(src, rest, d, Layout::ColMajor);
            gemv(1.0, m, &v[..d], 0.0, dst);
            hi -= 1;
        } else {
            let m = MatRef::from_slice(src, d, rest, Layout::ColMajor);
            gemv(1.0, m.t(), &v[..d], 0.0, dst);
            lo += 1;
        }
        cur = match cur {
            Cur::Sub | Cur::B => Cur::A,
            Cur::A => Cur::B,
        };
    }
    match cur {
        Cur::Sub => sub,
        Cur::A => &a[..g[p]],
        Cur::B => &b[..g[p]],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::mttkrp_oracle;
    use crate::{AlgoChoice, MttkrpPlan, TwoStepSide};
    use mttkrp_rng::Rng64;

    /// A random tensor and factors of `dims` at rank `c`.
    fn setup(dims: &[usize], c: usize, seed: u64) -> (DenseTensor, Vec<Vec<f64>>) {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut rand = |len: usize| (0..len).map(|_| rng.next_f64() - 0.5).collect::<Vec<_>>();
        let x = DenseTensor::from_vec(dims, rand(dims.iter().product()));
        (x, dims.iter().map(|&d| rand(d * c)).collect())
    }

    fn refs<'a>(factors: &'a [Vec<f64>], dims: &[usize], c: usize) -> Vec<MatRef<'a>> {
        let view = |(f, &d): (&'a Vec<f64>, &usize)| MatRef::from_slice(f, d, c, Layout::RowMajor);
        factors.iter().zip(dims).map(view).collect()
    }

    /// One in-sweep pass over every mode at fixed factors (the gradient
    /// call sequence), with each mode's breakdown.
    fn all_modes(
        plan: &mut DimTreePlan,
        pool: &ThreadPool,
        x: &DenseTensor,
        f: &[MatRef],
    ) -> Vec<(Vec<f64>, Breakdown)> {
        let (dims, c) = (x.dims(), plan.rank());
        (0..dims.len())
            .map(|n| {
                let mut out = vec![f64::NAN; dims[n] * c];
                let bd = plan.execute_in_sweep(pool, x, f, n, &mut out);
                (out, bd)
            })
            .collect()
    }

    fn outputs(all: Vec<(Vec<f64>, Breakdown)>) -> Vec<Vec<f64>> {
        all.into_iter().map(|(out, _)| out).collect()
    }

    fn check(dims: &[usize], c: usize, t: usize) {
        let (x, factors) = setup(dims, c, 3);
        let f = refs(&factors, dims, c);
        let pool = ThreadPool::new(t);
        let mut plan = DimTreePlan::new(&pool, dims, c);
        for (n, (got, _)) in all_modes(&mut plan, &pool, &x, &f).iter().enumerate() {
            let mut want = vec![0.0; dims[n] * c];
            mttkrp_oracle(&x, &f, n, &mut want);
            for (a, b) in got.iter().zip(&want) {
                assert!(
                    (a - b).abs() < 1e-9 * (1.0 + b.abs()),
                    "dims {dims:?} mode {n} t={t}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn matches_oracle_2way_to_6way() {
        check(&[4, 5], 3, 1);
        check(&[4, 3, 5], 3, 2);
        check(&[3, 4, 2, 3], 2, 2);
        check(&[2, 3, 2, 2, 3], 2, 3);
        check(&[2, 2, 2, 2, 2, 2], 2, 1);
    }

    #[test]
    fn asymmetric_dims() {
        check(&[13, 2, 7], 4, 2);
        check(&[1, 6, 5], 2, 2);
        check(&[6, 1, 5, 2], 2, 1);
        check(&[5, 4, 1], 3, 2);
        check(&[3, 1, 4, 1, 2], 5, 3);
    }

    /// The in-sweep sequence reuses the partials; `execute` re-forms
    /// them on every call. Both must agree bit for bit, repeat stably,
    /// and not depend on the team size.
    #[test]
    fn plan_reuse_matches_wrapper_and_is_stable() {
        let dims = [4usize, 3, 2, 3, 5];
        let c = 3;
        let (x, factors) = setup(&dims, c, 5);
        let f = refs(&factors, &dims, c);
        let pool = ThreadPool::new(2);
        let mut plan = DimTreePlan::new(&pool, &dims, c);
        let fresh: Vec<Vec<f64>> = (0..dims.len())
            .map(|n| {
                let mut out = vec![0.0; dims[n] * c];
                plan.execute(&pool, &x, &f, n, &mut out);
                out
            })
            .collect();
        let first = outputs(all_modes(&mut plan, &pool, &x, &f));
        assert_eq!(first, fresh, "in-sweep output differs from execute");
        let again = outputs(all_modes(&mut plan, &pool, &x, &f));
        assert_eq!(first, again, "plan output drifted across executions");
        for t in [1, 3] {
            let pool = ThreadPool::new(t);
            let mut plan = DimTreePlan::new(&pool, &dims, c);
            assert_eq!(outputs(all_modes(&mut plan, &pool, &x, &f)), first, "t={t}");
        }
    }

    /// Modes 0 and `s` carry their group's partial GEMM, the KRP
    /// generated inside it; every mode carries its multi-TTV.
    #[test]
    fn group_work_is_charged_to_the_triggering_modes() {
        let dims = [6usize, 5, 4, 3];
        let (x, factors) = setup(&dims, 2, 9);
        let f = refs(&factors, &dims, 2);
        let pool = ThreadPool::new(1);
        let mut plan = DimTreePlan::new(&pool, &dims, 2);
        assert_eq!(plan.split(), 2);
        for (n, (_, bd)) in all_modes(&mut plan, &pool, &x, &f).iter().enumerate() {
            let group_mode = n == 0 || n == 2;
            assert_eq!(bd.dgemm > 0.0, group_mode, "mode {n}: {bd:?}");
            assert_eq!(bd.lr_krp, 0.0, "mode {n}: {bd:?}");
            assert!(bd.dgemv > 0.0 && bd.total >= bd.categorized(), "mode {n}");
        }
    }

    /// The per-mode 2-step runs the two-group plan's partial: on
    /// `[5, 4, 3, 6]` (split 2) its right side at mode 1 and its left
    /// side at mode 2 equal `DimTreePlan::execute` bit for bit, every
    /// forced side is bitwise identical across teams of 1, 2 and 3, and
    /// each side's KRP is charged inside its partial GEMM.
    #[test]
    fn per_mode_two_step_is_the_two_group_partial() {
        let dims = [5usize, 4, 3, 6];
        let c = 3;
        let (x, factors) = setup(&dims, c, 13);
        let f = refs(&factors, &dims, c);
        let bits = |v: &[f64]| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
        let run = |t: usize, n: usize, side: TwoStepSide| {
            let pool = ThreadPool::new(t);
            let mut plan = MttkrpPlan::new(&pool, &dims, c, n, AlgoChoice::TwoStep(side));
            let mut out = vec![f64::NAN; dims[n] * c];
            let bd = plan.execute_timed(&pool, &x, &f, &mut out);
            (bits(&out), bd)
        };
        let pool = ThreadPool::new(2);
        let mut tree = DimTreePlan::new(&pool, &dims, c);
        for (n, side) in [(1, TwoStepSide::Right), (2, TwoStepSide::Left)] {
            let mut want = vec![f64::NAN; dims[n] * c];
            tree.execute(&pool, &x, &f, n, &mut want);
            assert_eq!(run(2, n, side).0, bits(&want), "mode {n} {side:?}");
        }
        for n in [1, 2] {
            for side in [TwoStepSide::Left, TwoStepSide::Right] {
                let (one, bd) = run(1, n, side);
                assert!(bd.dgemm > 0.0, "mode {n} {side:?}: {bd:?}");
                assert_eq!(bd.lr_krp, 0.0, "mode {n} {side:?}: {bd:?}");
                for t in [2, 3] {
                    assert_eq!(run(t, n, side).0, one, "mode {n} {side:?} t={t}");
                }
            }
        }
    }

    /// A long-`k` partial runs as `k`-chunks whose cut depends only on
    /// the shape: on `[100, 90, 6]` the right group's `L` partial
    /// (`k = 9000` f64) is three chunks, the per-mode 2-step's left side
    /// on mode 2 of `[70, 64, 4, 3]` two. Both match the oracle and are
    /// bitwise identical across teams of 1, 2 and 3.
    #[test]
    fn chunked_partials_are_bitwise_independent_of_the_team() {
        let c = 3;
        let dims = [100usize, 90, 6];
        let (x, factors) = setup(&dims, c, 21);
        let f = refs(&factors, &dims, c);
        let mut first = None;
        for t in [1, 2, 3] {
            let pool = ThreadPool::new(t);
            let mut plan = DimTreePlan::new(&pool, &dims, c);
            assert_eq!(plan.groups.each_ref().map(|g| g.chunks.len()), [0, 3]);
            let got = outputs(all_modes(&mut plan, &pool, &x, &f));
            let want = first.get_or_insert_with(|| got.clone());
            assert_eq!(&got, want, "t={t}");
        }
        check(&dims, c, 2);

        let dims = [70usize, 64, 4, 3];
        assert_eq!(k_chunks(4 * 3, 70 * 64, k_block::<f64>()).len(), 2);
        let (x, factors) = setup(&dims, c, 22);
        let f = refs(&factors, &dims, c);
        let mut want = vec![0.0; dims[2] * c];
        mttkrp_oracle(&x, &f, 2, &mut want);
        let mut first: Option<Vec<f64>> = None;
        for t in [1, 2, 3] {
            let pool = ThreadPool::new(t);
            let choice = AlgoChoice::TwoStep(TwoStepSide::Left);
            let mut plan = MttkrpPlan::new(&pool, &dims, c, 2, choice);
            let mut out = vec![f64::NAN; dims[2] * c];
            plan.execute(&pool, &x, &f, &mut out);
            for (a, b) in out.iter().zip(&want) {
                assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()), "t={t}: {a} vs {b}");
            }
            let first = first.get_or_insert_with(|| out.clone());
            assert_eq!(&out, first, "t={t}");
        }
    }
}
