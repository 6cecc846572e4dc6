//! The two-group (dimension-tree) MTTKRP: every mode's MTTKRP from two
//! partial-MTTKRP GEMMs.
//!
//! The per-mode kernels read the whole tensor once per mode. The
//! paper's conclusion names multi-mode reuse as the next step (Phan et
//! al. §III.C): split the modes into a left group `{0, …, s−1}` and a
//! right group `{s, …, N−1}` (`s = ⌈N/2⌉`) and form one partial each,
//!
//! * `R = X(0:s−1) · (U_{N−1} ⊙ ⋯ ⊙ U_s)`, `(I_0⋯I_{s−1}) × C`;
//! * `L = X(0:s−1)ᵀ · (U_{s−1} ⊙ ⋯ ⊙ U_0)`, `(I_s⋯I_{N−1}) × C`.
//!
//! Column `j` of a partial is a small tensor over its group's modes;
//! contracting it with column `j` of every other in-group factor (a
//! multi-TTV: a chain of GEMVs) yields column `j` of `M_n`.
//!
//! [`DimTreePlan`] owns the group KRPs, both partials and the multi-TTV
//! scratch. In a CP-ALS sweep ([`DimTreePlan::execute_in_sweep`] for
//! `n = 0..N−1`, factor `n−1` updated between calls) `R` depends only
//! on the right factors, so it is formed at `n = 0` and serves every
//! left mode as ALS updates the left factors; `L` is formed at `n = s`
//! from the updated left factors. A gradient (all modes at fixed
//! factors) is the same sequence with no updates in between.
//!
//! Each multi-TTV deals the `C` columns across the team in static
//! blocks and runs a column's GEMV chain sequentially, so the result
//! does not depend on the team size. Steady-state execution on a
//! one-thread pool allocates nothing.

use std::ops::Range;

use mttkrp_blas::{gemv, kernels, par_gemm_with, KernelSet, Layout, MatMut, MatRef, Scalar};
use mttkrp_krp::KrpState;
use mttkrp_parallel::{block_range, ThreadPool, Workspace};
use mttkrp_tensor::DenseTensor;

use crate::breakdown::{timed_traced, Breakdown};
use crate::plan::plan_krp;
use crate::validate_factors;

/// One mode group and the partial that serves it.
struct Group<S: Scalar> {
    /// The group's modes.
    modes: Range<usize>,
    /// The other group's factor indices in KRP order (descending).
    other_order: Vec<usize>,
    /// KRP of the other group's factors, `(Π other dims) × C`
    /// row-major. Empty when the other group is one mode: that factor
    /// is its own KRP.
    krp: Vec<S>,
    /// The group partial, `(Π group dims) × C` column-major.
    partial: Vec<S>,
}

/// Per-thread multi-TTV scratch.
struct TtvSlot<S: Scalar> {
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

/// Reusable two-group MTTKRP plan for one tensor shape, rank and team.
/// See the [module docs](self).
pub struct DimTreePlan<S: Scalar = f64> {
    dims: Vec<usize>,
    c: usize,
    threads: usize,
    /// Left (`0..s`) and right (`s..N`) groups.
    groups: [Group<S>; 2],
    /// The mode an in-sweep call may continue from without refreshing
    /// its group's partial.
    next: usize,
    krp_state: KrpState<S>,
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
        let group = |modes: Range<usize>, other: Range<usize>| {
            let total: usize = dims[modes.clone()].iter().product();
            let other_total: usize = dims[other.clone()].iter().product();
            Group {
                other_order: other.clone().rev().collect(),
                krp: vec![S::ZERO; if other.len() > 1 { other_total * c } else { 0 }],
                partial: vec![S::ZERO; total * c],
                modes,
            }
        };
        let groups = [group(0..s, s..nmodes), group(s..nmodes, 0..s)];

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
        let t = pool.num_threads();
        let nsplit = t.min(c);
        let ttv = Workspace::new(t, |tid| {
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
        });
        DimTreePlan {
            dims: dims.to_vec(),
            c,
            threads: t,
            groups,
            next: 0,
            krp_state: KrpState::new(),
            ttv,
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
    /// the KRP to `lr_krp`, the partial GEMM to `dgemm`, and every
    /// mode's multi-TTV to `dgemv`.
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
        assert_eq!(
            x.dims(),
            &self.dims[..],
            "tensor shape differs from the planned shape"
        );
        assert_eq!(
            pool.num_threads(),
            self.threads,
            "pool size differs from the planned team"
        );
        let c = validate_factors(&self.dims, factors);
        assert_eq!(c, self.c, "factor rank differs from the planned rank");
        assert!(n < self.dims.len(), "mode {n} out of range");
        assert_eq!(out.len(), self.dims[n] * c, "output must be I_n × C");

        let _span = mttkrp_obs::span!("mttkrp", mode = n);
        let total_t0 = std::time::Instant::now();
        let mut bd = Breakdown::default();
        let s = self.split();
        let g = usize::from(n >= s);
        let group = &mut self.groups[g];
        if refresh {
            let other_rows = group.other_order.iter().map(|&k| self.dims[k]).product();
            let krp = if let [k] = group.other_order[..] {
                factors[k]
            } else {
                timed_traced("krp", &mut bd.lr_krp, || {
                    plan_krp(
                        &self.kernels,
                        pool,
                        factors,
                        &group.other_order,
                        &mut self.krp_state,
                        &mut group.krp,
                        c,
                    )
                });
                MatRef::from_slice(&group.krp, other_rows, c, Layout::RowMajor)
            };
            // X(0:s−1) is (Π left dims) × (Π right dims) column-major.
            let xv = x.unfold_leading(s - 1);
            let a = if g == 0 { xv } else { xv.t() };
            let rows = a.nrows();
            timed_traced("gemm", &mut bd.dgemm, || {
                par_gemm_with(
                    &self.kernels,
                    pool,
                    1.0,
                    a,
                    krp,
                    0.0,
                    MatMut::from_slice(&mut group.partial, rows, c, Layout::ColMajor),
                )
            });
        }
        let modes = group.modes.clone();
        timed_traced("gemv", &mut bd.dgemv, || {
            multi_ttv(
                pool,
                &mut self.ttv,
                &group.partial,
                &self.dims[modes.clone()],
                n - modes.start,
                &factors[modes],
                c,
                out,
            )
        });
        self.next = n + 1;
        bd.total = total_t0.elapsed().as_secs_f64();
        bd
    }
}

/// `out ← M_n` from a group partial: column `j` of the partial, a
/// tensor over the group dims `g`, contracted with column `j` of every
/// group factor `gf` except local mode `p`. The columns are dealt
/// across the team; each thread's results land in its slot and are
/// scattered into the row-major `out` afterwards.
#[allow(clippy::too_many_arguments)]
fn multi_ttv<S: Scalar>(
    pool: &ThreadPool,
    ttv: &mut Workspace<TtvSlot<S>>,
    partial: &[S],
    g: &[usize],
    p: usize,
    gf: &[MatRef<S>],
    c: usize,
    out: &mut [S],
) {
    let total: usize = g.iter().product();
    let rows = g[p];
    pool.run_with_workspace(ttv, |_, slot| {
        for (jj, j) in slot.cols.clone().enumerate() {
            let sub = &partial[j * total..(j + 1) * total];
            let col = contract(sub, g, p, gf, j, &mut slot.v, &mut slot.a, &mut slot.b);
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
}

/// Contract the column-major tensor `sub` (dims `g`) with column `j` of
/// every factor in `gf` except local mode `p`, returning the length
/// `g[p]` result. Modes above `p` go first, highest first, as GEMVs with
/// the `(lead × g_high)` column-major reshape; then modes below `p`,
/// lowest first, through the transposed `(g_low × rest)` reshape. Every
/// step reads and writes contiguous memory, ping-ponging between `a`
/// and `b`.
#[allow(clippy::too_many_arguments)]
fn contract<'a, S: Scalar>(
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

    /// Modes 0 and `s` carry their group's KRP and partial GEMM; every
    /// mode carries its multi-TTV.
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
            assert_eq!(bd.lr_krp > 0.0, group_mode, "mode {n}: {bd:?}");
            assert!(bd.dgemv > 0.0 && bd.total >= bd.categorized(), "mode {n}");
        }
    }
}
