//! The out-of-core tensor and its streaming MTTKRP plans.
//!
//! [`OocTensor`] implements [`MttkrpBackend`], so `cp_als` /
//! `cp_gradient` run unchanged on a tensor that never fully
//! materializes: the mode-`n` MTTKRP decomposes over tiles,
//!
//! ```text
//! M[o_n .. o_n+s_n, :] += MTTKRP_n( X_tile, U_0[o_0..], …, U_{N−1}[o_{N−1}..] )
//! ```
//!
//! — each tile is a small dense tensor whose MTTKRP against the
//! row-sliced factors is exactly the planned dense kernel of
//! `mttkrp-core` (1-step/2-step, SIMD `KernelSet`, per-thread
//! accumulators merged through the element-range reduction). The
//! [`OocMttkrpPlanSet`] mirrors the dense/sparse plan split: per mode,
//! one pre-built [`MttkrpPlan`] per distinct tile *shape* (at most
//! `2^N`, from remainder chunks), plus a shared tile-output scratch.
//!
//! Streaming overlaps I/O with compute: a dedicated I/O thread owns its
//! own file handle and prefetches tile `k+1` into the second half of a
//! double buffer while the pool runs tile `k`'s MTTKRP. The two
//! [`TileBuf`]s ping-pong between the threads over channels, so peak
//! resident tensor bytes are **2 tiles + workspaces** — instrumented by
//! [`crate::metrics`], bounded by the budget that picked the tile grid.

use std::io;
use std::path::Path;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

use mttkrp_blas::{axpy, MatRef};
use mttkrp_core::{AlgoChoice, Breakdown, MttkrpBackend, MttkrpPlan};
use mttkrp_parallel::ThreadPool;
use mttkrp_tensor::DenseTensor;

use crate::layout::TiledLayout;
use crate::metrics::TileBuf;
use crate::store::{TileReader, TileStore};

/// A disk-resident dense tensor: an opened [`TileStore`] plus the
/// cached Frobenius norm (computed in one streaming pass at open).
#[derive(Debug)]
pub struct OocTensor {
    store: TileStore,
    norm: f64,
}

impl OocTensor {
    /// Open a tile store as a decomposable tensor. Streams every tile
    /// once to cache the Frobenius norm (one tile buffer resident).
    pub fn open(path: impl AsRef<Path>) -> io::Result<OocTensor> {
        Self::from_store(TileStore::open(path)?)
    }

    /// Wrap an already opened store.
    pub fn from_store(store: TileStore) -> io::Result<OocTensor> {
        let layout = store.layout().clone();
        let mut reader = store.reader()?;
        let mut buf = TileBuf::new(layout.max_tile_entries());
        let mut sumsq = 0.0;
        for t in 0..layout.ntiles() {
            let v = buf.vec_mut();
            v.resize(layout.tile_entries(t), 0.0);
            reader.read_tile_into(t, v)?;
            sumsq += v.iter().map(|&x| x * x).sum::<f64>();
        }
        Ok(OocTensor {
            store,
            norm: sumsq.sqrt(),
        })
    }

    /// The underlying store.
    #[inline]
    pub fn store(&self) -> &TileStore {
        &self.store
    }

    /// The tile geometry.
    #[inline]
    pub fn layout(&self) -> &TiledLayout {
        self.store.layout()
    }

    /// Tensor dimensions.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.layout().dims()
    }

    /// Cached Frobenius norm.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.norm
    }
}

/// Request to the prefetch thread: fill `buf` with tile `tile`.
struct FillReq {
    tile: usize,
    buf: TileBuf,
}

/// The I/O half of the double buffer: a thread owning a private
/// [`TileReader`], receiving fill requests and returning filled
/// buffers. Dropping the engine closes the request channel, which ends
/// the thread; the handle is joined to surface panics.
struct PrefetchEngine {
    req_tx: Option<Sender<FillReq>>,
    resp_rx: Receiver<io::Result<(usize, TileBuf)>>,
    handle: Option<JoinHandle<()>>,
}

impl PrefetchEngine {
    fn spawn(mut reader: TileReader) -> PrefetchEngine {
        let (req_tx, req_rx) = channel::<FillReq>();
        let (resp_tx, resp_rx) = channel::<io::Result<(usize, TileBuf)>>();
        let handle = std::thread::Builder::new()
            .name("mttkrp-ooc-prefetch".into())
            .spawn(move || {
                while let Ok(FillReq { tile, mut buf }) = req_rx.recv() {
                    // Recorded on this thread's own span buffer, so the
                    // trace timeline shows reads running concurrently
                    // with the compute thread's tile spans.
                    let span = mttkrp_obs::span!("tile_read", tile = tile);
                    let entries = reader.layout().tile_entries(tile);
                    let v = buf.vec_mut();
                    v.resize(entries, 0.0);
                    let res = reader.read_tile_into(tile, v).map(|()| (tile, buf));
                    // End the span before the send, so it closes before
                    // the compute thread's `tile_wait` can return.
                    drop(span);
                    if resp_tx.send(res).is_err() {
                        break;
                    }
                }
            })
            .expect("failed to spawn the OOC prefetch thread");
        PrefetchEngine {
            req_tx: Some(req_tx),
            resp_rx,
            handle: Some(handle),
        }
    }

    fn request(&self, tile: usize, buf: TileBuf) {
        self.req_tx
            .as_ref()
            .expect("prefetch engine already shut down")
            .send(FillReq { tile, buf })
            .expect("OOC prefetch thread exited unexpectedly");
    }

    fn receive(&self) -> (usize, TileBuf) {
        self.resp_rx
            .recv()
            .expect("OOC prefetch thread exited unexpectedly")
            .unwrap_or_else(|e| panic!("out-of-core tile read failed: {e}"))
    }
}

impl Drop for PrefetchEngine {
    fn drop(&mut self) {
        drop(self.req_tx.take()); // closes the request channel
        while self.resp_rx.try_recv().is_ok() {} // drain in-flight buffers
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Per-mode kernels: one planned dense MTTKRP per distinct tile shape,
/// indexed by the layout's shape mask.
struct ModePlans {
    /// `plans[mask]` is `Some` for every achievable mask.
    plans: Vec<Option<MttkrpPlan>>,
}

/// Reusable out-of-core MTTKRP execution state for every mode of one
/// store: the tile-shape plan table, the double buffer, the prefetch
/// thread, and the tile-output scratch. Built once per (store, rank,
/// team) by [`MttkrpBackend::plan_modes`] and carried across CP-ALS
/// sweeps, like the dense [`mttkrp_core::MttkrpPlanSet`].
pub struct OocMttkrpPlanSet {
    layout: TiledLayout,
    c: usize,
    threads: usize,
    modes: Vec<ModePlans>,
    /// Tile-output scratch (`max_n tile[n] · C`).
    tile_out: Vec<f64>,
    /// The two halves of the double buffer, parked between executions.
    bufs: [Option<TileBuf>; 2],
    engine: PrefetchEngine,
    /// Seconds the last execution spent blocked on tile I/O (prefetch
    /// misses); `0` means compute fully hid the I/O.
    last_io_wait: f64,
}

impl OocMttkrpPlanSet {
    /// Plan every mode of `x` at rank `c` on `pool`'s team.
    ///
    /// `choice` follows the dense meaning; `None` (the explicit
    /// baseline, which has no out-of-core formulation — it would
    /// materialize the matricization) falls back to
    /// [`AlgoChoice::Tuned`] planned kernels: with a loaded tuning
    /// profile every distinct tile shape is priced by the calibrated
    /// cost model, and without one `Tuned` is exactly the paper's
    /// heuristic.
    pub fn new(
        pool: &ThreadPool,
        x: &OocTensor,
        c: usize,
        choice: Option<AlgoChoice>,
    ) -> OocMttkrpPlanSet {
        assert!(c > 0, "rank must be positive");
        let layout = x.layout().clone();
        assert!(layout.order() >= 2, "MTTKRP requires an order >= 2 tensor");
        let choice = choice.unwrap_or(AlgoChoice::Tuned);
        let masks = layout.achievable_masks();
        let nmasks = 1usize << layout.order();
        let modes = (0..layout.order())
            .map(|n| {
                let mut plans: Vec<Option<MttkrpPlan>> = (0..nmasks).map(|_| None).collect();
                for &m in &masks {
                    let shape = layout.mask_shape(m);
                    plans[m] = Some(MttkrpPlan::new(pool, &shape, c, n, choice));
                }
                ModePlans { plans }
            })
            .collect();
        let max_out = layout
            .tile_dims()
            .iter()
            .max()
            .copied()
            .expect("at least one mode")
            * c;
        let engine = PrefetchEngine::spawn(
            x.store()
                .reader()
                .unwrap_or_else(|e| panic!("cannot reopen tile store for prefetch: {e}")),
        );
        OocMttkrpPlanSet {
            threads: pool.num_threads(),
            c,
            modes,
            tile_out: vec![0.0; max_out],
            bufs: [
                Some(TileBuf::new(layout.max_tile_entries())),
                Some(TileBuf::new(layout.max_tile_entries())),
            ],
            layout,
            engine,
            last_io_wait: 0.0,
        }
    }

    /// Decomposition rank the plans were built for.
    #[inline]
    pub fn rank(&self) -> usize {
        self.c
    }

    /// The kernel tier the tile plans dispatch to.
    pub fn kernel_tier(&self) -> mttkrp_blas::KernelTier {
        self.modes[0]
            .plans
            .iter()
            .flatten()
            .next()
            .expect("at least one achievable tile shape")
            .kernel_tier()
    }

    /// Seconds the most recent execution spent blocked waiting for
    /// tile reads — the part of the I/O the compute did *not* hide.
    #[inline]
    pub fn last_io_wait(&self) -> f64 {
        self.last_io_wait
    }

    /// Execute the streaming mode-`n` MTTKRP: `out ← X(n) · (⊙_{k≠n}
    /// U_k)`, row-major `I_n × C`, overwritten. Tiles flow through the
    /// double buffer in id order; tile `k+1` prefetches during tile
    /// `k`'s compute.
    pub fn execute_timed(
        &mut self,
        pool: &ThreadPool,
        factors: &[MatRef<'_>],
        n: usize,
        out: &mut [f64],
    ) -> Breakdown {
        let dims = self.layout.dims().to_vec();
        let c = self.c;
        assert!(n < dims.len(), "mode {n} out of range");
        assert_eq!(
            pool.num_threads(),
            self.threads,
            "pool size differs from the planned team"
        );
        assert_eq!(
            factors.len(),
            dims.len(),
            "one factor matrix per tensor mode"
        );
        for (k, (f, &d)) in factors.iter().zip(&dims).enumerate() {
            assert_eq!(f.nrows(), d, "factor {k} must have I_{k} rows");
            assert_eq!(f.ncols(), c, "factor {k} must have C columns");
        }
        assert_eq!(out.len(), dims[n] * c, "output must be I_n × C");

        let _span = mttkrp_obs::span!("ooc_mttkrp", mode = n);
        let wall_t0 = Instant::now();
        let mut bd = Breakdown::default();
        let mut io_wait = 0.0;
        out.fill(0.0);

        let nt = self.layout.ntiles();
        let mut spare = Some(self.bufs[1].take().expect("double buffer half missing"));
        let mut parked: Option<TileBuf> = None;
        self.engine
            .request(0, self.bufs[0].take().expect("double buffer half missing"));
        let mut srefs: Vec<MatRef> = Vec::with_capacity(dims.len());
        for k in 0..nt {
            let t0 = Instant::now();
            let (tile_id, mut buf) = {
                let _wait_span = mttkrp_obs::span_full!("tile_wait", tile = k);
                self.engine.receive()
            };
            io_wait += t0.elapsed().as_secs_f64();
            debug_assert_eq!(tile_id, k, "tiles must arrive in request order");
            let free = spare.take().expect("double buffer half missing");
            if k + 1 < nt {
                self.engine.request(k + 1, free);
            } else {
                // Last tile: nothing left to prefetch into the other
                // half; park it for the next execution.
                parked = Some(free);
            }

            let shape = self.layout.tile_shape(k);
            let offs = self.layout.tile_offset(k);
            let mask = self.layout.shape_mask(k);
            let plan = self.modes[n].plans[mask]
                .as_mut()
                .expect("achievable mask has a plan");
            let tile = DenseTensor::from_vec(&shape, buf.take_vec());
            srefs.clear();
            srefs.extend(
                factors
                    .iter()
                    .enumerate()
                    .map(|(m, f)| f.submatrix(offs[m], 0, shape[m], c)),
            );
            let rows = shape[n] * c;
            let tile_bd = {
                let _compute_span = mttkrp_obs::span_full!("tile_compute", tile = k);
                plan.execute_timed(pool, &tile, &srefs, &mut self.tile_out[..rows])
            };
            bd.accumulate_phases(&tile_bd);
            // Accumulate into the owned output row block (tiles sharing
            // a mode-n chunk share rows; the block is contiguous
            // because out is row-major I_n × C).
            let o = offs[n] * c;
            axpy(1.0, &self.tile_out[..rows], &mut out[o..o + rows]);
            buf.put_vec(tile.into_vec());
            spare = Some(buf);
        }
        // Park both halves for the next execution.
        self.bufs[0] = Some(spare.expect("double buffer half missing"));
        self.bufs[1] = Some(parked.expect("double buffer half missing"));

        self.last_io_wait = io_wait;
        mttkrp_obs::counter!("ooc.io_wait_ns").add((io_wait * 1e9) as u64);
        mttkrp_obs::counter!("ooc.tiles_read").add(nt as u64);
        bd.total = wall_t0.elapsed().as_secs_f64();
        bd
    }

    /// [`OocMttkrpPlanSet::execute_timed`] without the breakdown.
    pub fn execute(
        &mut self,
        pool: &ThreadPool,
        factors: &[MatRef<'_>],
        n: usize,
        out: &mut [f64],
    ) {
        let _ = self.execute_timed(pool, factors, n, out);
    }
}

impl MttkrpBackend for OocTensor {
    type Elem = f64;
    type PlanSet = OocMttkrpPlanSet;

    fn dims(&self) -> &[usize] {
        OocTensor::dims(self)
    }

    fn norm(&self) -> f64 {
        OocTensor::norm(self)
    }

    fn plan_modes(
        &self,
        pool: &ThreadPool,
        c: usize,
        choice: Option<AlgoChoice>,
    ) -> OocMttkrpPlanSet {
        OocMttkrpPlanSet::new(pool, self, c, choice)
    }

    fn mttkrp_planned(
        &self,
        plans: &mut OocMttkrpPlanSet,
        pool: &ThreadPool,
        factors: &[MatRef<'_>],
        n: usize,
        out: &mut [f64],
    ) -> Breakdown {
        assert_eq!(
            plans.layout.dims(),
            self.dims(),
            "plan set was built for a different shape"
        );
        plans.execute_timed(pool, factors, n, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mttkrp_blas::Layout;
    use mttkrp_core::mttkrp_oracle;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "mttkrp_ooc_tensor_{name}_{}.mttb",
            std::process::id()
        ))
    }

    fn rand_tensor(dims: &[usize], seed: u64) -> DenseTensor {
        let mut rng = mttkrp_rng::Rng64::seed_from_u64(seed);
        DenseTensor::from_fn(dims, || rng.next_f64() - 0.5)
    }

    fn rand_factors(dims: &[usize], c: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = mttkrp_rng::Rng64::seed_from_u64(seed);
        dims.iter()
            .map(|&d| (0..d * c).map(|_| rng.next_f64() - 0.5).collect())
            .collect()
    }

    #[test]
    fn streaming_mttkrp_matches_oracle() {
        let dims = [7usize, 5, 6];
        let c = 3;
        let x = rand_tensor(&dims, 11);
        let factors = rand_factors(&dims, c, 12);
        let refs: Vec<MatRef> = factors
            .iter()
            .zip(&dims)
            .map(|(f, &d)| MatRef::from_slice(f, d, c, Layout::RowMajor))
            .collect();
        let path = tmp("oracle");
        let layout = TiledLayout::new(&dims, &[3, 2, 4]);
        let store = TileStore::write_dense(&path, &layout, &x).unwrap();
        let ooc = OocTensor::from_store(store).unwrap();
        assert!((ooc.norm() - x.norm()).abs() < 1e-12 * (1.0 + x.norm()));

        for t in [1usize, 3] {
            let pool = ThreadPool::new(t);
            let mut plans = ooc.plan_modes(&pool, c, Some(AlgoChoice::Heuristic));
            for n in 0..dims.len() {
                let mut want = vec![0.0; dims[n] * c];
                mttkrp_oracle(&x, &refs, n, &mut want);
                let mut got = vec![f64::NAN; dims[n] * c];
                let bd = ooc.mttkrp_planned(&mut plans, &pool, &refs, n, &mut got);
                assert!(bd.total > 0.0);
                for (a, b) in got.iter().zip(&want) {
                    assert!(
                        (a - b).abs() < 1e-12 * (1.0 + b.abs()),
                        "t={t} n={n}: {a} vs {b}"
                    );
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn single_tile_store_works() {
        // Degenerate grid: the whole tensor is one tile; the double
        // buffer's second half stays parked.
        let dims = [4usize, 3];
        let c = 2;
        let x = rand_tensor(&dims, 5);
        let factors = rand_factors(&dims, c, 6);
        let refs: Vec<MatRef> = factors
            .iter()
            .zip(&dims)
            .map(|(f, &d)| MatRef::from_slice(f, d, c, Layout::RowMajor))
            .collect();
        let path = tmp("single");
        let layout = TiledLayout::new(&dims, &dims);
        let store = TileStore::write_dense(&path, &layout, &x).unwrap();
        let ooc = OocTensor::from_store(store).unwrap();
        let pool = ThreadPool::new(2);
        let mut plans = ooc.plan_modes(&pool, c, None);
        for n in 0..2 {
            let mut want = vec![0.0; dims[n] * c];
            mttkrp_oracle(&x, &refs, n, &mut want);
            let mut got = vec![f64::NAN; dims[n] * c];
            plans.execute(&pool, &refs, n, &mut got);
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-12 * (1.0 + b.abs()), "n={n}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn repeated_execution_is_stable() {
        let dims = [5usize, 4, 3];
        let c = 2;
        let x = rand_tensor(&dims, 21);
        let factors = rand_factors(&dims, c, 22);
        let refs: Vec<MatRef> = factors
            .iter()
            .zip(&dims)
            .map(|(f, &d)| MatRef::from_slice(f, d, c, Layout::RowMajor))
            .collect();
        let path = tmp("stable");
        let layout = TiledLayout::new(&dims, &[2, 2, 2]);
        let ooc =
            OocTensor::from_store(TileStore::write_dense(&path, &layout, &x).unwrap()).unwrap();
        let pool = ThreadPool::new(1);
        let mut plans = OocMttkrpPlanSet::new(&pool, &ooc, c, Some(AlgoChoice::Heuristic));
        let mut first = vec![0.0; dims[1] * c];
        plans.execute(&pool, &refs, 1, &mut first);
        for _ in 0..3 {
            let mut again = vec![f64::NAN; dims[1] * c];
            plans.execute(&pool, &refs, 1, &mut again);
            assert_eq!(first, again, "drift across executions");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "pool size differs")]
    fn wrong_pool_size_panics() {
        let dims = [4usize, 3];
        let x = rand_tensor(&dims, 1);
        let path = tmp("pool");
        let layout = TiledLayout::new(&dims, &[2, 2]);
        let ooc =
            OocTensor::from_store(TileStore::write_dense(&path, &layout, &x).unwrap()).unwrap();
        let mut plans = OocMttkrpPlanSet::new(&ThreadPool::new(2), &ooc, 2, None);
        std::fs::remove_file(&path).ok();
        let factors = rand_factors(&dims, 2, 2);
        let refs: Vec<MatRef> = factors
            .iter()
            .zip(&dims)
            .map(|(f, &d)| MatRef::from_slice(f, d, 2, Layout::RowMajor))
            .collect();
        let mut out = vec![0.0; 8];
        plans.execute(&ThreadPool::new(3), &refs, 0, &mut out);
    }
}
