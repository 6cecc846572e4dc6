//! Shared fixtures plus a small in-tree timing harness for the benches
//! (ablations, kernels). Sizes are scaled down from the paper
//! (≈750M-entry tensors) so `cargo bench` completes in minutes on one
//! core; the harness binary (`mttkrp-harness`) regenerates the paper's
//! figure tables, including modeled 12-thread series.
//!
//! The bench targets are plain `harness = false` binaries driven by
//! [`BenchGroup`] — the build environment has no registry access, so
//! Criterion is replaced by a median-of-samples timer with the same
//! group/function reporting structure.

use mttkrp_blas::{Layout, MatRef};
use mttkrp_tensor::DenseTensor;
use mttkrp_workloads::{equal_dims, random_factors};

/// Rank used throughout the benches (paper: C = 25).
pub const RANK: usize = 25;

/// An equal-dims tensor plus factor matrices for MTTKRP benches.
pub struct MttkrpFixture {
    /// The dense input tensor.
    pub x: DenseTensor,
    /// Row-major `I_n × C` factors.
    pub factors: Vec<Vec<f64>>,
    /// Tensor dimensions.
    pub dims: Vec<usize>,
}

impl MttkrpFixture {
    /// Build an order-`nmodes` fixture with ≈`entries` total entries.
    pub fn equal(nmodes: usize, entries: usize) -> Self {
        let dims = equal_dims(nmodes, entries);
        Self::with_dims(&dims)
    }

    /// Fixture with explicit dimensions (fMRI shapes).
    pub fn with_dims(dims: &[usize]) -> Self {
        let mut k = 9u64;
        let x = DenseTensor::from_fn(dims, || {
            k = k
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((k >> 40) as f64) * 2e-8 - 0.5
        });
        let factors = random_factors(dims, RANK, 17);
        MttkrpFixture {
            x,
            factors,
            dims: dims.to_vec(),
        }
    }

    /// Borrowed factor views.
    pub fn refs(&self) -> Vec<MatRef<'_>> {
        self.factors
            .iter()
            .zip(&self.dims)
            .map(|(f, &d)| MatRef::from_slice(f, d, RANK, Layout::RowMajor))
            .collect()
    }
}

/// Wall-time statistics of repeated calls of one function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleStats {
    /// Median of the measured wall times (seconds).
    pub median: f64,
    /// Fastest measured run (seconds) — the least-noise estimate,
    /// which is what calibration microbenchmarks want.
    pub min: f64,
    /// Slowest measured run (seconds).
    pub max: f64,
    /// Number of measured runs (excluding the warm-up).
    pub samples: usize,
}

/// Time `f`: one unmeasured warm-up call (faults pages, fills
/// thread-local pack buffers), then `samples` measured calls. The
/// shared timer under both [`BenchGroup`] and the `mttkrp-tune`
/// calibration microbenchmarks.
pub fn sample_stats(samples: usize, mut f: impl FnMut()) -> SampleStats {
    let samples = samples.max(1);
    f(); // warm-up
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    SampleStats {
        median: times[times.len() / 2],
        min: times[0],
        max: times[times.len() - 1],
        samples,
    }
}

/// Fastest wall time of `samples` measured calls of `f` (one warm-up).
pub fn sample_min(samples: usize, f: impl FnMut()) -> f64 {
    sample_stats(samples, f).min
}

/// A named group of timed benchmark functions (the in-tree stand-in for
/// `criterion::BenchmarkGroup`).
///
/// Each function is warmed up once, then run `samples` times; the
/// median, minimum, and maximum wall times are printed as one CSV-ish
/// line `group/name,median_s,min_s,max_s,samples`. Sample count
/// defaults to 5 and can be overridden with `MTTKRP_BENCH_SAMPLES`.
pub struct BenchGroup {
    name: String,
    samples: usize,
}

impl BenchGroup {
    /// Start a group; prints a header line.
    pub fn new(name: impl Into<String>) -> Self {
        let samples = std::env::var("MTTKRP_BENCH_SAMPLES")
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|&n: &usize| n > 0)
            .unwrap_or(5);
        let name = name.into();
        println!("## {name} ({samples} samples)");
        BenchGroup { name, samples }
    }

    /// Time `f`: one warm-up call, then `samples` measured calls.
    pub fn bench(&self, fn_name: &str, f: impl FnMut()) {
        let s = sample_stats(self.samples, f);
        println!(
            "{}/{fn_name},{:.6},{:.6},{:.6},{}",
            self.name, s.median, s.min, s.max, s.samples,
        );
    }
}
