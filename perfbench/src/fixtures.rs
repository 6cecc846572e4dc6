//! Seeded fixture files, generated outside every timed region.
//!
//! Each (workload, seed) gets one directory under [`CACHE_DIR`] in the
//! working directory, reused by every later run with that seed. Files
//! are written into a temporary directory that is renamed into place
//! only when complete. Directories of other seeds of the same workload
//! are removed first, so the cache holds one seed per workload. The
//! generators' buffers are kept out of `peak_rss_mb` by
//! [`crate::host::reset_peak_rss`], not here.

use std::io;
use std::path::{Path, PathBuf};

use mttkrp_ooc::{TileStore, TiledLayout};
use mttkrp_workloads::{random_sparse, random_tensor, write_sparse, write_tensor, FmriConfig};

use crate::Workload;

pub const CACHE_DIR: &str = ".perfbench-cache";

pub const CUBIC3_DIMS: [usize; 3] = [200, 200, 200];
pub const CUBIC3_RANK: usize = 25;

pub const FMRI4_RANK: usize = 12;

/// The paper's application tensor, time × subjects × regions × regions
/// = 225 × 59 × 32 × 32, from the seeded fMRI generator.
pub fn fmri_config(seed: u64) -> FmriConfig {
    FmriConfig {
        time: 225,
        subjects: 59,
        regions: 32,
        latent: FMRI4_RANK,
        window: 20,
        seed,
    }
}

pub const MIX_RANK: usize = 16;
pub const MIX_DENSE_DIMS: [usize; 3] = [96, 80, 64];
pub const MIX_SPARSE_DIMS: [usize; 3] = [300, 250, 200];
pub const MIX_SPARSE_NNZ: usize = 240_000;
pub const MIX_OOC_DIMS: [usize; 3] = [128, 96, 80];
/// Half of every extent: a 2 × 2 × 2 grid of 8 tiles.
pub const MIX_OOC_TILE: [usize; 3] = [64, 48, 40];

/// The files one workload reads.
pub fn files(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::Cubic3 => &["cubic3.mtkt"],
        Workload::Fmri4 => &["fmri4.mtkt"],
        Workload::DaemonMix => &["dense.mtkt", "sparse.mtks", "ooc.mttb"],
    }
}

/// Write `w`'s fixtures for `seed` into `dir`.
fn generate(w: Workload, seed: u64, dir: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    match w {
        Workload::Cubic3 => {
            write_tensor(dir.join("cubic3.mtkt"), &random_tensor(&CUBIC3_DIMS, seed))
        }
        Workload::Fmri4 => {
            let x = fmri_config(seed).generate_4way().cast::<f32>();
            write_tensor(dir.join("fmri4.mtkt"), &x)
        }
        Workload::DaemonMix => {
            write_tensor(
                dir.join("dense.mtkt"),
                &random_tensor(&MIX_DENSE_DIMS, seed),
            )?;
            let coo = random_sparse(&MIX_SPARSE_DIMS, MIX_SPARSE_NNZ, seed);
            write_sparse(dir.join("sparse.mtks"), &coo)?;
            let layout = TiledLayout::new(&MIX_OOC_DIMS, &MIX_OOC_TILE);
            let x = random_tensor(&MIX_OOC_DIMS, seed ^ 0x00C0);
            TileStore::write_dense(dir.join("ooc.mttb"), &layout, &x).map(drop)
        }
    }
}

/// The fixture directory of (`w`, `seed`), generating it on first use.
pub fn ensure(w: Workload, seed: u64) -> io::Result<PathBuf> {
    let root = Path::new(CACHE_DIR);
    let name = format!("{}-{seed}", w.name());
    let dir = root.join(&name);
    if dir.is_dir() {
        return Ok(dir);
    }
    std::fs::create_dir_all(root)?;
    let prefix = format!("{}-", w.name());
    for entry in std::fs::read_dir(root)? {
        let path = entry?.path();
        let stale = path
            .file_name()
            .and_then(|f| f.to_str())
            .is_some_and(|f| f.starts_with(&prefix));
        if stale {
            std::fs::remove_dir_all(&path)?;
        }
    }
    let tmp = root.join(format!("{name}.tmp"));
    generate(w, seed, &tmp)
        .map_err(|e| io::Error::other(format!("fixture generation for {name} failed: {e}")))?;
    std::fs::rename(&tmp, &dir)?;
    Ok(dir)
}

/// `(file, bytes)` of every fixture of `w` in `dir`.
pub fn sizes(w: Workload, dir: &Path) -> io::Result<Vec<(String, u64)>> {
    files(w)
        .iter()
        .map(|f| Ok((f.to_string(), std::fs::metadata(dir.join(f))?.len())))
        .collect()
}
