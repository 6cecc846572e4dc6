//! The file-backed tile store — `MTTB`, the on-disk format of
//! out-of-core tensors.
//!
//! Layout (all little-endian):
//!
//! ```text
//! b"MTTB" u32(version=1) u32(ndims)
//! u64(dim)*ndims  u64(tile_dim)*ndims  u64(ntiles)
//! u64(file offset of tile t)*ntiles
//! f64(entry)* — tiles in id order, each in its own natural
//!               linearization (mode 0 fastest within the tile)
//! ```
//!
//! Tile offsets are fully determined by the geometry, so the header is
//! written up-front and tiles stream through a [`std::io::BufWriter`]
//! in id order — building a store never holds more than one tile in
//! memory ([`TileStore::write_with`] generates fixtures bigger than any
//! budget straight from a closure). Reads are positioned per tile; the
//! stored offsets are redundant with the geometry **on purpose**: the
//! reader recomputes them and rejects any mismatch, alongside
//! bad-magic, bad-version, zero/oversized extents, overflowing shape
//! products, truncation, and trailing garbage.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use mttkrp_blas::Scalar;
use mttkrp_tensor::DenseTensor;

use crate::layout::TiledLayout;
use crate::metrics::TileBuf;

const MAGIC: &[u8; 4] = b"MTTB";
const VERSION: u32 = 1;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Bytes before the first tile for a given geometry (`None` if the
/// header itself overflows u64 — only reachable from forged input).
fn header_len(ndims: usize, ntiles: usize) -> Option<u64> {
    (ntiles as u64)
        .checked_mul(8)?
        .checked_add(12 + 16 * ndims as u64 + 8)
}

/// The expected absolute file offset of every tile (in id order) plus
/// the total file length. All arithmetic is checked: a forged header
/// whose payload exceeds u64 bytes must surface as `None` (rejected by
/// the caller), not wrap into a self-consistent-looking geometry.
fn expected_offsets(layout: &TiledLayout) -> Option<(Vec<u64>, u64)> {
    let mut offsets = Vec::with_capacity(layout.ntiles());
    let mut pos = header_len(layout.order(), layout.ntiles())?;
    for t in 0..layout.ntiles() {
        offsets.push(pos);
        pos = pos.checked_add((layout.tile_entries(t) as u64).checked_mul(8)?)?;
    }
    Some((offsets, pos))
}

/// A validated, opened tile store: geometry plus per-tile offsets.
/// Cheap to hold (no tile data); create [`TileReader`]s for I/O — each
/// reader owns its own file handle, so the prefetch thread and the
/// opening thread never share a seek position.
#[derive(Debug)]
pub struct TileStore {
    path: PathBuf,
    layout: TiledLayout,
    offsets: Vec<u64>,
}

impl TileStore {
    /// Open and validate a store.
    ///
    /// # Example
    ///
    /// ```
    /// use mttkrp_ooc::{TileStore, TiledLayout};
    /// use mttkrp_tensor::DenseTensor;
    ///
    /// let dims = [6usize, 5, 4];
    /// let x = DenseTensor::from_fn(&dims, {
    ///     let mut k = 0.0;
    ///     move || { k += 1.0; k }
    /// });
    /// let layout = TiledLayout::new(&dims, &[3, 5, 2]);
    /// let path = std::env::temp_dir().join("doctest-open.mttb");
    /// TileStore::write_dense(&path, &layout, &x)?;
    ///
    /// // Reopening re-validates the whole header: geometry, tile
    /// // offsets, and total file length.
    /// let store = TileStore::open(&path)?;
    /// assert_eq!(store.layout().dims(), &dims);
    /// assert_eq!(store.layout().ntiles(), 2 * 1 * 2);
    /// let mut reader = store.reader()?;
    /// let mut tile = vec![0.0; store.layout().tile_entries(0)];
    /// reader.read_tile_into(0, &mut tile)?;
    /// assert_eq!(tile[0], x.get(&[0, 0, 0]));
    /// # std::fs::remove_file(&path).ok();
    /// # Ok::<(), std::io::Error>(())
    /// ```
    pub fn open(path: impl AsRef<Path>) -> io::Result<TileStore> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)?;
        let file_len = file.metadata()?.len();
        let mut r = BufReader::new(file);

        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)
            .map_err(|_| bad("not a tile store (truncated magic)"))?;
        if &magic != MAGIC {
            return Err(bad("not a tile store (bad magic)"));
        }
        if read_u32(&mut r)? != VERSION {
            return Err(bad("unsupported tile store version"));
        }
        let ndims = read_u32(&mut r)? as usize;
        if ndims == 0 {
            return Err(bad("tile store with zero modes"));
        }
        // Nothing is allocated until the header is known to fit the
        // file: a forged mode or tile count must not size a vector.
        let fits = |ntiles| header_len(ndims, ntiles).is_some_and(|h| h <= file_len);
        if !fits(0) {
            return Err(bad(format!(
                "tile store header of {ndims} modes exceeds the {file_len}-byte file"
            )));
        }
        let mut dims = Vec::new();
        for _ in 0..ndims {
            let d = read_u64(&mut r)? as usize;
            if d == 0 {
                return Err(bad("zero-length tensor mode"));
            }
            dims.push(d);
        }
        let mut tile = Vec::new();
        for (n, &d) in dims.iter().enumerate() {
            let t = read_u64(&mut r)? as usize;
            if t == 0 || t > d {
                return Err(bad(format!("tile extent {t} invalid for mode {n} ({d})")));
            }
            tile.push(t);
        }
        // Checked products before DimInfo construction: forged shapes
        // must fail cleanly, not panic.
        dims.iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or_else(|| bad("tensor shape overflows"))?;
        dims.iter()
            .zip(&tile)
            .try_fold(1usize, |acc, (&d, &t)| acc.checked_mul(d.div_ceil(t)))
            .ok_or_else(|| bad("tile count overflows"))?;
        let layout = TiledLayout::new(&dims, &tile);
        if !fits(layout.ntiles()) {
            return Err(bad(format!(
                "tile store header of {} tiles exceeds the {file_len}-byte file",
                layout.ntiles()
            )));
        }
        let ntiles = read_u64(&mut r)? as usize;
        if ntiles != layout.ntiles() {
            return Err(bad(format!(
                "tile count {ntiles} disagrees with the {}-tile geometry",
                layout.ntiles()
            )));
        }
        let (want, expected_len) =
            expected_offsets(&layout).ok_or_else(|| bad("tile store byte size overflows"))?;
        let mut offsets = Vec::with_capacity(ntiles);
        for (t, &w) in want.iter().enumerate() {
            let o = read_u64(&mut r)?;
            if o != w {
                return Err(bad(format!(
                    "tile {t} offset {o} disagrees with geometry ({w})"
                )));
            }
            offsets.push(o);
        }
        if file_len != expected_len {
            return Err(bad(format!(
                "tile store length mismatch: file is {file_len} bytes, geometry needs {expected_len}"
            )));
        }
        Ok(TileStore {
            path,
            layout,
            offsets,
        })
    }

    /// Quick magic sniff: does `path` start with the `MTTB` magic?
    pub fn is_tile_store(path: impl AsRef<Path>) -> bool {
        let mut magic = [0u8; 4];
        File::open(path)
            .and_then(|mut f| f.read_exact(&mut magic))
            .map(|()| &magic == MAGIC)
            .unwrap_or(false)
    }

    /// The store's tile geometry.
    #[inline]
    pub fn layout(&self) -> &TiledLayout {
        &self.layout
    }

    /// The backing file.
    #[inline]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total tensor bytes on disk (payload only).
    pub fn payload_bytes(&self) -> u64 {
        8 * self.layout.dim_info().total() as u64
    }

    /// Open a positioned reader (own file handle).
    pub fn reader(&self) -> io::Result<TileReader> {
        Ok(TileReader {
            file: File::open(&self.path)?,
            layout: self.layout.clone(),
            offsets: self.offsets.clone(),
        })
    }

    /// Stream a dense tensor into a new store at `path`.
    pub fn write_dense(
        path: impl AsRef<Path>,
        layout: &TiledLayout,
        x: &DenseTensor,
    ) -> io::Result<TileStore> {
        assert_eq!(x.dims(), layout.dims(), "tensor shape must match layout");
        let mut b = TileStoreBuilder::create(&path, layout.clone())?;
        let mut buf = TileBuf::new(layout.max_tile_entries());
        for t in 0..layout.ntiles() {
            let v = buf.vec_mut();
            v.resize(layout.tile_entries(t), 0.0);
            x.gather_block(&layout.tile_offset(t), &layout.tile_shape(t), v);
            b.write_tile(v)?;
        }
        drop(buf);
        b.finish()?;
        TileStore::open(path)
    }

    /// Stream a generated tensor into a new store at `path`: `f` is
    /// called once per entry with its **global** multi-index. Only one
    /// tile buffer is ever resident, so fixtures far larger than any
    /// memory budget can be produced without materializing them.
    pub fn write_with(
        path: impl AsRef<Path>,
        layout: &TiledLayout,
        mut f: impl FnMut(&[usize]) -> f64,
    ) -> io::Result<TileStore> {
        let mut b = TileStoreBuilder::create(&path, layout.clone())?;
        let mut buf = TileBuf::new(layout.max_tile_entries());
        let mut global = vec![0usize; layout.order()];
        for t in 0..layout.ntiles() {
            let off = layout.tile_offset(t);
            let info = layout.tile_info(t);
            let v = buf.vec_mut();
            v.resize(info.total(), 0.0);
            let mut local = vec![0usize; layout.order()];
            for slot in v.iter_mut() {
                for (g, (&o, &l)) in global.iter_mut().zip(off.iter().zip(&local)) {
                    *g = o + l;
                }
                *slot = f(&global);
                info.increment(&mut local);
            }
            b.write_tile(v)?;
        }
        drop(buf);
        b.finish()?;
        TileStore::open(path)
    }

    /// Reassemble the whole tensor in memory (testing / small stores;
    /// defeats the point for anything budget-sized).
    pub fn read_dense(&self) -> io::Result<DenseTensor> {
        let mut x = DenseTensor::zeros(self.layout.dims());
        let mut r = self.reader()?;
        let mut buf = TileBuf::new(self.layout.max_tile_entries());
        for t in 0..self.layout.ntiles() {
            let v = buf.vec_mut();
            v.resize(self.layout.tile_entries(t), 0.0);
            r.read_tile_into(t, v)?;
            x.scatter_block(&self.layout.tile_offset(t), &self.layout.tile_shape(t), v);
        }
        Ok(x)
    }
}

/// A positioned per-tile reader over one open file handle.
#[derive(Debug)]
pub struct TileReader {
    file: File,
    layout: TiledLayout,
    offsets: Vec<u64>,
}

impl TileReader {
    /// Read tile `t` into `buf` (exactly the tile's entry count).
    ///
    /// Returns `InvalidData` for an out-of-range tile id; `buf` length
    /// mismatches panic (caller bug, not file corruption).
    pub fn read_tile_into(&mut self, t: usize, buf: &mut [f64]) -> io::Result<()> {
        if t >= self.layout.ntiles() {
            return Err(bad(format!(
                "tile {t} out of range ({} tiles)",
                self.layout.ntiles()
            )));
        }
        assert_eq!(
            buf.len(),
            self.layout.tile_entries(t),
            "buffer must match the tile entry count"
        );
        self.file.seek(SeekFrom::Start(self.offsets[t]))?;
        // One read straight into the tile buffer's storage.
        f64::read_le(&mut self.file, buf)
    }

    /// The reader's tile geometry.
    #[inline]
    pub fn layout(&self) -> &TiledLayout {
        &self.layout
    }
}

/// Streaming store writer: header up-front, tiles in id order through
/// a [`BufWriter`].
#[derive(Debug)]
pub struct TileStoreBuilder {
    w: BufWriter<File>,
    layout: TiledLayout,
    next: usize,
}

impl TileStoreBuilder {
    /// Create the file at `path` and write the full header (offsets
    /// are geometry-determined, so no backpatching is needed).
    pub fn create(path: impl AsRef<Path>, layout: TiledLayout) -> io::Result<TileStoreBuilder> {
        let (offsets, _) =
            expected_offsets(&layout).ok_or_else(|| bad("tile store byte size overflows"))?;
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&(layout.order() as u32).to_le_bytes())?;
        for &d in layout.dims() {
            w.write_all(&(d as u64).to_le_bytes())?;
        }
        for &t in layout.tile_dims() {
            w.write_all(&(t as u64).to_le_bytes())?;
        }
        w.write_all(&(layout.ntiles() as u64).to_le_bytes())?;
        for off in offsets {
            w.write_all(&off.to_le_bytes())?;
        }
        Ok(TileStoreBuilder { w, layout, next: 0 })
    }

    /// Append the next tile (tiles must arrive in id order).
    ///
    /// # Panics
    /// Panics if all tiles were already written or `data` is not
    /// exactly the tile's entry count.
    pub fn write_tile(&mut self, data: &[f64]) -> io::Result<()> {
        assert!(
            self.next < self.layout.ntiles(),
            "all {} tiles already written",
            self.layout.ntiles()
        );
        assert_eq!(
            data.len(),
            self.layout.tile_entries(self.next),
            "tile {} entry count mismatch",
            self.next
        );
        f64::write_le(&mut self.w, data)?;
        self.next += 1;
        Ok(())
    }

    /// Tiles written so far.
    #[inline]
    pub fn tiles_written(&self) -> usize {
        self.next
    }

    /// Flush and close; fails unless every tile was written.
    pub fn finish(mut self) -> io::Result<()> {
        if self.next != self.layout.ntiles() {
            return Err(bad(format!(
                "store incomplete: {} of {} tiles written",
                self.next,
                self.layout.ntiles()
            )));
        }
        self.w.flush()
    }
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "mttkrp_ooc_store_{name}_{}.mttb",
            std::process::id()
        ))
    }

    fn iota(dims: &[usize]) -> DenseTensor {
        let mut c = -1.0;
        DenseTensor::from_fn(dims, || {
            c += 1.0;
            c
        })
    }

    #[test]
    fn write_read_round_trip() {
        let x = iota(&[7, 5, 3]);
        let layout = TiledLayout::new(&[7, 5, 3], &[3, 2, 3]);
        let path = tmp("round_trip");
        let store = TileStore::write_dense(&path, &layout, &x).unwrap();
        let back = store.read_dense().unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, x);
    }

    #[test]
    fn generator_store_equals_dense_store() {
        let dims = [5usize, 4, 3];
        let x = iota(&dims);
        let layout = TiledLayout::new(&dims, &[2, 3, 2]);
        let p1 = tmp("gen_a");
        let p2 = tmp("gen_b");
        TileStore::write_dense(&p1, &layout, &x).unwrap();
        let info = x.info().clone();
        TileStore::write_with(&p2, &layout, |idx| x.data()[info.linear(idx)]).unwrap();
        let a = std::fs::read(&p1).unwrap();
        let b = std::fs::read(&p2).unwrap();
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
        assert_eq!(a, b, "generator and dense writers must agree bytewise");
    }

    #[test]
    fn rejects_corruption() {
        let x = iota(&[4, 3]);
        let layout = TiledLayout::new(&[4, 3], &[2, 2]);
        let path = tmp("corrupt");
        TileStore::write_dense(&path, &layout, &x).unwrap();
        let good = std::fs::read(&path).unwrap();

        let check = |bytes: &[u8], what: &str| {
            std::fs::write(&path, bytes).unwrap();
            assert!(TileStore::open(&path).is_err(), "{what} must be rejected");
        };
        let mut b = good.clone();
        b[0] = b'X';
        check(&b, "bad magic");
        let mut b = good.clone();
        b[4] = 9;
        check(&b, "bad version");
        let mut b = good.clone();
        b[12..20].copy_from_slice(&0u64.to_le_bytes());
        check(&b, "zero dim");
        let mut b = good.clone();
        b[28..36].copy_from_slice(&99u64.to_le_bytes());
        check(&b, "oversized tile extent");
        let mut b = good.clone();
        // Forge the first tile offset.
        let off_pos = 12 + 16 * 2 + 8;
        b[off_pos..off_pos + 8].copy_from_slice(&7u64.to_le_bytes());
        check(&b, "forged offset");
        check(&good[..good.len() - 8], "truncated payload");
        check(&good[..20], "truncated header");
        let mut b = good.clone();
        b.extend_from_slice(&[0u8; 8]);
        check(&b, "trailing garbage");
        let mut b = good.clone();
        // Overflowing dims: 2 modes of 2^40.
        b[12..20].copy_from_slice(&(1u64 << 40).to_le_bytes());
        b[20..28].copy_from_slice(&(1u64 << 40).to_le_bytes());
        check(&b, "overflowing shape");

        std::fs::remove_file(&path).ok();
    }

    // Regression: a 60-byte header claiming a 2^31 × 2^30 tensor in
    // one tile passes every usize-checked product (2^61 entries fit),
    // but its *byte* size wraps u64 — the offset walk used to overflow
    // (debug panic; release wrapped to a self-consistent length and
    // opened the store, deferring a capacity-overflow panic to the
    // first tile read). It must be InvalidData.
    #[test]
    fn rejects_byte_size_wrapping_geometry() {
        let mut b = Vec::new();
        b.extend_from_slice(MAGIC);
        b.extend_from_slice(&1u32.to_le_bytes());
        b.extend_from_slice(&2u32.to_le_bytes());
        for d in [1u64 << 31, 1u64 << 30] {
            b.extend_from_slice(&d.to_le_bytes());
        }
        for t in [1u64 << 31, 1u64 << 30] {
            b.extend_from_slice(&t.to_le_bytes());
        }
        b.extend_from_slice(&1u64.to_le_bytes()); // ntiles
        b.extend_from_slice(&60u64.to_le_bytes()); // offset of tile 0
        let path = tmp("wrap");
        std::fs::write(&path, &b).unwrap();
        let err = TileStore::open(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn out_of_range_tile_read_rejected() {
        let x = iota(&[4, 3]);
        let layout = TiledLayout::new(&[4, 3], &[2, 2]);
        let path = tmp("range");
        let store = TileStore::write_dense(&path, &layout, &x).unwrap();
        let mut r = store.reader().unwrap();
        let mut buf = vec![0.0; 4];
        assert!(r.read_tile_into(99, &mut buf).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn incomplete_store_fails_finish() {
        let layout = TiledLayout::new(&[4, 4], &[2, 2]);
        let path = tmp("incomplete");
        let mut b = TileStoreBuilder::create(&path, layout).unwrap();
        b.write_tile(&[0.0; 4]).unwrap();
        assert!(b.finish().is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sniffs_magic() {
        let path = tmp("sniff");
        let layout = TiledLayout::new(&[2, 2], &[2, 2]);
        TileStore::write_dense(&path, &layout, &iota(&[2, 2])).unwrap();
        assert!(TileStore::is_tile_store(&path));
        std::fs::write(&path, b"MTKT....").unwrap();
        assert!(!TileStore::is_tile_store(&path));
        std::fs::remove_file(&path).ok();
        assert!(!TileStore::is_tile_store(&path));
    }
}
