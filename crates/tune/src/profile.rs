//! The versioned, on-disk tuning profile.
//!
//! A [`TuningProfile`] is the persisted output of
//! [`crate::calibrate()`]: everything needed to rebuild a calibrated
//! [`Machine`] on a later run without re-measuring — the host's fitted
//! bandwidth curve, the parallel-reduction efficiency, and one
//! `[tier …]` section of kernel throughputs per SIMD tier that was
//! available when the calibration ran.
//!
//! # Format
//!
//! Plain text, line-oriented, `key = value` (TOML-ish but in-tree like
//! every other codec in this workspace). The first line is a checked
//! header — `MTTKRP-TUNE v1` — and the last meaningful line must be
//! the literal trailer `end`, which is how truncation is detected in a
//! format with no length prefix. See `docs/FORMATS.md` for the full
//! grammar and the rejection table; the reader here enforces every
//! rule with `InvalidData` errors rather than deferring to downstream
//! panics, exactly like the binary `MTKT`/`MTKS`/`MTTB` readers.
//!
//! Floating-point values are written with Rust's shortest round-trip
//! formatting, so `save → load → save` is **bytewise** stable (a
//! property the test suite pins).

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use mttkrp_blas::{kernels, KernelTier};
use mttkrp_machine::Machine;

/// Magic first-line token of a profile file.
pub const MAGIC: &str = "MTTKRP-TUNE";
/// Format version this build writes and accepts.
pub const VERSION: u32 = 1;
/// Environment variable naming the profile to auto-load
/// ([`crate::init_from_env`]).
pub const ENV_VAR: &str = "MTTKRP_TUNE_PROFILE";

/// Measured kernel throughputs of one SIMD dispatch tier.
#[derive(Debug, Clone, PartialEq)]
pub struct TierTuning {
    /// The dispatch tier the measurements were taken on.
    pub tier: KernelTier,
    /// Sustained sequential GEMM rate at a square cache-friendly shape
    /// (flops/s) — the measured counterpart of
    /// `peak_flops_core · gemm_eff0`.
    pub gemm_flops: f64,
    /// Best-case GEMM efficiency assumed when unfolding `gemm_flops`
    /// back into a peak rate (the model's shape-efficiency anchor).
    pub gemm_eff0: f64,
    /// Seconds per element per Hadamard pass in the row-wise KRP
    /// kernels (single thread).
    pub hadamard_cost: f64,
}

/// A calibrated, persistable machine-model coefficient set. See the
/// [module docs](self) for the file format.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningProfile {
    /// Logical cores of the calibrated host
    /// (`available_parallelism`).
    pub cores: usize,
    /// Team size the parallel microbenchmarks ran at.
    pub threads: usize,
    /// Fitted single-thread STREAM Scale bandwidth (bytes/s).
    pub bw1: f64,
    /// Fitted bandwidth-saturation parameter θ of
    /// `BW(T) = bw1·T/(1+(T−1)/θ)`.
    pub bw_theta: f64,
    /// Measured parallel-reduction efficiency relative to `BW(T)`.
    pub reduce_scale: f64,
    /// Small-output parallel GEMM penalty. Calibrated profiles write
    /// `0`: this implementation's GEMMs parallelize with private
    /// outputs and a reduction, so the MKL inner-product stall the
    /// paper models (§5.3.1) does not exist here.
    pub mkl_penalty: f64,
    /// Mean relative residual of the `BW(T)` saturation fit against
    /// the measured bandwidth ladder, recorded at calibration time.
    /// **Optional** in the file format: profiles written before drift
    /// detection existed carry no `calib_err` key and load as `None`,
    /// in which case drift detection falls back to a conservative
    /// default baseline.
    pub calib_err: Option<f64>,
    /// Per-tier kernel throughputs, one entry per tier measured.
    pub tiers: Vec<TierTuning>,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl TuningProfile {
    /// The tuning entry for `tier`, if that tier was measured.
    pub fn tier(&self, tier: KernelTier) -> Option<&TierTuning> {
        self.tiers.iter().find(|t| t.tier == tier)
    }

    /// A [`Machine`] carrying this profile's coefficients for `tier`.
    /// Falls back to the scalar tier's measurements (then to the first
    /// recorded tier) when `tier` itself was not measured — a profile
    /// calibrated on an AVX-512 host still prices plans on a machine
    /// where only AVX2 is forced.
    pub fn machine_for(&self, tier: KernelTier) -> Machine {
        let t = self
            .tier(tier)
            .or_else(|| self.tier(KernelTier::Scalar))
            .or_else(|| self.tiers.first())
            .expect("a loaded profile always has at least one tier");
        Machine {
            cores: self.cores,
            peak_flops_core: t.gemm_flops / t.gemm_eff0,
            bw1: self.bw1,
            bw_theta: self.bw_theta,
            gemm_eff0: t.gemm_eff0,
            hadamard_cost: t.hadamard_cost,
            mkl_penalty: self.mkl_penalty,
            reduce_scale: self.reduce_scale,
        }
    }

    /// [`TuningProfile::machine_for`] at the process's active kernel
    /// dispatch tier.
    pub fn machine_active(&self) -> Machine {
        self.machine_for(kernels::<f64>().tier())
    }

    /// Serialize to the profile text format (what [`save`] writes).
    ///
    /// [`save`]: TuningProfile::save
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{MAGIC} v{VERSION}");
        let _ = writeln!(s, "cores = {}", self.cores);
        let _ = writeln!(s, "threads = {}", self.threads);
        let _ = writeln!(s, "bw1 = {:e}", self.bw1);
        let _ = writeln!(s, "bw_theta = {:e}", self.bw_theta);
        let _ = writeln!(s, "reduce_scale = {:e}", self.reduce_scale);
        let _ = writeln!(s, "mkl_penalty = {:e}", self.mkl_penalty);
        if let Some(ce) = self.calib_err {
            let _ = writeln!(s, "calib_err = {ce:e}");
        }
        for t in &self.tiers {
            let _ = writeln!(s, "[tier {}]", t.tier.name());
            let _ = writeln!(s, "gemm_flops = {:e}", t.gemm_flops);
            let _ = writeln!(s, "gemm_eff0 = {:e}", t.gemm_eff0);
            let _ = writeln!(s, "hadamard_cost = {:e}", t.hadamard_cost);
        }
        let _ = writeln!(s, "end");
        s
    }

    /// Parse the profile text format, enforcing every rejection rule
    /// of `docs/FORMATS.md`: checked header, known version, no
    /// unknown/duplicate/missing keys, finite and in-range values, at
    /// least one tier, the `end` trailer present (truncation guard),
    /// and nothing after it.
    pub fn from_text(text: &str) -> io::Result<TuningProfile> {
        let mut lines = text.lines();
        match lines.next() {
            Some(first) if first.trim_end() == format!("{MAGIC} v{VERSION}") => {}
            Some(first) if first.starts_with(MAGIC) => {
                return Err(bad(format!(
                    "unsupported tuning-profile version {:?} (this build reads v{VERSION})",
                    first.trim_end()
                )));
            }
            _ => return Err(bad("not a tuning profile (bad header line)")),
        }

        let mut globals = KeyBag::new("profile", &GLOBAL_KEYS);
        let mut tiers: Vec<(KernelTier, KeyBag)> = Vec::new();
        let mut saw_end = false;
        for raw in lines.by_ref() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "end" {
                saw_end = true;
                break;
            }
            if let Some(name) = line
                .strip_prefix("[tier ")
                .and_then(|r| r.strip_suffix(']'))
            {
                let tier = KernelTier::parse(name.trim())
                    .map_err(|e| bad(format!("bad tier section: {e}")))?
                    .ok_or_else(|| bad("tier section cannot be \"auto\""))?;
                if tiers.iter().any(|(t, _)| *t == tier) {
                    return Err(bad(format!("duplicate [tier {}] section", tier.name())));
                }
                tiers.push((tier, KeyBag::new("tier", &TIER_KEYS)));
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| bad(format!("malformed line {line:?} (expected key = value)")))?;
            let bag = match tiers.last_mut() {
                Some((_, bag)) => bag,
                None => &mut globals,
            };
            bag.put(key.trim(), value.trim())?;
        }
        if !saw_end {
            return Err(bad("truncated tuning profile (missing `end` trailer)"));
        }
        for raw in lines {
            let line = raw.trim();
            if !line.is_empty() && !line.starts_with('#') {
                return Err(bad(format!("garbage after `end` trailer: {line:?}")));
            }
        }
        if tiers.is_empty() {
            return Err(bad("tuning profile records no kernel tiers"));
        }

        let cores = globals.usize_value("cores")?;
        let threads = globals.usize_value("threads")?;
        let bw1 = globals.f64_value("bw1", Positive)?;
        let bw_theta = globals.f64_value("bw_theta", Positive)?;
        let reduce_scale = globals.f64_value("reduce_scale", Positive)?;
        let mkl_penalty = globals.f64_value("mkl_penalty", NonNegative)?;
        let calib_err = globals.f64_optional("calib_err", NonNegative)?;
        let tiers = tiers
            .into_iter()
            .map(|(tier, bag)| {
                // Legacy key: accepted when in range, then discarded.
                bag.f64_optional(LEGACY_TIER_KEY, Positive)?;
                Ok(TierTuning {
                    tier,
                    gemm_flops: bag.f64_value("gemm_flops", Positive)?,
                    gemm_eff0: bag.f64_value("gemm_eff0", Fraction)?,
                    hadamard_cost: bag.f64_value("hadamard_cost", Positive)?,
                })
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(TuningProfile {
            cores,
            threads,
            bw1,
            bw_theta,
            reduce_scale,
            mkl_penalty,
            calib_err,
            tiers,
        })
    }

    /// Write the profile to `path` (overwriting).
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        fs::write(path, self.to_text())
    }

    /// Load a profile from `path`, enforcing the format's rejection
    /// rules (see [`TuningProfile::from_text`]).
    ///
    /// # Example
    ///
    /// ```
    /// use mttkrp_tune::{TuningProfile, TierTuning};
    /// use mttkrp_blas::KernelTier;
    ///
    /// let profile = TuningProfile {
    ///     cores: 8,
    ///     threads: 8,
    ///     bw1: 1.2e10,
    ///     bw_theta: 9.0,
    ///     reduce_scale: 0.8,
    ///     mkl_penalty: 0.0,
    ///     calib_err: Some(0.03),
    ///     tiers: vec![TierTuning {
    ///         tier: KernelTier::Scalar,
    ///         gemm_flops: 6.0e9,
    ///         gemm_eff0: 0.9,
    ///         hadamard_cost: 2.0e-9,
    ///     }],
    /// };
    /// let path = std::env::temp_dir().join("doctest-profile.tune");
    /// profile.save(&path)?;
    /// let loaded = TuningProfile::load(&path)?;
    /// assert_eq!(loaded, profile);
    /// // The calibrated machine prices plans with the measured rates.
    /// let m = loaded.machine_for(KernelTier::Scalar);
    /// assert_eq!(m.bw1, 1.2e10);
    /// # std::fs::remove_file(&path).ok();
    /// # Ok::<(), std::io::Error>(())
    /// ```
    pub fn load(path: impl AsRef<Path>) -> io::Result<TuningProfile> {
        let text = fs::read_to_string(path.as_ref()).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("cannot read tuning profile {:?}: {e}", path.as_ref()),
            )
        })?;
        Self::from_text(&text)
    }

    /// The profile path named by [`ENV_VAR`], if set.
    pub fn env_path() -> Option<PathBuf> {
        std::env::var_os(ENV_VAR).map(PathBuf::from)
    }
}

const GLOBAL_KEYS: [&str; 7] = [
    "cores",
    "threads",
    "bw1",
    "bw_theta",
    "reduce_scale",
    "mkl_penalty",
    "calib_err",
];
const TIER_KEYS: [&str; 4] = ["gemm_flops", "gemm_eff0", "hadamard_cost", LEGACY_TIER_KEY];
/// A tier key older profiles carry (the per-entry cost of a retired
/// MTTKRP kernel). Still accepted, range-checked, and ignored, so those
/// profiles keep loading as v1; never written.
const LEGACY_TIER_KEY: &str = "fused_cost";

/// Range requirement on a parsed float.
enum FloatRange {
    /// Strictly positive and finite.
    Positive,
    /// Finite and `>= 0`.
    NonNegative,
    /// Finite, `> 0`, and `<= 1`.
    Fraction,
}
use FloatRange::{Fraction, NonNegative, Positive};

/// Collected `key = value` pairs of one section, validated against the
/// section's known-key list (unknown and duplicate keys rejected at
/// insert, missing keys at extraction).
struct KeyBag {
    section: &'static str,
    known: &'static [&'static str],
    entries: Vec<(String, String)>,
}

impl KeyBag {
    fn new(section: &'static str, known: &'static [&'static str]) -> KeyBag {
        KeyBag {
            section,
            known,
            entries: Vec::new(),
        }
    }

    fn put(&mut self, key: &str, value: &str) -> io::Result<()> {
        if !self.known.contains(&key) {
            return Err(bad(format!("unknown {} key {key:?}", self.section)));
        }
        if self.entries.iter().any(|(k, _)| k == key) {
            return Err(bad(format!("duplicate {} key {key:?}", self.section)));
        }
        self.entries.push((key.to_string(), value.to_string()));
        Ok(())
    }

    fn raw(&self, key: &str) -> io::Result<&str> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| bad(format!("missing {} key {key:?}", self.section)))
    }

    fn usize_value(&self, key: &str) -> io::Result<usize> {
        let v: usize = self
            .raw(key)?
            .parse()
            .map_err(|_| bad(format!("bad {} value for {key:?}", self.section)))?;
        if v == 0 {
            return Err(bad(format!(
                "{} key {key:?} must be positive",
                self.section
            )));
        }
        Ok(v)
    }

    /// Like [`KeyBag::f64_value`] but for keys the grammar marks
    /// optional: an absent key is `Ok(None)`, while a present key must
    /// still satisfy `range`.
    fn f64_optional(&self, key: &str, range: FloatRange) -> io::Result<Option<f64>> {
        if self.entries.iter().any(|(k, _)| k == key) {
            return self.f64_value(key, range).map(Some);
        }
        Ok(None)
    }

    fn f64_value(&self, key: &str, range: FloatRange) -> io::Result<f64> {
        let v: f64 = self
            .raw(key)?
            .parse()
            .map_err(|_| bad(format!("bad {} value for {key:?}", self.section)))?;
        let ok = v.is_finite()
            && match range {
                Positive => v > 0.0,
                NonNegative => v >= 0.0,
                Fraction => v > 0.0 && v <= 1.0,
            };
        if !ok {
            return Err(bad(format!(
                "{} key {key:?} out of range ({v})",
                self.section
            )));
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample() -> TuningProfile {
        TuningProfile {
            cores: 8,
            threads: 6,
            bw1: 1.3785691443583887e10,
            bw_theta: 9.25,
            reduce_scale: 0.8123,
            mkl_penalty: 0.0,
            calib_err: Some(0.042),
            tiers: vec![
                TierTuning {
                    tier: KernelTier::Scalar,
                    gemm_flops: 7.8e9,
                    gemm_eff0: 0.9,
                    hadamard_cost: 1.2345e-9,
                },
                TierTuning {
                    tier: KernelTier::Avx2,
                    gemm_flops: 2.34e10,
                    gemm_eff0: 0.9,
                    hadamard_cost: 0.8e-9,
                },
            ],
        }
    }

    #[test]
    fn round_trip_is_exact_and_bytewise_stable() {
        let p = sample();
        let text = p.to_text();
        let q = TuningProfile::from_text(&text).expect("round trip parses");
        assert_eq!(p, q, "value round trip");
        assert_eq!(text, q.to_text(), "bytewise-stable re-serialization");
    }

    #[test]
    fn comments_and_blank_lines_are_permitted() {
        let mut text = String::from("MTTKRP-TUNE v1\n# calibrated on host X\n\n");
        for line in sample().to_text().lines().skip(1) {
            text.push_str(line);
            text.push('\n');
        }
        let q = TuningProfile::from_text(&text).expect("comments parse");
        assert_eq!(q, sample());
    }

    #[test]
    fn header_and_version_are_enforced() {
        let body = sample().to_text();
        let swapped = body.replacen("MTTKRP-TUNE v1", "MTTKRP-TUNE v2", 1);
        let e = TuningProfile::from_text(&swapped).unwrap_err();
        assert!(e.to_string().contains("version"), "{e}");
        let wrong = body.replacen("MTTKRP-TUNE v1", "NOTAPROFILE v1", 1);
        let e = TuningProfile::from_text(&wrong).unwrap_err();
        assert!(e.to_string().contains("header"), "{e}");
        assert!(TuningProfile::from_text("").is_err());
    }

    #[test]
    fn truncation_is_rejected() {
        let text = sample().to_text();
        // Dropping the trailer (with or without trailing content) is
        // exactly what a partial write looks like.
        let no_end = text.replace("end\n", "");
        let e = TuningProfile::from_text(&no_end).unwrap_err();
        assert!(e.to_string().contains("truncated"), "{e}");
        let half = &text[..text.len() / 2];
        assert!(TuningProfile::from_text(half).is_err());
    }

    #[test]
    fn garbage_after_trailer_is_rejected() {
        let text = format!("{}junk = 1\n", sample().to_text());
        let e = TuningProfile::from_text(&text).unwrap_err();
        assert!(e.to_string().contains("garbage"), "{e}");
        // Comments and whitespace after `end` are fine.
        let ok = format!("{}\n# trailing comment\n", sample().to_text());
        assert!(TuningProfile::from_text(&ok).is_ok());
    }

    #[test]
    fn unknown_duplicate_and_missing_keys_are_rejected() {
        let text = sample().to_text();
        let unknown = text.replacen("bw_theta", "bw_zeta", 1);
        assert!(TuningProfile::from_text(&unknown).is_err());
        let dup = text.replacen("bw_theta = ", "bw1 = 1.0\n# dup follows\nbw_theta = ", 1);
        let e = TuningProfile::from_text(&dup).unwrap_err();
        assert!(e.to_string().contains("duplicate"), "{e}");
        let missing = text
            .lines()
            .filter(|l| !l.starts_with("cores"))
            .collect::<Vec<_>>()
            .join("\n");
        let e = TuningProfile::from_text(&missing).unwrap_err();
        assert!(e.to_string().contains("missing"), "{e}");
    }

    #[test]
    fn out_of_range_values_are_rejected() {
        let text = sample().to_text();
        for (needle, replacement) in [
            ("bw1 = 1.3785691443583887e10", "bw1 = -1.0"),
            ("bw1 = 1.3785691443583887e10", "bw1 = NaN"),
            ("bw1 = 1.3785691443583887e10", "bw1 = inf"),
            ("cores = 8", "cores = 0"),
            ("gemm_eff0 = 9e-1", "gemm_eff0 = 1.5"),
            ("mkl_penalty = 0e0", "mkl_penalty = -0.1"),
        ] {
            let mutated = text.replacen(needle, replacement, 1);
            assert_ne!(mutated, text, "needle {needle:?} not found");
            assert!(
                TuningProfile::from_text(&mutated).is_err(),
                "accepted {replacement:?}"
            );
        }
    }

    #[test]
    fn tier_sections_are_validated() {
        let text = sample().to_text();
        let unknown_tier = text.replacen("[tier avx2]", "[tier warp]", 1);
        assert!(TuningProfile::from_text(&unknown_tier).is_err());
        let auto_tier = text.replacen("[tier avx2]", "[tier auto]", 1);
        assert!(TuningProfile::from_text(&auto_tier).is_err());
        let dup_tier = text.replacen("[tier avx2]", "[tier scalar]", 1);
        let e = TuningProfile::from_text(&dup_tier).unwrap_err();
        assert!(e.to_string().contains("duplicate"), "{e}");
        // A profile with no tiers at all is rejected.
        let no_tiers: String = text
            .lines()
            .take_while(|l| !l.starts_with("[tier"))
            .chain(std::iter::once("end"))
            .collect::<Vec<_>>()
            .join("\n");
        let e = TuningProfile::from_text(&no_tiers).unwrap_err();
        assert!(e.to_string().contains("no kernel tiers"), "{e}");
    }

    #[test]
    fn legacy_fused_cost_loads_is_validated_and_is_not_written_back() {
        let p = sample();
        let text = p.to_text();
        assert!(!text.contains(LEGACY_TIER_KEY), "writer never emits it");
        // An older profile carrying the key in a tier section loads to
        // the same profile, and saving it again drops the key.
        let hadamard = "hadamard_cost = 1.2345e-9";
        let legacy = text.replacen(hadamard, &format!("{hadamard}\nfused_cost = 2.5e-9"), 1);
        assert_ne!(legacy, text);
        let q = TuningProfile::from_text(&legacy).expect("legacy profiles still load");
        assert_eq!(q, p);
        assert_eq!(q.to_text(), text, "re-saved bytes carry no legacy key");
        // When present the key still obeys its range and duplicate rules.
        let broken = text.replacen(hadamard, &format!("{hadamard}\nfused_cost = -1.0"), 1);
        assert!(TuningProfile::from_text(&broken).is_err());
        let dup = legacy.replacen(
            "fused_cost = 2.5e-9",
            "fused_cost = 2.5e-9\nfused_cost = 2.5e-9",
            1,
        );
        let e = TuningProfile::from_text(&dup).unwrap_err();
        assert!(e.to_string().contains("duplicate"), "{e}");
    }

    #[test]
    fn calib_err_is_optional_and_validated_when_present() {
        let p = sample();
        assert_eq!(p.to_text().matches("calib_err").count(), 1);
        // A pre-drift profile (no `calib_err` key) still loads, with
        // the residual absent.
        let legacy: String = p
            .to_text()
            .lines()
            .filter(|l| !l.starts_with("calib_err"))
            .collect::<Vec<_>>()
            .join("\n");
        let q = TuningProfile::from_text(&legacy).expect("legacy profiles still load");
        assert_eq!(q.calib_err, None);
        // When present the key obeys the NonNegative range rule.
        for broken in ["calib_err = -0.1", "calib_err = NaN"] {
            let mutated = p.to_text().replacen("calib_err = 4.2e-2", broken, 1);
            assert!(TuningProfile::from_text(&mutated).is_err(), "{broken}");
        }
        let dup = p.to_text().replacen(
            "calib_err = 4.2e-2",
            "calib_err = 4.2e-2\ncalib_err = 4.2e-2",
            1,
        );
        let e = TuningProfile::from_text(&dup).unwrap_err();
        assert!(e.to_string().contains("duplicate"), "{e}");
    }

    #[test]
    fn machine_for_falls_back_to_scalar_then_first() {
        let p = sample();
        let m = p.machine_for(KernelTier::Avx2);
        assert_eq!(m.hadamard_cost, 0.8e-9);
        // Unmeasured tier: falls back to the scalar entry.
        let m = p.machine_for(KernelTier::Neon);
        assert_eq!(m.hadamard_cost, 1.2345e-9);
        assert_eq!(m.cores, 8);
        assert_eq!(m.reduce_scale, 0.8123);
        // peak unfolds through the assumed efficiency.
        assert!((m.peak_flops_core - 7.8e9 / 0.9).abs() < 1.0);
        // No scalar entry: first recorded tier wins.
        let mut q = p.clone();
        q.tiers.remove(0);
        let m = q.machine_for(KernelTier::Neon);
        assert_eq!(m.hadamard_cost, 0.8e-9);
    }
}
