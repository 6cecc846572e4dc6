//! Tuning-profile codec acceptance: round-trip stability, corruption
//! rejection, and a quick-calibration self-check. These tests never
//! install a profile, so the binary's process stays on the heuristic
//! fallback throughout (installation semantics live in the dedicated
//! single-test binaries `tune_install.rs` / `tune_fallback.rs`).

use mttkrp_repro::blas::KernelTier;
use mttkrp_repro::tune::{calibrate, CalibrateOptions, TierTuning, TuningProfile};

fn sample_profile() -> TuningProfile {
    TuningProfile {
        cores: 4,
        threads: 4,
        bw1: 2.6523041170495728e10,
        bw_theta: 11.372983346207417,
        reduce_scale: 0.7431,
        mkl_penalty: 0.0,
        calib_err: Some(2.84375e-2),
        tiers: vec![
            TierTuning {
                tier: KernelTier::Scalar,
                gemm_flops: 8.93610600462515e9,
                gemm_eff0: 0.9,
                hadamard_cost: 6.5925537109375e-10,
            },
            TierTuning {
                tier: KernelTier::Avx512,
                gemm_flops: 2.90807225716591e10,
                gemm_eff0: 0.9,
                hadamard_cost: 7.77425537109375e-10,
            },
        ],
    }
}

#[test]
fn write_then_load_is_bitwise_stable() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("tune-roundtrip-{}.tune", std::process::id()));
    let p = sample_profile();
    p.save(&path).expect("save");
    let q = TuningProfile::load(&path).expect("load");
    assert_eq!(p, q, "values survive the round trip");
    // Bitwise: re-saving the loaded profile reproduces the file
    // exactly (shortest round-trip float formatting).
    let bytes = std::fs::read(&path).expect("read back");
    assert_eq!(bytes, q.to_text().as_bytes(), "bytewise-stable");
    std::fs::remove_file(&path).ok();
}

#[test]
fn quick_calibration_round_trips_through_disk() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("tune-calib-{}.tune", std::process::id()));
    let p = calibrate(&CalibrateOptions {
        threads: Some(2),
        quick: true,
    });
    p.save(&path).expect("save");
    let q = TuningProfile::load(&path).expect("load");
    assert_eq!(p, q);
    // The calibrated machine is usable for every measured tier.
    for t in &q.tiers {
        let m = q.machine_for(t.tier);
        assert!(m.peak_flops_core.is_finite() && m.peak_flops_core > 0.0);
        // The fitted saturation curve stays positive and finite.
        assert!(m.bw(1) > 0.0 && m.bw(4).is_finite() && m.bw(4) > 0.0);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_and_truncated_profiles_are_rejected() {
    let text = sample_profile().to_text();

    // Header / version damage.
    for mutation in [
        text.replacen("MTTKRP-TUNE v1", "MTTKRP-TUNE v9", 1),
        text.replacen("MTTKRP-TUNE v1", "MTKT", 1),
        String::new(),
    ] {
        assert!(
            TuningProfile::from_text(&mutation).is_err(),
            "accepted bad header: {mutation:?}"
        );
    }

    // Truncation at every line boundary must fail (the `end` trailer
    // is the guard) — except the full text itself.
    let lines: Vec<&str> = text.lines().collect();
    for cut in 0..lines.len() {
        let partial = lines[..cut].join("\n");
        assert!(
            TuningProfile::from_text(&partial).is_err(),
            "accepted truncation at line {cut}"
        );
    }
    assert!(TuningProfile::from_text(&text).is_ok());

    // Payload damage.
    for (needle, replacement) in [
        ("bw1 = ", "bw_one = "),                            // unknown key
        ("bw_theta = ", "cores = 9\nbw_theta = "),          // duplicate key
        ("cores = 4", "cores = four"),                      // unparsable value
        ("reduce_scale = 7.431e-1", "reduce_scale = -1e0"), // out of range
        ("[tier avx512]", "[tier turbo]"),                  // unknown tier
        ("[tier avx512]", "[tier scalar]"),                 // duplicate tier
        ("end", "fin"),                                     // trailer renamed => truncated
    ] {
        let mutated = text.replacen(needle, replacement, 1);
        assert_ne!(mutated, text, "needle {needle:?} missing from profile text");
        assert!(
            TuningProfile::from_text(&mutated).is_err(),
            "accepted corruption {needle:?} -> {replacement:?}"
        );
    }

    // Trailing garbage after the `end` trailer.
    let trailing = format!("{text}stray = 1\n");
    assert!(TuningProfile::from_text(&trailing).is_err());
}

#[test]
fn loading_a_missing_path_reports_the_path() {
    let e = TuningProfile::load("/nonexistent/host.tune").unwrap_err();
    assert!(e.to_string().contains("/nonexistent/host.tune"), "{e}");
}
