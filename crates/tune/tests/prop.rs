//! Seeded property tests for the tuning-profile codec (the in-tree
//! stand-in for proptest, like the other crates' `tests/prop.rs`).

use mttkrp_blas::KernelTier;
use mttkrp_rng::Rng64;
use mttkrp_tune::{TierTuning, TuningProfile};

const TIERS: [KernelTier; 4] = [
    KernelTier::Scalar,
    KernelTier::Avx2,
    KernelTier::Avx512,
    KernelTier::Neon,
];

/// Log-uniform positive draw in `[lo, hi]`.
fn pos_in(rng: &mut Rng64, lo: f64, hi: f64) -> f64 {
    lo * (hi / lo).powf(rng.next_f64())
}

/// A random but valid profile: positive finite coefficients across
/// many orders of magnitude, 1–4 distinct tiers in random order.
fn random_profile(rng: &mut Rng64) -> TuningProfile {
    let ntiers = 1 + (rng.next_u64() as usize) % TIERS.len();
    let mut order: Vec<KernelTier> = TIERS.to_vec();
    // Fisher–Yates with the seeded generator.
    for i in (1..order.len()).rev() {
        order.swap(i, (rng.next_u64() as usize) % (i + 1));
    }
    let tiers = order
        .into_iter()
        .take(ntiers)
        .map(|tier| TierTuning {
            tier,
            gemm_flops: pos_in(rng, 1e8, 1e12),
            gemm_eff0: 0.05 + 0.95 * rng.next_f64(),
            hadamard_cost: pos_in(rng, 1e-11, 1e-7),
        })
        .collect();
    TuningProfile {
        cores: 1 + (rng.next_u64() as usize) % 256,
        threads: 1 + (rng.next_u64() as usize) % 256,
        bw1: pos_in(rng, 1e8, 1e12),
        bw_theta: pos_in(rng, 0.5, 256.0),
        reduce_scale: pos_in(rng, 0.05, 2.0),
        mkl_penalty: if rng.next_f64() < 0.5 {
            0.0
        } else {
            rng.next_f64()
        },
        // Optional key: exercise both shapes.
        calib_err: (rng.next_f64() < 0.5).then(|| pos_in(rng, 1e-4, 1.0)),
        tiers,
    }
}

#[test]
fn random_profiles_round_trip_bytewise() {
    let mut rng = Rng64::seed_from_u64(0xC0FFEE);
    for case in 0..200 {
        let p = random_profile(&mut rng);
        let text = p.to_text();
        let q = TuningProfile::from_text(&text)
            .unwrap_or_else(|e| panic!("case {case}: self-emitted text rejected: {e}\n{text}"));
        assert_eq!(p, q, "case {case}: values drifted");
        assert_eq!(text, q.to_text(), "case {case}: bytes drifted");
    }
}

#[test]
fn random_single_byte_corruption_never_panics() {
    // Flip one byte at a time through an entire profile; the reader
    // must either reject cleanly or (for benign flips, e.g. inside a
    // digit) parse successfully — never panic.
    let mut rng = Rng64::seed_from_u64(42);
    let p = random_profile(&mut rng);
    let text = p.to_text();
    let bytes = text.as_bytes();
    for i in 0..bytes.len() {
        let mut mutated = bytes.to_vec();
        mutated[i] = mutated[i].wrapping_add(1 + (rng.next_u64() % 64) as u8);
        if let Ok(s) = std::str::from_utf8(&mutated) {
            let _ = TuningProfile::from_text(s);
        }
    }
}

#[test]
fn every_machine_from_a_valid_profile_is_usable() {
    let mut rng = Rng64::seed_from_u64(7);
    for _ in 0..50 {
        let p = random_profile(&mut rng);
        for tier in TIERS {
            let m = p.machine_for(tier);
            assert!(m.peak_flops_core.is_finite() && m.peak_flops_core > 0.0);
            assert!(m.bw(1) > 0.0 && m.bw(16).is_finite());
            assert!(m.gemm_time(64, 25, 64, 4, false) > 0.0);
            assert!(m.reduce_time(1000, 4, 4) >= 0.0);
        }
    }
}
