//! Figure/table regeneration harness.
//!
//! One subcommand per paper figure; each prints the figure's series as
//! a CSV-style table (measured on this host, plus the calibrated
//! machine-model prediction for 1–12 threads of the paper's testbed)
//! followed by summary lines checking the paper's qualitative claims.
//!
//! ```text
//! mttkrp-harness --fig4            # KRP: Reuse vs Naive vs STREAM
//! mttkrp-harness --fig5            # MTTKRP time vs threads, N = 3..6
//! mttkrp-harness --fig6            # MTTKRP phase breakdowns
//! mttkrp-harness --fig7            # CP-ALS per-iteration, ours vs TTB-style
//! mttkrp-harness --fig8            # breakdowns on the fMRI tensors
//! mttkrp-harness --sparse          # sparse CSF MTTKRP vs density sweep
//! mttkrp-harness --ooc             # out-of-core streaming vs in-core
//! mttkrp-harness --tune            # calibrate + prediction-accuracy sweep
//! mttkrp-harness --all             # everything
//! mttkrp-harness --all --scale medium   # small (default) | medium | paper
//! mttkrp-harness --all --kernel scalar  # force a SIMD dispatch tier
//! mttkrp-harness --fig5 --dtype f32     # binary32 storage, f64 accumulators
//! mttkrp-harness --ooc --budget-mb 8    # out-of-core memory budget
//! mttkrp-harness --ooc --tile 64x64x64  # explicit tile extents
//! ```
//!
//! `--kernel {auto,scalar,avx2,avx512,neon}` pins the hardware-kernel
//! tier every hot loop dispatches to (default `auto`: best supported);
//! the selected tier is printed in the header. `--dtype {f32,f64}`
//! (default `f64`) sets the element type of the dense MTTKRP figures
//! (5 and 6): f32 stores in binary32 with twice the SIMD lanes while
//! every dot/Gram/norm reduction keeps an f64 accumulator. The out-of-core sweep
//! prints its tile grid, budget, and peak resident tile bytes; the
//! budget comes from `--budget-mb`, else `MTTKRP_OOC_BUDGET`, else an
//! eighth of the tensor.
//!
//! `--tune` calibrates a tuning profile on this host (or loads one
//! with `--profile FILE`), optionally persists it (`--profile-out
//! FILE`), and sweeps 1-step vs 2-step prediction accuracy against
//! measurements (Heuristic vs paper-constant model vs calibrated
//! profile). A profile named by `MTTKRP_TUNE_PROFILE` is loaded at
//! startup and drives every `Tuned` plan the other figures build.
//!
//! Observability (`mttkrp_obs`): `--trace-out FILE` records spans
//! across the run and writes a chrome-trace JSON on exit (implies
//! `MTTKRP_TRACE=full` unless the env var pins a level); `--metrics`
//! enables the metrics registry and prints its text dump after the
//! figures; `--choices-out FILE` writes the `--tune` sweep's
//! [`ChoiceLog`](mttkrp_core::ChoiceLog) as JSON; `--perf-report FILE`
//! runs the roofline attribution (per-phase achieved GB/s / GFLOP/s
//! against the tuning profile's roofs) and writes the
//! `mttkrp-perf-v1` JSON envelope.

mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod fig8;
mod ooc;
mod perf;
mod scale;
mod sparse;
mod tune;
mod util;

use scale::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return;
    }
    let scale = match args.iter().position(|a| a == "--scale") {
        Some(i) => match args.get(i + 1).map(|s| s.as_str()) {
            Some("small") => Scale::Small,
            Some("medium") => Scale::Medium,
            Some("paper") => Scale::Paper,
            other => {
                eprintln!("unknown scale {other:?} (expected small|medium|paper)");
                std::process::exit(2);
            }
        },
        None => Scale::Small,
    };
    // Resolve the kernel tier before any kernel runs: the dispatch is
    // process-wide and freezes on first use.
    if let Some(i) = args.iter().position(|a| a == "--kernel") {
        let name = args.get(i + 1).map(|s| s.as_str()).unwrap_or("");
        match mttkrp_blas::KernelTier::parse(name) {
            Ok(None) => {} // auto: detect below
            Ok(Some(tier)) => {
                if let Err(e) = mttkrp_blas::force_tier(tier) {
                    eprintln!("--kernel {name}: {e}");
                    std::process::exit(2);
                }
            }
            Err(e) => {
                eprintln!("--kernel: {e}");
                std::process::exit(2);
            }
        }
    }
    let budget_mb: Option<usize> = match args.iter().position(|a| a == "--budget-mb") {
        Some(i) => match args.get(i + 1).map(|s| s.parse::<usize>()) {
            Some(Ok(mb)) => Some(mb),
            other => {
                eprintln!("bad --budget-mb {other:?} (expected a megabyte count)");
                std::process::exit(2);
            }
        },
        None => None,
    };
    let tile: Option<Vec<usize>> = match args.iter().position(|a| a == "--tile") {
        Some(i) => {
            let raw = args.get(i + 1).map(|s| s.as_str()).unwrap_or("");
            let parsed: Result<Vec<usize>, _> =
                raw.split(['x', 'X', ',']).map(|t| t.parse()).collect();
            match parsed {
                Ok(t) if !t.is_empty() && !t.contains(&0) => Some(t),
                _ => {
                    eprintln!("bad --tile {raw:?} (expected e.g. 64x64x64)");
                    std::process::exit(2);
                }
            }
        }
        None => None,
    };
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(|s| s.as_str())
    };
    let profile_path = flag_value("--profile");
    let profile_out = flag_value("--profile-out");
    let trace_out = flag_value("--trace-out").map(String::from);
    let choices_out = flag_value("--choices-out");
    let want_metrics = args.iter().any(|a| a == "--metrics");
    let want_prom = args.iter().any(|a| a == "--metrics-prom");
    if trace_out.is_some() && std::env::var_os("MTTKRP_TRACE").is_none() {
        // --trace-out implies tracing: full detail unless the user
        // pinned a level in the environment.
        mttkrp_obs::set_trace_level(mttkrp_obs::TraceLevel::Full);
    }
    if want_metrics || want_prom {
        mttkrp_obs::set_metrics_enabled(true);
    }
    let dtype = match flag_value("--dtype") {
        None => mttkrp_blas::Dtype::F64,
        Some(name) => match mttkrp_blas::Dtype::parse(name) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("--dtype: {e}");
                std::process::exit(2);
            }
        },
    };

    // Honor MTTKRP_TUNE_PROFILE before any plan is built, so every
    // figure's Tuned/Predicted choices see the calibrated model.
    let tuned = match mttkrp_tune::init_from_env() {
        Ok(p) => p.is_some(),
        Err(e) => {
            eprintln!("MTTKRP_TUNE_PROFILE: {e}");
            std::process::exit(1);
        }
    };

    let all = args.iter().any(|a| a == "--all");
    let want = |flag: &str| all || args.iter().any(|a| a == flag);

    println!("# MTTKRP reproduction harness");
    println!(
        "# scale = {scale:?}; host cores = {}; kernel tier = {}; dtype = {dtype}",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        match dtype {
            mttkrp_blas::Dtype::F64 => mttkrp_blas::kernels::<f64>().tier(),
            mttkrp_blas::Dtype::F32 => mttkrp_blas::kernels::<f32>().tier(),
        },
    );
    println!("# modeled machine = 2 x 6-core Sandy Bridge E5-2620 (calibrated to this host's kernel rates)");
    println!(
        "# tuning profile = {}",
        if tuned {
            "loaded from MTTKRP_TUNE_PROFILE"
        } else {
            "none (heuristic fallback; run --tune to calibrate)"
        }
    );
    println!();

    let mut ran = false;
    if want("--fig4") {
        fig4::run(scale);
        ran = true;
    }
    if want("--fig5") {
        fig5::run(scale, dtype);
        ran = true;
    }
    if want("--fig6") {
        fig6::run(scale, dtype);
        ran = true;
    }
    if want("--fig7") {
        fig7::run(scale);
        ran = true;
    }
    if want("--fig8") {
        fig8::run(scale);
        ran = true;
    }
    if want("--sparse") {
        sparse::run(scale);
        ran = true;
    }
    if want("--ooc") {
        ooc::run(scale, budget_mb.map(|mb| mb << 20), tile.clone());
        ran = true;
    }
    if want("--tune") {
        tune::run(scale, profile_path, profile_out, choices_out);
        ran = true;
    }
    if let Some(out) = flag_value("--perf-report") {
        perf::run(scale, dtype, out);
        ran = true;
    }
    if !ran {
        print_help();
        std::process::exit(2);
    }

    if let Some(path) = trace_out {
        match mttkrp_obs::write_chrome_trace(&path) {
            Ok(n) => eprintln!("# trace: wrote {n} spans to {path} (chrome trace format)"),
            Err(e) => {
                eprintln!("cannot write trace {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if want_metrics {
        print!("{}", mttkrp_obs::registry().text_dump());
    }
    if want_prom {
        print!("{}", mttkrp_obs::render_prometheus());
    }
}

fn print_help() {
    println!(
        "usage: mttkrp-harness [--fig4] [--fig5] [--fig6] [--fig7] [--fig8] \
         [--sparse] [--ooc] [--tune] [--all] \
         [--scale small|medium|paper] \
         [--kernel auto|scalar|avx2|avx512|neon] [--dtype f32|f64] \
         [--budget-mb N] [--tile AxBxC] \
         [--profile FILE] [--profile-out FILE] \
         [--trace-out FILE] [--metrics] [--metrics-prom] \
         [--choices-out FILE] [--perf-report FILE]"
    );
}
