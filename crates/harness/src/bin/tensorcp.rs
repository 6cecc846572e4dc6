//! `tensorcp` — command-line CP decomposition of dense tensor files.
//!
//! The downstream-user face of the library: generate or import tensors
//! in the repo's binary format, decompose them with the paper's
//! optimized kernels, inspect results.
//!
//! ```text
//! tensorcp gen --dims 60x50x40 --rank 5 --noise 0.01 --out x.mtkt
//! tensorcp gen --dims 800x700x600 --ooc --budget-mb 64 --out x.mttb
//! tensorcp gen-fmri --preset small --out brain.mtkt [--three-way]
//! tensorcp decompose --input x.mtkt --rank 5 [--method als|nn]
//!                    [--iters 50] [--tol 1e-8] [--threads 4]
//!                    [--model-out model.mtkm]
//! tensorcp decompose --input x.mttb --ooc [--budget-mb N] [--tile AxBxC]
//! tensorcp info --input x.mtkt        # or a .mttb tile store
//! tensorcp profile --input x.mtkt [--rank 25]
//! tensorcp tune --out host.tune       # calibrate this host
//! ```
//!
//! `--ooc` runs out-of-core: `gen --ooc` streams a tile store straight
//! from the generator (the tensor never materializes, so it can exceed
//! RAM), and `decompose --ooc` accepts a tile store (`MTTB`) or
//! converts a dense file on the fly, holding at most two tiles of
//! tensor data resident. The budget comes from `--budget-mb`, else
//! `MTTKRP_OOC_BUDGET`, else 256 MB; `--tile` overrides the grid.
//!
//! `tune` measures this host (stream bandwidth, per-tier GEMM and
//! Hadamard throughput, reduction efficiency), fits the machine-model
//! coefficients, and writes them as a `MTTKRP-TUNE v1` profile.
//! Exporting `MTTKRP_TUNE_PROFILE=host.tune` makes `decompose --method
//! als` pick each mode's MTTKRP algorithm with the calibrated model
//! instead of the paper's fixed heuristic wherever it runs per-mode
//! kernels (out-of-core and order-2 tensors); an in-core order ≥ 3
//! tensor runs the two-group sweep.
//!
//! Every command also accepts `--trace-out FILE` (record `mttkrp_obs`
//! spans across the run — plan construction, per-mode MTTKRP phases,
//! Gram/solve, OOC prefetch — and write them as chrome-trace JSON,
//! viewable in Perfetto) and `--metrics` (enable the process-wide
//! metrics registry and print its text dump after the command).
//! `decompose --perf-report FILE` additionally prices the sweep's
//! per-mode MTTKRP breakdowns against the loaded tuning profile's
//! bandwidth/compute roofs and writes the `mttkrp-perf-v1` report
//! (requires `MTTKRP_TUNE_PROFILE`; in-core `als` or `nn` on an
//! order-2 tensor: the per-mode sweeps).

use std::collections::HashMap;
use std::process::exit;

use mttkrp_blas::{Dtype, Layout, MatRef, Scalar};
use mttkrp_core::{
    mttkrp_1step_timed, mttkrp_2step_timed, mttkrp_explicit_timed, AlgoChoice, MttkrpPlan,
    TwoStepSide,
};
use mttkrp_cpals::{cp_als, cp_als_nn, CpAlsOptions, CpAlsReport, KruskalModel, MttkrpStrategy};
use mttkrp_ooc::{OocTensor, TileStore, TiledLayout};
use mttkrp_parallel::ThreadPool;
use mttkrp_rng::Rng64;
use mttkrp_tensor::linear_index;
use mttkrp_tensor::DenseTensor;
use mttkrp_workloads::{
    linearize_symmetric, random_factors, read_tensor, tensor_dtype, write_model, write_tensor,
    FmriConfig, StoredModel,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        exit(2);
    };
    let opts = parse_flags(&args[1..]);
    // Pin the hardware-kernel tier before any kernel runs (the
    // dispatch is process-wide and freezes on first use).
    if let Some(name) = opts.get("kernel") {
        match mttkrp_blas::KernelTier::parse(name) {
            Ok(None) => {}
            Ok(Some(tier)) => {
                if let Err(e) = mttkrp_blas::force_tier(tier) {
                    eprintln!("--kernel {name}: {e}");
                    exit(2);
                }
            }
            Err(e) => {
                eprintln!("--kernel: {e}");
                exit(2);
            }
        }
    }
    // Load a calibrated tuning profile (MTTKRP_TUNE_PROFILE) before
    // any plan is built; `Tuned` strategies fall back to the heuristic
    // without one.
    if let Err(e) = mttkrp_tune::init_from_env() {
        eprintln!("MTTKRP_TUNE_PROFILE: {e}");
        exit(1);
    }
    // Observability: --trace-out implies full-detail tracing (unless
    // MTTKRP_TRACE pins a level) and writes a chrome-trace JSON after
    // the command; --metrics enables the registry and prints its dump.
    let trace_out = opts.get("trace-out").cloned();
    if trace_out.is_some() && std::env::var_os("MTTKRP_TRACE").is_none() {
        mttkrp_obs::set_trace_level(mttkrp_obs::TraceLevel::Full);
    }
    let want_metrics = opts.contains_key("metrics");
    let want_prom = opts.contains_key("metrics-prom");
    if want_metrics || want_prom {
        mttkrp_obs::set_metrics_enabled(true);
    }
    let result = match cmd.as_str() {
        "gen" => cmd_gen(&opts),
        "gen-fmri" => cmd_gen_fmri(&opts),
        "decompose" => cmd_decompose(&opts),
        "info" => cmd_info(&opts),
        "profile" => cmd_profile(&opts),
        "tune" => cmd_tune(&opts),
        "--help" | "-h" | "help" => {
            usage();
            Ok(())
        }
        other => {
            eprintln!("unknown command {other:?}");
            usage();
            exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        exit(1);
    }
    if let Some(path) = trace_out {
        match mttkrp_obs::write_chrome_trace(&path) {
            Ok(n) => eprintln!("trace written : {n} spans to {path} (chrome trace format)"),
            Err(e) => {
                eprintln!("cannot write trace {path}: {e}");
                exit(1);
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

fn usage() {
    println!(
        "tensorcp — CP decomposition of dense tensor files\n\
         commands:\n\
           gen        --dims AxBxC --rank R [--noise S] [--seed N] --out FILE\n\
                      [--dtype f32|f64] (element type of the written file)\n\
                      [--ooc [--budget-mb N] [--tile AxBxC]]  (write a tile store)\n\
           gen-fmri   [--preset small|medium|paper] [--three-way] [--dtype f32|f64]\n\
                      --out FILE\n\
           decompose  --input FILE --rank R [--method als|nn]\n\
                      [--iters N] [--tol T] [--threads T] [--model-out FILE]\n\
                      [--dtype f32|f64] (default: the file's stored dtype)\n\
                      [--perf-report FILE] (roofline attribution of the sweep;\n\
                      needs a tuning profile; in-core order-2 tensors)\n\
                      [--ooc [--budget-mb N] [--tile AxBxC]]  (stream from disk)\n\
           info       --input FILE   (dense .mtkt or tile-store .mttb)\n\
           profile    --input FILE [--rank R] [--threads T] [--dtype f32|f64]\n\
           tune       [--out FILE] [--threads T] [--quick]\n\
                      (calibrate this host, print + write a tuning profile)\n\
         every command accepts --kernel auto|scalar|avx2|avx512|neon\n\
         (hardware dispatch tier; default auto = best supported),\n\
         --trace-out FILE (record spans, write chrome-trace JSON; implies\n\
         MTTKRP_TRACE=full unless the env var pins a level),\n\
         --metrics (enable + print the metrics registry after the command),\n\
         and --metrics-prom (same, in Prometheus text exposition);\n\
         f32 runs store in binary32 but keep f64 accumulators in every\n\
         reduction; the out-of-core (--ooc) paths are f64-only;\n\
         the out-of-core budget falls back to MTTKRP_OOC_BUDGET, then 256 MB;\n\
         a profile named by MTTKRP_TUNE_PROFILE is loaded at startup and\n\
         drives per-mode algorithm choice in decompose"
    );
}

/// Resolve the out-of-core byte budget: `--budget-mb`, then the
/// `MTTKRP_OOC_BUDGET` environment variable, then 256 MB.
fn ooc_budget(opts: &HashMap<String, String>) -> Result<usize, String> {
    if let Some(s) = opts.get("budget-mb") {
        let mb: usize = s.parse().map_err(|_| format!("bad --budget-mb {s:?}"))?;
        return Ok(mb << 20);
    }
    Ok(mttkrp_ooc::budget_from_env().unwrap_or(256 << 20))
}

/// Layout from `--tile` if given, else from the budget.
fn ooc_layout(
    opts: &HashMap<String, String>,
    dims: &[usize],
    budget: usize,
) -> Result<TiledLayout, String> {
    match opts.get("tile") {
        Some(s) => {
            let tile = parse_dims(s).map_err(|e| e.replace("--dims", "--tile"))?;
            if tile.len() != dims.len() {
                return Err(format!(
                    "--tile has {} extents for a {}-mode tensor",
                    tile.len(),
                    dims.len()
                ));
            }
            Ok(TiledLayout::new(dims, &tile))
        }
        None => Ok(TiledLayout::for_budget(dims, budget)),
    }
}

/// The `--ooc` run header: tile grid, budget, and kernel tier.
fn print_ooc_header(layout: &TiledLayout, budget: usize) {
    println!(
        "ooc           : tile {:?} grid {:?} ({} tiles, {} KB each)",
        layout.tile_dims(),
        layout.grid(),
        layout.ntiles(),
        (8 * layout.max_tile_entries()) >> 10,
    );
    let working_set = 2 * 8 * layout.max_tile_entries();
    println!(
        "budget        : {} KB (2-tile working set = {} KB)",
        budget >> 10,
        working_set >> 10,
    );
    if working_set > budget {
        // An existing store's grid is fixed at creation; a smaller
        // budget at run time cannot shrink its tiles.
        println!(
            "warning       : store tiles exceed the budget; re-create the store to shrink them"
        );
    }
    println!("kernel tier   : {}", mttkrp_blas::kernels::<f64>().tier());
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(key) = a.strip_prefix("--") {
            let next = args.get(i + 1);
            if next.is_none_or(|n| n.starts_with("--")) {
                map.insert(key.to_string(), String::from("true"));
                i += 1;
            } else {
                map.insert(key.to_string(), next.unwrap().clone());
                i += 2;
            }
        } else {
            eprintln!("ignoring stray argument {a:?}");
            i += 1;
        }
    }
    map
}

type CliResult = Result<(), String>;

fn require<'a>(opts: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    opts.get(key)
        .map(|s| s.as_str())
        .ok_or_else(|| format!("missing --{key}"))
}

fn parse_dims(s: &str) -> Result<Vec<usize>, String> {
    let dims: Result<Vec<usize>, _> = s.split(['x', 'X', ',']).map(|t| t.parse()).collect();
    let dims = dims.map_err(|_| format!("bad --dims {s:?} (expected e.g. 60x50x40)"))?;
    if dims.len() < 2 || dims.contains(&0) {
        return Err("need at least two nonzero dimensions".into());
    }
    Ok(dims)
}

/// The validated `--dtype` flag, or `None` when absent (commands pick
/// their own default: `gen` writes f64, `decompose`/`profile` follow
/// the input file).
fn dtype_flag(opts: &HashMap<String, String>) -> Result<Option<Dtype>, String> {
    opts.get("dtype").map(|s| Dtype::parse(s)).transpose()
}

fn num<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| format!("bad --{key} {s:?}")),
    }
}

fn cmd_gen(opts: &HashMap<String, String>) -> CliResult {
    let dims = parse_dims(require(opts, "dims")?)?;
    let rank: usize = num(opts, "rank", 4)?;
    let noise: f64 = num(opts, "noise", 0.0)?;
    let seed: u64 = num(opts, "seed", 0)?;
    let out = require(opts, "out")?;
    let dtype = dtype_flag(opts)?.unwrap_or(Dtype::F64);

    if opts.contains_key("ooc") {
        if dtype != Dtype::F64 {
            return Err("--ooc tile stores are f64-only (drop --dtype f32)".into());
        }
        // Stream a tile store straight from the Kruskal generator —
        // the tensor never materializes, so its size is bounded by
        // disk, not RAM. Noise is hashed per entry (order-independent,
        // unlike the in-core stream) so tiles can be generated in any
        // order.
        let budget = ooc_budget(opts)?;
        let layout = ooc_layout(opts, &dims, budget)?;
        print_ooc_header(&layout, budget);
        let model = KruskalModel::<f64>::random(&dims, rank, seed);
        // Noise amplitude from the model norm (no materialized data to
        // measure): ‖X‖/√I ≈ √(norm_sq/I).
        let total: usize = dims.iter().product();
        let scale = (model.norm_sq() / total as f64).sqrt() * noise;
        TileStore::write_with(out, &layout, |idx| {
            let mut s = model.entry(idx);
            if noise > 0.0 {
                let ell = linear_index(&dims, idx) as u64;
                let mut rng = Rng64::seed_from_u64(seed ^ 0x5EED ^ ell);
                s += scale * (rng.next_f64() - 0.5);
            }
            s
        })
        .map_err(|e| e.to_string())?;
        println!("wrote rank-{rank} tile store {dims:?} (+{noise} noise) to {out}");
        return Ok(());
    }

    // Generate in f64 regardless of the output dtype, then narrow once
    // at the end — the f32 file holds the rounded values of the same
    // reproducible stream, not a stream drawn at f32.
    let mut x = KruskalModel::<f64>::random(&dims, rank, seed).to_dense();
    if noise > 0.0 {
        let scale = x.norm() / (x.len() as f64).sqrt() * noise;
        let mut rng = Rng64::seed_from_u64(seed ^ 0x5EED);
        for v in x.data_mut() {
            *v += scale * (rng.next_f64() - 0.5);
        }
    }
    match dtype {
        Dtype::F64 => write_tensor(out, &x),
        Dtype::F32 => write_tensor(out, &x.cast::<f32>()),
    }
    .map_err(|e| e.to_string())?;
    println!("wrote rank-{rank} {dtype} tensor {dims:?} (+{noise} noise) to {out}");
    Ok(())
}

fn cmd_gen_fmri(opts: &HashMap<String, String>) -> CliResult {
    let cfg = match opts.get("preset").map(|s| s.as_str()).unwrap_or("small") {
        "small" => FmriConfig::small(),
        "medium" => FmriConfig {
            time: 96,
            subjects: 16,
            regions: 64,
            latent: 8,
            window: 16,
            seed: 0xF0A1,
        },
        "paper" => FmriConfig::paper(),
        other => return Err(format!("unknown preset {other:?}")),
    };
    let out = require(opts, "out")?;
    let dtype = dtype_flag(opts)?.unwrap_or(Dtype::F64);
    let x4 = cfg.generate_4way();
    let x = if opts.contains_key("three-way") {
        linearize_symmetric(&x4)
    } else {
        x4
    };
    match dtype {
        Dtype::F64 => write_tensor(out, &x),
        Dtype::F32 => write_tensor(out, &x.cast::<f32>()),
    }
    .map_err(|e| e.to_string())?;
    println!("wrote fMRI {dtype} tensor {:?} to {out}", x.dims());
    Ok(())
}

/// The dtype a dense run should execute at: `--dtype` if given, else
/// whatever the input file stores. A `--dtype` that contradicts the
/// file is rejected by the typed reader before the payload is read.
fn run_dtype(opts: &HashMap<String, String>, input: &str) -> Result<Dtype, String> {
    match dtype_flag(opts)? {
        Some(d) => Ok(d),
        None => tensor_dtype(input).map_err(|e| e.to_string()),
    }
}

fn cmd_info(opts: &HashMap<String, String>) -> CliResult {
    let input = require(opts, "input")?;
    if TileStore::is_tile_store(input) {
        let store = TileStore::open(input).map_err(|e| e.to_string())?;
        let l = store.layout();
        let total = l.dim_info().total();
        println!("format    : MTTB tile store");
        println!("dims      : {:?}", l.dims());
        println!("entries   : {total}");
        println!("bytes     : {}", 8 * total);
        println!(
            "tile      : {:?} ({} KB); grid {:?} ({} tiles)",
            l.tile_dims(),
            (8 * l.max_tile_entries()) >> 10,
            l.grid(),
            l.ntiles(),
        );
        return Ok(());
    }
    match tensor_dtype(input).map_err(|e| e.to_string())? {
        Dtype::F64 => print_dense_info::<f64>(&read_tensor(input).map_err(|e| e.to_string())?),
        Dtype::F32 => print_dense_info::<f32>(&read_tensor(input).map_err(|e| e.to_string())?),
    }
    Ok(())
}

fn print_dense_info<S: Scalar>(x: &DenseTensor<S>) {
    println!("dims      : {:?}", x.dims());
    println!("dtype     : {}", S::DTYPE);
    println!("entries   : {}", x.len());
    println!("bytes     : {}", x.len() * S::DTYPE.size_bytes());
    println!("frobenius : {:.6e}", x.norm());
    let info = x.info();
    for n in 0..x.order() {
        println!(
            "mode {n}   : I_n = {:<8} IL_n = {:<10} IR_n = {:<10} ({})",
            info.dim(n),
            info.i_left(n),
            info.i_right(n),
            if n == 0 || n == x.order() - 1 {
                "external"
            } else {
                "internal"
            },
        );
    }
}

fn cmd_decompose(opts: &HashMap<String, String>) -> CliResult {
    let rank: usize = num(opts, "rank", 4)?;
    let iters: usize = num(opts, "iters", 50)?;
    let tol: f64 = num(opts, "tol", 1e-8)?;
    let threads: usize = num(opts, "threads", 0)?;
    let seed: u64 = num(opts, "seed", 42)?;
    let pool = if threads == 0 {
        ThreadPool::host()
    } else {
        ThreadPool::new(threads)
    };
    // `Tuned` consults the loaded tuning profile per mode and is
    // identical to `Auto` (the paper heuristic) when none is loaded.
    let cp_opts = CpAlsOptions {
        max_iters: iters,
        tol,
        strategy: MttkrpStrategy::Tuned,
    };
    let method = opts.get("method").map(|s| s.as_str()).unwrap_or("als");
    let perf_out = opts.get("perf-report").cloned();

    if opts.contains_key("ooc") {
        if perf_out.is_some() {
            // The roofline model prices in-core operand traffic; tiled
            // streaming has a different (prefetch-overlapped) profile.
            eprintln!("note: --perf-report covers in-core decompositions only; skipping it here");
        }
        if method != "als" {
            return Err(format!("--ooc supports --method als only (got {method:?})"));
        }
        if dtype_flag(opts)? == Some(Dtype::F32) {
            return Err("--ooc decomposition is f64-only (drop --dtype f32)".into());
        }
        let input = require(opts, "input")?;
        let budget = ooc_budget(opts)?;
        // A tile store streams directly; a dense file is converted to
        // a temporary store first (held on disk, not in memory, past
        // the conversion pass).
        let mut temp: Option<std::path::PathBuf> = None;
        let x = if TileStore::is_tile_store(input) {
            OocTensor::open(input).map_err(|e| e.to_string())?
        } else {
            let dense = read_tensor(input).map_err(|e| e.to_string())?;
            let layout = ooc_layout(opts, dense.dims(), budget)?;
            let path =
                std::env::temp_dir().join(format!("tensorcp_ooc_{}.mttb", std::process::id()));
            let store =
                TileStore::write_dense(&path, &layout, &dense).map_err(|e| e.to_string())?;
            temp = Some(path);
            OocTensor::from_store(store).map_err(|e| e.to_string())?
        };
        mttkrp_ooc::reset_peak_resident_tile_bytes();
        print_ooc_header(x.layout(), budget);

        let init = KruskalModel::random(x.dims(), rank, seed);
        let t0 = std::time::Instant::now();
        let (model, report) = cp_als(&pool, &x, init, &cp_opts);
        let elapsed = t0.elapsed().as_secs_f64();
        println!(
            "resident peak : {} KB (tile buffers)",
            mttkrp_ooc::peak_resident_tile_bytes() >> 10
        );
        if let Some(path) = temp {
            std::fs::remove_file(path).ok();
        }
        print_decompose_report("als (out-of-core)", rank, &model, &report, elapsed);
        return write_model_out(opts, &model);
    }

    let input = require(opts, "input")?;
    let dtype = run_dtype(opts, input)?;
    if dtype == Dtype::F32 {
        if method != "als" {
            return Err(format!(
                "--dtype f32 supports --method als only (got {method:?}; nn is an f64 path)"
            ));
        }
        // The whole sweep runs at f32 storage (f64 accumulators inside
        // every reduction); the model is widened only for the report
        // and the f64 MTKM file.
        let x: DenseTensor<f32> = read_tensor(input).map_err(|e| e.to_string())?;
        let init = KruskalModel::<f32>::random(x.dims(), rank, seed);
        let t0 = std::time::Instant::now();
        let (model, report) = cp_als(&pool, &x, init, &cp_opts);
        let elapsed = t0.elapsed().as_secs_f64();
        println!("dtype         : f32 (f64 accumulators)");
        let dims = x.dims().to_vec();
        let model = model.cast::<f64>();
        print_decompose_report(method, rank, &model, &report, elapsed);
        if let Some(out) = &perf_out {
            perf_report_out::<f32>(out, &pool, &dims, rank, AlgoChoice::Tuned, &report)?;
        }
        return write_model_out(opts, &model);
    }
    let x: DenseTensor<f64> = read_tensor(input).map_err(|e| e.to_string())?;
    let init = KruskalModel::random(x.dims(), rank, seed);
    let t0 = std::time::Instant::now();
    let (model, report): (KruskalModel, CpAlsReport) = match method {
        "als" => cp_als(&pool, &x, init, &cp_opts),
        "nn" => cp_als_nn(&pool, &x, init, &cp_opts),
        other => return Err(format!("unknown method {other:?} (als|nn)")),
    };
    let elapsed = t0.elapsed().as_secs_f64();
    print_decompose_report(method, rank, &model, &report, elapsed);
    if let Some(out) = &perf_out {
        // `nn` always plans with the heuristic; mirror that so the
        // report's algorithm labels match what actually ran.
        let choice = if method == "nn" {
            AlgoChoice::Heuristic
        } else {
            AlgoChoice::Tuned
        };
        perf_report_out::<f64>(out, &pool, x.dims(), rank, choice, &report)?;
    }
    write_model_out(opts, &model)
}

/// `decompose --perf-report FILE`: fold the sweep's per-mode breakdowns
/// through the roofline bridge and write the `mttkrp-perf-v1` report.
///
/// Per-mode plans are rebuilt with the same `AlgoChoice` the driver
/// used, purely to recover the resolved algorithm and the cost model's
/// prediction (which feeds drift detection) — nothing is re-executed.
fn perf_report_out<S: Scalar>(
    out: &str,
    pool: &ThreadPool,
    dims: &[usize],
    rank: usize,
    choice: AlgoChoice,
    report: &CpAlsReport,
) -> CliResult {
    if dims.len() >= 3 {
        // `als` and `nn` on an order >= 3 tensor ran the two-group sweep
        // (`MttkrpPlanSet::for_sweep`), whose partial GEMMs serve every
        // mode; the roofline bridge prices per-mode kernels.
        eprintln!(
            "note: --perf-report prices per-mode kernels, and this sweep shared two partial \
             GEMMs across the modes; skipping it (`mttkrp-harness --perf-report` prices the kernels)"
        );
        return Ok(());
    }
    let Some(profile) = mttkrp_tune::installed_profile() else {
        eprintln!(
            "note: --perf-report needs a tuning profile for the machine roofs; \
             run `tensorcp tune --out host.tune` and set MTTKRP_TUNE_PROFILE=host.tune"
        );
        return Ok(());
    };
    let runs: Vec<mttkrp_tune::ModeRun> = report
        .mode_breakdowns
        .iter()
        .enumerate()
        .map(|(n, bd)| {
            let plan = MttkrpPlan::<S>::new(pool, dims, rank, n, choice);
            mttkrp_tune::ModeRun {
                mode: n,
                algo: plan.algo(),
                predicted: plan.predicted_times(),
                runs: report.iters.max(1),
                breakdown: *bd,
                gemm_bytes: None,
            }
        })
        .collect();
    let perf = mttkrp_tune::perf_report_with(
        profile,
        dims,
        rank,
        pool.num_threads(),
        std::mem::size_of::<S>(),
        mttkrp_blas::kernels::<S>().tier(),
        &runs,
    );
    print!("{}", perf.table());
    perf.save(out).map_err(|e| e.to_string())?;
    println!("perf report   : {out} (mttkrp-perf-v1)");
    Ok(())
}

fn print_decompose_report(
    method: &str,
    rank: usize,
    model: &KruskalModel,
    report: &CpAlsReport,
    elapsed: f64,
) {
    println!("method        : {method}");
    println!(
        "tuning        : {}",
        if mttkrp_tune::installed_profile().is_some() {
            "profile-backed choice (MTTKRP_TUNE_PROFILE)"
        } else {
            "heuristic (no tuning profile loaded)"
        }
    );
    println!("rank          : {rank}");
    println!(
        "iterations    : {} (converged = {})",
        report.iters, report.converged
    );
    println!("final fit     : {:.6}", report.final_fit());
    println!(
        "total time    : {elapsed:.3}s ({:.3}s/iter)",
        report.mean_iter_time()
    );
    println!(
        "mttkrp share  : {:.1}%",
        100.0 * report.mttkrp_time / elapsed.max(1e-12)
    );
    println!(
        "lambda        : {:?}",
        model
            .lambda
            .iter()
            .map(|l| (l * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
}

fn write_model_out(opts: &HashMap<String, String>, model: &KruskalModel) -> CliResult {
    if let Some(path) = opts.get("model-out") {
        let stored = StoredModel {
            dims: model.dims().to_vec(),
            rank: model.rank(),
            lambda: model.lambda.clone(),
            factors: model.factors.clone(),
        };
        write_model(path, &stored).map_err(|e| e.to_string())?;
        println!("model written : {path}");
    }
    Ok(())
}

fn cmd_tune(opts: &HashMap<String, String>) -> CliResult {
    let threads: usize = num(opts, "threads", 0)?;
    let tune_opts = mttkrp_tune::CalibrateOptions {
        threads: (threads > 0).then_some(threads),
        quick: opts.contains_key("quick"),
    };
    println!(
        "calibrating host ({} threads, kernel tiers: {})...",
        tune_opts.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }),
        mttkrp_blas::available_tiers()
            .iter()
            .map(|t| t.name())
            .collect::<Vec<_>>()
            .join(","),
    );
    let profile = mttkrp_tune::calibrate(&tune_opts);
    print!("{}", profile.to_text());
    if let Some(out) = opts.get("out") {
        profile.save(out).map_err(|e| e.to_string())?;
        println!("profile written : {out}");
        println!("use it with     : MTTKRP_TUNE_PROFILE={out}");
    }
    Ok(())
}

fn cmd_profile(opts: &HashMap<String, String>) -> CliResult {
    let input = require(opts, "input")?;
    match run_dtype(opts, input)? {
        Dtype::F64 => profile_at::<f64>(opts, &read_tensor(input).map_err(|e| e.to_string())?),
        Dtype::F32 => profile_at::<f32>(opts, &read_tensor(input).map_err(|e| e.to_string())?),
    }
}

fn profile_at<S: Scalar>(opts: &HashMap<String, String>, x: &DenseTensor<S>) -> CliResult {
    let rank: usize = num(opts, "rank", 25)?;
    let threads: usize = num(opts, "threads", 0)?;
    let pool = if threads == 0 {
        ThreadPool::host()
    } else {
        ThreadPool::new(threads)
    };
    let dims = x.dims().to_vec();
    let factors: Vec<Vec<S>> = random_factors(&dims, rank, 1)
        .into_iter()
        .map(|f| f.into_iter().map(S::from_f64).collect())
        .collect();
    let refs: Vec<MatRef<S>> = factors
        .iter()
        .zip(&dims)
        .map(|(f, &d)| MatRef::from_slice(f, d, rank, Layout::RowMajor))
        .collect();

    println!("algorithm,mode,total_ms,reorder_ms,krp_ms,gemm_ms,gemv_ms,reduce_ms");
    for n in 0..dims.len() {
        let mut out = vec![S::ZERO; dims[n] * rank];
        let bd = mttkrp_explicit_timed(&pool, x, &refs, n, &mut out);
        print_row("explicit", n, &bd);
        let bd = mttkrp_1step_timed(&pool, x, &refs, n, &mut out);
        print_row("1step", n, &bd);
        if n > 0 && n < dims.len() - 1 {
            let bd = mttkrp_2step_timed(&pool, x, &refs, n, &mut out, TwoStepSide::Auto);
            print_row("2step", n, &bd);
        }
    }
    Ok(())
}

fn print_row(alg: &str, n: usize, bd: &mttkrp_core::Breakdown) {
    println!(
        "{alg},{n},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3}",
        bd.total * 1e3,
        bd.reorder * 1e3,
        (bd.full_krp + bd.lr_krp) * 1e3,
        bd.dgemm * 1e3,
        bd.dgemv * 1e3,
        bd.reduce * 1e3,
    );
}
