//! End-to-end tests of the `tensorcp` binary: generate → inspect →
//! decompose → persist, through the real CLI surface.

use std::path::PathBuf;
use std::process::Command;

fn tensorcp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tensorcp"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tensorcp_test_{}_{name}", std::process::id()))
}

#[test]
fn gen_info_decompose_round_trip() {
    let tensor_path = tmp("x.mtkt");
    let model_path = tmp("m.mtkm");

    let out = tensorcp()
        .args([
            "gen", "--dims", "12x10x8", "--rank", "2", "--seed", "3", "--out",
        ])
        .arg(&tensor_path)
        .output()
        .expect("run tensorcp gen");
    assert!(
        out.status.success(),
        "gen failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = tensorcp()
        .args(["info", "--input"])
        .arg(&tensor_path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("[12, 10, 8]"), "info output: {text}");
    assert!(text.contains("960"), "entry count missing: {text}");
    assert!(
        text.contains("internal"),
        "mode classification missing: {text}"
    );

    let out = tensorcp()
        .args([
            "decompose",
            "--rank",
            "2",
            "--iters",
            "200",
            "--method",
            "als",
            "--input",
        ])
        .arg(&tensor_path)
        .arg("--model-out")
        .arg(&model_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "decompose failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // A rank-2 planted tensor must be fit almost exactly.
    let fit_line = text
        .lines()
        .find(|l| l.starts_with("final fit"))
        .expect("fit line");
    let fit: f64 = fit_line.split(':').nth(1).unwrap().trim().parse().unwrap();
    assert!(fit > 0.99, "fit = {fit}");

    // The stored model must parse back.
    let model = mttkrp_workloads::read_model(&model_path).expect("read model");
    assert_eq!(model.dims, vec![12, 10, 8]);
    assert_eq!(model.rank, 2);
    assert_eq!(model.factors.len(), 3);

    std::fs::remove_file(&tensor_path).ok();
    std::fs::remove_file(&model_path).ok();
}

#[test]
fn profile_reports_all_modes_and_algorithms() {
    let tensor_path = tmp("p.mtkt");
    let out = tensorcp()
        .args(["gen", "--dims", "8x6x7", "--rank", "2", "--out"])
        .arg(&tensor_path)
        .output()
        .unwrap();
    assert!(out.status.success());

    let out = tensorcp()
        .args(["profile", "--rank", "4", "--input"])
        .arg(&tensor_path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "explicit,0",
        "1step,0",
        "explicit,1",
        "1step,1",
        "2step,1",
        "1step,2",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
    std::fs::remove_file(&tensor_path).ok();
}

#[test]
fn bad_inputs_fail_cleanly() {
    // Unknown method.
    let tensor_path = tmp("b.mtkt");
    tensorcp()
        .args(["gen", "--dims", "4x4", "--out"])
        .arg(&tensor_path)
        .output()
        .unwrap();
    let out = tensorcp()
        .args(["decompose", "--method", "nonsense", "--input"])
        .arg(&tensor_path)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown method"));

    // Missing file.
    let out = tensorcp()
        .args(["info", "--input", "/nonexistent/x.mtkt"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // Malformed dims.
    let out = tensorcp()
        .args(["gen", "--dims", "abc", "--out", "/tmp/never.mtkt"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    std::fs::remove_file(&tensor_path).ok();
}

#[test]
fn ooc_gen_info_decompose_round_trip() {
    let store_path = tmp("o.mttb");
    // Generate a tile store under a budget that forces several tiles
    // (12×10×8 = 7.5 KB; 4 KB budget → ≤ 2 KB tiles).
    let out = tensorcp()
        .args([
            "gen", "--dims", "12x10x8", "--rank", "2", "--seed", "3", "--ooc", "--out",
        ])
        .arg(&store_path)
        .env("MTTKRP_OOC_BUDGET", "4096")
        .output()
        .expect("run tensorcp gen --ooc");
    assert!(
        out.status.success(),
        "gen --ooc failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("grid"),
        "tile grid missing from header: {text}"
    );
    assert!(
        text.contains("budget"),
        "budget missing from header: {text}"
    );
    assert!(text.contains("kernel tier"), "tier missing: {text}");

    let out = tensorcp()
        .args(["info", "--input"])
        .arg(&store_path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("MTTB tile store"), "info output: {text}");
    assert!(text.contains("[12, 10, 8]"), "info output: {text}");

    let out = tensorcp()
        .args([
            "decompose",
            "--rank",
            "2",
            "--iters",
            "400",
            "--ooc",
            "--input",
        ])
        .arg(&store_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "decompose --ooc failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("resident peak"),
        "resident peak missing: {text}"
    );
    let fit_line = text
        .lines()
        .find(|l| l.starts_with("final fit"))
        .expect("fit line");
    let fit: f64 = fit_line.split(':').nth(1).unwrap().trim().parse().unwrap();
    assert!(fit > 0.99, "fit = {fit}");

    // A dense input converts on the fly under --ooc.
    let dense_path = tmp("o.mtkt");
    tensorcp()
        .args([
            "gen", "--dims", "12x10x8", "--rank", "2", "--seed", "3", "--out",
        ])
        .arg(&dense_path)
        .output()
        .unwrap();
    let out = tensorcp()
        .args([
            "decompose",
            "--rank",
            "2",
            "--iters",
            "20",
            "--ooc",
            "--tile",
            "6x5x4",
            "--input",
        ])
        .arg(&dense_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "dense-input --ooc failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("grid [2, 2, 2]"));

    std::fs::remove_file(&store_path).ok();
    std::fs::remove_file(&dense_path).ok();
}

#[test]
fn nn_method_runs_and_dimtree_is_gone() {
    let tensor_path = tmp("m2.mtkt");
    tensorcp()
        .args(["gen", "--dims", "10x8x6", "--rank", "2", "--out"])
        .arg(&tensor_path)
        .output()
        .unwrap();
    let decompose = |method: &str| {
        tensorcp()
            .args([
                "decompose",
                "--rank",
                "2",
                "--iters",
                "15",
                "--method",
                method,
                "--input",
            ])
            .arg(&tensor_path)
            .output()
            .unwrap()
    };
    let out = decompose("nn");
    assert!(
        out.status.success(),
        "nn failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("final fit"));
    // `als` runs the two-group sweep the separate `dimtree` method ran.
    let out = decompose("dimtree");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown method"));
    std::fs::remove_file(&tensor_path).ok();
}
