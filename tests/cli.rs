//! Integration tests for the `ugraph` command-line binary: generate →
//! stats → cluster → evaluate round trips through real files.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ugraph"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ugraph-cli-test-{}-{name}", std::process::id()));
    p
}

/// Writes a small graph file and returns its path.
fn small_graph_file() -> PathBuf {
    let path = tmp("graph.txt");
    let text = "# nodes: 6\n0 1 0.9\n1 2 0.9\n0 2 0.9\n3 4 0.9\n4 5 0.9\n3 5 0.9\n2 3 0.05\n";
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn stats_reports_sizes() {
    let graph = small_graph_file();
    let out = bin().args(["stats", "--input"]).arg(&graph).output().unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("n=6"), "{stdout}");
    assert!(stdout.contains("m=7"), "{stdout}");
}

#[test]
fn cluster_then_evaluate_roundtrip() {
    let graph = small_graph_file();
    let clustering = tmp("clustering.tsv");
    let out = bin()
        .args(["cluster", "--algo", "mcp", "--k", "2", "--seed", "3", "--output"])
        .arg(&clustering)
        .arg("--input")
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let out = bin()
        .args(["evaluate", "--samples", "400", "--clustering"])
        .arg(&clustering)
        .arg("--input")
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("p_min"), "{stdout}");
    // Two reliable triangles split by a weak bridge: p_min must be high.
    let pmin_line = stdout.lines().find(|l| l.starts_with("p_min")).unwrap();
    let pmin: f64 = pmin_line.split_whitespace().nth(1).unwrap().parse().unwrap();
    assert!(pmin > 0.7, "p_min {pmin} too low — wrong clusters?");
}

#[test]
fn generate_and_evaluate_with_ground_truth() {
    let graph = tmp("krogan.txt");
    let gt = tmp("gt.txt");
    let out = bin()
        .args(["generate", "--dataset", "krogan", "--seed", "2", "--output"])
        .arg(&graph)
        .arg("--ground-truth")
        .arg(&gt)
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(graph.exists() && gt.exists());

    // Cluster with KPT (fast, no k needed) and evaluate against the truth.
    let clustering = tmp("krogan-kpt.tsv");
    let out = bin()
        .args(["cluster", "--algo", "kpt", "--output"])
        .arg(&clustering)
        .arg("--input")
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let out = bin()
        .args(["evaluate", "--samples", "64", "--clustering"])
        .arg(&clustering)
        .arg("--input")
        .arg(&graph)
        .arg("--ground-truth")
        .arg(&gt)
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("TPR"), "{stdout}");
    assert!(stdout.contains("F1"), "{stdout}");
}

#[test]
fn knn_query() {
    let graph = small_graph_file();
    let out = bin()
        .args(["knn", "--source", "0", "--k", "3", "--samples", "500", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    // Triangle partners of node 0 come first.
    let first: u32 = lines[0].split('\t').next().unwrap().parse().unwrap();
    assert!(first == 1 || first == 2);
}

#[test]
fn zero_samples_is_a_named_flag_error() {
    let graph = small_graph_file();
    let clustering = tmp("zero-samples.tsv");
    std::fs::write(&clustering, "0\t0\t0\n1\t0\t0\n").unwrap();
    for args in [
        vec!["knn", "--source", "0", "--samples", "0", "--input"],
        vec!["evaluate", "--samples", "0", "--clustering", clustering.to_str().unwrap(), "--input"],
    ] {
        let out = bin().args(&args).arg(&graph).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("error: flag --samples"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn retired_block_width_flag_is_unknown() {
    let graph = small_graph_file();
    let out = bin()
        .args(["cluster", "--algo", "mcp", "--k", "2", "--block-width", "64", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error: unknown flag '--block-width'"), "{stderr}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn missing_required_flag_fails() {
    let out = bin().args(["cluster", "--algo", "mcp"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--input"), "{stderr}");
}

#[test]
fn engine_flag_selects_count_identical_backends() {
    let graph = small_graph_file();
    let mut outputs = Vec::new();
    for engine in ["scalar", "bitparallel", "adaptive"] {
        let path = tmp(&format!("clustering-{engine}.tsv"));
        let out = bin()
            .args(["cluster", "--algo", "mcp", "--k", "2", "--seed", "5", "--engine", engine])
            .arg("--output")
            .arg(&path)
            .arg("--input")
            .arg(&graph)
            .output()
            .unwrap();
        assert!(out.status.success(), "{engine}: {}", String::from_utf8_lossy(&out.stderr));
        outputs.push(std::fs::read_to_string(&path).unwrap());
    }
    // `scalar` names a retired backend and runs the adaptive one.
    assert_eq!(outputs[0], outputs[1], "scalar vs bitparallel clusterings differ");
    assert_eq!(outputs[0], outputs[2], "scalar vs adaptive clusterings differ");

    let out = bin()
        .args(["cluster", "--algo", "mcp", "--k", "2", "--engine", "gpu", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(!out.status.success(), "bogus engine name must be rejected");
}

#[test]
fn sweep_reports_finalization_columns() {
    let graph = small_graph_file();
    let out = bin()
        .args([
            "sweep",
            "--algo",
            "mcp",
            "--k-min",
            "2",
            "--k-max",
            "3",
            "--seed",
            "2",
            "--samples",
            "64",
            "--engine",
            "adaptive",
        ])
        .arg("--input")
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fblk") && stdout.contains("lblq"), "{stdout}");
    // The adaptive sweep must actually have finalized blocks and served
    // label queries somewhere in the table.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("finalized"), "{stderr}");
}
