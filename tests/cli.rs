//! Integration tests for the `ugraph` command-line binary: generate →
//! stats → cluster → evaluate round trips through real files.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ugraph"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ugraph-cli-test-{}-{name}", std::process::id()));
    p
}

/// Writes a small graph file and returns its path. Every call writes a
/// file of its own: tests run in parallel, and rewriting one shared path
/// while another test's binary reads it hands that binary a torn file.
fn small_graph_file() -> PathBuf {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let path = tmp(&format!("graph-{}.txt", CALLS.fetch_add(1, Ordering::Relaxed)));
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
fn repeated_ground_truth_members_do_not_change_the_rates() {
    // Path 0-1-2 clustered as one cluster: the complex {0, 1} is predicted
    // exactly, whether or not its file line repeats protein 1.
    let graph = tmp("path3.txt");
    std::fs::write(&graph, "# nodes: 3\n0 1 0.9\n1 2 0.9\n").unwrap();
    let clustering = tmp("path3.tsv");
    std::fs::write(&clustering, "0\t0\t1\n1\t0\t1\n2\t0\t1\n").unwrap();
    let mut outputs = Vec::new();
    for (name, line) in [("once", "0 1\n"), ("twice", "0 1 1\n")] {
        let gt = tmp(&format!("path3-gt-{name}.txt"));
        std::fs::write(&gt, line).unwrap();
        let out = bin()
            .args(["evaluate", "--samples", "8", "--clustering"])
            .arg(&clustering)
            .arg("--input")
            .arg(&graph)
            .arg("--ground-truth")
            .arg(&gt)
            .output()
            .unwrap();
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(stdout.contains("TPR        1.0000\n"), "{name}: {stdout}");
        outputs.push(stdout);
    }
    assert_eq!(outputs[0], outputs[1]);
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
fn bad_clustering_files_are_named_errors() {
    let graph = small_graph_file();
    for (name, line) in [
        ("center-out-of-range", "0 0 99999"),
        ("center-outside-cluster", "0 0 5"),
        ("cluster-past-u32", "0 4294967296 0"),
        ("cluster-huge", "0 100000000000 0"),
    ] {
        let clustering = tmp(&format!("{name}.tsv"));
        std::fs::write(&clustering, format!("{line}\n")).unwrap();
        let out = bin()
            .args(["evaluate", "--samples", "16", "--clustering"])
            .arg(&clustering)
            .arg("--input")
            .arg(&graph)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.contains("error:"), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
}

/// `evaluate --depth D` grades the clustering over paths of at most D
/// hops. On the certain path 0–1–2–3–4 as one cluster centered at 0, nodes
/// 3 and 4 are out of reach at depth 2.
#[test]
fn evaluate_honours_depth() {
    let graph = tmp("path.txt");
    std::fs::write(&graph, "0 1 1.0\n1 2 1.0\n2 3 1.0\n3 4 1.0\n").unwrap();
    let clustering = tmp("path-clustering.tsv");
    let lines: String = (0..5).map(|u| format!("{u}\t0\t0\n")).collect();
    std::fs::write(&clustering, lines).unwrap();
    for (depth, p_min, p_avg) in [(Some("2"), "0.0000", "0.6000"), (None, "1.0000", "1.0000")] {
        let mut cmd = bin();
        cmd.args(["evaluate", "--samples", "8", "--clustering"]).arg(&clustering);
        cmd.arg("--input").arg(&graph);
        if let Some(d) = depth {
            cmd.args(["--depth", d]);
        }
        let out = cmd.output().unwrap();
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let value = |key: &str| {
            let line = stdout.lines().find(|l| l.starts_with(key)).unwrap();
            line.split_whitespace().nth(1).unwrap().to_string()
        };
        assert_eq!(value("p_min"), p_min, "depth {depth:?}: {stdout}");
        assert_eq!(value("p_avg"), p_avg, "depth {depth:?}: {stdout}");
    }
}

/// `evaluate --memory-budget` keeps the session's ledger within the limit:
/// AVPR reads every world of the evaluation pool, and labels only blocks
/// whose labels the budget can keep, so under 1 MiB it labels none of
/// Collins-like's blocks and reports the unbounded run's values.
#[test]
fn evaluate_stays_within_its_memory_budget() {
    let graph = tmp("collins.txt");
    let clustering = tmp("collins-mcp.tsv");
    let run = |args: &[&str]| {
        let out = bin().args(args).output().unwrap();
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        out
    };
    let (graph, clustering) = (graph.to_str().unwrap(), clustering.to_str().unwrap());
    run(&["generate", "--dataset", "collins", "--output", graph]);
    run(&["cluster", "--input", graph, "--algo", "mcp", "--k", "5", "--output", clustering]);
    let evaluate = ["evaluate", "--input", graph, "--clustering", clustering];
    let free = run(&evaluate);
    // 1 MiB holds the evaluation pool's masks but not the labels the rule
    // counts; 64 KiB is below the masks, so AVPR regenerates the shard
    // that evaluation trimmed and must trim it again.
    for (flag, limit) in [("1M", 1 << 20), ("64K", 64 << 10)] {
        let bounded = run(&[&evaluate[..], &["--memory-budget", flag]].concat());
        assert_eq!(bounded.stdout, free.stdout, "the {flag} budget changed the evaluation");
        let stderr = String::from_utf8_lossy(&bounded.stderr);
        let session = stderr.lines().find(|l| l.starts_with("session:")).unwrap();
        let held: usize = session
            .split(", ")
            .find_map(|part| part.strip_suffix(" byte(s) held"))
            .and_then(|part| part.rsplit(' ').next())
            .unwrap()
            .parse()
            .unwrap();
        assert!(held <= limit, "{held} B held over the {flag} limit: {session}");
    }
}

#[test]
fn out_of_range_inflation_and_scale_are_flag_errors() {
    let graph = small_graph_file();
    let graph = graph.to_str().unwrap();
    let out_file = tmp("never-written.txt");
    let out_file = out_file.to_str().unwrap();
    let mut cases = Vec::new();
    for v in ["1", "0", "NaN", "inf"] {
        cases.push((
            "--inflation",
            vec!["cluster", "--algo", "mcl", "--inflation", v, "--input", graph],
        ));
    }
    for v in ["0", "-1", "2", "NaN"] {
        cases.push((
            "--scale",
            vec!["generate", "--dataset", "dblp", "--scale", v, "--output", out_file],
        ));
        cases.push(("--scale", vec!["serve", "--dataset", "dblp", "--scale", v]));
    }
    for (flag, args) in cases {
        let out = bin().args(&args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("error: flag {flag}")), "{args:?}: {stderr}");
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
fn retired_engine_flag_is_unknown() {
    let graph = small_graph_file();
    for command in ["cluster --algo mcp --k 2", "sweep --algo mcp --k-min 2 --k-max 3"] {
        let out = bin()
            .args(command.split_whitespace())
            .args(["--engine", "adaptive", "--input"])
            .arg(&graph)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{command}: {stderr}");
        assert!(stderr.contains("error: unknown flag '--engine'"), "{command}: {stderr}");
    }
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

/// A file whose stem repeats a `--dataset` name would hide one of the two
/// graphs behind the other; `serve` refuses to start instead.
#[test]
fn serve_rejects_two_graphs_under_one_name() {
    let dir = tmp("serve-repeated-name");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("collins.txt");
    std::fs::copy(small_graph_file(), &input).unwrap();
    let out = bin()
        .args(["serve", "--listen", "127.0.0.1:0", "--dataset", "collins", "--input"])
        .arg(&input)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error: cannot serve: "), "{stderr}");
    assert!(stderr.contains("`collins`"), "the error must name the graph: {stderr}");
}

/// Each command rejects a flag it does not read, naming the flag and the
/// command, before doing any work: `serve` never binds and `client` never
/// dials (were they to get that far, the unknown dataset and the closed
/// port would fail with exit 1 instead).
#[test]
fn unread_flags_are_named_errors() {
    let graph = small_graph_file();
    let clustering = tmp("unread-flag.tsv");
    std::fs::write(&clustering, "0\t0\t0\n").unwrap();
    let out_file = tmp("unread-flag-never-written.txt");
    // Each case names the first unread flag and the command (or
    // `cluster --algo`) that does not read it.
    let cases = [
        ("generate --dataset krogan --output OUT --samples 8", "--samples", "generate"),
        ("stats --input GRAPH --k 5", "--k", "stats"),
        ("cluster --input GRAPH --algo mcp --k 2 --samples 8", "--samples", "cluster"),
        ("sweep --input GRAPH --algo mcp --k-min 2 --k-max 3 --k 2", "--k", "sweep"),
        ("evaluate --input GRAPH --clustering CLUSTERING --inflation 2", "--inflation", "evaluate"),
        // Solver flags used to pass `evaluate` silently; the first is named.
        (
            "evaluate --input GRAPH --clustering CLUSTERING --samples 8 --timeout 1ms --k-min 3 \
             --best-effort --algo gmm",
            "--timeout",
            "evaluate",
        ),
        ("knn --input GRAPH --source 0 --memory-budget 1M", "--memory-budget", "knn"),
        ("serve --listen 127.0.0.1:0 --dataset no-such-dataset --k 3", "--k", "serve"),
        (
            "client cluster --connect 127.0.0.1:1 --retries 0 --k 2 --samples 8",
            "--samples",
            "client",
        ),
        // `cluster` reads a flag only for the algorithms that use it.
        (
            "cluster --input GRAPH --algo gmm --k 5 --depth 3 --memory-budget 1K --timeout 1ms \
             --best-effort --inflation 3 --output OUT",
            "--depth",
            "cluster --algo gmm",
        ),
        ("cluster --input GRAPH --algo gmm --k 5 --timeout 1ms", "--timeout", "cluster --algo gmm"),
        ("cluster --input GRAPH --algo mcl --k 7 --depth 2", "--k", "cluster --algo mcl"),
        ("cluster --input GRAPH --algo mcl --seed 4", "--seed", "cluster --algo mcl"),
        (
            "cluster --inflation 9 --input GRAPH --algo mcp --k 2",
            "--inflation",
            "cluster --algo mcp",
        ),
        (
            "cluster --input GRAPH --algo acp --k 2 --inflation 2",
            "--inflation",
            "cluster --algo acp",
        ),
        (
            "cluster --input GRAPH --algo kpt --memory-budget 1M",
            "--memory-budget",
            "cluster --algo kpt",
        ),
    ];
    for (line, flag, reader) in cases {
        let args: Vec<&str> = line
            .split_whitespace()
            .map(|arg| match arg {
                "GRAPH" => graph.to_str().unwrap(),
                "CLUSTERING" => clustering.to_str().unwrap(),
                "OUT" => out_file.to_str().unwrap(),
                arg => arg,
            })
            .collect();
        let out = bin().args(&args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
        let named = format!("error: flag {flag} is not read by `{reader}`");
        assert!(stderr.contains(&named), "{line}: {stderr}");
    }
    assert!(!out_file.exists(), "a command ran despite an unread flag");
}
