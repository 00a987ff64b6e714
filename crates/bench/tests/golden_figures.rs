//! Golden-file regression for the checked-in figure tables.
//!
//! Each `results/fig*.txt` is the captured stdout of one figure binary at
//! fixed seeds. These tests re-run the binaries and diff the output
//! byte-for-byte against the checked-in files, so any behavior change in
//! the simulation/training/replay stack that shifts a published number
//! must come with a regenerated table in the same commit.
//!
//! Machine-measured sections (inference latency on this CPU, training
//! wall-clock — fig 15a/15c and the tail of fig 16) are excluded from the
//! diff, and machine-measured *columns* inside otherwise deterministic
//! tables (fig 18's explore-seconds) are masked out line by line on both
//! sides; everything else is compared exactly.
//!
//! The default test covers the fast figures. Every slow figure is its own
//! `#[ignore]`d test, so `-- --ignored` runs the rest of the catalog and
//! `-- --ignored fig17`-style filters pick one. Measured cost in release
//! on the 2-vCPU CI-class host: fig05 32 s, fig09 4.5 min, fig11 61 s,
//! fig12, fig13 and fig15 ~10 s each, fig14 20 s; the dev profile is
//! roughly twice that.

use std::path::PathBuf;
use std::process::Command;

/// Which part of the table is deterministic across machines.
enum Compare {
    /// The whole file, byte for byte.
    Full,
    /// Only lines strictly before the first line starting with the marker.
    Until(&'static str),
    /// Only lines from the first marker (inclusive) to the second
    /// (exclusive).
    Between(&'static str, &'static str),
}

struct Figure {
    /// Checked-in file under `results/`.
    golden: &'static str,
    /// Binary under `crates/bench/src/bin/`.
    bin: &'static str,
    /// Arguments the golden file was captured with.
    args: &'static [&'static str],
    /// Annotation lines at the top of the golden file that are not part
    /// of the binary's stdout.
    skip_golden_lines: usize,
    compare: Compare,
    /// Per-line projection applied to *both* sides of the diff after the
    /// region selection — used to blank machine-measured columns inside
    /// otherwise deterministic tables.
    mask: Option<fn(&str) -> String>,
}

const fn fig(golden: &'static str, bin: &'static str) -> Figure {
    Figure {
        golden,
        bin,
        args: &[],
        skip_golden_lines: 0,
        compare: Compare::Full,
        mask: None,
    }
}

/// Masks fig 18's explore-seconds column (third token from the end) on
/// data rows — the rows whose last four whitespace tokens all parse as
/// f64. Header, summary, and `n/a` rows pass through untouched. Matched
/// rows are re-joined with single spaces, which is fine because the same
/// projection runs on the golden and the fresh output.
fn mask_fig18_explore_seconds(line: &str) -> String {
    let mut tokens: Vec<&str> = line.split_whitespace().collect();
    let n = tokens.len();
    if n >= 5 && tokens[n - 4..].iter().all(|t| t.parse::<f64>().is_ok()) {
        tokens[n - 3] = "***";
        tokens.join(" ")
    } else {
        line.to_string()
    }
}

/// Figures cheap enough to regenerate on every `cargo test`.
const FAST: &[Figure] = &[
    Figure {
        args: &["--datasets", "3", "--secs", "6"],
        skip_golden_lines: 1,
        ..fig("fig08_models.txt", "fig08_models")
    },
    Figure {
        args: &["--datasets", "3", "--secs", "6"],
        skip_golden_lines: 1,
        ..fig("fig07_features.txt", "fig07_features")
    },
    fig("fig10_heuristics.txt", "fig10_heuristics"),
    Figure {
        compare: Compare::Until("=== Inference latency"),
        ..fig("fig16_overhead.txt", "fig16_overhead")
    },
    Figure {
        args: &["--datasets", "3", "--secs", "5", "--candidates", "1"],
        skip_golden_lines: 1,
        mask: Some(mask_fig18_explore_seconds),
        ..fig("fig18_automl.txt", "fig18_automl")
    },
    // 8 s in release: the only end-to-end guard on `core::retrain`.
    Figure {
        args: &["--secs", "120", "--seed", "6"],
        skip_golden_lines: 1,
        ..fig("fig17_retrain.txt", "fig17_retrain")
    },
];

fn workspace_root() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop();
    dir.pop();
    dir
}

/// Projects a table onto its deterministic region, then blanks any
/// machine-measured columns via the figure's line mask.
fn comparable(content: &str, figure: &Figure) -> String {
    let lines = content.lines();
    let kept: Vec<&str> = match &figure.compare {
        Compare::Full => lines.collect(),
        Compare::Until(marker) => lines.take_while(|l| !l.starts_with(marker)).collect(),
        Compare::Between(start, end) => lines
            .skip_while(|l| !l.starts_with(start))
            .take_while(|l| !l.starts_with(end))
            .collect(),
    };
    match figure.mask {
        Some(mask) => kept
            .into_iter()
            .map(mask)
            .collect::<Vec<String>>()
            .join("\n"),
        None => kept.join("\n"),
    }
}

fn check_figure(figure: &Figure) {
    let root = workspace_root();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let bin = root.join("target").join(profile).join(figure.bin);
    assert!(
        bin.is_file(),
        "{} not built; `cargo build -p heimdall-bench` first",
        bin.display()
    );
    // Divert the binary's run-report (`results/<fig>.run.json`, which
    // carries wall-clock timings) into a scratch dir: the report writer
    // anchors `results/` on the nearest Cargo.lock, and the inherited
    // CARGO_MANIFEST_DIR would point it at the real workspace.
    let scratch = root.join("target").join("golden-scratch").join(figure.bin);
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    std::fs::write(scratch.join("Cargo.lock"), "").expect("anchor scratch dir");
    let out = Command::new(&bin)
        .args(figure.args)
        .current_dir(&scratch)
        .env_remove("CARGO_MANIFEST_DIR")
        .output()
        .unwrap_or_else(|e| panic!("spawning {}: {e}", bin.display()));
    assert!(
        out.status.success(),
        "{} {:?} exited with {}:\n{}",
        figure.bin,
        figure.args,
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let fresh = String::from_utf8(out.stdout).expect("figure tables are utf-8");

    let golden_path = root.join("results").join(figure.golden);
    let golden_raw = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", golden_path.display()));
    let golden_body: String = golden_raw
        .lines()
        .skip(figure.skip_golden_lines)
        .collect::<Vec<_>>()
        .join("\n");

    let want = comparable(&golden_body, figure);
    let got = comparable(&fresh, figure);
    assert_eq!(
        got,
        want,
        "{} diverged from results/{} — if the change is intentional, \
         regenerate the table (`{} {}` > results/{}) in the same commit",
        figure.bin,
        figure.golden,
        figure.bin,
        figure.args.join(" "),
        figure.golden,
    );
}

#[test]
fn fast_figure_tables_match_checked_in_goldens() {
    for figure in FAST {
        check_figure(figure);
    }
}

#[test]
#[ignore = "slow sweep figure: ~32 s in release"]
fn fig05_labeling_matches_checked_in_golden() {
    check_figure(&fig("fig05_labeling.txt", "fig05_labeling"));
}

#[test]
#[ignore = "slow sweep figure: ~4.5 min in release"]
fn fig09_tuning_matches_checked_in_golden() {
    check_figure(&fig("fig09_tuning.txt", "fig09_tuning"));
}

#[test]
#[ignore = "slow sweep figure: ~61 s in release"]
fn fig11_large_scale_matches_checked_in_golden() {
    check_figure(&fig("fig11_large_scale.txt", "fig11_large_scale"));
}

#[test]
#[ignore = "slow sweep figure: ~10 s in release"]
fn fig12_kernel_matches_checked_in_golden() {
    check_figure(&fig("fig12_kernel.txt", "fig12_kernel"));
}

#[test]
#[ignore = "slow sweep figure: ~10 s in release"]
fn fig13_wide_scale_matches_checked_in_golden() {
    check_figure(&fig("fig13_wide_scale.txt", "fig13_wide_scale"));
}

#[test]
#[ignore = "slow sweep figure: ~20 s in release"]
fn fig14_ablation_matches_checked_in_golden() {
    check_figure(&fig("fig14_ablation.txt", "fig14_ablation"));
}

#[test]
#[ignore = "slow sweep figure: ~10 s in release"]
fn fig15_joint_matches_checked_in_golden() {
    check_figure(&Figure {
        compare: Compare::Between("=== Fig 15b", "=== Fig 15c"),
        ..fig("fig15_joint.txt", "fig15_joint")
    });
}
