//! The command-line contract of every `boreas-bench` binary: `--help`
//! exits 0 and lists exactly the flags the binary acts on, and a bad
//! argument exits 2 with a one-line error before any work starts.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Every binary with the flags its usage page must list (besides
/// `--help`).
const BINARIES: &[(&str, &[&str])] = &[
    (env!("CARGO_BIN_EXE_ablation_floorplan_scaling"), &[]),
    (
        env!("CARGO_BIN_EXE_ablation_sensor_delay"),
        &["metrics-out", "resume"],
    ),
    (env!("CARGO_BIN_EXE_baseline_cochran_reda"), &[]),
    (
        env!("CARGO_BIN_EXE_bench_hotpath"),
        &["smoke", "out", "check", "metrics-out"],
    ),
    (
        env!("CARGO_BIN_EXE_bench_training"),
        &["smoke", "out", "check", "metrics-out"],
    ),
    (
        env!("CARGO_BIN_EXE_calibrate"),
        &["auto", "scale", "steps", "iters", "metrics-out", "threads"],
    ),
    (
        env!("CARGO_BIN_EXE_fault_campaign"),
        &[
            "seed",
            "steps",
            "smoke",
            "engine-faults",
            "metrics-out",
            "resume",
        ],
    ),
    (env!("CARGO_BIN_EXE_fig1_severity_surface"), &[]),
    (
        env!("CARGO_BIN_EXE_fig2_severity_sweep"),
        &["smoke", "metrics-out", "resume"],
    ),
    (
        env!("CARGO_BIN_EXE_fig4_thermal_case_study"),
        &["metrics-out", "resume"],
    ),
    (env!("CARGO_BIN_EXE_fig5_sensor_placement"), &[]),
    (
        env!("CARGO_BIN_EXE_fig6_guardband_traces"),
        &["metrics-out", "resume"],
    ),
    (
        env!("CARGO_BIN_EXE_fig7_avg_frequency"),
        &["metrics-out", "resume"],
    ),
    (
        env!("CARGO_BIN_EXE_fig8_dynamic_runs"),
        &["smoke", "metrics-out", "resume", "threads"],
    ),
    (env!("CARGO_BIN_EXE_fig9_mse_vs_size"), &["full"]),
    (env!("CARGO_BIN_EXE_grid_search_cv"), &["paper"]),
    (env!("CARGO_BIN_EXE_promlint"), &[]),
    (env!("CARGO_BIN_EXE_table1_vf_pairs"), &[]),
    (env!("CARGO_BIN_EXE_table2_model_params"), &[]),
    (env!("CARGO_BIN_EXE_table3_split"), &[]),
    (env!("CARGO_BIN_EXE_table4_feature_importance"), &[]),
    (env!("CARGO_BIN_EXE_table_critical_temps"), &[]),
    (env!("CARGO_BIN_EXE_table_overhead"), &[]),
];

/// Runs `bin args` in a scratch directory, failing the test if it
/// outlives `limit`.
fn run(bin: &str, args: &[&str], limit: Duration) -> Output {
    let mut child = Command::new(bin)
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .env("BOREAS_CACHE_DIR", env!("CARGO_TARGET_TMPDIR"))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn binary");
    let start = Instant::now();
    while child.try_wait().expect("poll binary").is_none() {
        if start.elapsed() > limit {
            child.kill().expect("kill binary");
            panic!("{bin} {args:?} still running after {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("collect output")
}

/// `(name, takes a value)` for every flag row of a usage page.
fn usage_flags(usage: &str) -> Vec<(String, bool)> {
    usage
        .lines()
        .filter_map(|line| {
            let row = line.trim_start().strip_prefix("--")?;
            let (name, rest) = row.split_once(' ').unwrap_or((row, ""));
            Some((name.to_string(), rest.starts_with('<')))
        })
        .collect()
}

fn assert_rejected(bin: &str, args: &[&str]) {
    let out = run(bin, args, Duration::from_secs(30));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} started work");
    assert_eq!(stderr.lines().count(), 1, "{bin} {args:?}: {stderr}");
    assert!(stderr.contains("--help"), "{bin} {args:?}: {stderr}");
}

#[test]
fn help_lists_exactly_the_flags_each_binary_reads() {
    for &(bin, expected) in BINARIES {
        let out = run(bin, &["--help"], Duration::from_secs(30));
        assert_eq!(out.status.code(), Some(0), "{bin} --help");
        let mut listed: Vec<String> = usage_flags(&String::from_utf8_lossy(&out.stdout))
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        listed.sort();
        let mut want: Vec<String> = expected
            .iter()
            .map(|s| s.to_string())
            .chain(["help".to_string()])
            .collect();
        want.sort();
        assert_eq!(listed, want, "{bin} --help");
    }
}

#[test]
fn bad_arguments_exit_2_before_any_work() {
    for &(bin, _) in BINARIES {
        let help = run(bin, &["--help"], Duration::from_secs(30));
        assert_rejected(bin, &["--bogus"]);
        assert_rejected(bin, &["--threads", "banana"]);
        for (flag, takes_value) in usage_flags(&String::from_utf8_lossy(&help.stdout)) {
            if takes_value {
                // Given last, with no value.
                assert_rejected(bin, &[&format!("--{flag}")]);
            }
        }
    }
}

#[test]
fn fault_campaign_rejects_steps_off_the_decision_interval() {
    let bin = env!("CARGO_BIN_EXE_fault_campaign");
    for steps in ["13", "0"] {
        assert_rejected(bin, &["--smoke", "--steps", steps]);
        let out = run(bin, &["--steps", steps], Duration::from_secs(30));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("positive multiple of 12"), "{stderr}");
    }
}

#[test]
fn bench_hotpath_writes_the_out_path() {
    let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/cli-contract-hotpath.json");
    let _ = std::fs::remove_file(path);
    let out = run(
        env!("CARGO_BIN_EXE_bench_hotpath"),
        &["--smoke", &format!("--out={path}")],
        Duration::from_secs(300),
    );
    assert!(out.status.success(), "bench_hotpath --smoke --out={path}");
    let doc = std::fs::read_to_string(path).expect("the --out path was written");
    assert!(doc.contains("\"kernels\""), "{doc}");
}
