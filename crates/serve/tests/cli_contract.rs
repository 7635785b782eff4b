//! The command-line contract of `boreas_serve` and `boreas_loadgen`:
//! `--help` exits 0 and lists exactly the flags the binary acts on, and
//! a bad argument exits 2 with a one-line error before the daemon binds
//! or the load generator builds a trace, and a runtime error exits 1
//! with one `error:` line.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Both binaries with the flags their usage pages must list (besides
/// `--help`).
const BINARIES: &[(&str, &[&str])] = &[
    (
        env!("CARGO_BIN_EXE_boreas_serve"),
        &[
            "addr",
            "metrics-addr",
            "io-threads",
            "max-connections",
            "idle-timeout-ms",
            "smoke",
        ],
    ),
    (
        env!("CARGO_BIN_EXE_boreas_loadgen"),
        &[
            "addr",
            "connections",
            "shards",
            "frames",
            "rate",
            "out",
            "check",
            "smoke",
        ],
    ),
];

/// Runs `bin args`, failing the test if it outlives 30 s (a daemon that
/// accepted a bad argument would serve forever).
fn run(bin: &str, args: &[&str]) -> Output {
    let mut child = Command::new(bin)
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn binary");
    let start = Instant::now();
    while child.try_wait().expect("poll binary").is_none() {
        if start.elapsed() > Duration::from_secs(30) {
            child.kill().expect("kill binary");
            panic!("{bin} {args:?} still running after 30 s");
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
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} started work");
    assert_eq!(stderr.lines().count(), 1, "{bin} {args:?}: {stderr}");
    assert!(stderr.contains("--help"), "{bin} {args:?}: {stderr}");
}

#[test]
fn help_lists_exactly_the_flags_each_binary_reads() {
    for &(bin, expected) in BINARIES {
        let out = run(bin, &["--help"]);
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
        let help = run(bin, &["--help"]);
        assert_rejected(bin, &["--bogus"]);
        assert_rejected(bin, &["--threads", "banana"]);
        assert_rejected(bin, &["--io-threads", "banana"]);
        for (flag, takes_value) in usage_flags(&String::from_utf8_lossy(&help.stdout)) {
            if takes_value {
                // Given last, with no value.
                assert_rejected(bin, &[&format!("--{flag}")]);
            }
        }
    }
    assert_rejected(
        env!("CARGO_BIN_EXE_boreas_loadgen"),
        &["--connections", "1,0"],
    );
}

#[test]
fn a_runtime_error_exits_1_with_one_error_line() {
    // Parses, so it gets past the argument check, but the daemon's
    // config builder refuses it before anything binds.
    let bin = env!("CARGO_BIN_EXE_boreas_serve");
    let out = run(bin, &["--io-threads", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(stderr.contains("io_threads"), "{stderr}");
}
