//! Lints Prometheus text-exposition files with the in-tree parser
//! ([`obs::promlint`]). CI runs it over the `--metrics-out` artifacts
//! the figure binaries emit, so a formatting regression in the exporter
//! fails the build instead of silently breaking scrapes.
//!
//! Usage: `promlint FILE...` — prints one line per file and exits 1
//! when any file fails to parse or violates the format invariants
//! (bucket ordering, cumulative counts, `+Inf` presence, counter
//! monotonicity).

fn main() {
    let args = common::cli::Spec::new("promlint", "lints Prometheus text-exposition files")
        .positionals("file", 1..=usize::MAX, "Prometheus text file to lint")
        .parse_env();
    let mut failed = false;
    for path in args.positionals() {
        match std::fs::read_to_string(path) {
            Ok(text) => match obs::promlint::lint(&text) {
                Ok(families) => println!("{path}: ok ({} families)", families.len()),
                Err(e) => {
                    failed = true;
                    eprintln!("{path}: {e}");
                }
            },
            Err(e) => {
                failed = true;
                eprintln!("{path}: {e}");
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
