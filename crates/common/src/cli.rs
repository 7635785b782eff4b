//! The flag parser behind every binary in the workspace.
//!
//! A binary declares its surface as a [`Spec`] — a name, an about line,
//! its flags and at most one trailing positional list — and calls
//! [`Spec::parse_env`] once, before any work. The conventions:
//!
//! * value flags accept both spellings, `--flag value` and
//!   `--flag=value`, and declare the type their value must parse as;
//! * `--help`/`-h` prints a generated usage page, which lists exactly
//!   the declared flags, and exits with status 0;
//! * an unknown flag, a value flag with no value or with one that does
//!   not parse, and an undeclared positional print a one-line error
//!   that points at `--help` and exit with status 2.
//!
//! Parsed values come back as an [`Args`] keyed by flag name, with
//! typed access through [`Args::parsed`] and [`Args::value`]. A binary
//! whose work can fail runs it through [`run_main`], so a runtime error
//! prints one `error: …` line and exits with status 1.

use std::collections::HashMap;
use std::ops::RangeInclusive;
use std::str::FromStr;

use crate::{Error, Result};

/// Runs a binary's `body`. An error prints one line, `error: ` and the
/// error's [`Display`](std::fmt::Display) form, to standard error and
/// exits with status 1.
pub fn run_main(body: impl FnOnce() -> Result<()>) {
    if let Err(e) = body() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// One declared flag; `value_name` is `None` for a switch.
#[derive(Debug, Clone)]
struct Flag {
    name: &'static str,
    value_name: Option<&'static str>,
    help: &'static str,
    default: Option<&'static str>,
    /// Parses a raw value as the flag's declared type.
    check: fn(&str) -> std::result::Result<(), String>,
}

/// A binary's declared CLI surface.
#[derive(Debug, Clone)]
pub struct Spec {
    name: &'static str,
    about: &'static str,
    flags: Vec<Flag>,
    /// The trailing positional list: name, accepted count, help.
    positionals: Option<(&'static str, RangeInclusive<usize>, &'static str)>,
}

impl Spec {
    /// Starts a spec for the binary `name` with a one-line `about`.
    pub fn new(name: &'static str, about: &'static str) -> Spec {
        Spec {
            name,
            about,
            flags: Vec::new(),
            positionals: None,
        }
    }

    /// Declares `--name <value_name>`, whose value must parse as `T`;
    /// `default` is shown in the usage page and returned by
    /// [`Args::get`]/[`Args::value`] when the flag is absent.
    #[must_use]
    pub fn value_flag<T: FromStr>(
        mut self,
        name: &'static str,
        value_name: &'static str,
        default: Option<&'static str>,
        help: &'static str,
    ) -> Spec
    where
        T::Err: std::fmt::Display,
    {
        self.flags.push(Flag {
            name,
            value_name: Some(value_name),
            help,
            default,
            check: |raw| raw.parse::<T>().map(drop).map_err(|e| e.to_string()),
        });
        self
    }

    /// Declares a boolean `--name` switch.
    #[must_use]
    pub fn switch(mut self, name: &'static str, help: &'static str) -> Spec {
        self.flags.push(Flag {
            name,
            value_name: None,
            help,
            default: None,
            check: |_| Ok(()),
        });
        self
    }

    /// Declares the trailing positional list `name`, taking between
    /// `count.start()` and `count.end()` arguments.
    #[must_use]
    pub fn positionals(
        mut self,
        name: &'static str,
        count: RangeInclusive<usize>,
        help: &'static str,
    ) -> Spec {
        self.positionals = Some((name, count, help));
        self
    }

    /// The generated usage page.
    pub fn usage(&self) -> String {
        let mut out = format!(
            "{} — {}\n\nusage: {} [flags]",
            self.name, self.about, self.name
        );
        let mut rows = Vec::new();
        if let Some((name, count, help)) = &self.positionals {
            let mut shown = match count.start() {
                0 => format!("[{name}]"),
                _ => format!("<{name}>"),
            };
            if *count.end() > 1 {
                shown.push_str("...");
            }
            out.push_str(&format!(" {shown}"));
            rows.push((shown, help.to_string()));
        }
        for f in &self.flags {
            let left = match f.value_name {
                Some(v) => format!("--{} <{v}>", f.name),
                None => format!("--{}", f.name),
            };
            let help = match f.default {
                Some(d) => format!("{} [default: {d}]", f.help),
                None => f.help.to_string(),
            };
            rows.push((left, help));
        }
        rows.push(("--help".into(), "print this help and exit".into()));
        let width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        out.push_str("\n\n");
        for (left, help) in rows {
            out.push_str(&format!("  {left:width$}  {help}\n"));
        }
        out
    }

    /// Parses the process arguments (skipping `argv[0]`). Prints the
    /// usage page and exits 0 on `--help`; prints a one-line error and
    /// exits 2 on a bad argument.
    pub fn parse_env(&self) -> Args {
        match self.parse(std::env::args().skip(1)) {
            Ok(args) if args.help => {
                print!("{}", self.usage());
                std::process::exit(0);
            }
            Ok(args) => args,
            Err(e) => {
                eprintln!("{}: {e}", self.name);
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument list (testable; `--help` sets
    /// [`Args::help`] instead of exiting).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for an unknown flag, a value flag
    /// missing its value or given one that does not parse, a switch
    /// given a value, or a positional count outside the declared range.
    pub fn parse(&self, argv: impl IntoIterator<Item = String>) -> Result<Args> {
        let mut args = Args {
            values: self
                .flags
                .iter()
                .filter_map(|f| Some((f.name, f.default?.to_string())))
                .collect(),
            switches: Vec::new(),
            positionals: Vec::new(),
            help: false,
        };
        let count = self.positionals.as_ref().map_or(0..=0, |p| p.1.clone());
        let mut it = argv.into_iter();
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                args.help = true;
                continue;
            }
            let Some(body) = arg.strip_prefix("--") else {
                if arg.starts_with('-') || args.positionals.len() == *count.end() {
                    return Err(self.error(format!("unexpected argument `{arg}`")));
                }
                args.positionals.push(arg);
                continue;
            };
            let (name, inline) = match body.split_once('=') {
                Some((n, v)) => (n, Some(v.to_string())),
                None => (body, None),
            };
            let Some(flag) = self.flags.iter().find(|f| f.name == name) else {
                return Err(self.error(format!("unknown flag `{arg}`")));
            };
            match (flag.value_name, inline) {
                (None, None) => args.switches.push(flag.name),
                (None, Some(_)) => return Err(self.error(format!("--{name} takes no value"))),
                (Some(_), inline) => {
                    let Some(raw) = inline.or_else(|| it.next()) else {
                        return Err(self.error(format!("--{name} needs a value")));
                    };
                    (flag.check)(&raw).map_err(|e| self.error(format!("--{name} `{raw}`: {e}")))?;
                    args.values.insert(flag.name, raw);
                }
            }
        }
        if !args.help && args.positionals.len() < *count.start() {
            return Err(self.error(format!(
                "expected at least {} positional argument(s)",
                count.start()
            )));
        }
        Ok(args)
    }

    fn error(&self, detail: String) -> Error {
        Error::invalid_config("cli", format!("{detail} (see {} --help)", self.name))
    }
}

/// Parsed arguments; see [`Spec::parse`].
#[derive(Debug)]
pub struct Args {
    /// Given values, and the declared defaults of absent flags.
    values: HashMap<&'static str, String>,
    switches: Vec<&'static str>,
    positionals: Vec<String>,
    /// `--help` was present (only observable via [`Spec::parse`]; the
    /// `parse_env` path prints usage and exits first).
    pub help: bool,
}

impl Args {
    /// The flag's raw value, falling back to its declared default.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Whether a switch was given.
    pub fn has(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }

    /// The flag's value (or declared default) as `T`, the type it was
    /// declared with; `None` when it is absent and has no default.
    ///
    /// # Panics
    ///
    /// Panics when the value does not parse as `T` (parsing checked it
    /// against the declared type, so `T` is another type: a bug).
    pub fn parsed<T: FromStr>(&self, name: &str) -> Option<T> {
        let raw = self.get(name)?;
        Some(
            raw.parse()
                .unwrap_or_else(|_| panic!("--{name} `{raw}` read as another type")),
        )
    }

    /// The value of a flag declared with a default, as `T`.
    ///
    /// # Panics
    ///
    /// Panics when the flag has no default, or see [`Args::parsed`].
    pub fn value<T: FromStr>(&self, name: &str) -> T {
        self.parsed(name)
            .unwrap_or_else(|| panic!("--{name} has no default"))
    }

    /// The trailing positional arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Spec {
        Spec::new("boreas_x", "test binary")
            .value_flag::<String>("addr", "host:port", Some("127.0.0.1:0"), "bind address")
            .value_flag::<usize>("shards", "n", Some("2"), "worker count")
            .value_flag::<String>("metrics-out", "base", None, "export base path")
            .switch("smoke", "tiny run")
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn both_value_spellings_parse() {
        let a = spec().parse(argv(&["--shards", "4", "--smoke"])).unwrap();
        assert_eq!(a.value::<usize>("shards"), 4);
        assert!(a.has("smoke"));
        let a = spec().parse(argv(&["--shards=8"])).unwrap();
        assert_eq!(a.value::<usize>("shards"), 8);
        assert!(!a.has("smoke"));
        for form in [&["--metrics-out", "x/y"][..], &["--metrics-out=x/y"]] {
            let a = spec().parse(argv(form)).unwrap();
            assert_eq!(a.get("metrics-out"), Some("x/y"));
        }
    }

    #[test]
    fn defaults_fill_absent_flags() {
        let a = spec().parse(argv(&[])).unwrap();
        assert_eq!(a.value::<String>("addr"), "127.0.0.1:0");
        assert_eq!(a.value::<usize>("shards"), 2);
        assert_eq!(a.parsed::<String>("metrics-out"), None);
    }

    #[test]
    fn unknown_and_malformed_flags_error() {
        assert!(spec().parse(argv(&["--nope"])).is_err());
        assert!(spec().parse(argv(&["positional"])).is_err());
        assert!(spec().parse(argv(&["-x"])).is_err());
        assert!(spec().parse(argv(&["--shards"])).is_err());
        assert!(spec().parse(argv(&["--smoke", "--shards"])).is_err());
        assert!(spec().parse(argv(&["--shards", "banana"])).is_err());
        assert!(spec().parse(argv(&["--shards=-1"])).is_err());
        assert!(spec().parse(argv(&["--smoke=1"])).is_err());
        let e = spec().parse(argv(&["--nope"])).unwrap_err().to_string();
        assert!(e.contains("--help"), "{e}");
        let e = spec().parse(argv(&["--shards=x"])).unwrap_err().to_string();
        assert!(e.contains("--shards `x`"), "{e}");
    }

    #[test]
    fn positional_list_is_bounded() {
        let one = Spec::new("fig", "t").positionals("workload", 0..=1, "which workload");
        assert!(one.parse(argv(&[])).unwrap().positionals().is_empty());
        let a = one.parse(argv(&["bzip2"])).unwrap();
        assert_eq!(a.positionals(), &argv(&["bzip2"])[..]);
        assert!(one.parse(argv(&["bzip2", "mcf"])).is_err());
        assert!(one.usage().contains("usage: fig [flags] [workload]"));

        let many = Spec::new("lint", "t").positionals("file", 1..=usize::MAX, "input");
        assert!(many.parse(argv(&[])).is_err());
        assert!(many.parse(argv(&["--help"])).unwrap().help);
        let a = many.parse(argv(&["a", "b", "c"])).unwrap();
        assert_eq!(a.positionals().len(), 3);
        assert!(many.usage().contains("usage: lint [flags] <file>..."));
    }

    #[test]
    fn help_flag_is_latched_and_usage_lists_flags() {
        let a = spec().parse(argv(&["--help"])).unwrap();
        assert!(a.help);
        let u = spec().usage();
        assert!(u.contains("--addr <host:port>"));
        assert!(u.contains("[default: 2]"));
        assert!(u.contains("--smoke"));
        assert!(u.contains("--help"));
    }
}
