//! Shared plumbing for the two bench binaries, `full_study` and `ablate`.
//!
//! Both accept `--scale small|mid|paper` (default `small`) and `--seed
//! <u64>` (default 42), so the paper's experiments can be regenerated at CI
//! speed or at full fidelity; each binary names the further flags it takes.
//! An unknown flag, a malformed or missing value is an error (exit code 2)
//! that names the valid values: a typo must not archive another experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use evfad_core::forecast::{Scale, StudyConfig};

/// Parsed command-line options of the bench binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchOpts {
    /// Study scale.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// Row cap for the Fig. 2 series dump (`--rows`).
    pub rows: usize,
    /// Path to write the study report to as JSON (`--json`).
    pub json: Option<String>,
    /// Names of the sections to run (`--only a,b`); empty runs them all.
    pub only: Vec<String>,
    /// Print the run's deterministic counts instead of its tables
    /// (`--counts`, a flag without a value).
    pub counts: bool,
}

impl Default for BenchOpts {
    fn default() -> Self {
        Self {
            scale: Scale::Small,
            seed: 42,
            rows: 48,
            json: None,
            only: Vec::new(),
            counts: false,
        }
    }
}

impl BenchOpts {
    /// Parses `--scale`, `--seed` and the flags named in `extra` (any of
    /// `--rows`, `--json`, `--only`, `--counts`) from an argument iterator.
    ///
    /// # Errors
    ///
    /// A message naming the valid values, for a flag outside that set, a
    /// flag without its value, or a value that does not parse.
    pub fn parse(args: impl IntoIterator<Item = String>, extra: &[&str]) -> Result<Self, String> {
        let mut opts = Self::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--scale" => {
                    let v = value()?;
                    opts.scale = Scale::parse(&v).ok_or_else(|| {
                        format!("unknown scale {v:?} (expected small, mid or paper)")
                    })?;
                }
                "--seed" => opts.seed = uint(value()?, "seed")?,
                "--rows" if extra.contains(&"--rows") => opts.rows = uint(value()?, "row count")?,
                "--json" if extra.contains(&"--json") => opts.json = Some(value()?),
                "--only" if extra.contains(&"--only") => {
                    opts.only = value()?.split(',').map(str::to_string).collect();
                }
                "--counts" if extra.contains(&"--counts") => opts.counts = true,
                _ => {
                    let known: Vec<&str> =
                        ["--scale", "--seed"].iter().chain(extra).copied().collect();
                    return Err(format!(
                        "unknown flag {flag:?} (expected {})",
                        known.join(", ")
                    ));
                }
            }
        }
        Ok(opts)
    }

    /// Parses from the process arguments; exits with code 2 on an error.
    pub fn from_env(extra: &[&str]) -> Self {
        Self::parse(std::env::args().skip(1), extra).unwrap_or_else(|e| usage_error(&e))
    }

    /// The study configuration these options select.
    pub fn study_config(&self) -> StudyConfig {
        StudyConfig::at_scale(self.scale, self.seed)
    }

    /// Banner line describing the run.
    pub fn banner(&self, what: &str) -> String {
        format!(
            "# {what} | scale={:?} seed={} (reproduction of Babayomi & Kim)",
            self.scale, self.seed
        )
    }
}

fn uint<T: std::str::FromStr>(v: String, what: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("bad {what} {v:?} (expected an unsigned integer)"))
}

/// Prints `message` to stderr and exits with code 2, the usage-error code.
pub fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str], extra: &[&str]) -> Result<BenchOpts, String> {
        BenchOpts::parse(v.iter().map(|s| s.to_string()), extra)
    }

    #[test]
    fn defaults_apply() {
        let o = parse(&[], &[]).unwrap();
        assert_eq!(o.scale, Scale::Small);
        assert_eq!(o.seed, 42);
    }

    #[test]
    fn flags_parse() {
        let o = parse(
            &[
                "--scale", "paper", "--seed", "7", "--rows", "10", "--only", "a,b",
            ],
            &["--rows", "--only"],
        )
        .unwrap();
        assert_eq!(o.scale, Scale::Paper);
        assert_eq!(o.seed, 7);
        assert_eq!(o.rows, 10);
        assert_eq!(o.only, ["a", "b"]);
        assert!(!o.counts);
        let o = parse(&["--counts", "--seed", "7"], &["--counts"]).unwrap();
        assert!(o.counts);
        assert_eq!(o.seed, 7);
    }

    #[test]
    fn bad_values_are_errors() {
        let e = parse(&["--scale", "galactic"], &[]).unwrap_err();
        assert!(
            e.contains("galactic") && e.contains("small, mid or paper"),
            "{e}"
        );
        let e = parse(&["--seed", "NaN"], &[]).unwrap_err();
        assert!(e.contains("NaN") && e.contains("unsigned integer"), "{e}");
        let e = parse(&["--seed"], &[]).unwrap_err();
        assert!(e.contains("--seed needs a value"), "{e}");
    }

    #[test]
    fn unknown_flags_are_errors() {
        let e = parse(&["--whatever", "--seed", "3"], &["--only"]).unwrap_err();
        assert!(
            e.contains("--whatever") && e.contains("--scale, --seed, --only"),
            "{e}"
        );
        // A flag another binary takes is unknown to one that does not.
        let e = parse(&["--rows", "10"], &["--only"]).unwrap_err();
        assert!(e.contains("--rows"), "{e}");
    }

    #[test]
    fn config_matches_scale() {
        let o = parse(&["--scale", "paper"], &[]).unwrap();
        assert_eq!(o.study_config().dataset.timestamps, 4344);
    }

    #[test]
    fn banner_mentions_scale_and_seed() {
        let b = parse(&["--seed", "9"], &[]).unwrap().banner("Full study");
        assert!(b.contains("Full study"));
        assert!(b.contains("seed=9"));
    }
}
