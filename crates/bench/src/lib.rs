//! Shared plumbing for the bench binaries.
//!
//! Every table/figure binary accepts `--scale small|mid|paper` (default
//! `small`) and `--seed <u64>` (default 42), so the paper's experiments can
//! be regenerated at CI speed or at full fidelity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use evfad_core::forecast::{Scale, StudyConfig};

/// Parsed command-line options common to all bench binaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchOpts {
    /// Study scale.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// Row cap for series dumps (fig2).
    pub rows: usize,
}

impl Default for BenchOpts {
    fn default() -> Self {
        Self {
            scale: Scale::Small,
            seed: 42,
            rows: 48,
        }
    }
}

impl BenchOpts {
    /// Parses `--scale`, `--seed` and `--rows` from an argument iterator.
    /// Unknown arguments are ignored (forward compatibility); malformed
    /// values fall back to defaults with a warning on stderr.
    pub fn parse(args: impl Iterator<Item = String>) -> Self {
        let mut opts = Self::default();
        let args: Vec<String> = args.collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    if let Some(v) = args.get(i + 1) {
                        match Scale::parse(v) {
                            Some(s) => opts.scale = s,
                            None => eprintln!("warning: unknown scale {v:?}, using small"),
                        }
                        i += 1;
                    }
                }
                "--seed" => {
                    if let Some(v) = args.get(i + 1) {
                        match v.parse() {
                            Ok(s) => opts.seed = s,
                            Err(_) => eprintln!("warning: bad seed {v:?}, using default"),
                        }
                        i += 1;
                    }
                }
                "--rows" => {
                    if let Some(v) = args.get(i + 1) {
                        if let Ok(r) = v.parse() {
                            opts.rows = r;
                        }
                        i += 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        opts
    }

    /// Parses from the process arguments.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> BenchOpts {
        BenchOpts::parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_apply() {
        let o = parse(&[]);
        assert_eq!(o.scale, Scale::Small);
        assert_eq!(o.seed, 42);
    }

    #[test]
    fn flags_parse() {
        let o = parse(&["--scale", "paper", "--seed", "7", "--rows", "10"]);
        assert_eq!(o.scale, Scale::Paper);
        assert_eq!(o.seed, 7);
        assert_eq!(o.rows, 10);
    }

    #[test]
    fn bad_values_fall_back() {
        let o = parse(&["--scale", "galactic", "--seed", "NaN"]);
        assert_eq!(o.scale, Scale::Small);
        assert_eq!(o.seed, 42);
    }

    #[test]
    fn unknown_flags_ignored() {
        let o = parse(&["--whatever", "--seed", "3"]);
        assert_eq!(o.seed, 3);
    }

    #[test]
    fn config_matches_scale() {
        let o = parse(&["--scale", "paper"]);
        assert_eq!(o.study_config().dataset.timestamps, 4344);
    }

    #[test]
    fn banner_mentions_scale_and_seed() {
        let b = parse(&["--seed", "9"]).banner("table1");
        assert!(b.contains("table1"));
        assert!(b.contains("seed=9"));
    }
}
