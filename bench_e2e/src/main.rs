//! `bench_e2e`: one end-to-end benchmark of the evfad workspace — five
//! named workloads, four end-to-end metrics each, and under them a
//! per-layer ledger whose parts sum to the whole. See `README.md` beside
//! the manifest for what each workload is for and how to read a row.
//!
//! ```text
//! bench_e2e --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
//! bench_e2e [--seed N] [--reps R] [--seconds S] [--trace] [--out FILE]
//!                                                           the suite: all five, interleaved
//! bench_e2e --smoke                                         the suite at a twentieth the size
//! bench_e2e --compare A.json B.json                         set B against set A
//! ```

mod host;
mod metrics;
mod probes;
mod run;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// Seconds one run measures when none are given: `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;
const DEFAULT_REPS: usize = 5;
/// Fewer reps than this give quartiles no meaning.
const MIN_REPS: usize = 3;

const USAGE: &str = "usage:
  bench_e2e --workload W --seed N --seconds S --trace 0|1 [--smoke]
  bench_e2e [--seed N] [--reps R] [--seconds S] [--trace] [--out FILE]
  bench_e2e --smoke
  bench_e2e --compare A.json B.json
workloads: paper_run socket_fed scale_plain scale_q8 score_stream";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    reps: Option<usize>,
    /// `--trace 0|1` for one run; bare `--trace` asks a suite for its
    /// traced pass.
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter().peekable();
    fn value<'a>(
        flag: &str,
        it: &mut impl Iterator<Item = &'a String>,
    ) -> Result<&'a String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
        text.parse()
            .map_err(|_| format!("{flag}: cannot read {text:?}"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(flag, &mut it)?.clone()),
            "--seed" => args.seed = Some(number(flag, value(flag, &mut it)?)?),
            "--reps" => args.reps = Some(number(flag, value(flag, &mut it)?)?),
            "--seconds" => {
                let seconds: f64 = number(flag, value(flag, &mut it)?)?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {seconds}"));
                }
                args.seconds = Some(seconds);
            }
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                }
                Some("1") => {
                    it.next();
                    args.trace = true;
                }
                _ => args.trace = true,
            },
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value(flag, &mut it)?)),
            "--compare" => {
                let a = PathBuf::from(value(flag, &mut it)?);
                args.compare = Some((a, PathBuf::from(value(flag, &mut it)?)));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn dispatch(args: Args) -> Result<bool, String> {
    if let Some((a, b)) = &args.compare {
        return suite::compare(a, b);
    }
    let seed = args.seed.unwrap_or(42);
    if let Some(workload) = args.workload {
        return run::run(&run::RunArgs {
            workload,
            seed,
            seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
            trace: args.trace,
            smoke: args.smoke,
        });
    }
    // A smoke suite is one short rep of everything with every check on,
    // traced pass included; its timings are printed, never compared.
    let (reps, seconds, trace) = if args.smoke {
        (1, 0.5, true)
    } else {
        (DEFAULT_REPS, DEFAULT_SECONDS, args.trace)
    };
    suite::run(&suite::SuiteArgs {
        seed,
        reps: args
            .reps
            .map_or(reps, |r| if args.smoke { r } else { r.max(MIN_REPS) }),
        seconds: args.seconds.unwrap_or(seconds),
        trace,
        smoke: args.smoke,
        out: args.out,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv).and_then(dispatch) {
        Ok(true) => ExitCode::SUCCESS,
        // A failed check or operation was already reported where it
        // happened; the command fails with it.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use serde_json::Value;

    fn argv(text: &str) -> Vec<String> {
        text.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse(&argv("--workload scale_q8 --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("scale_q8"));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(7), Some(10.0), true));
        let a = parse(&argv("--workload paper_run --seed 1 --seconds 5 --trace 0")).unwrap();
        assert!(!a.trace);
    }

    #[test]
    fn bare_trace_asks_a_suite_for_its_traced_pass() {
        let a = parse(&argv("--seed 42 --trace")).unwrap();
        assert!(a.trace && a.workload.is_none());
        let a = parse(&argv("--trace --reps 3")).unwrap();
        assert!(a.trace);
        assert_eq!(a.reps, Some(3));
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse(&argv("--seconds 0")).is_err());
        assert!(parse(&argv("--seconds 61")).is_err());
        assert!(parse(&argv("--seed")).is_err());
        assert!(parse(&argv("--frobnicate")).is_err());
        assert!(parse(&argv("--compare only-one.json")).is_err());
    }

    /// `BENCHMARK.json` is what the driver reads; the tables in
    /// `metrics.rs` are what the binary prints. They must say the same.
    #[test]
    fn benchmark_json_lists_what_the_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
        let rows = |key: &str| -> Vec<Vec<(String, Value)>> {
            match doc.get(key) {
                Some(Value::Array(items)) => items
                    .iter()
                    .map(|item| match item {
                        Value::Object(fields) => fields.clone(),
                        other => panic!("{key}: expected objects, found {other:?}"),
                    })
                    .collect(),
                other => panic!("{key}: expected an array, found {other:?}"),
            }
        };
        let text_of = |fields: &[(String, Value)], key: &str| -> String {
            match fields.iter().find(|(k, _)| k == key) {
                Some((_, Value::String(s))) => s.clone(),
                other => panic!("{key}: expected a string, found {other:?}"),
            }
        };

        let names: Vec<String> = rows("workloads")
            .iter()
            .map(|w| text_of(w, "name"))
            .collect();
        assert_eq!(names, workloads::NAMES);

        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = rows(key);
            assert_eq!(listed.len(), defs.len(), "{key}: metric count");
            for (fields, def) in listed.iter().zip(defs) {
                assert_eq!(text_of(fields, "name"), def.name);
                assert_eq!(text_of(fields, "unit"), def.unit, "{}", def.name);
                assert_eq!(text_of(fields, "better"), def.better, "{}", def.name);
                let bound = fields
                    .iter()
                    .find(|(k, _)| k == "bound")
                    .map(|(_, v)| match v {
                        Value::Number(n) => n.as_f64(),
                        other => panic!("{}: bound is {other:?}", def.name),
                    });
                assert_eq!(bound, def.bound, "{}", def.name);
            }
        }
        match doc.get("run_seconds") {
            Some(Value::Number(n)) => assert_eq!(n.as_f64(), DEFAULT_SECONDS),
            other => panic!("run_seconds: {other:?}"),
        }
    }
}
