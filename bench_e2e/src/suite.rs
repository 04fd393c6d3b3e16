//! A suite: every workload, several reps each, folded into one set file
//! that `--compare` can set against another.
//!
//! Reps are interleaved round-robin across workloads (rep 1 of each, then
//! rep 2 …), so a slow phase of a shared host spreads over every row
//! instead of landing on one, and every rep runs in a child process of
//! its own, so `peak_rss_mb` belongs to one workload and nothing one rep
//! warmed helps the next.

use crate::metrics::{self, END_TO_END};
use crate::run::{artefact_dir, RunLine};
use crate::{host, stats, workloads};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Arguments of a suite.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    pub seed: u64,
    pub reps: usize,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out: Option<PathBuf>,
}

/// One end-to-end metric of one workload: a value per rep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Series {
    pub unit: String,
    pub values: Vec<f64>,
}

/// Everything a suite measured on one workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadSet {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: BTreeMap<String, Series>,
    /// From the single traced run; empty when the suite ran without one.
    pub per_layer: BTreeMap<String, f64>,
}

/// A suite's result, as written to disk.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Set {
    pub seed: u64,
    pub reps: usize,
    pub seconds: f64,
    pub smoke: bool,
    pub host_cpus: usize,
    pub workloads: BTreeMap<String, WorkloadSet>,
}

/// Spawns this binary for one run and parses the last line it prints.
fn child(workload: &str, args: &SuiteArgs, trace: bool) -> Result<RunLine, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // The child's stderr (failed checks, trace file paths) passes through.
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run of {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let line: RunLine = serde_json::from_str(last)
        .map_err(|e| format!("{workload}: no result line ({e}); exit {}", output.status))?;
    Ok(line)
}

/// Runs the suite, prints every metric by name with its unit, writes the
/// set file. `Ok(false)` when any run failed a check or an operation.
pub fn run(args: &SuiteArgs) -> Result<bool, String> {
    let mut set = Set {
        seed: args.seed,
        reps: args.reps,
        seconds: args.seconds,
        smoke: args.smoke,
        host_cpus: host::cpus(),
        workloads: BTreeMap::new(),
    };
    let mut all_ok = true;
    for rep in 0..args.reps {
        for name in workloads::NAMES {
            eprintln!("bench_e2e: rep {}/{} of {name}", rep + 1, args.reps);
            let entry = set
                .workloads
                .entry(name.to_string())
                .or_insert_with(|| WorkloadSet {
                    attempted: 0,
                    failed: 0,
                    end_to_end: BTreeMap::new(),
                    per_layer: BTreeMap::new(),
                });
            match child(name, args, false) {
                Ok(line) => {
                    all_ok &= line.correct && line.failed == 0;
                    entry.attempted += line.attempted;
                    entry.failed += line.failed;
                    for (metric, v) in line.metrics {
                        entry
                            .end_to_end
                            .entry(metric)
                            .or_insert_with(|| Series {
                                unit: v.unit.clone(),
                                values: Vec::new(),
                            })
                            .values
                            .push(v.value);
                    }
                }
                Err(e) => {
                    eprintln!("bench_e2e: {e}");
                    all_ok = false;
                    // A rep that errors counts one failed operation; its
                    // own count of attempts died with it.
                    entry.attempted += 1;
                    entry.failed += 1;
                }
            }
        }
    }
    if args.trace {
        for name in workloads::NAMES {
            eprintln!("bench_e2e: traced pass of {name}");
            match child(name, args, true) {
                Ok(line) => {
                    all_ok &= line.correct && line.failed == 0;
                    if let Some(entry) = set.workloads.get_mut(name) {
                        entry.per_layer = line
                            .metrics
                            .into_iter()
                            .map(|(k, v)| (k, v.value))
                            .collect();
                    }
                }
                Err(e) => {
                    eprintln!("bench_e2e: {e}");
                    all_ok = false;
                }
            }
        }
    }

    print_set(&set);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| artefact_dir().join(format!("set-seed{}.json", args.seed)));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(&set).expect("a set serialises");
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nset written to {}", path.display());
    Ok(all_ok)
}

fn print_set(set: &Set) {
    println!(
        "bench_e2e seed {} · {} reps × {} s · host_cpus {}{}",
        set.seed,
        set.reps,
        set.seconds,
        set.host_cpus,
        if set.smoke {
            " · SMOKE SIZES: timings are not comparable with anything"
        } else {
            ""
        }
    );
    for name in workloads::NAMES {
        let Some(w) = set.workloads.get(name) else {
            continue;
        };
        println!(
            "\n{name}: {} operations attempted, {} failed",
            w.attempted, w.failed
        );
        println!(
            "  {:<16} {:>14} {:>14} {:>14} {:>8}  n",
            "metric", "median", "q1", "q3", "spread"
        );
        for m in &END_TO_END {
            let Some(series) = w.end_to_end.get(m.name) else {
                continue;
            };
            let s = stats::sorted(series.values.clone());
            let (q1, q2, q3) = stats::quartiles(&s);
            println!(
                "  {:<16} {:>14.4} {:>14.4} {:>14.4} {:>7.1}%  {} {}",
                m.name,
                q2,
                q1,
                q3,
                100.0 * stats::spread(&s),
                s.len(),
                m.unit
            );
        }
        if w.per_layer.is_empty() {
            continue;
        }
        let drift = w.per_layer.get("host.drift").copied().unwrap_or(1.0);
        if !(0.90..=1.10).contains(&drift) {
            println!(
                "  NOISY: host.drift {drift:.3} is outside 0.90–1.10; read this ledger with care"
            );
        }
        for m in &metrics::PER_LAYER {
            let value = w.per_layer.get(m.name).copied().unwrap_or(0.0);
            if m.name.ends_with("_t2") && set.host_cpus < 2 {
                println!("  {:<36} {:>16}", m.name, "unmeasured");
            } else if value != 0.0 {
                println!("  {:<36} {:>16.6} {}", m.name, value, m.unit);
            }
        }
    }
}

/// How one workload × metric row of a comparison reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// Either side's run-to-run spread is wider than the bound, so the
    /// medians cannot be told apart at that resolution.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one row. `worse_sign` is `1.0` when larger is worse. `setup_s`
/// is judged on its medians alone (`spread_counts` false), as the driver
/// judges it: a run sets up three times, too few to steady a spread.
pub fn verdict(a: &[f64], b: &[f64], worse_sign: f64, bound: f64, spread_counts: bool) -> Verdict {
    let (a, b) = (stats::sorted(a.to_vec()), stats::sorted(b.to_vec()));
    if spread_counts && (stats::spread(&a) > bound || stats::spread(&b) > bound) {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (stats::median(&a), stats::median(&b));
    if worse_sign * (mb - ma) > bound * ma.abs() {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Sets B against A, row by row. `Ok(true)` when every row is `ok`.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    if a.smoke || b.smoke {
        return Err("a smoke set holds no comparable timing".to_string());
    }
    println!(
        "A = {} (base of every ratio), B = {}",
        a_path.display(),
        b_path.display()
    );
    println!(
        "{:<13} {:<13} {:>12} {:>8} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A sprd", "B median", "B sprd", "B/A", "bound"
    );
    let mut all_ok = true;
    for name in workloads::NAMES {
        let (Some(wa), Some(wb)) = (a.workloads.get(name), b.workloads.get(name)) else {
            println!("{name:<13} missing from one set");
            all_ok = false;
            continue;
        };
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (wa.end_to_end.get(m.name), wb.end_to_end.get(m.name))
            else {
                println!("{name:<13} {:<13} missing from one set", m.name);
                all_ok = false;
                continue;
            };
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let v = verdict(
                &sa.values,
                &sb.values,
                metrics::worse_sign(m),
                bound,
                m.name != "setup_s",
            );
            all_ok &= v == Verdict::Ok;
            let (sorted_a, sorted_b) = (
                stats::sorted(sa.values.clone()),
                stats::sorted(sb.values.clone()),
            );
            let (ma, mb) = (stats::median(&sorted_a), stats::median(&sorted_b));
            println!(
                "{name:<13} {:<13} {ma:>12.4} {:>7.1}% {mb:>12.4} {:>7.1}% {:>8.4} {:>5.0}%  {}",
                m.name,
                100.0 * stats::spread(&sorted_a),
                100.0 * stats::spread(&sorted_b),
                mb / ma,
                100.0 * bound,
                v.label()
            );
        }
        if (wa.failed, wb.failed) != (0, 0) {
            println!(
                "{name:<13} failed operations: A {} B {}",
                wa.failed, wb.failed
            );
            all_ok = false;
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: f64 = 1.0;
    const HIGHER: f64 = -1.0;

    #[test]
    fn steady_equal_sets_are_ok() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(verdict(&a, &a, LOWER, 0.10, true), Verdict::Ok);
    }

    #[test]
    fn worse_by_more_than_the_bound_regresses() {
        let a = [10.0, 10.1, 9.9];
        let slower = [11.2, 11.3, 11.1];
        assert_eq!(verdict(&a, &slower, LOWER, 0.10, true), Verdict::Regressed);
        // Faster is never a regression, however large.
        assert_eq!(verdict(&slower, &a, LOWER, 0.10, true), Verdict::Ok);
        // For a throughput the directions swap.
        assert_eq!(verdict(&a, &slower, HIGHER, 0.10, true), Verdict::Ok);
        assert_eq!(verdict(&slower, &a, HIGHER, 0.10, true), Verdict::Regressed);
    }

    #[test]
    fn worse_within_the_bound_is_ok() {
        let a = [10.0, 10.1, 9.9];
        let b = [10.8, 10.9, 10.7];
        assert_eq!(verdict(&a, &b, LOWER, 0.10, true), Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        assert_eq!(verdict(&a, &noisy, LOWER, 0.10, true), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &a, LOWER, 0.10, true), Verdict::Unresolved);
        // Set-up is judged on medians alone.
        assert_eq!(verdict(&a, &noisy, LOWER, 0.25, false), Verdict::Ok);
    }
}
