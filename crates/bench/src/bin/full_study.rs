//! Runs the complete four-scenario study once and prints every table and
//! figure (Tables I–III, Figs. 2–3) plus the headline numbers — the
//! one-shot artefact behind `EXPERIMENTS.md`. `--rows` caps the Fig. 2
//! series; `--json <path>` also dumps the raw report as JSON.
//!
//! `--counts` prints, in place of the tables, what the same run did as
//! counts (`StudyCounts::table`): steps, samples, detector windows, round
//! traffic, matrix allocations and arena bytes. It holds no clock and no
//! thread count, so at a scale and seed it is the same text on every host
//! and at every width; `results/counts_*_seed42.txt` are archived copies.

use evfad_bench::BenchOpts;
use evfad_core::forecast::{run_study, run_study_counted};
use evfad_core::tensor::parallel;

fn main() {
    let opts = BenchOpts::from_env(&["--rows", "--json", "--counts"]);
    println!("{}", opts.banner("Full study"));
    if opts.counts {
        match run_study_counted(&opts.study_config()) {
            Ok((_, counts)) => print!("{}", counts.table()),
            Err(e) => {
                eprintln!("study failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    // An archived output says how it was produced: the study runs its
    // detector fits and its trainings as pool jobs, this many at once.
    let threads = parallel::threads();
    println!(
        "threads: {threads} (jobs run {threads} at a time; Time (s) columns are per-job wall clock)"
    );
    let report = match run_study(&opts.study_config()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("study failed: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", report.table1());
    println!();
    print!("{}", report.table2());
    println!();
    print!("{}", report.table3());
    println!();
    print!("{}", report.fig2_text(opts.rows));
    println!();
    print!("{}", report.fig3_text());
    println!();
    println!("{}", report.headline_text());
    if let Some(path) = opts.json {
        match serde_json::to_string_pretty(&report) {
            Ok(json) => {
                if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("could not write {path}: {e}");
                } else {
                    println!("\nreport JSON written to {path}");
                }
            }
            Err(e) => eprintln!("could not serialise report: {e}"),
        }
    }
}
