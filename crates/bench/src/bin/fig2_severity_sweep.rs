//! Fig. 2: peak Hotspot-Severity of each workload over the frequency
//! range, plus the §III-B oracle and §III-C global-limit statistics.
//!
//! The workload × VF grid is described as an [`engine::Scenario`] and
//! executed by the parallel [`engine::Session`]; every grid cell is
//! memoised in the artifact cache, so re-runs (and other binaries
//! sharing cells, e.g. the sweep-table consumers) skip the simulation.
//!
//! Usage: `fig2_severity_sweep [--smoke] [--metrics-out BASE] [--resume]`.
//! `--smoke` runs a reduced grid (6 workloads × every 4th VF point × 24
//! steps) as a CI smoke test; `--metrics-out` exports the observability
//! artifacts (`BASE.prom`, `BASE.jsonl`).

use boreas_bench::experiments::{Experiment, RUN_STEPS};
use boreas_bench::{Reporting, RunFlag};
use boreas_core::{oracle_frequencies, VfTable};
use common::cli::Spec;
use engine::Scenario;
use workloads::{SetKind, WorkloadSpec};

fn main() {
    let (reporting, args) = Reporting::parse_env(
        Spec::new("fig2_severity_sweep", "Fig. 2: peak severity sweep")
            .switch("smoke", "6 workloads x every 4th VF point x 24 steps"),
        &[RunFlag::Resume],
    );
    let smoke = args.has("smoke");
    let exp = Experiment::paper()
        .expect("paper config")
        .observe(&reporting.obs);

    let scenario = if smoke {
        let workloads: Vec<WorkloadSpec> = WorkloadSpec::by_severity_rank()
            .into_iter()
            .step_by(5)
            .collect();
        let points: Vec<_> = exp.vf.points().iter().step_by(4).copied().collect();
        let vf = VfTable::new(points).expect("paper subset is a valid table");
        Scenario::severity_sweep("fig2-smoke", workloads, vf, RUN_STEPS / 6 / 12 * 12)
    } else {
        exp.fig2_scenario()
    };
    let session = exp.session().expect("session");
    let report = reporting.execute(&session, &scenario).expect("sweep");
    let table = report.sweep_table(&scenario).expect("table");
    let vf = &scenario.vf;

    println!("Fig. 2: peak Hotspot-Severity (raw; >= 1.00 is unsafe/black)\n");
    print!("{:<12} {:>5}", "workload", "set");
    for p in vf.points() {
        print!(" {:>5.2}", p.frequency.value());
    }
    println!("  oracle");
    for w in &scenario.workloads {
        print!(
            "{:<12} {:>5}",
            w.name,
            if w.set == SetKind::Test {
                "test"
            } else {
                "train"
            }
        );
        for i in 0..vf.len() {
            print!(" {:>5.2}", table.peak(&w.name, i).expect("known workload"));
        }
        let idx = table.oracle_index(&w.name).expect("safe point exists");
        println!("  {:.2} GHz", vf.point(idx).frequency.value());
    }

    let n = scenario.workloads.len();
    // Headline shape checks from the paper's text.
    let global = table.global_safe_index().expect("globally safe point");
    println!(
        "\nGlobally safe frequency: {:.2} GHz (paper: 3.75)",
        vf.point(global).frequency.value()
    );
    let top = vf.len() - 1;
    let unsafe_at_top = scenario
        .workloads
        .iter()
        .filter(|w| table.peak(&w.name, top).unwrap() >= 1.0)
        .count();
    println!(
        "Workloads unsafe at {:.2} GHz: {unsafe_at_top}/{n} (paper: 27/27 at 5.0)",
        vf.point(top).frequency.value()
    );

    // §III-C: cost of the global limit vs the oracle.
    let oracles = oracle_frequencies(&table).expect("oracles");
    let base = vf.point(global).frequency.value();
    let mut optimal = 0;
    let mut reductions: Vec<f64> = Vec::new();
    for (_, f) in &oracles {
        if (*f - base).abs() < 1e-9 {
            optimal += 1;
        }
        reductions.push((f - base) / f * 100.0);
    }
    reductions.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = reductions[reductions.len() / 2];
    let worst = reductions.last().copied().unwrap_or(0.0);
    println!("\nSec. III-C (global VF limit vs oracle):");
    println!("  workloads already optimal at the global limit: {optimal}/{n} (paper: 2/27)");
    println!("  median frequency left on the table: {median:.1}% (paper: ~13%)");
    println!("  worst case: {worst:.1}% (paper: 26%)");

    reporting.finish(Some(&report)).expect("reporting");
}
