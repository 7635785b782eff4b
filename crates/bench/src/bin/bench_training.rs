//! Training-path benchmark: measures the histogram GBT trainer against
//! the exact-greedy reference on the Fig. 8 training extraction and
//! writes `BENCH_training.json`, the tracked training-perf trajectory.
//!
//! Three configurations are timed (median wall ns over repeated full
//! trainings, reduced ensemble so a sample stays interactive):
//!
//! * `train_hist_1t` / `train_hist_2t` / `train_hist_4t` — the binned
//!   histogram trainer ([`gbt::TrainSpec`], [`gbt::TrainMethod::Histogram`])
//!   at 1, 2 and 4 threads;
//! * the baseline is [`gbt::GbtModel::train_reference`], the seed's
//!   exact greedy scan, on the same dataset and hyper-parameters.
//!
//! Beside timing, the run *asserts* the determinism contract: the three
//! thread counts must produce bit-identical predictions on every
//! training row.
//!
//! Usage: `bench_training [--smoke] [--out PATH] [--check BASELINE]
//! [--metrics-out BASE]`. `--smoke` swaps the pipeline extraction for a
//! synthetic dataset and shrinks the ensemble for CI; `--check` compares
//! each configuration's *speedup ratio* (histogram vs reference on the
//! same machine — machine-independent) against a checked-in baseline and
//! exits non-zero on a >25% regression; `--metrics-out` additionally
//! exports the medians/speedups as Prometheus gauges.

use common::cli::Spec;
use common::Result;
use gbt::{Dataset, GbtModel, GbtParams, TrainMethod};
use std::time::Instant;
use workloads::WorkloadSpec;

/// One timed training configuration.
struct TrainResult {
    name: &'static str,
    median_ns: f64,
    reference_median_ns: f64,
}

impl TrainResult {
    fn speedup(&self) -> f64 {
        self.reference_median_ns / self.median_ns
    }
}

/// Times `op` `samples` times; returns the median wall nanoseconds.
/// One full training per sample — no inner iteration loop, trainings are
/// long enough to time directly.
fn measure(samples: usize, mut op: impl FnMut()) -> f64 {
    op(); // warm-up
    let mut ns: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            op();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    ns[ns.len() / 2]
}

/// The Fig. 8 training extraction: the paper training workloads over the
/// paper VF table (1 estimator — only the dataset is wanted here).
fn fig8_dataset() -> Result<Dataset> {
    let pipeline = hotgauge::PipelineConfig::paper().build()?;
    let report = boreas_core::TrainSpec::new(&pipeline)
        .workloads(&WorkloadSpec::train_set())
        .params(GbtParams::default().with_estimators(1))
        .threads(1)
        .fit()?;
    Ok(report.dataset)
}

/// Synthetic stand-in for smoke mode: same row/feature shape class, a
/// nonlinear target with per-feature structure so trees actually split.
fn synthetic_dataset(rows: usize, features: usize) -> Result<Dataset> {
    let names: Vec<String> = (0..features).map(|f| format!("x{f}")).collect();
    let mut d = Dataset::new(names);
    let mut row = vec![0.0; features];
    for i in 0..rows {
        for (f, x) in row.iter_mut().enumerate() {
            *x = (((i * (2 * f + 3) + 7 * f) % 997) as f64) / 997.0;
        }
        let y = 2.0 * row[0] + (row[1 % features] - 0.5).powi(2) - 0.5 * row[2 % features];
        d.push_row(&row, y, (i % 8) as u32)?;
    }
    Ok(d)
}

/// Trains with the histogram path at a thread count and returns the
/// model (for the determinism assertion).
fn hist_train(data: &Dataset, params: &GbtParams, threads: usize) -> GbtModel {
    gbt::TrainSpec::new(data)
        .params(*params)
        .method(TrainMethod::Histogram)
        .threads(threads)
        .fit()
        .expect("histogram training")
        .model
}

/// Asserts the thread-count determinism contract: per-row predictions of
/// `a` and `b` agree to the bit.
fn assert_bit_identical(data: &Dataset, a: &GbtModel, b: &GbtModel, what: &str) {
    for r in 0..data.len() {
        let row = data.row(r);
        let (pa, pb) = (a.predict(&row), b.predict(&row));
        assert!(
            pa.to_bits() == pb.to_bits(),
            "{what}: prediction differs on row {r}: {pa:?} vs {pb:?}"
        );
    }
}

fn render_json(results: &[TrainResult], rows: usize, features: usize, smoke: bool) -> String {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let kernels: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"name\": \"{}\",\n      \"median_ns\": {:.1},\n      \
                 \"reference_median_ns\": {:.1},\n      \"speedup\": {:.3}\n    }}",
                r.name,
                r.median_ns,
                r.reference_median_ns,
                r.speedup()
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"boreas-bench-training-v1\",\n  \"smoke\": {},\n  \"dataset\": {{\n    \
         \"rows\": {},\n    \"features\": {}\n  }},\n  \"machine\": {{\n    \"os\": \"{}\",\n    \
         \"arch\": \"{}\",\n    \"threads\": {}\n  }},\n  \"kernels\": [\n{}\n  ]\n}}\n",
        smoke,
        rows,
        features,
        std::env::consts::OS,
        std::env::consts::ARCH,
        threads,
        kernels.join(",\n")
    )
}

/// The configurations of `current` that regressed by more than 25% against
/// the baseline snapshot.
fn regressions(current: &[TrainResult], baseline_json: &str) -> Result<Vec<String>> {
    boreas_bench::speedup_regressions(current.iter().map(|r| (r.name, r.speedup())), baseline_json)
}

fn main() -> Result<()> {
    let (reporting, args) = boreas_bench::Reporting::parse_env(
        Spec::new("bench_training", "histogram GBT training benchmark")
            .switch("smoke", "short CI-sized run")
            .value_flag::<String>("out", "path", Some("BENCH_training.json"), "result JSON")
            .value_flag::<String>("check", "baseline", None, "fail on a >25% speedup drop"),
        &[],
    );
    let smoke = args.has("smoke");
    let out_path = args.value::<String>("out");
    let check_path = args.parsed::<String>("check");

    println!(
        "bench_training ({} mode)",
        if smoke { "smoke" } else { "full" }
    );
    // Reduced ensemble: per-tree cost is what the two trainers differ
    // in, and a short boost keeps one timing sample interactive.
    let (data, params, samples) = if smoke {
        (
            synthetic_dataset(6_000, 12)?,
            GbtParams::default().with_estimators(8),
            3,
        )
    } else {
        (fig8_dataset()?, GbtParams::default().with_estimators(20), 5)
    };
    println!(
        "  dataset: {} rows x {} features, {} trees/training",
        data.len(),
        data.num_features(),
        params.n_estimators
    );

    // Determinism contract first: 1, 2 and 4 trainer threads must agree
    // to the bit.
    let m1 = hist_train(&data, &params, 1);
    let m2 = hist_train(&data, &params, 2);
    let m4 = hist_train(&data, &params, 4);
    assert_bit_identical(&data, &m1, &m2, "1 vs 2 threads");
    assert_bit_identical(&data, &m1, &m4, "1 vs 4 threads");
    println!("  determinism: 1/2/4-thread models bit-identical on every training row");

    let reference_median_ns = measure(samples, || {
        std::hint::black_box(GbtModel::train_reference(&data, &params).expect("reference"));
    });
    let mut results = Vec::new();
    for (name, threads) in [
        ("train_hist_1t", 1usize),
        ("train_hist_2t", 2),
        ("train_hist_4t", 4),
    ] {
        let median_ns = measure(samples, || {
            std::hint::black_box(hist_train(&data, &params, threads));
        });
        results.push(TrainResult {
            name,
            median_ns,
            reference_median_ns,
        });
    }
    println!(
        "  {:<14} {:>12.0} ns/training",
        "reference", reference_median_ns
    );
    for r in &results {
        println!(
            "  {:<14} {:>12.0} ns/training  ({:>5.2}x vs reference)",
            r.name,
            r.median_ns,
            r.speedup()
        );
    }

    let json = render_json(&results, data.len(), data.num_features(), smoke);
    std::fs::write(&out_path, &json)
        .map_err(|e| common::Error::io("write bench results", e.to_string()))?;
    println!("wrote {out_path}");

    if reporting.metrics_out().is_some() {
        for r in &results {
            reporting
                .obs
                .metrics
                .gauge(
                    &format!("bench_{}_median_ns", r.name),
                    "Median histogram training time, ns",
                )
                .set(r.median_ns);
            reporting
                .obs
                .metrics
                .gauge(
                    &format!("bench_{}_speedup", r.name),
                    "Histogram vs exact-greedy training speedup",
                )
                .set(r.speedup());
        }
        reporting.finish(None)?;
    }

    if let Some(baseline_path) = check_path {
        let baseline = std::fs::read_to_string(&baseline_path)
            .map_err(|e| common::Error::io("read bench baseline", e.to_string()))?;
        let bad = regressions(&results, &baseline)?;
        if !bad.is_empty() {
            for b in &bad {
                eprintln!("REGRESSION {b}");
            }
            std::process::exit(1);
        }
        println!("check vs {baseline_path}: ok");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_scanner_roundtrips_render() {
        let results = vec![
            TrainResult {
                name: "train_hist_1t",
                median_ns: 1000.0,
                reference_median_ns: 3000.0,
            },
            TrainResult {
                name: "train_hist_4t",
                median_ns: 500.0,
                reference_median_ns: 3000.0,
            },
        ];
        let json = render_json(&results, 6000, 12, true);
        let got = boreas_bench::baseline_speedups(&json).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, "train_hist_1t");
        assert!((got[0].1 - 3.0).abs() < 1e-9);
        assert_eq!(got[1].0, "train_hist_4t");
        assert!((got[1].1 - 6.0).abs() < 1e-9);
    }

    #[test]
    fn regression_check_flags_only_large_drops() {
        let baseline = render_json(
            &[TrainResult {
                name: "train_hist_4t",
                median_ns: 1.0,
                reference_median_ns: 4.0,
            }],
            6000,
            12,
            true,
        );
        // 4.0x -> 3.5x is within the 25% band.
        let fine = [TrainResult {
            name: "train_hist_4t",
            median_ns: 2.0,
            reference_median_ns: 7.0,
        }];
        assert!(regressions(&fine, &baseline).unwrap().is_empty());
        // 4.0x -> 2.0x is a regression.
        let bad = [TrainResult {
            name: "train_hist_4t",
            median_ns: 2.0,
            reference_median_ns: 4.0,
        }];
        assert_eq!(regressions(&bad, &baseline).unwrap().len(), 1);
    }

    #[test]
    fn synthetic_dataset_has_the_requested_shape() {
        let d = synthetic_dataset(100, 5).unwrap();
        assert_eq!(d.len(), 100);
        assert_eq!(d.num_features(), 5);
    }
}
