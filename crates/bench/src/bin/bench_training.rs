//! Training-path benchmark: measures the histogram GBT trainer against
//! the exact-greedy reference on the Fig. 8 training extraction and
//! writes `BENCH_training.json`, the tracked training-perf trajectory: a
//! [`KernelBench`] document, pretty-printed by the `common::json` codec.
//!
//! Three configurations are timed (median wall ns over repeated full
//! trainings, reduced ensemble so a sample stays interactive):
//!
//! * `train_hist_1t` / `train_hist_2t` / `train_hist_4t` — the binned
//!   histogram trainer ([`gbt::TrainSpec`])
//!   at 1, 2 and 4 threads;
//! * the baseline is [`gbt::GbtModel::train_reference`], the seed's
//!   exact greedy scan, on the same dataset and hyper-parameters.
//!
//! A full run also times the extraction itself: `extract_fig8` is
//! [`telemetry::build_dataset_on`] on every core, with the same grid
//! runner on one thread as its reference (the two must extract the same
//! dataset). It has no `--check` floor.
//!
//! Beside timing, the run *asserts* the determinism contract: the three
//! thread counts must produce bit-identical predictions on every
//! training row, and prints the 1-thread model's prediction digest (CI
//! pins the smoke value). Each configuration also prints its median
//! sample's phases (binning, histogram build, split search, row
//! routing) and their sum against the fit's measured binning + boosting
//! time, and one line gives each phase's 1t/2t speedup.
//!
//! Usage: `bench_training [--smoke] [--out PATH] [--check BASELINE]
//! [--metrics-out BASE]`. `--smoke` swaps the pipeline extraction for a
//! synthetic dataset and shrinks the ensemble for CI; `--check` compares
//! each configuration's *speedup ratio* (histogram vs reference on the
//! same machine — machine-independent) against a checked-in baseline
//! read as a [`KernelBench`], and exits non-zero on a >25% regression or
//! a baseline configuration this run did not measure, and — on a machine with two or
//! more cores — fails when the baseline's `scaling_floor` is not met
//! (`train_hist_2t`'s fastest fit slower than `scaling_floor` ×
//! `train_hist_1t`'s speed);
//! `--metrics-out` additionally exports the medians/speedups as
//! Prometheus gauges.

use boreas_bench::report::{publish, speedup_regressions, DatasetShape, Kernel, KernelBench};
use boreas_core::VfTable;
use common::cli::Spec;
use common::{json, Result};
use gbt::{Dataset, GbtModel, GbtParams};
use hotgauge::Pipeline;
use std::time::Instant;
use telemetry::{DatasetSpec, FeatureSet};
use workloads::WorkloadSpec;

/// The `schema` of every document this binary writes.
const SCHEMA: &str = "boreas-bench-training-v1";

/// The timed histogram configurations: name and trainer threads.
const CONFIGS: [(&str, usize); 3] = [
    ("train_hist_1t", 1),
    ("train_hist_2t", 2),
    ("train_hist_4t", 4),
];

/// Runs `op` once; returns its wall nanoseconds and output. One full
/// training per sample — no inner iteration loop, trainings are long
/// enough to time directly.
fn timed<T>(op: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = op();
    (t.elapsed().as_nanos() as f64, out)
}

/// The median sample by wall time.
fn median_sample<T>(mut runs: Vec<(f64, T)>) -> (f64, T) {
    runs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite timings"));
    runs.swap_remove(runs.len() / 2)
}

/// The Fig. 8 training extraction on `threads` threads: the paper
/// training workloads over the paper VF table with all 78 features and
/// the default [`DatasetSpec`] — what [`boreas_core::TrainSpec`] extracts
/// by default.
fn fig8_dataset(pipeline: &Pipeline, threads: usize) -> Result<Dataset> {
    telemetry::build_dataset_on(
        pipeline,
        &FeatureSet::full(),
        &WorkloadSpec::train_set(),
        &VfTable::paper().pairs(),
        &DatasetSpec::default(),
        threads,
    )
}

/// Times the Fig. 8 extraction on every core (`extract_fig8`) against the
/// same grid runner on one thread, in rounds of one extraction each after
/// one untimed round, and asserts both extract the same dataset; returns
/// the kernel and the dataset.
fn extract_fig8(samples: usize) -> Result<(Kernel, Dataset)> {
    let pipeline = hotgauge::PipelineConfig::paper().build()?;
    let cores = common::available_threads();
    let (mut one, mut every) = (Vec::new(), Vec::new());
    let mut data = None;
    for round in 0..=samples {
        let (one_ns, serial) = timed(|| fig8_dataset(&pipeline, 1));
        let (every_ns, parallel) = timed(|| fig8_dataset(&pipeline, cores));
        let (serial, parallel) = (serial?, parallel?);
        assert!(
            serial == parallel,
            "1- and {cores}-thread extractions differ"
        );
        if round > 0 {
            one.push((one_ns, ()));
            every.push((every_ns, ()));
        }
        data = Some(parallel);
    }
    let (reference_ns, ()) = median_sample(one);
    let (median_ns, ()) = median_sample(every);
    let data = data.expect("at least one round");
    Ok((Kernel::new("extract_fig8", median_ns, reference_ns), data))
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

/// Trains with the histogram path at a thread count.
fn hist_train(data: &Dataset, params: &GbtParams, threads: usize) -> gbt::TrainReport {
    gbt::TrainSpec::new(data)
        .params(*params)
        .threads(threads)
        .fit()
        .expect("histogram training")
}

/// One line of a fit's phases in ms, and their sum against the fit's
/// measured `bin_ns + grow_ns` (the rest is the boosting loop's own
/// gradient and prediction updates).
fn phase_line(s: &gbt::TrainStats) -> String {
    let ms = |ns: u64| ns as f64 / 1e6;
    let sum = s.bin_ns + s.hist_ns + s.split_ns + s.route_ns;
    let whole = s.bin_ns + s.grow_ns;
    format!(
        "bin {:.1} + hist {:.1} + split {:.1} + route {:.1} = {:.1} ms of bin+grow {:.1} ms ({:.1}%)",
        ms(s.bin_ns),
        ms(s.hist_ns),
        ms(s.split_ns),
        ms(s.route_ns),
        ms(sum),
        ms(whole),
        100.0 * sum as f64 / whole as f64
    )
}

/// FNV-1a digest of `model`'s prediction bits on every row of `data`,
/// in row order: equal digests mean bit-identical predictions.
fn prediction_digest(model: &GbtModel, data: &Dataset) -> u64 {
    (0..data.len()).fold(common::FNV1A64_OFFSET, |hash, r| {
        common::fnv1a64(hash, &model.predict(&data.row(r)).to_bits().to_le_bytes())
    })
}

/// How many times faster each phase ran in `fast` than in `slow`.
fn phase_speedups(slow: &gbt::TrainStats, fast: &gbt::TrainStats) -> String {
    let x = |slow: u64, fast: u64| slow as f64 / fast as f64;
    format!(
        "bin {:.2}x, hist {:.2}x, split {:.2}x, route {:.2}x",
        x(slow.bin_ns, fast.bin_ns),
        x(slow.hist_ns, fast.hist_ns),
        x(slow.split_ns, fast.split_ns),
        x(slow.route_ns, fast.route_ns)
    )
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

/// Checks the baseline's `scaling_floor` against the fastest 1- and
/// 2-thread fits: `train_hist_2t` must run at least `scaling_floor` × as
/// fast as `train_hist_1t`. Fastest, not median: a busy host only ever
/// slows a fit, and it slows multi-threaded fits most. Returns the
/// failure, if any; `None` on a 1-core machine, where extra trainer
/// threads cannot run in parallel.
fn scaling_failure(
    one_t_ns: f64,
    two_t_ns: f64,
    baseline: &KernelBench,
    cores: usize,
) -> Result<Option<String>> {
    let min_ratio = baseline
        .scaling_floor
        .ok_or_else(|| json::schema_error("scaling_floor", "missing field".to_string()))?;
    if cores < 2 {
        return Ok(None);
    }
    let ratio = one_t_ns / two_t_ns;
    Ok((ratio < min_ratio).then(|| {
        format!("train_hist_2t: fastest fit is {ratio:.2}x as fast as train_hist_1t's, below the {min_ratio:.2}x scaling floor")
    }))
}

fn main() {
    common::cli::run_main(run);
}

fn run() -> Result<()> {
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
    let samples = if smoke { 7 } else { 5 };
    let (data, params, extraction) = if smoke {
        (
            synthetic_dataset(6_000, 12)?,
            GbtParams::default().with_estimators(8),
            None,
        )
    } else {
        let (kernel, data) = extract_fig8(samples)?;
        println!(
            "  {:<14} {:>12.0} ns/extraction on {} threads ({:.2}x vs 1 thread)",
            kernel.name,
            kernel.median_ns,
            common::available_threads(),
            kernel.speedup
        );
        (data, GbtParams::default().with_estimators(20), Some(kernel))
    };
    println!(
        "  dataset: {} rows x {} features, {} trees/training",
        data.len(),
        data.num_features(),
        params.n_estimators
    );

    // Determinism contract first: 1, 2 and 4 trainer threads must agree
    // to the bit.
    let m1 = hist_train(&data, &params, 1).model;
    let m2 = hist_train(&data, &params, 2).model;
    let m4 = hist_train(&data, &params, 4).model;
    assert_bit_identical(&data, &m1, &m2, "1 vs 2 threads");
    assert_bit_identical(&data, &m1, &m4, "1 vs 4 threads");
    println!("  determinism: 1/2/4-thread models bit-identical on every training row");
    println!("prediction digest: {:016x}", prediction_digest(&m1, &data));

    // Each timing starts with an untimed warm-up. The histogram
    // configurations run in rounds of one training each, so drift on a
    // busy machine hits them alike and their ratios stay comparable.
    let reference = (0..=samples)
        .map(|_| {
            timed(|| {
                std::hint::black_box(GbtModel::train_reference(&data, &params).expect("reference"));
            })
        })
        .skip(1)
        .collect();
    let (reference_median_ns, ()) = median_sample(reference);
    let mut runs: Vec<Vec<(f64, gbt::TrainStats)>> = CONFIGS.iter().map(|_| Vec::new()).collect();
    for round in 0..=samples {
        let hist = CONFIGS.map(|(_, threads)| {
            timed(|| std::hint::black_box(hist_train(&data, &params, threads)).stats)
        });
        if round > 0 {
            for (r, s) in runs.iter_mut().zip(hist) {
                r.push(s);
            }
        }
    }
    let (mut kernels, mut phases, mut fastest_ns) = (Vec::new(), Vec::new(), Vec::new());
    for ((name, _), r) in CONFIGS.into_iter().zip(runs) {
        fastest_ns.push(r.iter().map(|s| s.0).fold(f64::INFINITY, f64::min));
        let (median_ns, stats) = median_sample(r);
        kernels.push(Kernel::new(name, median_ns, reference_median_ns));
        phases.push(stats);
    }
    println!(
        "  {:<14} {:>12.0} ns/training",
        "reference", reference_median_ns
    );
    for (k, stats) in kernels.iter().zip(&phases) {
        println!(
            "  {:<14} {:>12.0} ns/training  ({:>5.2}x vs reference)",
            k.name, k.median_ns, k.speedup
        );
        println!("  {:<14} {}", "", phase_line(stats));
    }
    println!(
        "  phases, 1t vs 2t (median fits): {}",
        phase_speedups(&phases[0], &phases[1])
    );
    println!(
        "  fastest fits: 2t {:.2}x and 4t {:.2}x as fast as 1t",
        fastest_ns[0] / fastest_ns[1],
        fastest_ns[0] / fastest_ns[2]
    );

    kernels.extend(extraction);
    let doc = KernelBench {
        dataset: Some(DatasetShape {
            rows: data.len(),
            features: data.num_features(),
        }),
        ..KernelBench::new(SCHEMA, smoke, kernels)
    };
    publish(
        &reporting,
        &doc,
        &out_path,
        check_path.as_deref(),
        |baseline| {
            let mut failures = speedup_regressions(&doc.kernels, baseline);
            let cores = doc.machine.threads;
            match scaling_failure(fastest_ns[0], fastest_ns[1], baseline, cores)? {
                Some(failure) => failures.push(failure),
                None if cores < 2 => println!("scaling floor skipped: 1 core"),
                None => {}
            }
            Ok(failures)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A smoke document of `(name, median_ns, reference_median_ns)`.
    fn doc(kernels: &[(&str, f64, f64)]) -> KernelBench {
        let kernels = kernels
            .iter()
            .map(|&(n, m, r)| Kernel::new(n, m, r))
            .collect();
        KernelBench::new(SCHEMA, true, kernels)
    }

    #[test]
    fn speedup_scanner_roundtrips_render() {
        let shape = DatasetShape {
            rows: 6000,
            features: 12,
        };
        let doc = KernelBench {
            dataset: Some(shape),
            ..doc(&[("train_hist_4t", 500.0, 3000.0)])
        };
        let back: KernelBench = json::from_str(&json::to_string_pretty(&doc).unwrap()).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.kernels[0].speedup, 6.0);
    }

    #[test]
    fn regression_check_flags_only_large_drops() {
        let baseline = doc(&[("train_hist_4t", 1.0, 4.0)]);
        // 4.0x -> 3.5x is within the 25% band.
        let fine = doc(&[("train_hist_4t", 2.0, 7.0)]);
        assert!(speedup_regressions(&fine.kernels, &baseline).is_empty());
        // 4.0x -> 2.0x is a regression.
        let bad = doc(&[("train_hist_4t", 2.0, 4.0)]);
        assert_eq!(speedup_regressions(&bad.kernels, &baseline).len(), 1);
    }

    #[test]
    fn scaling_floor_applies_only_on_two_or_more_cores() {
        let baseline = KernelBench {
            scaling_floor: Some(0.8),
            ..doc(&[])
        };
        // 2t at 1.0x and 0.8x of 1t's speed pass; 0.5x fails.
        assert_eq!(scaling_failure(100.0, 100.0, &baseline, 2).unwrap(), None);
        assert_eq!(scaling_failure(100.0, 125.0, &baseline, 2).unwrap(), None);
        assert!(scaling_failure(100.0, 200.0, &baseline, 2)
            .unwrap()
            .is_some());
        assert_eq!(scaling_failure(100.0, 200.0, &baseline, 1).unwrap(), None);
        // The floor is required.
        assert!(scaling_failure(100.0, 100.0, &doc(&[]), 2).is_err());
    }

    #[test]
    fn committed_baseline_declares_the_scaling_floor() {
        let text = include_str!("../../baselines/BENCH_training_baseline.json");
        let baseline: KernelBench = json::from_str(text).unwrap();
        assert_eq!(baseline.scaling_floor, Some(0.65));
        assert_eq!(scaling_failure(1.0, 1.0, &baseline, 2).unwrap(), None);
    }

    #[test]
    fn synthetic_dataset_has_the_requested_shape() {
        let d = synthetic_dataset(100, 5).unwrap();
        assert_eq!(d.len(), 100);
        assert_eq!(d.num_features(), 5);
    }
}
