//! Hot-path kernel benchmark: measures the fused simulation kernels
//! against the pre-optimisation reference implementations and writes
//! `BENCH_hotpath.json`, the repo's tracked perf trajectory.
//!
//! Six kernels are timed (median ns/op over repeated samples):
//!
//! * `thermal_step` — one 80 µs [`ThermalGrid::step`] (4 fused substeps)
//!   vs [`ThermalGrid::step_reference`];
//! * `severity_argmax` — one pruned [`MltdMap::severity_argmax`] vs
//!   [`MltdMap::severity_argmax_reference`], the first-max scan over the
//!   naive [`MltdMap::compute_reference`] stencil field, on temperature
//!   fields taken from a simulated run;
//! * `gbt_predict` — one [`gbt::FlatModel::predict`] vs the pointer-walk
//!   [`gbt::GbtModel::predict`];
//! * `gbt_predict_batch` — one 64-row [`gbt::FlatModel::predict_batch_into`]
//!   vs [`gbt::GbtModel::predict_batch`];
//! * `gbt_predict_candidates` — one (hold, step-up) row pair through a
//!   223-tree depth-3 ensemble over 78 features, the shape of the
//!   serving decide: [`gbt::FlatModel::predict_pair`] vs
//!   [`gbt::GbtModel::predict_batch`];
//! * `pipeline_step` — one full fused [`hotgauge::SimRun::step`] vs a
//!   reference loop composed from the pre-PR kernels.
//!
//! The SIMD-dispatched kernel (thermal) is
//! additionally timed once per ISA this CPU supports; the active ISA and
//! any `BOREAS_SIMD` override are recorded in the machine block so two
//! snapshots are never compared across ISAs by accident.
//!
//! Usage: `bench_hotpath [--smoke] [--out PATH] [--check BASELINE]
//! [--metrics-out BASE]`. `--smoke` shrinks iteration counts for CI;
//! `--check` compares each kernel's *speedup ratio* (new vs reference on
//! the same machine — machine-independent) against a checked-in baseline
//! and exits non-zero on a >25% regression, refusing outright when the
//! baseline was recorded under a different SIMD ISA; `--metrics-out`
//! additionally exports the medians/speedups as Prometheus gauges.

use common::cli::Spec;
use common::units::{GigaHertz, Volts};
use common::Result;
use floorplan::{Grid, SensorSite};
use gbt::{Dataset, GbtModel, GbtParams};
use hotgauge::{ArgmaxScratch, MltdMap, PipelineConfig};
use perfsim::CoreModel;
use powersim::PowerModel;
use simd::Isa;
use std::time::Instant;
use thermal::{SensorBank, ThermalGrid};
use workloads::{PhaseEngine, WorkloadSpec};

/// One benchmarked kernel: fused median, reference median, derived
/// stats, plus (for the SIMD-dispatched kernels) the fused median
/// re-measured on every ISA this CPU supports.
struct KernelResult {
    name: &'static str,
    median_ns: f64,
    reference_median_ns: f64,
    /// `(isa name, fused median ns)`, best ISA first; empty for kernels
    /// without a vector path.
    isa_medians: Vec<(&'static str, f64)>,
}

impl KernelResult {
    fn speedup(&self) -> f64 {
        self.reference_median_ns / self.median_ns
    }

    fn ops_per_sec(&self) -> f64 {
        1e9 / self.median_ns
    }
}

/// Times `samples` batches of `iters` calls of each of `fused` and
/// `reference`; returns the two median per-op nanoseconds.
///
/// The two sides alternate batch by batch, and which side goes first
/// alternates too, so a slow spell of the host lands on both sides of
/// the speedup ratio instead of on whichever side it happened to hit.
fn measure(
    samples: usize,
    iters: usize,
    mut fused: impl FnMut(),
    mut reference: impl FnMut(),
) -> (f64, f64) {
    // Warm-up: one untimed batch of each.
    time_batch(iters, &mut fused);
    time_batch(iters, &mut reference);
    let mut fused_ns = Vec::with_capacity(samples);
    let mut reference_ns = Vec::with_capacity(samples);
    for s in 0..samples {
        if s % 2 == 0 {
            fused_ns.push(time_batch(iters, &mut fused));
            reference_ns.push(time_batch(iters, &mut reference));
        } else {
            reference_ns.push(time_batch(iters, &mut reference));
            fused_ns.push(time_batch(iters, &mut fused));
        }
    }
    (median(fused_ns), median(reference_ns))
}

/// Per-op nanoseconds of one batch of `iters` calls.
fn time_batch(iters: usize, op: &mut impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        op();
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    xs[xs.len() / 2]
}

/// A deterministic non-uniform power map exercising the boundary and
/// interior paths alike.
fn test_power(cells: usize) -> Vec<f64> {
    (0..cells)
        .map(|i| 0.01 + 0.05 * (((i * 29) % 97) as f64 / 97.0))
        .collect()
}

fn bench_thermal(smoke: bool) -> Result<KernelResult> {
    let cfg = PipelineConfig::paper();
    let grid = Grid::rasterize(&cfg.floorplan, cfg.grid)?;
    let power = test_power(grid.spec().cells());
    let mut reference = ThermalGrid::new(&grid, cfg.thermal.clone());
    let (samples, iters) = if smoke { (5, 50) } else { (21, 300) };
    let active = Isa::active();
    let (mut median_ns, mut reference_median_ns) = (0.0, 0.0);
    let mut isa_medians = Vec::new();
    for isa in Isa::available() {
        let mut fused = ThermalGrid::new(&grid, cfg.thermal.clone()).with_isa(isa);
        let (m, r) = measure(
            samples,
            iters,
            || fused.step(&power, 80.0).expect("thermal step"),
            || {
                reference
                    .step_reference(&power, 80.0)
                    .expect("thermal step")
            },
        );
        if isa == active {
            (median_ns, reference_median_ns) = (m, r);
        }
        isa_medians.push((isa.name(), m));
    }
    Ok(KernelResult {
        name: "thermal_step",
        median_ns,
        reference_median_ns,
        isa_medians,
    })
}

/// The severity argmax on the fields a simulation step really sees: the
/// end-of-step temperatures of a 4.5 GHz gromacs run, cycled through.
fn bench_severity_argmax(smoke: bool) -> Result<KernelResult> {
    let cfg = PipelineConfig::paper();
    let pipeline = cfg.clone().build()?;
    let mut run = pipeline.start_run(&WorkloadSpec::by_name("gromacs")?)?;
    let mut fields = Vec::new();
    for _ in 0..48 {
        run.step(GigaHertz::new(4.5), Volts::new(1.15))?;
        fields.push(run.thermal().temperatures().to_vec());
    }
    let mltd = MltdMap::new(pipeline.grid(), cfg.severity.mltd_radius_mm);
    let mut scratch = ArgmaxScratch::default();
    let (samples, iters) = if smoke { (5, 200) } else { (21, 2_000) };
    let (mut k, mut j) = (0usize, 0usize);
    let (median_ns, reference_median_ns) = measure(
        samples,
        iters,
        || {
            let temps = &fields[k % fields.len()];
            std::hint::black_box(mltd.severity_argmax(temps, &cfg.severity, &mut scratch));
            k += 1;
        },
        || {
            let temps = &fields[j % fields.len()];
            std::hint::black_box(mltd.severity_argmax_reference(temps, &cfg.severity));
            j += 1;
        },
    );
    Ok(KernelResult {
        name: "severity_argmax",
        median_ns,
        reference_median_ns,
        isa_medians: Vec::new(),
    })
}

fn bench_gbt(smoke: bool) -> Result<KernelResult> {
    let mut d = Dataset::new(vec!["x0".into(), "x1".into(), "x2".into()]);
    for i in 0..400 {
        let x0 = (i % 23) as f64 / 23.0;
        let x1 = (i % 7) as f64;
        let x2 = ((i * 13) % 31) as f64 / 31.0;
        d.push_row(&[x0, x1, x2], 2.0 * x0 + (x1 - 3.0).powi(2) - x2, 0)?;
    }
    let model = GbtModel::train(&d, &GbtParams::default().with_estimators(60))?;
    let flat = model.flatten();
    let rows: Vec<[f64; 3]> = (0..64)
        .map(|i| {
            [
                (i % 23) as f64 / 23.0 + 0.013,
                (i % 7) as f64 - 0.4,
                ((i * 11) % 31) as f64 / 31.0,
            ]
        })
        .collect();
    let (samples, iters) = if smoke { (15, 10_000) } else { (21, 20_000) };
    let (mut k, mut j) = (0usize, 0usize);
    let (median_ns, reference_median_ns) = measure(
        samples,
        iters,
        || {
            std::hint::black_box(flat.predict(&rows[k % rows.len()]));
            k += 1;
        },
        || {
            std::hint::black_box(model.predict(&rows[j % rows.len()]));
            j += 1;
        },
    );
    Ok(KernelResult {
        name: "gbt_predict",
        median_ns,
        reference_median_ns,
        isa_medians: Vec::new(),
    })
}

/// Batched inference: one [`gbt::FlatModel::predict_batch_into`] call
/// over 64 rows (the flat lockstep walk, two rows at a time) vs the
/// tree-outer [`gbt::GbtModel::predict_batch`]. Per-op time covers the
/// whole batch.
fn bench_gbt_batch(smoke: bool) -> Result<KernelResult> {
    let mut d = Dataset::new(vec!["x0".into(), "x1".into(), "x2".into()]);
    for i in 0..400 {
        let x0 = (i % 23) as f64 / 23.0;
        let x1 = (i % 7) as f64;
        let x2 = ((i * 13) % 31) as f64 / 31.0;
        d.push_row(&[x0, x1, x2], 2.0 * x0 + (x1 - 3.0).powi(2) - x2, 0)?;
    }
    let model = GbtModel::train(&d, &GbtParams::default().with_estimators(60))?;
    let rows: Vec<Vec<f64>> = (0..64)
        .map(|i| {
            vec![
                (i % 23) as f64 / 23.0 + 0.013,
                (i % 7) as f64 - 0.4,
                ((i * 11) % 31) as f64 / 31.0,
            ]
        })
        .collect();
    let (samples, iters) = if smoke { (5, 50) } else { (21, 600) };
    let flat = model.flatten();
    let mut out = Vec::new();
    let (median_ns, reference_median_ns) = measure(
        samples,
        iters,
        || {
            flat.predict_batch_into(&rows, &mut out);
            std::hint::black_box(&out);
        },
        || {
            std::hint::black_box(model.predict_batch(&rows));
        },
    );
    Ok(KernelResult {
        name: "gbt_predict_batch",
        median_ns,
        reference_median_ns,
        isa_medians: Vec::new(),
    })
}

/// The serving decide's query: a (hold, step-up) pair of 78-feature
/// rows through the Table II ensemble shape (223 trees of depth 3), one
/// [`gbt::FlatModel::predict_pair`] lockstep pass vs the tree-outer
/// [`gbt::GbtModel::predict_batch`]. Per-op time covers the pair.
fn bench_gbt_candidates(smoke: bool) -> Result<KernelResult> {
    const FEATURES: usize = 78;
    let names = (0..FEATURES).map(|f| format!("x{f}")).collect();
    let mut d = Dataset::new(names);
    let row = |i: usize| -> Vec<f64> {
        (0..FEATURES)
            .map(|f| ((i * (2 * f + 3) + f * f) % 97) as f64 / 97.0)
            .collect()
    };
    for i in 0..600 {
        let x = row(i);
        let y = x[0] * 2.0 + (x[1] - 0.5).powi(2) + x[2] * x[3] - 0.5 * x[77];
        d.push_row(&x, y, 0)?;
    }
    let model = GbtModel::train(&d, &GbtParams::default().with_estimators(223))?;
    let flat = model.flatten();
    // The step-up candidate rescales a few extensive features.
    let pairs: Vec<Vec<Vec<f64>>> = (0..64)
        .map(|i| {
            let hold = row(7 * i + 1);
            let up = hold
                .iter()
                .enumerate()
                .map(|(f, v)| if f % 3 == 0 { v * 1.0625 } else { *v })
                .collect();
            vec![hold, up]
        })
        .collect();
    let (samples, iters) = if smoke { (15, 2_000) } else { (21, 10_000) };
    let (mut k, mut j) = (0usize, 0usize);
    let (median_ns, reference_median_ns) = measure(
        samples,
        iters,
        || {
            let pair = &pairs[k % pairs.len()];
            std::hint::black_box(flat.predict_pair(&pair[0], &pair[1]));
            k += 1;
        },
        || {
            std::hint::black_box(model.predict_batch(&pairs[j % pairs.len()]));
            j += 1;
        },
    );
    Ok(KernelResult {
        name: "gbt_predict_candidates",
        median_ns,
        reference_median_ns,
        isa_medians: Vec::new(),
    })
}

/// The pre-PR per-step loop, composed from the reference kernels and the
/// allocating APIs: power map allocated per step, branchy thermal
/// substeps, naive MLTD field materialised, separate severity scan.
struct ReferenceLoop {
    spec: WorkloadSpec,
    cfg: PipelineConfig,
    grid: Grid,
    core: CoreModel,
    power: PowerModel,
    mltd: MltdMap,
    thermal: ThermalGrid,
    sensors: SensorBank,
    phases: PhaseEngine,
    now_us: f64,
}

impl ReferenceLoop {
    fn new(cfg: &PipelineConfig, spec: &WorkloadSpec) -> Result<Self> {
        let grid = Grid::rasterize(&cfg.floorplan, cfg.grid)?;
        let sensors = SensorBank::new(
            SensorSite::paper_seven(&cfg.floorplan),
            &grid,
            cfg.sensor_delay_us,
            cfg.sensor_quant_c,
            cfg.thermal.ambient,
        )?;
        Ok(Self {
            spec: spec.clone(),
            cfg: cfg.clone(),
            core: CoreModel::new(cfg.core.clone()),
            power: PowerModel::new(&grid, cfg.power.clone()),
            mltd: MltdMap::new(&grid, cfg.severity.mltd_radius_mm),
            thermal: ThermalGrid::new(&grid, cfg.thermal.clone()),
            sensors,
            phases: PhaseEngine::new(spec, cfg.seed),
            grid,
            now_us: 0.0,
        })
    }

    fn step(&mut self, freq: GigaHertz, voltage: Volts) -> Result<f64> {
        let act = self.phases.step();
        let counters = self.core.simulate_step(&self.spec, &act, freq, voltage);
        let intensity = self.spec.heat * act.core;
        let power_map = self.power.power_map(
            &counters,
            intensity,
            voltage,
            freq,
            self.thermal.temperatures(),
        );
        self.thermal.step_reference(&power_map, 80.0)?;
        self.now_us += 80.0;
        self.sensors.record(self.now_us, &self.thermal)?;
        let max_raw = self
            .mltd
            .severity_argmax_reference(self.thermal.temperatures(), &self.cfg.severity)
            .max_raw;
        let readings = self.sensors.read_all(self.now_us);
        std::hint::black_box((&readings, self.grid.spec().nx));
        Ok(max_raw)
    }
}

fn bench_pipeline(smoke: bool) -> Result<KernelResult> {
    let cfg = PipelineConfig::paper();
    let spec = WorkloadSpec::by_name("gromacs")?;
    let freq = GigaHertz::new(4.5);
    let voltage = Volts::new(1.15);
    let (samples, iters) = if smoke { (5, 24) } else { (15, 144) };

    let pipeline = cfg.clone().build()?;
    let mut run = pipeline.start_run(&spec)?;
    let mut reference = ReferenceLoop::new(&cfg, &spec)?;
    let (median_ns, reference_median_ns) = measure(
        samples,
        iters,
        || {
            std::hint::black_box(run.step(freq, voltage).expect("fused step"));
        },
        || {
            std::hint::black_box(reference.step(freq, voltage).expect("reference step"));
        },
    );
    Ok(KernelResult {
        name: "pipeline_step",
        median_ns,
        reference_median_ns,
        isa_medians: Vec::new(),
    })
}

fn render_json(results: &[KernelResult], smoke: bool) -> String {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let kernels: Vec<String> = results
        .iter()
        .map(|r| {
            let isa_block = if r.isa_medians.is_empty() {
                String::new()
            } else {
                let entries: Vec<String> = r
                    .isa_medians
                    .iter()
                    .map(|(isa, ns)| format!("\"{isa}\": {ns:.1}"))
                    .collect();
                format!("      \"isa_medians_ns\": {{ {} }},\n", entries.join(", "))
            };
            format!(
                "    {{\n      \"name\": \"{}\",\n      \"median_ns\": {:.1},\n      \
                 \"ops_per_sec\": {:.1},\n      \"reference_median_ns\": {:.1},\n{}      \
                 \"speedup\": {:.3}\n    }}",
                r.name,
                r.median_ns,
                r.ops_per_sec(),
                r.reference_median_ns,
                isa_block,
                r.speedup()
            )
        })
        .collect();
    let simd_override = Isa::env_override().map_or_else(|| "null".into(), |v| format!("\"{v}\""));
    format!(
        "{{\n  \"schema\": \"boreas-bench-hotpath-v1\",\n  \"smoke\": {},\n  \"machine\": {{\n    \
         \"os\": \"{}\",\n    \"arch\": \"{}\",\n    \"threads\": {},\n    \"simd_isa\": \"{}\",\n    \
         \"simd_detected\": \"{}\",\n    \"simd_override\": {}\n  }},\n  \"kernels\": [\n{}\n  ]\n}}\n",
        smoke,
        std::env::consts::OS,
        std::env::consts::ARCH,
        threads,
        Isa::active().name(),
        Isa::detect().name(),
        simd_override,
        kernels.join(",\n")
    )
}

/// The kernels of `current` that regressed by more than 25% against
/// the baseline snapshot.
fn regressions(current: &[KernelResult], baseline_json: &str) -> Result<Vec<String>> {
    boreas_bench::speedup_regressions(current.iter().map(|r| (r.name, r.speedup())), baseline_json)
}

fn main() -> Result<()> {
    let (reporting, args) = boreas_bench::Reporting::parse_env(
        Spec::new("bench_hotpath", "hot-path kernels vs their references")
            .switch("smoke", "short CI-sized run")
            .value_flag::<String>("out", "path", Some("BENCH_hotpath.json"), "result JSON")
            .value_flag::<String>("check", "baseline", None, "fail on a >25% speedup drop"),
        &[],
    );
    let smoke = args.has("smoke");
    let out_path = args.value::<String>("out");
    let check_path = args.parsed::<String>("check");

    println!(
        "bench_hotpath ({} mode)",
        if smoke { "smoke" } else { "full" }
    );
    println!(
        "simd: active {} (detected {}, override {})",
        Isa::active(),
        Isa::detect(),
        Isa::env_override().as_deref().unwrap_or("none")
    );
    let results = vec![
        bench_thermal(smoke)?,
        bench_severity_argmax(smoke)?,
        bench_gbt(smoke)?,
        bench_gbt_batch(smoke)?,
        bench_gbt_candidates(smoke)?,
        bench_pipeline(smoke)?,
    ];
    for r in &results {
        println!(
            "  {:<22} {:>10.1} ns/op  (reference {:>10.1} ns/op, {:>5.2}x)",
            r.name,
            r.median_ns,
            r.reference_median_ns,
            r.speedup()
        );
        for (isa, ns) in &r.isa_medians {
            println!("    {isa:<6} {ns:>10.1} ns/op");
        }
    }

    let json = render_json(&results, smoke);
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
                    "Median fused kernel time, ns",
                )
                .set(r.median_ns);
            reporting
                .obs
                .metrics
                .gauge(
                    &format!("bench_{}_speedup", r.name),
                    "Fused vs reference kernel speedup",
                )
                .set(r.speedup());
        }
        reporting.finish(None)?;
    }

    if let Some(baseline_path) = check_path {
        let baseline = std::fs::read_to_string(&baseline_path)
            .map_err(|e| common::Error::io("read bench baseline", e.to_string()))?;
        // A baseline recorded under one ISA must never gate numbers from
        // another: the speedup ratios legitimately differ, so a silent
        // cross-ISA comparison would mask (or fake) regressions.
        let doc: common::json::Json = common::json::from_str(&baseline)?;
        let base_isa = doc.get("machine")?.get("simd_isa")?.as_str("simd_isa")?;
        if base_isa != "any" && base_isa != Isa::active().name() {
            eprintln!(
                "ISA MISMATCH: baseline {baseline_path} was recorded with simd_isa={base_isa} \
                 but this run uses {}; set BOREAS_SIMD={base_isa} (or pick the matching \
                 baseline) to compare",
                Isa::active()
            );
            std::process::exit(1);
        }
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
            KernelResult {
                name: "thermal_step",
                median_ns: 1000.0,
                reference_median_ns: 3000.0,
                isa_medians: vec![("avx2", 1000.0), ("sse2", 1600.0), ("scalar", 2900.0)],
            },
            KernelResult {
                name: "severity_argmax",
                median_ns: 500.0,
                reference_median_ns: 4000.0,
                isa_medians: Vec::new(),
            },
        ];
        let json = render_json(&results, true);
        let got = boreas_bench::baseline_speedups(&json).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, "thermal_step");
        assert!((got[0].1 - 3.0).abs() < 1e-9);
        assert_eq!(got[1].0, "severity_argmax");
        assert!((got[1].1 - 8.0).abs() < 1e-9);
    }

    #[test]
    fn machine_block_records_the_active_isa() {
        let doc: common::json::Json = common::json::from_str(&render_json(&[], true)).unwrap();
        let machine = doc.get("machine").unwrap();
        let machine = |key| machine.get(key).unwrap().as_str(key).unwrap();
        assert_eq!(machine("simd_isa"), Isa::active().name());
        assert_eq!(machine("simd_detected"), Isa::detect().name());
    }

    #[test]
    fn regression_check_flags_only_large_drops() {
        let baseline = render_json(
            &[KernelResult {
                name: "thermal_step",
                median_ns: 1.0,
                reference_median_ns: 4.0,
                isa_medians: Vec::new(),
            }],
            true,
        );
        // 4.0x -> 3.5x is within the 25% band.
        let fine = [KernelResult {
            name: "thermal_step",
            median_ns: 2.0,
            reference_median_ns: 7.0,
            isa_medians: Vec::new(),
        }];
        assert!(regressions(&fine, &baseline).unwrap().is_empty());
        // 4.0x -> 2.0x is a regression.
        let bad = [KernelResult {
            name: "thermal_step",
            median_ns: 2.0,
            reference_median_ns: 4.0,
            isa_medians: Vec::new(),
        }];
        assert_eq!(regressions(&bad, &baseline).unwrap().len(), 1);
    }
}
