//! Hot-path kernel benchmark: measures the fused simulation kernels
//! against the pre-optimisation reference implementations and writes
//! `BENCH_hotpath.json`, the repo's tracked perf trajectory: a
//! [`KernelBench`] document, pretty-printed by the `common::json` codec.
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
//! read as a [`KernelBench`], and exits non-zero on a >25% regression or
//! a baseline kernel this run did not measure, refusing outright when
//! the baseline was recorded under a different SIMD ISA; `--metrics-out`
//! additionally exports the medians/speedups as Prometheus gauges.

use boreas_bench::report::{publish, speedup_regressions, IsaMedians, Kernel, KernelBench};
use common::cli::Spec;
use common::units::{GigaHertz, Volts};
use common::{json, Result};
use floorplan::{Grid, SensorSite};
use gbt::{Dataset, GbtModel, GbtParams};
use hotgauge::{ArgmaxScratch, MltdMap, PipelineConfig};
use perfsim::CoreModel;
use powersim::PowerModel;
use simd::Isa;
use std::time::Instant;
use thermal::{SensorBank, ThermalGrid};
use workloads::{PhaseEngine, WorkloadSpec};

/// The `schema` of every document this binary writes.
const SCHEMA: &str = "boreas-bench-hotpath-v1";

/// A kernel from its `(fused, reference)` medians, with its throughput.
fn kernel(name: &str, (median_ns, reference_median_ns): (f64, f64)) -> Kernel {
    Kernel {
        ops_per_sec: Some(1e9 / median_ns),
        ..Kernel::new(name, median_ns, reference_median_ns)
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

fn bench_thermal(smoke: bool) -> Result<Kernel> {
    let cfg = PipelineConfig::paper();
    let grid = Grid::rasterize(&cfg.floorplan, cfg.grid)?;
    let power = test_power(grid.spec().cells());
    let mut reference = ThermalGrid::new(&grid, cfg.thermal.clone());
    let (samples, iters) = if smoke { (5, 50) } else { (21, 300) };
    let active = Isa::active();
    let mut medians = (0.0, 0.0);
    let mut isa_medians = IsaMedians::default();
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
            medians = (m, r);
        }
        println!("  thermal_step on {:<6} {m:>10.1} ns/op", isa.name());
        let slot = match isa {
            Isa::Avx2 => &mut isa_medians.avx2,
            Isa::Sse2 => &mut isa_medians.sse2,
            Isa::Scalar => &mut isa_medians.scalar,
        };
        *slot = Some(m);
    }
    Ok(Kernel {
        isa_medians_ns: Some(isa_medians),
        ..kernel("thermal_step", medians)
    })
}

/// The severity argmax on the fields a simulation step really sees: the
/// end-of-step temperatures of a 4.5 GHz gromacs run, cycled through.
fn bench_severity_argmax(smoke: bool) -> Result<Kernel> {
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
    let medians = measure(
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
    Ok(kernel("severity_argmax", medians))
}

/// The GBT kernels' model, 60 trees fitted on a 3-feature synthetic set,
/// and 64 probe rows off its training grid.
fn small_gbt() -> Result<(GbtModel, Vec<Vec<f64>>)> {
    let mut d = Dataset::new(vec!["x0".into(), "x1".into(), "x2".into()]);
    for i in 0..400 {
        let x0 = (i % 23) as f64 / 23.0;
        let x1 = (i % 7) as f64;
        let x2 = ((i * 13) % 31) as f64 / 31.0;
        d.push_row(&[x0, x1, x2], 2.0 * x0 + (x1 - 3.0).powi(2) - x2, 0)?;
    }
    let model = GbtModel::train(&d, &GbtParams::default().with_estimators(60))?;
    let rows = (0..64)
        .map(|i| {
            vec![
                (i % 23) as f64 / 23.0 + 0.013,
                (i % 7) as f64 - 0.4,
                ((i * 11) % 31) as f64 / 31.0,
            ]
        })
        .collect();
    Ok((model, rows))
}

fn bench_gbt(smoke: bool) -> Result<Kernel> {
    let (model, rows) = small_gbt()?;
    let flat = model.flatten();
    let (samples, iters) = if smoke { (15, 10_000) } else { (21, 20_000) };
    let (mut k, mut j) = (0usize, 0usize);
    let medians = measure(
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
    Ok(kernel("gbt_predict", medians))
}

/// Batched inference: one [`gbt::FlatModel::predict_batch_into`] call
/// over 64 rows (the flat lockstep walk, two rows at a time) vs the
/// tree-outer [`gbt::GbtModel::predict_batch`]. Per-op time covers the
/// whole batch.
fn bench_gbt_batch(smoke: bool) -> Result<Kernel> {
    let (model, rows) = small_gbt()?;
    let (samples, iters) = if smoke { (5, 50) } else { (21, 600) };
    let flat = model.flatten();
    let mut out = Vec::new();
    let medians = measure(
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
    Ok(kernel("gbt_predict_batch", medians))
}

/// The serving decide's query: a (hold, step-up) pair of 78-feature
/// rows through the Table II ensemble shape (223 trees of depth 3), one
/// [`gbt::FlatModel::predict_pair`] lockstep pass vs the tree-outer
/// [`gbt::GbtModel::predict_batch`]. Per-op time covers the pair.
fn bench_gbt_candidates(smoke: bool) -> Result<Kernel> {
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
    let medians = measure(
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
    Ok(kernel("gbt_predict_candidates", medians))
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

fn bench_pipeline(smoke: bool) -> Result<Kernel> {
    let cfg = PipelineConfig::paper();
    let spec = WorkloadSpec::by_name("gromacs")?;
    let freq = GigaHertz::new(4.5);
    let voltage = Volts::new(1.15);
    let (samples, iters) = if smoke { (5, 24) } else { (15, 144) };

    let pipeline = cfg.clone().build()?;
    let mut run = pipeline.start_run(&spec)?;
    let mut reference = ReferenceLoop::new(&cfg, &spec)?;
    let medians = measure(
        samples,
        iters,
        || {
            std::hint::black_box(run.step(freq, voltage).expect("fused step"));
        },
        || {
            std::hint::black_box(reference.step(freq, voltage).expect("reference step"));
        },
    );
    Ok(kernel("pipeline_step", medians))
}

/// Refuses a baseline recorded under another SIMD ISA than `active`
/// (`"any"` matches every ISA): the speedups legitimately differ between
/// ISAs, so a silent cross-ISA comparison would mask or fake
/// regressions. A baseline that names no ISA is an error.
fn isa_mismatch(baseline: &KernelBench, active: Isa) -> Result<Option<String>> {
    let base = baseline
        .machine
        .simd_isa
        .as_deref()
        .ok_or_else(|| json::schema_error("simd_isa", "missing field".to_string()))?;
    Ok((base != "any" && base != active.name()).then(|| {
        format!(
            "ISA MISMATCH: the baseline was recorded with simd_isa={base} but this run uses \
             {active}; set BOREAS_SIMD={base} (or pick the matching baseline) to compare"
        )
    }))
}

fn main() {
    common::cli::run_main(run);
}

fn run() -> Result<()> {
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
    let kernels = vec![
        bench_thermal(smoke)?,
        bench_severity_argmax(smoke)?,
        bench_gbt(smoke)?,
        bench_gbt_batch(smoke)?,
        bench_gbt_candidates(smoke)?,
        bench_pipeline(smoke)?,
    ];
    for k in &kernels {
        println!(
            "  {:<22} {:>10.1} ns/op  (reference {:>10.1} ns/op, {:>5.2}x)",
            k.name, k.median_ns, k.reference_median_ns, k.speedup
        );
    }

    let doc = KernelBench::new(SCHEMA, smoke, kernels);
    publish(
        &reporting,
        &doc,
        &out_path,
        check_path.as_deref(),
        |baseline| {
            Ok(match isa_mismatch(baseline, Isa::active())? {
                Some(mismatch) => vec![mismatch],
                None => speedup_regressions(&doc.kernels, baseline),
            })
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_scanner_roundtrips_render() {
        let thermal = Kernel {
            isa_medians_ns: Some(IsaMedians {
                avx2: None,
                sse2: Some(1600.0),
                scalar: Some(2900.0),
            }),
            ..kernel("thermal_step", (1000.0, 3000.0))
        };
        let doc = KernelBench::new(SCHEMA, true, vec![thermal]);
        let back: KernelBench = json::from_str(&json::to_string_pretty(&doc).unwrap()).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.kernels[0].speedup, 3.0);
        assert_eq!(back.kernels[0].ops_per_sec, Some(1e6));
    }

    #[test]
    fn machine_block_records_the_active_isa() {
        let machine = KernelBench::new(SCHEMA, true, Vec::new()).machine;
        assert_eq!(machine.simd_isa.as_deref(), Some(Isa::active().name()));
        assert_eq!(machine.simd_detected.as_deref(), Some(Isa::detect().name()));
    }

    #[test]
    fn isa_guard_refuses_a_missing_or_different_isa() {
        let text = include_str!("../../baselines/BENCH_hotpath_baseline.json");
        let scalar: KernelBench = json::from_str(text).unwrap();
        assert_eq!(isa_mismatch(&scalar, Isa::Scalar).unwrap(), None);
        let refused = isa_mismatch(&scalar, Isa::Avx2).unwrap().unwrap();
        assert!(refused.contains("BOREAS_SIMD=scalar"), "{refused}");
        // `"any"` matches every ISA.
        let any: KernelBench = json::from_str(&text.replace("\"scalar\"", "\"any\"")).unwrap();
        for isa in Isa::ALL {
            assert_eq!(isa_mismatch(&any, isa).unwrap(), None);
        }
        // A baseline that names no ISA is an error, not a pass.
        let unnamed = text.replace(",\n    \"simd_isa\": \"scalar\"", "");
        let unnamed: KernelBench = json::from_str(&unnamed).unwrap();
        assert_eq!(unnamed.machine.simd_isa, None);
        let err = isa_mismatch(&unnamed, Isa::Scalar).unwrap_err();
        assert_eq!(err.protocol_kind(), Some(common::ProtocolKind::Schema));
    }

    #[test]
    fn regression_check_flags_only_large_drops() {
        let baseline = KernelBench::new(SCHEMA, true, vec![kernel("thermal_step", (1.0, 4.0))]);
        // 4.0x -> 3.5x is within the 25% band.
        let fine = [kernel("thermal_step", (2.0, 7.0))];
        assert!(speedup_regressions(&fine, &baseline).is_empty());
        // 4.0x -> 2.0x is a regression.
        let bad = [kernel("thermal_step", (2.0, 4.0))];
        assert_eq!(speedup_regressions(&bad, &baseline).len(), 1);
    }
}
