//! §III-D: application-specific and global critical temperatures,
//! including the sensor-placement spread and the sensor-delay study
//! (gromacs vs a smooth workload).

use boreas_core::{CriticalTemps, VfTable};
use floorplan::SensorSite;
use hotgauge::PipelineConfig;
use workloads::WorkloadSpec;

fn main() {
    common::cli::Spec::new("table_critical_temps", "§III-D: critical temperatures").parse_env();
    let vf = VfTable::paper();
    let train = WorkloadSpec::train_set();

    // Per-frequency global thresholds with the paper's 960 us delay.
    let pipeline = PipelineConfig::paper().build().expect("paper config");
    let crit = CriticalTemps::measure(&pipeline, &train, &vf, 3, 150).expect("measure");
    println!("Global critical temperatures, sensor tsens03, delay 960 us:");
    for (i, t) in crit.global_thresholds().iter().enumerate() {
        match t {
            Some(t) => println!("  {:>5.2} GHz: {:>6.2} C", vf.point(i).frequency.value(), t),
            None => println!(
                "  {:>5.2} GHz: unconstrained (no incursion observed)",
                vf.point(i).frequency.value()
            ),
        }
    }

    // Sensor-location study: spread across the top-4 sensors (paper:
    // every workload has a frequency where sensors disagree by >= 13 C).
    println!("\nCritical-temperature spread across sensors tsens00..tsens03 (per workload max over frequencies):");
    let mut per_sensor: Vec<CriticalTemps> = Vec::new();
    for s in 0..4 {
        per_sensor.push(CriticalTemps::measure(&pipeline, &train, &vf, s, 150).expect("measure"));
    }
    let mut ge13 = 0;
    let mut gt20 = 0;
    let mut peak_spread: f64 = 0.0;
    for w in &train {
        let mut max_spread: f64 = 0.0;
        for i in 0..vf.len() {
            let vals: Vec<f64> = per_sensor
                .iter()
                .filter_map(|c| c.critical(&w.name, i))
                .collect();
            if vals.len() == 4 {
                let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                max_spread = max_spread.max(hi - lo);
            }
        }
        if max_spread >= 13.0 {
            ge13 += 1;
        }
        if max_spread > 20.0 {
            gt20 += 1;
        }
        peak_spread = peak_spread.max(max_spread);
        println!("  {:<12} {:>6.2} C", w.name, max_spread);
    }
    println!("workloads with spread >= 13 C at some frequency: {ge13}/20 (paper: all)");
    println!("workloads with spread >  20 C: {gt20}/20 (paper: ~half)");
    println!("peak spread: {peak_spread:.1} C (paper: > 37 C)");

    // Sensor-delay study (paper §III-D1: gromacs throttles at 70 C with a
    // 180 us delay but can never run above 4.25 GHz at 960 us; the smooth
    // sjeng keeps a high critical temperature even at 960 us).
    println!("\nSensor-delay study (critical temperature at the highest constrained frequency):");
    for delay in [0.0, 180.0, 960.0] {
        let mut cfg = PipelineConfig::paper();
        cfg.sensor_delay_us = delay;
        let p = cfg.build().expect("config");
        let subset = vec![
            WorkloadSpec::by_name("gromacs").expect("gromacs"),
            WorkloadSpec::by_name("sjeng").expect("sjeng"),
        ];
        let c = CriticalTemps::measure(&p, &subset, &vf, 3, 150).expect("measure");
        for w in &subset {
            // Highest frequency with a finite critical temperature equal
            // to ambient-start (i.e. hotspot faster than the sensor).
            let sites = SensorSite::paper_seven(p.floorplan());
            let _ = &sites; // sensors fixed; placement studied in fig5
            let mut line = format!("  delay {:>4.0} us  {:<8}", delay, w.name);
            for i in [8, 10, 12] {
                match c.critical(&w.name, i) {
                    Some(t) => line.push_str(&format!(
                        "  {:>5.2} GHz: {:>6.2} C",
                        vf.point(i).frequency.value(),
                        t
                    )),
                    None => line.push_str(&format!(
                        "  {:>5.2} GHz:   safe  ",
                        vf.point(i).frequency.value()
                    )),
                }
            }
            println!("{line}");
        }
    }
}
