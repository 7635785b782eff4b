//! Fig. 5: temperature traces of seven sensor placements during a hot
//! run, versus the true severity.
//!
//! Paper shape: three sensors (tsens04–06, on cool array blocks) only see
//! gradual warming; the other four disagree by up to ~20 degrees; even the
//! best sensor (tsens03) reads "safe-looking" temperatures while the true
//! severity is pinned at 1.0.

use boreas_bench::experiments::{Experiment, RUN_STEPS};
use common::units::GigaHertz;
use floorplan::SensorSite;
use workloads::WorkloadSpec;

fn main() {
    common::cli::Spec::new("fig5_sensor_placement", "Fig. 5: sensor placement traces").parse_env();
    let exp = Experiment::paper().expect("paper config");
    let spec = WorkloadSpec::by_name("gromacs").expect("gromacs");
    let freq = GigaHertz::new(4.5);
    let voltage = exp.vf.voltage_for(freq).expect("table point");
    let out = exp
        .pipeline
        .run_fixed(&spec, freq, voltage, RUN_STEPS)
        .expect("run");

    let sites = SensorSite::paper_seven(exp.pipeline.floorplan());
    println!("Fig. 5: gromacs at 4.5 GHz, sensor readings (960 us delay) vs true state\n");
    print!("{:>6}", "ms");
    for s in &sites {
        print!(" {:>8}", s.name);
    }
    println!(" {:>8} {:>8}", "trueMax", "severity");
    for chunk in out.records.chunks(12) {
        let r = chunk.last().expect("non-empty");
        print!("{:>6.2}", r.time.as_millis_f64());
        for i in 0..sites.len() {
            print!(" {:>8.2}", r.sensor_temps[i].value());
        }
        println!(
            " {:>8.2} {:>8.3}",
            r.max_temp.value(),
            r.max_severity.value()
        );
    }

    // Quantify the paper's two claims at the end of the run.
    let last = out.records.last().expect("non-empty run");
    let readings: Vec<f64> = last.sensor_temps.iter().map(|t| t.value()).collect();
    let good = &readings[0..4];
    let spread = good.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - good.iter().cloned().fold(f64::INFINITY, f64::min);
    println!("\nspread across tsens00-03 at end of run: {spread:.1} C (paper: up to ~20 C)");
    let incursion_steps = out
        .records
        .iter()
        .filter(|r| r.max_severity.is_incursion())
        .count();
    if let Some(first) = out.records.iter().find(|r| r.max_severity.is_incursion()) {
        println!(
            "first incursion at {:.2} ms with tsens03 reading {:.1} C; severity stayed at 1.0 for {incursion_steps} steps \
             (paper: severity > 1 while the sensor still reports seemingly safe values)",
            first.time.as_millis_f64(),
            first.sensor_temps[3].value(),
        );
    }
    let lag: Vec<f64> = (4..7).map(|i| readings[i]).collect();
    println!(
        "cool-block sensors tsens04-06 read {:.1}/{:.1}/{:.1} C: gradual warming only",
        lag[0], lag[1], lag[2]
    );
}
