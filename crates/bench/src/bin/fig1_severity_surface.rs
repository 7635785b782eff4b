//! Fig. 1: the Hotspot-Severity surface over (temperature, MLTD).
//!
//! Prints the severity value on a T × MLTD grid plus the paper's three
//! calibration statements.

use common::units::Celsius;
use hotgauge::SeverityParams;

fn main() {
    common::cli::Spec::new("fig1_severity_surface", "Fig. 1: Hotspot-Severity surface").parse_env();
    let params = SeverityParams::default();
    println!("Fig. 1: Hotspot-Severity(T, MLTD), clamped to [0, 1]\n");
    print!("{:>8}", "T\\MLTD");
    let mltds: Vec<f64> = (0..=8).map(|i| i as f64 * 5.0).collect();
    for m in &mltds {
        print!(" {:>6.0}", m);
    }
    println!();
    for ti in 0..=14 {
        let t = 45.0 + ti as f64 * 5.0;
        print!("{:>7.0}C", t);
        for &m in &mltds {
            let s = params.evaluate(Celsius::new(t), Celsius::new(m));
            print!(" {:>6.2}", s.value());
        }
        println!();
    }
    println!("\nCalibration points (paper: severity = 1.0 at each):");
    for (t, m) in [(115.0, 0.0), (80.0, 40.0), (95.0, 20.0)] {
        let s = params.evaluate(Celsius::new(t), Celsius::new(m));
        println!("  T = {t:>5.1} C, MLTD = {m:>4.1} C -> severity {s}");
    }
}
