//! Table I: the voltage/frequency pairs of the modelled 7 nm processor.

use boreas_core::VfTable;

fn main() {
    common::cli::Spec::new("table1_vf_pairs", "Table I: the voltage/frequency pairs").parse_env();
    let vf = VfTable::paper();
    println!("Table I: Select Voltage and Frequency (VF) pairs");
    print!("{:<16}", "Voltage [V]");
    for p in vf.points() {
        print!(" {:>6.3}", p.voltage.value());
    }
    println!();
    print!("{:<16}", "Frequency [GHz]");
    for p in vf.points() {
        print!(" {:>6.2}", p.frequency.value());
    }
    println!();
    println!(
        "\n(paper anchors at 0.5 GHz steps; 0.25 GHz midpoints are linearly interpolated; baseline = {})",
        vf.point(VfTable::BASELINE_INDEX)
    );
}
