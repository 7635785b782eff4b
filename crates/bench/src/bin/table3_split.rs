//! Table III: the workload-exclusive train/test split, derived (as in
//! the paper) by sorting the suite by peak severity and assigning every
//! fourth workload to the test set.

use workloads::{SetKind, WorkloadSpec};

fn main() {
    common::cli::Spec::new("table3_split", "Table III: train/test workload split").parse_env();
    println!("Table III: train/test workload split\n");
    let sorted = WorkloadSpec::by_severity_rank();
    println!("Suite sorted by peak Hotspot-Severity (ascending); every 4th -> test:");
    for w in &sorted {
        println!(
            "  rank {:>2}  {:<12} {}",
            w.severity_rank,
            w.name,
            if w.set == SetKind::Test {
                "TEST"
            } else {
                "train"
            }
        );
    }
    let train: Vec<_> = WorkloadSpec::train_set()
        .iter()
        .map(|w| w.name.clone())
        .collect();
    let test: Vec<_> = WorkloadSpec::test_set()
        .iter()
        .map(|w| w.name.clone())
        .collect();
    println!("\nTrain ({}): {}", train.len(), train.join(", "));
    println!("Test  ({}): {}", test.len(), test.join(", "));
    assert_eq!(train.len(), 20);
    assert_eq!(test.len(), 7);
}
