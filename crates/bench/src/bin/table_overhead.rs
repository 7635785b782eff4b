//! §V-E: memory and performance overhead of the deployed model.
//!
//! Paper accounting: full trees with one 32-bit value per node give
//! < 14 KB of weights; a serial prediction needs `223 × 3 = 669`
//! comparisons plus `222` additions, ~1000 operations.

use boreas_bench::experiments::Experiment;
use std::time::Instant;

fn main() {
    common::cli::Spec::new("table_overhead", "§V-E: model memory and time overhead").parse_env();
    let exp = Experiment::paper().expect("paper config");
    let (model, features) = exp.boreas_model().expect("model");
    let cost = model.cost();

    println!("Sec. V-E: Boreas overhead analysis\n");
    println!(
        "trees x depth:       {} x {}",
        model.num_trees(),
        model.params().max_depth
    );
    println!(
        "weight bytes:        {} ({:.2} KB; paper: < 14 KB)",
        cost.weight_bytes,
        cost.weight_bytes as f64 / 1024.0
    );
    println!("comparisons/predict: {} (paper: 669)", cost.comparisons);
    println!("additions/predict:   {} (paper: 222)", cost.additions);
    println!("total ops/predict:   {} (paper: ~1000)", cost.total_ops());

    // Software prediction latency for reference.
    let row = vec![0.5; features.len()];
    let n = 100_000;
    let t0 = Instant::now();
    let mut acc = 0.0;
    for _ in 0..n {
        acc += model.predict(&row);
    }
    let dt = t0.elapsed();
    println!(
        "\nsoftware prediction latency: {:.2} ns/prediction ({} runs, checksum {:.3})",
        dt.as_nanos() as f64 / n as f64,
        n,
        acc / n as f64
    );
    println!(
        "at 1 prediction per 960 us decision interval the runtime cost is negligible; \
         a parallel hardware implementation divides the serial op count by its issue width"
    );
}
