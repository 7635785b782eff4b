//! Cross-ISA equivalence properties for the SIMD thermal kernel.
//!
//! The vectorized kernel must be *bit*-identical to its scalar
//! counterpart — not merely close — because the repo's reproducibility
//! contract (digest-pinned figures, resumable sessions) depends on
//! results that do not change with the machine the run happens to land
//! on. These properties drive the kernel across every ISA the host CPU
//! supports (`Isa::available()` always includes `Scalar`, so the suite
//! degrades gracefully on non-x86 hardware) with randomized shapes that
//! exercise lane remainders, and compare outputs through `to_bits`.

use common::check;
use floorplan::{Floorplan, Grid, GridSpec};
use simd::Isa;
use thermal::{ThermalConfig, ThermalGrid};

/// The fused thermal integrator produces the same temperature field
/// on every ISA, for arbitrary NaN-free power vectors and odd grid
/// widths that leave vector remainders.
#[test]
fn thermal_step_is_bit_identical_across_isas() {
    check::cases(16, |g| {
        let all_powers = g.vec(12 * 6..=12 * 6, |g| g.f64_in(0.0..0.4));
        let (nx, rounds) = (g.usize_in(5..12), g.usize_in(1..4));
        let grid =
            Grid::rasterize(&Floorplan::skylake_like(), GridSpec::new(nx, 6).unwrap()).unwrap();
        let powers = &all_powers[..nx * 6];
        let mut reference = ThermalGrid::new(&grid, ThermalConfig::default()).with_isa(Isa::Scalar);
        for _ in 0..rounds {
            reference.step(powers, 80.0).unwrap();
        }
        for isa in Isa::available() {
            let mut t = ThermalGrid::new(&grid, ThermalConfig::default()).with_isa(isa);
            for _ in 0..rounds {
                t.step(powers, 80.0).unwrap();
            }
            for (a, b) in t.temperatures().iter().zip(reference.temperatures()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{} vs scalar", isa);
            }
            assert_eq!(
                t.package_temp().value().to_bits(),
                reference.package_temp().value().to_bits()
            );
        }
    });
}

/// `BOREAS_SIMD` is read once per process; these cases spawn the probe
/// in a child process per value so each observes a fresh override.
#[test]
fn boreas_simd_override_selects_and_rejects() {
    let probe = std::env::current_exe().unwrap();
    let run = |value: Option<&str>| {
        let mut cmd = std::process::Command::new(&probe);
        cmd.args(["--ignored", "--exact", "isa_probe", "--nocapture"]);
        match value {
            Some(v) => cmd.env("BOREAS_SIMD", v),
            None => cmd.env_remove("BOREAS_SIMD"),
        };
        let out = cmd.output().expect("spawn probe");
        (
            out.status.success(),
            String::from_utf8_lossy(&out.stdout).to_string(),
        )
    };

    let (ok, out) = run(Some("scalar"));
    assert!(ok, "scalar override must be honoured: {out}");
    assert!(out.contains("isa_probe: scalar"), "{out}");

    for isa in Isa::available() {
        let (ok, out) = run(Some(isa.name()));
        assert!(ok, "{isa} is available and must be honoured: {out}");
        assert!(out.contains(&format!("isa_probe: {isa}")), "{out}");
    }

    let (ok, out) = run(Some("neon"));
    assert!(!ok, "unknown ISA names must abort the probe: {out}");

    let (ok, out) = run(None);
    assert!(ok, "no override must fall back to detection: {out}");
    assert!(
        out.contains(&format!("isa_probe: {}", Isa::detect())),
        "{out}"
    );
}

/// Child-process body for `boreas_simd_override_selects_and_rejects`:
/// prints the active ISA and exits. Ignored in normal runs.
#[test]
#[ignore = "probe body spawned by boreas_simd_override_selects_and_rejects"]
fn isa_probe() {
    println!("isa_probe: {}", Isa::active());
}
