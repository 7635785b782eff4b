//! Fault-injection campaign: plain vs resilient ML05 under deterministic
//! sensor/telemetry faults.
//!
//! Sweeps fault type × injection rate across the unseen test workloads.
//! For every cell the same seeded [`FaultPlan`] corrupts the telemetry
//! the controller observes (accounting stays on the truth), once with
//! the plain ML05 controller and once with the same controller wrapped
//! in a resilient supervisor. The wrapper's validation + degradation
//! ladder eliminates most incursion cells the plain controller, fed the
//! same corrupted stream, fails on. It is not a silver bullet: heavy
//! in-band noise that stays inside the plausibility bounds is accepted
//! as genuine, and the resulting recover/degrade oscillation can still
//! let incursions through (and trades away frequency everywhere else).
//!
//! The whole campaign — workloads × (fault kind × rate) × {plain,
//! resilient} — is a single [`engine::Scenario`] executed by the
//! parallel [`engine::Session`].
//!
//! Usage: `fault_campaign [--seed N] [--steps N] [--smoke]
//! [--engine-faults] [--metrics-out BASE] [--resume]`.
//! The campaign is a pure function of the seed: the closing digest line
//! is bit-identical across runs with the same seed (observability rides
//! alongside and never perturbs it). `--smoke` shrinks the grid (2
//! workloads, one rate, 24 steps, cheap stand-in controllers) for CI;
//! `--engine-faults` additionally arms an [`engine`-level
//! fault plan](faults::EngineFaultPlan) — an injected job panic absorbed
//! by the supervisor's retry, plus an artifact bit flip caught by the
//! cache checksum on the next probe — which must leave the digest
//! untouched.

use boreas_bench::experiments::{Experiment, LOOP_STEPS};
use boreas_bench::{Reporting, RunFlag};
use common::cli::Spec;
use common::STEPS_PER_DECISION;
use engine::{ControllerSpec, FaultCell, LoopRunResult, Scenario};
use faults::{EngineFault, EngineFaultKind, EngineFaultPlan, Fault, FaultKind, FaultPlan};
use std::str::FromStr;
use workloads::WorkloadSpec;

/// One fault archetype of the sweep; the campaign crosses these with the
/// injection rates below.
const FAULT_KINDS: [FaultKind; 5] = [
    FaultKind::StuckAt { value_c: 45.0 },
    FaultKind::Dropped,
    FaultKind::Late { steps: 24 },
    FaultKind::Noise { std_c: 8.0 },
    FaultKind::CounterZero,
];

/// Per-step firing probabilities swept for every fault kind.
const RATES: [f64; 3] = [0.05, 0.25, 1.0];

/// Smoke-mode stand-in controllers: the [`boreas_core::smoke_model`]
/// (also behind `fig8_dynamic_runs --smoke`), plain and with flat 70 °C
/// thermal thresholds as the resilient fallback, so the full
/// plain-vs-resilient path runs in seconds.
fn smoke_controllers(vf_len: usize) -> Vec<ControllerSpec> {
    let (model, features) = boreas_core::smoke_model(0);
    let thresholds = vec![Some(70.0); vf_len];
    vec![
        ControllerSpec::ml(model.clone(), &features, 0.05),
        ControllerSpec::resilient_ml(model, &features, 0.05, thresholds, 0),
    ]
}

/// The engine-level fault plan for `--engine-faults`: job 0 panics on
/// its first attempt (the default retry absorbs it) and job 1's artifact
/// is bit-flipped after persist (the cache checksum quarantines it on
/// the next probe). Neither may change a single result byte.
fn engine_fault_plan(seed: u64) -> EngineFaultPlan {
    EngineFaultPlan::new(seed)
        .with(EngineFault::new(EngineFaultKind::JobPanic { fail_attempts: 1 }).on_job(0))
        .with(EngineFault::new(EngineFaultKind::ArtifactBitFlip).on_job(1))
}

/// Builds the plan for one campaign cell. The fault arms after the
/// second decision interval, so the controller first sees healthy
/// telemetry (and the resilient wrapper banks last-known-good values).
fn cell_plan(seed: u64, kind: FaultKind, rate: f64) -> FaultPlan {
    FaultPlan::new(seed).with(
        Fault::new(kind)
            .during(24, usize::MAX)
            .with_probability(rate),
    )
}

/// `--steps`: a positive whole number of decision intervals, checked
/// while the arguments are parsed so a bad value exits 2 before any
/// work.
struct Steps(usize);

impl FromStr for Steps {
    type Err = String;

    fn from_str(raw: &str) -> Result<Steps, String> {
        let steps = raw.parse::<usize>().map_err(|e| e.to_string())?;
        let interval = STEPS_PER_DECISION as usize;
        if steps == 0 || !steps.is_multiple_of(interval) {
            return Err(format!(
                "steps must be a positive multiple of {interval} (one decision interval)"
            ));
        }
        Ok(Steps(steps))
    }
}

/// Mixes an outcome into the campaign digest (SplitMix64 finalizer).
fn mix(h: u64, v: u64) -> u64 {
    let mut z = (h ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn digest_row(h: u64, row: &LoopRunResult) -> u64 {
    let h = mix(h, row.incursions as u64);
    let h = mix(h, row.avg_frequency_ghz.to_bits());
    mix(h, row.final_idx as u64)
}

fn main() {
    let (reporting, args) = Reporting::parse_env(
        Spec::new("fault_campaign", "plain vs resilient ML05 under faults")
            .value_flag::<u64>("seed", "n", Some("2023"), "fault-plan seed")
            .value_flag::<Steps>("steps", "n", None, "steps per run (default 144; smoke 24)")
            .switch("smoke", "2 workloads, one rate, for CI")
            .switch("engine-faults", "inject a job panic and a cache bit flip"),
        &[RunFlag::Resume],
    );
    let seed = args.value::<u64>("seed");
    let steps = args.parsed::<Steps>("steps").map(|s| s.0);
    let exp = Experiment::paper()
        .expect("paper config")
        .observe(&reporting.obs);

    let (name, workloads, steps, rates, controllers) = if args.has("smoke") {
        let workloads: Vec<WorkloadSpec> = WorkloadSpec::test_set().into_iter().take(2).collect();
        let controllers = smoke_controllers(exp.vf.len());
        let steps = steps.unwrap_or(24);
        (
            "fault-campaign-smoke",
            workloads,
            steps,
            &RATES[1..2],
            controllers,
        )
    } else {
        let thresholds = exp.trained_thresholds().expect("trained thresholds");
        let (model, features) = exp.boreas_model().expect("model");
        let controllers = vec![
            ControllerSpec::ml(model.clone(), &features, 0.05),
            ControllerSpec::resilient_ml(model, &features, 0.05, thresholds, 0),
        ];
        let steps = steps.unwrap_or(LOOP_STEPS);
        (
            "fault-campaign",
            WorkloadSpec::test_set(),
            steps,
            &RATES[..],
            controllers,
        )
    };

    // Cell order (kind-major, then rate) and the plain-then-resilient
    // controller order reproduce the digest sequence of the historical
    // bespoke loop.
    let mut cells = Vec::with_capacity(FAULT_KINDS.len() * rates.len());
    for kind in FAULT_KINDS {
        for &rate in rates {
            let plan = cell_plan(seed, kind, rate);
            plan.validate().expect("campaign plan");
            cells.push(FaultCell::new(format!("{}@{rate}", kind.name()), plan));
        }
    }
    let scenario = Scenario::closed_loop(name, workloads, exp.vf.clone(), steps, controllers)
        .with_faults(cells);
    let mut session = exp.session().expect("session");
    if args.has("engine-faults") {
        let plan = engine_fault_plan(seed);
        println!(
            "engine-fault plan armed: job-panic on job 0 (1 attempt), \
             artifact-bit-flip on job 1 — digest must match a clean run"
        );
        session = session.inject_engine_faults(plan);
    }
    let report = reporting.execute(&session, &scenario).expect("campaign");
    assert!(
        report.is_complete(),
        "campaign quarantined jobs: {:?}",
        report.quarantined
    );

    println!("fault campaign: seed {seed}, {steps} steps/run");
    println!(
        "{:<10} {:<16} {:>5} | {:>9} {:>8} | {:>9} {:>8} {:>14}",
        "workload", "fault", "rate", "plain inc", "plain f", "resil inc", "resil f", "worst stage"
    );

    let mut digest = seed;
    let mut plain_failures = 0usize;
    let mut resilient_failures = 0usize;
    let rows: Vec<_> = report.loop_runs().collect();
    for pair in rows.chunks(2) {
        let (plain, resilient) = (pair[0], pair[1]);
        let (fault, rate) = plain
            .fault
            .as_deref()
            .and_then(|f| f.split_once('@'))
            .expect("campaign rows carry a fault label");
        println!(
            "{:<10} {:<16} {:>5.2} | {:>9} {:>8.3} | {:>9} {:>8.3} {:>14}",
            plain.workload,
            fault,
            rate.parse::<f64>().expect("rate in label"),
            plain.incursions,
            plain.avg_frequency_ghz,
            resilient.incursions,
            resilient.avg_frequency_ghz,
            resilient.worst_stage.as_deref().unwrap_or("?"),
        );
        plain_failures += usize::from(plain.incursions > 0);
        resilient_failures += usize::from(resilient.incursions > 0);
        digest = digest_row(digest, plain);
        digest = digest_row(digest, resilient);
    }

    let n_cells = rows.len() / 2;
    println!(
        "\ncells with incursions: plain {plain_failures}/{n_cells}, resilient {resilient_failures}/{n_cells}"
    );
    println!("campaign digest: {digest:016x} (same seed => same digest)");
    reporting.finish(Some(&report)).expect("reporting");
}
