//! Overload protection end to end: a chaos task storm floods the CPU
//! endpoint mid-campaign, admission control sheds most of the storm at
//! the door, the bounded worker queue sheds the overflow, and the
//! molecular-design campaign — watching its own tasks get shed —
//! gracefully degrades its oracle from the DFT-like tight-binding call
//! (~60 s) to the TTM-like classical estimate (~1.5 s) until the
//! pressure clears, then restores full fidelity.
//!
//! ```sh
//! cargo run --release --example overload_degradation
//! ```
//!
//! Two runs of the same campaign and seed: a calm baseline, then the
//! same deployment under a storm with the full protection stack on.
//! The storm run finishes with shed tasks and degraded generations in
//! its `Breakdown` — visible, accounted-for overload instead of an
//! unbounded queue — while still producing science.

#![allow(clippy::print_stdout, reason = "R10 binds libraries, not drivers")]

use hetflow_apps::moldesign::{self, MolDesignParams};
use hetflow_apps::DegradationPolicy;
use hetflow_core::{deploy, DeploymentSpec, WorkflowConfig};
use hetflow_fabric::{
    AdmissionConfig, ChaosAction, ChaosSpec, ReliabilityPolicies, ReliabilityPolicy,
};
use hetflow_sim::{trace_kinds, Dist, OverflowPolicy, Sim, SimTime, Tracer};
use std::time::Duration;

fn main() {
    let params = MolDesignParams {
        library_size: 5_000,
        budget: Duration::from_secs(2 * 3600), // 2 node-hours
        ensemble_size: 4,
        retrain_after: 12,
        // Degrade after 2 consecutive shed oracles; restore after 3
        // clean successes with every breaker closed.
        degradation: DegradationPolicy { trigger_after: 2, restore_after: 3 },
        ..Default::default()
    };

    // --- Act 1: calm baseline -------------------------------------------
    let baseline = {
        let sim = Sim::new();
        let spec = DeploymentSpec { cpu_workers: 8, gpu_workers: 4, ..Default::default() };
        let deployment = deploy(&sim, WorkflowConfig::FnXGlobus, &spec, Tracer::disabled());
        moldesign::run(&sim, &deployment, params.clone())
    };

    // --- Act 2: the same campaign under a task storm --------------------
    let sim = Sim::new();
    let tracer = Tracer::enabled();
    let spec = DeploymentSpec {
        cpu_workers: 8,
        gpu_workers: 4,
        // Bounded CPU queue: two waiting tasks per worker; overflow
        // sheds the oldest queued task (fidelity-blind FIFO shedding —
        // campaign tasks caught in the storm get shed too, which is
        // exactly what the degradation policy reacts to).
        cpu_queue_capacity: 16,
        overflow: OverflowPolicy::ShedOldest,
        // Admission control on the storm's topic: a 20-task/s token
        // bucket sheds the bulk of the flood at submission, before it
        // costs a single queue slot.
        reliability: ReliabilityPolicies::default().with_topic(
            "noop",
            ReliabilityPolicy {
                admission: AdmissionConfig { rate: 20.0, burst: 20.0, max_in_flight: 0 },
                ..Default::default()
            },
        ),
        ..Default::default()
    };
    let deployment = deploy(&sim, WorkflowConfig::FnXGlobus, &spec, tracer.clone());

    // 8 000 junk tasks at 50/s, each burning ~8 s of worker compute,
    // starting two minutes in: 160 s of sustained overload — 2.5x over
    // the admission bucket, and the admitted residue alone is 20x the
    // CPU pool's service capacity.
    ChaosSpec::new(vec![ChaosAction::TaskStorm {
        at: SimTime::from_secs(120),
        tasks: 8_000,
        interval: Dist::Constant(0.02),
        bytes: 64,
        work: Dist::log_normal(8.0, 0.2),
    }])
    .install(&sim, 7, &deployment.chaos);

    let outcome = moldesign::run(&sim, &deployment, params);

    println!("=== task storm vs overload protection ===\n");
    println!("storm                : 8000 tasks @ 50/s from t=120s");
    println!("admission (noop)     : 20 tasks/s token bucket");
    println!("CPU queue            : capacity 16, shed-oldest\n");
    println!(
        "{:<22} {:>10} {:>10}",
        "", "baseline", "storm"
    );
    println!(
        "{:<22} {:>10} {:>10}",
        "simulations done", baseline.simulations, outcome.simulations
    );
    println!("{:<22} {:>10} {:>10}", "molecules found", baseline.found, outcome.found);
    println!("{:<22} {:>10} {:>10}", "campaign tasks shed", baseline.shed, outcome.shed);
    println!(
        "{:<22} {:>10} {:>10}",
        "degraded generations", baseline.degradations, outcome.degradations
    );

    // The fidelity timeline, straight from the trace.
    let mut timeline: Vec<(SimTime, String)> = Vec::new();
    for e in tracer.events_of_kind(trace_kinds::FIDELITY_DEGRADED) {
        timeline.push((
            e.t,
            format!("fidelity DEGRADED (gen {}, {} consecutive sheds)", e.entity, e.value),
        ));
    }
    for e in tracer.events_of_kind(trace_kinds::FIDELITY_RESTORED) {
        timeline.push((e.t, format!("fidelity RESTORED (gen {})", e.entity)));
    }
    timeline.sort_by_key(|entry| entry.0);
    println!("\nfidelity timeline:");
    for (t, line) in &timeline {
        println!("  {t:>10}  {line}");
    }

    let shed_events = tracer.events_of_kind(trace_kinds::TASK_SHED).len();
    println!("\ntask_shed trace events : {shed_events} (storm junk + campaign casualties)");
    println!("trace digest: {:#018x}", tracer.digest());

    assert_eq!(baseline.shed, 0, "no shedding without a storm");
    assert_eq!(baseline.degradations, 0, "no degradation without pressure");
    assert!(outcome.shed > 0, "the storm must shed campaign tasks");
    assert!(outcome.degradations >= 1, "sustained sheds must degrade fidelity");
    assert!(
        !tracer.events_of_kind(trace_kinds::FIDELITY_RESTORED).is_empty(),
        "fidelity must be restored once the storm passes"
    );
    assert!(
        shed_events > outcome.shed,
        "most shed traffic should be the storm itself, not the campaign"
    );
    assert!(outcome.simulations > 0 && outcome.found > 0, "science must still happen");
    println!("\n(storm absorbed: bounded queue, bounded wait, fidelity traded for goodput)");
}
