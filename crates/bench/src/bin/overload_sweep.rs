//! Overload sweep: emits `BENCH_overload.json`, the offered-load vs
//! goodput/shed-rate/p99-queue-wait characterization of the overload
//! protection stack (bounded queues + admission control).
//!
//! An open-loop generator submits fixed-service-time tasks to an FnX
//! endpoint at a swept multiple of the endpoint's saturation rate
//! (`workers / service_time`). The endpoint runs the full protection
//! stack: a token-bucket admission controller slightly above
//! saturation, a bounded worker queue shedding lowest-priority-then-
//! oldest on overflow. Per sweep point the run records, in *virtual*
//! time:
//!
//! - **goodput** — successful completions per second over the whole
//!   run (including drain);
//! - **shed fraction** — shed results / all results;
//! - **p99 queue wait** — 99th percentile of dispatch→worker-start
//!   delay among successes, the "bounded latency" half of the story.
//!
//! The artifact also reports the knee (the smallest multiplier whose
//! goodput reaches 95% of peak) and self-gates on the robustness
//! acceptance criteria: goodput at 2× saturation must hold ≥ 80% of
//! peak and its p99 queue wait must stay under `P99_BOUND_SECS` — an
//! unprotected queue would grow without bound instead.
//!
//! The binary reads no wall clock: every reported number is
//! virtual-time-derived and deterministic, so the artifact is
//! byte-stable across machines.
//!
//! Usage: `overload_sweep [output.json]`.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::disallowed_methods,
    reason = "R10 binds libraries, not drivers"
)]

use hetflow_core::platform::THETA;
use hetflow_core::Calibration;
use hetflow_fabric::{
    AdmissionConfig, EndpointSpec, Fabric, FnXExecutor, ReliabilityPolicies, ReliabilityPolicy,
    TaskResult, TaskSpec, TaskWork, WorkerPoolConfig,
};
use hetflow_sim::{channel, time, OverflowPolicy, Sim, SimRng, Tracer};
use std::cell::RefCell;
use std::rc::Rc;

/// Workers on the endpoint under test.
const WORKERS: usize = 8;
/// Constant service time per task, seconds.
const SERVICE_SECS: f64 = 1.0;
/// Virtual seconds the generator offers load for.
const HORIZON_SECS: f64 = 300.0;
/// Bounded worker queue: two tasks waiting per worker.
const QUEUE_CAPACITY: usize = 2 * WORKERS;
/// Offered-load multipliers swept, relative to saturation.
const MULTIPLIERS: [f64; 7] = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0];
/// Self-gate: p99 queue wait at 2× saturation must stay under this.
const P99_BOUND_SECS: f64 = 10.0;
/// Self-gate: goodput at 2× saturation as a fraction of peak.
const GOODPUT_FLOOR: f64 = 0.80;

/// One sweep point's virtual-time measurements.
#[derive(Clone, Copy, Debug)]
struct SweepPoint {
    multiplier: f64,
    offered_per_sec: f64,
    submitted: u64,
    completed: u64,
    shed: u64,
    failed: u64,
    goodput_per_sec: f64,
    shed_fraction: f64,
    p99_queue_wait_secs: f64,
    end_secs: f64,
}

/// Terminal-outcome tallies shared between the result consumer and the
/// driver.
#[derive(Default)]
struct Tally {
    completed: u64,
    shed: u64,
    failed: u64,
    /// Dispatch → worker-start delay per success, seconds.
    queue_waits: Vec<f64>,
}

impl Tally {
    fn absorb(&mut self, result: &TaskResult) {
        if result.is_shed() {
            self.shed += 1;
        } else if result.is_failed() {
            self.failed += 1;
        } else {
            self.completed += 1;
            if let (Some(d), Some(w)) =
                (result.timing.dispatched, result.timing.worker_started)
            {
                self.queue_waits.push(w.duration_since(d).as_secs_f64());
            }
        }
    }

    fn total(&self) -> u64 {
        self.completed + self.shed + self.failed
    }
}

/// A fixed-service-time task with a small inline payload.
fn sweep_task(id: u64) -> TaskSpec {
    let value: Rc<dyn std::any::Any> = Rc::new(());
    TaskSpec::new(
        id,
        "noop",
        hetflow_fabric::Arg::Inline { bytes: 1_000, value },
        Rc::new(|_ctx| TaskWork::new((), 1_000, time::secs(SERVICE_SECS))),
    )
}

/// The protection stack under test: admission slightly above
/// saturation, bounded queue shedding lowest priority first.
fn protection(saturation: f64) -> ReliabilityPolicies {
    let policy = ReliabilityPolicy {
        admission: AdmissionConfig {
            rate: saturation * 1.1,
            burst: QUEUE_CAPACITY as f64,
            max_in_flight: 8 * WORKERS,
        },
        ..Default::default()
    };
    ReliabilityPolicies { default: policy, ..Default::default() }
}

/// Runs one offered-load point; everything is virtual time.
fn run_point(multiplier: f64, horizon_secs: f64) -> SweepPoint {
    let saturation = WORKERS as f64 / SERVICE_SECS;
    let offered = multiplier * saturation;
    let cal = Calibration::default();

    let sim = Sim::new();
    let pool = WorkerPoolConfig {
        site: THETA,
        label: "theta".into(),
        workers: WORKERS,
        result_policy: hetflow_store::ProxyPolicy::disabled(),
        ser: cal.ser.clone(),
        local_hop: cal.worker_hop.clone(),
        failure: None,
        retry: hetflow_fabric::RetryPolicies::default(),
        pace: hetflow_fabric::Knob::new(1.0),
        crash: hetflow_fabric::Knob::new(0.0),
        queue_capacity: QUEUE_CAPACITY,
        overflow: OverflowPolicy::ShedLowestPriority,
    };
    let (results_tx, results_rx) = channel::<TaskResult>();
    let fabric = Rc::new(FnXExecutor::with_reliability(
        &sim,
        cal.fnx.clone(),
        vec![EndpointSpec::reliable(pool, vec!["noop"])],
        results_tx,
        SimRng::stream(42, "overload-sweep"),
        Tracer::disabled(),
        protection(saturation),
    ));

    // Result consumer: tallies every terminal outcome.
    let tally = Rc::new(RefCell::new(Tally::default()));
    {
        let tally = Rc::clone(&tally);
        sim.spawn_detached(async move {
            while let Some(result) = results_rx.recv().await {
                tally.borrow_mut().absorb(&result);
            }
        });
    }

    // Open-loop generator: one detached submission per interval, so a
    // slow submission path can never throttle the offered load.
    let submitted = {
        let sim2 = sim.clone();
        let interval = time::secs(1.0 / offered);
        let h = sim.spawn(async move {
            let mut id = 0u64;
            while sim2.now().as_secs_f64() < horizon_secs {
                let f = Rc::clone(&fabric);
                let spec = sweep_task(id);
                sim2.spawn_detached(async move {
                    f.submit(spec).await;
                });
                id += 1;
                sim2.sleep(interval).await;
            }
            id
        });
        sim.block_on(h)
    };
    // Drain everything in flight; quiescence means every submission
    // reached a terminal outcome.
    sim.run();

    let end_secs = sim.now().as_secs_f64();
    let t = tally.borrow();
    debug_assert_eq!(t.total(), submitted, "conservation: every submission terminates");
    let mut waits = t.queue_waits.clone();
    waits.sort_by(|a, b| a.total_cmp(b));
    let p99 = if waits.is_empty() {
        0.0
    } else {
        waits[((waits.len() - 1) as f64 * 0.99).round() as usize]
    };
    SweepPoint {
        multiplier,
        offered_per_sec: offered,
        submitted,
        completed: t.completed,
        shed: t.shed,
        failed: t.failed,
        goodput_per_sec: t.completed as f64 / end_secs.max(1e-9),
        shed_fraction: t.shed as f64 / (t.total().max(1)) as f64,
        p99_queue_wait_secs: p99,
        end_secs,
    }
}

/// The smallest multiplier whose goodput reaches 95% of the peak —
/// where the goodput curve flattens.
fn knee(points: &[SweepPoint]) -> f64 {
    let peak = peak_goodput(points);
    points
        .iter()
        .find(|p| p.goodput_per_sec >= 0.95 * peak)
        .map(|p| p.multiplier)
        .unwrap_or(0.0)
}

fn peak_goodput(points: &[SweepPoint]) -> f64 {
    points.iter().map(|p| p.goodput_per_sec).fold(0.0, f64::max)
}

fn render(points: &[SweepPoint]) -> String {
    let peak = peak_goodput(points);
    let at_2x = points.iter().find(|p| p.multiplier == 2.0);
    let goodput_2x_frac = at_2x.map(|p| p.goodput_per_sec / peak.max(1e-9)).unwrap_or(0.0);
    let mut rows = String::new();
    for (i, p) in points.iter().enumerate() {
        let sep = if i + 1 < points.len() { "," } else { "" };
        rows.push_str(&format!(
            "    {{\"multiplier\": {:.2}, \"offered_per_sec\": {:.2}, \
             \"submitted\": {}, \"completed\": {}, \"shed\": {}, \"failed\": {}, \
             \"goodput_per_sec\": {:.3}, \"shed_fraction\": {:.4}, \
             \"p99_queue_wait_secs\": {:.3}, \"end_secs\": {:.1}}}{sep}\n",
            p.multiplier,
            p.offered_per_sec,
            p.submitted,
            p.completed,
            p.shed,
            p.failed,
            p.goodput_per_sec,
            p.shed_fraction,
            p.p99_queue_wait_secs,
            p.end_secs,
        ));
    }
    format!(
        "{{\n  \"tool\": \"hetflow-bench\",\n  \"bench\": \"overload_sweep\",\n  \
         \"schema_version\": 1,\n  \"workers\": {WORKERS},\n  \
         \"service_secs\": {SERVICE_SECS:.1},\n  \
         \"saturation_per_sec\": {:.2},\n  \"horizon_secs\": {HORIZON_SECS:.0},\n  \
         \"queue_capacity\": {QUEUE_CAPACITY},\n  \
         \"peak_goodput_per_sec\": {peak:.3},\n  \"knee_multiplier\": {:.2},\n  \
         \"goodput_at_2x_fraction_of_peak\": {goodput_2x_frac:.3},\n  \"points\": [\n{rows}  ]\n}}\n",
        WORKERS as f64 / SERVICE_SECS,
        knee(points),
    )
}

/// The acceptance gates this artifact carries; empty = pass.
fn gate(points: &[SweepPoint]) -> Vec<String> {
    let mut failures = Vec::new();
    let peak = peak_goodput(points);
    let Some(p2) = points.iter().find(|p| p.multiplier == 2.0) else {
        return vec!["sweep has no 2x point".into()];
    };
    if p2.goodput_per_sec < GOODPUT_FLOOR * peak {
        failures.push(format!(
            "goodput at 2x saturation collapsed: {:.2}/s vs peak {:.2}/s (floor {:.0}%)",
            p2.goodput_per_sec,
            peak,
            GOODPUT_FLOOR * 100.0
        ));
    }
    if p2.p99_queue_wait_secs > P99_BOUND_SECS {
        failures.push(format!(
            "p99 queue wait at 2x saturation unbounded: {:.1}s > {P99_BOUND_SECS:.1}s",
            p2.p99_queue_wait_secs
        ));
    }
    failures
}

fn main() -> std::process::ExitCode {
    let out_path =
        std::env::args().nth(1).unwrap_or_else(|| String::from("BENCH_overload.json"));
    let points: Vec<SweepPoint> =
        MULTIPLIERS.iter().map(|&m| run_point(m, HORIZON_SECS)).collect();

    let doc = render(&points);
    print!("{doc}");
    if let Err(e) = std::fs::write(&out_path, &doc) {
        eprintln!("overload_sweep: cannot write {out_path}: {e}");
        return std::process::ExitCode::from(2);
    }
    eprintln!("overload_sweep: wrote {out_path}");

    let failures = gate(&points);
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("overload_sweep: FAIL: {f}");
        }
        return std::process::ExitCode::from(1);
    }
    std::process::ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn underload_completes_everything_without_shedding() {
        let p = run_point(0.5, 60.0);
        assert_eq!(p.shed, 0, "no shedding below saturation");
        assert_eq!(p.failed, 0);
        assert_eq!(p.completed, p.submitted);
        assert!(p.p99_queue_wait_secs < 1.0, "p99 {}", p.p99_queue_wait_secs);
    }

    #[test]
    fn heavy_overload_sheds_but_keeps_goodput_and_bounded_waits() {
        let under = run_point(0.75, 60.0);
        let over = run_point(2.0, 60.0);
        assert!(over.shed > 0, "2x saturation must shed");
        assert!(
            over.goodput_per_sec >= GOODPUT_FLOOR * under.goodput_per_sec,
            "goodput collapsed: {:.2} vs {:.2}",
            over.goodput_per_sec,
            under.goodput_per_sec
        );
        assert!(
            over.p99_queue_wait_secs <= P99_BOUND_SECS,
            "p99 unbounded: {}",
            over.p99_queue_wait_secs
        );
    }

    #[test]
    fn points_are_deterministic() {
        let a = run_point(1.5, 30.0);
        let b = run_point(1.5, 30.0);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.p99_queue_wait_secs.to_bits(), b.p99_queue_wait_secs.to_bits());
    }

    #[test]
    fn artifact_shape_is_stable() {
        let points = [
            SweepPoint {
                multiplier: 1.0,
                offered_per_sec: 8.0,
                submitted: 100,
                completed: 100,
                shed: 0,
                failed: 0,
                goodput_per_sec: 7.5,
                shed_fraction: 0.0,
                p99_queue_wait_secs: 0.4,
                end_secs: 13.0,
            },
            SweepPoint {
                multiplier: 2.0,
                offered_per_sec: 16.0,
                submitted: 200,
                completed: 110,
                shed: 90,
                failed: 0,
                goodput_per_sec: 7.4,
                shed_fraction: 0.45,
                p99_queue_wait_secs: 2.5,
                end_secs: 14.5,
            },
        ];
        let doc = render(&points);
        for key in [
            "\"bench\": \"overload_sweep\"",
            "\"schema_version\": 1",
            "\"peak_goodput_per_sec\": 7.500",
            "\"knee_multiplier\": 1.00",
            "\"goodput_at_2x_fraction_of_peak\": 0.987",
            "\"shed_fraction\": 0.4500",
            "\"p99_queue_wait_secs\": 2.500",
        ] {
            assert!(doc.contains(key), "missing {key} in {doc}");
        }
        assert!(gate(&points).is_empty(), "sample passes its own gate");
    }

    #[test]
    fn gate_catches_collapse_and_unbounded_waits() {
        let good = SweepPoint {
            multiplier: 1.0,
            offered_per_sec: 8.0,
            submitted: 100,
            completed: 100,
            shed: 0,
            failed: 0,
            goodput_per_sec: 8.0,
            shed_fraction: 0.0,
            p99_queue_wait_secs: 0.4,
            end_secs: 13.0,
        };
        let mut bad2x = good;
        bad2x.multiplier = 2.0;
        bad2x.goodput_per_sec = 3.0; // collapse
        bad2x.p99_queue_wait_secs = 60.0; // unbounded
        let failures = gate(&[good, bad2x]);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(gate(&[good]).len() == 1, "missing 2x point is a failure");
    }
}
