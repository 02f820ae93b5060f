//! The paper's figures (Figs. 1, 3–7), its §V-D/§V-F in-text numbers,
//! the ablations and the overload knee, one function per transcript
//! section, in the order `make_figures` runs them.
//!
//! Each function reads its campaigns from one [`Runs`] table, appends
//! its section's text to `out` and returns its shape verdict: `Err`
//! names the paper-shape claim the run broke. The sizes, fixed by the
//! constants below and the campaigns' defaults, are scaled down from
//! the paper's: Fig. 6 ranks 10 000 of its 1 115 321 candidates, and
//! Fig. 7 pre-trains on 220 structures and adds 64, against its 1 720
//! and 500. ROADMAP items 20 and 27 add the paper-size runs.

use crate::{stats, NoopPipeline, StoreKind};
use hetflow_apps::finetune::{self, FinetuneOutcome, FinetuneParams};
use hetflow_apps::moldesign::{self, MolDesignOutcome, MolDesignParams, SteeringMode};
use hetflow_core::platform::{THETA, VENTI};
use hetflow_core::{
    deploy, Calibration, Deployment, DeploymentSpec, UtilizationReport, WorkflowConfig,
};
use hetflow_fabric::{
    AdmissionConfig, EndpointSpec, Fabric, FnXExecutor, ReliabilityPolicies, ReliabilityPolicy,
    TaskResult, TaskSpec, TaskWork, WorkerPoolConfig,
};
use hetflow_sim::{channel, time, OverflowPolicy, Samples, Sim, SimRng, SimTime, Tracer};
use hetflow_steer::{Advisor, Breakdown, BreakdownRow, PathChoice, TaskRecord};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// A figure's shape verdict: `Err` carries the claim that failed.
pub type Verdict = Result<(), String>;

/// A figure: reads its campaigns from the table, appends its transcript
/// section to the text and returns its verdict.
pub type Figure = fn(&Runs, &mut String) -> Verdict;

/// Every figure in paper order, under its transcript section name.
pub const ALL: [(&str, Figure); 12] = [
    ("fig1_utilization", fig1_utilization),
    ("fig3_noop_overheads", fig3_noop_overheads),
    ("fig4_backend_sweep", fig4_backend_sweep),
    ("fig5_notification", fig5_notification),
    ("latency_report", latency_report),
    ("fig6_moldesign", fig6_moldesign),
    ("fig7_finetune", fig7_finetune),
    ("advisor_report", advisor_report),
    ("ablation_backlog", ablation_backlog),
    ("ablation_threshold", ablation_threshold),
    ("overload_knee", overload_knee),
    ("ablation_steering", ablation_steering),
];

/// `println!` into a figure's text.
macro_rules! outln {
    ($out:ident) => {
        $out.push('\n')
    };
    ($out:ident, $($arg:tt)*) => {{
        $out.push_str(&format!($($arg)*));
        $out.push('\n');
    }};
}

/// `print!` into a figure's text.
macro_rules! out {
    ($out:ident, $($arg:tt)*) => {
        $out.push_str(&format!($($arg)*))
    };
}

/// The molecular-design campaign of Figs. 1 and 5 and §V-D.
const CAMPAIGN_LIBRARY: usize = 8_000;
const CAMPAIGN_BUDGET: Duration = Duration::from_secs(5 * 3600);
/// Fig. 6's campaign, three seeds per configuration.
const FIG6_LIBRARY: usize = 10_000;
const FIG6_HOURS: u64 = 6;
/// The molecular-design seeds of Fig. 6 and the steering ablation.
const MOLDESIGN_SEEDS: [u64; 3] = [7, 8, 9];
/// Fig. 7's fine-tuning seeds.
const FIG7_SEEDS: [u64; 3] = [11, 12, 13];
/// The backlog and steering ablations' campaign.
const ABLATION_LIBRARY: usize = 6_000;
const ABLATION_BUDGET: Duration = Duration::from_secs(4 * 3600);
/// No-op tasks per Fig. 3 / Fig. 4 cell.
const FIG3_TASKS: usize = 50;
const FIG4_TASKS: usize = 30;
const FIG4_SIZES: [u64; 5] = [10_000, 100_000, 1_000_000, 10_000_000, 100_000_000];
/// The deployment seed of the one-seed sections, `DeploymentSpec::default()`'s.
const DEPLOYMENT_SEED: u64 = 42;
/// The molecular-design campaign's task topics, in transcript order.
const MOLDESIGN_TOPICS: [&str; 3] = ["simulate", "train", "infer"];

/// A campaign's key in [`Runs`]: the configuration, the deployment seed,
/// the deployment's proxy-threshold override and the campaign's params.
pub type Key<P> = (WorkflowConfig, u64, Option<u64>, P);

/// One campaign kind's outcomes, scanned: a `BTreeMap` would need a
/// derived `PartialOrd`, whose `partial_cmp` the contract bans (R6).
type Table<P, O> = RefCell<Vec<(Key<P>, Rc<O>)>>;

/// Every campaign the sections read: each runs on a fresh `Sim` the
/// first time a section reads its key, and later reads share it.
#[derive(Default)]
pub struct Runs {
    moldesign: Table<MolDesignParams, MolDesignOutcome>,
    finetune: Table<FinetuneParams, FinetuneOutcome>,
}

impl Runs {
    /// The molecular-design campaign under `key`.
    pub fn moldesign(&self, key: Key<MolDesignParams>) -> Rc<MolDesignOutcome> {
        read(&self.moldesign, key, moldesign::run)
    }

    /// The fine-tuning campaign under `key`.
    pub fn finetune(&self, key: Key<FinetuneParams>) -> Rc<FinetuneOutcome> {
        read(&self.finetune, key, finetune::run)
    }
}

/// `key`'s outcome in `table`, run on a fresh `Sim` and deployment if
/// no section has read it yet.
fn read<P: Clone + PartialEq, O>(
    table: &Table<P, O>,
    key: Key<P>,
    run: fn(&Sim, &Deployment, P) -> O,
) -> Rc<O> {
    let mut table = table.borrow_mut();
    if let Some((_, outcome)) = table.iter().find(|(k, _)| *k == key) {
        return Rc::clone(outcome);
    }
    let (config, seed, proxy_threshold, params) = key.clone();
    let sim = Sim::new();
    let spec = DeploymentSpec { seed, proxy_threshold, ..Default::default() };
    let deployment = deploy(&sim, config, &spec, Tracer::disabled());
    let outcome = Rc::new(run(&sim, &deployment, params));
    table.push((key, Rc::clone(&outcome)));
    outcome
}

/// The key of the molecular-design campaign of Figs. 1 and 5 and §V-D.
fn campaign_key(config: WorkflowConfig) -> Key<MolDesignParams> {
    let params = MolDesignParams {
        library_size: CAMPAIGN_LIBRARY,
        budget: CAMPAIGN_BUDGET,
        ..Default::default()
    };
    (config, DEPLOYMENT_SEED, None, params)
}

fn check(holds: bool, claim: &str) -> Verdict {
    if holds {
        Ok(())
    } else {
        Err(claim.to_owned())
    }
}

/// Figure 1: resource-utilization traces for both applications — the
/// number of tasks running on each resource and the cumulative data
/// transferred to each resource over time, on the paper's Parsl
/// deployment without pass-by-reference (20 T4 GPUs, 8 KNL workers).
///
/// Shape: molecular design keeps the GPUs busy in long waves and moves
/// an order of magnitude more data to the GPU resource than surrogate
/// fine-tuning, whose GPU activity is sporadic.
pub fn fig1_utilization(runs: &Runs, out: &mut String) -> Verdict {
    outln!(out, "=== Fig. 1: resource utilization, Parsl without pass-by-reference ===");

    let md = runs.moldesign(campaign_key(WorkflowConfig::Parsl)).utilization();
    let ft = runs.finetune((WorkflowConfig::Parsl, DEPLOYMENT_SEED, None, Default::default()));
    let ft = UtilizationReport::from_records(&ft.records);
    let [md_gpu_bytes, ft_gpu_bytes] =
        [("molecular design", md), ("surrogate fine-tuning", ft)].map(|(app, report)| {
            outln!(out, "\n--- {app} ---");
            out.push_str(&report.series_text(13));
            outln!(
                out,
                "mean tasks running: theta {:.1}, venti {:.1}; bytes to venti {:.2} GB, to theta {:.2} GB",
                report.mean_running(THETA),
                report.mean_running(VENTI),
                report.total_bytes(VENTI) as f64 / 1e9,
                report.total_bytes(THETA) as f64 / 1e9,
            );
            report.total_bytes(VENTI)
        });

    outln!(out, "\n--- shape checks vs paper ---");
    outln!(
        out,
        "data to GPU resource: moldesign {:.1} GB vs finetune {:.2} GB \
         (paper: order-of-magnitude gap, O(10) GB vs O(1) GB)",
        md_gpu_bytes as f64 / 1e9,
        ft_gpu_bytes as f64 / 1e9
    );
    check(md_gpu_bytes > 5 * ft_gpu_bytes, "molecular design must move much more data")
}

/// Figure 3: median component times of a no-op task through Colmena +
/// FnX with inputs passed inline, via a file-system ProxyStore and via a
/// Redis ProxyStore; 10 kB and 1 MB inputs, thinker and task server on
/// the Theta login node, one KNL worker (§V-C1).
///
/// Shape: server→worker communication dominates the lifetime; proxying
/// cuts it 2–3× at 10 kB and up to 10× at 1 MB.
pub fn fig3_noop_overheads(_: &Runs, out: &mut String) -> Verdict {
    outln!(out, "=== Fig. 3: no-op task overheads, FnX fabric, {FIG3_TASKS} tasks/cell ===\n");
    outln!(out, "{BREAKDOWN_HEADER}");
    let cells = [(10_000u64, "2-3x"), (1_000_000, "~10x")].map(|(size, paper)| {
        let [none, _, redis] = [StoreKind::None, StoreKind::Fs, StoreKind::Redis].map(|store| {
            let row = NoopPipeline::fig3(store).run(size, FIG3_TASKS).median_row();
            breakdown_row(out, store.label(), &size_label(size), &row);
            row
        });
        outln!(out);
        (size_label(size), paper, none, redis)
    });

    outln!(out, "--- shape checks vs paper ---");
    for (size, paper, np, px) in &cells {
        let ratio = np.server_to_worker_ms / px.server_to_worker_ms;
        outln!(out, "server->worker speedup from proxying @ {size}: {ratio:.1}x (paper: {paper})");
        let tts = np.thinker_to_server_ms / px.thinker_to_server_ms;
        outln!(
            out,
            "thinker->server speedup from proxying @ {size}: {tts:.1}x (paper: gains grow with size)"
        );
    }
    Ok(())
}

/// Figure 4: mean component times of a no-op task with inputs proxied
/// through each ProxyStore backend, 10 kB → 100 MB (§V-C2). Redis and
/// the file system keep the thinker on the Theta login node; Globus
/// places it at UChicago RCC.
///
/// Shape: Redis fastest for small objects, the file system comparable
/// at large sizes, Globus worker time seconds and near size-independent.
pub fn fig4_backend_sweep(_: &Runs, out: &mut String) -> Verdict {
    outln!(out, "=== Fig. 4: ProxyStore backend sweep, mean times, {FIG4_TASKS} tasks/cell ===\n");
    outln!(out, "{BREAKDOWN_HEADER}");
    let [redis, fs, globus] = [StoreKind::Redis, StoreKind::Fs, StoreKind::Globus].map(|store| {
        let rows = FIG4_SIZES.map(|size| {
            let row = NoopPipeline::fig4(store).run(size, FIG4_TASKS).mean_row();
            breakdown_row(out, store.label(), &size_label(size), &row);
            row
        });
        outln!(out);
        rows
    });
    // Indices into FIG4_SIZES.
    let (small, mid, big) = (0, 2, 4);

    outln!(out, "--- shape checks vs paper ---");
    outln!(
        out,
        "redis vs fs serialization @10kB: {:.2} vs {:.2} ms (paper: Redis much lower)",
        redis[small].serialization_ms,
        fs[small].serialization_ms
    );
    outln!(
        out,
        "redis vs fs serialization @100MB: {:.0} vs {:.0} ms (paper: comparable)",
        redis[big].serialization_ms,
        fs[big].serialization_ms
    );
    outln!(
        out,
        "globus worker time across sizes: {:.0} / {:.0} / {:.0} ms (paper: constant, seconds)",
        globus[small].time_on_worker_ms,
        globus[mid].time_on_worker_ms,
        globus[big].time_on_worker_ms
    );
    // §V-F: the 100 MB regime — where does the crossover land?
    outln!(
        out,
        "lifetime @100MB  redis {:.0} / fs {:.0} / globus {:.0} ms",
        redis[big].lifetime_ms,
        fs[big].lifetime_ms,
        globus[big].lifetime_ms
    );
    let competitive = globus[big].lifetime_ms / redis[big].lifetime_ms;
    outln!(
        out,
        "globus/redis lifetime ratio @100MB: {competitive:.1}x (paper: competitive beyond ~10 MB)"
    );
    Ok(())
}

const BREAKDOWN_HEADER: &str = "backend    size       t->s(ms)  serial(ms)    s->w(ms)  \
                                worker(ms)    w->s(ms)    life(ms)";

fn breakdown_row(out: &mut String, backend: &str, size_label: &str, row: &BreakdownRow) {
    outln!(
        out,
        "{:<10} {:<9} {:>9.1} {:>11.1} {:>11.1} {:>11.1} {:>11.1} {:>11.1}",
        backend,
        size_label,
        row.thinker_to_server_ms,
        row.serialization_ms,
        row.server_to_worker_ms,
        row.time_on_worker_ms,
        row.worker_to_server_ms,
        row.lifetime_ms
    );
}

/// Human size label.
fn size_label(bytes: u64) -> String {
    if bytes >= 1_000_000_000 {
        format!("{}GB", bytes / 1_000_000_000)
    } else if bytes >= 1_000_000 {
        format!("{}MB", bytes / 1_000_000)
    } else {
        format!("{}kB", bytes / 1_000)
    }
}

/// Figure 5: result-notification timings in the molecular-design
/// campaign on FnX+Globus (§V-D1): the time from a task finishing to
/// the thinker being notified, per task type, and how long the thinker
/// then waits for the result data.
///
/// Shape: simulation notification fastest (no transfer to start);
/// training/inference limited by the HTTPS call that starts a Globus
/// transfer; data waits above 1 s only for cross-resource results.
pub fn fig5_notification(runs: &Runs, out: &mut String) -> Verdict {
    let outcome = runs.moldesign(campaign_key(WorkflowConfig::FnXGlobus));
    let breakdowns = MOLDESIGN_TOPICS.map(|topic| Breakdown::of(&outcome.records, Some(topic)));
    outln!(
        out,
        "=== Fig. 5: notification timings, molecular design on fnx+globus ===\n\
         campaign: {} simulations, {} records\n",
        outcome.simulations,
        outcome.records.len()
    );

    outln!(out, "task            n    notify p50 (ms)    notify p90 (ms) data-wait p50 (ms)");
    for (topic, b) in MOLDESIGN_TOPICS.iter().zip(&breakdowns) {
        let notify = b.notification.quantiles(&[0.5, 0.9]);
        outln!(
            out,
            "{:<10} {:>6} {:>18.0} {:>18.0} {:>18.0}",
            topic,
            b.count,
            notify[0] * 1e3,
            notify[1] * 1e3,
            b.data_wait.median() * 1e3,
        );
    }

    outln!(out, "\n--- shape checks vs paper ---");
    let [sim_b, train_b, infer_b] = &breakdowns;
    outln!(
        out,
        "simulate notify {:.0} ms < train notify {:.0} ms (paper: sim fastest, no transfer init)",
        sim_b.notification.median() * 1e3,
        train_b.notification.median() * 1e3
    );
    outln!(
        out,
        "cross-site data waits: train {:.1} s, infer {:.1} s (paper: 1-5 s Globus transfers)",
        train_b.data_wait.median(),
        infer_b.data_wait.median()
    );
    outln!(
        out,
        "local data wait: simulate {:.2} s (paper: >1 s only when crossing resources)",
        sim_b.data_wait.median()
    );
    Ok(())
}

/// §V-D in-text statistics: the three latencies a steering system must
/// minimize, on the FnX+Globus molecular-design campaign.
///
/// * Reaction time — result completing → available to the thinker:
///   Fig. 5's table ([`fig5_notification`]), from the same campaign.
/// * Decision time — result received → next decision (paper: 5 ms to
///   launch the next simulation).
/// * Dispatch time — decision → task running (paper: ~100 ms for
///   simulations; 2.5 s / 3.8 s for training / inference, 67 % / 95 %
///   of it proxy resolution; 12 % of inference proxies resolve in
///   < 100 ms thanks to ahead-of-time transfers).
pub fn latency_report(runs: &Runs, out: &mut String) -> Verdict {
    let outcome = runs.moldesign(campaign_key(WorkflowConfig::FnXGlobus));
    let breakdowns = MOLDESIGN_TOPICS.map(|topic| Breakdown::of(&outcome.records, Some(topic)));
    outln!(out, "=== §V-D latency report: fnx+globus molecular design ===\n");

    // Decision time: the first simulation submitted at or after each
    // simulation result's notification.
    let mut decision = Samples::new();
    let simulations = |at: fn(&TaskRecord) -> Option<SimTime>| {
        let mut times: Vec<_> =
            outcome.records.iter().filter(|r| r.topic == "simulate").filter_map(at).collect();
        times.sort();
        times
    };
    let notifications = simulations(|r| r.timing.thinker_notified);
    let creations = simulations(|r| r.timing.created);
    for n in &notifications {
        if let Some(c) = creations.iter().find(|c| *c >= n) {
            decision.record((*c - *n).as_secs_f64());
        }
    }
    outln!(out, "-- decision time --");
    outln!(
        out,
        "notification -> next simulation submitted: p50 {:.0} ms (paper: 5 ms, negligible vs reaction)",
        decision.median() * 1e3
    );

    outln!(out, "\n-- dispatch time --");
    for (topic, b) in MOLDESIGN_TOPICS.iter().zip(&breakdowns) {
        let resolve_share = if b.time_on_worker.median() > 0.0 {
            100.0 * b.resolve_wait.median()
                / (b.server_to_worker.median() + b.resolve_wait.median()).max(1e-9)
        } else {
            0.0
        };
        outln!(
            out,
            "{topic:<10} server->worker p50 {:>6.0} ms | input resolve p50 {:>6.0} ms ({resolve_share:.0}% of start latency)",
            b.server_to_worker.median() * 1e3,
            b.resolve_wait.median() * 1e3,
        );
    }

    // Ahead-of-time caching effectiveness.
    let (local, remote) =
        outcome.records.iter().filter(|r| r.topic == "infer").fold((0u32, 0u32), |(l, r), rec| {
            (l + rec.report.local_inputs, r + rec.report.remote_inputs)
        });
    outln!(
        out,
        "\ninference input proxies already local at resolve time: {:.0}% ({local} of {}) \
         (paper: 12% resolve <100 ms, thanks to ahead-of-time transfer)",
        100.0 * f64::from(local) / f64::from(local + remote).max(1.0),
        local + remote,
    );
    let [_, train_b, infer_b] = &breakdowns;
    outln!(
        out,
        "train / infer overhead medians: {:.1} s / {:.1} s vs task times 340 s / 900 s \
         (paper: <1% / <10% of runtime)",
        train_b.overhead.median(),
        infer_b.overhead.median()
    );
    Ok(())
}

/// Figure 6 (+ §V-E1 in-text statistics): the molecular-design campaign
/// across the three workflow configurations, three seeds each.
///
/// (a) molecules with IP above threshold found vs simulation node-time;
/// (b) median ML makespan (paper: FnX+Globus 1565 s < Parsl+Redis
/// 1676 s < Parsl 1828 s) and median CPU idle time between simulations
/// (paper: ~500 ms FnX, ~100 ms Parsl+Redis). In-text: FnX+Globus and
/// Parsl+Redis find statistically indistinguishable molecule counts.
pub fn fig6_moldesign(runs: &Runs, out: &mut String) -> Verdict {
    let base = MolDesignParams {
        library_size: FIG6_LIBRARY,
        budget: Duration::from_secs(FIG6_HOURS * 3600),
        ..Default::default()
    };
    outln!(
        out,
        "=== Fig. 6: molecular design, {} candidates, {FIG6_HOURS} node-hours, {} seeds/config ===\n",
        base.library_size,
        MOLDESIGN_SEEDS.len()
    );

    // `WorkflowConfig::all()` is in paper order: Parsl, Parsl+Redis, FnX+Globus.
    let summary = WorkflowConfig::all().map(|config| {
        let mut found = Samples::new();
        let mut makespans = Samples::new();
        let mut idles = Samples::new();
        let outcomes = MOLDESIGN_SEEDS.map(|seed| {
            let outcome =
                runs.moldesign((config, seed, None, MolDesignParams { seed, ..base.clone() }));
            found.record(outcome.found as f64);
            makespans.extend_from(&outcome.ml_makespans);
            idles.extend_from(&outcome.cpu_idle);
            outcome
        });

        // (a) found-vs-node-time curve, averaged over seeds, on a coarse
        // grid.
        outln!(out, "--- {} : found vs node-hours (mean of seeds) ---", config.label());
        out!(out, "  node-h:");
        for h in 1..=FIG6_HOURS {
            out!(out, " {h:>6}");
        }
        outln!(out);
        out!(out, "  found :");
        for h in 1..=FIG6_HOURS {
            let t = (h * 3600) as f64;
            let mean: f64 =
                outcomes.iter().map(|o| o.found_at(t) as f64).sum::<f64>() / outcomes.len() as f64;
            out!(out, " {mean:>6.1}");
        }
        outln!(out, "\n");
        (config, found, makespans, idles)
    });

    // (b) table.
    outln!(out, "config         found (mean)  found (min-max)    ml-makespan     cpu-idle");
    for (config, found, makespans, idles) in &summary {
        outln!(
            out,
            "{:<12} {:>14.1} {:>9.0}-{:<6.0} {:>11.0} s {:>9.0} ms",
            config.label(),
            found.mean(),
            found.min(),
            found.max(),
            makespans.median(),
            idles.median() * 1e3,
        );
    }

    outln!(out, "\n--- shape checks vs paper ---");
    let [(_, _, m_par, _), (_, f_red, m_red, i_red), (_, f_fnx, m_fnx, i_fnx)] = &summary;
    outln!(
        out,
        "ml makespan ordering: fnx {:.0} <= parsl+redis {:.0} <= parsl {:.0} (paper: 1565/1676/1828)",
        m_fnx.median(),
        m_red.median(),
        m_par.median()
    );
    outln!(
        out,
        "scientific parity: fnx found {:.1} vs parsl+redis {:.1}, overlap of ranges {}-{} / {}-{}",
        f_fnx.mean(),
        f_red.mean(),
        f_fnx.min(),
        f_fnx.max(),
        f_red.min(),
        f_red.max()
    );
    outln!(
        out,
        "cpu idle: fnx {:.0} ms vs parsl+redis {:.0} ms (paper: ~500 vs ~100 ms, both <1% of 60 s tasks)",
        i_fnx.median() * 1e3,
        i_red.median() * 1e3
    );
    let util = 1.0 - i_fnx.median() / (60.0 + i_fnx.median());
    outln!(out, "implied fnx CPU utilization: {:.1}% (paper: >99%)", 100.0 * util);
    Ok(())
}

/// Figure 7: the surrogate fine-tuning campaign across the three
/// workflow configurations, three seeds each.
///
/// (a) force RMSD on the held-out test set after fine-tuning (paper:
/// indistinguishable across configurations within run-to-run spread);
/// (b) median per-task-type overheads including the wait for result
/// data. Shape: fine-tuning improves on the pre-trained RMSD in every
/// (configuration, seed) cell; GPU-task overhead largest for FnX+Globus;
/// plain-Parsl overhead grows with payload, proxied overheads do not.
pub fn fig7_finetune(runs: &Runs, out: &mut String) -> Verdict {
    struct Row {
        config: WorkflowConfig,
        outcomes: [Rc<FinetuneOutcome>; FIG7_SEEDS.len()],
        rmsd: Samples,
        initial: Samples,
        /// `(overhead_ms, data_wait_ms)` per topic of `TOPICS`.
        overheads: [(f64, f64); 4],
    }
    const TOPICS: [&str; 4] = ["sample", "simulate", "train", "infer"];

    let base = FinetuneParams::default();
    outln!(
        out,
        "=== Fig. 7: surrogate fine-tuning, {} pretrain + {} new structures, {} seeds ===\n",
        base.pretrain_structures,
        base.target_new,
        FIG7_SEEDS.len()
    );

    // `WorkflowConfig::all()` is in paper order: Parsl, Parsl+Redis, FnX+Globus.
    let rows = WorkflowConfig::all().map(|config| {
        let outcomes = FIG7_SEEDS.map(|seed| {
            runs.finetune((config, seed, None, FinetuneParams { seed, ..base.clone() }))
        });
        let (mut rmsd, mut initial) = (Samples::new(), Samples::new());
        for o in &outcomes {
            rmsd.record(o.final_force_rmsd);
            initial.record(o.initial_force_rmsd);
        }
        let overheads = TOPICS.map(|topic| {
            let (overhead, wait) = pooled_overheads(&outcomes, topic);
            (overhead.median() * 1e3, wait.median() * 1e3)
        });
        Row { config, outcomes, rmsd, initial, overheads }
    });

    outln!(out, "--- (a) force RMSD on the test set ---");
    outln!(out, "config        rmsd (mean±sem)   pre-finetune");
    for r in &rows {
        outln!(
            out,
            "{:<12} {:>10.3}±{:<5.3} {:>14.3}",
            r.config.label(),
            r.rmsd.mean(),
            r.rmsd.std_err(),
            r.initial.mean()
        );
    }

    outln!(out, "\n--- (b) median per-task overheads (ms); [data-wait share] ---");
    outln!(
        out,
        "config                   sample           simulate              train              infer"
    );
    for r in &rows {
        out!(out, "{:<12}", r.config.label());
        for (overhead, wait) in &r.overheads {
            out!(out, " {:>9.0} [{:>5.0}]", overhead, wait);
        }
        outln!(out);
    }

    outln!(out, "\n--- shape checks vs paper ---");
    let [parsl, redis, fnx] = &rows;
    let spread = |r: &Row| (r.rmsd.min(), r.rmsd.max());
    outln!(
        out,
        "rmsd ranges: fnx {:?} redis {:?} parsl {:?} (paper: run-to-run spread exceeds config gaps)",
        spread(fnx),
        spread(redis),
        spread(parsl)
    );
    let train_overhead = |r: &Row| r.overheads[2].0;
    outln!(
        out,
        "train-task overhead: fnx {:.0} ms > parsl+redis {:.0} ms (paper: Globus transfer dominates)",
        train_overhead(fnx),
        train_overhead(redis)
    );
    outln!(
        out,
        "plain parsl: sampling (3 MB) {:.0} ms vs simulation (20 kB) {:.0} ms \
         (paper: 820 vs 20 ms — strongly size-dependent)",
        parsl.overheads[0].0,
        parsl.overheads[1].0
    );
    outln!(
        out,
        "parsl+redis: sampling {:.0} ms vs simulation {:.0} ms \
         (paper: 200 vs 170 ms — roughly size-independent)",
        redis.overheads[0].0,
        redis.overheads[1].0
    );
    for r in &rows {
        for (seed, o) in FIG7_SEEDS.iter().zip(&r.outcomes) {
            let (config, start) = (r.config.label(), o.initial_force_rmsd);
            if o.final_force_rmsd >= start {
                return Err(format!(
                    "{config} seed {seed}: fine-tuning must improve on {start:.3}"
                ));
            }
        }
    }
    Ok(())
}

/// `topic`'s overhead and data-wait samples, pooled over `outcomes` from
/// one [`Breakdown`] each: every campaign numbers its tasks from 0, so
/// one `Breakdown` over all their records would drop the later seeds'
/// records as duplicates of the first's.
fn pooled_overheads(outcomes: &[Rc<FinetuneOutcome>], topic: &str) -> (Samples, Samples) {
    let (mut overhead, mut wait) = (Samples::new(), Samples::new());
    for o in outcomes {
        let b = Breakdown::of(&o.records, Some(topic));
        overhead.extend_from(&b.overhead);
        wait.extend_from(&b.data_wait);
    }
    (overhead, wait)
}

/// §V-F recommendations derived from a real campaign's records: the
/// advisor proposes a data path per task type of the fine-tuning
/// campaign on FnX+Globus.
pub fn advisor_report(runs: &Runs, out: &mut String) -> Verdict {
    let outcome =
        runs.finetune((WorkflowConfig::FnXGlobus, DEPLOYMENT_SEED, None, Default::default()));
    outln!(out, "=== §V-F advisor: surrogate fine-tuning on fnx+globus ===\n");
    outln!(
        out,
        "topic           payload   x-site       with ports      without ports     overhead"
    );
    for r in &Advisor::recommend(&outcome.records, THETA) {
        outln!(
            out,
            "{:<10} {:>12} {:>8} {:>16} {:>18} {:>10.2} s",
            r.topic,
            format_bytes(r.payload_bytes),
            r.crosses_sites,
            path_label(r.with_ports),
            path_label(r.without_ports),
            r.observed_overhead,
        );
    }
    outln!(out, "\n(paper: >10 kB => pass by reference; <100 MB with open ports => Redis;");
    outln!(out, " otherwise Globus; sub-10 kB messages should stay inline)");
    Ok(())
}

fn path_label(p: PathChoice) -> &'static str {
    match p {
        PathChoice::Inline => "inline",
        PathChoice::DirectStore => "redis",
        PathChoice::TransferService => "globus",
    }
}

fn format_bytes(b: u64) -> String {
    if b >= 1_000_000_000 {
        format!("{:.1} GB", b as f64 / 1e9)
    } else if b >= 1_000_000 {
        format!("{:.1} MB", b as f64 / 1e6)
    } else {
        format!("{:.1} kB", b as f64 / 1e3)
    }
}

/// Ablation: simulation backlog depth (§V-E1, "submitting at least one
/// more simulation task than there are CPU workers"). Sweeps the backlog
/// 0 → 3 on FnX+Globus and reports the idle gap between simulations.
///
/// Shape: a backlog of 3 cuts the median idle gap below a quarter of
/// the no-backlog gap.
pub fn ablation_backlog(runs: &Runs, out: &mut String) -> Verdict {
    outln!(out, "=== ablation: simulation backlog depth (fnx+globus) ===\n");
    outln!(out, " backlog  idle p50 (ms)  idle p90 (ms)   utilization");
    let idles = [0usize, 1, 2, 3].map(|backlog| {
        let params = MolDesignParams {
            library_size: ABLATION_LIBRARY,
            budget: ABLATION_BUDGET,
            backlog,
            ..Default::default()
        };
        let outcome = runs.moldesign((WorkflowConfig::FnXGlobus, DEPLOYMENT_SEED, None, params));
        let idle_q = outcome.cpu_idle.quantiles(&[0.5, 0.9]);
        let idle = idle_q[0];
        let util = 60.0 / (60.0 + idle);
        outln!(
            out,
            "{:>8} {:>14.0} {:>14.0} {:>12.2}%",
            backlog,
            idle * 1e3,
            idle_q[1] * 1e3,
            100.0 * util
        );
        idle
    });
    let (idle0, idle_last) = (idles[0], idles[3]);
    outln!(out, "\n--- shape check vs paper ---");
    outln!(
        out,
        "backlog 0 idle {:.0} ms -> backlog 3 idle {:.0} ms (paper: backlog hides the \
         notify+dispatch loop)",
        idle0 * 1e3,
        idle_last * 1e3
    );
    check(idle_last < 0.25 * idle0, "backlog must slash idle time")
}

/// Ablation: the auto-proxy size threshold (§V-E2 / §V-F), swept on the
/// fine-tuning campaign over Parsl+Redis (payloads from 20 kB to 21 MB).
///
/// Shape: the paper's 10 kB threshold sits at or near the optimum of
/// the overall median overhead.
pub fn ablation_threshold(runs: &Runs, out: &mut String) -> Verdict {
    outln!(out, "=== ablation: auto-proxy threshold (parsl+redis, fine-tuning) ===\n");
    outln!(
        out,
        "threshold    sample (ms)  simulate (ms)     train (ms)     infer (ms)   all p50 (ms)"
    );
    let thresholds: [(u64, &str); 5] =
        [(0, "0"), (1_000, "1kB"), (10_000, "10kB"), (1_000_000, "1MB"), (u64::MAX, "inf")];
    let [always, _, ten_kb, _, never] = thresholds.map(|(threshold, label)| {
        let o = runs.finetune((
            WorkflowConfig::ParslRedis,
            DEPLOYMENT_SEED,
            Some(threshold),
            Default::default(),
        ));
        let med = |topic| Breakdown::of(&o.records, Some(topic)).overhead.median() * 1e3;
        let overall = Breakdown::of(&o.records, None).overhead.median() * 1e3;
        outln!(
            out,
            "{:>9} {:>14.0} {:>14.0} {:>14.0} {:>14.0} {:>14.0}",
            label,
            med("sample"),
            med("simulate"),
            med("train"),
            med("infer"),
            overall
        );
        overall
    });
    outln!(out, "\n--- shape check vs paper ---");
    outln!(
        out,
        "overall overhead: always-proxy {always:.0} ms, 10kB {ten_kb:.0} ms, never-proxy {never:.0} ms"
    );
    check(
        ten_kb <= always + 1.0 && ten_kb < never,
        "the paper's 10 kB threshold should be at or near the optimum",
    )
}

/// Workers on the overload endpoint.
const OVERLOAD_WORKERS: usize = 8;
/// Constant service time per overload task, seconds.
const OVERLOAD_SERVICE_SECS: f64 = 1.0;
/// Virtual seconds the overload generator offers load for.
const OVERLOAD_HORIZON_SECS: f64 = 300.0;
/// Bounded worker queue: two tasks waiting per worker.
const OVERLOAD_QUEUE: usize = 2 * OVERLOAD_WORKERS;
/// Offered-load multipliers swept, relative to saturation.
const OVERLOAD_MULTIPLIERS: [f64; 7] = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0];
/// At 2× saturation, goodput holds at least this fraction of the peak.
pub const GOODPUT_FLOOR: f64 = 0.80;
/// At 2× saturation, the p99 queue wait stays under this many seconds.
pub const P99_BOUND_SECS: f64 = 10.0;

/// One offered-load point of the overload sweep, all in virtual time.
#[derive(Clone, Copy, Debug)]
pub struct OverloadPoint {
    /// Offered load as a multiple of saturation (`workers / service`).
    pub multiplier: f64,
    /// Offered load, tasks per second.
    pub offered_per_sec: f64,
    /// Tasks the generator submitted.
    pub submitted: u64,
    /// Tasks that completed successfully.
    pub completed: u64,
    /// Tasks overload protection shed.
    pub shed: u64,
    /// Tasks that failed.
    pub failed: u64,
    /// Successful completions per second over the whole run, drain
    /// included.
    pub goodput_per_sec: f64,
    /// Shed results as a fraction of all results.
    pub shed_fraction: f64,
    /// 99th percentile of the dispatch → worker-start delay among
    /// successes, seconds.
    pub p99_queue_wait_secs: f64,
    /// Virtual end of the run, seconds.
    pub end_secs: f64,
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
            if let (Some(d), Some(w)) = (result.timing.dispatched, result.timing.worker_started) {
                self.queue_waits.push(w.duration_since(d).as_secs_f64());
            }
        }
    }
}

/// Runs one point of the overload sweep: an open-loop generator offers
/// `multiplier` × saturation for `horizon_secs` to an FnX endpoint with
/// a bounded queue shedding lowest priority first and an admission
/// controller at 1.1× saturation, then drains.
pub fn overload_point(multiplier: f64, horizon_secs: f64) -> OverloadPoint {
    let saturation = OVERLOAD_WORKERS as f64 / OVERLOAD_SERVICE_SECS;
    let offered = multiplier * saturation;
    let cal = Calibration::default();

    let sim = Sim::new();
    let pool = WorkerPoolConfig {
        site: THETA,
        label: "theta".into(),
        workers: OVERLOAD_WORKERS,
        result_policy: hetflow_store::ProxyPolicy::disabled(),
        ser: cal.ser.clone(),
        local_hop: cal.worker_hop.clone(),
        failure: None,
        retry: hetflow_fabric::RetryPolicies::default(),
        queue_capacity: OVERLOAD_QUEUE,
        overflow: OverflowPolicy::ShedLowestPriority,
    };
    let protection = ReliabilityPolicies {
        default: ReliabilityPolicy {
            admission: AdmissionConfig {
                rate: saturation * 1.1,
                burst: OVERLOAD_QUEUE as f64,
                max_in_flight: 8 * OVERLOAD_WORKERS,
            },
            ..Default::default()
        },
    };
    let (results_tx, results_rx) = channel::<TaskResult>();
    let fabric = Rc::new(FnXExecutor::with_reliability(
        &sim,
        cal.fnx.clone(),
        vec![EndpointSpec::reliable(pool, vec!["noop"])],
        results_tx,
        SimRng::stream(42, "overload-sweep"),
        Tracer::disabled(),
        protection,
    ));

    let tally = Rc::new(RefCell::new(Tally::default()));
    {
        let tally = Rc::clone(&tally);
        sim.spawn_detached(async move {
            while let Some(result) = results_rx.recv().await {
                tally.borrow_mut().absorb(&result);
            }
        });
    }

    // One detached submission per interval, so a slow submission path
    // can never throttle the offered load.
    let submitted = {
        let sim2 = sim.clone();
        let interval = time::secs(1.0 / offered);
        let h = sim.spawn(async move {
            let mut id = 0u64;
            while sim2.now().as_secs_f64() < horizon_secs {
                let f = Rc::clone(&fabric);
                let value: Rc<dyn std::any::Any> = Rc::new(());
                let spec = TaskSpec::new(
                    id,
                    "noop",
                    hetflow_fabric::Arg::Inline { bytes: 1_000, value },
                    Rc::new(|_ctx| TaskWork::new((), 1_000, time::secs(OVERLOAD_SERVICE_SECS))),
                );
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
    // Quiescence means every submission reached a terminal outcome.
    sim.run();

    let end_secs = sim.now().as_secs_f64();
    let t = tally.borrow();
    let mut waits = t.queue_waits.clone();
    waits.sort_by(|a, b| a.total_cmp(b));
    let p99 = if waits.is_empty() {
        0.0
    } else {
        waits[((waits.len() - 1) as f64 * 0.99).round() as usize]
    };
    OverloadPoint {
        multiplier,
        offered_per_sec: offered,
        submitted,
        completed: t.completed,
        shed: t.shed,
        failed: t.failed,
        goodput_per_sec: t.completed as f64 / end_secs.max(1e-9),
        shed_fraction: t.shed as f64 / (t.completed + t.shed + t.failed).max(1) as f64,
        p99_queue_wait_secs: p99,
        end_secs,
    }
}

fn peak_goodput(points: &[OverloadPoint]) -> f64 {
    points.iter().map(|p| p.goodput_per_sec).fold(0.0, f64::max)
}

/// The overload knee's verdict: every point conserves its submissions
/// (completed + shed + failed == submitted), and at 2× saturation
/// goodput holds at least [`GOODPUT_FLOOR`] of the peak and the p99
/// queue wait stays within [`P99_BOUND_SECS`]; an unprotected queue
/// would grow without bound.
fn knee_verdict(points: &[OverloadPoint]) -> Verdict {
    let peak = peak_goodput(points);
    let Some(p2) = points.iter().find(|p| p.multiplier == 2.0) else {
        return Err("sweep has no 2x point".into());
    };
    let mut failures = Vec::new();
    for p in points {
        let outcomes = p.completed + p.shed + p.failed;
        if outcomes != p.submitted {
            failures.push(format!(
                "{:.2}x saturation lost submissions: {outcomes} outcomes for {} submitted",
                p.multiplier, p.submitted
            ));
        }
    }
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
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// The overload knee (§IV-A3 robustness, DESIGN.md §11): offered load vs
/// goodput, shed fraction and p99 queue wait with the protection stack
/// on — 8 workers × 1 s service, 0.25–3× saturation, a queue of 16 and
/// admission at 1.1× saturation. The knee is the smallest multiplier
/// whose goodput reaches 95 % of the peak.
pub fn overload_knee(_: &Runs, out: &mut String) -> Verdict {
    let saturation = OVERLOAD_WORKERS as f64 / OVERLOAD_SERVICE_SECS;
    outln!(
        out,
        "=== overload knee: {OVERLOAD_WORKERS} workers x {OVERLOAD_SERVICE_SECS:.1} s service \
         (saturation {saturation:.2}/s), queue {OVERLOAD_QUEUE}, admission at 1.1x, \
         {OVERLOAD_HORIZON_SECS:.0} s offered ===\n"
    );
    outln!(
        out,
        "multiplier offered/s submitted completed   shed failed goodput/s  shed-frac \
         p99-wait(s)  end(s)"
    );
    let points = OVERLOAD_MULTIPLIERS.map(|m| overload_point(m, OVERLOAD_HORIZON_SECS));
    for p in &points {
        outln!(
            out,
            "{:>10.2} {:>9.2} {:>9} {:>9} {:>6} {:>6} {:>9.3} {:>10.4} {:>11.3} {:>7.1}",
            p.multiplier,
            p.offered_per_sec,
            p.submitted,
            p.completed,
            p.shed,
            p.failed,
            p.goodput_per_sec,
            p.shed_fraction,
            p.p99_queue_wait_secs,
            p.end_secs
        );
    }
    let peak = peak_goodput(&points);
    let knee =
        points.iter().find(|p| p.goodput_per_sec >= 0.95 * peak).map_or(0.0, |p| p.multiplier);
    let at_2x = points.iter().find(|p| p.multiplier == 2.0);
    let fraction_2x = at_2x.map_or(0.0, |p| p.goodput_per_sec / peak.max(1e-9));
    outln!(out, "\n--- shape check ---");
    outln!(
        out,
        "peak goodput {peak:.3}/s, knee at {knee:.2}x saturation, goodput at 2x {fraction_2x:.3} \
         of peak (floor {GOODPUT_FLOOR:.2}, p99 bound {P99_BOUND_SECS:.1} s)"
    );
    knee_verdict(&points)
}

/// Ablation: AI steering on/off (§III-A). Active learning concentrates
/// the simulation budget on promising candidates; a random queue spends
/// the same budget at the base rate.
///
/// Shape: the active-learning hit rate beats random by more than 3×.
pub fn ablation_steering(runs: &Runs, out: &mut String) -> Verdict {
    outln!(out, "=== ablation: steering policy (fnx+globus, 3 seeds) ===\n");
    outln!(out, "policy             sims    found   hit-rate");
    let cells = [SteeringMode::ActiveLearning, SteeringMode::Random].map(|steering| {
        let cells = MOLDESIGN_SEEDS.map(|seed| {
            let params = MolDesignParams {
                library_size: ABLATION_LIBRARY,
                budget: ABLATION_BUDGET,
                steering,
                seed,
                ..Default::default()
            };
            let o = runs.moldesign((WorkflowConfig::FnXGlobus, seed, None, params));
            (o.found, o.simulations)
        });
        let (found, sims) = cells.iter().fold((0, 0), |(f, s), c| (f + c.0, s + c.1));
        let rate = found as f64 / sims as f64;
        let policy = format!("{steering:?}");
        outln!(out, "{policy:<16} {sims:>6} {found:>8} {:>9.2}%", 100.0 * rate);
        (cells, rate)
    });
    let [(al_cells, active), (random_cells, random)] = cells;
    outln!(out, "\n--- shape check ---");
    outln!(
        out,
        "active-learning hit rate {:.2}% vs random {:.2}% ({:.1}x)",
        100.0 * active,
        100.0 * random,
        stats::pooled_ratio(&al_cells, &random_cells)
    );
    check(active > 3.0 * random, "steering must beat random decisively")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_labels() {
        assert_eq!(size_label(10_000), "10kB");
        assert_eq!(size_label(1_000_000), "1MB");
        assert_eq!(size_label(2_000_000_000), "2GB");
    }

    #[test]
    fn fig5_and_the_latency_report_share_one_campaign() {
        let runs = Runs::default();
        let mut text = String::new();
        fig5_notification(&runs, &mut text).unwrap();
        latency_report(&runs, &mut text).unwrap();
        assert_eq!(runs.moldesign.borrow().len(), 1);
        assert!(runs.finetune.borrow().is_empty());
        let key = campaign_key(WorkflowConfig::FnXGlobus);
        assert!(Rc::ptr_eq(&runs.moldesign(key.clone()), &runs.moldesign(key)));
        assert_eq!(runs.moldesign.borrow().len(), 1);
    }

    #[test]
    fn fig7b_pools_every_seed_s_records() {
        let (runs, base) = (Runs::default(), FinetuneParams::default());
        let outcomes = FIG7_SEEDS.map(|seed| {
            let params = FinetuneParams { seed, ..base.clone() };
            runs.finetune((WorkflowConfig::ParslRedis, seed, None, params))
        });
        for topic in ["sample", "simulate", "train", "infer"] {
            let (overhead, wait) = pooled_overheads(&outcomes, topic);
            let per_seed = outcomes.iter().map(|o| Breakdown::of(&o.records, Some(topic)));
            let (n_overhead, n_wait) = per_seed
                .fold((0, 0), |(o, w), b| (o + b.overhead.len(), w + b.data_wait.len()));
            assert_eq!((overhead.len(), wait.len()), (n_overhead, n_wait), "{topic}");
            // One `Breakdown` over every seed's records counts fewer.
            let flat = Breakdown::of(outcomes.iter().flat_map(|o| &o.records), Some(topic));
            assert!(flat.overhead.len() < overhead.len(), "{topic}");
        }
    }

    #[test]
    fn overload_points_are_deterministic() {
        let a = overload_point(1.5, 30.0);
        let b = overload_point(1.5, 30.0);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.p99_queue_wait_secs.to_bits(), b.p99_queue_wait_secs.to_bits());
    }

    #[test]
    fn knee_verdict_catches_collapse_and_unbounded_waits() {
        let good = OverloadPoint {
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
        let healthy_2x = OverloadPoint { multiplier: 2.0, goodput_per_sec: 7.9, ..good };
        assert_eq!(knee_verdict(&[good, healthy_2x]), Ok(()));

        let collapsed_2x = OverloadPoint {
            multiplier: 2.0,
            goodput_per_sec: 3.0,
            p99_queue_wait_secs: 60.0,
            ..good
        };
        let failure = knee_verdict(&[good, collapsed_2x]).unwrap_err();
        assert!(failure.contains("collapsed") && failure.contains("unbounded"), "{failure}");
        assert!(knee_verdict(&[good]).is_err(), "a missing 2x point is a failure");

        let leaky_half = OverloadPoint { multiplier: 0.5, completed: 99, ..good };
        let failure = knee_verdict(&[leaky_half, good, healthy_2x]).unwrap_err();
        assert!(failure.contains("0.50x") && failure.contains("99 outcomes"), "{failure}");
    }
}
