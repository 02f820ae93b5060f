//! The metric tables — the single source `BENCHMARK.json` is checked
//! against — and the aggregation from reps to reported values.

use crate::runner::{Rep, WorkloadRun};
use crate::stats::{median, percentile, ratio_of_sums};

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name, `layer.what` for per-layer metrics.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before it counts as a regression; unused (0) per layer.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: 0.0,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
    }
}

/// What a user of the simulator sees, per workload.
pub const END_TO_END: [MetricDef; 6] = [
    // Tasks reaching a terminal outcome per host second of the timed
    // section, Σ/Σ over the fastest rep of each variant.
    e2e("tasks_per_host_s", "1/s", Better::Higher, 0.25),
    // Allocator calls / bytes requested in the timed section per task.
    // Exact for a given seed; the bound covers how much the campaigns'
    // task mix moves them from seed to seed.
    e2e("allocs_per_task", "count", Better::Lower, 0.15),
    e2e("alloc_bytes_per_task", "B", Better::Lower, 0.15),
    // Largest VmHWM any rep's process reached.
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
    // Process start to start of the timed section, of the rep that set
    // up fastest.
    e2e("setup_s", "s", Better::Lower, 0.25),
    // Tasks that completed successfully / tasks that reached any
    // terminal outcome. 1 on four workloads; on overload_fnx the rest
    // is what the overload arms shed or timed out.
    e2e("completed_share", "ratio", Better::Higher, 0.03),
];

/// One number per layer boundary, from the traced reps and the ladder.
pub const PER_LAYER: [MetricDef; 112] = [
    hi("sim.events_per_host_s", "1/s"),
    lo("sim.host_ns_per_event", "ns"),
    lo("sim.polls_per_task", "count"),
    lo("sim.timer_fires_per_task", "count"),
    lo("sim.pending_actors", "count"),
    lo("sim.trace_on_overhead_pct", "%"),
    lo("store.puts_per_task", "count"),
    lo("store.gets_per_task", "count"),
    lo("store.bytes_put_per_task", "B"),
    hi("store.local_hit_ratio", "ratio"),
    lo("store.remote_waits_per_task", "count"),
    hi("store.evictions_per_task", "count"),
    lo("store.sim_resolve_wait_ms_p50", "ms"),
    lo("store.resident_mb_at_end", "MB"),
    hi("fabric.worker_sim_utilization", "ratio"),
    lo("fabric.worker_sim_idle_gap_ms_p50", "ms"),
    lo("fabric.shed_share", "ratio"),
    lo("fabric.timeout_share", "ratio"),
    lo("fabric.retries_per_ktask", "count"),
    lo("fabric.hedges_per_ktask", "count"),
    lo("fabric.reroutes_per_ktask", "count"),
    hi("fabric.hedge_useful_ratio", "ratio"),
    lo("fabric.breaker_opens", "count"),
    lo("steer.sim_thinker_to_server_ms_p50", "ms"),
    lo("steer.sim_serialization_ms_p50", "ms"),
    lo("steer.sim_server_to_worker_ms_p50", "ms"),
    lo("steer.sim_time_on_worker_ms_p50", "ms"),
    lo("steer.sim_worker_to_server_ms_p50", "ms"),
    lo("steer.sim_lifetime_ms_p50", "ms"),
    lo("steer.sim_overhead_ms_p50", "ms"),
    lo("steer.sim_data_wait_ms_p50", "ms"),
    lo("steer.report_host_ms", "ms"),
    lo("steer.submit_host_ns_per_task", "ns"),
    lo("steer.get_result_host_ns_per_task", "ns"),
    lo("steer.resolve_host_ns_per_task", "ns"),
    lo("apps.compute_host_ns_per_task", "ns"),
    hi("apps.ml_host_share", "ratio"),
    hi("apps.sim_found", "count"),
    lo("apps.sim_ml_makespan_s_p50", "s"),
    lo("apps.sim_cpu_idle_ms_p50", "ms"),
    lo("apps.sim_force_rmsd", "eV/A"),
    hi("apps.sim_goodput_per_s", "1/s"),
    lo("apps.sim_queue_wait_s_p99", "s"),
    lo("harness.background_host_ns_per_task", "ns"),
    hi("harness.all_reps_tasks_per_host_s", "1/s"),
    lo("harness.rep_host_s_p50", "s"),
    lo("harness.rep_host_s_p75", "s"),
    hi("harness.rep_count", "count"),
    lo("harness.rss_growth_kb_per_rep", "kB"),
    lo("sim.timer.host_ns_per_op", "ns"),
    lo("sim.timer.allocs_per_op", "count"),
    lo("sim.timer.polls_per_op", "count"),
    lo("sim.channel.host_ns_per_op", "ns"),
    lo("sim.channel.allocs_per_op", "count"),
    lo("sim.channel.polls_per_op", "count"),
    lo("sim.channel_bounded.host_ns_per_op", "ns"),
    lo("sim.channel_bounded.allocs_per_op", "count"),
    lo("sim.channel_bounded.polls_per_op", "count"),
    lo("sim.spawn.host_ns_per_op", "ns"),
    lo("sim.spawn.allocs_per_op", "count"),
    lo("sim.spawn.polls_per_op", "count"),
    lo("sim.spawn_detached.host_ns_per_op", "ns"),
    lo("sim.spawn_detached.allocs_per_op", "count"),
    lo("sim.spawn_detached.polls_per_op", "count"),
    lo("sim.semaphore.host_ns_per_op", "ns"),
    lo("sim.semaphore.allocs_per_op", "count"),
    lo("sim.semaphore.polls_per_op", "count"),
    lo("sim.trace_emit.host_ns_per_op", "ns"),
    lo("sim.trace_emit.allocs_per_op", "count"),
    lo("store.redis.host_ns_per_op", "ns"),
    lo("store.redis.allocs_per_op", "count"),
    lo("store.redis.polls_per_op", "count"),
    lo("store.fs.host_ns_per_op", "ns"),
    lo("store.fs.allocs_per_op", "count"),
    lo("store.fs.polls_per_op", "count"),
    lo("store.globus.host_ns_per_op", "ns"),
    lo("store.globus.allocs_per_op", "count"),
    lo("store.globus.polls_per_op", "count"),
    lo("fabric.faas_bare.host_ns_per_op", "ns"),
    lo("fabric.faas_bare.allocs_per_op", "count"),
    lo("fabric.faas_bare.polls_per_op", "count"),
    lo("fabric.faas_armed.host_ns_per_op", "ns"),
    lo("fabric.faas_armed.allocs_per_op", "count"),
    lo("fabric.faas_armed.polls_per_op", "count"),
    lo("fabric.htex_bare.host_ns_per_op", "ns"),
    lo("fabric.htex_bare.allocs_per_op", "count"),
    lo("fabric.htex_bare.polls_per_op", "count"),
    lo("fabric.htex_armed.host_ns_per_op", "ns"),
    lo("fabric.htex_armed.allocs_per_op", "count"),
    lo("fabric.htex_armed.polls_per_op", "count"),
    lo("steer.fnx_pipeline.host_ns_per_op", "ns"),
    lo("steer.fnx_pipeline.allocs_per_op", "count"),
    lo("steer.fnx_pipeline.polls_per_op", "count"),
    lo("steer.htex_pipeline.host_ns_per_op", "ns"),
    lo("steer.htex_pipeline.allocs_per_op", "count"),
    lo("steer.htex_pipeline.polls_per_op", "count"),
    lo("steer.fnx_globus_proxied.host_ns_per_op", "ns"),
    lo("steer.fnx_globus_proxied.allocs_per_op", "count"),
    lo("steer.fnx_globus_proxied.polls_per_op", "count"),
    lo("fabric.faas_armed_delta_ns", "ns"),
    lo("fabric.htex_armed_delta_ns", "ns"),
    lo("steer.fnx_delta_ns", "ns"),
    lo("steer.htex_delta_ns", "ns"),
    lo("store.pipeline_delta_ns", "ns"),
    lo("core.deploy_host_us", "us"),
    lo("chem.library_generate_host_ms", "ms"),
    lo("chem.md_sample_host_ms", "ms"),
    lo("chem.pes_eval_host_us", "us"),
    lo("ml.rff_fit_host_ms", "ms"),
    lo("ml.rff_predict_10k_host_ms", "ms"),
    lo("ml.pairpot_fit_host_ms", "ms"),
    lo("ml.ensemble_rmsd_host_ms", "ms"),
];

fn tasks(rep: &Rep) -> f64 {
    rep.out.timed.total() as f64
}

fn host_s(rep: &Rep) -> f64 {
    rep.out.host_ns as f64 / 1e9
}

/// Tasks per host second of `reps`: Σ tasks ÷ Σ host seconds over the
/// fastest rep of each variant.
///
/// Reps of one variant do identical work, and on a shared host a rep
/// is only ever slowed by its neighbours, never sped up — in phases
/// that last seconds, so the share of slow reps differs from run to
/// run and drags a mean or a median with it. The fastest rep is the
/// one estimate of the code's own cost that repeats (see the README's
/// baseline facts for the measured spreads).
fn rate(reps: &[Rep]) -> f64 {
    let mut fastest: Vec<&Rep> = Vec::new();
    for r in reps {
        let secs_per_task = |r: &Rep| host_s(r) / tasks(r).max(1.0);
        match fastest.iter_mut().find(|f| f.out.variant == r.out.variant) {
            Some(f) if secs_per_task(r) < secs_per_task(f) => *f = r,
            Some(_) => {}
            None => fastest.push(r),
        }
    }
    ratio_of_sums(fastest.into_iter().map(|r| (tasks(r), host_s(r))))
}

/// The end-to-end metrics of one workload's untraced reps, in
/// [`END_TO_END`] order.
pub fn end_to_end(run: &WorkloadRun) -> Vec<(&'static str, f64)> {
    let reps = &run.plain;
    // Allocation counts repeat exactly from cycle to cycle, so the
    // first cycle of variants stands for all of them — and the value
    // does not depend on how many reps fitted into the run.
    let cycle = &reps[..reps.len().min(run.workload.variants() as usize)];
    let cycle_tasks: f64 = cycle.iter().map(tasks).sum::<f64>().max(1.0);
    let all_tasks: f64 = reps.iter().map(tasks).sum::<f64>().max(1.0);
    // Set-up is slowed by the same one-sided host noise as the timed
    // section; see `rate`.
    let setup = reps.iter().map(|r| r.out.setup_ns).min().unwrap_or(0);
    let values = [
        rate(reps),
        cycle.iter().map(|r| r.out.alloc.allocs as f64).sum::<f64>() / cycle_tasks,
        cycle.iter().map(|r| r.out.alloc.bytes as f64).sum::<f64>() / cycle_tasks,
        reps.iter().map(|r| r.out.vmhwm_kb).max().unwrap_or(0) as f64 / 1024.0,
        setup as f64 / 1e9,
        reps.iter().map(|r| r.out.timed.ok as f64).sum::<f64>() / all_tasks,
    ];
    END_TO_END.iter().map(|m| m.name).zip(values).collect()
}

/// The per-layer metrics of one workload, in [`PER_LAYER`] order:
/// counters and poll-timer spans averaged over the traced reps, the
/// harness's own numbers from the untraced reps, then the ladder. A
/// metric that does not apply to the workload reads 0.
pub fn per_layer(run: &WorkloadRun, ladder: &[(String, f64)]) -> Vec<(&'static str, f64)> {
    let plain = &run.plain;
    let all_tasks: f64 = plain.iter().map(tasks).sum::<f64>().max(1.0);
    let events: f64 = plain
        .iter()
        .map(|r| (r.out.polls + r.out.timer_fires) as f64)
        .sum();
    let host: f64 = plain.iter().map(host_s).sum::<f64>().max(1e-9);
    let rep_secs: Vec<f64> = plain.iter().map(host_s).collect();
    let growth: Vec<f64> = plain.iter().map(|r| r.out.rss_growth_kb as f64).collect();
    let traced_rate = rate(&run.traced);
    // The random-steering rep runs variant 0; compare like with like.
    let same_variant = plain.iter().filter(|r| r.out.variant == 0).map(host_s);
    let ml_share = match (&run.random, same_variant.min_by(f64::total_cmp)) {
        (Some(random), Some(active)) if active > 0.0 => 1.0 - host_s(random) / active,
        _ => 0.0,
    };
    let own = [
        ("sim.events_per_host_s", events / host),
        ("sim.host_ns_per_event", host * 1e9 / events.max(1.0)),
        (
            "sim.polls_per_task",
            plain.iter().map(|r| r.out.polls as f64).sum::<f64>() / all_tasks,
        ),
        (
            "sim.timer_fires_per_task",
            plain.iter().map(|r| r.out.timer_fires as f64).sum::<f64>() / all_tasks,
        ),
        (
            "sim.pending_actors",
            plain
                .iter()
                .map(|r| r.out.pending_actors)
                .max()
                .unwrap_or(0) as f64,
        ),
        (
            "sim.trace_on_overhead_pct",
            if traced_rate > 0.0 {
                (rate(plain) / traced_rate - 1.0) * 100.0
            } else {
                0.0
            },
        ),
        ("apps.ml_host_share", ml_share),
        // Every rep, slow host phases included: against
        // `tasks_per_host_s` it shows how disturbed the run was.
        ("harness.all_reps_tasks_per_host_s", all_tasks / host),
        ("harness.rep_host_s_p50", median(&rep_secs)),
        ("harness.rep_host_s_p75", percentile(&rep_secs, 0.75)),
        ("harness.rep_count", plain.len() as f64),
        ("harness.rss_growth_kb_per_rep", median(&growth)),
    ];
    PER_LAYER
        .iter()
        .map(|m| {
            let from_own = own.iter().find(|(n, _)| *n == m.name).map(|(_, v)| *v);
            let from_ladder = ladder.iter().find(|(n, _)| n == m.name).map(|(_, v)| *v);
            let from_traced = || {
                let seen: Vec<f64> = run
                    .traced
                    .iter()
                    .filter_map(|r| {
                        r.out
                            .layer
                            .iter()
                            .find(|(n, _)| n == m.name)
                            .map(|(_, v)| *v)
                    })
                    .collect();
                if seen.is_empty() {
                    0.0
                } else {
                    seen.iter().sum::<f64>() / seen.len() as f64
                }
            };
            (m.name, from_own.or(from_ladder).unwrap_or_else(from_traced))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::{RepOutcome, Workload};

    fn rep(tasks: u64, host_ms: u64, allocs: u64) -> Rep {
        let mut out = RepOutcome {
            host_ns: host_ms * 1_000_000,
            setup_ns: host_ms * 1000,
            ..Default::default()
        };
        out.timed.ok = tasks;
        out.alloc.allocs = allocs;
        out.alloc.bytes = allocs * 10;
        out.vmhwm_kb = 2048 * host_ms;
        out.polls = tasks * 20;
        out.timer_fires = tasks * 5;
        Rep {
            index: 0,
            out,
            spans: Vec::new(),
        }
    }

    #[test]
    fn end_to_end_is_sum_over_sum_and_first_cycle_allocs() {
        let run = WorkloadRun {
            workload: Workload::CtrlFnx,
            plain: vec![rep(100, 500, 520), rep(100, 1500, 520)],
            traced: Vec::new(),
            random: None,
        };
        let got = end_to_end(&run);
        let names: Vec<&str> = got.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, END_TO_END.map(|m| m.name));
        let v = |name: &str| got.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
        assert_eq!(
            v("tasks_per_host_s"),
            Some(200.0),
            "the variant's fastest rep: 100 tasks in 0.5 s"
        );
        assert_eq!(v("allocs_per_task"), Some(5.2));
        assert_eq!(v("alloc_bytes_per_task"), Some(52.0));
        assert_eq!(v("peak_rss_mb"), Some(3000.0));
        assert_eq!(v("setup_s"), Some(0.0005), "the fastest set-up");
        assert_eq!(v("completed_share"), Some(1.0));
    }

    #[test]
    fn rate_sums_the_fastest_rep_of_each_variant() {
        let variant = |v: u32, tasks: u64, host_ms: u64| {
            let mut r = rep(tasks, host_ms, 0);
            r.out.variant = v;
            r
        };
        // Variant 0 does 100 tasks in 1 s at best, variant 1 does 300
        // in 1 s: 400 tasks in 2 s, whatever the slow reps did.
        let reps = [
            variant(0, 100, 1000),
            variant(1, 300, 4000),
            variant(0, 100, 3000),
            variant(1, 300, 1000),
        ];
        assert_eq!(rate(&reps), 200.0);
        assert_eq!(rate(&[]), 0.0);
    }

    #[test]
    fn per_layer_covers_the_table_and_prefers_measured_sources() {
        let mut traced = rep(100, 1000, 0);
        traced.out.layer = vec![("store.puts_per_task".into(), 2.0)];
        let run = WorkloadRun {
            workload: Workload::DataHtex,
            plain: vec![rep(100, 500, 0)],
            traced: vec![traced],
            random: None,
        };
        let ladder = vec![("sim.timer.host_ns_per_op".to_owned(), 42.0)];
        let got = per_layer(&run, &ladder);
        assert_eq!(got.len(), PER_LAYER.len());
        let v = |name: &str| got.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
        assert_eq!(v("store.puts_per_task"), Some(2.0));
        assert_eq!(v("sim.timer.host_ns_per_op"), Some(42.0));
        assert_eq!(v("sim.polls_per_task"), Some(20.0));
        assert_eq!(v("sim.events_per_host_s"), Some(5000.0));
        assert_eq!(v("harness.all_reps_tasks_per_host_s"), Some(200.0));
        assert_eq!(
            v("sim.trace_on_overhead_pct"),
            Some(100.0),
            "traced rep ran at half the rate"
        );
        assert_eq!(v("apps.sim_found"), Some(0.0), "not applicable reads 0");
    }

    fn word(better: Better) -> String {
        match better {
            Better::Higher => "higher".into(),
            Better::Lower => "lower".into(),
        }
    }

    /// `BENCHMARK.json` must say what this file says.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let field =
            |item: &Json, key: &str| item.get(key).and_then(Json::as_str).unwrap().to_owned();

        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name()));

        let e2e: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let want: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), word(m.better), m.bound))
            .collect();
        assert_eq!(e2e, want);

        let layers: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let want: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), word(m.better)))
            .collect();
        assert_eq!(layers, want);
    }

    #[test]
    fn the_ladder_and_the_traced_reps_fill_exactly_the_table() {
        use crate::spans::Spans;
        use crate::workloads::{run_rep, RepSpec};
        let mut produced: Vec<String> = crate::ladder::run(0.0, 400)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        for workload in Workload::ALL {
            let spec = RepSpec {
                workload,
                rep: 0,
                seed: 3,
                traced: true,
                random_steering: false,
                smoke: true,
            };
            let out = run_rep(&spec, std::time::Instant::now(), &mut Spans::new(0));
            produced.extend(out.layer.into_iter().map(|(n, _)| n));
        }
        let parent_side = [
            "sim.events_per_host_s",
            "sim.host_ns_per_event",
            "sim.polls_per_task",
            "sim.timer_fires_per_task",
            "sim.pending_actors",
            "sim.trace_on_overhead_pct",
            "apps.ml_host_share",
            "harness.all_reps_tasks_per_host_s",
            "harness.rep_host_s_p50",
            "harness.rep_host_s_p75",
            "harness.rep_count",
            "harness.rss_growth_kb_per_rep",
        ];
        produced.extend(parent_side.map(str::to_owned));
        produced.sort();
        produced.dedup();
        let mut table: Vec<String> = PER_LAYER.iter().map(|m| m.name.to_owned()).collect();
        table.sort();
        assert_eq!(produced, table);
    }
}
