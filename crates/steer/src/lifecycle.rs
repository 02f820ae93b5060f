//! Finished-task records and latency decomposition.
//!
//! Every resolved task leaves a [`TaskRecord`]; [`Breakdown`] aggregates
//! the per-component statistics the paper's figures report (Fig. 3/4:
//! component medians/means; Fig. 5: notification + data wait; Fig. 7b:
//! per-topic overheads).

use hetflow_fabric::{TaskOutcome, TaskTiming, WorkerReport};
use hetflow_store::SiteId;
use hetflow_sim::{Samples, Symbol};
use std::collections::BTreeSet;
use std::time::Duration;

/// The complete life-cycle record of one finished task.
#[derive(Clone, Debug)]
pub struct TaskRecord {
    /// Task id.
    pub id: u64,
    /// Task topic.
    pub topic: Symbol,
    /// Life-cycle stamps.
    pub timing: TaskTiming,
    /// Worker-side observations.
    pub report: WorkerReport,
    /// Input data size (bytes of underlying data).
    pub input_bytes: u64,
    /// Output data size (bytes).
    pub output_bytes: u64,
    /// Time the thinker waited to resolve the result data.
    pub thinker_data_wait: Duration,
    /// True when the result data was already at the thinker's site.
    pub data_was_local: bool,
    /// Site that executed the task.
    pub site: SiteId,
    /// Worker label.
    pub worker: Symbol,
    /// How the task ended — failed tasks are records too, so the
    /// steering loop can observe and react to them.
    pub outcome: TaskOutcome,
}

impl TaskRecord {
    /// True when the task failed.
    pub fn is_failed(&self) -> bool {
        self.outcome.is_failed()
    }

    /// True when overload protection shed the task before it ran.
    pub(crate) fn is_shed(&self) -> bool {
        self.outcome.is_shed()
    }
}

/// Per-component latency statistics over a set of records.
#[derive(Clone, Debug, Default)]
pub struct Breakdown {
    /// Thinker → server communication.
    pub thinker_to_server: Samples,
    /// Serialization (thinker + server + worker passes + proxying).
    pub serialization: Samples,
    /// Server → worker communication.
    pub server_to_worker: Samples,
    /// Time on the worker.
    pub time_on_worker: Samples,
    /// Worker → server communication.
    pub worker_to_server: Samples,
    /// Server → thinker notification.
    pub server_to_thinker: Samples,
    /// Completion → thinker notified (Fig. 5 top).
    pub notification: Samples,
    /// Thinker notified → data readable (Fig. 5 bottom).
    pub data_wait: Samples,
    /// Full lifetime.
    pub lifetime: Samples,
    /// Lifetime minus compute (Fig. 7b's "overhead").
    pub overhead: Samples,
    /// Worker-side proxy resolve wait.
    pub resolve_wait: Samples,
    /// Time lost to failed attempts and retry backoff (nonzero only
    /// under failure injection) — the bin that makes failure-path
    /// decompositions add up.
    pub wasted: Samples,
    /// Number of records aggregated.
    pub count: usize,
    /// Number of failed records among them.
    pub failed: usize,
    /// Number of records overload protection shed before they ran.
    /// Conservation: `count == finished + failed + shed` for any
    /// duplicate-free record set.
    pub shed: usize,
    /// Duplicate records dropped: later deliveries for a task id that
    /// already has a record (cancelled hedge copies that slipped past
    /// the fabric's arbitration, or replayed notifications). Their
    /// worker time lands in `wasted`, nowhere else — a task id is never
    /// double-counted as both failed and finished.
    pub cancelled: usize,
    /// Total hedge copies issued across the aggregated records.
    pub hedged: u64,
    /// Total failover reroutes across the aggregated records.
    pub rerouted: u64,
}

impl Breakdown {
    /// Aggregates `records`, optionally filtered by topic.
    pub fn of<'a>(records: impl IntoIterator<Item = &'a TaskRecord>, topic: Option<&str>) -> Self {
        let mut b = Breakdown::default();
        let mut seen = BTreeSet::new();
        for r in records {
            if let Some(t) = topic {
                if r.topic != t {
                    continue;
                }
            }
            if !seen.insert(r.id) {
                // Duplicate terminal record for an already-counted id:
                // bin its worker time as waste and move on.
                b.cancelled += 1;
                b.wasted.record(
                    (r.report.compute_time + r.report.wasted_time).as_secs_f64(),
                );
                continue;
            }
            b.count += 1;
            b.hedged += u64::from(r.report.hedges);
            b.rerouted += u64::from(r.report.reroutes);
            let t = &r.timing;
            let push = |s: &mut Samples, v: Option<Duration>| {
                if let Some(v) = v {
                    s.record(v.as_secs_f64());
                }
            };
            push(&mut b.thinker_to_server, t.thinker_to_server());
            push(&mut b.server_to_worker, t.server_to_worker());
            push(&mut b.time_on_worker, t.time_on_worker());
            push(&mut b.worker_to_server, t.worker_to_server());
            push(&mut b.server_to_thinker, t.server_to_thinker());
            push(&mut b.notification, t.notification());
            push(&mut b.data_wait, t.data_wait());
            push(&mut b.lifetime, t.lifetime());
            push(&mut b.overhead, t.overhead());
            b.serialization.record(r.report.ser_time.as_secs_f64());
            b.resolve_wait.record(r.report.resolve_wait.as_secs_f64());
            b.wasted.record(r.report.wasted_time.as_secs_f64());
            if r.is_failed() {
                b.failed += 1;
            } else if r.is_shed() {
                b.shed += 1;
            }
        }
        b
    }

    /// Formats one labelled row of medians in milliseconds — the unit
    /// the figure harnesses print.
    pub fn median_row(&self) -> BreakdownRow {
        BreakdownRow {
            thinker_to_server_ms: self.thinker_to_server.median() * 1e3,
            serialization_ms: self.serialization.median() * 1e3,
            server_to_worker_ms: self.server_to_worker.median() * 1e3,
            time_on_worker_ms: self.time_on_worker.median() * 1e3,
            worker_to_server_ms: self.worker_to_server.median() * 1e3,
            lifetime_ms: self.lifetime.median() * 1e3,
        }
    }

    /// Same components as means (Fig. 4 reports means).
    pub fn mean_row(&self) -> BreakdownRow {
        BreakdownRow {
            thinker_to_server_ms: self.thinker_to_server.mean() * 1e3,
            serialization_ms: self.serialization.mean() * 1e3,
            server_to_worker_ms: self.server_to_worker.mean() * 1e3,
            time_on_worker_ms: self.time_on_worker.mean() * 1e3,
            worker_to_server_ms: self.worker_to_server.mean() * 1e3,
            lifetime_ms: self.lifetime.mean() * 1e3,
        }
    }
}

/// One row of component statistics, in milliseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BreakdownRow {
    /// Thinker → server communication.
    pub thinker_to_server_ms: f64,
    /// Serialization total.
    pub serialization_ms: f64,
    /// Server → worker communication.
    pub server_to_worker_ms: f64,
    /// Time on worker.
    pub time_on_worker_ms: f64,
    /// Worker → server communication.
    pub worker_to_server_ms: f64,
    /// Full lifetime.
    pub lifetime_ms: f64,
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // timing fixtures read best as sequential stamps
mod tests {
    use super::*;
    use hetflow_sim::SimTime;

    fn record(topic: &str, start: u64) -> TaskRecord {
        let mut t = TaskTiming::default();
        t.created = Some(SimTime::from_secs(start));
        t.submitted = Some(SimTime::from_secs(start) + Duration::from_millis(10));
        t.server_received = Some(SimTime::from_secs(start) + Duration::from_millis(20));
        t.dispatched = Some(SimTime::from_secs(start) + Duration::from_millis(30));
        t.worker_started = Some(SimTime::from_secs(start) + Duration::from_millis(130));
        t.inputs_resolved = Some(SimTime::from_secs(start) + Duration::from_millis(150));
        t.compute_finished = Some(SimTime::from_secs(start) + Duration::from_millis(1150));
        t.result_dispatched = Some(SimTime::from_secs(start) + Duration::from_millis(1160));
        t.server_result_received = Some(SimTime::from_secs(start) + Duration::from_millis(1260));
        t.thinker_notified = Some(SimTime::from_secs(start) + Duration::from_millis(1270));
        t.result_ready = Some(SimTime::from_secs(start) + Duration::from_millis(1290));
        TaskRecord {
            id: start,
            topic: topic.into(),
            timing: t,
            report: WorkerReport {
                resolve_wait: Duration::from_millis(15),
                compute_time: Duration::from_secs(1),
                ser_time: Duration::from_millis(5),
                local_inputs: 1,
                remote_inputs: 0,
                attempts: 1,
                wasted_time: Duration::ZERO,
                hedges: 0,
                reroutes: 0,
            },
            input_bytes: 2000,
            output_bytes: 1000,
            thinker_data_wait: Duration::from_millis(20),
            data_was_local: true,
            site: SiteId(0),
            worker: "w/0".into(),
            outcome: TaskOutcome::Success,
        }
    }

    #[test]
    fn breakdown_aggregates_components() {
        let records = vec![record("a", 0), record("a", 10), record("b", 20)];
        let b = Breakdown::of(&records, Some("a"));
        assert_eq!(b.count, 2);
        assert!((b.thinker_to_server.median() - 0.010).abs() < 1e-12);
        assert!((b.server_to_worker.median() - 0.100).abs() < 1e-12);
        assert!((b.time_on_worker.median() - 1.030).abs() < 1e-12);
        assert!((b.notification.median() - 0.120).abs() < 1e-12);
        assert!((b.data_wait.median() - 0.020).abs() < 1e-12);
        assert!((b.lifetime.median() - 1.290).abs() < 1e-12);
        // overhead = lifetime - compute = 0.290
        assert!((b.overhead.median() - 0.290).abs() < 1e-12);
    }

    #[test]
    fn breakdown_without_filter_takes_all() {
        let records = vec![record("a", 0), record("b", 10)];
        let b = Breakdown::of(&records, None);
        assert_eq!(b.count, 2);
    }

    #[test]
    fn median_and_mean_rows() {
        let records = vec![record("a", 0)];
        let b = Breakdown::of(&records, None);
        let med = b.median_row();
        let mean = b.mean_row();
        assert_eq!(med, mean, "single record: median == mean");
        assert!((med.lifetime_ms - 1290.0).abs() < 1e-9);
        assert!((med.serialization_ms - 5.0).abs() < 1e-9);
    }

    #[test]
    fn empty_breakdown_is_zeroed() {
        let b = Breakdown::of(&[], None);
        assert_eq!(b.count, 0);
        assert_eq!(b.median_row(), BreakdownRow::default());
    }

    #[test]
    fn duplicate_ids_bin_as_wasted_not_double_counted() {
        let winner = record("a", 0);
        let mut loser = record("a", 0); // same id — a cancelled hedge copy
        loser.outcome = TaskOutcome::Failed(hetflow_fabric::TaskError::Timeout {
            after: Duration::from_secs(1),
        });
        let b = Breakdown::of(&[winner, loser], None);
        assert_eq!(b.count, 1, "one terminal outcome per id");
        assert_eq!(b.failed, 0, "the duplicate must not count as a failure");
        assert_eq!(b.cancelled, 1);
        // The duplicate's worker time (1s compute) lands in the wasted
        // bin; the winner contributes its own zero-waste sample.
        assert_eq!(b.wasted.len(), 2);
        assert!((b.wasted.max() - 1.0).abs() < 1e-12);
        assert_eq!(b.lifetime.len(), 1, "components aggregate the winner only");
    }

    #[test]
    fn shed_records_count_as_shed_not_failed() {
        let ok = record("a", 0);
        let mut shed = record("a", 10);
        shed.outcome = TaskOutcome::Shed;
        let b = Breakdown::of(&[ok, shed], None);
        assert_eq!(b.count, 2);
        assert_eq!(b.failed, 0);
        assert_eq!(b.shed, 1);
    }

    #[test]
    fn hedge_and_reroute_counters_sum_report_fields() {
        let mut a = record("a", 0);
        a.report.hedges = 1;
        let mut c = record("a", 10);
        c.report.reroutes = 2;
        let b = Breakdown::of(&[a, c], None);
        assert_eq!(b.hedged, 1);
        assert_eq!(b.rerouted, 2);
        assert_eq!(b.cancelled, 0);
    }
}
