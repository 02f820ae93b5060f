//! Run-level reporting: resource utilization and data-movement series.
//!
//! Reconstructs the Fig. 1 views from finished-task records: the number
//! of tasks running on each resource over time and the cumulative data
//! transferred *to* each resource (task inputs landing at the worker's
//! site; result data landing back at the thinker).

use crate::platform::{site_name, THETA};
use hetflow_steer::TaskRecord;
use hetflow_store::SiteId;
use hetflow_sim::{Gauge, SimTime, TimeSeries};
use std::collections::BTreeMap;

/// Per-site utilization and transfer series for one run.
#[derive(Default)]
pub struct UtilizationReport {
    /// Tasks running on each site over time.
    pub running: BTreeMap<SiteId, Gauge>,
    /// Cumulative bytes delivered to each site over time.
    pub cumulative_bytes: BTreeMap<SiteId, TimeSeries>,
    /// End of the observed window.
    pub end: SimTime,
}

impl UtilizationReport {
    /// Builds the report from task records.
    pub fn from_records(records: &[TaskRecord]) -> Self {
        // Running gauges need time-ordered events.
        let mut events: Vec<(SimTime, SiteId, f64)> = Vec::new();
        // Byte arrivals: input data arrives at the worker site when
        // inputs are resolved; output data arrives at the thinker when
        // the result is ready.
        let mut arrivals: Vec<(SimTime, SiteId, u64)> = Vec::new();
        let mut end = SimTime::ZERO;
        for r in records {
            if let (Some(start), Some(stop)) =
                (r.timing.worker_started, r.timing.result_dispatched)
            {
                events.push((start, r.site, 1.0));
                events.push((stop, r.site, -1.0));
            }
            if let Some(t) = r.timing.inputs_resolved {
                arrivals.push((t, r.site, r.input_bytes));
            }
            if let Some(t) = r.timing.result_ready {
                arrivals.push((t, THETA, r.output_bytes));
                end = end.max(t);
            }
        }
        events.sort_by_key(|&(t, s, _)| (t, s));
        arrivals.sort_by_key(|&(t, s, _)| (t, s));

        let mut report = UtilizationReport { end, ..Default::default() };
        for (t, site, delta) in events {
            report.running.entry(site).or_default().add(t, delta);
            report.end = report.end.max(t);
        }
        let mut totals: BTreeMap<SiteId, u64> = BTreeMap::new();
        for (t, site, bytes) in arrivals {
            let total = totals.entry(site).or_insert(0);
            *total += bytes;
            report
                .cumulative_bytes
                .entry(site)
                .or_default()
                .push(t, *total as f64);
        }
        report
    }

    /// Total bytes delivered to `site`.
    pub fn total_bytes(&self, site: SiteId) -> u64 {
        self.cumulative_bytes
            .get(&site)
            .and_then(|s| s.points().last().map(|&(_, v)| v as u64))
            .unwrap_or(0)
    }

    /// Time-averaged tasks running at `site` over the run.
    pub fn mean_running(&self, site: SiteId) -> f64 {
        self.running
            .get(&site)
            .map(|g| g.time_average(self.end))
            .unwrap_or(0.0)
    }

    /// Formats the Fig. 1-style series on a uniform grid of `n` points,
    /// one line per point.
    pub fn series_text(&self, n: usize) -> String {
        let mut text = String::from("# t_seconds site running cumulative_GB\n");
        for (&site, gauge) in &self.running {
            let bytes = self.cumulative_bytes.get(&site);
            for (t, running) in gauge.series().resample(self.end, n, 0.0) {
                let gb = bytes
                    .map(|b| b.value_at(SimTime::from_secs_f64(t), 0.0) / 1e9)
                    .unwrap_or(0.0);
                text.push_str(&format!("{t:10.1} {:>7} {running:6.1} {gb:10.3}\n", site_name(site)));
            }
        }
        text
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default, reason = "timing fixtures read as sequential stamps")]
mod tests {
    use super::*;
    use crate::platform::VENTI;
    use hetflow_fabric::{TaskTiming, WorkerReport};
    use std::time::Duration;

    fn record(site: SiteId, start_s: u64, dur_s: u64, in_b: u64, out_b: u64) -> TaskRecord {
        let start = SimTime::from_secs(start_s);
        let mut t = TaskTiming::default();
        t.created = Some(start);
        t.worker_started = Some(start + Duration::from_secs(1));
        t.inputs_resolved = Some(start + Duration::from_secs(2));
        t.compute_finished = Some(start + Duration::from_secs(2 + dur_s));
        t.result_dispatched = Some(start + Duration::from_secs(3 + dur_s));
        t.thinker_notified = Some(start + Duration::from_secs(4 + dur_s));
        t.result_ready = Some(start + Duration::from_secs(5 + dur_s));
        TaskRecord {
            id: start_s,
            topic: "t".into(),
            timing: t,
            report: WorkerReport::default(),
            input_bytes: in_b,
            output_bytes: out_b,
            thinker_data_wait: Duration::ZERO,
            data_was_local: true,
            site,
            worker: "w".into(),
            outcome: hetflow_fabric::TaskOutcome::Success,
        }
    }

    #[test]
    fn counts_running_tasks_per_site() {
        let records = vec![
            record(VENTI, 0, 10, 1000, 10),
            record(VENTI, 5, 10, 1000, 10),
            record(THETA, 0, 3, 500, 5),
        ];
        let rep = UtilizationReport::from_records(&records);
        let venti = rep.running.get(&VENTI).unwrap();
        // At t=6s both Venti tasks are running.
        assert_eq!(venti.series().value_at(SimTime::from_secs(7), 0.0), 2.0);
        // After both finish, zero.
        assert_eq!(venti.level(), 0.0);
        assert!(rep.mean_running(VENTI) > 0.0);
    }

    #[test]
    fn accumulates_bytes_to_sites() {
        let records = vec![
            record(VENTI, 0, 10, 1_000_000, 100),
            record(VENTI, 5, 10, 2_000_000, 200),
        ];
        let rep = UtilizationReport::from_records(&records);
        assert_eq!(rep.total_bytes(VENTI), 3_000_000);
        // Outputs land at Theta (the thinker).
        assert_eq!(rep.total_bytes(THETA), 300);
    }

    #[test]
    fn empty_records_are_fine() {
        let rep = UtilizationReport::from_records(&[]);
        assert_eq!(rep.total_bytes(THETA), 0);
        assert_eq!(rep.mean_running(THETA), 0.0);
    }
}
