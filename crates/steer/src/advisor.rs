//! Data-movement advisor — §V-F's recommendations as an executable
//! rule set.
//!
//! The paper closes with concrete guidance:
//!
//! 1. use pass-by-reference and steering policies that hide transfer
//!    latency;
//! 2. transmit data between sites directly for payloads larger than
//!    10 kB — Redis if messages stay under ~100 MB and a direct
//!    connection is feasible, Globus otherwise;
//! 3. keep pass-by-reference even on a conventional workflow system
//!    when data exceed 10 kB, especially if data are reused.
//!
//! [`Advisor`] applies those rules to the observed task records of a
//! run and emits per-topic recommendations, flagging topics whose
//! payloads are so small that proxying them is counterproductive
//! ("our application could be accelerated by avoiding the overhead of
//! proxying small messages", §V-E2).

use crate::lifecycle::TaskRecord;
use hetflow_sim::Samples;
use std::collections::BTreeMap;

/// The §V-F size breakpoints.
pub(crate) const INLINE_BELOW: u64 = 10_000;
/// Above this, direct stores stop being clearly better than a transfer
/// service.
pub(crate) const DIRECT_STORE_BELOW: u64 = 100_000_000;

/// Recommended data path for one task topic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathChoice {
    /// Send inline through the control plane (payloads < 10 kB).
    Inline,
    /// Pass by reference via a direct store (Redis) — needs an open
    /// port or tunnel between the resources.
    DirectStore,
    /// Pass by reference via the cloud transfer service (Globus).
    TransferService,
}

/// One per-topic recommendation.
#[derive(Clone, Debug)]
pub struct Recommendation {
    /// Task topic.
    pub topic: String,
    /// Median payload size observed (max of input/output medians).
    pub payload_bytes: u64,
    /// Whether the topic's data crosses sites (worker site differs from
    /// the thinker's).
    pub crosses_sites: bool,
    /// The recommended path when direct connections are possible.
    pub with_ports: PathChoice,
    /// The recommended path when they are not.
    pub without_ports: PathChoice,
    /// Median overhead observed in the analyzed run, seconds.
    pub observed_overhead: f64,
}

/// Applies the §V-F rules to observed records.
pub struct Advisor;

impl Advisor {
    /// Produces one recommendation per topic present in `records`.
    /// `thinker_site` determines which topics cross sites.
    pub fn recommend(
        records: &[TaskRecord],
        thinker_site: hetflow_store::SiteId,
    ) -> Vec<Recommendation> {
        let mut by_topic: BTreeMap<&str, Vec<&TaskRecord>> = BTreeMap::new();
        for r in records {
            by_topic.entry(r.topic.as_str()).or_default().push(r);
        }
        by_topic
            .into_iter()
            .map(|(topic, rs)| {
                let mut inputs = Samples::new();
                let mut outputs = Samples::new();
                let mut overheads = Samples::new();
                let crosses = rs.iter().any(|r| r.site != thinker_site);
                for r in &rs {
                    inputs.record(r.input_bytes as f64);
                    outputs.record(r.output_bytes as f64);
                    if let Some(o) = r.timing.overhead() {
                        overheads.record(o.as_secs_f64());
                    }
                }
                let payload = inputs.median().max(outputs.median()) as u64;
                let with_ports = Self::choose(payload, true);
                let without_ports = Self::choose(payload, false);
                Recommendation {
                    topic: topic.to_owned(),
                    payload_bytes: payload,
                    crosses_sites: crosses,
                    with_ports,
                    without_ports,
                    observed_overhead: overheads.median(),
                }
            })
            .collect()
    }

    /// The raw rule: payload size × port feasibility → path.
    pub(crate) fn choose(payload_bytes: u64, direct_connection_feasible: bool) -> PathChoice {
        if payload_bytes < INLINE_BELOW {
            PathChoice::Inline
        } else if direct_connection_feasible && payload_bytes < DIRECT_STORE_BELOW {
            PathChoice::DirectStore
        } else {
            PathChoice::TransferService
        }
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default, reason = "timing fixtures read as sequential stamps")]
mod tests {
    use super::*;
    use hetflow_fabric::{TaskTiming, WorkerReport};
    use hetflow_store::SiteId;
    use hetflow_sim::SimTime;
    use std::time::Duration;

    const THINKER: SiteId = SiteId(0);
    const REMOTE: SiteId = SiteId(1);

    fn record(topic: &str, input: u64, output: u64, site: SiteId) -> TaskRecord {
        let mut t = TaskTiming::default();
        t.created = Some(SimTime::ZERO);
        t.inputs_resolved = Some(SimTime::from_millis(100));
        t.compute_finished = Some(SimTime::from_millis(1100));
        t.thinker_notified = Some(SimTime::from_millis(1200));
        t.result_ready = Some(SimTime::from_millis(1300));
        TaskRecord {
            id: 0,
            topic: topic.into(),
            timing: t,
            report: WorkerReport::default(),
            input_bytes: input,
            output_bytes: output,
            thinker_data_wait: Duration::ZERO,
            data_was_local: true,
            site,
            worker: "w".into(),
            outcome: hetflow_fabric::TaskOutcome::Success,
        }
    }

    #[test]
    fn rule_breakpoints() {
        assert_eq!(Advisor::choose(2_000, true), PathChoice::Inline);
        assert_eq!(Advisor::choose(2_000, false), PathChoice::Inline);
        assert_eq!(Advisor::choose(1_000_000, true), PathChoice::DirectStore);
        assert_eq!(Advisor::choose(1_000_000, false), PathChoice::TransferService);
        assert_eq!(Advisor::choose(500_000_000, true), PathChoice::TransferService);
    }

    #[test]
    fn recommends_per_topic() {
        let records = vec![
            record("simulate", 20_000, 20_000, THINKER),
            record("simulate", 20_000, 20_000, THINKER),
            record("infer", 2_400_000_000, 300_000_000, REMOTE),
            record("tiny", 500, 100, THINKER),
        ];
        let recs = Advisor::recommend(&records, THINKER);
        assert_eq!(recs.len(), 3);
        let by_topic: BTreeMap<&str, &Recommendation> =
            recs.iter().map(|r| (r.topic.as_str(), r)).collect();
        let infer = by_topic["infer"];
        assert!(infer.crosses_sites);
        assert_eq!(infer.with_ports, PathChoice::TransferService, "2.4 GB > 100 MB");
        let sim = by_topic["simulate"];
        assert!(!sim.crosses_sites);
        assert_eq!(sim.with_ports, PathChoice::DirectStore);
        let tiny = by_topic["tiny"];
        assert_eq!(tiny.with_ports, PathChoice::Inline, "small payloads stay inline");
        assert_eq!(tiny.without_ports, PathChoice::Inline);
    }

    #[test]
    fn overhead_summarized() {
        let records = vec![record("a", 50_000, 50_000, THINKER)];
        let recs = Advisor::recommend(&records, THINKER);
        // lifetime 1.3 s − compute 1.0 s = 0.3 s overhead.
        assert!((recs[0].observed_overhead - 0.3).abs() < 1e-9);
    }

    #[test]
    fn empty_records_empty_recs() {
        assert!(Advisor::recommend(&[], THINKER).is_empty());
    }
}
