//! Finished-task records and latency decomposition.
//!
//! Every resolved task leaves a [`TaskRecord`], which the thinker keeps
//! in a compact `RecordLog`; [`Breakdown`] aggregates the
//! per-component statistics the paper's figures report (Fig. 3/4:
//! component medians/means; Fig. 5: notification + data wait; Fig. 7b:
//! per-topic overheads).

use hetflow_fabric::{TaskError, TaskOutcome, TaskTiming, WorkerReport};
use hetflow_store::SiteId;
use hetflow_sim::{Samples, SimTime, Symbol, SymbolMap};
use std::collections::BTreeSet;
use std::time::Duration;

/// The complete life-cycle record of one finished task.
#[derive(Clone, Debug, PartialEq)]
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

/// Every finished-task record of a run, as a byte log.
///
/// A thinker keeps one record per task for the whole run, so the record
/// list is what grows with task count. A `TaskRecord` is 392 bytes; the
/// log spends ~80 per record and decodes to exactly the records pushed,
/// for every value their types allow. Each record is a run of LEB128
/// varints, in this order:
///
/// * `id`, as a zigzag delta from the previous record's id;
/// * `topic` and `worker`, as indexes into the log's symbol table;
/// * `site`;
/// * a flag byte: bit 0 is `data_was_local`, bits 1–3 the outcome
///   (`SUCCESS` … `SIDE_ERROR`). `Timeout { after }` is followed by the
///   duration and `ExhaustedRetries { attempts }` by the count; the two
///   `String`-carrying errors go to a side list, in record order;
/// * an 11-bit mask of the `TaskTiming` stamps present, then each
///   present stamp as a zigzag delta from the previous one written —
///   zigzag because hedges and reroutes do not keep stamps monotone;
/// * the five `Duration`s, each as `(secs, subsec_nanos)`;
/// * the five `u32` counters, `input_bytes` and `output_bytes`.
pub(crate) struct RecordLog {
    bytes: Vec<u8>,
    /// `topic` and `worker` symbols in first-seen order, and each one's
    /// place in it.
    symbols: Vec<Symbol>,
    index: SymbolMap<u32>,
    /// The `ResolveFailed` and `PutFailed` errors, in record order.
    errors: Vec<TaskError>,
    len: usize,
    /// The last id and the last stamp written: the bases of the next
    /// deltas.
    last_id: u64,
    last_stamp: u64,
}

impl RecordLog {
    /// Flag-byte values: `LOCAL` is or-ed onto one outcome tag.
    const LOCAL: u8 = 1;
    const SUCCESS: u8 = 0;
    const SHED: u8 = 2;
    const TIMEOUT: u8 = 4;
    const EXHAUSTED: u8 = 6;
    const SIDE_ERROR: u8 = 8;

    /// An empty log. The 4 KiB it reserves holds ~50 records, so a
    /// campaign's few hundred grow it only two or three times.
    pub(crate) fn new() -> Self {
        RecordLog {
            bytes: Vec::with_capacity(4096),
            symbols: Vec::new(),
            index: SymbolMap::new(),
            errors: Vec::new(),
            len: 0,
            last_id: 0,
            last_stamp: 0,
        }
    }

    /// Appends `r`.
    pub(crate) fn push(&mut self, r: &TaskRecord) {
        self.put_varint(zigzag(r.id.wrapping_sub(self.last_id)));
        self.last_id = r.id;
        let topic = self.symbol_index(r.topic);
        self.put_varint(topic);
        let worker = self.symbol_index(r.worker);
        self.put_varint(worker);
        self.put_varint(u64::from(r.site.0));

        let local = if r.data_was_local { Self::LOCAL } else { 0 };
        match &r.outcome {
            TaskOutcome::Success => self.bytes.push(Self::SUCCESS | local),
            TaskOutcome::Shed => self.bytes.push(Self::SHED | local),
            TaskOutcome::Failed(TaskError::Timeout { after }) => {
                self.bytes.push(Self::TIMEOUT | local);
                self.put_duration(*after);
            }
            TaskOutcome::Failed(TaskError::ExhaustedRetries { attempts }) => {
                self.bytes.push(Self::EXHAUSTED | local);
                self.put_varint(u64::from(*attempts));
            }
            TaskOutcome::Failed(e) => {
                self.bytes.push(Self::SIDE_ERROR | local);
                self.errors.push(e.clone());
            }
        }

        let stamps = stamps(&r.timing);
        let mask = stamps.iter().enumerate().fold(0, |m, (i, s)| m | (u64::from(s.is_some()) << i));
        self.put_varint(mask);
        for t in stamps.into_iter().flatten() {
            self.put_varint(zigzag(t.as_nanos().wrapping_sub(self.last_stamp)));
            self.last_stamp = t.as_nanos();
        }

        let w = &r.report;
        for d in [w.resolve_wait, w.compute_time, w.ser_time, w.wasted_time, r.thinker_data_wait] {
            self.put_duration(d);
        }
        for n in [w.local_inputs, w.remote_inputs, w.attempts, w.hedges, w.reroutes] {
            self.put_varint(u64::from(n));
        }
        self.put_varint(r.input_bytes);
        self.put_varint(r.output_bytes);
        self.len += 1;
    }

    /// Every record pushed, in push order.
    pub(crate) fn to_vec(&self) -> Vec<TaskRecord> {
        let mut r = Reader { bytes: &self.bytes, at: 0 };
        let (mut id, mut stamp, mut side) = (0u64, 0u64, 0);
        let mut out = Vec::with_capacity(self.len);
        for _ in 0..self.len {
            id = id.wrapping_add(unzigzag(r.read_varint()));
            let topic = self.symbols[r.read_varint() as usize];
            let worker = self.symbols[r.read_varint() as usize];
            let site = SiteId(r.read_varint() as u16);

            let flags = r.read_byte();
            let outcome = match flags & !Self::LOCAL {
                Self::SUCCESS => TaskOutcome::Success,
                Self::SHED => TaskOutcome::Shed,
                Self::TIMEOUT => {
                    TaskOutcome::Failed(TaskError::Timeout { after: r.read_duration() })
                }
                Self::EXHAUSTED => TaskOutcome::Failed(TaskError::ExhaustedRetries {
                    attempts: r.read_varint() as u32,
                }),
                _ => {
                    let e = self.errors[side].clone();
                    side += 1;
                    TaskOutcome::Failed(e)
                }
            };

            let mask = r.read_varint();
            let mut stamps = [None; STAMPS];
            for (i, s) in stamps.iter_mut().enumerate() {
                if (mask >> i) & 1 == 1 {
                    stamp = stamp.wrapping_add(unzigzag(r.read_varint()));
                    *s = Some(SimTime::from_nanos(stamp));
                }
            }

            let [resolve_wait, compute_time, ser_time, wasted_time, thinker_data_wait] =
                [(); 5].map(|()| r.read_duration());
            let [local_inputs, remote_inputs, attempts, hedges, reroutes] =
                [(); 5].map(|()| r.read_varint() as u32);
            let input_bytes = r.read_varint();
            let output_bytes = r.read_varint();
            out.push(TaskRecord {
                id,
                topic,
                timing: timing(stamps),
                report: WorkerReport {
                    resolve_wait,
                    compute_time,
                    ser_time,
                    local_inputs,
                    remote_inputs,
                    attempts,
                    wasted_time,
                    hedges,
                    reroutes,
                },
                input_bytes,
                output_bytes,
                thinker_data_wait,
                data_was_local: flags & Self::LOCAL != 0,
                site,
                worker,
                outcome,
            });
        }
        out
    }

    /// `s`'s place in the symbol table, adding it on first sight.
    fn symbol_index(&mut self, s: Symbol) -> u64 {
        let next = self.symbols.len() as u32;
        let at = *self.index.get_or_insert_with(s, || next);
        if at == next {
            self.symbols.push(s);
        }
        u64::from(at)
    }

    fn put_duration(&mut self, d: Duration) {
        self.put_varint(d.as_secs());
        self.put_varint(u64::from(d.subsec_nanos()));
    }

    fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.bytes.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.bytes.push(v as u8);
    }
}

/// A decoding cursor over a [`RecordLog`]'s bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn read_byte(&mut self) -> u8 {
        self.at += 1;
        self.bytes[self.at - 1]
    }

    fn read_varint(&mut self) -> u64 {
        let (mut v, mut shift) = (0u64, 0);
        loop {
            let b = self.read_byte();
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    fn read_duration(&mut self) -> Duration {
        let secs = self.read_varint();
        Duration::new(secs, self.read_varint() as u32)
    }
}

/// A wrapping difference, read as signed, mapped so that small
/// magnitudes of either sign encode short.
fn zigzag(delta: u64) -> u64 {
    let d = delta as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

/// The inverse of [`zigzag`].
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// The number of `TaskTiming` stamps.
const STAMPS: usize = 11;

/// `t`'s stamps in life-cycle order.
fn stamps(t: &TaskTiming) -> [Option<SimTime>; STAMPS] {
    [
        t.created,
        t.submitted,
        t.server_received,
        t.dispatched,
        t.worker_started,
        t.inputs_resolved,
        t.compute_finished,
        t.result_dispatched,
        t.server_result_received,
        t.thinker_notified,
        t.result_ready,
    ]
}

/// The inverse of [`stamps`].
fn timing(s: [Option<SimTime>; STAMPS]) -> TaskTiming {
    let [
        created,
        submitted,
        server_received,
        dispatched,
        worker_started,
        inputs_resolved,
        compute_finished,
        result_dispatched,
        server_result_received,
        thinker_notified,
        result_ready,
    ] = s;
    TaskTiming {
        created,
        submitted,
        server_received,
        dispatched,
        worker_started,
        inputs_resolved,
        compute_finished,
        result_dispatched,
        server_result_received,
        thinker_notified,
        result_ready,
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
#[allow(clippy::field_reassign_with_default, reason = "timing fixtures read as sequential stamps")]
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

    /// Field values for [`arbitrary_record`], biased towards the
    /// extremes: zero and maximal values, backwards ids and stamps.
    struct Draws(u64);

    impl Draws {
        fn raw(&mut self) -> u64 {
            self.0 = hetflow_sim::rng::splitmix64(self.0);
            self.0
        }

        fn int(&mut self) -> u64 {
            let d = self.raw();
            match d % 5 {
                0 => 0,
                1 => u64::MAX,
                2 => d >> 40,
                3 => d % 1_000,
                _ => d,
            }
        }

        fn small(&mut self) -> u32 {
            self.int() as u32
        }

        fn dur(&mut self) -> Duration {
            match self.raw() % 3 {
                0 => Duration::ZERO,
                1 => Duration::MAX,
                _ => Duration::new(self.int(), self.small() % 1_000_000_000),
            }
        }

        /// One of 300 names: more than a one-byte varint can index.
        fn symbol(&mut self) -> Symbol {
            Symbol::intern(&format!("record-log/{}", self.raw() % 300))
        }
    }

    /// A record whose every field is drawn: any mix of stamps present,
    /// all four errors and `Shed`.
    fn arbitrary_record(d: &mut Draws) -> TaskRecord {
        let mask = d.raw();
        let mut stamps = [None; STAMPS];
        for (i, s) in stamps.iter_mut().enumerate() {
            if (mask >> i) & 1 == 1 {
                *s = Some(SimTime::from_nanos(d.int()));
            }
        }
        let outcome = match d.raw() % 6 {
            0 => TaskOutcome::Success,
            1 => TaskOutcome::Shed,
            2 => TaskOutcome::Failed(TaskError::Timeout { after: d.dur() }),
            3 => TaskOutcome::Failed(TaskError::ExhaustedRetries { attempts: d.small() }),
            4 => TaskOutcome::Failed(TaskError::ResolveFailed(format!("gone {}", d.raw()))),
            _ => TaskOutcome::Failed(TaskError::PutFailed(String::new())),
        };
        TaskRecord {
            id: d.int(),
            topic: d.symbol(),
            timing: timing(stamps),
            report: WorkerReport {
                resolve_wait: d.dur(),
                compute_time: d.dur(),
                ser_time: d.dur(),
                local_inputs: d.small(),
                remote_inputs: d.small(),
                attempts: d.small(),
                wasted_time: d.dur(),
                hedges: d.small(),
                reroutes: d.small(),
            },
            input_bytes: d.int(),
            output_bytes: d.int(),
            thinker_data_wait: d.dur(),
            data_was_local: d.raw() & 1 == 1,
            site: SiteId(d.raw() as u16),
            worker: d.symbol(),
            outcome,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn record_log_round_trips(seed in proptest::prelude::any::<u64>(), n in 1usize..300) {
            let mut d = Draws(seed);
            let records: Vec<TaskRecord> = (0..n).map(|_| arbitrary_record(&mut d)).collect();
            let mut log = RecordLog::new();
            for r in &records {
                log.push(r);
            }
            proptest::prop_assert_eq!(log.to_vec(), records);
        }
    }

    #[test]
    fn record_log_round_trips_extremes_and_stays_small() {
        let mut max = record("a", 0);
        max.id = u64::MAX;
        max.timing = timing([Some(SimTime::from_nanos(u64::MAX)); STAMPS]);
        max.report.compute_time = Duration::MAX;
        max.report.attempts = u32::MAX;
        max.input_bytes = u64::MAX;
        max.site = SiteId(u16::MAX);
        let mut empty = record("b", 1);
        empty.timing = TaskTiming::default();
        let records: Vec<TaskRecord> =
            (0..100).map(|i| record("a", i)).chain([max, empty]).collect();
        let mut log = RecordLog::new();
        for r in &records {
            log.push(r);
        }
        assert_eq!(log.to_vec(), records);
        assert_eq!(RecordLog::new().to_vec(), Vec::new());
        // A typical record, eleven stamps milliseconds apart, costs ~81
        // bytes of the 392 it takes as a struct.
        let mut typical = RecordLog::new();
        for r in &records[..100] {
            typical.push(r);
        }
        assert!(typical.bytes.len() <= 100 * 96, "{} B", typical.bytes.len());
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
