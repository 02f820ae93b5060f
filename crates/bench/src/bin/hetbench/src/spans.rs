//! Host-time spans recorded from hetbench's own files, around the
//! calls into each layer.
//!
//! Two kinds. [`Spans`] holds plain nested spans (`rep > setup.deploy |
//! setup.warmup | run | report`), one entry each. [`PollTimer`] sums
//! the host time of every poll of a future — a call into
//! `ClientQueues::submit` is polled several times between virtual-time
//! sleeps, and a workload makes 150 k such calls, so these are kept as
//! one accumulator per layer and written out as one aggregate span.
//! Everything stays in memory until the run ends.

use crate::json::Json;
use std::cell::Cell;
use std::future::{poll_fn, Future};
use std::pin::pin;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's
/// origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Span name, `layer.what` or a harness phase.
    pub name: String,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
    /// Index of the enclosing span — the span that caused this one.
    pub parent: Option<usize>,
    /// The rep this span belongs to; spans of one rep share it.
    pub rep: u32,
    /// Polls summed into this span when it is a [`PollTimer`]
    /// aggregate; `0` for a plain span.
    pub polls: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder.
pub struct Spans {
    origin: Instant,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder whose spans carry `rep`.
    pub fn new(rep: u32) -> Self {
        Spans {
            origin: Instant::now(),
            rep,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since this recorder was created.
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &str) -> usize {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            rep: self.rep,
            polls: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and anything still open inside it); returns
    /// its duration in ns.
    pub fn end(&mut self, id: usize) -> u64 {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
        self.spans.get(id).map_or(0, Span::ns)
    }

    /// Records `host_ns` summed over `polls` polls by a [`PollTimer`]
    /// as one aggregate child of span `parent`, laid at the parent's
    /// start.
    pub fn aggregate(&mut self, parent: usize, name: &str, host_ns: u64, polls: u64) {
        let start_ns = self.spans.get(parent).map_or(0, |p| p.start_ns);
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns + host_ns,
            parent: Some(parent),
            rep: self.rep,
            polls,
        });
    }

    /// Appends another recorder's spans (a child rep's) under span
    /// `parent`, shifted onto this recorder's clock.
    pub fn adopt(&mut self, parent: usize, rep: u32, child: &[Span]) {
        let base = self.spans.len();
        let shift = self.spans.get(parent).map_or(0, |p| p.start_ns);
        for s in child {
            self.spans.push(Span {
                name: s.name.clone(),
                start_ns: s.start_ns + shift,
                end_ns: s.end_ns + shift,
                parent: Some(s.parent.map_or(parent, |p| p + base)),
                rep,
                polls: s.polls,
            });
        }
    }

    /// The spans recorded so far.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }
}

/// Span `id`'s self time: its duration minus what its direct children
/// cover.
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::ns)
        .sum();
    spans.get(id).map_or(0, |s| s.ns().saturating_sub(children))
}

/// Renders spans as a JSON array; `self_ns` is derived on the way out.
pub fn spans_to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("name", Json::Str(s.name.clone())),
                    ("start_ns", Json::count(s.start_ns)),
                    ("end_ns", Json::count(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::count(p as u64)),
                    ),
                    ("rep", Json::count(u64::from(s.rep))),
                    ("polls", Json::count(s.polls)),
                    ("self_ns", Json::count(self_ns(spans, id))),
                ])
            })
            .collect(),
    )
}

/// Parses what [`spans_to_json`] rendered.
pub fn spans_from_json(doc: &Json) -> Result<Vec<Span>, String> {
    let items = doc.as_arr().ok_or("spans: not an array")?;
    items
        .iter()
        .map(|item| {
            let num = |key: &str| {
                item.get(key)
                    .and_then(Json::as_u64)
                    .ok_or(format!("span: bad field {key}"))
            };
            Ok(Span {
                name: item
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("span: no name")?
                    .to_owned(),
                start_ns: num("start_ns")?,
                end_ns: num("end_ns")?,
                parent: item
                    .get("parent")
                    .and_then(Json::as_u64)
                    .map(|p| p as usize),
                rep: num("rep")? as u32,
                polls: num("polls")?,
            })
        })
        .collect()
}

/// Sums host time and polls spent inside the futures (or closures) it
/// wraps: the span of one layer boundary, aggregated over a rep.
#[derive(Default)]
pub struct PollTimer {
    host_ns: Cell<u64>,
    polls: Cell<u64>,
}

impl PollTimer {
    /// Drives `fut` to completion, adding the host time of each of its
    /// polls. Time between polls — while the future is parked on a
    /// virtual-time timer or channel — belongs to whoever runs then,
    /// and is not counted.
    pub async fn time<F: Future>(&self, fut: F) -> F::Output {
        let mut fut = pin!(fut);
        poll_fn(|cx| {
            let start = Instant::now();
            let out = fut.as_mut().poll(cx);
            self.add(start);
            out
        })
        .await
    }

    /// Times one synchronous call (a compute closure).
    pub fn time_call<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(start);
        out
    }

    fn add(&self, start: Instant) {
        self.host_ns
            .set(self.host_ns.get() + start.elapsed().as_nanos() as u64);
        self.polls.set(self.polls.get() + 1);
    }

    /// Host ns summed so far.
    pub fn host_ns(&self) -> u64 {
        self.host_ns.get()
    }

    /// Polls (or calls, for closures) summed so far.
    pub fn polls(&self) -> u64 {
        self.polls.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::pin::Pin;
    use std::task::{Context, Poll};

    /// Pending `left` times (burning a little host time per poll and
    /// re-waking itself), then ready.
    struct Countdown {
        left: u32,
    }

    impl Future for Countdown {
        type Output = u32;
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u32> {
            std::hint::black_box((0..2_000u64).sum::<u64>());
            if self.left == 0 {
                return Poll::Ready(7);
            }
            self.left -= 1;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }

    #[test]
    fn poll_timer_counts_every_poll_of_every_call() {
        let sim = hetflow_sim::Sim::new();
        let timer = std::rc::Rc::new(PollTimer::default());
        let t = std::rc::Rc::clone(&timer);
        let h = sim.spawn(async move {
            let a = t.time(Countdown { left: 2 }).await;
            let b = t.time(Countdown { left: 0 }).await;
            a + b
        });
        assert_eq!(sim.block_on(h), 14);
        assert_eq!(
            timer.polls(),
            3 + 1,
            "three polls for the first call, one for the second"
        );
        assert!(timer.host_ns() > 0);
        let before = timer.host_ns();
        assert_eq!(timer.time_call(|| 5), 5);
        assert_eq!(timer.polls(), 5);
        assert!(timer.host_ns() >= before);
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut spans = Spans::new(3);
        let rep = spans.begin("rep");
        let setup = spans.begin("setup.deploy");
        std::hint::black_box((0..50_000u64).sum::<u64>());
        spans.end(setup);
        let run = spans.begin("run");
        let timer = PollTimer::default();
        timer.time_call(|| std::hint::black_box((0..50_000u64).sum::<u64>()));
        spans.aggregate(run, "steer.submit", timer.host_ns(), timer.polls());
        spans.end(run);
        spans.end(rep);

        let all = spans.all();
        assert_eq!(all.len(), 4);
        assert_eq!(all[setup].parent, Some(rep));
        assert_eq!(all[3].parent, Some(run));
        assert_eq!(all[3].polls, 1);
        assert!(all.iter().all(|s| s.rep == 3));
        assert_eq!(self_ns(all, run), all[run].ns() - timer.host_ns());
        assert_eq!(
            self_ns(all, rep),
            all[rep].ns() - all[setup].ns() - all[run].ns()
        );
        let doc = spans_to_json(all);
        let run_self = doc
            .as_arr()
            .and_then(|a| a[run].get("self_ns"))
            .and_then(Json::as_u64);
        assert_eq!(run_self, Some(self_ns(all, run)));
    }

    #[test]
    fn spans_round_trip_and_adopt_rebases_parents() {
        let mut child = Spans::new(0);
        let rep = child.begin("rep");
        let run = child.begin("run");
        child.end(run);
        child.end(rep);
        let parsed = spans_from_json(&Json::parse(&spans_to_json(child.all()).render()).unwrap());
        assert_eq!(parsed.as_deref(), Ok(child.all()));

        let mut parent = Spans::new(0);
        let first = parent.begin("child");
        parent.end(first);
        let slot = parent.begin("child");
        parent.end(slot);
        parent.adopt(slot, 9, child.all());
        let all = parent.all();
        assert_eq!(all.len(), 4);
        assert_eq!(
            all[2].parent,
            Some(slot),
            "the child's root hangs under the adopting span"
        );
        assert_eq!(
            all[3].parent,
            Some(2),
            "inner parents shift by the adopter's length"
        );
        assert!(all[2].start_ns >= all[slot].start_ns);
        assert_eq!((all[2].rep, all[3].rep), (9, 9));
    }
}
