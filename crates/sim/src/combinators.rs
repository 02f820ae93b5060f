//! Future combinators for simulated actors.
//!
//! Small, allocation-light helpers: racing a future against a deadline
//! ([`Sim::timeout`]) and racing two futures (`select2`). Both operate
//! purely in virtual time.

use crate::executor::Sim;
use std::future::Future;
use std::pin::Pin;
use std::task::Poll;
use std::time::Duration;

/// Outcome of [`select2`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Either<A, B> {
    /// The first future finished first.
    Left(A),
    /// The second future finished first.
    Right(B),
}

/// Races two futures; the loser is dropped.
///
/// Polling order is deterministic: `a` is polled before `b` at every
/// step, so simultaneous readiness resolves to `Left`.
pub(crate) async fn select2<A, B>(a: A, b: B) -> Either<A::Output, B::Output>
where
    A: Future + Unpin,
    B: Future + Unpin,
{
    let mut a = a;
    let mut b = b;
    std::future::poll_fn(move |cx| {
        if let Poll::Ready(v) = Pin::new(&mut a).poll(cx) {
            return Poll::Ready(Either::Left(v));
        }
        if let Poll::Ready(v) = Pin::new(&mut b).poll(cx) {
            return Poll::Ready(Either::Right(v));
        }
        Poll::Pending
    })
    .await
}

/// Error returned by [`Sim::timeout`] when the deadline fires first.
#[derive(Debug, PartialEq, Eq)]
pub struct Elapsed;

impl Sim {
    /// Limits `fut` to `d` of virtual time. `fut` is pinned inside the
    /// returned future, so any future will do and no caller boxes one.
    pub async fn timeout<F: Future>(&self, d: Duration, fut: F) -> Result<F::Output, Elapsed> {
        match select2(std::pin::pin!(fut), self.sleep(d)).await {
            Either::Left(v) => Ok(v),
            Either::Right(()) => Err(Elapsed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::secs;
    use crate::SimTime;

    #[test]
    fn select2_prefers_earlier() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            let fast = s.sleep(secs(1.0));
            let slow = s.sleep(secs(2.0));
            match select2(slow, fast).await {
                Either::Left(()) => "slow",
                Either::Right(()) => "fast",
            }
        });
        assert_eq!(sim.block_on(h), "fast");
        assert_eq!(sim.now(), SimTime::from_secs(1), "loser must not hold the clock");
    }

    #[test]
    fn select2_simultaneous_is_left_biased() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            let a = s.sleep(secs(1.0));
            let b = s.sleep(secs(1.0));
            select2(a, b).await
        });
        assert_eq!(sim.block_on(h), Either::Left(()));
    }

    /// Races `work` seconds of sleep against `limit`, once as a bare
    /// `Sleep` and once inside an `async` block — `!Unpin`, passed by
    /// value. Returns each run's outcome and end time.
    fn race(work: f64, limit: f64) -> [(Result<(), Elapsed>, SimTime); 2] {
        [false, true].map(|in_block| {
            let sim = Sim::new();
            let s = sim.clone();
            let h = sim.spawn(async move {
                if in_block {
                    let s2 = s.clone();
                    s.timeout(secs(limit), async move { s2.sleep(secs(work)).await }).await
                } else {
                    s.timeout(secs(limit), s.sleep(secs(work))).await
                }
            });
            let out = sim.block_on(h);
            (out, sim.run().end)
        })
    }

    #[test]
    fn timeout_passes_fast_futures() {
        for (out, end) in race(1.0, 5.0) {
            assert_eq!(out, Ok(()));
            assert_eq!(end, SimTime::from_secs(1));
        }
    }

    #[test]
    fn timeout_cuts_slow_futures() {
        for (out, end) in race(100.0, 5.0) {
            assert_eq!(out, Err(Elapsed));
            // The abandoned sleep must not drag the clock to t=100.
            assert_eq!(end, SimTime::from_secs(5));
        }
    }
}
