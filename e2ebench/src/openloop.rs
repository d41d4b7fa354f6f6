//! The open-loop tick schedule of the `live` workload.
//!
//! Tick `k` is due at `start + k · interval` whatever happened before it.
//! Each tick is timed from its due time, so a stall also charges the wait it
//! imposes on the ticks queued behind it; how late the generator sent each
//! tick is recorded separately.

use std::time::Instant;

/// A monotonic nanosecond clock the schedule can wait on.
pub trait Clock {
    /// Nanoseconds since the clock's origin.
    fn now_ns(&mut self) -> u64;
    /// Return no earlier than `t_ns`.
    fn wait_until(&mut self, t_ns: u64);
}

/// The wall clock. Waiting spins: on a shared VM a sleeping generator wakes
/// late, and that lateness would be charged to the program under test.
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A clock whose origin is now.
    #[must_use]
    pub fn new() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Clock for WallClock {
    fn now_ns(&mut self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn wait_until(&mut self, t_ns: u64) {
        while self.now_ns() < t_ns {
            std::hint::spin_loop();
        }
    }
}

/// One tick as it happened, in clock nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tick {
    /// When the schedule said to send it.
    pub due_ns: u64,
    /// When it was handed to `serve`.
    pub sent_ns: u64,
    /// When `serve` returned its outcomes.
    pub done_ns: u64,
    /// Events it carried.
    pub events: usize,
}

impl Tick {
    /// Due time → outcomes returned: the latency of every event in the tick.
    #[must_use]
    pub fn latency_ns(&self) -> u64 {
        self.done_ns - self.due_ns
    }

    /// How late the generator handed the tick over.
    #[must_use]
    pub fn lag_ns(&self) -> u64 {
        self.sent_ns - self.due_ns
    }

    /// Time inside the `serve` call.
    #[must_use]
    pub fn call_ns(&self) -> u64 {
        self.done_ns - self.sent_ns
    }
}

/// Run up to `ticks` ticks `interval_ns` apart. `prepare(k)` builds tick
/// `k`'s input before its due time (outside the timing); `send(k, input)`
/// serves it and returns how many events it carried, or `None` to stop.
pub fn run<C: Clock, T>(
    clock: &mut C,
    interval_ns: u64,
    ticks: usize,
    mut prepare: impl FnMut(usize) -> T,
    mut send: impl FnMut(usize, T) -> Option<usize>,
) -> Vec<Tick> {
    let start = clock.now_ns();
    let mut out = Vec::with_capacity(ticks);
    for k in 0..ticks {
        let input = prepare(k);
        let due_ns = start + k as u64 * interval_ns;
        clock.wait_until(due_ns);
        let sent_ns = clock.now_ns();
        let Some(events) = send(k, input) else { break };
        let done_ns = clock.now_ns();
        out.push(Tick {
            due_ns,
            sent_ns,
            done_ns,
            events,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// A clock that moves only when waited on or when a test charges time.
    struct Fake {
        now: Rc<Cell<u64>>,
    }

    impl Clock for Fake {
        fn now_ns(&mut self) -> u64 {
            self.now.get()
        }
        fn wait_until(&mut self, t_ns: u64) {
            self.now.set(self.now.get().max(t_ns));
        }
    }

    #[test]
    fn ticks_are_timed_from_their_due_time_and_lag_is_counted() {
        // Ticks every 1000 ns from t = 100; the second call stalls 2500 ns,
        // which makes the next two ticks late.
        let costs = [500u64, 2500, 500, 500];
        let now = Rc::new(Cell::new(100));
        let mut clock = Fake {
            now: Rc::clone(&now),
        };
        let mut prepared = Vec::new();
        let ticks = run(
            &mut clock,
            1000,
            costs.len(),
            |k| {
                prepared.push(now.get());
                k
            },
            |k, input| {
                assert_eq!(k, input);
                now.set(now.get() + costs[k]);
                Some(10 + k)
            },
        );
        assert_eq!(
            ticks.iter().map(|t| t.due_ns).collect::<Vec<_>>(),
            [100, 1100, 2100, 3100]
        );
        assert_eq!(
            ticks.iter().map(Tick::lag_ns).collect::<Vec<_>>(),
            [0, 0, 1500, 1000]
        );
        assert_eq!(
            ticks.iter().map(Tick::latency_ns).collect::<Vec<_>>(),
            [500, 2500, 2000, 1500]
        );
        assert_eq!(ticks.iter().map(Tick::call_ns).collect::<Vec<_>>(), costs);
        assert_eq!(
            ticks.iter().map(|t| t.events).collect::<Vec<_>>(),
            [10, 11, 12, 13]
        );
        // Inputs are prepared before the due time, never inside the timing.
        assert_eq!(prepared, [100, 600, 3600, 4100]);

        // `None` stops the schedule at that tick.
        let stopped = run(&mut clock, 1000, 4, |k| k, |k, _| (k < 2).then_some(1));
        assert_eq!(stopped.len(), 2);
    }
}
