//! Open-loop bookkeeping for the stream workload.
//!
//! Points are due on a fixed schedule whatever the detector is doing. Each
//! point's latency runs from its *due* time, not from when the loop got
//! round to it, so a slow push or a periodic detect shows as latency on
//! every point that queued behind it — exactly what a live feed would see.
//! When the loop is ahead of schedule it spins until the next point is
//! due; how late the spin lets the point start is the generator's own lag,
//! reported so a reader can tell it apart from detector latency.
//!
//! All times are nanoseconds since the start of the round, so the
//! bookkeeping is a pure function of the recorded schedule and can be
//! checked against a hand-computed one.

/// One round of open-loop bookkeeping.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    period_ns: u64,
    /// Per point: completion minus due time.
    pub latency_ns: Vec<f64>,
    /// Per point: push duration (completion minus start).
    pub push_ns: Vec<f64>,
    /// Per point that started on schedule: start minus due time.
    pub lag_ns: Vec<f64>,
    busy_ns: u64,
    end_ns: u64,
    backlog_max: u64,
}

impl OpenLoop {
    /// Bookkeeping for a feed of `rate` points per second.
    pub fn new(rate: u64) -> Self {
        Self {
            period_ns: 1_000_000_000 / rate.max(1),
            latency_ns: Vec::new(),
            push_ns: Vec::new(),
            lag_ns: Vec::new(),
            busy_ns: 0,
            end_ns: 0,
            backlog_max: 0,
        }
    }

    /// When point `i` is due.
    pub fn due_ns(&self, i: u64) -> u64 {
        i * self.period_ns
    }

    /// Records point `i`, pushed from `start_ns` to `done_ns`. `waited`
    /// says the loop was idle and spun until the point was due, so
    /// `start_ns - due` is generator lag rather than queueing.
    pub fn point(&mut self, i: u64, start_ns: u64, done_ns: u64, waited: bool) {
        let due = self.due_ns(i);
        if waited {
            self.lag_ns.push(start_ns.saturating_sub(due) as f64);
        }
        // Points already due when this one started, not counting itself.
        let backlog = (start_ns / self.period_ns).saturating_sub(i);
        self.backlog_max = self.backlog_max.max(backlog);
        self.latency_ns.push(done_ns.saturating_sub(due) as f64);
        self.push_ns.push(done_ns.saturating_sub(start_ns) as f64);
        self.work(done_ns.saturating_sub(start_ns), done_ns);
    }

    /// Adds `ns` of busy time ending at `done_ns` — a push, or work
    /// between pushes such as the periodic detect.
    pub fn work(&mut self, ns: u64, done_ns: u64) {
        self.busy_ns += ns;
        self.end_ns = self.end_ns.max(done_ns);
    }

    /// Total busy time (pushes plus other work).
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    /// Busy time as a share of the round's span.
    pub fn busy_share(&self) -> f64 {
        self.busy_ns as f64 / self.end_ns.max(1) as f64
    }

    /// The most points ever waiting when a push started.
    pub fn backlog_max(&self) -> u64 {
        self.backlog_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-computed schedule at one point per 10 ns: points 0–1 start
    /// on time, a 32 ns detect after point 1 stalls points 2–5 (which
    /// queue up behind it and drain at 3 ns each), and point 6 is on time
    /// again.
    #[test]
    fn latency_backlog_and_busy_match_a_hand_computed_schedule() {
        let mut ol = OpenLoop::new(100_000_000);
        assert_eq!(ol.due_ns(3), 30);
        ol.point(0, 2, 5, true);
        ol.point(1, 10, 13, true);
        ol.work(32, 45);
        ol.point(2, 45, 48, false);
        ol.point(3, 48, 51, false);
        ol.point(4, 51, 54, false);
        ol.point(5, 54, 57, false);
        ol.point(6, 61, 64, true);
        // Latency from due time: 5-0, 13-10, 48-20, 51-30, 54-40, 57-50, 64-60.
        assert_eq!(ol.latency_ns, vec![5.0, 3.0, 28.0, 21.0, 14.0, 7.0, 4.0]);
        assert_eq!(ol.push_ns, vec![3.0; 7]);
        // Only the on-schedule starts count as generator lag.
        assert_eq!(ol.lag_ns, vec![2.0, 0.0, 1.0]);
        // Point 2 starts at 45 with points 3 and 4 (due 30, 40) waiting.
        assert_eq!(ol.backlog_max(), 2);
        assert_eq!(ol.busy_ns(), 7 * 3 + 32);
        assert!((ol.busy_share() - 53.0 / 64.0).abs() < 1e-12);
    }
}
