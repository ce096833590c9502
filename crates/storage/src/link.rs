//! Processor-sharing network link.
//!
//! The paper's testbed is Gigabit Ethernet; shuffle pulls and remote
//! replica writes contend on the receiving node's NIC. TCP flows sharing a
//! link approximate *processor sharing*: each of the `n` active transfers
//! progresses at `capacity / n`. [`PsLink`] implements that fluid model
//! exactly: remaining bytes are tracked per transfer and re-scaled whenever
//! the active set changes.
//!
//! Simplification (documented in DESIGN.md): the receiving side is modelled
//! as the bottleneck (shuffle is an in-cast pattern), so each node owns one
//! `PsLink` for its ingress. The paper notes storage generally saturates
//! before the network (§3), and IBIS applies no network-layer control — the
//! same is true here.
//!
//! Because predicted completion times change whenever a transfer joins or
//! leaves, the link hands the engine *epoch-stamped timers*: a timer from
//! an old epoch must be ignored.

use ibis_simcore::{SimDuration, SimTime};

/// A timer the engine must arm: call [`PsLink::on_timer`] at `at` with
/// `epoch`. Timers from superseded epochs are ignored by the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkTimer {
    /// When to fire.
    pub at: SimTime,
    /// Epoch stamp; must match the link's current epoch to be acted on.
    pub epoch: u64,
}

#[derive(Debug, Clone)]
struct Transfer {
    id: u64,
    remaining: f64,
    weight: f64,
}

/// Fluid processor-sharing link of fixed capacity.
#[derive(Debug, Clone)]
pub struct PsLink {
    capacity: f64,
    active: Vec<Transfer>,
    last_update: SimTime,
    epoch: u64,
}

/// Transfers are considered complete when less than half a byte remains
/// (the fluid model plus nanosecond rounding can leave dust).
const DONE_EPS: f64 = 0.5;

impl PsLink {
    /// Creates a link with `capacity` bytes/sec.
    pub fn new(capacity: f64) -> Self {
        assert!(capacity > 0.0, "link capacity must be positive");
        PsLink {
            capacity,
            active: Vec::new(),
            last_update: SimTime::ZERO,
            epoch: 0,
        }
    }

    /// Number of in-flight transfers.
    pub fn active(&self) -> usize {
        self.active.len()
    }

    /// The link's rated capacity, bytes/sec.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    fn weight_sum(&self) -> f64 {
        self.active.iter().map(|t| t.weight).sum()
    }

    fn advance(&mut self, now: SimTime) {
        let elapsed = now.saturating_since(self.last_update).as_secs_f64();
        self.last_update = now;
        if elapsed <= 0.0 || self.active.is_empty() {
            return;
        }
        // Weighted processor sharing: flow i progresses at
        // capacity · w_i / Σw. With all weights equal this is exactly the
        // egalitarian PS of TCP flows; distinct weights model the §3
        // future-work network bandwidth control (an OpenFlow stand-in).
        let budget = self.capacity * elapsed / self.weight_sum();
        for t in &mut self.active {
            t.remaining -= budget * t.weight;
        }
    }

    fn next_timer(&mut self, now: SimTime) -> Option<LinkTimer> {
        let wsum = self.weight_sum();
        let min_secs = self
            .active
            .iter()
            .map(|t| t.remaining.max(0.0) * wsum / (self.capacity * t.weight))
            .fold(f64::INFINITY, f64::min);
        if !min_secs.is_finite() {
            return None;
        }
        let dt = SimDuration::from_secs_f64(min_secs).max(SimDuration::from_nanos(1));
        self.epoch += 1;
        Some(LinkTimer {
            at: now + dt,
            epoch: self.epoch,
        })
    }

    /// Begins a transfer of `bytes` identified by `id`. It progresses at
    /// `capacity · weight / Σweight` over the active transfers: equal
    /// weights are TCP's egalitarian sharing, distinct ones the
    /// network-layer bandwidth control the paper defers to future work
    /// (§3). Returns the timer to arm (always `Some`: the new transfer is
    /// active). Any previously armed timer is superseded.
    pub fn start(&mut self, id: u64, bytes: u64, weight: f64, now: SimTime) -> LinkTimer {
        assert!(weight > 0.0, "transfer weight must be positive");
        self.advance(now);
        self.active.push(Transfer {
            id,
            remaining: (bytes as f64).max(1.0),
            weight,
        });
        self.next_timer(now).expect("just added a transfer")
    }

    /// Timer callback. Appends the ids of transfers that completed to
    /// `finished` (not cleared first, so a hot loop can reuse one buffer
    /// across timers) and returns the next timer to arm, if any transfers
    /// remain. A stale `epoch` appends nothing and returns `None` — the
    /// engine simply drops it.
    pub fn on_timer(
        &mut self,
        now: SimTime,
        epoch: u64,
        finished: &mut Vec<u64>,
    ) -> Option<LinkTimer> {
        if epoch != self.epoch {
            return None;
        }
        self.advance(now);
        self.active.retain(|t| {
            if t.remaining <= DONE_EPS {
                finished.push(t.id);
                false
            } else {
                true
            }
        });
        if self.active.is_empty() {
            self.epoch += 1; // invalidate anything outstanding
            None
        } else {
            self.next_timer(now)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1_000_000;

    /// Engine stub: runs the link until idle, returning (id, time) pairs.
    fn drain(link: &mut PsLink, mut timer: Option<LinkTimer>) -> Vec<(u64, SimTime)> {
        let mut done = Vec::new();
        let mut finished = Vec::new();
        while let Some(t) = timer {
            finished.clear();
            timer = link.on_timer(t.at, t.epoch, &mut finished);
            done.extend(finished.iter().map(|&id| (id, t.at)));
        }
        done
    }

    #[test]
    fn single_transfer_takes_bytes_over_capacity() {
        let mut link = PsLink::new(125e6); // GigE
        let timer = link.start(1, 125 * MB, 1.0, SimTime::ZERO);
        let done = drain(&mut link, Some(timer));
        assert_eq!(done.len(), 1);
        let t = done[0].1.as_secs_f64();
        assert!((t - 1.0).abs() < 1e-6, "elapsed {t}");
    }

    #[test]
    fn two_equal_transfers_share_capacity() {
        let mut link = PsLink::new(100e6);
        link.start(1, 100 * MB, 1.0, SimTime::ZERO);
        let timer = link.start(2, 100 * MB, 1.0, SimTime::ZERO);
        let done = drain(&mut link, Some(timer));
        assert_eq!(done.len(), 2);
        // Both finish together at 2 s (each got 50 MB/s).
        for (_, at) in &done {
            assert!((at.as_secs_f64() - 2.0).abs() < 1e-6, "at {at}");
        }
    }

    #[test]
    fn late_joiner_slows_the_first() {
        let mut link = PsLink::new(100e6);
        let t1 = link.start(1, 100 * MB, 1.0, SimTime::ZERO);
        // 0.5 s in, transfer 1 has 50 MB left; transfer 2 joins with 50 MB.
        let _stale = t1;
        let timer = link.start(2, 50 * MB, 1.0, SimTime::from_millis(500));
        let done = drain(&mut link, Some(timer));
        assert_eq!(done.len(), 2);
        // Remaining 50+50 MB at 50 MB/s each → both done at 1.5 s.
        for (_, at) in &done {
            assert!((at.as_secs_f64() - 1.5).abs() < 1e-6, "at {at}");
        }
    }

    #[test]
    fn stale_timer_ignored() {
        let mut link = PsLink::new(100e6);
        let t1 = link.start(1, 100 * MB, 1.0, SimTime::ZERO);
        let _t2 = link.start(2, 100 * MB, 1.0, SimTime::ZERO); // supersedes t1
        let mut finished = Vec::new();
        assert!(link.on_timer(t1.at, t1.epoch, &mut finished).is_none());
        assert!(finished.is_empty());
        assert_eq!(link.active(), 2);
    }

    #[test]
    fn unequal_sizes_finish_in_order() {
        let mut link = PsLink::new(100e6);
        link.start(1, 10 * MB, 1.0, SimTime::ZERO);
        let timer = link.start(2, 100 * MB, 1.0, SimTime::ZERO);
        let done = drain(&mut link, Some(timer));
        assert_eq!(done[0].0, 1);
        assert_eq!(done[1].0, 2);
        // Flow 1: 10 MB at 50 MB/s → 0.2 s. Then flow 2 alone:
        // 100 - 10 = 90 MB left, 0.2 + 0.9 = 1.1 s.
        assert!((done[0].1.as_secs_f64() - 0.2).abs() < 1e-6);
        assert!((done[1].1.as_secs_f64() - 1.1).abs() < 1e-6);
    }

    #[test]
    fn zero_byte_transfer_completes_immediately() {
        let mut link = PsLink::new(100e6);
        let timer = link.start(1, 0, 1.0, SimTime::ZERO);
        let done = drain(&mut link, Some(timer));
        assert_eq!(done.len(), 1);
        assert!(done[0].1.as_secs_f64() < 1e-6);
    }

    #[test]
    fn weighted_shares_split_capacity() {
        // weights 3:1 on equal sizes: the heavy flow finishes first, and
        // at that instant has delivered 3x the light flow's bytes.
        let mut link = PsLink::new(100e6);
        link.start(1, 75 * MB, 3.0, SimTime::ZERO);
        let timer = link.start(2, 75 * MB, 1.0, SimTime::ZERO);
        let done = drain(&mut link, Some(timer));
        assert_eq!(done[0].0, 1);
        // Flow 1 at 75 MB/s → done at 1.0 s; flow 2 then alone with
        // 75 − 25 = 50 MB left → 1.0 + 0.5 = 1.5 s.
        assert!((done[0].1.as_secs_f64() - 1.0).abs() < 1e-6, "{:?}", done);
        assert!((done[1].1.as_secs_f64() - 1.5).abs() < 1e-6, "{:?}", done);
    }

    #[test]
    fn throughput_conserved_under_churn() {
        // n staggered transfers: total bytes / makespan == capacity when the
        // link never idles.
        let mut link = PsLink::new(100e6);
        let mut timer = None;
        for i in 0..10 {
            timer = Some(link.start(i, 50 * MB, 1.0, SimTime::ZERO));
        }
        let done = drain(&mut link, timer);
        let last = done.iter().map(|&(_, at)| at).max().unwrap();
        let total = 10.0 * 50.0 * MB as f64;
        let rate = total / last.as_secs_f64();
        assert!((rate - 100e6).abs() / 100e6 < 1e-3, "rate {rate}");
    }
}
