//! The centralized Scheduling Broker (§5).
//!
//! Every local SFQ(D2) scheduler periodically sends the broker its *local
//! I/O service distribution* — a vector of `(application, bytes served
//! locally since the last report)`. The broker folds these into running
//! totals `A_i = Σ_j a_ij` and replies with the total-service vector for
//! exactly the applications the reporting scheduler serves. The local
//! scheduler then applies the DSFQ delay rule with these totals (see
//! [`crate::sfq`]).
//!
//! The design points the paper argues for are visible in the API:
//!
//! * **State is tiny** — one `u64` per live application
//!   ([`SchedulingBroker::state_bytes`]).
//! * **Messages are bounded by the apps a scheduler serves**, not the
//!   cluster size; [`BrokerStats`] counts messages and payload bytes so
//!   the Table 2 / scalability analysis can be regenerated.
//! * In Hadoop the exchange piggybacks on Resource Manager heartbeats; the
//!   cluster simulator models it as a periodic control-plane event with
//!   the same payload accounting.
//!
//! Application ids are dense (the job manager hands them out sequentially),
//! so totals live in a flat `Vec` indexed by `AppId.0` — the same pattern
//! as the dense SFQ flow table — and the reply is built in a pooled scratch
//! buffer, keeping the coordination plane at 0 allocs/round steady-state.
//! [`HashReferenceBroker`] keeps the original `HashMap` implementation as a
//! differential reference; a proptest asserts byte-identical replies and
//! stats across both for arbitrary report/retire interleavings. At O(1000)
//! nodes the single flat broker becomes the hot spot regardless of its data
//! structure — [`crate::broker_tree`] layers rack aggregators on top of the
//! same accounting model.

use crate::request::AppId;
use ibis_simcore::{SimDuration, SimTime};
use std::collections::HashMap;

/// Wire-size model: each (app id, byte count) pair costs 12 bytes
/// (u32 + u64), plus a fixed per-message header.
pub const ENTRY_BYTES: u64 = 12;
/// Fixed header per report or reply message.
pub const HEADER_BYTES: u64 = 16;

/// How trustworthy a broker's total-service information currently is.
///
/// Raw [`SchedulingBroker::sync_age`] returns `Option<SimDuration>`, and
/// several consumers misread `None` ("never synced — totals may be
/// arbitrarily wrong") as "freshly synced". This enum makes the three
/// regimes explicit so callers must handle each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Staleness {
    /// A sync completed within the bound; totals are current enough for
    /// the DSFQ delay rule.
    Fresh(SimDuration),
    /// The last sync is older than the bound; totals are suspect and the
    /// scheduler should degrade to pure local fairness.
    Stale(SimDuration),
    /// No sync has ever completed — the broker is dark (or coordination
    /// never started). There is no total-service information at all.
    Dark,
}

impl Staleness {
    /// The one classification rule, shared by every consumer: `Dark`
    /// before any sync, `Stale` when the last sync is older than `bound`,
    /// `Fresh` otherwise (exactly at the bound is still fresh). All
    /// staleness decisions — broker-side and scheduler-side — must go
    /// through this constructor instead of hand-rolling comparisons on a
    /// raw `last_sync`, so the three regimes cannot drift apart.
    pub fn classify(last_sync: Option<SimTime>, now: SimTime, bound: SimDuration) -> Staleness {
        match last_sync.map(|t| now.saturating_since(t)) {
            None => Staleness::Dark,
            Some(age) if age > bound => Staleness::Stale(age),
            Some(age) => Staleness::Fresh(age),
        }
    }

    /// Should a scheduler still apply broker totals in this state? `Dark`
    /// counts as degraded: before the first sync there is nothing to
    /// delay against, which is exactly the pure-local-SFQ regime.
    pub fn usable(self) -> bool {
        matches!(self, Staleness::Fresh(_))
    }

    /// The age of the information, when any exists.
    pub fn age(self) -> Option<SimDuration> {
        match self {
            Staleness::Fresh(a) | Staleness::Stale(a) => Some(a),
            Staleness::Dark => None,
        }
    }
}

/// Overhead counters for the coordination plane, split by tree level so
/// the Table-2 scalability analysis regenerates at 1000 nodes.
///
/// `reports`/`replies`/`payload_bytes` count the scheduler-facing level
/// (level 0: scheduler ↔ broker, or scheduler ↔ rack aggregator under the
/// tree). `agg_msgs`/`agg_bytes` count the aggregation level (level 1+:
/// rack aggregator ↔ root), which only the tree broker exercises — a flat
/// broker leaves them zero, so flat reports are unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrokerStats {
    /// Report messages received from local schedulers (level 0, up).
    pub reports: u64,
    /// Reply messages sent back (level 0, down).
    pub replies: u64,
    /// Total payload bytes in both directions at level 0.
    pub payload_bytes: u64,
    /// Aggregator ↔ root messages (level 1, both directions; tree only).
    pub agg_msgs: u64,
    /// Aggregator ↔ root payload bytes (level 1, both directions; tree
    /// only).
    pub agg_bytes: u64,
    /// Snapshot-resync messages on either hop (tree fault protocol only:
    /// a receiver detected a gap/epoch mismatch and the sender
    /// retransmitted its full cumulative state). Zero in fault-free runs
    /// — robustness is free when idle.
    pub resyncs: u64,
    /// Payload bytes carried by snapshot resyncs.
    pub resync_bytes: u64,
    /// Stale or duplicate protocol messages ignored by the seq guard
    /// (tree fault protocol only).
    pub dup_ignored: u64,
}

impl BrokerStats {
    /// Folds another stats block into this one (used when merging the
    /// per-device-class coordination planes into one report).
    pub fn merge(&mut self, other: &BrokerStats) {
        self.reports += other.reports;
        self.replies += other.replies;
        self.payload_bytes += other.payload_bytes;
        self.agg_msgs += other.agg_msgs;
        self.agg_bytes += other.agg_bytes;
        self.resyncs += other.resyncs;
        self.resync_bytes += other.resync_bytes;
        self.dup_ignored += other.dup_ignored;
    }

    /// Wire bytes across every level — the number that must stay
    /// O(apps-served) per scheduler as the cluster grows.
    pub fn total_bytes(&self) -> u64 {
        self.payload_bytes + self.agg_bytes + self.resync_bytes
    }
}

/// The centralized broker. One instance per cluster, embedded in the
/// Resource Manager in the Hadoop prototype.
///
/// Totals are a dense vec indexed by `AppId.0` (application ids are handed
/// out sequentially by the job manager). `retire` clears the slot but keeps
/// the allocation, and the reply is built in a pooled buffer reused across
/// rounds — after warm-up a sync round performs no allocations.
#[derive(Debug, Clone, Default)]
pub struct SchedulingBroker {
    /// Dense per-app running totals; `live[i]` distinguishes "total is 0"
    /// from "app unknown or retired".
    totals: Vec<u64>,
    live: Vec<bool>,
    live_count: usize,
    /// Pooled reply scratch, valid until the next `report` call.
    reply: Vec<(AppId, u64)>,
    stats: BrokerStats,
    last_sync: Option<SimTime>,
}

impl SchedulingBroker {
    /// Creates an empty broker.
    pub fn new() -> Self {
        SchedulingBroker::default()
    }

    fn slot(&mut self, app: AppId) -> usize {
        let i = app.0 as usize;
        if i >= self.totals.len() {
            self.totals.resize(i + 1, 0);
            self.live.resize(i + 1, false);
        }
        if !self.live[i] {
            self.live[i] = true;
            self.live_count += 1;
        }
        i
    }

    /// Processes one report from a local scheduler and returns the reply:
    /// the cluster-wide total service for each application in the report.
    /// The returned slice borrows the broker's pooled reply buffer and is
    /// valid until the next `report` call; callers that must hold a reply
    /// across rounds (delayed-reply fault injection) copy it out.
    ///
    /// An empty report yields an empty reply (and, matching the
    /// piggybacking design, costs only headers).
    pub fn report(&mut self, local: &[(AppId, u64)]) -> &[(AppId, u64)] {
        self.stats.reports += 1;
        self.stats.payload_bytes += HEADER_BYTES + ENTRY_BYTES * local.len() as u64;
        // Fold the whole report first, then build the reply, so a report
        // naming the same app twice sees the fully-folded total in every
        // reply entry (matching the reference implementation).
        for &(app, bytes) in local {
            let i = self.slot(app);
            self.totals[i] += bytes;
        }
        self.reply.clear();
        for &(app, _) in local {
            self.reply.push((app, self.totals[app.0 as usize]));
        }
        self.stats.replies += 1;
        self.stats.payload_bytes += HEADER_BYTES + ENTRY_BYTES * self.reply.len() as u64;
        &self.reply
    }

    /// Folds a report into the totals without building a reply and without
    /// touching the scheduler-facing counters. The tree's root uses this
    /// for rack-aggregated deltas (it accounts them at the aggregator
    /// level instead).
    pub fn fold(&mut self, local: &[(AppId, u64)]) {
        for &(app, bytes) in local {
            let i = self.slot(app);
            self.totals[i] += bytes;
        }
    }

    /// Cluster-wide total service for `app`, if known.
    pub fn total(&self, app: AppId) -> Option<u64> {
        let i = app.0 as usize;
        if *self.live.get(i)? {
            Some(self.totals[i])
        } else {
            None
        }
    }

    /// Removes a finished application's state (the job scheduler notifies
    /// the broker on application completion).
    pub fn retire(&mut self, app: AppId) {
        let i = app.0 as usize;
        if i < self.totals.len() && self.live[i] {
            self.live[i] = false;
            self.totals[i] = 0;
            self.live_count -= 1;
        }
    }

    /// Number of live applications tracked.
    pub fn live_apps(&self) -> usize {
        self.live_count
    }

    /// The broker's in-memory state footprint in bytes — "simply a vector
    /// of total I/O service amount for all the applications currently in
    /// the system" (§5).
    pub fn state_bytes(&self) -> u64 {
        ENTRY_BYTES * self.live_count as u64
    }

    /// Overhead counters.
    pub fn stats(&self) -> BrokerStats {
        self.stats
    }

    /// Records the completion of a sync round at virtual time `now`, so
    /// staleness of the totals is observable between rounds.
    pub fn mark_sync(&mut self, now: SimTime) {
        self.last_sync = Some(now);
    }

    /// Virtual time since the last completed sync round, or `None` before
    /// the first round. This is the worst-case staleness of any total a
    /// local scheduler is currently delaying against.
    pub fn sync_age(&self, now: SimTime) -> Option<SimDuration> {
        self.last_sync.map(|t| now.saturating_since(t))
    }

    /// Classifies the totals' trustworthiness against `bound` via
    /// [`Staleness::classify`]. Prefer this over
    /// [`sync_age`](Self::sync_age) when deciding behaviour — it cannot
    /// conflate "never synced" with "just synced".
    pub fn staleness(&self, now: SimTime, bound: SimDuration) -> Staleness {
        Staleness::classify(self.last_sync, now, bound)
    }

    /// All `(app, total bytes)` pairs, sorted by app id for deterministic
    /// iteration (dense storage makes this a linear scan).
    pub fn totals_sorted(&self) -> Vec<(AppId, u64)> {
        self.live
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l)
            .map(|(i, _)| (AppId(i as u32), self.totals[i]))
            .collect()
    }
}

/// The pre-dense `HashMap` broker, kept as a differential reference (the
/// PR 4 pattern: every dense rewrite ships with the original as an oracle).
/// `broker_properties` replays arbitrary report/retire interleavings
/// against both and asserts byte-identical replies, stats, and sorted
/// totals.
#[derive(Debug, Clone, Default)]
pub struct HashReferenceBroker {
    totals: HashMap<AppId, u64>,
    stats: BrokerStats,
}

impl HashReferenceBroker {
    /// Creates an empty reference broker.
    pub fn new() -> Self {
        HashReferenceBroker::default()
    }

    /// Reference `report`: identical contract to
    /// [`SchedulingBroker::report`], original `HashMap` implementation.
    pub fn report(&mut self, local: &[(AppId, u64)]) -> Vec<(AppId, u64)> {
        self.stats.reports += 1;
        self.stats.payload_bytes += HEADER_BYTES + ENTRY_BYTES * local.len() as u64;
        for &(app, bytes) in local {
            *self.totals.entry(app).or_insert(0) += bytes;
        }
        let reply: Vec<(AppId, u64)> = local
            .iter()
            .map(|&(app, _)| (app, self.totals[&app]))
            .collect();
        self.stats.replies += 1;
        self.stats.payload_bytes += HEADER_BYTES + ENTRY_BYTES * reply.len() as u64;
        reply
    }

    /// Reference `retire`.
    pub fn retire(&mut self, app: AppId) {
        self.totals.remove(&app);
    }

    /// Reference `total`.
    pub fn total(&self, app: AppId) -> Option<u64> {
        self.totals.get(&app).copied()
    }

    /// Reference `live_apps`.
    pub fn live_apps(&self) -> usize {
        self.totals.len()
    }

    /// Reference `state_bytes`.
    pub fn state_bytes(&self) -> u64 {
        ENTRY_BYTES * self.totals.len() as u64
    }

    /// Reference `stats`.
    pub fn stats(&self) -> BrokerStats {
        self.stats
    }

    /// Reference `totals_sorted`.
    pub fn totals_sorted(&self) -> Vec<(AppId, u64)> {
        let mut v: Vec<(AppId, u64)> = self.totals.iter().map(|(&a, &b)| (a, b)).collect();
        v.sort_by_key(|&(a, _)| a);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: AppId = AppId(1);
    const B: AppId = AppId(2);

    #[test]
    fn totals_accumulate_across_reporters() {
        let mut broker = SchedulingBroker::new();
        // node 1 reports A=100
        let r1 = broker.report(&[(A, 100)]).to_vec();
        assert_eq!(r1, vec![(A, 100)]);
        // node 2 reports A=50, B=30
        let r2 = broker.report(&[(A, 50), (B, 30)]).to_vec();
        assert_eq!(r2, vec![(A, 150), (B, 30)]);
        // node 1 again, only A
        let r3 = broker.report(&[(A, 25)]).to_vec();
        assert_eq!(r3, vec![(A, 175)]);
        assert_eq!(broker.total(B), Some(30));
    }

    #[test]
    fn reply_covers_only_reported_apps() {
        let mut broker = SchedulingBroker::new();
        broker.report(&[(A, 100), (B, 200)]);
        let reply = broker.report(&[(B, 1)]);
        assert_eq!(reply, vec![(B, 201)]);
    }

    #[test]
    fn empty_report_is_cheap() {
        let mut broker = SchedulingBroker::new();
        let reply = broker.report(&[]);
        assert!(reply.is_empty());
        let s = broker.stats();
        assert_eq!(s.payload_bytes, 2 * 16);
    }

    #[test]
    fn message_accounting_scales_with_entries() {
        let mut broker = SchedulingBroker::new();
        broker.report(&[(A, 1), (B, 1)]);
        let s = broker.stats();
        assert_eq!(s.reports, 1);
        assert_eq!(s.replies, 1);
        assert_eq!(s.payload_bytes, (16 + 2 * 12) * 2);
        // The flat broker never touches the aggregation level.
        assert_eq!(s.agg_msgs, 0);
        assert_eq!(s.agg_bytes, 0);
        assert_eq!(s.total_bytes(), s.payload_bytes);
    }

    #[test]
    fn retire_frees_state() {
        let mut broker = SchedulingBroker::new();
        broker.report(&[(A, 1), (B, 1)]);
        assert_eq!(broker.live_apps(), 2);
        assert_eq!(broker.state_bytes(), 24);
        broker.retire(A);
        assert_eq!(broker.live_apps(), 1);
        assert_eq!(broker.total(A), None);
        // Retiring an unknown or already-retired app is a no-op.
        broker.retire(A);
        broker.retire(AppId(999));
        assert_eq!(broker.live_apps(), 1);
    }

    #[test]
    fn repeated_app_in_one_report_sees_folded_total() {
        // Both entries of a duplicate-app report reply with the
        // fully-folded total, matching the HashMap reference.
        let mut dense = SchedulingBroker::new();
        let mut reference = HashReferenceBroker::new();
        let local = [(A, 5), (A, 3)];
        let d = dense.report(&local).to_vec();
        let r = reference.report(&local);
        assert_eq!(d, r);
        assert_eq!(d, vec![(A, 8), (A, 8)]);
    }

    #[test]
    fn sync_age_tracks_last_round() {
        use ibis_simcore::{SimDuration, SimTime};
        let mut broker = SchedulingBroker::new();
        assert_eq!(broker.sync_age(SimTime::from_secs(5)), None);
        broker.mark_sync(SimTime::from_secs(3));
        assert_eq!(
            broker.sync_age(SimTime::from_secs(5)),
            Some(SimDuration::from_secs(2))
        );
    }

    #[test]
    fn staleness_distinguishes_dark_stale_fresh() {
        use ibis_simcore::{SimDuration, SimTime};
        let bound = SimDuration::from_secs(3);
        let mut broker = SchedulingBroker::new();
        let s = broker.staleness(SimTime::from_secs(100), bound);
        assert_eq!(s, Staleness::Dark);
        assert!(!s.usable());
        assert_eq!(s.age(), None);

        broker.mark_sync(SimTime::from_secs(100));
        let s = broker.staleness(SimTime::from_secs(102), bound);
        assert_eq!(s, Staleness::Fresh(SimDuration::from_secs(2)));
        assert!(s.usable());

        // Exactly at the bound is still fresh; past it is stale.
        let s = broker.staleness(SimTime::from_secs(103), bound);
        assert!(s.usable());
        let s = broker.staleness(SimTime::from_secs(104), bound);
        assert_eq!(s, Staleness::Stale(SimDuration::from_secs(4)));
        assert!(!s.usable());
        assert_eq!(s.age(), Some(SimDuration::from_secs(4)));
    }

    #[test]
    fn classify_matches_broker_staleness() {
        use ibis_simcore::{SimDuration, SimTime};
        let bound = SimDuration::from_secs(1);
        let now = SimTime::from_secs(10);
        assert_eq!(Staleness::classify(None, now, bound), Staleness::Dark);
        assert_eq!(
            Staleness::classify(Some(SimTime::from_secs(10)), now, bound),
            Staleness::Fresh(SimDuration::ZERO)
        );
        assert_eq!(
            Staleness::classify(Some(SimTime::from_secs(5)), now, bound),
            Staleness::Stale(SimDuration::from_secs(5))
        );
        // A sync marked "in the future" (delivered late in virtual time)
        // saturates to zero age rather than wrapping.
        assert_eq!(
            Staleness::classify(Some(SimTime::from_secs(11)), now, bound),
            Staleness::Fresh(SimDuration::ZERO)
        );
    }

    #[test]
    fn staleness_is_hashable_and_eq() {
        use ibis_simcore::SimDuration;
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Staleness::Dark);
        set.insert(Staleness::Fresh(SimDuration::from_secs(1)));
        set.insert(Staleness::Fresh(SimDuration::from_secs(1)));
        set.insert(Staleness::Stale(SimDuration::from_secs(9)));
        assert_eq!(set.len(), 3);
        assert!(set.contains(&Staleness::Dark));
    }

    #[test]
    fn totals_sorted_is_deterministic() {
        let mut broker = SchedulingBroker::new();
        broker.report(&[(B, 5), (A, 9)]);
        assert_eq!(broker.totals_sorted(), vec![(A, 9), (B, 5)]);
    }

    #[test]
    fn state_is_independent_of_node_count() {
        // 1000 nodes reporting the same two apps: state stays 2 entries.
        let mut broker = SchedulingBroker::new();
        for _ in 0..1000 {
            broker.report(&[(A, 1), (B, 1)]);
        }
        assert_eq!(broker.live_apps(), 2);
        assert_eq!(broker.total(A), Some(1000));
    }

    #[test]
    fn reply_buffer_is_pooled() {
        // After warm-up, repeated same-shape rounds reuse the reply
        // allocation: capacity stops growing.
        let mut broker = SchedulingBroker::new();
        broker.report(&[(A, 1), (B, 1)]);
        let cap = broker.reply.capacity();
        for _ in 0..100 {
            broker.report(&[(A, 1), (B, 1)]);
        }
        assert_eq!(broker.reply.capacity(), cap);
    }

    #[test]
    fn fold_accumulates_without_level0_accounting() {
        let mut broker = SchedulingBroker::new();
        broker.fold(&[(A, 7), (B, 2)]);
        broker.fold(&[(A, 3)]);
        assert_eq!(broker.total(A), Some(10));
        assert_eq!(broker.total(B), Some(2));
        assert_eq!(broker.stats(), BrokerStats::default());
    }

    #[test]
    fn stats_merge_adds_all_fields() {
        let a = BrokerStats {
            reports: 1,
            replies: 2,
            payload_bytes: 3,
            agg_msgs: 4,
            agg_bytes: 5,
            resyncs: 6,
            resync_bytes: 7,
            dup_ignored: 8,
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(
            b,
            BrokerStats {
                reports: 2,
                replies: 4,
                payload_bytes: 6,
                agg_msgs: 8,
                agg_bytes: 10,
                resyncs: 12,
                resync_bytes: 14,
                dup_ignored: 16,
            }
        );
        assert_eq!(b.total_bytes(), 30);
    }
}
