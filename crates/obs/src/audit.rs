//! The fairness auditor: replays a [`Recording`] and checks the paper's
//! scheduling claims as machine-verifiable invariants.
//!
//! Five invariants are audited, per `(node, device)` stream:
//!
//! 1. **Start-tag monotonicity** — SFQ dispatches the minimum-start-tag
//!    queued request and sets the virtual time to it, so the sequence of
//!    dispatched start tags must be non-decreasing. A regression in the
//!    tag math or heap ordering shows up here immediately.
//! 2. **Windowed proportional share** (§4, Fig. 6/11) — within each time
//!    window, applications that stayed *continuously backlogged* (always
//!    had at least one queued request) must split the completed bytes of
//!    the backlogged set in proportion to their weights, within
//!    [`AuditConfig::share_tolerance`].
//! 3. **DSFQ delay identity** (§5, Fig. 12) — the cumulative delay the
//!    DSFQ rule charges a flow can never exceed the foreign service the
//!    broker reported for it: `Σ delay ≤ max_sync(total − local
//!    completed)`. Overcharging would mean local arrivals are penalised
//!    for service that never happened elsewhere.
//! 4. **Degraded pure-local** (fault injection) — between a
//!    [`EventKind::DegradedEnter`] and its matching
//!    [`EventKind::DegradedExit`], a scheduler has declared its broker
//!    totals stale and fallen back to pure local SFQ(D2); charging any
//!    DSFQ delay in that span would penalise flows against information
//!    the scheduler itself deemed untrustworthy. Local-share fairness
//!    (check 2) keeps running across degraded windows, so a dark broker
//!    cannot silently break per-device fairness either.
//! 5. **Rack-scoped recovery** (hierarchical fault tolerance) — when a
//!    run's only injected faults are rack-scoped (aggregator crash or
//!    rack partition, fault markers 7–10) and the coordination tree has
//!    rack failure domains ([`crate::recorder::RecordingMeta::rack_size`]
//!    `> 0`), degradation must stay confined to the affected subtree:
//!    (a) no scheduler on an *unaffected* rack may enter degraded mode
//!    while a rack fault is in flight; (b) an affected scheduler that is
//!    still degraded when its rack heals must exit degraded mode within
//!    two sync periods of the heal; and (c) broker-reported cluster
//!    totals must never regress across the failover — the protocol's
//!    snapshot resync is clamped, so a reconstructed aggregate can lag
//!    but can never pull the root backwards. The check disarms itself
//!    when non-rack faults (outages, reply delays, slowdowns) are mixed
//!    in, and exempts schedulers on crash-marked nodes.
//!
//! Nodes whose ring evicted events ([`Recording::truncated`]) get only the
//! first check — the others reconstruct cumulative state and would
//! false-positive on an incomplete prefix.

use crate::event::{EventKind, ObsEvent};
use crate::recorder::{Recording, RecordingMeta};
use ibis_simcore::metrics::Cdf;
use ibis_simcore::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Auditor tuning knobs.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Proportional-share window length.
    pub window: SimDuration,
    /// Maximum absolute error between an application's byte share and its
    /// weight share within one window. SFQ(D)'s per-window unfairness is
    /// bounded by `D` maximum-size requests per flow boundary, so the
    /// bound loosens with short windows and deep queues.
    pub share_tolerance: f64,
    /// Windows whose backlogged set completed fewer bytes than this are
    /// skipped (too little service for the share to be meaningful).
    pub min_window_bytes: u64,
    /// Cap on recorded violations (the counts keep accumulating).
    pub max_violations: usize,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            window: SimDuration::from_secs(10),
            share_tolerance: 0.15,
            min_window_bytes: 128 << 20,
            max_violations: 20,
        }
    }
}

/// Which invariant a violation breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// Dispatched start tags regressed.
    StartTagMonotone,
    /// A window's byte shares deviated from the weight shares.
    ProportionalShare,
    /// Cumulative DSFQ delay exceeded broker-reported foreign service.
    DelayIdentity,
    /// A DSFQ delay was charged inside a degraded (stale-broker) episode.
    DegradedPureLocal,
    /// A rack-scoped fault leaked outside its failure domain: an
    /// unaffected rack degraded, an affected rack failed to re-converge
    /// within two sync periods of the heal, or broker totals regressed
    /// across the failover.
    RackScopedRecovery,
}

impl std::fmt::Display for Invariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Invariant::StartTagMonotone => "start-tag-monotone",
            Invariant::ProportionalShare => "proportional-share",
            Invariant::DelayIdentity => "dsfq-delay-identity",
            Invariant::DegradedPureLocal => "degraded-pure-local",
            Invariant::RackScopedRecovery => "rack-scoped-recovery",
        };
        f.write_str(s)
    }
}

/// One invariant violation, pinned to its origin.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The broken invariant.
    pub invariant: Invariant,
    /// Node of the offending stream.
    pub node: u32,
    /// Device index of the offending stream.
    pub dev: u8,
    /// When it happened (window end for share violations).
    pub at: SimTime,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] node{} dev{} at {}: {}",
            self.invariant, self.node, self.dev, self.at, self.detail
        )
    }
}

/// The auditor's verdict plus the evidence behind it.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Events replayed.
    pub events: u64,
    /// Dispatches checked for start-tag monotonicity.
    pub dispatches: u64,
    /// Windows in which a proportional-share comparison ran.
    pub windows_checked: u64,
    /// DSFQ delay charges checked against broker totals.
    pub delay_checks: u64,
    /// Degraded-mode boundary events (enter + exit) replayed — the
    /// denominator for the degraded pure-local check; 0 means the run
    /// never degraded and the invariant was vacuously satisfied.
    pub degraded_marks: u64,
    /// Absolute share errors across all checked windows (merged from the
    /// per-node distributions with [`Cdf::merge`]).
    pub share_errors: Cdf,
    /// Nodes skipped for checks 2–3 because their ring evicted events.
    pub truncated_nodes: Vec<u32>,
    /// Violations found (capped at [`AuditConfig::max_violations`]).
    pub violations: Vec<Violation>,
    /// Total violations observed, including beyond the cap.
    pub violation_count: u64,
    /// Start-tag monotonicity violations, uncapped.
    pub start_tag_violations: u64,
    /// Proportional-share violations, uncapped.
    pub share_violations: u64,
    /// DSFQ delay-identity violations, uncapped.
    pub delay_violations: u64,
    /// Degraded pure-local violations, uncapped.
    pub degraded_violations: u64,
    /// Rack-scoped recovery checks evaluated (degrade-scope decisions,
    /// re-convergence deadlines, and post-fault broker-total monotonicity
    /// samples); 0 means the run had no rack faults (or mixed fault kinds
    /// disarmed the check) and the invariant was vacuously satisfied.
    pub rack_checks: u64,
    /// Rack-scoped recovery violations, uncapped.
    pub rack_violations: u64,
}

impl AuditReport {
    /// True when no invariant was violated.
    pub fn passed(&self) -> bool {
        self.violation_count == 0
    }

    /// Total violations of one invariant, uncapped (unlike
    /// [`AuditReport::violations`], which stops recording at the cap).
    pub fn violations_of(&self, invariant: Invariant) -> u64 {
        match invariant {
            Invariant::StartTagMonotone => self.start_tag_violations,
            Invariant::ProportionalShare => self.share_violations,
            Invariant::DelayIdentity => self.delay_violations,
            Invariant::DegradedPureLocal => self.degraded_violations,
            Invariant::RackScopedRecovery => self.rack_violations,
        }
    }

    /// One-line human summary.
    pub fn summary(&mut self) -> String {
        let p99 = self.share_errors.quantile(0.99).unwrap_or(0.0);
        let max = self.share_errors.quantile(1.0).unwrap_or(0.0);
        format!(
            "{}: {} events, {} dispatches monotone-checked, {} windows \
             (share err p99 {:.3}, max {:.3}), {} delay checks, {} rack \
             checks, {} truncated node(s), {} violation(s)",
            if self.passed() { "PASS" } else { "FAIL" },
            self.events,
            self.dispatches,
            self.windows_checked,
            p99,
            max,
            self.delay_checks,
            self.rack_checks,
            self.truncated_nodes.len(),
            self.violation_count,
        )
    }
}

/// Per-flow reconstruction state within one `(node, dev)` stream.
#[derive(Debug, Clone)]
struct FlowAcc {
    app: u32,
    weight: f64,
    /// Requests tagged but not yet dispatched (the scheduler queue).
    queued: i64,
    /// Minimum queue length seen in the current window (sampled at every
    /// event; queues only change at events, so this is exact).
    min_queued: i64,
    /// Completed bytes in the current window.
    win_bytes: u64,
    /// Completed bytes, cumulative (mirrors the scheduler's
    /// `local_service`).
    completed: u64,
    /// Cumulative DSFQ delay charged.
    delays: u64,
    /// Max over syncs of `total − completed` (mirrors `foreign_total`).
    foreign_known: u64,
    /// Highest broker-reported total seen so far (rack check c: totals
    /// must never regress across a rack failover).
    last_sync_total: u64,
}

/// Per-`(node, dev)` reconstruction state.
#[derive(Debug, Clone, Default)]
struct DevAcc {
    last_start: f64,
    flows: Vec<FlowAcc>,
    /// Index of the last flushed window.
    window: u64,
    /// Inside a DegradedEnter..DegradedExit span (stale broker totals;
    /// DSFQ delays must be zero).
    degraded: bool,
    /// When the current degraded span began (rack check b: the span must
    /// close within two sync periods of the rack's heal).
    degraded_at: SimTime,
    /// A re-convergence violation was already recorded for the current
    /// degraded span (report it once, not per event past the deadline).
    reconv_flagged: bool,
}

impl DevAcc {
    /// The flow state of `app`, created on first use with the app's
    /// configured weight from `meta`.
    fn flow(&mut self, app: u32, meta: &RecordingMeta) -> &mut FlowAcc {
        if let Some(i) = self.flows.iter().position(|f| f.app == app) {
            return &mut self.flows[i];
        }
        self.flows.push(FlowAcc {
            app,
            weight: meta.weight_of(app),
            queued: 0,
            min_queued: 0,
            win_bytes: 0,
            completed: 0,
            delays: 0,
            foreign_known: 0,
            last_sync_total: 0,
        });
        self.flows.last_mut().expect("just pushed")
    }
}

/// Rack-fault context gathered in a pre-scan over the event stream: the
/// rack check needs to know every fault span *before* replay, because
/// scope decisions at a `DegradedEnter` depend on spans that may close
/// later in the stream.
#[derive(Debug, Clone)]
struct RackScan {
    /// Schedulers per rack (from the recording metadata).
    rack_size: u32,
    /// `(rack, start_ns, heal_ns)` fault spans; overlapping crash and
    /// partition faults on one rack merge into one span. `heal_ns` is
    /// `u64::MAX` when the recording ends mid-fault (no heal to check).
    spans: Vec<(u32, u64, u64)>,
    /// Non-rack fault kinds (outage / report drop / reply delay /
    /// slowdown) were also injected — those can degrade any rack, so the
    /// scope and re-convergence checks disarm.
    mixed: bool,
    /// Nodes carrying a crash marker (kind 3): exempt from the scope and
    /// re-convergence checks (a crashed scheduler degrades for its own
    /// reasons).
    crashed: Vec<u32>,
}

impl RackScan {
    /// Builds the rack-fault context, or `None` when the run has no rack
    /// failure domains or no rack-scoped fault markers.
    fn scan(rec: &Recording) -> Option<RackScan> {
        let rack_size = rec.meta.rack_size;
        if rack_size == 0 {
            return None;
        }
        let mut spans: Vec<(u32, u64, u64)> = Vec::new();
        // rack → (span start, currently-open fault count).
        let mut open: BTreeMap<u32, (u64, u32)> = BTreeMap::new();
        let mut mixed = false;
        let mut crashed: Vec<u32> = Vec::new();
        let mut any = false;
        for ev in rec.events() {
            if let EventKind::FaultInjected { kind, detail } = ev.kind {
                match kind {
                    7 | 9 => {
                        any = true;
                        let e = open.entry(detail as u32).or_insert((ev.at.as_nanos(), 0));
                        e.1 += 1;
                    }
                    8 | 10 => {
                        any = true;
                        if let Some(&(start, n)) = open.get(&(detail as u32)) {
                            if n <= 1 {
                                open.remove(&(detail as u32));
                                spans.push((detail as u32, start, ev.at.as_nanos()));
                            } else {
                                open.insert(detail as u32, (start, n - 1));
                            }
                        }
                    }
                    3 if !crashed.contains(&ev.node) => crashed.push(ev.node),
                    0 | 1 | 2 | 5 | 6 => mixed = true,
                    _ => {}
                }
            }
        }
        for (rack, (start, _)) in open {
            spans.push((rack, start, u64::MAX));
        }
        if !any {
            return None;
        }
        Some(RackScan {
            rack_size,
            spans,
            mixed,
            crashed,
        })
    }

    /// The node's rack.
    fn rack_of(&self, node: u32) -> u32 {
        node / self.rack_size.max(1)
    }

    /// Whether the scope/re-convergence checks apply to this node at all.
    fn armed_for(&self, node: u32) -> bool {
        !self.mixed && !self.crashed.contains(&node)
    }
}

struct Auditor<'a> {
    cfg: &'a AuditConfig,
    report: AuditReport,
    /// Share-error samples per node, merged at the end.
    node_errors: BTreeMap<u32, Cdf>,
    /// Rack-fault context (invariant 5); `None` disables the rack checks.
    rack: Option<RackScan>,
    /// Apps with at least one completed job. Completion retires the app
    /// from the broker, which legitimately resets its cumulative totals
    /// when a straggler re-reports — so rack check (c) stands down.
    retired_apps: Vec<u32>,
    /// Re-convergence grace: two sync periods, in nanoseconds.
    grace_ns: u64,
}

impl Auditor<'_> {
    fn violate(&mut self, invariant: Invariant, node: u32, dev: u8, at: SimTime, detail: String) {
        self.report.violation_count += 1;
        match invariant {
            Invariant::StartTagMonotone => self.report.start_tag_violations += 1,
            Invariant::ProportionalShare => self.report.share_violations += 1,
            Invariant::DelayIdentity => self.report.delay_violations += 1,
            Invariant::DegradedPureLocal => self.report.degraded_violations += 1,
            Invariant::RackScopedRecovery => self.report.rack_violations += 1,
        }
        if self.report.violations.len() < self.cfg.max_violations {
            self.report.violations.push(Violation {
                invariant,
                node,
                dev,
                at,
                detail,
            });
        }
    }

    /// Closes the current window of `acc`: runs the proportional-share
    /// comparison over the continuously backlogged set, then resets the
    /// per-window accumulators.
    fn flush_window(&mut self, acc: &mut DevAcc, node: u32, dev: u8, window_end: SimTime) {
        let backlogged: Vec<usize> = (0..acc.flows.len())
            .filter(|&i| acc.flows[i].min_queued > 0)
            .collect();
        if backlogged.len() >= 2 {
            let total: u64 = backlogged.iter().map(|&i| acc.flows[i].win_bytes).sum();
            if total >= self.cfg.min_window_bytes {
                let wsum: f64 = backlogged.iter().map(|&i| acc.flows[i].weight).sum();
                self.report.windows_checked += 1;
                for &i in &backlogged {
                    let f = &acc.flows[i];
                    let share = f.win_bytes as f64 / total as f64;
                    let expect = f.weight / wsum;
                    let err = (share - expect).abs();
                    self.node_errors.entry(node).or_default().add(err);
                    if err > self.cfg.share_tolerance {
                        let (app, weight) = (f.app, f.weight);
                        self.violate(
                            Invariant::ProportionalShare,
                            node,
                            dev,
                            window_end,
                            format!(
                                "app{app} got share {share:.3} of {total} B, expected \
                                 {expect:.3} (weight {weight}) — err {err:.3}"
                            ),
                        );
                    }
                }
            }
        }
        for f in &mut acc.flows {
            f.win_bytes = 0;
            f.min_queued = f.queued;
        }
    }

    /// Rack check (a): a `DegradedEnter` while a rack fault is in flight
    /// must come from the affected rack. The affected rack's own span is
    /// extended by the two-sync-period grace, because a scheduler's
    /// staleness clock can cross the bound just after the heal, before
    /// the recovery sync lands.
    fn check_degrade_scope(&mut self, node: u32, dev: u8, at: SimTime) {
        let Some(rs) = &self.rack else { return };
        if !rs.armed_for(node) {
            return;
        }
        let t = at.as_nanos();
        if !rs.spans.iter().any(|&(_, s, e)| t >= s && t < e) {
            return; // no fault in flight: degradation is out of scope
        }
        self.report.rack_checks += 1;
        let my = rs.rack_of(node);
        let grace = self.grace_ns;
        let own = rs
            .spans
            .iter()
            .any(|&(r, s, e)| r == my && t >= s && t < e.saturating_add(grace));
        if !own {
            self.violate(
                Invariant::RackScopedRecovery,
                node,
                dev,
                at,
                format!(
                    "scheduler on unaffected rack {my} entered degraded mode \
                     during a rack-scoped fault window"
                ),
            );
        }
    }

    /// Rack check (b), failure side: the stream is degraded, its rack
    /// healed, and evidence of liveness (this event) arrives past the
    /// two-sync-period deadline without a `DegradedExit`. Returns true if
    /// a violation was recorded (the caller latches `reconv_flagged`).
    fn check_reconvergence_overdue(&mut self, acc: &DevAcc, node: u32, dev: u8, at: SimTime) -> bool {
        let Some(rs) = &self.rack else { return false };
        if !rs.armed_for(node) || self.grace_ns == 0 {
            return false;
        }
        let my = rs.rack_of(node);
        let entered = acc.degraded_at.as_nanos();
        let t = at.as_nanos();
        let overdue = rs.spans.iter().find(|&&(r, _, e)| {
            r == my && e != u64::MAX && entered <= e && t > e.saturating_add(self.grace_ns)
        });
        if let Some(&(_, _, heal)) = overdue {
            self.report.rack_checks += 1;
            let late_ns = t - heal;
            self.violate(
                Invariant::RackScopedRecovery,
                node,
                dev,
                at,
                format!(
                    "still degraded {late_ns} ns after the rack healed \
                     (bound: 2 sync periods = {} ns)",
                    self.grace_ns
                ),
            );
            return true;
        }
        false
    }

    /// Rack check (b), success side: a `DegradedExit` that closes a span
    /// straddling a heal counts as an evaluated (and passed) deadline
    /// check when it lands within the grace.
    fn check_reconvergence_met(&mut self, acc: &DevAcc, node: u32, at: SimTime) {
        let Some(rs) = &self.rack else { return };
        if !rs.armed_for(node) || self.grace_ns == 0 {
            return;
        }
        let my = rs.rack_of(node);
        let entered = acc.degraded_at.as_nanos();
        let t = at.as_nanos();
        if rs.spans.iter().any(|&(r, _, e)| {
            r == my && e != u64::MAX && entered <= e && t >= e && t <= e.saturating_add(self.grace_ns)
        }) {
            self.report.rack_checks += 1;
        }
    }
}

/// The state of the `(node, dev)` stream, created on first use.
fn stream(streams: &mut Vec<Vec<DevAcc>>, node: u32, dev: u8) -> &mut DevAcc {
    let (node, dev) = (node as usize, usize::from(dev));
    if streams.len() <= node {
        streams.resize_with(node + 1, Vec::new);
    }
    let devs = &mut streams[node];
    if devs.len() <= dev {
        devs.resize_with(dev + 1, DevAcc::default);
    }
    &mut devs[dev]
}

/// Replays `rec` and checks every invariant. See the module docs.
pub fn audit(rec: &Recording, cfg: &AuditConfig) -> AuditReport {
    let window_ns = cfg.window.as_nanos().max(1);
    let mut aud = Auditor {
        cfg,
        report: AuditReport {
            events: rec.len() as u64,
            ..AuditReport::default()
        },
        node_errors: BTreeMap::new(),
        rack: RackScan::scan(rec),
        retired_apps: Vec::new(),
        grace_ns: 2 * rec.meta.sync_period_ns,
    };
    for n in 0..rec.meta.nodes {
        if rec.truncated(n) {
            aud.report.truncated_nodes.push(n);
        }
    }

    // Per-(node, dev) state, indexed `[node][dev]` and updated in place.
    let mut streams: Vec<Vec<DevAcc>> = Vec::new();
    let meta = &rec.meta;
    for ev in rec.events() {
        let ObsEvent { at, node, dev, kind } = *ev;
        let truncated = rec.truncated(node);
        let acc = stream(&mut streams, node, dev);

        // Cross a window boundary: flush state-dependent checks first.
        // Windows between events carry zero completed bytes, so one flush
        // of the window the last event lived in covers the whole gap (the
        // share check skips empty windows via min_window_bytes).
        let widx = at.as_nanos() / window_ns;
        if widx > acc.window {
            if !truncated {
                let end = SimTime::from_nanos((acc.window + 1) * window_ns);
                aud.flush_window(acc, node, dev, end);
            }
            acc.window = widx;
        }

        match kind {
            EventKind::RequestTagged { app, .. } => {
                let f = acc.flow(app, meta);
                f.queued += 1;
            }
            EventKind::Dispatched { app, start_tag, .. } => {
                aud.report.dispatches += 1;
                if start_tag < acc.last_start {
                    let last = acc.last_start;
                    aud.violate(
                        Invariant::StartTagMonotone,
                        node,
                        dev,
                        at,
                        format!("dispatched start tag {start_tag} after {last}"),
                    );
                }
                acc.last_start = start_tag;
                let f = acc.flow(app, meta);
                f.queued -= 1;
                f.min_queued = f.min_queued.min(f.queued);
            }
            EventKind::Completed { app, bytes, .. } => {
                if acc.degraded && !acc.reconv_flagged {
                    // Rack check (b): a completion is proof the stream is
                    // alive, so a missed re-convergence deadline is real.
                    acc.reconv_flagged = aud.check_reconvergence_overdue(acc, node, dev, at);
                }
                let f = acc.flow(app, meta);
                f.win_bytes += bytes;
                f.completed += bytes;
            }
            EventKind::DelayApplied { app, delay } => {
                if acc.degraded {
                    aud.violate(
                        Invariant::DegradedPureLocal,
                        node,
                        dev,
                        at,
                        format!(
                            "app{app} charged {delay} B of DSFQ delay while the \
                             scheduler was degraded (broker totals stale)"
                        ),
                    );
                }
                if !truncated {
                    let f = acc.flow(app, meta);
                    f.delays += delay;
                    aud.report.delay_checks += 1;
                    if f.delays > f.foreign_known {
                        let (delays, known) = (f.delays, f.foreign_known);
                        aud.violate(
                            Invariant::DelayIdentity,
                            node,
                            dev,
                            at,
                            format!(
                                "app{app} charged {delays} B of delay, broker only \
                                 reported {known} B foreign"
                            ),
                        );
                    }
                }
            }
            EventKind::BrokerSync { app, total } => {
                let f = acc.flow(app, meta);
                f.foreign_known = f.foreign_known.max(total.saturating_sub(f.completed));
                // Rack check (c): across a rack failover the clamped
                // snapshot resync may lag, but can never regress totals.
                // Apps that already completed a job are exempt: the
                // broker retires them, and a straggler's re-report
                // legally restarts their totals from the fresh delta.
                let armed = matches!(&aud.rack, Some(rs) if !rs.mixed)
                    && !aud.retired_apps.contains(&app);
                if armed {
                    aud.report.rack_checks += 1;
                    if total < f.last_sync_total {
                        let prev = f.last_sync_total;
                        aud.violate(
                            Invariant::RackScopedRecovery,
                            node,
                            dev,
                            at,
                            format!(
                                "broker total for app{app} regressed from \
                                 {prev} to {total} across a rack fault"
                            ),
                        );
                    }
                }
                let f = acc.flow(app, meta);
                f.last_sync_total = f.last_sync_total.max(total);
            }
            EventKind::DegradedEnter { .. } => {
                aud.report.degraded_marks += 1;
                acc.degraded = true;
                acc.degraded_at = at;
                acc.reconv_flagged = false;
                aud.check_degrade_scope(node, dev, at);
            }
            EventKind::DegradedExit { .. } => {
                aud.report.degraded_marks += 1;
                if acc.degraded && !acc.reconv_flagged {
                    // A late exit is itself proof of a missed deadline…
                    aud.check_reconvergence_overdue(acc, node, dev, at);
                }
                // …and a timely one is an evaluated, passed check.
                aud.check_reconvergence_met(acc, node, at);
                acc.degraded = false;
                acc.reconv_flagged = false;
            }
            EventKind::JobCompleted { app, .. } => {
                if !aud.retired_apps.contains(&app) {
                    aud.retired_apps.push(app);
                }
            }
            EventKind::DepthAdjusted { .. }
            | EventKind::BlockPlaced { .. }
            | EventKind::FaultInjected { .. }
            | EventKind::JobArrived { .. }
            | EventKind::IoQueued { .. }
            | EventKind::TaskStarted { .. }
            | EventKind::TaskFinished { .. }
            | EventKind::ReportRetry { .. } => {}
        }
    }

    // Final partial windows are *not* flushed: a cut-off window biases the
    // share comparison. Merge the per-node error distributions.
    let node_errors = std::mem::take(&mut aud.node_errors);
    for (_, cdf) in node_errors {
        aud.report.share_errors.merge(&cdf);
    }
    aud.report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{FlightRecorder, RecordingMeta};

    fn meta(weights: &[(u32, f64)]) -> RecordingMeta {
        RecordingMeta {
            weights: weights.to_vec(),
            sync_period_ns: 1_000_000_000,
            nodes: 1,
            rack_size: 0,
        }
    }

    fn push(rec: &mut FlightRecorder, at_ns: u64, kind: EventKind) {
        rec.record(ObsEvent {
            at: SimTime::from_nanos(at_ns),
            node: 0,
            dev: 0,
            kind,
        });
    }

    /// Synthesises two flows backlogged through window 1 (10–20 s), where
    /// flow 1 is serviced `b1` bytes and flow 2 `b2`. Tagging happens in
    /// window 0 so both flows enter window 1 with deep queues — a flow is
    /// "continuously backlogged" only in windows it starts queued.
    fn two_flow_recording(w1: f64, w2: f64, b1: u64, b2: u64) -> Recording {
        let mut rec = FlightRecorder::new(1, 1 << 14);
        let sec = 1_000_000_000u64;
        let chunk = 1u64 << 20;
        // Queue up more requests than either flow will be serviced.
        for i in 0..512 {
            push(&mut rec, 0, EventKind::RequestTagged {
                io: i, app: 1, bytes: chunk, write: false, start_tag: 0.0,
            });
            push(&mut rec, 0, EventKind::RequestTagged {
                io: 1000 + i, app: 2, bytes: chunk, write: false, start_tag: 0.0,
            });
        }
        let mut tag = 0.0f64;
        let mut t = 10 * sec;
        let (n1, n2) = (b1 / chunk, b2 / chunk);
        assert!(n1.max(n2) < 512);
        for i in 0..n1.max(n2) {
            if i < n1 {
                push(&mut rec, t, EventKind::Dispatched { io: i, app: 1, start_tag: tag });
                push(&mut rec, t, EventKind::Completed {
                    io: i, app: 1, bytes: chunk, write: false, latency_ns: 1000,
                });
            }
            if i < n2 {
                push(&mut rec, t, EventKind::Dispatched { io: 1000 + i, app: 2, start_tag: tag });
                push(&mut rec, t, EventKind::Completed {
                    io: 1000 + i, app: 2, bytes: chunk, write: false, latency_ns: 1000,
                });
            }
            tag += 1.0;
            t += sec / 128; // ≤ 512 steps stays inside window 1
        }
        // An event in window 2 forces the window-1 flush.
        push(&mut rec, 21 * sec, EventKind::DepthAdjusted { depth: 4 });
        rec.finish(meta(&[(1, w1), (2, w2)]))
    }

    #[test]
    fn fair_window_passes() {
        // 3:1 weights, 3:1 bytes → zero share error.
        let r = two_flow_recording(3.0, 1.0, 192 << 20, 64 << 20);
        let mut rep = audit(&r, &AuditConfig::default());
        assert!(rep.passed(), "{}", rep.summary());
        assert_eq!(rep.windows_checked, 1);
        assert!(rep.share_errors.quantile(1.0).unwrap() < 1e-9);
    }

    #[test]
    fn unfair_window_flagged() {
        // 3:1 weights but equal service → share error 0.25 > tolerance.
        let r = two_flow_recording(3.0, 1.0, 128 << 20, 128 << 20);
        let rep = audit(&r, &AuditConfig::default());
        assert!(!rep.passed());
        assert!(rep
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::ProportionalShare));
    }

    #[test]
    fn tiny_windows_are_skipped() {
        // Unfair but far below min_window_bytes → no check, no violation.
        let r = two_flow_recording(3.0, 1.0, 4 << 20, 4 << 20);
        let rep = audit(&r, &AuditConfig::default());
        assert!(rep.passed());
        assert_eq!(rep.windows_checked, 0);
    }

    #[test]
    fn start_tag_regression_flagged() {
        let mut rec = FlightRecorder::new(1, 64);
        push(&mut rec, 0, EventKind::Dispatched { io: 0, app: 1, start_tag: 5.0 });
        push(&mut rec, 1, EventKind::Dispatched { io: 1, app: 1, start_tag: 4.0 });
        let rep = audit(&rec.finish(meta(&[(1, 1.0)])), &AuditConfig::default());
        assert_eq!(rep.violation_count, 1);
        assert_eq!(rep.violations[0].invariant, Invariant::StartTagMonotone);
        assert_eq!(rep.violations_of(Invariant::StartTagMonotone), 1);
        assert_eq!(rep.violations_of(Invariant::ProportionalShare), 0);
        assert_eq!(rep.violations_of(Invariant::DelayIdentity), 0);
    }

    #[test]
    fn per_invariant_counts_are_uncapped() {
        // 30 regressions with the default cap of 20: the recorded list is
        // capped, the per-invariant count is not.
        let mut rec = FlightRecorder::new(1, 256);
        for i in 0..31u64 {
            // Alternate 5.0, 4.0, 5.0, … — every 4.0 after a 5.0 regresses.
            let tag = if i % 2 == 0 { 5.0 } else { 4.0 };
            push(&mut rec, i, EventKind::Dispatched { io: i, app: 1, start_tag: tag });
        }
        let rep = audit(&rec.finish(meta(&[(1, 1.0)])), &AuditConfig::default());
        assert_eq!(rep.violations_of(Invariant::StartTagMonotone), 15);
        assert_eq!(rep.violation_count, 15);
        assert_eq!(rep.violations.len(), 15);
    }

    #[test]
    fn equal_start_tags_allowed() {
        let mut rec = FlightRecorder::new(1, 64);
        for i in 0..3 {
            push(&mut rec, i, EventKind::Dispatched { io: i, app: 1, start_tag: 7.0 });
        }
        let rep = audit(&rec.finish(meta(&[(1, 1.0)])), &AuditConfig::default());
        assert!(rep.passed());
        assert_eq!(rep.dispatches, 3);
    }

    #[test]
    fn delay_within_broker_total_passes() {
        let mut rec = FlightRecorder::new(1, 64);
        push(&mut rec, 0, EventKind::Completed { io: 0, app: 1, bytes: 100, write: false, latency_ns: 1 });
        push(&mut rec, 1, EventKind::BrokerSync { app: 1, total: 600 });
        // foreign = 600 − 100 = 500; charging 500 is legal…
        push(&mut rec, 2, EventKind::DelayApplied { app: 1, delay: 500 });
        let rep = audit(&rec.finish(meta(&[(1, 1.0)])), &AuditConfig::default());
        assert!(rep.passed());
        assert_eq!(rep.delay_checks, 1);
    }

    #[test]
    fn overcharged_delay_flagged() {
        let mut rec = FlightRecorder::new(1, 64);
        push(&mut rec, 0, EventKind::Completed { io: 0, app: 1, bytes: 100, write: false, latency_ns: 1 });
        push(&mut rec, 1, EventKind::BrokerSync { app: 1, total: 600 });
        // …but 501 exceeds the foreign service the broker reported.
        push(&mut rec, 2, EventKind::DelayApplied { app: 1, delay: 501 });
        let rep = audit(&rec.finish(meta(&[(1, 1.0)])), &AuditConfig::default());
        assert!(!rep.passed());
        assert_eq!(rep.violations[0].invariant, Invariant::DelayIdentity);
    }

    #[test]
    fn truncated_node_skips_stateful_checks() {
        let mut rec = FlightRecorder::new(1, 2);
        // Overflow the 2-slot ring so node 0 is truncated, ending on an
        // uncovered delay charge that would otherwise be a violation.
        push(&mut rec, 0, EventKind::Completed { io: 0, app: 1, bytes: 1, write: false, latency_ns: 1 });
        push(&mut rec, 1, EventKind::Completed { io: 1, app: 1, bytes: 1, write: false, latency_ns: 1 });
        push(&mut rec, 2, EventKind::DelayApplied { app: 1, delay: 999 });
        push(&mut rec, 3, EventKind::DelayApplied { app: 1, delay: 999 });
        let rep = audit(&rec.finish(meta(&[(1, 1.0)])), &AuditConfig::default());
        assert!(rep.passed());
        assert_eq!(rep.truncated_nodes, vec![0]);
        assert_eq!(rep.delay_checks, 0);
    }

    #[test]
    fn delay_inside_degraded_span_flagged() {
        let mut rec = FlightRecorder::new(1, 64);
        push(&mut rec, 0, EventKind::BrokerSync { app: 1, total: 600 });
        push(&mut rec, 1, EventKind::DegradedEnter { age_ns: 4_000_000_000 });
        // Legal by the delay identity (broker reported 600 foreign), but
        // the scheduler had declared its totals stale.
        push(&mut rec, 2, EventKind::DelayApplied { app: 1, delay: 100 });
        push(&mut rec, 3, EventKind::DegradedExit { dark_ns: 2_000_000_000 });
        let rep = audit(&rec.finish(meta(&[(1, 1.0)])), &AuditConfig::default());
        assert!(!rep.passed());
        assert_eq!(rep.violations_of(Invariant::DegradedPureLocal), 1);
        assert_eq!(rep.degraded_marks, 2);
    }

    #[test]
    fn delay_outside_degraded_span_passes() {
        let mut rec = FlightRecorder::new(1, 64);
        push(&mut rec, 0, EventKind::BrokerSync { app: 1, total: 600 });
        push(&mut rec, 1, EventKind::DegradedEnter { age_ns: u64::MAX });
        push(&mut rec, 2, EventKind::DegradedExit { dark_ns: 1 });
        // Delay after recovery is fine.
        push(&mut rec, 3, EventKind::DelayApplied { app: 1, delay: 100 });
        let rep = audit(&rec.finish(meta(&[(1, 1.0)])), &AuditConfig::default());
        assert!(rep.passed(), "delay after DegradedExit must be legal");
        assert_eq!(rep.degraded_marks, 2);
        assert_eq!(rep.violations_of(Invariant::DegradedPureLocal), 0);
    }

    #[test]
    fn fault_markers_are_inert_for_other_checks() {
        let mut rec = FlightRecorder::new(1, 64);
        push(&mut rec, 0, EventKind::FaultInjected { kind: 0, detail: 7 });
        push(&mut rec, 1, EventKind::ReportRetry { attempt: 2 });
        push(&mut rec, 2, EventKind::Dispatched { io: 0, app: 1, start_tag: 1.0 });
        let rep = audit(&rec.finish(meta(&[(1, 1.0)])), &AuditConfig::default());
        assert!(rep.passed());
        assert_eq!(rep.dispatches, 1);
        assert_eq!(rep.degraded_marks, 0);
    }

    /// Meta for rack-check tests: 4 nodes in 2 racks of 2, 1 s sync
    /// period (so the re-convergence grace is 2 s).
    fn rack_meta() -> RecordingMeta {
        RecordingMeta {
            weights: vec![(1, 1.0)],
            sync_period_ns: 1_000_000_000,
            nodes: 4,
            rack_size: 2,
        }
    }

    fn push_on(rec: &mut FlightRecorder, at_ns: u64, node: u32, kind: EventKind) {
        rec.record(ObsEvent {
            at: SimTime::from_nanos(at_ns),
            node,
            dev: 0,
            kind,
        });
    }

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn unaffected_rack_degrading_is_flagged() {
        let mut rec = FlightRecorder::new(4, 64);
        // Rack 0 partitions from 10 s to 20 s…
        push_on(&mut rec, 10 * SEC, 0, EventKind::FaultInjected { kind: 9, detail: 0 });
        // …but a rack-1 scheduler degrades at 14 s: scope leak.
        push_on(&mut rec, 14 * SEC, 2, EventKind::DegradedEnter { age_ns: 4 * SEC });
        push_on(&mut rec, 20 * SEC, 0, EventKind::FaultInjected { kind: 10, detail: 0 });
        let rep = audit(&rec.finish(rack_meta()), &AuditConfig::default());
        assert!(!rep.passed());
        assert_eq!(rep.violations_of(Invariant::RackScopedRecovery), 1);
        assert!(rep.violations[0].detail.contains("unaffected rack 1"));
    }

    #[test]
    fn affected_rack_degrading_and_reconverging_passes() {
        let mut rec = FlightRecorder::new(4, 64);
        push_on(&mut rec, 10 * SEC, 0, EventKind::FaultInjected { kind: 7, detail: 0 });
        // A rack-0 scheduler degrades mid-fault and exits 1 s after the
        // heal — inside the 2-sync-period grace.
        push_on(&mut rec, 14 * SEC, 1, EventKind::DegradedEnter { age_ns: 4 * SEC });
        push_on(&mut rec, 20 * SEC, 0, EventKind::FaultInjected { kind: 8, detail: 0 });
        push_on(&mut rec, 21 * SEC, 1, EventKind::DegradedExit { dark_ns: 7 * SEC });
        let rep = audit(&rec.finish(rack_meta()), &AuditConfig::default());
        assert!(rep.passed(), "in-scope degrade + timely exit must pass");
        // Scope decision + met deadline were both evaluated.
        assert_eq!(rep.rack_checks, 2);
    }

    #[test]
    fn late_reconvergence_is_flagged() {
        let mut rec = FlightRecorder::new(4, 64);
        push_on(&mut rec, 10 * SEC, 0, EventKind::FaultInjected { kind: 9, detail: 0 });
        push_on(&mut rec, 14 * SEC, 0, EventKind::DegradedEnter { age_ns: 4 * SEC });
        push_on(&mut rec, 20 * SEC, 0, EventKind::FaultInjected { kind: 10, detail: 0 });
        // Still degraded and demonstrably alive at 23 s — 3 s past the
        // heal, beyond the 2 s grace.
        push_on(&mut rec, 23 * SEC, 0, EventKind::Completed {
            io: 0, app: 1, bytes: 1 << 20, write: false, latency_ns: 1000,
        });
        // Only one violation even with more late completions.
        push_on(&mut rec, 24 * SEC, 0, EventKind::Completed {
            io: 1, app: 1, bytes: 1 << 20, write: false, latency_ns: 1000,
        });
        let rep = audit(&rec.finish(rack_meta()), &AuditConfig::default());
        assert_eq!(rep.violations_of(Invariant::RackScopedRecovery), 1);
        assert!(rep.violations[0].detail.contains("still degraded"));
    }

    #[test]
    fn mixed_fault_kinds_disarm_rack_scope_checks() {
        let mut rec = FlightRecorder::new(4, 64);
        // Same leak as unaffected_rack_degrading_is_flagged…
        push_on(&mut rec, 10 * SEC, 0, EventKind::FaultInjected { kind: 9, detail: 0 });
        push_on(&mut rec, 14 * SEC, 2, EventKind::DegradedEnter { age_ns: 4 * SEC });
        push_on(&mut rec, 20 * SEC, 0, EventKind::FaultInjected { kind: 10, detail: 0 });
        // …but a broker outage marker means any rack may legally degrade.
        push_on(&mut rec, 5 * SEC, 0, EventKind::FaultInjected { kind: 0, detail: 0 });
        let rep = audit(&rec.finish(rack_meta()), &AuditConfig::default());
        assert!(rep.passed());
        assert_eq!(rep.rack_checks, 0);
    }

    #[test]
    fn crashed_nodes_are_exempt_from_rack_scope() {
        let mut rec = FlightRecorder::new(4, 64);
        push_on(&mut rec, 10 * SEC, 0, EventKind::FaultInjected { kind: 9, detail: 0 });
        // Node 2 (rack 1) carries a crash marker: its degrade during the
        // rack-0 fault window is its own business.
        push_on(&mut rec, 12 * SEC, 2, EventKind::FaultInjected { kind: 3, detail: 0 });
        push_on(&mut rec, 14 * SEC, 2, EventKind::DegradedEnter { age_ns: 4 * SEC });
        push_on(&mut rec, 20 * SEC, 0, EventKind::FaultInjected { kind: 10, detail: 0 });
        let rep = audit(&rec.finish(rack_meta()), &AuditConfig::default());
        assert!(rep.passed());
    }

    #[test]
    fn broker_total_regression_across_failover_is_flagged() {
        let mut rec = FlightRecorder::new(4, 64);
        push_on(&mut rec, 10 * SEC, 0, EventKind::FaultInjected { kind: 7, detail: 0 });
        push_on(&mut rec, 11 * SEC, 1, EventKind::BrokerSync { app: 1, total: 600 });
        push_on(&mut rec, 16 * SEC, 0, EventKind::FaultInjected { kind: 8, detail: 0 });
        // A post-failover reply showing less total service than already
        // reported means the resync pulled the root backwards.
        push_on(&mut rec, 19 * SEC, 1, EventKind::BrokerSync { app: 1, total: 500 });
        let rep = audit(&rec.finish(rack_meta()), &AuditConfig::default());
        assert_eq!(rep.violations_of(Invariant::RackScopedRecovery), 1);
        assert!(rep.violations[0].detail.contains("regressed"));
        assert_eq!(rep.rack_checks, 2);
    }

    #[test]
    fn no_rack_markers_means_rack_checks_are_vacuous() {
        // Rack metadata present but no rack fault markers: monotone totals
        // are not sampled and nothing is checked.
        let mut rec = FlightRecorder::new(4, 64);
        push_on(&mut rec, SEC, 1, EventKind::BrokerSync { app: 1, total: 600 });
        push_on(&mut rec, 2 * SEC, 1, EventKind::BrokerSync { app: 1, total: 500 });
        let rep = audit(&rec.finish(rack_meta()), &AuditConfig::default());
        assert!(rep.passed());
        assert_eq!(rep.rack_checks, 0);
    }

    #[test]
    fn empty_recording_passes() {
        let rec = FlightRecorder::new(4, 8).finish(RecordingMeta::default());
        let mut rep = audit(&rec, &AuditConfig::default());
        assert!(rep.passed());
        assert!(rep.summary().starts_with("PASS"));
    }
}
