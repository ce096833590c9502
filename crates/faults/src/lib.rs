//! Deterministic fault injection for the IBIS cluster engine.
//!
//! The paper's §5 coordination design (DSFQ) is argued to tolerate
//! *imprecise* total-service information. This crate supplies the
//! machinery to demonstrate that claim: a seeded, virtual-time fault
//! schedule that the engine consults at well-defined points (broker
//! syncs, device dispatches, node lifecycle). Every decision is a pure
//! function of the schedule and the injection site — no hidden RNG
//! state — so a fault run replays byte-for-byte regardless of worker
//! count, exactly like the fault-free sweep.
//!
//! Fault kinds (the tentpole's three axes):
//!
//! * **Control plane** — [`Fault::BrokerOutage`] (syncs fail outright),
//!   [`Fault::DelayReplies`] (reports land, replies arrive late), and
//!   [`Fault::DropReports`] (a deterministic 1-in-N subset of per-device
//!   reports is lost in flight).
//! * **Control plane, message-level** — [`Fault::DupReports`] and
//!   [`Fault::ReorderReports`]: a deterministic 1-in-N subset of
//!   per-device reports is delivered twice, or held by the network and
//!   delivered after the sender's next message. Both only make sense on
//!   the sequence-numbered hierarchical plane, which detects and absorbs
//!   them; the flat broker rejects such schedules at engine start-up.
//! * **Failure domains** — [`Fault::AggregatorCrash`]: a rack's leaf
//!   aggregator dies, losing its accumulated coordination state, and
//!   restarts *empty* at the window's end; [`Fault::RackPartition`]: a
//!   rack's entire control-plane exchange (scheduler↔leaf and leaf↔root)
//!   is cut for the window while its data plane keeps serving.
//! * **Nodes** — [`Fault::NodeCrash`]: a datanode dies at a virtual
//!   time, aborting in-flight I/O and running tasks, optionally
//!   restarting after a delay with cold devices.
//! * **Devices** — [`Fault::DeviceSlowdown`]: a straggler window during
//!   which one device's service times stretch by a factor.
//!
//! Like `ibis-obs` and `ibis-metrics`, the subsystem is zero-cost when
//! disabled: the engine holds no fault state, schedules no events, and
//! produces byte-identical results with the crate compiled in.

#![forbid(unsafe_code)]

use ibis_simcore::{SimDuration, SimTime};

/// One scheduled fault. Times are virtual (simulation) times.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// The scheduling broker is unreachable during `[start, start+duration)`:
    /// reports fail (locals retry with backoff) and no replies arrive.
    BrokerOutage {
        /// Outage onset.
        start: SimTime,
        /// Outage length.
        duration: SimDuration,
    },
    /// Reports reach the broker but replies are delivered `delay` late
    /// during the window — stale totals instead of no totals.
    DelayReplies {
        /// Window onset.
        start: SimTime,
        /// Window length.
        duration: SimDuration,
        /// Added reply latency.
        delay: SimDuration,
    },
    /// During the window, each per-device service report is lost with
    /// probability 1/`one_in`, decided by a deterministic hash of
    /// (schedule seed, node, device, sync index).
    DropReports {
        /// Window onset.
        start: SimTime,
        /// Window length.
        duration: SimDuration,
        /// Drop one report in this many (1 = drop all).
        one_in: u64,
    },
    /// Datanode `node` crashes at `at`: in-flight I/O on its devices is
    /// aborted, running tasks are re-queued, and HDFS reads fail over to
    /// surviving replicas. With `restart_after` set the node rejoins that
    /// much later with cold (rebuilt) devices and schedulers.
    NodeCrash {
        /// The crashing datanode.
        node: u32,
        /// Crash instant.
        at: SimTime,
        /// Rejoin delay; `None` = the node stays dark forever.
        restart_after: Option<SimDuration>,
    },
    /// During the window, each per-device service report is delivered
    /// *twice* with probability 1/`one_in` (same deterministic coin shape
    /// as [`Fault::DropReports`], different salt). Exercises the
    /// hierarchical plane's seq-keyed idempotency guard.
    DupReports {
        /// Window onset.
        start: SimTime,
        /// Window length.
        duration: SimDuration,
        /// Duplicate one report in this many (1 = duplicate all).
        one_in: u64,
    },
    /// During the window, each per-device service report is held by the
    /// network with probability 1/`one_in` and delivered only after the
    /// sender's *next* message — a genuine out-of-order arrival that the
    /// receiver must detect as a gap and repair by snapshot resync.
    ReorderReports {
        /// Window onset.
        start: SimTime,
        /// Window length.
        duration: SimDuration,
        /// Reorder one report in this many (1 = reorder all).
        one_in: u64,
    },
    /// The leaf aggregator serving `rack` crashes at `start`, taking its
    /// accumulated per-node coordination state with it, and restarts
    /// **empty** at `start + duration`. While down, the rack's schedulers
    /// get no replies (and age toward degraded); after restart the leaf
    /// reconstructs state from its schedulers' epoch-bumped full
    /// re-reports and snapshot-resyncs its rack aggregate to the root.
    AggregatorCrash {
        /// The rack whose leaf aggregator dies.
        rack: u32,
        /// Crash instant.
        start: SimTime,
        /// Down time; the leaf restarts empty at `start + duration`.
        duration: SimDuration,
    },
    /// Control-plane partition of `rack` during the window: the rack's
    /// scheduler↔leaf and leaf↔root exchanges are all cut (its data plane
    /// keeps serving I/O). Schedulers inside the rack go Stale/Dark and
    /// fall back to pure-local SFQ(D2); the rest of the cluster stays
    /// Fresh. Deltas accumulate on the senders and flow after heal.
    RackPartition {
        /// The isolated rack.
        rack: u32,
        /// Window onset.
        start: SimTime,
        /// Window length.
        duration: SimDuration,
    },
    /// Device (`node`, `dev`) is a straggler during the window: service
    /// times of requests dispatched inside it stretch by `factor`.
    DeviceSlowdown {
        /// Node owning the device.
        node: u32,
        /// Device index (0 = HDFS, 1 = scratch).
        dev: u8,
        /// Service-time multiplier (> 0; > 1 slows the device down).
        factor: f64,
        /// Window onset.
        start: SimTime,
        /// Window length.
        duration: SimDuration,
    },
}

impl Fault {
    fn check(&self) -> Result<(), String> {
        match self {
            Fault::BrokerOutage { duration, .. }
            | Fault::DelayReplies { duration, .. }
            | Fault::DropReports { duration, .. }
            | Fault::DupReports { duration, .. }
            | Fault::ReorderReports { duration, .. }
            | Fault::AggregatorCrash { duration, .. }
            | Fault::RackPartition { duration, .. }
            | Fault::DeviceSlowdown { duration, .. }
                if duration.is_zero() =>
            {
                Err(format!("fault window must have nonzero duration: {self:?}"))
            }
            Fault::DelayReplies { delay, .. } if delay.is_zero() => {
                Err(format!("reply delay must be nonzero: {self:?}"))
            }
            Fault::DropReports { one_in: 0, .. }
            | Fault::DupReports { one_in: 0, .. }
            | Fault::ReorderReports { one_in: 0, .. } => {
                Err(format!("report-fault rate 1-in-0 is meaningless: {self:?}"))
            }
            Fault::DeviceSlowdown { factor, .. } if factor.is_nan() || *factor <= 0.0 => {
                Err(format!("slowdown factor must be positive: {self:?}"))
            }
            _ => Ok(()),
        }
    }
}

/// Is `at` inside `[start, start + duration)`?
fn in_window(at: SimTime, start: SimTime, duration: SimDuration) -> bool {
    at >= start && at.saturating_since(start) < duration
}

/// Salt decorrelating [`Fault::DupReports`] coins from drop coins at the
/// same (node, dev, sync) site.
const DUP_SALT: u64 = 0x5EED_D0B1_0000_0001;
/// Salt decorrelating [`Fault::ReorderReports`] coins from both.
const REORDER_SALT: u64 = 0x5EED_12E0_0000_0002;

/// SplitMix64 finalizer — the deterministic coin used for
/// [`Fault::DropReports`] / dup / reorder decisions.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A validated, time-sorted list of faults plus the seed for per-site
/// hash decisions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    faults: Vec<Fault>,
    /// Seed mixed into drop-report coin flips.
    pub seed: u64,
}

impl FaultSchedule {
    /// An empty schedule (injects nothing).
    pub fn new(seed: u64) -> Self {
        FaultSchedule {
            faults: Vec::new(),
            seed,
        }
    }

    /// Adds a fault, panicking on malformed parameters (builder style).
    pub fn push(mut self, fault: Fault) -> Self {
        if let Err(e) = fault.check() {
            panic!("{e}");
        }
        self.faults.push(fault);
        self
    }

    /// Builder: broker outage window.
    pub fn broker_outage(self, start: SimTime, duration: SimDuration) -> Self {
        self.push(Fault::BrokerOutage { start, duration })
    }

    /// Builder: delayed-replies window.
    pub fn delay_replies(self, start: SimTime, duration: SimDuration, delay: SimDuration) -> Self {
        self.push(Fault::DelayReplies {
            start,
            duration,
            delay,
        })
    }

    /// Builder: dropped-reports window.
    pub fn drop_reports(self, start: SimTime, duration: SimDuration, one_in: u64) -> Self {
        self.push(Fault::DropReports {
            start,
            duration,
            one_in,
        })
    }

    /// Builder: duplicated-reports window.
    pub fn dup_reports(self, start: SimTime, duration: SimDuration, one_in: u64) -> Self {
        self.push(Fault::DupReports {
            start,
            duration,
            one_in,
        })
    }

    /// Builder: reordered-reports window.
    pub fn reorder_reports(self, start: SimTime, duration: SimDuration, one_in: u64) -> Self {
        self.push(Fault::ReorderReports {
            start,
            duration,
            one_in,
        })
    }

    /// Builder: leaf-aggregator crash (restarts empty at window end).
    pub fn aggregator_crash(self, rack: u32, start: SimTime, duration: SimDuration) -> Self {
        self.push(Fault::AggregatorCrash {
            rack,
            start,
            duration,
        })
    }

    /// Builder: rack control-plane partition window.
    pub fn rack_partition(self, rack: u32, start: SimTime, duration: SimDuration) -> Self {
        self.push(Fault::RackPartition {
            rack,
            start,
            duration,
        })
    }

    /// Builder: node crash (optionally restarting).
    pub fn node_crash(self, node: u32, at: SimTime, restart_after: Option<SimDuration>) -> Self {
        self.push(Fault::NodeCrash {
            node,
            at,
            restart_after,
        })
    }

    /// Builder: device straggler window.
    pub fn device_slowdown(
        self,
        node: u32,
        dev: u8,
        factor: f64,
        start: SimTime,
        duration: SimDuration,
    ) -> Self {
        self.push(Fault::DeviceSlowdown {
            node,
            dev,
            factor,
            start,
            duration,
        })
    }

    /// All scheduled faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Is the broker unreachable at `at`?
    pub fn broker_dark(&self, at: SimTime) -> bool {
        self.faults.iter().any(|f| match f {
            Fault::BrokerOutage { start, duration } => in_window(at, *start, *duration),
            _ => false,
        })
    }

    /// Added reply latency at `at` (the longest active window wins), or
    /// `None` when replies are prompt.
    pub fn reply_delay(&self, at: SimTime) -> Option<SimDuration> {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::DelayReplies {
                    start,
                    duration,
                    delay,
                } if in_window(at, *start, *duration) => Some(*delay),
                _ => None,
            })
            .max()
    }

    /// The shared 1-in-N coin: true when the hash of (seed ⊕ salt, node,
    /// dev, sync index) selects this site.
    fn report_coin(&self, salt: u64, node: u32, dev: u8, sync_index: u64, one_in: u64) -> bool {
        let h = mix64(self.seed ^ salt ^ ((node as u64) << 40) ^ ((dev as u64) << 32) ^ sync_index);
        h.is_multiple_of(one_in)
    }

    /// Should the report from (`node`, `dev`) at sync number `sync_index`
    /// be dropped? Pure function of the schedule — independent of
    /// evaluation order and worker count.
    pub fn drop_report(&self, at: SimTime, node: u32, dev: u8, sync_index: u64) -> bool {
        self.faults.iter().any(|f| match f {
            Fault::DropReports {
                start,
                duration,
                one_in,
            } if in_window(at, *start, *duration) => {
                self.report_coin(0, node, dev, sync_index, *one_in)
            }
            _ => false,
        })
    }

    /// Should the report from (`node`, `dev`) at sync number `sync_index`
    /// be delivered twice? Same determinism contract as
    /// [`FaultSchedule::drop_report`], decorrelated by salt.
    pub fn dup_report(&self, at: SimTime, node: u32, dev: u8, sync_index: u64) -> bool {
        self.faults.iter().any(|f| match f {
            Fault::DupReports {
                start,
                duration,
                one_in,
            } if in_window(at, *start, *duration) => {
                self.report_coin(DUP_SALT, node, dev, sync_index, *one_in)
            }
            _ => false,
        })
    }

    /// Should the report from (`node`, `dev`) at sync number `sync_index`
    /// be held and delivered after the sender's next message?
    pub fn reorder_report(&self, at: SimTime, node: u32, dev: u8, sync_index: u64) -> bool {
        self.faults.iter().any(|f| match f {
            Fault::ReorderReports {
                start,
                duration,
                one_in,
            } if in_window(at, *start, *duration) => {
                self.report_coin(REORDER_SALT, node, dev, sync_index, *one_in)
            }
            _ => false,
        })
    }

    /// Is `rack`'s leaf aggregator down at `at`?
    pub fn agg_down(&self, at: SimTime, rack: u32) -> bool {
        self.faults.iter().any(|f| match f {
            Fault::AggregatorCrash {
                rack: r,
                start,
                duration,
            } => *r == rack && in_window(at, *start, *duration),
            _ => false,
        })
    }

    /// Is `rack` control-plane partitioned at `at`?
    pub fn rack_partitioned(&self, at: SimTime, rack: u32) -> bool {
        self.faults.iter().any(|f| match f {
            Fault::RackPartition {
                rack: r,
                start,
                duration,
            } => *r == rack && in_window(at, *start, *duration),
            _ => false,
        })
    }

    /// Is `rack` unreachable on the coordination plane at `at` — its leaf
    /// aggregator down, or the rack partitioned? The engine's per-round
    /// gate for skipping a rack's exchanges.
    pub fn rack_dark(&self, at: SimTime, rack: u32) -> bool {
        self.agg_down(at, rack) || self.rack_partitioned(at, rack)
    }

    /// True when any rack-scoped fault ([`Fault::AggregatorCrash`] /
    /// [`Fault::RackPartition`]) or sequence-protocol wire fault
    /// ([`Fault::DupReports`] / [`Fault::ReorderReports`]) is scheduled —
    /// these require the hierarchical coordination plane.
    pub fn needs_tree(&self) -> bool {
        self.faults.iter().any(|f| {
            matches!(
                f,
                Fault::AggregatorCrash { .. }
                    | Fault::RackPartition { .. }
                    | Fault::DupReports { .. }
                    | Fault::ReorderReports { .. }
            )
        })
    }

    /// Validates every rack-scoped fault against the cluster's actual
    /// rack count, with a parse-style error naming the offending spec —
    /// the engine calls this at start-up, once the topology is known.
    pub fn validate_racks(&self, racks: u32) -> Result<(), String> {
        for f in &self.faults {
            let rack = match f {
                Fault::AggregatorCrash { rack, .. } | Fault::RackPartition { rack, .. } => *rack,
                _ => continue,
            };
            if rack >= racks {
                return Err(format!(
                    "fault {f:?} targets rack {rack}, but the cluster has {racks} rack{} \
                     (valid: 0..={})",
                    if racks == 1 { "" } else { "s" },
                    racks.saturating_sub(1),
                ));
            }
        }
        Ok(())
    }

    /// Combined service-time stretch for (`node`, `dev`) at `at`
    /// (overlapping windows multiply); `1.0` when healthy.
    pub fn slowdown(&self, at: SimTime, node: u32, dev: u8) -> f64 {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::DeviceSlowdown {
                    node: n,
                    dev: d,
                    factor,
                    start,
                    duration,
                } if *n == node && *d == dev && in_window(at, *start, *duration) => Some(*factor),
                _ => None,
            })
            .product()
    }

    /// True when any device-slowdown fault is scheduled — lets the engine
    /// skip the per-dispatch lookup entirely for schedules without
    /// stragglers.
    pub fn has_slowdowns(&self) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, Fault::DeviceSlowdown { .. }))
    }

    /// Parses the `IBIS_FAULTS` mini-language: a `;`/`,`-separated list
    /// of fault specs (whitespace ignored):
    ///
    /// * `broker@START+DUR` — broker outage
    /// * `delay@START+DUR:LAT` — replies delayed by `LAT`
    /// * `drop@START+DUR:N` — drop 1 report in `N`
    /// * `dup@START+DUR:N` — deliver 1 report in `N` twice
    /// * `reorder@START+DUR:N` — hold 1 report in `N` until after the
    ///   sender's next message
    /// * `agg:RACK@START+DUR` — rack `RACK`'s leaf aggregator crashes,
    ///   restarting empty at the window's end
    /// * `partition:RACK@START+DUR` — rack `RACK` control-plane partition
    /// * `crash@START:nNODE` — permanent node crash
    /// * `crash@START+RESTART:nNODE` — crash, rejoin `RESTART` later
    /// * `slow@START+DUR:nNODE:dDEV:xFACTOR` — device straggler
    ///
    /// Rack ids are validated against the actual rack count at engine
    /// start-up via [`FaultSchedule::validate_racks`] (the parser cannot
    /// know the topology).
    ///
    /// Times/durations take `ns`, `us`, `ms`, `s` or `m` suffixes
    /// (`90s`, `1.5m`, `250ms`); bare numbers are seconds.
    pub fn parse(spec: &str, seed: u64) -> Result<Self, String> {
        let mut sched = FaultSchedule::new(seed);
        for part in spec.split([';', ',']) {
            let part: String = part.chars().filter(|c| !c.is_whitespace()).collect();
            if part.is_empty() {
                continue;
            }
            let fault = parse_fault(&part)?;
            fault.check()?;
            sched.faults.push(fault);
        }
        Ok(sched)
    }
}

/// Parses a duration like `10s`, `1.5m`, `250ms`, `64us`, `100ns` or a
/// bare number of seconds.
pub fn parse_duration(s: &str) -> Result<SimDuration, String> {
    let (num, scale) = if let Some(v) = s.strip_suffix("ns") {
        (v, 1e-9)
    } else if let Some(v) = s.strip_suffix("us") {
        (v, 1e-6)
    } else if let Some(v) = s.strip_suffix("ms") {
        (v, 1e-3)
    } else if let Some(v) = s.strip_suffix('s') {
        (v, 1.0)
    } else if let Some(v) = s.strip_suffix('m') {
        (v, 60.0)
    } else {
        (s, 1.0)
    };
    let val: f64 = num
        .parse()
        .map_err(|_| format!("bad duration {s:?} (want e.g. 90s, 1.5m, 250ms)"))?;
    if !val.is_finite() || val < 0.0 {
        return Err(format!("duration {s:?} must be finite and non-negative"));
    }
    Ok(SimDuration::from_secs_f64(val * scale))
}

fn parse_time(s: &str) -> Result<SimTime, String> {
    Ok(SimTime::ZERO + parse_duration(s)?)
}

/// Splits `head@START+DUR` / `head@START`, returning (head, start, dur).
fn parse_at(part: &str) -> Result<(&str, SimTime, Option<SimDuration>), String> {
    let (head, when) = part
        .split_once('@')
        .ok_or_else(|| format!("fault spec {part:?} missing '@START'"))?;
    let (start, dur) = match when.split_once('+') {
        Some((s, d)) => (parse_time(s)?, Some(parse_duration(d)?)),
        None => (parse_time(when)?, None),
    };
    Ok((head, start, dur))
}

fn parse_fault(part: &str) -> Result<Fault, String> {
    // Rack-scoped faults put the rack id between the kind and the window:
    // `agg:<rack>@START+DUR` / `partition:<rack>@START+DUR`.
    if let Some((kind, rest)) = part.split_once(':') {
        if kind == "agg" || kind == "partition" {
            let (rack_str, start, dur) = parse_at(rest)?;
            let rack: u32 = rack_str.parse().map_err(|_| {
                format!("bad rack id {rack_str:?} in {part:?} (want {kind}:<rack>@START+DUR)")
            })?;
            let duration = dur.ok_or_else(|| format!("fault spec {part:?} missing '+DURATION'"))?;
            return Ok(if kind == "agg" {
                Fault::AggregatorCrash {
                    rack,
                    start,
                    duration,
                }
            } else {
                Fault::RackPartition {
                    rack,
                    start,
                    duration,
                }
            });
        }
    }
    let mut fields = part.split(':');
    let head = fields.next().unwrap_or("");
    let (kind, start, dur) = parse_at(head)?;
    let rest: Vec<&str> = fields.collect();
    let need_dur = || dur.ok_or_else(|| format!("fault spec {part:?} missing '+DURATION'"));
    let field = |prefix: &str| -> Result<&str, String> {
        rest.iter()
            .find_map(|f| f.strip_prefix(prefix))
            .ok_or_else(|| format!("fault spec {part:?} missing '{prefix}…' field"))
    };
    match kind {
        "broker" => Ok(Fault::BrokerOutage {
            start,
            duration: need_dur()?,
        }),
        "delay" => {
            let lat = rest
                .first()
                .ok_or_else(|| format!("fault spec {part:?} missing ':LATENCY'"))?;
            Ok(Fault::DelayReplies {
                start,
                duration: need_dur()?,
                delay: parse_duration(lat)?,
            })
        }
        "drop" | "dup" | "reorder" => {
            let n = rest
                .first()
                .ok_or_else(|| format!("fault spec {part:?} missing ':N'"))?;
            let one_in = n
                .parse()
                .map_err(|_| format!("bad report-fault rate {n:?}"))?;
            let duration = need_dur()?;
            Ok(match kind {
                "drop" => Fault::DropReports {
                    start,
                    duration,
                    one_in,
                },
                "dup" => Fault::DupReports {
                    start,
                    duration,
                    one_in,
                },
                _ => Fault::ReorderReports {
                    start,
                    duration,
                    one_in,
                },
            })
        }
        "crash" => {
            let node = field("n")?;
            Ok(Fault::NodeCrash {
                node: node.parse().map_err(|_| format!("bad node {node:?}"))?,
                at: start,
                restart_after: dur,
            })
        }
        "slow" => {
            let node = field("n")?;
            let dev = field("d")?;
            let factor = field("x")?;
            Ok(Fault::DeviceSlowdown {
                node: node.parse().map_err(|_| format!("bad node {node:?}"))?,
                dev: dev.parse().map_err(|_| format!("bad device {dev:?}"))?,
                factor: factor
                    .parse()
                    .map_err(|_| format!("bad factor {factor:?}"))?,
                start,
                duration: need_dur()?,
            })
        }
        other => Err(format!("unknown fault kind {other:?} in {part:?}")),
    }
}

/// Fault-injection configuration, engine-facing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsConfig {
    /// Master switch. Off ⇒ the engine holds no fault state, schedules no
    /// events, and results are byte-identical to a build without faults.
    pub enabled: bool,
    /// What to inject, and when.
    pub schedule: FaultSchedule,
    /// A local scheduler whose last successful broker sync is older than
    /// this falls back to pure local SFQ(D2) (zero DSFQ delay) until the
    /// broker answers again. §5's graceful-degradation bound.
    pub staleness_bound: SimDuration,
    /// Base backoff for retrying a failed broker report; attempt *k*
    /// waits `retry_backoff · 2^k`.
    pub retry_backoff: SimDuration,
    /// Retry attempts per failed sync before giving up until the next
    /// regular sync tick.
    pub retry_limit: u32,
}

impl Default for FaultsConfig {
    fn default() -> Self {
        FaultsConfig {
            enabled: false,
            schedule: FaultSchedule::default(),
            staleness_bound: SimDuration::from_secs(3),
            retry_backoff: SimDuration::from_millis(100),
            retry_limit: 3,
        }
    }
}

impl FaultsConfig {
    /// Reads the environment:
    ///
    /// * `IBIS_FAULTS` — unset/`0` disables; `1` enables with an empty
    ///   schedule (armed but inert); anything else is parsed by
    ///   [`FaultSchedule::parse`].
    ///
    /// The schedule seed is 0xFA17, and the staleness bound and the retry
    /// policy keep their defaults; code that needs others sets the fields.
    ///
    /// A malformed schedule panics: a chaos run silently falling back to
    /// fault-free would invalidate the experiment.
    pub fn from_env() -> Self {
        let seed = 0xFA17;
        let mut cfg = FaultsConfig {
            schedule: FaultSchedule::new(seed),
            ..FaultsConfig::default()
        };
        match std::env::var("IBIS_FAULTS") {
            Ok(v) if v == "0" || v.is_empty() => {}
            Ok(v) if v == "1" => cfg.enabled = true,
            Ok(v) => {
                cfg.schedule = FaultSchedule::parse(&v, seed)
                    .unwrap_or_else(|e| panic!("bad IBIS_FAULTS: {e}"));
                cfg.enabled = true;
            }
            Err(_) => {}
        }
        cfg
    }

    /// True when faults are armed *and* something is scheduled — the
    /// engine's gate for building fault state.
    pub fn active(&self) -> bool {
        self.enabled && !self.schedule.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn windows_are_half_open() {
        let s = FaultSchedule::new(1).broker_outage(t(10), SimDuration::from_secs(5));
        assert!(!s.broker_dark(t(9)));
        assert!(s.broker_dark(t(10)));
        assert!(s.broker_dark(t(14)));
        assert!(!s.broker_dark(t(15)));
    }

    #[test]
    fn reply_delay_takes_longest_active_window() {
        let s = FaultSchedule::new(1)
            .delay_replies(
                t(0),
                SimDuration::from_secs(20),
                SimDuration::from_millis(200),
            )
            .delay_replies(
                t(5),
                SimDuration::from_secs(5),
                SimDuration::from_millis(700),
            );
        assert_eq!(s.reply_delay(t(2)), Some(SimDuration::from_millis(200)));
        assert_eq!(s.reply_delay(t(6)), Some(SimDuration::from_millis(700)));
        assert_eq!(s.reply_delay(t(30)), None);
    }

    #[test]
    fn drop_decisions_deterministic_and_seed_sensitive() {
        let mk = |seed| FaultSchedule::new(seed).drop_reports(t(0), SimDuration::from_secs(100), 3);
        let a = mk(7);
        let b = mk(7);
        let c = mk(8);
        let sites: Vec<bool> = (0..64)
            .map(|i| a.drop_report(t(1), i % 8, (i % 2) as u8, i as u64))
            .collect();
        let again: Vec<bool> = (0..64)
            .map(|i| b.drop_report(t(1), i % 8, (i % 2) as u8, i as u64))
            .collect();
        assert_eq!(sites, again, "same seed ⇒ same decisions");
        let other: Vec<bool> = (0..64)
            .map(|i| c.drop_report(t(1), i % 8, (i % 2) as u8, i as u64))
            .collect();
        assert_ne!(sites, other, "different seed ⇒ different coin flips");
        let dropped = sites.iter().filter(|&&d| d).count();
        assert!(
            dropped > 0 && dropped < 64,
            "1-in-3 should be partial: {dropped}"
        );
    }

    #[test]
    fn drop_all_when_one_in_one() {
        let s = FaultSchedule::new(9).drop_reports(t(0), SimDuration::from_secs(10), 1);
        assert!(s.drop_report(t(5), 3, 0, 42));
        assert!(!s.drop_report(t(15), 3, 0, 42), "outside the window");
    }

    #[test]
    fn slowdowns_multiply_and_filter_by_site() {
        let s = FaultSchedule::new(1)
            .device_slowdown(2, 0, 4.0, t(10), SimDuration::from_secs(10))
            .device_slowdown(2, 0, 2.0, t(15), SimDuration::from_secs(10));
        assert_eq!(s.slowdown(t(5), 2, 0), 1.0);
        assert_eq!(s.slowdown(t(12), 2, 0), 4.0);
        assert_eq!(s.slowdown(t(17), 2, 0), 8.0);
        assert_eq!(s.slowdown(t(22), 2, 0), 2.0);
        assert_eq!(s.slowdown(t(12), 2, 1), 1.0, "other device unaffected");
        assert_eq!(s.slowdown(t(12), 3, 0), 1.0, "other node unaffected");
        assert!(s.has_slowdowns());
        assert!(!FaultSchedule::new(1).has_slowdowns());
    }

    #[test]
    fn parse_round_trip() {
        let spec = "broker@20s+10s; delay@5s+10s:250ms; drop@0+1m:3; \
                    crash@30s:n2; crash@40s+15s:n5; slow@10s+30s:n1:d0:x4.5";
        let s = FaultSchedule::parse(spec, 0xFA17).expect("parse");
        assert_eq!(
            s.faults(),
            &[
                Fault::BrokerOutage {
                    start: t(20),
                    duration: SimDuration::from_secs(10)
                },
                Fault::DelayReplies {
                    start: t(5),
                    duration: SimDuration::from_secs(10),
                    delay: SimDuration::from_millis(250)
                },
                Fault::DropReports {
                    start: t(0),
                    duration: SimDuration::from_secs(60),
                    one_in: 3
                },
                Fault::NodeCrash {
                    node: 2,
                    at: t(30),
                    restart_after: None
                },
                Fault::NodeCrash {
                    node: 5,
                    at: t(40),
                    restart_after: Some(SimDuration::from_secs(15))
                },
                Fault::DeviceSlowdown {
                    node: 1,
                    dev: 0,
                    factor: 4.5,
                    start: t(10),
                    duration: SimDuration::from_secs(30)
                },
            ]
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "broker@20s",            // missing duration
            "delay@5s+10s",          // missing latency
            "drop@0+1m:0",           // 1-in-0
            "dup@0+1m:0",            // 1-in-0
            "reorder@0+1m:0",        // 1-in-0
            "crash:n2",              // missing @START
            "slow@10s+30s:n1:d0",    // missing factor
            "slow@10s+30s:n1:d0:x0", // zero factor
            "flood@0+1s",            // unknown kind
            "broker@abc+1s",         // bad number
            "agg@10s+5s",            // missing rack id
            "agg:x@10s+5s",          // non-numeric rack id
            "agg:1@10s",             // missing duration
            "partition:@10s+5s",     // empty rack id
            "partition:2@zz+5s",     // bad start
        ] {
            assert!(
                FaultSchedule::parse(bad, 1).is_err(),
                "{bad:?} should not parse"
            );
        }
    }

    #[test]
    fn parse_accepts_rack_and_wire_fault_specs() {
        let s = FaultSchedule::parse(
            "agg:1@10s+5s; partition:2@20s+4s; dup@0+1m:7; reorder@5s+10s:3",
            0xFA17,
        )
        .expect("parse");
        assert_eq!(
            s.faults(),
            &[
                Fault::AggregatorCrash {
                    rack: 1,
                    start: t(10),
                    duration: SimDuration::from_secs(5)
                },
                Fault::RackPartition {
                    rack: 2,
                    start: t(20),
                    duration: SimDuration::from_secs(4)
                },
                Fault::DupReports {
                    start: t(0),
                    duration: SimDuration::from_secs(60),
                    one_in: 7
                },
                Fault::ReorderReports {
                    start: t(5),
                    duration: SimDuration::from_secs(10),
                    one_in: 3
                },
            ]
        );
        assert!(s.needs_tree());
        assert!(!FaultSchedule::new(1)
            .broker_outage(t(1), SimDuration::from_secs(1))
            .needs_tree());
    }

    #[test]
    fn rack_windows_scope_to_one_rack() {
        let s = FaultSchedule::new(1)
            .aggregator_crash(1, t(10), SimDuration::from_secs(5))
            .rack_partition(2, t(20), SimDuration::from_secs(4));
        assert!(s.agg_down(t(12), 1));
        assert!(!s.agg_down(t(12), 2), "other rack's aggregator is up");
        assert!(!s.agg_down(t(15), 1), "window is half-open");
        assert!(s.rack_partitioned(t(20), 2));
        assert!(!s.rack_partitioned(t(20), 1));
        assert!(s.rack_dark(t(12), 1) && s.rack_dark(t(21), 2));
        assert!(!s.rack_dark(t(12), 2) && !s.rack_dark(t(21), 1));
    }

    #[test]
    fn validate_racks_rejects_out_of_range_ids() {
        let s = FaultSchedule::parse("agg:4@10s+5s", 1).expect("syntactically valid");
        let err = s
            .validate_racks(4)
            .expect_err("rack 4 of 4 is out of range");
        assert!(
            err.contains("rack 4") && err.contains("valid: 0..=3"),
            "error should name the bad rack and the valid range: {err}"
        );
        assert!(s.validate_racks(5).is_ok());
        assert!(FaultSchedule::parse("partition:0@1s+1s", 1)
            .unwrap()
            .validate_racks(1)
            .is_ok());
    }

    #[test]
    fn dup_and_reorder_coins_decorrelate_from_drop() {
        let s = FaultSchedule::new(7)
            .drop_reports(t(0), SimDuration::from_secs(100), 3)
            .dup_reports(t(0), SimDuration::from_secs(100), 3)
            .reorder_reports(t(0), SimDuration::from_secs(100), 3);
        let drops: Vec<bool> = (0..256)
            .map(|i| s.drop_report(t(1), i % 8, (i % 2) as u8, i as u64))
            .collect();
        let dups: Vec<bool> = (0..256)
            .map(|i| s.dup_report(t(1), i % 8, (i % 2) as u8, i as u64))
            .collect();
        let reorders: Vec<bool> = (0..256)
            .map(|i| s.reorder_report(t(1), i % 8, (i % 2) as u8, i as u64))
            .collect();
        assert_ne!(drops, dups, "dup coin must not mirror the drop coin");
        assert_ne!(dups, reorders, "reorder coin must not mirror the dup coin");
        assert!(dups.iter().any(|&d| d) && reorders.iter().any(|&d| d));
        assert!(!s.dup_report(t(200), 0, 0, 1), "outside the window");
    }

    #[test]
    fn duration_suffixes() {
        assert_eq!(parse_duration("90s").unwrap(), SimDuration::from_secs(90));
        assert_eq!(parse_duration("1.5m").unwrap(), SimDuration::from_secs(90));
        assert_eq!(
            parse_duration("250ms").unwrap(),
            SimDuration::from_millis(250)
        );
        assert_eq!(
            parse_duration("64us").unwrap(),
            SimDuration::from_micros(64)
        );
        assert_eq!(
            parse_duration("100ns").unwrap(),
            SimDuration::from_nanos(100)
        );
        assert_eq!(parse_duration("5").unwrap(), SimDuration::from_secs(5));
        assert!(parse_duration("-1s").is_err());
        assert!(parse_duration("nan").is_err());
    }

    #[test]
    fn default_config_is_inert() {
        let cfg = FaultsConfig::default();
        assert!(!cfg.enabled);
        assert!(!cfg.active());
        let armed = FaultsConfig {
            enabled: true,
            ..FaultsConfig::default()
        };
        assert!(!armed.active(), "armed but empty schedule stays inert");
    }
}
