//! Overload protection: admission control and the brownout state machine.
//!
//! `goccd` protects itself from saturation with three cooperating
//! mechanisms, all of which live here so they can be unit-tested against a
//! deterministic [`gocc_faultplane::LoadFaultPlan`] with no sockets and no
//! wall-clock load:
//!
//! * **Cost-aware admission** ([`BrownoutController::admit`]): each verb
//!   carries a [`VerbClass`]; expensive classes (SCAN, STATS) are shed at
//!   half the queue limit, cheap data verbs at the full limit, and
//!   control-plane verbs (HEALTH, SHUTDOWN) are always admitted so an
//!   operator can still observe and stop an overloaded server.
//! * **Brownout degradation**: an EWMA of per-pump queue depth and request
//!   latency drives a three-state machine — `Healthy → Degraded →
//!   Shedding` — that escalates one step per overloaded observation and
//!   de-escalates one step after [`BrownoutConfig::recover_obs`]
//!   consecutive calm observations. `Degraded` rejects SCAN and rate-caps
//!   STATS; `Shedding` additionally rejects all writes, keeping only GETs
//!   and the control plane.
//! * **Shed accounting**: every rejection carries a [`ShedCause`] so the
//!   STATS document (and `overload_soak`, which reads it) can attribute
//!   load shedding to its mechanism.
//!
//! The controller is deliberately cheap on the admit path: the state is
//! one `AtomicU8` load, and the EWMAs behind the mutex are touched only
//! once per worker pump pass, never per request.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use gocc_telemetry::Ewma;
use gocc_wire::Request;

/// The server's overload state, reported by the HEALTH verb.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum HealthState {
    /// Normal operation; only queue limits apply.
    Healthy = 0,
    /// Pressure detected: SCAN rejected, STATS rate-capped.
    Degraded = 1,
    /// Saturated: additionally rejects all non-GET data verbs.
    Shedding = 2,
}

impl HealthState {
    /// Decodes the wire byte; unknown values clamp to `Shedding` (the
    /// conservative reading for a client deciding whether to back off).
    #[must_use]
    pub fn from_u8(v: u8) -> HealthState {
        match v {
            0 => HealthState::Healthy,
            1 => HealthState::Degraded,
            _ => HealthState::Shedding,
        }
    }

    /// Stable lowercase name, used in STATS and bench artifacts.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Shedding => "shedding",
        }
    }
}

/// Admission cost class of a verb.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerbClass {
    /// GET: cheapest, served even while shedding.
    Read,
    /// SET/DEL/INCR: cheap, rejected only while shedding.
    Write,
    /// SCAN: walks every shard; first to go.
    Scan,
    /// STATS/TRACE: render the full telemetry document or drain the span
    /// ring; rate-capped under pressure.
    Stats,
    /// HEALTH/SHUTDOWN: always admitted.
    Control,
}

/// Classifies a decoded request for admission.
#[must_use]
pub fn classify(req: &Request<'_>) -> VerbClass {
    match req {
        Request::Get { .. } | Request::GetS { .. } => VerbClass::Read,
        Request::Set { .. } | Request::Del { .. } | Request::Incr { .. } | Request::SetS { .. } => {
            VerbClass::Write
        }
        Request::Scan { .. } => VerbClass::Scan,
        Request::Stats | Request::Trace { .. } => VerbClass::Stats,
        // FLUSH is control-plane: it is the operator's durability barrier,
        // and shedding it would let an overloaded server dodge the very
        // fsync pressure the operator is trying to observe. A replication
        // verb is handled before admission; it would be control-plane too.
        Request::Health | Request::Shutdown | Request::Flush | Request::Repl(_) => {
            VerbClass::Control
        }
    }
}

/// Why a request was shed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedCause {
    /// Queue depth reached the full limit (any data verb).
    QueueFull,
    /// Queue depth reached the expensive-verb tier (half the limit).
    QueueExpensive,
    /// SCAN rejected in `Degraded` or `Shedding`.
    DegradedScan,
    /// STATS exceeded the degraded-mode rate cap.
    DegradedStats,
    /// Write-class verb rejected in `Shedding`.
    SheddingWrite,
}

impl ShedCause {
    /// Stable index into [`SHED_CAUSE_NAMES`] and counter arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            ShedCause::QueueFull => 0,
            ShedCause::QueueExpensive => 1,
            ShedCause::DegradedScan => 2,
            ShedCause::DegradedStats => 3,
            ShedCause::SheddingWrite => 4,
        }
    }
}

/// Names matching [`ShedCause::index`], for reports.
pub const SHED_CAUSE_NAMES: [&str; 5] = [
    "queue_full",
    "queue_expensive",
    "degraded_scan",
    "degraded_stats",
    "shedding_write",
];

/// Brownout transition edges, indexed into [`BrownoutController::transitions`].
pub const TRANSITION_NAMES: [&str; 4] = [
    "healthy_to_degraded",
    "degraded_to_shedding",
    "shedding_to_degraded",
    "degraded_to_healthy",
];

/// Thresholds and smoothing for the brownout state machine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BrownoutConfig {
    /// EWMA smoothing factor for both signals, in `(0, 1]`.
    pub alpha: f64,
    /// Escalate when the queue-depth EWMA exceeds this.
    pub depth_high: f64,
    /// A calm observation needs the depth EWMA below this.
    pub depth_low: f64,
    /// Escalate when the request-latency EWMA exceeds this.
    pub latency_high: Duration,
    /// A calm observation needs the latency EWMA below this.
    pub latency_low: Duration,
    /// Consecutive calm observations required to de-escalate one step.
    pub recover_obs: u32,
    /// Minimum spacing between admitted STATS while degraded or shedding.
    pub stats_min_interval: Duration,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig {
            alpha: 0.2,
            depth_high: 128.0,
            depth_low: 16.0,
            latency_high: Duration::from_millis(5),
            latency_low: Duration::from_millis(1),
            recover_obs: 10,
            stats_min_interval: Duration::from_millis(100),
        }
    }
}

/// Signal EWMAs and the de-escalation streak, touched once per pump pass.
#[derive(Debug)]
struct Signals {
    depth: Ewma,
    latency_ns: Ewma,
    calm_streak: u32,
}

/// The three-state brownout machine shared by every worker.
///
/// [`observe`](BrownoutController::observe) is called once per worker pump
/// pass; [`admit`](BrownoutController::admit) per request but touches only
/// the atomic state.
#[derive(Debug)]
pub struct BrownoutController {
    cfg: BrownoutConfig,
    state: AtomicU8,
    signals: Mutex<Signals>,
    transitions: [AtomicU64; 4],
    last_stats: Mutex<Option<Instant>>,
}

impl BrownoutController {
    /// A controller starting `Healthy` with unprimed signals.
    #[must_use]
    pub fn new(cfg: BrownoutConfig) -> Self {
        BrownoutController {
            state: AtomicU8::new(HealthState::Healthy as u8),
            signals: Mutex::new(Signals {
                depth: Ewma::new(cfg.alpha),
                latency_ns: Ewma::new(cfg.alpha),
                calm_streak: 0,
            }),
            transitions: Default::default(),
            last_stats: Mutex::new(None),
            cfg,
        }
    }

    /// The configuration this controller runs with.
    #[must_use]
    pub fn config(&self) -> &BrownoutConfig {
        &self.cfg
    }

    /// Current state (one relaxed atomic load; safe on the admit path).
    #[must_use]
    pub fn state(&self) -> HealthState {
        HealthState::from_u8(self.state.load(Ordering::Relaxed))
    }

    /// Counts per transition edge, indexed per [`TRANSITION_NAMES`].
    #[must_use]
    pub fn transitions(&self) -> [u64; 4] {
        [
            self.transitions[0].load(Ordering::Relaxed),
            self.transitions[1].load(Ordering::Relaxed),
            self.transitions[2].load(Ordering::Relaxed),
            self.transitions[3].load(Ordering::Relaxed),
        ]
    }

    fn set_state(&self, from: HealthState, to: HealthState) {
        let edge = match (from, to) {
            (HealthState::Healthy, HealthState::Degraded) => 0,
            (HealthState::Degraded, HealthState::Shedding) => 1,
            (HealthState::Shedding, HealthState::Degraded) => 2,
            (HealthState::Degraded, HealthState::Healthy) => 3,
            _ => unreachable!("brownout only moves one step at a time"),
        };
        self.transitions[edge].fetch_add(1, Ordering::Relaxed);
        self.state.store(to as u8, Ordering::Relaxed);
    }

    /// Feeds one pump pass's signals: the pass's queue depth (frames seen)
    /// and its mean request latency in nanoseconds (0 when idle — idle
    /// passes decay the EWMAs, which is what lets the server recover).
    ///
    /// Escalates at most one step per observation when either EWMA is
    /// above its high threshold; de-escalates one step after
    /// `recover_obs` consecutive observations with both EWMAs below
    /// their low thresholds.
    pub fn observe(&self, queue_depth: f64, latency_ns: f64) {
        let mut sig = self.signals.lock().unwrap();
        let d = sig.depth.observe(queue_depth);
        let l = sig.latency_ns.observe(latency_ns);
        let hot = d > self.cfg.depth_high || l > self.cfg.latency_high.as_nanos() as f64;
        let calm = d < self.cfg.depth_low && l < self.cfg.latency_low.as_nanos() as f64;
        let cur = self.state();
        if hot {
            sig.calm_streak = 0;
            match cur {
                HealthState::Healthy => self.set_state(cur, HealthState::Degraded),
                HealthState::Degraded => self.set_state(cur, HealthState::Shedding),
                HealthState::Shedding => {}
            }
        } else if calm {
            sig.calm_streak += 1;
            if sig.calm_streak >= self.cfg.recover_obs {
                sig.calm_streak = 0;
                match cur {
                    HealthState::Shedding => self.set_state(cur, HealthState::Degraded),
                    HealthState::Degraded => self.set_state(cur, HealthState::Healthy),
                    HealthState::Healthy => {}
                }
            }
        } else {
            // Neither hot nor calm: hold state, restart the calm streak.
            sig.calm_streak = 0;
        }
    }

    /// Feeds the `passes` idle passes a worker did not take because it
    /// was blocked on its sockets: both averages decay as if each had
    /// been observed, so what an arriving request is averaged against
    /// does not depend on how its worker waited. A worker blocks only
    /// while `Healthy`, and zeros cannot escalate, so the state stands.
    pub fn observe_idle(&self, passes: u64) {
        if passes == 0 {
            return;
        }
        let mut sig = self.signals.lock().unwrap();
        sig.depth.observe_zeros(passes);
        sig.latency_ns.observe_zeros(passes);
    }

    /// The admission decision for one request.
    ///
    /// `depth` is the requester's current queue depth (frames already
    /// seen this pump pass), `limit` the configured per-worker queue
    /// limit. Control verbs are always admitted.
    pub fn admit(&self, class: VerbClass, depth: u64, limit: u64) -> Result<(), ShedCause> {
        if class == VerbClass::Control {
            return Ok(());
        }
        let expensive = matches!(class, VerbClass::Scan | VerbClass::Stats);
        if expensive && depth >= limit / 2 {
            return Err(ShedCause::QueueExpensive);
        }
        if depth >= limit {
            return Err(ShedCause::QueueFull);
        }
        match self.state() {
            HealthState::Healthy => Ok(()),
            HealthState::Degraded => match class {
                VerbClass::Scan => Err(ShedCause::DegradedScan),
                VerbClass::Stats if !self.allow_stats() => Err(ShedCause::DegradedStats),
                _ => Ok(()),
            },
            HealthState::Shedding => match class {
                VerbClass::Scan => Err(ShedCause::DegradedScan),
                VerbClass::Stats if !self.allow_stats() => Err(ShedCause::DegradedStats),
                VerbClass::Write => Err(ShedCause::SheddingWrite),
                _ => Ok(()),
            },
        }
    }

    /// Rate cap for STATS under pressure: at most one admitted per
    /// [`BrownoutConfig::stats_min_interval`].
    fn allow_stats(&self) -> bool {
        let mut last = self.last_stats.lock().unwrap();
        match *last {
            Some(t) if t.elapsed() < self.cfg.stats_min_interval => false,
            _ => {
                *last = Some(Instant::now());
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gocc_faultplane::{LoadFault, LoadFaultPlan, LoadMix};

    /// A config with no time dependence beyond the injected signals, so a
    /// LoadFaultPlan schedule maps 1:1 onto a transition sequence.
    fn test_cfg() -> BrownoutConfig {
        BrownoutConfig {
            alpha: 0.5,
            depth_high: 8.0,
            depth_low: 1.0,
            latency_high: Duration::from_millis(2),
            latency_low: Duration::from_micros(200),
            recover_obs: 3,
            stats_min_interval: Duration::from_millis(50),
        }
    }

    /// Replays a plan's worker-stall schedule into the controller as
    /// latency observations, the exact coupling the server uses.
    fn feed_plan(
        ctl: &BrownoutController,
        plan: &LoadFaultPlan,
        passes: usize,
    ) -> Vec<HealthState> {
        let mut states = Vec::with_capacity(passes);
        for _ in 0..passes {
            let latency_ns = match plan.draw_worker(0) {
                Some(LoadFault::Stall(d)) => d.as_nanos() as f64,
                _ => 50_000.0,
            };
            ctl.observe(4.0, latency_ns);
            states.push(ctl.state());
        }
        states
    }

    #[test]
    fn load_plan_drives_every_transition_edge() {
        let ctl = BrownoutController::new(test_cfg());
        let plan = LoadFaultPlan::new(
            0xC0DE,
            LoadMix {
                stall: 0.9,
                stall_for: Duration::from_millis(4),
                ..LoadMix::default()
            },
        );
        // Overload phase: the plan injects 4 ms stalls at rate 0.9, far
        // above latency_high — the controller must walk H→D→S.
        let states = feed_plan(&ctl, &plan, 40);
        assert_eq!(ctl.state(), HealthState::Shedding, "states: {states:?}");
        assert!(
            states.contains(&HealthState::Degraded),
            "must pass through Degraded"
        );
        // Calm phase: idle pumps observe (0, 0); both EWMAs decay and the
        // controller must walk S→D→H.
        for _ in 0..40 {
            ctl.observe(0.0, 0.0);
        }
        assert_eq!(ctl.state(), HealthState::Healthy);
        let t = ctl.transitions();
        assert!(
            t.iter().all(|&n| n >= 1),
            "every edge must be taken exactly once here: {t:?}"
        );
        assert_eq!(t[0], 1, "one escalation to Degraded");
        assert_eq!(t[1], 1, "one escalation to Shedding");
    }

    #[test]
    fn same_seed_same_transition_sequence() {
        let mix = LoadMix {
            stall: 0.5,
            stall_for: Duration::from_millis(3),
            ..LoadMix::default()
        };
        let run = |seed: u64| {
            let ctl = BrownoutController::new(test_cfg());
            let plan = LoadFaultPlan::new(seed, mix);
            let states = feed_plan(&ctl, &plan, 120);
            (states, ctl.transitions())
        };
        let (sa, ta) = run(11);
        let (sb, tb) = run(11);
        assert_eq!(sa, sb, "same seed must replay the same state sequence");
        assert_eq!(ta, tb);
        let (sc, _) = run(12);
        assert_ne!(sa, sc, "different seeds must diverge");
    }

    #[test]
    fn escalation_is_one_step_per_observation() {
        let ctl = BrownoutController::new(test_cfg());
        // A single enormous observation still only moves one step.
        ctl.observe(1e9, 1e12);
        assert_eq!(ctl.state(), HealthState::Degraded);
        ctl.observe(1e9, 1e12);
        assert_eq!(ctl.state(), HealthState::Shedding);
        ctl.observe(1e9, 1e12);
        assert_eq!(ctl.state(), HealthState::Shedding, "Shedding saturates");
    }

    #[test]
    fn recovery_requires_consecutive_calm() {
        let ctl = BrownoutController::new(test_cfg());
        ctl.observe(20.0, 0.0);
        ctl.observe(20.0, 0.0);
        assert_eq!(ctl.state(), HealthState::Shedding);
        // Two calm-territory observations followed by a middling one
        // (neither calm nor hot): the calm streak can never reach
        // recover_obs = 3, so even after many passes the state must hold.
        for _ in 0..20 {
            ctl.observe(0.0, 0.0);
            ctl.observe(0.0, 0.0);
            ctl.observe(4.0, 500_000.0);
        }
        assert_eq!(
            ctl.state(),
            HealthState::Shedding,
            "an interrupted calm streak must not de-escalate"
        );
        for _ in 0..50 {
            ctl.observe(0.0, 0.0);
        }
        assert_eq!(ctl.state(), HealthState::Healthy);
    }

    #[test]
    fn admission_table_by_state() {
        let ctl = BrownoutController::new(test_cfg());
        let limit = 16;
        // Healthy: everything under the limit is admitted.
        for class in [
            VerbClass::Read,
            VerbClass::Write,
            VerbClass::Scan,
            VerbClass::Stats,
        ] {
            assert_eq!(ctl.admit(class, 0, limit), Ok(()));
        }
        // Queue tiering applies in every state: expensive classes shed at
        // limit/2, cheap ones at the limit.
        assert_eq!(
            ctl.admit(VerbClass::Scan, limit / 2, limit),
            Err(ShedCause::QueueExpensive)
        );
        assert_eq!(ctl.admit(VerbClass::Read, limit / 2, limit), Ok(()));
        assert_eq!(
            ctl.admit(VerbClass::Read, limit, limit),
            Err(ShedCause::QueueFull)
        );
        // Degraded: SCAN out, writes still in.
        ctl.observe(1e9, 1e12);
        assert_eq!(ctl.state(), HealthState::Degraded);
        assert_eq!(
            ctl.admit(VerbClass::Scan, 0, limit),
            Err(ShedCause::DegradedScan)
        );
        assert_eq!(ctl.admit(VerbClass::Write, 0, limit), Ok(()));
        // Shedding: writes out, reads and control still in.
        ctl.observe(1e9, 1e12);
        assert_eq!(ctl.state(), HealthState::Shedding);
        assert_eq!(
            ctl.admit(VerbClass::Write, 0, limit),
            Err(ShedCause::SheddingWrite)
        );
        assert_eq!(ctl.admit(VerbClass::Read, 0, limit), Ok(()));
        assert_eq!(ctl.admit(VerbClass::Control, u64::MAX, limit), Ok(()));
    }

    #[test]
    fn stats_rate_cap_under_pressure() {
        let mut cfg = test_cfg();
        cfg.stats_min_interval = Duration::from_secs(3600);
        let ctl = BrownoutController::new(cfg);
        ctl.observe(1e9, 1e12);
        assert_eq!(ctl.state(), HealthState::Degraded);
        assert_eq!(
            ctl.admit(VerbClass::Stats, 0, 16),
            Ok(()),
            "first is admitted"
        );
        assert_eq!(
            ctl.admit(VerbClass::Stats, 0, 16),
            Err(ShedCause::DegradedStats),
            "second inside the interval is capped"
        );
    }

    #[test]
    fn names_and_indices_agree() {
        for (i, cause) in [
            ShedCause::QueueFull,
            ShedCause::QueueExpensive,
            ShedCause::DegradedScan,
            ShedCause::DegradedStats,
            ShedCause::SheddingWrite,
        ]
        .into_iter()
        .enumerate()
        {
            assert_eq!(cause.index(), i);
            assert!(!SHED_CAUSE_NAMES[i].is_empty());
        }
        for s in [
            HealthState::Healthy,
            HealthState::Degraded,
            HealthState::Shedding,
        ] {
            assert_eq!(HealthState::from_u8(s as u8), s);
        }
        assert_eq!(HealthState::from_u8(200), HealthState::Shedding);
    }
}
