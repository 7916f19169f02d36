//! The bundle of state an `optiLib`-using program links against.

use std::sync::OnceLock;

use gocc_htm::{HtmConfig, HtmRuntime};
use gocc_telemetry::{Telemetry, TraceRecorder};

use crate::perceptron::{Perceptron, PerceptronConfig};
use crate::policy::RetryPolicy;
use crate::stats::{OptiStats, StatsView};

/// Configuration for a [`GoccRuntime`].
#[derive(Clone, Debug)]
pub struct GoccConfig {
    /// HTM domain configuration.
    pub htm: HtmConfig,
    /// Retry policy.
    pub policy: RetryPolicy,
    /// Perceptron tunables.
    pub perceptron: PerceptronConfig,
    /// When `false`, HTM is always attempted regardless of history — the
    /// "No Perceptron" configuration of Figure 10.
    pub perceptron_enabled: bool,
    /// When `true`, the runtime carries a [`Telemetry`] bundle and the
    /// session layer records per-site attribution, latencies and elision
    /// events. Off by default: the disabled hot path pays one branch on a
    /// `None` check and nothing else.
    pub telemetry_enabled: bool,
}

impl Default for GoccConfig {
    fn default() -> Self {
        GoccConfig::standard()
    }
}

impl GoccConfig {
    /// The default, perceptron-enabled configuration.
    #[must_use]
    pub fn standard() -> Self {
        GoccConfig {
            htm: HtmConfig::coffee_lake(),
            policy: RetryPolicy::default(),
            perceptron: PerceptronConfig::default(),
            perceptron_enabled: true,
            telemetry_enabled: false,
        }
    }

    /// Figure 10's "NP" configuration: always attempt HTM.
    #[must_use]
    pub fn no_perceptron() -> Self {
        GoccConfig {
            perceptron_enabled: false,
            ..GoccConfig::standard()
        }
    }

    /// [`GoccConfig::standard`] with telemetry recording on.
    #[must_use]
    pub fn with_telemetry() -> Self {
        GoccConfig {
            telemetry_enabled: true,
            ..GoccConfig::standard()
        }
    }
}

/// One `optiLib` instance: HTM domain, perceptron, policy, statistics.
///
/// Production code uses [`GoccRuntime::global`]; benchmarks construct a
/// private runtime per configuration point so learning state does not leak
/// between runs.
///
/// `repr(C)`, for [`HtmRuntime`]'s reason: `htm` carries the lines every
/// section writes, and where the read-only words around it fall must not
/// depend on the compiler's field-ordering heuristics.
#[derive(Debug)]
#[repr(C)]
pub struct GoccRuntime {
    htm: HtmRuntime,
    perceptron: Perceptron,
    tracer: Box<TraceRecorder>,
    pub(crate) stats: OptiStats,
    telemetry: Option<Box<Telemetry>>,
    policy: RetryPolicy,
    perceptron_enabled: bool,
}

impl GoccRuntime {
    /// Creates a runtime from a configuration.
    #[must_use]
    pub fn new(config: GoccConfig) -> Self {
        GoccRuntime {
            htm: HtmRuntime::new(config.htm),
            perceptron: Perceptron::new(config.perceptron),
            policy: config.policy,
            perceptron_enabled: config.perceptron_enabled,
            stats: OptiStats::default(),
            telemetry: config.telemetry_enabled.then(|| Box::new(Telemetry::new())),
            tracer: Box::new(TraceRecorder::new()),
        }
    }

    /// Creates a runtime with [`GoccConfig::standard`].
    #[must_use]
    pub fn new_default() -> Self {
        GoccRuntime::new(GoccConfig::standard())
    }

    /// The process-wide runtime.
    #[must_use]
    pub fn global() -> &'static GoccRuntime {
        static GLOBAL: OnceLock<GoccRuntime> = OnceLock::new();
        GLOBAL.get_or_init(GoccRuntime::new_default)
    }

    /// The HTM domain.
    #[must_use]
    pub fn htm(&self) -> &HtmRuntime {
        &self.htm
    }

    /// The perceptron predictor.
    #[must_use]
    pub fn perceptron(&self) -> &Perceptron {
        &self.perceptron
    }

    /// The retry policy.
    #[must_use]
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Whether perceptron gating is active (Figure 10 ablation switch).
    #[must_use]
    pub fn perceptron_enabled(&self) -> bool {
        self.perceptron_enabled
    }

    /// `optiLib` statistics: `stats().snapshot()` reads them.
    #[must_use]
    pub fn stats(&self) -> StatsView<'_> {
        StatsView(self)
    }

    /// The telemetry bundle, when [`GoccConfig::telemetry_enabled`] is set.
    #[must_use]
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_deref()
    }

    /// The per-request flight recorder. Always present — sampling is off
    /// (and the hot path pays one global relaxed load) until
    /// [`TraceRecorder::configure`] enables it.
    #[must_use]
    pub fn tracer(&self) -> &TraceRecorder {
        &self.tracer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_is_singleton() {
        assert!(std::ptr::eq(GoccRuntime::global(), GoccRuntime::global()));
    }

    #[test]
    fn np_config_disables_perceptron() {
        let rt = GoccRuntime::new(GoccConfig::no_perceptron());
        assert!(!rt.perceptron_enabled());
        assert!(GoccRuntime::new_default().perceptron_enabled());
    }

    #[test]
    fn telemetry_is_opt_in() {
        assert!(GoccRuntime::new_default().telemetry().is_none());
        let rt = GoccRuntime::new(GoccConfig::with_telemetry());
        assert!(rt.telemetry().is_some());
    }
}
