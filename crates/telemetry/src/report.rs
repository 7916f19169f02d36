//! Serializable snapshot of a [`crate::Telemetry`] bundle.

use crate::events::{Event, EventOutcome};
use crate::histogram::HistogramSnapshot;
use crate::json::JsonWriter;
use crate::registry::{SiteRecord, ABORT_CAUSE_NAMES};

/// Everything one telemetry-enabled run produced, in plain data.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetryReport {
    /// Per-site attribution rows, sorted by (site, lock).
    pub sites: Vec<SiteRecord>,
    /// Updates that landed in an aliased registry cell.
    pub aliased_sites: u64,
    /// Fast-path critical-section latency.
    pub fast_latency: HistogramSnapshot,
    /// Slow-path critical-section latency.
    pub slow_latency: HistogramSnapshot,
    /// Recent elision-decision trace.
    pub events: Vec<Event>,
    /// Events ever pushed into the ring (including overwritten ones).
    pub events_pushed: u64,
    /// Events lost to ring wrap-around (pushed minus retained); nonzero
    /// means `events` is a truncated tail of the run.
    pub events_dropped: u64,
    /// Samples dropped for lack of attribution.
    pub dropped_samples: u64,
    /// Sections the livelock watchdog hard-forced onto the lock path.
    pub watchdog_forced: u64,
    /// Speculative attempts that reused a cached per-thread context.
    pub ctx_reused: u64,
    /// Aborts caused by physical context-capacity overflows.
    pub inline_overflows: u64,
}

fn histogram_json(w: &mut JsonWriter, h: &HistogramSnapshot) {
    w.begin_object()
        .field_u64("count", h.count)
        .field_u64("sum_ns", h.sum)
        .field_u64("max_ns", h.max)
        .field_f64("mean_ns", h.mean())
        .field_u64("p50_ns", h.quantile(0.5))
        .field_u64("p99_ns", h.quantile(0.99))
        .key("buckets")
        .begin_array();
    for (floor, count) in h.nonzero() {
        w.begin_object()
            .field_u64("floor_ns", floor)
            .field_u64("count", count)
            .end_object();
    }
    w.end_array().end_object();
}

impl TelemetryReport {
    /// Renders the report as a JSON document with stable key and row
    /// order (sites sorted, histogram buckets ascending, abort causes in
    /// [`ABORT_CAUSE_NAMES`] order).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object()
            .field_u64("aliased_sites", self.aliased_sites)
            .field_u64("dropped_samples", self.dropped_samples)
            .field_u64("watchdog_forced", self.watchdog_forced)
            .field_u64("ctx_reused", self.ctx_reused)
            .field_u64("inline_overflows", self.inline_overflows)
            .key("sites")
            .begin_array();
        for s in &self.sites {
            w.begin_object()
                .field_str("site", &format!("0x{:x}", s.site))
                .field_str("lock", &format!("0x{:x}", s.lock))
                .field_u64("starts", s.starts)
                .field_u64("commits", s.commits)
                .field_u64("slow_sections", s.slow_sections)
                .key("aborts")
                .begin_object();
            for (name, &count) in ABORT_CAUSE_NAMES.iter().zip(&s.aborts) {
                w.field_u64(name, count);
            }
            w.end_object().end_object();
        }
        w.end_array().key("fast_latency");
        histogram_json(&mut w, &self.fast_latency);
        w.key("slow_latency");
        histogram_json(&mut w, &self.slow_latency);
        w.field_u64("events_pushed", self.events_pushed)
            .field_u64("events_dropped", self.events_dropped)
            .key("events")
            .begin_array();
        for e in &self.events {
            let (outcome, cause) = match e.outcome {
                EventOutcome::FastCommit => ("fast_commit", None),
                EventOutcome::SlowSection => ("slow_section", None),
                EventOutcome::Abort(c) => ("abort", Some(c)),
            };
            w.begin_object()
                .field_str("site", &format!("0x{:x}", e.site))
                .field_str("lock", &format!("0x{:x}", e.lock))
                .field_bool("predicted_fast", e.predicted_fast)
                .field_str("outcome", outcome);
            if let Some(c) = cause {
                w.field_str(
                    "cause",
                    ABORT_CAUSE_NAMES
                        .get(c as usize)
                        .copied()
                        .unwrap_or("unknown"),
                );
            }
            w.end_object();
        }
        w.end_array().end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    fn sample() -> TelemetryReport {
        let mut aborts = [0u64; crate::ABORT_CAUSES];
        aborts[2] = 4; // conflict
        TelemetryReport {
            sites: vec![SiteRecord {
                site: 0x1000,
                lock: 0x2000,
                starts: 10,
                commits: 6,
                slow_sections: 4,
                aborts,
            }],
            aliased_sites: 0,
            fast_latency: HistogramSnapshot::default(),
            slow_latency: HistogramSnapshot::default(),
            events: vec![Event {
                site: 0x1000,
                lock: 0x2000,
                predicted_fast: true,
                outcome: EventOutcome::Abort(2),
            }],
            events_pushed: 5,
            events_dropped: 4,
            dropped_samples: 0,
            watchdog_forced: 2,
            ctx_reused: 8,
            inline_overflows: 1,
        }
    }

    #[test]
    fn json_is_stable_and_parseable() {
        let report = sample();
        let a = report.to_json();
        let b = report.to_json();
        assert_eq!(a, b, "byte-stable for identical reports");
        let v = JsonValue::parse(&a).expect("self-emitted JSON parses");
        assert_eq!(v.get("watchdog_forced").unwrap(), &JsonValue::Number(2.0));
        assert_eq!(v.get("ctx_reused").unwrap(), &JsonValue::Number(8.0));
        assert_eq!(v.get("inline_overflows").unwrap(), &JsonValue::Number(1.0));
        assert_eq!(v.get("events_pushed").unwrap(), &JsonValue::Number(5.0));
        assert_eq!(v.get("events_dropped").unwrap(), &JsonValue::Number(4.0));
        let sites = v.get("sites").unwrap().as_array().unwrap();
        assert_eq!(sites.len(), 1);
        assert_eq!(
            sites[0].get("aborts").unwrap().get("conflict").unwrap(),
            &JsonValue::Number(4.0)
        );
        assert_eq!(
            v.get("events").unwrap().as_array().unwrap()[0]
                .get("cause")
                .unwrap()
                .as_str()
                .unwrap(),
            "conflict"
        );
    }
}
