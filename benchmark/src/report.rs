//! The metric catalogue, the result documents, and `--compare`.
//!
//! The catalogue here and `BENCHMARK.json` at the root of the repo must
//! declare the same metrics; a unit test holds them together.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use gocc_telemetry::JsonValue;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the base's median by which the
    /// metric may worsen before it counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; printed by every `--trace 0` run.
pub const END_TO_END: &[MetricDef] = &[
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("lat_p50_us", "us", Lower, 0.25),
    e2e("lat_p90_us", "us", Lower, 0.25),
    e2e("cpu_us_per_op", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single-layer numbers; printed by every `--trace 1` run. A layer that
/// does no work in a workload reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    layer("htm.commit_frac", "frac", Higher),
    layer("htm.read_only_commit_frac", "frac", Higher),
    layer("htm.abort_conflict_per_kop", "1/kop", Lower),
    layer("htm.abort_capacity_per_kop", "1/kop", Lower),
    layer("htm.abort_explicit_per_kop", "1/kop", Lower),
    layer("htm.direct_section_frac", "frac", Lower),
    layer("htm.ctx_reuse_frac", "frac", Higher),
    layer("htm.two_thread_scaling_x", "x", Higher),
    layer("optilock.fast_frac", "frac", Higher),
    layer("optilock.attempts_per_section", "count", Lower),
    layer("optilock.perceptron_slow_frac", "frac", Lower),
    layer("optilock.bypass_frac", "frac", Lower),
    layer("optilock.empty_section_ns", "ns", Lower),
    layer("optilock.gocc_over_lock_x", "x", Higher),
    layer("gosync.lock_mode_ops_per_s", "1/s", Higher),
    layer("gosync.lock_unlock_ns", "ns", Lower),
    layer("gosync.rlock_runlock_ns", "ns", Lower),
    layer("txds.map_get_ns", "ns", Lower),
    layer("txds.map_insert_ns", "ns", Lower),
    layer("workloads.cache_get_ns", "ns", Lower),
    layer("workloads.cache_set_ns", "ns", Lower),
    layer("workloads.cache_incr_ns", "ns", Lower),
    layer("workloads.cache_batch_ns_per_op", "ns", Lower),
    layer("wire.encode_req_ns", "ns", Lower),
    layer("wire.decode_req_ns", "ns", Lower),
    layer("wire.encode_resp_ns", "ns", Lower),
    layer("wire.decode_resp_ns", "ns", Lower),
    layer("wire.bytes_per_req", "B", Lower),
    layer("wire.bytes_per_resp", "B", Lower),
    layer("server.req_latency_p50_us", "us", Lower),
    layer("server.residual_us", "us", Lower),
    layer("server.worker_wakeups_per_s", "1/s", Lower),
    layer("server.worker_cpu_us_per_op", "us", Lower),
    layer("server.requests_per_batch", "count", Higher),
    layer("server.single_batch_frac", "frac", Lower),
    layer("server.queue_depth_max", "count", Lower),
    layer("server.shed_frac", "frac", Lower),
    layer("server.spawn_ms", "ms", Lower),
    layer("server.shutdown_ms", "ms", Lower),
    layer("server.span.wire_decode_us", "us", Lower),
    layer("server.span.queue_wait_us", "us", Lower),
    layer("server.span.section_us", "us", Lower),
    layer("server.span.store_op_us", "us", Lower),
    layer("server.span.batch_exec_us", "us", Lower),
    layer("server.span.wal_commit_us", "us", Lower),
    layer("server.span.response_write_us", "us", Lower),
    layer("server.span.n", "count", Higher),
    layer("wal.records_per_fsync", "count", Higher),
    layer("wal.fsyncs_per_s", "1/s", Lower),
    layer("wal.bytes_per_record", "B", Lower),
    layer("wal.syncer_cpu_us_per_op", "us", Lower),
    layer("wal.stage_ns", "ns", Lower),
    layer("wal.fsync_us", "us", Lower),
    layer("wal.open_ms", "ms", Lower),
    layer("wal.recover_ms", "ms", Lower),
    layer("wal.recovered_records", "count", Higher),
    layer("telemetry.trace_overhead_frac", "frac", Lower),
    layer("driver.lat_p99_us", "us", Lower),
    layer("driver.lat_p999_us", "us", Lower),
    layer("driver.late_frac", "frac", Lower),
    layer("driver.slice_spread_frac", "frac", Lower),
    layer("driver.get_p50_us", "us", Lower),
    layer("driver.set_p50_us", "us", Lower),
    layer("driver.samples", "count", Higher),
];

/// Measured values of one of the two metric lists, by name.
#[derive(Debug)]
pub struct Metrics {
    defs: &'static [MetricDef],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    #[must_use]
    pub fn new(defs: &'static [MetricDef]) -> Metrics {
        Metrics {
            defs,
            values: BTreeMap::new(),
        }
    }

    /// Records a value. The name must be declared in this list; a value
    /// that is not a finite number (a ratio over nothing) is recorded as 0.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = self
            .defs
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.values
            .insert(def.name, if value.is_finite() { value } else { 0.0 });
    }

    /// Every declared metric, in catalogue order; an unset one reads 0.
    #[must_use]
    pub fn in_order(&self) -> Vec<(&'static MetricDef, f64)> {
        self.defs
            .iter()
            .map(|d| (d, self.values.get(d.name).copied().unwrap_or(0.0)))
            .collect()
    }
}

/// The members of a JSON object of metrics: `"name": {"value": v, "unit": u}`.
#[must_use]
pub fn metrics_members(values: &[(&MetricDef, f64)]) -> String {
    let mut s = String::new();
    for (i, (d, v)) in values.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            json_num(*v),
            d.unit
        );
    }
    s
}

/// `a / b`, or 0 when `b` is 0: a ratio over nothing measured is
/// reported as 0, as the server's own STATS does.
#[must_use]
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A JSON number with all its digits.
#[must_use]
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result of one `--workload` run.
#[derive(Debug)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Keys whose recovered value is not the last acknowledged one.
    pub lost_acked: u64,
    pub metrics: Metrics,
}

impl RunResult {
    /// An empty result over one of the two metric lists.
    #[must_use]
    pub fn new(defs: &'static [MetricDef]) -> RunResult {
        RunResult {
            correct: false,
            attempted: 0,
            failed: 0,
            lost_acked: 0,
            metrics: Metrics::new(defs),
        }
    }

    /// The one-line result object a `--workload` run ends with.
    #[must_use]
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_members(&self.metrics.in_order())
        )
    }

    /// Every metric by name with its unit, one per line.
    #[must_use]
    pub fn table(&self, workload: &str) -> String {
        let mut s = String::new();
        for (d, v) in self.metrics.in_order() {
            let _ = writeln!(s, "{workload:<12} {:<34} {v:>16.4} {}", d.name, d.unit);
        }
        s
    }
}

/// One workload's part of a suite document, as parsed back.
#[derive(Debug, Default, PartialEq)]
pub struct SuiteWorkload {
    pub end_to_end: BTreeMap<String, f64>,
    pub fail_frac: f64,
    pub lost_acked: f64,
}

/// Parses the `workloads.<name>.end_to_end.<metric>.value` numbers out of
/// a suite document written by the full run.
pub fn parse_suite(doc: &str) -> Result<BTreeMap<String, SuiteWorkload>, String> {
    let v = JsonValue::parse(doc)?;
    let JsonValue::Object(workloads) = v.get("workloads").ok_or("no workloads object")? else {
        return Err("workloads is not an object".into());
    };
    let mut out = BTreeMap::new();
    for (name, w) in workloads {
        let JsonValue::Object(metrics) = w.get("end_to_end").ok_or("no end_to_end object")? else {
            return Err("end_to_end is not an object".into());
        };
        let top = |k: &str| {
            w.get(k)
                .and_then(JsonValue::as_f64)
                .ok_or(format!("{name} has no {k}"))
        };
        let mut sw = SuiteWorkload {
            end_to_end: BTreeMap::new(),
            fail_frac: top("fail_frac")?,
            lost_acked: top("lost_acked")?,
        };
        for (metric, m) in metrics {
            let value = m
                .get("value")
                .and_then(JsonValue::as_f64)
                .ok_or(format!("{name}.{metric} has no value"))?;
            sw.end_to_end.insert(metric.clone(), value);
        }
        out.insert(name.clone(), sw);
    }
    Ok(out)
}

/// How one cell of B compares with the same cell of A.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    WithinBound,
    Regressed,
    Improved,
}

/// `b` against base `a` for a metric with the given direction and bound.
#[must_use]
pub fn verdict(def: &MetricDef, a: f64, b: f64) -> Verdict {
    // Positive = worse, as a share of the base.
    let worse = match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    if worse > def.bound {
        Verdict::Regressed
    } else if worse < -def.bound {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

/// `fail_frac` may worsen by this much, absolutely, before it counts.
const FAIL_FRAC_BOUND: f64 = 0.001;

/// Renders the comparison table of two suite documents and counts the
/// regressions. Every ratio is printed with its base. Besides the bounded
/// metrics, B regresses if it fails more than 0.1 % more of its
/// operations than A, or loses any acknowledged write.
pub fn compare(a_doc: &str, b_doc: &str) -> Result<(String, u32), String> {
    let a = parse_suite(a_doc)?;
    let b = parse_suite(b_doc)?;
    let mut table = format!(
        "{:<12} {:<14} {:>14} {:>14} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A (base)", "B", "B/A", "bound"
    );
    let mut regressions = 0;
    for (name, wa) in &a {
        let wb = b
            .get(name)
            .ok_or(format!("workload {name} is missing from B"))?;
        for (what, va, vb, bad) in [
            (
                "fail_frac",
                wa.fail_frac,
                wb.fail_frac,
                wb.fail_frac > wa.fail_frac + FAIL_FRAC_BOUND,
            ),
            (
                "lost_acked",
                wa.lost_acked,
                wb.lost_acked,
                wb.lost_acked > 0.0,
            ),
        ] {
            if bad {
                regressions += 1;
            }
            let _ = writeln!(
                table,
                "{name:<12} {what:<14} {va:>14.4} {vb:>14.4} {:>8} {:>6}  {}",
                "-",
                "-",
                if bad { "REGRESSED" } else { "within-bound" }
            );
        }
        for def in END_TO_END {
            let (Some(&va), Some(&vb)) = (wa.end_to_end.get(def.name), wb.end_to_end.get(def.name))
            else {
                return Err(format!("{name}.{} is missing from A or B", def.name));
            };
            let v = verdict(def, va, vb);
            if v == Verdict::Regressed {
                regressions += 1;
            }
            let _ = writeln!(
                table,
                "{name:<12} {:<14} {va:>14.4} {vb:>14.4} {:>8.4} {:>6.2}  {}",
                def.name,
                ratio(vb, va),
                def.bound,
                match v {
                    Verdict::WithinBound => "within-bound",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Improved => "improved",
                }
            );
        }
    }
    Ok((table, regressions))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    /// `(name, unit, better, bound)` of each entry of a BENCHMARK.json
    /// metric list.
    fn declared(doc: &JsonValue, list: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(list)
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {list}"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(JsonValue::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn catalogue_equals_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (list, defs, bounded) in [
            ("end_to_end", END_TO_END, true),
            ("per_layer", PER_LAYER, false),
        ] {
            let got = declared(&doc, list);
            assert_eq!(got.len(), defs.len(), "{list}: metric count");
            for (d, (name, unit, better, bound)) in defs.iter().zip(&got) {
                assert!(valid_name(d.name), "{} is not a valid name", d.name);
                assert_eq!(d.name, name);
                assert_eq!(d.unit, unit);
                assert_eq!(d.better.name(), better);
                if bounded {
                    assert_eq!(Some(d.bound), *bound, "{name}: bound");
                    assert!(d.bound <= 0.25);
                } else {
                    assert_eq!(*bound, None, "{name}: per-layer metrics have no bound");
                }
            }
        }
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, crate::workloads::DECLARED);
    }

    #[test]
    fn names_are_unique_and_setup_has_the_largest_bound() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }

    #[test]
    fn result_line_carries_every_declared_metric_with_all_digits() {
        let mut r = RunResult::new(END_TO_END);
        r.correct = true;
        r.attempted = 10;
        r.metrics.set("ops_per_s", 1_234.567_891_234);
        r.metrics.set("setup_s", f64::NAN);
        let line = r.result_line();
        let v = JsonValue::parse(&line).unwrap();
        let m = v.get("metrics").unwrap();
        for d in END_TO_END {
            assert!(m.get(d.name).is_some(), "{} missing", d.name);
        }
        assert!(line.contains("1234.567891234"));
        assert_eq!(
            m.get("setup_s").unwrap().get("value").unwrap().as_f64(),
            Some(0.0)
        );
    }

    #[test]
    fn verdicts_respect_direction_and_bound() {
        let ops = &END_TO_END[0]; // higher is better, bound 0.25
        assert_eq!(verdict(ops, 100.0, 80.0), Verdict::WithinBound);
        assert_eq!(verdict(ops, 100.0, 70.0), Verdict::Regressed);
        assert_eq!(verdict(ops, 100.0, 130.0), Verdict::Improved);
        let lat = &END_TO_END[1]; // lower is better
        assert_eq!(verdict(lat, 100.0, 130.0), Verdict::Regressed);
        assert_eq!(verdict(lat, 100.0, 70.0), Verdict::Improved);
    }

    #[test]
    fn compare_counts_regressions() {
        let doc = |ops: f64, lost: u32| {
            let mut m = String::new();
            for d in END_TO_END {
                let v = if d.name == "ops_per_s" { ops } else { 1.0 };
                let _ = write!(
                    m,
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}},",
                    d.name, d.unit
                );
            }
            m.pop();
            format!(
                "{{\"workloads\": {{\"w\": {{\"fail_frac\": 0, \"lost_acked\": {lost}, \
                 \"end_to_end\": {{{m}}}}}}}}}"
            )
        };
        let (_, none) = compare(&doc(100.0, 0), &doc(99.0, 0)).unwrap();
        assert_eq!(none, 0);
        let (table, one) = compare(&doc(100.0, 0), &doc(70.0, 0)).unwrap();
        assert_eq!(one, 1);
        assert!(table.contains("REGRESSED"));
        let (_, lost) = compare(&doc(100.0, 0), &doc(100.0, 2)).unwrap();
        assert_eq!(lost, 1, "a lost acknowledged write is a regression");
    }
}
