//! Spans: the benchmark's own, recorded around its calls into each
//! layer, and the server's, drained from its flight recorder. Both stay
//! in memory during a run and are written to one file when it ends.

use std::collections::BTreeMap;
use std::path::Path;

use gocc_telemetry::{JsonValue, JsonWriter};

use crate::stats::{self, Interval};

/// Spans of each source kept verbatim for the trace file; totals keep
/// counting past it.
const KEEP: usize = 20_000;

/// One span recorded by the benchmark itself.
#[derive(Clone, Copy, Debug)]
pub struct SpanRec {
    pub trace_id: u64,
    pub kind: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// The benchmark's spans: per-kind totals over all of them, and the
/// first [`KEEP`] verbatim.
#[derive(Default)]
pub struct SpanLog {
    kept: Vec<SpanRec>,
    totals: BTreeMap<&'static str, (u64, u64)>,
}

impl SpanLog {
    #[inline]
    pub fn push(&mut self, span: SpanRec) {
        let t = self.totals.entry(span.kind).or_insert((0, 0));
        t.0 += 1;
        t.1 += span.dur_ns;
        if self.kept.len() < KEEP {
            self.kept.push(span);
        }
    }

    /// Mean duration of a kind in nanoseconds, 0 when none was recorded.
    #[must_use]
    pub fn mean_ns(&self, kind: &str) -> f64 {
        match self.totals.get(kind) {
            Some(&(n, sum)) if n > 0 => sum as f64 / n as f64,
            _ => 0.0,
        }
    }
}

/// One span drained from the server's flight recorder.
#[derive(Clone, Debug)]
pub struct ServerSpan {
    pub trace_id: u64,
    pub kind: String,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub a: u64,
    pub b: u64,
}

/// Parses one TRACE document (`ServerState::trace_json`).
pub fn parse_trace_json(doc: &str, out: &mut Vec<ServerSpan>) -> Result<(), String> {
    let v = JsonValue::parse(doc)?;
    let spans = v
        .get("spans")
        .and_then(JsonValue::as_array)
        .ok_or("TRACE document has no spans array")?;
    for s in spans {
        let num = |k: &str| s.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0) as u64;
        out.push(ServerSpan {
            trace_id: num("trace_id"),
            kind: s
                .get("kind")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string(),
            start_ns: num("start_ns"),
            dur_ns: num("dur_ns"),
            a: num("a"),
            b: num("b"),
        });
    }
    Ok(())
}

/// Which of two identical intervals encloses the other: the server
/// stamps a shard-group's `batch_exec` and its requests' `store_op` with
/// one interval, and the section inside may fill it entirely.
fn nesting_rank(kind: &str) -> u8 {
    match kind {
        "queue_wait" => 0,
        "batch_exec" => 1,
        "store_op" => 2,
        "section" => 3,
        _ => 4,
    }
}

/// Mean self time per request, by span kind, over the requests whose
/// trace is complete.
#[derive(Debug, Default)]
pub struct SelfTimes {
    /// Requests with both their first (`wire_decode`) and last
    /// (`response_write`) span present.
    pub requests: u64,
    /// Kind → summed self time in nanoseconds over those requests.
    pub by_kind: BTreeMap<String, u64>,
}

impl SelfTimes {
    /// Mean self time of `kind` per complete request, in microseconds.
    #[must_use]
    pub fn mean_us(&self, kind: &str) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        *self.by_kind.get(kind).unwrap_or(&0) as f64 / self.requests as f64 / 1000.0
    }
}

/// Groups server spans by trace id and sums self time by kind.
///
/// The recorder is a ring that overwrites its oldest entries, so under
/// load some requests lose their early spans. A request counts only if
/// its first and last spans both survived; everything between them was
/// written later than the first and so survived too.
#[must_use]
pub fn server_self_times(spans: &[ServerSpan]) -> SelfTimes {
    let mut by_trace: BTreeMap<u64, Vec<&ServerSpan>> = BTreeMap::new();
    for s in spans {
        by_trace.entry(s.trace_id).or_default().push(s);
    }
    let mut out = SelfTimes::default();
    for group in by_trace.values() {
        let has = |k: &str| group.iter().any(|s| s.kind == k);
        if !(has("wire_decode") && has("response_write")) {
            continue;
        }
        out.requests += 1;
        let intervals: Vec<Interval> = group
            .iter()
            .map(|s| Interval {
                kind: s.kind.clone(),
                start_ns: s.start_ns,
                dur_ns: s.dur_ns,
                rank: nesting_rank(&s.kind),
            })
            .collect();
        for (kind, ns) in stats::self_times(&intervals) {
            *out.by_kind.entry(kind).or_insert(0) += ns;
        }
    }
    out
}

/// Writes the trace file of one run: both span sources verbatim (up to
/// [`KEEP`] each) and the derived self times.
pub fn write_trace_file(
    path: &Path,
    workload: &str,
    seed: u64,
    client: &SpanLog,
    server: &[ServerSpan],
    self_times: &SelfTimes,
) -> std::io::Result<()> {
    let mut w = JsonWriter::new();
    w.begin_object()
        .field_str("workload", workload)
        .field_u64("seed", seed)
        .field_str(
            "clock",
            "ns since the process trace epoch, shared by both sources",
        )
        .key("benchmark_spans")
        .begin_array();
    for s in &client.kept {
        w.begin_object()
            .field_u64("trace_id", s.trace_id)
            .field_str("kind", s.kind)
            .field_u64("start_ns", s.start_ns)
            .field_u64("dur_ns", s.dur_ns)
            .end_object();
    }
    w.end_array().key("benchmark_span_totals").begin_object();
    for (kind, (n, sum)) in &client.totals {
        w.key(kind)
            .begin_object()
            .field_u64("count", *n)
            .field_u64("sum_ns", *sum)
            .end_object();
    }
    w.end_object().key("server_spans").begin_array();
    for s in server.iter().take(KEEP) {
        w.begin_object()
            .field_u64("trace_id", s.trace_id)
            .field_str("kind", &s.kind)
            .field_u64("start_ns", s.start_ns)
            .field_u64("dur_ns", s.dur_ns)
            .field_u64("a", s.a)
            .field_u64("b", s.b)
            .end_object();
    }
    w.end_array()
        .field_u64("server_spans_drained", server.len() as u64)
        .key("server_self_time")
        .begin_object()
        .field_u64("complete_requests", self_times.requests)
        .key("sum_ns_by_kind")
        .begin_object();
    for (kind, ns) in &self_times.by_kind {
        w.field_u64(kind, *ns);
    }
    w.end_object().end_object().end_object();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, w.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace_id: u64, kind: &str, start_ns: u64, dur_ns: u64) -> ServerSpan {
        ServerSpan {
            trace_id,
            kind: kind.to_string(),
            start_ns,
            dur_ns,
            a: 0,
            b: 0,
        }
    }

    #[test]
    fn only_complete_requests_count_and_self_times_nest() {
        let spans = vec![
            // request 1: complete
            span(1, "queue_wait", 0, 100),
            span(1, "wire_decode", 90, 10),
            span(1, "batch_exec", 110, 50),
            span(1, "store_op", 110, 50),
            span(1, "section", 115, 40),
            span(1, "response_write", 170, 5),
            // request 2: lost its first span to the ring
            span(2, "store_op", 110, 50),
            span(2, "response_write", 176, 5),
        ];
        let st = server_self_times(&spans);
        assert_eq!(st.requests, 1);
        assert_eq!(st.by_kind["queue_wait"], 90);
        assert_eq!(st.by_kind["wire_decode"], 10);
        assert_eq!(st.by_kind["batch_exec"], 0);
        assert_eq!(st.by_kind["store_op"], 10);
        assert_eq!(st.by_kind["section"], 40);
        assert!((st.mean_us("section") - 0.04).abs() < 1e-12);
    }

    #[test]
    fn trace_documents_parse() {
        let doc = r#"{"spans":[{"trace_id":7,"kind":"section","start_ns":5,"dur_ns":9,"a":1,"b":2}],"count":1,"pushed":1,"dropped":0,"truncated":0}"#;
        let mut out = Vec::new();
        parse_trace_json(doc, &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].trace_id, out[0].dur_ns, out[0].b), (7, 9, 2));
        assert!(parse_trace_json("{}", &mut out).is_err());
    }
}
