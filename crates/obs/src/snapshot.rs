//! Point-in-time captures of a registry + flight recorder, with a
//! stable JSON encoding shared by the debugger, the `mc` CLI, and the
//! bench harness.
//!
//! [`MetricsSnapshot::capture`] freezes the **current**
//! [`ObsContext`] — the global one unless a session
//! context is attached, so pre-existing callers keep their process-wide
//! semantics while scoped callers get per-session numbers for free.
//! Registries are cumulative for the life of their context, so callers
//! that want per-run deltas capture before the run and call
//! [`MetricsSnapshot::since`] after it.
//!
//! The JSON schema is `mc-obs/v2`: histograms carry p50/p95/p99 and
//! their sparse non-zero bucket counts in addition to the v1
//! count/sum/max triple. [`MetricsSnapshot::from_json`] reads both v1
//! and v2 documents.

use crate::context::ObsContext;
use crate::json::JsonValue;
use crate::metrics::{quantile_from_buckets, HISTOGRAM_BUCKETS};
use crate::span::SpanRecord;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregated statistics of one span name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanStat {
    /// Completed instances.
    pub count: u64,
    /// Total duration, microseconds.
    pub total_us: u64,
    /// Largest single duration, microseconds.
    pub max_us: u64,
    /// Median duration, microseconds (0 when no instances).
    pub p50_us: u64,
    /// 95th-percentile duration, microseconds.
    pub p95_us: u64,
    /// 99th-percentile duration, microseconds.
    pub p99_us: u64,
}

/// Frozen state of one histogram: the v1 count/sum/max triple plus the
/// sparse non-zero buckets that make quantiles computable offline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnap {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Largest observation.
    pub max: u64,
    /// Sparse `(bucket index, count)` pairs, ascending by index (see
    /// [`crate::metrics::bucket_of`]). Empty for snapshots read from v1
    /// JSON, in which case quantiles degrade to 0.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnap {
    /// Nearest-rank quantile over the frozen buckets (`q ∈ [0, 1]`).
    /// Returns 0 when the snapshot has no bucket data (v1 documents).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.buckets.is_empty() {
            return 0;
        }
        let mut dense = vec![0u64; HISTOGRAM_BUCKETS];
        for &(i, c) in &self.buckets {
            if (i as usize) < HISTOGRAM_BUCKETS {
                dense[i as usize] = c;
            }
        }
        let bucket_total: u64 = dense.iter().sum();
        quantile_from_buckets(&dense, bucket_total, self.max, q)
    }
}

/// One flight-recorder record retained in a snapshot.
#[derive(Debug, Clone)]
pub struct SnapEvent {
    /// Record name.
    pub name: String,
    /// Caller label (`u64::MAX` = unlabeled).
    pub label: u64,
    /// Payload value (0 for spans).
    pub value: u64,
    /// Start time, nanoseconds since the recorder's creation.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for instant events).
    pub dur_ns: u64,
    /// Recording thread tag.
    pub thread: u64,
    /// Per-recorder sequence number.
    pub seq: u64,
    /// Parent span's sequence number (`u64::MAX` = root).
    pub parent_seq: u64,
}

impl From<&SpanRecord> for SnapEvent {
    fn from(r: &SpanRecord) -> Self {
        SnapEvent {
            name: r.name.to_string(),
            label: r.label,
            value: r.value,
            start_ns: r.start_ns,
            dur_ns: r.dur_ns,
            thread: r.thread,
            seq: r.seq,
            parent_seq: r.parent_seq,
        }
    }
}

/// A capture of every registered metric plus the flight recorder.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram state by name. Span durations appear here under the
    /// span's name, in microseconds.
    pub histograms: BTreeMap<String, HistogramSnap>,
    /// Flight-recorder records retained at capture time.
    pub events: Vec<SnapEvent>,
    /// Flight-recorder sequence watermark at capture time.
    pub seq_watermark: u64,
}

impl MetricsSnapshot {
    /// Captures the current context's registry and recorder (the global
    /// ones unless a session [`ObsContext`] is attached on this thread).
    pub fn capture() -> Self {
        MetricsSnapshot::capture_from(&ObsContext::current())
    }

    /// Captures `ctx`'s registry and recorder, whichever context is
    /// attached on the calling thread.
    pub fn capture_from(ctx: &ObsContext) -> Self {
        let reg = ctx.registry();
        let rec = ctx.recorder();
        let mut counters: BTreeMap<String, u64> = reg.counter_values().into_iter().collect();
        // Ring-buffer truncation is invisible in drain_ordered(); surface
        // it as a counter so silent overwrites show up in reports. It is
        // monotone, so `since` deltas work as for any counter.
        counters.insert("mc.obs.flight.dropped".to_string(), rec.dropped());
        MetricsSnapshot {
            counters,
            gauges: reg.gauge_values().into_iter().collect(),
            histograms: reg
                .histogram_values()
                .into_iter()
                .map(|(n, c, s, m, buckets)| {
                    (
                        n,
                        HistogramSnap {
                            count: c,
                            sum: s,
                            max: m,
                            buckets: sparsify(&buckets),
                        },
                    )
                })
                .collect(),
            events: rec.drain_ordered().iter().map(SnapEvent::from).collect(),
            seq_watermark: rec.pushed(),
        }
    }

    /// The delta `self − baseline`: counters and histogram
    /// counts/sums/buckets subtract (keys missing from the baseline are
    /// treated as 0), gauges keep their current value, and only events
    /// after the baseline's watermark are retained. Both snapshots must
    /// come from the same context.
    pub fn since(&self, baseline: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| {
                (
                    k.clone(),
                    v.saturating_sub(baseline.counters.get(k).copied().unwrap_or(0)),
                )
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let base = baseline.histograms.get(k);
                let (bc, bs) = base.map(|b| (b.count, b.sum)).unwrap_or((0, 0));
                (
                    k.clone(),
                    HistogramSnap {
                        count: h.count.saturating_sub(bc),
                        sum: h.sum.saturating_sub(bs),
                        max: h.max,
                        buckets: subtract_sparse(
                            &h.buckets,
                            base.map(|b| b.buckets.as_slice()).unwrap_or(&[]),
                        ),
                    },
                )
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
            events: self
                .events
                .iter()
                .filter(|e| e.seq >= baseline.seq_watermark)
                .cloned()
                .collect(),
            seq_watermark: self.seq_watermark,
        }
    }

    /// A counter's value (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's value (0 if absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// A histogram's frozen state (all-zero if absent).
    pub fn histogram(&self, name: &str) -> HistogramSnap {
        self.histograms.get(name).cloned().unwrap_or_default()
    }

    /// Aggregated span statistics by name, derived from the duration
    /// histograms (complete — not limited by the ring buffer), including
    /// p50/p95/p99 from the log-linear buckets.
    pub fn span(&self, name: &str) -> SpanStat {
        self.histograms
            .get(name)
            .map(|h| SpanStat {
                count: h.count,
                total_us: h.sum,
                max_us: h.max,
                p50_us: h.quantile(0.50),
                p95_us: h.quantile(0.95),
                p99_us: h.quantile(0.99),
            })
            .unwrap_or_default()
    }

    /// Retained events with the given name.
    pub fn events_named<'a>(&'a self, name: &str) -> Vec<&'a SnapEvent> {
        self.events.iter().filter(|e| e.name == name).collect()
    }

    /// Serializes to the stable `mc-obs/v2` JSON schema (see DESIGN.md):
    /// v1 plus per-histogram `p50`/`p95`/`p99` and sparse `buckets`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"schema\": \"mc-obs/v2\",\n  \"counters\": {");
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {}", escape(k), v);
        }
        out.push_str("\n  },\n  \"gauges\": {");
        first = true;
        for (k, v) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {}", escape(k), v);
        }
        out.push_str("\n  },\n  \"histograms\": {");
        first = true;
        for (k, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [",
                escape(k),
                h.count,
                h.sum,
                h.max,
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
            );
            let mut bfirst = true;
            for &(i, c) in &h.buckets {
                if !bfirst {
                    out.push_str(", ");
                }
                bfirst = false;
                let _ = write!(out, "[{i}, {c}]");
            }
            out.push_str("]}");
        }
        let _ = write!(
            out,
            "\n  }},\n  \"seq_watermark\": {},\n  \"events\": [",
            self.seq_watermark
        );
        first = true;
        for e in &self.events {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    {{\"name\": \"{}\", \"label\": {}, \"value\": {}, \"start_ns\": {}, \"dur_ns\": {}, \"thread\": {}, \"seq\": {}, \"parent_seq\": {}}}",
                escape(&e.name),
                json_u64(e.label),
                e.value,
                e.start_ns,
                e.dur_ns,
                e.thread,
                e.seq,
                json_u64(e.parent_seq)
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Reads an `mc-obs/v1` or `mc-obs/v2` JSON document produced by
    /// [`MetricsSnapshot::to_json`]. v1 documents have no bucket data,
    /// so quantiles computed from them are 0.
    pub fn from_json(text: &str) -> Result<MetricsSnapshot, String> {
        let doc = JsonValue::parse(text)?;
        let schema = doc.get("schema").and_then(JsonValue::as_str).unwrap_or("");
        if schema != "mc-obs/v1" && schema != "mc-obs/v2" {
            return Err(format!("unsupported snapshot schema {schema:?}"));
        }
        let mut snap = MetricsSnapshot::default();
        if let Some(obj) = doc.get("counters").and_then(JsonValue::as_object) {
            for (k, v) in obj {
                snap.counters
                    .insert(k.clone(), v.as_u64().ok_or("non-integer counter")?);
            }
        }
        if let Some(obj) = doc.get("gauges").and_then(JsonValue::as_object) {
            for (k, v) in obj {
                snap.gauges
                    .insert(k.clone(), v.as_i64().ok_or("non-integer gauge")?);
            }
        }
        if let Some(obj) = doc.get("histograms").and_then(JsonValue::as_object) {
            for (k, v) in obj {
                let mut h = HistogramSnap {
                    count: v.get("count").and_then(JsonValue::as_u64).unwrap_or(0),
                    sum: v.get("sum").and_then(JsonValue::as_u64).unwrap_or(0),
                    max: v.get("max").and_then(JsonValue::as_u64).unwrap_or(0),
                    buckets: Vec::new(),
                };
                if let Some(pairs) = v.get("buckets").and_then(JsonValue::as_array) {
                    for pair in pairs {
                        let p = pair.as_array().ok_or("bucket entry is not a pair")?;
                        if p.len() != 2 {
                            return Err("bucket entry is not a pair".into());
                        }
                        h.buckets.push((
                            p[0].as_u64().ok_or("non-integer bucket index")? as u32,
                            p[1].as_u64().ok_or("non-integer bucket count")?,
                        ));
                    }
                }
                snap.histograms.insert(k.clone(), h);
            }
        }
        snap.seq_watermark = doc
            .get("seq_watermark")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        if let Some(events) = doc.get("events").and_then(JsonValue::as_array) {
            for e in events {
                snap.events.push(SnapEvent {
                    name: e
                        .get("name")
                        .and_then(JsonValue::as_str)
                        .ok_or("event without name")?
                        .to_string(),
                    label: sentinel_u64(e.get("label")),
                    value: e.get("value").and_then(JsonValue::as_u64).unwrap_or(0),
                    start_ns: e.get("start_ns").and_then(JsonValue::as_u64).unwrap_or(0),
                    dur_ns: e.get("dur_ns").and_then(JsonValue::as_u64).unwrap_or(0),
                    thread: e.get("thread").and_then(JsonValue::as_u64).unwrap_or(0),
                    seq: e.get("seq").and_then(JsonValue::as_u64).unwrap_or(0),
                    parent_seq: sentinel_u64(e.get("parent_seq")),
                });
            }
        }
        Ok(snap)
    }

    /// Renders a human-readable stage breakdown: spans sorted by total
    /// time (with p50/p99), then non-zero counters and gauges.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("── stage breakdown (spans) ─────────────────────────────────\n");
        let mut spans: Vec<(&String, &HistogramSnap)> = self.histograms.iter().collect();
        spans.sort_by_key(|&(_, h)| std::cmp::Reverse(h.sum));
        for (name, h) in spans {
            if h.count == 0 {
                continue;
            }
            let mean = h.sum / h.count.max(1);
            let _ = writeln!(
                out,
                "{name:<44} n={:<6} total={:<12} mean={:<10} p50={:<10} p99={:<10} max={}",
                h.count,
                fmt_us(h.sum),
                fmt_us(mean),
                fmt_us(h.quantile(0.50)),
                fmt_us(h.quantile(0.99)),
                fmt_us(h.max)
            );
        }
        out.push_str("── counters ────────────────────────────────────────────────\n");
        for (name, v) in &self.counters {
            if *v != 0 {
                let _ = writeln!(out, "{name:<44} {v}");
            }
        }
        out.push_str("── gauges ──────────────────────────────────────────────────\n");
        for (name, v) in &self.gauges {
            if *v != 0 {
                let _ = writeln!(out, "{name:<44} {v}");
            }
        }
        out
    }
}

/// Dense per-bucket counts → sparse ascending `(index, count)` pairs.
fn sparsify(dense: &[u64]) -> Vec<(u32, u64)> {
    dense
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(i, &c)| (i as u32, c))
        .collect()
}

/// Sparse bucket subtraction: `a − b`, dropping empty buckets.
fn subtract_sparse(a: &[(u32, u64)], b: &[(u32, u64)]) -> Vec<(u32, u64)> {
    let base: BTreeMap<u32, u64> = b.iter().copied().collect();
    a.iter()
        .filter_map(|&(i, c)| {
            let rem = c.saturating_sub(base.get(&i).copied().unwrap_or(0));
            (rem > 0).then_some((i, rem))
        })
        .collect()
}

/// `u64::MAX` sentinels encode as -1 so the JSON stays integral.
fn json_u64(v: u64) -> i64 {
    if v == u64::MAX {
        -1
    } else {
        v as i64
    }
}

/// Decodes a `-1`-sentinel integer back to `u64::MAX`.
fn sentinel_u64(v: Option<&JsonValue>) -> u64 {
    match v.and_then(JsonValue::as_i64) {
        Some(-1) | None => u64::MAX,
        Some(n) if n >= 0 => n as u64,
        Some(_) => u64::MAX,
    }
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}

pub(crate) use crate::json::escape;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::registry;
    use crate::span::Span;

    #[test]
    fn since_subtracts_counters() {
        let c = registry().counter("mc.test.snapshot.delta");
        c.add(5);
        let base = MetricsSnapshot::capture();
        c.add(7);
        let now = MetricsSnapshot::capture();
        let d = now.since(&base);
        assert_eq!(d.counter("mc.test.snapshot.delta"), 7);
    }

    #[test]
    fn since_handles_baseline_missing_keys() {
        // A session context guarantees the baseline genuinely lacks the
        // keys (the global registry may already have them from other
        // tests).
        let ctx = ObsContext::session();
        let base = ctx.snapshot();
        assert!(!base.counters.contains_key("mc.test.snapshot.fresh"));
        {
            let _g = ctx.attach();
            crate::counter!("mc.test.snapshot.fresh").add(9);
            crate::histogram!("mc.test.snapshot.fresh_hist").record(42);
        }
        let d = ctx.snapshot().since(&base);
        assert_eq!(d.counter("mc.test.snapshot.fresh"), 9);
        let h = d.histogram("mc.test.snapshot.fresh_hist");
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 42);
        // A single observation: every quantile is the max, tracked
        // exactly even above the exact-bucket range.
        assert_eq!(h.quantile(0.5), 42);
        assert_eq!(h.quantile(1.0), 42);
    }

    #[test]
    fn json_contains_schema_and_values() {
        registry().counter("mc.test.snapshot.json").add(3);
        {
            let _s = Span::enter("mc.test.snapshot.span");
        }
        let snap = MetricsSnapshot::capture();
        let json = snap.to_json();
        assert!(json.contains("\"schema\": \"mc-obs/v2\""));
        assert!(json.contains("mc.test.snapshot.json"));
        assert!(json.contains("mc.test.snapshot.span"));
        assert!(json.contains("\"p99\""));
        // sanity: balanced braces
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn json_round_trips_without_loss() {
        let ctx = ObsContext::session();
        {
            let _g = ctx.attach();
            crate::counter!("mc.test.snapshot.rt").add(11);
            crate::gauge!("mc.test.snapshot.rt_gauge").set(-4);
            for v in [3u64, 300, 30_000] {
                crate::histogram!("mc.test.snapshot.rt_hist").record(v);
            }
            crate::event("mc.test.snapshot.rt_event", 5, 77);
        }
        let snap = ctx.snapshot();
        let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back.counter("mc.test.snapshot.rt"), 11);
        assert_eq!(back.gauge("mc.test.snapshot.rt_gauge"), -4);
        let h = back.histogram("mc.test.snapshot.rt_hist");
        assert_eq!((h.count, h.sum, h.max), (3, 30_303, 30_000));
        assert_eq!(
            h.buckets,
            snap.histogram("mc.test.snapshot.rt_hist").buckets
        );
        assert_eq!(
            h.quantile(0.5),
            snap.histogram("mc.test.snapshot.rt_hist").quantile(0.5)
        );
        let ev = &back.events_named("mc.test.snapshot.rt_event")[0];
        assert_eq!((ev.label, ev.value), (5, 77));
        assert_eq!(ev.parent_seq, u64::MAX);
    }

    #[test]
    fn json_escapes_hostile_names_round_trip() {
        // Metric names are &'static str; hostile ones must survive
        // to_json → from_json byte-for-byte.
        let hostile: &'static str = "mc.test.\"quoted\"\\back\nslash\u{1}ctl";
        let ctx = ObsContext::session();
        ctx.registry().counter(hostile).add(1);
        ctx.registry().histogram(hostile).record(2);
        let json = ctx.snapshot().to_json();
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\\\\back"));
        assert!(json.contains("\\n"));
        assert!(json.contains("\\u0001"));
        let back = MetricsSnapshot::from_json(&json).unwrap();
        assert_eq!(back.counter(hostile), 1);
        assert_eq!(back.histogram(hostile).count, 1);
    }

    #[test]
    fn v1_documents_still_parse() {
        let v1 = r#"{
  "schema": "mc-obs/v1",
  "counters": {
    "mc.core.ssj.scored": 1529
  },
  "gauges": {
    "mc.core.joint.workers": 4
  },
  "histograms": {
    "mc.core.joint.run": {"count": 2, "sum": 1200, "max": 900}
  },
  "events": [
    {"name": "mc.core.verify.iteration", "label": 0, "value": 10, "dur_ns": 0, "thread": 1, "seq": 3, "parent_seq": -1}
  ]
}"#;
        let snap = MetricsSnapshot::from_json(v1).unwrap();
        assert_eq!(snap.counter("mc.core.ssj.scored"), 1529);
        assert_eq!(snap.gauge("mc.core.joint.workers"), 4);
        let h = snap.histogram("mc.core.joint.run");
        assert_eq!((h.count, h.sum, h.max), (2, 1200, 900));
        assert_eq!(
            h.quantile(0.5),
            0,
            "v1 has no buckets: quantiles degrade to 0"
        );
        assert_eq!(snap.events[0].parent_seq, u64::MAX);
        assert!(MetricsSnapshot::from_json("{\"schema\": \"mc-obs/v9\"}").is_err());
    }

    #[test]
    fn render_mentions_nonzero_metrics() {
        registry().counter("mc.test.snapshot.render").add(2);
        let snap = MetricsSnapshot::capture();
        assert!(snap.render().contains("mc.test.snapshot.render"));
    }

    #[test]
    fn span_stat_reads_histogram() {
        {
            let _s = Span::enter("mc.test.snapshot.stat");
        }
        let snap = MetricsSnapshot::capture();
        let stat = snap.span("mc.test.snapshot.stat");
        assert!(stat.count >= 1);
        assert!(stat.p50_us <= stat.p95_us && stat.p95_us <= stat.p99_us);
        assert!(stat.p99_us <= stat.max_us.max(1));
        assert_eq!(snap.span("mc.test.snapshot.absent"), SpanStat::default());
    }

    #[test]
    fn flight_dropped_surfaces_in_snapshot() {
        let ctx = ObsContext::with_recorder_capacity(4);
        {
            let _g = ctx.attach();
            for i in 0..10 {
                crate::event("mc.test.snapshot.drop", i, 0);
            }
        }
        let snap = ctx.snapshot();
        assert_eq!(snap.counter("mc.obs.flight.dropped"), 6);
        assert!(snap.to_json().contains("mc.obs.flight.dropped"));
    }
}
