//! In-memory spans recorded by the benchmark around each public layer
//! call, and the per-op layer decomposition built from them.
//!
//! A span covers one call into a layer's public API (or the
//! benchmark's own work between calls). Where one public call runs
//! several layers internally, its time is split by *derived* child
//! spans whose durations come from the spans the program itself records
//! in `DebugReport::metrics`; a span's self time is its duration minus
//! its children's. Spans of one op share an op id.

use crate::alloc;
use crate::Class;
use mc_obs::JsonValue;
use std::collections::BTreeMap;
use std::time::Instant;

/// Layers, in pipeline order; `bench` is the benchmark's own work.
pub const LAYERS: [&str; 9] = [
    "config", "strsim", "joint", "store", "incr", "verify", "explain", "serve", "bench",
];

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Op the span belongs to.
    pub op: u64,
    /// Layer charged with the span's self time.
    pub layer: &'static str,
    /// The call the span wraps.
    pub name: String,
    /// Start, microseconds since the tracer's epoch.
    pub start_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
    /// Duration minus derived children, microseconds.
    pub self_us: f64,
    /// Allocations counted while the span ran (all threads).
    pub allocs: u64,
    /// Index of the parent span, for derived children.
    pub parent: Option<usize>,
}

/// Per-op record of a traced run.
#[derive(Debug, Clone)]
pub struct TracedOp {
    /// Op id shared by the op's spans.
    pub id: u64,
    /// Op class.
    pub class: Class,
    /// Wall time of the op, microseconds.
    pub wall_us: f64,
    /// Self time per layer, microseconds.
    pub layer_us: BTreeMap<&'static str, f64>,
    /// Per-op values keyed by `<module>.<metric>` (no class suffix).
    pub values: BTreeMap<String, f64>,
}

impl TracedOp {
    /// Adds `v` to the named per-op value.
    pub fn add(&mut self, key: &str, v: f64) {
        *self.values.entry(key.to_string()).or_insert(0.0) += v;
    }

    /// Wall time not covered by any layer's self time, as a share.
    pub fn unaccounted_frac(&self) -> f64 {
        let covered: f64 = self.layer_us.values().sum();
        ((self.wall_us - covered) / self.wall_us.max(1e-9)).abs()
    }
}

/// Span recorder for one thread of the benchmark.
pub struct Tracer {
    epoch: Instant,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
    op: u64,
}

impl Tracer {
    /// A recorder whose span times count from `epoch`; `first_op` lets
    /// concurrent recorders keep op ids disjoint.
    pub fn new(epoch: Instant, first_op: u64) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            op: first_op,
        }
    }

    /// Starts a new op; later spans belong to it. Returns its id.
    pub fn begin_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Runs `f` inside a span charged to `layer`; returns its result and
    /// the span's index.
    pub fn span<T>(&mut self, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> T {
        self.span_indexed(layer, name, f).0
    }

    /// Like [`Tracer::span`], also returning the span's index.
    pub fn span_indexed<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let allocs = alloc::count();
        let t = Instant::now();
        let out = f();
        let dur_us = t.elapsed().as_secs_f64() * 1e6;
        let span = Span {
            op: self.op,
            layer,
            name: name.to_string(),
            start_us: (t - self.epoch).as_secs_f64() * 1e6,
            dur_us,
            self_us: dur_us,
            allocs: alloc::count() - allocs,
            parent: None,
        };
        self.spans.push(span);
        (out, self.spans.len() - 1)
    }

    /// Records a span measured elsewhere (for example, a round trip
    /// timed by a client), charged to `layer`.
    pub fn record(&mut self, layer: &'static str, name: &str, start: Instant, dur_us: f64) {
        self.spans.push(Span {
            op: self.op,
            layer,
            name: name.to_string(),
            start_us: (start - self.epoch).as_secs_f64() * 1e6,
            dur_us,
            self_us: dur_us,
            allocs: 0,
            parent: None,
        });
    }

    /// Splits `dur_us` of span `parent`'s time off into a derived child
    /// charged to `layer` (durations from the program's own spans).
    pub fn derive(&mut self, parent: usize, layer: &'static str, name: &str, dur_us: f64) {
        let dur_us = dur_us.min(self.spans[parent].self_us).max(0.0);
        self.spans[parent].self_us -= dur_us;
        let p = &self.spans[parent];
        let span = Span {
            op: p.op,
            layer,
            name: name.to_string(),
            start_us: p.start_us,
            dur_us,
            self_us: dur_us,
            allocs: 0,
            parent: Some(parent),
        };
        self.spans.push(span);
    }

    /// Duration of span `i`, microseconds.
    pub fn dur_us(&self, i: usize) -> f64 {
        self.spans[i].dur_us
    }

    /// Closes the current op; see [`Tracer::summarize`].
    pub fn end_op(&self, class: Class, wall_us: f64) -> TracedOp {
        self.summarize(self.op, class, wall_us)
    }

    /// Op `id`'s record: its spans' self time summed per layer, and
    /// their allocations summed into `<layer>.allocs`.
    pub fn summarize(&self, id: u64, class: Class, wall_us: f64) -> TracedOp {
        let mut op = TracedOp {
            id,
            class,
            wall_us,
            layer_us: BTreeMap::new(),
            values: BTreeMap::new(),
        };
        for s in self.spans.iter().filter(|s| s.op == id) {
            *op.layer_us.entry(s.layer).or_insert(0.0) += s.self_us;
            if s.layer != "bench" && s.parent.is_none() {
                op.add(&format!("{}.allocs", s.layer), s.allocs as f64);
            }
        }
        op
    }
}

/// The trace document: every span plus the per-class, per-layer
/// self-time table.
pub fn trace_json(workload: &str, seed: u64, spans: &[Span], ops: &[TracedOp]) -> JsonValue {
    let span_json = |s: &Span| {
        JsonValue::Obj(vec![
            ("op".into(), s.op.into()),
            ("layer".into(), s.layer.into()),
            ("name".into(), s.name.as_str().into()),
            ("start_us".into(), JsonValue::Num(s.start_us)),
            ("dur_us".into(), JsonValue::Num(s.dur_us)),
            ("self_us".into(), JsonValue::Num(s.self_us)),
            ("allocs".into(), s.allocs.into()),
            (
                "parent".into(),
                s.parent.map_or(JsonValue::Null, |p| (p as u64).into()),
            ),
        ])
    };
    let table = self_time_table(ops)
        .into_iter()
        .map(|row| {
            JsonValue::Obj(vec![
                ("class".into(), row.class.name().into()),
                ("layer".into(), row.layer.into()),
                ("ops".into(), (row.ops as u64).into()),
                ("median_self_ms".into(), JsonValue::Num(row.median_ms)),
                ("mean_self_ms".into(), JsonValue::Num(row.mean_ms)),
                ("share_of_wall".into(), JsonValue::Num(row.share)),
            ])
        })
        .collect();
    JsonValue::Obj(vec![
        ("schema".into(), "debugbench-trace/v1".into()),
        ("workload".into(), workload.into()),
        ("seed".into(), seed.into()),
        ("self_time".into(), JsonValue::Arr(table)),
        (
            "spans".into(),
            JsonValue::Arr(spans.iter().map(span_json).collect()),
        ),
    ])
}

/// One row of the self-time table.
pub struct SelfTimeRow {
    /// Op class.
    pub class: Class,
    /// Layer, or `unaccounted` for wall time no span covers.
    pub layer: &'static str,
    /// Ops of the class.
    pub ops: usize,
    /// Median self time per op.
    pub median_ms: f64,
    /// Mean self time per op.
    pub mean_ms: f64,
    /// Mean self time as a share of mean op wall time.
    pub share: f64,
}

/// Per class and layer: median and mean self time per op, and share of
/// wall time.
pub fn self_time_table(ops: &[TracedOp]) -> Vec<SelfTimeRow> {
    let mut rows = Vec::new();
    for class in Class::ALL {
        let of: Vec<&TracedOp> = ops.iter().filter(|o| o.class == class).collect();
        if of.is_empty() {
            continue;
        }
        let wall_mean = of.iter().map(|o| o.wall_us).sum::<f64>() / of.len() as f64;
        let mut push = |layer: &'static str, per_op: Vec<f64>| {
            let mean = per_op.iter().sum::<f64>() / per_op.len() as f64;
            rows.push(SelfTimeRow {
                class,
                layer,
                ops: per_op.len(),
                median_ms: crate::stats::median(&per_op) / 1e3,
                mean_ms: mean / 1e3,
                share: mean / wall_mean.max(1e-9),
            });
        };
        for layer in LAYERS {
            push(
                layer,
                of.iter()
                    .map(|o| o.layer_us.get(layer).copied().unwrap_or(0.0))
                    .collect(),
            );
        }
        push(
            "unaccounted",
            of.iter()
                .map(|o| o.wall_us - o.layer_us.values().sum::<f64>())
                .collect(),
        );
    }
    rows
}
