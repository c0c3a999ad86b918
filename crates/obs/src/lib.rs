#![forbid(unsafe_code)]

//! `mc-obs` — pipeline-wide observability for the MatchCatcher
//! workspace.
//!
//! Five layers, all cheap enough to stay on in production:
//!
//! * **Contexts** ([`context`]) — an [`ObsContext`] is a clonable handle
//!   bundling a [`Registry`] and a [`FlightRecorder`]. One global
//!   context preserves the historical process-wide behaviour; session
//!   contexts (`ObsContext::session()`) give each `MatchCatcher::run` an
//!   isolated, fully attributed view while chaining metric updates into
//!   the global registry. `ctx.attach()` scopes a context to the
//!   current thread; fan-out helpers ([`par`]) re-attach the caller's.
//! * **Metrics** ([`metrics`]) — lock-free atomic [`Counter`]s,
//!   [`Gauge`]s and log-linear quantile [`Histogram`]s. Hot paths pay a
//!   few relaxed atomic ops; the [`counter!`]/[`gauge!`]/[`histogram!`]
//!   macros cache the resolved handle per call site per thread, keyed by
//!   the current context's epoch.
//! * **Spans** ([`span`]) — RAII timed regions with thread-local parent
//!   tracking. Durations feed per-name histograms; completions feed the
//!   owning context's **flight recorder**, a fixed-capacity ring buffer
//!   of the most recent spans/events for post-hoc debugging of a run.
//! * **Snapshots & export** ([`snapshot`], [`export`]) —
//!   [`MetricsSnapshot::capture`] freezes the current context;
//!   [`MetricsSnapshot::since`] turns two captures into per-run deltas;
//!   `to_json` emits the stable `mc-obs/v2` schema (p50/p95/p99 +
//!   histogram buckets; `from_json` also reads v1) shared by
//!   `DebugReport`, the `mc` CLI, and the bench harness;
//!   `to_prometheus()` and `to_chrome_trace()` feed external tooling.
//!
//! * **CPU budget** ([`par`]) — one process-wide set of
//!   `available_parallelism()` slots shared by every fan-out: pipeline
//!   calls and helper threads hold slots, and a fan-out starts a helper
//!   only for a slot that is free at that moment.
//!
//! Metric names follow `mc.<crate>.<stage>.<name>` — see DESIGN.md
//! §Observability for the catalog and the rules for adding one.

pub mod context;
pub mod export;
pub mod json;
pub mod metrics;
pub mod par;
pub mod snapshot;
pub mod span;

pub use context::{AttachGuard, ObsContext};
pub use json::JsonValue;
pub use metrics::{registry, Counter, Gauge, Histogram, Registry};
pub use snapshot::{HistogramSnap, MetricsSnapshot, SnapEvent, SpanStat};
pub use span::{event, flight_recorder, FlightRecorder, Span, SpanRecord};

/// An `Arc<Counter>` for `$name` in the **current** [`ObsContext`],
/// resolved through a per-call-site, per-thread cache keyed by the
/// context's epoch — one TLS read on the steady-state path.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        std::thread_local! {
            static SITE: $crate::context::SiteSlot<$crate::Counter> =
                const { std::cell::RefCell::new((u64::MAX, None)) };
        }
        $crate::context::site_counter($name, &SITE)
    }};
}

/// An `Arc<Gauge>` for `$name` in the current [`ObsContext`]; see
/// [`counter!`] for the caching scheme.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        std::thread_local! {
            static SITE: $crate::context::SiteSlot<$crate::Gauge> =
                const { std::cell::RefCell::new((u64::MAX, None)) };
        }
        $crate::context::site_gauge($name, &SITE)
    }};
}

/// An `Arc<Histogram>` for `$name` in the current [`ObsContext`]; see
/// [`counter!`] for the caching scheme.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        std::thread_local! {
            static SITE: $crate::context::SiteSlot<$crate::Histogram> =
                const { std::cell::RefCell::new((u64::MAX, None)) };
        }
        $crate::context::site_histogram($name, &SITE)
    }};
}

/// An RAII span; records duration + flight-recorder entry (in the
/// current [`ObsContext`]) on drop.
///
/// ```
/// let _guard = mc_obs::span!("mc.core.topk");
/// // ... timed work ...
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::enter($name)
    };
    ($name:expr, $label:expr) => {
        $crate::Span::enter_labeled($name, $label)
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn macros_resolve_in_the_current_context() {
        let a = counter!("mc.test.lib.counter");
        let b = counter!("mc.test.lib.counter");
        assert!(
            std::sync::Arc::ptr_eq(&a, &b),
            "same site+ctx → same handle"
        );
        a.inc();
        assert!(b.get() >= 1);
        gauge!("mc.test.lib.gauge").set(-3);
        assert_eq!(crate::registry().gauge("mc.test.lib.gauge").get(), -3);
        histogram!("mc.test.lib.histogram").record(10);
        assert!(crate::registry().histogram("mc.test.lib.histogram").count() >= 1);
    }

    #[test]
    fn span_macro_times_regions() {
        {
            let _s = span!("mc.test.lib.span", 7);
        }
        let snap = crate::MetricsSnapshot::capture();
        assert!(snap.span("mc.test.lib.span").count >= 1);
    }
}
