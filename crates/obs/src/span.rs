//! Hierarchical spans and the flight recorder.
//!
//! A [`Span`] is an RAII timer: entering pushes onto a thread-local
//! stack (so children know their parent), dropping records the duration
//! into a per-name [`Histogram`](crate::metrics::Histogram) (in
//! microseconds, under the span's name) and appends a [`SpanRecord`] to
//! the owning context's [`FlightRecorder`] — a fixed-capacity ring
//! buffer holding the most recent completed spans, cheap enough to leave
//! on in production and dump when a run needs debugging.
//!
//! Spans resolve their [`ObsContext`] when entered,
//! so a span opened inside an attached session scope lands in that
//! session's recorder and histogram registry (and, via metric chaining,
//! in the global histogram too). Each context owns its own recorder, so
//! sessions never see each other's span records.

use crate::context::ObsContext;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Default capacity of a flight recorder (records).
pub const FLIGHT_RECORDER_CAPACITY: usize = 4096;

/// One completed span (or explicit event) in the flight recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (`mc.<crate>.<stage>` scheme).
    pub name: &'static str,
    /// Caller-supplied label (config index, iteration number, …);
    /// `u64::MAX` when unused.
    pub label: u64,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Span duration in nanoseconds (0 for instant events).
    pub dur_ns: u64,
    /// Recording thread, as an opaque small integer.
    pub thread: u64,
    /// Monotone sequence number (per-recorder order of completion).
    pub seq: u64,
    /// Sequence number of the enclosing span, `u64::MAX` at root.
    pub parent_seq: u64,
    /// Free-form value payload for events (counts, sizes); 0 for spans.
    pub value: u64,
}

/// Fixed-capacity overwrite-oldest buffer of [`SpanRecord`]s.
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<SpanRecord>>>,
    next: AtomicUsize,
    seq: AtomicU64,
    epoch: Instant,
}

impl FlightRecorder {
    /// A recorder retaining the most recent `capacity` records.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            next: AtomicUsize::new(0),
            seq: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Number of records this recorder retains.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Appends a record, overwriting the oldest when full. Returns the
    /// record's sequence number.
    pub fn push(&self, mut rec: SpanRecord) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        rec.seq = seq;
        let slot = self.next.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        *self.slots[slot].lock().unwrap() = Some(rec);
        seq
    }

    /// Total records ever pushed (may exceed capacity).
    pub fn pushed(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Records lost to ring-buffer overwrites: everything pushed beyond
    /// capacity. Surfaced in snapshots as `mc.obs.flight.dropped`.
    pub fn dropped(&self) -> u64 {
        self.pushed().saturating_sub(self.slots.len() as u64)
    }

    /// The retained records, oldest first.
    pub fn drain_ordered(&self) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().unwrap().clone())
            .collect();
        out.sort_unstable_by_key(|r| r.seq);
        out
    }
}

/// The process-global flight recorder (the global
/// [`ObsContext`]'s).
pub fn flight_recorder() -> &'static FlightRecorder {
    ObsContext::global().recorder()
}

thread_local! {
    static CURRENT_PARENT: Cell<u64> = const { Cell::new(u64::MAX) };
    static THREAD_TAG: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// Replaces the thread's span-parent cursor, returning the old value.
/// Used by [`ObsContext::attach`] so spans opened under a freshly
/// attached context are roots of that context, not children of whatever
/// the outer scope had open.
pub(crate) fn swap_parent_cursor(new: u64) -> u64 {
    CURRENT_PARENT.with(|p| p.replace(new))
}

fn thread_tag() -> u64 {
    THREAD_TAG.with(|t| {
        if t.get() == u64::MAX {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            t.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// An in-flight timed region. Create with [`Span::enter`] (or the
/// `span!` macro); the drop records it.
pub struct Span {
    name: &'static str,
    label: u64,
    start: Instant,
    start_ns: u64,
    parent_seq: u64,
    /// Sequence number reserved for this span, so children observed
    /// while it is open can point at it.
    my_seq: u64,
    /// The context current at enter time; the drop records into it even
    /// if the thread's context has changed since.
    ctx: ObsContext,
}

impl Span {
    /// Enters a span named `name`.
    pub fn enter(name: &'static str) -> Span {
        Span::enter_labeled(name, u64::MAX)
    }

    /// Enters a span carrying a numeric label (config index, iteration).
    pub fn enter_labeled(name: &'static str, label: u64) -> Span {
        let ctx = ObsContext::current();
        let rec = ctx.recorder();
        // Reserve a sequence number up front so children can reference
        // this span before it completes.
        let my_seq = rec.seq.fetch_add(1, Ordering::Relaxed);
        let parent_seq = CURRENT_PARENT.with(|p| p.replace(my_seq));
        let start_ns = rec.now_ns();
        Span {
            name,
            label,
            start: Instant::now(),
            start_ns,
            parent_seq,
            my_seq,
            ctx,
        }
    }

    /// The span's reserved sequence number.
    pub fn seq(&self) -> u64 {
        self.my_seq
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur = self.start.elapsed();
        CURRENT_PARENT.with(|p| p.set(self.parent_seq));
        self.ctx
            .registry()
            .histogram(self.name)
            .record(dur.as_micros() as u64);
        let rec = self.ctx.recorder();
        let slot = rec.next.fetch_add(1, Ordering::Relaxed) % rec.slots.len();
        *rec.slots[slot].lock().unwrap() = Some(SpanRecord {
            name: self.name,
            label: self.label,
            start_ns: self.start_ns,
            dur_ns: dur.as_nanos() as u64,
            thread: thread_tag(),
            seq: self.my_seq,
            parent_seq: self.parent_seq,
            value: 0,
        });
    }
}

/// Records an instantaneous event (no duration) with a label and value —
/// e.g. one verifier iteration with its label count — into the current
/// context's recorder.
pub fn event(name: &'static str, label: u64, value: u64) {
    let ctx = ObsContext::current();
    let rec = ctx.recorder();
    let parent_seq = CURRENT_PARENT.with(|p| p.get());
    rec.push(SpanRecord {
        name,
        label,
        start_ns: rec.now_ns(),
        dur_ns: 0,
        thread: thread_tag(),
        seq: 0, // assigned by push
        parent_seq,
        value,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::registry;

    #[test]
    fn spans_nest_and_record() {
        let before = flight_recorder().pushed();
        {
            let _outer = Span::enter("mc.test.outer");
            let _inner = Span::enter("mc.test.inner");
        }
        let recs = flight_recorder().drain_ordered();
        let inner = recs.iter().find(|r| r.name == "mc.test.inner").unwrap();
        let outer = recs.iter().find(|r| r.name == "mc.test.outer").unwrap();
        assert_eq!(inner.parent_seq, outer.seq);
        assert!(flight_recorder().pushed() >= before + 2);
        assert!(registry().histogram("mc.test.outer").count() >= 1);
    }

    #[test]
    fn events_carry_values() {
        event("mc.test.event", 3, 17);
        let recs = flight_recorder().drain_ordered();
        let e = recs
            .iter()
            .rev()
            .find(|r| r.name == "mc.test.event")
            .unwrap();
        assert_eq!(e.label, 3);
        assert_eq!(e.value, 17);
        assert_eq!(e.dur_ns, 0);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let rec = FlightRecorder::new(4);
        assert_eq!(rec.dropped(), 0);
        for i in 0..10u64 {
            rec.push(SpanRecord {
                name: "mc.test.ring",
                label: i,
                start_ns: 0,
                dur_ns: 0,
                thread: 0,
                seq: 0,
                parent_seq: u64::MAX,
                value: 0,
            });
        }
        let kept = rec.drain_ordered();
        assert_eq!(kept.len(), 4);
        assert_eq!(
            kept.iter().map(|r| r.label).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(rec.pushed(), 10);
        assert_eq!(rec.dropped(), 6);
    }

    #[test]
    fn session_spans_stay_in_their_recorder() {
        let session = ObsContext::with_recorder_capacity(64);
        {
            let _g = session.attach();
            let _root = Span::enter("mc.test.session_span");
            event("mc.test.session_event", 1, 2);
        }
        let recs = session.recorder().drain_ordered();
        assert!(recs.iter().any(|r| r.name == "mc.test.session_span"));
        assert!(recs.iter().any(|r| r.name == "mc.test.session_event"));
        // The global recorder saw none of the session's records...
        let global_recs = flight_recorder().drain_ordered();
        assert!(
            !global_recs
                .iter()
                .any(|r| r.name == "mc.test.session_span" || r.name == "mc.test.session_event"),
            "session records must not reach the global recorder"
        );
        // ...but the global histogram accounts for the span's duration.
        assert!(registry().histogram("mc.test.session_span").count() >= 1);
        assert_eq!(
            session.registry().histogram("mc.test.session_span").count(),
            1
        );
    }
}
