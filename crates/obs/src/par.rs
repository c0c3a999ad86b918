//! One CPU budget for every fan-out in the process.
//!
//! The budget has [`cores`] slots, the machine's available parallelism.
//! Two kinds of thread hold a slot:
//!
//! * a thread running a pipeline call (`MatchCatcher::run_observed`,
//!   `MatchCatcher::start_session`, `DebugSession::rerun`) holds one for
//!   the whole call, through [`hold`]; nested holds on one thread count
//!   once;
//! * every helper thread a fan-out starts holds one for as long as it
//!   lives.
//!
//! A fan-out ([`fan_out`], [`for_each`], [`map`]) runs a share of its work
//! on the calling thread and starts a helper only for a slot that is free
//! at that moment, up to the site's own `threads` bound. The check is
//! made again at every fan-out, so a lone caller gets every core for each
//! stage, while two busy callers on two cores run their stages inline
//! instead of each starting helpers that contend for the other's core.
//! A helper only ever takes a free slot, and its caller holds one, so at
//! most `cores() - 1` helpers are alive at once. A caller's own hold is
//! never refused, though: callers that start while helpers fill the
//! budget still take their slots, so the slots in use stay below
//! `cores() + callers`, not below `max(cores(), callers)`, until those
//! helpers finish.
//!
//! Every fan-out site splits work so that its result does not depend on
//! how many workers ran, so the budget changes timing only. Each fan-out
//! adds one to `mc.obs.par.fanouts` and the helpers it started to
//! `mc.obs.par.helpers`; helpers re-attach the caller's
//! [`ObsContext`], so their metrics land in the caller's scope.

use crate::context::ObsContext;
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Slots held right now, by callers and helpers together.
static IN_USE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Open holds on this thread; its slot is counted while this is
    /// above zero.
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Slots in the budget: `std::thread::available_parallelism()`, or 1
/// when the machine does not report it.
pub fn cores() -> usize {
    #[cfg(test)]
    if let n @ 1.. = tests::PRETEND_CORES.load(Ordering::SeqCst) {
        return n;
    }
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Slots held right now, by callers and helpers together.
pub fn in_use() -> usize {
    IN_USE.load(Ordering::SeqCst)
}

/// The calling thread's hold on its slot; releases it on drop, also
/// when a panic unwinds past it. See [`hold`].
#[must_use = "the slot is released when the guard drops"]
pub struct Slot {
    /// Holds are counted per thread, so the guard must stay on its own.
    _thread_bound: PhantomData<*const ()>,
}

/// Makes the calling thread hold one slot until the guard drops. A
/// thread that already holds one (an outer hold, or a helper) takes no
/// second slot. Never blocks and is never refused.
pub fn hold() -> Slot {
    DEPTH.with(|d| {
        if d.get() == 0 {
            IN_USE.fetch_add(1, Ordering::SeqCst);
        }
        d.set(d.get() + 1);
    });
    Slot {
        _thread_bound: PhantomData,
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        DEPTH.with(|d| {
            d.set(d.get() - 1);
            if d.get() == 0 {
                IN_USE.fetch_sub(1, Ordering::SeqCst);
            }
        });
    }
}

/// Takes up to `want` of the slots free right now; returns how many.
fn grant(want: usize) -> usize {
    let mut cur = IN_USE.load(Ordering::SeqCst);
    loop {
        let n = cores().saturating_sub(cur).min(want);
        if n == 0 {
            return 0;
        }
        match IN_USE.compare_exchange_weak(cur, cur + n, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => return n,
            Err(now) => cur = now,
        }
    }
}

/// Runs `worker` on the calling thread and on one helper thread per slot
/// free right now, with at most `min(threads, jobs)` workers in all
/// (`threads == 0`: no bound but `jobs` and the budget). Every call of
/// `worker` must claim jobs from state it shares with the others until
/// none is left. Returns the number of workers that ran, the caller
/// included.
///
/// The caller holds its slot for the duration. A panic in any share
/// reaches the caller with its own payload once every helper has
/// finished, and every slot is released on the way.
pub fn fan_out(threads: usize, jobs: usize, worker: impl Fn() + Sync) -> usize {
    let _caller = hold();
    crate::counter!("mc.obs.par.fanouts").inc();
    let workers = match threads {
        0 => jobs,
        t => t.min(jobs),
    };
    let granted = grant(workers.saturating_sub(1));
    if granted == 0 {
        worker();
        return 1;
    }
    let obs = ObsContext::current();
    let helpers = std::thread::scope(|s| {
        let handles: Vec<_> = (0..granted)
            .filter_map(|_| {
                let spawned = std::thread::Builder::new().spawn_scoped(s, || {
                    // The slot was granted to this helper above.
                    DEPTH.with(|d| d.set(1));
                    let _slot = Slot {
                        _thread_bound: PhantomData,
                    };
                    let _obs = obs.attach();
                    worker();
                });
                if spawned.is_err() {
                    IN_USE.fetch_sub(1, Ordering::SeqCst);
                }
                spawned.ok()
            })
            .collect();
        worker();
        let started = handles.len();
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
        started
    });
    crate::counter!("mc.obs.par.helpers").add(helpers as u64);
    helpers + 1
}

/// Runs `f` on every item through [`fan_out`]: each worker claims the
/// next unclaimed item until none is left. Returns the number of workers
/// that ran.
pub fn for_each<T: Send>(items: &mut [T], threads: usize, f: impl Fn(&mut T) + Sync) -> usize {
    let jobs = items.len();
    let queue = Mutex::new(items.iter_mut());
    fan_out(threads, jobs, || loop {
        let item = queue
            .lock()
            .expect("no share panics while claiming an item")
            .next();
        match item {
            Some(item) => f(item),
            None => break,
        }
    })
}

/// Length of the contiguous shares that split `len` jobs into one share
/// per worker the `threads` bound allows (`0` = one per core). A site
/// that gives each worker one contiguous share claims jobs of this
/// length: a lone caller's workers then split the work exactly as a
/// fixed pool of `threads` threads would, and a caller granted fewer
/// workers takes several shares.
pub fn share_len(len: usize, threads: usize) -> usize {
    let shares = match threads {
        0 => cores(),
        t => t,
    };
    len.div_ceil(shares).max(1)
}

/// `items.iter().map(f).collect()`, computed through [`for_each`].
pub fn map<T: Sync, R: Send>(items: &[T], threads: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let mut out: Vec<(&T, Option<R>)> = items.iter().map(|t| (t, None)).collect();
    for_each(&mut out, threads, |(t, r)| *r = Some(f(t)));
    out.into_iter()
        .map(|(_, r)| r.expect("for_each runs every item"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::{Barrier, MutexGuard};

    /// The budget is process-wide: tests that read it run one at a time.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Core counts the budget tests run at, so a small host also checks
    /// the budget at 8 and 16 cores.
    const PRETEND: [usize; 4] = [1, 2, 8, 16];

    /// Read by [`cores`] in place of the machine's count while nonzero.
    pub(super) static PRETEND_CORES: AtomicUsize = AtomicUsize::new(0);

    /// Makes [`cores`] report `n` until the guard drops. Callers hold
    /// [`serial`].
    fn pretend_cores(n: usize) -> impl Drop {
        struct Reset;
        impl Drop for Reset {
            fn drop(&mut self) {
                PRETEND_CORES.store(0, Ordering::SeqCst);
            }
        }
        PRETEND_CORES.store(n, Ordering::SeqCst);
        Reset
    }

    /// Runs `f` while `n` parked threads each hold a slot.
    fn with_slots_held<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let held = Barrier::new(n + 1);
        std::thread::scope(|s| {
            for _ in 0..n {
                s.spawn(|| {
                    let _slot = hold();
                    held.wait();
                    let _ = release_rx.lock().unwrap().recv();
                });
            }
            held.wait();
            let out = f();
            drop(release_tx);
            out
        })
    }

    #[test]
    fn holds_nest_and_release_on_unwind() {
        let _serial = serial();
        let base = in_use();
        {
            let _outer = hold();
            let _inner = hold();
            assert_eq!(in_use(), base + 1, "nested holds count once");
        }
        assert_eq!(in_use(), base);
        let caught = std::panic::catch_unwind(|| {
            let _slot = hold();
            panic!("pipeline call failed");
        });
        assert!(caught.is_err());
        assert_eq!(in_use(), base, "an unwinding hold releases its slot");
    }

    #[test]
    fn a_fan_out_runs_inline_when_other_threads_hold_every_slot() {
        let _serial = serial();
        for n in PRETEND {
            let _cores = pretend_cores(n);
            let ctx = ObsContext::session();
            let mut items = vec![0u64; 64];
            let workers = with_slots_held(n, || {
                let _g = ctx.attach();
                for_each(&mut items, 0, |x| *x += 1)
            });
            assert_eq!(workers, 1, "{n} cores");
            assert!(items.iter().all(|&x| x == 1));
            assert_eq!(ctx.registry().counter("mc.obs.par.fanouts").get(), 1);
            assert_eq!(ctx.registry().counter("mc.obs.par.helpers").get(), 0);
            assert_eq!(in_use(), 0, "every slot came back");
        }
    }

    #[test]
    fn a_lone_caller_gets_one_helper_per_free_core() {
        let _serial = serial();
        for n in PRETEND {
            let _cores = pretend_cores(n);
            let ctx = ObsContext::session();
            let _g = ctx.attach();
            let _call = hold();
            assert_eq!(fan_out(0, usize::MAX, || {}), n);
            assert_eq!(
                ctx.registry().counter("mc.obs.par.helpers").get(),
                n as u64 - 1
            );
            assert_eq!(fan_out(1, usize::MAX, || {}), 1, "threads bounds workers");
            assert_eq!(fan_out(0, 1, || {}), 1, "jobs bound workers");
        }
    }

    /// The invariant the budget keeps under racing callers: a helper only
    /// takes a free slot, so fewer than `cores()` helpers are ever alive,
    /// and the slots in use stay below `cores() + callers`. (Not below
    /// `max(cores(), callers)`: a caller's hold is never refused, so
    /// callers that start while one caller's helpers fill the budget push
    /// the count past it until those helpers finish.) Live helpers are
    /// counted while they run their share, which is inside the span in
    /// which each holds its slot.
    #[test]
    fn racing_callers_keep_fewer_helpers_than_cores() {
        let _serial = serial();
        const CALLERS: usize = 8;
        const JOBS: usize = 32;
        for n in PRETEND {
            let _cores = pretend_cores(n);
            let live_helpers = AtomicUsize::new(0);
            let peak_helpers = AtomicUsize::new(0);
            let peak_in_use = AtomicUsize::new(0);
            let start = Barrier::new(CALLERS);
            std::thread::scope(|s| {
                for _ in 0..CALLERS {
                    s.spawn(|| {
                        let caller = std::thread::current().id();
                        start.wait();
                        for _ in 0..50 {
                            let next = AtomicUsize::new(0);
                            fan_out(0, JOBS, || {
                                let helper = std::thread::current().id() != caller;
                                if helper {
                                    let live = live_helpers.fetch_add(1, Ordering::SeqCst) + 1;
                                    peak_helpers.fetch_max(live, Ordering::SeqCst);
                                }
                                while next.fetch_add(1, Ordering::SeqCst) < JOBS {
                                    peak_in_use.fetch_max(in_use(), Ordering::SeqCst);
                                }
                                if helper {
                                    live_helpers.fetch_sub(1, Ordering::SeqCst);
                                }
                            });
                        }
                    });
                }
            });
            let helpers = peak_helpers.into_inner();
            let slots = peak_in_use.into_inner();
            assert!(helpers < n, "{helpers} helpers alive at once on {n} cores");
            assert!(
                (1..n + CALLERS).contains(&slots),
                "{slots} slots held by {CALLERS} callers on {n} cores"
            );
            assert_eq!(in_use(), 0);
        }
    }

    #[test]
    fn a_panicking_share_releases_every_slot_and_keeps_its_payload() {
        let _serial = serial();
        let message =
            |p: Box<dyn std::any::Any + Send>| p.downcast_ref::<&str>().map(|s| s.to_string());
        // The caller's share panics.
        let mut items = vec![0u32; 16];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for_each(&mut items, 0, |_| panic!("share failed"))
        }));
        assert_eq!(
            message(caught.unwrap_err()).as_deref(),
            Some("share failed")
        );
        assert_eq!(in_use(), 0);
        // Only a helper's share panics; two cores grant the caller one.
        let _cores = pretend_cores(2);
        let caller = std::thread::current().id();
        let caught = std::panic::catch_unwind(|| {
            fan_out(2, 2, || {
                if std::thread::current().id() != caller {
                    panic!("helper failed");
                }
            })
        });
        assert_eq!(
            message(caught.unwrap_err()).as_deref(),
            Some("helper failed")
        );
        assert_eq!(in_use(), 0, "a leaked slot would serialise later fan-outs");
    }

    #[test]
    fn shares_split_jobs_one_per_allowed_worker() {
        let _serial = serial();
        assert_eq!(share_len(10, 2), 5);
        assert_eq!(share_len(11, 2), 6);
        assert_eq!(share_len(3, 8), 1);
        assert_eq!(share_len(0, 2), 1);
        assert_eq!(share_len(cores() * 4, 0), 4);
    }

    #[test]
    fn map_keeps_item_order() {
        let _serial = serial();
        let items: Vec<u32> = (0..100).collect();
        let out = map(&items, 0, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<u32>>());
        assert!(map(&[] as &[u32], 0, |&x| x).is_empty());
    }
}
