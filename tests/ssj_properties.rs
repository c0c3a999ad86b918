//! Randomized property tests for the top-k SSJ machinery and similarity
//! substrate, using seeded random records (deterministic across runs).

use matchcatcher::ssj::{
    brute_force_topk, topk_join, topk_join_with_scratch, JoinScratch, SsjInstance, SsjParams,
    TopKList,
};
use mc_strsim::arena::RecordArena;
use mc_strsim::join::{nested_loop_join, sim_join};
use mc_strsim::measures::{
    edit_distance, multiset_overlap, overlap_with_bound, required_overlap, within_edit_distance,
    SetMeasure,
};
use mc_table::PairSet;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

const CASES: usize = 64;

/// Random sorted multiset records over a small token universe.
fn random_records(rng: &mut StdRng, max_records: usize) -> Vec<Vec<u32>> {
    let n = rng.random_range(1..max_records);
    (0..n)
        .map(|_| {
            let len = rng.random_range(0..8usize);
            let mut v: Vec<u32> = (0..len).map(|_| rng.random_range(0..24u32)).collect();
            v.sort_unstable();
            v
        })
        .collect()
}

/// Random killed set over the cross product.
fn random_killed(rng: &mut StdRng, na: usize, nb: usize) -> PairSet {
    let mut killed = PairSet::new();
    for i in 0..na as u32 {
        for j in 0..nb as u32 {
            if rng.random_range(0..4u32) == 0 {
                killed.insert(i, j);
            }
        }
    }
    killed
}

/// Random lowercase string over a small alphabet.
fn random_string(rng: &mut StdRng, alphabet: &[u8], max_len: usize) -> String {
    let len = rng.random_range(0..=max_len);
    (0..len)
        .map(|_| alphabet[rng.random_range(0..alphabet.len())] as char)
        .collect()
}

/// The pre-arena `topk_join` event loop, kept verbatim as a reference
/// oracle: `Vec<Vec<u32>>` records, hash-map inverted indexes, and the
/// two per-event `partition_point` occurrence scans. The production join
/// (flat arena + dense counted postings + run counters) must produce
/// **bit-identical** `sorted_entries()` — same pairs, same scores, same
/// tie-breaks — on every input. It scores with the unmemoized, ungated
/// `SetMeasure::score`.
mod reference {
    use matchcatcher::ssj::{SsjParams, TopKList};
    use mc_strsim::measures::SetMeasure;
    use mc_table::hash::{fx_map, FxHashMap};
    use mc_table::{pair_key, PairSet, TupleId};
    use std::collections::BinaryHeap;

    #[derive(Clone, Copy, PartialEq)]
    struct Score(f64);

    impl Eq for Score {}

    impl PartialOrd for Score {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Score {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0)
        }
    }

    fn bound_with_credit(measure: SetMeasure, la: usize, p: usize, credit: usize) -> f64 {
        if credit == 0 {
            return measure.prefix_ubound(la, p, 1);
        }
        let rem = (la - p + 1 + credit).min(la) as f64;
        let la_f = la as f64;
        match measure {
            SetMeasure::Jaccard => rem / la_f,
            SetMeasure::Cosine => (rem / la_f).sqrt(),
            SetMeasure::Dice => 2.0 * rem / (la_f + rem),
            SetMeasure::Overlap => 1.0,
        }
    }

    #[derive(Clone, Copy, PartialEq, Eq)]
    struct Event {
        bound: Score,
        side: u8,
        rec: TupleId,
    }

    impl Ord for Event {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.bound
                .cmp(&other.bound)
                .then_with(|| other.side.cmp(&self.side))
                .then_with(|| other.rec.cmp(&self.rec))
        }
    }

    impl PartialOrd for Event {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    #[derive(Default, Clone, Copy)]
    struct PairState {
        common: u32,
        scored: bool,
    }

    pub fn topk_join(
        records_a: &[Vec<u32>],
        records_b: &[Vec<u32>],
        killed: &PairSet,
        params: SsjParams,
        seed: &[(f64, u64)],
    ) -> TopKList {
        let credit = params.q - 1;
        let mut k_list = TopKList::new(params.k);
        let mut states: FxHashMap<u64, PairState> = fx_map();
        for &(score, pair) in seed {
            if !killed.contains_key(pair) {
                k_list.insert(score, pair);
                states.insert(
                    pair,
                    PairState {
                        common: 0,
                        scored: true,
                    },
                );
            }
        }
        let mut pos: [Vec<u32>; 2] = [vec![0; records_a.len()], vec![0; records_b.len()]];
        let mut index: [FxHashMap<u32, Vec<TupleId>>; 2] = [fx_map(), fx_map()];
        let mut last_posted: [Vec<u32>; 2] = [
            vec![u32::MAX; records_a.len()],
            vec![u32::MAX; records_b.len()],
        ];
        let mut heap: BinaryHeap<Event> = BinaryHeap::new();
        for (side, records) in [(0u8, records_a), (1u8, records_b)] {
            for (r, rec) in records.iter().enumerate() {
                if !rec.is_empty() {
                    heap.push(Event {
                        bound: Score(bound_with_credit(params.measure, rec.len(), 1, credit)),
                        side,
                        rec: r as TupleId,
                    });
                }
            }
        }
        while let Some(ev) = heap.pop() {
            // Mirrors the production loop's canonical prune: only bounds
            // strictly below the threshold (modulo rounding slack) stop
            // the loop — an exact tie can still displace a larger pair
            // key under the canonical (score desc, key asc) order.
            if k_list.len() == k_list.k() && ev.bound.0 < k_list.threshold() - 1e-12 {
                break;
            }
            let side = ev.side as usize;
            let other = 1 - side;
            let records = if side == 0 { records_a } else { records_b };
            let rec = &records[ev.rec as usize];
            let p = pos[side][ev.rec as usize] as usize;
            let tok = rec[p];
            let first_occ = rec[..p].partition_point(|&t| t < tok);
            let occ = p - first_occ + 1;
            if let Some(partners) = index[other].get(&tok) {
                let other_records = if other == 0 { records_a } else { records_b };
                for &o in partners {
                    let (a, b) = if side == 0 { (ev.rec, o) } else { (o, ev.rec) };
                    let key = pair_key(a, b);
                    if killed.contains_key(key) {
                        continue;
                    }
                    let orec = &other_records[o as usize];
                    let opos = pos[other][o as usize] as usize;
                    let o_first = orec[..opos].partition_point(|&t| t < tok);
                    let o_count = orec[..opos].partition_point(|&t| t <= tok) - o_first;
                    if o_count < occ {
                        continue;
                    }
                    let st = states.entry(key).or_default();
                    if st.scored {
                        continue;
                    }
                    st.common += 1;
                    if st.common as usize >= params.q {
                        st.scored = true;
                        let s = params
                            .measure
                            .score(&records_a[a as usize], &records_b[b as usize]);
                        k_list.insert(s, key);
                    }
                }
            }
            if last_posted[side][ev.rec as usize] != tok {
                last_posted[side][ev.rec as usize] = tok;
                index[side].entry(tok).or_default().push(ev.rec);
            }
            pos[side][ev.rec as usize] += 1;
            let next_p = p + 1;
            if next_p < rec.len() {
                let b = bound_with_credit(params.measure, rec.len(), next_p + 1, credit);
                if k_list.len() < k_list.k() || b >= k_list.threshold() - 1e-12 {
                    heap.push(Event {
                        bound: Score(b),
                        side: ev.side,
                        rec: ev.rec,
                    });
                }
            }
        }
        k_list
    }
}

/// The arena event loop as it stood before the bucket queue and the
/// per-prober accumulator: a max-heap of bound events and a table of
/// per-pair states (its hash-map form; the dense form behaved
/// identically), with the production join's positional prefilter and
/// Overlap prefix bound. It returns its list together with its work
/// counters, so the production join can be held to the same lists *and*
/// the same work, event for event. It scores with the unmemoized
/// `SetMeasure::score_above` and tests positions against the unmemoized
/// `required_overlap`, so the production join's memoized bounds are held
/// to the direct computation as well.
mod heap_loop {
    use matchcatcher::ssj::{SsjInstance, SsjParams, TopKList};
    use mc_strsim::measures::{required_overlap, SetMeasure};
    use mc_table::hash::{fx_map, FxHashMap};
    use mc_table::{pair_key, split_pair_key, TupleId};
    use std::collections::BinaryHeap;

    /// The join's work counters, as `mc.core.ssj.*` reports them.
    #[derive(Debug, Default, PartialEq, Eq)]
    pub struct Work {
        pub events: u64,
        pub candidates: u64,
        pub scored: u64,
        pub merge_aborts: u64,
        pub killed_skipped: u64,
        pub bound_pruned: u64,
        pub position_pruned: u64,
    }

    /// The prefix bound; `min_other` (the shortest non-empty record of
    /// either side) gives Overlap a real bound, with credit or without.
    fn bound_with_credit(
        measure: SetMeasure,
        la: usize,
        p: usize,
        credit: usize,
        min_other: usize,
    ) -> f64 {
        if credit == 0 {
            return measure.prefix_ubound(la, p, min_other);
        }
        let rem = (la - p + 1 + credit).min(la) as f64;
        let la_f = la as f64;
        match measure {
            SetMeasure::Jaccard => rem / la_f,
            SetMeasure::Cosine => (rem / la_f).sqrt(),
            SetMeasure::Dice => 2.0 * rem / (la_f + rem),
            SetMeasure::Overlap => (rem / la.min(min_other) as f64).min(1.0),
        }
    }

    #[derive(Clone, Copy, PartialEq)]
    struct Event {
        bound: f64,
        side: u8,
        rec: TupleId,
    }

    impl Eq for Event {}

    impl Ord for Event {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.bound
                .total_cmp(&other.bound)
                .then_with(|| other.side.cmp(&self.side))
                .then_with(|| other.rec.cmp(&self.rec))
        }
    }

    impl PartialOrd for Event {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    /// A pair's exact common prefix count, kept at every incidence
    /// (pruned ones included), and whether it is a live seed.
    #[derive(Default)]
    struct PairState {
        common: u32,
        seeded: bool,
    }

    const BOUND_SLACK: f64 = 1e-12;

    /// `(record, copies in its prefix, position of its first copy)`.
    type Posting = (TupleId, u32, usize);

    pub fn topk_join(
        inst: SsjInstance<'_>,
        params: SsjParams,
        seed: &[(f64, u64)],
    ) -> (TopKList, Work) {
        let credit = params.q - 1;
        let arenas = [inst.records_a, inst.records_b];
        let (na, nb) = (arenas[0].len(), arenas[1].len());
        let min_other = arenas
            .iter()
            .flat_map(|arena| arena.iter().map(<[u32]>::len))
            .filter(|&len| len > 0)
            .min()
            .unwrap_or(1);
        let mut work = Work::default();
        let mut states: FxHashMap<u64, PairState> = fx_map();
        let mut k_list = TopKList::new(params.k);
        for &(score, pair) in seed {
            if !inst.killed.contains_key(pair) {
                k_list.insert(score, pair);
                let (a, b) = split_pair_key(pair);
                if (a as usize) < na && (b as usize) < nb {
                    states.insert(
                        pair,
                        PairState {
                            common: 0,
                            seeded: true,
                        },
                    );
                }
            }
        }
        let mut pos = [vec![0usize; na], vec![0usize; nb]];
        let mut run = [vec![0u32; na], vec![0u32; nb]];
        let mut last_posted = [vec![u32::MAX; na], vec![u32::MAX; nb]];
        let mut slot = [vec![0usize; na], vec![0usize; nb]];
        let mut postings: [FxHashMap<u32, Vec<Posting>>; 2] = [fx_map(), fx_map()];
        let mut heap = BinaryHeap::new();
        for (side, arena) in arenas.iter().enumerate() {
            for (r, rec) in arena.iter().enumerate() {
                if !rec.is_empty() {
                    heap.push(Event {
                        bound: bound_with_credit(params.measure, rec.len(), 1, credit, min_other),
                        side: side as u8,
                        rec: r as TupleId,
                    });
                }
            }
        }
        while let Some(ev) = heap.pop() {
            let threshold = k_list.threshold();
            if threshold > 0.0 && ev.bound < threshold - BOUND_SLACK {
                work.bound_pruned += heap.len() as u64 + 1;
                break;
            }
            work.events += 1;
            let side = ev.side as usize;
            let other = 1 - side;
            let idx = ev.rec as usize;
            let rec = arenas[side].record(ev.rec);
            let p = pos[side][idx];
            let tok = rec[p];
            let occ = if p > 0 && rec[p - 1] == tok {
                run[side][idx] + 1
            } else {
                1
            };
            run[side][idx] = occ;
            let occ = occ as usize;
            for &(o, o_count, o_pos) in postings[other].get(&tok).map_or(&[][..], Vec::as_slice) {
                if (o_count as usize) < occ {
                    continue;
                }
                let (a, b) = if side == 0 { (ev.rec, o) } else { (o, ev.rec) };
                let key = pair_key(a, b);
                let st = states.entry(key).or_default();
                st.common += 1;
                // Past its `q`-th common token a pair needs nothing, and
                // the kernel tests no partner of a copy beyond the `q`-th.
                if occ > params.q {
                    continue;
                }
                // Positional prefilter: this incidence's pair can still
                // share only tokens after it in both records.
                let o_len = arenas[other].record(o).len();
                let rest = (rec.len() - p - 1).min(o_len - o_pos - occ);
                let cap = (params.q + rest).min(rec.len()).min(o_len);
                let gate = k_list.gate();
                if cap < required_overlap(params.measure, gate, rec.len(), o_len) {
                    work.position_pruned += 1;
                    continue;
                }
                let common = st.common as usize;
                if st.seeded || (common != 1 && common != params.q) {
                    continue;
                }
                if common == 1 {
                    work.candidates += 1;
                }
                if common != params.q {
                    continue;
                }
                if inst.killed.contains_key(key) {
                    work.killed_skipped += 1;
                    continue;
                }
                let (ra, rb) = (inst.records_a.record(a), inst.records_b.record(b));
                match params.measure.score_above(ra, rb, gate) {
                    Some(s) => {
                        work.scored += 1;
                        k_list.insert(s, key);
                    }
                    None => work.merge_aborts += 1,
                }
            }
            let list = postings[side].entry(tok).or_default();
            if last_posted[side][idx] != tok {
                last_posted[side][idx] = tok;
                slot[side][idx] = list.len();
                list.push((ev.rec, 1, p));
            } else {
                list[slot[side][idx]].1 += 1;
            }
            pos[side][idx] += 1;
            if p + 1 < rec.len() {
                let b = bound_with_credit(params.measure, rec.len(), p + 2, credit, min_other);
                let threshold = k_list.threshold();
                if threshold == 0.0 || b >= threshold - BOUND_SLACK {
                    heap.push(Event {
                        bound: b,
                        side: ev.side,
                        rec: ev.rec,
                    });
                } else {
                    work.bound_pruned += 1;
                }
            }
        }
        (k_list, work)
    }
}

#[test]
fn topkjoin_matches_brute_force() {
    let mut rng = StdRng::seed_from_u64(0x55A1);
    for case in 0..CASES {
        let a = RecordArena::from_records(&random_records(&mut rng, 12));
        let b = RecordArena::from_records(&random_records(&mut rng, 12));
        let k = rng.random_range(1..8usize);
        let killed = PairSet::new();
        let inst = SsjInstance {
            records_a: &a,
            records_b: &b,
            killed: &killed,
        };
        for m in [SetMeasure::Jaccard, SetMeasure::Cosine, SetMeasure::Dice] {
            let fast = topk_join(
                inst,
                SsjParams {
                    k,
                    q: 1,
                    measure: m,
                },
                &[],
                None,
            );
            let slow = brute_force_topk(inst, k, m);
            let fs = fast.sorted_scores();
            let ss = slow.sorted_scores();
            assert_eq!(fs.len(), ss.len(), "case {case} {m:?}");
            for (x, y) in fs.iter().zip(&ss) {
                assert!((x - y).abs() < 1e-9, "case {case} {m:?}: {fs:?} vs {ss:?}");
            }
        }
    }
}

#[test]
fn topkjoin_matches_brute_force_with_killed_sets() {
    // The satellite equivalence guard for the dense-postings/run-counter
    // logic: random instances with random killed sets, all four measures,
    // k ∈ {1, 10, 100}, one scratch reused throughout.
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let mut scratch = JoinScratch::new();
    for case in 0..50 {
        let ra = random_records(&mut rng, 14);
        let rb = random_records(&mut rng, 14);
        let killed = random_killed(&mut rng, ra.len(), rb.len());
        let a = RecordArena::from_records(&ra);
        let b = RecordArena::from_records(&rb);
        let inst = SsjInstance {
            records_a: &a,
            records_b: &b,
            killed: &killed,
        };
        for m in SetMeasure::ALL {
            for k in [1usize, 10, 100] {
                let params = SsjParams {
                    k,
                    q: 1,
                    measure: m,
                };
                let fast = topk_join_with_scratch(inst, params, &[], None, &mut scratch);
                let slow = brute_force_topk(inst, k, m);
                let fs = fast.sorted_scores();
                let ss = slow.sorted_scores();
                assert_eq!(fs.len(), ss.len(), "case {case} {m:?} k={k}");
                for (x, y) in fs.iter().zip(&ss) {
                    assert!(
                        (x - y).abs() < 1e-9,
                        "case {case} {m:?} k={k}: {fs:?} vs {ss:?}"
                    );
                }
                for (_, key) in fast.sorted_entries() {
                    assert!(!killed.contains_key(key), "case {case} {m:?} k={k}");
                }
            }
        }
    }
}

#[test]
fn topkjoin_bit_identical_to_reference_loop() {
    // The arena/dense-postings join must return *bit-identical* entries
    // (pairs AND scores, including tie-break outcomes) to the original
    // hash-map + partition_point implementation preserved above.
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for case in 0..50 {
        let ra = random_records(&mut rng, 14);
        let rb = random_records(&mut rng, 14);
        let killed = random_killed(&mut rng, ra.len(), rb.len());
        let a = RecordArena::from_records(&ra);
        let b = RecordArena::from_records(&rb);
        let inst = SsjInstance {
            records_a: &a,
            records_b: &b,
            killed: &killed,
        };
        for m in SetMeasure::ALL {
            for (k, q) in [(1usize, 1usize), (10, 1), (100, 1), (10, 2), (10, 3)] {
                let params = SsjParams { k, q, measure: m };
                let new = topk_join(inst, params, &[], None);
                let old = reference::topk_join(&ra, &rb, &killed, params, &[]);
                assert_eq!(
                    new.sorted_entries(),
                    old.sorted_entries(),
                    "case {case} {m:?} k={k} q={q}"
                );
            }
        }
    }
}

#[test]
fn topkjoin_lists_and_work_equal_the_heap_loop() {
    // The bucket queue must pop exactly the heap's event sequence and the
    // accumulator must reach exactly the state table's per-incidence
    // decisions: bit-identical lists AND identical work counters, for
    // every measure, q and k, with killed sets, empty records, duplicate
    // tokens and seeds inside the arenas, outside them and killed. One
    // scratch serves every instance size, every measure and both
    // kernels, and the oracle's unmemoized `score_above` holds the
    // scratch's bound memo to the direct computation.
    use matchcatcher::ssj::topk_semi_join;
    let ctx = mc_obs::ObsContext::session();
    let _guard = ctx.attach();
    let mut rng = StdRng::seed_from_u64(0x0B0C_4E75);
    let mut scratch = JoinScratch::new();
    for case in 0..41 {
        // Alternate small and larger instances so reuse crosses sizes.
        // The last has records of 65+ tokens: their cosine keys
        // (`la · lb`) exceed the memo's table, so it computes directly.
        let (n, lens, universe): (usize, std::ops::Range<usize>, u32) = match case {
            40 => (10, 65..90, 160),
            _ if case % 2 == 0 => (14, 0..8, 24),
            _ => (48, 0..14, 40),
        };
        let gen = |rng: &mut StdRng| -> Vec<Vec<u32>> {
            (0..rng.random_range(1..n))
                .map(|_| {
                    let l = rng.random_range(lens.clone());
                    let mut v: Vec<u32> = (0..l).map(|_| rng.random_range(0..universe)).collect();
                    v.sort_unstable();
                    v
                })
                .collect()
        };
        let (ra, rb) = (gen(&mut rng), gen(&mut rng));
        let killed = random_killed(&mut rng, ra.len(), rb.len());
        let a = RecordArena::from_records(&ra);
        let b = RecordArena::from_records(&rb);
        let inst = SsjInstance {
            records_a: &a,
            records_b: &b,
            killed: &killed,
        };
        for m in SetMeasure::ALL {
            // Seeds as a session passes them: true pairs with their exact
            // scores, a pair beyond both arenas and a killed pair.
            let truth = brute_force_topk(inst, 4, m).sorted_entries();
            let mut seeds: Vec<(f64, u64)> = truth.into_iter().take(3).collect();
            seeds.push((0.5, mc_table::pair_key(ra.len() as u32 + 2, 0)));
            if let Some(k) = killed.iter().map(|(x, y)| mc_table::pair_key(x, y)).min() {
                seeds.push((0.75, k));
            }
            for q in 1..=3usize {
                for k in [1usize, 10, 100] {
                    for seed in [&[][..], &seeds[..]] {
                        let params = SsjParams { k, q, measure: m };
                        let (old, want) = heap_loop::topk_join(inst, params, seed);
                        let base = mc_obs::MetricsSnapshot::capture();
                        let new = topk_join_with_scratch(inst, params, seed, None, &mut scratch);
                        let d = mc_obs::MetricsSnapshot::capture().since(&base);
                        let got = heap_loop::Work {
                            events: d.counter("mc.core.ssj.events"),
                            candidates: d.counter("mc.core.ssj.candidates"),
                            scored: d.counter("mc.core.ssj.scored"),
                            merge_aborts: d.counter("mc.core.ssj.merge_aborts"),
                            killed_skipped: d.counter("mc.core.ssj.killed_skipped"),
                            bound_pruned: d.counter("mc.core.ssj.bound_pruned"),
                            position_pruned: d.counter("mc.core.ssj.position_pruned"),
                        };
                        let what = format!("case {case} {m:?} q={q} k={k} seeds={}", seed.len());
                        assert_eq!(new.sorted_entries(), old.sorted_entries(), "{what}");
                        assert_eq!(got, want, "{what}");
                        assert_eq!(scratch.last_events(), want.events, "{what}");
                        // Interleave the semi-join on the same scratch.
                        let semi = topk_semi_join(
                            inst,
                            params,
                            seed,
                            None,
                            &mut scratch,
                            (case % 2) as u8,
                        );
                        assert_eq!(semi.sorted_entries(), old.sorted_entries(), "{what}");
                    }
                }
            }
        }
    }
}

/// The top-k of every pair outside `C` sharing at least `q` tokens: the
/// universe QJoin ranks (it never scores a pair below `q` common tokens),
/// and for `q = 1` exactly `brute_force_topk`.
fn brute_force_q(inst: SsjInstance<'_>, k: usize, measure: SetMeasure, q: usize) -> TopKList {
    let mut list = TopKList::new(k);
    for (a, ra) in inst.records_a.iter().enumerate() {
        for (b, rb) in inst.records_b.iter().enumerate() {
            let key = mc_table::pair_key(a as u32, b as u32);
            if multiset_overlap(ra, rb) >= q && !inst.killed.contains_key(key) {
                list.insert(measure.score(ra, rb), key);
            }
        }
    }
    list
}

/// Runs the event loop and the semi-join (both post sides) on one
/// instance, asserts that each returns `brute_force_q`'s list bit for
/// bit and that the event loop does the heap-loop oracle's work, and
/// returns each kernel's `mc.core.ssj.position_pruned`.
fn kernels_equal_brute_force(inst: SsjInstance<'_>, params: SsjParams, what: &str) -> [u64; 3] {
    use matchcatcher::ssj::topk_semi_join;
    let want = brute_force_q(inst, params.k, params.measure, params.q).sorted_entries();
    let mut pruned = [0; 3];
    let mut scratch = JoinScratch::new();
    let base = mc_obs::MetricsSnapshot::capture();
    let list = topk_join_with_scratch(inst, params, &[], None, &mut scratch);
    let d = mc_obs::MetricsSnapshot::capture().since(&base);
    assert_eq!(list.sorted_entries(), want, "{what}: event loop");
    let (oracle, work) = heap_loop::topk_join(inst, params, &[]);
    assert_eq!(oracle.sorted_entries(), want, "{what}: heap loop");
    assert_eq!(d.counter("mc.core.ssj.events"), work.events, "{what}");
    assert_eq!(
        d.counter("mc.core.ssj.candidates"),
        work.candidates,
        "{what}"
    );
    assert_eq!(d.counter("mc.core.ssj.scored"), work.scored, "{what}");
    assert_eq!(
        d.counter("mc.core.ssj.merge_aborts"),
        work.merge_aborts,
        "{what}"
    );
    assert_eq!(
        d.counter("mc.core.ssj.position_pruned"),
        work.position_pruned,
        "{what}"
    );
    pruned[0] = work.position_pruned;
    for post_side in [0u8, 1] {
        let base = mc_obs::MetricsSnapshot::capture();
        let semi = topk_semi_join(inst, params, &[], None, &mut scratch, post_side);
        let d = mc_obs::MetricsSnapshot::capture().since(&base);
        assert_eq!(
            semi.sorted_entries(),
            want,
            "{what}: semi-join posting {post_side}"
        );
        pruned[1 + post_side as usize] = d.counter("mc.core.ssj.position_pruned");
    }
    pruned
}

#[test]
fn positional_prefilter_prunes_late_overlaps_without_changing_lists() {
    // Long records whose first common tokens fall late: each record
    // opens with 18-45 tokens no other record holds (the rarest ranks)
    // and ends in 6-17 tokens drawn, with duplicates, from a small pool
    // of frequent ranks. Every incidence happens deep in both records,
    // where few tokens remain to share, so the prefilter has partners to
    // skip in both kernels while the lists stay the brute force's.
    let ctx = mc_obs::ObsContext::session();
    let _guard = ctx.attach();
    let mut rng = StdRng::seed_from_u64(0x90_51_71_0E);
    let mut next_rare = 0u32;
    let mut gen = |rng: &mut StdRng, n: usize| -> Vec<Vec<u32>> {
        (0..n)
            .map(|_| {
                let rare = rng.random_range(18..46u32);
                let mut v: Vec<u32> = (next_rare..next_rare + rare).collect();
                next_rare += rare;
                let common = rng.random_range(6..18usize);
                v.extend((0..common).map(|_| 100_000 + rng.random_range(0..14u32)));
                v.sort_unstable();
                v
            })
            .collect()
    };
    let (ra, rb) = (gen(&mut rng, 36), gen(&mut rng, 28));
    assert!(ra.iter().any(|r| r.windows(2).any(|w| w[0] == w[1])));
    let a = RecordArena::from_records(&ra);
    let b = RecordArena::from_records(&rb);
    let killed = random_killed(&mut rng, ra.len(), rb.len());
    let inst = SsjInstance {
        records_a: &a,
        records_b: &b,
        killed: &killed,
    };
    for m in SetMeasure::ALL {
        for q in 1..=3usize {
            for k in [3usize, 12] {
                let params = SsjParams { k, q, measure: m };
                let pruned = kernels_equal_brute_force(inst, params, &format!("{m:?} q={q} k={k}"));
                for (kernel, &n) in ["event loop", "semi-join A", "semi-join B"]
                    .iter()
                    .zip(&pruned)
                {
                    assert!(n > 0, "{m:?} q={q} k={k}: {kernel} skipped no partner");
                }
            }
        }
    }
}

#[test]
fn degenerate_joins_equal_brute_force() {
    // The degenerate shapes of a join: a one-token vocabulary (records
    // are runs of one rank), all-identical records (every pair ties at
    // 1.0, so the list is decided by pair keys alone), k at or beyond
    // |A × B|, and one side empty (no records, or only empty records).
    let ctx = mc_obs::ObsContext::session();
    let _guard = ctx.attach();
    let mut rng = StdRng::seed_from_u64(0x00DE_6E7E);
    let one_token = |rng: &mut StdRng, n: usize| -> Vec<Vec<u32>> {
        (0..n)
            .map(|_| vec![7; rng.random_range(0..6usize)])
            .collect()
    };
    let same = vec![vec![1u32, 2, 2, 5, 9]; 9];
    let none: Vec<Vec<u32>> = Vec::new();
    let empties: Vec<Vec<u32>> = vec![Vec::new(); 4];
    type Records = Vec<Vec<u32>>;
    let shapes: Vec<(&str, Records, Records)> = vec![
        ("one token", one_token(&mut rng, 9), one_token(&mut rng, 11)),
        ("identical", same.clone(), same[..7].to_vec()),
        (
            "full cross product",
            random_records(&mut rng, 9),
            random_records(&mut rng, 9),
        ),
        ("A empty", none.clone(), random_records(&mut rng, 9)),
        ("B empty", random_records(&mut rng, 9), none),
        (
            "A all-empty records",
            empties.clone(),
            random_records(&mut rng, 9),
        ),
        ("B all-empty records", random_records(&mut rng, 9), empties),
    ];
    for (name, ra, rb) in shapes {
        let a = RecordArena::from_records(&ra);
        let b = RecordArena::from_records(&rb);
        let killed = PairSet::new();
        let inst = SsjInstance {
            records_a: &a,
            records_b: &b,
            killed: &killed,
        };
        let cross = ra.len() * rb.len();
        for m in SetMeasure::ALL {
            for q in 1..=3usize {
                for k in [1, 4, cross.max(1), cross + 5] {
                    let params = SsjParams { k, q, measure: m };
                    kernels_equal_brute_force(inst, params, &format!("{name}: {m:?} q={q} k={k}"));
                }
            }
        }
    }
}

#[test]
fn arena_roundtrips_tokenized_merged() {
    // RecordArena::from_tokenized must reproduce TokenizedTable::merged
    // exactly for every tuple and attribute subset.
    use mc_strsim::dict::TokenizedTable;
    use mc_strsim::tokenize::Tokenizer;
    use mc_table::{AttrId, Schema, Table, Tuple};
    use std::sync::Arc;

    let mut rng = StdRng::seed_from_u64(0xA7E4A);
    let schema = Arc::new(Schema::from_names(["u", "v", "w"]));
    let mut a = Table::new("A", Arc::clone(&schema));
    let mut b = Table::new("B", schema);
    let vocab = ["ab", "cd", "ef", "gh", "ij", "kl", "mn"];
    let random_value = |rng: &mut StdRng| -> Option<String> {
        if rng.random_range(0..5u32) == 0 {
            return None;
        }
        let n = rng.random_range(0..5usize);
        Some(
            (0..n)
                .map(|_| vocab[rng.random_range(0..vocab.len())])
                .collect::<Vec<_>>()
                .join(" "),
        )
    };
    for _ in 0..30 {
        a.push(Tuple::new(vec![
            random_value(&mut rng),
            random_value(&mut rng),
            random_value(&mut rng),
        ]));
        b.push(Tuple::new(vec![
            random_value(&mut rng),
            random_value(&mut rng),
            random_value(&mut rng),
        ]));
    }
    let attrs = [AttrId(0), AttrId(1), AttrId(2)];
    let (ta, tb, _) = TokenizedTable::build_pair(&a, &b, &attrs, Tokenizer::Word);
    for tok in [&ta, &tb] {
        for idx in [
            vec![0usize],
            vec![1],
            vec![2],
            vec![0, 1],
            vec![1, 2],
            vec![0, 1, 2],
        ] {
            let arena = RecordArena::from_tokenized(tok, &idx);
            assert_eq!(arena.len(), tok.rows());
            for t in 0..tok.rows() as u32 {
                assert_eq!(
                    arena.record(t),
                    tok.merged(&idx, t).as_slice(),
                    "attrs {idx:?} tuple {t}"
                );
            }
        }
    }
}

#[test]
fn killed_pairs_never_surface() {
    let mut rng = StdRng::seed_from_u64(0x55A2);
    for _ in 0..CASES {
        let a = RecordArena::from_records(&random_records(&mut rng, 10));
        let b = RecordArena::from_records(&random_records(&mut rng, 10));
        // Kill a deterministic subset of pairs.
        let mut killed = PairSet::new();
        for i in 0..a.len() as u32 {
            for j in 0..b.len() as u32 {
                if (i + j) % 3 == 0 {
                    killed.insert(i, j);
                }
            }
        }
        let inst = SsjInstance {
            records_a: &a,
            records_b: &b,
            killed: &killed,
        };
        let list = topk_join(
            inst,
            SsjParams {
                k: 50,
                q: 1,
                measure: SetMeasure::Jaccard,
            },
            &[],
            None,
        );
        for (_, key) in list.sorted_entries() {
            assert!(!killed.contains_key(key));
        }
    }
}

#[test]
fn qjoin_is_subset_with_correct_scores() {
    let mut rng = StdRng::seed_from_u64(0x55A3);
    for case in 0..CASES {
        let ra = random_records(&mut rng, 10);
        let rb = random_records(&mut rng, 10);
        let a = RecordArena::from_records(&ra);
        let b = RecordArena::from_records(&rb);
        let q = rng.random_range(2..4usize);
        let killed = PairSet::new();
        let inst = SsjInstance {
            records_a: &a,
            records_b: &b,
            killed: &killed,
        };
        let full = brute_force_topk(inst, usize::MAX >> 1, SetMeasure::Jaccard);
        let qj = topk_join(
            inst,
            SsjParams {
                k: 100,
                q,
                measure: SetMeasure::Jaccard,
            },
            &[],
            None,
        );
        // Every pair QJoin returns has its exact score.
        let truth: std::collections::HashMap<u64, f64> = full
            .sorted_entries()
            .into_iter()
            .map(|(s, p)| (p, s))
            .collect();
        for (s, p) in qj.sorted_entries() {
            let t = truth.get(&p).copied().unwrap_or(0.0);
            assert!((s - t).abs() < 1e-9, "case {case} pair {p}: {s} vs {t}");
            // And shares at least q tokens.
            let (x, y) = mc_table::split_pair_key(p);
            let o = mc_strsim::multiset_overlap(&ra[x as usize], &rb[y as usize]);
            assert!(o >= q, "case {case}");
        }
    }
}

#[test]
fn threshold_join_equals_nested_loop() {
    let mut rng = StdRng::seed_from_u64(0x55A4);
    for case in 0..CASES {
        let a = random_records(&mut rng, 14);
        let b = random_records(&mut rng, 14);
        let t = rng.random_range(0.2f64..0.95);
        for m in [SetMeasure::Jaccard, SetMeasure::Cosine, SetMeasure::Dice] {
            let fast = sim_join(&a, &b, m, t).to_sorted_vec();
            let slow = nested_loop_join(&a, &b, m, t).to_sorted_vec();
            assert_eq!(fast, slow, "case {case} measure {m:?} t {t}");
        }
    }
}

#[test]
fn topk_list_holds_the_k_best() {
    let mut rng = StdRng::seed_from_u64(0x55A5);
    for case in 0..CASES {
        let n = rng.random_range(1..40usize);
        let scores: Vec<f64> = (0..n).map(|_| rng.random_range(0.01f64..1.0)).collect();
        let k = rng.random_range(1..10usize);
        let mut list = TopKList::new(k);
        for (i, &s) in scores.iter().enumerate() {
            list.insert(s, i as u64);
        }
        let mut expect = scores.clone();
        expect.sort_by(|a, b| b.total_cmp(a));
        expect.truncate(k);
        let got = list.sorted_scores();
        assert_eq!(got.len(), expect.len(), "case {case}");
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-12, "case {case}");
        }
        // Threshold is the k-th best (or 0 if not full).
        if scores.len() >= k {
            assert!(
                (list.threshold() - expect[expect.len() - 1]).abs() < 1e-12,
                "case {case}"
            );
        } else {
            assert_eq!(list.threshold(), 0.0, "case {case}");
        }
    }
}

#[test]
fn overlap_with_bound_agrees_with_naive_overlap() {
    // The threshold-aware merge's full contract against the naive oracle:
    // `overlap_with_bound(a, b, o_min)` returns `Some(multiset_overlap)`
    // exactly when the bound is reachable and `None` otherwise — for
    // measure-derived bounds across all four set measures and the
    // adversarial corners (0, the exact overlap, one past it, and a bound
    // no pair can meet).
    let mut rng = StdRng::seed_from_u64(0x0B0DE);
    let random_record = |rng: &mut StdRng| -> Vec<u32> {
        let len = rng.random_range(0..12usize);
        let mut v: Vec<u32> = (0..len).map(|_| rng.random_range(0..20u32)).collect();
        v.sort_unstable();
        v
    };
    for case in 0..CASES * 4 {
        let a = random_record(&mut rng);
        let b = random_record(&mut rng);
        let o = multiset_overlap(&a, &b);
        let check = |o_min: usize| {
            assert_eq!(
                overlap_with_bound(&a, &b, o_min),
                (o >= o_min).then_some(o),
                "case {case} o_min={o_min} a={a:?} b={b:?}"
            );
        };
        // Adversarial corners.
        for o_min in [0, o, o + 1, a.len().min(b.len()) + 1, usize::MAX] {
            check(o_min);
        }
        // Measure-derived bounds, as the join computes them from the
        // current top-k heap minimum.
        for m in SetMeasure::ALL {
            for t10 in 0..=10u32 {
                check(required_overlap(m, f64::from(t10) / 10.0, a.len(), b.len()));
            }
        }
    }
}

#[test]
fn auto_q_lists_equal_fixed_q_used_lists() {
    // Auto-q only chooses q: its preludes keep nothing for the main run,
    // so a joint run under `Auto` must produce bit-identical per-config
    // lists (pairs, scores, tie-breaks) to a run at `Fixed(q_used)`.
    use matchcatcher::config::ConfigGenerator;
    use matchcatcher::joint::{run_joint, JointParams, QStrategy};
    use mc_datagen::profiles::DatasetProfile;
    use mc_strsim::dict::TokenizedTable;
    use mc_strsim::tokenize::Tokenizer;

    let ds = DatasetProfile::FodorsZagats.generate_scaled(7, 0.3);
    let generator = ConfigGenerator::default();
    let promising = generator.promising(&ds.a, &ds.b);
    let tree = generator.build_tree(&promising);
    let (ta, tb, _) = TokenizedTable::build_pair(&ds.a, &ds.b, &promising.attrs, Tokenizer::Word);
    let killed = PairSet::new();
    let run = |q| {
        let params = JointParams {
            k: 60,
            q,
            ..Default::default()
        };
        run_joint(&ta, &tb, &killed, &tree, params)
    };
    let auto = run(QStrategy::Auto {
        max_q: 4,
        prelude_k: 50,
    });
    let fixed = run(QStrategy::Fixed(auto.q_used));
    assert_eq!(auto.q_used, fixed.q_used);
    assert_eq!(auto.lists.len(), fixed.lists.len());
    for (i, (la, lb)) in auto.lists.iter().zip(&fixed.lists).enumerate() {
        let bits = |l: &TopKList| -> Vec<(u64, u64)> {
            l.sorted_entries()
                .into_iter()
                .map(|(s, p)| (s.to_bits(), p))
                .collect()
        };
        assert_eq!(bits(la), bits(lb), "config {i}");
    }
}

#[test]
fn banded_edit_distance_is_consistent() {
    let mut rng = StdRng::seed_from_u64(0x55A6);
    for case in 0..CASES * 4 {
        let a = random_string(&mut rng, b"abcd", 8);
        let b = random_string(&mut rng, b"abcd", 8);
        let k = rng.random_range(0..5usize);
        let d = edit_distance(&a, &b);
        assert_eq!(
            within_edit_distance(&a, &b, k),
            d <= k,
            "case {case} {a:?} {b:?} k={k}"
        );
    }
}

#[test]
fn edit_distance_is_a_metric() {
    let mut rng = StdRng::seed_from_u64(0x55A7);
    for case in 0..CASES * 4 {
        let a = random_string(&mut rng, b"abc", 6);
        let b = random_string(&mut rng, b"abc", 6);
        let c = random_string(&mut rng, b"abc", 6);
        let ab = edit_distance(&a, &b);
        let ba = edit_distance(&b, &a);
        assert_eq!(ab, ba, "case {case}: symmetry");
        assert_eq!(edit_distance(&a, &a), 0, "case {case}: identity");
        let ac = edit_distance(&a, &c);
        let cb = edit_distance(&c, &b);
        assert!(ab <= ac + cb, "case {case}: triangle inequality");
    }
}

#[test]
fn measures_are_bounded_and_symmetric() {
    let mut rng = StdRng::seed_from_u64(0x55A8);
    for case in 0..CASES {
        let mut a: Vec<u32> = (0..rng.random_range(0..10usize))
            .map(|_| rng.random_range(0..16u32))
            .collect();
        let mut b: Vec<u32> = (0..rng.random_range(0..10usize))
            .map(|_| rng.random_range(0..16u32))
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        for m in SetMeasure::ALL {
            let s1 = m.score(&a, &b);
            let s2 = m.score(&b, &a);
            assert!((s1 - s2).abs() < 1e-12, "case {case} {m:?} not symmetric");
            assert!(
                (0.0..=1.0 + 1e-12).contains(&s1),
                "case {case} {m:?} out of range: {s1}"
            );
        }
        if !a.is_empty() {
            for m in SetMeasure::ALL {
                assert!(
                    (m.score(&a, &a) - 1.0).abs() < 1e-12,
                    "case {case} {m:?} self-score"
                );
            }
        }
    }
}
