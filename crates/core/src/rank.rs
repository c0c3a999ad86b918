//! Rank aggregation: MedRank and weighted median ranking (§5).
//!
//! The verifier must combine the per-config top-k lists into one global
//! order. **MedRank** \[15\] assigns each item, per list, a competition
//! rank (ties share the lowest position; items missing from a list get
//! rank `|list| + 1`), then orders items by the *median* of their ranks.
//! **WMR** generalizes this with per-list weights updated from user
//! feedback (`w_i ← w_i · (1 + ln(1 + r_i))` where `r_i` is the number of
//! confirmed matches appearing in list `i`); the paper keeps WMR as the
//! baseline its learning-based verifier beats (§6.5).

use crate::joint::CandidateUnion;

/// Per-list competition ranks for every candidate pair.
#[derive(Debug, Clone)]
pub struct RankedLists {
    /// `ranks[c][i]` = rank of item `i` in list `c` (missing = max+1).
    pub ranks: Vec<Vec<u32>>,
    items: usize,
}

impl RankedLists {
    /// Computes ranks from the candidate union.
    pub fn from_union(union: &CandidateUnion) -> Self {
        let items = union.len();
        let mut ranks = Vec::with_capacity(union.scores.len());
        for col in &union.scores {
            // Items present in this list, sorted by descending score.
            let mut present: Vec<(f64, usize)> = col
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.map(|s| (s, i)))
                .collect();
            present.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            let missing_rank = present.len() as u32 + 1;
            let mut r = vec![missing_rank; items];
            let mut current_rank = 0u32;
            let mut last_score = f64::INFINITY;
            for (pos, &(score, item)) in present.iter().enumerate() {
                if score < last_score {
                    current_rank = pos as u32 + 1;
                    last_score = score;
                }
                r[item] = current_rank;
            }
            ranks.push(r);
        }
        RankedLists { ranks, items }
    }

    /// Number of items.
    pub fn items(&self) -> usize {
        self.items
    }

    /// Number of lists.
    pub fn lists(&self) -> usize {
        self.ranks.len()
    }

    /// The (lower) median rank of item `i` across lists.
    pub fn median_rank(&self, i: usize) -> u32 {
        self.median_rank_with(i, &mut Vec::new())
    }

    /// [`RankedLists::median_rank`] sorting in the caller's buffer.
    fn median_rank_with(&self, i: usize, rs: &mut Vec<u32>) -> u32 {
        rs.clear();
        rs.extend(self.ranks.iter().map(|r| r[i]));
        rs.sort_unstable();
        rs[(rs.len() - 1) / 2]
    }

    /// Weighted median rank of item `i`: the smallest rank `x` such that
    /// the lists ranking `i` at or better than `x` hold at least half the
    /// total weight.
    pub fn weighted_median_rank(&self, i: usize, weights: &[f64]) -> u32 {
        self.weighted_median_rank_with(i, weights, &mut Vec::new())
    }

    /// [`RankedLists::weighted_median_rank`] sorting in the caller's
    /// buffer.
    fn weighted_median_rank_with(
        &self,
        i: usize,
        weights: &[f64],
        pairs: &mut Vec<(u32, f64)>,
    ) -> u32 {
        debug_assert_eq!(weights.len(), self.lists());
        pairs.clear();
        pairs.extend(self.ranks.iter().zip(weights).map(|(r, &w)| (r[i], w)));
        pairs.sort_unstable_by_key(|p| p.0);
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for &(rank, w) in pairs.iter() {
            acc += w;
            if acc * 2.0 >= total {
                return rank;
            }
        }
        u32::MAX
    }
}

/// MedRank global order: item indexes best-first. Ties broken by item
/// index (the union is already sorted by best score, so this is
/// deterministic and sensible). Each item's median is computed once.
pub fn medrank_order(ranked: &RankedLists) -> Vec<usize> {
    let mut buf = Vec::with_capacity(ranked.lists());
    order_by_rank(ranked.items(), |i| ranked.median_rank_with(i, &mut buf))
}

/// Items `0..items` ascending by `(rank(i), i)`, calling `rank` once per
/// item: a sort would call a key function twice per comparison. `rank`
/// sorts each item's ranks in one buffer the caller reuses.
fn order_by_rank(items: usize, mut rank: impl FnMut(usize) -> u32) -> Vec<usize> {
    let mut keyed: Vec<(u32, usize)> = (0..items).map(|i| (rank(i), i)).collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// Per-list weights for WMR.
#[derive(Debug, Clone)]
pub struct WmrWeights {
    w: Vec<f64>,
}

impl WmrWeights {
    /// Uniform initial weights `1/m`.
    pub fn uniform(lists: usize) -> Self {
        assert!(lists > 0);
        WmrWeights {
            w: vec![1.0 / lists as f64; lists],
        }
    }

    /// The current weights.
    pub fn weights(&self) -> &[f64] {
        &self.w
    }

    /// Feedback update: `w_i ← w_i · (1 + ln(1 + r_i))`, then normalize.
    /// `matches_per_list[i]` = confirmed matches this iteration that
    /// appear in list `i`.
    pub fn update(&mut self, matches_per_list: &[usize]) {
        debug_assert_eq!(matches_per_list.len(), self.w.len());
        for (w, &r) in self.w.iter_mut().zip(matches_per_list) {
            *w *= 1.0 + (1.0 + r as f64).ln();
        }
        let total: f64 = self.w.iter().sum();
        if total > 0.0 {
            for w in &mut self.w {
                *w /= total;
            }
        }
    }
}

/// WMR global order under the given weights (ties by item index, each
/// item's weighted median computed once).
pub fn wmr_order(ranked: &RankedLists, weights: &WmrWeights) -> Vec<usize> {
    let mut buf = Vec::with_capacity(ranked.lists());
    order_by_rank(ranked.items(), |i| {
        ranked.weighted_median_rank_with(i, weights.weights(), &mut buf)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssj::TopKList;

    /// The exact Figure 8 example: three lists over items a, b, c, d.
    fn figure8() -> (CandidateUnion, Vec<u64>) {
        // a=0, b=1, c=2, d=3 (pair keys chosen so the union orders them
        // a, b, c, d by best score).
        let mut l1 = TopKList::new(4);
        l1.insert(1.0, 0);
        l1.insert(0.8, 1);
        l1.insert(0.8, 2);
        l1.insert(0.6, 3);
        let mut l2 = TopKList::new(4);
        l2.insert(0.9, 0);
        l2.insert(0.7, 2);
        l2.insert(0.6, 3);
        let mut l3 = TopKList::new(4);
        l3.insert(0.85, 1); // b first (paper has 0.8; adjusted so the
                            // union's deterministic order stays a,b,c,d)
        l3.insert(0.5, 0);
        l3.insert(0.3, 2);
        l3.insert(0.2, 3);
        let union = CandidateUnion::build(&[l1, l2, l3]);
        (union, vec![0, 1, 2, 3])
    }

    #[test]
    fn figure8_ranks() {
        let (union, keys) = figure8();
        assert_eq!(union.pairs, keys);
        let ranked = RankedLists::from_union(&union);
        // L1: a(1) b(2) c(2) d(4)
        assert_eq!(ranked.ranks[0], vec![1, 2, 2, 4]);
        // L2: a(1) c(2) d(3); b missing → 4
        assert_eq!(ranked.ranks[1], vec![1, 4, 2, 3]);
        // L3: b(1) a(2) c(3) d(4)
        assert_eq!(ranked.ranks[2], vec![2, 1, 3, 4]);
    }

    #[test]
    fn figure8_global_medrank() {
        let (union, _) = figure8();
        let ranked = RankedLists::from_union(&union);
        // Medians: a=1, b=2, c=2, d=4 → order a, b, c, d (b before c by
        // index tie-break, as in the paper's L*).
        assert_eq!(ranked.median_rank(0), 1);
        assert_eq!(ranked.median_rank(1), 2);
        assert_eq!(ranked.median_rank(2), 2);
        assert_eq!(ranked.median_rank(3), 4);
        assert_eq!(medrank_order(&ranked), vec![0, 1, 2, 3]);
    }

    #[test]
    fn missing_items_rank_after_present() {
        let mut l1 = TopKList::new(2);
        l1.insert(0.9, 7);
        let mut l2 = TopKList::new(2);
        l2.insert(0.8, 7);
        l2.insert(0.7, 9);
        let union = CandidateUnion::build(&[l1, l2]);
        let ranked = RankedLists::from_union(&union);
        let i9 = union.pairs.iter().position(|&p| p == 9).unwrap();
        assert_eq!(ranked.ranks[0][i9], 2); // missing from l1 (1 item) → 2
    }

    #[test]
    fn wmr_uniform_equals_median_for_odd_lists() {
        let (union, _) = figure8();
        let ranked = RankedLists::from_union(&union);
        let w = WmrWeights::uniform(3);
        for i in 0..ranked.items() {
            assert_eq!(
                ranked.weighted_median_rank(i, w.weights()),
                ranked.median_rank(i)
            );
        }
        assert_eq!(wmr_order(&ranked, &w), medrank_order(&ranked));
    }

    #[test]
    fn wmr_update_shifts_weight_to_productive_lists() {
        let mut w = WmrWeights::uniform(2);
        w.update(&[5, 0]); // list 0 contained 5 confirmed matches
        assert!(w.weights()[0] > w.weights()[1]);
        let sum: f64 = w.weights().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn orders_equal_the_per_comparison_key_sort() {
        // Random ranked lists with many ties (ranks from a small range,
        // missing items sharing the last rank): computing each key once
        // gives exactly the order a sort calling the key per comparison
        // gave.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for case in 0..200 {
            let items = next(40) as usize;
            let lists = 1 + next(7) as usize;
            let ranks: Vec<Vec<u32>> = (0..lists)
                .map(|_| (0..items).map(|_| 1 + next(6) as u32).collect())
                .collect();
            let ranked = RankedLists { ranks, items };
            let mut medrank: Vec<usize> = (0..items).collect();
            medrank.sort_by_key(|&i| (ranked.median_rank(i), i));
            assert_eq!(medrank_order(&ranked), medrank, "case {case}");
            let mut w = WmrWeights::uniform(lists);
            w.update(&(0..lists).map(|_| next(4) as usize).collect::<Vec<_>>());
            let mut wmr: Vec<usize> = (0..items).collect();
            wmr.sort_by_key(|&i| (ranked.weighted_median_rank(i, w.weights()), i));
            assert_eq!(wmr_order(&ranked, &w), wmr, "case {case}");
        }
    }

    #[test]
    fn wmr_weights_change_the_order() {
        // Two lists that disagree; enough weight on list 1 makes its
        // favourite win.
        let mut l1 = TopKList::new(2);
        l1.insert(0.9, 100); // item x best in l1
        l1.insert(0.1, 200);
        let mut l2 = TopKList::new(2);
        l2.insert(0.9, 200); // item y best in l2
        l2.insert(0.1, 100);
        let union = CandidateUnion::build(&[l1, l2]);
        let ranked = RankedLists::from_union(&union);
        let ix = union.pairs.iter().position(|&p| p == 100).unwrap();
        let iy = union.pairs.iter().position(|&p| p == 200).unwrap();
        let mut w = WmrWeights::uniform(2);
        // Heavy feedback for list 2 (index 1).
        for _ in 0..5 {
            w.update(&[0, 10]);
        }
        let order = wmr_order(&ranked, &w);
        let pos = |i: usize| order.iter().position(|&o| o == i).unwrap();
        assert!(pos(iy) < pos(ix), "list 2's favourite should now lead");
    }
}
