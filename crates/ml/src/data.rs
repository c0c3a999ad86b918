//! Borrowed row-major feature data and its rank-encoded training copy.
//!
//! The verifier materializes candidate features into one contiguous
//! row-major `f64` buffer (mc-core's `FeatureMatrix`); [`RowsView`] is
//! the borrowed window mc-ml scores from — no per-row allocations, no
//! ownership transfer, prefetch-friendly sequential scans.
//!
//! Training never looks at an `f64` twice. [`RankMatrix`] stores each
//! feature column once as ranks: row `i`'s position among the column's
//! distinct values, ordered by [`f64::total_cmp`] and grouped by `==`,
//! plus one value per rank. A tree only ever asks "which samples lie at
//! or below this boundary", which ranks answer with integer compares,
//! and the values rebuild the `f64` threshold of the boundary it picks.

/// A borrowed row-major matrix: one contiguous buffer plus a stride.
///
/// Row `i` is `data[i * stride .. (i + 1) * stride]`.
#[derive(Debug, Clone, Copy)]
pub struct RowsView<'a> {
    data: &'a [f64],
    stride: usize,
}

impl<'a> RowsView<'a> {
    /// Wraps a flat buffer. Panics unless `data.len()` is a multiple of
    /// a positive `stride`.
    pub fn new(data: &'a [f64], stride: usize) -> Self {
        assert!(stride > 0, "stride must be positive");
        assert_eq!(
            data.len() % stride,
            0,
            "buffer length {} is not a multiple of stride {stride}",
            data.len()
        );
        RowsView { data, stride }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.stride
    }

    /// True if the view holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Features per row.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Row `i` as a feature slice.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f64] {
        &self.data[i * self.stride..(i + 1) * self.stride]
    }
}

/// A rank-encoded, column-major copy of a feature matrix: the training
/// input of [`crate::RandomForest::fit_matrix`].
///
/// For each feature it holds every row's rank among the feature's
/// distinct values (ascending by [`f64::total_cmp`], one rank per `==`
/// class, so `-0.0` and `0.0` share one) and one value per rank. Build it
/// once from a fully materialized matrix; each fit then gathers its rows
/// from it without sorting a value again.
#[derive(Debug, Clone)]
pub struct RankMatrix {
    n_rows: usize,
    /// `ranks[f * n_rows + i]`: row `i`'s rank in feature `f`.
    ranks: Vec<u32>,
    /// Feature `f`'s distinct values in rank order:
    /// `values[starts[f]..starts[f + 1]]`.
    values: Vec<f64>,
    starts: Vec<usize>,
}

impl RankMatrix {
    /// Rank-encodes every row of `rows`. Panics on a NaN feature: NaN
    /// equals nothing, so it has no `==` class to rank.
    pub fn new(rows: RowsView<'_>) -> Self {
        Self::build(rows.len(), rows.stride(), |i, f| rows.row(i)[f])
    }

    /// Rank-encodes owned rows; the width is the first row's.
    pub(crate) fn from_rows(x: &[Vec<f64>]) -> Self {
        Self::build(x.len(), x.first().map_or(0, Vec::len), |i, f| x[i][f])
    }

    fn build(n_rows: usize, n_features: usize, value: impl Fn(usize, usize) -> f64) -> Self {
        assert!(
            u32::try_from(n_rows).is_ok(),
            "{n_rows} rows do not fit u32 ranks"
        );
        let mut ranks = vec![0u32; n_rows * n_features];
        let mut values: Vec<f64> = Vec::new();
        let mut starts = Vec::with_capacity(n_features + 1);
        let mut column: Vec<(f64, u32)> = Vec::with_capacity(n_rows);
        for (f, out) in ranks.chunks_exact_mut(n_rows.max(1)).enumerate() {
            column.clear();
            column.extend((0..n_rows).map(|i| {
                let v = value(i, f);
                assert!(!v.is_nan(), "feature {f} of row {i} is NaN");
                (v, i as u32)
            }));
            // Without NaN every `==` class is one run of this order.
            column.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            let start = values.len();
            starts.push(start);
            for &(v, i) in &column {
                if values.len() == start || values[values.len() - 1] != v {
                    values.push(v);
                }
                out[i as usize] = (values.len() - 1 - start) as u32;
            }
        }
        starts.resize(n_features + 1, values.len());
        RankMatrix {
            n_rows,
            ranks,
            values,
            starts,
        }
    }

    /// The rows `idx` (repeats allowed) as a matrix of their own: row `s`
    /// is row `idx[s]`, and each feature's ranks are renumbered to the
    /// distinct values these rows hold, through one presence scan per
    /// feature. No value is compared.
    pub(crate) fn gather(&self, idx: &[usize]) -> Self {
        assert!(
            u32::try_from(idx.len()).is_ok(),
            "{} rows do not fit u32 ranks",
            idx.len()
        );
        let n_features = self.n_features();
        let mut ranks = Vec::with_capacity(idx.len() * n_features);
        let mut values = Vec::new();
        let mut starts = Vec::with_capacity(n_features + 1);
        // Per rank of `self`: its new rank, or `u32::MAX` if no row holds it.
        let mut renumber: Vec<u32> = Vec::new();
        for f in 0..n_features {
            let column = self.ranks(f);
            renumber.clear();
            renumber.resize(self.values(f).len(), u32::MAX);
            for &i in idx {
                renumber[column[i] as usize] = 0;
            }
            let start = values.len();
            starts.push(start);
            for (slot, &v) in renumber.iter_mut().zip(self.values(f)) {
                if *slot != u32::MAX {
                    *slot = (values.len() - start) as u32;
                    values.push(v);
                }
            }
            ranks.extend(idx.iter().map(|&i| renumber[column[i] as usize]));
        }
        starts.push(values.len());
        RankMatrix {
            n_rows: idx.len(),
            ranks,
            values,
            starts,
        }
    }

    /// Number of rows.
    pub(crate) fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of features.
    pub(crate) fn n_features(&self) -> usize {
        self.starts.len() - 1
    }

    /// Feature `f`'s rank of every row.
    pub(crate) fn ranks(&self, f: usize) -> &[u32] {
        &self.ranks[f * self.n_rows..(f + 1) * self.n_rows]
    }

    /// Feature `f`'s distinct values, ascending: entry `r` is the value
    /// of rank `r`.
    pub(crate) fn values(&self, f: usize) -> &[f64] {
        &self.values[self.starts[f]..self.starts[f + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_view_slices_rows() {
        let buf = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let v = RowsView::new(&buf, 3);
        assert_eq!(v.len(), 2);
        assert_eq!(v.stride(), 3);
        assert!(!v.is_empty());
        assert_eq!(v.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(v.row(1), &[4.0, 5.0, 6.0]);
        let empty = RowsView::new(&[], 3);
        assert_eq!(empty.len(), 0);
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "multiple of stride")]
    fn ragged_buffer_rejected() {
        let _ = RowsView::new(&[1.0, 2.0, 3.0], 2);
    }

    #[test]
    fn ranks_group_equal_values_in_total_order() {
        let buf = [
            2.0, 1e300, //
            -0.0, -1e300, //
            2.0, 0.0, //
            0.0, 1e300, //
            -3.5, -0.0,
        ];
        let m = RankMatrix::new(RowsView::new(&buf, 2));
        assert_eq!((m.ranks(1).len(), m.n_features()), (5, 2));
        // -0.0 and 0.0 are one `==` class.
        assert_eq!(m.values(0), &[-3.5, 0.0, 2.0]);
        assert_eq!(m.ranks(0), &[2, 1, 2, 1, 0]);
        assert_eq!(m.values(1), &[-1e300, 0.0, 1e300]);
        assert_eq!(m.ranks(1), &[2, 0, 1, 2, 1]);
    }

    #[test]
    fn empty_and_owned_rows_rank_alike() {
        let m = RankMatrix::new(RowsView::new(&[], 3));
        assert_eq!((m.ranks(2).len(), m.n_features()), (0, 3));
        assert!(m.values(2).is_empty());
        let x = vec![vec![5.0, 1.0], vec![4.0, 1.0]];
        let owned = RankMatrix::from_rows(&x);
        let flat = RankMatrix::new(RowsView::new(&[5.0, 1.0, 4.0, 1.0], 2));
        for f in 0..2 {
            assert_eq!(owned.ranks(f), flat.ranks(f));
            assert_eq!(owned.values(f), flat.values(f));
        }
    }

    #[test]
    fn gather_renumbers_to_the_rows_values() {
        let buf = [
            2.0, 1e300, //
            -0.0, -1e300, //
            2.0, 0.0, //
            0.0, 1e300, //
            -3.5, -0.0,
        ];
        let m = RankMatrix::new(RowsView::new(&buf, 2)).gather(&[3, 0, 3]);
        assert_eq!((m.n_rows(), m.n_features()), (3, 2));
        assert_eq!(m.values(0), &[0.0, 2.0]);
        assert_eq!(m.ranks(0), &[0, 1, 0]);
        assert_eq!(m.values(1), &[1e300]);
        assert_eq!(m.ranks(1), &[0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "feature 1 of row 2 is NaN")]
    fn nan_is_rejected() {
        let buf = [0.0, 1.0, 0.0, 2.0, 0.0, f64::NAN];
        let _ = RankMatrix::new(RowsView::new(&buf, 2));
    }
}
