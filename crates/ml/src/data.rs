//! Borrowed row-major training data.
//!
//! The verifier materializes candidate features into one contiguous
//! row-major `f64` buffer (mc-core's `FeatureMatrix`); [`RowsView`] is
//! the borrowed window mc-ml trains and predicts from — no per-row
//! allocations, no ownership transfer, prefetch-friendly sequential
//! scans. The crate-internal `Samples` trait unifies that flat layout with the
//! classic `&[Vec<f64>]` API so both share one tree-growing core.

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

/// Internal accessor for training samples: features plus a label.
///
/// Tree growth only ever touches samples through this trait, so the same
/// (monomorphized) core serves owned `Vec<f64>` rows and index slices
/// into a shared flat matrix.
pub(crate) trait Samples {
    /// Number of samples.
    fn n_samples(&self) -> usize;
    /// Features per sample.
    fn n_features(&self) -> usize;
    /// Feature `f` of sample `s`.
    fn feature(&self, s: usize, f: usize) -> f64;
    /// Label of sample `s`.
    fn label(&self, s: usize) -> bool;
}

/// Owned-row training data (`RandomForest::fit`, `DecisionTree::fit`).
pub(crate) struct VecSamples<'a> {
    pub x: &'a [Vec<f64>],
    pub y: &'a [bool],
}

impl Samples for VecSamples<'_> {
    #[inline]
    fn n_samples(&self) -> usize {
        self.x.len()
    }

    #[inline]
    fn n_features(&self) -> usize {
        self.x.first().map_or(0, Vec::len)
    }

    #[inline]
    fn feature(&self, s: usize, f: usize) -> f64 {
        self.x[s][f]
    }

    #[inline]
    fn label(&self, s: usize) -> bool {
        self.y[s]
    }
}

/// Index-slice training data: sample `s` is row `idx[s]` of a shared
/// flat matrix, labeled `y[s]`. Bootstrap resampling duplicates indexes,
/// never rows.
pub(crate) struct MatrixSamples<'a> {
    pub rows: RowsView<'a>,
    pub idx: &'a [usize],
    pub y: &'a [bool],
}

impl Samples for MatrixSamples<'_> {
    #[inline]
    fn n_samples(&self) -> usize {
        self.idx.len()
    }

    #[inline]
    fn n_features(&self) -> usize {
        self.rows.stride()
    }

    #[inline]
    fn feature(&self, s: usize, f: usize) -> f64 {
        self.rows.row(self.idx[s])[f]
    }

    #[inline]
    fn label(&self, s: usize) -> bool {
        self.y[s]
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
    fn matrix_samples_indirect_through_idx() {
        let buf = [0.0, 0.0, 1.0, 1.0, 2.0, 2.0];
        let rows = RowsView::new(&buf, 2);
        let idx = [2, 0, 2];
        let y = [true, false, true];
        let s = MatrixSamples {
            rows,
            idx: &idx,
            y: &y,
        };
        assert_eq!(s.n_samples(), 3);
        assert_eq!(s.n_features(), 2);
        assert_eq!(s.feature(0, 0), 2.0);
        assert_eq!(s.feature(1, 1), 0.0);
        assert!(s.label(2));
        assert!(!s.label(1));
    }
}
