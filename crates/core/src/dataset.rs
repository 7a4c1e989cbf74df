//! In-memory multidimensional dataset.
//!
//! A [`Dataset`] is an immutable, validated, row-major `f64` matrix in the
//! canonical *minimising* form (smaller is better in every dimension). All
//! skyline algorithms operate on `&Dataset`; points are addressed by
//! [`PointId`] so that index structures stay compact.

use crate::error::{Error, Result};
use crate::point::{apply_preferences, PointId, Preference};
use crate::subspace::MAX_DIMS;

/// An immutable, validated multidimensional dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    values: Vec<f64>,
    dims: usize,
}

impl Dataset {
    /// Build a dataset from a flat row-major buffer.
    ///
    /// Validates shape, dimensionality bounds, and rejects NaN values
    /// (a NaN breaks the total preference order the skyline is defined
    /// on). Negative zeros are canonicalised to `+0.0`: the two compare
    /// equal under the preference order, but `total_cmp`-based sort keys
    /// distinguish them, which would let a `-0.0` point jump ahead of a
    /// dominator holding `+0.0`.
    pub fn from_flat(mut values: Vec<f64>, dims: usize) -> Result<Self> {
        if dims == 0 {
            return Err(Error::ZeroDimensions);
        }
        if dims > MAX_DIMS {
            return Err(Error::TooManyDimensions {
                requested: dims,
                max: MAX_DIMS,
            });
        }
        if values.len() % dims != 0 {
            return Err(Error::BufferShape {
                len: values.len(),
                dims,
            });
        }
        for (idx, v) in values.iter_mut().enumerate() {
            if v.is_nan() {
                return Err(Error::NotANumber {
                    row: idx / dims,
                    dim: idx % dims,
                });
            }
            if *v == 0.0 {
                *v = 0.0; // -0.0 -> +0.0
            }
        }
        Ok(Dataset { values, dims })
    }

    /// Build a dataset from rows.
    pub fn from_rows<R: AsRef<[f64]>>(rows: &[R]) -> Result<Self> {
        let dims = rows.first().map_or(0, |r| r.as_ref().len());
        if dims == 0 {
            return Err(Error::ZeroDimensions);
        }
        let mut values = Vec::with_capacity(rows.len() * dims);
        for (i, row) in rows.iter().enumerate() {
            let row = row.as_ref();
            if row.len() != dims {
                return Err(Error::RowLength {
                    row: i,
                    got: row.len(),
                    expected: dims,
                });
            }
            values.extend_from_slice(row);
        }
        Dataset::from_flat(values, dims)
    }

    /// Build a dataset from rows of raw values with per-dimension
    /// preferences, folding `Max` columns into the canonical minimising
    /// form (see [`Preference`]).
    pub fn from_rows_with_preferences<R: AsRef<[f64]>>(
        rows: &[R],
        prefs: &[Preference],
    ) -> Result<Self> {
        let mut ds = Dataset::from_rows(rows)?;
        if prefs.len() != ds.dims {
            return Err(Error::RowLength {
                row: 0,
                got: prefs.len(),
                expected: ds.dims,
            });
        }
        apply_preferences(&mut ds.values, prefs);
        Ok(ds)
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len() / self.dims
    }

    /// Whether the dataset has no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Dimensionality `d`.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The coordinates of one point.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn point(&self, id: PointId) -> &[f64] {
        let start = id as usize * self.dims;
        &self.values[start..start + self.dims]
    }

    /// A single coordinate.
    ///
    /// # Panics
    ///
    /// Panics if `id` or `dim` is out of range.
    #[inline]
    pub fn value(&self, id: PointId, dim: usize) -> f64 {
        debug_assert!(dim < self.dims);
        self.values[id as usize * self.dims + dim]
    }

    /// The componentwise minimum over all points (`+∞` in every dimension
    /// for an empty dataset): the anchor of the Euclidean scores, which
    /// are monotone w.r.t. dominance for any input when measured from it.
    pub fn min_corner(&self) -> Vec<f64> {
        let mut corner = vec![f64::INFINITY; self.dims];
        for (_, p) in self.iter() {
            for (m, v) in corner.iter_mut().zip(p) {
                if *v < *m {
                    *m = *v;
                }
            }
        }
        corner
    }

    /// Iterate over `(id, coordinates)` pairs.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (PointId, &[f64])> {
        self.values
            .chunks_exact(self.dims)
            .enumerate()
            .map(|(i, row)| (i as PointId, row))
    }

    /// All point ids, ascending.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = PointId> {
        (0..self.len() as PointId).map(|i| i as PointId)
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_flat(&self) -> &[f64] {
        &self.values
    }

    /// A view of the dataset restricted to a subset of point ids, useful
    /// for divide-and-conquer algorithms. The returned rows are copies.
    pub fn project(&self, ids: &[PointId]) -> Dataset {
        let mut values = Vec::with_capacity(ids.len() * self.dims);
        for &id in ids {
            values.extend_from_slice(self.point(id));
        }
        Dataset {
            values,
            dims: self.dims,
        }
    }

    /// Project every point onto a subspace (keeping all rows), for
    /// subspace-skyline computation. Dimensions are kept in ascending
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the subspace is empty or references a dimension `≥ d`.
    pub fn project_dims(&self, subspace: crate::subspace::Subspace) -> Dataset {
        let dims: Vec<usize> = subspace.dims().collect();
        assert!(!dims.is_empty(), "cannot project onto the empty subspace");
        assert!(
            dims.iter().all(|&d| d < self.dims),
            "subspace {subspace} exceeds the dataset dimensionality {}",
            self.dims
        );
        let mut values = Vec::with_capacity(self.len() * dims.len());
        for (_, row) in self.iter() {
            for &d in &dims {
                values.push(row[d]);
            }
        }
        Dataset {
            values,
            dims: dims.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_roundtrip() {
        let ds = Dataset::from_rows(&[[1.0, 2.0], [3.0, 4.0]]).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.dims(), 2);
        assert_eq!(ds.point(0), &[1.0, 2.0]);
        assert_eq!(ds.point(1), &[3.0, 4.0]);
        assert_eq!(ds.value(1, 0), 3.0);
    }

    #[test]
    fn from_flat_shape_validation() {
        assert_eq!(
            Dataset::from_flat(vec![1.0, 2.0, 3.0], 2),
            Err(Error::BufferShape { len: 3, dims: 2 })
        );
        assert_eq!(Dataset::from_flat(vec![], 0), Err(Error::ZeroDimensions));
        assert!(matches!(
            Dataset::from_flat(vec![0.0; 65], 65),
            Err(Error::TooManyDimensions { requested: 65, .. })
        ));
    }

    #[test]
    fn nan_rejected_with_position() {
        let r = Dataset::from_flat(vec![1.0, 2.0, f64::NAN, 4.0], 2);
        assert_eq!(r, Err(Error::NotANumber { row: 1, dim: 0 }));
    }

    #[test]
    fn ragged_rows_rejected() {
        let rows: Vec<Vec<f64>> = vec![vec![1.0, 2.0], vec![3.0]];
        assert_eq!(
            Dataset::from_rows(&rows),
            Err(Error::RowLength {
                row: 1,
                got: 1,
                expected: 2
            })
        );
    }

    #[test]
    fn empty_rows_rejected() {
        let rows: Vec<Vec<f64>> = vec![];
        assert_eq!(Dataset::from_rows(&rows), Err(Error::ZeroDimensions));
    }

    #[test]
    fn preferences_are_folded() {
        let ds = Dataset::from_rows_with_preferences(
            &[[1.0, 2.0], [3.0, 4.0]],
            &[Preference::Min, Preference::Max],
        )
        .unwrap();
        assert_eq!(ds.point(0), &[1.0, -2.0]);
        assert_eq!(ds.point(1), &[3.0, -4.0]);
    }

    #[test]
    fn preference_count_mismatch_rejected() {
        let r = Dataset::from_rows_with_preferences(&[[1.0, 2.0]], &[Preference::Min]);
        assert!(r.is_err());
    }

    #[test]
    fn iteration() {
        let ds = Dataset::from_rows(&[[1.0], [2.0], [3.0]]).unwrap();
        let collected: Vec<(PointId, f64)> = ds.iter().map(|(id, p)| (id, p[0])).collect();
        assert_eq!(collected, vec![(0, 1.0), (1, 2.0), (2, 3.0)]);
        assert_eq!(ds.ids().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn projection_copies_selected_rows() {
        let ds = Dataset::from_rows(&[[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]).unwrap();
        let sub = ds.project(&[2, 0]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.point(0), &[3.0, 3.0]);
        assert_eq!(sub.point(1), &[1.0, 1.0]);
    }

    #[test]
    fn projection_onto_subspace() {
        use crate::subspace::Subspace;
        let ds = Dataset::from_rows(&[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]).unwrap();
        let sub = ds.project_dims(Subspace::from_dims([0, 2]));
        assert_eq!(sub.dims(), 2);
        assert_eq!(sub.point(0), &[1.0, 3.0]);
        assert_eq!(sub.point(1), &[4.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "empty subspace")]
    fn projection_onto_empty_subspace_panics() {
        use crate::subspace::Subspace;
        let ds = Dataset::from_rows(&[[1.0, 2.0]]).unwrap();
        let _ = ds.project_dims(Subspace::EMPTY);
    }

    #[test]
    #[should_panic(expected = "exceeds the dataset dimensionality")]
    fn projection_out_of_range_panics() {
        use crate::subspace::Subspace;
        let ds = Dataset::from_rows(&[[1.0, 2.0]]).unwrap();
        let _ = ds.project_dims(Subspace::from_dims([5]));
    }

    #[test]
    fn empty_dataset_with_dims_is_valid() {
        let ds = Dataset::from_flat(vec![], 4).unwrap();
        assert!(ds.is_empty());
        assert_eq!(ds.len(), 0);
        assert_eq!(ds.dims(), 4);
    }
}
