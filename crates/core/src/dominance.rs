//! Dominance tests (Definition 3.1) and dominating subspaces (Definition 3.4).
//!
//! These are the innermost primitives of every skyline algorithm. All of
//! them work on raw `&[f64]` slices in the canonical minimising form and are
//! `#[inline]` so that per-algorithm loops can fuse them. Counting is done
//! by the caller through [`crate::metrics::Metrics`]; keeping the primitives
//! counter-free lets the compiler vectorise the common path.

use crate::subspace::Subspace;

/// Outcome of a pairwise dominance test between points `a` and `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomRelation {
    /// `a ≺ b`: `a` dominates `b`.
    Dominates,
    /// `b ≺ a`: `a` is dominated by `b`.
    DominatedBy,
    /// `a = b` in every dimension.
    Equal,
    /// `a ≁ b`: neither dominates the other and they differ somewhere.
    Incomparable,
}

impl DomRelation {
    /// The relation seen from the other point's perspective.
    #[inline]
    pub fn flip(self) -> DomRelation {
        match self {
            DomRelation::Dominates => DomRelation::DominatedBy,
            DomRelation::DominatedBy => DomRelation::Dominates,
            other => other,
        }
    }
}

/// Full three-way dominance test: classify the pair `(a, b)`.
///
/// # Panics
///
/// Debug-asserts that the slices have equal length.
#[inline]
pub fn dominance(a: &[f64], b: &[f64]) -> DomRelation {
    debug_assert_eq!(a.len(), b.len());
    let mut a_better = false;
    let mut b_better = false;
    for (x, y) in a.iter().zip(b) {
        if x < y {
            a_better = true;
            if b_better {
                return DomRelation::Incomparable;
            }
        } else if y < x {
            b_better = true;
            if a_better {
                return DomRelation::Incomparable;
            }
        }
    }
    match (a_better, b_better) {
        (true, false) => DomRelation::Dominates,
        (false, true) => DomRelation::DominatedBy,
        (false, false) => DomRelation::Equal,
        (true, true) => unreachable!("early return above"),
    }
}

/// One-sided test: does `a` dominate `b` (`a ≺ b`)?
///
/// Slightly cheaper than [`dominance`] when the caller only needs one
/// direction — the common case in presorted scans, where the candidate can
/// never be dominated by the testing point.
#[inline]
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strict = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strict = true;
        }
    }
    strict
}

/// The position of the first row in `rows` (rows of `q.len()`
/// coordinates packed back to back) that dominates `q`.
///
/// This is the in-place kernel of the subset index: the caller counts
/// `position + 1` dominance tests on a hit and one per row on a miss.
/// Each row test is [`dominates`] without the early exit: every
/// coordinate is read and folded with `|`, so it has no data-dependent
/// branch, and its result is identical, NaN included (a NaN coordinate is
/// neither worse nor better).
#[inline]
pub fn first_dominator(rows: &[f64], q: &[f64]) -> Option<usize> {
    // Common widths get a fixed-width copy of the loop, which the
    // compiler unrolls into straight-line vector compares.
    match q.len() {
        0 => None,
        2 => first_dominator_of::<2>(rows, q),
        3 => first_dominator_of::<3>(rows, q),
        4 => first_dominator_of::<4>(rows, q),
        5 => first_dominator_of::<5>(rows, q),
        6 => first_dominator_of::<6>(rows, q),
        7 => first_dominator_of::<7>(rows, q),
        8 => first_dominator_of::<8>(rows, q),
        d => rows.chunks_exact(d).position(|row| {
            let (mut worse, mut better) = (false, false);
            for (x, y) in row.iter().zip(q) {
                worse |= x > y;
                better |= x < y;
            }
            better & !worse
        }),
    }
}

#[inline]
fn first_dominator_of<const D: usize>(rows: &[f64], q: &[f64]) -> Option<usize> {
    let q: &[f64; D] = q.try_into().expect("q is D wide");
    for (i, row) in rows.chunks_exact(D).enumerate() {
        let row: &[f64; D] = row.try_into().expect("rows are D wide");
        let (mut worse, mut better) = (false, false);
        for k in 0..D {
            worse |= row[k] > q[k];
            better |= row[k] < q[k];
        }
        if better & !worse {
            return Some(i);
        }
    }
    None
}

/// Weak dominance `a ⪯ b`: `a` is nowhere worse than `b`.
#[inline]
pub fn weakly_dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).all(|(x, y)| x <= y)
}

/// The *dominating subspace* `D_{q≺p}` of `q` with respect to `p`
/// (Definition 3.4): the set of dimensions where `q` is strictly better
/// than `p`.
///
/// Consequences spelled out in the paper:
/// - `D_{q≺p} = ∅` ⇒ `p ⪯ q` (so `q` is dominated by `p`, or equal);
/// - `D_{q≺p} = D` ⇒ `q ≺ p`.
#[inline]
pub fn dominating_subspace(q: &[f64], p: &[f64]) -> Subspace {
    debug_assert_eq!(q.len(), p.len());
    debug_assert!(q.len() <= crate::subspace::MAX_DIMS);
    let mut bits = 0u64;
    for (i, (x, y)) in q.iter().zip(p).enumerate() {
        if x < y {
            bits |= 1u64 << i;
        }
    }
    Subspace::from_bits(bits)
}

/// Exact equality of two points in every dimension.
#[inline]
pub fn points_equal(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).all(|(x, y)| x == y)
}

/// Lexicographic total order over coordinate rows.
///
/// Its key property: if `a ≺ b` (even weakly, with `a ≠ b`), then at the
/// first differing coordinate `a` is strictly smaller, so
/// `lex_cmp(a, b) == Less`. Monotone scoring functions guarantee
/// `score(a) ≤ score(b)` mathematically, but floating-point rounding can
/// collapse that to *equality* (e.g. `1e16 + 1.0 == 1e16`); presorted
/// scans therefore use this comparator as the tie-break so that a
/// dominator always precedes its victims even when scores round equal.
#[inline]
pub fn lex_cmp(a: &[f64], b: &[f64]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b) {
        match x.total_cmp(y) {
            std::cmp::Ordering::Equal => continue,
            other => return other,
        }
    }
    a.len().cmp(&b.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_all_relations() {
        assert_eq!(dominance(&[1.0, 1.0], &[2.0, 2.0]), DomRelation::Dominates);
        assert_eq!(
            dominance(&[2.0, 2.0], &[1.0, 1.0]),
            DomRelation::DominatedBy
        );
        assert_eq!(dominance(&[1.0, 2.0], &[1.0, 2.0]), DomRelation::Equal);
        assert_eq!(
            dominance(&[1.0, 2.0], &[2.0, 1.0]),
            DomRelation::Incomparable
        );
    }

    #[test]
    fn dominance_requires_strict_improvement_somewhere() {
        // Equal in one dim, better in the other: still dominates.
        assert_eq!(dominance(&[1.0, 1.0], &[1.0, 2.0]), DomRelation::Dominates);
        assert_eq!(
            dominance(&[1.0, 2.0], &[1.0, 1.0]),
            DomRelation::DominatedBy
        );
    }

    #[test]
    fn flip_is_involutive() {
        for r in [
            DomRelation::Dominates,
            DomRelation::DominatedBy,
            DomRelation::Equal,
            DomRelation::Incomparable,
        ] {
            assert_eq!(r.flip().flip(), r);
        }
    }

    #[test]
    fn one_sided_agrees_with_three_way() {
        let cases: &[(&[f64], &[f64])] = &[
            (&[1.0, 1.0], &[2.0, 2.0]),
            (&[2.0, 2.0], &[1.0, 1.0]),
            (&[1.0, 2.0], &[2.0, 1.0]),
            (&[1.0, 2.0], &[1.0, 2.0]),
            (&[1.0, 1.0], &[1.0, 2.0]),
        ];
        for (a, b) in cases {
            assert_eq!(
                dominates(a, b),
                dominance(a, b) == DomRelation::Dominates,
                "a={a:?} b={b:?}"
            );
        }
    }

    #[test]
    fn first_dominator_agrees_with_dominates() {
        let q = [1.0, 2.0, f64::NAN];
        let rows = [
            [1.0, 2.0, 0.0],      // equal in the first two dims: NaN tie, not strict
            [2.0, 1.0, 0.0],      // incomparable
            [f64::NAN, 1.0, 5.0], // NaN ties, strictly better in dim 1
            [0.0, 0.0, 0.0],
        ];
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                first_dominator(r, &q) == Some(0),
                dominates(r, &q),
                "row {i}"
            );
        }
        let packed: Vec<f64> = rows.iter().flatten().copied().collect();
        assert_eq!(first_dominator(&packed, &q), Some(2));
        assert_eq!(first_dominator(&packed[..6], &q), None);
        assert_eq!(first_dominator(&[], &[]), None);
    }

    #[test]
    fn weak_dominance() {
        assert!(weakly_dominates(&[1.0, 2.0], &[1.0, 2.0]));
        assert!(weakly_dominates(&[1.0, 1.0], &[1.0, 2.0]));
        assert!(!weakly_dominates(&[1.0, 3.0], &[1.0, 2.0]));
    }

    #[test]
    fn dominating_subspace_definition() {
        // q better in dims 0 and 2, worse in 1, equal in 3.
        let q = [1.0, 5.0, 0.5, 2.0];
        let p = [2.0, 4.0, 1.0, 2.0];
        let d = dominating_subspace(&q, &p);
        assert_eq!(d, Subspace::from_dims([0, 2]));
    }

    #[test]
    fn empty_dominating_subspace_means_weakly_dominated() {
        let q = [2.0, 2.0];
        let p = [1.0, 2.0];
        assert!(dominating_subspace(&q, &p).is_empty());
        assert!(weakly_dominates(&p, &q));
    }

    #[test]
    fn full_dominating_subspace_means_dominates() {
        let q = [0.0, 0.0];
        let p = [1.0, 1.0];
        assert_eq!(dominating_subspace(&q, &p), Subspace::full(2));
        assert!(dominates(&q, &p));
    }

    #[test]
    fn equality_check() {
        assert!(points_equal(&[1.0, 2.0], &[1.0, 2.0]));
        assert!(!points_equal(&[1.0, 2.0], &[1.0, 2.5]));
        assert!(points_equal(&[], &[]));
    }

    #[test]
    fn single_dimension() {
        assert_eq!(dominance(&[1.0], &[2.0]), DomRelation::Dominates);
        assert_eq!(dominance(&[2.0], &[1.0]), DomRelation::DominatedBy);
        assert_eq!(dominance(&[1.0], &[1.0]), DomRelation::Equal);
    }

    #[test]
    fn negative_and_mixed_values() {
        // Canonical minimising form can contain negated (Max) columns.
        assert_eq!(
            dominance(&[-5.0, 0.0], &[-1.0, 0.0]),
            DomRelation::Dominates
        );
        assert_eq!(
            dominating_subspace(&[-5.0, 1.0], &[-1.0, 0.0]),
            Subspace::singleton(0)
        );
    }
}
