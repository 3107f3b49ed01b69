//! Convex integer polyhedra: iteration domains and data domains
//! (Definitions 1 and 5 of the paper).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::constraint::Constraint;
use crate::error::PolyError;
use crate::fourier_motzkin::LevelSystem;
use crate::index::DomainIndex;
use crate::iter::LexPoints;
use crate::point::{Point, MAX_DIMS};

/// A convex polyhedron `{ x ∈ Z^m | P·x ≥ b }` described by linear
/// inequality constraints.
///
/// This is the representation of both *iteration domains* (Definition 1)
/// and *data domains* (Definition 5). Grids need not be rectangular: the
/// skewed domain of Fig. 9 is expressed with cross-dimension constraints.
///
/// # Examples
///
/// ```
/// use stencil_polyhedral::{Point, Polyhedron};
///
/// // The DENOISE iteration domain: 1 <= i <= 766, 1 <= j <= 1022.
/// let dom = Polyhedron::rect(&[(1, 766), (1, 1022)]);
/// assert!(dom.contains(&Point::new(&[1, 1])));
/// assert!(!dom.contains(&Point::new(&[0, 1])));
/// ```
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Polyhedron {
    dims: usize,
    constraints: Vec<Constraint>,
}

impl Polyhedron {
    /// Creates a polyhedron from explicit constraints.
    ///
    /// # Panics
    ///
    /// Panics if `dims` exceeds [`MAX_DIMS`] or any constraint has a
    /// different dimensionality.
    #[must_use]
    pub fn new(dims: usize, constraints: Vec<Constraint>) -> Self {
        assert!(dims <= MAX_DIMS, "dims {dims} exceeds MAX_DIMS={MAX_DIMS}");
        for c in &constraints {
            assert_eq!(c.dims(), dims, "constraint dimensionality mismatch");
        }
        Self { dims, constraints }
    }

    /// Creates an axis-aligned box with inclusive per-dimension bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or longer than [`MAX_DIMS`].
    #[must_use]
    pub fn rect(bounds: &[(i64, i64)]) -> Self {
        assert!(
            !bounds.is_empty() && bounds.len() <= MAX_DIMS,
            "box must have 1..={MAX_DIMS} dimensions"
        );
        let dims = bounds.len();
        let mut constraints = Vec::with_capacity(2 * dims);
        for (d, &(lo, hi)) in bounds.iter().enumerate() {
            constraints.push(Constraint::lower_bound(dims, d, lo));
            constraints.push(Constraint::upper_bound(dims, d, hi));
        }
        Self { dims, constraints }
    }

    /// Creates the rectangular grid `[0, ext_0) × … × [0, ext_{m-1})` from
    /// exclusive extents, matching C array declarations like
    /// `A[768][1024]`.
    ///
    /// # Panics
    ///
    /// Panics if any extent is zero, or on dimension violations as in
    /// [`Polyhedron::rect`].
    #[must_use]
    pub fn grid(extents: &[i64]) -> Self {
        assert!(
            extents.iter().all(|&e| e > 0),
            "grid extents must be positive"
        );
        let bounds: Vec<(i64, i64)> = extents.iter().map(|&e| (0, e - 1)).collect();
        Self::rect(&bounds)
    }

    /// Number of dimensions of the ambient space.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The defining constraints.
    #[must_use]
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The inclusive per-dimension bounds, if this polyhedron is an
    /// axis-aligned box: every constraint bounds one variable with
    /// coefficient ±1, and every dimension has both a lower and an
    /// upper bound. Redundant bounds keep the tightest. Returns `None`
    /// for any other shape (a skewed grid, a triangle, an unbounded
    /// dimension). An empty box has some `lo > hi`.
    ///
    /// # Examples
    ///
    /// ```
    /// use stencil_polyhedral::{Constraint, Polyhedron};
    ///
    /// let b = Polyhedron::rect(&[(1, 766), (1, 1022)]);
    /// assert_eq!(b.as_box(), Some(vec![(1, 766), (1, 1022)]));
    /// let tri = b.with_constraint(Constraint::new(&[1, -1], 0)); // j <= i
    /// assert_eq!(tri.as_box(), None);
    /// ```
    #[must_use]
    pub fn as_box(&self) -> Option<Vec<(i64, i64)>> {
        let mut bounds = vec![(None::<i64>, None::<i64>); self.dims];
        for c in &self.constraints {
            let mut vars = c.coeffs().iter().enumerate().filter(|(_, &a)| a != 0);
            let (d, &a) = vars.next()?;
            if vars.next().is_some() {
                return None;
            }
            let (lo, hi) = &mut bounds[d];
            match a {
                // x_d + b >= 0  <=>  x_d >= -b
                1 => *lo = Some(lo.unwrap_or(i64::MIN).max(c.constant().checked_neg()?)),
                // -x_d + b >= 0  <=>  x_d <= b
                -1 => *hi = Some(hi.unwrap_or(i64::MAX).min(c.constant())),
                _ => return None,
            }
        }
        bounds
            .into_iter()
            .map(|(lo, hi)| Some((lo?, hi?)))
            .collect()
    }

    /// True if `p` satisfies every constraint.
    ///
    /// # Panics
    ///
    /// Panics if `p.dims() != self.dims()`.
    #[must_use]
    pub fn contains(&self, p: &Point) -> bool {
        self.constraints.iter().all(|c| c.holds(p))
    }

    /// Returns a copy with one extra constraint.
    #[must_use]
    pub fn with_constraint(&self, c: Constraint) -> Self {
        assert_eq!(c.dims(), self.dims, "constraint dimensionality mismatch");
        let mut out = self.clone();
        out.constraints.push(c);
        out
    }

    /// Intersection of two polyhedra over the same space.
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    #[must_use]
    pub fn intersection(&self, other: &Polyhedron) -> Self {
        assert_eq!(self.dims, other.dims, "dimensionality mismatch");
        let mut constraints = self.constraints.clone();
        constraints.extend_from_slice(&other.constraints);
        Self {
            dims: self.dims,
            constraints,
        }
    }

    /// Translates the polyhedron by `offset`: the result contains `x` iff
    /// `self` contains `x - offset`.
    ///
    /// A stencil reference `A_x` with offset `f_x` accesses the data domain
    /// `D_Ax = D + f_x` (Definition 5, using `h = i + f_x`).
    #[must_use]
    pub fn translated(&self, offset: &Point) -> Self {
        Self {
            dims: self.dims,
            constraints: self
                .constraints
                .iter()
                .map(|c| c.translated(offset))
                .collect(),
        }
    }

    /// The *dilation* of this polyhedron by a set of offsets: a convex
    /// superset of `⋃_x (self + f_x)`.
    ///
    /// The paper's *input data domain* (Definition 6) is the union of the
    /// per-reference data domains; like the paper (Example 4 approximates
    /// the union by `A[0..767][0..1023]`), we over-approximate the union by
    /// relaxing each constraint just enough to admit every shifted copy.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is empty or has mismatched dimensionality.
    #[must_use]
    pub fn dilated(&self, offsets: &[Point]) -> Self {
        assert!(!offsets.is_empty(), "dilation requires at least one offset");
        let constraints = self
            .constraints
            .iter()
            .map(|c| {
                // Constraint of copy (self + f) is c.translated(f); the union
                // needs the weakest of these, i.e. the largest constant term.
                let slack = offsets
                    .iter()
                    .map(|f| {
                        assert_eq!(f.dims(), self.dims, "offset dimensionality mismatch");
                        c.translated(f).constant() - c.constant()
                    })
                    .max()
                    .expect("non-empty offsets");
                c.relaxed(slack.max(0))
            })
            .collect();
        Self {
            dims: self.dims,
            constraints,
        }
    }

    /// The *erosion* of this polyhedron by a set of offsets: the points
    /// `p` with `p + f ∈ self` for every offset `f` — exactly
    /// `⋂_x (self - f_x)`.
    ///
    /// This is the dual of [`Polyhedron::dilated`] and the domain
    /// algebra behind temporal kernel chaining: a stage whose window is
    /// `offsets` can only fire where every tap lands inside the
    /// upstream stage's output domain, so the chained iteration domain
    /// is the upstream iteration domain eroded by the downstream
    /// window. For an intersection of half-planes the erosion is exact:
    /// each constraint `a·x + b ≥ 0` tightens to
    /// `a·x + b + min_x(a·f_x) ≥ 0`.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is empty or has mismatched dimensionality.
    #[must_use]
    pub fn eroded(&self, offsets: &[Point]) -> Self {
        assert!(!offsets.is_empty(), "erosion requires at least one offset");
        let constraints = self
            .constraints
            .iter()
            .map(|c| {
                // The copy (self - f) has constant b + a·f; the
                // intersection keeps the strongest, i.e. the smallest.
                let shift = offsets
                    .iter()
                    .map(|f| {
                        assert_eq!(f.dims(), self.dims, "offset dimensionality mismatch");
                        c.coeffs()
                            .iter()
                            .zip(f.as_slice())
                            .map(|(a, x)| a * x)
                            .sum::<i64>()
                    })
                    .min()
                    .expect("non-empty offsets");
                Constraint::new(c.coeffs(), c.constant() + shift)
            })
            .collect();
        Self {
            dims: self.dims,
            constraints,
        }
    }

    /// Prepares the per-loop-level bound systems via Fourier–Motzkin
    /// elimination.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Unbounded`] if some dimension lacks a finite
    /// lower or upper bound.
    pub fn level_system(&self) -> Result<LevelSystem, PolyError> {
        LevelSystem::new(self)
    }

    /// Iterates the integer points in lexicographic order.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Unbounded`] for unbounded polyhedra.
    ///
    /// # Examples
    ///
    /// ```
    /// use stencil_polyhedral::{Point, Polyhedron};
    ///
    /// let tri = Polyhedron::rect(&[(0, 2), (0, 2)])
    ///     .with_constraint(stencil_polyhedral::Constraint::new(&[1, -1], 0)); // j <= i
    /// let pts: Vec<Point> = tri.points()?.collect();
    /// assert_eq!(pts.len(), 6);
    /// assert_eq!(pts[0], Point::new(&[0, 0]));
    /// assert_eq!(pts[5], Point::new(&[2, 2]));
    /// # Ok::<(), stencil_polyhedral::PolyError>(())
    /// ```
    pub fn points(&self) -> Result<LexPoints, PolyError> {
        Ok(LexPoints::new(self.level_system()?))
    }

    /// Builds the row/rank index over this polyhedron's integer points.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Unbounded`] for unbounded polyhedra.
    pub fn index(&self) -> Result<DomainIndex, PolyError> {
        DomainIndex::build(self)
    }

    /// Counts the integer points.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Unbounded`] for unbounded polyhedra.
    pub fn count(&self) -> Result<u64, PolyError> {
        Ok(self.index()?.len())
    }

    /// True if the polyhedron contains no integer points.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Unbounded`] for unbounded polyhedra (whose
    /// emptiness the enumeration cannot decide).
    pub fn is_empty(&self) -> Result<bool, PolyError> {
        Ok(self.points()?.next().is_none())
    }
}

impl fmt::Debug for Polyhedron {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Polyhedron{{ ")?;
        for (k, c) in self.constraints.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, " }}")
    }
}

impl fmt::Display for Polyhedron {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_membership() {
        let b = Polyhedron::rect(&[(1, 3), (-2, 2)]);
        assert!(b.contains(&Point::new(&[1, -2])));
        assert!(b.contains(&Point::new(&[3, 2])));
        assert!(!b.contains(&Point::new(&[0, 0])));
        assert!(!b.contains(&Point::new(&[2, 3])));
    }

    #[test]
    fn grid_is_zero_based_exclusive() {
        let g = Polyhedron::grid(&[768, 1024]);
        assert!(g.contains(&Point::new(&[0, 0])));
        assert!(g.contains(&Point::new(&[767, 1023])));
        assert!(!g.contains(&Point::new(&[768, 0])));
    }

    #[test]
    fn translated_shifts_membership() {
        let dom = Polyhedron::rect(&[(1, 766), (1, 1022)]);
        let shifted = dom.translated(&Point::new(&[1, 0]));
        // D_A0 for A[i+1][j]: 2 <= i <= 767 (Example in §3.3.1).
        assert!(shifted.contains(&Point::new(&[2, 1])));
        assert!(!shifted.contains(&Point::new(&[1, 1])));
        assert!(shifted.contains(&Point::new(&[767, 1022])));
    }

    #[test]
    fn dilated_covers_all_copies() {
        let dom = Polyhedron::rect(&[(1, 766), (1, 1022)]);
        let offsets = [
            Point::new(&[1, 0]),
            Point::new(&[0, 1]),
            Point::new(&[0, 0]),
            Point::new(&[0, -1]),
            Point::new(&[-1, 0]),
        ];
        let input = dom.dilated(&offsets);
        // Example 4: input data domain is essentially A[0..767][0..1023].
        assert!(input.contains(&Point::new(&[0, 1])));
        assert!(input.contains(&Point::new(&[767, 1022])));
        assert!(input.contains(&Point::new(&[1, 0])));
        assert!(!input.contains(&Point::new(&[-1, 5])));
        assert!(!input.contains(&Point::new(&[768, 5])));
        for f in &offsets {
            let copy = dom.translated(f);
            // Spot-check copy corners are inside the dilation.
            assert!(input.contains(&Point::new(&[1 + f[0], 1 + f[1]])));
            assert!(input.contains(&Point::new(&[766 + f[0], 1022 + f[1]])));
            let _ = copy;
        }
    }

    #[test]
    fn eroded_is_the_exact_dual_of_dilated() {
        let dom = Polyhedron::rect(&[(1, 766), (1, 1022)]);
        let offsets = [
            Point::new(&[1, 0]),
            Point::new(&[0, 1]),
            Point::new(&[0, 0]),
            Point::new(&[0, -1]),
            Point::new(&[-1, 0]),
        ];
        let inner = dom.eroded(&offsets);
        // Every tap from an eroded point stays inside the domain.
        assert!(inner.contains(&Point::new(&[2, 2])));
        assert!(inner.contains(&Point::new(&[765, 1021])));
        assert!(!inner.contains(&Point::new(&[1, 5])));
        assert!(!inner.contains(&Point::new(&[766, 5])));
        for f in &offsets {
            assert!(dom.contains(&(Point::new(&[2, 2]) + *f)));
            assert!(dom.contains(&(Point::new(&[765, 1021]) + *f)));
        }
        // Rectangles recover exactly under erode-then-dilate — the
        // invariant temporal chaining relies on (a chained stage's
        // input domain equals the upstream stage's output domain).
        let back = inner.dilated(&offsets);
        for p in [[1, 1], [1, 1022], [766, 1], [766, 1022], [300, 500]] {
            assert!(back.contains(&Point::new(&[p[0], p[1]])));
        }
        assert!(!back.contains(&Point::new(&[0, 5])));
        assert!(!back.contains(&Point::new(&[767, 5])));
        // One-sided windows erode asymmetrically and exactly.
        let fwd = [Point::new(&[0, 0]), Point::new(&[2, 0])];
        let one_sided = dom.eroded(&fwd);
        assert!(one_sided.contains(&Point::new(&[1, 1])));
        assert!(one_sided.contains(&Point::new(&[764, 1])));
        assert!(!one_sided.contains(&Point::new(&[765, 1])));
    }

    #[test]
    fn intersection_conjunction() {
        let a = Polyhedron::rect(&[(0, 10)]);
        let b = Polyhedron::rect(&[(5, 20)]);
        let i = a.intersection(&b);
        assert!(i.contains(&Point::new(&[7])));
        assert!(!i.contains(&Point::new(&[3])));
        assert!(!i.contains(&Point::new(&[15])));
    }

    #[test]
    fn count_box_and_triangle() {
        assert_eq!(Polyhedron::rect(&[(0, 4), (0, 9)]).count().unwrap(), 50);
        let tri = Polyhedron::rect(&[(0, 3), (0, 3)]).with_constraint(Constraint::new(&[1, -1], 0)); // j <= i
        assert_eq!(tri.count().unwrap(), 10);
    }

    #[test]
    fn empty_domain_counts_zero() {
        let e = Polyhedron::rect(&[(5, 3)]);
        assert_eq!(e.count().unwrap(), 0);
        assert!(e.is_empty().unwrap());
        assert!(!Polyhedron::rect(&[(0, 0)]).is_empty().unwrap());
    }

    #[test]
    fn debug_lists_constraints() {
        let s = format!("{:?}", Polyhedron::rect(&[(0, 1)]));
        assert!(s.contains("x0 >= 0"), "{s}");
    }
}
