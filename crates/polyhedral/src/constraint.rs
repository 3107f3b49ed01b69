//! Linear inequality constraints `a·x + b ≥ 0` over integer points.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::point::{Point, MAX_DIMS};

/// A single linear inequality `a·x + b ≥ 0` over `dims` variables.
///
/// Iteration domains and data domains in the polyhedral model
/// (Definitions 1 and 5 of the paper) are conjunctions of such
/// constraints.
///
/// # Examples
///
/// ```
/// use stencil_polyhedral::{Constraint, Point};
///
/// // i - 1 >= 0, i.e. i >= 1
/// let c = Constraint::new(&[1], -1);
/// assert!(c.holds(&Point::new(&[1])));
/// assert!(!c.holds(&Point::new(&[0])));
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Constraint {
    dims: u8,
    coeffs: [i64; MAX_DIMS],
    constant: i64,
}

impl Constraint {
    /// Creates the constraint `coeffs·x + constant ≥ 0`.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len()` exceeds [`MAX_DIMS`].
    #[must_use]
    pub fn new(coeffs: &[i64], constant: i64) -> Self {
        assert!(
            coeffs.len() <= MAX_DIMS,
            "constraint dimension {} exceeds MAX_DIMS={}",
            coeffs.len(),
            MAX_DIMS
        );
        let mut c = [0i64; MAX_DIMS];
        c[..coeffs.len()].copy_from_slice(coeffs);
        Self {
            dims: coeffs.len() as u8,
            coeffs: c,
            constant,
        }
        .normalized()
    }

    /// Convenience: `x_dim ≥ bound` in a `dims`-dimensional space.
    #[must_use]
    pub fn lower_bound(dims: usize, dim: usize, bound: i64) -> Self {
        assert!(dim < dims, "dim {dim} out of range for {dims} dims");
        let mut coeffs = [0i64; MAX_DIMS];
        coeffs[dim] = 1;
        Constraint::new(&coeffs[..dims], -bound)
    }

    /// Convenience: `x_dim ≤ bound` in a `dims`-dimensional space.
    #[must_use]
    pub fn upper_bound(dims: usize, dim: usize, bound: i64) -> Self {
        assert!(dim < dims, "dim {dim} out of range for {dims} dims");
        let mut coeffs = [0i64; MAX_DIMS];
        coeffs[dim] = -1;
        Constraint::new(&coeffs[..dims], bound)
    }

    /// Number of variables this constraint ranges over.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.dims as usize
    }

    /// Coefficient vector `a` as a slice.
    #[must_use]
    pub fn coeffs(&self) -> &[i64] {
        &self.coeffs[..self.dims as usize]
    }

    /// The constant term `b`.
    #[must_use]
    pub fn constant(&self) -> i64 {
        self.constant
    }

    /// Evaluates `a·x + b` at a point.
    ///
    /// # Panics
    ///
    /// Panics if the point's dimensionality differs from the constraint's.
    #[must_use]
    pub fn eval(&self, p: &Point) -> i64 {
        assert_eq!(p.dims(), self.dims(), "point/constraint dimension mismatch");
        let mut acc = self.constant;
        for (c, x) in self.coeffs().iter().zip(p.as_slice()) {
            acc += c * x;
        }
        acc
    }

    /// True if the constraint holds at `p` (`a·x + b ≥ 0`).
    #[must_use]
    pub fn holds(&self, p: &Point) -> bool {
        self.eval(p) >= 0
    }

    /// The highest variable index with a nonzero coefficient, or `None`
    /// for a constant constraint.
    #[must_use]
    pub fn innermost_var(&self) -> Option<usize> {
        self.coeffs().iter().rposition(|&c| c != 0)
    }

    /// Shifts the constraint by a constant vector: the returned constraint
    /// holds at `x` iff `self` holds at `x - offset`. Used to translate
    /// iteration domains into data domains (`D_Ax = { h | P(h - f_x) ≥ b }`,
    /// Definition 5).
    ///
    /// # Panics
    ///
    /// Panics if `offset.dims()` differs from the constraint's.
    #[must_use]
    pub fn translated(&self, offset: &Point) -> Self {
        assert_eq!(offset.dims(), self.dims(), "offset dimension mismatch");
        let mut out = *self;
        for (c, o) in self.coeffs().iter().zip(offset.as_slice()) {
            out.constant -= c * o;
        }
        out
    }

    /// Relaxes the constant term by `slack ≥ 0`, enlarging the feasible
    /// half-space. Used when dilating a domain to cover all shifted copies.
    #[must_use]
    pub fn relaxed(&self, slack: i64) -> Self {
        debug_assert!(slack >= 0, "relaxation slack must be non-negative");
        let mut out = *self;
        out.constant += slack;
        out
    }

    /// Divides out the gcd of all coefficients (tightening the constant by
    /// integer rounding, which is sound for integer points).
    #[must_use]
    fn normalized(mut self) -> Self {
        // In u64 and i128: a coefficient of `i64::MIN` has no `i64`
        // magnitude, and its gcd may be 2^63.
        let g = self.coeffs().iter().fold(0u64, |mut g, &c| {
            let mut c = c.unsigned_abs();
            while c != 0 {
                (g, c) = (c, g % c);
            }
            g
        });
        if g > 1 {
            let g = i128::from(g);
            for c in self.coeffs.iter_mut() {
                *c = (i128::from(*c) / g) as i64;
            }
            // a·x + b >= 0 with a = g·a'  =>  a'·x >= -b/g  =>  a'·x + floor(b/g) >= 0
            self.constant = i128::from(self.constant).div_euclid(g) as i64;
        }
        self
    }
}

/// Greatest common divisor of two non-negative integers.
#[must_use]
pub fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl fmt::Debug for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Constraint[{self}]")
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (d, &c) in self.coeffs().iter().enumerate() {
            if c == 0 {
                continue;
            }
            if first {
                if c == -1 {
                    write!(f, "-")?;
                } else if c != 1 {
                    write!(f, "{c}*")?;
                }
                first = false;
            } else if c < 0 {
                write!(f, " - ")?;
                if c != -1 {
                    write!(f, "{}*", -c)?;
                }
            } else {
                write!(f, " + ")?;
                if c != 1 {
                    write!(f, "{c}*")?;
                }
            }
            write!(f, "x{d}")?;
        }
        if first {
            write!(f, "{} >= 0", self.constant)
        } else if self.constant == 0 {
            write!(f, " >= 0")
        } else if self.constant < 0 {
            write!(f, " - {} >= 0", -self.constant)
        } else {
            write!(f, " + {} >= 0", self.constant)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_and_holds() {
        // 2i - j - 3 >= 0
        let c = Constraint::new(&[2, -1], -3);
        assert_eq!(c.eval(&Point::new(&[3, 1])), 2);
        assert!(c.holds(&Point::new(&[3, 1])));
        assert!(!c.holds(&Point::new(&[1, 0])));
    }

    #[test]
    fn bounds_constructors() {
        let lo = Constraint::lower_bound(2, 1, 5); // j >= 5
        assert!(lo.holds(&Point::new(&[0, 5])));
        assert!(!lo.holds(&Point::new(&[0, 4])));
        let hi = Constraint::upper_bound(2, 0, 7); // i <= 7
        assert!(hi.holds(&Point::new(&[7, 0])));
        assert!(!hi.holds(&Point::new(&[8, 0])));
    }

    #[test]
    fn translation_matches_definition() {
        // i >= 2 translated by f = (2,) is: holds at h iff orig holds at h-2,
        // i.e. h >= 4.
        let c = Constraint::lower_bound(1, 0, 2);
        let t = c.translated(&Point::new(&[2]));
        assert!(t.holds(&Point::new(&[4])));
        assert!(!t.holds(&Point::new(&[3])));
    }

    #[test]
    fn normalization_divides_gcd_and_tightens() {
        // 2i - 5 >= 0  =>  i >= 2.5  =>  i >= 3 over the integers;
        // normalized form is i - 3 >= 0 (constant floor(-5/2) = -3).
        let c = Constraint::new(&[2], -5);
        assert_eq!(c.coeffs(), &[1]);
        assert_eq!(c.constant(), -3);
        assert!(!c.holds(&Point::new(&[2])));
        assert!(c.holds(&Point::new(&[3])));
    }

    #[test]
    fn innermost_var_detection() {
        assert_eq!(Constraint::new(&[1, 0, 0], 4).innermost_var(), Some(0));
        assert_eq!(Constraint::new(&[1, 0, 2], 4).innermost_var(), Some(2));
        assert_eq!(Constraint::new(&[0, 0], 4).innermost_var(), None);
    }

    #[test]
    fn relax_enlarges() {
        let c = Constraint::upper_bound(1, 0, 3); // i <= 3
        let r = c.relaxed(2); // i <= 5
        assert!(r.holds(&Point::new(&[5])));
        assert!(!r.holds(&Point::new(&[6])));
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(0, 7), 7);
        assert_eq!(gcd(-4, 6), 2);
        assert_eq!(gcd(0, 0), 0);
    }

    #[test]
    fn display_readable() {
        let c = Constraint::new(&[1, -2], 3);
        assert_eq!(c.to_string(), "x0 - 2*x1 + 3 >= 0");
        let k = Constraint::new(&[0, 0], -1);
        assert_eq!(k.to_string(), "-1 >= 0");
    }
}
