//! Reuse-distance analysis (Definitions 7–9 and Properties 2–3 of the
//! paper).
//!
//! The reuse distance from reference `A_x` to `A_y` at data index `h` is
//! the number of input-domain elements `g` with `h ≺_l g ⪯_l h + r`,
//! where `r = f_x - f_y` is the constant reuse-distance vector. The
//! **maximum** reuse distance over the downstream data domain is the FIFO capacity
//! the non-uniform microarchitecture allocates between the two adjacent
//! references (deadlock-free condition 2, Eq. (2)).

use crate::error::PolyError;
use crate::index::{DomainIndex, RankMerge};
use crate::order::{lex_cmp, lex_positive};
use crate::point::Point;

use std::cmp::Ordering;

/// The constant reuse-distance vector `r = f_x - f_y` from the reference
/// with offset `f_x` to the one with offset `f_y` (Property 2).
///
/// Positive (lexicographically) iff `A_x` accesses each element *before*
/// `A_y` does.
///
/// # Examples
///
/// ```
/// use stencil_polyhedral::{reuse_vector, Point};
///
/// // From A[i+1][j] to A[i-1][j]: r = (2, 0).
/// let r = reuse_vector(&Point::new(&[1, 0]), &Point::new(&[-1, 0]));
/// assert_eq!(r, Point::new(&[2, 0]));
/// ```
#[must_use]
pub fn reuse_vector(f_x: &Point, f_y: &Point) -> Point {
    *f_x - *f_y
}

/// The reuse distance at a single data index `h` (Definition 8): the
/// number of input-domain points `g` with `h ≺_l g ⪯_l h + r`.
///
/// `input` must index the array's input data domain `D_A`.
///
/// # Panics
///
/// Panics on dimensionality mismatches.
#[must_use]
pub fn reuse_distance_at(input: &DomainIndex, h: &Point, r: &Point) -> u64 {
    let target = *h + *r;
    match lex_cmp(&target, h) {
        Ordering::Greater => input.rank_le(&target) - input.rank_le(h),
        // r = 0: the same element, distance 0; r ≺ 0 has no forward reuse.
        Ordering::Equal | Ordering::Less => 0,
    }
}

/// The **maximum reuse distance** `r̄(A_x → A_y)` (Definition 9): the
/// maximum of [`reuse_distance_at`] over all `h` in `eval_domain`.
///
/// `input` indexes the input data domain `D_A`; `r = f_x - f_y` must be
/// lexicographically positive (`A_x` is the earlier reference).
///
/// For sizing the reuse FIFO between adjacent references, pass the data
/// domain of the **later** reference `D_Ay` as `eval_domain`: when the
/// kernel fires at iteration `i`, the chain between the two filters holds
/// exactly the input elements in `(i + f_y, i + f_x]`, which is the
/// interval `(h, h + r]` with `h = i + f_y ∈ D_Ay`. (The paper states the
/// equivalent definition with the opposite sign convention; on rectangular
/// grids the two evaluations coincide by translation invariance, but on
/// skewed grids — Fig. 9 — only the `D_Ay` evaluation bounds the true
/// occupancy.)
///
/// Within one innermost row, the distance is non-increasing in
/// the innermost coordinate (both ranks advance at unit rate until
/// `h + r` runs off the end of its row), so the maximum is attained at a
/// row start; this routine therefore only probes the `O(#rows)` row
/// endpoints. The probes `h` arrive in lexicographic order and `h + r`
/// is a constant shift of them, so both rank sequences are monotone and
/// are read off in one linear merge over the input rows:
/// `O(#eval rows + #input rows)` in total, no binary search.
/// [`max_reuse_distance_exhaustive`] is the brute-force oracle used to
/// validate this in tests.
///
/// # Errors
///
/// * [`PolyError::NonPositiveReuse`] if `r` is not lexicographically
///   positive.
/// * [`PolyError::EmptyDomain`] if `eval_domain` is empty.
///
/// # Examples
///
/// ```
/// use stencil_polyhedral::{max_reuse_distance, Point, Polyhedron};
///
/// // DENOISE: from A[i+1][j] to A[i-1][j] over A[0..767][0..1023].
/// let input = Polyhedron::grid(&[768, 1024]).index()?;
/// let iter = Polyhedron::rect(&[(1, 766), (1, 1022)]);
/// let d_a0 = iter.translated(&Point::new(&[1, 0])).index()?;
/// let dist = max_reuse_distance(&input, &d_a0, &Point::new(&[2, 0]))?;
/// assert_eq!(dist, 2048);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn max_reuse_distance(
    input: &DomainIndex,
    eval_domain: &DomainIndex,
    r: &Point,
) -> Result<u64, PolyError> {
    if !lex_positive(r) {
        return Err(PolyError::NonPositiveReuse {
            vector: r.to_string(),
        });
    }
    if eval_domain.is_empty() {
        return Err(PolyError::EmptyDomain);
    }
    // One forward cursor for `h`, one for `h + r`; `r ≻ 0`, so every
    // probe takes the `Ordering::Greater` arm of `reuse_distance_at`.
    let (mut at_h, mut at_target) = (RankMerge::default(), RankMerge::default());
    let mut max = 0u64;
    for row in eval_domain.rows() {
        for inner in [row.lo, row.hi] {
            let h = row.prefix.pushed(inner);
            let distance = at_target.rank_le(input, &(h + *r)) - at_h.rank_le(input, &h);
            max = max.max(distance);
        }
    }
    Ok(max)
}

/// Brute-force maximum reuse distance over **every** point of `eval_domain`.
///
/// Exponentially slower than [`max_reuse_distance`] on large grids; used
/// as a test oracle.
///
/// # Errors
///
/// Same as [`max_reuse_distance`].
pub fn max_reuse_distance_exhaustive(
    input: &DomainIndex,
    eval_domain: &DomainIndex,
    r: &Point,
) -> Result<u64, PolyError> {
    if !lex_positive(r) {
        return Err(PolyError::NonPositiveReuse {
            vector: r.to_string(),
        });
    }
    if eval_domain.is_empty() {
        return Err(PolyError::EmptyDomain);
    }
    let mut max = 0u64;
    let mut c = eval_domain.cursor();
    while let Some(h) = c.point(eval_domain) {
        max = max.max(reuse_distance_at(input, &h, r));
        c.advance(eval_domain);
    }
    Ok(max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Constraint;
    use crate::polyhedron::Polyhedron;

    fn denoise_input() -> DomainIndex {
        Polyhedron::grid(&[768, 1024]).index().unwrap()
    }

    fn denoise_iter() -> Polyhedron {
        Polyhedron::rect(&[(1, 766), (1, 1022)])
    }

    #[test]
    fn paper_example_adjacent_distances() {
        // Table 2 of the paper: FIFO sizes 1023, 1, 1, 1023.
        let input = denoise_input();
        let iter = denoise_iter();
        let offsets = [
            Point::new(&[1, 0]),
            Point::new(&[0, 1]),
            Point::new(&[0, 0]),
            Point::new(&[0, -1]),
            Point::new(&[-1, 0]),
        ];
        let expected = [1023u64, 1, 1, 1023];
        for (k, exp) in expected.iter().enumerate() {
            let r = reuse_vector(&offsets[k], &offsets[k + 1]);
            let dax = iter.translated(&offsets[k]).index().unwrap();
            let d = max_reuse_distance(&input, &dax, &r).unwrap();
            assert_eq!(d, *exp, "FIFO_{k}");
        }
    }

    #[test]
    fn paper_example_total_distance() {
        // §2.3: A[2][2] first accessed by A[i+1][j], last by A[i-1][j],
        // 2048 cycles apart.
        let input = denoise_input();
        let dax = denoise_iter()
            .translated(&Point::new(&[1, 0]))
            .index()
            .unwrap();
        let d = max_reuse_distance(&input, &dax, &Point::new(&[2, 0])).unwrap();
        assert_eq!(d, 2048);
    }

    #[test]
    fn linearity_property() {
        // Property 3: r̄(A_x→A_z) = r̄(A_x→A_y) + r̄(A_y→A_z).
        let input = denoise_input();
        let iter = denoise_iter();
        let f = [
            Point::new(&[1, 0]),
            Point::new(&[0, 1]),
            Point::new(&[0, 0]),
            Point::new(&[0, -1]),
            Point::new(&[-1, 0]),
        ];
        let d_first = iter.translated(&f[0]).index().unwrap();
        let total = max_reuse_distance(&input, &d_first, &reuse_vector(&f[0], &f[4])).unwrap();
        let mut sum = 0;
        for k in 0..4 {
            let dax = iter.translated(&f[k]).index().unwrap();
            sum += max_reuse_distance(&input, &dax, &reuse_vector(&f[k], &f[k + 1])).unwrap();
        }
        assert_eq!(total, sum);
        assert_eq!(total, 2048);
    }

    #[test]
    fn non_positive_vector_rejected() {
        let input = denoise_input();
        let dax = denoise_iter().index().unwrap();
        let err = max_reuse_distance(&input, &dax, &Point::new(&[0, -1])).unwrap_err();
        assert!(matches!(err, PolyError::NonPositiveReuse { .. }));
        let err = max_reuse_distance(&input, &dax, &Point::new(&[0, 0])).unwrap_err();
        assert!(matches!(err, PolyError::NonPositiveReuse { .. }));
    }

    #[test]
    fn empty_from_domain_rejected() {
        let input = denoise_input();
        let empty = Polyhedron::rect(&[(1, 0), (0, 1)]).index().unwrap();
        let err = max_reuse_distance(&input, &empty, &Point::new(&[1, 0])).unwrap_err();
        assert_eq!(err, PolyError::EmptyDomain);
    }

    #[test]
    fn distance_at_zero_or_negative_vector_is_zero() {
        let input = denoise_input();
        let h = Point::new(&[5, 5]);
        assert_eq!(reuse_distance_at(&input, &h, &Point::new(&[0, 0])), 0);
        assert_eq!(reuse_distance_at(&input, &h, &Point::new(&[-1, 0])), 0);
    }

    #[test]
    fn row_endpoint_method_matches_exhaustive_on_skewed_domain() {
        // Fig. 9-style skewed grid where the reuse distance changes
        // dynamically: 0 <= i <= 7, i <= j <= i + 5.
        let skew = Polyhedron::new(
            2,
            vec![
                Constraint::lower_bound(2, 0, 0),
                Constraint::upper_bound(2, 0, 7),
                Constraint::new(&[-1, 1], 0),
                Constraint::new(&[1, -1], 5),
            ],
        );
        let offsets = [
            Point::new(&[1, 1]),
            Point::new(&[1, -1]),
            Point::new(&[0, 0]),
            Point::new(&[-1, 1]),
            Point::new(&[-1, -1]),
        ];
        let input = skew.dilated(&offsets).index().unwrap();
        for x in 0..offsets.len() {
            for y in (x + 1)..offsets.len() {
                let r = reuse_vector(&offsets[x], &offsets[y]);
                if !lex_positive(&r) {
                    continue;
                }
                let dax = skew.translated(&offsets[x]).index().unwrap();
                let fast = max_reuse_distance(&input, &dax, &r).unwrap();
                let slow = max_reuse_distance_exhaustive(&input, &dax, &r).unwrap();
                assert_eq!(fast, slow, "pair {x}->{y}, r={r}");
            }
        }
    }

    #[test]
    fn distance_in_3d() {
        let input = Polyhedron::grid(&[10, 10, 10]).index().unwrap();
        let iter = Polyhedron::rect(&[(1, 8), (1, 8), (1, 8)]);
        let dax = iter.translated(&Point::new(&[1, 0, 0])).index().unwrap();
        // From A[i+1][j][k] to A[i-1][j][k]: two full planes = 200.
        let d = max_reuse_distance(&input, &dax, &Point::new(&[2, 0, 0])).unwrap();
        assert_eq!(d, 200);
    }
}
