//! Row/rank index over a polyhedral domain.
//!
//! [`DomainIndex`] materializes the domain as its lexicographically
//! ordered *rows* (maximal runs along the innermost dimension) with prefix
//! point counts. Lexicographic rank queries — the primitive underlying the
//! paper's reuse distances (Definition 8: a reuse distance is the number
//! of domain points between two accesses in lexicographic order) — then
//! cost `O(log #rows)`, and streaming through the domain one element per
//! clock cycle costs `O(1)` amortized via [`Cursor`].

use std::cmp::Ordering;
use std::sync::OnceLock;

use crate::error::PolyError;
use crate::order::lex_cmp;
use crate::point::Point;
use crate::polyhedron::Polyhedron;

/// One maximal innermost-dimension run of a domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// Fixed outer coordinates (all dimensions except the innermost).
    pub prefix: Point,
    /// Inclusive innermost start coordinate.
    pub lo: i64,
    /// Inclusive innermost end coordinate (`lo <= hi`).
    pub hi: i64,
    /// Number of domain points lexicographically before this row.
    pub base: u64,
}

impl Row {
    /// Number of points in the row.
    #[must_use]
    pub fn len(&self) -> u64 {
        (self.hi - self.lo + 1) as u64
    }

    /// Rows are never empty; provided for API completeness.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Precomputed rank/row index over the integer points of a polyhedron.
///
/// # Examples
///
/// ```
/// use stencil_polyhedral::{Point, Polyhedron};
///
/// let idx = Polyhedron::grid(&[4, 8]).index()?;
/// assert_eq!(idx.len(), 32);
/// assert_eq!(idx.rank_lt(&Point::new(&[1, 0])), 8);
/// assert_eq!(idx.point_at(8), Some(Point::new(&[1, 0])));
/// # Ok::<(), stencil_polyhedral::PolyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DomainIndex {
    dims: usize,
    rows: Vec<Row>,
    total: u64,
    layout: OnceLock<Layout>,
}

/// What one walk over an index's rows finds, on the first query that
/// needs it, so no consumer walks the rows again to learn it. Planning
/// builds many indexes that never ask, so none of them pays for it.
#[derive(Debug, Clone)]
struct Layout {
    /// Row prefixes strictly ascend.
    ascending: bool,
    /// Row `k` starts at the rank where row `k - 1` ends, row 0 at 0.
    contiguous: bool,
    /// The per-dimension inclusive bounds of the box the rows cover
    /// exactly, in ascending contiguous order.
    dense_box: Option<Vec<(i64, i64)>>,
}

impl Layout {
    fn of(dims: usize, rows: &[Row]) -> Self {
        let ascending = rows
            .windows(2)
            .all(|w| w[0].prefix.as_slice() < w[1].prefix.as_slice());
        let mut next = 0u64;
        let contiguous = rows.iter().all(|r| {
            let at = r.base == next;
            next = r.base + r.len();
            at
        });
        let dense_box = (ascending && contiguous)
            .then(|| dense_box(dims, rows))
            .flatten();
        Self {
            ascending,
            contiguous,
            dense_box,
        }
    }
}

/// The box `rows` cover exactly, if they do: every row spans the same
/// innermost range, and the strictly ascending prefixes number as many
/// as their bounding box holds, so they are every prefix of it.
fn dense_box(dims: usize, rows: &[Row]) -> Option<Vec<(i64, i64)>> {
    let first = rows.first()?;
    if rows.iter().any(|r| (r.lo, r.hi) != (first.lo, first.hi)) {
        return None;
    }
    let mut bounds: Vec<(i64, i64)> = first.prefix.as_slice().iter().map(|&c| (c, c)).collect();
    for row in rows {
        for (b, &c) in bounds.iter_mut().zip(row.prefix.as_slice()) {
            *b = (b.0.min(c), b.1.max(c));
        }
    }
    let prefixes = bounds.iter().try_fold(1u64, |n, &(lo, hi)| {
        n.checked_mul(u64::try_from(hi - lo + 1).ok()?)
    })?;
    (prefixes == rows.len() as u64).then(|| {
        bounds.push((first.lo, first.hi));
        debug_assert_eq!(bounds.len(), dims);
        bounds
    })
}

impl DomainIndex {
    /// Builds the index by scanning the polyhedron's rows.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Unbounded`] for unbounded polyhedra.
    pub fn build(poly: &Polyhedron) -> Result<Self, PolyError> {
        let sys = poly.level_system()?;
        let m = poly.dims();
        let mut rows = Vec::new();
        let mut total = 0u64;

        if sys.is_infeasible() {
            return Ok(Self {
                dims: m,
                rows,
                total,
                layout: OnceLock::new(),
            });
        }

        // Odometer over the m-1 outer dimensions; innermost interval per
        // prefix becomes a row.
        let mut cur = vec![0i64; m.saturating_sub(1)];
        let mut his = vec![0i64; m.saturating_sub(1)];
        let outer = m - 1;
        let mut level = 0usize;
        'scan: loop {
            // Descend to fill cur[level..outer].
            while level < outer {
                let prefix = Point::new(&cur[..level]);
                let (lo, hi) = sys.bounds(level, &prefix);
                if lo <= hi {
                    cur[level] = lo;
                    his[level] = hi;
                    level += 1;
                } else {
                    // Backtrack.
                    loop {
                        if level == 0 {
                            break 'scan;
                        }
                        level -= 1;
                        if cur[level] < his[level] {
                            cur[level] += 1;
                            level += 1;
                            break;
                        }
                    }
                }
            }
            // Emit the innermost row for this prefix.
            let prefix = Point::new(&cur[..outer]);
            let (lo, hi) = sys.bounds(outer, &prefix);
            if lo <= hi {
                rows.push(Row {
                    prefix,
                    lo,
                    hi,
                    base: total,
                });
                total += (hi - lo + 1) as u64;
            }
            if outer == 0 {
                break 'scan;
            }
            // Advance the odometer.
            level = outer;
            loop {
                if level == 0 {
                    break 'scan;
                }
                level -= 1;
                if cur[level] < his[level] {
                    cur[level] += 1;
                    level += 1;
                    break;
                }
            }
        }

        Ok(Self {
            dims: m,
            rows,
            total,
            layout: OnceLock::new(),
        })
    }

    /// Builds an index directly from hand-authored rows, bypassing the
    /// polyhedral scan — for tests and tooling that need indexes no
    /// polyhedron produces (gaps, shifted spans, inconsistent bases).
    ///
    /// Only basic shape is checked. Everything else is trusted: row
    /// prefixes must be in strictly ascending lexicographic order for
    /// binary-search queries to behave, and rank queries are exactly as
    /// consistent as the provided `base` values. Consumers of arbitrary
    /// indexes (e.g. the execution engine's fast path) must therefore
    /// treat rank arithmetic defensively.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0`, a row's prefix does not have `dims - 1`
    /// coordinates, or a row has `hi < lo`.
    #[must_use]
    pub fn from_rows(dims: usize, rows: Vec<Row>) -> Self {
        assert!(dims >= 1, "a domain index needs at least one dimension");
        let mut total = 0u64;
        for row in &rows {
            assert_eq!(
                row.prefix.dims(),
                dims - 1,
                "row prefix must fix all outer dimensions"
            );
            assert!(row.lo <= row.hi, "row range must be non-empty");
            total = total.max(row.base + row.len());
        }
        Self {
            dims,
            rows,
            total,
            layout: OnceLock::new(),
        }
    }

    /// Number of dimensions of the indexed domain.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Total number of integer points.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True if the domain has no integer points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The rows in lexicographic order.
    #[must_use]
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// True if the row prefixes strictly ascend, as in every index
    /// [`DomainIndex::build`] makes. Found once per index, on first use.
    #[must_use]
    pub fn prefixes_ascend(&self) -> bool {
        self.layout().ascending
    }

    /// True if the rows tile the rank stream in order: each row starts
    /// at the rank where the previous one ends, the first at rank 0, as
    /// in every index [`DomainIndex::build`] makes. Found once per
    /// index, on first use.
    #[must_use]
    pub fn ranks_contiguous(&self) -> bool {
        self.layout().contiguous
    }

    /// The per-dimension inclusive bounds of the box this index covers
    /// exactly, if it does: its rows are every prefix of the box in
    /// ascending, contiguous rank order, each spanning the same
    /// innermost range. The rank of a box point `p` is then linear,
    /// `Σ_d (p_d - lo_d) · stride_d` with `stride_d` the product of the
    /// extents inside dimension `d`. Found once per index, on first
    /// use.
    ///
    /// ```
    /// use stencil_polyhedral::Polyhedron;
    ///
    /// let idx = Polyhedron::rect(&[(1, 3), (-2, 5)]).index()?;
    /// assert_eq!(idx.dense_box(), Some(&[(1, 3), (-2, 5)][..]));
    /// # Ok::<(), stencil_polyhedral::PolyError>(())
    /// ```
    #[must_use]
    pub fn dense_box(&self) -> Option<&[(i64, i64)]> {
        self.layout().dense_box.as_deref()
    }

    /// The rows' layout, found by one walk on first use.
    fn layout(&self) -> &Layout {
        self.layout
            .get_or_init(|| Layout::of(self.dims, &self.rows))
    }

    /// True if `p` is a point of the domain.
    #[must_use]
    pub fn contains(&self, p: &Point) -> bool {
        assert_eq!(p.dims(), self.dims, "point dimensionality mismatch");
        let q = p.prefix(self.dims - 1);
        match self.find_row(&q) {
            Ok(r) => {
                let row = &self.rows[r];
                (row.lo..=row.hi).contains(&p[self.dims - 1])
            }
            Err(_) => false,
        }
    }

    /// Number of domain points lexicographically **strictly less** than
    /// `p` (which need not itself be a domain point).
    ///
    /// # Panics
    ///
    /// Panics if `p.dims() != self.dims()`.
    #[must_use]
    pub fn rank_lt(&self, p: &Point) -> u64 {
        assert_eq!(p.dims(), self.dims, "point dimensionality mismatch");
        let slot = self.find_row(&p.prefix(self.dims - 1));
        self.rank_in(slot, p[self.dims - 1], 0)
    }

    /// Number of domain points lexicographically **less than or equal**
    /// to `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p.dims() != self.dims()`.
    #[must_use]
    pub fn rank_le(&self, p: &Point) -> u64 {
        assert_eq!(p.dims(), self.dims, "point dimensionality mismatch");
        let slot = self.find_row(&p.prefix(self.dims - 1));
        self.rank_in(slot, p[self.dims - 1], 1)
    }

    /// The rank arithmetic behind [`rank_lt`](Self::rank_lt) and
    /// [`rank_le`](Self::rank_le): `slot` locates the point's prefix as
    /// [`find_row`](Self::find_row) does, and `inclusive` (0 or 1)
    /// counts the point itself when it lies in the found row.
    fn rank_in(&self, slot: Result<usize, usize>, inner: i64, inclusive: i64) -> u64 {
        match slot {
            Ok(r) => {
                let row = &self.rows[r];
                row.base + (inner - row.lo + inclusive).clamp(0, row.hi - row.lo + 1) as u64
            }
            Err(r) => self.rows.get(r).map_or(self.total, |row| row.base),
        }
    }

    /// The domain point with the given rank (0-based, lexicographic), or
    /// `None` if `rank >= self.len()`.
    #[must_use]
    pub fn point_at(&self, rank: u64) -> Option<Point> {
        if rank >= self.total {
            return None;
        }
        let r = self.rows.partition_point(|row| row.base <= rank) - 1;
        let row = &self.rows[r];
        let offset = rank - row.base;
        Some(row.prefix.pushed(row.lo + offset as i64))
    }

    /// The lexicographically smallest point, if any.
    #[must_use]
    pub fn first(&self) -> Option<Point> {
        self.point_at(0)
    }

    /// The lexicographically largest point, if any.
    #[must_use]
    pub fn last(&self) -> Option<Point> {
        self.total.checked_sub(1).and_then(|r| self.point_at(r))
    }

    /// Per-dimension inclusive bounding box, or `None` for an empty domain.
    #[must_use]
    pub fn bounding_box(&self) -> Option<Vec<(i64, i64)>> {
        if self.is_empty() {
            return None;
        }
        let mut bb = vec![(i64::MAX, i64::MIN); self.dims];
        for row in &self.rows {
            for (d, &c) in row.prefix.as_slice().iter().enumerate() {
                bb[d].0 = bb[d].0.min(c);
                bb[d].1 = bb[d].1.max(c);
            }
            let d = self.dims - 1;
            bb[d].0 = bb[d].0.min(row.lo);
            bb[d].1 = bb[d].1.max(row.hi);
        }
        Some(bb)
    }

    /// A fresh streaming cursor positioned at rank 0.
    #[must_use]
    pub fn cursor(&self) -> Cursor {
        Cursor { row: 0, offset: 0 }
    }

    /// Finds the row with the given prefix: `Ok(i)` if present, otherwise
    /// `Err(i)` with the insertion position.
    fn find_row(&self, prefix: &Point) -> Result<usize, usize> {
        self.rows
            .binary_search_by(|row| match lex_cmp(&row.prefix, prefix) {
                Ordering::Equal => Ordering::Equal,
                other => other,
            })
    }
}

/// A forward-only [`DomainIndex::rank_le`] for queries that arrive in
/// non-decreasing lexicographic order: the row cursor only ever moves
/// forward, so a whole query sequence costs `O(#queries + #rows)`
/// instead of a binary search per query. Answers are identical to
/// [`DomainIndex::rank_le`] on any index whose rows are in ascending
/// prefix order.
#[derive(Debug, Default)]
pub(crate) struct RankMerge {
    row: usize,
}

impl RankMerge {
    /// `idx.rank_le(p)`, provided `p` is not lexicographically below
    /// any earlier query made through this cursor.
    pub(crate) fn rank_le(&mut self, idx: &DomainIndex, p: &Point) -> u64 {
        assert_eq!(p.dims(), idx.dims, "point dimensionality mismatch");
        let (prefix, inner) = p.as_slice().split_at(idx.dims - 1);
        while idx
            .rows
            .get(self.row)
            .is_some_and(|row| row.prefix.as_slice() < prefix)
        {
            self.row += 1;
        }
        let slot = match idx.rows.get(self.row) {
            Some(row) if row.prefix.as_slice() == prefix => Ok(self.row),
            _ => Err(self.row),
        };
        idx.rank_in(slot, inner[0], 1)
    }
}

/// An `O(1)`-advance position inside a [`DomainIndex`].
///
/// This models the paper's hardware *counters iterating over data domains
/// in the lexicographic order* (§5.2): a data filter holds one cursor over
/// the input domain and one over its reference's data domain.
///
/// A cursor is a small `Copy` value; all queries take the owning index.
///
/// # Examples
///
/// ```
/// use stencil_polyhedral::{Point, Polyhedron};
///
/// let idx = Polyhedron::grid(&[2, 2]).index()?;
/// let mut c = idx.cursor();
/// assert_eq!(c.point(&idx), Some(Point::new(&[0, 0])));
/// c.advance(&idx);
/// assert_eq!(c.point(&idx), Some(Point::new(&[0, 1])));
/// # Ok::<(), stencil_polyhedral::PolyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cursor {
    row: usize,
    offset: u64,
}

impl Cursor {
    /// The point under the cursor, or `None` once past the end.
    #[must_use]
    pub fn point(&self, idx: &DomainIndex) -> Option<Point> {
        let row = idx.rows.get(self.row)?;
        Some(row.prefix.pushed(row.lo + self.offset as i64))
    }

    /// The lexicographic rank of the cursor position (equals
    /// `idx.len()` once past the end).
    #[must_use]
    pub fn rank(&self, idx: &DomainIndex) -> u64 {
        match idx.rows.get(self.row) {
            Some(row) => row.base + self.offset,
            None => idx.len(),
        }
    }

    /// True once the cursor has stepped past the last point.
    #[must_use]
    pub fn is_done(&self, idx: &DomainIndex) -> bool {
        self.row >= idx.rows.len()
    }

    /// Steps to the next point in lexicographic order.
    pub fn advance(&mut self, idx: &DomainIndex) {
        if let Some(row) = idx.rows.get(self.row) {
            self.offset += 1;
            if self.offset >= row.len() {
                self.row += 1;
                self.offset = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Constraint;

    fn triangle() -> Polyhedron {
        // 0 <= i <= 3, 0 <= j <= i — rows of growing length 1,2,3,4.
        Polyhedron::rect(&[(0, 3), (0, 3)]).with_constraint(Constraint::new(&[1, -1], 0))
    }

    #[test]
    fn row_structure() {
        let idx = triangle().index().unwrap();
        assert_eq!(idx.rows().len(), 4);
        assert_eq!(idx.len(), 10);
        assert_eq!(idx.rows()[2].prefix, Point::new(&[2]));
        assert_eq!((idx.rows()[2].lo, idx.rows()[2].hi), (0, 2));
        assert_eq!(idx.rows()[2].base, 3);
    }

    #[test]
    fn rank_roundtrip_all_points() {
        let idx = triangle().index().unwrap();
        for (k, p) in triangle().points().unwrap().enumerate() {
            assert_eq!(idx.rank_lt(&p), k as u64, "rank of {p}");
            assert_eq!(idx.point_at(k as u64), Some(p));
            assert!(idx.contains(&p));
        }
        assert_eq!(idx.point_at(idx.len()), None);
    }

    #[test]
    fn rank_of_non_member_points() {
        let idx = triangle().index().unwrap();
        // (1, 2) is outside (j > i); points before it: (0,0),(1,0),(1,1).
        assert_eq!(idx.rank_lt(&Point::new(&[1, 2])), 3);
        assert!(!idx.contains(&Point::new(&[1, 2])));
        assert_eq!(idx.rank_le(&Point::new(&[1, 2])), 3);
        // A point lex-below everything.
        assert_eq!(idx.rank_lt(&Point::new(&[-5, 0])), 0);
        // A point lex-above everything.
        assert_eq!(idx.rank_lt(&Point::new(&[9, 0])), 10);
        // Inner coordinate below the row start.
        assert_eq!(idx.rank_lt(&Point::new(&[2, -7])), 3);
        // Inner coordinate beyond the row end clamps to the row length.
        assert_eq!(idx.rank_lt(&Point::new(&[2, 100])), 6);
    }

    #[test]
    fn rank_merge_matches_rank_le_on_sorted_queries() {
        // Members, gaps inside and between rows, and points off both
        // ends, in non-decreasing lexicographic order (with repeats).
        let idx = triangle().index().unwrap();
        let mut queries = Vec::new();
        for i in -1..=5 {
            for j in -2..=5 {
                queries.push(Point::new(&[i, j]));
                queries.push(Point::new(&[i, j]));
            }
        }
        let mut merge = RankMerge::default();
        for q in &queries {
            assert_eq!(merge.rank_le(&idx, q), idx.rank_le(q), "rank_le of {q}");
        }
    }

    #[test]
    fn one_dimensional_domain() {
        let idx = Polyhedron::rect(&[(-3, 3)]).index().unwrap();
        assert_eq!(idx.len(), 7);
        assert_eq!(idx.rows().len(), 1);
        assert_eq!(idx.rank_lt(&Point::new(&[0])), 3);
        assert_eq!(idx.point_at(0), Some(Point::new(&[-3])));
        assert_eq!(idx.first(), Some(Point::new(&[-3])));
        assert_eq!(idx.last(), Some(Point::new(&[3])));
    }

    #[test]
    fn three_dimensional_ranks() {
        let idx = Polyhedron::grid(&[3, 4, 5]).index().unwrap();
        assert_eq!(idx.len(), 60);
        assert_eq!(idx.rank_lt(&Point::new(&[1, 2, 3])), 20 + 10 + 3);
        assert_eq!(idx.point_at(33), Some(Point::new(&[1, 2, 3])));
    }

    #[test]
    fn empty_domain() {
        let idx = Polyhedron::rect(&[(1, 0), (0, 5)]).index().unwrap();
        assert!(idx.is_empty());
        assert_eq!(idx.first(), None);
        assert_eq!(idx.last(), None);
        assert_eq!(idx.bounding_box(), None);
        assert_eq!(idx.rank_lt(&Point::new(&[0, 0])), 0);
    }

    #[test]
    fn bounding_box_of_triangle() {
        let bb = triangle().index().unwrap().bounding_box().unwrap();
        assert_eq!(bb, vec![(0, 3), (0, 3)]);
    }

    #[test]
    fn cursor_walks_whole_domain() {
        let poly = triangle();
        let idx = poly.index().unwrap();
        let mut c = idx.cursor();
        let mut seen = Vec::new();
        while let Some(p) = c.point(&idx) {
            assert_eq!(c.rank(&idx), seen.len() as u64);
            assert!(!c.is_done(&idx));
            seen.push(p);
            c.advance(&idx);
        }
        assert!(c.is_done(&idx));
        assert_eq!(c.rank(&idx), idx.len());
        let expected: Vec<Point> = poly.points().unwrap().collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn cursor_on_empty_domain_is_done() {
        let idx = Polyhedron::rect(&[(1, 0)]).index().unwrap();
        let c = idx.cursor();
        assert!(c.is_done(&idx));
        assert_eq!(c.point(&idx), None);
    }

    #[test]
    fn hand_built_rows_index() {
        // Same shape as grid 2x3 but authored by hand.
        let idx = DomainIndex::from_rows(
            2,
            vec![
                Row {
                    prefix: Point::new(&[0]),
                    lo: 0,
                    hi: 2,
                    base: 0,
                },
                Row {
                    prefix: Point::new(&[1]),
                    lo: 0,
                    hi: 2,
                    base: 3,
                },
            ],
        );
        assert_eq!(idx.len(), 6);
        assert_eq!(idx.rank_lt(&Point::new(&[1, 1])), 4);
        assert!(idx.contains(&Point::new(&[0, 2])));
        assert!(!idx.contains(&Point::new(&[0, 3])));
        // Inconsistent bases are accepted — the constructor trusts the
        // caller, and total sizing follows the largest end rank.
        let scrambled = DomainIndex::from_rows(
            2,
            vec![
                Row {
                    prefix: Point::new(&[0]),
                    lo: 0,
                    hi: 2,
                    base: 3,
                },
                Row {
                    prefix: Point::new(&[1]),
                    lo: 0,
                    hi: 2,
                    base: 0,
                },
            ],
        );
        assert_eq!(scrambled.len(), 6);
        // Rank order now inverts lexicographic order: consumers must
        // not assume monotonicity for hand-built indexes.
        assert!(scrambled.rank_lt(&Point::new(&[1, 0])) < scrambled.rank_lt(&Point::new(&[0, 0])));
    }

    #[test]
    #[should_panic(expected = "row prefix must fix all outer dimensions")]
    fn from_rows_rejects_wrong_prefix_dims() {
        let _ = DomainIndex::from_rows(
            3,
            vec![Row {
                prefix: Point::new(&[0]),
                lo: 0,
                hi: 1,
                base: 0,
            }],
        );
    }

    #[test]
    fn skewed_domain_rows_have_shifting_bounds() {
        // Fig. 9 style: 0 <= i <= 4, i <= j <= i + 2.
        let p = Polyhedron::new(
            2,
            vec![
                Constraint::lower_bound(2, 0, 0),
                Constraint::upper_bound(2, 0, 4),
                Constraint::new(&[-1, 1], 0),
                Constraint::new(&[1, -1], 2),
            ],
        );
        let idx = p.index().unwrap();
        assert_eq!(idx.rows().len(), 5);
        for (i, row) in idx.rows().iter().enumerate() {
            assert_eq!((row.lo, row.hi), (i as i64, i as i64 + 2));
        }
        assert_eq!(idx.len(), 15);
    }

    #[test]
    fn layout_is_found_once_per_index() {
        let row = |p: i64, lo: i64, hi: i64, base: u64| Row {
            prefix: Point::new(&[p]),
            lo,
            hi,
            base,
        };
        let boxed = Polyhedron::rect(&[(2, 4), (-1, 0), (5, 9)])
            .index()
            .unwrap();
        assert!(boxed.prefixes_ascend() && boxed.ranks_contiguous());
        assert_eq!(boxed.dense_box(), Some(&[(2, 4), (-1, 0), (5, 9)][..]));
        let line = Polyhedron::rect(&[(3, 8)]).index().unwrap();
        assert_eq!(line.dense_box(), Some(&[(3, 8)][..]));

        // Ordered and contiguous, but not a box.
        let tri = triangle().index().unwrap();
        assert!(tri.prefixes_ascend() && tri.ranks_contiguous());
        assert_eq!(tri.dense_box(), None);
        // A prefix gap: equal rows, but fewer than the prefix box holds.
        let gap = DomainIndex::from_rows(2, vec![row(0, 0, 4, 0), row(2, 0, 4, 5)]);
        assert!(gap.prefixes_ascend() && gap.ranks_contiguous());
        assert_eq!(gap.dense_box(), None);
        // Box-shaped rows whose bases invert rank order.
        let scrambled = DomainIndex::from_rows(2, vec![row(0, 0, 4, 5), row(1, 0, 4, 0)]);
        assert!(scrambled.prefixes_ascend() && !scrambled.ranks_contiguous());
        assert_eq!(scrambled.dense_box(), None);
        // Box-shaped rows out of prefix order.
        let unordered = DomainIndex::from_rows(2, vec![row(1, 0, 4, 0), row(0, 0, 4, 5)]);
        assert!(!unordered.prefixes_ascend() && unordered.ranks_contiguous());
        assert_eq!(unordered.dense_box(), None);
        // Hand-built rows that do form a box.
        let hand = DomainIndex::from_rows(2, vec![row(7, 1, 2, 0), row(8, 1, 2, 2)]);
        assert_eq!(hand.dense_box(), Some(&[(7, 8), (1, 2)][..]));

        let empty = Polyhedron::rect(&[(0, 1), (3, 2)]).index().unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.dense_box(), None);
    }
}
