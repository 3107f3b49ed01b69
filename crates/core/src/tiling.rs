//! Row-band tiling of a plan's iteration domain for parallel software
//! execution.
//!
//! The execution engine (`stencil-engine`) shards a kernel across
//! worker threads by splitting the iteration domain `D` into bands
//! along the outermost loop dimension. Because lexicographic order
//! sorts on the outermost dimension first, each band is a *contiguous
//! range of output ranks*, so tiles write disjoint slices of one output
//! buffer with no synchronization.
//!
//! Each tile also records its **halo**: the sub-region of the input
//! data domain `D_A` its iterations read (the band dilated by the
//! stencil window, clipped to `D_A`). Adjacent tiles' halos overlap by
//! the window radius — the data each band re-reads instead of
//! exchanging with its neighbour.
//!
//! The default band count follows the paper's Appendix 9.4
//! bandwidth/memory tradeoff: a plan reconfigured for `k` off-chip
//! streams ([`MemorySystemPlan::with_offchip_streams`]) feeds `k`
//! independent stream heads, and the engine mirrors that by running
//! `k` bands ([`MemorySystemPlan::tile_plan_from_streams`]).

use serde::{Deserialize, Serialize};
use stencil_polyhedral::{Constraint, Point, Polyhedron, Row};

use crate::error::PlanError;
use crate::plan::MemorySystemPlan;

/// One row band of the iteration domain, with its input halo.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tile {
    /// Tile position in outermost-dimension order.
    pub id: usize,
    /// Inclusive outermost-dimension range `[lo, hi]` of this band.
    pub band: (i64, i64),
    /// The band's iteration sub-domain (`D` ∩ band).
    pub iter_domain: Polyhedron,
    /// The input region this band reads: the band dilated by the
    /// stencil window, clipped to the input domain `D_A`.
    pub halo_domain: Polyhedron,
    /// Inclusive outermost-dimension range of the band's halo, *before*
    /// clipping to `D_A`: `(band.0 + min window offset, band.1 + max
    /// window offset)` along dimension 0. A streaming executor keeps
    /// exactly the input rows whose outermost coordinate falls in this
    /// range (intersected with the rows the input domain actually has)
    /// resident while the band runs — this is the Sec. 2.3 reuse-window
    /// bound expressed in rows.
    pub halo_band: (i64, i64),
    /// Lexicographic rank in `D` of the band's first iteration.
    pub start_rank: u64,
    /// Number of iterations (outputs) in the band.
    pub len: u64,
}

impl Tile {
    /// Exclusive end rank of this band's outputs.
    #[must_use]
    pub fn end_rank(&self) -> u64 {
        self.start_rank + self.len
    }

    /// True when a row spanning `span0` along the outermost dimension
    /// (see [`row_outer_span`]) lies entirely *below* this band's halo
    /// window — a streaming executor may evict it before running the
    /// band.
    #[must_use]
    pub fn row_below_halo(&self, span0: (i64, i64)) -> bool {
        span0.1 < self.halo_band.0
    }

    /// True when a row spanning `span0` lies entirely *above* this
    /// band's halo window — the band does not need it resident yet.
    #[must_use]
    pub fn row_above_halo(&self, span0: (i64, i64)) -> bool {
        span0.0 > self.halo_band.1
    }
}

/// The outermost-dimension coordinate range `[min, max]` an input index
/// row spans. Index rows fix all outer dimensions, so for `dims >= 2`
/// this is the single value `prefix[0]`; in 1D the band axis *is* the
/// row axis and the span is the row's own extent.
#[must_use]
pub fn row_outer_span(row: &Row, dims: usize) -> (i64, i64) {
    if dims == 1 {
        (row.lo, row.hi)
    } else {
        (row.prefix[0], row.prefix[0])
    }
}

/// A partition of a plan's iteration domain into row bands.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TilePlan {
    tiles: Vec<Tile>,
    total_outputs: u64,
}

impl TilePlan {
    /// The bands, in outermost-dimension (= output rank) order.
    #[must_use]
    pub fn tiles(&self) -> &[Tile] {
        &self.tiles
    }

    /// Number of bands (may be fewer than requested on small domains).
    #[must_use]
    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }

    /// Total outputs across all bands — the size of `D`.
    #[must_use]
    pub fn total_outputs(&self) -> u64 {
        self.total_outputs
    }

    /// Each band's last outermost value, in band order: the cuts
    /// [`MemorySystemPlan::tile_plan_from_cuts`] rebuilds this plan from.
    #[must_use]
    pub fn cuts(&self) -> Vec<i64> {
        self.tiles.iter().map(|t| t.band.1).collect()
    }

    /// Total input elements fetched across all halos, counting overlap
    /// regions once per tile that reads them. The excess over the input
    /// domain size is the redundant-fetch cost of sharding.
    ///
    /// # Errors
    ///
    /// Propagates halo counting failures as [`PlanError`].
    pub fn halo_elements(&self) -> Result<u64, PlanError> {
        let mut total = 0u64;
        for t in &self.tiles {
            total += t.halo_domain.count().map_err(PlanError::from)?;
        }
        Ok(total)
    }
}

impl MemorySystemPlan {
    /// Partitions the iteration domain into (at most) `tiles` row bands
    /// of near-equal output count along the outermost dimension.
    ///
    /// Bands are contiguous in lexicographic output order and jointly
    /// cover `D` exactly once. Fewer bands are produced when the
    /// outermost dimension has fewer distinct values than requested.
    ///
    /// # Errors
    ///
    /// * [`PlanError::EmptyIterationDomain`] if `D` has no points.
    /// * Polyhedral failures as [`PlanError::Poly`].
    ///
    /// # Panics
    ///
    /// Panics if `tiles == 0`.
    pub fn tile_plan(&self, tiles: usize) -> Result<TilePlan, PlanError> {
        assert!(tiles > 0, "tile count must be positive");
        let profile = self.outer_profile()?;
        let total = profile.total;

        // Greedy balanced cut: close a band once it reaches the ideal
        // cumulative share of outputs; the last band takes the rest.
        let mut cuts = Vec::with_capacity(tiles);
        let mut in_band = 0u64;
        let mut emitted = 0u64;
        for (i0, &c) in (profile.lo0..).zip(&profile.counts) {
            in_band += c;
            // Computed in u128: `total` can approach u64::MAX on huge
            // (sparsely indexed) domains, where `total * (k + 1)` would
            // wrap and silently misplace every remaining cut.
            let share_wide = (u128::from(total) * (cuts.len() as u128 + 1)).div_ceil(tiles as u128);
            let share = u64::try_from(share_wide).expect("share <= total outputs");
            if in_band > 0 && emitted + in_band >= share && cuts.len() + 1 < tiles {
                cuts.push(i0);
                emitted += in_band;
                in_band = 0;
            }
        }
        self.bands_at(&profile, &cuts)
    }

    /// Partitions the iteration domain into row bands of at most
    /// `chunk_rows` distinct outermost-dimension values each — the
    /// fixed-height chunking a streaming (out-of-core) executor uses,
    /// where band height directly sets the resident halo window.
    ///
    /// `chunk_rows` is clamped to at least 1. Outermost values holding
    /// no iterations produce no band of their own; bands are contiguous
    /// in lexicographic output order and jointly cover `D` exactly once,
    /// like [`MemorySystemPlan::tile_plan`].
    ///
    /// # Errors
    ///
    /// * [`PlanError::EmptyIterationDomain`] if `D` has no points.
    /// * Polyhedral failures as [`PlanError::Poly`].
    pub fn tile_plan_chunked(&self, chunk_rows: u64) -> Result<TilePlan, PlanError> {
        let step = i64::try_from(chunk_rows.max(1)).unwrap_or(i64::MAX);
        let profile = self.outer_profile()?;
        let hi0 = profile.hi0();
        let mut cuts = Vec::new();
        let mut cut = profile.lo0.saturating_add(step - 1);
        while cut < hi0 {
            cuts.push(cut);
            cut = cut.saturating_add(step);
        }
        self.bands_at(&profile, &cuts)
    }

    /// Partitions the iteration domain at explicit band cuts: band `b`
    /// spans the outermost values `(cuts[b - 1], cuts[b]]`, the first
    /// band starts at the domain's first outermost value, and a final
    /// band runs from the last cut to the domain's end.
    ///
    /// Cuts below the domain, cuts at or below an earlier cut, and bands
    /// holding no iterations produce no band; cuts past the domain's end
    /// are clipped to it. This is how a chained streaming stage lags its
    /// upstream: its cuts are the upstream's [`TilePlan::cuts`] shifted
    /// down by its window's largest outermost offset, so upstream band
    /// `b` produces exactly the input rows downstream band `b` still
    /// lacks.
    ///
    /// # Errors
    ///
    /// * [`PlanError::EmptyIterationDomain`] if `D` has no points.
    /// * Polyhedral failures as [`PlanError::Poly`].
    pub fn tile_plan_from_cuts(&self, cuts: &[i64]) -> Result<TilePlan, PlanError> {
        self.bands_at(&self.outer_profile()?, cuts)
    }

    /// The Appendix 9.4 sharding rule: one band per off-chip stream.
    ///
    /// A plan reconfigured with
    /// [`MemorySystemPlan::with_offchip_streams`]`(k)` trades buffer
    /// memory for `k` stream heads; the software engine mirrors that
    /// bandwidth budget by running `k` parallel bands.
    ///
    /// # Errors
    ///
    /// Propagates [`MemorySystemPlan::tile_plan`] failures.
    pub fn tile_plan_from_streams(&self) -> Result<TilePlan, PlanError> {
        self.tile_plan(self.offchip_streams())
    }

    /// Plan-time upper bound on streaming residency under `tile_plan`:
    /// the largest band halo window, measured as resident input rows ×
    /// the widest such row. A streaming run that evicts before pulling
    /// keeps its observed `peak_resident` at or below this bound (the
    /// Sec. 2.3 reuse-window argument, band-granular); chained sessions
    /// sum the per-stage bounds to bound the whole pipeline.
    ///
    /// # Errors
    ///
    /// Propagates indexing failures as [`PlanError`].
    pub fn planned_residency_bound(&self, tile_plan: &TilePlan) -> Result<u64, PlanError> {
        let in_idx = self.input_domain().index().map_err(PlanError::from)?;
        let dims = in_idx.dims();
        let mut bound = 0u64;
        for tile in tile_plan.tiles() {
            let resident = in_idx.rows().iter().filter(|row| {
                let span = row_outer_span(row, dims);
                !tile.row_below_halo(span) && !tile.row_above_halo(span)
            });
            let (mut rows, mut widest) = (0u64, 0u64);
            for row in resident {
                rows += 1;
                widest = widest.max(row.len());
            }
            bound = bound.max(rows * widest);
        }
        Ok(bound)
    }

    /// The iteration domain's output counts per outermost value.
    fn outer_profile(&self) -> Result<OuterProfile, PlanError> {
        let iter = self.iteration_domain();
        let idx = iter.index().map_err(PlanError::from)?;
        if idx.is_empty() {
            return Err(PlanError::EmptyIterationDomain);
        }
        let bb = idx.bounding_box().expect("non-empty domain has a box");
        let (lo0, hi0) = bb[0];
        Ok(OuterProfile {
            lo0,
            counts: outer_counts(&idx, iter.dims(), lo0, hi0),
            total: idx.len(),
        })
    }

    /// The bands `(cuts[b - 1], cuts[b]]` of `profile`'s domain, as
    /// [`MemorySystemPlan::tile_plan_from_cuts`] describes. Ranks and
    /// lengths come from the per-value counts: lexicographic order sorts
    /// on the outermost dimension first, so a band's first rank is the
    /// count of every value below it.
    fn bands_at(&self, profile: &OuterProfile, cuts: &[i64]) -> Result<TilePlan, PlanError> {
        let hi0 = profile.hi0();
        let window: Vec<Point> = self.filters().iter().map(|f| f.offset).collect();
        let mut tiles = Vec::new();
        let mut band_lo = profile.lo0;
        let mut start_rank = 0u64;
        for &cut in cuts.iter().chain(std::iter::once(&hi0)) {
            let cut = cut.min(hi0);
            if cut < band_lo {
                continue;
            }
            let len = profile.count(band_lo, cut);
            if len > 0 {
                tiles.push(self.build_tile(tiles.len(), band_lo, cut, &window, start_rank, len));
                start_rank += len;
            }
            band_lo = cut + 1;
        }
        debug_assert_eq!(start_rank, profile.total, "bands must cover the domain");
        Ok(TilePlan {
            tiles,
            total_outputs: profile.total,
        })
    }

    fn build_tile(
        &self,
        id: usize,
        lo: i64,
        hi: i64,
        window: &[Point],
        start_rank: u64,
        len: u64,
    ) -> Tile {
        let dims = self.iteration_domain().dims();
        let iter_domain = self
            .iteration_domain()
            .with_constraint(Constraint::lower_bound(dims, 0, lo))
            .with_constraint(Constraint::upper_bound(dims, 0, hi));
        let halo_domain = iter_domain
            .dilated(window)
            .intersection(self.input_domain());
        let min0 = window.iter().map(|f| f[0]).min().unwrap_or(0);
        let max0 = window.iter().map(|f| f[0]).max().unwrap_or(0);
        Tile {
            id,
            band: (lo, hi),
            iter_domain,
            halo_domain,
            halo_band: (lo + min0, hi + max0),
            start_rank,
            len,
        }
    }
}

/// A non-empty iteration domain's output count per outermost value.
struct OuterProfile {
    /// The first outermost value; `counts[j]` is value `lo0 + j`'s.
    lo0: i64,
    counts: Vec<u64>,
    total: u64,
}

impl OuterProfile {
    /// The last outermost value.
    fn hi0(&self) -> i64 {
        self.lo0 + i64::try_from(self.counts.len()).expect("in box") - 1
    }

    /// Outputs with an outermost value in `[lo, hi]` (within the box).
    fn count(&self, lo: i64, hi: i64) -> u64 {
        let at = |v: i64| usize::try_from(v - self.lo0).expect("in box");
        self.counts[at(lo)..=at(hi)].iter().sum()
    }
}

/// Output count per outermost-dimension value of `idx` over `[lo0, hi0]`.
/// Rows fix all outer dimensions, so in 1D the "band axis" is the row
/// axis itself and every point counts individually.
fn outer_counts(
    idx: &stencil_polyhedral::DomainIndex,
    dims: usize,
    lo0: i64,
    hi0: i64,
) -> Vec<u64> {
    let span = usize::try_from(hi0 - lo0 + 1).expect("bounded dimension");
    let mut counts = vec![0u64; span];
    for row in idx.rows() {
        if dims == 1 {
            for i0 in row.lo..=row.hi {
                counts[usize::try_from(i0 - lo0).expect("in box")] += 1;
            }
        } else {
            let i0 = row.prefix[0];
            counts[usize::try_from(i0 - lo0).expect("in box")] += row.len();
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::StencilSpec;

    fn denoise_plan() -> MemorySystemPlan {
        let spec = StencilSpec::new(
            "denoise",
            Polyhedron::rect(&[(1, 30), (1, 22)]),
            vec![
                Point::new(&[-1, 0]),
                Point::new(&[0, -1]),
                Point::new(&[0, 0]),
                Point::new(&[0, 1]),
                Point::new(&[1, 0]),
            ],
        )
        .unwrap();
        MemorySystemPlan::generate(&spec).unwrap()
    }

    #[test]
    fn tiles_partition_ranks_exactly() {
        let plan = denoise_plan();
        for tiles in [1usize, 2, 3, 4, 7, 30, 64] {
            let tp = plan.tile_plan(tiles).unwrap();
            assert!(tp.tile_count() >= 1 && tp.tile_count() <= tiles);
            assert_eq!(tp.total_outputs(), 30 * 22);
            let mut next = 0u64;
            for t in tp.tiles() {
                assert_eq!(t.start_rank, next, "tiles={tiles}");
                assert!(t.len > 0);
                next = t.end_rank();
            }
            assert_eq!(next, tp.total_outputs());
        }
    }

    #[test]
    fn planned_residency_bound_is_one_band_halo() {
        // 30x22 iteration grid, 32x24 input grid, 5-point window.
        let plan = denoise_plan();
        // 1-row bands: 3 input rows of width 24 resident at the peak.
        let tp = plan.tile_plan_chunked(1).unwrap();
        assert_eq!(plan.planned_residency_bound(&tp).unwrap(), 3 * 24);
        // 4-row bands: 6 resident input rows.
        let tp = plan.tile_plan_chunked(4).unwrap();
        assert_eq!(plan.planned_residency_bound(&tp).unwrap(), 6 * 24);
        // One band: the whole input grid.
        let tp = plan.tile_plan(1).unwrap();
        assert_eq!(plan.planned_residency_bound(&tp).unwrap(), 32 * 24);
    }

    #[test]
    fn requesting_more_tiles_than_rows_saturates() {
        let plan = denoise_plan();
        let tp = plan.tile_plan(64).unwrap();
        // Only 30 distinct outermost values exist.
        assert_eq!(tp.tile_count(), 30);
    }

    #[test]
    fn halo_covers_every_window_read() {
        let plan = denoise_plan();
        let window: Vec<Point> = plan.filters().iter().map(|f| f.offset).collect();
        let tp = plan.tile_plan(3).unwrap();
        for t in tp.tiles() {
            let idx = t.iter_domain.index().unwrap();
            let mut c = idx.cursor();
            while let Some(p) = c.point(&idx) {
                for f in &window {
                    let h = p + *f;
                    assert!(
                        t.halo_domain.contains(&h),
                        "tile {} halo misses {h} for iteration {p}",
                        t.id
                    );
                }
                c.advance(&idx);
            }
        }
    }

    #[test]
    fn halos_overlap_by_window_radius() {
        let plan = denoise_plan();
        let tp = plan.tile_plan(2).unwrap();
        let total: u64 = tp.halo_elements().unwrap();
        let input = plan.input_domain().count().unwrap();
        // Two bands of a 5-point window overlap by 2 rows of the input.
        assert_eq!(total, input + 2 * 24);
    }

    #[test]
    fn stream_sharding_follows_tradeoff() {
        let plan = denoise_plan().with_offchip_streams(3).unwrap();
        let tp = plan.tile_plan_from_streams().unwrap();
        assert_eq!(tp.tile_count(), 3);
        let single = denoise_plan().tile_plan_from_streams().unwrap();
        assert_eq!(single.tile_count(), 1);
    }

    #[test]
    fn one_dimensional_bands() {
        let spec = StencilSpec::new(
            "blur1d",
            Polyhedron::rect(&[(1, 40)]),
            vec![Point::new(&[-1]), Point::new(&[0]), Point::new(&[1])],
        )
        .unwrap();
        let plan = MemorySystemPlan::generate(&spec).unwrap();
        let tp = plan.tile_plan(4).unwrap();
        assert_eq!(tp.tile_count(), 4);
        assert_eq!(tp.total_outputs(), 40);
        for t in tp.tiles() {
            assert_eq!(t.len, 10);
        }
    }

    #[test]
    fn huge_domain_share_does_not_overflow() {
        // 3 rows of 2^62 iterations each: ~1.4e19 total outputs, so the
        // old `total * (k + 1)` share numerator wrapped u64 at k = 1
        // (panicking in debug builds, silently misplacing every cut in
        // release). The domain has only 3 index rows, so planning it is
        // cheap even though it is astronomically large.
        let spec = StencilSpec::new(
            "huge",
            Polyhedron::rect(&[(1, 3), (1, 1 << 62)]),
            vec![
                Point::new(&[0, -1]),
                Point::new(&[0, 0]),
                Point::new(&[0, 1]),
            ],
        )
        .unwrap();
        let plan = MemorySystemPlan::generate(&spec).unwrap();
        let tp = plan.tile_plan(3).unwrap();
        assert_eq!(tp.tile_count(), 3);
        assert_eq!(tp.total_outputs(), 3 * (1u64 << 62));
        let mut next = 0u64;
        for t in tp.tiles() {
            assert_eq!(t.start_rank, next);
            assert_eq!(t.len, 1 << 62, "bands must stay balanced");
            next = t.end_rank();
        }
        assert_eq!(next, tp.total_outputs());
    }

    #[test]
    fn chunked_bands_have_fixed_height_and_cover_domain() {
        let plan = denoise_plan();
        for chunk in [1u64, 2, 4, 7, 30, 100] {
            let tp = plan.tile_plan_chunked(chunk).unwrap();
            assert_eq!(tp.total_outputs(), 30 * 22);
            let mut next = 0u64;
            for t in tp.tiles() {
                let (lo, hi) = t.band;
                assert!((hi - lo + 1) as u64 <= chunk, "chunk={chunk}");
                assert_eq!(t.start_rank, next, "chunk={chunk}");
                assert!(t.len > 0);
                next = t.end_rank();
            }
            assert_eq!(next, tp.total_outputs());
        }
        // Zero clamps to one row per band.
        let tp = plan.tile_plan_chunked(0).unwrap();
        assert_eq!(tp.tile_count(), 30);
    }

    #[test]
    fn cuts_rebuild_chunked_and_balanced_plans() {
        let plan = denoise_plan();
        for tp in [1u64, 3, 7, 100]
            .map(|c| plan.tile_plan_chunked(c).unwrap())
            .into_iter()
            .chain([1usize, 3, 7].map(|t| plan.tile_plan(t).unwrap()))
        {
            assert_eq!(plan.tile_plan_from_cuts(&tp.cuts()).unwrap(), tp);
        }
        // Rows 1..=30: cuts below the domain, repeated cuts and cuts
        // past its end add no band; the last band always ends at 30.
        let tp = plan.tile_plan_from_cuts(&[-4, 0, 9, 9, 5, 40]).unwrap();
        let bands: Vec<_> = tp.tiles().iter().map(|t| t.band).collect();
        assert_eq!(bands, vec![(1, 9), (10, 30)]);
        assert_eq!(tp.tiles()[1].start_rank, 9 * 22);
        assert_eq!(tp.total_outputs(), 30 * 22);
    }

    #[test]
    fn lagged_cuts_hand_each_downstream_band_its_missing_rows() {
        // A chained DENOISE stage erodes rows 1..=30 to 2..=29 and lags
        // by its window's largest outermost offset, 1.
        let up = denoise_plan();
        let window: Vec<Point> = up.filters().iter().map(|f| f.offset).collect();
        let down = up.chain_next("denoise@t2", &window).unwrap();
        for chunk in [1u64, 2, 5, 64] {
            let ups = up.tile_plan_chunked(chunk).unwrap();
            let cuts: Vec<i64> = ups.cuts().iter().map(|c| c - 1).collect();
            let downs = down.tile_plan_from_cuts(&cuts).unwrap();
            assert_eq!(downs.total_outputs(), 28 * 20);
            assert_eq!(downs.tiles().last().unwrap().band.1, 29, "chunk={chunk}");
            // Each downstream band's halo tops out at a row some
            // upstream band ends on: the wavefront never waits.
            for t in downs.tiles() {
                assert!(ups.cuts().contains(&t.halo_band.1), "chunk={chunk}");
            }
            // Against the stage's own chunking, the lag moves at most
            // one cut across the domain's ends.
            let own = down.tile_plan_chunked(chunk).unwrap().tile_count();
            assert!(downs.tile_count().abs_diff(own) <= 1, "chunk={chunk}");
        }
    }

    #[test]
    fn halo_band_is_window_dilation_of_band() {
        let plan = denoise_plan();
        // DENOISE window spans -1..=1 along dim 0.
        for tp in [
            plan.tile_plan(3).unwrap(),
            plan.tile_plan_chunked(5).unwrap(),
        ] {
            for t in tp.tiles() {
                assert_eq!(t.halo_band, (t.band.0 - 1, t.band.1 + 1));
                // The clipped halo domain never extends past the
                // unclipped halo band.
                let idx = t.halo_domain.index().unwrap();
                let bb = idx.bounding_box().unwrap();
                assert!(bb[0].0 >= t.halo_band.0);
                assert!(bb[0].1 <= t.halo_band.1);
            }
        }
    }

    #[test]
    fn empty_domain_rejected() {
        // tile_plan(0) is a caller bug; empty D cannot happen via a
        // validated spec, so exercise the panic path only.
        let plan = denoise_plan();
        let r = std::panic::catch_unwind(|| plan.tile_plan(0));
        assert!(r.is_err());
    }
}
