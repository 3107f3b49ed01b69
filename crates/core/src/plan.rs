//! The generated memory-system microarchitecture (Fig. 7 of the paper).
//!
//! A [`MemorySystemPlan`] is the structural netlist of one per-array
//! memory system: `n` data filters (one per array reference, in
//! descending lexicographic offset order), `n` data path splitters, and
//! `n - 1` non-uniformly sized reuse FIFOs chaining them together. The
//! plan is consumed by the cycle-accurate simulator and by the FPGA
//! resource estimator.

use std::fmt;

use serde::{Deserialize, Serialize};
use stencil_polyhedral::{Point, Polyhedron};

use crate::analysis::ReuseAnalysis;
use crate::mapping::{MappingPolicy, StorageKind};
use crate::sort::SortedRefs;

/// One data filter: the per-reference stream customizer (Fig. 10).
///
/// The filter holds two counters — an input counter over `D_A` and an
/// output counter over this reference's data domain — and forwards the
/// input element to its kernel port exactly when the counters agree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FilterPlan {
    /// Filter position in the chain (0 = earliest reference).
    pub id: usize,
    /// The data access offset `f` served by this filter.
    pub offset: Point,
    /// Index of this reference in the user's source order.
    pub user_index: usize,
    /// The data domain `D_Ax` this filter selects out of `D_A`.
    pub data_domain: Polyhedron,
}

/// What feeds a splitter: the upstream side of each chain position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Feed {
    /// Fed directly by an off-chip data stream (always position 0; more
    /// positions under a bandwidth/memory tradeoff, Fig. 14).
    Offchip,
    /// Fed by the reuse FIFO from the previous splitter.
    Fifo {
        /// FIFO capacity in data elements — the maximum reuse distance
        /// between the adjacent references (Eq. (2)).
        capacity: u64,
        /// Physical storage primitive (heterogeneous mapping, §3.5.1).
        storage: StorageKind,
    },
}

impl Feed {
    /// The FIFO capacity, or `None` for an off-chip feed.
    #[must_use]
    pub fn capacity(&self) -> Option<u64> {
        match self {
            Feed::Offchip => None,
            Feed::Fifo { capacity, .. } => Some(*capacity),
        }
    }

    /// True for an off-chip feed.
    #[must_use]
    pub fn is_offchip(&self) -> bool {
        matches!(self, Feed::Offchip)
    }
}

/// The structural plan of a memory system for one data array.
///
/// # Examples
///
/// ```
/// use stencil_core::{MemorySystemPlan, StencilSpec};
/// use stencil_polyhedral::{Point, Polyhedron};
///
/// let spec = StencilSpec::new(
///     "denoise",
///     Polyhedron::rect(&[(1, 766), (1, 1022)]),
///     vec![
///         Point::new(&[-1, 0]),
///         Point::new(&[0, -1]),
///         Point::new(&[0, 0]),
///         Point::new(&[0, 1]),
///         Point::new(&[1, 0]),
///     ],
/// )?;
/// let plan = MemorySystemPlan::generate(&spec)?;
/// assert_eq!(plan.bank_count(), 4);                 // n - 1 banks
/// assert_eq!(plan.total_buffer_size(), 2048);       // theoretical minimum
/// assert_eq!(plan.fifo_capacities(), vec![1023, 1, 1, 1023]);
/// # Ok::<(), stencil_core::PlanError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemorySystemPlan {
    name: String,
    array: String,
    element_bits: u32,
    input_domain: Polyhedron,
    iteration_domain: Polyhedron,
    filters: Vec<FilterPlan>,
    feeds: Vec<Feed>,
    min_total_size: u64,
    linearity_holds: bool,
}

impl MemorySystemPlan {
    /// Generates the microarchitecture for a specification with the
    /// default storage-mapping policy.
    ///
    /// A box iteration domain is planned in closed form (§3.2,
    /// Property 3): every point of a box data domain has the same reuse
    /// distance — the reuse vector linearised over the input box's
    /// row-major strides — so each FIFO capacity is that one value and
    /// no domain is walked. Every other polyhedron goes through
    /// [`ReuseAnalysis::of`]'s row walk.
    ///
    /// # Errors
    ///
    /// * [`PlanError::DomainTooLarge`](crate::PlanError::DomainTooLarge)
    ///   if a box input domain's point count or strides overflow `u64`.
    /// * Otherwise propagates analysis failures ([`crate::PlanError`]).
    pub fn generate(spec: &crate::spec::StencilSpec) -> Result<Self, crate::PlanError> {
        let policy = MappingPolicy::default();
        if let Some(plan) = Self::generate_box(spec, &policy)? {
            return Ok(plan);
        }
        let analysis = ReuseAnalysis::of(spec)?;
        Ok(Self::from_analysis(&analysis, &policy))
    }

    /// The closed-form plan of a box iteration domain, or `None` when
    /// the domain is not a box. Equal to
    /// [`from_analysis`](Self::from_analysis) of the row walk: on a box,
    /// `h` and `h + r` both lie in the input box for every `h` of the
    /// later reference's data domain, so `rank(h + r) − rank(h)` is
    /// `Σ r_d · stride_d` everywhere, and the adjacent distances
    /// telescope to the end-to-end one (linearity holds exactly).
    fn generate_box(
        spec: &crate::spec::StencilSpec,
        policy: &MappingPolicy,
    ) -> Result<Option<Self>, crate::PlanError> {
        let Some(iteration) = spec.iteration_domain().as_box() else {
            return Ok(None);
        };
        if iteration.iter().any(|&(lo, hi)| lo > hi) {
            return Err(crate::PlanError::EmptyIterationDomain);
        }
        // The dilation of a box relaxes each bound: a box again.
        let input_domain = spec.input_domain();
        let Some(input) = input_domain.as_box() else {
            return Ok(None);
        };
        let too_large = || crate::PlanError::DomainTooLarge {
            bounds: input.clone(),
        };
        let strides = box_strides(&input).ok_or_else(too_large)?;
        let sorted = SortedRefs::from_offsets(spec.offsets());
        let distance = |from: usize, to: usize| {
            linearised(&sorted.offset(from), &sorted.offset(to), &strides).ok_or_else(too_large)
        };
        let n = sorted.len();
        let adjacent = (1..n)
            .map(|k| distance(k - 1, k))
            .collect::<Result<Vec<u64>, _>>()?;
        let min_total_size = if n >= 2 { distance(0, n - 1)? } else { 0 };
        let (filters, feeds) = chain_of(&sorted, &adjacent, policy, |k| {
            spec.iteration_domain().translated(&sorted.offset(k))
        });
        Ok(Some(Self {
            name: spec.name().to_owned(),
            array: spec.array().to_owned(),
            element_bits: spec.element_bits(),
            input_domain,
            iteration_domain: spec.iteration_domain().clone(),
            filters,
            feeds,
            min_total_size,
            linearity_holds: true,
        }))
    }

    /// Builds the plan from a finished analysis with an explicit mapping
    /// policy.
    #[must_use]
    pub fn from_analysis(analysis: &ReuseAnalysis, policy: &MappingPolicy) -> Self {
        let (filters, feeds) = chain_of(
            analysis.sorted_refs(),
            analysis.adjacent_distances(),
            policy,
            |k| analysis.filter_domain(k).clone(),
        );
        Self {
            name: analysis.spec().name().to_owned(),
            array: analysis.spec().array().to_owned(),
            element_bits: analysis.spec().element_bits(),
            input_domain: analysis.input_domain().clone(),
            iteration_domain: analysis.spec().iteration_domain().clone(),
            filters,
            feeds,
            min_total_size: analysis.total_distance(),
            linearity_holds: analysis.linearity_holds(),
        }
    }

    /// The kernel name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The served array's name.
    #[must_use]
    pub fn array(&self) -> &str {
        &self.array
    }

    /// Data element width in bits.
    #[must_use]
    pub fn element_bits(&self) -> u32 {
        self.element_bits
    }

    /// The input data domain `D_A` streamed from off-chip.
    #[must_use]
    pub fn input_domain(&self) -> &Polyhedron {
        &self.input_domain
    }

    /// The kernel's iteration domain `D`.
    #[must_use]
    pub fn iteration_domain(&self) -> &Polyhedron {
        &self.iteration_domain
    }

    /// The data filters in chain order.
    #[must_use]
    pub fn filters(&self) -> &[FilterPlan] {
        &self.filters
    }

    /// The feed (off-chip stream or reuse FIFO) into each chain position.
    #[must_use]
    pub fn feeds(&self) -> &[Feed] {
        &self.feeds
    }

    /// The stencil window's span per dimension (`max − min + 1` over
    /// the filter offsets): the halo reach this stage erodes its input
    /// domain by, and the window extent per-stage telemetry reports.
    /// In a heterogeneous chain each stage's reuse buffer is sized from
    /// *its own* spans (the paper's Sec. 2.3 bound applied stage-wise),
    /// so these differ stage to stage.
    #[must_use]
    pub fn window_extents(&self) -> Vec<i64> {
        (0..self.iteration_domain.dims())
            .map(|d| {
                let lo = self
                    .filters
                    .iter()
                    .map(|f| f.offset[d])
                    .min()
                    .expect("window is non-empty");
                let hi = self
                    .filters
                    .iter()
                    .map(|f| f.offset[d])
                    .max()
                    .expect("window is non-empty");
                hi - lo + 1
            })
            .collect()
    }

    /// Number of array references / kernel data ports (`n`).
    #[must_use]
    pub fn port_count(&self) -> usize {
        self.filters.len()
    }

    /// Number of reuse-buffer banks (live FIFOs). `n - 1` without a
    /// bandwidth tradeoff — the theoretical minimum (§2.3).
    #[must_use]
    pub fn bank_count(&self) -> usize {
        self.feeds.iter().filter(|f| !f.is_offchip()).count()
    }

    /// Number of off-chip streams consumed per cycle (1 without a
    /// bandwidth tradeoff).
    #[must_use]
    pub fn offchip_streams(&self) -> usize {
        self.feeds.iter().filter(|f| f.is_offchip()).count()
    }

    /// Total reuse-buffer size in data elements.
    #[must_use]
    pub fn total_buffer_size(&self) -> u64 {
        self.feeds.iter().filter_map(Feed::capacity).sum()
    }

    /// The FIFO capacities in chain order (skipping off-chip feeds).
    #[must_use]
    pub fn fifo_capacities(&self) -> Vec<u64> {
        self.feeds.iter().filter_map(Feed::capacity).collect()
    }

    /// The theoretical minimum total buffer size: the maximum reuse
    /// distance between the earliest and latest reference (§2.3).
    #[must_use]
    pub fn min_total_size(&self) -> u64 {
        self.min_total_size
    }

    /// Whether the linearity property (Property 3) held exactly, making
    /// [`Self::total_buffer_size`] equal [`Self::min_total_size`] in the
    /// single-stream configuration.
    #[must_use]
    pub fn linearity_holds(&self) -> bool {
        self.linearity_holds
    }

    /// The initiation interval this microarchitecture sustains: 1 (full
    /// pipelining, design target 1 of §2.3).
    #[must_use]
    pub fn target_ii(&self) -> usize {
        1
    }

    /// Plans the follow-on stage of a temporal chain: a stencil with
    /// window `offsets` whose input array is *this* plan's output grid.
    ///
    /// The chained stage can only fire where every tap lands on an
    /// upstream output, so its iteration domain is this plan's
    /// iteration domain eroded by the new window
    /// ([`Polyhedron::eroded`]). For the convex domains the analysis
    /// accepts, the generated stage's input domain (the dilation of the
    /// erosion) recovers exactly the upstream iteration domain — the
    /// invariant [`MemorySystemPlan::chains_from`] verifies and the
    /// band-by-band streaming handoff relies on. Element width is
    /// inherited.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`](crate::PlanError) when the eroded domain is empty (the
    /// window consumes the whole upstream output) or analysis fails.
    pub fn chain_next(
        &self,
        name: impl Into<String>,
        offsets: &[Point],
    ) -> Result<Self, crate::PlanError> {
        let spec = crate::spec::StencilSpec::with_element_bits(
            name,
            self.iteration_domain().eroded(offsets),
            offsets.to_vec(),
            self.element_bits(),
        )?
        .with_array_name(self.array());
        Self::generate(&spec)
    }

    /// True if this plan's input domain covers exactly `upstream`'s
    /// iteration domain, row for row — i.e. `upstream`'s output stream
    /// can feed this plan's input stream directly, with no gaps and no
    /// unused rows. This is the structural precondition for temporal
    /// chaining: stage *i*'s produced rows are pulled verbatim as stage
    /// *i+1*'s input rows.
    ///
    /// Two (non-empty) boxes line up row for row exactly when their
    /// bounds agree, so they are compared without building an index;
    /// any other pair compares the rows of both indices.
    ///
    /// # Errors
    ///
    /// Propagates indexing failures as [`PlanError`](crate::PlanError).
    pub fn chains_from(&self, upstream: &Self) -> Result<bool, crate::PlanError> {
        if let (Some(need), Some(have)) = (
            self.input_domain().as_box(),
            upstream.iteration_domain().as_box(),
        ) {
            return Ok(need == have);
        }
        let need = self
            .input_domain()
            .index()
            .map_err(crate::PlanError::from)?;
        let have = upstream
            .iteration_domain()
            .index()
            .map_err(crate::PlanError::from)?;
        if need.dims() != have.dims() || need.len() != have.len() {
            return Ok(false);
        }
        Ok(need
            .rows()
            .iter()
            .zip(have.rows())
            .all(|(n, h)| n.prefix == h.prefix && n.lo == h.lo && n.hi == h.hi))
    }

    pub(crate) fn feeds_mut(&mut self) -> &mut Vec<Feed> {
        &mut self.feeds
    }
}

/// The filters and feeds of a chain: filter `k` serves
/// `sorted.offset(k)` over `filter_domain(k)`; position 0 is fed
/// off-chip and position `k > 0` by a FIFO of `distances[k - 1]`.
fn chain_of(
    sorted: &SortedRefs,
    distances: &[u64],
    policy: &MappingPolicy,
    filter_domain: impl Fn(usize) -> Polyhedron,
) -> (Vec<FilterPlan>, Vec<Feed>) {
    let filters = (0..sorted.len())
        .map(|k| FilterPlan {
            id: k,
            offset: sorted.offset(k),
            user_index: sorted.user_index(k),
            data_domain: filter_domain(k),
        })
        .collect();
    let feeds = std::iter::once(Feed::Offchip)
        .chain(distances.iter().map(|&capacity| Feed::Fifo {
            capacity,
            storage: policy.assign(capacity),
        }))
        .collect();
    (filters, feeds)
}

/// The row-major strides of a non-empty box (innermost stride 1), or
/// `None` if its point count overflows `u64`.
fn box_strides(bounds: &[(i64, i64)]) -> Option<Vec<u64>> {
    let mut strides = vec![0; bounds.len()];
    let mut stride = 1u64;
    for (d, &(lo, hi)) in bounds.iter().enumerate().rev() {
        strides[d] = stride;
        let extent = u64::try_from(i128::from(hi) - i128::from(lo) + 1).ok()?;
        stride = stride.checked_mul(extent)?;
    }
    Some(strides)
}

/// The reuse distance from the reference at `f_x` to the one at `f_y`
/// on a box: `Σ (f_x − f_y)_d · stride_d`, or `None` on overflow.
fn linearised(f_x: &Point, f_y: &Point, strides: &[u64]) -> Option<u64> {
    let sum = f_x
        .as_slice()
        .iter()
        .zip(f_y.as_slice())
        .zip(strides)
        .try_fold(0i128, |acc, ((&x, &y), &s)| {
            (i128::from(x) - i128::from(y))
                .checked_mul(i128::from(s))
                .and_then(|t| acc.checked_add(t))
        })?;
    u64::try_from(sum).ok()
}

impl fmt::Display for MemorySystemPlan {
    /// Renders the plan in the style of the paper's Table 2.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "memory system `{}` for array {} ({} refs, {} banks, total size {}):",
            self.name,
            self.array,
            self.port_count(),
            self.bank_count(),
            self.total_buffer_size()
        )?;
        for (k, feed) in self.feeds.iter().enumerate() {
            match feed {
                Feed::Offchip => {
                    writeln!(
                        f,
                        "  stream  -> filter_{k} {}[i + {}]",
                        self.array, self.filters[k].offset
                    )?;
                }
                Feed::Fifo { capacity, storage } => {
                    writeln!(
                        f,
                        "  FIFO_{:<2} {}[i + {}] -> {}[i + {}]  size {:>8}  impl {}",
                        k - 1,
                        self.array,
                        self.filters[k - 1].offset,
                        self.array,
                        self.filters[k].offset,
                        capacity,
                        storage
                    )?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::StencilSpec;

    fn denoise_plan() -> MemorySystemPlan {
        let spec = StencilSpec::new(
            "denoise",
            Polyhedron::rect(&[(1, 766), (1, 1022)]),
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
    fn matches_paper_table2() {
        let p = denoise_plan();
        assert_eq!(p.fifo_capacities(), vec![1023, 1, 1, 1023]);
        assert_eq!(p.bank_count(), 4);
        assert_eq!(p.offchip_streams(), 1);
        assert_eq!(p.total_buffer_size(), 2048);
        assert_eq!(p.min_total_size(), 2048);
        assert!(p.linearity_holds());
        assert_eq!(p.target_ii(), 1);
        // The 5-point cross spans 3 rows and 3 columns.
        assert_eq!(p.window_extents(), vec![3, 3]);
        let storages: Vec<StorageKind> = p
            .feeds()
            .iter()
            .filter_map(|f| match f {
                Feed::Fifo { storage, .. } => Some(*storage),
                Feed::Offchip => None,
            })
            .collect();
        assert_eq!(
            storages,
            vec![
                StorageKind::BlockRam,
                StorageKind::Register,
                StorageKind::Register,
                StorageKind::BlockRam,
            ]
        );
    }

    #[test]
    fn chain_next_erodes_and_chains_exactly() {
        let p = denoise_plan();
        let window: Vec<Point> = p.filters().iter().map(|f| f.offset).collect();
        let next = p.chain_next("denoise2", &window).unwrap();
        // Stage 2 fires one ring further in: [2, 765] x [2, 1021].
        assert!(next.iteration_domain().contains(&Point::new(&[2, 2])));
        assert!(!next.iteration_domain().contains(&Point::new(&[1, 500])));
        assert!(!next.iteration_domain().contains(&Point::new(&[766, 500])));
        // Its input domain recovers stage 1's iteration domain exactly,
        // so stage 1's output rows feed stage 2 verbatim.
        assert!(next.chains_from(&p).unwrap());
        assert!(!p.chains_from(&next).unwrap());
        assert_eq!(next.element_bits(), p.element_bits());
        assert_eq!(next.array(), p.array());
        // Depth 3 keeps composing.
        let third = next.chain_next("denoise3", &window).unwrap();
        assert!(third.chains_from(&next).unwrap());
        assert!(!third.chains_from(&p).unwrap());
    }

    #[test]
    fn chain_next_rejects_windows_that_consume_the_grid() {
        let spec = StencilSpec::new(
            "tiny",
            Polyhedron::rect(&[(0, 1), (0, 5)]),
            vec![
                Point::new(&[-1, 0]),
                Point::new(&[0, 0]),
                Point::new(&[1, 0]),
            ],
        )
        .unwrap();
        let p = MemorySystemPlan::generate(&spec).unwrap();
        let window: Vec<Point> = p.filters().iter().map(|f| f.offset).collect();
        // Eroding a 2-row domain by a 3-row window leaves nothing.
        assert!(p.chain_next("gone", &window).is_err());
    }

    #[test]
    fn filter_order_and_user_indices() {
        let p = denoise_plan();
        assert_eq!(p.filters()[0].offset, Point::new(&[1, 0]));
        assert_eq!(p.filters()[0].user_index, 4);
        assert_eq!(p.filters()[4].offset, Point::new(&[-1, 0]));
        assert_eq!(p.filters()[4].user_index, 0);
        for (k, flt) in p.filters().iter().enumerate() {
            assert_eq!(flt.id, k);
        }
    }

    #[test]
    fn display_renders_table() {
        let s = denoise_plan().to_string();
        assert!(s.contains("FIFO_0"), "{s}");
        assert!(s.contains("1023"), "{s}");
        assert!(s.contains("BRAM"), "{s}");
        assert!(s.contains("register"), "{s}");
    }

    #[test]
    fn single_reference_plan() {
        let spec =
            StencilSpec::new("copy", Polyhedron::rect(&[(0, 7)]), vec![Point::new(&[0])]).unwrap();
        let p = MemorySystemPlan::generate(&spec).unwrap();
        assert_eq!(p.bank_count(), 0);
        assert_eq!(p.total_buffer_size(), 0);
        assert_eq!(p.offchip_streams(), 1);
    }

    #[test]
    fn clone_preserves_structure() {
        let p = denoise_plan();
        let q = p.clone();
        assert_eq!(p, q);
    }
}
