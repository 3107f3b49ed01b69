//! The compiled row sweep: one register program body produces `U`
//! adjacent output rows per dispatch, and every compiled row of the
//! engine runs through it — at the default `U = 1` the single-output
//! program alone — except where the kernel carries a native row body:
//! at `U = 1` on the f64 datapath the single-row sweep runs that body
//! ([`stencil_kernels::NativeRow`], the kernel's formula compiled as
//! one loop) instead of interpreting the program.
//!
//! Each register operation runs over [`LANES`]-wide chunks of a whole
//! output row, each tap bound to a column-shifted contiguous slice of
//! the resident input rows: one dispatch covers [`LANES`] elements, and
//! the per-lane loops run over fixed-width arrays the autovectorizer
//! turns into SIMD — on the baseline x86-64 target, SSE2 `xmm` pairs of
//! two f64 (four f32) lanes. The last chunk of a row ends at the row's end,
//! overlapping its predecessor, so no column runs outside the lane
//! body; the register files live in a [`SweepScratch`] the row
//! executor reuses across rows.
//!
//! A single-output sweep reloads every tap for every output row even
//! though vertically adjacent rows share most of their stencil windows
//! — DENOISE's north tap of row `r+1` is the center tap of row `r`.
//! Above `U = 1` this module removes that redundancy the way the
//! paper's non-uniform reuse buffers do in hardware, by *binding*
//! coinciding taps once per group:
//!
//! * **shared-tap slots** — for output positions `u in 0..U` (adjacent
//!   in the next-to-innermost dimension, the one iteration rows step
//!   through), tap `k` of output `u` reads offset `offsets[k] + u·e`.
//!   Taps whose shifted offsets coincide are deduplicated into one
//!   *utap* loaded exactly once per lane chunk;
//! * **cross-output CSE** — each output's folded expression is remapped
//!   onto utap ids and interned into one shared hash-consing arena, so
//!   subexpressions common to several outputs (SOBEL's column sums)
//!   evaluate once per group;
//! * **register form** — the group body is emitted as a register
//!   machine ([`RegOp`]) instead of stack bytecode: every DAG node gets
//!   an SSA register, so a shared value is reused by naming its
//!   register — no `Store`/`Load` traffic and no slot limit. Mul-add
//!   fusion keeps the stack machine's rule (singly-used products only)
//!   and its two-rounding semantics, so f64 results stay bit-identical
//!   to the closure.
//!
//! The interpreter is generic over the lane type: [`Datapath::F64`]
//! keeps the bit-exact reference semantics, [`Datapath::F32`] narrows
//! constants and taps to single precision (grids stay `f64` in memory)
//! and doubles the arithmetic lanes per vector op.
//!
//! Construction replays the register program against the scalar
//! bytecode on synthetic windows (the same discipline as
//! [`CompiledKernel::compile_checked`]) and rejects any divergence, so
//! a mis-emitted program fails loudly before producing output.

use std::collections::HashMap;

use stencil_kernels::{KernelExpr, NativeRow};
use stencil_polyhedral::Point;

use crate::compile::{Arena, CompiledKernel, Datapath, Node};
use crate::error::EngineError;

/// Lanes per register-op dispatch: the dispatch overhead of one op
/// amortizes over 32 elements (sixteen SSE2 `xmm` vectors of two f64
/// per inner loop on the baseline x86-64 target) while the lane
/// registers stay cache-hot. Picked on
/// DENOISE 768×1024 with the stack-bytecode sweep this interpreter
/// replaced: 32 beat 8 by ~40%, and 64/128 regressed as the lane
/// working set outgrew L1.
const LANES: usize = 32;

/// The default unroll factor of the compiled sweep, picked empirically
/// from {2, 4, 8} the way the lane width `LANES` was: on DENOISE
/// 768×1024 in-core, U=4 cuts tap loads from 5 to 3.5 per output and op dispatches by
/// ~25%, beating U=2 (less sharing) and U=8 (marginal extra sharing,
/// larger register file working set) — see EXPERIMENTS.md.
pub const DEFAULT_UNROLL: usize = 4;

/// Upper bound on the accepted unroll factor — beyond this the
/// register file outgrows cache long before sharing pays.
const MAX_UNROLL: usize = 16;

/// Rejects unroll factors outside `1..=MAX_UNROLL`. Shared by
/// [`UnrolledProgram::build`] and the session builder so the closure
/// backend (which never constructs a program) still surfaces a bad
/// knob instead of silently running single-row.
pub(crate) fn check_unroll(unroll: usize) -> Result<(), EngineError> {
    if unroll == 0 || unroll > MAX_UNROLL {
        return Err(EngineError::Config {
            detail: format!("unroll must be in 1..={MAX_UNROLL}, got {unroll}"),
        });
    }
    Ok(())
}

/// Arithmetic lane abstraction: the register interpreter and the scalar
/// bytecode loop are each written once and monomorphized per
/// [`Datapath`]. Grids stay `f64`, so lanes narrow on load and widen on
/// store.
pub(crate) trait Lane:
    Copy
    + PartialEq
    + Send
    + Sync
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
{
    const ZERO: Self;
    fn from_f64(x: f64) -> Self;
    fn to_f64(self) -> f64;
    fn lane_sqrt(self) -> Self;
    fn lane_abs(self) -> Self;
}

impl Lane for f64 {
    const ZERO: Self = 0.0;
    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn lane_sqrt(self) -> Self {
        self.sqrt()
    }
    #[inline(always)]
    fn lane_abs(self) -> Self {
        self.abs()
    }
}

impl Lane for f32 {
    const ZERO: Self = 0.0;
    // The narrowing cast is the entire point of this datapath.
    #[allow(clippy::cast_possible_truncation)]
    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
    #[inline(always)]
    fn lane_sqrt(self) -> Self {
        self.sqrt()
    }
    #[inline(always)]
    fn lane_abs(self) -> Self {
        self.abs()
    }
}

/// One register operation. Registers are SSA: `dst` is always a fresh
/// register greater than every operand, so the interpreter can split
/// the register file at `dst` without aliasing.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RegOp {
    Add {
        dst: u16,
        a: u16,
        b: u16,
    },
    Sub {
        dst: u16,
        a: u16,
        b: u16,
    },
    Mul {
        dst: u16,
        a: u16,
        b: u16,
    },
    Div {
        dst: u16,
        a: u16,
        b: u16,
    },
    Sqrt {
        dst: u16,
        a: u16,
    },
    Abs {
        dst: u16,
        a: u16,
    },
    /// `dst = c + a * b`, rounding the product and the sum separately
    /// (dispatch fusion, never a contracted FMA).
    MulAdd {
        dst: u16,
        a: u16,
        b: u16,
        c: u16,
    },
}

/// A register program producing `roots.len()` outputs per column from
/// `utaps.len()` deduplicated tap loads. Register layout:
/// `[0, utaps.len())` tap loads, then constants, then op results.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RegProgram {
    /// Representative `(output position, tap index)` per distinct
    /// shared tap — the executor derives each utap's input base rank
    /// from this pair.
    utaps: Vec<(u16, u16)>,
    /// Distinct literal values, preloaded once per sweep call.
    consts: Vec<f64>,
    ops: Vec<RegOp>,
    /// Result register of each output position.
    roots: Vec<u16>,
    /// Total registers (taps + consts + op results).
    regs: usize,
}

/// Remaps every tap index of `e` through `map` (tap `k` of one output
/// position becomes the group-wide utap id `map[k]`).
fn remap_taps(e: &KernelExpr, map: &[usize]) -> KernelExpr {
    match e {
        KernelExpr::Tap(k) => KernelExpr::tap(map[*k]),
        KernelExpr::Const(c) => KernelExpr::constant(*c),
        KernelExpr::Add(a, b) => remap_taps(a, map) + remap_taps(b, map),
        KernelExpr::Sub(a, b) => remap_taps(a, map) - remap_taps(b, map),
        KernelExpr::Mul(a, b) => remap_taps(a, map) * remap_taps(b, map),
        KernelExpr::Div(a, b) => remap_taps(a, map) / remap_taps(b, map),
        KernelExpr::Sqrt(a) => remap_taps(a, map).sqrt(),
        KernelExpr::Abs(a) => remap_taps(a, map).abs(),
        KernelExpr::MulAdd(a, b, c) => {
            remap_taps(a, map).mul_add(remap_taps(b, map), remap_taps(c, map))
        }
    }
}

/// Register emission over the shared DAG: nodes are memoized, so a
/// subtree shared across output positions is computed once and its
/// register reused.
struct RegEmitter<'a> {
    arena: &'a Arena,
    counts: &'a [usize],
    const_reg: &'a HashMap<u64, u16>,
    reg_of: Vec<Option<u16>>,
    next: usize,
    ops: Vec<RegOp>,
}

impl RegEmitter<'_> {
    /// Same fusion rule as the stack emitter: only a product consumed
    /// exactly once may fuse into its parent addition — a shared
    /// product must materialize so every consumer reads one value.
    fn fusible_mul(&self, id: usize) -> Option<(usize, usize)> {
        match self.arena.nodes[id] {
            Node::Mul(a, b) if self.counts[id] == 1 => Some((a, b)),
            _ => None,
        }
    }

    fn fresh(&mut self) -> u16 {
        let r = u16::try_from(self.next).expect("register budget validated before emission");
        self.next += 1;
        r
    }

    fn emit(&mut self, id: usize) -> u16 {
        if let Some(r) = self.reg_of[id] {
            return r;
        }
        let r = match self.arena.nodes[id] {
            Node::Tap(u) => u16::try_from(u).expect("utap ids fit the register budget"),
            Node::Const(bits) => self.const_reg[&bits],
            Node::Add(a, b) => {
                // Addition commutes bit-exactly in IEEE-754, so either
                // operand's product may take the fused slot.
                if let Some((x, y)) = self.fusible_mul(b) {
                    self.emit_mul_add(a, x, y)
                } else if let Some((x, y)) = self.fusible_mul(a) {
                    self.emit_mul_add(b, x, y)
                } else {
                    let (ra, rb) = (self.emit(a), self.emit(b));
                    let dst = self.fresh();
                    self.ops.push(RegOp::Add { dst, a: ra, b: rb });
                    dst
                }
            }
            Node::Sub(a, b) => {
                let (ra, rb) = (self.emit(a), self.emit(b));
                let dst = self.fresh();
                self.ops.push(RegOp::Sub { dst, a: ra, b: rb });
                dst
            }
            Node::Mul(a, b) => {
                let (ra, rb) = (self.emit(a), self.emit(b));
                let dst = self.fresh();
                self.ops.push(RegOp::Mul { dst, a: ra, b: rb });
                dst
            }
            Node::Div(a, b) => {
                let (ra, rb) = (self.emit(a), self.emit(b));
                let dst = self.fresh();
                self.ops.push(RegOp::Div { dst, a: ra, b: rb });
                dst
            }
            Node::Sqrt(a) => {
                let ra = self.emit(a);
                let dst = self.fresh();
                self.ops.push(RegOp::Sqrt { dst, a: ra });
                dst
            }
            Node::Abs(a) => {
                let ra = self.emit(a);
                let dst = self.fresh();
                self.ops.push(RegOp::Abs { dst, a: ra });
                dst
            }
            Node::MulAdd(a, b, c) => {
                let rc = self.emit(c);
                self.emit_mul_add_regs(a, b, rc)
            }
        };
        self.reg_of[id] = Some(r);
        r
    }

    fn emit_mul_add(&mut self, acc: usize, x: usize, y: usize) -> u16 {
        let rc = self.emit(acc);
        self.emit_mul_add_regs(x, y, rc)
    }

    fn emit_mul_add_regs(&mut self, x: usize, y: usize, rc: u16) -> u16 {
        let (rx, ry) = (self.emit(x), self.emit(y));
        let dst = self.fresh();
        self.ops.push(RegOp::MulAdd {
            dst,
            a: rx,
            b: ry,
            c: rc,
        });
        dst
    }
}

impl RegProgram {
    /// Lowers `ck`'s folded expression to a `unroll`-output register
    /// program over `offsets`. Returns the program plus the utap table
    /// (`table[u][k]` = utap id read by tap `k` of output `u`), which
    /// validation and tests use to reconstruct per-output windows.
    ///
    /// The caller guarantees `unroll == 1` for windows with fewer than
    /// two dimensions (there is no adjacent-row axis to unroll along).
    pub(crate) fn build(
        ck: &CompiledKernel,
        offsets: &[Point],
        unroll: usize,
    ) -> Result<(Self, Vec<Vec<usize>>), EngineError> {
        let dims = offsets.first().map_or(0, Point::dims);
        debug_assert!(unroll == 1 || dims >= 2);
        // The unroll axis: iteration rows span the innermost dimension,
        // so adjacent rows step the next-to-innermost coordinate.
        let axis = dims.checked_sub(2);

        // Deduplicate taps across output positions by shifted offset.
        let mut key_ids: HashMap<Point, usize> = HashMap::new();
        let mut utaps: Vec<(u16, u16)> = Vec::new();
        let mut table = vec![vec![0usize; offsets.len()]; unroll];
        for (u, row) in table.iter_mut().enumerate() {
            for (k, f) in offsets.iter().enumerate() {
                let mut coords: Vec<i64> = (0..dims).map(|d| f[d]).collect();
                if let (Some(axis), true) = (axis, unroll > 1) {
                    coords[axis] += i64::try_from(u).expect("unroll fits i64");
                }
                let key = Point::new(&coords);
                let id = *key_ids.entry(key).or_insert_with(|| {
                    utaps.push((
                        u16::try_from(u).expect("unroll fits u16"),
                        u16::try_from(k).expect("tap count validated at compile"),
                    ));
                    utaps.len() - 1
                });
                row[k] = id;
            }
        }

        // One shared arena across all output expressions: subtrees
        // common to several outputs intern to the same id.
        let mut arena = Arena::default();
        let mut root_ids = Vec::with_capacity(unroll);
        for row in &table {
            let remapped = remap_taps(ck.folded_expr(), row);
            root_ids.push(arena.intern_expr(&remapped));
        }
        let counts = arena.use_counts_multi(&root_ids);

        // Constant registers, one per distinct bit pattern.
        let mut const_reg: HashMap<u64, u16> = HashMap::new();
        let mut consts: Vec<f64> = Vec::new();
        for node in &arena.nodes {
            if let Node::Const(bits) = *node {
                if let std::collections::hash_map::Entry::Vacant(e) = const_reg.entry(bits) {
                    e.insert(0); // placeholder, assigned below
                    consts.push(f64::from_bits(bits));
                }
            }
        }
        if utaps.len() + consts.len() + arena.nodes.len() > usize::from(u16::MAX) {
            return Err(EngineError::KernelCompile {
                detail: format!(
                    "unroll-by-{unroll} program needs more than {} registers",
                    u16::MAX
                ),
            });
        }
        for (j, c) in consts.iter().enumerate() {
            const_reg.insert(
                c.to_bits(),
                u16::try_from(utaps.len() + j).expect("checked above"),
            );
        }

        // Taps intern as Node::Tap(utap id); their register IS the id.
        let mut emitter = RegEmitter {
            arena: &arena,
            counts: &counts,
            const_reg: &const_reg,
            reg_of: vec![None; arena.nodes.len()],
            next: utaps.len() + consts.len(),
            ops: Vec::new(),
        };
        let roots: Vec<u16> = root_ids.iter().map(|&id| emitter.emit(id)).collect();

        let program = RegProgram {
            utaps,
            consts,
            ops: emitter.ops,
            roots,
            regs: emitter.next,
        };
        debug_assert!(program.ssa_well_formed());
        Ok((program, table))
    }

    /// SSA sanity: every operand register precedes its destination.
    fn ssa_well_formed(&self) -> bool {
        self.ops.iter().all(|op| match *op {
            RegOp::Add { dst, a, b }
            | RegOp::Sub { dst, a, b }
            | RegOp::Mul { dst, a, b }
            | RegOp::Div { dst, a, b } => a < dst && b < dst,
            RegOp::Sqrt { dst, a } | RegOp::Abs { dst, a } => a < dst,
            RegOp::MulAdd { dst, a, b, c } => a < dst && b < dst && c < dst,
        })
    }

    pub(crate) fn utaps(&self) -> &[(u16, u16)] {
        &self.utaps
    }

    /// Register operations in the group body (tap/const loads excluded).
    #[cfg(test)]
    pub(crate) fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// The vectorized multi-output sweep: writes output position `u`,
    /// column `t` to `out[u * stride + t]` for `t in 0..stride`, with
    /// utap `j` reading the contiguous input run at `vals[bases[j]]`.
    ///
    /// Every column runs the lane-wide register body. A row at least
    /// [`LANES`] wide ends with one more chunk placed at
    /// `stride - LANES`, overlapping the chunk before it: lanes are
    /// independent, so the overlap rewrites the same bits. A shorter
    /// row is one chunk whose lanes past the row's end load zero and are
    /// never stored. `regs` is the caller's register file, reused from
    /// row to row; the sweep sizes it and loads its constants.
    fn sweep<T: Lane>(
        &self,
        bases: &[usize],
        vals: &[f64],
        out: &mut [f64],
        stride: usize,
        regs: &mut Vec<[T; LANES]>,
    ) {
        debug_assert_eq!(bases.len(), self.utaps.len());
        debug_assert_eq!(out.len(), stride * self.roots.len());
        let nu = self.utaps.len();
        regs.resize(self.regs, [T::ZERO; LANES]);
        for (j, &c) in self.consts.iter().enumerate() {
            regs[nu + j] = [T::from_f64(c); LANES];
        }
        if stride < LANES {
            self.chunk(bases, vals, out, stride, 0, stride, regs);
            return;
        }
        let mut t = 0usize;
        loop {
            self.chunk(bases, vals, out, stride, t, LANES, regs);
            if t + LANES == stride {
                break;
            }
            t = (t + LANES).min(stride - LANES);
        }
    }

    /// One lane chunk: loads columns `t..t + width` of every utap,
    /// runs the register body, and stores those columns of every
    /// output position. Lanes from `width` up load zero.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn chunk<T: Lane>(
        &self,
        bases: &[usize],
        vals: &[f64],
        out: &mut [f64],
        stride: usize,
        t: usize,
        width: usize,
        regs: &mut [[T; LANES]],
    ) {
        for (j, &b) in bases.iter().enumerate() {
            let src = &vals[b + t..b + t + width];
            let dst = &mut regs[j];
            for i in 0..width {
                dst[i] = T::from_f64(src[i]);
            }
            dst[width..].fill(T::ZERO);
        }
        self.run_chunk(regs);
        for (u, &r) in self.roots.iter().enumerate() {
            let src = &regs[usize::from(r)];
            let dst = &mut out[u * stride + t..u * stride + t + width];
            for i in 0..width {
                dst[i] = src[i].to_f64();
            }
        }
    }

    /// One register-body pass over lane-wide registers. SSA ordering
    /// (`dst` past every operand) lets `split_at_mut` hand out the
    /// destination without aliasing the sources.
    fn run_chunk<T: Lane>(&self, regs: &mut [[T; LANES]]) {
        for op in &self.ops {
            match *op {
                RegOp::Add { dst, a, b } => {
                    let (lo, hi) = regs.split_at_mut(usize::from(dst));
                    let d = &mut hi[0];
                    let (x, y) = (&lo[usize::from(a)], &lo[usize::from(b)]);
                    for i in 0..LANES {
                        d[i] = x[i] + y[i];
                    }
                }
                RegOp::Sub { dst, a, b } => {
                    let (lo, hi) = regs.split_at_mut(usize::from(dst));
                    let d = &mut hi[0];
                    let (x, y) = (&lo[usize::from(a)], &lo[usize::from(b)]);
                    for i in 0..LANES {
                        d[i] = x[i] - y[i];
                    }
                }
                RegOp::Mul { dst, a, b } => {
                    let (lo, hi) = regs.split_at_mut(usize::from(dst));
                    let d = &mut hi[0];
                    let (x, y) = (&lo[usize::from(a)], &lo[usize::from(b)]);
                    for i in 0..LANES {
                        d[i] = x[i] * y[i];
                    }
                }
                RegOp::Div { dst, a, b } => {
                    let (lo, hi) = regs.split_at_mut(usize::from(dst));
                    let d = &mut hi[0];
                    let (x, y) = (&lo[usize::from(a)], &lo[usize::from(b)]);
                    for i in 0..LANES {
                        d[i] = x[i] / y[i];
                    }
                }
                RegOp::Sqrt { dst, a } => {
                    let (lo, hi) = regs.split_at_mut(usize::from(dst));
                    let d = &mut hi[0];
                    let x = &lo[usize::from(a)];
                    for i in 0..LANES {
                        d[i] = x[i].lane_sqrt();
                    }
                }
                RegOp::Abs { dst, a } => {
                    let (lo, hi) = regs.split_at_mut(usize::from(dst));
                    let d = &mut hi[0];
                    let x = &lo[usize::from(a)];
                    for i in 0..LANES {
                        d[i] = x[i].lane_abs();
                    }
                }
                RegOp::MulAdd { dst, a, b, c } => {
                    let (lo, hi) = regs.split_at_mut(usize::from(dst));
                    let d = &mut hi[0];
                    let (x, y, z) = (
                        &lo[usize::from(a)],
                        &lo[usize::from(b)],
                        &lo[usize::from(c)],
                    );
                    for i in 0..LANES {
                        d[i] = z[i] + x[i] * y[i];
                    }
                }
            }
        }
    }

    /// One register-body pass over scalar registers: the
    /// construction-time replay against the bytecode.
    fn run_scalar<T: Lane>(&self, regs: &mut [T]) {
        for op in &self.ops {
            match *op {
                RegOp::Add { dst, a, b } => {
                    regs[usize::from(dst)] = regs[usize::from(a)] + regs[usize::from(b)];
                }
                RegOp::Sub { dst, a, b } => {
                    regs[usize::from(dst)] = regs[usize::from(a)] - regs[usize::from(b)];
                }
                RegOp::Mul { dst, a, b } => {
                    regs[usize::from(dst)] = regs[usize::from(a)] * regs[usize::from(b)];
                }
                RegOp::Div { dst, a, b } => {
                    regs[usize::from(dst)] = regs[usize::from(a)] / regs[usize::from(b)];
                }
                RegOp::Sqrt { dst, a } => regs[usize::from(dst)] = regs[usize::from(a)].lane_sqrt(),
                RegOp::Abs { dst, a } => regs[usize::from(dst)] = regs[usize::from(a)].lane_abs(),
                RegOp::MulAdd { dst, a, b, c } => {
                    let p = regs[usize::from(a)] * regs[usize::from(b)];
                    regs[usize::from(dst)] = regs[usize::from(c)] + p;
                }
            }
        }
    }

    /// Evaluates all output positions on one synthetic per-utap value
    /// assignment (validation replay).
    fn eval_outputs<T: Lane>(&self, utap_vals: &[f64]) -> Vec<f64> {
        let nu = self.utaps.len();
        let mut regs: Vec<T> = vec![T::ZERO; self.regs];
        for (j, &v) in utap_vals.iter().enumerate() {
            regs[j] = T::from_f64(v);
        }
        for (j, &c) in self.consts.iter().enumerate() {
            regs[nu + j] = T::from_f64(c);
        }
        self.run_scalar(&mut regs);
        self.roots
            .iter()
            .map(|&r| regs[usize::from(r)].to_f64())
            .collect()
    }
}

/// A validated unroll-by-U program pair: the `group` program produces
/// `U` adjacent output rows per dispatch, the `single` program is its
/// one-output sibling for every other sweep row (all of them at
/// `U = 1`, where the two are one program; above it the row count not
/// divisible by `U`, or rows whose group alignment check fails) — both
/// proven equivalent to the scalar bytecode at construction, so any mix
/// of grouped and single execution produces identical bits.
///
/// At `U = 1` on the f64 datapath, a kernel with a checked native row
/// body ([`stencil_kernels::NativeRow`]) sweeps every row through that
/// body instead of the single-output program.
#[derive(Debug, Clone, PartialEq)]
pub struct UnrolledProgram {
    unroll: usize,
    datapath: Datapath,
    group: RegProgram,
    single: RegProgram,
    /// The kernel's native row body, set only at `U = 1` on the f64
    /// datapath: the single-row sweep runs it instead of `single`.
    native: Option<NativeRow>,
}

impl UnrolledProgram {
    /// Builds and validates the program pair. `unroll` is clamped to 1
    /// for one-dimensional windows (no adjacent-row axis exists);
    /// [`UnrolledProgram::unroll`] reports the effective factor.
    ///
    /// # Errors
    ///
    /// * [`EngineError::Config`] for `unroll` of 0 or above the
    ///   supported maximum.
    /// * [`EngineError::KernelCompile`] if the window disagrees with
    ///   the kernel or the program exceeds the register budget.
    /// * [`EngineError::KernelMismatch`] if the emitted register
    ///   program diverges from the scalar bytecode on replay.
    pub(crate) fn build(
        ck: &CompiledKernel,
        offsets: &[Point],
        unroll: usize,
        datapath: Datapath,
    ) -> Result<Self, EngineError> {
        if offsets.len() != ck.taps() {
            return Err(EngineError::KernelCompile {
                detail: format!(
                    "kernel compiled for {} taps but the unroll window has {} offsets",
                    ck.taps(),
                    offsets.len()
                ),
            });
        }
        check_unroll(unroll)?;
        let dims = offsets.first().map_or(0, Point::dims);
        let eff = if dims >= 2 { unroll } else { 1 };

        let (group, group_table) = RegProgram::build(ck, offsets, eff)?;
        validate_against_bytecode(ck, &group, &group_table, datapath)?;
        let single = if eff == 1 {
            group.clone()
        } else {
            let (single, single_table) = RegProgram::build(ck, offsets, 1)?;
            validate_against_bytecode(ck, &single, &single_table, datapath)?;
            single
        };

        let native = ck
            .native_row()
            .filter(|_| eff == 1 && datapath == Datapath::F64);
        Ok(Self {
            unroll: eff,
            datapath,
            group,
            single,
            native,
        })
    }

    /// The effective unroll factor (output rows per grouped dispatch).
    #[must_use]
    pub fn unroll(&self) -> usize {
        self.unroll
    }

    /// The arithmetic precision this program evaluates in.
    #[must_use]
    pub fn datapath(&self) -> Datapath {
        self.datapath
    }

    /// Representative `(output position, tap)` of each shared tap of
    /// the grouped body — the row executor derives input bases from
    /// these.
    pub(crate) fn group_utaps(&self) -> &[(u16, u16)] {
        self.group.utaps()
    }

    /// The grouped sweep: `out` holds `unroll()` adjacent rows of
    /// `stride` columns each, `bases[j]` the input run of group utap
    /// `j`.
    pub(crate) fn sweep_group(
        &self,
        bases: &[usize],
        vals: &[f64],
        out: &mut [f64],
        stride: usize,
        scratch: &mut SweepScratch,
    ) {
        match self.datapath {
            Datapath::F64 => self
                .group
                .sweep(bases, vals, out, stride, &mut scratch.f64_regs),
            Datapath::F32 => self
                .group
                .sweep(bases, vals, out, stride, &mut scratch.f32_regs),
        }
    }

    /// Whether the single-row sweep runs the kernel's native row body.
    #[cfg(test)]
    pub(crate) fn runs_native(&self) -> bool {
        self.native.is_some()
    }

    /// The single-row sweep: every sweep row at `U = 1`, leftover rows
    /// above it. `tap_bases` are per *tap* (the row executor's layout):
    /// the native row body reads them as they are, the program maps
    /// them onto its deduplicated utap slots.
    pub(crate) fn sweep_single(
        &self,
        tap_bases: &[usize],
        vals: &[f64],
        out: &mut [f64],
        scratch: &mut SweepScratch,
    ) {
        if let Some(row) = &self.native {
            row.run(vals, tap_bases, out);
            return;
        }
        let SweepScratch {
            utap_bases,
            f64_regs,
            f32_regs,
        } = scratch;
        utap_bases.clear();
        utap_bases.extend(
            self.single
                .utaps()
                .iter()
                .map(|&(_, k)| tap_bases[usize::from(k)]),
        );
        let stride = out.len();
        match self.datapath {
            Datapath::F64 => self.single.sweep(utap_bases, vals, out, stride, f64_regs),
            Datapath::F32 => self.single.sweep(utap_bases, vals, out, stride, f32_regs),
        }
    }
}

/// Buffers a row executor call reuses across its sweeps, so no row
/// allocates: one register file per lane type, sized by each sweep to
/// its program, and the single-row sweep's utap bases.
#[derive(Debug, Default)]
pub(crate) struct SweepScratch {
    utap_bases: Vec<usize>,
    f64_regs: Vec<[f64; LANES]>,
    f32_regs: Vec<[f32; LANES]>,
}

/// Replays the register program against the scalar bytecode on the
/// same battery shape as [`CompiledKernel::compile_checked`]: edge
/// fills plus pseudo-random assignments of the deduplicated taps. Each
/// output position must agree bit-for-bit with evaluating the bytecode
/// on that position's reconstructed window.
fn validate_against_bytecode(
    ck: &CompiledKernel,
    prog: &RegProgram,
    table: &[Vec<usize>],
    datapath: Datapath,
) -> Result<(), EngineError> {
    let mut utap_vals = vec![0.0f64; prog.utaps.len()];
    let mut window = vec![0.0f64; ck.taps()];
    let check = |utap_vals: &[f64], window: &mut [f64]| -> Result<(), EngineError> {
        let got = match datapath {
            Datapath::F64 => prog.eval_outputs::<f64>(utap_vals),
            Datapath::F32 => prog.eval_outputs::<f32>(utap_vals),
        };
        for (u, row) in table.iter().enumerate() {
            for (k, &id) in row.iter().enumerate() {
                window[k] = utap_vals[id];
            }
            let want = ck.eval_in(datapath, window);
            let g = got[u];
            if !(g == want || (g.is_nan() && want.is_nan())) {
                return Err(EngineError::KernelMismatch {
                    detail: format!(
                        "unrolled output {u} ({datapath}): register program {g:?} vs bytecode \
                         {want:?} on utap values {utap_vals:?}"
                    ),
                });
            }
        }
        Ok(())
    };
    for fill in [0.0, 1.0, -1.0, 0.5] {
        utap_vals.iter_mut().for_each(|v| *v = fill);
        check(&utap_vals, &mut window)?;
    }
    let mut state = 0x0BAD_5EED_0042_u64;
    for _ in 0..48 {
        for v in &mut utap_vals {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v = ((state >> 33) as f64) / 1e8 - 42.0;
        }
        check(&utap_vals, &mut window)?;
    }
    Ok(())
}

/// Maximum scaled deviation between two output vectors:
/// `max |got - want| / max(1, max |want|)`. The global scale keeps
/// near-zero outputs from exploding the ratio while still measuring
/// f32 rounding drift against the f64 golden. Positions where both
/// sides are NaN agree; a one-sided NaN (or any non-finite deviation)
/// reports infinity.
#[must_use]
pub fn max_rel_error(got: &[f64], want: &[f64]) -> f64 {
    assert_eq!(got.len(), want.len(), "compared runs must align");
    let scale = want
        .iter()
        .filter(|w| w.is_finite())
        .fold(1.0f64, |m, w| m.max(w.abs()));
    let mut worst = 0.0f64;
    for (&g, &w) in got.iter().zip(want) {
        if g.is_nan() && w.is_nan() {
            continue;
        }
        let d = (g - w).abs();
        if d.is_nan() {
            return f64::INFINITY;
        }
        worst = worst.max(d / scale);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_kernels::{denoise, heat_1d, sobel};

    fn compiled(b: &stencil_kernels::Benchmark) -> CompiledKernel {
        CompiledKernel::for_benchmark(b).unwrap().unwrap()
    }

    #[test]
    fn one_dimensional_windows_clamp_to_single_output() {
        let b = heat_1d();
        let ck = compiled(&b);
        let up = UnrolledProgram::build(&ck, b.window(), 8, Datapath::F64).unwrap();
        assert_eq!(up.unroll(), 1);
        assert_eq!(up.group, up.single);
    }

    #[test]
    fn unroll_bounds_are_enforced() {
        let b = denoise();
        let ck = compiled(&b);
        for bad in [0, MAX_UNROLL + 1] {
            let err = UnrolledProgram::build(&ck, b.window(), bad, Datapath::F64).unwrap_err();
            assert!(matches!(err, EngineError::Config { .. }), "{err}");
        }
    }

    #[test]
    fn adjacent_outputs_share_coinciding_taps() {
        // DENOISE reads a 5-point cross; at U=4 the vertical taps of
        // adjacent rows coincide: 14 distinct loads instead of 20.
        let b = denoise();
        let ck = compiled(&b);
        let up = UnrolledProgram::build(&ck, b.window(), 4, Datapath::F64).unwrap();
        assert_eq!(up.unroll(), 4);
        assert_eq!(up.group_utaps().len(), 14);
        assert_eq!(up.single.utaps().len(), 5);
    }

    #[test]
    fn cross_output_cse_shares_subtrees() {
        // SOBEL's column sums are shared between horizontally adjacent
        // outputs... vertically here: a grouped body must cost less
        // than U independent single bodies.
        for b in [denoise(), sobel()] {
            let ck = compiled(&b);
            let up = UnrolledProgram::build(&ck, b.window(), 4, Datapath::F64).unwrap();
            assert!(
                up.group.op_count() <= 4 * up.single.op_count(),
                "{}: group {} vs 4x single {}",
                b.name(),
                up.group.op_count(),
                up.single.op_count()
            );
        }
    }

    #[test]
    fn group_sweep_matches_bytecode_per_output() {
        // Synthetic flat buffer with hand-picked utap bases: output u
        // column t must equal evaluating the bytecode on the window
        // reconstructed through the utap table. U=1 is the
        // single-output program every default compiled row runs.
        let b = denoise();
        let ck = compiled(&b);
        let vals: Vec<f64> = (0..512).map(|i| f64::from(i) * 0.375 - 17.0).collect();
        for unroll in [1usize, 4] {
            let (prog, table) = RegProgram::build(&ck, b.window(), unroll).unwrap();
            // utap j reads vals starting at 3*j: arbitrary distinct runs.
            let bases: Vec<usize> = (0..prog.utaps().len()).map(|j| 3 * j).collect();
            for stride in [1usize, 31, 32, 33, 70] {
                let mut out = vec![0.0f64; unroll * stride];
                prog.sweep::<f64>(&bases, &vals, &mut out, stride, &mut Vec::new());
                for (u, row) in table.iter().enumerate() {
                    for t in 0..stride {
                        let window: Vec<f64> = row.iter().map(|&id| vals[bases[id] + t]).collect();
                        assert_eq!(
                            out[u * stride + t],
                            ck.eval(&window),
                            "unroll={unroll} stride={stride} u={u} t={t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn f32_sweep_matches_eval32() {
        let b = sobel();
        let ck = compiled(&b);
        let vals: Vec<f64> = (0..256).map(|i| f64::from(i) * 0.7 - 40.0).collect();
        for unroll in [1usize, 2] {
            let (prog, table) = RegProgram::build(&ck, b.window(), unroll).unwrap();
            let bases: Vec<usize> = (0..prog.utaps().len()).map(|j| 2 * j).collect();
            let stride = 45; // one chunk plus a remainder
            let mut out = vec![0.0f64; unroll * stride];
            prog.sweep::<f32>(&bases, &vals, &mut out, stride, &mut Vec::new());
            for (u, row) in table.iter().enumerate() {
                for t in 0..stride {
                    let window: Vec<f64> = row.iter().map(|&id| vals[bases[id] + t]).collect();
                    assert_eq!(
                        out[u * stride + t],
                        ck.eval32(&window),
                        "unroll={unroll} u={u} t={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn sweep_last_chunk_is_bit_identical_to_eval_in() {
        // Row lengths around the lane width: shorter than one chunk,
        // exactly one, one column over (a last chunk overlapping 31
        // columns), and the 94- and 1022-wide rows of the suite grids.
        // One scratch serves every program, datapath and length, as it
        // does across the rows of one executor call.
        let lens = [1, LANES - 1, LANES, LANES + 1, 2 * LANES - 1, 94, 1022];
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        let mut scratch = SweepScratch::default();
        for b in [denoise(), sobel(), stencil_kernels::segmentation_3d()] {
            let ck = compiled(&b);
            for dp in [Datapath::F64, Datapath::F32] {
                for unroll in [1usize, 4] {
                    let up = UnrolledProgram::build(&ck, b.window(), unroll, dp).unwrap();
                    let (group, table) = RegProgram::build(&ck, b.window(), unroll).unwrap();
                    assert_eq!(group, up.group);
                    let nu = group.utaps().len();
                    let vals: Vec<f64> = (0..nu * 3 + 1100)
                        .map(|i| ((i * 7919 % 1013) as f64) * 0.0625 - 31.0)
                        .collect();
                    let bases: Vec<usize> = (0..nu).map(|j| 3 * j).collect();
                    for len in lens {
                        let ctx = format!("{} {dp} U={unroll} len={len}", b.name());
                        let mut out = vec![f64::MAX; unroll * len];
                        up.sweep_group(&bases, &vals, &mut out, len, &mut scratch);
                        let mut window = vec![0.0; ck.taps()];
                        for (u, ids) in table.iter().enumerate() {
                            for t in 0..len {
                                for (w, &id) in window.iter_mut().zip(ids) {
                                    *w = vals[bases[id] + t];
                                }
                                let want = ck.eval_in(dp, &window);
                                assert!(same(out[u * len + t], want), "{ctx} u={u} t={t}");
                            }
                        }

                        // The single-output program over per-tap bases.
                        let tap_bases: Vec<usize> = (0..ck.taps()).map(|k| 5 * k).collect();
                        let mut out = vec![f64::MAX; len];
                        up.sweep_single(&tap_bases, &vals, &mut out, &mut scratch);
                        for (t, &got) in out.iter().enumerate() {
                            for (k, w) in window.iter_mut().enumerate() {
                                *w = vals[tap_bases[k] + t];
                            }
                            assert!(same(got, ck.eval_in(dp, &window)), "{ctx} single t={t}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_suite_kernel_builds_unrolled_checked() {
        for b in stencil_kernels::paper_suite()
            .into_iter()
            .chain(stencil_kernels::extra_suite())
        {
            let ck = compiled(&b);
            for u in [1usize, 2, 4, 8] {
                for dp in [Datapath::F64, Datapath::F32] {
                    let up = UnrolledProgram::build(&ck, b.window(), u, dp)
                        .unwrap_or_else(|e| panic!("{} u={u} {dp}: {e}", b.name()));
                    assert!(up.unroll() >= 1);
                }
            }
        }
    }

    #[test]
    fn max_rel_error_scales_and_handles_nan() {
        assert_eq!(max_rel_error(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        // Deviation 0.1 against a max-|want| of 100 scales to 1e-3.
        let e = max_rel_error(&[100.0, 0.1], &[100.0, 0.0]);
        assert!((e - 1e-3).abs() < 1e-12, "{e}");
        // Small outputs use the floor scale of 1.
        let e = max_rel_error(&[0.2], &[0.1]);
        assert!((e - 0.1).abs() < 1e-12, "{e}");
        // Matching NaNs agree; one-sided NaN is a hard mismatch.
        assert_eq!(max_rel_error(&[f64::NAN], &[f64::NAN]), 0.0);
        assert_eq!(max_rel_error(&[f64::NAN], &[1.0]), f64::INFINITY);
        assert_eq!(max_rel_error(&[1.0], &[f64::NAN]), f64::INFINITY);
    }
}
