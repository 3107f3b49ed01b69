//! The register program: the compiled row sweep of every row that no
//! native row body covers.
//!
//! A compiled row runs one body. A kernel with a checked native row
//! body ([`stencil_kernels::NativeRow`], the kernel's formula compiled
//! as one loop) sweeps the row through that body. An expression-only
//! kernel runs the register program this module lowers from the
//! kernel's folded expression ([`RegProgram`]).
//!
//! Each register operation runs over [`LANES`]-wide chunks of a whole
//! output row, each tap bound to a column-shifted contiguous slice of
//! the resident input rows: one dispatch covers [`LANES`] elements, and
//! the per-lane loops run over fixed-width arrays the autovectorizer
//! turns into SIMD — on the baseline x86-64 target, SSE2 `xmm` pairs of
//! two f64 lanes. The last chunk of a row ends at the row's end,
//! overlapping its predecessor, so no column runs outside the lane
//! body; the register file lives in a [`SweepScratch`] the row
//! executor reuses across rows.
//!
//! The program is a register machine ([`RegOp`]), not stack bytecode:
//! every node of the hash-consed expression DAG gets an SSA register,
//! so a shared subexpression is reused by naming its register — no
//! `Store`/`Load` traffic and no slot limit. Mul-add fusion keeps the
//! stack machine's rule (singly-used products only) and its
//! two-rounding semantics, so results stay bit-identical to the
//! closure.
//!
//! Construction replays the lane sweep against the scalar bytecode on
//! the battery of [`CompiledKernel::compile_checked`] and compares bits,
//! as the native row check does, so a mis-emitted program fails loudly
//! before producing output.

use std::collections::HashMap;

use stencil_kernels::NativeRow;

use crate::compile::{replay_rows, Arena, CompiledKernel, Node};
use crate::error::EngineError;

/// Lanes per register-op dispatch: the dispatch overhead of one op
/// amortizes over 32 elements (sixteen SSE2 `xmm` vectors of two f64
/// per inner loop on the baseline x86-64 target) while the lane
/// registers stay cache-hot. Picked on
/// DENOISE 768×1024 with the stack-bytecode sweep this interpreter
/// replaced: 32 beat 8 by ~40%, and 64/128 regressed as the lane
/// working set outgrew L1.
const LANES: usize = 32;

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

/// Register emission over the expression DAG: nodes are memoized, so a
/// shared subtree is computed once and its register reused.
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
            Node::Tap(k) => u16::try_from(k).expect("tap ids fit the register budget"),
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

/// A kernel's compiled row body, built once per session stage: the
/// native row body when the kernel carries one, else the register
/// program lowered from its folded expression. Both are checked bit for
/// bit against the scalar bytecode at construction, so every compiled
/// row gives the bytecode's bits.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum RowProgram {
    /// The kernel's native row body (checked when it was attached to
    /// the compiled kernel).
    Native(NativeRow),
    /// The register program of an expression-only kernel.
    Registers(RegProgram),
}

impl RowProgram {
    /// The native row body of `ck` when it carries one, else its
    /// register program, lowered and checked.
    ///
    /// # Errors
    ///
    /// * [`EngineError::KernelCompile`] if the register program exceeds
    ///   the register budget.
    /// * [`EngineError::KernelMismatch`] if the register program
    ///   diverges from the scalar bytecode on replay.
    pub(crate) fn build(ck: &CompiledKernel) -> Result<Self, EngineError> {
        if let Some(row) = ck.native_row() {
            return Ok(Self::Native(row));
        }
        let prog = RegProgram::lower(ck)?;
        prog.check(ck)?;
        Ok(Self::Registers(prog))
    }

    /// The native row body the sweep runs, if any: the row executor
    /// appends rows through its appending form.
    pub(crate) fn native(&self) -> Option<&NativeRow> {
        match self {
            Self::Native(row) => Some(row),
            Self::Registers(_) => None,
        }
    }

    /// Sweeps one output row: `out[t]` is column `t`, with tap `k`
    /// reading the contiguous input run at `vals[bases[k]..]`.
    pub(crate) fn sweep(
        &self,
        bases: &[usize],
        vals: &[f64],
        out: &mut [f64],
        scratch: &mut SweepScratch,
    ) {
        match self {
            Self::Native(row) => row.run(vals, bases, out),
            Self::Registers(prog) => prog.sweep(bases, vals, out, &mut scratch.regs),
        }
    }
}

/// The register program of one kernel expression.
///
/// Register layout: `[0, taps)` tap loads, then constants, then op
/// results.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RegProgram {
    /// Tap loads; register `k` holds tap `k`.
    taps: usize,
    /// Distinct literal values, preloaded once per sweep call.
    consts: Vec<f64>,
    ops: Vec<RegOp>,
    /// The result register.
    root: u16,
    /// Total registers (taps + consts + op results).
    regs: usize,
}

impl RegProgram {
    /// The register program of `ck`'s folded expression, unchecked.
    fn lower(ck: &CompiledKernel) -> Result<Self, EngineError> {
        let mut arena = Arena::default();
        let root_id = arena.intern_expr(ck.folded_expr());
        let counts = arena.use_counts(root_id);

        // Constant registers, one per distinct bit pattern: the arena
        // interns each pattern once.
        let consts: Vec<f64> = arena
            .nodes
            .iter()
            .filter_map(|node| match *node {
                Node::Const(bits) => Some(f64::from_bits(bits)),
                _ => None,
            })
            .collect();
        let taps = ck.taps();
        if taps + consts.len() + arena.nodes.len() > usize::from(u16::MAX) {
            return Err(EngineError::KernelCompile {
                detail: format!("register program needs more than {} registers", u16::MAX),
            });
        }
        let const_reg: HashMap<u64, u16> = consts
            .iter()
            .enumerate()
            .map(|(j, c)| (c.to_bits(), u16::try_from(taps + j).expect("checked above")))
            .collect();

        // Taps intern as Node::Tap(k); their register IS k.
        let mut emitter = RegEmitter {
            arena: &arena,
            counts: &counts,
            const_reg: &const_reg,
            reg_of: vec![None; arena.nodes.len()],
            next: taps + consts.len(),
            ops: Vec::new(),
        };
        let root = emitter.emit(root_id);
        let program = RegProgram {
            taps,
            consts,
            ops: emitter.ops,
            root,
            regs: emitter.next,
        };
        debug_assert!(program.ssa_well_formed());
        Ok(program)
    }

    /// Replays the lane sweep on the check battery of
    /// [`CompiledKernel::compile_checked`], laid out as rows as the
    /// native row check lays it: every column must give the scalar
    /// bytecode's bits.
    fn check(&self, ck: &CompiledKernel) -> Result<(), EngineError> {
        let mut regs = Vec::new();
        replay_rows(
            self.taps,
            "register program",
            |vals, bases, out| {
                self.sweep(bases, vals, out, &mut regs);
                Ok(())
            },
            |window| ck.eval(window),
        )
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

    /// The vectorized register sweep of one output row: `out[t]` is
    /// column `t`, with tap `k` reading the contiguous input run at
    /// `vals[bases[k]..]`.
    ///
    /// Every column runs the lane-wide register body. A row at least
    /// [`LANES`] wide ends with one more chunk placed at
    /// `out.len() - LANES`, overlapping the chunk before it: lanes are
    /// independent, so the overlap rewrites the same bits. A shorter
    /// row is one chunk whose lanes past the row's end load zero and are
    /// never stored. `regs` is the caller's register file, reused from
    /// row to row; the sweep sizes it and loads its constants.
    fn sweep(&self, bases: &[usize], vals: &[f64], out: &mut [f64], regs: &mut Vec<[f64; LANES]>) {
        debug_assert_eq!(bases.len(), self.taps);
        let stride = out.len();
        regs.resize(self.regs, [0.0; LANES]);
        for (j, &c) in self.consts.iter().enumerate() {
            regs[self.taps + j] = [c; LANES];
        }
        if stride < LANES {
            self.chunk(bases, vals, out, 0, stride, regs);
            return;
        }
        let mut t = 0usize;
        loop {
            self.chunk(bases, vals, out, t, LANES, regs);
            if t + LANES == stride {
                break;
            }
            t = (t + LANES).min(stride - LANES);
        }
    }

    /// One lane chunk: loads columns `t..t + width` of every tap, runs
    /// the register body, and stores those columns of the row. Lanes
    /// from `width` up load zero.
    #[inline(always)]
    fn chunk(
        &self,
        bases: &[usize],
        vals: &[f64],
        out: &mut [f64],
        t: usize,
        width: usize,
        regs: &mut [[f64; LANES]],
    ) {
        for (j, &b) in bases.iter().enumerate() {
            let dst = &mut regs[j];
            dst[..width].copy_from_slice(&vals[b + t..b + t + width]);
            dst[width..].fill(0.0);
        }
        self.run_chunk(regs);
        out[t..t + width].copy_from_slice(&regs[usize::from(self.root)][..width]);
    }

    /// One register-body pass over lane-wide registers. SSA ordering
    /// (`dst` past every operand) lets `split_at_mut` hand out the
    /// destination without aliasing the sources.
    fn run_chunk(&self, regs: &mut [[f64; LANES]]) {
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
                        d[i] = x[i].sqrt();
                    }
                }
                RegOp::Abs { dst, a } => {
                    let (lo, hi) = regs.split_at_mut(usize::from(dst));
                    let d = &mut hi[0];
                    let x = &lo[usize::from(a)];
                    for i in 0..LANES {
                        d[i] = x[i].abs();
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
}

/// Buffers a row executor call reuses across its sweeps, so no row
/// allocates: one register file, sized by each sweep to its program.
#[derive(Debug, Default)]
pub(crate) struct SweepScratch {
    regs: Vec<[f64; LANES]>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_kernels::{denoise, sobel, KernelExpr};

    fn compiled(b: &stencil_kernels::Benchmark) -> CompiledKernel {
        CompiledKernel::for_benchmark(b).unwrap().unwrap()
    }

    #[test]
    fn sweep_last_chunk_is_bit_identical_to_eval_in() {
        // Row lengths around the lane width: shorter than one chunk,
        // exactly one, one column over (a last chunk overlapping 31
        // columns), and the 94- and 1022-wide rows of the suite grids.
        // One scratch serves every program and length, as it does
        // across the rows of one executor call. Expression-only copies
        // keep the sweep on the register program.
        let lens = [1, LANES - 1, LANES, LANES + 1, 2 * LANES - 1, 94, 1022];
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        let mut scratch = SweepScratch::default();
        for b in [denoise(), sobel(), stencil_kernels::segmentation_3d()] {
            let ck = CompiledKernel::compile(b.expr().unwrap(), b.window().len()).unwrap();
            let prog = RowProgram::build(&ck).unwrap();
            assert!(matches!(prog, RowProgram::Registers(_)));
            let vals: Vec<f64> = (0..ck.taps() * 5 + 1100)
                .map(|i| ((i * 7919 % 1013) as f64) * 0.0625 - 31.0)
                .collect();
            let bases: Vec<usize> = (0..ck.taps()).map(|k| 5 * k).collect();
            let mut window = vec![0.0; ck.taps()];
            for len in lens {
                let mut out = vec![f64::MAX; len];
                prog.sweep(&bases, &vals, &mut out, &mut scratch);
                for (t, &got) in out.iter().enumerate() {
                    for (w, &b) in window.iter_mut().zip(&bases) {
                        *w = vals[b + t];
                    }
                    let ctx = format!("{} len={len} t={t}", b.name());
                    assert!(same(got, ck.eval(&window)), "{ctx}");
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
            let prog = RowProgram::build(&ck).unwrap_or_else(|e| panic!("{}: {e}", b.name()));
            assert!(prog.native().is_some(), "{}", b.name());
            // The register program an expression-only copy would run.
            RegProgram::lower(&ck)
                .and_then(|regs| regs.check(&ck))
                .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
        }
    }

    #[test]
    fn a_program_off_by_the_sign_of_zero_is_refused() {
        // `t0 * 0.0 + 0.0` differs from `t0 * 0.0` only on negative
        // taps, where it gives 0.0 for -0.0: the replay compares bits,
        // so `==` (which takes 0.0 for -0.0) must not be its test.
        let t0 = || KernelExpr::tap(0);
        let ck = CompiledKernel::compile(&(t0() * KernelExpr::constant(0.0)), 1).unwrap();
        let wrong = CompiledKernel::compile(
            &(t0() * KernelExpr::constant(0.0) + KernelExpr::constant(0.0)),
            1,
        )
        .unwrap();
        RegProgram::lower(&ck).unwrap().check(&ck).unwrap();
        let err = RegProgram::lower(&wrong).unwrap().check(&ck).unwrap_err();
        assert!(matches!(err, EngineError::KernelMismatch { .. }), "{err}");
    }
}
