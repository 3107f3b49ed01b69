//! Plan-time kernel compilation: [`stencil_kernels::KernelExpr`] →
//! flat stack bytecode, the scalar form every compiled sweep is checked
//! against.
//!
//! The closure datapath costs one indirect `Fn(&[f64]) -> f64` call and
//! one window gather *per output element*. This module removes both:
//!
//! * **compile** — the expression tree is lowered once per run to a
//!   flat postorder bytecode ([`Op`] sequence) with constant folding
//!   (pure-constant subtrees collapse to literals), common-subexpression
//!   elimination (structurally equal non-leaf subtrees evaluate once
//!   into a slot), and mul-add fusion (`x + a*b` dispatches as one
//!   [`Op::MulAdd`] — a *dispatch* fusion that still rounds the product
//!   and the sum separately, so results stay bit-identical);
//! * **validate** — [`CompiledKernel::compile_checked`] replays the
//!   bytecode against the reference closure on a battery of windows at
//!   construction, so a mis-transcribed expression fails loudly before
//!   any output is produced;
//! * **evaluate** — [`CompiledKernel::eval`] runs the bytecode on one
//!   window. This scalar form serves the per-element `Closure` backend,
//!   gather rows, and the replay that validates every register program
//!   and native row body ([`replay_rows`]: one battery, compared bit for
//!   bit). Row sweeps run the kernel's native row body when it carries
//!   one (checked against this bytecode on attachment, see
//!   [`CompiledKernel::for_benchmark`]); every other compiled row runs
//!   the register program [`crate::unroll`] lowers from the same folded
//!   expression.
//!
//! Evaluation order is exactly the expression's association order, which
//! the suite expressions in turn copy from their closures — the chain
//! that keeps `Compiled` and `Closure` backends bit-identical.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

use stencil_kernels::{Benchmark, KernelExpr, KernelStage, NativeRow};

use crate::error::EngineError;

/// Selects how the engine evaluates the kernel datapath.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum KernelBackend {
    /// Row-sweep interior rows (the default when a [`CompiledKernel`]
    /// is supplied). A kernel with a checked native row body
    /// ([`stencil_kernels::NativeRow`], carried by every built-in
    /// benchmark) sweeps each row through that body: the kernel's own
    /// formula as one vectorized loop. An expression-only kernel sweeps
    /// through the vectorized register program lowered from the
    /// [`CompiledKernel`]. Gather rows evaluate the scalar bytecode.
    #[default]
    Compiled,
    /// Evaluate one element at a time through the per-window call — the
    /// original path, kept selectable for cross-checks and baselines.
    Closure,
}

impl KernelBackend {
    /// The backend's wire/CLI name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            KernelBackend::Compiled => "compiled",
            KernelBackend::Closure => "closure",
        }
    }
}

impl fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for KernelBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "compiled" => Ok(KernelBackend::Compiled),
            "closure" => Ok(KernelBackend::Closure),
            other => Err(format!(
                "unknown kernel backend '{other}' (expected 'compiled' or 'closure')"
            )),
        }
    }
}

/// Maximum operand-stack depth a compiled kernel may need. Postorder
/// evaluation of left-leaning reduction chains needs depth ~2, fully
/// balanced trees depth `log2(taps)`; 32 leaves enormous headroom while
/// keeping the scalar stack a fixed array.
const MAX_STACK: usize = 32;

/// Maximum CSE slots (distinct shared subexpressions).
const MAX_SLOTS: usize = 16;

/// One bytecode operation. The machine is a pure postorder stack
/// evaluator: leaves push, operators pop their operands and push the
/// result, `Store`/`Load` spill shared subexpressions to slots.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// Push the window value of tap `k`.
    Tap(u16),
    /// Push a literal.
    Const(f64),
    /// Push slot `s`.
    Load(u16),
    /// Copy the stack top into slot `s` (value stays on the stack).
    Store(u16),
    /// Pop `b`, `a`; push `a + b`.
    Add,
    /// Pop `b`, `a`; push `a - b`.
    Sub,
    /// Pop `b`, `a`; push `a * b`.
    Mul,
    /// Pop `b`, `a`; push `a / b`.
    Div,
    /// Replace the top with its square root.
    Sqrt,
    /// Replace the top with its absolute value.
    Abs,
    /// Pop `b`, `a`; replace the new top `acc` with `acc + a * b`,
    /// rounding the product and sum separately (no FMA contraction).
    MulAdd,
}

/// A kernel datapath lowered to stack bytecode, ready for per-window
/// evaluation ([`CompiledKernel::eval`]) and for lowering to the
/// register program the engine's `Compiled` backend row-sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledKernel {
    ops: Vec<Op>,
    taps: usize,
    slots: usize,
    max_stack: usize,
    /// The folded source expression — retained so the register
    /// program ([`crate::unroll`]) lowers from it without decompiling
    /// the bytecode.
    expr: KernelExpr,
    /// The kernel's native row body, checked against this bytecode
    /// ([`CompiledKernel::with_native_row`]); the sweep
    /// runs it instead of the register program.
    native: Option<NativeRow>,
}

/// Windows in the construction-time check battery ([`battery`]).
const BATTERY: usize = 64;

/// Row lengths the native-row check lays the battery out as: they
/// partition its [`BATTERY`] windows, from a one-column row to one
/// spanning several vector widths.
const BATTERY_ROWS: [usize; 6] = [1, 2, 5, 8, 16, 32];

/// The construction-time check battery over `taps`-point windows,
/// tap-major (`vals[k * BATTERY + j]` is tap `k` of window `j`, so tap
/// `k` of windows `j..j + n` is one contiguous run): four constant
/// fills (0, 1, -1, 0.5), then pseudo-random windows.
fn battery(taps: usize) -> Vec<f64> {
    const FILLS: [f64; 4] = [0.0, 1.0, -1.0, 0.5];
    let mut vals = vec![0.0f64; taps * BATTERY];
    let mut state = 0x0BAD_C0DE_CAFE_u64;
    for j in 0..BATTERY {
        for k in 0..taps {
            vals[k * BATTERY + j] = match FILLS.get(j) {
                Some(&fill) => fill,
                None => {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) as f64) / 1e8 - 42.0
                }
            };
        }
    }
    vals
}

/// Window `j` of a tap-major [`battery`].
fn battery_window(vals: &[f64], j: usize, window: &mut [f64]) {
    for (k, w) in window.iter_mut().enumerate() {
        *w = vals[k * BATTERY + j];
    }
}

/// Whether two evaluations agree: equal bits, or both NaN.
fn same_value(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Replays a row sweep on the check [`battery`] laid out as rows of
/// [`BATTERY_ROWS`] columns: `sweep(vals, bases, out)` computes one row,
/// tap `k` reading the contiguous run at `vals[bases[k]..]`, and every
/// column must give `want`'s bits on its window (NaN where `want` gives
/// NaN). `what` names the sweep in the mismatch message. Native row
/// bodies and register programs are both checked this way.
///
/// # Errors
///
/// [`EngineError::KernelMismatch`] at the first diverging column, or
/// whatever `sweep` returns.
pub(crate) fn replay_rows(
    taps: usize,
    what: &str,
    mut sweep: impl FnMut(&[f64], &[usize], &mut [f64]) -> Result<(), EngineError>,
    want: impl Fn(&[f64]) -> f64,
) -> Result<(), EngineError> {
    let vals = battery(taps);
    let mut bases = vec![0usize; taps];
    let mut out = [0.0f64; BATTERY];
    let mut window = vec![0.0f64; taps];
    let mut start = 0usize;
    for len in BATTERY_ROWS {
        for (k, b) in bases.iter_mut().enumerate() {
            *b = k * BATTERY + start;
        }
        sweep(&vals, &bases, &mut out[..len])?;
        for (t, &got) in out[..len].iter().enumerate() {
            battery_window(&vals, start + t, &mut window);
            let want = want(&window);
            if !same_value(got, want) {
                return Err(EngineError::KernelMismatch {
                    detail: format!(
                        "window {window:?} (column {t} of a {len}-column row): {what} {got:?} \
                         vs bytecode {want:?}"
                    ),
                });
            }
        }
        start += len;
    }
    debug_assert_eq!(start, BATTERY);
    Ok(())
}

// ---------------------------------------------------------------------
// Compilation: tree -> folded tree -> hash-consed DAG -> bytecode.
// ---------------------------------------------------------------------

/// A hash-consed expression node: children are arena ids, constants are
/// keyed by bit pattern so `-0.0` and `0.0` stay distinct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Node {
    Tap(usize),
    Const(u64),
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    Div(usize, usize),
    Sqrt(usize),
    Abs(usize),
    MulAdd(usize, usize, usize),
}

impl Node {
    fn is_leaf(self) -> bool {
        matches!(self, Node::Tap(_) | Node::Const(_))
    }
}

/// Collapses pure-constant subtrees to literals, evaluating them with
/// the same scalar semantics the bytecode uses — a constant subtree's
/// folded value is bit-identical to evaluating it at run time, so
/// folding never changes results. No algebraic identities are applied
/// (`x + 0.0` is *not* rewritten: it can flip `-0.0` to `+0.0`).
fn fold(e: &KernelExpr) -> KernelExpr {
    let folded = match e {
        KernelExpr::Tap(_) | KernelExpr::Const(_) => e.clone(),
        KernelExpr::Add(a, b) => fold(a) + fold(b),
        KernelExpr::Sub(a, b) => fold(a) - fold(b),
        KernelExpr::Mul(a, b) => fold(a) * fold(b),
        KernelExpr::Div(a, b) => fold(a) / fold(b),
        KernelExpr::Sqrt(a) => fold(a).sqrt(),
        KernelExpr::Abs(a) => fold(a).abs(),
        KernelExpr::MulAdd(a, b, c) => fold(a).mul_add(fold(b), fold(c)),
    };
    if matches!(folded, KernelExpr::Const(_) | KernelExpr::Tap(_)) {
        folded
    } else if folded.max_tap().is_none() {
        KernelExpr::Const(folded.eval(&[]))
    } else {
        folded
    }
}

/// The hash-consing arena: structurally equal subtrees intern to the
/// same id, turning the tree into a DAG whose shared nodes CSE finds by
/// in-degree. The bytecode emitter and the register program
/// ([`crate::unroll`]) both lower from it.
#[derive(Default)]
pub(crate) struct Arena {
    pub(crate) nodes: Vec<Node>,
    ids: HashMap<Node, usize>,
}

impl Arena {
    fn intern(&mut self, node: Node) -> usize {
        if let Some(&id) = self.ids.get(&node) {
            return id;
        }
        let id = self.nodes.len();
        self.nodes.push(node);
        self.ids.insert(node, id);
        id
    }

    pub(crate) fn intern_expr(&mut self, e: &KernelExpr) -> usize {
        let node = match e {
            KernelExpr::Tap(k) => Node::Tap(*k),
            KernelExpr::Const(c) => Node::Const(c.to_bits()),
            KernelExpr::Add(a, b) => Node::Add(self.intern_expr(a), self.intern_expr(b)),
            KernelExpr::Sub(a, b) => Node::Sub(self.intern_expr(a), self.intern_expr(b)),
            KernelExpr::Mul(a, b) => Node::Mul(self.intern_expr(a), self.intern_expr(b)),
            KernelExpr::Div(a, b) => Node::Div(self.intern_expr(a), self.intern_expr(b)),
            KernelExpr::Sqrt(a) => Node::Sqrt(self.intern_expr(a)),
            KernelExpr::Abs(a) => Node::Abs(self.intern_expr(a)),
            KernelExpr::MulAdd(a, b, c) => {
                let (a, b, c) = (
                    self.intern_expr(a),
                    self.intern_expr(b),
                    self.intern_expr(c),
                );
                Node::MulAdd(a, b, c)
            }
        };
        self.intern(node)
    }

    /// Structural in-degree of every node (plus one for the root) — the
    /// number of places each value is consumed.
    pub(crate) fn use_counts(&self, root: usize) -> Vec<usize> {
        let mut counts = vec![0usize; self.nodes.len()];
        counts[root] += 1;
        for node in &self.nodes {
            match *node {
                Node::Tap(_) | Node::Const(_) => {}
                Node::Sqrt(a) | Node::Abs(a) => counts[a] += 1,
                Node::Add(a, b) | Node::Sub(a, b) | Node::Mul(a, b) | Node::Div(a, b) => {
                    counts[a] += 1;
                    counts[b] += 1;
                }
                Node::MulAdd(a, b, c) => {
                    counts[a] += 1;
                    counts[b] += 1;
                    counts[c] += 1;
                }
            }
        }
        counts
    }
}

/// Bytecode emission over the DAG: shared nodes get `Store` on first
/// emission and `Load` afterwards; `x + a*b` with a singly-used product
/// fuses to [`Op::MulAdd`].
struct Emitter<'a> {
    arena: &'a Arena,
    counts: &'a [usize],
    slot_of: Vec<Option<u16>>,
    emitted: Vec<bool>,
    ops: Vec<Op>,
}

impl Emitter<'_> {
    /// True when `id` is a product consumed exactly once — safe to fuse
    /// into its parent addition without bypassing a CSE slot.
    fn fusible_mul(&self, id: usize) -> Option<(usize, usize)> {
        match self.arena.nodes[id] {
            Node::Mul(a, b) if self.counts[id] == 1 => Some((a, b)),
            _ => None,
        }
    }

    fn emit(&mut self, id: usize) {
        if self.emitted[id] {
            if let Some(slot) = self.slot_of[id] {
                self.ops.push(Op::Load(slot));
                return;
            }
        }
        match self.arena.nodes[id] {
            Node::Tap(k) => self
                .ops
                .push(Op::Tap(u16::try_from(k).expect("tap range validated"))),
            Node::Const(bits) => self.ops.push(Op::Const(f64::from_bits(bits))),
            Node::Add(a, b) => {
                // Addition commutes bit-exactly in IEEE-754, so either
                // operand's product may take the fused slot.
                if let Some((x, y)) = self.fusible_mul(b) {
                    self.emit(a);
                    self.emit(x);
                    self.emit(y);
                    self.ops.push(Op::MulAdd);
                } else if let Some((x, y)) = self.fusible_mul(a) {
                    self.emit(b);
                    self.emit(x);
                    self.emit(y);
                    self.ops.push(Op::MulAdd);
                } else {
                    self.emit(a);
                    self.emit(b);
                    self.ops.push(Op::Add);
                }
            }
            Node::Sub(a, b) => {
                self.emit(a);
                self.emit(b);
                self.ops.push(Op::Sub);
            }
            Node::Mul(a, b) => {
                self.emit(a);
                self.emit(b);
                self.ops.push(Op::Mul);
            }
            Node::Div(a, b) => {
                self.emit(a);
                self.emit(b);
                self.ops.push(Op::Div);
            }
            Node::Sqrt(a) => {
                self.emit(a);
                self.ops.push(Op::Sqrt);
            }
            Node::Abs(a) => {
                self.emit(a);
                self.ops.push(Op::Abs);
            }
            Node::MulAdd(a, b, c) => {
                self.emit(c);
                self.emit(a);
                self.emit(b);
                self.ops.push(Op::MulAdd);
            }
        }
        if let Some(slot) = self.slot_of[id] {
            self.ops.push(Op::Store(slot));
        }
        self.emitted[id] = true;
    }
}

impl CompiledKernel {
    /// Lowers `expr` to bytecode for a `taps`-point window, running the
    /// constant-folding, CSE, and mul-add-fusion passes.
    ///
    /// # Errors
    ///
    /// [`EngineError::KernelCompile`] if the expression taps outside the
    /// window or exceeds the evaluator's fixed stack/slot capacity.
    pub fn compile(expr: &KernelExpr, taps: usize) -> Result<Self, EngineError> {
        if let Some(k) = expr.max_tap() {
            if k >= taps {
                return Err(EngineError::KernelCompile {
                    detail: format!("expression taps v[{k}] but the window has {taps} points"),
                });
            }
            if k > usize::from(u16::MAX) {
                return Err(EngineError::KernelCompile {
                    detail: format!("tap position {k} exceeds the bytecode's 16-bit operand"),
                });
            }
        }

        let folded = fold(expr);
        let mut arena = Arena::default();
        let root = arena.intern_expr(&folded);
        let counts = arena.use_counts(root);

        // Shared non-leaf values evaluate once into a slot.
        let mut slots = 0u16;
        let mut slot_of = vec![None; arena.nodes.len()];
        for (id, node) in arena.nodes.iter().enumerate() {
            if counts[id] >= 2 && !node.is_leaf() {
                if usize::from(slots) >= MAX_SLOTS {
                    return Err(EngineError::KernelCompile {
                        detail: format!("expression needs more than {MAX_SLOTS} CSE slots"),
                    });
                }
                slot_of[id] = Some(slots);
                slots += 1;
            }
        }

        let mut emitter = Emitter {
            arena: &arena,
            counts: &counts,
            slot_of,
            emitted: vec![false; arena.nodes.len()],
            ops: Vec::new(),
        };
        emitter.emit(root);
        let ops = emitter.ops;

        // Simulate the stack to size it (and catch emitter bugs).
        let mut sp = 0usize;
        let mut max_stack = 0usize;
        for op in &ops {
            match op {
                Op::Tap(_) | Op::Const(_) | Op::Load(_) => {
                    sp += 1;
                    max_stack = max_stack.max(sp);
                }
                Op::Add | Op::Sub | Op::Mul | Op::Div => sp -= 1,
                Op::MulAdd => sp -= 2,
                Op::Store(_) | Op::Sqrt | Op::Abs => {}
            }
        }
        debug_assert_eq!(sp, 1, "bytecode must leave exactly the result on the stack");
        if max_stack > MAX_STACK {
            return Err(EngineError::KernelCompile {
                detail: format!(
                    "expression needs operand stack depth {max_stack}, more than the \
                     evaluator's {MAX_STACK}"
                ),
            });
        }

        Ok(CompiledKernel {
            ops,
            taps,
            slots: usize::from(slots),
            max_stack,
            expr: folded,
            native: None,
        })
    }

    /// Compiles and validates: the bytecode is replayed against the
    /// reference closure on a battery of deterministic windows (edge
    /// values plus pseudo-random fills) and must agree bit-for-bit.
    ///
    /// # Errors
    ///
    /// As [`CompiledKernel::compile`], plus
    /// [`EngineError::KernelMismatch`] when any window diverges.
    pub fn compile_checked<C>(
        expr: &KernelExpr,
        taps: usize,
        reference: &C,
    ) -> Result<Self, EngineError>
    where
        C: Fn(&[f64]) -> f64 + ?Sized,
    {
        let ck = Self::compile(expr, taps)?;
        let vals = battery(taps);
        let mut window = vec![0.0f64; taps];
        for j in 0..BATTERY {
            battery_window(&vals, j, &mut window);
            let got = ck.eval(&window);
            let want = reference(&window);
            if !same_value(got, want) {
                return Err(EngineError::KernelMismatch {
                    detail: format!("window {window:?}: bytecode {got:?} vs closure {want:?}"),
                });
            }
        }
        Ok(ck)
    }

    /// Attaches a native row body, checked first: the battery of
    /// [`CompiledKernel::compile_checked`], laid out as rows of several
    /// lengths ([`replay_rows`]), must give the bytecode's bits in every
    /// column through both the slice form and the appending form —
    /// which must also append exactly one value per column after what
    /// the vector already holds. The sweep then runs the native body in
    /// place of the register program.
    ///
    /// # Errors
    ///
    /// [`EngineError::KernelMismatch`] if any column diverges.
    fn with_native_row(mut self, row: NativeRow) -> Result<Self, EngineError> {
        replay_rows(
            self.taps,
            "native row",
            |vals, bases, out| {
                row.run(vals, bases, out);
                Ok(())
            },
            |window| self.eval(window),
        )?;
        let mut appended: Vec<f64> = Vec::with_capacity(BATTERY + 1);
        replay_rows(
            self.taps,
            "native row append form",
            |vals, bases, out| {
                // A value already in the vector stays, and the row
                // lands after it.
                appended.clear();
                appended.push(f64::MAX);
                row.append(vals, bases, out.len(), &mut appended);
                if appended.len() != out.len() + 1 || appended[0] != f64::MAX {
                    return Err(EngineError::KernelMismatch {
                        detail: format!(
                            "native row append form left {} values after one for a {}-column row",
                            appended.len(),
                            out.len()
                        ),
                    });
                }
                out.copy_from_slice(&appended[1..]);
                Ok(())
            },
            |window| self.eval(window),
        )?;
        self.native = Some(row);
        Ok(self)
    }

    /// Compiles a [`Benchmark`]'s expression, validated against its own
    /// closure, and attaches its native row body when it has one —
    /// `Ok(None)` when the benchmark carries no expression.
    ///
    /// # Errors
    ///
    /// As [`CompiledKernel::compile_checked`], plus
    /// [`EngineError::KernelMismatch`] when the native row diverges from
    /// the bytecode.
    pub fn for_benchmark(bench: &Benchmark) -> Result<Option<Self>, EngineError> {
        Self::for_stage(&bench.stage())
    }

    /// [`CompiledKernel::for_benchmark`] for stage metadata (a stage's
    /// native row reads as many taps as its window has).
    pub(crate) fn for_stage(stage: &KernelStage) -> Result<Option<Self>, EngineError> {
        let Some(expr) = stage.expr() else {
            return Ok(None);
        };
        let ck = Self::compile_checked(expr, stage.window().len(), &stage.compute_fn())?;
        match stage.native_row() {
            Some(row) => ck.with_native_row(row).map(Some),
            None => Ok(Some(ck)),
        }
    }

    /// The checked native row body, when one is attached.
    pub(crate) fn native_row(&self) -> Option<NativeRow> {
        self.native
    }

    /// The window size the bytecode was compiled for.
    #[must_use]
    pub fn taps(&self) -> usize {
        self.taps
    }

    /// Number of bytecode operations (after folding, CSE, and fusion).
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Number of CSE slots the bytecode uses.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slots
    }

    /// The constant-folded source expression this bytecode was lowered
    /// from — the register program's input.
    pub(crate) fn folded_expr(&self) -> &KernelExpr {
        &self.expr
    }

    /// Evaluates the bytecode on one window in declared offset order —
    /// bit-identical to the source expression's
    /// [`KernelExpr::eval`].
    ///
    /// # Panics
    ///
    /// Panics if `window` is shorter than [`CompiledKernel::taps`].
    #[must_use]
    pub fn eval(&self, window: &[f64]) -> f64 {
        let mut stack = [0.0f64; MAX_STACK];
        let mut slots = [0.0f64; MAX_SLOTS];
        let mut sp = 0usize;
        for op in &self.ops {
            match *op {
                Op::Tap(k) => {
                    stack[sp] = window[usize::from(k)];
                    sp += 1;
                }
                Op::Const(c) => {
                    stack[sp] = c;
                    sp += 1;
                }
                Op::Load(s) => {
                    stack[sp] = slots[usize::from(s)];
                    sp += 1;
                }
                Op::Store(s) => slots[usize::from(s)] = stack[sp - 1],
                Op::Add => {
                    sp -= 1;
                    stack[sp - 1] += stack[sp];
                }
                Op::Sub => {
                    sp -= 1;
                    stack[sp - 1] -= stack[sp];
                }
                Op::Mul => {
                    sp -= 1;
                    stack[sp - 1] *= stack[sp];
                }
                Op::Div => {
                    sp -= 1;
                    stack[sp - 1] /= stack[sp];
                }
                Op::Sqrt => stack[sp - 1] = stack[sp - 1].sqrt(),
                Op::Abs => stack[sp - 1] = stack[sp - 1].abs(),
                Op::MulAdd => {
                    sp -= 2;
                    // Two roundings, product then sum; never `mul_add`.
                    stack[sp - 1] += stack[sp] * stack[sp + 1];
                }
            }
        }
        stack[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_kernels::{extra_suite, paper_suite};

    fn tap(k: usize) -> KernelExpr {
        KernelExpr::tap(k)
    }

    #[test]
    fn backend_parse_and_display() {
        assert_eq!(
            "compiled".parse::<KernelBackend>(),
            Ok(KernelBackend::Compiled)
        );
        assert_eq!(
            "CLOSURE".parse::<KernelBackend>(),
            Ok(KernelBackend::Closure)
        );
        assert!("simd".parse::<KernelBackend>().is_err());
        assert_eq!(KernelBackend::Compiled.to_string(), "compiled");
        assert_eq!(KernelBackend::default(), KernelBackend::Compiled);
    }

    #[test]
    fn constant_subtrees_fold_to_literals() {
        // (2 + 3) * t0: the constant sum folds, leaving Const(5), Tap, Mul.
        let e = (KernelExpr::constant(2.0) + KernelExpr::constant(3.0)) * tap(0);
        let ck = CompiledKernel::compile(&e, 1).unwrap();
        assert_eq!(ck.op_count(), 3);
        assert_eq!(ck.eval(&[7.0]), 35.0);
    }

    #[test]
    fn cse_shares_repeated_subexpressions() {
        // (t0 + t1) appears three times; with CSE it evaluates once.
        let s = tap(0) + tap(1);
        let e = s.clone() / s.clone() + s.sqrt();
        let ck = CompiledKernel::compile(&e, 2).unwrap();
        assert_eq!(ck.slot_count(), 1);
        // Tap Tap Add Store Load Div Load Sqrt Add -> 9 ops (vs 11 unshared).
        assert_eq!(ck.op_count(), 9);
        let w = [2.0, 7.0];
        assert_eq!(ck.eval(&w), 9.0f64 / 9.0 + 9.0f64.sqrt());
    }

    #[test]
    fn mul_add_fuses_without_changing_rounding() {
        // t0*t1 + t2: fusible product; result must keep two roundings.
        let e = tap(0) * tap(1) + tap(2);
        let ck = CompiledKernel::compile(&e, 3).unwrap();
        // Tap2 Tap0 Tap1 MulAdd — 4 ops instead of 5.
        assert_eq!(ck.op_count(), 4);
        // 0.1 * 10.0 rounds to exactly 1.0 in binary64, so two-rounding
        // evaluation cancels to 0.0; a *contracted* FMA keeps the exact
        // product's residue and does not. The fused opcode must cancel.
        let w = [0.1, 10.0, -1.0];
        assert_eq!(ck.eval(&w), 0.0);
        assert_ne!(ck.eval(&w), 0.1f64.mul_add(10.0, -1.0));
    }

    #[test]
    fn shared_products_are_not_fused() {
        // p = t0 * t1 is shared: fusing p into one of its uses would
        // bypass the slot. Both uses must see the same stored value.
        let p = tap(0) * tap(1);
        let e = (p.clone() + tap(2)) + (p + tap(3));
        let ck = CompiledKernel::compile(&e, 4).unwrap();
        assert_eq!(ck.slot_count(), 1);
        let w = [3.0, 5.0, 1.0, 2.0];
        assert_eq!(ck.eval(&w), (15.0 + 1.0) + (15.0 + 2.0));
    }

    #[test]
    fn explicit_mul_add_form_compiles() {
        let e = tap(0).mul_add(tap(1), tap(2));
        let ck = CompiledKernel::compile(&e, 3).unwrap();
        let w = [0.1, 10.0, -1.0];
        assert_eq!(ck.eval(&w), 0.1f64 * 10.0 + -1.0);
    }

    #[test]
    fn out_of_window_tap_is_a_compile_error() {
        let e = tap(5);
        let err = CompiledKernel::compile(&e, 3).unwrap_err();
        assert!(matches!(err, EngineError::KernelCompile { .. }), "{err}");
    }

    #[test]
    fn overdeep_expression_is_a_compile_error() {
        // A fully right-nested chain needs stack depth = chain length.
        let mut e = tap(0);
        for _ in 0..MAX_STACK {
            e = tap(0) * e; // right operand nests, depth grows per level
        }
        let err = CompiledKernel::compile(&e, 1).unwrap_err();
        assert!(matches!(err, EngineError::KernelCompile { .. }), "{err}");
    }

    #[test]
    fn compile_checked_accepts_faithful_and_rejects_wrong() {
        let e = tap(0) + 2.0 * tap(1);
        let faithful = |v: &[f64]| v[0] + 2.0 * v[1];
        assert!(CompiledKernel::compile_checked(&e, 2, &faithful).is_ok());
        let wrong = |v: &[f64]| v[0] + 2.5 * v[1];
        let err = CompiledKernel::compile_checked(&e, 2, &wrong).unwrap_err();
        assert!(matches!(err, EngineError::KernelMismatch { .. }), "{err}");
    }

    #[test]
    fn every_suite_benchmark_compiles_checked() -> Result<(), EngineError> {
        // Typed propagation, not panics: a failing benchmark surfaces
        // as the same `EngineError::KernelCompile` a serving worker
        // would report instead of dying.
        for b in paper_suite().into_iter().chain(extra_suite()) {
            let ck =
                CompiledKernel::for_benchmark(&b)?.ok_or_else(|| EngineError::KernelCompile {
                    detail: format!("{} has no expression", b.name()),
                })?;
            assert_eq!(ck.taps(), b.window().len());
            assert!(ck.max_stack <= MAX_STACK);
        }
        Ok(())
    }

    #[test]
    fn rician_cse_finds_the_shared_average() {
        let b = stencil_kernels::rician();
        let ck = CompiledKernel::for_benchmark(&b).unwrap().unwrap();
        // avg is used three times; exactly one slot expected.
        assert_eq!(ck.slot_count(), 1);
    }
}
