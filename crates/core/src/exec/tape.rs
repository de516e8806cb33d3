//! The tape: one rank's lowering of a [`CompiledUnit`] to linear code.
//!
//! [`lower_program`] runs once per rank, before execution, and turns
//! every unit reachable from the main program — once per distinct
//! binding of its array dummies — into a [`Tape`]: expressions become
//! three-address code over a float register file (float scalar slots,
//! then the unit's constants, then the values of the block being run),
//! `.and.`/`.or.` become jumps, every array access becomes one affine form
//! `c0 + Σ cₖ·ints[k]` that indexes the rank's local data slice
//! directly, and every CP guard atom becomes a range test against
//! constants of this rank. What an access or a guard needs to know about
//! the rank (slot → global array → window base → strides → owned range)
//! is folded here and never looked at again while the program runs.
//!
//! The lowering also learns, per loop, the range of the loop variable
//! for which some statement of the body can pass its guard on this rank
//! (its *hull*), shrinks the loop to it, and drops every range test the
//! resulting ranges decide ([`Lower::hull`], [`Lower::guard`]).
//!
//! Inside a loop an access addresses by a *base* the loop maintains: a
//! hidden int slot holding the non-constant part of its offset, set when
//! the loop starts and stepped by a constant per trip ([`Lower::base`]).
//! A statement `x − y·z` over three based loads and a based store, or
//! `x − s·z` with `s` a scalar slot or a constant, becomes one
//! instruction ([`Lower::fuse`]).
//!
//! A loop of a few constant trips inside an interpreted loop — BT's 5×5
//! block updates and `binvc`'s Gauss–Jordan nest — is lowered as one
//! copy of its body per value of its variable, the variable *pinned*:
//! folded into every form's constant and known as a singleton to the
//! facts ([`Lower::unrolled`]). So is such a level of an overlapped or
//! pipelined nest inside its strip level and below its interior term's
//! test — the stencil's `m = 1, 5` of SP's and BT's `compute_rhs`, BT's
//! pipelined 5×5 back-substitution ([`Lower::nest`]). An `if` whose
//! conditions the facts decide is lowered as the one arm that runs
//! ([`Lower::arm`]).
//!
//! Inside a straight-line block a value the block already computed is
//! not computed again: its register is reused ([`Lower::value`]).
//!
//! The lowering borrows the [`NodeProgram`](crate::codegen::NodeProgram):
//! message lists, pipeline levels and subscripts are referenced, not
//! copied.

use super::node::ProcState;
use super::serial::eval_intrinsic;
use crate::codegen::{
    CExpr, CIdx, CompiledUnit, FormalSlot, Guard, GuardAtom, NodeOp, PipeLevel, Strip,
    INTRINSIC_NAMES,
};
use crate::transfer::Transfer;
use dhpf_fortran::ast::BinOp;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::mem::Discriminant;

/// Binding of an array dummy no actual argument was bound to.
pub(super) const UNBOUND: usize = usize::MAX;

/// Most trips of a loop lowered as copies of its body.
const UNROLL_TRIPS: i64 = 5;

/// Most statements one unrolled nest lowers to: `binvc`'s Gauss–Jordan
/// nest on a 5×5 block, 225 statements once its `if`s are decided.
const UNROLL_STMTS: u64 = 256;

/// One tape instruction. `d`, `a`, `b` and `src` are float registers —
/// the arithmetic instructions are `(d, a, b)`: `d = a op b`, or
/// `(d, a)`: `d = op a` — `to` and `body` are tape positions, and the
/// other fields index the tables of the [`Tape`] the instruction
/// belongs to.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(super) enum Ins {
    Add(u32, u32, u32),
    Sub(u32, u32, u32),
    Mul(u32, u32, u32),
    Div(u32, u32, u32),
    Pow(u32, u32, u32),
    Lt(u32, u32, u32),
    Le(u32, u32, u32),
    Gt(u32, u32, u32),
    Ge(u32, u32, u32),
    Eq(u32, u32, u32),
    Ne(u32, u32, u32),
    Min(u32, u32, u32),
    Max(u32, u32, u32),
    Mod(u32, u32, u32),
    Sign(u32, u32, u32),
    Neg(u32, u32),
    Abs(u32, u32),
    Sqrt(u32, u32),
    Exp(u32, u32),
    Trunc(u32, u32),
    Sin(u32, u32),
    Cos(u32, u32),
    /// `d = (a != 0) as f64`: the value of `.and.`/`.or.` when the left
    /// operand did not decide it.
    Truth {
        d: u32,
        a: u32,
    },
    /// `.and.`: if `a == 0` then `d = 0` and jump over the right operand.
    AndSkip {
        d: u32,
        a: u32,
        to: u32,
    },
    /// `.or.`: if `a != 0` then `d = 1` and jump over the right operand.
    OrSkip {
        d: u32,
        a: u32,
        to: u32,
    },
    /// `d = aff as f64`.
    IntToF {
        d: u32,
        aff: Aff,
    },
    /// `d = data[sites[site]]`.
    Load {
        d: u32,
        site: u32,
    },
    /// `data[sites[site]] = src`, then charge `flops`.
    Store {
        site: u32,
        src: u32,
        flops: f64,
    },
    /// [`Ins::Load`] of a site its loop maintains a base for.
    LoadBased {
        d: u32,
        site: u32,
    },
    /// [`Ins::Store`] to a site its loop maintains a base for.
    StoreBased {
        site: u32,
        src: u32,
        flops: f64,
    },
    /// The statement `fused[stmt]`: `data[d] = data[a] − data[b]·data[c]`
    /// over four based sites, rounded after the product and after the
    /// difference, then charge its flops.
    MulSub {
        stmt: u32,
    },
    /// The statement `fused[stmt]` with `b` a register, a scalar slot or
    /// a constant: `data[d] = data[a] − b·data[c]`, rounded as
    /// [`Ins::MulSub`].
    MulSubReg {
        stmt: u32,
    },
    /// Float scalar slot (a register) `= src`, then charge `flops`.
    StoreF {
        slot: u32,
        src: u32,
        flops: f64,
    },
    /// Integer scalar slot `= src` truncated, then charge `flops`.
    StoreI {
        slot: u32,
        src: u32,
        flops: f64,
    },
    /// One AND-term of a CP guard: jump unless every range test of
    /// `tests[first..end]` holds.
    Test {
        first: u32,
        end: u32,
        to: u32,
    },
    Jump {
        to: u32,
    },
    JumpIfZero {
        a: u32,
        to: u32,
    },
    /// Evaluate the bounds of `loops[l]`; write the loop variable and
    /// fall into the body, or jump past the loop when it runs no trip.
    LoopEnter {
        l: u32,
        to: u32,
    },
    /// Advance `loops[l]`; write the loop variable and jump back to
    /// `body`, or fall out of the loop.
    LoopNext {
        l: u32,
        body: u32,
    },
    Call {
        call: u32,
    },
    /// Communication op `comms[comm]`; its nest, if any, follows inline.
    Comm {
        comm: u32,
    },
    /// Raise `fails[msg]` as an [`ExecError`](super::node::ExecError).
    Fail {
        msg: u32,
    },
}

// the tape of a NAS solver is a few thousand instructions: keep them
// small enough that it stays in the first-level cache
const _: () = assert!(std::mem::size_of::<Ins>() <= 24);

impl Ins {
    /// The jump target of a branching instruction, for back-patching.
    fn target_mut(&mut self) -> &mut u32 {
        match self {
            Ins::AndSkip { to, .. }
            | Ins::OrSkip { to, .. }
            | Ins::Test { to, .. }
            | Ins::Jump { to }
            | Ins::JumpIfZero { to, .. }
            | Ins::LoopEnter { to, .. } => to,
            other => unreachable!("{other:?} has no jump target"),
        }
    }
}

/// Affine integer form `c0 + Σ coef·ints[slot]` over a run of the
/// tape's term pool, like terms merged. The pool is interned: two equal
/// forms are two equal `Aff`s.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(super) struct Aff {
    c0: i64,
    terms: (u32, u32),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Term {
    slot: u32,
    coef: i64,
}

/// [`Site::base`] of a site no loop maintains a base for.
pub(super) const NO_BASE: u32 = u32::MAX;

/// One array access: flat offset into the data of global array `arr`.
pub(super) struct Site {
    pub arr: u32,
    pub off: Aff,
    /// Hidden int slot that holds `off` less its constant while the
    /// site's innermost loop runs, or [`NO_BASE`].
    pub base: u32,
}

impl Site {
    /// The flat offset of a based site: its base plus its constant.
    #[inline]
    pub fn at(&self, ints: &[i64]) -> usize {
        ints[self.base as usize].wrapping_add(self.off.c0) as usize
    }
}

/// A statement `data[d] = data[a] − data[b]·data[c]` over based sites;
/// of an [`Ins::MulSubReg`], `b` is a register.
pub(super) struct Fused {
    pub a: u32,
    pub b: u32,
    pub c: u32,
    pub d: u32,
    pub flops: f64,
}

/// An address base: from a loop's first iteration on, hidden int slot
/// `slot` holds `form` (the terms of an offset, without its constant),
/// and each further iteration adds `inc`, the coefficient of the loop
/// variable in `form` times the step.
pub(super) struct Base {
    pub slot: u32,
    pub form: Aff,
    pub inc: i64,
}

pub(super) struct RangeTest {
    pub aff: Aff,
    pub lo: i64,
    pub hi: i64,
}

pub(super) struct LoopDesc {
    pub var: u32,
    /// Hidden int slots `ctr` (current value) and `ctr + 1` (upper
    /// bound), so that a body assigning the loop variable cannot change
    /// the trip count; a loop with a `hull` also has `ctr + 2`, the last
    /// value of its unshrunk range.
    pub ctr: u32,
    pub lo: Aff,
    pub hi: Aff,
    pub step: i64,
    /// At the strip level of a pipelined nest, the hidden int slots
    /// `(lo, hi)` that hold the current chunk's window.
    pub chunk: Option<u32>,
    /// Values of the variable outside `hull` run no statement on this
    /// rank. A loop with a hull visits only the iterations inside its
    /// window — the hull, at a strip level intersected with the chunk —
    /// and leaves the variable at the last value of the whole range.
    pub hull: Option<(i64, i64)>,
    /// The range of [`Tape::bases`] holding the bases of the sites the
    /// body addresses directly, those that move with the variable
    /// (`inc ≠ 0`) first, up to `moving`.
    pub bases: (usize, usize),
    pub moving: usize,
    /// Trips of the loops unrolled in the body, per trip of this loop:
    /// they count as started with it.
    pub unrolled: u64,
}

impl LoopDesc {
    /// The part of the range `lo, hi` (by `step`) inside the window
    /// `hlo..=hhi`, on the lattice `lo + k·step`; empty (`lo` past `hi`)
    /// when none is.
    #[inline]
    pub fn shrink(&self, lo: i64, hi: i64, (hlo, hhi): (i64, i64)) -> (i64, i64) {
        // first lattice point at or past `edge`, the hull's near end
        let first = |edge: i64| {
            let past = edge.saturating_sub(lo);
            let steps = past.saturating_add(self.step - self.step.signum()) / self.step;
            lo.saturating_add(steps.saturating_mul(self.step))
        };
        if self.step > 0 {
            (if hlo <= lo { lo } else { first(hlo) }, hi.min(hhi))
        } else {
            (if hhi >= lo { lo } else { first(hhi) }, hi.max(hlo))
        }
    }
}

/// What one rank's lowering decided, summed over its tapes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LowerStats {
    /// Loops lowered as loops.
    pub loops: u64,
    /// Loops shrunk to a hull (an empty hull and an interior box included).
    pub loops_clamped: u64,
    /// Range tests the ranges proved to hold: not emitted.
    pub tests_true: u64,
    /// Range tests the ranges proved to fail: their OR-term is dead.
    pub tests_dead: u64,
    /// Range tests left on the tape.
    pub tests_kept: u64,
    /// Statements with no live OR-term, and statements of loops with an
    /// empty hull: not emitted.
    pub stmts_dropped: u64,
    /// Access sites lowered inside a loop.
    pub sites_in_loops: u64,
    /// Of those, the sites that address by a base their loop maintains.
    pub sites_based: u64,
    /// Statements `x − y·z` lowered to one [`Ins::MulSub`], and `x − s·z`
    /// to one [`Ins::MulSubReg`].
    pub stmts_fused: u64,
    /// Loops lowered as copies of their body, one per trip.
    pub loops_unrolled: u64,
    /// `if`s the facts decide: lowered as the arm that runs, if any, and
    /// no test.
    pub ifs_decided: u64,
    /// Values a straight-line block had computed already: not computed
    /// again, their register reused.
    pub values_reused: u64,
}

impl LowerStats {
    /// The counts by name, for reports.
    pub fn named(&self) -> [(&'static str, u64); 12] {
        [
            ("loops", self.loops),
            ("loops_clamped", self.loops_clamped),
            ("tests_true", self.tests_true),
            ("tests_dead", self.tests_dead),
            ("tests_kept", self.tests_kept),
            ("stmts_dropped", self.stmts_dropped),
            ("sites_in_loops", self.sites_in_loops),
            ("sites_based", self.sites_based),
            ("stmts_fused", self.stmts_fused),
            ("loops_unrolled", self.loops_unrolled),
            ("ifs_decided", self.ifs_decided),
            ("values_reused", self.values_reused),
        ]
    }

    /// The counts of two lowerings added.
    fn plus(self, o: LowerStats) -> LowerStats {
        LowerStats {
            loops: self.loops + o.loops,
            loops_clamped: self.loops_clamped + o.loops_clamped,
            tests_true: self.tests_true + o.tests_true,
            tests_dead: self.tests_dead + o.tests_dead,
            tests_kept: self.tests_kept + o.tests_kept,
            stmts_dropped: self.stmts_dropped + o.stmts_dropped,
            sites_in_loops: self.sites_in_loops + o.sites_in_loops,
            sites_based: self.sites_based + o.sites_based,
            stmts_fused: self.stmts_fused + o.stmts_fused,
            loops_unrolled: self.loops_unrolled + o.loops_unrolled,
            ifs_decided: self.ifs_decided + o.ifs_decided,
            values_reused: self.values_reused + o.values_reused,
        }
    }
}

pub(super) struct CallSite {
    pub tape: usize,
    /// (callee int slot, caller register holding the actual)
    pub ints: Vec<(u32, u32)>,
    /// (callee float register, caller register holding the actual)
    pub floats: Vec<(u32, u32)>,
}

pub(super) enum Comm<'p> {
    Exchange {
        msgs: &'p [Transfer<usize>],
        tag: u64,
        plan: u32,
    },
    Overlap(Overlap<'p>),
    Pipeline(Pipe<'p>),
}

pub(super) struct Overlap<'p> {
    pub msgs: &'p [Transfer<usize>],
    pub tag: u64,
    pub plan: u32,
    /// Tape ranges of the nest's interior and boundary passes.
    pub interior: (usize, usize),
    pub boundary: (usize, usize),
}

pub(super) struct Pipe<'p> {
    pub levels: &'p [PipeLevel],
    /// The strip, and the hidden int slots `(lo, hi)` that hold the
    /// current chunk's window.
    pub strip: Option<(&'p Strip, u32)>,
    /// The hops into this rank, and out of it, in plan order.
    pub recv: Vec<&'p Transfer<usize>>,
    pub send: Vec<&'p Transfer<usize>>,
    pub tag: u64,
    pub plan: u32,
    /// Tape range of the nest.
    pub nest: (usize, usize),
}

/// One unit lowered for one rank and one binding of its array slots.
pub(super) struct Tape<'p> {
    pub unit: &'p CompiledUnit,
    /// Local array slot → global array id ([`UNBOUND`] for a dummy no
    /// actual was passed for).
    pub binding: Vec<usize>,
    pub code: Vec<Ins>,
    /// The term runs of every affine form, each distinct run once.
    terms: Vec<Term>,
    pub sites: Vec<Site>,
    /// For the window check of debug builds, per site: its unfolded
    /// subscripts, and the range of `pins` holding the values of the
    /// unrolled loop variables folded into its offset.
    #[cfg(debug_assertions)]
    pub unfolded: Vec<(&'p [CIdx], (u32, u32))>,
    /// `(slot, value)` of the pinned variables of unrolled copies.
    #[cfg(debug_assertions)]
    pub pins: Vec<(u32, i64)>,
    pub bases: Vec<Base>,
    pub fused: Vec<Fused>,
    pub tests: Vec<RangeTest>,
    pub loops: Vec<LoopDesc>,
    pub calls: Vec<CallSite>,
    pub comms: Vec<Comm<'p>>,
    pub fails: Vec<String>,
    /// Constants, preloaded into registers `n_floats..`.
    pub consts: Vec<f64>,
    /// Int slots including the hidden ones.
    pub n_ints: usize,
    /// Float registers: scalar slots, constants, values.
    pub n_regs: usize,
    /// What the lowering of this tape decided.
    pub stats: LowerStats,
}

impl Tape<'_> {
    #[inline]
    pub fn eval(&self, a: Aff, ints: &[i64]) -> i64 {
        self.terms[a.terms.0 as usize..a.terms.1 as usize]
            .iter()
            .fold(a.c0, |acc, t| acc + ints[t.slot as usize] * t.coef)
    }

    /// [`Self::eval`] in wrapping arithmetic, for bases: a base is set
    /// whether or not a guard lets any of its accesses run, and a slot
    /// no executed access reads may hold any value.
    #[inline]
    pub fn eval_wrapping(&self, a: Aff, ints: &[i64]) -> i64 {
        self.terms[a.terms.0 as usize..a.terms.1 as usize]
            .iter()
            .fold(a.c0, |acc, t| {
                acc.wrapping_add(ints[t.slot as usize].wrapping_mul(t.coef))
            })
    }
}

/// Lower the main unit and, transitively, every callee specialisation.
/// Tape 0 is the main unit. The stats are those of all tapes.
pub(super) fn lower_program<'p>(st: &ProcState<'p>) -> (Vec<Tape<'p>>, LowerStats) {
    let tapes = lower(st, true);
    let stats = tapes
        .iter()
        .fold(LowerStats::default(), |s, t| s.plus(t.stats));
    (tapes, stats)
}

/// The plain lowering: it learns no ranges, so every loop runs its
/// whole range and every guard keeps every test, bases no access and
/// fuses no statement. The reference the lowering is checked against.
#[cfg(test)]
pub(super) fn lower_program_plain<'p>(st: &ProcState<'p>) -> Vec<Tape<'p>> {
    lower(st, false)
}

fn lower<'p>(st: &ProcState<'p>, opt: bool) -> Vec<Tape<'p>> {
    let prog = st.prog;
    // (unit, binding) of every specialisation discovered so far, in tape
    // order; lowering a call site appends the ones it is first to need
    let mut specs = vec![(prog.main, static_binding(&prog.units[prog.main]))];
    let mut tapes = Vec::new();
    while let Some((unit, binding)) = specs.get(tapes.len()).cloned() {
        let unit = &prog.units[unit];
        tapes.push(Lower::unit(st, &mut specs, unit, binding, opt));
    }
    tapes
}

/// A unit's array slots before any actual is bound to a dummy.
fn static_binding(unit: &CompiledUnit) -> Vec<usize> {
    let globals = unit.array_global.iter();
    globals.map(|g| g.unwrap_or(UNBOUND)).collect()
}

fn idx(i: usize) -> u32 {
    u32::try_from(i).expect("tape index fits in 32 bits")
}

/// A closed integer range, empty when its first end is above its
/// second. `i64::MIN` and `i64::MAX` as ends mean "unbounded": every
/// operation that reaches them stays there.
type Range = (i64, i64);
const ALL: Range = (i64::MIN, i64::MAX);
const EMPTY: Range = (1, 0);

fn unbounded(x: i64) -> bool {
    x == i64::MIN || x == i64::MAX
}

/// `x + y` on range ends.
fn plus(x: i64, y: i64) -> i64 {
    match (unbounded(x), unbounded(y)) {
        (true, _) => x,
        (_, true) => y,
        _ => x.saturating_add(y),
    }
}

/// `x - y` on range ends.
fn minus(x: i64, y: i64) -> i64 {
    plus(x, scale(y, -1))
}

/// `coef · x` on a range end, `coef` nonzero.
fn scale(x: i64, coef: i64) -> i64 {
    match x {
        i64::MIN | i64::MAX if (x > 0) == (coef > 0) => i64::MAX,
        i64::MIN | i64::MAX => i64::MIN,
        _ => x.saturating_mul(coef),
    }
}

fn union(a: Range, b: Range) -> Range {
    if a.0 > a.1 {
        b
    } else if b.0 > b.1 {
        a
    } else {
        (a.0.min(b.0), a.1.max(b.1))
    }
}

fn intersect(a: Range, b: Range) -> Range {
    (a.0.max(b.0), a.1.min(b.1))
}

/// What a loop runs: the inner levels of a single-chain nest, then ops,
/// which run where the AND-term `within` holds.
#[derive(Clone, Copy)]
struct Body<'p> {
    levels: &'p [PipeLevel],
    within: &'p [GuardAtom],
    ops: &'p [NodeOp],
}

impl<'p> Body<'p> {
    fn of(ops: &'p [NodeOp]) -> Self {
        Body {
            levels: &[],
            within: &[],
            ops,
        }
    }
}

/// Where the ops of an unrolled body run, per trip of the innermost
/// open loop.
#[derive(Clone, Copy)]
enum Runs {
    /// On every trip.
    Always,
    /// Where a test kept on the tape before the copies lets them.
    Tested,
    /// Nowhere: the facts decide the nest's term against them. The
    /// copies still count their trips.
    Never,
}

/// A loop whose body is being lowered, innermost last in [`Lower::open`].
struct Open {
    var: usize,
    step: i64,
    /// The body's sites may take bases: the lowering is not the plain
    /// one and only the loop writes its variable.
    basing: bool,
    /// Where the int slots the body writes ([`written`]) start in
    /// [`Lower::written`].
    written: usize,
    /// Where the bases of the sites lowered so far directly in the body
    /// start in [`Lower::pending`].
    bases: usize,
    /// Trips of the loops unrolled so far in the body, per trip.
    unrolled: u64,
    /// [`Lower::charged`] outside the loop.
    charged: bool,
}

/// A value a block computes, by what it is computed from: the key of
/// [`Lower::memo`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Value {
    /// A load of global array `arr` at an offset (pinned variables
    /// folded into its constant).
    Load(u32, Aff),
    /// An integer form as a float.
    Int(Aff),
    /// A pure operation on its operand registers, in order (the second
    /// [`NO_REG`] for a unary one): `a·b` and `b·a` are two values, since
    /// a product of two NaNs keeps the payload of the first.
    Op(Discriminant<Ins>, u32, u32),
}

/// The missing second operand of a unary [`Value::Op`].
const NO_REG: u32 = u32::MAX;

/// The hasher of [`Lower::memo`], FxHash's step: a [`Value`] is a few
/// integers the program under lowering chooses, not an adversary, and
/// SipHash took a third of the time a small unit's lowering took.
#[derive(Default)]
struct ValueHasher(u64);

impl Hasher for ValueHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_i64(&mut self, x: i64) {
        self.write_u64(x as u64);
    }

    fn write_isize(&mut self, x: isize) {
        self.write_u64(x as u64);
    }
}

struct Lower<'a, 'p> {
    st: &'a ProcState<'p>,
    specs: &'a mut Vec<(usize, Vec<usize>)>,
    tape: Tape<'p>,
    /// The first register of the values of a block, and the next one no
    /// value holds.
    vals0: u32,
    next: u32,
    /// Value numbering: the values the straight-line block being lowered
    /// has computed, and the register holding each. Emptied where control
    /// can enter other than by falling through ([`Self::land`], the body
    /// of a loop, the ends of a nest run on its own) and after a call or
    /// communication; a store drops what it may change.
    memo: HashMap<Value, u32, BuildHasherDefault<ValueHasher>>,
    /// Learn ranges, base accesses, fuse statements, reuse values; off
    /// only for the reference lowering of the tests.
    opt: bool,
    /// The loops around the point being lowered, innermost last, and the
    /// slots their bodies write and the bases of their sites, the
    /// innermost loop's last.
    open: Vec<Open>,
    written: Vec<usize>,
    pending: Vec<Base>,
    /// What is known of each int slot at the point being lowered: the
    /// range of a loop variable inside its loop, [`ALL`] anywhere else.
    /// Nothing is known on entry to a unit (a tape serves every call
    /// site of its binding) and a range never outlives its loop.
    facts: Vec<Range>,
    slots: SlotUse,
    /// Each distinct run of terms, and where it lies in the term pool.
    interned: BTreeMap<Vec<Term>, (u32, u32)>,
    /// The variables of the unrolled copies around the point being
    /// lowered and their values, innermost last.
    pinned: Vec<(usize, i64)>,
    /// The point being lowered runs once per trip of the innermost open
    /// loop: no `if` arm that may not run, and no kept test of a nest's
    /// term, lies between; the arm of a decided `if` runs. Only there is
    /// a loop unrolled, so that its trips count as a constant per trip of
    /// that loop. The unrolled levels of a nest count so below its term's
    /// test: interpreted, they ran on every trip, the test inside them.
    charged: bool,
}

impl<'a, 'p> Lower<'a, 'p> {
    fn unit(
        st: &'a ProcState<'p>,
        specs: &'a mut Vec<(usize, Vec<usize>)>,
        unit: &'p CompiledUnit,
        binding: Vec<usize>,
        opt: bool,
    ) -> Tape<'p> {
        // the registers of values follow the constants, so constants
        // are collected before any code is emitted
        let mut consts = Vec::new();
        collect_consts(&unit.ops, &mut consts);
        let vals0 = unit.n_floats + consts.len();
        let mut lw = Lower {
            st,
            specs,
            vals0: idx(vals0),
            next: idx(vals0),
            memo: HashMap::default(),
            opt,
            open: Vec::new(),
            written: Vec::new(),
            pending: Vec::new(),
            facts: vec![ALL; unit.n_ints],
            slots: SlotUse::of(unit),
            interned: BTreeMap::new(),
            pinned: Vec::new(),
            charged: false,
            tape: Tape {
                unit,
                binding,
                code: Vec::new(),
                terms: Vec::new(),
                sites: Vec::new(),
                #[cfg(debug_assertions)]
                unfolded: Vec::new(),
                #[cfg(debug_assertions)]
                pins: Vec::new(),
                bases: Vec::new(),
                fused: Vec::new(),
                tests: Vec::new(),
                loops: Vec::new(),
                calls: Vec::new(),
                comms: Vec::new(),
                fails: Vec::new(),
                consts,
                n_ints: unit.n_ints,
                n_regs: vals0,
                stats: LowerStats::default(),
            },
        };
        lw.ops(&unit.ops);
        lw.tape
    }

    fn pc(&self) -> u32 {
        idx(self.tape.code.len())
    }

    /// Emit an instruction; returns its position.
    fn emit(&mut self, ins: Ins) -> usize {
        self.tape.code.push(ins);
        self.tape.code.len() - 1
    }

    /// Point the branches at `at` to the current position: control can
    /// enter here from elsewhere, so the block's values are forgotten
    /// when one does.
    fn land(&mut self, at: impl IntoIterator<Item = usize>) {
        let here = self.pc();
        for i in at {
            *self.tape.code[i].target_mut() = here;
            self.memo.clear();
        }
    }

    fn fail(&mut self, msg: String) {
        self.tape.fails.push(msg);
        let msg = idx(self.tape.fails.len() - 1);
        self.emit(Ins::Fail { msg });
    }

    fn hidden_ints(&mut self, n: usize) -> u32 {
        let first = idx(self.tape.n_ints);
        self.tape.n_ints += n;
        first
    }

    /// A register no value of the block holds.
    fn fresh(&mut self) -> u32 {
        let d = self.next;
        self.next += 1;
        self.tape.n_regs = self.tape.n_regs.max(self.next as usize);
        d
    }

    /// The register holding `key`'s value: the one the block computed it
    /// in already, or a fresh one the instruction `make(d)` computes it
    /// in.
    fn value(&mut self, key: Value, make: impl FnOnce(u32) -> Ins) -> u32 {
        if let Some(&r) = self.memo.get(&key) {
            self.tape.stats.values_reused += 1;
            return r;
        }
        let d = self.fresh();
        self.emit(make(d));
        if self.opt {
            self.memo.insert(key, d);
        }
        d
    }

    /// `d = a op b`, a pure operation.
    fn op2(&mut self, op: fn(u32, u32, u32) -> Ins, a: u32, b: u32) -> u32 {
        let key = Value::Op(std::mem::discriminant(&op(0, a, b)), a, b);
        self.value(key, |d| op(d, a, b))
    }

    /// `d = op a`, a pure operation.
    fn op1(&mut self, op: fn(u32, u32) -> Ins, a: u32) -> u32 {
        let key = Value::Op(std::mem::discriminant(&op(0, a)), a, NO_REG);
        self.value(key, |d| op(d, a))
    }

    /// Forget the loads of global array `g`: a store to it.
    fn forget_loads(&mut self, g: u32) {
        self.memo
            .retain(|k, _| !matches!(k, Value::Load(arr, _) if *arr == g));
    }

    /// Forget the values read from int slot `slot`: a store to it.
    fn forget_int(&mut self, slot: u32) {
        let pool = &self.tape.terms;
        let reads = |a: &Aff| {
            pool[a.terms.0 as usize..a.terms.1 as usize]
                .iter()
                .any(|t| t.slot == slot)
        };
        self.memo.retain(|k, _| match k {
            Value::Load(_, a) | Value::Int(a) => !reads(a),
            Value::Op(..) => true,
        });
    }

    /// Forget the operations on float slot `slot`: a store to it.
    fn forget_float(&mut self, slot: u32) {
        self.memo
            .retain(|k, _| !matches!(k, Value::Op(_, a, b) if *a == slot || *b == slot));
    }

    fn const_reg(&self, v: f64) -> u32 {
        let at = self
            .tape
            .consts
            .iter()
            .position(|c| c.to_bits() == v.to_bits())
            .expect("collect_consts saw every constant of the unit");
        idx(self.tape.unit.n_floats + at)
    }

    /// `c0 + Σ coef·slot` with like terms merged, zero terms dropped and
    /// the terms of pinned variables folded into the constant. Equal
    /// runs of terms share one run of the pool.
    fn aff(&mut self, mut c0: i64, terms: impl IntoIterator<Item = (usize, i64)>) -> Aff {
        let mut merged: BTreeMap<usize, i64> = BTreeMap::new();
        for (slot, coef) in terms {
            match self.pinned.iter().find(|(pin, _)| *pin == slot) {
                Some((_, v)) => c0 += coef * v,
                None => *merged.entry(slot).or_insert(0) += coef,
            }
        }
        // the run goes to the end of the pool, and back out if the pool
        // holds it already
        let pool = &mut self.tape.terms;
        let first = pool.len();
        let merged = merged.into_iter().filter(|(_, coef)| *coef != 0);
        pool.extend(merged.map(|(slot, coef)| Term {
            slot: idx(slot),
            coef,
        }));
        let terms = match self.interned.get(&pool[first..]) {
            Some(&seen) => {
                pool.truncate(first);
                seen
            }
            None => {
                let run = (idx(first), idx(pool.len()));
                self.interned.insert(pool[first..].to_vec(), run);
                run
            }
        };
        Aff { c0, terms }
    }

    fn cidx(&mut self, c: &CIdx) -> Aff {
        self.aff(c.cst, c.terms.iter().copied())
    }

    /// Fold an access to local array slot `arr` into one offset form
    /// into its global array, or return the error the access raises when
    /// executed.
    fn offset(&mut self, arr: usize, subs: &[CIdx], write: bool) -> Result<(u32, Aff), String> {
        let rank = self.st.rank;
        let g = self.tape.binding[arr];
        if g == UNBOUND {
            return Err(unbound_dummy(rank, arr));
        }
        let Some(local) = &self.st.storage[g] else {
            return Err(if write {
                let name = &self.tape.unit.array_names[arr];
                format!("rank {rank}: write to unowned array {name}")
            } else {
                let name = &self.st.prog.arrays[g].name;
                format!("rank {rank}: read of unowned array {name}")
            });
        };
        // Σ_d stride_d · (sub_d − window_lo_d)
        let dims = || subs.iter().zip(local.strides()).zip(local.alloc_lo());
        let c0 = dims()
            .map(|((sub, stride), lo)| *stride as i64 * (sub.cst - lo))
            .sum();
        let terms: Vec<(usize, i64)> = dims()
            .flat_map(|((sub, stride), _)| {
                sub.terms
                    .iter()
                    .map(move |(slot, coef)| (*slot, *stride as i64 * coef))
            })
            .collect();
        Ok((idx(g), self.aff(c0, terms)))
    }

    /// The access site of an access to local array slot `arr`, or the
    /// error the access raises when executed.
    fn site(&mut self, arr: usize, subs: &'p [CIdx], write: bool) -> Result<u32, String> {
        let (g, off) = self.offset(arr, subs, write)?;
        Ok(self.site_at(g, off, subs))
    }

    /// The access site of global array `g` at `off`; `subs` are for the
    /// window check of debug builds.
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    fn site_at(&mut self, g: u32, off: Aff, subs: &'p [CIdx]) -> u32 {
        let base = self.base(off);
        self.tape.sites.push(Site { arr: g, off, base });
        #[cfg(debug_assertions)]
        {
            let first = idx(self.tape.pins.len());
            let pins = self.pinned.iter().map(|&(slot, v)| (idx(slot), v));
            self.tape.pins.extend(pins);
            let pins = (first, idx(self.tape.pins.len()));
            self.tape.unfolded.push((subs, pins));
        }
        idx(self.tape.sites.len() - 1)
    }

    /// The base the innermost open loop maintains for an access at `off`
    /// — one hidden int slot per distinct run of terms, shared by the
    /// unrolled copies in its body — or [`NO_BASE`]
    /// outside every loop, and where a slot of `off` other than the
    /// loop's variable may change while the loop runs.
    fn base(&mut self, off: Aff) -> u32 {
        let Some(open) = self.open.last() else {
            return NO_BASE;
        };
        self.tape.stats.sites_in_loops += 1;
        if !self.basable(off) {
            return NO_BASE;
        }
        self.tape.stats.sites_based += 1;
        let pool = &self.tape.terms;
        let terms = &pool[off.terms.0 as usize..off.terms.1 as usize];
        // the pool is interned: equal runs are one run
        let same = |b: &&Base| b.form.terms == off.terms;
        if let Some(b) = self.pending[open.bases..].iter().find(same) {
            return b.slot;
        }
        let slot = idx(self.tape.n_ints);
        self.tape.n_ints += 1;
        let coef = terms.iter().find(|t| t.slot as usize == open.var);
        self.pending.push(Base {
            slot,
            form: Aff { c0: 0, ..off },
            inc: coef.map_or(0, |t| t.coef.wrapping_mul(open.step)),
        });
        slot
    }

    /// Whether the innermost open loop can maintain a base for an access
    /// at `off`: the lowering is not the plain one and no slot of `off`
    /// but the loop's variable changes while the loop runs.
    fn basable(&self, off: Aff) -> bool {
        let Some(open) = self.open.last() else {
            return false;
        };
        let terms = &self.tape.terms[off.terms.0 as usize..off.terms.1 as usize];
        let written = &self.written[open.written..];
        let changes =
            |t: &Term| t.slot as usize != open.var && written.contains(&(t.slot as usize));
        open.basing && !terms.iter().any(changes)
    }

    /// The register `e` is in without an instruction: a scalar slot, a
    /// constant or a negated one (as `dble` of one, too).
    fn plain(&self, e: &CExpr) -> Option<u32> {
        match e {
            CExpr::Const(v) => Some(self.const_reg(*v)),
            CExpr::LoadF(slot) => Some(idx(*slot)),
            CExpr::Neg(x) => match **x {
                CExpr::Const(v) => Some(self.const_reg(-v)),
                _ => None,
            },
            CExpr::Intr(i, args) if INTRINSIC_NAMES.get(*i) == Some(&"dble") && args.len() == 1 => {
                self.plain(&args[0])
            }
            _ => None,
        }
    }

    /// Lower `arr(subs) = value` as one fused instruction when `value` is
    /// `x − y·z` over three loads, or `x − s·z` over two with `s` a
    /// [`Self::plain`] register, and the loads and the store all address
    /// by bases; returns whether it did. The fused instruction reads its
    /// operands from memory, not from the block's values.
    fn fuse(&mut self, arr: usize, subs: &'p [CIdx], value: &'p CExpr, flops: f64) -> bool {
        let CExpr::Bin(BinOp::Sub, x, yz) = value else {
            return false;
        };
        let CExpr::Bin(BinOp::Mul, y, z) = &**yz else {
            return false;
        };
        let (CExpr::Load { arr: xa, subs: xs }, CExpr::Load { arr: za, subs: zs }) = (&**x, &**z)
        else {
            return false;
        };
        let s = match &**y {
            CExpr::Load { .. } => None,
            y => Some(self.plain(y)),
        };
        if !self.opt || s == Some(None) {
            return false;
        }
        // the accesses in the order the unfused statement makes them
        let mut accesses = vec![(*xa, &xs[..], false)];
        if let CExpr::Load { arr, subs } = &**y {
            accesses.push((*arr, subs, false));
        }
        accesses.extend([(*za, &zs[..], false), (arr, subs, true)]);
        let mut at = Vec::with_capacity(4);
        for &(arr, subs, write) in &accesses {
            match self.offset(arr, subs, write) {
                Ok((g, off)) if self.basable(off) => at.push((g, off, subs)),
                _ => return false,
            }
        }
        let sites: Vec<u32> = (at.iter())
            .map(|&(g, off, subs)| self.site_at(g, off, subs))
            .collect();
        let (a, c, d) = (sites[0], sites[sites.len() - 2], sites[sites.len() - 1]);
        let b = s.flatten().unwrap_or(sites[1]);
        self.tape.fused.push(Fused { a, b, c, d, flops });
        let stmt = idx(self.tape.fused.len() - 1);
        self.emit(match s {
            Some(_) => Ins::MulSubReg { stmt },
            None => Ins::MulSub { stmt },
        });
        self.forget_loads(at[at.len() - 1].0);
        self.tape.stats.stmts_fused += 1;
        true
    }

    /// Lower `e`. Returns the register holding the value: a scalar slot,
    /// a constant or a value of the block.
    fn expr(&mut self, e: &'p CExpr) -> u32 {
        if let Some(r) = self.plain(e) {
            return r;
        }
        match e {
            CExpr::Const(_) | CExpr::LoadF(_) => unreachable!("plain registers"),
            CExpr::Int(ci) => {
                let aff = self.cidx(ci);
                self.value(Value::Int(aff), |d| Ins::IntToF { d, aff })
            }
            CExpr::Load { arr, subs } => match self.offset(*arr, subs, false) {
                Ok((g, off)) => {
                    if let Some(&r) = self.memo.get(&Value::Load(g, off)) {
                        // a reused load is an access of its loop all the same
                        self.base(off);
                        self.tape.stats.values_reused += 1;
                        return r;
                    }
                    let site = self.site_at(g, off, subs);
                    let based = self.tape.sites[site as usize].base != NO_BASE;
                    self.value(Value::Load(g, off), |d| {
                        if based {
                            Ins::LoadBased { d, site }
                        } else {
                            Ins::Load { d, site }
                        }
                    })
                }
                Err(msg) => {
                    self.fail(msg);
                    self.fresh()
                }
            },
            CExpr::Bin(op @ (BinOp::And | BinOp::Or), x, y) => {
                let a = self.expr(x);
                let d = self.fresh();
                let skip = self.emit(match op {
                    BinOp::And => Ins::AndSkip { d, a, to: 0 },
                    _ => Ins::OrSkip { d, a, to: 0 },
                });
                let a = self.expr(y);
                self.emit(Ins::Truth { d, a });
                self.land([skip]);
                d
            }
            CExpr::Bin(op, x, y) => {
                let a = self.expr(x);
                let b = self.expr(y);
                let op: fn(u32, u32, u32) -> Ins = match op {
                    BinOp::Add => Ins::Add,
                    BinOp::Sub => Ins::Sub,
                    BinOp::Mul => Ins::Mul,
                    BinOp::Div => Ins::Div,
                    BinOp::Pow => Ins::Pow,
                    BinOp::Lt => Ins::Lt,
                    BinOp::Le => Ins::Le,
                    BinOp::Gt => Ins::Gt,
                    BinOp::Ge => Ins::Ge,
                    BinOp::Eq => Ins::Eq,
                    BinOp::Ne => Ins::Ne,
                    BinOp::And | BinOp::Or => unreachable!("lowered to jumps above"),
                };
                self.op2(op, a, b)
            }
            CExpr::Neg(x) => {
                let a = self.expr(x);
                self.op1(Ins::Neg, a)
            }
            CExpr::Intr(i, args) => self.intrinsic(*i, args),
        }
    }

    /// An intrinsic call: every argument is evaluated, in order; then the
    /// function is applied.
    fn intrinsic(&mut self, i: usize, args: &'p [CExpr]) -> u32 {
        let regs: Vec<u32> = args.iter().map(|a| self.expr(a)).collect();
        let name = INTRINSIC_NAMES.get(i).copied().unwrap_or("?");
        // the serial interpreter's evaluator is the authority on which
        // names exist and how many arguments each needs
        if let Err(e) = eval_intrinsic(name, &vec![0.0; args.len()]) {
            self.fail(format!("rank {}: {e}", self.st.rank));
            return self.fresh();
        }
        let a = regs[0];
        let op: fn(u32, u32) -> Ins = match name {
            // a left fold from ±∞ over all arguments, as `eval_intrinsic`
            "min" | "max" => {
                let (start, fold): (f64, fn(u32, u32, u32) -> Ins) = if name == "min" {
                    (f64::INFINITY, Ins::Min)
                } else {
                    (f64::NEG_INFINITY, Ins::Max)
                };
                let start = self.const_reg(start);
                return regs
                    .into_iter()
                    .fold(start, |acc, b| self.op2(fold, acc, b));
            }
            "dble" => return a,
            "mod" => return self.op2(Ins::Mod, a, regs[1]),
            "sign" => return self.op2(Ins::Sign, a, regs[1]),
            "abs" => Ins::Abs,
            "sqrt" => Ins::Sqrt,
            "exp" => Ins::Exp,
            "int" => Ins::Trunc,
            "sin" => Ins::Sin,
            "cos" => Ins::Cos,
            other => unreachable!("intrinsic `{other}` has no lowering"),
        };
        self.op1(op, a)
    }

    /// The range of `c`, less its terms in `except`, under the facts.
    fn interval(&self, c: &CIdx, except: Option<usize>) -> Range {
        let terms = c.terms.iter().filter(|(slot, _)| Some(*slot) != except);
        terms.fold((c.cst, c.cst), |r, &(slot, coef)| {
            let (lo, hi) = self.facts[slot];
            match coef {
                0 => r,
                1.. => (plus(r.0, scale(lo, coef)), plus(r.1, scale(hi, coef))),
                _ => (plus(r.0, scale(hi, coef)), plus(r.1, scale(lo, coef))),
            }
        })
    }

    /// The values a loop variable takes, as far as the facts bound them.
    fn span(&self, lo: &CIdx, hi: &CIdx, step: i64) -> Range {
        let (first, last) = if step > 0 { (lo, hi) } else { (hi, lo) };
        (self.interval(first, None).0, self.interval(last, None).1)
    }

    /// The range tests `lo ≤ sub ≤ hi` one AND-term of a guard stands for
    /// on this rank. An atom on an unbound dummy has no ownership to
    /// test against: it holds, and adds none.
    fn term_tests(&self, atoms: &'p [GuardAtom]) -> Vec<(&'p CIdx, i64, i64)> {
        let mut tests = Vec::new();
        for atom in atoms {
            let (arr, dim) = match atom {
                GuardAtom::In { arr, dim, .. } | GuardAtom::Overlap { arr, dim, .. } => {
                    (*arr, *dim)
                }
            };
            let g = self.tape.binding[arr];
            if g == UNBOUND {
                continue;
            }
            let (olo, ohi) = self.st.owned[g][dim];
            match atom {
                GuardAtom::In { sub, .. } => tests.push((sub, olo, ohi)),
                GuardAtom::Overlap { lo, hi, .. } => {
                    tests.push((hi, olo, i64::MAX));
                    tests.push((lo, i64::MIN, ohi));
                }
            }
        }
        tests
    }

    /// Whether `lo ≤ sub ≤ hi` holds, if the facts decide it.
    fn decide(&self, sub: &CIdx, lo: i64, hi: i64) -> Option<bool> {
        if !self.opt {
            return None;
        }
        let (a, b) = self.interval(sub, None);
        if lo <= a && b <= hi {
            Some(true)
        } else if lo > hi || b < lo || a > hi {
            Some(false)
        } else {
            None
        }
    }

    /// Lower a CP guard to range tests, less the tests the facts decide.
    /// Returns the branches that leave the statement when the guard
    /// fails, to be landed after it; `None` when it cannot pass.
    fn guard(&mut self, guard: &'p Option<Guard>) -> Option<Vec<usize>> {
        let Some(g) = guard else {
            return Some(Vec::new());
        };
        // the tests left of every OR-term that can still pass
        let mut live = Vec::new();
        for atoms in &g.terms {
            match self.term(atoms) {
                None => {}
                Some(tests) if tests.is_empty() => return Some(Vec::new()), // always passes
                Some(tests) => live.push(tests),
            }
        }
        if live.is_empty() {
            return None;
        }
        // OR over terms of AND over tests: a failing test tries the next
        // term, a passing term jumps to the statement
        let mut failed: Vec<usize> = Vec::new();
        let mut passed: Vec<usize> = Vec::new();
        let terms = live.len();
        for (i, tests) in live.into_iter().enumerate() {
            self.land(failed.drain(..));
            failed.push(self.test(tests));
            if i + 1 < terms {
                passed.push(self.emit(Ins::Jump { to: 0 }));
            }
        }
        self.land(passed);
        Some(failed)
    }

    /// The range tests of one AND-term of a guard, less the tests the
    /// facts decide; the tests on one affine form (the same terms, up to
    /// the constant) merged into one. `None` when a test cannot hold; no
    /// test when the term always holds.
    fn term(&mut self, atoms: &'p [GuardAtom]) -> Option<Vec<RangeTest>> {
        let mut tests: Vec<RangeTest> = Vec::new();
        let mut dead = false;
        for (sub, lo, hi) in self.term_tests(atoms) {
            match self.decide(sub, lo, hi) {
                Some(true) => self.tape.stats.tests_true += 1,
                Some(false) => {
                    self.tape.stats.tests_dead += 1;
                    dead = true;
                }
                None => {
                    let aff = self.cidx(sub);
                    let opt = self.opt;
                    match tests.iter_mut().find(|t| opt && t.aff.terms == aff.terms) {
                        // `form + c ∈ lo..=hi` is `form + c' ∈ lo + c' − c..=hi + c' − c`
                        Some(t) => {
                            let shift = t.aff.c0 - aff.c0;
                            (t.lo, t.hi) = (t.lo.max(plus(lo, shift)), t.hi.min(plus(hi, shift)));
                        }
                        None => tests.push(RangeTest { aff, lo, hi }),
                    }
                }
            }
        }
        (!dead).then_some(tests)
    }

    /// Emit the range tests of one AND-term as one [`Ins::Test`]; returns
    /// its position, to be landed where control goes when a test fails.
    fn test(&mut self, tests: Vec<RangeTest>) -> usize {
        let first = idx(self.tape.tests.len());
        self.tape.stats.tests_kept += tests.len() as u64;
        self.tape.tests.extend(tests);
        let end = idx(self.tape.tests.len());
        self.emit(Ins::Test { first, end, to: 0 })
    }

    /// The values of int slot `v` for which `lo ≤ sub ≤ hi` can hold.
    fn solve(&self, v: usize, sub: &CIdx, lo: i64, hi: i64) -> Range {
        if lo > hi {
            return EMPTY;
        }
        let coef: i64 = (sub.terms.iter())
            .filter(|(slot, _)| *slot == v)
            .map(|(_, coef)| coef)
            .sum();
        let (a, b) = self.interval(sub, Some(v));
        match coef {
            0 if b < lo || a > hi => EMPTY,
            1 => (minus(lo, b), minus(hi, a)),
            -1 => (minus(a, hi), minus(b, lo)),
            _ => ALL,
        }
    }

    /// The hull of the values of `v` for which the body's term can hold
    /// and some statement of the body pass its guard on this rank:
    /// outside it, an iteration of the loop over `v` runs no statement.
    /// Something every iteration must do — an unguarded statement, a
    /// call, communication, a loop whose variable the unit reads after
    /// it, which iterations that run no statement still set — passes
    /// wherever the term holds; such a loop as an inner level of a nest,
    /// which runs whether or not the term holds, passes everywhere.
    fn hull(&mut self, v: usize, body: Body<'p>) -> Range {
        if let Some((lv, levels)) = body.levels.split_first() {
            let body = Body { levels, ..body };
            return self.hull_loop(v, lv.var, &lv.lo, &lv.hi, lv.step, body);
        }
        let within = self.term_hull(v, body.within);
        let mut hull = EMPTY;
        for op in body.ops {
            let part = match op {
                NodeOp::Assign { guard, .. }
                | NodeOp::AssignF { guard, .. }
                | NodeOp::AssignI { guard, .. } => match guard {
                    None => ALL,
                    // OR-terms hull
                    Some(g) => g
                        .terms
                        .iter()
                        .fold(EMPTY, |terms, atoms| union(terms, self.term_hull(v, atoms))),
                },
                NodeOp::Loop {
                    var,
                    lo,
                    hi,
                    step,
                    body,
                } => self.hull_loop(v, *var, lo, hi, *step, Body::of(body)),
                NodeOp::If { arms } => arms.iter().fold(EMPTY, |arms, (_, ops)| {
                    union(arms, self.hull(v, Body::of(ops)))
                }),
                NodeOp::Call { .. }
                | NodeOp::Exchange { .. }
                | NodeOp::OverlapNest { .. }
                | NodeOp::Pipeline { .. } => ALL,
            };
            hull = union(hull, part);
            if hull == ALL {
                break;
            }
        }
        intersect(hull, within)
    }

    /// The values of `v` for which the AND-term `atoms` can hold: its
    /// tests' intersect.
    fn term_hull(&self, v: usize, atoms: &'p [GuardAtom]) -> Range {
        let tests = self.term_tests(atoms).into_iter();
        tests.fold(ALL, |term, (sub, lo, hi)| {
            intersect(term, self.solve(v, sub, lo, hi))
        })
    }

    /// [`Self::hull`] of an inner loop over `w`, which takes every value
    /// of its range.
    fn hull_loop(
        &mut self,
        v: usize,
        w: usize,
        lo: &CIdx,
        hi: &CIdx,
        step: i64,
        body: Body<'p>,
    ) -> Range {
        if self.slots.escapes[w] {
            return ALL;
        }
        let known = if self.slots.unstable[w] {
            ALL
        } else {
            self.span(lo, hi, step)
        };
        let outer = std::mem::replace(&mut self.facts[w], known);
        let hull = self.hull(v, body);
        self.facts[w] = outer;
        hull
    }

    /// Open a loop, shrunk to the hull of its body and, at the strip
    /// level of a pipelined nest, to the chunk in the hidden slots
    /// `chunk`; the returned handle closes it. `None` when no value of
    /// the variable runs a statement here: the loop is lowered to the
    /// write of its variable and the body is not lowered at all.
    fn loop_begin(
        &mut self,
        var: usize,
        (lo, hi, step): (&CIdx, &CIdx, i64),
        chunk: Option<u32>,
        body: Body<'p>,
    ) -> Option<(u32, usize, Range)> {
        self.tape.stats.loops += 1;
        // a variable its own loop's body assigns has no range to learn,
        // and none to restore when the loop ends
        let stable = !self.slots.unstable[var];
        let (span, hull) = if self.opt && stable {
            let span = self.span(lo, hi, step);
            let outer = std::mem::replace(&mut self.facts[var], span);
            let hull = self.hull(var, body);
            self.facts[var] = outer;
            (span, hull)
        } else {
            (ALL, ALL)
        };
        let inside = intersect(span, hull);
        let skipped = inside.0 > inside.1;
        // a hull the whole range is known to lie in shrinks nothing; a
        // chunk applies the window all the same
        let clamped = skipped || inside != span;
        self.tape.stats.loops_clamped += u64::from(clamped);
        let hull = (clamped || chunk.is_some()).then_some(if skipped { EMPTY } else { hull });
        let desc = LoopDesc {
            var: idx(var),
            ctr: self.hidden_ints(if hull.is_some() { 3 } else { 2 }),
            lo: self.cidx(lo),
            hi: self.cidx(hi),
            step,
            chunk,
            hull,
            bases: (0, 0),
            moving: 0,
            unrolled: 0,
        };
        self.tape.loops.push(desc);
        let l = idx(self.tape.loops.len() - 1);
        let enter = self.emit(Ins::LoopEnter { l, to: 0 });
        if skipped {
            self.land([enter]);
            self.tape.stats.stmts_dropped += statements(body.ops);
            return None;
        }
        let basing = self.opt && stable;
        self.open.push(Open {
            var,
            step,
            basing,
            written: self.written.len(),
            bases: self.pending.len(),
            unrolled: 0,
            charged: std::mem::replace(&mut self.charged, true),
        });
        if basing {
            written(body, &mut self.written);
        }
        let outer = std::mem::replace(&mut self.facts[var], inside);
        // each trip but the first enters the body from `LoopNext`
        self.memo.clear();
        Some((l, enter, outer))
    }

    fn loop_end(&mut self, var: usize, (l, enter, outer): (u32, usize, Range)) {
        let body = idx(enter + 1);
        self.emit(Ins::LoopNext { l, body });
        self.land([enter]);
        self.facts[var] = outer;
        let open = self.open.pop().expect("loop_begin opened it");
        self.charged = open.charged;
        self.written.truncate(open.written);
        let mine = &mut self.pending[open.bases..];
        mine.sort_by_key(|b| b.inc == 0);
        let first = self.tape.bases.len();
        let moving = mine.iter().filter(|b| b.inc != 0).count();
        self.tape.bases.extend(self.pending.drain(open.bases..));
        let desc = &mut self.tape.loops[l as usize];
        desc.bases = (first, self.tape.bases.len());
        desc.moving = first + moving;
        desc.unrolled = open.unrolled;
    }

    /// The value of `c` when the facts decide it.
    fn constant(&self, c: &CIdx) -> Option<i64> {
        let (lo, hi) = self.interval(c, None);
        (lo == hi && !unbounded(lo)).then_some(lo)
    }

    /// Pin `var` to `v`; returns its outer facts, for [`Self::unpin`].
    fn pin(&mut self, var: usize, v: i64) -> Range {
        self.pinned.push((var, v));
        std::mem::replace(&mut self.facts[var], (v, v))
    }

    fn unpin(&mut self, var: usize, outer: Range) {
        self.pinned.pop();
        self.facts[var] = outer;
    }

    /// The values a loop is unrolled for — one copy of the body each,
    /// those of its range inside the hull of its body, in order — or
    /// `None` when it is interpreted. A loop is unrolled when it runs once
    /// per trip of the innermost open loop ([`Lower::charged`]), its
    /// variable follows its range and is read nowhere else
    /// ([`SlotUse`]), its bounds are constants under the facts and it has
    /// at most [`UNROLL_TRIPS`] trips; and, checked at the outermost loop
    /// of an unrolled nest (nothing is pinned yet), when the whole nest
    /// lowers to straight-line code of at most [`UNROLL_STMTS`]
    /// statements ([`Self::fits`]). A level of a single-chain nest is
    /// such a loop, its body the levels inside it and the ops.
    fn unrolled(
        &mut self,
        var: usize,
        (lo, hi, step): (&CIdx, &CIdx, i64),
        body: Body<'p>,
    ) -> Option<Vec<i64>> {
        let slots = &self.slots;
        if !self.opt || !self.charged || slots.unstable[var] || slots.escapes[var] {
            return None;
        }
        let (first, last) = (self.constant(lo)?, self.constant(hi)?);
        let trips = if (step > 0 && first > last) || (step < 0 && first < last) {
            0
        } else {
            last.checked_sub(first)? / step + 1
        };
        if trips > UNROLL_TRIPS {
            return None;
        }
        // the iterations the interpreted loop would visit
        let span = self.span(lo, hi, step);
        let outer = std::mem::replace(&mut self.facts[var], span);
        let (hlo, hhi) = intersect(span, self.hull(var, body));
        self.facts[var] = outer;
        let values: Vec<i64> = (0..trips)
            .map(|k| first + k * step)
            .filter(|v| hlo <= *v && *v <= hhi)
            .collect();
        let mut budget = UNROLL_STMTS;
        let outermost = self.pinned.is_empty();
        if outermost && !self.fits(var, &values, body, &mut budget) {
            return None;
        }
        Some(values)
    }

    /// Whether the copies of `body` for `values` of `var` lower to
    /// straight-line code — its levels unrolled, then assignments and
    /// `if`s, every loop in them unrolled — of no more statements than
    /// `budget`, which they use up.
    fn fits(&mut self, var: usize, values: &[i64], body: Body<'p>, budget: &mut u64) -> bool {
        values.iter().all(|&v| {
            let outer = self.pin(var, v);
            let fits = match body.levels.split_first() {
                Some((lv, levels)) => {
                    let inner = Body { levels, ..body };
                    self.fits_loop(lv.var, (&lv.lo, &lv.hi, lv.step), inner, budget)
                }
                None => self.fits_ops(body.ops, budget),
            };
            self.unpin(var, outer);
            fits
        })
    }

    /// Whether a loop over `var` unrolls and its copies fit `budget`.
    fn fits_loop(
        &mut self,
        var: usize,
        bounds: (&CIdx, &CIdx, i64),
        body: Body<'p>,
        budget: &mut u64,
    ) -> bool {
        match self.unrolled(var, bounds, body) {
            Some(values) => self.fits(var, &values, body, budget),
            None => false,
        }
    }

    fn fits_ops(&mut self, ops: &'p [NodeOp], budget: &mut u64) -> bool {
        ops.iter().all(|op| match op {
            NodeOp::Loop {
                var,
                lo,
                hi,
                step,
                body,
            } => self.fits_loop(*var, (lo, hi, *step), Body::of(body), budget),
            NodeOp::If { arms } => match self.arm(arms) {
                Some(taken) => taken.is_none_or(|i| self.fits_ops(&arms[i].1, budget)),
                None => {
                    let charged = self.charged;
                    let fits = arms.iter().enumerate().all(|(i, (cond, body))| {
                        self.charged = charged && i == 0 && cond.is_none();
                        self.fits_ops(body, budget)
                    });
                    self.charged = charged;
                    fits
                }
            },
            NodeOp::Assign { .. } | NodeOp::AssignF { .. } | NodeOp::AssignI { .. } => {
                budget.checked_sub(1).map(|left| *budget = left).is_some()
            }
            NodeOp::Call { .. }
            | NodeOp::Exchange { .. }
            | NodeOp::OverlapNest { .. }
            | NodeOp::Pipeline { .. } => false,
        })
    }

    /// The arm of an `if` that runs, when the facts decide the condition
    /// of every arm up to it — `Some(None)` when they decide that none
    /// runs — or `None` when they do not.
    fn arm(&self, arms: &'p [(Option<CExpr>, Vec<NodeOp>)]) -> Option<Option<usize>> {
        if !self.opt {
            return None;
        }
        for (i, (cond, _)) in arms.iter().enumerate() {
            match cond {
                None => return Some(Some(i)),
                Some(c) if self.truth(c)? => return Some(Some(i)),
                Some(_) => {}
            }
        }
        Some(None)
    }

    /// The value of a comparison of integer forms and constants when the
    /// facts decide it, compared as the tape compares it: in floats.
    fn truth(&self, c: &CExpr) -> Option<bool> {
        let CExpr::Bin(op, x, y) = c else {
            return None;
        };
        let value = |e: &CExpr| match e {
            CExpr::Int(ci) => self.constant(ci).map(|v| v as f64),
            CExpr::Const(v) => Some(*v),
            _ => None,
        };
        let (x, y) = (value(x)?, value(y)?);
        Some(match op {
            BinOp::Lt => x < y,
            BinOp::Le => x <= y,
            BinOp::Gt => x > y,
            BinOp::Ge => x >= y,
            BinOp::Eq => x == y,
            BinOp::Ne => x != y,
            _ => return None,
        })
    }

    /// Lower the copies of an unrolled loop's body, one per value of its
    /// variable in `values`; the ops inside them run as `runs` says.
    fn unroll(&mut self, var: usize, values: Vec<i64>, body: Body<'p>, runs: Runs) {
        self.tape.stats.loops_unrolled += 1;
        let open = self
            .open
            .last_mut()
            .expect("an unrolled loop is inside an open one");
        open.unrolled += values.len() as u64;
        if values.is_empty() {
            self.tape.stats.stmts_dropped += statements(body.ops);
        }
        for v in values {
            let outer = self.pin(var, v);
            self.straight(body, runs);
            self.unpin(var, outer);
        }
    }

    /// Lower `body`: its levels as copies — [`Self::fits`] found, at the
    /// outermost unrolled loop, that each of them unrolls — and inside
    /// them its ops, which run as `runs` says.
    fn straight(&mut self, body: Body<'p>, runs: Runs) {
        if let Some((lv, levels)) = body.levels.split_first() {
            let inner = Body { levels, ..body };
            let values = self.unrolled(lv.var, (&lv.lo, &lv.hi, lv.step), inner);
            let values = values.expect("the levels inside an unrolled one unroll");
            return self.unroll(lv.var, values, inner, runs);
        }
        match runs {
            Runs::Always => self.ops(body.ops),
            Runs::Tested => {
                let charged = std::mem::replace(&mut self.charged, false);
                self.ops(body.ops);
                self.charged = charged;
            }
            Runs::Never => self.tape.stats.stmts_dropped += statements(body.ops),
        }
    }

    /// Lower a single-chain nest inline; returns its tape range. With a
    /// `term`, its innermost body runs where the AND-term holds (`true`),
    /// which narrows the loops like a guard, or where it fails.
    ///
    /// A level unrolls by the rule of a loop ([`Self::unrolled`]), and
    /// with it every level inside it, unless it is the strip level or
    /// outside it — the nest runs once per chunk, not once per trip of
    /// the loop around it — or it or a level inside it binds a variable
    /// the term reads: the term is tested once per trip of the innermost
    /// interpreted level, before the copies.
    fn nest(
        &mut self,
        levels: &'p [PipeLevel],
        strip: Option<(usize, u32)>,
        term: Option<(&'p [GuardAtom], bool)>,
        ops: &'p [NodeOp],
    ) -> (usize, usize) {
        // the nest runs on its own, after messages wrote arrays, and what
        // follows it runs after more did
        self.memo.clear();
        let start = self.tape.code.len();
        let within = term
            .filter(|(_, holds)| *holds)
            .map_or(&[][..], |(atoms, _)| atoms);
        let tests = term.map_or(Vec::new(), |(atoms, _)| self.term_tests(atoms));
        let reads = |lv: &PipeLevel| {
            tests
                .iter()
                .any(|(sub, ..)| sub.terms.iter().any(|t| t.0 == lv.var))
        };
        let read = levels.iter().rposition(reads);
        let looped = read.max(strip.map(|(level, _)| level)).map_or(0, |d| d + 1);
        let mut open = Vec::new();
        let mut unrolled = levels.len();
        for (depth, lv) in levels.iter().enumerate() {
            let body = Body {
                levels: &levels[depth + 1..],
                within,
                ops,
            };
            let bounds = (&lv.lo, &lv.hi, lv.step);
            if depth >= looped && self.unrolled(lv.var, bounds, body).is_some() {
                unrolled = depth;
                break;
            }
            let chunk = strip.and_then(|(level, slots)| (level == depth).then_some(slots));
            match self.loop_begin(lv.var, bounds, chunk, body) {
                Some(h) => open.push((lv.var, h)),
                None => break,
            }
        }
        if open.len() == unrolled {
            let body = Body {
                levels: &levels[unrolled..],
                within,
                ops,
            };
            match term {
                Some((atoms, holds)) => self.under(atoms, holds, body),
                None => self.straight(body, Runs::Always),
            }
        }
        for (var, h) in open.into_iter().rev() {
            self.loop_end(var, h);
        }
        self.memo.clear();
        (start, self.tape.code.len())
    }

    /// Lower `body` to run where the AND-term `atoms` holds, or, when not
    /// `holds`, where it fails: under one [`Ins::Test`] of the tests the
    /// facts leave, and then not on every trip ([`Lower::charged`]).
    fn under(&mut self, atoms: &'p [GuardAtom], holds: bool, body: Body<'p>) {
        let always = match self.term(atoms) {
            Some(tests) if !tests.is_empty() => {
                let test = self.test(tests);
                // negated: a failing test enters the ops, a holding one skips them
                let skip = (!holds).then(|| self.emit(Ins::Jump { to: 0 }));
                self.land(skip.map(|_| test));
                self.straight(body, Runs::Tested);
                return self.land(skip.into_iter().chain(holds.then_some(test)));
            }
            decided => decided.is_some(),
        };
        let runs = if always == holds {
            Runs::Always
        } else {
            Runs::Never
        };
        self.straight(body, runs);
    }

    fn ops(&mut self, ops: &'p [NodeOp]) {
        for op in ops {
            self.op(op);
        }
    }

    fn op(&mut self, op: &'p NodeOp) {
        // no value is in flight between statements: with none left to
        // reuse, the block's registers are free again
        if self.memo.is_empty() {
            self.next = self.vals0;
        }
        match op {
            NodeOp::Loop {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                if let Some(values) = self.unrolled(*var, (lo, hi, *step), Body::of(body)) {
                    self.unroll(*var, values, Body::of(body), Runs::Always);
                } else if let Some(h) = self.loop_begin(*var, (lo, hi, *step), None, Body::of(body))
                {
                    self.ops(body);
                    self.loop_end(*var, h);
                }
            }
            NodeOp::Assign {
                guard,
                arr,
                subs,
                value,
                flops,
            } => {
                let Some(skip) = self.guard(guard) else {
                    self.tape.stats.stmts_dropped += 1;
                    return;
                };
                let flops = *flops as f64;
                if !self.fuse(*arr, subs, value, flops) {
                    let src = self.expr(value);
                    match self.site(*arr, subs, true) {
                        Ok(site) => {
                            let s = &self.tape.sites[site as usize];
                            let (g, based) = (s.arr, s.base != NO_BASE);
                            self.emit(if based {
                                Ins::StoreBased { site, src, flops }
                            } else {
                                Ins::Store { site, src, flops }
                            });
                            self.forget_loads(g);
                        }
                        Err(msg) => self.fail(msg),
                    }
                }
                self.land(skip);
            }
            NodeOp::AssignF {
                guard,
                slot,
                value,
                flops,
            }
            | NodeOp::AssignI {
                guard,
                slot,
                value,
                flops,
            } => {
                let Some(skip) = self.guard(guard) else {
                    self.tape.stats.stmts_dropped += 1;
                    return;
                };
                let src = self.expr(value);
                let (slot, flops) = (idx(*slot), *flops as f64);
                if matches!(op, NodeOp::AssignF { .. }) {
                    self.emit(Ins::StoreF { slot, src, flops });
                    self.forget_float(slot);
                } else {
                    self.emit(Ins::StoreI { slot, src, flops });
                    self.forget_int(slot);
                }
                self.land(skip);
            }
            NodeOp::If { arms } => {
                if let Some(taken) = self.arm(arms) {
                    // the arm runs whenever the `if` does: `charged` holds
                    self.tape.stats.ifs_decided += 1;
                    for (i, (_, body)) in arms.iter().enumerate() {
                        if taken == Some(i) {
                            self.ops(body);
                        } else {
                            self.tape.stats.stmts_dropped += statements(body);
                        }
                    }
                    return;
                }
                let mut done = Vec::new();
                let charged = self.charged;
                for (i, (cond, body)) in arms.iter().enumerate() {
                    let next = cond.as_ref().map(|c| {
                        let a = self.expr(c);
                        self.emit(Ins::JumpIfZero { a, to: 0 })
                    });
                    // only an unconditional first arm runs on every trip
                    self.charged = charged && i == 0 && cond.is_none();
                    self.ops(body);
                    done.push(self.emit(Ins::Jump { to: 0 }));
                    self.land(next);
                    if cond.is_none() {
                        break; // arms after an `else` never run
                    }
                }
                self.charged = charged;
                self.land(done);
            }
            NodeOp::Call {
                unit,
                int_args,
                float_args,
                array_args,
            } => self.call(*unit, int_args, float_args, array_args),
            NodeOp::Exchange { msgs, tag, plan } => {
                self.tape.comms.push(Comm::Exchange {
                    msgs,
                    tag: *tag,
                    plan: *plan,
                });
                let comm = idx(self.tape.comms.len() - 1);
                self.emit(Ins::Comm { comm });
                // the exchange writes the arrays it receives into
                self.memo.clear();
            }
            NodeOp::OverlapNest {
                msgs,
                tag,
                levels,
                body,
                interior,
                plan,
            } => {
                let comm = idx(self.tape.comms.len());
                self.emit(Ins::Comm { comm });
                let inside = self.nest(levels, None, Some((interior, true)), body);
                let boundary = self.nest(levels, None, Some((interior, false)), body);
                self.tape.comms.push(Comm::Overlap(Overlap {
                    msgs,
                    tag: *tag,
                    plan: *plan,
                    interior: inside,
                    boundary,
                }));
            }
            NodeOp::Pipeline {
                levels,
                body,
                strip,
                hops,
                tag,
                plan,
            } => {
                let rank = self.st.rank;
                let strip = strip.as_ref().map(|s| (s, self.hidden_ints(2)));
                let comm = idx(self.tape.comms.len());
                self.emit(Ins::Comm { comm });
                let chunk = strip.map(|(s, slots)| (s.level, slots));
                let nest = self.nest(levels, chunk, None, body);
                self.tape.comms.push(Comm::Pipeline(Pipe {
                    levels,
                    strip,
                    recv: hops.iter().filter(|x| x.to == rank).collect(),
                    send: hops.iter().filter(|x| x.from == rank).collect(),
                    tag: *tag,
                    plan: *plan,
                    nest,
                }));
            }
        }
    }

    fn call(
        &mut self,
        unit: usize,
        int_args: &'p [(usize, CExpr)],
        float_args: &'p [(usize, CExpr)],
        array_args: &[(usize, usize)],
    ) {
        let callee = &self.st.prog.units[unit];
        let mut binding = static_binding(callee);
        for (pos, caller_slot) in array_args {
            if let FormalSlot::Array(slot) = callee.formals[*pos] {
                if slot != usize::MAX {
                    binding[slot] = self.tape.binding[*caller_slot];
                }
            }
        }
        let spec = (unit, binding);
        let tape = self
            .specs
            .iter()
            .position(|s| *s == spec)
            .unwrap_or_else(|| {
                self.specs.push(spec);
                self.specs.len() - 1
            });
        // scalar actuals, ints first
        let mut ints = Vec::new();
        for (pos, e) in int_args {
            if let FormalSlot::Int(slot) = callee.formals[*pos] {
                if slot != usize::MAX {
                    ints.push((idx(slot), self.expr(e)));
                }
            }
        }
        let mut floats = Vec::new();
        for (pos, e) in float_args {
            if let FormalSlot::Float(slot) = callee.formals[*pos] {
                if slot != usize::MAX {
                    floats.push((idx(slot), self.expr(e)));
                }
            }
        }
        self.tape.calls.push(CallSite { tape, ints, floats });
        let call = idx(self.tape.calls.len() - 1);
        self.emit(Ins::Call { call });
        // the callee writes arrays
        self.memo.clear();
    }
}

/// How a unit's loops and the rest of the unit use the int slots of loop
/// variables.
pub(super) struct SlotUse {
    /// Read somewhere outside every loop that binds the slot: the value
    /// a loop leaves in it can be observed.
    pub escapes: Vec<bool>,
    /// Assigned, or bound again by an inner loop, inside a loop that
    /// binds the slot: the slot does not follow that loop's range.
    unstable: Vec<bool>,
}

impl SlotUse {
    pub fn of(unit: &CompiledUnit) -> Self {
        let mut uses = SlotUse {
            escapes: vec![false; unit.n_ints],
            unstable: vec![false; unit.n_ints],
        };
        uses.ops(&unit.ops, &mut Vec::new());
        uses
    }

    fn read(&mut self, c: &CIdx, bound: &[usize]) {
        for (slot, _) in &c.terms {
            self.escapes[*slot] |= !bound.contains(slot);
        }
    }

    fn expr(&mut self, e: &CExpr, bound: &[usize]) {
        match e {
            CExpr::Const(_) | CExpr::LoadF(_) => {}
            CExpr::Int(c) => self.read(c, bound),
            CExpr::Load { subs, .. } => subs.iter().for_each(|c| self.read(c, bound)),
            CExpr::Bin(_, a, b) => {
                self.expr(a, bound);
                self.expr(b, bound);
            }
            CExpr::Neg(a) => self.expr(a, bound),
            CExpr::Intr(_, args) => args.iter().for_each(|a| self.expr(a, bound)),
        }
    }

    fn guard(&mut self, guard: &Option<Guard>, bound: &[usize]) {
        for atom in guard.iter().flat_map(|g| g.terms.iter().flatten()) {
            match atom {
                GuardAtom::In { sub, .. } => self.read(sub, bound),
                GuardAtom::Overlap { lo, hi, .. } => {
                    self.read(lo, bound);
                    self.read(hi, bound);
                }
            }
        }
    }

    /// Enter a loop: its bounds are read outside it.
    fn bind(&mut self, var: usize, lo: &CIdx, hi: &CIdx, bound: &mut Vec<usize>) {
        self.read(lo, bound);
        self.read(hi, bound);
        if bound.contains(&var) {
            // the outer loop's body sees what the inner loop leaves
            self.unstable[var] = true;
            self.escapes[var] = true;
        }
        bound.push(var);
    }

    fn ops(&mut self, ops: &[NodeOp], bound: &mut Vec<usize>) {
        for op in ops {
            match op {
                NodeOp::Loop {
                    var, lo, hi, body, ..
                } => {
                    self.bind(*var, lo, hi, bound);
                    self.ops(body, bound);
                    bound.pop();
                }
                NodeOp::Assign {
                    guard, subs, value, ..
                } => {
                    self.guard(guard, bound);
                    subs.iter().for_each(|c| self.read(c, bound));
                    self.expr(value, bound);
                }
                NodeOp::AssignF { guard, value, .. } => {
                    self.guard(guard, bound);
                    self.expr(value, bound);
                }
                NodeOp::AssignI {
                    guard, slot, value, ..
                } => {
                    self.guard(guard, bound);
                    self.expr(value, bound);
                    self.unstable[*slot] |= bound.contains(slot);
                }
                NodeOp::If { arms } => {
                    for (cond, body) in arms {
                        cond.iter().for_each(|c| self.expr(c, bound));
                        self.ops(body, bound);
                    }
                }
                NodeOp::Call {
                    int_args,
                    float_args,
                    ..
                } => (int_args.iter().chain(float_args)).for_each(|(_, e)| self.expr(e, bound)),
                NodeOp::Exchange { .. } => {}
                NodeOp::OverlapNest { levels, body, .. }
                | NodeOp::Pipeline { levels, body, .. } => {
                    let strip = match op {
                        NodeOp::Pipeline { strip, .. } => strip.as_ref().map(|s| s.level),
                        _ => None,
                    };
                    // the strip range is chunked before the nest runs
                    if let Some(lv) = strip.and_then(|level| levels.get(level)) {
                        self.read(&lv.lo, bound);
                        self.read(&lv.hi, bound);
                    }
                    for lv in levels {
                        self.bind(lv.var, &lv.lo, &lv.hi, bound);
                    }
                    self.ops(body, bound);
                    bound.truncate(bound.len() - levels.len());
                }
            }
        }
    }
}

/// The int slots `body` writes: the targets of its integer assignments
/// and the variables of its loops and nest levels, at any depth.
fn written(body: Body, out: &mut Vec<usize>) {
    out.extend(body.levels.iter().map(|lv| lv.var));
    for op in body.ops {
        match op {
            NodeOp::AssignI { slot, .. } => out.push(*slot),
            NodeOp::Loop { var, body, .. } => {
                out.push(*var);
                written(Body::of(body), out);
            }
            NodeOp::OverlapNest { levels, body, .. } | NodeOp::Pipeline { levels, body, .. } => {
                written(
                    Body {
                        levels,
                        ..Body::of(body)
                    },
                    out,
                )
            }
            NodeOp::If { arms } => arms.iter().for_each(|(_, ops)| written(Body::of(ops), out)),
            NodeOp::Assign { .. }
            | NodeOp::AssignF { .. }
            | NodeOp::Call { .. }
            | NodeOp::Exchange { .. } => {}
        }
    }
}

/// The statements of `ops`, counted once each.
fn statements(ops: &[NodeOp]) -> u64 {
    let count = |op: &NodeOp| match op {
        NodeOp::Assign { .. } | NodeOp::AssignF { .. } | NodeOp::AssignI { .. } => 1,
        NodeOp::Loop { body, .. }
        | NodeOp::OverlapNest { body, .. }
        | NodeOp::Pipeline { body, .. } => statements(body),
        NodeOp::If { arms } => arms.iter().map(|(_, body)| statements(body)).sum(),
        NodeOp::Call { .. } | NodeOp::Exchange { .. } => 0,
    };
    ops.iter().map(count).sum()
}

/// The error an access through an unbound array dummy raises.
pub(super) fn unbound_dummy(rank: usize, arr: usize) -> String {
    format!(
        "rank {rank}: array dummy (local slot {arr}) is referenced but was never \
         bound to an actual argument"
    )
}

/// Every constant the lowering of `ops` will ask a register for.
fn collect_consts(ops: &[NodeOp], out: &mut Vec<f64>) {
    fn expr(e: &CExpr, out: &mut Vec<f64>) {
        let mut add = |v: f64| {
            if !out.iter().any(|c| c.to_bits() == v.to_bits()) {
                out.push(v);
            }
        };
        match e {
            CExpr::Const(v) => add(*v),
            CExpr::Int(_) | CExpr::LoadF(_) | CExpr::Load { .. } => {}
            CExpr::Bin(_, a, b) => {
                expr(a, out);
                expr(b, out);
            }
            // a negated constant is a constant
            CExpr::Neg(a) => match **a {
                CExpr::Const(v) => add(-v),
                _ => expr(a, out),
            },
            CExpr::Intr(i, args) => {
                match INTRINSIC_NAMES.get(*i) {
                    Some(&"min") => add(f64::INFINITY),
                    Some(&"max") => add(f64::NEG_INFINITY),
                    _ => {}
                }
                args.iter().for_each(|a| expr(a, out));
            }
        }
    }
    for op in ops {
        match op {
            NodeOp::Loop { body, .. }
            | NodeOp::OverlapNest { body, .. }
            | NodeOp::Pipeline { body, .. } => collect_consts(body, out),
            NodeOp::Assign { value, .. }
            | NodeOp::AssignF { value, .. }
            | NodeOp::AssignI { value, .. } => expr(value, out),
            NodeOp::If { arms } => {
                for (cond, body) in arms {
                    cond.iter().for_each(|c| expr(c, out));
                    collect_consts(body, out);
                }
            }
            NodeOp::Call {
                int_args,
                float_args,
                ..
            } => int_args
                .iter()
                .chain(float_args)
                .for_each(|(_, e)| expr(e, out)),
            NodeOp::Exchange { .. } => {}
        }
    }
}
