//! Pairwise dependence testing via integer-set emptiness.
//!
//! For two references to the same variable inside a loop nest, we build
//! the classic dependence system — loop bounds for source and destination
//! iterations (renamed apart), subscript equality per affine dimension —
//! and probe it once per *level*:
//!
//! * **loop-independent**: all common loop variables equal, source
//!   lexically before destination;
//! * **carried at level ℓ**: equal above ℓ, source precedes destination
//!   at ℓ (respecting the loop step direction).
//!
//! Non-affine subscript dimensions contribute no constraint
//! (conservative: assumed dependent). Scalar references always conflict.
//!
//! The systems are decided on dense integer rows, not on named sets. A
//! call indexes each loop bound and subscript once, as an affine form over
//! its own nest's loops and free symbols. A pair lays its columns out in
//! the order the renamed variables' names sort — destination loops `D*`,
//! source loops `S*`, then symbols — which is the order
//! [`dhpf_iset::Polyhedron::is_empty`] eliminates them in. One private
//! routine, `decide`, then reaches that method's decision step for step:
//! the same gcd tightening and deduplication, the same interval shortcut,
//! and per column the first unit-coefficient equality's substitution or
//! else Fourier–Motzkin, each in the same row order. Entries stay within
//! ±2^60; a system that would leave that range, or needs more than
//! 16 columns, is decided by [`Set::is_empty_uncached`] on the named
//! constraints instead. No dependence test enters the set interner.
//!
//! Per pair the base system (bounds and subscript equalities) is decided
//! first. When it is empty over the rationals, so is every probe, which
//! only adds rows, and the routine finds every rationally empty system
//! empty, so the probes are skipped. Every decision is memoized for the
//! call on the system's rows. [`dep_stats`] counts the traffic.

use crate::loops::UnitLoops;
use crate::refs::{RefInfo, UnitRefs};
use dhpf_fortran::ast::StmtId;
use dhpf_iset::{Constraint, LinExpr, Set};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Dependence kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DepKind {
    /// Write → read.
    Flow,
    /// Read → write.
    Anti,
    /// Write → write.
    Output,
}

/// One dependence edge (source executes before destination).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dependence {
    pub array: String,
    pub kind: DepKind,
    pub src_stmt: StmtId,
    pub dst_stmt: StmtId,
    pub src_ref: dhpf_fortran::ast::RefId,
    pub dst_ref: dhpf_fortran::ast::RefId,
    /// `None` = loop-independent; `Some(l)` = carried by the l-th common
    /// loop (0-based, outermost first, counted within the analyzed loop's
    /// nest).
    pub level: Option<usize>,
}

impl Dependence {
    pub fn is_loop_independent(&self) -> bool {
        self.level.is_none()
    }
}

/// Process-wide counts of the dependence tests' traffic since start-up.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DepStats {
    /// Ordered reference pairs tested.
    pub pairs: u64,
    /// Systems posed: each pair's base system and the probes it needed.
    pub systems: u64,
    /// Systems answered from the call's memo.
    pub memo_hits: u64,
    /// Systems decided by [`Set::is_empty_uncached`], too wide for a row
    /// or out of the rows' range.
    pub fallbacks: u64,
}

impl DepStats {
    /// The counts since the snapshot `earlier`.
    pub fn since(&self, earlier: &DepStats) -> DepStats {
        DepStats {
            pairs: self.pairs.saturating_sub(earlier.pairs),
            systems: self.systems.saturating_sub(earlier.systems),
            memo_hits: self.memo_hits.saturating_sub(earlier.memo_hits),
            fallbacks: self.fallbacks.saturating_sub(earlier.fallbacks),
        }
    }
}

static PAIRS: AtomicU64 = AtomicU64::new(0);
static SYSTEMS: AtomicU64 = AtomicU64::new(0);
static MEMO_HITS: AtomicU64 = AtomicU64::new(0);
static FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// Snapshot the process-wide dependence-test counters.
pub fn dep_stats() -> DepStats {
    DepStats {
        pairs: PAIRS.load(Relaxed),
        systems: SYSTEMS.load(Relaxed),
        memo_hits: MEMO_HITS.load(Relaxed),
        fallbacks: FALLBACKS.load(Relaxed),
    }
}

/// Analyze all dependences among statements inside `loop_id` (including
/// nested statements), considering the common loops *from `loop_id`
/// inward*. Level 0 is `loop_id` itself.
pub fn analyze_loop_deps(loop_id: StmtId, loops: &UnitLoops, refs: &UnitRefs) -> Vec<Dependence> {
    let (deps, stats) = analyze(loop_id, loops, refs);
    PAIRS.fetch_add(stats.pairs, Relaxed);
    SYSTEMS.fetch_add(stats.systems, Relaxed);
    MEMO_HITS.fetch_add(stats.memo_hits, Relaxed);
    FALLBACKS.fetch_add(stats.fallbacks, Relaxed);
    deps
}

/// [`analyze_loop_deps`], with the call's own counts.
fn analyze(loop_id: StmtId, loops: &UnitLoops, refs: &UnitRefs) -> (Vec<Dependence>, DepStats) {
    // collect refs of interest grouped by array, skipping the induction
    // variables of enclosing loops
    let mut by_array: BTreeMap<&str, Vec<&RefInfo>> = BTreeMap::new();
    for sid in loops.stmts_in(loop_id) {
        for r in refs.of_stmt(sid) {
            if !(r.is_scalar && loops.is_loop_var(r.stmt, &r.array)) {
                by_array.entry(r.array.as_str()).or_default().push(r);
            }
        }
    }
    let mut call = Call::new(loop_id, loops);
    let mut memo = Memo::default();
    let mut out = Vec::new();
    for rs in by_array.values() {
        let rs: Vec<Indexed> = rs.iter().map(|r| call.index(r)).collect();
        for (i, r1) in rs.iter().enumerate() {
            for r2 in &rs[i..] {
                if !r1.r.is_write && !r2.r.is_write {
                    continue;
                }
                // ordered pairs both ways (skip the self-pair duplicate)
                call.test_pair(r1, r2, &mut memo, &mut out);
                if r1.r.id != r2.r.id {
                    call.test_pair(r2, r1, &mut memo, &mut out);
                }
            }
        }
    }
    (out, memo.stats)
}

fn kind_of(src: &RefInfo, dst: &RefInfo) -> DepKind {
    match (src.is_write, dst.is_write) {
        (true, true) => DepKind::Output,
        (true, false) => DepKind::Flow,
        (false, true) => DepKind::Anti,
        (false, false) => unreachable!("read-read filtered"),
    }
}

/// A variable of an indexed affine form: a loop of the form's own nest
/// (by position, outermost first, innermost binding of its name) or a
/// free symbol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Var<'a> {
    Loop(usize),
    Sym(&'a str),
}

/// `Σ k·var + c`, indexed against one nest.
#[derive(Clone, Debug)]
struct Affine<'a> {
    terms: Vec<(Var<'a>, i64)>,
    c: i64,
}

impl<'a> Affine<'a> {
    /// Index `e` against a nest whose loop variables are `vars`. A name
    /// bound by two loops of the nest is the inner one's, as Fortran
    /// scoping has it.
    fn new(e: &'a LinExpr, vars: &[&str]) -> Self {
        let var = |v: &'a str| {
            vars.iter()
                .rposition(|x| *x == v)
                .map_or(Var::Sym(v), Var::Loop)
        };
        Affine {
            terms: e.terms().map(|(v, k)| (var(v), k)).collect(),
            c: e.constant(),
        }
    }

    fn syms(&self) -> impl Iterator<Item = &'a str> + '_ {
        self.terms.iter().filter_map(|(v, _)| match v {
            Var::Sym(s) => Some(*s),
            Var::Loop(_) => None,
        })
    }
}

/// One nest (the loops enclosing a statement, outermost first), indexed.
struct Nest<'a> {
    ids: &'a [StmtId],
    vars: Vec<&'a str>,
    /// Per loop, its bounds as `[lower, upper]` in value order: swapped
    /// for a negative step. `None` for a non-affine bound.
    bounds: Vec<[Option<Affine<'a>>; 2]>,
}

/// A reference with its subscripts indexed against its nest.
struct Indexed<'a> {
    r: &'a RefInfo,
    nest: usize,
    subs: Vec<Option<Affine<'a>>>,
}

/// What one system asks besides the base: all common loops from the
/// analyzed one inward equal (loop-independent), or equal above a level
/// and ordered at it (carried).
#[derive(Clone, Copy)]
enum Probe {
    Independent,
    Carried(usize),
}

/// Which side of a pair a nest column belongs to.
#[derive(Clone, Copy)]
enum Side {
    Src,
    Dst,
}

/// The names the reference test gives the source and destination loops.
const S_NAMES: [&str; COLS] = [
    "S0", "S1", "S2", "S3", "S4", "S5", "S6", "S7", "S8", "S9", "S10", "S11", "S12", "S13", "S14",
    "S15",
];
const D_NAMES: [&str; COLS] = [
    "D0", "D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8", "D9", "D10", "D11", "D12", "D13", "D14",
    "D15",
];

/// Where a pair's variables sit in its rows.
struct Layout<'a> {
    /// Columns in use.
    n: usize,
    src: [usize; COLS],
    dst: [usize; COLS],
    /// The pair's symbols, sorted, with their columns.
    syms: Vec<(&'a str, usize)>,
}

impl Layout<'_> {
    fn col(&self, side: Side, v: Var) -> usize {
        match (v, side) {
            (Var::Loop(i), Side::Src) => self.src[i],
            (Var::Loop(i), Side::Dst) => self.dst[i],
            (Var::Sym(s), _) => {
                let k = self.syms.binary_search_by(|(x, _)| (*x).cmp(s));
                self.syms[k.expect("every symbol of the pair has a column")].1
            }
        }
    }
}

/// The index of one [`analyze_loop_deps`] call.
struct Call<'a> {
    loop_id: StmtId,
    loops: &'a UnitLoops,
    nests: Vec<Nest<'a>>,
    /// Index into `nests` by the nest's innermost loop.
    nest_at: HashMap<Option<StmtId>, usize>,
}

/// The decisions of one [`analyze_loop_deps`] call, by system, and its
/// counts.
#[derive(Default)]
struct Memo {
    verdicts: HashMap<Vec<Row>, Verdict>,
    stats: DepStats,
}

impl<'a> Call<'a> {
    fn new(loop_id: StmtId, loops: &'a UnitLoops) -> Self {
        Call {
            loop_id,
            loops,
            nests: Vec::new(),
            nest_at: HashMap::new(),
        }
    }

    /// Index `r` and, on first sight, its nest.
    fn index(&mut self, r: &'a RefInfo) -> Indexed<'a> {
        let ids: &'a [StmtId] = self.loops.nest_of.get(&r.stmt).map_or(&[], Vec::as_slice);
        let loops = self.loops;
        let nests = &mut self.nests;
        let nest = *self.nest_at.entry(ids.last().copied()).or_insert_with(|| {
            let vars: Vec<&str> = ids.iter().map(|id| loops.loops[id].var.as_str()).collect();
            let bounds = (ids.iter().map(|id| &loops.loops[id]))
                .map(|info| {
                    let [lo, hi] =
                        [&info.lo, &info.hi].map(|b| b.as_ref().map(|e| Affine::new(e, &vars)));
                    if info.step >= 0 {
                        [lo, hi]
                    } else {
                        [hi, lo]
                    }
                })
                .collect();
            nests.push(Nest { ids, vars, bounds });
            nests.len() - 1
        });
        let vars = &self.nests[nest].vars;
        Indexed {
            r,
            nest,
            subs: (r.subs.iter())
                .map(|s| s.as_ref().map(|e| Affine::new(e, vars)))
                .collect(),
        }
    }

    /// Test `src → dst` dependences and append findings.
    fn test_pair(
        &self,
        src: &Indexed<'a>,
        dst: &Indexed<'a>,
        memo: &mut Memo,
        out: &mut Vec<Dependence>,
    ) {
        let (sn, dn) = (&self.nests[src.nest], &self.nests[dst.nest]);
        // common loops from `loop_id` inward
        let common = sn
            .ids
            .iter()
            .zip(dn.ids)
            .take_while(|(a, b)| a == b)
            .count();
        let Some(start) = sn.ids[..common].iter().position(|&l| l == self.loop_id) else {
            return; // loop_id does not enclose both
        };
        memo.stats.pairs += 1;
        let pair = Pair {
            src,
            dst,
            sn,
            dn,
            start,
            common,
            loops: self.loops,
        };
        // within one statement the RHS reads execute before the LHS write,
        // so the only same-statement loop-independent order is read → write
        let (s, d) = (src.r, dst.r);
        let independent =
            self.loops.before(s.stmt, d.stmt) || (s.stmt == d.stmt && !s.is_write && d.is_write);
        let probes = (independent.then_some(Probe::Independent).into_iter())
            .chain((0..common - start).map(Probe::Carried));
        let mut found = |probe: Probe| {
            out.push(Dependence {
                array: s.array.clone(),
                kind: kind_of(s, d),
                src_stmt: s.stmt,
                dst_stmt: d.stmt,
                src_ref: s.id,
                dst_ref: d.id,
                level: match probe {
                    Probe::Independent => None,
                    Probe::Carried(l) => Some(l),
                },
            })
        };
        let Some((layout, base)) = pair.dense() else {
            for probe in probes {
                memo.stats.systems += 1;
                memo.stats.fallbacks += 1;
                if !pair.fallback(Some(probe)) {
                    found(probe);
                }
            }
            return;
        };
        let n = layout.n;
        let mut sys = Vec::with_capacity(base.len() + common - start + 1);
        // the verdicts concern the normalized rows, so tightening them is
        // not tracked here; a trivially false base row makes every probe
        // trivially empty
        let mut tightened = false;
        if !base
            .into_iter()
            .all(|r| add(&mut sys, r, n, &mut tightened))
        {
            memo.stats.systems += 1;
            return;
        }
        let v = memo.decide(&sys, n, || pair.fallback(None));
        if v.empty && v.rational {
            return;
        }
        let base_len = sys.len();
        for probe in probes {
            sys.truncate(base_len);
            let consistent = (pair.extras(probe, &layout).into_iter())
                .all(|r| add(&mut sys, r, n, &mut tightened));
            let empty = if consistent {
                memo.decide(&sys, n, || pair.fallback(Some(probe))).empty
            } else {
                memo.stats.systems += 1;
                true
            };
            if !empty {
                found(probe);
            }
        }
    }
}

impl Memo {
    /// Decide the normalized system `sys` from the memo, by [`decide`],
    /// or — when that declines — by `fallback`.
    fn decide(&mut self, sys: &[Row], n: usize, fallback: impl FnOnce() -> bool) -> Verdict {
        self.stats.systems += 1;
        if let Some(v) = self.verdicts.get(sys) {
            self.stats.memo_hits += 1;
            return *v;
        }
        let v = decide(sys, n).unwrap_or_else(|| {
            self.stats.fallbacks += 1;
            Verdict {
                empty: fallback(),
                rational: false,
            }
        });
        self.verdicts.insert(sys.to_vec(), v);
        v
    }
}

/// One ordered reference pair under test.
struct Pair<'c, 'a> {
    src: &'c Indexed<'a>,
    dst: &'c Indexed<'a>,
    sn: &'c Nest<'a>,
    dn: &'c Nest<'a>,
    /// Position of the analyzed loop in both nests.
    start: usize,
    /// Number of loops the nests share.
    common: usize,
    loops: &'a UnitLoops,
}

impl<'a> Pair<'_, 'a> {
    /// The subscript dimensions affine on both sides.
    fn subs(&self) -> impl Iterator<Item = (&Affine<'a>, &Affine<'a>)> + '_ {
        (self.src.subs.iter().zip(&self.dst.subs))
            .filter_map(|(a, b)| Some((a.as_ref()?, b.as_ref()?)))
    }

    /// The bounds of both nests, each with its side and loop position.
    fn bounds(&self) -> impl Iterator<Item = (Side, usize, &[Option<Affine<'a>>; 2])> + '_ {
        [(Side::Src, self.sn), (Side::Dst, self.dn)]
            .into_iter()
            .flat_map(|(side, nest)| {
                nest.bounds
                    .iter()
                    .enumerate()
                    .map(move |(i, b)| (side, i, b))
            })
    }

    /// The nest positions of the common loops a probe holds equal, and
    /// the position and step of the loop it orders.
    fn probe_levels(&self, probe: Probe) -> (std::ops::Range<usize>, Option<(usize, i64)>) {
        match probe {
            Probe::Independent => (self.start..self.common, None),
            Probe::Carried(l) => {
                let i = self.start + l;
                (
                    self.start..i,
                    Some((i, self.loops.loops[&self.sn.ids[i]].step)),
                )
            }
        }
    }

    /// The column layout and the raw base rows, or `None` when the pair
    /// needs more than [`COLS`] columns or an entry leaves ±2^60.
    fn dense(&self) -> Option<(Layout<'a>, Vec<Row>)> {
        let mut syms: Vec<&'a str> = Vec::new();
        for (_, _, b) in self.bounds() {
            syms.extend(b.iter().flatten().flat_map(Affine::syms));
        }
        for (a, b) in self.subs() {
            syms.extend(a.syms().chain(b.syms()));
        }
        syms.sort_unstable();
        syms.dedup();
        let (ns, nd) = (self.sn.vars.len(), self.dn.vars.len());
        let n = ns + nd + syms.len();
        if n > COLS {
            return None;
        }
        // columns in the order the names sort: the elimination order
        // (identifiers are lower case, so no symbol is named like a loop)
        #[derive(Clone, Copy)]
        enum Slot {
            Src(usize),
            Dst(usize),
            Sym(usize),
        }
        let mut names: Vec<(&str, Slot)> = (0..ns).map(|i| (S_NAMES[i], Slot::Src(i))).collect();
        names.extend((0..nd).map(|i| (D_NAMES[i], Slot::Dst(i))));
        names.extend(syms.iter().enumerate().map(|(k, s)| (*s, Slot::Sym(k))));
        names.sort_by(|a, b| a.0.cmp(b.0));
        let mut layout = Layout {
            n,
            src: [0; COLS],
            dst: [0; COLS],
            syms: syms.iter().map(|s| (*s, 0)).collect(),
        };
        for (col, (_, slot)) in names.into_iter().enumerate() {
            match slot {
                Slot::Src(i) => layout.src[i] = col,
                Slot::Dst(i) => layout.dst[i] = col,
                Slot::Sym(k) => layout.syms[k].1 = col,
            }
        }

        let mut rows = Vec::new();
        // loop bounds: lower ≤ v ≤ upper in value order
        for (side, i, [lo, hi]) in self.bounds() {
            let v = layout.col(side, Var::Loop(i));
            if let Some(lo) = lo {
                rows.push(Acc::unit(v, 1).add(lo, side, -1, &layout).row(false)?);
            }
            if let Some(hi) = hi {
                rows.push(Acc::unit(v, -1).add(hi, side, 1, &layout).row(false)?);
            }
        }
        // subscript equality per affine dimension
        for (a, b) in self.subs() {
            let acc = Acc::default().add(a, Side::Src, 1, &layout);
            rows.push(acc.add(b, Side::Dst, -1, &layout).row(true)?);
        }
        Some((layout, rows))
    }

    /// The rows a probe adds to the base.
    fn extras(&self, probe: Probe, layout: &Layout) -> Vec<Row> {
        let (eqs, strict) = self.probe_levels(probe);
        let pos = |i| (layout.src[i], layout.dst[i]);
        let mut rows: Vec<Row> = eqs.map(|i| Row::between(pos(i), 0, true)).collect();
        if let Some((i, step)) = strict {
            let (s, d) = pos(i);
            // source strictly before destination in the loop's direction
            rows.push(if step >= 0 {
                Row::between((d, s), -1, false)
            } else {
                Row::between((s, d), -1, false)
            });
        }
        rows
    }

    /// Decide the base system, or a probe of it, on named constraints by
    /// [`Set::is_empty_uncached`]: the reference test's construction.
    fn fallback(&self, probe: Option<Probe>) -> bool {
        let name = |side: Side, i: usize| match side {
            Side::Src => format!("S{i}"),
            Side::Dst => format!("D{i}"),
        };
        let expr = |e: &Affine, side: Side| {
            let mut out = LinExpr::cst(e.c);
            for &(v, k) in &e.terms {
                match v {
                    Var::Loop(i) => out.add_term(&name(side, i), k),
                    Var::Sym(s) => out.add_term(s, k),
                }
            }
            out
        };
        let mut cons = Vec::new();
        for (side, i, [lo, hi]) in self.bounds() {
            let v = LinExpr::var(&name(side, i));
            if let Some(lo) = lo {
                cons.push(Constraint::ge(v.clone(), expr(lo, side)));
            }
            if let Some(hi) = hi {
                cons.push(Constraint::le(v, expr(hi, side)));
            }
        }
        for (a, b) in self.subs() {
            cons.push(Constraint::eq(expr(a, Side::Src), expr(b, Side::Dst)));
        }
        if let Some(probe) = probe {
            let (eqs, strict) = self.probe_levels(probe);
            let var = |side, i| LinExpr::var(&name(side, i));
            for i in eqs {
                cons.push(Constraint::eq(var(Side::Src, i), var(Side::Dst, i)));
            }
            if let Some((i, step)) = strict {
                let (sv, dv) = (var(Side::Src, i), var(Side::Dst, i));
                cons.push(if step >= 0 {
                    Constraint::ge(dv, sv + 1)
                } else {
                    Constraint::ge(sv, dv + 1)
                });
            }
        }
        let space: Vec<String> = (0..self.sn.ids.len())
            .map(|i| name(Side::Src, i))
            .chain((0..self.dn.ids.len()).map(|i| name(Side::Dst, i)))
            .collect();
        Set::from_constraints(&space, cons).is_empty_uncached()
    }
}

/// Columns in one row: the widest pair the kernel decides.
const COLS: usize = 16;

/// Every row entry stays within `±LIMIT`, so a product of two entries and
/// a sum of two products fit an `i128` with room to spare. This is also
/// the set framework's bound for reading a constraint as an interval.
const LIMIT: i128 = 1 << 60;

/// One constraint `a·x + c ≥ 0` (`= 0` when `eq`) over a pair's columns.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Row {
    a: [i64; COLS],
    c: i64,
    eq: bool,
}

impl Row {
    /// `x_p - x_q + c`.
    fn between((p, q): (usize, usize), c: i64, eq: bool) -> Row {
        let mut a = [0; COLS];
        a[p] = 1;
        a[q] = -1;
        Row { a, c, eq }
    }

    /// `x·p + y·q` over the first `n` columns, or `None` when an entry
    /// leaves `±LIMIT`.
    fn combine(x: &Row, p: i64, y: &Row, q: i64, n: usize, eq: bool) -> Option<Row> {
        let f = |u: i64, v: i64| fit(u as i128 * p as i128 + v as i128 * q as i128);
        let mut r = Row {
            a: [0; COLS],
            c: f(x.c, y.c)?,
            eq,
        };
        for j in 0..n {
            r.a[j] = f(x.a[j], y.a[j])?;
        }
        Some(r)
    }
}

fn fit(x: i128) -> Option<i64> {
    (-LIMIT..=LIMIT).contains(&x).then_some(x as i64)
}

/// A row under construction: sums of indexed forms in `i128`, checked
/// against `±LIMIT` once.
#[derive(Default)]
struct Acc {
    a: [i128; COLS],
    c: i128,
}

impl Acc {
    fn unit(col: usize, k: i128) -> Acc {
        let mut acc = Acc::default();
        acc.a[col] = k;
        acc
    }

    /// `self + k·e`, with `e`'s variables placed as `side`'s.
    fn add(mut self, e: &Affine, side: Side, k: i128, layout: &Layout) -> Acc {
        for &(v, x) in &e.terms {
            self.a[layout.col(side, v)] += k * x as i128;
        }
        self.c += k * e.c as i128;
        self
    }

    fn row(&self, eq: bool) -> Option<Row> {
        let mut r = Row {
            a: [0; COLS],
            c: fit(self.c)?,
            eq,
        };
        for (x, &y) in r.a.iter_mut().zip(&self.a) {
            *x = fit(y)?;
        }
        Some(r)
    }
}

/// A decision on one system.
#[derive(Clone, Copy)]
struct Verdict {
    empty: bool,
    /// An empty verdict holds over the rationals: no step tightened a row
    /// past what the rational points allow.
    rational: bool,
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// `Polyhedron::add` on rows: tighten `r` by the gcd of its coefficients
/// (a `≥` row floors its constant; an equality the gcd does not divide is
/// false), then keep it unless it is trivially true or already present.
/// Returns false for a trivially false row. Sets `tightened` when the
/// tightening excludes rational points.
fn add(rows: &mut Vec<Row>, mut r: Row, n: usize, tightened: &mut bool) -> bool {
    let g = r.a[..n].iter().fold(0, |g, x| gcd(g, x.unsigned_abs()));
    if g == 0 {
        return if r.eq { r.c == 0 } else { r.c >= 0 };
    }
    if g > 1 {
        let g = g as i64;
        if r.c.rem_euclid(g) != 0 {
            *tightened = true;
            if r.eq {
                return false;
            }
        }
        for x in &mut r.a[..n] {
            *x /= g;
        }
        r.c = r.c.div_euclid(g);
    }
    if !rows.contains(&r) {
        rows.push(r);
    }
    true
}

/// Decide the emptiness of a normalized system over `n` columns the way
/// `Polyhedron::is_empty` decides the same constraints: an interval system
/// by its per-column bounds, any other by eliminating the columns in order.
/// `None` when an entry would leave `±LIMIT`.
fn decide(sys: &[Row], n: usize) -> Option<Verdict> {
    if let Some(empty) = interval_empty(sys, n) {
        return Some(Verdict {
            empty,
            rational: true,
        });
    }
    let (mut rows, mut next) = (sys.to_vec(), Vec::with_capacity(sys.len()));
    let mut tightened = false;
    for j in 0..n {
        if rows.iter().all(|r| r.a[j] == 0) {
            continue;
        }
        if !eliminate(&rows, j, n, &mut next, &mut tightened)? {
            return Some(Verdict {
                empty: true,
                rational: !tightened,
            });
        }
        std::mem::swap(&mut rows, &mut next);
    }
    Some(Verdict {
        empty: false,
        rational: true,
    })
}

/// When every row bounds one column, the system is empty iff some
/// column's bounds cross: Fourier–Motzkin's answer, without it.
fn interval_empty(rows: &[Row], n: usize) -> Option<bool> {
    let (mut lo, mut hi) = ([i64::MIN; COLS], [i64::MAX; COLS]);
    for r in rows {
        let mut vars = (0..n).filter(|&j| r.a[j] != 0);
        let (Some(j), None) = (vars.next(), vars.next()) else {
            return None;
        };
        // normalized, the one coefficient is ±1
        let a = r.a[j];
        let (l, h) = match (r.eq, a > 0) {
            (true, _) => (-a * r.c, -a * r.c),
            (false, true) => (-r.c, i64::MAX),
            (false, false) => (i64::MIN, r.c),
        };
        lo[j] = lo[j].max(l);
        hi[j] = hi[j].min(h);
    }
    Some((0..n).any(|j| lo[j] > hi[j]))
}

/// Eliminate column `j` of `rows` into `out`, as
/// `Polyhedron::eliminate_uncached`: substitute through the first equality
/// with a ±1 coefficient on `j`, else pair every lower bound on `j` with
/// every upper bound (an equality is both). `Some(false)` when a trivially
/// false row makes the result empty.
fn eliminate(
    rows: &[Row],
    j: usize,
    n: usize,
    out: &mut Vec<Row>,
    tightened: &mut bool,
) -> Option<bool> {
    out.clear();
    if let Some(e) = rows.iter().position(|r| r.eq && r.a[j].abs() == 1) {
        let (pivot, a) = (&rows[e], rows[e].a[j]);
        for (i, r) in rows.iter().enumerate() {
            if i == e {
                continue;
            }
            let r = match r.a[j] {
                0 => *r,
                k => Row::combine(r, 1, pivot, -k * a, n, r.eq)?,
            };
            if !add(out, r, n, tightened) {
                return Some(false);
            }
        }
        return Some(true);
    }
    let (mut lowers, mut uppers) = (Vec::new(), Vec::new());
    for r in rows {
        if r.a[j] == 0 {
            out.push(*r);
            continue;
        }
        let ge = Row { eq: false, ..*r };
        let split = r.eq.then(|| Row {
            a: r.a.map(|x| -x),
            c: -r.c,
            eq: false,
        });
        for q in std::iter::once(ge).chain(split) {
            if q.a[j] > 0 {
                lowers.push(q);
            } else {
                uppers.push(q);
            }
        }
    }
    for lo in &lowers {
        for up in &uppers {
            let r = Row::combine(lo, -up.a[j], up, lo.a[j], n, false)?;
            if !add(out, r, n, tightened) {
                return Some(false);
            }
        }
    }
    Some(true)
}

/// The dependence test as it was built on named sets, kept as the oracle
/// the dense kernel is held to.
#[cfg(test)]
mod reference {
    use super::*;

    /// [`analyze_loop_deps`] on named sets: the body by a scan of every
    /// statement's nest, each system decided by the set framework.
    pub(super) fn analyze_loop_deps(
        loop_id: StmtId,
        loops: &UnitLoops,
        refs: &UnitRefs,
    ) -> Vec<Dependence> {
        let mut out = Vec::new();
        let mut body: Vec<StmtId> = (loops.nest_of.iter())
            .filter(|(id, nest)| **id != loop_id && nest.contains(&loop_id))
            .map(|(id, _)| *id)
            .collect();
        body.sort_by_key(|id| loops.order[id]);
        // collect refs of interest grouped by array
        let mut by_array: std::collections::BTreeMap<&str, Vec<&RefInfo>> = Default::default();
        for &sid in &body {
            for r in refs.of_stmt(sid) {
                // skip induction variables of enclosing loops
                if r.is_scalar && loops.loop_vars(r.stmt).contains(&r.array.as_str()) {
                    continue;
                }
                by_array.entry(r.array.as_str()).or_default().push(r);
            }
        }
        for (_, rs) in by_array {
            for (i, r1) in rs.iter().enumerate() {
                for r2 in rs.iter().skip(i) {
                    if !r1.is_write && !r2.is_write {
                        continue;
                    }
                    // ordered pairs both ways (skip the self-pair duplicate)
                    test_pair(r1, r2, loop_id, loops, &mut out);
                    if r1.id != r2.id {
                        test_pair(r2, r1, loop_id, loops, &mut out);
                    }
                }
            }
        }
        out
    }

    /// Test `src → dst` dependences and append findings.
    fn test_pair(
        src: &RefInfo,
        dst: &RefInfo,
        loop_id: StmtId,
        loops: &UnitLoops,
        out: &mut Vec<Dependence>,
    ) {
        // Common loops from `loop_id` inward.
        let common_all = loops.common_loops(src.stmt, dst.stmt);
        let start = match common_all.iter().position(|&l| l == loop_id) {
            Some(p) => p,
            None => return, // loop_id does not enclose both
        };
        let common: Vec<StmtId> = common_all[start..].to_vec();
        let n_common = common.len();

        let src_nest = loops.nest_of.get(&src.stmt).cloned().unwrap_or_default();
        let dst_nest = loops.nest_of.get(&dst.stmt).cloned().unwrap_or_default();

        // rename maps: original var name -> renamed, per side
        let s_names: Vec<(String, String)> = src_nest
            .iter()
            .enumerate()
            .map(|(i, lid)| (loops.loops[lid].var.clone(), format!("S{i}")))
            .collect();
        let d_names: Vec<(String, String)> = dst_nest
            .iter()
            .enumerate()
            .map(|(i, lid)| (loops.loops[lid].var.clone(), format!("D{i}")))
            .collect();

        let rename = |e: &LinExpr, names: &[(String, String)]| -> LinExpr {
            let mut cur = e.clone();
            // apply innermost-first so shadowed outer same-named vars (rare)
            // rename to the innermost binding, matching Fortran scoping
            for (orig, fresh) in names.iter().rev() {
                if cur.mentions(orig) && !cur.mentions(fresh) {
                    cur = cur.rename(orig, fresh);
                }
            }
            cur
        };

        let space: Vec<String> = s_names
            .iter()
            .map(|(_, f)| f.clone())
            .chain(d_names.iter().map(|(_, f)| f.clone()))
            .collect();

        let mut base = Vec::new();
        // loop bounds (bounds may reference outer loop vars — rename them too)
        for (side_nest, names) in [(&src_nest, &s_names), (&dst_nest, &d_names)] {
            for (i, lid) in side_nest.iter().enumerate() {
                let info = &loops.loops[lid];
                let v = LinExpr::var(&names[i].1);
                let (lo, hi) = (info.lo.as_ref(), info.hi.as_ref());
                // normalize direction: for negative step, lo ≥ v ≥ hi
                let (lob, hib) = if info.step >= 0 { (lo, hi) } else { (hi, lo) };
                if let Some(l) = lob {
                    base.push(Constraint::ge(v.clone(), rename(l, names)));
                }
                if let Some(h) = hib {
                    base.push(Constraint::le(v.clone(), rename(h, names)));
                }
            }
        }
        // subscript equality per affine dimension
        for (a, b) in src.subs.iter().zip(dst.subs.iter()) {
            if let (Some(a), Some(b)) = (a, b) {
                base.push(Constraint::eq(rename(a, &s_names), rename(b, &d_names)));
            }
        }

        let common_offset = start; // position of common[0] within both nests
        let kind = kind_of(src, dst);

        // --- loop-independent: all common vars equal; src lexically first ---
        // within one statement the RHS reads execute before the LHS write,
        // so the only same-statement loop-independent order is read → write
        if loops.before(src.stmt, dst.stmt)
            || (src.stmt == dst.stmt && !src.is_write && dst.is_write)
        {
            let mut cons = base.clone();
            for l in 0..n_common {
                let i = common_offset + l;
                cons.push(Constraint::eq(
                    LinExpr::var(&s_names[i].1),
                    LinExpr::var(&d_names[i].1),
                ));
            }
            if !Set::from_constraints(&space, cons).is_empty() {
                out.push(Dependence {
                    array: src.array.clone(),
                    kind,
                    src_stmt: src.stmt,
                    dst_stmt: dst.stmt,
                    src_ref: src.id,
                    dst_ref: dst.id,
                    level: None,
                });
            }
        }

        // --- carried at each level ---
        for (l, cl) in common.iter().enumerate().take(n_common) {
            let mut cons = base.clone();
            for m in 0..l {
                let i = common_offset + m;
                cons.push(Constraint::eq(
                    LinExpr::var(&s_names[i].1),
                    LinExpr::var(&d_names[i].1),
                ));
            }
            let i = common_offset + l;
            let step = loops.loops[cl].step;
            let (sv, dv) = (LinExpr::var(&s_names[i].1), LinExpr::var(&d_names[i].1));
            if step >= 0 {
                cons.push(Constraint::ge(dv, sv + 1));
            } else {
                cons.push(Constraint::ge(sv, dv + 1));
            }
            if !Set::from_constraints(&space, cons).is_empty() {
                out.push(Dependence {
                    array: src.array.clone(),
                    kind,
                    src_stmt: src.stmt,
                    dst_stmt: dst.stmt,
                    src_ref: src.id,
                    dst_ref: dst.id,
                    level: Some(l),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refs::analyze_unit;
    use dhpf_fortran::parse;

    /// The outermost loop's dependences, held to the reference, with the
    /// call's counts.
    fn stats_of(src: &str) -> (Vec<Dependence>, DepStats) {
        let p = parse(src).expect("parse");
        let (loops, refs, _) = analyze_unit(&p, "s").expect("analyze");
        let outer = *(loops.loops.iter()).find(|(_, l)| l.depth == 0).unwrap().0;
        let (deps, stats) = analyze(outer, &loops, &refs);
        assert_eq!(deps, reference::analyze_loop_deps(outer, &loops, &refs));
        (deps, stats)
    }

    fn deps_of(src: &str, unit: &str) -> (Vec<Dependence>, UnitLoops, UnitRefs) {
        let p = parse(src).expect("parse");
        let (loops, refs, _) = analyze_unit(&p, unit).expect("analyze");
        // outermost loop
        let mut ids: Vec<StmtId> = loops.loops.keys().cloned().collect();
        ids.sort_by_key(|id| loops.order[id]);
        let outer = *ids.iter().find(|id| loops.loops[id].depth == 0).unwrap();
        let d = analyze_loop_deps(outer, &loops, &refs);
        assert_eq!(d, reference::analyze_loop_deps(outer, &loops, &refs));
        (d, loops, refs)
    }

    #[test]
    fn carried_flow_dependence() {
        let (deps, ..) = deps_of(
            "
      subroutine s(a, n)
      double precision a(n)
      do i = 2, n
         a(i) = a(i - 1) + 1.0
      enddo
      end
",
            "s",
        );
        assert!(deps
            .iter()
            .any(|d| d.kind == DepKind::Flow && d.level == Some(0) && d.array == "a"));
        // no loop-independent flow (a(i) then a(i-1) differ in same iter)
        assert!(!deps
            .iter()
            .any(|d| d.kind == DepKind::Flow && d.level.is_none()));
    }

    #[test]
    fn independent_iterations_no_carried_dep() {
        let (deps, ..) = deps_of(
            "
      subroutine s(a, b, n)
      double precision a(n), b(n)
      do i = 1, n
         a(i) = b(i) * 2.0
      enddo
      end
",
            "s",
        );
        assert!(deps.iter().all(|d| d.array != "a" || d.level.is_none()));
    }

    #[test]
    fn loop_independent_flow_between_statements() {
        let (deps, ..) = deps_of(
            "
      subroutine s(a, b, n)
      double precision a(n), b(n)
      do i = 1, n
         a(i) = 1.0
         b(i) = a(i) + 2.0
      enddo
      end
",
            "s",
        );
        let li: Vec<_> = deps
            .iter()
            .filter(|d| d.array == "a" && d.kind == DepKind::Flow && d.level.is_none())
            .collect();
        assert_eq!(li.len(), 1);
    }

    #[test]
    fn anti_dependence_direction() {
        let (deps, ..) = deps_of(
            "
      subroutine s(a, n)
      double precision a(n)
      do i = 1, n - 1
         a(i) = a(i + 1) * 0.5
      enddo
      end
",
            "s",
        );
        // read a(i+1) in iteration i, written at iteration i+1: anti carried
        assert!(deps
            .iter()
            .any(|d| d.kind == DepKind::Anti && d.level == Some(0)));
        assert!(!deps
            .iter()
            .any(|d| d.kind == DepKind::Flow && d.level == Some(0)));
    }

    #[test]
    fn outer_loop_carries_inner_independent() {
        let (deps, ..) = deps_of(
            "
      subroutine s(a, n)
      double precision a(n, n)
      do k = 2, n
         do j = 1, n
            a(j, k) = a(j, k - 1) + 1.0
         enddo
      enddo
      end
",
            "s",
        );
        assert!(deps
            .iter()
            .any(|d| d.kind == DepKind::Flow && d.level == Some(0)));
        assert!(!deps
            .iter()
            .any(|d| d.kind == DepKind::Flow && d.level == Some(1)));
    }

    #[test]
    fn distance_beyond_bounds_no_dep() {
        let (deps, ..) = deps_of(
            "
      subroutine s(a)
      double precision a(20)
      do i = 1, 5
         a(i) = a(i + 10) + 1.0
      enddo
      end
",
            "s",
        );
        // read indices 11..15 never written (writes cover 1..5)
        assert!(deps
            .iter()
            .all(|d| d.array != "a" || d.kind == DepKind::Output));
    }

    #[test]
    fn scalar_dependences_detected() {
        let (deps, ..) = deps_of(
            "
      subroutine s(a, n)
      double precision a(n)
      do i = 1, n
         t = a(i) * 2.0
         a(i) = t + 1.0
      enddo
      end
",
            "s",
        );
        // t: loop-independent flow from def to use; carried anti/output too
        assert!(deps
            .iter()
            .any(|d| d.array == "t" && d.kind == DepKind::Flow && d.level.is_none()));
        assert!(deps.iter().any(|d| d.array == "t" && d.level == Some(0)));
    }

    #[test]
    fn induction_variable_not_a_dependence() {
        let (deps, ..) = deps_of(
            "
      subroutine s(a, n)
      double precision a(n)
      do i = 1, n
         a(i) = i * 1.0
      enddo
      end
",
            "s",
        );
        assert!(deps.iter().all(|d| d.array != "i"));
    }

    #[test]
    fn negative_step_direction() {
        let (deps, ..) = deps_of(
            "
      subroutine s(a, n)
      double precision a(n)
      do i = n - 1, 1, -1
         a(i) = a(i + 1) + 1.0
      enddo
      end
",
            "s",
        );
        // backward sweep: a(i+1) was written in the *previous* iteration
        // (i+1 executes before i) → flow carried
        assert!(deps
            .iter()
            .any(|d| d.kind == DepKind::Flow && d.level == Some(0)));
    }

    #[test]
    fn output_dependence() {
        let (deps, ..) = deps_of(
            "
      subroutine s(a, n)
      double precision a(n)
      do i = 1, n
         a(1) = i * 1.0
      enddo
      end
",
            "s",
        );
        assert!(deps
            .iter()
            .any(|d| d.kind == DepKind::Output && d.level == Some(0)));
    }

    #[test]
    fn inner_loop_reusing_an_outer_name_binds_the_inner_one() {
        let (deps, stats) = stats_of(
            "
      subroutine s(a, n)
      double precision a(n, n)
      do i = 1, n
         do i = 2, n
            a(i, 1) = a(i - 1, 1) + 1.0
         enddo
      enddo
      end
",
        );
        assert!(deps
            .iter()
            .any(|d| d.kind == DepKind::Flow && d.level == Some(1)));
        assert_eq!(stats.fallbacks, 0);
    }

    #[test]
    fn free_symbols_in_bounds_and_subscripts_get_columns() {
        let (deps, stats) = stats_of(
            "
      subroutine s(a, n, q)
      double precision a(n)
      do i = q, n
         a(i) = a(q) + a(i + q)
      enddo
      end
",
        );
        assert!(deps
            .iter()
            .any(|d| d.kind == DepKind::Flow && d.level == Some(0)));
        assert_eq!(stats.fallbacks, 0);
    }

    #[test]
    fn non_affine_dimension_adds_no_row() {
        let (deps, stats) = stats_of(
            "
      subroutine s(a, ix, n)
      double precision a(n, n)
      integer ix(n)
      do i = 2, n
         a(ix(i), i) = a(ix(i), i) + a(ix(i - 1), i - 1)
      enddo
      end
",
        );
        assert!(deps
            .iter()
            .any(|d| d.kind == DepKind::Flow && d.level == Some(0)));
        assert_eq!(stats.fallbacks, 0);
    }

    #[test]
    fn nest_wider_than_a_row_takes_the_fallback() {
        // nine loops a side: eighteen columns
        let mut src = String::from("      subroutine s(a, n)\n      double precision a(n)\n");
        let vars = ["i1", "i2", "i3", "i4", "i5", "i6", "i7", "i8", "i9"];
        for v in vars {
            src.push_str(&format!("      do {v} = 1, 2\n"));
        }
        src.push_str("      a(i9) = a(i9 - 1) + a(i1)\n");
        for _ in vars {
            src.push_str("      enddo\n");
        }
        src.push_str("      end\n");
        let (deps, stats) = stats_of(&src);
        assert!(deps.iter().any(|d| d.kind == DepKind::Flow));
        assert_eq!(stats.fallbacks, stats.systems);
    }

    #[test]
    fn coefficients_near_the_limits_take_the_fallback() {
        // 2^62: the rows decline it, the named sets decide it unwrapped
        let (_, stats) = stats_of(
            "
      subroutine s(a, n)
      double precision a(n)
      do i = 1, n
         a(i) = a(i + 4611686018427387904) + 1.0
      enddo
      end
",
        );
        assert!(stats.fallbacks > 0);
        // in range, but Fourier–Motzkin's products are not: no wrapped
        // answer, no answer
        let mut x = Row::between((0, 1), 0, false);
        x.a[0] = 1 << 59;
        let mut y = Row::between((1, 0), 0, false);
        y.a[1] = 1 << 59;
        assert!(decide(&[x, y], 2).is_none());
        assert!(Acc::unit(0, i64::MAX as i128).row(false).is_none());
    }

    #[test]
    fn base_emptied_only_by_tightening_still_runs_its_probes() {
        // 3j = 2k + 3jj - 1 has no integer point, and the base system
        // finds that through a tightened row; with k fixed by the probe's
        // S0 = D0 the elimination takes another path and tightens nothing,
        // so the reference reports a loop-independent flow. Skipping the
        // probes of every empty base would lose that edge.
        let (deps, _) = stats_of(
            "
      subroutine s(a, n)
      double precision a(n)
      do k = 1, 1
         do j = 2, 3
            a(3*j) = 1.0
         enddo
         do jj = 2, 4
            t = a(2*k + 3*jj - 1)
         enddo
      enddo
      end
",
        );
        assert!(deps
            .iter()
            .any(|d| d.array == "a" && d.kind == DepKind::Flow && d.level.is_none()));
    }

    #[test]
    fn empty_base_skips_its_probes_and_equal_systems_are_memoized() {
        // planes 1 and 2 never meet: one system per pair, no probe
        let (deps, stats) = stats_of(
            "
      subroutine s(a, n)
      double precision a(2, n)
      do i = 1, n
         a(1, i) = a(2, i) + 1.0
      enddo
      end
",
        );
        assert!(deps.iter().all(|d| d.kind == DepKind::Output));
        assert!(stats.systems < 2 * stats.pairs);
        // the same offsets in two statements pose the same systems
        let (_, stats) = stats_of(
            "
      subroutine s(a, b, n)
      double precision a(n), b(n)
      do i = 2, n
         a(i) = a(i - 1) + 1.0
         b(i) = b(i - 1) + 1.0
      enddo
      end
",
        );
        assert!(stats.memo_hits > 0);
    }
}

/// The identity oracle of the dense dependence test: on every loop of
/// every unit, [`analyze_loop_deps`] must return exactly the edges the
/// named-set reference returns, in the same order. Programs are taken as
/// the compiler leaves them (`Compiled::transformed`, after inlining and
/// loop distribution): NAS SP and BT, the fuzz corpus, pinned-seed
/// generated programs, and generated nests.
#[cfg(test)]
mod oracle {
    use super::{analyze_loop_deps, reference};
    use crate::loops::UnitLoops;
    use crate::refs::UnitRefs;
    use dhpf_core::{compile, CompileOptions};
    use dhpf_fortran::{parse, Program};
    use dhpf_fuzz::{adapt_geometry, generate, grid_bindings, program_seed, GenOptions};
    use dhpf_nas::{Class, Kernel};
    use proptest::prelude::*;

    /// Hold every loop of every unit of `program` to the reference; the
    /// number of loops checked.
    fn check(program: &Program, what: &str) -> usize {
        let (tabs, _) = dhpf_fortran::symtab::resolve(program);
        let mut checked = 0;
        for unit in &program.units {
            let tab = tabs.get(&unit.name).cloned().unwrap_or_default();
            let (loops, refs) = (UnitLoops::build(unit), UnitRefs::build(unit, &tab));
            for &l in loops.loops.keys() {
                let (new, old) = (
                    analyze_loop_deps(l, &loops, &refs),
                    reference::analyze_loop_deps(l, &loops, &refs),
                );
                assert_eq!(new, old, "{what}: unit {}, loop {l:?}", unit.name);
                checked += 1;
            }
        }
        checked
    }

    /// Compile `src` on a 4-processor geometry adapted to its grid rank.
    fn transformed(src: &str, grid_rank: usize) -> Option<Program> {
        let program = parse(src).ok()?;
        let mut opts = CompileOptions::new();
        opts.bindings = grid_bindings(&adapt_geometry(&[4], grid_rank))
            .into_iter()
            .collect();
        compile(&program, &opts).ok().map(|c| c.transformed)
    }

    #[test]
    fn nas_sp_and_bt_match_the_reference() {
        for kernel in [Kernel::Sp, Kernel::Bt] {
            for class in [Class::S, Class::W] {
                for nprocs in [1, 4] {
                    let c = kernel.compile_dhpf(class, nprocs, None);
                    let what = format!("{} {class:?} at {nprocs}", kernel.name());
                    assert!(check(&c.transformed, &what) > 20, "{what}: too few loops");
                }
            }
        }
    }

    #[test]
    fn fuzz_corpus_matches_the_reference() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fuzz_corpus");
        let mut files = 0;
        for entry in std::fs::read_dir(dir).expect("corpus directory") {
            let path = entry.expect("corpus entry").path();
            if path.extension().is_none_or(|e| e != "f") {
                continue;
            }
            let src = std::fs::read_to_string(&path).expect("corpus file");
            // the corpus uses 1-D and 2-D grids; the directive decides which
            // geometry compiles
            let p = (1..=2).find_map(|rank| transformed(&src, rank));
            let p = p.unwrap_or_else(|| panic!("{} does not compile", path.display()));
            assert!(check(&p, &path.display().to_string()) > 0);
            files += 1;
        }
        assert!(files >= 4);
    }

    #[test]
    fn generated_programs_match_the_reference() {
        for k in 0..200 {
            let spec = generate(program_seed(20260806, k), &GenOptions::default());
            let p = transformed(&spec.render(), spec.grid_rank)
                .unwrap_or_else(|| panic!("generated program {k} does not compile"));
            check(&p, &format!("generated program {k}"));
        }
    }

    /// A small deterministic stream for the nest generator.
    struct Stream(u64);

    impl Stream {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }

        fn pick<'s>(&mut self, of: &[&'s str]) -> &'s str {
            of[self.below(of.len() as u64) as usize]
        }

        /// `c·v + k`, with `v` a loop variable in scope or a free symbol.
        fn affine(&mut self, scope: &[&str]) -> String {
            let v = if scope.is_empty() || self.below(5) == 0 {
                self.pick(&["n", "m"])
            } else {
                scope[self.below(scope.len() as u64) as usize]
            };
            let c = ["1", "1", "1", "2", "-1", "3"][self.below(6) as usize];
            let k = self.below(7) as i64 - 3;
            format!("{c}*{v} + ({k})")
        }

        /// A subscript: affine, constant, or (rarely) not affine.
        fn sub(&mut self, scope: &[&str]) -> String {
            match self.below(8) {
                0 => format!("{}", 1 + self.below(3)),
                1 if !scope.is_empty() => format!("ix({})", scope[0]),
                _ => self.affine(scope),
            }
        }

        fn stmt(&mut self, scope: &[&str], depth: usize, out: &mut String) {
            let pad = " ".repeat(6 + 3 * depth);
            match self.below(6) {
                0 => out.push_str(&format!(
                    "{pad}t = a({}, {})\n",
                    self.sub(scope),
                    self.sub(scope)
                )),
                1 => out.push_str(&format!(
                    "{pad}b({}) = t + b({})\n",
                    self.sub(scope),
                    self.sub(scope)
                )),
                _ => out.push_str(&format!(
                    "{pad}a({}, {}) = a({}, {}) + b({})\n",
                    self.sub(scope),
                    self.sub(scope),
                    self.sub(scope),
                    self.sub(scope),
                    self.sub(scope)
                )),
            }
        }

        /// A loop nest of up to three levels, its bodies of statements, `IF`
        /// arms and inner loops; an inner loop may reuse an outer name.
        fn nest(&mut self, scope: &mut Vec<&'static str>, depth: usize, out: &mut String) {
            let pad = " ".repeat(6 + 3 * depth);
            let var = self.pick(&["i", "j", "k", "i"]);
            let lo = if self.below(3) == 0 {
                self.affine(scope)
            } else {
                format!("{}", 1 + self.below(3))
            };
            let hi = match self.below(4) {
                0 => "n".to_string(),
                1 => format!("{}", 4 + self.below(8)),
                _ => format!("n - {}", self.below(3)),
            };
            let (lo, hi, step) = match self.below(5) {
                0 => (hi, lo, ", -1"),
                1 => (lo, hi, ", 2"),
                _ => (lo, hi, ""),
            };
            out.push_str(&format!("{pad}do {var} = {lo}, {hi}{step}\n"));
            scope.push(var);
            for _ in 0..1 + self.below(3) {
                match self.below(5) {
                    0 if depth < 2 => self.nest(scope, depth + 1, out),
                    1 => {
                        out.push_str(&format!("{pad}   if (t .gt. 0.0) then\n"));
                        self.stmt(scope, depth + 2, out);
                        out.push_str(&format!("{pad}   endif\n"));
                    }
                    _ => self.stmt(scope, depth + 1, out),
                }
            }
            scope.pop();
            out.push_str(&format!("{pad}enddo\n"));
        }
    }

    fn generated_nest(seed: u64) -> String {
        let mut s = Stream(seed);
        let mut src = String::from(
            "      subroutine s(a, b, ix, n, m)\n      double precision a(n, n), b(n)\n      integer ix(n)\n",
        );
        s.nest(&mut Vec::new(), 0, &mut src);
        src.push_str("      end\n");
        src
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn generated_nests_match_the_reference(seed in 0u64..u64::MAX) {
            let src = generated_nest(seed);
            let p = parse(&src).map_err(|e| format!("{e:?}\n{src}"))?;
            prop_assert!(check(&p, &src) > 0);
        }
    }
}
