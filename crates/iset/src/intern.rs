//! Hash-consing interner and memo tables for the set algebra.
//!
//! Every dHPF analysis pass (CP selection, LOCALIZE, loop distribution,
//! availability) bottoms out in a handful of `Set`/`Polyhedron` operations —
//! union, intersect, subtract, project, subset-test, emptiness, variable
//! elimination — and re-issues the *same* queries over and over: once per
//! convergence-loop iteration, once per reference, and again wholesale when a
//! program is recompiled. Where an operation runs Fourier–Motzkin, this
//! module gives it O(hash) warm cost by interning the operand structures
//! into stable integer ids and memoizing the operation keyed on those ids.
//!
//! Design notes:
//!
//! - **Memoize exactly where FM runs.** An *interval* polyhedron (every
//!   constraint bounds one variable, like a per-processor set at a fixed
//!   processor count) is decided faster than it hashes. Operations whose
//!   operands are all interval polyhedra, and eliminations through a
//!   unit-coefficient equality, are computed directly and never reach the
//!   tables, so [`cache_stats`] counts FM-backed operations only. The
//!   choice depends on the operands alone; both paths compute one value.
//! - The tables live behind a single process-global `Mutex`. Lookups and
//!   insertions hold the lock; **computation never does** — a cached
//!   operation may recurse into other cached operations (e.g. subtract's
//!   per-piece emptiness filter), so the lock is released around the
//!   `compute` closure. Two threads may therefore compute the same miss
//!   concurrently; both arrive at the identical value (all operations are
//!   pure), so the duplicated insert is benign.
//! - Memoization is *structural*: ids are keyed on the exact constraint
//!   representation, not on set semantics. Two semantically-equal but
//!   structurally-distinct sets get distinct ids and distinct memo entries.
//!   This keeps cached and uncached paths bit-identical — a cached op can
//!   never substitute a differently-represented (even if equivalent) result.
//! - Tables only grow until [`reset_cache`] is called, so the interned-node
//!   counts reported by [`cache_stats`] are also the peak since the last
//!   reset. They hold symbolic (FM-backed) operations only, which keeps
//!   them small; the compile benchmark resets to obtain cold timings.

use crate::constraint::{Constraint, Kind};
use crate::expr::LinExpr;
use crate::poly::Polyhedron;
use crate::set::Set;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Hit/miss counters for one memoized operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Lookups answered from the memo table.
    pub hits: u64,
    /// Lookups that fell through to a real computation.
    pub misses: u64,
}

impl OpStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups answered from cache (0.0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// A snapshot of the interner's memo counters and table sizes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CacheStats {
    /// `Set::union` memo counters.
    pub union: OpStats,
    /// `Set::intersect` memo counters.
    pub intersect: OpStats,
    /// `Set::subtract` memo counters.
    pub subtract: OpStats,
    /// `Set::is_subset` memo counters.
    pub subset: OpStats,
    /// `Set::project_out` memo counters.
    pub project: OpStats,
    /// `Polyhedron::is_empty` memo counters.
    pub poly_empty: OpStats,
    /// `Polyhedron::eliminate` memo counters.
    pub poly_eliminate: OpStats,
    /// Distinct interned linear expressions.
    pub interned_exprs: usize,
    /// Distinct interned constraints.
    pub interned_constraints: usize,
    /// Distinct interned polyhedra.
    pub interned_polys: usize,
    /// Distinct interned sets.
    pub interned_sets: usize,
}

impl CacheStats {
    fn ops(&self) -> [&OpStats; 7] {
        [
            &self.union,
            &self.intersect,
            &self.subtract,
            &self.subset,
            &self.project,
            &self.poly_empty,
            &self.poly_eliminate,
        ]
    }

    /// Total memo hits across all operations.
    pub fn hits(&self) -> u64 {
        self.ops().iter().map(|o| o.hits).sum()
    }

    /// Total memo misses across all operations.
    pub fn misses(&self) -> u64 {
        self.ops().iter().map(|o| o.misses).sum()
    }

    /// Overall hit rate across all operations (0.0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }

    /// Total interned nodes (exprs + constraints + polys + sets). Tables
    /// only grow between resets, so this is also the peak.
    pub fn interned_nodes(&self) -> usize {
        self.interned_exprs + self.interned_constraints + self.interned_polys + self.interned_sets
    }
}

/// Which binary set operation a memo entry belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum SetOp {
    Union,
    Intersect,
    Subtract,
}

/// A memoized query: an operation over interned operand ids. Its answer
/// is an id too — of a set, of a polyhedron, or a bool as 0/1.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Query {
    SetOp(SetOp, u32, u32),
    Subset(u32, u32),
    Project(u32, u32),
    PolyEmpty(u32),
    PolyElim(u32, u32),
}

impl Query {
    /// The operation's counters.
    fn stats(self, c: &mut CacheStats) -> &mut OpStats {
        match self {
            Query::SetOp(SetOp::Union, ..) => &mut c.union,
            Query::SetOp(SetOp::Intersect, ..) => &mut c.intersect,
            Query::SetOp(SetOp::Subtract, ..) => &mut c.subtract,
            Query::Subset(..) => &mut c.subset,
            Query::Project(..) => &mut c.project,
            Query::PolyEmpty(..) => &mut c.poly_empty,
            Query::PolyElim(..) => &mut c.poly_eliminate,
        }
    }
}

/// Interner state: id tables for each structure level plus the memo table.
///
/// Ids are dense indices. Constraints are keyed on `(expr id, kind)`,
/// polyhedra on their constraint-id vector (order-sensitive — two polyhedra
/// holding the same constraints in different order intern separately, which
/// costs a few duplicate entries but preserves representation exactly), and
/// sets on `(space, poly ids)`.
#[derive(Default)]
struct Tables {
    exprs: HashMap<LinExpr, u32>,
    cons: HashMap<(u32, Kind), u32>,
    syms: HashMap<String, u32>,
    polys: HashMap<Vec<u32>, u32>,
    poly_vals: Vec<Polyhedron>,
    sets: HashMap<(Vec<String>, Vec<u32>), u32>,
    set_vals: Vec<Set>,
    memo: HashMap<Query, u32>,
    /// Hit/miss counters (its table sizes are filled in on a snapshot).
    counters: CacheStats,
}

impl Tables {
    fn expr_id(&mut self, e: &LinExpr) -> u32 {
        if let Some(&id) = self.exprs.get(e) {
            return id;
        }
        let id = self.exprs.len() as u32;
        self.exprs.insert(e.clone(), id);
        id
    }

    fn con_id(&mut self, c: &Constraint) -> u32 {
        let e = self.expr_id(&c.expr);
        let next = self.cons.len() as u32;
        *self.cons.entry((e, c.kind)).or_insert(next)
    }

    fn sym_id(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.syms.get(s) {
            return id;
        }
        let id = self.syms.len() as u32;
        self.syms.insert(s.to_string(), id);
        id
    }

    fn poly_id(&mut self, p: &Polyhedron) -> u32 {
        let key: Vec<u32> = p.constraints().iter().map(|c| self.con_id(c)).collect();
        if let Some(&id) = self.polys.get(&key) {
            return id;
        }
        let id = self.poly_vals.len() as u32;
        self.poly_vals.push(p.clone());
        self.polys.insert(key, id);
        id
    }

    fn set(&self, id: u32) -> Set {
        self.set_vals[id as usize].clone()
    }

    fn poly(&self, id: u32) -> Polyhedron {
        self.poly_vals[id as usize].clone()
    }

    fn set_id(&mut self, s: &Set) -> u32 {
        let pids: Vec<u32> = s.polys().iter().map(|p| self.poly_id(p)).collect();
        let key = (s.space().to_vec(), pids);
        if let Some(&id) = self.sets.get(&key) {
            return id;
        }
        let id = self.set_vals.len() as u32;
        self.set_vals.push(s.clone());
        self.sets.insert(key, id);
        id
    }
}

fn tables() -> MutexGuard<'static, Tables> {
    static TABLES: OnceLock<Mutex<Tables>> = OnceLock::new();
    TABLES
        .get_or_init(|| Mutex::new(Tables::default()))
        .lock()
        // the lock is only held for table lookups/inserts, which don't
        // panic; recover rather than cascade if a test poisoned it anyway
        .unwrap_or_else(|e| e.into_inner())
}

/// Snapshot the current cache counters and table sizes.
pub fn cache_stats() -> CacheStats {
    let t = tables();
    CacheStats {
        interned_exprs: t.exprs.len(),
        interned_constraints: t.cons.len(),
        interned_polys: t.poly_vals.len(),
        interned_sets: t.set_vals.len(),
        ..t.counters.clone()
    }
}

/// Drop every interned value, memo entry, and counter. Subsequent
/// operations start cold.
pub fn reset_cache() {
    *tables() = Tables::default();
}

/// Answer the query `ask` builds from interned operands from the memo
/// table, or run `compute` with the lock released and record the answer
/// `store` interns.
fn memoized<R>(
    ask: impl Fn(&mut Tables) -> Query,
    load: impl FnOnce(&Tables, u32) -> R,
    store: impl FnOnce(&mut Tables, &R) -> u32,
    compute: impl FnOnce() -> R,
) -> R {
    {
        let mut t = tables();
        let q = ask(&mut t);
        if let Some(&v) = t.memo.get(&q) {
            q.stats(&mut t.counters).hits += 1;
            return load(&t, v);
        }
    }
    let r = compute();
    let mut t = tables();
    let q = ask(&mut t);
    let v = store(&mut t, &r);
    t.memo.insert(q, v);
    q.stats(&mut t.counters).misses += 1;
    r
}

pub(crate) fn cached_set_op(op: SetOp, a: &Set, b: &Set, compute: impl FnOnce() -> Set) -> Set {
    if a.is_interval() && b.is_interval() {
        return compute();
    }
    let ask = |t: &mut Tables| Query::SetOp(op, t.set_id(a), t.set_id(b));
    memoized(ask, Tables::set, Tables::set_id, compute)
}

pub(crate) fn cached_subset(a: &Set, b: &Set, compute: impl FnOnce() -> bool) -> bool {
    if a.is_interval() && b.is_interval() {
        return compute();
    }
    let ask = |t: &mut Tables| Query::Subset(t.set_id(a), t.set_id(b));
    memoized(ask, |_, v| v != 0, |_, r| u32::from(*r), compute)
}

pub(crate) fn cached_project(a: &Set, var: &str, compute: impl FnOnce() -> Set) -> Set {
    if a.is_interval() {
        return compute();
    }
    let ask = |t: &mut Tables| Query::Project(t.set_id(a), t.sym_id(var));
    memoized(ask, Tables::set, Tables::set_id, compute)
}

pub(crate) fn cached_poly_empty(p: &Polyhedron, compute: impl FnOnce() -> bool) -> bool {
    let ask = |t: &mut Tables| Query::PolyEmpty(t.poly_id(p));
    memoized(ask, |_, v| v != 0, |_, r| u32::from(*r), compute)
}

pub(crate) fn cached_poly_eliminate(
    p: &Polyhedron,
    var: &str,
    compute: impl FnOnce() -> Polyhedron,
) -> Polyhedron {
    let ask = |t: &mut Tables| Query::PolyElim(t.poly_id(p), t.sym_id(var));
    memoized(ask, Tables::poly, Tables::poly_id, compute)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Serialize tests that reset the global cache: the interner is
    // process-wide and the test harness is multi-threaded.
    fn lock_for_reset() -> MutexGuard<'static, ()> {
        static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
        GUARD
            .get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// `{[i] : 1 <= i <= n}`-shaped sets with a two-variable constraint
    /// (`i <= n`), which Fourier–Motzkin decides and the tables memoize.
    fn symbolic(lo: i64, hi: i64) -> Set {
        Set::from_constraints(
            &["i"],
            [
                Constraint::ge0(LinExpr::var("i") - lo),
                Constraint::ge0(LinExpr::var("n") - LinExpr::var("i")),
                Constraint::ge0(LinExpr::cst(hi) - LinExpr::var("n")),
            ],
        )
    }

    #[test]
    fn repeat_ops_hit_the_cache() {
        let _g = lock_for_reset();
        reset_cache();
        let a = symbolic(1, 10);
        let b = symbolic(4, 6);
        let d1 = a.subtract(&b);
        let before = cache_stats();
        let d2 = a.subtract(&b);
        let after = cache_stats();
        assert_eq!(d1, d2);
        assert_eq!(after.subtract.hits, before.subtract.hits + 1);
        assert_eq!(after.subtract.misses, before.subtract.misses);
    }

    #[test]
    fn cached_and_uncached_agree() {
        let _g = lock_for_reset();
        reset_cache();
        let a = Set::rect(&["i", "j"], &[1, 1], &[8, 8]);
        let b = Set::rect(&["i", "j"], &[3, 2], &[9, 5]);
        for _ in 0..2 {
            assert_eq!(a.union(&b), a.union_uncached(&b));
            assert_eq!(a.intersect(&b), a.intersect_uncached(&b));
            assert_eq!(a.subtract(&b), a.subtract_uncached(&b));
            assert_eq!(a.is_subset(&b), a.is_subset_uncached(&b));
            assert_eq!(a.project_out("j"), a.project_out_uncached("j"));
        }
    }

    #[test]
    fn reset_clears_tables_and_counters() {
        let _g = lock_for_reset();
        let a = symbolic(0, 3);
        let b = symbolic(2, 5);
        let _ = a.intersect(&b);
        assert!(cache_stats().interned_nodes() > 0);
        reset_cache();
        let s = cache_stats();
        assert_eq!(s.interned_nodes(), 0);
        assert_eq!(s.hits() + s.misses(), 0);
    }

    #[test]
    fn interval_ops_leave_the_interner_untouched() {
        let _g = lock_for_reset();
        let a = Set::rect(&["i", "j"], &[1, 1], &[8, 8]);
        let b = Set::rect(&["i", "j"], &[3, 2], &[9, 5]);
        // tests in other modules may use the tables concurrently: one
        // window without their traffic suffices, and interval traffic of
        // its own would leave no window clean
        let untouched = (0..100).any(|_| {
            let before = cache_stats();
            let _ = a.union(&b);
            let _ = a.intersect(&b).is_empty();
            let _ = a.subtract(&b);
            let _ = a.is_subset(&b);
            let _ = a.project_out("j");
            let after = cache_stats();
            after.hits() + after.misses() == before.hits() + before.misses()
                && after.interned_nodes() == before.interned_nodes()
        });
        assert!(untouched, "interval operands reached the interner");
    }

    #[test]
    fn stats_report_rates() {
        let s = OpStats { hits: 3, misses: 1 };
        assert_eq!(s.lookups(), 4);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(OpStats::default().hit_rate(), 0.0);
    }
}
