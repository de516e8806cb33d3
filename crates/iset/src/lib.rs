//! # dhpf-iset — symbolic integer set framework
//!
//! A small Omega-style framework for representing and manipulating sets of
//! symbolic integer tuples, in the spirit of the integer-set machinery the
//! Rice dHPF compiler builds its data-parallel analyses on (Adve &
//! Mellor-Crummey, PLDI'98; used throughout the SC'98 paper this repository
//! reproduces).
//!
//! The central type is [`Set`]: a union of convex polyhedra over a named
//! tuple space (e.g. `[i, j, k]`), with free symbolic parameters (any
//! variable mentioned in a constraint but not in the tuple space, e.g. `N`,
//! `P`, `myid`). On top of it sit affine [`Map`]s between tuple spaces.
//!
//! The framework is exact over the rationals (Fourier–Motzkin elimination;
//! an *interval* polyhedron, whose constraints each bound one variable, is
//! decided by its bounds, FM's answer without FM, and unions of
//! parameter-free boxes are mapped, intersected, subtracted and boxed on
//! their bounds) and *conservative* over the integers in the directions the
//! compiler needs:
//!
//! * [`Set::is_empty`] may answer `false` for a rationally-nonempty but
//!   integer-empty set — callers treat "nonempty" as "may be nonempty".
//! * [`Set::is_subset`] proves `A ⊆ B` by showing `A ∖ B` is rationally
//!   empty; a `false` answer means "could not prove", and the optimization
//!   that asked (e.g. data availability, §7 of the paper) is simply not
//!   applied.
//!
//! Constraint normalization performs integer tightening (dividing a
//! `g·x + c ≥ 0` constraint by `g = gcd` floors the constant), so the most
//! common compiler constraints (unit-coefficient bounds from loop nests and
//! BLOCK distributions) are handled exactly.
//!
//! The hot operations (union, intersect, subtract, project, subset-test,
//! polyhedron emptiness and elimination) are memoized through a process-wide
//! hash-consing interner where they run Fourier–Motzkin — see [`intern`] for
//! the policy, [`cache_stats`] for hit/miss counters, and the `*_uncached`
//! method variants for the cache-bypassing paths used by differential tests.

mod boxes;
pub mod constraint;
pub mod enumerate;
pub mod expr;
pub mod intern;
pub mod map;
pub mod poly;
pub mod set;

pub use constraint::{Constraint, Kind};
pub use expr::LinExpr;
pub use intern::{cache_stats, reset_cache, CacheStats, OpStats};
pub use map::Map;
pub use poly::Polyhedron;
pub use set::Set;

/// Convenience: build a [`LinExpr`] from a variable name.
pub fn var(name: &str) -> LinExpr {
    LinExpr::var(name)
}

/// Convenience: build a constant [`LinExpr`].
pub fn cst(c: i64) -> LinExpr {
    LinExpr::cst(c)
}
