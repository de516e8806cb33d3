//! Convex polyhedra: conjunctions of affine constraints, with
//! Fourier–Motzkin variable elimination.

use crate::boxes::interval_empty;
use crate::constraint::{fm_combine, Constraint, Kind, Normalized};
use crate::expr::LinExpr;
use std::collections::BTreeSet;
use std::fmt;

/// A conjunction of affine constraints over named integer variables.
///
/// An *inconsistent* polyhedron (one whose normalization discovered a
/// trivially-false constraint) is represented by the canonical
/// `Polyhedron::empty()` marker, which contains the single constraint
/// `-1 ≥ 0`.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Polyhedron {
    cons: Vec<Constraint>,
}

impl Polyhedron {
    /// The universe (no constraints).
    pub fn universe() -> Self {
        Polyhedron::default()
    }

    /// The canonical empty polyhedron.
    pub fn empty() -> Self {
        Polyhedron {
            cons: vec![Constraint::ge0(LinExpr::cst(-1))],
        }
    }

    /// Build from constraints, normalizing.
    pub fn new<I: IntoIterator<Item = Constraint>>(cons: I) -> Self {
        let mut p = Polyhedron::universe();
        for c in cons {
            p.add(c);
            if p.is_trivially_empty() {
                return Polyhedron::empty();
            }
        }
        p
    }

    /// From constraints already normalized, distinct and none trivially
    /// false (the box kernel's canonical form).
    pub(crate) fn from_normalized(cons: Vec<Constraint>) -> Self {
        Polyhedron { cons }
    }

    /// Add a constraint (normalizing; deduplicating).
    pub fn add(&mut self, c: Constraint) {
        match c.normalize() {
            Normalized::True => {}
            Normalized::False => *self = Polyhedron::empty(),
            Normalized::Keep(c) => {
                if !self.cons.contains(&c) {
                    self.cons.push(c);
                }
            }
        }
    }

    /// The constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.cons
    }

    /// Whether the polyhedron is the canonical empty marker (syntactic).
    ///
    /// Stored constraints are always in normalized form (see
    /// [`Polyhedron::add`]), so the full [`Constraint::normalize`] pass is
    /// unnecessary here: the cheap constant-falsity check is equivalent and
    /// this method sits on the hot path of `subtract`/`intersect`.
    pub fn is_trivially_empty(&self) -> bool {
        self.cons.iter().any(|c| c.is_trivially_false())
    }

    /// Conjunction of two polyhedra.
    pub fn intersect(&self, other: &Polyhedron) -> Polyhedron {
        let mut p = self.clone();
        for c in &other.cons {
            p.add(c.clone());
            if p.is_trivially_empty() {
                return Polyhedron::empty();
            }
        }
        p
    }

    /// All variables mentioned by any constraint.
    pub fn vars(&self) -> BTreeSet<String> {
        let mut s = BTreeSet::new();
        for c in &self.cons {
            for v in c.expr.vars() {
                s.insert(v.to_string());
            }
        }
        s
    }

    /// Rename a variable in every constraint.
    pub fn rename(&self, from: &str, to: &str) -> Polyhedron {
        Polyhedron::new(self.cons.iter().map(|c| c.rename(from, to)))
    }

    /// Eliminate `var` by Fourier–Motzkin (rational shadow, which is exact
    /// for unit coefficients — the common case for loop/distribution
    /// constraints). Equalities mentioning `var` with a ±1 coefficient are
    /// used for exact substitution first; otherwise the equality is split
    /// into two inequalities. Memoized on the interned `(polyhedron, var)`
    /// pair unless that is a substitution or the polyhedron is an interval
    /// one (its FM pairs are constants).
    pub fn eliminate(&self, var: &str) -> Polyhedron {
        if self.unit_equality(var).is_some() || self.is_interval() {
            return self.eliminate_uncached(var);
        }
        crate::intern::cached_poly_eliminate(self, var, || self.eliminate_uncached(var))
    }

    /// An equality through which `var` can be substituted exactly.
    fn unit_equality(&self, var: &str) -> Option<&Constraint> {
        self.cons
            .iter()
            .find(|c| c.kind == Kind::Eq && c.expr.coeff(var).abs() == 1)
    }

    /// Cache-bypassing variant of [`Polyhedron::eliminate`].
    pub fn eliminate_uncached(&self, var: &str) -> Polyhedron {
        // 1. Exact substitution through a unit-coefficient equality.
        if let Some(eq) = self.unit_equality(var) {
            let a = eq.expr.coeff(var);
            // a·v + rest = 0  =>  v = -rest/a ; with a = ±1: v = -a·rest
            let mut rest = eq.expr.clone();
            rest.add_term(var, -a);
            let replacement = rest.scaled(-a);
            let mut out = Polyhedron::universe();
            for c in &self.cons {
                if std::ptr::eq(c, eq) {
                    continue;
                }
                out.add(c.substitute(var, &replacement));
                if out.is_trivially_empty() {
                    return Polyhedron::empty();
                }
            }
            return out;
        }

        // 2. Split remaining equalities into inequality pairs; partition.
        let mut lowers: Vec<Constraint> = Vec::new();
        let mut uppers: Vec<Constraint> = Vec::new();
        let mut rest: Vec<Constraint> = Vec::new();
        for c in &self.cons {
            let coeff = c.expr.coeff(var);
            if coeff == 0 {
                rest.push(c.clone());
                continue;
            }
            let ineqs: Vec<Constraint> = match c.kind {
                Kind::Ge => vec![c.clone()],
                Kind::Eq => vec![
                    Constraint::ge0(c.expr.clone()),
                    Constraint::ge0(-c.expr.clone()),
                ],
            };
            for iq in ineqs {
                if iq.expr.coeff(var) > 0 {
                    lowers.push(iq);
                } else {
                    uppers.push(iq);
                }
            }
        }

        let mut out = Polyhedron::new(rest);
        for lo in &lowers {
            for up in &uppers {
                out.add(fm_combine(lo, up, var));
                if out.is_trivially_empty() {
                    return Polyhedron::empty();
                }
            }
        }
        out
    }

    /// Eliminate several variables (in the given order).
    pub fn eliminate_all<'a, I: IntoIterator<Item = &'a str>>(&self, vars: I) -> Polyhedron {
        let mut p = self.clone();
        for v in vars {
            if p.is_trivially_empty() {
                return Polyhedron::empty();
            }
            p = p.eliminate(v);
        }
        p
    }

    /// Rational emptiness test. Empty ⇒ integer-empty (sound); nonempty
    /// means "may contain integer points". An interval polyhedron is
    /// decided by its per-variable bounds (the box kernel's reader); any
    /// other by Fourier–Motzkin, memoized on the interned polyhedron.
    pub fn is_empty(&self) -> bool {
        interval_empty(self)
            .unwrap_or_else(|| crate::intern::cached_poly_empty(self, || self.fm_empty()))
    }

    /// Cache-bypassing variant of [`Polyhedron::is_empty`]: the same
    /// decision, with no interner traffic.
    pub fn is_empty_uncached(&self) -> bool {
        interval_empty(self).unwrap_or_else(|| self.fm_empty())
    }

    /// True iff every constraint mentions at most one variable. Stored
    /// constraints are normalized, so that variable's coefficient is ±1:
    /// the polyhedron is a box (possibly open, possibly over parameters).
    pub(crate) fn is_interval(&self) -> bool {
        self.cons.iter().all(|c| c.expr.num_vars() <= 1)
    }

    /// Fourier–Motzkin emptiness: eliminate every variable and check the
    /// residual constant system.
    fn fm_empty(&self) -> bool {
        let mut p = self.clone();
        for v in &self.vars() {
            if p.is_trivially_empty() {
                return true;
            }
            p = p.eliminate_uncached(v);
        }
        p.is_trivially_empty()
    }

    /// Evaluate under a full assignment.
    pub fn contains_point(&self, env: &dyn Fn(&str) -> Option<i64>) -> Option<bool> {
        for c in &self.cons {
            if !c.holds(env)? {
                return Some(false);
            }
        }
        Some(true)
    }
}

impl fmt::Display for Polyhedron {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cons.is_empty() {
            return write!(f, "true");
        }
        for (i, c) in self.cons.iter().enumerate() {
            if i > 0 {
                write!(f, " and ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Polyhedron {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{self}}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var;

    fn ge(e: LinExpr) -> Constraint {
        Constraint::ge0(e)
    }

    #[test]
    fn universe_and_empty() {
        assert!(!Polyhedron::universe().is_empty());
        assert!(Polyhedron::empty().is_empty());
    }

    #[test]
    fn simple_emptiness() {
        // x >= 5 and x <= 3 : empty
        let p = Polyhedron::new([ge(var("x") - 5), ge(-var("x") + 3)]);
        assert!(p.is_empty());
        // x >= 3 and x <= 5 : nonempty
        let p = Polyhedron::new([ge(var("x") - 3), ge(-var("x") + 5)]);
        assert!(!p.is_empty());
    }

    #[test]
    fn symbolic_emptiness_conservative() {
        // 1 <= i <= N is rationally nonempty (pick N big) — not provably empty
        let p = Polyhedron::new([ge(var("i") - 1), ge(var("N") - var("i"))]);
        assert!(!p.is_empty());
        // i >= N+1 and i <= N : empty for all N
        let p = Polyhedron::new([ge(var("i") - var("N") - 1), ge(var("N") - var("i"))]);
        assert!(p.is_empty());
    }

    #[test]
    fn eliminate_with_unit_equality() {
        // j = i + 1, 1 <= j <= N  --eliminate j-->  1 <= i+1 <= N
        let p = Polyhedron::new([
            Constraint::eq(var("j"), var("i") + 1),
            ge(var("j") - 1),
            ge(var("N") - var("j")),
        ]);
        let q = p.eliminate("j");
        assert!(!q.vars().contains("j"));
        // i = 0 should satisfy (j = 1 >= 1), i = N should not (j = N+1 > N)
        let at = |i: i64, n: i64| {
            q.contains_point(&|v| match v {
                "i" => Some(i),
                "N" => Some(n),
                _ => None,
            })
            .unwrap()
        };
        assert!(at(0, 5));
        assert!(at(4, 5));
        assert!(!at(5, 5));
        assert!(!at(-1, 5));
    }

    #[test]
    fn eliminate_fm_pairs() {
        // 2x >= j and 3x <= N  =>  eliminating x: 2N - 3j >= 0
        let p = Polyhedron::new([ge(var("x") * 2 - var("j")), ge(var("N") - var("x") * 3)]);
        let q = p.eliminate("x");
        assert_eq!(q.constraints().len(), 1);
        assert_eq!(q.constraints()[0].to_string(), "2N - 3j >= 0");
    }

    #[test]
    fn intersect_detects_conflict() {
        let a = Polyhedron::new([Constraint::eq(var("x"), LinExpr::cst(2))]);
        let b = Polyhedron::new([Constraint::eq(var("x"), LinExpr::cst(3))]);
        assert!(a.intersect(&b).is_empty());
    }

    #[test]
    fn equality_without_unit_coeff() {
        // 2x = j and 0 <= j <= 10 — eliminating x keeps j's parity info only
        // rationally (j in [0,10]); emptiness must still say nonempty.
        let p = Polyhedron::new([
            Constraint::eq(var("x") * 2, var("j")),
            ge(var("j")),
            ge(-var("j") + 10),
        ]);
        let q = p.eliminate("x");
        assert!(!q.is_empty());
    }
}
